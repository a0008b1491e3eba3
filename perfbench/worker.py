"""One benchmark run: set up Ray, run one workload against the public
pipeline entry points for the measured time, check every output against the
DuckDB oracle answers that inputs.py prepared, and write the result as JSON.

``run.py`` starts this script in a process session of its own and stops
every process left in that session afterwards.  Every pipeline pass (an
"attempt") runs under a timeout; a pass that times out, raises, or returns
output that differs from the oracle counts as failed.  After a timeout the
run ends at once, because a wedged Ray session cannot run further passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

import inputs
from layers import PeakRss, Tracer, module_layers, ray_layers
from reference import reference_s

N_SETUPS = 2          # Ray set-ups per run; setup_s is their median
N_PARTITIONS = 4      # checkpoint partitions; the simulated kill lands after half
MICRO_TURNS = 16_384  # one batch for the in-process module timings
MICRO_REPS = 3
ATTEMPT_TIMEOUT_S = 60.0    # a healthy pass on the measured input takes seconds
OBJECT_STORE_BYTES = 512 << 20  # the input is ~12 MB; keeps shared memory small


class Mismatch(Exception):
    """The pipeline returned, but not the oracle's answer."""


class AttemptTimeout(Exception):
    pass


def collect(ds) -> pa.Table:
    """Consume a Dataset on the driver, as a caller of the pipeline would."""
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))


def triples_fused(in_dir, scratch, tracer):
    from nativeextractor_ray.pipelines.kg import triples_dataset

    with tracer.span("pipelines.kg.triples_dataset"):
        ds = triples_dataset(in_dir)
        out = collect(ds)
    return out, {"ds": ds}


def mentions_scan(in_dir, scratch, tracer):
    from nativeextractor_ray.pipelines.extract import mentions_dataset

    with tracer.span("pipelines.extract.mentions_dataset"):
        ds = mentions_dataset(in_dir)
        out = collect(ds)
    return out, {"ds": ds}


def triples_checkpoint_resume(in_dir, scratch, tracer):
    """The ``run_kg`` path: a run killed after half the partitions, the
    resumed run, and ``finalize``, whose result must equal the oracle
    exactly as ``triples_dataset`` does."""
    from nativeextractor_ray.state.checkpoint import finalize, run_partitioned

    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    half = N_PARTITIONS // 2
    try:
        with tracer.span("state.checkpoint.run_partitioned.killed"):
            try:
                run_partitioned(in_dir, str(out_dir), N_PARTITIONS, pipeline="triples",
                                fail_after=half)
            except RuntimeError as e:
                if "simulated kill" not in str(e):
                    raise
            else:
                raise Mismatch("run_partitioned ran past fail_after")
        t_resume = time.perf_counter()
        with tracer.span("state.checkpoint.run_partitioned.resumed"):
            summary = run_partitioned(in_dir, str(out_dir), N_PARTITIONS, pipeline="triples")
        t_finalize = time.perf_counter()
        with tracer.span("state.checkpoint.finalize"):
            ds = finalize(str(out_dir))
            out = collect(ds)
        t_end = time.perf_counter()
        if summary["skipped"] != list(range(half)):
            raise Mismatch(f"resume skipped {summary['skipped']}, expected {list(range(half))}")
        manifests = [json.loads(p.read_text()) for p in (out_dir / "_manifest").glob("*.json")]
        layers = {
            "checkpoint.partition_wall_s": statistics.median(m["wall_sec"] for m in manifests),
            "checkpoint.bytes_written": sum(p.stat().st_size for p in (out_dir / "parts").rglob("*")
                                            if p.is_file()),
            "checkpoint.manifests": len(manifests),
            "checkpoint.resume_skipped": len(summary["skipped"]),
            "checkpoint.finalize_s": t_end - t_finalize,
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return out, {"ds": ds, "resume_s": t_end - t_resume, "layers": layers}


#: workload -> (pass, oracle kind, UDF class of the fused extract stage,
#: layer groups whose Ray operator stats the pass's returned Dataset holds)
WORKLOADS = {
    "triples_fused": (triples_fused, "triples", "KgExtract",
                      ("sources", "ray", "exchange", "combine")),
    "mentions_scan": (mentions_scan, "mentions", "MinerPool", ("sources", "ray")),
    # the Dataset is finalize's: its exchange and combine merge the partials
    "triples_checkpoint_resume": (triples_checkpoint_resume, "triples", "KgExtract",
                                  ("exchange", "combine")),
}


def unit_of(name: str) -> str:
    for suffix, unit in (("_us_per_turn", "us/turn"), ("turns_per_s", "turns/s"),
                         ("turns_per_ref_s", "turns/ref-s"),
                         ("_pct", "%"), ("_mb", "MB"), ("bytes", "B"), ("_s", "s"),
                         ("_share", "ratio"), ("_ratio", "ratio"), (".ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


class Run:
    """Attempt bookkeeping for one run: every pass is bounded by a timeout
    and checked against the oracle answer of its kind."""

    def __init__(self, in_dir: str):
        with open(os.path.join(in_dir, "expected.json")) as f:
            prepared = json.load(f)
        self.record = prepared["record"]
        self.expected = {which: prepared[which] for which in ("main", "warm")}
        self.in_dir = in_dir
        self.attempted = 0
        self.failures: list[dict] = []

    def attempt(self, fn, kind: str, which: str, tracer: Tracer):
        """Run one pass on input ``which`` ("main" or "warm").  Returns
        ``(wall_s, info)``, with ``info`` None when the pass failed.
        Raises AttemptTimeout when the pass hangs."""
        self.attempted += 1
        box: dict = {}

        def target():
            t0 = time.perf_counter()
            try:
                box["out"], box["info"] = fn(os.path.join(self.in_dir, which), self.in_dir, tracer)
            except Exception as e:  # reported as a failed attempt
                box["error"] = e
                box["tb"] = traceback.format_exc()
            box["wall"] = time.perf_counter() - t0

        thread = threading.Thread(target=target, daemon=True, name="perfbench-attempt")
        thread.start()
        thread.join(ATTEMPT_TIMEOUT_S)
        if thread.is_alive():
            self.failures.append({"kind": "timeout", "pass": fn.__name__,
                                  "detail": f"no result after {ATTEMPT_TIMEOUT_S} s"})
            raise AttemptTimeout
        if "error" in box:
            failure = "mismatch" if isinstance(box["error"], Mismatch) else "error"
            self.failures.append({"kind": failure, "pass": fn.__name__, "detail": box["tb"]})
            return box["wall"], None
        want = self.expected[which][kind]
        got = inputs.output_answer(kind, box["out"])
        if got != want:
            self.failures.append({"kind": "mismatch", "pass": fn.__name__,
                                  "detail": f"output {got} != oracle {want}"})
            return box["wall"], None
        return box["wall"], box["info"]


def log(msg: str) -> None:
    print(f"perfbench {time.strftime('%H:%M:%S')} {msg}", file=sys.stderr, flush=True)


def ray_init(cpus: int, temp_dir: str) -> None:
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False, log_to_driver=False,
             logging_level="WARNING", _temp_dir=temp_dir,
             object_store_memory=OBJECT_STORE_BYTES)


def environment(cpus: int) -> dict:
    import ray

    from bench import _core_speed_probe

    return {"nproc": cpus, "cpus_allowed": len(os.sched_getaffinity(0)), "ray_cpus": None,
            "ray": ray.__version__, "pyarrow": pa.__version__, "core_speed": _core_speed_probe()}


def measure(args, run: Run, cpus: int, result: dict) -> None:
    import ray
    import ray.data

    run_pass, kind, stage_cls, groups = WORKLOADS[args.workload]
    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}", enabled=bool(args.trace))
    metrics = result["metrics"]
    if args.trace:  # module timings with Ray off
        docs = pq.read_table(os.path.join(run.in_dir, "main", "documents.parquet"))
        metrics.update(module_layers(docs.slice(0, MICRO_TURNS), tracer, MICRO_REPS))

    ray.data.DataContext.get_current().enable_progress_bars = False
    turns = run.record["turns"]
    n_setups = 1 if args.trace else N_SETUPS
    setups, rates, wall_rates, traced_rates, refs, resumes, last = [], [], [], [], [], [], None
    busy, n, peak_rss = 0.0, 0, 0
    for i in range(n_setups):
        log(f"set-up {i + 1}")
        t0 = time.perf_counter()
        ray_init(cpus, args.ray_dir)
        init_s = time.perf_counter() - t0
        result["env"]["ray_cpus"] = ray.cluster_resources().get("CPU")
        wall, ok = run.attempt(run_pass, kind, "warm", tracer)
        if ok is not None:
            setups.append(init_s + wall)
            result["setups_s"].append([init_s, wall])
        # each set-up measures its share of the window, so the passes
        # sample the whole run rather than one stretch of a shared host
        log("measure")
        with PeakRss() as rss:
            ref_before = reference_s()
            busy += ref_before
            while busy < args.seconds * (i + 1) / n_setups or (args.trace and n < 2):
                # a traced run alternates untraced and traced passes; the
                # two rates give the tracing overhead
                tracer.enabled = bool(args.trace) and n % 2 == 1
                wall, info = run.attempt(run_pass, kind, "main", tracer)
                ref_after = reference_s()
                ref = (ref_before + ref_after) / 2
                ref_before = ref_after
                busy, n = busy + wall + ref_after, n + 1
                result["passes_s"].append([wall, ref])
                if info is None:
                    continue
                refs.append(ref)
                (traced_rates if tracer.enabled else rates).append(turns / (wall / ref))
                if not tracer.enabled:
                    wall_rates.append(turns / wall)
                if "resume_s" in info:
                    resumes.append(info["resume_s"])
                if tracer.enabled:
                    last = (wall, info)
        peak_rss = max(peak_rss, rss.peak_bytes)
        if i < n_setups - 1:
            ray.shutdown()

    log("measured")
    if not args.trace:
        if rates:
            metrics["turns_per_ref_s"] = statistics.median(rates)
            result["turns_per_s"] = statistics.median(wall_rates)
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss / 2**20
        if resumes:
            metrics["resume_s"] = statistics.median(resumes)
        return
    if last is None:
        return

    def add_ray_layers(wall, info, stage, groups):
        found = ray_layers(info["ds"]._get_stats_summary(), wall, turns, stage)
        metrics.update({k: v for k, v in found.items() if k.split(".")[0] in groups})

    tracer.enabled = True
    wall, info = last
    add_ray_layers(wall, info, stage_cls, groups)
    metrics.update(info.get("layers", {}))
    if "exchange" not in groups:
        # this workload's pipeline has no exchange: trace the triples one
        wall, info = run.attempt(triples_fused, "triples", "main", tracer)
        if info is not None:
            add_ray_layers(wall, info, "KgExtract", ("exchange", "combine"))
    if "ray.extract_op_cpu_us_per_turn" in metrics:
        stage_us = metrics[{"KgExtract": "kg_extract", "MinerPool": "miner_pool"}[stage_cls]
                           + ".call_us_per_turn"]
        metrics["ray.inproc_cpu_ratio"] = (
            (metrics["sources.derive_us_per_turn"] + stage_us)
            / metrics["ray.extract_op_cpu_us_per_turn"])
    metrics["trace.turns_per_ref_s"] = statistics.median(traced_rates)
    metrics["ref.wall_s"] = statistics.median(refs)
    if rates:
        untraced = statistics.median(rates)
        metrics["trace.overhead_pct"] = (
            (untraced - metrics["trace.turns_per_ref_s"]) / untraced * 100)
        metrics["wall.turns_per_s"] = statistics.median(wall_rates)
    result["spans"] = tracer.spans
    result["self_s"] = tracer.self_times()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--in-dir", required=True, help="prepared by inputs.py")
    p.add_argument("--ray-dir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    log("start")
    cpus = inputs.nproc()
    run = Run(args.in_dir)
    result = {"record": {"workload": args.workload, "trace": args.trace, **run.record},
              "env": environment(cpus), "metrics": {}, "setups_s": [], "passes_s": []}
    # Ray and the reference job share the first ``nproc`` allowed CPUs, so
    # the reference job times the CPUs the passes ran on
    pinned = sorted(os.sched_getaffinity(0))[:cpus]
    os.sched_setaffinity(0, pinned)
    result["env"]["pinned_cpus"] = pinned
    timed_out = False
    try:
        measure(args, run, cpus, result)
    except AttemptTimeout:
        timed_out = True  # recorded as a failure
    finally:
        result["attempted"] = run.attempted
        result["failed"] = len(run.failures)
        result["failures"] = run.failures
        result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                             for k, v in result["metrics"].items()}
        tmp = f"{args.result}.tmp"
        with open(tmp, "w") as f:
            json.dump(result, f)
        os.replace(tmp, args.result)
    if not timed_out:
        import ray

        ray.shutdown()
        return 0
    # a Ray call is still blocked in the attempt thread: skip interpreter
    # teardown; run.py stops what is left of the session
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
