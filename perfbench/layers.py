"""Per-layer measurement: spans, process memory, Ray Data operator stats and
an in-process timing of each pipeline module's public functions.

Spans are recorded by the benchmark around its own calls into the package;
nothing inside the package is instrumented.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa

from inputs import label_counts


class Tracer:
    """In-memory spans ``(name, start, end, parent, run_id)`` plus the
    process CPU seconds the span used.  ``span`` always times its block;
    it records the span only while ``enabled``."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "run_id": self.run_id,
               "cpu_s": -time.process_time()}
        if self.enabled:
            self.spans.append(rec)
            self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_s"] += time.process_time()
            if self.enabled:
                self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        out: dict[str, float] = {}
        for rec in self.spans:
            d = rec["end"] - rec["start"]
            out[rec["name"]] = out.get(rec["name"], 0.0) + d
            if rec["parent"] is not None:
                parent = self.spans[rec["parent"]]["name"]
                out[parent] = out.get(parent, 0.0) - d
        return out


def _stat_fields(pid: str) -> list[str]:
    with open(f"/proc/{pid}/stat") as f:
        stat = f.read()
    return stat[stat.rindex(")") + 2:].split()


def _is_ray_worker(pid: str) -> bool:
    with open(f"/proc/{pid}/cmdline", "rb") as f:
        cmd = f.read()
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


class PeakRss:
    """Peak of the summed resident memory of this process and the Ray worker
    processes of its session, sampled from ``/proc`` while the block runs."""

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True, name="perfbench-rss")

    def sample(self) -> int:
        me, sid = str(os.getpid()), os.getsid(0)
        page = os.sysconf("SC_PAGE_SIZE")
        total = 0
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                fields = _stat_fields(pid)
                # fields[0] is /proc/<pid>/stat field 3 (state)
                if int(fields[3]) != sid or (pid != me and not _is_ray_worker(pid)):
                    continue
                total += int(fields[21]) * page
            except (OSError, ValueError, IndexError):
                continue  # the process ended while it was read
        return total

    def _run(self):
        while not self._stop.is_set():
            self.peak_bytes = max(self.peak_bytes, self.sample())
            self._stop.wait(self.interval_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_bytes = max(self.peak_bytes, self.sample())


def _operators(summary) -> list:
    ops = []
    for parent in summary.parents:
        ops.extend(_operators(parent))
    return ops + list(summary.operators_stats)


def _sum(stat) -> float:
    return float(stat["sum"]) if stat else 0.0


def ray_layers(summary, wall_s: float, turns: int, stage_cls: str) -> dict:
    """Layer metrics from Ray Data's structured per-operator stats of one
    executed Dataset (``DatasetStatsSummary``).  ``stage_cls`` names the
    UDF of the fused read/derive/extract operator."""
    ops = _operators(summary)
    by = lambda pred: [o for o in ops if pred(o.operator_name)]  # noqa: E731
    out = {"ray.overhead_s": wall_s - sum(o.time_total_s for o in ops)}
    for o in by(lambda n: n.startswith("ReadParquet")):
        out["sources.read_rows"] = _sum(o.output_num_rows)
        out["sources.read_bytes"] = _sum(o.output_size_bytes)
    for o in by(lambda n: stage_cls in n):
        out["ray.extract_op_wall_s"] = o.time_total_s
        out["ray.extract_op_cpu_s"] = _sum(o.cpu_time)
        out["ray.extract_op_cpu_us_per_turn"] = _sum(o.cpu_time) / turns * 1e6
    exchange = by(lambda n: n in ("SortMap", "SortReduce"))
    if exchange:
        out["exchange.rows"] = _sum(exchange[0].output_num_rows)
        out["exchange.bytes"] = _sum(exchange[0].output_size_bytes)
        out["exchange.wall_s"] = sum(o.time_total_s for o in exchange)
    for o in by(lambda n: "_final_combine" in n):
        out["combine.wall_s"] = o.time_total_s
        out["combine.cpu_s"] = _sum(o.cpu_time)
        if exchange:
            out["combine.ratio"] = out["exchange.rows"] / _sum(o.output_num_rows)
    return out


def module_layers(docs: pa.Table, tracer: Tracer, reps: int) -> dict:
    """Core-µs per turn of each module's public functions on one batch:
    process CPU time in this process with Ray off, the median of ``reps``
    calls after one warm-up call.  Plus exact counts of what each layer
    produced."""
    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.kg import N_TRIPLE_PARTS
    from nativeextractor_ray.sources.transcripts import derive_transcripts_table
    from nativeextractor_ray.stages.kg_extract import KgExtract
    from nativeextractor_ray.stages.miner_pool import STD_MINER_SPECS, MinerPool, build_miners

    n = docs.num_rows

    def us_per_turn(name, fn):
        result = fn()
        cpu = []
        for _ in range(reps):
            with tracer.span(name) as rec:
                fn()
            cpu.append(rec["cpu_s"])
        return statistics.median(cpu) / n * 1e6, result

    out = {}
    out["sources.derive_us_per_turn"], batch = us_per_turn(
        "sources.transcripts.derive_transcripts_table", lambda: derive_transcripts_table(docs))
    texts = batch.column("text").to_pylist()
    joined = "\n".join(texts)

    miners = build_miners(STD_MINER_SPECS)
    scans = 0.0
    for miner in miners:
        scan = getattr(miner, "find_arrays", None) or miner.find
        us, _ = us_per_turn(f"miners.{type(miner).__name__}.find", lambda s=scan: s(joined))
        out[f"miners.{miner.label.lower()}_us_per_turn"] = us
        scans += us
    pool = MinerPool()
    out["miner_pool.call_us_per_turn"], mentions = us_per_turn(
        "stages.miner_pool.MinerPool.__call__", lambda: pool(batch))
    out["miner_pool.self_us_per_turn"] = out["miner_pool.call_us_per_turn"] - scans
    counts = label_counts(mentions)
    for miner in miners:
        out[f"miners.mentions_{miner.label}"] = counts.get(miner.label, 0)

    kg = KgExtract()
    ents_us, ents = us_per_turn(
        "stages.kg_extract.KgExtract.batch_entities", lambda: kg.batch_entities(texts))
    call_us, partial = us_per_turn("stages.kg_extract.KgExtract.__call__", lambda: kg(batch))
    keys = partial.select(["subj", "pred", "obj"])
    part_us, _ = us_per_turn("functions.hashing.stable_part",
                             lambda: stable_part(keys, keys.column_names, N_TRIPLE_PARTS))
    flat = [e for row in ents for e in row]
    out.update({
        "kg_extract.entities_us_per_turn": ents_us,
        "kg_extract.call_us_per_turn": call_us,
        "kg_extract.emit_us_per_turn": call_us - ents_us - part_us,
        "hashing.stable_part_us_per_turn": part_us,
        "kg_extract.entities": len(flat),
        "kg_extract.link_hits": sum(e.startswith("person:") for e in flat),
        "kg_extract.partial_rows": partial.num_rows,
        "kg_extract.partial_bytes": partial.nbytes,
        "exchange.max_part_share": float(
            np.bincount(partial.column("part").to_numpy()).max() / partial.num_rows),
    })
    return out
