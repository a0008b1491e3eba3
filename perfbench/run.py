"""kgx benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload triples_fused --seed 1 --seconds 12 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``triples_fused``: ``pipelines.kg.triples_dataset``, the headline;
- ``mentions_scan``: ``pipelines.extract.mentions_dataset`` with the
  standard miners;
- ``triples_checkpoint_resume``: ``state.checkpoint.run_partitioned`` killed
  after half the partitions, resumed, then ``finalize``;
- ``all``: each of the above in turn.

Each run has two steps, each a process in a session of its own: inputs.py
writes the seeded input and its DuckDB oracle answers, then worker.py sets
up Ray with as many logical CPUs as ``nproc`` prints and measures.
Every process left in either session is stopped before the next step.
Everything is written under ``.pb/`` in the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it give the input record (seed, turns, text bytes), the
environment and a readable summary with ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".pb")

WORKLOADS = {  # workload -> oracle kinds its runs check against
    "triples_fused": ["triples"],
    "mentions_scan": ["mentions"],
    "triples_checkpoint_resume": ["triples"],
}
N_TURNS = 30_000  # turns in the measured input
N_WARM = 500      # turns in the warm-up input, the size of sf0.001
RUN_DEADLINE_S = 170.0
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp dir>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store
RAY_DIR_MAX = 107 - 64


def _session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(name))
    return pids


def stop_session(sid: int, timeout_s: float = 30.0) -> None:
    """Kill every process of session ``sid`` and wait until all have ended."""
    deadline = time.monotonic() + timeout_s
    while members := _session_members(sid):
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {members} of session {sid} did not end")
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def step(cmd: list[str], env: dict, log, deadline: float) -> bool:
    """Run one step in a new session; True when it exited with code 0."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=log,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {os.path.basename(cmd[1])} exceeded the run deadline",
              file=sys.stderr)
        rc = None
    finally:
        stop_session(proc.pid)
        proc.wait()
    return rc == 0


def ray_temp_dir() -> tuple[str, bool]:
    """Ray's temp dir, inside the checkout when the socket paths fit;
    otherwise a short fresh directory in the system temp dir."""
    path = os.path.join(STATE, "ray")
    if len(path.encode()) <= RAY_DIR_MAX:
        return path, False
    return tempfile.mkdtemp(prefix="pb"), True


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    deadline = time.monotonic() + RUN_DEADLINE_S
    for sub in ("work", "cache", "log", "tmp"):
        os.makedirs(os.path.join(STATE, sub), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=os.path.join(STATE, "work"))
    ray_dir, outside = ray_temp_dir()
    kinds = WORKLOADS[workload] + (["triples"] if trace and "triples" not in WORKLOADS[workload]
                                   else [])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [ROOT, HERE, os.environ.get("PYTHONPATH")])),
               TMPDIR=os.path.join(STATE, "tmp"))
    py = sys.executable
    result_path = os.path.join(work, "result.json")
    try:
        with open(os.path.join(STATE, "log", f"{workload}-{seed}-{trace}.log"), "w") as log:
            ok = step([py, os.path.join(HERE, "inputs.py"), "--seed", str(seed),
                       "--turns", str(N_TURNS), "--warm-turns", str(N_WARM),
                       "--kinds", ",".join(kinds), "--dir", work,
                       "--cache", os.path.join(STATE, "cache")], env, log, deadline)
            ok = ok and step([py, os.path.join(HERE, "worker.py"), "--workload", workload,
                              "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", str(trace), "--in-dir", work, "--ray-dir", ray_dir,
                              "--result", result_path], env, log, deadline)
        if not ok or not os.path.exists(result_path):
            print(f"perfbench: {workload} run failed; see {log.name}", file=sys.stderr)
            return None
        with open(result_path) as f:
            result = json.load(f)
        out_dir = os.path.join(STATE, "out")
        os.makedirs(out_dir, exist_ok=True)
        shutil.copy(result_path, os.path.join(out_dir, f"{workload}-{seed}-{trace}.json"))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)
        if outside:
            print(f"perfbench: the checkout path is too long for Ray's sockets; "
                  f"Ray ran in {ray_dir}", file=sys.stderr)


def report(result: dict) -> None:
    rec, env = result["record"], result["env"]
    print("perfbench record: " + json.dumps({**rec, **env}))
    cols = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in sorted(result["metrics"].items())]
    if "turns_per_s" in result:
        cols.append(f"wall turns_per_s={result['turns_per_s']:.6g} turns/s")
    frac = result["failed"] / max(1, result["attempted"])
    print(f"perfbench {rec['workload']}: failed_frac={frac:.3f} "
          f"({result['failed']}/{result['attempted']})  measured passes={len(result['passes_s'])}  "
          + "  ".join(cols))
    for failure in result["failures"]:
        print(f"perfbench {rec['workload']}: failed {failure['kind']} in {failure['pass']}: "
              + failure["detail"].strip().splitlines()[-1])
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # a SIGTERM unwinds through run_one, which stops what the run started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "nativeextractor_ray")):
        print(f"perfbench: no nativeextractor_ray package in {ROOT}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        result = run_one(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
