"""Per-partition checkpoint / lineage / resume for the KG pipeline.

north_rule: "Every stage checkpoints per-partition with lineage and
counters so a killed `ray job submit` run resumes without recomputing
completed partitions."

Design (SURVEY.md §4.3.4):
- Partition id is a *deterministic function of the input* (``doc_id %
  n_partitions``), never of execution order — a resumed run assigns every
  row to the same partition, so skipping a completed partition is safe.
- Each partition runs the pipeline's own plan on its input slice — for
  triples and mentions the very plans the headline runs
  (``kg.triples_dataset`` / ``extract.mentions_dataset`` with
  ``doc_partition``), all in task mode — and
  writes ``parts/<pid>/`` parquet plus ``_manifest/part-<pid>.json`` with
  lineage (input fingerprint: sf_dir, row count, bytes on disk), counters
  (turns in, triples out), a stage-version stamp, and wall time.  The
  manifest is written AFTER the data (write-then-commit ordering), so a
  kill mid-partition leaves no manifest and the partition reruns.
- On resume, a partition is skipped iff its manifest exists, its stage
  version matches, and its input fingerprint matches the current input.
- Partition outputs are *partials* (triple support counted within the
  partition); :func:`finalize` merges them with one small groupby — the
  same associative combine the live pipeline uses, so
  finalize(run_partitioned(...)) ≡ triples_dataset(...) (asserted by
  tests/test_checkpoint.py).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc

STAGE_VERSION = "kgx-triples-v1"


def _input_fingerprint(sf_dir: str) -> dict:
    """Lineage of the ``documents`` input: metadata row count plus on-disk
    size (the file's, or the sum of a directory table's parquet files)."""
    from nativeextractor_ray.sources.tables import table_bytes, table_nrows

    return {"sf_dir": str(sf_dir), "rows": table_nrows(sf_dir, "documents"),
            "size_bytes": table_bytes(sf_dir, "documents")}


def partition_triples(sf_dir: str, pid: int, n_partitions: int, replicate: int = 1):
    """The headline triples plan restricted to one deterministic input slice."""
    from nativeextractor_ray.pipelines.kg import triples_dataset

    return triples_dataset(sf_dir, replicate, doc_partition=(pid, n_partitions))


def partition_mentions(sf_dir: str, pid: int, n_partitions: int, replicate: int = 1):
    """The mention-scan plan restricted to one deterministic input slice."""
    from nativeextractor_ray.pipelines.extract import mentions_dataset

    return mentions_dataset(sf_dir, replicate=replicate, doc_partition=(pid, n_partitions))


def _documents_slice(sf_dir: str, pid: int, n_partitions: int):
    """``(doc_id, text)`` of the documents in the input slice
    ``doc_id % n_partitions == pid``."""
    from nativeextractor_ray.sources.tables import read_table
    from nativeextractor_ray.sources.transcripts import doc_slice

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(doc_slice, batch_format="pyarrow", fn_args=(pid, n_partitions))


def partition_dedup_exact(sf_dir: str, pid: int, n_partitions: int, replicate: int = 1):
    """Per-partition exact-dedup partials: md5 groups WITHIN the slice
    (doc_id % n_partitions); finalize merges them with the same
    associative combine (min keep_id, sum n_dups per key)."""
    from nativeextractor_ray.pipelines.dedup import dedup_exact_from

    return dedup_exact_from(_documents_slice(sf_dir, pid, n_partitions))


def partition_redact(sf_dir: str, pid: int, n_partitions: int, replicate: int = 1):
    """Per-partition PII redaction (doc_id % n_partitions slice) — slices
    are disjoint, so finalize is a concat; manifest counters sum the
    per-doc redaction counts."""
    from nativeextractor_ray.pipelines.curation import redact_batch

    def red(t: pa.Table) -> pa.Table:
        txt, n = redact_batch(t.column("text"))
        return pa.table({"doc_id": t.column("doc_id"),
                         "text_redacted": txt, "n_redacted": n})

    return _documents_slice(sf_dir, pid, n_partitions).map_batches(
        red, batch_format="pyarrow")


def partition_quality_gate(sf_dir: str, pid: int, n_partitions: int,
                           replicate: int = 1):
    """Per-partition quality gate (doc_id % n_partitions slice): emits the
    per-doc pass/fail verdict so the manifest counter sums the PASS count
    — the curation front gate as a resumable stage (slices are disjoint,
    finalize is a concat)."""
    import pyarrow.compute as pc_

    from nativeextractor_ray.pipelines.textstats import TOKEN_RE, _count

    def gate(t: pa.Table) -> pa.Table:
        n_tokens = _count(t.column("text"), TOKEN_RE)
        passed = pc_.cast(pc_.greater_equal(n_tokens, 10), pa.int64())
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_tokens": pc_.cast(n_tokens, pa.int64()),
                         "n_pass": passed})

    return _documents_slice(sf_dir, pid, n_partitions).map_batches(
        gate, batch_format="pyarrow")


#: checkpointable pipelines: name -> (partition factory, finalize combiner,
#: weight column summed into the manifest counters or None)
def _finalize_concat(ds):
    return ds


def _pipelines():
    from nativeextractor_ray.pipelines.dedup import combine_exact_partials
    from nativeextractor_ray.pipelines.kg import combine_triple_partials

    return {
        # outputs are per-(subj,pred,obj) partials -> associative merge
        "triples": (partition_triples, combine_triple_partials, "support"),
        # mentions from disjoint doc slices are globally disjoint -> concat
        "mentions": (partition_mentions, _finalize_concat, None),
        # per-key (md5) partials -> min keep_id + summed n_dups
        "dedup_exact": (partition_dedup_exact, combine_exact_partials, "n_dups"),
        # disjoint doc slices -> concat; counters sum redactions
        "redact": (partition_redact, _finalize_concat, "n_redacted"),
        # disjoint doc slices -> concat; counters sum gate passes
        "quality_gate": (partition_quality_gate, _finalize_concat, "n_pass"),
    }


def _prewarm_fsspec_http() -> None:
    """Make fsspec's lazy http import race-free before overlapping threads.

    Ray Data's path resolution runs ``from fsspec.implementations.http
    import HTTPFileSystem`` on EVERY write and catches only
    ``ModuleNotFoundError`` (ray/data/datasource/path_util.py:150-153).
    Without aiohttp in the environment that import fails and is *retried
    per call*; two overlapped executions can then race CPython's
    failed-import cleanup, and the losing thread observes a
    half-initialized module → ``ImportError: cannot import name
    'HTTPFileSystem'``, which Ray does not catch.  Import once here; if it
    fails, publish a stub module whose ``HTTPFileSystem`` nothing is an
    instance of, so every later lazy import is a cheap sys.modules hit and
    ``_is_http_filesystem`` stays False (we only ever write local paths).
    """
    try:
        import fsspec.implementations.http  # noqa: F401
        return
    except ModuleNotFoundError:
        pass
    except ImportError:
        return  # real module half-usable; don't shadow it
    import sys
    import types

    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # placeholder: isinstance(x, this) is never True
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod
    try:
        import fsspec.implementations as _impl

        _impl.http = mod
    except Exception:
        pass


def run_partitioned(
    sf_dir: str,
    out_dir: str,
    n_partitions: int = 8,
    *,
    pipeline: str = "triples",
    resume: bool = True,
    replicate: int = 1,
    fail_after: int | None = None,
    overlap: int | None = None,
) -> dict:
    """Run a checkpointable pipeline partition by partition.

    ``pipeline`` names an entry of the registry (triples / mentions /
    dedup_exact) — the checkpoint mechanics (deterministic input slices,
    write-then-commit manifests, lineage fingerprints, resume skipping)
    are pipeline-independent.  ``fail_after`` (tests only) raises after N
    partitions to simulate a killed run.  Returns a summary with
    per-partition status + counters.

    ``overlap`` partitions run concurrently (each driver thread owns its
    own Ray Data streaming execution; the cluster interleaves their tasks)
    so per-partition scheduling latency pipelines instead of summing — at
    256 partitions a serial loop is driver-bound.  Manifests remain the
    only commit point: a kill mid-flight leaves at most ``overlap``
    manifest-less partial dirs, which a resumed run clears and reruns.
    Default overlap is ``clamp(cluster_cpus // 8, 1, 4)``: overlapped
    executions share the same CPUs, so more of them than the cluster can
    host alongside their read tasks only adds contention.  ``fail_after``
    forces overlap=1 so the simulated-kill boundary stays deterministic.
    """
    factory, _combine, weight_col = _pipelines()[pipeline]
    out = Path(out_dir)
    man_dir = out / "_manifest"
    man_dir.mkdir(parents=True, exist_ok=True)
    fp = _input_fingerprint(sf_dir)
    stage_version = f"{STAGE_VERSION}:{pipeline}"

    manifests: dict[int, dict] = {}
    ran, skipped, todo = [], [], []
    t_start = time.time()
    for pid in range(n_partitions):
        man_path = man_dir / f"part-{pid}.json"
        if resume and man_path.exists():
            try:
                m = json.loads(man_path.read_text())
            except json.JSONDecodeError:
                m = None
            if (
                m
                and m.get("stage_version") == stage_version
                and m.get("input") == fp
                and m.get("n_partitions") == n_partitions
                and m.get("replicate") == replicate
            ):
                skipped.append(pid)
                manifests[pid] = m
                continue
        todo.append(pid)

    def run_one(pid: int) -> dict:
        t0 = time.time()
        ds = factory(sf_dir, pid, n_partitions, replicate)
        part_dir = out / "parts" / str(pid)  # no "=" in the path: the
        # parquet reader would hive-infer a "part" column and collide with
        # the triple hash-partition column
        # A run killed mid-write leaves orphan parquet files with no
        # manifest; write_parquet appends uniquely-named files, so a resumed
        # rerun would double-count.  Clear the partition dir before writing
        # — the manifest (written after) remains the only commit point.
        if part_dir.exists():
            import shutil

            shutil.rmtree(part_dir)
        # count while writing is not possible in one pass without a
        # materialize; the partition slice is small relative to the job, so
        # materialize it, count, then write (stays distributed in the
        # object store — no driver collection)
        mat = ds.materialize()
        n_rows = mat.count()
        if weight_col is not None:
            weight = sum(
                r["s"] for r in mat.map_batches(
                    lambda t, c=weight_col: pa.table(
                        {"s": pa.array([pc.sum(t.column(c)).as_py() or 0])}
                    ),
                    batch_format="pyarrow",
                ).take_all()
            )
        else:
            weight = n_rows
        mat.write_parquet(str(part_dir))
        manifest = {
            "pid": pid,
            "n_partitions": n_partitions,
            "replicate": replicate,
            "pipeline": pipeline,
            "stage_version": stage_version,
            "input": fp,
            "counters": {"rows": n_rows, "weight_total": int(weight)},
            "wall_sec": round(time.time() - t0, 3),
            "ts": time.time(),
        }
        (man_dir / f"part-{pid}.json").write_text(json.dumps(manifest))  # commit
        return manifest

    if fail_after is not None:
        # deterministic simulated kill: sequential, raise at the boundary
        for pid in todo:
            if len(ran) >= fail_after:
                raise RuntimeError(f"simulated kill after {fail_after} partitions")
            manifests[pid] = run_one(pid)
            ran.append(pid)
    elif todo:
        from concurrent.futures import ThreadPoolExecutor

        _prewarm_fsspec_http()
        if overlap is None:
            from nativeextractor_ray.pipelines.common import _cpus

            overlap = max(1, min(4, _cpus() // 8))
        with ThreadPoolExecutor(max_workers=min(overlap, len(todo))) as ex:
            for pid, m in zip(todo, ex.map(run_one, todo)):
                manifests[pid] = m
                ran.append(pid)

    done = [manifests[pid] for pid in sorted(manifests)]
    return {
        "out_dir": str(out),
        "pipeline": pipeline,
        "n_partitions": n_partitions,
        "ran": ran,
        "skipped": skipped,
        "counters": {
            "rows_partial": sum(m["counters"]["rows"] for m in done),
            "weight_total": sum(m["counters"]["weight_total"] for m in done),
        },
        "wall_sec": round(time.time() - t_start, 3),
    }


def finalize(out_dir: str, pipeline: str = "triples"):
    """Merge per-partition partials into the final Dataset with the
    pipeline's own associative combine (concat for pipelines whose
    partition outputs are globally disjoint)."""
    from nativeextractor_ray.sources.tables import read_parquet_files

    _factory, combine, _w = _pipelines()[pipeline]
    files = [
        str(f)
        for p in sorted(Path(out_dir).glob("parts/*"))
        for f in sorted(p.glob("*.parquet"))
    ]
    ds = read_parquet_files(files)
    return combine(ds)
