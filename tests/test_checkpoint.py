"""Checkpoint / lineage / resume (north_rule: a killed run resumes without
recomputing completed partitions)."""

import json
import shutil
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pytest


def _to_df(ds) -> pd.DataFrame:
    import ray

    parts = [ray.get(r) for r in ds.to_arrow_refs()]
    parts = [p for p in parts if p.num_rows] or parts[:1]
    df = pa.concat_tables(parts, promote_options="default").to_pandas()
    return df.sort_values(["subj", "pred", "obj"], kind="stable").reset_index(drop=True)


def _to_df_cols(ds, cols) -> pd.DataFrame:
    import ray

    parts = [ray.get(r) for r in ds.to_arrow_refs()]
    parts = [p for p in parts if p.num_rows] or parts[:1]
    df = pa.concat_tables(parts, promote_options="default").to_pandas()[cols]
    return df.sort_values(cols, kind="stable").reset_index(drop=True)


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "kg_out")


def test_partitioned_equals_direct(sf_dir, out_dir, ray_session):
    from nativeextractor_ray.pipelines.kg import triples_dataset
    from nativeextractor_ray.state.checkpoint import finalize, run_partitioned

    summary = run_partitioned(sf_dir, out_dir, n_partitions=4)
    assert summary["ran"] == [0, 1, 2, 3] and summary["skipped"] == []
    assert len(list(Path(out_dir).glob("_manifest/part-*.json"))) == 4

    got = _to_df(finalize(out_dir))
    want = _to_df(triples_dataset(sf_dir))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_killed_run_resumes_without_recompute(sf_dir, out_dir, ray_session):
    from nativeextractor_ray.state.checkpoint import run_partitioned

    # simulate a kill after 2 partitions
    with pytest.raises(RuntimeError, match="simulated kill"):
        run_partitioned(sf_dir, out_dir, n_partitions=4, fail_after=2)
    manifests = sorted(Path(out_dir).glob("_manifest/part-*.json"))
    assert len(manifests) == 2
    stamps = {m.name: m.stat().st_mtime_ns for m in manifests}

    # resumed run: completed partitions are skipped (manifests untouched)
    summary = run_partitioned(sf_dir, out_dir, n_partitions=4)
    assert summary["skipped"] == [0, 1]
    assert summary["ran"] == [2, 3]
    for m in manifests:
        assert m.stat().st_mtime_ns == stamps[m.name], "completed partition recomputed"


def test_lineage_invalidation(sf_dir, out_dir, ray_session):
    """A manifest whose lineage doesn't match the current input reruns."""
    from nativeextractor_ray.state.checkpoint import run_partitioned

    run_partitioned(sf_dir, out_dir, n_partitions=2)
    man = Path(out_dir) / "_manifest" / "part-0.json"
    m = json.loads(man.read_text())
    m["input"]["rows"] += 1  # pretend the input changed
    man.write_text(json.dumps(m))

    summary = run_partitioned(sf_dir, out_dir, n_partitions=2)
    assert summary["ran"] == [0]
    assert summary["skipped"] == [1]


def test_manifest_counters(sf_dir, out_dir, ray_session):
    from nativeextractor_ray.state.checkpoint import run_partitioned

    summary = run_partitioned(sf_dir, out_dir, n_partitions=2)
    for pid in (0, 1):
        m = json.loads((Path(out_dir) / "_manifest" / f"part-{pid}.json").read_text())
        assert m["counters"]["rows"] > 0
        assert m["counters"]["weight_total"] >= m["counters"]["rows"]
        assert m["wall_sec"] > 0 and m["stage_version"]
    assert summary["counters"]["rows_partial"] > 0


def test_mentions_killed_run_resumes(sf_dir, out_dir, ray_session):
    """Checkpoint/resume for a NON-KG pipeline (mention scan): kill after 1
    of 3 partitions, resume, finalize == the direct pipeline output."""
    import ray

    from nativeextractor_ray.pipelines.extract import mentions_dataset
    from nativeextractor_ray.state.checkpoint import finalize, run_partitioned

    with pytest.raises(RuntimeError, match="simulated kill"):
        run_partitioned(sf_dir, out_dir, n_partitions=3, pipeline="mentions",
                        fail_after=1)
    assert len(list(Path(out_dir).glob("_manifest/part-*.json"))) == 1

    summary = run_partitioned(sf_dir, out_dir, n_partitions=3, pipeline="mentions")
    assert summary["skipped"] == [0] and summary["ran"] == [1, 2]

    def rows(ds):
        out = []
        for r in ds.to_arrow_refs():
            t = ray.get(r)
            if t.num_rows:
                out.extend(zip(t.column("conv_id").to_pylist(),
                               t.column("turn_idx").to_pylist(),
                               t.column("pos").to_pylist(),
                               t.column("label").to_pylist(),
                               t.column("surface").to_pylist()))
        return sorted(out)

    assert rows(finalize(out_dir, pipeline="mentions")) == rows(mentions_dataset(sf_dir))


def test_dedup_exact_partitioned_equals_direct(sf_dir, out_dir, ray_session):
    """Checkpointed exact dedup: per-slice md5 partials merge to exactly
    the direct groupby output (min keep_id, summed n_dups)."""
    from nativeextractor_ray.pipelines.dedup import dedup_exact
    from nativeextractor_ray.state.checkpoint import finalize, run_partitioned

    run_partitioned(sf_dir, out_dir, n_partitions=3, pipeline="dedup_exact")
    got = _to_df_cols(finalize(out_dir, pipeline="dedup_exact"),
                      ["key", "keep_id", "n_dups"])
    want = _to_df_cols(dedup_exact(sf_dir), ["key", "keep_id", "n_dups"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_run_kg_cli(sf_dir, tmp_path, ray_session):
    """The ray-job entrypoint end-to-end (in-process, session reused)."""
    from nativeextractor_ray.run_kg import main

    out = str(tmp_path / "cli_out")
    rc = main(["--sf-dir", sf_dir, "--out", out, "--partitions", "2"])
    assert rc == 0
    assert (Path(out) / "triples").exists()
    assert len(list(Path(out).glob("parts/*"))) == 2


def test_redact_killed_run_resumes(sf_dir, out_dir, ray_session):
    """Checkpointed redaction: kill mid-run, resume, output equals the
    direct per-batch redaction of the whole table."""
    import pytest

    from nativeextractor_ray.state.checkpoint import finalize, run_partitioned

    with pytest.raises(RuntimeError):
        run_partitioned(sf_dir, out_dir, n_partitions=4, pipeline="redact",
                        fail_after=2)
    run_partitioned(sf_dir, out_dir, n_partitions=4, pipeline="redact")
    got = _to_df_cols(finalize(out_dir, pipeline="redact"),
                      ["doc_id", "text_redacted", "n_redacted"])

    import pyarrow as pa2

    from nativeextractor_ray.pipelines.curation import redact_batch
    from nativeextractor_ray.sources.tables import read_table

    def red(t):
        txt, n = redact_batch(t.column("text"))
        return pa2.table({"doc_id": t.column("doc_id"),
                          "text_redacted": txt, "n_redacted": n})

    direct = read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        red, batch_format="pyarrow")
    want = _to_df_cols(direct, ["doc_id", "text_redacted", "n_redacted"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_run_kg_cli_pipeline_flag(sf_dir, tmp_path, ray_session):
    """--pipeline selects any registry entry (redact here) end-to-end."""
    from nativeextractor_ray.run_kg import main

    out = str(tmp_path / "cli_redact")
    rc = main(["--sf-dir", sf_dir, "--out", out, "--partitions", "2",
               "--pipeline", "redact"])
    assert rc == 0
    assert (Path(out) / "redact").exists()


def test_overlapped_run_equals_serial(sf_dir, tmp_path, ray_session):
    """overlap>1 (concurrent partition executions) produces bit-identical
    outputs + manifests to the serial loop; manifests stay the commit
    point.  Uses the redact pipeline, the cheapest to run."""
    from nativeextractor_ray.state.checkpoint import finalize, run_partitioned

    a, b = str(tmp_path / "serial"), str(tmp_path / "overlap")
    s1 = run_partitioned(sf_dir, a, n_partitions=4, pipeline="redact", overlap=1)
    s2 = run_partitioned(sf_dir, b, n_partitions=4, pipeline="redact", overlap=2)
    assert s1["ran"] == s2["ran"] == [0, 1, 2, 3]
    assert s1["counters"] == s2["counters"]
    assert len(list(Path(b).glob("_manifest/part-*.json"))) == 4

    cols = ["doc_id", "text_redacted", "n_redacted"]
    pd.testing.assert_frame_equal(
        _to_df_cols(finalize(a, pipeline="redact"), cols),
        _to_df_cols(finalize(b, pipeline="redact"), cols),
        check_dtype=False,
    )


def test_quality_gate_killed_run_resumes(sf_dir, out_dir, ray_session):
    """Checkpointed curation front gate: kill mid-run, resume, output +
    manifest pass counter equal the direct whole-table gate."""
    import pytest

    from nativeextractor_ray.state.checkpoint import finalize, run_partitioned

    with pytest.raises(RuntimeError):
        run_partitioned(sf_dir, out_dir, n_partitions=4,
                        pipeline="quality_gate", fail_after=2)
    summary = run_partitioned(sf_dir, out_dir, n_partitions=4,
                              pipeline="quality_gate")
    got = _to_df_cols(finalize(out_dir, pipeline="quality_gate"),
                      ["doc_id", "n_tokens", "n_pass"])

    import pyarrow as pa2
    import pyarrow.compute as pc2

    from nativeextractor_ray.pipelines.textstats import TOKEN_RE, _count
    from nativeextractor_ray.sources.tables import read_table

    def gate(t):
        n_tokens = _count(t.column("text"), TOKEN_RE)
        return pa2.table({
            "doc_id": t.column("doc_id"),
            "n_tokens": pc2.cast(n_tokens, pa2.int64()),
            "n_pass": pc2.cast(pc2.greater_equal(n_tokens, 10), pa2.int64())})

    direct = read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        gate, batch_format="pyarrow")
    want = _to_df_cols(direct, ["doc_id", "n_tokens", "n_pass"])
    assert got.equals(want)
    # manifest weight counter sums the pass column across partitions
    assert summary["counters"]["weight_total"] == int(want["n_pass"].sum())


_ONE_CPU_RUN = """
import sys
import ray
from nativeextractor_ray.state.checkpoint import finalize, run_partitioned

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
sf_dir, out = sys.argv[1], sys.argv[2]
for pipeline in ("triples", "mentions"):
    run_partitioned(sf_dir, f"{out}/{pipeline}", 2, pipeline=pipeline)
    print(pipeline, finalize(f"{out}/{pipeline}", pipeline=pipeline).count())
ray.shutdown()
"""


def test_checkpoint_pipelines_complete_on_one_cpu(sf_dir, tmp_path):
    """The checkpointed triples and mentions plans need no more than one
    Ray CPU: a plan that waits for a second actor slot never finishes."""
    import os
    import signal
    import subprocess
    import sys

    repo = str(Path(__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": repo}
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_RUN, sf_dir, str(tmp_path / "out")],
        env=env, cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("run_partitioned did not finish within 150 s on 1 Ray CPU")
    assert proc.returncode == 0, err[-2000:]
    counts = {k: int(v) for k, v in (line.split() for line in out.splitlines()
                                     if line.startswith(("triples ", "mentions ")))}
    assert counts["triples"] > 0 and counts["mentions"] > 0


def test_directory_table_resume_equals_direct(sf_dir, tmp_path, ray_session):
    """A directory-layout ``documents`` table (scripts/split_table.py)
    fingerprints, resumes after a kill and finalizes to the direct triples."""
    import importlib.util

    import pyarrow.parquet as pq

    from nativeextractor_ray.pipelines.kg import triples_dataset
    from nativeextractor_ray.state.checkpoint import finalize, run_partitioned

    split_dir = tmp_path / "sf_split"
    split_dir.mkdir()
    pq.write_table(pq.read_table(f"{sf_dir}/documents.parquet"),
                   split_dir / "documents.parquet", row_group_size=128)
    spec = importlib.util.spec_from_file_location(
        "split_table", Path(__file__).resolve().parents[1] / "scripts" / "split_table.py")
    split_table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(split_table)
    split_table.split(str(split_dir), "documents", 4)
    assert len(list((split_dir / "documents").glob("*.parquet"))) == 4

    out = str(tmp_path / "kg_out")
    with pytest.raises(RuntimeError, match="simulated kill"):
        run_partitioned(str(split_dir), out, n_partitions=4, fail_after=2)
    summary = run_partitioned(str(split_dir), out, n_partitions=4)
    assert summary["skipped"] == [0, 1] and summary["ran"] == [2, 3]
    m = json.loads((Path(out) / "_manifest" / "part-0.json").read_text())
    assert m["input"]["rows"] == pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows

    got = _to_df(finalize(out))
    want = _to_df(triples_dataset(sf_dir))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_single_file_fingerprint_unchanged(sf_dir):
    """Single-file fingerprints keep their values, so existing manifests
    still match on resume."""
    import pyarrow.parquet as pq

    from nativeextractor_ray.state.checkpoint import _input_fingerprint

    path = Path(sf_dir) / "documents.parquet"
    assert _input_fingerprint(sf_dir) == {
        "sf_dir": str(sf_dir),
        "rows": pq.ParquetFile(path).metadata.num_rows,
        "size_bytes": path.stat().st_size,
    }
