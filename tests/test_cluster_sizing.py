"""Plans sized to the cluster they run on: the fused read's block count,
the one-group_by-per-block triple combine, and the custom-spec mention
scan on 1- and 2-CPU clusters."""

import itertools
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from nativeextractor_ray.sources.transcripts import fused_blocks


def _old_fused_blocks(n_docs, replicate, cpus):
    """The rule before the floor followed the cluster: at least 8 blocks."""
    if n_docs is None:
        return 8
    w = (n_docs * replicate) // 50_000
    return max(8, min(cpus, w), w // 4)


_N_DOCS = [None, 0, 1, 500, 30_000, 49_999, 200_000, 1_000_000, 5_000_000]
_REPLICATE = [1, 4, 160]
_CPUS = [1, 2, 3, 4, 7, 8, 9, 16, 32, 64]


def test_fused_blocks_rule():
    for n_docs, replicate, cpus in itertools.product(_N_DOCS, _REPLICATE, _CPUS):
        case = (n_docs, replicate, cpus)
        got = fused_blocks(n_docs, replicate, cpus)
        if cpus >= 8:
            assert got == _old_fused_blocks(n_docs, replicate, cpus), case
        assert got >= 1, case
        if n_docs is None:
            assert got == min(8, cpus), case
            continue
        w = (n_docs * replicate) // 50_000
        # the cap on turns per block: never fewer than w // 4 blocks
        assert got >= w // 4, case
        # below 8 CPUs, more blocks than CPUs only where the cap needs them
        if cpus < 8:
            assert got <= max(cpus, w // 4), case


def test_fused_blocks_small_input_one_cpu():
    assert fused_blocks(30_000, 1, 1) == 1
    assert fused_blocks(30_000, 1, 4) == 4
    assert fused_blocks(30_000, 1, 32) == 8


def _partial_blocks(sf_dir: str) -> list[pa.Table]:
    """Real KgExtract partials, spread so that every (subj, pred, obj)
    sits in exactly two of ten blocks with different support, first_seen
    and prob, plus one empty block."""
    import numpy as np
    import pyarrow.parquet as pq

    from nativeextractor_ray.sources.transcripts import derive_transcripts_table
    from nativeextractor_ray.stages.kg_extract import KgExtract

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).slice(0, 300)
    base = KgExtract()(derive_transcripts_table(docs))
    rng = np.random.default_rng(7)
    idx = np.arange(base.num_rows)
    blocks = []
    for k in range(10):
        t = base.filter(pa.array(idx % 5 == k % 5))
        t = t.set_column(t.schema.get_field_index("support"), "support",
                         pa.array(np.full(t.num_rows, k + 1, np.int64)))
        t = t.set_column(t.schema.get_field_index("first_seen"), "first_seen",
                         pc.binary_join_element_wise(t.column("first_seen"),
                                                     f"/{9 - k}", ""))
        t = t.set_column(t.schema.get_field_index("prob"), "prob",
                         pa.array(rng.random(t.num_rows).astype(np.float32)))
        blocks.append(t)
    blocks.insert(3, base.slice(0, 0))
    return blocks


def _sorted(t: pa.Table) -> pa.Table:
    from nativeextractor_ray.pipelines.kg import TRIPLE_COLS

    t = t.select(TRIPLE_COLS)
    return t.sort_by([("subj", "ascending"), ("pred", "ascending"),
                      ("obj", "ascending")])


def _collect(ds) -> pa.Table:
    import ray

    parts = [ray.get(r) for r in ds.to_arrow_refs()]
    return _sorted(pa.concat_tables([p for p in parts if p.num_columns]))


def _assert_combined(got: pa.Table, want: pa.Table, n_keys: int):
    assert got.num_rows == n_keys
    keys = got.group_by(["subj", "pred", "obj"]).aggregate([])
    assert keys.num_rows == n_keys, "duplicate (subj, pred, obj) after combine"
    assert got.equals(want)


def test_combine_parts_equals_map_groups(sf_dir, ray_session, tmp_path):
    import ray
    import pyarrow.parquet as pq

    from nativeextractor_ray.pipelines.kg import (
        _final_combine, combine_parts, combine_triple_partials)
    from nativeextractor_ray.state.checkpoint import finalize

    blocks = _partial_blocks(sf_dir)
    assert len(blocks) > 8 and min(b.num_rows for b in blocks) == 0
    n_keys = pa.concat_tables(blocks).group_by(["subj", "pred", "obj"]).aggregate([]).num_rows
    ds = ray.data.from_arrow(blocks)
    assert ds.num_blocks() == len(blocks)

    # the per-``part`` combine this replaces, kept here as the reference
    want = _collect(ds.groupby("part").map_groups(_final_combine, batch_format="pyarrow"))
    assert want.num_rows == n_keys
    assert pc.min(want.column("support")).as_py() >= 2
    _assert_combined(_collect(combine_parts(ds)), want, n_keys)

    no_part = [b.drop_columns(["part"]) for b in blocks]
    _assert_combined(_collect(combine_triple_partials(ray.data.from_arrow(no_part))),
                     want, n_keys)

    out = tmp_path / "kg_out"
    for pid, b in enumerate(no_part):
        (out / "parts" / f"{pid:05d}").mkdir(parents=True)
        pq.write_table(b, out / "parts" / f"{pid:05d}" / "part-0.parquet")
    _assert_combined(_collect(finalize(str(out))), want, n_keys)


_CUSTOM_SPEC_RUN = """
import sys
import ray
from nativeextractor_ray.pipelines.extract import mentions_dataset
from nativeextractor_ray.sources.transcripts import DICT_NAMES

sf_dir = sys.argv[1]
for cpus in (1, 2):
    ray.init(address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR")
    ds = mentions_dataset(sf_dir, specs=[("ner", (DICT_NAMES,), {"label": "Dict"})])
    print("mentions", cpus, ds.count(), flush=True)
    ray.shutdown()
"""


def test_custom_spec_mentions_complete_on_one_and_two_cpus(sf_dir, tmp_path):
    """A custom-spec mention scan must not wait for CPUs the cluster does
    not have.  It runs as tasks, as every spec set does, holding no CPU
    between them; an actor stage here once held the only CPU at 1 CPU,
    and both at 2 CPUs, starving the read tasks that feed it."""
    import os
    import signal
    import subprocess
    import sys

    repo = str(Path(__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": repo}
    proc = subprocess.Popen(
        [sys.executable, "-c", _CUSTOM_SPEC_RUN, sf_dir],
        env=env, cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        pytest.fail(f"mentions_dataset did not finish within 150 s; got {out!r}")
    assert proc.returncode == 0, err[-2000:]
    counts = {int(c): int(n) for _, c, n in (line.split() for line in out.splitlines()
                                            if line.startswith("mentions "))}
    assert set(counts) == {1, 2}
    assert counts[1] == counts[2] > 0
