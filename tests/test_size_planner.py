"""The size planner in ``pipelines/common.py``: every size gate reads one
of its two bounds, and a measured side executes once whichever arm
consumes it."""

import ast
from pathlib import Path

import pyarrow as pa

PKG = Path(__file__).resolve().parents[1] / "nativeextractor_ray"

# loud guards and chunk sizing, not a choice between two arms
KEPT_BOUNDS = {"pipelines/graph.py:VOCAB_BOUND",
               "pipelines/decontam.py:BENCH_BROADCAST_BOUND",
               "pipelines/skyline.py:MERGE_BOUND",
               "pipelines/similarity.py:KNN_CHUNK_BOUND"}
# "<module>:<function>" sites that may measure a lazy plan
KEPT_SIZE_CALLS = {"pipelines/graph.py:_entity_ids",
                   "pipelines/graph.py:entity_pmi",
                   "pipelines/graph.py:entity_neighbor_jaccard",
                   "pipelines/decontam.py:decontaminate",
                   "pipelines/skyline.py:skyline_orders",
                   "pipelines/similarity.py:knn_graph"}


def _modules():
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel != "pipelines/common.py":
            yield rel, ast.parse(path.read_text())


def test_bounds_and_measurements_live_in_common():
    bounds, calls = set(), set()
    for rel, tree in _modules():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            bounds |= {f"{rel}:{t.id}" for t in targets
                       if isinstance(t, ast.Name) and t.id.endswith("_BOUND")}
            for n in ast.walk(node):
                if (isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "size_bytes"):
                    calls.add(f"{rel}:{getattr(node, 'name', '')}")
    assert bounds == KEPT_BOUNDS
    assert calls <= KEPT_SIZE_CALLS, sorted(calls - KEPT_SIZE_CALLS)


def _marked(ds, marks: Path):
    """``ds`` behind a UDF that leaves one file in ``marks`` per call."""
    def mark(t: pa.Table) -> pa.Table:
        import uuid

        (marks / uuid.uuid4().hex).touch()
        return t

    return ds.map_batches(mark, batch_format="pyarrow", batch_size=None)


def test_semi_anti_join_shuffle_arm_runs_key_side_once(ray_session, tmp_path,
                                                       monkeypatch):
    import ray.data

    from nativeextractor_ray.pipelines import common
    from nativeextractor_ray.pipelines.relational import semi_anti_join

    marks = tmp_path / "marks"
    marks.mkdir()
    left = ray.data.from_arrow(
        pa.table({"fk": pa.array([1, 2, 3], pa.int64())}))
    keys = _marked(ray.data.from_arrow(pa.table({"k": pa.array([2, 3, 9])})),
                   marks)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    got = semi_anti_join(left, keys, "fk", anti=False).take_all()
    assert sorted(r["fk"] for r in got) == [2, 3]
    assert len(list(marks.iterdir())) == 1


def test_dedup_incremental_shuffle_arm_runs_index_side_once(
        ray_session, tmp_path, monkeypatch):
    """The documents feed two consumers, the existing-corpus index (the
    measured side) and the new-key stream: one run each, on both arms."""
    import ray.data

    from nativeextractor_ray.pipelines import common, dedup

    docs = pa.table({"doc_id": pa.array(range(12), pa.int64()),
                     "text": [f"t{i % 3}" for i in range(12)]})
    counts = {}
    for bound in (common.BROADCAST_BOUND, 0):
        marks = tmp_path / f"marks{bound}"
        marks.mkdir()
        monkeypatch.setattr(dedup, "_docs", lambda sf_dir, m=marks: _marked(
            ray.data.from_arrow(docs), m))
        monkeypatch.setattr(common, "BROADCAST_BOUND", bound)
        got = dedup.dedup_incremental("unused").take_all()
        assert sorted((r["doc_id"], r["n_existing"]) for r in got) == [
            (0, 3), (4, 3), (8, 3)]
        counts[bound] = len(list(marks.iterdir()))
    assert set(counts.values()) == {2}, counts
