"""The fused transcript plans' execution shape, and the names the
benchmark's per-layer metrics are read from.

A fused task plan (``transcripts_dataset(fuse=True)``) runs without Ray
Data's per-operator resource reservation, on its own copy of the
DataContext, and ``triples_dataset`` runs as one streaming execution from
the Parquet read to the final combine.  The second test runs the
benchmark's layer functions (``perfbench/layers.py``) against the package,
so a renamed operator, stage method or column shows here as a missing or
non-finite per-layer metric."""

import json
import math
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = Path(__file__).resolve().parents[1]

# per-layer metrics the benchmark's worker derives from the others or
# from its own pass timings, not from the layer functions
WORKER_METRICS = {"ray.inproc_cpu_ratio", "trace.turns_per_ref_s", "trace.overhead_pct",
                  "wall.turns_per_s", "ref.wall_s"}


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))


def test_fused_plans_run_unreserved_in_one_execution(ray_session, sf_dir):
    import ray.data
    from ray.data._internal.logical.operators.read_operator import Read

    from nativeextractor_ray.pipelines.extract import mentions_dataset
    from nativeextractor_ray.pipelines.kg import triples_dataset

    triples = triples_dataset(sf_dir)
    mentions = mentions_dataset(sf_dir)
    for ds in (triples, mentions):
        assert ds.context.op_resource_reservation_enabled is False
        assert _collect(ds).num_rows > 0
    # the plans' contexts are copies: the session default is untouched
    assert ray.data.DataContext.get_current().op_resource_reservation_enabled is True

    # no materialized intermediate: the DAG's leaf is the Parquet read,
    # not the InputData a materialize() leaves
    op = triples._logical_plan.dag
    names = []
    while op.input_dependencies:
        names.append(op.name)
        (op,) = op.input_dependencies
    assert isinstance(op, Read), (type(op).__name__, names)
    assert names == ["MapBatches(_final_combine)", "Sort", "MapBatches(KgExtract)",
                     "MapBatches(derive_transcripts_table)"]


def test_benchmark_layer_metrics_present_and_finite(ray_session, sf_dir):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from layers import Tracer, module_layers, ray_layers
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    from nativeextractor_ray.pipelines.kg import triples_dataset

    wanted = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # the module timings, called in this process outside Ray
    found = module_layers(docs, Tracer("test", enabled=False), reps=1)

    ds = triples_dataset(sf_dir)
    out = _collect(ds)
    found.update(ray_layers(ds._get_stats_summary(), wall_s=1.0, turns=docs.num_rows,
                            stage_cls="KgExtract"))
    assert found["exchange.rows"] / found["combine.ratio"] == pytest.approx(out.num_rows)
    assert sorted(wanted - WORKER_METRICS - found.keys()) == []
    bad = {k: v for k, v in found.items() if k in wanted and not math.isfinite(v)}
    assert bad == {}
