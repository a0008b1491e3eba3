"""Planted fixtures for the round-4d operators: market-basket pair
support (event_type_affinity), exact-moment value correlations,
degree_distribution, and tool_transitions."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _df(res) -> pd.DataFrame:
    from nativeextractor_ray.functions.blocks import arrow_blocks

    if isinstance(res, pa.Table):
        return res.to_pandas()
    parts = list(arrow_blocks(res, stream=False))
    if not parts:
        return pd.DataFrame()
    return pa.concat_tables(parts, promote_options="default").to_pandas()


def _write_events(tmp_path, rows):
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([np.datetime64(r[2], "us") for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows]),
        "event_type": pa.array([r[3] for r in rows]),
        "value": pa.array([float(r[4]) for r in rows]),
        "props": pa.array(["{}"] * len(rows)),
    }), tmp_path / "events.parquet")
    return str(tmp_path)


def test_event_type_affinity_planted(ray_session, tmp_path):
    """Pair support counts DISTINCT users; repeat events don't double
    count; ordering is canonical (type_a < type_b)."""
    sf = _write_events(tmp_path, [
        (1, "u1", "2024-01-01T00:00", "click", 1),
        (2, "u1", "2024-01-01T01:00", "view", 1),
        (3, "u1", "2024-01-01T02:00", "click", 1),   # repeat, no effect
        (4, "u2", "2024-01-01T00:00", "click", 1),
        (5, "u2", "2024-01-01T01:00", "view", 1),
        (6, "u2", "2024-01-01T02:00", "purchase", 1),
        (7, "u3", "2024-01-01T00:00", "view", 1),    # single type: no pair
    ])
    from nativeextractor_ray.pipelines.events import event_type_affinity

    got = _df(event_type_affinity(sf)).sort_values(
        ["type_a", "type_b"]).reset_index(drop=True)
    rows = list(zip(got["type_a"], got["type_b"], got["n_users"]))
    assert rows == [("click", "purchase", 1), ("click", "view", 2),
                    ("purchase", "view", 1)]


def test_value_correlations_planted(ray_session, tmp_path):
    """Perfectly correlated and anti-correlated daily sums read ±1;
    days missing one type are excluded (inner day join)."""
    rows, eid = [], 0
    # day 1..3: a = 1, 2, 3 ; b = 2, 4, 6 (corr +1) ; c = 3, 2, 1 (corr -1)
    for d, (va, vb, vc) in enumerate([(1, 2, 3), (2, 4, 2), (3, 6, 1)],
                                     start=1):
        for ty, v in [("a", va), ("b", vb), ("c", vc)]:
            eid += 1
            rows.append((eid, "u", f"2024-01-{d:02d}T00:00", ty, v))
    eid += 1
    rows.append((eid, "u", "2024-01-04T00:00", "a", 9))  # a-only day
    sf = _write_events(tmp_path, rows)
    from nativeextractor_ray.pipelines.events import value_correlations

    got = value_correlations(sf).to_pandas().sort_values(
        ["type_a", "type_b"]).reset_index(drop=True)
    rows = list(zip(got["type_a"], got["type_b"], got["n_days"],
                    got["corr"]))
    assert rows == [("a", "b", 3, 1.0), ("a", "c", 3, -1.0),
                    ("b", "c", 3, -1.0)]


def test_degree_distribution_planted(ray_session):
    """Degrees over distinct directed edges; count-of-counts."""
    import unittest.mock as mock

    from nativeextractor_ray.pipelines import graph
    from test_round4b_ops import _edges_ds

    edges = [
        ("a", "b"), ("a", "c"), ("a", "b"),  # dup edge ignored
        ("b", "c"),
    ]
    # degrees: a=2 (out), b=2 (1 in + 1 out), c=2 (2 in) -> all degree 2
    with mock.patch.object(graph, "_edges",
                           lambda sf: _edges_ds(edges)):
        got = _df(graph.degree_distribution("unused"))
    assert list(got["degree"]) == [2]
    assert list(got["n_entities"]) == [3]


def test_tool_transitions_skips_empty(ray_session):
    """Transitions skip empty-tool turns and conversation boundaries;
    checked against a pandas reference over the real derivation."""
    from nativeextractor_ray.pipelines.kg import tool_transitions
    from nativeextractor_ray.sources.transcripts import (
        transcripts_dataset)

    sf = "/root/testdata/sf0.001"
    got = _df(tool_transitions(sf)).sort_values(
        ["from_tool", "to_tool"]).reset_index(drop=True)

    tr = _df(transcripts_dataset(sf))
    tr = tr[tr["tool"] != ""].sort_values(["conv_id", "turn_idx"])
    ref = {}
    for _, grp in tr.groupby("conv_id"):
        tools = grp["tool"].tolist()
        for x, y in zip(tools, tools[1:]):
            ref[(x, y)] = ref.get((x, y), 0) + 1
    want = (pd.DataFrame(
        [(a, b, n) for (a, b), n in ref.items()],
        columns=["from_tool", "to_tool", "n"])
        .sort_values(["from_tool", "to_tool"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_session_duration_quantiles_planted(ray_session, tmp_path):
    """Sessions break at the gap; durations are last-first; the exact
    kernel picks rank ceil(q*n)."""
    rows = [
        # u1: session A 00:00->00:10 (600s), then 13h gap, session B
        # 13:10->13:15 (300s)
        (1, "u1", "2024-01-01T00:00:00", "c", 1),
        (2, "u1", "2024-01-01T00:10:00", "c", 1),
        (3, "u1", "2024-01-01T13:10:00", "c", 1),
        (4, "u1", "2024-01-01T13:15:00", "c", 1),
        # u2: one singleton session (0s)
        (5, "u2", "2024-01-01T00:00:00", "c", 1),
    ]
    sf = _write_events(tmp_path, rows)
    from nativeextractor_ray.pipelines.quantiles import (
        session_duration_quantiles)

    got = _df(session_duration_quantiles(
        sf, qs=(0.5, 1.0), gap_us=12 * 3600 * 1_000_000)).sort_values(
        "q").reset_index(drop=True)
    # durations sorted: [0, 300s, 600s]; p50 -> rank 2 (300s),
    # p100 -> rank 3 (600s)
    assert list(got["q"]) == [0.5, 1.0]
    assert list(got["dur_us"]) == [300e6, 600e6]


def test_curriculum_assign_planted(ray_session, tmp_path):
    """Edges at exact quantile ranks; boundary docs take the FIRST
    qualifying stage; empty text counts zero tokens."""
    texts = ["a", "a b", "a b c", "a b c d", "", "a b c d e f"]
    pq.write_table(pa.table({
        "doc_id": pa.array(list(range(len(texts))), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), tmp_path / "documents.parquet")
    from nativeextractor_ray.pipelines.curation import curriculum_assign

    got = _df(curriculum_assign(str(tmp_path), stages=2)).sort_values(
        "doc_id").reset_index(drop=True)
    # token counts: 1, 2, 3, 4, 0, 6 -> sorted 0 1 2 3 4 6; median edge
    # at rank ceil(6/2)=3 -> value 2; stage 1 iff n_tokens <= 2
    assert list(got["n_tokens"]) == [1, 2, 3, 4, 0, 6]
    assert list(got["stage"]) == [1, 1, 2, 2, 1, 2]


def test_session_duration_kernel_matches_driver(ray_session, monkeypatch):
    """Bound 0 forces the materialize + refinement-kernel path; output
    must equal the single-collect local quantile selection."""
    from nativeextractor_ray.pipelines import common, quantiles

    sf = "/root/testdata/sf0.001"
    base = _df(quantiles.session_duration_quantiles(sf)).sort_values(
        "q").reset_index(drop=True)
    monkeypatch.setattr(common, "DRIVER_BOUND", 0)
    forced = _df(quantiles.session_duration_quantiles(sf)).sort_values(
        "q").reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)
    assert len(base) > 0
