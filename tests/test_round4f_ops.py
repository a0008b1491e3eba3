"""Planted fixtures for the round-4f operators: snapshot compaction /
diff, table checksums, conversion-latency quantiles."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _df(res) -> pd.DataFrame:
    from nativeextractor_ray.functions.blocks import arrow_blocks

    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    parts = list(arrow_blocks(res, stream=False))
    if not parts:
        return pd.DataFrame()
    return pa.concat_tables(parts, promote_options="default").to_pandas()


def _write_docs(tmp_path, rows):
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "lang": pa.array(["en"] * len(rows)),
        "source": pa.array(["s"] * len(rows)),
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    }), tmp_path / "documents.parquet")
    return str(tmp_path)


def _write_events(tmp_path, rows):
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([np.datetime64(r[2], "us") for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows]),
        "value": pa.array([float(r[4]) for r in rows]),
        "props": pa.array(["{}"] * len(rows)),
    }), tmp_path / "events.parquet")
    return str(tmp_path)


# ------------------------------------------------------------ versioning


def test_snapshot_compact_planted(ray_session, tmp_path):
    """doc 7: updated (v2, upper); doc 3: tombstoned (11·k+3, gone);
    doc 13: insert lands at 13 + 10⁹; doc 1: untouched v1; doc 77
    (7·11, %11==0) only updated."""
    sf = _write_docs(tmp_path, [
        (1, "alpha beta"),
        (3, "to delete"),
        (7, "update me"),
        (13, "insert source"),
        (77, "both mods"),
    ])
    from nativeextractor_ray.pipelines.versioned import (
        INSERT_OFFSET, snapshot_compact)

    got = _df(snapshot_compact(sf)).set_index("doc_id")
    assert 3 not in got.index                      # tombstoned
    assert int(got.loc[7, "version"]) == 2         # updated
    assert int(got.loc[77, "version"]) == 2        # updated (not deleted)
    assert int(got.loc[1, "version"]) == 1         # untouched
    assert int(got.loc[13, "version"]) == 1        # source of the insert
    assert int(got.loc[13 + INSERT_OFFSET, "version"]) == 2


def test_snapshot_diff_planted(ray_session, tmp_path):
    sf = _write_docs(tmp_path, [
        (1, "alpha beta"),      # unchanged
        (3, "to delete"),       # deleted
        (7, "update me"),       # changed (upper != lower)
        (13, "insert source"),  # unchanged + spawns an added row
    ])
    from nativeextractor_ray.pipelines.versioned import snapshot_diff

    got = _df(snapshot_diff(sf)).set_index("change")["n"]
    assert int(got["added"]) == 1
    assert int(got["deleted"]) == 1
    assert int(got["changed"]) == 1
    assert int(got["unchanged"]) == 2


def test_snapshot_compact_no_dup_keys(ray_session, tmp_path):
    """Exactly one surviving row per doc_id even when update+insert
    conditions overlap (doc 91 = 7·13: updated AND spawns an insert)."""
    sf = _write_docs(tmp_path, [(91, "x y"), (92, "z w")])
    from nativeextractor_ray.pipelines.versioned import snapshot_compact

    got = _df(snapshot_compact(sf))
    assert got["doc_id"].is_unique
    assert len(got) == 3  # 91 (v2), 92 (v1), 91+10⁹ (insert)


# ------------------------------------------------------------ checksums


def test_table_checksums_order_invariant(ray_session, tmp_path):
    """The checksum is row-order independent and changes when one
    attribute flips."""
    def write(rows, path):
        path.mkdir(exist_ok=True)
        pq.write_table(pa.table({
            "r_regionkey": pa.array([r[0] for r in rows], pa.int64()),
            "r_name": pa.array([r[1] for r in rows]),
        }), path / "region.parquet")
        for t in ["nation", "customer", "supplier", "part"]:
            cols = {
                "nation": {"n_nationkey": pa.array([], pa.int64()),
                           "n_name": pa.array([], pa.string())},
                "customer": {"c_custkey": pa.array([], pa.int64()),
                             "c_mktsegment": pa.array([], pa.string())},
                "supplier": {"s_suppkey": pa.array([], pa.int64()),
                             "s_name": pa.array([], pa.string())},
                "part": {"p_partkey": pa.array([], pa.int64()),
                         "p_brand": pa.array([], pa.string())},
            }[t]
            pq.write_table(pa.table(cols), path / f"{t}.parquet")
        return str(path)

    from nativeextractor_ray.pipelines.audit import table_checksums

    a = _df(table_checksums(write(
        [(1, "ASIA"), (2, "EUROPE")], tmp_path / "a"))).set_index("tbl")
    b = _df(table_checksums(write(
        [(2, "EUROPE"), (1, "ASIA")], tmp_path / "b"))).set_index("tbl")
    c = _df(table_checksums(write(
        [(1, "ASIA"), (2, "AFRICA")], tmp_path / "c"))).set_index("tbl")
    assert a.loc["region", "checksum"] == b.loc["region", "checksum"]
    assert a.loc["region", "checksum"] != c.loc["region", "checksum"]
    assert int(a.loc["region", "n_rows"]) == 2
    assert int(a.loc["nation", "n_rows"]) == 0


# --------------------------------------------- conversion latency


def test_conversion_latency_planted(ray_session, tmp_path):
    """u1 converts in 60 s, u2 in 180 s, u3 purchased BEFORE clicking
    (negative latency kept), u4 never purchased (excluded).  p50 of
    [-120, 60, 180] = 60 s, p90 = 180 s."""
    sf = _write_events(tmp_path, [
        (1, 1, "2024-01-01T00:00:00", "click", 1),
        (2, 1, "2024-01-01T00:01:00", "purchase", 1),
        (3, 2, "2024-01-01T00:00:00", "click", 1),
        (4, 2, "2024-01-01T00:03:00", "purchase", 1),
        (5, 3, "2024-01-01T00:02:00", "click", 1),
        (6, 3, "2024-01-01T00:00:00", "purchase", 1),
        (7, 4, "2024-01-01T00:00:00", "click", 1),
        (8, 4, "2024-01-01T00:00:30", "view", 1),
    ])
    from nativeextractor_ray.pipelines.quantiles import (
        conversion_latency_quantiles)

    got = _df(conversion_latency_quantiles(sf)).set_index("q")
    assert got.loc[0.5, "latency_us"] == 60_000_000.0
    assert got.loc[0.9, "latency_us"] == 180_000_000.0


def test_snapshot_diff_distributed_path_matches_driver(ray_session,
                                                       monkeypatch):
    """Bound 0 forces the doc-hash co-partitioned classify; output must
    be identical to the single-collect driver classify."""
    from nativeextractor_ray.pipelines import common, versioned

    sf = "/root/testdata/sf0.001"
    base = _df(versioned.snapshot_diff(sf)).sort_values(
        "change").reset_index(drop=True)
    monkeypatch.setattr(common, "DRIVER_BOUND", 0)
    forced = _df(versioned.snapshot_diff(sf)).sort_values(
        "change").reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)
    assert len(base) > 0


def test_conversion_latency_distributed_matches_driver(ray_session,
                                                       monkeypatch):
    """Bound 0 forces the distributed user groupby + refinement kernel;
    output must equal the driver conditional-min fold."""
    from nativeextractor_ray.pipelines import common, quantiles

    sf = "/root/testdata/sf0.001"
    base = _df(quantiles.conversion_latency_quantiles(sf)).sort_values(
        "q").reset_index(drop=True)
    monkeypatch.setattr(common, "DRIVER_BOUND", 0)
    forced = _df(quantiles.conversion_latency_quantiles(sf)).sort_values(
        "q").reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)
    assert len(base) > 0
