"""Planted-orphan test for referential_audit — the sf tables are
referentially intact (all-zero orphan counts), so seed real violations
and prove the anti-join counts them."""

import numpy as np
import pyarrow as pa


def test_referential_audit_detects_planted_orphans(ray_session, tmp_path,
                                                   monkeypatch):
    import pyarrow.parquet as pq

    from nativeextractor_ray.pipelines import common
    from nativeextractor_ray.pipelines.audit import referential_audit

    pq.write_table(pa.table({
        "r_regionkey": pa.array([0], pa.int32()),
        "r_name": pa.array(["R"]),
    }), tmp_path / "region.parquet")
    # nation 9 -> region 5 (orphan)
    pq.write_table(pa.table({
        "n_nationkey": pa.array([1, 9], pa.int32()),
        "n_name": pa.array(["N1", "N9"]),
        "n_regionkey": pa.array([0, 5], pa.int32()),
    }), tmp_path / "nation.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2], pa.int64()),
        "c_name": pa.array(["a", "b"]),
        "c_nationkey": pa.array([1, 1], pa.int32()),
        "c_acctbal": pa.array([0.0, 0.0]),
        "c_mktsegment": pa.array(["S", "S"]),
    }), tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1], pa.int64()),
        "s_name": pa.array(["s"]),
        "s_nationkey": pa.array([1], pa.int32()),
        "s_acctbal": pa.array([0.0]),
    }), tmp_path / "supplier.parquet")
    pq.write_table(pa.table({
        "p_partkey": pa.array([1], pa.int64()),
        "p_name": pa.array(["p"]),
        "p_brand": pa.array(["B"]),
        "p_type": pa.array(["t"]),
        "p_size": pa.array([1], pa.int32()),
        "p_retailprice": pa.array([1.0]),
    }), tmp_path / "part.parquet")
    # order 30 -> customer 99 (orphan)
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 20, 30], pa.int64()),
        "o_custkey": pa.array([1, 2, 99], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        "o_totalprice": pa.array([1.0, 2.0, 3.0]),
        "o_orderdate": pa.array([0, 0, 0], pa.timestamp("us")),
        "o_orderpriority": pa.array(["1"] * 3),
    }), tmp_path / "orders.parquet")
    # two lineitems -> order 77 (orphans); one -> part 5 (orphan)
    n = 4
    pq.write_table(pa.table({
        "l_orderkey": pa.array([10, 77, 77, 20], pa.int64()),
        "l_partkey": pa.array([1, 1, 5, 1], pa.int64()),
        "l_suppkey": pa.array([1, 1, 1, 1], pa.int64()),
        "l_linenumber": pa.array([1] * n, pa.int32()),
        "l_quantity": pa.array([1.0] * n),
        "l_extendedprice": pa.array([1.0] * n),
        "l_discount": pa.array([0.0] * n),
        "l_tax": pa.array([0.0] * n),
        "l_returnflag": pa.array(["N"] * n),
        "l_linestatus": pa.array(["O"] * n),
        "l_shipdate": pa.array([0] * n, pa.timestamp("us")),
    }), tmp_path / "lineitem.parquet")

    got = referential_audit(str(tmp_path))
    rows = {r["edge"]: (r["n_rows"], r["n_orphans"])
            for r in got.to_pylist()}
    assert rows["lineitem->orders"] == (4, 2)
    assert rows["lineitem->part"] == (4, 1)
    assert rows["lineitem->supplier"] == (4, 0)
    assert rows["orders->customer"] == (3, 1)
    assert rows["customer->nation"] == (2, 0)
    assert rows["supplier->nation"] == (1, 0)
    assert rows["nation->region"] == (2, 1)

    # BROADCAST_BOUND=0 drops every edge to the co-partitioned
    # semi_anti_join fallback — both paths must agree bit-for-bit.
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    forced = referential_audit(str(tmp_path))
    assert forced.equals(got)
