"""Planted-fixture tests for the Q18/Q17-shaped operators — exercises
the paths the sf0.001 oracle gate can't see: the co-partitioned merge
attach (broadcast bound forced to 0) bit-identical to the broadcast
path, and the exact integer correlated predicate on a hand-built part.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _df(res) -> pd.DataFrame:
    import ray

    if isinstance(res, pa.Table):
        return res.to_pandas()
    parts = [ray.get(r) for r in res.to_arrow_refs()]
    parts = [p for p in parts if p.num_rows] or parts[:1]
    return pa.concat_tables(parts, promote_options="default").to_pandas()


def test_q18_merge_path_matches_broadcast(ray_session, monkeypatch):
    """Force the fully-distributed shape (driver-fold bound 0 AND
    tagged-union merge attach AND co-partitioned semi join) on sf0.001
    and require bit-identical output to the zero-AllToAll driver-fold
    path."""
    from nativeextractor_ray.pipelines import common, relational

    sf = "/root/testdata/sf0.001"
    cols = ["c_name", "c_custkey", "o_orderkey"]
    base = _df(relational.large_order_customers(sf)).reset_index(drop=True)
    monkeypatch.setattr(common, "DRIVER_BOUND", 0)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    forced = _df(relational.large_order_customers(sf)).reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)
    assert len(base) > 0 and list(base.columns)[:3] == cols


def test_q3_distributed_path_matches_driver_fold(ray_session, monkeypatch):
    """shipping_priority_topk: bound 0 forces the distributed groupby +
    attach + per-block top-k pipeline; output must be bit-identical to
    the zero-AllToAll driver fold."""
    from nativeextractor_ray.pipelines import common, relational

    sf = "/root/testdata/sf0.001"
    base = _df(relational.shipping_priority_topk(sf)).reset_index(drop=True)
    monkeypatch.setattr(common, "DRIVER_BOUND", 0)
    forced = _df(relational.shipping_priority_topk(sf)).reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)
    assert len(base) > 0


@pytest.mark.parametrize("forced", [False, True])
def test_topk_no_surviving_rows_keeps_oracle_columns(ray_session, monkeypatch,
                                                    forced):
    """Q3/Q18 with a filter no row passes: 0 rows with the oracle's
    columns, on the driver-fold and the forced distributed path."""
    from nativeextractor_ray.pipelines import common, relational

    sf = "/root/testdata/sf0.001"
    if forced:
        monkeypatch.setattr(common, "DRIVER_BOUND", 0)
        monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    con = duckdb.connect()
    for name in ("customer", "orders", "lineitem"):
        con.register(name, pq.read_table(f"{sf}/{name}.parquet"))
    q3 = _df(relational.shipping_priority_topk(sf, segment="NOSUCH"))
    q18 = _df(relational.large_order_customers(sf, threshold=10**9))
    for got, sql in ((q3, relational.shipping_priority_topk_sql("NOSUCH")),
                     (q18, relational.large_order_customers_sql(10**9))):
        want = con.sql(sql).arrow()
        assert want.num_rows == 0 and len(got) == 0
        assert list(got.columns) == want.column_names


def test_q4_merge_path_matches_driver_fold(ray_session, monkeypatch):
    """late_shipment_priority: bound 0 forces the co-partitioned merge
    EXISTS; output must be bit-identical to the zero-AllToAll driver
    fold (np.maximum.at per-order max-ship + broadcast probe)."""
    from nativeextractor_ray.pipelines import common, relational

    sf = "/root/testdata/sf0.001"
    base = _df(relational.late_shipment_priority(sf)).sort_values(
        "o_orderpriority").reset_index(drop=True)
    monkeypatch.setattr(common, "DRIVER_BOUND", 0)
    forced = _df(relational.late_shipment_priority(sf)).sort_values(
        "o_orderpriority").reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)
    assert len(base) > 0


def test_q5_exchange_path_matches_driver_fold(ray_session, monkeypatch):
    """local_supplier_volume: bound 0 forces the co-partitioned tagged
    union; output must be bit-identical to the zero-AllToAll broadcast
    probe + driver fold."""
    from nativeextractor_ray.pipelines import common, relational

    sf = "/root/testdata/sf0.001"
    base = _df(relational.local_supplier_volume(sf)).sort_values(
        "n_name").reset_index(drop=True)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    forced = _df(relational.local_supplier_volume(sf)).sort_values(
        "n_name").reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)
    assert len(base) > 0


def test_q7_exchange_path_matches_driver_fold(ray_session, monkeypatch):
    """nation_trade_volume: bound 0 forces the co-partitioned tagged
    union; output must be bit-identical to the broadcast probe +
    driver fold."""
    from nativeextractor_ray.pipelines import common, relational

    sf = "/root/testdata/sf0.001"
    cols = ["supp_nation", "cust_nation", "l_year"]
    base = _df(relational.nation_trade_volume(sf)).sort_values(
        cols).reset_index(drop=True)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    forced = _df(relational.nation_trade_volume(sf)).sort_values(
        cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)
    assert len(base) > 0


def test_q17_correlated_predicate_planted(ray_session, tmp_path):
    """Hand-built part/lineitem: only rows strictly below 0.2x their
    part's average quantity survive, and the boundary row (exactly 20%)
    is excluded — the all-integer predicate has no float fuzz."""
    import pyarrow.parquet as pq

    from nativeextractor_ray.pipelines.relational import small_order_revenue

    # part 1: qtys [1, 4, 5, 10] -> avg 5; 0.2*avg = 1 -> nothing < 1
    #   (qty 1 is the boundary: 5*1*4 = 20 == sum 20 -> excluded)
    # part 2: qtys [1, 9] -> avg 5; 1 < 1.0? 5*1*2=10 == sum 10 -> excluded
    # part 3: qtys [1, 19, 20] -> sum 40, cnt 3; 5*1*3=15 < 40 -> kept
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2, 3], pa.int64()),
        "p_name": pa.array(["a", "b", "c"]),
        "p_brand": pa.array(["Brand#A", "Brand#A", "Brand#B"]),
        "p_type": pa.array(["t"] * 3),
        "p_size": pa.array([1, 1, 1], pa.int32()),
        "p_retailprice": pa.array([1.0, 1.0, 1.0]),
    }), tmp_path / "part.parquet")
    qty = [1, 4, 5, 10, 1, 9, 1, 19, 20]
    pkey = [1, 1, 1, 1, 2, 2, 3, 3, 3]
    n = len(qty)
    pq.write_table(pa.table({
        "l_orderkey": pa.array(range(n), pa.int64()),
        "l_partkey": pa.array(pkey, pa.int64()),
        "l_suppkey": pa.array([1] * n, pa.int64()),
        "l_linenumber": pa.array([1] * n, pa.int32()),
        "l_quantity": pa.array([float(q) for q in qty]),
        "l_extendedprice": pa.array([100.0 + i for i in range(n)]),
        "l_discount": pa.array([0.0] * n),
        "l_tax": pa.array([0.0] * n),
        "l_returnflag": pa.array(["N"] * n),
        "l_linestatus": pa.array(["O"] * n),
        "l_shipdate": pa.array([0] * n, pa.timestamp("us")),
    }), tmp_path / "lineitem.parquet")

    got = _df(small_order_revenue(str(tmp_path)))
    assert len(got) == 1
    r = got.iloc[0]
    # only part 3's qty-1 row survives: price 100+6=106 -> 10600 cents
    assert r["p_brand"] == "Brand#B"
    assert int(r["n_items"]) == 1 and int(r["revenue_c"]) == 10600


def test_order_fill_report_left_outer_zero_fill(ray_session, tmp_path,
                                                monkeypatch):
    """Orders without any line items must appear with n_items=0 (the rows
    an inner join drops), on BOTH the broadcast and merge paths."""
    import pyarrow.parquet as pq

    from nativeextractor_ray.pipelines import common, relational

    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([1, 1, 1], pa.int64()),
        "o_orderstatus": pa.array(["F", "O", "P"]),
        "o_totalprice": pa.array([1.0, 2.0, 3.0]),
        "o_orderdate": pa.array([0, 0, 0], pa.timestamp("us")),
        "o_orderpriority": pa.array(["1"] * 3),
    }), tmp_path / "orders.parquet")
    # order 2 has NO line items
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 3], pa.int64()),
        "l_partkey": pa.array([1, 1, 1], pa.int64()),
        "l_suppkey": pa.array([1, 1, 1], pa.int64()),
        "l_linenumber": pa.array([1, 2, 1], pa.int32()),
        "l_quantity": pa.array([2.0, 3.0, 7.0]),
        "l_extendedprice": pa.array([1.0] * 3),
        "l_discount": pa.array([0.0] * 3),
        "l_tax": pa.array([0.0] * 3),
        "l_returnflag": pa.array(["N"] * 3),
        "l_linestatus": pa.array(["O"] * 3),
        "l_shipdate": pa.array([0] * 3, pa.timestamp("us")),
    }), tmp_path / "lineitem.parquet")

    want = pd.DataFrame({
        "o_orderkey": [1, 2, 3],
        "o_orderstatus": ["F", "O", "P"],
        "n_items": [2, 0, 1],
        "sum_qty": [5, 0, 7],
    })
    for bound in (None, 0):
        if bound is not None:
            monkeypatch.setattr(common, "DRIVER_BOUND", bound)
            monkeypatch.setattr(common, "BROADCAST_BOUND", bound)
        got = _df(relational.order_fill_report(str(tmp_path))).sort_values(
            "o_orderkey").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
