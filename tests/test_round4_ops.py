"""Round-4 ADVICE regression tests: disjunctive_revenue edge cases
(empty arm vs the UNION ALL oracle, half-up quantity rounding, empty
part table) and NULL-FK semantics (a NULL key matches NOTHING on every
membership path — broadcast probe, co-partitioned fallback, and the
fused referential-audit pass — mirroring SQL's `x = NULL is never
true`)."""

import duckdb
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


def _mini(tmp_path, parts, lineitems) -> str:
    """part + lineitem only — all disjunctive_revenue needs."""
    pq.write_table(pa.table({
        "p_partkey": pa.array([p[0] for p in parts], pa.int64()),
        "p_brand": pa.array([p[1] for p in parts]),
        "p_size": pa.array([p[2] for p in parts], pa.int32()),
    }), tmp_path / "part.parquet")
    n = len(lineitems)
    pq.write_table(pa.table({
        "l_partkey": pa.array([li[0] for li in lineitems], pa.int64()),
        "l_quantity": pa.array([float(li[1]) for li in lineitems]),
        "l_extendedprice": pa.array([float(li[2]) for li in lineitems]),
        "l_discount": pa.array([0.0] * n),
    }), tmp_path / "lineitem.parquet")
    return str(tmp_path)


def _oracle(sf: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for name in ("part", "lineitem"):
        con.register(name, pq.read_table(f"{sf}/{name}.parquet"))
    return con.sql(sql).df()


def test_disjunctive_revenue_empty_arm_matches_oracle(ray_session,
                                                      tmp_path):
    """An arm matching ZERO rows must be absent from BOTH sides: the
    ungrouped UNION ALL leg would emit (arm, 0, NULL) without the
    n_items > 0 guard while the Ray groupby omits it (ADVICE r3 #1)."""
    from nativeextractor_ray.pipelines.relational import (
        disjunctive_revenue, disjunctive_revenue_sql)

    arms = [("hit", "B1", 1, 10, 1, 10),
            ("empty", "NoSuchBrand", 1, 10, 1, 10)]
    sf = _mini(tmp_path, parts=[(10, "B1", 5)],
               lineitems=[(10, 5, 100.0)])
    got = _df(disjunctive_revenue(sf, arms=arms))
    want = _oracle(sf, disjunctive_revenue_sql(arms=arms))
    assert list(got["arm"]) == ["hit"]
    got = got.sort_values("arm").reset_index(drop=True)
    want = want.sort_values("arm").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                  want[sorted(want.columns)],
                                  check_dtype=False)


def test_disjunctive_revenue_half_up_quantity(ray_session, tmp_path):
    """Non-integral quantities round HALF-UP on both sides (2.7 -> 3,
    3.5 -> 4): astype(int64) truncation would disagree with DuckDB's
    rounding CAST (ADVICE r3 #2)."""
    from nativeextractor_ray.pipelines.relational import (
        disjunctive_revenue, disjunctive_revenue_sql)

    arms = [("three", "B1", 1, 10, 3, 3),
            ("four", "B1", 1, 10, 4, 4)]
    sf = _mini(tmp_path, parts=[(10, "B1", 5)],
               lineitems=[(10, 2.7, 100.0),   # -> 3 (truncation says 2)
                          (10, 3.5, 200.0),   # -> 4 (half-up)
                          (10, 2.4, 400.0)])  # -> 2, no arm
    got = _df(disjunctive_revenue(sf, arms=arms)).sort_values(
        "arm").reset_index(drop=True)
    want = _oracle(sf, disjunctive_revenue_sql(arms=arms)).sort_values(
        "arm").reset_index(drop=True)
    assert list(got["arm"]) == ["four", "three"]
    assert list(got["revenue_c"]) == [20000, 10000]
    pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                  want[sorted(want.columns)],
                                  check_dtype=False)


def test_disjunctive_revenue_empty_part_table(ray_session, tmp_path):
    """An empty part table yields zero arms, not an IndexError on the
    empty broadcast key array (ADVICE r3 #3)."""
    from nativeextractor_ray.pipelines.relational import disjunctive_revenue

    sf = _mini(tmp_path, parts=[], lineitems=[(10, 5, 100.0)])
    got = _df(disjunctive_revenue(sf))
    assert len(got) == 0


def _null_fk_star(tmp_path) -> str:
    """Minimal referentially-typed star with NULL FKs planted: one null
    l_orderkey, one null o_custkey, plus one genuine int orphan each."""
    pq.write_table(pa.table({
        "r_regionkey": pa.array([0], pa.int32()),
        "r_name": pa.array(["R"]),
    }), tmp_path / "region.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([1], pa.int32()),
        "n_name": pa.array(["N1"]),
        "n_regionkey": pa.array([0], pa.int32()),
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
    # o_custkey: 1 ok, NULL orphan, 99 int orphan
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 20, 30], pa.int64()),
        "o_custkey": pa.array([1, None, 99], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        "o_totalprice": pa.array([1.0] * 3),
        "o_orderdate": pa.array([0] * 3, pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT", "1-URGENT", "5-LOW"]),
    }), tmp_path / "orders.parquet")
    # l_orderkey: 10 ok, NULL orphan, 77 int orphan, 20 ok
    n = 4
    pq.write_table(pa.table({
        "l_orderkey": pa.array([10, None, 77, 20], pa.int64()),
        "l_partkey": pa.array([1, 1, 1, 1], pa.int64()),
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
    return str(tmp_path)


def test_audit_null_fk_is_orphan_on_both_paths(ray_session, tmp_path,
                                                monkeypatch):
    """A NULL FK counts as an orphan (NOT-EXISTS semantics) on the
    fused broadcast pass AND the co-partitioned fallback, and both
    agree with the DuckDB oracle (ADVICE r3 #4)."""
    from nativeextractor_ray.pipelines import common
    from nativeextractor_ray.pipelines.audit import (
        referential_audit, referential_audit_sql)

    sf = _null_fk_star(tmp_path)
    fused = referential_audit(sf)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    fallback = referential_audit(sf)
    assert fused.to_pylist() == fallback.to_pylist()

    rows = {r["edge"]: (r["n_rows"], r["n_orphans"])
            for r in fused.to_pylist()}
    assert rows["lineitem->orders"] == (4, 2)   # NULL + 77
    assert rows["orders->customer"] == (3, 2)   # NULL + 99

    con = duckdb.connect()
    for name in ("region", "nation", "customer", "supplier", "part",
                 "orders", "lineitem"):
        con.register(name, pq.read_table(f"{sf}/{name}.parquet"))
    want = con.sql(referential_audit_sql()).df()
    got = fused.to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("edge").reset_index(drop=True)[sorted(got.columns)],
        want.sort_values("edge").reset_index(drop=True)[sorted(want.columns)],
        check_dtype=False)


def test_semi_anti_join_null_key_both_paths(ray_session, tmp_path,
                                            monkeypatch):
    """semi drops / anti keeps a NULL-keyed left row on the broadcast
    AND shuffle paths, and non-null exactness survives (no float64
    widening of the probe column)."""
    import ray.data

    import nativeextractor_ray.pipelines.relational as rel
    from nativeextractor_ray.pipelines import common

    left = pa.table({
        "id": pa.array([1, 2, 3, 4], pa.int64()),
        "fk": pa.array([100, None, 200, 999], pa.int64()),
    })
    keys = pa.table({"k": pa.array([100, 200, None], pa.int64())})

    for bound in (common.BROADCAST_BOUND, 0):
        monkeypatch.setattr(common, "BROADCAST_BOUND", bound)
        semi = _df(rel.semi_anti_join(
            ray.data.from_arrow(left), ray.data.from_arrow(keys),
            "fk", anti=False))
        anti = _df(rel.semi_anti_join(
            ray.data.from_arrow(left), ray.data.from_arrow(keys),
            "fk", anti=True))
        assert sorted(semi["id"]) == [1, 3], f"bound={bound}"
        assert sorted(anti["id"]) == [2, 4], f"bound={bound}"


# ---------------------------------------------------------------- round-4
# TPC-H shapes: Q10 / Q12 / Q15 / Q21 / Q8 planted fixtures


def _star4(tmp_path, *, nations=None, customers=None, suppliers=None,
           parts=None, orders=None, lineitems=None) -> str:
    """Full-schema mini star; rows given as dicts with defaults."""
    import numpy as np

    nations = nations or [dict(k=0, name="ALPHA", region=0),
                          dict(k=1, name="BETA", region=1)]
    customers = customers or [dict(k=1, nation=0)]
    suppliers = suppliers or [dict(k=1, name="s1", nation=0)]
    parts = parts or [dict(k=1, brand="B", type="MEDIUM", size=1)]
    orders = orders or []
    lineitems = lineitems or []
    pq.write_table(pa.table({
        "r_regionkey": pa.array([0, 1], pa.int32()),
        "r_name": pa.array(["RWEST", "REAST"]),
    }), tmp_path / "region.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([n["k"] for n in nations], pa.int32()),
        "n_name": pa.array([n["name"] for n in nations]),
        "n_regionkey": pa.array([n["region"] for n in nations], pa.int32()),
    }), tmp_path / "nation.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([c["k"] for c in customers], pa.int64()),
        "c_name": pa.array([c.get("name", f"c{c['k']}") for c in customers]),
        "c_nationkey": pa.array([c["nation"] for c in customers], pa.int32()),
        "c_acctbal": pa.array([c.get("bal", 10.0) for c in customers]),
        "c_mktsegment": pa.array(["S"] * len(customers)),
    }), tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "s_suppkey": pa.array([s["k"] for s in suppliers], pa.int64()),
        "s_name": pa.array([s["name"] for s in suppliers]),
        "s_nationkey": pa.array([s["nation"] for s in suppliers], pa.int32()),
        "s_acctbal": pa.array([0.0] * len(suppliers)),
    }), tmp_path / "supplier.parquet")
    pq.write_table(pa.table({
        "p_partkey": pa.array([p["k"] for p in parts], pa.int64()),
        "p_name": pa.array([f"p{p['k']}" for p in parts]),
        "p_brand": pa.array([p["brand"] for p in parts]),
        "p_type": pa.array([p["type"] for p in parts]),
        "p_size": pa.array([p["size"] for p in parts], pa.int32()),
        "p_retailprice": pa.array([1.0] * len(parts)),
    }), tmp_path / "part.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([o["k"] for o in orders], pa.int64()),
        "o_custkey": pa.array([o["cust"] for o in orders], pa.int64()),
        "o_orderstatus": pa.array(["O"] * len(orders)),
        "o_totalprice": pa.array([1.0] * len(orders)),
        "o_orderdate": pa.array(
            [np.datetime64(o.get("date", "1996-02-01"), "us")
             for o in orders], pa.timestamp("us")),
        "o_orderpriority": pa.array(
            [o.get("prio", "5-LOW") for o in orders]),
    }), tmp_path / "orders.parquet")
    n = len(lineitems)
    pq.write_table(pa.table({
        "l_orderkey": pa.array([li["order"] for li in lineitems], pa.int64()),
        "l_partkey": pa.array([li.get("part", 1) for li in lineitems],
                              pa.int64()),
        "l_suppkey": pa.array([li.get("supp", 1) for li in lineitems],
                              pa.int64()),
        "l_linenumber": pa.array(list(range(1, n + 1)), pa.int32()),
        "l_quantity": pa.array([float(li.get("qty", 1)) for li in lineitems]),
        "l_extendedprice": pa.array([float(li.get("price", 10.0))
                                     for li in lineitems]),
        "l_discount": pa.array([float(li.get("disc", 0.0))
                                for li in lineitems]),
        "l_tax": pa.array([0.0] * n),
        "l_returnflag": pa.array([li.get("flag", "N") for li in lineitems]),
        "l_linestatus": pa.array(["O"] * n),
        "l_shipdate": pa.array(
            [np.datetime64(li.get("ship", "1996-02-10"), "us")
             for li in lineitems], pa.timestamp("us")),
    }), tmp_path / "lineitem.parquet")
    return str(tmp_path)


def test_returned_item_revenue_planted(ray_session, tmp_path):
    """Only R-flag lines on in-window orders count; top-k tie-break is
    revenue desc then custkey asc; customer + nation attrs attach."""
    from nativeextractor_ray.pipelines.relational import (
        returned_item_revenue)

    sf = _star4(
        tmp_path,
        customers=[dict(k=1, nation=0, bal=5.0), dict(k=2, nation=1),
                   dict(k=3, nation=0)],
        orders=[dict(k=10, cust=1, date="1996-02-01"),
                dict(k=20, cust=2, date="1996-02-01"),
                dict(k=30, cust=3, date="1995-12-31"),   # out of window
                dict(k=40, cust=1, date="1996-03-31")],  # in (hi exclusive)
        lineitems=[
            dict(order=10, price=100.0, flag="R"),
            dict(order=10, price=50.0, flag="N"),   # not returned
            dict(order=20, price=150.0, flag="R"),  # ties cust 1 total
            dict(order=30, price=999.0, flag="R"),  # out-of-window order
            dict(order=40, price=50.0, flag="R"),
        ])
    got = _df(returned_item_revenue(sf, k=2))
    # cust1: 100+50=150, cust2: 150 -> tie; custkey asc wins first
    assert list(got["c_custkey"]) == [1, 2]
    assert list(got["revenue_c"]) == [15000, 15000]
    assert list(got["n_name"]) == ["ALPHA", "BETA"]
    assert list(got["c_acctbal_c"]) == [500, 1000]


def test_late_line_priority_mix_planted(ray_session, tmp_path):
    """Only lines > late_days past the order date count, split by the
    order's priority bucket, keyed on l_returnflag."""
    from nativeextractor_ray.pipelines.relational import (
        late_line_priority_mix)

    sf = _star4(
        tmp_path,
        orders=[dict(k=10, cust=1, date="1996-01-01", prio="1-URGENT"),
                dict(k=20, cust=1, date="1996-01-01", prio="5-LOW")],
        lineitems=[
            dict(order=10, ship="1996-02-15", flag="A"),  # late, high
            dict(order=10, ship="1996-01-20", flag="A"),  # on time (19d)
            dict(order=20, ship="1996-03-01", flag="A"),  # late, low
            dict(order=20, ship="1996-02-15", flag="R"),  # late, low
        ])
    got = _df(late_line_priority_mix(sf, late_days=30)).sort_values(
        "l_returnflag").reset_index(drop=True)
    assert list(got["l_returnflag"]) == ["A", "R"]
    assert list(got["high_line_count"]) == [1, 0]
    assert list(got["low_line_count"]) == [1, 1]


def test_top_supplier_revenue_ties(ray_session, tmp_path):
    """Both max-revenue suppliers kept; out-of-window revenue ignored."""
    from nativeextractor_ray.pipelines.relational import (
        top_supplier_revenue)

    sf = _star4(
        tmp_path,
        suppliers=[dict(k=1, name="s1", nation=0),
                   dict(k=2, name="s2", nation=0),
                   dict(k=3, name="s3", nation=0)],
        orders=[dict(k=10, cust=1)],
        lineitems=[
            dict(order=10, supp=1, price=100.0, ship="1996-02-01"),
            dict(order=10, supp=2, price=60.0, ship="1996-02-01"),
            dict(order=10, supp=2, price=40.0, ship="1996-02-01"),
            dict(order=10, supp=3, price=40.0, ship="1996-02-01"),
            dict(order=10, supp=3, price=500.0, ship="1995-06-01"),  # out
        ])
    got = _df(top_supplier_revenue(sf)).sort_values(
        "s_suppkey").reset_index(drop=True)
    assert list(got["s_suppkey"]) == [1, 2]
    assert list(got["s_name"]) == ["s1", "s2"]
    assert list(got["total_revenue_c"]) == [10000, 10000]


def test_sole_late_supplier_planted(ray_session, tmp_path):
    """Credit only the UNIQUE late supplier on multi-supplier orders:
    two late suppliers -> nobody; single-supplier order -> nobody."""
    from nativeextractor_ray.pipelines.relational import sole_late_supplier

    sf = _star4(
        tmp_path,
        suppliers=[dict(k=1, name="s1", nation=0),
                   dict(k=2, name="s2", nation=0)],
        orders=[dict(k=10, cust=1, date="1996-01-01"),
                dict(k=20, cust=1, date="1996-01-01"),
                dict(k=30, cust=1, date="1996-01-01")],
        lineitems=[
            # order 10: s1 late, s2 on time -> s1 credited
            dict(order=10, supp=1, ship="1996-03-01"),
            dict(order=10, supp=2, ship="1996-01-15"),
            # order 20: both late -> nobody
            dict(order=20, supp=1, ship="1996-03-01"),
            dict(order=20, supp=2, ship="1996-03-02"),
            # order 30: single supplier, late -> nobody (ns < 2)
            dict(order=30, supp=2, ship="1996-04-01"),
        ])
    got = _df(sole_late_supplier(sf, late_days=30))
    assert list(got["s_suppkey"]) == [1]
    assert list(got["s_name"]) == ["s1"]
    assert list(got["numwait"]) == [1]


def test_market_share_planted(ray_session, tmp_path):
    """Numerator = target-nation suppliers only; market = region
    customers × type parts; share is the exact half-up micro ratio."""
    from nativeextractor_ray.pipelines.relational import market_share

    sf = _star4(
        tmp_path,
        nations=[dict(k=0, name="N_IN", region=0),
                 dict(k=1, name="N_OUT", region=1),
                 dict(k=2, name="N_TGT", region=1)],
        customers=[dict(k=1, nation=0),   # in region RWEST
                   dict(k=2, nation=1)],  # outside
        suppliers=[dict(k=1, name="s1", nation=2),   # target nation
                   dict(k=2, name="s2", nation=0)],
        parts=[dict(k=1, brand="B", type="MEDIUM", size=1),
               dict(k=2, brand="B", type="SMALL", size=1)],
        orders=[dict(k=10, cust=1, date="1996-05-01"),
                dict(k=20, cust=2, date="1996-05-01"),   # cust not in region
                dict(k=30, cust=1, date="1997-05-01")],
        lineitems=[
            dict(order=10, part=1, supp=1, price=30.0),  # target, counts
            dict(order=10, part=1, supp=2, price=70.0),  # other nation
            dict(order=10, part=2, supp=1, price=99.0),  # wrong part type
            dict(order=20, part=1, supp=1, price=50.0),  # region-pruned
            dict(order=30, part=1, supp=2, price=40.0),  # 1997, denom only
        ])
    got = _df(market_share(sf, region="RWEST", p_type="MEDIUM",
                           nation="N_TGT")).sort_values(
        "o_year").reset_index(drop=True)
    assert list(got["o_year"]) == [1996, 1997]
    assert list(got["nation_rev_c"]) == [3000, 0]
    assert list(got["total_rev_c"]) == [10000, 4000]
    # 3000/10000 = 0.3 -> 300000 micro; 0 -> 0
    assert list(got["share_micro"]) == [300000, 0]


def test_returned_item_revenue_merge_path_identical(ray_session,
                                                    tmp_path, monkeypatch):
    """Forcing BROADCAST_BOUND to 0 drives the co-partitioned merge
    path; output is bit-identical to the broadcast path."""
    import nativeextractor_ray.pipelines.relational as rel
    from nativeextractor_ray.pipelines import common

    sf = _star4(
        tmp_path,
        customers=[dict(k=1, nation=0), dict(k=2, nation=1)],
        orders=[dict(k=10, cust=1, date="1996-02-01"),
                dict(k=20, cust=2, date="1996-02-01")],
        lineitems=[dict(order=10, price=100.0, flag="R"),
                   dict(order=20, price=50.0, flag="R"),
                   dict(order=20, price=25.0, flag="N")])
    a = _df(rel.returned_item_revenue(sf))
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    b = _df(rel.returned_item_revenue(sf))
    pd.testing.assert_frame_equal(a, b)
    assert list(a["c_custkey"]) == [1, 2]
    assert list(a["revenue_c"]) == [10000, 5000]


def test_q12_q21_merge_paths_identical(ray_session, tmp_path, monkeypatch):
    """Forcing BROADCAST_BOUND to 0 drives the Q12/Q21 co-partitioned
    merge paths; outputs match the broadcast paths."""
    import nativeextractor_ray.pipelines.relational as rel
    from nativeextractor_ray.pipelines import common

    sf = _star4(
        tmp_path,
        suppliers=[dict(k=1, name="s1", nation=0),
                   dict(k=2, name="s2", nation=0)],
        orders=[dict(k=10, cust=1, date="1996-01-01", prio="1-URGENT"),
                dict(k=20, cust=1, date="1996-01-01", prio="5-LOW")],
        lineitems=[
            dict(order=10, supp=1, ship="1996-03-01", flag="A"),
            dict(order=10, supp=2, ship="1996-01-15", flag="R"),
            dict(order=20, supp=1, ship="1996-03-01", flag="A"),
            dict(order=20, supp=2, ship="1996-03-02", flag="N"),
        ])

    def norm(df, keys):
        return df.sort_values(keys).reset_index(drop=True)

    a12 = norm(_df(rel.late_line_priority_mix(sf)), ["l_returnflag"])
    a21 = norm(_df(rel.sole_late_supplier(sf)), ["s_suppkey"])
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    b12 = norm(_df(rel.late_line_priority_mix(sf)), ["l_returnflag"])
    b21 = norm(_df(rel.sole_late_supplier(sf)), ["s_suppkey"])
    pd.testing.assert_frame_equal(a12, b12)
    pd.testing.assert_frame_equal(a21, b21)
    assert list(a21["s_suppkey"]) == [1]
