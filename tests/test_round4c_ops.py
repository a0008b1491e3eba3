"""Planted fixtures for the derived-partsupp TPC-H batch (Q9/Q11/Q16/
Q20) and the partsupp derivation's Python-vs-SQL bit equality."""

import duckdb
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


def test_partsupp_derivation_matches_sql(ray_session):
    """The Python and SQL renderings of the derived partsupp table are
    bit-identical (the transcripts-derivation contract)."""
    from nativeextractor_ray.sources.partsupp import (
        PARTSUPP_SQL, derive_partsupp_table)

    sf = "/root/testdata/sf0.001"
    part = pq.read_table(f"{sf}/part.parquet")
    sup = pq.read_table(f"{sf}/supplier.parquet")
    got = derive_partsupp_table(part, sup.num_rows).to_pandas()
    con = duckdb.connect()
    con.register("part", part)
    con.register("supplier", sup)
    want = con.sql(PARTSUPP_SQL).df()
    key = ["ps_partkey", "ps_suppkey"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        want.sort_values(key).reset_index(drop=True), check_dtype=False)
    # (partkey, suppkey) pairs are distinct — join-key sanity
    assert not got.duplicated(key).any()


def _mini_ps_star(tmp_path, *, n_supp=10, parts=None, orders=None,
                  lineitems=None, supplier_nations=None,
                  supplier_bals=None) -> str:
    parts = parts or [dict(k=0, name="small widget", brand="B1",
                           type="ECONOMY", size=5)]
    orders = orders or []
    lineitems = lineitems or []
    nations = sorted({n for n in (supplier_nations or [0] * n_supp)})
    pq.write_table(pa.table({
        "n_nationkey": pa.array(nations, pa.int32()),
        "n_name": pa.array([f"NATION_{n}" for n in nations]),
        "n_regionkey": pa.array([0] * len(nations), pa.int32()),
    }), tmp_path / "nation.parquet")
    sn = supplier_nations or [0] * n_supp
    sb = supplier_bals or [5000.0] * n_supp
    pq.write_table(pa.table({
        "s_suppkey": pa.array(list(range(n_supp)), pa.int64()),
        "s_name": pa.array([f"s{i}" for i in range(n_supp)]),
        "s_nationkey": pa.array(sn, pa.int32()),
        "s_acctbal": pa.array(sb),
    }), tmp_path / "supplier.parquet")
    pq.write_table(pa.table({
        "p_partkey": pa.array([p["k"] for p in parts], pa.int64()),
        "p_name": pa.array([p["name"] for p in parts]),
        "p_brand": pa.array([p["brand"] for p in parts]),
        "p_type": pa.array([p["type"] for p in parts]),
        "p_size": pa.array([p["size"] for p in parts], pa.int32()),
        "p_retailprice": pa.array([1.0] * len(parts)),
    }), tmp_path / "part.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([o["k"] for o in orders], pa.int64()),
        "o_custkey": pa.array([1] * len(orders), pa.int64()),
        "o_orderstatus": pa.array(["O"] * len(orders)),
        "o_totalprice": pa.array([1.0] * len(orders)),
        "o_orderdate": pa.array(
            [np.datetime64(o.get("date", "1996-02-01"), "us")
             for o in orders], pa.timestamp("us")),
        "o_orderpriority": pa.array(["5-LOW"] * len(orders)),
    }), tmp_path / "orders.parquet")
    n = len(lineitems)
    pq.write_table(pa.table({
        "l_orderkey": pa.array([li.get("order", 1) for li in lineitems],
                               pa.int64()),
        "l_partkey": pa.array([li.get("part", 0) for li in lineitems],
                              pa.int64()),
        "l_suppkey": pa.array([li.get("supp", 0) for li in lineitems],
                              pa.int64()),
        "l_linenumber": pa.array(list(range(1, n + 1)), pa.int32()),
        "l_quantity": pa.array([float(li.get("qty", 1))
                                for li in lineitems]),
        "l_extendedprice": pa.array([float(li.get("price", 10.0))
                                     for li in lineitems]),
        "l_discount": pa.array([0.0] * n),
        "l_tax": pa.array([0.0] * n),
        "l_returnflag": pa.array(["N"] * n),
        "l_linestatus": pa.array(["O"] * n),
        "l_shipdate": pa.array(
            [np.datetime64(li.get("ship", "1996-02-10"), "us")
             for li in lineitems], pa.timestamp("us")),
    }), tmp_path / "lineitem.parquet")
    return str(tmp_path)


def test_product_type_profit_planted(ray_session, tmp_path):
    """Profit = revenue − derived supplycost × qty; lines whose
    (part, supp) pair is not in partsupp drop (inner semantics); name
    filter prunes."""
    from nativeextractor_ray.pipelines.relational import (
        product_type_profit)
    from nativeextractor_ray.sources.partsupp import (
        derive_partsupp_table)

    sf = _mini_ps_star(
        tmp_path,
        parts=[dict(k=0, name="cold widget", brand="B", type="E", size=1),
               dict(k=1, name="big bolt", brand="B", type="E", size=1)],
        orders=[dict(k=1, date="1996-05-01")],
        lineitems=[
            # part 0's derived suppliers: (0*7 + j*13) % 10 = 0, 3, 6, 9
            dict(order=1, part=0, supp=0, qty=2, price=100.0),  # in ps
            dict(order=1, part=0, supp=1, qty=2, price=100.0),  # NOT in ps
            dict(order=1, part=1, supp=0, qty=2, price=100.0),  # name prune
        ])
    part = pq.read_table(tmp_path / "part.parquet")
    ps = derive_partsupp_table(part, 10).to_pandas()
    cost = ps[(ps.ps_partkey == 0) & (ps.ps_suppkey == 0)
              ]["ps_supplycost_c"].iloc[0]
    got = _df(product_type_profit(sf, name_word="widget"))
    assert list(got["nation"]) == ["NATION_0"]
    assert list(got["o_year"]) == [1996]
    assert list(got["profit_c"]) == [10000 - int(cost) * 2]


def test_important_stock_threshold(ray_session, tmp_path):
    """Strict integer threshold: only parts above frac of the filtered
    total survive; suppliers outside the nation don't contribute."""
    from nativeextractor_ray.pipelines.relational import important_stock
    from nativeextractor_ray.sources.partsupp import (
        derive_partsupp_table)

    sf = _mini_ps_star(
        tmp_path,
        parts=[dict(k=i, name="p", brand="B", type="E", size=1)
               for i in range(4)],
        supplier_nations=[0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        orders=[dict(k=1)], lineitems=[dict(order=1)])
    part = pq.read_table(tmp_path / "part.parquet")
    ps = derive_partsupp_table(part, 10).to_pandas()
    ps = ps[ps.ps_suppkey % 2 == 0]  # nations alternate: even = NATION_0
    val = (ps.ps_supplycost_c * ps.ps_availqty).groupby(
        ps.ps_partkey).sum()
    total = val.sum()
    want = {int(k): int(v) for k, v in val.items()
            if v * 4 > total * 1}  # frac 1/4
    got = _df(important_stock(sf, nation="NATION_0", frac_num=1,
                              frac_den=4))
    assert dict(zip(got["ps_partkey"], got["value_c"])) == want


def test_supplier_relationship_blocklist(ray_session, tmp_path):
    """Distinct supplier counts per (brand, type, size); blocklisted
    suppliers and excluded brand/type/size rows vanish."""
    from nativeextractor_ray.pipelines.relational import (
        supplier_relationship)

    # part 0 -> suppliers 0,3,6,9; block supplier 0 via low balance
    sf = _mini_ps_star(
        tmp_path,
        parts=[dict(k=0, name="p", brand="B1", type="E", size=5),
               dict(k=1, name="p", brand="BAD", type="E", size=5),
               dict(k=2, name="p", brand="B1", type="E", size=99)],
        supplier_bals=[100.0] + [5000.0] * 9,
        orders=[dict(k=1)], lineitems=[dict(order=1)])
    got = _df(supplier_relationship(
        sf, ex_brand="BAD", ex_type="PROMO", max_size=25,
        block_bal=1000.0))
    assert len(got) == 1
    assert list(got["p_brand"]) == ["B1"]
    assert list(got["p_size"]) == [5]
    assert list(got["supplier_cnt"]) == [3]  # 3, 6, 9 (0 blocked)


def test_potential_promotion_half_rule(ray_session, tmp_path):
    """2·availqty > shipped-qty is strict; pairs outside partsupp or
    the ship year never qualify; nation filter applies when set."""
    from nativeextractor_ray.pipelines.relational import (
        potential_promotion)
    from nativeextractor_ray.sources.partsupp import (
        derive_partsupp_table)

    sf = _mini_ps_star(
        tmp_path,
        parts=[dict(k=0, name="small widget", brand="B", type="E",
                    size=1)],
        supplier_nations=[0, 1] * 5,
        orders=[dict(k=1)],
        lineitems=[
            # (0, 0) in ps; ship huge qty -> disqualifies supplier 0
            dict(order=1, part=0, supp=0, qty=99999, ship="1996-02-01"),
            # (0, 3) in ps; tiny qty -> qualifies supplier 3
            dict(order=1, part=0, supp=3, qty=1, ship="1996-02-01"),
            # (0, 6) in ps but shipped outside the year -> no shipped row
            dict(order=1, part=0, supp=6, qty=1, ship="1999-02-01"),
        ])
    got = _df(potential_promotion(sf, year=1996, name_prefix="small",
                                  nation=None))
    assert list(got["s_suppkey"]) == [3]
    assert list(got["s_name"]) == ["s3"]

    # nation filter: supplier 3 is NATION_1 -> filtered away
    got0 = _df(potential_promotion(sf, year=1996, name_prefix="small",
                                   nation="NATION_0"))
    assert len(got0) == 0


def test_feature_hashing_planted(ray_session, tmp_path):
    """Sample slice, md5 bucketing, in-doc count combine — checked
    against a direct hashlib reference."""
    import hashlib

    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 10], pa.int64()),
        "text": pa.array(["a b a", "skip me", "b  c"], pa.string()),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["s"] * 3),
        "n_chars": pa.array([5, 7, 4], pa.int64()),
    }), tmp_path / "documents.parquet")
    from nativeextractor_ray.pipelines.textstats import feature_hashing

    got = _df(feature_hashing(str(tmp_path), dim_bits=12, mod=10))

    def feat(w):
        return int.from_bytes(hashlib.md5(w.encode()).digest()[8:16],
                              "little") & 0xFFF

    want = {(0, feat("a")): 2, (0, feat("b")): 1,
            (10, feat("b")): 1, (10, feat("c")): 1}
    assert {(d, f): n for d, f, n in
            zip(got["doc_id"], got["feature"], got["n"])} == want


def test_q8_q9_merge_paths_identical(ray_session, tmp_path, monkeypatch):
    """Forcing BROADCAST_BOUND to 0 drives the Q8/Q9 co-partitioned
    merge paths; outputs are identical to the broadcast paths."""
    import nativeextractor_ray.pipelines.relational as rel
    from nativeextractor_ray.pipelines import common

    sf = "/root/testdata/sf0.001"
    a8 = rel.market_share(sf).to_pandas()
    a9 = _df(rel.product_type_profit(sf))
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    b8 = rel.market_share(sf).to_pandas()
    b9 = _df(rel.product_type_profit(sf))
    key9 = ["nation", "o_year"]
    pd.testing.assert_frame_equal(
        a8.sort_values("o_year").reset_index(drop=True),
        b8.sort_values("o_year").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        a9.sort_values(key9).reset_index(drop=True),
        b9.sort_values(key9).reset_index(drop=True))
