"""Planted-fixture tests for the HLL sketch (pipelines/sketches.py),
the hybrid RRF fusion (pipelines/retrieval.py) and the Q3-shaped
shipping-priority pipeline (pipelines/relational.py) — semantics beyond
the auto-discovered DuckDB oracle-parity gate: independent register
math, estimate accuracy bounds, hand-computed fusion, and planted
filter/join edge cases."""

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


# --------------------------------------------------------------------- HLL


def _rho_reference(uid: int) -> tuple[int, int]:
    """Independent register math: bit-STRING leading-zero count over the
    md5-lower64-LE hash (no shifts, no bit_length — a different route to
    the same numbers than sketches._reg_rho)."""
    h = int.from_bytes(hashlib.md5(str(uid).encode()).digest()[8:16],
                       "little")
    bits = format(h, "064b")
    reg = int(bits[:10], 2)
    tail = bits[10:]
    lz = len(tail) - len(tail.lstrip("0"))
    return reg, min(lz + 1, 50)


def test_hll_register_math_vs_string_reference():
    from nativeextractor_ray.pipelines.sketches import _reg_rho

    uids = np.array([0, 1, 42, 7_000_000_000, 2**62, 123456789], np.int64)
    regs, rhos = _reg_rho(uids)
    for i, u in enumerate(uids):
        reg, rho = _rho_reference(int(u))
        assert (regs[i], rhos[i]) == (reg, rho)
    assert (rhos >= 1).all() and (rhos <= 50).all()
    assert (regs >= 0).all() and (regs < 1024).all()


def _events_fixture(tmp_path, users_by_type: dict[str, int]) -> str:
    """events.parquet where type T has exactly users_by_type[T] distinct
    users, each appearing several times (duplicates must not inflate)."""
    et, uid = [], []
    base = 0
    for t, n in sorted(users_by_type.items()):
        for u in range(n):
            for _ in range(3):  # duplicate visits
                et.append(t)
                uid.append(base + u)
        base += 10_000_000
    ts = pa.array(np.arange(len(et), dtype=np.int64).view("datetime64[us]"))
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(len(et)), pa.int64()),
        "ts": ts,
        "user_id": pa.array(uid, pa.int64()),
        "event_type": pa.array(et, pa.string()),
        "value": pa.array(np.zeros(len(et))),
        "props": pa.array([""] * len(et)),
    }), tmp_path / "events.parquet")
    return str(tmp_path)


def test_hll_exact_and_estimate_accuracy(ray_session, tmp_path):
    """n_exact is exact despite duplicate events; the sketch estimate is
    within the m=1024 HLL error envelope (σ ≈ 1.04/√1024 ≈ 3.3%; allow
    4σ) at both small-range-corrected and raw-estimator cardinalities."""
    from nativeextractor_ray.pipelines.sketches import hll_users_by_type

    planted = {"click": 80, "view": 2500, "rare": 1}
    sf = _events_fixture(tmp_path, planted)
    t = hll_users_by_type(sf)
    got = {et: (ne, est) for et, ne, est in zip(
        t.column("event_type").to_pylist(),
        t.column("n_exact").to_pylist(),
        t.column("hll_est").to_pylist())}
    assert set(got) == set(planted)
    for et, n in planted.items():
        ne, est = got[et]
        assert ne == n
        assert abs(est - n) <= max(4 * 1.04 / math.sqrt(1024) * n, 1.0), (
            et, n, est)


def test_hll_block_split_invariance(ray_session, tmp_path):
    """Register merge is max-idempotent: the sketch is bit-identical no
    matter how the events split into blocks (the 100-TB correctness
    condition — registers fold per batch, merge by max)."""
    from nativeextractor_ray.pipelines import sketches
    from nativeextractor_ray.sources import tables

    sf = _events_fixture(tmp_path, {"a": 300, "b": 7})
    results = []
    orig = tables.read_table
    for blocks in (1, 13):
        def split_read(sf_dir, name, columns=None, _b=blocks, **kw):
            return orig(sf_dir, name, columns, blocks=_b)
        tables.read_table = split_read
        try:
            results.append(sketches.hll_users_by_type(sf).to_pydict())
        finally:
            tables.read_table = orig
    assert results[0] == results[1]


# -------------------------------------------------------------- hybrid RRF


def test_hybrid_rrf_hand_computed(ray_session, tmp_path):
    """Fusion math on a planted corpus: dense ranks from orthogonal-ish
    vectors with known cosine order, BM25 ranks from the scalar reference
    in test_retrieval; docs present in only one leg get exactly that
    leg's 1/(60+rank)."""
    from nativeextractor_ray.pipelines.retrieval import (
        QUERY_TERMS, RRF_K, hybrid_rrf_topk)
    from test_retrieval import _bm25_ref

    docs = {
        0: "spark",                      # vec_id 0 is the dense QUERY; its
                                         # text still competes in BM25
        1: "hash hash merge",
        2: "window spark window",
        3: "no relevant terms",          # dense-only candidate
        4: "merge merge merge hash",
    }
    pq.write_table(pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array(list(docs.values())),
    }), tmp_path / "documents.parquet")

    # embeddings: cosine vs vec 0 strictly ordered 1 > 2 > 3 > 4
    vecs = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.9, 0.1, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.1, 0.9, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ], np.float32)
    pq.write_table(pa.table({
        "vec_id": pa.array(list(range(5)), pa.int64()),
        "embedding": pa.array([list(v) for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array(np.zeros(5, np.int32)),
    }), tmp_path / "embeddings.parquet")

    got = hybrid_rrf_topk(str(tmp_path))

    bm_scores = _bm25_ref(docs, QUERY_TERMS)
    bm_rank = {d: i + 1 for i, (d, _) in enumerate(
        sorted(bm_scores.items(), key=lambda kv: (-kv[1], kv[0])))}
    dense_rank = {1: 1, 2: 2, 3: 3, 4: 4}  # by construction
    want = {}
    for d in set(bm_rank) | set(dense_rank):
        want[d] = round(
            (1.0 / (RRF_K + bm_rank[d]) if d in bm_rank else 0.0)
            + (1.0 / (RRF_K + dense_rank[d]) if d in dense_rank else 0.0), 6)
    order = sorted(want, key=lambda d: (-want[d], d))
    assert got.column("doc_id").to_pylist() == order
    np.testing.assert_allclose(got.column("rrf").to_pylist(),
                               [want[d] for d in order], atol=1e-9)
    assert 3 in set(got.column("doc_id").to_pylist())  # dense-only leg
    assert got.column("rnk").to_pylist() == list(range(1, len(order) + 1))


# ----------------------------------------------------- embedding dim stats


def _emb_fixture(tmp_path, rows: np.ndarray) -> str:
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(len(rows)), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in rows],
                              pa.list_(pa.float32())),
        "label": pa.array(np.zeros(len(rows), np.int32)),
    }), tmp_path / "embeddings.parquet")
    return str(tmp_path)


def test_embedding_dim_stats_hand_computed(ray_session, tmp_path):
    """Integer micro-unit moments on a planted matrix match an exact
    rational computation (dim 1: values 1.0/-0.5/0.25; dim 2: zeros)."""
    from nativeextractor_ray.pipelines.vectorstats import (
        EMB_DIM, embedding_dim_stats)

    rows = np.zeros((3, EMB_DIM), np.float32)
    rows[:, 0] = [1.0, -0.5, 0.25]
    got = embedding_dim_stats(_emb_fixture(tmp_path, rows)).to_pandas()
    got = got.sort_values("dim").reset_index(drop=True)
    assert list(got["n_vecs"]) == [3] * EMB_DIM
    # dim 1: mean = 0.75/3 = 0.25 -> 250000 µ; var = E[x²]-mean²
    #        = (1 + .25 + .0625)/3 - .0625 = 0.375 -> 375000 µ
    assert got.loc[0, "mean_micro"] == 250000
    assert got.loc[0, "var_micro"] == 375000
    assert (got.loc[1:, "mean_micro"] == 0).all()
    assert (got.loc[1:, "var_micro"] == 0).all()


def test_embedding_dim_stats_block_split_invariant_and_bound(
        ray_session, tmp_path):
    """hi/lo pair accumulation is exact across any block split; values
    beyond the fixed-point bound raise loudly instead of wrapping."""
    import pytest

    from nativeextractor_ray.pipelines import vectorstats
    from nativeextractor_ray.sources import tables

    rng = np.random.RandomState(3)
    sf = _emb_fixture(
        tmp_path, rng.randn(257, vectorstats.EMB_DIM).astype(np.float32))
    results = []
    orig = tables.read_table
    for blocks in (1, 11):
        def split_read(sf_dir, name, columns=None, _b=blocks, **kw):
            return orig(sf_dir, name, columns, blocks=_b)
        tables.read_table = split_read
        try:
            results.append(
                vectorstats.embedding_dim_stats(sf).to_pandas()
                .sort_values("dim").reset_index(drop=True))
        finally:
            tables.read_table = orig
    import pandas as pd

    pd.testing.assert_frame_equal(results[0], results[1])

    big = np.zeros((2, vectorstats.EMB_DIM), np.float32)
    big[0, 0] = 1e9  # |q| = 1e15 >> 2^25
    (tmp_path / "big").mkdir()
    sf2 = _emb_fixture(tmp_path / "big", big)
    with pytest.raises(Exception, match="fixed-point bound"):
        vectorstats.embedding_dim_stats(sf2).to_pandas()


# ----------------------------------------------------------- Q3 pipeline


def test_shipping_priority_planted_filters(ray_session, tmp_path):
    """Each of the three filters excludes exactly its planted row:
    wrong-segment customer, too-late order, too-early lineitem; revenue
    sums integer cents across multiple items of one order."""
    from nativeextractor_ray.pipelines.relational import (
        shipping_priority_topk)

    d = np.datetime64("1998-06-01")
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2], pa.int64()),
        "c_name": pa.array(["a", "b"]),
        "c_nationkey": pa.array([0, 0], pa.int32()),
        "c_acctbal": pa.array([0.0, 0.0]),
        "c_mktsegment": pa.array(["BUILDING", "MACHINERY"]),
    }), tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 11, 12], pa.int64()),
        "o_custkey": pa.array([1, 1, 2], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        "o_totalprice": pa.array([0.0] * 3),
        # order 11 is ON the cutoff date -> excluded (strict <)
        "o_orderdate": pa.array(
            np.array([d - 30, d, d - 30], dtype="datetime64[us]")),
        "o_orderpriority": pa.array(["1-URGENT"] * 3),
    }), tmp_path / "orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([10, 10, 10, 11, 12], pa.int64()),
        "l_partkey": pa.array([0] * 5, pa.int64()),
        "l_suppkey": pa.array([0] * 5, pa.int64()),
        "l_linenumber": pa.array([1, 2, 3, 1, 1], pa.int32()),
        "l_quantity": pa.array([1.0] * 5),
        "l_extendedprice": pa.array([100.0, 200.005, 50.0, 10.0, 10.0]),
        "l_discount": pa.array([0.0, 0.0, 0.1, 0.0, 0.0]),
        "l_tax": pa.array([0.0] * 5),
        "l_returnflag": pa.array(["N"] * 5),
        "l_linestatus": pa.array(["O"] * 5),
        # third item of order 10 shipped BEFORE the cutoff -> excluded
        "l_shipdate": pa.array(np.array(
            [d + 10, d + 20, d - 1, d + 10, d + 10], dtype="datetime64[us]")),
    }), tmp_path / "lineitem.parquet")

    got = shipping_priority_topk(str(tmp_path)).to_pandas()
    # order 11 (on-date), order 12 (wrong segment) and the early item drop;
    # revenue = 100.00 + 200.005 (half-up -> 20001) cents
    assert list(got["o_orderkey"]) == [10]
    assert list(got["revenue_c"]) == [10000 + 20001]


def test_order_count_distribution_planted(ray_session, tmp_path):
    """Zero bucket counts customers with no qualifying order; the
    excluded priority doesn't count; an order whose custkey is not a
    customer is outside the LEFT domain and must be dropped."""
    from nativeextractor_ray.pipelines.distributions import (
        order_count_distribution)

    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_name": pa.array(list("abcd")),
        "c_nationkey": pa.array([0] * 4, pa.int32()),
        "c_acctbal": pa.array([0.0] * 4),
        "c_mktsegment": pa.array(["BUILDING"] * 4),
    }), tmp_path / "customer.parquet")
    cust = [1, 1, 1, 2, 4, 99]  # 99 is NOT a customer
    prio = ["2-HIGH", "3-MEDIUM", "1-URGENT", "1-URGENT", "2-HIGH", "2-HIGH"]
    ts = np.array([np.datetime64("2000-01-01")] * 6, dtype="datetime64[us]")
    pq.write_table(pa.table({
        "o_orderkey": pa.array(list(range(6)), pa.int64()),
        "o_custkey": pa.array(cust, pa.int64()),
        "o_orderstatus": pa.array(["O"] * 6),
        "o_totalprice": pa.array([0.0] * 6),
        "o_orderdate": pa.array(ts),
        "o_orderpriority": pa.array(prio),
    }), tmp_path / "orders.parquet")

    got = order_count_distribution(str(tmp_path))
    # cust 1 -> 2 non-urgent, cust 4 -> 1; cust 2 (urgent only) and 3 -> 0
    assert got.to_pydict() == {"c_count": [0, 2, 1],
                               "custdist": [2, 1, 1]}


def test_shipping_priority_merge_path_bit_identical(ray_session, monkeypatch):
    """BROADCAST_BOUND=0 forces the co-partitioned tagged-union merge;
    it must match the broadcast probe row for row on real tables."""
    from nativeextractor_ray.pipelines import common, relational

    sf = "/root/testdata/sf0.001"

    def rows(res):
        df = res.to_pandas()
        df["o_orderdate"] = df["o_orderdate"].astype("datetime64[ns]")
        return df.sort_values(["revenue_c", "o_orderkey"],
                              ascending=[False, True]).reset_index(drop=True)

    base = rows(relational.shipping_priority_topk(sf))
    assert len(base) == relational.Q3_TOP_K

    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    forced = rows(relational.shipping_priority_topk(sf))
    import pandas as pd

    pd.testing.assert_frame_equal(base, forced)


# ------------------------------------------------ capped per-source sample


def test_sample_k_per_source_append_stable(ray_session, tmp_path):
    """Hash-ordered sampling is an order-free reservoir: growing the
    corpus keeps a doc iff it still ranks in the k smallest hashes —
    the retained set of the small corpus is a superset of the big run's
    picks restricted to old ids, and ranks are 1..k per source."""
    import pandas as pd

    from nativeextractor_ray.pipelines.curation import sample_k_per_source

    def write(ids, srcs, d):
        d.mkdir(exist_ok=True)
        pq.write_table(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(["x"] * len(ids)),
            "lang": pa.array(["en"] * len(ids)),
            "source": pa.array(srcs),
            "n_chars": pa.array([1] * len(ids), pa.int64()),
        }), d / "documents.parquet")
        return str(d)

    rng = np.random.RandomState(11)
    ids = list(rng.choice(10**6, 60, replace=False))
    srcs = [f"s{i % 3}" for i in range(60)]
    small = write(ids, srcs, tmp_path / "small")
    big = write(ids + [10**6 + i for i in range(40)],
                srcs + [f"s{i % 3}" for i in range(40)],
                tmp_path / "big")

    k = 5
    got_small = sample_k_per_source(small, k=k).to_pandas()
    got_big = sample_k_per_source(big, k=k).to_pandas()

    for src, g in got_big.groupby("source"):
        assert sorted(g["rnk"]) == list(range(1, k + 1))
        old_picks = set(g["doc_id"]) & set(ids)
        small_picks = set(
            got_small[got_small["source"] == src]["doc_id"])
        # every old id the big run kept was also kept by the small run
        assert old_picks <= small_picks
