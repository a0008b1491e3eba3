"""Distribution profiles — TPC-H Q13-shaped orders-per-customer histogram.

The Q13 shape (``customer LEFT JOIN orders`` → per-customer count →
count-of-counts) is the canonical *distribution* query, and the naive
plan is a disaster at 100 TB: a customer×orders join that exists only to
be collapsed twice.  :func:`order_count_distribution` never joins
payloads at all:

1. ``orders`` (the big side) reduces to per-batch ``(custkey, n)``
   partials before its ONLY shuffle, the custkey groupby — 16-byte rows.
2. The per-customer counts SEMI-join the customer key set
   (:func:`~nativeextractor_ray.pipelines.relational.semi_anti_join` —
   broadcast under the bound, co-partitioned above), which enforces the
   LEFT side's domain without moving customer payloads.
3. The zero bucket — customers with NO qualifying order — is pure
   arithmetic: ``count(customer) − Σ custdist``, two scalar aggregates.
   No null-extended join rows ever exist.
4. The count-of-counts histogram folds per block first (distinct count
   values are ≤ max orders per customer — tiny), then one final groupby.

Reference scope note: the reference engine (nativeextractor) stops at
mention extraction; this is part of the prompt-mandated analytical
operator family (the same partial-aggregate economics as
``kg.py::mention_counts``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.pipelines import common
from nativeextractor_ray.pipelines.common import fits

#: the Q13 flavor: exclude one order class so the distribution is not
#: just "every customer, all their orders" (Q13's comment-filter analog)
Q13_EXCLUDE_PRIORITY = "1-URGENT"


def order_count_distribution(
        sf_dir: str, exclude_priority: str = Q13_EXCLUDE_PRIORITY) -> pa.Table:
    """Histogram of how many non-``exclude_priority`` orders each
    customer has, INCLUDING the zero bucket (customers with none).

    Output: ``(c_count, custdist)`` — custdist desc, c_count desc."""
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.pipelines.relational import semi_anti_join
    from nativeextractor_ray.sources.tables import read_table

    cust = read_table(sf_dir, "customer", ["c_custkey"])

    # total customers: one tiny scalar aggregate (count rides blocks)
    def n_partial(t: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    n_customers = sum(
        r["n"] for r in
        cust.map_batches(n_partial, batch_format="pyarrow").take_all())

    orders = read_table(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def count_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t.column("o_orderpriority"),
                                  exclude_priority))
        g = t.group_by("o_custkey").aggregate([("o_custkey", "count")])
        return pa.table({
            "o_custkey": g.column("o_custkey"),
            "n": pc.cast(g.column("o_custkey_count"), pa.int64())})

    per_cust = (orders.map_batches(count_partial, batch_format="pyarrow")
                      .groupby("o_custkey")
                      .aggregate(Sum("n", alias_name="c_count")))

    # aggregates can emit schema-LESS empty blocks on small inputs (the
    # Q3 lesson, relational.py::_attach_order_dates) — pin the schema
    # before anything probes columns
    pc_schema = pa.schema([("o_custkey", pa.int64()),
                           ("c_count", pa.int64())])

    def ensure_schema(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pc_schema.empty_table()
        return t.select(["o_custkey", "c_count"]).cast(pc_schema)

    per_cust = per_cust.map_batches(ensure_schema, batch_format="pyarrow")

    # LEFT-domain guard: drop counts whose custkey is not a customer
    # (keys-only semi join — no payloads move either way)
    per_cust = semi_anti_join(per_cust, cust, "o_custkey", anti=False)

    def hist_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("c_count").aggregate([("c_count", "count")])
        return pa.table({
            "c_count": pc.cast(g.column("c_count"), pa.int64()),
            "custdist": pc.cast(g.column("c_count_count"), pa.int64())})

    # finish: per-block histogram partials are ≤ max-orders-per-customer
    # rows each — fold them on the driver with np.unique instead of a
    # second groupby AllToAll (pure fixed cost for a ≤ ~50-row result;
    # the Q21 driver-fold lesson)
    ks, ns = [], []
    for t in arrow_blocks(
            per_cust.map_batches(hist_partial, batch_format="pyarrow"),
            stream=False):
        ks.append(t.column("c_count").to_numpy())
        ns.append(t.column("custdist").to_numpy())
    counts, dists = [], []
    if ks:
        kk = np.concatenate(ks)
        nn = np.concatenate(ns)
        uniq, inv = np.unique(kk, return_inverse=True)
        acc = np.zeros(len(uniq), np.int64)
        np.add.at(acc, inv, nn)
        counts = [int(x) for x in uniq]
        dists = [int(x) for x in acc]
    zero = n_customers - sum(dists)
    if zero > 0:
        counts.append(0)
        dists.append(zero)
    order = sorted(range(len(counts)),
                   key=lambda i: (-dists[i], -counts[i]))
    return pa.table({
        "c_count": pa.array([int(counts[i]) for i in order], pa.int64()),
        "custdist": pa.array([int(dists[i]) for i in order], pa.int64()),
    })


def order_count_distribution_sql(
        exclude_priority: str = Q13_EXCLUDE_PRIORITY) -> str:
    return f"""SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (
  SELECT c.c_custkey, CAST(count(o.o_orderkey) AS BIGINT) AS c_count
  FROM customer c
  LEFT JOIN orders o ON o.o_custkey = c.c_custkey
    AND o.o_orderpriority <> '{exclude_priority}'
  GROUP BY c.c_custkey
)
GROUP BY c_count ORDER BY custdist DESC, c_count DESC"""


# ------------------------------------------------------ RFM segmentation


RFM_TIERS = 3


def rfm_segments(sf_dir: str, tiers: int = RFM_TIERS):
    """Customer RFM segmentation — recency (last order epoch-day),
    frequency (order count), monetary (integer total cents) each scored
    into ``tiers`` buckets at EXACT corpus quantiles (the
    ``curriculum_assign`` edge discipline applied three times), plus the
    composite segment code ``r·100 + f·10 + m``.

    Scale shape: orders fold to per-customer partials per batch (ONE
    custkey groupby: Max/Sum/Sum of 24-byte rows), the derived customer
    table materializes once and feeds the histogram-refinement kernel
    three times (R+1 streaming scans each, no sort); the three edge sets
    broadcast as literals into a final streaming assignment map.

    Output: ``(c_custkey, r_day, f, m_cents, r_score, f_score, m_score,
    segment)``."""
    import pandas as pd

    from ray.data.aggregate import Max, Sum

    from nativeextractor_ray.pipelines.quantiles import _exact_quantiles
    from nativeextractor_ray.sources.tables import read_table, table_nrows

    ds = read_table(sf_dir, "orders",
                    ["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        day = (t.column("o_orderdate").to_numpy(zero_copy_only=False)
               .astype("datetime64[us]").astype(np.int64)
               // 86_400_000_000)
        cents = np.floor(t.column("o_totalprice").to_numpy() * 100.0
                         + 0.5).astype(np.int64)
        df = pd.DataFrame({"c_custkey": t.column("o_custkey").to_numpy(),
                           "day": day, "cents": cents})
        g = df.groupby("c_custkey", sort=False).agg(
            r_day=("day", "max"), f=("day", "size"),
            m_cents=("cents", "sum")).reset_index()
        for c in ("r_day", "f", "m_cents"):
            g[c] = g[c].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    # Gate on the CUSTOMER row count (metadata only): when the
    # per-customer 24-byte triple fits the driver bound, the custkey
    # rollup folds on the driver (np.unique + maximum.at/add.at — the
    # Q21 lesson) and the three quantile-edge selections become local
    # np.sort indexing instead of 3×(R+1) refinement scans: ZERO
    # AllToAll.  Above the bound the distributed groupby + histogram-
    # refinement kernel runs; a pytest forces bound=0 and asserts both
    # paths bit-identical.
    from nativeextractor_ray.functions.blocks import arrow_blocks

    if fits(table_nrows(sf_dir, "customer"), common.DRIVER_BOUND, 24):
        ks, rs_, fs_, ms_ = [], [], [], []
        for t in arrow_blocks(
                ds.map_batches(partial, batch_format="pyarrow"),
                stream=False):
            ks.append(t.column("c_custkey").to_numpy())
            rs_.append(t.column("r_day").to_numpy())
            fs_.append(t.column("f").to_numpy())
            ms_.append(t.column("m_cents").to_numpy())
        if not ks:
            return pa.table({c: pa.array([], pa.int64()) for c in (
                "c_custkey", "r_day", "f", "m_cents", "r_score",
                "f_score", "m_score", "segment")})
        kk, inv = np.unique(np.concatenate(ks), return_inverse=True)
        r_day = np.full(len(kk), np.iinfo(np.int64).min, np.int64)
        np.maximum.at(r_day, inv, np.concatenate(rs_))
        f_cnt = np.zeros(len(kk), np.int64)
        np.add.at(f_cnt, inv, np.concatenate(fs_))
        m_cents = np.zeros(len(kk), np.int64)
        np.add.at(m_cents, inv, np.concatenate(ms_))
        n = len(kk)
        ranks = sorted({(i * n + tiers - 1) // tiers
                        for i in range(1, tiers)})
        edges = {}
        for col, arr in (("r_day", r_day), ("f", f_cnt),
                         ("m_cents", m_cents)):
            sv = np.sort(arr)
            edges[col] = [int(sv[k - 1]) for k in ranks]

        def score_local(v, es):
            s = np.full(len(v), len(es) + 1, np.int64)
            for i in range(len(es) - 1, -1, -1):
                s[v <= es[i]] = i + 1
            return s

        rs = score_local(r_day, edges["r_day"])
        fs = score_local(f_cnt, edges["f"])
        ms = score_local(m_cents, edges["m_cents"])
        return pa.table({
            "c_custkey": pa.array(kk), "r_day": pa.array(r_day),
            "f": pa.array(f_cnt), "m_cents": pa.array(m_cents),
            "r_score": pa.array(rs), "f_score": pa.array(fs),
            "m_score": pa.array(ms),
            "segment": pa.array(rs * 100 + fs * 10 + ms)})

    cust = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("c_custkey")
            .aggregate(Max("r_day", alias_name="r_day"),
                       Sum("f", alias_name="f"),
                       Sum("m_cents", alias_name="m_cents"))
            ).materialize()

    # tier-edge ranks computed EXACTLY in integers — ceil(i·n/tiers) as
    # (i·n + tiers - 1) // tiers on BOTH engines; a float q = i/tiers fed
    # to ceil(q·n) can land one rank off at unlucky n (double rounding
    # across an integer boundary) and silently break hash parity
    n = cust.count()
    ranks = [(i * n + tiers - 1) // tiers for i in range(1, tiers)]
    edges = {}
    for col in ("r_day", "f", "m_cents"):
        got = _exact_quantiles(cust, col, (), ranks=ranks)
        edges[col] = [got[("", k)] for k in sorted(k for _, k in got)]

    def score(v: np.ndarray, es) -> np.ndarray:
        s = np.full(len(v), len(es) + 1, np.int64)
        for i in range(len(es) - 1, -1, -1):
            s[v <= es[i]] = i + 1
        return s

    def assign(t: pa.Table) -> pa.Table:
        r = t.column("r_day").to_numpy()
        f = t.column("f").to_numpy()
        m = t.column("m_cents").to_numpy()
        rs, fs, ms = (score(r, edges["r_day"]), score(f, edges["f"]),
                      score(m, edges["m_cents"]))
        return pa.table({
            "c_custkey": t.column("c_custkey"),
            "r_day": t.column("r_day"), "f": t.column("f"),
            "m_cents": t.column("m_cents"),
            "r_score": pa.array(rs), "f_score": pa.array(fs),
            "m_score": pa.array(ms),
            "segment": pa.array(rs * 100 + fs * 10 + ms)})

    return cust.map_batches(assign, batch_format="pyarrow")


def rfm_segments_sql(tiers: int = RFM_TIERS) -> str:
    def dim(col: str) -> str:
        edge_sel = ", ".join(
            f"(SELECT {col} FROM rk_{col} WHERE rk_{col}.r = "
            f"({i} * (SELECT n FROM cnt) + {tiers} - 1) // {tiers})"
            f" AS e{i}" for i in range(1, tiers))
        return (f"rk_{col} AS (SELECT {col}, row_number() OVER "
                f"(ORDER BY {col}) AS r FROM cust),\n"
                f"e_{col} AS (SELECT {edge_sel})")

    def case(col: str) -> str:
        whens = " ".join(
            f"WHEN {col} <= (SELECT e{i} FROM e_{col}) THEN {i}"
            for i in range(1, tiers))
        return f"CAST(CASE {whens} ELSE {tiers} END AS BIGINT)"

    return f"""WITH cust AS (
  SELECT o_custkey AS c_custkey,
         max(epoch_us(o_orderdate) // 86400000000) AS r_day,
         CAST(count(*) AS BIGINT) AS f,
         sum(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS m_cents
  FROM orders GROUP BY 1),
cnt AS (SELECT CAST(count(*) AS BIGINT) AS n FROM cust),
{dim('r_day')},
{dim('f')},
{dim('m_cents')}
SELECT c_custkey, CAST(r_day AS BIGINT) AS r_day, f,
       CAST(m_cents AS BIGINT) AS m_cents,
       {case('r_day')} AS r_score,
       {case('f')} AS f_score,
       {case('m_cents')} AS m_score,
       {case('r_day')} * 100 + {case('f')} * 10 + {case('m_cents')}
         AS segment
FROM cust"""
