"""Relational lookup patterns over the TPC-H-ish side tables — the
engine's demonstration of SURVEY.md §2.5: the reference's only join-like
operation is a broadcast dictionary probe (trie lookup, ner.c:29-31), and
at cluster scale the same shape — **broadcast the small side, probe inside
map_batches, never shuffle the big side** — replaces a hash join whenever
one side fits in the object store.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _key_index(keys, values, fill) -> np.ndarray:
    """Dense lookup ``out[key] = value`` over a dimension table's integer
    keys, ``fill`` where no key lands.  Sized ``max(keys) + 1``, or 1 when
    there are no keys.  Integer values widen to int64."""
    keys = np.asarray(keys)
    values = np.asarray(values)
    dtype = np.int64 if values.dtype.kind in "iu" else values.dtype
    out = np.full(int(keys.max()) + 1 if len(keys) else 1, fill, dtype)
    out[keys] = values
    return out


def _topk_fold(ds, keys: list[str], descending: list[bool], k: int,
               schema: pa.Schema) -> pa.Table:
    """Global top-k WITHOUT a sort AllToAll: per-block top-k partials
    (each block keeps its k best under the full comparator, so the union
    provably contains the global top-k) stream to the driver — ≤ blocks·k
    bounded rows — and one local lexsort finishes.  Replaces
    ``ds.sort(keys).limit(k)``, whose whole-dataset sort exchange costs
    the documented ~2.5 s AllToAll floor to pick a handful of rows.

    ``keys`` must be int64-comparable columns (dates go through their
    µs int64 view); ties behave exactly like the sort+limit they replace.
    ``schema`` types the result when no row survives.
    """
    def sort_key_arrays(t: pa.Table):
        arrs = []
        for c, d in zip(keys, descending):
            a = t.column(c).to_numpy(zero_copy_only=False)
            if a.dtype.kind == "M":
                a = a.astype("datetime64[us]").view(np.int64)
            a = a.astype(np.int64, copy=False)
            arrs.append(-a if d else a)
        # np.lexsort: LAST key is primary → reverse
        return tuple(reversed(arrs))

    def block_topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        idx = np.lexsort(sort_key_arrays(t))[:k]
        return t.take(pa.array(idx))

    from nativeextractor_ray.functions.blocks import concat_blocks

    merged = concat_blocks(
        ds.map_batches(block_topk, batch_format="pyarrow", batch_size=None),
        empty=schema.empty_table())
    idx = np.lexsort(sort_key_arrays(merged))[:k]
    return merged.take(pa.array(idx))


def orders_by_nation(sf_dir: str):
    """Per-nation order rollup via a two-hop broadcast join:
    customer(cust→nation) and nation(nation→name) are broadcast once
    (``ray.put``); the big ``orders`` table streams through one
    ``map_batches`` probe + per-batch combine; a tiny final groupby.

    Money sums in integer cents for float-free oracle comparison."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import load_table, read_table

    cust = load_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    nat = load_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    c_arr = _key_index(cust.column("c_custkey"), cust.column("c_nationkey"), -1)
    n_names = dict(zip(nat.column("n_nationkey").to_pylist(), nat.column("n_name").to_pylist()))
    side = ray.put((c_arr, n_names))

    ds = read_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def probe(t: pa.Table) -> pa.Table:
        c2n, names = ray.get(side)
        nk = c2n[t.column("o_custkey").to_numpy()]
        cents = pc.cast(pc.round(pc.multiply(t.column("o_totalprice"), 100.0)), pa.int64())
        tmp = pa.table({"nationkey": pa.array(nk), "cents": cents})
        g = tmp.group_by("nationkey").aggregate([("cents", "sum"), ("cents", "count")])
        keys = g.column("nationkey").to_pylist()
        return pa.table({
            "n_name": pa.array([names[k] for k in keys], pa.string()),
            "n_orders": pc.cast(g.column("cents_count"), pa.int64()),
            "total_cents": pc.cast(g.column("cents_sum"), pa.int64()),
        })

    partials = ds.map_batches(probe, batch_format="pyarrow")
    return partials.groupby("n_name").aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("total_cents", alias_name="total_cents"),
    )


def order_priority_totals(sf_dir: str):
    """Big-big hash join (``Dataset.join``, Ray's distributed hash
    shuffle-join) — the path for when NEITHER side fits in a broadcast:
    orders ⋈ lineitem on orderkey, rolled up per order priority.  Sums in
    integer cents."""
    import pyarrow.compute as pc2
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table, target_parallelism

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    items = read_table(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])
    joined = orders.join(
        items,
        join_type="inner",
        num_partitions=target_parallelism(),
        on=("o_orderkey",),
        right_on=("l_orderkey",),
    )

    def partial(t: pa.Table) -> pa.Table:
        cents = pc2.cast(pc2.round(pc2.multiply(t.column("l_extendedprice"), 100.0)),
                         pa.int64())
        tmp = pa.table({"o_orderpriority": t.column("o_orderpriority"), "cents": cents})
        g = tmp.group_by("o_orderpriority").aggregate([("cents", "sum"), ("cents", "count")])
        return pa.table({
            "o_orderpriority": g.column("o_orderpriority"),
            "n_items": pc2.cast(g.column("cents_count"), pa.int64()),
            "total_cents": pc2.cast(g.column("cents_sum"), pa.int64()),
        })

    partials = joined.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("o_orderpriority").aggregate(
        Sum("n_items", alias_name="n_items"),
        Sum("total_cents", alias_name="total_cents"),
    )


ORDER_PRIORITY_TOTALS_SQL = """SELECT o.o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority"""


ORDERS_BY_NATION_SQL = """SELECT n.n_name,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY n.n_name"""


# ------------------------------------------------------------------ as-of join


N_ASOF_PARTS = 256


def asof_join(left, right, by: str, on: str, right_keep: list[str],
              suffix: str = "_r", num_parts: int = N_ASOF_PARTS):
    """Distributed AS-OF JOIN (a join family Ray Data has no primitive
    for): for every left row, attach the LATEST right row of the same
    ``by`` key with ``right.on <= left.on`` (backward as-of, exact
    matches allowed; ties on ``on`` break to the largest right row in
    ``(on, *right_keep)`` order, deterministically).

    Partitioning assumption (documented per the custom-operator rule):
    both sides are co-located by ``hash(by) % num_parts`` — one int-key
    sort shuffle each — and each partition is resolved with ONE
    vectorized ``pandas.merge_asof`` pass (no per-key UDF calls, no
    global sort: ``on`` ordering is only ever needed *within* a
    partition).  Skewed ``by`` keys cost what they cost in any keyed
    join; the merge itself stays O(n log n) in the partition size.

    Left rows with no earlier right row keep nulls in the attached
    columns (left-outer semantics).  The attached columns come back named
    ``<col><suffix>``; the right side's ``on`` value itself is not
    re-emitted (attach it via ``right_keep`` under another name upstream
    if needed)."""
    import pandas as pd

    from nativeextractor_ray.functions.hashing import stable_part

    payload = [c for c in right_keep if c not in (by, on)]
    suffixed = [c + suffix for c in payload]
    # int columns must survive union null-filling and merge_asof's
    # unmatched-row float widening with ONE schema across all partitions
    lschema, rschema = left.schema().base_schema, right.schema().base_schema
    int_restore = [
        f.name for f in lschema if pa.types.is_integer(f.type)
    ] + [
        c + suffix for c in payload
        if pa.types.is_integer(rschema.field(c).type)
    ]

    def tag(side: int, project):
        def fn(t: pa.Table) -> pa.Table:
            t = project(t)
            t = t.append_column("side", pa.array(np.full(t.num_rows, side, np.int8)))
            return t.append_column("part", stable_part(t, [by], num_parts))
        return fn

    # right's payload columns are renamed to their suffixed OUTPUT names
    # before the union, so the two sides can never collide inside
    # merge_asof (union null-fills each side's missing columns)
    def project_right(t: pa.Table) -> pa.Table:
        t = t.select([by, on] + payload)
        return t.rename_columns([by, on] + suffixed)

    lt = left.map_batches(tag(0, lambda t: t), batch_format="pyarrow")
    rt = right.map_batches(tag(1, project_right), batch_format="pyarrow")

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        # an EMPTY right dataset contributes zero blocks, so the union
        # schema never materializes the suffixed columns — create them
        # (int_restore re-types the integer ones below)
        for c in suffixed:
            if c not in df.columns:
                df[c] = np.nan
        l = (df[df["side"] == 0]
             .drop(columns=["side", "part"] + suffixed, errors="ignore")
             .sort_values(on, kind="stable"))
        r = (df[df["side"] == 1][[by, on] + suffixed]
             .sort_values([on] + suffixed, kind="stable"))
        out = pd.merge_asof(l, r, on=on, by=by, direction="backward")
        for c in int_restore:
            if c in out.columns and "int" not in str(out[c].dtype).lower():
                out[c] = out[c].astype("Int64")
        return out

    both = lt.union(rt)
    return both.groupby("part").map_groups(resolve, batch_format="pandas")


def purchases_asof_clicks(sf_dir: str):
    """Per purchase event: the user's latest click at-or-before the
    purchase timestamp (the classic event-attribution as-of join), with
    nulls for never-clicked-before purchases."""
    from nativeextractor_ray.sources.tables import read_table

    ev = read_table(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def split(kind):
        def fn(t: pa.Table) -> pa.Table:
            m = t.filter(pc.equal(t.column("event_type"), kind))
            return m.drop_columns(["event_type"])
        return fn

    purchases = ev.map_batches(split("purchase"), batch_format="pyarrow")
    clicks = ev.map_batches(split("click"), batch_format="pyarrow")

    joined = asof_join(
        purchases, clicks, by="user_id", on="ts",
        right_keep=["event_id"], suffix="_click",
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": pc.cast(t.column("event_id"), pa.int64()),
            "user_id": pc.cast(t.column("user_id"), pa.int64()),
            "ts": t.column("ts"),
            "value": t.column("value"),
            "click_event_id": pc.cast(t.column("event_id_click"), pa.int64()),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


PURCHASES_ASOF_CLICKS_SQL = """SELECT event_id, user_id, ts, value, click_event_id
FROM (
  SELECT p.event_id, p.user_id, p.ts, p.value,
         c.event_id AS click_event_id,
         row_number() OVER (
           PARTITION BY p.event_id ORDER BY c.ts DESC, c.event_id DESC
         ) AS rn
  FROM (SELECT * FROM events WHERE event_type = 'purchase') p
  LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c
    ON c.user_id = p.user_id AND c.ts <= p.ts
) WHERE rn = 1"""


# ------------------------------------------------------------ semi/anti join

#: broadcast the distinct-key side when its encoded size is under this
#: bound; above it, both sides co-partition by key hash and the membership
#: test runs per partition (tests force 0 to drive the shuffle path)
SEMI_BROADCAST_BOUND = 64 << 20


def fk_int64(col) -> tuple[np.ndarray, np.ndarray]:
    """Null-safe FK extraction for membership probes: return
    ``(values, valid)`` where ``values`` is int64 (nulls filled with 0 —
    NEVER trusted, the caller masks with ``valid``) and ``valid`` is the
    non-null mask.  A plain ``pc.cast(col, int64).to_numpy()`` on a
    nullable column silently widens to float64 + NaN, losing exactness
    above 2^53 and making null-vs-orphan semantics accidental; every
    probe in the library goes through here so a NULL key uniformly
    matches NOTHING (SQL join / NOT-EXISTS semantics: ``x = NULL`` is
    never true, so semi drops, anti keeps, audits count an orphan)."""
    a = pc.cast(col, pa.int64())
    valid = np.ones(len(a), bool) if a.null_count == 0 \
        else pc.is_valid(a).to_numpy(zero_copy_only=False)
    if a.null_count:
        a = pc.fill_null(a, 0)
    return a.to_numpy(), valid


def semi_anti_join(left, keys, left_key: str, anti: bool,
                   sf_dir: str | None = None):
    """Distributed SEMI / ANTI join (EXISTS / NOT EXISTS — a join family
    Ray's ``Dataset.join`` does not expose): keep the left rows whose
    ``left_key`` does / does not appear in ``keys`` (a one-column key
    dataset).  Only key presence matters — the right side's payload never
    ships, which is what makes semi-joins cheaper than an inner join +
    re-dedup at 100 TB.

    Scale shape: the key side is first shrunk to per-batch DISTINCT keys
    (combiner), then either (a) collected + broadcast as ONE sorted int64
    array when under ``SEMI_BROADCAST_BOUND`` — membership is a vectorized
    ``np.searchsorted`` probe inside a streaming ``map_batches``, the
    trie-probe shape of `/root/reference/src/ner.c:29-31` — or (b) both
    sides co-partition by ``hash(key) % P`` (one coarse shuffle of 8-byte
    keys + the left rows) and each partition resolves membership locally.
    Path (b) keeps nothing on the driver and is forced in tests."""
    import ray
    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts

    def distinct_keys(t: pa.Table) -> pa.Table:
        # NULL on the key side matches nothing (SQL `x = NULL` is never
        # true) — drop it here so neither membership path ever sees one.
        k = pc.drop_null(pc.unique(t.column(t.column_names[0])))
        return pa.table({"k": pc.cast(k, pa.int64())})

    key_ds = keys.map_batches(distinct_keys, batch_format="pyarrow")

    if (key_ds.size_bytes() or 0) <= SEMI_BROADCAST_BOUND:
        from nativeextractor_ray.functions.blocks import arrow_blocks

        arr = np.unique(np.concatenate(
            [p.column("k").to_numpy()
             for p in arrow_blocks(key_ds, stream=False)]
            or [np.array([], np.int64)]))
        side = ray.put(arr)

        def probe(t: pa.Table) -> pa.Table:
            sorted_keys = ray.get(side)
            lk, valid = fk_int64(t.column(left_key))
            if len(sorted_keys) == 0:
                hit = np.zeros(len(lk), bool)
            else:
                pos = np.searchsorted(sorted_keys, lk)
                hit = (pos < len(sorted_keys)) & (
                    sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == lk)
            hit &= valid  # NULL key matches nothing
            return t.filter(pa.array(~hit if anti else hit))

        return left.map_batches(probe, batch_format="pyarrow")

    n_parts = adaptive_parts(sf_dir or ".", table="orders") if sf_dir else 64

    # both union sides are padded to ONE identical, fully NON-NULL schema
    # (key rows carry typed default fillers in the left's payload columns,
    # and their key value in left_key itself).  Null-padding instead would
    # flip int64 columns to float64 in the per-partition pandas frames —
    # lossy above 2^53 on the membership compare — and a partition whose
    # blocks all come from one side would miss the other side's columns
    # entirely (KeyError in resolve).
    lschema = left.schema().base_schema
    lcols = [f.name for f in lschema]

    def _filler(typ, n: int) -> pa.Array:
        if pa.types.is_string(typ) or pa.types.is_large_string(typ):
            return pa.array([""] * n, typ)
        if pa.types.is_integer(typ) or pa.types.is_floating(typ):
            return pa.array(np.zeros(n, typ.to_pandas_dtype()), typ)
        if pa.types.is_boolean(typ):
            return pa.array(np.zeros(n, bool))
        if pa.types.is_timestamp(typ):
            return pa.array(np.zeros(n, "int64"), pa.int64()).cast(typ)
        return pa.nulls(n, typ)  # exotic types: accept the pandas widening

    def tag_left(t: pa.Table) -> pa.Table:
        k, valid = fk_int64(t.column(left_key))
        t = t.append_column("k", pa.array(k, pa.int64()))
        t = t.append_column("k_valid", pa.array(valid))
        t = t.append_column("is_key", pa.array(np.zeros(t.num_rows, bool)))
        return t.append_column("part", stable_part(t, ["k"], n_parts))

    def tag_key(t: pa.Table) -> pa.Table:
        cols = {}
        for f in lschema:
            if f.name == left_key:
                cols[f.name] = pc.cast(t.column("k"), f.type)
            else:
                cols[f.name] = _filler(f.type, t.num_rows)
        cols["k"] = t.column("k")
        out = pa.table(cols)
        out = out.append_column("k_valid",
                                pa.array(np.ones(t.num_rows, bool)))
        out = out.append_column("is_key", pa.array(np.ones(t.num_rows, bool)))
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    lt = left.map_batches(tag_left, batch_format="pyarrow")
    kt = key_ds.map_batches(tag_key, batch_format="pyarrow")

    def resolve(df):
        keys_here = df.loc[df["is_key"], "k"].to_numpy()
        l = df[~df["is_key"]]
        # membership on the filled int64 "k" column masked by "k_valid"
        # (not the raw left_key, which pandas would have widened to
        # float64 + NaN on any null): exact above 2^53, NULL never hits.
        hit = np.isin(l["k"].to_numpy(), keys_here) \
            & l["k_valid"].to_numpy()
        return (l[~hit if anti else hit])[lcols]

    return lt.union(kt).groupby("part").map_groups(
        resolve, batch_format="pandas")


ANTI_PRIORITY = "1-URGENT"


def customers_without_orders(sf_dir: str, priority: str = ANTI_PRIORITY):
    """Customers that never placed an URGENT-priority order (TPC-H Q22's
    anti-join core with a filtered key side): ``customer ANTI JOIN
    (orders WHERE priority) ON custkey`` — the canonical NOT-EXISTS
    shape, resolved without ever joining order payloads.  The priority
    filter keeps the query discriminative on the test tables, where every
    customer has SOME order (so the unfiltered anti-join is empty)."""
    from nativeextractor_ray.sources.tables import read_table

    cust = read_table(sf_dir, "customer",
                      ["c_custkey", "c_name", "c_mktsegment"])
    okeys = read_table(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def urgent(t: pa.Table) -> pa.Table:
        return (t.filter(pc.equal(t.column("o_orderpriority"), priority))
                .select(["o_custkey"]))

    keys = okeys.map_batches(urgent, batch_format="pyarrow")
    return semi_anti_join(cust, keys, "c_custkey", anti=True, sf_dir=sf_dir)


CUSTOMERS_WITHOUT_ORDERS_SQL = f"""SELECT c_custkey, c_name, c_mktsegment
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey
                  AND o.o_orderpriority = '{ANTI_PRIORITY}')"""


# ------------------------------------------------- Q1-style pricing summary


Q1_CUTOFF = "1998-09-02"


def pricing_summary(sf_dir: str, cutoff: str = Q1_CUTOFF):
    """TPC-H Q1-shaped pricing summary over ``lineitem`` — the canonical
    wide-scan aggregate: filter on ship date, roll up per
    ``(l_returnflag, l_linestatus)``.

    Scale shape: ``lineitem`` is the LARGEST table, so everything reduces
    inside ``map_batches`` first — each batch computes its own per-group
    integer sums (6 groups), and only those partial rows (groups × blocks)
    reach the tiny final ``groupby``.  The scan itself is column-pruned to
    the 7 needed columns; nothing else leaves storage.

    Float parity (oracle hash-checked): every money/quantity value is
    converted to integer centi-units per ROW with explicit half-up
    rounding (``floor(x + 0.5)`` — no engine rounding-mode ambiguity, cf.
    ``similarity.embedding_quantize``), then summed exactly as int64;
    averages are derived from the exact integer sums with one identical
    float expression on both sides, rounded to 4 dp (the repo's
    float-parity rule)."""
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "lineitem", [
        "l_returnflag", "l_linestatus", "l_shipdate",
        "l_quantity", "l_extendedprice", "l_discount", "l_tax"])
    cutoff_ts = np.datetime64(cutoff)

    def partial(t: pa.Table) -> pa.Table:
        keep = t.column("l_shipdate").to_numpy() <= cutoff_ts
        t = t.filter(pa.array(keep))
        qty = t.column("l_quantity").to_numpy()
        ep = t.column("l_extendedprice").to_numpy()
        disc = t.column("l_discount").to_numpy()
        tax = t.column("l_tax").to_numpy()
        tmp = pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "l_linestatus": t.column("l_linestatus"),
            "qty_c": np.floor(qty * 100.0 + 0.5).astype(np.int64),
            "base_c": np.floor(ep * 100.0 + 0.5).astype(np.int64),
            "disc_c": np.floor(ep * (1.0 - disc) * 100.0 + 0.5
                               ).astype(np.int64),
            "charge_c": np.floor(ep * (1.0 - disc) * (1.0 + tax) * 100.0
                                 + 0.5).astype(np.int64),
            "disc_bp": np.floor(disc * 10000.0 + 0.5).astype(np.int64),
        })
        g = tmp.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty_c", "sum"), ("base_c", "sum"), ("disc_c", "sum"),
             ("charge_c", "sum"), ("disc_bp", "sum"), ("qty_c", "count")])
        return pa.table({
            "l_returnflag": g.column("l_returnflag"),
            "l_linestatus": g.column("l_linestatus"),
            "sum_qty_c": g.column("qty_c_sum"),
            "sum_base_c": g.column("base_c_sum"),
            "sum_disc_c": g.column("disc_c_sum"),
            "sum_charge_c": g.column("charge_c_sum"),
            "sum_disc_bp": g.column("disc_bp_sum"),
            "n_rows": pc.cast(g.column("qty_c_count"), pa.int64()),
        })

    agg = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["l_returnflag", "l_linestatus"])
             .aggregate(Sum("sum_qty_c", alias_name="sum_qty_c"),
                        Sum("sum_base_c", alias_name="sum_base_c"),
                        Sum("sum_disc_c", alias_name="sum_disc_c"),
                        Sum("sum_charge_c", alias_name="sum_charge_c"),
                        Sum("sum_disc_bp", alias_name="sum_disc_bp"),
                        Sum("n_rows", alias_name="n_rows")))

    # aggregates can emit schema-LESS empty blocks on small inputs (the
    # _attach_order_dates lesson) — pin before finish probes columns
    agg_cols = ["l_returnflag", "l_linestatus", "sum_qty_c", "sum_base_c",
                "sum_disc_c", "sum_charge_c", "sum_disc_bp", "n_rows"]
    agg_schema = pa.schema(
        [("l_returnflag", pa.string()), ("l_linestatus", pa.string())]
        + [(c, pa.int64()) for c in agg_cols[2:]])

    def ensure_agg(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        return t.select(agg_cols).cast(agg_schema)

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n_rows").to_numpy().astype(np.float64)

        # explicit half-up floor of an IDENTICAL float expression on both
        # engines — np.round (half-even) vs DuckDB round() (half-away)
        # disagree on boundary doubles (the vectorstats lesson)
        def r4(x):
            return np.floor(x * 10000.0 + 0.5) / 10000.0

        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "l_linestatus": t.column("l_linestatus"),
            "sum_qty_c": t.column("sum_qty_c"),
            "sum_base_c": t.column("sum_base_c"),
            "sum_disc_c": t.column("sum_disc_c"),
            "sum_charge_c": t.column("sum_charge_c"),
            "avg_qty": r4(t.column("sum_qty_c").to_numpy() / 100.0 / n),
            "avg_price": r4(t.column("sum_base_c").to_numpy() / 100.0 / n),
            "avg_disc": r4(t.column("sum_disc_bp").to_numpy() / 10000.0 / n),
            "n_rows": t.column("n_rows"),
        })

    return (agg.map_batches(ensure_agg, batch_format="pyarrow")
               .map_batches(finish, batch_format="pyarrow"))


def pricing_summary_sql(cutoff: str = Q1_CUTOFF) -> str:
    return f"""WITH c AS (
  SELECT l_returnflag, l_linestatus,
         CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT) AS qty_c,
         CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT) AS base_c,
         CAST(floor(l_extendedprice * (1.0 - l_discount) * 100.0 + 0.5)
              AS BIGINT) AS disc_c,
         CAST(floor(l_extendedprice * (1.0 - l_discount) * (1.0 + l_tax)
                    * 100.0 + 0.5) AS BIGINT) AS charge_c,
         CAST(floor(l_discount * 10000.0 + 0.5) AS BIGINT) AS disc_bp
  FROM lineitem WHERE l_shipdate <= TIMESTAMP '{cutoff}'
)
SELECT l_returnflag, l_linestatus,
       CAST(sum(qty_c) AS BIGINT) AS sum_qty_c,
       CAST(sum(base_c) AS BIGINT) AS sum_base_c,
       CAST(sum(disc_c) AS BIGINT) AS sum_disc_c,
       CAST(sum(charge_c) AS BIGINT) AS sum_charge_c,
       floor((CAST(sum(qty_c) AS DOUBLE) / 100.0 / count(*))
             * 10000.0 + 0.5) / 10000.0 AS avg_qty,
       floor((CAST(sum(base_c) AS DOUBLE) / 100.0 / count(*))
             * 10000.0 + 0.5) / 10000.0 AS avg_price,
       floor((CAST(sum(disc_bp) AS DOUBLE) / 10000.0 / count(*))
             * 10000.0 + 0.5) / 10000.0 AS avg_disc,
       CAST(count(*) AS BIGINT) AS n_rows
FROM c GROUP BY l_returnflag, l_linestatus"""


# ------------------------------------------- Q3-style shipping priority top-k


Q3_SEGMENT = "BUILDING"
Q3_DATE = "1998-06-01"
Q3_TOP_K = 10
Q3_SCHEMA = pa.schema([("o_orderkey", pa.int64()), ("revenue_c", pa.int64()),
                       ("o_orderdate", pa.timestamp("us"))])


def shipping_priority_topk(sf_dir: str, segment: str = Q3_SEGMENT,
                           date: str = Q3_DATE, k: int = Q3_TOP_K):
    """TPC-H Q3-shaped three-table pipeline: revenue top-k of open orders
    for one market segment — ``customer ⋈ orders ⋈ lineitem`` with
    selective filters on every table, per-order revenue rollup, top-k.

    Scale shape, in join-size order:

    1. ``customer`` shrinks to segment custkeys and resolves against the
       date-filtered ``orders`` as a SEMI join (:func:`semi_anti_join` —
       broadcast under the bound, co-partitioned above; customer payloads
       never move).
    2. ``lineitem`` (the big table) never joins raw: the ship-date filter
       + per-batch integer-cents revenue partials reduce it to
       ``(l_orderkey, revenue_c)`` rows BEFORE its only shuffle, the
       orderkey groupby.
    3. The per-order revenue table picks up ``o_orderdate`` from the
       doubly-filtered orders via the size-gated attach (broadcast
       sorted-array probe under ``Q3_ATTACH_BOUND`` — the revenue side
       never shuffles again — or a co-partitioned tagged-union merge
       above it; the merge path is forced bit-identical in a pytest).
       ``Dataset.join`` is deliberately NOT used here: its hash-shuffle
       aggregator builds a zero-COLUMN table for a partition that
       received no shards from one side, and pyarrow's join then fails
       on the missing key field — any selective-filter join can produce
       one-sided partitions.  Then one sort+limit(k).

    Money parity: revenue in integer cents with explicit half-up
    rounding per row (cf. :func:`pricing_summary`).

    Output: ``(o_orderkey, revenue_c, o_orderdate)`` — revenue desc,
    orderkey asc."""
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table, table_nrows

    cutoff = np.datetime64(date)

    cust = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def seg_keys(t: pa.Table) -> pa.Table:
        return (t.filter(pc.equal(t.column("c_mktsegment"), segment))
                .select(["c_custkey"]))

    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"])

    def open_orders(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(t.column("o_orderdate").to_numpy() < cutoff))

    orders_f = semi_anti_join(
        orders.map_batches(open_orders, batch_format="pyarrow"),
        cust.map_batches(seg_keys, batch_format="pyarrow"),
        "o_custkey", anti=False, sf_dir=sf_dir,
    )

    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_extendedprice", "l_discount",
                        "l_shipdate"])

    def rev_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pa.array(t.column("l_shipdate").to_numpy() > cutoff))
        ep = t.column("l_extendedprice").to_numpy()
        disc = t.column("l_discount").to_numpy()
        tmp = pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "rev": np.floor(ep * (1.0 - disc) * 100.0 + 0.5).astype(np.int64),
        })
        g = tmp.group_by("l_orderkey").aggregate([("rev", "sum")])
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "revenue_c": g.column("rev_sum")})

    from nativeextractor_ray.functions.blocks import arrow_blocks

    rev_parts = items.map_batches(rev_partial, batch_format="pyarrow")

    # Gate on the ORDERS row count (metadata only): when every per-order
    # 16-byte (key, cents) pair fits the driver bound, the per-order
    # revenue rollup folds on the driver with np.unique + np.add.at (the
    # Q21 lesson — partial volume is bounded by orders × blocks) and the
    # date attach + top-k finish run as local array ops: ZERO AllToAll in
    # the whole query.  Above the bound the distributed groupby + attach
    # + per-block top-k pipeline runs; a pytest forces bound=0 and
    # asserts both paths bit-identical.
    n_orders = table_nrows(sf_dir, "orders") if sf_dir else None
    if n_orders is not None and n_orders * 16 <= Q3_DRIVER_FOLD_BOUND:
        ks, vs = [], []
        for t in arrow_blocks(rev_parts, stream=False):
            ks.append(t.column("l_orderkey").to_numpy())
            vs.append(t.column("revenue_c").to_numpy())
        if not ks:
            kk = np.array([], np.int64)
            cc = np.array([], np.int64)
        else:
            k_all = np.concatenate(ks)
            kk, inv = np.unique(k_all, return_inverse=True)
            cc = np.zeros(len(kk), np.int64)
            np.add.at(cc, inv, np.concatenate(vs))
        # filtered orders (o_orderkey, o_orderdate) — same collection the
        # broadcast attach performs; inner-join + top-k locally
        oks, ods = [], []
        for t in arrow_blocks(
                orders_f.select_columns(["o_orderkey", "o_orderdate"]),
                stream=False):
            oks.append(t.column("o_orderkey").to_numpy())
            ods.append(t.column("o_orderdate").to_numpy()
                       .astype("datetime64[us]").view(np.int64))
        ok_ = np.concatenate(oks) if oks else np.array([], np.int64)
        od_ = np.concatenate(ods) if ods else np.array([], np.int64)
        oorder = np.argsort(ok_)
        ok_, od_ = ok_[oorder], od_[oorder]
        pos = np.searchsorted(ok_, kk)
        hit = ((pos < len(ok_))
               & (ok_[np.minimum(pos, max(0, len(ok_) - 1))] == kk)
               if len(ok_) else np.zeros(len(kk), bool))
        jk, jc = kk[hit], cc[hit]
        jd = od_[pos[hit]] if len(ok_) else np.array([], np.int64)
        top = np.lexsort((jk, -jc))[:k]
        return pa.table({
            "o_orderkey": pa.array(jk[top]),
            "revenue_c": pa.array(jc[top]),
            "o_orderdate": pa.array(jd[top].view("datetime64[us]")),
        })

    rev = rev_parts.groupby("l_orderkey").aggregate(
        Sum("revenue_c", alias_name="revenue_c"))

    # the aggregate can emit EMPTY blocks with no schema at all (observed
    # on small inputs) — pin the schema so every downstream consumer sees
    # the two typed columns
    rev_schema = pa.schema([("l_orderkey", pa.int64()),
                            ("revenue_c", pa.int64())])

    def ensure_rev_schema(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return rev_schema.empty_table()
        return t.select(["l_orderkey", "revenue_c"]).cast(rev_schema)

    rev = rev.map_batches(ensure_rev_schema, batch_format="pyarrow")

    joined = _attach_order_dates(rev, orders_f, sf_dir)
    # top-k via per-block partials + driver fold — the sort+limit(k)
    # AllToAll was pure fixed cost for k=10 rows
    return _topk_fold(joined, ["revenue_c", "o_orderkey"],
                      [True, False], k, Q3_SCHEMA)


#: broadcast the filtered (orderkey, orderdate) side when its encoded size
#: is under this bound; above it, both sides co-partition by orderkey hash
#: (tests force 0 to drive the merge path)
Q3_ATTACH_BOUND = 64 << 20

#: driver-fold the per-order revenue rollup when orders × 16 B fits —
#: ~4M orders per 64 MB; tests force 0 to drive the distributed path
Q3_DRIVER_FOLD_BOUND = 64 << 20


def _attach_order_dates(rev, orders_f, sf_dir: str | None):
    """Inner-attach ``o_orderdate`` onto ``(l_orderkey, revenue_c)`` rows.

    Broadcast path: the doubly-filtered orders collect as ONE sorted
    (key, date-µs) array pair, ``ray.put`` once; the revenue side — which
    is already partitioned by orderkey from its groupby — streams through
    a vectorized ``searchsorted`` probe with no further shuffle.  Merge
    path: tagged union co-partitioned by ``hash(key) % P`` (the
    :func:`semi_anti_join` shape — identical non-null columns on both
    sides), one pandas inner merge per partition."""
    import ray

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts

    kd = orders_f.select_columns(["o_orderkey", "o_orderdate"])

    if (kd.size_bytes() or 0) <= Q3_ATTACH_BOUND:
        ks, dts = [], []
        for t in arrow_blocks(kd, stream=False):
            ks.append(t.column("o_orderkey").to_numpy())
            dts.append(t.column("o_orderdate").to_numpy()
                       .astype("datetime64[us]").view(np.int64))
        kk = np.concatenate(ks) if ks else np.array([], np.int64)
        dd = np.concatenate(dts) if dts else np.array([], np.int64)
        order = np.argsort(kk)
        side = ray.put((kk[order], dd[order]))

        def probe(t: pa.Table) -> pa.Table:
            keys, dates = ray.get(side)
            lk = t.column("l_orderkey").to_numpy()
            if len(keys) == 0:
                hit = np.zeros(len(lk), bool)
            else:
                pos = np.searchsorted(keys, lk)
                hit = (pos < len(keys)) & (
                    keys[np.minimum(pos, len(keys) - 1)] == lk)
            t = t.filter(pa.array(hit))
            lk2 = t.column("l_orderkey").to_numpy()
            dv = (dates[np.searchsorted(keys, lk2)] if t.num_rows
                  else np.array([], np.int64))
            return pa.table({
                "o_orderkey": t.column("l_orderkey"),
                "revenue_c": t.column("revenue_c"),
                "o_orderdate": pa.array(dv.view("datetime64[us]")),
            })

        return rev.map_batches(probe, batch_format="pyarrow")

    n_parts = adaptive_parts(sf_dir or ".", table="orders") if sf_dir else 64

    # tagged union: identical non-null columns on BOTH sides (the
    # semi_anti_join lesson — null padding widens int64 to float64 and
    # one-sided partitions lose columns entirely)
    def tag_rev(t: pa.Table) -> pa.Table:
        out = pa.table({
            "k": pc.cast(t.column("l_orderkey"), pa.int64()),
            "revenue_c": t.column("revenue_c"),
            "date_us": pa.array(np.zeros(t.num_rows, np.int64)),
            "is_rev": pa.array(np.ones(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    def tag_ord(t: pa.Table) -> pa.Table:
        out = pa.table({
            "k": pc.cast(t.column("o_orderkey"), pa.int64()),
            "revenue_c": pa.array(np.zeros(t.num_rows, np.int64)),
            "date_us": pa.array(t.column("o_orderdate").to_numpy()
                                .astype("datetime64[us]").view(np.int64)),
            "is_rev": pa.array(np.zeros(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    rt = rev.map_batches(tag_rev, batch_format="pyarrow")
    ot = kd.map_batches(tag_ord, batch_format="pyarrow")

    def resolve(df):
        import pandas as pd

        r = df[df["is_rev"]][["k", "revenue_c"]]
        o = df[~df["is_rev"]][["k", "date_us"]]
        m = r.merge(o, on="k", how="inner")
        return pd.DataFrame({
            "o_orderkey": m["k"].to_numpy(),
            "revenue_c": m["revenue_c"].to_numpy(),
            "o_orderdate": pd.Series(
                m["date_us"].to_numpy().astype(np.int64)
                .view("datetime64[us]")),
        })

    return rt.union(ot).groupby("part").map_groups(
        resolve, batch_format="pandas")


def shipping_priority_topk_sql(segment: str = Q3_SEGMENT,
                               date: str = Q3_DATE, k: int = Q3_TOP_K) -> str:
    return f"""SELECT o.o_orderkey,
       CAST(sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0
                           + 0.5) AS BIGINT)) AS BIGINT) AS revenue_c,
       o.o_orderdate
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = '{segment}'
  AND o.o_orderdate < TIMESTAMP '{date}'
  AND l.l_shipdate > TIMESTAMP '{date}'
GROUP BY o.o_orderkey, o.o_orderdate
ORDER BY revenue_c DESC, o.o_orderkey LIMIT {k}"""


# ----------------------------------------------- Q5: local supplier volume


Q5_REGION = "ASIA"
Q5_DATE_LO = "1995-01-01"
Q5_DATE_HI = "1999-01-01"

#: driver-fold the pruned (orderkey, cust_nation) side when orders × 16 B
#: fits; tests force 0 to drive the co-partitioned exchange
Q5_DRIVER_FOLD_BOUND = 64 << 20


def local_supplier_volume(sf_dir: str, region: str = Q5_REGION,
                          date_lo: str = Q5_DATE_LO,
                          date_hi: str = Q5_DATE_HI):
    """TPC-H Q5-shaped multiway join: revenue per nation where the
    customer's and the line's supplier's nation coincide, restricted to
    one region and a date window.

    Scale shape — ONE shuffle total for a 6-table join:

    - region ⋈ nation collapses on the driver to a nationkey→name map
      for the target region (25 rows).
    - supplier and customer broadcast as ``suppkey→nationkey`` /
      ``custkey→nationkey`` int64 arrays (``ray.put`` once, read per
      actor).  Like :func:`orders_by_nation`, this assumes the DIM side
      fits the object store (TPC-H customer is 1.5k rows/SF-GB;
      ~15 GB of packed int64 at 100 TB — at that point swap the probe
      for the :func:`order_priority_totals` ``Dataset.join`` path).
    - orders filters on the date window and the region's customer
      nations INSIDE ``map_batches`` — the join's only shuffled side is
      this doubly-pruned (o_orderkey, cust_nation) projection.
    - lineitem never shuffles whole either: projected to
      (l_orderkey, l_suppkey, revenue cents) before the single
      co-partitioned tagged-union hash exchange (the two_hop_counts
      lesson: same exchange as ``Dataset.join``, no aggregator
      overhead — measured 12.2 s → 7.2 s at sf0.1 bit-identically).
    - the local-supplier predicate (supp_nation == cust_nation) AND the
      per-nation rollup resolve INSIDE each partition; ≤ nations rows
      leave it for the final groupby.

    Output: ``(n_name, revenue_c)`` — revenue in exact integer cents
    (row-wise half-up ``floor(x*100+0.5)``, the repo float-parity rule).
    """
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import load_table, read_table, table_nrows

    nat = load_table(sf_dir, "nation")
    reg = load_table(sf_dir, "region")
    rkey = {r["r_name"]: r["r_regionkey"] for r in reg.to_pylist()}[region]
    names = {r["n_nationkey"]: r["n_name"] for r in nat.to_pylist()
             if r["n_regionkey"] == rkey}

    sup = load_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    cust = load_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    s2n = _key_index(sup.column("s_suppkey"), sup.column("s_nationkey"), -1)
    c2n = _key_index(cust.column("c_custkey"), cust.column("c_nationkey"), -1)
    side = ray.put((s2n, c2n, frozenset(names)))

    lo, hi = np.datetime64(date_lo), np.datetime64(date_hi)
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"])

    def prune_orders(t: pa.Table) -> pa.Table:
        _s2n, c2n_, nset = ray.get(side)
        d = t.column("o_orderdate").to_numpy()
        keep = (d >= lo) & (d < hi)
        ck = t.column("o_custkey").to_numpy()[keep]
        cn = c2n_[ck]
        in_region = np.isin(cn, np.fromiter(nset, dtype=np.int64))
        return pa.table({
            "o_orderkey": pa.array(
                t.column("o_orderkey").to_numpy()[keep][in_region]),
            "cust_nation": pa.array(cn[in_region]),
        })

    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"])

    def prune_items(t: pa.Table) -> pa.Table:
        s2n_, _c2n, _ = ray.get(side)
        ep = t.column("l_extendedprice").to_numpy()
        disc = t.column("l_discount").to_numpy()
        return pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "supp_nation": pa.array(s2n_[t.column("l_suppkey").to_numpy()]),
            "rev_c": pa.array(np.floor(ep * (1.0 - disc) * 100.0 + 0.5)
                              .astype(np.int64)),
        })

    # Gate on the ORDERS row count (metadata only): the doubly-pruned
    # (orderkey, cust_nation) projection is 16 B/order upper-bound —
    # under the driver bound it collects once, broadcasts sorted, and
    # lineitem streams through a probe whose ≤25-row nation rollups fold
    # on the driver: ZERO AllToAll for the 6-table join.  Above it the
    # co-partitioned exchange below runs; a pytest forces bound=0 and
    # asserts both paths bit-identical.
    from nativeextractor_ray.functions.blocks import arrow_blocks

    n_orders = table_nrows(sf_dir, "orders") if sf_dir else None
    if n_orders is not None and n_orders * 16 <= Q5_DRIVER_FOLD_BOUND:
        oks, cns = [], []
        for t in arrow_blocks(
                orders.map_batches(prune_orders, batch_format="pyarrow"),
                stream=False):
            oks.append(t.column("o_orderkey").to_numpy())
            cns.append(t.column("cust_nation").to_numpy())
        ok_ = np.concatenate(oks) if oks else np.array([], np.int64)
        cn_ = np.concatenate(cns) if cns else np.array([], np.int64)
        oorder = np.argsort(ok_)
        oside = ray.put((ok_[oorder], cn_[oorder]))

        def probe_items(t: pa.Table) -> pa.Table:
            keys, cn = ray.get(oside)
            lk = t.column("l_orderkey").to_numpy()
            sn = t.column("supp_nation").to_numpy()
            rv = t.column("rev_c").to_numpy()
            if len(keys):
                pos = np.clip(np.searchsorted(keys, lk), 0,
                              len(keys) - 1)
                keep = (keys[pos] == lk) & (cn[pos] == sn)
            else:
                keep = np.zeros(len(lk), bool)
            nk = sn[keep]
            rv = rv[keep]
            uniq, inv = np.unique(nk, return_inverse=True)
            acc_ = np.zeros(len(uniq), np.int64)
            np.add.at(acc_, inv, rv)
            return pa.table({"nk": pa.array(uniq),
                             "rev_c": pa.array(acc_)})

        acc: dict[int, int] = {}
        for t in arrow_blocks(
                items.map_batches(prune_items, batch_format="pyarrow")
                .map_batches(probe_items, batch_format="pyarrow"),
                stream=False):
            for k, v in zip(t.column("nk").to_pylist(),
                            t.column("rev_c").to_pylist()):
                acc[k] = acc.get(k, 0) + int(v)
        nks = sorted(acc)
        return pa.table({
            "n_name": pa.array([names[k] for k in nks], pa.string()),
            "revenue_c": pa.array([acc[k] for k in nks], pa.int64())})

    # the single hash exchange: co-partitioned tagged union on orderkey
    # (the two_hop_counts lesson — same exchange as Dataset.join without
    # its aggregator overhead), with the local-supplier predicate AND the
    # per-nation rollup resolved INSIDE each partition, so only ≤ nations
    # rows leave it
    from nativeextractor_ray.functions.hashing import stable_part

    def tag_ord(t: pa.Table) -> pa.Table:
        out = pa.table({
            "k": pc.cast(t.column("o_orderkey"), pa.int64()),
            "nation": pc.cast(t.column("cust_nation"), pa.int64()),
            "rev_c": pa.array(np.zeros(t.num_rows, np.int64)),
            "is_ord": pa.array(np.ones(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], 64))

    def tag_item(t: pa.Table) -> pa.Table:
        out = pa.table({
            "k": pc.cast(t.column("l_orderkey"), pa.int64()),
            "nation": pc.cast(t.column("supp_nation"), pa.int64()),
            "rev_c": t.column("rev_c"),
            "is_ord": pa.array(np.zeros(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], 64))

    both = (orders.map_batches(prune_orders, batch_format="pyarrow")
            .map_batches(tag_ord, batch_format="pyarrow")
            .union(items.map_batches(prune_items, batch_format="pyarrow")
                   .map_batches(tag_item, batch_format="pyarrow")))

    def join_part(df):
        import pandas as pd

        o = df[df["is_ord"]][["k", "nation"]].rename(
            columns={"nation": "cn"})
        l = df[~df["is_ord"]][["k", "nation", "rev_c"]].rename(
            columns={"nation": "sn"})
        m = l.merge(o, on="k", how="inner")
        m = m[m["cn"] == m["sn"]]
        g = m.groupby("cn", sort=False)["rev_c"].sum().reset_index()
        return pd.DataFrame({"nk": g["cn"].to_numpy(np.int64),
                             "rev_c": g["rev_c"].to_numpy(np.int64)})

    name_map = ray.put(names)

    def to_names(t: pa.Table) -> pa.Table:
        nm = ray.get(name_map)
        return pa.table({
            "n_name": pa.array([nm[k] for k in t.column("nk").to_pylist()],
                               pa.string()),
            "revenue_c": t.column("rev_c"),
        })

    # per-partition partials are ≤ |nations| rows each — fold them on
    # the driver instead of a second AllToAll (the Q21 lesson)
    acc2: dict[str, int] = {}
    for t in arrow_blocks(
            both.groupby("part").map_groups(join_part,
                                            batch_format="pandas")
            .map_batches(to_names, batch_format="pyarrow"),
            stream=False):
        for nm_, v in zip(t.column("n_name").to_pylist(),
                          t.column("revenue_c").to_pylist()):
            acc2[nm_] = acc2.get(nm_, 0) + int(v)
    nms = sorted(acc2)
    return pa.table({
        "n_name": pa.array(nms, pa.string()),
        "revenue_c": pa.array([acc2[n] for n in nms], pa.int64())})


def local_supplier_volume_sql(region: str = Q5_REGION,
                              date_lo: str = Q5_DATE_LO,
                              date_hi: str = Q5_DATE_HI) -> str:
    return f"""SELECT n.n_name,
       CAST(sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0
                           + 0.5) AS BIGINT)) AS BIGINT) AS revenue_c
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
WHERE s.s_nationkey = c.c_nationkey
  AND r.r_name = '{region}'
  AND o.o_orderdate >= TIMESTAMP '{date_lo}'
  AND o.o_orderdate < TIMESTAMP '{date_hi}'
GROUP BY n.n_name"""


# -------------------------------------------------- ROLLUP report


def rollup_report(sf_dir: str):
    """GROUP BY ROLLUP(nation, priority) over orders — the GROUPING-SETS
    shape: per-(nation, priority) totals, per-nation subtotals, and the
    grand total in one result, coarser levels marked with the sentinel
    ``'ALL'`` (never a real nation/priority name) so the result stays
    NULL-free for hash comparison.

    Scale shape: ONE pass over orders computes the finest-grain partial
    inside ``map_batches`` (nation × priority ≤ 125 groups); one tiny
    groupby merges partials; the two coarser rollup levels are derived
    from that ≤125-row table with plain Arrow on the driver — rollup
    levels are aggregations OF the finest aggregate, never of the fact
    table, so no second scan and no second shuffle.

    Output: ``(n_name, o_orderpriority, n_orders, total_cents)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import load_table, read_table

    cust = load_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    nat = load_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    c2n = _key_index(cust.column("c_custkey"), cust.column("c_nationkey"), -1)
    names = dict(zip(nat.column("n_nationkey").to_pylist(),
                     nat.column("n_name").to_pylist()))
    side = ray.put((c2n, names))

    ds = read_table(sf_dir, "orders",
                    ["o_custkey", "o_orderpriority", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        c2n_, nm = ray.get(side)
        nk = c2n_[t.column("o_custkey").to_numpy()]
        cents = pc.cast(pc.round(pc.multiply(t.column("o_totalprice"),
                                             100.0)), pa.int64())
        tmp = pa.table({"nk": pa.array(nk),
                        "o_orderpriority": t.column("o_orderpriority"),
                        "cents": cents})
        g = tmp.group_by(["nk", "o_orderpriority"]).aggregate(
            [("cents", "sum"), ("cents", "count")])
        return pa.table({
            "n_name": pa.array([nm[k] for k in g.column("nk").to_pylist()],
                               pa.string()),
            "o_orderpriority": g.column("o_orderpriority"),
            "n_orders": pc.cast(g.column("cents_count"), pa.int64()),
            "total_cents": pc.cast(g.column("cents_sum"), pa.int64()),
        })

    fine = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["n_name", "o_orderpriority"])
            .aggregate(Sum("n_orders", alias_name="n_orders"),
                       Sum("total_cents", alias_name="total_cents")))

    # ≤ |nations|×|priorities| rows — a bounded driver finish, like the
    # HLL register merge (sketches.py)
    parts = list(arrow_blocks(fine, stream=False))
    if not parts:
        return pa.table({"n_name": pa.array([], pa.string()),
                         "o_orderpriority": pa.array([], pa.string()),
                         "n_orders": pa.array([], pa.int64()),
                         "total_cents": pa.array([], pa.int64())})
    t = pa.concat_tables(parts, promote_options="default")
    t = t.select(["n_name", "o_orderpriority", "n_orders", "total_cents"])

    by_nation = (t.group_by("n_name")
                 .aggregate([("n_orders", "sum"), ("total_cents", "sum")]))
    lvl1 = pa.table({
        "n_name": by_nation.column("n_name"),
        "o_orderpriority": pa.array(["ALL"] * by_nation.num_rows),
        "n_orders": pc.cast(by_nation.column("n_orders_sum"), pa.int64()),
        "total_cents": pc.cast(by_nation.column("total_cents_sum"),
                               pa.int64()),
    })
    lvl2 = pa.table({
        "n_name": pa.array(["ALL"]),
        "o_orderpriority": pa.array(["ALL"]),
        "n_orders": pa.array([int(pc.sum(t.column("n_orders")).as_py())],
                             pa.int64()),
        "total_cents": pa.array(
            [int(pc.sum(t.column("total_cents")).as_py())], pa.int64()),
    })
    return pa.concat_tables([t, lvl1, lvl2])


ROLLUP_REPORT_SQL = """SELECT coalesce(n.n_name, 'ALL') AS n_name,
       coalesce(o.o_orderpriority, 'ALL') AS o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS total_cents
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY ROLLUP(n.n_name, o.o_orderpriority)"""


# ------------------------------------------ Q18: large-order customers


Q18_QTY_THRESHOLD = 250
Q18_TOP_K = 100
Q18_SCHEMA = pa.schema([
    ("c_name", pa.string()), ("c_custkey", pa.int64()),
    ("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us")),
    ("total_price_c", pa.int64()), ("sum_qty", pa.int64())])
#: broadcast the hot (orderkey, qty) table when under this encoded size;
#: above it, attach via the co-partitioned tagged-union merge (tests
#: force 0 to drive the merge path)
Q18_ATTACH_BOUND = 64 << 20

#: driver-fold the per-order quantity rollup when orders × 16 B fits —
#: ~4M orders per 64 MB; tests force 0 to drive the distributed path
Q18_DRIVER_FOLD_BOUND = 64 << 20


def large_order_customers(sf_dir: str, threshold: int = Q18_QTY_THRESHOLD,
                          k: int = Q18_TOP_K):
    """TPC-H Q18-shaped pipeline: customers whose orders total more than
    ``threshold`` units — a HAVING-over-join shape where the filter is an
    aggregate of the big table itself.

    Scale shape:

    1. ``lineitem`` reduces to exact per-order ``sum(l_quantity)``
       (integer units — quantities are integral, so int64 sums are exact)
       via per-batch partials + one orderkey groupby, then the
       ``> threshold`` HAVING keeps only the hot orders (~0.1–1%).
    2. ``orders`` resolves against the hot keys as a SEMI join
       (:func:`semi_anti_join` — size-gated broadcast / co-partitioned).
    3. The hot quantity rides onto the filtered orders through the same
       size-gated attach as :func:`_attach_order_dates`: broadcast sorted
       (key, qty) arrays under ``Q18_ATTACH_BOUND``, tagged-union
       co-partitioned merge above it — the orders side never shuffles a
       second time on the broadcast path.
    4. ``c_name`` probes a broadcast customer dim (sorted custkey +
       name array — the trie-probe shape), then ONE sort+limit(k).

    Output: ``(c_name, c_custkey, o_orderkey, o_orderdate,
    total_price_c, sum_qty)`` — totalprice desc, orderkey asc."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts
    from nativeextractor_ray.sources.tables import load_table, read_table, table_nrows

    items = read_table(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def qty_partial(t: pa.Table) -> pa.Table:
        tmp = pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "q": pa.array(t.column("l_quantity").to_numpy()
                          .astype(np.int64)),
        })
        g = tmp.group_by("l_orderkey").aggregate([("q", "sum")])
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "sum_qty": pc.cast(g.column("q_sum"), pa.int64())})

    qty_schema = pa.schema([("l_orderkey", pa.int64()),
                            ("sum_qty", pa.int64())])

    def hot_only(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return qty_schema.empty_table()
        t = t.select(["l_orderkey", "sum_qty"]).cast(qty_schema)
        return t.filter(pc.greater(t.column("sum_qty"), threshold))


    # Gate on the ORDERS row count (metadata only): when every per-order
    # 16-byte (key, qty) pair fits the driver bound, the HAVING rollup
    # folds on the driver (np.unique + np.add.at — the Q21 lesson) and
    # the hot set broadcasts straight into the orders probe: the whole
    # query runs with ZERO AllToAll.  Above the bound the distributed
    # groupby + semi-join + attach pipeline runs; a pytest forces
    # bound=0 and asserts both paths bit-identical.
    n_orders = table_nrows(sf_dir, "orders") if sf_dir else None
    hot_arrays = None
    if n_orders is not None and n_orders * 16 <= Q18_DRIVER_FOLD_BOUND:
        from nativeextractor_ray.functions.blocks import arrow_blocks

        ks, qs = [], []
        for t in arrow_blocks(
                items.map_batches(qty_partial, batch_format="pyarrow"),
                stream=False):
            ks.append(t.column("l_orderkey").to_numpy())
            qs.append(t.column("sum_qty").to_numpy())
        if ks:
            kk, inv = np.unique(np.concatenate(ks), return_inverse=True)
            qq = np.zeros(len(kk), np.int64)
            np.add.at(qq, inv, np.concatenate(qs))
            keep = qq > threshold
            hot_arrays = (kk[keep], qq[keep])  # sorted by key
        else:
            hot_arrays = (np.array([], np.int64), np.array([], np.int64))

    if hot_arrays is None:
        # materialize: the HAVING output is the small side and feeds
        # THREE consumers (semi-join keys, the size gate, the attach) —
        # without it the lineitem aggregate would re-execute per consumer
        hot = (items.map_batches(qty_partial, batch_format="pyarrow")
               .groupby("l_orderkey")
               .aggregate(Sum("sum_qty", alias_name="sum_qty"))
               .map_batches(hot_only, batch_format="pyarrow")
               .materialize())

    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate",
                         "o_totalprice"])
    if hot_arrays is not None:
        hk_ref = ray.put(hot_arrays[0])

        def hot_filter(t: pa.Table) -> pa.Table:
            hk = ray.get(hk_ref)
            okn = t.column("o_orderkey").to_numpy()
            if not len(hk):
                return t.slice(0, 0)
            pos = np.clip(np.searchsorted(hk, okn), 0, len(hk) - 1)
            return t.filter(pa.array(hk[pos] == okn))

        orders_f = orders.map_batches(hot_filter, batch_format="pyarrow")
    else:
        orders_f = semi_anti_join(
            orders, hot.select_columns(["l_orderkey"]),
            "o_orderkey", anti=False, sf_dir=sf_dir)

    cust = load_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
    ck = cust.column("c_custkey").to_numpy()
    corder = np.argsort(ck)
    cust_side = ray.put((ck[corder],
                         cust.column("c_name").take(
                             pa.array(corder)).combine_chunks()))

    def finish_row(t: pa.Table, qv: np.ndarray) -> pa.Table:
        keys, names = ray.get(cust_side)
        cidx = np.searchsorted(keys, t.column("o_custkey").to_numpy())
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("o_totalprice"), 100.0)), pa.int64())
        return pa.table({
            "c_name": names.take(pa.array(cidx)),
            "c_custkey": t.column("o_custkey"),
            "o_orderkey": t.column("o_orderkey"),
            "o_orderdate": t.column("o_orderdate"),
            "total_price_c": price_c,
            "sum_qty": pa.array(qv),
        })

    if hot_arrays is not None or (hot.size_bytes() or 0) <= Q18_ATTACH_BOUND:
        if hot_arrays is not None:
            hot_side = ray.put(hot_arrays)  # already key-sorted
        else:
            hk, hq = [], []
            for t in arrow_blocks(hot, stream=False):
                hk.append(t.column("l_orderkey").to_numpy())
                hq.append(t.column("sum_qty").to_numpy())
            kk = np.concatenate(hk) if hk else np.array([], np.int64)
            qq = np.concatenate(hq) if hq else np.array([], np.int64)
            horder = np.argsort(kk)
            hot_side = ray.put((kk[horder], qq[horder]))

        def probe(t: pa.Table) -> pa.Table:
            keys, qtys = ray.get(hot_side)
            # semi-join already filtered to hot orders; lookup is total
            pos = (np.searchsorted(keys, t.column("o_orderkey").to_numpy())
                   if t.num_rows else np.array([], np.int64))
            return finish_row(t, qtys[pos] if t.num_rows
                              else np.array([], np.int64))

        joined = orders_f.map_batches(probe, batch_format="pyarrow")
    else:
        n_parts = adaptive_parts(sf_dir, table="orders")

        def tag_hot(t: pa.Table) -> pa.Table:
            out = pa.table({
                "k": t.column("l_orderkey"),
                "o_custkey": pa.array(np.zeros(t.num_rows, np.int64)),
                "date_us": pa.array(np.zeros(t.num_rows, np.int64)),
                "price_c": pa.array(np.zeros(t.num_rows, np.int64)),
                "sum_qty": t.column("sum_qty"),
                "is_hot": pa.array(np.ones(t.num_rows, bool)),
            })
            return out.append_column("part",
                                     stable_part(out, ["k"], n_parts))

        def tag_ord(t: pa.Table) -> pa.Table:
            out = pa.table({
                "k": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "date_us": pa.array(t.column("o_orderdate").to_numpy()
                                    .astype("datetime64[us]")
                                    .view(np.int64)),
                "price_c": pc.cast(pc.round(pc.multiply(
                    t.column("o_totalprice"), 100.0)), pa.int64()),
                "sum_qty": pa.array(np.zeros(t.num_rows, np.int64)),
                "is_hot": pa.array(np.zeros(t.num_rows, bool)),
            })
            return out.append_column("part",
                                     stable_part(out, ["k"], n_parts))

        ht = hot.map_batches(tag_hot, batch_format="pyarrow")
        ot = orders_f.map_batches(tag_ord, batch_format="pyarrow")

        def resolve(df):
            import pandas as pd

            h = df[df["is_hot"]][["k", "sum_qty"]]
            o = df[~df["is_hot"]][["k", "o_custkey", "date_us", "price_c"]]
            m = o.merge(h, on="k", how="inner")
            keys, names = ray.get(cust_side)
            cidx = np.searchsorted(keys, m["o_custkey"].to_numpy())
            return pd.DataFrame({
                "c_name": names.take(pa.array(cidx)).to_pandas(),
                "c_custkey": m["o_custkey"].to_numpy(),
                "o_orderkey": m["k"].to_numpy(),
                "o_orderdate": pd.Series(
                    m["date_us"].to_numpy().astype(np.int64)
                    .view("datetime64[us]")),
                "total_price_c": m["price_c"].to_numpy(),
                "sum_qty": m["sum_qty"].to_numpy(),
            })

        joined = ht.union(ot).groupby("part").map_groups(
            resolve, batch_format="pandas")

    # top-k via per-block partials + driver fold — the sort+limit(k)
    # AllToAll was pure fixed cost for k=100 rows
    return _topk_fold(joined, ["total_price_c", "o_orderkey"],
                      [True, False], k, Q18_SCHEMA)


def large_order_customers_sql(threshold: int = Q18_QTY_THRESHOLD,
                              k: int = Q18_TOP_K) -> str:
    return f"""SELECT c.c_name, c.c_custkey, o.o_orderkey, o.o_orderdate,
       CAST(round(o.o_totalprice * 100) AS BIGINT) AS total_price_c,
       CAST(sum(CAST(l.l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
GROUP BY c.c_name, c.c_custkey, o.o_orderkey, o.o_orderdate, o.o_totalprice
HAVING sum(CAST(l.l_quantity AS BIGINT)) > {threshold}
ORDER BY total_price_c DESC, o.o_orderkey LIMIT {k}"""


# -------------------------------- Q17: small-quantity-order revenue


def small_order_revenue(sf_dir: str):
    """TPC-H Q17-shaped correlated-aggregate filter: revenue from line
    items whose quantity is below 20% of their part's average quantity,
    rolled up per brand — the "compare each row against its group's own
    aggregate" shape.

    Scale shape: ONE fact shuffle total.  ``lineitem`` projects to
    ``(l_partkey, qty, price_c)`` and co-partitions by
    ``hash(partkey)``; inside each partition a vectorized pandas groupby
    computes every part's exact ``(sum_qty, count)`` (integers —
    quantities are integral), the correlated predicate evaluates
    ALL-INTEGER (``5 * qty * cnt < sum_qty`` ⟺ ``qty < 0.2 * avg`` —
    no float division, exact parity with the oracle), and only per-brand
    partial rows leave the partition for the tiny final groupby.  The
    brand lookup broadcasts the ``part`` dim once (``p_partkey →
    p_brand``, the gazetteer shape).

    Output: ``(p_brand, n_items, revenue_c)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts
    from nativeextractor_ray.sources.tables import load_table, read_table

    part_dim = load_table(sf_dir, "part", columns=["p_partkey", "p_brand"])
    pk = part_dim.column("p_partkey").to_numpy()
    porder = np.argsort(pk)
    part_side = ray.put((pk[porder],
                         part_dim.column("p_brand").take(
                             pa.array(porder)).combine_chunks()))

    n_parts = adaptive_parts(sf_dir, table="lineitem")
    items = read_table(sf_dir, "lineitem",
                       ["l_partkey", "l_quantity", "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        out = pa.table({
            "l_partkey": t.column("l_partkey"),
            "qty": pa.array(t.column("l_quantity").to_numpy()
                            .astype(np.int64)),
            "price_c": pa.array(
                np.floor(t.column("l_extendedprice").to_numpy() * 100.0
                         + 0.5).astype(np.int64)),
        })
        return out.append_column("part",
                                 stable_part(out, ["l_partkey"], n_parts))

    def resolve(df):
        import pandas as pd

        g = df.groupby("l_partkey")["qty"].agg(["sum", "count"])
        s = g["sum"].reindex(df["l_partkey"]).to_numpy()
        c = g["count"].reindex(df["l_partkey"]).to_numpy()
        keep = 5 * df["qty"].to_numpy() * c < s
        kept = df[keep]
        keys, brands = ray.get(part_side)
        bidx = np.searchsorted(keys, kept["l_partkey"].to_numpy())
        out = pd.DataFrame({
            "p_brand": brands.take(pa.array(bidx)).to_pandas(),
            "n_items": np.ones(len(kept), np.int64),
            "revenue_c": kept["price_c"].to_numpy(),
        })
        p = out.groupby("p_brand", as_index=False).agg(
            n_items=("n_items", "sum"), revenue_c=("revenue_c", "sum"))
        return p

    partials = (items.map_batches(prep, batch_format="pyarrow")
                .groupby("part").map_groups(resolve, batch_format="pandas"))
    return partials.groupby("p_brand").aggregate(
        Sum("n_items", alias_name="n_items"),
        Sum("revenue_c", alias_name="revenue_c"))


SMALL_ORDER_REVENUE_SQL = """WITH a AS (
  SELECT l_partkey,
         CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS s,
         CAST(count(*) AS BIGINT) AS c
  FROM lineitem GROUP BY l_partkey)
SELECT p.p_brand,
       CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(CAST(floor(l.l_extendedprice * 100.0 + 0.5) AS BIGINT))
            AS BIGINT) AS revenue_c
FROM lineitem l
JOIN a ON a.l_partkey = l.l_partkey
JOIN part p ON p.p_partkey = l.l_partkey
WHERE 5 * CAST(l.l_quantity AS BIGINT) * a.c < a.s
GROUP BY p.p_brand"""


# ------------------------------------------- LEFT OUTER join report


#: broadcast the per-order aggregate when under this encoded size;
#: above it, co-partitioned tagged-union merge (tests force 0)
FILL_ATTACH_BOUND = 64 << 20


def order_fill_report(sf_dir: str):
    """Per-order fulfillment report — the LEFT OUTER join shape: EVERY
    order appears once, with its line count and total quantity, zero-
    filled when no line items exist (the rows an inner join silently
    drops).

    Scale shape: ``lineitem`` reduces to per-order (n_items, sum_qty)
    int64 partials + one orderkey groupby (16-byte rows shuffle, never
    payloads); ``orders`` then streams through a size-gated attach —
    broadcast sorted arrays with a missing→0 probe under
    ``FILL_ATTACH_BOUND``, co-partitioned tagged-union LEFT merge above
    it.  The orders side never shuffles on the broadcast path.

    Output: ``(o_orderkey, o_orderstatus, n_items, sum_qty)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts
    from nativeextractor_ray.sources.tables import read_table, table_nrows

    items = read_table(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        tmp = pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "q": pa.array(t.column("l_quantity").to_numpy()
                          .astype(np.int64)),
            "one": pa.array(np.ones(t.num_rows, np.int64)),
        })
        g = tmp.group_by("l_orderkey").aggregate(
            [("one", "sum"), ("q", "sum")])
        return pa.table({
            "l_orderkey": g.column("l_orderkey"),
            "n_items": pc.cast(g.column("one_sum"), pa.int64()),
            "sum_qty": pc.cast(g.column("q_sum"), pa.int64()),
        })

    agg_schema = pa.schema([("l_orderkey", pa.int64()),
                            ("n_items", pa.int64()),
                            ("sum_qty", pa.int64())])

    def pin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        return t.select([f.name for f in agg_schema]).cast(agg_schema)

    # Gate on the ORDERS row count (metadata only): when the per-order
    # (key, n, qty) triple fits the driver bound, the rollup folds on
    # the driver straight from the RAW per-batch partials — the orderkey
    # groupby AllToAll disappears (the Q21 lesson); above it the groupby
    # runs and feeds the same size-gated attach.

    n_orders = table_nrows(sf_dir, "orders") if sf_dir else None
    driver_fold = (n_orders is not None
                   and n_orders * 24 <= FILL_ATTACH_BOUND)

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])

    if driver_fold:
        agg = None
    else:
        agg = (items.map_batches(partial, batch_format="pyarrow")
               .groupby("l_orderkey")
               .aggregate(Sum("n_items", alias_name="n_items"),
                          Sum("sum_qty", alias_name="sum_qty"))
               .map_batches(pin, batch_format="pyarrow"))

    if driver_fold or (agg.size_bytes() or 0) <= FILL_ATTACH_BOUND:
        ks, ns, qs = [], [], []
        src = (items.map_batches(partial, batch_format="pyarrow")
               if driver_fold else agg)
        for t in arrow_blocks(src, stream=False):
            ks.append(t.column("l_orderkey").to_numpy())
            ns.append(t.column("n_items").to_numpy())
            qs.append(t.column("sum_qty").to_numpy())
        if ks:
            k_all = np.concatenate(ks)
            kk, inv = np.unique(k_all, return_inverse=True)
            nn = np.zeros(len(kk), np.int64)
            qq = np.zeros(len(kk), np.int64)
            np.add.at(nn, inv, np.concatenate(ns))
            np.add.at(qq, inv, np.concatenate(qs))
        else:
            kk = nn = qq = np.array([], np.int64)
        side = ray.put((kk, nn, qq))  # np.unique output is key-sorted

        def probe(t: pa.Table) -> pa.Table:
            keys, nv, qv = ray.get(side)
            ok = t.column("o_orderkey").to_numpy()
            if len(keys) == 0:
                n_out = np.zeros(len(ok), np.int64)
                q_out = np.zeros(len(ok), np.int64)
            else:
                pos = np.searchsorted(keys, ok)
                hit = (pos < len(keys)) & (
                    keys[np.minimum(pos, len(keys) - 1)] == ok)
                pos = np.minimum(pos, len(keys) - 1)
                n_out = np.where(hit, nv[pos], 0)
                q_out = np.where(hit, qv[pos], 0)
            return pa.table({
                "o_orderkey": t.column("o_orderkey"),
                "o_orderstatus": t.column("o_orderstatus"),
                "n_items": pa.array(n_out),
                "sum_qty": pa.array(q_out),
            })

        return orders.map_batches(probe, batch_format="pyarrow")

    n_parts = adaptive_parts(sf_dir, table="orders")

    def tag_agg(t: pa.Table) -> pa.Table:
        out = pa.table({
            "k": t.column("l_orderkey"),
            "o_orderstatus": pa.array([""] * t.num_rows, pa.string()),
            "n_items": t.column("n_items"),
            "sum_qty": t.column("sum_qty"),
            "is_agg": pa.array(np.ones(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    def tag_ord(t: pa.Table) -> pa.Table:
        out = pa.table({
            "k": t.column("o_orderkey"),
            "o_orderstatus": t.column("o_orderstatus"),
            "n_items": pa.array(np.zeros(t.num_rows, np.int64)),
            "sum_qty": pa.array(np.zeros(t.num_rows, np.int64)),
            "is_agg": pa.array(np.zeros(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    at = agg.map_batches(tag_agg, batch_format="pyarrow")
    ot = orders.map_batches(tag_ord, batch_format="pyarrow")

    def resolve(df):
        import pandas as pd

        a = df[df["is_agg"]][["k", "n_items", "sum_qty"]]
        o = df[~df["is_agg"]][["k", "o_orderstatus"]]
        m = o.merge(a, on="k", how="left")
        return pd.DataFrame({
            "o_orderkey": m["k"].to_numpy(),
            "o_orderstatus": m["o_orderstatus"].to_numpy(),
            "n_items": m["n_items"].fillna(0).to_numpy(np.int64),
            "sum_qty": m["sum_qty"].fillna(0).to_numpy(np.int64),
        })

    return at.union(ot).groupby("part").map_groups(
        resolve, batch_format="pandas")


ORDER_FILL_REPORT_SQL = """SELECT o.o_orderkey, o.o_orderstatus,
       CAST(coalesce(a.n_items, 0) AS BIGINT) AS n_items,
       CAST(coalesce(a.sum_qty, 0) AS BIGINT) AS sum_qty
FROM orders o
LEFT JOIN (
  SELECT l_orderkey,
         CAST(count(*) AS BIGINT) AS n_items,
         CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
  FROM lineitem GROUP BY l_orderkey) a
ON a.l_orderkey = o.o_orderkey"""


# ------------------------------------------------ Q4 shape: EXISTS count

_Q4_PARTS = 64

#: driver-fold the per-order max-shipdate when orders × 16 B fits —
#: tests force 0 to drive the co-partitioned merge path
Q4_DRIVER_FOLD_BOUND = 64 << 20


def late_shipment_priority(sf_dir: str):
    """TPC-H Q4 shape — order-priority checking with a correlated EXISTS:
    per ``o_orderpriority``, how many orders have AT LEAST ONE lineitem
    shipped after the order date (``EXISTS (… WHERE l_orderkey =
    o_orderkey AND l_shipdate > o_orderdate)``).

    The EXISTS collapses algebraically: ``∃ l: ship > odate  ⟺
    max(ship) > odate`` — so lineitem reduces to per-order MAX partials
    inside each batch (16 bytes/row, dates as int64 µs) BEFORE its only
    shuffle, and the correlated subquery becomes one co-partitioned
    tagged-union merge keyed by ``hash(orderkey) % P`` (the
    ``_attach_order_dates`` merge shape).  Per-partition priority counts
    are partials; the final groupby sees ≤ 5·P rows.

    Output: ``(o_orderpriority, n_orders)``."""
    import pandas as pd
    import ray

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.sources.tables import read_table, table_nrows

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    od = read_table(sf_dir, "orders",
                    ["o_orderkey", "o_orderdate", "o_orderpriority"])

    # Gate on the ORDERS row count (metadata only): the per-order
    # max-shipdate fold is 16 B/order — under the bound it folds on the
    # driver (np.maximum.at) and broadcasts into a streaming orders
    # probe whose ≤5-row priority partials fold locally: ZERO AllToAll.
    n_orders = table_nrows(sf_dir, "orders") if sf_dir else None
    if n_orders is not None and n_orders * 16 <= Q4_DRIVER_FOLD_BOUND:
        def li_max(t: pa.Table) -> pa.Table:
            g = t.group_by("l_orderkey").aggregate([("l_shipdate", "max")])
            return pa.table({
                "k": pc.cast(g.column("l_orderkey"), pa.int64()),
                "date_us": pa.array(
                    g.column("l_shipdate_max").to_numpy()
                    .astype("datetime64[us]").view(np.int64))})

        ks, vs = [], []
        for t in arrow_blocks(li.map_batches(li_max,
                                             batch_format="pyarrow"),
                              stream=False):
            ks.append(t.column("k").to_numpy())
            vs.append(t.column("date_us").to_numpy())
        if ks:
            kk, inv = np.unique(np.concatenate(ks), return_inverse=True)
            mx = np.full(len(kk), np.iinfo(np.int64).min, np.int64)
            np.maximum.at(mx, inv, np.concatenate(vs))
        else:
            kk = mx = np.array([], np.int64)
        side = ray.put((kk, mx))

        def probe(t: pa.Table) -> pa.Table:
            keys, ship = ray.get(side)
            okn = t.column("o_orderkey").to_numpy()
            odate = (t.column("o_orderdate").to_numpy()
                     .astype("datetime64[us]").view(np.int64))
            if len(keys):
                pos = np.clip(np.searchsorted(keys, okn), 0,
                              len(keys) - 1)
                late = (keys[pos] == okn) & (ship[pos] > odate)
            else:
                late = np.zeros(len(okn), bool)
            sub = t.filter(pa.array(late))
            g = sub.group_by("o_orderpriority").aggregate(
                [("o_orderpriority", "count")])
            return pa.table({
                "o_orderpriority": g.column("o_orderpriority"),
                "n": pc.cast(g.column("o_orderpriority_count"),
                             pa.int64())})

        acc: dict[str, int] = {}
        for t in arrow_blocks(od.map_batches(probe,
                                             batch_format="pyarrow"),
                              stream=False):
            for p, n in zip(t.column("o_orderpriority").to_pylist(),
                            t.column("n").to_pylist()):
                acc[p] = acc.get(p, 0) + int(n)
        prios = sorted(acc)
        return pa.table({
            "o_orderpriority": pa.array(prios, pa.string()),
            "n_orders": pa.array([acc[p] for p in prios], pa.int64())})

    def li_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("l_orderkey").aggregate([("l_shipdate", "max")])
        out = pa.table({
            "k": pc.cast(g.column("l_orderkey"), pa.int64()),
            "date_us": pa.array(g.column("l_shipdate_max").to_numpy()
                                .astype("datetime64[us]").view(np.int64)),
            "prio": pa.array([""] * g.num_rows, pa.string()),
            "is_li": pa.array(np.ones(g.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], _Q4_PARTS))

    def od_tag(t: pa.Table) -> pa.Table:
        out = pa.table({
            "k": pc.cast(t.column("o_orderkey"), pa.int64()),
            "date_us": pa.array(t.column("o_orderdate").to_numpy()
                                .astype("datetime64[us]").view(np.int64)),
            "prio": t.column("o_orderpriority"),
            "is_li": pa.array(np.zeros(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], _Q4_PARTS))

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd_

        l = df[df["is_li"]]
        ship = l.groupby("k", sort=False)["date_us"].max()
        o = df[~df["is_li"]]
        m = o.merge(ship.rename("ship_us"), left_on="k",
                    right_index=True, how="inner")
        late = m[m["ship_us"] > m["date_us"]]
        g = late.groupby("prio", sort=False).size()
        return pd_.DataFrame({
            "o_orderpriority": g.index.to_numpy(object),
            "n_orders": g.to_numpy(np.int64)})

    both = (li.map_batches(li_partial, batch_format="pyarrow")
            .union(od.map_batches(od_tag, batch_format="pyarrow")))
    # the per-partition partials are ≤ 5 rows each — fold them on the
    # driver instead of a second AllToAll (the Q21 lesson)
    acc2: dict[str, int] = {}
    for t in arrow_blocks(both.groupby("part")
                          .map_groups(resolve, batch_format="pandas"),
                          stream=False):
        for p, n in zip(t.column("o_orderpriority").to_pylist(),
                        t.column("n_orders").to_pylist()):
            acc2[p] = acc2.get(p, 0) + int(n)
    prios2 = sorted(acc2)
    return pa.table({
        "o_orderpriority": pa.array(prios2, pa.string()),
        "n_orders": pa.array([acc2[p] for p in prios2], pa.int64())})


def late_shipment_priority_sql() -> str:
    return """SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_shipdate > o.o_orderdate)
GROUP BY o_orderpriority"""


# --------------------------------------------- Q14 shape: promo share


def promo_revenue_share(sf_dir: str):
    """TPC-H Q14 shape — promotion effect by ship month: the share of
    lineitem revenue attributable to promotional parts, per calendar
    month of ``l_shipdate``.

    Scale shape: the part dimension collapses to ONE broadcast boolean
    array indexed by partkey (``ray.put`` once — the
    :func:`orders_by_nation` dense-array probe); lineitem streams
    through a single ``map_batches`` pass that folds each batch to ≤
    months rows of integer-cents partials (revenue with the repo's
    half-up ``floor(x·100 + 0.5)`` rule); one tiny month groupby; the
    share is an EXACT half-up micro ratio ``(2·promo·10⁶ + total) //
    (2·total)`` — integer arithmetic end to end, no float parity risk.

    Output: ``(month, promo_rev_c, total_rev_c, promo_share_micro)``
    with month as 'YYYY-MM'."""
    import ray

    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import load_table, read_table

    part = load_table(sf_dir, "part", columns=["p_partkey", "p_type"])
    promo = _key_index(part.column("p_partkey"),
                       pc.starts_with(part.column("p_type"), "PROMO"), False)
    side = ray.put(promo)

    li = read_table(sf_dir, "lineitem",
                    ["l_partkey", "l_extendedprice", "l_discount",
                     "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        flags = ray.get(side)
        rev = np.floor(
            t.column("l_extendedprice").to_numpy()
            * (1.0 - t.column("l_discount").to_numpy()) * 100.0
            + 0.5).astype(np.int64)
        is_p = flags[t.column("l_partkey").to_numpy()]
        d = t.column("l_shipdate").to_numpy().astype("datetime64[M]")
        month = np.datetime_as_string(d, unit="M")
        g = pa.table({
            "month": pa.array(month, pa.string()),
            "promo_rev_c": pa.array(np.where(is_p, rev, 0), pa.int64()),
            "total_rev_c": pa.array(rev, pa.int64()),
        }).group_by("month").aggregate([("promo_rev_c", "sum"),
                                        ("total_rev_c", "sum")])
        return pa.table({
            "month": g.column("month"),
            "promo_rev_c": g.column("promo_rev_c_sum"),
            "total_rev_c": g.column("total_rev_c_sum")})

    agg = (li.map_batches(partial, batch_format="pyarrow")
           .groupby("month")
           .aggregate(Sum("promo_rev_c", alias_name="promo_rev_c"),
                      Sum("total_rev_c", alias_name="total_rev_c")))

    def share(t: pa.Table) -> pa.Table:
        p = t.column("promo_rev_c").to_numpy()
        tot = t.column("total_rev_c").to_numpy()
        sh = (2 * p * 1_000_000 + tot) // (2 * tot)  # total ≥ 1 cent/month
        return t.append_column("promo_share_micro", pa.array(sh, pa.int64()))

    return agg.map_batches(share, batch_format="pyarrow")


def promo_revenue_share_sql() -> str:
    return """WITH li AS (
  SELECT strftime(l_shipdate, '%Y-%m') AS month,
         CAST(floor(l_extendedprice * (1.0 - l_discount) * 100.0 + 0.5)
              AS BIGINT) AS rev_c,
         p.p_type LIKE 'PROMO%' AS is_promo
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey),
agg AS (
  SELECT month,
         CAST(sum(CASE WHEN is_promo THEN rev_c ELSE 0 END) AS BIGINT)
           AS promo_rev_c,
         CAST(sum(rev_c) AS BIGINT) AS total_rev_c
  FROM li GROUP BY month)
SELECT month, promo_rev_c, total_rev_c,
       CAST((2 * promo_rev_c * 1000000 + total_rev_c)
            // (2 * total_rev_c) AS BIGINT) AS promo_share_micro
FROM agg"""


# ------------------------------- scalar-subquery + anti-join (Q22 shape)


Q22_PRIORITY = "1-URGENT"


def idle_customer_balance(sf_dir: str, priority: str = Q22_PRIORITY):
    """TPC-H Q22-shaped composition: per-nation count + total balance of
    customers whose balance is strictly above the global average positive
    balance AND who never placed a ``priority`` order — a scalar
    subquery feeding a filter feeding a NOT EXISTS.

    Scale shape, in pipeline order:

    - the scalar threshold is a streaming pass over ``customer`` pruned
      to one column: per-batch int64 ``(sum positive cents, count)``
      partials, folded on the driver (bounded — one row per block).
      Balances compare ALL-INTEGER against it (``bal_c * count > sum``
      ⟺ ``bal > avg``; no float division, exact oracle parity).
    - the above-average gate runs map-side BEFORE the anti join, so the
      expensive leg only sees the filtered minority.
    - NOT EXISTS is :func:`semi_anti_join` (anti=True) against the
      priority-filtered DISTINCT ``o_custkey`` side: size-gated broadcast
      sorted-array probe, co-partitioned merge above the bound.
    - the rollup is per-batch ``(nationkey → count, sum)`` partials →
      one 25-key groupby; nation names attach from a driver-side
      25-row map.

    Output: ``(n_name, n_custs, total_bal_c)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import load_table, read_table

    # scalar threshold: one pruned streaming pass, bounded partials
    bal_only = read_table(sf_dir, "customer", ["c_acctbal"])

    def thr_partial(t: pa.Table) -> pa.Table:
        bal_c = np.floor(t.column("c_acctbal").to_numpy() * 100.0
                         + 0.5).astype(np.int64)
        pos = bal_c > 0
        return pa.table({"s": pa.array([int(bal_c[pos].sum())]),
                         "c": pa.array([int(pos.sum())])})

    thr_s = thr_c = 0
    for b in arrow_blocks(bal_only.map_batches(thr_partial,
                                               batch_format="pyarrow"),
                          stream=False):
        thr_s += int(pc.sum(b.column("s")).as_py() or 0)
        thr_c += int(pc.sum(b.column("c")).as_py() or 0)

    cust = read_table(sf_dir, "customer",
                      ["c_custkey", "c_nationkey", "c_acctbal"])

    def gate(t: pa.Table) -> pa.Table:
        bal_c = np.floor(t.column("c_acctbal").to_numpy() * 100.0
                         + 0.5).astype(np.int64)
        keep = bal_c * thr_c > thr_s
        return pa.table({
            "c_custkey": pa.array(
                t.column("c_custkey").to_numpy()[keep]),
            "c_nationkey": pa.array(
                t.column("c_nationkey").to_numpy()[keep]),
            "bal_c": pa.array(bal_c[keep]),
        })

    ok = read_table(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def prio_keys(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("o_orderpriority"), priority)
        return pa.table({"o_custkey": t.filter(m).column("o_custkey")})

    idle = semi_anti_join(
        cust.map_batches(gate, batch_format="pyarrow"),
        ok.map_batches(prio_keys, batch_format="pyarrow"),
        "c_custkey", anti=True, sf_dir=sf_dir)

    def rollup(t: pa.Table) -> pa.Table:
        import pandas as pd

        nk = t.column("c_nationkey").to_numpy()
        g = pd.DataFrame({"nk": nk, "bal": t.column("bal_c").to_numpy()}) \
            .groupby("nk", sort=False).agg(n=("bal", "size"),
                                           s=("bal", "sum"))
        return pa.table({
            "nk": pa.array(g.index.to_numpy(np.int64)),
            "n_custs": pa.array(g["n"].to_numpy(np.int64)),
            "total_bal_c": pa.array(g["s"].to_numpy(np.int64)),
        })

    nat = load_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    names = dict(zip(nat.column("n_nationkey").to_pylist(),
                     nat.column("n_name").to_pylist()))
    name_ref = ray.put(names)

    def to_names(t: pa.Table) -> pa.Table:
        nm = ray.get(name_ref)
        return pa.table({
            "n_name": pa.array([nm[k] for k in t.column("nk").to_pylist()],
                               pa.string()),
            "n_custs": t.column("n_custs"),
            "total_bal_c": t.column("total_bal_c"),
        })

    return (idle.map_batches(rollup, batch_format="pyarrow")
            .groupby("nk")
            .aggregate(Sum("n_custs", alias_name="n_custs"),
                       Sum("total_bal_c", alias_name="total_bal_c"))
            .map_batches(to_names, batch_format="pyarrow"))


def idle_customer_balance_sql(priority: str = Q22_PRIORITY) -> str:
    return f"""WITH b AS (
  SELECT c_custkey, c_nationkey,
         CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT) AS bal_c
  FROM customer),
thr AS (
  SELECT CAST(sum(bal_c) AS BIGINT) AS s, CAST(count(*) AS BIGINT) AS c
  FROM b WHERE bal_c > 0)
SELECT n.n_name,
       CAST(count(*) AS BIGINT) AS n_custs,
       CAST(sum(b.bal_c) AS BIGINT) AS total_bal_c
FROM b JOIN nation n ON n.n_nationkey = b.c_nationkey, thr
WHERE b.bal_c * thr.c > thr.s
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = b.c_custkey
                    AND o.o_orderpriority = '{priority}')
GROUP BY n.n_name"""


# -------------------------------- argmin-per-group join-back (Q2 shape)


Q2_BRAND = "Brand#4"


def min_cost_supplier(sf_dir: str, brand: str = Q2_BRAND):
    """TPC-H Q2-shaped argmin join-back: for every part of one brand,
    the supplier(s) whose line item carries the MINIMUM extended price —
    "the row achieving its group's aggregate", the shape a bare groupby
    cannot express without rejoining the fact.

    Scale shape: the brand's part keys broadcast once as a sorted int64
    array and prune ``lineitem`` MAP-SIDE (vectorized semijoin probe —
    the trie-probe shape), so only the brand's slice ever shuffles.
    That slice co-partitions ONCE by ``hash(partkey)``; because a part's
    rows are then co-located, the min, the equality join-back AND the
    ``(part, supplier)`` dedup all resolve inside the partition with a
    vectorized transform — nothing rejoins across partitions, nothing
    returns to the driver.  Supplier names attach from a broadcast
    ``suppkey → name`` dim (one ``ray.put``).

    Output: ``(p_partkey, min_price_c, s_suppkey, s_name)`` — one row
    per (part, cheapest supplier), ties kept like the oracle."""
    import ray

    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts
    from nativeextractor_ray.sources.tables import load_table, read_table

    part_dim = load_table(sf_dir, "part", columns=["p_partkey", "p_brand"])
    bkeys = np.sort(part_dim.filter(
        pc.equal(part_dim.column("p_brand"), brand))
        .column("p_partkey").to_numpy())

    sup = load_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    sk = sup.column("s_suppkey").to_numpy()
    sorder = np.argsort(sk)
    side = ray.put((bkeys, sk[sorder],
                    sup.column("s_name").take(pa.array(sorder))
                    .combine_chunks()))

    n_parts = adaptive_parts(sf_dir, table="lineitem")
    items = read_table(sf_dir, "lineitem",
                       ["l_partkey", "l_suppkey", "l_extendedprice"])

    def prune(t: pa.Table) -> pa.Table:
        keys, _sk, _sn = ray.get(side)
        lk = t.column("l_partkey").to_numpy()
        if len(keys):
            pos = np.searchsorted(keys, lk)
            hit = (pos < len(keys)) & (
                keys[np.minimum(pos, len(keys) - 1)] == lk)
        else:
            hit = np.zeros(len(lk), bool)
        out = pa.table({
            "l_partkey": pa.array(lk[hit]),
            "l_suppkey": pa.array(t.column("l_suppkey").to_numpy()[hit]),
            "price_c": pa.array(
                np.floor(t.column("l_extendedprice").to_numpy()[hit]
                         * 100.0 + 0.5).astype(np.int64)),
        })
        return out.append_column(
            "part", stable_part(out, ["l_partkey"], n_parts))

    def resolve(df):
        import pandas as pd

        lo = df.groupby("l_partkey")["price_c"].transform("min")
        kept = df[df["price_c"].to_numpy() == lo.to_numpy()]
        kept = kept.drop_duplicates(["l_partkey", "l_suppkey"])
        _keys, skeys, snames = ray.get(side)
        sidx = np.searchsorted(skeys, kept["l_suppkey"].to_numpy())
        return pd.DataFrame({
            "p_partkey": kept["l_partkey"].to_numpy(np.int64),
            "min_price_c": kept["price_c"].to_numpy(np.int64),
            "s_suppkey": kept["l_suppkey"].to_numpy(np.int64),
            "s_name": snames.take(pa.array(sidx)).to_pandas(),
        })

    return (items.map_batches(prune, batch_format="pyarrow")
            .groupby("part").map_groups(resolve, batch_format="pandas"))


def min_cost_supplier_sql(brand: str = Q2_BRAND) -> str:
    return f"""WITH li AS (
  SELECT l.l_partkey, l.l_suppkey,
         CAST(floor(l.l_extendedprice * 100.0 + 0.5) AS BIGINT) AS price_c
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  WHERE p.p_brand = '{brand}'),
m AS (SELECT l_partkey, min(price_c) AS min_price_c FROM li
      GROUP BY l_partkey)
SELECT DISTINCT li.l_partkey AS p_partkey, m.min_price_c,
       li.l_suppkey AS s_suppkey, s.s_name
FROM li
JOIN m ON m.l_partkey = li.l_partkey AND li.price_c = m.min_price_c
JOIN supplier s ON s.s_suppkey = li.l_suppkey"""


# ---------------------------- disjunctive predicate arms (Q19 shape)


#: (arm, brand, size_lo, size_hi, qty_lo, qty_hi) — OR-of-ANDs arms
Q19_ARMS = [
    ("small", "Brand#4", 1, 15, 1, 20),
    ("medium", "Brand#19", 10, 30, 10, 30),
    ("large", "Brand#2", 20, 50, 20, 50),
]


def disjunctive_revenue(sf_dir: str, arms=None):
    """TPC-H Q19-shaped disjunctive-predicate scan: revenue under an OR
    of (brand AND size range AND quantity range) arms, reported per arm.
    The shape: a multi-arm disjunction over fact × dim attributes that
    resolves ENTIRELY map-side — zero fact shuffle.

    Scale shape: the ``part`` attributes broadcast once as parallel
    sorted arrays (``partkey → (brand id, size)``, one ``ray.put``);
    every ``lineitem`` batch probes them with one ``np.searchsorted``
    and evaluates every arm as a vectorized boolean mask, emitting ≤
    len(arms) partial count/revenue rows.  The final groupby moves
    blocks × arms tiny rows.  An arm is an independent mask, NOT an
    exclusive bucket — a line can satisfy two arms and counts in both,
    exactly like the oracle's UNION ALL.

    Output: ``(arm, n_items, revenue_c)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import load_table, read_table

    arms = list(arms or Q19_ARMS)
    part_dim = load_table(sf_dir, "part",
                          columns=["p_partkey", "p_brand", "p_size"])
    pk = part_dim.column("p_partkey").to_numpy()
    order = np.argsort(pk)
    brands = sorted({a[1] for a in arms})
    bid = {b: i for i, b in enumerate(brands)}
    bcol = np.array([bid.get(b, -1) for b in
                     part_dim.column("p_brand").to_pylist()],
                    np.int64)[order]
    side = ray.put((pk[order], bcol,
                    part_dim.column("p_size").to_numpy()
                    .astype(np.int64)[order]))
    arm_specs = [(name, bid[b], slo, shi, qlo, qhi)
                 for name, b, slo, shi, qlo, qhi in arms]

    items = read_table(sf_dir, "lineitem",
                       ["l_partkey", "l_quantity", "l_extendedprice",
                        "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        keys, bids, sizes = ray.get(side)
        lk = t.column("l_partkey").to_numpy()
        if len(keys) == 0:  # empty part table: every probe misses
            b = np.full(len(lk), -2, np.int64)
            s = np.full(len(lk), -1, np.int64)
        else:
            idx = np.searchsorted(keys, lk)
            idx = np.minimum(idx, len(keys) - 1)
            ok = keys[idx] == lk
            b = np.where(ok, bids[idx], -2)
            s = np.where(ok, sizes[idx], -1)
        # half-up, matching the oracle's floor(q + 0.5) — a plain
        # astype(int64) truncates toward zero while DuckDB's CAST rounds
        qty = np.floor(t.column("l_quantity").to_numpy()
                       + 0.5).astype(np.int64)
        rev = np.floor(t.column("l_extendedprice").to_numpy()
                       * (1.0 - t.column("l_discount").to_numpy())
                       * 100.0 + 0.5).astype(np.int64)
        names, counts, revs = [], [], []
        for name, abid, slo, shi, qlo, qhi in arm_specs:
            m = ((b == abid) & (s >= slo) & (s <= shi)
                 & (qty >= qlo) & (qty <= qhi))
            if m.any():
                names.append(name)
                counts.append(int(m.sum()))
                revs.append(int(rev[m].sum()))
        return pa.table({
            "arm": pa.array(names, pa.string()),
            "n_items": pa.array(counts, pa.int64()),
            "revenue_c": pa.array(revs, pa.int64()),
        })

    return (items.map_batches(partial, batch_format="pyarrow")
            .groupby("arm")
            .aggregate(Sum("n_items", alias_name="n_items"),
                       Sum("revenue_c", alias_name="revenue_c")))


def disjunctive_revenue_sql(arms=None) -> str:
    arms = list(arms or Q19_ARMS)
    # each leg is an ungrouped aggregate, so DuckDB emits one
    # (arm, 0, NULL) row for an arm matching zero rows while the Ray
    # path's groupby omits the arm — wrap every leg to drop empty arms
    # (the same guard audience_overlap_sql applies with n_users > 0);
    # quantity is half-up floor(q + 0.5) to mirror the Ray path exactly
    legs = [f"""SELECT * FROM (SELECT '{name}' AS arm,
       CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount)
                           * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
         AS revenue_c
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
WHERE p.p_brand = '{brand}' AND p.p_size BETWEEN {slo} AND {shi}
  AND CAST(floor(l.l_quantity + 0.5) AS BIGINT) BETWEEN {qlo} AND {qhi}
) WHERE n_items > 0"""
            for name, brand, slo, shi, qlo, qhi in arms]
    return "\nUNION ALL\n".join(legs)


# -------------------------- cross-nation trade volume (Q7 shape)


Q7_NATION_A = "NATION_3"
Q7_NATION_B = "NATION_8"

#: driver-fold the pruned (orderkey, cust_nation) side when orders × 16 B
#: fits; tests force 0 to drive the co-partitioned exchange
Q7_DRIVER_FOLD_BOUND = 64 << 20


def nation_trade_volume(sf_dir: str, nation_a: str = Q7_NATION_A,
                        nation_b: str = Q7_NATION_B):
    """TPC-H Q7-shaped cross-nation volume: revenue shipped between two
    nations (supplier in one, customer in the other, both directions),
    per (supp_nation, cust_nation, ship year) — the two-big-facts join
    where BOTH sides carry a dimension attribute resolved before the
    exchange.

    Scale shape (the :func:`local_supplier_volume` exchange, different
    predicate algebra):

    - supplier and customer collapse map-side to broadcast
      ``key → nationkey`` int arrays; only rows whose nation is one of
      the TWO targets survive the prune, so both fact projections are
      minority slices before anything moves;
    - ``orders`` ships ``(orderkey, cust_nation)``, ``lineitem`` ships
      ``(orderkey, supp_nation, ship year, revenue cents)`` into ONE
      co-partitioned tagged-union hash exchange on orderkey;
    - in-partition the cross predicate (``supp ≠ cust``, both ∈ {a, b})
      and the (sn, cn, year) rollup resolve vectorized, so ≤ 2·years
      partial rows leave each partition for the final groupby.

    Output: ``(supp_nation, cust_nation, l_year, revenue_c)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts
    from nativeextractor_ray.sources.tables import load_table, read_table, table_nrows

    nat = load_table(sf_dir, "nation")
    key_of = {r["n_name"]: r["n_nationkey"] for r in nat.to_pylist()}
    ka, kb = key_of[nation_a], key_of[nation_b]
    names = {ka: nation_a, kb: nation_b}

    sup = load_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    cust = load_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    s2n = _key_index(sup.column("s_suppkey"), sup.column("s_nationkey"), -1)
    c2n = _key_index(cust.column("c_custkey"), cust.column("c_nationkey"), -1)
    side = ray.put((s2n, c2n))

    n_parts = adaptive_parts(sf_dir, table="lineitem")
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def prune_orders(t: pa.Table) -> pa.Table:
        _s, c2n_ = ray.get(side)
        cn = c2n_[t.column("o_custkey").to_numpy()]
        keep = (cn == ka) | (cn == kb)
        out = pa.table({
            "k": pa.array(t.column("o_orderkey").to_numpy()[keep]),
            "nation": pa.array(cn[keep]),
            "year": pa.array(np.zeros(int(keep.sum()), np.int64)),
            "rev_c": pa.array(np.zeros(int(keep.sum()), np.int64)),
            "is_ord": pa.array(np.ones(int(keep.sum()), bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount", "l_shipdate"])

    def prune_items(t: pa.Table) -> pa.Table:
        s2n_, _c = ray.get(side)
        sn = s2n_[t.column("l_suppkey").to_numpy()]
        keep = (sn == ka) | (sn == kb)
        ep = t.column("l_extendedprice").to_numpy()[keep]
        disc = t.column("l_discount").to_numpy()[keep]
        yr = (t.column("l_shipdate").to_numpy()[keep]
              .astype("datetime64[Y]").astype(np.int64) + 1970)
        out = pa.table({
            "k": pa.array(t.column("l_orderkey").to_numpy()[keep]),
            "nation": pa.array(sn[keep]),
            "year": pa.array(yr),
            "rev_c": pa.array(np.floor(ep * (1.0 - disc) * 100.0 + 0.5)
                              .astype(np.int64)),
            "is_ord": pa.array(np.zeros(int(keep.sum()), bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    def join_part(df):
        import pandas as pd

        o = df[df["is_ord"]][["k", "nation"]].rename(
            columns={"nation": "cn"})
        l = df[~df["is_ord"]][["k", "nation", "year", "rev_c"]].rename(
            columns={"nation": "sn"})
        m = l.merge(o, on="k", how="inner")
        m = m[m["cn"] != m["sn"]]
        g = (m.groupby(["sn", "cn", "year"], sort=False)["rev_c"].sum()
             .reset_index())
        return pd.DataFrame({
            "sn": g["sn"].to_numpy(np.int64),
            "cn": g["cn"].to_numpy(np.int64),
            "l_year": g["year"].to_numpy(np.int64),
            "rev_c": g["rev_c"].to_numpy(np.int64)})

    def _finish(acc: dict) -> pa.Table:
        ks = sorted(acc)
        return pa.table({
            "supp_nation": pa.array([names[k[0]] for k in ks],
                                    pa.string()),
            "cust_nation": pa.array([names[k[1]] for k in ks],
                                    pa.string()),
            "l_year": pa.array([k[2] for k in ks], pa.int64()),
            "revenue_c": pa.array([acc[k] for k in ks], pa.int64())})

    # Gate on the ORDERS row count (metadata only): the pruned
    # (orderkey, cust_nation) side is ≤16 B/order — under the bound it
    # collects once, broadcasts sorted, and lineitem streams through a
    # probe whose ≤2·years rollup partials fold on the driver: ZERO
    # AllToAll.  A pytest forces bound=0 onto the exchange path.
    from nativeextractor_ray.functions.blocks import arrow_blocks

    n_orders = table_nrows(sf_dir, "orders") if sf_dir else None
    if n_orders is not None and n_orders * 16 <= Q7_DRIVER_FOLD_BOUND:
        oks, cns = [], []
        for t in arrow_blocks(
                orders.map_batches(prune_orders, batch_format="pyarrow"),
                stream=False):
            oks.append(t.column("k").to_numpy())
            cns.append(t.column("nation").to_numpy())
        ok_ = np.concatenate(oks) if oks else np.array([], np.int64)
        cn_ = np.concatenate(cns) if cns else np.array([], np.int64)
        oorder = np.argsort(ok_)
        oside = ray.put((ok_[oorder], cn_[oorder]))

        def probe_items(t: pa.Table) -> pa.Table:
            keys, cn = ray.get(oside)
            lk = t.column("k").to_numpy()
            sn = t.column("nation").to_numpy()
            yr = t.column("year").to_numpy()
            rv = t.column("rev_c").to_numpy()
            if len(keys):
                pos = np.clip(np.searchsorted(keys, lk), 0,
                              len(keys) - 1)
                keep = (keys[pos] == lk) & (cn[pos] != sn)
                cnk = cn[pos]
            else:
                keep = np.zeros(len(lk), bool)
                cnk = np.zeros(len(lk), np.int64)
            packed = (sn[keep] * 2_000_000 + cnk[keep] * 40_000
                      + yr[keep])
            uniq, inv = np.unique(packed, return_inverse=True)
            acc_ = np.zeros(len(uniq), np.int64)
            np.add.at(acc_, inv, rv[keep])
            return pa.table({"key": pa.array(uniq),
                             "rev_c": pa.array(acc_)})

        acc: dict = {}
        for t in arrow_blocks(
                items.map_batches(prune_items, batch_format="pyarrow")
                .map_batches(probe_items, batch_format="pyarrow"),
                stream=False):
            for p, v in zip(t.column("key").to_pylist(),
                            t.column("rev_c").to_pylist()):
                k = (p // 2_000_000, (p // 40_000) % 50, p % 40_000)
                acc[k] = acc.get(k, 0) + int(v)
        return _finish(acc)

    both = (orders.map_batches(prune_orders, batch_format="pyarrow")
            .union(items.map_batches(prune_items, batch_format="pyarrow")))

    # per-partition partials are ≤ 2·years rows each — driver fold
    # instead of a second AllToAll (the Q21 lesson)
    acc2: dict = {}
    for t in arrow_blocks(
            both.groupby("part").map_groups(join_part,
                                            batch_format="pandas"),
            stream=False):
        for s, c, y, v in zip(t.column("sn").to_pylist(),
                              t.column("cn").to_pylist(),
                              t.column("l_year").to_pylist(),
                              t.column("rev_c").to_pylist()):
            k = (int(s), int(c), int(y))
            acc2[k] = acc2.get(k, 0) + int(v)
    return _finish(acc2)


def nation_trade_volume_sql(nation_a: str = Q7_NATION_A,
                            nation_b: str = Q7_NATION_B) -> str:
    return f"""SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       CAST(year(l.l_shipdate) AS BIGINT) AS l_year,
       CAST(sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount)
                           * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
         AS revenue_c
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation ns ON ns.n_nationkey = s.s_nationkey
JOIN nation nc ON nc.n_nationkey = c.c_nationkey
WHERE ((ns.n_name = '{nation_a}' AND nc.n_name = '{nation_b}')
    OR (ns.n_name = '{nation_b}' AND nc.n_name = '{nation_a}'))
GROUP BY 1, 2, 3"""


# ----------------------- returned-item revenue join-back (Q10 shape)


Q10_DATE_LO = "1996-01-01"
Q10_DATE_HI = "1996-04-01"
Q10_K = 20
#: broadcast the quarter-pruned (orderkey, custkey) map when under this
#: bound; above it, both sides co-partition (tests force 0)
Q10_ATTACH_BOUND = 64 << 20


def returned_item_revenue(sf_dir: str, date_lo: str = Q10_DATE_LO,
                          date_hi: str = Q10_DATE_HI, k: int = Q10_K):
    """TPC-H Q10 shape — top-k customers by revenue lost to returned
    items (``l_returnflag = 'R'``) on orders placed in a quarter, with
    customer attributes joined BACK onto the aggregate.

    Scale shape:

    - lineitem prunes to returned lines and pre-sums integer-cents
      revenue PER ORDERKEY inside each batch (Arrow group_by combiner),
      so only ``(orderkey, rev_c)`` partials move;
    - the quarter-pruned ``orderkey → custkey`` map is SIZE-GATED (the
      :func:`_attach_order_dates` convention): under
      ``Q10_ATTACH_BOUND`` it broadcasts as one sorted array pair and
      lineitem partials resolve their custkey map-side — ZERO orderkey
      exchange; above the bound both sides co-partition through ONE
      tagged-union hash exchange (tests force 0, both paths
      bit-identical);
    - after the custkey groupby, each block keeps only its LOCAL top-k
      (per-block combiner) before the global ``sort().limit(k)`` — the
      driver-side sort sees ≤ k·blocks rows, never |customers|;
    - customer attributes and nation names attach to the ≤ k winners
      via one broadcast probe (sorted custkey arrays, ``ray.put`` once).

    Deterministic tie-break: revenue desc, then custkey asc (both
    engines).  Output: ``(c_custkey, c_name, n_name, c_acctbal_c,
    revenue_c)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts
    from nativeextractor_ray.sources.tables import load_table, read_table

    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")

    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"])

    def quarter(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate").to_numpy()
        keep = (d >= lo) & (d < hi)
        return pa.table({
            "k": pa.array(t.column("o_orderkey").to_numpy()[keep]),
            "cust": pa.array(t.column("o_custkey").to_numpy()[keep]),
        })

    kd = orders.map_batches(quarter, batch_format="pyarrow")

    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_returnflag", "l_extendedprice",
                        "l_discount"])

    def rev_partial(t: pa.Table) -> pa.Table:
        keep = np.asarray(pc.equal(t.column("l_returnflag"), "R"))
        rev = np.floor(t.column("l_extendedprice").to_numpy()[keep]
                       * (1.0 - t.column("l_discount").to_numpy()[keep])
                       * 100.0 + 0.5).astype(np.int64)
        g = pa.table({
            "k": pa.array(t.column("l_orderkey").to_numpy()[keep]),
            "rev_c": pa.array(rev, pa.int64()),
        }).group_by("k").aggregate([("rev_c", "sum")])
        return pa.table({"k": g.column("k"),
                         "rev_c": g.column("rev_c_sum")})

    rev = items.map_batches(rev_partial, batch_format="pyarrow")

    if (kd.size_bytes() or 0) <= Q10_ATTACH_BOUND:
        ks, cs = [], []
        for t in arrow_blocks(kd, stream=False):
            ks.append(t.column("k").to_numpy())
            cs.append(t.column("cust").to_numpy())
        kk = np.concatenate(ks) if ks else np.array([], np.int64)
        cc = np.concatenate(cs) if cs else np.array([], np.int64)
        order_k = np.argsort(kk)
        side0 = ray.put((kk[order_k], cc[order_k]))

        def probe(t: pa.Table) -> pa.Table:
            keys, custs = ray.get(side0)
            lk = t.column("k").to_numpy()
            if len(keys) == 0:
                hit = np.zeros(len(lk), bool)
            else:
                pos = np.searchsorted(keys, lk)
                hit = (pos < len(keys)) & (
                    keys[np.minimum(pos, len(keys) - 1)] == lk)
            g = pa.table({
                "c_custkey": pa.array(
                    custs[np.searchsorted(keys, lk[hit])]
                    if hit.any() else np.array([], np.int64), pa.int64()),
                "revenue_c": pa.array(t.column("rev_c").to_numpy()[hit],
                                      pa.int64()),
            }).group_by("c_custkey").aggregate([("revenue_c", "sum")])
            return pa.table({"c_custkey": g.column("c_custkey"),
                             "revenue_c": g.column("revenue_c_sum")})

        per_cust = (rev.map_batches(probe, batch_format="pyarrow")
                    .groupby("c_custkey")
                    .aggregate(Sum("revenue_c", alias_name="revenue_c")))
    else:
        n_parts = adaptive_parts(sf_dir, table="lineitem")

        def tag_ord(t: pa.Table) -> pa.Table:
            out = pa.table({
                "k": t.column("k"),
                "cust": t.column("cust"),
                "rev_c": pa.array(np.zeros(t.num_rows, np.int64)),
                "is_ord": pa.array(np.ones(t.num_rows, bool)),
            })
            return out.append_column(
                "part", stable_part(out, ["k"], n_parts))

        def tag_rev(t: pa.Table) -> pa.Table:
            out = pa.table({
                "k": t.column("k"),
                "cust": pa.array(np.zeros(t.num_rows, np.int64)),
                "rev_c": t.column("rev_c"),
                "is_ord": pa.array(np.zeros(t.num_rows, bool)),
            })
            return out.append_column(
                "part", stable_part(out, ["k"], n_parts))

        def join_part(df):
            import pandas as pd

            o = df[df["is_ord"]][["k", "cust"]]
            l = df[~df["is_ord"]][["k", "rev_c"]]
            m = l.merge(o, on="k", how="inner")
            g = (m.groupby("cust", sort=False)["rev_c"].sum()
                 .reset_index())
            return pd.DataFrame({
                "c_custkey": g["cust"].to_numpy(np.int64),
                "revenue_c": g["rev_c"].to_numpy(np.int64)})

        both = (kd.map_batches(tag_ord, batch_format="pyarrow")
                .union(rev.map_batches(tag_rev, batch_format="pyarrow")))
        per_cust = (both.groupby("part").map_groups(
            join_part, batch_format="pandas")
            .groupby("c_custkey")
            .aggregate(Sum("revenue_c", alias_name="revenue_c")))

    def local_topk(t: pa.Table) -> pa.Table:
        idx = np.lexsort((t.column("c_custkey").to_numpy(),
                          -t.column("revenue_c").to_numpy()))[:k]
        return t.take(idx)

    top = (per_cust.map_batches(local_topk, batch_format="pyarrow")
           .sort(["revenue_c", "c_custkey"], descending=[True, False])
           .limit(k))

    # the winner set is ≤ k rows by construction — collect it and attach
    # the customer/nation attributes on the driver (one probe against a
    # locally-read dimension), returning a plain Arrow table; keeping the
    # attach in a post-limit map_batches would let the aggregate's empty
    # pandas partition blocks pass through unconverted (arrow_blocks
    # hazard) into the comparator
    from nativeextractor_ray.functions.blocks import arrow_blocks

    parts = list(arrow_blocks(top, stream=False))
    t = (pa.concat_tables(parts, promote_options="default") if parts
         else pa.table({"c_custkey": pa.array([], pa.int64()),
                        "revenue_c": pa.array([], pa.int64())}))

    cust = load_table(sf_dir, "customer",
                      columns=["c_custkey", "c_name", "c_nationkey",
                               "c_acctbal"])
    nat = load_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    ck = cust.column("c_custkey").to_numpy()
    order_ = np.argsort(ck)
    keys = ck[order_]
    names = np.asarray(cust.column("c_name").to_pylist(), object)[order_]
    nkeys = cust.column("c_nationkey").to_numpy().astype(np.int64)[order_]
    bal_c = np.floor(cust.column("c_acctbal").to_numpy() * 100.0
                     + 0.5).astype(np.int64)[order_]
    nmap = {r["n_nationkey"]: r["n_name"] for r in nat.to_pylist()}

    v = t.column("c_custkey").to_numpy()
    pos = np.searchsorted(keys, v) if len(keys) else np.array([], np.int64)
    return pa.table({
        "c_custkey": t.column("c_custkey"),
        "c_name": pa.array([str(names[p]) for p in pos], pa.string()),
        "n_name": pa.array([nmap[int(nkeys[p])] for p in pos], pa.string()),
        "c_acctbal_c": pa.array(bal_c[pos] if len(pos) else [], pa.int64()),
        "revenue_c": t.column("revenue_c"),
    })


def returned_item_revenue_sql(date_lo: str = Q10_DATE_LO,
                              date_hi: str = Q10_DATE_HI,
                              k: int = Q10_K) -> str:
    return f"""SELECT c.c_custkey, c.c_name, n.n_name,
       CAST(floor(c.c_acctbal * 100.0 + 0.5) AS BIGINT) AS c_acctbal_c,
       CAST(sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount)
                           * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
         AS revenue_c
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
WHERE l.l_returnflag = 'R'
  AND o.o_orderdate >= TIMESTAMP '{date_lo}'
  AND o.o_orderdate < TIMESTAMP '{date_hi}'
GROUP BY 1, 2, 3, 4
ORDER BY revenue_c DESC, c.c_custkey
LIMIT {k}"""


# ------------------- late-line priority mix by return flag (Q12 shape)


Q12_LATE_DAYS = 30
#: broadcast the (orderkey, odate, priority) map when under this bound
#: (tests force 0)
Q12_ATTACH_BOUND = 64 << 20


def late_line_priority_mix(sf_dir: str, late_days: int = Q12_LATE_DAYS):
    """TPC-H Q12 shape re-keyed to this star's columns (it has no
    ``l_shipmode``): among lines shipped LATE (``l_shipdate >
    o_orderdate + late_days``), count high-priority (1-URGENT / 2-HIGH)
    vs other orders per ``l_returnflag`` — the join + conditional-count
    algebra of Q12 exactly.

    Scale shape: size-gated orders attach (the Q3/Q8/Q9/Q10
    convention) — under ``Q12_ATTACH_BOUND`` the packed
    ``orderkey → (odate, is_high)`` map broadcasts once and every
    lineitem batch resolves lateness + the per-flag conditional counts
    map-side (ZERO exchange, ≤ |flags| partial rows per batch); above
    the bound, ONE co-partitioned tagged-union hash exchange on
    orderkey (the :func:`nation_trade_volume` shape) with the same
    in-partition resolve.  Tests force 0; both paths bit-identical.

    Output: ``(l_returnflag, high_line_count, low_line_count)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts
    from nativeextractor_ray.sources.tables import read_table

    n_parts = adaptive_parts(sf_dir, table="lineitem")
    delta = np.timedelta64(late_days, "D").astype("timedelta64[us]")

    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def prune_orders(t: pa.Table) -> pa.Table:
        pr = t.column("o_orderpriority")
        is_high = np.asarray(
            pc.or_(pc.equal(pr, "1-URGENT"), pc.equal(pr, "2-HIGH")))
        out = pa.table({
            "k": t.column("o_orderkey"),
            "ts": pa.array(t.column("o_orderdate").to_numpy()
                           .astype(np.int64), pa.int64()),
            "flag": pa.array([""] * t.num_rows, pa.string()),
            "is_high": pa.array(is_high),
            "is_ord": pa.array(np.ones(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_returnflag", "l_shipdate"])

    def prune_items(t: pa.Table) -> pa.Table:
        out = pa.table({
            "k": t.column("l_orderkey"),
            "ts": pa.array(t.column("l_shipdate").to_numpy()
                           .astype(np.int64), pa.int64()),
            "flag": t.column("l_returnflag"),
            "is_high": pa.array(np.zeros(t.num_rows, bool)),
            "is_ord": pa.array(np.zeros(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    dus = int(delta.astype(np.int64))

    def join_part(df):
        import pandas as pd

        o = df[df["is_ord"]][["k", "ts", "is_high"]].rename(
            columns={"ts": "odate"})
        l = df[~df["is_ord"]][["k", "ts", "flag"]]
        m = l.merge(o, on="k", how="inner")
        late = m["ts"].to_numpy() > m["odate"].to_numpy() + dus
        m = m[late]
        if not len(m):
            return pd.DataFrame({
                "l_returnflag": pd.Series([], dtype=str),
                "high_line_count": pd.Series([], dtype=np.int64),
                "low_line_count": pd.Series([], dtype=np.int64)})
        hi = m.groupby("flag", sort=False)["is_high"].agg(["sum", "count"])
        return pd.DataFrame({
            "l_returnflag": hi.index.to_numpy(object).astype(str),
            "high_line_count": hi["sum"].to_numpy(np.int64),
            "low_line_count": (hi["count"] - hi["sum"]).to_numpy(np.int64)})

    def odate_map(t: pa.Table) -> pa.Table:
        pr = t.column("o_orderpriority")
        is_high = np.asarray(
            pc.or_(pc.equal(pr, "1-URGENT"), pc.equal(pr, "2-HIGH")))
        return pa.table({
            "k": t.column("o_orderkey"),
            "odate": pa.array(t.column("o_orderdate").to_numpy()
                              .astype(np.int64), pa.int64()),
            "is_high": pa.array(is_high)})

    kd = orders.map_batches(odate_map, batch_format="pyarrow")
    if (kd.size_bytes() or 0) <= Q12_ATTACH_BOUND:
        ks, ds_, hs = [], [], []
        for t in arrow_blocks(kd, stream=False):
            ks.append(t.column("k").to_numpy())
            ds_.append(t.column("odate").to_numpy())
            hs.append(t.column("is_high").to_numpy(zero_copy_only=False))
        kk = np.concatenate(ks) if ks else np.array([], np.int64)
        dd = np.concatenate(ds_) if ds_ else np.array([], np.int64)
        hh = np.concatenate(hs) if hs else np.array([], bool)
        order_k = np.argsort(kk)
        oside = ray.put((kk[order_k], dd[order_k], hh[order_k]))

        def probe(t: pa.Table) -> pa.Table:
            keys, odates, high = ray.get(oside)
            lk = t.column("l_orderkey").to_numpy()
            if len(keys) == 0:
                hit = np.zeros(len(lk), bool)
                pos = lk[:0]
            else:
                pos = np.searchsorted(keys, lk)
                hit = (pos < len(keys)) & (
                    keys[np.minimum(pos, len(keys) - 1)] == lk)
                pos = pos[hit]
            ship = t.column("l_shipdate").to_numpy().astype(np.int64)[hit]
            late = ship > odates[pos] + dus
            g = pa.table({
                "l_returnflag": t.column("l_returnflag").filter(
                    pa.array(hit)).filter(pa.array(late)),
                "high_line_count": pa.array(
                    high[pos][late].astype(np.int64), pa.int64()),
                "low_line_count": pa.array(
                    (~high[pos][late]).astype(np.int64), pa.int64()),
            }).group_by("l_returnflag").aggregate(
                [("high_line_count", "sum"), ("low_line_count", "sum")])
            return pa.table({
                "l_returnflag": g.column("l_returnflag"),
                "high_line_count": g.column("high_line_count_sum"),
                "low_line_count": g.column("low_line_count_sum")})

        return (items.map_batches(probe, batch_format="pyarrow")
                .groupby("l_returnflag")
                .aggregate(Sum("high_line_count",
                               alias_name="high_line_count"),
                           Sum("low_line_count",
                               alias_name="low_line_count")))

    both = (orders.map_batches(prune_orders, batch_format="pyarrow")
            .union(items.map_batches(prune_items, batch_format="pyarrow")))
    return (both.groupby("part").map_groups(join_part,
                                            batch_format="pandas")
            .groupby("l_returnflag")
            .aggregate(Sum("high_line_count", alias_name="high_line_count"),
                       Sum("low_line_count", alias_name="low_line_count")))


def late_line_priority_mix_sql(late_days: int = Q12_LATE_DAYS) -> str:
    return f"""SELECT l.l_returnflag,
       CAST(count(*) FILTER (WHERE o.o_orderpriority IN
                             ('1-URGENT', '2-HIGH')) AS BIGINT)
         AS high_line_count,
       CAST(count(*) FILTER (WHERE o.o_orderpriority NOT IN
                             ('1-URGENT', '2-HIGH')) AS BIGINT)
         AS low_line_count
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
WHERE l.l_shipdate > o.o_orderdate + INTERVAL {late_days} DAY
GROUP BY 1"""


# -------------------------- top supplier by revenue, ties kept (Q15)


Q15_DATE_LO = "1996-01-01"
Q15_DATE_HI = "1996-04-01"


def top_supplier_revenue(sf_dir: str, date_lo: str = Q15_DATE_LO,
                         date_hi: str = Q15_DATE_HI):
    """TPC-H Q15 shape — the supplier(s) with MAXIMUM revenue in a ship
    quarter, ties kept (the create-view + scalar-max composition).

    Scale shape: lineitem folds to per-batch ``(suppkey, rev_c)``
    integer-cents partials map-side (quarter prune first), ONE suppkey
    groupby produces the |supplier|-bounded revenue table, a streaming
    Max aggregate extracts the scalar, and the winners filter + name
    attach are one more streaming pass (names broadcast once).  Nothing
    bigger than the supplier dimension ever leaves the partials.

    Output: ``(s_suppkey, s_name, total_revenue_c)``."""
    import ray
    from ray.data.aggregate import Max, Sum

    from nativeextractor_ray.sources.tables import load_table, read_table

    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")

    items = read_table(sf_dir, "lineitem",
                       ["l_suppkey", "l_extendedprice", "l_discount",
                        "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        d = t.column("l_shipdate").to_numpy()
        keep = (d >= lo) & (d < hi)
        rev = np.floor(t.column("l_extendedprice").to_numpy()[keep]
                       * (1.0 - t.column("l_discount").to_numpy()[keep])
                       * 100.0 + 0.5).astype(np.int64)
        g = pa.table({
            "s_suppkey": pa.array(
                t.column("l_suppkey").to_numpy()[keep], pa.int64()),
            "total_revenue_c": pa.array(rev, pa.int64()),
        }).group_by("s_suppkey").aggregate([("total_revenue_c", "sum")])
        return pa.table({
            "s_suppkey": g.column("s_suppkey"),
            "total_revenue_c": g.column("total_revenue_c_sum")})

    per_supp = (items.map_batches(partial, batch_format="pyarrow")
                .groupby("s_suppkey")
                .aggregate(Sum("total_revenue_c",
                               alias_name="total_revenue_c"))
                .materialize())
    best = per_supp.aggregate(Max("total_revenue_c"))["max(total_revenue_c)"]

    sup = load_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    sk = sup.column("s_suppkey").to_numpy()
    order_ = np.argsort(sk)
    side = ray.put((sk[order_],
                    np.asarray(sup.column("s_name").to_pylist(),
                               object)[order_]))

    def winners(t: pa.Table) -> pa.Table:
        keys, names = ray.get(side)
        m = pc.equal(t.column("total_revenue_c"), best)
        t = t.filter(m)
        pos = np.searchsorted(keys, t.column("s_suppkey").to_numpy())
        return pa.table({
            "s_suppkey": t.column("s_suppkey"),
            "s_name": pa.array([str(names[p]) for p in pos], pa.string()),
            "total_revenue_c": t.column("total_revenue_c")})

    return per_supp.map_batches(winners, batch_format="pyarrow")


def top_supplier_revenue_sql(date_lo: str = Q15_DATE_LO,
                             date_hi: str = Q15_DATE_HI) -> str:
    return f"""WITH rev AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(sum(CAST(floor(l_extendedprice * (1.0 - l_discount)
                             * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
           AS total_revenue_c
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{date_lo}'
    AND l_shipdate < TIMESTAMP '{date_hi}'
  GROUP BY 1)
SELECT r.s_suppkey, s.s_name, r.total_revenue_c
FROM rev r JOIN supplier s ON s.s_suppkey = r.s_suppkey
WHERE r.total_revenue_c = (SELECT max(total_revenue_c) FROM rev)"""


# ------------------ sole-late-supplier wait counts (Q21 shape)


Q21_LATE_DAYS = 30
#: broadcast the (orderkey, odate) map when under this bound (tests force 0)
Q21_ATTACH_BOUND = 64 << 20


def sole_late_supplier(sf_dir: str, late_days: int = Q21_LATE_DAYS):
    """TPC-H Q21 shape — suppliers who were the ONLY late shipper on a
    multi-supplier order: the double correlated EXISTS / NOT-EXISTS
    self-join, resolved algebraically as per-order aggregates
    (``n_suppliers ≥ 2 AND n_late_suppliers = 1`` credits the late
    one).  Late = ``l_shipdate > o_orderdate + late_days``.

    Scale shape: the per-order distinct counts NEED the order's lines
    co-located, so ONE orderkey exchange is irreducible — but the
    ORDERS side of it isn't: under ``Q21_ATTACH_BOUND`` the
    ``orderkey → odate`` map broadcasts once, lineitem resolves its
    late flag map-side and ships only DISTINCT ``(orderkey, suppkey,
    late)`` rows (a per-batch Arrow dedup combiner) into the exchange;
    above the bound orders ride the tagged union like the lines.  The
    per-order supplier/late distinct counts and the credit decision
    resolve vectorized in-partition, so only ``(suppkey, name,
    numwait)`` partials — supplier-bounded — leave for the final
    groupby (names probe the broadcast dim inside the partition, so
    the pipeline ENDS on the normalizing aggregate).  Tests force the
    bound to 0; both paths bit-identical.

    Output: ``(s_suppkey, s_name, numwait)``, numwait > 0 rows only."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts
    from nativeextractor_ray.sources.tables import load_table, read_table

    n_parts = adaptive_parts(sf_dir, table="lineitem")
    dus = int(np.timedelta64(late_days, "D")
              .astype("timedelta64[us]").astype(np.int64))

    sup = load_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    sk = sup.column("s_suppkey").to_numpy()
    order_ = np.argsort(sk)
    side = ray.put((sk[order_],
                    np.asarray(sup.column("s_name").to_pylist(),
                               object)[order_]))

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def prune_orders(t: pa.Table) -> pa.Table:
        out = pa.table({
            "k": t.column("o_orderkey"),
            "supp": pa.array(np.zeros(t.num_rows, np.int64)),
            "ts": pa.array(t.column("o_orderdate").to_numpy()
                           .astype(np.int64), pa.int64()),
            "is_ord": pa.array(np.ones(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_suppkey", "l_shipdate"])

    def prune_items(t: pa.Table) -> pa.Table:
        out = pa.table({
            "k": t.column("l_orderkey"),
            "supp": pc.cast(t.column("l_suppkey"), pa.int64()),
            "ts": pa.array(t.column("l_shipdate").to_numpy()
                           .astype(np.int64), pa.int64()),
            "is_ord": pa.array(np.zeros(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    def join_part(df):
        import pandas as pd

        o = df[df["is_ord"]][["k", "ts"]].rename(columns={"ts": "odate"})
        l = df[~df["is_ord"]][["k", "supp", "ts"]]
        m = l.merge(o, on="k", how="inner")
        empty = pd.DataFrame({
            "s_suppkey": pd.Series([], dtype=np.int64),
            "s_name": pd.Series([], dtype=str),
            "numwait": pd.Series([], dtype=np.int64)})
        if not len(m):
            return empty
        m["late"] = m["ts"].to_numpy() > m["odate"].to_numpy() + dus
        per = m.groupby("k", sort=False)["supp"].nunique().to_frame("ns")
        late_rows = m[m["late"]]
        nl = late_rows.groupby("k", sort=False)["supp"].nunique()
        ls = late_rows.groupby("k", sort=False)["supp"].min()
        per["nl"] = nl.reindex(per.index, fill_value=0)
        per["ls"] = ls.reindex(per.index, fill_value=-1)
        hit = per[(per["ns"] >= 2) & (per["nl"] == 1)]
        if not len(hit):
            return empty
        g = hit.groupby("ls", sort=False).size().reset_index(name="n")
        keys, names = ray.get(side)
        pos = np.searchsorted(keys, g["ls"].to_numpy(np.int64))
        return pd.DataFrame({
            "s_suppkey": g["ls"].to_numpy(np.int64),
            "s_name": [str(names[p]) for p in pos],
            "numwait": g["n"].to_numpy(np.int64)})

    from nativeextractor_ray.functions.blocks import arrow_blocks

    kd = orders.map_batches(
        lambda t: pa.table({
            "k": t.column("o_orderkey"),
            "odate": pa.array(t.column("o_orderdate").to_numpy()
                              .astype(np.int64), pa.int64())}),
        batch_format="pyarrow")
    if (kd.size_bytes() or 0) <= Q21_ATTACH_BOUND:
        ks, ds_ = [], []
        for t in arrow_blocks(kd, stream=False):
            ks.append(t.column("k").to_numpy())
            ds_.append(t.column("odate").to_numpy())
        kk = np.concatenate(ks) if ks else np.array([], np.int64)
        dd = np.concatenate(ds_) if ds_ else np.array([], np.int64)
        order_k = np.argsort(kk)
        oside = ray.put((kk[order_k], dd[order_k]))

        def late_flags(t: pa.Table) -> pa.Table:
            keys, odates = ray.get(oside)
            lk = t.column("l_orderkey").to_numpy()
            if len(keys) == 0:
                hit = np.zeros(len(lk), bool)
                pos = lk[:0]
            else:
                pos = np.searchsorted(keys, lk)
                hit = (pos < len(keys)) & (
                    keys[np.minimum(pos, len(keys) - 1)] == lk)
                pos = pos[hit]
            ship = t.column("l_shipdate").to_numpy().astype(np.int64)[hit]
            late = ship > odates[pos] + dus
            g = pa.table({
                "k": pa.array(lk[hit], pa.int64()),
                "supp": pc.cast(t.column("l_suppkey"), pa.int64())
                .filter(pa.array(hit)),
                "late": pa.array(late),
            }).group_by(["k", "supp", "late"]).aggregate([])
            return g.append_column(
                "part", stable_part(g, ["k"], n_parts))

        def resolve(df):
            import pandas as pd

            m = df.drop_duplicates(["k", "supp", "late"])
            empty = pd.DataFrame({
                "s_suppkey": pd.Series([], dtype=np.int64),
                "numwait": pd.Series([], dtype=np.int64)})
            if not len(m):
                return empty
            per = (m.groupby("k", sort=False)["supp"].nunique()
                   .to_frame("ns"))
            late_rows = m[m["late"]]
            nl = late_rows.groupby("k", sort=False)["supp"].nunique()
            ls = late_rows.groupby("k", sort=False)["supp"].min()
            per["nl"] = nl.reindex(per.index, fill_value=0)
            per["ls"] = ls.reindex(per.index, fill_value=-1)
            hit = per[(per["ns"] >= 2) & (per["nl"] == 1)]
            if not len(hit):
                return empty
            g = hit.groupby("ls", sort=False).size().reset_index(name="n")
            return pd.DataFrame({
                "s_suppkey": g["ls"].to_numpy(np.int64),
                "numwait": g["n"].to_numpy(np.int64)})

        partials = (items.map_batches(late_flags, batch_format="pyarrow")
                    .groupby("part").map_groups(resolve,
                                                batch_format="pandas"))
        return _sole_late_fold(partials, side)

    both = (orders.map_batches(prune_orders, batch_format="pyarrow")
            .union(items.map_batches(prune_items, batch_format="pyarrow")))
    partials = both.groupby("part").map_groups(join_part,
                                               batch_format="pandas")
    return _sole_late_fold(partials, side)


def _sole_late_fold(partials, side) -> pa.Table:
    """Sum the per-partition ``(s_suppkey, numwait)`` partials on the
    driver and attach names — the result is |supplier|-bounded (a
    dimension table, the broadcast class), and a Ray groupby on the
    (int, string) composite key measured 234 core-seconds for 154k
    partial rows at sf1 (sort-based string-key aggregate) where this
    fold is milliseconds."""
    import ray

    from nativeextractor_ray.functions.blocks import arrow_blocks

    # vectorized fold: the partials run up to partitions × |suppliers|
    # rows (20M at the factor-100 corpus) — a per-row Python loop here
    # measured ~22 s of SERIAL driver time and capped 4→16 scaling at
    # 0.36; np.unique + bincount folds the same rows in milliseconds
    ss, nn = [], []
    for t in arrow_blocks(partials, stream=False):
        if "s_suppkey" not in t.column_names:
            continue
        ss.append(t.column("s_suppkey").to_numpy())
        nn.append(t.column("numwait").to_numpy())
    if not ss:
        return pa.table({"s_suppkey": pa.array([], pa.int64()),
                         "s_name": pa.array([], pa.string()),
                         "numwait": pa.array([], pa.int64())})
    s_all = np.concatenate(ss)
    n_all = np.concatenate(nn)
    supp, inv = np.unique(s_all, return_inverse=True)
    waits = np.bincount(inv, weights=n_all.astype(np.float64)) \
        .astype(np.int64)  # counts ≪ 2^53: exact
    keys, names = ray.get(side)
    pos = np.searchsorted(keys, supp)
    return pa.table({
        "s_suppkey": pa.array(supp, pa.int64()),
        "s_name": pa.array([str(names[p]) for p in pos], pa.string()),
        "numwait": pa.array(waits, pa.int64()),
    })


def sole_late_supplier_sql(late_days: int = Q21_LATE_DAYS) -> str:
    return f"""WITH lo AS (
  SELECT l.l_orderkey AS k, l.l_suppkey AS s,
         l.l_shipdate > o.o_orderdate + INTERVAL {late_days} DAY AS late
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey),
per_order AS (
  SELECT k, count(DISTINCT s) AS ns,
         count(DISTINCT s) FILTER (WHERE late) AS nl,
         min(s) FILTER (WHERE late) AS ls
  FROM lo GROUP BY k)
SELECT p.ls AS s_suppkey, s.s_name,
       CAST(count(*) AS BIGINT) AS numwait
FROM per_order p JOIN supplier s ON s.s_suppkey = p.ls
WHERE p.ns >= 2 AND p.nl = 1
GROUP BY 1, 2"""


# ----------------------------- national market share (Q8 shape)


Q8_REGION = "ASIA"
Q8_TYPE = "MEDIUM"
Q8_NATION = "NATION_3"
#: broadcast the region-pruned (orderkey, year) map when under this
#: bound; above it, both sides co-partition (tests force 0)
Q8_ATTACH_BOUND = 64 << 20


def market_share(sf_dir: str, region: str = Q8_REGION,
                 p_type: str = Q8_TYPE, nation: str = Q8_NATION):
    """TPC-H Q8 shape — one nation's share of revenue per ORDER year,
    within the market defined by (customers in ``region``) × (parts of
    ``p_type``): numerator = revenue from lines whose SUPPLIER sits in
    ``nation``, denominator = all qualifying revenue.

    Scale shape: three dimension collapses before anything moves —
    part→bool (type match), supplier→bool (target nation),
    customer→bool (region membership via nation→region), each ONE dense
    broadcast array (``ray.put`` once).  lineitem prunes to matching
    parts and ships ``(orderkey, is_target_nation, rev_c)`` partials;
    orders prunes to region customers and ships ``(orderkey, year)``;
    ONE co-partitioned tagged-union exchange on orderkey resolves the
    join, folding each partition to ≤ |years| (num, den) integer-cents
    partial rows.  Share = exact half-up micro ratio.

    Output: ``(o_year, nation_rev_c, total_rev_c, share_micro)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts
    from nativeextractor_ray.sources.tables import load_table, read_table

    nat = load_table(sf_dir, "nation")
    reg = load_table(sf_dir, "region")
    rkey = {r["r_name"]: r["r_regionkey"] for r in reg.to_pylist()}[region]
    nkey = {r["n_name"]: r["n_nationkey"] for r in nat.to_pylist()}[nation]
    in_region = {r["n_nationkey"] for r in nat.to_pylist()
                 if r["n_regionkey"] == rkey}

    part = load_table(sf_dir, "part", columns=["p_partkey", "p_type"])
    p_ok = _key_index(part.column("p_partkey"),
                      pc.equal(part.column("p_type"), p_type), False)

    sup = load_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    s_tgt = _key_index(sup.column("s_suppkey"),
                       sup.column("s_nationkey").to_numpy() == nkey, False)

    cust = load_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    c_ok = _key_index(cust.column("c_custkey"),
                      np.isin(cust.column("c_nationkey").to_numpy(),
                              np.fromiter(in_region, np.int64)
                              if in_region else np.array([], np.int64)),
                      False)

    side = ray.put((p_ok, s_tgt, c_ok))
    n_parts = adaptive_parts(sf_dir, table="lineitem")

    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"])

    def prune_orders(t: pa.Table) -> pa.Table:
        _p, _s, c_ok_ = ray.get(side)
        keep = c_ok_[t.column("o_custkey").to_numpy()]
        yr = (t.column("o_orderdate").to_numpy()[keep]
              .astype("datetime64[Y]").astype(np.int64) + 1970)
        out = pa.table({
            "k": pa.array(t.column("o_orderkey").to_numpy()[keep]),
            "year": pa.array(yr),
            "nat_c": pa.array(np.zeros(int(keep.sum()), np.int64)),
            "tot_c": pa.array(np.zeros(int(keep.sum()), np.int64)),
            "is_ord": pa.array(np.ones(int(keep.sum()), bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_partkey", "l_suppkey",
                        "l_extendedprice", "l_discount"])

    def prune_items(t: pa.Table) -> pa.Table:
        p_ok_, s_tgt_, _c = ray.get(side)
        keep = p_ok_[t.column("l_partkey").to_numpy()]
        rev = np.floor(t.column("l_extendedprice").to_numpy()[keep]
                       * (1.0 - t.column("l_discount").to_numpy()[keep])
                       * 100.0 + 0.5).astype(np.int64)
        tgt = s_tgt_[t.column("l_suppkey").to_numpy()[keep]]
        g = pa.table({
            "k": pa.array(t.column("l_orderkey").to_numpy()[keep]),
            "nat_c": pa.array(np.where(tgt, rev, 0), pa.int64()),
            "tot_c": pa.array(rev, pa.int64()),
        }).group_by("k").aggregate([("nat_c", "sum"), ("tot_c", "sum")])
        out = pa.table({
            "k": g.column("k"),
            "year": pa.array(np.zeros(g.num_rows, np.int64)),
            "nat_c": g.column("nat_c_sum"),
            "tot_c": g.column("tot_c_sum"),
            "is_ord": pa.array(np.zeros(g.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    def join_part(df):
        import pandas as pd

        o = df[df["is_ord"]][["k", "year"]]
        l = df[~df["is_ord"]][["k", "nat_c", "tot_c"]]
        m = l.merge(o, on="k", how="inner")
        g = m.groupby("year", sort=False)[["nat_c", "tot_c"]].sum()
        return pd.DataFrame({
            "o_year": g.index.to_numpy(np.int64),
            "nation_rev_c": g["nat_c"].to_numpy(np.int64),
            "total_rev_c": g["tot_c"].to_numpy(np.int64)})

    # size-gated orders attach (the Q3/Q10 convention): under the bound
    # the region-pruned (orderkey, year) map broadcasts once and the
    # lineitem partials resolve their year map-side — zero exchange;
    # above it, the tagged-union co-partition runs (tests force 0).
    def quarter_map(t: pa.Table) -> pa.Table:
        _p, _s, c_ok_ = ray.get(side)
        keep = c_ok_[t.column("o_custkey").to_numpy()]
        yr = (t.column("o_orderdate").to_numpy()[keep]
              .astype("datetime64[Y]").astype(np.int64) + 1970)
        return pa.table({
            "k": pa.array(t.column("o_orderkey").to_numpy()[keep]),
            "year": pa.array(yr)})

    from nativeextractor_ray.functions.blocks import arrow_blocks

    kd = orders.map_batches(quarter_map, batch_format="pyarrow")
    if (kd.size_bytes() or 0) <= Q8_ATTACH_BOUND:
        ks, ys = [], []
        for t in arrow_blocks(kd, stream=False):
            ks.append(t.column("k").to_numpy())
            ys.append(t.column("year").to_numpy())
        kk = np.concatenate(ks) if ks else np.array([], np.int64)
        yy = np.concatenate(ys) if ys else np.array([], np.int64)
        order_k = np.argsort(kk)
        oside = ray.put((kk[order_k], yy[order_k]))

        def probe(t: pa.Table) -> pa.Table:
            keys, years = ray.get(oside)
            lk = t.column("k").to_numpy()
            if len(keys) == 0:
                hit = np.zeros(len(lk), bool)
            else:
                pos = np.searchsorted(keys, lk)
                hit = (pos < len(keys)) & (
                    keys[np.minimum(pos, len(keys) - 1)] == lk)
            yr = (years[np.searchsorted(keys, lk[hit])]
                  if hit.any() else np.array([], np.int64))
            g = pa.table({
                "o_year": pa.array(yr, pa.int64()),
                "nation_rev_c": pa.array(
                    t.column("nat_c").to_numpy()[hit], pa.int64()),
                "total_rev_c": pa.array(
                    t.column("tot_c").to_numpy()[hit], pa.int64()),
            }).group_by("o_year").aggregate([("nation_rev_c", "sum"),
                                             ("total_rev_c", "sum")])
            return pa.table({
                "o_year": g.column("o_year"),
                "nation_rev_c": g.column("nation_rev_c_sum"),
                "total_rev_c": g.column("total_rev_c_sum")})

        agg = (items.map_batches(prune_items, batch_format="pyarrow")
               .map_batches(probe, batch_format="pyarrow")
               .groupby("o_year")
               .aggregate(Sum("nation_rev_c", alias_name="nation_rev_c"),
                          Sum("total_rev_c", alias_name="total_rev_c")))
    else:
        both = (orders.map_batches(prune_orders, batch_format="pyarrow")
                .union(items.map_batches(prune_items,
                                         batch_format="pyarrow")))
        agg = (both.groupby("part").map_groups(join_part,
                                               batch_format="pandas")
               .groupby("o_year")
               .aggregate(Sum("nation_rev_c", alias_name="nation_rev_c"),
                          Sum("total_rev_c", alias_name="total_rev_c")))

    # the per-year table is calendar-bounded (≤ decades of rows), so the
    # share fold happens on the driver and returns a plain Arrow table —
    # a post-aggregate map_batches would pass the aggregate's empty
    # pandas partition blocks through unconverted (the arrow_blocks
    # hazard) straight into the driver's comparator
    from nativeextractor_ray.functions.blocks import arrow_blocks

    parts = list(arrow_blocks(agg, stream=False))
    t = (pa.concat_tables(parts, promote_options="default") if parts
         else pa.table({"o_year": pa.array([], pa.int64()),
                        "nation_rev_c": pa.array([], pa.int64()),
                        "total_rev_c": pa.array([], pa.int64())}))
    n = t.column("nation_rev_c").to_numpy()
    d = t.column("total_rev_c").to_numpy()
    sh = (2 * n * 1_000_000 + d) // (2 * d) if len(d) \
        else np.array([], np.int64)  # d ≥ 1 cent per year row
    return t.append_column("share_micro", pa.array(sh, pa.int64()))


def market_share_sql(region: str = Q8_REGION, p_type: str = Q8_TYPE,
                     nation: str = Q8_NATION) -> str:
    return f"""WITH li AS (
  SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
         CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0
                    + 0.5) AS BIGINT) AS rev_c,
         ns.n_name = '{nation}' AS is_nat
  FROM lineitem l
  JOIN part p ON p.p_partkey = l.l_partkey
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation ns ON ns.n_nationkey = s.s_nationkey
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation nc ON nc.n_nationkey = c.c_nationkey
  JOIN region r ON r.r_regionkey = nc.n_regionkey
  WHERE p.p_type = '{p_type}' AND r.r_name = '{region}'),
agg AS (
  SELECT o_year,
         CAST(sum(CASE WHEN is_nat THEN rev_c ELSE 0 END) AS BIGINT)
           AS nation_rev_c,
         CAST(sum(rev_c) AS BIGINT) AS total_rev_c
  FROM li GROUP BY 1)
SELECT o_year, nation_rev_c, total_rev_c,
       CAST((2 * nation_rev_c * 1000000 + total_rev_c)
            // (2 * total_rev_c) AS BIGINT) AS share_micro
FROM agg"""


# ------------------------------ forecast revenue change (Q6 shape)


Q6_YEAR = 1996
Q6_DISC_LO = 0.02
Q6_DISC_HI = 0.04
Q6_QTY = 24


def forecast_revenue_change(sf_dir: str, year: int = Q6_YEAR,
                            disc_lo: float = Q6_DISC_LO,
                            disc_hi: float = Q6_DISC_HI,
                            qty_lt: int = Q6_QTY):
    """TPC-H Q6 — the pure map-side scan: revenue that would be gained
    by eliminating small discounts (``sum(extendedprice * discount)``
    under a ship-year + discount-band + quantity predicate).  With Q6
    the engine covers EVERY TPC-H query expressible over this star's
    columns (Q9/Q11/Q16/Q20 need the absent ``partsupp`` table).

    Scale shape: zero shuffle, zero join — each lineitem batch folds to
    ONE integer-cents partial row (predicate mask + dot product); the
    ≤ blocks partials sum in a scalar aggregate.  The discount band is
    compared in exact integer basis points (``floor(d·10⁴ + 0.5)``) so
    the float literals 0.02/0.04 can't straddle engines.

    Output: one row ``(revenue_c,)``."""
    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    lo = np.datetime64(f"{year}-01-01", "us")
    hi = np.datetime64(f"{year + 1}-01-01", "us")
    bp_lo = int(np.floor(disc_lo * 1e4 + 0.5))
    bp_hi = int(np.floor(disc_hi * 1e4 + 0.5))

    items = read_table(sf_dir, "lineitem",
                       ["l_shipdate", "l_discount", "l_quantity",
                        "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        d = t.column("l_shipdate").to_numpy()
        disc = t.column("l_discount").to_numpy()
        bp = np.floor(disc * 1e4 + 0.5).astype(np.int64)
        qty = np.floor(t.column("l_quantity").to_numpy()
                       + 0.5).astype(np.int64)
        m = ((d >= lo) & (d < hi) & (bp >= bp_lo) & (bp <= bp_hi)
             & (qty < qty_lt))
        rev = np.floor(t.column("l_extendedprice").to_numpy()[m]
                       * disc[m] * 100.0 + 0.5).astype(np.int64)
        return pa.table({"revenue_c": pa.array([int(rev.sum())],
                                               pa.int64())})

    total = 0
    for t in arrow_blocks(items.map_batches(partial,
                                            batch_format="pyarrow")):
        total += int(pc.sum(t.column("revenue_c")).as_py() or 0)
    return pa.table({"revenue_c": pa.array([total], pa.int64())})


def forecast_revenue_change_sql(year: int = Q6_YEAR,
                                disc_lo: float = Q6_DISC_LO,
                                disc_hi: float = Q6_DISC_HI,
                                qty_lt: int = Q6_QTY) -> str:
    bp_lo = int(np.floor(disc_lo * 1e4 + 0.5))
    bp_hi = int(np.floor(disc_hi * 1e4 + 0.5))
    return f"""SELECT CAST(COALESCE(sum(CAST(floor(l_extendedprice
                * l_discount * 100.0 + 0.5) AS BIGINT)), 0) AS BIGINT)
         AS revenue_c
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{year}-01-01'
  AND l_shipdate < TIMESTAMP '{year + 1}-01-01'
  AND CAST(floor(l_discount * 10000 + 0.5) AS BIGINT)
        BETWEEN {bp_lo} AND {bp_hi}
  AND CAST(floor(l_quantity + 0.5) AS BIGINT) < {qty_lt}"""


# --------------- derived-partsupp TPC-H queries (Q9 / Q11 / Q16 / Q20)
#
# The star ships no partsupp table; sources/partsupp.py derives one as a
# pure function of part × supplier (the transcripts-derivation pattern)
# with a DuckDB CTE twin, which unlocks the four remaining TPC-H shapes.


Q9_NAME_WORD = "widget"
#: broadcast the (orderkey, year) map when under this bound (tests force 0)
Q9_ATTACH_BOUND = 64 << 20


def product_type_profit(sf_dir: str, name_word: str = Q9_NAME_WORD):
    """TPC-H Q9 — profit per (supplier nation, order year) on parts whose
    name contains ``name_word``: ``sum(revenue − supplycost · qty)``,
    the joins-everything profitability rollup.

    Scale shape: part-name mask, supplier→nation array and the packed
    ``(partkey, suppkey) → cost`` partsupp arrays all broadcast once
    (each bounded by a dimension table); lineitem folds map-side to
    ``(orderkey, nation, amount_c)`` partials — amount in exact integer
    cents, ``floor(ext·(1−disc)·100+0.5) − cost_c · qty`` — and meets
    the pruned ``orders (orderkey, year)`` projection in ONE
    co-partitioned tagged-union exchange; the (nation, year) rollup
    resolves in-partition, ≤ nations·years partial rows out.

    Output: ``(nation, o_year, profit_c)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.hashing import stable_part
    from nativeextractor_ray.pipelines.common import adaptive_parts
    from nativeextractor_ray.sources.partsupp import partsupp_arrays
    from nativeextractor_ray.sources.tables import load_table, read_table

    packed, _avail, cost_c, n_supp = partsupp_arrays(sf_dir)

    part = load_table(sf_dir, "part", columns=["p_partkey", "p_name"])
    p_ok = _key_index(part.column("p_partkey"),
                      pc.match_substring(part.column("p_name"), name_word),
                      False)

    sup = load_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    s2n = _key_index(sup.column("s_suppkey"), sup.column("s_nationkey"), -1)

    nat = load_table(sf_dir, "nation")
    n2name = {r["n_nationkey"]: r["n_name"] for r in nat.to_pylist()}

    side = ray.put((p_ok, s2n, packed, cost_c))
    n_parts = adaptive_parts(sf_dir, table="lineitem")

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def prune_orders(t: pa.Table) -> pa.Table:
        yr = (t.column("o_orderdate").to_numpy()
              .astype("datetime64[Y]").astype(np.int64) + 1970)
        out = pa.table({
            "k": t.column("o_orderkey"),
            "year": pa.array(yr),
            "nation": pa.array(np.zeros(t.num_rows, np.int64)),
            "amount_c": pa.array(np.zeros(t.num_rows, np.int64)),
            "is_ord": pa.array(np.ones(t.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_partkey", "l_suppkey",
                        "l_quantity", "l_extendedprice", "l_discount"])

    def prune_items(t: pa.Table) -> pa.Table:
        p_ok_, s2n_, packed_, cost_ = ray.get(side)
        lk = t.column("l_partkey").to_numpy()
        keep = p_ok_[lk]
        lk = lk[keep]
        sk_ = t.column("l_suppkey").to_numpy()[keep]
        key = lk * n_supp + sk_
        pos = np.searchsorted(packed_, key)
        ok = (pos < len(packed_)) & (
            packed_[np.minimum(pos, max(len(packed_) - 1, 0))] == key) \
            if len(packed_) else np.zeros(len(key), bool)
        lk, sk_, pos = lk[ok], sk_[ok], pos[ok]
        sub = np.nonzero(keep)[0][ok]
        rev = np.floor(
            t.column("l_extendedprice").to_numpy()[sub]
            * (1.0 - t.column("l_discount").to_numpy()[sub])
            * 100.0 + 0.5).astype(np.int64)
        qty = np.floor(t.column("l_quantity").to_numpy()[sub]
                       + 0.5).astype(np.int64)
        amount = rev - cost_[pos] * qty
        g = pa.table({
            "k": pa.array(t.column("l_orderkey").to_numpy()[sub]),
            "nation": pa.array(s2n_[sk_]),
            "amount_c": pa.array(amount, pa.int64()),
        }).group_by(["k", "nation"]).aggregate([("amount_c", "sum")])
        out = pa.table({
            "k": g.column("k"),
            "year": pa.array(np.zeros(g.num_rows, np.int64)),
            "nation": g.column("nation"),
            "amount_c": g.column("amount_c_sum"),
            "is_ord": pa.array(np.zeros(g.num_rows, bool)),
        })
        return out.append_column("part", stable_part(out, ["k"], n_parts))

    def join_part(df):
        import pandas as pd

        o = df[df["is_ord"]][["k", "year"]]
        l = df[~df["is_ord"]][["k", "nation", "amount_c"]]
        m = l.merge(o, on="k", how="inner")
        g = m.groupby(["nation", "year"], sort=False)["amount_c"].sum()
        g = g.reset_index()
        return pd.DataFrame({
            "nation": g["nation"].to_numpy(np.int64),
            "o_year": g["year"].to_numpy(np.int64),
            "profit_c": g["amount_c"].to_numpy(np.int64)})

    # size-gated orders attach (the Q3/Q8/Q10 convention): under the
    # bound the (orderkey, year) map broadcasts once and lineitem
    # partials resolve the year map-side; above it, the tagged-union
    # co-partition runs (tests force 0, both paths bit-identical)
    from nativeextractor_ray.functions.blocks import arrow_blocks

    def year_map(t: pa.Table) -> pa.Table:
        yr = (t.column("o_orderdate").to_numpy()
              .astype("datetime64[Y]").astype(np.int64) + 1970)
        return pa.table({"k": t.column("o_orderkey"),
                         "year": pa.array(yr)})

    kd = orders.map_batches(year_map, batch_format="pyarrow")
    if (kd.size_bytes() or 0) <= Q9_ATTACH_BOUND:
        ks, ys = [], []
        for t in arrow_blocks(kd, stream=False):
            ks.append(t.column("k").to_numpy())
            ys.append(t.column("year").to_numpy())
        kk = np.concatenate(ks) if ks else np.array([], np.int64)
        yy = np.concatenate(ys) if ys else np.array([], np.int64)
        order_k = np.argsort(kk)
        oside = ray.put((kk[order_k], yy[order_k]))

        def probe(t: pa.Table) -> pa.Table:
            keys, years = ray.get(oside)
            lk = t.column("k").to_numpy()
            if len(keys) == 0:
                hit = np.zeros(len(lk), bool)
            else:
                pos = np.searchsorted(keys, lk)
                hit = (pos < len(keys)) & (
                    keys[np.minimum(pos, len(keys) - 1)] == lk)
            yr = (years[np.searchsorted(keys, lk[hit])]
                  if hit.any() else np.array([], np.int64))
            g = pa.table({
                "nation": pa.array(
                    t.column("nation").to_numpy()[hit], pa.int64()),
                "o_year": pa.array(yr, pa.int64()),
                "profit_c": pa.array(
                    t.column("amount_c").to_numpy()[hit], pa.int64()),
            }).group_by(["nation", "o_year"]).aggregate(
                [("profit_c", "sum")])
            return pa.table({"nation": g.column("nation"),
                             "o_year": g.column("o_year"),
                             "profit_c": g.column("profit_c_sum")})

        agg = (items.map_batches(prune_items, batch_format="pyarrow")
               .map_batches(probe, batch_format="pyarrow")
               .groupby(["nation", "o_year"])
               .aggregate(Sum("profit_c", alias_name="profit_c")))
    else:
        both = (orders.map_batches(prune_orders, batch_format="pyarrow")
                .union(items.map_batches(prune_items,
                                         batch_format="pyarrow")))
        agg = (both.groupby("part").map_groups(join_part,
                                               batch_format="pandas")
               .groupby(["nation", "o_year"])
               .aggregate(Sum("profit_c", alias_name="profit_c")))

    nref = ray.put(n2name)

    def to_names(t: pa.Table) -> pa.Table:
        nm = ray.get(nref)
        return pa.table({
            "nation": pa.array([nm[int(k)] for k in
                                t.column("nation").to_pylist()],
                               pa.string()),
            "o_year": t.column("o_year"),
            "profit_c": t.column("profit_c")})

    # nations×years-bounded: fold driver-side (arrow_blocks hazard rule)
    from nativeextractor_ray.functions.blocks import arrow_blocks

    parts = [to_names(b) for b in arrow_blocks(agg, stream=False)]
    return (pa.concat_tables(parts) if parts
            else pa.table({"nation": pa.array([], pa.string()),
                           "o_year": pa.array([], pa.int64()),
                           "profit_c": pa.array([], pa.int64())}))


def product_type_profit_sql(name_word: str = Q9_NAME_WORD) -> str:
    from nativeextractor_ray.sources.partsupp import PARTSUPP_SQL

    return f"""WITH ps AS ({PARTSUPP_SQL})
SELECT n.n_name AS nation,
       CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount)
                           * 100.0 + 0.5) AS BIGINT)
                - ps.ps_supplycost_c
                  * CAST(floor(l.l_quantity + 0.5) AS BIGINT))
            AS BIGINT) AS profit_c
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
JOIN ps ON ps.ps_partkey = l.l_partkey AND ps.ps_suppkey = l.l_suppkey
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
WHERE p.p_name LIKE '%{name_word}%'
GROUP BY 1, 2"""


Q11_NATION = "NATION_3"
Q11_FRAC_NUM = 1
Q11_FRAC_DEN = 200


def important_stock(sf_dir: str, nation: str = Q11_NATION,
                    frac_num: int = Q11_FRAC_NUM,
                    frac_den: int = Q11_FRAC_DEN):
    """TPC-H Q11 — parts whose stock value at one nation's suppliers
    exceeds ``frac`` of that nation's total stock value (the
    scalar-subquery HAVING).  The threshold compare is ALL-INTEGER:
    ``value_c · den > total_c · num``.

    Scale shape: partsupp streams off the part table (4 derived rows
    per part row — never a side table); the supplier→in-nation mask
    broadcasts once; per-batch (partkey, value_c) partials → ONE
    partkey groupby; the grand total is a second scalar aggregate of
    the SAME partials; the winners filter is a streaming map against
    the broadcast scalar.

    Output: ``(ps_partkey, value_c)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.partsupp import partsupp_dataset
    from nativeextractor_ray.sources.tables import load_table

    nat = load_table(sf_dir, "nation")
    nkey = {r["n_name"]: r["n_nationkey"] for r in nat.to_pylist()}[nation]
    sup = load_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    s_in = _key_index(sup.column("s_suppkey"),
                      sup.column("s_nationkey").to_numpy() == nkey, False)
    side = ray.put(s_in)

    ps = partsupp_dataset(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        mask = ray.get(side)[t.column("ps_suppkey").to_numpy()]
        val = (t.column("ps_supplycost_c").to_numpy()
               * t.column("ps_availqty").to_numpy())[mask]
        g = pa.table({
            "ps_partkey": pa.array(
                t.column("ps_partkey").to_numpy()[mask], pa.int64()),
            "value_c": pa.array(val, pa.int64()),
        }).group_by("ps_partkey").aggregate([("value_c", "sum")])
        return pa.table({"ps_partkey": g.column("ps_partkey"),
                         "value_c": g.column("value_c_sum")})

    per_part = (ps.map_batches(partial, batch_format="pyarrow")
                .groupby("ps_partkey")
                .aggregate(Sum("value_c", alias_name="value_c"))
                .materialize())
    total = per_part.aggregate(Sum("value_c"))["sum(value_c)"] or 0

    def winners(t: pa.Table) -> pa.Table:
        v = t.column("value_c").to_numpy()
        return t.filter(pa.array(v * frac_den > total * frac_num))

    return per_part.map_batches(winners, batch_format="pyarrow")


def important_stock_sql(nation: str = Q11_NATION,
                        frac_num: int = Q11_FRAC_NUM,
                        frac_den: int = Q11_FRAC_DEN) -> str:
    from nativeextractor_ray.sources.partsupp import PARTSUPP_SQL

    return f"""WITH ps AS ({PARTSUPP_SQL}),
v AS (
  SELECT ps.ps_partkey,
         CAST(sum(ps.ps_supplycost_c * ps.ps_availqty) AS BIGINT)
           AS value_c
  FROM ps JOIN supplier s ON s.s_suppkey = ps.ps_suppkey
          JOIN nation n ON n.n_nationkey = s.s_nationkey
  WHERE n.n_name = '{nation}'
  GROUP BY 1)
SELECT ps_partkey, value_c FROM v
WHERE value_c * {frac_den} > (SELECT sum(value_c) FROM v) * {frac_num}"""


Q16_BRAND = "Brand#13"
Q16_TYPE = "PROMO"
Q16_MAX_SIZE = 25
Q16_BLOCK_BAL = 1000.0


def supplier_relationship(sf_dir: str, ex_brand: str = Q16_BRAND,
                          ex_type: str = Q16_TYPE,
                          max_size: int = Q16_MAX_SIZE,
                          block_bal: float = Q16_BLOCK_BAL):
    """TPC-H Q16 — how many DISTINCT suppliers can provide each
    (brand, type, size) combination, excluding one brand, one type,
    big sizes, and a supplier blocklist (suppliers with
    ``s_acctbal < block_bal`` stand in for the comment-matched
    complaints list — the star has no comments; the NOT-IN shape is
    identical).

    Scale shape: partsupp streams off the part table; part attributes
    and the sorted blocklist broadcast once; per-batch DISTINCT
    (brand, type, size, suppkey) partials (the daily_active_users
    combiner) → ONE composite groupby → per-combination recount
    partials → tiny final groupby.

    Output: ``(p_brand, p_type, p_size, supplier_cnt)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.partsupp import partsupp_dataset
    from nativeextractor_ray.sources.tables import load_table

    part = load_table(sf_dir, "part",
                      columns=["p_partkey", "p_brand", "p_type",
                               "p_size"])
    pk = part.column("p_partkey")
    brands = np.asarray(part.column("p_brand").to_pylist(), object)
    types = np.asarray(part.column("p_type").to_pylist(), object)
    sizes = part.column("p_size").to_numpy()
    brand = _key_index(pk, brands, "")
    typ = _key_index(pk, types, "")
    size = _key_index(pk, sizes, 0)
    keep_part = _key_index(pk, (brands != ex_brand) & (types != ex_type)
                           & (sizes <= max_size), False)

    sup = load_table(sf_dir, "supplier", columns=["s_suppkey", "s_acctbal"])
    blocked = np.sort(sup.filter(
        pc.less(sup.column("s_acctbal"), block_bal))
        .column("s_suppkey").to_numpy())

    side = ray.put((keep_part, brand, typ, size, blocked))
    ps = partsupp_dataset(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        keep_, brand_, typ_, size_, blocked_ = ray.get(side)
        p = t.column("ps_partkey").to_numpy()
        s = t.column("ps_suppkey").to_numpy()
        m = keep_[p]
        if len(blocked_):
            pos = np.searchsorted(blocked_, s)
            in_block = (pos < len(blocked_)) & (
                blocked_[np.minimum(pos, len(blocked_) - 1)] == s)
            m &= ~in_block
        p, s = p[m], s[m]
        return pa.table({
            "p_brand": pa.array(brand_[p].astype(str), pa.string()),
            "p_type": pa.array(typ_[p].astype(str), pa.string()),
            "p_size": pa.array(size_[p], pa.int64()),
            "s": pa.array(s, pa.int64()),
        }).group_by(["p_brand", "p_type", "p_size", "s"]).aggregate([])

    from ray.data.aggregate import Count

    dedup = (ps.map_batches(partial, batch_format="pyarrow")
             .groupby(["p_brand", "p_type", "p_size", "s"])
             .aggregate(Count(alias_name="_c")))

    def recount(t: pa.Table) -> pa.Table:
        g = (t.select(["p_brand", "p_type", "p_size"])
             .group_by(["p_brand", "p_type", "p_size"])
             .aggregate([([], "count_all")]))
        return pa.table({
            "p_brand": g.column("p_brand"),
            "p_type": g.column("p_type"),
            "p_size": g.column("p_size"),
            "supplier_cnt": pc.cast(g.column("count_all"), pa.int64())})

    return (dedup.map_batches(recount, batch_format="pyarrow")
            .groupby(["p_brand", "p_type", "p_size"])
            .aggregate(Sum("supplier_cnt", alias_name="supplier_cnt")))


def supplier_relationship_sql(ex_brand: str = Q16_BRAND,
                              ex_type: str = Q16_TYPE,
                              max_size: int = Q16_MAX_SIZE,
                              block_bal: float = Q16_BLOCK_BAL) -> str:
    from nativeextractor_ray.sources.partsupp import PARTSUPP_SQL

    return f"""WITH ps AS ({PARTSUPP_SQL})
SELECT p.p_brand, p.p_type, CAST(p.p_size AS BIGINT) AS p_size,
       CAST(count(DISTINCT ps.ps_suppkey) AS BIGINT) AS supplier_cnt
FROM ps JOIN part p ON p.p_partkey = ps.ps_partkey
WHERE p.p_brand <> '{ex_brand}' AND p.p_type <> '{ex_type}'
  AND p.p_size <= {max_size}
  AND ps.ps_suppkey NOT IN (
    SELECT s_suppkey FROM supplier WHERE s_acctbal < {block_bal})
GROUP BY 1, 2, 3"""


Q20_YEAR = 1996
Q20_NAME_PREFIX = "small"
Q20_NATION: "str | None" = None  # None = all nations (one supplier
# per nation at small sf makes the filtered result empty — the filter
# itself is still implemented and pytest-exercised)


def potential_promotion(sf_dir: str, year: int = Q20_YEAR,
                        name_prefix: str = Q20_NAME_PREFIX,
                        nation: "str | None" = Q20_NATION):
    """TPC-H Q20 — suppliers in one nation holding EXCESS stock of a
    part family: ``ps_availqty > ½ · qty shipped`` of that
    (part, supplier) in a year, parts by name prefix (the
    doubly-nested IN).  The half compare is exact:
    ``2 · availqty > qty_sum``.

    Scale shape: the part-prefix mask broadcasts and prunes lineitem
    map-side; per-batch packed ``(partkey·n_supp + suppkey, qty)``
    partials → ONE packed-int64-key groupby (the only shuffle); the
    shipped-qty table then probes the broadcast partsupp arrays in a
    streaming map, emitting DISTINCT qualifying suppkeys per block;
    the supplier name/nation attach + final dedup run on the
    |supplier|-bounded result.

    Output: ``(s_suppkey, s_name)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.partsupp import partsupp_arrays
    from nativeextractor_ray.sources.tables import load_table, read_table

    packed, avail, _cost, n_supp = partsupp_arrays(sf_dir)

    part = load_table(sf_dir, "part", columns=["p_partkey", "p_name"])
    p_ok = _key_index(part.column("p_partkey"),
                      pc.starts_with(part.column("p_name"), name_prefix),
                      False)

    sup = load_table(sf_dir, "supplier",
                     columns=["s_suppkey", "s_name", "s_nationkey"])
    sk = sup.column("s_suppkey").to_numpy()
    if nation is None:
        s_in = _key_index(sk, True, False)
    else:
        nat = load_table(sf_dir, "nation")
        nkey = {r["n_name"]: r["n_nationkey"]
                for r in nat.to_pylist()}[nation]
        s_in = _key_index(sk, sup.column("s_nationkey").to_numpy() == nkey,
                          False)
    sorder = np.argsort(sk)
    side = ray.put((p_ok, packed, avail, s_in,
                    sk[sorder],
                    np.asarray(sup.column("s_name").to_pylist(),
                               object)[sorder]))

    lo = np.datetime64(f"{year}-01-01", "us")
    hi = np.datetime64(f"{year + 1}-01-01", "us")
    items = read_table(sf_dir, "lineitem",
                       ["l_partkey", "l_suppkey", "l_quantity",
                        "l_shipdate"])

    def qty_partial(t: pa.Table) -> pa.Table:
        p_ok_, _pk, _av, _si, _k, _n = ray.get(side)
        d = t.column("l_shipdate").to_numpy()
        lk = t.column("l_partkey").to_numpy()
        m = (d >= lo) & (d < hi) & p_ok_[lk]
        qty = np.floor(t.column("l_quantity").to_numpy()[m]
                       + 0.5).astype(np.int64)
        key = lk[m] * n_supp + t.column("l_suppkey").to_numpy()[m]
        g = pa.table({
            "key": pa.array(key, pa.int64()),
            "qty": pa.array(qty, pa.int64()),
        }).group_by("key").aggregate([("qty", "sum")])
        return pa.table({"key": g.column("key"),
                         "qty": g.column("qty_sum")})

    shipped = (items.map_batches(qty_partial, batch_format="pyarrow")
               .groupby("key").aggregate(Sum("qty", alias_name="qty")))

    def qualify(t: pa.Table) -> pa.Table:
        _p, packed_, avail_, s_in_, skeys, snames = ray.get(side)
        key = pc.cast(t.column("key"), pa.int64()).to_numpy()
        qty = t.column("qty").to_numpy()
        pos = np.searchsorted(packed_, key)
        ok = (pos < len(packed_)) & (
            packed_[np.minimum(pos, max(len(packed_) - 1, 0))] == key) \
            if len(packed_) else np.zeros(len(key), bool)
        s = (key % n_supp)
        hit = ok & (2 * avail_[np.minimum(pos, max(len(packed_) - 1, 0))]
                    > qty) & s_in_[s]
        u = np.unique(s[hit])
        ppos = np.searchsorted(skeys, u)
        return pa.table({
            "s_suppkey": pa.array(u, pa.int64()),
            "s_name": pa.array([str(snames[p]) for p in ppos],
                               pa.string())})

    # |supplier|-bounded result: dedup driver-side, return Arrow
    from nativeextractor_ray.functions.blocks import arrow_blocks

    parts = [b.select(["s_suppkey", "s_name"]) for b in arrow_blocks(
        shipped.map_batches(qualify, batch_format="pyarrow"),
        stream=False)]
    if not parts:
        return pa.table({"s_suppkey": pa.array([], pa.int64()),
                         "s_name": pa.array([], pa.string())})
    return (pa.concat_tables(parts)
            .group_by(["s_suppkey", "s_name"]).aggregate([]))


def potential_promotion_sql(year: int = Q20_YEAR,
                            name_prefix: str = Q20_NAME_PREFIX,
                            nation: "str | None" = Q20_NATION) -> str:
    from nativeextractor_ray.sources.partsupp import PARTSUPP_SQL

    return f"""WITH ps AS ({PARTSUPP_SQL}),
shipped AS (
  SELECT l_partkey, l_suppkey,
         CAST(sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT)
           AS qty
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{year}-01-01'
    AND l_shipdate < TIMESTAMP '{year + 1}-01-01'
  GROUP BY 1, 2)
SELECT DISTINCT s.s_suppkey, s.s_name
FROM ps
JOIN part p ON p.p_partkey = ps.ps_partkey
JOIN shipped sh ON sh.l_partkey = ps.ps_partkey
               AND sh.l_suppkey = ps.ps_suppkey
JOIN supplier s ON s.s_suppkey = ps.ps_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
WHERE p.p_name LIKE '{name_prefix}%'
  AND {('n.n_name = ' + chr(39) + nation + chr(39)) if nation else 'TRUE'}
  AND 2 * ps.ps_availqty > sh.qty"""
