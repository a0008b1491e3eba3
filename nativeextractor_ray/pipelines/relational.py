"""Relational lookup patterns over the TPC-H-ish side tables — the
engine's demonstration of SURVEY.md §2.5: the reference's only join-like
operation is a broadcast dictionary probe (trie lookup, ner.c:29-31), and
at cluster scale the same shape — **broadcast the small side, probe inside
map_batches, never shuffle the big side** — replaces a hash join whenever
one side fits in the object store.

Each join here takes one of two physical shapes, written once:

- **broadcast**: the small side is collected on the driver into one
  :class:`~nativeextractor_ray.functions.hashing.SortedLookup`
  (:func:`_collect_lookup`), ``ray.put`` once, and every batch of the big
  side probes it inside ``map_batches``;
- **shuffle**: both sides are padded to one non-null schema
  (:func:`_union_side`), unioned, and co-located by key with
  :func:`~nativeextractor_ray.pipelines.common.exchange`; the body
  resolves every key of its block with one vectorized pandas
  ``merge`` / ``groupby`` / ``isin``.

Each query chooses between them with the size planner in
:mod:`~nativeextractor_ray.pipelines.common`: a side that folds on the
driver is gated on ``DRIVER_BOUND``, a side that broadcasts on
``BROADCAST_BOUND``; tests force the shuffle shape by setting a bound
to 0.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.functions.hashing import (
    ExactIdFilter, SortedLookup, sorted_lookup)
from nativeextractor_ray.pipelines import common
from nativeextractor_ray.pipelines.common import exchange, fits, measured


def _us(col) -> np.ndarray:
    """A timestamp column as int64 microseconds since the epoch."""
    return col.to_numpy().astype("datetime64[us]").view(np.int64)


def _collect_lookup(ds, key: str, *cols: str, fold=None) -> SortedLookup:
    """Collect ``key`` and ``cols`` of a bounded dataset on the driver into
    one :class:`SortedLookup` (timestamps as int64 µs).  ``fold`` (a ufunc
    such as ``np.add``) merges the rows of one key into one row."""
    from nativeextractor_ray.functions.blocks import arrow_blocks

    blocks = list(arrow_blocks(ds, stream=False))

    def column(c: str) -> np.ndarray:
        if not blocks:
            return np.array([], np.int64)
        a = np.concatenate([b.column(c).to_numpy() for b in blocks])
        return a.astype("datetime64[us]").view(np.int64) \
            if a.dtype.kind == "M" else a

    side = SortedLookup(column(key), *(column(c) for c in cols))
    if fold is None:
        return side
    k = side.keys
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]]) if len(k) \
        else np.array([], np.intp)
    return SortedLookup(k[starts],
                        *(fold.reduceat(v, starts) for v in side.values))


def _filler(typ, n: int, value=None) -> pa.Array:
    """``n`` copies of ``value``, or of a typed non-null default ("", 0,
    False, the epoch) when ``value`` is None."""
    if value is None:
        if pa.types.is_string(typ) or pa.types.is_large_string(typ):
            value = ""
        elif pa.types.is_boolean(typ):
            value = False
        elif (pa.types.is_integer(typ) or pa.types.is_floating(typ)
              or pa.types.is_timestamp(typ)):
            value = 0
        else:
            return pa.nulls(n, typ)  # exotic types: accept the pandas widening
    return pa.repeat(pa.scalar(value, typ), n)


def _union_side(schema: pa.Schema, n: int, cols: dict) -> pa.Table:
    """One side of a tagged union under ``schema``: the arrays in ``cols``
    (a scalar there is repeated ``n`` times), and a typed non-null filler
    in every other field.  Both sides of a union pad to the same non-null
    columns: null padding would widen int64 to float64 in the pandas body
    (lossy above 2^53), and a block from one side only would lack the
    other side's columns."""
    def column(f):
        v = cols.get(f.name)
        if isinstance(v, (np.ndarray, pa.Array, pa.ChunkedArray)):
            return v
        return _filler(f.type, n, v)

    return pa.table({f.name: column(f) for f in schema}, schema=schema)


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
    """Big-big join — the path for when NEITHER side fits in a broadcast:
    orders ⋈ lineitem on orderkey, rolled up per order priority.  Both
    sides are projected to (orderkey, priority | cents) and meet in one
    tagged-union ``common.exchange`` on the orderkey; each block merges
    and rolls up per priority, and the ≤ priorities-row partials fold on
    the driver.  Sums in integer cents."""
    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    schema = pa.schema([("k", pa.int64()), ("prio", pa.string()),
                        ("cents", pa.int64()), ("is_ord", pa.bool_())])

    def tag_orders(t: pa.Table) -> pa.Table:
        return _union_side(schema, t.num_rows, {
            "k": t.column("o_orderkey"),
            "prio": pc.cast(t.column("o_orderpriority"), pa.string()),
            "is_ord": True})

    def tag_items(t: pa.Table) -> pa.Table:
        return _union_side(schema, t.num_rows, {
            "k": t.column("l_orderkey"),
            "cents": pc.cast(pc.round(pc.multiply(
                t.column("l_extendedprice"), 100.0)), pa.int64()),
            "is_ord": False})

    def join_part(df):
        o = df[df["is_ord"]][["k", "prio"]]
        l = df[~df["is_ord"]][["k", "cents"]]
        g = (l.merge(o, on="k", how="inner").groupby("prio", sort=False)
             ["cents"].agg(["size", "sum"]).reset_index())
        return pa.table({"prio": pa.array(g["prio"], pa.string()),
                         "n_items": pa.array(g["size"], pa.int64()),
                         "total_cents": pa.array(g["sum"], pa.int64())})

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    items = read_table(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])
    partials = exchange(
        orders.map_batches(tag_orders, batch_format="pyarrow")
        .union(items.map_batches(tag_items, batch_format="pyarrow")),
        ["k"], join_part)
    acc: dict = {}
    for t in arrow_blocks(partials, stream=False):
        for p_, n, c in zip(t.column("prio").to_pylist(),
                            t.column("n_items").to_pylist(),
                            t.column("total_cents").to_pylist()):
            a = acc.setdefault(p_, [0, 0])
            a[0] += n
            a[1] += c
    ks = sorted(acc)
    return pa.table({
        "o_orderpriority": pa.array(ks, pa.string()),
        "n_items": pa.array([acc[k][0] for k in ks], pa.int64()),
        "total_cents": pa.array([acc[k][1] for k in ks], pa.int64())})


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


def asof_join(left, right, by: str, on: str, right_keep: list[str],
              suffix: str = "_r"):
    """Distributed AS-OF JOIN (a join family Ray Data has no primitive
    for): for every left row, attach the LATEST right row of the same
    ``by`` key with ``right.on <= left.on`` (backward as-of, exact
    matches allowed; ties on ``on`` break to the largest right row in
    ``(on, *right_keep)`` order, deterministically).

    Partitioning assumption (documented per the custom-operator rule):
    both sides are co-located by ``by`` through ``common.exchange`` and
    each sorted block is resolved with ONE vectorized
    ``pandas.merge_asof`` pass over all of its keys (no per-key UDF
    calls, no global sort: ``on`` ordering is only ever needed *within*
    a block).  Skewed ``by`` keys cost what they cost in any keyed join;
    the merge itself stays O(n log n) in the block size.

    Left rows with no earlier right row keep nulls in the attached
    columns (left-outer semantics).  The attached columns come back named
    ``<col><suffix>``; the right side's ``on`` value itself is not
    re-emitted (attach it via ``right_keep`` under another name upstream
    if needed)."""
    import pandas as pd

    payload = [c for c in right_keep if c not in (by, on)]
    suffixed = [c + suffix for c in payload]
    # int columns must survive union null-filling and merge_asof's
    # unmatched-row float widening with ONE schema across all blocks; a
    # dataset with no rows has no schema
    lschema, rschema = left.schema(), right.schema()
    if lschema is None:
        return left  # no left rows: nothing to attach to
    int_restore = [
        f.name for f in lschema.base_schema if pa.types.is_integer(f.type)
    ] + [
        c + suffix for c in payload
        if rschema is not None
        and pa.types.is_integer(rschema.base_schema.field(c).type)
    ]

    def tag(side: int, project):
        def fn(t: pa.Table) -> pa.Table:
            t = project(t)
            return t.append_column("side", pa.array(np.full(t.num_rows, side, np.int8)))
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

    return exchange(lt.union(rt), [by], resolve)


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


def semi_anti_join(left, keys, left_key: str, anti: bool):
    """Distributed SEMI / ANTI join (EXISTS / NOT EXISTS — a join family
    Ray's ``Dataset.join`` does not expose): keep the left rows whose
    ``left_key`` does / does not appear in ``keys`` (a one-column key
    dataset).  Only key presence matters — the right side's payload never
    ships, which is what makes semi-joins cheaper than an inner join +
    re-dedup at 100 TB.

    Scale shape: the key side is first shrunk to per-batch DISTINCT keys
    (combiner), then either (a) collected + broadcast as ONE sorted int64
    array (:class:`ExactIdFilter`) when under ``BROADCAST_BOUND`` —
    membership is a vectorized ``np.searchsorted`` probe inside a
    streaming ``map_batches``, the trie-probe shape of
    `/root/reference/src/ner.c:29-31` — or (b) both sides are co-located
    by key through ``common.exchange`` (one shuffle of 8-byte keys + the
    left rows) and each block resolves membership locally.  Path (b)
    keeps nothing on the driver and is forced in tests."""
    import ray

    def distinct_keys(t: pa.Table) -> pa.Table:
        # NULL on the key side matches nothing (SQL `x = NULL` is never
        # true) — drop it here so neither membership path ever sees one.
        k = pc.drop_null(pc.unique(t.column(t.column_names[0])))
        return pa.table({"k": pc.cast(k, pa.int64())})

    key_ds = keys.map_batches(distinct_keys, batch_format="pyarrow")

    key_ds, nbytes = measured(key_ds)
    if fits(nbytes, common.BROADCAST_BOUND):
        side = ray.put(ExactIdFilter(_collect_lookup(key_ds, "k").keys))

        def probe(t: pa.Table) -> pa.Table:
            lk, valid = fk_int64(t.column(left_key))
            hit = ray.get(side).contains(lk, valid)  # NULL matches nothing
            return t.filter(pa.array(~hit if anti else hit))

        return left.map_batches(probe, batch_format="pyarrow")

    # key rows carry fillers in the left's payload columns and their key
    # value in left_key itself (see _union_side)
    lschema = left.schema()
    if lschema is None:
        return left  # a dataset with no rows has no schema: nothing to keep
    lschema = lschema.base_schema
    lcols = lschema.names
    schema = pa.schema(list(lschema) + [
        ("k", pa.int64()), ("k_valid", pa.bool_()), ("is_key", pa.bool_())])

    def tag_left(t: pa.Table) -> pa.Table:
        k, valid = fk_int64(t.column(left_key))
        return _union_side(schema, t.num_rows, {
            **{c: t.column(c) for c in lcols},
            "k": k, "k_valid": valid, "is_key": False})

    def tag_key(t: pa.Table) -> pa.Table:
        return _union_side(schema, t.num_rows, {
            left_key: t.column("k"), "k": t.column("k"),
            "k_valid": True, "is_key": True})

    def resolve(df):
        keys_here = df.loc[df["is_key"], "k"].to_numpy()
        l = df[~df["is_key"]]
        # membership on the filled int64 "k" column masked by "k_valid"
        # (not the raw left_key, which pandas would have widened to
        # float64 + NaN on any null): exact above 2^53, NULL never hits.
        hit = np.isin(l["k"].to_numpy(), keys_here) \
            & l["k_valid"].to_numpy()
        return (l[~hit if anti else hit])[lcols]

    return exchange(left.map_batches(tag_left, batch_format="pyarrow")
                    .union(key_ds.map_batches(tag_key,
                                              batch_format="pyarrow")),
                    ["k"], resolve)


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
    return semi_anti_join(cust, keys, "c_custkey", anti=True)


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
       sorted-array probe under ``BROADCAST_BOUND`` — the revenue side
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
        "o_custkey", anti=False,
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

    rev_parts = items.map_batches(rev_partial, batch_format="pyarrow")

    # Gate on the ORDERS row count (metadata only): when every per-order
    # 16-byte (key, cents) pair fits the driver bound, the per-order
    # revenue rollup folds on the driver (the Q21 lesson — partial
    # volume is bounded by orders × blocks) and the date attach + top-k
    # finish run as local array ops: ZERO AllToAll in the whole query.
    # Above the bound the distributed groupby + attach + per-block top-k
    # pipeline runs; a pytest forces bound=0 and asserts both paths
    # bit-identical.
    if fits(table_nrows(sf_dir, "orders"), common.DRIVER_BOUND, 16):
        rev = _collect_lookup(rev_parts, "l_orderkey", "revenue_c",
                              fold=np.add)
        # filtered orders (o_orderkey, o_orderdate) — same collection the
        # broadcast attach performs; inner-join + top-k locally
        hit, jd = _collect_lookup(orders_f, "o_orderkey",
                                  "o_orderdate").get(rev.keys)
        jk, jc = rev.keys[hit], rev.values[0][hit]
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

    joined = _attach_order_dates(rev, orders_f)
    # top-k via per-block partials + driver fold — the sort+limit(k)
    # AllToAll was pure fixed cost for k=10 rows
    return _topk_fold(joined, ["revenue_c", "o_orderkey"],
                      [True, False], k, Q3_SCHEMA)


def _attach_order_dates(rev, orders_f):
    """Inner-attach ``o_orderdate`` onto ``(l_orderkey, revenue_c)`` rows.

    Broadcast path: the doubly-filtered orders collect as ONE sorted
    (key, date-µs) lookup, ``ray.put`` once; the revenue side — which
    is already partitioned by orderkey from its groupby — streams through
    a vectorized ``searchsorted`` probe with no further shuffle.  Merge
    path: a tagged union co-located by key through ``common.exchange``
    (identical non-null columns on both sides, :func:`_union_side`), one
    pandas inner merge per block."""
    import ray

    kd = orders_f.select_columns(["o_orderkey", "o_orderdate"])

    kd, nbytes = measured(kd)
    if fits(nbytes, common.BROADCAST_BOUND):
        side = ray.put(_collect_lookup(kd, "o_orderkey", "o_orderdate"))

        def probe(t: pa.Table) -> pa.Table:
            hit, dates = ray.get(side).get(t.column("l_orderkey").to_numpy())
            t = t.filter(pa.array(hit))
            return pa.table({
                "o_orderkey": t.column("l_orderkey"),
                "revenue_c": t.column("revenue_c"),
                "o_orderdate": pa.array(dates.view("datetime64[us]")),
            })

        return rev.map_batches(probe, batch_format="pyarrow")

    schema = pa.schema([("k", pa.int64()), ("revenue_c", pa.int64()),
                        ("date_us", pa.int64()), ("is_rev", pa.bool_())])

    def tag_rev(t: pa.Table) -> pa.Table:
        return _union_side(schema, t.num_rows, {
            "k": t.column("l_orderkey"), "revenue_c": t.column("revenue_c"),
            "is_rev": True})

    def tag_ord(t: pa.Table) -> pa.Table:
        return _union_side(schema, t.num_rows, {
            "k": t.column("o_orderkey"),
            "date_us": _us(t.column("o_orderdate")), "is_rev": False})

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

    return exchange(rev.map_batches(tag_rev, batch_format="pyarrow")
                    .union(kd.map_batches(tag_ord, batch_format="pyarrow")),
                    ["k"], resolve)


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
      for the :func:`order_priority_totals` exchange join).
    - orders filters on the date window and the region's customer
      nations INSIDE ``map_batches`` — the join's only shuffled side is
      this doubly-pruned (o_orderkey, cust_nation) projection.
    - lineitem never shuffles whole either: projected to
      (l_orderkey, supp_nation, revenue cents) before the single
      tagged-union ``common.exchange`` on orderkey (the two_hop_counts
      lesson: same exchange as ``Dataset.join``, no aggregator
      overhead — measured 12.2 s → 7.2 s at sf0.1 bit-identically).
    - the local-supplier predicate (supp_nation == cust_nation) AND the
      per-nation rollup resolve INSIDE each block; ≤ nations rows
      leave it for the driver fold.

    Output: ``(n_name, revenue_c)`` — revenue in exact integer cents
    (row-wise half-up ``floor(x*100+0.5)``, the repo float-parity rule).
    """
    import ray

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
    # both pruned sides are already the two sides of the tagged union:
    # ``nation`` is the customer's nation on orders, the supplier's on
    # lineitem
    schema = pa.schema([("k", pa.int64()), ("nation", pa.int64()),
                        ("rev_c", pa.int64()), ("is_ord", pa.bool_())])

    def prune_orders(t: pa.Table) -> pa.Table:
        _s2n, c2n_, nset = ray.get(side)
        d = t.column("o_orderdate").to_numpy()
        keep = (d >= lo) & (d < hi)
        cn = c2n_[t.column("o_custkey").to_numpy()[keep]]
        in_region = np.isin(cn, np.fromiter(nset, dtype=np.int64))
        return _union_side(schema, int(in_region.sum()), {
            "k": t.column("o_orderkey").to_numpy()[keep][in_region],
            "nation": cn[in_region], "is_ord": True})

    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"])

    def prune_items(t: pa.Table) -> pa.Table:
        s2n_, _c2n, _ = ray.get(side)
        ep = t.column("l_extendedprice").to_numpy()
        disc = t.column("l_discount").to_numpy()
        return _union_side(schema, t.num_rows, {
            "k": t.column("l_orderkey"),
            "nation": s2n_[t.column("l_suppkey").to_numpy()],
            "rev_c": np.floor(ep * (1.0 - disc) * 100.0 + 0.5)
            .astype(np.int64),
            "is_ord": False})

    def nation_revenue(nk: np.ndarray, rev: np.ndarray) -> pa.Table:
        g = pa.table({"nk": nk, "rev_c": rev}).group_by("nk").aggregate(
            [("rev_c", "sum")])
        return pa.table({"nk": g.column("nk"),
                         "rev_c": g.column("rev_c_sum")})

    # Gate on the ORDERS row count (metadata only): the doubly-pruned
    # (orderkey, cust_nation) projection is 16 B/order upper-bound —
    # under the broadcast bound it collects once, broadcasts sorted, and
    # lineitem streams through a probe whose ≤25-row nation rollups fold
    # on the driver: ZERO AllToAll for the 6-table join.  Above it the
    # single exchange on orderkey runs (the two_hop_counts lesson — same
    # exchange as Dataset.join without its aggregator overhead), with the
    # local-supplier predicate AND the per-nation rollup resolved inside
    # each block; a pytest forces bound=0 and asserts both paths
    # bit-identical.
    from nativeextractor_ray.functions.blocks import arrow_blocks

    pruned = orders.map_batches(prune_orders, batch_format="pyarrow")
    lines = items.map_batches(prune_items, batch_format="pyarrow")
    if fits(table_nrows(sf_dir, "orders"), common.BROADCAST_BOUND, 16):
        oside = ray.put(_collect_lookup(pruned, "k", "nation"))

        def probe_items(t: pa.Table) -> pa.Table:
            hit, cn = ray.get(oside).get(t.column("k").to_numpy())
            sn = t.column("nation").to_numpy()[hit]
            local = cn == sn
            return nation_revenue(
                sn[local], t.column("rev_c").to_numpy()[hit][local])

        partials = lines.map_batches(probe_items, batch_format="pyarrow")
    else:
        def join_part(df):
            o = df[df["is_ord"]][["k", "nation"]]
            l = df[~df["is_ord"]][["k", "nation", "rev_c"]]
            m = l.merge(o, on=["k", "nation"], how="inner")
            return nation_revenue(m["nation"].to_numpy(np.int64),
                                  m["rev_c"].to_numpy(np.int64))

        partials = exchange(pruned.union(lines), ["k"], join_part)

    # the partials are ≤ |nations| rows each — fold them on the driver
    # instead of a second AllToAll (the Q21 lesson)
    acc: dict[int, int] = {}
    for t in arrow_blocks(partials, stream=False):
        for k, v in zip(t.column("nk").to_pylist(),
                        t.column("rev_c").to_pylist()):
            acc[k] = acc.get(k, 0) + int(v)
    nks = sorted(acc)
    return pa.table({
        "n_name": pa.array([names[k] for k in nks], pa.string()),
        "revenue_c": pa.array([acc[k] for k in nks], pa.int64())})


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
       (key, qty) arrays under ``BROADCAST_BOUND``, tagged-union
       co-partitioned merge above it — the orders side never shuffles a
       second time on the broadcast path.
    4. ``c_name`` probes a broadcast customer dim (sorted custkey +
       name array — the trie-probe shape), then ONE sort+limit(k).

    Output: ``(c_name, c_custkey, o_orderkey, o_orderdate,
    total_price_c, sum_qty)`` — totalprice desc, orderkey asc."""
    import ray
    from ray.data.aggregate import Sum

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
    # folds on the driver (the Q21 lesson) and the hot set broadcasts
    # straight into the orders probe: the whole query runs with ZERO
    # AllToAll.  Above the bound the distributed groupby + semi-join +
    # attach pipeline runs; a pytest forces bound=0 and asserts both
    # paths bit-identical.
    hot_side = None
    if fits(table_nrows(sf_dir, "orders"), common.DRIVER_BOUND, 16):
        q = _collect_lookup(
            items.map_batches(qty_partial, batch_format="pyarrow"),
            "l_orderkey", "sum_qty", fold=np.add)
        keep = q.values[0] > threshold
        hot_side = ray.put(SortedLookup(q.keys[keep], q.values[0][keep]))
    else:
        # the HAVING output feeds two consumers (semi-join keys, attach)
        hot, hot_bytes = measured(
            items.map_batches(qty_partial, batch_format="pyarrow")
            .groupby("l_orderkey")
            .aggregate(Sum("sum_qty", alias_name="sum_qty"))
            .map_batches(hot_only, batch_format="pyarrow"))

    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate",
                         "o_totalprice"])
    if hot_side is not None:
        def hot_filter(t: pa.Table) -> pa.Table:
            hit = ray.get(hot_side).get(t.column("o_orderkey").to_numpy())[0]
            return t.filter(pa.array(hit))

        orders_f = orders.map_batches(hot_filter, batch_format="pyarrow")
    else:
        orders_f = semi_anti_join(
            orders, hot.select_columns(["l_orderkey"]),
            "o_orderkey", anti=False)

    cust = load_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
    cust_side = ray.put(SortedLookup(cust.column("c_custkey").to_numpy(),
                                     cust.column("c_name")))

    def finish_row(t: pa.Table, qv: np.ndarray) -> pa.Table:
        _, names = ray.get(cust_side).get(t.column("o_custkey").to_numpy())
        price_c = pc.cast(pc.round(pc.multiply(
            t.column("o_totalprice"), 100.0)), pa.int64())
        return pa.table({
            "c_name": names,
            "c_custkey": t.column("o_custkey"),
            "o_orderkey": t.column("o_orderkey"),
            "o_orderdate": t.column("o_orderdate"),
            "total_price_c": price_c,
            "sum_qty": pa.array(qv),
        })

    if hot_side is not None or fits(hot_bytes, common.BROADCAST_BOUND):
        if hot_side is None:
            hot_side = ray.put(_collect_lookup(hot, "l_orderkey", "sum_qty"))

        def probe(t: pa.Table) -> pa.Table:
            # semi-join already filtered to hot orders; lookup is total
            _, qtys = ray.get(hot_side).get(t.column("o_orderkey").to_numpy())
            return finish_row(t, qtys)

        joined = orders_f.map_batches(probe, batch_format="pyarrow")
    else:
        schema = pa.schema([
            ("k", pa.int64()), ("o_custkey", pa.int64()),
            ("date_us", pa.int64()), ("price_c", pa.int64()),
            ("sum_qty", pa.int64()), ("is_hot", pa.bool_())])

        def tag_hot(t: pa.Table) -> pa.Table:
            return _union_side(schema, t.num_rows, {
                "k": t.column("l_orderkey"), "sum_qty": t.column("sum_qty"),
                "is_hot": True})

        def tag_ord(t: pa.Table) -> pa.Table:
            return _union_side(schema, t.num_rows, {
                "k": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "date_us": _us(t.column("o_orderdate")),
                "price_c": pc.cast(pc.round(pc.multiply(
                    t.column("o_totalprice"), 100.0)), pa.int64()),
                "is_hot": False})

        def resolve(df):
            import pandas as pd

            h = df[df["is_hot"]][["k", "sum_qty"]]
            o = df[~df["is_hot"]][["k", "o_custkey", "date_us", "price_c"]]
            m = o.merge(h, on="k", how="inner")
            _, names = ray.get(cust_side).get(m["o_custkey"].to_numpy())
            return pd.DataFrame({
                "c_name": names.to_pandas(),
                "c_custkey": m["o_custkey"].to_numpy(),
                "o_orderkey": m["k"].to_numpy(),
                "o_orderdate": pd.Series(
                    m["date_us"].to_numpy().astype(np.int64)
                    .view("datetime64[us]")),
                "total_price_c": m["price_c"].to_numpy(),
                "sum_qty": m["sum_qty"].to_numpy(),
            })

        joined = exchange(hot.map_batches(tag_hot, batch_format="pyarrow")
                          .union(orders_f.map_batches(
                              tag_ord, batch_format="pyarrow")),
                          ["k"], resolve)

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
    ``(l_partkey, qty, price_c)`` and co-locates by partkey through
    ``common.exchange``; inside each block a vectorized pandas groupby
    computes every part's exact ``(sum_qty, count)`` (integers —
    quantities are integral), the correlated predicate evaluates
    ALL-INTEGER (``5 * qty * cnt < sum_qty`` ⟺ ``qty < 0.2 * avg`` —
    no float division, exact parity with the oracle), and only per-brand
    partial rows leave the block for the tiny final groupby.  The
    brand lookup broadcasts the ``part`` dim once (``p_partkey →
    p_brand``, the gazetteer shape).

    Output: ``(p_brand, n_items, revenue_c)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import load_table, read_table

    part_dim = load_table(sf_dir, "part", columns=["p_partkey", "p_brand"])
    part_side = ray.put(SortedLookup(part_dim.column("p_partkey").to_numpy(),
                                     part_dim.column("p_brand")))

    items = read_table(sf_dir, "lineitem",
                       ["l_partkey", "l_quantity", "l_extendedprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": t.column("l_partkey"),
            "qty": pa.array(t.column("l_quantity").to_numpy()
                            .astype(np.int64)),
            "price_c": pa.array(
                np.floor(t.column("l_extendedprice").to_numpy() * 100.0
                         + 0.5).astype(np.int64)),
        })

    def resolve(df):
        import pandas as pd

        g = df.groupby("l_partkey")["qty"].agg(["sum", "count"])
        s = g["sum"].reindex(df["l_partkey"]).to_numpy()
        c = g["count"].reindex(df["l_partkey"]).to_numpy()
        keep = 5 * df["qty"].to_numpy() * c < s
        kept = df[keep]
        hit, brands = ray.get(part_side).get(kept["l_partkey"].to_numpy())
        out = pd.DataFrame({
            "p_brand": brands.to_pandas(),
            "n_items": np.ones(len(brands), np.int64),
            "revenue_c": kept["price_c"].to_numpy()[hit],
        })
        p = out.groupby("p_brand", as_index=False).agg(
            n_items=("n_items", "sum"), revenue_c=("revenue_c", "sum"))
        return p

    partials = exchange(items.map_batches(prep, batch_format="pyarrow"),
                        ["l_partkey"], resolve)
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


def order_fill_report(sf_dir: str):
    """Per-order fulfillment report — the LEFT OUTER join shape: EVERY
    order appears once, with its line count and total quantity, zero-
    filled when no line items exist (the rows an inner join silently
    drops).

    Scale shape: ``lineitem`` reduces to per-order (n_items, sum_qty)
    int64 partials + one orderkey groupby (16-byte rows shuffle, never
    payloads); ``orders`` then streams through a size-gated attach —
    broadcast sorted arrays with a missing→0 probe under
    ``common.BROADCAST_BOUND``, a tagged-union LEFT merge through
    ``common.exchange`` above it.  The orders side never shuffles on the
    broadcast path.

    Output: ``(o_orderkey, o_orderstatus, n_items, sum_qty)``."""
    import ray
    from ray.data.aggregate import Sum

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

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])

    if fits(table_nrows(sf_dir, "orders"), common.DRIVER_BOUND, 24):
        agg, small = items.map_batches(partial, batch_format="pyarrow"), True
    else:
        agg, nbytes = measured(
            items.map_batches(partial, batch_format="pyarrow")
            .groupby("l_orderkey")
            .aggregate(Sum("n_items", alias_name="n_items"),
                       Sum("sum_qty", alias_name="sum_qty"))
            .map_batches(pin, batch_format="pyarrow"))
        small = fits(nbytes, common.BROADCAST_BOUND)

    if small:
        side = ray.put(_collect_lookup(agg, "l_orderkey", "n_items",
                                       "sum_qty", fold=np.add))

        def probe(t: pa.Table) -> pa.Table:
            hit, nv, qv = ray.get(side).get(t.column("o_orderkey").to_numpy())
            n_out = np.zeros(t.num_rows, np.int64)
            q_out = np.zeros(t.num_rows, np.int64)
            n_out[hit], q_out[hit] = nv, qv
            return pa.table({
                "o_orderkey": t.column("o_orderkey"),
                "o_orderstatus": t.column("o_orderstatus"),
                "n_items": pa.array(n_out),
                "sum_qty": pa.array(q_out),
            })

        return orders.map_batches(probe, batch_format="pyarrow")

    schema = pa.schema([("k", pa.int64()), ("o_orderstatus", pa.string()),
                        ("n_items", pa.int64()), ("sum_qty", pa.int64()),
                        ("is_agg", pa.bool_())])

    def tag_agg(t: pa.Table) -> pa.Table:
        return _union_side(schema, t.num_rows, {
            "k": t.column("l_orderkey"), "n_items": t.column("n_items"),
            "sum_qty": t.column("sum_qty"), "is_agg": True})

    def tag_ord(t: pa.Table) -> pa.Table:
        return _union_side(schema, t.num_rows, {
            "k": t.column("o_orderkey"),
            "o_orderstatus": t.column("o_orderstatus"), "is_agg": False})

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

    return exchange(agg.map_batches(tag_agg, batch_format="pyarrow")
                    .union(orders.map_batches(tag_ord,
                                              batch_format="pyarrow")),
                    ["k"], resolve)


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


def late_shipment_priority(sf_dir: str):
    """TPC-H Q4 shape — order-priority checking with a correlated EXISTS:
    per ``o_orderpriority``, how many orders have AT LEAST ONE lineitem
    shipped after the order date (``EXISTS (… WHERE l_orderkey =
    o_orderkey AND l_shipdate > o_orderdate)``).

    The EXISTS collapses algebraically: ``∃ l: ship > odate  ⟺
    max(ship) > odate`` — so lineitem reduces to per-order MAX partials
    inside each batch (16 bytes/row, dates as int64 µs) BEFORE its only
    shuffle, and the correlated subquery becomes one tagged-union merge
    co-located by orderkey through ``common.exchange`` (the
    ``_attach_order_dates`` merge shape).  Per-block priority counts are
    partials; the driver folds ≤ 5 rows per block.

    Output: ``(o_orderpriority, n_orders)``."""
    import ray

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table, table_nrows

    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    od = read_table(sf_dir, "orders",
                    ["o_orderkey", "o_orderdate", "o_orderpriority"])
    schema = pa.schema([("k", pa.int64()), ("date_us", pa.int64()),
                        ("prio", pa.string()), ("is_li", pa.bool_())])

    def li_max(t: pa.Table) -> pa.Table:
        g = t.group_by("l_orderkey").aggregate([("l_shipdate", "max")])
        return _union_side(schema, g.num_rows, {
            "k": g.column("l_orderkey"),
            "date_us": _us(g.column("l_shipdate_max")), "is_li": True})

    def priority_counts(prio) -> pa.Table:
        g = pa.table({"o_orderpriority": prio}, schema=pa.schema(
            [("o_orderpriority", pa.string())])).group_by(
            "o_orderpriority").aggregate([("o_orderpriority", "count")])
        return pa.table({
            "o_orderpriority": g.column("o_orderpriority"),
            "n": pc.cast(g.column("o_orderpriority_count"), pa.int64())})

    # Gate on the ORDERS row count (metadata only): the per-order
    # max-shipdate fold is 16 B/order — under the bound it folds on the
    # driver and broadcasts into a streaming orders probe whose ≤5-row
    # priority partials fold locally: ZERO AllToAll.
    if fits(table_nrows(sf_dir, "orders"), common.DRIVER_BOUND, 16):
        side = ray.put(_collect_lookup(
            li.map_batches(li_max, batch_format="pyarrow"),
            "k", "date_us", fold=np.maximum))

        def probe(t: pa.Table) -> pa.Table:
            hit, ship = ray.get(side).get(t.column("o_orderkey").to_numpy())
            t = t.filter(pa.array(hit))
            late = ship > _us(t.column("o_orderdate"))
            return priority_counts(
                t.column("o_orderpriority").filter(pa.array(late)))

        partials = od.map_batches(probe, batch_format="pyarrow")
    else:
        def od_tag(t: pa.Table) -> pa.Table:
            return _union_side(schema, t.num_rows, {
                "k": t.column("o_orderkey"),
                "date_us": _us(t.column("o_orderdate")),
                "prio": t.column("o_orderpriority"), "is_li": False})

        def resolve(df) -> pa.Table:
            ship = df[df["is_li"]].groupby("k", sort=False)["date_us"].max()
            o = df[~df["is_li"]]
            m = o.merge(ship.rename("ship_us"), left_on="k",
                        right_index=True, how="inner")
            return priority_counts(
                m["prio"][m["ship_us"] > m["date_us"]].to_numpy(object))

        partials = exchange(
            li.map_batches(li_max, batch_format="pyarrow")
            .union(od.map_batches(od_tag, batch_format="pyarrow")),
            ["k"], resolve)

    # the partials are ≤ 5 rows each — fold them on the driver instead
    # of a second AllToAll (the Q21 lesson)
    acc: dict[str, int] = {}
    for t in arrow_blocks(partials, stream=False):
        for p, n in zip(t.column("o_orderpriority").to_pylist(),
                        t.column("n").to_pylist()):
            acc[p] = acc.get(p, 0) + int(n)
    prios = sorted(acc)
    return pa.table({
        "o_orderpriority": pa.array(prios, pa.string()),
        "n_orders": pa.array([acc[p] for p in prios], pa.int64())})


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
        "c_custkey", anti=True)

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
    That slice is co-located by partkey ONCE through ``common.exchange``;
    because a part's rows then share a block, the min, the equality
    join-back AND the ``(part, supplier)`` dedup all resolve inside the
    block with a vectorized transform — nothing rejoins across blocks,
    nothing returns to the driver.  Supplier names attach from a
    broadcast ``suppkey → name`` dim (one ``ray.put``).

    Output: ``(p_partkey, min_price_c, s_suppkey, s_name)`` — one row
    per (part, cheapest supplier), ties kept like the oracle."""
    import ray

    from nativeextractor_ray.sources.tables import load_table, read_table

    part_dim = load_table(sf_dir, "part", columns=["p_partkey", "p_brand"])
    sup = load_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    side = ray.put((
        ExactIdFilter(part_dim.filter(pc.equal(part_dim.column("p_brand"),
                                               brand))
                      .column("p_partkey").to_numpy()),
        SortedLookup(sup.column("s_suppkey").to_numpy(),
                     sup.column("s_name"))))

    items = read_table(sf_dir, "lineitem",
                       ["l_partkey", "l_suppkey", "l_extendedprice"])

    def prune(t: pa.Table) -> pa.Table:
        brand_keys, _ = ray.get(side)
        lk = t.column("l_partkey").to_numpy()
        hit = brand_keys.contains(lk)
        return pa.table({
            "l_partkey": pa.array(lk[hit]),
            "l_suppkey": pa.array(t.column("l_suppkey").to_numpy()[hit]),
            "price_c": pa.array(
                np.floor(t.column("l_extendedprice").to_numpy()[hit]
                         * 100.0 + 0.5).astype(np.int64)),
        })

    def resolve(df):
        import pandas as pd

        lo = df.groupby("l_partkey")["price_c"].transform("min")
        kept = df[df["price_c"].to_numpy() == lo.to_numpy()]
        kept = kept.drop_duplicates(["l_partkey", "l_suppkey"])
        _, snames = ray.get(side)[1].get(kept["l_suppkey"].to_numpy())
        return pd.DataFrame({
            "p_partkey": kept["l_partkey"].to_numpy(np.int64),
            "min_price_c": kept["price_c"].to_numpy(np.int64),
            "s_suppkey": kept["l_suppkey"].to_numpy(np.int64),
            "s_name": snames.to_pandas(),
        })

    return exchange(items.map_batches(prune, batch_format="pyarrow"),
                    ["l_partkey"], resolve)


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
    brands = sorted({a[1] for a in arms})
    bid = {b: i for i, b in enumerate(brands)}
    side = ray.put(SortedLookup(
        part_dim.column("p_partkey").to_numpy(),
        np.array([bid.get(b, -1) for b in
                  part_dim.column("p_brand").to_pylist()], np.int64),
        part_dim.column("p_size").to_numpy().astype(np.int64)))
    arm_specs = [(name, bid[b], slo, shi, qlo, qhi)
                 for name, b, slo, shi, qlo, qhi in arms]

    items = read_table(sf_dir, "lineitem",
                       ["l_partkey", "l_quantity", "l_extendedprice",
                        "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        # a line whose part is missing matches no arm
        hit, b, s = ray.get(side).get(t.column("l_partkey").to_numpy())
        # half-up, matching the oracle's floor(q + 0.5) — a plain
        # astype(int64) truncates toward zero while DuckDB's CAST rounds
        qty = np.floor(t.column("l_quantity").to_numpy()[hit]
                       + 0.5).astype(np.int64)
        rev = np.floor(t.column("l_extendedprice").to_numpy()[hit]
                       * (1.0 - t.column("l_discount").to_numpy()[hit])
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
      tagged-union exchange on orderkey (``common.exchange``);
    - in-block the cross predicate (``supp ≠ cust``, both ∈ {a, b})
      and the (sn, cn, year) rollup resolve vectorized, so ≤ 2·years
      partial rows leave each block for the driver fold.

    Output: ``(supp_nation, cust_nation, l_year, revenue_c)``."""
    import ray

    from nativeextractor_ray.functions.blocks import arrow_blocks
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

    # both pruned sides are already the two sides of the tagged union:
    # ``nation`` is the customer's nation on orders, the supplier's on
    # lineitem
    schema = pa.schema([("k", pa.int64()), ("nation", pa.int64()),
                        ("year", pa.int64()), ("rev_c", pa.int64()),
                        ("is_ord", pa.bool_())])
    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def prune_orders(t: pa.Table) -> pa.Table:
        _s, c2n_ = ray.get(side)
        cn = c2n_[t.column("o_custkey").to_numpy()]
        keep = (cn == ka) | (cn == kb)
        return _union_side(schema, int(keep.sum()), {
            "k": t.column("o_orderkey").to_numpy()[keep],
            "nation": cn[keep], "is_ord": True})

    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount", "l_shipdate"])

    def prune_items(t: pa.Table) -> pa.Table:
        s2n_, _c = ray.get(side)
        sn = s2n_[t.column("l_suppkey").to_numpy()]
        keep = (sn == ka) | (sn == kb)
        ep = t.column("l_extendedprice").to_numpy()[keep]
        disc = t.column("l_discount").to_numpy()[keep]
        return _union_side(schema, int(keep.sum()), {
            "k": t.column("l_orderkey").to_numpy()[keep],
            "nation": sn[keep],
            "year": (t.column("l_shipdate").to_numpy()[keep]
                     .astype("datetime64[Y]").astype(np.int64) + 1970),
            "rev_c": np.floor(ep * (1.0 - disc) * 100.0 + 0.5)
            .astype(np.int64),
            "is_ord": False})

    def trade(sn, cn, year, rev) -> pa.Table:
        g = pa.table({"sn": sn, "cn": cn, "l_year": year, "rev_c": rev}) \
            .group_by(["sn", "cn", "l_year"]).aggregate([("rev_c", "sum")])
        return pa.table({"sn": g.column("sn"), "cn": g.column("cn"),
                         "l_year": g.column("l_year"),
                         "rev_c": g.column("rev_c_sum")})

    # Gate on the ORDERS row count (metadata only): the pruned
    # (orderkey, cust_nation) side is ≤16 B/order — under the bound it
    # collects once, broadcasts sorted, and lineitem streams through a
    # probe whose ≤2·years rollup partials fold on the driver: ZERO
    # AllToAll.  A pytest forces bound=0 onto the exchange path.
    pruned = orders.map_batches(prune_orders, batch_format="pyarrow")
    lines = items.map_batches(prune_items, batch_format="pyarrow")
    if fits(table_nrows(sf_dir, "orders"), common.BROADCAST_BOUND, 16):
        oside = ray.put(_collect_lookup(pruned, "k", "nation"))

        def probe_items(t: pa.Table) -> pa.Table:
            hit, cn = ray.get(oside).get(t.column("k").to_numpy())
            sn = t.column("nation").to_numpy()[hit]
            cross = cn != sn
            return trade(sn[cross], cn[cross],
                         t.column("year").to_numpy()[hit][cross],
                         t.column("rev_c").to_numpy()[hit][cross])

        partials = lines.map_batches(probe_items, batch_format="pyarrow")
    else:
        def join_part(df):
            o = df[df["is_ord"]][["k", "nation"]].rename(
                columns={"nation": "cn"})
            l = df[~df["is_ord"]][["k", "nation", "year", "rev_c"]]
            m = l.merge(o, on="k", how="inner")
            m = m[m["cn"] != m["nation"]]
            return trade(*(m[c].to_numpy(np.int64)
                           for c in ("nation", "cn", "year", "rev_c")))

        partials = exchange(pruned.union(lines), ["k"], join_part)

    # the partials are ≤ 2·years rows each — driver fold instead of a
    # second AllToAll (the Q21 lesson)
    acc: dict = {}
    for t in arrow_blocks(partials, stream=False):
        for s_, c, y, v in zip(t.column("sn").to_pylist(),
                               t.column("cn").to_pylist(),
                               t.column("l_year").to_pylist(),
                               t.column("rev_c").to_pylist()):
            acc[(s_, c, y)] = acc.get((s_, c, y), 0) + int(v)
    ks = sorted(acc)
    return pa.table({
        "supp_nation": pa.array([names[k[0]] for k in ks], pa.string()),
        "cust_nation": pa.array([names[k[1]] for k in ks], pa.string()),
        "l_year": pa.array([k[2] for k in ks], pa.int64()),
        "revenue_c": pa.array([acc[k] for k in ks], pa.int64())})


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
      ``BROADCAST_BOUND`` it broadcasts as one sorted array pair and
      lineitem partials resolve their custkey map-side — ZERO orderkey
      exchange; above the bound both sides meet in ONE tagged-union
      ``common.exchange`` on orderkey (tests force 0, both paths
      bit-identical);
    - after the custkey groupby, each block keeps only its LOCAL top-k
      (per-block combiner) before the global ``sort().limit(k)`` — the
      driver-side sort sees ≤ k·blocks rows, never |customers|;
    - customer attributes and nation names attach to the ≤ k winners
      via one probe of the customer dim (sorted custkey arrays).

    Deterministic tie-break: revenue desc, then custkey asc (both
    engines).  Output: ``(c_custkey, c_name, n_name, c_acctbal_c,
    revenue_c)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
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

    def cust_revenue(cust, rev_c) -> pa.Table:
        g = pa.table({"c_custkey": cust, "revenue_c": rev_c}).group_by(
            "c_custkey").aggregate([("revenue_c", "sum")])
        return pa.table({"c_custkey": g.column("c_custkey"),
                         "revenue_c": g.column("revenue_c_sum")})

    kd, nbytes = measured(kd)
    if fits(nbytes, common.BROADCAST_BOUND):
        side = ray.put(_collect_lookup(kd, "k", "cust"))

        def probe(t: pa.Table) -> pa.Table:
            hit, cust = ray.get(side).get(t.column("k").to_numpy())
            return cust_revenue(cust, t.column("rev_c").to_numpy()[hit])

        partials = rev.map_batches(probe, batch_format="pyarrow")
    else:
        schema = pa.schema([("k", pa.int64()), ("cust", pa.int64()),
                            ("rev_c", pa.int64()), ("is_ord", pa.bool_())])

        def tag_ord(t: pa.Table) -> pa.Table:
            return _union_side(schema, t.num_rows, {
                "k": t.column("k"), "cust": t.column("cust"),
                "is_ord": True})

        def tag_rev(t: pa.Table) -> pa.Table:
            return _union_side(schema, t.num_rows, {
                "k": t.column("k"), "rev_c": t.column("rev_c"),
                "is_ord": False})

        def join_part(df):
            o = df[df["is_ord"]][["k", "cust"]]
            l = df[~df["is_ord"]][["k", "rev_c"]]
            m = l.merge(o, on="k", how="inner")
            return cust_revenue(m["cust"].to_numpy(np.int64),
                                m["rev_c"].to_numpy(np.int64))

        partials = exchange(
            kd.map_batches(tag_ord, batch_format="pyarrow")
            .union(rev.map_batches(tag_rev, batch_format="pyarrow")),
            ["k"], join_part)

    per_cust = partials.groupby("c_custkey").aggregate(
        Sum("revenue_c", alias_name="revenue_c"))

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
    parts = list(arrow_blocks(top, stream=False))
    t = (pa.concat_tables(parts, promote_options="default") if parts
         else pa.table({"c_custkey": pa.array([], pa.int64()),
                        "revenue_c": pa.array([], pa.int64())}))

    cust = load_table(sf_dir, "customer",
                      columns=["c_custkey", "c_name", "c_nationkey",
                               "c_acctbal"])
    nat = load_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    nmap = {r["n_nationkey"]: r["n_name"] for r in nat.to_pylist()}
    _, names, nkeys, bal_c = SortedLookup(
        cust.column("c_custkey").to_numpy(), cust.column("c_name"),
        cust.column("c_nationkey").to_numpy().astype(np.int64),
        np.floor(cust.column("c_acctbal").to_numpy() * 100.0
                 + 0.5).astype(np.int64)).get(t.column("c_custkey").to_numpy())
    return pa.table({
        "c_custkey": t.column("c_custkey"),
        "c_name": names,
        "n_name": pa.array([nmap[int(n)] for n in nkeys], pa.string()),
        "c_acctbal_c": pa.array(bal_c, pa.int64()),
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

def late_line_priority_mix(sf_dir: str, late_days: int = Q12_LATE_DAYS):
    """TPC-H Q12 shape re-keyed to this star's columns (it has no
    ``l_shipmode``): among lines shipped LATE (``l_shipdate >
    o_orderdate + late_days``), count high-priority (1-URGENT / 2-HIGH)
    vs other orders per ``l_returnflag`` — the join + conditional-count
    algebra of Q12 exactly.

    Scale shape: size-gated orders attach (the Q3/Q8/Q9/Q10
    convention) — under ``BROADCAST_BOUND`` the packed
    ``orderkey → (odate, is_high)`` map broadcasts once and every
    lineitem batch resolves lateness + the per-flag conditional counts
    map-side (ZERO exchange, ≤ |flags| partial rows per batch); above
    the bound, ONE tagged-union ``common.exchange`` on orderkey (the
    :func:`nation_trade_volume` shape) with the same per-block resolve.
    Tests force 0; both paths bit-identical.

    Output: ``(l_returnflag, high_line_count, low_line_count)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    dus = int(np.timedelta64(late_days, "D")
              .astype("timedelta64[us]").astype(np.int64))
    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_orderdate", "o_orderpriority"])
    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_returnflag", "l_shipdate"])

    def odate_map(t: pa.Table) -> pa.Table:
        pr = t.column("o_orderpriority")
        return pa.table({
            "k": t.column("o_orderkey"),
            "odate": _us(t.column("o_orderdate")),
            "is_high": pc.or_(pc.equal(pr, "1-URGENT"),
                              pc.equal(pr, "2-HIGH"))})

    counts = pa.schema([("l_returnflag", pa.string()),
                        ("high_line_count", pa.int64()),
                        ("low_line_count", pa.int64())])

    def flag_counts(flag, ship, odate, high) -> pa.Table:
        g = pa.table({
            "l_returnflag": flag,
            "high_line_count": high.astype(np.int64),
            "low_line_count": (~high).astype(np.int64),
        }, schema=counts).filter(pa.array(ship > odate + dus)).group_by(
            "l_returnflag").aggregate(
            [("high_line_count", "sum"), ("low_line_count", "sum")])
        return pa.table({
            "l_returnflag": g.column("l_returnflag"),
            "high_line_count": g.column("high_line_count_sum"),
            "low_line_count": g.column("low_line_count_sum")})

    kd = orders.map_batches(odate_map, batch_format="pyarrow")
    kd, nbytes = measured(kd)
    if fits(nbytes, common.BROADCAST_BOUND):
        oside = ray.put(_collect_lookup(kd, "k", "odate", "is_high"))

        def probe(t: pa.Table) -> pa.Table:
            hit, odates, high = ray.get(oside).get(
                t.column("l_orderkey").to_numpy())
            return flag_counts(
                t.column("l_returnflag").filter(pa.array(hit)),
                _us(t.column("l_shipdate"))[hit], odates, high.astype(bool))

        partials = items.map_batches(probe, batch_format="pyarrow")
    else:
        schema = pa.schema([("k", pa.int64()), ("ts", pa.int64()),
                            ("flag", pa.string()), ("is_high", pa.bool_()),
                            ("is_ord", pa.bool_())])

        def tag_ord(t: pa.Table) -> pa.Table:
            return _union_side(schema, t.num_rows, {
                "k": t.column("k"), "ts": t.column("odate"),
                "is_high": t.column("is_high"), "is_ord": True})

        def tag_item(t: pa.Table) -> pa.Table:
            return _union_side(schema, t.num_rows, {
                "k": t.column("l_orderkey"),
                "ts": _us(t.column("l_shipdate")),
                "flag": t.column("l_returnflag"), "is_ord": False})

        def join_part(df):
            o = df[df["is_ord"]][["k", "ts", "is_high"]].rename(
                columns={"ts": "odate"})
            l = df[~df["is_ord"]][["k", "ts", "flag"]]
            m = l.merge(o, on="k", how="inner")
            return flag_counts(m["flag"].to_numpy(object),
                               m["ts"].to_numpy(np.int64),
                               m["odate"].to_numpy(np.int64),
                               m["is_high"].to_numpy(bool))

        partials = exchange(
            kd.map_batches(tag_ord, batch_format="pyarrow")
            .union(items.map_batches(tag_item, batch_format="pyarrow")),
            ["k"], join_part)

    return (partials.groupby("l_returnflag")
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
    side = ray.put(SortedLookup(sup.column("s_suppkey").to_numpy(),
                                sup.column("s_name")))

    def winners(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("total_revenue_c"), best))
        _, names = ray.get(side).get(t.column("s_suppkey").to_numpy())
        return pa.table({
            "s_suppkey": t.column("s_suppkey"),
            "s_name": names,
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

def sole_late_supplier(sf_dir: str, late_days: int = Q21_LATE_DAYS):
    """TPC-H Q21 shape — suppliers who were the ONLY late shipper on a
    multi-supplier order: the double correlated EXISTS / NOT-EXISTS
    self-join, resolved algebraically as per-order aggregates
    (``n_suppliers ≥ 2 AND n_late_suppliers = 1`` credits the late
    one).  Late = ``l_shipdate > o_orderdate + late_days``.

    Scale shape: the per-order distinct counts NEED the order's lines
    co-located, so ONE orderkey exchange is irreducible — but the
    ORDERS side of it isn't: under ``BROADCAST_BOUND`` the
    ``orderkey → odate`` map broadcasts once, lineitem resolves its
    late flag map-side and ships only DISTINCT ``(orderkey, suppkey,
    late)`` rows (a per-batch Arrow dedup combiner) into the exchange;
    above the bound orders ride the tagged union like the lines.  Both
    go through ``common.exchange`` on orderkey.  The per-order
    supplier/late distinct counts and the credit decision resolve
    vectorized in-block, so only ``(suppkey, numwait)`` partials —
    supplier-bounded — leave for the driver fold, which attaches the
    names.  Tests force the bound to 0; both paths bit-identical.

    Output: ``(s_suppkey, s_name, numwait)``, numwait > 0 rows only."""
    import ray

    from nativeextractor_ray.sources.tables import load_table, read_table

    dus = int(np.timedelta64(late_days, "D")
              .astype("timedelta64[us]").astype(np.int64))

    sup = load_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    names = SortedLookup(sup.column("s_suppkey").to_numpy(),
                         sup.column("s_name"))

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_suppkey", "l_shipdate"])

    def credit(m) -> "pd.DataFrame":
        """Distinct ``(k, supp, late)`` rows → ``(s_suppkey, numwait)``:
        an order with ≥ 2 suppliers of which exactly one was late
        credits that one."""
        import pandas as pd

        per = m.groupby("k", sort=False)["supp"].nunique().to_frame("ns")
        late_rows = m[m["late"]]
        nl = late_rows.groupby("k", sort=False)["supp"].nunique()
        ls = late_rows.groupby("k", sort=False)["supp"].min()
        per["nl"] = nl.reindex(per.index, fill_value=0)
        per["ls"] = ls.reindex(per.index, fill_value=-1)
        hit = per[(per["ns"] >= 2) & (per["nl"] == 1)]
        g = hit.groupby("ls", sort=False).size()
        return pd.DataFrame({"s_suppkey": g.index.to_numpy(np.int64),
                             "numwait": g.to_numpy(np.int64)})

    kd = orders.map_batches(
        lambda t: pa.table({"k": t.column("o_orderkey"),
                            "odate": _us(t.column("o_orderdate"))}),
        batch_format="pyarrow")
    kd, nbytes = measured(kd)
    if fits(nbytes, common.BROADCAST_BOUND):
        oside = ray.put(_collect_lookup(kd, "k", "odate"))

        def late_flags(t: pa.Table) -> pa.Table:
            lk = t.column("l_orderkey").to_numpy()
            hit, odates = ray.get(oside).get(lk)
            return pa.table({
                "k": pa.array(lk[hit], pa.int64()),
                "supp": pc.cast(t.column("l_suppkey"), pa.int64())
                .filter(pa.array(hit)),
                "late": pa.array(_us(t.column("l_shipdate"))[hit]
                                 > odates + dus),
            }).group_by(["k", "supp", "late"]).aggregate([])

        # rows repeat across batches; credit counts distinct suppliers
        partials = exchange(
            items.map_batches(late_flags, batch_format="pyarrow"), ["k"],
            credit)
    else:
        schema = pa.schema([("k", pa.int64()), ("supp", pa.int64()),
                            ("ts", pa.int64()), ("is_ord", pa.bool_())])

        def tag_ord(t: pa.Table) -> pa.Table:
            return _union_side(schema, t.num_rows, {
                "k": t.column("k"), "ts": t.column("odate"),
                "is_ord": True})

        def tag_item(t: pa.Table) -> pa.Table:
            return _union_side(schema, t.num_rows, {
                "k": t.column("l_orderkey"), "supp": t.column("l_suppkey"),
                "ts": _us(t.column("l_shipdate")), "is_ord": False})

        def join_part(df):
            o = df[df["is_ord"]][["k", "ts"]].rename(columns={"ts": "odate"})
            m = df[~df["is_ord"]][["k", "supp", "ts"]].merge(
                o, on="k", how="inner")
            m["late"] = m["ts"].to_numpy() > m["odate"].to_numpy() + dus
            return credit(m)

        partials = exchange(
            kd.map_batches(tag_ord, batch_format="pyarrow")
            .union(items.map_batches(tag_item, batch_format="pyarrow")),
            ["k"], join_part)
    return _sole_late_fold(partials, names)


def _sole_late_fold(partials, names: SortedLookup) -> pa.Table:
    """Sum the per-block ``(s_suppkey, numwait)`` partials on the driver
    and attach names — the result is |supplier|-bounded (a dimension
    table, the broadcast class), and a Ray groupby on the (int, string)
    composite key measured 234 core-seconds for 154k partial rows at sf1
    (sort-based string-key aggregate) where this fold is milliseconds."""
    from nativeextractor_ray.functions.blocks import arrow_blocks

    # vectorized fold: the partials run up to blocks × |suppliers| rows
    # (20M at the factor-100 corpus) — a per-row Python loop here
    # measured ~22 s of SERIAL driver time and capped 4→16 scaling at
    # 0.36; np.unique + bincount folds the same rows in milliseconds
    ss, nn = [], []
    for t in arrow_blocks(partials, stream=False):
        ss.append(t.column("s_suppkey").to_numpy())
        nn.append(t.column("numwait").to_numpy())
    if not ss:
        return pa.table({"s_suppkey": pa.array([], pa.int64()),
                         "s_name": pa.array([], pa.string()),
                         "numwait": pa.array([], pa.int64())})
    supp, inv = np.unique(np.concatenate(ss), return_inverse=True)
    waits = np.bincount(inv, weights=np.concatenate(nn).astype(np.float64)) \
        .astype(np.int64)  # counts ≪ 2^53: exact
    _, s_name = names.get(supp)
    return pa.table({
        "s_suppkey": pa.array(supp, pa.int64()),
        "s_name": s_name,
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
    under ``BROADCAST_BOUND`` that map broadcasts and lineitem resolves
    its year map-side; above it ONE tagged-union ``common.exchange`` on
    orderkey resolves the join, folding each block to ≤ |years| (num,
    den) integer-cents partial rows.  Share = exact half-up micro ratio.

    Output: ``(o_year, nation_rev_c, total_rev_c, share_micro)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
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

    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"])
    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_partkey", "l_suppkey",
                        "l_extendedprice", "l_discount"])
    # the pruned lineitem partials are already the lines' side of the
    # tagged union
    schema = pa.schema([("k", pa.int64()), ("year", pa.int64()),
                        ("nat_c", pa.int64()), ("tot_c", pa.int64()),
                        ("is_ord", pa.bool_())])

    def year_map(t: pa.Table) -> pa.Table:
        _p, _s, c_ok_ = ray.get(side)
        keep = c_ok_[t.column("o_custkey").to_numpy()]
        yr = (t.column("o_orderdate").to_numpy()[keep]
              .astype("datetime64[Y]").astype(np.int64) + 1970)
        return pa.table({
            "k": pa.array(t.column("o_orderkey").to_numpy()[keep]),
            "year": pa.array(yr)})

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
        return _union_side(schema, g.num_rows, {
            "k": g.column("k"), "nat_c": g.column("nat_c_sum"),
            "tot_c": g.column("tot_c_sum"), "is_ord": False})

    def year_revenue(year, nat_c, tot_c) -> pa.Table:
        g = pa.table({"o_year": year, "nation_rev_c": nat_c,
                      "total_rev_c": tot_c}).group_by("o_year").aggregate(
            [("nation_rev_c", "sum"), ("total_rev_c", "sum")])
        return pa.table({
            "o_year": g.column("o_year"),
            "nation_rev_c": g.column("nation_rev_c_sum"),
            "total_rev_c": g.column("total_rev_c_sum")})

    # size-gated orders attach (the Q3/Q10 convention): under the bound
    # the region-pruned (orderkey, year) map broadcasts once and the
    # lineitem partials resolve their year map-side — zero exchange;
    # above it, the tagged union meets in common.exchange (tests force 0).
    kd = orders.map_batches(year_map, batch_format="pyarrow")
    lines = items.map_batches(prune_items, batch_format="pyarrow")
    kd, nbytes = measured(kd)
    if fits(nbytes, common.BROADCAST_BOUND):
        oside = ray.put(_collect_lookup(kd, "k", "year"))

        def probe(t: pa.Table) -> pa.Table:
            hit, yr = ray.get(oside).get(t.column("k").to_numpy())
            return year_revenue(yr, t.column("nat_c").to_numpy()[hit],
                                t.column("tot_c").to_numpy()[hit])

        partials = lines.map_batches(probe, batch_format="pyarrow")
    else:
        def tag_ord(t: pa.Table) -> pa.Table:
            return _union_side(schema, t.num_rows, {
                "k": t.column("k"), "year": t.column("year"),
                "is_ord": True})

        def join_part(df):
            o = df[df["is_ord"]][["k", "year"]]
            m = df[~df["is_ord"]][["k", "nat_c", "tot_c"]].merge(
                o, on="k", how="inner")
            return year_revenue(*(m[c].to_numpy(np.int64)
                                  for c in ("year", "nat_c", "tot_c")))

        partials = exchange(
            kd.map_batches(tag_ord, batch_format="pyarrow").union(lines),
            ["k"], join_part)

    agg = partials.groupby("o_year").aggregate(
        Sum("nation_rev_c", alias_name="nation_rev_c"),
        Sum("total_rev_c", alias_name="total_rev_c"))

    # the per-year table is calendar-bounded (≤ decades of rows), so the
    # share fold happens on the driver and returns a plain Arrow table —
    # a post-aggregate map_batches would pass the aggregate's empty
    # pandas partition blocks through unconverted (the arrow_blocks
    # hazard) straight into the driver's comparator
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

def product_type_profit(sf_dir: str, name_word: str = Q9_NAME_WORD):
    """TPC-H Q9 — profit per (supplier nation, order year) on parts whose
    name contains ``name_word``: ``sum(revenue − supplycost · qty)``,
    the joins-everything profitability rollup.

    Scale shape: part-name mask, supplier→nation array and the packed
    ``(partkey, suppkey) → cost`` partsupp arrays all broadcast once
    (each bounded by a dimension table); lineitem folds map-side to
    ``(orderkey, nation, amount_c)`` partials — amount in exact integer
    cents, ``floor(ext·(1−disc)·100+0.5) − cost_c · qty`` — and meets
    the ``orders (orderkey, year)`` projection — broadcast under
    ``BROADCAST_BOUND``, else in ONE tagged-union ``common.exchange`` on
    orderkey; the (nation, year) rollup resolves per batch or block,
    ≤ nations·years partial rows out.

    Output: ``(nation, o_year, profit_c)``."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
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

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    items = read_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_partkey", "l_suppkey",
                        "l_quantity", "l_extendedprice", "l_discount"])
    # the pruned lineitem partials are already the lines' side of the
    # tagged union
    schema = pa.schema([("k", pa.int64()), ("year", pa.int64()),
                        ("nation", pa.int64()), ("amount_c", pa.int64()),
                        ("is_ord", pa.bool_())])

    def prune_items(t: pa.Table) -> pa.Table:
        p_ok_, s2n_, packed_, cost_ = ray.get(side)
        lk = t.column("l_partkey").to_numpy()
        keep = p_ok_[lk]
        sk_ = t.column("l_suppkey").to_numpy()[keep]
        ok, pos = sorted_lookup(packed_, lk[keep] * n_supp + sk_)
        sub = np.nonzero(keep)[0][ok]
        rev = np.floor(
            t.column("l_extendedprice").to_numpy()[sub]
            * (1.0 - t.column("l_discount").to_numpy()[sub])
            * 100.0 + 0.5).astype(np.int64)
        qty = np.floor(t.column("l_quantity").to_numpy()[sub]
                       + 0.5).astype(np.int64)
        g = pa.table({
            "k": pa.array(t.column("l_orderkey").to_numpy()[sub]),
            "nation": pa.array(s2n_[sk_[ok]]),
            "amount_c": pa.array(rev - cost_[pos[ok]] * qty, pa.int64()),
        }).group_by(["k", "nation"]).aggregate([("amount_c", "sum")])
        return _union_side(schema, g.num_rows, {
            "k": g.column("k"), "nation": g.column("nation"),
            "amount_c": g.column("amount_c_sum"), "is_ord": False})

    def profit(nation, year, amount) -> pa.Table:
        g = pa.table({"nation": nation, "o_year": year,
                      "profit_c": amount}).group_by(
            ["nation", "o_year"]).aggregate([("profit_c", "sum")])
        return pa.table({"nation": g.column("nation"),
                         "o_year": g.column("o_year"),
                         "profit_c": g.column("profit_c_sum")})

    # size-gated orders attach (the Q3/Q8/Q10 convention): under the
    # bound the (orderkey, year) map broadcasts once and lineitem
    # partials resolve the year map-side; above it, the tagged union
    # meets in common.exchange (tests force 0, both paths bit-identical)
    def year_map(t: pa.Table) -> pa.Table:
        yr = (t.column("o_orderdate").to_numpy()
              .astype("datetime64[Y]").astype(np.int64) + 1970)
        return pa.table({"k": t.column("o_orderkey"),
                         "year": pa.array(yr)})

    kd = orders.map_batches(year_map, batch_format="pyarrow")
    lines = items.map_batches(prune_items, batch_format="pyarrow")
    kd, nbytes = measured(kd)
    if fits(nbytes, common.BROADCAST_BOUND):
        oside = ray.put(_collect_lookup(kd, "k", "year"))

        def probe(t: pa.Table) -> pa.Table:
            hit, yr = ray.get(oside).get(t.column("k").to_numpy())
            return profit(t.column("nation").to_numpy()[hit], yr,
                          t.column("amount_c").to_numpy()[hit])

        partials = lines.map_batches(probe, batch_format="pyarrow")
    else:
        def tag_ord(t: pa.Table) -> pa.Table:
            return _union_side(schema, t.num_rows, {
                "k": t.column("k"), "year": t.column("year"),
                "is_ord": True})

        def join_part(df):
            o = df[df["is_ord"]][["k", "year"]]
            m = df[~df["is_ord"]][["k", "nation", "amount_c"]].merge(
                o, on="k", how="inner")
            return profit(*(m[c].to_numpy(np.int64)
                            for c in ("nation", "year", "amount_c")))

        partials = exchange(
            kd.map_batches(tag_ord, batch_format="pyarrow").union(lines),
            ["k"], join_part)

    agg = partials.groupby(["nation", "o_year"]).aggregate(
        Sum("profit_c", alias_name="profit_c"))

    # nations×years-bounded: fold driver-side (arrow_blocks hazard rule)
    parts = [pa.table({
        "nation": pa.array([n2name[int(k)] for k in
                            b.column("nation").to_pylist()], pa.string()),
        "o_year": b.column("o_year"),
        "profit_c": b.column("profit_c")})
        for b in arrow_blocks(agg, stream=False)]
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
    blocked = ExactIdFilter(sup.filter(
        pc.less(sup.column("s_acctbal"), block_bal))
        .column("s_suppkey").to_numpy())

    side = ray.put((keep_part, brand, typ, size, blocked))
    ps = partsupp_dataset(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        keep_, brand_, typ_, size_, blocked_ = ray.get(side)
        p = t.column("ps_partkey").to_numpy()
        s = t.column("ps_suppkey").to_numpy()
        m = keep_[p] & ~blocked_.contains(s)
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
    side = ray.put((p_ok, packed, avail, s_in,
                    SortedLookup(sk, sup.column("s_name"))))

    lo = np.datetime64(f"{year}-01-01", "us")
    hi = np.datetime64(f"{year + 1}-01-01", "us")
    items = read_table(sf_dir, "lineitem",
                       ["l_partkey", "l_suppkey", "l_quantity",
                        "l_shipdate"])

    def qty_partial(t: pa.Table) -> pa.Table:
        p_ok_, _pk, _av, _si, _names = ray.get(side)
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
        _p, packed_, avail_, s_in_, names = ray.get(side)
        key = pc.cast(t.column("key"), pa.int64()).to_numpy()
        ok, pos = sorted_lookup(packed_, key)
        s = key[ok] % n_supp
        hit = (2 * avail_[pos[ok]] > t.column("qty").to_numpy()[ok]) \
            & s_in_[s]
        u = np.unique(s[hit])
        return pa.table({"s_suppkey": pa.array(u, pa.int64()),
                         "s_name": names.get(u)[1]})

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
