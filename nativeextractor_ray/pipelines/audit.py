"""Referential-integrity audit — the data-quality sweep a 100-TB ingest
runs before anything else: for every FK edge in the star schema, the
row count and the number of orphan rows (NOT EXISTS parents).

Scale shape: every child table is scanned ONCE for ALL of its FK edges
at the same time — lineitem carries three edges, so its 100-TB scan
amortizes 3× — and each batch resolves row + orphan counts for every
edge in one vectorized ``np.searchsorted`` probe against the parents'
broadcast sorted-key arrays (one ``ray.put`` per parent table, shared
across edges).  Nothing but ≤ edges×blocks tiny count partials ever
leaves the workers.  A parent whose DISTINCT-key set exceeds
``common.BROADCAST_BOUND`` drops that edge to the co-partitioned
:func:`~nativeextractor_ray.pipelines.relational.semi_anti_join` leg
(nothing on the driver); independent legs overlap via a small thread
pool so the seven-edge report doesn't serialize seven Dataset
executions.  Child tables are column-pruned to their FK columns alone,
so a 100-TB lineitem audit moves 24 bytes/row.  The report is seven
rows.

Reference scope note: the reference engine (nativeextractor) has no
relational layer; this belongs to the prompt-mandated training-data
operator family (ingest validation).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.pipelines import common
from nativeextractor_ray.pipelines.common import exchange, fits, measured

#: (edge name, child table, FK column, parent table, PK column)
FK_EDGES = [
    ("lineitem->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem->part", "lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem->supplier", "lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("orders->customer", "orders", "o_custkey", "customer", "c_custkey"),
    ("customer->nation", "customer", "c_nationkey", "nation", "n_nationkey"),
    ("supplier->nation", "supplier", "s_nationkey", "nation", "n_nationkey"),
    ("nation->region", "nation", "n_regionkey", "region", "r_regionkey"),
]


def referential_audit(sf_dir: str) -> pa.Table:
    """One row per FK edge: ``(edge, n_rows, n_orphans)``."""
    from concurrent.futures import ThreadPoolExecutor

    import ray

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.functions.hashing import sorted_lookup
    from nativeextractor_ray.pipelines.relational import (
        fk_int64, semi_anti_join)
    from nativeextractor_ray.sources.tables import read_table

    # 1. one sorted DISTINCT-key array per parent table (nation parents
    #    two edges — collected once).  None = over the broadcast bound.
    #    ALL read_table calls happen on the main thread: Ray's parquet
    #    path resolution probes an optional fsspec module per read, and
    #    two threads racing that import turn its (caught)
    #    ModuleNotFoundError into an uncaught partial-module ImportError.
    #    The pool only EXECUTES already-constructed Datasets.
    parent_specs = {}  # table -> pk
    for _, _, _, parent, pk in FK_EDGES:
        parent_specs[parent] = pk

    parent_ds = {
        table: read_table(sf_dir, table, [pk]).map_batches(
            lambda t: pa.table(
                {"k": pc.cast(pc.drop_null(pc.unique(t.column(0))),
                              pa.int64())}),
            batch_format="pyarrow")
        for table, pk in parent_specs.items()}

    def collect_parent(table: str) -> np.ndarray | None:
        # the executed side replaces the plan: a fallback edge's
        # semi-join consumes it and never reruns the parent read
        pds, nbytes = measured(parent_ds[table])
        parent_ds[table] = pds
        if not fits(nbytes, common.BROADCAST_BOUND):
            return None
        chunks = [b.column("k").to_numpy()
                  for b in arrow_blocks(pds, stream=False)]
        return np.unique(np.concatenate(chunks)) if chunks \
            else np.array([], np.int64)

    with ThreadPoolExecutor(max_workers=8) as pool:
        keys_by_parent = dict(zip(
            parent_specs,
            pool.map(collect_parent, parent_specs)))

        refs_by_parent = {t: ray.put(a) for t, a in keys_by_parent.items()
                          if a is not None}

        # 2. group the broadcast-able edges by child table: ONE streaming
        #    pass per child probes every edge's FK column per batch.
        by_child: dict[str, list[tuple[str, str, object]]] = {}
        fallback: list[tuple[str, str, str, str, str]] = []
        for edge in FK_EDGES:
            name, child, fk, parent, pk = edge
            if parent in refs_by_parent:
                by_child.setdefault(child, []).append(
                    (name, fk, refs_by_parent[parent]))
            else:
                fallback.append(edge)

        child_ds = {
            child: read_table(
                sf_dir, child,
                list(dict.fromkeys(fk for _, fk, _ in specs)))
            for child, specs in by_child.items()}
        fallback_ds = {
            name: (read_table(sf_dir, child, [fk]), parent_ds[parent])
            for name, child, fk, parent, pk in fallback}

        def child_pass(child: str) -> dict[str, tuple[int, int]]:
            specs = by_child[child]
            ds = child_ds[child]

            def partial(t: pa.Table) -> pa.Table:
                names, rows_, orph_ = [], [], []
                for name, fk, ref in specs:
                    keys = ray.get(ref)  # zero-copy from local store
                    # null-safe extraction: a NULL FK is an orphan
                    # (NOT-EXISTS semantics, same as semi_anti_join)
                    v, valid = fk_int64(t.column(fk))
                    miss = int(len(v) - sorted_lookup(keys, v, valid)[0].sum())
                    names.append(name)
                    rows_.append(t.num_rows)
                    orph_.append(miss)
                return pa.table({
                    "edge": pa.array(names, pa.string()),
                    "n_rows": pa.array(rows_, pa.int64()),
                    "n_orphans": pa.array(orph_, pa.int64())})

            out: dict[str, tuple[int, int]] = {
                name: (0, 0) for name, _, _ in specs}
            parts = ds.map_batches(partial, batch_format="pyarrow")
            for b in arrow_blocks(parts, stream=False):
                for name, nr, no in zip(b.column("edge").to_pylist(),
                                        b.column("n_rows").to_pylist(),
                                        b.column("n_orphans").to_pylist()):
                    r, o = out[name]
                    out[name] = (r + nr, o + no)
            return out

        def fallback_pass(edge) -> dict[str, tuple[int, int]]:
            name, child, fk, parent, pk = edge
            c, p = fallback_ds[name]
            return {name: (
                c.count(),
                semi_anti_join(c, p, fk, anti=True).count())}

        results: dict[str, tuple[int, int]] = {}
        jobs = [pool.submit(child_pass, ch) for ch in by_child]
        jobs += [pool.submit(fallback_pass, e) for e in fallback]
        for j in jobs:
            results.update(j.result())

    order = [e[0] for e in FK_EDGES]
    return pa.table({
        "edge": pa.array(order, pa.string()),
        "n_rows": pa.array([results[e][0] for e in order], pa.int64()),
        "n_orphans": pa.array([results[e][1] for e in order], pa.int64()),
    })


def referential_audit_sql() -> str:
    legs = []
    for edge, child, fk, parent, pk in FK_EDGES:
        legs.append(f"""SELECT '{edge}' AS edge,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(*) FILTER (WHERE NOT EXISTS (
           SELECT 1 FROM {parent} p WHERE p.{pk} = c.{fk}))
         AS BIGINT) AS n_orphans
FROM {child} c""")
    return "\nUNION ALL\n".join(legs)


def source_concentration(sf_dir: str):
    """Corpus concentration report — how dominated the corpus is by its
    largest feeds: the Herfindahl–Hirschman index over per-source doc
    shares plus the top source's share, both as EXACT half-up micro
    integers (Python-int arithmetic over the tiny per-source table — no
    float, no overflow bound even at 10^10 docs where n_s² exceeds
    int64).

    Scale shape: per-batch source-count partials → one tiny
    groupby(source) → a sources-bounded driver fold (the same bounded-
    domain argument as the day/priority tables).

    Output: one row ``(n_sources, n_docs, hhi_micro, top_share_micro)``."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["source"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("source").aggregate([("source", "count")])
        return pa.table({
            "source": g.column("source"),
            "n": pc.cast(g.column("source_count"), pa.int64())})

    per_src = (ds.map_batches(partial, batch_format="pyarrow")
               .groupby("source").aggregate(Sum("n", alias_name="n")))
    counts = []
    for t in arrow_blocks(per_src):
        counts.extend(t.column("n").to_pylist())
    if not counts:
        return ray.data.from_arrow(pa.table({
            "n_sources": pa.array([], pa.int64()),
            "n_docs": pa.array([], pa.int64()),
            "hhi_micro": pa.array([], pa.int64()),
            "top_share_micro": pa.array([], pa.int64())}))
    total = sum(counts)  # Python ints: exact at any scale
    sq = sum(c * c for c in counts)
    hhi = (2 * sq * 1_000_000 + total * total) // (2 * total * total)
    top = (2 * max(counts) * 1_000_000 + total) // (2 * total)
    return ray.data.from_arrow(pa.table({
        "n_sources": pa.array([len(counts)], pa.int64()),
        "n_docs": pa.array([total], pa.int64()),
        "hhi_micro": pa.array([hhi], pa.int64()),
        "top_share_micro": pa.array([top], pa.int64())}))


SOURCE_CONCENTRATION_SQL = """WITH c AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY source),
t AS (SELECT CAST(sum(n) AS HUGEINT) AS total,
             CAST(sum(CAST(n AS HUGEINT) * n) AS HUGEINT) AS sq,
             CAST(max(n) AS HUGEINT) AS top,
             CAST(count(*) AS BIGINT) AS n_sources
      FROM c)
SELECT n_sources,
       CAST(total AS BIGINT) AS n_docs,
       CAST((2 * sq * 1000000 + total * total)
            // (2 * total * total) AS BIGINT) AS hhi_micro,
       CAST((2 * top * 1000000 + total) // (2 * total) AS BIGINT)
         AS top_share_micro
FROM t"""


# ----------------------------------------------------- key-skew profiler


SKEW_TOP_N = 10


def key_skew_profile(sf_dir: str, top_n: int = SKEW_TOP_N):
    """Shuffle-planning diagnostic: the ``top_n`` heaviest ``user_id``
    keys in ``events`` with their row counts and exact half-up micro
    share of the table — the report that decides which keys need salting
    before any user-keyed exchange (the engine's own skew caps assume
    this profile exists).

    Scale shape: per-batch Arrow count partials → one 8-byte-key user
    groupby → per-block LOCAL top-n before the global
    ``sort().limit(n)`` (the driver-side sort sees ≤ n·blocks rows) →
    the share fold runs on the n-bounded winner table with the total
    from a streaming scalar aggregate.  Deterministic tie-break: count
    desc, user_id asc.

    Output: ``(user_id, n, share_micro)``."""
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["user_id"])
    total = ds.count()

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("user_id").aggregate([("user_id", "count")])
        return pa.table({
            "user_id": g.column("user_id"),
            "n": pc.cast(g.column("user_id_count"), pa.int64())})

    per_user = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby("user_id").aggregate(Sum("n", alias_name="n")))

    def local_topn(t: pa.Table) -> pa.Table:
        idx = np.lexsort((t.column("user_id").to_numpy(zero_copy_only=False),
                          -t.column("n").to_numpy()))[:top_n]
        return t.take(idx)

    top = (per_user.map_batches(local_topn, batch_format="pyarrow")
           .sort(["n", "user_id"], descending=[True, False]).limit(top_n))

    parts = list(arrow_blocks(top, stream=False))
    t = (pa.concat_tables(parts, promote_options="default") if parts
         else pa.table({"user_id": pa.array([], pa.string()),
                        "n": pa.array([], pa.int64())}))
    n = t.column("n").to_numpy()
    share = ((2 * n * 1_000_000 + total) // (2 * total) if total
             else np.zeros(len(n), np.int64))
    return pa.table({
        "user_id": t.column("user_id"),
        "n": t.column("n"),
        "share_micro": pa.array(share.astype(np.int64), pa.int64())})


def key_skew_profile_sql(top_n: int = SKEW_TOP_N) -> str:
    return f"""WITH c AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY user_id),
tot AS (SELECT CAST(count(*) AS BIGINT) AS t FROM events)
SELECT user_id, n,
       CAST((2 * n * 1000000 + tot.t) // (2 * tot.t) AS BIGINT)
         AS share_micro
FROM c, tot
ORDER BY n DESC, user_id
LIMIT {top_n}"""


# --------------------------------------------------- column profiling


#: profiled orders columns: (name, kind) — 'cents' converts the double
#: price to exact integer cents before profiling
PROFILE_COLS = [("o_custkey", "int"), ("o_totalprice", "cents"),
                ("o_orderstatus", "str"), ("o_orderpriority", "str")]


def column_profile(sf_dir: str):
    """Per-column data-quality profile of ``orders`` — row count, null
    count, EXACT distinct count, min and max (rendered as VARCHAR so one
    schema carries mixed column types) — the ingest-validation report a
    lakehouse runs before accepting a drop.

    Scale shape: scalar stats (n/nulls/min/max) fold to ONE partial row
    per column per batch and finish on the driver (columns are bounded);
    the exact distinct counts use the ``daily_active_users`` combiner —
    per-batch DISTINCT (column, value-hash) 16-byte partials, one
    ``common.exchange`` on both dedups globally, per-column recount
    partials sum in a tiny final groupby.  The values themselves never shuffle.

    Output: ``(column, n_rows, n_null, n_distinct, min_v, max_v)``."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "orders", [c for c, _ in PROFILE_COLS])

    def _col_values(t: pa.Table, name: str, kind: str) -> pa.Array:
        col = t.column(name)
        if kind == "cents":
            col = pc.cast(pc.floor(pc.add(pc.multiply(col, 100.0), 0.5)),
                          pa.int64())
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return col

    def scalar_partial(t: pa.Table) -> pa.Table:
        rows = []
        for name, kind in PROFILE_COLS:
            col = _col_values(t, name, kind)
            valid = len(col) - col.null_count
            mn = pc.min(col).as_py() if valid else None
            mx = pc.max(col).as_py() if valid else None
            rows.append({"column": name, "n_rows": len(col),
                         "n_null": col.null_count,
                         "min_v": None if mn is None else str(mn),
                         "max_v": None if mx is None else str(mx)})
        return pa.Table.from_pylist(rows)

    from nativeextractor_ray.functions.blocks import arrow_blocks

    scal = list(arrow_blocks(
        ds.map_batches(scalar_partial, batch_format="pyarrow"),
        stream=False))
    sdf = pa.concat_tables(scal, promote_options="default").to_pandas()
    folded = (sdf.groupby("column", sort=False)
              .agg(n_rows=("n_rows", "sum"), n_null=("n_null", "sum"),
                   min_v=("min_v", "min"), max_v=("max_v", "max"))
              .reset_index())
    # string min/max over stringified ints is wrong — min/max computed on
    # the TYPED values per batch; the driver fold re-compares the batch
    # winners typed-wise
    typed_min, typed_max = {}, {}
    for _, r in sdf.iterrows():
        name = r["column"]
        kind = dict(PROFILE_COLS)[name]
        for v, store, cmp_ in ((r["min_v"], typed_min, min),
                               (r["max_v"], typed_max, max)):
            if v is None:
                continue
            tv = int(v) if kind in ("int", "cents") else v
            store[name] = tv if name not in store else cmp_(store[name], tv)
    folded["min_v"] = folded["column"].map(
        lambda c: None if c not in typed_min else str(typed_min[c]))
    folded["max_v"] = folded["column"].map(
        lambda c: None if c not in typed_max else str(typed_max[c]))

    def distinct_partial(t: pa.Table) -> pa.Table:
        """Per-batch DISTINCT (column, 16-byte value digest) partials —
        the values themselves never shuffle (blake2b-128: collision odds
        ~n²/2¹²⁸, nil even at 100-TB cardinalities).  A high-cardinality
        string column costs the exchange 16 bytes/value, not the text."""
        import hashlib

        outs = []
        for name, kind in PROFILE_COLS:
            col = _col_values(t, name, kind)
            u = pc.unique(pc.cast(col.drop_null(), pa.string()))
            digs = b"".join(
                hashlib.blake2b(s.encode(), digest_size=16).digest()
                for s in u.to_pylist())
            raw = (np.frombuffer(digs, np.uint64).reshape(-1, 2)
                   if len(u) else np.zeros((0, 2), np.uint64))
            # int64 view: uint64 columns break Ray aggregate block
            # rebuilds (OverflowError on the arrow->pandas round-trip)
            outs.append(pa.table({
                "column": pa.array([name] * len(u), pa.string()),
                "v_hi": pa.array(raw[:, 0].view(np.int64)),
                "v_lo": pa.array(raw[:, 1].view(np.int64))}))
        return pa.concat_tables(outs, promote_options="default")

    def recount(df: "pd.DataFrame") -> "pd.DataFrame":
        ded = df.drop_duplicates(["column", "v_hi", "v_lo"])
        vc = ded.groupby("column", sort=False).size()
        return pd.DataFrame({"column": vc.index.to_numpy(object),
                             "n_distinct": vc.to_numpy(np.int64)})

    nd = (exchange(ds.map_batches(distinct_partial, batch_format="pyarrow"),
                   ["column", "v_hi", "v_lo"], recount)
          .groupby("column").aggregate(Sum("n_distinct",
                                           alias_name="n_distinct")))
    from nativeextractor_ray.functions.blocks import concat_blocks

    ndf = concat_blocks(nd, empty=pa.table(
        {"column": pa.array([], pa.string()),
         "n_distinct": pa.array([], pa.int64())})).to_pandas()
    out = folded.merge(ndf, on="column", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    out["n_rows"] = out["n_rows"].astype("int64")
    out["n_null"] = out["n_null"].astype("int64")
    return out[["column", "n_rows", "n_null", "n_distinct",
                "min_v", "max_v"]]


def column_profile_sql() -> str:
    legs = []
    for name, kind in PROFILE_COLS:
        expr = (f"CAST(floor({name} * 100.0 + 0.5) AS BIGINT)"
                if kind == "cents" else name)
        legs.append(f"""SELECT '{name}' AS column,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(*) FILTER ({expr} IS NULL) AS BIGINT) AS n_null,
       CAST(count(DISTINCT {expr}) AS BIGINT) AS n_distinct,
       CAST(min({expr}) AS VARCHAR) AS min_v,
       CAST(max({expr}) AS VARCHAR) AS max_v
FROM orders""")
    return "\nUNION ALL\n".join(legs)


# ----------------------------------------------------- table checksums


#: (table, [columns folded into the row rendering]) — the pk plus the
#: most mutation-prone attribute, '|'-joined
CHECKSUM_TABLES = [
    ("region", ["r_regionkey", "r_name"]),
    ("nation", ["n_nationkey", "n_name"]),
    ("customer", ["c_custkey", "c_mktsegment"]),
    ("supplier", ["s_suppkey", "s_name"]),
    ("part", ["p_partkey", "p_brand"]),
]

_CKS_MOD = 2305843009213693951  # 2^61 - 7, fits BIGINT after mod


def table_checksums(sf_dir: str):
    """Order-independent content checksum + row count per table — the
    anti-entropy audit a replicated lakehouse runs after a migration or
    backfill (two replicas agree iff every row agrees, independent of
    row order and partitioning).

    Checksum = Σ md5-lower-64(col1 || '|' || col2) over rows, mod
    2⁶¹−7 — addition is commutative/associative, so per-batch partial
    sums fold map-side and ONE scalar per (table, block) reaches the
    driver.  Zero shuffle, zero row movement.

    Output: ``(tbl, n_rows, checksum)``."""
    import hashlib

    import pandas as pd
    import ray

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    rows = []
    for tbl, cols in CHECKSUM_TABLES:
        ds = read_table(sf_dir, tbl, cols)

        def partial(t: pa.Table, cols=cols) -> pa.Table:
            # md5 itself is pinned by the oracle contract (DuckDB's
            # md5_number_lower must reproduce it bit-for-bit), so the
            # kernel stays per-row — but it hashes memoryview slices of
            # the Arrow UTF-8 buffer directly, never materializing
            # Python strings (~3× less interpreter overhead than
            # to_pylist + encode per row)
            rendered = pc.binary_join_element_wise(
                *[pc.cast(t.column(c), pa.string()) for c in cols], "|")
            if isinstance(rendered, pa.ChunkedArray):
                rendered = rendered.combine_chunks()
            acc = 0
            data_buf = rendered.buffers()[2]
            if len(rendered) and data_buf is not None:
                # StringArray offsets live in buffers()[1] (int32),
                # shifted by the array's own offset for sliced views
                o = rendered.offset
                offs = np.frombuffer(rendered.buffers()[1],
                                     np.int32)[o:o + len(rendered) + 1]
                buf = memoryview(data_buf)
                md5 = hashlib.md5
                for a, b in zip(offs[:-1], offs[1:]):
                    acc += int.from_bytes(md5(buf[a:b]).digest()[8:16],
                                          "little")
            return pa.table({"n": pa.array([t.num_rows], pa.int64()),
                             "h": pa.array([acc % _CKS_MOD], pa.int64())})

        parts = list(arrow_blocks(
            ds.map_batches(partial, batch_format="pyarrow"),
            stream=False))
        n = sum(int(pc.sum(x.column("n")).as_py()) for x in parts)
        h = sum(int(v) for x in parts
                for v in x.column("h").to_pylist()) % _CKS_MOD
        rows.append({"tbl": tbl, "n_rows": n, "checksum": h})
    return pd.DataFrame(rows)


def table_checksums_sql() -> str:
    legs = []
    for tbl, cols in CHECKSUM_TABLES:
        rend = " || '|' || ".join(f"CAST({c} AS VARCHAR)" for c in cols)
        legs.append(f"""SELECT '{tbl}' AS tbl,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(CAST(md5_number_lower({rend}) AS HUGEINT)) % {_CKS_MOD}
            AS BIGINT) AS checksum
FROM {tbl}""")
    return "\nUNION ALL\n".join(legs)


# ------------------------------------------- chi-square independence


def lang_source_chisq(sf_dir: str):
    """Per-cell chi-square contributions for the lang × source
    contingency table — "does language depend on crawl source?", the
    drift/contamination audit run when a new source joins the mix.
    Everything is EXACT integer arithmetic: expected counts and
    contributions are half-up micro ratios of exact products (the repo's
    float-parity discipline — no engine-dependent summation order, the
    statistic is the SUM of the emitted column, computable by any
    consumer).

    Scale shape: per-batch (lang, source) Arrow count partials → ONE
    tiny composite groupby (cells are langs × sources bounded) → totals
    and contributions fold on the driver.  Output:
    ``(lang, source, o, e_micro, contrib_micro)``."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["lang", "source"])

    def partial(t: pa.Table) -> pa.Table:
        g = (pa.table({"lang": t.column("lang"),
                       "source": t.column("source")})
             .group_by(["lang", "source"])
             .aggregate([("source", "count")]))
        return pa.table({"lang": g.column("lang"),
                         "source": g.column("source"),
                         "o": pc.cast(g.column("source_count"),
                                      pa.int64())})

    cells = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["lang", "source"])
             .aggregate(Sum("o", alias_name="o")))
    from nativeextractor_ray.functions.blocks import concat_blocks

    t = concat_blocks(cells, empty=pa.table(
        {"lang": pa.array([], pa.string()),
         "source": pa.array([], pa.string()),
         "o": pa.array([], pa.int64())}))
    df = t.to_pandas()
    rt = df.groupby("lang")["o"].transform("sum").astype("int64")
    ct = df.groupby("source")["o"].transform("sum").astype("int64")
    n = int(df["o"].sum())
    e_micro, contrib = [], []
    for o, r, c in zip(df["o"], rt, ct):
        o, r, c = int(o), int(r), int(c)
        e_micro.append((2 * r * c * 1_000_000 + n) // (2 * n))
        num = (o * n - r * c) ** 2 * 1_000_000
        den = n * r * c
        contrib.append((2 * num + den) // (2 * den))
    return pd.DataFrame({
        "lang": df["lang"], "source": df["source"],
        "o": df["o"].astype("int64"),
        "e_micro": np.array(e_micro, np.int64),
        "contrib_micro": np.array(contrib, np.int64)})


def lang_source_chisq_sql() -> str:
    return """WITH c AS (
  SELECT lang, source, CAST(count(*) AS BIGINT) AS o
  FROM documents GROUP BY 1, 2),
tot AS (
  SELECT lang, source, o,
         sum(o) OVER (PARTITION BY lang) AS rt,
         sum(o) OVER (PARTITION BY source) AS ct,
         sum(o) OVER () AS n
  FROM c),
d AS (
  -- dev must square via self-multiplication: ** is a DOUBLE power
  SELECT lang, source, o, rt, ct, n,
         CAST(o AS HUGEINT) * n - CAST(rt AS HUGEINT) * ct AS dev
  FROM tot)
SELECT lang, source, o,
       CAST((2 * CAST(rt AS HUGEINT) * ct * 1000000 + n) // (2 * n)
            AS BIGINT) AS e_micro,
       CAST((2 * dev * dev * 1000000 + CAST(n AS HUGEINT) * rt * ct)
            // (2 * CAST(n AS HUGEINT) * rt * ct) AS BIGINT)
         AS contrib_micro
FROM d"""


# ------------------------------------------- KS distribution drift


def length_drift_ks(sf_dir: str):
    """Exact two-sample Kolmogorov–Smirnov statistic on the document
    LENGTH distribution (``n_chars``) between every pair of sources —
    the distribution-drift audit ("is the new crawl's length profile the
    old one's?").  The KS statistic over an integer-valued variable is
    EXACT integer arithmetic: ``D = max_v |c₁(v)·n₂ − c₂(v)·n₁| /
    (n₁·n₂)`` with cumulative counts c — reported as the half-up micro
    ratio, no float CDFs anywhere.

    Scale shape: per-batch (source, n_chars) count partials → ONE
    composite groupby (the value domain is bounded — lengths, not
    documents) → driver fold over the sources × values table computes
    every pairwise max.  Output: ``(src_a, src_b, ks_micro)``."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        g = (pa.table({"source": t.column("source"),
                       "v": t.column("n_chars")})
             .group_by(["source", "v"]).aggregate([("v", "count")]))
        return pa.table({"source": g.column("source"),
                         "v": g.column("v"),
                         "n": pc.cast(g.column("v_count"), pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(["source", "v"])
              .aggregate(Sum("n", alias_name="n")))
    from nativeextractor_ray.functions.blocks import concat_blocks

    t = concat_blocks(counts, empty=pa.table(
        {"source": pa.array([], pa.string()),
         "v": pa.array([], pa.int64()),
         "n": pa.array([], pa.int64())}))
    df = t.to_pandas()
    vals = np.sort(df["v"].unique())
    srcs = sorted(df["source"].unique())
    cum = {}
    tot = {}
    for s in srcs:
        sub = df[df["source"] == s]
        hist = np.zeros(len(vals), np.int64)
        hist[np.searchsorted(vals, sub["v"].to_numpy())] = \
            sub["n"].to_numpy()
        cum[s] = np.cumsum(hist)
        tot[s] = int(cum[s][-1])
    out = []
    for i in range(len(srcs)):
        for j in range(i + 1, len(srcs)):
            a, b = srcs[i], srcs[j]
            n1, n2 = tot[a], tot[b]
            d = int(np.abs(cum[a] * n2 - cum[b] * n1).max())
            den = n1 * n2
            out.append({"src_a": a, "src_b": b,
                        "ks_micro": (2 * d * 1_000_000 + den)
                        // (2 * den)})
    res = pd.DataFrame(out)
    res["ks_micro"] = res["ks_micro"].astype("int64")
    return res


def length_drift_ks_sql() -> str:
    return """WITH c AS (
  SELECT source, n_chars AS v, CAST(count(*) AS BIGINT) AS n
  FROM documents GROUP BY 1, 2),
vals AS (SELECT DISTINCT v FROM c),
srcs AS (SELECT source, sum(n) AS tot FROM c GROUP BY source),
grid AS (
  SELECT s.source, s.tot, vals.v,
         COALESCE((SELECT sum(n) FROM c
                   WHERE c.source = s.source AND c.v <= vals.v), 0)
           AS cum
  FROM srcs s, vals),
p AS (
  SELECT a.source AS src_a, b.source AS src_b,
         max(abs(CAST(a.cum AS HUGEINT) * b.tot
                 - CAST(b.cum AS HUGEINT) * a.tot)) AS d,
         CAST(any_value(a.tot) AS HUGEINT) * any_value(b.tot) AS den
  FROM grid a JOIN grid b ON a.v = b.v AND a.source < b.source
  GROUP BY 1, 2)
SELECT src_a, src_b,
       CAST((2 * d * 1000000 + den) // (2 * den) AS BIGINT) AS ks_micro
FROM p"""


# --------------------------------------------- financial reconciliation


RECON_TOL_C = 0  # exact-match tolerance, cents


def price_reconciliation(sf_dir: str):
    """Cross-table financial reconciliation: per order, does
    ``o_totalprice`` equal the lineitem-derived charge
    ``Σ extprice·(1−disc)·(1+tax)``?  The invariant audit a warehouse
    runs after every backfill; on this synthetic star the columns are
    independently generated, so virtually everything lands in
    ``mismatch`` — the AUDIT is the product, not the pass rate.

    Float discipline: the per-line charge is computed in one identical
    double expression on both engines and floored half-up to cents
    BEFORE summation, so the per-order sums are exact integers.

    Scale shape: lineitem folds to per-order integer-cents partials
    before its ONLY shuffle; the orders side attaches via the size-gated
    broadcast (orderkey, cents) map; output folds to 3 status rows.

    Output: ``(status, n_orders)`` over {match, mismatch, no_lineitems}."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    li = read_table(sf_dir, "lineitem",
                    ["l_orderkey", "l_extendedprice", "l_discount",
                     "l_tax"])

    def charge_partial(t: pa.Table) -> pa.Table:
        ext = t.column("l_extendedprice").to_numpy()
        disc = t.column("l_discount").to_numpy()
        tax = t.column("l_tax").to_numpy()
        cents = np.floor(ext * (1.0 - disc) * (1.0 + tax) * 100.0
                         + 0.5).astype(np.int64)
        df = pd.DataFrame({"k": t.column("l_orderkey").to_numpy(),
                           "c": cents})
        g = df.groupby("k", sort=False)["c"].sum().reset_index()
        return pa.table({"o_orderkey": pa.array(g["k"].to_numpy(np.int64)),
                         "charge_c": pa.array(g["c"].to_numpy(np.int64))})

    # charge map is (orderkey → cents): 16 bytes/order — broadcastable
    # far beyond any realistic order count.  The per-batch partials fold
    # on the DRIVER with one np.unique + bincount pass instead of a Ray
    # sort-aggregate (the Q21 lesson: the sort-based Aggregate costs
    # hundreds of core-seconds on key counts a vectorized fold does in
    # milliseconds); partial volume is bounded by orders × blocks.
    from nativeextractor_ray.functions.blocks import concat_blocks

    t = concat_blocks(
        li.map_batches(charge_partial, batch_format="pyarrow"),
        empty=pa.table({"o_orderkey": pa.array([], pa.int64()),
                        "charge_c": pa.array([], pa.int64())}))
    k_all = t.column("o_orderkey").to_numpy()
    c_all = t.column("charge_c").to_numpy()
    keys, inv = np.unique(k_all, return_inverse=True)
    charge = np.zeros(len(keys), np.int64)
    np.add.at(charge, inv, c_all)  # exact int64, no float weights
    ref = ray.put((keys, charge))

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def classify(t: pa.Table) -> pa.Table:
        k, c = ray.get(ref)
        ok_ = t.column("o_orderkey").to_numpy()
        tot = np.floor(t.column("o_totalprice").to_numpy() * 100.0
                       + 0.5).astype(np.int64)
        pos = np.searchsorted(k, ok_)
        has = (pos < len(k)) & (k[np.minimum(pos, max(len(k) - 1, 0))]
                                == ok_) if len(k) else np.zeros(
            len(ok_), bool)
        got = np.where(has, c[np.minimum(pos, max(len(k) - 1, 0))]
                       if len(k) else 0, 0)
        match = has & (np.abs(got - tot) <= RECON_TOL_C)
        status = np.where(~has, "no_lineitems",
                          np.where(match, "match", "mismatch"))
        df = pd.DataFrame({"status": status})
        g = df.groupby("status", sort=False).size().reset_index(name="n")
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (orders.map_batches(classify, batch_format="pyarrow")
           .groupby("status").aggregate(Sum("n", alias_name="n_orders")))

    def nonzero(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("n_orders"), 0))

    return agg.map_batches(nonzero, batch_format="pyarrow")


def price_reconciliation_sql() -> str:
    return f"""WITH ch AS (
  SELECT l_orderkey AS k,
         sum(CAST(floor(l_extendedprice * (1.0 - l_discount)
                        * (1.0 + l_tax) * 100.0 + 0.5) AS BIGINT))
           AS charge_c
  FROM lineitem GROUP BY 1),
cls AS (
  SELECT CASE
    WHEN ch.k IS NULL THEN 'no_lineitems'
    WHEN abs(ch.charge_c
             - CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT))
         <= {RECON_TOL_C} THEN 'match'
    ELSE 'mismatch' END AS status
  FROM orders LEFT JOIN ch ON ch.k = o_orderkey)
SELECT status, CAST(count(*) AS BIGINT) AS n_orders
FROM cls GROUP BY status"""


# --------------------------------------------------- gaps and islands


def key_gaps(sf_dir: str):
    """Holes in the ``o_orderkey`` space — the gaps-and-islands audit
    ("did the loader drop a key range?").  A key column that should be
    dense gets scanned once; every interior maximal run of missing keys
    is reported as ``(gap_start, gap_end)``.

    Scale shape: ONE narrow sort shuffle of the 8-byte key column
    establishes block-range order; each sorted block folds to its
    INTERNAL gaps (vectorized diff) plus one (min, max) boundary row;
    the driver stitches adjacent blocks — gaps per block are bounded by
    the data, boundary work is one row per block (the pack_sequences
    economics).

    Output: ``(gap_start, gap_end)`` — inclusive bounds, interior gaps
    only."""
    import pandas as pd

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "orders", ["o_orderkey"])
    ordered = ds.sort("o_orderkey").materialize()

    def block_gaps(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"kind": pa.array([], pa.int64()),
                             "a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        k = np.unique(t.column("o_orderkey").to_numpy())
        d = np.diff(k)
        idx = np.nonzero(d > 1)[0]
        gaps_a = k[idx] + 1
        gaps_b = k[idx + 1] - 1
        return pa.table({
            "kind": pa.array(np.concatenate(
                [np.zeros(len(idx), np.int64), [1]])),
            "a": pa.array(np.concatenate([gaps_a, [k[0]]])),
            "b": pa.array(np.concatenate([gaps_b, [k[-1]]]))})

    rows = ordered.map_batches(block_gaps, batch_format="pyarrow",
                               batch_size=None).take_all()
    gaps = [(r["a"], r["b"]) for r in rows if r["kind"] == 0]
    bounds = sorted((r["a"], r["b"]) for r in rows if r["kind"] == 1)
    for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
        if lo2 > hi + 1:
            gaps.append((hi + 1, lo2 - 1))
    gaps.sort()
    return pd.DataFrame({
        "gap_start": pd.array([a for a, _ in gaps], dtype="int64"),
        "gap_end": pd.array([b for _, b in gaps], dtype="int64")})


def key_gaps_sql() -> str:
    return """WITH k AS (
  SELECT DISTINCT o_orderkey AS k FROM orders),
s AS (
  SELECT k, lead(k) OVER (ORDER BY k) AS nk FROM k)
SELECT CAST(k + 1 AS BIGINT) AS gap_start,
       CAST(nk - 1 AS BIGINT) AS gap_end
FROM s WHERE nk > k + 1"""
