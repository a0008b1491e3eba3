"""Graph analytics over the materialized triple graph — degree profile and
PageRank.  These are the "graph materialize" consumers of the north rule:
once transcripts become (subj, pred, obj) triples, the KG is a directed
graph (edge subj→obj, parallel predicates collapsed to one distinct edge)
and centrality/degree queries are the first things a KG user runs.

Scale shapes
------------
The ENTITY VOCABULARY is bounded by construction (entities are
dict-anchored canonical surfaces — the same argument that justifies the
driver union-find in ``kg.canonicalize``; cf. the reference's fixed
dictionary economics, patricia.c loading one gazetteer per process), so a
rank/degree VECTOR of O(|entities|) may live on the driver and broadcast —
but the EDGE SET and the TRIPLE STREAM may not.  Accordingly:

- distinct edges are built by a keyed dedup (``common.exchange`` on
  ``(subj, obj)``, the triple dedup's shape), never collected;
- ``entity_pagerank`` materializes the int-encoded edge Dataset ONCE and
  then runs K streaming passes over it — each iteration broadcasts the
  O(|entities|) rank vector via ``ray.put`` and reduces per-block partial
  contribution vectors (``np.bincount`` scatter-adds, one vector row per
  block); no per-iteration shuffle of edges, no edge ever on the driver;
- the vocabulary collect is size-gated (``VOCAB_BOUND``) so a graph whose
  node set is NOT vocabulary-bounded fails loudly instead of OOMing.

Oracle: PageRank with a fixed iteration count and uniform teleport +
dangling redistribution is exactly SQL-expressible — the iteration is
unrolled into K chained CTEs (same literal-unrolling pattern as the IVF
centroid oracle); values are rounded to 6 decimals on both sides.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.functions.blocks import arrow_blocks
from nativeextractor_ray.pipelines.common import exchange

VOCAB_BOUND = 256 << 20  # bytes of entity strings allowed on the driver
PR_ITERS = 5
PR_DAMPING = 0.85


def _edges(sf_dir: str):
    """Distinct (subj, obj) edges of the triple graph, deduped by one
    keyed exchange (predicates collapsed)."""
    import pandas as pd

    from nativeextractor_ray.pipelines.kg import triples_dataset

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["subj", "obj"])[["subj", "obj"]]

    return exchange(triples_dataset(sf_dir).select_columns(["subj", "obj"]),
                    ["subj", "obj"], dedup)


# ---------------------------------------------------------------- degree


def entity_degree(sf_dir: str):
    """Per-entity degree profile over distinct (subj, obj) edges:
    ``(entity, out_deg, in_deg)``; entities appearing only as subject get
    in_deg 0 and vice versa."""
    from ray.data.aggregate import Sum

    def partials(t: pa.Table) -> pa.Table:
        gs = t.group_by("subj").aggregate([("subj", "count")])
        go = t.group_by("obj").aggregate([("obj", "count")])
        return pa.table({
            "entity": pa.concat_arrays([
                gs.column("subj").combine_chunks(),
                go.column("obj").combine_chunks()]),
            "out_deg": pa.concat_arrays([
                pc.cast(gs.column("subj_count"), pa.int64()).combine_chunks(),
                pa.array([0] * go.num_rows, pa.int64())]),
            "in_deg": pa.concat_arrays([
                pa.array([0] * gs.num_rows, pa.int64()),
                pc.cast(go.column("obj_count"), pa.int64()).combine_chunks()]),
        })

    return (
        _edges(sf_dir)
        .map_batches(partials, batch_format="pyarrow")
        .groupby("entity")
        .aggregate(Sum("out_deg", alias_name="out_deg"),
                   Sum("in_deg", alias_name="in_deg"))
    )


def entity_degree_sql() -> str:
    from nativeextractor_ray.pipelines.oracles import TRIPLES_SQL

    return f"""WITH t AS ({TRIPLES_SQL}),
e AS (SELECT DISTINCT subj, obj FROM t),
n AS (SELECT subj AS entity FROM e UNION SELECT obj FROM e),
od AS (SELECT subj AS entity, count(*) AS c FROM e GROUP BY subj),
id_ AS (SELECT obj AS entity, count(*) AS c FROM e GROUP BY obj)
SELECT n.entity,
       CAST(COALESCE(od.c, 0) AS BIGINT) AS out_deg,
       CAST(COALESCE(id_.c, 0) AS BIGINT) AS in_deg
FROM n LEFT JOIN od USING (entity) LEFT JOIN id_ USING (entity)"""


# ---------------------------------------------------------------- pagerank


def _entity_ids(edges, cols: tuple[str, str] = ("subj", "obj")):
    """Collect the bounded entity vocabulary from an edge Dataset →
    sorted numpy string array (size-gated)."""
    import ray

    ca, cb = cols

    def ents(t: pa.Table) -> pa.Table:
        u = pc.unique(pa.chunked_array([
            t.column(ca).combine_chunks(),
            t.column(cb).combine_chunks()]))
        return pa.table({"entity": u})

    vocab = edges.map_batches(ents, batch_format="pyarrow").materialize()
    if (vocab.size_bytes() or 0) > VOCAB_BOUND:
        raise ValueError(
            "entity_pagerank: entity vocabulary exceeds the driver bound "
            f"({vocab.size_bytes()} B) — the rank vector no longer fits; "
            "shard the graph or raise VOCAB_BOUND deliberately")
    names = np.unique(np.concatenate(
        [t.column("entity").to_numpy(zero_copy_only=False)
         for t in arrow_blocks(vocab, stream=False)]
        or [np.array([], dtype=object)]))
    return names


def entity_pagerank(sf_dir: str, iters: int = PR_ITERS,
                    d: float = PR_DAMPING):
    """PageRank over distinct (subj, obj) edges: uniform init, damping
    ``d``, dangling mass redistributed uniformly, ``iters`` synchronous
    iterations.  Returns ``(entity, rank)`` with rank rounded to 6
    decimals (matching the unrolled-CTE oracle)."""
    import ray
    import ray.data

    edges = _edges(sf_dir).materialize()  # K streaming passes below
    names = _entity_ids(edges)
    n = names.size
    if n == 0:
        return ray.data.from_arrow(pa.table({
            "entity": pa.array([], pa.string()),
            "rank": pa.array([], pa.float64())}))
    names_ref = ray.put(names)

    def encode(t: pa.Table) -> pa.Table:
        nm = ray.get(names_ref)
        s = np.searchsorted(nm, t.column("subj").to_numpy(zero_copy_only=False))
        o = np.searchsorted(nm, t.column("obj").to_numpy(zero_copy_only=False))
        return pa.table({"s": pa.array(s, pa.int64()),
                         "o": pa.array(o, pa.int64())})

    enc = edges.map_batches(encode, batch_format="pyarrow").materialize()

    # out-degree vector: per-block bincount partials, summed on the driver
    # (vector is O(|entities|) — vocabulary-bounded, see module docstring)
    def deg_partial(t: pa.Table) -> pa.Table:
        v = np.bincount(t.column("s").to_numpy(), minlength=n)
        return pa.table({"v": pa.array([v.astype(np.int64).tobytes()],
                                       pa.binary())})

    deg = np.zeros(n, dtype=np.int64)
    for t in arrow_blocks(enc.map_batches(deg_partial,
                                          batch_format="pyarrow")):
        for b in t.column("v").to_pylist():
            deg += np.frombuffer(b, dtype=np.int64)

    rank = np.full(n, 1.0 / n)
    dref = ray.put(deg)  # O(|entities|): broadcast ONCE, never closure-shipped
    for _ in range(iters):
        rref = ray.put(rank)

        def contrib(t: pa.Table) -> pa.Table:
            r = ray.get(rref)
            dg = ray.get(dref)
            s = t.column("s").to_numpy()
            o = t.column("o").to_numpy()
            w = r[s] / dg[s]  # dg[s] ≥ 1: s has this very out-edge
            v = np.bincount(o, weights=w, minlength=n)
            return pa.table({"v": pa.array([v.tobytes()], pa.binary())})

        acc = np.zeros(n)
        for t in arrow_blocks(enc.map_batches(contrib,
                                              batch_format="pyarrow")):
            for b in t.column("v").to_pylist():
                acc += np.frombuffer(b, dtype=np.float64)
        dangling = rank[deg == 0].sum()
        rank = (1.0 - d) / n + d * (acc + dangling / n)

    out = pa.table({"entity": pa.array(names, pa.string()),
                    "rank": pa.array(np.round(rank, 6), pa.float64())})
    CHUNK = 65536
    return ray.data.from_arrow(
        [out.slice(i, CHUNK) for i in range(0, out.num_rows, CHUNK)] or [out])


def entity_pmi(sf_dir: str, min_cooc: int = 2):
    """Pointwise mutual information of co-occurring entity pairs:
    ``pmi = ln(cooc * n_turns / (c_a * c_b))`` where ``cooc`` is the
    number of turns mentioning both entities (the ``co_occurs_with``
    triple's support), ``c_x`` the number of turns mentioning x (sum of
    ``mentions`` support over speakers — one speaker per turn, so the sum
    is exact), and ``n_turns`` the corpus turn count.

    Scale shape: the per-entity count vector is vocabulary-bounded (the
    same argument as :func:`entity_pagerank`'s rank vector), so it comes
    from one small distributed aggregate and broadcasts via ``ray.put``
    (size-gated); the co-occurrence stream then scores in one streaming
    ``map_batches`` pass — no joins, no extra shuffle beyond the triple
    dedup the pipeline already did."""
    import ray
    from ray.data.aggregate import Sum

    from nativeextractor_ray.pipelines.kg import triples_dataset
    from nativeextractor_ray.sources.transcripts import transcripts_dataset

    triples = triples_dataset(sf_dir).materialize()  # two passes below
    n_turns = float(transcripts_dataset(sf_dir).count())

    def ment_counts(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("pred"), "mentions"))
        g = t.group_by("obj").aggregate([("support", "sum")])
        return pa.table({
            "ent": g.column("obj"),
            "c": pc.cast(g.column("support_sum"), pa.int64())})

    mc = (triples.map_batches(ment_counts, batch_format="pyarrow")
          .groupby("ent").aggregate(Sum("c", alias_name="c")).materialize())
    if (mc.size_bytes() or 0) > VOCAB_BOUND:
        raise ValueError(
            "entity_pmi: entity-count table exceeds the driver bound "
            f"({mc.size_bytes()} B) — shard or raise VOCAB_BOUND deliberately")
    parts = list(arrow_blocks(mc, stream=False))
    if parts:
        tab = pa.concat_tables(parts)
        ents = tab.column("ent").to_numpy(zero_copy_only=False)
        cnts = tab.column("c").to_numpy()
    else:  # empty-stream guard
        ents = np.array([], dtype=object)
        cnts = np.array([], dtype=np.int64)
    order = np.argsort(ents)
    cref = ray.put((ents[order], cnts[order]))

    def pmi_batch(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("pred"), "co_occurs_with"))
        t = t.filter(pc.greater_equal(t.column("support"), min_cooc))
        names, counts = ray.get(cref)
        a = t.column("subj").to_numpy(zero_copy_only=False)
        b = t.column("obj").to_numpy(zero_copy_only=False)
        co = t.column("support").to_numpy().astype(np.float64)
        # co-occurring entities are always mentioned → lookups always hit
        ca = counts[np.searchsorted(names, a)].astype(np.float64)
        cb = counts[np.searchsorted(names, b)].astype(np.float64)
        pmi = np.log((co * n_turns) / (ca * cb))
        return pa.table({
            "ent_a": pa.array(a, pa.string()),
            "ent_b": pa.array(b, pa.string()),
            "cooc": pa.array(co.astype(np.int64)),
            "pmi": pa.array(np.round(pmi, 6), pa.float64()),
        })

    return triples.map_batches(pmi_batch, batch_format="pyarrow")


def entity_pmi_sql(min_cooc: int = 2) -> str:
    from nativeextractor_ray.pipelines.oracles import (
        TRANSCRIPTS_ONLY_SQL,
        TRIPLES_SQL,
    )

    return f"""WITH t AS MATERIALIZED ({TRIPLES_SQL}),
n AS (SELECT CAST(count(*) AS DOUBLE) AS c FROM ({TRANSCRIPTS_ONLY_SQL})),
m AS (SELECT obj AS ent, CAST(sum(support) AS DOUBLE) AS c
      FROM t WHERE pred = 'mentions' GROUP BY obj),
co AS (SELECT subj AS ent_a, obj AS ent_b, support AS cooc FROM t
       WHERE pred = 'co_occurs_with' AND support >= {min_cooc})
SELECT co.ent_a, co.ent_b, CAST(co.cooc AS BIGINT) AS cooc,
       round(ln((CAST(co.cooc AS DOUBLE) * n.c) / (ma.c * mb.c)), 6) AS pmi
FROM co CROSS JOIN n
JOIN m ma ON ma.ent = co.ent_a
JOIN m mb ON mb.ent = co.ent_b"""


def entity_pagerank_sql(iters: int = PR_ITERS, d: float = PR_DAMPING) -> str:
    """Unrolled power iteration: r0 is uniform; each r{i} CTE joins the
    previous rank over the edge set, adds the uniform teleport and the
    dangling mass (ranks of zero-out-degree nodes) — the exact recurrence
    of :func:`entity_pagerank` in real arithmetic."""
    from nativeextractor_ray.pipelines.oracles import TRIPLES_SQL

    # AS MATERIALIZED is load-bearing: each r{i} is referenced by THREE
    # CTEs of the next iteration, and t (the full in-SQL extraction
    # pipeline) by e — without it DuckDB's inlining re-expands the whole
    # chain exponentially and the oracle never finishes.
    head = f"""WITH t AS MATERIALIZED ({TRIPLES_SQL}),
e AS MATERIALIZED (SELECT DISTINCT subj, obj FROM t),
n AS MATERIALIZED (SELECT subj AS entity FROM e UNION SELECT obj FROM e),
nn AS MATERIALIZED (SELECT CAST(count(*) AS DOUBLE) AS c FROM n),
deg AS MATERIALIZED (SELECT subj AS entity, CAST(count(*) AS DOUBLE) AS c
        FROM e GROUP BY subj),
r0 AS MATERIALIZED (SELECT entity, 1.0 / nn.c AS r FROM n, nn)"""
    steps = []
    for i in range(1, iters + 1):
        p = f"r{i - 1}"
        steps.append(f""",
d{i} AS MATERIALIZED (SELECT COALESCE(sum({p}.r), 0) AS m
         FROM {p} LEFT JOIN deg USING (entity) WHERE deg.c IS NULL),
c{i} AS MATERIALIZED (SELECT e.obj AS entity, sum({p}.r / deg.c) AS v
         FROM e JOIN {p} ON e.subj = {p}.entity
                JOIN deg ON deg.entity = e.subj
         GROUP BY e.obj),
r{i} AS MATERIALIZED (SELECT n.entity,
                (1.0 - {d}) / nn.c
                + {d} * (COALESCE(c{i}.v, 0) + d{i}.m / nn.c) AS r
         FROM n CROSS JOIN nn CROSS JOIN d{i}
              LEFT JOIN c{i} USING (entity))""")
    return (head + "".join(steps)
            + f"\nSELECT entity, round(r, 6) AS rank FROM r{iters}")


# ------------------------------------------------------------- 2-hop


def two_hop_counts(sf_dir: str):
    """Exactly-2-hop reachability per source entity: for every subject
    with at least one 2-step path, the number of DISTINCT entities
    reachable in exactly two directed edges — the KG self-join
    ("friends of friends") shape.

    Scale shape: the distinct-edge Dataset (already deduped by
    :func:`_edges`) self-joins on the bridge node via a TAGGED-UNION
    merge (both sides exchanged on the bridge key, one pandas inner
    merge per call) — the
    same single hash exchange a ``Dataset.join`` would do, without its
    per-partition aggregator overhead (measured 12.8 s → 5.2 s at
    sf0.1/32 CPUs, bit-identical output); the (src, dst) pairs then
    dedup through a second exchange on the pair, as the edge dedup
    does — a 2-hop pair never materializes more than once per call —
    and a per-call recount emits one row per source.
    Self-loops (src == dst after two hops) count like any other node,
    SQL-style.

    Output: ``(subj, n_two_hop)``."""
    import pandas as pd

    edges = _edges(sf_dir).materialize()  # feeds both union legs once

    def tag_left(t: pa.Table) -> pa.Table:
        return pa.table({"key": t.column("obj"), "other": t.column("subj"),
                         "is_left": pa.array(np.ones(t.num_rows, bool))})

    def tag_right(t: pa.Table) -> pa.Table:
        return pa.table({"key": t.column("subj"), "other": t.column("obj"),
                         "is_left": pa.array(np.zeros(t.num_rows, bool))})

    both = (edges.map_batches(tag_left, batch_format="pyarrow")
            .union(edges.map_batches(tag_right, batch_format="pyarrow")))

    def join_part(df: "pd.DataFrame") -> "pd.DataFrame":
        l = df[df["is_left"]][["key", "other"]].rename(
            columns={"other": "src"})
        r = df[~df["is_left"]][["key", "other"]].rename(
            columns={"other": "dst"})
        return l.merge(r, on="key", how="inner")[["src", "dst"]]

    joined = exchange(both, ["key"], join_part)

    def count_per_src(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df.drop_duplicates(["src", "dst"])
        g = d.groupby("src", as_index=False).size()
        return g.rename(columns={"src": "subj", "size": "n_two_hop"})

    # exchanging ON (src, dst) makes the in-call dedup globally exact
    # (each pair reaches exactly one call); the per-call src counts are
    # partials over disjoint pair sets, so the tiny final groupby sums
    # them into exact distinct counts
    from ray.data.aggregate import Sum

    partials = exchange(joined, ["src", "dst"], count_per_src)
    return partials.groupby("subj").aggregate(
        Sum("n_two_hop", alias_name="n_two_hop"))


def two_hop_counts_sql() -> str:
    from nativeextractor_ray.pipelines.oracles import TRIPLES_SQL

    return f"""WITH t AS MATERIALIZED ({TRIPLES_SQL}),
e AS (SELECT DISTINCT subj, obj FROM t)
SELECT a.subj, CAST(count(DISTINCT b.obj) AS BIGINT) AS n_two_hop
FROM e a JOIN e b ON b.subj = a.obj
GROUP BY a.subj"""


# ---------------------------------------------------------------- triangles


def _pair_enum(starts: np.ndarray, sizes: np.ndarray):
    """All i<j index pairs within contiguous groups, batched by group
    SIZE so the Python loop runs O(#distinct sizes) (the dedup.py
    ``_minhash_partition_pairs`` template).  Returns (ia, ib) into the
    flat sorted array."""
    ia_parts, ib_parts = [], []
    for size in np.unique(sizes):
        if size < 2:
            continue
        sel = np.nonzero(sizes == size)[0]
        ti, tj = np.triu_indices(int(size), 1)
        ia_parts.append((starts[sel][:, None] + ti[None, :]).ravel())
        ib_parts.append((starts[sel][:, None] + tj[None, :]).ravel())
    if not ia_parts:
        z = np.array([], dtype=np.int64)
        return z, z
    return np.concatenate(ia_parts), np.concatenate(ib_parts)


def triangle_counts(sf_dir: str):
    """Per-entity triangle participation over the UNDIRECTED KG: for
    every entity in at least one triangle, the number of triangles it
    belongs to — the clustering-coefficient numerator and the classic
    MapReduce graph benchmark (Cohen 2009; Chiba–Nishizeki node ordering).

    Scale shape — degree-ordered edge orientation bounds the blow-up:

    - distinct directed edges (from :func:`_edges`) symmetrize to
      canonical undirected pairs (``u < v``, loops dropped) through the
      same keyed-exchange dedup — never collected;
    - the degree vector is O(|entities|) (vocabulary-bounded, same
      size-gated argument as :func:`entity_pagerank`) and broadcasts
      once via ``ray.put``; each edge is oriented from its lower
      (degree, id)-ranked endpoint to the higher.  In that DAG every
      node's out-degree is ≤ √(2m) STRUCTURALLY (an apex with out-degree
      d has d neighbors of degree ≥ d, so d² ≤ Σdeg = 2m) — wedge
      generation is O(Σ out_deg²) ≤ O(m^1.5) total and no single apex
      can explode a call, without any skew cap or sampling;
    - wedges (apex → two out-neighbors, probe pair canonicalized by the
      same rank order) co-locate with the oriented edges on the packed
      pair key in ONE tagged-union exchange; in-call the
      probe is a packed-int64 ``searchsorted`` membership test — every
      triangle has exactly ONE apex (its rank-minimum vertex), so each
      is found exactly once, no post-dedup needed;
    - per-call entity credit (+1 to all three corners) folds to one
      O(|entities|) ``bincount`` vector row per call, summed on the
      driver — the pagerank contrib-vector economics.

    Oracle: triangles enumerated by a 3-way self-join on the canonical
    undirected edge set (``LEAST``/``GREATEST`` — binary collation,
    matching Arrow's UTF-8 compare), corners exploded by UNION ALL.

    Output: ``(entity, n_tri)`` for entities with ``n_tri ≥ 1``."""
    import pandas as pd
    import ray
    import ray.data

    def canon(t: pa.Table) -> pa.Table:
        s, o = t.column("subj"), t.column("obj")
        lt = pc.less(s, o)
        out = pa.table({"u": pc.if_else(lt, s, o),
                        "v": pc.if_else(lt, o, s)})
        return out.filter(pc.not_equal(out.column("u"), out.column("v")))

    def dedup(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(["u", "v"])[["u", "v"]]

    und = exchange(_edges(sf_dir).map_batches(canon, batch_format="pyarrow"),
                   ["u", "v"], dedup
                   ).materialize()  # feeds vocab, degree and orient passes

    names = _entity_ids(und, cols=("u", "v"))
    n = names.size
    empty = pa.table({"entity": pa.array([], pa.string()),
                      "n_tri": pa.array([], pa.int64())})
    if n == 0:
        return ray.data.from_arrow(empty)
    if n >= (1 << 31):
        raise ValueError("triangle_counts: entity id space exceeds the "
                         "packed-key bound (2^31)")
    names_ref = ray.put(names)

    def encode(t: pa.Table) -> pa.Table:
        nm = ray.get(names_ref)
        a = np.searchsorted(nm, t.column("u").to_numpy(zero_copy_only=False))
        b = np.searchsorted(nm, t.column("v").to_numpy(zero_copy_only=False))
        return pa.table({"a": pa.array(a, pa.int64()),
                         "b": pa.array(b, pa.int64())})

    enc = und.map_batches(encode, batch_format="pyarrow").materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        v = (np.bincount(t.column("a").to_numpy(), minlength=n)
             + np.bincount(t.column("b").to_numpy(), minlength=n))
        return pa.table({"v": pa.array([v.astype(np.int64).tobytes()],
                                       pa.binary())})

    deg = np.zeros(n, dtype=np.int64)
    for t in arrow_blocks(enc.map_batches(deg_partial,
                                          batch_format="pyarrow")):
        for blob in t.column("v").to_pylist():
            deg += np.frombuffer(blob, dtype=np.int64)

    # total order: rank by (degree, id); rank_of[i] = position of node i
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[np.lexsort((np.arange(n), deg))] = np.arange(n)
    rank_ref = ray.put(rank_of)

    def orient(t: pa.Table) -> pa.Table:
        r = ray.get(rank_ref)
        a = t.column("a").to_numpy()
        b = t.column("b").to_numpy()
        fwd = r[a] < r[b]  # ranks are a total order: never equal
        src = np.where(fwd, a, b)
        dst = np.where(fwd, b, a)
        return pa.table({"s": pa.array(src, pa.int64()),
                         "d": pa.array(dst, pa.int64())})

    oriented = enc.map_batches(orient, batch_format="pyarrow")

    def wedges(df: "pd.DataFrame") -> "pd.DataFrame":
        # all apexes of the call: out-neighbor pairs, probe pair
        # canonicalized by rank (out-neighbors sort by rank within apex)
        r = ray.get(rank_ref)
        s = df["s"].to_numpy()
        d = df["d"].to_numpy()
        order = np.lexsort((r[d], s))
        s_s, d_s = s[order], d[order]
        brk = np.nonzero(np.diff(s_s))[0] + 1
        starts = np.concatenate(([0], brk))
        sizes = np.diff(np.concatenate((starts, [len(s_s)])))
        ia, ib = _pair_enum(starts, sizes)
        if not len(ia):
            return pd.DataFrame({"pa_": pd.array([], dtype="int64"),
                                 "pb_": pd.array([], dtype="int64"),
                                 "apex": pd.array([], dtype="int64")})
        return pd.DataFrame({"pa_": d_s[ia], "pb_": d_s[ib],
                             "apex": s_s[ia]})

    wedge_ds = exchange(oriented, ["s"], wedges)

    def tag_wedge(t: pa.Table) -> pa.Table:
        key = ((t.column("pa_").to_numpy() << np.int64(31))
               | t.column("pb_").to_numpy())
        return pa.table({
            "key": pa.array(key, pa.int64()),
            "apex": t.column("apex"),
            "is_edge": pa.array(np.zeros(t.num_rows, bool))})

    def tag_edge(t: pa.Table) -> pa.Table:
        key = ((t.column("s").to_numpy() << np.int64(31))
               | t.column("d").to_numpy())
        return pa.table({
            "key": pa.array(key, pa.int64()),
            "apex": pa.array(np.full(t.num_rows, -1), pa.int64()),
            "is_edge": pa.array(np.ones(t.num_rows, bool))})

    both = (wedge_ds.map_batches(tag_wedge, batch_format="pyarrow")
            .union(oriented.map_batches(tag_edge, batch_format="pyarrow")))

    def close_and_credit(df: "pd.DataFrame") -> "pd.DataFrame":
        ek = np.sort(df.loc[df["is_edge"], "key"].to_numpy())
        w = df[~df["is_edge"]]
        if not len(w) or not len(ek):
            return pd.DataFrame({"v": pd.array([], dtype=object)})
        wk = w["key"].to_numpy()
        pos = np.searchsorted(ek, wk)
        hit = (pos < len(ek)) & (ek[np.minimum(pos, len(ek) - 1)] == wk)
        if not hit.any():
            return pd.DataFrame({"v": pd.array([], dtype=object)})
        apex = w["apex"].to_numpy()[hit]
        kk = wk[hit]
        credit = (np.bincount(apex, minlength=n)
                  + np.bincount(kk >> np.int64(31), minlength=n)
                  + np.bincount(kk & np.int64((1 << 31) - 1), minlength=n))
        return pd.DataFrame({"v": [credit.astype(np.int64).tobytes()]})

    tri = np.zeros(n, dtype=np.int64)
    for t in arrow_blocks(exchange(both, ["key"], close_and_credit)):
        for blob in t.column("v").to_pylist():
            tri += np.frombuffer(blob, dtype=np.int64)

    nz = np.nonzero(tri)[0]
    if not nz.size:
        return ray.data.from_arrow(empty)
    out = pa.table({"entity": pa.array(names[nz], pa.string()),
                    "n_tri": pa.array(tri[nz], pa.int64())})
    CHUNK = 65536
    return ray.data.from_arrow(
        [out.slice(i, CHUNK) for i in range(0, out.num_rows, CHUNK)] or [out])


def triangle_counts_sql() -> str:
    from nativeextractor_ray.pipelines.oracles import TRIPLES_SQL

    return f"""WITH t AS MATERIALIZED ({TRIPLES_SQL}),
e AS (SELECT DISTINCT LEAST(subj, obj) AS u, GREATEST(subj, obj) AS v
      FROM t WHERE subj <> obj),
tri AS (SELECT a.u AS x, a.v AS y, b.v AS z
        FROM e a JOIN e b ON b.u = a.v
                 JOIN e c ON c.u = a.u AND c.v = b.v)
SELECT entity, CAST(count(*) AS BIGINT) AS n_tri
FROM (SELECT x AS entity FROM tri
      UNION ALL SELECT y FROM tri
      UNION ALL SELECT z FROM tri)
GROUP BY entity"""


# ------------------------------------------------- neighborhood Jaccard


#: pair-generation fan-in cap: objects cited by more subjects than this
#: are dropped from CO-CITATION pair enumeration (their wedge count is
#: quadratic); degrees still count them, and the oracle replays the cap
JACCARD_MAX_FANIN = 1000


def _empty_pairs():
    import pandas as pd

    return pd.DataFrame({"subj_a": pd.Series([], dtype=object),
                         "subj_b": pd.Series([], dtype=object),
                         "n": pd.Series([], dtype=np.int64)})


def _empty_scored():
    import pandas as pd

    return pd.DataFrame({
        "subj_a": pd.Series([], dtype=object),
        "subj_b": pd.Series([], dtype=object),
        "n_shared": pd.Series([], dtype=np.int64),
        "jaccard_micro": pd.Series([], dtype=np.int64)})


def entity_neighbor_jaccard(sf_dir: str, min_shared: int = 2,
                            max_fanin: int = JACCARD_MAX_FANIN):
    """Structural entity-resolution candidates: pairs of SUBJECTS whose
    out-neighborhoods overlap, scored by exact Jaccard — two entities
    that cite ≥ ``min_shared`` of the same objects are canonicalization
    candidates even when their surface forms share nothing (the
    co-citation complement to :func:`~..pipelines.kg.canonical_map`'s
    surface-form union-find).

    Scale shape (the set-similarity self-join, as in the dedup family):

    - distinct ``(subj, obj)`` edges come from :func:`_edges` (keyed
      exchange dedup) and are materialized once for the two
      passes (degrees, pairs);
    - the degree vector |N(subj)| is vocabulary-bounded: per-batch
      partial counts → one subj groupby → size-gated driver collect +
      ``ray.put`` (the pagerank contrib-vector economics, same
      ``VOCAB_BOUND`` gate);
    - co-citation pairs enumerate per OBJECT: one exchange on ``obj``;
      in-call the rows sort by ``(obj, subj)`` so
      :func:`_pair_enum` emits each pair already in canonical
      ``subj_a < subj_b`` order, objects with fan-in > ``max_fanin``
      are dropped WHOLE (deterministic skew cap — the minhash
      ``MAX_BUCKET`` rule; a hot object pairs quadratically and carries
      no resolution signal), and partial pair counts pre-aggregate
      before leaving the call;
    - one second exchange on the pair sums partials; the
      ``min_shared`` gate and the exact half-up micro Jaccard
      ``(2·i·10⁶ + u) // (2·u)`` with ``u = da + db − i`` resolve
      in-call against the broadcast degree arrays.

    Degrees keep capped-out objects (the cap bounds PAIR generation,
    not the neighborhood size), and the oracle replays both the cap and
    the integer ratio exactly.

    Output: ``(subj_a, subj_b, n_shared, jaccard_micro)``."""
    import pandas as pd
    import ray

    from nativeextractor_ray.functions.blocks import arrow_blocks

    e = _edges(sf_dir).materialize()

    # ---- pass 1: vocabulary-bounded subject degree vector
    def deg_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("subj").aggregate([("subj", "count")])
        return pa.table({
            "subj": g.column("subj"),
            "deg": pc.cast(g.column("subj_count"), pa.int64()),
        })

    from ray.data.aggregate import Sum

    deg_ds = (e.map_batches(deg_partial, batch_format="pyarrow")
              .groupby("subj").aggregate(Sum("deg", alias_name="deg"))
              .materialize())
    if (deg_ds.size_bytes() or 0) > VOCAB_BOUND:
        raise ValueError(
            "entity_neighbor_jaccard: subject vocabulary exceeds the "
            f"driver bound ({deg_ds.size_bytes()} B) — shard the graph "
            "or raise VOCAB_BOUND deliberately")
    blocks = [t for t in arrow_blocks(deg_ds, stream=False) if t.num_rows]
    if not blocks:
        return ray.data.from_arrow(pa.table({
            "subj_a": pa.array([], pa.string()),
            "subj_b": pa.array([], pa.string()),
            "n_shared": pa.array([], pa.int64()),
            "jaccard_micro": pa.array([], pa.int64())}))
    dt = pa.concat_tables(blocks)
    dnames = dt.column("subj").to_numpy(zero_copy_only=False)
    dorder = np.argsort(dnames)
    deg_side = ray.put((dnames[dorder],
                        dt.column("deg").to_numpy()[dorder]))

    # ---- pass 2: per-object wedge enumeration, pre-aggregated
    def pair_partials(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["obj", "subj"], kind="stable")
        obj = df["obj"].to_numpy()
        subj = df["subj"].to_numpy()
        change = np.ones(len(obj), bool)
        change[1:] = obj[1:] != obj[:-1]
        starts = np.nonzero(change)[0]
        sizes = np.diff(np.append(starts, len(obj)))
        keep = sizes <= max_fanin
        ia, ib = _pair_enum(starts[keep], sizes[keep])
        if not len(ia):
            return _empty_pairs()
        out = pd.DataFrame({"subj_a": subj[ia], "subj_b": subj[ib]})
        g = out.groupby(["subj_a", "subj_b"], sort=False).size()
        g = g.reset_index(name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    partials = exchange(e, ["obj"], pair_partials)

    def finish(df: "pd.DataFrame") -> "pd.DataFrame":
        if df.empty or "subj_a" not in df.columns:
            return _empty_scored()
        g = (df.groupby(["subj_a", "subj_b"], sort=False)["n"].sum()
             .reset_index())
        g = g[g["n"].to_numpy() >= min_shared]
        if g.empty:
            return _empty_scored()
        names, degs = ray.get(deg_side)
        da = degs[np.searchsorted(names, g["subj_a"].to_numpy())]
        db = degs[np.searchsorted(names, g["subj_b"].to_numpy())]
        inter = g["n"].to_numpy(np.int64)
        union = da + db - inter
        return pd.DataFrame({
            "subj_a": g["subj_a"].to_numpy(),
            "subj_b": g["subj_b"].to_numpy(),
            "n_shared": inter,
            "jaccard_micro": (2 * inter * 1_000_000 + union)
            // (2 * union),
        })

    return exchange(partials, ["subj_a", "subj_b"], finish)


def entity_neighbor_jaccard_sql(min_shared: int = 2,
                                max_fanin: int = JACCARD_MAX_FANIN) -> str:
    from nativeextractor_ray.pipelines.oracles import TRIPLES_SQL

    return f"""WITH t AS MATERIALIZED ({TRIPLES_SQL}),
e AS (SELECT DISTINCT subj, obj FROM t),
keep AS (SELECT obj FROM e GROUP BY obj
         HAVING count(*) <= {max_fanin}),
p AS (SELECT a.subj AS subj_a, b.subj AS subj_b,
             CAST(count(*) AS BIGINT) AS n_shared
      FROM e a JOIN e b ON b.obj = a.obj AND a.subj < b.subj
      JOIN keep k ON k.obj = a.obj
      GROUP BY 1, 2 HAVING count(*) >= {min_shared}),
d AS (SELECT subj, CAST(count(*) AS BIGINT) AS deg FROM e GROUP BY subj)
SELECT p.subj_a, p.subj_b, p.n_shared,
       CAST((2 * p.n_shared * 1000000
             + (da.deg + db.deg - p.n_shared))
            // (2 * (da.deg + db.deg - p.n_shared)) AS BIGINT)
         AS jaccard_micro
FROM p JOIN d da ON da.subj = p.subj_a
       JOIN d db ON db.subj = p.subj_b"""


# ------------------------------------------------ bounded BFS from seeds


REACH_SEED_PREFIX = "person:"
REACH_MAX_HOPS = 3


def seed_reachability(sf_dir: str, seed_prefix: str = REACH_SEED_PREFIX,
                      max_hops: int = REACH_MAX_HOPS):
    """Minimum hop distance (≤ ``max_hops``) from a seed entity set —
    directed BFS over the distinct KG edges, the "blast radius" /
    lineage-impact query (which entities does a tainted seed set touch
    within K steps).  Seeds = entities whose id starts with
    ``seed_prefix`` (hop 0).

    Scale shape (the :func:`entity_pagerank` economics): edges int-encode
    against the vocabulary-bounded sorted entity array (broadcast ONCE);
    the distance vector is O(|entities|) and lives on the driver; each
    hop is ONE streaming pass over the edge Dataset where every block
    folds to a |entities|-bit reached bitmap (``np.bincount`` on the
    frontier mask), OR-merged on the driver.  K passes total, no
    shuffle, edges never move.

    Output: ``(entity, hop)`` for reached entities only."""
    import ray
    import ray.data

    from nativeextractor_ray.functions.blocks import arrow_blocks

    edges = _edges(sf_dir).materialize()  # K streaming passes below
    names = _entity_ids(edges)
    n = names.size
    if n == 0:
        return ray.data.from_arrow(pa.table({
            "entity": pa.array([], pa.string()),
            "hop": pa.array([], pa.int64())}))
    names_ref = ray.put(names)

    def encode(t: pa.Table) -> pa.Table:
        nm = ray.get(names_ref)
        s = np.searchsorted(nm, t.column("subj").to_numpy(zero_copy_only=False))
        o = np.searchsorted(nm, t.column("obj").to_numpy(zero_copy_only=False))
        return pa.table({"s": pa.array(s, pa.int64()),
                         "o": pa.array(o, pa.int64())})

    enc = edges.map_batches(encode, batch_format="pyarrow").materialize()

    dist = np.full(n, -1, np.int64)
    seeds = np.char.startswith(names.astype(str), seed_prefix)
    dist[seeds] = 0

    for hop in range(1, max_hops + 1):
        frontier = dist == (hop - 1)
        if not frontier.any():
            break
        fref = ray.put(frontier)

        def step(t: pa.Table) -> pa.Table:
            f = ray.get(fref)
            s = t.column("s").to_numpy()
            o = t.column("o").to_numpy()
            reached = np.zeros(len(f), bool)
            reached[o[f[s]]] = True
            return pa.table({"v": pa.array([np.packbits(reached).tobytes()],
                                           pa.binary())})

        acc = np.zeros(n, bool)
        for t in arrow_blocks(enc.map_batches(step,
                                              batch_format="pyarrow")):
            for b in t.column("v").to_pylist():
                acc |= np.unpackbits(
                    np.frombuffer(b, np.uint8), count=n).astype(bool)
        new = acc & (dist < 0)
        dist[new] = hop

    hit = dist >= 0
    return ray.data.from_arrow(pa.table({
        "entity": pa.array(names[hit].astype(object), pa.string()),
        "hop": pa.array(dist[hit], pa.int64())}))


def seed_reachability_sql(seed_prefix: str = REACH_SEED_PREFIX,
                          max_hops: int = REACH_MAX_HOPS) -> str:
    """Unrolled BFS: h0 = seeds at hop 0; each h{i} is the min-hop merge
    of h{i-1} with its one-step successors at hop i."""
    from nativeextractor_ray.pipelines.oracles import TRIPLES_SQL

    head = f"""WITH t AS MATERIALIZED ({TRIPLES_SQL}),
e AS MATERIALIZED (SELECT DISTINCT subj, obj FROM t),
n AS MATERIALIZED (SELECT subj AS entity FROM e UNION SELECT obj FROM e),
h0 AS MATERIALIZED (SELECT entity, 0 AS hop FROM n
        WHERE entity LIKE '{seed_prefix}%')"""
    steps = []
    for i in range(1, max_hops + 1):
        p = f"h{i - 1}"
        steps.append(f""",
h{i} AS MATERIALIZED (
  SELECT entity, min(hop) AS hop FROM (
    SELECT entity, hop FROM {p}
    UNION ALL
    SELECT e.obj AS entity, {i} AS hop
    FROM e JOIN {p} ON e.subj = {p}.entity WHERE {p}.hop = {i - 1}
  ) GROUP BY entity)""")
    return (head + "".join(steps)
            + f"\nSELECT entity, CAST(hop AS BIGINT) AS hop"
              f" FROM h{max_hops}")


# --------------------------------------- surface-similarity ER candidates


LINK_MAX_DIST = 2
LINK_BLOCK_CAP = 200


def _levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (two-row DP) — matches DuckDB's
    ``levenshtein`` exactly; only ever called on capped in-block pairs."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def surface_link_candidates(sf_dir: str, max_dist: int = LINK_MAX_DIST,
                            cap: int = LINK_BLOCK_CAP):
    """Entity-resolution candidate pairs by SURFACE similarity: distinct
    KG entities blocked on (type prefix, first letter of the local
    name), scored by exact edit distance within each block — the
    string-side complement of :func:`entity_neighbor_jaccard`'s
    structural candidates (catches ``person:nina`` vs ``person:nora``
    typos/aliases that share no neighbors yet).

    Scale shape: the distinct-entity Dataset folds per batch to
    (block, entity) rows; ONE exchange on the block co-locates every
    block; in-call each block keeps only its ``cap``
    lexicographically-smallest surfaces (a DETERMINISTIC fan-in cap,
    replayed by the oracle via ``row_number() OVER (... ORDER BY
    entity)`` — the :func:`entity_neighbor_jaccard` cap convention) so
    pair work is O(cap²) per block regardless of skew; the
    ``|len_a − len_b| > max_dist`` prune skips pairs the distance bound
    already excludes.  Text beyond the entity ids never moves.

    Output: ``(entity_a, entity_b, lev)`` with entity_a < entity_b and
    lev ≤ ``max_dist``."""
    import pandas as pd

    edges = _edges(sf_dir)

    def blocks(t: pa.Table) -> pa.Table:
        u = pc.unique(pa.chunked_array([
            t.column("subj").combine_chunks(),
            t.column("obj").combine_chunks()]))
        ents = u.to_pylist()
        typ, blk = [], []
        for e in ents:
            head, _, rest = e.partition(":")
            typ.append(head)
            blk.append(rest[:1])
        return pa.table({
            "entity": pa.array(ents, pa.string()),
            "typ": pa.array(typ, pa.string()),
            "blk": pa.array(blk, pa.string())})

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.drop_duplicates("entity")
        a_out, b_out, d_out = [], [], []
        for (_, _), grp in df.groupby(["typ", "blk"], sort=False):
            ents = sorted(grp["entity"].tolist())[:cap]
            for i in range(len(ents)):
                ei = ents[i]
                for j in range(i + 1, len(ents)):
                    ej = ents[j]
                    if abs(len(ei) - len(ej)) > max_dist:
                        continue
                    d = _levenshtein(ei, ej)
                    if d <= max_dist:
                        a_out.append(ei)
                        b_out.append(ej)
                        d_out.append(d)
        return pd.DataFrame({
            "entity_a": pd.Series(a_out, dtype=str),
            "entity_b": pd.Series(b_out, dtype=str),
            "lev": pd.Series(d_out, dtype=np.int64)})

    return exchange(edges.map_batches(blocks, batch_format="pyarrow"),
                    ["typ", "blk"], resolve)


def surface_link_candidates_sql(max_dist: int = LINK_MAX_DIST,
                                cap: int = LINK_BLOCK_CAP) -> str:
    from nativeextractor_ray.pipelines.oracles import TRIPLES_SQL

    return f"""WITH t AS MATERIALIZED ({TRIPLES_SQL}),
e AS MATERIALIZED (SELECT DISTINCT subj AS entity FROM t
                   UNION SELECT DISTINCT obj FROM t),
b AS (SELECT entity, split_part(entity, ':', 1) AS typ,
             substr(split_part(entity, ':', 2), 1, 1) AS blk
      FROM e),
capped AS (
  SELECT entity, typ, blk FROM (
    SELECT *, row_number() OVER (PARTITION BY typ, blk
                                 ORDER BY entity) AS rn
    FROM b) WHERE rn <= {cap})
SELECT a.entity AS entity_a, c.entity AS entity_b,
       CAST(levenshtein(a.entity, c.entity) AS BIGINT) AS lev
FROM capped a JOIN capped c
  ON a.typ = c.typ AND a.blk = c.blk AND a.entity < c.entity
WHERE levenshtein(a.entity, c.entity) <= {max_dist}"""


# ------------------------------------------------------- k-core peeling


KCORE_K = 2
KCORE_ROUNDS = 4


def kcore_entities(sf_dir: str, k: int = KCORE_K,
                   rounds: int = KCORE_ROUNDS):
    """Iterative k-core peeling over the UNDIRECTED distinct-neighbor
    graph: ``rounds`` synchronous rounds of "drop every entity with
    fewer than ``k`` still-alive neighbors" — the density filter that
    separates the KG's connected backbone from its mention dust.  A
    fixed round count keeps the computation (and the unrolled oracle)
    deterministic whether or not the peel has converged; on KG-shaped
    graphs the fixpoint arrives in a handful of rounds.

    Scale shape (:func:`entity_pagerank` economics): distinct canonical
    neighbor pairs int-encode once against the vocabulary-bounded
    broadcast entity array; the alive bitmask lives on the driver; each
    round is ONE streaming pass where every block folds to a
    |entities|-long bincount of alive-alive incidences.  No shuffle
    after the initial pair dedup, edges never move again.

    Output: ``(entity, deg)`` for entities alive after ``rounds``
    (deg = alive-neighbor count measured in the final round)."""
    import pandas as pd
    import ray
    import ray.data

    from nativeextractor_ray.functions.blocks import arrow_blocks

    edges = _edges(sf_dir)

    def undirect(df: "pd.DataFrame") -> "pd.DataFrame":
        a = np.minimum(df["subj"].to_numpy(object), df["obj"].to_numpy(object))
        b = np.maximum(df["subj"].to_numpy(object), df["obj"].to_numpy(object))
        out = pd.DataFrame({"a": a.astype(str), "b": b.astype(str)})
        out = out[out["a"] != out["b"]].drop_duplicates()
        return out

    def dedup(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(["a", "b"])[["a", "b"]]

    # canonical a<b pairs, deduped globally by one exchange on the pair
    pairs = exchange(edges.map_batches(undirect, batch_format="pandas"),
                     ["a", "b"], dedup).materialize()

    names = _entity_ids(pairs, cols=("a", "b"))
    n = names.size
    if n == 0:
        return ray.data.from_arrow(pa.table({
            "entity": pa.array([], pa.string()),
            "deg": pa.array([], pa.int64())}))
    names_ref = ray.put(names)

    def encode(t: pa.Table) -> pa.Table:
        nm = ray.get(names_ref)
        a = np.searchsorted(nm, t.column("a").to_numpy(zero_copy_only=False))
        b = np.searchsorted(nm, t.column("b").to_numpy(zero_copy_only=False))
        return pa.table({"a": pa.array(a, pa.int64()),
                         "b": pa.array(b, pa.int64())})

    enc = pairs.map_batches(encode, batch_format="pyarrow").materialize()

    alive = np.ones(n, bool)
    deg = np.zeros(n, np.int64)
    for _ in range(rounds):
        aref = ray.put(alive)

        def count(t: pa.Table) -> pa.Table:
            al = ray.get(aref)
            a = t.column("a").to_numpy()
            b = t.column("b").to_numpy()
            m = al[a] & al[b]
            v = (np.bincount(a[m], minlength=len(al))
                 + np.bincount(b[m], minlength=len(al)))
            return pa.table({"v": pa.array([v.astype(np.int64).tobytes()],
                                           pa.binary())})

        deg = np.zeros(n, np.int64)
        for t in arrow_blocks(enc.map_batches(count,
                                              batch_format="pyarrow")):
            for buf in t.column("v").to_pylist():
                deg += np.frombuffer(buf, np.int64)
        alive &= deg >= k

    return ray.data.from_arrow(pa.table({
        "entity": pa.array(names[alive].astype(object), pa.string()),
        "deg": pa.array(deg[alive], pa.int64())}))


def kcore_entities_sql(k: int = KCORE_K,
                       rounds: int = KCORE_ROUNDS) -> str:
    """Unrolled peel: a{i} = nodes of a{i-1} with ≥ k alive neighbors;
    d{i} measures degree against a{i-1} (the same synchronous rule)."""
    from nativeextractor_ray.pipelines.oracles import TRIPLES_SQL

    head = f"""WITH t AS MATERIALIZED ({TRIPLES_SQL}),
e0 AS MATERIALIZED (
  SELECT DISTINCT least(subj, obj) AS a, greatest(subj, obj) AS b
  FROM t WHERE subj <> obj),
sym AS MATERIALIZED (
  SELECT a AS x, b AS y FROM e0 UNION ALL SELECT b, a FROM e0),
a0 AS MATERIALIZED (SELECT DISTINCT x AS entity FROM sym)"""
    steps = []
    for i in range(1, rounds + 1):
        p = f"a{i - 1}"
        steps.append(f""",
d{i} AS MATERIALIZED (
  SELECT s.x AS entity, CAST(count(*) AS BIGINT) AS deg
  FROM sym s JOIN {p} pa ON pa.entity = s.x
             JOIN {p} pb ON pb.entity = s.y
  GROUP BY s.x),
a{i} AS MATERIALIZED (SELECT entity FROM d{i} WHERE deg >= {k})""")
    return (head + "".join(steps)
            + f"""
SELECT d.entity, d.deg FROM d{rounds} d
JOIN a{rounds} a ON a.entity = d.entity""")


# ------------------------------------------------- degree distribution


def degree_distribution(sf_dir: str):
    """Count-of-counts over total entity degree (in + out, distinct
    edges): how many entities have degree d — the first thing a graph
    audit plots (hub detection, power-law sanity).

    Scale shape: rides :func:`entity_degree`'s partial-aggregate
    groupby, then per-batch count-of-counts partials fold the entity
    axis away (the ``term_freq_histogram`` shape) into a tiny final
    groupby.

    Output: ``(degree, n_entities)``."""
    from ray.data.aggregate import Sum

    deg = entity_degree(sf_dir)

    def coc(t: pa.Table) -> pa.Table:
        total = (t.column("out_deg").to_numpy()
                 + t.column("in_deg").to_numpy())
        g = pa.table({"degree": pa.array(total, pa.int64())}) \
            .group_by("degree").aggregate([([], "count_all")])
        return pa.table({
            "degree": g.column("degree"),
            "n_entities": pc.cast(g.column("count_all"), pa.int64())})

    return (deg.map_batches(coc, batch_format="pyarrow")
            .groupby("degree")
            .aggregate(Sum("n_entities", alias_name="n_entities")))


def degree_distribution_sql() -> str:
    from nativeextractor_ray.pipelines.oracles import TRIPLES_SQL

    return f"""WITH t AS MATERIALIZED ({TRIPLES_SQL}),
e AS (SELECT DISTINCT subj, obj FROM t),
d AS (
  SELECT entity, CAST(count(*) AS BIGINT) AS degree
  FROM (SELECT subj AS entity FROM e UNION ALL SELECT obj FROM e)
  GROUP BY entity)
SELECT degree, CAST(count(*) AS BIGINT) AS n_entities
FROM d GROUP BY degree"""
