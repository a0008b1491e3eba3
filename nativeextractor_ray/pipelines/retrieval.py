"""Keyword retrieval over ``documents`` — BM25 top-k.

Complements the ANN family (``similarity.py``): where ANN ranks by
embedding cosine, :func:`bm25_topk` ranks documents for a fixed keyword
query by Okapi BM25 — the lexical half of every hybrid-retrieval /
data-selection pipeline (e.g. picking in-domain documents for a target
task by keyword profile before an embedding rerank).

Scale shape (100 TB): two streaming passes, no shuffle of text.

1. **Corpus-stats pass** — one tiny partial row per block: ``N`` (docs),
   ``Σ dl`` (token lengths) and per-query-term document frequencies,
   reduced on the driver to a handful of scalars (idf vector, avgdl).
   This is the repo's tiny-partials pattern: rows ∝ blocks, never docs.
2. **Score pass** — per batch, fully vectorized: one Arrow
   ``split_pattern`` tokenization, per-term ``pc.equal`` masks +
   ``np.bincount`` term frequencies, the BM25 kernel in float64, then a
   per-block local top-k; only ``k`` candidate rows per block leave the
   node.  A final sort+limit over the k × blocks candidates resolves the
   global ranking.

The BM25 variant is Lucene's non-negative idf:
``idf(t) = ln((N - df + 0.5)/(df + 0.5) + 1)`` with ``k1 = 1.2``,
``b = 0.75``.  Scores are rounded to 4 dp on BOTH sides (the repo's
float-parity rule, cf. ``textstats.top_terms_tfidf``) and ranked on the
rounded value, ties broken by ``doc_id`` asc.

Reference scope note: the reference engine (nativeextractor) stops at
mention extraction (src/extractor.c); retrieval scoring is part of the
prompt-mandated training-data operator family, not a reference port.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

QUERY_TERMS = ("hash", "merge", "window", "spark")
BM25_K1 = 1.2
BM25_B = 0.75
BM25_TOP_K = 20
ROUND = 4


def _tokenize(t: pa.Table):
    """Whitespace tokens of ``text``: flat token array, per-token parent
    row index (int64 numpy), and per-row non-empty token count."""
    toks = pc.split_pattern(t.column("text"), " ")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks)
    keep = pc.not_equal(flat, "")
    flat = flat.filter(keep)
    parent = parent.filter(keep).to_numpy().astype(np.int64)
    dl = np.bincount(parent, minlength=t.num_rows)
    return flat, parent, dl


def bm25_topk(sf_dir: str, terms: tuple[str, ...] = QUERY_TERMS,
              k: int = BM25_TOP_K):
    """Top-``k`` documents by BM25 for the fixed keyword query ``terms``.

    Output: ``(doc_id, score, rnk)`` — rounded score desc, doc_id asc.
    """
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        flat, parent, dl = _tokenize(t)
        row = {"n": pa.array([t.num_rows], pa.int64()),
               "sum_dl": pa.array([int(dl.sum())], pa.int64())}
        for i, term in enumerate(terms):
            m = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            row[f"df_{i}"] = pa.array(
                [int(np.unique(parent[m]).size)], pa.int64())
        return pa.table(row)

    # tiny partials: one row per block (len(terms)+2 ints each)
    parts = ds.map_batches(stats, batch_format="pyarrow").take_all()
    n_docs = sum(r["n"] for r in parts)
    sum_dl = sum(r["sum_dl"] for r in parts)
    if n_docs == 0 or sum_dl == 0:
        # degenerate corpus (no docs / no tokens): no doc can score —
        # short-circuit with the typed empty result (avgdl would be
        # 0/undefined below)
        import ray.data

        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
            "rnk": pa.array([], pa.int64())}))
    df = np.array([sum(r[f"df_{i}"] for r in parts)
                   for i in range(len(terms))], dtype=np.float64)
    avgdl = sum_dl / n_docs
    idf = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)

    def score_block(t: pa.Table) -> pa.Table:
        flat, parent, dl = _tokenize(t)
        doc_id = t.column("doc_id").to_numpy()
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl)
        score = np.zeros(t.num_rows, dtype=np.float64)
        tf_any = np.zeros(t.num_rows, dtype=np.int64)
        for i, term in enumerate(terms):
            m = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            tfc = np.bincount(parent[m], minlength=t.num_rows)
            tf_any += tfc
            tf = tfc.astype(np.float64)
            score += idf[i] * tf * (BM25_K1 + 1.0) / (tf + norm)
        score = np.round(score, ROUND)
        # candidacy = matched ANY query term (tf > 0), NOT score > 0:
        # the SQL twin keeps a tf>0 doc whose score ROUNDS to 0, and at
        # huge N a near-ubiquitous term's idf makes that reachable
        hit = tf_any > 0
        doc_id, score = doc_id[hit], score[hit]
        # local top-k on (score desc, doc_id asc); global resolve below
        idx = np.lexsort((doc_id, -score))[:k]
        return pa.table({"doc_id": pa.array(doc_id[idx], pa.int64()),
                         "score": pa.array(score[idx], pa.float64())})

    cand = ds.map_batches(score_block, batch_format="pyarrow")
    top = (cand.sort(["score", "doc_id"], descending=[True, False])
               .limit(k).repartition(1))

    def add_rank(t: pa.Table) -> pa.Table:
        return t.append_column(
            "rnk", pa.array(np.arange(1, t.num_rows + 1), pa.int64()))

    return top.map_batches(add_rank, batch_format="pyarrow")


# --------------------------------------------------- hybrid retrieval (RRF)


RRF_K = 60           # the standard reciprocal-rank-fusion damping constant
RRF_POOL = 50        # per-leg candidate pool
RRF_TOP_K = 20
RRF_ROUND = 6
RRF_QUERY_VEC_ID = 0  # deterministic dense-query: the min vec_id embedding


def hybrid_rrf_topk(sf_dir: str, k: int = RRF_TOP_K) -> pa.Table:
    """Hybrid retrieval: BM25 keyword leg + embedding-cosine dense leg,
    fused by reciprocal-rank fusion ``Σ 1/(60 + rank)`` (Cormack et al.) —
    the standard two-tower data-selection shape (lexical recall + dense
    precision) over ``documents`` × ``embeddings`` (row-aligned ids).

    Scale shape: each leg is already the repo's streaming top-k pattern
    (per-block local top-k, only pool-size candidate rows leave a node);
    the fusion itself touches exactly ``2 × RRF_POOL`` rows on the
    driver — constant, corpus-independent.

    Parity: both legs rank on 4-dp-rounded scores with id tie-breaks, so
    the ranks are exact integers on both engines; the fused score is one
    identical float expression of those integers, rounded to 6 dp.

    Output: ``(doc_id, rrf, rnk)`` — fused score desc, doc_id asc."""
    import pyarrow.parquet as pq
    import ray

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.functions.vectors import embedding_matrix
    from nativeextractor_ray.sources.tables import read_table, table_path

    # ---- lexical leg: BM25 pool with ranks (streaming, see bm25_topk)
    bm = {}
    for t in arrow_blocks(bm25_topk(sf_dir, k=RRF_POOL), stream=False):
        bm.update(zip(t.column("doc_id").to_pylist(),
                      t.column("rnk").to_pylist()))

    # ---- dense leg: cosine vs ONE deterministic query vector
    # row-group-pruned point read: only the query row reaches the driver
    # (a bare read_table would materialize the whole embedding corpus)
    qm = pq.read_table(table_path(sf_dir, "embeddings"),
                       columns=["vec_id", "embedding"],
                       filters=[("vec_id", "==", RRF_QUERY_VEC_ID)])
    if qm.num_rows == 0:
        raise ValueError(
            f"hybrid_rrf_topk: query vector vec_id={RRF_QUERY_VEC_ID} "
            "not present in embeddings")
    q = embedding_matrix(qm.column("embedding"))[0].astype(np.float64)
    q /= max(float(np.linalg.norm(q)), 1e-12)
    qref = ray.put(q)

    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])

    def block_topk(t: pa.Table) -> pa.Table:
        qv = ray.get(qref)
        vid = t.column("vec_id").to_numpy()
        m = embedding_matrix(t.column("embedding"))
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        s = np.round(m @ qv, 4)
        keep = vid != RRF_QUERY_VEC_ID  # the query itself is not a hit
        vid, s = vid[keep], s[keep]
        idx = np.lexsort((vid, -s))[:RRF_POOL]
        return pa.table({"vec_id": pa.array(vid[idx], pa.int64()),
                         "score": pa.array(s[idx], pa.float64())})

    dense = (ds.map_batches(block_topk, batch_format="pyarrow")
               .sort(["score", "vec_id"], descending=[True, False])
               .limit(RRF_POOL))
    cr = {}
    rank = 0
    for t in arrow_blocks(dense.repartition(1), stream=False):
        for v in t.column("vec_id").to_pylist():
            rank += 1
            cr[v] = rank

    # ---- fuse: constant-size driver work (≤ 2 × RRF_POOL candidates)
    ids = sorted(set(bm) | set(cr))
    rrf = [round((1.0 / (RRF_K + bm[i]) if i in bm else 0.0)
                 + (1.0 / (RRF_K + cr[i]) if i in cr else 0.0), RRF_ROUND)
           for i in ids]
    order = sorted(range(len(ids)), key=lambda j: (-rrf[j], ids[j]))[:k]
    return pa.table({
        "doc_id": pa.array([ids[j] for j in order], pa.int64()),
        "rrf": pa.array([rrf[j] for j in order], pa.float64()),
        "rnk": pa.array(np.arange(1, len(order) + 1), pa.int64()),
    })


def hybrid_rrf_topk_sql(k: int = RRF_TOP_K) -> str:
    return f"""WITH bm AS (
  SELECT doc_id, rnk FROM ({bm25_topk_sql(k=RRF_POOL)})
),
q AS (SELECT embedding FROM embeddings WHERE vec_id = {RRF_QUERY_VEC_ID}),
cs AS (
  SELECT e.vec_id AS doc_id,
         round(list_cosine_similarity(e.embedding, q.embedding), 4) AS score
  FROM embeddings e CROSS JOIN q
  WHERE e.vec_id <> {RRF_QUERY_VEC_ID}
),
cr AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score DESC, doc_id) AS rnk
  FROM cs ORDER BY score DESC, doc_id LIMIT {RRF_POOL}
),
ids AS (SELECT doc_id FROM bm UNION SELECT doc_id FROM cr),
f AS (
  SELECT ids.doc_id,
         round(coalesce(1.0 / ({RRF_K} + bm.rnk), 0.0)
               + coalesce(1.0 / ({RRF_K} + cr.rnk), 0.0), {RRF_ROUND}) AS rrf
  FROM ids LEFT JOIN bm ON bm.doc_id = ids.doc_id
           LEFT JOIN cr ON cr.doc_id = ids.doc_id
)
SELECT doc_id, rrf,
       CAST(row_number() OVER (ORDER BY rrf DESC, doc_id) AS BIGINT) AS rnk
FROM f ORDER BY rrf DESC, doc_id LIMIT {k}"""


def bm25_topk_sql(terms: tuple[str, ...] = QUERY_TERMS,
                  k: int = BM25_TOP_K) -> str:
    tlist = ", ".join(f"'{t}'" for t in terms)
    return f"""WITH dl AS (
  SELECT doc_id,
         CAST(len(list_filter(string_split(text, ' '), x -> x <> ''))
              AS BIGINT) AS dl
  FROM documents
),
stats AS (SELECT CAST(count(*) AS DOUBLE) AS n, avg(dl) AS avgdl FROM dl),
toks AS (
  SELECT doc_id, unnest(list_filter(string_split(text, ' '), x -> x <> ''))
         AS term
  FROM documents
),
tf AS (
  SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS tf
  FROM toks WHERE term IN ({tlist}) GROUP BY 1, 2
),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY 1),
scored AS (
  SELECT tf.doc_id,
         round(sum(ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                   * tf.tf * ({BM25_K1} + 1.0)
                   / (tf.tf + {BM25_K1} * (1.0 - {BM25_B}
                        + {BM25_B} * dl.dl / s.avgdl))), {ROUND}) AS score
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats s
  GROUP BY tf.doc_id
)
SELECT doc_id, score,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rnk
FROM scored ORDER BY score DESC, doc_id LIMIT {k}"""
