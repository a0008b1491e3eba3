"""Bigram language-model quality scoring over ``documents`` — the
perplexity-style filter of an LLM training-data pipeline (cf. the KenLM
quality scores of CCNet / the Gopher quality rules): train bigram counts
over the corpus, then score every document by its mean bigram log
probability under add-one smoothing.

Model
-----
Tokens are whitespace-split; the top-``v`` terms by (count desc, term asc)
get ids 1..v, everything else is UNK id 0 (the same bounded-vocabulary
construction as ``textstats.tokenize_ids``).  With ``veff = |vocab| + 1``
ids, a document's score is::

    lm_logprob = mean over positions i of
                 ln( (c(w_i, w_{i+1}) + 1) / (ctx(w_i) + veff) )

where ``c`` is the corpus bigram count and ``ctx(a) = Σ_b c(a, b)``.
Self-scoring (train corpus == scored corpus) means every scored bigram
exists in the model, so lookups always hit.

Scale shapes
------------
- The VOCABULARY is bounded by construction; the CONTEXT vector is
  ``veff`` int64s — both always broadcast (the pagerank deg-vector
  argument).
- The BIGRAM MODEL is bounded by ``veff²`` keys (vocab-bounded, like a
  pruned KenLM artifact — the reference's one-gazetteer-per-process
  economics, patricia.c).  It builds from per-batch ``np.unique``
  partials + one ``common.exchange`` on ``key``.  Scoring broadcasts it
  when under ``common.BROADCAST_BOUND``; above it the corpus bigram
  stream attaches to the model by one exchange on ``key`` over a tagged
  union and per-doc sums reduce via a second exchange on ``doc_id`` —
  no O(model) driver state on the scale path.  Both paths are
  asserted equal (to float-sum tolerance) in tests/test_lmscore.py by
  forcing the bound to 0.

Oracle: the whole model fits in SQL — vocab CTE (identical to
``tokenize_ids_sql``), bigram/context count CTEs, one join per leg.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.pipelines import common
from nativeextractor_ray.pipelines.common import exchange, fits, measured

#: bounded vocabulary; matches tokenize_ids' choice (< corpus vocab so the
#: UNK path is exercised at every sf)
LM_VOCAB_V = 25


def _docs(sf_dir: str):
    from nativeextractor_ray.sources.tables import read_table

    return read_table(sf_dir, "documents", ["doc_id", "text"])


def _encode(t: pa.Table, st: np.ndarray, si: np.ndarray):
    """Whitespace-tokenize a batch and map tokens to vocab ids (UNK=0).

    Returns ``(ids, off)``: flat int64 id array and per-doc offsets
    (len n+1) — docs are contiguous in flat order."""
    toks = pc.split_pattern(t.column("text"), " ")
    parent = pc.list_parent_indices(toks)
    flat = pc.list_flatten(toks)
    keep = pc.not_equal(flat, "")
    flat, parent = flat.filter(keep), parent.filter(keep)
    words = flat.to_numpy(zero_copy_only=False)
    par = parent.to_numpy()
    if len(st):
        pos = np.clip(np.searchsorted(st, words), 0, len(st) - 1)
        ids = np.where(st[pos] == words, si[pos], 0).astype(np.int64)
    else:
        ids = np.zeros(len(words), np.int64)
    n = t.num_rows
    cnts = np.bincount(par, minlength=n)
    off = np.zeros(n + 1, np.int64)
    np.cumsum(cnts, out=off[1:])
    return ids, off


def _pair_keys(ids: np.ndarray, off: np.ndarray, veff: int):
    """Within-doc consecutive-pair keys ``a * veff + b`` plus the pair's
    doc index.  Docs are contiguous, so the only invalid (j, j+1) pairs
    are the ones crossing a doc boundary."""
    if len(ids) < 2:
        return (np.empty(0, np.int64),) * 2
    valid = np.ones(len(ids) - 1, dtype=bool)
    inner = off[1:-1]
    valid[inner[(inner > 0) & (inner <= len(ids) - 1)] - 1] = False
    j = np.nonzero(valid)[0]
    keys = ids[j] * veff + ids[j + 1]
    docidx = np.searchsorted(off, j, side="right") - 1
    return keys, docidx


def _bigram_model(ds, vref, veff: int):
    """Distributed bigram counts → Dataset[(key:int64, cnt:int64)]."""
    import ray

    def partials(t: pa.Table) -> pa.Table:
        st, si = ray.get(vref)
        ids, off = _encode(t, st, si)
        keys, _ = _pair_keys(ids, off, veff)
        u, c = np.unique(keys, return_counts=True)
        return pa.table({
            "key": pa.array(u, pa.int64()),
            "cnt": pa.array(c.astype(np.int64)),
        })

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("key", sort=False)["cnt"].sum().reset_index()
        return out.astype("int64")

    return exchange(ds.map_batches(partials, batch_format="pyarrow"),
                    ["key"], combine)


def _ctx_vector(model, veff: int) -> np.ndarray:
    """ctx(a) = Σ_b c(a, b): per-block bincount partials summed on the
    driver — the vector is veff int64s (vocab-bounded)."""
    import ray

    def partial(t: pa.Table) -> pa.Table:
        k = t.column("key").to_numpy()
        c = t.column("cnt").to_numpy()
        v = np.bincount(k // veff, weights=c, minlength=veff)
        return pa.table({"v": pa.array([v.astype(np.int64).tobytes()],
                                       pa.binary())})

    from nativeextractor_ray.functions.blocks import arrow_blocks

    ctx = np.zeros(veff, dtype=np.int64)
    for t in arrow_blocks(model.map_batches(partial, batch_format="pyarrow"),
                          stream=False):
        for b in t.column("v").to_pylist():
            ctx += np.frombuffer(b, dtype=np.int64)
    return ctx


def lm_score(sf_dir: str, v: int = LM_VOCAB_V):
    """(doc_id, n_bigrams, lm_logprob) — mean add-one-smoothed bigram log
    probability per document (rounded to 6 decimals); docs with <2 tokens
    score 0.0 with n_bigrams 0."""
    import ray

    from nativeextractor_ray.pipelines.textstats import _top_v_vocab

    ds = _docs(sf_dir)
    st, si = _top_v_vocab(ds, "text", v)
    veff = len(st) + 1
    vref = ray.put((st, si))

    model, nbytes = measured(_bigram_model(ds, vref, veff))
    ctx = _ctx_vector(model, veff)
    ctx_ref = ray.put(ctx)

    if fits(nbytes, common.BROADCAST_BOUND):
        from nativeextractor_ray.functions.blocks import arrow_blocks

        parts = list(arrow_blocks(model, stream=False))
        if parts:
            tab = pa.concat_tables(parts)
            mk = tab.column("key").to_numpy()
            mc = tab.column("cnt").to_numpy()
        else:  # empty corpus: empty model
            mk = np.array([], dtype=np.int64)
            mc = np.array([], dtype=np.int64)
        order = np.argsort(mk)
        mref = ray.put((mk[order], mc[order]))

        def score(t: pa.Table) -> pa.Table:
            stv, siv = ray.get(vref)
            keys_m, cnts_m = ray.get(mref)
            ctx_v = ray.get(ctx_ref)
            ids, off = _encode(t, stv, siv)
            keys, docidx = _pair_keys(ids, off, veff)
            n = t.num_rows
            if len(keys):
                c = cnts_m[np.searchsorted(keys_m, keys)]  # always hits
                a = keys // veff
                logp = np.log((c + 1.0) / (ctx_v[a] + float(veff)))
                s = np.bincount(docidx, weights=logp, minlength=n)
                nb = np.bincount(docidx, minlength=n)
            else:
                s, nb = np.zeros(n), np.zeros(n, np.int64)
            out = np.divide(s, nb, out=np.zeros(n), where=nb > 0)
            return pa.table({
                "doc_id": t.column("doc_id"),
                "n_bigrams": pa.array(nb.astype(np.int64)),
                "lm_logprob": pa.array(np.round(out, 6), pa.float64()),
            })

        return ds.map_batches(score, batch_format="pyarrow")

    # scale path: attach the model to the bigram stream by one exchange
    # on key over a tagged union, then reduce per doc.  The sentinel row
    # (key = -1 - doc_id, m = 0) keeps zero-bigram docs in the output;
    # its negative key, distinct per doc, spreads the sentinels over the
    # calls instead of sending all of them to one.
    def doc_bigrams(t: pa.Table) -> pa.Table:
        stv, siv = ray.get(vref)
        ids, off = _encode(t, stv, siv)
        keys, docidx = _pair_keys(ids, off, veff)
        doc_ids = t.column("doc_id").to_numpy()
        if len(keys):
            grp = docidx.astype(np.int64) * (veff * veff) + keys
            u, c = np.unique(grp, return_counts=True)
            d_out = doc_ids[(u // (veff * veff)).astype(np.int64)]
            k_out = u % (veff * veff)
            m_out = c.astype(np.int64)
        else:
            d_out = np.empty(0, np.int64)
            k_out = np.empty(0, np.int64)
            m_out = np.empty(0, np.int64)
        d_all = np.concatenate([d_out, doc_ids])  # sentinels for every doc
        k_all = np.concatenate([k_out, -1 - doc_ids.astype(np.int64)])
        m_all = np.concatenate([m_out, np.zeros(len(doc_ids), np.int64)])
        return pa.table({
            "doc_id": pa.array(d_all, pa.int64()),
            "key": pa.array(k_all, pa.int64()),
            "m": pa.array(m_all, pa.int64()),
            "cnt": pa.array(np.full(len(d_all), -1, np.int64)),  # tag: corpus row
        })

    def tag_model(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pa.array(np.full(t.num_rows, -1, np.int64)),
            "key": t.column("key"),
            "m": pa.array(np.zeros(t.num_rows, np.int64)),
            "cnt": t.column("cnt"),
        })

    union = ds.map_batches(doc_bigrams, batch_format="pyarrow").union(
        model.map_batches(tag_model, batch_format="pyarrow"))

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        ctx_v = ray.get(ctx_ref)
        mdl = df[df["doc_id"] < 0]
        cor = df[df["doc_id"] >= 0]
        mk = mdl["key"].to_numpy()
        mc = mdl["cnt"].to_numpy()
        order = np.argsort(mk)
        mk, mc = mk[order], mc[order]
        keys = cor["key"].to_numpy()
        m = cor["m"].to_numpy().astype(np.float64)
        contrib = np.zeros(len(cor))
        real = keys >= 0
        if real.any():
            kk = keys[real]
            c = mc[np.searchsorted(mk, kk)]
            a = kk // veff
            contrib[real] = m[real] * np.log(
                (c + 1.0) / (ctx_v[a] + float(veff)))
        return pd.DataFrame({"doc_id": cor["doc_id"].to_numpy(),
                             "s": contrib,
                             "nb": cor["m"].to_numpy()})

    per_key = exchange(union, ["key"], attach)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False).agg(
            s=("s", "sum"), nb=("nb", "sum")).reset_index()
        nb = g["nb"].to_numpy().astype(np.int64)
        s = g["s"].to_numpy()
        out = np.divide(s, nb, out=np.zeros(len(g)), where=nb > 0)
        return pd.DataFrame({"doc_id": g["doc_id"].astype("int64"),
                             "n_bigrams": nb,
                             "lm_logprob": np.round(out, 6)})

    return exchange(per_key, ["doc_id"], finish)


def lm_score_sql(v: int = LM_VOCAB_V) -> str:
    """Full in-SQL replay: same vocab CTE as ``tokenize_ids_sql``, bigram
    and context counts, per-position add-one log probability."""
    return f"""WITH w AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents
),
toks AS (
  SELECT doc_id, i, w[i] AS term
  FROM w, UNNEST(generate_series(1, len(w))) t(i)
),
vocab AS (
  SELECT term, row_number() OVER (ORDER BY count(*) DESC, term) AS id
  FROM toks GROUP BY term
  ORDER BY count(*) DESC, term LIMIT {v}
),
veff AS (SELECT CAST(count(*) + 1 AS DOUBLE) AS v FROM vocab),
enc AS (
  SELECT doc_id, i, CAST(coalesce(vb.id, 0) AS BIGINT) AS id
  FROM toks LEFT JOIN vocab vb USING (term)
),
bg AS (
  SELECT a.doc_id, a.id AS a, b.id AS b
  FROM enc a JOIN enc b ON b.doc_id = a.doc_id AND b.i = a.i + 1
),
cnt AS (SELECT a, b, CAST(count(*) AS DOUBLE) AS c FROM bg GROUP BY a, b),
ctx AS (SELECT a, CAST(sum(c) AS DOUBLE) AS c FROM cnt GROUP BY a),
sc AS (
  SELECT bg.doc_id,
         sum(ln((cnt.c + 1.0) / (ctx.c + veff.v))) AS s,
         CAST(count(*) AS BIGINT) AS nb
  FROM bg JOIN cnt USING (a, b) JOIN ctx USING (a) CROSS JOIN veff
  GROUP BY bg.doc_id
)
SELECT d.doc_id,
       coalesce(sc.nb, 0) AS n_bigrams,
       round(coalesce(sc.s / sc.nb, 0.0), 6) AS lm_logprob
FROM documents d LEFT JOIN sc USING (doc_id)"""


PPL_TIERS = 3

def perplexity_buckets(sf_dir: str, tiers: int = PPL_TIERS):
    """CCNet-style perplexity bucketing (Wenzek et al., LREC'20): every
    document lands in one of ``tiers`` per-LANGUAGE buckets by exact
    corpus quantile edges of its LM score — bucket 1 = lowest mean
    bigram log-probability (the "tail" a curation pipeline drops or
    down-weights), bucket ``tiers`` = the "head".  Edges are per
    language so a low-resource language is never judged by the dominant
    language's model fit.

    Scale shape: the LM scoring pass is :func:`lm_score` (its own
    gates apply).  Under the documents metadata bound, the
    (doc_id, score) and (doc_id, lang) sides collect once and the
    edge selection + assignment are local array ops — no exchange
    beyond lm_score's own.  Above it, the two sides meet in one exchange
    on doc_id (the tagged-union attach) and the per-lang edges come from
    the grouped histogram-refinement kernel; assignment streams with
    broadcast edges.  Tier-edge ranks are exact integers on BOTH
    engines: ``(i·n + tiers - 1) // tiers`` (the rfm_segments rule).

    Output: ``(doc_id, lang, lm_logprob, bucket)``."""
    import ray

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.pipelines.quantiles import _exact_quantiles
    from nativeextractor_ray.sources.tables import load_table, read_table, table_nrows

    scores = lm_score(sf_dir)

    def edges_of(vals: np.ndarray) -> list:
        n = len(vals)
        ranks = sorted({(i * n + tiers - 1) // tiers
                        for i in range(1, tiers)})
        sv = np.sort(vals)
        return [float(sv[k - 1]) for k in ranks]

    def assign(v: np.ndarray, es: list) -> np.ndarray:
        s = np.full(len(v), len(es) + 1, np.int64)
        for i in range(len(es) - 1, -1, -1):
            s[v <= es[i]] = i + 1
        return s

    if fits(table_nrows(sf_dir, "documents"), common.DRIVER_BOUND, 24):
        ks, vs = [], []
        for t in arrow_blocks(scores, stream=False):
            ks.append(t.column("doc_id").to_numpy())
            vs.append(t.column("lm_logprob").to_numpy())
        kk = np.concatenate(ks) if ks else np.array([], np.int64)
        vv = np.concatenate(vs) if vs else np.array([], np.float64)
        order = np.argsort(kk)
        kk, vv = kk[order], vv[order]
        dl = load_table(sf_dir, "documents", columns=["doc_id", "lang"])
        ids = dl.column("doc_id").to_numpy()
        pos = (np.searchsorted(kk, ids) if len(kk)
               else np.zeros(len(ids), np.int64))
        pos = np.clip(pos, 0, max(0, len(kk) - 1))
        sc = vv[pos] if len(kk) else np.zeros(len(ids), np.float64)
        langs = dl.column("lang")
        ld = pc.dictionary_encode(
            langs.combine_chunks() if isinstance(langs, pa.ChunkedArray)
            else langs)
        codes = ld.indices.to_numpy(zero_copy_only=False)
        names = ld.dictionary.to_pylist()
        bucket = np.empty(len(ids), np.int64)
        for c in range(len(names)):
            m = codes == c
            bucket[m] = assign(sc[m], edges_of(sc[m]))
        return pa.table({
            "doc_id": pa.array(ids),
            "lang": pa.array(langs),
            "lm_logprob": pa.array(sc),
            "bucket": pa.array(bucket)})

    # scale path: tagged-union exchange attaching lang onto the scores,
    # grouped refinement edges, broadcast-edge assignment
    docs_lang = read_table(sf_dir, "documents", ["doc_id", "lang"])

    def tag_score(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
            "lm_logprob": pc.cast(t.column("lm_logprob"), pa.float64()),
            "lang": pa.array([""] * t.num_rows, pa.string()),
            "is_score": pa.array(np.ones(t.num_rows, bool))})

    def tag_lang(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
            "lm_logprob": pa.array(np.zeros(t.num_rows, np.float64)),
            "lang": t.column("lang"),
            "is_score": pa.array(np.zeros(t.num_rows, bool))})

    def attach(df):
        import pandas as pd

        s = df[df["is_score"]][["doc_id", "lm_logprob"]]
        l = df[~df["is_score"]][["doc_id", "lang"]]
        m = l.merge(s, on="doc_id", how="inner")
        return pd.DataFrame({
            "doc_id": m["doc_id"].to_numpy(np.int64),
            "lang": m["lang"].to_numpy(object),
            "lm_logprob": m["lm_logprob"].to_numpy(np.float64)})

    joined = exchange(
        scores.map_batches(tag_score, batch_format="pyarrow")
        .union(docs_lang.map_batches(tag_lang, batch_format="pyarrow")),
        ["doc_id"], attach).materialize()

    # per-lang n for the INTEGER rank edges (the rfm rule — never a
    # float q·n), then one ranks= kernel per language (languages are
    # vocabulary-bounded; each call's R+1 scans run over the
    # materialized join)
    def lang_counts(t: pa.Table) -> pa.Table:
        g = t.select(["lang"]).group_by("lang").aggregate(
            [([], "count_all")])
        return pa.table({"lang": g.column("lang"),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    n_by_lang: dict = {}
    for t in arrow_blocks(
            joined.map_batches(lang_counts, batch_format="pyarrow"),
            stream=False):
        for lg, n in zip(t.column("lang").to_pylist(),
                         t.column("n").to_pylist()):
            n_by_lang[lg] = n_by_lang.get(lg, 0) + int(n)
    edges_by_lang: dict = {}
    for lg, n in n_by_lang.items():
        ranks = sorted({(i * n + tiers - 1) // tiers
                        for i in range(1, tiers)})

        def only_lang(t: pa.Table, lg=lg) -> pa.Table:
            return t.filter(pc.equal(t.column("lang"), lg))

        got = _exact_quantiles(
            joined.map_batches(only_lang, batch_format="pyarrow"),
            "lm_logprob", (), ranks=ranks)
        edges_by_lang[lg] = [got[("", k)]
                             for k in sorted(k for _, k in got)]
    eref = ray.put(edges_by_lang)

    def bucketize(t: pa.Table) -> pa.Table:
        eb = ray.get(eref)
        langs_ = t.column("lang").to_pylist()
        v = t.column("lm_logprob").to_numpy()
        b = np.empty(t.num_rows, np.int64)
        for lg in set(langs_):
            m = np.array([x == lg for x in langs_])
            b[m] = assign(v[m], eb[lg])
        return pa.table({
            "doc_id": t.column("doc_id"),
            "lang": t.column("lang"),
            "lm_logprob": t.column("lm_logprob"),
            "bucket": pa.array(b)})

    return joined.map_batches(bucketize, batch_format="pyarrow")


def perplexity_buckets_sql(tiers: int = PPL_TIERS,
                           v: int = LM_VOCAB_V) -> str:
    edge_cols = ", ".join(
        f"MAX(CASE WHEN rk = ({i} * n + {tiers} - 1) // {tiers} "
        f"THEN lm_logprob END) AS e{i}"
        for i in range(1, tiers))
    whens = " ".join(
        f"WHEN r.lm_logprob <= e.e{i} THEN {i}"
        for i in range(1, tiers))
    return f"""WITH s AS ({lm_score_sql(v)}),
j AS (
  SELECT s.doc_id, d.lang, s.lm_logprob
  FROM s JOIN documents d ON d.doc_id = s.doc_id),
r AS (
  SELECT doc_id, lang, lm_logprob,
         row_number() OVER (PARTITION BY lang
                            ORDER BY lm_logprob, doc_id) AS rk,
         count(*) OVER (PARTITION BY lang) AS n
  FROM j),
e AS (SELECT lang, {edge_cols} FROM r GROUP BY lang)
SELECT r.doc_id, r.lang, r.lm_logprob,
       CAST(CASE {whens} ELSE {tiers} END AS BIGINT) AS bucket
FROM r JOIN e USING (lang)"""
