"""Text-analysis operators over ``documents`` — language-ID, quality
scoring, token counting, document fingerprinting.

All hot paths are Arrow-vectorized (``pyarrow.compute`` RE2 kernels over the
string column; no per-row Python in the counting stages).  Outputs are
integer-valued (counts, not ratios) so the DuckDB oracle comparison is
float-free.  DuckDB's regexp functions are also RE2, so the patterns below
are evaluated by the *same* regex engine on both sides.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.pipelines.common import exchange

TOKEN_RE = r"[^\s]+"
WORD_RE = r"[A-Za-z0-9]+"
NONWORD_RE = r"[^A-Za-z0-9\s]"
PUNCT_RE = r"[^\w\s]"
DIGIT_RE = r"[0-9]"
STOP_RE = r"\b(the|a|of|and|in|to|is)\b"

# marker stopwords per language + a CJK char class for zh; priority order
# (first wins ties) mirrors the SQL CASE cascade
LANG_MARKERS = [
    ("en", r"\b(the|and|of|to|is)\b"),
    ("de", r"\b(der|und|die|das|ist)\b"),
    ("es", r"\b(el|los|las|y|es)\b"),
    ("fr", r"\b(le|la|et|les|des)\b"),
    ("zh", r"[\x{4e00}-\x{9fff}]"),
]


def _docs(sf_dir: str):
    from nativeextractor_ray.sources.tables import read_table

    return read_table(sf_dir, "documents", ["doc_id", "text"])


def _count(col, pattern: str):
    return pc.cast(pc.count_substring_regex(col, pattern), pa.int64())


# ---------------------------------------------------------------- quality


def text_quality(sf_dir: str):
    """Counts + integer quality score (stopwords per 1000 tokens)."""

    def stats(t: pa.Table) -> pa.Table:
        txt = t.column("text")
        n_tokens = _count(txt, TOKEN_RE)
        n_stop = _count(txt, STOP_RE)
        denom = pc.max_element_wise(n_tokens, pa.scalar(1, pa.int64()))
        score = pc.cast(
            pc.floor(pc.divide(pc.multiply(pc.cast(n_stop, pa.float64()), 1000.0),
                               pc.cast(denom, pa.float64()))),
            pa.int64(),
        )
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_chars": pc.cast(pc.utf8_length(txt), pa.int64()),
            "n_tokens": n_tokens,
            "n_punct": _count(txt, PUNCT_RE),
            "n_digit": _count(txt, DIGIT_RE),
            "n_stop": n_stop,
            "stop_per_mille": score,
        })

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


TEXT_QUALITY_SQL = f"""SELECT doc_id,
  CAST(length(text) AS BIGINT) AS n_chars,
  CAST(len(regexp_extract_all(text, '{TOKEN_RE}')) AS BIGINT) AS n_tokens,
  CAST(len(regexp_extract_all(text, '{PUNCT_RE}')) AS BIGINT) AS n_punct,
  CAST(len(regexp_extract_all(text, '{DIGIT_RE}')) AS BIGINT) AS n_digit,
  CAST(len(regexp_extract_all(text, '{STOP_RE}')) AS BIGINT) AS n_stop,
  CAST(floor(len(regexp_extract_all(text, '{STOP_RE}')) * 1000.0 /
       greatest(len(regexp_extract_all(text, '{TOKEN_RE}')), 1)) AS BIGINT)
       AS stop_per_mille
FROM documents"""


# ---------------------------------------------------------------- lang id


def lang_id(sf_dir: str):
    """n-gram/marker heuristic language ID: argmax of per-language marker
    counts, ties resolved by the fixed priority order, all-zero → 'und'."""

    def pred(t: pa.Table) -> pa.Table:
        txt = t.column("text")
        counts = np.stack(
            [_count(txt, pat).to_numpy() for _, pat in LANG_MARKERS]
        )  # (L, B)
        best = np.argmax(counts, axis=0)  # first max wins = priority order
        score = counts[best, np.arange(counts.shape[1])]
        langs = np.array([l for l, _ in LANG_MARKERS], dtype=object)
        out = np.where(score > 0, langs[best], "und")
        return pa.table({
            "doc_id": t.column("doc_id"),
            "pred_lang": pa.array(out.tolist(), pa.string()),
            "score": pa.array(score, pa.int64()),
        })

    return _docs(sf_dir).map_batches(pred, batch_format="pyarrow")


def _lang_sql_parts() -> tuple[str, str, str]:
    """(marker-count columns, priority-argmax CASE, greatest expr) — the
    SQL replay of the lang_id heuristic, shared by lang_id and the
    confusion matrix."""
    cols = ",\n  ".join(
        f"len(regexp_extract_all(text, '{pat}')) AS c_{lang}"
        for lang, pat in LANG_MARKERS
    )
    order = [l for l, _ in LANG_MARKERS]
    cases = []
    for i, lang in enumerate(order):
        conds = [f"c_{lang} >= c_{o}" for o in order if o != lang]
        cases.append(f"WHEN c_{lang} > 0 AND {' AND '.join(conds[:i] + conds[i:])} THEN '{lang}'")
    # priority = first branch that is a (weak) maximum and nonzero
    case = "CASE " + " ".join(cases) + " ELSE 'und' END"
    great = "greatest(" + ", ".join(f"c_{l}" for l in order) + ")"
    return cols, case, great


def _lang_sql() -> str:
    cols, case, great = _lang_sql_parts()
    return f"""WITH c AS (
  SELECT doc_id,
  {cols}
  FROM documents
)
SELECT doc_id, {case} AS pred_lang,
       CAST(CASE WHEN {great} > 0 THEN {great} ELSE 0 END AS BIGINT) AS score
FROM c"""


LANG_ID_SQL = _lang_sql()


# ---------------------------------------------------------------- tokens


def token_counts(sf_dir: str):
    """Whitespace tokens + BPE-ish word/nonword split counts."""

    def counts(t: pa.Table) -> pa.Table:
        txt = t.column("text")
        word = _count(txt, WORD_RE)
        nonword = _count(txt, NONWORD_RE)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "ws_tokens": _count(txt, TOKEN_RE),
            "word_tokens": word,
            "nonword_tokens": nonword,
            "bpe_ish_tokens": pc.add(word, nonword),
        })

    return _docs(sf_dir).map_batches(counts, batch_format="pyarrow")


TOKEN_COUNTS_SQL = f"""SELECT doc_id,
  CAST(len(regexp_extract_all(text, '{TOKEN_RE}')) AS BIGINT) AS ws_tokens,
  CAST(len(regexp_extract_all(text, '{WORD_RE}')) AS BIGINT) AS word_tokens,
  CAST(len(regexp_extract_all(text, '{NONWORD_RE}')) AS BIGINT) AS nonword_tokens,
  CAST(len(regexp_extract_all(text, '{WORD_RE}')) +
       len(regexp_extract_all(text, '{NONWORD_RE}')) AS BIGINT) AS bpe_ish_tokens
FROM documents"""


# ---------------------------------------------------------------- fingerprint


def doc_fingerprint(sf_dir: str):
    """Normalized-content fingerprint (md5 of casefolded text)."""
    import hashlib

    def fp(t: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(t.column("text")).to_pylist()
        return pa.table({
            "doc_id": t.column("doc_id"),
            "fp": pa.array([hashlib.md5(s.encode()).hexdigest() for s in texts], pa.string()),
        })

    return _docs(sf_dir).map_batches(fp, batch_format="pyarrow")


DOC_FINGERPRINT_SQL = "SELECT doc_id, md5(lower(text)) AS fp FROM documents"


def doc_fingerprint_winnow(sf_dir: str, k: int = 8, w: int = 16):
    """Winnowing fingerprints (rolling k-byte hashes, window-min selection,
    Schleimer et al. 2003).

    Oracle: WINNOW_SQL replays the same polynomial rolling hash
    (base 257 mod 2^61-1, HUGEINT intermediates) and the leftmost-argmin
    window selection in DuckDB — byte == character on this ASCII corpus."""
    from nativeextractor_ray.functions.hashing import rolling_hashes, winnow

    def fp(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        d_out, n_out, mn_out, xr_out = [], [], [], []
        for d, txt in zip(ids, texts):
            fps = winnow(rolling_hashes(txt, k), w)
            d_out.append(d)
            n_out.append(len(fps))
            mn_out.append(int(fps.min()) if fps.size else 0)
            x = 0
            for v in fps.tolist():
                x ^= int(v)
            xr_out.append(x)
        return pa.table({
            "doc_id": pa.array(d_out, pa.int64()),
            "n_fp": pa.array(n_out, pa.int64()),
            "fp_min": pa.array(mn_out, pa.int64()),
            "fp_xor": pa.array(xr_out, pa.int64()),
        })

    return _docs(sf_dir).map_batches(fp, batch_format="pyarrow")


# Winnowing in SQL: positions i = 1..len-7 get the rolling hash of bytes
# [i, i+7] (same base-257 / mod 2^61-1 polynomial, HUGEINT intermediates);
# each length-16 window picks its LEFTMOST argmin via min(h * 2^40 + i);
# consecutive-duplicate picks collapse to DISTINCT positions (the argmin
# position is non-decreasing as the window slides, so consecutive dedup ==
# distinct).  Small docs: 8 <= len <= 23 yields the single min hash;
# len < 8 yields zero fingerprints.
WINNOW_SQL = """WITH pos AS (
  SELECT doc_id, i,
    CAST(list_reduce(
      list_transform(generate_series(i, i + 7),
                     p -> CAST(ascii(substr(text, p, 1)) AS HUGEINT)),
      (a, x) -> (a * 257 + x) % 2305843009213693951) AS HUGEINT) AS h
  FROM documents, UNNEST(generate_series(1, length(text) - 7)) AS t(i)
  WHERE length(text) >= 8
),
npos AS (SELECT doc_id, max(i) AS n FROM pos GROUP BY doc_id),
sel AS (
  SELECT p.doc_id, p.i,
    min(p.h * 1099511627776 + p.i) OVER (
      PARTITION BY p.doc_id ORDER BY p.i
      ROWS BETWEEN CURRENT ROW AND 15 FOLLOWING) AS key
  FROM pos p JOIN npos n ON n.doc_id = p.doc_id
  WHERE n.n > 16
  QUALIFY p.i <= n.n - 15
),
picks AS (
  SELECT DISTINCT doc_id,
         key // 1099511627776 AS h
  , key % 1099511627776 AS j
  FROM sel
),
agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_fp,
         CAST(min(h) AS BIGINT) AS fp_min,
         CAST(bit_xor(CAST(h AS BIGINT)) AS BIGINT) AS fp_xor
  FROM picks GROUP BY doc_id
),
small AS (  -- 8 <= len <= 23: single pick = global min hash
  SELECT p.doc_id, CAST(1 AS BIGINT) AS n_fp,
         CAST(min(p.h) AS BIGINT) AS fp_min,
         CAST(min(p.h) AS BIGINT) AS fp_xor
  FROM pos p JOIN npos n ON n.doc_id = p.doc_id
  WHERE n.n <= 16 GROUP BY p.doc_id
),
tiny AS (  -- len < 8: no k-grams at all
  SELECT doc_id, CAST(0 AS BIGINT) AS n_fp, CAST(0 AS BIGINT) AS fp_min,
         CAST(0 AS BIGINT) AS fp_xor
  FROM documents WHERE length(text) < 8
)
SELECT * FROM agg UNION ALL SELECT * FROM small UNION ALL SELECT * FROM tiny"""


def documents_quality_filtered(sf_dir: str, min_tokens: int = 10, min_stop_pm: int = 0):
    """Training-data curation filter: documents passing the quality gates
    (the select step of a cleaning pipeline) — streaming filter, no
    shuffle."""
    ds = _docs(sf_dir)

    def keep(t: pa.Table) -> pa.Table:
        txt = t.column("text")
        n_tokens = _count(txt, TOKEN_RE)
        mask = pc.greater_equal(n_tokens, min_tokens)
        if min_stop_pm > 0:  # stopword-density gate (mirrored in the SQL
            # only for the default min_stop_pm=0 oracle; callers passing a
            # gate get it applied here)
            n_stop = _count(txt, STOP_RE)
            denom = pc.max_element_wise(n_tokens, pa.scalar(1, pa.int64()))
            pm = pc.cast(
                pc.floor(pc.divide(pc.multiply(pc.cast(n_stop, pa.float64()), 1000.0),
                                   pc.cast(denom, pa.float64()))),
                pa.int64(),
            )
            mask = pc.and_(mask, pc.greater_equal(pm, min_stop_pm))
        out = t.filter(mask)
        return pa.table({"doc_id": out.column("doc_id"),
                         "n_tokens": n_tokens.filter(mask)})

    return ds.map_batches(keep, batch_format="pyarrow")


DOCUMENTS_QUALITY_FILTERED_SQL = f"""SELECT doc_id,
  CAST(len(regexp_extract_all(text, '{TOKEN_RE}')) AS BIGINT) AS n_tokens
FROM documents
WHERE len(regexp_extract_all(text, '{TOKEN_RE}')) >= 10"""


# ---------------------------------------------------------------- tf-idf


TFIDF_TOP_K = 10


def top_terms_tfidf(sf_dir: str, k: int = TFIDF_TOP_K):
    """Top-k terms per language by TF-IDF — the vocabulary-analysis step
    of corpus curation (stopword discovery / domain-term surfacing).

    tf(lang, term) = occurrences in that language's docs; df(term) =
    corpus-wide distinct docs containing the term; score = round(tf ·
    ln(N/df), 4) with rounding on BOTH sides (the repo's float-parity
    rule) and term-lexicographic tie-break.

    Scale shape: per-batch Arrow-kernel partials — split_pattern →
    list_parent_indices → two C++ group_bys — reduce every batch to
    (lang, term, tf, dfl) rows where dfl is exact because a document
    never spans batches; ONE ``exchange`` on term colocates each term's
    partials; each block vectorizes tf/df sums + scores and emits only
    its local top-k per lang; the final per-lang resolve sees k × blocks
    rows.  Vocabulary never sits on one node and text never shuffles."""
    import pandas as pd

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "lang", "text"])
    n_docs = ds.count()

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text"), " ")
        parent = pc.list_parent_indices(toks)
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "")
        flat, parent = flat.filter(keep), parent.filter(keep)
        tbl = pa.table({
            "lang": t.column("lang").take(parent),
            "doc_id": t.column("doc_id").take(parent),
            "term": flat,
        })
        g = tbl.group_by(["lang", "term"]).aggregate(
            [("term", "count"), ("doc_id", "count_distinct")]
        )
        return pa.table({
            "lang": g.column("lang"),
            "term": g.column("term"),
            "tf": pc.cast(g.column("term_count"), pa.int64()),
            "dfl": pc.cast(g.column("doc_id_count_distinct"), pa.int64()),
        })

    def score_part(df: "pd.DataFrame") -> "pd.DataFrame":
        agg = (df.groupby(["lang", "term"], sort=False)
               .agg(tf=("tf", "sum"), dfl=("dfl", "sum")).reset_index())
        dfg = agg.groupby("term", sort=False)["dfl"].sum().rename("df")
        agg = agg.join(dfg, on="term").drop(columns=["dfl"])
        agg["score"] = np.round(
            agg["tf"] * np.log(float(n_docs) / agg["df"]), 4
        )
        agg = agg.sort_values(["lang", "score", "term"],
                              ascending=[True, False, True], kind="stable")
        return agg.groupby("lang", sort=False).head(k)

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["score", "term"], ascending=[False, True],
                            kind="stable").head(k).copy()
        df["rnk"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df

    return (
        exchange(ds.map_batches(partial, batch_format="pyarrow"), ["term"],
                 score_part)
        .groupby("lang")           # few languages -> per-group UDF is fine
        .map_groups(resolve, batch_format="pandas")
    )


def top_terms_tfidf_sql(k: int = TFIDF_TOP_K) -> str:
    return f"""WITH toks AS (
  SELECT doc_id, lang,
         unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS term
  FROM documents
),
tf AS (SELECT lang, term, CAST(count(*) AS BIGINT) AS tf FROM toks GROUP BY 1, 2),
df AS (SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM toks GROUP BY 1),
n AS (SELECT count(*) AS n FROM documents),
scored AS (
  SELECT tf.lang, tf.term, tf.tf, df.df,
         round(tf.tf * ln(CAST(n.n AS DOUBLE) / df.df), 4) AS score
  FROM tf JOIN df USING (term) CROSS JOIN n
)
SELECT lang, term, tf, df, score, CAST(rn AS BIGINT) AS rnk FROM (
  SELECT *, row_number() OVER (
    PARTITION BY lang ORDER BY score DESC, term
  ) AS rn FROM scored
) WHERE rn <= {k}"""


# ---------------------------------------------------------------- inverted index


POSTINGS_CAP = 64


def inverted_index(sf_dir: str, cap: int = POSTINGS_CAP):
    """Build the retrieval-side inverted index: one row per term with its
    document frequency and a deterministic posting list (doc_ids
    ascending, capped at ``cap`` — the cap bounds row size under Zipfian
    head terms; ``df`` still reports the TRUE frequency).

    Scale shape: per-batch Arrow kernels reduce each batch to DISTINCT
    (term, doc_id) pairs (a doc never spans batches, so batch-distinct is
    globally distinct); ONE ``exchange`` on term colocates each term's
    pairs; each block sorts once and builds every posting ListArray
    straight from numpy offset arithmetic — zero per-term Python."""
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text"), " ")
        parent = pc.list_parent_indices(toks)
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "")
        flat, parent = flat.filter(keep), parent.filter(keep)
        tbl = pa.table({
            "term": flat,
            "doc_id": t.column("doc_id").take(parent),
        })
        return tbl.group_by(["term", "doc_id"]).aggregate([])  # distinct pairs

    def build(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            t, sort_keys=[("term", "ascending"), ("doc_id", "ascending")]
        )
        t = t.take(order)
        terms = t.column("term").to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy()
        new = np.r_[True, terms[1:] != terms[:-1]]
        starts = np.flatnonzero(new)
        counts = np.diff(np.r_[starts, len(terms)])
        lengths = np.minimum(counts, cap)
        off = np.zeros(len(lengths) + 1, np.int64)
        np.cumsum(lengths, out=off[1:])
        idx = (np.arange(off[-1]) - np.repeat(off[:-1], lengths)
               + np.repeat(starts, lengths))
        # postings serialize as a comma-joined string: the driver's
        # correctness gate row-sorts every column, and list columns are
        # unsortable/unhashable there (array_to_string on the SQL side)
        id_str = pc.cast(pa.array(ids[idx], pa.int64()), pa.string())
        lists = pa.ListArray.from_arrays(pa.array(off, pa.int32()), id_str)
        return pa.table({
            "term": pa.array(terms[starts].tolist(), pa.string()),
            "df": pa.array(counts.astype(np.int64)),
            "postings": pc.binary_join(lists, ","),
        })

    return exchange(ds.map_batches(pairs, batch_format="pyarrow"), ["term"],
                    build, batch_format="pyarrow")


def inverted_index_sql(cap: int = POSTINGS_CAP) -> str:
    return f"""WITH pairs AS (
  SELECT DISTINCT doc_id,
         unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS term
  FROM documents
)
SELECT term, CAST(count(*) AS BIGINT) AS df,
       array_to_string(list_slice(list_sort(list(doc_id)), 1, {cap}), ',')
         AS postings
FROM pairs GROUP BY term"""


# ---------------------------------------------------------------- tokenize-ids


VOCAB_V = 25  # bounded vocabulary; chosen < corpus vocab so OOV=0 is exercised


def tokenize_ids(sf_dir: str, v: int = VOCAB_V):
    """Vocabulary build + tokenize-to-ids — the tokenization step of a
    training pipeline: the top-``v`` terms by (count desc, term asc) get
    ids 1..v, everything else maps to 0 (UNK), and each document becomes
    its id sequence.

    Scale shape: the vocab is BOUNDED by construction (real tokenizers
    are), so it broadcasts: :func:`term_histogram` builds it.  The map
    stage is one searchsorted lookup per token against the broadcast
    sorted vocab — no joins, no second shuffle; ids emit as a
    comma-joined string (the gate row-sorts columns)."""
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return _encode_ids(ds, _top_v_vocab(ds, "text", v), "text")


def _term_counts(t: pa.Table, text_col: str) -> pa.Table:
    """``(term, cnt)``: the batch's whitespace terms and their counts."""
    flat = pc.list_flatten(pc.split_pattern(t.column(text_col), " "))
    flat = flat.filter(pc.not_equal(flat, ""))
    g = pa.table({"term": flat}).group_by("term").aggregate([("term", "count")])
    return pa.table({"term": g.column("term"),
                     "cnt": pc.cast(g.column("term_count"), pa.int64())})


def term_histogram(ds, text_col: str, v: int) -> list[tuple[str, int]]:
    """The top-``v`` terms of a text column with their corpus counts,
    ranked by (count desc, term asc).  Per-batch counts meet in one
    ``exchange`` on term; each block emits its LOCAL top-v (the global
    top-v is a subset of their union, since every term's counts sit in
    one block) and the driver merges v × blocks tiny rows."""

    def local_top(df):
        agg = df.groupby("term", sort=False)["cnt"].sum().reset_index()
        agg = agg.sort_values(["cnt", "term"], ascending=[False, True],
                              kind="stable")
        return agg.head(v)

    cand = exchange(ds.map_batches(_term_counts, batch_format="pyarrow",
                                   fn_kwargs={"text_col": text_col}),
                    ["term"], local_top).take_all()
    cand.sort(key=lambda r: (-r["cnt"], r["term"]))
    return [(r["term"], int(r["cnt"])) for r in cand[:v]]


def _top_v_vocab(ds, text_col: str, v: int):
    """Bounded top-v vocabulary of a text column → broadcastable
    ``(sorted_terms, sorted_ids)`` arrays (id = 1-based rank in
    (count desc, term asc) order)."""
    vocab = term_histogram(ds, text_col, v)
    terms = np.array([w for w, _ in vocab], dtype=object)
    order = np.argsort(terms)
    return terms[order], np.arange(1, len(vocab) + 1)[order]


def _encode_ids(ds, vocab, text_col: str):
    """Map a (doc_id, <text_col>, ...) Dataset to (doc_id, n_tokens, ids)
    via one broadcast searchsorted lookup per token."""
    import ray

    vref = ray.put(vocab)

    def encode(t: pa.Table) -> pa.Table:
        st, si = ray.get(vref)
        toks = pc.split_pattern(t.column(text_col), " ")
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
        # per-doc joined id strings via offset arithmetic (docs are
        # contiguous in parent order)
        n = t.num_rows
        cnts = np.bincount(par, minlength=n)
        off = np.zeros(n + 1, np.int64)
        np.cumsum(cnts, out=off[1:])
        id_str = pc.cast(pa.array(ids), pa.string())
        lists = pa.ListArray.from_arrays(pa.array(off, pa.int32()), id_str)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_tokens": pa.array(cnts.astype(np.int64)),
            "ids": pc.binary_join(lists, ","),
        })

    return ds.map_batches(encode, batch_format="pyarrow")


def tokenize_ids_sql(v: int = VOCAB_V) -> str:
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
)
SELECT d.doc_id,
       CAST(coalesce(len(w.w), 0) AS BIGINT) AS n_tokens,
       coalesce((SELECT array_to_string(list(coalesce(vb.id, 0) ORDER BY tk.i), ',')
                 FROM toks tk LEFT JOIN vocab vb ON vb.term = tk.term
                 WHERE tk.doc_id = d.doc_id), '') AS ids
FROM documents d JOIN w ON w.doc_id = d.doc_id"""


# ---------------------------------------------------------------- source report


def source_report(sf_dir: str, min_tokens: int = 10):
    """Per-source corpus report card — the triage table a curation run
    starts from: document count, distinct-content count (exact-dup
    signal), total whitespace tokens, and how many docs pass the token
    gate.

    Scale shape: token/gate sums reduce per batch to one row per source
    (sources are bounded).  Distinct-content counts need the md5 keys
    co-located: per-batch distinct (source, key) pairs → ONE ``exchange``
    on key (16-byte keys + a source tag, never text) → per-block
    distinct → per-source partial counts → tiny final groupby, collected
    on the driver (a row per source) and attached to the totals.  A key
    seen in two sources counts once per source (count(DISTINCT text)
    semantics per source)."""
    import hashlib

    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def keyed(t: pa.Table) -> pa.Table:
        keys = [hashlib.md5(s.encode()).hexdigest()
                for s in t.column("text").to_pylist()]
        return pa.table({
            "source": t.column("source"),
            "key": pa.array(keys, pa.string()),
        }).group_by(["source", "key"]).aggregate([])

    def part_counts(t: pa.Table) -> pa.Table:
        g = (t.select(["source", "key"])
             .group_by(["source", "key"]).aggregate([])
             .group_by("source").aggregate([("key", "count")]))
        return pa.table({
            "source": g.column("source"),
            "n_distinct_texts": pc.cast(g.column("key_count"), pa.int64()),
        })

    distinct = {
        r["source"]: r["n_distinct_texts"] for r in
        exchange(ds.map_batches(keyed, batch_format="pyarrow"), ["key"],
                 part_counts, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_distinct_texts", alias_name="n_distinct_texts"))
        .take_all()}

    def stats(t: pa.Table) -> pa.Table:
        ntok = _count(t.column("text"), TOKEN_RE)
        g = pa.table({
            "source": t.column("source"),
            "n_tokens": ntok,
            "gate": pc.cast(pc.greater_equal(ntok, min_tokens), pa.int64()),
        }).group_by("source").aggregate(
            [("n_tokens", "count"), ("n_tokens", "sum"), ("gate", "sum")]
        )
        return pa.table({
            "source": g.column("source"),
            "n_docs": pc.cast(g.column("n_tokens_count"), pa.int64()),
            "sum_tokens": pc.cast(g.column("n_tokens_sum"), pa.int64()),
            "n_gate_pass": pc.cast(g.column("gate_sum"), pa.int64()),
        })

    totals = (
        ds.map_batches(stats, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("sum_tokens", alias_name="sum_tokens"),
                   Sum("n_gate_pass", alias_name="n_gate_pass"))
    )

    def finish(t: pa.Table) -> pa.Table:
        n_distinct = [distinct[s] for s in t.column("source").to_pylist()]
        return pa.table({
            "source": t.column("source"),
            "n_docs": t.column("n_docs"),
            "n_distinct_texts": pa.array(n_distinct, pa.int64()),
            "sum_tokens": t.column("sum_tokens"),
            "n_gate_pass": t.column("n_gate_pass")})

    return totals.map_batches(finish, batch_format="pyarrow")


def source_report_sql(min_tokens: int = 10) -> str:
    return f"""SELECT source,
  CAST(count(*) AS BIGINT) AS n_docs,
  CAST(count(DISTINCT md5(text)) AS BIGINT) AS n_distinct_texts,
  CAST(sum(len(regexp_extract_all(text, '{TOKEN_RE}'))) AS BIGINT) AS sum_tokens,
  CAST(sum(CASE WHEN len(regexp_extract_all(text, '{TOKEN_RE}')) >= {min_tokens}
           THEN 1 ELSE 0 END) AS BIGINT) AS n_gate_pass
FROM documents GROUP BY source"""


# ------------------------------------------------------ lexical diversity


def lexical_diversity(sf_dir: str):
    """Per-document type-token ratio — the n-gram-diversity /
    memorization-risk signal (low TTR = highly repetitive or templated
    text, a standard pretraining-data quality gate alongside the Gopher
    repetition rules).

    ``ttr_micro = (n_distinct · 10⁶) / n_tokens`` as an EXACT half-up
    integer on both engines (``(2·d·10⁶ + n) // (2n)`` — no float, no
    rounding-mode ambiguity).  Tokens are the same whitespace split as
    the TF-IDF family (empty strings dropped); zero-token docs are
    excluded, matching the SQL ``WHERE n_tokens > 0``.

    Scale shape: a document never spans batches, so one Arrow C++
    ``group_by(doc_id)`` per batch is EXACT — pure streaming map, no
    shuffle at all.  Output: ``(doc_id, n_tokens, n_distinct,
    ttr_micro)``."""
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def per_doc(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text"), " ")
        parent = pc.list_parent_indices(toks)
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "")
        flat, parent = flat.filter(keep), parent.filter(keep)
        g = (pa.table({"doc_id": t.column("doc_id").take(parent),
                       "term": flat})
             .group_by("doc_id")
             .aggregate([("term", "count"), ("term", "count_distinct")]))
        n = pc.cast(g.column("term_count"), pa.int64()).to_numpy()
        d = pc.cast(g.column("term_count_distinct"), pa.int64()).to_numpy()
        ttr = (2 * d * 1_000_000 + n) // (2 * n)  # n ≥ 1 by construction
        return pa.table({
            "doc_id": g.column("doc_id"),
            "n_tokens": pa.array(n, pa.int64()),
            "n_distinct": pa.array(d, pa.int64()),
            "ttr_micro": pa.array(ttr, pa.int64())})

    return ds.map_batches(per_doc, batch_format="pyarrow")


def lexical_diversity_sql() -> str:
    return """WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS term
  FROM documents
),
agg AS (
  SELECT doc_id,
         CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(count(DISTINCT term) AS BIGINT) AS n_distinct
  FROM toks GROUP BY doc_id)
SELECT doc_id, n_tokens, n_distinct,
       CAST((2 * n_distinct * 1000000 + n_tokens) // (2 * n_tokens)
            AS BIGINT) AS ttr_micro
FROM agg WHERE n_tokens > 0"""


# --------------------------------------------------- term-frequency Zipf


def term_freq_histogram(sf_dir: str):
    """Corpus-wide Zipf profile: for every corpus frequency ``f``, the
    number of DISTINCT terms occurring exactly ``f`` times — the
    count-of-counts curve used to sanity-check tokenizers, spot boiler-
    plate spikes and size vocabulary cut-offs.

    Scale shape: per-batch (term, count) Arrow partials → ONE
    ``exchange`` on term (each term's partials colocate, so the per-
    block sum is the exact corpus tf) → per-block count-of-counts folds
    the vocabulary away (≤ distinct-f rows leave each block) → a tiny
    final ``groupby(freq)`` sum.  The vocabulary
    never sits on one node; the result is O(distinct frequencies) —
    hundreds of rows for any corpus.

    Output: ``(freq, n_terms)``."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["text"])

    def count_of_counts(df: "pd.DataFrame") -> "pd.DataFrame":
        vc = df.groupby("term", sort=False)["cnt"].sum().value_counts()
        return pd.DataFrame({
            "freq": vc.index.to_numpy(np.int64),
            "n_terms": vc.to_numpy(np.int64)})

    return (exchange(ds.map_batches(_term_counts, batch_format="pyarrow",
                                    fn_kwargs={"text_col": "text"}),
                     ["term"], count_of_counts)
            .groupby("freq")
            .aggregate(Sum("n_terms", alias_name="n_terms")))


def term_freq_histogram_sql() -> str:
    return """WITH toks AS (
  SELECT unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS term
  FROM documents),
tf AS (SELECT term, CAST(count(*) AS BIGINT) AS freq FROM toks GROUP BY term)
SELECT freq, CAST(count(*) AS BIGINT) AS n_terms FROM tf GROUP BY freq"""


# ------------------------------------------------- lang confusion matrix


def lang_confusion(sf_dir: str):
    """Declared-vs-predicted language confusion matrix — the metadata
    audit that decides whether a source's self-reported ``lang`` tags
    can be trusted (mislabeled corpora poison per-language sampling
    rates and tokenizer training mixes).

    Scale shape: the same vectorized marker-count argmax as
    :func:`lang_id`, folded per batch to ≤ |langs|² partial rows by an
    Arrow C++ two-key group_by; one tiny final groupby.  No text ever
    shuffles.

    Output: ``(lang, pred_lang, n_docs)``."""
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        txt = t.column("text")
        counts = np.stack(
            [_count(txt, pat).to_numpy() for _, pat in LANG_MARKERS])
        best = np.argmax(counts, axis=0)
        score = counts[best, np.arange(counts.shape[1])]
        langs = np.array([l for l, _ in LANG_MARKERS], dtype=object)
        out = np.where(score > 0, langs[best], "und")
        g = pa.table({
            "lang": t.column("lang"),
            "pred_lang": pa.array(out.tolist(), pa.string()),
        }).group_by(["lang", "pred_lang"]).aggregate([("pred_lang", "count")])
        return pa.table({
            "lang": g.column("lang"),
            "pred_lang": g.column("pred_lang"),
            "n_docs": pc.cast(g.column("pred_lang_count"), pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["lang", "pred_lang"])
            .aggregate(Sum("n_docs", alias_name="n_docs")))


def lang_confusion_sql() -> str:
    cols, case, _great = _lang_sql_parts()
    return f"""WITH c AS (
  SELECT lang,
  {cols}
  FROM documents
)
SELECT lang, {case} AS pred_lang, CAST(count(*) AS BIGINT) AS n_docs
FROM c GROUP BY 1, 2"""


# ---------------------------------------------------- hashing-trick features


FEAT_DIM_BITS = 12  # 4096-dim feature space
FEAT_SAMPLE_MOD = 10  # profile every 10th doc (deterministic slice)


def feature_hashing(sf_dir: str, dim_bits: int = FEAT_DIM_BITS,
                    mod: int = FEAT_SAMPLE_MOD):
    """Hashing-trick featurizer (Weinberger et al. 2009): each document
    of a deterministic sample slice (``doc_id % mod == 0``) becomes
    sparse ``(doc_id, feature, count)`` rows where ``feature =
    md5(term) mod 2^dim_bits`` — the fixed-dimension bag-of-words prep
    for linear probes/quality classifiers with NO vocabulary build, no
    OOV, no second pass.

    Scale shape: pure streaming — per-batch Arrow tokenize →
    per-process-cached term→feature md5 memo (the _TokenHashCache
    economics) → one in-batch (doc, feature) count combine.  Zero
    shuffle; the output is the sparse matrix, partitioned however the
    input was.  md5 keeps the Python and SQL featurizations identical
    (DuckDB ``md5_number_lower(term) % 2^bits``).

    Output: ``(doc_id, feature, n)``."""
    import hashlib

    from nativeextractor_ray.sources.tables import read_table

    mask = (1 << dim_bits) - 1
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    memo: dict[str, int] = {}

    def feat_of(term: str) -> int:
        f = memo.get(term)
        if f is None:
            f = memo[term] = (int.from_bytes(
                hashlib.md5(term.encode()).digest()[8:16], "little")
                & mask)
        return f

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        keep = ids % mod == 0
        sub = t.filter(pa.array(keep))
        toks = pc.split_pattern(sub.column("text"), " ")
        parent = pc.list_parent_indices(toks)
        flat = pc.list_flatten(toks)
        ok = pc.not_equal(flat, "")
        flat, parent = flat.filter(ok), parent.filter(ok)
        feats = np.fromiter((feat_of(w) for w in flat.to_pylist()),
                            np.int64, count=len(flat))
        g = pa.table({
            "doc_id": sub.column("doc_id").take(parent),
            "feature": pa.array(feats, pa.int64()),
        }).group_by(["doc_id", "feature"]).aggregate([([], "count_all")])
        return pa.table({
            "doc_id": pc.cast(g.column("doc_id"), pa.int64()),
            "feature": g.column("feature"),
            "n": pc.cast(g.column("count_all"), pa.int64())})

    return ds.map_batches(partial, batch_format="pyarrow")


def feature_hashing_sql(dim_bits: int = FEAT_DIM_BITS,
                        mod: int = FEAT_SAMPLE_MOD) -> str:
    return f"""WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split(text, ' '), x -> x <> ''))
           AS term
  FROM documents WHERE doc_id % {mod} = 0)
SELECT doc_id,
       CAST(md5_number_lower(term) % {1 << dim_bits} AS BIGINT)
         AS feature,
       CAST(count(*) AS BIGINT) AS n
FROM toks GROUP BY 1, 2"""


def corpus_summary(sf_dir: str):
    """The one-row "dataset card" rollup every corpus release ships:
    doc count, whitespace-token and char totals, distinct language and
    source counts, and the mean document length in exact integer
    micro-chars (half-up ratio — the repo float-parity rule; no float
    division crosses the engine boundary).

    Scale shape: ONE streaming pass folds each batch to a single partial
    row (counts + the distinct lang/source values as ``list<string>`` —
    both vocabulary-bounded); the driver merges partials.  No shuffle,
    nothing corpus-sized ever leaves a worker.

    Output: ``(n_docs, n_tokens, n_chars, n_langs, n_sources,
    mean_chars_micro)``."""
    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents",
                    ["doc_id", "text", "lang", "source", "n_chars"])

    def distinct(col) -> pa.Array:
        # count(DISTINCT) semantics: NULL is not a value, '' is
        return pa.array([pc.unique(col).drop_null().to_pylist()],
                        pa.list_(pa.string()))

    def partial(t: pa.Table) -> pa.Table:
        toks = int(pc.sum(_count(t.column("text"), TOKEN_RE)).as_py() or 0)
        chars = int(pc.sum(t.column("n_chars")).as_py() or 0)
        return pa.table({
            "n_docs": pa.array([t.num_rows], pa.int64()),
            "n_tokens": pa.array([toks], pa.int64()),
            "n_chars": pa.array([chars], pa.int64()),
            "langs": distinct(t.column("lang")),
            "sources": distinct(t.column("source")),
        })

    n_docs = n_tokens = n_chars = 0
    langs: set = set()
    srcs: set = set()
    for t in arrow_blocks(ds.map_batches(partial, batch_format="pyarrow"),
                          stream=False):
        n_docs += int(pc.sum(t.column("n_docs")).as_py() or 0)
        n_tokens += int(pc.sum(t.column("n_tokens")).as_py() or 0)
        n_chars += int(pc.sum(t.column("n_chars")).as_py() or 0)
        langs.update(pc.list_flatten(t.column("langs")).to_pylist())
        srcs.update(pc.list_flatten(t.column("sources")).to_pylist())
    mean_micro = ((2 * n_chars * 1_000_000 + n_docs) // (2 * n_docs)
                  if n_docs else 0)
    return pa.table({
        "n_docs": pa.array([n_docs], pa.int64()),
        "n_tokens": pa.array([n_tokens], pa.int64()),
        "n_chars": pa.array([n_chars], pa.int64()),
        "n_langs": pa.array([len(langs)], pa.int64()),
        "n_sources": pa.array([len(srcs)], pa.int64()),
        "mean_chars_micro": pa.array([mean_micro], pa.int64()),
    })


CORPUS_SUMMARY_SQL = f"""SELECT
  CAST(count(*) AS BIGINT) AS n_docs,
  CAST(sum(len(regexp_extract_all(text, '{TOKEN_RE}'))) AS BIGINT)
    AS n_tokens,
  CAST(sum(n_chars) AS BIGINT) AS n_chars,
  CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
  CAST(count(DISTINCT source) AS BIGINT) AS n_sources,
  CAST((2 * sum(n_chars) * 1000000 + count(*)) // (2 * count(*))
       AS BIGINT) AS mean_chars_micro
FROM documents"""
