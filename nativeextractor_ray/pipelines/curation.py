"""Corpus-curation operators for training-data pipelines: PII redaction,
repetition-based quality filtering (Gopher-style signals), and
deterministic stratified sampling.

Scale shape: every operator here is a pure per-batch ``map_batches``
transform — no shuffle, no broadcast state beyond compiled constants, no
driver materialization.  At 100 TB each stage streams block-by-block with
nothing global.

All hot paths are Arrow/numpy-vectorized:
- redaction = chained RE2 ``replace_substring_regex`` kernels (the same
  regex engine DuckDB uses, so the oracle replays it verbatim);
- repetition stats = C-level ``split_pattern_regex`` + factorize/bincount
  (no per-row Python);
- sampling = one int64 multiply/mod per row.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.pipelines import common
from nativeextractor_ray.pipelines.common import exchange, fits, measured
from nativeextractor_ray.sources.transcripts import TRANSCRIPTS_SQL

# ---------------------------------------------------------------- pii redact

# Redaction order is part of the spec: URL first (a URL can contain an
# email/date-shaped substring; the reference's enclosed-span filter gives
# the longest span priority the same way — extractor.c:145-203), then
# email, phone, date.  The replacement tokens contain '[' / ']', which no
# pattern below can match, so each later pass cannot match across an
# earlier replacement — sequential replace is therefore equivalent to
# non-overlapping span replacement with that precedence.
def _redactions():
    from nativeextractor_ray.pipelines.oracles import (
        DATE_SQL_RE, EMAIL_SQL_RE, PHONE_SQL_RE, URL_SQL_RE,
    )

    return [
        (URL_SQL_RE, "[URL]"),
        (EMAIL_SQL_RE, "[EMAIL]"),
        (PHONE_SQL_RE, "[PHONE]"),
        (DATE_SQL_RE, "[DATE]"),
    ]


def redact_batch(txt: pa.ChunkedArray | pa.Array):
    """(redacted_text, n_redacted) for a text column — chained RE2 global
    replaces, counted on the progressively-redacted text (sequential
    semantics, mirrored exactly by the nested ``regexp_replace`` oracle)."""
    n = pa.array(np.zeros(len(txt), np.int64))
    for pat, tok in _redactions():
        n = pc.add(n, pc.cast(pc.count_substring_regex(txt, pat), pa.int64()))
        txt = pc.replace_substring_regex(txt, pat, tok)
    return txt, n


def pii_redact(sf_dir: str, replicate: int = 1):
    """Transcripts with URL/email/phone/date mentions replaced by typed
    placeholder tokens — the PII-scrubbing step of a training-data
    pipeline, built on the same patterns the mention miners prove out
    (`mentions_*` oracles pin the match sets; a pytest pins span-based
    miner redaction == this vectorized path)."""
    from nativeextractor_ray.sources.transcripts import transcripts_dataset

    ds = transcripts_dataset(sf_dir, replicate=replicate)

    def red(t: pa.Table) -> pa.Table:
        txt, n = redact_batch(t.column("text"))
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": t.column("turn_idx"),
            "text_redacted": txt,
            "n_redacted": n,
        })

    return ds.map_batches(red, batch_format="pyarrow")


def _pii_redact_sql() -> str:
    steps = _redactions()
    sql = f"WITH t AS ({TRANSCRIPTS_SQL})"
    prev = "t"
    n_cols = []
    for i, (pat, tok) in enumerate(steps, start=1):
        n_cols.append(f"n{i}")
        carried = ", ".join(n_cols[:-1])
        carried = carried + ", " if carried else ""
        sql += f""",
s{i} AS (SELECT conv_id, turn_idx, {carried}len(regexp_extract_all(text, '{pat}')) AS n{i},
         regexp_replace(text, '{pat}', '{tok}', 'g') AS text FROM {prev})"""
        prev = f"s{i}"
    total = " + ".join(n_cols)
    sql += f"""
SELECT conv_id, turn_idx, text AS text_redacted,
       CAST({total} AS BIGINT) AS n_redacted FROM {prev}"""
    return sql


PII_REDACT_SQL = _pii_redact_sql()


# ---------------------------------------------------------------- repetition

WORD_RE = r"[A-Za-z0-9]+"
_NONWORD_SPLIT = r"[^A-Za-z0-9]+"

# documents_repetition_filtered keeps docs whose most frequent word is at
# most 1/REP_MAX_WORD_FRAC of all word tokens (Gopher-style "top word
# fraction" gate, integer-exact on both sides)
REP_MAX_WORD_FRAC = 8


def _rep_stats_arrays(txt) -> dict[str, np.ndarray]:
    """Vectorized per-doc repetition signals.

    Words: C-level regex split into a ListArray, then factorize + one
    ``np.unique`` over (doc, word-code) composite keys — n_words,
    n_distinct_words and the max per-word multiplicity all fall out of
    bincounts, no per-row Python.  Lines likewise (empty strings kept:
    ``string_split`` keeps them, and duplicate empty lines ARE duplicate
    lines)."""
    n = len(txt)

    def _explode(lst):
        lst = lst.combine_chunks() if isinstance(lst, pa.ChunkedArray) else lst
        off = np.asarray(lst.offsets)
        idx = np.repeat(np.arange(len(lst)), np.diff(off))
        return idx, np.asarray(lst.flatten())

    w_idx, words = _explode(pc.split_pattern_regex(txt, _NONWORD_SPLIT))
    keep = words != ""
    w_idx, words = w_idx[keep], words[keep]
    codes, uniq = pd.factorize(words)
    key = w_idx.astype(np.int64) * (len(uniq) + 1) + codes
    uk, counts = np.unique(key, return_counts=True)
    ud = (uk // (len(uniq) + 1)).astype(np.int64)
    n_words = np.bincount(w_idx, minlength=n)
    n_distinct = np.bincount(ud, minlength=n)
    mx = np.zeros(n, np.int64)
    np.maximum.at(mx, ud, counts)

    l_idx, lines = _explode(pc.split_pattern(txt, "\n"))
    lcodes, luniq = pd.factorize(lines)
    luk = np.unique(l_idx.astype(np.int64) * (len(luniq) + 1) + lcodes)
    n_lines = np.bincount(l_idx, minlength=n)
    n_dlines = np.bincount((luk // (len(luniq) + 1)).astype(np.int64), minlength=n)

    return {
        "n_words": n_words.astype(np.int64),
        "n_distinct_words": n_distinct,
        "max_word_count": mx,
        "n_lines": n_lines.astype(np.int64),
        "n_distinct_lines": n_dlines.astype(np.int64),
    }


def _docs(sf_dir: str):
    from nativeextractor_ray.sources.tables import read_table

    return read_table(sf_dir, "documents", ["doc_id", "text"])


def repetition_stats(sf_dir: str):
    """Per-document repetition signals (Rae et al. 2021 "Gopher" quality
    heuristics family): word totals/distincts, max single-word
    multiplicity, line totals/distincts.  Integer-valued so the DuckDB
    comparison is float-free."""

    def stats(t: pa.Table) -> pa.Table:
        cols = _rep_stats_arrays(t.column("text"))
        return pa.table({"doc_id": t.column("doc_id"),
                         **{k: pa.array(v) for k, v in cols.items()}})

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow")


REPETITION_STATS_SQL = f"""WITH w AS (
  SELECT doc_id, u.x AS w FROM documents,
         UNNEST(regexp_extract_all(text, '{WORD_RE}')) u(x)
),
c AS (SELECT doc_id, w, count(*) AS n FROM w GROUP BY doc_id, w),
wa AS (
  SELECT doc_id, CAST(sum(n) AS BIGINT) AS n_words,
         CAST(count(*) AS BIGINT) AS n_distinct_words,
         CAST(max(n) AS BIGINT) AS max_word_count
  FROM c GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(wa.n_words, 0) AS n_words,
       coalesce(wa.n_distinct_words, 0) AS n_distinct_words,
       coalesce(wa.max_word_count, 0) AS max_word_count,
       CAST(len(string_split(d.text, chr(10))) AS BIGINT) AS n_lines,
       CAST(len(list_distinct(string_split(d.text, chr(10)))) AS BIGINT)
         AS n_distinct_lines
FROM documents d LEFT JOIN wa USING (doc_id)"""


def documents_repetition_filtered(sf_dir: str):
    """Repetition gate of the cleaning pipeline: drop documents whose most
    frequent word exceeds 1/8 of all word tokens — streaming filter, no
    shuffle."""

    def keep(t: pa.Table) -> pa.Table:
        cols = _rep_stats_arrays(t.column("text"))
        mask = pa.array(cols["max_word_count"] * REP_MAX_WORD_FRAC <= cols["n_words"])
        out = t.filter(mask)
        return pa.table({
            "doc_id": out.column("doc_id"),
            "n_words": pa.array(cols["n_words"][np.asarray(mask)]),
            "max_word_count": pa.array(cols["max_word_count"][np.asarray(mask)]),
        })

    return _docs(sf_dir).map_batches(keep, batch_format="pyarrow")


DOCUMENTS_REPETITION_FILTERED_SQL = f"""WITH w AS (
  SELECT doc_id, u.x AS w FROM documents,
         UNNEST(regexp_extract_all(text, '{WORD_RE}')) u(x)
),
c AS (SELECT doc_id, w, count(*) AS n FROM w GROUP BY doc_id, w),
wa AS (
  SELECT doc_id, CAST(sum(n) AS BIGINT) AS n_words,
         CAST(max(n) AS BIGINT) AS max_word_count
  FROM c GROUP BY doc_id
)
SELECT doc_id, n_words, max_word_count FROM wa
WHERE max_word_count * {REP_MAX_WORD_FRAC} <= n_words"""


# ---------------------------------------------------------------- sampling

# per-stratum keep rates out of SAMPLE_MOD buckets: downsample the
# majority language, keep the tail (the composition-rebalancing step of a
# training-data mix)
SAMPLE_MOD = 1000
SAMPLE_RATES = {"en": 200, "de": 500, "es": 500, "fr": 500, "zh": 500}
_SAMPLE_DEFAULT = 100
# Knuth multiplicative hash; doc_id * MULT stays within int64 for
# doc_id < 3.5e9, so the numpy wrap-around never engages and DuckDB's
# overflow-checked BIGINT multiply computes the identical value
_SAMPLE_MULT = 2654435761


def sample_stratified(sf_dir: str):
    """Deterministic stratified sampling over ``documents``: each doc maps
    to a stable pseudo-random bucket via a multiplicative hash of its id;
    per-language keep rates downsample dominant strata.  Pure map — no
    shuffle, no RNG state, resumable by construction (same doc → same
    verdict on every run/retry)."""
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "lang"])

    def keep(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        bucket = (ids * _SAMPLE_MULT) % SAMPLE_MOD
        langs = t.column("lang").to_pylist()
        rates = np.array([SAMPLE_RATES.get(l, _SAMPLE_DEFAULT) for l in langs])
        mask = pa.array(bucket < rates)
        out = t.filter(mask)
        return pa.table({
            "doc_id": out.column("doc_id"),
            "lang": out.column("lang"),
            "bucket": pa.array(bucket[np.asarray(mask)].astype(np.int64)),
        })

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------- packing

PACK_BUDGET = 512
_TOKEN_RE = r"[^\s]+"


def pack_sequences(sf_dir: str, budget: int = PACK_BUDGET):
    """Sequence packing for training: concatenate documents in doc_id
    order and cut at fixed token budgets — each doc gets the sequence id
    and in-sequence offset where its tokens start (offset-cut packing, the
    shape GPT-style pipelines use to fill context windows).

    This is a DISTRIBUTED PREFIX SUM (the one op family Ray Data has no
    primitive for), done as the classic two-pass scan:

    1. token counts per doc (vectorized RE2 kernel), one sort shuffle of
       16-byte (doc_id, n_tokens) rows — text never shuffles;
    2. per-block partial sums pulled to the driver (one tiny row per
       block), prefix-summed there into per-block offsets;
    3. a second block-wise pass over the SAME materialized blocks adds
       ``block_offset + local_cumsum`` — batch/block identity is
       guaranteed because the sorted counts are materialized once and
       both passes map over those exact blocks.

    At 10^10 docs the driver holds one row per BLOCK (~10^5), never per
    doc."""
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def counts(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_tokens": pc.cast(
                pc.count_substring_regex(t.column("text"), _TOKEN_RE), pa.int64()
            ),
        })

    return _pack_by_prefix_sum(ds.map_batches(counts, batch_format="pyarrow"),
                               budget)


def _pack_by_prefix_sum(counted, budget: int):
    """Two-pass distributed prefix sum over a (doc_id, n_tokens, *carry)
    Dataset: sort by doc_id, per-block partial sums to the driver (one
    tiny row per block), second pass over the SAME materialized blocks
    adds block_offset + local cumsum and emits seq_id / offset_in_seq.
    Carry columns ride along untouched."""
    import ray

    sorted_counts = counted.sort("doc_id").materialize()
    if sorted_counts.schema() is None:
        return sorted_counts  # no rows (an exchange's empty output): no schema

    def block_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"min_id": pa.array([], pa.int64()),
                             "total": pa.array([], pa.int64())})
        return pa.table({
            "min_id": pa.array([pc.min(t.column("doc_id")).as_py()], pa.int64()),
            "total": pa.array([int(pc.sum(t.column("n_tokens")).as_py())], pa.int64()),
        })

    partials = sorted(
        (r["min_id"], r["total"])
        for r in sorted_counts.map_batches(
            block_partial, batch_format="pyarrow", batch_size=None
        ).take_all()
    )
    offsets, acc = {}, 0
    for min_id, total in partials:
        offsets[min_id] = acc
        acc += total
    off_ref = ray.put(offsets)
    out_schema = pa.schema(
        list(sorted_counts.schema().base_schema)
        + [pa.field("seq_id", pa.int64()), pa.field("offset_in_seq", pa.int64())]
    )

    def assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        off = ray.get(off_ref)
        n = t.column("n_tokens").to_numpy()
        base = off[int(pc.min(t.column("doc_id")).as_py())]
        cum_before = base + np.cumsum(n) - n
        t = t.append_column("seq_id", pa.array(cum_before // budget))
        return t.append_column("offset_in_seq", pa.array(cum_before % budget))

    return sorted_counts.map_batches(assign, batch_format="pyarrow", batch_size=None)


PACK_SEQUENCES_SQL = f"""WITH tok AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '{_TOKEN_RE}')) AS BIGINT) AS n_tokens
  FROM documents
),
c AS (
  SELECT doc_id, n_tokens,
         sum(n_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n_tokens AS cb
  FROM tok
)
SELECT doc_id, n_tokens, CAST(cb // {PACK_BUDGET} AS BIGINT) AS seq_id,
       CAST(cb % {PACK_BUDGET} AS BIGINT) AS offset_in_seq
FROM c"""


# ---------------------------------------------------------------- composite


E2E_MIN_TOKENS = 10


def curation_e2e(sf_dir: str, budget: int = PACK_BUDGET):
    """The flagship end-to-end curation pipeline, one streaming
    composition: quality gate → near-dup removal → PII redaction →
    sequence packing.  A user of the pieces runs exactly this shape at
    100 TB:

    1. near-dup DROP set from :func:`~nativeextractor_ray.pipelines.dedup.
       dedup_clusters` (docs whose cluster representative is another doc)
       — the drop side scales with the duplicate population, so it
       broadcasts once via ``ray.put`` while the corpus streams;
    2. one ``map_batches`` pass applies the raw-text token gate
       (``>= E2E_MIN_TOKENS``, same rule as documents_quality_filtered),
       the broadcast drop filter (sorted array + searchsorted), and the
       chained-RE2 redaction, and emits redacted text + its token count;
    3. survivors flow into the same two-pass prefix-sum packer as
       pack_sequences — redacted text moves through exactly ONE sort
       shuffle (the minimum any deterministic global packing needs
       unless the input is pre-ordered).

    Oracle: the full composition in SQL — recursive-CTE cluster keep,
    token gate, nested regexp_replace chain, window-function packing."""
    return _pack_by_prefix_sum(curated_docs(sf_dir), budget)


def curated_docs(sf_dir: str):
    """Gate + near-dup drop + redact as a reusable streaming stage:
    (doc_id, text_redacted, n_tokens) for every surviving document.

    The near-dup DROP application is size-gated (same family as the
    minhash verify leg): a drop set under
    ``common.BROADCAST_BOUND`` broadcasts once via ``ray.put``
    (sorted int64 array + searchsorted) so the whole stage is one
    shuffle-free ``map_batches``; above the bound — web crawls run 30-50%
    near-dup, so the drop set is O(corpus) at 100 TB — the drop ids meet
    the corpus in one ``common.exchange`` on ``doc_id`` and are
    removed by ONE anti-merge per call (the minimum exchange any
    non-broadcastable semijoin needs; text crosses that one shuffle and
    nothing else).  Both paths bit-identical under a forced bound=0 in
    ``tests/test_trainingdata.py``."""
    import ray

    from nativeextractor_ray.pipelines.dedup import dedup_clusters
    from nativeextractor_ray.sources.tables import read_table

    cl = dedup_clusters(sf_dir)

    def drops(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(t.column("keep"))).select(["doc_id"])

    drop_ds, nbytes = measured(cl.map_batches(drops, batch_format="pyarrow"))
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def gate_redact(t: pa.Table, dr: "np.ndarray | None") -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        keep = np.ones(len(ids), dtype=bool)
        if dr is not None and len(dr):
            pos = np.clip(np.searchsorted(dr, ids), 0, len(dr) - 1)
            keep &= dr[pos] != ids
        n_raw = pc.cast(
            pc.count_substring_regex(t.column("text"), _TOKEN_RE), pa.int64()
        ).to_numpy()
        keep &= n_raw >= E2E_MIN_TOKENS
        t2 = t.filter(pa.array(keep))
        red, _ = redact_batch(t2.column("text"))
        return pa.table({
            "doc_id": t2.column("doc_id"),
            "text_redacted": red,
            "n_tokens": pc.cast(
                pc.count_substring_regex(red, _TOKEN_RE), pa.int64()
            ),
        })

    if fits(nbytes, common.BROADCAST_BOUND):
        from nativeextractor_ray.functions.blocks import arrow_blocks

        drop = np.sort(np.concatenate(
            [t.column("doc_id").to_numpy()
             for t in arrow_blocks(drop_ds, stream=False)]
            or [np.array([], dtype=np.int64)]
        ).astype(np.int64))
        dref = ray.put(drop)

        def stage(t: pa.Table) -> pa.Table:
            return gate_redact(t, ray.get(dref))

        return ds.map_batches(stage, batch_format="pyarrow")

    # Scale path: anti-merge the drop ids against the corpus, exchanged
    # on doc_id — the drop set never lands on the driver.
    def tag_drop(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "text": pa.nulls(t.num_rows, pa.string()),
        })

    def anti(df):
        import pandas as pd

        dropped = df.loc[df["text"].isna(), "doc_id"].to_numpy(dtype=np.int64)
        rows = df[df["text"].notna()]
        if len(dropped):
            dropped = np.sort(dropped)
            ids = rows["doc_id"].to_numpy(dtype=np.int64)
            pos = np.clip(np.searchsorted(dropped, ids), 0, len(dropped) - 1)
            rows = rows[dropped[pos] != ids]
        return pd.DataFrame({
            "doc_id": rows["doc_id"].to_numpy(dtype=np.int64),
            # an all-dropped call must keep a STRING-typed text
            # column — an empty object array would infer pa.null() and
            # break schema unification (decontam.attach's typed-empty rule)
            "text": rows["text"].to_numpy() if len(rows)
            else np.array([], dtype=str),
        })

    survivors = exchange(
        ds.union(drop_ds.map_batches(tag_drop, batch_format="pyarrow")),
        ["doc_id"], anti)
    return survivors.map_batches(
        lambda t: gate_redact(t, None), batch_format="pyarrow")


def curation_e2e_sql(budget: int = PACK_BUDGET) -> str:
    from nativeextractor_ray.pipelines.dedup import ngram_jaccard_sql

    red = "text"
    for pat, tok in _redactions():
        red = f"regexp_replace({red}, '{pat}', '{tok}', 'g')"
    return f"""WITH RECURSIVE pairs AS (
  SELECT doc_a, doc_b FROM ({ngram_jaccard_sql(3, 0.5)}) qq
),
nodes AS (SELECT doc_a AS node FROM pairs UNION SELECT doc_b FROM pairs),
bi AS (SELECT doc_a AS u, doc_b AS v FROM pairs
       UNION ALL SELECT doc_b, doc_a FROM pairs),
walk(node, label) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT bi.v, w.label FROM walk w JOIN bi ON bi.u = w.node
),
comp AS (SELECT node, min(label) AS cluster_id FROM walk GROUP BY node),
surv AS (
  SELECT d.doc_id, d.text
  FROM documents d LEFT JOIN comp c ON c.node = d.doc_id
  WHERE d.doc_id = coalesce(c.cluster_id, d.doc_id)
    AND len(regexp_extract_all(d.text, '{_TOKEN_RE}')) >= {E2E_MIN_TOKENS}
),
red AS (SELECT doc_id, {red} AS text_redacted FROM surv),
tok AS (
  SELECT doc_id, text_redacted,
         CAST(len(regexp_extract_all(text_redacted, '{_TOKEN_RE}')) AS BIGINT)
           AS n_tokens
  FROM red
),
c AS (
  SELECT doc_id, text_redacted, n_tokens,
         sum(n_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n_tokens AS cb
  FROM tok
)
SELECT doc_id, text_redacted, n_tokens, CAST(cb // {budget} AS BIGINT) AS seq_id,
       CAST(cb % {budget} AS BIGINT) AS offset_in_seq
FROM c"""


def _sample_sql() -> str:
    cases = " ".join(
        f"WHEN '{lang}' THEN {rate}" for lang, rate in sorted(SAMPLE_RATES.items())
    )
    return f"""SELECT doc_id, lang,
       (doc_id * {_SAMPLE_MULT}) % {SAMPLE_MOD} AS bucket
FROM documents
WHERE (doc_id * {_SAMPLE_MULT}) % {SAMPLE_MOD} <
      CASE lang {cases} ELSE {_SAMPLE_DEFAULT} END"""


SAMPLE_STRATIFIED_SQL = _sample_sql()


TRAIN_VOCAB_V = 25


def training_batches(sf_dir: str, budget: int = PACK_BUDGET,
                     v: int = TRAIN_VOCAB_V):
    """The full training-prep deliverable in one call: quality gate →
    near-dup removal → PII redaction → vocabulary build → tokenize to
    ids → pack into fixed token-budget sequences.  Output rows are what
    a data loader consumes: ``(doc_id, n_tokens, ids, seq_id,
    offset_in_seq)`` with ids drawn from a bounded vocab built on the
    CURATED corpus (ids 1..v by frequency, OOV → 0).

    The curated stage is materialized once (redacted text in the object
    store, spillable) because three passes need it: vocab counts, id
    encoding, and the packing prefix-sum — recomputing would repeat the
    dedup leg.  Everything downstream reuses the shared kernels:
    ``_top_v_vocab`` / ``_encode_ids`` (textstats) and
    ``_pack_by_prefix_sum``."""
    from nativeextractor_ray.pipelines.textstats import _encode_ids, _top_v_vocab

    cur = curated_docs(sf_dir).materialize()
    vocab = _top_v_vocab(cur, "text_redacted", v)
    enc = _encode_ids(cur, vocab, "text_redacted")
    return _pack_by_prefix_sum(enc, budget)


def training_batches_sql(budget: int = PACK_BUDGET,
                         v: int = TRAIN_VOCAB_V) -> str:
    from nativeextractor_ray.pipelines.dedup import ngram_jaccard_sql

    red = "text"
    for pat, tok in _redactions():
        red = f"regexp_replace({red}, '{pat}', '{tok}', 'g')"
    return f"""WITH RECURSIVE pairs AS (
  SELECT doc_a, doc_b FROM ({ngram_jaccard_sql(3, 0.5)}) qq
),
nodes AS (SELECT doc_a AS node FROM pairs UNION SELECT doc_b FROM pairs),
bi AS (SELECT doc_a AS u, doc_b AS v FROM pairs
       UNION ALL SELECT doc_b, doc_a FROM pairs),
walk(node, label) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT bi.v, w.label FROM walk w JOIN bi ON bi.u = w.node
),
comp AS (SELECT node, min(label) AS cluster_id FROM walk GROUP BY node),
surv AS (
  SELECT d.doc_id, d.text
  FROM documents d LEFT JOIN comp c ON c.node = d.doc_id
  WHERE d.doc_id = coalesce(c.cluster_id, d.doc_id)
    AND len(regexp_extract_all(d.text, '{_TOKEN_RE}')) >= {E2E_MIN_TOKENS}
),
red AS (SELECT doc_id, {red} AS text FROM surv),
w AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM red
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
enc AS (
  SELECT w.doc_id,
         CAST(coalesce(len(w.w), 0) AS BIGINT) AS n_tokens,
         coalesce((SELECT array_to_string(
                     list(coalesce(vb.id, 0) ORDER BY tk.i), ',')
                   FROM toks tk LEFT JOIN vocab vb ON vb.term = tk.term
                   WHERE tk.doc_id = w.doc_id), '') AS ids
  FROM w
),
c AS (
  SELECT doc_id, n_tokens, ids,
         sum(n_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n_tokens AS cb
  FROM enc
)
SELECT doc_id, n_tokens, ids, CAST(cb // {budget} AS BIGINT) AS seq_id,
       CAST(cb % {budget} AS BIGINT) AS offset_in_seq
FROM c"""


# ---------------------------------------------------------------- mixing


#: acceptance-threshold granularity for the mixture resampler
MIX_MOD = 1_000_000


def domain_mix(sf_dir: str, domain_col: str = "lang"):
    """Mixture rebalancing across domains (the composition step
    of a training-data recipe, DoReMi/Pile-style with uniform targets):
    downsample every domain to the size of the SMALLEST one, so the kept
    corpus is a uniform mix over domains.  ``domain_col`` is any
    categorical column; the default ``lang`` is the skewed axis of the
    test corpora (the ``source`` axis is uniform there, which would make
    the filter a no-op).

    Two passes:

    1. per-source counts — per-batch ``value_counts`` partials, one tiny
       ``groupby(source).sum`` (rows == #domains, by definition small),
       pulled to the driver and broadcast as an acceptance-threshold dict;
    2. a pure streaming filter — each doc maps to a stable pseudo-random
       bucket in [0, MIX_MOD) via the same Knuth multiplicative hash as
       :func:`sample_stratified` and is kept iff
       ``bucket < floor(n_min * MIX_MOD / n_source)``.

    Deterministic (same doc → same verdict on retry → resumable), no RNG
    state, no shuffle on the corpus itself.  Integer arithmetic end to end
    so :func:`domain_mix_sql` replays it exactly (``//`` == floor for the
    non-negative operands here; ``doc_id * MULT`` stays in int64 for
    doc_id < 3.5e9 — same bound as sample_stratified)."""
    import ray

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", domain_col])

    # per-batch partials are tiny (#domains rows each); fold them on the
    # driver instead of paying a sort shuffle for a toy aggregate — at
    # 10^6 blocks × a handful of domains this is a few MB of rows
    counts = _domain_counts(sf_dir, domain_col)
    nmin = min(counts.values(), default=0)
    thr = {s: (nmin * MIX_MOD) // n for s, n in counts.items()}
    thr_ref = ray.put(thr)

    def keep(t: pa.Table) -> pa.Table:
        lim_by_src = ray.get(thr_ref)
        ids = t.column("doc_id").to_numpy()
        bucket = (ids * _SAMPLE_MULT) % MIX_MOD
        lim = np.array([lim_by_src[s] for s in t.column(domain_col).to_pylist()],
                       dtype=np.int64)
        mask = pa.array(bucket < lim)
        out = t.filter(mask)
        return pa.table({
            "doc_id": out.column("doc_id"),
            domain_col: out.column(domain_col),
            "bucket": pa.array(bucket[np.asarray(mask)].astype(np.int64)),
        })

    return ds.map_batches(keep, batch_format="pyarrow")


DOMAIN_MIX_SQL = f"""WITH cnt AS (
  SELECT lang, count(*) AS n FROM documents GROUP BY lang
),
thr AS (
  SELECT lang, (SELECT min(n) FROM cnt) * {MIX_MOD} // n AS t FROM cnt
)
SELECT d.doc_id, d.lang, (d.doc_id * {_SAMPLE_MULT}) % {MIX_MOD} AS bucket
FROM documents d JOIN thr USING (lang)
WHERE (d.doc_id * {_SAMPLE_MULT}) % {MIX_MOD} < t"""


# ---------------------------------------------------------------- sharding


N_SHARDS = 64
#: xxhash PRIME32_2; doc_id * MULT stays in int64 for doc_id < 4.1e9
_SHARD_MULT = 2246822519
_SHARD_MOD = 1_000_003  # prime, decorrelates the shard key from MIX_MOD


def shuffle_shards(sf_dir: str, n_shards: int = N_SHARDS):
    """Deterministic training-shard assignment + within-shard shuffle
    order: every doc gets ``(shard, pos)`` where ``shard`` spreads docs
    pseudo-randomly over ``n_shards`` data-parallel readers and ``pos`` is
    the doc's position in its shard's deterministic shuffled order (rank
    of the hash key, ties by doc_id).  This is the "global shuffle once,
    then stream shards sequentially" layout LLM trainers consume — no RNG
    state, reproducible across runs/retries.

    Scale shape: the corpus-side row is 16 bytes (doc_id, key); the only
    exchange is one ``groupby(shard)`` all-to-all, after which each group
    ranks its keys with one vectorized argsort — at 10^10 docs and 64
    shards that is ~2.5 GB per group (keys only, never text).  ``n_shards``
    scales with the trainer's data-parallel world size, which is exactly
    what bounds per-shard size in practice; for extreme corpora the rank
    becomes sort + the `_pack_by_prefix_sum` two-pass scan."""
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id"])

    def key(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        k = (ids * _SHARD_MULT) % _SHARD_MOD
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "key": pa.array(k.astype(np.int64)),
            "shard": pa.array((k % n_shards).astype(np.int64)),
        })

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["doc_id"].to_numpy(), g["key"].to_numpy()))
        out = g.iloc[order][["doc_id", "shard"]].reset_index(drop=True)
        out["pos"] = np.arange(len(out), dtype=np.int64)
        return out

    return (ds.map_batches(key, batch_format="pyarrow")
              .groupby("shard").map_groups(rank, batch_format="pandas"))


SHUFFLE_SHARDS_SQL = f"""SELECT doc_id,
       ((doc_id * {_SHARD_MULT}) % {_SHARD_MOD}) % {N_SHARDS} AS shard,
       CAST(row_number() OVER (
         PARTITION BY ((doc_id * {_SHARD_MULT}) % {_SHARD_MOD}) % {N_SHARDS}
         ORDER BY (doc_id * {_SHARD_MULT}) % {_SHARD_MOD}, doc_id
       ) - 1 AS BIGINT) AS pos
FROM documents"""


# ---------------------------------------------------------------- normalize


_CTRL_RE = r"[\x00-\x08\x0B\x0C\x0E-\x1F]"


def normalize_text(sf_dir: str):
    """Text canonicalization over the transcript turns — the first stage
    of every curation recipe: Unicode NFC normalize → strip C0 control
    chars (keeping \\t \\n \\r) → collapse whitespace runs to single
    spaces → trim → lowercase → fold digits to ``0`` (the sentencepiece
    digit-normalization convention, so numerals share one vocab shape).
    Output ``(conv_id, turn_idx, text_norm, changed)``.

    Pure streaming ``map_batches`` of Arrow/RE2 kernels (utf8_normalize,
    replace_substring_regex, utf8_trim_whitespace, utf8_lower) — zero
    per-row Python, no shuffle, trivially resumable.  Both engines run
    RE2, so the ``\\s`` class and the char ranges agree exactly;
    DuckDB's ``nfc_normalize``/``lower`` replay the Arrow kernels."""
    from nativeextractor_ray.sources.transcripts import transcripts_dataset

    ds = transcripts_dataset(sf_dir)

    def norm(t: pa.Table) -> pa.Table:
        txt = t.column("text")
        out = pc.utf8_normalize(txt, form="NFC")
        out = pc.replace_substring_regex(out, pattern=_CTRL_RE, replacement="")
        out = pc.replace_substring_regex(out, pattern=r"\s+", replacement=" ")
        out = pc.utf8_trim_whitespace(out)
        out = pc.utf8_lower(out)
        out = pc.replace_substring_regex(out, pattern=r"[0-9]", replacement="0")
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": t.column("turn_idx"),
            "text_norm": out,
            "changed": pc.not_equal(out, txt),
        })

    return ds.map_batches(norm, batch_format="pyarrow")


NORMALIZE_TEXT_SQL = rf"""WITH tr AS ({{transcripts}}),
n AS (
  SELECT conv_id, turn_idx, text,
         regexp_replace(lower(trim(regexp_replace(regexp_replace(
           nfc_normalize(text), '{_CTRL_RE}', '', 'g'), '\s+', ' ', 'g'))),
           '[0-9]', '0', 'g') AS t
  FROM tr
)
SELECT conv_id, turn_idx, t AS text_norm, t <> text AS changed FROM n""".format(
    transcripts=TRANSCRIPTS_SQL)


# -------------------------------------------------------------- splits

#: deterministic split buckets out of SPLIT_MOD: [0, 80%) train,
#: [80%, 90%) val, rest test — the standard hash-split so every run /
#: retry / incremental append assigns the same doc to the same split
SPLIT_MOD = 1000
SPLIT_TRAIN = 800
SPLIT_VAL = 900
_SPLIT_MULT = 2246822519  # Fibonacci-style odd multiplier, distinct from
#                           _SAMPLE_MULT so split and sample buckets are
#                           independent hash streams


def split_assign(sf_dir: str):
    """Deterministic train/val/test assignment over ``documents`` via a
    multiplicative id hash (the :func:`sample_stratified` bucket shape):
    ``(doc_id, bucket, split)``.  Pure streaming map — no shuffle, no RNG
    state; a new crawl appended tomorrow lands in the same splits, which
    is what makes hash splits the production default over
    ``random_shuffle`` + slice."""
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id"])

    def assign(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        bucket = (ids * _SPLIT_MULT) % SPLIT_MOD
        split = np.where(bucket < SPLIT_TRAIN, "train",
                         np.where(bucket < SPLIT_VAL, "val", "test"))
        return pa.table({
            "doc_id": t.column("doc_id"),
            "bucket": pa.array(bucket.astype(np.int64)),
            "split": pa.array(split.astype(object), pa.string()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


SPLIT_ASSIGN_SQL = f"""SELECT doc_id,
       (doc_id * {_SPLIT_MULT}) % {SPLIT_MOD} AS bucket,
       CASE WHEN (doc_id * {_SPLIT_MULT}) % {SPLIT_MOD} < {SPLIT_TRAIN} THEN 'train'
            WHEN (doc_id * {_SPLIT_MULT}) % {SPLIT_MOD} < {SPLIT_VAL} THEN 'val'
            ELSE 'test' END AS split
FROM documents"""


# ------------------------------------------------------------ sentences

#: sentence boundary = a run of terminal punctuation followed by
#: whitespace; the delimiter run is consumed.  Both engines are RE2, so
#: the Ray split and the DuckDB split see identical boundaries.
SENT_SPLIT_RE = r"[.!?]+\s+"


def sentence_split(sf_dir: str):
    """Segment every transcript turn into sentences — the row-explosion
    (flat_map) stage under per-sentence dedup / quality scoring / context
    packing: ``(conv_id, turn_idx, sent_idx, sentence, n_chars)`` with
    1-based ``sent_idx`` over the raw split (empty pieces dropped AFTER
    numbering, matching ``generate_subscripts`` in the oracle).

    Scale shape: a pure streaming ``map_batches`` whose output has more
    rows than its input — Ray's block model absorbs the explosion by
    splitting output blocks; nothing shuffles, nothing materializes, and
    the C-level RE2 split + numpy offset math keep it zero-Python-loop."""
    from nativeextractor_ray.sources.transcripts import transcripts_dataset

    ds = transcripts_dataset(sf_dir)

    def split(t: pa.Table) -> pa.Table:
        from nativeextractor_ray.functions.vectors import explode_list

        lst = pc.split_pattern_regex(t.column("text"), SENT_SPLIT_RE)
        r_idx, ordinal, sent = explode_list(lst)
        ordinal = ordinal + 1
        out = pa.table({
            "conv_id": t.column("conv_id").take(pa.array(r_idx)),
            "turn_idx": pc.cast(
                t.column("turn_idx").take(pa.array(r_idx)), pa.int64()),
            "sent_idx": pa.array(ordinal.astype(np.int64)),
            "sentence": sent,
            "n_chars": pc.cast(pc.utf8_length(sent), pa.int64()),
        })
        return out.filter(pc.not_equal(out.column("sentence"), ""))

    return ds.map_batches(split, batch_format="pyarrow")


SENTENCE_SPLIT_SQL = rf"""WITH tr AS ({TRANSCRIPTS_SQL}),
s AS (
  SELECT conv_id, turn_idx, string_split_regex(text, '{SENT_SPLIT_RE}') AS arr
  FROM tr
), u AS (
  SELECT conv_id, turn_idx, generate_subscripts(arr, 1) AS sent_idx,
         unnest(arr) AS sentence
  FROM s
)
SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
       CAST(sent_idx AS BIGINT) AS sent_idx, sentence,
       CAST(length(sentence) AS BIGINT) AS n_chars
FROM u WHERE sentence <> ''"""


# -------------------------------------------------- temperature mixing

#: DoReMi/Pile-style temperature: target count per domain ∝ n_d^alpha,
#: scaled so the largest keep-rate is 1.0.  alpha=0 → uniform mix
#: (:func:`domain_mix`); alpha=1 → keep everything (proportional).
MIX_ALPHA = 0.5


def _domain_counts(sf_dir: str, domain_col: str) -> dict[str, int]:
    """Per-domain doc counts: per-batch value_counts partials folded on
    the driver (rows = #domains × #blocks — a metrics rollup)."""
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", domain_col])

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t.column(domain_col))
        return pa.table({domain_col: vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    counts: dict[str, int] = {}
    for r in ds.map_batches(partial, batch_format="pyarrow").take_all():
        counts[r[domain_col]] = counts.get(r[domain_col], 0) + int(r["n"])
    return counts


def _temperature_thresholds(counts: dict[str, int], alpha: float) -> dict[str, int]:
    """Integer acceptance thresholds out of MIX_MOD realizing target
    counts t_d = n_d^alpha * min_e(n_e)^(1-alpha) (keep-rate ≤ 1 for all
    domains, = 1 for the smallest).  Computed ONCE here and embedded as
    literals in the oracle — pow() is not bit-reproducible across engines,
    a floor() at an integer boundary could differ, so neither side
    re-derives them."""
    nmin = min(counts.values(), default=0)
    return {
        d: min(MIX_MOD, int(np.floor(
            MIX_MOD * (float(n) ** (alpha - 1.0)) * (float(nmin) ** (1.0 - alpha)))))
        for d, n in counts.items()
    }


def domain_mix_temperature(sf_dir: str, alpha: float = MIX_ALPHA,
                           domain_col: str = "lang"):
    """Temperature-based mixture rebalancing — the generalization of
    :func:`domain_mix` every production recipe actually ships (uniform is
    too aggressive on head domains, proportional keeps the skew):
    downsample domain ``d`` to ``n_d^alpha * n_min^(1-alpha)`` docs via
    the same deterministic multiplicative-hash bucket as
    :func:`sample_stratified`.  Same doc → same verdict on retry; one
    tiny counts rollup + one streaming filter, no corpus shuffle."""
    import ray

    from nativeextractor_ray.sources.tables import read_table

    thr = _temperature_thresholds(_domain_counts(sf_dir, domain_col), alpha)
    thr_ref = ray.put(thr)
    ds = read_table(sf_dir, "documents", ["doc_id", domain_col])

    def keep(t: pa.Table) -> pa.Table:
        import pandas as pd

        lim_by_dom = ray.get(thr_ref)
        ids = t.column("doc_id").to_numpy()
        bucket = (ids * _SAMPLE_MULT) % MIX_MOD
        codes, uniq = pd.factorize(
            t.column(domain_col).to_numpy(zero_copy_only=False))
        lim = np.array([lim_by_dom[u] for u in uniq], dtype=np.int64)[codes]
        mask = pa.array(bucket < lim)
        out = t.filter(mask)
        return pa.table({
            "doc_id": out.column("doc_id"),
            domain_col: out.column(domain_col),
            "bucket": pa.array(bucket[np.asarray(mask)].astype(np.int64)),
        })

    return ds.map_batches(keep, batch_format="pyarrow")


def domain_mix_temperature_sql(alpha: float = MIX_ALPHA,
                               domain_col: str = "lang",
                               sf_dir: str | None = None) -> str:
    import os

    from nativeextractor_ray.sources.tables import load_table

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF_DIR",
                                      "/root/testdata/sf0.01")
    t = load_table(sf_dir, "documents", columns=[domain_col])
    vc = pc.value_counts(t.column(domain_col))
    counts = dict(zip(vc.field("values").to_pylist(),
                      (int(c) for c in vc.field("counts").to_pylist())))
    thr = _temperature_thresholds(counts, alpha)
    case = " ".join(f"WHEN '{d}' THEN {v}" for d, v in sorted(thr.items()))
    lim = f"CASE {domain_col} {case} ELSE 0 END" if thr else "0"
    return f"""SELECT doc_id, {domain_col},
       (doc_id * {_SAMPLE_MULT}) % {MIX_MOD} AS bucket
FROM documents
WHERE (doc_id * {_SAMPLE_MULT}) % {MIX_MOD} < ({lim})"""


# ------------------------------------------------------- span corruption

#: T5-style span-corruption mask: token idx is masked iff
#: ((doc_id * MASK_MULT_DOC + idx * MASK_MULT_TOK) % MASK_MOD) < MASK_THR
#: — deterministic (same doc → same spans on retry/resume), ~15% of
#: tokens, int64-exact for doc_id < 3.1e9 (documented-bound convention).
MASK_MULT_DOC = 2971215073
MASK_MULT_TOK = 433494437
MASK_MOD = 1000
MASK_THR = 150


def masked_spans(sf_dir: str):
    """T5/UL2-style span corruption planner over ``documents``: mark ~15%
    of whitespace tokens via a deterministic integer hash, coalesce
    adjacent masked tokens into spans, and emit one row per span —
    ``(doc_id, span_idx, start_tok, span_len)`` — the structure a
    denoising-objective data loader consumes (sentinel insertion is a
    trivial downstream map).

    Pure streaming ``map_batches``: RE2 tokenization + numpy
    gaps-and-islands run detection, no Python loop, no shuffle, no state.
    The oracle replays the hash and the run coalescing with window
    functions (row_number gaps-and-islands)."""

    def plan(t: pa.Table) -> pa.Table:
        from nativeextractor_ray.functions.vectors import explode_list

        lst = pc.split_pattern_regex(t.column("text"), r"\s+")
        d_idx, _, flat = explode_list(lst)
        toks = np.asarray(flat)
        keep = toks != ""
        d_idx = d_idx[keep]
        n = len(d_idx)
        if n == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "span_idx": pa.array([], pa.int64()),
                             "start_tok": pa.array([], pa.int64()),
                             "span_len": pa.array([], pa.int64())})
        boundary = np.r_[True, d_idx[1:] != d_idx[:-1]]
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.r_[starts, n])
        idx = np.arange(n) - np.repeat(starts, counts)
        dids = t.column("doc_id").to_numpy()[d_idx]
        # documented-bound raise (errors_prior_window convention): past
        # the bound numpy would WRAP where DuckDB errors — a silent
        # Ray/oracle divergence, so fail loudly instead
        worst = int(dids.max()) * MASK_MULT_DOC + int(idx.max()) * MASK_MULT_TOK
        if worst >= (1 << 63):
            raise ValueError(
                f"masked_spans: doc_id {int(dids.max())} with token idx "
                f"{int(idx.max())} exceeds the int64 hash bound (~3.1e9 docs)")
        masked = ((dids * MASK_MULT_DOC + idx * MASK_MULT_TOK)
                  % MASK_MOD) < MASK_THR
        mdid, midx = dids[masked], idx[masked]
        if len(mdid) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "span_idx": pa.array([], pa.int64()),
                             "start_tok": pa.array([], pa.int64()),
                             "span_len": pa.array([], pa.int64())})
        new_run = np.r_[True, (mdid[1:] != mdid[:-1]) | (midx[1:] != midx[:-1] + 1)]
        run_id = np.cumsum(new_run) - 1
        run_doc = mdid[new_run]
        start_tok = midx[new_run]
        span_len = np.bincount(run_id)
        new_doc = np.r_[True, run_doc[1:] != run_doc[:-1]]
        rstarts = np.flatnonzero(new_doc)
        rcounts = np.diff(np.r_[rstarts, len(run_doc)])
        span_idx = np.arange(len(run_doc)) - np.repeat(rstarts, rcounts) + 1
        return pa.table({
            "doc_id": pa.array(run_doc.astype(np.int64)),
            "span_idx": pa.array(span_idx.astype(np.int64)),
            "start_tok": pa.array(start_tok.astype(np.int64)),
            "span_len": pa.array(span_len.astype(np.int64)),
        })

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(plan, batch_format="pyarrow")


MASKED_SPANS_SQL = rf"""WITH tok AS (
  SELECT doc_id, generate_subscripts(arr, 1) - 1 AS idx
  FROM (SELECT doc_id, regexp_extract_all(text, '[^\s]+') AS arr
        FROM documents)
), m AS (
  SELECT doc_id, idx FROM tok
  WHERE ((doc_id * {MASK_MULT_DOC} + idx * {MASK_MULT_TOK}) % {MASK_MOD})
        < {MASK_THR}
), runs AS (
  SELECT doc_id, idx,
         idx - row_number() OVER (PARTITION BY doc_id ORDER BY idx) AS grp
  FROM m
), spans AS (
  SELECT doc_id, min(idx) AS start_tok, count(*) AS span_len
  FROM runs GROUP BY doc_id, grp
)
SELECT doc_id,
       CAST(row_number() OVER (PARTITION BY doc_id ORDER BY start_tok) AS BIGINT)
         AS span_idx,
       CAST(start_tok AS BIGINT) AS start_tok,
       CAST(span_len AS BIGINT) AS span_len
FROM spans"""


# -------------------------------------------------- per-source capped sample


SAMPLE_K_PER_SOURCE = 10


def sample_k_per_source(sf_dir: str, k: int = SAMPLE_K_PER_SOURCE):
    """Deterministic k-per-source document sample: keep the ``k`` docs
    with the SMALLEST ``md5(doc_id)`` hash per source — the per-domain
    cap primitive for training mixes (cap every crawl domain at k docs)
    and for building fixed eval slices.  Hash-ordering makes it an
    order-free, append-stable "reservoir": re-running on a grown corpus
    keeps a doc iff it still ranks in the k smallest, with no RNG state.

    Hash parity: lower 8 md5 digest bytes little-endian of
    ``str(doc_id)`` == DuckDB ``md5_number_lower(CAST(doc_id AS
    VARCHAR))`` (the ``sketches.py`` precedent).

    Scale shape (the ``top_events_per_user`` two-level grouped top-k):
    every batch reduces to ≤ k rows per source BEFORE the shuffle
    (k-smallest is associative), so the exchange moves O(sources × k)
    rows, never the corpus; an exchange on ``source`` then resolves
    exact ranks with one vectorized pandas pass per call.

    Output: ``(source, doc_id, rnk)`` — rnk 1..k by (hash, doc_id) asc."""
    import hashlib

    import pandas as pd

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "source"])

    def _hashes(ids: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (int.from_bytes(
                hashlib.md5(str(int(i)).encode()).digest()[8:16], "little")
             for i in ids),
            dtype=np.uint64, count=len(ids))

    order = dict(by=["source", "h", "doc_id"],
                 ascending=[True, True, True], kind="stable")

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["h"] = _hashes(df["doc_id"].to_numpy())
        df = df.sort_values(**order)
        top = df.groupby("source", sort=False).head(k)
        return pa.Table.from_pandas(top, preserve_index=False)

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(**order)
        out = df.groupby("source", sort=False).head(k).copy()
        out["rnk"] = (out.groupby("source", sort=False).cumcount() + 1
                      ).astype("int64")
        return out[["source", "doc_id", "rnk"]]

    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    ["source"], resolve)


def sample_k_per_source_sql(k: int = SAMPLE_K_PER_SOURCE) -> str:
    return f"""SELECT source, doc_id, CAST(rn AS BIGINT) AS rnk
FROM (
  SELECT source, doc_id,
         row_number() OVER (
           PARTITION BY source
           ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
         ) AS rn
  FROM documents
) WHERE rn <= {k}"""


# ------------------------------------------------- curriculum assignment


CURRICULUM_STAGES = 4


def curriculum_assign(sf_dir: str, stages: int = CURRICULUM_STAGES):
    """Curriculum-learning stage assignment: documents bucket into
    ``stages`` difficulty tiers by whitespace token count (the standard
    short→long curriculum), with tier edges at EXACT corpus quantiles —
    every doc gets a deterministic ``stage`` in 1..stages.

    Scale shape: the exact histogram-refinement kernel
    (:mod:`~nativeextractor_ray.pipelines.quantiles`) selects the
    stage-edge order statistics in R+1 streaming scans (no sort); the
    assignment is then ONE more streaming map against the ≤ stages−1
    broadcast edges.  A doc with ``n_tokens`` ≤ edge_i belongs to the
    first such stage (edges at ranks ``ceil(i·n/stages)``).

    Output: ``(doc_id, n_tokens, stage)``."""
    from nativeextractor_ray.pipelines.quantiles import _exact_quantiles
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def toks(t: pa.Table) -> pa.Table:
        # count \S+ runs directly — a trim+split would miscount the
        # empty/whitespace-only document (1 vs the oracle's 0)
        n = pc.count_substring_regex(t.column("text"), r"\S+")
        return pa.table({
            "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
            "n_tokens": pc.cast(n, pa.int64())})

    counted = ds.map_batches(toks, batch_format="pyarrow").materialize()

    qs = tuple(i / stages for i in range(1, stages))
    got = _exact_quantiles(counted, "n_tokens", qs)
    edges = [got[("", q)] for q in sorted(q for _, q in got)]

    def assign(t: pa.Table) -> pa.Table:
        n = t.column("n_tokens").to_numpy()
        stage = np.ones(len(n), np.int64) * len(edges)
        # first edge with n <= edge wins; above all edges -> last stage
        for i in range(len(edges) - 1, -1, -1):
            stage[n <= edges[i]] = i
        return t.append_column("stage", pa.array(stage + 1, pa.int64()))

    return counted.map_batches(assign, batch_format="pyarrow")


def curriculum_assign_sql(stages: int = CURRICULUM_STAGES) -> str:
    edge_ranks = ", ".join(
        f"(SELECT n_tokens FROM r WHERE r.r = CAST(ceil({i}.0 * "
        f"(SELECT n FROM cnt) / {stages}) AS BIGINT)) AS e{i}"
        for i in range(1, stages))
    case = " ".join(
        f"WHEN n_tokens <= (SELECT e{i} FROM edges) THEN {i}"
        for i in range(1, stages))
    return f"""WITH toks AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(trim(text), '\\S+')) AS BIGINT)
           AS n_tokens
  FROM documents),
r AS (SELECT n_tokens, row_number() OVER (ORDER BY n_tokens) AS r
      FROM toks),
cnt AS (SELECT CAST(count(*) AS BIGINT) AS n FROM toks),
edges AS (SELECT {edge_ranks})
SELECT doc_id, n_tokens,
       CAST(CASE {case} ELSE {stages} END AS BIGINT) AS stage
FROM toks"""


# -------------------------------------------- weighted priority sampling


WEIGHTED_SAMPLE_K = 100


def weighted_sample(sf_dir: str, k: int = WEIGHTED_SAMPLE_K):
    """Deterministic weight-proportional sample of ``documents`` —
    priority sampling (Duffield–Lund–Thorup, JACM'07): each doc draws a
    pseudo-uniform ``u`` from its id hash and gets priority ``u / w``
    (weight ``w`` = ``n_chars``); the ``k`` SMALLEST priorities win, so
    heavier docs are proportionally likelier to be kept, yet the sample
    is fully reproducible and append-stable (no RNG state — the
    ``sample_k_per_source`` economics with weights).

    Cross-engine exactness: ``u`` is the md5 lower-64 shifted to 53 bits
    (+1, never zero) — an EXACT integer both engines hold; the priority
    is ONE double division of that integer by the integer weight, and
    IEEE-754 division is correctly rounded, so numpy and DuckDB produce
    bit-identical doubles (unlike ``ln``/``pow``, which are libm-
    dependent and deliberately avoided).

    Scale shape: k-smallest is associative — every block folds to ≤ k
    rows map-side, the union (blocks × k) resolves once on the driver.
    No shuffle.

    Output: ``(doc_id, weight, priority)`` — the k winners."""
    import hashlib

    import pandas as pd
    import ray

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        w = t.column("n_chars").to_numpy()
        pos = w > 0
        ids, w = ids[pos], w[pos]
        h = np.fromiter(
            (int.from_bytes(
                hashlib.md5(str(int(i)).encode()).digest()[8:16], "little")
             for i in ids),
            dtype=np.uint64, count=len(ids))
        u = (h >> np.uint64(11)).astype(np.float64) + 1.0
        pri = u / w.astype(np.float64)
        order = np.lexsort((ids, pri))[:k]
        return pa.table({
            "doc_id": pa.array(ids[order]),
            "weight": pa.array(w[order].astype(np.int64)),
            "priority": pa.array(pri[order])})

    from nativeextractor_ray.functions.blocks import arrow_blocks

    local = ds.map_batches(partial, batch_format="pyarrow")
    parts = list(arrow_blocks(local, stream=False))
    if not parts:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "weight": pa.array([], pa.int64()),
                         "priority": pa.array([], pa.float64())})
    t = pa.concat_tables(parts, promote_options="default")
    pri = t.column("priority").to_numpy()
    ids = t.column("doc_id").to_numpy()
    order = np.lexsort((ids, pri))[:k]
    return t.take(pa.array(order))


def weighted_sample_sql(k: int = WEIGHTED_SAMPLE_K) -> str:
    return f"""SELECT doc_id, CAST(n_chars AS BIGINT) AS weight,
       CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) // 2048 + 1 AS DOUBLE)
         / CAST(n_chars AS DOUBLE) AS priority
FROM documents
WHERE n_chars > 0
ORDER BY priority, doc_id
LIMIT {k}"""


# ------------------------------------------------------ context chunking


CHUNK_W = 32   # window tokens
CHUNK_S = 24   # stride (overlap = W - S)


def chunk_documents(sf_dir: str, window: int = CHUNK_W,
                    stride: int = CHUNK_S):
    """Overlapping fixed-token context chunks per document — the RAG /
    long-context row-explosion stage (chunk k covers tokens
    ``[k·stride, k·stride + window)``; the last chunk may be short;
    every token position is covered and consecutive chunks share
    ``window − stride`` tokens).

    Scale shape: pure streaming flat-map — a doc never spans batches, so
    chunk rows derive vectorized per batch (np.repeat over per-doc chunk
    counts) with zero shuffle and zero driver state.  Emitting offsets
    instead of chunk text keeps the fan-out narrow; a downstream stage
    slices text lazily.

    Output: ``(doc_id, chunk_idx, start_tok, n_tok)``."""
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def chunks(t: pa.Table) -> pa.Table:
        n = pc.cast(pc.count_substring_regex(
            t.column("text"), _TOKEN_RE), pa.int64()).to_numpy()
        ids = t.column("doc_id").to_numpy()
        pos = n > 0
        ids, n = ids[pos], n[pos]
        # chunk count = ceil(max(n - window, 0) / stride) + 1
        k = np.maximum(n - window, 0)
        nch = (k + stride - 1) // stride + 1
        doc = np.repeat(ids, nch)
        tot = np.repeat(n, nch)
        offs = np.concatenate([np.arange(c) for c in nch]) if len(nch) \
            else np.empty(0, np.int64)
        start = offs * stride
        ntok = np.minimum(tot - start, window)
        return pa.table({
            "doc_id": pa.array(doc, pa.int64()),
            "chunk_idx": pa.array(offs.astype(np.int64)),
            "start_tok": pa.array(start.astype(np.int64)),
            "n_tok": pa.array(ntok.astype(np.int64))})

    return ds.map_batches(chunks, batch_format="pyarrow")


def chunk_documents_sql(window: int = CHUNK_W,
                        stride: int = CHUNK_S) -> str:
    return f"""WITH tok AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '{_TOKEN_RE}')) AS BIGINT)
           AS n
  FROM documents),
k AS (
  SELECT doc_id, n,
         (greatest(n - {window}, 0) + {stride} - 1) // {stride} + 1
           AS nch
  FROM tok WHERE n > 0),
c AS (
  SELECT doc_id, n, CAST(unnest(range(0, nch)) AS BIGINT) AS i FROM k)
SELECT doc_id,
       i AS chunk_idx,
       CAST(i * {stride} AS BIGINT) AS start_tok,
       CAST(least(n - i * {stride}, {window}) AS BIGINT) AS n_tok
FROM c"""


# ------------------------------------------- exact stratified splitting


SPLIT_TRAIN_PCT = 80
SPLIT_VAL_PCT = 10  # test gets the remainder


def exact_stratified_split(sf_dir: str):
    """Exact-proportion train/val/test split WITHIN each language
    stratum: docs rank by (md5(doc_id), doc_id) inside their lang and
    the first ⌊0.8·n⌋ are train, the next ⌊0.1·n⌋ val, the rest test —
    the evaluation-grade split (hash splits like :func:`split_assign`
    only hit proportions in expectation; per-stratum quota splits hit
    them exactly, at the cost of one narrow exchange).

    Scale shape: ONE exchange on ``lang`` (24-byte rows — doc_id,
    lang, hash; text never moves); a language reaches one call whole,
    so per-lang ranks AND totals resolve locally — no second pass, no
    broadcast.  Output: ``(doc_id, lang, rnk, split)``."""
    import hashlib

    import pandas as pd

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "lang"])

    def prep(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        h = np.fromiter(
            (int.from_bytes(
                hashlib.md5(str(int(i)).encode()).digest()[8:16], "little")
             for i in ids),
            dtype=np.uint64, count=len(ids))
        # h stays UNSIGNED (uint64) — the SQL twin orders by the raw
        # md5_number_lower UBIGINT; an int64 cast would flip the order
        # of high-bit hashes
        return pa.table({"doc_id": t.column("doc_id"),
                         "lang": t.column("lang"),
                         "h": pa.array(h, pa.uint64())})

    def ranks(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["lang", "h", "doc_id"], kind="stable")
        rnk = df.groupby("lang", sort=False).cumcount().to_numpy() + 1
        tot = df.groupby("lang", sort=False)["doc_id"].transform(
            "size").to_numpy()
        tr = tot * SPLIT_TRAIN_PCT // 100
        va = tot * (SPLIT_TRAIN_PCT + SPLIT_VAL_PCT) // 100
        split = np.where(rnk <= tr, "train",
                         np.where(rnk <= va, "val", "test"))
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "lang": df["lang"].to_numpy(object),
            "rnk": rnk.astype(np.int64),
            "split": split})

    return exchange(ds.map_batches(prep, batch_format="pyarrow"),
                    ["lang"], ranks)


HASH_SAMPLE_K = 200


def hash_sample(sf_dir: str, k: int = HASH_SAMPLE_K):
    """Deterministic UNIFORM corpus sample — rank every doc by the md5
    lower-64 of its id and keep the ``k`` smallest: the reproducible,
    append-stable "give me 10k random docs" primitive every dataset
    audit starts with (no RNG state, no seed file — the hash IS the
    permutation, so two teams sampling the same corpus get the same
    docs).

    Scale shape: k-smallest is associative — every block folds to ≤ k
    rows map-side (the unsigned hash rides as an order-preserving int64
    via a −2⁶³ shift, the repo's uint64 transport rule), the union
    (blocks × k) resolves once on the driver.  No shuffle.

    Output: ``(doc_id, source)`` — the k winners."""
    import hashlib

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "source"])

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        h = np.fromiter(
            (int.from_bytes(
                hashlib.md5(str(int(i)).encode()).digest()[8:16],
                "little") - (1 << 63)
             for i in ids),
            dtype=np.int64, count=len(ids))
        order = np.lexsort((ids, h))[:k]
        return pa.table({
            "doc_id": pa.array(ids[order]),
            "source": pc.take(t.column("source"), pa.array(order)),
            "h": pa.array(h[order])})

    parts = list(arrow_blocks(
        ds.map_batches(partial, batch_format="pyarrow"), stream=False))
    if not parts:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "source": pa.array([], pa.string())})
    merged = pa.concat_tables(parts, promote_options="default")
    ids = merged.column("doc_id").to_numpy()
    h = merged.column("h").to_numpy()
    order = np.lexsort((ids, h))[:k]
    return pa.table({
        "doc_id": pa.array(ids[order]),
        "source": pc.take(merged.column("source"), pa.array(order))})


def hash_sample_sql(k: int = HASH_SAMPLE_K) -> str:
    return f"""SELECT doc_id, source
FROM documents
ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
LIMIT {k}"""


def exact_stratified_split_sql() -> str:
    return f"""WITH r AS (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)),
                    doc_id) AS rnk,
         count(*) OVER (PARTITION BY lang) AS tot
  FROM documents)
SELECT doc_id, lang, CAST(rnk AS BIGINT) AS rnk,
       CASE WHEN rnk <= tot * {SPLIT_TRAIN_PCT} // 100 THEN 'train'
            WHEN rnk <= tot * {SPLIT_TRAIN_PCT + SPLIT_VAL_PCT} // 100
              THEN 'val'
            ELSE 'test' END AS split
FROM r"""
