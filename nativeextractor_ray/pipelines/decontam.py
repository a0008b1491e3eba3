"""Benchmark decontamination + boilerplate n-gram analysis over
``documents`` — two training-data curation operators the reference's
extraction engine feeds into downstream (occurrence streams become corpus
rows; a corpus pipeline must strip eval contamination and boilerplate
before training, cf. the n-gram-overlap decontamination procedure of
GPT-3 appendix C / PaLM and the C4 boilerplate filters).

Scale shapes
------------
``decontaminate``: the benchmark n-gram set is FIXED-SIZE in the corpus
size (an eval suite is a few thousand documents no matter how big the
training corpus is), so one distributed distinct-aggregate + one
``ray.put`` broadcast is the correct 100-TB shape — every corpus batch
probes a read-only sorted array, no shuffle touches the corpus.  The
broadcast is still size-gated (``BENCH_BROADCAST_BOUND``) so a
misconfigured "benchmark" that is actually corpus-sized fails loudly
instead of silently OOMing the driver.

``boilerplate_ngrams``: gram document-frequencies come from per-batch
partial counts (each doc lives in exactly one batch, so per-batch
distinct (doc, gram) pairs are globally distinct — the partial sum is
exact, no pair-level shuffle).  The ≥``min_df`` survivor set is
Zipf-bounded (at most ``total_grams / min_df`` grams), broadcast when
under ``common.BROADCAST_BOUND``, else attached to the gram stream by one
``common.exchange`` on the gram over a tagged union (the same attach
shape as ``dedup.py``'s scale-side verify) — no O(corpus) driver state on
either path.  Both paths are asserted bit-identical in
``tests/test_decontam.py`` by forcing the bound to 0.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.functions.hashing import h64, word_shingles
from nativeextractor_ray.pipelines import common
from nativeextractor_ray.pipelines.common import exchange, fits, measured

#: every doc_id divisible by this is the deterministic stand-in for "a
#: benchmark/eval document" (no external data in this sandbox); the
#: remaining docs are the training corpus being decontaminated.
BENCH_MOD = 97

#: default n-gram orders.  Real decontamination uses 13-grams; the
#: synthetic docs are 10–95 tokens, so 4 keeps the overlap population
#: non-trivial at every sf while preserving the exact pipeline shape.
DECONTAM_N = 4
BOILER_N = 3
BOILER_MIN_DF = 4

BENCH_BROADCAST_BOUND = 256 << 20


def _docs(sf_dir: str):
    from nativeextractor_ray.sources.tables import read_table

    return read_table(sf_dir, "documents", ["doc_id", "text"])


def _gram_hashes(text: str, n: int) -> np.ndarray:
    """Distinct word-n-gram hashes (int64, sign bit cleared so the value
    survives pandas/Arrow int64 round-trips)."""
    g = word_shingles(text, n)
    return np.array([h64(s) & 0x7FFFFFFFFFFFFFFF for s in g], dtype=np.int64)


# ---------------------------------------------------------------- decontaminate


def decontaminate(sf_dir: str, n: int = DECONTAM_N):
    """Corpus docs sharing ≥1 word-``n``-gram with the benchmark subset
    (``doc_id % BENCH_MOD == 0``): ``(doc_id, n_hits)`` with ``n_hits`` =
    the count of the doc's distinct grams that appear anywhere in the
    benchmark.  A real pipeline drops these rows before training; the
    operator reports them so the drop is auditable."""
    import ray

    # distributed distinct-aggregate of benchmark grams: per-batch unique
    # hash arrays, folded block-by-block on the driver (the benchmark is
    # fixed-size by construction — see module docstring).
    def bench_grams(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        keep = np.nonzero(ids % BENCH_MOD == 0)[0]
        out: list[np.ndarray] = []
        if keep.size:
            for txt in t.column("text").take(pa.array(keep)).to_pylist():
                out.append(_gram_hashes(txt, n))
        g = (np.unique(np.concatenate(out)) if out
             else np.array([], dtype=np.int64))
        return pa.table({"g": pa.array(g, pa.int64())})

    bench = _docs(sf_dir).map_batches(
        bench_grams, batch_format="pyarrow").materialize()
    if (bench.size_bytes() or 0) > BENCH_BROADCAST_BOUND:
        raise ValueError(
            "decontaminate: benchmark gram set exceeds the broadcast bound "
            f"({bench.size_bytes()} B) — the benchmark subset is supposed "
            "to be fixed-size; check BENCH_MOD / the benchmark predicate")
    from nativeextractor_ray.functions.blocks import arrow_blocks

    bset = np.unique(np.concatenate(
        [t.column("g").to_numpy()
         for t in arrow_blocks(bench, stream=False)]
        or [np.array([], dtype=np.int64)]))
    bref = ray.put(bset)

    def probe(t: pa.Table) -> pa.Table:
        bs = ray.get(bref)
        ids = t.column("doc_id").to_numpy()
        keep = np.nonzero(ids % BENCH_MOD != 0)[0]
        i_out, h_out = [], []
        if bs.size and keep.size:
            for i in keep:
                g = _gram_hashes(t.column("text")[int(i)].as_py(), n)
                if g.size == 0:
                    continue
                pos = np.searchsorted(bs, g).clip(0, bs.size - 1)
                hits = int((bs[pos] == g).sum())
                if hits:
                    i_out.append(int(ids[i]))
                    h_out.append(hits)
        return pa.table({"doc_id": pa.array(i_out, pa.int64()),
                         "n_hits": pa.array(h_out, pa.int64())})

    return _docs(sf_dir).map_batches(probe, batch_format="pyarrow")


def decontaminate_sql(n: int = DECONTAM_N) -> str:
    """Quadratic DuckDB replay with *string* grams (hash-free: the 64-bit
    gram hashes are injective on test vocabularies, so distinct-gram
    counts agree — same argument as ``dedup.ngram_jaccard_sql``)."""
    return f"""WITH toks AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents
),
tri AS (
  SELECT DISTINCT doc_id,
         array_to_string(w[i:i+{n - 1}], ' ') AS g
  FROM toks, UNNEST(generate_series(1, greatest(len(w) - {n - 1}, 1))) AS t(i)
  WHERE len(w) > 0
),
bench AS (SELECT DISTINCT g FROM tri WHERE doc_id % {BENCH_MOD} = 0)
SELECT tri.doc_id, CAST(count(*) AS BIGINT) AS n_hits
FROM tri JOIN bench USING (g)
WHERE tri.doc_id % {BENCH_MOD} <> 0
GROUP BY tri.doc_id"""


# ---------------------------------------------------------------- boilerplate


def boilerplate_ngrams(sf_dir: str, n: int = BOILER_N,
                       min_df: int = BOILER_MIN_DF):
    """Per-doc boilerplate profile: ``(doc_id, n_grams, n_boiler)`` where
    ``n_grams`` is the doc's distinct word-``n``-gram count and
    ``n_boiler`` counts those grams whose corpus document-frequency is
    ≥ ``min_df`` (shared headers/footers/disclaimers).  A filter on
    ``n_boiler / n_grams`` is the classic C4-style boilerplate gate."""
    import ray
    import ray.data

    # pass 1 — exact gram document-frequencies from per-batch partials
    # (each doc appears in exactly one batch; see module docstring).
    def gram_partials(t: pa.Table) -> pa.Table:
        counts: dict[int, int] = {}
        for txt in t.column("text").to_pylist():
            for gh in _gram_hashes(txt, n):
                k = int(gh)
                counts[k] = counts.get(k, 0) + 1
        return pa.table({
            "g": pa.array(list(counts.keys()), pa.int64()),
            "df": pa.array(list(counts.values()), pa.int64()),
        })

    def df_gate(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater_equal(t.column("sum(df)"), min_df))

    df_ds, nbytes = measured(
        _docs(sf_dir).map_batches(gram_partials, batch_format="pyarrow")
        .groupby("g").sum("df")
        .map_batches(df_gate, batch_format="pyarrow"))

    # pass 2 — per-doc gram stream, membership against the boiler set.
    def doc_grams(t: pa.Table) -> pa.Table:
        ids, g_out, i_out, n_out = t.column("doc_id").to_numpy(), [], [], []
        for d, txt in zip(ids, t.column("text").to_pylist()):
            g = _gram_hashes(txt, n)
            g_out.append(g)
            i_out.append(np.full(g.size, d, dtype=np.int64))
            n_out.append(np.full(g.size, g.size, dtype=np.int64))
        g_arr = (np.concatenate(g_out) if g_out
                 else np.array([], dtype=np.int64))
        return pa.table({
            "g": pa.array(g_arr, pa.int64()),
            "doc_id": pa.array(np.concatenate(i_out) if i_out
                               else np.array([], dtype=np.int64), pa.int64()),
            "n_grams": pa.array(np.concatenate(n_out) if n_out
                                else np.array([], dtype=np.int64), pa.int64()),
        })

    if fits(nbytes, common.BROADCAST_BOUND):
        # broadcast path: the survivor set is Zipf-bounded (≤ grams/min_df)
        from nativeextractor_ray.functions.blocks import arrow_blocks

        boiler = np.unique(np.concatenate(
            [t.column("g").to_numpy()
             for t in arrow_blocks(df_ds, stream=False)]
            or [np.array([], dtype=np.int64)]))
        boil_ref = ray.put(boiler)

        def profile(t: pa.Table) -> pa.Table:
            bs = ray.get(boil_ref)
            i_out, ng_out, nb_out = [], [], []
            for d, txt in zip(t.column("doc_id").to_numpy(),
                              t.column("text").to_pylist()):
                g = _gram_hashes(txt, n)
                if g.size == 0:
                    continue  # token-free doc: absent on every path + SQL
                if bs.size:
                    pos = np.searchsorted(bs, g).clip(0, bs.size - 1)
                    nb = int((bs[pos] == g).sum())
                else:
                    nb = 0
                i_out.append(int(d)); ng_out.append(int(g.size)); nb_out.append(nb)
            return pa.table({"doc_id": pa.array(i_out, pa.int64()),
                             "n_grams": pa.array(ng_out, pa.int64()),
                             "n_boiler": pa.array(nb_out, pa.int64())})

        return _docs(sf_dir).map_batches(profile, batch_format="pyarrow")

    # scale path: attach by an exchange on the gram over a tagged union,
    # the dedup.py shape — per-doc partial boiler counts, then a doc groupby.
    def tag_boiler(t: pa.Table) -> pa.Table:
        return pa.table({
            "g": pc.cast(t.column("g"), pa.int64()),
            "doc_id": pa.nulls(t.num_rows, pa.int64()),
            "n_grams": pa.nulls(t.num_rows, pa.int64()),
        })

    def attach(grp: pd.DataFrame) -> pd.DataFrame:
        bset = set(grp.loc[grp["doc_id"].isna(), "g"].astype("int64"))
        rows = grp[~grp["doc_id"].isna()]
        if not len(rows):
            return pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                                 "n_grams": pd.array([], dtype="int64"),
                                 "n_boiler": pd.array([], dtype="int64")})
        hit = rows["g"].astype("int64").isin(bset).astype("int64")
        out = (pd.DataFrame({"doc_id": rows["doc_id"].astype("int64"),
                             "n_grams": rows["n_grams"].astype("int64"),
                             "n_boiler": hit})
               .groupby("doc_id", sort=False)
               .agg(n_grams=("n_grams", "max"), n_boiler=("n_boiler", "sum"))
               .reset_index())
        return out.astype("int64")

    grams = _docs(sf_dir).map_batches(doc_grams, batch_format="pyarrow")
    partial = exchange(
        grams.union(df_ds.map_batches(tag_boiler, batch_format="pyarrow")),
        ["g"], attach)
    from ray.data.aggregate import Max, Sum

    return (
        partial.groupby("doc_id")
        .aggregate(Max("n_grams", alias_name="n_grams"),
                   Sum("n_boiler", alias_name="n_boiler"))
    )


def boilerplate_sql(n: int = BOILER_N, min_df: int = BOILER_MIN_DF) -> str:
    return f"""WITH toks AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents
),
tri AS (
  SELECT DISTINCT doc_id,
         array_to_string(w[i:i+{n - 1}], ' ') AS g
  FROM toks, UNNEST(generate_series(1, greatest(len(w) - {n - 1}, 1))) AS t(i)
  WHERE len(w) > 0
),
df AS (SELECT g, count(*) AS df FROM tri GROUP BY g),
per AS (
  SELECT tri.doc_id,
         CAST(count(*) AS BIGINT) AS n_grams,
         CAST(sum(CASE WHEN df.df >= {min_df} THEN 1 ELSE 0 END) AS BIGINT)
           AS n_boiler
  FROM tri JOIN df USING (g) GROUP BY tri.doc_id
)
SELECT doc_id, n_grams, n_boiler FROM per"""


# ---------------------------------------------------------------- dup spans


DUPSPAN_N = 4


def dup_spans(sf_dir: str, n: int = DUPSPAN_N):
    """Exact duplicated-substring profile (the per-doc signal behind
    exact-substring dedup, Lee et al. 2022 "Deduplicating Training Data
    Makes Language Models Better"): for every doc with at least one
    word-``n``-gram position, report

    - ``n_pos``   — number of n-gram positions (``len(tokens) - n + 1``),
    - ``n_dup``   — positions whose gram occurs in >1 DISTINCT doc,
    - ``max_run`` — the longest consecutive run of duplicated positions
      (a run of R grams == an R+n-1-token span shared verbatim with some
      other doc — the thing substring dedup cuts).

    Distinct from :func:`boilerplate_ngrams` (corpus-level df>=K profile
    over DISTINCT grams): this is positional — it finds contiguous SPANS,
    not bag-of-gram overlap.

    Scale shape: (gram, doc_id, pos) rows carry everything; exchange 1
    on the gram counts distinct docs per gram and marks each position,
    exchange 2 on ``doc_id`` feeds the vectorized per-doc run-length
    scan.  Counts ride on rows — no join, no
    broadcast, nothing driver-resident.  Gram identity is the shared h64
    hash (injective on test vocabularies; same contract as
    ``ngram_jaccard``/``decontaminate``)."""

    def grams(t: pa.Table) -> pa.Table:
        g_out, d_out, p_out = [], [], []
        for d, txt in zip(t.column("doc_id").to_pylist(),
                          t.column("text").to_pylist()):
            toks = [w for w in txt.split(" ") if w]
            if len(toks) < n:
                continue
            for i in range(len(toks) - n + 1):
                g_out.append(h64(" ".join(toks[i:i + n])) & 0x7FFFFFFFFFFFFFFF)
                d_out.append(d)
                p_out.append(i + 1)  # 1-based, matches the SQL UNNEST
        g_arr = np.array(g_out, dtype=np.int64)
        return pa.table({"g": pa.array(g_arr),
                         "doc_id": pa.array(d_out, pa.int64()),
                         "pos": pa.array(p_out, pa.int64())})

    def mark(grp: pd.DataFrame) -> pd.DataFrame:
        nd = grp.groupby("g", sort=False)["doc_id"].nunique()
        dup = grp["g"].map(nd).to_numpy() > 1
        return pd.DataFrame({"doc_id": grp["doc_id"].to_numpy(),
                             "pos": grp["pos"].to_numpy(), "dup": dup})

    def runs(grp: pd.DataFrame) -> pd.DataFrame:
        d_out, np_out, ndup_out, mr_out = [], [], [], []
        for d, rows in grp.groupby("doc_id", sort=False):
            order = np.argsort(rows["pos"].to_numpy())
            dup = rows["dup"].to_numpy()[order]
            d_out.append(d)
            np_out.append(len(dup))
            ndup_out.append(int(dup.sum()))
            if dup.any():
                # run lengths: split the 0/1 mask at its edges
                edges = np.flatnonzero(np.diff(np.r_[0, dup.view(np.int8), 0]))
                mr_out.append(int((edges[1::2] - edges[::2]).max()))
            else:
                mr_out.append(0)
        return pd.DataFrame({"doc_id": pd.array(d_out, dtype="int64"),
                             "n_pos": pd.array(np_out, dtype="int64"),
                             "n_dup": pd.array(ndup_out, dtype="int64"),
                             "max_run": pd.array(mr_out, dtype="int64")})

    marked = exchange(_docs(sf_dir).map_batches(grams, batch_format="pyarrow"),
                      ["g"], mark)
    return exchange(marked, ["doc_id"], runs)


def dup_spans_sql(n: int = DUPSPAN_N) -> str:
    """Quadratic string-gram DuckDB replay of :func:`dup_spans` —
    gaps-and-islands for the longest duplicated run."""
    return f"""WITH toks AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS w
  FROM documents
),
pos AS (
  SELECT doc_id, i AS pos, array_to_string(w[i:i+{n - 1}], ' ') AS g
  FROM toks, UNNEST(generate_series(1, len(w) - {n - 1})) AS t(i)
  WHERE len(w) >= {n}
),
df AS (SELECT g, count(DISTINCT doc_id) AS df FROM pos GROUP BY g),
m AS (SELECT pos.doc_id, pos.pos, (df.df > 1) AS dup FROM pos JOIN df USING (g)),
runs AS (
  SELECT doc_id, dup,
         pos - row_number() OVER (PARTITION BY doc_id, dup ORDER BY pos) AS grp
  FROM m
),
mx AS (
  SELECT doc_id, max(c) AS max_run
  FROM (SELECT doc_id, grp, count(*) AS c FROM runs WHERE dup
        GROUP BY doc_id, grp)
  GROUP BY doc_id
)
SELECT m.doc_id,
       CAST(count(*) AS BIGINT) AS n_pos,
       CAST(sum(CASE WHEN m.dup THEN 1 ELSE 0 END) AS BIGINT) AS n_dup,
       CAST(coalesce(min(mx.max_run), 0) AS BIGINT) AS max_run
FROM m LEFT JOIN mx USING (doc_id)
GROUP BY m.doc_id"""


# ------------------------------------------------------- CDC chunk profile

#: content-defined-chunking divisor: boundary where the 4-char window
#: value % CDC_D == 0 → expected chunk length ≈ CDC_D chars
CDC_D = 13


def _cdc_boundaries(cps: np.ndarray, d: int) -> np.ndarray:
    """1-based end positions of content-defined chunks for one document
    given its codepoint array: position i (i ≥ 4) is a boundary iff the
    4-codepoint window value ``c[i-3]·2²⁴ + c[i-2]·2¹⁶ + c[i-1]·2⁸ + c[i]``
    divides by ``d``; the document end is always a boundary."""
    n = len(cps)
    if n < 4:
        return np.array([n], dtype=np.int64)
    c = cps.astype(np.uint64)
    v = (c[:-3] << np.uint64(24)) + (c[1:-2] << np.uint64(16)) \
        + (c[2:-1] << np.uint64(8)) + c[3:]
    b = np.nonzero(v % np.uint64(d) == 0)[0] + 4
    if not len(b) or b[-1] != n:
        b = np.append(b, n)
    return b.astype(np.int64)


def cdc_chunks(sf_dir: str, d: int = CDC_D):
    """Content-defined-chunking duplicate profile — the storage-dedup /
    near-superset detector of large corpus pipelines (LBFS/Gear-style CDC:
    a STATELESS boundary predicate over a sliding window, so identical
    passages chunk identically regardless of their byte offset — unlike
    fixed-width shingles, an insertion upstream doesn't shift every
    downstream chunk).  Emits every chunk appearing in ≥2 distinct
    documents: ``(chunk_md5, chunk_len, n_docs, n_occ)``.

    Scale shape: chunking is a pure streaming ``map_batches`` (numpy
    sliding-window boundary test per row); each batch pre-groups its
    chunks so the ONE exchange on the chunk key carries
    (32-byte key, len, doc_id, occ) partials — never text; a per-call
    pandas groupby finishes (distinct-doc count, occurrence sum).  The
    boundary predicate is arithmetic on codepoints so the DuckDB oracle
    replays it exactly (``ascii(substr(...))``)."""
    import hashlib

    def chunk_batch(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        keys, lens, docs = [], [], []
        for did, txt in zip(ids, t.column("text").to_pylist()):
            cps = np.frombuffer(txt.encode("utf-32-le"), dtype="<u4")
            prev = 0
            for b in _cdc_boundaries(cps, d):
                chunk = txt[prev:b]
                keys.append(hashlib.md5(chunk.encode()).hexdigest())
                lens.append(b - prev)
                docs.append(did)
                prev = b
        part = pa.table({
            "key": pa.array(keys, pa.string()),
            "chunk_len": pa.array(np.array(lens, np.int64)),
            "doc_id": pa.array(np.array(docs, np.int64)),
        })
        # in-batch combine: one row per (key, doc) with its occurrence count
        g = part.group_by(["key", "chunk_len", "doc_id"]).aggregate([([], "count_all")])
        return pa.table({"key": g.column("key"),
                         "chunk_len": g.column("chunk_len"),
                         "doc_id": g.column("doc_id"),
                         "occ": pc.cast(g.column("count_all"), pa.int64())})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby("key", sort=False).agg(
            chunk_len=("chunk_len", "min"),
            n_docs=("doc_id", "nunique"),
            n_occ=("occ", "sum"),
        ).reset_index()
        agg = agg[agg["n_docs"] >= 2]
        return pd.DataFrame({
            "chunk_md5": agg["key"],
            "chunk_len": agg["chunk_len"].astype(np.int64),
            "n_docs": agg["n_docs"].astype(np.int64),
            "n_occ": agg["n_occ"].astype(np.int64),
        })

    return exchange(_docs(sf_dir).map_batches(chunk_batch, batch_format="pyarrow"),
                    ["key"], finish)


def cdc_chunks_sql(d: int = CDC_D) -> str:
    return f"""WITH pos AS (
  SELECT doc_id, text, i
  FROM documents, UNNEST(generate_series(4, length(text))) t(i)
  WHERE (ascii(substr(text, i-3, 1)) * 16777216
       + ascii(substr(text, i-2, 1)) * 65536
       + ascii(substr(text, i-1, 1)) * 256
       + ascii(substr(text, i, 1))) % {d} = 0
),
bounds AS (
  SELECT doc_id, text, i FROM pos
  UNION
  SELECT doc_id, text, length(text) FROM documents
),
chunks AS (
  SELECT doc_id,
         substr(text,
                coalesce(lag(i) OVER (PARTITION BY doc_id ORDER BY i), 0) + 1,
                i - coalesce(lag(i) OVER (PARTITION BY doc_id ORDER BY i), 0)
         ) AS chunk
  FROM bounds
)
SELECT md5(chunk) AS chunk_md5,
       CAST(min(length(chunk)) AS BIGINT) AS chunk_len,
       CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
       CAST(count(*) AS BIGINT) AS n_occ
FROM chunks
GROUP BY md5(chunk)
HAVING count(DISTINCT doc_id) >= 2"""
