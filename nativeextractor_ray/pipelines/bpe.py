"""Distributed BPE merge-table training over ``documents`` — the
tokenizer-training stage of an LLM data pipeline (Sennrich et al. 2016,
"Neural Machine Translation of Rare Words with Subword Units"; the
algorithm HuggingFace ``tokenizers`` / SentencePiece-BPE run).

Algorithm
---------
1. WORD HISTOGRAM (the corpus-scale part): whitespace words count
   distributed — ``textstats.term_histogram``, the ``tokenize_ids``
   vocabulary: per-batch Arrow ``group_by`` partials, one ``exchange`` on
   term, a local top-``max_words`` per block (global top-W ⊆ union of
   the blocks' top-W, since a term's counts sit in one block), tiny
   driver merge.
   Real BPE trainers bound the histogram exactly like this (a frequency
   floor / pre-tokenized vocab cap): at 100 TB the histogram shuffle is
   the only data motion; the merge loop below is vocabulary-bounded.
2. MERGE LOOP (vocabulary-bounded, driver): ``k`` iterations of the
   classic algorithm — count adjacent symbol pairs weighted by word
   frequency (every occurrence counts, e.g. ``aaa`` has (a,a) twice),
   merge the (count desc, pair lexicographic asc) best pair greedily
   left-to-right, repeat.  Words start as plain character sequences (no
   end-of-word marker — documented choice, replayed by the oracle).

Output: one row per learned merge —
``(rank, left, right, merged, pair_count)``.

Oracle: the merge table is NOT SQL-expressible (iterative, data-dependent
fixpoint), so ``bpe_train_sql`` embeds the expected table as VALUES
literals computed at SQL-construction time by an INDEPENDENT scalar
reference (``Counter`` over ``str.split``, pure-Python pair walk) over
``$GRAFT_ORACLE_SF_DIR`` — the deterministic-replay pattern of the
IVF-centroid / mentions-spans oracles (similarity.py / oracles.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.pipelines.textstats import term_histogram

BPE_MERGES = 24
BPE_MAX_WORDS = 512


def _docs(sf_dir: str):
    from nativeextractor_ray.sources.tables import read_table

    return read_table(sf_dir, "documents", ["doc_id", "text"])


def _merge_loop(hist: list[tuple[str, int]], k: int) -> list[tuple]:
    """k BPE merges over a word histogram.  Returns
    [(rank, left, right, merged, pair_count), ...]."""
    words: list[tuple[list[str], int]] = [(list(w), c) for w, c in hist if w]
    merges = []
    for rank in range(k):
        pair_cnt: dict[tuple[str, str], int] = {}
        for syms, c in words:
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pair_cnt[p] = pair_cnt.get(p, 0) + c
        if not pair_cnt:
            break
        best = min(pair_cnt.items(), key=lambda kv: (-kv[1], kv[0]))
        (left, right), cnt = best
        if cnt < 2:
            break
        merged = left + right
        nxt = []
        for syms, c in words:
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            nxt.append((out, c))
        words = nxt
        merges.append((rank, left, right, merged, cnt))
    return merges


def _merges_table(merges: list[tuple]) -> pa.Table:
    return pa.table({
        "rank": pa.array([m[0] for m in merges], pa.int64()),
        "left": pa.array([m[1] for m in merges], pa.string()),
        "right": pa.array([m[2] for m in merges], pa.string()),
        "merged": pa.array([m[3] for m in merges], pa.string()),
        "pair_count": pa.array([m[4] for m in merges], pa.int64()),
    })


def bpe_train(sf_dir: str, k: int = BPE_MERGES, max_words: int = BPE_MAX_WORDS):
    hist = term_histogram(_docs(sf_dir), "text", max_words)
    return _merges_table(_merge_loop(hist, k))


# ------------------------------------------------------------------ oracle


def _bpe_reference(sf_dir: str, k: int, max_words: int) -> list[tuple]:
    """Independent scalar reference: plain dict counting over ``str.split``
    (no Arrow, no Dataset, no shared histogram code path)."""
    from collections import Counter

    from nativeextractor_ray.sources.tables import load_table

    cnt: Counter = Counter()
    for txt in load_table(sf_dir, "documents",
                          columns=["text"]).column("text").to_pylist():
        for w in txt.split(" "):
            if w:
                cnt[w] += 1
    hist = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:max_words]

    words = {i: (tuple(w), c) for i, (w, c) in enumerate(hist)}
    merges = []
    for rank in range(k):
        pc_: Counter = Counter()
        for syms, c in words.values():
            for a, b in zip(syms, syms[1:]):
                pc_[(a, b)] += c
        if not pc_:
            break
        (left, right), n = min(pc_.items(), key=lambda kv: (-kv[1], kv[0]))
        if n < 2:
            break
        merged = left + right
        for i, (syms, c) in words.items():
            out, j = [], 0
            while j < len(syms):
                if j + 1 < len(syms) and syms[j] == left and syms[j + 1] == right:
                    out.append(merged); j += 2
                else:
                    out.append(syms[j]); j += 1
            words[i] = (tuple(out), c)
        merges.append((rank, left, right, merged, n))
    return merges


def bpe_train_sql(k: int = BPE_MERGES, max_words: int = BPE_MAX_WORDS,
                  sf_dir: str | None = None) -> str:
    import os

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF_DIR",
                                      "/root/testdata/sf0.01")
    merges = _bpe_reference(sf_dir, k, max_words)

    def q(s: str) -> str:
        return "'" + s.replace("'", "''") + "'"

    if not merges:
        return """SELECT CAST(NULL AS BIGINT) AS rank, CAST(NULL AS VARCHAR) AS "left",
       CAST(NULL AS VARCHAR) AS "right", CAST(NULL AS VARCHAR) AS merged,
       CAST(NULL AS BIGINT) AS pair_count WHERE FALSE"""
    values = ",\n  ".join(
        f"({r}, {q(l)}, {q(rt)}, {q(m)}, {c})" for r, l, rt, m, c in merges
    )
    return f"""SELECT CAST(rank AS BIGINT) AS rank, "left", "right", merged,
       CAST(pair_count AS BIGINT) AS pair_count
FROM (VALUES
  {values}
) AS m(rank, "left", "right", merged, pair_count)"""


# ------------------------------------------------------------------ encode


def _apply_merges(word: str, ranks: dict) -> list[str]:
    """Classic BPE apply: repeatedly merge the LOWEST-rank adjacent pair
    (all its occurrences, left-to-right) until no learned pair remains —
    the inference-time counterpart of the training loop's greedy merge."""
    syms = list(word)
    while len(syms) > 1:
        best_rank, best_pair = None, None
        for a, b in zip(syms, syms[1:]):
            r = ranks.get((a, b))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (a, b)
        if best_pair is None:
            break
        left, right = best_pair
        out, i = [], 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


def _tok_checksum(tokens: list[str]) -> int:
    """Order-independent 31-bit checksum of a token multiset (md5-derived
    per token) — strong evidence the exact token sequence matched without
    shipping the sequence itself."""
    import hashlib

    return sum(
        int.from_bytes(hashlib.md5(t.encode()).digest()[:4], "big")
        for t in tokens
    ) % (1 << 31)


#: per-process encoded-word memo (task-mode compile-once economics, the
#: extract.py per-process cache shape): Zipfian corpora re-encode the same
#: head words constantly, so the cache turns the per-word merge loop into
#: a dict hit for ~all occurrences.  Capped: on an open-vocabulary web
#: corpus the long tail would otherwise grow the per-worker dict without
#: bound; once full, new tail words are encoded but not memoized (the
#: Zipf head — the words that matter — is cached within the first blocks).
_ENC_CACHE: dict = {}
_ENC_CACHE_CAP = 1 << 20


def bpe_encode(sf_dir: str, k: int = BPE_MERGES, max_words: int = BPE_MAX_WORDS):
    """Apply the learned BPE merge table to every document — the
    tokenizer-apply stage that follows :func:`bpe_train`: per doc the
    whitespace word sequence is BPE-segmented and summarized as
    ``(doc_id, n_words, n_bpe_tokens, tok_checksum)``.

    Scale shape: the merge table is vocabulary-bounded (k rows) and rides
    into every task as a broadcast constant; encoding is a pure streaming
    ``map_batches`` with a per-process word→tokens memo (``_ENC_CACHE``)
    so the per-word merge loop runs once per DISTINCT word per worker —
    no shuffle, no driver state, resumable by construction.

    Oracle: like :func:`bpe_train`, the expected per-doc summary comes
    from an independent scalar reference embedded as VALUES literals
    (iterative merge apply is not SQL-expressible)."""
    merges = _merge_loop(term_histogram(_docs(sf_dir), "text", max_words), k)
    ranks = {(m[1], m[2]): m[0] for m in merges}
    rank_items = tuple(sorted((a, b, r) for (a, b), r in ranks.items()))

    def encode_batch(t: pa.Table) -> pa.Table:
        cache = _ENC_CACHE.setdefault(rank_items, {})
        rk = {(a, b): r for a, b, r in rank_items}
        # vectorized word explode + factorize: the merge loop runs once
        # per DISTINCT word per batch (and the memo carries distinct
        # words across batches), never once per occurrence — on Zipfian
        # text that is the difference between O(tokens) and O(vocab)
        # Python work per batch
        from nativeextractor_ray.functions.vectors import explode_list

        d_idx, _, flat = explode_list(pc.split_pattern(t.column("text"), " "))
        words = np.asarray(flat)
        keep = words != ""
        d_idx, words = d_idx[keep], words[keep]
        codes, uniq = pd.factorize(words)
        lens = np.empty(len(uniq), np.int64)
        cks = np.empty(len(uniq), np.int64)
        for u, w in enumerate(uniq):
            hit = cache.get(w)
            if hit is None:
                tk = _apply_merges(w, rk)
                hit = (len(tk), _tok_checksum(tk))
                if len(cache) < _ENC_CACHE_CAP:
                    cache[w] = hit
            lens[u], cks[u] = hit
        n = len(t)
        n_words = np.bincount(d_idx, minlength=n).astype(np.int64)
        n_toks = np.zeros(n, np.int64)
        ck = np.zeros(n, np.int64)
        if len(d_idx):
            np.add.at(n_toks, d_idx, lens[codes])
            np.add.at(ck, d_idx, cks[codes])
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_words": pa.array(n_words),
            "n_bpe_tokens": pa.array(n_toks),
            "tok_checksum": pa.array(ck % (1 << 31)),
        })

    return _docs(sf_dir).map_batches(encode_batch, batch_format="pyarrow")


def _bpe_encode_reference(sf_dir: str, k: int, max_words: int) -> list[tuple]:
    """Independent scalar reference for the per-doc encode summary."""
    import hashlib

    from nativeextractor_ray.sources.tables import load_table

    merges = _bpe_reference(sf_dir, k, max_words)
    ranks = {(l, r): rank for rank, l, r, _m, _c in merges}

    def enc(word: str) -> list[str]:
        syms = list(word)
        while True:
            cand = [(ranks[(a, b)], i) for i, (a, b) in
                    enumerate(zip(syms, syms[1:])) if (a, b) in ranks]
            if not cand:
                return syms
            rbest = min(c[0] for c in cand)
            l, r = next(p for p, rr in ranks.items() if rr == rbest)
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and (syms[i], syms[i + 1]) == (l, r):
                    out.append(l + r); i += 2
                else:
                    out.append(syms[i]); i += 1
            syms = out

    rows = []
    t = load_table(sf_dir, "documents", columns=["doc_id", "text"])
    for did, txt in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()):
        words = [w for w in txt.split(" ") if w]
        toks: list[str] = []
        for w in words:
            toks.extend(enc(w))
        ck = sum(int.from_bytes(hashlib.md5(x.encode()).digest()[:4], "big")
                 for x in toks) % (1 << 31)
        rows.append((did, len(words), len(toks), ck))
    return rows


def bpe_encode_sql(k: int = BPE_MERGES, max_words: int = BPE_MAX_WORDS,
                   sf_dir: str | None = None) -> str:
    import os

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF_DIR",
                                      "/root/testdata/sf0.01")
    rows = _bpe_encode_reference(sf_dir, k, max_words)
    # no documents: one placeholder row, filtered out
    values = (",\n  ".join(f"({d}, {w}, {t}, {c})" for d, w, t, c in rows)
              or "(0, 0, 0, 0)")
    return f"""SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(n_words AS BIGINT) AS n_words,
       CAST(n_bpe_tokens AS BIGINT) AS n_bpe_tokens,
       CAST(tok_checksum AS BIGINT) AS tok_checksum
FROM (VALUES
  {values}
) AS m(doc_id, n_words, n_bpe_tokens, tok_checksum)
{"" if rows else "WHERE false"}"""
