"""Exact set-similarity self-join with prefix filtering over ``documents``
— the all-pairs Jaccard join of Vernica/Carey/Li (SIGMOD'10) / PPJoin
(Xiao et al., WWW'08), re-expressed Ray-Data-first.

This is the exact-set counterpart of the approximate ``dedup_minhash``
family: every pair of documents whose distinct word-BIGRAM sets have
Jaccard ≥ τ is reported — the operator a curation pipeline uses when the
dup decision must be auditable (legal takedowns, eval decontamination)
rather than statistical.  Exactness caveat: bigram identities are 63-bit
multiply-xor mixes of per-word md5 hashes, so exactness is probabilistic
(a gram-id collision merges two distinct bigrams with probability
~n_grams²/2⁶³ ≈ 10⁻¹⁰ even at a 10⁹-gram vocabulary), not structural;
audits that need structural exactness must key grams by the string pair.

Scale shape (the two-stage PPJoin / V-SMART join-back; Vernica §4.2)
-----------
1. **Gram sets** — one streaming ``map_batches`` derives each doc's sorted
   distinct bigram-hash set (a list column).  A doc never spans batches,
   so per-doc sets are exact with zero shuffle.
2. **Global rarity order** — gram document-frequencies come from per-batch
   partials + one vocabulary-sized ``groupby(gram).sum``.  The df table is
   collected and broadcast (``ray.put`` once) ONLY under
   ``common.BROADCAST_BOUND``; above it the operator falls back to raw-hash
   order, which needs NO global state at all.  Correctness is identical on
   both paths (any fixed total order of the token universe satisfies the
   prefix-filter theorem — df order is purely a bucket-size optimization),
   asserted bit-identical in ``tests/test_round4e_ops.py``.
3. **Prefix fan-out** — a doc with set size ``s`` emits only its
   ``p = s - ceil(τ·s) + 1`` RAREST grams (the prefix-filter theorem: two
   sets with J ≥ τ must share a token inside these prefixes), each row
   carrying ONLY ``(tok, doc_id, s)`` — 3 ints, so the exchange is
   O((1-τ)·s) bytes per doc, LINEAR in doc length (the round-4 shape
   shipped the full rank array once per prefix token: O((1-τ)·s²), a
   scale-killer on long documents — ``tests/test_round4e_ops.py``
   asserts the linear growth).  The exchange key is the gram rank —
   rank 0 is the RAREST gram, so the hot-key problem of stopword buckets
   is structurally removed.
4. **In-block candidates** — ``common.exchange`` on ``tok`` puts every
   row of one prefix gram in one block (a block holds many grams); docs
   sharing a gram in the block are candidate pairs if they pass the
   length filter (``num·(sa+sb) ≤ (num+den)·min(sa,sb)``).  A pair that
   shares several prefix grams can surface in several blocks.  Under
   ``common.BROADCAST_BOUND`` the gram sets are broadcast and the block
   verifies its pairs itself, keeping a pair only in the block that owns
   its smallest common prefix gram ``r0`` (``r0`` is one of the block's
   own ``tok`` values; each gram is in one block), so every pair is
   emitted once with no further exchange.  Above the bound the block
   emits bare ``(doc_a, doc_b)`` id pairs, duplicates allowed — they
   are cheap and deduped at the next hop.
5. **Join-back verify** — two tagged-union exchanges keyed on doc_id
   (the relational.py merge idiom): the first lands every candidate
   pair with doc_a's set (global pair-dedup via one ``np.unique``) and
   attaches ``grams_a``; the second lands it with doc_b's set and
   verifies with a block-local bitset popcount-AND.  The gram sets ship
   once per exchange (O(s)/doc); only VERIFIED-candidate payloads carry
   an array (O(C·s) where C is the post-filter candidate count — small
   after length+prefix filtering; a dup-saturated corpus should use
   ``dedup_minhash`` instead).

Everything is integer end-to-end: the τ = num/den predicate is
``(den+num)·inter ≥ num·(sa+sb)`` and the reported similarity is the exact
half-up micro ratio ``(2·inter·10⁶ + union) // (2·union)`` — no float on
either engine, so the quadratic DuckDB oracle matches bit-for-bit.

Reference anchor: the reference scans one stream with compiled miners and
never joins documents (`/root/reference/src/extractor.c`); this operator is
part of the prompt-mandated training-data dedup family layered on top.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.pipelines import common
from nativeextractor_ray.pipelines.common import exchange, fits, measured

#: τ = TAU_NUM / TAU_DEN (exact rational, never a float)
TAU_NUM = 1
TAU_DEN = 2

#: word n-gram order for the set universe.  Unigrams are degenerate on the
#: synthetic corpus (31-word vocabulary → dense sets); bigrams give a
#: 900+-gram universe with max df ≪ corpus.  The existing approximate
#: family (dedup_minhash / dedup_ngram_jaccard) uses 3-grams, so the two
#: operators stay distinguishable in the registry.
GRAM_N = 2

_MASK = 0x7FFFFFFFFFFFFFFF


def _doc_gram_sets(sf_dir: str):
    """Dataset of ``(doc_id, grams: list<int64> sorted distinct, s)`` —
    one exact streaming pass, no shuffle."""
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def per_batch(t: pa.Table) -> pa.Table:
        from nativeextractor_ray.functions.hashing import GOLDEN, h64_many

        toks = pc.split_pattern(t.column("text"), " ")
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        parent = parent[keep.to_numpy(zero_copy_only=False)]
        # adjacent-word bigrams within a doc (post empty-filter adjacency,
        # matching the SQL list_filter-then-slide).  Hash discipline:
        # md5 runs once per DISTINCT WORD (Zipf: vocab ≪ tokens); bigram
        # ids mix the two word hashes with the golden multiply-xor chain
        # — the gram id never leaves the operator, so no SQL replay is
        # needed (the oracle joins on the strings themselves)
        if len(parent) >= GRAM_N:
            wdict = pc.dictionary_encode(flat)
            codes = wdict.indices.to_numpy(zero_copy_only=False)
            wh = h64_many(wdict.dictionary.to_pylist()).astype(np.uint64)
            th = wh[codes]
            same = parent[GRAM_N - 1:] == parent[:-(GRAM_N - 1)]
            mix = (th[:-(GRAM_N - 1)] * GOLDEN) ^ th[GRAM_N - 1:]
            mix = (mix * GOLDEN) >> np.uint64(1)  # clears the sign bit
            gdoc = parent[:-(GRAM_N - 1)][same]
            gh = mix[same].astype(np.int64)
        else:
            gdoc = np.empty(0, np.int64)
            gh = np.empty(0, np.int64)
        doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        # distinct (doc, gram) + per-doc sorted gram arrays, vectorized:
        # lexsort by (doc, gram), mask dup runs, then split on doc bounds
        order = np.lexsort((gh, gdoc))
        gdoc, gh = gdoc[order], gh[order]
        if len(gdoc):
            first = np.empty(len(gdoc), bool)
            first[0] = True
            first[1:] = (gdoc[1:] != gdoc[:-1]) | (gh[1:] != gh[:-1])
            gdoc, gh = gdoc[first], gh[first]
        # docs with < GRAM_N words simply have empty sets → excluded
        uniq, starts, counts = np.unique(
            gdoc, return_index=True, return_counts=True)
        offsets = np.zeros(len(uniq) + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(gh))
        return pa.table({
            "doc_id": pa.array(doc_ids[uniq]),
            "grams": lists,
            "s": pa.array(counts.astype(np.int64))})

    return ds.map_batches(per_batch, batch_format="pyarrow")


def _df_rank(sets_ds):
    """Vocabulary df table → (sorted gram-hash array, rank array) or
    ``None`` when the fallback (hash order) should run."""
    import ray
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(t.column("grams"))
        g = pa.table({"gram": flat}).group_by("gram").aggregate(
            [("gram", "count")])
        return pa.table({"gram": g.column("gram"),
                         "df": pc.cast(g.column("gram_count"), pa.int64())})

    df_tbl, nbytes = measured(
        sets_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("gram").aggregate(Sum("df", alias_name="df")))
    if not fits(nbytes, common.BROADCAST_BOUND):
        return None
    from nativeextractor_ray.functions.blocks import concat_blocks

    t = concat_blocks(df_tbl, empty=pa.table(
        {"gram": pa.array([], pa.int64()),
         "df": pa.array([], pa.int64())}))
    gram = t.column("gram").to_numpy()
    df = t.column("df").to_numpy()
    order = np.argsort(gram, kind="stable")
    gram, df = gram[order], df[order]
    # rank by (df asc, gram asc): rarest gram = rank 0
    rank_order = np.lexsort((gram, df))
    rank = np.empty(len(gram), np.int64)
    rank[rank_order] = np.arange(len(gram), dtype=np.int64)
    return gram, rank


_POP = np.array([bin(x).count("1") for x in range(256)], dtype=np.uint8)


def _popcount_rows(a: np.ndarray) -> np.ndarray:
    return _POP[a.view(np.uint8)].reshape(len(a), -1).sum(
        axis=1).astype(np.int64)


def emit_prefix_rows(t: pa.Table, rank_map, num: int, den: int) -> pa.Table:
    """Prefix exchange payload: ``(tok, doc_id, s)`` — 3 ints per
    prefix token, O((1-τ)·s) bytes per doc (NO per-row gram arrays; the
    round-4 shape tiled the full array once per prefix token, O((1-τ)·s²)
    — the linear-growth pytest drives this function directly)."""
    grams = t.column("grams")
    offs = grams.combine_chunks().offsets.to_numpy(
        zero_copy_only=False).astype(np.int64)
    offs = offs - offs[0]  # rebase: sliced arrays keep raw offsets
    flat = pc.list_flatten(grams).to_numpy()
    if rank_map is not None:
        gsort, rnk = rank_map
        flat = rnk[np.searchsorted(gsort, flat)]
    doc = t.column("doc_id").to_numpy(zero_copy_only=False)
    s = (offs[1:] - offs[:-1])
    if not (s > 0).any():
        return pa.table({"tok": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "s": pa.array([], pa.int64())})
    # in-doc rank sort, vectorized across the whole batch: one lexsort
    # on (rank, doc-segment) orders every doc's grams rarest-first
    seg = np.repeat(np.arange(len(doc)), s)
    order = np.lexsort((flat, seg))
    flat = flat[order]
    # p = s - ceil(τ·s) + 1 per doc
    p = s - ((s * num + den - 1) // den) + 1
    p[s == 0] = 0
    pos_in_doc = np.arange(len(flat)) - np.repeat(offs[:-1], s)
    pref_mask = pos_in_doc < np.repeat(p, s)
    tok = flat[pref_mask]
    return pa.table({"tok": pa.array(tok),
                     "doc_id": pa.array(np.repeat(doc, p)),
                     "s": pa.array(np.repeat(s, p))})


def _sets_side(sets_ds, rank_map):
    """Driver-collected gram-set lookup for the broadcast verify path:
    ``(sorted doc ids, per-doc start offsets, per-doc sizes, flat grams)``
    with each doc's array mapped to the SAME id space and ascending order
    ``emit_prefix_rows`` uses (rank order under df order, hash order on
    the fallback) — so a doc's prefix is its first p elements."""
    from nativeextractor_ray.functions.blocks import arrow_blocks

    ids, szs, vals = [], [], []
    for t in arrow_blocks(sets_ds, stream=False):
        if t.num_rows == 0:
            continue
        grams = t.column("grams").combine_chunks()
        offs = grams.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64)
        offs = offs - offs[0]
        flat = pc.list_flatten(t.column("grams")).to_numpy()
        if rank_map is not None:
            gsort, rnk = rank_map
            flat = rnk[np.searchsorted(gsort, flat)]
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        s = offs[1:] - offs[:-1]
        seg = np.repeat(np.arange(len(doc)), s)
        order = np.lexsort((flat, seg))
        ids.append(doc)
        szs.append(s)
        vals.append(flat[order])
    if not ids:
        z = np.array([], np.int64)
        return z, z, z, z
    doc_all = np.concatenate(ids)
    size_all = np.concatenate(szs)
    flat_all = np.concatenate(vals)
    starts = np.zeros(len(doc_all), np.int64)
    np.cumsum(size_all[:-1], out=starts[1:])
    order = np.argsort(doc_all, kind="stable")
    return doc_all[order], starts[order], size_all[order], flat_all


_RESULT_EMPTY = pa.table({"doc_a": pa.array([], pa.int64()),
                          "doc_b": pa.array([], pa.int64()),
                          "inter": pa.array([], pa.int64()),
                          "un": pa.array([], pa.int64()),
                          "jacc_micro": pa.array([], pa.int64())})


def _token_pairs(tok: np.ndarray, doc: np.ndarray):
    """Candidate pairs of one prefix-token block: ``(uniq_docs, doc_code,
    pi, pj)`` with ``uniq_docs[doc_code] == doc`` and ``(pi, pj)`` the
    distinct ``pi < pj`` pairs of doc codes that share a token."""
    uniq_docs, doc_code = np.unique(doc, return_inverse=True)
    order = np.argsort(tok, kind="stable")
    tok_s, dc_s = tok[order], doc_code[order]
    bounds = np.flatnonzero(np.r_[True, tok_s[1:] != tok_s[:-1], True])
    pi, pj = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a >= 2:
            members = np.unique(dc_s[a:b])
            ii, jj = np.triu_indices(len(members), k=1)
            pi.append(members[ii])
            pj.append(members[jj])
    m = len(uniq_docs)
    packed = np.unique(np.concatenate(pi) * m + np.concatenate(pj))
    return uniq_docs, doc_code, packed // m, packed % m


def _broadcast_verifier(side_ref, num: int, den: int):
    """In-block candidate + verify kernel for the broadcast path.

    Candidate pairs come from shared prefix tokens in this exchange
    block (as on the join-back path); gram arrays come from the
    broadcast side, so the verify needs NO further exchange.  A pair may
    surface in every block that holds one of its shared prefix tokens,
    and a block holds many tokens.  The pair is emitted ONLY in the
    block that owns its smallest common prefix gram ``r0``: the block
    whose own ``tok`` values include ``r0``.  Every row of one token
    lands in one block, so exactly one block owns ``r0``, and both docs
    list ``r0`` in their prefixes, so that block sees the pair: a global
    dedup without a shuffle.
    """
    import ray

    def verify_bucket(t: pa.Table) -> pa.Table:
        keys, starts, sz, flat_all = ray.get(side_ref)
        tok = t.column("tok").to_numpy(zero_copy_only=False)
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        uniq_docs, _, pi, pj = _token_pairs(tok, doc)
        m = len(uniq_docs)
        gi = np.searchsorted(keys, uniq_docs)
        sizes = sz[gi]
        sa, sb = sizes[pi], sizes[pj]
        ok = num * (sa + sb) <= (num + den) * np.minimum(sa, sb)
        pi, pj = pi[ok], pj[ok]
        if not len(pi):
            return _RESULT_EMPTY
        # bitsets over the bucket-local vocab from the broadcast arrays
        lens = sizes
        st = starts[gi]
        tot = int(lens.sum())
        out_start = np.cumsum(lens) - lens
        take = (np.repeat(st, lens) + np.arange(tot)
                - np.repeat(out_start, lens))
        all_grams = flat_all[take]
        vocab = np.unique(all_grams)
        W = max(1, (len(vocab) + 63) // 64)
        full_bs = np.zeros((m, W), np.uint64)
        pref_bs = np.zeros((m, W), np.uint64)
        prefs = sizes - ((sizes * num + den - 1) // den) + 1
        row_of = np.repeat(np.arange(m), lens)
        pos = np.arange(tot) - np.repeat(out_start, lens)
        loc = np.searchsorted(vocab, all_grams)
        w_idx, b_idx = loc >> 6, loc & 63
        np.bitwise_or.at(full_bs, (row_of, w_idx),
                         np.uint64(1) << b_idx.astype(np.uint64))
        pm = pos < prefs[row_of]
        np.bitwise_or.at(pref_bs, (row_of[pm], w_idx[pm]),
                         np.uint64(1) << b_idx[pm].astype(np.uint64))
        sa, sb = sizes[pi], sizes[pj]
        inter = _popcount_rows(full_bs[pi] & full_bs[pj])
        ok = (den + num) * inter >= num * (sa + sb)
        pi, pj, sa, sb, inter = pi[ok], pj[ok], sa[ok], sb[ok], inter[ok]
        if not len(pi):
            return _RESULT_EMPTY
        # smallest common PREFIX gram r0 → the one block owning it
        pand = pref_bs[pi] & pref_bs[pj]
        nz = pand != 0
        first_w = np.argmax(nz, axis=1)
        any_common = nz.any(axis=1)
        words = pand[np.arange(len(pi)), first_w]
        low = (words & (~words + np.uint64(1)))
        bit = np.zeros(len(low), np.int64)
        lowv = low.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            big = lowv >= (np.uint64(1) << np.uint64(shift))
            bit[big] += shift
            lowv[big] >>= np.uint64(shift)
        r0_local = first_w.astype(np.int64) * 64 + bit
        r0 = vocab[np.minimum(r0_local, len(vocab) - 1)]
        keep = any_common & np.isin(r0, tok)
        pi, pj, sa, sb, inter = (pi[keep], pj[keep], sa[keep], sb[keep],
                                 inter[keep])
        if not len(pi):
            return _RESULT_EMPTY
        un = sa + sb - inter
        da, db = uniq_docs[pi], uniq_docs[pj]
        lo, hi = np.minimum(da, db), np.maximum(da, db)
        return pa.table({
            "doc_a": pa.array(lo.astype(np.int64)),
            "doc_b": pa.array(hi.astype(np.int64)),
            "inter": pa.array(inter.astype(np.int64)),
            "un": pa.array(un.astype(np.int64)),
            "jacc_micro": pa.array(
                (2 * inter * 1_000_000 + un) // (2 * un))})

    return verify_bucket


def _split_group(t: pa.Table):
    """(set rows, pair rows) of a join-back tagged-union group."""
    is_set = t.column("is_set").to_numpy(zero_copy_only=False)
    return t.filter(pa.array(is_set)), t.filter(pa.array(~is_set))


def _gram_lookup(set_tbl: pa.Table):
    """(sorted keys, flat grams, offsets, sorted→orig row map, sizes)
    for block-local docs.  ``keys``/``sizes`` are key-sorted;
    ``goffs``/``gflat`` stay in ORIGINAL row order — callers must go
    through ``order[ai]`` to slice a doc's grams."""
    keys = set_tbl.column("k").to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    sizes = set_tbl.column("s").to_numpy(zero_copy_only=False)[order]
    grams = set_tbl.column("grams").combine_chunks()
    goffs = grams.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    goffs = goffs - goffs[0]
    gflat = pc.list_flatten(set_tbl.column("grams")).to_numpy()
    return keys, gflat, goffs, order, sizes


def _verify_joined(t: pa.Table, num: int = TAU_NUM,
                   den: int = TAU_DEN) -> pa.Table:
    """Join-back verify (exchange 3: pairs land with doc_b's set):
    block-local bitset popcount-AND between the carried grams_a and
    the co-located grams_b — no per-pair Python."""
    set_t, pair_t = _split_group(t)
    if pair_t.num_rows == 0 or set_t.num_rows == 0:
        return _RESULT_EMPTY
    db = pair_t.column("k").to_numpy(zero_copy_only=False)
    da = pair_t.column("other").to_numpy(zero_copy_only=False)
    sa = pair_t.column("s").to_numpy(zero_copy_only=False)
    ga = pair_t.column("grams").combine_chunks()
    aoffs = ga.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    aoffs = aoffs - aoffs[0]
    aflat = pc.list_flatten(pair_t.column("grams")).to_numpy()
    # only doc_b rows of some pair get a bitset: a block holds many set
    # rows but may hold few candidate pairs
    set_t = set_t.filter(pc.is_in(set_t.column("k"),
                                  value_set=pa.array(np.unique(db))))
    keys, gflat, goffs, order, sizes = _gram_lookup(set_t)
    bi = np.searchsorted(keys, db)
    sb = sizes[bi]
    # dense vocab over the pairs' grams and their doc_b rows' grams
    vocab = np.unique(np.concatenate([aflat, gflat]))
    W = max(1, (len(vocab) + 63) // 64)
    n_pairs = len(da)
    a_bs = np.zeros((n_pairs, W), np.uint64)
    loc = np.searchsorted(vocab, aflat)
    row_of = np.repeat(np.arange(n_pairs), aoffs[1:] - aoffs[:-1])
    np.bitwise_or.at(a_bs, (row_of, loc >> 6),
                     np.uint64(1) << (loc & 63).astype(np.uint64))
    m = len(keys)
    # b_bs rows are in ORIGINAL set-row order (goffs is unsorted) —
    # index through order[bi] to pick doc_b's bitset
    b_bs = np.zeros((m, W), np.uint64)
    loc_b = np.searchsorted(vocab, gflat)
    row_b = np.repeat(np.arange(m), goffs[1:] - goffs[:-1])
    np.bitwise_or.at(b_bs, (row_b, loc_b >> 6),
                     np.uint64(1) << (loc_b & 63).astype(np.uint64))
    inter = _popcount_rows(a_bs & b_bs[order[bi]])
    ok = (den + num) * inter >= num * (sa + sb)
    da, db, sa, sb, inter = da[ok], db[ok], sa[ok], sb[ok], inter[ok]
    if not len(da):
        return _RESULT_EMPTY
    un = sa + sb - inter
    lo, hi = np.minimum(da, db), np.maximum(da, db)
    return pa.table({
        "doc_a": pa.array(lo.astype(np.int64)),
        "doc_b": pa.array(hi.astype(np.int64)),
        "inter": pa.array(inter.astype(np.int64)),
        "un": pa.array(un.astype(np.int64)),
        "jacc_micro": pa.array(
            (2 * inter * 1_000_000 + un) // (2 * un))})


_PAIR_EMPTY = pa.table({"k": pa.array([], pa.int64()),
                        "other": pa.array([], pa.int64()),
                        "s": pa.array([], pa.int64()),
                        "grams": pa.array([], pa.list_(pa.int64())),
                        "is_set": pa.array([], pa.bool_())})


def ssjoin_jaccard(sf_dir: str, use_df_order: bool = True):
    """All document pairs with distinct-bigram-set Jaccard ≥ τ:
    ``(doc_a, doc_b, inter, un, jacc_micro)``, ``doc_a < doc_b``."""
    import ray

    # executed once: the df pass, the prefix pass and BOTH join-back
    # exchanges scan it, and the gram-set derivation (tokenize + hash)
    # is the expensive leg
    sets_ds, nbytes = measured(_doc_gram_sets(sf_dir))
    rank_map = _df_rank(sets_ds) if use_df_order else None
    rank_ref = ray.put(rank_map)

    num, den = TAU_NUM, TAU_DEN

    def emit_prefix(t: pa.Table) -> pa.Table:
        return emit_prefix_rows(t, ray.get(rank_ref), num, den)

    prefixes = sets_ds.map_batches(emit_prefix, batch_format="pyarrow")
    # broadcast the whole gram-set table when it fits: the verify then
    # runs IN the prefix blocks (one AllToAll total) instead of the two
    # join-back exchanges (each pays the ~2.5 s AllToAll floor)
    if fits(nbytes, common.BROADCAST_BOUND):
        side_ref = ray.put(_sets_side(sets_ds, rank_map))
        return exchange(prefixes, ["tok"],
                        _broadcast_verifier(side_ref, num, den),
                        batch_format="pyarrow")

    # ---- exchange 1: prefix tokens → candidate id pairs ---------------
    def candidates(t: pa.Table) -> pa.Table:
        """Per prefix-token block: docs sharing a token become candidate
        pairs iff they pass the length filter.  Emits bare (doc_a,
        doc_b) id pairs keyed by doc_a, locally deduped; duplicates
        across blocks are deduped with doc_a's set."""
        s = t.column("s").to_numpy(zero_copy_only=False)
        uniq_docs, doc_code, pi, pj = _token_pairs(
            t.column("tok").to_numpy(zero_copy_only=False),
            t.column("doc_id").to_numpy(zero_copy_only=False))
        sizes = np.zeros(len(uniq_docs), np.int64)
        sizes[doc_code] = s
        sa, sb = sizes[pi], sizes[pj]
        ok = num * (sa + sb) <= (num + den) * np.minimum(sa, sb)
        da = uniq_docs[pi[ok]]
        db = uniq_docs[pj[ok]]
        n = len(da)
        loffs = pa.array(np.zeros(n + 1, np.int64), pa.int32())
        return pa.table({"k": pa.array(da),
                         "other": pa.array(db),
                         "s": pa.array(np.zeros(n, np.int64)),
                         "grams": pa.ListArray.from_arrays(
                             loffs, pa.array([], pa.int64())),
                         "is_set": pa.array(np.zeros(n, bool))})

    def tag_sets(t: pa.Table) -> pa.Table:
        """Sets side of the tagged union, keyed by doc_id — identical
        non-null columns on both sides (the semi_anti_join lesson)."""
        return pa.table({
            "k": pc.cast(t.column("doc_id"), pa.int64()),
            "other": pa.array(np.zeros(t.num_rows, np.int64)),
            "s": pc.cast(t.column("s"), pa.int64()),
            "grams": t.column("grams"),
            "is_set": pa.array(np.ones(t.num_rows, bool))})

    # ---- exchange 2: pair lands with doc_a's set, attach grams_a ------
    def attach_a(t: pa.Table) -> pa.Table:
        set_t, pair_t = _split_group(t)
        if pair_t.num_rows == 0 or set_t.num_rows == 0:
            return _PAIR_EMPTY
        da = pair_t.column("k").to_numpy(zero_copy_only=False)
        db = pair_t.column("other").to_numpy(zero_copy_only=False)
        # GLOBAL pair dedup: every copy of (a, b) — one per block that
        # holds a shared prefix gram — lands here, keyed by doc_a
        packed = np.unique(np.stack([da, db], axis=1), axis=0)
        da, db = packed[:, 0], packed[:, 1]
        keys, gflat, goffs, order, sizes = _gram_lookup(set_t)
        ai = np.searchsorted(keys, da)
        sa = sizes[ai]
        # grams_a tiled once per surviving pair (the O(C·s) payload);
        # goffs is in ORIGINAL row order → go through order[ai]
        oi = order[ai]
        lens = goffs[oi + 1] - goffs[oi]
        starts = goffs[oi]
        idx = (np.repeat(starts, lens)
               + np.arange(int(lens.sum()))
               - np.repeat(np.cumsum(lens) - lens, lens)) \
            if len(lens) else np.empty(0, np.int64)
        values = gflat[idx]
        loffs = np.zeros(len(lens) + 1, np.int64)
        np.cumsum(lens, out=loffs[1:])
        return pa.table({
            "k": pa.array(db),
            "other": pa.array(da),
            "s": pa.array(sa.astype(np.int64)),
            "grams": pa.ListArray.from_arrays(
                pa.array(loffs, pa.int32()), pa.array(values)),
            "is_set": pa.array(np.zeros(len(da), bool))})

    cand = exchange(prefixes, ["tok"], candidates, batch_format="pyarrow")
    sets_tagged = sets_ds.map_batches(tag_sets, batch_format="pyarrow")
    with_a = exchange(sets_tagged.union(cand), ["k"], attach_a,
                      batch_format="pyarrow")
    # ---- exchange 3: pair lands with doc_b's set, verify --------------
    return exchange(sets_tagged.union(with_a), ["k"], _verify_joined,
                    batch_format="pyarrow")


def ssjoin_jaccard_sql() -> str:
    """Quadratic exact oracle: every shared-gram pair, exact integer
    Jaccard predicate — feasible at oracle scale, never run at corpus
    scale."""
    return f"""WITH w AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS ws
  FROM documents),
g AS (
  SELECT doc_id,
         unnest(list_distinct([ws[i] || ' ' || ws[i+1]
                               for i in range(1, len(ws))])) AS t
  FROM w),
sizes AS (SELECT doc_id, count(*) AS s FROM g GROUP BY doc_id),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
  FROM g a JOIN g b ON a.t = b.t AND a.doc_id < b.doc_id
  GROUP BY 1, 2),
j AS (
  SELECT doc_a, doc_b, i, sa.s + sb.s - i AS un
  FROM pairs
  JOIN sizes sa ON sa.doc_id = doc_a
  JOIN sizes sb ON sb.doc_id = doc_b
  WHERE ({TAU_DEN} + {TAU_NUM}) * i >= {TAU_NUM} * (sa.s + sb.s))
SELECT doc_a, doc_b, CAST(i AS BIGINT) AS inter, CAST(un AS BIGINT) AS un,
       CAST((2 * i * 1000000 + un) // (2 * un) AS BIGINT) AS jacc_micro
FROM j"""
