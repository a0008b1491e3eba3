"""Property tests (hypothesis, derandomized) — the reference's own test
style for index structures is seeded-randomized roundtrips
(/root/reference/tests/patricia.c:26-115); these extend that to the glob
miner and the dedup hash primitives."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nativeextractor_ray.miners.base import run_miners
from nativeextractor_ray.miners.glob import GlobMiner
from nativeextractor_ray.state.patricia import PatriciaTrie

SETTINGS = dict(max_examples=60, derandomize=True, deadline=None)

words = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
    min_size=1, max_size=12,
)
tokens = st.text(alphabet=st.sampled_from("abcdxyz"), min_size=1, max_size=8)


@settings(**SETTINGS)
@given(st.sets(words, min_size=1, max_size=50))
def test_trie_member_roundtrip(ws):
    trie = PatriciaTrie(ws)
    for w in ws:
        b = w.encode()
        assert trie.search(b) == len(b), w
        assert w in trie


@settings(**SETTINGS)
@given(st.sets(words, min_size=1, max_size=30), words)
def test_trie_search_is_common_prefix_bound(ws, probe):
    trie = PatriciaTrie(ws)
    got = trie.search(probe.encode())
    pb = probe.encode()
    best = max(
        (len(_common_prefix(pb, w.encode())) for w in ws), default=0
    )
    # matched prefix can never exceed the longest common prefix with any
    # member, and always reaches it when that prefix is a full member
    assert got <= max(best, 0) or got == len(pb)
    full = max((len(w.encode()) for w in ws if pb.startswith(w.encode())), default=0)
    assert got >= full


def _common_prefix(a: bytes, b: bytes) -> bytes:
    i = 0
    while i < min(len(a), len(b)) and a[i] == b[i]:
        i += 1
    return a[:i]


@settings(**SETTINGS)
@given(st.lists(tokens, min_size=1, max_size=20), tokens)
def test_glob_literal_counts_whole_tokens(toks, target):
    """A literal glob matches exactly the case-insensitive whole-token
    occurrences (glob semantics C1: token-aligned, case-insensitive)."""
    text = " ".join(toks)
    expected = sum(1 for t in toks if t.lower() == target.lower())
    found = run_miners(text, [GlobMiner(target)])
    assert len(found) == expected


@settings(**SETTINGS)
@given(st.lists(tokens, min_size=1, max_size=30))
def test_simhash_is_order_invariant(toks):
    from nativeextractor_ray.functions.hashing import h64_many, simhash64

    uniq, cnt = np.unique(np.array(toks, dtype=object), return_counts=True)
    a = simhash64(h64_many(list(uniq)), cnt)
    rev_uniq = uniq[::-1].copy()
    rev_cnt = cnt[::-1].copy()
    b = simhash64(h64_many(list(rev_uniq)), rev_cnt)
    assert a == b


@settings(**SETTINGS)
@given(st.sets(tokens, min_size=4, max_size=60), st.sets(tokens, min_size=4, max_size=60))
def test_minhash_estimate_bounded_error(a, b):
    from nativeextractor_ray.functions.hashing import (
        h64_many, minhash_perms, minhash_signature,
    )

    perms = minhash_perms()
    true_j = len(a & b) / len(a | b)
    sa = minhash_signature(h64_many(sorted(a)), perms)
    sb = minhash_signature(h64_many(sorted(b)), perms)
    est = float((sa == sb).mean())
    # 64 permutations → stderr ≤ 0.0625; 0.35 is a >5σ bound (derandomized
    # examples make this deterministic in practice)
    assert abs(est - true_j) <= 0.35


@settings(**SETTINGS)
@given(st.text(alphabet=st.sampled_from("abcdef "), min_size=8, max_size=200))
def test_winnow_subset_and_deterministic(text):
    from nativeextractor_ray.functions.hashing import rolling_hashes, winnow

    h = rolling_hashes(text, 4)
    fp = winnow(h, 8)
    assert set(fp.tolist()) <= set(h.tolist())
    assert np.array_equal(fp, winnow(rolling_hashes(text, 4), 8))


# scan-rewrite alphabet: everything the two rewritten regexes branch on —
# digits and date punctuation, dictionary first chars, other letters, ASCII
# and Unicode whitespace, and a non-ASCII letter
_scan_chars = "0123456789.-einuxyzabq \n\t\u00a0é"
# date-shaped pieces, so the rarer long matches are drawn too
_date_pieces = ["2024", "202", "20", "-03", "-1", "1.2.", "12.", ".2024"]
scan_text = st.one_of(
    st.text(alphabet=st.sampled_from(_scan_chars), max_size=60),
    st.lists(st.sampled_from(list(_scan_chars) + _date_pieces), max_size=20).map("".join),
)


def _matches(pattern: str, text: str) -> list[tuple[int, str]]:
    import re

    return [(m.start(), m.group()) for m in re.finditer(pattern, text)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(scan_text)
def test_dict_candidate_rewrite_same_matches(text):
    from nativeextractor_ray.sources.transcripts import DICT_NAMES
    from nativeextractor_ray.miners.ner import dict_candidate_pattern

    firsts = "".join(sorted({w[0] for w in DICT_NAMES}))
    assert _matches(dict_candidate_pattern(firsts), text) == _matches(
        rf"(?<!\S)[{firsts}]\S*", text)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(scan_text)
def test_date_scan_pattern_same_matches(text):
    from nativeextractor_ray.miners.builtin import DateMiner

    assert _matches(DateMiner.scan_pattern, text) == _matches(DateMiner.pattern, text)
