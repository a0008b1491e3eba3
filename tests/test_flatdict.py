"""FlatDictionary (the large-gazetteer artifact) vs PatriciaTrie parity.

The flat sorted-array layout must reproduce the Patty search contract
exactly (max-lcp, prefix-ratio acceptance) — see state/flatdict.py and
/root/reference/src/patricia.c:250-300 (search), :583-612 (mmap load the
artifact is the Ray analogue of).
"""

import numpy as np
import pytest
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from nativeextractor_ray.miners.ner import DictionaryMiner
from nativeextractor_ray.state.flatdict import FlatDictionary
from nativeextractor_ray.state.patricia import PatriciaTrie

SETTINGS = dict(max_examples=80, derandomize=True, deadline=None)

words = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
    min_size=1, max_size=10,
)


@settings(**SETTINGS)
@given(st.sets(words, min_size=1, max_size=40), st.lists(words, max_size=20))
def test_search_parity(ws, probes):
    trie = PatriciaTrie(ws)
    flat = FlatDictionary(ws)
    for p in list(ws) + probes + [w + "x" for w in list(ws)[:5]]:
        assert flat.search(p) == trie.search(p), p
        assert (p in flat) == (p in trie), p


@settings(**SETTINGS)
@given(st.sets(words, min_size=1, max_size=40))
def test_items_and_empty(ws):
    flat = FlatDictionary(ws)
    trie = PatriciaTrie(ws)
    assert [w for w, _ in flat.items()] == [w for w, _ in trie.items()]
    assert flat.search("") == trie.search("")


def test_miner_equivalence():
    names = ["alice", "bob", "karel novak", "ústav"]
    text = "met alice and alicexx then bob at ústav today"
    m_trie = DictionaryMiner(PatriciaTrie(names))
    m_flat = DictionaryMiner(FlatDictionary(names))
    assert m_trie.find(text) == m_flat.find(text)
    # prefix-ratio acceptance parity on the classic cases
    for tok in ["alice", "alic", "alicexx", "bob", "bo", "xx", "ústav"]:
        assert m_trie.accepts(tok) == m_flat.accepts(tok), tok


def _actor_scan(sf_dir, specs):
    from nativeextractor_ray.sources.transcripts import transcripts_dataset
    from nativeextractor_ray.stages.miner_pool import MinerPool

    return transcripts_dataset(sf_dir).map_batches(
        MinerPool, fn_constructor_args=(specs,), batch_format="pyarrow",
        batch_size=2048, concurrency=2)


def _task_scan(sf_dir, specs):
    from nativeextractor_ray.pipelines.extract import mentions_dataset

    return mentions_dataset(sf_dir, specs=specs)


@pytest.mark.parametrize("scan", [_actor_scan, _task_scan], ids=["actor", "task"])
def test_large_gazetteer_actor_path(ray_session, sf_dir, scan):
    """100k-word artifact: built once, ray.put once, resolved per actor
    (``actor``) or once per worker process by ``mentions_dataset``'s
    pickled ``MinerPool`` (``task``) — the Ray analogue of the
    reference's PATTY mmap (VERDICT r1 item 6).  Output must equal the
    small-dict pipeline extended with the same words."""
    import ray

    from nativeextractor_ray.sources.transcripts import DICT_NAMES

    rng = np.random.default_rng(5)
    big = {f"gz{int(x):07d}" for x in rng.integers(0, 10**7, size=100_000)}
    gaz = sorted(set(DICT_NAMES) | big)
    ref = ray.put(FlatDictionary(gaz))

    out = scan(sf_dir, [("ner", (ref,), {"label": "Dict"})])
    rows = [(r["conv_id"], r["turn_idx"], r["surface"]) for r in out.take_all()]

    small = scan(sf_dir, [("ner", (tuple(DICT_NAMES),), {"label": "Dict"})])
    srows = [(r["conv_id"], r["turn_idx"], r["surface"]) for r in small.take_all()]
    # none of the synthetic gz words occur in the corpus, so outputs match
    assert sorted(rows) == sorted(srows)
    assert len(rows) > 0
