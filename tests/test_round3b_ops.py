"""Planted-fixture tests for the late round-3 operators
(quality_classifier, dedup_incremental, bpe_train, cdc_chunks) —
semantics beyond the DuckDB oracle parity gate."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _df(res) -> pd.DataFrame:
    import ray

    if isinstance(res, pa.Table):
        return res.to_pandas()
    parts = [ray.get(r) for r in res.to_arrow_refs()]
    parts = [p for p in parts if p.num_rows] or parts[:1]
    return pa.concat_tables(parts, promote_options="default").to_pandas()


def _write_docs(tmp_path, ids, texts):
    import pyarrow.parquet as pq

    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts),
    }), tmp_path / "documents.parquet")
    return str(tmp_path)


# ------------------------------------------------------ quality_classifier


def test_quality_classifier_edges(ray_session, tmp_path):
    """Zero-token doc scores exactly 0.0/keep 0; a stopword-rich diverse
    doc outranks a digit-heavy repetitive one."""
    from nativeextractor_ray.pipelines.classify import quality_classifier

    sf = _write_docs(tmp_path, [1, 2, 3], [
        "   ",                                     # zero tokens after split
        "the quick brown fox is one of a kind and it runs to the hills",
        "9999 9999 9999 9999 9999 9999 9999 9999",
    ])
    got = _df(quality_classifier(sf)).set_index("doc_id")
    assert got.loc[1, "n_tokens"] == 0
    assert got.loc[1, "score"] == 0.0 and got.loc[1, "keep"] == 0
    assert got.loc[2, "score"] > got.loc[3, "score"]
    assert got.loc[2, "keep"] == 1


# ------------------------------------------------------- dedup_incremental


def test_dedup_incremental_planted(ray_session, tmp_path):
    """New docs (id % 4 == 0) flag exactly the texts present in the
    existing corpus, with the existing occurrence count."""
    from nativeextractor_ray.pipelines.dedup import dedup_incremental

    sf = _write_docs(
        tmp_path,
        [0, 4, 8, 1, 2, 3, 5],
        ["dup text one", "fresh text", "dup text two",
         "dup text one", "dup text two", "dup text two", "other"],
    )
    got = _df(dedup_incremental(sf)).set_index("doc_id")
    assert len(got) == 3
    assert got.loc[0, "dup"] == 1 and got.loc[0, "n_existing"] == 1
    assert got.loc[4, "dup"] == 0 and got.loc[4, "n_existing"] == 0
    assert got.loc[8, "dup"] == 1 and got.loc[8, "n_existing"] == 2


def test_dedup_incremental_paths_identical(ray_session, tmp_path, monkeypatch):
    """Broadcast and distributed semijoin paths are bit-identical."""
    from nativeextractor_ray.pipelines import common, dedup

    rng = np.random.default_rng(7)
    words = np.array(["aa", "bb", "cc"])
    texts = [" ".join(rng.choice(words, 3)) for _ in range(80)]
    sf = _write_docs(tmp_path, list(range(80)), texts)

    a = _df(dedup.dedup_incremental(sf)).sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    b = _df(dedup.dedup_incremental(sf)).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)
    assert a["dup"].sum() > 0  # random 5-word texts over 5 words collide


# --------------------------------------------------------------- bpe_train


def test_bpe_merge_loop_hand_checked(ray_session):
    """Classic worked example: {'low'×5, 'lower'×2} learns (l,o) then
    (lo,w) first — counts and tie-breaks hand-verified."""
    from nativeextractor_ray.pipelines.bpe import _merge_loop

    merges = _merge_loop([("low", 5), ("lower", 2)], k=3)
    assert merges[0] == (0, "l", "o", "lo", 7)
    assert merges[1] == (1, "lo", "w", "low", 7)
    # after 'low': low(5) done; lower -> [low,e,r](2): pairs (low,e)=2,(e,r)=2
    # tie at 2 -> lexicographic: ('e','r') < ('low','e')
    assert merges[2] == (2, "e", "r", "er", 2)


def test_bpe_overlapping_pairs_count_per_occurrence(ray_session):
    from nativeextractor_ray.pipelines.bpe import _merge_loop

    # 'aaa'×3: pair (a,a) occurs twice per word = 6; greedy left-to-right
    # merge gives [aa, a]
    merges = _merge_loop([("aaa", 3)], k=1)
    assert merges[0] == (0, "a", "a", "aa", 6)


def test_bpe_train_distributed_matches_reference(ray_session, tmp_path):
    """The distributed histogram + merge loop equals the independent
    scalar reference on a corpus with a skewed vocabulary."""
    from nativeextractor_ray.pipelines import bpe

    rng = np.random.default_rng(3)
    vocab = ["stream", "streaming", "streamer", "batch", "batching", "scan"]
    p = np.array([8, 4, 2, 4, 2, 1], dtype=float); p /= p.sum()
    texts = [" ".join(rng.choice(vocab, 12, p=p)) for _ in range(50)]
    sf = _write_docs(tmp_path, list(range(50)), texts)

    got = bpe.bpe_train(sf, k=10).to_pandas()
    want = pd.DataFrame(
        bpe._bpe_reference(sf, k=10, max_words=bpe.BPE_MAX_WORDS),
        columns=["rank", "left", "right", "merged", "pair_count"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) > 3


# -------------------------------------------------------------- cdc_chunks


def test_cdc_offset_invariance(ray_session, tmp_path):
    """The CDC property fixed shingles lack: a shared passage chunks
    identically even at different offsets, so its chunks are detected as
    cross-doc dups despite a prefix insertion."""
    from nativeextractor_ray.pipelines.decontam import cdc_chunks

    rng = np.random.default_rng(11)
    alpha = np.array(list("abcdefghijklmnopqrstuvwxyz "))
    passage = "".join(rng.choice(alpha, 400))
    sf = _write_docs(tmp_path, [1, 2, 3], [
        passage,
        "XY" + passage,                       # shifted by an insertion
        "".join(rng.choice(alpha, 300)),      # unrelated
    ])
    got = _df(cdc_chunks(sf))
    dup = got[got["n_docs"] >= 2]
    # interior chunks of the passage are offset-independent; only the
    # first chunk (prefix-contaminated) may differ
    assert len(dup) >= 3
    assert (dup["n_docs"] == 2).all()


def test_cdc_chunks_cover_document(ray_session):
    """Boundaries partition the document: chunks concatenate back to the
    original text, and every doc ends on a boundary."""
    from nativeextractor_ray.pipelines.decontam import CDC_D, _cdc_boundaries

    rng = np.random.default_rng(5)
    for n in (0, 1, 3, 4, 50, 313):
        txt = "".join(chr(c) for c in rng.integers(32, 127, n))
        cps = np.frombuffer(txt.encode("utf-32-le"), dtype="<u4")
        b = _cdc_boundaries(cps, CDC_D)
        assert b[-1] == n
        assert (np.diff(b) > 0).all()
        prev, parts = 0, []
        for e in b:
            parts.append(txt[prev:e]); prev = e
        assert "".join(parts) == txt
