"""Size-gate parity: every driver-pull / broadcast fast path in the dedup
and curation family has a fully-distributed twin that takes over above a
size bound.  These tests force the bounds to 0 so the distributed twins run
on the small test corpus and assert their output is BIT-IDENTICAL to the
fast path (VERDICT r2 items 1+2: no O(corpus) driver state may be the only
correct implementation).
"""

import numpy as np
import pytest


def _pair_rows(ds):
    return sorted(
        (r["doc_a"], r["doc_b"], r["jaccard"]) for r in ds.take_all()
    )


def _cluster_rows(ds):
    return sorted(
        (r["doc_id"], r["cluster_id"], r["keep"]) for r in ds.take_all()
    )


def test_minhash_distributed_pair_leg_bit_identical(sf_dir, ray_session,
                                                    monkeypatch):
    """DRIVER_BOUND=0 forces _pair_dedup shuffle + Bloom id filter;
    BROADCAST_BOUND=0 then forces the two-shuffle attach verify.  Output
    must equal the driver-dedup + broadcast fast path exactly."""
    from nativeextractor_ray.pipelines import common, dedup

    base = _pair_rows(dedup.dedup_minhash_pairs(sf_dir))
    assert base  # corpus must exercise the verify leg

    monkeypatch.setattr(common, "DRIVER_BOUND", 0)
    forced_pairs = _pair_rows(dedup.dedup_minhash_pairs(sf_dir))
    assert forced_pairs == base

    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    forced_both = _pair_rows(dedup.dedup_minhash_pairs(sf_dir))
    assert forced_both == base


def test_clusters_distributed_label_merge_bit_identical(sf_dir, ray_session,
                                                        monkeypatch):
    """CC_DRIVER_MAX=-1 forces the distributed CC kernel and
    BROADCAST_BOUND=0 forces the coarse-partitioned label merge
    (no driver-resident component map)."""
    from nativeextractor_ray.pipelines import common, dedup

    base = _cluster_rows(dedup.dedup_clusters(sf_dir))
    assert any(not keep for _, _, keep in base)  # non-trivial clusters

    monkeypatch.setattr(dedup, "CC_DRIVER_MAX", -1)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    forced = _cluster_rows(dedup.dedup_clusters(sf_dir))
    assert forced == base


def test_clusters_distributed_cc_small_component_map(sf_dir, ray_session,
                                                     monkeypatch):
    """The MIDDLE path: distributed CC (CC_DRIVER_MAX=-1) but the
    component map still under BROADCAST_BOUND, so it streams
    back to the driver block by block.  Regression for the 500k-doc
    scaling-run crash: the CC pipeline's sort/map_groups stages can leave
    a *pandas* block in the materialized output even though the final
    map_batches emitted Arrow, and the block stream must normalize it
    (functions/blocks.arrow_blocks), not crash on ``.num_rows``."""
    from nativeextractor_ray.pipelines import dedup

    base = _cluster_rows(dedup.dedup_clusters(sf_dir))

    monkeypatch.setattr(dedup, "CC_DRIVER_MAX", -1)  # broadcast bound kept
    forced = _cluster_rows(dedup.dedup_clusters(sf_dir))
    assert forced == base


def test_curated_docs_anti_merge_bit_identical(sf_dir, ray_session,
                                               monkeypatch):
    """BROADCAST_BOUND=0 forces curated_docs' drop application
    through the co-partitioned anti-merge instead of the sorted-array
    broadcast (and dedup_clusters through its merge path via
    CC_DRIVER_MAX=-1).  The curated corpus must be unchanged."""
    from nativeextractor_ray.pipelines import common, curation, dedup

    def rows(ds):
        return sorted(
            (r["doc_id"], r["text_redacted"], r["n_tokens"])
            for r in ds.take_all()
        )

    base = rows(curation.curated_docs(sf_dir))
    assert base

    monkeypatch.setattr(dedup, "CC_DRIVER_MAX", -1)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    forced = rows(curation.curated_docs(sf_dir))
    assert forced == base


def test_bloom_filter_no_false_negatives(ray_session):
    """The Bloom id filter may admit extra ids (benign: verification is
    exact) but must NEVER drop a real candidate id."""
    from nativeextractor_ray.functions.hashing import BloomIdFilter

    rng = np.random.default_rng(3)
    ids = rng.integers(0, 2**62, size=20_000)
    f = BloomIdFilter(18)
    f.add(ids)
    assert f.contains(ids).all()
    other = rng.integers(0, 2**62, size=200_000)
    fresh = np.setdiff1d(other, ids)
    assert f.contains(fresh).mean() < 0.01
