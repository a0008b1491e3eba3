"""lm_score: broadcast vs shuffle-attach path equality; oracle parity at
sf0.001 is covered by test_oracle_parity.py."""

import pandas as pd
import pyarrow as pa
import pytest

from nativeextractor_ray.pipelines import common, lmscore


def _collect(res) -> pd.DataFrame:
    import ray

    parts = [ray.get(r) for r in res.to_arrow_refs()]
    df = pa.concat_tables([p for p in parts if p.num_rows]).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def test_paths_agree(sf_dir, ray_session, monkeypatch):
    broadcast = _collect(lmscore.lm_score(sf_dir))
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    attached = _collect(lmscore.lm_score(sf_dir))
    assert list(broadcast.columns) == list(attached.columns)
    # float-sum order differs between the paths (per-position vs
    # m*ln(...) per distinct key) — equality to rounding tolerance
    pd.testing.assert_frame_equal(broadcast, attached,
                                  check_exact=False, rtol=1e-5, atol=2e-6)


def test_zero_bigram_docs_present(sf_dir, ray_session):
    out = _collect(lmscore.lm_score(sf_dir))
    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    assert len(out) == n_docs
    assert (out.loc[out["n_bigrams"] == 0, "lm_logprob"] == 0.0).all()
    # scores are log-probabilities: strictly negative when bigrams exist
    assert (out.loc[out["n_bigrams"] > 0, "lm_logprob"] < 0).all()


def test_perplexity_buckets_scale_path_matches_driver(ray_session,
                                                      monkeypatch):
    """Bound 0 forces the co-partitioned lang attach + grouped
    refinement-kernel edges; output must equal the driver fold."""
    from nativeextractor_ray.functions.blocks import arrow_blocks

    def to_df(res) -> pd.DataFrame:
        t = (res if isinstance(res, pa.Table)
             else pa.concat_tables(list(arrow_blocks(res, stream=False)),
                                   promote_options="default"))
        return t.to_pandas().sort_values("doc_id").reset_index(drop=True)

    sf = "/root/testdata/sf0.001"
    base = to_df(lmscore.perplexity_buckets(sf))
    monkeypatch.setattr(common, "DRIVER_BOUND", 0)
    forced = to_df(lmscore.perplexity_buckets(sf))
    pd.testing.assert_frame_equal(base, forced, check_dtype=False)
    assert len(base) > 0
    # every lang uses all tiers somewhere on a non-degenerate corpus
    assert set(base["bucket"]) == {1, 2, 3}
