"""Decontamination + boilerplate operators (pipelines/decontam.py).

Oracle parity at sf0.001 is covered by test_oracle_parity.py (the entries
are registered in __ray_entry__); here we pin the scale-path equivalence
(broadcast vs exchange attach) and edge semantics the oracle
can't see."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from nativeextractor_ray.pipelines import common, decontam


def _df(res) -> pd.DataFrame:
    import ray

    parts = [ray.get(r) for r in res.to_arrow_refs()]
    parts = [p for p in parts if p.num_rows] or parts[:1]
    df = pa.concat_tables(parts, promote_options="default").to_pandas()
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def test_boilerplate_paths_identical(sf_dir, ray_session, monkeypatch):
    """The driver-broadcast and exchange-attach paths must be bit-identical
    (bound forced to 0 routes every gram through the exchange attach)."""
    fast = _df(decontam.boilerplate_ngrams(sf_dir))
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    slow = _df(decontam.boilerplate_ngrams(sf_dir))
    pd.testing.assert_frame_equal(fast, slow)


def test_decontaminate_hits_are_real(sf_dir, ray_session):
    """Every reported hit count equals a direct recount of shared grams,
    and no benchmark doc leaks into the output."""
    import pyarrow.parquet as pq

    out = _df(decontam.decontaminate(sf_dir))
    assert len(out) > 0, "sf0.001 plants near-dup docs; expected overlap"
    assert (out["doc_id"] % decontam.BENCH_MOD != 0).all()

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    txt = docs.set_index("doc_id")["text"]
    bench = set()
    for d, t in txt.items():
        if d % decontam.BENCH_MOD == 0:
            bench.update(decontam.word_shingles(t, decontam.DECONTAM_N))
    for d, n_hits in zip(out["doc_id"], out["n_hits"]):
        grams = set(decontam.word_shingles(txt[d], decontam.DECONTAM_N))
        assert len(grams & bench) == n_hits


def test_benchmark_broadcast_bound_raises(sf_dir, ray_session, monkeypatch):
    """An accidentally corpus-sized 'benchmark' must fail loudly, not OOM."""
    monkeypatch.setattr(decontam, "BENCH_BROADCAST_BOUND", 0)
    with pytest.raises(ValueError, match="broadcast bound"):
        decontam.decontaminate(sf_dir)
