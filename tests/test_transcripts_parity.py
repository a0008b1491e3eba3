"""The transcripts derivation's three renderings must agree bit for bit:
the C kernel, the scalar spec ``_enrich`` (what runs under ``NXR_NO_CC=1``)
and ``TRANSCRIPTS_SQL``, which every oracle query builds on."""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nativeextractor_ray.sources import transcripts
from nativeextractor_ray.sources.transcripts import (
    TRANSCRIPTS_SQL,
    _enrich,
    derive_transcripts_table,
    enrich_text,
)

ORDER = [("conv_id", "ascending"), ("turn_idx", "ascending")]


def _sql(docs: pa.Table) -> pa.Table:
    con = duckdb.connect()
    con.register("documents", docs)
    return con.sql(f"SELECT * FROM ({TRANSCRIPTS_SQL}) ORDER BY conv_id, turn_idx").arrow()


def _renderings(docs: pa.Table, monkeypatch) -> dict:
    """``derive_transcripts_table`` under the kernel and under the scalar
    spec, sorted like the SQL."""
    out = {}
    if transcripts._KERNEL.available():
        out["kernel"] = derive_transcripts_table(docs).sort_by(ORDER)
    with monkeypatch.context() as m:
        m.setenv("NXR_NO_CC", "1")
        out["scalar"] = derive_transcripts_table(docs).sort_by(ORDER)
    return out


def _assert_equal(got: pa.Table, want: pa.Table, who: str):
    assert got.schema.names == want.schema.names, who
    for name in want.schema.names:
        assert got.column(name).to_pylist() == want.column(name).to_pylist(), (who, name)


def test_python_equals_sql(sf_dir, monkeypatch):
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    sql = _sql(pq.read_table(f"{sf_dir}/documents.parquet"))
    for who, got in _renderings(docs, monkeypatch).items():
        _assert_equal(got, sql, who)


def _edge_docs() -> pa.Table:
    """NULL text on dup and non-dup rows, empty and non-ASCII text, every
    residue of 3/4/5/6/9/11/13, doc_id 0, and replicate-shifted ids near
    10**9 + k * 10**7."""
    ids = list(range(0, 3003)) + [10**9 + k * 10**7 + j
                                 for k in range(4) for j in range(-3, 300)]
    texts = [None if i % 17 == 0 else
             "" if i % 17 == 1 else
             "čau žluťoučký kůň ∂x" if i % 17 == 2 else f"turn {i} erin"
             for i in range(len(ids))]
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())})


def test_edge_table_three_renderings_agree(monkeypatch):
    docs = _edge_docs()
    ids = docs.column("doc_id").to_numpy()
    null_ids = ids[docs.column("text").is_null().to_numpy(zero_copy_only=False)]
    assert (null_ids % 13 == 7).any() and (null_ids % 13 != 7).any()
    for k in (3, 4, 5, 6, 9, 11, 13):
        assert set(ids % k) == set(range(k))
    sliced = docs.slice(11, 2500)
    assert sliced.column("text").chunk(0).offset == 11
    for table in (docs, sliced):
        sql = _sql(table)
        for who, got in _renderings(table, monkeypatch).items():
            _assert_equal(got, sql, who)
    # NULL text stays NULL, except on the DUP_TEXT rows (85 % 13 == 7)
    texts = dict(zip(ids.tolist(), derive_transcripts_table(docs).column("text").to_pylist()))
    assert texts[0] is None and texts[85] == _enrich(85, None) is not None


def test_kernel_equals_scalar_spec_on_sliced_chunked_and_negative_input(monkeypatch):
    """Python's floor ``%`` on negative ids (the SQL truncates, so it is
    not compared there), sliced and chunked string and large_string input,
    and the int64 extremes."""
    if not transcripts._KERNEL.available():
        pytest.skip("the derive kernel cannot be built here")
    ids = np.array(list(range(-400, 400)) + [2**63 - 1, -2**63, 10**9 + 7], np.int64)
    texts = [None if i % 5 == 0 else "ü" * (i % 4) for i in range(len(ids))]
    want = [_enrich(int(d), t) for d, t in zip(ids.tolist(), texts)]
    base = pa.array(texts, pa.string())
    for text in (base, base.cast(pa.large_string())):
        assert enrich_text(ids, text).to_pylist() == want
        sliced = text.slice(3, 500)
        assert sliced.offset == 3
        assert enrich_text(ids[3:503], sliced).to_pylist() == want[3:503]
        chunked = pa.chunked_array([text.slice(0, 9), text.slice(9, 0), text.slice(9)])
        assert enrich_text(ids, chunked).to_pylist() == want


def test_kernel_emits_large_string_past_int32_offsets(monkeypatch):
    """Past the int32 offset range the kernel emits ``large_string``
    instead of wrapping; the bound is lowered here to show it."""
    if not transcripts._KERNEL.available():
        pytest.skip("the derive kernel cannot be built here")
    ids = np.arange(50, dtype=np.int64)
    text = pa.array(["x"] * 50, pa.string())
    want = [_enrich(int(d), "x") for d in ids]
    assert enrich_text(ids, text).type == pa.string()
    monkeypatch.setattr(transcripts, "_STRING_MAX", 100)
    got = enrich_text(ids, text)
    assert got.type == pa.large_string() and got.to_pylist() == want


def test_shape_invariants(sf_dir):
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    t = derive_transcripts_table(docs)
    assert t.schema.field("turn_idx").type == "int32"
    assert t.schema.field("ts").type == "timestamp[us]"
    # (conv_id, turn_idx) unique — the stable-ordering invariant's key
    keys = list(zip(t.column("conv_id").to_pylist(), t.column("turn_idx").to_pylist()))
    assert len(keys) == len(set(keys))
    # the hot conversation exists and is heavy (~5%)
    n_hot = sum(1 for c, _ in keys if c == "c_hot")
    assert n_hot >= 0.04 * len(keys)
    # duplicate-text groups exist (for the dedup operators)
    texts = t.column("text").to_pylist()
    assert len(set(texts)) < len(texts)
