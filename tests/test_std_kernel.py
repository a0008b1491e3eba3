"""The native standard-miner kernel (miners/stdcc.py) ≡ the Python engine.

Generated batches mix ASCII, non-ASCII (the kernel hands those rows to the
Python engine), empty, NULL and BOF-quirk rows with the miners' edge
cases; every MinerPool output mode and ``KgExtract.entity_pairs`` must be
identical under both engines, for the standard specs and for reordered,
relabelled, partial and multi-dictionary miner sets."""

import os
from contextlib import contextmanager

import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from nativeextractor_ray.miners import stdcc
from nativeextractor_ray.stages.kg_extract import KgExtract
from nativeextractor_ray.stages.miner_pool import STD_MINER_SPECS, MinerPool
from nativeextractor_ray.sources.transcripts import DICT_NAMES


@contextmanager
def engine(native: bool):
    """Run the block under the native kernel or under ``NXR_NO_CC=1``."""
    old = os.environ.pop("NXR_NO_CC", None)
    if not native:
        os.environ["NXR_NO_CC"] = "1"
    try:
        yield
    finally:
        os.environ.pop("NXR_NO_CC", None)
        if old is not None:
            os.environ["NXR_NO_CC"] = old


def _native_or_skip():
    with engine(True):
        if not stdcc.available():
            pytest.skip("the native kernel cannot be built here")


FRAGMENTS = [
    # prefix-ratio edges against DICT_NAMES: 3/4, 4/5, 4/6
    "umax", "erinx", "erinxx", "erin", "ivan", "nina", "x", "e",
    # phones of 8, 9, 12 and 13 digits
    "+12345678", "+123456789", "+123456789012", "+1234567890123", "++420123456789",
    # dates glued to digits, and near misses
    "12024-01-01", "123.4.2024", "1.2.2024", "31.12.20245", "2024-1-01", "9.9.999",
    # emails: consecutive dots, a 1-char last label, a chain of '@'
    "a..b@x..yy.org", "me@host.c", "me@host.cc", "a@b@c.dd", "@x.yy", "x@.yy", "_@-.--",
    # URLs, glued and broken
    "https://h.x/p", "http://a", "https:// x", "hhttp://q.r", "https://", "http:/x",
    # delimiters, whitespace kinds, non-ASCII
    "(", "(ivan", "[zelda", ",uma,", "\t", "\x1c", "\n", "  ", "čau", "žluť", "∂x",
    "ěrin", "é@ü.de", "+４２０123456789", "２0２4-01-01",
]

rows = st.one_of(
    st.none(),
    st.lists(st.sampled_from(FRAGMENTS), max_size=8).map("".join),
    st.lists(st.sampled_from(FRAGMENTS), max_size=8).map(" ".join),
    st.text(alphabet=st.sampled_from("ab eirn.@+-:/0129hstpx(\t\nč"), max_size=30),
)
batches = st.lists(rows, max_size=12)

SPEC_SETS = {
    "std": list(STD_MINER_SPECS),
    "reordered_relabelled": [
        ("ner", (DICT_NAMES,), {"label": "Who"}), ("phone", (), {"label": "Tel"}),
        ("date", (), {}), ("url", (), {"label": "Link"}), ("email", (), {"label": "Mail"})],
    "subset": [("phone", (), {}), ("ner", (DICT_NAMES,), {"label": "Dict"})],
    # one dictionary the joined Python scan cannot take (a delimiter-first
    # and a non-ASCII-first word): its Python engine is the per-row find
    "two_dicts": [
        ("ner", (["erin", "(ab", "čeněk", "x"],), {"label": "D1", "threshold": 0.5}),
        ("ner", (["ivan", "nina"],), {"label": "D2", "threshold": 1.0}),
        ("email", (), {})],
}


def _batch(texts):
    return pa.table({
        "conv_id": pa.array([f"c{i}" for i in range(len(texts))]),
        "turn_idx": pa.array(range(len(texts)), pa.int32()),
        "text": pa.array(texts, pa.string()),
    })


def _both(make, call):
    out = []
    for native in (True, False):
        with engine(native):
            out.append(call(make()))
    return out


@pytest.mark.parametrize("spec_set", sorted(SPEC_SETS))
@settings(max_examples=120, derandomize=True, deadline=None)
@given(texts=batches)
def test_native_scan_equals_python_engine(spec_set, texts):
    _native_or_skip()
    specs = SPEC_SETS[spec_set]
    assert stdcc.eligible(MinerPool(specs).miners)
    batch = _batch(texts)
    for kwargs in ({}, {"no_enclosed": True}, {"sort": False}):
        native, python = _both(lambda: MinerPool(specs, **kwargs), lambda p: p(batch))
        assert native.to_pylist() == python.to_pylist(), kwargs
    native, python = _both(lambda: KgExtract(specs), lambda k: k.entity_pairs(batch["text"]))
    assert native.to_pylist() == python.to_pylist()


def test_per_row_engine_agrees_on_null_and_non_ascii_rows():
    """The per-row engine (the parity reference of both batch engines)
    gives NULL rows nothing, like the batch engines."""
    texts = [None, "(erin x", "čau erin +420123456789", None, "", "erin@mail.example.org"]
    batch = _batch(texts)
    slow = MinerPool()
    slow._fast_ok = False
    for native in (True, False):
        with engine(native):
            assert MinerPool()(batch).to_pylist() == slow(batch).to_pylist()
            kg = KgExtract()
            assert kg.batch_entities(texts) == [kg.turn_entities(t) for t in texts]
    assert {r["turn_idx"] for r in slow(batch).to_pylist()} == {1, 2, 5}


def test_native_kernel_reports_custom_labels():
    _native_or_skip()
    specs = SPEC_SETS["reordered_relabelled"]
    batch = _batch(["erin me@host.cc https://h.x/p +420123456789 1.2.2024"])
    with engine(True):
        pool = MinerPool(specs)
        assert stdcc.eligible(pool.miners)
        got = {r["label"] for r in pool(batch).to_pylist()}
    assert got == {"Who", "Tel", "Date", "Link", "Mail"}


def test_kernel_reads_sliced_and_large_string_columns():
    """Arrow offsets of a sliced array and 64-bit (large_string) offsets."""
    _native_or_skip()
    texts = ["erin +420123456789", None, "(ivan 1.2.2024", "čau nina", "x@y.zz https://a"]
    batch = _batch(texts * 3).slice(4, 9)
    large = batch.set_column(2, "text", batch["text"].cast(pa.large_string()))
    with engine(False):
        want = MinerPool()(batch).to_pylist()
    with engine(True):
        assert MinerPool()(batch).to_pylist() == want
        assert MinerPool()(large).to_pylist() == want


def test_more_spans_than_the_first_output_guess():
    """A dense row overflows the kernel's first output buffer; the exact
    rerun returns every span."""
    _native_or_skip()
    batch = _batch(["x " * 3000 + "+123456789 " * 200])
    native, python = _both(MinerPool, lambda p: p(batch))
    assert native.num_rows == 3200
    assert native.to_pylist() == python.to_pylist()
