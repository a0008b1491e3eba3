"""MinerPool joined-batch fast path ≡ per-row parity engine, span for span."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nativeextractor_ray.sources.transcripts import derive_transcripts_table
from nativeextractor_ray.stages.miner_pool import MinerPool, _fast_scan_safe


def _rows_of(mp, texts):
    t = pa.table({
        "conv_id": pa.array([f"c{i}" for i in range(len(texts))]),
        "turn_idx": pa.array(list(range(len(texts))), pa.int32()),
        "text": pa.array(texts, pa.string()),
    })
    return mp(t).to_pylist()


@pytest.mark.parametrize("kwargs", [{}, {"no_enclosed": True}, {"sort": False}])
def test_fast_equals_slow_on_derived(sf_dir, kwargs):
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    texts = derive_transcripts_table(t).column("text").to_pylist()
    fast = MinerPool(**kwargs)
    assert fast._fast_ok
    slow = MinerPool(**kwargs)
    slow._fast_ok = False
    assert _rows_of(fast, texts) == _rows_of(slow, texts)


def test_fast_equals_slow_edges():
    texts = [
        "(erin calls +420123456789",     # quirk row 0: global scan handles it
        "",                              # empty
        "(ivan x",                       # quirk row > 0: patched
        "( erin",                        # delimiter then space: trimmed empty
        "zelda.7@mail.example.org on 2024-03-05 https://h.x/p",
        "čau žluťoučký erin ∂x",         # non-ASCII row: byte-span path
        "x erinx erinxx",                # prefix-ratio edge tokens
    ]
    fast = MinerPool()
    assert fast._fast_ok
    slow = MinerPool()
    slow._fast_ok = False
    assert _rows_of(fast, texts) == _rows_of(slow, texts)


def test_glob_specs_fall_back():
    mp = MinerPool([("glob", ("*kle",), {})])
    assert not mp._fast_ok
    out = _rows_of(mp, ["Twinkle twinkle star", "sparkle"])
    assert len(out) == 3


def test_custom_regex_spec_fast_path(sf_dir):
    """A user-supplied dialect-regex MinerSpec rides the joined-batch fast
    path when its automaton proves newline/anchor safety — identical spans
    to the per-row engine (VERDICT r1 item 8)."""
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    texts = derive_transcripts_table(t).column("text").to_pylist()[:800]
    specs = [("regex", ("[0-9]{4}-[0-9]{2}-[0-9]{2}",), {"label": "ISO"}),
             ("regex", ("\\w+@\\w+\\.\\w+",), {"label": "At"})]
    fast = MinerPool(specs)
    assert fast._fast_ok
    slow = MinerPool(specs)
    slow._fast_ok = False
    assert _rows_of(fast, texts) == _rows_of(slow, texts)


def test_unsafe_regex_spec_falls_back():
    assert not MinerPool([("regex", ("^a+",), {})])._fast_ok      # BOF anchor
    assert not MinerPool([("regex", ("a\\sb",), {})])._fast_ok    # \s eats \n
    assert MinerPool([("regex", ("[0-9]+",), {})])._fast_ok


_EDGE_BATCHES = {
    "empty_batch": [],
    "one_row": ["erin mailed zelda.7@mail.example.org on 2024-03-05"],
    "one_quirk_row": ["(erin calls +420123456789"],
    "quirk_rows_0_and_later": [
        "(erin x",                      # row 0: the global scan's own BOF
        "nora https://h.x/p",
        "(ivan on 1.2.2024",            # row > 0: patched after the scan
        "[zelda",                       # whole row is the quirk token
        "(",                            # delimiter only: trimmed empty
        ",uma, erinxx",
    ],
}


@pytest.mark.parametrize("name", sorted(_EDGE_BATCHES))
def test_joined_scan_edge_batches(name):
    """0-row, 1-row and BOF-quirk batches: the joined scan equals the
    per-row engine through MinerPool and through KgExtract."""
    from nativeextractor_ray.stages.kg_extract import KgExtract

    texts = _EDGE_BATCHES[name]
    fast = MinerPool()
    slow = MinerPool()
    slow._fast_ok = False
    assert _rows_of(fast, texts) == _rows_of(slow, texts)

    kg = KgExtract()
    assert kg._fast_ok
    assert kg.batch_entities(texts) == [kg.turn_entities(t) for t in texts]


def test_kg_nonstandard_fast_safe_specs_take_joined_scan(sf_dir):
    """A non-standard but fast-safe spec set (the standard one without
    ``phone``) runs KgExtract on the joined scan, with per-row results."""
    from nativeextractor_ray.stages.kg_extract import KgExtract
    from nativeextractor_ray.stages.miner_pool import STD_MINER_SPECS

    specs = [s for s in STD_MINER_SPECS if s[0] != "phone"]
    kg = KgExtract(specs)
    assert kg._fast_ok
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    texts = derive_transcripts_table(t).column("text").to_pylist()
    texts += _EDGE_BATCHES["quirk_rows_0_and_later"]
    got = kg.batch_entities(texts)
    assert got == [kg.turn_entities(x) for x in texts]
    assert not any(e.startswith("phone:") for row in got for e in row)
    assert any(e.startswith("date:") for row in got for e in row)
