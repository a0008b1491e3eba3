"""``functions/hashing.stable_part`` in-process (no Ray): a key's part
depends on the key alone, never on the other rows of its batch, and the
parts of non-null keys stay where checkpoints and the triples exchange
put them."""

import pyarrow as pa
import pytest

from nativeextractor_ray.functions.hashing import stable_part

M = 1 << 32


def _parts(t: pa.Table, keys: list[str]) -> list[int]:
    return stable_part(t, keys, M).to_pylist()


@pytest.mark.parametrize("typ", [pa.int64(), pa.int32(), pa.uint64(),
                                 pa.float64(), pa.string(), pa.bool_()])
def test_a_null_in_the_batch_moves_no_other_key(typ):
    vals = [True, False] if typ == pa.bool_() else (
        ["5", "7"] if typ == pa.string() else [5, 7])
    alone = _parts(pa.table({"k": pa.array(vals, typ)}), ["k"])
    with_null = _parts(pa.table({"k": pa.array([vals[0], None], typ)}),
                       ["k"])
    assert with_null[0] == alone[0]
    # every NULL gets one part, whatever the rest of the batch holds
    only_nulls = _parts(pa.table({"k": pa.array([None, None], typ)}), ["k"])
    assert only_nulls[0] == only_nulls[1] == with_null[1]


def test_a_null_in_another_key_column_moves_no_row():
    t = pa.table({"s": ["a", "b"], "k": pa.array([5, 7], pa.int64())})
    tn = pa.table({"s": ["a", "b"], "k": pa.array([5, None], pa.int64())})
    assert _parts(tn, ["s", "k"])[0] == _parts(t, ["s", "k"])[0]


def test_uint64_keys_at_and_above_2_63():
    big = [2 ** 63, 2 ** 63 + 5, 2 ** 64 - 1]
    got = _parts(pa.table({"k": pa.array(big + [5], pa.uint64())}), ["k"])
    assert all(0 <= p < M for p in got)
    # one key, one part: the same value alone and with others
    assert got[1] == _parts(pa.table({"k": pa.array([2 ** 63 + 5],
                                                    pa.uint64())}), ["k"])[0]
    # below 2^63 a uint64 key sits where the same int64 key does
    assert got[3] == _parts(pa.table({"k": pa.array([5], pa.int64())}),
                            ["k"])[0]


# parts of the hashing before NULLs and uint64 were handled; checkpoint
# partitions and the triples exchange key depend on them
PINNED = [
    (pa.table({"k": pa.array([0, 5, -7, 2 ** 40, 123456789], pa.int64())}),
     ["k"], [0, 3199944156, 4054644467, 2082894840, 591396192]),
    (pa.table({"s": ["", "conv-00000001", "person:nina", "ü"]}), ["s"],
     [1445345862, 901734687, 4071595874, 1512149963]),
    (pa.table({"s": ["a", "conv-1"], "p": ["x", "rel"]}), ["s", "p"],
     [227740308, 3201178169]),
    (pa.table({"s": ["a", "conv-1"], "k": pa.array([3, 9], pa.int64())}),
     ["s", "k"], [2301580512, 1932344920]),
    (pa.table({"f": [0.5, -2.25]}), ["f"], [3857896309, 880161098]),
]


@pytest.mark.parametrize("t,keys,want", PINNED)
def test_non_null_parts_are_pinned(t, keys, want):
    assert _parts(t, keys) == want
