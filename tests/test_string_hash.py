"""``functions/hashing.string_hash`` ≡ ``pandas.util.hash_array(...,
categorize=False)`` over the same strings, bit for bit: the native
siphash kernel and the pandas fallback (``NXR_NO_CC=1``) alike.  Every
``stable_part`` of a string key and every ``connected_components_ds``
node id is one of these values."""

import numpy as np
import pyarrow as pa
import pytest
from pandas.util import hash_array

from nativeextractor_ray.functions import hashing
from nativeextractor_ray.functions.hashing import string_hash


@pytest.fixture(params=["native", "python"])
def engine(request, monkeypatch):
    if request.param == "python":
        monkeypatch.setenv("NXR_NO_CC", "1")
    elif not hashing._KERNEL.available():
        pytest.skip(f"siphash kernel unavailable: {hashing._KERNEL.error}")
    return request.param


def _random_strings(n: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    ranges = [(0x20, 0x7F), (0x80, 0x800), (0x800, 0xD800), (0xE000, 0x10000),
              (0x10000, 0x110000)]  # 1- to 4-byte UTF-8
    out = []
    for _ in range(n):
        chars = []
        for _ in range(int(rng.integers(0, 30))):
            lo, hi = ranges[int(rng.integers(0, len(ranges)))]
            chars.append(chr(int(rng.integers(lo, hi))))
        out.append("".join(chars))
    return out


VALUES = _random_strings(2000) + [
    "", "\x00", "\x00\x00a", "None", "a" * 7, "a" * 8, "a" * 9, "a" * 16,
    "ü", "\U0001F600" * 5, None, "person:nina", None]


def _want(values) -> np.ndarray:
    return hash_array(np.array(values, dtype=object), categorize=False)


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_equals_hash_array(engine, typ):
    assert np.array_equal(string_hash(pa.array(VALUES, typ)), _want(VALUES))


def test_sliced_array(engine):
    arr = pa.array(VALUES, pa.string()).slice(7, 1000)  # offset != 0, NULL-free head
    assert arr.offset == 7
    assert np.array_equal(string_hash(arr), _want(VALUES[7:1007]))
    tail = pa.array(VALUES, pa.string()).slice(len(VALUES) - 4)
    assert tail.offset % 8 and tail.null_count  # NULLs off a byte boundary
    assert np.array_equal(string_hash(tail), _want(VALUES[-4:]))


def test_chunked_array(engine):
    chunks = pa.chunked_array([pa.array(VALUES[:3], pa.string()),
                               pa.array(VALUES[3:], pa.string())])
    assert np.array_equal(string_hash(chunks), _want(VALUES))
    empty = pa.chunked_array([], pa.string())
    assert string_hash(empty).shape == (0,)


def test_nulls_hash_as_pandas_hashes_none(engine):
    got = string_hash(pa.array([None, "None", None], pa.string()))
    assert got[0] == got[1] == got[2] == _want(["None"])[0]
