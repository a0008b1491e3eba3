"""The broadcast probe every relational join shares:
``hashing.sorted_lookup``, ``SortedLookup`` and ``ExactIdFilter``, in
process (no Ray)."""

import numpy as np
import pyarrow as pa

from nativeextractor_ray.functions.hashing import (
    ExactIdFilter, SortedLookup, sorted_lookup)


def test_empty_keys_miss_everything():
    hit, pos = sorted_lookup(np.array([], np.int64), np.array([3, 0, -1]))
    assert hit.tolist() == [False] * 3 and len(pos) == 3
    assert sorted_lookup(np.array([], np.int64), np.array([], np.int64))[0].size == 0
    got = SortedLookup(np.array([], np.int64), np.array([], np.int64),
                       pa.array([], pa.string())).get(np.array([7, 8]))
    assert got[0].tolist() == [False, False]
    assert len(got[1]) == 0 and len(got[2]) == 0
    assert ExactIdFilter(np.array([], np.int64)).contains([1, 2]).tolist() == [False, False]


def test_probes_below_between_and_above_the_keys():
    keys = np.array([10, 20, 30], np.int64)
    x = np.array([5, 10, 15, 20, 25, 30, 35])
    hit, pos = sorted_lookup(keys, x)
    assert hit.tolist() == [False, True, False, True, False, True, False]
    assert (keys[pos[hit]] == x[hit]).all()
    assert pos.min() >= 0 and pos.max() < len(keys)  # clipped, never past the end


def test_values_follow_their_keys_in_probe_order():
    side = SortedLookup(np.array([30, 10, 20]), np.array([3, 1, 2]),
                        pa.array(["c", "a", "b"]))
    hit, num, name = side.get(np.array([20, 99, 10, 30, 10]))
    assert hit.tolist() == [True, False, True, True, True]
    assert num.tolist() == [2, 1, 3, 1]
    assert name.to_pylist() == ["b", "a", "c", "a"]


def test_int64_above_2_pow_53_stays_exact():
    big = 2 ** 53
    keys = np.array([big + 1, big + 3], np.int64)
    # big and big + 2 share a float64 with a neighbouring key
    x = np.array([big, big + 1, big + 2, big + 3], np.int64)
    assert sorted_lookup(keys, x)[0].tolist() == [False, True, False, True]
    assert ExactIdFilter(keys).contains(x).tolist() == [False, True, False, True]
    _, v = SortedLookup(keys, np.array([1, 3])).get(x)
    assert v.tolist() == [1, 3]


def test_valid_mask_makes_a_null_probe_miss():
    # semi_anti_join's NULL key: fk_int64 fills it with 0 and clears valid
    keys = np.array([0, 100, 200], np.int64)
    x = np.array([100, 0, 200, 999], np.int64)
    valid = np.array([True, False, True, True])
    hit, _ = sorted_lookup(keys, x, valid)
    assert hit.tolist() == [True, False, True, False]
    assert ExactIdFilter(keys).contains(x, valid).tolist() == hit.tolist()
    assert SortedLookup(keys).get(x, valid)[0].tolist() == hit.tolist()
