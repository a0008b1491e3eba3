"""Deterministic hashing primitives for the dedup / fingerprint operators.

Everything here is seed-fixed and pure so results are reproducible across
processes, nodes and runs (a requirement for resumable partitions — a
recomputed partition must produce identical bytes).

The 64-bit permutation family used for MinHash is the xor-multiply family
``perm_i(h) = (h ^ r_i) * GOLDEN mod 2**64`` — a standard practical stand-in
for true random permutations that vectorizes over numpy uint64 without
128-bit arithmetic.
"""

from __future__ import annotations

import ctypes
import hashlib

import numpy as np

from nativeextractor_ray.miners.cc import Kernel, text_buffers

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SEED = 42
_K_DEFAULT = 64


#: the hash every NULL key value gets, whatever its column type
_NULL_HASH = np.uint64(0x5BD1E9955BD1E995)

# pandas' object hash (``hash_array(categorize=False)``) over Arrow string
# buffers: SipHash-2-4 keyed with pandas' "0123456789123456", then pandas'
# splitmix64 finalizer.  A NULL hashes as the string "None", as pandas
# hashes the None that ``to_numpy`` gives for it.
_SIPHASH_SRC = r"""
#include <stdint.h>

#define ROTL(x, b) (((x) << (b)) | ((x) >> (64 - (b))))
#define ROUND do { \
    v0 += v1; v1 = ROTL(v1, 13); v1 ^= v0; v0 = ROTL(v0, 32); \
    v2 += v3; v3 = ROTL(v3, 16); v3 ^= v2; \
    v0 += v3; v3 = ROTL(v3, 21); v3 ^= v0; \
    v2 += v1; v1 = ROTL(v1, 17); v1 ^= v2; v2 = ROTL(v2, 32); } while (0)

static uint64_t le64(const uint8_t *p, long n) {
    uint64_t m = 0;
    for (long i = n - 1; i >= 0; i--) m = (m << 8) | p[i];
    return m;
}

static uint64_t siphash(const uint8_t *p, long n, uint64_t k0, uint64_t k1) {
    uint64_t v0 = 0x736f6d6570736575ULL ^ k0, v1 = 0x646f72616e646f6dULL ^ k1;
    uint64_t v2 = 0x6c7967656e657261ULL ^ k0, v3 = 0x7465646279746573ULL ^ k1;
    uint64_t m;
    long i = 0;
    for (; i + 8 <= n; i += 8) {
        m = le64(p + i, 8);
        v3 ^= m; ROUND; ROUND; v0 ^= m;
    }
    m = ((uint64_t)n << 56) | le64(p + i, n - i);
    v3 ^= m; ROUND; ROUND; v0 ^= m;
    v2 ^= 0xff; ROUND; ROUND; ROUND; ROUND;
    m = v0 ^ v1 ^ v2 ^ v3;
    m ^= m >> 30; m *= 0xBF58476D1CE4E5B9ULL;
    m ^= m >> 27; m *= 0x94D049BB133111EBULL;
    return m ^ (m >> 31);
}

void nxr_string_hash(const int64_t *off, const uint8_t *data, const uint8_t *valid,
                     long voff, long n, uint64_t *out) {
    const uint8_t *key = (const uint8_t *)"0123456789123456";
    uint64_t k0 = le64(key, 8), k1 = le64(key + 8, 8);
    for (long r = 0; r < n; r++) {
        long v = voff + r;
        if (valid && !((valid[v >> 3] >> (v & 7)) & 1))
            out[r] = siphash((const uint8_t *)"None", 4, k0, k1);
        else
            out[r] = siphash(data + off[r], off[r + 1] - off[r], k0, k1);
    }
}
"""

_P = ctypes.c_void_p
_KERNEL = Kernel("siphash", _SIPHASH_SRC, {
    "nxr_string_hash": (None, [_P, _P, _P, ctypes.c_long, ctypes.c_long, _P]),
})


def string_hash(col) -> np.ndarray:
    """Per-row uint64 hash of a string column, bit-identical to
    ``pandas.util.hash_array(col.to_numpy(), categorize=False)``: the
    native kernel over the column's Arrow buffers, or pandas itself under
    ``NXR_NO_CC=1`` or without a compiler.  Other types are cast to
    string first."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from pandas.util import hash_array

    if isinstance(col, pa.ChunkedArray):
        if col.num_chunks != 1:
            return np.concatenate([string_hash(c) for c in col.chunks]
                                  or [np.zeros(0, np.uint64)])
        col = col.chunk(0)
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        col = pc.cast(col, pa.string())
    lib = _KERNEL.lib()
    if lib is None:
        return hash_array(col.to_numpy(zero_copy_only=False), categorize=False)
    valid, voff, offs, data = text_buffers(col)
    out = np.empty(len(col), np.uint64)
    lib.nxr_string_hash(offs.ctypes.data, data.ctypes.data,
                        None if valid is None else valid.ctypes.data, voff,
                        len(col), out.ctypes.data)
    return out


def _is_num(typ) -> bool:
    import pyarrow as pa

    return (pa.types.is_integer(typ) or pa.types.is_temporal(typ)
            or pa.types.is_boolean(typ) or pa.types.is_floating(typ))


def _column_hash(col) -> np.ndarray:
    """Per-row uint64 hash of one key column.  Each non-null value
    hashes on its own bits: integer / temporal / boolean values as int64
    (a uint64 reinterpreted, so values at or above 2^63 hash too) and
    floats as float64, both through ``hash_array``; everything else as
    its string (:func:`string_hash`).  A NULL gets ``_NULL_HASH``; the
    nulls are filled before ``to_numpy``, so a NULL never turns the
    batch's integers into floats and moves their hash."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from pandas.util import hash_array

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    typ = col.type
    if not _is_num(typ):
        h = string_hash(col)
    else:
        arr = col if pa.types.is_floating(typ) else pc.cast(
            col, pa.int64(), safe=not pa.types.is_uint64(typ))
        h = hash_array(pc.fill_null(arr, 0).to_numpy(zero_copy_only=False),
                       categorize=False)
    if col.null_count:
        h[~pc.is_valid(col).to_numpy(zero_copy_only=False)] = _NULL_HASH
    return h


def stable_part(t, keys: list[str], n: int):
    """Vectorized process-stable partition key over table columns:
    per-column siphash with a fixed key (stable across processes and
    nodes, unlike builtin ``hash``; :func:`_column_hash`) mixed with a
    golden-ratio multiply-xor chain → mod ``n``.  Returns an int64
    pyarrow Array.  A row's part depends on its own key values only,
    never on the other rows of its batch.

    Numeric / temporal / boolean columns hash their raw int64/float64
    view directly, with no string cast or element-wise join; string
    columns go through :func:`string_hash`, the native kernel that gives
    ``hash_array(categorize=False)``'s values without building a Python
    object per row.

    An all-string multi-key hashes ONE NUL-joined string per row
    instead — the triples-dedup shape.  Its values are the ``part`` of
    every triple partial, checkpoint partition and triples exchange, so
    the join stays even where per-column hashing would cost the same.

    ``categorize=False`` is load-bearing for the ``hash_array`` fallback:
    with the default categorize=True, pandas 2.2's object-array path
    returns values that depend on the factorize order of the WHOLE array —
    the same string hashes differently in different batches, which
    silently splits keys across partitions (caught by
    test_checkpoint.py::test_partitioned_equals_direct)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if len(keys) > 1 and not any(_is_num(t.column(k).type) for k in keys):
        cols = [pc.cast(t.column(k), pa.string()).combine_chunks()
                for k in keys]
        h = string_hash(pc.binary_join_element_wise(*cols, "\x00"))
        return pa.array((h % np.uint64(n)).astype(np.int64))

    acc = None
    for k in keys:
        h = _column_hash(t.column(k))
        with np.errstate(over="ignore"):
            acc = h if acc is None else (acc * GOLDEN) ^ h
    return pa.array((acc % np.uint64(n)).astype(np.int64))


def h64(s: str) -> int:
    """Stable 64-bit hash of a string (blake2b, process-independent —
    unlike Python's ``hash`` which is salted per process)."""
    return int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "little")


def h64_many(strings: list[str]) -> np.ndarray:
    return np.array([h64(s) for s in strings], dtype=np.uint64)


def minhash_perms(k: int = _K_DEFAULT, seed: int = _SEED) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(1, np.iinfo(np.uint64).max, size=k, dtype=np.uint64)


def minhash_signature(shingle_hashes: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """k-wide signature: min over shingles of each permuted hash."""
    if shingle_hashes.size == 0:
        return np.full(perms.shape, np.iinfo(np.uint64).max, dtype=np.uint64)
    with np.errstate(over="ignore"):
        m = (shingle_hashes[None, :] ^ perms[:, None]) * GOLDEN  # (k, m) wraps mod 2^64
    return m.min(axis=1)


def simhash64(token_hashes: np.ndarray, weights: np.ndarray | None = None) -> int:
    """Charikar simhash: weighted bit-vote over 64 bits of each token hash."""
    if token_hashes.size == 0:
        return 0
    bits = ((token_hashes[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(np.int64)
    w = np.ones(len(token_hashes), dtype=np.int64) if weights is None else weights.astype(np.int64)
    votes = ((2 * bits - 1) * w[:, None]).sum(axis=0)
    out = np.uint64(0)
    for i in range(64):
        if votes[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return int(out)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise popcount(a ^ b) for uint64 arrays."""
    x = np.bitwise_xor(a, b)
    cnt = np.zeros(x.shape, dtype=np.int64)
    for _ in range(64):
        cnt += (x & np.uint64(1)).astype(np.int64)
        x = x >> np.uint64(1)
    return cnt


def sorted_lookup(keys: np.ndarray, x, valid: np.ndarray | None = None):
    """Look ``x`` up in the sorted array ``keys`` with one vectorized
    ``searchsorted``: returns ``(hit, pos)``, where ``hit[i]`` says
    ``x[i]`` is in ``keys`` and then ``keys[pos[i]] == x[i]``.  ``pos`` is
    clipped into ``keys`` (zeros when there are none), so arrays parallel
    to ``keys`` are read at ``pos[hit]``.  A probe whose ``valid`` is
    False misses whatever its value: a NULL key matches nothing."""
    x = np.asarray(x)
    if len(keys) == 0:
        return np.zeros(len(x), bool), np.zeros(len(x), np.intp)
    pos = np.minimum(np.searchsorted(keys, x), len(keys) - 1)
    hit = keys[pos] == x
    if valid is not None:
        hit &= valid
    return hit, pos


class SortedLookup:
    """The small side of a broadcast join: ``keys`` sorted once, and each
    of ``values`` (numpy or Arrow arrays) put in the same order.  Built
    on the driver, broadcast once via ``ray.put`` and probed per batch
    with :meth:`get` — the trie probe of the reference's NER, one
    ``searchsorted`` per batch."""

    def __init__(self, keys, *values):
        keys = np.asarray(keys)
        order = np.argsort(keys)
        self.keys = keys[order]
        self.values = tuple(v.take(order) for v in values)

    def get(self, x, valid: np.ndarray | None = None) -> tuple:
        """``(hit, *values)`` for the probes ``x``: ``hit`` as in
        :func:`sorted_lookup`, and each value array read at the hits
        only, in probe order (``hit.sum()`` entries)."""
        hit, pos = sorted_lookup(self.keys, x, valid)
        at = pos[hit]
        return (hit, *(v.take(at) for v in self.values))


class ExactIdFilter:
    """Membership filter over an int64 id set as a SORTED numpy array:
    8 bytes/id (vs ~60 for a Python set) and a vectorized ``searchsorted``
    probe per batch.  Broadcast once via ``ray.put``; used when the
    candidate-id population fits the driver bound."""

    def __init__(self, ids: np.ndarray):
        self.ids = np.unique(np.asarray(ids, dtype=np.int64))

    def contains(self, x: np.ndarray,
                 valid: np.ndarray | None = None) -> np.ndarray:
        return sorted_lookup(self.ids, np.asarray(x, dtype=np.int64),
                             valid)[0]


_BLOOM_SALTS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
     0x165667B19E3779F9, 0x27D4EB2F165667C5],
    dtype=np.uint64,
)


class BloomIdFilter:
    """Constant-memory membership filter over int64 ids — the scale path
    when the candidate population is too large to broadcast exactly.
    ``2**nbits_log2`` bits, 4 multiply-xorshift hashes; at 16 bits/element
    the false-positive rate is ~0.2%.  False positives are BENIGN here:
    they only admit extra docs into shingle extraction, and the downstream
    verification is exact, so the emitted pairs are unchanged."""

    def __init__(self, nbits_log2: int):
        self.log2 = int(nbits_log2)
        self.bits = np.zeros(1 << (self.log2 - 6), dtype=np.uint64)

    def _positions(self, x: np.ndarray):
        x = np.asarray(x).astype(np.uint64)
        sh = np.uint64(64 - self.log2)
        with np.errstate(over="ignore"):
            for salt in _BLOOM_SALTS:
                h = (x ^ (x >> np.uint64(33))) * salt
                h ^= h >> np.uint64(29)
                yield (h >> sh).astype(np.int64)

    def add(self, x: np.ndarray) -> None:
        one = np.uint64(1)
        for pos in self._positions(x):
            np.bitwise_or.at(
                self.bits, pos >> 6,
                np.left_shift(one, (pos & 63).astype(np.uint64)),
            )

    def contains(self, x: np.ndarray) -> np.ndarray:
        out = np.ones(len(x), dtype=bool)
        for pos in self._positions(x):
            word = self.bits[pos >> 6]
            out &= (
                np.right_shift(word, (pos & 63).astype(np.uint64))
                & np.uint64(1)
            ).astype(bool)
        return out


def word_shingles(text: str, n: int) -> list[str]:
    """Distinct word n-grams; tokens = space-split, empties dropped (kept in
    lockstep with the SQL ``list_filter(string_split(text,' '), x -> x<>'')``
    rendering in the oracles)."""
    toks = [t for t in text.split(" ") if t]
    if len(toks) < n:
        return [" ".join(toks)] if toks else []
    return list({" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)})


def rolling_hashes(text: str, k: int = 8, base: int = 257, mod: int = (1 << 61) - 1) -> np.ndarray:
    """Polynomial rolling hash of every k-byte window (fingerprinting)."""
    b = text.encode()
    if len(b) < k:
        return np.array([], dtype=np.uint64)
    arr = np.frombuffer(b, dtype=np.uint8)
    out = np.empty(len(b) - k + 1, dtype=object)
    top = pow(base, k - 1, mod)
    h = 0
    for i in range(k):
        h = (h * base + int(arr[i])) % mod
    out[0] = h
    for i in range(1, len(out)):
        h = ((h - int(arr[i - 1]) * top) % mod * base + int(arr[i + k - 1])) % mod
        out[i] = h
    return out.astype(np.uint64)


def winnow(hashes: np.ndarray, w: int = 16) -> np.ndarray:
    """Winnowing (Schleimer et al., SIGMOD 2003): min hash of each length-w
    window, deduplicated consecutively — the standard document fingerprint."""
    if hashes.size == 0:
        return hashes
    if hashes.size <= w:
        return np.array([hashes.min()], dtype=np.uint64)
    picks = []
    last = -1
    for i in range(hashes.size - w + 1):
        j = i + int(np.argmin(hashes[i : i + w]))
        if j != last:
            picks.append(hashes[j])
            last = j
    return np.array(picks, dtype=np.uint64)
