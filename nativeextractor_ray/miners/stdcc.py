"""Native scan of the standard miners: one C call per Arrow text column.

The reference runs its email FSM as hand-written C
(``naive_email_miner.c:29-148``) and its regexes as generated C
(``regex_generator.c:1212-1258``).  This kernel is that engine for the five
standard miner types — :class:`EmailMiner`, :class:`UrlMiner`,
:class:`DateMiner`, :class:`PhoneMiner` and :class:`DictionaryMiner` with a
prefix-ratio threshold > 0 — in any order, subset or labelling.  One call
reads a batch's ``text`` column straight from its Arrow buffers (offsets,
UTF-8 data, validity) and scans each row in place, with each miner's
per-row semantics:

- email: the ``@``-anchored FSM of ``EmailMiner.find`` (left run of
  ``[\\w.-]``, maximal domain run, a dot in the domain, last label >= 2
  chars, the ``end_last`` refusal);
- URL / date / phone: leftmost-first, non-overlapping matches of their
  fixed patterns, written out as the finite choices they are;
- dictionary: the whitespace-token walk of ``DictionaryMiner.find`` with
  its BOF-delimiter trim, candidate first bytes, and the prefix-ratio test
  ``max lcp(token, word) / len(token) >= threshold`` — over
  ``FlatDictionary``'s sorted blob + offsets: bisect, then the lcp with
  both neighbours.

Each row is scanned on its own, so no span crosses a row and no BOF patch
is needed.  The kernel scans ASCII rows only (byte == codepoint, and every
predicate is a 128-entry table computed from the Python engine's own
predicates); a row with a byte >= 0x80 is returned in ``rest`` for the
Python engine, and NULL rows give nothing.  It returns numpy arrays
``(row, miner, byte start, byte end)`` in the per-row engine's order: row,
then miner, then start.  Parity with the Python engine is asserted by
``tests/test_std_kernel.py``; ``NXR_NO_CC=1`` or no compiler leaves the
Python engine in charge (``stages/miner_pool.scan_batch``).
"""

from __future__ import annotations

import ctypes

import numpy as np
import pyarrow as pa

from nativeextractor_ray.miners.builtin import (
    DateMiner,
    EmailMiner,
    PhoneMiner,
    UrlMiner,
    _email_valid,
)
from nativeextractor_ray.miners.cc import Kernel, text_buffers
from nativeextractor_ray.miners.ner import DictionaryMiner
from nativeextractor_ray.unicode import is_delimiter

_C_SRC = r"""
#include <stdint.h>
#include <string.h>

#define SPACE 1  /* re's \s == str.isspace() on ASCII: the token boundary */
#define DELIM 2  /* unicode.is_delimiter: the NER BOF trim */
#define EMAIL 4  /* [\w.-]: the email FSM's valid chars */
#define D(c) ((unsigned)((c) - '0') < 10u)
/* some byte of an ASCII word is a digit ("hasbetween", Bit Twiddling Hacks) */
#define B8(c) (0x0101010101010101ULL * (c))
#define HAS_DIGIT(x) ((B8(127 + 0x3A) - ((x) & B8(127)) & ~(x) \
                       & (((x) & B8(127)) + B8(127 - 0x2F))) & B8(128))

enum { K_EMAIL, K_URL, K_DATE, K_PHONE, K_DICT };

typedef struct { int64_t *out; long cap, m; } sink;  /* cap records of 4 */

static void emit(sink *s, long row, long k, long a, long b) {
    if (s->m < s->cap) {
        int64_t *o = s->out + 4 * s->m;
        o[0] = row; o[1] = k; o[2] = a; o[3] = b;
    }
    s->m++;
}

typedef struct {
    const uint8_t *blob; const int64_t *off; long nw;
    const uint8_t *first;  /* 256 entries: some word starts with the byte */
    double thr;
} dict;

static long lcp(const uint8_t *a, long na, const uint8_t *b, long nb) {
    long n = na < nb ? na : nb, i = 0;
    while (i < n && a[i] == b[i]) i++;
    return i;
}

/* PatriciaTrie.search == max lcp over the words == the larger lcp with the
   two bisect neighbours of the token in byte order */
static int accepts(const dict *d, const uint8_t *tok, long len) {
    long lo = 0, hi = d->nw, best = 0;
    while (lo < hi) {
        long mid = (lo + hi) / 2, wl = d->off[mid + 1] - d->off[mid];
        int c = memcmp(d->blob + d->off[mid], tok, wl < len ? wl : len);
        if (c < 0 || (c == 0 && wl < len)) lo = mid + 1; else hi = mid;
    }
    if (lo < d->nw)
        best = lcp(tok, len, d->blob + d->off[lo], d->off[lo + 1] - d->off[lo]);
    if (lo > 0) {
        long l = lcp(tok, len, d->blob + d->off[lo - 1], d->off[lo] - d->off[lo - 1]);
        if (l > best) best = l;
    }
    return (double)best / (double)len >= d->thr;
}

static void email(const uint8_t *t, long n, const uint8_t *ct, sink *s, long r, long k) {
    long end_last = 0;
    const uint8_t *p = memchr(t, '@', n);
    while (p) {
        long at = p - t, e = at + 1, j = at, dot = -1;
        while (e < n && (ct[t[e]] & EMAIL)) { if (t[e] == '.') dot = e; e++; }
        while (j > 0 && (ct[t[j - 1]] & EMAIL)) j--;
        if (j < at && dot >= 0 && e - dot - 1 >= 2 && j >= end_last) {
            emit(s, r, k, j, e);
            end_last = e;
        }
        p = e < n ? memchr(t + e, '@', n - e) : NULL;
    }
}

/* https?://[^\s]+ — found through its "://": each one can only end the
   "http" or "https" that starts a match, and the starts rise with it */
static void url(const uint8_t *t, long n, const uint8_t *ct, sink *s, long r, long k) {
    long c = 0;
    const uint8_t *p;
    while (c < n && (p = memchr(t + c, ':', n - c))) {
        long i = -1, q;
        c = p - t;
        if (n - c < 4 || t[c + 1] != '/' || t[c + 2] != '/' || (ct[t[c + 3]] & SPACE)) {
            c++;
            continue;
        }
        if (c >= 5 && memcmp(t + c - 5, "https", 5) == 0) i = c - 5;
        else if (c >= 4 && memcmp(t + c - 4, "http", 4) == 0) i = c - 4;
        if (i < 0) { c++; continue; }
        q = c + 3;
        while (q < n && !(ct[t[q]] & SPACE)) q++;
        emit(s, r, k, i, q);
        c = q;
    }
}

/* [0-9]{4}-[0-9]{2}-[0-9]{2}|[0-9]{1,2}\.[0-9]{1,2}\.[0-9]{4}: every
   backtracking choice is forced (a greedy digit taken is never a '.'), so
   one forward check per start decides it */
static void date(const uint8_t *t, long n, sink *s, long r, long k) {
    long i = 0;
    while (i < n) {
        long e = -1, p;
        uint64_t w;
        /* skip 8 digit-free bytes at a time (exact on ASCII bytes) */
        while (n - i >= 8 && (memcpy(&w, t + i, 8), !HAS_DIGIT(w))) i += 8;
        while (i < n && !D(t[i])) i++;
        if (i == n) return;
        if (n - i >= 10 && D(t[i + 1]) && D(t[i + 2]) && D(t[i + 3]) && t[i + 4] == '-'
            && D(t[i + 5]) && D(t[i + 6]) && t[i + 7] == '-' && D(t[i + 8]) && D(t[i + 9]))
            e = i + 10;
        else {
            p = i + 1;
            if (p < n && D(t[p])) p++;
            if (p + 1 < n && t[p] == '.' && D(t[p + 1])) {
                p += 2;
                if (p < n && D(t[p])) p++;
                if (n - p >= 5 && t[p] == '.' && D(t[p + 1]) && D(t[p + 2])
                    && D(t[p + 3]) && D(t[p + 4]))
                    e = p + 5;
            }
        }
        if (e < 0) { i++; continue; }
        emit(s, r, k, i, e);
        i = e;
    }
}

/* \+[0-9]{9,12} */
static void phone(const uint8_t *t, long n, sink *s, long r, long k) {
    long i = 0;
    const uint8_t *p;
    while (i < n && (p = memchr(t + i, '+', n - i))) {
        long d = 0;
        i = p - t;
        while (d < 12 && i + 1 + d < n && D(t[i + 1 + d])) d++;
        if (d >= 9) { emit(s, r, k, i, i + 1 + d); i += 1 + d; }
        else i++;
    }
}

/* DictionaryMiner.find: the BOF token loses a leading non-space delimiter;
   then every token whose first byte starts some word and that follows
   whitespace (or BOF) is tested whole.  The candidate test is one
   table AND per byte, a branch taken only at candidates. */
static void ner(const uint8_t *t, long n, const uint8_t *ct, const dict *d,
                sink *s, long r, long k) {
    long p = 0;
    if (n && (ct[t[0]] & DELIM) && !(ct[t[0]] & SPACE)) {
        long e = 1;
        while (e < n && !(ct[t[e]] & SPACE)) e++;
        if (e > 1 && accepts(d, t + 1, e - 1)) emit(s, r, k, 1, e);
        p = e;
    } else if (n && d->first[t[0]]) {
        p = 1;
        while (p < n && !(ct[t[p]] & SPACE)) p++;
        if (accepts(d, t, p)) emit(s, r, k, 0, p);
    }
    for (p = p > 1 ? p : 1; p < n; p++) {
        if (d->first[t[p]] & ct[t[p - 1]] & SPACE) {
            long e = p + 1;
            while (e < n && !(ct[t[e]] & SPACE)) e++;
            if (accepts(d, t + p, e - p)) emit(s, r, k, p, e);
            p = e;
        }
    }
}

/* Scan rows [0, nrows) of an Arrow string column.  Writes up to cap span
   records (row, miner, byte start, byte end) into out and returns their
   count, which may exceed cap.  Rows with a byte >= 0x80 are flagged in
   rest[] and not scanned. */
long nxr_std_scan(const int64_t *off, const uint8_t *data,
                  const uint8_t *valid, long voff, long nrows,
                  const int32_t *kinds, long nk, const uint8_t *ct,
                  const void *const *blobs, const void *const *woffs,
                  const int64_t *nws, const void *const *firsts,
                  const double *thrs, uint8_t *rest, int64_t *out, long cap) {
    sink s = {out, cap, 0};
    dict ds[nk > 0 ? nk : 1];
    for (long k = 0; k < nk; k++) {
        ds[k].blob = blobs[k]; ds[k].off = woffs[k]; ds[k].nw = nws[k];
        ds[k].first = firsts[k]; ds[k].thr = thrs[k];
    }
    for (long r = 0; r < nrows; r++) {
        long v = voff + r, n = off[r + 1] - off[r];
        const uint8_t *t = data + off[r];
        uint64_t hi = 0, w;
        long i = 0;
        if (valid && !((valid[v >> 3] >> (v & 7)) & 1)) continue;
        for (; i + 8 <= n; i += 8) { memcpy(&w, t + i, 8); hi |= w; }
        for (; i < n; i++) hi |= t[i];
        if (hi & 0x8080808080808080ULL) { rest[r] = 1; continue; }
        for (long k = 0; k < nk; k++) {
            switch (kinds[k]) {
            case K_EMAIL: email(t, n, ct, &s, r, k); break;
            case K_URL: url(t, n, ct, &s, r, k); break;
            case K_DATE: date(t, n, &s, r, k); break;
            case K_PHONE: phone(t, n, &s, r, k); break;
            default: ner(t, n, ct, &ds[k], &s, r, k);
            }
        }
    }
    return s.m;
}
"""

_P = ctypes.c_void_p
_KERNEL = Kernel("std", _C_SRC, {
    "nxr_std_scan": (ctypes.c_long, [
        _P, _P,                       # off (int64), data
        _P, ctypes.c_long, ctypes.c_long,  # validity bitmap, bit offset, nrows
        _P, ctypes.c_long, _P,        # kinds, n miners, ctype table
        _P, _P, _P, _P, _P,           # blobs, word offsets, n words, firsts, thresholds
        _P, _P, ctypes.c_long,        # rest flags, out, cap
    ]),
})

#: miner type -> kernel kind (exact types: a subclass may change ``find``)
_KINDS = {EmailMiner: 0, UrlMiner: 1, DateMiner: 2, PhoneMiner: 3, DictionaryMiner: 4}


def _ctype_table() -> np.ndarray:
    t = np.zeros(256, np.uint8)
    for b in range(128):
        c = chr(b)
        t[b] = (c.isspace() * 1) | (is_delimiter(c) * 2) | (_email_valid(c) * 4)
    return t


_CTYPE = _ctype_table()


def available() -> bool:
    return _KERNEL.available()


def eligible(miners) -> bool:
    """True iff the kernel implements every miner: the five standard types,
    dictionaries with a prefix-ratio threshold > 0."""
    return all(type(m) in _KINDS and (type(m) is not DictionaryMiner or m.threshold > 0)
               for m in miners)


def scan(miners, text: pa.Array):
    """Run the kernel over a ``string`` / ``large_string`` array.  Returns
    ``(rows, lab, b0, b1, rest)``: int64 span arrays in the per-row
    engine's order and the rows left to the Python engine (non-ASCII)."""
    valid, voff, offs, data = text_buffers(text)
    nk = len(miners)
    kinds = np.asarray([_KINDS[type(m)] for m in miners], np.int32)
    keep = []  # the dictionaries' numpy buffers, alive through the call
    ptrs = {k: (_P * max(nk, 1))() for k in ("blob", "off", "first")}
    nws = np.zeros(max(nk, 1), np.int64)
    thrs = np.zeros(max(nk, 1), np.float64)
    for k, m in enumerate(miners):
        if kinds[k] == _KINDS[DictionaryMiner]:
            flat = m.flat
            first = np.zeros(256, np.uint8)
            first[list(flat.first_bytes())] = 1
            blob = np.ascontiguousarray(flat.blob, np.uint8)
            woff = np.ascontiguousarray(flat.offsets, np.int64)
            keep += [first, blob, woff]
            ptrs["blob"][k], ptrs["off"][k], ptrs["first"][k] = (
                blob.ctypes.data, woff.ctypes.data, first.ctypes.data)
            nws[k], thrs[k] = len(woff) - 1, m.threshold
    rest = np.zeros(len(text), np.uint8)
    rows, lab, b0, b1 = _KERNEL.columns(
        "nxr_std_scan", 4, 1024 + int(offs[-1] - offs[0]) // 32,
        offs.ctypes.data, data.ctypes.data,
        None if valid is None else valid.ctypes.data, voff, len(text),
        kinds.ctypes.data, nk, _CTYPE.ctypes.data,
        ptrs["blob"], ptrs["off"], nws.ctypes.data, ptrs["first"], thrs.ctypes.data,
        rest.ctypes.data)
    return rows, lab, b0, b1, np.flatnonzero(rest)
