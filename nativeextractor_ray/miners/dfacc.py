"""Native execution for the reference-dialect regex DFA — one of the three
native scan kernels.

The reference's engine is native: regexes become DFAs and then C
(``src/regex_generator.c:1212-1258``, README "Native RegExps"), and its
hand-written FSM miners are C too (``naive_email_miner.c:29-148``).  The
same economics here comes from three generic kernels, each ONE C source
compiled once per machine by the shared loader (``miners/cc.py``) and fed
per-pattern *data* as numpy arrays, never per-pattern codegen:

- this module: a table walk over the powerset DFA that
  :class:`CompiledRegex` materializes, for every dialect regex;
- ``miners/globcc.py``: a direct C mirror of the glob interpreter;
- ``miners/stdcc.py``: the five standard miners (email FSM, URL, date,
  phone, dictionary NER) in one pass per row over an Arrow text column.

The DFA kernel implements exactly the scan-loop semantics of
``extractor.c:55-93`` + the maximal-run acceptance of the generated matchers
(run to the first dead transition, then test acceptance at the stop state;
position 0 uses the BOF start state and — exactly like the NFA oracle — is
attempted only once: a failed BOF attempt advances, never retries the same
position with the mid-state closure).

Parity with the pure-Python DFA/NFA walk is asserted by
``tests/test_regex_dfa.py``; ``tests/test_native_kernels.py`` fails when a
compiler is present but a kernel does not build.  No compiler (or
``NXR_NO_CC=1``) falls back to the Python engines.
"""

from __future__ import annotations

import ctypes

import numpy as np

from nativeextractor_ray.miners.cc import Kernel

_C_SRC = r"""
#include <stdint.h>

/* Scan `cls` (one DFA input-class id per codepoint) left to right with the
   reference's non-overlap semantics: a successful attempt emits and resumes
   at its end, a failed attempt advances one position.  An attempt runs the
   DFA until the first dead transition (or end of text) and accepts iff the
   stop state is accepting (acc_eof at end of text, acc_mid otherwise).
   Returns the number of matches found; (start, end) pairs are written to
   `out` up to `cap` matches.  Empty matches never emit. */
long nxr_scan(const int32_t *cls, long n,
              const int16_t *trans, long ncls,
              const uint8_t *acc_mid, const uint8_t *acc_eof,
              long start_bof, long start_mid,
              int64_t *out, long cap) {
    long m = 0;
    long i = 0;
    long start_state = start_bof;
    while (i < n) {
        long cur = start_state;
        long j = i;
        while (j < n) {
            int16_t nx = trans[cur * ncls + cls[j]];
            if (nx < 0) break;
            cur = nx;
            j++;
        }
        int ok = (j == n) ? acc_eof[cur] : acc_mid[cur];
        if (ok && j > i) {
            if (m < cap) { out[2 * m] = i; out[2 * m + 1] = j; }
            m++;
            i = j;
        } else {
            i++;
        }
        start_state = start_mid;
    }
    return m;
}

/* ASCII fast path: scan raw UTF-8 bytes with an inline byte->class LUT —
   no intermediate class array at all.  Byte positions == codepoint
   positions for ASCII text, so spans come out in both coordinate systems
   at once.  Semantics identical to nxr_scan. */
long nxr_scan8(const uint8_t *txt, long n, const int32_t *lut,
               const int16_t *trans, long ncls,
               const uint8_t *acc_mid, const uint8_t *acc_eof,
               long start_bof, long start_mid,
               int64_t *out, long cap) {
    long m = 0;
    long i = 0;
    long start_state = start_bof;
    while (i < n) {
        long cur = start_state;
        long j = i;
        while (j < n) {
            int16_t nx = trans[cur * ncls + lut[txt[j]]];
            if (nx < 0) break;
            cur = nx;
            j++;
        }
        int ok = (j == n) ? acc_eof[cur] : acc_mid[cur];
        if (ok && j > i) {
            if (m < cap) { out[2 * m] = i; out[2 * m + 1] = j; }
            m++;
            i = j;
        } else {
            i++;
        }
        start_state = start_mid;
    }
    return m;
}
"""

_KERNEL = Kernel("dfa", _C_SRC, {
    "nxr_scan": (ctypes.c_long, [
        ctypes.c_void_p, ctypes.c_long,    # cls, n
        ctypes.c_void_p, ctypes.c_long,    # trans, ncls
        ctypes.c_void_p, ctypes.c_void_p,  # acc_mid, acc_eof
        ctypes.c_long, ctypes.c_long,      # start_bof, start_mid
        ctypes.c_void_p, ctypes.c_long,    # out, cap
    ]),
    "nxr_scan8": (ctypes.c_long, [
        ctypes.c_char_p, ctypes.c_long,    # txt, n
        ctypes.c_void_p,                   # lut (256 x int32)
        ctypes.c_void_p, ctypes.c_long,    # trans, ncls
        ctypes.c_void_p, ctypes.c_void_p,  # acc_mid, acc_eof
        ctypes.c_long, ctypes.c_long,      # start_bof, start_mid
        ctypes.c_void_p, ctypes.c_long,    # out, cap
    ]),
})


def available() -> bool:
    return _KERNEL.available()


def scan(cls_arr: np.ndarray, trans: np.ndarray, acc_mid: np.ndarray,
         acc_eof: np.ndarray, start_bof: int, start_mid: int):
    """Run the native scan; returns (starts, ends) int64 arrays.

    ``cls_arr`` int32 class ids; ``trans`` a C-contiguous int16
    ``(n_states, n_classes)`` table; acc arrays uint8."""
    n = len(cls_arr)
    return _KERNEL.columns(
        "nxr_scan", 2, max(16, n // 8),
        cls_arr.ctypes.data, n, trans.ctypes.data, trans.shape[1],
        acc_mid.ctypes.data, acc_eof.ctypes.data, start_bof, start_mid)


def scan_ascii(txt: bytes, lut: np.ndarray, trans: np.ndarray,
               acc_mid: np.ndarray, acc_eof: np.ndarray,
               start_bof: int, start_mid: int):
    """ASCII path: the kernel maps bytes→classes inline via ``lut``
    (int32[256]), so no class array is ever materialized — important
    because large fresh-process numpy temporaries hit multi-second
    page-fault storms on some hosts (measured: an 8 M-element gather
    costing 2-4 s in a cold Ray worker, 30 ms warm)."""
    n = len(txt)
    return _KERNEL.columns(
        "nxr_scan8", 2, max(16, n // 32),
        txt, n, lut.ctypes.data, trans.ctypes.data, trans.shape[1],
        acc_mid.ctypes.data, acc_eof.ctypes.data, start_bof, start_mid)
