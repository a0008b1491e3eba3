"""Native execution for the glob miner.

Same economics as the regex kernel (``miners/dfacc.py``): the reference
ships compiled matchers, we ship ONE generic kernel compiled once per
machine and feed it per-pattern *data*.  The glob interpreter
(``glob.py:_run_seq`` + the ``base.scan`` loop, themselves re-derivations
of ``/root/reference/src/miners/glob_entities.c:124-260`` and
``src/extractor.c:55-93``) cannot ride the regex DFA kernel: glob's lazy
mid-pattern ``*`` (whose tail re-enters the matcher *including the token
skip*) and ``retnul`` failure (skip the rest of the token, not one
position) are attempt-control semantics, not a regular language accepted
by a maximal-run DFA — ``a*b`` on ``"a b b"`` must stop at the first
``b``, where a maximal run overshoots.  So the kernel below is a direct C
mirror of the interpreter: the compiled ``_Seq`` tree is flattened to
int32 op/seq tables, character classes to one sorted uint32 pool
(binary-searched), and the delimiter predicate to a byte table over all
codepoints (built once per machine from ``unicode.is_delimiter`` and
cached next to the .so, keyed by the unicodedata version).

Parity with the pure-Python interpreter is asserted by
``tests/test_glob_parity.py`` (the reference's own cmocka cases plus a
randomized dual-engine sweep).  The shared loader (``miners/cc.py``)
builds it; no compiler (or ``NXR_NO_CC=1``) falls back to the Python
engine, and ``tests/test_native_kernels.py`` fails when a compiler is
present but the kernel does not build.
"""

from __future__ import annotations

import ctypes
import os
import tempfile
import unicodedata

import numpy as np

from nativeextractor_ray.miners.cc import Kernel

_C_SRC = r"""
#include <stdint.h>

typedef struct {
    const uint32_t *txt; long n;
    const int32_t *seqs;   /* (n_seqs, 3): ops_off, n_ops, swd          */
    const int32_t *ops;    /* (n_ops, 4): kind, cls_off, cls_len, child */
    const uint32_t *cls;   /* sorted class pool                          */
    const uint8_t *delim;  /* 0x110000-entry predicate table             */
} gctx;

static int in_cls(const uint32_t *cls, long off, long len, uint32_t c) {
    long lo = off, hi = off + len;
    while (lo < hi) { long mid = (lo + hi) / 2;
        if (cls[mid] < c) lo = mid + 1; else hi = mid; }
    return lo < off + len && cls[lo] == c;
}

static int is_delim(const gctx *g, uint32_t c) {
    return c < 0x110000 ? g->delim[c] : 0;
}

/* retnul (glob_entities.c:29-37): skip non-delimiters, consume one delim */
static long skip_fail(const gctx *g, long i) {
    while (i < g->n && !is_delim(g, g->txt[i])) i++;
    return i < g->n ? i + 1 : i;
}

/* Mirror of glob.py:_run_seq — returns the stream cursor; *ok / *start /
   *end_mark mirror the Python (matched, start, end_mark) triple with -1
   for None.  kind: 0=lit/set 1=any 2=star_last 3=star(child, terminal). */
static long run_seq(const gctx *g, long i, long seq_id,
                    int *ok, long *start, long *end_mark) {
    const int32_t *s = g->seqs + 3 * seq_id;
    long ops_off = s[0], n_ops = s[1];
    long n = g->n;
    *ok = 0; *start = -1; *end_mark = -1;
    if (!s[2])  /* !swd: skip to next token start (glob_entities.c:130-133) */
        while (i < n && is_delim(g, g->txt[i])) i++;
    if (i >= n) return i;  /* retnul(!can_move): no-op skip at EOF */
    long st = i;
    for (long k = 0; k < n_ops; k++) {
        const int32_t *op = g->ops + 4 * (ops_off + k);
        switch (op[0]) {
        case 0:  /* lit / set */
            if (i < n && in_cls(g->cls, op[1], op[2], g->txt[i])) { i++; break; }
            return skip_fail(g, i);
        case 1:  /* ? — exactly one non-delimiter (glob_entities.c:57-63) */
            if (i < n && !is_delim(g, g->txt[i])) { i++; break; }
            return skip_fail(g, i);
        case 2:  /* trailing * — consume to end of token (:153-159) */
            while (i < n && !is_delim(g, g->txt[i])) i++;
            break;
        default: {  /* mid *: lazy recursive tail match (:161-191) */
            for (;;) {
                int cok; long cst, cend;
                long ccur = run_seq(g, i, op[3], &cok, &cst, &cend);
                if (cok) { *ok = 1; *start = st; *end_mark = cend; return ccur; }
                if (i >= n) return i;
                i++;  /* reset_pos + advance */
                if (i < n && is_delim(g, g->txt[i])) return skip_fail(g, i);
            }
        }
        }
    }
    /* glob consumed: mark_end, then the token must end here (:254-257) */
    *end_mark = i;
    if (i < n) {
        if (is_delim(g, g->txt[i])) { *ok = 1; *start = st; return i + 1; }
        return skip_fail(g, i);  /* end_mark stays set — scan uses it */
    }
    *ok = 1; *start = st;
    return i;
}

/* Mirror of base.scan + GlobMiner._matcher_at: the extractor scan loop
   (extractor.c:55-93) with per-miner pos_last/end_last and the
   allow_empty=false guard (miner.c:261-263). */
long nxr_glob_scan(const uint32_t *txt, long n,
                   const int32_t *seqs, const int32_t *ops,
                   const uint32_t *cls, const uint8_t *delim,
                   int64_t *out, long cap) {
    gctx g = {txt, n, seqs, ops, cls, delim};
    long m = 0, i = 0, pos_last = 0, end_last = 0;
    while (i < n) {
        if (i >= pos_last && i >= end_last) {
            int ok; long start, end_mark;
            long cursor = run_seq(&g, i, 0, &ok, &start, &end_mark);
            long em = end_mark < 0 ? 0 : end_mark;
            pos_last = em > cursor ? em : cursor;
            if (ok && start != end_mark && start >= end_last) {
                if (m < cap) { out[2 * m] = start; out[2 * m + 1] = end_mark; }
                m++;
                end_last = end_mark;
            }
            i = cursor > i ? cursor : i + 1;
        } else i++;
    }
    return m;
}
"""

_KERNEL = Kernel("glob", _C_SRC, {
    "nxr_glob_scan": (ctypes.c_long, [
        ctypes.c_void_p, ctypes.c_long,    # txt, n
        ctypes.c_void_p, ctypes.c_void_p,  # seqs, ops
        ctypes.c_void_p, ctypes.c_void_p,  # cls, delim
        ctypes.c_void_p, ctypes.c_long,    # out, cap
    ]),
})
_delim_tbl: np.ndarray | None = None


def available() -> bool:
    return _KERNEL.available()


def delim_table() -> np.ndarray:
    """uint8[0x110000] mirror of ``unicode.is_delimiter`` (miner.c:207-211).

    ~0.4 s to derive from unicodedata, so it's built once per machine and
    cached in /tmp keyed by the unicodedata version; loading is one 1.1 MB
    read.  Every Ray worker process shares the cached file."""
    global _delim_tbl
    if _delim_tbl is not None:
        return _delim_tbl
    path = os.path.join(
        tempfile.gettempdir(),
        f"nxr_delim_{unicodedata.unidata_version}.npy",
    )
    try:
        tbl = np.load(path)
        if tbl.shape != (0x110000,) or tbl.dtype != np.uint8:
            raise ValueError
    except Exception:
        tbl = np.zeros(0x110000, dtype=np.uint8)
        cat = unicodedata.category
        for cp in range(0x110000):
            c = cat(chr(cp))
            if c[0] in "PSZ" or c == "Cc":
                tbl[cp] = 1
        try:
            fd, tmp = tempfile.mkstemp(dir=tempfile.gettempdir(), suffix=".npy")
            with os.fdopen(fd, "wb") as f:
                np.save(f, tbl)
            os.replace(tmp, path)
        except Exception:
            pass
    _delim_tbl = np.ascontiguousarray(tbl)
    return _delim_tbl


def compile_program(seq) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a ``glob._Seq`` tree to (seqs, ops, cls) kernel tables.

    Each sequence's ops are contiguous; a mid-``*`` op's child sequence is
    appended after its parent and referenced by id (op[3])."""
    seqs: list[list[int]] = []
    ops: list[list[int]] = []
    cls_pool: list[int] = []

    def add_seq(s) -> int:
        sid = len(seqs)
        seqs.append([0, 0, int(s.swd)])
        rows: list[list[int]] = []
        pending: list[tuple[int, object]] = []
        for op in s.ops:
            kind = op[0]
            if kind in ("lit", "set"):
                arr = sorted(ord(c) for c in op[1])
                off = len(cls_pool)
                cls_pool.extend(arr)
                rows.append([0, off, len(arr), -1])
            elif kind == "any":
                rows.append([1, 0, 0, -1])
            elif kind == "star_last":
                rows.append([2, 0, 0, -1])
            else:  # ('star', child) — always terminal
                pending.append((len(rows), op[1]))
                rows.append([3, 0, 0, -1])
        ops_off = len(ops)
        ops.extend(rows)
        seqs[sid] = [ops_off, len(rows), int(s.swd)]
        for idx, child in pending:
            ops[ops_off + idx][3] = add_seq(child)
        return sid

    add_seq(seq)
    return (
        np.ascontiguousarray(np.asarray(seqs, dtype=np.int32)),
        np.ascontiguousarray(np.asarray(ops, dtype=np.int32).reshape(-1, 4)),
        np.ascontiguousarray(np.asarray(cls_pool, dtype=np.uint32)),
    )


def scan(text: str, prog) -> tuple[np.ndarray, np.ndarray]:
    """Run the native glob scan; returns (starts, ends) int64 codepoint
    spans.  ``prog`` is a :func:`compile_program` result."""
    seqs, ops, cls = prog
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    n = len(cp)
    return _KERNEL.columns(
        "nxr_glob_scan", 2, max(16, n // 16),
        cp.ctypes.data, n, seqs.ctypes.data, ops.ctypes.data,
        cls.ctypes.data, delim_table().ctypes.data)
