"""Deterministic transcripts derivation — the engine's input table.

The target input (BASELINE.json ``input_hint``) is a Parquet table of
multi-turn transcripts ``(conv_id, turn_idx, role, text, tool, ts)``.  The
driver's test data has no such table, so we derive one *deterministically*
from ``documents.parquet`` (doc_id, text) with a pure function of
``doc_id``, defined ONCE here and rendered three ways so the correctness
oracle sees the exact same table:

- the scalar spec :func:`_enrich` (per row, Python; it runs when the
  kernel cannot, under ``NXR_NO_CC=1`` or without a compiler);
- a C kernel (``_C_SRC``, loaded by ``miners/cc.Kernel``) that writes the
  ``text`` column of :func:`derive_transcripts_table` straight into Arrow
  buffers, lengths first, then bytes;
- the DuckDB SQL CTE :data:`TRANSCRIPTS_SQL`.

``tests/test_transcripts_parity.py`` asserts that all three agree.

Design notes for scale:
- the derivation is a stateless per-batch map (no shuffle);
- one conversation is made deliberately hot (``c_hot`` collects ~5% of all
  turns) so conv-scoped stages must handle skew;
- ``doc_id % 13 == 7`` rows share one constant text → real duplicate groups
  for the dedup operators;
- enrichment embeds emails / URLs / dates / phones / dictionary names (and
  near-misses straddling the NER 0.75 prefix-ratio threshold) at known
  positions, giving computable golden mentions at any scale factor.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pyarrow as pa

from nativeextractor_ray.miners.cc import Kernel, text_buffers

# dictionary of person names; first letters chosen to not collide with the
# documents word-salad vocabulary (so prefix-ratio hits are intentional)
DICT_NAMES = [
    "erin", "ivan", "nora", "xenia", "yuri",
    "zelda", "uma", "elena", "nina", "ulrich",
]

TOOLS = ["search", "", "code", "", "browse"]  # indexed by doc_id % 5
ROLES = ["user", "assistant", "tool"]         # indexed by doc_id % 3

DUP_TEXT = "the quick brown fox jumps over the lazy dog"

EPOCH_US = np.datetime64("2024-01-01T00:00:00", "us")

#: conv_id by ``doc_id % 97``: the hot conversation takes residues 0-4
CONV_IDS = ["c_hot" if k < 5 else f"c{k}" for k in range(97)]


def _enrich(d: int, base: str | None) -> str | None:
    """Append deterministic entity snippets to a turn text (``None``: a
    NULL text, which stays NULL unless the row takes ``DUP_TEXT``).  The
    spec: the C kernel and the SQL rendering below MUST stay in lockstep
    with it."""
    if base is None and d % 13 != 7:
        return None
    parts = [DUP_TEXT if d % 13 == 7 else base]
    if d % 3 == 0:
        parts.append(" contact " + DICT_NAMES[d % 10])
    if d % 4 == 0:
        parts.append(f" email user{d % 50}@example.com")
    if d % 4 == 2:
        parts.append(f" email {DICT_NAMES[(d + 3) % 10]}.{d % 7}@mail.example.org")
    if d % 5 == 0:
        parts.append(f" visit https://svc{d % 20}.example.org/p/{d}")
    if d % 6 == 0:
        parts.append(f" on 2024-03-{(d % 28) + 1:02d}")
    if d % 6 == 3:
        parts.append(f" on {(d % 28) + 1}.{(d % 12) + 1}.2024")
    if d % 11 == 0:
        parts.append(f" call +4201{d % 100000000:08d}")
    if d % 9 == 0:
        parts.append(" ping " + DICT_NAMES[d % 10] + "x")   # 0.8 ≥ 0.75 → hit
    if d % 9 == 5:
        parts.append(" ping " + DICT_NAMES[d % 10] + "xx")  # 0.667 < 0.75 → miss
    return "".join(parts)


_C_SRC = r"""
#include <stdint.h>
#include <string.h>

static const char *const NAMES[] = {@NAMES@};
static const long NAME_LEN[] = {@NAME_LENS@};
static const char DUP[] = "@DUP@";

/* counts bytes when p is NULL, writes them otherwise: one renderer for
   both passes */
typedef struct { uint8_t *p; int64_t n; } out;

static void put(out *w, const void *s, long n) {
    if (w->p) memcpy(w->p + w->n, s, n);
    w->n += n;
}
#define LIT(w, s) put(w, s, sizeof(s) - 1)

static int64_t fmod_(int64_t d, int64_t k) {  /* Python's floor % */
    int64_t m = d % k;
    return m < 0 ? m + k : m;
}

static void num(out *w, uint64_t v, int width) {  /* zero-padded decimal */
    char b[24];
    int i = 24;
    do { b[--i] = (char)('0' + v % 10); v /= 10; } while (v);
    while (24 - i < width) b[--i] = '0';
    put(w, b + i, 24 - i);
}

static void name(out *w, int64_t i) { put(w, NAMES[i], NAME_LEN[i]); }

static void render(out *w, int64_t d, const uint8_t *base, long blen) {
    int64_t m4 = fmod_(d, 4), m6 = fmod_(d, 6), m9 = fmod_(d, 9), m10 = fmod_(d, 10);
    if (fmod_(d, 13) == 7) LIT(w, DUP); else put(w, base, blen);
    if (fmod_(d, 3) == 0) { LIT(w, " contact "); name(w, m10); }
    if (m4 == 0) { LIT(w, " email user"); num(w, fmod_(d, 50), 0); LIT(w, "@example.com"); }
    if (m4 == 2) {
        LIT(w, " email "); name(w, (m10 + 3) % 10); LIT(w, ".");
        num(w, fmod_(d, 7), 0); LIT(w, "@mail.example.org");
    }
    if (fmod_(d, 5) == 0) {
        LIT(w, " visit https://svc"); num(w, fmod_(d, 20), 0); LIT(w, ".example.org/p/");
        if (d < 0) LIT(w, "-");
        num(w, d < 0 ? 0 - (uint64_t)d : (uint64_t)d, 0);
    }
    if (m6 == 0) { LIT(w, " on 2024-03-"); num(w, fmod_(d, 28) + 1, 2); }
    if (m6 == 3) {
        LIT(w, " on "); num(w, fmod_(d, 28) + 1, 0); LIT(w, ".");
        num(w, fmod_(d, 12) + 1, 0); LIT(w, ".2024");
    }
    if (fmod_(d, 11) == 0) { LIT(w, " call +4201"); num(w, fmod_(d, 100000000), 8); }
    if (m9 == 0) { LIT(w, " ping "); name(w, m10); LIT(w, "x"); }
    if (m9 == 5) { LIT(w, " ping "); name(w, m10); LIT(w, "xx"); }
}

/* NULL text stays NULL, except on the DUP_TEXT rows */
static int is_null(const uint8_t *valid, long voff, long r, int64_t d) {
    return valid && !((valid[(voff + r) >> 3] >> ((voff + r) & 7)) & 1) && fmod_(d, 13) != 7;
}

/* buf == NULL, pass 1: row r's bytes are [out_off[r], out_off[r + 1]),
   from out_off[0] on; buf set, pass 2: the bytes.  ok[r] = 0 on a NULL row */
void nxr_derive(const int64_t *d, const int64_t *off, const uint8_t *data,
                const uint8_t *valid, long voff, long n,
                int64_t *out_off, uint8_t *ok, uint8_t *buf) {
    for (long r = 0; r < n; r++) {
        out w = {buf ? buf + out_off[r] : NULL, 0};
        if (is_null(valid, voff, r, d[r])) ok[r] = 0;
        else render(&w, d[r], data + off[r], off[r + 1] - off[r]);
        if (!buf) out_off[r + 1] = out_off[r] + w.n;
    }
}
"""


def _c_source() -> str:
    quoted = ", ".join(f'"{n}"' for n in DICT_NAMES)
    lens = ", ".join(str(len(n.encode())) for n in DICT_NAMES)
    return (_C_SRC.replace("@NAMES@", quoted).replace("@NAME_LENS@", lens)
            .replace("@DUP@", DUP_TEXT))


_P = ctypes.c_void_p
_KERNEL = Kernel("derive", _c_source(), {
    "nxr_derive": (None, [_P, _P, _P, _P, ctypes.c_long, ctypes.c_long, _P, _P, _P]),
})

#: the most bytes a ``string`` (int32-offset) column holds; beyond it the
#: kernel emits ``large_string``
_STRING_MAX = 2**31 - 1


def enrich_text(doc_id: np.ndarray, text: pa.Array | pa.ChunkedArray) -> pa.Array:
    """The ``text`` column: :func:`_enrich` over int64 ``doc_id`` and a
    ``string`` / ``large_string`` column, in the C kernel when it loads and
    in the scalar spec otherwise (``NXR_NO_CC=1``, no compiler)."""
    lib = _KERNEL.lib()
    if lib is None:
        return pa.array(map(_enrich, doc_id.tolist(), text.to_pylist()), pa.string())
    chunks = text.chunks if isinstance(text, pa.ChunkedArray) else [text]
    d = np.ascontiguousarray(doc_id, np.int64)
    n = len(d)
    out_off = np.zeros(n + 1, np.int64)
    ok = np.ones(n, np.uint8)
    keep, calls, r0 = [], [], 0  # keep: the offsets copies, alive through both passes
    for chunk in chunks:
        valid, voff, offs, data = text_buffers(chunk)
        keep += [offs, data]
        calls.append((d[r0:].ctypes.data, offs.ctypes.data, data.ctypes.data,
                      None if valid is None else valid.ctypes.data, voff, len(chunk),
                      out_off[r0:].ctypes.data, ok[r0:].ctypes.data))
        r0 += len(chunk)
    for args in calls:  # pass 1, every chunk: the lengths
        lib.nxr_derive(*args, None)
    buf = np.empty(out_off[-1], np.uint8)
    for args in calls:  # pass 2: the bytes
        lib.nxr_derive(*args, buf.ctypes.data)
    nulls = n - int(np.count_nonzero(ok))
    bitmap = pa.py_buffer(np.packbits(ok, bitorder="little")) if nulls else None
    if out_off[-1] <= _STRING_MAX:
        typ, out_off = pa.string(), out_off.astype(np.int32)
    else:
        typ = pa.large_string()
    return pa.Array.from_buffers(
        typ, n, [bitmap, pa.py_buffer(out_off), pa.py_buffer(buf)], null_count=nulls)


def derive_transcripts_table(batch: pa.Table) -> pa.Table:
    """(doc_id, text) batch → transcripts batch.  Pure, per-row, stateless;
    the text is :func:`enrich_text`, the other columns Arrow kernels."""
    import pyarrow.compute as pc

    d = batch.column("doc_id").to_numpy()

    hot = (d % 97) < 5
    conv_id = pc.take(pa.array(CONV_IDS, pa.string()), pa.array(d % 97))
    turn_idx = np.where(hot, (d // 97) * 5 + d % 97, d // 97).astype(np.int32)
    role = pc.take(pa.array(ROLES, pa.string()), pa.array(d % 3))
    tool = pc.take(pa.array(TOOLS, pa.string()), pa.array(d % 5))
    ts = EPOCH_US + (d * 1_000_000).astype("timedelta64[us]")
    text = enrich_text(d, batch.column("text"))

    return pa.table(
        {
            "conv_id": conv_id,
            "turn_idx": pa.array(turn_idx, pa.int32()),
            "role": role,
            "text": text,
            "tool": tool,
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )


def _sql_name_list() -> str:
    return "[" + ", ".join(f"'{n}'" for n in DICT_NAMES) + "]"


def _render_transcripts_sql() -> str:
    """Render the derivation as a DuckDB SELECT over `documents` — the
    single source of truth is the Python constants above."""
    names = _sql_name_list()
    dup = DUP_TEXT
    text_expr = f"""(CASE WHEN doc_id % 13 = 7 THEN '{dup}' ELSE text END)
      || CASE WHEN doc_id % 3 = 0 THEN ' contact ' || {names}[(doc_id % 10) + 1] ELSE '' END
      || CASE WHEN doc_id % 4 = 0 THEN ' email user' || CAST(doc_id % 50 AS VARCHAR) || '@example.com' ELSE '' END
      || CASE WHEN doc_id % 4 = 2 THEN ' email ' || {names}[((doc_id + 3) % 10) + 1] || '.' || CAST(doc_id % 7 AS VARCHAR) || '@mail.example.org' ELSE '' END
      || CASE WHEN doc_id % 5 = 0 THEN ' visit https://svc' || CAST(doc_id % 20 AS VARCHAR) || '.example.org/p/' || CAST(doc_id AS VARCHAR) ELSE '' END
      || CASE WHEN doc_id % 6 = 0 THEN ' on 2024-03-' || lpad(CAST((doc_id % 28) + 1 AS VARCHAR), 2, '0') ELSE '' END
      || CASE WHEN doc_id % 6 = 3 THEN ' on ' || CAST((doc_id % 28) + 1 AS VARCHAR) || '.' || CAST((doc_id % 12) + 1 AS VARCHAR) || '.2024' ELSE '' END
      || CASE WHEN doc_id % 11 = 0 THEN ' call +4201' || lpad(CAST(doc_id % 100000000 AS VARCHAR), 8, '0') ELSE '' END
      || CASE WHEN doc_id % 9 = 0 THEN ' ping ' || {names}[(doc_id % 10) + 1] || 'x' ELSE '' END
      || CASE WHEN doc_id % 9 = 5 THEN ' ping ' || {names}[(doc_id % 10) + 1] || 'xx' ELSE '' END"""
    return f"""SELECT
    CASE WHEN doc_id % 97 < 5 THEN 'c_hot' ELSE 'c' || CAST(doc_id % 97 AS VARCHAR) END AS conv_id,
    CAST(CASE WHEN doc_id % 97 < 5 THEN (doc_id // 97) * 5 + doc_id % 97 ELSE doc_id // 97 END AS INTEGER) AS turn_idx,
    CASE doc_id % 3 WHEN 0 THEN 'user' WHEN 1 THEN 'assistant' ELSE 'tool' END AS role,
    {text_expr} AS text,
    CASE doc_id % 5 WHEN 0 THEN 'search' WHEN 2 THEN 'code' WHEN 4 THEN 'browse' ELSE '' END AS tool,
    TIMESTAMP '2024-01-01' + doc_id * INTERVAL 1 SECOND AS ts
  FROM documents"""


#: DuckDB CTE body equivalent to :func:`derive_transcripts_table` over the
#: pre-registered `documents` view.  Embed as: WITH t AS ({TRANSCRIPTS_SQL})
TRANSCRIPTS_SQL = _render_transcripts_sql()


def fused_blocks(n_docs: int | None, replicate: int, cpus: int) -> int:
    """Read-block count for the fused task plan over ``n_docs`` documents
    (``None``: unknown) exploded ``replicate``-fold on ``cpus`` Ray CPUs.

    Fused task chains pay per-task scheduling overhead, not startup, so
    the count tracks the WORKLOAD, not just the cluster: ~50k exploded
    turns per block amortizes the per-task cost.  Three terms:
    - a floor of ``min(8, cpus)``: no more blocks than CPUs for blocks
      too small to pay for their own task (30k turns on 1 CPU: one block
      ran the triples plan ~1.7x faster than eight 3.75k-turn blocks),
      and at 8+ CPUs still 8;
    - reach the core count when the workload supports ≥50k turns/block
      (the previous fixed cpus//2 left half the cores idle at large
      replicates — measured 319k → 538k turns/s at 16 CPUs / 6.4M turns,
      and 608k → 794k at 32 CPUs; rep=160 at 32 CPUs still picks 16
      chunky blocks, which measured best there);
    - NEVER let a block exceed ~200k turns (``w // 4``) no matter how few
      CPUs — the ``min(cpus, w)`` cap alone packed 625k docs/block at 4
      CPUs on a 5M-doc corpus, halving the @4 leg's rate (memory cliff)
      and fabricating a 1.9 "superlinear" scaling artifact.
    """
    floor = min(8, cpus)
    if n_docs is None:
        return floor
    w = (n_docs * replicate) // 50_000
    return max(floor, min(cpus, w), w // 4)


def transcripts_dataset(
    sf_dir: str,
    replicate: int = 1,
    doc_partition: tuple[int, int] | None = None,
    fuse: bool = False,
):
    """Streaming transcripts Dataset derived from <sf_dir>/documents.parquet.

    ``replicate`` (bench only) emits each document ``replicate`` times with
    doc_id' = doc_id + k * 10**7 so turn texts/ids vary deterministically —
    the oracle path always uses replicate=1.

    ``doc_partition=(pid, n)`` restricts to the deterministic input slice
    ``doc_id % n == pid`` (checkpoint/resume partitioning — a pure function
    of the input, never of execution order).  At real scale this filter is
    file/row-group pruning; on the single-file test tables it's a cheap
    vectorized post-read filter.

    ``fuse=True`` (task-based consumers only) lets Ray fuse the explode
    stage with the downstream map into one task per block — cutting
    per-task scheduling overhead, which dominates small-block local runs.
    Actor-pool consumers MUST keep the default: a fused task+actor stage
    applies the downstream ``batch_size`` to PRE-explosion row counts and
    collapses the stage to a handful of tasks.

    A fused plan also runs without Ray Data's per-operator resource
    reservation (``op_resource_reservation_enabled``), set on the read's
    own DataContext copy, which every dataset derived from it shares; the
    session default is untouched.  The reservation sets a share of the
    CPUs aside for every operator, the sort and final combine included,
    so on a fused all-task plan it throttled the extract map.  Measured
    at 4 Ray CPUs on 600k turns (30k × ``replicate=20``):
    ``triples_dataset`` 3.45 s a pass with it, 1.34 s without; the std
    ``mentions_dataset`` 1.12 → 0.77 s.  The actor-pool plans keep it:
    there it keeps the actors from starving the read and derive.
    """
    from nativeextractor_ray.sources.tables import read_table

    blocks = None
    if fuse:
        from nativeextractor_ray.pipelines.common import _cpus
        from nativeextractor_ray.sources.tables import table_nrows

        blocks = fused_blocks(table_nrows(sf_dir, "documents"), replicate, _cpus())
    ds = read_table(sf_dir, "documents", ["doc_id", "text"], blocks=blocks)
    if fuse:
        ds.context.op_resource_reservation_enabled = False
    if doc_partition is not None:
        pid, n_parts = doc_partition

        def part_filter(t: pa.Table) -> pa.Table:
            mask = (t.column("doc_id").to_numpy() % n_parts) == pid
            return t.filter(pa.array(mask))

        ds = ds.map_batches(part_filter, batch_format="pyarrow")
    if replicate == 1:
        return ds.map_batches(derive_transcripts_table, batch_format="pyarrow")

    def explode(batch: pa.Table) -> pa.Table:
        # build ALL shifted replicas first, then derive ONCE on the big
        # concatenated batch — per-replica derive calls on 64-row slices
        # pay Arrow kernel dispatch ~13× the per-row compute
        shifted = [
            batch.set_column(
                batch.schema.get_field_index("doc_id"),
                "doc_id",
                pa.compute.add(batch.column("doc_id"), k * 10_000_000),
            )
            for k in range(replicate)
        ]
        return derive_transcripts_table(pa.concat_tables(shifted).combine_chunks())

    if fuse:
        return ds.map_batches(explode, batch_format="pyarrow", batch_size=64)
    # small input batches: each task's output is replicate× larger.  The
    # distinct num_cpus blocks operator fusion with the downstream actor
    # stage — fused, the downstream batch_size would apply to the
    # PRE-explosion row count and collapse the stage to ~5 tasks.
    return ds.map_batches(
        explode, batch_format="pyarrow", batch_size=64, num_cpus=0.5
    )
