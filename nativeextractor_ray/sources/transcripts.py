"""Deterministic transcripts derivation — the engine's input table.

The target input (BASELINE.json ``input_hint``) is a Parquet table of
multi-turn transcripts ``(conv_id, turn_idx, role, text, tool, ts)``.  The
driver's test data has no such table, so we derive one *deterministically*
from ``documents.parquet`` (doc_id, text) with a pure function of
``doc_id`` — defined ONCE here and rendered both as vectorizable Python
(:func:`derive_transcripts_table`) and as a DuckDB SQL CTE
(:data:`TRANSCRIPTS_SQL`) so the correctness oracle sees the exact same
table.  ``tests/test_transcripts_parity.py`` asserts bit-equality of the two.

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

import numpy as np
import pyarrow as pa

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


def _enrich(d: int, base: str) -> str:
    """Append deterministic entity snippets to a turn text.  MUST stay in
    lockstep with the SQL rendering below."""
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


def _pc_enrich(d_arr: pa.Array, base: pa.Array) -> pa.Array:
    """Vectorized (pyarrow.compute) rendering of :func:`_enrich` — the
    scalar version remains the spec; ``tests/test_transcripts_parity.py``
    asserts all three renderings (scalar, vectorized, SQL) agree."""
    import pyarrow.compute as pc

    d64 = pc.cast(d_arr, pa.int64())

    def mod(k):
        # pyarrow has no modulo kernel; numpy round-trip is zero-copy
        return pa.array((d64.to_numpy() % k).astype(np.int64))

    def s(x):
        return pc.cast(x, pa.string())

    def take(values, idx):
        return pc.take(pa.array(values, pa.string()), idx)

    def when(mask_np, *parts):
        joined = pc.binary_join_element_wise(*parts, "")
        return pc.if_else(pa.array(mask_np), joined, "")

    dn = d64.to_numpy()
    names = lambda idx: take(DICT_NAMES, idx)  # noqa: E731

    p0 = pc.if_else(pa.array(dn % 13 == 7), DUP_TEXT, base)
    p1 = when(dn % 3 == 0, " contact ", names(mod(10)))
    p2 = when(dn % 4 == 0, " email user", s(mod(50)), "@example.com")
    p3 = when(dn % 4 == 2, " email ",
              take(DICT_NAMES, pa.array((dn + 3) % 10)), ".", s(mod(7)),
              "@mail.example.org")
    p4 = when(dn % 5 == 0, " visit https://svc", s(mod(20)), ".example.org/p/", s(d64))
    p5 = when(dn % 6 == 0, " on 2024-03-",
              pc.utf8_lpad(s(pa.array(dn % 28 + 1)), 2, "0"))
    p6 = when(dn % 6 == 3, " on ", s(pa.array(dn % 28 + 1)), ".",
              s(pa.array(dn % 12 + 1)), ".2024")
    p7 = when(dn % 11 == 0, " call +4201",
              pc.utf8_lpad(s(mod(100000000)), 8, "0"))
    p8 = when(dn % 9 == 0, " ping ", names(mod(10)), "x")
    p9 = when(dn % 9 == 5, " ping ", names(mod(10)), "xx")
    return pc.binary_join_element_wise(p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, "")


def derive_transcripts_table(batch: pa.Table) -> pa.Table:
    """(doc_id, text) batch → transcripts batch.  Pure, per-row, stateless;
    text built with vectorized Arrow kernels (the per-row ``_enrich`` is
    the readable spec and the property-test oracle)."""
    import pyarrow.compute as pc

    d = batch.column("doc_id").to_numpy()

    hot = (d % 97) < 5
    # Arrow kernels end to end (np.char + .tolist() round-trips were ~40%
    # of the derive cpu): conv_id = "c_hot" | "c" + str(d % 97)
    conv_id = pc.if_else(
        pa.array(hot),
        pa.scalar("c_hot"),
        pc.binary_join_element_wise(
            "c", pc.cast(pa.array(d % 97), pa.string()), ""
        ),
    )
    turn_idx = np.where(hot, (d // 97) * 5 + d % 97, d // 97).astype(np.int32)
    role = pc.take(pa.array(ROLES, pa.string()), pa.array(d % 3))
    tool = pc.take(pa.array(TOOLS, pa.string()), pa.array(d % 5))
    ts = EPOCH_US + (d * 1_000_000).astype("timedelta64[us]")
    text = _pc_enrich(
        batch.column("doc_id").combine_chunks(), batch.column("text").combine_chunks()
    )

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
    """
    from nativeextractor_ray.sources.tables import read_table

    blocks = None
    if fuse:
        from nativeextractor_ray.pipelines.common import _cpus
        from nativeextractor_ray.sources.tables import table_nrows

        blocks = fused_blocks(table_nrows(sf_dir, "documents"), replicate, _cpus())
    ds = read_table(sf_dir, "documents", ["doc_id", "text"], blocks=blocks)
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
