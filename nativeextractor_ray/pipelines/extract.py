"""Mention extraction pipeline: transcripts → mentions.

``sources.tables.read_table`` (column-pruned, planned from Parquet
footers) → stateless derive (one C pass for the text) →
``map_batches(MinerPool)`` → mentions rows.  Mention detection is per-turn
and embarrassingly parallel: no grouping, no shuffle anywhere
(SURVEY.md §4.3.1).

Every spec set runs the same shape: one ``MinerPool`` instance as plain
TASKS that Ray fuses with the derive stage, one task per block.  The
instance pickles as its specs, and each worker process builds each
distinct pool once (``miner_pool._pool``), so a costly gazetteer or
automaton compiles once per process, as it would in an actor, and no
CPU is held between tasks, so the plan runs on a 1-CPU cluster too."""

from __future__ import annotations

from typing import Sequence

import pyarrow.compute as pc

from nativeextractor_ray.sources.transcripts import transcripts_dataset
from nativeextractor_ray.stages.miner_pool import STD_MINER_SPECS, MinerPool


def mentions_dataset(
    sf_dir: str,
    specs: Sequence = tuple(STD_MINER_SPECS),
    *,
    no_enclosed: bool = False,
    carry: Sequence[str] = (),
    replicate: int = 1,
    doc_partition: tuple[int, int] | None = None,
):
    """transcripts → mention rows; ``doc_partition=(pid, n)`` restricts
    the scan to the input slice ``doc_id % n == pid`` (the per-partition
    checkpoint plan, see ``transcripts_dataset``).

    ``batch_size=None`` is load-bearing: a fused stage applies an explicit
    batch_size to the PRE-explosion row count (4096 docs → 650k-row tasks
    at replicate=160, collapsing to ~2 tasks); None means "the upstream
    op's output batch", one post-explosion batch per 64-doc input slice."""
    pool = MinerPool(specs, no_enclosed=no_enclosed, carry=carry)
    ds = transcripts_dataset(sf_dir, replicate=replicate, doc_partition=doc_partition)
    return ds.map_batches(pool, batch_format="pyarrow", batch_size=None)


def mentions_by_label(sf_dir: str, label: str, specs=None):
    """Mentions of one label, projected for the correctness oracle."""
    ds = mentions_dataset(sf_dir, specs=tuple(specs) if specs else tuple(STD_MINER_SPECS))
    ds = ds.map_batches(
        lambda t, lab=label: t.filter(pc.equal(t.column("label"), lab)),
        batch_format="pyarrow",
    )
    return ds.select_columns(["conv_id", "turn_idx", "label", "surface"])


def mention_counts(sf_dir: str):
    """Count per label — pre-aggregated per batch, then a tiny groupby."""
    import pyarrow as pa

    from ray.data.aggregate import Sum

    ds = mentions_dataset(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        g = t.group_by("label").aggregate([("label", "count")])
        return pa.table(
            {"label": g.column("label"), "n": pc2.cast(g.column("label_count"), pa.int64())}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("label").aggregate(Sum("n", alias_name="n"))
