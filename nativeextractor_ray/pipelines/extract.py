"""Mention extraction pipeline: transcripts → mentions.

``sources.tables.read_table`` (column-pruned, planned from Parquet
footers) → stateless derive (one C pass for the text) →
``map_batches(MinerPool)`` → mentions rows.  Mention detection is per-turn
and embarrassingly parallel: no grouping, no shuffle anywhere
(SURVEY.md §4.3.1).

Execution mode is chosen by miner-state cost: the STANDARD spec set
compiles in ~ms, so a pre-built MinerPool instance runs as plain TASKS
that Ray fuses with the derive stage (one task per block — per-task
scheduling overhead, not compute, dominates at small block sizes);
custom specs (large gazetteer ObjectRefs, expensive automata) keep the
actor-pool path where __init__ runs once per actor, except on a 1-CPU
cluster, where one actor would hold the only CPU and starve the read and
derive tasks that feed it."""

from __future__ import annotations

from typing import Sequence

import pyarrow.compute as pc

from nativeextractor_ray.pipelines.common import DEFAULT_BATCH_SIZE, _cpus, pool_concurrency
from nativeextractor_ray.sources.transcripts import transcripts_dataset
from nativeextractor_ray.stages.miner_pool import STD_MINER_SPECS, MinerPool


#: miners whose per-process construction is cheap (pattern compile, no
#: gazetteer load) — safe for fused task mode, where every worker process
#: builds its own pool once from the picklable specs
CHEAP_MINERS = frozenset({
    "regex", "glob", "email", "url", "date", "phone", "number",
    "naive_date", "match_email", "match_url", "match_glob",
})

_TASK_POOLS: dict = {}


def _task_pool(specs, no_enclosed: bool, carry: tuple) -> MinerPool:
    """Per-worker-process pool cache: the task-mode analogue of actor
    ``__init__`` state (compile once per process, reuse across tasks)."""
    key = (repr(specs), no_enclosed, carry)
    p = _TASK_POOLS.get(key)
    if p is None:
        p = MinerPool(list(specs), no_enclosed=no_enclosed, carry=list(carry))
        _TASK_POOLS[key] = p
    return p


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
    checkpoint plan, see ``transcripts_dataset``)."""
    names = [n for n, a, k in specs]
    std = names == [n for n, a, k in STD_MINER_SPECS]
    cheap = all(isinstance(n, str) and n in CHEAP_MINERS for n in names)
    if std or cheap or _cpus() < 2:
        # cheap state (or no CPU to spare for an actor) → task mode,
        # fused with the derive explode.
        # batch_size=None is LOAD-BEARING: a fused stage applies an
        # explicit batch_size to the PRE-explosion row count (4096 docs →
        # 650k-row tasks at replicate=160, collapsing to ~2 tasks); None
        # means "the upstream op's output batch", i.e. one post-explosion
        # batch per 64-doc input slice.
        ds = transcripts_dataset(sf_dir, replicate=replicate,
                                 doc_partition=doc_partition, fuse=True)
        if std:
            # std miners are picklable → ship ONE pool instance by value
            pool = MinerPool(list(specs), no_enclosed=no_enclosed,
                             carry=tuple(carry))
            return ds.map_batches(pool, batch_format="pyarrow", batch_size=None)

        spec_list = [tuple(s) for s in specs]

        def scan(batch, _s=spec_list, _ne=no_enclosed, _ca=tuple(carry)):
            return _task_pool(_s, _ne, _ca)(batch)

        return ds.map_batches(scan, batch_format="pyarrow", batch_size=None)
    ds = transcripts_dataset(sf_dir, replicate=replicate, doc_partition=doc_partition)
    return ds.map_batches(
        MinerPool,
        fn_constructor_args=(list(specs),),
        fn_constructor_kwargs={"no_enclosed": no_enclosed, "carry": tuple(carry)},
        batch_format="pyarrow",
        batch_size=DEFAULT_BATCH_SIZE,
        concurrency=pool_concurrency(),
    )


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
