"""Knowledge-graph pipeline: transcripts → (subj, pred, obj) triples, plus
the canonicalization (union-find) stage and the per-conversation /
per-entity reports over the same extraction.

Shape (SURVEY.md §3.4): streaming read → KgExtract in task mode, fused
with the transcripts derive (mention-detect + link + triple-emit with
per-batch combining) → sort of the partials by a stable hash ``part`` of
(subj, pred, obj) (the ONLY shuffle; it moves partial counts, not
occurrences) → one Arrow group_by per sorted block (``combine_parts``,
``common.sorted_blocks``) → triples, all in one streaming execution.
The checkpointed ``run_kg`` runs the same plan per input slice and
``finalize`` merges the slices with the same ``combine_parts``.  Every
keyed report (per conversation, per entity, per (minute, term))
co-locates its rows with ``common.exchange`` and groups on the real key
inside one call per sorted block.
Canonicalization groups distinct surfaces (bounded vocabulary), runs
union-find on the driver, and the resulting surface→entity map is
broadcast-sized."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.functions.linking import DictIndex, best_dict_match
from nativeextractor_ray.functions.unionfind import canonicalize
from nativeextractor_ray.pipelines.common import exchange, sorted_blocks
from nativeextractor_ray.pipelines.extract import mentions_dataset
from nativeextractor_ray.sources.transcripts import DICT_NAMES, transcripts_dataset
from nativeextractor_ray.stages.kg_extract import N_TRIPLE_PARTS, KgExtract  # noqa: F401

TRIPLE_COLS = ["subj", "pred", "obj", "support", "first_seen", "prob"]


def _final_combine(t: pa.Table) -> pa.Table:
    # Arrow C++ group_by: ~10x the pandas string-key groupby throughput
    g = t.group_by(["subj", "pred", "obj"]).aggregate(
        [("support", "sum"), ("first_seen", "min"), ("prob", "max")]
    )
    return pa.table({
        "subj": g.column("subj"),
        "pred": g.column("pred"),
        "obj": g.column("obj"),
        "support": pc.cast(g.column("support_sum"), pa.int64()),
        "first_seen": g.column("first_seen_min"),
        "prob": pc.cast(g.column("prob_max"), pa.float32()),
    })


def combine_parts(ds):
    """Final combine of ``part``-keyed triple partials: ONE Arrow group_by
    per ``part``-sorted block.  Every row of one triple carries the same
    ``part``, so no triple spans two blocks."""
    return sorted_blocks(ds, _final_combine, batch_format="pyarrow")


def combine_triple_partials(ds):
    """Merge triple-partial rows (e.g. per-checkpoint-partition outputs)
    with the same coarse-partitioned associative combine the live pipeline
    uses: sum support, min first_seen, max prob per (subj, pred, obj)."""
    return exchange(ds, ["subj", "pred", "obj"], _final_combine, batch_format="pyarrow")


def triples_dataset(sf_dir: str, replicate: int = 1, doc_partition=None):
    """transcripts → triples, the one plan for the headline and the
    per-partition checkpoints (``doc_partition=(pid, n)`` restricts it to
    the input slice ``doc_id % n == pid``, see ``transcripts_dataset``).

    KgExtract's state (dict index + compiled miners) builds in ~ms, so it
    runs as a pre-built instance in TASK mode, fused with the transcripts
    derive: per-task scheduling overhead, not compute, dominated an actor
    stage on chunky local blocks (measured 2× at 800k turns), and task
    mode holds no CPU between tasks, so it runs on 1 CPU.
    ``batch_size=None`` is load-bearing: an explicit batch_size on a fused
    stage applies to PRE-explosion row counts (see
    extract.mentions_dataset).

    The final dedup/sum sorts by ``part``, a stable int hash of
    (subj, pred, obj) mod N_TRIPLE_PARTS, instead of the 3-string key
    directly: the shuffle sorts a single int column, and ``combine_parts``
    then combines each sorted block with one vectorized Arrow group_by.

    The whole plan (read → derive → KgExtract → sort → combine) is ONE
    streaming execution.  Ahead of the sort, Ray's per-operator
    reservation throttled the extract map (3.45 s a pass vs 1.34 s
    without it, 600k turns at 4 Ray CPUs), so every transcripts plan
    runs without it (see ``transcripts_dataset``).  Materializing the
    partials, the earlier way round the throttle, cost a second execution
    for a set read once (1.87 s)."""
    kg = KgExtract()
    ds = transcripts_dataset(sf_dir, replicate=replicate, doc_partition=doc_partition)
    return combine_parts(ds.map_batches(kg, batch_format="pyarrow", batch_size=None))


def triples_tool(sf_dir: str):
    """The uses_tool slice only — cheap smoke query."""
    ds = triples_dataset(sf_dir)
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("pred"), "uses_tool")),
        batch_format="pyarrow",
    )


def canonical_map(sf_dir: str) -> pa.Table:
    """surface → canonical person entity over Dict mentions.

    groupby(surface) count (shuffle over the *distinct-surface* space) →
    alias edges (surface, best dict word) → union-find on the driver →
    (surface, canonical, n_mentions).  The dict word member of each
    component is its canonical form."""
    from ray.data.aggregate import Count

    ds = mentions_dataset(sf_dir)
    dict_only = ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("label"), "Dict")),
        batch_format="pyarrow",
    )
    counts = dict_only.groupby("surface").aggregate(Count(alias_name="n_mentions"))
    from nativeextractor_ray.functions.blocks import arrow_blocks

    parts = list(arrow_blocks(counts, stream=False))
    surf_tbl = pa.concat_tables(parts) if parts else None
    if surf_tbl is None or surf_tbl.num_rows == 0:
        return pa.table(
            {"surface": pa.array([], pa.string()),
             "canonical": pa.array([], pa.string()),
             "n_mentions": pa.array([], pa.int64())}
        )

    index = DictIndex(DICT_NAMES)
    surfaces = surf_tbl.column("surface").to_pylist()
    n = surf_tbl.column("n_mentions").to_pylist()
    words = set(DICT_NAMES)
    edges = []
    for s in surfaces:
        w = best_dict_match(s, index)
        if w is not None:
            edges.append((s, w))
    canon = canonicalize(edges, is_canonical=lambda m: m in words)
    rows = [(s, f"person:{canon[s]}", int(c)) for s, c in zip(surfaces, n) if s in canon]
    rows.sort()
    return pa.table(
        {
            "surface": pa.array([r[0] for r in rows], pa.string()),
            "canonical": pa.array([r[1] for r in rows], pa.string()),
            "n_mentions": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def entity_turns_dataset(sf_dir: str):
    """(conv_id, turn_idx, ent) — one row per distinct entity per turn."""
    class EntityTurns(KgExtract):
        # overrides _extract (not __call__) to inherit the SLICE_ROWS
        # bound; slices are disjoint turn sets, so concat is exact
        def _extract(self, batch: pa.Table) -> pa.Table:  # type: ignore[override]
            pairs = self.entity_pairs(batch.column("text"))
            row = pairs.column("row")
            return pa.table({
                "conv_id": pc.cast(pc.take(batch.column("conv_id"), row), pa.string()),
                "turn_idx": pc.cast(pc.take(batch.column("turn_idx"), row), pa.int32()),
                "ent": pairs.column("ent"),
            })

    # same fused-task shape as triples_dataset (cheap per-instance state)
    ds = transcripts_dataset(sf_dir)
    return ds.map_batches(EntityTurns(), batch_format="pyarrow", batch_size=None)


def conv_entity_flow(sf_dir: str):
    """Per conversation: entities in first-seen order.

    Skew-safe shape (SURVEY.md §4.3.2): first a *per-batch* combine to
    (conv_id, ent) → min(turn_idx) — first-seen is associative, so partials
    from a salted/hot conversation (c_hot holds ~5% of all turns) merge
    correctly — then the conv-level group only ever sees distinct entities
    per conversation, not raw turns.  Ray's groupby gives no intra-group
    order, so the group fn orders by (first_turn, ent) itself."""
    import pandas as pd

    ds = entity_turns_dataset(sf_dir)

    def partial_first_seen(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out = df.groupby(["conv_id", "ent"], sort=False)["turn_idx"].min().reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    partial = ds.map_batches(partial_first_seen, batch_format="pyarrow")

    def flow_part(part: pd.DataFrame) -> pd.DataFrame:
        m = (
            part.groupby(["conv_id", "ent"], sort=False)["turn_idx"].min()
            .reset_index()
            .sort_values(["conv_id", "turn_idx", "ent"], kind="stable")
        )
        out = (
            m.groupby("conv_id", sort=False)
            .agg(flow=("ent", " ".join), n_entities=("ent", "size"))
            .reset_index()
        )
        out["n_entities"] = out["n_entities"].astype("int64")
        return out[["conv_id", "flow", "n_entities"]]

    return exchange(partial, ["conv_id"], flow_part)


def top_triples(sf_dir: str, k: int = 20):
    """Top-k triples by support — ``ds.sort(...).limit(k)`` reporting query
    (SURVEY.md §2.6).  Deterministic total order: ties broken by the full
    triple key so LIMIT is stable across engines."""
    ds = triples_dataset(sf_dir)
    return (
        ds.sort(["support", "subj", "pred", "obj"],
                descending=[True, False, False, False])
        .limit(k)
        .select_columns(["subj", "pred", "obj", "support"])
    )


def entities_table(sf_dir: str):
    """The north-star ``entities`` rollup: per canonical entity — its label
    family (prefix before ':'), mention turns, distinct conversations.
    Pre-aggregated per batch upstream (entity_turns emits distinct
    (conv, turn, ent) rows), then one groupby over the bounded entity
    vocabulary."""
    import pandas as pd

    ds = entity_turns_dataset(sf_dir)

    # per-batch pre-aggregate: (ent, conv_id) → row count, so the shuffle
    # moves one row per (ent, conv) per batch instead of one per turn
    def partial_counts(t: pa.Table) -> pa.Table:
        g = t.group_by(["ent", "conv_id"]).aggregate([("turn_idx", "count")])
        return pa.table({
            "ent": g.column("ent"),
            "conv_id": g.column("conv_id"),
            "n": pc.cast(g.column("turn_idx_count"), pa.int64()),
        })

    def rollup_part(part: pd.DataFrame) -> pd.DataFrame:
        g = (
            part.groupby("ent", sort=False)
            .agg(n_turns=("n", "sum"), n_convs=("conv_id", "nunique"))
            .reset_index()
        )
        out = pd.DataFrame({
            "entity_id": g["ent"],
            "label": g["ent"].str.split(":", n=1).str[0],
            "n_turns": g["n_turns"].astype("int64"),
            "n_convs": g["n_convs"].astype("int64"),
        })
        return out

    return exchange(ds.map_batches(partial_counts, batch_format="pyarrow"),
                    ["ent"], rollup_part)


def entity_components(sf_dir: str):
    """Connected components of the entity co-occurrence graph — the
    distributed union-find (iterative min-label propagation,
    functions/unionfind.py::connected_components_ds) applied to
    ``co_occurs_with`` triple edges.  Canonicalization's scale path."""
    from nativeextractor_ray.functions.unionfind import connected_components_ds

    triples = triples_dataset(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        m = t.filter(pc.equal(t.column("pred"), "co_occurs_with"))
        return pa.table({"a": m.column("subj"), "b": m.column("obj")})

    e = triples.map_batches(edges, batch_format="pyarrow")
    return connected_components_ds(e)


SALT_TURNS = 1000  # turns per salt bucket for hot-conversation splitting


def conv_digest_salted(sf_dir: str, replicate: int = 1):
    """Order-sensitive per-conversation digest with EXPLICIT skew salting
    (north_rule: "skew-salting of hot conv_id groups").

    The parity invariant ("per-turn text equality under stable turn
    ordering") is enforced end-to-end: a conversation's digest is the md5
    of its turn texts in turn_idx order.  A hot conversation (c_hot holds
    ~5% of all turns) must not serialize one reducer, so the group key is
    salted: level 1 groups by (conv_id, turn_idx // SALT_TURNS) and
    digests each chunk after an in-group stable sort; level 2 merges the
    (few) chunk digests per conversation in salt order.  Reducer input
    drops from O(turns) to O(turns / SALT_TURNS) rows for the hot key."""
    import hashlib

    import pandas as pd

    ds = transcripts_dataset(sf_dir, replicate=replicate)

    def with_salt(t: pa.Table) -> pa.Table:
        salt = pc.cast(
            pc.floor(pc.divide(pc.cast(t.column("turn_idx"), pa.float64()), SALT_TURNS)),
            pa.int64(),
        )
        return pa.table({
            "conv_id": t.column("conv_id"),
            "salt": salt,
            "turn_idx": t.column("turn_idx"),
            "text": t.column("text"),
        })

    # a vectorized pandas groupby per call, never one Python call per
    # group: at 10^12 turns the (conv, salt) group count is ~10^9
    def chunk_digests(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["conv_id", "salt", "turn_idx"], kind="stable")
        out = (
            part.groupby(["conv_id", "salt"], sort=False)
            .agg(payload=("text", "\x1f".join), n=("text", "size"))
            .reset_index()
        )
        out["chunk_digest"] = [
            hashlib.md5(p.encode()).hexdigest() for p in out["payload"]
        ]
        out["n"] = out["n"].astype("int64")
        return out[["conv_id", "salt", "chunk_digest", "n"]]

    def merge_digests(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["conv_id", "salt"], kind="stable")
        out = (
            part.groupby("conv_id", sort=False)
            .agg(payload=("chunk_digest", "".join), n_turns=("n", "sum"))
            .reset_index()
        )
        out["digest"] = [hashlib.md5(p.encode()).hexdigest() for p in out["payload"]]
        out["n_turns"] = out["n_turns"].astype("int64")
        return out[["conv_id", "digest", "n_turns"]]

    chunks = exchange(ds.map_batches(with_salt, batch_format="pyarrow"),
                      ["conv_id", "salt"], chunk_digests)
    return exchange(chunks, ["conv_id"], merge_digests)


def conv_stats(sf_dir: str):
    """Per-conversation rollup — associative aggregates, salting-safe."""
    from ray.data.aggregate import Count, Max, Min

    ds = transcripts_dataset(sf_dir)
    return ds.groupby("conv_id").aggregate(
        Count(alias_name="n_turns"),
        Min("ts", alias_name="first_ts"),
        Max("ts", alias_name="last_ts"),
        Max("turn_idx", alias_name="max_turn"),
    )


def turn_role_transitions(sf_dir: str):
    """Conversation turn-taking matrix: counts of (from_role, to_role)
    over consecutive turns within each conversation under ``turn_idx``
    order — the structural fingerprint that separates user↔assistant
    chat from tool-calling agent traces (and catches corrupt transcripts
    whose role sequence is impossible).

    Scale shape: the :func:`~nativeextractor_ray.pipelines.windows.event_transitions`
    economics over the transcripts table — one hash(conv_id) shuffle
    (columns pruned to conv_id/turn_idx/role), in-partition lexsort +
    shifted compare masked at conversation boundaries, per-partition
    (from, to) count partials (≤ roles² rows each), one tiny final
    groupby.

    Output: ``(from_role, to_role, n)``."""
    import numpy as np
    import pandas as pd

    from ray.data.aggregate import Sum

    ds = transcripts_dataset(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": t.column("turn_idx"),
            "role": t.column("role"),
        })

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd_

        conv = df["conv_id"].to_numpy()
        idx = df["turn_idx"].to_numpy()
        order = np.lexsort((idx, conv))
        conv_s = conv[order]
        role_s = df["role"].to_numpy()[order]
        if len(conv_s) < 2:
            return pd_.DataFrame({"from_role": [], "to_role": [],
                                  "n": np.array([], np.int64)})
        same = conv_s[1:] == conv_s[:-1]
        g = pd_.DataFrame({
            "from_role": role_s[:-1][same],
            "to_role": role_s[1:][same],
        }).groupby(["from_role", "to_role"], sort=False).size().reset_index(
            name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    return (exchange(ds.map_batches(prep, batch_format="pyarrow"),
                     ["conv_id"], resolve)
            .groupby(["from_role", "to_role"])
            .aggregate(Sum("n", alias_name="n")))


def turn_role_transitions_sql() -> str:
    from nativeextractor_ray.sources.transcripts import TRANSCRIPTS_SQL

    return f"""WITH t AS ({TRANSCRIPTS_SQL}),
w AS (
  SELECT role AS from_role,
         lead(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
           AS to_role
  FROM t)
SELECT from_role, to_role, CAST(count(*) AS BIGINT) AS n
FROM w WHERE to_role IS NOT NULL
GROUP BY 1, 2"""


def conv_length_histogram(sf_dir: str):
    """Conversation-length distribution: for every turn count ``n``, how
    many conversations have exactly ``n`` turns — the count-of-counts
    audit that catches truncated or runaway conversations before they
    skew packing and context-window decisions.

    Scale shape: per-batch (conv, count) Arrow partials → one
    conv-keyed groupby sums exact lengths → per-batch count-of-counts
    partials fold the conversation axis away → a tiny final
    groupby(n_turns).  Mirrors ``textstats.term_freq_histogram``.

    Output: ``(n_turns, n_convs)``."""
    from ray.data.aggregate import Sum

    ds = transcripts_dataset(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        g = (t.select(["conv_id"]).group_by("conv_id")
             .aggregate([("conv_id", "count")]))
        return pa.table({
            "conv_id": g.column("conv_id"),
            "n": pc.cast(g.column("conv_id_count"), pa.int64())})

    lengths = (ds.map_batches(partial, batch_format="pyarrow")
               .groupby("conv_id").aggregate(Sum("n", alias_name="n")))

    def coc(t: pa.Table) -> pa.Table:
        g = t.select(["n"]).group_by("n").aggregate([("n", "count")])
        return pa.table({
            "n_turns": g.column("n"),
            "n_convs": pc.cast(g.column("n_count"), pa.int64())})

    return (lengths.map_batches(coc, batch_format="pyarrow")
            .groupby("n_turns").aggregate(Sum("n_convs",
                                              alias_name="n_convs")))


def conv_length_histogram_sql() -> str:
    from nativeextractor_ray.sources.transcripts import TRANSCRIPTS_SQL

    return f"""WITH t AS ({TRANSCRIPTS_SQL}),
l AS (SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns
      FROM t GROUP BY conv_id)
SELECT n_turns, CAST(count(*) AS BIGINT) AS n_convs
FROM l GROUP BY n_turns"""


def first_response_latency(sf_dir: str):
    """Per-conversation first-response latency: the time from the
    conversation's first ``user`` turn to its first ``assistant`` turn
    (exact integer µs; negative when the assistant opened) — the
    serving-latency / log-sanity statistic over transcript corpora.
    Conversations missing either role are excluded, SQL-style.

    Scale shape: join-free conditional aggregates — per-batch per-conv
    conditional min partials (two int64 columns ride each conv row) →
    ONE conv-keyed groupby().min → a streaming subtract/filter map.

    Output: ``(conv_id, latency_us)``."""
    import numpy as np

    from ray.data.aggregate import Min

    SENT = np.iinfo(np.int64).max  # missing-role sentinel (Min-neutral)

    ds = transcripts_dataset(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column("ts"), pa.int64()).to_numpy()
        role = t.column("role").to_numpy(zero_copy_only=False)
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        import pandas as pd_

        codes, uniq = pd_.factorize(conv, sort=False)
        n = len(uniq)
        u = np.full(n, SENT, dtype=np.int64)
        a = np.full(n, SENT, dtype=np.int64)
        um, am = role == "user", role == "assistant"
        np.minimum.at(u, codes[um], ts[um])
        np.minimum.at(a, codes[am], ts[am])
        return pa.table({
            "conv_id": pa.array(uniq, pa.string()),
            "u_ts": pa.array(u, pa.int64()),
            "a_ts": pa.array(a, pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("conv_id")
           .aggregate(Min("u_ts", alias_name="u_ts"),
                      Min("a_ts", alias_name="a_ts")))

    def resolve(t: pa.Table) -> pa.Table:
        u = t.column("u_ts").to_numpy()
        a = t.column("a_ts").to_numpy()
        ok = (u != SENT) & (a != SENT)
        return pa.table({
            "conv_id": t.column("conv_id").filter(pa.array(ok)),
            "latency_us": pa.array(a[ok] - u[ok], pa.int64())})

    return agg.map_batches(resolve, batch_format="pyarrow")


def first_response_latency_sql() -> str:
    from nativeextractor_ray.sources.transcripts import TRANSCRIPTS_SQL

    return f"""WITH t AS ({TRANSCRIPTS_SQL}),
m AS (
  SELECT conv_id,
         min(CASE WHEN role = 'user' THEN epoch_us(ts) END) AS u_ts,
         min(CASE WHEN role = 'assistant' THEN epoch_us(ts) END) AS a_ts
  FROM t GROUP BY conv_id)
SELECT conv_id, CAST(a_ts - u_ts AS BIGINT) AS latency_us
FROM m WHERE u_ts IS NOT NULL AND a_ts IS NOT NULL"""


def tool_call_stats(sf_dir: str):
    """Per-tool usage report over transcripts: for every tool named on a
    turn (``tool <> ''``), the total turn count and the number of
    DISTINCT conversations that used it — the tool-adoption statistic
    behind the role/tool-aware predicates of the triple schema.

    Scale shape: the ``daily_active_users`` combiner — per-batch
    (tool, conv) dedup + call-count partials → one composite groupby
    sums exact per-(tool, conv) calls → per-batch per-tool recount
    partials (each surviving (tool, conv) row is one distinct conv) →
    a tiny final groupby(tool).

    Output: ``(tool, n_turns, n_convs)``."""
    from ray.data.aggregate import Sum

    ds = transcripts_dataset(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        used = t.filter(pc.not_equal(t.column("tool"), ""))
        g = (used.select(["tool", "conv_id"])
             .group_by(["tool", "conv_id"])
             .aggregate([("conv_id", "count")]))
        return pa.table({
            "tool": g.column("tool"),
            "conv_id": g.column("conv_id"),
            "n_turns": pc.cast(g.column("conv_id_count"), pa.int64())})

    per_pair = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby(["tool", "conv_id"])
                .aggregate(Sum("n_turns", alias_name="n_turns")))

    def recount(t: pa.Table) -> pa.Table:
        g = t.group_by("tool").aggregate(
            [("n_turns", "sum"), ("conv_id", "count")])
        return pa.table({
            "tool": g.column("tool"),
            "n_turns": pc.cast(g.column("n_turns_sum"), pa.int64()),
            "n_convs": pc.cast(g.column("conv_id_count"), pa.int64())})

    return (per_pair.map_batches(recount, batch_format="pyarrow")
            .groupby("tool")
            .aggregate(Sum("n_turns", alias_name="n_turns"),
                       Sum("n_convs", alias_name="n_convs")))


def tool_call_stats_sql() -> str:
    from nativeextractor_ray.sources.transcripts import TRANSCRIPTS_SQL

    return f"""WITH t AS ({TRANSCRIPTS_SQL})
SELECT tool,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs
FROM t WHERE tool <> '' GROUP BY tool"""


def tool_latency(sf_dir: str):
    """Per-tool turn-to-next-turn latency over transcripts: for every
    turn that names a tool AND has a following turn in the same
    conversation, the µs gap to that next turn — the agent-pipeline
    health stat ("which tool stalls the conversation").  Mean is the
    exact half-up micro ratio; no float crosses the engine boundary.

    Scale shape: one conv-hash co-partition (the transition_dwell
    shape); per-partition vectorized LEAD diff + per-tool (n, Σµs)
    partials; the ≤|tools| rows per partition fold on the driver.

    Output: ``(tool, n, mean_us)``."""
    import numpy as np
    import pandas as pd

    from nativeextractor_ray.functions.blocks import arrow_blocks

    ds = transcripts_dataset(sf_dir)

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        conv = df["conv_id"].to_numpy(object)
        tool = df["tool"].to_numpy(object)
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        if len(df) < 2:
            return pd.DataFrame({"tool": [], "n": [], "s": []})
        same = conv[1:] == conv[:-1]
        used = (tool[:-1] != "") & same
        out = pd.DataFrame({"tool": tool[:-1][used],
                            "d": (ts[1:] - ts[:-1])[used]})
        g = out.groupby("tool", sort=False)["d"].agg(
            ["size", "sum"]).reset_index()
        return pd.DataFrame({"tool": g["tool"],
                             "n": g["size"].astype("int64"),
                             "s": g["sum"].astype("int64")})

    acc: dict = {}
    for t in arrow_blocks(exchange(ds, ["conv_id"], partial), stream=False):
        for tl, n, s in zip(t.column("tool").to_pylist(),
                            t.column("n").to_pylist(),
                            t.column("s").to_pylist()):
            a = acc.setdefault(tl, [0, 0])
            a[0] += int(n)
            a[1] += int(s)
    tools = sorted(acc)
    return pa.table({
        "tool": pa.array(tools, pa.string()),
        "n": pa.array([acc[t][0] for t in tools], pa.int64()),
        "mean_us": pa.array(
            [(2 * acc[t][1] + acc[t][0]) // (2 * acc[t][0])
             for t in tools], pa.int64())})


def tool_latency_sql() -> str:
    from nativeextractor_ray.sources.transcripts import TRANSCRIPTS_SQL

    return f"""WITH t AS ({TRANSCRIPTS_SQL}),
s AS (
  SELECT conv_id, tool, epoch_us(ts) AS ts_us,
         lead(epoch_us(ts)) OVER (PARTITION BY conv_id
                                  ORDER BY turn_idx) AS nxt
  FROM t)
SELECT tool, CAST(count(*) AS BIGINT) AS n,
       CAST((2 * sum(nxt - ts_us) + count(*)) // (2 * count(*))
            AS BIGINT) AS mean_us
FROM s WHERE tool <> '' AND nxt IS NOT NULL GROUP BY tool"""


# --------------------------------------------------------- trending terms


TRENDING_K = 5


def trending_terms(sf_dir: str, k: int = TRENDING_K):
    """Top-k terms per minute bucket of transcript time — the windowed
    heavy-hitters report ("what is the corpus talking about right now")
    over the turn stream.

    Scale shape: per-batch Arrow partials (split_pattern →
    list_parent_indices → one C++ group_by) fold each block to
    (minute, term, n) rows; ONE coarse ``hash(minute, term)`` shuffle
    makes counts exact (a (minute, term) pair lands in exactly one
    partition); each count block then keeps only its LOCAL top-k per
    minute before the minute-keyed resolve, so the final exchange sees
    ≤ k · blocks rows per minute — the vocabulary never co-locates.

    Output: ``(minute, term, n, rnk)`` with rank by n desc, term asc."""
    import numpy as np
    import pandas as pd

    from nativeextractor_ray.sources.transcripts import transcripts_dataset

    ds = transcripts_dataset(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column("text"), " ")
        parent = pc.list_parent_indices(toks)
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "")
        flat, parent = flat.filter(keep), parent.filter(keep)
        minute = np.datetime_as_string(
            t.column("ts").to_numpy().astype("datetime64[m]"), unit="m")
        tbl = pa.table({
            "minute": pa.array(minute, pa.string()).take(parent),
            "term": flat,
        })
        g = tbl.group_by(["minute", "term"]).aggregate([("term", "count")])
        return pa.table({
            "minute": g.column("minute"),
            "term": g.column("term"),
            "n": pc.cast(g.column("term_count"), pa.int64())})

    def exact_counts(df: "pd.DataFrame") -> "pd.DataFrame":
        g = (df.groupby(["minute", "term"], sort=False)["n"].sum()
             .reset_index())
        return g

    counts = exchange(ds.map_batches(partial, batch_format="pyarrow"),
                      ["minute", "term"], exact_counts)

    def local_topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(["minute", "n", "term"],
                            ascending=[True, False, True], kind="stable")
        return pa.Table.from_pandas(
            df.groupby("minute", sort=False).head(k),
            preserve_index=False)

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["n", "term"], ascending=[False, True],
                            kind="stable").head(k).copy()
        df["rnk"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df

    return (counts.map_batches(local_topk, batch_format="pyarrow")
            .groupby("minute").map_groups(resolve, batch_format="pandas"))


def trending_terms_sql(k: int = TRENDING_K) -> str:
    from nativeextractor_ray.sources.transcripts import TRANSCRIPTS_SQL

    return f"""WITH t AS ({TRANSCRIPTS_SQL}),
toks AS (
  SELECT strftime(ts, '%Y-%m-%dT%H:%M') AS minute,
         unnest(list_filter(string_split(text, ' '), x -> x <> ''))
           AS term
  FROM t),
counts AS (
  SELECT minute, term, CAST(count(*) AS BIGINT) AS n
  FROM toks GROUP BY 1, 2)
SELECT minute, term, n, CAST(rn AS BIGINT) AS rnk
FROM (SELECT *, row_number() OVER (
        PARTITION BY minute ORDER BY n DESC, term) AS rn
      FROM counts)
WHERE rn <= {k}"""


def tool_transitions(sf_dir: str):
    """Tool-chaining matrix: counts of (from_tool, to_tool) over
    consecutive TOOL-BEARING turns within each conversation (empty-tool
    turns are skipped, so the matrix reads "which tool follows which"
    across the intervening chat) — the agent-workflow fingerprint that
    complements :func:`turn_role_transitions`'s role matrix.

    Scale shape: identical to the role matrix — prune to tool-bearing
    turns map-side FIRST (a minority slice on agent corpora), one
    hash(conv_id) shuffle of (conv, turn, tool), in-partition lexsort +
    boundary-masked shift, ≤ tools² partial rows per partition.

    Output: ``(from_tool, to_tool, n)``."""
    import numpy as np
    import pandas as pd

    from ray.data.aggregate import Sum

    ds = transcripts_dataset(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t.column("tool"), "")
        t = t.filter(keep)
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": t.column("turn_idx"),
            "tool": t.column("tool"),
        })

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd_

        conv = df["conv_id"].to_numpy()
        idx = df["turn_idx"].to_numpy()
        order = np.lexsort((idx, conv))
        conv_s = conv[order]
        tool_s = df["tool"].to_numpy()[order]
        if len(conv_s) < 2:
            return pd_.DataFrame({"from_tool": [], "to_tool": [],
                                  "n": np.array([], np.int64)})
        same = conv_s[1:] == conv_s[:-1]
        g = pd_.DataFrame({
            "from_tool": tool_s[:-1][same],
            "to_tool": tool_s[1:][same],
        }).groupby(["from_tool", "to_tool"], sort=False).size().reset_index(
            name="n")
        g["n"] = g["n"].astype(np.int64)
        return g

    return (exchange(ds.map_batches(prep, batch_format="pyarrow"),
                     ["conv_id"], resolve)
            .groupby(["from_tool", "to_tool"])
            .aggregate(Sum("n", alias_name="n")))


def tool_transitions_sql() -> str:
    from nativeextractor_ray.sources.transcripts import TRANSCRIPTS_SQL

    return f"""WITH t AS ({TRANSCRIPTS_SQL}),
w AS (
  SELECT tool AS from_tool,
         lead(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx)
           AS to_tool
  FROM t WHERE tool <> '')
SELECT from_tool, to_tool, CAST(count(*) AS BIGINT) AS n
FROM w WHERE to_tool IS NOT NULL
GROUP BY 1, 2"""


# --------------------------------------------------- temporal entity KG


def entity_turn_role_ts_dataset(sf_dir: str):
    """(conv_id, turn_idx, role, ts_us, ent) — the entity-turn stream
    with its temporal/speaker context carried through extraction (no
    join back to transcripts is ever needed: the extractor already holds
    the row)."""

    class EntityTurnsCtx(KgExtract):
        def _extract(self, batch: pa.Table) -> pa.Table:  # type: ignore[override]
            pairs = self.entity_pairs(batch.column("text"))
            row = pairs.column("row")
            return pa.table({
                "conv_id": pc.cast(pc.take(batch.column("conv_id"), row), pa.string()),
                "turn_idx": pc.cast(pc.take(batch.column("turn_idx"), row), pa.int32()),
                "role": pc.cast(pc.take(batch.column("role"), row), pa.string()),
                "ts_us": pc.cast(pc.take(batch.column("ts"), row), pa.int64()),
                "ent": pairs.column("ent"),
            })

    ds = transcripts_dataset(sf_dir)
    return ds.map_batches(EntityTurnsCtx(), batch_format="pyarrow",
                          batch_size=None)


def entity_timeline(sf_dir: str):
    """Per-entity temporal profile — first/last mention instant, distinct
    active days, mention-turn count: the temporal-KG rollup ("when did
    this entity enter the corpus, is it still live?") that validity-
    intervaled knowledge graphs start from.

    Scale shape: per-batch (ent, day) partials (n, min_ts, max_ts) —
    day-bucketing bounds the partial table at entities × days — ONE
    composite groupby makes them exact, and the per-entity fold (count
    of days, sums, min/min) is one entity ``exchange``.  Mentions never
    shuffle row-wise.

    Output: ``(entity_id, n_mentions, n_days, first_us, last_us)``."""
    import numpy as np
    import pandas as pd

    from ray.data.aggregate import Max, Min, Sum

    ds = entity_turn_role_ts_dataset(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        ts = t.column("ts_us").to_numpy()
        day = ts // 86_400_000_000
        df = pd.DataFrame({"ent": t.column("ent").to_numpy(
            zero_copy_only=False), "day": day, "ts": ts})
        g = df.groupby(["ent", "day"], sort=False)["ts"].agg(
            ["size", "min", "max"]).reset_index()
        return pa.table({
            "ent": pa.array(g["ent"], pa.string()),
            "day": pa.array(g["day"].to_numpy(np.int64)),
            "n": pa.array(g["size"].to_numpy(np.int64)),
            "lo": pa.array(g["min"].to_numpy(np.int64)),
            "hi": pa.array(g["max"].to_numpy(np.int64))})

    per_day = (ds.map_batches(partial, batch_format="pyarrow")
               .groupby(["ent", "day"])
               .aggregate(Sum("n", alias_name="n"),
                          Min("lo", alias_name="lo"),
                          Max("hi", alias_name="hi")))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("ent", sort=False).agg(
            n_mentions=("n", "sum"), n_days=("day", "size"),
            first_us=("lo", "min"), last_us=("hi", "max")).reset_index()
        g = g.rename(columns={"ent": "entity_id"})
        for c in ("n_mentions", "n_days", "first_us", "last_us"):
            g[c] = g[c].astype("int64")
        return g

    return exchange(per_day, ["ent"], fold)


def entity_timeline_sql() -> str:
    from nativeextractor_ray.pipelines.oracles import _ENTS, _T

    return f"""{_T},
{_ENTS},
w AS (
  SELECT e.ent, epoch_us(t.ts) AS ts_us,
         epoch_us(t.ts) // 86400000000 AS day
  FROM ents_d e JOIN t ON e.conv_id = t.conv_id
                      AND e.turn_idx = t.turn_idx)
SELECT ent AS entity_id,
       CAST(count(*) AS BIGINT) AS n_mentions,
       CAST(count(DISTINCT day) AS BIGINT) AS n_days,
       CAST(min(ts_us) AS BIGINT) AS first_us,
       CAST(max(ts_us) AS BIGINT) AS last_us
FROM w GROUP BY ent"""


def entity_adoption(sf_dir: str):
    """Entity handoff across speakers: for each entity, in how many
    conversations does the USER introduce it strictly before the
    assistant first echoes it — the grounding/adoption signal ("did the
    assistant pick up the user's reference?") that dialogue-KG quality
    metrics are built on.

    Scale shape: the ``first_response_latency`` conditional-Min combiner
    applied per (ent, conv): two sentinel-neutral int64 Min partials per
    batch → ONE (ent, conv) groupby → streaming strict-compare → per-
    entity count partials → tiny entity groupby.

    Output: ``(entity_id, n_convs, n_adopted)``."""
    import numpy as np
    import pandas as pd

    from ray.data.aggregate import Min, Sum

    SENT = np.iinfo(np.int64).max

    ds = entity_turn_role_ts_dataset(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "ent": t.column("ent").to_numpy(zero_copy_only=False),
            "conv_id": t.column("conv_id").to_numpy(zero_copy_only=False),
            "turn": t.column("turn_idx").to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "role": t.column("role").to_numpy(zero_copy_only=False)})
        df["u"] = np.where(df["role"] == "user", df["turn"], SENT)
        df["a"] = np.where(df["role"] == "assistant", df["turn"], SENT)
        g = df.groupby(["ent", "conv_id"], sort=False).agg(
            u=("u", "min"), a=("a", "min")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["ent", "conv_id"])
           .aggregate(Min("u", alias_name="u"),
                      Min("a", alias_name="a")))

    def resolve(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy()
        a = t.column("a").to_numpy()
        adopted = ((u != SENT) & (a != SENT) & (u < a)).astype(np.int64)
        return pa.table({
            "ent": t.column("ent"),
            "one": pa.array(np.ones(t.num_rows, np.int64)),
            "adopted": pa.array(adopted)})

    return (agg.map_batches(resolve, batch_format="pyarrow")
            .groupby("ent")
            .aggregate(Sum("one", alias_name="n_convs"),
                       Sum("adopted", alias_name="n_adopted"))
            .map_batches(lambda t: t.rename_columns(
                ["entity_id", "n_convs", "n_adopted"]),
                batch_format="pyarrow"))


def entity_adoption_sql() -> str:
    from nativeextractor_ray.pipelines.oracles import _ENTS, _T

    return f"""{_T},
{_ENTS},
m AS (
  SELECT ent, conv_id,
         min(CASE WHEN role = 'user' THEN turn_idx END) AS u,
         min(CASE WHEN role = 'assistant' THEN turn_idx END) AS a
  FROM ents_d GROUP BY 1, 2)
SELECT ent AS entity_id,
       CAST(count(*) AS BIGINT) AS n_convs,
       CAST(count(*) FILTER (u IS NOT NULL AND a IS NOT NULL AND u < a)
            AS BIGINT) AS n_adopted
FROM m GROUP BY ent"""


def conv_entity_density(sf_dir: str):
    """Per-conversation entity density — distinct entities, turn count,
    and the exact half-up micro entities-per-turn ratio: the
    information-richness ranking used to pick KG-worthy conversations.

    Scale shape: two conditional partial streams share ONE conv-keyed
    groupby — the entity stream pre-folds to per-(conv) distinct-entity
    counts per batch (a turn's entity set never spans batches), the turn
    stream to per-conv turn counts; both are 16-byte rows.

    Output: ``(conv_id, n_entities, n_turns, density_micro)``."""
    import numpy as np
    import pandas as pd

    ents = entity_turns_dataset(sf_dir)
    turns = transcripts_dataset(sf_dir)

    def turn_partial(t: pa.Table) -> pa.Table:
        # turn rows tag with the empty entity (real entities are always
        # 'label:'-prefixed, never empty)
        g = (pa.table({"conv_id": t.column("conv_id")})
             .group_by("conv_id").aggregate([("conv_id", "count")]))
        return pa.table({"conv_id": g.column("conv_id"),
                         "ent": pa.array([""] * g.num_rows, pa.string()),
                         "nt": pc.cast(g.column("conv_id_count"),
                                       pa.int64())})

    # NOTE: a conversation's entity DISTINCT-set can span batches only if
    # its turns do; the distinct fold below therefore runs per (conv) in
    # the groupby, with per-batch (conv, ent) dedup partials upstream
    def ent_distinct_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "conv_id": t.column("conv_id").to_numpy(zero_copy_only=False),
            "ent": t.column("ent").to_numpy(zero_copy_only=False)})
        ded = df.drop_duplicates()
        return pa.Table.from_pandas(ded, preserve_index=False)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        ents_n = (df[df["ent"] != ""].drop_duplicates(["conv_id", "ent"])
                  .groupby("conv_id", sort=False).size())
        turns_n = df[df["ent"] == ""].groupby(
            "conv_id", sort=False)["nt"].sum()
        convs = sorted(set(ents_n.index) | set(turns_n.index))
        ne = np.array([int(ents_n.get(c, 0)) for c in convs], np.int64)
        nt = np.array([int(turns_n.get(c, 0)) for c in convs], np.int64)
        dens = (2 * ne * 1_000_000 + nt) // (2 * nt)
        return pd.DataFrame({"conv_id": convs, "n_entities": ne,
                             "n_turns": nt, "density_micro": dens})

    ent_rows = ents.map_batches(ent_distinct_partial,
                                batch_format="pyarrow").map_batches(
        lambda t: t.append_column(
            "nt", pa.array(np.zeros(t.num_rows, np.int64))),
        batch_format="pyarrow")
    turn_rows = turns.map_batches(turn_partial, batch_format="pyarrow")
    both = ent_rows.union(turn_rows)
    return exchange(both, ["conv_id"], fold)


def conv_entity_density_sql() -> str:
    from nativeextractor_ray.pipelines.oracles import _ENTS, _T

    return f"""{_T},
{_ENTS},
ne AS (
  SELECT conv_id, CAST(count(DISTINCT ent) AS BIGINT) AS n_entities
  FROM ents_d GROUP BY 1),
nt AS (
  SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns FROM t GROUP BY 1)
SELECT nt.conv_id,
       COALESCE(ne.n_entities, 0) AS n_entities,
       nt.n_turns,
       CAST((2 * COALESCE(ne.n_entities, 0) * 1000000 + nt.n_turns)
            // (2 * nt.n_turns) AS BIGINT) AS density_micro
FROM nt LEFT JOIN ne ON ne.conv_id = nt.conv_id"""


def role_vocab_divergence(sf_dir: str):
    """Total-variation distance between the USER and ASSISTANT token
    distributions — the style/register drift audit over transcript
    corpora (are the two sides of the dialogue drawing from the same
    vocabulary?).  ``TV = ½ Σ_w |p_u(w) − p_a(w)|`` is EXACT integer
    arithmetic over token counts: ``Σ |c_u·n_a − c_a·n_u|`` in Python
    ints over the vocabulary-bounded count table, emitted as the
    half-up micro ratio against ``2·n_u·n_a``.

    Scale shape: per-batch (role, term) Arrow count partials → ONE
    hash(term)-style composite groupby (vocabulary-bounded) → driver
    fold.  Output: one row ``(n_user_tokens, n_assistant_tokens,
    tv_micro)``."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    ds = transcripts_dataset(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("role"),
                        value_set=pa.array(["user", "assistant"]))
        t = t.filter(keep)
        toks = pc.split_pattern(t.column("text"), " ")
        parent = pc.list_parent_indices(toks)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        ok = pc.not_equal(flat, "")
        flat = flat.filter(ok)
        role = pc.take(t.column("role"), parent)
        if isinstance(role, pa.ChunkedArray):
            role = role.combine_chunks()
        role = role.filter(ok)
        g = (pa.table({"role": role, "term": flat})
             .group_by(["role", "term"]).aggregate([("term", "count")]))
        return pa.table({"role": g.column("role"),
                         "term": g.column("term"),
                         "n": pc.cast(g.column("term_count"), pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(["role", "term"])
              .aggregate(Sum("n", alias_name="n")))
    from nativeextractor_ray.functions.blocks import concat_blocks

    t = concat_blocks(counts, empty=pa.table(
        {"role": pa.array([], pa.string()),
         "term": pa.array([], pa.string()),
         "n": pa.array([], pa.int64())}))
    df = t.to_pandas()
    u = df[df["role"] == "user"].set_index("term")["n"]
    a = df[df["role"] == "assistant"].set_index("term")["n"]
    nu, na = int(u.sum()), int(a.sum())
    vocab = sorted(set(u.index) | set(a.index))
    num = sum(abs(int(u.get(w, 0)) * na - int(a.get(w, 0)) * nu)
              for w in vocab)
    den = 2 * nu * na
    return pd.DataFrame({
        "n_user_tokens": pd.array([nu], dtype="int64"),
        "n_assistant_tokens": pd.array([na], dtype="int64"),
        "tv_micro": pd.array([(2 * num * 1_000_000 + den) // (2 * den)],
                             dtype="int64")})


def role_vocab_divergence_sql() -> str:
    from nativeextractor_ray.pipelines.oracles import _T

    return f"""{_T},
tok AS (
  SELECT role,
         unnest(list_filter(string_split(text, ' '), x -> x <> ''))
           AS term
  FROM t WHERE role IN ('user', 'assistant')),
c AS (
  SELECT term,
         CAST(count(*) FILTER (role = 'user') AS HUGEINT) AS cu,
         CAST(count(*) FILTER (role = 'assistant') AS HUGEINT) AS ca
  FROM tok GROUP BY term),
tot AS (
  SELECT sum(cu) AS nu, sum(ca) AS na FROM c),
num AS (
  SELECT sum(abs(c.cu * tot.na - c.ca * tot.nu)) AS s FROM c, tot)
SELECT CAST(tot.nu AS BIGINT) AS n_user_tokens,
       CAST(tot.na AS BIGINT) AS n_assistant_tokens,
       CAST((2 * num.s * 1000000 + 2 * tot.nu * tot.na)
            // (4 * tot.nu * tot.na) AS BIGINT) AS tv_micro
FROM tot, num"""
