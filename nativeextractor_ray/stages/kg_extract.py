"""KgExtract — fused mention-detect + link + triple-emit stage.

One pass over transcript rows produces *pre-aggregated* triple partials:
the batch's triples are combined within the batch (a per-batch combiner),
so the global ``groupby((subj, pred, obj))`` dedup shuffles partial counts
instead of raw occurrences — the pre-aggregate-before-shuffle pattern that
keeps the wide step small at 10^12-turn scale.

Predicates (north-star role/tool-aware set):
- (conv:<conv_id>,            uses_tool,       tool:<tool>)   when tool != ''
- (speaker:<conv_id>/<role>,  mentions,        <entity>)      per distinct
  entity per turn
- (<entity_a>,                co_occurs_with,  <entity_b>)    per unordered
  distinct entity pair within one turn, a < b

``support`` counts turns; ``first_seen`` is the minimal
``conv_id#turn_idx`` provenance key (zero-padded so string order == turn
order for the non-negative ``turn_idx`` the transcript derivation gives);
``prob`` is 1.0 (all std miners emit 1.0, naive_email_miner.c:140).

Everything runs through one **(row, ent) pair table** per batch
(:meth:`KgExtract.entity_pairs`): one row per distinct entity per turn,
sorted by ``(row, ent)``.  Its spans come from MinerPool's batch scan
(:func:`~nativeextractor_ray.stages.miner_pool.scan_batch`: the native
standard-miner kernel, or the Python engine) — the same miners and the
same scan contract the mention pipeline runs.  KgExtract only maps each
span to its canonical entity: the scan's Arrow ``surface`` column is
dictionary-encoded, ``linking.entity_id`` runs once per distinct
``(miner, surface)`` (memoized across batches), and a ``take`` spreads
the result back over the spans.  NULL text gives no entities; the row's
``uses_tool`` triple still counts.  The triples are then built column-wise
in Arrow:

- ``mentions``       — ``take`` of the per-row speaker / provenance keys
  by ``row``;
- ``co_occurs_with`` — every ordered index pair inside one row's run of
  the sorted pair table (a self-join on ``row`` filtered on ``a < b``,
  computed as numpy index arithmetic);
- ``uses_tool``      — the rows with a non-empty ``tool``;

then ONE ``group_by((subj, pred, obj))`` with ``count`` / ``min`` of the
provenance key and the ``stable_part`` partition column.  Python code runs
per distinct surface, never per row, span or triple.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.functions.linking import DictIndex, entity_id
from nativeextractor_ray.miners import stdcc
from nativeextractor_ray.miners.base import run_miners
from nativeextractor_ray.sources.transcripts import DICT_NAMES
from nativeextractor_ray.stages.miner_pool import (
    STD_MINER_SPECS,
    MinerSpec,
    _fast_scan_safe,
    _text_array,
    build_miners,
    scan_batch,
)

#: ``part`` of a triple partial: ``stable_part(subj, pred, obj)`` mod this
N_TRIPLE_PARTS = 256

TRIPLE_PARTIAL_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("support", pa.int64()),
        ("first_seen", pa.string()),
        ("prob", pa.float32()),
    ]
)

PAIR_SCHEMA = pa.schema([("row", pa.int64()), ("ent", pa.string())])

#: predicate names, indexed by the int8 codes the emit groups on
_PREDS = pa.array(["uses_tool", "mentions", "co_occurs_with"], pa.string())

_UNSEEN = object()


class KgExtract:
    def __init__(
        self,
        specs: Sequence[MinerSpec] = tuple(STD_MINER_SPECS),
        dict_words: Sequence[str] = tuple(DICT_NAMES),
    ):
        self.miners = build_miners(specs)
        self.index = DictIndex(dict_words)
        # entity extraction needs only the SET of (label, surface) per turn,
        # so any miner set MinerPool can batch-scan is scanned here the
        # same way; others fall back to the per-row parity engine
        self._joined_ok = _fast_scan_safe(self.miners)
        self._fast_ok = self._joined_ok or stdcc.eligible(self.miners)
        #: per miner: surface -> entity id (None when it does not link)
        self._memo: list[dict[str, str | None]] = [{} for _ in self.miners]

    def turn_entities(self, text: str) -> list[str]:
        """Distinct canonical entities mentioned in one turn, sorted."""
        ents = set()
        for m in run_miners(text or "", self.miners, sort=False):  # NULL: none
            e = entity_id(m.label, m.surface, self.index)
            if e:
                ents.add(e)
        return sorted(ents)

    def batch_entities(self, texts: list[str]) -> list[list[str]]:
        """Per-row sorted distinct entities for a whole batch: the pair
        table of :meth:`entity_pairs` split by row.  Equals
        ``[turn_entities(t) for t in texts]`` (asserted by
        tests/test_kg_fastpath.py and the triples oracle)."""
        pairs = self.entity_pairs(pa.array(texts, pa.string()))
        ents = pairs.column("ent").to_pylist()
        bounds = np.searchsorted(pairs.column("row").to_numpy(),
                                 np.arange(len(texts) + 1)).tolist()
        return [ents[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def entity_pairs(self, text: pa.Array | pa.ChunkedArray) -> pa.Table:
        """The ``(row, ent)`` pair table (:data:`PAIR_SCHEMA`) of a batch's
        ``text`` column: one row per distinct entity per turn, sorted by
        ``(row, ent)``.

        For a batch-scannable miner set: the :func:`scan_batch` spans, each
        linked by :meth:`_link_spans`, then dedup + sort in Arrow (UTF-8
        byte order is code-point order, so it equals Python's ``sorted``)."""
        text = _text_array(text)
        if not self._fast_ok:
            per_row = [self.turn_entities(t) for t in text.to_pylist()]
            rows = np.repeat(np.arange(len(text), dtype=np.int64),
                             [len(e) for e in per_row])
            return pa.table([pa.array(rows), pa.array([e for es in per_row for e in es],
                                                      pa.string())], schema=PAIR_SCHEMA)

        s = scan_batch(self.miners, text, self._joined_ok)
        pairs = pa.table([pa.array(s.rows), self._link_spans(s.lab, s.surface)],
                         schema=PAIR_SCHEMA)
        return (pairs.filter(pc.is_valid(pairs.column("ent")))
                .group_by(["row", "ent"]).aggregate([])
                .sort_by([("row", "ascending"), ("ent", "ascending")])
                .select(["row", "ent"]))

    def _link_spans(self, lab: np.ndarray, surface: pa.Array) -> pa.Array:
        """Entity id (NULL when it does not link) of every span:
        ``entity_id`` once per distinct ``(miner, surface)`` — memoized
        per instance across batches — spread back by one ``take``."""
        enc = surface.dictionary_encode()
        words = enc.dictionary.to_numpy(zero_copy_only=False).tolist()
        nm = len(self.miners)
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        keys, inverse = np.unique(idx * nm + lab, return_inverse=True)
        ents: list[str | None] = []
        for key in keys.tolist():
            mi, surf = key % nm, words[key // nm]
            memo = self._memo[mi]
            e = memo.get(surf, _UNSEEN)
            if e is _UNSEEN:
                e = entity_id(self.miners[mi].label, surf, self.index)
                if len(memo) < 1_000_000:  # bounded memo per instance
                    memo[surf] = e
            ents.append(e)
        return pa.array(ents, pa.string()).take(pa.array(inverse))

    #: max rows processed per internal slice.  ``__call__`` must accept
    #: arbitrarily large blocks (a fused upstream explode stage can hand it
    #: a whole multi-100k-row block: batch_size on a fused stage applies to
    #: PRE-explosion row counts), but the transient working set — the
    #: pair table, the triple columns before the group_by, the joined scan
    #: buffers — must stay bounded: at ~400k-row calls the fresh-page
    #: allocation cost dominated compute 15× with 16 concurrent workers
    #: (first-touch page faults; same pathology as the minhash pair gather),
    #: 6.4M turns measured 27k turns/s un-sliced vs ~250k sliced.
    SLICE_ROWS = 65536

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows > self.SLICE_ROWS:
            # duplicate (subj, pred, obj) partials across slices are fine:
            # every consumer combines via groupby(part) downstream
            return pa.concat_tables([
                self._extract(batch.slice(lo, self.SLICE_ROWS))
                for lo in range(0, batch.num_rows, self.SLICE_ROWS)
            ])
        return self._extract(batch)

    def _extract(self, batch: pa.Table) -> pa.Table:
        from nativeextractor_ray.functions.hashing import stable_part

        def col(name: str) -> pa.Array:
            return pc.cast(batch.column(name).combine_chunks(), pa.string())

        conv = col("conv_id")
        seen = pc.binary_join_element_wise(conv, pc.utf8_lpad(col("turn_idx"), 9, "0"), "#")
        speaker = pc.binary_join_element_wise("speaker:", conv, "/", col("role"), "")

        pairs = self.entity_pairs(batch.column("text"))
        row = pairs.column("row").combine_chunks()
        ent = pairs.column("ent").combine_chunks()
        rows = row.to_numpy()

        # co-occurrence: within one row's run of the sorted pair table, pair
        # every position p with each later position q of the run (the
        # self-join on row filtered on ent < ent_b: the run is sorted and
        # distinct, so ent[p] < ent[q] holds by construction)
        n_after = np.searchsorted(rows, rows, side="right") - np.arange(len(rows)) - 1
        left = np.repeat(np.arange(len(rows)), n_after)
        block_start = np.repeat(np.cumsum(n_after) - n_after, n_after)
        right = left + 1 + np.arange(len(left)) - block_start

        tool = col("tool")
        tooled = pc.indices_nonzero(pc.greater(pc.binary_length(tool), 0))
        pair_seen = pc.take(seen, row)
        triples = [  # (subj, obj, seen) per predicate, in _PREDS order
            (pc.binary_join_element_wise("conv:", pc.take(conv, tooled), ""),
             pc.binary_join_element_wise("tool:", pc.take(tool, tooled), ""),
             pc.take(seen, tooled)),
            (pc.take(speaker, row), ent, pair_seen),
            (pc.take(ent, left), pc.take(ent, right), pc.take(pair_seen, left)),
        ]
        subj, obj, first = (pa.chunked_array(c, pa.string()) for c in zip(*triples))
        pred = np.repeat(np.arange(len(triples), dtype=np.int8), [len(t[0]) for t in triples])
        g = pa.table({"subj": subj, "pred": pred, "obj": obj, "seen": first}).group_by(
            ["subj", "pred", "obj"]).aggregate([("seen", "count"), ("seen", "min")])
        out = pa.table(
            [
                g.column("subj"),
                pc.take(_PREDS, g.column("pred")),
                g.column("obj"),
                g.column("seen_count"),
                g.column("seen_min"),
                pa.array(np.ones(g.num_rows, np.float32)),
            ],
            schema=TRIPLE_PARTIAL_SCHEMA,
        )
        # process-stable partition key for the downstream coarse combine
        # (builtin hash() is salted per process and would split keys)
        return out.append_column("part", stable_part(out, ["subj", "pred", "obj"],
                                                      N_TRIPLE_PARTS))
