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
``conv_id#lpad(turn_idx, 9, "0")`` provenance key in string order (the
pad makes string order turn order for the non-negative ``turn_idx`` the
transcript derivation gives); ``prob`` is 1.0 (all std miners emit 1.0,
naive_email_miner.c:140).  A NULL ``conv_id``, ``turn_idx`` or ``role``
raises ``ValueError``; a NULL ``tool`` is no tool.

Everything runs through one **(row, ent) pair table** per batch, kept as
integer codes (:meth:`KgExtract._pair_codes`): each distinct entity of
the batch has a *rank*, its position among the batch's distinct entities
in byte order, and the pairs are one ``np.unique`` over the packed
``row * n_ent + rank``, so they come out sorted by ``(row, ent)``.  The
spans come from MinerPool's batch scan
(:func:`~nativeextractor_ray.stages.miner_pool.scan_batch`: the native
standard-miner kernel, or the Python engine) — the same miners and the
same scan contract the mention pipeline runs.  KgExtract only maps each
span to its entity: ``linking.entity_id`` runs once per distinct
``(miner, surface)`` (memoized across batches), and one gather spreads
the ranks back over the spans.  NULL text gives no entities; the row's
``uses_tool`` triple still counts.

Each predicate's occurrences are then keyed as packed int64 codes:

- ``uses_tool``      — conv code × tool code, for rows with a non-empty
  ``tool``;
- ``mentions``       — speaker code × entity rank, one per pair (speaker
  codes dedupe on the built ``speaker:<conv_id>/<role>`` string, which
  is not injective in ``(conv_id, role)``);
- ``co_occurs_with`` — rank × rank for every ordered index pair inside
  one row's run of the sorted pairs (the self-join on ``row`` filtered
  on ``a < b``, computed as numpy index arithmetic).

Per predicate, ONE ``np.sort`` of ``key * n_rows + seen_rank`` (the rank
of the row's provenance key in byte order among the batch's) gives each
distinct key's ``support`` and minimal ``first_seen``.  Strings are
built for the combined rows only: ``subj``, ``obj`` and ``first_seen``
are one ``take`` each from small per-batch string tables, and ``part`` is
the native :func:`~nativeextractor_ray.functions.hashing.stable_part`.  A
packed key that would not fit in int64 raises ``OverflowError``.  Python
code runs per distinct surface, never per row, span or triple.
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

#: predicate names, indexed by the emit's int8 predicate codes
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
        ``(row, ent)`` (:meth:`_pair_codes` with each rank replaced by
        its entity)."""
        rows, rank, ents = self._pair_codes(text)
        return pa.table([pa.array(rows), ents.take(pa.array(rank))], schema=PAIR_SCHEMA)

    def _pair_codes(self, text: pa.Array | pa.ChunkedArray
                    ) -> tuple[np.ndarray, np.ndarray, pa.Array]:
        """``(row, rank, ents)``: the pair table on integer codes.  ``ents``
        holds the batch's distinct entities in byte order (UTF-8 byte order
        is code-point order, so it equals Python's ``sorted``), and the
        int64 arrays ``row`` and ``rank`` (an index into ``ents``) are
        sorted by ``(row, rank)``, which is ``(row, ent)`` order.

        For a batch-scannable miner set: the :func:`scan_batch` spans, each
        ranked by :meth:`_link_spans`, deduplicated by one ``np.unique``
        over the packed ``(row, rank)`` codes."""
        text = _text_array(text)
        if not self._fast_ok:
            per_row = [self.turn_entities(t) for t in text.to_pylist()]
            ents = sorted({e for es in per_row for e in es})
            pos = {e: i for i, e in enumerate(ents)}
            rows = np.repeat(np.arange(len(text), dtype=np.int64),
                             [len(es) for es in per_row])
            rank = np.array([pos[e] for es in per_row for e in es], np.int64)
            return rows, rank, pa.array(ents, pa.string())

        s = scan_batch(self.miners, text, self._joined_ok)
        rank, ents = self._link_spans(s.lab, s.surface)
        linked = rank >= 0
        n_ent = max(len(ents), 1)
        codes = np.unique(_pack(s.rows[linked], rank[linked], len(text), n_ent))
        return codes // n_ent, codes % n_ent, ents

    def _link_spans(self, lab: np.ndarray, surface: pa.Array
                    ) -> tuple[np.ndarray, pa.Array]:
        """``(rank, ents)``: every span's entity as an index into ``ents``,
        the distinct entities sorted (-1 when the span does not link).
        ``entity_id`` runs once per distinct ``(miner, surface)`` —
        memoized per instance across batches — spread back by one
        numpy gather."""
        enc = surface.dictionary_encode()
        words = enc.dictionary.to_numpy(zero_copy_only=False)
        nm = len(self.miners)
        keys = pa.array(enc.indices.to_numpy(zero_copy_only=False).astype(np.int64) * nm
                        + lab).dictionary_encode()
        kd = keys.dictionary.to_numpy()
        ids: dict[str, int] = {}  # entity -> first-seen id
        key_id = np.empty(len(kd), np.int64)
        for mi, miner in enumerate(self.miners):
            sel = np.flatnonzero(kd % nm == mi)
            memo, out = self._memo[mi], []
            for surf in words[kd[sel] // nm].tolist():
                e = memo.get(surf, _UNSEEN)
                if e is _UNSEEN:
                    e = entity_id(miner.label, surf, self.index)
                    if len(memo) < 1_000_000:  # bounded memo per instance
                        memo[surf] = e
                out.append(-1 if e is None else ids.setdefault(e, len(ids)))
            key_id[sel] = out
        ents = list(ids)
        order = sorted(range(len(ents)), key=ents.__getitem__)
        rank = np.empty(len(ents) + 1, np.int64)  # id -> rank; rank[-1] = -1
        rank[order] = np.arange(len(ents))
        rank[-1] = -1
        return (rank[key_id][keys.indices.to_numpy()],
                pa.array([ents[i] for i in order], pa.string()))

    #: max rows processed per internal slice.  ``__call__`` must accept
    #: arbitrarily large blocks (a fused upstream explode stage can hand it
    #: a whole multi-100k-row block: batch_size on a fused stage applies to
    #: PRE-explosion row counts), but the transient working set — the
    #: pair table, the triple codes before the combine, the joined scan
    #: buffers — must stay bounded: at ~400k-row calls the fresh-page
    #: allocation cost dominated compute 15× with 16 concurrent workers
    #: (first-touch page faults; same pathology as the minhash pair gather),
    #: 6.4M turns measured 27k turns/s un-sliced vs ~250k sliced.
    SLICE_ROWS = 65536

    def __call__(self, batch: pa.Table) -> pa.Table:
        for name in ("conv_id", "turn_idx", "role"):
            nulls = batch.column(name).null_count
            if nulls:
                raise ValueError(
                    f"KgExtract: {nulls} NULL {name} value(s) in a batch of "
                    f"{batch.num_rows} rows; every triple's subject or "
                    f"first_seen key needs one")
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

        def strings(name: str) -> pa.Array:
            return pc.cast(batch.column(name).combine_chunks(), pa.string())

        def codes(arr: pa.Array) -> tuple[np.ndarray, pa.Array]:
            # (per-row code, distinct strings); only ``tool`` may hold a
            # NULL, and a NULL-tool row is never read at its code
            enc = arr.dictionary_encode()
            return pc.fill_null(enc.indices, 0).to_numpy().astype(np.int64), enc.dictionary

        conv_id = strings("conv_id")
        conv, convs = codes(conv_id)
        tool_name = strings("tool")
        tool, tools = codes(tool_name)
        # each row's provenance key and its rank in byte order (equal keys
        # get adjacent ranks, so a minimal rank is a minimal key)
        seen_key = pc.binary_join_element_wise(
            conv_id, pc.utf8_lpad(strings("turn_idx"), 9, "0"), "#")
        by_seen = pc.sort_indices(seen_key).to_numpy()
        seen = np.empty(len(by_seen), np.int64)
        seen[by_seen] = np.arange(len(by_seen))
        # speaker codes dedupe on the built string: "speaker:a/b" + "/c"
        # and "speaker:a" + "/b/c" are one speaker
        speaker, speakers = codes(pc.binary_join_element_wise(
            "speaker:", conv_id, "/", strings("role"), ""))

        row, rank, ents = self._pair_codes(batch.column("text"))
        # co-occurrence: within one row's run of the pair table, pair every
        # position p with each later position q of the run (the run is
        # sorted and distinct, so rank[p] < rank[q] holds by construction)
        n_after = np.searchsorted(row, row, side="right") - np.arange(len(row)) - 1
        left = np.repeat(np.arange(len(row)), n_after)
        block_start = np.repeat(np.cumsum(n_after) - n_after, n_after)
        right = left + 1 + np.arange(len(left)) - block_start

        tooled = pc.indices_nonzero(pc.greater(pc.binary_length(tool_name), 0)
                                    ).to_numpy().astype(np.int64)
        n_ent, n_seen = len(ents), len(seen)
        combined = [  # (subj code, obj code, support, first_seen rank), in _PREDS order
            _combine(conv[tooled], tool[tooled], len(convs), len(tools),
                     seen[tooled], n_seen),
            _combine(speaker[row], rank, len(speakers), n_ent, seen[row], n_seen),
            _combine(rank[left], rank[right], n_ent, n_ent, seen[row[left]], n_seen),
        ]
        subj_code, obj_code, support, first = (np.concatenate(c) for c in zip(*combined))
        # one string table per column: the three predicates' codes offset
        # into the concatenation of their subject (object) strings
        n_t, n_m = len(combined[0][0]), len(combined[1][0])
        subj_code[n_t:] += len(convs)
        subj_code[n_t + n_m:] += len(speakers)
        obj_code[n_t:] += len(tools)
        subjs = pa.concat_arrays([pc.binary_join_element_wise("conv:", convs, ""),
                                  speakers, ents])
        objs = pa.concat_arrays([pc.binary_join_element_wise("tool:", tools, ""), ents])
        pred = np.repeat(np.arange(3, dtype=np.int8), [len(c[0]) for c in combined])
        out = pa.table(
            [
                subjs.take(pa.array(subj_code)),
                _PREDS.take(pa.array(pred)),
                objs.take(pa.array(obj_code)),
                pa.array(support),
                seen_key.take(pa.array(by_seen[first])),
                pa.array(np.ones(len(support), np.float32)),
            ],
            schema=TRIPLE_PARTIAL_SCHEMA,
        )
        # process-stable partition key for the downstream coarse combine
        # (builtin hash() is salted per process and would split keys)
        return out.append_column("part", stable_part(out, ["subj", "pred", "obj"],
                                                      N_TRIPLE_PARTS))


def _pack(hi: np.ndarray, lo: np.ndarray, n_hi: int, n_lo: int) -> np.ndarray:
    """``hi * n_lo + lo``: one int64 code per pair, in ``(hi, lo)`` order,
    for ``0 <= hi < n_hi`` and ``0 <= lo < n_lo``.  Raises
    ``OverflowError`` when that key space does not fit in int64."""
    if n_hi * n_lo > np.iinfo(np.int64).max:
        raise OverflowError(f"a {n_hi} x {n_lo} key space does not fit in int64")
    return np.asarray(hi, np.int64) * n_lo + lo


def _combine(hi: np.ndarray, lo: np.ndarray, n_hi: int, n_lo: int,
             seen: np.ndarray, n_seen: int) -> tuple[np.ndarray, ...]:
    """The per-batch combine of one predicate's occurrences, keyed on the
    ``(hi, lo)`` codes: ``(hi, lo, support, min seen)``, one entry per
    distinct key, from ONE sort of the packed ``(hi, lo, seen)`` codes.

    ``n_seen`` is the slice's row count (at most ``SLICE_ROWS`` = 2^16),
    so the packed codes fit in int64 while ``n_hi * n_lo < 2^47``.  The
    widest space is ``co_occurs_with``'s ``n_ent^2``: spreading more than
    ~1.2e7 distinct entities over 2^16 rows takes over 10^9 co-occurrence
    occurrences in one slice, whose ``left``/``right`` index arrays alone
    would be ~17 GB; below that the codes fit."""
    s = np.sort(_pack(_pack(hi, lo, n_hi, n_lo), seen, n_hi * n_lo, n_seen))
    key = s // max(n_seen, 1)
    start = np.flatnonzero(np.diff(key, prepend=-1))
    key = key[start]
    n_lo = max(n_lo, 1)
    return (key // n_lo, key % n_lo, np.diff(start, append=len(s)),
            s[start] % max(n_seen, 1))
