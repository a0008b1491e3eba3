"""MinerPool — the actor-pool analogue of ``extractor_c`` + its miners.

The reference builds an extractor once (compiling tries / globs / regex
.so modules) and reuses it for unlimited inputs
(``/root/reference/src/extractor.c:517-564``, README "Native RegExps":
compile once, use unlimited times).  Here that economics maps to a callable
passed to ``ds.map_batches``: miners are compiled once in ``__init__``
(from picklable specs — compiled automata hold closures that must not
cross process boundaries) — a pre-built instance in task mode for cheap
specs, or the class with ``concurrency=N`` as an actor pool for costly
ones — and ``__call__`` processes one Arrow batch per invocation,
emitting one mention row per occurrence.

:func:`joined_scan` is the one batch scan: every fast-safe miner set
(:func:`_fast_scan_safe`) is scanned once per miner over the
newline-joined batch, here and in ``KgExtract``.

The reference runs miners on parallel threads *within* one scan window and
barriers on the slowest (extractor.c:236-239); at cluster scale the right
axis is parallelism across rows/blocks, so miners run sequentially per row
and Ray parallelizes across batches — no per-batch barrier, no straggler
coupling between miners.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.miners.base import (
    Miner,
    make_miner,
    run_miners,
)
from nativeextractor_ray.occurrence import MENTIONS_SCHEMA
from nativeextractor_ray.sources.transcripts import DICT_NAMES
from nativeextractor_ray.unicode import is_delimiter


def _fast_scan_safe(miners: Sequence[Miner]) -> bool:
    """True iff every miner is safe for the joined-batch global scan:
    regex-family and email-FSM miners can't match across "\\n"; a
    dictionary miner qualifies when no dict word starts with a delimiter
    (so the BOF-quirk patch in joined_scan is airtight); a
    reference-dialect regex qualifies when its compiled automaton proves
    no consuming edge accepts a newline and no BOF/EOF anchor is present
    (CompiledRegex.joined_scan_safe); a glob qualifies when it has no
    mid-pattern ``*`` (whose tail token-skip can cross the row separator)
    and no accept set containing "\\n" (GlobMiner.joined_scan_safe).
    Custom miners fall back to the per-row engine."""
    from nativeextractor_ray.miners.builtin import EmailMiner, _ReMiner
    from nativeextractor_ray.miners.glob import GlobMiner
    from nativeextractor_ray.miners.ner import DictionaryMiner
    from nativeextractor_ray.miners.regexlang import RegexMiner

    for m in miners:
        if isinstance(m, GlobMiner):
            if not m.joined_scan_safe:
                return False
        elif isinstance(m, DictionaryMiner):
            if hasattr(m.trie, "first_bytes"):
                # flat gazetteer artifact: decide from the first-byte set
                # (O(256)) instead of materializing a million words; a
                # non-ASCII first byte falls back to the per-row engine
                # conservatively (the first CHAR would need a decode)
                fb = m.trie.first_bytes()
                if any(b >= 0x80 for b in fb):
                    return False
                if any(is_delimiter(chr(b)) for b in fb):
                    return False
            else:
                for k, _ in m.trie.items():
                    if k and is_delimiter(k.decode("utf-8", "replace")[0]):
                        return False
        elif isinstance(m, RegexMiner):
            if not m._re.joined_scan_safe:
                return False
        elif not isinstance(m, (_ReMiner, EmailMiner)):
            return False
    return True


def _quirk_rows(text: pa.Array) -> list[int]:
    """Rows whose first char is a non-space delimiter."""
    firsts = pc.utf8_slice_codeunits(text, 0, 1)
    quirky = [c for c in pc.unique(firsts).to_pylist()
              if c and is_delimiter(c) and not c.isspace()]
    if not quirky:
        return []
    mask = pc.is_in(firsts, pa.array(quirky, pa.string()))
    return np.flatnonzero(mask.to_numpy(zero_copy_only=False)).tolist()


def joined_scan(miners: Sequence[Miner], text: pa.Array | pa.ChunkedArray):
    """ONE global scan per miner over a batch's ``text`` column joined
    with "\\n" (in Arrow), returning numpy span arrays — no per-mention
    Python objects.

    Exact-span equivalent of the per-row engine for fast-safe miners
    (:func:`_fast_scan_safe`; asserted by tests/test_miner_pool_fastpath.py
    and tests/test_kg_fastpath.py): no fast-safe miner can match across
    "\\n" (regex classes exclude whitespace or are digit/dot-only; the email
    FSM's char sets exclude \\n; NER tokens are \\S+), matches in different
    rows never interact through per-miner ``end_last``, and within-row scan
    order equals the per-row scan.  The NER BOF-delimiter quirk applies per
    row, so rows starting with a non-space delimiter are patched after the
    global scan (dict words never start with a delimiter — checked in
    ``_fast_scan_safe``).

    Returns ``(joined, starts, rows, gu0, gu1, lab, prob)``: ``starts`` the
    codepoint offset of each row in ``joined`` (plus the end sentinel),
    gu0/gu1 codepoint spans into ``joined``, ``rows`` the batch row of each
    span, ``lab`` the miner index.  Array order is miner-major with spans
    ascending within each miner — i.e. per row, exactly the per-row
    engine's insertion order (found.extend per miner in miner order)."""
    from nativeextractor_ray.miners.ner import _TOKEN_RE, DictionaryMiner

    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    one_list = pa.ListArray.from_arrays(pa.array([0, len(text)], pa.int32()), text)
    joined = pc.binary_join(one_list, "\n")[0].as_py()
    starts = np.zeros(len(text) + 1, dtype=np.int64)
    np.cumsum(pc.utf8_length(text).to_numpy(zero_copy_only=False) + 1, out=starts[1:])

    # rows starting with a NON-SPACE delimiter: the per-row scan trims
    # that char off the first token (ner.c:24); the global scan saw it
    # only at joined[0].  Row 0 needs no patch: joined[0] IS the row's
    # first char, so the global scan already applied the quirk there.
    quirk_rows = [r for r in _quirk_rows(text) if r > 0]
    quirk_starts = starts[quirk_rows]

    u0_parts, u1_parts, lab_parts, prob_parts = [], [], [], []
    for mi, miner in enumerate(miners):
        fa = getattr(miner, "find_arrays", None)
        if fa is not None:  # array protocol: no per-span tuples at all
            u0, u1, pr = fa(joined)
            u0 = np.asarray(u0, dtype=np.int64)
            u1 = np.asarray(u1, dtype=np.int64)
            pr = np.asarray(pr, dtype=np.float32)
        else:
            spans = miner.find(joined)
            n = len(spans)
            u0 = np.fromiter((s[0] for s in spans), dtype=np.int64, count=n)
            u1 = np.fromiter((s[1] for s in spans), dtype=np.int64, count=n)
            pr = np.fromiter((s[2] for s in spans), dtype=np.float32, count=n)
        if isinstance(miner, DictionaryMiner) and quirk_rows:
            # drop any global span anchored at a quirk row's first char
            # (untrimmed first token accepted globally — cannot happen
            # for letter-first dictionaries, guarded in _fast_scan_safe;
            # kept to stay row-equivalent)
            keep = ~np.isin(u0, quirk_starts)
            u0, u1, pr = u0[keep], u1[keep], pr[keep]
            # emit the trimmed first token where the dictionary accepts
            # it; its start (local position 1) precedes every other
            # token of the row, so the sort below keeps row order
            q0, q1 = [], []
            for r in quirk_rows:
                lo = int(starts[r])
                m0 = _TOKEN_RE.match(joined, lo, int(starts[r + 1]) - 1)
                if m0 and m0.end() > lo + 1 and miner.accepts(m0.group()[1:]):
                    q0.append(lo + 1)
                    q1.append(m0.end())
            if q0:
                u0 = np.concatenate([u0, np.asarray(q0, np.int64)])
                u1 = np.concatenate([u1, np.asarray(q1, np.int64)])
                pr = np.concatenate([pr, np.ones(len(q0), np.float32)])
                order = np.argsort(u0, kind="stable")
                u0, u1, pr = u0[order], u1[order], pr[order]
        u0_parts.append(u0)
        u1_parts.append(u1)
        prob_parts.append(pr)
        lab_parts.append(np.full(len(u0), mi, dtype=np.int64))

    gu0 = np.concatenate(u0_parts) if u0_parts else np.empty(0, np.int64)
    gu1 = np.concatenate(u1_parts) if u1_parts else np.empty(0, np.int64)
    lab = np.concatenate(lab_parts) if lab_parts else np.empty(0, np.int64)
    prob = np.concatenate(prob_parts) if prob_parts else np.empty(0, np.float32)
    rows = np.searchsorted(starts, gu0, side="right") - 1
    return joined, starts, rows, gu0, gu1, lab, prob

# (miner_name_or_class, args, kwargs) — the config-driven pipeline assembly
# surface (the analogue of add_miner_so(path, symbol, params),
# extractor.c:307-401).  A registry NAME resolves against the registry *in
# the worker process* (built-ins register at import); a custom miner CLASS
# is shipped by value inside the spec — the distributed analogue of the
# reference's "load this .so on every node" plugin convention.
MinerSpec = tuple[str | type, tuple, dict]

#: the standard KG mention-detection set
STD_MINER_SPECS: list[MinerSpec] = [
    ("email", (), {}),
    ("url", (), {}),
    ("date", (), {}),
    ("phone", (), {}),
    ("ner", (DICT_NAMES,), {"label": "Dict"}),
]


def build_miners(specs: Sequence[MinerSpec]) -> list[Miner]:
    return [
        name(*args, **kwargs) if callable(name) else make_miner(name, *args, **kwargs)
        for name, args, kwargs in specs
    ]


class MinerPool:
    def __init__(
        self,
        specs: Sequence[MinerSpec] = tuple(STD_MINER_SPECS),
        *,
        no_enclosed: bool = False,
        sort: bool = True,
        carry: Sequence[str] = (),
    ):
        self.miners = build_miners(specs)
        self.no_enclosed = no_enclosed
        self.sort = sort
        self.carry = tuple(carry)
        self._fast_ok = _fast_scan_safe(self.miners)
        labels = [m.label for m in self.miners]
        self._label_arr = np.asarray(labels, dtype=object)
        ranks = {l: i for i, l in enumerate(sorted(set(labels)))}
        self._label_rank = np.asarray([ranks[l] for l in labels], dtype=np.int64)

    def _call_fast(self, batch: pa.Table) -> pa.Table:
        """Vectorized batch path: numpy span arrays end to end, one Arrow
        ``take`` for the carried columns, one ``pa.array`` per output
        column — no per-mention Python append loop (the round-1 output
        assembly was the mention-scan wall; VERDICT.md r1 item 1)."""
        joined, starts, rows, gu0, gu1, lab, prob = joined_scan(
            self.miners, batch.column("text"))

        # local codepoint spans
        lu0 = gu0 - starts[rows]
        ulen = gu1 - gu0
        # byte spans, vectorized: per-codepoint UTF-8 widths via the
        # UTF-32 view of the joined batch (equals the reference's
        # unicode_getbytesize, include/nativeextractor/unicode.h:36-44)
        if joined.isascii():
            pos, blen = lu0, ulen
            gb0, gbend = gu0, gu1
            total_bytes = len(joined)
        else:
            cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
            w = (
                1
                + (cp >= 0x80).astype(np.int64)
                + (cp >= 0x800)
                + (cp >= 0x10000)
            )
            gboff = np.zeros(len(cp) + 1, dtype=np.int64)
            np.cumsum(w, out=gboff[1:])
            gb0, gbend = gboff[gu0], gboff[gu1]
            pos = gb0 - gboff[starts[rows]]
            blen = gbend - gb0
            total_bytes = int(gboff[-1])

        # Enclosed filter as ONE global sweep in byte coordinates: rows
        # occupy disjoint global intervals (a previous row's max end is
        # always < the next row's span ends), so the global sweep equals
        # the per-row filter_enclosed (extractor.c:145-203) — drop spans
        # properly contained in another, keep identical intervals.
        sel = np.arange(len(rows))
        if self.no_enclosed and len(rows) > 1:
            order = np.lexsort((-blen, gb0))  # pos asc, len desc
            end_o = (gb0 + blen)[order]
            # c encodes (end, -pos) lexicographically: prefix-max(c) > c_k
            # iff an earlier-in-sweep span (pos<=pos_k) properly contains k
            M = np.int64(total_bytes) + 2
            c = end_o * M - gb0[order]
            prefix = np.empty_like(c)
            prefix[0] = np.iinfo(np.int64).min
            np.maximum.accumulate(c[:-1], out=prefix[1:])
            keep = np.ones(len(rows), dtype=bool)
            keep[order] = prefix <= c
            sel = np.nonzero(keep)[0]

        if self.sort:
            # (pos asc, len asc, label asc) within each row
            # (extractor.c:102-112 + the deterministic label tiebreak of
            # sort_occurrences)
            order = np.lexsort(
                (self._label_rank[lab[sel]], blen[sel], pos[sel], rows[sel])
            )
        else:
            # keep per-row insertion order (miner-major, spans ascending)
            order = np.argsort(rows[sel], kind="stable")
        sel = sel[order]

        idx = pa.array(rows[sel])
        base = batch.select(["conv_id", "turn_idx", *self.carry]).take(idx)
        labels = self._label_arr[lab[sel]]
        g0 = gu0[sel].tolist()
        g1 = gu1[sel].tolist()
        data = {
            "conv_id": base.column("conv_id"),
            "turn_idx": base.column("turn_idx"),
            "label": pa.array(labels, pa.string()),
            "pos": pa.array(pos[sel], pa.int64()),
            "upos": pa.array(lu0[sel], pa.int64()),
            "len": pa.array(blen[sel].astype(np.int32)),
            "ulen": pa.array(ulen[sel].astype(np.int32)),
            "surface": pa.array([joined[a:b] for a, b in zip(g0, g1)], pa.string()),
            "prob": pa.array(prob[sel], pa.float32()),
        }
        for c in self.carry:
            data[c] = base.column(c)
        return pa.table(data)

    #: max rows per internal slice — bounds the transient working set
    #: (joined text, span arrays, per-row Python fallback lists) when a
    #: fused upstream explode hands us a whole multi-100k-row block; see
    #: KgExtract.SLICE_ROWS for the measured page-fault pathology.
    SLICE_ROWS = 65536

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows > self.SLICE_ROWS:
            # mention rows are per-turn and slices are disjoint turn
            # sets, so concatenation is exact
            return pa.concat_tables([
                self._scan(batch.slice(lo, self.SLICE_ROWS))
                for lo in range(0, batch.num_rows, self.SLICE_ROWS)
            ])
        return self._scan(batch)

    def _scan(self, batch: pa.Table) -> pa.Table:
        if self._fast_ok:
            return self._call_fast(batch)

        conv = batch.column("conv_id").to_pylist()
        turn = batch.column("turn_idx").to_pylist()
        texts = batch.column("text").to_pylist()
        carried_in = {c: batch.column(c).to_pylist() for c in self.carry}

        cols: dict[str, list] = {name: [] for name in MENTIONS_SCHEMA.names}
        carried_out: dict[str, list] = {c: [] for c in self.carry}
        for r, text in enumerate(texts):
            found = run_miners(
                text, self.miners, no_enclosed=self.no_enclosed, sort=self.sort
            )
            for m in found:
                cols["conv_id"].append(conv[r])
                cols["turn_idx"].append(turn[r])
                cols["label"].append(m.label)
                cols["pos"].append(m.pos)
                cols["upos"].append(m.upos)
                cols["len"].append(m.len)
                cols["ulen"].append(m.ulen)
                cols["surface"].append(m.surface)
                cols["prob"].append(m.prob)
                for c in self.carry:
                    carried_out[c].append(carried_in[c][r])

        arrays = [
            pa.array(cols[f.name], f.type) for f in MENTIONS_SCHEMA
        ]
        names = list(MENTIONS_SCHEMA.names)
        for c in self.carry:
            arrays.append(pa.array(carried_out[c], batch.schema.field(c).type))
            names.append(c)
        return pa.table(dict(zip(names, arrays)))
