"""MinerPool — the Ray Data analogue of ``extractor_c`` + its miners.

The reference builds an extractor once (compiling tries / globs / regex
.so modules) and reuses it for unlimited inputs
(``/root/reference/src/extractor.c:517-564``, README "Native RegExps":
compile once, use unlimited times).  Here that economics maps to a callable
passed to ``ds.map_batches``: miners are compiled in ``__init__`` from
picklable specs, and ``__call__`` processes one Arrow batch per
invocation, emitting one mention row per occurrence.  A pickled pool
carries only its specs and flags (``__reduce__``): unpickling resolves
through :func:`_pool`, which builds each distinct pool once per worker
process and hands the same instance to every later task there — an
actor's once-per-``__init__`` build, with no CPU held between tasks.
Compiled automata never cross a process boundary, and an ``ObjectRef``
gazetteer in a spec resolves in the worker.  The class also still runs
as an actor stage (``map_batches(MinerPool, fn_constructor_args=...)``).

**The scan contract.**  :func:`scan_batch` is the one batch scan, here and
in ``KgExtract``.  It returns :class:`Spans`: per mention its batch row,
miner index, row-local byte and codepoint spans, prob, and an Arrow
``surface`` array gathered from the text column's data buffer — in the
per-row engine's order (row, then miner, then start).  Two engines fill it:

- the native kernel (``miners/stdcc.py``) when every miner is a standard
  one: one C call over the column's Arrow buffers, each row scanned on its
  own; rows with non-ASCII bytes go to the Python engine and are merged
  back by row (spans never cross rows, so the split is exact);
- the Python engine otherwise, or under ``NXR_NO_CC=1`` — the parity
  reference: :func:`joined_scan`, one ``re``/FSM pass per miner over the
  newline-joined batch, for every fast-safe miner set
  (:func:`_fast_scan_safe`), else each miner's ``find`` per row.

NULL text gives no mentions (DuckDB's ``regexp_extract_all(NULL)`` unnests
to no rows).  Miner sets neither engine can run joined (e.g. a glob with a
mid-pattern ``*``) take the per-row ``run_miners`` loop in ``MinerPool``.

The reference runs miners on parallel threads *within* one scan window and
barriers on the slowest (extractor.c:236-239); at cluster scale the right
axis is parallelism across rows/blocks, so miners run sequentially per row
and Ray parallelizes across batches — no per-batch barrier, no straggler
coupling between miners.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.miners import stdcc
from nativeextractor_ray.miners.base import (
    Miner,
    make_miner,
    run_miners,
)
from nativeextractor_ray.miners.cc import text_buffers
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


def joined_scan(miners: Sequence[Miner], text: pa.Array):
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

    Returns ``(starts, rows, gu0, gu1, lab, prob)``: ``starts`` the
    codepoint offset of each row in the joined text (plus the end sentinel),
    gu0/gu1 codepoint spans into the joined text, ``rows`` the batch row of each
    span, ``lab`` the miner index.  Array order is miner-major with spans
    ascending within each miner — i.e. per row, exactly the per-row
    engine's insertion order (found.extend per miner in miner order)."""
    from nativeextractor_ray.miners.ner import _TOKEN_RE, DictionaryMiner

    one_list = pa.ListArray.from_arrays(pa.array([0, len(text)], pa.int32()), text)
    joined = pc.binary_join(one_list, pa.scalar("\n", text.type))[0].as_py()
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
    return starts, rows, gu0, gu1, lab, prob


class Spans(NamedTuple):
    """One batch scan (:func:`scan_batch`): one entry per mention, ordered
    as the per-row engine inserts them (row, then miner, then start)."""

    rows: np.ndarray     # int64 batch row
    lab: np.ndarray      # int64 miner index
    b0: np.ndarray       # int64 row-local byte span
    b1: np.ndarray
    u0: np.ndarray       # int64 row-local codepoint span
    u1: np.ndarray
    prob: np.ndarray     # float32
    surface: pa.Array    # string, gathered from the text data buffer


def _text_array(text: pa.Array | pa.ChunkedArray) -> pa.Array:
    if isinstance(text, pa.ChunkedArray):  # one chunk: no copy
        text = text.chunk(0) if text.num_chunks == 1 else text.combine_chunks()
    if not (pa.types.is_string(text.type) or pa.types.is_large_string(text.type)):
        text = text.cast(pa.string())
    return text


def _gather(text: pa.Array, rows: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> pa.Array:
    """The byte spans ``[b0, b1)`` of rows ``rows`` as one string array,
    copied straight out of the text column's data buffer."""
    _valid, _voff, offs, data = text_buffers(text)
    lens = b1 - b0
    out_off = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(lens, out=out_off[1:])
    total = int(out_off[-1])
    src = np.repeat(offs[rows] + b0 - out_off[:-1], lens) + np.arange(total)
    small = total < 2**31
    return pa.Array.from_buffers(
        pa.string() if small else pa.large_string(), len(rows),
        [None, pa.py_buffer(out_off.astype(np.int32) if small else out_off),
         pa.py_buffer(data[src])])


def _byte_spans(text: pa.Array, rows, u0, u1):
    """Row-local codepoint spans → row-local byte spans, through the byte
    position of every codepoint start in the data buffer."""
    _valid, _voff, offs, data = text_buffers(text)
    body = data[offs[0]:offs[-1]]
    if pc.sum(pc.utf8_length(text)).as_py() in (None, len(body)):  # ASCII
        return u0, u1
    lead = np.append(np.flatnonzero((body & 0xC0) != 0x80) + offs[0], offs[-1])
    first = np.searchsorted(lead, offs[:-1])[rows]
    return lead[first + u0] - offs[rows], lead[first + u1] - offs[rows]


def _python_scan(miners: Sequence[Miner], text: pa.Array, joined_ok: bool) -> Spans:
    """The Python engine: :func:`joined_scan` when ``joined_ok``
    (:func:`_fast_scan_safe`), else each miner's ``find`` per row."""
    text = pc.fill_null(text, "")
    if joined_ok:
        starts, rows, gu0, gu1, lab, prob = joined_scan(miners, text)
        order = np.argsort(rows, kind="stable")
        rows, lab, prob = rows[order], lab[order], prob[order]
        u0, u1 = gu0[order] - starts[rows], gu1[order] - starts[rows]
    else:
        found = [(r, mi, a, b, p) for r, t in enumerate(text.to_pylist())
                 for mi, m in enumerate(miners) for a, b, p in m.find(t)]
        cols = list(zip(*found)) or [()] * 5
        rows, lab, u0, u1 = (np.asarray(c, np.int64) for c in cols[:4])
        prob = np.asarray(cols[4], np.float32)
    b0, b1 = _byte_spans(text, rows, u0, u1)
    return Spans(rows, lab, b0, b1, u0, u1, prob, _gather(text, rows, b0, b1))


def scan_batch(miners: Sequence[Miner], text: pa.Array | pa.ChunkedArray,
               joined_ok: bool) -> Spans:
    """THE batch scan of a ``text`` column (see the module docstring):
    the native kernel when it implements every miner and loads, with the
    Python engine for its non-ASCII rows; else the Python engine.
    ``joined_ok`` is :func:`_fast_scan_safe` of ``miners``."""
    text = _text_array(text)
    if not (stdcc.eligible(miners) and stdcc.available()):
        return _python_scan(miners, text, joined_ok)
    rows, lab, b0, b1, rest = stdcc.scan(miners, text)
    spans = Spans(rows, lab, b0, b1, b0, b1, np.ones(len(rows), np.float32),
                  _gather(text, rows, b0, b1))
    if len(rest):  # non-ASCII rows: the Python engine, merged back by row
        py = _python_scan(miners, text.take(pa.array(rest)), joined_ok)
        py = py._replace(rows=rest[py.rows], surface=py.surface.cast(spans.surface.type))
        order = np.argsort(np.concatenate([rows, py.rows]), kind="stable")
        spans = Spans(*(np.concatenate([a, b])[order] for a, b in zip(spans[:-1], py[:-1])),
                      pa.concat_arrays([spans.surface, py.surface]).take(pa.array(order)))
    return spans

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


#: pools built in this process by :func:`_pool`, oldest first
_POOLS: dict = {}
_MAX_POOLS = 8


def _pool(specs: tuple, no_enclosed: bool, sort: bool, carry: tuple) -> "MinerPool":
    """The pool an unpickled :class:`MinerPool` resolves to: built on the
    first load in this process, the same instance on every later one.
    Keyed on ``repr(specs)`` and the flags; a spec whose repr is an
    object address (``<... at 0x...>``) names no content, so it is built
    afresh.  At most ``_MAX_POOLS`` stay cached, the oldest dropped first."""
    key = (repr(specs), no_enclosed, sort, carry)
    pool = _POOLS.get(key)
    if pool is None:
        pool = MinerPool(specs, no_enclosed=no_enclosed, sort=sort, carry=carry)
        if " at 0x" not in key[0]:
            if len(_POOLS) >= _MAX_POOLS:
                del _POOLS[next(iter(_POOLS))]
            _POOLS[key] = pool
    return pool


class MinerPool:
    def __init__(
        self,
        specs: Sequence[MinerSpec] = tuple(STD_MINER_SPECS),
        *,
        no_enclosed: bool = False,
        sort: bool = True,
        carry: Sequence[str] = (),
    ):
        self.specs = tuple(tuple(s) for s in specs)
        self.miners = build_miners(self.specs)
        self.no_enclosed = no_enclosed
        self.sort = sort
        self.carry = tuple(carry)
        self._joined_ok = _fast_scan_safe(self.miners)
        #: batch engines (scan_batch) or the per-row run_miners loop
        self._fast_ok = self._joined_ok or stdcc.eligible(self.miners)
        labels = [m.label for m in self.miners]
        self._labels = pa.array(labels, pa.string())
        ranks = {l: i for i, l in enumerate(sorted(set(labels)))}
        self._label_rank = np.asarray([ranks[l] for l in labels], dtype=np.int64)

    def __reduce__(self):
        return _pool, (self.specs, self.no_enclosed, self.sort, self.carry)

    def _call_fast(self, batch: pa.Table) -> pa.Table:
        """Vectorized batch path: the :class:`Spans` of :func:`scan_batch`
        end to end, one Arrow ``take`` for the carried columns and the
        surfaces — no per-mention Python object (the round-1 output
        assembly was the mention-scan wall; VERDICT.md r1 item 1)."""
        text = _text_array(batch.column("text"))
        s = scan_batch(self.miners, text, self._joined_ok)
        rows, lab = s.rows, s.lab
        blen = s.b1 - s.b0

        # Enclosed filter as ONE global sweep in data-buffer byte
        # coordinates: rows occupy disjoint byte intervals and spans are
        # non-empty, so no span of one row properly contains a span of
        # another and the global sweep equals the per-row filter_enclosed
        # (extractor.c:145-203) — drop spans properly contained in
        # another, keep identical intervals.
        sel = np.arange(len(rows))
        if self.no_enclosed and len(rows) > 1:
            gb0 = text_buffers(text)[2][rows] + s.b0
            order = np.lexsort((-blen, gb0))  # pos asc, len desc
            end_o = (gb0 + blen)[order]
            # c encodes (end, -pos) lexicographically: prefix-max(c) > c_k
            # iff an earlier-in-sweep span (pos<=pos_k) properly contains k
            M = np.int64(end_o.max()) + 2
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
                (self._label_rank[lab[sel]], blen[sel], s.b0[sel], rows[sel])
            )
            sel = sel[order]
        # else: Spans order IS the per-row insertion order

        idx = pa.array(sel)
        base = batch.select(["conv_id", "turn_idx", *self.carry]).take(pa.array(rows[sel]))
        data = {
            "conv_id": base.column("conv_id"),
            "turn_idx": base.column("turn_idx"),
            "label": self._labels.take(pa.array(lab[sel])),
            "pos": pa.array(s.b0[sel], pa.int64()),
            "upos": pa.array(s.u0[sel], pa.int64()),
            "len": pa.array(blen[sel].astype(np.int32)),
            "ulen": pa.array((s.u1 - s.u0)[sel].astype(np.int32)),
            "surface": s.surface.take(idx),
            "prob": pa.array(s.prob[sel], pa.float32()),
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
            found = run_miners(  # NULL text: no mentions
                text or "", self.miners, no_enclosed=self.no_enclosed, sort=self.sort
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
