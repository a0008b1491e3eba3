"""Dictionary NER miner — reference semantics from
``/root/reference/src/ner.c:20-37``:

    anchor at a delimiter (consuming it) or at stream begin; consume the
    whole non-space token; search the dictionary trie with the token BYTES;
    accept iff matched-prefix-bytes / token-bytes >= 0.75, prob = 1.0.

Acceptance is a *prefix ratio*, not exact membership (ner.c:31): a token
that is a prefix of a dictionary word scores 1.0; ``alicexx`` vs ``alice``
scores 5/7 < 0.75 and is rejected.

Scan-order consequence (verified against extractor.c:55-93): after each
attempt the cursor sits at the end of the consumed non-space run and
``pos_last`` suppresses attempts inside it, so exactly the whitespace-
separated tokens are tested — except that a token at stream begin whose
first char is a (non-space) delimiter loses that first char to the anchor's
``match_delimiter(Right)`` move.  Both behaviors are reproduced.
"""

from __future__ import annotations

import re
from typing import Iterable

from nativeextractor_ray.miners.base import Miner, register_miner
from nativeextractor_ray.state.patricia import PatriciaTrie
from nativeextractor_ray.unicode import is_delimiter

_TOKEN_RE = re.compile(r"\S+")

NER_THRESHOLD = 0.75  # ner.c:31


def dict_candidate_pattern(cls: str) -> str:
    """Regex for the whitespace-delimited tokens whose first char is in the
    character-class body ``cls``: the tokens ``(?<!\\S)[cls]\\S*`` finds,
    written with the class first so Python's ``re`` keeps its
    first-character skip to candidate characters (a leading lookbehind
    defeats it).  The fixed-width lookbehind re-checks the matched char
    together with its predecessor, so the two forms match the same spans."""
    return rf"[{cls}](?<!\S[{cls}])\S*"


class DictionaryMiner(Miner):
    """patricia_miner_c / ner_c analogue (src/patricia_miner.c:20-32,
    src/ner.c:43-53): a miner owning a dictionary trie."""

    def __init__(
        self,
        words: "Iterable[str] | PatriciaTrie | object",
        label: str = "NER",
        threshold: float = NER_THRESHOLD,
    ):
        from nativeextractor_ray.state.flatdict import FlatDictionary

        try:
            import ray

            if isinstance(words, ray.ObjectRef):
                # large-gazetteer path: the FlatDictionary artifact was
                # built once and ray.put by the driver; each worker
                # process resolves it here, once per pool — numpy buffers
                # are plasma-shared per node (the Ray analogue of the
                # reference's PATTY mmap, patricia.c:583-612)
                words = ray.get(words)
        except ImportError:  # pure-library use without ray
            pass
        if isinstance(words, (PatriciaTrie, FlatDictionary)):
            self.trie = words
        else:
            self.trie = PatriciaTrie(words)
        self.label = label
        self.threshold = threshold
        self._memo: dict[str, bool] = {}
        # An ASCII-first-char token can only reach prefix-ratio > 0 if some
        # dictionary word starts with that exact char (byte == char for
        # ASCII), so it can be rejected O(1) before the trie/memo — most
        # tokens on natural text.  Non-ASCII first chars bypass the filter:
        # partial lead-byte matches inside one multi-byte char can still
        # reach the ratio (e.g. 3 of 4 bytes = 0.75).
        #: the sorted blob + offsets layout the native scan searches
        #: (miners/stdcc.py); a PatriciaTrie converts here, once
        self.flat = None
        if threshold <= 0:
            first_bytes: list[int] | None = None
            self._first = None
        else:
            self.flat = (self.trie if isinstance(self.trie, FlatDictionary)
                         else FlatDictionary(k for k, _ in self.trie.items()))
            if hasattr(self.trie, "first_bytes"):
                # flat artifact: O(distinct first bytes), no full traversal
                first_bytes = sorted(self.trie.first_bytes())
            else:
                first_bytes = sorted({k[0] for k, _ in self.trie.items() if k})
            self._first = frozenset(
                chr(b) if b < 0x80 else bytes([b]).decode("utf-8", "replace")
                for b in first_bytes
            )
        # Candidate-token regex: a token can only reach prefix-ratio > 0 if
        # its first BYTE matches some trie root edge (the ratio is
        # matched-bytes / token-bytes, so any accept needs >= 1 matched
        # byte).  When every dictionary word starts with an ASCII byte, a
        # non-ASCII-initial token (lead byte >= 0x80) can therefore NEVER
        # match — the candidate class is just the ASCII first-byte set,
        # which keeps sre's fast first-charset skip (a class containing a
        # -\U0010ffff range defeats it).  Lets the C regex engine
        # skip non-candidate tokens instead of a Python loop over every
        # \S+ token — the round-1 mention-scan profile was 70% that loop.
        if first_bytes is not None:
            if not first_bytes:
                self._cand = re.compile(r"(?!x)x")  # empty dict: no matches
            else:
                cls = "".join(re.escape(chr(b)) for b in first_bytes if b < 0x80)
                if first_bytes[-1] >= 0x80:
                    cls += "\\u0080-\\U0010ffff"
                self._cand = re.compile(dict_candidate_pattern(cls))
        else:
            self._cand = None

    def accepts(self, token: str) -> bool:
        v = self._memo.get(token)
        if v is None:
            bs = token.encode("utf-8")
            v = bool(bs) and self.trie.search(bs) / len(bs) >= self.threshold
            if len(self._memo) < 1_000_000:  # bounded memo per actor
                self._memo[token] = v
        return v

    def find(self, text: str):
        accepts = self.accepts
        if self._cand is None:  # threshold <= 0: every token is a candidate
            return self._find_all_tokens(text)
        out = []
        start = 0
        if text and is_delimiter(text[0]) and not text[0].isspace():
            # BOF anchor consumes the leading delimiter (ner.c:24 via
            # MATCH_DELIMITER(e, Left, Right)) — the trimmed first token
            # would not anchor the candidate regex, so handle it here and
            # resume the scan after it
            m0 = _TOKEN_RE.match(text)
            tok = m0.group()[1:]
            if tok and accepts(tok):
                out.append((1, m0.end(), 1.0))
            start = m0.end()
        for m in self._cand.finditer(text, start):
            if accepts(m.group()):
                out.append((m.start(), m.end(), 1.0))
        return out

    def _find_all_tokens(self, text: str):
        out = []
        accepts = self.accepts
        for m in _TOKEN_RE.finditer(text):
            s, e = m.span()
            tok = m.group()
            if s == 0 and is_delimiter(text[0]):
                s += 1
                tok = tok[1:]
                if not tok:
                    continue
            if accepts(tok):
                out.append((s, e, 1.0))
        return out


register_miner("ner", DictionaryMiner)
register_miner("match_named_entity", DictionaryMiner)
