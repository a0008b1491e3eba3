"""Built-in FSM-family miners: email, URL, date, phone, number.

The reference ships ``naive_email_miner`` as its canonical hand-written FSM
example (``/root/reference/src/example/naive_email_miner.c:29-148``) and
references non-free ``web_entities`` (match_url/match_email) and
``naive_date`` miners from its tests/CLI
(``tests/extractor.c:71-102``, ``src/example/ngrep.c:33-35``); those .so
files are not in the repo, so URL/date/phone semantics here are this
engine's own, designed to be SQL-reproducible for the correctness oracle.

EmailMiner reproduces naive_email semantics:
- anchor on ``@``; left context: at least one of [alnum - . _] scanning
  left (:29-41,49-63); right context: dot-separated subdomains of
  [alnum - _], at least 2 subdomains, last subdomain >= 2 chars, empty
  *inner* subdomains allowed (consecutive dots) (:66-112); prob 1.0; no
  backtracking — a bad last subdomain fails the whole attempt rather than
  shrinking the domain (match loop at :76-95).
- documented divergence: the reference's left scan rests the cursor ON the
  first invalid char (or at BOF) before ``mark_start``, so its spans can
  include one leading junk char (naive_email_miner.c:49-63 + miner.c:35-42);
  we start at the leftmost *valid* char instead.

The regex-based miners compile once per instance (per actor) — the analogue
of the reference's compile-to-.so economics.
"""

from __future__ import annotations

import re

from nativeextractor_ray.miners.base import Miner, register_miner
from nativeextractor_ray.unicode import is_alnum


def _email_valid(c: str) -> bool:
    # match_email_valid_chars (naive_email_miner.c:29-41)
    return is_alnum(c) or c in "-._"


def _domain_char(c: str) -> bool:
    # match_domain_chars (naive_email_miner.c:44-46)
    return _email_valid(c) and c != "."


_EMAIL_DOM = re.compile(r"@[\w.\-]*")
# The class [\w.-] is EXACTLY the FSM's valid-char set: CPython's unicode
# \w is isalnum-or-underscore, and _email_valid is is_alnum or "-._" —
# verified equal for every codepoint 0..0x10FFFF (test_regex_class_parity).
# Anchoring the pattern on the literal '@' keeps sre's memchr prefix skip
# (an unanchored V*@ prefix would retry the greedy run at every position).


class EmailMiner(Miner):
    label = "Email"  # miner name stamp (naive_email_miner.c:153)

    def __init__(self, label: str | None = None):
        if label is not None:
            self.label = label

    def find(self, text: str):
        """Regex-candidate rendering of the per-'@' FSM scan — identical
        output (asserted by tests/test_email_parity.py):

        - ``@[\\w.-]*`` yields exactly the FSM's anchor sequence (every
          '@', in order: the class excludes '@', so each match contains
          exactly one), and its greedy tail IS the FSM's maximal domain
          run (domain chars and dots are both valid chars).
        - The left-context run is a short Python walk (local parts are a
          few chars; the domain walk was the FSM's Python-loop cost).
        - Post-checks are the FSM's accept conditions: nonempty left run,
          >= 2 subdomains (i.e. a dot in the domain), last subdomain >= 2
          chars, and the mark_start refusal (miner.c:36-38) via end_last.
        - A failed FSM attempt resumes at the next '@', which never lies
          inside the failed candidate ('@' is not a domain char), so
          skipping to the next regex match preserves FSM order; after an
          accept the FSM resumes at the span end = the match end.
        """
        out = []
        end_last = 0
        for m in _EMAIL_DOM.finditer(text):
            at, e = m.span()
            j = at
            while j > 0 and _email_valid(text[j - 1]):
                j -= 1
            if j == at:  # validate_left_context: at least one char
                continue
            dom = text[at + 1:e]
            ld = dom.rfind(".")
            if ld < 0 or len(dom) - ld - 1 < 2:
                continue
            if j < end_last:  # mark_start refusal (miner.c:36-38)
                continue
            out.append((j, e, 1.0))
            end_last = e
        return out

    def _find_fsm(self, text: str):
        """The direct per-'@' FSM (reference rendering) — kept as the
        parity oracle for tests."""
        out = []
        n = len(text)
        end_last = 0
        at = text.find("@")
        while at != -1:
            span = self._attempt(text, at, n, end_last)
            if span is not None:
                out.append(span)
                end_last = span[1]
                at = text.find("@", span[1])
            else:
                at = text.find("@", at + 1)
        return out

    @staticmethod
    def _attempt(text: str, at: int, n: int, end_last: int):
        # left context (validate_left_context)
        if at == 0 or not _email_valid(text[at - 1]):
            return None
        j = at - 1
        while j > 0 and _email_valid(text[j - 1]):
            j -= 1
        start = j
        # right context (validate_domain)
        q = at + 1
        subdomains = 0
        last_start = q
        while True:
            while q < n and _domain_char(text[q]):
                q += 1
            if q < n and text[q] == ".":
                q += 1
                subdomains += 1
                last_start = q
            else:
                subdomains += 1
                break
        if subdomains < 2 or q - last_start < 2:
            return None
        if start < end_last:  # mark_start refusal (miner.c:36-38)
            return None
        return (start, q, 1.0)


class _ReMiner(Miner):
    """Shared base for leftmost-greedy compiled-regex miners.

    ``pattern`` is the semantic spec (kept RE2-compatible so the DuckDB
    oracles can run it verbatim); ``scan_pattern``, when set, is an
    equivalent rewrite tuned for Python's sre engine (e.g. lookahead
    prefix-factoring that restores the first-charset skip)."""

    pattern: str
    scan_pattern: str | None = None

    def __init__(self, label: str | None = None):
        if label is not None:
            self.label = label
        self._re = re.compile(self.scan_pattern or self.pattern)

    def find(self, text: str):
        return [(m.start(), m.end(), 1.0) for m in self._re.finditer(text)]


class UrlMiner(_ReMiner):
    """web_entities match_url analogue: scheme + non-space run."""

    label = "Url"
    pattern = r"https?://[^\s]+"


class DateMiner(_ReMiner):
    """naive_date analogue: ISO (YYYY-MM-DD) or dotted (D.M.YYYY) dates.

    ``scan_pattern`` factors the leading digit both alternatives share out
    of the alternation: sre's first-charset skip needs the pattern to start
    with a character class, which a top-level alternation (or a leading
    lookahead) defeats.  The rest keeps the alternative order and the
    greedy order (``[0-9]{1,2}`` = ``[0-9][0-9]?``), so leftmost-first
    matching gives the same spans.  ``pattern`` stays the plain
    alternation: it is the RE2 text the DuckDB oracles run."""

    label = "Date"
    pattern = r"[0-9]{4}-[0-9]{2}-[0-9]{2}|[0-9]{1,2}\.[0-9]{1,2}\.[0-9]{4}"
    scan_pattern = r"[0-9](?:[0-9]{3}-[0-9]{2}-[0-9]{2}|[0-9]?\.[0-9]{1,2}\.[0-9]{4})"


class PhoneMiner(_ReMiner):
    """International-format phone: '+' followed by 9-12 digits."""

    label = "Phone"
    pattern = r"\+[0-9]{9,12}"


class NumberMiner(_ReMiner):
    label = "Number"
    pattern = r"[0-9]+(?:\.[0-9]+)?"


register_miner("email", EmailMiner)
register_miner("match_email", EmailMiner)
register_miner("url", UrlMiner)
register_miner("match_url", UrlMiner)
register_miner("date", DateMiner)
register_miner("naive_date", DateMiner)
register_miner("phone", PhoneMiner)
register_miner("number", NumberMiner)
