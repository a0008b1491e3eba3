"""The reference job: a fixed piece of CPU work that the benchmark times on
the same CPUs right before and after every measured pass.

On a shared host the speed of a CPU drifts by 10-30 % from one minute to
the next, and a pass's wall time drifts with it.  The reference job is
the same kind of work as a pass (a regular-expression scan of transcript
text, counting in a dict, Arrow hashing and sorting) but its code and input
never change, so its time measures only the host's current speed.  The
benchmark divides it out: a pass's time in reference-seconds is its wall
time divided by the reference job's time around it.

Its input is word salad over the benchmark's vocabulary from a fixed seed,
independent of ``--seed``.
"""

from __future__ import annotations

import re
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from inputs import VOCAB

N_WORDS = 400_000  # ~0.4 s on one core of a 2-3 GHz Xeon
_PATTERN = re.compile(r"\b(?:s\w+|\w+e)\b")


def _text() -> str:
    rng = np.random.default_rng(0)
    words = np.asarray(VOCAB, dtype=object)[rng.integers(0, len(VOCAB), size=N_WORDS)]
    return " ".join(words.tolist())


_TEXT = _text()


def reference_s() -> float:
    """Wall seconds of one run of the reference job."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for m in _PATTERN.finditer(_TEXT):
        w = m.group(0)
        counts[w] = counts.get(w, 0) + 1
    words = pa.array(_TEXT.split(" "))
    pc.value_counts(words)
    pc.sort_indices(words)
    return time.perf_counter() - t0
