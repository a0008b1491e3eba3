"""Example custom miner — the "Hello miner" of this engine (the reference
README walks through writing a hello-world miner against the C combinator
API; here a user subclasses :class:`Miner` and returns spans).

To run a custom miner distributed, pass the CLASS in the MinerSpec —
``MinerPool`` instantiates it inside each worker process, once per task
worker (``mentions_dataset``) or per actor:

    mentions_dataset(sf_dir, specs=[(ShoutMiner, (), {})])
    ds.map_batches(MinerPool, fn_constructor_args=([(ShoutMiner, (), {})],),
                   batch_format="pyarrow", concurrency=4)

(The class must live in an importable module — the distributed analogue of
the reference's "install the .so on every node" plugin rule.  A registry
*name* works too when the miner is registered at import time.)
"""

from __future__ import annotations

from nativeextractor_ray.miners.base import Miner, register_miner


class ShoutMiner(Miner):
    """ALL-CAPS alphabetic tokens of length >= min_len."""

    label = "Shout"

    def __init__(self, min_len: int = 2):
        self.min_len = min_len

    def find(self, text: str):
        out = []
        pos = 0
        for tok in text.split(" "):
            if len(tok) >= self.min_len and tok.isalpha() and tok.isupper():
                out.append((pos, pos + len(tok), 1.0))
            pos += len(tok) + 1
        return out


register_miner("shout", ShoutMiner)
