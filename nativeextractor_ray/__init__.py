"""nativeextractor_ray — a Ray-Data-native knowledge-graph construction engine.

A from-scratch re-expression of the *capabilities* of
SpongeData-cz/nativeextractor (reference, read-only at /root/reference) on
top of ``ray.data.Dataset`` pipelines:

- text in → labeled, scored, positioned spans ("mentions") out, with the
  reference's miner semantics (glob / regex-DFA / dictionary-trie / FSM
  miners, byte+codepoint span math, per-miner non-overlap, enclosed-span
  filtering) — see ``nativeextractor_ray.miners``;
- generalized into a transcript→knowledge-graph pipeline: mention detection
  → entity linking → canonicalization (union-find over surface forms) →
  (subj, pred, obj) triple materialization with role/tool-aware predicates —
  see ``nativeextractor_ray.pipelines``;
- plus the large-scale training-data operators (dedup exact/MinHash/SimHash,
  similarity search, text quality stats, multimodal plumbing).

Everything is expressed Ray-Data-first: a Parquet read planned from file
footers (``sources.tables.read_table``, a ``ray.data`` Datasource) →
``map_batches`` over zero-copy Arrow, whose miner state compiles once per
worker process (``stages.miner_pool``) →
``groupby``/``aggregate`` for the wide steps → partitioned ``write_parquet``
with per-partition manifests for resume.

This package never calls ``ray.init()``/``ray.shutdown()`` itself; sessions
are owned by the caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"

import os as _os

# Ray's block-schema dedup (transform_pyarrow.py) hashes block schemas for
# an early-exit; any block that passed through pandas carries b'pandas'
# schema metadata that this pyarrow version cannot hash, so every
# sort-reduce task logs "Failed to hash the schemas (for deduplication):
# unhashable type: 'dict'" and falls back to the correct unify path.
# Benign but it drowns bench/driver logs.  Reduce tasks run in workers
# that never import this package, so an in-process setLevel can't reach
# them — instead point Ray Data's own logging hook at a config that pins
# that one logger to ERROR (workers inherit the env from the driver).
_os.environ.setdefault(
    "RAY_DATA_LOGGING_CONFIG",
    _os.path.join(_os.path.dirname(__file__), "ray_data_logging.yaml"),
)
