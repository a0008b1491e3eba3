"""The one place that knows how an ``sf_dir`` table is laid out on disk.

A table is either a single file (``<sf_dir>/<name>.parquet``) or a
DIRECTORY of parquet files (``<sf_dir>/<name>/part-*.parquet``, as
``scripts/split_table.py`` writes).  The distinction matters beyond
convenience: Ray decodes each parquet FILE as ONE read task, so a multi-GB
single-file table serializes the whole pipeline behind one core's decode
(measured: a 1.6 GB lineitem cost ~24 s of serial read at EVERY cpu
count, capping 4→16 scaling at 0.3) — directory tables decode
file-parallel, which is how any real 100-TB corpus is laid out anyway.

Every reader resolves the layout through ``table_path``: ``read_table``
(a Ray Dataset), ``load_table`` (an in-memory Arrow table, for dimension
tables and reference builders), and the metadata-only ``table_nrows`` and
``table_bytes``.

The driver's test tables are single-row-group files, which Ray Data reads
as ONE block — serializing every downstream stage behind a single task.  At
real scale the input has thousands of files/row-groups and this never
triggers; for small inputs ``read_table`` splits the read into enough
blocks to feed the cluster.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq


def table_path(sf_dir: str, name: str) -> str:
    """``<sf_dir>/<name>`` when that directory exists, else
    ``<sf_dir>/<name>.parquet``."""
    path = os.path.join(sf_dir, name)
    return path if os.path.isdir(path) else f"{path}.parquet"


def _parquet_files(path: str) -> list[str]:
    if not os.path.isdir(path):
        return [path]
    return sorted(e.path for e in os.scandir(path) if e.name.endswith(".parquet"))


def load_table(sf_dir: str, name: str, columns: list[str] | None = None) -> pa.Table:
    """The whole table (or ``columns`` of it) in memory, either layout."""
    return pq.read_table(table_path(sf_dir, name), columns=columns)


def table_nrows(sf_dir: str, name: str) -> int | None:
    """Row count from parquet METADATA only — free at any scale; ``None``
    when unknowable, which callers MUST treat as over-bound so the scale
    path is never accidentally driver-folded."""
    try:
        return sum(pq.ParquetFile(f).metadata.num_rows
                   for f in _parquet_files(table_path(sf_dir, name)))
    except Exception:
        return None


def table_bytes(sf_dir: str, name: str) -> int:
    """On-disk size: the file's, or the sum of a directory's parquet
    files.  Raises ``OSError`` when the table is missing."""
    return sum(os.path.getsize(f)
               for f in _parquet_files(table_path(sf_dir, name)))


def target_parallelism() -> int:
    from nativeextractor_ray.pipelines.common import _cpus

    return max(8, _cpus() * 2)


def read_table(
    sf_dir: str, name: str, columns: list[str] | None = None,
    blocks: int | None = None,
):
    import ray.data

    # single-row-group small files come back as one block; override the
    # block count so the READ op itself splits (SplitBlocks — a cheap
    # post-read slice, streaming) instead of a downstream ``repartition``,
    # which plans as an AllToAll BARRIER and serializes pipeline start.
    return ray.data.read_parquet(
        table_path(sf_dir, name),
        columns=columns,
        override_num_blocks=blocks or target_parallelism(),
    )
