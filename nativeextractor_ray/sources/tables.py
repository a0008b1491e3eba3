"""The one place that knows how an ``sf_dir`` table is laid out on disk,
and the one Parquet reader of the Ray pipelines.

A table is either a single file (``<sf_dir>/<name>.parquet``) or a
DIRECTORY of parquet files (``<sf_dir>/<name>/part-*.parquet``, as
``scripts/split_table.py`` writes).  Every reader resolves the layout
through ``table_path``: ``read_table`` (a Ray Dataset), ``load_table`` (an
in-memory Arrow table, for dimension tables and reference builders), and
the metadata-only ``table_nrows`` and ``table_bytes``.

``read_table`` (and ``read_parquet_files``, for a list of part files)
reads through :class:`ParquetSource`, which plans its read tasks from
Parquet footers only: no sampling task, no ``ParquetDataset``.  The
footers are read once, when the source is built; the tasks split the
row groups of all the files, in order, into contiguous runs, so a
multi-row-group single file decodes in parallel (reading it as one task
serialized a 1.6 GB lineitem behind one core, ~24 s at every cpu count).
Every task carries its row count and schema, so ``Dataset.count()`` and
the schema come from the footers without running the read.  A task
streams its row groups batch by batch, so its peak memory is a batch,
not its share of the file.  When there are still fewer tasks than blocks
(a single-row-group file is one task, and the test tables are such
files), Ray's ``SetReadParallelism`` splits each task's output to reach
the requested block count: a cheap streaming slice after the read, never
a downstream ``repartition``, which plans as an AllToAll barrier.
``events.high_value_events`` alone keeps ``ray.data.read_parquet``: it
needs row-group filter pushdown, which this reader does not do.
"""

from __future__ import annotations

import functools
import os

import pyarrow as pa
import pyarrow.parquet as pq
from ray.data import Datasource, ReadTask, read_datasource
from ray.data.block import BlockMetadata


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


def _runs(items: list, k: int) -> list[list]:
    """``items`` cut into at most ``k`` contiguous runs of near-equal length."""
    q, r = divmod(len(items), k)
    cuts = [0]
    for j in range(k):
        cuts.append(cuts[-1] + q + (j < r))
    return [items[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]


def _read_pieces(pieces: list, columns: list[str] | None, schema: pa.Schema):
    """Stream ``(path, its row groups)`` pieces batch by batch; a task that
    reads no row yields one empty table of ``schema``."""
    empty = True
    for path, groups in pieces:
        batches = pq.ParquetFile(path).iter_batches(
            row_groups=groups, columns=columns, use_threads=False)
        for batch in batches:
            empty = False
            yield pa.Table.from_batches([batch])
    if empty:
        yield schema.empty_table()


class ParquetSource(Datasource):
    """Parquet ``files`` (in order) as a Ray Data source, its read tasks
    planned from their footers (module docstring)."""

    def __init__(self, files: list[str], columns: list[str] | None = None):
        self._files, self._columns = list(files), columns
        footers = [pq.read_metadata(f) for f in self._files]
        self._row_groups = []  # (file index, row group, its rows, its bytes), in order
        for i, md in enumerate(footers):
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                self._row_groups.append((i, g, rg.num_rows, rg.total_byte_size))
        self._schema = footers[0].schema.to_arrow_schema() if footers else None
        if footers and columns is not None:
            self._schema = pa.schema([self._schema.field(c) for c in columns])

    def get_name(self) -> str:
        return "Parquet"  # the operator is ReadParquet, as with read_parquet

    def estimate_inmemory_data_size(self) -> int:
        return sum(b for *_, b in self._row_groups)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        if not self._files:
            return []
        if not self._row_groups:  # no row group: a task yielding the schema only
            return [self._task([])]
        return [self._task(run) for run in _runs(self._row_groups, parallelism)]

    def _task(self, run: list) -> ReadTask:
        """A task reading the contiguous ``run`` of row groups."""
        groups: dict[int, list[int]] = {}
        for i, g, _, _ in run:
            groups.setdefault(i, []).append(g)
        pieces = [(self._files[i], gs) for i, gs in groups.items()]
        meta = BlockMetadata(num_rows=sum(r[2] for r in run),
                             size_bytes=sum(r[3] for r in run),
                             input_files=[p for p, _ in pieces], exec_stats=None)
        read = functools.partial(_read_pieces, pieces, self._columns, self._schema)
        return ReadTask(read, meta, schema=self._schema)


def read_parquet_files(files: list[str], columns: list[str] | None = None,
                       blocks: int | None = None):
    """A Ray Dataset of the Parquet ``files``, in order.  ``blocks``:
    the read's block count (``None``: Ray's own choice)."""
    return read_datasource(
        ParquetSource(files, columns), override_num_blocks=blocks)


def read_table(
    sf_dir: str, name: str, columns: list[str] | None = None,
    blocks: int | None = None,
):
    """The table as a Ray Dataset of ``blocks`` blocks (default
    :func:`target_parallelism`), either layout."""
    return read_parquet_files(_parquet_files(table_path(sf_dir, name)), columns,
                              blocks or target_parallelism())
