"""Only ``sources/tables.py`` knows how an ``sf_dir`` table is laid out
(one ``<name>.parquet`` file or a ``<name>/`` directory of parquet files);
every other module reads through its helpers."""

import ast
import re
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

PKG = Path(__file__).resolve().parents[1] / "nativeextractor_ray"

LAYOUT_PATTERNS = [
    re.compile(r"\{sf_dir\}/[^\"']*\.parquet"),
    re.compile(r"\bos\.path\.isdir\("),
    re.compile(r"\bParquetFile\("),
]
# (module, function) pairs whose matches are not sf_dir tables: raw text
# corpus paths may be files or directories of any kind
EXEMPT = {("sources/textcorpus.py", "_expand_paths")}


def _enclosing_function(tree: ast.Module, lineno: int) -> str | None:
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.lineno <= lineno <= node.end_lineno):
            return node.name
    return None


def test_only_sources_tables_knows_the_layout():
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel == "sources/tables.py":
            continue
        src = path.read_text()
        tree = ast.parse(src)
        for lineno, line in enumerate(src.splitlines(), 1):
            if (any(p.search(line) for p in LAYOUT_PATTERNS)
                    and (rel, _enclosing_function(tree, lineno)) not in EXEMPT):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def test_key_index_sizes_and_fills():
    from nativeextractor_ray.pipelines.relational import _key_index

    got = _key_index(pa.chunked_array([[3, 1]]), pa.array([7, 5], pa.int32()), -1)
    assert got.dtype == np.int64 and got.tolist() == [-1, 5, -1, 7]
    assert _key_index(np.array([2]), True, False).tolist() == [False, False, True]
    # an empty dimension gives a length-1 all-fill index
    empty = np.array([], np.int64)
    assert _key_index(empty, empty, -1).tolist() == [-1]
    assert _key_index(empty, np.array([], bool), False).tolist() == [False]


@pytest.mark.parametrize("layout", ["file", "dir"])
def test_table_helpers_agree_across_layouts(tmp_path, layout):
    from nativeextractor_ray.sources.tables import (
        load_table, table_bytes, table_nrows, table_path)

    t = pa.table({"k": pa.array(range(10), pa.int64())})
    if layout == "file":
        pq.write_table(t, tmp_path / "dim.parquet")
        files = [tmp_path / "dim.parquet"]
    else:
        (tmp_path / "dim").mkdir()
        files = [tmp_path / "dim" / f"part-{i}.parquet" for i in range(2)]
        pq.write_table(t.slice(0, 4), files[0])
        pq.write_table(t.slice(4), files[1])
    sf = str(tmp_path)
    assert table_path(sf, "dim") == str(files[0] if layout == "file" else tmp_path / "dim")
    assert load_table(sf, "dim", columns=["k"]).equals(t)
    assert table_nrows(sf, "dim") == 10
    assert table_bytes(sf, "dim") == sum(f.stat().st_size for f in files)
    assert table_nrows(sf, "missing") is None
    with pytest.raises(OSError):
        table_bytes(sf, "missing")


@pytest.fixture
def read_tables(tmp_path):
    """``rg``: one file of 7 row groups; ``parts``: a directory table;
    ``empty``: a zero-row table."""
    t = pa.table({"a": pa.array(range(1000), pa.int64()),
                  "b": [f"s{i}" for i in range(1000)],
                  "c": pa.array(np.arange(1000) / 4, pa.float64())})
    pq.write_table(t, tmp_path / "rg.parquet", row_group_size=150)
    (tmp_path / "parts").mkdir()
    for i, (lo, hi) in enumerate([(0, 300), (300, 600), (600, 1000)]):
        pq.write_table(t.slice(lo, hi - lo), tmp_path / "parts" / f"part-{i}.parquet")
    pq.write_table(t.slice(0, 0), tmp_path / "empty.parquet")
    return str(tmp_path)


@pytest.mark.parametrize("columns", [None, ["c", "a"]])
@pytest.mark.parametrize("blocks", [1, 3, 8])
@pytest.mark.parametrize("name", ["rg", "parts", "empty"])
def test_read_table_equals_load_table(ray_session, read_tables, name, blocks, columns):
    import ray
    from ray.data import DataContext

    from nativeextractor_ray.sources.tables import load_table, read_table

    ctx = DataContext.get_current()
    old, ctx.execution_options.preserve_order = ctx.execution_options.preserve_order, True
    try:
        ds = read_table(read_tables, name, columns, blocks=blocks)
        got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    finally:
        ctx.execution_options.preserve_order = old
    want = load_table(read_tables, name, columns)
    assert got.schema.remove_metadata() == want.schema.remove_metadata()
    assert got.equals(want)  # rows and their order
    assert "ReadParquet" in ds.stats()


def test_read_tasks_are_planned_from_footers(read_tables):
    from nativeextractor_ray.sources.tables import ParquetSource

    # one task per row group of the 7-group file, at most one per block
    rg = ParquetSource([f"{read_tables}/rg.parquet"])
    assert rg.get_name() == "Parquet"
    tasks = rg.get_read_tasks(8)
    assert len(tasks) == 7
    assert [t.metadata.num_rows for t in tasks] == [150] * 6 + [100]
    assert len(rg.get_read_tasks(3)) == 3
    # a directory table: contiguous runs of its files' row groups, each
    # task with its row count and schema
    files = [f"{read_tables}/parts/part-{i}.parquet" for i in range(3)]
    tasks = ParquetSource(files, ["c", "a"]).get_read_tasks(2)
    assert [t.metadata.input_files for t in tasks] == [files[:2], files[2:]]
    assert [t.metadata.num_rows for t in tasks] == [600, 400]
    assert all(t.schema.names == ["c", "a"] for t in tasks)
    # the in-memory estimate is the footers' decoded size, not the files'
    est = ParquetSource(files).estimate_inmemory_data_size()
    assert est == sum(pq.read_metadata(f).row_group(0).total_byte_size for f in files)


def test_read_tasks_stream_and_keep_the_schema(tmp_path):
    from nativeextractor_ray.sources.tables import ParquetSource

    # a task yields its row groups batch by batch, not as one table
    big = pa.table({"a": pa.array(range(70_000), pa.int64())})
    pq.write_table(big, tmp_path / "big.parquet")
    (task,) = ParquetSource([str(tmp_path / "big.parquet")]).get_read_tasks(1)
    parts = list(task())
    assert len(parts) > 1 and pa.concat_tables(parts).equals(big)
    # a file with no row group plans one zero-row task yielding the schema
    pq.ParquetWriter(tmp_path / "none.parquet", big.schema).close()
    (task,) = ParquetSource([str(tmp_path / "none.parquet")]).get_read_tasks(4)
    assert task.metadata.num_rows == 0
    assert [t.schema for t in task()] == [big.schema]


def test_count_and_schema_come_from_footers(ray_session, read_tables):
    """``count()`` and ``schema()`` run no read: they still answer once
    the table's files are gone."""
    import shutil

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(read_tables, "parts", blocks=2)
    shutil.rmtree(f"{read_tables}/parts")
    assert ds.count() == 1000
    assert ds.schema().names == ["a", "b", "c"]
