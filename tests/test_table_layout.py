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
