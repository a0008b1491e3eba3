"""Pre-flight for the driver's correctness gate: run every queries() entry
at sf0.001 and compare row-for-row against its oracle_sql() via DuckDB
(order-insensitive, schema-sensitive).  Each query runs on both table
layouts: single files (``<name>.parquet``) and directories of parquet
files (``<name>/part-*.parquet``, as ``scripts/split_table.py`` writes)."""

import importlib.util
import math
import shutil
from pathlib import Path

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _to_table(res) -> pa.Table:
    if isinstance(res, pa.Table):
        return res
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res, preserve_index=False)
    from nativeextractor_ray.functions.blocks import arrow_blocks

    # arrow_blocks normalizes the mixed arrow/pandas block formats a
    # map_groups / aggregate pipeline can emit (and skips empty blocks)
    parts = list(arrow_blocks(res, stream=False))
    if not parts:
        return pa.table({})
    return pa.concat_tables(parts, promote_options="default")


def _norm(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


@pytest.fixture(scope="module")
def con(sf_dir):
    c = duckdb.connect()
    for name in TABLES:
        c.register(name, pq.read_table(f"{sf_dir}/{name}.parquet"))
    return c


@pytest.fixture(scope="session")
def split_sf_dir(sf_dir, tmp_path_factory):
    """A copy of ``sf_dir`` with every table a directory of 3 parquet files
    holding the same rows (one row group per file)."""
    spec = importlib.util.spec_from_file_location(
        "split_table", Path(__file__).resolve().parents[1] / "scripts" / "split_table.py")
    split_table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(split_table)

    out = tmp_path_factory.mktemp("sf_split")
    for name in TABLES:
        t = pq.read_table(f"{sf_dir}/{name}.parquet")
        pq.write_table(t, out / f"{name}.parquet",
                       row_group_size=max(1, math.ceil(t.num_rows / 3)))
        split_table.split(str(out), name, 3)
        assert len(list((out / name).glob("*.parquet"))) > 1, name
    yield str(out)
    shutil.rmtree(out, ignore_errors=True)


def all_query_names():
    import __ray_entry__ as e

    return sorted(e.oracle_sql().keys())


# ids: ``<query>`` on the single-file tables, ``<query>-dir`` on the split copy
@pytest.mark.parametrize("name,layout", [
    pytest.param(n, layout, id=n if layout == "file" else f"{n}-{layout}")
    for layout in ("file", "dir") for n in all_query_names()])
def test_query_matches_oracle(name, layout, sf_dir, con, ray_session, request):
    import __ray_entry__ as e

    # the oracle (and GRAFT_ORACLE_SF_DIR) stays on the single-file tables,
    # which hold the same rows as the split copy
    run_dir = sf_dir if layout == "file" else request.getfixturevalue("split_sf_dir")
    got = _norm(_to_table(e.queries()[name](run_dir)))
    want = _norm(con.sql(e.oracle_sql()[name]).arrow())
    assert list(got.columns) == list(want.columns), name
    assert len(got) == len(want), f"{name}: {len(got)} vs {len(want)} rows"
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=False, rtol=1e-6)


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    t = _to_table(res)
    assert t.num_rows > 0
    assert set(t.schema.names) == {"subj", "pred", "obj", "support", "first_seen", "prob"}
