"""Convert a single-file table into a DIRECTORY of parquet files.

Ray Data decodes each parquet file as ONE read task, so a multi-GB
single-file table serializes every consumer behind one core's decode
(measured: 1.6 GB lineitem = ~24 s serial at any CPU count).  Real
corpora are laid out as many files; this script makes the synthesized
big tables match: `<dir>/<table>.parquet` -> `<dir>/<table>/part-*.parquet`
(the original file is removed).  Every reader in `nativeextractor_ray`
goes through `sources/tables`, which accepts either layout.

Usage: python scripts/split_table.py DIR TABLE [N_FILES]
"""

from __future__ import annotations

import os
import sys

import pyarrow.parquet as pq


def split(dir_: str, table: str, n_files: int = 32) -> None:
    src = os.path.join(dir_, f"{table}.parquet")
    dst = os.path.join(dir_, table)
    os.makedirs(dst, exist_ok=True)
    pf = pq.ParquetFile(src)
    total_rg = pf.metadata.num_row_groups
    per = max(1, total_rg // n_files)
    written = 0
    i = 0
    rg = 0
    while rg < total_rg:
        hi = min(total_rg, rg + per)
        t = pf.read_row_groups(list(range(rg, hi)))
        pq.write_table(t, os.path.join(dst, f"part-{i:05d}.parquet"),
                       row_group_size=8192)
        written += t.num_rows
        i += 1
        rg = hi
    os.remove(src)
    print(f"{table}: {written} rows -> {i} files in {dst}/")


if __name__ == "__main__":
    d, t = sys.argv[1], sys.argv[2]
    n = int(sys.argv[3]) if len(sys.argv) > 3 else 32
    split(d, t, n)
