"""Deterministic ``partsupp`` derivation — the one TPC-H table the test
star lacks (blocking Q9/Q11/Q16/Q20).  Like the transcripts table
(``sources/transcripts.py``), it is a PURE FUNCTION of tables the star
does have — 4 supplier rows per part with arithmetic availqty/cost —
rendered both as vectorized Python and as a DuckDB CTE so the
correctness oracle sees the exact same table.  Supply costs are integer
CENTS end to end (the repo's float-parity rule).

Derivation (j = 0..3 replicas per part, ``n_supp`` = supplier count):

- ``ps_suppkey   = (p_partkey * 7 + j * 13) % n_supp`` — distinct per
  part whenever ``n_supp`` > 39 (and for the test tables' n_supp = 10,
  where the offsets 0/3/6/9 mod 10 are distinct);
- ``ps_availqty  = (p_partkey * 37 + j * 101) % 9999 + 1``
- ``ps_supplycost_c = (p_partkey * 53 + j * 29) % 99900 + 100``
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

PS_PER_PART = 4


def derive_partsupp_table(part: pa.Table, n_supp: int) -> pa.Table:
    """Vectorized partsupp rows from a (chunk of the) part table."""
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    j = np.arange(PS_PER_PART, dtype=np.int64)
    pkr = np.repeat(pk, PS_PER_PART)
    jr = np.tile(j, len(pk))
    return pa.table({
        "ps_partkey": pa.array(pkr, pa.int64()),
        "ps_suppkey": pa.array((pkr * 7 + jr * 13) % n_supp, pa.int64()),
        "ps_availqty": pa.array((pkr * 37 + jr * 101) % 9999 + 1,
                                pa.int64()),
        "ps_supplycost_c": pa.array((pkr * 53 + jr * 29) % 99900 + 100,
                                    pa.int64()),
    })


#: DuckDB CTE body over the pre-registered `part` + `supplier` views.
#: Embed as: WITH ps AS ({PARTSUPP_SQL})
PARTSUPP_SQL = f"""SELECT
    p.p_partkey AS ps_partkey,
    (p.p_partkey * 7 + j.j * 13) % (SELECT count(*) FROM supplier)
      AS ps_suppkey,
    CAST((p.p_partkey * 37 + j.j * 101) % 9999 + 1 AS BIGINT)
      AS ps_availqty,
    CAST((p.p_partkey * 53 + j.j * 29) % 99900 + 100 AS BIGINT)
      AS ps_supplycost_c
  FROM part p,
       (SELECT unnest(generate_series(0, {PS_PER_PART - 1})) AS j) j"""


def partsupp_dataset(sf_dir: str):
    """Streaming partsupp Dataset derived from <sf_dir>/part.parquet —
    at real scale this is a map over the part table's blocks (4 rows
    out per part row in), never a materialized side table."""
    from nativeextractor_ray.sources.tables import read_table, table_nrows

    n_supp = table_nrows(sf_dir, "supplier")
    parts = read_table(sf_dir, "part", ["p_partkey"])
    return parts.map_batches(
        lambda t: derive_partsupp_table(t, n_supp),
        batch_format="pyarrow")


def partsupp_arrays(sf_dir: str):
    """Broadcast-side rendering: parallel sorted arrays keyed by the
    PACKED ``partkey * n_supp + suppkey`` int64 — the (partkey, suppkey)
    → (availqty, cost) probe used by Q9/Q20.  Bounded by |part| × 4
    (the part-dimension broadcast class used throughout relational.py).

    Returns ``(packed_sorted, availqty, cost_c, n_supp)``."""
    from nativeextractor_ray.sources.tables import load_table, table_nrows

    n_supp = table_nrows(sf_dir, "supplier")
    part = load_table(sf_dir, "part", columns=["p_partkey"])
    t = derive_partsupp_table(part, n_supp)
    packed = (t.column("ps_partkey").to_numpy() * n_supp
              + t.column("ps_suppkey").to_numpy())
    order = np.argsort(packed)
    return (packed[order],
            t.column("ps_availqty").to_numpy()[order],
            t.column("ps_supplycost_c").to_numpy()[order],
            n_supp)
