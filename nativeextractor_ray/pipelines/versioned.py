"""Snapshot versioning operators — latest-wins merge compaction and
cross-snapshot diff (the Iceberg/Delta MERGE + table_changes shapes a
lakehouse runs on every ingest cycle), over a deterministically DERIVED
second snapshot of ``documents`` (no external data in this sandbox — the
``sources/partsupp.py`` derivation pattern: v2 is a pure function of v1,
rendered identically in Python and in the SQL oracle's CTEs).

Derived delta (version 2):
- **updates**   — ``doc_id % 7 == 0`` → text re-cased upper;
- **inserts**   — ``doc_id % 13 == 0`` → new row at ``doc_id + 10⁹``;
- **tombstones** — ``doc_id % 11 == 3`` and not an update → deleted.

Scale shapes
------------
``snapshot_compact``: the base and delta stream through ONE
``common.exchange`` on doc_id; each doc keeps its max-version row and
tombstones drop — the MERGE INTO latest-wins semantics with exactly one
narrow exchange (16-byte keys + content hashes; text never shuffles —
the output carries ``content_h``, not text).

``snapshot_diff``: the OLD snapshot and the COMPACTED new one are two
independent Datasets diffed by a tagged-union exchange on the same key
(the repo's attach shape) — per block a vectorized merge classifies
added / deleted / changed / unchanged and folds to ≤ 4 partial rows;
the driver sums them.  This is the generic
content-hash diff: nothing about the derivation is assumed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.pipelines import common
from nativeextractor_ray.pipelines.common import exchange, fits

INSERT_OFFSET = 1_000_000_000
_MOD = 2305843009213693951  # 2^61 - 7


def _h64_text(arr: pa.Array) -> np.ndarray:
    """md5 lower-64 (little-endian) of each string, mod 2⁶¹−7 →
    int64; == DuckDB ``md5_number_lower(text) % mod``.  md5 is pinned by
    that oracle contract, so the kernel is per-row — but it hashes
    memoryview slices of the Arrow UTF-8 buffer directly instead of
    materializing Python strings (the table_checksums kernel)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    out = np.empty(n, np.int64)
    md5 = hashlib.md5
    if n == 0:
        return out
    if arr.buffers()[2] is None:  # no data buffer: every row is ""
        h_empty = int.from_bytes(md5(b"").digest()[8:16],
                                 "little") % _MOD
        return np.full(n, h_empty, np.int64)
    # StringArray offsets live in buffers()[1] (int32), shifted by the
    # array's own offset for sliced views
    o = arr.offset
    offs = np.frombuffer(arr.buffers()[1], np.int32)[o:o + n + 1]
    buf = memoryview(arr.buffers()[2])
    for i, (a, b) in enumerate(zip(offs[:-1], offs[1:])):
        out[i] = int.from_bytes(md5(buf[a:b]).digest()[8:16],
                                "little") % _MOD
    return out


def _base(sf_dir: str):
    from nativeextractor_ray.sources.tables import read_table

    return read_table(sf_dir, "documents", ["doc_id", "text"])


def _v1_rows(t: pa.Table) -> pa.Table:
    ids = t.column("doc_id").to_numpy()
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "version": pa.array(np.ones(len(ids), np.int64)),
        "deleted": pa.array(np.zeros(len(ids), bool)),
        "content_h": pa.array(_h64_text(
            t.column("text").combine_chunks()
            if isinstance(t.column("text"), pa.ChunkedArray)
            else t.column("text")))})


def _v2_rows(t: pa.Table) -> pa.Table:
    ids = t.column("doc_id").to_numpy()
    text = t.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    upd = ids % 7 == 0
    ins = ids % 13 == 0
    tomb = (ids % 11 == 3) & ~upd
    parts = []
    if upd.any():
        parts.append(pa.table({
            "doc_id": pa.array(ids[upd], pa.int64()),
            "version": pa.array(np.full(int(upd.sum()), 2, np.int64)),
            "deleted": pa.array(np.zeros(int(upd.sum()), bool)),
            "content_h": pa.array(_h64_text(
                pc.utf8_upper(text.filter(pa.array(upd)))))}))
    if ins.any():
        parts.append(pa.table({
            "doc_id": pa.array(ids[ins] + INSERT_OFFSET, pa.int64()),
            "version": pa.array(np.full(int(ins.sum()), 2, np.int64)),
            "deleted": pa.array(np.zeros(int(ins.sum()), bool)),
            "content_h": pa.array(_h64_text(text.filter(pa.array(ins))))}))
    if tomb.any():
        parts.append(pa.table({
            "doc_id": pa.array(ids[tomb], pa.int64()),
            "version": pa.array(np.full(int(tomb.sum()), 2, np.int64)),
            "deleted": pa.array(np.ones(int(tomb.sum()), bool)),
            "content_h": pa.array(np.zeros(int(tomb.sum()), np.int64))}))
    if not parts:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "version": pa.array([], pa.int64()),
                         "deleted": pa.array([], pa.bool_()),
                         "content_h": pa.array([], pa.int64())})
    return pa.concat_tables(parts, promote_options="default")


def _tagged_union(sf_dir: str):
    base = _base(sf_dir).map_batches(_v1_rows, batch_format="pyarrow")
    delta = _base(sf_dir).map_batches(_v2_rows, batch_format="pyarrow")
    return base.union(delta)


def snapshot_compact(sf_dir: str):
    """Latest-wins MERGE of base + derived delta:
    ``(doc_id, version, content_h)`` — tombstoned docs gone."""
    ds = _tagged_union(sf_dir)

    def latest(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "version"],
                            ascending=[True, False], kind="stable")
        keep = df.drop_duplicates("doc_id", keep="first")
        keep = keep[~keep["deleted"]]
        return keep[["doc_id", "version", "content_h"]].astype("int64")

    return exchange(ds, ["doc_id"], latest)


#: CTE rendering of the derived delta — MUST stay in lockstep with
#: ``_v2_rows`` (asserted by the oracle-parity gate)
_DELTA_CTE = f"""v1 AS (
  SELECT doc_id, 1 AS version, FALSE AS deleted,
         md5_number_lower(text) % {_MOD} AS content_h
  FROM documents),
v2 AS (
  SELECT doc_id, 2 AS version, FALSE AS deleted,
         md5_number_lower(upper(text)) % {_MOD} AS content_h
  FROM documents WHERE doc_id % 7 = 0
  UNION ALL
  SELECT doc_id + {INSERT_OFFSET}, 2, FALSE,
         md5_number_lower(text) % {_MOD}
  FROM documents WHERE doc_id % 13 = 0
  UNION ALL
  SELECT doc_id, 2, TRUE, 0
  FROM documents WHERE doc_id % 11 = 3 AND doc_id % 7 <> 0)"""


def snapshot_compact_sql() -> str:
    return f"""WITH {_DELTA_CTE},
u AS (SELECT * FROM v1 UNION ALL SELECT * FROM v2),
r AS (
  SELECT doc_id, version, deleted, content_h,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY version DESC) AS rn
  FROM u)
SELECT doc_id, CAST(version AS BIGINT) AS version,
       CAST(content_h AS BIGINT) AS content_h
FROM r WHERE rn = 1 AND NOT deleted"""


def snapshot_diff(sf_dir: str):
    """Change-class counts between the old snapshot and the compacted
    new one, by content hash: ``(change, n)`` over {added, deleted,
    changed, unchanged}."""
    # ONE co-partition: the tagged union already carries everything the
    # per-doc class decision needs (v1 row = the old snapshot, max-
    # version row = the compacted new one), so compaction and diff fuse
    # into the same exchange — running snapshot_compact separately would
    # pay a second shuffle and a third text-hash pass for nothing
    ds = _tagged_union(sf_dir)

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "version"],
                            ascending=[True, False], kind="stable")
        win = df.drop_duplicates("doc_id", keep="first")
        new = win[~win["deleted"]].set_index("doc_id")["content_h"]
        o = df[df["version"] == 1].set_index("doc_id")["content_h"]
        added = int((~new.index.isin(o.index)).sum())
        deleted = int((~o.index.isin(new.index)).sum())
        common = o.index.intersection(new.index)
        changed = int((o.loc[common] != new.loc[common]).sum())
        unchanged = len(common) - changed
        return pd.DataFrame({
            "change": ["added", "deleted", "changed", "unchanged"],
            "n": np.array([added, deleted, changed, unchanged],
                          np.int64)})

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import table_nrows

    # Gate on the DOCUMENTS row count (metadata only): the tagged union
    # is ≤ 2 rows × 25 B per doc — under the bound it collects once and
    # classifies in ONE local pandas pass (zero exchanges); above it the
    # doc_id exchange runs and only its ≤4-row-per-block partials fold on
    # the driver (one exchange; the second groupby was
    # pure fixed cost for a 4-row result either way)
    if fits(table_nrows(sf_dir, "documents"), common.DRIVER_BOUND, 64):
        parts = list(arrow_blocks(ds, stream=False))
        if parts:
            df_all = pa.concat_tables(
                parts, promote_options="default").to_pandas()
            out = classify(df_all)
        else:
            out = pd.DataFrame({"change": pd.Series([], dtype=object),
                                "n": pd.Series([], dtype=np.int64)})
        out = out[out["n"] > 0].reset_index(drop=True)
        return pa.table({
            "change": pa.array(out["change"].to_numpy(object),
                               pa.string()),
            "n": pa.array(out["n"].to_numpy(np.int64))})

    acc: dict[str, int] = {}
    for t in arrow_blocks(exchange(ds, ["doc_id"], classify), stream=False):
        for c, n in zip(t.column("change").to_pylist(),
                        t.column("n").to_pylist()):
            acc[c] = acc.get(c, 0) + int(n)
    keys = [c for c in sorted(acc) if acc[c] > 0]
    return pa.table({"change": pa.array(keys, pa.string()),
                     "n": pa.array([acc[c] for c in keys], pa.int64())})


def snapshot_diff_sql() -> str:
    return f"""WITH {_DELTA_CTE},
u AS (SELECT * FROM v1 UNION ALL SELECT * FROM v2),
r AS (
  SELECT doc_id, version, deleted, content_h,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY version DESC) AS rn
  FROM u),
new AS (SELECT doc_id, content_h FROM r WHERE rn = 1 AND NOT deleted),
cls AS (
  SELECT CASE WHEN o.doc_id IS NULL THEN 'added'
              WHEN n.doc_id IS NULL THEN 'deleted'
              WHEN o.content_h <> n.content_h THEN 'changed'
              ELSE 'unchanged' END AS change
  FROM v1 o FULL OUTER JOIN new n ON o.doc_id = n.doc_id)
SELECT change, CAST(count(*) AS BIGINT) AS n FROM cls GROUP BY change"""
