"""Seeded benchmark input and the DuckDB answers it is checked against.

The input is one ``documents.parquet`` with columns ``(doc_id, text)``, the
table every kgx pipeline derives its transcripts from (one row becomes one
turn).  The pipelines receive only the directory that holds it.

Texts are word salad over the 31-word vocabulary of the repository's
synthetic ``documents`` tables, 6 to 99 words each (mean ~52 words, ~290
characters, as in those tables).  The benchmark cannot read those tables: it
runs from a bare checkout.  No vocabulary word starts with a letter that
starts a dictionary name, so every ``person:`` link comes from the entity
snippets the transcript derivation appends, exactly as on the real tables.

``doc_id`` values are distinct and drawn below 10**9, so the derived
``turn_idx`` stays within int32 and within the 9-digit ``first_seen`` key.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

VOCAB = (
    "a agg batch big column customer data dup fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()

DOC_ID_LIMIT = 10**9
MIN_WORDS, MAX_WORDS = 6, 100


def nproc() -> int:
    """What ``nproc`` prints: the CPUs this process may use, lowered by
    ``OMP_NUM_THREADS`` when that is set."""
    return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)


def write_documents(out_dir: str, seed: int, n_docs: int) -> dict:
    """Write ``<out_dir>/documents.parquet`` for ``seed``; the same seed and
    size always give the same bytes.  Returns the input record."""
    rng = np.random.default_rng(seed)
    doc_ids = np.sort(rng.choice(DOC_ID_LIMIT, size=n_docs, replace=False)).astype(np.int64)
    n_words = rng.integers(MIN_WORDS, MAX_WORDS, size=n_docs)
    words = np.asarray(VOCAB, dtype=object)[rng.integers(0, len(VOCAB), size=int(n_words.sum()))]
    ends = np.cumsum(n_words)
    texts = [" ".join(words[a:b]) for a, b in zip((ends - n_words).tolist(), ends.tolist())]
    table = pa.table({"doc_id": doc_ids, "text": pa.array(texts, pa.string())})
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(table, os.path.join(out_dir, "documents.parquet"))
    return {
        "seed": seed,
        "turns": n_docs,
        "text_bytes": int(pc.sum(pc.binary_length(table.column("text"))).as_py()),
    }


def triples_digest(con, relation: str) -> list:
    """Order-independent digest of a triples relation: row count and the sum
    of per-row hashes over every output column."""
    n, h = con.execute(
        "SELECT count(*), sum(hash(subj, pred, obj, support, first_seen, prob)::HUGEINT) "
        f"FROM {relation}"
    ).fetchone()
    return [int(n), str(h)]


def label_counts(table: pa.Table) -> dict:
    """Mention rows per label."""
    vc = pc.value_counts(table.column("label"))
    return {v["values"].as_py(): v["counts"].as_py() for v in vc}


def _connect(threads: int):
    import duckdb

    con = duckdb.connect()
    con.execute(f"SET threads = {threads}")
    return con


def expected(kind: str, in_dir: str, cache_dir: str, threads: int) -> object:
    """The oracle answer for ``kind`` ("triples" or "mentions") on the input
    in ``in_dir``, computed with DuckDB from ``pipelines/oracles.py`` and
    cached under ``cache_dir`` by the hash of the SQL and the input bytes."""
    from nativeextractor_ray.pipelines.oracles import MENTION_COUNTS_SQL, TRIPLES_SQL

    sql = TRIPLES_SQL if kind == "triples" else MENTION_COUNTS_SQL
    docs = os.path.join(in_dir, "documents.parquet")
    key = hashlib.sha256(sql.encode())
    with open(docs, "rb") as f:
        key.update(f.read())
    path = os.path.join(cache_dir, f"{kind}-{key.hexdigest()[:24]}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    con = _connect(threads)
    try:
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{docs}')")
        if kind == "triples":
            answer = triples_digest(con, f"({sql})")
        else:
            answer = {label: int(n) for label, n in con.execute(sql).fetchall()}
    finally:
        con.close()
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(answer, f)
    os.replace(tmp, path)
    return answer


def output_answer(kind: str, table: pa.Table) -> object:
    """The same answer computed from a pipeline's collected output."""
    if kind == "mentions":
        return label_counts(table)
    con = _connect(1)
    try:
        con.register("out", table)
        return triples_digest(con, "out")
    finally:
        con.close()


def main() -> int:
    """Write the measured and the warm-up input for one seed into ``--dir``,
    with the oracle answers for ``--kinds`` in ``<dir>/expected.json``.
    Runs in a process of its own, so the oracle's memory never counts
    towards the measured run."""
    import argparse

    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--turns", type=int, required=True)
    p.add_argument("--warm-turns", type=int, required=True)
    p.add_argument("--kinds", required=True, help="comma-separated: triples, mentions")
    p.add_argument("--dir", required=True)
    p.add_argument("--cache", required=True)
    args = p.parse_args()

    threads = nproc()
    out = {"record": write_documents(os.path.join(args.dir, "main"), args.seed, args.turns)}
    write_documents(os.path.join(args.dir, "warm"), args.seed, args.warm_turns)
    for which in ("main", "warm"):
        out[which] = {kind: expected(kind, os.path.join(args.dir, which), args.cache, threads)
                      for kind in args.kinds.split(",")}
    with open(os.path.join(args.dir, "expected.json"), "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
