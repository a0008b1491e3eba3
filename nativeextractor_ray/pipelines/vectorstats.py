"""Per-dimension embedding statistics — the PCA/whitening prep pass.

Feature-scaling, whitening and drift monitoring over an embedding column
all start from exact per-dimension first/second moments.  At 100 TB the
only sound shape is the one used here: each batch folds its vectors into
ONE 64-row partial (dim, n, Σq, Σq²) — moments ride blocks, never rows —
and a tiny ``groupby(dim)`` finishes.

Float discipline (the ``events.value_outliers`` rule): values quantize
to 1e-6 fixed point per element with explicit half-up rounding
(float32→float64 widening is exact, so both engines quantize
identically), per-batch sums stay within proven int64 bounds
(``|q| ≤ 2^25`` asserted — loud raise, never silent wrap — so
``Σ q² ≤ 4096·2^50 < 2^63`` per batch), and cross-block accumulation
carries hi/lo int64 PAIRS reassembled as exact Python ints in the final
per-dim group, so NO corpus size can overflow.  Mean/var then derive
from the exact integer sums via one identical float expression on both
engines and are emitted as INTEGER micro-units (1e-6) with explicit
half-up ``floor(x·1e6 + 0.5)`` — engine ``round()`` implementations
disagree on boundary doubles (observed: a 6-dp mean tie rounded
-0.001744 by Python and -0.001743 by DuckDB), ``floor`` of the identical
double cannot.

Reference scope note: the reference engine (nativeextractor) has no
vector ops; this is part of the prompt-mandated embedding operator
family (similarity.py, dedup_embedding) — the stats pass that sizes
those indexes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

EMB_DIM = 64
QSCALE = 10**6
QBOUND = 1 << 25  # |q| bound: keeps per-batch Σq² exactly in int64
_LO_MASK = (1 << 62) - 1


def embedding_dim_stats(sf_dir: str):
    """Exact per-dimension ``(dim, n_vecs, mean_micro, var_micro)`` over
    ``embeddings.embedding`` (1-based ``dim``, population variance, both
    stats in integer 1e-6 units)."""
    from nativeextractor_ray.functions.vectors import embedding_matrix
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "embeddings", ["embedding"])

    def partial(t: pa.Table) -> pa.Table:
        m = embedding_matrix(t.column("embedding")).astype(np.float64)
        if m.shape[1] != EMB_DIM:
            raise ValueError(
                f"embedding_dim_stats: expected dim {EMB_DIM}, "
                f"got {m.shape[1]}")
        q = np.floor(m * float(QSCALE) + 0.5).astype(np.int64)
        if q.size and np.abs(q).max() >= QBOUND:
            raise ValueError(
                "embedding_dim_stats: |value| exceeds the documented "
                f"fixed-point bound ({QBOUND / QSCALE:.1f}) — Σq² exactness "
                "no longer proven; rescale or lower QSCALE deliberately")
        s1 = q.sum(axis=0)              # exact: |Σq| ≤ 4096·2^25 < 2^38
        s2 = (q * q).sum(axis=0)        # exact: Σq² ≤ 4096·2^50 < 2^63
        return pa.table({
            "dim": pa.array(np.arange(1, EMB_DIM + 1), pa.int64()),
            "n": pa.array(np.full(EMB_DIM, len(q), np.int64)),
            "s1_hi": pa.array(s1 >> 62, pa.int64()),
            "s1_lo": pa.array(s1 & _LO_MASK, pa.int64()),
            "s2_hi": pa.array(s2 >> 62, pa.int64()),
            "s2_lo": pa.array(s2 & _LO_MASK, pa.int64()),
        })

    def finish(g):
        import pandas as pd

        # exact Python-int reassembly — immune to any corpus size
        s1 = sum((int(h) << 62) + int(l)
                 for h, l in zip(g["s1_hi"], g["s1_lo"]))
        s2 = sum((int(h) << 62) + int(l)
                 for h, l in zip(g["s2_hi"], g["s2_lo"]))
        n = int(g["n"].sum())
        mean_raw = float(s1) / float(QSCALE) / n
        var_raw = (float(s2) / float(QSCALE * QSCALE) / n
                   - mean_raw * mean_raw)
        return pd.DataFrame({
            "dim": [int(g["dim"].iloc[0])],
            "n_vecs": np.array([n], np.int64),
            "mean_micro": np.array(
                [np.floor(mean_raw * QSCALE + 0.5)], np.int64),
            "var_micro": np.array(
                [np.floor(var_raw * QSCALE + 0.5)], np.int64),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("dim")
              .map_groups(finish, batch_format="pandas"))


def embedding_dim_stats_sql() -> str:
    return f"""WITH q AS (
  SELECT CAST(r.dim AS BIGINT) AS dim,
         -- the DOUBLE cast is load-bearing: DuckDB evaluates
         -- FLOAT * <numeric literal> in FLOAT, quantizing differently
         CAST(floor(CAST(list_extract(e.embedding, r.dim) AS DOUBLE)
                    * {QSCALE}.0 + 0.5) AS BIGINT) AS q
  FROM embeddings e, range(1, {EMB_DIM + 1}) r(dim)
)
SELECT dim, CAST(count(*) AS BIGINT) AS n_vecs,
       CAST(floor((CAST(sum(q) AS DOUBLE) / {QSCALE}.0 / count(*))
                  * {QSCALE}.0 + 0.5) AS BIGINT) AS mean_micro,
       CAST(floor((CAST(sum(q * q) AS DOUBLE) / {QSCALE * QSCALE}.0
                     / count(*)
                   - (CAST(sum(q) AS DOUBLE) / {QSCALE}.0 / count(*))
                     * (CAST(sum(q) AS DOUBLE) / {QSCALE}.0 / count(*)))
                  * {QSCALE}.0 + 0.5) AS BIGINT) AS var_micro
FROM q GROUP BY dim ORDER BY dim"""


def label_centroids(sf_dir: str):
    """Per-label exact centroid — the class-prototype pass (SemDeDup's
    cluster seeds, classifier prototypes, per-domain drift monitors all
    start here).  Output long-form: ``(label, dim, n_vecs, mean_micro)``
    with the same 1e-6 fixed-point discipline as
    :func:`embedding_dim_stats`.

    Scale shape: identical to the global pass, with the partial keyed by
    (label, dim) — each batch folds to ``labels_in_batch × 64`` rows via
    ONE ``np.add.at`` scatter (labels are factorized per batch, no
    per-label loop), so the ``groupby((label, dim))`` shuffle moves
    moment rows bounded by blocks × labels × 64, never vectors.  No join:
    ``label`` rides the embeddings table itself."""
    from nativeextractor_ray.functions.vectors import embedding_matrix
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "embeddings", ["embedding", "label"])

    def partial(t: pa.Table) -> pa.Table:
        m = embedding_matrix(t.column("embedding")).astype(np.float64)
        if m.shape[1] != EMB_DIM:
            raise ValueError(
                f"label_centroids: expected dim {EMB_DIM}, got {m.shape[1]}")
        q = np.floor(m * float(QSCALE) + 0.5).astype(np.int64)
        if q.size and np.abs(q).max() >= QBOUND:
            raise ValueError(
                "label_centroids: |value| exceeds the documented "
                f"fixed-point bound ({QBOUND / QSCALE:.1f})")
        labels = t.column("label").to_numpy()
        uniq, inv = np.unique(labels, return_inverse=True)
        k = len(uniq)
        s1 = np.zeros((k, EMB_DIM), dtype=np.int64)
        np.add.at(s1, inv, q)           # exact: |Σq| ≤ rows·2^25 per batch
        n = np.bincount(inv, minlength=k).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(uniq.astype(np.int64), EMB_DIM)),
            "dim": pa.array(np.tile(np.arange(1, EMB_DIM + 1), k),
                            pa.int64()),
            "n": pa.array(np.repeat(n, EMB_DIM)),
            "s1_hi": pa.array((s1 >> 62).ravel(), pa.int64()),
            "s1_lo": pa.array((s1 & _LO_MASK).ravel(), pa.int64()),
        })

    def finish(g):
        import pandas as pd

        s1 = sum((int(h) << 62) + int(l)
                 for h, l in zip(g["s1_hi"], g["s1_lo"]))
        n = int(g["n"].sum())
        mean_raw = float(s1) / float(QSCALE) / n
        return pd.DataFrame({
            "label": np.array([int(g["label"].iloc[0])], np.int64),
            "dim": np.array([int(g["dim"].iloc[0])], np.int64),
            "n_vecs": np.array([n], np.int64),
            "mean_micro": np.array(
                [np.floor(mean_raw * QSCALE + 0.5)], np.int64),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(["label", "dim"])
              .map_groups(finish, batch_format="pandas"))


def label_centroids_sql() -> str:
    return f"""WITH q AS (
  SELECT CAST(e.label AS BIGINT) AS label, CAST(r.dim AS BIGINT) AS dim,
         CAST(floor(CAST(list_extract(e.embedding, r.dim) AS DOUBLE)
                    * {QSCALE}.0 + 0.5) AS BIGINT) AS q
  FROM embeddings e, range(1, {EMB_DIM + 1}) r(dim)
)
SELECT label, dim, CAST(count(*) AS BIGINT) AS n_vecs,
       CAST(floor((CAST(sum(q) AS DOUBLE) / {QSCALE}.0 / count(*))
                  * {QSCALE}.0 + 0.5) AS BIGINT) AS mean_micro
FROM q GROUP BY label, dim"""


# ------------------------------------------------- covariance (Gram) pass


def embedding_covariance(sf_dir: str):
    """Exact upper-triangle covariance matrix of the embedding column —
    the distributed GRAM-MATRIX pass that PCA / whitening / linear
    probes are built on (X^T X is the one statistic that turns a
    10^10-vector corpus into a D×D driver-side problem).

    Scale shape: each batch folds to ONE D×(D+1)/2 partial via an int64
    ``q^T q`` matmul over the 1e-6 fixed-point quantization (exactness:
    ``|q| ≤ 2^25`` asserted → per-batch ``|Σ q_i q_j| ≤ 4096·2^50 <
    2^63`` with the enforced batch size), cross-block sums carry hi/lo
    int64 pairs (Python-int reassembly — no corpus size overflows), one
    tiny ``groupby((i, j))`` finishes.  The covariance derives from the
    exact integer moments by ONE identical float expression on both
    engines, emitted as half-up micro units.

    Output: ``(i, j, n_vecs, cov_micro)`` for 1 ≤ i ≤ j ≤ D."""
    import pandas as pd

    from nativeextractor_ray.functions.vectors import embedding_matrix
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "embeddings", ["embedding"])
    iu, ju = np.triu_indices(EMB_DIM)

    def partial(t: pa.Table) -> pa.Table:
        m = embedding_matrix(t.column("embedding")).astype(np.float64)
        if m.shape[1] != EMB_DIM:
            raise ValueError(
                f"embedding_covariance: expected dim {EMB_DIM}, "
                f"got {m.shape[1]}")
        if len(m) > 4096:
            raise ValueError(
                "embedding_covariance: batch too large for the proven "
                "int64 bound — lower batch_size")
        q = np.floor(m * float(QSCALE) + 0.5).astype(np.int64)
        if q.size and np.abs(q).max() >= QBOUND:
            raise ValueError(
                "embedding_covariance: |value| exceeds the fixed-point "
                f"bound ({QBOUND / QSCALE:.1f})")
        gram = q.T @ q                  # exact within the proven bound
        s1 = q.sum(axis=0)
        sij = gram[iu, ju]
        return pa.table({
            "i": pa.array(iu + 1, pa.int64()),
            "j": pa.array(ju + 1, pa.int64()),
            "n": pa.array(np.full(len(iu), len(q), np.int64)),
            "sij_hi": pa.array(sij >> 62, pa.int64()),
            "sij_lo": pa.array(sij & _LO_MASK, pa.int64()),
            "si": pa.array(s1[iu], pa.int64()),
            "sj": pa.array(s1[ju], pa.int64()),
        })

    def finish(g):
        sij = sum((int(h) << 62) + int(l)
                  for h, l in zip(g["sij_hi"], g["sij_lo"]))
        si = int(np.asarray(g["si"], dtype=object).sum())
        sj = int(np.asarray(g["sj"], dtype=object).sum())
        n = int(g["n"].sum())
        num = n * sij - si * sj          # exact Python int
        cov_raw = float(num) / float(n * n) / float(QSCALE)
        return pd.DataFrame({
            "i": [int(g["i"].iloc[0])],
            "j": [int(g["j"].iloc[0])],
            "n_vecs": np.array([n], np.int64),
            "cov_micro": np.array(
                [np.floor(cov_raw / QSCALE * QSCALE + 0.5)], np.int64),
        })

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=1024)
              .groupby(["i", "j"])
              .map_groups(finish, batch_format="pandas"))


def embedding_covariance_sql() -> str:
    return f"""WITH q AS (
  SELECT e.vec_id, CAST(r.dim AS BIGINT) AS dim,
         CAST(floor(CAST(list_extract(e.embedding, r.dim) AS DOUBLE)
                    * {QSCALE}.0 + 0.5) AS BIGINT) AS q
  FROM embeddings e, range(1, {EMB_DIM + 1}) r(dim)),
p AS (
  SELECT a.dim AS i, b.dim AS j,
         CAST(count(*) AS BIGINT) AS n,
         sum(CAST(a.q AS HUGEINT) * b.q) AS sij,
         sum(CAST(a.q AS HUGEINT)) AS si,
         sum(CAST(b.q AS HUGEINT)) AS sj
  FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.dim <= b.dim
  GROUP BY 1, 2)
SELECT i, j, n AS n_vecs,
       CAST(floor(CAST(CAST(n AS HUGEINT) * sij - si * sj AS DOUBLE)
                  / CAST(n * n AS DOUBLE) / {QSCALE}.0
                  / {QSCALE}.0 * {QSCALE}.0 + 0.5) AS BIGINT) AS cov_micro
FROM p"""


# ----------------------------------------------------- PCA projection


PCA_ITERS = 64


def _cov_matrix_local(sf_dir: str) -> np.ndarray:
    """The exact-integer covariance computed LOCALLY (pure pyarrow +
    Python ints — no Ray).  Bit-identical to the distributed Gram pass
    by construction (both reduce to the same exact integer moments), so
    the SQL-literal oracle can build WITHOUT a Ray session — executing
    a distributed pipeline at ``oracle_sql()`` construction time would
    auto-init Ray during pytest COLLECTION, before the session fixture
    owns it (observed as a collection-time hang)."""
    from nativeextractor_ray.functions.vectors import embedding_matrix
    from nativeextractor_ray.sources.tables import load_table

    tbl = load_table(sf_dir, "embeddings", columns=["embedding"])
    m = embedding_matrix(tbl.column("embedding")).astype(np.float64)
    q = np.floor(m * float(QSCALE) + 0.5).astype(np.int64)
    n = len(q)
    C = np.zeros((EMB_DIM, EMB_DIM), np.float64)
    if n == 0:  # embedding_covariance emits no rows: the zero matrix
        return C
    # exact integer moments: int64 matmul per ≤4096-row chunk (the
    # proven per-batch bound), Python-int accumulation across chunks
    sij = np.zeros((EMB_DIM, EMB_DIM), dtype=object)
    s1 = np.zeros(EMB_DIM, dtype=object)
    for lo in range(0, n, 4096):
        ch = q[lo:lo + 4096]
        sij = sij + (ch.T @ ch).astype(object)
        s1 = s1 + ch.sum(axis=0).astype(object)
    for a in range(EMB_DIM):
        for b in range(a, EMB_DIM):
            num = n * int(sij[a, b]) - int(s1[a]) * int(s1[b])
            cov_raw = float(num) / float(n * n) / float(QSCALE)
            cm = np.floor(cov_raw / QSCALE * QSCALE + 0.5)
            C[a, b] = cm / 1e6
            C[b, a] = C[a, b]
    return C


def _pca_top2(sf_dir: str, cov: np.ndarray | None = None) -> np.ndarray:
    """Top-2 principal directions from the EXACT integer covariance,
    resolved on the driver by deterministic power iteration with
    deflation — no RNG, fixed iteration count, so the components are a
    pure function of the corpus and can be embedded as SQL literals
    (the IVF-centroid / LSH-plane replay pattern)."""
    from nativeextractor_ray.functions.blocks import arrow_blocks

    if cov is not None:
        C = cov
    else:
        cov_ds = embedding_covariance(sf_dir)
        C = np.zeros((EMB_DIM, EMB_DIM), np.float64)
        for t in arrow_blocks(cov_ds, stream=False):
            i = t.column("i").to_numpy() - 1
            j = t.column("j").to_numpy() - 1
            v = t.column("cov_micro").to_numpy() / 1e6
            C[i, j] = v
            C[j, i] = v
    comps = []
    M = C.copy()
    for _ in range(2):
        vec = np.ones(EMB_DIM) / np.sqrt(EMB_DIM)
        for _ in range(PCA_ITERS):
            vec = M @ vec
            n = np.linalg.norm(vec)
            if n == 0:
                break
            vec = vec / n
        # sign convention: first nonzero coordinate positive
        nz = np.nonzero(vec)[0]
        if len(nz) and vec[nz[0]] < 0:
            vec = -vec
        comps.append(vec)
        lam = vec @ M @ vec
        M = M - lam * np.outer(vec, vec)
    return np.stack(comps)


#: component quantization — 1e-9 grid: |q·v_int| ≤ 2^25·2^30 = 2^55,
#: a 64-term sum ≤ 2^61 — exact in int64, ORDER-INDEPENDENT (a float
#: dot product is not: a left-to-right chain measured 1e-13 off
#: DuckDB's evaluation — integers make the whole question vanish)
VSCALE = 10**9


def embedding_pca_project(sf_dir: str):
    """Every embedding projected onto the corpus' top-2 principal
    directions — the 2-D map/visualization pass layered on the Gram
    matrix.  Both the vectors (1e-6) and the components (1e-9) are
    fixed-point, so the projection is an exact int64 dot product —
    bit-identical on any engine, any summation order.

    Scale shape: the covariance pass (blocks × D²/2 integer partials) +
    one streaming projection map with the 2×D quantized component
    matrix broadcast.  Output: ``(vec_id, p1_q, p2_q)`` — integer
    micro·nano units (divide by 1e15 for the float projection)."""
    import ray

    from nativeextractor_ray.functions.vectors import embedding_matrix
    from nativeextractor_ray.sources.tables import read_table

    V = _pca_top2(sf_dir)
    Vq = np.floor(V * float(VSCALE) + 0.5).astype(np.int64)
    ref = ray.put(Vq)

    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])

    def project(t: pa.Table) -> pa.Table:
        comps = ray.get(ref)
        m = embedding_matrix(t.column("embedding")).astype(np.float64)
        q = np.floor(m * float(QSCALE) + 0.5).astype(np.int64)
        p = q @ comps.T  # exact: |q·v| ≤ 2^55, 64 terms < 2^63
        return pa.table({"vec_id": t.column("vec_id"),
                         "p1_q": pa.array(p[:, 0]),
                         "p2_q": pa.array(p[:, 1])})

    return ds.map_batches(project, batch_format="pyarrow")


def embedding_pca_project_sql(sf_dir: str | None = None) -> str:
    import os

    sf = sf_dir or os.environ.get("GRAFT_ORACLE_SF_DIR",
                                  "/root/testdata/sf0.01")
    V = _pca_top2(sf, cov=_cov_matrix_local(sf))  # Ray-free construction
    Vq = np.floor(V * float(VSCALE) + 0.5).astype(np.int64)
    vals = ", ".join(f"({d + 1}, {int(Vq[0, d])}, {int(Vq[1, d])})"
                     for d in range(EMB_DIM))
    return f"""WITH comps(dim, v1, v2) AS (VALUES {vals}),
q AS (
  SELECT e.vec_id, c.dim, c.v1, c.v2,
         CAST(floor(CAST(list_extract(e.embedding, c.dim) AS DOUBLE)
                    * {QSCALE}.0 + 0.5) AS BIGINT) AS q
  FROM embeddings e, comps c)
SELECT vec_id,
       CAST(sum(q * v1) AS BIGINT) AS p1_q,
       CAST(sum(q * v2) AS BIGINT) AS p2_q
FROM q GROUP BY vec_id"""


NORM_OUTLIER_K = 50


def embedding_norm_outliers(sf_dir: str, k: int = NORM_OUTLIER_K):
    """The ``k`` vectors with the LARGEST exact squared norm — the
    mis-embedded-document audit (a runaway norm usually means a truncated
    or corrupted input hit the encoder; clipping them before ANN keeps
    the index calibrated).

    Exactness: components quantize to 1e-6 fixed point exactly as
    :func:`embedding_dim_stats` (same QBOUND invariant, so Σq² is exact
    int64) and the ranking is pure integer — bit-identical on any
    engine.

    Scale shape: top-k is associative — every block folds to ≤ k rows
    map-side, the union (blocks × k) resolves once on the driver.  No
    shuffle (the hash_sample economics).

    Output: ``(vec_id, norm2)`` — norm2 desc, vec_id asc."""
    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.functions.vectors import embedding_matrix
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        m = embedding_matrix(t.column("embedding")).astype(np.float64)
        q = np.floor(m * float(QSCALE) + 0.5).astype(np.int64)
        if q.size and np.abs(q).max() >= QBOUND:
            raise ValueError(
                "embedding_norm_outliers: |value| exceeds the documented "
                f"fixed-point bound ({QBOUND / QSCALE:.1f})")
        n2 = (q * q).sum(axis=1)
        ids = t.column("vec_id").to_numpy()
        order = np.lexsort((ids, -n2))[:k]
        return pa.table({"vec_id": pa.array(ids[order]),
                         "norm2": pa.array(n2[order])})

    parts = list(arrow_blocks(
        ds.map_batches(partial, batch_format="pyarrow"), stream=False))
    if not parts:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "norm2": pa.array([], pa.int64())})
    merged = pa.concat_tables(parts, promote_options="default")
    ids = merged.column("vec_id").to_numpy()
    n2 = merged.column("norm2").to_numpy()
    order = np.lexsort((ids, -n2))[:k]
    return pa.table({"vec_id": pa.array(ids[order]),
                     "norm2": pa.array(n2[order])})


def embedding_norm_outliers_sql(k: int = NORM_OUTLIER_K) -> str:
    return f"""WITH q AS (
  SELECT e.vec_id,
         CAST(floor(CAST(list_extract(e.embedding, r.dim) AS DOUBLE)
                    * {QSCALE}.0 + 0.5) AS BIGINT) AS q
  FROM embeddings e, range(1, {EMB_DIM + 1}) r(dim)),
n AS (SELECT vec_id, sum(q * q) AS norm2 FROM q GROUP BY vec_id)
SELECT vec_id, CAST(norm2 AS BIGINT) AS norm2
FROM n ORDER BY norm2 DESC, vec_id LIMIT {k}"""
