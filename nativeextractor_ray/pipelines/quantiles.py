"""Exact distributed order statistics — quantiles WITHOUT a global sort.

Ray Data's ``sort`` is an all-to-all shuffle of every row; selecting a
handful of order statistics does not need one.  ``_exact_quantiles``
computes EXACT quantile values by iterative histogram refinement (the
classic distributed selection shape), optionally PER GROUP for a bounded
group column — the scale-correct alternative to ``groupby(g).map_groups``
holding an entire group's values on one node:

1. one streaming pass → per-group ``(count, min, max)``;
2. per round, ONE streaming ``map_batches`` pass histograms the values
   of every still-active (group, q) search interval (a few hundred
   buckets × groups × targets — partials are tiny rows, the data never
   moves); the driver narrows each target's interval to the bucket
   containing its rank;
3. when an interval's candidate population is small (or the interval has
   collapsed to a point), a final filtered pass collects per-batch
   ``(value, count)`` partials for just that sliver and the driver reads
   the exact k-th value off the tiny combined table.

Every pass streams the full column but moves only O(buckets × targets)
bytes to the driver, so at 100 TB the cost is R+1 column scans (R ≈ 2-3:
each round narrows every interval by ~B×), not a 100 TB shuffle.  The
selected value is an actual data value — no interpolation arithmetic —
so the DuckDB oracle (row_number over a window) matches hash-exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.pipelines import common
from nativeextractor_ray.pipelines.common import exchange, fits

N_BUCKETS = 512
FINAL_N = 4096  # collect exact values once a target's sliver is this small
MAX_ROUNDS = 40

QS = (0.25, 0.5, 0.75, 0.9, 0.99)


def _exact_quantiles(ds, col: str, qs, group_col: str | None = None,
                     ranks=None):
    """Exact q-quantiles of ``ds[col]`` (value at 1-indexed rank
    ``ceil(q*n)`` of the sorted column), per group of ``group_col`` when
    given (group cardinality must be bounded — driver state is one
    interval per (group, q); the group column must be STRING-typed —
    target keys compare raw column values against driver-side str keys).
    Returns ``{(group, q): value}``; the group key is ``""`` when
    ungrouped.

    ``ranks`` (explicit 1-indexed ranks, e.g. from a PERCENTILE_CONT
    position calculation) overrides ``qs``: targets become ``(group, k)``
    and the same refinement kernel selects the k-th order statistic per
    group directly."""
    import ray

    if group_col is not None:
        gt = ds.schema().base_schema.field(group_col).type
        if not (pa.types.is_string(gt) or pa.types.is_large_string(gt)):
            raise TypeError(
                f"group_col {group_col!r} must be string-typed, got {gt} "
                "(cast upstream; non-string keys would silently mismatch "
                "the driver's str-keyed targets)"
            )

    def _groups(t: pa.Table):
        if group_col is None:
            return np.full(t.num_rows, "", dtype=object)
        return t.column(group_col).to_numpy(zero_copy_only=False)

    # pass 0: per-group count / min / max (one streaming aggregate)
    def minmax(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        g = _groups(t)
        ok = ~np.isnan(v)
        v, g = v[ok], g[ok]
        gs, ns, los, his = [], [], [], []
        for key in np.unique(g):
            m = v[g == key]
            gs.append(str(key))
            ns.append(len(m))
            los.append(float(m.min()))
            his.append(float(m.max()))
        return pa.table({"g": pa.array(gs, pa.string()),
                         "n": pa.array(ns, pa.int64()),
                         "lo": pa.array(los, pa.float64()),
                         "hi": pa.array(his, pa.float64())})

    stats: dict = {}
    for r in ds.map_batches(minmax, batch_format="pyarrow").take_all():
        s = stats.setdefault(r["g"], [0, np.inf, -np.inf])
        s[0] += r["n"]
        s[1] = min(s[1], r["lo"])
        s[2] = max(s[2], r["hi"])
    if not stats:
        return {}

    # one search state per (group, q): interval [lo, hi] known to hold
    # the k-th value, plus how many group values sit strictly below lo
    targets = {}
    for gkey, (n, glo, ghi) in stats.items():
        if ranks is not None:
            for k in sorted(set(ranks)):
                if not 1 <= k <= n:
                    raise ValueError(
                        f"_exact_quantiles: rank {k} out of range for "
                        f"group {gkey!r} with n={n}")
                targets[(gkey, k)] = {"k": int(k), "lo": glo, "hi": ghi,
                                      "below": 0, "in_range": n,
                                      "value": None}
        else:
            for q in qs:
                k = max(1, int(np.ceil(q * n)))
                targets[(gkey, q)] = {"k": k, "lo": glo, "hi": ghi,
                                      "below": 0, "in_range": n,
                                      "value": None}

    def active():
        return {t: s for t, s in targets.items() if s["value"] is None}

    for _ in range(MAX_ROUNDS):
        act = {t: s for t, s in active().items()
               if s["in_range"] > FINAL_N and s["hi"] > s["lo"]}
        if not act:
            break
        edges = {t: np.linspace(s["lo"], s["hi"], N_BUCKETS + 1)
                 for t, s in act.items()}
        eref = ray.put(edges)

        def hist(t: pa.Table) -> pa.Table:
            ed = ray.get(eref)
            v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            g = _groups(t)
            ok = ~np.isnan(v)
            v, g = v[ok], g[ok]
            tids, buckets, cnts = [], [], []
            for i, (tk, e) in enumerate(sorted(ed.items())):
                sel = v if group_col is None else v[g == tk[0]]
                m = sel[(sel >= e[0]) & (sel <= e[-1])]
                if not len(m):
                    continue
                idx = np.clip(np.searchsorted(e, m, side="right") - 1,
                              0, N_BUCKETS - 1)
                bc = np.bincount(idx, minlength=N_BUCKETS)
                nz = np.nonzero(bc)[0]
                tids.extend([i] * len(nz))
                buckets.extend(nz.tolist())
                cnts.extend(bc[nz].tolist())
            return pa.table({"tid": pa.array(tids, pa.int32()),
                             "bucket": pa.array(buckets, pa.int32()),
                             "cnt": pa.array(cnts, pa.int64())})

        partial = ds.map_batches(hist, batch_format="pyarrow").take_all()
        order = sorted(act)
        hists = {t: np.zeros(N_BUCKETS, dtype=np.int64) for t in order}
        for r in partial:
            hists[order[r["tid"]]][r["bucket"]] += r["cnt"]
        for tk in order:
            s = targets[tk]
            cum = np.cumsum(hists[tk])
            rk = s["k"] - s["below"]  # rank within this interval (1-indexed)
            j = int(np.searchsorted(cum, rk, side="left"))
            e = edges[tk]
            s["below"] += int(cum[j - 1]) if j > 0 else 0
            s["lo"], s["hi"] = float(e[j]), float(e[j + 1])
            s["in_range"] = int(hists[tk][j])
            if s["lo"] == s["hi"] or s["in_range"] == 0:
                s["value"] = s["lo"]

    rest = active()
    if rest:
        # final pass: per-batch (value, count) partials for the slivers —
        # bounded by FINAL_N distinct values per target per batch
        ivs = {t: (s["lo"], s["hi"]) for t, s in rest.items()}
        iref = ray.put(ivs)

        def collect(t: pa.Table) -> pa.Table:
            iv = ray.get(iref)
            v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            g = _groups(t)
            ok = ~np.isnan(v)
            v, g = v[ok], g[ok]
            tids, vals, cnts = [], [], []
            for i, (tk, (lo, hi)) in enumerate(sorted(iv.items())):
                sel = v if group_col is None else v[g == tk[0]]
                m = sel[(sel >= lo) & (sel <= hi)]
                if not len(m):
                    continue
                u, c = np.unique(m, return_counts=True)
                tids.extend([i] * len(u))
                vals.extend(u.tolist())
                cnts.extend(c.tolist())
            return pa.table({"tid": pa.array(tids, pa.int32()),
                             "val": pa.array(vals, pa.float64()),
                             "cnt": pa.array(cnts, pa.int64())})

        partial = ds.map_batches(collect, batch_format="pyarrow").take_all()
        order = sorted(rest)
        byt: dict = {t: {} for t in order}
        for r in partial:
            d = byt[order[r["tid"]]]
            d[r["val"]] = d.get(r["val"], 0) + r["cnt"]
        for tk in order:
            s = targets[tk]
            rk = s["k"] - s["below"]
            acc = 0
            for val in sorted(byt[tk]):
                acc += byt[tk][val]
                if acc >= rk:
                    s["value"] = float(val)
                    break

    return {t: s["value"] for t, s in targets.items()}


def event_value_quantiles(sf_dir: str, qs=QS):
    """Exact quantiles of ``events.value`` as a tiny (q, value) table."""
    import ray.data

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["value"])
    got = _exact_quantiles(ds, "value", qs)
    qs_sorted = sorted(q for _, q in got)
    return ray.data.from_arrow(pa.table({
        "q": pa.array(qs_sorted, pa.float64()),
        "value": pa.array([got[("", q)] for q in qs_sorted], pa.float64()),
    }))


def event_value_quantiles_sql(qs=QS) -> str:
    vals = ", ".join(f"({q})" for q in sorted(qs))
    return f"""WITH s AS (
  SELECT value, row_number() OVER (ORDER BY value) AS r,
         count(*) OVER () AS n
  FROM events WHERE value IS NOT NULL
)
SELECT CAST(q AS DOUBLE) AS q, value
FROM (VALUES {vals}) AS qs(q)
JOIN s ON s.r = CAST(ceil(q * n) AS BIGINT)"""


# ---------------------------------------------------------- grouped quantiles


GROUP_QS = (0.5, 0.9)


def token_quantiles_by_lang(sf_dir: str, qs=GROUP_QS):
    """Exact per-language quantiles of the whitespace token count — the
    grouped order statistic, via the SAME refinement kernel with one
    (group, q) interval per target.  No group ever materializes on one
    node (contrast ``groupby(lang).map_groups``, which would hold a whole
    language's counts in a single partition)."""
    import ray.data

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "documents", ["lang", "text"])

    def counts(t: pa.Table) -> pa.Table:
        return pa.table({
            "lang": t.column("lang"),
            "n_tokens": pc.cast(
                pc.count_substring_regex(t.column("text"), r"[^\s]+"), pa.int64()
            ),
        })

    counted = ds.map_batches(counts, batch_format="pyarrow").materialize()
    got = _exact_quantiles(counted, "n_tokens", qs, group_col="lang")
    rows = sorted(got.items())
    return ray.data.from_arrow(pa.table({
        "lang": pa.array([g for (g, _), _ in rows], pa.string()),
        "q": pa.array([q for (_, q), _ in rows], pa.float64()),
        "n_tokens": pa.array([int(v) for _, v in rows], pa.int64()),
    }))


def token_quantiles_by_lang_sql(qs=GROUP_QS) -> str:
    vals = ", ".join(f"({q})" for q in sorted(qs))
    return f"""WITH tok AS (
  SELECT lang,
         CAST(len(regexp_extract_all(text, '[^\\s]+')) AS BIGINT) AS n_tokens
  FROM documents
),
s AS (
  SELECT lang, n_tokens,
         row_number() OVER (PARTITION BY lang ORDER BY n_tokens) AS r,
         count(*) OVER (PARTITION BY lang) AS n
  FROM tok
)
SELECT lang, CAST(q AS DOUBLE) AS q, n_tokens
FROM (VALUES {vals}) AS qs(q)
JOIN s ON s.r = CAST(ceil(q * n) AS BIGINT)"""


# -------------------------------------------------- PERCENTILE_CONT


#: interpolated-percentile targets as EXACT rationals — position
#: arithmetic ((n-1)·num ÷ den) stays in integers on both engines; a
#: float q would floor differently at boundary positions (the
#: cms_heavy_hitters threshold lesson)
CONT_QS = ((1, 4), (1, 2), (3, 4), (9, 10), (99, 100))


def event_value_percentiles_cont(sf_dir: str) -> pa.Table:
    """``PERCENTILE_CONT`` over ``events.value``: the SQL-standard
    linearly-interpolated percentile at q = num/den for each entry of
    :data:`CONT_QS`.

    Position per the standard: ``pos = (n-1)·q``; the result
    interpolates the order statistics at ranks ``floor(pos)+1`` and
    ``floor(pos)+2`` by ``frac = pos - floor(pos)``.  Both ranks are
    selected EXACTLY by the same histogram-refinement kernel as the
    discrete quantiles (R+1 streaming scans, no global sort — see module
    docstring); the only float arithmetic is the one interpolation
    expression, written identically in the SQL twin and emitted in
    floor-rounded integer micro-units (the repo's float-parity rule).

    Output: ``(q_num, q_den, pct_micro)``."""
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["value"])
    n = ds.count()
    specs = []
    need: set[int] = set()
    for num, den in CONT_QS:
        k0, rem = divmod((n - 1) * num, den)
        specs.append((num, den, k0, rem))
        need.add(k0 + 1)
        if rem:
            need.add(k0 + 2)
    vals = _exact_quantiles(ds, "value", (), ranks=sorted(need))

    out_num, out_den, out_micro = [], [], []
    for num, den, k0, rem in specs:
        lo = vals[("", k0 + 1)]
        if rem:
            hi = vals[("", k0 + 2)]
            v = lo + (rem / den) * (hi - lo)
        else:
            v = lo
        out_num.append(num)
        out_den.append(den)
        out_micro.append(int(np.floor(v * 1e6 + 0.5)))
    return pa.table({
        "q_num": pa.array(out_num, pa.int64()),
        "q_den": pa.array(out_den, pa.int64()),
        "pct_micro": pa.array(out_micro, pa.int64()),
    })


def event_value_percentiles_cont_sql() -> str:
    """SQL twin: order statistics via ROW_NUMBER (not quantile_cont —
    its internal position arithmetic is not spec-pinned), the identical
    integer position split and the identical double interpolation."""
    qs = ", ".join(f"({num}, {den})" for num, den in CONT_QS)
    return f"""WITH o AS (
  SELECT CAST(value AS DOUBLE) AS v,
         row_number() OVER (ORDER BY value) AS rn
  FROM events
),
qs(num, den) AS (VALUES {qs}),
pos AS (
  SELECT num, den,
         ((SELECT count(*) FROM events) - 1) * num // den AS k0,
         ((SELECT count(*) FROM events) - 1) * num % den  AS rem
  FROM qs
)
SELECT CAST(p.num AS BIGINT) AS q_num, CAST(p.den AS BIGINT) AS q_den,
       CAST(floor(
         CASE WHEN p.rem = 0 THEN lo.v
              ELSE lo.v + (CAST(p.rem AS DOUBLE) / CAST(p.den AS DOUBLE))
                          * (hi.v - lo.v) END
         * 1000000.0 + 0.5) AS BIGINT) AS pct_micro
FROM pos p
JOIN o lo ON lo.rn = p.k0 + 1
LEFT JOIN o hi ON hi.rn = p.k0 + 2"""


# ---------------------------------------------------- winsorized mean


WINSOR_LO, WINSOR_HI = 0.05, 0.95


def winsorized_value_mean(sf_dir: str, lo: float = WINSOR_LO,
                          hi: float = WINSOR_HI):
    """Winsorized mean of ``events.value`` per event type — the
    outlier-robust aggregate (clip at the exact per-group [p05, p95]
    order statistics, then average): what a metrics pipeline reports
    when a handful of corrupt readings would otherwise drag the mean.

    Composition: the per-group clip bounds come from the SAME exact
    histogram-refinement kernel as :func:`token_quantiles_by_lang`
    (R+1 streaming scans, no group on one node); they broadcast as a
    tiny per-type dict; ONE more streaming pass clips each batch,
    converts to half-up integer cents and folds per-type (n, sum)
    partials; the final mean is an exact half-up micro ratio computed
    in unbounded Python ints over the per-type table (≤ types rows) —
    no overflow bound to document.

    Output: ``(event_type, n, sum_clipped_c, mean_micro_c)``."""
    import ray
    import ray.data

    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_type", "value"]).materialize()
    got = _exact_quantiles(ds, "value", (lo, hi), group_col="event_type")
    bounds = {}
    for (g, q), v in got.items():
        lo_v, hi_v = bounds.get(g, (None, None))
        if q == lo:
            bounds[g] = (v, hi_v)
        else:
            bounds[g] = (lo_v, v)
    bref = ray.put(bounds)

    def clip_partial(t: pa.Table) -> pa.Table:
        b = ray.get(bref)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        v = t.column("value").to_numpy()
        keep = ~np.isnan(v)
        et, v = et[keep], v[keep]
        # vectorized bound lookup via factorize over the (few) types
        import pandas as pd_

        codes, uniq = pd_.factorize(et, sort=False)
        lo_a = np.array([b[u][0] for u in uniq], dtype=np.float64)
        hi_a = np.array([b[u][1] for u in uniq], dtype=np.float64)
        clipped = np.minimum(np.maximum(v, lo_a[codes]), hi_a[codes])
        cents = np.floor(clipped * 100.0 + 0.5).astype(np.int64)
        n = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        s = np.bincount(codes, weights=cents,
                        minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "event_type": pa.array(uniq, pa.string()),
            "n": pa.array(n, pa.int64()),
            "sum_clipped_c": pa.array(s, pa.int64())})

    agg = (ds.map_batches(clip_partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sum_clipped_c", alias_name="sum_clipped_c")))

    rows = [t for t in arrow_blocks(agg) if t.num_rows]
    if not rows:
        return ray.data.from_arrow(pa.table({
            "event_type": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "sum_clipped_c": pa.array([], pa.int64()),
            "mean_micro_c": pa.array([], pa.int64())}))
    tbl = pa.concat_tables(rows)
    # exact half-up micro mean in unbounded Python ints (types-bounded)
    mean = [(2 * s * 1_000_000 + n) // (2 * n) if s >= 0
            else -((2 * (-s) * 1_000_000 + n) // (2 * n))
            for s, n in zip(tbl.column("sum_clipped_c").to_pylist(),
                            tbl.column("n").to_pylist())]
    return ray.data.from_arrow(tbl.append_column(
        "mean_micro_c", pa.array(mean, pa.int64())))


def winsorized_value_mean_sql(lo: float = WINSOR_LO,
                              hi: float = WINSOR_HI) -> str:
    return f"""WITH s AS (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY value) AS r,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM events WHERE value IS NOT NULL),
b AS (
  SELECT event_type,
         max(CASE WHEN r = CAST(ceil({lo} * n) AS BIGINT)
             THEN value END) AS lo_v,
         max(CASE WHEN r = CAST(ceil({hi} * n) AS BIGINT)
             THEN value END) AS hi_v
  FROM s GROUP BY event_type),
c AS (
  SELECT e.event_type,
         CAST(floor(least(greatest(e.value, b.lo_v), b.hi_v) * 100.0 + 0.5)
              AS BIGINT) AS cents
  FROM events e JOIN b USING (event_type) WHERE e.value IS NOT NULL)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(cents) AS BIGINT) AS sum_clipped_c,
       CAST(CASE WHEN sum(cents) >= 0
            THEN (2 * CAST(sum(cents) AS HUGEINT) * 1000000 + count(*))
                 // (2 * count(*))
            ELSE -((2 * CAST(-sum(cents) AS HUGEINT) * 1000000 + count(*))
                 // (2 * count(*))) END AS BIGINT) AS mean_micro_c
FROM c GROUP BY event_type"""


# ------------------------------------------------------------- MAD


def value_mad_by_type(sf_dir: str):
    """Median absolute deviation per event type — the robust scale
    estimate (the winsorized mean's sibling): ``MAD = median(|v −
    median(v)|)``, the spread statistic that one corrupt reading cannot
    move, used to set robust z-score outlier thresholds.

    Composition: TWO passes of the exact refinement kernel — the
    per-type median, broadcast as a tiny dict; then one streaming map
    derives ``|v − med|`` (identical IEEE double subtraction on both
    engines, so the derived order statistic is bit-exact) and the SAME
    kernel selects its median.  No sort, no group on one node.

    Output: ``(event_type, median, mad)`` — both actual column /
    derived values, float64."""
    import ray
    import ray.data

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_type", "value"]).materialize()
    med = _exact_quantiles(ds, "value", (0.5,), group_col="event_type")
    med_by_type = {g: v for (g, _), v in med.items()}
    mref = ray.put(med_by_type)

    def absdev(t: pa.Table) -> pa.Table:
        m = ray.get(mref)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        v = t.column("value").to_numpy()
        keep = ~np.isnan(v)
        et, v = et[keep], v[keep]
        import pandas as pd_

        codes, uniq = pd_.factorize(et, sort=False)
        meds = np.array([m[u] for u in uniq], dtype=np.float64)
        return pa.table({
            "event_type": pa.array(et, pa.string()),
            "absdev": pa.array(np.abs(v - meds[codes]), pa.float64())})

    dev = ds.map_batches(absdev, batch_format="pyarrow").materialize()
    mad = _exact_quantiles(dev, "absdev", (0.5,), group_col="event_type")
    types = sorted(med_by_type)
    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(types, pa.string()),
        "median": pa.array([med_by_type[t] for t in types], pa.float64()),
        "mad": pa.array([mad[(t, 0.5)] for t in types], pa.float64())}))


def value_mad_by_type_sql() -> str:
    return """WITH s AS (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY value) AS r,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM events WHERE value IS NOT NULL),
med AS (
  SELECT event_type,
         max(CASE WHEN r = CAST(ceil(0.5 * n) AS BIGINT)
             THEN value END) AS median
  FROM s GROUP BY event_type),
d AS (
  SELECT e.event_type, abs(e.value - med.median) AS absdev
  FROM events e JOIN med USING (event_type) WHERE e.value IS NOT NULL),
s2 AS (
  SELECT event_type, absdev,
         row_number() OVER (PARTITION BY event_type ORDER BY absdev) AS r,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM d)
SELECT m.event_type, m.median,
       max(CASE WHEN s2.r = CAST(ceil(0.5 * s2.n) AS BIGINT)
           THEN s2.absdev END) AS mad
FROM s2 JOIN med m USING (event_type) GROUP BY 1, 2"""


# ------------------------------------------- session-duration quantiles


SESSION_QS = (0.5, 0.9)

#: the test events are sparse (~1 event/user/11 h), so the default gap
#: here is 12 h — wide enough that sessions span multiple events and the
#: quantiles discriminate; events_sessionized keeps the classic 30 min
SESSION_Q_GAP_US = 12 * 3600 * 1_000_000


def session_duration_quantiles(sf_dir: str, qs=SESSION_QS,
                               gap_us: int = SESSION_Q_GAP_US):
    """Exact quantiles of per-session DURATION (µs) — the engagement
    statistic over the sessionized event stream, and the engine's
    demonstration that the refinement kernel composes over a DERIVED
    table (sessions exist only as a streaming intermediate, never on
    disk).

    Scale shape: ONE ``exchange`` on user_id sessionizes each block with
    :func:`~nativeextractor_ray.pipelines.events._sessions` (the
    :func:`~nativeextractor_ray.pipelines.events.events_sessionized`
    kernel, here with the ``gap_us`` gap) and folds it to per-session
    duration rows; the exact histogram-refinement kernel (R+1 streaming
    scans, no global sort) selects the order statistics.  Durations are
    integer µs, exact in float64.

    Output: ``(q, dur_us)``."""
    import pandas as pd
    import ray.data

    from nativeextractor_ray.pipelines.events import _sessions
    from nativeextractor_ray.sources.tables import read_table, table_nrows

    ds = read_table(sf_dir, "events", ["user_id", "ts"])

    def durations(part: "pd.DataFrame") -> "pd.DataFrame":
        _uid, ts, sess = _sessions(part, gap_us)
        g = pd.DataFrame({"sess": sess, "ts": ts}).groupby(
            "sess", sort=False)["ts"].agg(["min", "max"])
        return pd.DataFrame({
            "dur_us": (g["max"] - g["min"]).to_numpy(np.float64)})

    sessions = exchange(ds, ["user_id"], durations)
    # Under the events metadata bound the per-session durations (≤ one
    # row per session ≤ events) collect ONCE and the exact quantiles are
    # a local sort; above it the Dataset MATERIALIZES before the
    # refinement kernel (the quantile-composition rule: each of the R+1
    # scans would otherwise re-execute the sessionization exchange).
    from nativeextractor_ray.functions.blocks import arrow_blocks

    qs_sorted = sorted(qs)
    if fits(table_nrows(sf_dir, "events"), common.DRIVER_BOUND, 8):
        vs = [t.column("dur_us").to_numpy()
              for t in arrow_blocks(sessions, stream=False)]
        vals = np.sort(np.concatenate(vs)) if vs else \
            np.array([], np.float64)
        n = len(vals)
        # no sessions, no order statistics (the oracle's rank join)
        qs_out = qs_sorted if n else []
        return pa.table({
            "q": pa.array(qs_out, pa.float64()),
            "dur_us": pa.array([float(vals[int(np.ceil(q * n)) - 1])
                                for q in qs_out], pa.float64())})

    sessions = sessions.materialize()
    got = _exact_quantiles(sessions, "dur_us", qs)
    return ray.data.from_arrow(pa.table({
        "q": pa.array(qs_sorted, pa.float64()),
        "dur_us": pa.array([got[("", q)] for q in qs_sorted],
                           pa.float64()),
    }))


def session_duration_quantiles_sql(qs=SESSION_QS,
                                   gap_us: int = SESSION_Q_GAP_US) -> str:
    vals = ", ".join(f"({q})" for q in sorted(qs))
    return f"""WITH m AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
              OR epoch_us(ts) - epoch_us(lag(ts) OVER w)
                 >= {gap_us}
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
s AS (
  SELECT user_id, ts,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) AS sess
  FROM m),
d AS (
  SELECT CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS DOUBLE) AS dur_us
  FROM s GROUP BY user_id, sess),
r AS (
  SELECT dur_us, row_number() OVER (ORDER BY dur_us) AS r,
         count(*) OVER () AS n
  FROM d)
SELECT CAST(q AS DOUBLE) AS q, dur_us
FROM (VALUES {vals}) AS qs(q)
JOIN r ON r.r = CAST(ceil(q * n) AS BIGINT)"""


# --------------------------------------- sampled (approximate) quantiles


SAMPLE_MOD = 4
SAMPLE_QS = (0.5, 0.9, 0.99)


def sampled_value_quantiles(sf_dir: str, qs=SAMPLE_QS,
                            mod: int = SAMPLE_MOD):
    """Approximate quantiles by DETERMINISTIC sampling: exact order
    statistics of the ``md5(event_id) % mod == 0`` sample — the scale
    path when even R+1 full refinement scans are too many (sample once,
    quantile the 1/mod slice).  Unlike a random sample, the md5 gate is
    a pure function of the row, so the result is reproducible, append-
    stable, and EXACTLY replayable in SQL — the error bound is the
    classic sample-quantile one, but the check is exact.

    Scale shape: one streaming sample map (no RNG state, no
    coordination) feeding the exact refinement kernel over the 1/mod
    slice.

    Output: ``(q, value)``."""
    import hashlib

    import ray.data

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_id", "value"])

    def sample(t: pa.Table) -> pa.Table:
        ids = t.column("event_id").to_pylist()
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[8:16],
                            "little") for i in ids),
            np.uint64, count=len(ids))
        keep = (h % mod) == 0
        return pa.table({
            "value": pa.array(t.column("value").to_numpy()[keep],
                              pa.float64())})

    # materialize: the refinement scans must not re-read + re-hash the
    # events table per pass (the quantile-composition rule)
    sampled = ds.map_batches(sample, batch_format="pyarrow").materialize()
    got = _exact_quantiles(sampled, "value", qs)
    qs_sorted = sorted(q for _, q in got)
    return ray.data.from_arrow(pa.table({
        "q": pa.array(qs_sorted, pa.float64()),
        "value": pa.array([got[("", q)] for q in qs_sorted],
                          pa.float64()),
    }))


def sampled_value_quantiles_sql(qs=SAMPLE_QS,
                                mod: int = SAMPLE_MOD) -> str:
    vals = ", ".join(f"({q})" for q in sorted(qs))
    return f"""WITH s AS (
  SELECT value FROM events
  WHERE md5_number_lower(CAST(event_id AS VARCHAR)) % {mod} = 0),
r AS (SELECT value, row_number() OVER (ORDER BY value) AS r,
             count(*) OVER () AS n
      FROM s)
SELECT CAST(q AS DOUBLE) AS q, value
FROM (VALUES {vals}) AS qs(q)
JOIN r ON r.r = CAST(ceil(q * n) AS BIGINT)"""


# ------------------------------------------- conversion latency quantiles


CONVERSION_QS = (0.5, 0.9)


def conversion_latency_quantiles(sf_dir: str, qs=CONVERSION_QS):
    """Exact quantiles of per-user conversion latency — first ``click``
    to first ``purchase`` (µs; negative when the purchase came first) —
    the funnel-health statistic product teams watch.  Users missing
    either event are excluded, SQL-style.

    Scale shape: the :func:`~nativeextractor_ray.pipelines.kg
    .first_response_latency` join-free conditional-min combiner (two
    sentinel-neutral int64 Min partials per user per batch → ONE user
    groupby → streaming subtract/filter) feeding the exact histogram-
    refinement kernel (R+1 streaming scans, no global sort, no group on
    one node).  Output: ``(q, latency_us)``."""
    import pandas as pd
    import ray.data
    from ray.data.aggregate import Min

    from nativeextractor_ray.sources.tables import read_table, table_nrows

    SENT = np.iinfo(np.int64).max

    ds = read_table(sf_dir, "events", ["user_id", "ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        ts = (t.column("ts").to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        typ = t.column("event_type").to_numpy(zero_copy_only=False)
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(uid, sort=False)
        c = np.full(len(uniq), SENT, np.int64)
        p = np.full(len(uniq), SENT, np.int64)
        cm, pm = typ == "click", typ == "purchase"
        np.minimum.at(c, codes[cm], ts[cm])
        np.minimum.at(p, codes[pm], ts[pm])
        return pa.table({"user_id": pa.array(uniq.astype(np.int64)),
                         "c_ts": pa.array(c), "p_ts": pa.array(p)})

    # Gate on the per-user pair table (16 B/user, metadata-estimated by
    # the events row count as the upper bound is unknowable): under the
    # bound the conditional-min partials fold on the driver
    # (np.minimum.at) and the exact quantiles are one local sort —
    # ZERO AllToAll.  Above it the distributed groupby runs and the
    # derived latency Dataset MATERIALIZES before the refinement kernel
    # (without the boundary each of the R+1 scans re-executed the whole
    # user groupby — the quantile-composition rule).
    from nativeextractor_ray.functions.blocks import arrow_blocks

    if fits(table_nrows(sf_dir, "events"), common.DRIVER_BOUND, 16):
        us, cs, ps = [], [], []
        for t in arrow_blocks(
                ds.map_batches(partial, batch_format="pyarrow"),
                stream=False):
            us.append(t.column("user_id").to_numpy())
            cs.append(t.column("c_ts").to_numpy())
            ps.append(t.column("p_ts").to_numpy())
        if us:
            uu, inv = np.unique(np.concatenate(us), return_inverse=True)
            c = np.full(len(uu), SENT, np.int64)
            p = np.full(len(uu), SENT, np.int64)
            np.minimum.at(c, inv, np.concatenate(cs))
            np.minimum.at(p, inv, np.concatenate(ps))
            ok = (c != SENT) & (p != SENT)
            lat_v = np.sort((p[ok] - c[ok]).astype(np.float64))
        else:
            lat_v = np.array([], np.float64)
        n = len(lat_v)
        qs_sorted = sorted(qs)
        vals = [float(lat_v[int(np.ceil(q * n)) - 1]) if n else None
                for q in qs_sorted]
        return pa.table({
            "q": pa.array(qs_sorted, pa.float64()),
            "latency_us": pa.array(vals, pa.float64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("user_id")
           .aggregate(Min("c_ts", alias_name="c_ts"),
                      Min("p_ts", alias_name="p_ts")))

    def resolve(t: pa.Table) -> pa.Table:
        c = t.column("c_ts").to_numpy()
        p = t.column("p_ts").to_numpy()
        ok = (c != SENT) & (p != SENT)
        return pa.table({"lat_us": pa.array(
            (p[ok] - c[ok]).astype(np.float64), pa.float64())})

    # materialize: the refinement kernel scans R+1 times and must not
    # re-execute the user groupby per scan
    lat = agg.map_batches(resolve, batch_format="pyarrow").materialize()
    got = _exact_quantiles(lat, "lat_us", qs)
    qs_sorted = sorted(q for _, q in got)
    return ray.data.from_arrow(pa.table({
        "q": pa.array(qs_sorted, pa.float64()),
        "latency_us": pa.array([got[("", q)] for q in qs_sorted],
                               pa.float64())}))


def conversion_latency_quantiles_sql(qs=CONVERSION_QS) -> str:
    vals = ", ".join(f"({q})" for q in sorted(qs))
    return f"""WITH m AS (
  SELECT user_id,
         min(CASE WHEN event_type = 'click' THEN epoch_us(ts) END) AS c_ts,
         min(CASE WHEN event_type = 'purchase' THEN epoch_us(ts) END) AS p_ts
  FROM events GROUP BY user_id),
d AS (
  SELECT CAST(p_ts - c_ts AS DOUBLE) AS lat_us
  FROM m WHERE c_ts IS NOT NULL AND p_ts IS NOT NULL),
r AS (
  SELECT lat_us, row_number() OVER (ORDER BY lat_us) AS r,
         count(*) OVER () AS n
  FROM d)
SELECT CAST(q AS DOUBLE) AS q, lat_us AS latency_us
FROM (VALUES {vals}) AS qs(q)
JOIN r ON r.r = CAST(ceil(q * n) AS BIGINT)"""


# -------------------------------------- shipping latency by priority


SHIP_QS = (0.5, 0.9)


def ship_latency_quantiles_by_priority(sf_dir: str, qs=SHIP_QS):
    """Exact p50/p90 of shipping latency (days from order date to line
    ship date) per order priority — the SLA report, and the engine's
    demonstration that the grouped refinement kernel composes over a
    JOINED derivation (latency exists on no single table).

    Scale shape: both sides prune to 16-byte key rows; under
    ``common.BROADCAST_BOUND`` the orders side is broadcast and probed,
    above it the two meet in one tagged-union ``exchange`` on orderkey
    (no ``Dataset.join`` aggregator overhead).  Either way per-batch
    (priority, lat_days, n) histograms fold on the driver, which reads
    the order statistics off them: no global sort, and no priority ever
    materializes on one node.

    Output: ``(priority, q, lat_days)``."""
    import pandas as pd
    import ray.data

    from nativeextractor_ray.functions.hashing import sorted_lookup
    from nativeextractor_ray.sources.tables import read_table, table_nrows

    orders = read_table(sf_dir, "orders",
                        ["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def tag_orders(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy()
        day = (t.column("o_orderdate").to_numpy(zero_copy_only=False)
               .astype("datetime64[us]").astype(np.int64)
               // 86_400_000_000)
        return pa.table({
            "k": pa.array(k), "side": pa.array(
                np.zeros(len(k), np.int64)),
            "day": pa.array(day),
            "priority": t.column("o_orderpriority")})

    def tag_lines(t: pa.Table) -> pa.Table:
        k = t.column("l_orderkey").to_numpy()
        day = (t.column("l_shipdate").to_numpy(zero_copy_only=False)
               .astype("datetime64[us]").astype(np.int64)
               // 86_400_000_000)
        return pa.table({
            "k": pa.array(k), "side": pa.array(np.ones(len(k), np.int64)),
            "day": pa.array(day),
            "priority": pa.array([""] * len(k), pa.string())})

    def merge(df: "pd.DataFrame") -> pa.Table:
        o = df[df["side"] == 0].sort_values("k", kind="stable")
        l = df[df["side"] == 1]
        # an inner join, as the oracle's: a line without its order drops
        hit, pos = sorted_lookup(o["k"].to_numpy(), l["k"].to_numpy())
        pos = pos[hit]
        lat = l["day"].to_numpy()[hit] - o["day"].to_numpy()[pos]
        # Arrow out: the quantile kernel reads the Arrow schema
        return pa.table({
            "priority": pa.array(o["priority"].to_numpy(object)[pos],
                                 pa.string()),
            "lat_days": pa.array(lat.astype(np.float64))})

    # Latency is an INTEGER day count with a bounded span (ship − order
    # is days-to-weeks at any corpus size), so the exact per-priority
    # order statistics come from a COUNT-OF-COUNTS fold: per-batch
    # (priority, lat_days, n) partials are bounded by priorities × the
    # latency span — structurally tiny — and one driver rank-walk over
    # the merged histogram selects the value at rank ceil(q·n) exactly.
    # This replaces the R+1 refinement scans entirely (each paid a full
    # pass over the joined derivation).  The join side is gated like the
    # Q5 family: orders broadcast under the metadata bound (lineitem
    # streams, ZERO AllToAll), co-partitioned tagged-union merge above
    # it; a pytest forces the merge path and asserts bit-identity.
    import ray

    from nativeextractor_ray.functions.blocks import arrow_blocks

    def hist_partial(t: pa.Table) -> pa.Table:
        g = (t.group_by(["priority", "lat_days"])
             .aggregate([("lat_days", "count")]))
        return pa.table({
            "priority": g.column("priority"),
            "lat_days": pc.cast(g.column("lat_days"), pa.int64()),
            "n": pc.cast(g.column("lat_days_count"), pa.int64())})

    if fits(table_nrows(sf_dir, "orders"), common.BROADCAST_BOUND, 24):
        oks, odays, oprios = [], [], []
        for t in arrow_blocks(
                orders.map_batches(tag_orders, batch_format="pyarrow"),
                stream=False):
            oks.append(t.column("k").to_numpy())
            odays.append(t.column("day").to_numpy())
            oprios.append(t.column("priority"))
        kk = np.concatenate(oks) if oks else np.array([], np.int64)
        dd = np.concatenate(odays) if odays else np.array([], np.int64)
        pr = (pa.concat_arrays([a.combine_chunks()
                                if isinstance(a, pa.ChunkedArray) else a
                                for a in oprios])
              if oprios else pa.array([], pa.string()))
        prio_dict = pc.dictionary_encode(pr)
        codes = prio_dict.indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        prio_names = prio_dict.dictionary.to_pylist()
        order = np.argsort(kk)
        side = ray.put((kk[order], dd[order], codes[order], prio_names))

        def probe(t: pa.Table) -> pa.Table:
            keys, day, code, names_ = ray.get(side)
            hit, pos = sorted_lookup(keys, t.column("k").to_numpy())
            pos = pos[hit]  # an inner join (see merge)
            lat_ = t.column("day").to_numpy()[hit] - day[pos]
            sub = pa.table({
                "priority": pa.array(
                    [names_[c] for c in code[pos]], pa.string()),
                "lat_days": pa.array(lat_)})
            return hist_partial(sub)

        hist_ds = li.map_batches(tag_lines, batch_format="pyarrow") \
                    .map_batches(probe, batch_format="pyarrow")
    else:
        both = (orders.map_batches(tag_orders, batch_format="pyarrow")
                .union(li.map_batches(tag_lines, batch_format="pyarrow")))
        lat = exchange(both, ["k"], merge)

        def to_hist(t: pa.Table) -> pa.Table:
            return hist_partial(pa.table({
                "priority": t.column("priority"),
                "lat_days": pc.cast(t.column("lat_days"), pa.int64())}))

        hist_ds = lat.map_batches(to_hist, batch_format="pyarrow")

    acc: dict = {}
    for t in arrow_blocks(hist_ds, stream=False):
        for p, l, n in zip(t.column("priority").to_pylist(),
                           t.column("lat_days").to_pylist(),
                           t.column("n").to_pylist()):
            acc[(p, int(l))] = acc.get((p, int(l)), 0) + int(n)
    by_prio: dict = {}
    for (p, l), n in acc.items():
        by_prio.setdefault(p, []).append((l, n))
    out_p, out_q, out_v = [], [], []
    for p in sorted(by_prio):
        pairs = sorted(by_prio[p])
        lats = np.array([l for l, _ in pairs], np.int64)
        cum = np.cumsum([n for _, n in pairs])
        total = int(cum[-1])
        for q in sorted(qs):
            rank = int(np.ceil(q * total))
            v = lats[int(np.searchsorted(cum, rank))]
            out_p.append(p)
            out_q.append(q)
            out_v.append(int(v))
    return pa.table({
        "priority": pa.array(out_p, pa.string()),
        "q": pa.array(out_q, pa.float64()),
        "lat_days": pa.array(out_v, pa.int64())})


def ship_latency_quantiles_by_priority_sql(qs=SHIP_QS) -> str:
    vals = ", ".join(f"({q})" for q in sorted(qs))
    return f"""WITH lat AS (
  SELECT o_orderpriority AS priority,
         epoch_us(l_shipdate) // 86400000000
         - epoch_us(o_orderdate) // 86400000000 AS lat_days
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey),
s AS (
  SELECT priority, lat_days,
         row_number() OVER (PARTITION BY priority ORDER BY lat_days)
           AS r,
         count(*) OVER (PARTITION BY priority) AS n
  FROM lat)
SELECT priority, CAST(q AS DOUBLE) AS q,
       CAST(lat_days AS BIGINT) AS lat_days
FROM (VALUES {vals}) AS qs(q)
JOIN s ON s.r = CAST(ceil(q * n) AS BIGINT)"""
