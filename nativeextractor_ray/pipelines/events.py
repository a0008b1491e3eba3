"""Event-stream operators over the ``events`` table — the windowed /
sessionized aggregates a streaming pipeline needs (the reference engine has
no windowing, SURVEY.md §2.8; these are target-side custom operators built
from map_batches + groupby compositions).

Float discipline for the oracle: ``value`` sums are computed in integer
cents (``round(value*100)``) so Ray and DuckDB agree bit-for-bit regardless
of summation order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.pipelines.common import exchange


def _events(sf_dir: str, columns):
    from nativeextractor_ray.sources.tables import read_table

    return read_table(sf_dir, "events", columns)


def events_windowed(sf_dir: str):
    """Tumbling 1-hour windows per event_type: count + integer-cent sum.

    Shape: per-batch partial aggregate (combiner) → small
    ``groupby(window, event_type)`` rollup — the shuffle moves one row per
    (window, type) per batch, not one per event."""
    from ray.data.aggregate import Sum

    ds = _events(sf_dir, ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        win = pc.floor_temporal(t.column("ts"), unit="hour")
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)), pa.int64())
        tmp = pa.table({
            "window": win,
            "event_type": t.column("event_type"),
            "cents": cents,
            # explicit row counter: count(*) semantics even if value is
            # ever null (pyarrow's ("cents", "count") would skip nulls)
            "one": pa.array(np.ones(len(t), dtype=np.int64)),
        })
        g = tmp.group_by(["window", "event_type"]).aggregate(
            [("cents", "sum"), ("one", "sum")]
        )
        return pa.table({
            "window": g.column("window"),
            "event_type": g.column("event_type"),
            "n": pc.cast(g.column("one_sum"), pa.int64()),
            "value_cents": pc.cast(g.column("cents_sum"), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["window", "event_type"]).aggregate(
        Sum("n", alias_name="n"), Sum("value_cents", alias_name="value_cents")
    )


EVENTS_WINDOWED_SQL = """SELECT date_trunc('hour', ts) AS window, event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM events GROUP BY 1, 2"""


def events_props_stats(sf_dir: str):
    """JSON-props extraction + rollup: pull ``k`` out of the ``props`` JSON
    column with a vectorized RE2 kernel (no per-row json.loads) and
    aggregate per event_type.  Mirrors DuckDB's json_extract in the
    oracle."""
    from ray.data.aggregate import Sum

    ds = _events(sf_dir, ["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        # props schema constraint (asserted by tests/test_trainingdata.py):
        # flat one-level JSON objects, so a top-level '"k":' match is
        # exact $.k semantics; sign handled for negative values.  Nested
        # objects or "k" inside string values would need a real JSON
        # parser — out of scope for the fixture schema.
        k = pc.extract_regex(t.column("props"), r'"k":\s*(?P<k>-?[0-9]+)')
        kv = pc.cast(pc.struct_field(k, "k"), pa.int64())
        tmp = pa.table({
            "event_type": t.column("event_type"),
            "k": kv,
            # count(*) parity: count every row, not just rows where the
            # extraction matched (sum still null-skips, same as SQL sum)
            "one": pa.array(np.ones(len(t), dtype=np.int64)),
        })
        g = tmp.group_by("event_type").aggregate([("k", "sum"), ("one", "sum")])
        return pa.table({
            "event_type": g.column("event_type"),
            "k_sum": pc.cast(g.column("k_sum"), pa.int64()),
            "n": pc.cast(g.column("one_sum"), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("event_type").aggregate(
        Sum("k_sum", alias_name="k_sum"), Sum("n", alias_name="n")
    )


EVENTS_PROPS_SQL = """SELECT event_type,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS k_sum,
       CAST(count(*) AS BIGINT) AS n
FROM events GROUP BY event_type"""


def events_sliding_window(sf_dir: str, size_min: int = 60, hop_min: int = 30):
    """Sliding (hopping) windows: each event lands in size/hop windows
    (flat-map replication per hop, then the same partial-aggregate →
    rollup shape as the tumbling case)."""
    import numpy as np
    from ray.data.aggregate import Sum

    n_hops = size_min // hop_min
    hop_us = hop_min * 60 * 1_000_000

    ds = _events(sf_dir, ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        ts = t.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                        pa.int64()).to_numpy()
        etype = np.asarray(t.column("event_type").to_pylist(), dtype=object)
        base = (ts // hop_us) * hop_us  # latest window start containing ts
        w_out, e_out, c_out = [], [], []
        for k in range(n_hops):
            w_out.append(base - k * hop_us)
            e_out.append(etype)
            c_out.append(cents)
        win = np.concatenate(w_out)
        tmp = pa.table({
            "window": pa.array(win.astype("datetime64[us]")),
            "event_type": pa.array(np.concatenate(e_out).tolist(), pa.string()),
            "cents": pa.array(np.concatenate(c_out)),
            # count(*) semantics even if value is ever null (a ("cents",
            # "count") aggregate would null-skip) — same fix as the
            # tumbling window
            "one": pa.array(np.ones(len(win), dtype=np.int64)),
        })
        g = tmp.group_by(["window", "event_type"]).aggregate(
            [("cents", "sum"), ("one", "sum")]
        )
        return pa.table({
            "window": g.column("window"),
            "event_type": g.column("event_type"),
            "n": pc.cast(g.column("one_sum"), pa.int64()),
            "value_cents": pc.cast(g.column("cents_sum"), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["window", "event_type"]).aggregate(
        Sum("n", alias_name="n"), Sum("value_cents", alias_name="value_cents")
    )


EVENTS_SLIDING_SQL = """WITH hops AS (
  SELECT e.*, make_timestamp((epoch_us(ts) // 1800000000 - h.k) * 1800000000)
         AS "window"
  FROM events e, UNNEST(generate_series(0, 1)) AS h(k)
)
SELECT "window", event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM hops GROUP BY 1, 2"""


SESSION_GAP_US = 30 * 60 * 1_000_000  # 30 min


def _sessions(df, gap_us: int = SESSION_GAP_US):
    """Number the sessions of one user-keyed exchange block, fully
    vectorized: sort by (user, ts); a session starts where the user
    changes or the gap reaches ``gap_us``.  Returns the sorted
    ``(uid, ts_us, sess)`` arrays."""
    df = df.sort_values(["user_id", "ts"], kind="stable")
    uid = df["user_id"].to_numpy()
    ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    starts = np.ones(len(uid), dtype=bool)
    starts[1:] = (uid[1:] != uid[:-1]) | ((ts[1:] - ts[:-1]) >= gap_us)
    return uid, ts, np.cumsum(starts)


def events_sessionized(sf_dir: str):
    """Per-user sessionization (session = burst of events with < 30 min
    gaps): n_sessions, n_events, longest session length.

    ``exchange`` on user_id + in-block sort on (user, ts) — the canonical
    stateful per-key stream operator; user_id cardinality bounds group
    size."""
    import pandas as pd

    ds = _events(sf_dir, ["user_id", "ts"])

    def sessions_part(part: pd.DataFrame) -> pd.DataFrame:
        uid, _ts, sess = _sessions(part)
        df = pd.DataFrame({"user_id": uid, "sess": sess})
        per_sess = df.groupby(["user_id", "sess"], sort=False).size().reset_index(name="n")
        out = (
            per_sess.groupby("user_id", sort=False)
            .agg(n_sessions=("sess", "size"), n_events=("n", "sum"),
                 longest_session_events=("n", "max"))
            .reset_index()
        )
        return out.astype("int64")

    return exchange(ds, ["user_id"], sessions_part)


EVENTS_SESSIONIZED_SQL = f"""WITH o AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   >= INTERVAL {30} MINUTES
              OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events
),
s AS (
  SELECT user_id, ts,
         sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                ROWS UNBOUNDED PRECEDING) AS session_id
  FROM o
),
per AS (
  SELECT user_id, session_id, count(*) AS n FROM s GROUP BY 1, 2
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_sessions,
       CAST(sum(n) AS BIGINT) AS n_events,
       CAST(max(n) AS BIGINT) AS longest_session_events
FROM per GROUP BY user_id"""


# ---------------------------------------------------------------- grouped top-k


TOPK_PER_USER = 3


def top_events_per_user(sf_dir: str, k: int = TOPK_PER_USER):
    """Grouped top-k (each user's k highest-value events, deterministic
    event_id tie-break) with the scale-correct two-level shape: every
    batch REDUCES to at most k rows per user BEFORE the shuffle (top-k is
    associative, like the pre-groupby combines elsewhere), so the
    exchange moves O(users × k) rows instead of every event; each
    user-keyed block then resolves exact ranks with one vectorized
    pandas pass — no per-user UDF calls."""
    import pandas as pd

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_id", "user_id", "value"])
    order = dict(by=["user_id", "value", "event_id"],
                 ascending=[True, False, True], kind="stable")

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(**order)
        top = df.groupby("user_id", sort=False).head(k)
        return pa.Table.from_pandas(top, preserve_index=False)

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(**order)
        out = df.groupby("user_id", sort=False).head(k).copy()
        out["rnk"] = (out.groupby("user_id", sort=False).cumcount() + 1).astype("int64")
        return out.drop(columns=["part"])

    return exchange(ds.map_batches(partial, batch_format="pyarrow"),
                    ["user_id"], resolve)


def top_events_per_user_sql(k: int = TOPK_PER_USER) -> str:
    return f"""SELECT user_id, event_id, value, CAST(rn AS BIGINT) AS rnk
FROM (
  SELECT user_id, event_id, value,
         row_number() OVER (
           PARTITION BY user_id ORDER BY value DESC, event_id
         ) AS rn
  FROM events
) WHERE rn <= {k}"""


# ---------------------------------------------------------------- range join


RANGE_WINDOW_H = 24


def errors_prior_window(sf_dir: str, window_hours: int = RANGE_WINDOW_H):
    """Distributed RANGE JOIN: each error event aggregated against the
    same user's activity in the preceding ``window_hours`` (ts in
    ``[t - W, t)``) — the blast-radius / pre-incident-activity query.

    Partitioning assumption: both roles co-locate with one user_id
    ``exchange`` of (id, ts, cents) rows — never a time-expanded row
    multiplication (the naive interval join emits |left| ×
    window-occupancy rows; this emits |left|).  Each block lexsorts once
    by (user_id, ts) and answers every left row with two vectorized
    ``searchsorted`` probes of (user_id, ts) records against that order
    plus a prefix-sum for the windowed value total.  Money in integer
    cents (float-free oracle hashing)."""
    import pandas as pd

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])
    win_us = np.int64(window_hours) * 3_600_000_000

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "ts": t.column("ts"),
            "is_err": pc.equal(t.column("event_type"), "error"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                             pa.int64()),
        })

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        ts = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        uid = df["user_id"].to_numpy(np.int64)
        order = np.lexsort((ts, uid))
        # (user, ts) records compare field by field, so searchsorted
        # finds a user's window in the one sorted order
        keys = np.rec.fromarrays([uid[order], ts[order]])
        pref = np.concatenate(([0], np.cumsum(df["cents"].to_numpy()[order])))

        em = df["is_err"].to_numpy()
        err = df[em]
        ets = ts[em]
        hi = np.searchsorted(keys, np.rec.fromarrays([uid[em], ets]))
        lo = np.searchsorted(keys, np.rec.fromarrays([uid[em], ets - win_us]))
        return pd.DataFrame({
            "event_id": err["event_id"].to_numpy(),
            "user_id": err["user_id"].to_numpy(),
            "ts": err["ts"].to_numpy(),
            "n_prior": (hi - lo).astype(np.int64),
            "prior_value_cents": (pref[hi] - pref[lo]).astype(np.int64),
        })

    return exchange(ds.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], resolve)


def errors_prior_window_sql(window_hours: int = RANGE_WINDOW_H) -> str:
    return f"""SELECT p.event_id, p.user_id, p.ts,
       CAST(count(c.event_id) AS BIGINT) AS n_prior,
       CAST(coalesce(sum(CAST(round(c.value * 100) AS BIGINT)), 0) AS BIGINT)
         AS prior_value_cents
FROM (SELECT * FROM events WHERE event_type = 'error') p
LEFT JOIN events c
  ON c.user_id = p.user_id
 AND c.ts >= p.ts - INTERVAL {window_hours} HOURS
 AND c.ts < p.ts
GROUP BY 1, 2, 3"""


# ---------------------------------------------------------------- funnel


FUNNEL_STAGES = ("signup", "click", "purchase")


def funnel_counts(sf_dir: str, stages=FUNNEL_STAGES):
    """Ordered funnel analysis: how many users performed stage 1, then
    stage 2 AT OR AFTER their first stage-1 event, then stage 3 at or
    after that, ... — the event-analytics conversion query.

    Scale shape: users co-locate with one user_id ``exchange`` of
    (user_id, event_type, ts) rows; each block resolves its users'
    whole funnel with S vectorized merge+groupby passes (no per-user
    Python) and emits ONE partial row per stage; the driver sums a
    stages × blocks table, so every stage has a row even when no event
    reaches it."""
    import ray.data

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["user_id", "event_type", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("event_type"),
                                 value_set=pa.array(list(stages))))

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        cur = (df[df["event_type"] == stages[0]]
               .groupby("user_id", sort=False)["ts"].min())
        out = [(0, len(cur))]
        for i, st in enumerate(stages[1:], start=1):
            prev = cur.rename("t_prev").reset_index()
            prev.columns = ["user_id", "t_prev"]
            nxt = df[df["event_type"] == st].merge(prev, on="user_id")
            cur = (nxt[nxt["ts"] >= nxt["t_prev"]]
                   .groupby("user_id", sort=False)["ts"].min())
            out.append((i, len(cur)))
        return pa.table({"stage_idx": pa.array([r[0] for r in out], pa.int64()),
                         "n_users": pa.array([r[1] for r in out], pa.int64())})

    n_users = [0] * len(stages)
    for t in arrow_blocks(exchange(ds.map_batches(prep, batch_format="pyarrow"),
                                   ["user_id"], resolve), stream=False):
        for i, n in zip(t.column("stage_idx").to_pylist(),
                        t.column("n_users").to_pylist()):
            n_users[i] += n
    return ray.data.from_arrow(pa.table({
        "stage_idx": pa.array(range(len(stages)), pa.int64()),
        "stage": pa.array(list(stages), pa.string()),
        "n_users": pa.array(n_users, pa.int64())}))


def funnel_counts_sql(stages=FUNNEL_STAGES) -> str:
    ctes, prev = [], None
    for i, st in enumerate(stages, start=1):
        if prev is None:
            ctes.append(
                f"t{i} AS (SELECT user_id, min(ts) AS ts FROM events "
                f"WHERE event_type = '{st}' GROUP BY 1)"
            )
        else:
            ctes.append(
                f"t{i} AS (SELECT e.user_id, min(e.ts) AS ts FROM events e "
                f"JOIN {prev} p ON p.user_id = e.user_id "
                f"WHERE e.event_type = '{st}' AND e.ts >= p.ts GROUP BY 1)"
            )
        prev = f"t{i}"
    rows = ", ".join(
        f"({i}, '{st}', (SELECT count(*) FROM t{i + 1}))"
        for i, st in enumerate(stages)
    )
    return (f"WITH {', '.join(ctes)}\n"
            f"SELECT CAST(stage_idx AS BIGINT) AS stage_idx, stage, "
            f"CAST(n_users AS BIGINT) AS n_users\n"
            f"FROM (VALUES {rows}) v(stage_idx, stage, n_users)")


# --------------------------------------------------------------- outliers

Z_THRESH = 3.0
ZROUND = 4


def value_outliers(sf_dir: str, z: float = Z_THRESH):
    """Per-event-type z-score outliers: events whose ``value`` sits ≥ ``z``
    population standard deviations from its type's mean — the anomaly gate
    a telemetry/curation pipeline runs before training on metric streams.

    Float discipline (the module rule, hardened): moments are accumulated
    as EXACT integers — per-batch partial (n, Σcents, Σcents²) rows per
    type, carried as hi/lo int64 PAIRS (124-bit: Σcents² overflows a
    single int64 from ONE |value| ≥ ~3e7 row) and re-combined in
    arbitrary-precision Python inside a per-type ``map_groups`` so no
    corpus size can overflow them; mean/std then derive from those exact
    integers with the same f64 expression DuckDB evaluates — so the z
    filter and the rounded z column are reproducible bit-for-bit, not
    just to rounding.  Documented bound (loud raise, never a silent
    wrap): |cents| < 2^50 per value and < 2^24 rows per batch.
    Pass 2 is a pure streaming filter with the tiny stats map broadcast
    in the task closure."""
    import ray  # noqa: F401

    ds = _events(sf_dir, ["event_id", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                        pa.int64()).to_numpy()
        codes, uniq = pd.factorize(
            t.column("event_type").to_numpy(zero_copy_only=False))
        mx = int(np.abs(cents).max()) if len(cents) else 0
        if mx >= (1 << 50) or len(cents) >= (1 << 24):
            raise ValueError(
                f"value_outliers: |cents| {mx} / batch rows {len(cents)} "
                "exceed the documented exact-moment bound (2^50 / 2^24) — "
                "rescale the cents unit")
        if mx * mx * max(len(cents), 1) < (1 << 62):
            # fast path: the whole batch's Σcents² provably fits int64
            # (and a fortiori Σcents does) — pure int64 accumulation
            s1v = np.zeros(len(uniq), np.int64)
            s2v = np.zeros(len(uniq), np.int64)
            np.add.at(s1v, codes, cents)
            np.add.at(s2v, codes, cents * cents)
            s1 = [int(v) for v in s1v]
            s2 = [int(v) for v in s2v]
        else:
            # exact big-int path for extreme values (cents² can exceed
            # int64 from a SINGLE |value| ≥ ~3e7 row); within the bound
            # above, |Σc| < 2^74 and Σc² < 2^124 — both fit the hi/lo
            # int64 pair encoding below
            s1, s2 = [], []
            for u in range(len(uniq)):
                vals = [int(c) for c in cents[codes == u]]
                s1.append(sum(vals))
                s2.append(sum(v * v for v in vals))
        n = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        lo_mask = (1 << 62) - 1
        return pa.table({
            "event_type": pa.array(uniq.astype(object), pa.string()),
            # v == (v >> 62 << 62) + (v & mask) exactly, negatives included
            "s1_hi": pa.array([v >> 62 for v in s1], pa.int64()),
            "s1_lo": pa.array([v & lo_mask for v in s1], pa.int64()),
            "s2_hi": pa.array([v >> 62 for v in s2], pa.int64()),
            "s2_lo": pa.array([v & lo_mask for v in s2], pa.int64()),
            "n": pa.array(n),
        })

    def combine(g):
        # exact arbitrary-precision combine INSIDE the (tiny) per-type
        # group — a distributed Sum would overflow int64 on the cents²
        # column at ~10^9 rows/type, and a driver-side combine of raw
        # partials would pull blocks × types rows; this pulls types rows.
        import pandas as pd

        s1 = sum((int(h) << 62) + int(l) for h, l in zip(g["s1_hi"], g["s1_lo"]))
        s2 = sum((int(h) << 62) + int(l) for h, l in zip(g["s2_hi"], g["s2_lo"]))
        n = sum(int(v) for v in g["n"])
        # the EXACT f64 expression the oracle evaluates: mean = s1/n,
        # var = s2/n - mean*mean (deterministic IEEE ops on exact ints)
        mean = float(s1) / float(n)
        var = float(s2) / float(n) - mean * mean
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "mean": [mean],
            "std": [float(np.sqrt(max(var, 0.0)))],
        })

    stats_rows = (ds.map_batches(partial, batch_format="pyarrow")
                  .groupby("event_type")
                  .map_groups(combine, batch_format="pandas")
                  .take_all())  # rows = distinct event types (vocabulary)
    stats = {r["event_type"]: (r["mean"], r["std"]) for r in stats_rows}

    def flag(t: pa.Table) -> pa.Table:
        import pandas as pd

        # factorize + gather: Python touches each DISTINCT type once
        codes, uniq = pd.factorize(
            t.column("event_type").to_numpy(zero_copy_only=False))
        mean = np.array([stats[u][0] for u in uniq])[codes]
        std = np.maximum(np.array([stats[u][1] for u in uniq]), 1e-12)[codes]
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                        pa.int64()).to_numpy().astype(np.float64)
        zv = (cents - mean) / std
        keep = np.abs(zv) >= z
        out = t.filter(pa.array(keep))
        return pa.table({
            "event_id": pc.cast(out.column("event_id"), pa.int64()),
            "event_type": out.column("event_type"),
            "value": out.column("value"),
            "z_score": pa.array(np.round(zv[keep], ZROUND), pa.float64()),
        })

    return ds.map_batches(flag, batch_format="pyarrow")


VALUE_OUTLIERS_SQL = f"""WITH c AS (
  SELECT event_id, event_type, value,
         CAST(CAST(round(value * 100) AS BIGINT) AS DOUBLE) AS cents
  FROM events
), s AS (
  SELECT event_type,
         CAST(count(*) AS DOUBLE) AS n,
         CAST(sum(CAST(cents AS BIGINT)) AS DOUBLE) AS s1,
         CAST(sum(CAST(cents AS BIGINT) * CAST(cents AS BIGINT)) AS DOUBLE) AS s2
  FROM c GROUP BY event_type
), st AS (
  SELECT event_type, s1 / n AS mean,
         sqrt(greatest(s2 / n - (s1 / n) * (s1 / n), 0.0)) AS std
  FROM s
)
SELECT c.event_id, c.event_type, c.value,
       round((c.cents - st.mean) / greatest(st.std, 1e-12), {ZROUND}) AS z_score
FROM c JOIN st USING (event_type)
WHERE abs((c.cents - st.mean) / greatest(st.std, 1e-12)) >= {Z_THRESH}"""


# ------------------------------------------------------------------ pivot


#: the fixed, bounded pivot column set — pivoting on an unbounded key is
#: a schema explosion; a real engine requires the set up front, as here
PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def user_event_pivot(sf_dir: str):
    """Wide pivot: one row per user, one count column per event type plus
    the user's total value in integer cents — the
    ``SUM(CASE WHEN type=t THEN 1 END)`` conditional-aggregation shape.

    Scale shape: per-batch partial pivots (vectorized one-hot via
    ``np.equal.outer``-free column compares) reduce each block to at most
    |users-in-block| rows BEFORE the single user_id groupby; the pivot
    never widens the shuffle beyond |PIVOT_TYPES|+2 int64 columns."""
    import numpy as np
    import pyarrow.compute as pc2
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["user_id", "event_type", "value"])
    count_cols = [f"n_{t}" for t in PIVOT_TYPES]

    def partial(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        cols = {"user_id": t.column("user_id")}
        for typ, cname in zip(PIVOT_TYPES, count_cols):
            cols[cname] = pc2.cast(pc2.equal(et, typ), pa.int64())
        cols["value_c"] = pc2.cast(
            pc2.round(pc2.multiply(t.column("value"), 100.0)), pa.int64())
        tmp = pa.table(cols)
        g = tmp.group_by("user_id").aggregate(
            [(c, "sum") for c in count_cols] + [("value_c", "sum")])
        out = {"user_id": g.column("user_id")}
        for cname in count_cols:
            out[cname] = pc2.cast(g.column(f"{cname}_sum"), pa.int64())
        out["value_c"] = pc2.cast(g.column("value_c_sum"), pa.int64())
        return pa.table(out)

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("user_id")
            .aggregate(*[Sum(c, alias_name=c) for c in count_cols],
                       Sum("value_c", alias_name="value_c")))


def user_event_pivot_sql() -> str:
    legs = ",\n       ".join(
        f"CAST(count(*) FILTER (WHERE event_type = '{t}') AS BIGINT) "
        f"AS n_{t}" for t in PIVOT_TYPES)
    return f"""SELECT user_id,
       {legs},
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_c
FROM events
GROUP BY user_id"""


# ----------------------------------------------- grouped COUNT(DISTINCT)


def daily_active_users(sf_dir: str):
    """Exact distinct users per UTC day — the grouped COUNT(DISTINCT)
    shape (vs. ``hll_users_by_type``'s approximate sketch).

    Scale shape: per-batch (day, user) dedup is the combiner — the
    shuffle moves each (day, user) pair at most once per block, 16
    bytes/row — then ONE composite groupby dedups globally and a
    per-batch recount + tiny day groupby emits the counts.  No distinct
    set ever materializes on one node beyond a (day, user) partition."""
    import pyarrow.compute as pc2
    from ray.data.aggregate import Count, Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["ts", "user_id"])
    us_per_day = 86_400_000_000

    def pairs(t: pa.Table) -> pa.Table:
        day = pc2.cast(t.column("ts"), pa.int64()).to_numpy() // us_per_day
        tmp = pa.table({"day": pa.array(day), "user_id": t.column("user_id")})
        return tmp.group_by(["day", "user_id"]).aggregate([])

    def day_partial(t: pa.Table) -> pa.Table:
        g = (pa.table({"day": t.column("day")})
             .group_by("day").aggregate([([], "count_all")]))
        return pa.table({"day": g.column("day"),
                         "n_users": pc2.cast(g.column("count_all"),
                                             pa.int64())})

    return (ds.map_batches(pairs, batch_format="pyarrow")
            .groupby(["day", "user_id"]).aggregate(Count(alias_name="_c"))
            .map_batches(day_partial, batch_format="pyarrow")
            .groupby("day")
            .aggregate(Sum("n_users", alias_name="n_users")))


def daily_active_users_sql() -> str:
    return """SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events
GROUP BY 1"""


def events_minute_rate(sf_dir: str):
    """Gap-FILLED per-minute event rate — the densified time series a
    monitoring dashboard plots: one row for EVERY minute between the
    corpus's first and last event, zero-filled where nothing happened
    (a plain groupby silently drops empty buckets and hides outages).

    Scale shape: per-batch minute-count Arrow partials → one tiny
    groupby(minute); the fill runs on the driver over the calendar-
    bounded minute range (same bounded-domain argument as
    :func:`~nativeextractor_ray.pipelines.windows.new_users_daily`),
    size-gated so a pathological timestamp span fails loudly.

    Output: ``(minute, n_events)`` — minute as timestamp[us]."""
    import numpy as np
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    US_PER_MIN = 60_000_000
    ds = read_table(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        m = pc.multiply(
            pc.cast(pc.floor(pc.divide(pc.cast(t.column("ts"), pa.int64()),
                                       US_PER_MIN)), pa.int64()),
            US_PER_MIN)
        g = pa.table({"minute_us": m}).group_by("minute_us").aggregate(
            [("minute_us", "count")])
        return pa.table({
            "minute_us": g.column("minute_us"),
            "n_events": pc.cast(g.column("minute_us_count"), pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("minute_us").aggregate(Sum("n_events",
                                               alias_name="n_events")))
    parts = [t for t in arrow_blocks(agg) if t.num_rows]
    if not parts:
        return ray.data.from_arrow(pa.table({
            "minute": pa.array([], pa.timestamp("us")),
            "n_events": pa.array([], pa.int64())}))
    tbl = pa.concat_tables(parts)
    mins = tbl.column("minute_us").to_numpy()
    cnt = tbl.column("n_events").to_numpy()
    lo, hi = int(mins.min()), int(mins.max())
    span = (hi - lo) // US_PER_MIN + 1
    if span > 10_000_000:  # ~19 years of minutes — corrupt timestamps
        raise ValueError(
            f"events_minute_rate: {span} minute buckets between min and "
            "max ts — timestamp span too wide to densify; clean the data")
    full = np.zeros(span, dtype=np.int64)
    full[(mins - lo) // US_PER_MIN] = cnt
    minutes = lo + np.arange(span, dtype=np.int64) * US_PER_MIN
    out = pa.table({
        "minute": pa.array(minutes.view("datetime64[us]")),
        "n_events": pa.array(full, pa.int64())})
    CHUNK = 65536
    return ray.data.from_arrow(
        [out.slice(i, CHUNK) for i in range(0, out.num_rows, CHUNK)] or [out])


EVENTS_MINUTE_RATE_SQL = """WITH b AS (
  SELECT CAST(min(date_trunc('minute', ts)) AS TIMESTAMP) AS lo,
         CAST(max(date_trunc('minute', ts)) AS TIMESTAMP) AS hi
  FROM events),
g AS (SELECT unnest(generate_series(lo, hi, INTERVAL 1 MINUTE)) AS minute
      FROM b),
c AS (SELECT CAST(date_trunc('minute', ts) AS TIMESTAMP) AS minute,
             CAST(count(*) AS BIGINT) AS n
      FROM events GROUP BY 1)
SELECT g.minute, CAST(coalesce(c.n, 0) AS BIGINT) AS n_events
FROM g LEFT JOIN c USING (minute)"""


# ------------------------------------------------ audience set algebra


OVERLAP_TYPE_A = "purchase"
OVERLAP_TYPE_B = "click"


def audience_overlap(sf_dir: str, type_a: str = OVERLAP_TYPE_A,
                     type_b: str = OVERLAP_TYPE_B):
    """Set algebra over user audiences — the INTERSECT / EXCEPT shape:
    how many distinct users did ``type_a`` only, ``type_b`` only, or
    BOTH.  The relational form is two DISTINCT sets composed with
    INTERSECT and EXCEPT; the distributed form never builds either set
    globally.

    Scale shape: per-batch partials collapse each block to DISTINCT
    ``(user_id, saw_a, saw_b)`` bool-max rows (the daily_active_users
    combiner — the only thing that ever shuffles is one row per user
    per block with two booleans); ONE user_id groupby Max-merges the
    flags; the venn rollup then folds to ≤ 3 partial rows per block and
    one tiny final groupby.  Nothing lands on the driver.

    Output: ``(segment, n_users)`` with segments ``a_only`` /
    ``b_only`` / ``both`` (zero-user segments omitted, like the
    oracle's UNION of non-empty legs)."""
    from ray.data.aggregate import Max, Sum

    ev = _events(sf_dir, ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        et = t.column("event_type")
        m = pc.or_(pc.equal(et, type_a), pc.equal(et, type_b))
        t = t.filter(m)
        df = pd.DataFrame({
            "user_id": t.column("user_id").to_pandas(),
            "saw_a": pc.equal(t.column("event_type"),
                              type_a).to_pandas().to_numpy(),
            "saw_b": pc.equal(t.column("event_type"),
                              type_b).to_pandas().to_numpy(),
        })
        g = df.groupby("user_id", sort=False).agg(
            saw_a=("saw_a", "max"), saw_b=("saw_b", "max")).reset_index()
        return pa.table({
            "user_id": pa.array(g["user_id"]),
            "saw_a": pa.array(g["saw_a"].to_numpy(np.int64)),
            "saw_b": pa.array(g["saw_b"].to_numpy(np.int64)),
        })

    flags = (ev.map_batches(partial, batch_format="pyarrow")
             .groupby("user_id")
             .aggregate(Max("saw_a", alias_name="saw_a"),
                        Max("saw_b", alias_name="saw_b")))

    def venn(t: pa.Table) -> pa.Table:
        a = t.column("saw_a").to_numpy().astype(bool)
        b = t.column("saw_b").to_numpy().astype(bool)
        segs, ns = [], []
        for name, mask in (("a_only", a & ~b), ("b_only", ~a & b),
                           ("both", a & b)):
            n = int(mask.sum())
            if n:
                segs.append(name)
                ns.append(n)
        return pa.table({"segment": pa.array(segs, pa.string()),
                         "n_users": pa.array(ns, pa.int64())})

    return (flags.map_batches(venn, batch_format="pyarrow")
            .groupby("segment")
            .aggregate(Sum("n_users", alias_name="n_users")))


def audience_overlap_sql(type_a: str = OVERLAP_TYPE_A,
                         type_b: str = OVERLAP_TYPE_B) -> str:
    return f"""WITH a AS (SELECT DISTINCT user_id FROM events
           WHERE event_type = '{type_a}'),
b AS (SELECT DISTINCT user_id FROM events
      WHERE event_type = '{type_b}'),
legs AS (
  SELECT 'a_only' AS segment, CAST(count(*) AS BIGINT) AS n_users
  FROM (SELECT user_id FROM a EXCEPT SELECT user_id FROM b)
  UNION ALL
  SELECT 'b_only', CAST(count(*) AS BIGINT)
  FROM (SELECT user_id FROM b EXCEPT SELECT user_id FROM a)
  UNION ALL
  SELECT 'both', CAST(count(*) AS BIGINT)
  FROM (SELECT user_id FROM a INTERSECT SELECT user_id FROM b))
SELECT segment, n_users FROM legs WHERE n_users > 0"""


# ------------------------------------------------------- retention cohorts


def retention_cohorts(sf_dir: str):
    """Cohort retention matrix: users are cohorted by their FIRST active
    day; for every (cohort day, day offset) the number of cohort users
    active again ``offset`` days later — the growth-analytics staple
    (offset 0 row = cohort size).

    Scale shape: per-batch DISTINCT ``(user, day)`` partials (Arrow
    group_by dedup — 16-byte rows, never payloads) → ONE
    ``hash(user)`` co-partition so every user's day set is local →
    per-partition vectorized cohort (= grouped min) + offset expansion
    folds to ≤ days² count partials per partition → a tiny final
    groupby.  The (user, day) dedup inside each partition is globally
    exact because a user lands in exactly one partition.

    Output: ``(cohort_day, day_offset, n_users)``."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        days = (t.column("ts").to_numpy().astype("datetime64[D]")
                .astype(np.int64))
        return pa.table({
            "user_id": t.column("user_id"),
            "day": pa.array(days, pa.int64()),
        }).group_by(["user_id", "day"]).aggregate([])

    def fold(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.drop_duplicates(["user_id", "day"])
        cohort = df.groupby("user_id", sort=False)["day"].transform("min")
        out = pd.DataFrame({
            "cohort": cohort.to_numpy(np.int64),
            "off": df["day"].to_numpy(np.int64)
            - cohort.to_numpy(np.int64)})
        g = (out.groupby(["cohort", "off"], sort=False).size()
             .reset_index(name="n"))
        return pd.DataFrame({
            "cohort_day": np.datetime_as_string(
                g["cohort"].to_numpy("datetime64[D]"), unit="D"),
            "day_offset": g["off"].to_numpy(np.int64),
            "n_users": g["n"].to_numpy(np.int64)})

    return (exchange(ds.map_batches(partial, batch_format="pyarrow"),
                     ["user_id"], fold)
            .groupby(["cohort_day", "day_offset"])
            .aggregate(Sum("n_users", alias_name="n_users")))


def retention_cohorts_sql() -> str:
    return """WITH ud AS (
  SELECT DISTINCT user_id, CAST(ts AS DATE) AS day FROM events),
c AS (SELECT user_id, min(day) AS cohort FROM ud GROUP BY user_id)
SELECT strftime(c.cohort, '%Y-%m-%d') AS cohort_day,
       CAST(datediff('day', c.cohort, ud.day) AS BIGINT) AS day_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM ud JOIN c USING (user_id)
GROUP BY 1, 2"""


# -------------------------------------------------- event-type affinity


def event_type_affinity(sf_dir: str):
    """Market-basket pair support over users: for every unordered pair
    of event types, how many DISTINCT users triggered both — the
    level-2 A-priori itemset count that seeds recommendation and
    anomaly ("users who X also Y") analyses.

    Scale shape: per-batch DISTINCT (user, type) partials (Arrow
    group_by dedup, 16-byte-ish rows) → ONE ``hash(user)``
    co-partition so every user's type set is local → per-partition
    vectorized pair expansion (≤ |types|² combinations per user, types
    is a tiny closed set) folds to ≤ |types|² count partials per
    partition → a tiny final groupby.  The in-partition dedup is
    globally exact because a user lands in exactly one partition.

    Output: ``(type_a, type_b, n_users)`` with type_a < type_b."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by(["user_id", "event_type"]).aggregate([])

    def pairs(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.drop_duplicates(["user_id", "event_type"])
        # |types| is a closed tiny set: pair space is types², counted
        # via one merge per partition rather than per-user loops
        m = df.merge(df, on="user_id")
        m = m[m["event_type_x"] < m["event_type_y"]]
        g = (m.groupby(["event_type_x", "event_type_y"], sort=False)
             .size().reset_index(name="n"))
        return pd.DataFrame({
            "type_a": g["event_type_x"].astype(str),
            "type_b": g["event_type_y"].astype(str),
            "n_users": g["n"].to_numpy(np.int64)})

    return (exchange(ds.map_batches(partial, batch_format="pyarrow"),
                     ["user_id"], pairs)
            .groupby(["type_a", "type_b"])
            .aggregate(Sum("n_users", alias_name="n_users")))


def event_type_affinity_sql() -> str:
    return """WITH ut AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(count(*) AS BIGINT) AS n_users
FROM ut a JOIN ut b ON a.user_id = b.user_id
                   AND a.event_type < b.event_type
GROUP BY 1, 2"""


# ------------------------------------------- per-type value correlations


def value_correlations(sf_dir: str):
    """Pearson correlation between event types' DAILY value sums — the
    metric-coupling audit ("do purchases track clicks?") over the event
    stream.  All moments accumulate as EXACT integer cents; only the
    final textbook formula runs in doubles, with the identical
    expression on both engines (the ``percentiles_cont`` float-parity
    convention), rounded to 6 dp.

    Scale shape: per-batch (type, day, cents) partials → one tiny
    (types × days)-bounded groupby → the pair moments fold on the
    driver over that calendar-bounded table — no per-event data ever
    co-locates.

    Output: ``(type_a, type_b, n_days, corr)`` for days where BOTH
    types have a sum (inner day join), type_a < type_b."""
    import math

    from ray.data.aggregate import Sum

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        day = (t.column("ts").to_numpy().astype("datetime64[D]")
               .astype(np.int64))
        cents = np.floor(t.column("value").to_numpy() * 100.0
                         + 0.5).astype(np.int64)
        g = pa.table({
            "event_type": t.column("event_type"),
            "day": pa.array(day, pa.int64()),
            "v": pa.array(cents, pa.int64()),
        }).group_by(["event_type", "day"]).aggregate([("v", "sum")])
        return pa.table({"event_type": g.column("event_type"),
                         "day": g.column("day"),
                         "v": g.column("v_sum")})

    per_day = (ds.map_batches(partial, batch_format="pyarrow")
               .groupby(["event_type", "day"])
               .aggregate(Sum("v", alias_name="v")))

    series: dict[str, dict[int, int]] = {}
    for t in arrow_blocks(per_day, stream=False):
        for ty, d, v in zip(t.column("event_type").to_pylist(),
                            t.column("day").to_numpy(),
                            t.column("v").to_numpy()):
            series.setdefault(ty, {})[int(d)] = int(v)

    types = sorted(series)
    ta, tb, ns, cs = [], [], [], []
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            days = sorted(set(series[a]) & set(series[b]))
            n = len(days)
            if n < 2:
                continue
            x = [series[a][d] for d in days]
            y = [series[b][d] for d in days]
            sx, sy = sum(x), sum(y)
            sxx = sum(v * v for v in x)
            syy = sum(v * v for v in y)
            sxy = sum(u * v for u, v in zip(x, y))
            den2 = (n * sxx - sx * sx) * (n * syy - sy * sy)
            if den2 <= 0:
                continue
            corr = (n * sxy - sx * sy) / math.sqrt(den2)
            ta.append(a)
            tb.append(b)
            ns.append(n)
            cs.append(round(corr, 6))
    return pa.table({
        "type_a": pa.array(ta, pa.string()),
        "type_b": pa.array(tb, pa.string()),
        "n_days": pa.array(ns, pa.int64()),
        "corr": pa.array(cs, pa.float64()),
    })


def value_correlations_sql() -> str:
    return """WITH d AS (
  SELECT event_type, CAST(ts AS DATE) AS day,
         CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
           AS v
  FROM events GROUP BY 1, 2),
p AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         CAST(count(*) AS BIGINT) AS n_days,
         CAST(count(*) AS HUGEINT) AS n,
         sum(CAST(a.v AS HUGEINT)) AS sx, sum(CAST(b.v AS HUGEINT)) AS sy,
         sum(CAST(a.v AS HUGEINT) * a.v) AS sxx,
         sum(CAST(b.v AS HUGEINT) * b.v) AS syy,
         sum(CAST(a.v AS HUGEINT) * b.v) AS sxy
  FROM d a JOIN d b ON a.day = b.day AND a.event_type < b.event_type
  GROUP BY 1, 2)
SELECT type_a, type_b, n_days,
       round(CAST(n * sxy - sx * sy AS DOUBLE)
             / sqrt(CAST((n * sxx - sx * sx) * (n * syy - sy * sy)
                         AS DOUBLE)), 6) AS corr
FROM p
WHERE n_days >= 2 AND (n * sxx - sx * sx) * (n * syy - sy * sy) > 0"""


# ------------------------------------------------- sweep-line concurrency


def peak_concurrency(sf_dir: str):
    """Peak number of simultaneously-active sessions across the whole
    event stream, plus the first instant it is reached — the capacity-
    planning statistic (how many concurrent agent sessions must the
    serving fleet hold?).  A session is the same 30-min-gap burst as
    :func:`events_sessionized`; it is active on the closed interval
    ``[min ts, max ts]`` of its events.

    This is the classic SWEEP-LINE over interval endpoints, and the
    running maximum of a ±1 stream is a GLOBAL prefix computation — the
    one shape that genuinely needs a total order.  Scale shape:

    1. session bounds from ONE hash(user) co-partition (vectorized, the
       sessionization kernel) — each session folds to two 32-byte
       endpoint rows, so the sweep input is O(sessions), not O(events);
    2. one narrow sort shuffle establishes the (ts, delta DESC) total
       order — starts sort before ends at the same instant (sessions are
       CLOSED intervals, active through their last event), so two
       sessions touching at a point DO count as concurrent;
    3. the pack_sequences two-pass prefix: per sorted block, ONE partial
       row (first key, block sum, local max-prefix, first ts attaining
       it) goes to the driver; running offsets make every local max a
       global candidate — ``global_max = max(offset_b + lmax_b)`` and the
       first block attaining it holds the first instant (any earlier
       block's prefix there would exceed its own local max, impossible).

    Output: one row ``(peak_sessions, first_peak_us)``."""
    import ray

    ds = _events(sf_dir, ["user_id", "ts"])

    def bounds_part(part: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        uid, ts, sess = _sessions(part)
        df = pd.DataFrame({"user_id": uid, "sess": sess, "ts": ts})
        b = (df.groupby(["user_id", "sess"], sort=False)["ts"]
             .agg(["min", "max"]).reset_index())
        return pd.DataFrame({
            "user_id": b["user_id"].to_numpy(np.int64),
            "sess": b["sess"].to_numpy(np.int64),
            "st": b["min"].to_numpy(np.int64),
            "en": b["max"].to_numpy(np.int64)})

    def endpoints(t: pa.Table) -> pa.Table:
        st = t.column("st").to_numpy(zero_copy_only=False)
        en = t.column("en").to_numpy(zero_copy_only=False)
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        sess = t.column("sess").to_numpy(zero_copy_only=False)
        return pa.table({
            "tu": pa.array(np.concatenate([st, en])),
            "delta": pa.array(np.concatenate(
                [np.ones(len(st), np.int64), -np.ones(len(en), np.int64)])),
            "uid": pa.array(np.concatenate([uid, uid])),
            "sess": pa.array(np.concatenate([sess, sess]))})

    ordered = (exchange(ds, ["user_id"], bounds_part)
               .map_batches(endpoints, batch_format="pyarrow")
               .sort(["tu", "delta", "uid", "sess"],
                     descending=[False, True, False, False]).materialize())

    def block_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"k0": pa.array([], pa.int64()),
                             "k1": pa.array([], pa.int64()),
                             "k2": pa.array([], pa.int64()),
                             "k3": pa.array([], pa.int64()),
                             "total": pa.array([], pa.int64()),
                             "lmax": pa.array([], pa.int64()),
                             "lmax_ts": pa.array([], pa.int64())})
        d = t.column("delta").to_numpy(zero_copy_only=False)
        tu = t.column("tu").to_numpy(zero_copy_only=False)
        pref = np.cumsum(d)
        lmax = int(pref.max())
        first = int(np.argmax(pref == lmax))
        return pa.table({
            "k0": pa.array([int(tu[0])], pa.int64()),
            "k1": pa.array([int(d[0])], pa.int64()),
            "k2": pa.array([int(t.column("uid")[0].as_py())], pa.int64()),
            "k3": pa.array([int(t.column("sess")[0].as_py())], pa.int64()),
            "total": pa.array([int(pref[-1])], pa.int64()),
            "lmax": pa.array([lmax], pa.int64()),
            "lmax_ts": pa.array([int(tu[first])], pa.int64())})

    partials = sorted(
        ((r["k0"], -r["k1"], r["k2"], r["k3"]),
         r["total"], r["lmax"], r["lmax_ts"])
        for r in ordered.map_batches(block_partial, batch_format="pyarrow",
                                     batch_size=None).take_all())
    peak, peak_ts, acc = None, None, 0
    for _key, total, lmax, lmax_ts in partials:
        cand = acc + lmax
        if peak is None or cand > peak:
            peak, peak_ts = cand, lmax_ts
        acc += total
    # empty events: peak is None, the oracle's max-over-empty (NULL, NULL)
    return pa.table({"peak_sessions": pa.array([peak], pa.int64()),
                     "first_peak_us": pa.array([peak_ts], pa.int64())})


def peak_concurrency_sql() -> str:
    return """WITH o AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   >= INTERVAL 30 MINUTES
              OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_session
  FROM events),
s AS (
  SELECT user_id, ts,
         sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                                ROWS UNBOUNDED PRECEDING) AS session_id
  FROM o),
b AS (
  SELECT user_id, session_id, epoch_us(min(ts)) AS st, epoch_us(max(ts)) AS en
  FROM s GROUP BY 1, 2),
d AS (
  SELECT st AS tu, 1 AS delta FROM b
  UNION ALL
  SELECT en AS tu, -1 AS delta FROM b),
run AS (
  SELECT tu, sum(delta) OVER (ORDER BY tu, delta DESC
                              ROWS UNBOUNDED PRECEDING) AS c
  FROM d)
SELECT CAST((SELECT max(c) FROM run) AS BIGINT) AS peak_sessions,
       CAST((SELECT min(tu) FROM run
             WHERE c = (SELECT max(c) FROM run)) AS BIGINT) AS first_peak_us"""


# ------------------------------------------------------- modal value


def modal_value_by_type(sf_dir: str):
    """Per-event-type MODE of the value (integer cents): the most
    frequent amount, ties resolved to the smallest — the 'default price
    point' detector for billing audits.

    Scale shape: per-batch (type, cents) Arrow count partials → ONE
    composite groupby makes counts exact → per-type argmax resolves in a
    types-bounded pandas pass.  Output: ``(event_type, cents, n)``."""
    import pandas as pd

    from ray.data.aggregate import Sum

    ds = _events(sf_dir, ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            t.column("value"), 100.0), 0.5)), pa.int64())
        g = (pa.table({"event_type": t.column("event_type"),
                       "cents": cents})
             .group_by(["event_type", "cents"])
             .aggregate([("cents", "count")]))
        return pa.table({"event_type": g.column("event_type"),
                         "cents": g.column("cents"),
                         "n": pc.cast(g.column("cents_count"), pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(["event_type", "cents"])
              .aggregate(Sum("n", alias_name="n")))

    def argmax(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["n", "cents"], ascending=[False, True],
                            kind="stable")
        return df.head(1)[["event_type", "cents", "n"]]

    return counts.groupby("event_type").map_groups(
        argmax, batch_format="pandas")


def modal_value_by_type_sql() -> str:
    return """WITH c AS (
  SELECT event_type,
         CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS cents,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2),
r AS (
  SELECT event_type, cents, n,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY n DESC, cents ASC) AS rn
  FROM c)
SELECT event_type, cents, n FROM r WHERE rn = 1"""


# -------------------------------------------------- equi-width histogram


HIST_BINS = 20


def value_histogram(sf_dir: str, n_bins: int = HIST_BINS):
    """Global equi-width histogram of event value (integer cents) — the
    distribution sketch dashboards draw.  Two streaming passes, zero
    shuffle: pass 1 folds each block to one (min, max) partial; pass 2
    computes every row's bin with the EXACT integer formula
    ``(c - min_c) * n_bins // (max_c - min_c + 1)`` (no float widths, so
    the bin edges cannot disagree between engines) and folds each block
    to ≤ n_bins count partials.

    Output: ``(bin, lo_c, hi_c, n)`` — closed-open integer edges, empty
    bins omitted (SQL GROUP BY semantics)."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    ds = _events(sf_dir, ["value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({"c": pc.cast(pc.floor(pc.add(pc.multiply(
            t.column("value"), 100.0), 0.5)), pa.int64())})

    cds = ds.map_batches(cents, batch_format="pyarrow")

    def minmax(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        return pa.table({"lo": pa.array([pc.min(t.column("c")).as_py()]),
                         "hi": pa.array([pc.max(t.column("c")).as_py()])})

    lo, hi = None, None
    for r in cds.map_batches(minmax, batch_format="pyarrow").take_all():
        lo = r["lo"] if lo is None else min(lo, r["lo"])
        hi = r["hi"] if hi is None else max(hi, r["hi"])
    if lo is None:
        return pd.DataFrame({"bin": pd.Series([], dtype="int64"),
                             "lo_c": pd.Series([], dtype="int64"),
                             "hi_c": pd.Series([], dtype="int64"),
                             "n": pd.Series([], dtype="int64")})
    span = hi - lo + 1
    # (c - lo) * n_bins runs in int64; an extreme cents span would wrap
    # SILENTLY in numpy (DuckDB's checked BIGINT would raise instead, so
    # engine and oracle would fail differently).  Documented bound — loud
    # raise, never a silent misbin (the events_minute_rate convention).
    if (span - 1) * n_bins >= (1 << 63):
        raise ValueError(
            f"value_histogram: cents span {span} * {n_bins} bins would "
            "overflow int64 bin math; rescale the value column first")

    def bins(t: pa.Table) -> pa.Table:
        c = t.column("c").to_numpy()
        b = (c - lo) * n_bins // span
        cnt = np.bincount(b, minlength=n_bins)
        nz = np.nonzero(cnt)[0]
        return pa.table({"bin": pa.array(nz.astype(np.int64)),
                         "n": pa.array(cnt[nz].astype(np.int64))})

    agg = cds.map_batches(bins, batch_format="pyarrow").groupby(
        "bin").aggregate(Sum("n", alias_name="n"))

    def edges(t: pa.Table) -> pa.Table:
        b = t.column("bin").to_numpy()
        # bin k covers cents c with (c-lo)·n_bins // span == k:
        # lo_c = lo + ceil(k·span / n_bins), hi_c = lo + ceil((k+1)·span
        # / n_bins) - 1 (exact integer edges)
        lo_c = lo + (b * span + n_bins - 1) // n_bins
        hi_c = lo + ((b + 1) * span + n_bins - 1) // n_bins - 1
        return pa.table({"bin": t.column("bin"),
                         "lo_c": pa.array(lo_c.astype(np.int64)),
                         "hi_c": pa.array(hi_c.astype(np.int64)),
                         "n": t.column("n")})

    return agg.map_batches(edges, batch_format="pyarrow")


def value_histogram_sql(n_bins: int = HIST_BINS) -> str:
    return f"""WITH c AS (
  SELECT CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS c FROM events),
mm AS (SELECT min(c) AS lo, max(c) - min(c) + 1 AS span FROM c),
b AS (
  SELECT (c.c - mm.lo) * {n_bins} // mm.span AS bin,
         mm.lo AS lo, mm.span AS span
  FROM c, mm)
SELECT bin,
       CAST(lo + (bin * span + {n_bins} - 1) // {n_bins} AS BIGINT) AS lo_c,
       CAST(lo + ((bin + 1) * span + {n_bins} - 1) // {n_bins} - 1
            AS BIGINT) AS hi_c,
       CAST(count(*) AS BIGINT) AS n
FROM b GROUP BY bin, lo, span"""


# --------------------------------------------------- per-type OLS trend


def daily_trend_by_type(sf_dir: str):
    """Per-event-type OLS slope of DAILY revenue (cents/day) over the
    epoch-day axis — the trend line a metrics dashboard fits; positive
    slope = growing spend.  Types with < 2 distinct days are excluded
    (slope undefined), ties to ``value_correlations``' moment discipline:
    all five moments are EXACT integers (epoch days × integer cents), the
    slope is one identical double expression on both engines, rounded to
    6 dp.

    Scale shape: per-batch (type, day) cent partials → one (type, day)
    groupby → per-type exact moment fold (days are calendar-bounded) →
    slope arithmetic on a types-bounded table.  Output:
    ``(event_type, n_days, slope)``."""
    import pandas as pd

    from ray.data.aggregate import Sum

    ds = _events(sf_dir, ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor(pc.divide(pc.cast(
            t.column("ts"), pa.int64()), 86_400_000_000)), pa.int64())
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            t.column("value"), 100.0), 0.5)), pa.int64())
        g = (pa.table({"event_type": t.column("event_type"),
                       "day": day, "v": cents})
             .group_by(["event_type", "day"]).aggregate([("v", "sum")]))
        return pa.table({"event_type": g.column("event_type"),
                         "day": g.column("day"),
                         "v": pc.cast(g.column("v_sum"), pa.int64())})

    daily = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(["event_type", "day"])
             .aggregate(Sum("v", alias_name="v")))

    def slope(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) < 2:
            return pd.DataFrame({"event_type": [], "n_days": [],
                                 "slope": []})
        x = [int(v) for v in df["day"]]
        y = [int(v) for v in df["v"]]
        n = len(x)
        sx, sy = sum(x), sum(y)
        sxx = sum(a * a for a in x)
        sxy = sum(a * b for a, b in zip(x, y))
        den = n * sxx - sx * sx
        if den == 0:
            return pd.DataFrame({"event_type": [], "n_days": [],
                                 "slope": []})
        num = n * sxy - sx * sy
        return pd.DataFrame({
            "event_type": [df["event_type"].iloc[0]],
            "n_days": np.array([n], np.int64),
            "slope": [round(float(num) / float(den), 6)]})

    return daily.groupby("event_type").map_groups(
        slope, batch_format="pandas")


def daily_trend_by_type_sql() -> str:
    return """WITH d AS (
  SELECT event_type,
         epoch_us(ts) // 86400000000 AS day,
         CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
           AS v
  FROM events GROUP BY 1, 2),
m AS (
  SELECT event_type,
         CAST(count(*) AS BIGINT) AS n_days,
         CAST(count(*) AS HUGEINT) AS n,
         sum(CAST(day AS HUGEINT)) AS sx,
         sum(CAST(v AS HUGEINT)) AS sy,
         sum(CAST(day AS HUGEINT) * day) AS sxx,
         sum(CAST(day AS HUGEINT) * v) AS sxy
  FROM d GROUP BY 1)
SELECT event_type, n_days,
       round(CAST(n * sxy - sx * sy AS DOUBLE)
             / CAST(n * sxx - sx * sx AS DOUBLE), 6) AS slope
FROM m
WHERE n_days >= 2 AND n * sxx - sx * sx <> 0"""


# ------------------------------------------------ rolling distinct users


WAU_WINDOW = 7


def weekly_active_users(sf_dir: str, window: int = WAU_WINDOW):
    """EXACT rolling 7-day active users per event type — the WAU curve
    (for each day: distinct users with ≥1 event in the trailing window).
    Distinct-over-a-window does not decompose like a sum, so the shape
    is interval COVERAGE: each distinct (type, user, active-day) covers
    the ``window`` window-end days it contributes to; exploding coverage
    BEFORE the dedup keeps everything 24-byte rows and bounds the blowup
    at ×window.

    Scale shape: per-batch distinct (type, user, day) partials → range
    explosion (day .. day+window−1) → per-batch dedup again → ONE
    hash(user) co-partition dedups (type, user, window_day) globally and
    folds to per-(type, window_day) count partials → tiny final groupby.
    Window days past the calendar edge are clipped SQL-side identically.

    Output: ``(event_type, window_day, n_users)`` — window_day is the
    epoch-day the window ENDS on, restricted to days with data."""
    import pandas as pd

    from ray.data.aggregate import Sum

    ds = _events(sf_dir, ["user_id", "ts", "event_type"])

    def cover(t: pa.Table) -> pa.Table:
        ts = (t.column("ts").to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        day = ts // 86_400_000_000
        df = pd.DataFrame({
            "event_type": t.column("event_type").to_numpy(
                zero_copy_only=False),
            "user_id": t.column("user_id").to_numpy(zero_copy_only=False),
            "day": day}).drop_duplicates()
        n = len(df)
        rep = df.loc[df.index.repeat(window)]
        off = np.tile(np.arange(window), n)
        rep = rep.assign(window_day=rep["day"].to_numpy() + off)
        rep = rep.drop(columns=["day"]).drop_duplicates()
        return pa.Table.from_pandas(rep, preserve_index=False)

    def dedup_count(df: "pd.DataFrame") -> "pd.DataFrame":
        ded = df.drop_duplicates(["event_type", "user_id", "window_day"])
        g = (ded.groupby(["event_type", "window_day"], sort=False)
             .size().reset_index(name="n_users"))
        g["n_users"] = g["n_users"].astype("int64")
        return g

    # finish: the per-partition (type, window_day) partials are
    # calendar-bounded (≤ types × days rows each), so they fold on the
    # driver instead of a second AllToAll (the Q21 lesson); the
    # observed-days scan is an independent leg and overlaps the main
    # co-partition from a second driver thread (the hll_users_by_type
    # convention — its ~0.5 s otherwise runs back-to-back)
    from concurrent.futures import ThreadPoolExecutor

    from nativeextractor_ray.functions.blocks import arrow_blocks

    def day_partial(t: pa.Table) -> pa.Table:
        ts = (t.column("ts").to_numpy(zero_copy_only=False)
              .astype("datetime64[us]").astype(np.int64))
        u = np.unique(ts // 86_400_000_000)
        return pa.table({"day": pa.array(u)})

    def collect_days() -> np.ndarray:
        days = set()
        for r in (_events(sf_dir, ["ts"])
                  .map_batches(day_partial, batch_format="pyarrow")
                  .take_all()):
            days.add(int(r["day"]))
        return np.array(sorted(days), np.int64)

    def collect_counts() -> dict:
        acc: dict = {}
        src = exchange(ds.map_batches(cover, batch_format="pyarrow"),
                       ["user_id"], dedup_count)
        for t in arrow_blocks(src, stream=False):
            for et, wd, n in zip(t.column("event_type").to_pylist(),
                                 t.column("window_day").to_pylist(),
                                 t.column("n_users").to_pylist()):
                k = (et, int(wd))
                acc[k] = acc.get(k, 0) + int(n)
        return acc

    with ThreadPoolExecutor(max_workers=2) as pool:
        f_days = pool.submit(collect_days)
        f_counts = pool.submit(collect_counts)
        days_sorted = f_days.result()
        acc = f_counts.result()

    def observed(d: int) -> bool:
        i = int(np.searchsorted(days_sorted, d))
        return i < len(days_sorted) and int(days_sorted[i]) == d

    keys = sorted(k for k in acc if observed(k[1]))
    return pa.table({
        "event_type": pa.array([k[0] for k in keys], pa.string()),
        "window_day": pa.array([k[1] for k in keys], pa.int64()),
        "n_users": pa.array([acc[k] for k in keys], pa.int64())})


def weekly_active_users_sql(window: int = WAU_WINDOW) -> str:
    return f"""WITH a AS (
  SELECT DISTINCT event_type, user_id,
         epoch_us(ts) // 86400000000 AS day
  FROM events),
obs AS (SELECT DISTINCT day FROM a),
cov AS (
  SELECT DISTINCT event_type, user_id, day + r.i AS window_day
  FROM a, range(0, {window}) r(i))
SELECT event_type, CAST(window_day AS BIGINT) AS window_day,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM cov JOIN obs ON obs.day = cov.window_day
GROUP BY 1, 2"""


# -------------------------------------------------- transition dwell


def transition_dwell(sf_dir: str):
    """Per (from → to) event-type transition: count and EXACT mean dwell
    time (µs between consecutive events of a user, half-up micro…
    integer µs mean as the exact half-up ratio) — the "how long do users
    sit between steps" statistic complementing the transition-count
    Markov matrix.

    Scale shape: the per-key window shuffle (hash(user) co-partition,
    lexsort, boundary-masked shift) folds each partition to ≤ types²
    (count, µs-sum) partials; one tiny groupby sums; the mean derives
    from exact integers.  Output: ``(t_from, t_to, n, mean_us)``."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events",
                    ["event_id", "user_id", "ts", "event_type"])

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = df["user_id"].to_numpy()
        typ = df["event_type"].to_numpy()
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        if len(df) < 2:
            return pd.DataFrame({"t_from": [], "t_to": [], "n": [],
                                 "s": []})
        same = uid[1:] == uid[:-1]
        out = pd.DataFrame({
            "t_from": typ[:-1][same], "t_to": typ[1:][same],
            "d": (ts[1:] - ts[:-1])[same]})
        g = out.groupby(["t_from", "t_to"], sort=False)["d"].agg(
            ["size", "sum"]).reset_index()
        return pd.DataFrame({
            "t_from": g["t_from"], "t_to": g["t_to"],
            "n": g["size"].astype("int64"),
            "s": g["sum"].astype("int64")})

    agg = (exchange(ds, ["user_id"], partial)
           .groupby(["t_from", "t_to"])
           .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s")))

    def mean(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy()
        s = t.column("s").to_numpy()
        return pa.table({
            "t_from": t.column("t_from"), "t_to": t.column("t_to"),
            "n": t.column("n"),
            "mean_us": pa.array((2 * s + n) // (2 * n))})

    return agg.map_batches(mean, batch_format="pyarrow")


def transition_dwell_sql() -> str:
    return """WITH s AS (
  SELECT user_id, event_type AS t_from,
         lead(event_type) OVER w AS t_to,
         epoch_us(lead(ts) OVER w) - epoch_us(ts) AS d
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT t_from, t_to, CAST(count(*) AS BIGINT) AS n,
       CAST((2 * sum(d) + count(*)) // (2 * count(*)) AS BIGINT)
         AS mean_us
FROM s WHERE t_to IS NOT NULL
GROUP BY 1, 2"""


# ------------------------------------------- pushdown-pruned scan


PRUNE_MIN_VALUE = 150.0


def high_value_events(sf_dir: str, min_value: float = PRUNE_MIN_VALUE):
    """Per-type count + cents sum of events with ``value ≥ min_value`` —
    deliberately expressed as a PREDICATE-PUSHDOWN read: the filter and
    the column pruning ride ``read_parquet`` itself, so row groups whose
    statistics exclude the range never leave storage (the prune-at-the-
    read discipline; on a 100-TB events table the selective filter is
    the difference between scanning terabytes and scanning the matching
    row groups).

    Output: ``(event_type, n, cents)``."""
    import ray.data
    from ray.data.aggregate import Sum

    import pyarrow.dataset as pads

    from nativeextractor_ray.sources.tables import table_path, target_parallelism

    ds = ray.data.read_parquet(
        table_path(sf_dir, "events"),
        columns=["event_type", "value"],
        filter=(pads.field("value") >= min_value),
        override_num_blocks=target_parallelism())

    def partial(t: pa.Table) -> pa.Table:
        # the pushdown is row-group granular — re-apply exactly
        t = t.filter(pc.greater_equal(t.column("value"), min_value))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            t.column("value"), 100.0), 0.5)), pa.int64())
        g = (pa.table({"event_type": t.column("event_type"),
                       "c": cents})
             .group_by("event_type")
             .aggregate([("c", "count"), ("c", "sum")]))
        return pa.table({
            "event_type": g.column("event_type"),
            "n": pc.cast(g.column("c_count"), pa.int64()),
            "cents": pc.cast(g.column("c_sum"), pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("cents", alias_name="cents")))


def high_value_events_sql(min_value: float = PRUNE_MIN_VALUE) -> str:
    return f"""SELECT event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT)
         AS cents
FROM events WHERE value >= {min_value}
GROUP BY event_type"""


# ------------------------------------------------------- bounce rate


def session_bounce_rate(sf_dir: str):
    """Single-row session-quality report: total sessions, single-event
    ("bounce") sessions, and the exact half-up micro bounce rate — the
    engagement headline stat.

    Scale shape: the sessionization co-partition folds each partition to
    TWO integers; the driver sums a handful of partials.  Output:
    ``(n_sessions, n_bounce, bounce_micro)``."""
    import pandas as pd

    ds = _events(sf_dir, ["user_id", "ts"])

    def part_counts(part: "pd.DataFrame") -> "pd.DataFrame":
        sizes = np.bincount(_sessions(part)[2])[1:]
        return pd.DataFrame({
            "n_sessions": np.array([len(sizes)], np.int64),
            "n_bounce": np.array([int((sizes == 1).sum())], np.int64)})

    parts = exchange(ds, ["user_id"], part_counts).take_all()
    n = sum(r["n_sessions"] for r in parts)
    b = sum(r["n_bounce"] for r in parts)
    # empty events: the oracle's agg row is (0, 0, NULL), DuckDB's 0 // 0
    return pa.table({
        "n_sessions": pa.array([n], pa.int64()),
        "n_bounce": pa.array([b], pa.int64()),
        "bounce_micro": pa.array([(2 * b * 1_000_000 + n) // (2 * n) if n else None],
                                 pa.int64())})


def session_bounce_rate_sql() -> str:
    return """WITH o AS (
  SELECT user_id, ts,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   >= INTERVAL 30 MINUTES
              OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_s
  FROM events),
s AS (
  SELECT user_id,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) AS sess
  FROM o),
per AS (SELECT user_id, sess, count(*) AS n FROM s GROUP BY 1, 2),
agg AS (
  SELECT CAST(count(*) AS BIGINT) AS n_sessions,
         CAST(count(*) FILTER (n = 1) AS BIGINT) AS n_bounce
  FROM per)
SELECT n_sessions, n_bounce,
       CAST((2 * n_bounce * 1000000 + n_sessions) // (2 * n_sessions)
            AS BIGINT) AS bounce_micro
FROM agg"""
