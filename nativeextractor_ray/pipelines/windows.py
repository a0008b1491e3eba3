"""SQL window functions, Ray-Data-first: LAG gaps, running (cumulative)
sums, FIRST_VALUE first-touch, and global ROW_NUMBER / NTILE.

The per-key operators (``event_gaps``, ``user_running_value``,
``first_touch``) use the same scale shape as
:func:`~nativeextractor_ray.pipelines.events.errors_prior_window`:

- ONE user_id ``common.exchange`` of narrow prepared rows (ids, int64
  timestamps, integer cents) — payloads never move twice, and no window
  ever materializes more rows than its input.
- Inside each exchange block a single ``np.lexsort`` on
  ``(event_id, ts, user_id)`` establishes the exact SQL window order
  (``PARTITION BY user_id ORDER BY ts, event_id`` — event_id breaks
  timestamp ties deterministically), then the window itself is pure
  vectorized numpy: a shifted diff masked on user boundaries for LAG,
  a global cumsum minus a per-user offset for the running sum.  No
  per-user Python loop, no per-user pandas ``apply``.

Partitioning assumption (documented per the build rules): one user's
rows fit one partition — the same bound every PARTITION-BY engine has.
Skewed users cost sort time inside one partition, never a row blowup.

Money parity with the oracle: values in integer cents with explicit
half-up rounding (cf. ``relational.pricing_summary``); gaps in exact
integer microseconds (``epoch_us`` on both engines).

Reference scope note: the reference engine (nativeextractor,
``src/extractor.c``) stops at mention extraction; this module is part
of the prompt-mandated analytical operator family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nativeextractor_ray.pipelines.common import exchange


def _by_user(sf_dir: str, resolve, with_cents: bool = True):
    """``resolve`` once per user_id exchange block of the shared narrow
    projection (event_id, user_id, ts_us[, cents]).

    ``with_cents=False`` prunes the value column at the READ for windows
    that only need timestamps (event_gaps)."""
    from nativeextractor_ray.sources.tables import read_table

    cols = ["event_id", "ts", "user_id"] + (["value"] if with_cents else [])
    ds = read_table(sf_dir, "events", cols)

    def prep(t: pa.Table) -> pa.Table:
        out = {
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
        }
        if with_cents:
            out["cents"] = pc.cast(
                pc.round(pc.multiply(t.column("value"), 100.0)), pa.int64())
        return pa.table(out)

    return exchange(ds.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], resolve)


def _window_order(df) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort one partition into SQL window order and mark user boundaries.

    Returns ``(order, uid_s, ts_s, new_user)`` where ``order`` indexes the
    partition rows sorted by (user_id, ts_us, event_id) and ``new_user[i]``
    is True where row i starts a new user run."""
    uid = df["user_id"].to_numpy()
    ts = df["ts_us"].to_numpy()
    eid = df["event_id"].to_numpy()
    order = np.lexsort((eid, ts, uid))
    uid_s = uid[order]
    new_user = np.empty(len(uid_s), dtype=bool)
    if len(uid_s):
        new_user[0] = True
        np.not_equal(uid_s[1:], uid_s[:-1], out=new_user[1:])
    return order, uid_s, ts[order], new_user


# ------------------------------------------------------------------ LAG


def event_gaps(sf_dir: str):
    """Per-user inter-arrival (LAG) profile: for every user with ≥ 2
    events, the number of gaps and the exact max / total gap in integer
    microseconds under the window order (ts, event_id).

    Output: ``(user_id, n_gaps, max_gap_us, sum_gap_us)``."""
    import pandas as pd

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd_

        order, uid_s, ts_s, new_user = _window_order(df)
        if len(uid_s) == 0:
            return pd_.DataFrame({
                "user_id": np.array([], dtype=np.int64),
                "n_gaps": np.array([], dtype=np.int64),
                "max_gap_us": np.array([], dtype=np.int64),
                "sum_gap_us": np.array([], dtype=np.int64)})
        gap = np.empty(len(ts_s), dtype=np.int64)
        gap[0] = 0
        np.subtract(ts_s[1:], ts_s[:-1], out=gap[1:])
        valid = ~new_user  # rows that HAVE a same-user predecessor
        # reduce per user run: run ids from the boundary marks
        run = np.cumsum(new_user) - 1
        n_users = run[-1] + 1
        n_gaps = np.bincount(run[valid], minlength=n_users)
        sum_gap = np.bincount(run[valid], weights=gap[valid],
                              minlength=n_users).astype(np.int64)
        max_gap = np.zeros(n_users, dtype=np.int64)
        if valid.any():
            np.maximum.at(max_gap, run[valid], gap[valid])
        keep = n_gaps > 0
        users = uid_s[new_user]
        return pd_.DataFrame({
            "user_id": users[keep],
            "n_gaps": n_gaps[keep].astype(np.int64),
            "max_gap_us": max_gap[keep],
            "sum_gap_us": sum_gap[keep]})

    return _by_user(sf_dir, resolve, with_cents=False)


def event_gaps_sql() -> str:
    return """SELECT user_id,
       CAST(count(*) AS BIGINT)      AS n_gaps,
       CAST(max(gap) AS BIGINT)      AS max_gap_us,
       CAST(sum(gap) AS BIGINT)      AS sum_gap_us
FROM (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events) g
WHERE gap IS NOT NULL
GROUP BY user_id"""


# --------------------------------------------------------- running sum


def user_running_value(sf_dir: str):
    """Running per-user cumulative value (integer cents): each event row
    annotated with the inclusive prefix sum of its user's values under
    the window order (ts, event_id) — the classic
    ``SUM() OVER (PARTITION BY … ORDER BY … ROWS UNBOUNDED PRECEDING)``.

    The cumulative column is a single global ``np.cumsum`` over the
    sorted partition minus a per-user base offset gathered at run
    starts — O(n) flat numpy, no per-user segmentation.

    Output: one row per event — ``(event_id, user_id, cum_cents)``."""
    import pandas as pd

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd_

        order, uid_s, _ts_s, new_user = _window_order(df)
        if len(uid_s) == 0:
            return pd_.DataFrame({
                "event_id": np.array([], dtype=np.int64),
                "user_id": np.array([], dtype=np.int64),
                "cum_cents": np.array([], dtype=np.int64)})
        cents_s = df["cents"].to_numpy()[order]
        csum = np.cumsum(cents_s)
        # base[i] = csum just BEFORE this row's user run started
        starts = np.flatnonzero(new_user)
        base_at_start = np.where(starts > 0, csum[starts - 1], 0)
        run = np.cumsum(new_user) - 1
        cum = csum - base_at_start[run]
        return pd_.DataFrame({
            "event_id": df["event_id"].to_numpy()[order],
            "user_id": uid_s,
            "cum_cents": cum.astype(np.int64)})

    return _by_user(sf_dir, resolve)


def user_running_value_sql() -> str:
    return """SELECT event_id, user_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_cents
FROM events"""


# ------------------------------------------------------- FIRST_VALUE


def first_touch(sf_dir: str):
    """First-touch attribution: each user's FIRST event (window order
    ts, event_id) with its type and value — the ``row_number() OVER
    (PARTITION BY user ORDER BY …) = 1`` / FIRST_VALUE shape.

    Same single hash(user_id) shuffle as the other window ops; inside a
    partition the run-start mask from :func:`_window_order` IS the
    row_number()=1 predicate — one lexsort, one boolean gather, no
    per-user loop.

    Output: ``(user_id, event_id, event_type, first_ts_us, value_c)``."""
    import pandas as pd
    import ray.data  # noqa: F401  (Dataset type)

    import pyarrow.compute as pc2
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events",
                    ["event_id", "ts", "user_id", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "event_type": t.column("event_type"),
            "ts_us": pc2.cast(t.column("ts"), pa.int64()),
            "cents": pc2.cast(pc2.round(pc2.multiply(t.column("value"),
                                                     100.0)), pa.int64()),
        })

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd_

        order, uid_s, ts_s, new_user = _window_order(df)
        first = order[new_user]
        return pd_.DataFrame({
            "user_id": uid_s[new_user],
            "event_id": df["event_id"].to_numpy()[first],
            "event_type": df["event_type"].to_numpy()[first],
            "first_ts_us": ts_s[new_user],
            "value_c": df["cents"].to_numpy()[first],
        })

    return exchange(ds.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], resolve)


def first_touch_sql() -> str:
    return """SELECT user_id, event_id, event_type,
       epoch_us(ts) AS first_ts_us,
       CAST(round(value * 100) AS BIGINT) AS value_c
FROM (
  SELECT *, row_number() OVER (
    PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events)
WHERE rn = 1"""


# ------------------------------------- global ROW_NUMBER / NTILE


def event_value_rank(sf_dir: str, ntiles: int = 10):
    """Global ranking: every event's exact ``row_number()`` and
    ``NTILE(ntiles)`` bucket under the total order (value cents,
    event_id) — the whole-dataset window that needs a GLOBAL prefix,
    not a per-key one.

    Scale shape — the :func:`~nativeextractor_ray.pipelines.curation
    .pack_sequences` two-pass distributed prefix sum over a RANGE
    partition: one narrow (event_id, cents) sort shuffle establishes the
    total order across blocks; pass 1 pulls ONE (first-key, n_rows) row
    per block to the driver and prefix-sums them into per-block row
    offsets; pass 2 maps over the SAME materialized blocks adding
    ``block_offset + arange`` — at 10^10 events the driver holds one row
    per block, never per event.  NTILE sizes follow the SQL standard:
    the first ``n % k`` buckets take ``n//k + 1`` rows.

    Output: ``(event_id, rn, bucket)`` — rn 1-based, bucket 1..ntiles."""
    import pyarrow.compute as pc2
    import ray

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "cents": pc2.cast(pc2.round(pc2.multiply(t.column("value"),
                                                     100.0)), pa.int64()),
        })

    ordered = (ds.map_batches(prep, batch_format="pyarrow")
               .sort(["cents", "event_id"]).materialize())

    def block_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"c0": pa.array([], pa.int64()),
                             "e0": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({
            "c0": pa.array([t.column("cents")[0].as_py()], pa.int64()),
            "e0": pa.array([t.column("event_id")[0].as_py()], pa.int64()),
            "n": pa.array([t.num_rows], pa.int64()),
        })

    partials = sorted(
        ((r["c0"], r["e0"]), r["n"])
        for r in ordered.map_batches(block_partial, batch_format="pyarrow",
                                     batch_size=None).take_all())
    offsets, acc = {}, 0
    for key, n in partials:
        offsets[key] = acc
        acc += n
    total = acc
    off_ref = ray.put(offsets)

    q, r = divmod(total, ntiles)
    cut = (q + 1) * r  # 0-based row index where the smaller buckets start

    out_schema = pa.schema([("event_id", pa.int64()), ("rn", pa.int64()),
                            ("bucket", pa.int64())])

    def assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        off = ray.get(off_ref)
        base = off[(t.column("cents")[0].as_py(),
                    t.column("event_id")[0].as_py())]
        rn0 = base + np.arange(t.num_rows, dtype=np.int64)
        if q == 0:
            # fewer rows than buckets: every row its own bucket
            bucket = rn0 + 1
        else:
            bucket = np.where(rn0 < cut, rn0 // (q + 1),
                              r + (rn0 - cut) // q) + 1
        return pa.table({"event_id": t.column("event_id"),
                         "rn": pa.array(rn0 + 1),
                         "bucket": pa.array(bucket)})

    return ordered.map_batches(assign, batch_format="pyarrow",
                               batch_size=None)


def event_value_rank_sql(ntiles: int = 10) -> str:
    return f"""SELECT event_id,
       CAST(row_number() OVER w AS BIGINT) AS rn,
       CAST(ntile({ntiles}) OVER w AS BIGINT) AS bucket
FROM events
WINDOW w AS (ORDER BY CAST(round(value * 100) AS BIGINT), event_id)"""


# ----------------------------------------------- RANK / DENSE_RANK


def user_value_rank(sf_dir: str):
    """Per-user ``RANK()`` and ``DENSE_RANK()`` of each event by value
    (cents DESC) — the tie-preserving window shape ``event_value_rank``'s
    total order deliberately avoids.  Ties share a rank; RANK skips the
    tied slots, DENSE_RANK does not.

    Same single hash(user_id) shuffle as the other per-key windows; both
    ranks fall out of ONE lexsort plus two boundary masks — for each row,
    ``RANK = pos(start of its tie run) - pos(start of its user run) + 1``
    (two ``np.maximum.accumulate`` gathers) and ``DENSE_RANK = tie-run
    ordinal within the user run`` (one cumsum re-based at user starts).
    No per-user loop, no per-tie loop.

    Output: one row per event — ``(event_id, user_id, rnk, drnk)``."""
    import pandas as pd

    from nativeextractor_ray.sources.tables import read_table

    # rank orders by value alone — no ts in the shuffle (cf. _by_user,
    # which the gap/cumsum windows use because they sort on time)
    ds = read_table(sf_dir, "events", ["event_id", "user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100.0)), pa.int64()),
        })

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd_

        uid = df["user_id"].to_numpy()
        cents = df["cents"].to_numpy()
        eid = df["event_id"].to_numpy()
        # window order (user, cents DESC); eid last for a deterministic
        # row order WITHIN a tie (ranks are tie-invariant, so any stable
        # in-tie order yields the same output values)
        order = np.lexsort((eid, -cents, uid))
        uid_s, cents_s = uid[order], cents[order]
        n = len(uid_s)
        if n == 0:
            return pd_.DataFrame({
                "event_id": np.array([], dtype=np.int64),
                "user_id": np.array([], dtype=np.int64),
                "rnk": np.array([], dtype=np.int64),
                "drnk": np.array([], dtype=np.int64)})
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        np.not_equal(uid_s[1:], uid_s[:-1], out=new_user[1:])
        new_tie = new_user.copy()
        new_tie[1:] |= cents_s[1:] != cents_s[:-1]
        pos = np.arange(n, dtype=np.int64)
        user_start = np.maximum.accumulate(np.where(new_user, pos, 0))
        tie_start = np.maximum.accumulate(np.where(new_tie, pos, 0))
        rnk = tie_start - user_start + 1
        tie_id = np.cumsum(new_tie)  # 1-based global tie-run ordinal
        drnk = tie_id - np.maximum.accumulate(
            np.where(new_user, tie_id, 0)) + 1
        return pd_.DataFrame({
            "event_id": eid[order],
            "user_id": uid_s,
            "rnk": rnk.astype(np.int64),
            "drnk": drnk.astype(np.int64)})

    return exchange(ds.map_batches(prep, batch_format="pyarrow"),
                    ["user_id"], resolve)


def user_value_rank_sql() -> str:
    return """SELECT event_id, user_id,
       CAST(rank() OVER w AS BIGINT)       AS rnk,
       CAST(dense_rank() OVER w AS BIGINT) AS drnk
FROM events
WINDOW w AS (PARTITION BY user_id
             ORDER BY CAST(round(value * 100) AS BIGINT) DESC)"""


# ------------------------------------------------- LEAD transitions


def event_transitions(sf_dir: str):
    """Per-user next-event transition matrix: counts of consecutive
    ``(event_type -> next event_type)`` pairs under the window order
    (ts, event_id) — the ``LEAD() OVER (PARTITION BY user ...)`` shape,
    and the Markov-chain statistic sequence models train on.

    Scale shape: the per-key window runs in the usual single
    hash(user_id) shuffle; each partition then emits its LOCAL
    (from, to, n) counts — at most types² rows per partition — and one
    tiny types²-key ``groupby().sum`` merges them globally.  Corpus-sized
    rows cross the wire once (the window shuffle), counts thereafter.

    Output: ``(from_type, to_type, n)``."""
    import pandas as pd
    import pyarrow.compute as pc2
    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_id", "ts", "user_id",
                                       "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "event_type": t.column("event_type"),
            "ts_us": pc2.cast(t.column("ts"), pa.int64()),
        })

    def local_counts(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd_

        order, uid_s, _ts_s, new_user = _window_order(df)
        if len(uid_s) < 2:
            return pd_.DataFrame({"from_type": pd_.Series([], dtype=str),
                                  "to_type": pd_.Series([], dtype=str),
                                  "n": pd_.Series([], dtype=np.int64)})
        et_s = df["event_type"].to_numpy()[order]
        same = ~new_user[1:]  # consecutive rows of the SAME user
        out = pd_.DataFrame({"from_type": et_s[:-1][same],
                             "to_type": et_s[1:][same]})
        g = out.groupby(["from_type", "to_type"], sort=False).size()
        g = g.rename("n").reset_index()
        g["n"] = g["n"].astype(np.int64)
        return g

    out_schema = pa.schema([("from_type", pa.string()),
                            ("to_type", pa.string()), ("n", pa.int64())])

    # the aggregate must run over ARROW blocks: over pandas blocks it
    # emits schema-LESS empty pandas blocks (names=[]) that bypass both
    # map-fn batch conversion and to_arrow_refs (observed: raw empty
    # DataFrames in the output stream) — so re-block the exchange
    # output to arrow first, and pin the post-aggregate schema (the
    # hll_users_by_type ensure_regs pattern)
    def to_arrow(df: "pd.DataFrame") -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        return pa.Table.from_pandas(df, preserve_index=False).cast(out_schema)

    merged = (exchange(ds.map_batches(prep, batch_format="pyarrow"),
                       ["user_id"], local_counts)
                .map_batches(to_arrow, batch_format="pandas")
                .groupby(["from_type", "to_type"])
                .aggregate(Sum("n", alias_name="n")))

    # finish on the driver: the merged matrix is BOUNDED by types² rows
    # (the referential_audit / hll tiny-result precedent), and the
    # string-multi-key aggregate emits schema-less empty pandas blocks
    # that BYPASS any downstream map fn — arrow_blocks is the one
    # normalization point that absorbs them
    from nativeextractor_ray.functions.blocks import arrow_blocks

    parts = [t.select(["from_type", "to_type", "n"]).cast(out_schema)
             for t in arrow_blocks(merged, stream=False)]
    tbl = (pa.concat_tables(parts) if parts else out_schema.empty_table())
    return tbl.sort_by([("from_type", "ascending"),
                        ("to_type", "ascending")])


def event_transitions_sql() -> str:
    return """SELECT from_type, to_type, CAST(count(*) AS BIGINT) AS n
FROM (
  SELECT event_type AS from_type,
         lead(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS to_type
  FROM events)
WHERE to_type IS NOT NULL
GROUP BY 1, 2"""


# --------------------------------------------------- fixed ROWS window

ROLL_K = 3  # preceding rows in the rolling window (k+1 rows total)


def user_rolling_sum(sf_dir: str, k: int = ROLL_K):
    """Fixed-width rolling sum per user — ``SUM() OVER (PARTITION BY
    user ORDER BY ts, event_id ROWS BETWEEN k PRECEDING AND CURRENT
    ROW)`` in exact integer cents; the moving-average / burst-detection
    window shape.

    Same single-pass economics as :func:`user_running_value`: one global
    ``np.cumsum`` over the (user, ts, event_id)-sorted partition; each
    row subtracts the prefix just before its window start ``j = i -
    min(local_pos, k)`` — ``j`` never crosses the user-run boundary by
    construction, so no per-user segmentation and no padding rows.

    Output: one row per event — ``(event_id, user_id, roll_cents)``."""
    import pandas as pd

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd_

        order, uid_s, _ts_s, new_user = _window_order(df)
        if len(uid_s) == 0:
            return pd_.DataFrame({
                "event_id": np.array([], dtype=np.int64),
                "user_id": np.array([], dtype=np.int64),
                "roll_cents": np.array([], dtype=np.int64)})
        cents_s = df["cents"].to_numpy()[order]
        csum = np.cumsum(cents_s)
        run = np.cumsum(new_user) - 1
        starts = np.flatnonzero(new_user)
        idx = np.arange(len(uid_s))
        local = idx - starts[run]
        j = idx - np.minimum(local, k)
        prev = np.where(j > 0, csum[np.maximum(j - 1, 0)], 0)
        return pd_.DataFrame({
            "event_id": df["event_id"].to_numpy()[order],
            "user_id": uid_s,
            "roll_cents": (csum - prev).astype(np.int64)})

    return _by_user(sf_dir, resolve)


def user_rolling_sum_sql(k: int = ROLL_K) -> str:
    return f"""SELECT event_id, user_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN {k} PRECEDING AND CURRENT ROW) AS BIGINT
       ) AS roll_cents
FROM events"""


# --------------------------------------------- cumulative new users


def new_users_daily(sf_dir: str):
    """Daily acquisition curve: per calendar day, the number of users
    whose FIRST event falls on that day, plus the running cumulative —
    the growth-dashboard query (cumulative COUNT(DISTINCT) by day).

    Scale shape: per-batch (user, min ts) partials → ONE user-keyed
    groupby().min — the only shuffle; each output block then folds to
    day-count partials that stream straight to the driver (the day
    domain is calendar-bounded, so the second groupby the naive plan
    would run is a wasted AllToAll — measured ~2.5 s of fixed exchange
    cost at sf0.1) where the ordered prefix sum runs.

    Output: ``(day, new_users, cum_users)``, day as date32."""
    import pandas as pd
    import ray
    import ray.data
    from ray.data.aggregate import Min

    from nativeextractor_ray.functions.blocks import arrow_blocks
    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["ts", "user_id"])

    def per_batch_min(t: pa.Table) -> pa.Table:
        g = t.group_by("user_id").aggregate([("ts", "min")])
        return pa.table({"user_id": g.column("user_id"),
                         "ts_us": pc.cast(g.column("ts_min"), pa.int64())})

    first = (ds.map_batches(per_batch_min, batch_format="pyarrow")
             .groupby("user_id").aggregate(Min("ts_us", alias_name="ts_us")))

    US_PER_DAY = 86_400_000_000

    def day_counts(t: pa.Table) -> pa.Table:
        d = pc.floor(pc.divide(t.column("ts_us"), US_PER_DAY))
        g = pa.table({"day_i": pc.cast(d, pa.int64())}) \
            .group_by("day_i").aggregate([("day_i", "count")])
        return pa.table({
            "day_i": g.column("day_i"),
            "new_users": pc.cast(g.column("day_i_count"), pa.int64())})

    acc: dict[int, int] = {}
    for t in arrow_blocks(first.map_batches(day_counts,
                                            batch_format="pyarrow")):
        for di, nu_ in zip(t.column("day_i").to_pylist(),
                           t.column("new_users").to_pylist()):
            acc[di] = acc.get(di, 0) + nu_
    if not acc:
        return ray.data.from_arrow(pa.table({
            "day": pa.array([], pa.date32()),
            "new_users": pa.array([], pa.int64()),
            "cum_users": pa.array([], pa.int64())}))
    day_i = np.array(sorted(acc), dtype=np.int64)
    nu = np.array([acc[d] for d in day_i], dtype=np.int64)
    out = pa.table({
        "day": pa.array(day_i.astype("datetime64[D]")),
        "new_users": pa.array(nu, pa.int64()),
        "cum_users": pa.array(np.cumsum(nu), pa.int64())})
    return ray.data.from_arrow(out)


def new_users_daily_sql() -> str:
    return """WITH f AS (
  SELECT user_id, min(ts) AS fts FROM events GROUP BY user_id),
d AS (
  SELECT CAST(date_trunc('day', fts) AS DATE) AS day,
         CAST(count(*) AS BIGINT) AS new_users
  FROM f GROUP BY 1)
SELECT day, new_users,
       CAST(sum(new_users) OVER (ORDER BY day
         ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_users
FROM d"""


# ---------------------------------------------- watermark lateness


def late_event_stats(sf_dir: str):
    """Out-of-order arrival profile per event type — the statistic that
    sizes a streaming engine's WATERMARK: treating ``event_id`` as the
    arrival sequence, an event is LATE when its timestamp precedes the
    maximum timestamp its user had already produced (``ts < max(ts) OVER
    (PARTITION BY user ORDER BY event_id ROWS … 1 PRECEDING)``), and the
    max lateness bounds the reorder buffer a tumbling window needs.

    Scale shape: one hash(user) shuffle; in-partition lexsort by (user,
    event_id) + a C-level grouped ``cummax`` (then shift-within-run) —
    no per-row Python; per-partition per-type partials (events/late
    counts, max lateness) leave ≤ types rows per partition; the final
    groupby sums counts and maxes the lateness.

    Output: ``(event_type, n_events, n_late, max_lateness_us)``."""
    import pandas as pd

    from ray.data.aggregate import Max, Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", ["event_id", "ts", "user_id",
                                       "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "event_type": t.column("event_type"),
        })

    def resolve(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd_

        uid = df["user_id"].to_numpy()
        eid = df["event_id"].to_numpy()
        ts = df["ts_us"].to_numpy()
        order = np.lexsort((eid, uid))
        uid_s, ts_s = uid[order], ts[order]
        et_s = df["event_type"].to_numpy()[order]
        new_user = np.empty(len(uid_s), dtype=bool)
        if len(uid_s):
            new_user[0] = True
            np.not_equal(uid_s[1:], uid_s[:-1], out=new_user[1:])
        run = np.cumsum(new_user) - 1
        cmax = pd_.Series(ts_s).groupby(run).cummax().to_numpy()
        prev_max = np.empty_like(cmax)
        prev_max[1:] = cmax[:-1]
        has_prev = ~new_user
        lateness = np.where(has_prev, prev_max - ts_s, 0)
        late = lateness > 0
        g = pd_.DataFrame({
            "event_type": et_s,
            "one": np.ones(len(et_s), np.int64),
            "late": late.astype(np.int64),
            "lateness": np.where(late, lateness, 0).astype(np.int64),
        }).groupby("event_type", sort=False).agg(
            n_events=("one", "sum"), n_late=("late", "sum"),
            max_lateness_us=("lateness", "max")).reset_index()
        return g

    return (exchange(ds.map_batches(prep, batch_format="pyarrow"),
                     ["user_id"], resolve)
            .groupby("event_type")
            .aggregate(Sum("n_events", alias_name="n_events"),
                       Sum("n_late", alias_name="n_late"),
                       Max("max_lateness_us", alias_name="max_lateness_us")))


def late_event_stats_sql() -> str:
    return """WITH w AS (
  SELECT event_type, epoch_us(ts) AS ts_us,
         max(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev_max
  FROM events)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN prev_max IS NOT NULL AND ts_us < prev_max
                THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
       CAST(coalesce(max(CASE WHEN prev_max IS NOT NULL
                              AND prev_max > ts_us
                         THEN prev_max - ts_us END), 0) AS BIGINT
       ) AS max_lateness_us
FROM w GROUP BY event_type"""


# --------------------------------------------- sequential path n-grams


def event_path_trigrams(sf_dir: str):
    """Per-user consecutive event-type TRIGRAM counts — the sequential-
    pattern statistic behind "what do users do right before churning/
    converting" funnels (n-gram mining over per-key ordered streams,
    double-LEAD shape).

    Scale shape: the per-key windows' single hash(user) shuffle over
    pruned (user, ts, event_id, type); in-partition lexsort + two shifts
    masked at user-run boundaries fold each partition to ≤ |types|³
    partial rows; one tiny final groupby sums.  Output:
    ``(t1, t2, t3, n)``."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from nativeextractor_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events",
                    ["event_id", "user_id", "ts", "event_type"])

    def tri_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = df["user_id"].to_numpy()
        typ = df["event_type"].to_numpy()
        n = len(df)
        if n < 3:
            return pd.DataFrame({"t1": [], "t2": [], "t3": [], "n": []})
        same = (uid[2:] == uid[:-2])
        t1, t2, t3 = typ[:-2][same], typ[1:-1][same], typ[2:][same]
        out = (pd.DataFrame({"t1": t1, "t2": t2, "t3": t3})
               .groupby(["t1", "t2", "t3"], sort=False).size()
               .reset_index(name="n"))
        out["n"] = out["n"].astype("int64")
        return out

    # the per-partition partials are ≤ types³ rows each — fold them on
    # the driver instead of a second AllToAll (the Q21 lesson)
    from nativeextractor_ray.functions.blocks import arrow_blocks

    acc: dict = {}
    for t in arrow_blocks(exchange(ds, ["user_id"], tri_partial),
                          stream=False):
        for a, b, c, n in zip(t.column("t1").to_pylist(),
                              t.column("t2").to_pylist(),
                              t.column("t3").to_pylist(),
                              t.column("n").to_pylist()):
            k = (a, b, c)
            acc[k] = acc.get(k, 0) + int(n)
    ks = sorted(acc)
    return pa.table({
        "t1": pa.array([k[0] for k in ks], pa.string()),
        "t2": pa.array([k[1] for k in ks], pa.string()),
        "t3": pa.array([k[2] for k in ks], pa.string()),
        "n": pa.array([acc[k] for k in ks], pa.int64())})


def event_path_trigrams_sql() -> str:
    return """WITH s AS (
  SELECT user_id, event_type AS t1,
         lead(event_type, 1) OVER w AS t2,
         lead(event_type, 2) OVER w AS t3
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT t1, t2, t3, CAST(count(*) AS BIGINT) AS n
FROM s WHERE t3 IS NOT NULL
GROUP BY 1, 2, 3"""
