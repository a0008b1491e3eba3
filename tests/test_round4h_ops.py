"""Planted fixtures for the round-4h temporal-KG operators: entity
timeline and user→assistant adoption.  The fixtures drive the real
extraction stack over hand-built transcripts via the in-memory
buffer-source path (``ray.data.from_arrow``)."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _df(res) -> pd.DataFrame:
    from nativeextractor_ray.functions.blocks import arrow_blocks

    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    parts = list(arrow_blocks(res, stream=False))
    if not parts:
        return pd.DataFrame()
    return pa.concat_tables(parts, promote_options="default").to_pandas()


def _transcripts(rows):
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows], pa.string()),
        "text": pa.array([r[3] for r in rows], pa.string()),
        "tool": pa.array([""] * len(rows), pa.string()),
        "ts": pa.array([np.datetime64(r[4], "us") for r in rows],
                       pa.timestamp("us")),
    })


def _run_timeline(tbl):
    import ray.data

    from nativeextractor_ray.pipelines import kg

    class _Fake:
        pass

    # drive the op's internals directly over an in-memory Dataset by
    # monkey-free composition: replicate entity_timeline's stages on the
    # extraction class it uses
    from nativeextractor_ray.stages.kg_extract import KgExtract

    ds = ray.data.from_arrow(tbl)

    class EntityTurnsCtx(KgExtract):
        def _extract(self, batch):
            import pyarrow.compute as pc

            conv = batch.column("conv_id").to_pylist()
            turn = batch.column("turn_idx").to_pylist()
            role = batch.column("role").to_pylist()
            ts = pc.cast(batch.column("ts"), pa.int64()).to_pylist()
            text = batch.column("text").to_pylist()
            out = {k: [] for k in
                   ("conv_id", "turn_idx", "role", "ts_us", "ent")}
            for r, ents in enumerate(self.batch_entities(text)):
                for e in ents:
                    out["conv_id"].append(conv[r])
                    out["turn_idx"].append(turn[r])
                    out["role"].append(role[r])
                    out["ts_us"].append(ts[r])
                    out["ent"].append(e)
            return pa.table({
                "conv_id": pa.array(out["conv_id"], pa.string()),
                "turn_idx": pa.array(out["turn_idx"], pa.int32()),
                "role": pa.array(out["role"], pa.string()),
                "ts_us": pa.array(out["ts_us"], pa.int64()),
                "ent": pa.array(out["ent"], pa.string())})

    return ds.map_batches(EntityTurnsCtx(), batch_format="pyarrow",
                          batch_size=None)


def test_entity_timeline_planted(ray_session, tmp_path):
    """An email entity mentioned on two days has n_days=2 and exact
    first/last instants; day bucketing is UTC epoch-day."""
    tbl = _transcripts([
        ("c1", 0, "user", "mail bob@x.com now", "2024-01-01T10:00:00"),
        ("c1", 1, "assistant", "ok bob@x.com", "2024-01-02T11:00:00"),
        ("c2", 0, "user", "nothing here", "2024-01-03T00:00:00"),
    ])
    ds = _run_timeline(tbl)
    df = _df(ds)
    sub = df[df["ent"] == "email:bob@x.com"]
    assert len(sub) == 2
    # per-entity rollup semantics the op applies:
    days = (sub["ts_us"] // 86_400_000_000).nunique()
    assert days == 2
    assert sub["ts_us"].min() == int(np.datetime64(
        "2024-01-01T10:00:00", "us").astype(np.int64))


def test_entity_adoption_planted(ray_session):
    """Adoption requires the user turn STRICTLY before the assistant
    turn for the same entity in the same conversation."""
    tbl = _transcripts([
        # c1: user introduces, assistant echoes → adopted
        ("c1", 0, "user", "ping bob@x.com", "2024-01-01T00:00:00"),
        ("c1", 1, "assistant", "done bob@x.com", "2024-01-01T00:01:00"),
        # c2: assistant first → NOT adopted (still counted as a conv)
        ("c2", 0, "assistant", "try bob@x.com", "2024-01-01T00:00:00"),
        ("c2", 1, "user", "ok bob@x.com", "2024-01-01T00:01:00"),
        # c3: user only → not adopted
        ("c3", 0, "user", "see bob@x.com", "2024-01-01T00:00:00"),
    ])
    ds = _run_timeline(tbl)
    df = _df(ds)
    SENT = np.iinfo(np.int64).max
    df["u"] = np.where(df["role"] == "user", df["turn_idx"], SENT)
    df["a"] = np.where(df["role"] == "assistant", df["turn_idx"], SENT)
    g = df[df["ent"] == "email:bob@x.com"].groupby("conv_id").agg(
        u=("u", "min"), a=("a", "min"))
    adopted = ((g["u"] != SENT) & (g["a"] != SENT)
               & (g["u"] < g["a"])).sum()
    assert len(g) == 3 and adopted == 1


def test_entity_timeline_matches_adoption_universe(ray_session):
    """entity_timeline and entity_adoption see the same entity universe
    at sf0.001 (both ride entity_turn_role_ts_dataset)."""
    from nativeextractor_ray.pipelines import kg

    sf = "/root/testdata/sf0.001"
    tl = _df(kg.entity_timeline(sf))
    ad = _df(kg.entity_adoption(sf))
    assert set(tl["entity_id"]) == set(ad["entity_id"])
    assert (tl["n_days"] >= 1).all()
    assert (tl["last_us"] >= tl["first_us"]).all()
    assert (ad["n_adopted"] <= ad["n_convs"]).all()


def _write_events(tmp_path, rows):
    import pyarrow.parquet as pq

    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([np.datetime64(r[2], "us") for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows]),
        "value": pa.array([1.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    }), tmp_path / "events.parquet")
    return str(tmp_path)


def test_weekly_active_users_planted(ray_session, tmp_path):
    """u1 active on day 0, u2 on day 3: the day-3 window counts both;
    the day-0 window only u1; repeat events don't double count; a
    window-end day with no events is excluded."""
    sf = _write_events(tmp_path, [
        (1, 1, "2024-01-01T00:00", "a", 0),
        (2, 1, "2024-01-01T01:00", "a", 0),   # repeat, same day
        (3, 2, "2024-01-04T00:00", "a", 0),
    ])
    from nativeextractor_ray.pipelines.events import weekly_active_users

    got = _df(weekly_active_users(sf))
    d0 = int(np.datetime64("2024-01-01").astype("datetime64[D]")
             .astype(np.int64))
    by_day = got.set_index("window_day")["n_users"]
    assert int(by_day[d0]) == 1
    assert int(by_day[d0 + 3]) == 2
    assert set(got["window_day"]) == {d0, d0 + 3}  # only observed days


def test_transition_dwell_planted(ray_session, tmp_path):
    """a→b twice with 60 s and 120 s gaps → mean 90 s; transitions never
    cross users."""
    sf = _write_events(tmp_path, [
        (1, 1, "2024-01-01T00:00:00", "a", 0),
        (2, 1, "2024-01-01T00:01:00", "b", 0),
        (3, 2, "2024-01-01T00:00:00", "a", 0),
        (4, 2, "2024-01-01T00:02:00", "b", 0),
        (5, 3, "2024-01-01T00:00:00", "c", 0),  # lone event: no row
    ])
    from nativeextractor_ray.pipelines.events import transition_dwell

    got = _df(transition_dwell(sf))
    assert len(got) == 1
    r = got.iloc[0]
    assert (r["t_from"], r["t_to"], r["n"]) == ("a", "b", 2)
    assert int(r["mean_us"]) == 90_000_000


def test_length_drift_ks_planted(ray_session, tmp_path):
    """Identical length distributions → KS 0; disjoint supports →
    KS 1 (micro = 1e6)."""
    import pyarrow.parquet as pq

    rows = ([(i, "a" * 10, "en") for i in range(5)]          # s1: len 10
            + [(10 + i, "b" * 10, "en") for i in range(5)]   # s2: len 10
            + [(20 + i, "c" * 30, "en") for i in range(5)])  # s3: len 30
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows]),
        "lang": pa.array([r[2] for r in rows]),
        "source": pa.array(["s1"] * 5 + ["s2"] * 5 + ["s3"] * 5),
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    }), tmp_path / "documents.parquet")
    from nativeextractor_ray.pipelines.audit import length_drift_ks

    got = _df(length_drift_ks(str(tmp_path))).set_index(
        ["src_a", "src_b"])["ks_micro"]
    assert int(got[("s1", "s2")]) == 0
    assert int(got[("s1", "s3")]) == 1_000_000
    assert int(got[("s2", "s3")]) == 1_000_000


def test_price_reconciliation_planted(ray_session, tmp_path):
    """One exactly-reconciling order, one off-by-a-cent, one with no
    lineitems."""
    import pyarrow.parquet as pq

    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([1, 1, 1], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        # order 1: charge = 100·(1-0)·(1+0) = 100.00 → match
        # order 2: totalprice off by 0.01 → mismatch
        "o_totalprice": pa.array([100.00, 100.01, 5.0]),
        "o_orderdate": pa.array([np.datetime64("2024-01-01", "us")] * 3,
                                pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * 3),
    }), tmp_path / "orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2], pa.int64()),
        "l_extendedprice": pa.array([100.0, 100.0]),
        "l_discount": pa.array([0.0, 0.0]),
        "l_tax": pa.array([0.0, 0.0]),
        "l_partkey": pa.array([1, 1], pa.int64()),
        "l_suppkey": pa.array([1, 1], pa.int64()),
        "l_linenumber": pa.array([1, 1], pa.int64()),
        "l_quantity": pa.array([1.0, 1.0]),
        "l_returnflag": pa.array(["N", "N"]),
        "l_linestatus": pa.array(["O", "O"]),
        "l_shipdate": pa.array([np.datetime64("2024-01-02", "us")] * 2,
                               pa.timestamp("us")),
    }), tmp_path / "lineitem.parquet")
    from nativeextractor_ray.pipelines.audit import price_reconciliation

    got = _df(price_reconciliation(str(tmp_path))).set_index(
        "status")["n_orders"]
    assert int(got["match"]) == 1
    assert int(got["mismatch"]) == 1
    assert int(got["no_lineitems"]) == 1


def test_high_value_events_pushdown(ray_session, tmp_path):
    """The pushdown read + residual filter matches the plain WHERE; the
    boundary value (== threshold) is included."""
    from nativeextractor_ray.pipelines.events import (
        PRUNE_MIN_VALUE, high_value_events)

    sf = _write_events(tmp_path, [
        (1, 1, "2024-01-01T00:00", "a", 0),
        (2, 1, "2024-01-01T00:01", "a", 0),
    ])
    # overwrite values: one below, one exactly at the threshold
    import pyarrow.parquet as pq

    t = pq.read_table(tmp_path / "events.parquet")
    t = t.set_column(t.schema.get_field_index("value"), "value",
                     pa.array([PRUNE_MIN_VALUE - 1.0, PRUNE_MIN_VALUE]))
    pq.write_table(t, tmp_path / "events.parquet")
    got = _df(high_value_events(sf))
    assert len(got) == 1
    assert int(got.iloc[0]["n"]) == 1
    assert int(got.iloc[0]["cents"]) == int(PRUNE_MIN_VALUE * 100)


def test_rfm_segments_planted(ray_session, tmp_path):
    """3 customers, clean tertiles: scores follow the exact quantile
    edges (value at rank ceil(q·n)), segment = r·100 + f·10 + m."""
    import pyarrow.parquet as pq

    # c1: 1 early cheap order; c2: 2 mid orders; c3: 3 late rich orders
    rows = [
        (1, 1, "2024-01-01", 10.0), (2, 2, "2024-02-01", 50.0),
        (3, 2, "2024-02-02", 50.0), (4, 3, "2024-03-01", 100.0),
        (5, 3, "2024-03-02", 100.0), (6, 3, "2024-03-03", 100.0),
    ]
    pq.write_table(pa.table({
        "o_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "o_custkey": pa.array([r[1] for r in rows], pa.int64()),
        "o_orderstatus": pa.array(["O"] * len(rows)),
        "o_totalprice": pa.array([r[3] for r in rows]),
        "o_orderdate": pa.array([np.datetime64(r[2], "us") for r in rows],
                                pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * len(rows)),
    }), tmp_path / "orders.parquet")
    from nativeextractor_ray.pipelines.distributions import rfm_segments

    got = _df(rfm_segments(str(tmp_path))).set_index("c_custkey")
    assert int(got.loc[1, "segment"]) == 111
    assert int(got.loc[2, "segment"]) == 222
    assert int(got.loc[3, "segment"]) == 333


def test_rfm_distributed_path_matches_driver_fold(ray_session,
                                                  monkeypatch):
    """Bound 0 forces the distributed groupby + quantile-refinement
    kernel; output must be bit-identical to the zero-AllToAll driver
    fold (np rollup + local rank selection)."""
    from nativeextractor_ray.pipelines import common, distributions

    sf = "/root/testdata/sf0.001"
    base = _df(distributions.rfm_segments(sf)).sort_values(
        "c_custkey").reset_index(drop=True)
    monkeypatch.setattr(common, "DRIVER_BOUND", 0)
    forced = _df(distributions.rfm_segments(sf)).sort_values(
        "c_custkey").reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)
    assert len(base) > 0


def test_ship_latency_planted(ray_session, tmp_path):
    """Latency = ship epoch-day − order epoch-day per line, quantiles
    per priority (p50 of [1, 2, 3] = 2)."""
    import pyarrow.parquet as pq

    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_custkey": pa.array([1, 1], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 2),
        "o_totalprice": pa.array([1.0, 1.0]),
        "o_orderdate": pa.array(
            [np.datetime64("2024-01-01", "us")] * 2, pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT", "2-HIGH"]),
    }), tmp_path / "orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 1, 2], pa.int64()),
        "l_shipdate": pa.array([np.datetime64(d, "us") for d in
                                ("2024-01-02", "2024-01-03",
                                 "2024-01-04", "2024-01-11")],
                               pa.timestamp("us")),
        "l_partkey": pa.array([1] * 4, pa.int64()),
        "l_suppkey": pa.array([1] * 4, pa.int64()),
        "l_linenumber": pa.array([1, 2, 3, 1], pa.int64()),
        "l_quantity": pa.array([1.0] * 4),
        "l_extendedprice": pa.array([1.0] * 4),
        "l_discount": pa.array([0.0] * 4),
        "l_tax": pa.array([0.0] * 4),
        "l_returnflag": pa.array(["N"] * 4),
        "l_linestatus": pa.array(["O"] * 4),
    }), tmp_path / "lineitem.parquet")
    from nativeextractor_ray.pipelines.quantiles import (
        ship_latency_quantiles_by_priority)

    got = _df(ship_latency_quantiles_by_priority(str(tmp_path)))
    urgent = got[got["priority"] == "1-URGENT"].set_index("q")
    assert int(urgent.loc[0.5, "lat_days"]) == 2
    assert int(urgent.loc[0.9, "lat_days"]) == 3
    high = got[got["priority"] == "2-HIGH"].set_index("q")
    assert int(high.loc[0.5, "lat_days"]) == 10


def test_key_gaps_planted(ray_session, tmp_path):
    """Interior holes only; duplicates and block boundaries don't create
    phantom gaps."""
    import pyarrow.parquet as pq

    keys = [1, 2, 3, 7, 8, 8, 12, 13]  # gaps: 4-6, 9-11
    pq.write_table(pa.table({
        "o_orderkey": pa.array(keys, pa.int64()),
        "o_custkey": pa.array([1] * len(keys), pa.int64()),
        "o_orderstatus": pa.array(["O"] * len(keys)),
        "o_totalprice": pa.array([1.0] * len(keys)),
        "o_orderdate": pa.array(
            [np.datetime64("2024-01-01", "us")] * len(keys),
            pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * len(keys)),
    }), tmp_path / "orders.parquet")
    from nativeextractor_ray.pipelines.audit import key_gaps

    got = _df(key_gaps(str(tmp_path)))
    rows = [tuple(r) for r in got.itertuples(index=False)]
    assert rows == [(4, 6), (9, 11)]


def test_session_bounce_rate_planted(ray_session, tmp_path):
    """u1: one 2-event session; u2: two singleton sessions (gap ≥ 30
    min) → 3 sessions, 2 bounces, rate 2/3 half-up micro."""
    sf = _write_events(tmp_path, [
        (1, 1, "2024-01-01T00:00:00", "a", 0),
        (2, 1, "2024-01-01T00:10:00", "a", 0),
        (3, 2, "2024-01-01T00:00:00", "a", 0),
        (4, 2, "2024-01-01T02:00:00", "a", 0),
    ])
    from nativeextractor_ray.pipelines.events import session_bounce_rate

    got = _df(session_bounce_rate(sf)).iloc[0]
    assert int(got["n_sessions"]) == 3
    assert int(got["n_bounce"]) == 2
    assert int(got["bounce_micro"]) == (2 * 2 * 1_000_000 + 3) // 6


def test_pca_project_variance_order(ray_session):
    """The first component captures at least as much projected variance
    as the second, and the projection is exactly the integer dot
    product of the quantized inputs."""
    from nativeextractor_ray.pipelines.vectorstats import (
        _pca_top2, VSCALE, embedding_pca_project)

    sf = "/root/testdata/sf0.001"
    got = _df(embedding_pca_project(sf))
    assert len(got) == 500
    v1 = got["p1_q"].astype(np.float64).var()
    v2 = got["p2_q"].astype(np.float64).var()
    assert v1 >= v2 * 0.99  # top component dominates (tolerate near-ties)
    V = _pca_top2(sf)
    assert abs(np.linalg.norm(V[0]) - 1.0) < 1e-9


def test_conv_entity_density_planted(ray_session):
    """Density = distinct entities per turn, exact half-up micro, over
    the real extraction stack at sf0.001 — cross-checked against the
    independently derived entity-turn stream."""
    from nativeextractor_ray.pipelines import kg

    sf = "/root/testdata/sf0.001"
    got = _df(kg.conv_entity_density(sf)).set_index("conv_id")
    ents = _df(kg.entity_timeline(sf))
    assert int(got["n_entities"].sum()) >= len(ents)  # convs ≥ entities
    assert (got["n_turns"] >= 1).all()
    d = (2 * got["n_entities"] * 1_000_000 + got["n_turns"]) \
        // (2 * got["n_turns"])
    assert (got["density_micro"] == d).all()


def test_role_vocab_divergence_bounds(ray_session):
    """TV distance lands in [0, 1e6] and both totals are positive."""
    from nativeextractor_ray.pipelines import kg

    got = _df(kg.role_vocab_divergence("/root/testdata/sf0.001")).iloc[0]
    assert 0 <= int(got["tv_micro"]) <= 1_000_000
    assert int(got["n_user_tokens"]) > 0
    assert int(got["n_assistant_tokens"]) > 0


def test_ship_latency_merge_path_matches_broadcast(ray_session,
                                                   monkeypatch):
    """Bound 0 forces the co-partitioned tagged-union merge; output must
    be bit-identical to the broadcast-probe histogram fold."""
    from nativeextractor_ray.pipelines import common, quantiles

    sf = "/root/testdata/sf0.001"
    cols = ["priority", "q"]
    base = _df(quantiles.ship_latency_quantiles_by_priority(sf)) \
        .sort_values(cols).reset_index(drop=True)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    forced = _df(quantiles.ship_latency_quantiles_by_priority(sf)) \
        .sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)
    assert len(base) > 0
