"""Planted fixtures for the round-4e operators: prefix-filter set-
similarity join, sweep-line peak concurrency, skyline, priority
sampling, column profiling, grouped mode, and path trigrams."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


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


def _write_docs(tmp_path, rows):
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "lang": pa.array(["en"] * len(rows)),
        "source": pa.array(["s"] * len(rows)),
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    }), tmp_path / "documents.parquet")
    return str(tmp_path)


def _write_events(tmp_path, rows):
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([np.datetime64(r[2], "us") for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows]),
        "value": pa.array([float(r[4]) for r in rows]),
        "props": pa.array(["{}"] * len(rows)),
    }), tmp_path / "events.parquet")
    return str(tmp_path)


# ------------------------------------------------------------- ssjoin


def test_ssjoin_planted(ray_session, tmp_path):
    """Bigram sets: d1={ab,bc,cd}, d2={ab,bc,ce} → J = 2/4 = 0.5 ≥ τ;
    d3 disjoint; d4 == d1 → J = 1.  Exact micro ratios."""
    sf = _write_docs(tmp_path, [
        (1, "a b c d"),
        (2, "a b c e"),
        (3, "x y z"),
        (4, "a b c d"),
    ])
    from nativeextractor_ray.pipelines.ssjoin import ssjoin_jaccard

    got = _df(ssjoin_jaccard(sf)).sort_values(
        ["doc_a", "doc_b"]).reset_index(drop=True)
    rows = [tuple(r) for r in
            got[["doc_a", "doc_b", "inter", "un", "jacc_micro"]]
            .itertuples(index=False)]
    assert rows == [(1, 2, 2, 4, 500000), (1, 4, 3, 3, 1000000),
                    (2, 4, 2, 4, 500000)]


def test_ssjoin_fallback_path_identical(ray_session, tmp_path):
    """Hash-order fallback (no df broadcast) emits the identical pair
    set — any fixed total order satisfies the prefix-filter theorem."""
    docs = [(i, f"w{i % 3} common a b w{i % 5} c d e") for i in range(12)]
    sf = _write_docs(tmp_path, docs)
    from nativeextractor_ray.pipelines.ssjoin import ssjoin_jaccard

    a = _df(ssjoin_jaccard(sf, use_df_order=True)).sort_values(
        ["doc_a", "doc_b"]).reset_index(drop=True)
    b = _df(ssjoin_jaccard(sf, use_df_order=False)).sort_values(
        ["doc_a", "doc_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0  # the fixture actually produces pairs


def test_ssjoin_joinback_path_identical(ray_session, tmp_path,
                                        monkeypatch):
    """Forcing the sets-broadcast bound to 0 drives the two-exchange
    join-back path; its pair set must be bit-identical to the broadcast
    in-bucket verify (the repo's size-gate convention)."""
    from nativeextractor_ray.pipelines import common, ssjoin

    docs = [(i, f"w{i % 3} common a b w{i % 5} c d e") for i in range(12)]
    docs += [(100, "x y z t u v"), (101, "x y z t u q")]
    sf = _write_docs(tmp_path, docs)
    a = _df(ssjoin.ssjoin_jaccard(sf)).sort_values(
        ["doc_a", "doc_b"]).reset_index(drop=True)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    b = _df(ssjoin.ssjoin_jaccard(sf)).sort_values(
        ["doc_a", "doc_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_ssjoin_joinback_bitsets_cover_only_referenced_sets(monkeypatch):
    """The join-back verify builds its gram lookup, vocabulary and
    bitsets only for the set rows some candidate pair names as doc_b —
    not for every set row co-partitioned with the pairs."""
    from nativeextractor_ray.pipelines import ssjoin

    def union_rows(k, other, grams, is_set):
        return {"k": k, "other": other, "s": len(grams), "grams": grams,
                "is_set": is_set, "part": 0}

    # 40 set rows no pair references, plus doc_b rows 101 and 201
    rows = [union_rows(i, 0, [1000 + 3 * i, 1001 + 3 * i], True)
            for i in range(40)]
    rows += [union_rows(101, 0, [1, 2, 3, 4, 5], True),
             union_rows(201, 0, [10, 11, 12], True)]
    # pair rows: k = doc_b, other = doc_a, grams = doc_a's grams
    rows += [union_rows(101, 100, [1, 2, 3, 4, 6], False),
             union_rows(201, 200, [20, 21, 22], False)]
    t = pa.Table.from_pylist(rows, schema=pa.schema([
        ("k", pa.int64()), ("other", pa.int64()), ("s", pa.int64()),
        ("grams", pa.list_(pa.int64())), ("is_set", pa.bool_()),
        ("part", pa.int64())]))

    seen = []
    real = ssjoin._gram_lookup

    def spy(set_tbl):
        seen.append(sorted(set_tbl.column("k").to_pylist()))
        return real(set_tbl)

    monkeypatch.setattr(ssjoin, "_gram_lookup", spy)
    got = ssjoin._verify_joined(t, ssjoin.TAU_NUM, ssjoin.TAU_DEN)
    assert seen == [[101, 201]]
    # |{1..5} ∩ {1,2,3,4,6}| = 4, union 6 → J = 2/3; 200/201 share nothing
    assert got.to_pylist() == [{"doc_a": 100, "doc_b": 101, "inter": 4,
                                "un": 6, "jacc_micro": 666667}]


def test_ssjoin_prefix_payload_linear_in_doc_length():
    """The prefix exchange ships O((1-τ)·s) BYTES per doc, linear in the
    gram-set size — the round-4 shape tiled the full rank array once per
    prefix token (O((1-τ)·s²)); a 4× longer doc must grow the payload
    ~4×, not ~16× (VERDICT r4 item 2).  Drives the stage function
    directly — no Ray needed."""
    from nativeextractor_ray.pipelines.ssjoin import (
        TAU_DEN, TAU_NUM, emit_prefix_rows)

    def payload_bytes(s: int) -> int:
        rng = np.random.default_rng(7)
        grams = np.unique(rng.integers(0, 1 << 62, 2 * s))[:s]
        assert len(grams) == s
        offs = pa.array(np.array([0, s], np.int64), pa.int32())
        batch = pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "grams": pa.ListArray.from_arrays(offs, pa.array(grams)),
            "s": pa.array([s], pa.int64())})
        out = emit_prefix_rows(batch, None, TAU_NUM, TAU_DEN)
        # every emitted column is a flat int64 — no list column remains
        assert all(not pa.types.is_nested(f.type) for f in out.schema)
        return out.nbytes

    b1, b4 = payload_bytes(1000), payload_bytes(4000)
    assert b4 < 6 * b1, (b1, b4)  # linear (≈4×), not quadratic (≈16×)


# -------------------------------------------------- peak concurrency


def test_peak_concurrency_planted(ray_session, tmp_path):
    """Three overlapping sessions peak at 3; the point session at 00:06
    counts (closed intervals — starts order before ends at equal ts);
    the far-away singleton does not extend the peak."""
    sf = _write_events(tmp_path, [
        (1, 1, "2024-01-01T00:00:00", "a", 1),
        (2, 1, "2024-01-01T00:10:00", "a", 1),   # u1: [00:00, 00:10]
        (3, 2, "2024-01-01T00:05:00", "a", 1),
        (4, 2, "2024-01-01T00:12:00", "a", 1),   # u2: [00:05, 00:12]
        (5, 3, "2024-01-01T00:06:00", "a", 1),   # u3: point [00:06]
        (6, 4, "2024-01-01T05:00:00", "a", 1),   # far singleton
        (7, 1, "2024-01-01T01:00:00", "a", 1),   # u1 second session
    ])
    from nativeextractor_ray.pipelines.events import peak_concurrency

    got = _df(peak_concurrency(sf))
    assert int(got["peak_sessions"][0]) == 3
    t6 = int(np.datetime64("2024-01-01T00:06:00", "us").astype(np.int64))
    assert int(got["first_peak_us"][0]) == t6


# ------------------------------------------------------------ skyline


def _write_orders(tmp_path, rows):
    pq.write_table(pa.table({
        "o_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "o_custkey": pa.array([r[1] for r in rows], pa.int64()),
        "o_orderstatus": pa.array([r[2] for r in rows]),
        "o_totalprice": pa.array([float(r[3]) for r in rows]),
        "o_orderdate": pa.array([np.datetime64(r[4], "us") for r in rows],
                                pa.timestamp("us")),
        "o_orderpriority": pa.array([r[5] for r in rows]),
    }), tmp_path / "orders.parquet")
    return str(tmp_path)


def test_skyline_planted(ray_session, tmp_path):
    """Frontier on (max price, min date); equal-(price, date) duplicates
    are both kept; equal price + later date is dominated."""
    sf = _write_orders(tmp_path, [
        (1, 1, "O", 100.0, "2024-01-03", "1-URGENT"),  # top price
        (2, 1, "O", 95.0, "2024-01-02", "1-URGENT"),   # frontier
        (3, 1, "O", 95.0, "2024-01-02", "1-URGENT"),   # duplicate: kept
        (4, 1, "O", 95.0, "2024-01-04", "1-URGENT"),   # dominated by 2/3
        (5, 1, "O", 90.0, "2024-01-01", "1-URGENT"),   # frontier
        (6, 1, "O", 80.0, "2024-01-02", "1-URGENT"),   # dominated by 5
    ])
    from nativeextractor_ray.pipelines.skyline import skyline_orders

    got = _df(skyline_orders(sf))
    assert sorted(got["o_orderkey"]) == [1, 2, 3, 5]


def test_skyline_local_kernel_matches_bruteforce(ray_session):
    """Vectorized local-skyline kernel vs O(n²) reference on a seeded
    random set with ties."""
    from nativeextractor_ray.pipelines.skyline import _local_skyline

    rng = np.random.RandomState(7)
    n = 300
    key = np.arange(n, dtype=np.int64)
    price = rng.randint(0, 40, n).astype(np.int64)
    date = rng.randint(0, 40, n).astype(np.int64)
    k, p, d = _local_skyline(key, price, date)
    keep = set()
    for i in range(n):
        dominated = any(
            (price[j] >= price[i] and date[j] <= date[i])
            and (price[j] > price[i] or date[j] < date[i])
            for j in range(n))
        if not dominated:
            keep.add(i)
    assert set(k.tolist()) == keep


# -------------------------------------------------- weighted sampling


def test_weighted_sample_planted(ray_session, tmp_path):
    """Winners = the k smallest (md5-u / weight) priorities, computed
    independently here; zero-weight docs excluded."""
    docs = [(i, "x" * (i * 7 % 23 + 1)) for i in range(1, 40)]
    sf = _write_docs(tmp_path, docs)
    from nativeextractor_ray.pipelines.curation import weighted_sample

    got = _df(weighted_sample(sf, k=5))
    pri = {}
    for i, text in docs:
        h = int.from_bytes(
            hashlib.md5(str(i).encode()).digest()[8:16], "little")
        pri[i] = ((h >> 11) + 1.0) / len(text)
    want = sorted(pri, key=lambda i: (pri[i], i))[:5]
    assert sorted(got["doc_id"].tolist()) == sorted(want)
    # reported priorities are the exact doubles
    for _, r in got.iterrows():
        assert r["priority"] == pri[int(r["doc_id"])]


# ----------------------------------------------------- column profile


def test_column_profile_planted(ray_session, tmp_path):
    sf = _write_orders(tmp_path, [
        (1, 10, "O", 1.01, "2024-01-01", "1-URGENT"),
        (2, 10, "F", 2.0, "2024-01-02", "2-HIGH"),
        (3, 20, "O", 2.0, "2024-01-03", "2-HIGH"),
    ])
    from nativeextractor_ray.pipelines.audit import column_profile

    got = _df(column_profile(sf)).set_index("column")
    assert int(got.loc["o_custkey", "n_distinct"]) == 2
    assert got.loc["o_custkey", "min_v"] == "10"
    assert got.loc["o_custkey", "max_v"] == "20"
    # cents: 1.01 → 101, 2.0 → 200
    assert int(got.loc["o_totalprice", "n_distinct"]) == 2
    assert got.loc["o_totalprice", "min_v"] == "101"
    assert got.loc["o_totalprice", "max_v"] == "200"
    assert int(got.loc["o_orderstatus", "n_distinct"]) == 2
    assert (got["n_rows"] == 3).all()
    assert (got["n_null"] == 0).all()


def test_column_profile_high_cardinality(ray_session, tmp_path):
    """Planted high-cardinality column: the exact-distinct exchange ships
    16-byte value digests, never the strings, and the count stays exact
    across dedup partitions (every custkey unique → n_distinct == n_rows;
    prices collide down to 500 cents values)."""
    n = 4000
    rows = [(i, 1_000_000 + i * 7, "O", (i % 500) + 0.25,
             "2024-01-01", "1-URGENT") for i in range(n)]
    sf = _write_orders(tmp_path, rows)
    from nativeextractor_ray.pipelines.audit import column_profile

    got = _df(column_profile(sf)).set_index("column")
    assert int(got.loc["o_custkey", "n_distinct"]) == n
    assert int(got.loc["o_totalprice", "n_distinct"]) == 500
    assert int(got.loc["o_orderstatus", "n_distinct"]) == 1
    assert (got["n_rows"] == n).all()


def test_bounce_and_peak_empty_events(ray_session, tmp_path):
    """Degenerate input must MATCH the SQL oracle, not crash: DuckDB's
    0 // 0 is NULL, so session_bounce_rate returns (0, 0, NULL) and
    peak_concurrency's max-over-empty returns (NULL, NULL)."""
    sf = _write_events(tmp_path, [])
    from nativeextractor_ray.pipelines.events import (
        peak_concurrency, session_bounce_rate)

    b = _df(session_bounce_rate(sf))
    assert int(b["n_sessions"][0]) == 0 and int(b["n_bounce"][0]) == 0
    assert pd.isna(b["bounce_micro"][0])
    p = _df(peak_concurrency(sf))
    assert pd.isna(p["peak_sessions"][0])
    assert pd.isna(p["first_peak_us"][0])


# ----------------------------------------------------------- grouped mode


def test_modal_value_planted(ray_session, tmp_path):
    """Tie between two equally-frequent cents → the smaller wins."""
    sf = _write_events(tmp_path, [
        (1, 1, "2024-01-01T00:00", "a", 5.00),
        (2, 1, "2024-01-01T00:01", "a", 5.00),
        (3, 1, "2024-01-01T00:02", "a", 3.00),
        (4, 1, "2024-01-01T00:03", "a", 3.00),   # tie 2–2 → 300 wins
        (5, 1, "2024-01-01T00:04", "b", 7.00),
    ])
    from nativeextractor_ray.pipelines.events import modal_value_by_type

    got = _df(modal_value_by_type(sf)).set_index("event_type")
    assert int(got.loc["a", "cents"]) == 300 and int(got.loc["a", "n"]) == 2
    assert int(got.loc["b", "cents"]) == 700 and int(got.loc["b", "n"]) == 1


# ------------------------------------------------------- path trigrams


def test_event_path_trigrams_planted(ray_session, tmp_path):
    """Trigrams never cross user boundaries; ordering is (ts, event_id)."""
    sf = _write_events(tmp_path, [
        (1, 1, "2024-01-01T00:00", "a", 1),
        (2, 1, "2024-01-01T00:01", "b", 1),
        (3, 1, "2024-01-01T00:02", "c", 1),
        (4, 1, "2024-01-01T00:03", "a", 1),
        (5, 2, "2024-01-01T00:00", "b", 1),   # u2 has only 2 events
        (6, 2, "2024-01-01T00:01", "c", 1),
    ])
    from nativeextractor_ray.pipelines.windows import event_path_trigrams

    got = _df(event_path_trigrams(sf)).sort_values(
        ["t1", "t2", "t3"]).reset_index(drop=True)
    rows = [tuple(r) for r in got.itertuples(index=False)]
    assert rows == [("a", "b", "c", 1), ("b", "c", "a", 1)]


# ------------------------------------------------- round-5 new ops


def test_hash_sample_planted(ray_session, tmp_path):
    """The k winners are exactly the k smallest md5-lower64(doc_id)
    ranks — reproducible with no RNG state."""
    import hashlib

    docs = [(i, f"w{i} text body") for i in range(30)]
    sf = _write_docs(tmp_path, docs)
    from nativeextractor_ray.pipelines.curation import hash_sample

    got = _df(hash_sample(sf, k=5))
    ranks = sorted(
        (int.from_bytes(hashlib.md5(str(i).encode()).digest()[8:16],
                        "little"), i) for i, _ in docs)
    want = [i for _, i in ranks[:5]]
    assert list(got["doc_id"]) == want


def test_corpus_summary_planted(ray_session, tmp_path):
    sf = _write_docs(tmp_path, [(1, "a b c"), (2, "d e")])
    from nativeextractor_ray.pipelines.textstats import corpus_summary

    got = _df(corpus_summary(sf)).iloc[0]
    assert int(got["n_docs"]) == 2
    assert int(got["n_tokens"]) == 5
    assert int(got["n_chars"]) == 5 + 3  # len("a b c") + len("d e")
    assert int(got["n_langs"]) == 1 and int(got["n_sources"]) == 1
    assert int(got["mean_chars_micro"]) == 4_000_000


def test_corpus_summary_null_comma_empty_match_duckdb(ray_session, tmp_path):
    """NULL lang/source, values containing ',' and '' count exactly as
    DuckDB's count(DISTINCT) does (NULL skipped, '' counted)."""
    import duckdb

    from nativeextractor_ray.pipelines.textstats import (
        CORPUS_SUMMARY_SQL, corpus_summary)

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array(["a b", "c", "d e f", "g", "h"]),
        "lang": pa.array(["en,cs", None, "", "en", "en,cs"]),
        "source": pa.array([None, "web,forum", "web", "", None]),
        "n_chars": pa.array([3, 1, 5, 1, 1], pa.int64()),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    got = _df(corpus_summary(str(tmp_path)))
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.sql(CORPUS_SUMMARY_SQL).df()
    assert (int(want["n_langs"][0]), int(want["n_sources"][0])) == (3, 3)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_source_dedup_matrix_fallback_matches_broadcast(ray_session,
                                                        monkeypatch):
    """Bound 0 forces the two doc-keyed co-partition attaches; output
    must equal the broadcast probe + driver fold."""
    from nativeextractor_ray.pipelines import common, dedup

    sf = "/root/testdata/sf0.001"
    cols = ["source_a", "source_b"]
    base = _df(dedup.source_dedup_matrix(sf)).sort_values(
        cols).reset_index(drop=True)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    forced = _df(dedup.source_dedup_matrix(sf)).sort_values(
        cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(base, forced)
    assert len(base) > 0
