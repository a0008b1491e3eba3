"""Planted-fixture tests for the round-3d operators (sentence_split,
value_outliers, anti_join_customers, embedding_quantize) — semantics
beyond the DuckDB oracle parity gate (which, for sentence_split, sees a
punctuation-free corpus and therefore only checks plumbing)."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _df(res) -> pd.DataFrame:
    import ray

    if isinstance(res, pa.Table):
        return res.to_pandas()
    parts = [ray.get(r) for r in res.to_arrow_refs()]
    parts = [p for p in parts if p.num_rows] or parts[:1]
    return pa.concat_tables(parts, promote_options="default").to_pandas()


def _write(tmp_path, name: str, table: pa.Table) -> str:
    import pyarrow.parquet as pq

    pq.write_table(table, tmp_path / f"{name}.parquet")
    return str(tmp_path)


# --------------------------------------------------------- sentence_split


def test_sentence_split_planted(ray_session, tmp_path):
    """Docs with real punctuation: multi-sentence turns split at [.!?]+\\s+
    boundaries, 1-based numbering over the raw split, and the result equals
    the DuckDB replay of the same planted dir."""
    import duckdb

    from nativeextractor_ray.pipelines.curation import (
        SENTENCE_SPLIT_SQL, sentence_split)

    # ids avoid doc_id % 13 == 7 (the derivation's DUP_TEXT substitution)
    sf = _write(tmp_path, "documents", pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "Hello there. How are you?  Fine! Thanks",
            "One sentence only",
            "Trailing punct. ",
        ]),
    }))

    got = _df(sentence_split(sf)).sort_values(
        ["conv_id", "turn_idx", "sent_idx"]).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(SENTENCE_SPLIT_SQL).df().sort_values(
        ["conv_id", "turn_idx", "sent_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)

    # doc 1 genuinely splits into 4 sentences (punct runs consumed)
    d1 = got[got["sent_idx"] > 1]
    assert len(d1) >= 3
    first = got.iloc[0]
    assert first["sentence"].startswith("Hello there")
    assert (got["n_chars"] > 0).all()


# --------------------------------------------------------- value_outliers


def test_value_outliers_planted(ray_session, tmp_path):
    """100 inliers at value=10 and one 1000-valued spike: exactly the spike
    is flagged, with a large positive z-score."""
    from nativeextractor_ray.pipelines.events import value_outliers

    n = 100
    sf = _write(tmp_path, "events", pa.table({
        "event_id": pa.array(list(range(n + 1)), pa.int64()),
        "event_type": pa.array(["click"] * (n + 1)),
        "value": pa.array([10.0] * n + [1000.0], pa.float64()),
    }))

    got = _df(value_outliers(sf))
    assert list(got["event_id"]) == [n]
    assert got["z_score"].iloc[0] > 9.0


def test_value_outliers_per_type_stats(ray_session, tmp_path):
    """Stats are per event_type: the same value can be an outlier in one
    type and an inlier in another."""
    from nativeextractor_ray.pipelines.events import value_outliers

    # type A: tight around 10, one 50 → outlier. type B: wide spread,
    # 50 is within range → not flagged.
    vals_a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8] * 10 + [50.0]
    vals_b = [float(v) for v in range(0, 101, 10)]  # 0..100, std ~31
    sf = _write(tmp_path, "events", pa.table({
        "event_id": pa.array(list(range(len(vals_a) + len(vals_b))), pa.int64()),
        "event_type": pa.array(["a"] * len(vals_a) + ["b"] * len(vals_b)),
        "value": pa.array(vals_a + vals_b, pa.float64()),
    }))

    got = _df(value_outliers(sf))
    assert set(got["event_type"]) == {"a"}
    assert list(got["event_id"]) == [len(vals_a) - 1]


# ----------------------------------------------------- anti_join_customers


def test_anti_join_broadcast_equals_shuffle(ray_session, tmp_path, monkeypatch):
    """Customers with no orders; the broadcast searchsorted path and the
    forced co-partitioned shuffle path return the identical set."""
    from nativeextractor_ray.pipelines import common, relational

    n_cust, n_orders = 200, 300
    rng = np.random.default_rng(11)
    ordered = rng.choice(n_cust, n_orders)  # some customers never drawn
    sf = _write(tmp_path, "customer", pa.table({
        "c_custkey": pa.array(list(range(n_cust)), pa.int64()),
        "c_name": pa.array([f"cust{i}" for i in range(n_cust)]),
        "c_mktsegment": pa.array(["SEG" + str(i % 3) for i in range(n_cust)]),
    }))
    # half the drawn orders are urgent; only those count as "ordered"
    urgent = np.arange(n_orders) % 2 == 0
    _write(tmp_path, "orders", pa.table({
        "o_custkey": pa.array(ordered, pa.int64()),
        "o_orderpriority": pa.array(
            np.where(urgent, "1-URGENT", "3-MEDIUM").astype(object),
            pa.string()),
    }))

    want = sorted(set(range(n_cust)) - set(ordered[urgent].tolist()))
    assert want, "fixture must leave some customers orderless"

    a = _df(relational.customers_without_orders(sf)).sort_values(
        "c_custkey").reset_index(drop=True)
    assert list(a["c_custkey"]) == want

    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    b = _df(relational.customers_without_orders(sf)).sort_values(
        "c_custkey").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


def test_semi_join_keeps_matching(ray_session, tmp_path):
    """semi=non-anti keeps exactly the complement of the anti result."""
    from nativeextractor_ray.pipelines import relational
    from nativeextractor_ray.sources.tables import read_table

    sf = _write(tmp_path, "customer", pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_name": pa.array(list("abcd")),
        "c_mktsegment": pa.array(["S"] * 4),
    }))
    _write(tmp_path, "orders", pa.table({
        "o_custkey": pa.array([2, 2, 4], pa.int64()),
    }))

    cust = read_table(sf, "customer", ["c_custkey", "c_name", "c_mktsegment"])
    okeys = read_table(sf, "orders", ["o_custkey"])
    semi = _df(relational.semi_anti_join(cust, okeys, "c_custkey", anti=False))
    assert sorted(semi["c_custkey"]) == [2, 4]


# --------------------------------------------------- embedding_quantize


def test_embedding_quantize_exact(ray_session, tmp_path):
    """Hand-computed codes for a known vector: scale = max|x|/127,
    code = floor(x/scale + 0.5)."""
    import pyarrow.parquet as pq

    from nativeextractor_ray.pipelines.similarity import embedding_quantize

    v = [1.0, -0.5, 0.25, 0.0]
    pq.write_table(pa.table({
        "vec_id": pa.array([0], pa.int64()),
        "embedding": pa.array([v], pa.list_(pa.float32())),
    }), tmp_path / "embeddings.parquet")

    got = _df(embedding_quantize(str(tmp_path)))
    scale = 1.0 / 127
    codes = np.floor(np.array(v) / scale + 0.5)
    assert list(codes) == [127.0, -63.0, 32.0, 0.0]
    assert got["code_sum"].iloc[0] == int(codes.sum())
    assert abs(got["scale"].iloc[0] - round(scale, 8)) < 1e-12
    mse = float(np.mean((np.array(v) - codes * scale) ** 2))
    assert abs(got["mse"].iloc[0] - round(mse, 10)) < 1e-9


# -------------------------------------------------------- masked_spans


def test_masked_spans_matches_scalar_reference(ray_session, tmp_path):
    """The vectorized gaps-and-islands run detection equals a per-doc
    scalar replay of the mask rule on a mixed corpus."""
    from nativeextractor_ray.pipelines.curation import (
        MASK_MOD, MASK_MULT_DOC, MASK_MULT_TOK, MASK_THR, masked_spans)

    rng = np.random.default_rng(3)
    texts = [" ".join(f"w{j}" for j in range(rng.integers(1, 60)))
             for _ in range(40)]
    ids = list(range(40))
    sf = _write(tmp_path, "documents", pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts),
    }))

    got = _df(masked_spans(sf)).sort_values(
        ["doc_id", "span_idx"]).reset_index(drop=True)

    rows = []
    for did, txt in zip(ids, texts):
        toks = [w for w in txt.split() if w]
        masked = [i for i in range(len(toks))
                  if (did * MASK_MULT_DOC + i * MASK_MULT_TOK) % MASK_MOD < MASK_THR]
        spans, cur = [], None
        for i in masked:
            if cur is not None and i == cur[1] + 1:
                cur[1] = i
            else:
                if cur:
                    spans.append(cur)
                cur = [i, i]
        if cur:
            spans.append(cur)
        for k, (s, e) in enumerate(spans, start=1):
            rows.append((did, k, s, e - s + 1))
    want = pd.DataFrame(rows, columns=["doc_id", "span_idx", "start_tok",
                                       "span_len"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(want) > 10  # the fixture genuinely exercises runs


# ---------------------------------------------- domain_mix_temperature


def test_domain_mix_temperature_interpolates(ray_session, tmp_path):
    """alpha=1 keeps everything; alpha=0 downsamples every domain to
    ~n_min; alpha=0.5 sits between, ordered by domain size."""
    from nativeextractor_ray.pipelines.curation import domain_mix_temperature

    langs = ["en"] * 800 + ["de"] * 200 + ["fr"] * 50
    sf = _write(tmp_path, "documents", pa.table({
        "doc_id": pa.array(list(range(len(langs))), pa.int64()),
        "lang": pa.array(langs),
    }))

    full = _df(domain_mix_temperature(sf, alpha=1.0))
    assert len(full) == len(langs)

    uni = _df(domain_mix_temperature(sf, alpha=0.0))
    vc0 = uni["lang"].value_counts()
    assert vc0["fr"] == 50  # smallest domain keeps everything
    assert vc0["en"] < 110 and vc0["de"] < 80  # ~n_min each, hash noise

    mid = _df(domain_mix_temperature(sf, alpha=0.5))
    vc5 = mid["lang"].value_counts()
    # target en = sqrt(800*50) = 200, de = sqrt(200*50) = 100, fr = 50
    assert 150 < vc5["en"] < 260
    assert 70 < vc5["de"] < 135
    assert vc5["fr"] == 50
    # deterministic: same doc -> same verdict across runs
    again = _df(domain_mix_temperature(sf, alpha=0.5))
    assert sorted(again["doc_id"]) == sorted(mid["doc_id"])


def test_anti_join_shuffle_sparse_partitions(ray_session, tmp_path, monkeypatch):
    """Regression: with few rows and many hash partitions, most partitions
    hold rows from only ONE side — resolve() must not KeyError, int keys
    must stay exact int64 (no float padding), and output must equal the
    broadcast path."""
    from nativeextractor_ray.pipelines import common, relational

    big = (1 << 55) + 3  # far above float64's 2^53 exact-int range
    sf = _write(tmp_path, "customer", pa.table({
        "c_custkey": pa.array([1, 2, 3, 4, 5, big], pa.int64()),
        "c_name": pa.array(["a", "b", "c", "d", "e", "f"]),
        "c_mktsegment": pa.array(["S"] * 6),
    }))
    _write(tmp_path, "orders", pa.table({
        "o_custkey": pa.array([2, big], pa.int64()),
        "o_orderpriority": pa.array(["1-URGENT", "1-URGENT"]),
    }))

    a = _df(relational.customers_without_orders(sf)).sort_values(
        "c_custkey").reset_index(drop=True)
    assert list(a["c_custkey"]) == [1, 3, 4, 5]

    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    b = _df(relational.customers_without_orders(sf)).sort_values(
        "c_custkey").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns])
    assert str(b["c_custkey"].dtype) == "int64"


def test_value_outliers_extreme_values_exact(ray_session, tmp_path):
    """Values whose cents² exceeds int64 take the exact big-int path and
    still produce the correct outlier set."""
    from nativeextractor_ray.pipelines.events import value_outliers

    vals = [1.0e8] * 50 + [9.0e8]  # cents 1e10 -> cents² 1e20 > 2^63
    sf = _write(tmp_path, "events", pa.table({
        "event_id": pa.array(list(range(len(vals))), pa.int64()),
        "event_type": pa.array(["x"] * len(vals)),
        "value": pa.array(vals, pa.float64()),
    }))
    got = _df(value_outliers(sf))
    assert list(got["event_id"]) == [len(vals) - 1]


def test_masked_spans_overflow_raises(ray_session, tmp_path):
    """Past the documented doc_id bound the hash would wrap where DuckDB
    errors — the operator must fail loudly instead of diverging."""
    import pytest

    from nativeextractor_ray.pipelines.curation import masked_spans

    sf = _write(tmp_path, "documents", pa.table({
        "doc_id": pa.array([1 << 33], pa.int64()),
        "text": pa.array(["one two three"]),
    }))
    with pytest.raises(Exception, match="int64 hash bound"):
        _df(masked_spans(sf))


# ------------------------------------------------- minhash empty-doc guard


def test_dedup_minhash_empty_docs_no_crash(ray_session, tmp_path):
    """Regression: ≥2 token-free docs share every LSH band bucket (their
    empty shingle sets hash to identical all-max signatures) and used to
    raise ZeroDivisionError in the exact-verify leg; now they are excluded
    like the oracle's NULL-division rows, while a real dup pair still
    verifies."""
    from nativeextractor_ray.pipelines.dedup import dedup_minhash_pairs

    dup = "the quick brown fox jumps over the lazy dog again and again"
    sf = _write(tmp_path, "documents", pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array(["", "   ", "", dup, dup]),
    }))

    got = _df(dedup_minhash_pairs(sf))
    pairs = set(zip(got["doc_a"], got["doc_b"]))
    assert (3, 4) in pairs or (4, 3) in pairs
    assert all(a not in (0, 1, 2) and b not in (0, 1, 2) for a, b in pairs)
