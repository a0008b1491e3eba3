"""The queries that co-locate rows with ``common.exchange``, on degenerate
inputs: copies of sf0.001 whose ``documents``, ``events`` and
``embeddings`` tables hold no rows, or one row, and, for the relational
joins, copies whose ``orders`` and ``lineitem`` do, with both bounds of
the size planner (``common.DRIVER_BOUND``, ``common.BROADCAST_BOUND``)
at 0, so every gate takes its shuffle path; the graph, canonicalization
and dedup-family queries run on the first copies the same way.  Each
query is compared with its DuckDB oracle as in
``test_oracle_parity.py``.  An
empty Ray Dataset carries no schema, so where the oracle returns no rows
the query must return no rows, with the oracle's columns if it has any."""

import shutil

import duckdb
import pandas as pd
import pyarrow.parquet as pq
import pytest

from nativeextractor_ray.pipelines import common, decontam, dedup, graph
from test_oracle_parity import TABLES, _norm, _to_table

DEGENERATE = ["documents", "events", "embeddings"]

QUERIES = [
    # kg
    "conv_entity_flow", "entities", "conv_digest_salted",
    "turn_role_transitions", "tool_latency", "trending_terms",
    "tool_transitions", "conv_entity_density", "entity_timeline",
    # events
    "events_sessionized", "top_events_per_user", "errors_prior_window",
    "funnel_counts", "retention_cohorts", "event_type_affinity",
    "peak_concurrency", "weekly_active_users", "transition_dwell",
    "session_bounce_rate",
    # windows
    "event_gaps", "user_running_value", "first_touch", "user_value_rank",
    "event_transitions", "user_rolling_sum", "late_event_stats",
    "event_path_trigrams",
    # similarity
    "knn_graph",
]


# the relational joins, on empty and one-row orders and lineitem (the
# as-of join reads events, cut with them)
REL_DEGENERATE = ["orders", "lineitem", "events"]
REL_QUERIES = [
    "purchases_asof_clicks", "anti_join_customers", "shipping_priority_topk",
    "local_supplier_volume", "large_order_customers", "small_order_revenue",
    "order_fill_report", "late_shipment_priority", "idle_customer_balance",
    "min_cost_supplier", "nation_trade_volume", "returned_item_revenue",
    "late_line_priority_mix", "sole_late_supplier", "market_share",
    "product_type_profit",
    # semi_anti_join callers outside relational.py
    "referential_audit", "order_count_distribution",
    # quantiles: the orders/lineitem tagged-union exchange
    "ship_latency_quantiles",
]


def _cut_copy(sf_dir, out, cut: list[str], rows: int):
    """(sf_dir copy, DuckDB connection on it) with the ``cut`` tables
    holding their first ``rows`` rows."""
    con = duckdb.connect()
    for name in TABLES:
        t = pq.read_table(f"{sf_dir}/{name}.parquet")
        if name in cut:
            t = t.slice(0, rows)
        pq.write_table(t, out / f"{name}.parquet")
        con.register(name, t)
    return str(out), con


@pytest.fixture(scope="module", params=[0, 1], ids=["empty", "one_row"])
def degenerate(request, sf_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"sf_rows{request.param}")
    run_dir, con = _cut_copy(sf_dir, out, DEGENERATE, request.param)
    yield run_dir, con
    con.close()
    shutil.rmtree(out, ignore_errors=True)


@pytest.fixture(scope="module", params=[0, 1], ids=["empty", "one_row"])
def rel_degenerate(request, sf_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"sf_rel_rows{request.param}")
    run_dir, con = _cut_copy(sf_dir, out, REL_DEGENERATE, request.param)
    yield run_dir, con
    con.close()
    shutil.rmtree(out, ignore_errors=True)


def _check_oracle(name, run_dir, con):
    import __ray_entry__ as e

    got = _to_table(e.queries()[name](run_dir))
    want = _norm(con.sql(e.oracle_sql()[name]).arrow())
    if got.num_columns == 0:
        assert got.num_rows == 0 and len(want) == 0, (name, len(want))
        return
    got = _norm(got)
    assert list(got.columns) == list(want.columns), name
    assert len(got) == len(want), f"{name}: {len(got)} vs {len(want)} rows"
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-6)


@pytest.mark.parametrize("name", QUERIES)
def test_exchange_query_on_degenerate_input(name, degenerate, ray_session):
    _check_oracle(name, *degenerate)


@pytest.mark.parametrize("name", REL_QUERIES)
def test_relational_shuffle_path_on_degenerate_input(name, rel_degenerate,
                                                     ray_session, monkeypatch):
    monkeypatch.setattr(common, "DRIVER_BOUND", 0)
    monkeypatch.setattr(common, "BROADCAST_BOUND", 0)
    _check_oracle(name, *rel_degenerate)


# the graph, canonicalization and dedup-family queries on common.exchange
# that read documents (triples derive from it) or embeddings
GATED_QUERIES = [
    # graph + canonicalization
    "entity_degree", "degree_distribution", "two_hop_counts",
    "triangle_counts", "entity_neighbor_jaccard", "surface_link_candidates",
    "kcore_entities", "seed_reachability", "entity_pagerank",
    "entity_components",
    # dedup
    "dedup_minhash", "dedup_simhash", "dedup_ngram_jaccard",
    "dedup_embedding", "dedup_clusters", "dedup_semantic",
    "dedup_incremental", "dup_rate_by_source", "dedup_minhash_incremental",
    "dup_cluster_sizes", "source_dedup_matrix",
    # decontam, lmscore, curation
    "boilerplate_ngrams", "dup_spans", "cdc_chunks", "lm_score",
    "perplexity_buckets", "curation_e2e", "sample_k_per_source",
    "exact_stratified_split",
    # similarity: trains dedup_semantic's quantizer
    "ann_ivf_topk",
    # textstats, bpe, ssjoin, versioned, quantiles
    "top_terms_tfidf", "inverted_index", "tokenize_ids", "source_report",
    "term_freq_histogram", "bpe_train", "bpe_encode", "ssjoin_jaccard",
    "snapshot_compact", "snapshot_diff", "session_duration_quantiles",
]
# gates forced to 0 (CC_DRIVER_MAX to -1) so every query takes its
# exchange path
GATES = {
    common: ["DRIVER_BOUND", "BROADCAST_BOUND"],
    graph: ["VOCAB_BOUND"],
    decontam: ["BENCH_BROADCAST_BOUND"],
}
# their oracles build literals (trained centroids, BPE merges) from the
# table they run against
TRAINED_ON_TABLE = {"dedup_semantic", "ann_ivf_topk", "bpe_train",
                    "bpe_encode"}
# VOCAB_BOUND has no exchange arm: it only fails loudly when the entity
# vocabulary would not fit the driver, so at 0 every query that collects
# a non-empty vocabulary must raise
VOCAB_COLLECTORS = {"triangle_counts", "entity_neighbor_jaccard",
                    "kcore_entities", "seed_reachability", "entity_pagerank"}


@pytest.mark.parametrize("name", GATED_QUERIES)
def test_gated_query_exchange_path_on_degenerate_input(
        name, degenerate, ray_session, monkeypatch, request):
    for mod, bounds in GATES.items():
        for bound in bounds:
            monkeypatch.setattr(mod, bound, 0)
    monkeypatch.setattr(dedup, "CC_DRIVER_MAX", -1)
    run_dir, con = degenerate
    rows = request.node.callspec.params["degenerate"]
    if name in TRAINED_ON_TABLE:
        monkeypatch.setenv("GRAFT_ORACLE_SF_DIR", run_dir)
    if name in VOCAB_COLLECTORS and rows:
        import __ray_entry__ as e

        with pytest.raises(ValueError, match="driver bound"):
            e.queries()[name](run_dir)
        return
    _check_oracle(name, run_dir, con)


def test_every_oracle_builds_and_runs_on_degenerate_input(degenerate,
                                                          monkeypatch):
    """The oracles that read the table at build time (trained centroids,
    covariance, BPE merges, mix thresholds) build on it, and every oracle
    runs."""
    import __ray_entry__ as e

    run_dir, con = degenerate
    monkeypatch.setenv("GRAFT_ORACLE_SF_DIR", run_dir)
    for name, sql in e.oracle_sql().items():
        con.sql(sql).arrow()


@pytest.fixture(scope="module")
def null_text(sf_dir, tmp_path_factory):
    """(sf_dir copy, DuckDB connection on it) with every third
    ``documents.text`` NULL; the derived turns of those documents have NULL
    text too, except where the derivation substitutes its constant text."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    out = tmp_path_factory.mktemp("sf_null_text")
    con = duckdb.connect()
    for name in TABLES:
        t = pq.read_table(f"{sf_dir}/{name}.parquet")
        if name == "documents":
            null = pa.array(np.arange(t.num_rows) % 3 == 1)
            text = pc.if_else(null, pa.scalar(None, t.schema.field("text").type), t["text"])
            t = t.set_column(t.schema.get_field_index("text"), "text", text)
        pq.write_table(t, out / f"{name}.parquet")
        con.register(name, t)
    from nativeextractor_ray.sources.transcripts import TRANSCRIPTS_SQL

    assert con.sql(f"SELECT count(*) FROM ({TRANSCRIPTS_SQL}) WHERE text IS NULL").fetchone()[0]
    yield str(out), con
    con.close()
    shutil.rmtree(out, ignore_errors=True)


@pytest.mark.parametrize("name", ["mention_counts", "mentions_dict", "triples"])
def test_null_text_gives_no_mentions_or_entities(name, null_text, ray_session):
    """NULL text: no mentions and no entities (``regexp_extract_all(NULL)``
    unnests to no rows), while the turn's ``uses_tool`` triple counts."""
    import __ray_entry__ as e

    run_dir, con = null_text
    got = _norm(_to_table(e.queries()[name](run_dir)))
    want = _norm(con.sql(e.oracle_sql()[name]).arrow())
    assert list(got.columns) == list(want.columns), name
    assert len(got) == len(want), f"{name}: {len(got)} vs {len(want)} rows"
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-6)
