#!/usr/bin/env python
"""Benchmark harness — headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": ..., "value": total_sec, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "turns": T, "turns_per_sec": r}

The headline metric is end-to-end triple extraction (transcripts →
mentions → link → canonicalize-into-entities → triples) in turns/sec
(BASELINE.json `metric`).  ``--scaling`` runs the headline job twice in
fresh subprocesses (4 then 16 CPUs, fully-loaded socket) on identical
input and reports both throughputs plus efficiency =
(r_hi/c_hi)/(r_lo/c_lo) — the sandbox stand-in for the N-vs-4N-node
cluster criterion.

This script OWNS its Ray session (the driver contract keeps
``__ray_entry__``/library code init-free).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# Importing the package points RAY_DATA_LOGGING_CONFIG at a config that
# silences the benign per-reduce-task "Failed to hash the schemas" spam
# (see nativeextractor_ray/__init__.py) — must happen BEFORE ray.init so
# workers inherit the env.
import nativeextractor_ray  # noqa: E402,F401
# replicate transcripts so the headline job is long enough to measure
# (documents@sf0.1 = 5k rows -> x160 = 800k turns); deterministic.
REPLICATE = int(os.environ.get("GRAFT_REPLICATE", "160"))
# best-of-N for the full suite: single samples on a shared host vary up
# to ~2.5x (simhash measured 3.7-9.7s across back-to-back runs); the
# minimum estimates capacity since contention only ever adds time.  The
# scaling path (GRAFT_BENCH_HEADLINE_ONLY) keeps its own subprocess-level
# trials and is NOT affected by this knob.
TRIALS = max(1, int(os.environ.get("GRAFT_BENCH_TRIALS", "2")))


def _best_of(fn, trials: int = 0) -> dict:
    """Run a timed section ``trials`` times, keep the fastest result.

    ``fn`` returns a dict with a ``"sec"`` key; all other keys (row
    counts, throughput) come from the same winning run so they stay
    mutually consistent."""
    best = None
    for _ in range(trials or TRIALS):
        r = fn()
        if best is None or r["sec"] < best["sec"]:
            best = r
    return best


def _consume(ds) -> int:
    """Fully execute a Dataset, streaming (no driver materialization).
    Driver-folded queries already return a plain Arrow table."""
    if not hasattr(ds, "iter_batches"):
        return ds.num_rows
    n = 0
    for b in ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
        n += b.num_rows
    return n


def run_headline() -> dict:
    """Triples pipeline at replicate=REPLICATE; returns timing + turns.

    Consumed with ``count()`` — execution is fully distributed and the
    count comes from block metadata, so the measurement excludes the
    serial driver-side deserialization a ``take``/``iter_batches`` pull
    would add (which would dominate at high CPU counts and skew the
    scaling ratio)."""
    import pyarrow.parquet as pq

    from nativeextractor_ray.pipelines.kg import triples_dataset

    # turns = docs × replicate by construction (deterministic derivation)
    n_docs = pq.ParquetFile(f"{SF_DIR}/documents.parquet").metadata.num_rows
    n_turns = n_docs * REPLICATE
    stats_path = os.environ.get("GRAFT_BENCH_STATS")
    t0 = time.perf_counter()
    ds = triples_dataset(SF_DIR, replicate=REPLICATE)
    if stats_path:
        ds = ds.materialize()
    n_triples = ds.count()
    dt = time.perf_counter() - t0
    if stats_path:
        with open(stats_path, "w") as f:
            f.write(ds.stats())
    return {"sec": dt, "turns": n_turns, "triples": n_triples,
            "turns_per_sec": n_turns / dt}


def run_headline_sf1() -> dict:
    """Headline at 10x the suite size (~8M turns at sf0.1) — long enough
    that sub-second host noise cannot mask a regression (VERDICT r2 item
    10).  Same deterministic replicate mechanism as the suite headline;
    scripts/make_sf1.py builds the equivalent on-disk sf1 for full-suite
    runs (recorded once in BASELINE.md)."""
    import pyarrow.parquet as pq

    from nativeextractor_ray.pipelines.kg import triples_dataset

    factor = int(os.environ.get("GRAFT_SF1_FACTOR", "10"))
    rep = REPLICATE * factor
    n_docs = pq.ParquetFile(f"{SF_DIR}/documents.parquet").metadata.num_rows
    t0 = time.perf_counter()
    n_triples = triples_dataset(SF_DIR, replicate=rep).count()
    dt = time.perf_counter() - t0
    return {"sec": dt, "turns": n_docs * rep, "triples": n_triples,
            "turns_per_sec": n_docs * rep / dt}


def run_mentions_throughput() -> dict:
    """Mention-detection (the reference's core competency) in bytes/sec —
    the closest apples-to-apples throughput framing vs a text-scanning
    engine.  Input bytes = total UTF-8 text scanned."""
    import pyarrow.compute as pc

    from nativeextractor_ray.pipelines.extract import mentions_dataset
    from nativeextractor_ray.sources.transcripts import transcripts_dataset

    tds = transcripts_dataset(SF_DIR, replicate=REPLICATE)
    n_bytes = sum(
        pc.sum(pc.binary_length(b.column("text"))).as_py() or 0
        for b in tds.iter_batches(batch_size=8192, batch_format="pyarrow")
    )
    t0 = time.perf_counter()
    n_mentions = mentions_dataset(SF_DIR, replicate=REPLICATE).count()
    dt = time.perf_counter() - t0
    return {"sec": dt, "bytes": n_bytes, "mentions": n_mentions,
            "mb_per_sec": n_bytes / dt / 1e6}


def run_gazetteer() -> dict:
    """100k-word gazetteer scan: FlatDictionary built once + ray.put once,
    resolved once per worker process (the PATTY-mmap economics, VERDICT
    r1 item 6)."""
    import numpy as np
    import ray

    from nativeextractor_ray.pipelines.extract import mentions_dataset
    from nativeextractor_ray.sources.transcripts import DICT_NAMES
    from nativeextractor_ray.state.flatdict import FlatDictionary

    rng = np.random.default_rng(5)
    big = {f"gz{int(x):07d}" for x in rng.integers(0, 10**7, size=100_000)}
    t0 = time.perf_counter()
    ref = ray.put(FlatDictionary(sorted(set(DICT_NAMES) | big)))
    build = time.perf_counter() - t0

    t0 = time.perf_counter()
    n = mentions_dataset(SF_DIR, specs=[("ner", (ref,), {"label": "Dict"})],
                         replicate=max(1, REPLICATE // 4)).count()
    return {"sec": round(time.perf_counter() - t0, 3),
            "build_sec": round(build, 3), "mentions": n}


def run_regex_scan() -> dict:
    """Custom reference-dialect regex scan (the ngrep -r path) over a
    ~100 MB corpus — powerset-DFA execution + joined-batch fast path
    (VERDICT r1 item 8's done-criterion)."""
    from nativeextractor_ray.pipelines.extract import mentions_dataset

    rep = max(1, REPLICATE // 2)  # ~100 MB of text at sf0.1
    t0 = time.perf_counter()
    n = mentions_dataset(SF_DIR, specs=[
        ("regex", ("[0-9]{4}-[0-9]{2}-[0-9]{2}",), {"label": "Iso"}),
        ("regex", ("\\w+@\\w+\\.\\w+",), {"label": "At"}),
    ], replicate=rep).count()
    return {"sec": round(time.perf_counter() - t0, 3), "matches": n}


def run_glob_scan() -> dict:
    """Glob scan (the reference's signature matcher) over ~100 MB of text.
    Joined-scan-safe globs ride the batch fast path + the native glob
    kernel (miners/globcc.py); a mid-``*`` glob forces the per-row engine,
    which now also runs the C kernel per row (VERDICT r2 item 7)."""
    from nativeextractor_ray.pipelines.extract import mentions_dataset

    rep = max(1, REPLICATE // 2)
    t0 = time.perf_counter()
    n = mentions_dataset(SF_DIR, specs=[
        ("glob", ("kontakt*",), {"label": "Kon"}),
        ("glob", ("[0-9][0-9]*",), {"label": "Num"}),
    ], replicate=rep).count()
    fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    n2 = mentions_dataset(SF_DIR, specs=[
        ("glob", ("*o*a*",), {"label": "Oa"}),  # mid-*: per-row C engine
    ], replicate=rep).count()
    perrow = time.perf_counter() - t0
    return {"sec": round(fast, 3), "sec_per_row": round(perrow, 3),
            "matches": n, "matches_per_row": n2}


def run_chunked_file_scan() -> dict:
    """ONE giant plaintext file through the chunked source + miner scan —
    the reference's flagship input shape (stream.c mmap paging).  The file
    (default 1 GiB, override GRAFT_CHUNK_FILE_MB) is synthesized once and
    cached in /tmp; the scan fans out one Ray task per 64 MB chunk."""
    from nativeextractor_ray.sources.textcorpus import text_corpus_dataset
    from nativeextractor_ray.stages.miner_pool import MinerPool

    mb = int(os.environ.get("GRAFT_CHUNK_FILE_MB", "1024"))
    path = f"/tmp/nxr_bench_corpus_{mb}mb.txt"
    if not os.path.exists(path):
        import random

        rng = random.Random(9)
        words = ("alpha beta gamma delta kontakt praha server tensor "
                 "novak invoice procurement lambda sigma").split()
        lines = []
        for i in range(12_000):
            parts = [rng.choice(words) for _ in range(rng.randrange(3, 12))]
            if i % 9 == 0:
                parts.append(f"user{i}@example.com 2024-0{1 + i % 9}-17")
            lines.append(" ".join(parts))
        seed = ("\n".join(lines) + "\n").encode()
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            written = 0
            while written < mb << 20:
                f.write(seed)
                written += len(seed)
        os.replace(tmp, path)

    size_mb = os.path.getsize(path) / (1 << 20)
    t0 = time.perf_counter()
    ds = text_corpus_dataset(path)  # default 64 MB chunks
    n = ds.map_batches(
        MinerPool,
        fn_constructor_args=([
            ("regex", ("[0-9]{4}-[0-9]{2}-[0-9]{2}",), {"label": "Iso"}),
            ("regex", ("\\w+@\\w+\\.\\w+",), {"label": "At"}),
        ],),
        fn_constructor_kwargs={"no_enclosed": True},
        batch_format="pyarrow",
        batch_size=1,
        concurrency=(1, NUM_CPUS),
    ).count()
    sec = time.perf_counter() - t0
    return {"sec": round(sec, 3), "matches": n,
            "mb_per_sec": round(size_mb / sec, 1)}


def run_suite() -> dict:
    """Secondary pipelines (smaller, one pass each)."""
    import importlib

    queries = {
        "mention_counts": ("nativeextractor_ray.pipelines.extract", "mention_counts"),
        "conv_entity_flow": ("nativeextractor_ray.pipelines.kg", "conv_entity_flow"),
        "conv_stats": ("nativeextractor_ray.pipelines.kg", "conv_stats"),
        "dedup_exact": ("nativeextractor_ray.pipelines.dedup", "dedup_exact"),
        "dedup_ngram": ("nativeextractor_ray.pipelines.dedup", "dedup_ngram_jaccard"),
        "dedup_minhash": ("nativeextractor_ray.pipelines.dedup", "dedup_minhash_pairs"),
        "dedup_simhash": ("nativeextractor_ray.pipelines.dedup", "dedup_simhash_pairs"),
        "ann_topk": ("nativeextractor_ray.pipelines.similarity", "ann_cosine_topk"),
        "events_windowed": ("nativeextractor_ray.pipelines.events", "events_windowed"),
        "conv_digest_salted": ("nativeextractor_ray.pipelines.kg", "conv_digest_salted"),
        "text_quality": ("nativeextractor_ray.pipelines.textstats", "text_quality"),
        "lang_id": ("nativeextractor_ray.pipelines.textstats", "lang_id"),
        "asof_join": ("nativeextractor_ray.pipelines.relational", "purchases_asof_clicks"),
        "quantiles": ("nativeextractor_ray.pipelines.quantiles", "event_value_quantiles"),
        "pack_sequences": ("nativeextractor_ray.pipelines.curation", "pack_sequences"),
        "dedup_clusters": ("nativeextractor_ray.pipelines.dedup", "dedup_clusters"),
        "grouped_topk": ("nativeextractor_ray.pipelines.events", "top_events_per_user"),
        "range_join": ("nativeextractor_ray.pipelines.events", "errors_prior_window"),
        "tfidf": ("nativeextractor_ray.pipelines.textstats", "top_terms_tfidf"),
        "curation_e2e": ("nativeextractor_ray.pipelines.curation", "curation_e2e"),
        "grouped_quantiles": ("nativeextractor_ray.pipelines.quantiles", "token_quantiles_by_lang"),
        "inverted_index": ("nativeextractor_ray.pipelines.textstats", "inverted_index"),
        "funnel": ("nativeextractor_ray.pipelines.events", "funnel_counts"),
        "media_resize": ("nativeextractor_ray.pipelines.multimodal", "media_resize_features"),
        "tokenize_ids": ("nativeextractor_ray.pipelines.textstats", "tokenize_ids"),
        "training_batches": ("nativeextractor_ray.pipelines.curation", "training_batches"),
        "decontaminate": ("nativeextractor_ray.pipelines.decontam", "decontaminate"),
        "boilerplate_ngrams": ("nativeextractor_ray.pipelines.decontam", "boilerplate_ngrams"),
        "entity_pagerank": ("nativeextractor_ray.pipelines.graph", "entity_pagerank"),
        "entity_pmi": ("nativeextractor_ray.pipelines.graph", "entity_pmi"),
        "lm_score": ("nativeextractor_ray.pipelines.lmscore", "lm_score"),
        "dedup_semantic": ("nativeextractor_ray.pipelines.dedup", "dedup_semantic"),
        "domain_mix": ("nativeextractor_ray.pipelines.curation", "domain_mix"),
        "shuffle_shards": ("nativeextractor_ray.pipelines.curation", "shuffle_shards"),
        "dup_spans": ("nativeextractor_ray.pipelines.decontam", "dup_spans"),
        "normalize_text": ("nativeextractor_ray.pipelines.curation", "normalize_text"),
        "quality_classifier": ("nativeextractor_ray.pipelines.classify", "quality_classifier"),
        "dedup_incremental": ("nativeextractor_ray.pipelines.dedup", "dedup_incremental"),
        "bpe_train": ("nativeextractor_ray.pipelines.bpe", "bpe_train"),
        "cdc_chunks": ("nativeextractor_ray.pipelines.decontam", "cdc_chunks"),
        "knn_graph": ("nativeextractor_ray.pipelines.similarity", "knn_graph"),
        "bpe_encode": ("nativeextractor_ray.pipelines.bpe", "bpe_encode"),
        "split_assign": ("nativeextractor_ray.pipelines.curation", "split_assign"),
        "sentence_split": ("nativeextractor_ray.pipelines.curation", "sentence_split"),
        "value_outliers": ("nativeextractor_ray.pipelines.events", "value_outliers"),
        "anti_join_customers": ("nativeextractor_ray.pipelines.relational", "customers_without_orders"),
        "embedding_quantize": ("nativeextractor_ray.pipelines.similarity", "embedding_quantize"),
        "masked_spans": ("nativeextractor_ray.pipelines.curation", "masked_spans"),
        "domain_mix_temperature": ("nativeextractor_ray.pipelines.curation", "domain_mix_temperature"),
        "bm25_topk": ("nativeextractor_ray.pipelines.retrieval", "bm25_topk"),
        "pricing_summary": ("nativeextractor_ray.pipelines.relational", "pricing_summary"),
        "hll_users_by_type": ("nativeextractor_ray.pipelines.sketches", "hll_users_by_type"),
        "hybrid_rrf_topk": ("nativeextractor_ray.pipelines.retrieval", "hybrid_rrf_topk"),
        "shipping_priority_topk": ("nativeextractor_ray.pipelines.relational", "shipping_priority_topk"),
        "order_count_distribution": ("nativeextractor_ray.pipelines.distributions", "order_count_distribution"),
        "embedding_dim_stats": ("nativeextractor_ray.pipelines.vectorstats", "embedding_dim_stats"),
        "sample_k_per_source": ("nativeextractor_ray.pipelines.curation", "sample_k_per_source"),
        "event_gaps": ("nativeextractor_ray.pipelines.windows", "event_gaps"),
        "user_running_value": ("nativeextractor_ray.pipelines.windows", "user_running_value"),
        "local_supplier_volume": ("nativeextractor_ray.pipelines.relational", "local_supplier_volume"),
        "rollup_report": ("nativeextractor_ray.pipelines.relational", "rollup_report"),
        "large_order_customers": ("nativeextractor_ray.pipelines.relational", "large_order_customers"),
        "small_order_revenue": ("nativeextractor_ray.pipelines.relational", "small_order_revenue"),
        "referential_audit": ("nativeextractor_ray.pipelines.audit", "referential_audit"),
        "user_event_pivot": ("nativeextractor_ray.pipelines.events", "user_event_pivot"),
        "first_touch": ("nativeextractor_ray.pipelines.windows", "first_touch"),
        "event_value_rank": ("nativeextractor_ray.pipelines.windows", "event_value_rank"),
        "order_fill_report": ("nativeextractor_ray.pipelines.relational", "order_fill_report"),
        "daily_active_users": ("nativeextractor_ray.pipelines.events", "daily_active_users"),
        "two_hop_counts": ("nativeextractor_ray.pipelines.graph", "two_hop_counts"),
        "cms_heavy_hitters": ("nativeextractor_ray.pipelines.sketches", "cms_heavy_hitters"),
        "user_value_rank": ("nativeextractor_ray.pipelines.windows", "user_value_rank"),
        "event_transitions": ("nativeextractor_ray.pipelines.windows", "event_transitions"),
        "label_centroids": ("nativeextractor_ray.pipelines.vectorstats", "label_centroids"),
        "percentiles_cont": ("nativeextractor_ray.pipelines.quantiles", "event_value_percentiles_cont"),
        "triangle_counts": ("nativeextractor_ray.pipelines.graph", "triangle_counts"),
        "user_rolling_sum": ("nativeextractor_ray.pipelines.windows", "user_rolling_sum"),
        "new_users_daily": ("nativeextractor_ray.pipelines.windows", "new_users_daily"),
        "lexical_diversity": ("nativeextractor_ray.pipelines.textstats", "lexical_diversity"),
        "term_freq_histogram": ("nativeextractor_ray.pipelines.textstats", "term_freq_histogram"),
        "late_shipment_priority": ("nativeextractor_ray.pipelines.relational", "late_shipment_priority"),
        "promo_revenue_share": ("nativeextractor_ray.pipelines.relational", "promo_revenue_share"),
        "late_event_stats": ("nativeextractor_ray.pipelines.windows", "late_event_stats"),
        "winsorized_value_mean": ("nativeextractor_ray.pipelines.quantiles", "winsorized_value_mean"),
        "lang_confusion": ("nativeextractor_ray.pipelines.textstats", "lang_confusion"),
        "turn_role_transitions": ("nativeextractor_ray.pipelines.kg", "turn_role_transitions"),
        "dup_rate_by_source": ("nativeextractor_ray.pipelines.dedup", "dup_rate_by_source"),
        "source_concentration": ("nativeextractor_ray.pipelines.audit", "source_concentration"),
        "events_minute_rate": ("nativeextractor_ray.pipelines.events", "events_minute_rate"),
        "conv_length_histogram": ("nativeextractor_ray.pipelines.kg", "conv_length_histogram"),
        "value_mad_by_type": ("nativeextractor_ray.pipelines.quantiles", "value_mad_by_type"),
        "first_response_latency": ("nativeextractor_ray.pipelines.kg", "first_response_latency"),
        "tool_call_stats": ("nativeextractor_ray.pipelines.kg", "tool_call_stats"),
        "tool_latency": ("nativeextractor_ray.pipelines.kg", "tool_latency"),
        "entity_neighbor_jaccard": ("nativeextractor_ray.pipelines.graph", "entity_neighbor_jaccard"),
        "nation_trade_volume": ("nativeextractor_ray.pipelines.relational", "nation_trade_volume"),
        "audience_overlap": ("nativeextractor_ray.pipelines.events", "audience_overlap"),
        "idle_customer_balance": ("nativeextractor_ray.pipelines.relational", "idle_customer_balance"),
        "min_cost_supplier": ("nativeextractor_ray.pipelines.relational", "min_cost_supplier"),
        "disjunctive_revenue": ("nativeextractor_ray.pipelines.relational", "disjunctive_revenue"),
        "returned_item_revenue": ("nativeextractor_ray.pipelines.relational", "returned_item_revenue"),
        "late_line_priority_mix": ("nativeextractor_ray.pipelines.relational", "late_line_priority_mix"),
        "top_supplier_revenue": ("nativeextractor_ray.pipelines.relational", "top_supplier_revenue"),
        "sole_late_supplier": ("nativeextractor_ray.pipelines.relational", "sole_late_supplier"),
        "market_share": ("nativeextractor_ray.pipelines.relational", "market_share"),
        "seed_reachability": ("nativeextractor_ray.pipelines.graph", "seed_reachability"),
        "trending_terms": ("nativeextractor_ray.pipelines.kg", "trending_terms"),
        "retention_cohorts": ("nativeextractor_ray.pipelines.events", "retention_cohorts"),
        "key_skew_profile": ("nativeextractor_ray.pipelines.audit", "key_skew_profile"),
        "surface_link_candidates": ("nativeextractor_ray.pipelines.graph", "surface_link_candidates"),
        "dedup_minhash_incremental": ("nativeextractor_ray.pipelines.dedup", "dedup_minhash_incremental"),
        "forecast_revenue_change": ("nativeextractor_ray.pipelines.relational", "forecast_revenue_change"),
        "kcore_entities": ("nativeextractor_ray.pipelines.graph", "kcore_entities"),
        "product_type_profit": ("nativeextractor_ray.pipelines.relational", "product_type_profit"),
        "important_stock": ("nativeextractor_ray.pipelines.relational", "important_stock"),
        "supplier_relationship": ("nativeextractor_ray.pipelines.relational", "supplier_relationship"),
        "potential_promotion": ("nativeextractor_ray.pipelines.relational", "potential_promotion"),
        "feature_hashing": ("nativeextractor_ray.pipelines.textstats", "feature_hashing"),
        "event_type_affinity": ("nativeextractor_ray.pipelines.events", "event_type_affinity"),
        "value_correlations": ("nativeextractor_ray.pipelines.events", "value_correlations"),
        "degree_distribution": ("nativeextractor_ray.pipelines.graph", "degree_distribution"),
        "tool_transitions": ("nativeextractor_ray.pipelines.kg", "tool_transitions"),
        "session_duration_quantiles": ("nativeextractor_ray.pipelines.quantiles", "session_duration_quantiles"),
        "curriculum_assign": ("nativeextractor_ray.pipelines.curation", "curriculum_assign"),
        "dup_cluster_sizes": ("nativeextractor_ray.pipelines.dedup", "dup_cluster_sizes"),
        "sampled_value_quantiles": ("nativeextractor_ray.pipelines.quantiles", "sampled_value_quantiles"),
        "ssjoin_jaccard": ("nativeextractor_ray.pipelines.ssjoin", "ssjoin_jaccard"),
        "peak_concurrency": ("nativeextractor_ray.pipelines.events", "peak_concurrency"),
        "skyline_orders": ("nativeextractor_ray.pipelines.skyline", "skyline_orders"),
        "weighted_sample": ("nativeextractor_ray.pipelines.curation", "weighted_sample"),
        "hash_sample": ("nativeextractor_ray.pipelines.curation", "hash_sample"),
        "corpus_summary": ("nativeextractor_ray.pipelines.textstats", "corpus_summary"),
        "perplexity_buckets": ("nativeextractor_ray.pipelines.lmscore", "perplexity_buckets"),
        "embedding_norm_outliers": ("nativeextractor_ray.pipelines.vectorstats", "embedding_norm_outliers"),
        "source_dedup_matrix": ("nativeextractor_ray.pipelines.dedup", "source_dedup_matrix"),
        "column_profile": ("nativeextractor_ray.pipelines.audit", "column_profile"),
        "modal_value_by_type": ("nativeextractor_ray.pipelines.events", "modal_value_by_type"),
        "event_path_trigrams": ("nativeextractor_ray.pipelines.windows", "event_path_trigrams"),
        "snapshot_compact": ("nativeextractor_ray.pipelines.versioned", "snapshot_compact"),
        "snapshot_diff": ("nativeextractor_ray.pipelines.versioned", "snapshot_diff"),
        "table_checksums": ("nativeextractor_ray.pipelines.audit", "table_checksums"),
        "conversion_latency_quantiles": ("nativeextractor_ray.pipelines.quantiles", "conversion_latency_quantiles"),
        "embedding_covariance": ("nativeextractor_ray.pipelines.vectorstats", "embedding_covariance"),
        "value_histogram": ("nativeextractor_ray.pipelines.events", "value_histogram"),
        "daily_trend_by_type": ("nativeextractor_ray.pipelines.events", "daily_trend_by_type"),
        "chunk_documents": ("nativeextractor_ray.pipelines.curation", "chunk_documents"),
        "exact_stratified_split": ("nativeextractor_ray.pipelines.curation", "exact_stratified_split"),
        "source_similarity_minhash": ("nativeextractor_ray.pipelines.sketches", "source_similarity_minhash"),
        "lang_source_chisq": ("nativeextractor_ray.pipelines.audit", "lang_source_chisq"),
        "entity_timeline": ("nativeextractor_ray.pipelines.kg", "entity_timeline"),
        "entity_adoption": ("nativeextractor_ray.pipelines.kg", "entity_adoption"),
        "weekly_active_users": ("nativeextractor_ray.pipelines.events", "weekly_active_users"),
        "transition_dwell": ("nativeextractor_ray.pipelines.events", "transition_dwell"),
        "length_drift_ks": ("nativeextractor_ray.pipelines.audit", "length_drift_ks"),
        "high_value_events": ("nativeextractor_ray.pipelines.events", "high_value_events"),
        "price_reconciliation": ("nativeextractor_ray.pipelines.audit", "price_reconciliation"),
        "rfm_segments": ("nativeextractor_ray.pipelines.distributions", "rfm_segments"),
        "ship_latency_quantiles": ("nativeextractor_ray.pipelines.quantiles", "ship_latency_quantiles_by_priority"),
        "embedding_pca_project": ("nativeextractor_ray.pipelines.vectorstats", "embedding_pca_project"),
        "key_gaps": ("nativeextractor_ray.pipelines.audit", "key_gaps"),
        "session_bounce_rate": ("nativeextractor_ray.pipelines.events", "session_bounce_rate"),
        "conv_entity_density": ("nativeextractor_ray.pipelines.kg", "conv_entity_density"),
        "role_vocab_divergence": ("nativeextractor_ray.pipelines.kg", "role_vocab_divergence"),
    }
    out = {}
    for name, (mod, fn) in queries.items():
        try:
            f = getattr(importlib.import_module(mod), fn)
        except (ImportError, AttributeError):
            continue

        def one():
            t0 = time.perf_counter()
            res = f(SF_DIR)
            if hasattr(res, "iter_batches"):
                _consume(res)
            return {"sec": time.perf_counter() - t0}

        out[name] = round(_best_of(one)["sec"], 3)
    return out


def main() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             log_to_driver=False)
    head = _best_of(run_headline)
    ment = _best_of(run_mentions_throughput)
    gaz = _best_of(run_gazetteer)
    rx = _best_of(run_regex_scan)
    gl = _best_of(run_glob_scan)
    chunk = run_chunked_file_scan()  # single trial: 1 GiB scan, low variance
    sf1 = run_headline_sf1()  # single trial: 8M turns, noise-immune
    qs = run_suite()
    qs = {"triples_e2e": round(head["sec"], 3),
          "mentions_e2e": round(ment["sec"], 3),
          "gazetteer_100k": gaz["sec"],
          "regex_scan_100mb": rx["sec"],
          "glob_scan_100mb": gl["sec"],
          "glob_scan_100mb_per_row": gl["sec_per_row"],
          "chunked_file_scan_1gb": chunk["sec"],
          "triples_e2e_sf1": round(sf1["sec"], 3), **qs}
    total = round(sum(qs.values()), 3)
    print(json.dumps({
        "metric": "e2e turns/sec triple extraction (headline) + suite wall sec",
        "value": total,
        "unit": "sec",
        "queries": qs,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "turns": head["turns"],
        "triples": head["triples"],
        "turns_per_sec": round(head["turns_per_sec"], 1),
        "sf1_turns": sf1["turns"],
        "sf1_turns_per_sec": round(sf1["turns_per_sec"], 1),
        "scan_mb_per_sec": round(ment["mb_per_sec"], 1),
        "chunked_scan_mb_per_sec": chunk["mb_per_sec"],
        "mentions": ment["mentions"],
    }))
    ray.shutdown()


#: --scaling jobs beyond the headline: shuffle-heavy document pipelines
#: (VERDICT r2 item 9 — show ≥0.8 efficiency holds off the map-only path).
_SCALING_JOBS = {
    "headline": None,
    "curation_e2e": ("nativeextractor_ray.pipelines.curation", "curation_e2e"),
    "dedup_minhash": ("nativeextractor_ray.pipelines.dedup", "dedup_minhash_pairs"),
    # round-4: the irreducible per-order co-partition exchange family
    "sole_late_supplier": ("nativeextractor_ray.pipelines.relational", "sole_late_supplier"),
    # round-5 (VERDICT r4 item 8): a window shape (interval-coverage WAU
    # over events) and a graph shape (degree-ordered triangles over the
    # transcript KG — extraction + edge-dedup exchange grow with corpus;
    # the wedge side is vocabulary-bounded by design)
    "weekly_active_users": ("nativeextractor_ray.pipelines.events", "weekly_active_users"),
    "triangle_counts": ("nativeextractor_ray.pipelines.graph", "triangle_counts"),
}

#: rate denominator table per scaling job (default: documents)
_SCALING_ROW_TABLE = {"weekly_active_users": "events"}


def main_scaling() -> None:
    """Run each scaling job at two parallelism levels in fresh processes.

    The headline uses a larger replicate than the suite bench: the scaling
    criterion measures how *compute* scales, so the job must be
    compute-bound — at the suite size (200k turns ≈ 20 core-seconds) fixed
    costs (actor pool spin-up, read, shuffle barriers) dominate and every
    parallelism level reads the same ~8s wall.  The document jobs
    (curation_e2e, dedup_minhash — shuffle-heavy) run over
    ``$GRAFT_SCALING_SF_DIR`` (default: $GRAFT_SF_DIR); point it at the
    scripts/make_sf1.py output for a compute-bound measurement.

    Levels are 4 and 16 CPUs (N and 4N), each measured on a FULLY LOADED
    socket (Ray pinned to the first N cores, pinned busy-loop spinners on
    the rest — see _loaded_socket_fixture): a real N-node vs 4N-node
    cluster runs every node fully loaded in both configs, so per-core
    clocks are constant; an idle-socket small config would turbo ~15%
    higher and understate efficiency by exactly that clock ratio."""
    replicate = int(os.environ.get("GRAFT_SCALING_REPLICATE", "1280"))
    trials = int(os.environ.get("GRAFT_SCALING_TRIALS", "2"))
    jobs = [
        j for j in os.environ.get(
            "GRAFT_SCALING_JOBS", "headline,curation_e2e,dedup_minhash,sole_late_supplier"
        ).split(",") if j in _SCALING_JOBS
    ]
    queries: dict[str, float] = {}
    effs: dict[str, float] = {}
    hi_turns = None
    for job in jobs:
        results = {4: None, 16: None}
        # trials INTERLEAVE the levels (4,16,4,16,…) so both levels sample
        # the same external-load windows — running all @4 legs then all
        # @16 legs puts each level in a systematically different window
        # and fabricates efficiency either way (observed both 0.33 and
        # 1.7+ from window drift on this shared host)
        for _ in range(trials):
            for cpus in (4, 16):
                env = dict(os.environ)
                env["RAY_GRAFT_CPUS"] = str(cpus)
                env["GRAFT_BENCH_HEADLINE_ONLY"] = "1"
                env["GRAFT_BENCH_SCALING_JOB"] = job
                env["GRAFT_REPLICATE"] = str(replicate)
                env.setdefault("GRAFT_SCALING_LOADED", "1")
                if job != "headline" and os.environ.get("GRAFT_SCALING_SF_DIR"):
                    env["GRAFT_SF_DIR"] = os.environ["GRAFT_SCALING_SF_DIR"]
                p = subprocess.run(
                    [sys.executable, os.path.abspath(__file__)],
                    env=env, capture_output=True, text=True, timeout=3600,
                )
                lines = [l for l in p.stdout.strip().splitlines()
                         if l.startswith("{")]
                if not lines:
                    # a failed leg must not kill the whole run — report it
                    # and let best-of-N fall back to the surviving trial
                    print(f"[scaling] {job}@{cpus} leg produced no JSON "
                          f"(rc={p.returncode}); stderr tail:\n"
                          + "\n".join(p.stderr.splitlines()[-15:]),
                          file=sys.stderr)
                    continue
                r = json.loads(lines[-1])
                # best-of-N: peak sustained throughput estimates capacity;
                # shared-host noise only ever subtracts
                best = results[cpus]
                if best is None or r["rate"] > best["rate"]:
                    results[cpus] = r
        if results[4] is None or results[16] is None:
            print(f"[scaling] {job}: a level failed every trial — skipped",
                  file=sys.stderr)
            continue
        lo, hi = results[4], results[16]
        eff = (hi["rate"] / 16) / (lo["rate"] / 4)
        effs[job] = round(eff, 3)
        queries[f"{job}_rate@4"] = round(lo["rate"], 2)
        queries[f"{job}_rate@16"] = round(hi["rate"], 2)
        queries[f"{job}_efficiency"] = round(eff, 3)
        # window-quality evidence: mean busy-loop M iters/s on the leg's
        # cores — legs with unequal probes are clock-confounded
        if "core_speed" in (lo or {}):
            queries[f"{job}_corespeed@4"] = lo["core_speed"]
            queries[f"{job}_corespeed@16"] = hi["core_speed"]
        if job == "headline":
            hi_turns = hi.get("turns")
    headline_eff = effs.get("headline",
                            next(iter(effs.values()), float("nan")))
    print(json.dumps({
        "metric": "scaling efficiency (4 -> 16 CPUs, fresh sessions)",
        "value": headline_eff,
        "unit": "efficiency",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": 32,
        "turns": hi_turns,
    }))


def _loaded_socket_fixture() -> list:
    """Pin this process (and so all Ray workers) to the first NUM_CPUS
    cores and spin the remaining cores with pinned busy-loops.

    On a real N-node vs 4N-node cluster every node is fully loaded in both
    configs, so per-core clocks are identical; on one box the small config
    would otherwise run on a mostly-idle socket with higher turbo clocks,
    understating scaling efficiency by the clock ratio (~15% here).  The
    spinners reproduce the constant-clock condition."""
    total = os.cpu_count() or NUM_CPUS
    if NUM_CPUS >= total:
        return []
    # STRIDE-sample the Ray cores across the whole socket instead of
    # taking the first N: on this shared host, core speeds are visibly
    # heterogeneous under co-tenant load (measured 7.2M loops/s on cores
    # 0-29 vs 11.3M on 30-31 in one window), so "first 4" vs "first 16"
    # compares different core-speed MIXES and fabricates super-/sub-linear
    # artifacts.  Evenly-spaced cores give every leg the same expected
    # mix — the homogeneous-node assumption a real N vs 4N cluster
    # comparison rests on.
    stride = total // NUM_CPUS
    ray_cores = list(range(0, total, stride))[:NUM_CPUS]
    os.sched_setaffinity(0, ray_cores)
    spin = (
        "import os,itertools,sys;"
        f"os.sched_setaffinity(0, [int(sys.argv[1])]);"
        "c=0\n"
        "while True: c=(c+1)%1000003"
    )
    procs = []
    for cpu in sorted(set(range(total)) - set(ray_cores)):
        procs.append(subprocess.Popen(
            [sys.executable, "-c", spin, str(cpu)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ))
    return procs


def main_headline_only() -> None:
    """One scaling leg in a fresh process: run $GRAFT_BENCH_SCALING_JOB
    once (after a warm-up pass) and print its throughput as ``rate``."""
    import importlib

    import ray

    job = os.environ.get("GRAFT_BENCH_SCALING_JOB", "headline")
    spinners = (
        _loaded_socket_fixture()
        if os.environ.get("GRAFT_SCALING_LOADED") == "1"
        else []
    )
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             log_to_driver=False)
    # warm-up: fill worker-process import caches so the measured run sees
    # steady-state workers, not cold python startup
    if job == "headline":
        from nativeextractor_ray.pipelines.kg import triples_dataset

        _consume(triples_dataset(SF_DIR, replicate=32))
        head = run_headline()
        out = {
            "metric": "turns/sec", "value": round(head["sec"], 3),
            "unit": "sec", "queries": {"triples_e2e": round(head["sec"], 3)},
            "sf": SF_DIR, "num_cpus": NUM_CPUS, "turns": head["turns"],
            "turns_per_sec": round(head["turns_per_sec"], 1),
            "rate": round(head["turns_per_sec"], 1),
        }
    else:
        import pyarrow.parquet as pq

        mod, fn = _SCALING_JOBS[job]
        f = getattr(importlib.import_module(mod), fn)
        import pyarrow.dataset as _pads

        _tbl = _SCALING_ROW_TABLE.get(job, "documents")
        _path = (f"{SF_DIR}/{_tbl}.parquet"
                 if os.path.exists(f"{SF_DIR}/{_tbl}.parquet")
                 else f"{SF_DIR}/{_tbl}")
        n_docs = _pads.dataset(_path, format="parquet").count_rows()
        # warm-up on the tiny sf: fills worker import caches without paying
        # a full-size extra pass (the measured run owns its own actors)
        warm_dir = os.environ.get("GRAFT_SCALING_WARM_DIR",
                                  "/root/testdata/sf0.001")
        _consume(f(warm_dir))
        t0 = time.perf_counter()
        _consume(f(SF_DIR))
        dt = time.perf_counter() - t0
        out = {
            "metric": f"{job} docs/sec", "value": round(dt, 3), "unit": "sec",
            "queries": {job: round(dt, 3)}, "sf": SF_DIR,
            "num_cpus": NUM_CPUS, "rate": round(n_docs / dt, 2),
        }
    out["core_speed"] = _core_speed_probe()
    for p in spinners:
        p.kill()
    print(json.dumps(out))
    ray.shutdown()


def _core_speed_probe(secs: float = 0.2) -> float:
    """Objective window-quality signal reported with every scaling leg:
    mean busy-loop rate (M iters/s) over this process's allowed cores.
    External co-tenant load is invisible in /proc from this container but
    shows up directly here — legs whose probes differ are not comparable
    (the source of the confounded 1.4-2.3 'superlinear' readings)."""
    import time as _t

    allowed = sorted(os.sched_getaffinity(0))
    rates = []
    for cpu in allowed[: min(len(allowed), 4)]:
        os.sched_setaffinity(0, [cpu])
        t0 = _t.perf_counter()
        c = 0
        while _t.perf_counter() - t0 < secs:
            c += 1
        rates.append(c / secs / 1e6)
    os.sched_setaffinity(0, allowed)
    return round(sum(rates) / len(rates), 2)


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        main_scaling()
    elif os.environ.get("GRAFT_BENCH_HEADLINE_ONLY"):
        main_headline_only()
    else:
        main()
