"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in the library) calls ``ray.init()``/``ray.shutdown()``.

- ``entry()`` — flagship KG pipeline (transcripts → mentions → link →
  canonicalize → triples) on sf0.001.
- ``queries()`` — one entry per implemented pipeline/operator
  (SURVEY.md §2 + the training-data operators); each callable takes
  ``sf_dir`` and returns a Dataset / pandas DataFrame / pyarrow Table.
- ``oracle_sql()`` — DuckDB-equivalent SQL per query; EVERY query has
  one.  Approximate operators are hard-checked: their seed-fixed model
  state (LSH hyperplanes, IVF centroids) is embedded as SQL literals and
  the SQL independently replays bucketing + rerank.  ``mentions_spans``
  (DuckDB regexp functions cannot return match OFFSETS) uses the same
  replay pattern: expected spans computed by the independent per-row
  engine, embedded as VALUES literals (oracles.mentions_spans_sql).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    from nativeextractor_ray.pipelines.kg import triples_dataset

    return triples_dataset("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from nativeextractor_ray.pipelines import (
        audit,
        bpe,
        classify,
        curation,
        decontam,
        dedup,
        distributions,
        events,
        extract,
        graph,
        kg,
        lmscore,
        multimodal,
        quantiles,
        relational,
        retrieval,
        similarity,
        sketches,
        textstats,
        vectorstats,
        windows,
    )
    from nativeextractor_ray.sources.transcripts import transcripts_dataset

    # Ordering is deliberate: the driver's correctness window has covered
    # a prefix of this dict in past rounds, so the entries it has NOT yet
    # hash-checked (r2: pack_sequences, curation_e2e, training_batches and
    # the mentions_* family — in-repo oracle-parity green, but no driver
    # row) come FIRST this round (VERDICT r2 item 4).
    from nativeextractor_ray.pipelines import skyline, ssjoin, versioned

    q: dict[str, Callable[[str], Any]] = {
        # round-5 additions:
        "hash_sample": curation.hash_sample,  # reproducible uniform sample
        "corpus_summary": textstats.corpus_summary,  # dataset-card rollup
        "perplexity_buckets":
            lmscore.perplexity_buckets,  # CCNet head/middle/tail
        "embedding_norm_outliers":
            vectorstats.embedding_norm_outliers,  # encoder-fault audit
        "source_dedup_matrix":
            dedup.source_dedup_matrix,  # cross-crawl overlap audit
        "tool_latency": kg.tool_latency,  # agent tool stall stat
        # round-4 (this session) additions — newest first:
        "conv_entity_density": kg.conv_entity_density,  # KG-worthiness
        "role_vocab_divergence":
            kg.role_vocab_divergence,  # exact TV style drift
        "embedding_pca_project":
            vectorstats.embedding_pca_project,  # exact-int PCA map
        "key_gaps": audit.key_gaps,  # gaps-and-islands key audit
        "session_bounce_rate": events.session_bounce_rate,  # engagement
        "rfm_segments": distributions.rfm_segments,  # quantile-edge RFM
        "ship_latency_quantiles":
            quantiles.ship_latency_quantiles_by_priority,  # joined SLA
        "high_value_events": events.high_value_events,  # pushdown scan
        "price_reconciliation": audit.price_reconciliation,  # invariant
        "weekly_active_users": events.weekly_active_users,  # rolling WAU
        "transition_dwell": events.transition_dwell,  # step dwell times
        "length_drift_ks": audit.length_drift_ks,  # exact two-sample KS
        "entity_timeline": kg.entity_timeline,  # temporal-KG rollup
        "entity_adoption": kg.entity_adoption,  # user→assistant handoff
        "source_similarity_minhash":
            sketches.source_similarity_minhash,  # mergeable MinHash union
        "lang_source_chisq": audit.lang_source_chisq,  # χ² independence
        "embedding_covariance":
            vectorstats.embedding_covariance,  # distributed Gram matrix
        "value_histogram": events.value_histogram,  # equi-width bins
        "daily_trend_by_type": events.daily_trend_by_type,  # OLS slope
        "chunk_documents": curation.chunk_documents,  # RAG windows
        "exact_stratified_split":
            curation.exact_stratified_split,  # per-stratum quota split
        "snapshot_compact": versioned.snapshot_compact,  # MERGE latest-wins
        "snapshot_diff": versioned.snapshot_diff,  # cross-version diff
        "table_checksums": audit.table_checksums,  # anti-entropy audit
        "conversion_latency_quantiles":
            quantiles.conversion_latency_quantiles,  # funnel latency
        "ssjoin_jaccard": ssjoin.ssjoin_jaccard,  # prefix-filter SSJoin
        "peak_concurrency": events.peak_concurrency,  # sweep-line max
        "skyline_orders": skyline.skyline_orders,  # Pareto frontier
        "weighted_sample": curation.weighted_sample,  # priority sampling
        "column_profile": audit.column_profile,  # ingest validation
        "modal_value_by_type": events.modal_value_by_type,  # grouped mode
        "event_path_trigrams": windows.event_path_trigrams,  # LEAD² n-grams
        # round-4 additions — newest first:
        "dup_cluster_sizes": dedup.dup_cluster_sizes,  # dedup post-mortem
        "sampled_value_quantiles": quantiles.sampled_value_quantiles,
        "curriculum_assign": curation.curriculum_assign,  # stage buckets
        "session_duration_quantiles": quantiles.session_duration_quantiles,
        "event_type_affinity": events.event_type_affinity,  # basket pairs
        "value_correlations": events.value_correlations,  # metric coupling
        "degree_distribution": graph.degree_distribution,  # graph audit
        "tool_transitions": kg.tool_transitions,  # tool-chaining matrix
        "feature_hashing": textstats.feature_hashing,  # hashing trick
        "product_type_profit": relational.product_type_profit,  # Q9
        "important_stock": relational.important_stock,  # Q11
        "supplier_relationship": relational.supplier_relationship,  # Q16
        "potential_promotion": relational.potential_promotion,  # Q20
        "forecast_revenue_change": relational.forecast_revenue_change,
        "kcore_entities": graph.kcore_entities,  # iterative k-core peel
        "seed_reachability": graph.seed_reachability,  # bounded BFS
        "trending_terms": kg.trending_terms,  # windowed heavy hitters
        "retention_cohorts": events.retention_cohorts,  # cohort matrix
        "key_skew_profile": audit.key_skew_profile,  # shuffle planning
        "surface_link_candidates": graph.surface_link_candidates,  # ER lev
        "dedup_minhash_incremental": dedup.dedup_minhash_incremental,
        "returned_item_revenue": relational.returned_item_revenue,  # Q10
        "late_line_priority_mix": relational.late_line_priority_mix,  # Q12
        "top_supplier_revenue": relational.top_supplier_revenue,  # Q15 ties
        "sole_late_supplier": relational.sole_late_supplier,  # Q21 EXISTS²
        "market_share": relational.market_share,  # Q8 share ratio
        # round-3g additions — newest first:
        "entity_neighbor_jaccard": graph.entity_neighbor_jaccard,  # co-cite
        "nation_trade_volume": relational.nation_trade_volume,  # Q7
        "audience_overlap": events.audience_overlap,  # INTERSECT/EXCEPT venn
        "idle_customer_balance": relational.idle_customer_balance,  # Q22
        "min_cost_supplier": relational.min_cost_supplier,  # Q2 argmin
        "disjunctive_revenue": relational.disjunctive_revenue,  # Q19 OR-arms
        # round-3 final additions:
        "cms_heavy_hitters": sketches.cms_heavy_hitters,  # Count-Min + exact
        "user_value_rank": windows.user_value_rank,  # RANK/DENSE_RANK ties
        "event_transitions": windows.event_transitions,  # LEAD Markov counts
        "label_centroids": vectorstats.label_centroids,  # per-class prototype
        "percentiles_cont": quantiles.event_value_percentiles_cont,
        # round-3 late additions — never driver-checked, so first of all:
        "event_gaps": windows.event_gaps,  # LAG() OVER window shape
        "user_running_value": windows.user_running_value,  # SUM() OVER
        "user_rolling_sum": windows.user_rolling_sum,  # ROWS k PRECEDING
        "new_users_daily": windows.new_users_daily,  # cumulative DAU growth
        "local_supplier_volume": relational.local_supplier_volume,  # Q5
        "rollup_report": relational.rollup_report,  # GROUPING SETS shape
        "large_order_customers": relational.large_order_customers,  # Q18
        "small_order_revenue": relational.small_order_revenue,  # Q17
        "referential_audit": audit.referential_audit,  # FK orphan sweep
        "user_event_pivot": events.user_event_pivot,  # conditional-agg pivot
        "first_touch": windows.first_touch,  # FIRST_VALUE / rn=1 shape
        "event_value_rank": windows.event_value_rank,  # global ROW_NUMBER+NTILE
        "order_fill_report": relational.order_fill_report,  # LEFT OUTER join
        "daily_active_users": events.daily_active_users,  # grouped COUNT(DISTINCT)
        "two_hop_counts": graph.two_hop_counts,  # KG self-join reachability
        "hll_users_by_type": sketches.hll_users_by_type,  # HLL vs exact
        "hybrid_rrf_topk": retrieval.hybrid_rrf_topk,  # BM25+dense RRF fuse
        "shipping_priority_topk": relational.shipping_priority_topk,  # Q3
        "order_count_distribution": distributions.order_count_distribution,
        "embedding_dim_stats": vectorstats.embedding_dim_stats,
        "sample_k_per_source": curation.sample_k_per_source,
        "bm25_topk": retrieval.bm25_topk,  # Okapi BM25 keyword top-k
        "pricing_summary": relational.pricing_summary,  # TPC-H Q1 shape
        "masked_spans": curation.masked_spans,  # T5 span-corruption plan
        "domain_mix_temperature": curation.domain_mix_temperature,
        "sentence_split": curation.sentence_split,  # row-explosion flat_map
        "value_outliers": events.value_outliers,  # per-type z-score gate
        "anti_join_customers": relational.customers_without_orders,
        "late_shipment_priority": relational.late_shipment_priority,  # Q4 EXISTS
        "promo_revenue_share": relational.promo_revenue_share,  # Q14 ratio
        "late_event_stats": windows.late_event_stats,  # watermark lateness
        "winsorized_value_mean": quantiles.winsorized_value_mean,  # robust mean
        "triangle_counts": graph.triangle_counts,  # degree-ordered triangles
        "lexical_diversity": textstats.lexical_diversity,  # per-doc TTR
        "term_freq_histogram": textstats.term_freq_histogram,  # Zipf curve
        "lang_confusion": textstats.lang_confusion,  # lang metadata audit
        "turn_role_transitions": kg.turn_role_transitions,  # turn-taking matrix
        "dup_rate_by_source": dedup.dup_rate_by_source,  # per-source dup audit
        "source_concentration": audit.source_concentration,  # HHI report
        "events_minute_rate": events.events_minute_rate,  # gap-filled series
        "conv_length_histogram": kg.conv_length_histogram,  # conv-size audit
        "value_mad_by_type": quantiles.value_mad_by_type,  # robust spread
        "first_response_latency": kg.first_response_latency,  # conv latency
        "tool_call_stats": kg.tool_call_stats,  # tool adoption report
        "embedding_quantize": similarity.embedding_quantize,  # int8 codes
        "knn_graph": similarity.knn_graph,  # exact all-pairs top-k join
        "bpe_encode": bpe.bpe_encode,  # tokenizer apply (memoized merges)
        "split_assign": curation.split_assign,  # hash train/val/test split
        "quality_classifier": classify.quality_classifier,  # logistic filter
        "dedup_incremental": dedup.dedup_incremental,  # new crawl vs corpus
        "bpe_train": bpe.bpe_train,  # distributed histogram + merge table
        "cdc_chunks": decontam.cdc_chunks,  # content-defined chunk dups
        "pack_sequences": curation.pack_sequences,  # distributed prefix sum
        "curation_e2e": curation.curation_e2e,  # gate -> dedup -> redact -> pack
        "training_batches": curation.training_batches,  # + vocab + ids (capstone)
        # round-3 additions — never driver-checked before, so first:
        "decontaminate": decontam.decontaminate,  # benchmark n-gram overlap
        "boilerplate_ngrams": decontam.boilerplate_ngrams,  # df>=K gram profile
        "entity_degree": graph.entity_degree,  # distinct-edge degree profile
        "entity_pagerank": graph.entity_pagerank,  # K-iter power iteration
        "entity_pmi": graph.entity_pmi,  # co-occurrence PMI
        "lm_score": lmscore.lm_score,  # bigram LM quality scoring
        "dedup_semantic": dedup.dedup_semantic,  # SemDeDup: k-means + cosine
        "domain_mix": curation.domain_mix,  # uniform-mixture rebalancing
        "shuffle_shards": curation.shuffle_shards,  # trainer shard layout
        "dup_spans": decontam.dup_spans,  # exact duplicated-substring profile
        "normalize_text": curation.normalize_text,  # NFC/ws/case/digit canon
    }
    q["mentions_spans"] = lambda sf: extract.mentions_dataset(sf)
    # Occurrence schema (byte pos/len + codepoint upos/ulen + prob)
    for label in ("Email", "Url", "Date", "Phone", "Dict"):
        q[f"mentions_{label.lower()}"] = (
            lambda sf, lab=label: extract.mentions_by_label(sf, lab)
        )
    q.update({
        "transcripts": transcripts_dataset,
        "mention_counts": extract.mention_counts,
        "triples": kg.triples_dataset,
        "triples_tool": kg.triples_tool,
        "canonical_map": kg.canonical_map,
        "conv_entity_flow": kg.conv_entity_flow,
        "conv_stats": kg.conv_stats,
        "conv_digest_salted": kg.conv_digest_salted,
        "top_triples": kg.top_triples,
        "entities": kg.entities_table,
        "entity_components": kg.entity_components,
        "events_windowed": events.events_windowed,
        "events_sessionized": events.events_sessionized,
        "events_props": events.events_props_stats,
        "events_sliding": events.events_sliding_window,
        "top_events_per_user": events.top_events_per_user,  # grouped top-k
        "errors_prior_window": events.errors_prior_window,  # range join
        "funnel_counts": events.funnel_counts,  # ordered conversion funnel
        "orders_by_nation": relational.orders_by_nation,
        "order_priority_totals": relational.order_priority_totals,
        "purchases_asof_clicks": relational.purchases_asof_clicks,  # as-of join
        "event_value_quantiles": quantiles.event_value_quantiles,  # exact, sortless
        "token_quantiles_by_lang": quantiles.token_quantiles_by_lang,  # grouped
        # training-data operators (documents / embeddings tables)
        "dedup_exact": dedup.dedup_exact,
        "dedup_keep_list": dedup.dedup_keep_list,
        "dedup_minhash": dedup.dedup_minhash_pairs,  # LSH + exact verify
        "dedup_simhash": dedup.dedup_simhash_pairs,  # md5-simhash, exact SQL
        "dedup_ngram_jaccard": dedup.dedup_ngram_jaccard,
        "dedup_embedding": dedup.embedding_dup_pairs,
        "dedup_clusters": dedup.dedup_clusters,  # pairs -> CC -> keep/drop
        "ann_topk": similarity.ann_cosine_topk,
        "ann_lsh_topk": similarity.ann_lsh_topk,  # plane-literal SQL oracle
        "ann_ivf_topk": similarity.ann_ivf_topk,  # centroid-literal SQL oracle
        "text_quality": textstats.text_quality,
        "documents_quality_filtered": textstats.documents_quality_filtered,
        "lang_id": textstats.lang_id,
        "token_counts": textstats.token_counts,
        "doc_fingerprint": textstats.doc_fingerprint,
        "doc_fingerprint_winnow": textstats.doc_fingerprint_winnow,
        "top_terms_tfidf": textstats.top_terms_tfidf,  # vocabulary analysis
        "inverted_index": textstats.inverted_index,  # term -> capped postings
        "tokenize_ids": textstats.tokenize_ids,  # bounded vocab + id sequences
        "source_report": textstats.source_report,  # per-source report card
        "multimodal_features": multimodal.multimodal_features,
        "frame_sample": multimodal.frame_sample_features,
        "media_resize": multimodal.media_resize_features,  # binary->binary stage
        # curation operators (PII scrub / repetition gate / sampling)
        "pii_redact": curation.pii_redact,
        "repetition_stats": curation.repetition_stats,
        "documents_repetition_filtered": curation.documents_repetition_filtered,
        "sample_stratified": curation.sample_stratified,
    })
    # Registry order matters: the external correctness window hash-checks
    # the FIRST 50 entries each round.  These 42 keys have never had a
    # hash-checked row there (in-repo DuckDB parity green), so hoist them to
    # the front.  ``mentions_spans`` (the occurrence-schema query, the one
    # never green in that window) leads; then capstones.
    _never_driver_checked = [
        "mentions_spans",
        "hash_sample",       # round-5 new ops — no driver row yet
        "corpus_summary",
        "perplexity_buckets",
        "embedding_norm_outliers",
        "source_dedup_matrix",
        "tool_latency",
        "curation_e2e",
        "training_batches",
        "pack_sequences",
        "sole_late_supplier",
        "market_share",
        "returned_item_revenue",
        "late_line_priority_mix",
        "top_supplier_revenue",
        "knn_graph",
        "bpe_train",
        "bpe_encode",
        "lm_score",
        "quality_classifier",
        "decontaminate",
        "boilerplate_ngrams",
        "dup_spans",
        "cdc_chunks",
        "dedup_semantic",
        "dedup_incremental",
        "dedup_minhash_incremental",
        "domain_mix",
        "shuffle_shards",
        "normalize_text",
        "entity_degree",
        "entity_pagerank",
        "entity_pmi",
        "embedding_quantize",
        "split_assign",
        "events_minute_rate",
        "conv_length_histogram",
        "value_mad_by_type",
        "first_response_latency",
        "tool_call_stats",
        "key_skew_profile",
        "surface_link_candidates",
    ]
    front = {k: q[k] for k in _never_driver_checked}
    front.update({k: v for k, v in q.items() if k not in front})
    return front


def oracle_sql() -> dict[str, str]:
    from nativeextractor_ray.pipelines import (
        audit,
        bpe,
        classify,
        curation,
        decontam,
        dedup,
        events,
        graph,
        lmscore,
        multimodal,
        quantiles,
        relational,
        retrieval,
        similarity,
        sketches,
        textstats,
    )
    from nativeextractor_ray.pipelines import distributions
    from nativeextractor_ray.pipelines import kg
    from nativeextractor_ray.pipelines import oracles as o
    from nativeextractor_ray.pipelines import vectorstats
    from nativeextractor_ray.pipelines import windows

    from nativeextractor_ray.pipelines import skyline, ssjoin, versioned

    sqls = {
        "hash_sample": curation.hash_sample_sql(),
        "corpus_summary": textstats.CORPUS_SUMMARY_SQL,
        "perplexity_buckets": lmscore.perplexity_buckets_sql(),
        "embedding_norm_outliers":
            vectorstats.embedding_norm_outliers_sql(),
        "source_dedup_matrix": dedup.source_dedup_matrix_sql(),
        "tool_latency": kg.tool_latency_sql(),
        "conv_entity_density": kg.conv_entity_density_sql(),
        "role_vocab_divergence": kg.role_vocab_divergence_sql(),
        "embedding_pca_project": vectorstats.embedding_pca_project_sql(),
        "key_gaps": audit.key_gaps_sql(),
        "session_bounce_rate": events.session_bounce_rate_sql(),
        "rfm_segments": distributions.rfm_segments_sql(),
        "ship_latency_quantiles":
            quantiles.ship_latency_quantiles_by_priority_sql(),
        "high_value_events": events.high_value_events_sql(),
        "price_reconciliation": audit.price_reconciliation_sql(),
        "weekly_active_users": events.weekly_active_users_sql(),
        "transition_dwell": events.transition_dwell_sql(),
        "length_drift_ks": audit.length_drift_ks_sql(),
        "entity_timeline": kg.entity_timeline_sql(),
        "entity_adoption": kg.entity_adoption_sql(),
        "source_similarity_minhash":
            sketches.source_similarity_minhash_sql(),
        "lang_source_chisq": audit.lang_source_chisq_sql(),
        "embedding_covariance": vectorstats.embedding_covariance_sql(),
        "value_histogram": events.value_histogram_sql(),
        "daily_trend_by_type": events.daily_trend_by_type_sql(),
        "chunk_documents": curation.chunk_documents_sql(),
        "exact_stratified_split": curation.exact_stratified_split_sql(),
        "snapshot_compact": versioned.snapshot_compact_sql(),
        "snapshot_diff": versioned.snapshot_diff_sql(),
        "table_checksums": audit.table_checksums_sql(),
        "conversion_latency_quantiles":
            quantiles.conversion_latency_quantiles_sql(),
        "ssjoin_jaccard": ssjoin.ssjoin_jaccard_sql(),
        "peak_concurrency": events.peak_concurrency_sql(),
        "skyline_orders": skyline.skyline_orders_sql(),
        "weighted_sample": curation.weighted_sample_sql(),
        "column_profile": audit.column_profile_sql(),
        "modal_value_by_type": events.modal_value_by_type_sql(),
        "event_path_trigrams": windows.event_path_trigrams_sql(),
        "dup_cluster_sizes": dedup.dup_cluster_sizes_sql(),
        "sampled_value_quantiles": quantiles.sampled_value_quantiles_sql(),
        "curriculum_assign": curation.curriculum_assign_sql(),
        "session_duration_quantiles":
            quantiles.session_duration_quantiles_sql(),
        "event_type_affinity": events.event_type_affinity_sql(),
        "value_correlations": events.value_correlations_sql(),
        "degree_distribution": graph.degree_distribution_sql(),
        "tool_transitions": kg.tool_transitions_sql(),
        "feature_hashing": textstats.feature_hashing_sql(),
        "product_type_profit": relational.product_type_profit_sql(),
        "important_stock": relational.important_stock_sql(),
        "supplier_relationship": relational.supplier_relationship_sql(),
        "potential_promotion": relational.potential_promotion_sql(),
        "forecast_revenue_change": relational.forecast_revenue_change_sql(),
        "kcore_entities": graph.kcore_entities_sql(),
        "seed_reachability": graph.seed_reachability_sql(),
        "trending_terms": kg.trending_terms_sql(),
        "retention_cohorts": events.retention_cohorts_sql(),
        "key_skew_profile": audit.key_skew_profile_sql(),
        "surface_link_candidates": graph.surface_link_candidates_sql(),
        "dedup_minhash_incremental": dedup.dedup_minhash_incremental_sql(),
        "returned_item_revenue": relational.returned_item_revenue_sql(),
        "late_line_priority_mix": relational.late_line_priority_mix_sql(),
        "top_supplier_revenue": relational.top_supplier_revenue_sql(),
        "sole_late_supplier": relational.sole_late_supplier_sql(),
        "market_share": relational.market_share_sql(),
        "entity_neighbor_jaccard": graph.entity_neighbor_jaccard_sql(),
        "nation_trade_volume": relational.nation_trade_volume_sql(),
        "audience_overlap": events.audience_overlap_sql(),
        "idle_customer_balance": relational.idle_customer_balance_sql(),
        "min_cost_supplier": relational.min_cost_supplier_sql(),
        "disjunctive_revenue": relational.disjunctive_revenue_sql(),
        "cms_heavy_hitters": sketches.cms_heavy_hitters_sql(),
        "user_value_rank": windows.user_value_rank_sql(),
        "event_transitions": windows.event_transitions_sql(),
        "label_centroids": vectorstats.label_centroids_sql(),
        "percentiles_cont": quantiles.event_value_percentiles_cont_sql(),
        "event_gaps": windows.event_gaps_sql(),
        "user_running_value": windows.user_running_value_sql(),
        "user_rolling_sum": windows.user_rolling_sum_sql(),
        "new_users_daily": windows.new_users_daily_sql(),
        "local_supplier_volume": relational.local_supplier_volume_sql(),
        "rollup_report": relational.ROLLUP_REPORT_SQL,
        "large_order_customers": relational.large_order_customers_sql(),
        "small_order_revenue": relational.SMALL_ORDER_REVENUE_SQL,
        "referential_audit": audit.referential_audit_sql(),
        "user_event_pivot": events.user_event_pivot_sql(),
        "first_touch": windows.first_touch_sql(),
        "event_value_rank": windows.event_value_rank_sql(),
        "order_fill_report": relational.ORDER_FILL_REPORT_SQL,
        "daily_active_users": events.daily_active_users_sql(),
        "two_hop_counts": graph.two_hop_counts_sql(),
        "order_count_distribution":
            distributions.order_count_distribution_sql(),
        "embedding_dim_stats": vectorstats.embedding_dim_stats_sql(),
        "sample_k_per_source": curation.sample_k_per_source_sql(),
        "hll_users_by_type": sketches.hll_users_by_type_sql(),
        "hybrid_rrf_topk": retrieval.hybrid_rrf_topk_sql(),
        "shipping_priority_topk": relational.shipping_priority_topk_sql(),
        "bm25_topk": retrieval.bm25_topk_sql(),
        "pricing_summary": relational.pricing_summary_sql(),
        "masked_spans": curation.MASKED_SPANS_SQL,
        # thresholds computed once on the driver, embedded as literals
        # (pow() is not bit-reproducible across engines)
        "domain_mix_temperature": curation.domain_mix_temperature_sql(),
        "sentence_split": curation.SENTENCE_SPLIT_SQL,
        "value_outliers": events.VALUE_OUTLIERS_SQL,
        "anti_join_customers": relational.CUSTOMERS_WITHOUT_ORDERS_SQL,
        "late_shipment_priority": relational.late_shipment_priority_sql(),
        "promo_revenue_share": relational.promo_revenue_share_sql(),
        "late_event_stats": windows.late_event_stats_sql(),
        "winsorized_value_mean": quantiles.winsorized_value_mean_sql(),
        "triangle_counts": graph.triangle_counts_sql(),
        "lexical_diversity": textstats.lexical_diversity_sql(),
        "term_freq_histogram": textstats.term_freq_histogram_sql(),
        "lang_confusion": textstats.lang_confusion_sql(),
        "turn_role_transitions": kg.turn_role_transitions_sql(),
        "dup_rate_by_source": dedup.DUP_RATE_BY_SOURCE_SQL,
        "source_concentration": audit.SOURCE_CONCENTRATION_SQL,
        "events_minute_rate": events.EVENTS_MINUTE_RATE_SQL,
        "conv_length_histogram": kg.conv_length_histogram_sql(),
        "value_mad_by_type": quantiles.value_mad_by_type_sql(),
        "first_response_latency": kg.first_response_latency_sql(),
        "tool_call_stats": kg.tool_call_stats_sql(),
        "embedding_quantize": similarity.embedding_quantize_sql(),
        "knn_graph": similarity.knn_graph_sql(),
        # iterative merge apply — independent scalar reference as VALUES
        "bpe_encode": bpe.bpe_encode_sql(),
        "split_assign": curation.SPLIT_ASSIGN_SQL,
        "quality_classifier": classify.quality_classifier_sql(),
        "dedup_incremental": dedup.dedup_incremental_sql(),
        # iterative fixpoint — expected merge table from an independent
        # scalar reference as VALUES literals (mentions_spans pattern)
        "bpe_train": bpe.bpe_train_sql(),
        "cdc_chunks": decontam.cdc_chunks_sql(),
        "transcripts": o.TRANSCRIPTS_ONLY_SQL,
        "mention_counts": o.MENTION_COUNTS_SQL,
        "triples": o.TRIPLES_SQL,
        "triples_tool": o.TRIPLES_TOOL_SQL,
        "canonical_map": o.CANONICAL_MAP_SQL,
        "conv_entity_flow": o.CONV_ENTITY_FLOW_SQL,
        "conv_stats": o.CONV_STATS_SQL,
        "conv_digest_salted": o.CONV_DIGEST_SALTED_SQL,
        "top_triples": o.TOP_TRIPLES_SQL,
        "entities": o.ENTITIES_SQL,
        "entity_components": o.ENTITY_COMPONENTS_SQL,
        "events_windowed": events.EVENTS_WINDOWED_SQL,
        "events_sessionized": events.EVENTS_SESSIONIZED_SQL,
        "events_props": events.EVENTS_PROPS_SQL,
        "events_sliding": events.EVENTS_SLIDING_SQL,
        "top_events_per_user": events.top_events_per_user_sql(),
        "errors_prior_window": events.errors_prior_window_sql(),
        "funnel_counts": events.funnel_counts_sql(),
        "orders_by_nation": relational.ORDERS_BY_NATION_SQL,
        "order_priority_totals": relational.ORDER_PRIORITY_TOTALS_SQL,
        "purchases_asof_clicks": relational.PURCHASES_ASOF_CLICKS_SQL,
        "event_value_quantiles": quantiles.event_value_quantiles_sql(),
        "token_quantiles_by_lang": quantiles.token_quantiles_by_lang_sql(),
        "dedup_exact": dedup.DEDUP_EXACT_SQL,
        "dedup_keep_list": dedup.DEDUP_KEEP_LIST_SQL,
        # LSH proposes, exact n-gram Jaccard verifies → the quadratic SQL
        # is a true oracle (recall argument in dedup_minhash_pairs)
        "dedup_minhash": dedup.ngram_jaccard_sql(3, 0.5),
        # signature computation replayed in SQL; 4×16 banding has
        # guaranteed recall for Hamming ≤ 3, so all-pairs SQL == LSH output
        "dedup_simhash": dedup.SIMHASH_SQL,
        "dedup_ngram_jaccard": dedup.ngram_jaccard_sql(),
        "dedup_embedding": dedup.embedding_dup_sql(),
        "dedup_clusters": dedup.dedup_clusters_sql(),
        "ann_topk": similarity.ANN_TOPK_SQL,
        # seed-fixed hyperplanes as SQL literals → identical buckets+rerank
        "ann_lsh_topk": similarity.ann_lsh_sql(),
        # deterministic trained centroids as SQL literals (same pattern);
        # trained on $GRAFT_ORACLE_SF_DIR (default: the driver's sf0.01)
        "ann_ivf_topk": similarity.ann_ivf_sql(),
        "text_quality": textstats.TEXT_QUALITY_SQL,
        "documents_quality_filtered": textstats.DOCUMENTS_QUALITY_FILTERED_SQL,
        "lang_id": textstats.LANG_ID_SQL,
        "token_counts": textstats.TOKEN_COUNTS_SQL,
        "doc_fingerprint": textstats.DOC_FINGERPRINT_SQL,
        "doc_fingerprint_winnow": textstats.WINNOW_SQL,
        "top_terms_tfidf": textstats.top_terms_tfidf_sql(),
        "inverted_index": textstats.inverted_index_sql(),
        "tokenize_ids": textstats.tokenize_ids_sql(),
        "source_report": textstats.source_report_sql(),
        "multimodal_features": multimodal.MULTIMODAL_FEATURES_SQL,
        "frame_sample": multimodal.FRAME_SAMPLE_SQL,
        "media_resize": multimodal.media_resize_sql(),
        "pii_redact": curation.PII_REDACT_SQL,
        "repetition_stats": curation.REPETITION_STATS_SQL,
        "documents_repetition_filtered": curation.DOCUMENTS_REPETITION_FILTERED_SQL,
        "sample_stratified": curation.SAMPLE_STRATIFIED_SQL,
        "decontaminate": decontam.decontaminate_sql(),
        "boilerplate_ngrams": decontam.boilerplate_sql(),
        "entity_degree": graph.entity_degree_sql(),
        "entity_pagerank": graph.entity_pagerank_sql(),
        "entity_pmi": graph.entity_pmi_sql(),
        "lm_score": lmscore.lm_score_sql(),
        # deterministic trained centroids as SQL literals (ann_ivf pattern)
        "dedup_semantic": dedup.dedup_semantic_sql(),
        "domain_mix": curation.DOMAIN_MIX_SQL,
        "shuffle_shards": curation.SHUFFLE_SHARDS_SQL,
        "dup_spans": decontam.dup_spans_sql(),
        "normalize_text": curation.NORMALIZE_TEXT_SQL,
        "pack_sequences": curation.PACK_SEQUENCES_SQL,
        "curation_e2e": curation.curation_e2e_sql(),
        "training_batches": curation.training_batches_sql(),
    }
    sqls.update(o.mention_sqls())
    sqls["mentions_spans"] = o.mentions_spans_sql()
    return sqls
