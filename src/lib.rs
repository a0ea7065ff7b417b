//! # deeper — progressive deep-web crawling for data enrichment
//!
//! Facade crate over the SmartCrawl workspace, a from-scratch Rust
//! reproduction of *Progressive Deep Web Crawling Through Keyword Queries
//! For Data Enrichment* (Wang, Shea, Wang, Wu — SIGMOD 2019). The name
//! follows the paper's end-to-end system, DeepER.
//!
//! The crates re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `smartcrawl-core` | SmartCrawl framework: pool, estimators, QSel-* strategies, crawlers |
//! | [`text`] | `smartcrawl-text` | tokenization, documents, similarity |
//! | [`index`] | `smartcrawl-index` | inverted/forward indexes, lazy priority queue |
//! | [`fpm`] | `smartcrawl-fpm` | frequent itemset mining (vertical miner, Apriori reference) |
//! | [`hidden`] | `smartcrawl-hidden` | hidden-database simulator + search interfaces |
//! | [`cache`] | `smartcrawl-cache` | persistent query-result cache between crawler and interface |
//! | [`sampler`] | `smartcrawl-sampler` | deep-web samplers (oracle + pool-based) |
//! | [`matching`] | `smartcrawl-match` | entity resolution (exact, Jaccard), schema matching |
//! | [`data`] | `smartcrawl-data` | synthetic DBLP-like / Yelp-like workloads |
//! | [`par`] | `smartcrawl-par` | deterministic data-parallel runtime (fixed chunking, `SMARTCRAWL_THREADS`) |
//!
//! See `examples/quickstart.rs` for a five-minute tour, and the
//! `smartcrawl-bench` crate for the harness that regenerates every figure
//! and table of the paper.

pub mod csvio;

pub use smartcrawl_cache as cache;
pub use smartcrawl_core as core;
pub use smartcrawl_data as data;
pub use smartcrawl_fpm as fpm;
pub use smartcrawl_hidden as hidden;
pub use smartcrawl_index as index;
pub use smartcrawl_match as matching;
pub use smartcrawl_par as par;
pub use smartcrawl_sampler as sampler;
pub use smartcrawl_text as text;

// The most common entry points, flattened for convenience.
pub use smartcrawl_core::{
    crawl::{
        full_crawl, full_crawl_with, ideal_crawl, ideal_crawl_with, naive_crawl,
        naive_crawl_with, online_smart_crawl, online_smart_crawl_with, populate_crawl,
        populate_crawl_with, smart_crawl, smart_crawl_with, suggest_corrections, Correction,
        CountingObserver, CrawlEvent, CrawlObserver, CrawlReport, CrawlSession, EventCounts,
        EventStamp, IdealCrawlConfig, NullObserver, OnlineCrawlConfig, PhaseTimings,
        PipelineStats, PopulateConfig, PopulateOutcome, QuerySource, SmartCrawlConfig,
        TraceLog,
    },
    Estimator, EstimatorKind, LocalDb, PoolConfig, QueryPool, Strategy, TextContext,
};
pub use smartcrawl_cache::{load_cache, save_cache, CachePolicy, CachedInterface, QueryCache};
pub use smartcrawl_hidden::{
    canonical_query_key, CacheStats, FlakyInterface, HiddenDb, HiddenDbBuilder, HiddenRecord,
    Metered, RetryPolicy, SearchInterface,
};
pub use smartcrawl_match::Matcher;
pub use smartcrawl_sampler::{bernoulli_sample, pool_sample, HiddenSample, PoolSamplerConfig};
