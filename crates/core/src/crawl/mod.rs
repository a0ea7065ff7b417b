//! Crawlers: the public entry points that spend a query budget against a
//! hidden database and report what they covered.
//!
//! * [`smart_crawl`] — the SmartCrawl framework (QSel-Simple, QSel-Bound,
//!   or QSel-Est);
//! * [`ideal_crawl`] — IdealCrawl: SmartCrawl with QSel-Ideal and free
//!   oracle evaluation (an upper bound, usable only against a simulator);
//! * [`naive_crawl`] — NaiveCrawl: one maximally-specific query per local
//!   record, in random order (what OpenRefine's reconciliation does);
//! * [`full_crawl`] — FullCrawl: classic hidden-database crawling that
//!   issues sample-frequent keywords to maximize *hidden* coverage,
//!   oblivious of `D`;
//! * [`online_smart_crawl`] — SmartCrawl with *runtime sampling* (paper
//!   §9 future work #1): no offline sample; sampling rounds are
//!   interleaved with crawling under one budget;
//! * [`populate_crawl`] — row population (paper §9 future work #3):
//!   crawl for new *rows* of the local table's kind instead of new
//!   columns.
//!
//! All of them run on the same [`CrawlSession`] driver ([`session`]),
//! differing only in their [`QuerySource`]; each also has a `*_with`
//! variant taking a [`RetryPolicy`](smartcrawl_hidden::RetryPolicy) and a
//! [`CrawlObserver`] ([`observe`]) for fault-tolerant, instrumented runs.

mod clean;
mod full;
mod naive;
pub mod observe;
mod online;
mod populate;
pub mod session;
mod smart;

pub use clean::{suggest_corrections, Correction};

pub use full::{full_crawl, full_crawl_with, FullSource};
pub use naive::{naive_crawl, naive_crawl_with, NaiveSource};
pub use observe::{
    CountingObserver, CrawlEvent, CrawlObserver, EventCounts, EventStamp, NullObserver, TraceLog,
};
pub use online::{online_smart_crawl, online_smart_crawl_with, OnlineCrawlConfig, OnlineSource};
pub use populate::{
    populate_crawl, populate_crawl_with, PopulateConfig, PopulateOutcome, PopulateSource,
};
pub use session::{
    CrawlSession, EngineSource, Observation, PhaseTimings, PipelineStats, QuerySource,
};
pub use smart::{
    ideal_crawl, ideal_crawl_with, smart_crawl, smart_crawl_with, IdealCrawlConfig,
    SmartCrawlConfig,
};

use smartcrawl_hidden::ExternalId;
use std::sync::Arc;

/// One issued query and what came back.
#[derive(Debug, Clone)]
pub struct CrawlStep {
    /// The issued keywords.
    pub keywords: Vec<String>,
    /// External ids of the returned records, rank order.
    pub returned: Vec<ExternalId>,
    /// Whether the page hit the interface's `k` limit (possible overflow).
    pub full_page: bool,
}

/// A local record successfully matched to a crawled hidden record — the
/// enrichment output.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrichedPair {
    /// Local record position.
    pub local: usize,
    /// Matching hidden record.
    pub external: ExternalId,
    /// The hidden record's enrichment attributes. Shared with the
    /// [`Retrieved`](smartcrawl_hidden::Retrieved) view it came from, so
    /// keeping an enrichment pair costs a refcount, not a cell copy.
    pub payload: Arc<[String]>,
    /// The hidden record's indexed fields, as returned (shared like
    /// `payload`) — kept so fuzzy matches can drive error detection (see
    /// [`suggest_corrections`]).
    pub hidden_fields: Arc<[String]>,
}

/// Everything a crawler did with its budget.
#[derive(Debug, Clone, Default)]
pub struct CrawlReport {
    /// Issued queries, in order.
    pub steps: Vec<CrawlStep>,
    /// Matcher-asserted local-to-hidden assignments (first match wins).
    pub enriched: Vec<EnrichedPair>,
    /// Local records the crawler removed from consideration (covered plus
    /// ΔD-predicted removals — SmartCrawl/IdealCrawl only).
    pub records_removed: usize,
    /// Selection-machinery work counters (SmartCrawl/IdealCrawl only;
    /// zeros for the baselines, which have no selection machinery).
    pub selection: crate::select::engine::SelectionStats,
    /// Wall-clock time spent per crawl phase (selection vs. search vs.
    /// matching), plus simulated retry backoff.
    pub timing: session::PhaseTimings,
    /// The session's own event tallies (kept regardless of which
    /// [`CrawlObserver`] was installed).
    pub events: observe::EventCounts,
    /// Query-result cache activity during this run — `None` unless a cache
    /// layer (e.g. `smartcrawl-cache`'s `CachedInterface`) sits in the
    /// interface stack. Always this run's *delta*, even when the cache
    /// store is shared across runs (warm sweeps).
    pub cache: Option<smartcrawl_hidden::CacheStats>,
    /// Speculation accounting of the session's prefetch step — `None` when
    /// it did not speculate (pipeline depth 1, or no
    /// [`prefetch_handle`](smartcrawl_hidden::SearchInterface::prefetch_handle)
    /// in the interface stack). Pure profile, like `cache`: never folded
    /// into result digests.
    pub pipeline: Option<session::PipelineStats>,
    /// Page-cache activity of the on-disk index backend — `None` on the
    /// (default) RAM backend. Attached by the bench harness after the
    /// crawl; cache statistics are schedule-dependent, so they are
    /// reported but never folded into result digests.
    pub store: Option<smartcrawl_store::StoreReport>,
}

impl CrawlReport {
    /// Number of queries actually issued.
    pub fn queries_issued(&self) -> usize {
        self.steps.len()
    }

    /// Number of local records the crawler *believes* it covered (by its
    /// own matcher — ground-truth coverage is computed by the evaluation
    /// harness).
    pub fn covered_claimed(&self) -> usize {
        self.enriched.len()
    }

    /// A one-line human-readable summary (used by the CLI and examples).
    pub fn summary(&self) -> String {
        format!(
            "{} queries issued, {} records covered, {} removed from D ({} priority recomputations, {} forward-index touches)",
            self.queries_issued(),
            self.covered_claimed(),
            self.records_removed,
            self.selection.stale_recomputes,
            self.selection.forward_touches,
        )
    }

    /// All distinct crawled external ids, in first-seen order.
    pub fn crawled_ids(&self) -> Vec<ExternalId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for step in &self.steps {
            for &id in &step.returned {
                if seen.insert(id) {
                    out.push(id);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crawled_ids_dedupe_across_steps() {
        let report = CrawlReport {
            steps: vec![
                CrawlStep {
                    keywords: vec!["a".into()],
                    returned: vec![ExternalId(1), ExternalId(2)],
                    full_page: false,
                },
                CrawlStep {
                    keywords: vec!["b".into()],
                    returned: vec![ExternalId(2), ExternalId(3)],
                    full_page: false,
                },
            ],
            ..Default::default()
        };
        assert_eq!(report.queries_issued(), 2);
        assert_eq!(
            report.crawled_ids(),
            vec![ExternalId(1), ExternalId(2), ExternalId(3)]
        );
        let summary = report.summary();
        assert!(summary.starts_with("2 queries issued, 0 records covered"));
        assert_eq!(
            summary,
            "2 queries issued, 0 records covered, 0 removed from D \
             (0 priority recomputations, 0 forward-index touches)"
        );
        assert!(!summary.contains("  "), "no run-on whitespace: {summary:?}");
    }
}
