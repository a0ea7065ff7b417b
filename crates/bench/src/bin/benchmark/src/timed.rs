//! The benchmark's two probes into a crawl, both attached from outside the
//! program: a pass-through wrapper on top of the interface stack that
//! counts (and, when tracing, times) every call the crawl driver makes,
//! and an observer that stamps each issued query.

use smartcrawl_core::crawl::{CrawlEvent, CrawlObserver, EventStamp};
use smartcrawl_hidden::{CacheStats, HiddenDb, SearchError, SearchInterface, SearchPage};
use std::time::Instant;

/// One interface call's wall-clock interval.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub start: Instant,
    pub end: Instant,
}

/// Wraps the top of an interface stack and forwards every
/// [`SearchInterface`] method to it. Each method is forwarded explicitly:
/// one left to its default would change the crawl under measurement
/// (`prefetch_handle` → `None` switches the pipeline off, `cache_stats` →
/// `None` drops the cache's counters from the report).
pub struct Timed<I> {
    inner: I,
    /// Calls that reached the stack: `search` plus `commit_prefetched`.
    pub attempts: u64,
    /// Of `attempts`, those answered `Transient` or `RateLimited`.
    pub failed: u64,
    /// Every call's interval, recorded only when tracing.
    pub calls: Option<Vec<Call>>,
}

impl<I: SearchInterface> Timed<I> {
    pub fn new(inner: I, traced: bool) -> Self {
        Self {
            inner,
            attempts: 0,
            failed: 0,
            calls: traced.then(Vec::new),
        }
    }

    pub fn inner(&self) -> &I {
        &self.inner
    }

    fn call(
        &mut self,
        f: impl FnOnce(&mut I) -> Result<SearchPage, SearchError>,
    ) -> Result<SearchPage, SearchError> {
        let start = self.calls.is_some().then(Instant::now);
        let result = f(&mut self.inner);
        if let (Some(calls), Some(start)) = (&mut self.calls, start) {
            calls.push(Call {
                start,
                end: Instant::now(),
            });
        }
        self.attempts += 1;
        if matches!(
            result,
            Err(SearchError::Transient | SearchError::RateLimited)
        ) {
            self.failed += 1;
        }
        result
    }
}

impl<I: SearchInterface> SearchInterface for Timed<I> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn search(&mut self, keywords: &[String]) -> Result<SearchPage, SearchError> {
        self.call(|inner| inner.search(keywords)) // lint:allow(budget-safety) Timed wraps a stack with Metered inside it, which charges every attempt
    }

    fn queries_issued(&self) -> usize {
        self.inner.queries_issued()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn record_cache_hit(
        &mut self,
        keywords: &[String],
        results: usize,
        charge: bool,
    ) -> Result<(), SearchError> {
        self.inner.record_cache_hit(keywords, results, charge)
    }

    fn begin_query(&mut self, index: usize) {
        self.inner.begin_query(index);
    }

    fn prefetch_handle<'h>(&self) -> Option<&'h HiddenDb>
    where
        Self: 'h,
    {
        self.inner.prefetch_handle()
    }

    fn commit_prefetched(
        &mut self,
        keywords: &[String],
        prefetched: &SearchPage,
    ) -> Result<SearchPage, SearchError> {
        self.call(|inner| inner.commit_prefetched(keywords, prefetched))
    }
}

/// Stamps issued queries: the wall-clock instant of the first one (where
/// set-up ends) and the `CrawlSession`-relative stamp of every one (step
/// gaps).
#[derive(Debug, Default)]
pub struct Steps {
    pub first: Option<Instant>,
    pub stamps: Vec<u64>,
}

impl Steps {
    /// Nanoseconds between consecutive issued queries.
    pub fn gaps(&self) -> impl Iterator<Item = u64> + '_ {
        self.stamps.windows(2).map(|w| w[1] - w[0])
    }
}

impl CrawlObserver for Steps {
    fn on_event(&mut self, at: EventStamp, event: &CrawlEvent) {
        if let CrawlEvent::QueryIssued { .. } = event {
            if self.first.is_none() {
                self.first = Some(Instant::now());
            }
            self.stamps.push(at.nanos);
        }
    }
}
