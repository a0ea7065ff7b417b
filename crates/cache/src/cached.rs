//! The transparent caching wrapper around any interface stack.

use crate::store::QueryCache;
use smartcrawl_hidden::{
    canonical_query_key, CacheStats, SearchError, SearchInterface, SearchPage,
};

/// A [`SearchInterface`] that serves repeated logically-equal queries from
/// a borrowed [`QueryCache`] and forwards only genuine misses to `inner`.
///
/// Transparency: against a deterministic interface the cached stack
/// returns exactly the pages the bare stack would — keys canonicalize no
/// further than the engine's own query normalization, and errors are never
/// cached — so any crawl run on top of it produces an identical
/// `CrawlReport` trajectory (the cross-crate `cache_properties` test
/// asserts this for every approach).
///
/// Budget semantics: by default a hit never reaches `inner`, so a wrapped
/// [`Metered`](smartcrawl_hidden::Metered) only pays for misses; the meter
/// is still *notified* of each hit (audit-log entries with
/// `from_cache: true`). With
/// [`charged_hits`](crate::CachePolicy::charged_hits) the notification
/// also charges the meter, and a hit is denied with
/// [`SearchError::BudgetExhausted`] once the quota is gone — the
/// faithfulness mode where caching changes latency but not accounting.
///
/// The store is borrowed, not owned, so sweeps can thread one warm cache
/// through many runs:
///
/// ```
/// use smartcrawl_cache::{CachedInterface, QueryCache};
/// use smartcrawl_hidden::{HiddenDbBuilder, HiddenRecord, Metered, SearchInterface};
/// use smartcrawl_text::Record;
///
/// let db = HiddenDbBuilder::new()
///     .k(5)
///     .records([HiddenRecord::new(0, Record::from(["thai house"]), vec![], 1.0)])
///     .build();
/// let mut cache = QueryCache::default();
/// for _run in 0..3 {
///     let mut iface = CachedInterface::new(&mut cache, Metered::new(&db, Some(10)));
///     iface.search(&["thai".into()]).unwrap();
///     // Runs after the first never touch the meter.
///     assert!(iface.into_inner().queries_issued() <= 1);
/// }
/// assert_eq!(cache.stats().hits, 2);
/// ```
#[derive(Debug)]
pub struct CachedInterface<'c, I> {
    cache: &'c mut QueryCache,
    inner: I,
}

impl<'c, I: SearchInterface> CachedInterface<'c, I> {
    /// Wraps `inner` with the given (possibly already warm) store.
    pub fn new(cache: &'c mut QueryCache, inner: I) -> Self {
        Self { cache, inner }
    }

    /// Shared access to the wrapped interface (e.g. a meter's audit log).
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Unwraps the inner interface, releasing the store borrow.
    pub fn into_inner(self) -> I {
        self.inner
    }
}

impl<I: SearchInterface> SearchInterface for CachedInterface<'_, I> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn search(&mut self, keywords: &[String]) -> Result<SearchPage, SearchError> {
        let key = canonical_query_key(keywords);
        if let Some(page) = self.cache.peek(&key) {
            let results = page.records.len();
            // Records are Arc-backed: this clone (and the insert below) is
            // refcount bumps per record, not a deep copy of every cell.
            let page = page.clone();
            // Settle the hit's cost before committing it: in charged-hits
            // mode an exhausted meter denies the hit altogether.
            self.inner
                .record_cache_hit(keywords, results, self.cache.policy().charged_hits)?;
            self.cache.commit_hit(&key);
            return Ok(page);
        }
        self.cache.note_miss();
        match self.inner.search(keywords) {
            Ok(page) => {
                self.cache.insert(key, page.clone());
                Ok(page)
            }
            Err(err) => {
                // Never cache failures: transient/throttled errors say
                // nothing about the query's true page, and a budget
                // rejection is a property of the meter, not the query.
                self.cache.note_uncached_error();
                Err(err)
            }
        }
    }

    fn queries_issued(&self) -> usize {
        self.inner.queries_issued()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    fn record_cache_hit(
        &mut self,
        keywords: &[String],
        results: usize,
        charge: bool,
    ) -> Result<(), SearchError> {
        // A cache stacked above this one served the query; pass the
        // notification through to any meter below.
        self.inner.record_cache_hit(keywords, results, charge)
    }

    fn begin_query(&mut self, index: usize) {
        self.inner.begin_query(index);
    }

    fn prefetch_handle<'h>(&self) -> Option<&'h smartcrawl_hidden::HiddenDb>
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
        // Mirror `search` exactly: a cached page wins over the prefetched
        // one (same bytes against a deterministic engine, and the hit's
        // budget/audit accounting must happen either way); a miss commits
        // the speculative page through the inner stack instead of
        // recomputing it.
        let key = canonical_query_key(keywords);
        if let Some(page) = self.cache.peek(&key) {
            let results = page.records.len();
            let page = page.clone();
            self.inner
                .record_cache_hit(keywords, results, self.cache.policy().charged_hits)?;
            self.cache.commit_hit(&key);
            return Ok(page);
        }
        self.cache.note_miss();
        match self.inner.commit_prefetched(keywords, prefetched) {
            Ok(page) => {
                self.cache.insert(key, page.clone());
                Ok(page)
            }
            Err(err) => {
                self.cache.note_uncached_error();
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CachePolicy;
    use smartcrawl_hidden::{
        FlakyInterface, HiddenDb, HiddenDbBuilder, HiddenRecord, Metered,
    };
    use smartcrawl_text::Record;

    fn tiny_db() -> HiddenDb {
        HiddenDbBuilder::new()
            .k(2)
            .records([
                HiddenRecord::new(0, Record::from(["thai house"]), vec!["p0".into()], 1.0),
                HiddenRecord::new(1, Record::from(["steak house"]), vec!["p1".into()], 2.0),
                HiddenRecord::new(2, Record::from(["noodle bar"]), vec!["p2".into()], 3.0),
            ])
            .build()
    }

    #[test]
    fn repeated_queries_hit_without_touching_the_meter() {
        let db = tiny_db();
        let mut cache = QueryCache::default();
        let mut iface = CachedInterface::new(&mut cache, Metered::new(&db, Some(10)).with_log());
        let first = iface.search(&["house".into()]).unwrap();
        let second = iface.search(&["house".into()]).unwrap();
        let third = iface.search(&["HOUSE".into()]).unwrap(); // canonical collision
        assert_eq!(first, second);
        assert_eq!(first, third);
        let meter = iface.into_inner();
        assert_eq!(meter.queries_issued(), 1, "hits are free by default");
        // The audit log still accounts for every served page.
        assert_eq!(meter.log().len(), 3);
        assert!(!meter.log()[0].from_cache);
        assert!(meter.log()[1].from_cache && meter.log()[1].served);
        assert_eq!(meter.log()[1].results, 2);
        assert_eq!(meter.distinct_served(), 1);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn charged_hits_consume_the_meter_and_deny_when_exhausted() {
        let db = tiny_db();
        let mut cache =
            QueryCache::new(CachePolicy { charged_hits: true, ..Default::default() });
        let mut iface = CachedInterface::new(&mut cache, Metered::new(&db, Some(2)));
        iface.search(&["house".into()]).unwrap(); // miss, charged
        iface.search(&["house".into()]).unwrap(); // hit, charged too
        assert_eq!(
            iface.search(&["house".into()]),
            Err(SearchError::BudgetExhausted),
            "a charged hit past the quota is denied"
        );
        assert_eq!(iface.queries_issued(), 2);
        // The denied lookup was not committed as a hit.
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn errors_are_never_cached() {
        let db = tiny_db();
        let mut cache = QueryCache::default();
        // Fails on the 1st and some later attempts (seeded), then serves.
        let mut iface = CachedInterface::new(
            &mut cache,
            FlakyInterface::new(Metered::new(&db, None), 1.0, 3),
        );
        assert_eq!(iface.search(&["thai".into()]), Err(SearchError::Transient));
        assert_eq!(iface.search(&["thai".into()]), Err(SearchError::Transient));
        let stats = iface.cache_stats().unwrap();
        assert_eq!(stats.uncached_errors, 2);
        assert_eq!(stats.insertions, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn flaky_inside_the_cache_is_bypassed_on_hits() {
        let db = tiny_db();
        let mut cache = QueryCache::default();
        // 0% failures while warming, then crank flakiness: hits still land.
        let mut warm = CachedInterface::new(&mut cache, Metered::new(&db, None));
        let page = warm.search(&["steak".into()]).unwrap();
        drop(warm);
        let mut iface = CachedInterface::new(
            &mut cache,
            FlakyInterface::new(Metered::new(&db, None), 1.0, 9),
        );
        assert_eq!(iface.search(&["steak".into()]).unwrap(), page);
    }

    #[test]
    fn commit_prefetched_mirrors_search_on_hits_and_misses() {
        use smartcrawl_hidden::SearchPage;
        let db = tiny_db();
        let kw = vec!["house".to_string()];
        let prefetched = SearchPage { records: HiddenDb::search(&db, &kw) };

        let mut store_a = QueryCache::default();
        let mut seq = CachedInterface::new(&mut store_a, Metered::new(&db, Some(10)));
        let miss_page = seq.search(&kw).unwrap();
        let hit_page = seq.search(&kw).unwrap();
        drop(seq);

        let mut store_b = QueryCache::default();
        let mut pipe = CachedInterface::new(&mut store_b, Metered::new(&db, Some(10)));
        assert_eq!(pipe.commit_prefetched(&kw, &prefetched).unwrap(), miss_page);
        assert_eq!(pipe.commit_prefetched(&kw, &prefetched).unwrap(), hit_page);
        assert_eq!(pipe.queries_issued(), 1, "the hit never reached the meter");
        drop(pipe);
        assert_eq!(store_a.stats(), store_b.stats(), "cache counters identical");
    }

    #[test]
    fn negative_pages_hit_when_cached() {
        let db = tiny_db();
        let mut cache = QueryCache::default();
        let mut iface = CachedInterface::new(&mut cache, Metered::new(&db, Some(10)));
        assert!(iface.search(&["unobtainium".into()]).unwrap().records.is_empty());
        assert!(iface.search(&["unobtainium".into()]).unwrap().records.is_empty());
        assert_eq!(iface.queries_issued(), 1);
        assert_eq!(cache.stats().negative_hits, 1);
    }
}
