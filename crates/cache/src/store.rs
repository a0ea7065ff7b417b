//! The capacity-bounded LRU page store.

use smartcrawl_hidden::{CacheStats, SearchPage};
use smartcrawl_store::RecencyList;
use std::collections::HashMap;

/// What the cache keeps and what hits cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePolicy {
    /// Maximum number of cached pages (≥ 1). The least-recently-used entry
    /// is evicted when the store is full.
    pub capacity: usize,
    /// Whether *negative* results (empty pages) are cached. Real APIs
    /// often disable this so newly-appearing records are not masked;
    /// against the deterministic simulator it is safe and saves the most
    /// queries on selective workloads. Errors are never cached regardless:
    /// [`Transient`](smartcrawl_hidden::SearchError::Transient) and
    /// [`RateLimited`](smartcrawl_hidden::SearchError::RateLimited) say
    /// nothing about the query's true result.
    pub cache_negative: bool,
    /// Whether cache hits still consume the inner interface's budget
    /// (via [`SearchInterface::record_cache_hit`]). Off by default: a hit
    /// never leaves the cache layer, which is the whole point. On for
    /// faithfulness experiments where the paper's budget semantics must be
    /// preserved exactly even with a cache in the stack.
    ///
    /// [`SearchInterface::record_cache_hit`]:
    ///     smartcrawl_hidden::SearchInterface::record_cache_hit
    pub charged_hits: bool,
}

impl Default for CachePolicy {
    fn default() -> Self {
        Self {
            capacity: 1 << 16,
            cache_negative: true,
            charged_hits: false,
        }
    }
}

#[derive(Debug)]
struct Slot {
    key: Vec<String>,
    page: SearchPage,
}

/// An LRU map from canonical query keys to result pages, with cache
/// counters. The store is deliberately separate from the
/// [`CachedInterface`](crate::CachedInterface) wrapper so one store can be
/// shared (and keep accumulating) across many crawl runs — the sweep /
/// multi-seed reuse case — and persisted between processes.
#[derive(Debug)]
pub struct QueryCache {
    policy: CachePolicy,
    map: HashMap<Vec<String>, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Recency order of the occupied slots (the page store's list type).
    lru: RecencyList,
    stats: CacheStats,
}

impl QueryCache {
    /// An empty cache with the given policy.
    pub fn new(policy: CachePolicy) -> Self {
        assert!(policy.capacity >= 1, "cache capacity must be at least 1");
        Self {
            policy,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            lru: RecencyList::default(),
            stats: CacheStats::default(),
        }
    }

    /// The store's policy.
    pub fn policy(&self) -> &CachePolicy {
        &self.policy
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no pages.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime counters (shared-store runs see them keep growing; use
    /// [`CacheStats::since`] for per-run deltas).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a canonical key without touching counters or recency —
    /// for inspection and for callers that must decide whether the hit is
    /// admissible (charged-hits mode) before committing it.
    pub fn peek(&self, key: &[String]) -> Option<&SearchPage> {
        self.map.get(key).map(|&i| &self.slots[i].page)
    }

    /// Commits a hit previously found via [`QueryCache::peek`]: counts it
    /// and promotes the entry to most-recently-used.
    pub fn commit_hit(&mut self, key: &[String]) {
        let Some(&i) = self.map.get(key) else { return };
        self.stats.hits += 1;
        if self.slots[i].page.records.is_empty() {
            self.stats.negative_hits += 1;
        }
        self.lru.touch(i);
    }

    /// Counts a lookup that found nothing.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Counts a miss whose inner call failed (errors are never cached).
    pub fn note_uncached_error(&mut self) {
        self.stats.uncached_errors += 1;
    }

    /// Counting lookup: a hit promotes the entry and returns a clone of
    /// the page; a miss is tallied and returns `None`. Page records are
    /// `Arc`-backed, so the clone is per-record refcount bumps, not a deep
    /// copy of the cell strings.
    pub fn get(&mut self, key: &[String]) -> Option<SearchPage> {
        let Some(&i) = self.map.get(key) else {
            self.note_miss();
            return None;
        };
        self.commit_hit(key);
        self.slots.get(i).map(|s| s.page.clone())
    }

    /// Stores a page under a canonical key, evicting the LRU entry if the
    /// store is full. Empty pages are skipped (silently) unless
    /// [`CachePolicy::cache_negative`] is set.
    pub fn insert(&mut self, key: Vec<String>, page: SearchPage) {
        if self.insert_untallied(key, page) {
            self.stats.insertions += 1;
        }
    }

    /// [`QueryCache::insert`] without counter updates — used when loading
    /// a persisted store, whose entries were already counted by the run
    /// that created them. Returns whether the page was admitted.
    pub(crate) fn insert_untallied(&mut self, key: Vec<String>, page: SearchPage) -> bool {
        if !self.policy.cache_negative && page.records.is_empty() {
            return false;
        }
        if let Some(&i) = self.map.get(&key) {
            // Same logical query stored again (e.g. by hand): refresh.
            self.slots[i].page = page;
            self.lru.touch(i);
            return true;
        }
        if self.map.len() >= self.policy.capacity {
            self.evict_lru();
        }
        let slot = Slot {
            key: key.clone(),
            page,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.lru.push_front(i);
        true
    }

    /// The cached entries in least-recently-used-first order (the order
    /// persistence writes, so a reload reconstructs recency exactly).
    pub fn iter_lru(&self) -> impl Iterator<Item = (&[String], &SearchPage)> {
        self.lru
            .iter_oldest_first()
            .map(move |i| (self.slots[i].key.as_slice(), &self.slots[i].page))
    }

    /// Zeroes the counters — used after loading a persisted store, where
    /// any evictions performed during the load are setup work, not cache
    /// activity.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn evict_lru(&mut self) {
        let Some(i) = self.lru.oldest() else { return };
        self.lru.remove(i);
        let key = std::mem::take(&mut self.slots[i].key);
        self.slots[i].page = SearchPage::default();
        self.map.remove(&key);
        self.free.push(i);
        self.stats.evictions += 1;
    }
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new(CachePolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_hidden::{ExternalId, Retrieved};

    fn key(s: &str) -> Vec<String> {
        s.split(' ').map(str::to_owned).collect()
    }

    fn page(n: usize) -> SearchPage {
        SearchPage {
            records: (0..n)
                .map(|i| Retrieved::new(ExternalId(i as u64), vec![format!("f{i}")], vec![]))
                .collect(),
        }
    }

    #[test]
    fn get_hits_after_insert_and_counts() {
        let mut c = QueryCache::default();
        assert_eq!(c.get(&key("a")), None);
        c.insert(key("a"), page(2));
        assert_eq!(c.get(&key("a")).unwrap().records.len(), 2);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.negative_hits, 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_in_recency_order() {
        let mut c = QueryCache::new(CachePolicy {
            capacity: 2,
            ..Default::default()
        });
        c.insert(key("a"), page(1));
        c.insert(key("b"), page(1));
        // Touch "a" so "b" becomes the LRU entry.
        assert!(c.get(&key("a")).is_some());
        c.insert(key("c"), page(1));
        assert_eq!(c.len(), 2);
        assert!(c.peek(&key("a")).is_some());
        assert!(c.peek(&key("b")).is_none(), "LRU entry must be evicted");
        assert!(c.peek(&key("c")).is_some());
        assert_eq!(c.stats().evictions, 1);
        // The freed slot is reused rather than growing the arena.
        c.insert(key("d"), page(1));
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_one_works() {
        let mut c = QueryCache::new(CachePolicy {
            capacity: 1,
            ..Default::default()
        });
        for i in 0..5 {
            c.insert(key(&format!("q{i}")), page(1));
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 4);
        assert!(c.peek(&key("q4")).is_some());
    }

    #[test]
    fn negative_pages_respect_policy() {
        let mut yes = QueryCache::default();
        yes.insert(key("none"), page(0));
        assert!(yes.get(&key("none")).is_some());
        assert_eq!(yes.stats().negative_hits, 1);

        let mut no = QueryCache::new(CachePolicy {
            cache_negative: false,
            ..Default::default()
        });
        no.insert(key("none"), page(0));
        assert!(no.get(&key("none")).is_none());
        assert_eq!(no.stats().insertions, 0);
    }

    #[test]
    fn reinserting_a_key_refreshes_without_growth() {
        let mut c = QueryCache::default();
        c.insert(key("a"), page(1));
        c.insert(key("a"), page(3));
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&key("a")).unwrap().records.len(), 3);
    }

    #[test]
    fn iter_lru_is_oldest_first() {
        let mut c = QueryCache::default();
        c.insert(key("a"), page(1));
        c.insert(key("b"), page(1));
        c.insert(key("c"), page(1));
        assert!(c.get(&key("a")).is_some()); // a becomes MRU
        let order: Vec<&[String]> = c.iter_lru().map(|(k, _)| k).collect();
        assert_eq!(order, vec![&key("b")[..], &key("c")[..], &key("a")[..]]);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        QueryCache::new(CachePolicy {
            capacity: 0,
            ..Default::default()
        });
    }
}
