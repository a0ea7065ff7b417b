//! Query pool generation (paper §3.1).
//!
//! The pool is `Q_naive ∪ { q : |q(D)| ≥ t }`, dominance-pruned:
//!
//! * **Naive queries** — one per local record, containing the record's full
//!   document (what NaiveCrawl would issue), so every record has at least
//!   one query able to reach it;
//! * **Frequent queries** — keyword sets occurring in at least `t` local
//!   records (default `t = 2`), mined by `smartcrawl-fpm`'s vertical miner,
//!   capped at `max_len` keywords (see `smartcrawl-fpm` docs for why the
//!   cap exists);
//! * **Dominance pruning** — `q1` dominates `q2` iff `|q1(D)| = |q2(D)|`
//!   and `q1 ⊇ q2`; dominated queries are redundant (same local reach,
//!   fewer keywords ⇒ no more selective on the hidden side). We prune by
//!   the immediate-superset rule: a mined set is dropped when some mined
//!   one-keyword extension has the same support, i.e. when every record
//!   of its `q(D)` holds a further keyword and the extension fits in
//!   `max_len`. By downward closure this catches all dominations within
//!   the mined lattice.
//!
//! Every query's `q(D)` comes from the same pass that found it: the miner,
//! which reads each keyword's record list from `LocalDb`'s inverted index,
//! keeps each mined set's list, and a naive query's list is its rarest
//! keyword's list filtered by containment. No query is intersected after
//! the fact. The lists are held in pool order as one CSR buffer.
//!
//! The pool is shuffled once (seeded) so that equal-benefit ties during
//! selection break pseudo-randomly, as in the paper, while staying
//! reproducible.

use crate::context::TextContext;
use crate::local::LocalDb;
use crate::query::Query;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use smartcrawl_fpm::{mine, MinerConfig, RecordLists};
use smartcrawl_index::QueryId;
use smartcrawl_text::{Document, RecordId, TokenId};
use std::collections::HashSet;

/// Pool-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Support threshold `t` for mined queries (paper default: 2).
    pub min_support: usize,
    /// Maximum keywords per mined query.
    pub max_len: usize,
    /// Shuffle seed for tie-breaking order.
    pub seed: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { min_support: 2, max_len: 2, seed: 0x5A17 }
    }
}

/// Provenance counters from pool generation (§3.1's two principles plus
/// dominance pruning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Frequent itemsets mined (before pruning).
    pub mined: usize,
    /// Mined itemsets removed by dominance pruning.
    pub dominated: usize,
    /// Naive (per-record) queries added.
    pub naive: usize,
    /// Naive queries that duplicated an existing pool entry.
    pub naive_deduped: usize,
}

/// The generated pool: queries plus their build-time match sets.
///
/// # Examples
///
/// ```
/// use smartcrawl_core::{LocalDb, PoolConfig, QueryPool, TextContext};
/// use smartcrawl_text::Record;
///
/// let mut ctx = TextContext::new();
/// let local = LocalDb::build(
///     vec![
///         Record::from(["thai noodle house"]),
///         Record::from(["jade noodle house"]),
///     ],
///     &mut ctx,
/// );
/// let pool = QueryPool::generate(&local, &PoolConfig::default());
/// // Shared keywords become general queries; each record also gets its
/// // specific (naive) query.
/// assert!(pool.len() >= 2);
/// assert!(pool.queries().iter().all(|q| q.len() >= 1));
/// ```
#[derive(Debug)]
pub struct QueryPool {
    queries: Vec<Query>,
    /// `q(D)` at build time, per query in pool order (sorted record ids).
    matches: RecordLists,
    stats: PoolStats,
}

impl QueryPool {
    /// Generates the pool for a local database (see module docs).
    pub fn generate(local: &LocalDb, cfg: &PoolConfig) -> Self {
        assert!(cfg.min_support >= 1 && cfg.max_len >= 1, "invalid pool config");
        let docs = local.docs();

        // -- Frequent queries (second principle), with their q(D). ---------
        let index = local.index();
        let miner = MinerConfig::new(cfg.min_support, cfg.max_len);
        let mined = mine(docs, |t| index.postings(t), miner);
        let mut stats = PoolStats { mined: mined.sets.len(), ..Default::default() };
        let mut seen: HashSet<&[TokenId]> = HashSet::new();
        // Each query travels with its q(D) through the shuffle.
        let mut entries: Vec<(Query, &[RecordId])> = Vec::new();
        let mut extra: Vec<TokenId> = Vec::new();
        for (set, list) in mined.sets.iter().zip(mined.lists.iter()) {
            // Dominance pruning: a keyword outside `set` held by every
            // record of q(D) makes a one-keyword extension with the same
            // support, which the miner found if it fits in `max_len`.
            if set.items.len() < cfg.max_len && shared_extra(docs, &set.items, list, &mut extra) {
                stats.dominated += 1;
            } else if seen.insert(&set.items) {
                entries.push((Query::new(set.items.clone()), list));
            }
        }

        // -- Naive queries (first principle). ------------------------------
        // q(D) of a record's full document: the records holding its rarest
        // keyword that hold all of its keywords.
        let mut naive: Vec<Query> = Vec::new();
        let mut naive_lists = RecordLists::default();
        for doc in docs {
            let tokens = doc.tokens();
            if tokens.is_empty() {
                continue; // a record with no keywords cannot be queried
            }
            if !seen.insert(tokens) {
                stats.naive_deduped += 1;
                continue;
            }
            let rarest = tokens.iter().map(|&t| index.postings(t)).min_by_key(|l| l.len());
            let holds_all =
                |r: &RecordId| docs.get(r.index()).is_some_and(|d| d.contains_all(tokens));
            naive_lists.push(rarest.unwrap_or_default().iter().copied().filter(holds_all));
            naive.push(Query::from_document(doc));
        }
        stats.naive = naive.len();
        entries.extend(naive.into_iter().zip(naive_lists.iter()));

        // -- Deterministic shuffle for pseudo-random tie-breaking. ----------
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        entries.shuffle(&mut rng);

        let total = entries.iter().map(|(_, list)| list.len()).sum();
        let mut matches = RecordLists::with_capacity(entries.len(), total);
        let queries: Vec<Query> = entries
            .into_iter()
            .map(|(query, list)| {
                matches.push(list.iter().copied());
                query
            })
            .collect();
        debug_assert!(matches.iter().all(|m| !m.is_empty()), "pool queries must have |q(D)| ≥ 1");

        Self { queries, matches, stats }
    }

    /// Provenance counters from generation.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of queries in the pool.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The query behind `id`.
    pub fn query(&self, id: QueryId) -> &Query {
        &self.queries[id.index()]
    }

    /// All queries in pool order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// `q(D)` at build time for query `id`.
    pub fn matches(&self, id: QueryId) -> &[RecordId] {
        self.matches.get(id.index())
    }

    /// All build-time match sets, pool order.
    pub fn all_matches(&self) -> &RecordLists {
        &self.matches
    }

    /// Build-time `|q(D)|` per query, pool order.
    pub fn frequencies(&self) -> Vec<u32> {
        self.matches.iter().map(|m| m.len() as u32).collect()
    }

    /// Renders a query's keywords (convenience).
    pub fn render(&self, id: QueryId, ctx: &TextContext) -> Vec<String> {
        self.query(id).render(ctx)
    }
}

/// Whether every record of `list` holds some keyword outside `set`;
/// `extra` is scratch.
fn shared_extra(
    docs: &[Document],
    set: &[TokenId],
    list: &[RecordId],
    extra: &mut Vec<TokenId>,
) -> bool {
    let mut records = list.iter().filter_map(|r| docs.get(r.index()));
    extra.clear();
    if let Some(first) = records.next() {
        extra.extend(first.iter().filter(|t| set.binary_search(t).is_err()));
    }
    for doc in records {
        if extra.is_empty() {
            break;
        }
        extra.retain(|&t| doc.contains(t));
    }
    !extra.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_text::Record;

    /// The running example's local database (Figure 1(a) stand-in).
    fn running_example() -> (LocalDb, TextContext) {
        let mut ctx = TextContext::new();
        let db = LocalDb::build(
            vec![
                Record::from(["thai noodle house"]),
                Record::from(["jade noodle house"]),
                Record::from(["thai house"]),
                Record::from(["thai noodle express"]),
            ],
            &mut ctx,
        );
        (db, ctx)
    }

    fn pool_words(pool: &QueryPool, ctx: &TextContext) -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = pool
            .queries()
            .iter()
            .map(|q| {
                let mut w = q.render(ctx);
                w.sort();
                w
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn running_example_pool_matches_the_paper() {
        // Example 2 (adapted to this instance): naive queries = the four
        // full names; frequent itemsets with t = 2 after dominance pruning.
        let (db, ctx) = running_example();
        let pool = QueryPool::generate(&db, &PoolConfig { min_support: 2, max_len: 3, seed: 1 });
        let words = pool_words(&pool, &ctx);
        // Frequent with t=2: house(3), thai(3), noodle(3), thai+house(2),
        // thai+noodle(2), noodle+house(2); no pair is dominated (all
        // supports drop from 3 to 2) and no single is dominated (3 ≠ 2).
        // Naive: the four record documents.
        let expect: Vec<Vec<String>> = vec![
            vec!["house"],
            vec!["house", "jade", "noodle"],
            vec!["house", "noodle"],
            vec!["house", "noodle", "thai"],
            vec!["house", "thai"],
            vec!["express", "noodle", "thai"],
            vec!["noodle"],
            vec!["noodle", "thai"],
            vec!["thai"],
        ]
        .into_iter()
        .map(|v| v.into_iter().map(str::to_owned).collect())
        .collect();
        let mut expect = expect;
        expect.sort();
        assert_eq!(words, expect);
    }

    #[test]
    fn dominated_queries_are_pruned() {
        // "noodle" always co-occurs with "house": same support ⇒ "noodle"
        // dominated by "noodle house" (paper Example 2's pruning).
        let mut ctx = TextContext::new();
        let db = LocalDb::build(
            vec![
                Record::from(["thai noodle house"]),
                Record::from(["jade noodle house"]),
                Record::from(["thai house"]),
            ],
            &mut ctx,
        );
        let pool = QueryPool::generate(&db, &PoolConfig { min_support: 2, max_len: 2, seed: 1 });
        let words = pool_words(&pool, &ctx);
        assert!(!words.contains(&vec!["noodle".to_owned()]), "{words:?}");
        assert!(words.contains(&vec!["house".to_owned(), "noodle".to_owned()]));
    }

    #[test]
    fn every_local_record_is_reachable() {
        let (db, _ctx) = running_example();
        let pool = QueryPool::generate(&db, &PoolConfig::default());
        // Union of q(D) over the pool covers all records (first principle).
        let mut reached = vec![false; db.len()];
        for m in pool.all_matches().iter() {
            for &RecordId(i) in m {
                reached[i as usize] = true;
            }
        }
        assert!(reached.iter().all(|&r| r));
    }

    #[test]
    fn matches_agree_with_frequencies() {
        let (db, _ctx) = running_example();
        let pool = QueryPool::generate(&db, &PoolConfig::default());
        let freqs = pool.frequencies();
        for (i, &f) in freqs.iter().enumerate() {
            let id = QueryId(i as u32);
            assert_eq!(pool.matches(id).len() as u32, f);
            assert!(f >= 1);
        }
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let (db, _ctx) = running_example();
        let cfg = PoolConfig { min_support: 2, max_len: 2, seed: 99 };
        let a = QueryPool::generate(&db, &cfg);
        let b = QueryPool::generate(&db, &cfg);
        assert_eq!(a.queries(), b.queries());
        let c = QueryPool::generate(&db, &PoolConfig { seed: 100, ..cfg });
        // Same set, very likely different order.
        assert_eq!(a.len(), c.len());
    }

    #[test]
    fn stats_track_provenance() {
        let (db, _ctx) = running_example();
        let pool = QueryPool::generate(&db, &PoolConfig { min_support: 2, max_len: 2, seed: 1 });
        let st = pool.stats();
        // 6 frequent itemsets, none dominated; 4 naive records, one of
        // which ("thai house") duplicates the mined pair.
        assert_eq!(st.mined, 6);
        assert_eq!(st.dominated, 0);
        assert_eq!(st.naive, 3);
        assert_eq!(st.naive_deduped, 1);
        assert_eq!(pool.len(), st.mined - st.dominated + st.naive);
    }

    #[test]
    fn duplicate_records_collapse_to_one_naive_query() {
        let mut ctx = TextContext::new();
        let db = LocalDb::build(
            vec![Record::from(["unique alpha beta"]), Record::from(["unique alpha beta"])],
            &mut ctx,
        );
        let pool = QueryPool::generate(&db, &PoolConfig { min_support: 5, max_len: 2, seed: 1 });
        // No frequent sets (t=5); one naive query despite two records.
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.matches(QueryId(0)).len(), 2);
    }
}
