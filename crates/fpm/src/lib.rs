//! Frequent itemset mining for SmartCrawl's query pool (paper §3.1).
//!
//! SmartCrawl treats every keyword as an item and every local record's
//! document as a transaction, then mines the keyword sets that occur in at
//! least `t` records (`|q(D)| ≥ t`, default `t = 2`). The paper uses
//! FP-Growth [Han et al., SIGMOD 2000]; we mine vertically instead
//! ([`mine`]): the same sets and supports, plus each set's record list
//! `q(D)`, which the pool needs next and FP-Growth's tree does not keep.
//! A level-wise Apriori miner is the readable reference, and the two are
//! property-tested to agree.
//!
//! A `max_len` cap bounds itemset length. Without it, `t = 2` over a corpus
//! with near-duplicate documents enumerates the full subset lattice of the
//! shared token set (2^|d| itemsets). General queries are short in
//! practice — the cap plus the pool's dominance pruning reproduces the
//! paper's pool on all fixtures. See DESIGN.md §7.

pub mod apriori;
pub mod vertical;

pub use apriori::apriori;
pub use vertical::{mine, Mined, RecordLists};

use smartcrawl_text::TokenId;

/// A mined itemset: sorted distinct items plus its support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Itemset {
    /// Items in ascending [`TokenId`] order.
    pub items: Vec<TokenId>,
    /// Number of transactions containing every item.
    pub support: usize,
}

/// Mining parameters.
#[derive(Debug, Clone, Copy)]
pub struct MinerConfig {
    /// Minimum support `t`: itemsets must occur in at least this many
    /// transactions. The paper's default is 2.
    pub min_support: usize,
    /// Maximum itemset length (number of keywords per mined query).
    pub max_len: usize,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self { min_support: 2, max_len: 4 }
    }
}

impl MinerConfig {
    /// Convenience constructor.
    pub fn new(min_support: usize, max_len: usize) -> Self {
        assert!(min_support >= 1, "min_support must be positive");
        assert!(max_len >= 1, "max_len must be positive");
        Self { min_support, max_len }
    }
}

/// Sorts itemsets into the canonical order used throughout the tests:
/// by length, then lexicographically by item ids.
pub fn canonicalize(mut sets: Vec<Itemset>) -> Vec<Itemset> {
    for s in &mut sets {
        debug_assert!(s.items.windows(2).all(|w| w[0] < w[1]));
    }
    sets.sort_unstable_by(|a, b| {
        a.items.len().cmp(&b.items.len()).then_with(|| a.items.cmp(&b.items))
    });
    sets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let c = MinerConfig::default();
        assert_eq!(c.min_support, 2);
    }

    #[test]
    #[should_panic(expected = "min_support must be positive")]
    fn zero_support_rejected() {
        MinerConfig::new(0, 3);
    }

    #[test]
    fn canonicalize_orders_by_length_then_items() {
        let sets = vec![
            Itemset { items: vec![TokenId(2)], support: 3 },
            Itemset { items: vec![TokenId(0), TokenId(1)], support: 2 },
            Itemset { items: vec![TokenId(0)], support: 5 },
        ];
        let c = canonicalize(sets);
        assert_eq!(c[0].items, vec![TokenId(0)]);
        assert_eq!(c[1].items, vec![TokenId(2)]);
        assert_eq!(c[2].items, vec![TokenId(0), TokenId(1)]);
    }
}
