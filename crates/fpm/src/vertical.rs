//! Vertical miner: the production miner behind SmartCrawl's query pool.
//!
//! The pool needs every mined set's `q(D)` next (for its forward index,
//! paper Fig. 3(b)), so this miner keeps the record ids it visits. Each
//! token's record list comes from the caller's inverted index over the
//! same transactions; the frequent tokens are the 1-itemsets. A k-itemset
//! `S` is extended by projecting its records: bucketing the (u, record)
//! pairs of every token `u > max(S)` of every record of `S` by `u` gives
//! each `S ∪ {u}`'s support (the bucket's size) and its list (the bucket)
//! together.
//!
//! Each level is built from the previous one in order, extensions
//! ascending, so it comes out sorted by item ids and the levels
//! concatenate into the canonical order (length, then item ids) with no
//! hash map involved. The sets and supports equal
//! [`apriori`](fn@crate::apriori)'s (property-tested, along with every
//! list against a brute-force scan).

use crate::{Itemset, MinerConfig};
use smartcrawl_text::{Document, RecordId, TokenId};

/// Ascending record-id lists stored back to back (CSR): list `i` is
/// `ids[offsets[i]..offsets[i + 1]]`. Two allocations, however many
/// lists there are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLists {
    offsets: Vec<u32>,
    ids: Vec<RecordId>,
}

impl Default for RecordLists {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl RecordLists {
    /// No lists yet, with room for `lists` lists holding `ids` ids.
    pub fn with_capacity(lists: usize, ids: usize) -> Self {
        let mut offsets = Vec::with_capacity(lists + 1);
        offsets.push(0);
        Self { offsets, ids: Vec::with_capacity(ids) }
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no lists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// List `i`.
    pub fn get(&self, i: usize) -> &[RecordId] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The lists in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[RecordId]> + '_ {
        self.offsets.windows(2).map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }

    /// Appends one list (the caller keeps it ascending).
    pub fn push(&mut self, list: impl IntoIterator<Item = RecordId>) {
        self.ids.extend(list);
        // Record ids are `u32`, and so are the offsets of their lists.
        assert!(self.ids.len() <= u32::MAX as usize, "record lists exceed 2^32 ids");
        self.offsets.push(self.ids.len() as u32);
    }
}

/// What [`mine`] returns.
#[derive(Debug, Clone, Default)]
pub struct Mined {
    /// Every itemset with support ≥ `min_support` and length ≤ `max_len`,
    /// in canonical order (length, then item ids).
    pub sets: Vec<Itemset>,
    /// `lists.get(i)` is `q(D)` of `sets[i]`: the transactions holding
    /// every item, ascending.
    pub lists: RecordLists,
}

/// Mines all itemsets with support ≥ `cfg.min_support` and length ≤
/// `cfg.max_len`, each with its record list (see the module docs).
/// Transaction `i` is `RecordId(i)`, and `postings(t)` lists the
/// transactions holding token `t`, ascending.
pub fn mine<'a>(
    transactions: &[Document],
    postings: impl Fn(TokenId) -> &'a [RecordId],
    cfg: MinerConfig,
) -> Mined {
    let n = transactions.iter().filter_map(|d| d.tokens().last()).map(|t| t.0 + 1).max();
    let mut sets = Vec::new();
    let mut lists = RecordLists::default();
    for t in (0..n.unwrap_or(0)).map(TokenId) {
        let list = postings(t);
        if list.len() >= cfg.min_support {
            sets.push(Itemset { items: vec![t], support: list.len() });
            lists.push(list.iter().copied());
        }
    }
    let frequent = |t: &&TokenId| postings(**t).len() >= cfg.min_support;

    let mut level = 0..sets.len();
    let mut pairs: Vec<(TokenId, RecordId)> = Vec::new();
    for _ in 1..cfg.max_len {
        let next = sets.len();
        for s in level {
            let Some(&last) = sets[s].items.last() else { continue };
            pairs.clear();
            for &r in lists.get(s) {
                let doc = transactions[r.index()].tokens();
                let after = &doc[doc.partition_point(|&t| t <= last)..];
                pairs.extend(after.iter().filter(frequent).map(|&u| (u, r)));
            }
            // Bucket by token: each run is one extension's q(D), ascending.
            pairs.sort_unstable();
            for run in pairs.chunk_by(|a, b| a.0 == b.0) {
                if run.len() >= cfg.min_support {
                    let items = [sets[s].items.as_slice(), &[run[0].0]].concat();
                    sets.push(Itemset { items, support: run.len() });
                    lists.push(run.iter().map(|&(_, r)| r));
                }
            }
        }
        level = next..sets.len();
    }
    Mined { sets, lists }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori;

    fn docs(specs: &[&[u32]]) -> Vec<Document> {
        specs
            .iter()
            .map(|s| Document::from_tokens(s.iter().map(|&t| TokenId(t)).collect()))
            .collect()
    }

    fn ids(list: &[RecordId]) -> Vec<u32> {
        list.iter().map(|r| r.0).collect()
    }

    /// Mines with per-token lists built by a scan, as the caller's
    /// inverted index holds them.
    fn mine(txs: &[Document], cfg: MinerConfig) -> Mined {
        let mut postings: Vec<Vec<RecordId>> = Vec::new();
        for (r, doc) in txs.iter().enumerate() {
            for t in doc.iter() {
                postings.resize(postings.len().max(t.index() + 1), Vec::new());
                postings[t.index()].push(RecordId(r as u32));
            }
        }
        super::mine(txs, |t| postings.get(t.index()).map_or(&[], Vec::as_slice), cfg)
    }

    #[test]
    fn agrees_with_apriori_on_textbook_example() {
        let txs = docs(&[&[0, 1, 2], &[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]]);
        let cfg = MinerConfig::new(3, 3);
        let mined = mine(&txs, cfg);
        assert_eq!(mined.sets, apriori(&txs, cfg));
        // {0, 1} is in transactions 0, 1 and 4.
        assert_eq!(ids(mined.lists.get(3)), vec![0, 1, 4]);
    }

    #[test]
    fn running_example_finds_noodle_house() {
        // tokens: 0=thai 1=noodle 2=house 3=jade 4=express
        let txs = docs(&[&[0, 1, 2], &[3, 1, 2], &[0, 2], &[0, 1, 4]]);
        let mined = mine(&txs, MinerConfig::new(2, 4));
        let find = |items: &[u32]| {
            let items: Vec<TokenId> = items.iter().map(|&t| TokenId(t)).collect();
            let i = mined.sets.iter().position(|s| s.items == items).expect("mined");
            (mined.sets[i].support, ids(mined.lists.get(i)))
        };
        assert_eq!(find(&[2]), (3, vec![0, 1, 2]), "house");
        assert_eq!(find(&[0]), (3, vec![0, 2, 3]), "thai");
        assert_eq!(find(&[1, 2]), (2, vec![0, 1]), "noodle house");
        assert_eq!(mined.sets.len(), 6);
        assert_eq!(mined.lists.len(), 6);
    }

    #[test]
    fn near_duplicate_documents_do_not_explode_under_cap() {
        // Two identical 16-token documents: the uncapped lattice would have
        // 2^16 − 1 itemsets; the cap keeps it polynomial.
        let big: Vec<u32> = (0..16).collect();
        let txs = docs(&[&big, &big]);
        let mined = mine(&txs, MinerConfig::new(2, 2));
        // 16 singles + C(16,2)=120 pairs.
        assert_eq!(mined.sets.len(), 16 + 120);
        assert!(mined.sets.iter().all(|s| s.support == 2));
        assert!(mined.lists.iter().all(|l| ids(l) == vec![0, 1]));
    }

    #[test]
    fn infrequent_items_never_appear() {
        let txs = docs(&[&[0, 1], &[0, 2], &[0, 3]]);
        let mined = mine(&txs, MinerConfig::new(2, 3));
        assert_eq!(mined.sets.len(), 1);
        assert_eq!(mined.sets[0].items, vec![TokenId(0)]);
        assert_eq!(mined.sets[0].support, 3);
        assert_eq!(ids(mined.lists.get(0)), vec![0, 1, 2]);
    }

    #[test]
    fn empty_transactions_are_fine() {
        let txs = docs(&[&[], &[], &[0], &[0]]);
        let mined = mine(&txs, MinerConfig::new(2, 3));
        assert_eq!(mined.sets.len(), 1);
        assert_eq!(ids(mined.lists.get(0)), vec![2, 3]);
        assert!(mine(&[], MinerConfig::default()).sets.is_empty());
    }

    #[test]
    fn record_lists_round_trip() {
        let mut lists = RecordLists::default();
        assert!(lists.is_empty());
        lists.push([RecordId(3), RecordId(5)]);
        lists.push([]);
        lists.push([RecordId(1)]);
        assert_eq!(lists.len(), 3);
        assert_eq!(ids(lists.get(0)), vec![3, 5]);
        assert!(lists.get(1).is_empty());
        let all: Vec<Vec<u32>> = lists.iter().map(ids).collect();
        assert_eq!(all, vec![vec![3, 5], vec![], vec![1]]);
    }
}
