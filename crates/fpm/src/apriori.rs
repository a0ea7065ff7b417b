//! Level-wise Apriori miner.
//!
//! Kept as a readable reference implementation: the vertical miner is the
//! production miner; the two are property-tested to agree. Candidate
//! generation is the classic join-and-prune: two frequent k-itemsets
//! sharing their first (k−1) items join into a (k+1)-candidate, which
//! survives only if all its k-subsets are frequent (downward closure).

use crate::{Itemset, MinerConfig};
use smartcrawl_text::{Document, TokenId};
use std::collections::{HashMap, HashSet};

/// Mines all itemsets with support ≥ `cfg.min_support` and length ≤
/// `cfg.max_len`, in canonical order (length, then item ids).
pub fn apriori(transactions: &[Document], cfg: MinerConfig) -> Vec<Itemset> {
    // L1: frequent single items.
    let mut counts: HashMap<TokenId, usize> = HashMap::new();
    for t in transactions {
        for item in t.iter() {
            *counts.entry(item).or_insert(0) += 1;
        }
    }
    let mut frequent: Vec<Itemset> = counts
        .into_iter()
        .filter(|&(_, c)| c >= cfg.min_support)
        .map(|(item, support)| Itemset { items: vec![item], support })
        .collect();
    frequent.sort_unstable_by(|a, b| a.items.cmp(&b.items));

    let mut result = frequent.clone();
    let mut level = frequent;

    for k in 2..=cfg.max_len {
        if level.len() < 2 {
            break;
        }
        let prev: HashSet<&[TokenId]> = level.iter().map(|s| s.items.as_slice()).collect();
        let mut candidates: Vec<Vec<TokenId>> = Vec::new();
        // Join step: level is sorted, so itemsets sharing a (k-2)-prefix are
        // adjacent runs.
        for i in 0..level.len() {
            for j in (i + 1)..level.len() {
                let (a, b) = (&level[i].items, &level[j].items);
                if a[..k - 2] != b[..k - 2] {
                    break; // sorted order: no further j shares the prefix
                }
                let mut cand = a.clone();
                cand.push(b[k - 2]);
                debug_assert!(cand.windows(2).all(|w| w[0] < w[1]));
                // Prune step: every (k-1)-subset must be frequent.
                let all_subsets_frequent = (0..cand.len()).all(|drop| {
                    let sub: Vec<TokenId> = cand
                        .iter()
                        .enumerate()
                        .filter(|&(p, _)| p != drop)
                        .map(|(_, &t)| t)
                        .collect();
                    prev.contains(sub.as_slice())
                });
                if all_subsets_frequent {
                    candidates.push(cand);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Count supports with a full scan.
        let mut supports = vec![0usize; candidates.len()];
        for t in transactions {
            for (ci, cand) in candidates.iter().enumerate() {
                if t.contains_all(cand) {
                    supports[ci] += 1;
                }
            }
        }
        let mut next: Vec<Itemset> = candidates
            .into_iter()
            .zip(supports)
            .filter(|&(_, s)| s >= cfg.min_support)
            .map(|(items, support)| Itemset { items, support })
            .collect();
        next.sort_unstable_by(|a, b| a.items.cmp(&b.items));
        result.extend(next.iter().cloned());
        level = next;
    }

    crate::canonicalize(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(specs: &[&[u32]]) -> Vec<Document> {
        specs
            .iter()
            .map(|s| Document::from_tokens(s.iter().map(|&t| TokenId(t)).collect()))
            .collect()
    }

    fn items(set: &Itemset) -> Vec<u32> {
        set.items.iter().map(|t| t.0).collect()
    }

    #[test]
    fn textbook_example() {
        // Transactions: {0,1,2}, {0,1}, {0,2}, {1,2}, {0,1,2}; t = 3.
        let txs = docs(&[&[0, 1, 2], &[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]]);
        let out = apriori(&txs, MinerConfig::new(3, 3));
        let got: Vec<(Vec<u32>, usize)> = out.iter().map(|s| (items(s), s.support)).collect();
        assert_eq!(
            got,
            vec![
                (vec![0], 4),
                (vec![1], 4),
                (vec![2], 4),
                (vec![0, 1], 3),
                (vec![0, 2], 3),
                (vec![1, 2], 3),
            ]
        );
    }

    #[test]
    fn running_example_itemsets() {
        // Figure 1 / Example 2: {house}, {thai}, {noodle}, {noodle, house}
        // are the frequent itemsets with t = 2.
        // tokens: 0=thai 1=noodle 2=house 3=jade 4=express
        // d1 = thai noodle house, d2 = jade noodle house,
        // d3 = thai house, d4 = thai noodle express.
        let txs = docs(&[&[0, 1, 2], &[3, 1, 2], &[0, 2], &[0, 1, 4]]);
        let out = apriori(&txs, MinerConfig::new(2, 4));
        let got: Vec<Vec<u32>> = out.iter().map(items).collect();
        assert_eq!(got, vec![vec![0], vec![1], vec![2], vec![0, 1], vec![0, 2], vec![1, 2]]);
        // supports
        let sup: Vec<usize> = out.iter().map(|s| s.support).collect();
        assert_eq!(sup, vec![3, 3, 3, 2, 2, 2]);
    }

    #[test]
    fn max_len_caps_output() {
        let txs = docs(&[&[0, 1, 2], &[0, 1, 2]]);
        let out = apriori(&txs, MinerConfig::new(2, 2));
        assert!(out.iter().all(|s| s.items.len() <= 2));
        assert_eq!(out.len(), 6); // 3 singles + 3 pairs
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(apriori(&[], MinerConfig::default()).is_empty());
    }

    #[test]
    fn support_one_returns_every_observed_item() {
        let txs = docs(&[&[0], &[1]]);
        let out = apriori(&txs, MinerConfig::new(1, 1));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|s| s.support == 1));
    }
}
