//! Property tests: the vertical miner ≡ Apriori ≡ brute force on random
//! corpora, and every mined record list ≡ a brute-force scan.

use proptest::prelude::*;
use smartcrawl_fpm::{apriori, mine, Itemset, Mined, MinerConfig};
use smartcrawl_text::{Document, RecordId, TokenId};

fn corpus_strategy() -> impl Strategy<Value = Vec<Document>> {
    prop::collection::vec(
        prop::collection::vec(0u32..10, 0..7)
            .prop_map(|v| Document::from_tokens(v.into_iter().map(TokenId).collect())),
        0..14,
    )
}

/// Brute force: enumerate every subset of the item universe up to max_len
/// and count its support by scanning.
fn brute_force(transactions: &[Document], cfg: MinerConfig) -> Vec<Itemset> {
    let mut universe: Vec<TokenId> = transactions
        .iter()
        .flat_map(|t| t.iter())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    universe.sort_unstable();
    let mut out = Vec::new();
    let n = universe.len();
    assert!(n <= 12, "brute force only for small universes");
    for mask in 1u32..(1 << n) {
        let size = mask.count_ones() as usize;
        if size > cfg.max_len {
            continue;
        }
        let items: Vec<TokenId> =
            (0..n).filter(|&i| mask & (1 << i) != 0).map(|i| universe[i]).collect();
        let support = transactions.iter().filter(|t| t.contains_all(&items)).count();
        if support >= cfg.min_support {
            out.push(Itemset { items, support });
        }
    }
    smartcrawl_fpm::canonicalize(out)
}

/// Mines with per-token lists built by a scan, as the caller's inverted
/// index holds them (the corpora draw tokens from `0..10`).
fn mine_scanned(transactions: &[Document], cfg: MinerConfig) -> Mined {
    let postings: Vec<Vec<RecordId>> = (0..10)
        .map(|t| {
            (0..transactions.len())
                .filter(|&i| transactions[i].contains(TokenId(t)))
                .map(|i| RecordId(i as u32))
                .collect()
        })
        .collect();
    mine(transactions, |t| postings[t.index()].as_slice(), cfg)
}

/// Checks that every mined set's list is the ascending ids of the
/// transactions holding it.
fn assert_lists_exact(transactions: &[Document], mined: &Mined) {
    let scan = |items: &[TokenId]| -> Vec<RecordId> {
        (0..transactions.len())
            .filter(|&i| transactions[i].contains_all(items))
            .map(|i| RecordId(i as u32))
            .collect()
    };
    prop_assert_eq!(mined.lists.len(), mined.sets.len());
    for (set, list) in mined.sets.iter().zip(mined.lists.iter()) {
        prop_assert_eq!(list, scan(&set.items).as_slice(), "list of {:?}", set.items);
    }
}

proptest! {
    #[test]
    fn miner_equals_apriori(corpus in corpus_strategy(), t in 1usize..4, l in 1usize..5) {
        let cfg = MinerConfig::new(t, l);
        let mined = mine_scanned(&corpus, cfg);
        prop_assert_eq!(&mined.sets, &apriori(&corpus, cfg));
        assert_lists_exact(&corpus, &mined);
    }

    #[test]
    fn miner_equals_brute_force(corpus in corpus_strategy(), t in 1usize..4, l in 1usize..5) {
        let cfg = MinerConfig::new(t, l);
        let mined = mine_scanned(&corpus, cfg);
        prop_assert_eq!(&mined.sets, &brute_force(&corpus, cfg));
        assert_lists_exact(&corpus, &mined);
    }

    #[test]
    fn all_mined_sets_meet_support_and_length(corpus in corpus_strategy(), t in 1usize..4) {
        let cfg = MinerConfig::new(t, 3);
        let mined = mine_scanned(&corpus, cfg);
        assert_lists_exact(&corpus, &mined);
        for set in mined.sets {
            prop_assert!(set.items.len() <= cfg.max_len);
            prop_assert!(set.support >= cfg.min_support);
            // Verify the reported support is exact.
            let true_support = corpus.iter().filter(|d| d.contains_all(&set.items)).count();
            prop_assert_eq!(set.support, true_support);
        }
    }

    /// Downward closure: every subset of a frequent itemset is frequent
    /// (and present in the output, length permitting).
    #[test]
    fn downward_closure_holds(corpus in corpus_strategy()) {
        let cfg = MinerConfig::new(2, 4);
        let mined = mine_scanned(&corpus, cfg);
        assert_lists_exact(&corpus, &mined);
        let mined = mined.sets;
        let set_index: std::collections::HashSet<&[TokenId]> =
            mined.iter().map(|s| s.items.as_slice()).collect();
        for set in &mined {
            if set.items.len() < 2 {
                continue;
            }
            for drop in 0..set.items.len() {
                let sub: Vec<TokenId> = set
                    .items
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, &t)| t)
                    .collect();
                prop_assert!(set_index.contains(sub.as_slice()));
            }
        }
    }
}
