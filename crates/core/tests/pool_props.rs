//! Property test of the pool's build-time match sets: every query's
//! `q(D)`, which the miner and the naive-query filter compute from the
//! local index's token lists, must equal a scan of the local documents on
//! either forward-index backend.

use proptest::prelude::*;
use smartcrawl_core::{
    IndexBackendConfig, LocalDb, PoolConfig, QueryPool, StoreConfig, TextContext,
};
use smartcrawl_index::QueryId;
use smartcrawl_text::{Record, RecordId};

const WORDS: [&str; 7] = ["thai", "noodle", "house", "jade", "express", "grill", "cafe"];

/// Random local records over a small vocabulary, so documents repeat and
/// share keywords. A record of stop words only has an empty document.
fn records_strategy() -> impl Strategy<Value = Vec<Record>> {
    let record = prop::collection::vec(0usize..WORDS.len() + 1, 0..5).prop_map(|picks| {
        let text: Vec<&str> =
            picks.into_iter().map(|i| WORDS.get(i).copied().unwrap_or("the")).collect();
        Record::from([text.join(" ")])
    });
    // Then copies of some records, so duplicates are common.
    (prop::collection::vec(record, 0..16), prop::collection::vec(0usize..16, 0..4)).prop_map(
        |(mut records, dups)| {
            let copies: Vec<Record> =
                dups.iter().filter_map(|&i| records.get(i).cloned()).collect();
            records.extend(copies);
            records
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pool_match_sets_equal_a_document_scan_on_both_backends(
        records in records_strategy(),
        min_support in 1usize..4,
        max_len in 1usize..4,
        seed in 0u64..1000,
    ) {
        let disk = IndexBackendConfig::Disk(StoreConfig {
            page_size: 64,
            cache_pages: 4,
            dir: None,
        });
        for backend in [IndexBackendConfig::Ram, disk] {
            let mut ctx = TextContext::new();
            let local = LocalDb::build_with(records.clone(), &mut ctx, &backend)
                .expect("index build");
            let pool = QueryPool::generate(&local, &PoolConfig { min_support, max_len, seed });
            for i in 0..pool.len() {
                let id = QueryId(i as u32);
                let tokens = pool.query(id).tokens();
                let scan: Vec<RecordId> = local
                    .docs()
                    .iter()
                    .enumerate()
                    .filter(|(_, doc)| doc.contains_all(tokens))
                    .map(|(r, _)| RecordId(r as u32))
                    .collect();
                prop_assert_eq!(
                    pool.matches(id),
                    scan.as_slice(),
                    "{} backend, query {:?}",
                    backend.label(),
                    tokens
                );
            }
        }
    }
}
