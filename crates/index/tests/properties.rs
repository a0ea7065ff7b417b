//! Property-based tests: the index structures must agree with naive
//! reference implementations on random inputs.

use proptest::prelude::*;
use smartcrawl_index::{ForwardIndex, InvertedIndex, LazyQueue, QueryId};
use smartcrawl_text::{Document, RecordId, TokenId};

fn corpus_strategy() -> impl Strategy<Value = Vec<Document>> {
    prop::collection::vec(
        prop::collection::vec(0u32..24, 0..10)
            .prop_map(|v| Document::from_tokens(v.into_iter().map(TokenId).collect())),
        0..30,
    )
}

fn query_strategy() -> impl Strategy<Value = Vec<TokenId>> {
    prop::collection::btree_set(0u32..24, 1..4)
        .prop_map(|s| s.into_iter().map(TokenId).collect())
}

proptest! {
    #[test]
    fn inverted_index_matches_naive_scan(corpus in corpus_strategy(), q in query_strategy()) {
        let idx = InvertedIndex::build(&corpus, 24);
        let naive: Vec<RecordId> = corpus
            .iter()
            .enumerate()
            .filter(|(_, d)| d.contains_all(&q))
            .map(|(i, _)| RecordId(i as u32))
            .collect();
        prop_assert_eq!(idx.matching(&q), naive.clone());
        prop_assert_eq!(idx.frequency(&q), naive.len());
    }

    #[test]
    fn forward_index_is_inverse_of_query_matches(corpus in corpus_strategy(),
        queries in prop::collection::vec(query_strategy(), 0..10))
    {
        let idx = InvertedIndex::build(&corpus, 24);
        let matches: Vec<Vec<RecordId>> = queries.iter().map(|q| idx.matching(q)).collect();
        let fwd = ForwardIndex::build(corpus.len(), matches.len(), |q| &matches[q.index()]);
        for (qi, m) in matches.iter().enumerate() {
            for &rid in m {
                prop_assert!(fwd.queries_of(rid).contains(&QueryId(qi as u32)));
            }
        }
        let total: usize = matches.iter().map(Vec::len).sum();
        prop_assert_eq!(fwd.total_incidences(), total);
    }

    /// The lazy queue must behave exactly like a naive "rescan everything
    /// every iteration" argmax under an arbitrary decay schedule.
    #[test]
    fn lazy_queue_equals_naive_argmax(
        initial in prop::collection::vec(0u32..100, 1..20),
        decays in prop::collection::vec((0usize..20, 1u32..5), 0..40),
    ) {
        let n = initial.len();
        // Model: priorities decay by `d` at scripted points between pops.
        let mut truth: Vec<f64> = initial.iter().map(|&p| p as f64).collect();
        let mut alive = vec![true; n];
        let prios: Vec<f64> = truth.clone();
        let mut pq = LazyQueue::new(&prios);

        let mut decay_iter = decays.into_iter();
        for _ in 0..n {
            // Apply up to 2 scripted decays before each pop.
            for _ in 0..2 {
                if let Some((q, d)) = decay_iter.next() {
                    let q = q % n;
                    if alive[q] {
                        truth[q] -= d as f64;
                        pq.mark_dirty(QueryId(q as u32));
                    }
                }
            }
            // Naive argmax with the same tie-breaking rule (smaller id).
            let expect = (0..n)
                .filter(|&i| alive[i])
                .max_by(|&a, &b| truth[a].total_cmp(&truth[b]).then(b.cmp(&a)))
                .expect("someone is alive");
            let (got, p) = pq.pop_max(|q| truth[q.index()]).expect("queue non-empty");
            prop_assert_eq!(got.index(), expect);
            prop_assert_eq!(p.to_bits(), truth[expect].to_bits());
            alive[expect] = false;
        }
        prop_assert!(pq.is_empty());
        prop_assert_eq!(pq.pop_max(|_| 0.0), None);
    }
}
