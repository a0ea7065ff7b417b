//! Property tests: matcher semantics must be internally consistent.

use proptest::prelude::*;
use smartcrawl_match::Matcher;
use smartcrawl_text::{Document, TokenId};

fn doc_strategy() -> impl Strategy<Value = Document> {
    prop::collection::vec(0u32..16, 0..8)
        .prop_map(|v| Document::from_tokens(v.into_iter().map(TokenId).collect()))
}

proptest! {
    #[test]
    fn exact_match_implies_jaccard_match(a in doc_strategy(), b in doc_strategy()) {
        if Matcher::Exact.matches(&a, &b) {
            let strict = Matcher::Jaccard { threshold: 1.0 }.matches(&a, &b);
            let fuzzy = Matcher::paper_fuzzy().matches(&a, &b);
            prop_assert!(strict);
            prop_assert!(fuzzy);
        }
    }

    #[test]
    fn lower_threshold_matches_superset(
        a in doc_strategy(), b in doc_strategy(),
        lo in 0.05f64..0.5, hi in 0.5f64..1.0,
    ) {
        if (Matcher::Jaccard { threshold: hi }).matches(&a, &b) {
            let loose = Matcher::Jaccard { threshold: lo }.matches(&a, &b);
            prop_assert!(loose);
        }
    }
}
