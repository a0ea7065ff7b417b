//! Record-pair matching policies.

use smartcrawl_text::similarity::jaccard;
use smartcrawl_text::Document;

/// How the crawler decides that a local and a hidden record refer to the
/// same real-world entity. Both documents must be interned in the *same*
/// vocabulary (the crawler tokenizes returned hidden text into its own).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Matcher {
    /// `document(d) = document(h)` — Assumption 3's exact matching.
    Exact,
    /// Token-set Jaccard similarity at or above a threshold (paper §6.1
    /// uses 0.9).
    Jaccard {
        /// Minimum similarity in `(0, 1]`.
        threshold: f64,
    },
}

impl Matcher {
    /// The paper's fuzzy-matching configuration: Jaccard ≥ 0.9.
    pub fn paper_fuzzy() -> Self {
        Matcher::Jaccard { threshold: 0.9 }
    }

    /// Whether documents `d` and `h` match under this policy.
    pub fn matches(&self, d: &Document, h: &Document) -> bool {
        match *self {
            Matcher::Exact => d == h,
            Matcher::Jaccard { threshold } => jaccard(d, h) >= threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_text::TokenId;

    fn doc(ids: &[u32]) -> Document {
        Document::from_tokens(ids.iter().map(|&i| TokenId(i)).collect())
    }

    #[test]
    fn exact_requires_set_equality() {
        let m = Matcher::Exact;
        assert!(m.matches(&doc(&[1, 2]), &doc(&[2, 1])));
        assert!(!m.matches(&doc(&[1, 2]), &doc(&[1, 2, 3])));
    }

    #[test]
    fn jaccard_threshold_cuts_correctly() {
        // |A∩B| = 9, |A∪B| = 10 → 0.9.
        let a = doc(&(0..10).collect::<Vec<_>>());
        let b = doc(&(0..9).chain([42]).collect::<Vec<_>>());
        assert!(Matcher::Jaccard { threshold: 0.9 }.matches(&a, &a));
        assert!(!Matcher::Jaccard { threshold: 0.91 }.matches(&a, &b));
        // 9/11 < 0.9: one word replaced on both sides.
        let c = doc(&(0..9).chain([43]).collect::<Vec<_>>());
        assert!(!Matcher::paper_fuzzy().matches(&b, &c));
    }

    #[test]
    fn jaccard_one_equals_exact_on_nonempty() {
        let m = Matcher::Jaccard { threshold: 1.0 };
        assert!(m.matches(&doc(&[1, 2]), &doc(&[1, 2])));
        assert!(!m.matches(&doc(&[1, 2]), &doc(&[1])));
    }
}
