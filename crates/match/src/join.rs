//! Similarity join between `q(D)` and a returned top-k page (paper §6.1).
//!
//! The page has at most `k` documents (k ≤ 1000 in practice), but `q(D)`
//! can be large for a frequent query, so the join is driven from the local
//! side against a token-blocked index of the page: a local document only
//! gets verified against page documents sharing at least one token (a
//! document pair with Jaccard > 0 must share a token; exact matching uses a
//! hash lookup instead).

use crate::matcher::Matcher;
use smartcrawl_text::similarity::jaccard;
use smartcrawl_text::{Document, TokenId};
use std::collections::HashMap;

/// Token-blocked index over one result page.
#[derive(Debug, Default)]
pub struct PageIndex {
    docs: Vec<Document>,
    by_token: HashMap<TokenId, Vec<u32>>,
    by_doc: HashMap<Document, u32>,
}

impl PageIndex {
    /// Indexes the page documents (position = page index).
    pub fn build(docs: Vec<Document>) -> Self {
        let mut by_token: HashMap<TokenId, Vec<u32>> = HashMap::new();
        let mut by_doc: HashMap<Document, u32> = HashMap::new();
        for (i, d) in docs.iter().enumerate() {
            for t in d.iter() {
                by_token.entry(t).or_default().push(i as u32);
            }
            // Keep the first occurrence: pages have no duplicates in
            // practice (hidden databases are deduplicated, paper fn. 3).
            by_doc.entry(d.clone()).or_insert(i as u32);
        }
        Self { docs, by_token, by_doc }
    }

    /// Number of indexed page documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the page is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The indexed documents.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// Finds the best-matching page document for `d` under `matcher`.
    ///
    /// Returns the page position of the match with the highest similarity
    /// (ties → smallest position), or `None` if nothing clears the
    /// threshold. Exact matching is a single hash lookup.
    pub fn find_match(&self, d: &Document, matcher: Matcher) -> Option<usize> {
        match matcher {
            Matcher::Exact => self.by_doc.get(d).map(|&i| i as usize),
            Matcher::Jaccard { threshold } => {
                let mut best: Option<(f64, usize)> = None;
                let mut seen: Vec<u32> = Vec::new();
                for t in d.iter() {
                    if let Some(list) = self.by_token.get(&t) {
                        seen.extend_from_slice(list);
                    }
                }
                seen.sort_unstable();
                seen.dedup();
                for &i in &seen {
                    let h = &self.docs[i as usize];
                    // Size filter: Jaccard is at most min/max of the two
                    // sizes, computed as `jaccard` divides when the
                    // smaller document lies inside the larger one.
                    let (dl, hl) = (d.len(), h.len());
                    if (dl.min(hl) as f64 / dl.max(hl) as f64) < threshold {
                        continue;
                    }
                    let sim = jaccard(d, h);
                    if sim >= threshold {
                        let better = match best {
                            None => true,
                            Some((bs, bi)) => {
                                sim > bs || (sim == bs && (i as usize) < bi)
                            }
                        };
                        if better {
                            best = Some((sim, i as usize));
                        }
                    }
                }
                best.map(|(_, i)| i)
            }
        }
    }

    /// Joins a batch of local documents against the page: yields
    /// `(local position, page position)` for every local document that
    /// matches some page document.
    pub fn join<'a>(
        &'a self,
        locals: impl IntoIterator<Item = &'a Document> + 'a,
        matcher: Matcher,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        locals
            .into_iter()
            .enumerate()
            .filter_map(move |(li, d)| self.find_match(d, matcher).map(|pi| (li, pi)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(ids: &[u32]) -> Document {
        Document::from_tokens(ids.iter().map(|&i| TokenId(i)).collect())
    }

    #[test]
    fn exact_match_is_found_by_hash() {
        let page = PageIndex::build(vec![doc(&[1, 2]), doc(&[3, 4])]);
        assert_eq!(page.find_match(&doc(&[2, 1]), Matcher::Exact), Some(0));
        assert_eq!(page.find_match(&doc(&[3]), Matcher::Exact), None);
    }

    #[test]
    fn jaccard_match_finds_the_best_candidate() {
        // d shares 9/10 with page[1] and 5/15 with page[0].
        let d = doc(&(0..10).collect::<Vec<_>>());
        let close = doc(&(0..9).chain([99]).collect::<Vec<_>>());
        let far = doc(&(0..5).chain(50..60).collect::<Vec<_>>());
        let page = PageIndex::build(vec![far, close]);
        assert_eq!(page.find_match(&d, Matcher::Jaccard { threshold: 0.8 }), Some(1));
        assert_eq!(page.find_match(&d, Matcher::Jaccard { threshold: 0.95 }), None);
    }

    #[test]
    fn size_filter_keeps_a_pair_exactly_at_the_threshold() {
        // J = 55/100 = 0.55 exactly, yet 100 × 0.55 rounds above 55.
        let small = doc(&(0..55).collect::<Vec<_>>());
        let large = doc(&(0..100).collect::<Vec<_>>());
        let jaccard = Matcher::Jaccard { threshold: 0.55 };
        assert!(jaccard.matches(&small, &large));
        let page = PageIndex::build(vec![large.clone()]);
        assert_eq!(page.find_match(&small, jaccard), Some(0));
        let page = PageIndex::build(vec![small]);
        assert_eq!(page.find_match(&large, jaccard), Some(0));
    }

    #[test]
    fn disjoint_documents_never_match() {
        let page = PageIndex::build(vec![doc(&[1, 2, 3])]);
        assert_eq!(page.find_match(&doc(&[7, 8]), Matcher::Jaccard { threshold: 0.1 }), None);
    }

    #[test]
    fn join_pairs_every_matching_local() {
        let page = PageIndex::build(vec![doc(&[1, 2]), doc(&[3, 4])]);
        let locals = [doc(&[1, 2]), doc(&[9]), doc(&[3, 4])];
        let pairs: Vec<_> = page.join(locals.iter(), Matcher::Exact).collect();
        assert_eq!(pairs, vec![(0, 0), (2, 1)]);
    }

    #[test]
    fn empty_page_matches_nothing() {
        let page = PageIndex::build(vec![]);
        assert!(page.is_empty());
        assert_eq!(page.find_match(&doc(&[1]), Matcher::Exact), None);
        assert_eq!(page.find_match(&doc(&[1]), Matcher::paper_fuzzy()), None);
    }

    #[test]
    fn size_filter_does_not_drop_valid_matches() {
        // Identical docs pass the size filter trivially.
        let d = doc(&[5, 6, 7]);
        let page = PageIndex::build(vec![d.clone()]);
        assert_eq!(page.find_match(&d, Matcher::Jaccard { threshold: 1.0 }), Some(0));
    }
}
