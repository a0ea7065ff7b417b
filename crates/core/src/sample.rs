//! The crawler-side view of a hidden-database sample (paper §5).
//!
//! QSel-Est's estimators need two statistics per query: the sample
//! frequency `|q(Hs)|` and the matched intersection `|q(D) ∩̃ q(Hs)|`.
//! [`SampleIndex`] tokenizes the sample into the crawl vocabulary, indexes
//! it, and precomputes, for every local record, whether it matches some
//! sample record — so both statistics reduce to counting.

use crate::context::TextContext;
use crate::local::LocalMatchIndex;
use smartcrawl_index::InvertedIndex;
use smartcrawl_match::Matcher;
use smartcrawl_sampler::HiddenSample;
use smartcrawl_text::{Document, TokenId};

/// Indexed hidden-database sample `Hs` with its sampling ratio θ.
#[derive(Debug)]
pub struct SampleIndex {
    docs: Vec<Document>,
    index: InvertedIndex,
    theta: f64,
}

impl SampleIndex {
    /// Tokenizes and indexes a sample into the crawl vocabulary.
    pub fn build(sample: &HiddenSample, ctx: &mut TextContext) -> Self {
        let docs: Vec<Document> =
            sample.records.iter().map(|r| ctx.doc_of_fields(&r.fields[..])).collect();
        let index = InvertedIndex::build(&docs, ctx.vocab.len());
        Self { docs, index, theta: sample.theta }
    }

    /// An empty sample (θ = 0) — QSel-Est degenerates gracefully to
    /// QSel-Simple behaviour without one.
    pub fn empty() -> Self {
        Self { docs: Vec::new(), index: InvertedIndex::build(&[], 0), theta: 0.0 }
    }

    /// Sample size `|Hs|`.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Sampling ratio θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// `|q(Hs)|`: how many sample records satisfy the query.
    pub fn frequency(&self, query: &[TokenId]) -> usize {
        self.index.frequency(query)
    }

    /// For every record of the local database `local` matches against,
    /// whether it matches some sample record under `matcher` (the
    /// per-record ingredient of `|q(D) ∩̃ q(Hs)|`). Each sample document
    /// probes `local` once; both matchers are symmetric, so the records a
    /// probe returns are exactly the ones that match that sample record.
    pub fn local_matches(&self, local: &LocalMatchIndex<'_>, matcher: Matcher) -> Vec<bool> {
        let mut matched = vec![false; local.db().len()];
        for h in &self.docs {
            for d in local.find_matches(h, matcher) {
                if let Some(m) = matched.get_mut(d) {
                    *m = true;
                }
            }
        }
        matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalDb;
    use smartcrawl_hidden::{ExternalId, Retrieved};
    use smartcrawl_text::Record;

    fn sample(fields: &[&str], theta: f64) -> HiddenSample {
        HiddenSample {
            records: fields
                .iter()
                .enumerate()
                .map(|(i, &f)| Retrieved::new(ExternalId(i as u64), vec![f.to_owned()], vec![]))
                .collect(),
            theta,
        }
    }

    #[test]
    fn frequency_counts_satisfying_sample_records() {
        let mut ctx = TextContext::new();
        let s = SampleIndex::build(
            &sample(&["thai house", "steak house", "ramen bar"], 1.0 / 3.0),
            &mut ctx,
        );
        let house = ctx.vocab.get("house").unwrap();
        let thai = ctx.vocab.get("thai").unwrap();
        assert_eq!(s.frequency(&[house]), 2);
        assert_eq!(s.frequency(&[thai, house]), 1);
        assert_eq!(s.len(), 3);
        assert!((s.theta() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn local_matches_flags_matchable_records() {
        let mut ctx = TextContext::new();
        let local = LocalDb::build(
            vec![Record::from(["thai house"]), Record::from(["noodle palace"])],
            &mut ctx,
        );
        let s = SampleIndex::build(&sample(&["thai house", "ramen bar"], 0.5), &mut ctx);
        let index = LocalMatchIndex::build(&local);
        assert_eq!(s.local_matches(&index, Matcher::Exact), vec![true, false]);
    }

    #[test]
    fn a_pair_exactly_at_the_threshold_matches_from_either_side() {
        // J = 55/100 = 0.55 exactly, although 100 × 0.55 rounds above 55.
        let words = |n: usize| (0..n).map(|i| format!("w{i}")).collect::<Vec<_>>().join(" ");
        let jaccard = Matcher::Jaccard { threshold: 0.55 };
        for (local_words, sample_words) in [(55, 100), (100, 55)] {
            let mut ctx = TextContext::new();
            let local = LocalDb::build(vec![Record::from([words(local_words)])], &mut ctx);
            let s = SampleIndex::build(&sample(&[words(sample_words).as_str()], 1.0), &mut ctx);
            let index = LocalMatchIndex::build(&local);
            assert_eq!(
                s.local_matches(&index, jaccard),
                vec![true],
                "{local_words}-token local, {sample_words}-token sample"
            );
        }
    }

    #[test]
    fn empty_sample_is_safe() {
        let mut ctx = TextContext::new();
        let local = LocalDb::build(vec![Record::from(["thai house"])], &mut ctx);
        let s = SampleIndex::empty();
        assert!(s.is_empty());
        assert_eq!(s.theta(), 0.0);
        assert_eq!(s.local_matches(&LocalMatchIndex::build(&local), Matcher::Exact), vec![false]);
        let thai = ctx.vocab.get("thai").unwrap();
        assert_eq!(s.frequency(&[thai]), 0);
    }
}
