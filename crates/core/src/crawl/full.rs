//! FullCrawl (paper §1, Appendix C): classic deep-web crawling. Build a
//! keyword pool from a hidden-database sample and issue keywords in
//! decreasing order of their *sample* frequency — the textbook recipe for
//! maximizing coverage of `H` (frequent keywords retrieve many hidden
//! records). Entirely oblivious of the local database, which is exactly
//! why it wastes budget when `|D| ≪ |H|`.

use crate::context::TextContext;
use crate::crawl::observe::{CrawlObserver, NullObserver};
use crate::crawl::session::{CrawlSession, Observation, QuerySource};
use crate::crawl::CrawlReport;
use crate::local::LocalDb;
use crate::select::engine::ProcessOutcome;
use crate::select::PageMatcher;
use smartcrawl_hidden::{RetryPolicy, SearchInterface, SearchPage};
use smartcrawl_match::Matcher;
use smartcrawl_sampler::HiddenSample;
use std::collections::BTreeMap;

/// [`QuerySource`] for FullCrawl: single sample keywords, most-frequent
/// first (ties broken lexicographically for determinism).
pub struct FullSource<'a> {
    keywords: Vec<String>,
    cursor: usize,
    matches: PageMatcher<'a>,
    ctx: TextContext,
}

impl<'a> FullSource<'a> {
    /// Builds the keyword pool from the sample. `ctx` must be the context
    /// `local` was built with.
    pub fn new(
        local: &'a LocalDb,
        sample: &HiddenSample,
        matcher: Matcher,
        ctx: TextContext,
    ) -> Self {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for r in &sample.records {
            let mut words: Vec<String> =
                ctx.tokenizer.raw_tokens(&r.fields.join(" ")).collect();
            words.sort_unstable();
            words.dedup();
            for w in words {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(String, usize)> = counts.into_iter().collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Self {
            keywords: ranked.into_iter().map(|(w, _)| w).collect(),
            cursor: 0,
            matches: PageMatcher::new(local, matcher),
            ctx,
        }
    }
}

impl QuerySource for FullSource<'_> {
    fn next_query(&mut self, _issued: usize) -> Option<Vec<String>> {
        let word = self.keywords.get(self.cursor)?.clone();
        self.cursor += 1;
        Some(vec![word])
    }

    fn next_queries(&mut self, _issued: usize, m: usize) -> Vec<Vec<String>> {
        // The ranked keyword list is fixed up front; a cursor-window peek
        // is an always-right forecast.
        self.keywords.iter().skip(self.cursor).take(m).map(|w| vec![w.clone()]).collect()
    }

    fn observe(&mut self, _keywords: &[String], page: &SearchPage, _k: usize) -> Observation {
        let (newly_covered, _) = self.matches.absorb(&page.records, &mut self.ctx, |_| true);
        Observation::from_outcome(ProcessOutcome { newly_covered, removed: 0 }, &page.records)
    }

    fn selection_stats(&self) -> crate::select::engine::SelectionStats {
        self.matches.stats()
    }
}

/// Runs FullCrawl: issues the sample's keywords, most-frequent first,
/// matching every returned page against the local database.
pub fn full_crawl<I: SearchInterface>(
    local: &LocalDb,
    sample: &HiddenSample,
    iface: &mut I,
    budget: usize,
    matcher: Matcher,
    ctx: TextContext,
) -> CrawlReport {
    full_crawl_with(local, sample, iface, budget, matcher, RetryPolicy::none(), &mut NullObserver, ctx)
}

/// [`full_crawl`] with a retry policy and an observer.
#[allow(clippy::too_many_arguments)] // mirrors full_crawl plus the two session knobs
pub fn full_crawl_with<I: SearchInterface>(
    local: &LocalDb,
    sample: &HiddenSample,
    iface: &mut I,
    budget: usize,
    matcher: Matcher,
    retry: RetryPolicy,
    observer: &mut dyn CrawlObserver,
    ctx: TextContext,
) -> CrawlReport {
    let mut source = FullSource::new(local, sample, matcher, ctx);
    CrawlSession::new(budget).with_retry(retry).run(&mut source, iface, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_hidden::{HiddenDbBuilder, HiddenRecord, Metered};
    use smartcrawl_sampler::bernoulli_sample;
    use smartcrawl_text::Record;

    fn world() -> (TextContext, LocalDb, smartcrawl_hidden::HiddenDb) {
        let mut ctx = TextContext::new();
        let local = LocalDb::build(vec![Record::from(["thai noodle house"])], &mut ctx);
        let hidden = HiddenDbBuilder::new()
            .k(10)
            .records((0..20).map(|i| {
                let name = if i == 0 {
                    "thai noodle house".to_owned()
                } else {
                    format!("generic shop {i}")
                };
                HiddenRecord::new(i, Record::from([name]), vec![], i as f64)
            }))
            .build();
        (ctx, local, hidden)
    }

    #[test]
    fn issues_sample_keywords_most_frequent_first() {
        let (ctx, local, hidden) = world();
        let sample = bernoulli_sample(&hidden, 1.0, 0); // full visibility
        let mut iface = Metered::new(&hidden, None);
        let report = full_crawl(&local, &sample, &mut iface, 3, Matcher::Exact, ctx);
        // "generic" and "shop" tie at 19 > everything else.
        assert_eq!(report.steps[0].keywords, vec!["generic".to_owned()]);
        assert_eq!(report.steps[1].keywords, vec!["shop".to_owned()]);
        assert_eq!(report.queries_issued(), 3);
    }

    #[test]
    fn eventually_covers_local_records_reachable_by_frequent_keywords() {
        let (ctx, local, hidden) = world();
        let sample = bernoulli_sample(&hidden, 1.0, 0);
        let mut iface = Metered::new(&hidden, None);
        let report = full_crawl(&local, &sample, &mut iface, 50, Matcher::Exact, ctx);
        // The pool contains "thai"/"noodle"/"house" (frequency 1), so the
        // local record is covered once those are reached.
        assert_eq!(report.covered_claimed(), 1);
    }

    #[test]
    fn empty_sample_means_no_queries() {
        let (ctx, local, hidden) = world();
        let sample = HiddenSample { records: vec![], theta: 0.0 };
        let mut iface = Metered::new(&hidden, None);
        let report = full_crawl(&local, &sample, &mut iface, 10, Matcher::Exact, ctx);
        assert_eq!(report.queries_issued(), 0);
    }

    #[test]
    fn respects_interface_budget() {
        let (ctx, local, hidden) = world();
        let sample = bernoulli_sample(&hidden, 1.0, 0);
        let mut iface = Metered::new(&hidden, Some(2));
        let report = full_crawl(&local, &sample, &mut iface, 10, Matcher::Exact, ctx);
        assert_eq!(report.queries_issued(), 2);
        assert_eq!(report.events.budget_exhausted, 1);
    }
}
