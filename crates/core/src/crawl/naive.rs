//! NaiveCrawl (paper §1, Appendix C): one maximally-specific query per
//! local record, issued in random order — the strategy OpenRefine's
//! reconciliation API uses. No query sharing, fragile under data errors
//! (a single wrong keyword makes the conjunctive query return nothing).

use crate::context::TextContext;
use crate::crawl::observe::{CrawlObserver, NullObserver};
use crate::crawl::session::{CrawlSession, Observation, QuerySource};
use crate::crawl::CrawlReport;
use crate::local::LocalDb;
use crate::query::Query;
use crate::select::engine::ProcessOutcome;
use crate::select::PageMatcher;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use smartcrawl_hidden::{RetryPolicy, SearchInterface, SearchPage};
use smartcrawl_match::Matcher;

/// [`QuerySource`] for NaiveCrawl: each local record's full document as a
/// conjunctive query, in seeded random order, skipping empty documents.
pub struct NaiveSource<'a> {
    local: &'a LocalDb,
    order: Vec<usize>,
    cursor: usize,
    matches: PageMatcher<'a>,
    ctx: TextContext,
}

impl<'a> NaiveSource<'a> {
    /// Builds the source. `ctx` must be the context `local` was built with.
    pub fn new(local: &'a LocalDb, matcher: Matcher, seed: u64, ctx: TextContext) -> Self {
        let mut order: Vec<usize> = (0..local.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        Self { local, order, cursor: 0, matches: PageMatcher::new(local, matcher), ctx }
    }
}

impl QuerySource for NaiveSource<'_> {
    fn next_query(&mut self, _issued: usize) -> Option<Vec<String>> {
        while self.cursor < self.order.len() {
            let i = self.order[self.cursor];
            self.cursor += 1;
            let doc = self.local.doc(i);
            if doc.is_empty() {
                continue; // nothing to ask about
            }
            return Some(Query::from_document(doc).render(&self.ctx));
        }
        None
    }

    fn next_queries(&mut self, _issued: usize, m: usize) -> Vec<Vec<String>> {
        // Cursor peek replicating next_query's empty-document skip, with
        // no cursor movement: the shuffled order is fixed up front, so
        // these forecasts are always right.
        let mut hints = Vec::with_capacity(m);
        for &i in self.order.iter().skip(self.cursor) {
            if hints.len() >= m {
                break;
            }
            let doc = self.local.doc(i);
            if !doc.is_empty() {
                hints.push(Query::from_document(doc).render(&self.ctx));
            }
        }
        hints
    }

    fn observe(&mut self, _keywords: &[String], page: &SearchPage, _k: usize) -> Observation {
        let (newly_covered, _) = self.matches.absorb(&page.records, &mut self.ctx, |_| true);
        Observation::from_outcome(ProcessOutcome { newly_covered, removed: 0 }, &page.records)
    }

    fn selection_stats(&self) -> crate::select::engine::SelectionStats {
        self.matches.stats()
    }
}

/// Runs NaiveCrawl with the given budget: for each local record (random
/// order, seeded), issue its full document as a conjunctive query and match
/// the returned page against the local database.
pub fn naive_crawl<I: SearchInterface>(
    local: &LocalDb,
    iface: &mut I,
    budget: usize,
    matcher: Matcher,
    seed: u64,
    ctx: TextContext,
) -> CrawlReport {
    naive_crawl_with(local, iface, budget, matcher, seed, RetryPolicy::none(), &mut NullObserver, ctx)
}

/// [`naive_crawl`] with a retry policy and an observer.
#[allow(clippy::too_many_arguments)] // mirrors naive_crawl plus the two session knobs
pub fn naive_crawl_with<I: SearchInterface>(
    local: &LocalDb,
    iface: &mut I,
    budget: usize,
    matcher: Matcher,
    seed: u64,
    retry: RetryPolicy,
    observer: &mut dyn CrawlObserver,
    ctx: TextContext,
) -> CrawlReport {
    let mut source = NaiveSource::new(local, matcher, seed, ctx);
    CrawlSession::new(budget).with_retry(retry).run(&mut source, iface, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_hidden::{HiddenDbBuilder, HiddenRecord, Metered};
    use smartcrawl_text::Record;

    fn world() -> (TextContext, LocalDb, smartcrawl_hidden::HiddenDb) {
        let mut ctx = TextContext::new();
        let local = LocalDb::build(
            vec![
                Record::from(["thai noodle house"]),
                Record::from(["jade noodle house"]),
                Record::from(["golden dragon palace"]),
            ],
            &mut ctx,
        );
        let hidden = HiddenDbBuilder::new()
            .k(3)
            .records([
                HiddenRecord::new(0, Record::from(["thai noodle house"]), vec![], 2.0),
                HiddenRecord::new(1, Record::from(["jade noodle house"]), vec![], 1.0),
            ])
            .build();
        (ctx, local, hidden)
    }

    #[test]
    fn covers_one_record_per_matching_query() {
        let (ctx, local, hidden) = world();
        let mut iface = Metered::new(&hidden, None);
        let report = naive_crawl(&local, &mut iface, 3, Matcher::Exact, 1, ctx);
        assert_eq!(report.queries_issued(), 3);
        // Two of the three records exist in H; the third's query returns
        // nothing.
        assert_eq!(report.covered_claimed(), 2);
    }

    #[test]
    fn respects_budget() {
        let (ctx, local, hidden) = world();
        let mut iface = Metered::new(&hidden, None);
        let report = naive_crawl(&local, &mut iface, 1, Matcher::Exact, 1, ctx);
        assert_eq!(report.queries_issued(), 1);
        assert!(report.covered_claimed() <= 1);
    }

    #[test]
    fn data_error_breaks_the_specific_query() {
        // "Lotus of Siam 12345": the bogus keyword poisons the conjunctive
        // query (paper §1's motivating example).
        let mut ctx = TextContext::new();
        let local = LocalDb::build(vec![Record::from(["lotus siam 12345"])], &mut ctx);
        let hidden = HiddenDbBuilder::new()
            .k(5)
            .records([HiddenRecord::new(0, Record::from(["lotus siam"]), vec![], 1.0)])
            .build();
        let mut iface = Metered::new(&hidden, None);
        let report = naive_crawl(&local, &mut iface, 1, Matcher::Exact, 1, ctx);
        assert_eq!(report.covered_claimed(), 0);
        assert!(report.steps[0].returned.is_empty());
    }

    #[test]
    fn order_is_deterministic_per_seed() {
        let (ctx, local, hidden) = world();
        let mut iface = Metered::new(&hidden, None);
        let a = naive_crawl(&local, &mut iface, 3, Matcher::Exact, 5, ctx);
        let (ctx2, local2, _) = world();
        let mut iface2 = Metered::new(&hidden, None);
        let b = naive_crawl(&local2, &mut iface2, 3, Matcher::Exact, 5, ctx2);
        let ka: Vec<_> = a.steps.iter().map(|s| s.keywords.clone()).collect();
        let kb: Vec<_> = b.steps.iter().map(|s| s.keywords.clone()).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn event_counts_match_report() {
        let (ctx, local, hidden) = world();
        let mut iface = Metered::new(&hidden, None);
        let report = naive_crawl(&local, &mut iface, 3, Matcher::Exact, 1, ctx);
        assert_eq!(report.events.queries_issued, report.queries_issued());
        assert_eq!(report.events.pages_received, report.queries_issued());
        assert_eq!(report.events.matched, report.covered_claimed());
    }
}
