//! The shared crawl driver: one budget loop for every approach.
//!
//! Every crawler in the paper's evaluation runs the same skeleton — pick a
//! query, issue it, match the page against `D`, record the step — and they
//! differ only in *how the next query is chosen* and *what feedback they
//! need from the page*. [`CrawlSession`] owns the skeleton: the budget
//! loop, retry handling under a [`RetryPolicy`], [`CrawlStep`] /
//! [`EnrichedPair`] bookkeeping, per-phase timing, and the
//! [`CrawlObserver`] event stream. The per-approach
//! logic lives behind the [`QuerySource`] trait, with one implementation
//! per approach:
//!
//! | source | approach |
//! |---|---|
//! | [`EngineSource`] | SmartCrawl / IdealCrawl (benefit-driven selection) |
//! | [`NaiveSource`](super::NaiveSource) | NaiveCrawl |
//! | [`FullSource`](super::FullSource) | FullCrawl |
//! | [`OnlineSource`](super::OnlineSource) | runtime-sampling SmartCrawl |
//! | [`PopulateSource`](super::PopulateSource) | row population |
//!
//! Robustness and observability improvements land here once and apply to
//! every approach; later batching/async/caching work has exactly one loop
//! to touch.

use crate::crawl::observe::{CrawlEvent, CrawlObserver, EventCounts, EventStamp};
use crate::crawl::{CrawlReport, CrawlStep, EnrichedPair};
use crate::select::engine::{Engine, ProcessOutcome, SelectionStats};
use smartcrawl_hidden::{RetryPolicy, Retrieved, SearchError, SearchInterface, SearchPage};
use smartcrawl_index::QueryId;
use smartcrawl_par::PipelineHandle;
use std::time::Instant;

/// Wall-clock nanoseconds spent in each phase of the crawl loop, plus the
/// simulated backoff spent waiting out transient failures. Surfaced in
/// [`CrawlReport::timing`](crate::crawl::CrawlReport::timing) and the bench
/// harness timing tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Time inside [`QuerySource::next_query`] (benefit maintenance,
    /// priority-queue pops, pool ordering).
    pub selection_ns: u64,
    /// Time inside [`SearchInterface::search`] calls.
    pub search_ns: u64,
    /// Time inside [`QuerySource::observe`] (page matching + bookkeeping).
    pub matching_ns: u64,
    /// Simulated backoff ticks spent between retry attempts (virtual time,
    /// not wall clock).
    pub backoff_ticks: u64,
}

impl PhaseTimings {
    /// Total measured wall-clock nanoseconds across the three phases.
    pub fn total_ns(&self) -> u64 {
        self.selection_ns + self.search_ns + self.matching_ns
    }
}

/// Speculation accounting of one pipelined crawl (`--pipeline-depth > 1`
/// with an interface stack that exposes a
/// [`prefetch_handle`](SearchInterface::prefetch_handle)). Pure profile:
/// none of these numbers feed back into any crawl decision, and the crawl
/// trajectory is byte-identical to a non-speculating run's at every depth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// The pipeline depth the session ran at (≥ 2; at depth 1 the session
    /// does not speculate and reports no pipeline section).
    pub depth: usize,
    /// Speculative searches handed to the worker pipeline.
    pub prefetches: usize,
    /// Issued queries served from a speculative result (the overlap wins).
    pub prefetch_hits: usize,
    /// Speculations cancelled because the source's next hint batch no
    /// longer predicted them (selection state moved under the window).
    pub mispredicts: usize,
    /// Speculations still in flight when the session ended.
    pub discarded: usize,
    /// Wall time workers spent computing speculative pages, in
    /// nanoseconds. Overlapped work: compare against `wait_ns` for the
    /// realized overlap ratio.
    pub worker_search_ns: u64,
    /// Wall time the driver spent blocked waiting for a speculative page
    /// it wanted to commit, in nanoseconds.
    pub wait_ns: u64,
    /// Wall time spent computing hint batches
    /// ([`QuerySource::next_queries`]), in nanoseconds — the price of
    /// speculation, kept out of `selection_ns` so phase profiles with and
    /// without speculation stay comparable.
    pub speculation_ns: u64,
}

impl PipelineStats {
    /// Fraction of worker search time that did not stall the driver:
    /// `(worker_search_ns − wait_ns) / worker_search_ns`, clamped at 0.
    /// 1.0 means every committed page was ready before the driver asked.
    pub fn overlap_ratio(&self) -> f64 {
        if self.worker_search_ns == 0 {
            return 0.0;
        }
        self.worker_search_ns.saturating_sub(self.wait_ns) as f64
            / self.worker_search_ns as f64
    }
}

/// What a [`QuerySource`] learned from one served page.
#[derive(Debug, Default)]
pub struct Observation {
    /// Newly asserted enrichment pairs (deduplicated by the source).
    pub newly_covered: Vec<EnrichedPair>,
    /// Local records removed from consideration by this page.
    pub removed: usize,
}

impl Observation {
    /// Builds an observation from a page absorption's outcome and the page
    /// it came from (`(local, page position)` pairs become
    /// [`EnrichedPair`]s).
    pub(crate) fn from_outcome(outcome: ProcessOutcome, page: &[Retrieved]) -> Self {
        let newly_covered = outcome
            .newly_covered
            .into_iter()
            .map(|(local_idx, page_idx)| EnrichedPair {
                local: local_idx,
                external: page[page_idx].external_id,
                payload: page[page_idx].payload.clone(),
                hidden_fields: page[page_idx].fields.clone(),
            })
            .collect();
        Self { newly_covered, removed: outcome.removed }
    }
}

/// The per-approach half of a crawl: supplies queries and absorbs pages.
/// Implementations hold whatever state their strategy needs (a selection
/// engine, a shuffled record order, a sampler state machine, …).
pub trait QuerySource {
    /// The next query to issue, or `None` when the source is exhausted
    /// (pool drained, nothing left to cover). `issued` is the number of
    /// queries served so far — sources with internal round structure (e.g.
    /// online sampling) use it to bound multi-query rounds.
    fn next_query(&mut self, issued: usize) -> Option<Vec<String>>;

    /// A non-binding forecast of the next up-to-`m` queries this source
    /// expects [`QuerySource::next_query`] to return, best first — the
    /// batch-selection hook the session's speculation step prefetches.
    ///
    /// Contract: *peek, don't consume*. The source's state must be
    /// unchanged afterwards, and every query is still issued through the
    /// authoritative `next_query`. Hints may be wrong (feedback from pages
    /// served in between can reorder any priority structure) — a wrong
    /// hint costs a wasted speculative search, never a wrong result.
    ///
    /// The default returns no hints, which simply disables speculation
    /// for the source. (A default that called `next_query` `m` times
    /// would *consume* queries and change the crawl for every
    /// feedback-driven source — exactly the bug class this trait split
    /// exists to rule out.)
    fn next_queries(&mut self, issued: usize, m: usize) -> Vec<Vec<String>> {
        let _ = (issued, m);
        Vec::new()
    }

    /// Absorbs the served page of the query last returned by
    /// [`QuerySource::next_query`].
    fn observe(&mut self, keywords: &[String], page: &SearchPage, k: usize) -> Observation;

    /// Called instead of [`QuerySource::observe`] when the query was
    /// dropped after exhausting its retries; sources may re-queue it.
    fn on_failure(&mut self, _keywords: &[String]) {}

    /// Final selection-machinery work counters (zeros for approaches
    /// without selection machinery).
    fn selection_stats(&self) -> SelectionStats {
        SelectionStats::default()
    }
}

/// Stamps and dispatches events, and keeps the session's own tallies.
struct Instrument<'a> {
    start: Instant,
    seq: u64,
    counts: EventCounts,
    observer: &'a mut dyn CrawlObserver,
}

impl Instrument<'_> {
    fn emit(&mut self, event: CrawlEvent) {
        let at = EventStamp {
            seq: self.seq,
            nanos: self.start.elapsed().as_nanos() as u64,
        };
        self.seq += 1;
        self.counts.absorb(&event);
        self.observer.on_event(at, &event);
    }
}

/// The shared budget-loop driver. Construct with a query budget, optionally
/// attach a [`RetryPolicy`], then [`run`](CrawlSession::run) a
/// [`QuerySource`] against a [`SearchInterface`].
///
/// Budget accounting: every *attempt* is charged against the budget —
/// served queries (which become [`CrawlStep`]s) and failed transient
/// attempts alike, mirroring real APIs where a 5xx still burns quota time.
/// The session stops when the budget is spent, the source is exhausted, or
/// the interface reports [`SearchError::BudgetExhausted`].
#[derive(Debug, Clone, Copy)]
pub struct CrawlSession {
    budget: usize,
    retry: RetryPolicy,
}

impl CrawlSession {
    /// A session with the given query budget and no retries.
    pub fn new(budget: usize) -> Self {
        Self { budget, retry: RetryPolicy::none() }
    }

    /// Attaches a retry policy for transient/rate-limited failures.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The session's query budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Drives `source` against `iface` until a stop condition, reporting
    /// every step, enrichment pair, phase timing, and event count.
    ///
    /// With a pipeline depth > 1 in scope
    /// ([`with_pipeline_depth`](smartcrawl_par::with_pipeline_depth)) and
    /// an interface stack exposing a
    /// [`prefetch_handle`](SearchInterface::prefetch_handle), the loop also
    /// speculates: worker threads search the source's forecast ahead of
    /// time. The trajectory is byte-identical either way; the report then
    /// carries a [`pipeline`](CrawlReport::pipeline) section.
    pub fn run<S: QuerySource + ?Sized, I: SearchInterface>(
        &self,
        source: &mut S,
        iface: &mut I,
        observer: &mut dyn CrawlObserver,
    ) -> CrawlReport {
        let depth = smartcrawl_par::current_pipeline_depth();
        let Some(db) = (depth > 1).then(|| iface.prefetch_handle()).flatten() else {
            return self.drive(source, iface, observer, None);
        };
        smartcrawl_par::run_pipeline(
            depth,
            |keywords: Vec<String>| {
                // Pure page computation; timed so the report can show how
                // much search latency the overlap absorbed.
                let t = Instant::now();
                let page = SearchPage { records: db.search(&keywords) };
                (page, t.elapsed().as_nanos() as u64)
            },
            |pipe| {
                let stats = PipelineStats { depth, ..Default::default() };
                let speculation = Speculation { pipe, in_flight: Vec::new(), stats };
                self.drive(source, iface, observer, Some(speculation))
            },
        )
    }

    /// The budget loop, with an optional speculation step that cannot
    /// change the trajectory (DESIGN.md §14): workers only compute pages
    /// from the side-effect-free engine under the interface stack. Every
    /// stateful step happens here, in issue order — each query still comes
    /// from [`QuerySource::next_query`], a prefetched page is committed
    /// through [`SearchInterface::commit_prefetched`], which every wrapper
    /// makes observably identical to [`SearchInterface::search`], and
    /// fault draws are keyed on the ordinal from
    /// [`SearchInterface::begin_query`]. Results are claimed by ticket, so
    /// worker completion order is unobservable.
    fn drive<S: QuerySource + ?Sized, I: SearchInterface>(
        &self,
        source: &mut S,
        iface: &mut I,
        observer: &mut dyn CrawlObserver,
        mut speculation: Option<Speculation<'_>>,
    ) -> CrawlReport {
        let mut ins = Instrument {
            // lint:allow(determinism) wall time feeds event timestamps only, never selection
            start: Instant::now(),
            seq: 0,
            counts: EventCounts::default(),
            observer,
        };
        let k = iface.k();
        let mut report = CrawlReport::default();
        let mut timing = PhaseTimings::default();
        // Transient attempts charged to the budget on top of served steps.
        let mut failed_attempts = 0usize;
        // Ordinal of the next issued query (counts every QueryIssued,
        // including queries later dropped after retry exhaustion). Keys
        // the interface stack's per-query state (fault-injection draws)
        // so speculative and plain runs burn identical randomness.
        let mut issued_ordinal = 0usize;
        // Counter snapshot of any query-result cache in the interface
        // stack: per-query hit/miss events diff against it, and the report
        // carries this run's delta even when the store is shared.
        let cache_at_start = iface.cache_stats();

        'session: while report.steps.len() + failed_attempts < self.budget {
            if let Some(spec) = &mut speculation {
                let budget_left = self.budget - (report.steps.len() + failed_attempts);
                spec.refill(source, report.steps.len(), budget_left);
            }
            let t = Instant::now();
            let next = source.next_query(report.steps.len());
            timing.selection_ns += t.elapsed().as_nanos() as u64;
            let Some(keywords) = next else {
                break; // source exhausted: pool drained or nothing live
            };
            ins.emit(CrawlEvent::QueryIssued { terms: keywords.len() });
            iface.begin_query(issued_ordinal);
            issued_ordinal += 1;
            let prefetched = speculation.as_mut().and_then(|spec| spec.claim(&keywords));

            let mut attempt = 0usize;
            let page = loop {
                let hits_before =
                    cache_at_start.and_then(|_| iface.cache_stats()).map(|s| s.hits);
                let t = Instant::now();
                // Retries re-commit the same speculative page: against the
                // deterministic engine that is equivalent to re-searching,
                // and the accounting stack charges and draws identically
                // either way.
                let result = match &prefetched {
                    Some(page) => iface.commit_prefetched(&keywords, page),
                    None => iface.search(&keywords),
                };
                timing.search_ns += t.elapsed().as_nanos() as u64;
                match result {
                    Ok(page) => {
                        if let Some(before) = hits_before {
                            let now = iface.cache_stats().map_or(before, |s| s.hits);
                            if now > before {
                                ins.emit(CrawlEvent::CacheHit { results: page.records.len() });
                            } else {
                                ins.emit(CrawlEvent::CacheMiss);
                            }
                        }
                        break page;
                    }
                    Err(SearchError::BudgetExhausted) => {
                        ins.emit(CrawlEvent::BudgetExhausted);
                        break 'session;
                    }
                    Err(err) => {
                        debug_assert!(err.is_retryable());
                        failed_attempts += 1;
                        let budget_left =
                            report.steps.len() + failed_attempts < self.budget;
                        if attempt >= self.retry.max_retries || !budget_left {
                            // Retries exhausted: drop this query, carry on.
                            source.on_failure(&keywords);
                            continue 'session;
                        }
                        attempt += 1;
                        timing.backoff_ticks += self.retry.backoff(attempt);
                        ins.emit(CrawlEvent::RetryAttempted { attempt });
                    }
                }
            };

            ins.emit(CrawlEvent::PageReceived {
                len: page.records.len(),
                full: page.is_full(k),
            });
            let t = Instant::now();
            let observation = source.observe(&keywords, &page, k);
            timing.matching_ns += t.elapsed().as_nanos() as u64;

            for pair in &observation.newly_covered {
                ins.emit(CrawlEvent::Matched { local: pair.local });
            }
            if observation.removed > 0 {
                ins.emit(CrawlEvent::Removed { count: observation.removed });
            }
            report.records_removed += observation.removed;
            report.enriched.extend(observation.newly_covered);
            report.steps.push(CrawlStep {
                keywords,
                returned: page.records.iter().map(|r| r.external_id).collect(),
                full_page: page.is_full(k),
            });
        }

        if report.steps.len() + failed_attempts >= self.budget
            && ins.counts.budget_exhausted == 0
        {
            ins.emit(CrawlEvent::BudgetExhausted);
        }
        report.selection = source.selection_stats();
        report.timing = timing;
        report.events = ins.counts;
        report.pipeline = speculation.map(Speculation::finish);
        if let (Some(start), Some(end)) = (cache_at_start, iface.cache_stats()) {
            report.cache = Some(end.since(&start));
        }
        report
    }
}

/// The crawl loop's optional speculation step: keeps up to `depth`
/// searches of the source's forecast in flight on pipeline workers.
struct Speculation<'p> {
    pipe: &'p PipelineHandle<'p, Vec<String>, (SearchPage, u64)>,
    /// Speculations in flight, `(keywords, ticket)`, oldest first.
    in_flight: Vec<(Vec<String>, u64)>,
    stats: PipelineStats,
}

impl Speculation<'_> {
    /// Reconciles the in-flight window with the source's current forecast:
    /// forgets the entries it no longer predicts, then submits new ones,
    /// never past the remaining budget (those could only be discarded).
    fn refill<S: QuerySource + ?Sized>(
        &mut self,
        source: &mut S,
        issued: usize,
        budget_left: usize,
    ) {
        let t = Instant::now();
        let hints = source.next_queries(issued, self.stats.depth);
        self.stats.speculation_ns += t.elapsed().as_nanos() as u64;
        let (pipe, stats) = (self.pipe, &mut self.stats);
        self.in_flight.retain(|(kw, ticket)| {
            let predicted = hints.contains(kw);
            if !predicted {
                pipe.forget(*ticket);
                stats.mispredicts += 1;
            }
            predicted
        });
        let window = self.stats.depth.min(budget_left);
        for kw in hints {
            if self.in_flight.len() >= window {
                break;
            }
            if !self.in_flight.iter().any(|(q, _)| *q == kw) {
                self.stats.prefetches += 1;
                let ticket = self.pipe.submit(kw.clone());
                self.in_flight.push((kw, ticket));
            }
        }
    }

    /// The speculative page of `keywords`, if the forecast was right
    /// (matched by keyword equality — pages are a pure function of the
    /// keywords).
    fn claim(&mut self, keywords: &[String]) -> Option<SearchPage> {
        let i = self.in_flight.iter().position(|(q, _)| q == keywords)?;
        let (_, ticket) = self.in_flight.remove(i);
        let t = Instant::now();
        let (page, search_ns) = self.pipe.take(ticket);
        self.stats.wait_ns += t.elapsed().as_nanos() as u64;
        self.stats.worker_search_ns += search_ns;
        self.stats.prefetch_hits += 1;
        Some(page)
    }

    /// Ends the session: whatever is still in flight was never issued.
    fn finish(mut self) -> PipelineStats {
        for (_, ticket) in self.in_flight.drain(..) {
            self.pipe.forget(ticket);
            self.stats.discarded += 1;
        }
        self.stats
    }
}

/// [`QuerySource`] over the benefit-driven selection `Engine`: powers
/// SmartCrawl (QSel-Simple/Bound/Est) and IdealCrawl (QSel-Ideal).
pub struct EngineSource<'a> {
    engine: Engine<'a>,
    pending: Option<QueryId>,
}

impl<'a> EngineSource<'a> {
    pub(crate) fn new(engine: Engine<'a>) -> Self {
        Self { engine, pending: None }
    }
}

impl QuerySource for EngineSource<'_> {
    fn next_query(&mut self, _issued: usize) -> Option<Vec<String>> {
        if self.engine.live_count() == 0 {
            return None;
        }
        let (qid, _prio) = self.engine.select_next()?;
        self.pending = Some(qid);
        Some(self.engine.render(qid))
    }

    fn next_queries(&mut self, _issued: usize, m: usize) -> Vec<Vec<String>> {
        if self.engine.live_count() == 0 {
            return Vec::new();
        }
        // A real top-m peek: the engine walks its queue (recomputing the
        // stale priorities it meets) without changing it — the next
        // `next_query` sees an untouched pool, so hints are forecasts, not
        // claims.
        self.engine
            .peek_top(m)
            .into_iter()
            .map(|qid| self.engine.render(qid))
            .collect()
    }

    fn observe(&mut self, _keywords: &[String], page: &SearchPage, _k: usize) -> Observation {
        // lint:allow(panic-freedom) CrawlSession only calls observe after next_query set `pending`
        let qid = self.pending.take().expect("observe must follow next_query");
        let outcome = self.engine.process(qid, &page.records);
        Observation::from_outcome(outcome, &page.records)
    }

    fn on_failure(&mut self, _keywords: &[String]) {
        // The query never got a page; give it back to the pool so a later
        // (possibly luckier) attempt can still spend it.
        if let Some(qid) = self.pending.take() {
            self.engine.requeue(qid);
        }
    }

    fn selection_stats(&self) -> SelectionStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::observe::{CountingObserver, NullObserver, TraceLog};
    use smartcrawl_hidden::{
        FlakyInterface, HiddenDb, HiddenDbBuilder, HiddenRecord, Metered,
    };
    use smartcrawl_text::Record;

    fn tiny_db() -> HiddenDb {
        HiddenDbBuilder::new()
            .k(2)
            .records([
                HiddenRecord::new(0, Record::from(["thai house"]), vec!["p0".into()], 1.0),
                HiddenRecord::new(1, Record::from(["steak house"]), vec!["p1".into()], 2.0),
            ])
            .build()
    }

    /// A source that issues the same single-keyword query forever.
    struct RepeatSource {
        word: String,
        observed: usize,
        failed: usize,
        /// `next_queries` calls: speculation is the only caller.
        forecasts: usize,
    }

    impl RepeatSource {
        fn new(word: &str) -> Self {
            Self { word: word.into(), observed: 0, failed: 0, forecasts: 0 }
        }
    }

    impl QuerySource for RepeatSource {
        fn next_query(&mut self, _issued: usize) -> Option<Vec<String>> {
            Some(vec![self.word.clone()])
        }

        fn next_queries(&mut self, _issued: usize, m: usize) -> Vec<Vec<String>> {
            self.forecasts += 1;
            vec![vec![self.word.clone()]; m.min(1)]
        }

        fn observe(&mut self, _k: &[String], _p: &SearchPage, _kk: usize) -> Observation {
            self.observed += 1;
            Observation::default()
        }

        fn on_failure(&mut self, _keywords: &[String]) {
            self.failed += 1;
        }
    }

    #[test]
    fn session_respects_its_own_budget() {
        let db = tiny_db();
        let mut iface = Metered::new(&db, None);
        let mut source = RepeatSource::new("house");
        let report =
            CrawlSession::new(4).run(&mut source, &mut iface, &mut NullObserver);
        assert_eq!(report.queries_issued(), 4);
        assert_eq!(iface.queries_issued(), 4);
        assert_eq!(source.observed, 4);
        assert_eq!(report.events.queries_issued, 4);
        assert_eq!(report.events.pages_received, 4);
        assert_eq!(report.events.budget_exhausted, 1);
    }

    #[test]
    fn session_stops_on_interface_budget() {
        let db = tiny_db();
        let mut iface = Metered::new(&db, Some(2));
        let mut source = RepeatSource::new("house");
        let mut counting = CountingObserver::default();
        let report = CrawlSession::new(10).run(&mut source, &mut iface, &mut counting);
        assert_eq!(report.queries_issued(), 2);
        assert_eq!(counting.counts.budget_exhausted, 1);
        assert_eq!(counting.counts, report.events);
    }

    #[test]
    fn retries_survive_transient_failures() {
        let db = tiny_db();
        // 50% failure rate, generous retries: every query eventually lands
        // until the attempt budget runs out.
        let mut iface = FlakyInterface::new(Metered::new(&db, None), 0.5, 42);
        let mut source = RepeatSource::new("house");
        let session = CrawlSession::new(30)
            .with_retry(smartcrawl_hidden::RetryPolicy::standard());
        let report = session.run(&mut source, &mut iface, &mut NullObserver);
        assert!(report.events.retries > 0, "seeded 50% flakiness must retry");
        // Attempts (served + failed) are capped by the session budget.
        assert!(report.queries_issued() + iface.failures_injected() <= 30 + 3);
        // Served queries agree between report and the wrapped meter.
        assert_eq!(report.queries_issued(), iface.queries_issued());
        assert!(report.timing.backoff_ticks > 0);
    }

    #[test]
    fn retry_exhaustion_drops_the_query_and_continues() {
        let db = tiny_db();
        // Always fails: with no retries every attempt is dropped and
        // charged to the budget; nothing is ever served.
        let mut iface = FlakyInterface::new(Metered::new(&db, None), 1.0, 7);
        let mut source = RepeatSource::new("house");
        let report =
            CrawlSession::new(5).run(&mut source, &mut iface, &mut NullObserver);
        assert_eq!(report.queries_issued(), 0);
        assert_eq!(source.failed, 5, "each dropped query notifies the source");
        assert_eq!(report.events.budget_exhausted, 1);
        assert_eq!(iface.queries_issued(), 0);
    }

    #[test]
    fn cache_in_the_stack_is_reported_and_stays_transparent() {
        use smartcrawl_cache::{CachedInterface, QueryCache};
        let db = tiny_db();
        let mut cache = QueryCache::default();

        let mut source = RepeatSource::new("house");
        let mut iface = CachedInterface::new(&mut cache, Metered::new(&db, None));
        let report = CrawlSession::new(4).run(&mut source, &mut iface, &mut NullObserver);
        assert_eq!(report.queries_issued(), 4, "caching must not change the run");
        assert_eq!(iface.queries_issued(), 1, "only the first query reached the meter");
        let stats = report.cache.expect("a cache is in the stack");
        assert_eq!((stats.hits, stats.misses), (3, 1));
        assert_eq!(report.events.cache_hits, 3);
        assert_eq!(report.events.cache_misses, 1);
        drop(iface);

        // A second session over the same (now warm) store reports its own
        // delta: all hits, no misses, nothing served by the fresh meter.
        let mut source = RepeatSource::new("house");
        let mut iface = CachedInterface::new(&mut cache, Metered::new(&db, None));
        let report = CrawlSession::new(4).run(&mut source, &mut iface, &mut NullObserver);
        assert_eq!(report.queries_issued(), 4);
        assert_eq!(iface.queries_issued(), 0, "warm cache: zero inner queries");
        let stats = report.cache.expect("a cache is in the stack");
        assert_eq!((stats.hits, stats.misses), (4, 0));
    }

    #[test]
    fn no_cache_means_no_cache_section_or_events() {
        let db = tiny_db();
        let mut iface = Metered::new(&db, None);
        let mut source = RepeatSource::new("house");
        let report = CrawlSession::new(3).run(&mut source, &mut iface, &mut NullObserver);
        assert_eq!(report.cache, None);
        assert_eq!(report.events.cache_hits, 0);
        assert_eq!(report.events.cache_misses, 0);
    }

    #[test]
    fn pipelined_run_matches_sequential_and_reports_speculation() {
        let db = tiny_db();
        let run = |depth: usize| {
            smartcrawl_par::with_pipeline_depth(depth, || {
                let mut iface = Metered::new(&db, None);
                let mut source = RepeatSource::new("house");
                let report = CrawlSession::new(6).run(&mut source, &mut iface, &mut NullObserver);
                (report, source.forecasts)
            })
        };
        let (sequential, forecasts) = run(1);
        assert!(sequential.pipeline.is_none(), "depth 1 is the sequential driver");
        assert_eq!(forecasts, 0, "depth 1 never asks the source for a forecast");
        for depth in [2, 4, 8] {
            let (piped, forecasts) = run(depth);
            assert!(forecasts > 0, "depth {depth} speculates");
            let steps = |r: &CrawlReport| {
                r.steps
                    .iter()
                    .map(|s| (s.keywords.clone(), s.returned.clone(), s.full_page))
                    .collect::<Vec<_>>()
            };
            assert_eq!(steps(&sequential), steps(&piped), "depth {depth}");
            assert_eq!(sequential.events, piped.events, "depth {depth}");
            let p = piped.pipeline.expect("pipelined run reports speculation");
            assert_eq!(p.depth, depth);
            assert!(p.prefetches > 0, "depth {depth} prefetches");
            assert!(p.prefetch_hits > 0, "the repeating hint must land");
            assert_eq!(p.mispredicts, 0, "the forecast never changes");
        }
    }

    #[test]
    fn pipelined_run_without_a_prefetch_handle_stays_sequential() {
        // AlwaysTransient (no prefetch_handle override) severs the tunnel:
        // the session must fall back to the sequential driver.
        struct Opaque<I>(I);
        impl<I: SearchInterface> SearchInterface for Opaque<I> {
            fn k(&self) -> usize {
                self.0.k()
            }
            fn search(&mut self, keywords: &[String]) -> Result<SearchPage, SearchError> {
                self.0.search(keywords)
            }
            fn queries_issued(&self) -> usize {
                self.0.queries_issued()
            }
        }
        let db = tiny_db();
        let mut source = RepeatSource::new("house");
        let report = smartcrawl_par::with_pipeline_depth(4, || {
            let mut iface = Opaque(Metered::new(&db, None));
            CrawlSession::new(4).run(&mut source, &mut iface, &mut NullObserver)
        });
        assert_eq!(report.queries_issued(), 4);
        assert!(report.pipeline.is_none(), "no handle, no pipelined driver");
        assert_eq!(source.forecasts, 0, "no handle, no forecasts");
    }

    #[test]
    fn event_stamps_are_monotonic() {
        let db = tiny_db();
        let mut iface = Metered::new(&db, None);
        let mut source = RepeatSource::new("house");
        let mut trace = TraceLog::new(64);
        CrawlSession::new(3).run(&mut source, &mut iface, &mut trace);
        let events = trace.events();
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].0.seq < w[1].0.seq);
            assert!(w[0].0.nanos <= w[1].0.nanos);
        }
    }

    #[test]
    fn exhausted_source_ends_the_session_without_budget_event() {
        struct EmptySource;
        impl QuerySource for EmptySource {
            fn next_query(&mut self, _issued: usize) -> Option<Vec<String>> {
                None
            }
            fn observe(&mut self, _k: &[String], _p: &SearchPage, _kk: usize) -> Observation {
                unreachable!("no query was ever issued")
            }
        }
        let db = tiny_db();
        let mut iface = Metered::new(&db, None);
        let report =
            CrawlSession::new(10).run(&mut EmptySource, &mut iface, &mut NullObserver);
        assert_eq!(report.queries_issued(), 0);
        assert_eq!(report.events.budget_exhausted, 0);
    }
}
