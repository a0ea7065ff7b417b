//! The shared selection engine: benefit maintenance + removal bookkeeping
//! (paper §6.3 / Algorithm 4, generalized over all QSel-* strategies).
//!
//! State layout follows Figure 3: an inverted index on `D` (inside
//! [`LocalDb`]), a forward index record → queries, and a lazily-updated
//! priority queue. Removing a covered record touches only the queries in
//! its forward list (their frequencies decrement and their queue entries
//! are marked stale); priorities are recomputed on demand when a stale
//! query surfaces at the top.

use crate::context::TextContext;
use crate::estimate::{Estimator, QueryType};
use crate::local::LocalDb;
use crate::pool::QueryPool;
use crate::sample::SampleIndex;
use crate::select::{DeltaRemoval, PageMatcher, Strategy};
use smartcrawl_hidden::{HiddenDb, Retrieved};
use smartcrawl_index::{LazyQueue, QueryId, RemovalScratch};
use smartcrawl_match::Matcher;
use smartcrawl_par::{par_map, par_map_indexed};
use smartcrawl_store::AnyForward;
use smartcrawl_text::RecordId;
use std::time::Instant;

/// Work counters for one crawl's selection machinery (paper Appendix B:
/// the efficient implementation's cost is dominated by on-demand priority
/// recomputations and forward-index touches, both far below the naive
/// rescan's `|Q|` work per iteration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Queries popped as selected (≤ budget, plus zero-benefit skips).
    pub pops: usize,
    /// Priority recomputations triggered by stale queue entries — the
    /// paper's `t` in the `O(b·t·log|Q|)` selection bound.
    pub stale_recomputes: usize,
    /// Forward-index touches (query-frequency decrements) from record
    /// removals — `Σ|F(d)|` over removed records.
    pub forward_touches: usize,
    /// QSel-Ideal only: oracle cover-set evaluations.
    pub oracle_evals: usize,
    /// Queue invalidations absorbed by the generation stamps: the entry
    /// was already marked stale, so the extra mark cost nothing.
    pub stamp_skips: u64,
    /// Coalesced incremental state updates applied in place of full
    /// recomputation: per-query `|q(D)|` / matched-count deltas (one per
    /// touched query per removal batch) and QSel-Ideal live-cover
    /// decrements. The ratio of this to `stale_recomputes` is how much
    /// bookkeeping the delta path absorbed before any priority had to be
    /// recomputed.
    pub incremental_updates: usize,
    /// Wall time spent matching result pages against `D` (tokenization +
    /// match-index probes), in nanoseconds. Profile only — never read back
    /// into any selection decision.
    pub page_match_ns: u64,
    /// Wall time spent applying removals through the forward index, in
    /// nanoseconds. Profile only, like `page_match_ns`.
    pub removal_ns: u64,
}

/// What happened when a query's page was absorbed.
#[derive(Debug, Default)]
pub(crate) struct ProcessOutcome {
    /// `(local record, page position)` pairs newly matched by this page —
    /// the enrichment assignments.
    pub newly_covered: Vec<(usize, usize)>,
    /// Local records removed from `D` (covered and/or ΔD-predicted).
    pub removed: usize,
}

/// The selection engine driving one crawl.
pub(crate) struct Engine<'a> {
    local: &'a LocalDb,
    /// Page matching: the match index, its per-record memo and the
    /// covered flags (records ever covered, for enrichment dedup; a
    /// record can be removed without being covered).
    matches: PageMatcher<'a>,
    pool: QueryPool,
    forward: AnyForward,
    queue: LazyQueue,
    /// Records still in `D` (not covered, not ΔD-removed).
    live: Vec<bool>,
    live_count: usize,
    /// Scratch bitset for page absorption: which records the *current*
    /// page has already covered. Replaces an `O(|page|·matches)` linear
    /// scan of `covered_now`; bits are cleared sparsely after each page so
    /// the allocation is reused across the whole crawl.
    page_seen: Vec<bool>,
    /// Current `|q(D)|` per query.
    freq: Vec<u32>,
    /// Fixed `|q(Hs)|` per query.
    freq_hs: Vec<u32>,
    /// Current `|q(D) ∩̃ q(Hs)|` per query (live records with a sample
    /// match).
    matched_cnt: Vec<u32>,
    /// Per local record: matches something in the sample.
    sample_match: Vec<bool>,
    estimator: Option<Estimator>,
    strategy: Strategy,
    k: usize,
    /// QSel-Ideal: covered local ids per query, computed once on demand.
    cover_cache: Vec<Option<Vec<u32>>>,
    /// QSel-Ideal: number of *live* members of each cached cover set,
    /// maintained incrementally under removals via `cover_queries`. Always
    /// equals recounting `cover_cache[q]` against `live`, so the O(1) read
    /// in `priority` is trace-identical to the recount it replaces.
    live_cover: Vec<u32>,
    /// QSel-Ideal inverse of the cover cache: local record → queries whose
    /// cached cover contains it. Only members live at cache-fill time are
    /// registered — dead records can never be removed again, so they never
    /// need a decrement.
    cover_queries: Vec<Vec<u32>>,
    /// Reusable buffers for batched forward-index removal.
    removal_scratch: RemovalScratch,
    /// Reusable newly-dead-record buffer for [`Engine::remove_records`]:
    /// one allocation for the whole crawl instead of one per absorbed
    /// page (the removal path runs once per issued query).
    removal_rids: Vec<RecordId>,
    /// QSel-Ideal's free evaluation access.
    oracle: Option<&'a HiddenDb>,
    /// Work counters (Appendix B instrumentation).
    pub(crate) stats: SelectionStats,
    /// Shared tokenization state (pages are tokenized into it).
    pub(crate) ctx: TextContext,
}

impl<'a> Engine<'a> {
    /// Assembles the engine. `sample` may be [`SampleIndex::empty`] for
    /// strategies that do not use one; `oracle` is required for
    /// [`Strategy::Ideal`] and ignored otherwise.
    #[allow(clippy::too_many_arguments)] // assembled once, by the two crawl entry points
    pub(crate) fn new(
        local: &'a LocalDb,
        sample: &SampleIndex,
        pool: QueryPool,
        strategy: Strategy,
        matcher: Matcher,
        k: usize,
        omega: f64,
        oracle: Option<&'a HiddenDb>,
        ctx: TextContext,
    ) -> Self {
        let n_queries = pool.len();
        let freq = pool.frequencies();
        // Per-query sample statistics are independent lookups — the setup
        // hot path on fig5-scale local databases.
        let freq_hs: Vec<u32> = par_map(pool.queries(), |q| sample.frequency(q.tokens()) as u32);
        let matches = PageMatcher::new(local, matcher);
        let sample_match = matches.sample_matches(sample);
        let matched_cnt: Vec<u32> = par_map_indexed(pool.queries(), |i, _| {
            let m = pool.matches(QueryId(i as u32));
            m.iter().filter(|rid| sample_match[rid.index()]).count() as u32
        });
        // Same backend as the inverted index: a disk-backed run keeps the
        // forward rows on disk too. A build failure at this point means
        // the store directory vanished between index and engine setup.
        let forward = match local.build_forward(n_queries, |q| pool.matches(q)) {
            Ok(f) => f,
            // lint:allow(panic-freedom) setup-time store failure is fatal by design
            Err(e) => panic!("forward index build failed: {e}"),
        };
        let estimator = match strategy {
            Strategy::Est { kind, .. } => Some(
                Estimator::new(kind, k, sample.theta(), local.len(), sample.len())
                    .with_omega(omega),
            ),
            _ => None,
        };

        // Initial priorities. For Ideal we seed with the upper bound
        // min(|q(D)|, k) and mark everything dirty: the lazy queue then
        // evaluates true benefits only for queries that ever look
        // promising (classic lazy-greedy).
        let initial: Vec<f64> = par_map_indexed(&freq, |i, &f| match strategy {
            Strategy::Ideal => (f as usize).min(k) as f64,
            Strategy::Simple | Strategy::Bound => f as f64,
            Strategy::Est { .. } => estimator.expect("estimator exists for Est").benefit(
                f as usize,
                freq_hs[i] as usize,
                matched_cnt[i] as usize,
            ),
        });
        let mut queue = LazyQueue::new(&initial);
        if matches!(strategy, Strategy::Ideal) {
            assert!(oracle.is_some(), "QSel-Ideal requires oracle access");
            for i in 0..n_queries {
                queue.mark_dirty(QueryId(i as u32));
            }
        }

        let n_local = local.len();
        Self {
            local,
            matches,
            pool,
            forward,
            queue,
            live: vec![true; n_local],
            live_count: n_local,
            page_seen: vec![false; n_local],
            freq,
            freq_hs,
            matched_cnt,
            sample_match,
            estimator,
            strategy,
            k,
            cover_cache: vec![None; n_queries],
            live_cover: vec![0; n_queries],
            cover_queries: vec![Vec::new(); n_local],
            removal_scratch: RemovalScratch::default(),
            removal_rids: Vec::new(),
            oracle,
            stats: SelectionStats::default(),
            ctx,
        }
    }

    /// Records still live in `D`.
    pub(crate) fn live_count(&self) -> usize {
        self.live_count
    }

    /// Renders the keywords of a pool query.
    pub(crate) fn render(&self, qid: QueryId) -> Vec<String> {
        self.pool.render(qid, &self.ctx)
    }

    /// Pops the next query to issue (with its current priority), or `None`
    /// when the pool is exhausted. Zero-benefit entries are skipped
    /// (without consuming budget) for strategies whose zero means
    /// provably-useless.
    pub(crate) fn select_next(&mut self) -> Option<(QueryId, f64)> {
        loop {
            // Take the queue out of `self` so the recompute closure can
            // borrow the rest of the engine mutably (oracle evaluation
            // tokenizes pages into `ctx`).
            let mut queue = std::mem::take(&mut self.queue);
            let popped = queue.pop_max(|q| {
                self.stats.stale_recomputes += 1;
                self.priority(q)
            });
            self.queue = queue;
            let (qid, prio) = popped?;
            self.stats.pops += 1;
            if prio <= 0.0 && !self.strategy.issues_zero_benefit() {
                continue; // provably useless; do not spend budget
            }
            return Some((qid, prio));
        }
    }

    /// Peeks the next up-to-`m` queries [`Engine::select_next`] would
    /// issue, best first, without consuming them — the batch-selection
    /// hook behind [`QuerySource::next_queries`].
    ///
    /// [`LazyQueue::peek`] walks the queue without changing it, so the
    /// authoritative queue's stored priorities and staleness stamps stay
    /// byte-identical to a peek-free run. That matters: the obvious
    /// cheaper scheme — pop from the real queue and push everything back
    /// at its recomputed priority — is unsound for QSel-Est. A benefit can
    /// *rise* when a matched record is removed (`matched_cnt` drops while
    /// `freq` holds), and with rising priorities the pop order depends on
    /// *when* dirty entries are refreshed, because a dirty entry surfaces
    /// for recompute exactly when its stale stored priority is the heap
    /// maximum. Refreshing at peek time would store the lower current
    /// value, delay the entry's next surfacing, and reorder later pops
    /// relative to a peek-free run. The walk recomputes the dirty entries
    /// it meets, in `pop_max`'s order, and stores nothing. Those
    /// recomputes are not counted in `stale_recomputes`, so the selection
    /// counters match a peek-free run's; the peek's price is in the
    /// session's `speculation_ns`.
    pub(crate) fn peek_top(&mut self, m: usize) -> Vec<QueryId> {
        // Taken out for the same reason as in `select_next`.
        let queue = std::mem::take(&mut self.queue);
        let zero_ok = self.strategy.issues_zero_benefit();
        // A zero-benefit entry that select_next would skip is not a hint.
        let hints = queue.peek(m, |q| self.priority(q), |_, prio| prio > 0.0 || zero_ok);
        self.queue = queue;
        hints.into_iter().map(|(qid, _)| qid).collect()
    }

    /// Returns a popped query to the pool at its current priority — used
    /// when the query could not be served (e.g. dropped after exhausting
    /// its retries) so a later selection can still try it.
    pub(crate) fn requeue(&mut self, qid: QueryId) {
        let prio = self.priority(qid);
        self.queue.push(qid, prio);
    }

    /// Current priority of a query under the engine's strategy.
    fn priority(&mut self, qid: QueryId) -> f64 {
        let i = qid.index();
        match self.strategy {
            Strategy::Simple | Strategy::Bound => self.freq[i] as f64,
            Strategy::Est { .. } => self.estimator.expect("estimator").benefit(
                self.freq[i] as usize,
                self.freq_hs[i] as usize,
                self.matched_cnt[i] as usize,
            ),
            Strategy::Ideal => {
                if self.cover_cache[i].is_none() {
                    let cover = self.compute_cover(qid);
                    // Register live members in the inverse index and seed
                    // the incremental live count; from here on removals
                    // keep it current and this branch is an O(1) read.
                    let mut live_members = 0u32;
                    for &d in &cover {
                        if self.live[d as usize] {
                            live_members += 1;
                            self.cover_queries[d as usize].push(qid.0);
                        }
                    }
                    self.live_cover[i] = live_members;
                    self.cover_cache[i] = Some(cover);
                }
                f64::from(self.live_cover[i])
            }
        }
    }

    /// Oracle evaluation for QSel-Ideal: issue the query for free against
    /// the hidden database and record which local records its page covers.
    fn compute_cover(&mut self, qid: QueryId) -> Vec<u32> {
        self.stats.oracle_evals += 1;
        let oracle = self.oracle.expect("ideal strategy has an oracle");
        let keywords = self.pool.render(qid, &self.ctx);
        // lint:allow(budget-safety) QSel-Ideal's oracle evaluates queries for free by definition (§5.2); budgeted issuance happens later in the crawl session
        let page = oracle.search(&keywords);
        let mut covered: Vec<u32> = Vec::new();
        for r in &page {
            // The oracle cover is over all of `D` (no liveness filter), so
            // the memoized matches are usable as-is.
            covered.extend_from_slice(self.matches.probe(r, &mut self.ctx).1);
        }
        covered.sort_unstable();
        covered.dedup();
        covered
    }

    /// Matches a page against the live local records. `page_seen` dedups
    /// within the page in O(1) per match and is left set for the covered
    /// records — callers reset it sparsely via the returned `covered_now`
    /// once the removal policy no longer needs it.
    ///
    /// Returns `(newly_covered, covered_now, page_dense)` where
    /// `page_dense[i]` is the dense arena id of `page[i]`.
    #[allow(clippy::type_complexity)] // the three parallel outputs of one page absorption
    fn match_page(&mut self, page: &[Retrieved]) -> (Vec<(usize, usize)>, Vec<usize>, Vec<u32>) {
        let mut covered_now: Vec<usize> = Vec::new();
        let Self {
            matches,
            ctx,
            live,
            page_seen,
            ..
        } = &mut *self;
        let (newly_covered, page_dense) = matches.absorb(page, ctx, |d| {
            let take = live[d] && !page_seen[d];
            if take {
                page_seen[d] = true;
                covered_now.push(d);
            }
            take
        });
        (newly_covered, covered_now, page_dense)
    }

    /// Absorbs the result page of issued query `qid`: computes the covered
    /// records, applies the strategy's removal policy, and refreshes the
    /// benefit bookkeeping.
    pub(crate) fn process(&mut self, qid: QueryId, page: &[Retrieved]) -> ProcessOutcome {
        // 1. Match the page against the live local records.
        let (newly_covered, covered_now, page_dense) = self.match_page(page);

        // 2. Removal policy.
        let mut to_remove: Vec<usize> = covered_now.clone();
        let mut requeue = false;
        match self.strategy {
            Strategy::Simple | Strategy::Ideal => {}
            Strategy::Est { delta_removal, .. } => {
                if self.is_solid(qid, page.len(), &page_dense, delta_removal) {
                    // §4.2: everything in q(D) that was not covered cannot
                    // be in H — predicted ΔD, remove it too.
                    to_remove.extend(
                        self.pool
                            .matches(qid)
                            .iter()
                            .map(|rid| rid.index())
                            .filter(|&d| self.live[d]),
                    );
                }
            }
            Strategy::Bound => {
                // Algorithm 3: q(ΔD) = live q(D) not covered by the page
                // (`page_seen` holds exactly the covered set right now).
                let q_delta: Vec<usize> = self
                    .pool
                    .matches(qid)
                    .iter()
                    .map(|rid| rid.index())
                    .filter(|&d| self.live[d] && !self.page_seen[d])
                    .collect();
                if q_delta.is_empty() {
                    // Situation (1): trustably beneficial — covered leave D.
                } else {
                    // Situation (2): remove only q(ΔD); the covered records
                    // stay in D and the query returns to the pool.
                    to_remove = q_delta;
                    requeue = true;
                }
            }
        }
        to_remove.sort_unstable();
        to_remove.dedup();
        // Sparse reset: only the bits this page set.
        for &d in &covered_now {
            self.page_seen[d] = false;
        }

        // 3. Apply removals through the forward index (Fig. 3(b)/(c)).
        let t_remove = Instant::now();
        let removed = self.remove_records(&to_remove);
        self.stats.removal_ns += t_remove.elapsed().as_nanos() as u64;

        if requeue {
            let prio = self.freq[qid.index()] as f64;
            self.queue.push(qid, prio);
        }

        ProcessOutcome {
            newly_covered,
            removed,
        }
    }

    /// Replaces the engine's hidden-database sample mid-crawl (runtime
    /// sampling, paper §9 future work): recomputes `|q(Hs)|`, the matched
    /// intersections, the estimator, and rebuilds every live priority
    /// (priorities can *rise* with a better sample, which the lazy dirty
    /// mechanism alone cannot express).
    ///
    /// Only meaningful for [`Strategy::Est`]; a no-op otherwise.
    pub(crate) fn refresh_sample(&mut self, sample: &SampleIndex) {
        let Some(old) = self.estimator else { return };
        self.freq_hs = par_map(self.pool.queries(), |q| sample.frequency(q.tokens()) as u32);
        self.sample_match = self.matches.sample_matches(sample);
        let (live, sample_match, pool) = (&self.live, &self.sample_match, &self.pool);
        self.matched_cnt = par_map_indexed(pool.queries(), |i, _| {
            pool.matches(QueryId(i as u32))
                .iter()
                .filter(|rid| live[rid.index()] && sample_match[rid.index()])
                .count() as u32
        });
        let estimator = Estimator::new(
            old.kind(),
            self.k,
            sample.theta(),
            self.local.len(),
            sample.len(),
        )
        .with_omega(old.omega());
        self.estimator = Some(estimator);
        let (freq, freq_hs, matched) = (&self.freq, &self.freq_hs, &self.matched_cnt);
        self.queue.reprioritize(|q| {
            let i = q.index();
            estimator.benefit(freq[i] as usize, freq_hs[i] as usize, matched[i] as usize)
        });
    }

    /// Absorbs a page obtained outside the selection loop (e.g. a sampling
    /// round's result): covered records are matched and removed, but no
    /// query-pool entry is consumed and no ΔD prediction is applied.
    pub(crate) fn process_external(&mut self, page: &[Retrieved]) -> ProcessOutcome {
        let (newly_covered, covered_now, _page_dense) = self.match_page(page);
        for &d in &covered_now {
            self.page_seen[d] = false;
        }
        let t_remove = Instant::now();
        let removed = self.remove_records(&covered_now);
        self.stats.removal_ns += t_remove.elapsed().as_nanos() as u64;
        ProcessOutcome {
            newly_covered,
            removed,
        }
    }

    /// Removes records from `D`, updating frequencies, matched counts, and
    /// queue staleness through the batched forward-index walk — the single
    /// removal path shared by every strategy's ΔD policy. A query matched
    /// by several records of the batch gets *one* coalesced frequency
    /// delta and one queue invalidation. Returns how many records were
    /// actually removed (already-dead records are skipped).
    fn remove_records(&mut self, records: &[usize]) -> usize {
        if records.is_empty() {
            return 0; // most pages remove nothing; skip the batch walk
        }
        let Self {
            live,
            live_count,
            cover_queries,
            live_cover,
            forward,
            queue,
            freq,
            matched_cnt,
            sample_match,
            stats,
            removal_scratch,
            removal_rids,
            ..
        } = &mut *self;
        let mut removed = 0usize;
        let rids = removal_rids;
        rids.clear();
        for &d in records {
            if !live[d] {
                continue;
            }
            live[d] = false;
            *live_count -= 1;
            removed += 1;
            rids.push(RecordId(d as u32));
            // QSel-Ideal: every cached cover containing `d` loses a live
            // member — an O(1) decrement instead of a recount at the next
            // priority read.
            for &q in &cover_queries[d] {
                live_cover[q as usize] -= 1;
                stats.incremental_updates += 1;
            }
        }
        stats.forward_touches += smartcrawl_index::remove_records_batch(
            forward,
            rids,
            |rid| sample_match[rid.index()],
            removal_scratch,
            |q, count, weighted| {
                let i = q.index();
                freq[i] = freq[i].saturating_sub(count);
                matched_cnt[i] = matched_cnt[i].saturating_sub(weighted);
                queue.mark_dirty(q);
                stats.incremental_updates += 1;
            },
        );
        removed
    }

    /// The engine's work counters, with the queue's internal stamp-skip
    /// counter and the page matcher's time merged in.
    pub(crate) fn stats(&self) -> SelectionStats {
        let mut s = self.stats;
        s.stamp_skips = self.queue.stamp_skips();
        s.page_match_ns = self.matches.stats().page_match_ns;
        s
    }

    /// Whether the issued query counts as solid for ΔD removal.
    ///
    /// Observed solidity has two sound witnesses:
    /// * the page is shorter than `k` — nothing was cut off;
    /// * the page is full but contains a record *not* satisfying the
    ///   query. Interfaces that return partial matches (Yelp-like
    ///   disjunctive search) rank full matches on top, so a partial match
    ///   on the page proves every full match was returned (§2: "they tend
    ///   to rank the records that contain all the query keywords to the
    ///   top").
    fn is_solid(
        &self,
        qid: QueryId,
        page_len: usize,
        page_dense: &[u32],
        policy: DeltaRemoval,
    ) -> bool {
        match policy {
            DeltaRemoval::Observed => {
                page_len < self.k || {
                    let qtokens = self.pool.query(qid).tokens();
                    page_dense
                        .iter()
                        .any(|&d| !self.ctx.dense_doc(d).contains_all(qtokens))
                }
            }
            DeltaRemoval::Predicted => {
                let i = qid.index();
                self.estimator
                    .expect("Est strategy has an estimator")
                    .predict_type(self.freq[i] as usize, self.freq_hs[i] as usize)
                    == QueryType::Solid
            }
        }
    }
}

/// A fingerprint of a fully-assembled selection engine's initial state.
///
/// Built by [`probe_engine_setup`] so out-of-crate callers (the perf
/// benchmark, the determinism property tests) can both *time* engine
/// assembly and *assert* that two assemblies — e.g. at different
/// `SMARTCRAWL_THREADS` — produced identical selection state, without the
/// engine itself becoming public API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetupProbe {
    /// Pool size `|Q|`.
    pub pool_len: usize,
    /// Pool-generation provenance counters.
    pub pool_stats: crate::pool::PoolStats,
    /// FNV-1a digest over the engine's initial selection state: every pool
    /// query's tokens, its `q(D)` match set, and the `freq` / `freq_hs` /
    /// `matched_cnt` / `sample_match` vectors.
    pub digest: u64,
}

/// Assembles a selection engine exactly as the crawlers do and returns a
/// [`SetupProbe`] of its initial state (see there). Supports every
/// strategy except [`Strategy::Ideal`], which needs oracle access.
#[allow(clippy::too_many_arguments)] // mirrors Engine::new, assembled once per probe
pub fn probe_engine_setup(
    local: &LocalDb,
    sample: &SampleIndex,
    pool: QueryPool,
    strategy: Strategy,
    matcher: Matcher,
    k: usize,
    omega: f64,
    ctx: TextContext,
) -> SetupProbe {
    assert!(
        !matches!(strategy, Strategy::Ideal),
        "probe_engine_setup does not support QSel-Ideal (it requires an oracle)"
    );
    let pool_stats = pool.stats();
    let e = Engine::new(local, sample, pool, strategy, matcher, k, omega, None, ctx);

    // FNV-1a over little-endian words: not cryptographic, just a stable
    // order-sensitive fold so any divergence in the state vectors flips it.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for q in e.pool.queries() {
        fold(q.tokens().len() as u64);
        for &t in q.tokens() {
            fold(u64::from(t.0));
        }
    }
    for i in 0..e.pool.len() {
        let m = e.pool.matches(QueryId(i as u32));
        fold(m.len() as u64);
        for &rid in m {
            fold(u64::from(rid.0));
        }
    }
    for &f in &e.freq {
        fold(u64::from(f));
    }
    for &f in &e.freq_hs {
        fold(u64::from(f));
    }
    for &c in &e.matched_cnt {
        fold(u64::from(c));
    }
    for &b in &e.sample_match {
        fold(u64::from(b));
    }
    SetupProbe {
        pool_len: e.pool.len(),
        pool_stats,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use smartcrawl_hidden::{HiddenDbBuilder, HiddenRecord};
    use smartcrawl_text::Record;

    fn fixture() -> (TextContext, LocalDb, HiddenDb) {
        let mut ctx = TextContext::new();
        let local = LocalDb::build(
            vec![
                Record::from(["thai noodle house"]),
                Record::from(["jade noodle house"]),
                Record::from(["thai house"]),
                Record::from(["missing only record"]), // ΔD
            ],
            &mut ctx,
        );
        let hidden = HiddenDbBuilder::new()
            .k(2)
            .records([
                HiddenRecord::new(0, Record::from(["thai noodle house"]), vec![], 5.0),
                HiddenRecord::new(1, Record::from(["jade noodle house"]), vec![], 4.0),
                HiddenRecord::new(2, Record::from(["thai house"]), vec![], 3.0),
                HiddenRecord::new(3, Record::from(["steak house"]), vec![], 2.0),
                HiddenRecord::new(4, Record::from(["noodle bar"]), vec![], 1.0),
            ])
            .build();
        (ctx, local, hidden)
    }

    fn engine<'a>(
        local: &'a LocalDb,
        hidden: Option<&'a HiddenDb>,
        strategy: Strategy,
        ctx: TextContext,
    ) -> Engine<'a> {
        let pool = QueryPool::generate(
            local,
            &PoolConfig {
                min_support: 2,
                max_len: 2,
                seed: 7,
            },
        );
        Engine::new(
            local,
            &SampleIndex::empty(),
            pool,
            strategy,
            Matcher::Exact,
            2,
            1.0,
            hidden,
            ctx,
        )
    }

    #[test]
    fn simple_selects_highest_frequency_first() {
        let (ctx, local, _) = fixture();
        let mut e = engine(&local, None, Strategy::Simple, ctx);
        let (qid, prio) = e.select_next().expect("pool non-empty");
        // "house" has |q(D)| = 3, the maximum.
        let mut kw = e.render(qid);
        kw.sort();
        assert_eq!(kw, vec!["house".to_owned()]);
        assert_eq!(prio, 3.0);
    }

    #[test]
    fn ideal_selects_by_true_benefit() {
        let (ctx, local, hidden) = fixture();
        let mut e = engine(&local, Some(&hidden), Strategy::Ideal, ctx);
        let (qid, prio) = e.select_next().expect("pool non-empty");
        // k = 2: "house" returns top-2 by signal = {thai noodle house,
        // jade noodle house} → covers 2. "noodle house" covers the same 2.
        // "noodle" → {thai noodle house, jade noodle house} covers 2.
        // No query covers 3, so the ideal pick has benefit 2.
        assert_eq!(prio, 2.0, "keywords {:?}", e.render(qid));
    }

    #[test]
    fn processing_updates_frequencies_and_liveness() {
        let (ctx, local, hidden) = fixture();
        let mut e = engine(&local, None, Strategy::Simple, ctx);
        let (qid, _) = e.select_next().unwrap(); // "house"
        let page = hidden.search(&e.render(qid));
        let out = e.process(qid, &page);
        // Page = top-2 of {h0, h1, h2, h3} by signal: h0, h1 → covers
        // locals 0 and 1.
        assert_eq!(out.newly_covered, vec![(0, 0), (1, 1)]);
        assert_eq!(e.live_count(), 2);
    }

    #[test]
    fn est_solid_query_triggers_delta_removal() {
        let (ctx, local, hidden) = fixture();
        let mut e = engine(&local, None, Strategy::est_biased(), ctx);
        // Issue the ΔD record's naive query: solid (page shorter than k)
        // and covering nothing → the record must be removed as ΔD.
        let qid = (0..e.pool.len())
            .map(|i| QueryId(i as u32))
            .find(|&q| {
                let mut kw = e.render(q);
                kw.sort();
                kw == ["missing", "record"] // "only" is a stop word
            })
            .expect("naive query for the ΔD record exists");
        let page = hidden.search(&e.render(qid)); // empty page
        assert!(page.is_empty());
        let before = e.live_count();
        let out = e.process(qid, &page);
        assert_eq!(out.newly_covered.len(), 0);
        assert_eq!(out.removed, 1);
        assert_eq!(e.live_count(), before - 1);
    }

    #[test]
    fn bound_requeues_on_mismatch() {
        let (ctx, local, hidden) = fixture();
        let mut e = engine(&local, None, Strategy::Bound, ctx);
        // "house": |q(D)| = 3 but k = 2 truncates the page, so local 2
        // ("thai house") looks like ΔD. Bound removes it and re-queues.
        let (qid, _) = e.select_next().unwrap();
        let page = hidden.search(&e.render(qid));
        let out = e.process(qid, &page);
        assert_eq!(out.newly_covered.len(), 2); // covered but NOT removed
        assert_eq!(out.removed, 1); // the apparent ΔD record
        assert!(e.queue.is_live(qid), "query must return to the pool");
        // Covered records stay live under Algorithm 3.
        assert_eq!(e.live_count(), 3);
    }

    #[test]
    fn process_external_covers_without_consuming_pool_queries() {
        let (ctx, local, hidden) = fixture();
        let mut e = engine(&local, None, Strategy::est_biased(), ctx);
        let pool_len_before = e.queue.len();
        let page = hidden.search(&["thai".into(), "noodle".into(), "house".into()]);
        let out = e.process_external(&page);
        assert_eq!(out.newly_covered, vec![(0, 0)]); // local 0 covered
        assert_eq!(out.removed, 1);
        assert_eq!(e.queue.len(), pool_len_before, "no pool query consumed");
        // Frequencies reflect the removal.
        let house_q = (0..e.pool.len())
            .map(|i| QueryId(i as u32))
            .find(|&q| e.render(q) == vec!["house".to_owned()])
            .expect("'house' is in the pool");
        assert_eq!(e.freq[house_q.index()], 2);
    }

    #[test]
    fn refresh_sample_updates_estimates_and_priorities() {
        let (mut ctx, local, _hidden) = fixture();
        // A sample containing local 0's exact text, θ = 0.5.
        let sample = smartcrawl_sampler::HiddenSample {
            records: vec![smartcrawl_hidden::Retrieved::new(
                smartcrawl_hidden::ExternalId(0),
                vec!["thai noodle house".into()],
                vec![],
            )],
            theta: 0.5,
        };
        let sample_index = crate::sample::SampleIndex::build(&sample, &mut ctx);
        let mut e = engine(&local, None, Strategy::est_biased(), ctx);
        // Initially (empty sample): every freq_hs is 0.
        assert!(e.freq_hs.iter().all(|&f| f == 0));
        e.refresh_sample(&sample_index);
        // "house" now appears once in the sample.
        let house_q = (0..e.pool.len())
            .map(|i| QueryId(i as u32))
            .find(|&q| e.render(q) == vec!["house".to_owned()])
            .expect("'house' is in the pool");
        assert_eq!(e.freq_hs[house_q.index()], 1);
        // matched_cnt: local 0 matches the sample record and satisfies
        // "house" → counted.
        assert!(e.matched_cnt[house_q.index()] >= 1);
        // Selection still works after the wholesale reprioritization.
        assert!(e.select_next().is_some());
    }

    #[test]
    fn refresh_sample_is_noop_for_non_est_strategies() {
        let (ctx, local, _hidden) = fixture();
        let mut e = engine(&local, None, Strategy::Simple, ctx);
        let before = e.freq_hs.clone();
        e.refresh_sample(&SampleIndex::empty());
        assert_eq!(e.freq_hs, before);
    }

    #[test]
    fn setup_probe_is_thread_count_invariant() {
        let probe_at = |threads: usize| {
            smartcrawl_par::with_threads(threads, || {
                let (ctx, local, _) = fixture();
                let pool = QueryPool::generate(
                    &local,
                    &PoolConfig {
                        min_support: 2,
                        max_len: 2,
                        seed: 7,
                    },
                );
                probe_engine_setup(
                    &local,
                    &SampleIndex::empty(),
                    pool,
                    Strategy::est_biased(),
                    Matcher::Exact,
                    2,
                    1.0,
                    ctx,
                )
            })
        };
        let one = probe_at(1);
        assert!(one.pool_len > 0);
        assert_eq!(one, probe_at(2));
        assert_eq!(one, probe_at(8));
    }

    #[test]
    #[should_panic(expected = "QSel-Ideal")]
    fn setup_probe_rejects_ideal() {
        let (ctx, local, _) = fixture();
        let pool = QueryPool::generate(&local, &PoolConfig::default());
        probe_engine_setup(
            &local,
            &SampleIndex::empty(),
            pool,
            Strategy::Ideal,
            Matcher::Exact,
            2,
            1.0,
            ctx,
        );
    }

    #[test]
    fn select_next_skips_zero_benefit_for_simple() {
        let (ctx, local, hidden) = fixture();
        let mut e = engine(&local, None, Strategy::Simple, ctx);
        // Cover everything coverable, then drain: once frequencies hit
        // zero the engine must return None rather than waste budget.
        let mut guard = 0;
        while let Some((qid, _)) = e.select_next() {
            guard += 1;
            assert!(guard < 50, "selection must terminate");
            let page = hidden.search(&e.render(qid));
            e.process(qid, &page);
        }
        // The ΔD record is never covered, so one record stays live, but
        // every remaining query has zero frequency only if its records
        // died; the pool is simply exhausted here.
        assert!(e.live_count() >= 1);
    }
}
