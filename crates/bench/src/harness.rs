//! Runs any of the paper's approaches over a scenario and evaluates the
//! ground-truth coverage curve (Appendix C "Implementation of Different
//! Approaches").

use crate::eval::{coverage_curve, Curve};
use smartcrawl_cache::{CachedInterface, QueryCache};
use smartcrawl_core::crawl::{
    full_crawl_with, ideal_crawl_with, naive_crawl_with, smart_crawl_with, CrawlObserver,
    CrawlReport, IdealCrawlConfig, NullObserver, SmartCrawlConfig,
};
use smartcrawl_core::{
    DeltaRemoval, IndexBackendConfig, LocalDb, PoolConfig, Strategy, TextContext,
};
use smartcrawl_data::Scenario;
use smartcrawl_hidden::{FlakyInterface, Metered, RetryPolicy, SearchInterface};
use smartcrawl_match::Matcher;
use smartcrawl_sampler::{bernoulli_sample, HiddenSample};

/// The crawling approaches compared throughout §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// IdealCrawl: QSel-Ideal with oracle benefits (upper bound).
    Ideal,
    /// SmartCrawl-B: QSel-Est with biased estimators.
    SmartB,
    /// SmartCrawl-U: QSel-Est with unbiased estimators.
    SmartU,
    /// SmartCrawl with QSel-Simple (no sample).
    Simple,
    /// SmartCrawl with QSel-Bound (no sample; no-top-k analysis).
    Bound,
    /// NaiveCrawl baseline.
    Naive,
    /// FullCrawl baseline (uses its own 1% sample, per Appendix C).
    Full,
}

impl Approach {
    /// Display label used in tables and CSV headers.
    pub fn label(&self) -> &'static str {
        match self {
            Approach::Ideal => "IdealCrawl",
            Approach::SmartB => "SmartCrawl-B",
            Approach::SmartU => "SmartCrawl-U",
            Approach::Simple => "QSel-Simple",
            Approach::Bound => "QSel-Bound",
            Approach::Naive => "NaiveCrawl",
            Approach::Full => "FullCrawl",
        }
    }
}

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Which approach to run.
    pub approach: Approach,
    /// Query budget `b`.
    pub budget: usize,
    /// Budgets at which to report coverage (ascending; last should equal
    /// `budget`).
    pub checkpoints: Vec<usize>,
    /// Sampling ratio θ for SmartCrawl's sample (ignored by others).
    pub theta: f64,
    /// Sampling ratio for FullCrawl's own sample (paper: 1%).
    pub full_theta: f64,
    /// Entity-resolution policy used by the crawler.
    pub matcher: Matcher,
    /// Query-pool generation parameters.
    pub pool: PoolConfig,
    /// ΔD-removal policy for QSel-Est.
    pub delta_removal: DeltaRemoval,
    /// §5.3 overflow-model odds ratio ω (1.0 = paper assumption).
    pub omega: f64,
    /// Seed for sampling and order randomization.
    pub seed: u64,
    /// Pre-built sample overriding `theta` (e.g. from the pool-based
    /// sampler in the Yelp experiment).
    pub sample_override: Option<HiddenSample>,
    /// Forward-index storage: RAM-resident (default) or the out-of-core
    /// paged store. Both hold the same rows, so crawl results are
    /// byte-identical either way; only memory residency and the report's
    /// `store` block differ.
    pub backend: IndexBackendConfig,
    /// Crawl-driver pipeline depth (1 = strictly sequential). Depths > 1
    /// overlap speculative hidden-site searches with selection and
    /// matching; results are byte-identical at any depth by construction
    /// (commit-order accounting), so this knob only moves wall-clock and
    /// the report's `pipeline` profile.
    pub pipeline_depth: usize,
}

impl RunSpec {
    /// A spec with the paper's common defaults for the given approach and
    /// budget, with checkpoints every `budget/10`.
    pub fn new(approach: Approach, budget: usize) -> Self {
        let step = (budget / 10).max(1);
        let mut checkpoints: Vec<usize> = (1..=10).map(|i| i * step).collect();
        if checkpoints.last() != Some(&budget) {
            checkpoints.push(budget);
        }
        Self {
            approach,
            budget,
            checkpoints,
            theta: 0.005, // Table 3 default sample ratio 0.5%
            full_theta: 0.01,
            matcher: Matcher::Exact,
            pool: PoolConfig::default(),
            delta_removal: DeltaRemoval::Observed,
            omega: 1.0,
            seed: 0,
            sample_override: None,
            backend: IndexBackendConfig::Ram,
            pipeline_depth: 1,
        }
    }
}

/// A run's full result: the ground-truth coverage curve plus the raw crawl
/// report (for timing/event instrumentation).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Ground-truth coverage at each checkpoint.
    pub curve: Curve,
    /// The raw report with steps, timings, and event counts.
    pub report: CrawlReport,
}

/// Runs `spec` against `scenario` and returns the ground-truth coverage
/// curve.
pub fn run_approach(scenario: &Scenario, spec: &RunSpec) -> Curve {
    run_approach_report(scenario, spec).curve
}

/// Runs every spec against `scenario`, fanning the runs across the thread
/// budget, and returns the outcomes in spec order.
///
/// This is the coarse-grained parallelism level: each run executes on one
/// worker, and the fine-grained `par_*` calls inside pool generation and
/// engine setup automatically degrade to sequential there (single-level
/// fan-out), so a sweep never oversubscribes the machine. Runs are
/// independent simulations, so the outcome vector is identical to running
/// them sequentially.
pub fn run_specs(scenario: &Scenario, specs: &[RunSpec]) -> Vec<RunOutcome> {
    smartcrawl_par::par_map(specs, |spec| run_approach_report(scenario, spec))
}

/// [`run_approach`], also returning the raw crawl report.
pub fn run_approach_report(scenario: &Scenario, spec: &RunSpec) -> RunOutcome {
    let mut iface = Metered::new(&scenario.hidden, Some(spec.budget));
    let report = dispatch(
        scenario,
        spec,
        &mut iface,
        RetryPolicy::none(),
        &mut NullObserver,
    );
    outcome(scenario, spec, report)
}

/// Runs `spec` under seeded fault injection: the metered interface is
/// wrapped in a [`FlakyInterface`] with the given transient-failure rate,
/// and the crawler retries under `retry`. Failures are injected *outside*
/// the meter, so only served queries consume the interface budget.
pub fn run_approach_flaky(
    scenario: &Scenario,
    spec: &RunSpec,
    failure_rate: f64,
    retry: RetryPolicy,
) -> RunOutcome {
    let mut iface = FlakyInterface::new(
        Metered::new(&scenario.hidden, Some(spec.budget)),
        failure_rate,
        spec.seed ^ 0xF1A4,
    );
    let report = dispatch(scenario, spec, &mut iface, retry, &mut NullObserver);
    outcome(scenario, spec, report)
}

/// Runs `spec` with a query-result cache between the crawler and the
/// metered interface. The store is borrowed so sweeps can share one cache
/// across approaches, seeds, and repeats (the warm-start case); pass a
/// fresh `QueryCache` for a cold run. Budget semantics follow the store's
/// [`CachePolicy`](smartcrawl_cache::CachePolicy): hits are free unless
/// `charged_hits` is set.
pub fn run_approach_cached(
    scenario: &Scenario,
    spec: &RunSpec,
    cache: &mut QueryCache,
) -> RunOutcome {
    let mut iface = CachedInterface::new(cache, Metered::new(&scenario.hidden, Some(spec.budget)));
    let report = dispatch(
        scenario,
        spec,
        &mut iface,
        RetryPolicy::none(),
        &mut NullObserver,
    );
    outcome(scenario, spec, report)
}

/// [`run_approach_cached`] under seeded fault injection: the cache wraps
/// the flaky interface, so hits bypass injected failures entirely while
/// misses face them (and retry under `retry`) exactly as in
/// [`run_approach_flaky`].
pub fn run_approach_cached_flaky(
    scenario: &Scenario,
    spec: &RunSpec,
    cache: &mut QueryCache,
    failure_rate: f64,
    retry: RetryPolicy,
) -> RunOutcome {
    let mut iface = CachedInterface::new(
        cache,
        FlakyInterface::new(
            Metered::new(&scenario.hidden, Some(spec.budget)),
            failure_rate,
            spec.seed ^ 0xF1A4,
        ),
    );
    let report = dispatch(scenario, spec, &mut iface, retry, &mut NullObserver);
    outcome(scenario, spec, report)
}

fn outcome(scenario: &Scenario, spec: &RunSpec, report: CrawlReport) -> RunOutcome {
    let curve = coverage_curve(
        spec.approach.label(),
        &report,
        &scenario.truth,
        &spec.checkpoints,
    );
    RunOutcome { curve, report }
}

/// Builds the local database and runs the configured approach against any
/// interface — the single dispatch point every harness entry shares.
fn dispatch<I: SearchInterface>(
    scenario: &Scenario,
    spec: &RunSpec,
    iface: &mut I,
    retry: RetryPolicy,
    observer: &mut dyn CrawlObserver,
) -> CrawlReport {
    let mut ctx = TextContext::new();
    let local = LocalDb::build_with(scenario.local.clone(), &mut ctx, &spec.backend)
        .expect("index backend build failed");

    let smart_sample = |theta: f64| -> HiddenSample {
        match &spec.sample_override {
            Some(s) => s.clone(),
            None => bernoulli_sample(&scenario.hidden, theta, spec.seed ^ 0x005A_3B1E),
        }
    };

    // Scoped: the depth applies to exactly this run, so sweeps mixing
    // sequential and pipelined specs can't leak depth across runs.
    let mut report =
        smartcrawl_par::with_pipeline_depth(spec.pipeline_depth, || match spec.approach {
            Approach::Ideal => ideal_crawl_with(
                &local,
                iface,
                &scenario.hidden,
                &IdealCrawlConfig {
                    budget: spec.budget,
                    matcher: spec.matcher,
                    pool: spec.pool,
                },
                retry,
                observer,
                ctx,
            ),
            Approach::SmartB | Approach::SmartU | Approach::Simple | Approach::Bound => {
                let (strategy, sample) = match spec.approach {
                    Approach::SmartB => (
                        Strategy::Est {
                            kind: smartcrawl_core::EstimatorKind::Biased,
                            delta_removal: spec.delta_removal,
                        },
                        smart_sample(spec.theta),
                    ),
                    Approach::SmartU => (
                        Strategy::Est {
                            kind: smartcrawl_core::EstimatorKind::Unbiased,
                            delta_removal: spec.delta_removal,
                        },
                        smart_sample(spec.theta),
                    ),
                    Approach::Simple => (
                        Strategy::Simple,
                        HiddenSample {
                            records: vec![],
                            theta: 0.0,
                        },
                    ),
                    Approach::Bound => (
                        Strategy::Bound,
                        HiddenSample {
                            records: vec![],
                            theta: 0.0,
                        },
                    ),
                    _ => unreachable!(),
                };
                smart_crawl_with(
                    &local,
                    &sample,
                    iface,
                    &SmartCrawlConfig {
                        budget: spec.budget,
                        strategy,
                        matcher: spec.matcher,
                        pool: spec.pool,
                        omega: spec.omega,
                    },
                    retry,
                    observer,
                    ctx,
                )
            }
            Approach::Naive => naive_crawl_with(
                &local,
                iface,
                spec.budget,
                spec.matcher,
                spec.seed,
                retry,
                observer,
                ctx,
            ),
            Approach::Full => {
                let sample =
                    bernoulli_sample(&scenario.hidden, spec.full_theta, spec.seed ^ 0xF011);
                full_crawl_with(
                    &local,
                    &sample,
                    iface,
                    spec.budget,
                    spec.matcher,
                    retry,
                    observer,
                    ctx,
                )
            }
        });
    // Disk runs carry the page-cache residency numbers out through the
    // report; the RAM backend has no store and the field stays None. The
    // stats are schedule-dependent (hit/miss order varies with thread
    // interleaving) and are never folded into result digests.
    report.store = local.store_report();
    report
}

/// FNV-1a over everything result-bearing in a sweep's outcomes: curves,
/// issued queries, returned pages, enrichment pairs, and event tallies.
/// Deliberately excludes timings and store cache statistics — those vary
/// with scheduling — so the digest is the cross-thread-count and
/// cross-backend determinism check.
pub fn digest_outcomes(outcomes: &[RunOutcome]) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in outcomes {
        for (&b, &c) in o.curve.budgets.iter().zip(&o.curve.covered) {
            fold(b as u64);
            fold(c as u64);
        }
        for step in &o.report.steps {
            fold(step.keywords.len() as u64);
            for kw in &step.keywords {
                for b in kw.bytes() {
                    fold(u64::from(b));
                }
            }
            for r in &step.returned {
                fold(r.0);
            }
            fold(u64::from(step.full_page));
        }
        for e in &o.report.enriched {
            fold(e.local as u64);
            fold(e.external.0);
        }
        fold(o.report.records_removed as u64);
        fold(o.report.events.queries_issued as u64);
        fold(o.report.events.matched as u64);
        fold(o.report.events.records_removed as u64);
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_data::ScenarioConfig;

    #[test]
    fn all_approaches_run_on_a_tiny_scenario() {
        let s = smartcrawl_data::Scenario::build(ScenarioConfig::tiny(5));
        for approach in [
            Approach::Ideal,
            Approach::SmartB,
            Approach::SmartU,
            Approach::Simple,
            Approach::Bound,
            Approach::Naive,
            Approach::Full,
        ] {
            let mut spec = RunSpec::new(approach, 15);
            spec.theta = 0.05;
            let curve = run_approach(&s, &spec);
            assert_eq!(curve.label, approach.label());
            assert!(curve.final_coverage() <= s.truth.matchable_count());
            // Monotone non-decreasing.
            assert!(curve.covered.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn report_events_and_timings_are_populated() {
        let s = smartcrawl_data::Scenario::build(ScenarioConfig::tiny(7));
        let mut spec = RunSpec::new(Approach::SmartB, 15);
        spec.theta = 0.05;
        let out = run_approach_report(&s, &spec);
        let report = &out.report;
        // Event tallies must agree with the report's own bookkeeping.
        assert_eq!(report.events.queries_issued, report.queries_issued());
        assert_eq!(report.events.pages_received, report.queries_issued());
        assert_eq!(report.events.matched, report.covered_claimed());
        assert_eq!(report.events.records_removed, report.records_removed);
        assert_eq!(report.events.retries, 0);
        // Enough queries ran that the measured phases cannot all be zero.
        if report.queries_issued() >= 5 {
            assert!(report.timing.total_ns() > 0, "timing: {:?}", report.timing);
        }
    }

    #[test]
    fn flaky_run_with_retries_matches_clean_coverage() {
        // The acceptance demo: SmartCrawl under 20% seeded transient
        // failures, with the standard retry policy, ends within noise of
        // the failure-free run.
        let s = smartcrawl_data::Scenario::build(ScenarioConfig::tiny(8));
        let mut spec = RunSpec::new(Approach::SmartB, 20);
        spec.theta = 0.05;
        let clean = run_approach_report(&s, &spec);
        let flaky = run_approach_flaky(&s, &spec, 0.2, RetryPolicy::standard());
        assert!(flaky.report.events.retries > 0, "20% flakiness must retry");
        assert!(flaky.report.timing.backoff_ticks > 0);
        // Retried queries are re-issued verbatim against a deterministic
        // simulator, so the flaky run's served-query sequence is the clean
        // run's, truncated by whatever budget the failed attempts burned:
        // its coverage must match the clean run's at the same served count
        // (±1 for the rare query dropped after exhausting its retries).
        let served = flaky.report.queries_issued();
        assert!(served < spec.budget, "failed attempts must burn budget");
        let clean_at_served =
            crate::eval::coverage_curve("", &clean.report, &s.truth, &[served.max(1)])
                .final_coverage() as i64;
        let flaky_cov = flaky.curve.final_coverage() as i64;
        assert!(
            (flaky_cov - clean_at_served).abs() <= 1,
            "flaky coverage {flaky_cov} vs clean-at-{served} {clean_at_served}"
        );
    }

    #[test]
    fn disk_backend_reproduces_ram_results_exactly() {
        // The store acceptance check at harness level: the same sweep run
        // with the forward index in RAM and on the paged disk store must
        // digest identically — both hold the same rows, so every removal
        // touches the same queries either way.
        let s = smartcrawl_data::Scenario::build(ScenarioConfig::tiny(11));
        let specs: Vec<RunSpec> = [Approach::SmartB, Approach::Bound, Approach::Full]
            .into_iter()
            .map(|a| {
                let mut spec = RunSpec::new(a, 12);
                spec.theta = 0.05;
                spec
            })
            .collect();
        let ram = digest_outcomes(&run_specs(&s, &specs));
        let disk_specs: Vec<RunSpec> = specs
            .iter()
            .map(|spec| {
                let mut d = spec.clone();
                // A deliberately tiny cache so eviction paths run in-test.
                d.backend = IndexBackendConfig::Disk(smartcrawl_core::StoreConfig {
                    page_size: 256,
                    cache_pages: 8,
                    ..Default::default()
                });
                d
            })
            .collect();
        let disk_outcomes = run_specs(&s, &disk_specs);
        assert_eq!(
            ram,
            digest_outcomes(&disk_outcomes),
            "disk backend diverged from RAM"
        );
        // Every disk run reports its store; the sweep as a whole must
        // have gone to disk (an individual approach may never read a
        // forward row, e.g. a pool-free baseline).
        let misses: u64 = disk_outcomes
            .iter()
            .map(|o| {
                o.report
                    .store
                    .as_ref()
                    .expect("disk runs report store stats")
                    .stats
                    .misses
            })
            .sum();
        assert!(misses > 0, "pages must have been read from disk");
    }

    #[test]
    fn smart_b_beats_naive_on_small_budget() {
        let mut cfg = ScenarioConfig::tiny(6);
        cfg.local_size = 120;
        cfg.delta_d = 0;
        cfg.hidden_size = 600;
        cfg.k = 20;
        let s = smartcrawl_data::Scenario::build(cfg);
        let budget = 24; // 20% of |D|
        let mut spec_b = RunSpec::new(Approach::SmartB, budget);
        spec_b.theta = 0.05;
        let smart = run_approach(&s, &spec_b).final_coverage();
        let naive = run_approach(&s, &RunSpec::new(Approach::Naive, budget)).final_coverage();
        assert!(
            smart > naive,
            "query sharing should dominate: smart {smart} vs naive {naive}"
        );
    }
}
