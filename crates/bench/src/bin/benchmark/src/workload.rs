//! The four workloads, and how one invocation measures one of them.
//!
//! Every workload is a closed loop with one client: the crawl driver
//! issues its next query only after it has absorbed the previous page.
//! A *rep* is one pass over the workload's crawl runs (one SmartCrawl-B
//! run, or the seven-approach sweep); reps repeat until the time budget
//! is spent, and timings are reported as medians over reps. The outcome
//! metrics, coverage and served share, come from one more rep on a
//! reference scenario that does not depend on the seed.

use crate::host::HostClock;
use crate::stats::{median, percentile};
use crate::timed::{Steps, Timed};
use crate::trace::Trace;
use smartcrawl_bench::eval::coverage_curve;
use smartcrawl_bench::experiments::{checkpoints, scaled};
use smartcrawl_bench::harness::{digest_outcomes, Approach, RunOutcome, RunSpec};
use smartcrawl_cache::{CachedInterface, QueryCache};
use smartcrawl_core::crawl::{
    full_crawl_with, ideal_crawl_with, naive_crawl_with, smart_crawl_with, IdealCrawlConfig,
    PipelineStats, SmartCrawlConfig,
};
use smartcrawl_core::{
    probe_engine_setup, CrawlReport, EstimatorKind, IndexBackendConfig, LocalDb, QueryPool,
    SampleIndex, StoreConfig, StoreStats, Strategy, TextContext,
};
use smartcrawl_data::{Scenario, ScenarioConfig};
use smartcrawl_hidden::{CacheStats, FlakyInterface, Metered, RetryPolicy, SearchInterface};
use smartcrawl_sampler::{bernoulli_sample, HiddenSample};
use smartcrawl_store::StoreRuntime;
use std::time::Instant;

/// Seed salts of the harness (`smartcrawl_bench::harness`), so a run here
/// crawls exactly what the harness crawls for the same `RunSpec`.
const SMART_SAMPLE_SALT: u64 = 0x005A_3B1E;
const FULL_SAMPLE_SALT: u64 = 0xF011;
const FLAKY_SALT: u64 = 0xF1A4;

/// Seeded transient-failure rate of `sweep-flaky`.
const FAILURE_RATE: f64 = 0.10;

/// The reference scenario: the workload's own plan at this scale and seed,
/// whatever `--seed` is. Coverage and served share are exact functions of
/// the code and the scenario, so on a fixed scenario they repeat exactly
/// and any drop is a change of the crawler's output; on the seed's
/// scenario they would vary with the seed by about 1%. A quarter scale
/// keeps the extra rep to a few seconds.
const REFERENCE_SCALE: f64 = 0.25;
const REFERENCE_SEED: u64 = 42;

/// Page-cache budgets of `smartb-disk`, in 4 KiB pages. Both are far
/// below their working sets: the index cache is the one `bench_perf`
/// sweeps, and the hidden cache (4 MiB at scale 1, 8 MiB at scale 2 as in
/// `bench_perf --store`) shrinks with the corpus so the hidden store stays
/// out of core at every scale.
const INDEX_CACHE_PAGES: usize = 16;
const HIDDEN_CACHE_PAGES_PER_SCALE: f64 = 1024.0;

const SWEEP: [Approach; 7] = [
    Approach::Ideal,
    Approach::SmartB,
    Approach::SmartU,
    Approach::Simple,
    Approach::Bound,
    Approach::Naive,
    Approach::Full,
];

/// The set-up calls a traced run replays one at a time: span name and
/// metric name.
const SETUP_CALLS: [(&str, &str); 5] = [
    ("core.local.build", "core.local.build_s"),
    ("sampler.sample", "sampler.sample_s"),
    ("core.pool.generate", "core.pool.generate_s"),
    ("core.sample.build", "core.sample.build_s"),
    ("core.select.setup", "core.select.setup_s"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmartbRam,
    SmartbDisk,
    SmartbPipelined,
    SweepFlaky,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SmartbRam,
        Workload::SmartbDisk,
        Workload::SmartbPipelined,
        Workload::SweepFlaky,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmartbRam => "smartb-ram",
            Workload::SmartbDisk => "smartb-disk",
            Workload::SmartbPipelined => "smartb-pipelined",
            Workload::SweepFlaky => "sweep-flaky",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Every workload runs at scale 1 (the paper's Table 3 sizes), the
    /// largest at which a `smartb-disk` rep stays under ten seconds; the
    /// three SmartCrawl-B workloads share one scenario, so they must share
    /// one digest.
    fn plan(self, quick: bool) -> Plan {
        let base = Plan {
            scale: if quick { 0.05 } else { 1.0 },
            approaches: &SWEEP[1..2],
            threads: 1,
            pipeline_depth: 1,
            disk: false,
            flaky: false,
            min_reps: if quick { 1 } else { 5 },
        };
        let min3 = base.min_reps.min(3);
        match self {
            Workload::SmartbRam => base,
            Workload::SmartbDisk => Plan {
                disk: true,
                min_reps: min3,
                ..base
            },
            // The driver plus one prefetch worker.
            Workload::SmartbPipelined => Plan {
                threads: 2,
                pipeline_depth: 2,
                ..base
            },
            Workload::SweepFlaky => Plan {
                approaches: &SWEEP,
                flaky: true,
                min_reps: min3,
                ..base
            },
        }
    }
}

/// What a workload crawls, and how.
#[derive(Debug, Clone)]
struct Plan {
    /// |H| = 100 000·scale, |D| = 10 000·scale, b = 2 000·scale.
    scale: f64,
    approaches: &'static [Approach],
    /// Thread budget of the whole invocation, generation included.
    threads: usize,
    pipeline_depth: usize,
    /// Index and hidden database on the paged store.
    disk: bool,
    /// `CachedInterface(FlakyInterface(Metered))` with retries, one fresh
    /// cache per rep shared by the rep's runs.
    flaky: bool,
    min_reps: usize,
}

impl Plan {
    fn specs(&self, seed: u64) -> Vec<RunSpec> {
        let budget = scaled(2_000, self.scale);
        self.approaches
            .iter()
            .map(|&approach| {
                let mut spec = RunSpec::new(approach, budget);
                spec.checkpoints = checkpoints(budget);
                spec.seed = seed;
                spec.pipeline_depth = self.pipeline_depth;
                if self.disk {
                    spec.backend = IndexBackendConfig::Disk(StoreConfig {
                        cache_pages: INDEX_CACHE_PAGES,
                        ..Default::default()
                    });
                }
                spec
            })
            .collect()
    }
}

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Time budget of the measured reps (at least `min_reps` run).
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one invocation measured and checked.
#[derive(Debug)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    /// Counters in both modes; the replay and call timings only when
    /// traced.
    pub per_layer: Vec<Metric>,
    /// Names (with details) of the correctness checks that failed.
    pub failed_checks: Vec<String>,
    /// Crawl runs measured, and how many of them disagreed with the first
    /// rep's output.
    pub attempted: usize,
    pub failed: usize,
    /// `digest_outcomes` of the first rep.
    pub digest: u64,
    pub trace: Option<Trace>,
}

/// Generates the workload's scenario, runs reps until the time budget is
/// spent, and checks the outputs. Everything runs under the workload's
/// thread budget.
pub fn measure(workload: Workload, opts: &Options) -> Result<Report, String> {
    let plan = workload.plan(opts.quick);
    smartcrawl_par::with_threads(plan.threads, || {
        let mut clock = HostClock::new();
        let world = World::generate(&plan, opts.seed)?;
        let specs = plan.specs(opts.seed);
        let mut next_run = 0usize;
        // A traced invocation still measures untraced reps first: they are
        // the baseline of the tracing overhead.
        let (min_reps, seconds) = if opts.traced {
            (1, opts.seconds / 2.0)
        } else {
            (plan.min_reps, opts.seconds)
        };
        let untraced = repeat(min_reps, seconds, || {
            run_rep(&world, &plan, &specs, Some(&mut clock), None, &mut next_run)
        })?;
        let mut trace = opts.traced.then(Trace::new);
        let traced = match trace.as_mut() {
            Some(t) => repeat(1, seconds, || {
                run_rep(&world, &plan, &specs, Some(&mut clock), Some(t), &mut next_run)
            })?,
            None => Vec::new(),
        };
        let reference = Reference::crawl(&plan)?;
        Ok(summarize(
            &plan, &world, &untraced, &traced, &reference, &clock, trace,
        ))
    })
}

/// One untraced rep on the reference scenario, after the measured reps,
/// so it moves neither their timings nor `peak_rss_mb`.
struct Reference {
    world: World,
    rep: Rep,
}

impl Reference {
    fn crawl(plan: &Plan) -> Result<Self, String> {
        let plan = Plan {
            scale: plan.scale.min(REFERENCE_SCALE),
            ..plan.clone()
        };
        let world = World::generate(&plan, REFERENCE_SEED)?;
        let specs = plan.specs(REFERENCE_SEED);
        let rep = run_rep(&world, &plan, &specs, None, None, &mut 0)?;
        Ok(Self { world, rep })
    }
}

fn repeat(
    min_reps: usize,
    seconds: f64,
    mut rep: impl FnMut() -> Result<Rep, String>,
) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        reps.push(rep()?);
    }
    Ok(reps)
}

/// The generated inputs: benchmark input, not crawler work.
struct World {
    scenario: Scenario,
    generate_s: f64,
    generate_rss_mb: f64,
}

impl World {
    fn generate(plan: &Plan, seed: u64) -> Result<Self, String> {
        let mut cfg = ScenarioConfig::paper_default();
        cfg.hidden_size = scaled(100_000, plan.scale);
        cfg.local_size = scaled(10_000, plan.scale);
        cfg.seed = seed;
        let start = Instant::now();
        let scenario = if plan.disk {
            let runtime = StoreRuntime::create(StoreConfig {
                cache_pages: (HIDDEN_CACHE_PAGES_PER_SCALE * plan.scale).ceil() as usize,
                ..Default::default()
            })
            .map_err(|e| format!("hidden store: {e}"))?;
            Scenario::build_with_store(cfg, runtime).map_err(|e| format!("hidden store: {e}"))?
        } else {
            Scenario::build(cfg)
        };
        Ok(Self {
            scenario,
            generate_s: start.elapsed().as_secs_f64(),
            generate_rss_mb: proc_status_mb("VmRSS:"),
        })
    }
}

/// One crawl run's outputs and measurements.
struct Run {
    outcome: RunOutcome,
    digest: u64,
    setup_ns: u64,
    crawl_ns: u64,
    gaps: Vec<u64>,
    attempts: u64,
    failed: u64,
    flaky_failures: u64,
    /// Traced only: every interface call's duration, and the set-up replay.
    call_ns: Vec<u64>,
    replay: Option<Replay>,
}

impl Run {
    fn report(&self) -> &CrawlReport {
        &self.outcome.report
    }

    fn index(&self) -> StoreStats {
        self.report().store.map(|s| s.stats).unwrap_or_default()
    }

    fn pipeline(&self) -> PipelineStats {
        self.report().pipeline.unwrap_or_default()
    }

    fn cache(&self) -> CacheStats {
        self.report().cache.unwrap_or_default()
    }
}

/// Durations of the replayed set-up calls, indexed like `SETUP_CALLS`.
#[derive(Debug, Default, Clone, Copy)]
struct Replay {
    ns: [u64; 5],
    pool_queries: usize,
}

struct Rep {
    runs: Vec<Run>,
    /// The hidden store's cache activity during the rep's crawls (not its
    /// set-up replays); `None` in RAM.
    hidden_store: Option<StoreStats>,
    /// The process's peak RSS (`VmHWM`) when the rep ended, in MB.
    peak_rss_mb: f64,
}

/// Runs every spec once; `clock`, when given, samples the host's speed
/// before every run and after the last.
fn run_rep(
    world: &World,
    plan: &Plan,
    specs: &[RunSpec],
    mut clock: Option<&mut HostClock>,
    mut trace: Option<&mut Trace>,
    next_run: &mut usize,
) -> Result<Rep, String> {
    let hidden = &world.scenario.hidden;
    let mut cache = QueryCache::default();
    let mut runs = Vec::with_capacity(specs.len());
    let mut hidden_store: Option<StoreStats> = None;
    for spec in specs {
        let id = *next_run;
        *next_run += 1;
        let before = hidden.store_report();
        if let Some(c) = clock.as_deref_mut() {
            c.sample();
        }
        let metered = Metered::new(hidden, Some(spec.budget));
        let mut run = if plan.flaky {
            let flaky = FlakyInterface::new(metered, FAILURE_RATE, spec.seed ^ FLAKY_SALT);
            let mut iface = Timed::new(CachedInterface::new(&mut cache, flaky), trace.is_some());
            let mut run = crawl(
                world,
                spec,
                &mut iface,
                RetryPolicy::standard(),
                trace.as_deref_mut(),
                id,
            )?;
            run.flaky_failures = iface.inner().inner().failures_injected() as u64;
            run
        } else {
            let mut iface = Timed::new(metered, trace.is_some());
            crawl(
                world,
                spec,
                &mut iface,
                RetryPolicy::none(),
                trace.as_deref_mut(),
                id,
            )?
        };
        if let (Some(b), Some(a)) = (before, hidden.store_report()) {
            let s = hidden_store.get_or_insert_with(StoreStats::default);
            s.hits += a.stats.hits - b.stats.hits;
            s.misses += a.stats.misses - b.stats.misses;
            s.evictions += a.stats.evictions - b.stats.evictions;
            s.peak_resident_pages = a.stats.peak_resident_pages;
        }
        if let Some(t) = trace.as_deref_mut() {
            run.replay = Some(replay_setup(world, spec, t, id)?);
        }
        runs.push(run);
    }
    if let Some(c) = clock {
        c.sample();
    }
    Ok(Rep {
        runs,
        hidden_store,
        peak_rss_mb: proc_status_mb("VmHWM:"),
    })
}

/// The selection strategy of the SmartCrawl variants; `None` for the
/// approaches with their own entry points.
fn strategy(spec: &RunSpec) -> Option<Strategy> {
    let est = |kind| Strategy::Est {
        kind,
        delta_removal: spec.delta_removal,
    };
    match spec.approach {
        Approach::SmartB => Some(est(EstimatorKind::Biased)),
        Approach::SmartU => Some(est(EstimatorKind::Unbiased)),
        Approach::Simple => Some(Strategy::Simple),
        Approach::Bound => Some(Strategy::Bound),
        Approach::Ideal | Approach::Naive | Approach::Full => None,
    }
}

/// `(θ, seed salt)` of the hidden sample the approach draws, if any.
fn sample_params(spec: &RunSpec) -> Option<(f64, u64)> {
    match spec.approach {
        Approach::SmartB | Approach::SmartU => Some((spec.theta, SMART_SAMPLE_SALT)),
        Approach::Full => Some((spec.full_theta, FULL_SAMPLE_SALT)),
        _ => None,
    }
}

fn empty_sample() -> HiddenSample {
    HiddenSample {
        records: Vec::new(),
        theta: 0.0,
    }
}

/// One crawl run through the public entry points: set-up runs from the
/// `LocalDb::build_with` call to the first issued query, the crawl from
/// there until the entry point returns.
fn crawl<I: SearchInterface>(
    world: &World,
    spec: &RunSpec,
    iface: &mut Timed<I>,
    retry: RetryPolicy,
    trace: Option<&mut Trace>,
    id: usize,
) -> Result<Run, String> {
    let scenario = &world.scenario;
    let records = scenario.local.clone();
    let mut steps = Steps::default();
    let start = Instant::now();
    let mut ctx = TextContext::new();
    let local = LocalDb::build_with(records, &mut ctx, &spec.backend)
        .map_err(|e| format!("index build: {e}"))?;
    let sample = sample_params(spec).map_or_else(empty_sample, |(theta, salt)| {
        bernoulli_sample(&scenario.hidden, theta, spec.seed ^ salt)
    });
    let mut report = smartcrawl_par::with_pipeline_depth(spec.pipeline_depth, || {
        match (spec.approach, strategy(spec)) {
            (_, Some(strategy)) => {
                let cfg = SmartCrawlConfig {
                    budget: spec.budget,
                    strategy,
                    matcher: spec.matcher,
                    pool: spec.pool,
                    omega: spec.omega,
                };
                smart_crawl_with(&local, &sample, iface, &cfg, retry, &mut steps, ctx)
            }
            (Approach::Ideal, None) => {
                let cfg = IdealCrawlConfig {
                    budget: spec.budget,
                    matcher: spec.matcher,
                    pool: spec.pool,
                };
                ideal_crawl_with(
                    &local,
                    iface,
                    &scenario.hidden,
                    &cfg,
                    retry,
                    &mut steps,
                    ctx,
                )
            }
            (Approach::Naive, None) => naive_crawl_with(
                &local,
                iface,
                spec.budget,
                spec.matcher,
                spec.seed,
                retry,
                &mut steps,
                ctx,
            ),
            // FullCrawl, the one approach left.
            _ => full_crawl_with(
                &local,
                &sample,
                iface,
                spec.budget,
                spec.matcher,
                retry,
                &mut steps,
                ctx,
            ),
        }
    });
    let end = Instant::now();
    report.store = local.store_report();

    let first = steps.first.unwrap_or(end);
    let calls = iface.calls.take().unwrap_or_default();
    if let Some(t) = trace {
        let root = t.record("run", start, end, None, id);
        t.record("setup", start, first, Some(root), id);
        let crawl = t.record("crawl", first, end, Some(root), id);
        for c in &calls {
            t.record("hidden.call", c.start, c.end, Some(crawl), id);
        }
    }
    let curve = coverage_curve(
        spec.approach.label(),
        &report,
        &scenario.truth,
        &spec.checkpoints,
    );
    let outcome = RunOutcome { curve, report };
    let run = Run {
        digest: digest_outcomes(std::slice::from_ref(&outcome)),
        outcome,
        setup_ns: (first - start).as_nanos() as u64,
        crawl_ns: (end - first).as_nanos() as u64,
        gaps: steps.gaps().collect(),
        attempts: iface.attempts,
        failed: iface.failed,
        flaky_failures: 0,
        call_ns: calls
            .iter()
            .map(|c| (c.end - c.start).as_nanos() as u64)
            .collect(),
        replay: None,
    };
    Ok(run)
}

/// Replays the run's set-up one timed call at a time, making only the
/// calls the run's approach makes. IdealCrawl's engine needs its oracle,
/// which `probe_engine_setup` cannot take, so its engine set-up is not
/// replayed.
fn replay_setup(
    world: &World,
    spec: &RunSpec,
    trace: &mut Trace,
    id: usize,
) -> Result<Replay, String> {
    let scenario = &world.scenario;
    let mut log: Vec<(usize, Instant, Instant)> = Vec::new();
    fn timed<R>(log: &mut Vec<(usize, Instant, Instant)>, call: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        log.push((call, start, Instant::now()));
        out
    }
    let records = scenario.local.clone();
    let start = Instant::now();
    let mut ctx = TextContext::new();
    let local = timed(&mut log, 0, || {
        LocalDb::build_with(records, &mut ctx, &spec.backend)
    })
    .map_err(|e| format!("index build: {e}"))?;
    let sample = sample_params(spec).map(|(theta, salt)| {
        timed(&mut log, 1, || {
            bernoulli_sample(&scenario.hidden, theta, spec.seed ^ salt)
        })
    });
    let mut pool_queries = 0;
    if !matches!(spec.approach, Approach::Naive | Approach::Full) {
        let pool = timed(&mut log, 2, || QueryPool::generate(&local, &spec.pool));
        pool_queries = pool.len();
        if let Some(strategy) = strategy(spec) {
            let sample = sample.unwrap_or_else(empty_sample);
            let index = timed(&mut log, 3, || SampleIndex::build(&sample, &mut ctx));
            let k = scenario.hidden.k();
            timed(&mut log, 4, || {
                probe_engine_setup(
                    &local,
                    &index,
                    pool,
                    strategy,
                    spec.matcher,
                    k,
                    spec.omega,
                    ctx,
                )
            });
        }
    }
    let root = trace.record("replay", start, Instant::now(), None, id);
    let mut replay = Replay {
        pool_queries,
        ..Replay::default()
    };
    for (call, s, e) in log {
        trace.record(SETUP_CALLS[call].0, s, e, Some(root), id);
        replay.ns[call] += (e - s).as_nanos() as u64;
    }
    Ok(replay)
}

/// A process-status field (`VmRSS:`, `VmHWM:`) in MB; 0 where procfs is
/// missing.
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Median over reps of a per-rep sum over runs.
fn med(reps: &[Rep], per_run: impl Fn(&Run) -> f64) -> f64 {
    let totals: Vec<f64> = reps
        .iter()
        .map(|r| r.runs.iter().map(&per_run).sum())
        .collect();
    median(&totals)
}

fn pooled(reps: &[Rep], values: impl Fn(&Run) -> &[u64]) -> Vec<u64> {
    let mut all: Vec<u64> = reps
        .iter()
        .flat_map(|r| &r.runs)
        .flat_map(|run| values(run).iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// Each rep's step gaps, pooled over its runs and sorted.
fn rep_gaps(reps: &[Rep]) -> Vec<Vec<u64>> {
    reps.iter()
        .map(|rep| pooled(std::slice::from_ref(rep), |r| &r.gaps))
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

type PerRun = fn(&Run) -> f64;

/// Per-layer counters and phase times reported by the crawl itself or
/// counted by `Timed`: per-rep sums over runs, reported as the median
/// over reps. Zero where the workload does not use the layer.
#[rustfmt::skip]
const RUN_SUMS: [(&str, &str, PerRun); 22] = [
    ("core.select.selection_s", "s", |r| secs(r.report().timing.selection_ns)),
    ("core.select.stale_recomputes", "count", |r| r.report().selection.stale_recomputes as f64),
    ("core.select.incremental_updates", "count", |r| r.report().selection.incremental_updates as f64),
    ("core.select.stamp_skips", "count", |r| r.report().selection.stamp_skips as f64),
    ("core.crawl.matching_s", "s", |r| secs(r.report().timing.matching_ns)),
    ("core.crawl.page_match_s", "s", |r| secs(r.report().selection.page_match_ns)),
    ("core.crawl.removal_s", "s", |r| secs(r.report().selection.removal_ns)),
    ("core.crawl.unattributed_s", "s", |r| secs(r.crawl_ns.saturating_sub(r.report().timing.total_ns()))),
    ("core.crawl.retries", "count", |r| r.report().events.retries as f64),
    ("core.crawl.backoff_ticks", "ticks", |r| r.report().timing.backoff_ticks as f64),
    ("hidden.calls", "count", |r| r.attempts as f64),
    ("hidden.flaky.failed_attempts", "count", |r| r.flaky_failures as f64),
    ("store.index.misses", "count", |r| r.index().misses as f64),
    ("store.index.evictions", "count", |r| r.index().evictions as f64),
    ("par.pipeline.prefetches", "count", |r| r.pipeline().prefetches as f64),
    ("par.pipeline.mispredicts", "count", |r| r.pipeline().mispredicts as f64),
    ("par.pipeline.worker_search_s", "s", |r| secs(r.pipeline().worker_search_ns)),
    ("par.pipeline.wait_s", "s", |r| secs(r.pipeline().wait_ns)),
    ("par.pipeline.speculation_s", "s", |r| secs(r.pipeline().speculation_ns)),
    ("cache.hits", "count", |r| r.cache().hits as f64),
    ("cache.misses", "count", |r| r.cache().misses as f64),
    ("cache.insertions", "count", |r| r.cache().insertions as f64),
];

fn summarize(
    plan: &Plan,
    world: &World,
    untraced: &[Rep],
    traced: &[Rep],
    reference: &Reference,
    clock: &HostClock,
    trace: Option<Trace>,
) -> Report {
    let first = &untraced[0];
    let all_runs = || untraced.iter().chain(traced).flat_map(|r| &r.runs);
    // A run disagrees when its output differs from the same run's in the
    // first rep.
    let disagreeing = untraced
        .iter()
        .chain(traced)
        .flat_map(|rep| rep.runs.iter().zip(&first.runs))
        .filter(|(run, reference)| run.digest != reference.digest)
        .count();
    let end_to_end = end_to_end(untraced, reference, clock.factor());
    let per_layer = per_layer(world, untraced, traced, clock);
    let failed_checks = checks(
        plan,
        untraced,
        traced,
        reference,
        disagreeing,
        &end_to_end,
        &per_layer,
    );
    let outcomes: Vec<RunOutcome> = first.runs.iter().map(|r| r.outcome.clone()).collect();
    Report {
        end_to_end,
        per_layer,
        failed_checks,
        attempted: all_runs().count(),
        failed: disagreeing,
        digest: digest_outcomes(&outcomes),
        trace,
    }
}

/// The end-to-end metrics: times from the untraced reps only,
/// host-normalized by `host_factor`, outcomes from the reference rep.
/// The normalized times carry the units `norm_s` and `norm_us`, except
/// `setup_s`: the benchmark contract fixes its unit as `s`, so README.md
/// states that it is normalized as well.
fn end_to_end(reps: &[Rep], reference: &Reference, host_factor: f64) -> Vec<Metric> {
    let first = &reps[0];
    // Step percentiles are taken per rep and reported as the median over
    // reps, like the other times: a burst of load elsewhere on the host
    // stalls the steps of the reps it overlaps, and the median rep is
    // free of it as long as fewer than half the reps are.
    let gaps = rep_gaps(reps);
    let step_us = |p: f64| {
        let per_rep: Vec<f64> = gaps
            .iter()
            .map(|g| percentile(g, p) as f64 / 1e3 * host_factor)
            .collect();
        median(&per_rep)
    };
    let runs = &reference.rep.runs;
    let covered: usize = runs
        .iter()
        .map(|r| r.outcome.curve.final_coverage())
        .sum();
    let coverable = reference.world.scenario.truth.matchable_count() * runs.len();
    let attempts: u64 = runs.iter().map(|r| r.attempts).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    vec![
        metric(
            "setup_s",
            med(reps, |r| secs(r.setup_ns)) * host_factor,
            "s",
        ),
        metric(
            "crawl_s",
            med(reps, |r| secs(r.crawl_ns)) * host_factor,
            "norm_s",
        ),
        metric("step_p50_us", step_us(50.0), "norm_us"),
        metric("step_p99_us", step_us(99.0), "norm_us"),
        metric(
            "coverage",
            ratio(covered as f64, coverable as f64),
            "fraction",
        ),
        // Generation plus one rep, whatever number of reps the time budget
        // allowed: the allocator's high-water mark creeps up rep by rep.
        metric("peak_rss_mb", first.peak_rss_mb, "MB"),
        metric(
            "served_share",
            1.0 - ratio(failed as f64, attempts as f64),
            "fraction",
        ),
    ]
}

/// The per-layer metrics, from the traced reps when there are any. The
/// replayed set-up calls and the interface-call timings exist only then.
fn per_layer(world: &World, untraced: &[Rep], traced: &[Rep], clock: &HostClock) -> Vec<Metric> {
    let reps = if traced.is_empty() { untraced } else { traced };
    let sum = |f: PerRun| med(reps, f);
    let mut out = vec![
        metric("data.generate_s", world.generate_s, "s"),
        metric("data.generate_rss_mb", world.generate_rss_mb, "MB"),
    ];
    if !traced.is_empty() {
        for (call, &(_, name)) in SETUP_CALLS.iter().enumerate() {
            let replayed = med(traced, |r| r.replay.map_or(0.0, |p| secs(p.ns[call])));
            out.push(metric(name, replayed, "s"));
        }
        let queries = med(traced, |r| r.replay.map_or(0.0, |p| p.pool_queries as f64));
        out.push(metric("core.pool.queries", queries, "count"));
    }
    out.extend(
        RUN_SUMS
            .iter()
            .map(|&(name, unit, f)| metric(name, sum(f), unit)),
    );
    if !traced.is_empty() {
        let calls = pooled(traced, |r| &r.call_ns);
        out.extend([
            metric(
                "hidden.search_s",
                med(traced, |r| secs(r.call_ns.iter().sum())),
                "s",
            ),
            metric(
                "hidden.search_p50_us",
                percentile(&calls, 50.0) as f64 / 1e3,
                "us",
            ),
            metric(
                "hidden.search_p99_us",
                percentile(&calls, 99.0) as f64 / 1e3,
                "us",
            ),
        ]);
    }
    let hidden = |f: fn(&StoreStats) -> f64| {
        let per_rep: Vec<f64> = reps
            .iter()
            .map(|r| r.hidden_store.as_ref().map_or(0.0, f))
            .collect();
        median(&per_rep)
    };
    let rate = |hits: f64, misses: f64| ratio(hits, hits + misses);
    let full_pages = sum(|r| r.report().steps.iter().filter(|s| s.full_page).count() as f64);
    let index_peak = reps
        .iter()
        .flat_map(|r| &r.runs)
        .map(|r| r.index().peak_resident_pages);
    out.extend([
        metric(
            "hidden.full_page_share",
            ratio(full_pages, sum(|r| r.report().steps.len() as f64)),
            "fraction",
        ),
        metric(
            "hidden.store.hit_rate",
            hidden(StoreStats::hit_rate),
            "fraction",
        ),
        metric("hidden.store.misses", hidden(|s| s.misses as f64), "count"),
        metric(
            "hidden.store.evictions",
            hidden(|s| s.evictions as f64),
            "count",
        ),
        metric(
            "hidden.store.peak_resident_pages",
            hidden(|s| s.peak_resident_pages as f64),
            "pages",
        ),
        metric(
            "store.index.hit_rate",
            rate(
                sum(|r| r.index().hits as f64),
                sum(|r| r.index().misses as f64),
            ),
            "fraction",
        ),
        metric(
            "store.index.peak_resident_pages",
            index_peak.max().unwrap_or(0) as f64,
            "pages",
        ),
        metric(
            "par.pipeline.hit_ratio",
            ratio(
                sum(|r| r.pipeline().prefetch_hits as f64),
                sum(|r| r.pipeline().prefetches as f64),
            ),
            "fraction",
        ),
        metric(
            "cache.hit_rate",
            rate(
                sum(|r| r.cache().hits as f64),
                sum(|r| r.cache().misses as f64),
            ),
            "fraction",
        ),
        metric(
            "bench.step_samples",
            rep_gaps(untraced).iter().map(Vec::len).min().unwrap_or(0) as f64,
            "count",
        ),
        metric("bench.host.calibration_ms", clock.median_ms(), "ms"),
    ]);
    if !traced.is_empty() {
        let runs = || traced.iter().flat_map(|r| &r.runs);
        let replayed: u64 = runs()
            .map(|r| r.replay.map_or(0, |p| p.ns.iter().sum()))
            .sum();
        let setup: u64 = runs().map(|r| r.setup_ns).sum();
        let crawl = |reps: &[Rep]| med(reps, |r| secs(r.crawl_ns));
        out.extend([
            metric(
                "bench.trace.overhead",
                ratio(crawl(traced), crawl(untraced)) - 1.0,
                "fraction",
            ),
            metric(
                "bench.trace.setup_attribution",
                ratio(replayed as f64, setup as f64),
                "fraction",
            ),
        ]);
    }
    out
}

/// The correctness checks; returns each failed one by name, with detail.
fn checks(
    plan: &Plan,
    untraced: &[Rep],
    traced: &[Rep],
    reference: &Reference,
    disagreeing: usize,
    end_to_end: &[Metric],
    per_layer: &[Metric],
) -> Vec<String> {
    let mut failed = Vec::new();
    let mut check = |ok: bool, name: &str, detail: String| {
        if !ok {
            failed.push(format!("{name}: {detail}"));
        }
    };
    let measured = || untraced.iter().chain(traced);
    let reps = || measured().chain(std::iter::once(&reference.rep));
    let runs = || reps().flat_map(|r| &r.runs);
    let metrics = || end_to_end.iter().chain(per_layer);
    let value = |name: &str| {
        metrics()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };

    check(
        disagreeing == 0,
        "rep-digests-agree",
        format!("{disagreeing} runs differ from the first rep"),
    );
    // Every served attempt is one step and one received page; only a query
    // dropped after exhausting its retries is issued without a step.
    let bad_events = runs()
        .filter(|r| {
            let (events, steps) = (r.report().events, r.report().steps.len());
            events.pages_received != steps
                || (r.attempts - r.failed) as usize != steps
                || (!plan.flaky && events.queries_issued != steps)
        })
        .count();
    check(
        bad_events == 0,
        "events-match-steps",
        format!("{bad_events} runs"),
    );
    let coverage = value("coverage");
    check(
        coverage > 0.0,
        "coverage-positive",
        format!("coverage {coverage}"),
    );
    let failed_share = |rep: &Rep| {
        let attempts: u64 = rep.runs.iter().map(|r| r.attempts).sum();
        let failed: u64 = rep.runs.iter().map(|r| r.failed).sum();
        ratio(failed as f64, attempts as f64)
    };
    let failed_shares: Vec<f64> = measured().map(failed_share).collect();
    let reference_share = failed_share(&reference.rep);
    if plan.flaky {
        check(
            failed_shares[0] > 0.0
                && failed_shares.windows(2).all(|w| w[0] == w[1])
                && reference_share > 0.0,
            "failed-share-repeats",
            format!("per-rep failed shares {failed_shares:?}, reference {reference_share}"),
        );
        let uncached = runs().filter(|r| r.report().cache.is_none()).count();
        check(
            uncached == 0,
            "cache-report-present",
            format!("{uncached} runs without one"),
        );
    } else {
        check(
            failed_shares.iter().all(|&s| s == 0.0) && reference_share == 0.0,
            "fault-free",
            format!("per-rep failed shares {failed_shares:?}, reference {reference_share}"),
        );
    }
    if plan.pipeline_depth > 1 {
        let idle = runs()
            .filter(|r| r.report().pipeline.is_none_or(|p| p.prefetches == 0))
            .count();
        check(
            idle == 0,
            "pipeline-report-present",
            format!("{idle} runs without prefetches"),
        );
    }
    if plan.disk {
        let missing = runs().filter(|r| r.report().store.is_none()).count();
        let unstored = reps().filter(|r| r.hidden_store.is_none()).count();
        check(
            missing == 0 && unstored == 0,
            "store-reports-present",
            format!("{missing} runs without an index store report, {unstored} reps without a hidden one"),
        );
    }
    let non_finite: Vec<&str> = metrics()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    check(
        non_finite.is_empty(),
        "metrics-finite",
        format!("{non_finite:?}"),
    );
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_bench::harness::{run_approach_cached_flaky, run_approach_report};

    fn tiny_world() -> World {
        World {
            scenario: Scenario::build(ScenarioConfig::tiny(3)),
            generate_s: 0.0,
            generate_rss_mb: 0.0,
        }
    }

    /// Wrapping the stack in `Timed` leaves a depth-2 crawl pipelined and
    /// its output unchanged.
    #[test]
    fn timed_keeps_the_pipeline_and_the_digest() {
        let world = tiny_world();
        let mut spec = RunSpec::new(Approach::SmartB, 15);
        spec.theta = 0.05;
        spec.pipeline_depth = 2;
        smartcrawl_par::with_threads(2, || {
            let bare = run_approach_report(&world.scenario, &spec);
            let metered = Metered::new(&world.scenario.hidden, Some(spec.budget));
            let mut iface = Timed::new(metered, true);
            let run =
                crawl(&world, &spec, &mut iface, RetryPolicy::none(), None, 0).expect("crawl");
            let prefetches = run.outcome.report.pipeline.map_or(0, |p| p.prefetches);
            assert!(prefetches > 0, "the wrapped crawl must still speculate");
            assert_eq!(run.digest, digest_outcomes(&[bare]));
            assert_eq!(run.attempts as usize, run.outcome.report.steps.len());
            assert_eq!(run.call_ns.len() as u64, run.attempts);
        });
    }

    /// A `sweep-flaky` rep crawls what the harness crawls: every approach
    /// through `CachedInterface(FlakyInterface(Metered))` with one cache
    /// shared in sweep order gives the harness's digest, so the set-up
    /// dispatch and the fault salt here follow the harness's.
    #[test]
    fn sweep_rep_matches_the_harness_for_every_approach() {
        let world = tiny_world();
        let plan = Workload::SweepFlaky.plan(true);
        let specs: Vec<RunSpec> = SWEEP
            .iter()
            .map(|&approach| {
                let mut spec = RunSpec::new(approach, 15);
                spec.theta = 0.05;
                spec.full_theta = 0.05;
                spec.seed = 5;
                spec
            })
            .collect();
        let rep = run_rep(&world, &plan, &specs, None, None, &mut 0).expect("rep");
        let mut cache = QueryCache::default();
        for (spec, run) in specs.iter().zip(&rep.runs) {
            let harness = run_approach_cached_flaky(
                &world.scenario,
                spec,
                &mut cache,
                FAILURE_RATE,
                RetryPolicy::standard(),
            );
            assert_eq!(
                run.digest,
                digest_outcomes(&[harness]),
                "{}",
                spec.approach.label()
            );
        }
        assert!(rep.runs.iter().any(|r| r.failed > 0), "faults were injected");
    }
}
