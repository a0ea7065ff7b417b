//! Acceptance tests for the pipelined crawl driver: speculative
//! prefetching must be *invisible* at the result level. For every
//! approach, the crawl digest at pipeline depths {2, 4, 8} — with real
//! worker threads and in inline fallback mode — must be byte-identical
//! to the strictly sequential run, on the RAM indexes, on the out-of-core
//! disk store, and through the flaky-interface retry stack. This is the
//! tentpole contract: all stateful accounting (budget, failure draws,
//! cache) happens at commit time on the driver thread in issue order, so
//! overlap can only move wall-clock, never results.

use smartcrawl_bench::harness::{
    digest_outcomes, run_approach_flaky, run_approach_report, Approach, RunSpec,
};
use smartcrawl_core::{IndexBackendConfig, StoreConfig};
use smartcrawl_data::{Scenario, ScenarioConfig};
use smartcrawl_hidden::RetryPolicy;
use smartcrawl_par::with_threads;

const APPROACHES: [Approach; 7] = [
    Approach::Ideal,
    Approach::SmartB,
    Approach::SmartU,
    Approach::Simple,
    Approach::Bound,
    Approach::Naive,
    Approach::Full,
];

fn specs(depth: usize, backend: &IndexBackendConfig) -> Vec<RunSpec> {
    APPROACHES
        .iter()
        .map(|&a| {
            let mut spec = RunSpec::new(a, 15);
            spec.theta = 0.05;
            spec.backend = backend.clone();
            spec.pipeline_depth = depth;
            spec
        })
        .collect()
}

/// Runs the specs one by one on the calling thread. Deliberately NOT
/// `run_specs`: its coarse-grained fan-out would execute each run inside a
/// `par_map` worker, where the pipeline degrades to inline mode — the
/// overlapped path would never be exercised. Running on the main thread
/// with a thread budget > 1 gives the pipeline real workers.
fn run_on_main(scenario: &Scenario, specs: &[RunSpec]) -> u64 {
    digest_outcomes(
        &specs
            .iter()
            .map(|spec| run_approach_report(scenario, spec))
            .collect::<Vec<_>>(),
    )
}

#[test]
fn pipelined_digests_match_sequential_at_every_depth_and_thread_count() {
    let scenario = Scenario::build(ScenarioConfig::tiny(13));
    let reference = with_threads(1, || {
        run_on_main(&scenario, &specs(1, &IndexBackendConfig::Ram))
    });
    for depth in [1usize, 2, 4, 8] {
        for threads in [1usize, 4] {
            // threads = 1 leaves no worker budget, so the pipeline takes
            // its inline fallback; threads = 4 runs real prefetch workers.
            let digest = with_threads(threads, || {
                run_on_main(&scenario, &specs(depth, &IndexBackendConfig::Ram))
            });
            assert_eq!(
                digest, reference,
                "pipeline depth {depth} @ {threads} threads diverged from \
                 the sequential driver"
            );
        }
    }
}

#[test]
fn pipelined_digests_match_sequential_on_the_disk_backend() {
    let scenario = Scenario::build(ScenarioConfig::tiny(13));
    let reference = with_threads(1, || {
        run_on_main(&scenario, &specs(1, &IndexBackendConfig::Ram))
    });
    // Small pages and a tight cache: eviction churn concurrent with
    // speculative prefetching is the configuration most likely to betray
    // an ordering bug.
    let disk = IndexBackendConfig::Disk(StoreConfig {
        page_size: 128,
        cache_pages: 10,
        ..Default::default()
    });
    for depth in [1usize, 4] {
        let digest = with_threads(4, || run_on_main(&scenario, &specs(depth, &disk)));
        assert_eq!(
            digest, reference,
            "disk backend at pipeline depth {depth} diverged from the \
             sequential RAM run"
        );
    }
}

#[test]
fn pipelined_digests_match_sequential_through_the_flaky_retry_stack() {
    // Failure draws are keyed on (session seed, query ordinal), and the
    // pipelined driver assigns ordinals at commit time in issue order —
    // so the same queries fail, retry, and get dropped whether or not
    // their pages were prefetched.
    let scenario = Scenario::build(ScenarioConfig::tiny(13));
    let flaky_digest = |depth: usize, threads: usize| {
        with_threads(threads, || {
            digest_outcomes(
                &specs(depth, &IndexBackendConfig::Ram)
                    .iter()
                    .map(|spec| {
                        run_approach_flaky(&scenario, spec, 0.2, RetryPolicy::standard())
                    })
                    .collect::<Vec<_>>(),
            )
        })
    };
    let reference = flaky_digest(1, 1);
    for depth in [2usize, 4, 8] {
        for threads in [1usize, 4] {
            assert_eq!(
                flaky_digest(depth, threads),
                reference,
                "flaky stack at pipeline depth {depth} @ {threads} threads \
                 diverged from the sequential driver"
            );
        }
    }
}

#[test]
fn pipelined_runs_report_a_speculation_profile() {
    // The profile is pure observability — never part of any digest — but
    // it must actually be populated when the pipeline engages, and absent
    // when it does not.
    let scenario = Scenario::build(ScenarioConfig::tiny(13));
    let mut spec = RunSpec::new(Approach::SmartB, 15);
    spec.theta = 0.05;
    let sequential = run_approach_report(&scenario, &spec);
    assert!(sequential.report.pipeline.is_none(), "depth 1 must not profile");

    spec.pipeline_depth = 4;
    let pipelined = with_threads(4, || run_approach_report(&scenario, &spec));
    let stats = pipelined
        .report
        .pipeline
        .as_ref()
        .expect("depth 4 with workers must report a pipeline profile");
    assert_eq!(stats.depth, 4);
    assert!(
        stats.prefetches > 0,
        "a fixed-order source must trigger speculative prefetches"
    );
    assert!(stats.prefetch_hits <= stats.prefetches);
}

#[test]
fn speculation_leaves_the_selection_counters_alone() {
    // Forecasting pops a throwaway copy of the selection queue; none of
    // that work may show up in the crawl's own selection counters. The one
    // exception is IdealCrawl's incremental-update count: its forecasts
    // fill the shared oracle memo early, which moves later updates.
    let scenario = Scenario::build(ScenarioConfig::tiny(13));
    let counters = |depth: usize| {
        with_threads(4, || {
            specs(depth, &IndexBackendConfig::Ram)
                .iter()
                .map(|spec| run_approach_report(&scenario, spec).report.selection)
                .collect::<Vec<_>>()
        })
    };
    let reference = counters(1);
    for depth in [2usize, 8] {
        for (approach, (want, got)) in APPROACHES.iter().zip(reference.iter().zip(counters(depth))) {
            let at = format!("{approach:?} at pipeline depth {depth}");
            assert_eq!(want.pops, got.pops, "pops, {at}");
            assert_eq!(want.stale_recomputes, got.stale_recomputes, "stale recomputes, {at}");
            if *approach != Approach::Ideal {
                assert_eq!(
                    want.incremental_updates, got.incremental_updates,
                    "incremental updates, {at}"
                );
            }
        }
    }
}
