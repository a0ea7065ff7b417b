//! Acceptance tests for the out-of-core forward index: the disk backend
//! must be indistinguishable from the RAM index at the result level. Both
//! hold the same `F(d)` rows, so every approach's crawl — queries issued,
//! pages received, enrichment pairs, coverage curve — digests identically
//! whichever backend served it, at every thread count, even under a page
//! cache small enough to evict constantly.

use smartcrawl_bench::harness::{digest_outcomes, run_specs, Approach, RunSpec};
use smartcrawl_core::{IndexBackendConfig, StoreConfig};
use smartcrawl_data::{Scenario, ScenarioConfig};
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

fn specs(backend: &IndexBackendConfig) -> Vec<RunSpec> {
    APPROACHES
        .iter()
        .map(|&a| {
            let mut spec = RunSpec::new(a, 15);
            spec.theta = 0.05;
            spec.backend = backend.clone();
            spec
        })
        .collect()
}

#[test]
fn disk_backend_digest_matches_ram_at_every_thread_count() {
    let scenario = Scenario::build(ScenarioConfig::tiny(13));
    let reference = digest_outcomes(&run_specs(&scenario, &specs(&IndexBackendConfig::Ram)));
    // Small pages and a tight cache: the configuration that stresses
    // page straddling and eviction hardest.
    let disk = IndexBackendConfig::Disk(StoreConfig {
        page_size: 128,
        cache_pages: 10,
        ..Default::default()
    });
    for threads in [1usize, 2, 4] {
        let digest = with_threads(threads, || {
            digest_outcomes(&run_specs(&scenario, &specs(&disk)))
        });
        assert_eq!(
            digest, reference,
            "disk backend diverged from RAM at {threads} threads"
        );
    }
}

#[test]
fn pathologically_small_cache_still_reproduces_results() {
    // A budget small enough that one long row read may pin more pages
    // than it holds: the cache must then grow past its budget rather than
    // deadlock, and results must not change.
    let scenario = Scenario::build(ScenarioConfig::tiny(14));
    let reference = digest_outcomes(&run_specs(&scenario, &specs(&IndexBackendConfig::Ram)));
    let disk = IndexBackendConfig::Disk(StoreConfig {
        page_size: 64,
        cache_pages: 4,
        ..Default::default()
    });
    let digest = digest_outcomes(&run_specs(&scenario, &specs(&disk)));
    assert_eq!(
        digest, reference,
        "tiny-cache disk backend diverged from RAM"
    );
}
