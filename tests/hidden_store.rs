//! Acceptance tests for the out-of-core hidden store: a world streamed
//! straight to disk (`Scenario::build_with_store`) must be
//! indistinguishable from the RAM-built world at the result level. The
//! disk backend numbers records in global rank order, so its rank-sorted
//! postings reproduce the RAM engine's top-k truncation exactly — every
//! approach's crawl digests identically whichever backend served it, at
//! every thread count, with or without a query cache in the stack, even
//! under a page cache small enough to evict constantly.

use smartcrawl_bench::harness::{
    digest_outcomes, run_approach_cached, run_specs, Approach, RunSpec,
};
use smartcrawl_cache::QueryCache;
use smartcrawl_data::{Scenario, ScenarioConfig};
use smartcrawl_par::with_threads;
use smartcrawl_store::{PagedReader, StoreConfig, StoreError, StoreRuntime};
use std::sync::Arc;

const APPROACHES: [Approach; 7] = [
    Approach::Ideal,
    Approach::SmartB,
    Approach::SmartU,
    Approach::Simple,
    Approach::Bound,
    Approach::Naive,
    Approach::Full,
];

fn specs() -> Vec<RunSpec> {
    APPROACHES
        .iter()
        .map(|&a| {
            let mut spec = RunSpec::new(a, 15);
            spec.theta = 0.05;
            spec
        })
        .collect()
}

/// Small pages and a tight cache: the configuration that stresses page
/// straddling, record decoding, and eviction hardest.
fn small_runtime() -> Arc<StoreRuntime> {
    StoreRuntime::create(StoreConfig {
        page_size: 256,
        cache_pages: 8,
        shards: 3,
        dir: None,
    })
    .expect("create store runtime")
}

#[test]
fn disk_world_digest_matches_ram_at_every_thread_count() {
    let cfg = ScenarioConfig::tiny(11);
    let ram = Scenario::build(cfg.clone());
    let disk = Scenario::build_with_store(cfg, small_runtime()).expect("stream scenario");
    let reference = digest_outcomes(&run_specs(&ram, &specs()));
    for threads in [1usize, 4] {
        let digest = with_threads(threads, || digest_outcomes(&run_specs(&disk, &specs())));
        assert_eq!(
            digest, reference,
            "disk-backed world diverged from RAM at {threads} threads"
        );
    }
}

#[test]
fn disk_world_digest_matches_ram_under_a_query_cache() {
    // With a cache in the stack, hits are free and the crawl trajectory
    // differs from the uncached one — so the comparison is cached-on-disk
    // versus cached-on-RAM, each sweep with its own cold cache per run.
    let cfg = ScenarioConfig::tiny(12);
    let ram = Scenario::build(cfg.clone());
    let disk = Scenario::build_with_store(cfg, small_runtime()).expect("stream scenario");
    let cached_sweep = |world: &Scenario| {
        let outcomes: Vec<_> = specs()
            .iter()
            .map(|spec| {
                let mut cache = QueryCache::default();
                run_approach_cached(world, spec, &mut cache)
            })
            .collect();
        digest_outcomes(&outcomes)
    };
    let reference = cached_sweep(&ram);
    for threads in [1usize, 4] {
        let digest = with_threads(threads, || cached_sweep(&disk));
        assert_eq!(
            digest, reference,
            "cached disk-backed world diverged from cached RAM at {threads} threads"
        );
    }
}

#[test]
fn peak_residency_stays_within_the_pool_budget() {
    // One pool per runtime: the staging and spill readers of the build,
    // the records, postings and aux readers of the crawl, all share the
    // one budget, and a dropped reader's frames count only while they
    // hold a page.
    let disk = Scenario::build_with_store(ScenarioConfig::tiny(14), small_runtime())
        .expect("stream scenario");
    let peak = || {
        let report = disk.hidden.store_report().expect("disk-backed world");
        (
            report.stats.peak_resident_pages,
            report.cache_budget_pages as u64,
        )
    };
    let (after_build, budget) = peak();
    assert!(
        after_build <= budget,
        "after the build: {after_build} > {budget} pages"
    );
    run_specs(&disk, &specs());
    let (after_crawl, budget) = peak();
    assert!(
        after_crawl <= budget,
        "after the crawl: {after_crawl} > {budget} pages"
    );
}

#[test]
fn truncated_hidden_store_file_fails_validation_cleanly() {
    // Pin the store directory so the files outlive the scenario, build a
    // world, then tear the tail off each hidden-store file: the paged
    // layer writes its header last and checksums every page, so a torn
    // write must fail validation at open — never half-load.
    let dir = std::env::temp_dir().join(format!("smartcrawl-hidden-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let runtime = StoreRuntime::create(StoreConfig {
        page_size: 256,
        cache_pages: 8,
        shards: 1,
        dir: Some(dir.clone()),
    })
    .unwrap();
    drop(Scenario::build_with_store(ScenarioConfig::tiny(13), runtime).expect("stream scenario"));

    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        if !path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("hidden-"))
        {
            continue;
        }
        PagedReader::open(&path).expect("intact file validates");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let Err(err) = PagedReader::open(&path) else {
            panic!("torn {} must fail to open", path.display());
        };
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "torn {} must fail as Corrupt, got {err:?}",
            path.display()
        );
        checked += 1;
    }
    assert!(
        checked >= 3,
        "expected records + postings + aux files, saw {checked}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
