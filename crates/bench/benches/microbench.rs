//! Criterion microbenchmarks for the performance-critical substrates:
//! posting-list intersection, frequent-pattern mining, pool generation,
//! the lazy priority queue vs a naive rescan, estimator throughput,
//! tokenization of hidden records, top-k pages from the disk hidden
//! store, and an end-to-end crawl. Sized to finish in a couple of
//! minutes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use smartcrawl_bench::harness::{run_approach, Approach, RunSpec};
use smartcrawl_core::{LocalDb, PoolConfig, QueryPool, TextContext};
use smartcrawl_data::{Scenario, ScenarioConfig};
use smartcrawl_fpm::{apriori, mine, MinerConfig};
use smartcrawl_index::{InvertedIndex, LazyQueue, QueryId};
use smartcrawl_match::Matcher;
use smartcrawl_store::{StoreConfig, StoreRuntime};
use smartcrawl_text::{Document, TokenId, Tokenizer, Vocabulary};
use std::hint::black_box;

fn synthetic_corpus(n_docs: usize, vocab: u32, doc_len: usize, seed: u64) -> Vec<Document> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_docs)
        .map(|_| {
            // Zipf-flavoured skew: square the uniform to favour low ids.
            Document::from_tokens(
                (0..doc_len)
                    .map(|_| {
                        let u: f64 = rng.gen();
                        TokenId((u * u * vocab as f64) as u32 % vocab)
                    })
                    .collect(),
            )
        })
        .collect()
}

fn bench_inverted_index(c: &mut Criterion) {
    let corpus = synthetic_corpus(20_000, 2_000, 12, 1);
    let idx = InvertedIndex::build(&corpus, 2_000);
    let queries: Vec<Vec<TokenId>> = (0..100)
        .map(|i| vec![TokenId(i % 50), TokenId(50 + i % 100)])
        .collect();
    c.bench_function("inverted_index/pair_frequency_100q", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for q in &queries {
                acc += idx.frequency(black_box(q));
            }
            black_box(acc)
        })
    });
    c.bench_function("inverted_index/build_20k_docs", |b| {
        b.iter(|| black_box(InvertedIndex::build(black_box(&corpus), 2_000)))
    });
}

fn bench_fpm(c: &mut Criterion) {
    let corpus = synthetic_corpus(1_000, 300, 8, 2);
    let cfg = MinerConfig::new(2, 2);
    let idx = InvertedIndex::build(&corpus, 300);
    c.bench_function("fpm/vertical_1k_docs", |b| {
        b.iter(|| black_box(mine(black_box(&corpus), |t| idx.postings(t), cfg)))
    });
    c.bench_function("fpm/apriori_1k_docs", |b| {
        b.iter(|| black_box(apriori(black_box(&corpus), cfg)))
    });
}

fn bench_pool_generation(c: &mut Criterion) {
    let scenario = Scenario::build({
        let mut cfg = ScenarioConfig::tiny(3);
        cfg.local_size = 1_000;
        cfg.hidden_size = 2_000;
        cfg.delta_d = 0;
        cfg
    });
    c.bench_function("pool/generate_1k_records", |b| {
        b.iter_batched(
            || {
                let mut ctx = TextContext::new();
                LocalDb::build(scenario.local.clone(), &mut ctx)
            },
            |local| {
                black_box(QueryPool::generate(
                    &local,
                    &PoolConfig { min_support: 2, max_len: 2, seed: 1 },
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_lazy_queue(c: &mut Criterion) {
    // Pop all of n entries while decaying random entries — lazy queue vs a
    // naive argmax rescan (the §6.3 claim).
    let n = 10_000usize;
    let priorities: Vec<f64> = (0..n).map(|i| (i % 997) as f64).collect();
    c.bench_function("selection/lazy_queue_10k", |b| {
        b.iter_batched(
            || (LazyQueue::new(&priorities), StdRng::seed_from_u64(4), priorities.clone()),
            |(mut q, mut rng, mut prio)| {
                for _ in 0..n {
                    let dirty = QueryId(rng.gen_range(0..n as u32));
                    if q.is_live(dirty) {
                        prio[dirty.index()] *= 0.5;
                        q.mark_dirty(dirty);
                    }
                    let popped = q.pop_max(|id| prio[id.index()]);
                    black_box(popped);
                }
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("selection/naive_rescan_10k", |b| {
        b.iter_batched(
            || (vec![true; n], StdRng::seed_from_u64(4), priorities.clone()),
            |(mut live, mut rng, mut prio)| {
                for _ in 0..n {
                    let dirty = rng.gen_range(0..n);
                    if live[dirty] {
                        prio[dirty] *= 0.5;
                    }
                    let best = (0..n)
                        .filter(|&i| live[i])
                        .max_by(|&a, &b| prio[a].total_cmp(&prio[b]));
                    if let Some(i) = best {
                        live[i] = false;
                    }
                    black_box(best);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let scenario = Scenario::build({
        let mut cfg = ScenarioConfig::tiny(5);
        cfg.local_size = 400;
        cfg.hidden_size = 2_000;
        cfg.k = 20;
        cfg
    });
    c.bench_function("crawl/smartcrawl_b_400_locals_b80", |b| {
        b.iter(|| {
            let mut spec = RunSpec::new(Approach::SmartB, 80);
            spec.theta = 0.02;
            black_box(run_approach(black_box(&scenario), &spec))
        })
    });
    c.bench_function("crawl/naive_400_locals_b80", |b| {
        b.iter(|| {
            let spec = RunSpec::new(Approach::Naive, 80);
            black_box(run_approach(black_box(&scenario), &spec))
        })
    });
}

fn bench_matching(c: &mut Criterion) {
    // Fuzzy page-to-D matching with the prefix filter (the §6.1 join).
    let scenario = Scenario::build({
        let mut cfg = ScenarioConfig::tiny(7);
        cfg.local_size = 2_000;
        cfg.hidden_size = 4_000;
        cfg.delta_d = 0;
        cfg.error_pct = 0.3;
        cfg
    });
    let mut ctx = TextContext::new();
    let local = LocalDb::build(scenario.local.clone(), &mut ctx);
    let match_index = smartcrawl_core::LocalMatchIndex::build(&local);
    // A synthetic "page" of 100 hidden docs.
    let page: Vec<Document> = scenario
        .hidden
        .iter()
        .take(100)
        .map(|r| ctx.doc_of_fields(&r.fields))
        .collect();
    c.bench_function("match/fuzzy_page100_vs_2k_locals", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for doc in &page {
                hits += match_index
                    .find_matches(black_box(doc), Matcher::Jaccard { threshold: 0.9 })
                    .len();
            }
            black_box(hits)
        })
    });
    c.bench_function("match/exact_page100_vs_2k_locals", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for doc in &page {
                hits += match_index.find_matches(black_box(doc), Matcher::Exact).len();
            }
            black_box(hits)
        })
    });

    // The engine's set-up flags each local record matched by a sample
    // record: one probe of the match index per sample document.
    let scenario = Scenario::build(ScenarioConfig::tiny(7));
    let mut ctx = TextContext::new();
    let local = LocalDb::build(scenario.local.clone(), &mut ctx);
    let match_index = smartcrawl_core::LocalMatchIndex::build(&local);
    let sample = smartcrawl_sampler::bernoulli_sample(&scenario.hidden, 0.05, 7);
    let sample = smartcrawl_core::SampleIndex::build(&sample, &mut ctx);
    let jaccard = Matcher::Jaccard { threshold: 0.9 };
    c.bench_function("core/sample_local_matches", |b| {
        b.iter(|| black_box(sample.local_matches(black_box(&match_index), jaccard)))
    });
}

fn bench_tokenize(c: &mut Criterion) {
    // Page absorption's per-record cost: one iteration tokenizes the
    // interface views of 10 000 generated hidden records into a fresh
    // vocabulary, as a crawl does the first time each record is returned.
    // The median divided by 10 000 is the per-record time.
    let scenario = Scenario::build({
        let mut cfg = ScenarioConfig::tiny(42);
        cfg.hidden_size = 10_000;
        cfg.local_size = 100;
        cfg
    });
    let views: Vec<_> = scenario.hidden.iter().collect();
    let tok = Tokenizer::default();
    c.bench_function("text/tokenize_fields_hidden_records", |b| {
        b.iter(|| {
            let mut vocab = Vocabulary::new();
            let mut tokens = 0usize;
            for r in &views {
                tokens += tok.tokenize_fields(black_box(&r.fields[..]), &mut vocab).len();
            }
            black_box(tokens)
        })
    });
}

fn bench_hidden_disk(c: &mut Criterion) {
    // The disk result path: overflowing k = 100 queries against a
    // streamed HiddenDb of 20 000 records whose 64-page pool holds about
    // a seventh of its records pages. One iteration runs 200 distinct
    // single-keyword queries (20 000 results); every iteration runs the
    // same 200, where a crawl never repeats a query.
    let runtime = StoreRuntime::create(StoreConfig {
        page_size: 4096,
        cache_pages: 64,
        dir: None,
    })
    .expect("store runtime");
    let scenario = Scenario::build_with_store(
        {
            let mut cfg = ScenarioConfig::tiny(9);
            cfg.hidden_size = 20_000;
            cfg.local_size = 100;
            cfg.k = 100;
            cfg
        },
        runtime,
    )
    .expect("stream scenario");
    let hidden = &scenario.hidden;
    let mut queries: Vec<Vec<String>> = Vec::new();
    'scan: for view in hidden.iter() {
        for word in view.full_text().split_whitespace() {
            let q = vec![word.to_lowercase()];
            if !queries.contains(&q) && hidden.true_frequency(&q) > 100 {
                queries.push(q);
                if queries.len() == 200 {
                    break 'scan;
                }
            }
        }
    }
    assert_eq!(queries.len(), 200, "200 overflowing queries");
    c.bench_function("hidden/disk_page_k100", |b| {
        b.iter(|| {
            let mut results = 0usize;
            for q in &queries {
                results += hidden.search(black_box(q)).len();
            }
            black_box(results)
        })
    });
}

fn bench_estimators(c: &mut Criterion) {
    use smartcrawl_core::{fisher_nch_mean, Estimator, EstimatorKind};
    let est = Estimator::new(EstimatorKind::Biased, 100, 0.005, 10_000, 500);
    c.bench_function("estimate/biased_benefit_10k_calls", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for i in 0..10_000usize {
                acc += est.benefit(black_box(i % 500 + 1), i % 7, i % 5);
            }
            black_box(acc)
        })
    });
    c.bench_function("estimate/fisher_nch_mean_k100", |b| {
        b.iter(|| black_box(fisher_nch_mean(black_box(100), 9_900, 500, 2.0)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_inverted_index, bench_fpm, bench_pool_generation, bench_lazy_queue, bench_matching, bench_tokenize, bench_hidden_disk, bench_estimators, bench_end_to_end
}
criterion_main!(benches);
