//! Theoretical claims of the paper, checked empirically on randomized
//! instances:
//!
//! * **Lemma 1** — under Assumptions 1–3 (full coverage, no top-k, exact
//!   matching) QSel-Simple and QSel-Ideal are equivalent.
//! * **Lemma 2** — QSel-Bound covers at least `(1 − |ΔD|/b) · N_ideal`.
//! * **Lemma 3** — `|q(D) ∩ q(Hs)|/θ` is an unbiased estimator of
//!   `|q(D) ∩ q(H)|` for solid queries (Monte-Carlo over Bernoulli
//!   samples).
//! * **§5.3 ball model** — the expected number of covered records of an
//!   overflowing query is `n·k/N` under a random-draw assumption
//!   (hypergeometric mean).

use smartcrawl_core::{
    crawl::{ideal_crawl, smart_crawl, IdealCrawlConfig, SmartCrawlConfig},
    LocalDb, LocalMatchIndex, PoolConfig, Strategy, TextContext,
};
use smartcrawl_data::{Scenario, ScenarioConfig};
use smartcrawl_hidden::Metered;
use smartcrawl_match::Matcher;
use smartcrawl_sampler::{bernoulli_sample, HiddenSample};

fn no_topk_config(seed: u64, delta_d: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny(seed);
    cfg.local_size = 60;
    cfg.delta_d = delta_d;
    cfg.hidden_size = 300;
    // Assumption 2: no top-k constraint — make k as large as |H| so no
    // query can overflow.
    cfg.k = 300;
    cfg
}

fn run_strategy(s: &Scenario, strategy: Strategy, budget: usize) -> usize {
    let mut ctx = TextContext::new();
    let local = LocalDb::build(s.local.clone(), &mut ctx);
    let pool = PoolConfig { min_support: 2, max_len: 2, seed: 77 };
    let mut iface = Metered::new(&s.hidden, None);
    let empty_sample = HiddenSample { records: vec![], theta: 0.0 };
    let report = smart_crawl(
        &local,
        &empty_sample,
        &mut iface,
        &SmartCrawlConfig { budget, strategy, matcher: Matcher::Exact, pool, omega: 1.0 },
        ctx,
    );
    report.covered_claimed()
}

fn run_ideal(s: &Scenario, budget: usize) -> usize {
    let mut ctx = TextContext::new();
    let local = LocalDb::build(s.local.clone(), &mut ctx);
    let pool = PoolConfig { min_support: 2, max_len: 2, seed: 77 };
    let mut iface = Metered::new(&s.hidden, None);
    let report = ideal_crawl(
        &local,
        &mut iface,
        &s.hidden,
        &IdealCrawlConfig { budget, matcher: Matcher::Exact, pool },
        ctx,
    );
    report.covered_claimed()
}

#[test]
fn lemma_1_simple_equals_ideal_under_assumptions() {
    for seed in 0..6u64 {
        let s = Scenario::build(no_topk_config(seed, 0)); // Assumption 1: ΔD = ∅
        for budget in [3usize, 8, 15] {
            let n_simple = run_strategy(&s, Strategy::Simple, budget);
            let n_ideal = run_ideal(&s, budget);
            assert_eq!(
                n_simple, n_ideal,
                "seed {seed} budget {budget}: simple {n_simple} vs ideal {n_ideal}"
            );
        }
    }
}

#[test]
fn lemma_2_bound_guarantee() {
    for seed in 0..6u64 {
        let delta_d = 6usize;
        let s = Scenario::build(no_topk_config(seed, delta_d));
        for budget in [10usize, 20, 30] {
            let n_bound = run_strategy(&s, Strategy::Bound, budget);
            let n_ideal = run_ideal(&s, budget);
            let floor = (1.0 - delta_d as f64 / budget as f64) * n_ideal as f64;
            assert!(
                n_bound as f64 >= floor - 1e-9,
                "seed {seed} budget {budget}: bound {n_bound} < floor {floor} (ideal {n_ideal})"
            );
        }
    }
}

#[test]
fn bound_never_beats_ideal() {
    for seed in 0..4u64 {
        let s = Scenario::build(no_topk_config(seed, 4));
        let b = 15;
        assert!(run_strategy(&s, Strategy::Bound, b) <= run_ideal(&s, b));
    }
}

#[test]
fn lemma_3_solid_estimator_is_unbiased() {
    // Construct a scenario, pick the statistic |q(D) ∩ q(Hs)|/θ for a
    // fixed single-keyword query, and average over many Bernoulli samples:
    // the mean must approach |q(D) ∩ q(H)| (here: the number of matchable
    // local records containing the keyword, since D ⊆ H textually).
    let mut cfg = ScenarioConfig::tiny(3);
    cfg.delta_d = 0;
    cfg.local_size = 100;
    cfg.hidden_size = 400;
    let s = Scenario::build(cfg);
    let mut ctx = TextContext::new();
    let local = LocalDb::build(s.local.clone(), &mut ctx);

    // Pick the most frequent local keyword as the probe query.
    let (token, _) = (0..ctx.vocab.len())
        .map(|t| {
            let tid = smartcrawl_text::TokenId(t as u32);
            (tid, local.index().doc_frequency(tid))
        })
        .max_by_key(|&(_, df)| df)
        .unwrap();
    let _keyword = ctx.vocab.word(token); // probe keyword, for debugging

    // Ground truth |q(D) ∩ q(H)|: local records containing the keyword
    // whose exact text also exists in H (all matchable records here).
    let truth = (0..local.len())
        .filter(|&i| local.doc(i).contains(token))
        .filter(|&i| s.truth.local_has_match(i))
        .count() as f64;
    assert!(truth >= 3.0, "probe keyword too rare for a stable test");

    let theta = 0.25;
    let trials = 600;
    let mut sum = 0.0;
    let index = LocalMatchIndex::build(&local);
    for seed in 0..trials {
        let sample = bernoulli_sample(&s.hidden, theta, 1_000 + seed);
        let sample_idx = smartcrawl_core::SampleIndex::build(&sample, &mut ctx);
        // |q(D) ∩̃ q(Hs)| — count local keyword-records matched in-sample.
        let matched = sample_idx.local_matches(&index, Matcher::Exact);
        let inter = (0..local.len())
            .filter(|&i| local.doc(i).contains(token) && matched[i])
            .count() as f64;
        sum += inter / theta;
    }
    let mean = sum / trials as f64;
    let rel_err = (mean - truth).abs() / truth;
    assert!(rel_err < 0.08, "mean {mean} vs truth {truth} (rel err {rel_err})");
}

#[test]
fn overflow_ball_model_expectation() {
    // §5.3: draw n of N balls without replacement, first k are black;
    // E[black in draw] = n·k/N. Validate the model the overflow estimators
    // rest on, with our own RNG machinery.
    use rand::seq::index::sample as index_sample;
    use rand::{rngs::StdRng, SeedableRng};
    let (n_total, k, n_draw) = (40usize, 12usize, 15usize);
    let mut rng = StdRng::seed_from_u64(99);
    let trials = 20_000;
    let mut sum = 0usize;
    for _ in 0..trials {
        let draw = index_sample(&mut rng, n_total, n_draw);
        sum += draw.iter().filter(|&i| i < k).count();
    }
    let mean = sum as f64 / trials as f64;
    let expect = n_draw as f64 * k as f64 / n_total as f64; // 4.5
    assert!((mean - expect).abs() < 0.08, "mean {mean} expect {expect}");
}

#[test]
fn estimated_benefit_tracks_true_benefit_direction() {
    // Weak-form sanity: across pool queries, the biased estimate should
    // correlate positively with the true benefit (Spearman-style sign
    // check on aggregate).
    let mut cfg = ScenarioConfig::tiny(9);
    cfg.k = 10;
    cfg.local_size = 80;
    cfg.delta_d = 0;
    let s = Scenario::build(cfg);
    let mut ctx = TextContext::new();
    let local = LocalDb::build(s.local.clone(), &mut ctx);
    let sample = bernoulli_sample(&s.hidden, 0.2, 5);
    let sample_idx = smartcrawl_core::SampleIndex::build(&sample, &mut ctx);
    let est = smartcrawl_core::Estimator::new(
        smartcrawl_core::EstimatorKind::Biased,
        10,
        sample_idx.theta(),
        local.len(),
        sample_idx.len(),
    );
    let pool = smartcrawl_core::QueryPool::generate(
        &local,
        &PoolConfig { min_support: 2, max_len: 2, seed: 1 },
    );
    let matched = sample_idx.local_matches(&LocalMatchIndex::build(&local), Matcher::Exact);
    let mut high_est_benefit = 0.0;
    let mut low_est_benefit = 0.0;
    let mut highs = 0.0;
    let mut lows = 0.0;
    for (i, q) in pool.queries().iter().enumerate() {
        let qid = smartcrawl_index::QueryId(i as u32);
        let freq_d = pool.matches(qid).len();
        let freq_hs = sample_idx.frequency(q.tokens());
        let inter =
            pool.matches(qid).iter().filter(|r| matched[r.index()]).count();
        let estimate = est.benefit(freq_d, freq_hs, inter);
        // True benefit by issuing the query for free.
        let page = s.hidden.search(&q.render(&ctx));
        let mut truth = 0usize;
        for r in &page {
            let rdoc = ctx.doc_of_fields(&r.fields[..]);
            truth += (0..local.len()).filter(|&d| local.doc(d) == &rdoc).count();
        }
        if estimate >= 2.0 {
            high_est_benefit += truth as f64;
            highs += 1.0;
        } else {
            low_est_benefit += truth as f64;
            lows += 1.0;
        }
    }
    assert!(highs >= 3.0 && lows >= 3.0, "degenerate split: {highs} vs {lows}");
    assert!(
        high_est_benefit / highs > low_est_benefit / lows,
        "estimates do not separate true benefits: high {high_est_benefit}/{highs}, low {low_est_benefit}/{lows}"
    );
}

#[test]
fn appendix_b_lazy_selection_does_sublinear_work() {
    // The naive implementation recomputes |Q| priorities per iteration;
    // the §6.3 machinery must recompute only a small fraction. Measure the
    // instrumented counters on a mid-size run.
    let mut cfg = ScenarioConfig::tiny(13);
    cfg.local_size = 400;
    cfg.hidden_size = 2_000;
    cfg.delta_d = 0;
    cfg.k = 20;
    let s = Scenario::build(cfg);
    let mut ctx = TextContext::new();
    let local = LocalDb::build(s.local.clone(), &mut ctx);
    let pool_cfg = PoolConfig { min_support: 2, max_len: 2, seed: 3 };
    let pool_size = smartcrawl_core::QueryPool::generate(&local, &pool_cfg).len();
    let sample = bernoulli_sample(&s.hidden, 0.02, 3);
    let budget = 80;
    let mut iface = Metered::new(&s.hidden, Some(budget));
    let report = smart_crawl(
        &local,
        &sample,
        &mut iface,
        &SmartCrawlConfig {
            budget,
            strategy: Strategy::est_biased(),
            matcher: Matcher::Exact,
            pool: pool_cfg,
            omega: 1.0,
        },
        ctx,
    );
    let stats = report.selection;
    let naive_work = pool_size * report.queries_issued();
    assert!(stats.pops >= report.queries_issued());
    assert!(
        stats.stale_recomputes * 4 < naive_work,
        "lazy selection did {} recomputes vs naive {} (pool {} × {} queries)",
        stats.stale_recomputes,
        naive_work,
        pool_size,
        report.queries_issued()
    );
    assert!(stats.forward_touches > 0, "removals must flow through the forward index");
}

#[test]
fn lemma_6_unbiasedness_survives_fuzzy_matching() {
    // Lemma 6: with |q(D) ∩̃ q(Hs)| counting *fuzzy* matched pairs, the
    // solid estimator stays unbiased. World: every matchable local record
    // drifted on the hidden side (one word changed), matched at Jaccard
    // ≥ 0.75 over address-bearing business records.
    let mut cfg = ScenarioConfig::tiny(17);
    cfg.domain = smartcrawl_data::Domain::Businesses;
    cfg.local_size = 120;
    cfg.hidden_size = 500;
    cfg.delta_d = 0;
    cfg.drift_pct = 1.0; // every hidden twin drifted
    let s = Scenario::build(cfg);
    let matcher = Matcher::Jaccard { threshold: 0.75 };
    let mut ctx = TextContext::new();
    let local = LocalDb::build(s.local.clone(), &mut ctx);

    // Probe query: the most frequent local keyword.
    let (token, _) = (0..ctx.vocab.len())
        .map(|t| {
            let tid = smartcrawl_text::TokenId(t as u32);
            (tid, local.index().doc_frequency(tid))
        })
        .max_by_key(|&(_, df)| df)
        .unwrap();

    // Ground truth |q(D) ∩̃ q(H)|: matched pairs where the local record
    // contains the token (computed against the full hidden database with
    // the same fuzzy matcher).
    let full_sample = smartcrawl_sampler::HiddenSample {
        records: s.hidden.iter().collect(),
        theta: 1.0,
    };
    let full_index = smartcrawl_core::SampleIndex::build(&full_sample, &mut ctx);
    let index = LocalMatchIndex::build(&local);
    let matched_full = full_index.local_matches(&index, matcher);
    let truth = (0..local.len())
        .filter(|&i| local.doc(i).contains(token) && matched_full[i])
        .count() as f64;
    assert!(truth >= 5.0, "probe keyword too rare ({truth})");

    let theta = 0.3;
    let trials = 400;
    let mut sum = 0.0;
    for seed in 0..trials {
        let sample = bernoulli_sample(&s.hidden, theta, 40_000 + seed);
        let idx = smartcrawl_core::SampleIndex::build(&sample, &mut ctx);
        let matched = idx.local_matches(&index, matcher);
        let inter = (0..local.len())
            .filter(|&i| local.doc(i).contains(token) && matched[i])
            .count() as f64;
        sum += inter / theta;
    }
    let mean = sum / trials as f64;
    let rel_err = (mean - truth).abs() / truth;
    assert!(rel_err < 0.10, "mean {mean} vs truth {truth} (rel err {rel_err})");
}
