//! Property tests of the full SmartCrawl engine over randomized scenarios:
//! invariants that must hold for every strategy, matcher, budget and seed.

use proptest::prelude::*;
use smartcrawl_core::{
    crawl::{smart_crawl, SmartCrawlConfig},
    LocalDb, PoolConfig, TextContext,
};
use smartcrawl_data::{Scenario, ScenarioConfig};
use smartcrawl_hidden::Metered;
use smartcrawl_hidden::SearchInterface;
use smartcrawl_match::Matcher;
use smartcrawl_sampler::bernoulli_sample;

fn strategy_strategy() -> impl Strategy<Value = smartcrawl_core::Strategy> {
    prop_oneof![
        Just(smartcrawl_core::Strategy::Simple),
        Just(smartcrawl_core::Strategy::Bound),
        Just(smartcrawl_core::Strategy::est_biased()),
        Just(smartcrawl_core::Strategy::est_unbiased()),
    ]
}

fn matcher_strategy() -> impl Strategy<Value = Matcher> {
    prop_oneof![
        Just(Matcher::Exact),
        Just(Matcher::Jaccard { threshold: 0.9 }),
        Just(Matcher::Jaccard { threshold: 0.7 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn crawl_invariants_hold_on_random_worlds(
        seed in 0u64..1000,
        budget in 1usize..40,
        strategy in strategy_strategy(),
        matcher in matcher_strategy(),
        delta_d in 0usize..10,
        error_pct in prop_oneof![Just(0.0f64), Just(0.2f64)],
    ) {
        let mut cfg = ScenarioConfig::tiny(seed);
        cfg.local_size = 50;
        cfg.hidden_size = 250;
        cfg.delta_d = delta_d;
        cfg.error_pct = error_pct;
        cfg.k = 8;
        let s = Scenario::build(cfg);

        let mut ctx = TextContext::new();
        let local = LocalDb::build(s.local.clone(), &mut ctx);
        let sample = bernoulli_sample(&s.hidden, 0.05, seed);
        let mut iface = Metered::new(&s.hidden, Some(budget));
        let report = smart_crawl(
            &local,
            &sample,
            &mut iface,
            &SmartCrawlConfig {
                budget,
                strategy,
                matcher,
                pool: PoolConfig { min_support: 2, max_len: 2, seed },
                omega: 1.0,
            },
            ctx,
        );

        // 1. Budget discipline: never exceed either budget view.
        prop_assert!(report.queries_issued() <= budget);
        prop_assert_eq!(report.queries_issued(), iface.queries_issued());

        // 2. Enrichment assignments are unique per local record.
        let mut locals: Vec<usize> = report.enriched.iter().map(|p| p.local).collect();
        let before = locals.len();
        locals.sort_unstable();
        locals.dedup();
        prop_assert_eq!(locals.len(), before, "a record was enriched twice");

        // 3. Every enriched pair's hidden record was actually returned by
        //    some step, and the matcher really matches the pair.
        let crawled: std::collections::HashSet<_> =
            report.steps.iter().flat_map(|st| st.returned.iter().copied()).collect();
        let mut check_ctx = TextContext::new();
        let check_local = LocalDb::build(s.local.clone(), &mut check_ctx);
        for pair in &report.enriched {
            prop_assert!(crawled.contains(&pair.external));
            let hidden_rec = s.hidden.get(pair.external).expect("returned record exists");
            let hdoc = check_ctx.doc_of_fields(&hidden_rec.fields);
            prop_assert!(
                matcher.matches(check_local.doc(pair.local), &hdoc),
                "claimed pair does not satisfy the matcher"
            );
        }

        // 4. Claimed coverage never exceeds |D|, removals never exceed |D|.
        prop_assert!(report.covered_claimed() <= s.local.len());
        prop_assert!(report.records_removed <= s.local.len());

        // 5. Steps never return more than k records.
        for st in &report.steps {
            prop_assert!(st.returned.len() <= 8);
            prop_assert_eq!(st.full_page, st.returned.len() >= 8);
            prop_assert!(!st.keywords.is_empty());
        }
    }

    #[test]
    fn more_budget_never_hurts(
        seed in 0u64..200,
        strategy in strategy_strategy(),
    ) {
        let mut cfg = ScenarioConfig::tiny(seed);
        cfg.local_size = 40;
        cfg.hidden_size = 200;
        cfg.delta_d = 4;
        cfg.k = 6;
        let s = Scenario::build(cfg);
        let run = |budget: usize| {
            let mut ctx = TextContext::new();
            let local = LocalDb::build(s.local.clone(), &mut ctx);
            let sample = bernoulli_sample(&s.hidden, 0.05, seed);
            let mut iface = Metered::new(&s.hidden, Some(budget));
            smart_crawl(
                &local,
                &sample,
                &mut iface,
                &SmartCrawlConfig {
                    budget,
                    strategy,
                    matcher: Matcher::Exact,
                    pool: PoolConfig { min_support: 2, max_len: 2, seed },
                    omega: 1.0,
                },
                ctx,
            )
            .covered_claimed()
        };
        // Deterministic engine: a prefix of the same run ⇒ monotone.
        prop_assert!(run(5) <= run(15));
        prop_assert!(run(15) <= run(30));
    }
}
