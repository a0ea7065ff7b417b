//! Row population (paper §9, future work #3): use the local table as a
//! *domain description* and crawl the hidden database for new rows of the
//! same kind — here, growing a list of database-community publications
//! from a small seed.
//!
//! ```sh
//! cargo run --release --example row_population
//! ```

use deeper::data::{Scenario, ScenarioConfig};
use deeper::{
    bernoulli_sample, full_crawl, populate_crawl, LocalDb, Matcher, Metered, PoolConfig,
    PopulateConfig, TextContext,
};

fn main() {
    let mut cfg = ScenarioConfig::paper_default();
    cfg.hidden_size = 20_000;
    cfg.local_size = 500; // a small seed of community papers
    cfg.seed = 5;
    let scenario = Scenario::build(cfg);
    let budget = 150;

    // PopulateCrawl: pool mined from the seed table.
    let mut ctx = TextContext::new();
    let local = LocalDb::build(scenario.local.clone(), &mut ctx);
    let sample = bernoulli_sample(&scenario.hidden, 0.01, 3);
    let mut iface = Metered::new(&scenario.hidden, Some(budget));
    let out = populate_crawl(
        &local,
        &sample,
        &mut iface,
        &PopulateConfig { budget, pool: PoolConfig::default() },
        ctx,
    );

    let score = |rows: &[deeper::hidden::Retrieved]| {
        let total = rows.len();
        let community = rows
            .iter()
            .filter_map(|r| scenario.truth.entity_of_external(r.external_id))
            .filter(|&e| scenario.truth.is_community(e))
            .count();
        (total, community)
    };
    let (total, community) = score(&out.rows);
    println!(
        "PopulateCrawl: {budget} queries → {total} distinct rows, {community} in-domain \
         ({:.0}% precision)",
        100.0 * community as f64 / total.max(1) as f64
    );

    // Baseline: FullCrawl's frequency-ordered keywords, same budget.
    let mut ctx = TextContext::new();
    let local = LocalDb::build(scenario.local.clone(), &mut ctx);
    let full_sample = bernoulli_sample(&scenario.hidden, 0.01, 4);
    let mut iface = Metered::new(&scenario.hidden, Some(budget));
    let report = full_crawl(&local, &full_sample, &mut iface, budget, Matcher::Exact, ctx);
    // FullCrawl's report lists returned ids; refetch rows for scoring.
    let rows: Vec<_> =
        report.crawled_ids().iter().filter_map(|&id| scenario.hidden.get(id)).collect();
    let (total, community) = score(&rows);
    println!(
        "FullCrawl:     {budget} queries → {total} distinct rows, {community} in-domain \
         ({:.0}% precision)",
        100.0 * community as f64 / total.max(1) as f64
    );
    println!("\nsample of new in-domain rows found by PopulateCrawl:");
    let local_entities: std::collections::HashSet<_> =
        (0..scenario.truth.num_local()).map(|i| scenario.truth.local_entity(i)).collect();
    for r in out
        .rows
        .iter()
        .filter(|r| {
            scenario
                .truth
                .entity_of_external(r.external_id)
                .is_some_and(|e| scenario.truth.is_community(e) && !local_entities.contains(&e))
        })
        .take(5)
    {
        println!("  {}", r.fields.join(" | "));
    }
}
