//! Random-walk sampler over the query specialization tree (in the spirit
//! of Dasgupta et al. \[17\]: "a random walk approach to sampling hidden
//! databases", adapted from form facets to keywords).
//!
//! Where the pool sampler rejects every overflowing query outright, the
//! random walk *specializes* it: starting from a random seed keyword, as
//! long as the current query overflows, append a random keyword drawn
//! from a returned record (so the walk always stays on a non-empty
//! branch). When the query turns solid, pick one of its `m` full matches
//! uniformly.
//!
//! Each walk reaches record `r` with a path-dependent probability, so the
//! raw walk is biased toward records behind short paths. Like \[17\], we
//! track the walk's realized probability `p(walk) = Π step-choice
//! probabilities × 1/m` and accept with probability `c / p(walk)`
//! (clamped), which removes the bias up to the clamp. The estimator
//! `E[1/p]` over walks also yields a size estimate of the reachable set.
//!
//! This sampler trades the pool sampler's degree probing (extra queries
//! per candidate) for deeper walks (extra queries per round); which wins
//! depends on the interface's k and the corpus skew — both are provided
//! so experiments can compare.

use crate::HiddenSample;
use rand::{rngs::StdRng, Rng, SeedableRng};
use smartcrawl_hidden::{Retrieved, SearchInterface};
use smartcrawl_text::Tokenizer;
use std::collections::HashMap;

/// Configuration for [`random_walk_sample`].
#[derive(Debug, Clone)]
pub struct RandomWalkConfig {
    /// Stop once this many distinct records are accepted.
    pub target_size: usize,
    /// Hard cap on interface queries.
    pub max_queries: usize,
    /// Maximum keywords per walk before giving up on the branch.
    pub max_depth: usize,
    /// Acceptance scale `c` (acceptance = min(1, c / p(walk))); smaller is
    /// more uniform but slower.
    pub acceptance_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomWalkConfig {
    fn default() -> Self {
        Self {
            target_size: 500,
            max_queries: 20_000,
            max_depth: 6,
            acceptance_scale: 1e-4,
            seed: 0,
        }
    }
}

/// Output of a random-walk sampling run.
#[derive(Debug, Clone)]
pub struct RandomWalkOutput {
    /// The sample with its estimated ratio θ̂.
    pub sample: HiddenSample,
    /// Estimate of the reachable database size (`E[1/p]` over walks).
    pub size_estimate: f64,
    /// Queries spent.
    pub queries_used: usize,
    /// Walks started.
    pub walks: usize,
}

/// Runs the random-walk sampler with the given seed-keyword pool.
pub fn random_walk_sample<I: SearchInterface>(
    iface: &mut I,
    seed_keywords: &[String],
    cfg: &RandomWalkConfig,
) -> RandomWalkOutput {
    assert!(!seed_keywords.is_empty(), "seed keyword pool must not be empty");
    let k = iface.k();
    let tokenizer = Tokenizer::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut queries_used = 0usize;
    let mut walks = 0usize;
    let mut by_id: HashMap<u64, Retrieved> = HashMap::new();
    let mut inv_p_sum = 0.0f64;
    let mut inv_p_walks = 0usize;

    let satisfies = |r: &Retrieved, q: &[String]| {
        let toks: Vec<String> = tokenizer.raw_tokens(&r.full_text()).collect();
        q.iter().all(|w| toks.contains(w))
    };

    while by_id.len() < cfg.target_size && queries_used < cfg.max_queries {
        walks += 1;
        // Seed step: uniform over the seed pool.
        let mut query = vec![seed_keywords[rng.gen_range(0..seed_keywords.len())].clone()];
        let mut p_walk = 1.0 / seed_keywords.len() as f64;
        let mut accepted_record: Option<(Retrieved, f64)> = None;

        for _depth in 0..cfg.max_depth {
            if queries_used >= cfg.max_queries {
                break;
            }
            queries_used += 1;
            let Ok(page) = iface.search(&query) else { break };
            let page = page.records;
            let full: Vec<&Retrieved> =
                page.iter().filter(|r| satisfies(r, &query)).collect();
            // Solid test (with the partial-match witness for disjunctive
            // interfaces — see the pool sampler docs).
            let solid = page.len() < k || full.len() < page.len();
            if full.is_empty() {
                break; // dead branch
            }
            if solid {
                let m = full.len();
                let r = full[rng.gen_range(0..m)].clone();
                accepted_record = Some((r, p_walk / m as f64));
                break;
            }
            // Overflow: specialize with a random unused keyword from a
            // random returned full match.
            let donor = full[rng.gen_range(0..full.len())];
            let mut fresh: Vec<String> = tokenizer
                .raw_tokens(&donor.full_text())
                .filter(|t| !query.contains(t))
                .collect();
            fresh.sort_unstable();
            fresh.dedup();
            if fresh.is_empty() {
                break;
            }
            let next = fresh[rng.gen_range(0..fresh.len())].clone();
            // The step probability is approximated by the uniform choice
            // among the donor's fresh keywords (as in [17], the exact
            // branch probability is not observable through the interface).
            p_walk *= 1.0 / fresh.len() as f64;
            query.push(next);
        }

        if let Some((record, p)) = accepted_record {
            if p > 0.0 {
                inv_p_sum += 1.0 / p;
                inv_p_walks += 1;
                let accept = (cfg.acceptance_scale / p).min(1.0);
                if rng.gen_bool(accept) {
                    by_id.insert(record.external_id.0, record);
                }
            }
        }
    }

    // E[1/p] over successful walks estimates the reachable size only when
    // every walk terminates; failed walks dilute it, so we scale by the
    // success rate.
    let size_estimate = if walks > 0 && inv_p_walks > 0 {
        (inv_p_sum / inv_p_walks as f64) * (inv_p_walks as f64 / walks as f64)
    } else {
        0.0
    };
    let n = by_id.len();
    let theta = if size_estimate > 0.0 { (n as f64 / size_estimate).min(1.0) } else { 0.0 };
    let mut records: Vec<Retrieved> = by_id.into_values().collect();
    records.sort_unstable_by_key(|r| r.external_id.0);
    RandomWalkOutput {
        sample: HiddenSample { records, theta },
        size_estimate,
        queries_used,
        walks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_hidden::{HiddenDb, HiddenDbBuilder, HiddenRecord, Metered};
    use smartcrawl_text::Record;

    fn db(k: usize, n: u64) -> HiddenDb {
        let words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];
        HiddenDbBuilder::new()
            .k(k)
            .records((0..n).map(|i| {
                let a = words[(i % 6) as usize];
                let b = words[((i / 6) % 6) as usize];
                HiddenRecord::new(
                    i,
                    Record::from([format!("{a} {b} id{i}")]),
                    vec![],
                    i as f64,
                )
            }))
            .build()
    }

    fn seeds() -> Vec<String> {
        ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn walk_collects_records_despite_overflowing_seeds() {
        // k = 3 but each seed keyword matches 30 records: the walk must
        // specialize to make progress (the pool sampler would reject all
        // seed queries).
        let db = db(3, 180);
        let mut iface = Metered::new(&db, None);
        let cfg = RandomWalkConfig {
            target_size: 25,
            max_queries: 20_000,
            acceptance_scale: 1e-3,
            seed: 4,
            ..Default::default()
        };
        let out = random_walk_sample(&mut iface, &seeds(), &cfg);
        assert!(out.sample.len() >= 25, "collected {}", out.sample.len());
        for r in &out.sample.records {
            assert!(db.get(r.external_id).is_some());
        }
    }

    #[test]
    fn respects_query_cap() {
        let db = db(3, 180);
        let mut iface = Metered::new(&db, None);
        let cfg = RandomWalkConfig { target_size: 1_000, max_queries: 50, ..Default::default() };
        let out = random_walk_sample(&mut iface, &seeds(), &cfg);
        assert!(out.queries_used <= 50);
        assert_eq!(out.queries_used, iface.queries_issued());
    }

    #[test]
    fn theta_and_size_estimates_are_sane() {
        let db = db(5, 120);
        let mut iface = Metered::new(&db, None);
        let cfg = RandomWalkConfig {
            target_size: 30,
            max_queries: 30_000,
            acceptance_scale: 1e-3,
            seed: 9,
            ..Default::default()
        };
        let out = random_walk_sample(&mut iface, &seeds(), &cfg);
        assert!(out.sample.theta > 0.0 && out.sample.theta <= 1.0);
        // Loose band: the walk-probability model is approximate.
        assert!(
            out.size_estimate > 10.0 && out.size_estimate < 2_000.0,
            "size estimate {}",
            out.size_estimate
        );
    }

    #[test]
    #[should_panic(expected = "seed keyword pool must not be empty")]
    fn empty_seed_pool_rejected() {
        let db = db(3, 10);
        let mut iface = Metered::new(&db, None);
        random_walk_sample(&mut iface, &[], &RandomWalkConfig::default());
    }
}
