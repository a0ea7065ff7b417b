//! The oracle sampler: used in the simulated experiments, where the
//! experimenter owns the hidden database and the paper assumes `(Hs, θ)`
//! are simply given (§5.1: "we treat deep web sampling as an orthogonal
//! issue and assume that Hs and θ are given").

use crate::HiddenSample;
use rand::{rngs::StdRng, Rng, SeedableRng};
use smartcrawl_hidden::HiddenDb;

/// Includes every hidden record independently with probability `theta`.
///
/// The reported ratio is the *nominal* θ (what a Bernoulli design
/// publishes), not the realized fraction — estimator unbiasedness proofs
/// (Lemma 3) are with respect to the design probability.
pub fn bernoulli_sample(db: &HiddenDb, theta: f64, seed: u64) -> HiddenSample {
    assert!((0.0..=1.0).contains(&theta), "theta must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    // One Bernoulli draw per record in insertion order, so the trial
    // sequence (and thus the sample) is identical on the RAM and disk
    // backends. All draws come first; only the chosen positions decode.
    let chosen: Vec<usize> = (0..db.len()).filter(|_| rng.gen_bool(theta)).collect();
    let records = chosen
        .into_iter()
        .filter_map(|pos| db.view_at(pos))
        .collect();
    HiddenSample { records, theta }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_hidden::{HiddenDbBuilder, HiddenRecord};
    use smartcrawl_store::{StoreConfig, StoreRuntime};
    use smartcrawl_text::Record;

    fn records(n: usize) -> impl Iterator<Item = HiddenRecord> {
        (0..n).map(|i| {
            let name = Record::from([format!("record {i}")]);
            HiddenRecord::new(i as u64, name, vec![], i as f64)
        })
    }

    fn db(n: usize) -> HiddenDb {
        HiddenDbBuilder::new().records(records(n)).build()
    }

    #[test]
    fn bernoulli_respects_theta_on_average() {
        let h = db(2000);
        let s = bernoulli_sample(&h, 0.1, 42);
        // 2000 trials at p=0.1: expect ~200, allow generous slack.
        assert!((120..=280).contains(&s.len()), "got {}", s.len());
        assert_eq!(s.theta, 0.1);
    }

    #[test]
    fn bernoulli_is_deterministic_per_seed() {
        let h = db(100);
        let a = bernoulli_sample(&h, 0.3, 7);
        let b = bernoulli_sample(&h, 0.3, 7);
        assert_eq!(a.records.len(), b.records.len());
        assert!(a.records.iter().zip(&b.records).all(|(x, y)| x.external_id == y.external_id));
    }

    #[test]
    fn bernoulli_extremes() {
        let h = db(50);
        assert_eq!(bernoulli_sample(&h, 0.0, 1).len(), 0);
        assert_eq!(bernoulli_sample(&h, 1.0, 1).len(), 50);
    }

    #[test]
    fn drawing_positions_first_keeps_the_streaming_sample() {
        // The sample as a filter over the streamed views, one draw per
        // view: the position-first sampler must return the same records.
        let streamed = |h: &HiddenDb, theta: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            h.iter().filter(|_| rng.gen_bool(theta)).collect::<Vec<_>>()
        };
        let runtime = StoreRuntime::create(StoreConfig {
            page_size: 256,
            cache_pages: 8,
            dir: None,
        })
        .expect("store runtime");
        let disk = HiddenDbBuilder::new()
            .build_streaming(records(300), runtime)
            .expect("disk build");
        for h in [&db(300), &disk] {
            for theta in [0.0, 0.3, 1.0] {
                let expect = streamed(h, theta, 5);
                assert_eq!(
                    bernoulli_sample(h, theta, 5).records,
                    expect,
                    "theta {theta}"
                );
            }
        }
    }

    #[test]
    fn ram_and_disk_backends_give_the_same_sample() {
        let runtime = StoreRuntime::create(StoreConfig {
            page_size: 256,
            cache_pages: 8,
            dir: None,
        })
        .expect("store runtime");
        let disk = HiddenDbBuilder::new()
            .build_streaming(records(300), runtime)
            .expect("disk build");
        let a = bernoulli_sample(&db(300), 0.2, 11);
        let b = bernoulli_sample(&disk, 0.2, 11);
        assert_eq!(a.records, b.records);
        assert_eq!(a.theta, b.theta);
        // One draw per record, in insertion order (not rank order).
        let mut rng = StdRng::seed_from_u64(11);
        let expect: Vec<u64> = (0..300).filter(|_| rng.gen_bool(0.2)).collect();
        let ids: Vec<u64> = a.records.iter().map(|r| r.external_id.0).collect();
        assert_eq!(ids, expect);
    }
}
