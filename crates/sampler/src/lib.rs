//! Deep-web sampling (paper §5.1).
//!
//! QSel-Est consumes a hidden-database sample `Hs` with a known (or
//! estimated) sampling ratio `θ`. The paper treats sampling as an
//! orthogonal, well-studied problem ([11, 48, 49]) and assumes `(Hs, θ)`
//! given for the simulated experiments, while the Yelp experiment builds a
//! 0.2% sample (500 records) by issuing 6 483 queries with the technique of
//! Zhang et al. \[48\].
//!
//! This crate provides both regimes:
//!
//! * [`bernoulli`] — an *oracle* sampler with exact `θ`, for simulated
//!   setups where the experimenter owns the hidden database;
//! * [`pool_sampler`] — a pool-based rejection sampler in the spirit of
//!   Bar-Yossef & Gurevich / Zhang et al. that works purely through the
//!   top-`k` keyword interface: it produces a near-uniform sample together
//!   with an unbiased estimate of `|H|` (and hence `θ̂`), spending extra
//!   queries on per-candidate degree probing exactly like the published
//!   samplers do;
//! * [`random_walk`] — a query-specialization random walk (Dasgupta et
//!   al.'s approach adapted to keywords): overflowing queries are
//!   *specialized* instead of rejected, which keeps making progress when
//!   every single keyword overflows.

pub mod bernoulli;
pub mod persist;
pub mod pool_sampler;
pub mod random_walk;

pub use bernoulli::bernoulli_sample;
pub use pool_sampler::{pool_sample, pool_sample_queries, PoolSamplerConfig, SamplerOutput};
pub use persist::{load_sample, save_sample};
pub use random_walk::{random_walk_sample, RandomWalkConfig, RandomWalkOutput};

use smartcrawl_hidden::Retrieved;

/// A hidden-database sample handed to the crawler: the sampled records plus
/// the sampling ratio θ (exact for oracle samplers, estimated for
/// interface-based ones).
#[derive(Debug, Clone)]
pub struct HiddenSample {
    /// The sampled records, deduplicated by external id.
    pub records: Vec<Retrieved>,
    /// Sampling ratio θ = |Hs| / |H| (or its estimate).
    pub theta: f64,
}

impl HiddenSample {
    /// Number of sampled records `|Hs|`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}
