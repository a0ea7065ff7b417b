//! Query-selection strategies (paper §3.2–§6).
//!
//! All strategies share the same skeleton: iteratively pick the pool query
//! with the largest (estimated) benefit, issue it, account for what came
//! back, and update benefits. They differ in two policies:
//!
//! * **benefit** — what priority a query gets in the queue;
//! * **removal** — which local records leave `D` after a query is issued.
//!
//! | Strategy | Benefit | Removal |
//! |---|---|---|
//! | QSel-Ideal (Alg. 1) | true `|q(D)_cover|` via an oracle | covered records |
//! | QSel-Simple (Alg. 2) | `|q(D)|` | covered records |
//! | QSel-Bound (Alg. 3) | `|q(D)|` | covered if `q(ΔD) = ∅`, else only `q(ΔD)`; query re-enters the pool on mismatch |
//! | QSel-Est (Alg. 4) | Table 1 estimators (biased/unbiased) | covered ∪ (`q(D)` when the query is solid — the ΔD prediction of §4.2) |
//!
//! The engine implementing the shared skeleton lives in [`engine`]; the
//! public crawlers in [`crate::crawl`] wrap it. The engine and the
//! baseline crawlers all match pages against `D` through a `PageMatcher`.

pub mod engine;
mod page_match;

pub use engine::{probe_engine_setup, SelectionStats, SetupProbe};
pub(crate) use page_match::PageMatcher;

use crate::estimate::EstimatorKind;

/// How QSel-Est decides that a query was solid before applying the §4.2
/// ΔD-removal (remove all of `q(D)`, not just the covered records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaRemoval {
    /// A query is solid when the returned page is shorter than `k` — a
    /// *proof* of solidity under Definition 2, making the ΔD prediction
    /// sound. (Our default; see DESIGN.md §7.)
    Observed,
    /// A query is solid when the sample predicts it so (`|q(Hs)|/θ ≤ k`,
    /// with the §6.2 α-rule) — the literal reading of Algorithm 4.
    Predicted,
}

/// A query-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// QSel-Ideal: true benefits through an oracle (evaluation upper
    /// bound; only usable via [`crate::crawl::ideal_crawl`]).
    Ideal,
    /// QSel-Simple: benefit = `|q(D)|`.
    Simple,
    /// QSel-Bound: QSel-Simple with the bounded-regret removal policy of
    /// Algorithm 3 (sound only without a top-k constraint).
    Bound,
    /// QSel-Est: sample-based estimators.
    Est {
        /// Biased (SmartCrawl-B) or unbiased (SmartCrawl-U) estimators.
        kind: EstimatorKind,
        /// Solidity policy for ΔD removal.
        delta_removal: DeltaRemoval,
    },
}

impl Strategy {
    /// SmartCrawl-B: biased estimators, observed solidity.
    pub fn est_biased() -> Self {
        Strategy::Est { kind: EstimatorKind::Biased, delta_removal: DeltaRemoval::Observed }
    }

    /// SmartCrawl-U: unbiased estimators, observed solidity.
    pub fn est_unbiased() -> Self {
        Strategy::Est { kind: EstimatorKind::Unbiased, delta_removal: DeltaRemoval::Observed }
    }

    /// Whether zero-benefit pool entries should be issued anyway.
    ///
    /// Under Ideal/Simple/Bound a zero benefit proves (under the paper's
    /// assumptions) the query is useless, so the engine skips it without
    /// spending budget. QSel-Est issues them: estimated benefits can be
    /// zero for genuinely useful queries (the paper observes SmartCrawl-U
    /// "selecting queries randomly" among zero ties), and skipping would
    /// silently turn QSel-Est into a different algorithm.
    pub(crate) fn issues_zero_benefit(&self) -> bool {
        matches!(self, Strategy::Est { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_pick_expected_kinds() {
        assert!(matches!(
            Strategy::est_biased(),
            Strategy::Est { kind: EstimatorKind::Biased, delta_removal: DeltaRemoval::Observed }
        ));
        assert!(matches!(
            Strategy::est_unbiased(),
            Strategy::Est { kind: EstimatorKind::Unbiased, .. }
        ));
    }

    #[test]
    fn zero_benefit_policy() {
        assert!(!Strategy::Ideal.issues_zero_benefit());
        assert!(!Strategy::Simple.issues_zero_benefit());
        assert!(!Strategy::Bound.issues_zero_benefit());
        assert!(Strategy::est_biased().issues_zero_benefit());
    }
}
