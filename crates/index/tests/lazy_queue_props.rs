//! Property tests for the dense generation-stamped [`LazyQueue`]: random
//! interleavings of push / mark_dirty / remove / pop_max must behave
//! exactly like a naive reference model that stores `(priority, dirty,
//! alive)` per query and scans for the maximum on every pop.
//!
//! The comparison is strict: popped `(query, priority)` pairs, the full
//! *recompute call sequence* (which queries were refreshed, in which
//! order), and liveness/len after every operation. The recompute order
//! matters beyond the test — engine recompute closures mutate estimator
//! and vocabulary state, so the dense queue must preserve the entry-heap
//! formulation's trace, not just its final answers.
//!
//! [`LazyQueue::peek`] is held to the same model: its forecast must be the
//! model's next pops, through the same recompute calls, and the queue
//! must drain afterwards exactly as if it had never been peeked.

use proptest::prelude::*;
use smartcrawl_index::{LazyQueue, QueryId};

/// Reference model: flat per-query state, O(n) scan per pop.
#[derive(Clone)]
struct Naive {
    priority: Vec<f64>,
    dirty: Vec<bool>,
    alive: Vec<bool>,
}

impl Naive {
    fn new(init: &[f64]) -> Self {
        Self {
            priority: init.to_vec(),
            dirty: vec![false; init.len()],
            alive: vec![true; init.len()],
        }
    }

    fn push(&mut self, q: usize, p: f64) {
        self.alive[q] = true;
        self.dirty[q] = false;
        self.priority[q] = p;
    }

    fn top(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for q in 0..self.priority.len() {
            if !self.alive[q] {
                continue;
            }
            best = match best {
                None => Some(q),
                // Strict `>` keeps the smaller id on ties (q ascends).
                Some(b) if self.priority[q] > self.priority[b] => Some(q),
                Some(b) => Some(b),
            };
        }
        best
    }

    fn pop_max(&mut self, recompute: &mut impl FnMut(usize) -> f64) -> Option<(usize, f64)> {
        loop {
            let q = self.top()?;
            if self.dirty[q] {
                self.priority[q] = recompute(q);
                self.dirty[q] = false;
                continue;
            }
            self.alive[q] = false;
            return Some((q, self.priority[q]));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn dense_queue_matches_naive_reference(
        init in prop::collection::vec((0u32..8).prop_map(|x| f64::from(x) * 0.5), 1..8),
        ops in prop::collection::vec((0u32..4, 0u32..8, 0u32..8), 0..80),
    ) {
        let n = init.len();
        let mut dense = LazyQueue::new(&init);
        let mut naive = Naive::new(&init);
        // Recompute is a pure, decreasing function of (query, times that
        // query has been refreshed); each side tracks its own call count
        // and both append to a log so order divergence is caught even when
        // the returned values happen to collide.
        let mut dense_calls = vec![0u32; n];
        let mut naive_calls = vec![0u32; n];
        let mut dense_log = Vec::new();
        let mut naive_log = Vec::new();
        for &(kind, qraw, praw) in &ops {
            let q = (qraw as usize) % n;
            match kind {
                0 => {
                    let p = f64::from(praw) * 0.5;
                    dense.push(QueryId(q as u32), p);
                    naive.push(q, p);
                }
                1 => {
                    dense.mark_dirty(QueryId(q as u32));
                    if naive.alive[q] {
                        naive.dirty[q] = true;
                    }
                }
                2 => {
                    dense.remove(QueryId(q as u32));
                    naive.alive[q] = false;
                }
                _ => {
                    let d = dense.pop_max(|id| {
                        dense_log.push(id.0);
                        let c = &mut dense_calls[id.index()];
                        *c += 1;
                        init[id.index()] / f64::from(1u32 << (*c).min(20))
                    });
                    let r = naive.pop_max(&mut |id| {
                        naive_log.push(id as u32);
                        let c = &mut naive_calls[id];
                        *c += 1;
                        init[id] / f64::from(1u32 << (*c).min(20))
                    });
                    prop_assert_eq!(d, r.map(|(id, p)| (QueryId(id as u32), p)));
                }
            }
            prop_assert_eq!(&dense_log, &naive_log, "recompute sequences diverged");
            let live = naive.alive.iter().filter(|&&a| a).count();
            prop_assert_eq!(dense.len(), live);
            prop_assert_eq!(dense.is_empty(), live == 0);
            for i in 0..n {
                prop_assert_eq!(dense.is_live(QueryId(i as u32)), naive.alive[i]);
            }
        }
        // Drain both queues to force every remaining comparison.
        loop {
            let d = dense.pop_max(|id| {
                dense_log.push(id.0);
                init[id.index()]
            });
            let r = naive.pop_max(&mut |id| {
                naive_log.push(id as u32);
                init[id]
            });
            prop_assert_eq!(d, r.map(|(id, p)| (QueryId(id as u32), p)));
            if d.is_none() {
                break;
            }
        }
        prop_assert_eq!(&dense_log, &naive_log);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn peek_forecasts_the_next_pops_and_changes_nothing(
        init in prop::collection::vec((0u32..8).prop_map(|x| f64::from(x) * 0.5), 1..12),
        ops in prop::collection::vec((0u32..4, 0u32..12, 0u32..8), 0..60),
        m in 0usize..6,
        reject in (0u32..8).prop_map(|x| f64::from(x) * 0.5),
    ) {
        let n = init.len();
        let mut dense = LazyQueue::new(&init);
        let mut naive = Naive::new(&init);
        // Both sides see the same recompute: a decreasing function of how
        // often the query has been refreshed so far.
        let mut calls = vec![0u32; n];
        let fresh = |calls: &[u32], q: usize| init[q] / f64::from(1u32 << (calls[q] + 1).min(20));
        for &(kind, qraw, praw) in &ops {
            let q = (qraw as usize) % n;
            match kind {
                0 => {
                    let p = f64::from(praw) * 0.5;
                    dense.push(QueryId(q as u32), p);
                    naive.push(q, p);
                }
                1 => {
                    dense.mark_dirty(QueryId(q as u32));
                    if naive.alive[q] {
                        naive.dirty[q] = true;
                    }
                }
                2 => {
                    dense.remove(QueryId(q as u32));
                    naive.alive[q] = false;
                }
                _ => {
                    let mut dense_refreshed = Vec::new();
                    let d = dense.pop_max(|id| {
                        dense_refreshed.push(id.index());
                        fresh(&calls, id.index())
                    });
                    let r = naive.pop_max(&mut |id| fresh(&calls, id));
                    prop_assert_eq!(d, r.map(|(id, p)| (QueryId(id as u32), p)));
                    for q in dense_refreshed {
                        calls[q] += 1;
                    }
                }
            }
        }

        // The forecast: the model's next `m` accepted pops, taken from a
        // copy, through the same recompute calls in the same order.
        let keep = |_: QueryId, p: f64| p != reject;
        let mut peek_log = Vec::new();
        let hints = dense.peek(m, |id| {
            peek_log.push(id.0);
            fresh(&calls, id.index())
        }, keep);
        let mut model = naive.clone();
        let mut model_log = Vec::new();
        let mut expected = Vec::new();
        while expected.len() < m {
            let popped = model.pop_max(&mut |id| {
                model_log.push(id as u32);
                fresh(&calls, id)
            });
            let Some((q, p)) = popped else { break };
            if keep(QueryId(q as u32), p) {
                expected.push((QueryId(q as u32), p));
            }
        }
        prop_assert_eq!(&hints, &expected);
        prop_assert_eq!(&peek_log, &model_log, "recompute sequences diverged");

        // The peeked queue drains exactly like the unpeeked model.
        let mut dense_log = Vec::new();
        let mut naive_log = Vec::new();
        loop {
            let d = dense.pop_max(|id| {
                dense_log.push(id.0);
                fresh(&calls, id.index())
            });
            let r = naive.pop_max(&mut |id| {
                naive_log.push(id as u32);
                fresh(&calls, id)
            });
            prop_assert_eq!(d, r.map(|(id, p)| (QueryId(id as u32), p)));
            if d.is_none() {
                break;
            }
        }
        prop_assert_eq!(&dense_log, &naive_log);
    }
}
