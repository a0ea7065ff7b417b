//! Max-priority queue with deferred ("delta-update") priority maintenance
//! (paper Fig. 3(c), Algorithm 4 lines 16–27).
//!
//! QSel-Est repeatedly needs `argmax_q benefit(q)` over a pool whose
//! benefits decay as local records get covered. Rewriting every affected
//! priority after each iteration would cost `O(|F(d)|·log|Q|)` heap
//! operations per removed record. Instead, the queue keeps possibly-stale
//! priorities and the caller merely *marks* a query dirty when one of its
//! matching records is removed. Only when a dirty query reaches the top is
//! its priority recomputed (via a caller-supplied closure, since the
//! recomputation involves estimator state the queue knows nothing about).
//! A query is returned only once its stored priority is clean — so the
//! returned query is a true maximum.
//!
//! # Layout
//!
//! The queue is a set of dense flat arrays indexed by [`QueryId`], not a
//! [`std::collections::BinaryHeap`] of entry structs:
//!
//! * `heap` — an implicit binary max-heap holding each live query id
//!   exactly once; `pos` maps a query back to its heap slot (or
//!   `NOT_IN_HEAP`). Membership in `heap` *is* liveness.
//! * `priority` — the authoritative stored priority, read directly during
//!   sifts. No priorities are duplicated inside heap entries, so there are
//!   no superseded entries to skip at pop time and the heap never grows
//!   beyond the live query count.
//! * `generation` / `clean_gen` — staleness stamps. `mark_dirty` bumps
//!   `generation` (only when the two stamps agree, so they never drift more
//!   than one apart and a wrapping bump cannot alias a clean state);
//!   recomputation copies `generation` into `clean_gen`. Redundant dirty
//!   marks are counted in `stamp_skips` instead of touching the heap.
//!
//! Ties are broken deterministically by smaller [`QueryId`] (the paper
//! breaks ties randomly; a fixed rule keeps experiments reproducible).
//! The pop *and* recompute sequences are identical to the entry-heap
//! formulation: a dirty query is refreshed exactly when its stale stored
//! priority is the maximum of all stored priorities, and the comparator is
//! a total order, so any valid heap over the same stored priorities drains
//! in the same order.
//!
//! The same argument lets [`LazyQueue::peek`] forecast the next pops
//! without changing the queue, by walking the heap best-first.

use crate::QueryId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Sentinel heap slot meaning "not live".
const NOT_IN_HEAP: u32 = u32::MAX;

/// Lazily-updated max-priority queue keyed by [`QueryId`].
#[derive(Debug, Default)]
pub struct LazyQueue {
    /// Implicit binary max-heap of live query ids.
    heap: Vec<u32>,
    /// Query id → slot in `heap`, or [`NOT_IN_HEAP`].
    pos: Vec<u32>,
    /// Stored (possibly stale) priority per query.
    priority: Vec<f64>,
    /// Bumped by `mark_dirty`; equality with `clean_gen` means clean.
    generation: Vec<u32>,
    /// Value of `generation` when `priority` was last written.
    clean_gen: Vec<u32>,
    /// Dirty marks absorbed because the query was already stale.
    stamp_skips: u64,
}

impl LazyQueue {
    /// Builds a queue over queries `0..priorities.len()` with the given
    /// initial priorities. Heapified in O(n).
    pub fn new(priorities: &[f64]) -> Self {
        let n = priorities.len();
        for &p in priorities {
            assert!(!p.is_nan(), "priority must not be NaN");
        }
        let mut queue = Self {
            heap: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
            priority: priorities.to_vec(),
            generation: vec![0; n],
            clean_gen: vec![0; n],
            stamp_skips: 0,
        };
        queue.heapify();
        queue
    }

    /// Number of live (poppable) queries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no live query remains.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Dirty marks that found the query already dirty: the stamp said the
    /// stored priority was stale, so no second invalidation was needed.
    pub fn stamp_skips(&self) -> u64 {
        self.stamp_skips
    }

    /// (Re-)inserts `query` with `priority`. Revives a previously popped or
    /// removed query. The stored priority becomes clean.
    pub fn push(&mut self, query: QueryId, priority: f64) {
        assert!(!priority.is_nan(), "priority must not be NaN");
        let i = query.index();
        assert!(i < self.pos.len(), "query id out of range");
        self.priority[i] = priority;
        self.clean_gen[i] = self.generation[i];
        if self.pos[i] == NOT_IN_HEAP {
            let slot = self.heap.len();
            self.heap.push(i as u32);
            self.pos[i] = slot as u32;
            self.sift_up(slot);
        } else {
            // Replacing the priority in place can move it either way.
            let slot = self.pos[i] as usize;
            self.sift_up(slot);
            self.sift_down(self.pos[i] as usize);
        }
    }

    /// Marks `query`'s stored priority as stale (the delta-update map entry
    /// `U(q) ≠ 0` in the paper). No-op for dead or out-of-range queries;
    /// a mark on an already-dirty query only counts a stamp skip.
    pub fn mark_dirty(&mut self, query: QueryId) {
        let i = query.index();
        if i >= self.pos.len() || self.pos[i] == NOT_IN_HEAP {
            return;
        }
        if self.generation[i] == self.clean_gen[i] {
            self.generation[i] = self.generation[i].wrapping_add(1);
        } else {
            self.stamp_skips += 1;
        }
    }

    /// Permanently removes `query` from the pool without popping it.
    pub fn remove(&mut self, query: QueryId) {
        let i = query.index();
        if i < self.pos.len() && self.pos[i] != NOT_IN_HEAP {
            self.remove_slot(self.pos[i] as usize);
        }
    }

    /// Whether `query` is currently live.
    pub fn is_live(&self, query: QueryId) -> bool {
        self.pos.get(query.index()).is_some_and(|&s| s != NOT_IN_HEAP)
    }

    /// Rebuilds every live entry with a freshly computed priority.
    ///
    /// Used when the priority *function* changes wholesale (e.g. a new
    /// hidden-database sample arrives mid-crawl): lazy dirty-marking only
    /// supports non-increasing priorities, while a refresh may raise them.
    /// Priorities are recomputed in ascending query-id order (the closure
    /// may carry order-sensitive state); dead queries stay dead.
    pub fn reprioritize(&mut self, mut priority: impl FnMut(QueryId) -> f64) {
        for i in 0..self.pos.len() {
            if self.pos[i] == NOT_IN_HEAP {
                continue;
            }
            let p = priority(QueryId(i as u32));
            assert!(!p.is_nan(), "priority must not be NaN");
            self.priority[i] = p;
            self.clean_gen[i] = self.generation[i];
        }
        self.heapify();
    }

    /// Pops the live query with the (true) largest priority.
    ///
    /// `recompute(q)` is called when a dirty query reaches the top; it must
    /// return the query's current priority. The popped query leaves the
    /// pool (`Q = Q − {q*}` in Algorithms 1–4); [`LazyQueue::push`] revives
    /// it if the caller wants it back (QSel-Bound does).
    pub fn pop_max(&mut self, mut recompute: impl FnMut(QueryId) -> f64) -> Option<(QueryId, f64)> {
        loop {
            let &root = self.heap.first()?;
            let i = root as usize;
            if self.generation[i] != self.clean_gen[i] {
                // Case (2) of §6.3: refresh the priority in place and let
                // it sink to its true position.
                let p = recompute(QueryId(root));
                assert!(!p.is_nan(), "recomputed priority must not be NaN");
                self.priority[i] = p;
                self.clean_gen[i] = self.generation[i];
                self.sift_down(0);
                continue;
            }
            // Case (1): clean top entry — a true maximum.
            self.remove_slot(0);
            return Some((QueryId(root), self.priority[i]));
        }
    }

    /// The first `m` queries that `keep` accepts among those
    /// [`LazyQueue::pop_max`] would return next, with their priorities,
    /// best first — without changing the queue.
    ///
    /// Walks heap slots best-first from the root over a frontier heap in
    /// the queue's own order. A visited slot adds its two children; a
    /// dirty query is recomputed and re-enters at its fresh priority, a
    /// clean one is the next pop. Every unvisited slot is outranked by an
    /// ancestor in the frontier, so `recompute` sees the queries `pop_max`
    /// would refresh, in the same order, and each pop surfaces where
    /// `pop_max` would return it.
    pub fn peek(
        &self,
        m: usize,
        mut recompute: impl FnMut(QueryId) -> f64,
        mut keep: impl FnMut(QueryId, f64) -> bool,
    ) -> Vec<(QueryId, f64)> {
        let mut out = Vec::with_capacity(m);
        let mut frontier = BinaryHeap::new();
        let visit = |frontier: &mut BinaryHeap<Frontier>, slot: usize| {
            if let Some(&query) = self.heap.get(slot) {
                let priority = self.priority[query as usize];
                frontier.push(Frontier { priority, query, slot: slot as u32 });
            }
        };
        visit(&mut frontier, 0);
        while out.len() < m {
            let Some(top) = frontier.pop() else { break };
            let i = top.query as usize;
            if top.slot != NOT_IN_HEAP {
                let slot = top.slot as usize;
                visit(&mut frontier, 2 * slot + 1);
                visit(&mut frontier, 2 * slot + 2);
                if self.generation[i] != self.clean_gen[i] {
                    let priority = recompute(QueryId(top.query));
                    assert!(!priority.is_nan(), "recomputed priority must not be NaN");
                    frontier.push(Frontier { priority, query: top.query, slot: NOT_IN_HEAP });
                    continue;
                }
            }
            if keep(QueryId(top.query), top.priority) {
                out.push((QueryId(top.query), top.priority));
            }
        }
        out
    }

    /// Whether query `a` outranks query `b`.
    fn beats(&self, a: u32, b: u32) -> bool {
        rank(self.priority[a as usize], a, self.priority[b as usize], b).is_gt()
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if !self.beats(self.heap[slot], self.heap[parent]) {
                break;
            }
            self.swap_slots(slot, parent);
            slot = parent;
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * slot + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let mut best = left;
            if right < n && self.beats(self.heap[right], self.heap[left]) {
                best = right;
            }
            if !self.beats(self.heap[best], self.heap[slot]) {
                break;
            }
            self.swap_slots(slot, best);
            slot = best;
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as u32;
        self.pos[self.heap[b] as usize] = b as u32;
    }

    /// Removes the query in heap slot `slot` by swapping in the last leaf.
    fn remove_slot(&mut self, slot: usize) {
        let removed = self.heap.swap_remove(slot);
        self.pos[removed as usize] = NOT_IN_HEAP;
        if slot < self.heap.len() {
            self.pos[self.heap[slot] as usize] = slot as u32;
            // The swapped-in leaf can belong either above or below `slot`.
            // If sift_up moves it, the element pulled down into `slot` came
            // from an ancestor and already dominates the subtree, so the
            // sift_down is a no-op.
            self.sift_up(slot);
            self.sift_down(slot);
        }
    }

    fn heapify(&mut self) {
        for slot in (0..self.heap.len() / 2).rev() {
            self.sift_down(slot);
        }
    }

    /// Forces both stamps of `query` to `stamp` (test-only): lets the
    /// wraparound regression test start a hair below `u32::MAX` without
    /// four billion dirty/clean cycles.
    #[cfg(test)]
    fn force_stamp(&mut self, query: QueryId, stamp: u32) {
        let i = query.index();
        self.generation[i] = stamp;
        self.clean_gen[i] = stamp;
    }
}

/// The queue's total order on (priority, query): higher priority first,
/// then the smaller id.
fn rank(pa: f64, a: u32, pb: f64, b: u32) -> Ordering {
    pa.total_cmp(&pb).then_with(|| b.cmp(&a))
}

/// A [`LazyQueue::peek`] frontier entry: a query at the priority it
/// competes with — stored while its heap slot is unvisited, recomputed
/// after (`slot` is then [`NOT_IN_HEAP`]: its children are already in).
struct Frontier {
    priority: f64,
    query: u32,
    slot: u32,
}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        rank(self.priority, self.query, other.priority, other.query)
    }
}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Frontier {}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QueryId {
        QueryId(i)
    }

    #[test]
    fn pops_in_priority_order() {
        let mut pq = LazyQueue::new(&[1.0, 3.0, 2.0]);
        let no_recompute = |_q: QueryId| unreachable!("nothing is dirty");
        assert_eq!(pq.pop_max(no_recompute), Some((q(1), 3.0)));
        assert_eq!(pq.pop_max(no_recompute), Some((q(2), 2.0)));
        assert_eq!(pq.pop_max(no_recompute), Some((q(0), 1.0)));
        assert_eq!(pq.pop_max(no_recompute), None);
    }

    #[test]
    fn ties_break_toward_smaller_query_id() {
        let mut pq = LazyQueue::new(&[5.0, 5.0, 5.0]);
        let ids: Vec<_> = std::iter::from_fn(|| pq.pop_max(|_| 0.0).map(|(id, _)| id.0)).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn dirty_entry_is_recomputed_before_popping() {
        let mut pq = LazyQueue::new(&[10.0, 8.0]);
        pq.mark_dirty(q(0));
        // q0's true priority dropped to 5 — q1 must now win.
        assert_eq!(pq.pop_max(|_| 5.0), Some((q(1), 8.0)));
        assert_eq!(pq.pop_max(|_| unreachable!()), Some((q(0), 5.0)));
    }

    #[test]
    fn recompute_happens_once_per_dirtying() {
        let mut pq = LazyQueue::new(&[10.0, 1.0]);
        pq.mark_dirty(q(0));
        let mut calls = 0;
        assert_eq!(
            pq.pop_max(|_| {
                calls += 1;
                9.0
            }),
            Some((q(0), 9.0))
        );
        assert_eq!(calls, 1);
    }

    #[test]
    fn removed_query_is_never_popped() {
        let mut pq = LazyQueue::new(&[10.0, 8.0]);
        pq.remove(q(0));
        assert_eq!(pq.len(), 1);
        assert_eq!(pq.pop_max(|_| 0.0), Some((q(1), 8.0)));
        assert_eq!(pq.pop_max(|_| 0.0), None);
    }

    #[test]
    fn push_revives_popped_query() {
        let mut pq = LazyQueue::new(&[4.0]);
        assert_eq!(pq.pop_max(|_| 0.0), Some((q(0), 4.0)));
        assert!(pq.is_empty());
        pq.push(q(0), 2.5);
        assert_eq!(pq.len(), 1);
        assert_eq!(pq.pop_max(|_| 0.0), Some((q(0), 2.5)));
    }

    #[test]
    fn push_supersedes_old_entries() {
        let mut pq = LazyQueue::new(&[4.0, 3.0]);
        pq.push(q(0), 1.0); // old 4.0 priority is overwritten
        assert_eq!(pq.pop_max(|_| 0.0), Some((q(1), 3.0)));
        assert_eq!(pq.pop_max(|_| 0.0), Some((q(0), 1.0)));
    }

    #[test]
    fn mark_dirty_on_dead_query_is_noop() {
        let mut pq = LazyQueue::new(&[4.0]);
        pq.remove(q(0));
        pq.mark_dirty(q(0));
        assert_eq!(pq.pop_max(|_| unreachable!()), None);
    }

    #[test]
    #[should_panic(expected = "priority must not be NaN")]
    fn nan_priorities_are_rejected() {
        LazyQueue::new(&[f64::NAN]);
    }

    #[test]
    fn reprioritize_rebuilds_live_entries_only() {
        let mut pq = LazyQueue::new(&[1.0, 2.0, 3.0]);
        assert_eq!(pq.pop_max(|_| 0.0), Some((q(2), 3.0)));
        pq.mark_dirty(q(0));
        // New priority function *raises* q0 above q1 — something the
        // dirty mechanism alone could not express soundly.
        pq.reprioritize(|id| if id == q(0) { 10.0 } else { 1.0 });
        assert_eq!(pq.len(), 2);
        assert_eq!(pq.pop_max(|_| unreachable!("nothing dirty")), Some((q(0), 10.0)));
        assert_eq!(pq.pop_max(|_| unreachable!()), Some((q(1), 1.0)));
        assert_eq!(pq.pop_max(|_| 0.0), None, "popped q2 must stay dead");
    }

    #[test]
    fn reprioritize_clears_stale_entries() {
        let mut pq = LazyQueue::new(&[5.0, 4.0]);
        pq.push(q(0), 9.0); // supersede
        pq.reprioritize(|_| 1.0);
        // Old 5.0/9.0 priorities must not resurface.
        assert_eq!(pq.pop_max(|_| unreachable!()), Some((q(0), 1.0)));
        assert_eq!(pq.pop_max(|_| unreachable!()), Some((q(1), 1.0)));
    }

    #[test]
    fn redundant_dirty_marks_are_counted_not_restamped() {
        let mut pq = LazyQueue::new(&[10.0, 1.0]);
        pq.mark_dirty(q(0));
        pq.mark_dirty(q(0));
        pq.mark_dirty(q(0));
        assert_eq!(pq.stamp_skips(), 2);
        let mut calls = 0;
        assert_eq!(
            pq.pop_max(|_| {
                calls += 1;
                9.0
            }),
            Some((q(0), 9.0))
        );
        assert_eq!(calls, 1, "three marks still cost one recompute");
    }

    #[test]
    fn generation_stamp_wraparound_keeps_staleness_sound() {
        let mut pq = LazyQueue::new(&[10.0, 8.0]);
        // Start the stamp at the very top of the u32 range: the next dirty
        // mark wraps generation to 0 while clean_gen stays at u32::MAX.
        pq.force_stamp(q(0), u32::MAX);
        pq.mark_dirty(q(0));
        // The wrapped stamp must still read as dirty (inequality, not
        // ordering), and a redundant mark must not bump it into aliasing
        // the clean state.
        pq.mark_dirty(q(0));
        assert_eq!(pq.stamp_skips(), 1);
        assert_eq!(pq.pop_max(|_| 5.0), Some((q(1), 8.0)), "stale q0 must lose to q1");
        // After the recompute, the query is clean across the wrap and pops
        // without another recompute.
        assert_eq!(pq.pop_max(|_| unreachable!("q0 is clean")), Some((q(0), 5.0)));
    }
}
