//! Forward index: record → queries it satisfies (paper Fig. 3(b)).
//!
//! When a local record `d` is removed from `D` (because it was covered, or
//! predicted to lie in `ΔD`), only the queries in `F(d)` need their
//! frequency `|q(D)|` decremented. `F(d)` is typically tiny compared to the
//! pool, which is what makes the delta-update mechanism pay off.
//!
//! # Layout
//!
//! The index is stored in CSR (compressed sparse row) form: one flat
//! `postings` array of query ids plus an `offsets` array delimiting each
//! record's slice. Compared to a `Vec<Vec<QueryId>>` this removes a pointer
//! chase per record and keeps the whole structure in two contiguous
//! allocations — the removal path walks `F(d)` for every record of every
//! page, so locality matters.
//!
//! [`ForwardIndex::remove_records`] batches one page's removals: the
//! per-query decrements are coalesced in [`RemovalScratch`] and handed to
//! the caller once per touched query, so a query matched by ten removed
//! records gets one frequency update and one queue invalidation instead of
//! ten.

use crate::QueryId;
use smartcrawl_text::RecordId;

/// Immutable record → query-list mapping in CSR layout.
#[derive(Debug, Clone, Default)]
pub struct ForwardIndex {
    /// `offsets[r]..offsets[r+1]` delimits record `r`'s slice of `postings`.
    offsets: Vec<u32>,
    /// All `F(d)` lists back to back, ascending query id within a record.
    postings: Vec<QueryId>,
    /// Pool size the index was built against (sizes removal scratch).
    num_queries: usize,
}

impl ForwardIndex {
    /// Builds the forward index for `num_records` records from the match
    /// sets of queries `0..num_queries`: `matches(q)` is `q(D)` of query
    /// `q`, ascending.
    ///
    /// Two passes over the queries in id order: count each record's list
    /// length, prefix-sum into offsets, then fill — visiting queries in
    /// ascending order a second time leaves every record's slice sorted by
    /// query id.
    pub fn build<'a>(
        num_records: usize,
        num_queries: usize,
        matches: impl Fn(QueryId) -> &'a [RecordId],
    ) -> Self {
        let mut offsets = vec![0u32; num_records + 1];
        for q in 0..num_queries {
            for &rid in matches(QueryId(q as u32)) {
                offsets[rid.index() + 1] += 1;
            }
        }
        for r in 0..num_records {
            offsets[r + 1] += offsets[r];
        }
        let mut cursor: Vec<u32> = offsets[..num_records].to_vec();
        let mut postings = vec![QueryId(0); offsets[num_records] as usize];
        for q in 0..num_queries {
            let qid = QueryId(q as u32);
            for &rid in matches(qid) {
                let slot = cursor[rid.index()];
                postings[slot as usize] = qid;
                cursor[rid.index()] = slot + 1;
            }
        }
        Self {
            offsets,
            postings,
            num_queries,
        }
    }

    /// `F(d)`: the queries satisfied by record `rid`.
    pub fn queries_of(&self, rid: RecordId) -> &[QueryId] {
        let i = rid.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.postings[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of records covered by the index.
    pub fn num_records(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Pool size the index was built against.
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// Total number of (record, query) incidences — `Σ_d |F(d)|`.
    pub fn total_incidences(&self) -> usize {
        self.postings.len()
    }

    /// Batched removal of one page's records: coalesces the per-query
    /// decrements across `records` and invokes `apply(q, count, weighted)`
    /// exactly once per touched query, where `count` is how many of the
    /// removed records match `q` and `weighted` how many of those also
    /// satisfied the caller's `weighted` predicate (evaluated once per
    /// record, e.g. "was this record sample-matched").
    ///
    /// Queries are applied in first-touch order — records in caller order,
    /// each record's `F(d)` ascending — which is deterministic for a
    /// deterministic input order. Returns `Σ |F(d)|` over the batch (the
    /// incidence count the removal walked, coalesced or not), so existing
    /// forward-touch accounting is preserved.
    /// Delegates to [`crate::backend::remove_records_batch`] — the one
    /// coalescing implementation shared by every
    /// [`ForwardBackend`](crate::backend::ForwardBackend), so the RAM and
    /// disk removal orders cannot diverge.
    pub fn remove_records(
        &self,
        records: &[RecordId],
        weighted: impl FnMut(RecordId) -> bool,
        scratch: &mut RemovalScratch,
        apply: impl FnMut(QueryId, u32, u32),
    ) -> usize {
        crate::backend::remove_records_batch(self, records, weighted, scratch, apply)
    }
}

/// Reusable per-batch buffers for [`ForwardIndex::remove_records`]: dense
/// per-query counters plus the list of queries touched this batch. Keeping
/// them outside the index lets one scratch serve the whole crawl with zero
/// steady-state allocation (counters are reset by draining `touched`, not
/// by clearing the dense arrays).
#[derive(Debug, Clone, Default)]
pub struct RemovalScratch {
    pub(crate) count: Vec<u32>,
    pub(crate) weighted: Vec<u32>,
    pub(crate) touched: Vec<u32>,
    /// Row buffer for backends that must copy `F(d)` out (disk reads).
    pub(crate) row: Vec<QueryId>,
}

impl RemovalScratch {
    /// Ensures the dense counters cover query ids `0..num_queries`.
    pub(crate) fn resize(&mut self, num_queries: usize) {
        if self.count.len() < num_queries {
            self.count.resize(num_queries, 0);
            self.weighted.resize(num_queries, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(num_records: usize, matches: &[Vec<RecordId>]) -> ForwardIndex {
        ForwardIndex::build(num_records, matches.len(), |q| &matches[q.index()])
    }

    #[test]
    fn build_inverts_query_matches() {
        // q0 matches {r0, r2}, q1 matches {r1}, q2 matches {r0, r1, r2}.
        let matches = vec![
            vec![RecordId(0), RecordId(2)],
            vec![RecordId(1)],
            vec![RecordId(0), RecordId(1), RecordId(2)],
        ];
        let f = build(3, &matches);
        assert_eq!(f.queries_of(RecordId(0)), &[QueryId(0), QueryId(2)]);
        assert_eq!(f.queries_of(RecordId(1)), &[QueryId(1), QueryId(2)]);
        assert_eq!(f.queries_of(RecordId(2)), &[QueryId(0), QueryId(2)]);
        assert_eq!(f.total_incidences(), 6);
        assert_eq!(f.num_records(), 3);
    }

    #[test]
    fn record_with_no_queries_has_empty_list() {
        let f = build(2, &[vec![RecordId(0)]]);
        assert_eq!(f.queries_of(RecordId(1)), &[]);
    }

    #[test]
    fn out_of_range_record_yields_empty_slice() {
        let f = build(1, &[]);
        assert_eq!(f.queries_of(RecordId(42)), &[]);
    }

    #[test]
    fn remove_records_coalesces_per_query() {
        // q0 matches {r0, r2}, q1 matches {r1}, q2 matches {r0, r1, r2}.
        let matches = vec![
            vec![RecordId(0), RecordId(2)],
            vec![RecordId(1)],
            vec![RecordId(0), RecordId(1), RecordId(2)],
        ];
        let f = build(3, &matches);
        let mut scratch = RemovalScratch::default();
        let mut seen = Vec::new();
        // r1 is "weighted", r0/r2 are not.
        let walked = f.remove_records(
            &[RecordId(0), RecordId(1), RecordId(2)],
            |rid| rid == RecordId(1),
            &mut scratch,
            |q, count, weighted| seen.push((q.0, count, weighted)),
        );
        assert_eq!(walked, 6);
        // First-touch order: r0 touches q0 then q2, r1 adds q1.
        assert_eq!(seen, vec![(0, 2, 0), (2, 3, 1), (1, 1, 1)]);
    }

    #[test]
    fn removal_scratch_resets_between_batches() {
        let f = build(2, &[vec![RecordId(0), RecordId(1)]]);
        let mut scratch = RemovalScratch::default();
        let mut seen = Vec::new();
        f.remove_records(
            &[RecordId(0)],
            |_| true,
            &mut scratch,
            |q, c, w| {
                seen.push((q.0, c, w));
            },
        );
        f.remove_records(
            &[RecordId(1)],
            |_| false,
            &mut scratch,
            |q, c, w| {
                seen.push((q.0, c, w));
            },
        );
        // The second batch must not inherit the first batch's counters.
        assert_eq!(seen, vec![(0, 1, 1), (0, 1, 0)]);
    }

    #[test]
    fn remove_records_skips_recordless_entries() {
        let f = build(2, &[vec![RecordId(0)]]);
        let mut scratch = RemovalScratch::default();
        let mut calls = 0;
        let walked = f.remove_records(
            &[RecordId(1), RecordId(7)],
            |_| true,
            &mut scratch,
            |_, _, _| {
                calls += 1;
            },
        );
        assert_eq!(walked, 0);
        assert_eq!(calls, 0);
    }
}
