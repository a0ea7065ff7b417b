//! The storage-independent face of the forward index.
//!
//! Batched record removal only ever needs forward-list walks, so
//! [`ForwardBackend`] captures exactly that surface, and
//! [`remove_records_batch`] — the one coalescing removal path — runs
//! unchanged against the in-RAM [`ForwardIndex`] of this crate or the
//! paged on-disk rows of `smartcrawl-store`, selected per run.
//!
//! Every method is defined by its *result*, not its algorithm: `F(d)` is a
//! set, listed in ascending query-id order by every backend, so any two
//! correct backends are digest-identical by construction — that is what
//! makes the RAM-vs-disk acceptance check meaningful.

use crate::forward::{ForwardIndex, RemovalScratch};
use crate::QueryId;
use smartcrawl_text::RecordId;

/// Read-only interface of a CSR forward index (record → queries it
/// satisfies). Lists come back in ascending query-id order for every
/// backend, which keeps [`remove_records_batch`]'s first-touch apply
/// order backend-independent.
pub trait ForwardBackend {
    /// Number of records covered by the index.
    fn num_records(&self) -> usize;

    /// Pool size the index was built against (sizes removal scratch).
    fn num_queries(&self) -> usize;

    /// Total number of (record, query) incidences — `Σ_d |F(d)|`.
    fn total_incidences(&self) -> usize;

    /// Replaces `out` with `F(rid)`, ascending query ids (empty for
    /// out-of-range records).
    fn queries_of_into(&self, rid: RecordId, out: &mut Vec<QueryId>);
}

impl ForwardBackend for ForwardIndex {
    fn num_records(&self) -> usize {
        ForwardIndex::num_records(self)
    }

    fn num_queries(&self) -> usize {
        ForwardIndex::num_queries(self)
    }

    fn total_incidences(&self) -> usize {
        ForwardIndex::total_incidences(self)
    }

    fn queries_of_into(&self, rid: RecordId, out: &mut Vec<QueryId>) {
        out.clear();
        out.extend_from_slice(self.queries_of(rid));
    }
}

/// Batched removal of one page's records against any [`ForwardBackend`]:
/// coalesces the per-query decrements across `records` and invokes
/// `apply(q, count, weighted)` exactly once per touched query, where
/// `count` is how many of the removed records match `q` and `weighted`
/// how many of those also satisfied the caller's `weighted` predicate
/// (evaluated once per record).
///
/// Queries are applied in first-touch order — records in caller order,
/// each record's `F(d)` ascending — which is deterministic for a
/// deterministic input order *and* identical across backends (both
/// produce ascending `F(d)`). This is the one removal path shared by the
/// RAM and disk forward indexes, so the bookkeeping order cannot diverge
/// between them by construction. Returns `Σ |F(d)|` over the batch.
pub fn remove_records_batch<B: ForwardBackend + ?Sized>(
    backend: &B,
    records: &[RecordId],
    mut weighted: impl FnMut(RecordId) -> bool,
    scratch: &mut RemovalScratch,
    mut apply: impl FnMut(QueryId, u32, u32),
) -> usize {
    scratch.resize(backend.num_queries());
    let mut incidences = 0usize;
    let mut row = std::mem::take(&mut scratch.row);
    for &rid in records {
        backend.queries_of_into(rid, &mut row);
        incidences += row.len();
        if row.is_empty() {
            continue;
        }
        let w = weighted(rid);
        for &q in &row {
            let i = q.index();
            if scratch.count[i] == 0 {
                scratch.touched.push(q.0);
            }
            scratch.count[i] += 1;
            if w {
                scratch.weighted[i] += 1;
            }
        }
    }
    scratch.row = row;
    // Indexed loop: `apply` may re-borrow the caller's world, and we
    // must reset the scratch counters as we drain.
    for t in 0..scratch.touched.len() {
        let q = QueryId(scratch.touched[t]);
        let i = q.index();
        apply(q, scratch.count[i], scratch.weighted[i]);
        scratch.count[i] = 0;
        scratch.weighted[i] = 0;
    }
    scratch.touched.clear();
    incidences
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_removal_matches_inherent_path() {
        // q0 matches {r0, r2}, q1 matches {r1}, q2 matches {r0, r1, r2}.
        let matches = [
            vec![RecordId(0), RecordId(2)],
            vec![RecordId(1)],
            vec![RecordId(0), RecordId(1), RecordId(2)],
        ];
        let f = ForwardIndex::build(3, matches.len(), |q| &matches[q.index()]);
        let mut scratch = RemovalScratch::default();
        let mut seen = Vec::new();
        let walked = remove_records_batch(
            &f,
            &[RecordId(0), RecordId(1), RecordId(2)],
            |rid| rid == RecordId(1),
            &mut scratch,
            |q, count, weighted| seen.push((q.0, count, weighted)),
        );
        assert_eq!(walked, 6);
        assert_eq!(seen, vec![(0, 2, 0), (2, 3, 1), (1, 1, 1)]);
    }
}
