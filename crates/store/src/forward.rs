//! Disk-backed forward index: record → queries it satisfies.
//!
//! Each record's `F(d)` row is delta/varint encoded (reusing the posting
//! codec — query ids within a row ascend) and appended to one blob file
//! in record-id order. Per-record [`Locator`]s stay in RAM (12 bytes per
//! record), so a removal batch reads exactly the rows it touches through
//! the page pool instead of holding `Σ|F(d)|` query ids resident.
//!
//! The build is chunked: it reads the per-query match sets (query →
//! records) by query id, so rows are assembled for a window of 2¹⁶
//! records at a time via `partition_point` range extraction, bounding
//! build memory by the window rather than the whole CSR.

use crate::backend::StoreRuntime;
use crate::blob::{BlobReader, BlobWriter, Locator};
use crate::format::invalid_data;
use crate::postings::{decode_postings_into, encode_postings};
use crate::{expect_store, Result, StoreError};
use smartcrawl_index::QueryId;
use smartcrawl_text::RecordId;

/// Records per build window.
const BUILD_CHUNK: usize = 1 << 16;

/// The disk-backed counterpart of `smartcrawl_index::ForwardIndex`.
#[derive(Debug)]
pub struct DiskForwardIndex {
    num_records: usize,
    num_queries: usize,
    total_incidences: usize,
    /// Per-record row locator, indexed by record id.
    locs: Vec<Locator>,
    blob: BlobReader,
}

impl DiskForwardIndex {
    /// Builds the on-disk forward index for `num_records` records from the
    /// match sets of queries `0..num_queries`: `matches(q)` is `q(D)` of
    /// query `q`, ascending.
    pub fn build<'a>(
        num_records: usize,
        num_queries: usize,
        matches: impl Fn(QueryId) -> &'a [RecordId],
        runtime: &StoreRuntime,
    ) -> Result<Self> {
        let path = runtime.file_path("fwd");
        let mut writer = BlobWriter::create(&path, runtime.config().page_size)?;
        let mut locs = Vec::with_capacity(num_records);
        // One chunk's worth of row buffers, reused (cleared) every chunk.
        let mut rows: Vec<Vec<u32>> = Vec::new();
        rows.resize_with(BUILD_CHUNK.min(num_records), Vec::new);
        let mut encoded = Vec::new();
        let mut total = 0usize;
        let mut lo = 0usize;
        while lo < num_records {
            let hi = (lo + BUILD_CHUNK).min(num_records);
            for q in 0..num_queries {
                let list = matches(QueryId(q as u32));
                let start = list.partition_point(|r| r.index() < lo);
                for &rid in list.get(start..).unwrap_or(&[]) {
                    if rid.index() >= hi {
                        break;
                    }
                    let Some(row) = rows.get_mut(rid.index() - lo) else {
                        return Err(StoreError::Io(invalid_data(
                            "record id out of range in query matches",
                        )));
                    };
                    row.push(q as u32);
                }
            }
            for row in rows.iter_mut().take(hi - lo) {
                encoded.clear();
                encode_postings(row, &mut encoded);
                locs.push(writer.append(&encoded)?);
                total += row.len();
                row.clear();
            }
            lo = hi;
        }
        writer.finish()?;
        Ok(Self {
            num_records,
            num_queries,
            total_incidences: total,
            locs,
            blob: BlobReader::open(&path, runtime.pool())?,
        })
    }

    /// Number of records covered by the index.
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// Pool size the index was built against.
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// Total number of (record, query) incidences — `Σ_d |F(d)|`.
    pub fn total_incidences(&self) -> usize {
        self.total_incidences
    }

    /// Fills `out` with `F(d)` for record `rid` (ascending query ids;
    /// empty for unknown records).
    pub fn queries_of_into(&self, rid: RecordId, out: &mut Vec<QueryId>) {
        out.clear();
        let Some(&loc) = self.locs.get(rid.index()) else {
            return;
        };
        let (mut buf, mut ids) = (Vec::new(), Vec::new());
        expect_store(self.blob.read(loc, &mut buf), "forward row read");
        expect_store(
            decode_postings_into(&buf, &mut ids)
                .ok_or_else(|| StoreError::Io(invalid_data("undecodable forward row"))),
            "forward row decode",
        );
        out.extend(ids.iter().map(|&q| QueryId(q)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreConfig;
    use smartcrawl_index::ForwardIndex;

    #[test]
    fn disk_forward_agrees_with_ram_forward() {
        // q0 matches {r0, r2}, q1 matches {r1}, q2 matches {r0, r1, r2}.
        let matches = [
            vec![RecordId(0), RecordId(2)],
            vec![RecordId(1)],
            vec![RecordId(0), RecordId(1), RecordId(2)],
        ];
        let rt = StoreRuntime::create(StoreConfig {
            page_size: 32,
            cache_pages: 2,
            dir: None,
        })
        .unwrap();
        let list = |q: QueryId| matches[q.index()].as_slice();
        let disk = DiskForwardIndex::build(4, matches.len(), list, &rt).unwrap();
        let ram = ForwardIndex::build(4, matches.len(), list);
        assert_eq!(disk.num_records(), ram.num_records());
        assert_eq!(disk.num_queries(), ram.num_queries());
        assert_eq!(disk.total_incidences(), ram.total_incidences());
        let mut row = Vec::new();
        for r in 0..5 {
            let rid = RecordId(r);
            disk.queries_of_into(rid, &mut row);
            assert_eq!(row, ram.queries_of(rid), "record {r}");
        }
    }
}
