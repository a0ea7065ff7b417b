//! Hidden records, what the interface returns, and the stored form of a
//! returned record.

use smartcrawl_store::format::{read_varint, write_varint};
use smartcrawl_text::Record;
use std::sync::Arc;

/// Opaque identifier a hidden database exposes for its records (a Yelp
/// business id, a DBLP key). Stable across queries; reveals nothing about
/// entity identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExternalId(pub u64);

/// A record as handed to [`HiddenDbBuilder`](crate::HiddenDbBuilder): the
/// built database keeps only its [`Retrieved`] view, and the rank signal
/// orders it.
#[derive(Debug, Clone)]
pub struct HiddenRecord {
    /// The database's own key for the record.
    pub external_id: ExternalId,
    /// The *indexed* attributes (paper footnote 4: only indexed attributes
    /// participate in `document(·)`).
    pub searchable: Record,
    /// Non-indexed enrichment attributes (rating, citation count, …) — the
    /// values the data scientist is after.
    pub payload: Vec<String>,
    /// Internal ranking signal (year, review count, …). The interface never
    /// exposes it; the ranking function consumes it.
    pub rank_signal: f64,
}

impl HiddenRecord {
    /// Convenience constructor.
    pub fn new(
        external_id: u64,
        searchable: Record,
        payload: Vec<String>,
        rank_signal: f64,
    ) -> Self {
        Self { external_id: ExternalId(external_id), searchable, payload, rank_signal }
    }
}

/// One record as returned through the search interface: the indexed fields
/// (so the crawler can match it against local records) plus the enrichment
/// payload. The rank signal stays hidden.
///
/// The string data is `Arc`-backed: a record appears in every page that
/// matches it, flows through interface wrappers (cache, fault injector),
/// and lands in enrichment pairs — sharing makes each of those hops a
/// refcount bump instead of a deep copy of every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieved {
    /// The hidden database's key for this record.
    pub external_id: ExternalId,
    /// Indexed attribute values, as stored.
    pub fields: Arc<[String]>,
    /// Enrichment attributes.
    pub payload: Arc<[String]>,
}

impl Retrieved {
    /// Builds a record from owned cell vectors.
    pub fn new(external_id: ExternalId, fields: Vec<String>, payload: Vec<String>) -> Self {
        Self { external_id, fields: fields.into(), payload: payload.into() }
    }

    /// All indexed fields concatenated (the text a crawler tokenizes).
    pub fn full_text(&self) -> String {
        self.fields.join(" ")
    }
}

/// Appends `cells` as a varint count, then each cell as a varint byte
/// length and its UTF-8 bytes: the cell layout of every stored record
/// (the disk records blob, the scenario spill, the query-cache file).
pub fn write_cells(out: &mut Vec<u8>, cells: &[String]) {
    write_varint(out, cells.len() as u64);
    for c in cells {
        write_varint(out, c.len() as u64);
        out.extend_from_slice(c.as_bytes());
    }
}

/// Reads cells [`write_cells`] wrote at `*pos`, advancing past them.
/// `None` on truncation, on a count larger than the bytes that remain
/// (each cell takes at least one), on a length past the buffer, and on a
/// cell that is not UTF-8.
pub fn read_cells(buf: &[u8], pos: &mut usize) -> Option<Vec<String>> {
    let n = usize::try_from(read_varint(buf, pos)?).ok()?;
    if n > buf.len().saturating_sub(*pos) {
        return None;
    }
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let len = usize::try_from(read_varint(buf, pos)?).ok()?;
        let end = pos.checked_add(len)?;
        let bytes = buf.get(*pos..end)?;
        *pos = end;
        cells.push(String::from_utf8(bytes.to_vec()).ok()?);
    }
    Some(cells)
}

/// Appends the stored form of a returned record: its external id as a
/// varint, then its field and payload cells ([`write_cells`]).
pub fn write_record(out: &mut Vec<u8>, id: ExternalId, fields: &[String], payload: &[String]) {
    write_varint(out, id.0);
    write_cells(out, fields);
    write_cells(out, payload);
}

/// Reads a record [`write_record`] wrote at `*pos`, advancing past it;
/// `None` where [`read_cells`] fails or the id is truncated.
pub fn read_record(buf: &[u8], pos: &mut usize) -> Option<Retrieved> {
    let id = read_varint(buf, pos)?;
    let fields = read_cells(buf, pos)?;
    let payload = read_cells(buf, pos)?;
    Some(Retrieved::new(ExternalId(id), fields, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_wires_fields() {
        let r = HiddenRecord::new(7, Record::from(["Thai House"]), vec!["4.1".into()], 2016.0);
        assert_eq!(r.external_id, ExternalId(7));
        assert_eq!(r.searchable.fields(), ["Thai House".to_owned()]);
        assert_eq!(r.payload, vec!["4.1".to_owned()]);
    }

    #[test]
    fn retrieved_full_text_joins_fields() {
        let r = Retrieved::new(
            ExternalId(1),
            vec!["Thai House".into(), "Vancouver".into()],
            vec![],
        );
        assert_eq!(r.full_text(), "Thai House Vancouver");
    }

    #[test]
    fn read_cells_rejects_truncated_and_implausible_input() {
        let mut buf = Vec::new();
        write_cells(&mut buf, &["thai".to_owned(), "house".to_owned()]);
        // A cell cut short, at every length short of the whole.
        for end in 0..buf.len() {
            assert_eq!(read_cells(&buf[..end], &mut 0), None, "cut at {end}");
        }
        // Implausible counts: more cells than bytes left. The first would
        // reserve terabytes if it were believed.
        let mut implausible = Vec::new();
        write_varint(&mut implausible, 1 << 40);
        assert_eq!(read_cells(&implausible, &mut 0), None);
        assert_eq!(read_cells(&[3, 0, 0], &mut 0), None);
        assert_eq!(read_cells(&[2, 0, 0], &mut 0), Some(vec![String::new(); 2]));
        // A length past the end, one that overflows `pos`, and bad UTF-8.
        assert_eq!(read_cells(&[1, 5, b'a'], &mut 0), None);
        let mut huge = vec![1];
        write_varint(&mut huge, u64::MAX);
        assert_eq!(read_cells(&huge, &mut 0), None);
        assert_eq!(read_cells(&[1, 1, 0xff], &mut 0), None);
    }

    #[test]
    fn retrieved_clones_share_storage() {
        let r = Retrieved::new(ExternalId(2), vec!["Thai House".into()], vec!["4.1".into()]);
        let c = r.clone();
        assert!(Arc::ptr_eq(&r.fields, &c.fields));
        assert!(Arc::ptr_eq(&r.payload, &c.payload));
        assert_eq!(r, c);
    }
}
