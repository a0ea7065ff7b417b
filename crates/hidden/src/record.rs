//! Hidden records and what the interface returns.

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
    fn retrieved_clones_share_storage() {
        let r = Retrieved::new(ExternalId(2), vec!["Thai House".into()], vec!["4.1".into()]);
        let c = r.clone();
        assert!(Arc::ptr_eq(&r.fields, &c.fields));
        assert!(Arc::ptr_eq(&r.payload, &c.payload));
        assert_eq!(r, c);
    }
}
