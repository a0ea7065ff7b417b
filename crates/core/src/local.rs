//! The local database `D` and matching returned pages against it.

use crate::context::TextContext;
use smartcrawl_index::QueryId;
use smartcrawl_match::Matcher;
use smartcrawl_store::{AnyForward, AnyPostings, IndexBackendConfig, StoreReport, StoreRuntime};
use smartcrawl_text::similarity::jaccard;
use smartcrawl_text::{Document, Record, RecordId, TokenId};
use std::collections::HashMap;
use std::sync::Arc;

/// The indexed local database: records, their documents, and an inverted
/// index for query-frequency computation (`|q(D)|`, paper Fig. 3(a)) and
/// fuzzy page matching; the pool takes its `q(D)` lists from the miner
/// instead. The index is either RAM-resident (the default) or the paged on-disk
/// backend of `smartcrawl-store`, selected per run via
/// [`IndexBackendConfig`]; both produce identical match sets, so every
/// caller is backend-oblivious.
#[derive(Debug)]
pub struct LocalDb {
    records: Vec<Record>,
    docs: Vec<Document>,
    index: AnyPostings,
    /// Owns the on-disk files and cache budget when the disk backend is
    /// active; `None` on the RAM path.
    store: Option<Arc<StoreRuntime>>,
}

impl LocalDb {
    /// Tokenizes and indexes `records` into `ctx`'s shared vocabulary
    /// (RAM backend).
    pub fn build(records: Vec<Record>, ctx: &mut TextContext) -> Self {
        match Self::build_with(records, ctx, &IndexBackendConfig::Ram) {
            Ok(db) => db,
            // The RAM path cannot fail (no I/O); keep the historical
            // infallible signature for the dozens of existing call sites.
            // lint:allow(panic-freedom) unreachable: the Ram arm performs no I/O
            Err(e) => panic!("RAM index build failed: {e}"),
        }
    }

    /// Tokenizes and indexes `records` with an explicit index backend.
    pub fn build_with(
        records: Vec<Record>,
        ctx: &mut TextContext,
        backend: &IndexBackendConfig,
    ) -> Result<Self, smartcrawl_store::StoreError> {
        let docs: Vec<Document> = records
            .iter()
            .map(|r| ctx.doc_of_fields(r.fields()))
            .collect();
        let store = match backend {
            IndexBackendConfig::Ram => None,
            IndexBackendConfig::Disk(config) => Some(StoreRuntime::create(config.clone())?),
        };
        let index = AnyPostings::build(&docs, ctx.vocab.len(), store.as_deref())?;
        Ok(Self {
            records,
            docs,
            index,
            store,
        })
    }

    /// Number of local records `|D|`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record at position `i`.
    pub fn record(&self, i: usize) -> &Record {
        &self.records[i]
    }

    /// The document of record `i`.
    pub fn doc(&self, i: usize) -> &Document {
        &self.docs[i]
    }

    /// All documents, record order.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// The inverted index over `D` (RAM or disk).
    pub fn index(&self) -> &AnyPostings {
        &self.index
    }

    /// Builds the forward index (record → queries) on the same backend as
    /// the inverted index, so a disk-backed run keeps `Σ|F(d)|` on disk
    /// too. `matches(q)` is `q(D)` of pool query `q < num_queries`.
    pub fn build_forward<'a>(
        &self,
        num_queries: usize,
        matches: impl Fn(QueryId) -> &'a [RecordId],
    ) -> Result<AnyForward, smartcrawl_store::StoreError> {
        AnyForward::build(self.len(), num_queries, matches, self.store.as_deref())
    }

    /// Page-cache activity of the disk backend (`None` on the RAM path).
    pub fn store_report(&self) -> Option<StoreReport> {
        self.store.as_ref().map(|rt| rt.report())
    }
}

/// Matches *returned hidden documents* against the whole local database —
/// the page-to-`D` direction used by every crawler's bookkeeping.
///
/// Exact matching is one hash lookup. Fuzzy (Jaccard ≥ τ) matching uses a
/// prefix filter: any local record with `J(d, h) ≥ τ` shares at least one
/// of the `⌊(1−τ)·|h|⌋ + 1` *rarest* tokens of `h` (if all shared tokens
/// were outside that prefix, the overlap would be at most `⌈τ|h|⌉ − 1 <
/// τ|h| ≤ |d ∩ h|`, a contradiction) — so only those posting lists are
/// scanned.
#[derive(Debug)]
pub struct LocalMatchIndex<'a> {
    db: &'a LocalDb,
    by_doc: HashMap<&'a Document, Vec<u32>>,
}

impl<'a> LocalMatchIndex<'a> {
    /// Builds the match index over a local database.
    pub fn build(db: &'a LocalDb) -> Self {
        let mut by_doc: HashMap<&Document, Vec<u32>> = HashMap::new();
        for (i, d) in db.docs.iter().enumerate() {
            by_doc.entry(d).or_default().push(i as u32);
        }
        Self { db, by_doc }
    }

    /// Local record positions matching hidden document `h` under `matcher`,
    /// restricted to records where `live[i]`. Pass `None` for no
    /// restriction — unlike an all-true slice, that costs nothing to
    /// construct, which matters for oracle evaluations that call this once
    /// per pool query. Sorted ascending.
    pub fn find_matches(
        &self,
        h: &Document,
        matcher: Matcher,
        live: Option<&[bool]>,
    ) -> Vec<usize> {
        match matcher {
            Matcher::Exact => self
                .by_doc
                .get(h)
                .map(|v| {
                    v.iter()
                        .map(|&i| i as usize)
                        .filter(|&i| live.is_none_or(|l| l[i]))
                        .collect()
                })
                .unwrap_or_default(),
            Matcher::Jaccard { threshold } => {
                if h.is_empty() {
                    return Vec::new();
                }
                // Prefix filter: probe the rarest (1-τ)|h|+1 tokens.
                let prefix_len = ((1.0 - threshold) * h.len() as f64).floor() as usize + 1;
                let mut by_rarity: Vec<TokenId> = h.iter().collect();
                by_rarity.sort_unstable_by_key(|&t| (self.db.index.doc_frequency(t), t));
                let mut candidates: Vec<RecordId> = Vec::new();
                for &t in by_rarity.iter().take(prefix_len.min(by_rarity.len())) {
                    self.db.index.postings_into(t, &mut candidates);
                }
                candidates.sort_unstable();
                candidates.dedup();
                candidates
                    .into_iter()
                    .map(|RecordId(i)| i as usize)
                    .filter(|&i| live.is_none_or(|l| l[i]))
                    .filter(|&i| jaccard(&self.db.docs[i], h) >= threshold)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (LocalDb, TextContext) {
        let mut ctx = TextContext::new();
        let db = LocalDb::build(
            vec![
                Record::from(["thai noodle house"]),
                Record::from(["jade noodle house"]),
                Record::from(["thai house"]),
                Record::from(["thai noodle express"]),
            ],
            &mut ctx,
        );
        (db, ctx)
    }

    #[test]
    fn build_indexes_all_records() {
        let (db, ctx) = setup();
        assert_eq!(db.len(), 4);
        let house = ctx.vocab.get("house").unwrap();
        assert_eq!(db.index().doc_frequency(house), 3);
    }

    #[test]
    fn exact_match_respects_liveness() {
        let (db, mut ctx) = setup();
        let m = LocalMatchIndex::build(&db);
        let h = ctx.doc("thai noodle house");
        assert_eq!(m.find_matches(&h, Matcher::Exact, None), vec![0]);
        assert_eq!(
            m.find_matches(&h, Matcher::Exact, Some(&[true; 4])),
            vec![0]
        );
        assert!(m
            .find_matches(&h, Matcher::Exact, Some(&[false, true, true, true]))
            .is_empty());
    }

    #[test]
    fn duplicate_local_docs_all_match() {
        let mut ctx = TextContext::new();
        let db = LocalDb::build(
            vec![Record::from(["thai house"]), Record::from(["thai house"])],
            &mut ctx,
        );
        let m = LocalMatchIndex::build(&db);
        let h = ctx.doc("thai house");
        assert_eq!(m.find_matches(&h, Matcher::Exact, None), vec![0, 1]);
    }

    #[test]
    fn fuzzy_match_finds_near_duplicates() {
        let mut ctx = TextContext::new();
        // 10-token local record; hidden copy differs by one substitution.
        let words: Vec<String> = (0..10).map(|i| format!("w{i}")).collect();
        let db = LocalDb::build(vec![Record::from([words.join(" ")])], &mut ctx);
        let m = LocalMatchIndex::build(&db);
        let mut h_words = words.clone();
        h_words[9] = "novel".into();
        let h = ctx.doc(&h_words.join(" "));
        // J = 9/11 ≈ 0.82.
        assert_eq!(
            m.find_matches(&h, Matcher::Jaccard { threshold: 0.8 }, None),
            vec![0]
        );
        assert!(m
            .find_matches(&h, Matcher::Jaccard { threshold: 0.9 }, None)
            .is_empty());
    }

    #[test]
    fn fuzzy_match_with_unknown_tokens_in_page_doc() {
        let (db, mut ctx) = setup();
        let m = LocalMatchIndex::build(&db);
        // Hidden doc has a token D has never seen; must still match when
        // similarity clears the bar. J({thai,noodle,house,extra},{thai,
        // noodle,house}) = 3/4.
        let h = ctx.doc("thai noodle house extraword");
        assert_eq!(
            m.find_matches(&h, Matcher::Jaccard { threshold: 0.7 }, Some(&[true; 4])),
            vec![0]
        );
    }

    #[test]
    fn fuzzy_match_agrees_with_brute_force() {
        let (db, mut ctx) = setup();
        let m = LocalMatchIndex::build(&db);
        let probes = [
            "thai noodle house",
            "jade house",
            "noodle express thai",
            "steak palace",
        ];
        for p in probes {
            let h = ctx.doc(p);
            for thr in [0.3, 0.5, 0.8, 1.0] {
                let got = m.find_matches(&h, Matcher::Jaccard { threshold: thr }, None);
                let expect: Vec<usize> = (0..db.len())
                    .filter(|&i| jaccard(db.doc(i), &h) >= thr)
                    .collect();
                assert_eq!(got, expect, "probe {p:?} thr {thr}");
            }
        }
    }
}
