//! The local database `D` and matching returned pages against it.

use crate::context::TextContext;
use smartcrawl_index::{InvertedIndex, QueryId};
use smartcrawl_match::Matcher;
use smartcrawl_store::{AnyForward, IndexBackendConfig, StoreReport, StoreRuntime};
use smartcrawl_text::similarity::jaccard;
use smartcrawl_text::{Document, Record, RecordId, TokenId};
use std::collections::HashMap;
use std::sync::Arc;

/// The indexed local database: records, their documents, and the one
/// inverted index over `D` (paper Fig. 3(a)), always in RAM. Its token
/// lists feed the pool's miner and naive-query filter and the fuzzy
/// page-matching prefix filter. [`IndexBackendConfig`] chooses where the
/// forward index built from the pool goes ([`build_forward`]); both
/// places hold the same rows, so every caller is backend-oblivious.
///
/// [`build_forward`]: LocalDb::build_forward
#[derive(Debug)]
pub struct LocalDb {
    records: Vec<Record>,
    docs: Vec<Document>,
    index: InvertedIndex,
    /// Owns the on-disk files and cache budget when the disk backend is
    /// active; `None` on the RAM path.
    store: Option<Arc<StoreRuntime>>,
}

impl LocalDb {
    /// Tokenizes and indexes `records` into `ctx`'s shared vocabulary
    /// (RAM backend).
    pub fn build(records: Vec<Record>, ctx: &mut TextContext) -> Self {
        Self::build_on(records, ctx, None)
    }

    /// Tokenizes and indexes `records` with an explicit forward-index
    /// backend; fails only if the disk backend's store cannot be created.
    pub fn build_with(
        records: Vec<Record>,
        ctx: &mut TextContext,
        backend: &IndexBackendConfig,
    ) -> Result<Self, smartcrawl_store::StoreError> {
        let store = match backend {
            IndexBackendConfig::Ram => None,
            IndexBackendConfig::Disk(config) => Some(StoreRuntime::create(config.clone())?),
        };
        Ok(Self::build_on(records, ctx, store))
    }

    fn build_on(
        records: Vec<Record>,
        ctx: &mut TextContext,
        store: Option<Arc<StoreRuntime>>,
    ) -> Self {
        let docs: Vec<Document> = records
            .iter()
            .map(|r| ctx.doc_of_fields(r.fields()))
            .collect();
        let index = InvertedIndex::build(&docs, ctx.vocab.len());
        Self {
            records,
            docs,
            index,
            store,
        }
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

    /// The inverted index over `D`: `postings(t)` lists the records
    /// holding token `t`, ascending.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Builds the forward index (record → queries) on the backend chosen
    /// at build time, so a disk-backed run keeps `Σ|F(d)|` on disk.
    /// `matches(q)` is `q(D)` of pool query `q < num_queries`.
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

/// Matches hidden documents against the whole local database: the one
/// place a crawl decides matches. A crawl probes it once per distinct
/// returned record, and
/// [`SampleIndex::local_matches`](crate::SampleIndex::local_matches) once
/// per sample record.
///
/// Exact matching is one hash lookup. Fuzzy (Jaccard ≥ τ) matching uses a
/// prefix filter. Let `m` be the least overlap with `m / |h| ≥ τ`, in the
/// same floating-point division [`jaccard`] performs. A local record with
/// `J(d, h) ≥ τ` shares at least `m` tokens with `h`: `|d ∪ h| ≥ |h|`, and
/// a rounded quotient never grows with its denominator. So it holds one of
/// any `|h| − m + 1` tokens of `h`, and only the posting lists of the
/// `|h| − m + 1` *rarest* are scanned. (The real-number bound
/// `⌊(1−τ)·|h|⌋ + 1` is one short whenever `(1−τ)·|h|` rounds down past
/// an integer, as `(1 − 0.9) · 10` does.)
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

    /// The local database this index matches against.
    pub fn db(&self) -> &'a LocalDb {
        self.db
    }

    /// Local record positions matching hidden document `h` under `matcher`,
    /// sorted ascending.
    pub fn find_matches(&self, h: &Document, matcher: Matcher) -> Vec<usize> {
        match matcher {
            Matcher::Exact => self
                .by_doc
                .get(h)
                .map(|v| v.iter().map(|&i| i as usize).collect())
                .unwrap_or_default(),
            Matcher::Jaccard { threshold } => {
                // The least overlap `m` (see the type docs); an empty `h`
                // has none and matches nothing.
                let n = h.len();
                let Some(m) = (1..=n).find(|&m| m as f64 / n as f64 >= threshold) else {
                    return Vec::new();
                };
                let mut by_rarity: Vec<TokenId> = h.iter().collect();
                by_rarity.sort_unstable_by_key(|&t| (self.db.index.doc_frequency(t), t));
                let mut candidates: Vec<RecordId> = Vec::new();
                for &t in &by_rarity[..n - m + 1] {
                    candidates.extend_from_slice(self.db.index.postings(t));
                }
                candidates.sort_unstable();
                candidates.dedup();
                candidates
                    .into_iter()
                    .map(|RecordId(i)| i as usize)
                    .filter(|&i| jaccard(&self.db.docs[i], h) >= threshold)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SampleIndex;
    use proptest::prelude::*;
    use smartcrawl_hidden::{ExternalId, Retrieved};
    use smartcrawl_sampler::HiddenSample;

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
    fn exact_match_finds_only_the_equal_document() {
        let (db, mut ctx) = setup();
        let m = LocalMatchIndex::build(&db);
        let h = ctx.doc("thai noodle house");
        assert_eq!(m.find_matches(&h, Matcher::Exact), vec![0]);
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
        assert_eq!(m.find_matches(&h, Matcher::Exact), vec![0, 1]);
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
            m.find_matches(&h, Matcher::Jaccard { threshold: 0.8 }),
            vec![0]
        );
        assert!(m
            .find_matches(&h, Matcher::Jaccard { threshold: 0.9 })
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
            m.find_matches(&h, Matcher::Jaccard { threshold: 0.7 }),
            vec![0]
        );
    }

    #[test]
    fn fuzzy_match_reaches_the_threshold_exactly() {
        // J = 9/10 = 0.9 exactly, and the record lacks the page's rarest
        // token: the prefix must hold two tokens, not one.
        let mut ctx = TextContext::new();
        let words: Vec<String> = (0..9).map(|i| format!("w{i}")).collect();
        let db = LocalDb::build(vec![Record::from([words.join(" ")])], &mut ctx);
        let m = LocalMatchIndex::build(&db);
        let h = ctx.doc(&format!("{} novel", words.join(" ")));
        assert_eq!(m.find_matches(&h, Matcher::paper_fuzzy()), vec![0]);
    }

    /// Words `w0..` of the local vocabulary; page documents add `n0..`,
    /// which `D` lacks.
    const WORDS: usize = 12;

    /// The text of a document holding the picked words; a stop word alone
    /// when none are picked, which tokenizes to the empty document.
    fn text(prefix: char, picks: &[usize]) -> String {
        if picks.is_empty() {
            return "the".to_owned();
        }
        let words: Vec<String> = picks.iter().map(|i| format!("{prefix}{i}")).collect();
        words.join(" ")
    }

    /// Brute force over every local record: `Matcher::matches`, except
    /// that under Jaccard an empty document matches nothing, although
    /// `jaccard` of two empty documents is 1.0.
    fn brute_force(db: &LocalDb, h: &Document, matcher: Matcher) -> Vec<usize> {
        (0..db.len())
            .filter(|&i| match matcher {
                Matcher::Jaccard { .. } if h.is_empty() => false,
                _ => matcher.matches(db.doc(i), h),
            })
            .collect()
    }

    proptest! {
        #[test]
        fn fuzzy_match_agrees_with_brute_force(
            docs in prop::collection::vec(prop::collection::vec(0usize..WORDS, 0..11), 1..12),
            copies in prop::collection::vec(0usize..12, 0..4),
            // (local source, novel words, random words): a page document
            // is local document `source` plus `novel` words D lacks (an
            // at-threshold pair when the sizes line up), or, when there is
            // no such document, the random words. The page documents are
            // also a sample.
            pages in prop::collection::vec(
                (0usize..18, 0usize..8, prop::collection::vec(0usize..WORDS + 4, 0..11)),
                1..6,
            ),
        ) {
            let mut docs = docs;
            let dups: Vec<Vec<usize>> =
                copies.iter().filter_map(|&i| docs.get(i).cloned()).collect();
            docs.extend(dups);
            let mut ctx = TextContext::new();
            let records = docs.iter().map(|d| Record::from([text('w', d)])).collect();
            let db = LocalDb::build(records, &mut ctx);
            let m = LocalMatchIndex::build(&db);
            let texts: Vec<String> = pages
                .iter()
                .map(|(source, novel, random)| match docs.get(*source) {
                    Some(d) => {
                        let novel: Vec<usize> = (0..*novel).collect();
                        format!("{} {}", text('w', d), text('n', &novel))
                    }
                    None => text('w', random),
                })
                .collect();
            let page_docs: Vec<Document> = texts.iter().map(|t| ctx.doc(t)).collect();
            let sample = HiddenSample {
                records: texts
                    .iter()
                    .enumerate()
                    .map(|(i, t)| Retrieved::new(ExternalId(i as u64), vec![t.clone()], vec![]))
                    .collect(),
                theta: 1.0,
            };
            let sample = SampleIndex::build(&sample, &mut ctx);
            let matchers = [0.3, 0.5, 0.55, 0.7, 0.8, 0.9, 1.0]
                .map(|threshold| Matcher::Jaccard { threshold });
            for matcher in std::iter::once(Matcher::Exact).chain(matchers) {
                let mut matched = vec![false; db.len()];
                for h in &page_docs {
                    let expect = brute_force(&db, h, matcher);
                    prop_assert_eq!(
                        m.find_matches(h, matcher),
                        expect.clone(),
                        "page {:?} under {:?}",
                        h,
                        matcher
                    );
                    for d in expect {
                        matched[d] = true;
                    }
                }
                prop_assert_eq!(
                    sample.local_matches(&m, matcher),
                    matched,
                    "sample {:?} under {:?}",
                    page_docs,
                    matcher
                );
            }
        }
    }
}
