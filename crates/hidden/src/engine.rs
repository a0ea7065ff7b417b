//! The hidden database engine.
//!
//! Implements Definition 2 exactly: for a conjunctive query `q`, the engine
//! computes `q(H)` via its inverted index; if `|q(H)| ≤ k` the full match
//! set is returned (a *solid* query), otherwise the top-`k` under the
//! engine's ranking (an *overflowing* query). Query processing is
//! deterministic.
//!
//! The engine fronts one of two backends behind the same API: the
//! all-in-RAM implementation, or the out-of-core `store` backend that
//! keeps records and postings in `smartcrawl-store` paged files with only
//! O(vocabulary) + O(|H| / records per page) + O(page-cache budget) bytes
//! resident. Both number records by global rank position, so their
//! postings are rank-sorted, and both answer every query through the same
//! `topk` scans — the pages are byte-identical because they come from one
//! algorithm. Either way a built engine keeps and returns records only as
//! the interface returns them, [`Retrieved`] views; the rank signal is
//! consumed by the build.

use crate::ranking::Ranking;
use crate::record::{ExternalId, HiddenRecord, Retrieved};
use crate::store::DiskHidden;
use crate::topk;
use smartcrawl_store::{StoreReport, StoreRuntime};
use smartcrawl_text::{Document, TokenId, Tokenizer, Vocabulary};
use std::collections::HashMap;
use std::sync::Arc;

/// Which match semantics the search interface exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Only records containing all query keywords match (the paper's
    /// Definition 1; DBLP-style engines).
    Conjunctive,
    /// Records containing any query keyword are candidates; ranking is by
    /// (number of matched keywords, then the engine ranking), so records
    /// matching all keywords rank at the top — the behaviour the paper
    /// observed on Yelp.
    Disjunctive,
}

/// Builder for [`HiddenDb`].
#[derive(Debug)]
pub struct HiddenDbBuilder {
    k: usize,
    ranking: Ranking,
    mode: SearchMode,
    tokenizer: Tokenizer,
    records: Vec<HiddenRecord>,
}

impl HiddenDbBuilder {
    /// Starts a builder with the paper's defaults (`k = 100`, conjunctive,
    /// rank by descending signal — the DBLP engine ranks by year).
    pub fn new() -> Self {
        Self {
            k: 100,
            ranking: Ranking::SignalDesc,
            mode: SearchMode::Conjunctive,
            tokenizer: Tokenizer::default(),
            records: Vec::new(),
        }
    }

    /// Sets the top-`k` result limit.
    pub fn k(mut self, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        self.k = k;
        self
    }

    /// Sets the (opaque) ranking function.
    pub fn ranking(mut self, ranking: Ranking) -> Self {
        self.ranking = ranking;
        self
    }

    /// Sets the match semantics.
    pub fn mode(mut self, mode: SearchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Adds records.
    pub fn records(mut self, records: impl IntoIterator<Item = HiddenRecord>) -> Self {
        self.records.extend(records);
        self
    }

    /// Builds the all-in-RAM engine (tokenizes and indexes every record).
    pub fn build(self) -> HiddenDb {
        let mut vocab = Vocabulary::new();
        let docs: Vec<Document> = self
            .records
            .iter()
            .map(|r| r.searchable.document(&self.tokenizer, &mut vocab))
            .collect();
        // Rank-space record ids, as on the disk backend: a record's id in
        // the postings is its position in the database-wide ranking order
        // (lower = ranked higher, ties broken by external id), so every
        // posting list comes out ascending and best-ranked first.
        let mut by_rank: Vec<u32> = (0..self.records.len() as u32).collect();
        let ranking = self.ranking;
        by_rank.sort_unstable_by_key(|&i| {
            let r = &self.records[i as usize];
            (ranking.key(r.external_id.0, r.rank_signal), r.external_id.0)
        });
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); vocab.len()];
        for (rank, &i) in by_rank.iter().enumerate() {
            for t in docs[i as usize].iter() {
                postings[t.index()].push(rank as u32);
            }
        }
        let by_external =
            self.records.iter().enumerate().map(|(i, r)| (r.external_id, i)).collect();
        // Clone the cells; `records` and `docs` drop on return. Moving them slowed set-up ~30%.
        let views: Vec<Retrieved> = self
            .records
            .iter()
            .map(|r| {
                Retrieved::new(
                    r.external_id,
                    r.searchable.fields().to_vec(),
                    r.payload.clone(),
                )
            })
            .collect();
        HiddenDb {
            backend: Backend::Ram(RamHidden {
                views,
                postings,
                by_rank,
                by_external,
            }),
            vocab,
            tokenizer: self.tokenizer,
            k: self.k,
            mode: self.mode,
        }
    }

    /// Builds the out-of-core engine: records added so far, chained with
    /// the (possibly huge) `records` iterator, are streamed straight into
    /// `runtime`'s on-disk store format without materializing the set in
    /// RAM. Every query answers byte-identically to [`Self::build`] over
    /// the same record sequence.
    pub fn build_streaming<I>(
        self,
        records: I,
        runtime: Arc<StoreRuntime>,
    ) -> smartcrawl_store::Result<HiddenDb>
    where
        I: IntoIterator<Item = HiddenRecord>,
    {
        let Self { k, ranking, mode, tokenizer, records: eager } = self;
        let mut vocab = Vocabulary::new();
        let disk = DiskHidden::build(
            eager.into_iter().chain(records),
            &tokenizer,
            &mut vocab,
            ranking,
            runtime,
        )?;
        Ok(HiddenDb { backend: Backend::Disk(Box::new(disk)), vocab, tokenizer, k, mode })
    }
}

impl Default for HiddenDbBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The record/ranking backend behind the engine API.
#[derive(Debug)]
enum Backend {
    Ram(RamHidden),
    Disk(Box<DiskHidden>),
}

/// The all-in-RAM backend: one interface view per record, indexed by the
/// insertion positions this engine minted at build time, plus rank-space
/// postings.
#[derive(Debug)]
struct RamHidden {
    /// Each record's interface view, in insertion order; a page clones
    /// two `Arc`s per result.
    views: Vec<Retrieved>,
    /// Per token, the rank positions of the records holding it, ascending.
    postings: Vec<Vec<u32>>,
    /// Insertion position of the record at each rank position.
    by_rank: Vec<u32>,
    by_external: HashMap<ExternalId, usize>,
}

impl RamHidden {
    /// The top-`k` page under `mode`.
    fn page(&self, mode: SearchMode, tokens: &[TokenId], k: usize) -> Vec<Retrieved> {
        let Ok(ranks) = topk::page(&mut self.postings.as_slice(), mode, tokens, k);
        ranks
            .iter()
            .map(|&rank| self.views[self.by_rank[rank as usize] as usize].clone())
            .collect()
    }

    /// `|q(H)|` under conjunctive semantics.
    fn frequency(&self, tokens: &[TokenId]) -> usize {
        let Ok(matches) = topk::conjunctive(&mut self.postings.as_slice(), tokens, usize::MAX);
        matches.len()
    }
}

/// A simulated hidden database with a top-`k` keyword-search interface.
#[derive(Debug)]
pub struct HiddenDb {
    backend: Backend,
    vocab: Vocabulary,
    tokenizer: Tokenizer,
    k: usize,
    mode: SearchMode,
}

impl HiddenDb {
    /// The interface's result-size limit `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of records `|H|` (unknown to crawlers; used by oracles,
    /// samplers with ground truth, and evaluation).
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Ram(ram) => ram.views.len(),
            Backend::Disk(disk) => disk.len(),
        }
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The search mode.
    pub fn mode(&self) -> SearchMode {
        self.mode
    }

    /// The page-cache report of the disk backend, `None` on the RAM path.
    pub fn store_report(&self) -> Option<StoreReport> {
        match &self.backend {
            Backend::Ram(_) => None,
            Backend::Disk(disk) => Some(disk.report()),
        }
    }

    /// The interface view of the record with external id `id`: what a
    /// search page returns for it (evaluation only).
    pub fn get(&self, id: ExternalId) -> Option<Retrieved> {
        match &self.backend {
            Backend::Ram(ram) => ram.by_external.get(&id).map(|&i| ram.views[i].clone()),
            Backend::Disk(disk) => disk.get(id),
        }
    }

    /// The interface view of the record inserted at position `pos` (the
    /// order the builder received them in), or `None` past the end
    /// (evaluation and oracle sampling only). On the disk path the view
    /// is decoded from its records page on every call.
    pub fn view_at(&self, pos: usize) -> Option<Retrieved> {
        match &self.backend {
            Backend::Ram(ram) => ram.views.get(pos).cloned(),
            Backend::Disk(disk) => disk.view_at(u32::try_from(pos).ok()?),
        }
    }

    /// Every record's interface view in insertion order, one
    /// [`view_at`](Self::view_at) per position (evaluation and oracle
    /// sampling only). On the disk path the set is never materialized:
    /// each view decodes on demand from the page pool.
    pub fn iter(&self) -> impl Iterator<Item = Retrieved> + '_ {
        (0..self.len()).filter_map(move |pos| self.view_at(pos))
    }

    /// Executes a keyword search, returning the top-`k` page.
    ///
    /// Keywords are normalized with the engine's tokenizer; stop words are
    /// dropped (the paper does not consider them query keywords). A query
    /// whose every keyword is unknown/stopword matches nothing.
    pub fn search(&self, keywords: &[String]) -> Vec<Retrieved> {
        let tokens = self.normalize(keywords, self.mode);
        if tokens.is_empty() {
            return Vec::new();
        }
        match &self.backend {
            Backend::Ram(ram) => ram.page(self.mode, &tokens, self.k),
            Backend::Disk(disk) => disk.page(self.mode, &tokens, self.k),
        }
    }

    /// `|q(H)|` under *conjunctive* semantics — ground truth for tests and
    /// oracle estimators; a real hidden database never reveals this.
    pub fn true_frequency(&self, keywords: &[String]) -> usize {
        let tokens = self.normalize(keywords, SearchMode::Conjunctive);
        if tokens.is_empty() {
            return 0;
        }
        match &self.backend {
            Backend::Ram(ram) => ram.frequency(&tokens),
            Backend::Disk(disk) => disk.frequency(&tokens),
        }
    }

    /// The query's sorted, deduplicated tokens (stop words dropped). A
    /// keyword outside the vocabulary is held by no record: under
    /// conjunctive semantics it empties the whole query, under disjunctive
    /// semantics it matches no posting list and simply drops out. One
    /// tokenization pass that copies no keyword — this sits on the
    /// oracle-evaluation hot path, where queries are re-scored after every
    /// removal.
    fn normalize(&self, keywords: &[String], mode: SearchMode) -> Vec<TokenId> {
        let mut tokens: Vec<TokenId> = Vec::new();
        let mut unknown = false;
        for kw in keywords {
            self.tokenizer
                .for_each_keyword(kw, |w| match self.vocab.get(w) {
                    Some(id) => tokens.push(id),
                    None => unknown = true,
                });
        }
        if unknown && mode == SearchMode::Conjunctive {
            return Vec::new();
        }
        tokens.sort_unstable();
        tokens.dedup();
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smartcrawl_store::{StoreConfig, StoreRuntime};
    use smartcrawl_text::Record;

    fn db(k: usize, names: &[(&str, f64)]) -> HiddenDb {
        HiddenDbBuilder::new()
            .k(k)
            .records(names.iter().enumerate().map(|(i, &(name, sig))| {
                HiddenRecord::new(i as u64, Record::from([name]), vec![format!("p{i}")], sig)
            }))
            .build()
    }

    #[test]
    fn solid_query_returns_full_match_set() {
        let h = db(10, &[("Thai House", 1.0), ("Steak House", 2.0), ("Ramen Bar", 3.0)]);
        let page = h.search(&["house".into()]);
        assert_eq!(page.len(), 2);
        assert_eq!(h.true_frequency(&["house".into()]), 2);
    }

    #[test]
    fn overflowing_query_truncates_to_top_k_by_ranking() {
        // k = 2, five matching records, SignalDesc: highest signals win.
        let h = db(
            2,
            &[
                ("House a", 2001.0),
                ("House b", 2005.0),
                ("House c", 1999.0),
                ("House d", 2010.0),
                ("House e", 2003.0),
            ],
        );
        let page = h.search(&["house".into()]);
        assert_eq!(page.len(), 2);
        let ids: Vec<u64> = page.iter().map(|r| r.external_id.0).collect();
        assert_eq!(ids, vec![3, 1]); // 2010, then 2005
    }

    #[test]
    fn conjunctive_requires_all_keywords() {
        let h = db(10, &[("Thai Noodle House", 1.0), ("Thai House", 2.0)]);
        assert_eq!(h.search(&["thai".into(), "noodle".into()]).len(), 1);
        assert_eq!(h.search(&["thai".into()]).len(), 2);
        assert!(h.search(&["thai".into(), "pavilion".into()]).is_empty());
    }

    #[test]
    fn stopwords_are_not_query_keywords() {
        let h = db(10, &[("Lotus Siam", 1.0)]);
        // "of" is a stop word: the query reduces to {lotus, siam}.
        let page = h.search(&["lotus".into(), "of".into(), "siam".into()]);
        assert_eq!(page.len(), 1);
    }

    #[test]
    fn deterministic_repeatable_results() {
        let h = db(2, &[("House a", 1.0), ("House b", 2.0), ("House c", 3.0)]);
        let q = vec!["house".to_string()];
        assert_eq!(h.search(&q), h.search(&q));
    }

    #[test]
    fn disjunctive_ranks_full_matches_first() {
        let h = HiddenDbBuilder::new()
            .k(3)
            .mode(SearchMode::Disjunctive)
            .records([
                HiddenRecord::new(0, Record::from(["Thai Palace"]), vec![], 50.0),
                HiddenRecord::new(1, Record::from(["Noodle World"]), vec![], 99.0),
                HiddenRecord::new(2, Record::from(["Thai Noodle House"]), vec![], 1.0),
            ])
            .build();
        let page = h.search(&["thai".into(), "noodle".into()]);
        // Record 2 matches both keywords → ranked first despite low signal.
        assert_eq!(page[0].external_id.0, 2);
        assert_eq!(page.len(), 3);
    }

    #[test]
    fn disjunctive_partial_tail_ranks_by_signal_not_match_count() {
        // Real relevance engines rank the partial tail by popularity: a
        // popular 1-keyword matcher must outrank an unpopular 2-of-3
        // matcher.
        let h = HiddenDbBuilder::new()
            .k(10)
            .mode(SearchMode::Disjunctive)
            .records([
                HiddenRecord::new(0, Record::from(["thai noodle house"]), vec![], 1.0), // full
                HiddenRecord::new(1, Record::from(["thai noodle bar"]), vec![], 2.0), // 2/3, unpopular
                HiddenRecord::new(2, Record::from(["thai palace"]), vec![], 99.0), // 1/3, popular
            ])
            .build();
        let page = h.search(&["thai".into(), "noodle".into(), "house".into()]);
        let ids: Vec<u64> = page.iter().map(|r| r.external_id.0).collect();
        assert_eq!(ids, vec![0, 2, 1], "full match first, then partials by signal");
    }

    #[test]
    fn disjunctive_returns_partial_matches() {
        let h = HiddenDbBuilder::new()
            .k(10)
            .mode(SearchMode::Disjunctive)
            .records([
                HiddenRecord::new(0, Record::from(["Thai Palace"]), vec![], 1.0),
                HiddenRecord::new(1, Record::from(["Ramen Bar"]), vec![], 2.0),
            ])
            .build();
        // Conjunctive would return nothing ("thai ramen" matches no record
        // fully); disjunctive returns both partial matches.
        let page = h.search(&["thai".into(), "ramen".into()]);
        assert_eq!(page.len(), 2);
    }

    #[test]
    fn hashed_ranking_is_opaque_but_stable() {
        let mk = || {
            HiddenDbBuilder::new()
                .k(1)
                .ranking(Ranking::Hashed { seed: 7 })
                .records((0..5).map(|i| {
                    HiddenRecord::new(i, Record::from(["common word"]), vec![], i as f64)
                }))
                .build()
        };
        let a = mk().search(&["common".into()]);
        let b = mk().search(&["common".into()]);
        assert_eq!(a, b);
    }

    #[test]
    fn get_by_external_id() {
        let h = db(10, &[("Thai House", 1.0)]);
        assert!(h.get(ExternalId(0)).is_some());
        assert!(h.get(ExternalId(9)).is_none());
    }

    #[test]
    fn empty_query_returns_nothing() {
        let h = db(10, &[("Thai House", 1.0)]);
        assert!(h.search(&[]).is_empty());
        assert!(h.search(&["the".into()]).is_empty()); // all stopwords
    }

    fn small_runtime() -> Arc<StoreRuntime> {
        StoreRuntime::create(StoreConfig {
            page_size: 256,
            cache_pages: 16,
            dir: None,
        })
        .expect("store runtime")
    }

    fn records() -> Vec<HiddenRecord> {
        let names = [
            "Thai Noodle House",
            "Steak House",
            "Thai Palace",
            "Ramen Bar downtown",
            "Noodle World",
            "Thai House",
            "House of Ramen",
            "Golden Noodle Palace",
        ];
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                HiddenRecord::new(
                    i as u64,
                    Record::from([*name]),
                    vec![format!("p{i}"), format!("q{i}")],
                    ((i * 37) % 11) as f64,
                )
            })
            .collect()
    }

    fn queries() -> Vec<Vec<String>> {
        vec![
            vec!["house".into()],
            vec!["thai".into()],
            vec!["noodle".into(), "thai".into()],
            vec!["ramen".into()],
            vec!["palace".into(), "golden".into()],
            vec!["unknownword".into()],
            vec![],
        ]
    }

    #[test]
    fn disk_backend_matches_ram_conjunctive() {
        let ram = HiddenDbBuilder::new().k(2).records(records()).build();
        let disk = HiddenDbBuilder::new()
            .k(2)
            .build_streaming(records(), small_runtime())
            .expect("disk build");
        for q in queries() {
            assert_eq!(ram.search(&q), disk.search(&q), "query {q:?}");
            assert_eq!(ram.true_frequency(&q), disk.true_frequency(&q), "freq {q:?}");
        }
    }

    #[test]
    fn disk_backend_matches_ram_disjunctive() {
        let ram =
            HiddenDbBuilder::new().k(3).mode(SearchMode::Disjunctive).records(records()).build();
        let disk = HiddenDbBuilder::new()
            .k(3)
            .mode(SearchMode::Disjunctive)
            .build_streaming(records(), small_runtime())
            .expect("disk build");
        for q in queries() {
            assert_eq!(ram.search(&q), disk.search(&q), "query {q:?}");
        }
    }

    #[test]
    fn disk_backend_matches_ram_accessors() {
        let ram = HiddenDbBuilder::new().k(4).records(records()).build();
        let disk = HiddenDbBuilder::new()
            .k(4)
            .build_streaming(records(), small_runtime())
            .expect("disk build");
        assert_eq!(ram.len(), disk.len());
        for id in (0..records().len() as u64 + 2).map(ExternalId) {
            assert_eq!(ram.get(id), disk.get(id), "view of {id:?}");
        }
        // `get` answers with the view a search page returns.
        for q in queries() {
            for h in [&ram, &disk] {
                for view in h.search(&q) {
                    assert_eq!(h.get(view.external_id).as_ref(), Some(&view), "{q:?}");
                }
            }
        }
        // `iter` yields every record's view in insertion order.
        let expect: Vec<Retrieved> = records()
            .into_iter()
            .map(|r| Retrieved::new(r.external_id, r.searchable.fields().to_vec(), r.payload))
            .collect();
        assert_eq!(ram.iter().collect::<Vec<_>>(), expect);
        assert_eq!(disk.iter().collect::<Vec<_>>(), expect);
        assert!(ram.store_report().is_none());
        assert!(disk.store_report().is_some());
    }

    /// Record words ("the" is a stop word), then query-only words: two no
    /// record holds and one more stop word.
    const WORDS: [&str; 11] = [
        "thai", "house", "noodle", "ramen", "palace", "bar", "golden", "the", "unknownword",
        "zzz", "of",
    ];

    /// The page by definition: match every record, rank, cut at `k`.
    fn brute_force(
        records: &[HiddenRecord],
        q: &[String],
        mode: SearchMode,
        ranking: Ranking,
        k: usize,
    ) -> Vec<u64> {
        let words = |r: &HiddenRecord| r.searchable.full_text();
        let holds = |r: &HiddenRecord, w: &str| words(r).split(' ').any(|x| x == w);
        let mut terms: Vec<&str> =
            q.iter().map(String::as_str).filter(|w| !matches!(*w, "the" | "of")).collect();
        terms.sort_unstable();
        terms.dedup();
        if mode == SearchMode::Disjunctive {
            terms.retain(|w| records.iter().any(|r| holds(r, w)));
        }
        if terms.is_empty() {
            return Vec::new();
        }
        let mut hits: Vec<(bool, u64, u64)> = records
            .iter()
            .filter_map(|r| {
                let n = terms.iter().filter(|w| holds(r, w)).count();
                let full = n == terms.len();
                let hit = full || (mode == SearchMode::Disjunctive && n > 0);
                let ext = r.external_id.0;
                hit.then(|| (!full, ranking.key(ext, r.rank_signal), ext))
            })
            .collect();
        hits.sort_unstable();
        hits.into_iter().take(k).map(|(_, _, ext)| ext).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Random corpora whose rank signals repeat (ties fall to the
        /// external id), under an ordered and a hashed ranking, answer
        /// every query identically from `build` and `build_streaming`, and
        /// as the definition says. About a third of the records carry a
        /// payload cell of 200 to 1,000 bytes, so on the disk store's
        /// 256-byte pages some records share a page and some run over
        /// several; `get`, `view_at` and `iter` agree with RAM as well.
        #[test]
        fn random_corpora_answer_identically_in_ram_and_on_disk(
            rows in prop::collection::vec(
                (prop::collection::vec(0usize..8, 1..5), 0u8..4, 0u8..3, 200usize..1001),
                1..80,
            ),
            queries in prop::collection::vec(prop::collection::vec(0usize..11, 0..4), 1..16),
            hashed_seed in 0u64..3,
            k_at in 0usize..3,
        ) {
            let ranking = match hashed_seed {
                0 => Ranking::SignalDesc,
                seed => Ranking::Hashed { seed },
            };
            let k = [1, 2, 100][k_at];
            let records: Vec<HiddenRecord> = rows
                .iter()
                .enumerate()
                .map(|(i, (words, signal, big, len))| {
                    let name: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
                    let ext = (rows.len() - i) as u64 * 3;
                    let name = Record::from([name.join(" ")]);
                    let mut payload = format!("p{i}");
                    if *big == 0 {
                        payload.push_str(&"x".repeat(*len));
                    }
                    HiddenRecord::new(ext, name, vec![payload], f64::from(*signal))
                })
                .collect();
            let queries: Vec<Vec<String>> = queries
                .iter()
                .map(|q| q.iter().map(|&w| WORDS[w].to_string()).collect())
                .collect();
            for mode in [SearchMode::Conjunctive, SearchMode::Disjunctive] {
                let builder = || HiddenDbBuilder::new().k(k).ranking(ranking).mode(mode);
                let ram = builder().records(records.clone()).build();
                let disk = builder()
                    .build_streaming(records.clone(), small_runtime())
                    .expect("disk build");
                for q in &queries {
                    let page = ram.search(q);
                    prop_assert_eq!(&page, &disk.search(q), "{:?} {:?}", mode, q);
                    let ids: Vec<u64> = page.iter().map(|r| r.external_id.0).collect();
                    prop_assert_eq!(ids, brute_force(&records, q, mode, ranking, k), "{:?} {:?}", mode, q);
                    let freq = ram.true_frequency(q);
                    prop_assert_eq!(freq, disk.true_frequency(q), "frequency of {:?}", q);
                    let conjunctive = brute_force(&records, q, SearchMode::Conjunctive, ranking, usize::MAX);
                    prop_assert_eq!(freq, conjunctive.len(), "frequency of {:?}", q);
                }
                prop_assert_eq!(ram.len(), disk.len());
                for pos in 0..=records.len() {
                    prop_assert_eq!(ram.view_at(pos), disk.view_at(pos), "position {}", pos);
                }
                prop_assert_eq!(ram.iter().collect::<Vec<_>>(), disk.iter().collect::<Vec<_>>());
                for ext in (0..=records.len() as u64 + 1).map(|i| ExternalId(i * 3)) {
                    prop_assert_eq!(ram.get(ext), disk.get(ext), "{:?}", ext);
                }
            }
        }
    }
}
