//! Runtime ownership and RAM/disk dispatch.
//!
//! A [`StoreRuntime`] owns the directory the store files live in, hands
//! out file paths, and owns the one [`PagePool`] every file it hosts
//! reads through, whose counters make its [`StoreReport`].
//! [`AnyPostings`] and [`AnyForward`] are the per-run
//! switch between the in-RAM indexes of `smartcrawl-index` and the paged
//! disk backends of this crate: call sites hold the enum and never know
//! which side they are on. [`IndexBackendConfig`] is the user-facing
//! knob the bench harness threads through a run spec.

use crate::cache::PagePool;
use crate::forward::DiskForwardIndex;
use crate::inverted::DiskInvertedIndex;
use crate::{Result, StoreConfig, StoreReport, StoreStats};
use smartcrawl_index::{ForwardBackend, ForwardIndex, InvertedIndex, QueryId};
use smartcrawl_text::{Document, RecordId, TokenId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Distinguishes runtimes created by one process (temp-dir and file
/// naming without the wall clock).
static RUNTIME_SEQ: AtomicU64 = AtomicU64::new(0);

/// Which index backend a run uses.
#[derive(Debug, Clone, Default)]
pub enum IndexBackendConfig {
    /// In-RAM indexes (the paper's efficient implementation).
    #[default]
    Ram,
    /// Paged on-disk indexes with the given sizing.
    Disk(StoreConfig),
}

impl IndexBackendConfig {
    /// Disk backend with default sizing.
    pub fn disk() -> Self {
        IndexBackendConfig::Disk(StoreConfig::default())
    }

    /// Short label for reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            IndexBackendConfig::Ram => "ram",
            IndexBackendConfig::Disk(_) => "disk",
        }
    }
}

/// Owner of one run's store files: the directory and the page pool all
/// of them share. Dropping the runtime removes the directory if the
/// runtime created it.
#[derive(Debug)]
pub struct StoreRuntime {
    dir: PathBuf,
    owned: bool,
    config: StoreConfig,
    /// `{process id}-{runtime number}`: names the temp dir and every file,
    /// so runtimes sharing a pinned directory never collide.
    name: String,
    pool: Arc<PagePool>,
    file_seq: AtomicU64,
}

impl StoreRuntime {
    /// Creates the backing directory (a fresh one under the system temp
    /// dir unless [`StoreConfig::dir`] pins it) and the page pool of
    /// [`StoreConfig::cache_pages`] pages.
    pub fn create(config: StoreConfig) -> Result<Arc<Self>> {
        let seq = RUNTIME_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("{}-{seq}", std::process::id());
        let (dir, owned) = match &config.dir {
            Some(dir) => (dir.clone(), false),
            None => {
                let dir = std::env::temp_dir().join(format!("smartcrawl-store-{name}"));
                (dir, true)
            }
        };
        std::fs::create_dir_all(&dir)?;
        Ok(Arc::new(Self {
            dir,
            owned,
            pool: Arc::new(PagePool::new(config.cache_pages)),
            config,
            name,
            file_seq: AtomicU64::new(0),
        }))
    }

    /// The sizing this runtime was created with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The directory holding this runtime's files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A fresh file path under the runtime's directory, named
    /// `{tag}-{process id}-{runtime number}-{file number}.pages`.
    pub fn file_path(&self, tag: &str) -> PathBuf {
        let seq = self.file_seq.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{tag}-{}-{seq}.pages", self.name))
    }

    /// The page pool every file of this runtime reads through.
    pub fn pool(&self) -> &Arc<PagePool> {
        &self.pool
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> StoreStats {
        self.pool.stats()
    }

    /// The run-level report: configured bounds plus observed activity.
    pub fn report(&self) -> StoreReport {
        StoreReport {
            page_size: self.config.page_size,
            cache_budget_pages: self.config.cache_pages,
            stats: self.stats(),
        }
    }
}

impl Drop for StoreRuntime {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// An inverted index that is either RAM-resident or disk-backed.
#[derive(Debug)]
pub enum AnyPostings {
    /// The in-RAM index of `smartcrawl-index`.
    Ram(InvertedIndex),
    /// The sharded paged index of this crate.
    Disk(DiskInvertedIndex),
}

impl AnyPostings {
    /// Builds over `docs` with the backend selected by `runtime`:
    /// `None` → RAM, `Some` → disk files owned by that runtime.
    pub fn build(
        docs: &[Document],
        vocab_size: usize,
        runtime: Option<&StoreRuntime>,
    ) -> Result<Self> {
        match runtime {
            None => Ok(AnyPostings::Ram(InvertedIndex::build(docs, vocab_size))),
            Some(rt) => Ok(AnyPostings::Disk(DiskInvertedIndex::build(
                docs, vocab_size, rt,
            )?)),
        }
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        match self {
            AnyPostings::Ram(i) => i.num_docs(),
            AnyPostings::Disk(i) => i.num_docs(),
        }
    }

    /// Document frequency of a single token.
    pub fn doc_frequency(&self, token: TokenId) -> usize {
        match self {
            AnyPostings::Ram(i) => i.doc_frequency(token),
            AnyPostings::Disk(i) => i.doc_frequency(token),
        }
    }

    /// Appends `I(w)` to `out` (ascending record ids, no clear).
    pub fn postings_into(&self, token: TokenId, out: &mut Vec<RecordId>) {
        match self {
            AnyPostings::Ram(i) => out.extend_from_slice(i.postings(token)),
            AnyPostings::Disk(i) => i.postings_into(token, out),
        }
    }

    /// Materializes `q(D)` in ascending record-id order.
    pub fn matching(&self, query: &[TokenId]) -> Vec<RecordId> {
        match self {
            AnyPostings::Ram(i) => i.matching(query),
            AnyPostings::Disk(i) => i.matching(query),
        }
    }

    /// `|q(D)|` without materializing the match set.
    pub fn frequency(&self, query: &[TokenId]) -> usize {
        match self {
            AnyPostings::Ram(i) => i.frequency(query),
            AnyPostings::Disk(i) => i.frequency(query),
        }
    }

    /// Whether at least one document satisfies the query.
    pub fn any_match(&self, query: &[TokenId]) -> bool {
        match self {
            AnyPostings::Ram(i) => i.any_match(query),
            AnyPostings::Disk(i) => i.any_match(query),
        }
    }
}

/// A forward index that is either RAM-resident or disk-backed.
#[derive(Debug)]
pub enum AnyForward {
    /// The in-RAM CSR index of `smartcrawl-index`.
    Ram(ForwardIndex),
    /// The paged row store of this crate.
    Disk(DiskForwardIndex),
}

impl AnyForward {
    /// Builds for `num_records` records from the match sets of queries
    /// `0..num_queries` (`matches(q)` is `q(D)`, ascending), with the
    /// backend selected by `runtime` (as in [`AnyPostings::build`]).
    pub fn build<'a>(
        num_records: usize,
        num_queries: usize,
        matches: impl Fn(QueryId) -> &'a [RecordId],
        runtime: Option<&StoreRuntime>,
    ) -> Result<Self> {
        match runtime {
            None => Ok(AnyForward::Ram(ForwardIndex::build(
                num_records,
                num_queries,
                matches,
            ))),
            Some(rt) => Ok(AnyForward::Disk(DiskForwardIndex::build(
                num_records,
                num_queries,
                matches,
                rt,
            )?)),
        }
    }

    /// Number of records covered by the index.
    pub fn num_records(&self) -> usize {
        match self {
            AnyForward::Ram(i) => i.num_records(),
            AnyForward::Disk(i) => i.num_records(),
        }
    }

    /// Pool size the index was built against.
    pub fn num_queries(&self) -> usize {
        match self {
            AnyForward::Ram(i) => i.num_queries(),
            AnyForward::Disk(i) => i.num_queries(),
        }
    }

    /// Total number of (record, query) incidences.
    pub fn total_incidences(&self) -> usize {
        match self {
            AnyForward::Ram(i) => i.total_incidences(),
            AnyForward::Disk(i) => i.total_incidences(),
        }
    }

    /// Replaces `out` with `F(rid)` (ascending query ids).
    pub fn queries_of_into(&self, rid: RecordId, out: &mut Vec<QueryId>) {
        match self {
            AnyForward::Ram(i) => {
                out.clear();
                out.extend_from_slice(i.queries_of(rid));
            }
            AnyForward::Disk(i) => i.queries_of_into(rid, out),
        }
    }
}

impl ForwardBackend for AnyForward {
    fn num_records(&self) -> usize {
        AnyForward::num_records(self)
    }

    fn num_queries(&self) -> usize {
        AnyForward::num_queries(self)
    }

    fn total_incidences(&self) -> usize {
        AnyForward::total_incidences(self)
    }

    fn queries_of_into(&self, rid: RecordId, out: &mut Vec<QueryId>) {
        AnyForward::queries_of_into(self, rid, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(specs: &[&[u32]]) -> Vec<Document> {
        specs
            .iter()
            .map(|s| Document::from_tokens(s.iter().map(|&t| TokenId(t)).collect()))
            .collect()
    }

    #[test]
    fn runtime_cleans_up_its_temp_dir() {
        let rt = StoreRuntime::create(StoreConfig::default()).unwrap();
        let dir = rt.dir().to_path_buf();
        assert!(dir.is_dir());
        drop(rt);
        assert!(!dir.exists());
    }

    #[test]
    fn both_backends_expose_the_same_surface() {
        let corpus = docs(&[&[0, 1], &[1, 2], &[0, 1, 2]]);
        let config = StoreConfig {
            page_size: 64,
            cache_pages: 8,
            shards: 2,
            dir: None,
        };
        let rt = StoreRuntime::create(config).unwrap();
        let ram = AnyPostings::build(&corpus, 3, None).unwrap();
        let disk = AnyPostings::build(&corpus, 3, Some(&rt)).unwrap();
        let q = [TokenId(0), TokenId(1)];
        assert_eq!(ram.matching(&q), disk.matching(&q));
        assert_eq!(ram.frequency(&q), disk.frequency(&q));

        let matches = [ram.matching(&q), ram.matching(&[TokenId(2)])];
        let list = |q: QueryId| matches[q.index()].as_slice();
        let ram_f = AnyForward::build(3, matches.len(), list, None).unwrap();
        let disk_f = AnyForward::build(3, matches.len(), list, Some(&rt)).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for r in 0..3 {
            ram_f.queries_of_into(RecordId(r), &mut a);
            disk_f.queries_of_into(RecordId(r), &mut b);
            assert_eq!(a, b);
        }
        let report = rt.report();
        assert!(report.stats.misses > 0);
        assert!(report.stats.peak_resident_pages > 0);
    }

    #[test]
    fn runtimes_sharing_a_pinned_dir_keep_their_own_files() {
        let dir = std::env::temp_dir().join(format!(
            "smartcrawl-store-shared-dir-{}",
            std::process::id()
        ));
        let config = StoreConfig {
            page_size: 64,
            cache_pages: 4,
            shards: 2,
            dir: Some(dir.clone()),
        };
        let corpora = [
            docs(&[&[0, 1], &[1, 2], &[0, 1, 2]]),
            docs(&[&[2], &[0, 2], &[1], &[0, 1, 2], &[2, 1], &[0]]),
        ];
        let runtimes = [
            StoreRuntime::create(config.clone()).unwrap(),
            StoreRuntime::create(config).unwrap(),
        ];
        // Both indexes are built before either is queried, so a file name
        // shared by the two runtimes would be truncated under the first.
        let disks: Vec<AnyPostings> = corpora
            .iter()
            .zip(&runtimes)
            .map(|(corpus, rt)| AnyPostings::build(corpus, 3, Some(rt)).unwrap())
            .collect();
        for (corpus, disk) in corpora.iter().zip(&disks) {
            let ram = AnyPostings::build(corpus, 3, None).unwrap();
            for q in [[0, 1], [1, 2], [0, 2]].map(|q| q.map(TokenId)) {
                assert_eq!(disk.matching(&q), ram.matching(&q), "matching {q:?}");
                assert_eq!(disk.frequency(&q), ram.frequency(&q), "frequency {q:?}");
            }
            for t in (0..3).map(TokenId) {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                ram.postings_into(t, &mut a);
                disk.postings_into(t, &mut b);
                assert_eq!(a, b, "postings {t:?}");
            }
        }
        drop(disks);
        drop(runtimes);
        std::fs::remove_dir_all(&dir).ok();
    }
}
