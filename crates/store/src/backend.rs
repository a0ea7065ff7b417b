//! Runtime ownership and RAM/disk dispatch.
//!
//! A [`StoreRuntime`] owns the directory the store files live in, hands
//! out file paths, and owns the one [`PagePool`] every file it hosts
//! reads through, whose counters make its [`StoreReport`].
//! [`AnyForward`] is the per-run switch between the in-RAM forward index
//! of `smartcrawl-index` and the paged disk rows of this crate: call
//! sites hold the enum and never know which side they are on.
//! [`IndexBackendConfig`] is the user-facing knob the bench harness
//! threads through a run spec.

use crate::cache::PagePool;
use crate::forward::DiskForwardIndex;
use crate::{Result, StoreConfig, StoreReport, StoreStats};
use smartcrawl_index::{ForwardBackend, ForwardIndex, QueryId};
use smartcrawl_text::RecordId;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Distinguishes runtimes created by one process (temp-dir and file
/// naming without the wall clock).
static RUNTIME_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where a run keeps its forward index (record → queries). The inverted
/// index over `D` is always in RAM.
#[derive(Debug, Clone, Default)]
pub enum IndexBackendConfig {
    /// In-RAM forward index (the paper's efficient implementation).
    #[default]
    Ram,
    /// Paged on-disk forward rows with the given sizing.
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
    /// backend selected by `runtime`: `None` → RAM, `Some` → a disk
    /// file owned by that runtime.
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

    /// `q(D)` lists of a small pool, query by query.
    fn lists(specs: &[&[u32]]) -> Vec<Vec<RecordId>> {
        specs
            .iter()
            .map(|s| s.iter().map(|&r| RecordId(r)).collect())
            .collect()
    }

    /// Asserts that `disk` holds the same rows as a RAM index over `matches`.
    fn assert_rows_equal(disk: &AnyForward, num_records: usize, matches: &[Vec<RecordId>]) {
        let list = |q: QueryId| matches[q.index()].as_slice();
        let ram = AnyForward::build(num_records, matches.len(), list, None).unwrap();
        assert_eq!(disk.total_incidences(), ram.total_incidences());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for r in 0..num_records as u32 {
            ram.queries_of_into(RecordId(r), &mut a);
            disk.queries_of_into(RecordId(r), &mut b);
            assert_eq!(a, b, "row of record {r}");
        }
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
        let config = StoreConfig {
            page_size: 64,
            cache_pages: 8,
            dir: None,
        };
        let rt = StoreRuntime::create(config).unwrap();
        let matches = lists(&[&[0, 2], &[1, 2]]);
        let list = |q: QueryId| matches[q.index()].as_slice();
        let disk = AnyForward::build(3, matches.len(), list, Some(&rt)).unwrap();
        assert_eq!(disk.num_records(), 3);
        assert_eq!(disk.num_queries(), 2);
        assert_rows_equal(&disk, 3, &matches);
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
            dir: Some(dir.clone()),
        };
        let pools = [
            (3, lists(&[&[0, 1, 2], &[1, 2], &[0]])),
            (
                6,
                lists(&[&[2, 3, 5], &[0, 1, 2, 3, 4, 5], &[4], &[1, 3], &[0, 5]]),
            ),
        ];
        let runtimes = [
            StoreRuntime::create(config.clone()).unwrap(),
            StoreRuntime::create(config).unwrap(),
        ];
        // Both indexes are built before either is read, so a file name
        // shared by the two runtimes would be truncated under the first.
        let disks: Vec<AnyForward> = pools
            .iter()
            .zip(&runtimes)
            .map(|((n, matches), rt)| {
                let list = |q: QueryId| matches[q.index()].as_slice();
                AnyForward::build(*n, matches.len(), list, Some(rt)).unwrap()
            })
            .collect();
        for ((n, matches), disk) in pools.iter().zip(&disks) {
            assert_rows_equal(disk, *n, matches);
        }
        drop(disks);
        drop(runtimes);
        std::fs::remove_dir_all(&dir).ok();
    }
}
