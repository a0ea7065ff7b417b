//! `smartcrawl-store`: the out-of-core storage substrate.
//!
//! The paper's efficient implementation assumes its indexes and the
//! hidden database fit in RAM, which caps the reproduction at ~10⁵ hidden
//! records. This crate lifts that cap with a paged, versioned,
//! checksummed on-disk storage layer:
//!
//! * [`file`](mod@file) — the block/offset file layout: fixed-size pages behind a
//!   versioned, checksummed header, written once by a single
//!   [`PagedWriter`] and then read by any number of
//!   [`PagedReader`]s (single-writer → multi-reader
//!   discipline). Every page carries a word-parallel checksum
//!   ([`format::page_checksum`]) that each read verifies; truncation or
//!   bit-rot surfaces as a clean [`StoreError::Corrupt`], never a panic.
//! * [`cache`] — the [`PagePool`]: one fixed page budget per runtime,
//!   shared by all its files, with pinned/LRU eviction over one intrusive
//!   [`RecencyList`] of (file, page) frames: O(1) per access, and the
//!   eviction order is a pure function of the access sequence, *never*
//!   the wall clock, so cached reads stay deterministic.
//! * [`postings`] — delta- plus varint-encoded posting lists with skip
//!   entries every [`postings::SKIP_INTERVAL`] elements, enabling
//!   galloping intersection over encoded lists without full decode.
//! * [`blob`] — a byte-stream abstraction over the paged file: encoded
//!   lists are appended back to back (straddling page boundaries) and
//!   addressed by compact [`Locator`]s. A file whose pages carry a layout
//!   of their own is read a page at a time, in place
//!   ([`BlobReader::with_page`]).
//! * [`forward`] — the disk forward index: one encoded `F(d)` row per
//!   local record, read back through the page pool.
//! * [`backend`] — the [`AnyForward`] dispatch enum and the
//!   [`StoreRuntime`] owning the on-disk files and their page pool.
//!
//! The disk forward index implements the `smartcrawl-index`
//! [`ForwardBackend`](smartcrawl_index::ForwardBackend) trait and holds
//! the same rows as the RAM one, so it is digest-identical to it by
//! construction, which the workspace's acceptance tests assert at every
//! thread count. The hidden database's disk engine and the query cache
//! build on the same pages, blobs, codec and pool.

pub mod backend;
pub mod blob;
pub mod cache;
pub mod file;
pub mod format;
pub mod forward;
pub mod postings;

pub use backend::{AnyForward, IndexBackendConfig, StoreRuntime};
pub use blob::{BlobReader, BlobWriter, Locator};
pub use cache::{PagePool, RecencyList};
pub use file::{PagedReader, PagedWriter};
pub use forward::DiskForwardIndex;

use std::path::PathBuf;

/// Errors surfaced by the storage layer. Query-time reads on an
/// already-validated store treat failures as fatal (the crawl cannot
/// recover from its index disappearing mid-run); everything at open,
/// build, and page-read time returns `Result` so corruption is a clean
/// error, never a panic.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The file exists but its contents fail validation (bad magic,
    /// checksum mismatch, truncation, impossible lengths).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to validate.
        detail: String,
    },
}

impl StoreError {
    pub(crate) fn corrupt(path: &std::path::Path, detail: impl Into<String>) -> Self {
        StoreError::Corrupt {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt store file {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Unwraps a store result at query time. Build- and open-time validation
/// returns `Result`; once a store validated, a read failing mid-crawl
/// means the index vanished under the engine — unrecoverable by design,
/// so the one panic in this crate lives here. Public so the disk-backed
/// hidden engine applies the same policy without minting its own panic
/// site.
pub fn expect_store<T>(r: Result<T>, what: &str) -> T {
    match r {
        Ok(v) => v,
        // lint:allow(panic-freedom) a query-time read failure on a validated store is fatal by design
        Err(e) => panic!("smartcrawl-store: {what} failed: {e}"),
    }
}

/// Sizing and placement knobs for one store runtime.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// On-disk page size in bytes (payload capacity is 12 bytes less).
    pub page_size: usize,
    /// Page-pool budget, in pages: the one bound on resident pages,
    /// shared by every file the runtime hosts (the recency list decides
    /// which file's pages stay). Only a single span read wider than the
    /// budget pushes residency past it, and only until the read ends.
    /// The default is a ~50 MB-class pool (12800 × 4 KiB), the
    /// resident-memory bound the out-of-core claim is about.
    pub cache_pages: usize,
    /// Directory for the store files. `None` (the default) creates a
    /// unique directory under the system temp dir and removes it when the
    /// runtime drops.
    pub dir: Option<PathBuf>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            page_size: 4096,
            cache_pages: 12_800,
            dir: None,
        }
    }
}

/// A point-in-time snapshot of a runtime's page-pool activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that went to disk.
    pub misses: u64,
    /// Frames evicted to stay inside the cache budget.
    pub evictions: u64,
    /// Frames currently holding a page.
    pub resident_pages: u64,
    /// High-water mark of `resident_pages`.
    pub peak_resident_pages: u64,
}

impl StoreStats {
    /// Fraction of page requests served without touching disk.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// What a run reports about its disk backend: the configured bounds plus
/// the observed activity of the runtime's one page pool, so
/// `stats.peak_resident_pages` is directly comparable with
/// `cache_budget_pages`. Attached to `CrawlReport`s by the bench harness
/// so the out-of-core claim is tracked, not anecdotal.
///
/// Pool *statistics* are schedule-dependent when several workers read
/// through one pool, as the approaches of a parallel sweep do through the
/// hidden store's (hit/miss interleavings vary), so they are reported but
/// never folded into any result digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreReport {
    /// Configured page size in bytes.
    pub page_size: usize,
    /// Configured page-pool budget in pages.
    pub cache_budget_pages: usize,
    /// Observed cache activity.
    pub stats: StoreStats,
}

impl StoreReport {
    /// Peak resident index memory in bytes (pages × page size).
    pub fn peak_resident_bytes(&self) -> u64 {
        self.stats.peak_resident_pages * self.page_size as u64
    }
}
