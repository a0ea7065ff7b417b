//! Indexing substrate for the SmartCrawl reproduction (paper §6.3, Fig. 3).
//!
//! The efficient implementation of QSel-Est relies on three structures:
//!
//! * an [`InvertedIndex`] per database (`D` and the sample `Hs`) to compute
//!   query frequencies by posting-list intersection (Fig. 3(a)) — the
//!   pool's build-time `|q(D)|` comes from the miner that found `q`, so
//!   `D`'s index serves fuzzy page matching and ad-hoc frequencies;
//! * a [`ForwardIndex`] mapping each local record to the pool queries it
//!   satisfies, so that removing a covered record touches only the affected
//!   queries (Fig. 3(b));
//! * a [`LazyQueue`] — a max-priority queue with a delta-update mechanism
//!   that defers priority recomputation until a query actually reaches the
//!   top (Fig. 3(c), Algorithm 4 lines 16–27).
//!
//! The [`backend`] module abstracts the forward index behind a
//! storage-agnostic trait ([`ForwardBackend`]) so the one batched removal
//! path runs against this in-RAM structure or the paged on-disk rows in
//! `smartcrawl-store`.

pub mod backend;
pub mod forward;
pub mod inverted;
pub mod lazy_queue;

pub use backend::{remove_records_batch, ForwardBackend};
pub use forward::{ForwardIndex, RemovalScratch};
pub use inverted::InvertedIndex;
pub use lazy_queue::LazyQueue;

/// Position of a query within the query pool (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The id as a usize, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
