//! Hidden-database simulator (paper §2, Definition 2; §7.1).
//!
//! A *hidden database* curates records reachable only through a keyword
//! search interface: given a query, it returns the top-`k` records that
//! match, ranked by a function the crawler does not know. This crate
//! simulates such databases faithfully:
//!
//! * [`HiddenDb`] — a corpus held in RAM or on the paged store, with an
//!   inverted index and a deterministic (but externally opaque)
//!   [`Ranking`]. It keeps each record as the interface returns it, a
//!   [`Retrieved`] view, and answers `get` and `iter` with views too. Two
//!   search semantics are supported, mirroring the paper's two evaluation
//!   setups:
//!   * [`SearchMode::Conjunctive`] — only records containing *all* query
//!     keywords are returned (DBLP-style engine, §7.1.1);
//!   * [`SearchMode::Disjunctive`] — records matching *any* keyword are
//!     candidates and records matching more keywords rank higher, so
//!     conjunctive matches rank at the top (Yelp-style behaviour, §2 and
//!     §7.1.2).
//! * [`SearchInterface`] — the only door crawlers get, plus the
//!   [`Metered`] wrapper that enforces the query budget and keeps an audit
//!   log (Yelp's 25 000-requests/day limit is what makes DeepEnrich a
//!   budgeted problem in the first place).
//! * [`FlakyInterface`] — deterministic, seeded fault injection
//!   ([`SearchError::Transient`] / [`SearchError::RateLimited`]) so every
//!   crawler can be ablated under the same failure trace, and
//!   [`RetryPolicy`] — the bounded-retry/backoff contract drivers honor.
//!
//! Query processing is deterministic: re-issuing a query yields the same
//! page (the paper assumes deterministic query processing).

pub mod engine;
pub mod flaky;
pub mod form;
pub mod interface;
pub mod ranking;
pub mod record;
mod store;
mod topk;

pub use engine::{HiddenDb, HiddenDbBuilder, SearchMode};
pub use flaky::FlakyInterface;
pub use form::FormEncoder;
pub use interface::{
    canonical_query_key, CacheStats, Metered, QueryLogEntry, RetryPolicy, SearchError,
    SearchInterface, SearchPage,
};
pub use ranking::Ranking;
pub use record::{ExternalId, HiddenRecord, Retrieved};
