//! Entity resolution for SmartCrawl (paper §2 treats it as a pluggable
//! black box; §6.1 instantiates it with a Jaccard ≥ 0.9 similarity join).
//!
//! The crawler must decide, for every returned hidden record, which local
//! records it covers. Under Assumption 3 this is exact document equality;
//! in the fuzzy-matching setting it is Jaccard similarity at or above a
//! threshold. [`Matcher`] is that decision for one pair of documents;
//! `smartcrawl-core`'s `LocalMatchIndex` applies it to the whole local
//! database. [`schema`] aligns a local table's columns with the hidden
//! database's fields before any of that.

pub mod matcher;
pub mod schema;

pub use matcher::Matcher;
pub use schema::{match_schemas, SchemaMatch};
