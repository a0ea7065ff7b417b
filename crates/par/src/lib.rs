//! Deterministic data-parallel runtime for the SmartCrawl setup hot paths.
//!
//! The workspace's determinism invariant (enforced by `smartcrawl-lint`)
//! says every crawl result must be byte-identical run over run. Naive
//! threading breaks that in two ways: work *decomposition* that depends on
//! the thread count (different chunk boundaries ⇒ different per-chunk
//! scratch state), and result *merging* that depends on completion order.
//! This crate rules both out by construction:
//!
//! * **Fixed chunking** — an input slice is split into chunks whose
//!   boundaries depend only on its length ([`chunk_size_for`]), never on
//!   the thread count. A per-chunk computation therefore sees exactly the
//!   same items at `SMARTCRAWL_THREADS=1` and `=64`.
//! * **In-order merging** — chunk results are placed by chunk index, not
//!   completion order, so the output vector is identical for any thread
//!   count (workers race only over *which chunk to grab next*, which is
//!   unobservable for pure per-chunk functions).
//! * **One fan-out level** — a `par_*` call made from inside a worker
//!   thread runs sequentially instead of spawning a nested scope, so
//!   coarse-grained parallelism (e.g. the bench harness fanning out whole
//!   crawl runs) composes with the fine-grained engine-setup parallelism
//!   without oversubscribing the machine.
//!
//! The thread count comes from a [`ThreadBudget`] read once from the
//! `SMARTCRAWL_THREADS` environment variable (default: the machine's
//! available parallelism); [`with_threads`] overrides it for a scope,
//! which is how `bench_perf` and the determinism property tests sweep
//! thread counts inside one process. No RNG, no wall clock, no deps.

pub mod budget;
pub mod pipeline;
pub mod runtime;

pub use budget::{current_threads, with_threads, ThreadBudget};
pub use pipeline::{
    current_pipeline_depth, run_pipeline, with_pipeline_depth, PipelineHandle, MAX_PIPELINE_DEPTH,
};
pub use runtime::{chunk_size_for, par_chunks, par_map, par_map_indexed};
