//! Rule scoping configuration. The defaults encode this workspace's
//! architecture (which files *are* the metered interface layer, which
//! modules order their output, where the numeric kernels live); tests
//! override them to point rules at fixtures.

/// Scoping knobs for the rule set.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files that *implement* the budget/caching/driver layer and may call
    /// `search()` directly. Everything else must route through them.
    pub interface_layer: Vec<String>,
    /// Path prefixes whose HashMap/HashSet iteration order can reach
    /// crawler-visible output (reports, pools, selection order).
    pub ordered_output_paths: Vec<String>,
    /// Files holding the floating-point estimator kernels.
    pub float_paths: Vec<String>,
    /// Path prefixes allowed to spawn raw threads — the deterministic
    /// parallel runtime. Everywhere else, fan-out must go through
    /// `smartcrawl-par` so chunking and merge order stay thread-count
    /// independent.
    pub thread_runtime_paths: Vec<String>,
    /// Path prefixes where keyed std containers (`HashMap`/`BTreeMap`/…)
    /// are banned outright: the selection hot path indexes flat arrays by
    /// interned dense ids, and a keyed probe re-entering it is a silent
    /// perf regression.
    pub dense_hot_paths: Vec<String>,
    /// Path prefixes under the `io-hygiene` contract (the out-of-core
    /// store): no unwrap/expect, no wall-clock reads, file writes only
    /// through the versioned-header writer.
    pub io_hygiene_paths: Vec<String>,
    /// Files within `io_hygiene_paths` allowed to open files for writing —
    /// the paged writer that mints the versioned, checksummed header.
    pub io_writer_paths: Vec<String>,
    /// Path prefixes where loop bodies must not allocate (`hot-path-alloc`):
    /// the selection hot path, the out-of-core store, and the keyword
    /// normalizer every returned hidden record goes through.
    pub hot_alloc_paths: Vec<String>,
    /// Function names whose call sites hand a closure to the deterministic
    /// parallel runtime — the `send-sync-boundary` rule scans the calling
    /// function for non-`Send`/`Sync` capture types.
    pub par_entry_points: Vec<String>,
    /// Run only these rules (`None` = all).
    pub only_rules: Option<Vec<String>>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            interface_layer: vec![
                // The budget meter itself and the fault-injection wrapper.
                "crates/hidden/src/interface.rs".into(),
                "crates/hidden/src/flaky.rs".into(),
                // The transparent cache wrapper (its inner call is metered).
                "crates/cache/src/cached.rs".into(),
                // The one budget loop every crawler shares.
                "crates/core/src/crawl/session.rs".into(),
            ],
            ordered_output_paths: vec![
                "crates/core/src/pool.rs".into(),
                "crates/core/src/select/".into(),
                "crates/core/src/crawl/".into(),
            ],
            float_paths: vec![
                "crates/core/src/estimate.rs".into(),
                "crates/core/src/nch.rs".into(),
            ],
            thread_runtime_paths: vec!["crates/par/".into()],
            dense_hot_paths: vec!["crates/core/src/select/".into()],
            io_hygiene_paths: vec![
                "crates/store/".into(),
                // The disk-backed HiddenDb speaks the same store format
                // and inherits the same contract: failures surface as
                // StoreError, caching follows the access order, and its
                // files are minted by PagedWriter.
                "crates/hidden/src/store.rs".into(),
            ],
            io_writer_paths: vec!["crates/store/src/file.rs".into()],
            hot_alloc_paths: vec![
                "crates/core/src/select/".into(),
                "crates/store/src/".into(),
                "crates/text/src/tokenizer.rs".into(),
            ],
            par_entry_points: vec![
                "par_map".into(),
                "par_map_indexed".into(),
                "par_chunks".into(),
                // The pipelined crawl driver: its job closure runs on
                // prefetch workers, so captures cross the same boundary.
                "run_pipeline".into(),
            ],
            only_rules: None,
        }
    }
}

impl Config {
    /// Whether `rule` is enabled under `only_rules`.
    pub fn rule_enabled(&self, rule: &str) -> bool {
        match &self.only_rules {
            None => true,
            Some(list) => list.iter().any(|r| r == rule),
        }
    }
}
