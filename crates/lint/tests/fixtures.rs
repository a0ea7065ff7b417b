//! Fixture-driven integration tests: each file under `fixtures/` carries
//! deliberate violations of one rule plus string/comment/test-region
//! decoys that must stay silent. The fixtures directory is excluded from
//! workspace walks (`SKIP_DIRS`), so these violations never reach the
//! real lint run.

use smartcrawl_lint::{allowlist, lint_source, Config, Diagnostic};
use std::path::{Path, PathBuf};

/// The lint crate's directory: `CARGO_MANIFEST_DIR` under cargo, the
/// workspace-relative path when the test binary is run from the repo root
/// (the offline rustc harness).
fn crate_dir() -> PathBuf {
    match option_env!("CARGO_MANIFEST_DIR") {
        Some(d) => PathBuf::from(d),
        None => PathBuf::from("crates/lint"),
    }
}

fn fixture(name: &str) -> String {
    let path = crate_dir().join("fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

/// Lints a fixture's text as if it lived at `as_path` in the workspace.
fn lint_fixture(name: &str, as_path: &str) -> (Vec<Diagnostic>, usize) {
    lint_source(as_path, &fixture(name), &Config::default())
}

fn lines_of(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    diags.iter().filter(|d| d.rule == rule).map(|d| d.line).collect()
}

#[test]
fn budget_fixture_flags_probes_and_ignores_decoys() {
    let (diags, suppressed) = lint_fixture("budget.rs", "crates/fake/src/probe.rs");
    assert_eq!(suppressed, 0);
    let lines = lines_of(&diags, "budget-safety");
    assert_eq!(lines.len(), 2, "exactly the two real probes: {diags:?}");
    for d in diags.iter().filter(|d| d.rule == "budget-safety") {
        assert!(
            d.snippet.contains("engine.search(q)") || d.snippet.contains("Engine::search(q)"),
            "unexpected site: {d:?}"
        );
    }
    assert!(
        diags.iter().all(|d| d.rule == "budget-safety"),
        "no other rule should fire on this fixture: {diags:?}"
    );
}

#[test]
fn budget_fixture_is_silent_inside_the_interface_layer() {
    for path in ["crates/hidden/src/interface.rs", "crates/cache/src/cached.rs"] {
        let (diags, _) = lint_fixture("budget.rs", path);
        assert!(
            lines_of(&diags, "budget-safety").is_empty(),
            "{path} is interface-layer — raw probes are its job: {diags:?}"
        );
    }
}

#[test]
fn determinism_fixture_flags_rng_clock_and_hash_iteration() {
    let (diags, _) = lint_fixture("determinism.rs", "crates/core/src/pool.rs");
    let lines = lines_of(&diags, "determinism");
    // thread_rng + Instant::now + SystemTime::now + thread::spawn +
    // thread::scope + for-loop + .values().
    assert_eq!(lines.len(), 7, "{diags:?}");
    let text = fixture("determinism.rs");
    for (needle, what) in [
        ("thread_rng", "OS-seeded RNG"),
        ("Instant::now", "wall clock"),
        ("std::thread::spawn", "raw thread spawn"),
        ("std::thread::scope", "raw thread scope"),
        ("for (k, v) in &self.by_id", "hash-order for loop"),
        ("self.by_id.values()", "hash-order .values()"),
    ] {
        let line = text
            .lines()
            .position(|l| l.contains(needle))
            .map(|i| i as u32 + 1)
            .unwrap_or_else(|| panic!("fixture lost its `{needle}` line"));
        assert!(lines.contains(&line), "{what} at line {line} not flagged: {diags:?}");
    }
}

#[test]
fn determinism_hash_iteration_is_scoped_to_ordered_output_paths() {
    // Outside the ordered-output modules only the RNG/clock/thread
    // sub-check runs.
    let (diags, _) = lint_fixture("determinism.rs", "crates/other/src/lib.rs");
    assert_eq!(lines_of(&diags, "determinism").len(), 5, "{diags:?}");
}

#[test]
fn determinism_thread_fanout_is_exempt_inside_the_parallel_runtime() {
    // The same fixture linted as if it lived in crates/par: the two raw
    // thread findings disappear, the RNG/clock ones remain.
    let (diags, _) = lint_fixture("determinism.rs", "crates/par/src/runtime.rs");
    assert_eq!(lines_of(&diags, "determinism").len(), 3, "{diags:?}");
}

#[test]
fn panic_fixture_flags_each_panicking_construct_once() {
    let (diags, _) = lint_fixture("panic.rs", "crates/fake/src/lib.rs");
    let lines = lines_of(&diags, "panic-freedom");
    // unwrap, expect, v[0], panic!, unreachable! — one line each.
    assert_eq!(lines.len(), 5, "{diags:?}");
    let text = fixture("panic.rs");
    for needle in ["o.unwrap();", "o.expect(", "v[0]", "panic!(", "unreachable!()"] {
        let line = text
            .lines()
            .position(|l| l.contains(needle))
            .map(|i| i as u32 + 1)
            .unwrap_or_else(|| panic!("fixture lost its `{needle}` line"));
        assert!(lines.contains(&line), "`{needle}` at line {line} not flagged: {diags:?}");
    }
}

#[test]
fn panic_fixture_is_silent_in_test_files() {
    let (diags, _) = lint_fixture("panic.rs", "crates/fake/tests/props.rs");
    assert!(diags.is_empty(), "test files may panic freely: {diags:?}");
}

#[test]
fn float_fixture_flags_division_and_casts_in_float_paths_only() {
    let (diags, _) = lint_fixture("floats.rs", "crates/core/src/estimate.rs");
    let lines = lines_of(&diags, "float-hygiene");
    assert_eq!(lines.len(), 2, "division by `den` and `count as f64`: {diags:?}");
    let (elsewhere, _) = lint_fixture("floats.rs", "crates/core/src/pool.rs");
    assert!(
        lines_of(&elsewhere, "float-hygiene").is_empty(),
        "float-hygiene is scoped to the estimator kernels: {elsewhere:?}"
    );
}

#[test]
fn io_fixture_flags_raw_writes_clock_and_unwrap_in_the_store_only() {
    let (diags, _) = lint_fixture("io.rs", "crates/store/src/cache.rs");
    let lines = lines_of(&diags, "io-hygiene");
    // File::create + fs::write + OpenOptions + Instant::now + unwrap.
    assert_eq!(lines.len(), 5, "{diags:?}");
    let text = fixture("io.rs");
    for needle in [
        "File::create(path)?",
        "std::fs::write(path",
        "OpenOptions::new()",
        "Instant::now()",
        ".unwrap() // VIOLATION",
    ] {
        let line = text
            .lines()
            .position(|l| l.contains(needle))
            .map(|i| i as u32 + 1)
            .unwrap_or_else(|| panic!("fixture lost its `{needle}` line"));
        assert!(lines.contains(&line), "`{needle}` at line {line} not flagged: {diags:?}");
    }
    // Outside the store the same code answers to other rules, not this one.
    let (elsewhere, _) = lint_fixture("io.rs", "crates/cache/src/persist.rs");
    assert!(
        lines_of(&elsewhere, "io-hygiene").is_empty(),
        "io-hygiene is scoped to crates/store: {elsewhere:?}"
    );
}

#[test]
fn io_fixture_writer_module_may_open_files() {
    let (diags, _) = lint_fixture("io.rs", "crates/store/src/file.rs");
    let lines = lines_of(&diags, "io-hygiene");
    // The raw-write findings disappear; clock and unwrap remain banned.
    assert_eq!(lines.len(), 2, "{diags:?}");
}

#[test]
fn suppression_fixture_absorbs_justified_sites_and_reports_the_rest() {
    let (diags, suppressed) = lint_fixture("suppressed.rs", "crates/fake/src/lib.rs");
    assert_eq!(suppressed, 2, "standalone + trailing directives: {diags:?}");
    assert_eq!(
        lines_of(&diags, "panic-freedom").len(),
        2,
        "unwraps under broken directives still count: {diags:?}"
    );
    assert_eq!(
        lines_of(&diags, "bad-suppression").len(),
        2,
        "missing reason + unknown rule: {diags:?}"
    );
    assert_eq!(
        lines_of(&diags, "unused-suppression").len(),
        1,
        "directive with nothing to suppress: {diags:?}"
    );
}

#[test]
fn send_sync_fixture_flags_each_hostile_capture_type() {
    let (diags, _) = lint_fixture("send_sync.rs", "crates/core/src/crawl/driver.rs");
    let lines = lines_of(&diags, "send-sync-boundary");
    assert_eq!(lines.len(), 5, "Rc, RefCell, Cell, *mut, static mut: {diags:?}");
    let text = fixture("send_sync.rs");
    for needle in [
        "Rc::new(41u32)",
        "RefCell::new(0usize)",
        "Cell::new(0u32)",
        "p: *mut u32",
        "static mut COUNTER",
    ] {
        let line = text
            .lines()
            .position(|l| l.contains(needle))
            .map(|i| i as u32 + 1)
            .unwrap_or_else(|| panic!("fixture lost its `{needle}` line"));
        assert!(lines.contains(&line), "`{needle}` at line {line} not flagged: {diags:?}");
    }
}

#[test]
fn send_sync_clean_fixture_is_silent() {
    let (diags, _) = lint_fixture("send_sync_clean.rs", "crates/core/src/crawl/driver.rs");
    assert!(
        lines_of(&diags, "send-sync-boundary").is_empty(),
        "Arc/& captures must pass: {diags:?}"
    );
}

#[test]
fn pipeline_send_sync_fixture_flags_each_hostile_capture() {
    let (diags, _) =
        lint_fixture("pipeline_send_sync.rs", "crates/core/src/crawl/session.rs");
    let lines = lines_of(&diags, "send-sync-boundary");
    assert_eq!(lines.len(), 3, "Rc, Cell, RefCell near run_pipeline: {diags:?}");
    let text = fixture("pipeline_send_sync.rs");
    for needle in [
        "Rc::new(Vec::<SearchPage>::new())",
        "Cell::new(0u64)",
        "RefCell::new(Vec::new())",
    ] {
        let line = text
            .lines()
            .position(|l| l.contains(needle))
            .map(|i| i as u32 + 1)
            .unwrap_or_else(|| panic!("fixture lost its `{needle}` line"));
        assert!(lines.contains(&line), "`{needle}` at line {line} not flagged: {diags:?}");
    }
    for d in diags.iter().filter(|d| d.rule == "send-sync-boundary") {
        assert!(
            d.message.contains("run_pipeline"),
            "finding must name the pipeline entry point: {d:?}"
        );
    }
}

#[test]
fn pipeline_send_sync_clean_fixture_is_silent() {
    let (diags, _) =
        lint_fixture("pipeline_send_sync_clean.rs", "crates/core/src/crawl/session.rs");
    assert!(
        lines_of(&diags, "send-sync-boundary").is_empty(),
        "borrowed-db / Arc / driver-side-Vec shapes must pass: {diags:?}"
    );
}

#[test]
fn layering_fixture_rejects_the_synthetic_back_edge() {
    // The acceptance-criteria case: `index` importing from `core`.
    let (diags, _) = lint_fixture("layering.rs", "crates/index/src/lib.rs");
    let lines = lines_of(&diags, "crate-layering");
    assert_eq!(lines.len(), 2, "core + store back-edges: {diags:?}");
    let text = fixture("layering.rs");
    for needle in ["use smartcrawl_core::pool", "use smartcrawl_store::inverted"] {
        let line = text
            .lines()
            .position(|l| l.contains(needle))
            .map(|i| i as u32 + 1)
            .unwrap_or_else(|| panic!("fixture lost its `{needle}` line"));
        assert!(lines.contains(&line), "`{needle}` at line {line} not flagged: {diags:?}");
    }
}

#[test]
fn layering_fixture_is_silent_outside_the_layered_crates() {
    // The same imports inside the linter itself (exempt) or a test file.
    for path in ["crates/lint/src/lib.rs", "crates/index/tests/queries.rs"] {
        let (diags, _) = lint_fixture("layering.rs", path);
        assert!(
            lines_of(&diags, "crate-layering").is_empty(),
            "{path} is outside the layered plane: {diags:?}"
        );
    }
}

#[test]
fn layering_clean_fixture_is_silent() {
    let (diags, _) = lint_fixture("layering_clean.rs", "crates/core/src/select/engine.rs");
    assert!(lines_of(&diags, "crate-layering").is_empty(), "downward edges must pass: {diags:?}");
}

#[test]
fn hot_alloc_fixture_flags_each_allocation_kind() {
    let (diags, _) = lint_fixture("hot_alloc.rs", "crates/store/src/scan.rs");
    let lines = lines_of(&diags, "hot-path-alloc");
    assert_eq!(lines.len(), 5, "Vec::new, .clone(), .to_vec(), format!, String::from: {diags:?}");
    let text = fixture("hot_alloc.rs");
    for needle in [
        "Vec::new(); // VIOLATION",
        "row.clone();",
        ".to_vec();",
        "format!(\"row{n}\")",
        "String::from(\"shard\")",
    ] {
        let line = text
            .lines()
            .position(|l| l.contains(needle))
            .map(|i| i as u32 + 1)
            .unwrap_or_else(|| panic!("fixture lost its `{needle}` line"));
        assert!(lines.contains(&line), "`{needle}` at line {line} not flagged: {diags:?}");
    }
}

#[test]
fn hot_alloc_fixture_is_silent_outside_hot_paths() {
    let (diags, _) = lint_fixture("hot_alloc.rs", "crates/hidden/src/db.rs");
    assert!(
        lines_of(&diags, "hot-path-alloc").is_empty(),
        "the rule is scoped to select/, store/ and the tokenizer: {diags:?}"
    );
}

#[test]
fn hot_alloc_clean_fixture_is_silent() {
    let (diags, _) = lint_fixture("hot_alloc_clean.rs", "crates/store/src/scan.rs");
    assert!(lines_of(&diags, "hot-path-alloc").is_empty(), "hoisted buffers must pass: {diags:?}");
}

#[test]
fn emitted_allowlist_round_trips_over_fixture_findings() {
    let (diags, _) = lint_fixture("budget.rs", "crates/fake/src/probe.rs");
    assert!(!diags.is_empty());
    let text = allowlist::emit(&diags);
    let list = allowlist::parse(&text);
    assert!(list.errors.is_empty(), "emit must produce parseable entries: {:?}", list.errors);
    assert_eq!(list.entries.len(), diags.len());
    let mut meta = Vec::new();
    let (kept, absorbed) = allowlist::apply(&list, "lint-allow.txt", diags, &mut meta);
    assert!(kept.is_empty(), "every emitted entry absorbs its finding: {kept:?}");
    assert_eq!(absorbed, list.entries.len());
    assert!(meta.is_empty(), "round-trip leaves no stale entries: {meta:?}");
}

/// The real workspace, checked with the real checked-in allowlist, is
/// clean — the same gate CI runs. A failure here means a new violation
/// landed without a justification (or an allowlist entry went stale).
#[test]
fn workspace_is_clean() {
    let root = match option_env!("CARGO_MANIFEST_DIR") {
        Some(d) => Path::new(d).join("../.."),
        None => PathBuf::from("."),
    };
    if !root.join("Cargo.toml").exists() {
        // Relocated test binary with no workspace around it: nothing to check.
        return;
    }
    let allow_path = root.join("lint-allow.txt");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => allowlist::parse(&text),
        Err(_) => allowlist::Allowlist::default(),
    };
    let report =
        smartcrawl_lint::lint_workspace(&root, &Config::default(), &allow, "lint-allow.txt")
            .expect("workspace walk failed");
    assert!(
        report.is_clean(),
        "workspace has unjustified findings:\n{}",
        report.diagnostics.iter().map(Diagnostic::render).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files_checked > 100, "walk looks truncated: {}", report.files_checked);
}

/// The three flow-aware rules, run alone over the real workspace. This is
/// the gate the async crawl driver lands against: `send-sync-boundary`,
/// `crate-layering` (use edges *and* Cargo manifest edges) and
/// `hot-path-alloc` must hold with only the justified exemptions in the
/// checked-in allowlist.
#[test]
fn workspace_is_clean_under_the_flow_aware_rules() {
    let root = match option_env!("CARGO_MANIFEST_DIR") {
        Some(d) => Path::new(d).join("../.."),
        None => PathBuf::from("."),
    };
    if !root.join("Cargo.toml").exists() {
        return;
    }
    let new_rules = ["send-sync-boundary", "crate-layering", "hot-path-alloc"];
    let cfg = Config {
        only_rules: Some(new_rules.iter().map(|r| r.to_string()).collect()),
        ..Config::default()
    };
    let mut allow = match std::fs::read_to_string(root.join("lint-allow.txt")) {
        Ok(text) => allowlist::parse(&text),
        Err(_) => allowlist::Allowlist::default(),
    };
    // Mirror the CLI: a rule-filtered run only judges entries for the
    // rules it ran, so entries for the other six rules are not "stale".
    allow.entries.retain(|e| new_rules.contains(&e.rule.as_str()));
    let report = smartcrawl_lint::lint_workspace(&root, &cfg, &allow, "lint-allow.txt")
        .expect("workspace walk failed");
    assert!(
        report.is_clean(),
        "flow-aware rules have unjustified findings:\n{}",
        report.diagnostics.iter().map(Diagnostic::render).collect::<Vec<_>>().join("\n")
    );
    // The sanctioned data->hidden back-edge must be carried by the
    // allowlist, not silently invisible to the rule.
    assert!(
        report.allowlisted >= 2,
        "expected the data->hidden manifest + use entries to absorb findings: {}",
        report.allowlisted
    );
}

/// A stale allowlist entry is a finding, not a warning: it lands in
/// `report.diagnostics`, so `is_clean()` goes false and the CLI (and CI)
/// exit nonzero until the dead entry is removed.
#[test]
fn stale_allowlist_entries_fail_the_run() {
    let list = allowlist::parse(
        "allow hot-path-alloc crates/store/src/no_such_file.rs `Vec::new()` -- obsolete\n",
    );
    let diags = Vec::new();
    let mut meta = Vec::new();
    let (kept, absorbed) = allowlist::apply(&list, "lint-allow.txt", diags, &mut meta);
    assert_eq!((kept.len(), absorbed), (0, 0));
    assert_eq!(meta.len(), 1);
    assert_eq!(meta[0].rule, "stale-allowlist");
    // lint_workspace appends meta findings to report.diagnostics — model
    // that merge and confirm the gate trips.
    let mut report = smartcrawl_lint::Report::default();
    report.diagnostics.extend(meta);
    assert!(!report.is_clean(), "a stale entry must fail the CI gate");
}
