//! `io-hygiene`: the out-of-core store's I/O discipline.
//!
//! The paged store (`Config::io_hygiene_paths`: `crates/store/` plus the
//! disk-backed hidden module `crates/hidden/src/store.rs`, which speaks
//! the same format) is
//! the one subsystem whose failures arrive from outside the process —
//! disks truncate, bits rot — so its contract is stricter than the
//! workspace's general panic rule:
//!
//! * **No `.unwrap()` / `.expect()`** anywhere in non-test store code:
//!   an I/O failure must surface as `StoreError`, never an abort. (The
//!   crate's single justified panic site carries its own
//!   `lint:allow(panic-freedom)`; this rule keeps new ones out.)
//! * **No wall-clock reads** (`Instant::now`, `SystemTime::now`): cache
//!   eviction follows the order of accesses (a recency list) so page
//!   replacement — and therefore every cached read — is deterministic.
//! * **File writes only through the versioned-header writer**
//!   (`Config::io_writer_paths`): `File::create`, `OpenOptions`, and
//!   `fs::write` outside those files would mint store files that skip the
//!   magic/checksum header and the torn-write protocol (header last).

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::rules::emit;
use crate::source::{FileKind, SourceFile};

pub fn check(file: &SourceFile<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if file.kind == FileKind::Test {
        return;
    }
    if !cfg
        .io_hygiene_paths
        .iter()
        .any(|p| file.path.starts_with(p.as_str()))
    {
        return;
    }
    let in_writer = cfg
        .io_writer_paths
        .iter()
        .any(|p| file.path.starts_with(p.as_str()) || file.path.ends_with(p.as_str()));
    let n = file.code.len();
    for i in 0..n {
        let Some(tok) = file.code_tok(i) else { break };
        if file.in_test_code(tok.offset) {
            continue;
        }
        // `. unwrap (` / `. expect (` — store code propagates StoreError.
        if (tok.text == "unwrap" || tok.text == "expect")
            && i >= 1
            && file.code_tok(i - 1).is_some_and(|t| t.text == ".")
            && file.code_tok(i + 1).is_some_and(|t| t.text == "(")
        {
            emit(
                out,
                file,
                "io-hygiene",
                tok.line,
                tok.col,
                format!(
                    ".{}() in store code turns a recoverable I/O failure into an \
                     abort — propagate StoreError instead",
                    tok.text
                ),
            );
            continue;
        }
        // `Instant :: now` / `SystemTime :: now` — eviction follows the
        // access order; a wall-clock LRU makes cached reads schedule-
        // dependent.
        if (tok.text == "Instant" || tok.text == "SystemTime")
            && file.code_tok(i + 1).is_some_and(|t| t.text == ":")
            && file.code_tok(i + 2).is_some_and(|t| t.text == ":")
            && file.code_tok(i + 3).is_some_and(|t| t.text == "now")
        {
            emit(
                out,
                file,
                "io-hygiene",
                tok.line,
                tok.col,
                format!(
                    "{}::now() in the store — eviction and caching must follow the \
                     access order, never the wall clock",
                    tok.text
                ),
            );
            continue;
        }
        if in_writer {
            continue;
        }
        // Raw file creation outside the versioned-header writer module:
        // `File :: create`, `OpenOptions`, `fs :: write`.
        let raw_write = (tok.text == "File"
            && file.code_tok(i + 1).is_some_and(|t| t.text == ":")
            && file.code_tok(i + 2).is_some_and(|t| t.text == ":")
            && file.code_tok(i + 3).is_some_and(|t| t.text == "create"))
            || tok.text == "OpenOptions"
            || (tok.text == "fs"
                && file.code_tok(i + 1).is_some_and(|t| t.text == ":")
                && file.code_tok(i + 2).is_some_and(|t| t.text == ":")
                && file.code_tok(i + 3).is_some_and(|t| t.text == "write"));
        if raw_write {
            emit(
                out,
                file,
                "io-hygiene",
                tok.line,
                tok.col,
                "raw file write outside the paged writer — store files must be \
                 minted by PagedWriter so they carry the versioned, checksummed \
                 header (written last, so torn writes fail validation)"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::new(path, src);
        let mut out = Vec::new();
        check(&file, &Config::default(), &mut out);
        out
    }

    #[test]
    fn flags_unwrap_and_expect_in_store_code() {
        let src = "fn f() { std::fs::read(p).unwrap(); g().expect(\"x\"); }";
        assert_eq!(diags("crates/store/src/cache.rs", src).len(), 2);
        // The same code outside the store is another rule's business.
        assert!(diags("crates/core/src/local.rs", src).is_empty());
    }

    #[test]
    fn flags_wall_clock_reads() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        assert_eq!(diags("crates/store/src/cache.rs", src).len(), 2);
    }

    #[test]
    fn flags_raw_writes_outside_the_writer_module() {
        let src = "fn f(p: &Path) { let f = File::create(p); \
                   let o = OpenOptions::new(); fs::write(p, b\"x\").ok(); }";
        assert_eq!(diags("crates/store/src/blob.rs", src).len(), 3);
        // The paged writer itself is the one place that may open files.
        assert!(diags("crates/store/src/file.rs", src).is_empty());
    }

    #[test]
    fn reads_and_dir_management_are_fine() {
        let src = "fn f(p: &Path) -> std::io::Result<()> { \
                   let _ = File::open(p)?; fs::create_dir_all(p)?; \
                   fs::remove_dir_all(p) }";
        assert!(diags("crates/store/src/backend.rs", src).is_empty());
    }

    #[test]
    fn covers_the_disk_backed_hidden_module() {
        let src = "fn f() { std::fs::read(p).unwrap(); let t = Instant::now(); }";
        assert_eq!(diags("crates/hidden/src/store.rs", src).len(), 2);
        // The rest of the hidden crate stays under the general rules only.
        assert!(diags("crates/hidden/src/engine.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { foo().unwrap(); } }";
        assert!(diags("crates/store/src/cache.rs", src).is_empty());
        assert!(diags("crates/store/tests/props.rs", "fn f() { g().unwrap(); }").is_empty());
    }
}
