//! `hot-path-alloc`: no per-iteration allocation in the hot loops of
//! the selection core (`crates/core/src/select/`), the out-of-core
//! store (`crates/store/src/`) and the keyword normalizer
//! (`crates/text/src/tokenizer.rs`). Inside any `for`/`while`/`loop` body
//! in those paths (`Config::hot_alloc_paths`), the rule flags
//! `Vec::new`, `.to_vec()`, `.clone()`, `.to_lowercase()`,
//! `.to_uppercase()`, `format!` and `String::from` — the allocations that
//! turn an O(n) scan into allocator traffic.
//! Buffers get hoisted out of the loop and reused (`clear()` per
//! iteration); the rare justified allocation carries an inline
//! `lint:allow(hot-path-alloc)` with the reasoning.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::rules::emit;
use crate::source::{FileKind, SourceFile};

pub fn check(file: &SourceFile<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if file.kind == FileKind::Test {
        return;
    }
    if !cfg.hot_alloc_paths.iter().any(|p| file.path.starts_with(p.as_str())) {
        return;
    }
    if file.loop_bodies.is_empty() {
        return;
    }
    let in_loop = |off: usize| file.loop_bodies.iter().any(|&(s, e)| s <= off && off < e);
    let n = file.code.len();
    for i in 0..n {
        let Some(tok) = file.code_tok(i) else { break };
        if !in_loop(tok.offset) || file.in_test_code(tok.offset) {
            continue;
        }
        let t2 = |j: usize| file.code_tok(i + j).map(|t| t.text);
        // `Vec :: new` / `String :: from`. `with_capacity` is deliberately
        // NOT flagged: a pre-sized allocation in a loop is a conscious
        // decision (typically a buffer about to be moved into a struct),
        // not the accidental grow-from-empty pattern this rule hunts.
        if (tok.text == "Vec" || tok.text == "String")
            && t2(1) == Some(":")
            && t2(2) == Some(":")
            && matches!(t2(3), Some("new") | Some("from"))
        {
            let what = t2(3).unwrap_or("new");
            hot(out, file, tok.line, tok.col, &format!("{}::{what}", tok.text));
            continue;
        }
        // `. to_vec (` / `. clone (` / `. to_string (` / `. to_owned (`, and
        // the case conversions, which return a fresh `String`.
        if i >= 1
            && file.code_tok(i - 1).is_some_and(|t| t.text == ".")
            && t2(1) == Some("(")
            && matches!(
                tok.text,
                "to_vec" | "clone" | "to_string" | "to_owned" | "to_lowercase" | "to_uppercase"
            )
        {
            hot(out, file, tok.line, tok.col, &format!(".{}()", tok.text));
            continue;
        }
        // `format !` / `vec !` — macro allocations.
        if (tok.text == "format" || tok.text == "vec") && t2(1) == Some("!") {
            hot(out, file, tok.line, tok.col, &format!("{}!", tok.text));
        }
    }
}

fn hot(out: &mut Vec<Diagnostic>, file: &SourceFile<'_>, line: u32, col: u32, what: &str) {
    emit(
        out,
        file,
        "hot-path-alloc",
        line,
        col,
        format!(
            "`{what}` inside a hot loop body — hoist the buffer out of the loop \
             and reuse it (clear() per iteration), or justify with \
             lint:allow(hot-path-alloc)"
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::new(path, src);
        let mut out = Vec::new();
        check(&file, &Config::default(), &mut out);
        out
    }

    #[test]
    fn vec_new_in_loop_is_flagged() {
        let src = "fn f(n: usize) { for i in 0..n { let mut v = Vec::new(); v.push(i); } }";
        let d = diags("crates/store/src/inverted.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "hot-path-alloc");
    }

    #[test]
    fn clone_to_vec_format_in_loop_are_flagged() {
        let src = "fn f(rows: &[Row]) { for r in rows { let a = r.clone(); let b = r.bytes.to_vec(); let s = format!(\"{a:?}\"); } }";
        assert_eq!(diags("crates/core/src/select/engine.rs", src).len(), 3);
    }

    #[test]
    fn string_from_and_vec_macro_are_flagged() {
        let src =
            "fn f(n: usize) { while n > 0 { let s = String::from(\"x\"); let v = vec![0u8; 4]; } }";
        assert_eq!(diags("crates/store/src/forward.rs", src).len(), 2);
    }

    #[test]
    fn case_conversions_in_loop_are_flagged() {
        // A per-token lowercase in the normalizer's loop: one fresh String
        // per keyword. The in-place ASCII conversions allocate nothing.
        let src = "fn f(text: &str, buf: &mut String) { for t in text.split(' ') { \
                   let a = t.to_lowercase(); let b = t.to_uppercase(); \
                   buf.make_ascii_lowercase(); t.eq_ignore_ascii_case(&a); } }";
        let d = diags("crates/text/src/tokenizer.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "hot-path-alloc"));
        assert!(d[0].message.contains(".to_lowercase()"), "{d:?}");
        assert!(d[1].message.contains(".to_uppercase()"), "{d:?}");
        // Outside a loop, and in a file outside the hot paths, they pass.
        let once = "fn g(t: &str) -> String { t.to_lowercase() }";
        assert!(diags("crates/text/src/tokenizer.rs", once).is_empty());
        assert!(diags("crates/text/src/record.rs", src).is_empty());
    }

    #[test]
    fn with_capacity_in_loop_is_a_deliberate_allocation() {
        let src = "fn f(n: usize) { for i in 0..n { let v = Vec::with_capacity(i); g(v); } }";
        assert!(diags("crates/store/src/inverted.rs", src).is_empty());
    }

    #[test]
    fn hoisted_buffers_pass() {
        let src =
            "fn f(n: usize) { let mut v = Vec::new(); for i in 0..n { v.clear(); v.push(i); } }";
        assert!(diags("crates/store/src/inverted.rs", src).is_empty());
    }

    #[test]
    fn allocations_outside_hot_paths_pass() {
        let src = "fn f(n: usize) { for i in 0..n { let mut v = Vec::new(); v.push(i); } }";
        assert!(diags("crates/core/src/pool.rs", src).is_empty());
        assert!(diags("crates/hidden/src/db.rs", src).is_empty());
    }

    #[test]
    fn clone_outside_any_loop_passes() {
        let src = "fn f(r: &Row) -> Row { r.clone() }";
        assert!(diags("crates/store/src/inverted.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests { fn t(n: usize) { for i in 0..n { let v = Vec::new(); } } }";
        assert!(diags("crates/store/src/inverted.rs", src).is_empty());
    }

    #[test]
    fn clone_method_definition_is_not_a_call() {
        // `fn clone(&self)` has no preceding `.` — the rule keys on `.clone(`.
        let src = "impl Clone for S { fn clone(&self) -> S { S } }";
        assert!(diags("crates/store/src/file.rs", src).is_empty());
    }
}
