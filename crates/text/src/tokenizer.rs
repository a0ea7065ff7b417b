//! The one keyword normalizer, shared by every index in the system.
//!
//! The local database, the hidden-database simulator, and the crawler must
//! agree on what a "keyword" is, otherwise the conjunctive-containment
//! semantics of Definition 1 silently diverge between the two sides. The
//! pipeline is: split on non-alphanumeric characters → lowercase → drop
//! stop words → dedup (set semantics).
//!
//! Every entry point runs one loop over the pieces of the text. An ASCII
//! piece is lowercased into a reused buffer, or borrowed as it is when it
//! holds no capital; a non-ASCII piece goes through `str::to_lowercase`,
//! which knows the final-sigma rule and the lowercasings that change a
//! character count. The keyword is then checked against the packed
//! stop-word table and handed on borrowed, so interning a keyword the
//! vocabulary already holds allocates nothing. The `tokenize*` entry points
//! collect ids in a per-thread scratch list and copy them out at exact
//! size, so a document costs one allocation.

use crate::document::Document;
use crate::stopwords::is_stopword;
use crate::vocab::{TokenId, Vocabulary};
use std::cell::RefCell;

/// The keyword normalizer. It has one configuration, the paper's (§2
/// drops stop words from keywords); build it with `Tokenizer::default()`.
///
/// # Examples
///
/// ```
/// use smartcrawl_text::{Tokenizer, Vocabulary};
///
/// let tok = Tokenizer::default();
/// let mut vocab = Vocabulary::new();
/// let doc = tok.tokenize("Lotus of Siam", &mut vocab);
/// // "of" is a stop word; two keywords remain.
/// assert_eq!(doc.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct Tokenizer;

thread_local! {
    /// Scratch reused by the `tokenize*` entry points on this thread: the
    /// lowercase buffer and the ids of the document being built. The
    /// closure run while it is borrowed only interns keywords, so it is
    /// never borrowed twice.
    static SCRATCH: RefCell<(String, Vec<TokenId>)> =
        const { RefCell::new((String::new(), Vec::new())) };
}

/// Calls `f` with each keyword of `text`, in text order, repeats included.
/// The keyword is borrowed from `text` or from `lower`, which is reused
/// from piece to piece.
fn each_keyword(text: &str, lower: &mut String, mut f: impl FnMut(&str)) {
    for piece in text.split(|c: char| !c.is_alphanumeric()) {
        if piece.is_empty() {
            continue;
        }
        let word = if !piece.is_ascii() {
            // lint:allow(hot-path-alloc) non-ASCII pieces are rare, and `str::to_lowercase` keeps the final-sigma rule and multi-character lowercasings
            *lower = piece.to_lowercase();
            lower.as_str()
        } else if piece.bytes().any(|b| b.is_ascii_uppercase()) {
            lower.clear();
            lower.push_str(piece);
            lower.make_ascii_lowercase();
            lower.as_str()
        } else {
            piece
        };
        if !is_stopword(word) {
            f(word);
        }
    }
}

impl Tokenizer {
    /// Calls `f` with each keyword of `text` (lowercased, stop words
    /// dropped), in text order, repeats included. These are the keywords
    /// [`Tokenizer::tokenize`] interns.
    pub fn for_each_keyword(&self, text: &str, f: impl FnMut(&str)) {
        each_keyword(text, &mut String::new(), f);
    }

    /// The keywords of `text` as owned strings, for callers that keep
    /// words rather than ids.
    pub fn raw_tokens(&self, text: &str) -> impl Iterator<Item = String> {
        let mut words = Vec::new();
        self.for_each_keyword(text, |w| words.push(w.to_owned()));
        words.into_iter()
    }

    /// Tokenizes `text` into a [`Document`], interning new keywords.
    pub fn tokenize(&self, text: &str, vocab: &mut Vocabulary) -> Document {
        self.tokenize_fields(&[text], vocab)
    }

    /// Tokenizes the concatenation of `fields` (paper: `document(·)`
    /// concatenates all attributes of the record).
    pub fn tokenize_fields<S: AsRef<str>>(&self, fields: &[S], vocab: &mut Vocabulary) -> Document {
        SCRATCH.with_borrow_mut(|(lower, ids)| {
            ids.clear();
            for field in fields {
                each_keyword(field.as_ref(), lower, |w| ids.push(vocab.intern(w)));
            }
            ids.sort_unstable();
            ids.dedup();
            Document::from_sorted(ids.to_vec())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_splits_on_punctuation() {
        let tok = Tokenizer::default();
        let mut v = Vocabulary::new();
        let d = tok.tokenize("Thai-Noodle HOUSE, (Downtown)", &mut v);
        let words: Vec<_> = d.iter().map(|t| v.word(t).to_owned()).collect();
        let mut expect = vec!["thai", "noodle", "house", "downtown"];
        expect.sort_unstable_by_key(|w| v.get(w).unwrap());
        assert_eq!(words, expect);
    }

    #[test]
    fn removes_stopwords_by_default() {
        let tok = Tokenizer::default();
        let mut v = Vocabulary::new();
        let d = tok.tokenize("The Lotus of Siam", &mut v);
        assert_eq!(d.len(), 2);
        assert!(v.get("the").is_none());
        assert!(v.get("of").is_none());
    }

    #[test]
    fn dedups_repeated_keywords() {
        let tok = Tokenizer::default();
        let mut v = Vocabulary::new();
        let d = tok.tokenize("noodle noodle noodle house", &mut v);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn tokenize_fields_concatenates_attributes() {
        let tok = Tokenizer::default();
        let mut v = Vocabulary::new();
        let d = tok.tokenize_fields(&["Thai House", "Vancouver", "4.1"], &mut v);
        // "4.1" splits on '.' into "4" and "1": thai, house, vancouver, 4, 1.
        assert_eq!(d.len(), 5);
        assert!(v.get("thai").is_some());
        assert!(v.get("vancouver").is_some());
    }

    #[test]
    fn empty_and_punctuation_only_text_yields_empty_document() {
        let tok = Tokenizer::default();
        let mut v = Vocabulary::new();
        assert!(tok.tokenize("", &mut v).is_empty());
        assert!(tok.tokenize("--- ... !!!", &mut v).is_empty());
    }

    #[test]
    fn non_ascii_pieces_keep_unicode_lowercasing() {
        let tok = Tokenizer::default();
        // Final sigma, a two-character lowercasing, and a capital whose
        // lowercase is ASCII.
        let words: Vec<_> = tok.raw_tokens("ΟΔΟΣ İstanbul \u{212A}ING").collect();
        assert_eq!(words, ["οδο\u{3c2}", "i\u{307}stanbul", "king"]);
    }
}
