//! Shared tokenization state for one crawl.
//!
//! The local index, the sample index, the query pool, and the documents of
//! records returned at crawl time must all live in a single vocabulary, or
//! token-id comparisons between them would be meaningless. [`TextContext`]
//! bundles the tokenizer and that vocabulary; it stays mutable throughout a
//! crawl because returned hidden records can contain keywords never seen in
//! `D` (which must *not* be dropped — an extra unseen keyword changes both
//! exact equality and Jaccard similarity).

use crate::arena::RecordArena;
use smartcrawl_hidden::Retrieved;
use smartcrawl_text::{Document, Tokenizer, Vocabulary};

/// Tokenizer + vocabulary shared by everything in one crawl.
#[derive(Debug, Default)]
pub struct TextContext {
    /// The normalization pipeline.
    pub tokenizer: Tokenizer,
    /// The crawl-wide vocabulary.
    pub vocab: Vocabulary,
    /// Dense interning of retrieved hidden records' external ids:
    /// first-appearance order, so downstream memos are flat vectors.
    arena: RecordArena,
    /// Memoized documents of retrieved hidden records, indexed by the
    /// arena's dense id (invariant: a document is pushed the moment its id
    /// is interned, so `page_docs.len() == arena.len()` at all times). A
    /// record's cells never change within a crawl and vocabulary interning
    /// is append-only, so tokenizing once is enough; top-k pages re-surface
    /// the same popular records constantly, which makes this the hottest
    /// cache in the crawl loop.
    page_docs: Vec<Document>,
}

impl TextContext {
    /// Creates a fresh context with default tokenization.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenizes free text into the shared vocabulary.
    pub fn doc(&mut self, text: &str) -> Document {
        self.tokenizer.tokenize(text, &mut self.vocab)
    }

    /// Tokenizes a multi-field record into the shared vocabulary.
    pub fn doc_of_fields<S: AsRef<str>>(&mut self, fields: &[S]) -> Document {
        self.tokenizer.tokenize_fields(fields, &mut self.vocab)
    }

    /// Interns the retrieved record's external id, tokenizing its document
    /// on first sight. Repeat appearances cost one arena probe and no
    /// tokenization. The returned dense id indexes
    /// [`TextContext::dense_doc`] and any caller-side per-record memo.
    pub fn intern_retrieved(&mut self, r: &Retrieved) -> u32 {
        let (dense, fresh) = self.arena.intern(r.external_id);
        if fresh {
            let d = self.tokenizer.tokenize_fields(&r.fields[..], &mut self.vocab);
            self.page_docs.push(d);
        }
        dense
    }

    /// The memoized document behind a dense id from
    /// [`TextContext::intern_retrieved`].
    pub fn dense_doc(&self, dense: u32) -> &Document {
        // lint:allow(panic-freedom) dense ids are minted by intern_retrieved, which pushes the doc before returning
        &self.page_docs[dense as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_hidden::ExternalId;

    #[test]
    fn doc_interns_into_shared_vocab() {
        let mut ctx = TextContext::new();
        let a = ctx.doc("thai noodle house");
        let b = ctx.doc("noodle bar");
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 2);
        assert_eq!(a.intersection_size(&b), 1); // "noodle" shared id
        assert_eq!(ctx.vocab.len(), 4);
    }

    #[test]
    fn doc_of_fields_concatenates() {
        let mut ctx = TextContext::new();
        let d = ctx.doc_of_fields(&["thai house", "phoenix"]);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn intern_retrieved_assigns_dense_ids_in_first_appearance_order() {
        let mut ctx = TextContext::new();
        let a = Retrieved::new(ExternalId(90), vec!["thai house".into()], vec![]);
        let b = Retrieved::new(ExternalId(3), vec!["noodle bar".into()], vec![]);
        assert_eq!(ctx.intern_retrieved(&a), 0);
        assert_eq!(ctx.intern_retrieved(&b), 1);
        assert_eq!(ctx.intern_retrieved(&a), 0, "repeat keeps its dense id");
        // A record is tokenized once: a repeat id is not tokenized again,
        // so its new cells never reach the document or the vocabulary.
        let a_again = Retrieved::new(ExternalId(90), vec!["jade palace".into()], vec![]);
        assert_eq!(ctx.intern_retrieved(&a_again), 0);
        assert_eq!(ctx.vocab.get("jade"), None);
        let expect = [ctx.doc_of_fields(&["thai house"]), ctx.doc_of_fields(&["noodle bar"])];
        assert_eq!([ctx.dense_doc(0), ctx.dense_doc(1)], [&expect[0], &expect[1]]);
    }
}
