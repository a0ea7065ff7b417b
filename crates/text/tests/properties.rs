//! Property-based tests for the text substrate.

use proptest::prelude::*;
use smartcrawl_text::similarity::{dice, jaccard, levenshtein, overlap};
use smartcrawl_text::stopwords::STOPWORDS;
use smartcrawl_text::{Document, TokenId, Tokenizer, Vocabulary};

fn doc_strategy() -> impl Strategy<Value = Document> {
    prop::collection::vec(0u32..64, 0..24)
        .prop_map(|v| Document::from_tokens(v.into_iter().map(TokenId).collect()))
}

/// `word` with the letters whose bit is set in `mask` uppercased.
fn any_case(word: &str, mask: u32) -> String {
    word.chars()
        .enumerate()
        .map(|(i, c)| {
            if mask >> (i % 32) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// Text built from pieces laid end to end, so a piece can land mid-word or
/// at a word's end: ASCII words in both cases, digits, separators
/// (`.` and `'` are case-ignorable, which the final-sigma rule looks
/// through), stop words in any case, and non-ASCII letters — `Σ` in both
/// lowercase forms, `İ` (two characters when lowercased), `ß`, `É`, a
/// combining acute accent and the Kelvin sign (whose lowercase is ASCII).
fn text_strategy() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        "[a-zA-Z]{1,8}",
        "[0-9]{1,4}",
        "[ .,'!()/-]{1,3}",
        (0..STOPWORDS.len(), 0u32..256).prop_map(|(i, mask)| any_case(STOPWORDS[i], mask)),
        "[aeisAEISΣσςİıßÉé\u{301}\u{212A}]{1,4}",
    ];
    prop::collection::vec(piece, 0..16).prop_map(|pieces| pieces.concat())
}

/// The normalization pipeline restated the plain way, one owned `String`
/// per keyword: split on non-alphanumeric characters, lowercase, drop stop
/// words.
fn reference_keywords(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
        .filter(|t| STOPWORDS.binary_search(&t.as_str()).is_err())
        .collect()
}

fn vocab_words(v: &Vocabulary) -> Vec<(TokenId, String)> {
    v.iter().map(|(id, w)| (id, w.to_owned())).collect()
}

proptest! {
    #[test]
    fn document_tokens_are_strictly_sorted(d in doc_strategy()) {
        prop_assert!(d.tokens().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn document_contains_all_of_itself(d in doc_strategy()) {
        prop_assert!(d.contains_all(d.tokens()));
    }

    #[test]
    fn contains_all_matches_naive_subset(d in doc_strategy(), q in doc_strategy()) {
        let naive = q.iter().all(|t| d.tokens().contains(&t));
        prop_assert_eq!(d.contains_all(q.tokens()), naive);
    }

    #[test]
    fn intersection_size_is_symmetric_and_bounded(a in doc_strategy(), b in doc_strategy()) {
        let ab = a.intersection_size(&b);
        prop_assert_eq!(ab, b.intersection_size(&a));
        prop_assert!(ab <= a.len().min(b.len()));
        prop_assert_eq!(a.union_size(&b), a.len() + b.len() - ab);
    }

    #[test]
    fn jaccard_in_unit_interval_and_symmetric(a in doc_strategy(), b in doc_strategy()) {
        let j = jaccard(&a, &b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(j.to_bits(), jaccard(&b, &a).to_bits());
        // Jaccard 1.0 iff equal sets.
        prop_assert_eq!(j == 1.0, a == b);
    }

    #[test]
    fn similarity_ordering_jaccard_le_dice_le_overlap(a in doc_strategy(), b in doc_strategy()) {
        // For non-degenerate sets: jaccard <= dice <= overlap.
        prop_assume!(!a.is_empty() && !b.is_empty());
        let (j, d, o) = (jaccard(&a, &b), dice(&a, &b), overlap(&a, &b));
        prop_assert!(j <= d + 1e-12);
        prop_assert!(d <= o + 1e-12);
    }

    #[test]
    fn levenshtein_triangle_inequality(
        a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}"
    ) {
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn levenshtein_zero_iff_equal(a in "[a-c]{0,8}", b in "[a-c]{0,8}") {
        prop_assert_eq!(levenshtein(&a, &b) == 0, a == b);
    }

    #[test]
    fn tokenizer_is_idempotent_through_vocab(words in prop::collection::vec("[a-z]{1,8}", 0..12)) {
        let tok = Tokenizer::default();
        let mut vocab = Vocabulary::new();
        let text = words.join(" ");
        let d1 = tok.tokenize(&text, &mut vocab);
        let d2 = tok.tokenize(&text, &mut vocab);
        prop_assert_eq!(d1, d2);
    }

    #[test]
    fn tokenizer_matches_the_reference_pipeline(
        fields in prop::collection::vec(text_strategy(), 0..4),
        extra in text_strategy(),
    ) {
        let tok = Tokenizer::default();
        let (mut vocab, mut reference) = (Vocabulary::new(), Vocabulary::new());

        // tokenize_fields: the same document, and the same words under the
        // same ids, in first-appearance order.
        let doc = tok.tokenize_fields(&fields, &mut vocab);
        let expect: Document = fields
            .iter()
            .flat_map(|f| reference_keywords(f))
            .map(|w| reference.intern(&w))
            .collect();
        prop_assert_eq!(doc, expect);
        prop_assert_eq!(vocab_words(&vocab), vocab_words(&reference));

        // tokenize, field by field, then on text the vocabulary has not seen.
        let mut texts = fields.clone();
        texts.push(extra.clone());
        for text in &texts {
            let doc = tok.tokenize(text, &mut vocab);
            let expect: Document =
                reference_keywords(text).iter().map(|w| reference.intern(w)).collect();
            prop_assert_eq!(doc, expect);
            prop_assert_eq!(vocab_words(&vocab), vocab_words(&reference));
        }

        // raw_tokens and for_each_keyword yield the keywords themselves, on
        // a mix of known and unseen words.
        let probe = format!("{}{extra}{}", fields.concat(), any_case(&extra, 0x5555_5555));
        prop_assert_eq!(tok.raw_tokens(&probe).collect::<Vec<_>>(), reference_keywords(&probe));
        let mut seen = Vec::new();
        tok.for_each_keyword(&probe, |w| seen.push(w.to_owned()));
        prop_assert_eq!(seen, reference_keywords(&probe));
    }
}
