//! English stop words.
//!
//! The paper's conjunctive-keyword-search definition explicitly excludes
//! stop words from query keywords ("we do not consider stop words as query
//! keywords", §2). The simulated DBLP search engine likewise removes stop
//! words before indexing (§7.1.1). We use a compact list covering the
//! function words that actually occur in publication titles and business
//! names; domain tokens are never stop words.
//!
//! The tokenizer asks about every keyword it produces, so the lookup runs
//! on integers: each stop word is packed into one `u64` at compile time,
//! and [`is_stopword`] binary-searches those keys. A word longer than
//! seven bytes cannot be a stop word and skips the search.

/// The built-in English stop-word list, lowercase, sorted.
pub const STOPWORDS: &[&str] = &[
    "a", "about", "after", "all", "also", "an", "and", "any", "are", "as", "at", "be", "because",
    "been", "before", "being", "between", "both", "but", "by", "can", "could", "did", "do", "does",
    "doing", "down", "during", "each", "few", "for", "from", "further", "had", "has", "have",
    "having", "he", "her", "here", "hers", "him", "his", "how", "i", "if", "in", "into", "is",
    "it", "its", "itself", "just", "me", "more", "most", "my", "no", "nor", "not", "now", "of",
    "off", "on", "once", "only", "or", "other", "our", "ours", "out", "over", "own", "same",
    "she", "should", "so", "some", "such", "than", "that", "the", "their", "theirs", "them",
    "then", "there", "these", "they", "this", "those", "through", "to", "too", "under", "until",
    "up", "very", "was", "we", "were", "what", "when", "where", "which", "while", "who", "whom",
    "why", "will", "with", "you", "your", "yours",
];

/// The longest word a packed key holds: seven text bytes, with the
/// eighth byte of the `u64` left for the length.
const KEY_BYTES: usize = 7;

/// Packs a word of at most [`KEY_BYTES`] bytes into one `u64`: the bytes
/// left-aligned from the most significant end, zero-padded, and the length
/// in the low byte. Distinct words get distinct keys (the length byte
/// tells `"a"` from `"a\0"`), and byte-wise lexicographic order of words
/// is numeric order of keys, so the sorted [`STOPWORDS`] pack into a
/// sorted table.
const fn pack(word: &[u8]) -> u64 {
    let mut key = 0u64;
    let mut rest = word;
    while let [byte, tail @ ..] = rest {
        key = key << 8 | *byte as u64;
        rest = tail;
    }
    key << (8 * (KEY_BYTES - word.len())) << 8 | word.len() as u64
}

/// [`STOPWORDS`] packed, in the same order. Built at compile time, where
/// the two asserts check that every stop word fits the key and that the
/// keys ascend strictly, as the binary search in [`is_stopword`] needs.
const STOP_KEYS: [u64; STOPWORDS.len()] = {
    let mut keys = [0u64; STOPWORDS.len()];
    let (mut words, mut slots): (&[&str], &mut [u64]) = (STOPWORDS, &mut keys);
    // Every key is above 0: a stop word is never empty, so its length byte is not.
    let mut prev = 0;
    while let ([word, more_words @ ..], [slot, more_slots @ ..]) = (words, slots) {
        assert!(
            word.len() <= KEY_BYTES,
            "a stop word is wider than the packed key"
        );
        *slot = pack(word.as_bytes());
        assert!(prev < *slot, "the packed stop-word keys must ascend");
        prev = *slot;
        (words, slots) = (more_words, more_slots);
    }
    keys
};

/// Returns `true` if `word` (already lowercased) is a stop word. A word
/// longer than the key is not one and skips the search.
pub fn is_stopword(word: &str) -> bool {
    word.len() <= KEY_BYTES && STOP_KEYS.binary_search(&pack(word.as_bytes())).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_deduped() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, STOPWORDS);
    }

    #[test]
    fn common_function_words_are_stopwords() {
        for w in ["the", "of", "and", "a", "in", "with"] {
            assert!(is_stopword(w), "{w} should be a stop word");
        }
    }

    #[test]
    fn domain_words_are_not_stopwords() {
        for w in ["database", "thai", "noodle", "house", "crawling"] {
            assert!(!is_stopword(w), "{w} must not be a stop word");
        }
    }

    /// The packed lookup against the list itself.
    fn agrees(word: &str) {
        assert_eq!(is_stopword(word), STOPWORDS.contains(&word), "{word:?}");
    }

    #[test]
    fn packed_lookup_agrees_on_every_stop_word() {
        for w in STOPWORDS {
            assert!(is_stopword(w), "{w}");
            agrees(w);
        }
    }

    #[test]
    fn packed_lookup_agrees_with_one_byte_added_or_removed() {
        // Stop words are ASCII, so every edit stays a one-byte edit.
        let bytes = ['\0', 'a', 'e', 's', 'z', '0', '\'', '\u{7f}'];
        for w in STOPWORDS {
            for at in 0..=w.len() {
                for &b in &bytes {
                    let mut longer = w.to_string();
                    longer.insert(at, b);
                    agrees(&longer);
                }
            }
            for at in 0..w.len() {
                let mut shorter = w.to_string();
                shorter.remove(at);
                agrees(&shorter);
            }
        }
    }

    #[test]
    fn nul_padding_does_not_alias_a_stop_word() {
        for w in [
            "a\0",
            "a\0\0\0\0\0\0",
            "\0a",
            "of\0",
            "the\0\0\0\0",
            "\0",
            "",
        ] {
            assert!(!is_stopword(w), "{w:?}");
            agrees(w);
        }
        assert_ne!(pack(b"a"), pack(b"a\0"));
    }

    #[test]
    fn words_longer_than_the_key_are_never_stop_words() {
        for w in [
            "becauses",
            "throughout",
            "yourselves",
            "between\0",
            "theirsxx",
            "abcdefgh",
        ] {
            assert!(w.len() > KEY_BYTES);
            assert!(!is_stopword(w), "{w}");
        }
    }

    #[test]
    fn keys_order_like_the_words() {
        let words = ["", "a", "a\0", "aa", "ab", "b", "through", "\u{7f}"];
        for pair in words.windows(2) {
            let (lo, hi) = (pack(pair[0].as_bytes()), pack(pair[1].as_bytes()));
            assert!(lo < hi, "{pair:?}");
        }
    }
}
