//! Inverted index over token-set documents (paper Fig. 3(a)).
//!
//! `|q(D)| = |⋂_{w ∈ q} I(w)|`: a conjunctive keyword query's frequency is
//! the size of the intersection of the query keywords' posting lists. The
//! intersection visits lists rarest-first and probes the remaining lists
//! with galloping (doubling) search, which is near-optimal when list sizes
//! are skewed — the common case under Zipfian vocabularies.

use smartcrawl_text::{Document, RecordId, TokenId};

/// An immutable inverted index: token → sorted list of record ids.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: Vec<Vec<RecordId>>,
    num_docs: usize,
}

impl InvertedIndex {
    /// Builds the index over `docs`; document `i` gets `RecordId(i)`.
    ///
    /// `vocab_size` must be at least as large as every token id occurring in
    /// `docs` (use `Vocabulary::len()`).
    pub fn build(docs: &[Document], vocab_size: usize) -> Self {
        let mut postings: Vec<Vec<RecordId>> = vec![Vec::new(); vocab_size];
        for (i, doc) in docs.iter().enumerate() {
            let rid = RecordId(i as u32);
            for token in doc.iter() {
                assert!(token.index() < vocab_size, "token id out of vocabulary range");
                postings[token.index()].push(rid);
            }
        }
        // Documents are visited in ascending id order and each token occurs
        // at most once per document, so every posting list is already
        // sorted and deduplicated.
        Self { postings, num_docs: docs.len() }
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// The posting list `I(w)` for a token (empty if the token is unknown
    /// or beyond the indexed vocabulary).
    pub fn postings(&self, token: TokenId) -> &[RecordId] {
        self.postings.get(token.index()).map_or(&[], Vec::as_slice)
    }

    /// Document frequency of a single token.
    pub fn doc_frequency(&self, token: TokenId) -> usize {
        self.postings(token).len()
    }

    /// Materializes `q(D)`: the sorted ids of all documents containing every
    /// token of `query`. An empty query matches nothing by convention (the
    /// pool never contains the empty query).
    pub fn matching(&self, query: &[TokenId]) -> Vec<RecordId> {
        self.intersect(query, |out, rid| out.push(rid))
    }

    /// `|q(D)|` without materializing the match set.
    pub fn frequency(&self, query: &[TokenId]) -> usize {
        match query {
            [] => 0,
            // Single-token fast path: the posting list length IS the
            // frequency — no need to walk the list.
            [t] => self.postings(*t).len(),
            _ => {
                let mut n = 0usize;
                self.intersect(query, |_, _| n += 1);
                n
            }
        }
    }

    /// Cursor-galloping k-way intersection: walks the smallest posting
    /// list and advances one monotone cursor per remaining list with
    /// exponential search *from the cursor* — consecutive seed candidates
    /// are ascending, so no list position is ever re-scanned and the total
    /// work is bounded by the sum of list lengths (instead of
    /// `|seed| · log` with from-the-start restarts per candidate). `emit`
    /// receives each matching id in ascending order; the returned buffer
    /// is whatever `emit` pushed (empty for counting callers).
    fn intersect(
        &self,
        query: &[TokenId],
        mut emit: impl FnMut(&mut Vec<RecordId>, RecordId),
    ) -> Vec<RecordId> {
        let mut out = Vec::new();
        if query.is_empty() {
            return out;
        }
        let mut lists: Vec<&[RecordId]> = query.iter().map(|&t| self.postings(t)).collect();
        lists.sort_unstable_by_key(|l| l.len());
        let Some((&seed, rest)) = lists.split_first() else { return out };
        if seed.is_empty() {
            return out;
        }
        if rest.is_empty() {
            for &rid in seed {
                emit(&mut out, rid);
            }
            return out;
        }
        // Pairwise fast path (the dominant shape: two-keyword mined
        // queries): when the lists are within a galloping-overhead factor
        // of each other, a branchy two-pointer merge touches every element
        // once and beats per-candidate exponential search; heavily skewed
        // pairs still gallop.
        if let [other] = rest {
            if other.len() / seed.len().max(1) < 16 {
                let (mut i, mut j) = (0usize, 0usize);
                while let (Some(&a), Some(&b)) = (seed.get(i), other.get(j)) {
                    match a.cmp(&b) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            emit(&mut out, a);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                return out;
            }
        }
        let mut cursors = vec![0usize; rest.len()];
        'cand: for &rid in seed {
            for (cursor, &list) in cursors.iter_mut().zip(rest) {
                *cursor = gallop_advance(list, *cursor, rid);
                if *cursor == list.len() {
                    // No element >= rid remains in this list, so no later
                    // (larger) seed candidate can match either.
                    break 'cand;
                }
                // lint:allow(panic-freedom) gallop_advance returns an index <= list.len(), and == was handled above
                if list[*cursor] != rid {
                    continue 'cand;
                }
            }
            emit(&mut out, rid);
        }
        out
    }
}

/// Index of the first element of `list[start..]` that is `>= target`, as an
/// absolute index (`list.len()` if none). Exponential widening from
/// `start`, then binary search inside the final window — O(log distance)
/// in how far the cursor actually moves, which is what makes the monotone
/// intersection cursor cheap.
fn gallop_advance(list: &[RecordId], start: usize, target: RecordId) -> usize {
    if list.get(start).is_none_or(|&v| v >= target) {
        return start;
    }
    // Invariant: list[start + lo] < target; widen hi until it crosses.
    let mut step = 1usize;
    let mut lo = 0usize;
    loop {
        let probe = start + step;
        match list.get(probe) {
            Some(&v) if v < target => {
                lo = step;
                step <<= 1;
            }
            _ => break,
        }
    }
    // lint:allow(panic-freedom) list[start + lo] < target was just probed, so start + lo < len; the end is clamped to len
    let tail = &list[start + lo..(start + step + 1).min(list.len())];
    let off = tail.partition_point(|&v| v < target);
    start + lo + off
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_text::TokenId;

    fn docs(specs: &[&[u32]]) -> Vec<Document> {
        specs
            .iter()
            .map(|s| Document::from_tokens(s.iter().map(|&t| TokenId(t)).collect()))
            .collect()
    }

    fn rids(ids: &[u32]) -> Vec<RecordId> {
        ids.iter().map(|&i| RecordId(i)).collect()
    }

    #[test]
    fn postings_are_sorted_per_token() {
        let idx = InvertedIndex::build(&docs(&[&[0, 1], &[1], &[0, 1, 2]]), 3);
        assert_eq!(idx.postings(TokenId(0)), rids(&[0, 2]));
        assert_eq!(idx.postings(TokenId(1)), rids(&[0, 1, 2]));
        assert_eq!(idx.postings(TokenId(2)), rids(&[2]));
        assert_eq!(idx.num_docs(), 3);
    }

    #[test]
    fn running_example_frequencies() {
        // Figure 1 local database: d1=Thai Noodle House, d2=Jade Noodle House,
        // d3=Thai House, d4=Thai Noodle Express (a consistent stand-in).
        // tokens: 0=thai 1=noodle 2=house 3=jade 4=express
        let idx = InvertedIndex::build(
            &docs(&[&[0, 1, 2], &[3, 1, 2], &[0, 2], &[0, 1, 4]]),
            5,
        );
        // q5 = "house" → 3 records; q7 = "noodle house" → 2 records.
        assert_eq!(idx.frequency(&[TokenId(2)]), 3);
        assert_eq!(idx.frequency(&[TokenId(1), TokenId(2)]), 2);
        assert_eq!(idx.matching(&[TokenId(1), TokenId(2)]), rids(&[0, 1]));
    }

    #[test]
    fn empty_query_matches_nothing() {
        let idx = InvertedIndex::build(&docs(&[&[0]]), 1);
        assert_eq!(idx.frequency(&[]), 0);
        assert!(idx.matching(&[]).is_empty());
    }

    #[test]
    fn unknown_token_matches_nothing() {
        let idx = InvertedIndex::build(&docs(&[&[0]]), 1);
        assert_eq!(idx.frequency(&[TokenId(99)]), 0);
        assert!(idx.matching(&[TokenId(0), TokenId(99)]).is_empty());
    }

    #[test]
    fn frequency_agrees_with_matching_len() {
        let idx = InvertedIndex::build(
            &docs(&[&[0, 1], &[0, 2], &[1, 2], &[0, 1, 2], &[3]]),
            4,
        );
        for q in [&[TokenId(0)][..], &[TokenId(0), TokenId(1)], &[TokenId(0), TokenId(1), TokenId(2)]] {
            assert_eq!(idx.frequency(q), idx.matching(q).len());
        }
    }
}
