//! The hidden database's top-k: one conjunctive and one disjunctive scan,
//! shared by both backends.
//!
//! Both backends number records by their global rank position (rank-space
//! ids, ties broken by external id), so every posting list is ascending
//! *and* best-ranked first. A top-k page is then a scan in ascending id
//! order that stops once it holds `k` winners: no rank is looked up and no
//! losing record is collected. A [`PostingSource`] supplies the lists —
//! the RAM backend lends slices, the disk backend reads and decodes them
//! from its postings blob — and the scans never know which.

use crate::engine::SearchMode;
use smartcrawl_text::TokenId;
use std::convert::Infallible;

/// A forward-only cursor over one ascending posting list.
pub(crate) trait Cursor {
    /// Moves to the first id `>= target` and returns it, or `None` once the
    /// list is exhausted. Targets must not decrease between calls.
    fn advance_to(&mut self, target: u32) -> Option<u32>;
}

/// Where the scans get their rank-space posting lists.
pub(crate) trait PostingSource {
    /// A cursor over one opened list.
    type Cursor<'s>: Cursor
    where
        Self: 's;
    /// Why a list could not be read.
    type Error;

    /// Number of records holding `token` (0 for a token no record holds).
    fn count(&self, token: TokenId) -> u32;

    /// The lists of `tokens`, read in the order given: the first as a
    /// slice, the others as cursors.
    #[allow(clippy::type_complexity)] // a slice and cursors, borrowed together
    fn open(&mut self, tokens: &[TokenId]) -> Result<(&[u32], Vec<Self::Cursor<'_>>), Self::Error>;
}

/// The page of a query under `mode`, as rank-space ids in page order.
pub(crate) fn page<S: PostingSource>(
    src: &mut S,
    mode: SearchMode,
    tokens: &[TokenId],
    k: usize,
) -> Result<Vec<u32>, S::Error> {
    match mode {
        SearchMode::Conjunctive => conjunctive(src, tokens, k),
        SearchMode::Disjunctive => disjunctive(src, tokens, k),
    }
}

/// The records holding every token, best-ranked first, at most `limit` of
/// them. The rarest list is walked and the others are probed with
/// `advance_to`, so a solid query costs one pass over its rarest list and
/// an overflowing one stops at the `limit`-th match.
pub(crate) fn conjunctive<S: PostingSource>(
    src: &mut S,
    tokens: &[TokenId],
    limit: usize,
) -> Result<Vec<u32>, S::Error> {
    let mut rarest_first = tokens.to_vec();
    rarest_first.sort_unstable_by_key(|&t| (src.count(t), t));
    let mut out = Vec::new();
    if rarest_first.first().is_none_or(|&t| src.count(t) == 0) {
        return Ok(out);
    }
    let (seed, mut rest) = src.open(&rarest_first)?;
    'cand: for &id in seed {
        for c in &mut rest {
            match c.advance_to(id) {
                Some(hit) if hit == id => {}
                Some(_) => continue 'cand,
                None => break 'cand,
            }
        }
        out.push(id);
        if out.len() >= limit {
            break;
        }
    }
    Ok(out)
}

/// The Yelp-like two-tier page (paper §2): records holding every token
/// first, then records holding only some, each tier best-ranked first, at
/// most `limit` in all. Ranking the partial tail by the engine ranking
/// alone, not by keyword overlap, is what buries near-miss records under
/// popular loosely related ones, as real relevance engines do. One merged
/// walk over all lists in id order, stopping at the `limit`-th full match.
pub(crate) fn disjunctive<S: PostingSource>(
    src: &mut S,
    tokens: &[TokenId],
    limit: usize,
) -> Result<Vec<u32>, S::Error> {
    let held: Vec<TokenId> = tokens
        .iter()
        .copied()
        .filter(|&t| src.count(t) > 0)
        .collect();
    let (first, mut rest) = src.open(&held)?;
    let mut first = SliceCursor::new(first);
    let (mut full, mut partial) = (Vec::new(), Vec::new());
    let mut target = 0u32;
    while full.len() < limit {
        // The smallest id any list holds at or past `target`, and how many
        // lists hold it.
        let mut next: Option<(u32, usize)> = None;
        let heads = std::iter::once(first.advance_to(target))
            .chain(rest.iter_mut().map(|c| c.advance_to(target)));
        for head in heads.flatten() {
            next = match next {
                Some((id, n)) if id == head => Some((id, n + 1)),
                Some((id, _)) if id < head => next,
                _ => Some((head, 1)),
            };
        }
        let Some((id, n)) = next else { break };
        if n == tokens.len() {
            full.push(id);
        } else if partial.len() < limit {
            partial.push(id);
        }
        let Some(after) = id.checked_add(1) else {
            break;
        };
        target = after;
    }
    full.extend(partial);
    full.truncate(limit);
    Ok(full)
}

/// A cursor over an in-memory ascending slice, advancing by galloping
/// (exponential widening, then binary search) from its position, so the
/// cost of a move is logarithmic in how far it goes.
#[derive(Debug)]
pub(crate) struct SliceCursor<'a> {
    list: &'a [u32],
    pos: usize,
}

impl<'a> SliceCursor<'a> {
    pub(crate) fn new(list: &'a [u32]) -> Self {
        Self { list, pos: 0 }
    }
}

impl Cursor for SliceCursor<'_> {
    fn advance_to(&mut self, target: u32) -> Option<u32> {
        let rest = self.list.get(self.pos..)?;
        if *rest.first()? < target {
            // Invariant: rest[lo] < target; widen until rest[step] is not.
            let (mut lo, mut step) = (0usize, 1usize);
            while rest.get(step).is_some_and(|&v| v < target) {
                lo = step;
                step *= 2;
            }
            let window = rest
                .get(lo + 1..(step + 1).min(rest.len()))
                .unwrap_or_default();
            self.pos += lo + 1 + window.partition_point(|&v| v < target);
        }
        self.list.get(self.pos).copied()
    }
}

/// The RAM backend's lists: one rank-space vector per token id.
impl<'a> PostingSource for &'a [Vec<u32>] {
    type Cursor<'s>
        = SliceCursor<'a>
    where
        Self: 's;
    type Error = Infallible;

    fn count(&self, token: TokenId) -> u32 {
        self.get(token.index()).map_or(0, |list| list.len() as u32)
    }

    fn open(&mut self, tokens: &[TokenId]) -> Result<(&[u32], Vec<SliceCursor<'a>>), Infallible> {
        let lists: &'a [Vec<u32>] = self;
        let list = |t: &TokenId| lists.get(t.index()).map_or(&[][..], Vec::as_slice);
        let (first, rest) = tokens
            .split_first()
            .map_or((&[][..], &[][..]), |(f, r)| (list(f), r));
        Ok((
            first,
            rest.iter().map(|t| SliceCursor::new(list(t))).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_cursor_finds_the_first_id_at_or_past_each_target() {
        let list: Vec<u32> = (0..200).map(|i| i * 3).collect();
        for stride in [1u32, 2, 5, 64, 300] {
            let mut c = SliceCursor::new(&list);
            for target in (0..700).step_by(stride as usize) {
                let want = list.iter().copied().find(|&v| v >= target);
                assert_eq!(
                    c.advance_to(target),
                    want,
                    "stride {stride}, target {target}"
                );
            }
        }
        assert_eq!(SliceCursor::new(&[]).advance_to(0), None);
    }
}
