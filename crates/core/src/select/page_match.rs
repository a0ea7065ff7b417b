//! Matching result pages against `D`, with one match index, one
//! per-record memo and one set of covered flags per crawl.

use crate::context::TextContext;
use crate::local::{LocalDb, LocalMatchIndex};
use crate::sample::SampleIndex;
use crate::select::engine::SelectionStats;
use smartcrawl_hidden::Retrieved;
use smartcrawl_match::Matcher;
use std::time::Instant;

/// A crawl's page-to-`D` matcher. Pages repeat records (a frequent
/// keyword's page re-surfaces the same popular records query after
/// query), so each distinct record is tokenized once, through the
/// [`TextContext`] arena, and probes the [`LocalMatchIndex`] once; every
/// later appearance reads the memo.
pub(crate) struct PageMatcher<'a> {
    index: LocalMatchIndex<'a>,
    matcher: Matcher,
    /// Per retrieved record (dense arena id): the local records its
    /// document matches, ascending and liveness-unfiltered. A probe is
    /// pure in everything but liveness, so callers filter at use.
    memo: Vec<Option<Box<[u32]>>>,
    /// Local records ever covered: each gets one enrichment pair, from
    /// its first match.
    covered: Vec<bool>,
    /// Wall time in [`PageMatcher::absorb`]. Profile only.
    page_match_ns: u64,
}

impl<'a> PageMatcher<'a> {
    pub(crate) fn new(local: &'a LocalDb, matcher: Matcher) -> Self {
        Self {
            index: LocalMatchIndex::build(local),
            matcher,
            memo: Vec::new(),
            covered: vec![false; local.len()],
            page_match_ns: 0,
        }
    }

    /// Work counters accumulated so far (page-match time only).
    pub(crate) fn stats(&self) -> SelectionStats {
        SelectionStats {
            page_match_ns: self.page_match_ns,
            ..SelectionStats::default()
        }
    }

    /// For every local record, whether some record of `sample` matches it.
    pub(crate) fn sample_matches(&self, sample: &SampleIndex) -> Vec<bool> {
        sample.local_matches(&self.index, self.matcher)
    }

    /// The dense id of `r` and the local records it matches, from the memo.
    pub(crate) fn probe(&mut self, r: &Retrieved, ctx: &mut TextContext) -> (u32, &[u32]) {
        probe(&self.index, self.matcher, &mut self.memo, r, ctx)
    }

    /// Matches a page against `D`: for each match `d` of `page[pi]`, in
    /// page order, for which `take(d)` holds, a not yet covered `d` is
    /// covered and `(d, pi)` becomes an enrichment pair. Returns those
    /// pairs and the dense id of every page record.
    pub(crate) fn absorb(
        &mut self,
        page: &[Retrieved],
        ctx: &mut TextContext,
        mut take: impl FnMut(usize) -> bool,
    ) -> (Vec<(usize, usize)>, Vec<u32>) {
        let t = Instant::now();
        let mut newly_covered = Vec::new();
        let mut page_dense = Vec::with_capacity(page.len());
        for (pi, r) in page.iter().enumerate() {
            let (dense, matches) = probe(&self.index, self.matcher, &mut self.memo, r, ctx);
            page_dense.push(dense);
            for &d in matches {
                let d = d as usize;
                if take(d) && !self.covered[d] {
                    self.covered[d] = true;
                    newly_covered.push((d, pi));
                }
            }
        }
        self.page_match_ns += t.elapsed().as_nanos() as u64;
        (newly_covered, page_dense)
    }
}

/// [`PageMatcher::probe`] over the matcher's fields, so that
/// [`PageMatcher::absorb`] can update `covered` while it reads the memo.
fn probe<'m>(
    index: &LocalMatchIndex<'_>,
    matcher: Matcher,
    memo: &'m mut Vec<Option<Box<[u32]>>>,
    r: &Retrieved,
    ctx: &mut TextContext,
) -> (u32, &'m [u32]) {
    let dense = ctx.intern_retrieved(r);
    let di = dense as usize;
    if memo.len() <= di {
        memo.resize(di + 1, None);
    }
    let doc = ctx.dense_doc(dense);
    let matches = memo[di].get_or_insert_with(|| {
        index
            .find_matches(doc, matcher)
            .into_iter()
            .map(|d| d as u32)
            .collect()
    });
    (dense, matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::{EnrichedPair, FullSource, NaiveSource, QuerySource};
    use smartcrawl_hidden::{ExternalId, SearchPage};
    use smartcrawl_sampler::HiddenSample;
    use smartcrawl_text::Record;

    fn world() -> (TextContext, LocalDb) {
        let mut ctx = TextContext::new();
        let local = LocalDb::build(
            [
                "thai noodle house",
                "thai noodle house",
                "jade noodle house",
                "golden dragon palace",
                "golden dragon palace express",
                "ramen bar",
            ]
            .map(|t| Record::from([t]))
            .to_vec(),
            &mut ctx,
        );
        (ctx, local)
    }

    /// Four pages that repeat records across pages, so most appearances
    /// read the memo.
    fn pages() -> Vec<Vec<Retrieved>> {
        let r = |id: u64, text: &str| {
            Retrieved::new(
                ExternalId(id),
                vec![text.to_owned()],
                vec![format!("p{id}")],
            )
        };
        let thai = r(10, "thai noodle house");
        let jade = r(11, "jade noodle house cafe");
        let golden = r(12, "golden dragon palace");
        let steak = r(13, "steak house");
        let ramen = r(14, "ramen bar");
        vec![
            vec![steak.clone(), thai.clone()],
            vec![thai.clone(), jade, golden.clone()],
            vec![golden, ramen.clone(), thai],
            vec![ramen, steak],
        ]
    }

    /// A first-match scan without index or memo: every page record, in
    /// order, tokenized afresh and compared with every local record.
    fn brute_force(matcher: Matcher) -> Vec<EnrichedPair> {
        let (mut ctx, local) = world();
        let mut covered = vec![false; local.len()];
        let mut pairs = Vec::new();
        for r in pages().iter().flatten() {
            let h = ctx.doc_of_fields(&r.fields);
            for (d, covered) in covered.iter_mut().enumerate() {
                if !*covered && matcher.matches(local.doc(d), &h) {
                    *covered = true;
                    pairs.push(EnrichedPair {
                        local: d,
                        external: r.external_id,
                        payload: r.payload.clone(),
                        hidden_fields: r.fields.clone(),
                    });
                }
            }
        }
        pairs
    }

    #[test]
    fn naive_and_full_crawl_pairs_equal_a_first_match_scan() {
        let no_sample = HiddenSample {
            records: Vec::new(),
            theta: 0.0,
        };
        let fuzzy = [0.5, 0.75, 1.0].map(|threshold| Matcher::Jaccard { threshold });
        for matcher in std::iter::once(Matcher::Exact).chain(fuzzy) {
            let expect = brute_force(matcher);
            let (ctx, local) = world();
            let naive = NaiveSource::new(&local, matcher, 1, ctx);
            let (ctx, local_too) = world();
            let full = FullSource::new(&local_too, &no_sample, matcher, ctx);
            let sources: [Box<dyn QuerySource + '_>; 2] = [Box::new(naive), Box::new(full)];
            for mut source in sources {
                let mut pairs = Vec::new();
                for records in pages() {
                    let obs = source.observe(&[], &SearchPage { records }, 3);
                    pairs.extend(obs.newly_covered);
                }
                assert_eq!(pairs, expect, "{matcher:?}");
            }
        }
    }
}
