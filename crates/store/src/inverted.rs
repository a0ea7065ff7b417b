//! Disk-backed, horizontally sharded inverted index.
//!
//! Records are split into [`StoreConfig::shards`](crate::StoreConfig)
//! contiguous, balanced record-id ranges; each shard owns one blob file
//! holding every token's in-range posting list (delta/varint encoded with
//! skip entries, see [`crate::postings`]). A query is evaluated per shard
//! — rarest list decoded as the seed, the rest walked as encoded-domain
//! [`PostingCursor`]s — and the shard results are concatenated in shard
//! order. Because the shard ranges are contiguous and ascending, that
//! concatenation *is* the globally sorted match set: shard-parallel
//! evaluation is deterministic by construction, bit-for-bit equal to the
//! RAM index at any thread count.
//!
//! Per-token document frequencies live in RAM (`4 B × vocab`), so
//! `doc_frequency` — the hot call during pool mining — never touches
//! disk.

use crate::backend::StoreRuntime;
use crate::blob::{BlobReader, BlobWriter, Locator};
use crate::format::invalid_data;
use crate::postings::{decode_postings_into, encode_postings, PostingCursor};
use crate::{expect_store, Result, StoreError};
use smartcrawl_par::par_map;
use smartcrawl_text::{Document, RecordId, TokenId};

/// Error for an encoded list that passed page checksums yet fails to
/// decode — only reachable through a logic bug, kept as a clean error.
fn undecodable() -> StoreError {
    StoreError::Io(invalid_data("undecodable posting list"))
}

/// One contiguous record-id range of the index.
#[derive(Debug)]
struct Shard {
    /// Per-token locator of the encoded in-range posting list.
    locs: Vec<Locator>,
    /// Per-token in-range document frequency.
    counts: Vec<u32>,
    blob: BlobReader,
}

impl Shard {
    fn count_of(&self, token: TokenId) -> u32 {
        self.counts.get(token.index()).copied().unwrap_or(0)
    }

    fn loc_of(&self, token: TokenId) -> Locator {
        self.locs.get(token.index()).copied().unwrap_or_default()
    }

    /// Intersects the query's in-range posting lists, emitting matches in
    /// ascending order. Read failures on an already-validated store are
    /// fatal (see [`expect_store`]).
    fn intersect(&self, query: &[TokenId], mut emit: impl FnMut(u32)) {
        if query.is_empty() {
            return;
        }
        let mut toks: Vec<(u32, TokenId)> = query.iter().map(|&t| (self.count_of(t), t)).collect();
        if toks.iter().any(|&(c, _)| c == 0) {
            return;
        }
        // Rarest-first; token id breaks count ties deterministically.
        toks.sort_unstable_by_key(|&(c, t)| (c, t.index()));
        let bufs: Vec<Vec<u8>> = toks
            .iter()
            .map(|&(_, t)| {
                let mut buf = Vec::new();
                expect_store(
                    self.blob.read(self.loc_of(t), &mut buf),
                    "posting list read",
                );
                buf
            })
            .collect();
        let Some((seed_buf, rest)) = bufs.split_first() else {
            return;
        };
        let mut seed = Vec::new();
        expect_store(
            decode_postings_into(seed_buf, &mut seed).ok_or_else(undecodable),
            "posting list decode",
        );
        if rest.is_empty() {
            for &id in &seed {
                emit(id);
            }
            return;
        }
        let mut cursors: Vec<PostingCursor<'_>> = rest
            .iter()
            .map(|buf| {
                expect_store(
                    PostingCursor::new(buf).ok_or_else(undecodable),
                    "posting cursor",
                )
            })
            .collect();
        'cand: for &id in &seed {
            for cursor in cursors.iter_mut() {
                match cursor.advance_to(id) {
                    // A drained cursor means no larger candidate can match.
                    None => break 'cand,
                    Some(v) if v != id => continue 'cand,
                    Some(_) => {}
                }
            }
            emit(id);
        }
    }
}

/// The disk-backed counterpart of `smartcrawl_index::InvertedIndex`.
#[derive(Debug)]
pub struct DiskInvertedIndex {
    num_docs: usize,
    /// Global per-token document frequency (RAM-resident).
    df: Vec<u32>,
    shards: Vec<Shard>,
}

impl DiskInvertedIndex {
    /// Builds the sharded on-disk index over `docs`; document `i` gets
    /// record id `i`. Peak build memory is one shard's posting lists
    /// (~`1/shards` of the full index), not the whole index.
    pub fn build(docs: &[Document], vocab_size: usize, runtime: &StoreRuntime) -> Result<Self> {
        let config = runtime.config();
        let num_shards = config.shards.max(1);
        let n = docs.len();
        let per_shard = n.div_ceil(num_shards).max(1);
        let mut df = vec![0u32; vocab_size];
        let mut shards = Vec::with_capacity(num_shards);
        // Per-token posting accumulators and the varint scratch buffer,
        // allocated once and reused (cleared) across shards, so building
        // `num_shards` shards does not pay `num_shards × vocab_size`
        // allocations. Peak memory stays one shard's posting lists.
        let mut lists: Vec<Vec<u32>> = Vec::new();
        lists.resize_with(vocab_size, Vec::new);
        let mut encoded = Vec::new();
        for s in 0..num_shards {
            let lo = (s * per_shard).min(n);
            let hi = ((s + 1) * per_shard).min(n);
            let in_range = docs.get(lo..hi).unwrap_or(&[]);
            for (i, doc) in in_range.iter().enumerate() {
                let rid = (lo + i) as u32;
                for token in doc.iter() {
                    let Some(list) = lists.get_mut(token.index()) else {
                        return Err(StoreError::Io(invalid_data(
                            "token id out of vocabulary range",
                        )));
                    };
                    list.push(rid);
                }
            }
            // One shard-name allocation per file created, not per record.
            let path = runtime.file_path(&format!("inv{s}")); // lint:allow(hot-path-alloc) once per shard file, dwarfed by the create() it names
            let mut writer = BlobWriter::create(&path, config.page_size)?;
            let mut locs = Vec::with_capacity(vocab_size);
            let mut counts = Vec::with_capacity(vocab_size);
            for (ids, df_slot) in lists.iter_mut().zip(df.iter_mut()) {
                encoded.clear();
                encode_postings(ids, &mut encoded);
                locs.push(writer.append(&encoded)?);
                counts.push(ids.len() as u32);
                *df_slot += ids.len() as u32;
                // Reset for the next shard; capacity is kept.
                ids.clear();
            }
            writer.finish()?;
            shards.push(Shard {
                locs,
                counts,
                blob: BlobReader::open(&path, runtime.pool())?,
            });
        }
        Ok(Self {
            num_docs: n,
            df,
            shards,
        })
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Document frequency of a single token (RAM lookup, no I/O).
    pub fn doc_frequency(&self, token: TokenId) -> usize {
        self.df.get(token.index()).copied().unwrap_or(0) as usize
    }

    /// Appends the full posting list of `token` to `out` in ascending
    /// order.
    pub fn postings_into(&self, token: TokenId, out: &mut Vec<RecordId>) {
        let mut decoded = Vec::new();
        let mut buf = Vec::new();
        for shard in &self.shards {
            if shard.count_of(token) == 0 {
                continue;
            }
            expect_store(
                shard.blob.read(shard.loc_of(token), &mut buf),
                "posting list read",
            );
            expect_store(
                decode_postings_into(&buf, &mut decoded).ok_or_else(undecodable),
                "posting list decode",
            );
            out.extend(decoded.iter().map(|&id| RecordId(id)));
        }
    }

    /// Materializes `q(D)` — sorted ids of all documents containing every
    /// query token. Shards are probed in parallel; contiguous ascending
    /// shard ranges make the in-order concatenation globally sorted.
    pub fn matching(&self, query: &[TokenId]) -> Vec<RecordId> {
        if query.is_empty() {
            return Vec::new();
        }
        let per_shard = par_map(&self.shards, |shard| {
            let mut ids = Vec::new();
            shard.intersect(query, |id| ids.push(RecordId(id)));
            ids
        });
        let mut out = Vec::with_capacity(per_shard.iter().map(Vec::len).sum());
        for ids in per_shard {
            out.extend(ids);
        }
        out
    }

    /// `|q(D)|` without materializing the match set.
    pub fn frequency(&self, query: &[TokenId]) -> usize {
        match query {
            [] => 0,
            [t] => self.doc_frequency(*t),
            _ => par_map(&self.shards, |shard| {
                let mut n = 0usize;
                shard.intersect(query, |_| n += 1);
                n
            })
            .into_iter()
            .sum(),
        }
    }

    /// Whether at least one document satisfies the query. Sequential with
    /// per-shard early exit — the common non-empty case stops at the
    /// first populated shard.
    pub fn any_match(&self, query: &[TokenId]) -> bool {
        match query {
            [] => false,
            [t] => self.doc_frequency(*t) > 0,
            _ => self.shards.iter().any(|shard| {
                let mut found = false;
                shard.intersect(query, |_| found = true);
                found
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreConfig;
    use smartcrawl_index::InvertedIndex;

    fn docs(specs: &[&[u32]]) -> Vec<Document> {
        specs
            .iter()
            .map(|s| Document::from_tokens(s.iter().map(|&t| TokenId(t)).collect()))
            .collect()
    }

    fn runtime() -> std::sync::Arc<StoreRuntime> {
        // Tiny pages and a tiny cache to exercise straddling + eviction.
        StoreRuntime::create(StoreConfig {
            page_size: 64,
            cache_pages: 8,
            shards: 3,
            dir: None,
        })
        .unwrap()
    }

    #[test]
    fn disk_index_agrees_with_ram_index() {
        let corpus = docs(&[
            &[0, 1, 2],
            &[3, 1, 2],
            &[0, 2],
            &[0, 1, 4],
            &[2, 3],
            &[0, 1, 2, 3, 4],
            &[4],
            &[1, 2, 4],
        ]);
        let rt = runtime();
        let disk = DiskInvertedIndex::build(&corpus, 5, &rt).unwrap();
        let ram = InvertedIndex::build(&corpus, 5);
        assert_eq!(disk.num_docs(), ram.num_docs());
        let queries: Vec<Vec<TokenId>> = vec![
            vec![],
            vec![TokenId(0)],
            vec![TokenId(4)],
            vec![TokenId(1), TokenId(2)],
            vec![TokenId(0), TokenId(1), TokenId(2)],
            vec![TokenId(0), TokenId(3)],
            vec![TokenId(99)],
        ];
        for q in &queries {
            assert_eq!(disk.matching(q), ram.matching(q), "matching {q:?}");
            assert_eq!(disk.frequency(q), ram.frequency(q), "frequency {q:?}");
            assert_eq!(disk.any_match(q), ram.any_match(q), "any_match {q:?}");
        }
        for t in 0..6 {
            let token = TokenId(t);
            assert_eq!(disk.doc_frequency(token), ram.doc_frequency(token));
            let mut got = Vec::new();
            disk.postings_into(token, &mut got);
            assert_eq!(got, ram.postings(token), "postings {t}");
        }
    }

    #[test]
    fn sharding_survives_uneven_splits() {
        // 1 record over 3 shards: two shards are empty.
        let corpus = docs(&[&[0, 1]]);
        let rt = runtime();
        let disk = DiskInvertedIndex::build(&corpus, 2, &rt).unwrap();
        assert_eq!(disk.matching(&[TokenId(0), TokenId(1)]), vec![RecordId(0)]);
        assert_eq!(disk.frequency(&[TokenId(0), TokenId(1)]), 1);
    }
}
