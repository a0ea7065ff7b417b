//! Disk-backed hidden-database backend.
//!
//! The RAM engine holds one pre-materialized `Retrieved` view per
//! record — fine at 10⁵ records, hopeless at the ROADMAP's scale-100
//! target. This backend keeps the whole record set on disk in
//! `smartcrawl-store`'s paged format and keeps only O(vocabulary) +
//! O(page-pool budget) bytes resident:
//!
//! * **records blob** — each record's interface view (external id,
//!   fields, payload) varint-encoded once, in insertion order (the order
//!   the generator yielded them, which every digest in the workspace is
//!   keyed to). The rank signal is consumed by the build and not stored.
//! * **postings blob** — one delta/varint posting list per token over
//!   *rank-space* ids: records are renumbered by their global ranking
//!   position before encoding, so every list is simultaneously ascending
//!   and rank-sorted. A conjunctive top-k is then a rarest-first cursor
//!   intersection that emits winners in final page order and *stops at
//!   `k`* — non-winning records are never touched, let alone decoded. The
//!   scans live in [`crate::topk`], shared with the RAM backend; this
//!   module only supplies the lists.
//! * **aux blob** — three fixed-width arrays, all read through the page
//!   pool so resident memory stays O(pool), not O(|H|): rank → record
//!   locator + insertion id (so a result page costs one aux read and one
//!   record read per record), insertion id → record locator (for `get`
//!   and `iter`), and the external-id lookup as a sorted
//!   `(external, insertion)` array probed by binary search.
//!
//! `Retrieved` views are materialized lazily through a bounded
//! two-generation cache instead of eagerly for every record. Build-time
//! postings construction is chunked over token ranges with the tokenized
//! documents spilled to a staging blob, so peak build memory is bounded
//! by the chunk budget rather than the corpus' total token count. (The
//! per-record fixed-width side tables — locators, sort keys — are still
//! O(|H|) *transiently* during the build; see DESIGN.md §15.)
//!
//! Failure policy matches the store crate: everything at build/open time
//! returns `Result`; query-time reads on the validated store go through
//! [`expect_store`], because an index vanishing mid-crawl is
//! unrecoverable by design.

use crate::engine::SearchMode;
use crate::ranking::Ranking;
use crate::record::{read_record, write_record, ExternalId, HiddenRecord, Retrieved};
use crate::topk::{self, PostingSource};
use smartcrawl_store::format::{read_varint, write_varint};
use smartcrawl_store::postings::{decode_postings_into, encode_postings, PostingCursor};
use smartcrawl_store::{
    expect_store, BlobReader, BlobWriter, Locator, Result, StoreError, StoreReport, StoreRuntime,
};
use smartcrawl_text::{TokenId, Tokenizer, Vocabulary};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Bytes of one external-id lookup entry: `u64` external + `u32` insertion.
const EXT_ENTRY: u64 = 12;
/// Bytes of one record-meta entry: `u64` offset + `u32` len.
const META_ENTRY: u64 = 12;
/// Bytes of one rank entry: `u64` record offset + `u32` record len +
/// `u32` insertion id.
const RANK_ENTRY: u64 = 16;
/// Posting ids (× 4 bytes) one build chunk may hold in RAM.
const CHUNK_IDS: usize = 4 << 20;
/// Lazily materialized `Retrieved` views kept per cache generation.
const VIEW_CACHE_CAP: usize = 4096;

fn le_u32(buf: &[u8], off: usize) -> Option<u32> {
    buf.get(off..off + 4)?
        .try_into()
        .ok()
        .map(u32::from_le_bytes)
}

fn le_u64(buf: &[u8], off: usize) -> Option<u64> {
    buf.get(off..off + 8)?
        .try_into()
        .ok()
        .map(u64::from_le_bytes)
}

/// Appends `loc` as a `u64` offset + `u32` length aux field.
fn put_locator(out: &mut Vec<u8>, loc: Locator) {
    out.extend_from_slice(&loc.off.to_le_bytes());
    out.extend_from_slice(&loc.len.to_le_bytes());
}

/// The locator [`put_locator`] wrote at the start of `buf`.
fn locator_at(buf: &[u8]) -> Option<Locator> {
    Some(Locator {
        off: le_u64(buf, 0)?,
        len: le_u32(buf, 8)?,
    })
}

fn corrupt(runtime: &StoreRuntime, detail: &str) -> StoreError {
    StoreError::Corrupt {
        path: runtime.dir().to_path_buf(),
        detail: detail.to_string(),
    }
}

fn short_read() -> StoreError {
    StoreError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "aux entry short read",
    ))
}

/// Decodes a records-blob entry: one [`write_record`] record, nothing after it.
fn decode_view(buf: &[u8]) -> Option<Retrieved> {
    let mut pos = 0usize;
    let view = read_record(buf, &mut pos)?;
    (pos == buf.len()).then_some(view)
}

/// Bounded two-generation view cache: O(1) insert/lookup, at most
/// `2 × cap` resident views, promotion on hit. Eviction is a pure
/// function of the access sequence — no wall clock anywhere.
#[derive(Debug)]
struct ViewCache {
    cap: usize,
    hot: HashMap<u32, Retrieved>,
    cold: HashMap<u32, Retrieved>,
}

impl ViewCache {
    fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            hot: HashMap::new(),
            cold: HashMap::new(),
        }
    }

    fn get(&mut self, ins: u32) -> Option<Retrieved> {
        if let Some(v) = self.hot.get(&ins) {
            return Some(v.clone());
        }
        let v = self.cold.remove(&ins)?;
        self.insert(ins, v.clone());
        Some(v)
    }

    fn insert(&mut self, ins: u32, view: Retrieved) {
        if self.hot.len() >= self.cap {
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(ins, view);
    }
}

/// Disk-backed record/ranking backend behind the `HiddenDb` API.
#[derive(Debug)]
pub(crate) struct DiskHidden {
    runtime: Arc<StoreRuntime>,
    /// Number of records `|H|`.
    n: u32,
    /// Per-token locator of the rank-space posting list (O(vocab)).
    post_locs: Vec<Locator>,
    /// Per-token document frequency (O(vocab)).
    post_counts: Vec<u32>,
    /// Logical offsets of the three aux runs.
    rank_base: u64,
    meta_base: u64,
    ext_base: u64,
    records: BlobReader,
    postings: BlobReader,
    aux: BlobReader,
    views: Mutex<ViewCache>,
}

impl DiskHidden {
    /// Streams `records` into the store format and opens the query-time
    /// readers. `vocab` is grown in place (the owning `HiddenDb` keeps it
    /// for query normalization).
    pub(crate) fn build<I>(
        records: I,
        tokenizer: &Tokenizer,
        vocab: &mut Vocabulary,
        ranking: Ranking,
        runtime: Arc<StoreRuntime>,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = HiddenRecord>,
    {
        let page_size = runtime.config().page_size;
        let rec_path = runtime.file_path("hidden-records");
        let doc_path = runtime.file_path("hidden-docs-staging");
        let mut rec_writer = BlobWriter::create(&rec_path, page_size)?;
        let mut doc_writer = BlobWriter::create(&doc_path, page_size)?;

        // Pass 1: stream records once — serialize each into the records
        // blob, spill its tokenized document to the staging blob, and keep
        // only fixed-width per-record side data (locator, sort key,
        // external id).
        let mut rec_locs: Vec<Locator> = Vec::new();
        let mut doc_locs: Vec<Locator> = Vec::new();
        let mut keys: Vec<(u64, u64)> = Vec::new();
        let mut exts: Vec<u64> = Vec::new();
        let mut tok_counts: Vec<u32> = Vec::new();
        let mut buf = Vec::new();
        for r in records {
            let doc = r.searchable.document(tokenizer, vocab);
            buf.clear();
            write_varint(&mut buf, doc.len() as u64);
            let mut prev = 0u32;
            for t in doc.iter() {
                write_varint(&mut buf, u64::from(t.0 - prev));
                prev = t.0;
                if tok_counts.len() <= t.index() {
                    tok_counts.resize(t.index() + 1, 0);
                }
                if let Some(c) = tok_counts.get_mut(t.index()) {
                    *c += 1;
                }
            }
            doc_locs.push(doc_writer.append(&buf)?);
            buf.clear();
            write_record(&mut buf, r.external_id, r.searchable.fields(), &r.payload);
            rec_locs.push(rec_writer.append(&buf)?);
            keys.push((ranking.key(r.external_id.0, r.rank_signal), r.external_id.0));
            exts.push(r.external_id.0);
        }
        rec_writer.finish()?;
        doc_writer.finish()?;
        tok_counts.resize(vocab.len(), 0);
        let n = u32::try_from(rec_locs.len())
            .map_err(|_| corrupt(&runtime, "more than u32::MAX hidden records"))?;

        // The global ranking permutation: rank-space id = position in the
        // order sorted by (ranking key, external id) — the exact key the
        // RAM engine sorts by, so both backends agree on every tie-break.
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_unstable_by_key(|&i| keys.get(i as usize).copied());
        drop(keys);
        let mut ins_to_rank = vec![0u32; n as usize];
        for (rank, &ins) in order.iter().enumerate() {
            if let Some(slot) = ins_to_rank.get_mut(ins as usize) {
                *slot = rank as u32;
            }
        }

        // Pass 2: postings over rank-space ids, built a token-range chunk
        // at a time. Each chunk re-streams the staging blob sequentially
        // and holds at most ~CHUNK_IDS ids in RAM; chunks are contiguous
        // ascending token ranges, so appending them in order keeps the
        // postings blob token-ordered.
        let post_path = runtime.file_path("hidden-postings");
        let mut post_writer = BlobWriter::create(&post_path, page_size)?;
        let mut post_locs: Vec<Locator> = Vec::with_capacity(vocab.len());
        let mut post_counts: Vec<u32> = Vec::with_capacity(vocab.len());
        let staging = BlobReader::open(&doc_path, runtime.pool())?;
        let mut chunk_lo = 0usize;
        let mut doc_buf: Vec<u8> = Vec::new();
        let mut encoded: Vec<u8> = Vec::new();
        while chunk_lo < vocab.len() {
            let mut chunk_hi = chunk_lo;
            let mut chunk_ids = 0usize;
            while chunk_hi < vocab.len() {
                let c = tok_counts.get(chunk_hi).copied().unwrap_or(0) as usize;
                if chunk_ids + c > CHUNK_IDS && chunk_hi > chunk_lo {
                    break;
                }
                chunk_ids += c;
                chunk_hi += 1;
            }
            let mut lists: Vec<Vec<u32>> = vec![Vec::new(); chunk_hi - chunk_lo];
            for (ins, &loc) in doc_locs.iter().enumerate() {
                staging.read(loc, &mut doc_buf)?;
                let mut pos = 0usize;
                let count = read_varint(&doc_buf, &mut pos)
                    .ok_or_else(|| corrupt(&runtime, "undecodable staged document"))?;
                let mut tok = 0u32;
                let rank = ins_to_rank.get(ins).copied().unwrap_or(0);
                for step in 0..count {
                    let gap = read_varint(&doc_buf, &mut pos)
                        .ok_or_else(|| corrupt(&runtime, "undecodable staged document"))?;
                    tok = if step == 0 {
                        gap as u32
                    } else {
                        tok + gap as u32
                    };
                    let t = tok as usize;
                    if t >= chunk_lo && t < chunk_hi {
                        if let Some(list) = lists.get_mut(t - chunk_lo) {
                            list.push(rank);
                        }
                    }
                }
            }
            for list in &mut lists {
                list.sort_unstable();
                encoded.clear();
                encode_postings(list, &mut encoded);
                post_counts.push(list.len() as u32);
                post_locs.push(post_writer.append(&encoded)?);
            }
            chunk_lo = chunk_hi;
        }
        post_writer.finish()?;
        drop(staging);
        drop(doc_locs);
        drop(ins_to_rank);
        std::fs::remove_file(&doc_path)?;

        // Aux blob: the three fixed-width arrays, appended entry by entry
        // (blob offsets are contiguous, so entry i of a run lives at
        // `base + i × ENTRY`).
        let aux_path = runtime.file_path("hidden-aux");
        let mut aux_writer = BlobWriter::create(&aux_path, page_size)?;
        let mut rank_base = 0u64;
        let mut meta_base = 0u64;
        let mut ext_base = 0u64;
        let mut entry: Vec<u8> = Vec::with_capacity(RANK_ENTRY as usize);
        for (rank, &ins) in order.iter().enumerate() {
            let rec = rec_locs.get(ins as usize).copied();
            let rec = rec.ok_or_else(|| corrupt(&runtime, "ranked record beyond record count"))?;
            entry.clear();
            put_locator(&mut entry, rec);
            entry.extend_from_slice(&ins.to_le_bytes());
            let loc = aux_writer.append(&entry)?;
            if rank == 0 {
                rank_base = loc.off;
            }
        }
        drop(order);
        for (ins, &rec) in rec_locs.iter().enumerate() {
            entry.clear();
            put_locator(&mut entry, rec);
            let loc = aux_writer.append(&entry)?;
            if ins == 0 {
                meta_base = loc.off;
            }
        }
        drop(rec_locs);
        let mut ext_pairs: Vec<(u64, u32)> = exts
            .into_iter()
            .enumerate()
            .map(|(ins, ext)| (ext, ins as u32))
            .collect();
        ext_pairs.sort_unstable();
        for (i, &(ext, ins)) in ext_pairs.iter().enumerate() {
            entry.clear();
            entry.extend_from_slice(&ext.to_le_bytes());
            entry.extend_from_slice(&ins.to_le_bytes());
            let loc = aux_writer.append(&entry)?;
            if i == 0 {
                ext_base = loc.off;
            }
        }
        aux_writer.finish()?;
        drop(ext_pairs);

        let pool = runtime.pool();
        Ok(Self {
            records: BlobReader::open(&rec_path, pool)?,
            postings: BlobReader::open(&post_path, pool)?,
            aux: BlobReader::open(&aux_path, pool)?,
            runtime,
            n,
            post_locs,
            post_counts,
            rank_base,
            meta_base,
            ext_base,
            views: Mutex::new(ViewCache::new(VIEW_CACHE_CAP)),
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.n as usize
    }

    pub(crate) fn report(&self) -> StoreReport {
        self.runtime.report()
    }

    fn views(&self) -> MutexGuard<'_, ViewCache> {
        self.views.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Reads the fixed-width aux entry at `off` into `buf`.
    fn aux_entry(&self, off: u64, len: u64, buf: &mut Vec<u8>) -> Result<()> {
        let loc = Locator {
            off,
            len: len as u32,
        };
        self.aux.read(loc, buf)
    }

    /// Record locator and insertion id of the record ranked `rank`.
    fn rank_entry(&self, rank: u32, buf: &mut Vec<u8>) -> Result<(Locator, u32)> {
        self.aux_entry(
            self.rank_base + u64::from(rank) * RANK_ENTRY,
            RANK_ENTRY,
            buf,
        )?;
        match (locator_at(buf), le_u32(buf, 12)) {
            (Some(loc), Some(ins)) => Ok((loc, ins)),
            _ => Err(short_read()),
        }
    }

    /// Record locator of insertion id `ins`.
    fn meta_of(&self, ins: u32, buf: &mut Vec<u8>) -> Result<Locator> {
        self.aux_entry(
            self.meta_base + u64::from(ins) * META_ENTRY,
            META_ENTRY,
            buf,
        )?;
        locator_at(buf).ok_or_else(short_read)
    }

    /// Binary search of the sorted `(external, insertion)` array.
    fn lookup_external(&self, ext: u64, buf: &mut Vec<u8>) -> Result<Option<u32>> {
        let (mut lo, mut hi) = (0u64, u64::from(self.n));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.aux_entry(self.ext_base + mid * EXT_ENTRY, EXT_ENTRY, buf)?;
            let entry_ext = le_u64(buf, 0).ok_or_else(short_read)?;
            match entry_ext.cmp(&ext) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(le_u32(buf, 8)),
            }
        }
        Ok(None)
    }

    /// Decodes the view stored at `loc`.
    fn read_view(&self, loc: Locator, buf: &mut Vec<u8>) -> Result<Retrieved> {
        self.records.read(loc, buf)?;
        decode_view(buf).ok_or_else(|| corrupt(&self.runtime, "undecodable record"))
    }

    /// The interface view of insertion id `ins`, whose record is stored
    /// at `loc`, through the bounded lazy cache.
    fn view_of(&self, ins: u32, loc: Locator, buf: &mut Vec<u8>) -> Result<Retrieved> {
        let cached = self.views().get(ins);
        if let Some(v) = cached {
            return Ok(v);
        }
        let view = self.read_view(loc, buf)?;
        self.views().insert(ins, view.clone());
        Ok(view)
    }

    /// The page for a list of rank-space ids (already in final order).
    fn page_of_ranks(&self, ranks: &[u32]) -> Result<Vec<Retrieved>> {
        let mut buf = Vec::new();
        let mut page = Vec::with_capacity(ranks.len());
        for &rank in ranks {
            let (loc, ins) = self.rank_entry(rank, &mut buf)?;
            page.push(self.view_of(ins, loc, &mut buf)?);
        }
        Ok(page)
    }

    /// The top-`k` page under `mode`.
    pub(crate) fn page(&self, mode: SearchMode, tokens: &[TokenId], k: usize) -> Vec<Retrieved> {
        let ranks = expect_store(
            topk::page(&mut self.postings(), mode, tokens, k),
            "hidden top-k scan",
        );
        expect_store(self.page_of_ranks(&ranks), "hidden page read")
    }

    /// `|q(H)|` under conjunctive semantics (no early stop).
    pub(crate) fn frequency(&self, tokens: &[TokenId]) -> usize {
        let matches = topk::conjunctive(&mut self.postings(), tokens, usize::MAX);
        expect_store(matches, "hidden frequency scan").len()
    }

    /// The postings blob as a posting source for one scan.
    fn postings(&self) -> DiskPostings<'_> {
        DiskPostings {
            hidden: self,
            seed: Vec::new(),
            bufs: Vec::new(),
        }
    }

    /// The interface view by external id.
    pub(crate) fn get(&self, id: ExternalId) -> Option<Retrieved> {
        let mut buf = Vec::new();
        let ins = expect_store(
            self.lookup_external(id.0, &mut buf),
            "hidden external lookup",
        )?;
        let view = self
            .meta_of(ins, &mut buf)
            .and_then(|loc| self.view_of(ins, loc, &mut buf));
        Some(expect_store(view, "hidden view read"))
    }

    /// The interface view at insertion position `ins`, decoded outside the
    /// view cache so a whole-database sweep cannot evict the working set.
    pub(crate) fn view_at(&self, ins: u32, buf: &mut Vec<u8>) -> Retrieved {
        let view = self
            .meta_of(ins, buf)
            .and_then(|loc| self.read_view(loc, buf));
        expect_store(view, "hidden record sweep")
    }
}

/// One scan's view of the postings blob: each opened list is read whole,
/// the first decoded into `seed`, the others walked by skip-entry
/// [`PostingCursor`]s over their bytes.
struct DiskPostings<'a> {
    hidden: &'a DiskHidden,
    seed: Vec<u32>,
    bufs: Vec<Vec<u8>>,
}

impl PostingSource for DiskPostings<'_> {
    type Cursor<'s>
        = PostingCursor<'s>
    where
        Self: 's;
    type Error = StoreError;

    fn count(&self, token: TokenId) -> u32 {
        self.hidden
            .post_counts
            .get(token.index())
            .copied()
            .unwrap_or(0)
    }

    fn open(&mut self, tokens: &[TokenId]) -> Result<(&[u32], Vec<PostingCursor<'_>>)> {
        let runtime = &self.hidden.runtime;
        self.bufs.clear();
        for t in tokens {
            let loc = self.hidden.post_locs.get(t.index()).copied();
            let loc = loc.ok_or_else(|| corrupt(runtime, "token beyond posting directory"))?;
            let mut bytes = Vec::new();
            self.hidden.postings.read(loc, &mut bytes)?;
            self.bufs.push(bytes);
        }
        let Some((seed, rest)) = self.bufs.split_first() else {
            return Ok((&[], Vec::new()));
        };
        decode_postings_into(seed, &mut self.seed)
            .ok_or_else(|| corrupt(runtime, "undecodable posting list"))?;
        let cursors = rest
            .iter()
            .map(|b| {
                PostingCursor::new(b).ok_or_else(|| corrupt(runtime, "undecodable posting list"))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok((&self.seed, cursors))
    }
}

impl topk::Cursor for PostingCursor<'_> {
    fn advance_to(&mut self, target: u32) -> Option<u32> {
        PostingCursor::advance_to(self, target)
    }
}
