//! Disk-backed hidden-database backend.
//!
//! The RAM engine holds one pre-materialized `Retrieved` view per
//! record — fine at 10⁵ records, hopeless at the ROADMAP's scale-100
//! target. This backend keeps the whole record set on disk in
//! `smartcrawl-store`'s paged format and keeps only O(vocabulary) +
//! O(|H| / records per page) + O(page-pool budget) bytes resident:
//!
//! * **records blob** — each record's interface view (external id,
//!   fields, payload; [`write_record`]) in *rank* order, packed into
//!   slotted pages. A page opens with a `u32` record count and one `u32`
//!   end offset per record, counted from the end of that slot table; the
//!   records' bytes follow. A record crosses a page boundary only when it
//!   is larger than a page payload less a one-slot table: then it starts
//!   a new page and runs on over whole pages that hold nothing else. An
//!   in-RAM directory keeps, per records page, the number of records that
//!   start on earlier pages (the first rank on a page that opens one), 4
//!   bytes per page. A result costs one binary search of the directory
//!   and one page-pool access that copies out only the record's bytes;
//!   the view decodes after the pool's lock is released. The rank signal
//!   is consumed by the build and not stored.
//! * **postings blob** — one delta/varint posting list per token over
//!   *rank-space* ids: records are renumbered by their global ranking
//!   position before encoding, so every list is simultaneously ascending
//!   and rank-sorted. A conjunctive top-k is then a rarest-first cursor
//!   intersection that emits winners in final page order and *stops at
//!   `k`* — non-winning records are never touched, let alone decoded. The
//!   scans live in [`crate::topk`], shared with the RAM backend; this
//!   module only supplies the lists.
//! * **aux blob** — two fixed-width runs, read through the page pool so
//!   resident memory stays O(pool), not O(|H|): insertion position →
//!   rank (positional access, and `iter` in the insertion order every
//!   digest in the workspace is keyed to), and the external-id lookup as
//!   a sorted `(external, rank)` array probed by binary search.
//!
//! No view is cached above the page pool: every read decodes the record
//! from the page it lands on. The build streams the records once,
//! spilling each encoded view and tokenized document to a staging blob in
//! insertion order. After the rank sort it builds the postings a
//! token-range chunk at a time and copies the records into rank order a
//! rank-range chunk of at most the pool's budget in bytes at a time, each
//! chunk one sequential sweep of its staging blob, and then deletes both
//! staging blobs; peak build memory is bounded by the chunk budgets
//! rather than the corpus' size. (The per-record fixed-width side
//! tables — locators, sort keys — are still O(|H|) *transiently* during
//! the build; see DESIGN.md §15.)
//!
//! Failure policy matches the store crate: everything at build/open time
//! returns `Result`; query-time reads on the validated store go through
//! [`expect_store`], because an index vanishing mid-crawl is
//! unrecoverable by design.

use crate::engine::SearchMode;
use crate::ranking::Ranking;
use crate::record::{read_record, write_record, ExternalId, HiddenRecord, Retrieved};
use crate::topk::{self, PostingSource};
use smartcrawl_store::file::MAX_PAGE_SIZE;
use smartcrawl_store::format::{invalid_data, read_varint, write_varint};
use smartcrawl_store::postings::{decode_postings_into, encode_postings, PostingCursor};
use smartcrawl_store::{
    expect_store, BlobReader, BlobWriter, Locator, PagePool, PagedWriter, Result, StoreError,
    StoreReport, StoreRuntime,
};
use smartcrawl_text::{TokenId, Tokenizer, Vocabulary};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bytes of one external-id lookup entry: `u64` external + `u32` rank.
const EXT_ENTRY: u64 = 12;
/// Bytes of one insertion-position entry: the record's `u32` rank.
const POS_ENTRY: u64 = 4;
/// Bytes of one slot-table word on a records page: the `u32` record
/// count, or one record's `u32` end offset. A `u32` covers every page
/// size the store accepts:
const SLOT: usize = 4;
const _: () = assert!(MAX_PAGE_SIZE <= u32::MAX as usize);
/// Posting ids (× 4 bytes) one build chunk may hold in RAM.
const CHUNK_IDS: usize = 4 << 20;

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

/// `n` as a slot-table word.
fn slot_word(n: usize) -> Result<[u8; SLOT]> {
    u32::try_from(n)
        .map(u32::to_le_bytes)
        .map_err(|_| StoreError::Io(invalid_data("record exceeds 4 GiB")))
}

/// Decodes a records-blob entry: one [`write_record`] record, nothing after it.
fn decode_view(buf: &[u8]) -> Option<Retrieved> {
    let mut pos = 0usize;
    let view = read_record(buf, &mut pos)?;
    (pos == buf.len()).then_some(view)
}

/// The byte range, from the start of `payload`, of record `slot` on a
/// records page. The range runs past the payload only for a record larger
/// than a page, which is alone on its page and continues over the pages
/// after it. `None` where the slot table has no entry `slot`.
fn slot_range(payload: &[u8], slot: usize) -> Option<(usize, usize)> {
    let count = le_u32(payload, 0)? as usize;
    if slot >= count {
        return None;
    }
    let start = match slot {
        0 => 0,
        _ => le_u32(payload, SLOT * slot)? as usize,
    };
    let end = le_u32(payload, SLOT * (slot + 1))? as usize;
    let data = SLOT * (count + 1);
    let on_page = data + end <= payload.len();
    (start <= end && (on_page || count == 1)).then_some((data + start, data + end))
}

/// Writer of the records blob: records pushed in rank order, packed into
/// slotted pages, and the directory of the first rank on each page.
struct RecordPages {
    writer: PagedWriter,
    path: PathBuf,
    /// Payload bytes per page.
    cap: usize,
    /// End offset of each record on the open page, from the end of its
    /// slot table.
    ends: Vec<[u8; SLOT]>,
    /// The open page's record bytes.
    bytes: Vec<u8>,
    /// Scratch for one page payload.
    page: Vec<u8>,
    /// Per written page, the number of records that start on earlier
    /// pages.
    directory: Vec<u32>,
    /// Records pushed so far.
    pushed: u32,
}

impl RecordPages {
    fn create(path: &Path, page_size: usize) -> Result<Self> {
        let writer = PagedWriter::create(path, page_size)?;
        let cap = writer.payload_capacity();
        Ok(Self {
            writer,
            path: path.to_path_buf(),
            cap,
            ends: Vec::new(),
            bytes: Vec::with_capacity(cap),
            page: Vec::with_capacity(cap),
            directory: Vec::new(),
            pushed: 0,
        })
    }

    /// Appends the record of the next rank.
    fn push(&mut self, record: &[u8]) -> Result<()> {
        if SLOT * (self.ends.len() + 2) + self.bytes.len() + record.len() > self.cap {
            self.flush()?;
        }
        if 2 * SLOT + record.len() > self.cap {
            return self.push_oversize(record);
        }
        if self.ends.is_empty() {
            self.directory.push(self.pushed);
        }
        self.bytes.extend_from_slice(record);
        self.ends.push(slot_word(self.bytes.len())?);
        self.pushed += 1;
        Ok(())
    }

    /// Writes a record that fits no page beside a one-slot table: its
    /// head on a one-slot page, then its tail over whole pages of its
    /// own. The open page was flushed by [`push`](Self::push).
    fn push_oversize(&mut self, record: &[u8]) -> Result<()> {
        let (head, mut tail) = record.split_at(self.cap - 2 * SLOT);
        self.page.clear();
        self.page.extend_from_slice(&slot_word(1)?);
        self.page.extend_from_slice(&slot_word(record.len())?);
        self.page.extend_from_slice(head);
        self.writer.append_page(&self.page)?;
        self.directory.push(self.pushed);
        self.pushed += 1;
        while !tail.is_empty() {
            let (run, rest) = tail.split_at(tail.len().min(self.cap));
            self.writer.append_page(run)?;
            self.directory.push(self.pushed);
            tail = rest;
        }
        Ok(())
    }

    /// Writes the open page, if it holds any record.
    fn flush(&mut self) -> Result<()> {
        if self.ends.is_empty() {
            return Ok(());
        }
        self.page.clear();
        self.page.extend_from_slice(&slot_word(self.ends.len())?);
        for end in &self.ends {
            self.page.extend_from_slice(end);
        }
        self.page.extend_from_slice(&self.bytes);
        self.writer.append_page(&self.page)?;
        self.ends.clear();
        self.bytes.clear();
        Ok(())
    }

    /// Writes the last page and the header, and opens the blob for
    /// reading through `pool`.
    fn finish(mut self, pool: &Arc<PagePool>) -> Result<RankedRecords> {
        self.flush()?;
        self.writer.finish()?;
        Ok(RankedRecords {
            blob: BlobReader::open(&self.path, pool)?,
            path: self.path,
            cap: self.cap as u64,
            directory: self.directory,
        })
    }
}

/// The records blob at query time: its reader and the in-RAM directory.
#[derive(Debug)]
struct RankedRecords {
    blob: BlobReader,
    path: PathBuf,
    /// Payload bytes per page: page `p` starts at logical offset `p × cap`.
    cap: u64,
    /// Per records page, the number of records that start on earlier
    /// pages, ascending.
    directory: Vec<u32>,
}

impl RankedRecords {
    fn corrupt(&self, detail: &str) -> StoreError {
        StoreError::Corrupt {
            path: self.path.clone(),
            detail: detail.to_string(),
        }
    }

    /// Reads the bytes of the record ranked `rank` into `out` (replacing
    /// its contents): one pool access, plus a span read for a record
    /// larger than a page.
    fn read(&self, rank: u32, out: &mut Vec<u8>) -> Result<()> {
        let page = self
            .directory
            .partition_point(|&first| first <= rank)
            .checked_sub(1);
        let first = page.and_then(|p| self.directory.get(p));
        let (Some(page), Some(&first)) = (page, first) else {
            return Err(self.corrupt("rank before the first records page"));
        };
        let page = page as u64;
        out.clear();
        let range = self.blob.with_page(page, |payload| {
            let (start, end) = slot_range(payload, (rank - first) as usize)?;
            if let Some(bytes) = payload.get(start..end) {
                out.extend_from_slice(bytes);
            }
            Some((start, end))
        })?;
        let (start, end) = range.ok_or_else(|| self.corrupt("records page lacks the rank"))?;
        let len = end - start;
        if out.len() < len {
            // Larger than a page: alone on its page, and its bytes run on
            // over the pages after it.
            let len = u32::try_from(len).map_err(|_| self.corrupt("record exceeds 4 GiB"))?;
            let off = page * self.cap + start as u64;
            self.blob.read(Locator { off, len }, out)?;
        }
        Ok(())
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
    /// Logical offset of the aux blob's `(external, rank)` run; the
    /// insertion-position run starts at 0.
    ext_base: u64,
    records: RankedRecords,
    postings: BlobReader,
    aux: BlobReader,
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
        let staged_path = runtime.file_path("hidden-records-staging");
        let doc_path = runtime.file_path("hidden-docs-staging");
        let mut staged_writer = BlobWriter::create(&staged_path, page_size)?;
        let mut doc_writer = BlobWriter::create(&doc_path, page_size)?;

        // Pass 1: stream records once — spill each encoded view and its
        // tokenized document to the staging blobs, in insertion order,
        // and keep only fixed-width per-record side data (locator, sort
        // key, external id).
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
            rec_locs.push(staged_writer.append(&buf)?);
            keys.push((ranking.key(r.external_id.0, r.rank_signal), r.external_id.0));
            exts.push(r.external_id.0);
        }
        staged_writer.finish()?;
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
        std::fs::remove_file(&doc_path)?;

        // Pass 3: the records blob in rank order, a rank-range chunk at a
        // time. A chunk holds as many record bytes as the page pool's
        // budget (and at least one record): one sequential sweep of the
        // staging blob drops each of its records at its rank's offset,
        // and the chunk is then packed into pages.
        let chunk_bytes = runtime.config().cache_pages * page_size;
        let mut pages = RecordPages::create(&runtime.file_path("hidden-records"), page_size)?;
        let staged = BlobReader::open(&staged_path, runtime.pool())?;
        let mut chunk: Vec<u8> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        let mut rank_lo = 0usize;
        while rank_lo < order.len() {
            starts.clear();
            starts.push(0);
            let mut bytes = 0usize;
            for &ins in order.get(rank_lo..).unwrap_or_default() {
                let len = rec_locs.get(ins as usize).map_or(0, |loc| loc.len as usize);
                if bytes + len > chunk_bytes && starts.len() > 1 {
                    break;
                }
                bytes += len;
                starts.push(bytes);
            }
            chunk.clear();
            chunk.resize(bytes, 0);
            for (&loc, &rank) in rec_locs.iter().zip(&ins_to_rank) {
                let Some(at) = (rank as usize).checked_sub(rank_lo) else {
                    continue;
                };
                if let (Some(&start), Some(&end)) = (starts.get(at), starts.get(at + 1)) {
                    staged.read(loc, &mut buf)?;
                    if let Some(dst) = chunk.get_mut(start..end) {
                        dst.copy_from_slice(&buf);
                    }
                }
            }
            for span in starts.windows(2) {
                let &[start, end] = span else { continue };
                let record = chunk.get(start..end);
                pages.push(record.ok_or_else(|| corrupt(&runtime, "record beyond its chunk"))?)?;
            }
            rank_lo += starts.len() - 1;
        }
        drop(chunk);
        drop(staged);
        drop(rec_locs);
        drop(order);
        std::fs::remove_file(&staged_path)?;
        let records = pages.finish(runtime.pool())?;

        // Aux blob: the two fixed-width runs, appended entry by entry
        // (blob offsets are contiguous, so entry i of a run lives at
        // `base + i × ENTRY`).
        let aux_path = runtime.file_path("hidden-aux");
        let mut aux_writer = BlobWriter::create(&aux_path, page_size)?;
        for rank in &ins_to_rank {
            aux_writer.append(&rank.to_le_bytes())?;
        }
        let ext_base = u64::from(n) * POS_ENTRY;
        let mut ext_pairs: Vec<(u64, u32)> = exts.into_iter().zip(ins_to_rank).collect();
        ext_pairs.sort_unstable();
        let mut entry: Vec<u8> = Vec::with_capacity(EXT_ENTRY as usize);
        for &(ext, rank) in &ext_pairs {
            entry.clear();
            entry.extend_from_slice(&ext.to_le_bytes());
            entry.extend_from_slice(&rank.to_le_bytes());
            aux_writer.append(&entry)?;
        }
        aux_writer.finish()?;
        drop(ext_pairs);

        let pool = runtime.pool();
        Ok(Self {
            records,
            postings: BlobReader::open(&post_path, pool)?,
            aux: BlobReader::open(&aux_path, pool)?,
            runtime,
            n,
            post_locs,
            post_counts,
            ext_base,
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.n as usize
    }

    pub(crate) fn report(&self) -> StoreReport {
        self.runtime.report()
    }

    /// Reads the fixed-width aux entry at `off` into `buf`.
    fn aux_entry(&self, off: u64, len: u64, buf: &mut Vec<u8>) -> Result<()> {
        let loc = Locator {
            off,
            len: len as u32,
        };
        self.aux.read(loc, buf)
    }

    /// Rank of the record inserted at position `pos`.
    fn rank_at(&self, pos: u32, buf: &mut Vec<u8>) -> Result<u32> {
        self.aux_entry(u64::from(pos) * POS_ENTRY, POS_ENTRY, buf)?;
        le_u32(buf, 0).ok_or_else(short_read)
    }

    /// Binary search of the sorted `(external, rank)` array.
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

    /// Decodes the view of the record ranked `rank`.
    fn view_of_rank(&self, rank: u32, buf: &mut Vec<u8>) -> Result<Retrieved> {
        self.records.read(rank, buf)?;
        decode_view(buf).ok_or_else(|| corrupt(&self.runtime, "undecodable record"))
    }

    /// The top-`k` page under `mode`.
    pub(crate) fn page(&self, mode: SearchMode, tokens: &[TokenId], k: usize) -> Vec<Retrieved> {
        let ranks = expect_store(
            topk::page(&mut self.postings(), mode, tokens, k),
            "hidden top-k scan",
        );
        let mut buf = Vec::new();
        let page = ranks
            .iter()
            .map(|&rank| self.view_of_rank(rank, &mut buf))
            .collect();
        expect_store(page, "hidden page read")
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
        let rank = expect_store(
            self.lookup_external(id.0, &mut buf),
            "hidden external lookup",
        )?;
        Some(expect_store(
            self.view_of_rank(rank, &mut buf),
            "hidden view read",
        ))
    }

    /// The interface view of the record inserted at position `pos`.
    pub(crate) fn view_at(&self, pos: u32) -> Option<Retrieved> {
        if pos >= self.n {
            return None;
        }
        let mut buf = Vec::new();
        let view = self
            .rank_at(pos, &mut buf)
            .and_then(|rank| self.view_of_rank(rank, &mut buf));
        Some(expect_store(view, "hidden positional read"))
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

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_store::StoreConfig;

    /// Record `i`: `len` bytes, each `i`.
    fn record(i: usize, len: usize) -> Vec<u8> {
        vec![i as u8; len]
    }

    #[test]
    fn records_pages_keep_each_record_whole_at_every_page_edge() {
        // 64-byte pages carry 52 payload bytes: a lone record fills one
        // at 44 bytes (52 less a one-slot table), two records at 40.
        let runtime = StoreRuntime::create(StoreConfig {
            page_size: 64,
            cache_pages: 2,
            dir: None,
        })
        .unwrap();
        let lens = [
            100, // oversize at rank 0: its own three pages
            20, 20, // two records that fill a page exactly
            44, // one record that fills a page exactly
            45, // one byte over: its own two pages
            20, 21, // one byte over for two: the second opens a page
            10, 200, 10,  // oversize between two small records
            120, // oversize at the last rank
        ];
        let mut pages = RecordPages::create(&runtime.file_path("edges"), 64).unwrap();
        for (i, &len) in lens.iter().enumerate() {
            pages.push(&record(i, len)).unwrap();
        }
        let records = pages.finish(runtime.pool()).unwrap();
        // Per page, the records that start on earlier pages: a record
        // shares a page only where it fits beside the others, and the
        // pages an oversize record runs over hold nothing else.
        let directory = [0, 1, 1, 1, 3, 4, 5, 5, 6, 8, 9, 9, 9, 9, 10, 11, 11];
        assert_eq!(records.directory, directory);
        let mut out = Vec::new();
        // Forward, then backward, through a two-page pool.
        for i in (0..lens.len()).chain((0..lens.len()).rev()) {
            records.read(i as u32, &mut out).unwrap();
            assert_eq!(out, record(i, lens[i]), "rank {i}");
        }
        assert!(runtime.report().stats.resident_pages <= 2);
    }
}
