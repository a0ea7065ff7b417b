//! One fixed-budget page pool per store runtime, with pinned/LRU eviction.
//!
//! A [`PagePool`] keeps at most `budget` decoded page payloads resident
//! for every paged file its runtime hosts. Frames are keyed by (file id,
//! page) and sit on one intrusive [`RecencyList`]: every pin moves its
//! frame to the head, and a miss at budget evicts the first unpinned
//! frame from the tail, whichever file it belongs to. That is exact LRU
//! by last pin at O(1) per access, with no clock of any kind, so which
//! page gets evicted is a pure function of the access sequence and
//! replays identically across runs. Each [`BlobReader`](crate::BlobReader)
//! takes a fresh file id from its pool; ids are never reused, so the
//! frames of a dropped reader simply age out.
//!
//! Pinning is load-bearing for correctness, not just performance: a
//! span read pins *every* page the span touches before copying, so a
//! span that covers more pages than the budget cannot evict its own
//! tail mid-copy. When every frame is pinned the pool grows past budget
//! rather than deadlock; as pins are released it vacates its
//! least-recent unpinned frames until it is back within budget. One
//! mutex guards the pool, held for a whole span read (including the disk
//! read of a miss), so concurrent readers serialize on it.

use crate::file::PagedReader;
use crate::{Result, StoreError, StoreStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Sentinel for "no slot" on the recency list.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Link {
    /// Neighbour toward the most recently used end.
    prev: usize,
    /// Neighbour toward the least recently used end.
    next: usize,
}

const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

/// An intrusive doubly linked recency list over slot indices: the
/// caller keeps its entries in a slab and the list keeps two links per
/// slot. Every operation is O(1) except iteration.
#[derive(Debug)]
pub struct RecencyList {
    links: Vec<Link>,
    /// Most recently used slot (NIL when empty).
    head: usize,
    /// Least recently used slot (NIL when empty).
    tail: usize,
}

impl Default for RecencyList {
    fn default() -> Self {
        Self {
            links: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl RecencyList {
    /// Links `slot`, which must not be on the list, in at the most
    /// recently used end.
    pub fn push_front(&mut self, slot: usize) {
        if self.links.len() <= slot {
            self.links.resize(slot + 1, UNLINKED);
        }
        let old_head = self.head;
        if let Some(link) = self.links.get_mut(slot) {
            *link = Link {
                prev: NIL,
                next: old_head,
            };
        }
        if let Some(h) = self.links.get_mut(old_head) {
            h.prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }

    /// Unlinks `slot` (a no-op if it is not on the list).
    pub fn remove(&mut self, slot: usize) {
        let Some(link) = self.links.get_mut(slot) else {
            return;
        };
        let Link { prev, next } = std::mem::replace(link, UNLINKED);
        if let Some(p) = self.links.get_mut(prev) {
            p.next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if let Some(n) = self.links.get_mut(next) {
            n.prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
    }

    /// Moves `slot`, which must be on the list, to the most recently used
    /// end.
    pub fn touch(&mut self, slot: usize) {
        if slot != self.head {
            self.remove(slot);
            self.push_front(slot);
        }
    }

    /// The least recently used slot.
    pub fn oldest(&self) -> Option<usize> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// The listed slots, least recently used first.
    pub fn iter_oldest_first(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.oldest(), move |&slot| {
            self.links
                .get(slot)
                .map(|link| link.prev)
                .filter(|&prev| prev != NIL)
        })
    }
}

#[derive(Debug, Default)]
struct Frame {
    /// (file, page) held by this frame; `None` marks a vacated frame.
    key: Option<(u64, u64)>,
    payload: Vec<u8>,
    /// Pin count; pinned frames are never evicted.
    pinned: u32,
}

/// The pool's frames and counters, behind its one lock.
#[derive(Debug)]
struct Frames {
    budget: usize,
    frames: Vec<Frame>,
    slot_of: HashMap<(u64, u64), usize>,
    /// Vacated frame slots, reused before the pool grows.
    free: Vec<usize>,
    lru: RecencyList,
    /// Slots pinned by the span being read (reused across reads).
    span: Vec<usize>,
    /// Hits, misses, evictions and the peak; `resident_pages` is derived
    /// on snapshot.
    stats: StoreStats,
}

/// A bounded set of resident page payloads shared by every paged file of
/// one store runtime.
#[derive(Debug)]
pub struct PagePool {
    state: Mutex<Frames>,
    next_file: AtomicU64,
}

impl PagePool {
    /// A pool of at most `budget` resident pages (clamped to at least
    /// one).
    pub fn new(budget: usize) -> Self {
        let budget = budget.max(1);
        Self {
            state: Mutex::new(Frames {
                budget,
                frames: Vec::with_capacity(budget.min(1024)),
                slot_of: HashMap::new(),
                free: Vec::new(),
                lru: RecencyList::default(),
                span: Vec::new(),
                stats: StoreStats::default(),
            }),
            next_file: AtomicU64::new(0),
        }
    }

    /// A fresh file id. Ids are never reused, so a new reader never sees
    /// a dropped reader's frames.
    pub(crate) fn file_id(&self) -> u64 {
        self.next_file.fetch_add(1, Ordering::Relaxed)
    }

    /// Snapshot of the pool's counters. Counts are schedule-dependent
    /// under concurrent query evaluation — report them, never digest
    /// them.
    pub fn stats(&self) -> StoreStats {
        let frames = self.lock();
        StoreStats {
            resident_pages: frames.resident() as u64,
            ..frames.stats
        }
    }

    fn lock(&self) -> MutexGuard<'_, Frames> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Reads `len` logical payload bytes of `file` (read through
    /// `reader`) starting at logical offset `off` into `out` (replacing
    /// its contents). Logical offsets treat the file as the concatenation
    /// of page payloads, each of `reader.payload_capacity()` bytes; every
    /// page the span touches is pinned before the first copy.
    pub(crate) fn read_span(
        &self,
        file: u64,
        reader: &PagedReader,
        off: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.lock().read_span(file, reader, off, len, out)
    }

    /// Pins page `page` of `file` (read through `reader`), lends its
    /// payload to `f` and releases the pin: one pool access that copies
    /// nothing by itself. `f` runs under the pool's lock, so it should
    /// copy out what it needs and return.
    pub(crate) fn with_page<R>(
        &self,
        file: u64,
        reader: &PagedReader,
        page: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.lock().with_page(file, reader, page, f)
    }
}

impl Frames {
    /// Frames currently holding a page.
    fn resident(&self) -> usize {
        self.frames.len() - self.free.len()
    }

    /// Makes page `page` of `file` resident and pins it; returns its
    /// frame slot. The caller must [`unpin`](Self::unpin) the slot when
    /// done with the payload.
    fn pin(&mut self, file: u64, reader: &PagedReader, page: u64) -> Result<usize> {
        if let Some(&slot) = self.slot_of.get(&(file, page)) {
            if let Some(frame) = self.frames.get_mut(slot) {
                frame.pinned += 1;
                self.stats.hits += 1;
                self.lru.touch(slot);
                return Ok(slot);
            }
        }
        self.stats.misses += 1;
        let slot = self.claim_slot();
        let Some(frame) = self.frames.get_mut(slot) else {
            return Err(frame_gone(reader));
        };
        if let Err(e) = reader.read_page(page, &mut frame.payload) {
            self.free.push(slot);
            return Err(e);
        }
        frame.key = Some((file, page));
        frame.pinned = 1;
        self.slot_of.insert((file, page), slot);
        self.lru.push_front(slot);
        Ok(slot)
    }

    /// Releases one pin on `slot`. Releasing the last pin of a pool that
    /// grew past its budget shrinks it back.
    fn unpin(&mut self, slot: usize) {
        let Some(frame) = self.frames.get_mut(slot) else {
            return;
        };
        frame.pinned = frame.pinned.saturating_sub(1);
        if frame.pinned == 0 {
            while self.resident() > self.budget {
                let Some(victim) = self.lru_unpinned() else {
                    break;
                };
                self.vacate(victim);
            }
        }
    }

    /// Finds a frame to load into: a fresh one while under budget, else
    /// the least-recently-used unpinned frame, else (everything pinned)
    /// a temporary over-budget frame.
    fn claim_slot(&mut self) -> usize {
        if self.resident() >= self.budget {
            if let Some(victim) = self.lru_unpinned() {
                self.evict(victim);
                return victim;
            }
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.frames.push(Frame::default());
            self.frames.len() - 1
        });
        let resident = self.resident() as u64;
        self.stats.peak_resident_pages = self.stats.peak_resident_pages.max(resident);
        slot
    }

    /// The least recently pinned frame nobody holds a pin on.
    fn lru_unpinned(&self) -> Option<usize> {
        self.lru
            .iter_oldest_first()
            .find(|&slot| self.frames.get(slot).is_some_and(|f| f.pinned == 0))
    }

    /// Drops the page held by `slot` from the index and the recency list,
    /// keeping its buffer for the next load.
    fn evict(&mut self, slot: usize) {
        self.lru.remove(slot);
        if let Some(key) = self.frames.get_mut(slot).and_then(|f| f.key.take()) {
            self.slot_of.remove(&key);
        }
        self.stats.evictions += 1;
    }

    /// Evicts `slot`, frees its buffer and returns the slot to the free
    /// list.
    fn vacate(&mut self, slot: usize) {
        self.evict(slot);
        if let Some(frame) = self.frames.get_mut(slot) {
            frame.payload = Vec::new();
        }
        self.free.push(slot);
    }

    fn copy_from(
        &self,
        reader: &PagedReader,
        slot: usize,
        start: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let frame = self.frames.get(slot).ok_or_else(|| frame_gone(reader))?;
        let bytes = frame.payload.get(start..start + len).ok_or_else(|| {
            StoreError::corrupt(reader.path(), "byte span runs past its page payload")
        })?;
        out.extend_from_slice(bytes);
        Ok(())
    }

    fn with_page<R>(
        &mut self,
        file: u64,
        reader: &PagedReader,
        page: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let slot = self.pin(file, reader, page)?;
        let lent = self.frames.get(slot).map(|frame| f(&frame.payload));
        self.unpin(slot);
        lent.ok_or_else(|| frame_gone(reader))
    }

    fn read_span(
        &mut self,
        file: u64,
        reader: &PagedReader,
        off: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        out.clear();
        if len == 0 {
            return Ok(());
        }
        out.reserve(len);
        let cap = reader.payload_capacity() as u64;
        let (first, last) = (off / cap, (off + len as u64 - 1) / cap);
        let mut slots = std::mem::take(&mut self.span);
        slots.clear();
        let mut res = (first..=last)
            .try_for_each(|page| self.pin(file, reader, page).map(|slot| slots.push(slot)));
        if res.is_ok() {
            let (mut cursor, mut remaining) = (off, len);
            for &slot in &slots {
                let start = (cursor % cap) as usize;
                let take = remaining.min(cap as usize - start);
                res = self.copy_from(reader, slot, start, take, out);
                if res.is_err() {
                    break;
                }
                cursor += take as u64;
                remaining -= take;
            }
        }
        for &slot in &slots {
            self.unpin(slot);
        }
        self.span = slots;
        res
    }
}

fn frame_gone(reader: &PagedReader) -> StoreError {
    StoreError::corrupt(reader.path(), "cache frame vanished")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::PagedWriter;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::path::{Path, PathBuf};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "smartcrawl_store_cache_{}_{name}",
            std::process::id()
        ))
    }

    /// Writes `pages` full pages where page i is filled with byte
    /// `fill + i`, and opens it.
    fn build(path: &Path, pages: u8, fill: u8) -> PagedReader {
        let mut w = PagedWriter::create(path, 64).unwrap();
        let cap = w.payload_capacity();
        for i in 0..pages {
            w.append_page(&vec![fill + i; cap]).unwrap();
        }
        w.finish().unwrap();
        PagedReader::open(path).unwrap()
    }

    /// Pins and at once unpins one page.
    fn touch(pool: &PagePool, file: u64, reader: &PagedReader, page: u64) {
        let mut frames = pool.lock();
        let slot = frames.pin(file, reader, page).unwrap();
        frames.unpin(slot);
    }

    fn is_resident(pool: &PagePool, file: u64, page: u64) -> bool {
        pool.lock().slot_of.contains_key(&(file, page))
    }

    #[test]
    fn lru_evicts_the_coldest_unpinned_frame() {
        let path = tmp("lru");
        let reader = build(&path, 3, 0);
        let pool = PagePool::new(2);
        let file = pool.file_id();
        touch(&pool, file, &reader, 0);
        touch(&pool, file, &reader, 1);
        // Budget 2: loading page 2 must evict page 0 (the colder one).
        touch(&pool, file, &reader, 2);
        assert!(is_resident(&pool, file, 1));
        assert!(is_resident(&pool, file, 2));
        assert!(!is_resident(&pool, file, 0));
        let stats = pool.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_pages, 2);
        assert_eq!(stats.peak_resident_pages, 2);
        // Re-pinning page 1 is a hit.
        touch(&pool, file, &reader, 1);
        assert_eq!(pool.stats().hits, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let path = tmp("pinned");
        let reader = build(&path, 4, 0);
        let pool = PagePool::new(2);
        let file = pool.file_id();
        let hold = pool.lock().pin(file, &reader, 0).unwrap();
        for page in 1..4 {
            touch(&pool, file, &reader, page);
        }
        // Page 0 was pinned throughout: still resident.
        assert!(is_resident(&pool, file, 0));
        pool.lock().unpin(hold);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn span_wider_than_budget_reads_whole() {
        let path = tmp("span");
        let reader = build(&path, 4, 0);
        let pool = PagePool::new(2);
        let file = pool.file_id();
        let cap = reader.payload_capacity();
        let mut out = Vec::new();
        // A span over 4 pages with budget 2: pins force over-budget growth.
        pool.read_span(file, &reader, 0, cap * 4, &mut out).unwrap();
        assert_eq!(out.len(), cap * 4);
        for (i, chunk) in out.chunks(cap).enumerate() {
            assert!(chunk.iter().all(|&b| b == i as u8));
        }
        assert!(pool.stats().peak_resident_pages >= 4);
        // Releasing the span's pins shrinks the pool back to budget.
        let stats = pool.stats();
        assert_eq!(stats.resident_pages, 2);
        assert_eq!(stats.peak_resident_pages, 4);
        assert_eq!(pool.lock().slot_of.len(), 2);
        // Mid-file, page-straddling span.
        pool.read_span(file, &reader, cap as u64 - 3, 6, &mut out)
            .unwrap();
        assert_eq!(out, [0, 0, 0, 1, 1, 1]);
        for page in 0..4 {
            touch(&pool, file, &reader, page);
        }
        let stats = pool.stats();
        assert_eq!(stats.resident_pages, 2);
        assert_eq!(stats.peak_resident_pages, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn one_reader_gets_the_whole_budget() {
        // Two files on one pool of 8 pages; only the first is read. A
        // second pass over its exactly 8 pages is all hits: the idle
        // reader takes no share of the budget.
        let (path_a, path_b) = (tmp("whole_a"), tmp("whole_b"));
        let (reader, _idle) = (build(&path_a, 8, 0), build(&path_b, 8, 8));
        let pool = PagePool::new(8);
        let (file, _) = (pool.file_id(), pool.file_id());
        let cap = reader.payload_capacity();
        let mut out = Vec::new();
        for _pass in 0..2 {
            for page in 0..8u64 {
                pool.read_span(file, &reader, page * cap as u64, cap, &mut out)
                    .unwrap();
                assert_eq!(out, vec![page as u8; cap]);
            }
        }
        let stats = pool.stats();
        assert_eq!((stats.misses, stats.hits, stats.evictions), (8, 8, 0));
        assert_eq!(stats.peak_resident_pages, 8);
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    /// The eviction rule the recency list must reproduce: the victim is
    /// the unpinned resident (file, page) with the smallest last use,
    /// whichever file it belongs to, and a pool over budget sheds such
    /// pages whenever a pin is released.
    struct Model {
        budget: usize,
        clock: u64,
        /// Resident (file, page) → (last use, pin count).
        resident: BTreeMap<(u64, u64), (u64, u32)>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Model {
        fn new(budget: usize) -> Self {
            Model {
                budget,
                clock: 0,
                resident: BTreeMap::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn victim(&self) -> Option<(u64, u64)> {
            self.resident
                .iter()
                .filter(|(_, &(_, pins))| pins == 0)
                .min_by_key(|(_, &(last, _))| last)
                .map(|(&key, _)| key)
        }

        fn pin(&mut self, key: (u64, u64)) {
            self.clock += 1;
            if let Some(entry) = self.resident.get_mut(&key) {
                *entry = (self.clock, entry.1 + 1);
                self.hits += 1;
                return;
            }
            self.misses += 1;
            if self.resident.len() >= self.budget {
                if let Some(victim) = self.victim() {
                    self.resident.remove(&victim);
                    self.evictions += 1;
                }
            }
            self.resident.insert(key, (self.clock, 1));
        }

        fn unpin(&mut self, key: (u64, u64)) {
            let entry = self.resident.get_mut(&key).expect("model page is pinned");
            entry.1 -= 1;
            if entry.1 > 0 {
                return;
            }
            while self.resident.len() > self.budget {
                let Some(victim) = self.victim() else { break };
                self.resident.remove(&victim);
                self.evictions += 1;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random pins, unpins, span reads and lent pages over two files
        /// sharing one pool at budgets 1 to 4 keep the pool in lockstep
        /// with the reference model keyed by (file, page): same hits,
        /// misses and evictions, same resident pages, after every step.
        #[test]
        fn recency_list_matches_the_smallest_last_use_rule(
            case in 0u64..1_000_000,
            budget in 1usize..5,
            ops in vec((0u8..4, 0usize..2, 0u64..8, 0usize..4, 0usize..64), 1..80),
        ) {
            let pool = PagePool::new(budget);
            // File f holds pages filled with bytes 8f..8f+7.
            let files: Vec<(u64, PagedReader, PathBuf)> = (0..2u8)
                .map(|f| {
                    let path = tmp(&format!("model_{case}_{f}"));
                    (pool.file_id(), build(&path, 8, 8 * f), path)
                })
                .collect();
            let cap = files[0].1.payload_capacity();
            let mut model = Model::new(budget);
            // Pins the test holds across steps: ((file, page), slot).
            let mut held: Vec<((u64, u64), usize)> = Vec::new();
            let mut out = Vec::new();
            for (kind, f, page, span, pick) in ops {
                let (file, reader, _) = &files[f];
                match kind {
                    0 => {
                        held.push(((*file, page), pool.lock().pin(*file, reader, page).unwrap()));
                        model.pin((*file, page));
                    }
                    1 if !held.is_empty() => {
                        let (key, slot) = held.swap_remove(pick % held.len());
                        pool.lock().unpin(slot);
                        model.unpin(key);
                    }
                    3 => {
                        // One page lent in place: a pin and its release.
                        let lent = pool.with_page(*file, reader, page, |p| (p.len(), p[pick % cap]));
                        prop_assert_eq!(lent.unwrap(), (cap, page as u8 + 8 * f as u8));
                        model.pin((*file, page));
                        model.unpin((*file, page));
                    }
                    _ => {
                        // A span from inside `page` across `span` more
                        // page boundaries, clipped to the file. (An
                        // unpin with no pin held lands here too.)
                        let last = (page + span as u64).min(7);
                        let off = page * cap as u64 + (pick % cap) as u64;
                        let len = ((last + 1) * cap as u64 - off) as usize;
                        pool.read_span(*file, reader, off, len, &mut out).unwrap();
                        let expect: Vec<u8> = (off..off + len as u64)
                            .map(|b| (b / cap as u64) as u8 + 8 * f as u8)
                            .collect();
                        prop_assert_eq!(&out, &expect);
                        for p in page..=last {
                            model.pin((*file, p));
                        }
                        for p in page..=last {
                            model.unpin((*file, p));
                        }
                    }
                }
                let snap = pool.stats();
                prop_assert_eq!(
                    (snap.hits, snap.misses, snap.evictions),
                    (model.hits, model.misses, model.evictions)
                );
                let resident: BTreeSet<(u64, u64)> = pool.lock().slot_of.keys().copied().collect();
                let expect: BTreeSet<(u64, u64)> = model.resident.keys().copied().collect();
                prop_assert_eq!(&resident, &expect);
                prop_assert_eq!(snap.resident_pages, expect.len() as u64);
            }
            for (_, _, path) in &files {
                std::fs::remove_file(path).ok();
            }
        }
    }
}
