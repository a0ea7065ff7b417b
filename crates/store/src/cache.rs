//! Fixed-budget page cache with pinned/LRU eviction.
//!
//! Each [`PageCache`] fronts one [`PagedReader`] and keeps at most
//! `budget` decoded page payloads resident. Resident frames sit on an
//! intrusive recency list (two slot indices per frame): every pin moves
//! its frame to the head, and a miss at budget evicts the first unpinned
//! frame from the tail. That is exact LRU by last pin at O(1) per access,
//! with no clock of any kind, so which page gets evicted is a pure
//! function of the access sequence and replays identically across runs.
//!
//! Pinning is load-bearing for correctness, not just performance:
//! [`read_span`](PageCache::read_span) pins *every* page a span touches
//! before copying, so a span that covers more pages than the budget
//! cannot evict its own tail mid-copy. When every frame is pinned the
//! cache grows past budget rather than deadlock; as pins are released it
//! vacates its least-recent unpinned frames until it is back within
//! budget.

use crate::file::PagedReader;
use crate::{Result, StoreError, StoreStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for "no slot" on the recency list.
const NIL: usize = usize::MAX;

/// Cache counters shared (lock-free) by every cache a runtime owns.
#[derive(Debug, Default)]
pub struct SharedStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
    peak: AtomicU64,
}

impl SharedStats {
    /// Snapshot the counters. Counts are schedule-dependent under
    /// concurrent query evaluation — report them, never digest them.
    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_pages: self.resident.load(Ordering::Relaxed),
            peak_resident_pages: self.peak.load(Ordering::Relaxed),
        }
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn evicted(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    fn resident_up(&self) {
        let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn resident_down(&self) {
        self.resident.fetch_sub(1, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct Frame {
    /// Page held by this frame; `u64::MAX` marks a vacated frame.
    page: u64,
    payload: Vec<u8>,
    /// Pin count; pinned frames are never evicted.
    pinned: u32,
    /// Neighbour toward the most recently pinned end.
    prev: usize,
    /// Neighbour toward the least recently pinned end.
    next: usize,
}

impl Frame {
    fn vacant() -> Self {
        Frame {
            page: u64::MAX,
            payload: Vec::new(),
            pinned: 0,
            prev: NIL,
            next: NIL,
        }
    }
}

/// A bounded set of resident page payloads over one paged file.
#[derive(Debug)]
pub struct PageCache {
    reader: PagedReader,
    frames: Vec<Frame>,
    slot_of: HashMap<u64, usize>,
    /// Vacated frame slots, reused before the pool grows.
    free: Vec<usize>,
    /// Most recently pinned resident frame (NIL when empty).
    head: usize,
    /// Least recently pinned resident frame (NIL when empty).
    tail: usize,
    budget: usize,
    stats: Arc<SharedStats>,
}

impl PageCache {
    /// Wraps `reader` with a cache of at most `budget` resident pages
    /// (clamped to at least one).
    pub fn new(reader: PagedReader, budget: usize, stats: Arc<SharedStats>) -> Self {
        let budget = budget.max(1);
        Self {
            reader,
            frames: Vec::with_capacity(budget.min(1024)),
            slot_of: HashMap::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            budget,
            stats,
        }
    }

    /// Payload bytes one page of the underlying file holds.
    pub fn payload_capacity(&self) -> usize {
        self.reader.payload_capacity()
    }

    fn frame_gone(&self) -> StoreError {
        StoreError::corrupt(self.reader.path(), "cache frame vanished")
    }

    /// Frames currently holding (or loading) a page.
    fn resident(&self) -> usize {
        self.frames.len() - self.free.len()
    }

    /// Makes `page` resident and pins it; returns its frame slot. The
    /// caller must [`unpin`](Self::unpin) the slot when done with the
    /// payload.
    pub fn pin(&mut self, page: u64) -> Result<usize> {
        if let Some(&slot) = self.slot_of.get(&page) {
            if let Some(frame) = self.frames.get_mut(slot) {
                frame.pinned += 1;
                self.stats.hit();
                if slot != self.head {
                    self.detach(slot);
                    self.push_front(slot);
                }
                return Ok(slot);
            }
        }
        self.stats.miss();
        let slot = self.claim_slot();
        let Some(frame) = self.frames.get_mut(slot) else {
            return Err(self.frame_gone());
        };
        if let Err(e) = self.reader.read_page(page, &mut frame.payload) {
            self.free.push(slot);
            self.stats.resident_down();
            return Err(e);
        }
        frame.page = page;
        frame.pinned = 1;
        self.slot_of.insert(page, slot);
        self.push_front(slot);
        Ok(slot)
    }

    /// Releases one pin on `slot`. Releasing the last pin of a cache that
    /// grew past its budget shrinks it back.
    pub fn unpin(&mut self, slot: usize) {
        let Some(frame) = self.frames.get_mut(slot) else {
            return;
        };
        frame.pinned = frame.pinned.saturating_sub(1);
        if frame.pinned == 0 {
            while self.resident() > self.budget {
                let Some(victim) = self.lru_unpinned() else {
                    break;
                };
                self.evict(victim);
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
        self.stats.resident_up();
        self.free.pop().unwrap_or_else(|| {
            self.frames.push(Frame::vacant());
            self.frames.len() - 1
        })
    }

    /// The least recently pinned frame nobody holds a pin on.
    fn lru_unpinned(&self) -> Option<usize> {
        let mut slot = self.tail;
        while let Some(frame) = self.frames.get(slot) {
            if frame.pinned == 0 {
                return Some(slot);
            }
            slot = frame.prev;
        }
        None
    }

    /// Drops the page held by `slot` from the cache index and the recency
    /// list, keeping its buffer for the next load.
    fn evict(&mut self, slot: usize) {
        self.detach(slot);
        if let Some(frame) = self.frames.get_mut(slot) {
            self.slot_of.remove(&frame.page);
            frame.page = u64::MAX;
        }
        self.stats.evicted();
    }

    /// Frees an evicted frame's buffer and returns its slot to the free
    /// list.
    fn vacate(&mut self, slot: usize) {
        if let Some(frame) = self.frames.get_mut(slot) {
            frame.payload = Vec::new();
        }
        self.free.push(slot);
        self.stats.resident_down();
    }

    /// Unlinks `slot` from the recency list.
    fn detach(&mut self, slot: usize) {
        let Some(frame) = self.frames.get_mut(slot) else {
            return;
        };
        let (prev, next) = (frame.prev, frame.next);
        frame.prev = NIL;
        frame.next = NIL;
        if let Some(p) = self.frames.get_mut(prev) {
            p.next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if let Some(n) = self.frames.get_mut(next) {
            n.prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
    }

    /// Links `slot` in at the most recently pinned end.
    fn push_front(&mut self, slot: usize) {
        let old_head = self.head;
        if let Some(frame) = self.frames.get_mut(slot) {
            frame.prev = NIL;
            frame.next = old_head;
        }
        if let Some(h) = self.frames.get_mut(old_head) {
            h.prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }

    fn copy_from(&self, slot: usize, start: usize, len: usize, out: &mut Vec<u8>) -> Result<()> {
        let frame = self.frames.get(slot).ok_or_else(|| self.frame_gone())?;
        let bytes = frame.payload.get(start..start + len).ok_or_else(|| {
            StoreError::corrupt(self.reader.path(), "byte span runs past its page payload")
        })?;
        out.extend_from_slice(bytes);
        Ok(())
    }

    /// Reads `len` logical payload bytes starting at logical offset `off`
    /// into `out` (replacing its contents). Logical offsets treat the
    /// file as the concatenation of page payloads, each of
    /// [`payload_capacity`](Self::payload_capacity) bytes; every page the
    /// span touches is pinned before the first copy.
    pub fn read_span(&mut self, off: u64, len: usize, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        if len == 0 {
            return Ok(());
        }
        out.reserve(len);
        let cap = self.payload_capacity() as u64;
        let first = off / cap;
        let last = (off + len as u64 - 1) / cap;
        if first == last {
            let slot = self.pin(first)?;
            let res = self.copy_from(slot, (off % cap) as usize, len, out);
            self.unpin(slot);
            return res;
        }
        let mut slots = Vec::with_capacity((last - first + 1) as usize);
        let mut res = Ok(());
        for page in first..=last {
            match self.pin(page) {
                Ok(slot) => slots.push(slot),
                Err(e) => {
                    res = Err(e);
                    break;
                }
            }
        }
        if res.is_ok() {
            let mut cursor = off;
            let mut remaining = len;
            for &slot in &slots {
                let start = (cursor % cap) as usize;
                let take = remaining.min(cap as usize - start);
                if let Err(e) = self.copy_from(slot, start, take, out) {
                    res = Err(e);
                    break;
                }
                cursor += take as u64;
                remaining -= take;
            }
        }
        for &slot in &slots {
            self.unpin(slot);
        }
        res
    }
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

    /// Writes `pages` full pages where page i is filled with byte i.
    fn build(path: &Path, pages: u8) -> PageCache {
        let mut w = PagedWriter::create(path, 64).unwrap();
        let cap = w.payload_capacity();
        for i in 0..pages {
            w.append_page(&vec![i; cap]).unwrap();
        }
        w.finish().unwrap();
        PageCache::new(
            PagedReader::open(path).unwrap(),
            2,
            Arc::new(SharedStats::default()),
        )
    }

    #[test]
    fn lru_evicts_the_coldest_unpinned_frame() {
        let path = tmp("lru");
        let mut cache = build(&path, 3);
        let s0 = cache.pin(0).unwrap();
        cache.unpin(s0);
        let s1 = cache.pin(1).unwrap();
        cache.unpin(s1);
        // Budget 2: loading page 2 must evict page 0 (the colder one).
        let s2 = cache.pin(2).unwrap();
        cache.unpin(s2);
        assert!(cache.slot_of.contains_key(&1));
        assert!(cache.slot_of.contains_key(&2));
        assert!(!cache.slot_of.contains_key(&0));
        let stats = cache.stats.snapshot();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_pages, 2);
        assert_eq!(stats.peak_resident_pages, 2);
        // Re-pinning page 1 is a hit.
        let s1 = cache.pin(1).unwrap();
        cache.unpin(s1);
        assert_eq!(cache.stats.snapshot().hits, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let path = tmp("pinned");
        let mut cache = build(&path, 4);
        let hold = cache.pin(0).unwrap();
        for page in 1..4 {
            let s = cache.pin(page).unwrap();
            cache.unpin(s);
        }
        // Page 0 was pinned throughout: still resident.
        assert!(cache.slot_of.contains_key(&0));
        cache.unpin(hold);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn span_wider_than_budget_reads_whole() {
        let path = tmp("span");
        let mut cache = build(&path, 4);
        let cap = cache.payload_capacity();
        let mut out = Vec::new();
        // A span over 4 pages with budget 2: pins force over-budget growth.
        cache.read_span(0, cap * 4, &mut out).unwrap();
        assert_eq!(out.len(), cap * 4);
        for (i, chunk) in out.chunks(cap).enumerate() {
            assert!(chunk.iter().all(|&b| b == i as u8));
        }
        assert!(cache.stats.snapshot().peak_resident_pages >= 4);
        // Releasing the span's pins shrinks the cache back to budget.
        let stats = cache.stats.snapshot();
        assert_eq!(stats.resident_pages, 2);
        assert_eq!(stats.peak_resident_pages, 4);
        assert_eq!(cache.slot_of.len(), 2);
        // Mid-file, page-straddling span.
        cache.read_span(cap as u64 - 3, 6, &mut out).unwrap();
        assert_eq!(out, [0, 0, 0, 1, 1, 1]);
        for page in 0..4 {
            let s = cache.pin(page).unwrap();
            cache.unpin(s);
        }
        let stats = cache.stats.snapshot();
        assert_eq!(stats.resident_pages, 2);
        assert_eq!(stats.peak_resident_pages, 4);
        std::fs::remove_file(&path).ok();
    }

    /// The eviction rule the recency list must reproduce: the victim is
    /// the unpinned resident page with the smallest last use, and a cache
    /// over budget sheds such pages whenever a pin is released.
    struct Model {
        budget: usize,
        clock: u64,
        /// Resident page → (last use, pin count).
        resident: BTreeMap<u64, (u64, u32)>,
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

        fn victim(&self) -> Option<u64> {
            self.resident
                .iter()
                .filter(|(_, &(_, pins))| pins == 0)
                .min_by_key(|(_, &(last, _))| last)
                .map(|(&page, _)| page)
        }

        fn pin(&mut self, page: u64) {
            self.clock += 1;
            if let Some(entry) = self.resident.get_mut(&page) {
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
            self.resident.insert(page, (self.clock, 1));
        }

        fn unpin(&mut self, page: u64) {
            let entry = self.resident.get_mut(&page).expect("model page is pinned");
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

        /// Random pin, unpin and span reads at budgets 1 to 4 keep the
        /// cache in lockstep with the reference model: same hits, misses
        /// and evictions, same resident pages, after every step.
        #[test]
        fn recency_list_matches_the_smallest_last_use_rule(
            case in 0u64..1_000_000,
            budget in 1usize..5,
            ops in vec((0u8..3, 0u64..8, 0usize..4, 0usize..64), 1..80),
        ) {
            let path = tmp(&format!("model_{case}"));
            let mut w = PagedWriter::create(&path, 64).unwrap();
            let cap = w.payload_capacity();
            for i in 0..8u8 {
                w.append_page(&vec![i; cap]).unwrap();
            }
            w.finish().unwrap();
            let stats = Arc::new(SharedStats::default());
            let reader = PagedReader::open(&path).unwrap();
            let mut cache = PageCache::new(reader, budget, Arc::clone(&stats));
            let mut model = Model::new(budget);
            // Pins the test holds across steps: (page, slot).
            let mut held: Vec<(u64, usize)> = Vec::new();
            let mut out = Vec::new();
            for (kind, page, span, pick) in ops {
                match kind {
                    0 => {
                        held.push((page, cache.pin(page).unwrap()));
                        model.pin(page);
                    }
                    1 if !held.is_empty() => {
                        let (page, slot) = held.swap_remove(pick % held.len());
                        cache.unpin(slot);
                        model.unpin(page);
                    }
                    _ => {
                        // A span from inside `page` across `span` more
                        // page boundaries, clipped to the file. (An
                        // unpin with no pin held lands here too.)
                        let last = (page + span as u64).min(7);
                        let off = page * cap as u64 + (pick % cap) as u64;
                        let len = ((last + 1) * cap as u64 - off) as usize;
                        cache.read_span(off, len, &mut out).unwrap();
                        let expect: Vec<u8> =
                            (off..off + len as u64).map(|b| (b / cap as u64) as u8).collect();
                        prop_assert_eq!(&out, &expect);
                        for p in page..=last {
                            model.pin(p);
                        }
                        for p in page..=last {
                            model.unpin(p);
                        }
                    }
                }
                let snap = stats.snapshot();
                prop_assert_eq!(
                    (snap.hits, snap.misses, snap.evictions),
                    (model.hits, model.misses, model.evictions)
                );
                let resident: BTreeSet<u64> = cache.slot_of.keys().copied().collect();
                let expect: BTreeSet<u64> = model.resident.keys().copied().collect();
                prop_assert_eq!(&resident, &expect);
                prop_assert_eq!(snap.resident_pages, expect.len() as u64);
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
