//! The block/offset file layout: fixed-size pages behind a versioned,
//! checksummed header.
//!
//! ```text
//! offset 0:  #smartcrawl-pages v2\n  (magic, 21 bytes)
//!            u32 page_size (LE)
//!            u64 num_pages (LE)
//!            u64 FNV-1a over the 33 bytes above
//!            zero padding to byte 64
//! offset 64: page 0, page 1, …  (each `page_size` bytes)
//! ```
//!
//! Each page is `[u32 payload_len][u64 checksum over payload][payload]`
//! zero-padded to `page_size`. The page checksum is the word-parallel
//! [`page_checksum`]; files of format v1, whose pages carry FNV-1a
//! instead, fail [`PagedReader::open`] on their magic. Every page read
//! verifies the checksum before the payload is handed out.
//!
//! The header is written *last* (by [`PagedWriter::finish`], which seeks
//! back over the placeholder), so a writer that died mid-build leaves a
//! file that fails header validation instead of one that silently reads
//! short — the single-writer → multi-reader discipline: a file is
//! immutable and complete the moment any [`PagedReader`] can open it.
//!
//! This module is the only place in the crate that creates or writes
//! files (the `io-hygiene` lint rule enforces that); every validation
//! failure is a clean [`StoreError::Corrupt`], never a panic.

use crate::format::{fnv1a, invalid_data, page_checksum};
use crate::{Result, StoreError};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Versioned magic line opening every paged file.
pub const MAGIC: &[u8] = b"#smartcrawl-pages v2\n";
/// Bytes reserved for the file header (magic + sizes + checksum + pad).
pub const HEADER_SPAN: usize = 64;
/// Per-page header: `u32` payload length + `u64` payload checksum.
pub const PAGE_HEADER_LEN: usize = 12;
/// Smallest page size that leaves room for a header and some payload.
pub const MIN_PAGE_SIZE: usize = 32;
/// Upper bound on accepted page sizes (a corrupt header must not make a
/// reader allocate gigabytes).
pub const MAX_PAGE_SIZE: usize = 1 << 24;

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

fn header_bytes(page_size: usize, num_pages: u64) -> Vec<u8> {
    let mut head = Vec::with_capacity(HEADER_SPAN);
    head.extend_from_slice(MAGIC);
    head.extend_from_slice(&(page_size as u32).to_le_bytes());
    head.extend_from_slice(&num_pages.to_le_bytes());
    let sum = fnv1a(&head);
    head.extend_from_slice(&sum.to_le_bytes());
    head.resize(HEADER_SPAN, 0);
    head
}

/// Single writer of a paged file. Pages are appended in order; the
/// validating header only lands when [`finish`](Self::finish) runs.
#[derive(Debug)]
pub struct PagedWriter {
    file: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
    page_size: usize,
    num_pages: u64,
    /// Reused per-page staging buffer (header + payload + padding).
    staging: Vec<u8>,
}

impl PagedWriter {
    /// Creates (truncating) `path` and reserves the header span.
    pub fn create(path: &Path, page_size: usize) -> Result<Self> {
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(StoreError::Io(invalid_data("page size out of range")));
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(&[0u8; HEADER_SPAN])?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            page_size,
            num_pages: 0,
            staging: Vec::with_capacity(page_size),
        })
    }

    /// Payload bytes one page can hold.
    pub fn payload_capacity(&self) -> usize {
        self.page_size - PAGE_HEADER_LEN
    }

    /// Appends one page holding `payload`; returns the page index.
    pub fn append_page(&mut self, payload: &[u8]) -> Result<u64> {
        if payload.len() > self.payload_capacity() {
            return Err(StoreError::corrupt(
                &self.path,
                "page payload exceeds capacity",
            ));
        }
        self.staging.clear();
        self.staging
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.staging
            .extend_from_slice(&page_checksum(payload).to_le_bytes());
        self.staging.extend_from_slice(payload);
        self.staging.resize(self.page_size, 0);
        self.file.write_all(&self.staging)?;
        let page = self.num_pages;
        self.num_pages += 1;
        Ok(page)
    }

    /// Flushes the pages and writes the validating header. Until this
    /// returns, the file on disk does not pass [`PagedReader::open`].
    pub fn finish(self) -> Result<()> {
        let mut file = self
            .file
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header_bytes(self.page_size, self.num_pages))?;
        file.flush()?;
        Ok(())
    }
}

/// Validating reader over a finished paged file.
#[derive(Debug)]
pub struct PagedReader {
    file: std::fs::File,
    path: PathBuf,
    page_size: usize,
    num_pages: u64,
    /// Reused raw-page read buffer.
    raw: Vec<u8>,
}

impl PagedReader {
    /// Opens `path`, validating magic, header checksum, and file length.
    pub fn open(path: &Path) -> Result<Self> {
        let mut file = std::fs::File::open(path)?;
        let mut head = vec![0u8; HEADER_SPAN];
        let corrupt = |detail: &str| StoreError::corrupt(path, detail);
        file.read_exact(&mut head)
            .map_err(|_| corrupt("file shorter than its header"))?;
        if !head.starts_with(MAGIC) {
            return Err(corrupt("not a smartcrawl paged file (bad magic)"));
        }
        let page_size = le_u32(&head, MAGIC.len())
            .ok_or_else(|| corrupt("header too short for page size"))?
            as usize;
        let num_pages = le_u64(&head, MAGIC.len() + 4)
            .ok_or_else(|| corrupt("header too short for page count"))?;
        let declared_sum = le_u64(&head, MAGIC.len() + 12)
            .ok_or_else(|| corrupt("header too short for checksum"))?;
        let summed = head.get(..MAGIC.len() + 12).map(fnv1a);
        if summed != Some(declared_sum) {
            return Err(corrupt("header checksum mismatch"));
        }
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(corrupt("header declares an impossible page size"));
        }
        let expect = HEADER_SPAN as u64 + num_pages * page_size as u64;
        if file.metadata()?.len() < expect {
            return Err(corrupt("file truncated below its declared page count"));
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            page_size,
            num_pages,
            raw: Vec::new(),
        })
    }

    /// The file this reader validates against (for error reporting).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of pages the header declares.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// Page size the header declares.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Payload bytes one page can hold.
    pub fn payload_capacity(&self) -> usize {
        self.page_size - PAGE_HEADER_LEN
    }

    /// Reads page `page` into `out` (payload only), verifying its length
    /// and checksum. Corruption is a clean error.
    pub fn read_page(&mut self, page: u64, out: &mut Vec<u8>) -> Result<()> {
        if page >= self.num_pages {
            return Err(StoreError::corrupt(
                &self.path,
                "page index beyond page count",
            ));
        }
        self.file.seek(SeekFrom::Start(
            HEADER_SPAN as u64 + page * self.page_size as u64,
        ))?;
        self.raw.resize(self.page_size, 0);
        self.file
            .read_exact(&mut self.raw)
            .map_err(|_| StoreError::corrupt(&self.path, "short read inside a page"))?;
        let len = le_u32(&self.raw, 0)
            .ok_or_else(|| StoreError::corrupt(&self.path, "page header truncated"))?
            as usize;
        if len > self.payload_capacity() {
            return Err(StoreError::corrupt(
                &self.path,
                "page declares impossible payload length",
            ));
        }
        let declared_sum = le_u64(&self.raw, 4)
            .ok_or_else(|| StoreError::corrupt(&self.path, "page header truncated"))?;
        let payload = self
            .raw
            .get(PAGE_HEADER_LEN..PAGE_HEADER_LEN + len)
            .ok_or_else(|| StoreError::corrupt(&self.path, "page payload truncated"))?;
        if page_checksum(payload) != declared_sum {
            return Err(StoreError::corrupt(&self.path, "page checksum mismatch"));
        }
        out.clear();
        out.extend_from_slice(payload);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "smartcrawl_store_file_{}_{name}",
            std::process::id()
        ))
    }

    #[test]
    fn pages_round_trip() {
        let path = tmp("rt");
        let mut w = PagedWriter::create(&path, 64).unwrap();
        let cap = w.payload_capacity();
        assert_eq!(w.append_page(b"hello").unwrap(), 0);
        assert_eq!(w.append_page(&vec![0xAB; cap]).unwrap(), 1);
        assert_eq!(w.append_page(b"").unwrap(), 2);
        w.finish().unwrap();

        let mut r = PagedReader::open(&path).unwrap();
        assert_eq!(r.num_pages(), 3);
        assert_eq!(r.page_size(), 64);
        let mut out = Vec::new();
        r.read_page(0, &mut out).unwrap();
        assert_eq!(out, b"hello");
        r.read_page(1, &mut out).unwrap();
        assert_eq!(out, vec![0xAB; cap]);
        r.read_page(2, &mut out).unwrap();
        assert!(out.is_empty());
        assert!(r.read_page(3, &mut out).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_file_does_not_open() {
        let path = tmp("unfinished");
        let mut w = PagedWriter::create(&path, 64).unwrap();
        w.append_page(b"data").unwrap();
        // No finish(): the header is still the zero placeholder.
        drop(w);
        assert!(matches!(
            PagedReader::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let path = tmp("oversize");
        let mut w = PagedWriter::create(&path, 64).unwrap();
        let cap = w.payload_capacity();
        assert!(w.append_page(&vec![0u8; cap + 1]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn silly_page_sizes_are_rejected() {
        let path = tmp("sizes");
        assert!(PagedWriter::create(&path, 8).is_err());
        assert!(PagedWriter::create(&path, MAX_PAGE_SIZE + 1).is_err());
        std::fs::remove_file(&path).ok();
    }
}
