//! Byte-stream view over a paged file.
//!
//! Encoded posting lists and forward rows are variable-length; the blob
//! layer writes them back to back across page payloads (a list freely
//! straddles page boundaries) and addresses each one with a compact
//! [`Locator`]. Reads go through the runtime's page pool, so only the
//! touched pages of a multi-gigabyte file are ever resident.

use crate::cache::PagePool;
use crate::file::{PagedReader, PagedWriter};
use crate::format::invalid_data;
use crate::{Result, StoreError};
use std::path::Path;
use std::sync::Arc;

/// Address of one byte run inside a blob file: logical offset (in the
/// concatenation of page payloads) plus length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Locator {
    /// Logical byte offset of the run.
    pub off: u64,
    /// Length of the run in bytes.
    pub len: u32,
}

/// Append-only writer of a blob file. Single writer: once
/// [`finish`](Self::finish) runs the file is immutable and any number of
/// [`BlobReader`]s may open it.
#[derive(Debug)]
pub struct BlobWriter {
    writer: PagedWriter,
    /// Payload of the page currently being filled.
    page: Vec<u8>,
    /// Logical offset of the next appended byte.
    cursor: u64,
}

impl BlobWriter {
    /// Creates (truncating) a blob file at `path`.
    pub fn create(path: &Path, page_size: usize) -> Result<Self> {
        let writer = PagedWriter::create(path, page_size)?;
        let cap = writer.payload_capacity();
        Ok(Self {
            writer,
            page: Vec::with_capacity(cap),
            cursor: 0,
        })
    }

    /// Appends `bytes` and returns its locator.
    pub fn append(&mut self, bytes: &[u8]) -> Result<Locator> {
        let len = u32::try_from(bytes.len())
            .map_err(|_| StoreError::Io(invalid_data("blob run exceeds 4 GiB")))?;
        let loc = Locator {
            off: self.cursor,
            len,
        };
        let cap = self.writer.payload_capacity();
        let mut rest = bytes;
        while !rest.is_empty() {
            let room = cap - self.page.len();
            let take = room.min(rest.len());
            let (head, tail) = rest.split_at(take);
            self.page.extend_from_slice(head);
            rest = tail;
            if self.page.len() == cap {
                self.writer.append_page(&self.page)?;
                self.page.clear();
            }
        }
        self.cursor += u64::from(len);
        Ok(loc)
    }

    /// Flushes the trailing partial page and writes the validating
    /// header.
    pub fn finish(mut self) -> Result<()> {
        if !self.page.is_empty() {
            self.writer.append_page(&self.page)?;
        }
        self.writer.finish()
    }
}

/// Reader of a finished blob file through a shared page pool.
#[derive(Debug)]
pub struct BlobReader {
    reader: PagedReader,
    /// This file's key in the pool.
    file: u64,
    pool: Arc<PagePool>,
}

impl BlobReader {
    /// Opens (and validates) the blob file at `path`, caching its pages
    /// in `pool`.
    pub fn open(path: &Path, pool: &Arc<PagePool>) -> Result<Self> {
        Ok(Self {
            reader: PagedReader::open(path)?,
            file: pool.file_id(),
            pool: Arc::clone(pool),
        })
    }

    /// Reads the run at `loc` into `out` (replacing its contents).
    pub fn read(&self, loc: Locator, out: &mut Vec<u8>) -> Result<()> {
        self.pool
            .read_span(self.file, &self.reader, loc.off, loc.len as usize, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "smartcrawl_store_blob_{}_{name}",
            std::process::id()
        ))
    }

    #[test]
    fn straddling_runs_round_trip() {
        let path = tmp("rt");
        // Tiny pages (capacity 20 bytes) force straddling.
        let mut w = BlobWriter::create(&path, 32).unwrap();
        let runs: Vec<Vec<u8>> = vec![
            b"short".to_vec(),
            (0..=255).collect(),
            Vec::new(),
            vec![0x5A; 100],
        ];
        let locs: Vec<Locator> = runs.iter().map(|r| w.append(r).unwrap()).collect();
        w.finish().unwrap();

        let r = BlobReader::open(&path, &Arc::new(PagePool::new(2))).unwrap();
        let mut out = Vec::new();
        // Read out of order to exercise cache churn.
        for &i in &[3usize, 0, 2, 1, 0, 3] {
            r.read(locs[i], &mut out).unwrap();
            assert_eq!(&out, &runs[i], "run {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_past_end_is_an_error() {
        let path = tmp("oob");
        let mut w = BlobWriter::create(&path, 32).unwrap();
        w.append(b"abc").unwrap();
        w.finish().unwrap();
        let r = BlobReader::open(&path, &Arc::new(PagePool::new(2))).unwrap();
        let mut out = Vec::new();
        assert!(r.read(Locator { off: 1000, len: 10 }, &mut out).is_err());
        std::fs::remove_file(&path).ok();
    }
}
