//! Cache persistence: warm-start sweeps across processes.
//!
//! Since PR 10 the cache persists on the workspace's shared paged store
//! format (`smartcrawl-store`'s [`PagedWriter`]/[`PagedReader`]): the same
//! single-writer → multi-reader discipline, versioned magic header, and
//! per-page checksums as the on-disk scenario and index files, so a torn
//! or bit-rotted save is rejected loudly at open instead of silently
//! warm-starting a crawl with partial results.
//!
//! Layout: a varint byte stream chunked into checksummed pages —
//!
//! ```text
//! tag "#smartcrawl-query-cache v2\n"
//! varint N                                        (entry count)
//! N × [ varint nkw, nkw × (varint len, bytes),    (keywords)
//!       varint nrec, nrec × record ]
//! record = varint id, varint nf, nf × cell, varint np, np × cell
//! cell   = varint len, bytes
//! ```
//!
//! The keywords are [`write_cells`]' layout and each record is
//! [`write_record`]'s, the form the disk hidden store keeps its records in.
//!
//! Entries are written least-recently-used first, so loading re-inserts
//! them in recency order and the store resumes with the exact LRU state it
//! was saved with.

use crate::store::{CachePolicy, QueryCache};
use smartcrawl_hidden::record::{read_cells, read_record, write_cells, write_record};
use smartcrawl_hidden::SearchPage;
use smartcrawl_store::format::{invalid_data as bad, read_varint, write_varint};
use smartcrawl_store::{PagedReader, PagedWriter, StoreError};
use std::path::Path;

/// Stream tag inside the paged file: distinguishes a query-cache store
/// from any other paged file in the workspace.
const TAG: &[u8] = b"#smartcrawl-query-cache v2\n";
/// On-disk page size for cache files.
const PAGE_SIZE: usize = 4096;

fn from_store(e: StoreError) -> std::io::Error {
    match e {
        StoreError::Io(e) => e,
        e @ StoreError::Corrupt { .. } => bad(&e.to_string()),
    }
}

fn get_count(buf: &[u8], pos: &mut usize, what: &str) -> std::io::Result<usize> {
    let n = read_varint(buf, pos).ok_or_else(|| bad(&format!("truncated {what}")))?;
    // A count can never exceed the bytes that remain to encode it.
    if n > buf.len().saturating_sub(*pos) as u64 {
        return Err(bad(&format!("implausible {what}")));
    }
    Ok(n as usize)
}

/// Writes the store to `path` (LRU-first entry order) as a paged,
/// checksummed store file.
pub fn save_cache(path: impl AsRef<Path>, cache: &QueryCache) -> std::io::Result<()> {
    let mut writer = PagedWriter::create(path.as_ref(), PAGE_SIZE).map_err(from_store)?;
    let capacity = writer.payload_capacity();
    let mut stream: Vec<u8> = Vec::with_capacity(capacity * 2);
    stream.extend_from_slice(TAG);
    write_varint(&mut stream, cache.len() as u64);
    let flush_full = |stream: &mut Vec<u8>, writer: &mut PagedWriter| -> std::io::Result<()> {
        while stream.len() >= capacity {
            let rest = stream.split_off(capacity);
            writer.append_page(stream).map_err(from_store)?;
            *stream = rest;
        }
        Ok(())
    };
    for (key, page) in cache.iter_lru() {
        write_cells(&mut stream, key);
        write_varint(&mut stream, page.records.len() as u64);
        for r in &page.records {
            write_record(&mut stream, r.external_id, &r.fields, &r.payload);
        }
        flush_full(&mut stream, &mut writer)?;
    }
    if !stream.is_empty() {
        writer.append_page(&stream).map_err(from_store)?;
    }
    writer.finish().map_err(from_store)
}

/// Reads a store previously written by [`save_cache`], applying `policy`
/// to the loaded entries: pages beyond `capacity` evict oldest-first, and
/// negative pages are dropped when `cache_negative` is off. Loading does
/// not touch the cache counters — the entries were already accounted for
/// by the run that created them. Truncated, foreign, or corrupt files are
/// rejected with `InvalidData` (the paged layer checksums every page and
/// writes its header last, so a torn save never half-loads).
pub fn load_cache(path: impl AsRef<Path>, policy: CachePolicy) -> std::io::Result<QueryCache> {
    let reader = PagedReader::open(path.as_ref()).map_err(from_store)?;
    let mut buf: Vec<u8> = Vec::new();
    let mut page = Vec::new();
    for p in 0..reader.num_pages() {
        reader.read_page(p, &mut page).map_err(from_store)?;
        buf.extend_from_slice(&page);
    }
    if buf.get(..TAG.len()) != Some(TAG) {
        return Err(bad("not a smartcrawl query-cache file"));
    }
    let mut pos = TAG.len();
    let declared = get_count(&buf, &mut pos, "entry count")?;
    let mut cache = QueryCache::new(policy);
    for _ in 0..declared {
        let key = read_cells(&buf, &mut pos).ok_or_else(|| bad("corrupt keywords"))?;
        let nrec = get_count(&buf, &mut pos, "record count")?;
        let mut records = Vec::with_capacity(nrec);
        for _ in 0..nrec {
            records.push(read_record(&buf, &mut pos).ok_or_else(|| bad("corrupt record"))?);
        }
        cache.insert_untallied(key, SearchPage { records });
    }
    if pos != buf.len() {
        return Err(bad("trailing bytes after final entry"));
    }
    cache.reset_stats();
    Ok(cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrawl_hidden::{ExternalId, Retrieved};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "smartcrawl_cache_persist_{}_{name}",
            std::process::id()
        ))
    }

    fn page(texts: &[&str]) -> SearchPage {
        SearchPage {
            records: texts
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    Retrieved::new(
                        ExternalId(i as u64 + 10),
                        vec![(*t).to_owned(), "tab\there".into()],
                        vec!["4.5".into()],
                    )
                })
                .collect(),
        }
    }

    fn sample_store() -> QueryCache {
        let mut c = QueryCache::default();
        c.insert(vec!["house".into(), "thai".into()], page(&["thai house"]));
        c.insert(vec!["back\\slash".into()], page(&["a", "b"]));
        c.insert(vec!["empty".into()], SearchPage::default());
        // Promote the first entry so LRU order is not insertion order.
        c.get(&["house".to_owned(), "thai".to_owned()]);
        c
    }

    #[test]
    fn round_trip_preserves_pages_and_lru_order() {
        let path = tmp("rt");
        let orig = sample_store();
        save_cache(&path, &orig).unwrap();
        let loaded = load_cache(&path, CachePolicy::default()).unwrap();
        assert_eq!(loaded.len(), orig.len());
        let o: Vec<_> = orig.iter_lru().collect();
        let l: Vec<_> = loaded.iter_lru().collect();
        assert_eq!(o, l, "pages and recency order must survive the disk");
        // Loading leaves the counters untouched.
        assert_eq!(loaded.stats(), smartcrawl_hidden::CacheStats::default());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trip_survives_page_straddling_entries() {
        // A page much larger than PAGE_SIZE forces the stream to straddle
        // several on-disk pages.
        let path = tmp("straddle");
        let mut c = QueryCache::default();
        let big: Vec<&str> = vec!["some business name with many words"; 200];
        c.insert(vec!["big".into()], page(&big));
        c.insert(vec!["small".into()], page(&["x"]));
        save_cache(&path, &c).unwrap();
        let loaded = load_cache(&path, CachePolicy::default()).unwrap();
        assert_eq!(
            loaded.iter_lru().collect::<Vec<_>>(),
            c.iter_lru().collect::<Vec<_>>()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn double_save_is_byte_identical() {
        let p1 = tmp("b1");
        let p2 = tmp("b2");
        let orig = sample_store();
        save_cache(&p1, &orig).unwrap();
        let loaded = load_cache(&p1, CachePolicy::default()).unwrap();
        save_cache(&p2, &loaded).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn rejects_foreign_and_corrupt_files() {
        let path = tmp("foreign");
        // Not a paged file at all.
        std::fs::write(&path, "name,city\nx,y\n").unwrap();
        assert!(load_cache(&path, CachePolicy::default()).is_err());
        // A valid paged file whose stream is not a query cache.
        let mut w = PagedWriter::create(&path, 64).unwrap();
        w.append_page(b"#smartcrawl-sample v1\n").unwrap();
        w.finish().unwrap();
        assert!(load_cache(&path, CachePolicy::default()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_torn_writes() {
        let path = tmp("torn");
        save_cache(&path, &sample_store()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Chop the tail off: the header (written last) still declares the
        // full page count, so open must fail cleanly.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let err = load_cache(&path, CachePolicy::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corrupt_entries() {
        let path = tmp("corrupt");
        // Declares one entry but carries none.
        let mut stream = TAG.to_vec();
        write_varint(&mut stream, 1);
        let mut w = PagedWriter::create(&path, 4096).unwrap();
        w.append_page(&stream).unwrap();
        w.finish().unwrap();
        assert!(load_cache(&path, CachePolicy::default()).is_err());
        // Trailing junk after the final entry.
        let mut stream = TAG.to_vec();
        write_varint(&mut stream, 0);
        stream.extend_from_slice(b"junk");
        let mut w = PagedWriter::create(&path, 4096).unwrap();
        w.append_page(&stream).unwrap();
        w.finish().unwrap();
        assert!(load_cache(&path, CachePolicy::default()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_count_larger_than_the_bytes_left_is_implausible() {
        // Near the end of a large buffer, a count below the buffer's
        // length but above the bytes after it fails before anything is
        // reserved for it.
        let at = 100_000;
        let mut buf = vec![0u8; at];
        write_varint(&mut buf, 50_000);
        buf.extend_from_slice(&[0; 8]);
        let mut pos = at;
        let err = get_count(&buf, &mut pos, "record count").unwrap_err();
        assert!(
            err.to_string().contains("implausible record count"),
            "{err}"
        );
        // As many as the bytes left (each record takes one or more) passes.
        buf.truncate(at);
        write_varint(&mut buf, 8);
        let counted = buf.len();
        buf.extend_from_slice(&[0; 8]);
        let mut pos = at;
        assert_eq!(get_count(&buf, &mut pos, "record count").unwrap(), 8);
        assert_eq!(pos, counted);
    }

    #[test]
    fn load_applies_the_given_policy() {
        let path = tmp("policy");
        save_cache(&path, &sample_store()).unwrap();
        let small = load_cache(
            &path,
            CachePolicy {
                capacity: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(small.len(), 2, "oldest entry evicted on load");
        let no_neg = load_cache(
            &path,
            CachePolicy {
                cache_negative: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(no_neg.len(), 2, "negative page dropped on load");
        assert!(no_neg.peek(&["empty".to_owned()]).is_none());
        std::fs::remove_file(&path).ok();
    }
}
