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
//! Entries are written least-recently-used first, so loading re-inserts
//! them in recency order and the store resumes with the exact LRU state it
//! was saved with.

use crate::store::{CachePolicy, QueryCache};
use smartcrawl_hidden::{ExternalId, Retrieved, SearchPage};
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

fn put_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> std::io::Result<String> {
    let len = usize::try_from(read_varint(buf, pos).ok_or_else(|| bad("truncated cell length"))?)
        .map_err(|_| bad("oversized cell length"))?;
    let end = pos
        .checked_add(len)
        .ok_or_else(|| bad("oversized cell length"))?;
    let bytes = buf.get(*pos..end).ok_or_else(|| bad("truncated cell"))?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| bad("cell is not UTF-8"))
}

fn get_count(buf: &[u8], pos: &mut usize, what: &str) -> std::io::Result<usize> {
    let n = read_varint(buf, pos).ok_or_else(|| bad(&format!("truncated {what}")))?;
    // A count can never exceed the bytes that remain to encode it.
    if n > buf.len() as u64 {
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
        write_varint(&mut stream, key.len() as u64);
        for kw in key {
            put_str(&mut stream, kw);
        }
        write_varint(&mut stream, page.records.len() as u64);
        for r in &page.records {
            write_varint(&mut stream, r.external_id.0);
            write_varint(&mut stream, r.fields.len() as u64);
            for cell in r.fields.iter() {
                put_str(&mut stream, cell);
            }
            write_varint(&mut stream, r.payload.len() as u64);
            for cell in r.payload.iter() {
                put_str(&mut stream, cell);
            }
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
        let nkw = get_count(&buf, &mut pos, "keyword count")?;
        let mut key = Vec::with_capacity(nkw);
        for _ in 0..nkw {
            key.push(get_str(&buf, &mut pos)?);
        }
        let nrec = get_count(&buf, &mut pos, "record count")?;
        let mut records = Vec::with_capacity(nrec);
        for _ in 0..nrec {
            let id = read_varint(&buf, &mut pos).ok_or_else(|| bad("truncated external id"))?;
            let nf = get_count(&buf, &mut pos, "field count")?;
            let mut texts = Vec::with_capacity(nf);
            for _ in 0..nf {
                texts.push(get_str(&buf, &mut pos)?);
            }
            let np = get_count(&buf, &mut pos, "payload count")?;
            let mut payload = Vec::with_capacity(np);
            for _ in 0..np {
                payload.push(get_str(&buf, &mut pos)?);
            }
            records.push(Retrieved::new(ExternalId(id), texts, payload));
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
