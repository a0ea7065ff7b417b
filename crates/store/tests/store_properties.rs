//! Property tests of the storage substrate: codec round-trips over
//! arbitrary ascending id sets, cursor-vs-linear equivalence, blob runs
//! straddling tiny pages under a tiny cache, and — the recovery
//! contract — truncated or bit-flipped files surfacing as clean
//! `StoreError`s, never panics. The page checksum is also checked at
//! full page size, where its word lanes (not just its byte-wise tail)
//! carry the payload.

use proptest::collection::{btree_set, vec};
use proptest::prelude::*;
use smartcrawl_store::file::HEADER_SPAN;
use smartcrawl_store::format::{fnv1a, page_checksum, FNV_PRIME};
use smartcrawl_store::postings::{decode_postings_into, encode_postings, PostingCursor};
use smartcrawl_store::{BlobReader, BlobWriter, PagedReader, PagedWriter, SharedStats, StoreError};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "smartcrawl_store_prop_{}_{name}_{case}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encode → decode is the identity on any ascending id set, with any
    /// skip-interval crossing the set size happens to produce.
    #[test]
    fn posting_codec_round_trips(ids in btree_set(0u32..5_000, 0..600)) {
        let ids: Vec<u32> = ids.into_iter().collect();
        let mut buf = Vec::new();
        encode_postings(&ids, &mut buf);
        let mut out = Vec::new();
        prop_assert_eq!(decode_postings_into(&buf, &mut out), Some(ids.len()));
        prop_assert_eq!(out, ids);
    }

    /// A skip-jumping cursor visits exactly the elements a linear scan
    /// finds, for any ascending target sequence.
    #[test]
    fn cursor_agrees_with_linear_scan(
        ids in btree_set(0u32..10_000, 1..500),
        raw_targets in vec(0u32..11_000, 1..200),
    ) {
        let ids: Vec<u32> = ids.into_iter().collect();
        let mut targets = raw_targets;
        targets.sort_unstable();
        let mut buf = Vec::new();
        encode_postings(&ids, &mut buf);
        let mut cursor = PostingCursor::new(&buf).expect("header parses");
        for &t in &targets {
            let expect = ids.iter().copied().find(|&id| id >= t);
            prop_assert_eq!(cursor.advance_to(t), expect, "target {}", t);
        }
    }

    /// Blob runs write/read back byte-identically across page boundaries,
    /// with a cache far smaller than the file.
    #[test]
    fn blob_runs_round_trip_across_pages(
        case in 0u64..1_000_000,
        runs in vec(vec(0u8..=255, 0..120), 1..40),
    ) {
        let path = tmp("blob", case);
        // 32-byte pages → 20-byte payloads: most runs straddle pages.
        let mut w = BlobWriter::create(&path, 32).expect("create");
        let locs: Vec<_> = runs.iter().map(|r| w.append(r).expect("append")).collect();
        w.finish().expect("finish");
        let mut r = BlobReader::open(&path, 3, Arc::new(SharedStats::default())).expect("open");
        let mut out = Vec::new();
        // Forward then backward: the backward pass defeats any residual
        // cache warmth from the forward pass.
        for (loc, run) in locs.iter().zip(&runs).chain(locs.iter().zip(&runs).rev()) {
            r.read(*loc, &mut out).expect("read");
            prop_assert_eq!(&out, run);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Any truncation of a finished file is either rejected at open or at
    /// the first page read — never a panic, never silent bad data.
    #[test]
    fn truncation_is_a_clean_error(
        case in 0u64..1_000_000,
        pages in 1usize..6,
        cut in 1usize..200,
    ) {
        let path = tmp("trunc", case);
        let mut w = PagedWriter::create(&path, 64).expect("create");
        for i in 0..pages {
            w.append_page(&[i as u8; 20]).expect("append");
        }
        w.finish().expect("finish");
        let full = std::fs::read(&path).expect("read file");
        let keep = full.len().saturating_sub(cut % full.len());
        std::fs::write(&path, &full[..keep]).expect("truncate");
        match PagedReader::open(&path) {
            Err(StoreError::Corrupt { .. } | StoreError::Io(_)) => {}
            Ok(mut reader) => {
                // Open may succeed if the header survived; the torn page
                // itself must then fail its read.
                let mut out = Vec::new();
                let mut failures = 0;
                for p in 0..reader.num_pages() {
                    if reader.read_page(p, &mut out).is_err() {
                        failures += 1;
                    }
                }
                prop_assert!(failures > 0, "truncated file read back clean");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A single flipped bit anywhere in the file is caught by the header
    /// or page checksum — reads that reach the flipped byte error out.
    #[test]
    fn bit_rot_is_detected(
        case in 0u64..1_000_000,
        victim in 0usize..300,
        bit in 0u8..8,
    ) {
        let path = tmp("rot", case);
        let mut w = PagedWriter::create(&path, 64).expect("create");
        for i in 0..4u8 {
            w.append_page(&[i; 20]).expect("append");
        }
        w.finish().expect("finish");
        let mut bytes = std::fs::read(&path).expect("read file");
        let idx = victim % bytes.len();
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("rewrite");
        match PagedReader::open(&path) {
            Err(_) => {} // header rejected the flip
            Ok(mut reader) => {
                let mut out = Vec::new();
                let mut clean = Vec::new();
                for p in 0..reader.num_pages() {
                    match reader.read_page(p, &mut out) {
                        Ok(()) => clean.push((p, out.clone())),
                        Err(StoreError::Corrupt { .. }) => {}
                        Err(e) => panic!("unexpected error kind: {e}"),
                    }
                }
                // Pages that still read clean must be the untouched ones.
                for (p, payload) in clean {
                    prop_assert_eq!(payload, vec![p as u8; 20], "flipped page read back clean");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Page size of the full-page checksum tests, and the payload that
/// fills such a page exactly.
const FULL_PAGE: usize = 4096;
const FULL_PAYLOAD: usize = 4084;

/// A full-page payload of distinct pseudo-random 8-byte words (plus a
/// 4-byte tail), so swapping any two words changes the bytes.
fn full_payload() -> Vec<u8> {
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut bytes = Vec::with_capacity(FULL_PAYLOAD + 8);
    while bytes.len() < FULL_PAYLOAD {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        bytes.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    bytes.truncate(FULL_PAYLOAD);
    bytes
}

/// Byte offsets of the payload's whole 8-byte words.
fn word_starts() -> impl Iterator<Item = usize> + Clone {
    (0..FULL_PAYLOAD / 8).map(|w| w * 8)
}

#[test]
fn every_bit_flip_in_a_full_page_reads_back_corrupt() {
    let path = tmp("fullpage", 0);
    let payload = full_payload();
    let mut w = PagedWriter::create(&path, FULL_PAGE).expect("create");
    assert_eq!(w.payload_capacity(), FULL_PAYLOAD);
    w.append_page(&payload).expect("append");
    w.finish().expect("finish");
    let clean = std::fs::read(&path).expect("read file");
    assert_eq!(clean.len(), HEADER_SPAN + FULL_PAGE);
    let mut out = Vec::new();
    PagedReader::open(&path)
        .expect("open")
        .read_page(0, &mut out)
        .expect("clean read");
    assert_eq!(out, payload);
    // Every bit of the page: its length and checksum fields and every
    // payload byte (the payload fills the page, so there is no padding).
    let mut bytes = clean.clone();
    for idx in HEADER_SPAN..clean.len() {
        for bit in 0..8 {
            bytes[idx] ^= 1 << bit;
            std::fs::write(&path, &bytes).expect("rewrite");
            let mut reader = PagedReader::open(&path).expect("header untouched");
            let res = reader.read_page(0, &mut out);
            assert!(
                matches!(res, Err(StoreError::Corrupt { .. })),
                "flip of bit {bit} in page byte {} read back as {res:?}",
                idx - HEADER_SPAN
            );
            bytes[idx] ^= 1 << bit;
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn swapping_any_two_words_changes_the_page_checksum() {
    let payload = full_payload();
    let base = page_checksum(&payload);
    let mut swapped = payload.clone();
    for i in word_starts() {
        for j in word_starts().filter(|&j| j > i) {
            assert_ne!(
                payload[i..i + 8],
                payload[j..j + 8],
                "words {i} and {j} are equal"
            );
            for k in 0..8 {
                swapped.swap(i + k, j + k);
            }
            assert_ne!(
                page_checksum(&swapped),
                base,
                "swap of the words at {i} and {j}"
            );
            for k in 0..8 {
                swapped.swap(i + k, j + k);
            }
        }
    }
}

#[test]
fn flipping_the_top_bits_of_any_two_words_changes_the_page_checksum() {
    // A one-lane word-wise FNV-1a misses this: multiplication never
    // carries a top-bit difference down, so the second flip cancels the
    // first. Shown on the first two words, so the check below can tell.
    let wordwise_fnv = |bytes: &[u8]| {
        bytes.chunks(8).fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
            let mut word = [0u8; 8];
            word[..w.len()].copy_from_slice(w);
            (h ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME)
        })
    };
    let payload = full_payload();
    let mut flipped = payload.clone();
    flipped[7] ^= 0x80;
    flipped[15] ^= 0x80;
    assert_eq!(wordwise_fnv(&flipped), wordwise_fnv(&payload));

    let base = page_checksum(&payload);
    let mut flipped = payload.clone();
    for i in word_starts() {
        for j in word_starts().filter(|&j| j > i) {
            flipped[i + 7] ^= 0x80;
            flipped[j + 7] ^= 0x80;
            assert_ne!(
                page_checksum(&flipped),
                base,
                "top bits of the words at {i} and {j}"
            );
            flipped[i + 7] ^= 0x80;
            flipped[j + 7] ^= 0x80;
        }
    }
}

#[test]
fn a_valid_v1_file_fails_open_as_corrupt() {
    // A paged file as the v1 format wrote it: its magic, a header
    // checksummed with FNV-1a, and one page whose payload is summed with
    // FNV-1a too.
    let path = tmp("v1", 0);
    let page_size = 64usize;
    let mut bytes = b"#smartcrawl-pages v1\n".to_vec();
    bytes.extend_from_slice(&(page_size as u32).to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes());
    let header_sum = fnv1a(&bytes);
    bytes.extend_from_slice(&header_sum.to_le_bytes());
    bytes.resize(HEADER_SPAN, 0);
    let payload = b"a v1 payload";
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes.resize(HEADER_SPAN + page_size, 0);
    std::fs::write(&path, &bytes).expect("write v1 file");
    let res = PagedReader::open(&path);
    assert!(
        matches!(res, Err(StoreError::Corrupt { .. })),
        "v1 file opened: {res:?}"
    );
    std::fs::remove_file(&path).ok();
}
