//! Shared on-disk format primitives: the page checksum, FNV-1a, LEB128
//! varints, and the escape/magic-line helpers of the workspace's
//! line-oriented text stores.
//!
//! This is the one format module: the paged binary layout ([`crate::file`])
//! builds on the checksum and varint helpers, and the query cache's text
//! persistence (`smartcrawl-cache`) re-exports the escape helpers from
//! here instead of keeping private copies — the first step toward the
//! shared cross-process store.

/// FNV-1a offset basis (the same fold the workspace's digests use).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// xxHash64's first prime: multiplies every lane after its rotation.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
/// xxHash64's second prime: multiplies every word before it enters a lane.
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// One lane round. For a fixed `word` it is a bijection of `lane`
/// (adding a constant, rotating and multiplying by an odd prime are all
/// invertible), and for a fixed `lane` a bijection of `word`.
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Word-parallel 64-bit checksum of one page payload.
///
/// Four lanes consume the payload's little-endian 8-byte words in
/// 32-byte blocks, one word per lane per block. The lanes are then
/// folded one at a time into a state seeded with the payload length,
/// and the tail of fewer than 32 bytes is folded in byte by byte. Every
/// step is a bijection of the running value for fixed input, so two
/// payloads of the same length that differ only inside one block word,
/// or only inside one tail byte, always get different checksums (every
/// single-bit flip among them). The rotation moves a top-bit difference
/// down, so unlike a one-lane word-wise FNV-1a a second top-bit flip in
/// the same lane cannot cancel the first. This guards against torn and
/// rotted pages; it is not a cryptographic hash.
pub fn page_checksum(bytes: &[u8]) -> u64 {
    // xxHash64's lane seeds for seed 0.
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = round(*lane, le_word(word));
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P2);
    }
    for &b in blocks.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P2))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h
}

/// An 8-byte chunk as a little-endian word.
fn le_word(chunk: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(chunk);
    u64::from_le_bytes(word)
}

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = more).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf` at `*pos`, advancing `*pos` past it.
/// Returns `None` on truncation or a varint wider than 64 bits.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return None; // would overflow u64
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Backslash-escapes tabs, newlines, and backslashes so a cell can live
/// on one line of a tab-separated text store.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a dangling or unknown escape.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '\\' => out.push('\\'),
                't' => out.push('\t'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// An `InvalidData` I/O error with the given message — the rejection
/// shape every text store in the workspace uses for foreign or corrupt
/// files.
pub fn invalid_data(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_representative_values() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(read_varint(&[], &mut pos), None);
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0x80], &mut pos),
            None,
            "dangling continuation bit"
        );
        // 10 continuation bytes push past 64 bits.
        let mut pos = 0;
        assert_eq!(read_varint(&[0xff; 11], &mut pos), None);
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "tab\tnl\ncr\rback\\slash", "\\t literal"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape("bad\\x"), None);
        assert_eq!(unescape("dangling\\"), None);
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// The page checksum is part of the v2 file format: pages written by
    /// one build must verify under every other.
    #[test]
    fn page_checksum_matches_known_vectors() {
        let ramp: Vec<u8> = (0..=255u8).cycle().take(4084).collect();
        assert_eq!(page_checksum(b""), 0x39c4_44c6_02c3_0f19);
        assert_eq!(page_checksum(b"a"), 0xf99b_c2a1_9c8c_8b3c);
        assert_eq!(page_checksum(&ramp[..32]), 0x5734_6ff6_c1ff_e484);
        assert_eq!(page_checksum(&ramp), 0x7dcd_540c_2b11_3c4c);
    }
}
