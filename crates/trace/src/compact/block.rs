//! Block framing primitives: the per-block header, the index footer
//! entry, CRC32, and the LEB128/zigzag integer codecs every column of
//! the v2 payload is built from.

use crate::error::TraceError;

/// Fixed encoded size of a [`BlockHeader`] on disk.
pub const BLOCK_HEADER_LEN: usize = 4 + 4 + 4 + 8 + 8 + 4 + 4 + 4;

/// Fixed encoded size of one [`BlockIndexEntry`] in the footer.
pub const INDEX_ENTRY_LEN: usize = 8 + 4 + 8;

/// The per-block header: everything a decoder needs to frame, verify
/// and skip the block without touching the payload columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Records encoded in this block (always ≥ 1).
    pub record_count: u32,
    /// Size of the records in the fixed-width v1 codec — the
    /// "uncompressed" length compression ratios are computed against.
    pub raw_len: u32,
    /// Byte length of the encoded payload following this header.
    pub encoded_len: u32,
    /// Wall clock of the block's first record, microseconds.
    pub first_clock: u64,
    /// Wall clock of the block's last record, microseconds.
    pub last_clock: u64,
    /// Smallest file id any record in the block references.
    pub min_file: u32,
    /// Largest file id any record in the block references.
    pub max_file: u32,
    /// CRC32 (IEEE) of the payload bytes.
    pub crc32: u32,
}

impl BlockHeader {
    /// Serializes the header (little-endian, fixed width).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.record_count.to_le_bytes());
        out.extend_from_slice(&self.raw_len.to_le_bytes());
        out.extend_from_slice(&self.encoded_len.to_le_bytes());
        out.extend_from_slice(&self.first_clock.to_le_bytes());
        out.extend_from_slice(&self.last_clock.to_le_bytes());
        out.extend_from_slice(&self.min_file.to_le_bytes());
        out.extend_from_slice(&self.max_file.to_le_bytes());
        out.extend_from_slice(&self.crc32.to_le_bytes());
    }

    /// Deserializes a header from `data` (which must hold at least
    /// [`BLOCK_HEADER_LEN`] bytes — the caller frames it).
    pub fn decode(data: &[u8]) -> Result<BlockHeader, TraceError> {
        if data.len() < BLOCK_HEADER_LEN {
            return Err(TraceError::Truncated { context: "block header" });
        }
        let u32_at =
            |i: usize| u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
        let u64_at = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&data[i..i + 8]);
            u64::from_le_bytes(b)
        };
        Ok(BlockHeader {
            record_count: u32_at(0),
            raw_len: u32_at(4),
            encoded_len: u32_at(8),
            first_clock: u64_at(12),
            last_clock: u64_at(20),
            min_file: u32_at(28),
            max_file: u32_at(32),
            crc32: u32_at(36),
        })
    }
}

/// One footer entry: where a block lives and what it covers — the
/// handle seek-to-block resolves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockIndexEntry {
    /// Byte offset of the block's tag byte from the start of the file.
    pub offset: u64,
    /// Records the block encodes.
    pub record_count: u32,
    /// Wall clock of the block's first record, microseconds.
    pub first_clock: u64,
}

impl BlockIndexEntry {
    /// Serializes the entry (little-endian, fixed width).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.record_count.to_le_bytes());
        out.extend_from_slice(&self.first_clock.to_le_bytes());
    }

    /// Deserializes an entry from `data` (at least [`INDEX_ENTRY_LEN`]
    /// bytes).
    pub fn decode(data: &[u8]) -> Result<BlockIndexEntry, TraceError> {
        if data.len() < INDEX_ENTRY_LEN {
            return Err(TraceError::Truncated { context: "block index entry" });
        }
        let mut off = [0u8; 8];
        off.copy_from_slice(&data[0..8]);
        let mut fc = [0u8; 8];
        fc.copy_from_slice(&data[12..20]);
        Ok(BlockIndexEntry {
            offset: u64::from_le_bytes(off),
            record_count: u32::from_le_bytes([data[8], data[9], data[10], data[11]]),
            first_clock: u64::from_le_bytes(fc),
        })
    }
}

/// The CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup
/// tables for slicing-by-8, built once at compile time: `[0]` is the
/// classic byte-at-a-time table, `[k][b]` the CRC of byte `b` followed
/// by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut c = tables[0][i];
        let mut k = 1;
        while k < 8 {
            c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            tables[k][i] = c;
            k += 1;
        }
        i += 1;
    }
    tables
};

/// One byte-at-a-time CRC step (the tail of [`crc32`], and the whole
/// of the reference implementation the tests hold it against).
fn crc32_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC32 (IEEE) of `data` — the checksum each block header stores over
/// its payload. Slicing-by-8: eight independent table lookups per
/// 8-byte word instead of a dependent chain of eight.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = crc32_step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends `v` as an unsigned LEB128 varint (7 payload bits per byte,
/// high bit = continuation).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads an unsigned LEB128 varint from `data` at `*pos`, advancing it.
///
/// Rejects truncation and non-canonical encodings longer than ten
/// bytes with the caller's block number in the error. Most column
/// values of a real trace fit seven bits, so the one-byte case is
/// decided inline and everything else goes to the general loop.
#[inline]
pub fn get_varint(data: &[u8], pos: &mut usize, block: u64) -> Result<u64, TraceError> {
    match data.get(*pos) {
        Some(&b) if b < 0x80 => {
            *pos += 1;
            Ok(u64::from(b))
        }
        _ => get_varint_long(data, pos, block),
    }
}

/// The general varint loop: any length, and every rejection.
fn get_varint_long(data: &[u8], pos: &mut usize, block: u64) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data
            .get(*pos)
            .ok_or(TraceError::CorruptBlock { block, context: "varint ran past the payload" })?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(TraceError::CorruptBlock { block, context: "varint overflows u64" });
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::CorruptBlock { block, context: "varint longer than 10 bytes" });
        }
    }
}

/// Zigzag-maps a signed delta to an unsigned varint payload (small
/// magnitudes of either sign stay small).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The wrapping delta that takes `prev` to `next` (any `u64` pair
/// round-trips: `prev.wrapping_add(delta as u64) == next`).
pub fn delta64(prev: u64, next: u64) -> i64 {
    next.wrapping_sub(prev) as i64
}

/// Applies a [`delta64`].
pub fn apply_delta64(prev: u64, delta: i64) -> u64 {
    prev.wrapping_add(delta as u64)
}

/// 32-bit counterpart of [`delta64`].
pub fn delta32(prev: u32, next: u32) -> i32 {
    next.wrapping_sub(prev) as i32
}

/// Applies a [`delta32`].
pub fn apply_delta32(prev: u32, delta: i32) -> u32 {
    prev.wrapping_add(delta as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC32 the format was defined with: the
    /// reference the sliced implementation must equal on every input.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        data.iter().fold(0xFFFF_FFFF, |c, &b| crc32_step(c, b)) ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value, and two more from the zlib
        // documentation's family — the bytes on disk depend on these.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn sliced_crc32_equals_bytewise_on_every_short_length() {
        // Lengths 0..=64 cover every remainder of the 8-byte stride
        // several times over, at every alignment of the tail loop.
        let data: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8).collect();
        for len in 0..=data.len() {
            for start in 0..=(data.len() - len).min(8) {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "start {start} len {len}");
            }
        }
    }

    /// Every canonical encoding length (1-10 bytes) plus the rejections:
    /// the inline one-byte path and the general loop must agree on the
    /// value, the cursor and the error.
    #[test]
    fn varint_fast_path_agrees_with_the_loop() {
        let mut inputs: Vec<Vec<u8>> = Vec::new();
        for bytes in 1..=10u32 {
            // Smallest and largest value of each encoded length, and
            // the same followed by another column's bytes.
            let lo = if bytes == 1 { 0 } else { 1u64 << (7 * (bytes - 1)) };
            let hi = if bytes == 10 { u64::MAX } else { (1u64 << (7 * bytes)) - 1 };
            for v in [lo, hi, lo | 0x55, hi & !0x2A] {
                let mut out = Vec::new();
                put_varint(&mut out, v);
                assert_eq!(out.len(), bytes as usize, "varint({v:#x})");
                inputs.push(out.clone());
                out.extend_from_slice(&[0x7F, 0x80]);
                inputs.push(out);
            }
        }
        // Rejections: empty, cut mid-value, a tenth byte over 1, eleven
        // continuation bytes; and an over-long (padded) encoding of 0,
        // which both paths accept alike.
        inputs.push(vec![]);
        inputs.push(vec![0x80]);
        inputs.push(vec![0xFF, 0xFF]);
        inputs.push([vec![0xFF; 9], vec![0x02]].concat());
        inputs.push(vec![0x80; 11]);
        inputs.push(vec![0x80, 0x00]);
        inputs.push(vec![0x80, 0x80, 0x00, 0x01]);
        for input in &inputs {
            let (mut fast_pos, mut loop_pos) = (0, 0);
            let fast = get_varint(input, &mut fast_pos, 3);
            let slow = get_varint_long(input, &mut loop_pos, 3);
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{input:02x?}");
            assert_eq!(fast_pos, loop_pos, "{input:02x?}");
        }
        assert!(get_varint(&[], &mut 0, 0).is_err());
        assert!(get_varint(&[0x80; 11], &mut 0, 0).is_err());
    }

    #[test]
    fn block_header_round_trips() {
        let h = BlockHeader {
            record_count: 4096,
            raw_len: 4096 * 45,
            encoded_len: 31872,
            first_clock: 10,
            last_clock: 40960,
            min_file: 0,
            max_file: 7,
            crc32: 0xDEAD_BEEF,
        };
        let mut out = Vec::new();
        h.encode(&mut out);
        assert_eq!(out.len(), BLOCK_HEADER_LEN);
        assert_eq!(BlockHeader::decode(&out).unwrap(), h);
        assert!(BlockHeader::decode(&out[..BLOCK_HEADER_LEN - 1]).is_err());
    }

    #[test]
    fn index_entry_round_trips() {
        let e = BlockIndexEntry { offset: 123456, record_count: 4096, first_clock: 987654 };
        let mut out = Vec::new();
        e.encode(&mut out);
        assert_eq!(out.len(), INDEX_ENTRY_LEN);
        assert_eq!(BlockIndexEntry::decode(&out).unwrap(), e);
        assert!(BlockIndexEntry::decode(&out[..5]).is_err());
    }

    #[test]
    fn varint_sizes_are_compact() {
        for (v, len) in [(0u64, 1usize), (127, 1), (128, 2), (16383, 2), (16384, 3)] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out.len(), len, "varint({v})");
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert!(matches!(
            get_varint(&[0x80, 0x80], &mut pos, 7),
            Err(TraceError::CorruptBlock { block: 7, .. })
        ));
        // Eleven continuation bytes can never be a canonical u64.
        let mut pos = 0;
        assert!(get_varint(&[0x80; 11], &mut pos, 0).is_err());
        // A tenth byte above 1 overflows the 64th bit.
        let mut bytes = vec![0xFF; 9];
        bytes.push(0x02);
        let mut pos = 0;
        assert!(get_varint(&bytes, &mut pos, 0).is_err());
    }

    proptest! {
        #[test]
        fn sliced_crc32_equals_bytewise_on_long_inputs(
            data in proptest::collection::vec(any::<u8>(), 65..4096),
            skip in 0usize..8,
        ) {
            let slice = &data[skip..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }

        #[test]
        fn varint_round_trips(v in any::<u64>()) {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            prop_assert_eq!(get_varint(&out, &mut pos, 0).unwrap(), v);
            prop_assert_eq!(pos, out.len());
        }

        #[test]
        fn zigzag_round_trips(v in any::<i64>()) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }

        #[test]
        fn deltas_round_trip_any_pair(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(apply_delta64(a, delta64(a, b)), b);
            let (a32, b32) = (a as u32, b as u32);
            prop_assert_eq!(apply_delta32(a32, delta32(a32, b32)), b32);
        }

        #[test]
        fn small_deltas_encode_in_one_byte(d in -63i64..=63) {
            let mut out = Vec::new();
            put_varint(&mut out, zigzag(d));
            prop_assert_eq!(out.len(), 1);
        }
    }
}
