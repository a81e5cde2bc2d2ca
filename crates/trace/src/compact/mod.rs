//! # The v2 compact trace format
//!
//! A block-framed, delta/varint-encoded container for I/O traces —
//! the ingest-side counterpart of the fixed-width v1 codec in
//! [`crate::codec`]. Where v1 spends [`TraceRecord::ENCODED_LEN`]
//! bytes on every record, v2 exploits what traces actually look like
//! (monotone clocks, few processes, streaming offsets) and typically
//! lands under a quarter of the v1 size, while decoding as a streaming
//! [`TraceSource`] in O(block) memory with every block CRC-checked and
//! bounds-checked before a single record is replayed.
//!
//! ## Container layout
//!
//! ```text
//! "CLC2"  u16 version=2  <embedded TraceHeader, v1 field layout>
//! ┌ 0xB1  BlockHeader  payload ┐  … repeated per block …
//! 0xF1  u32 block_count  <BlockIndexEntry …>  u64 index_offset  "2CLC"
//! ```
//!
//! Each block holds up to a target number of records (default
//! [`DEFAULT_BLOCK_RECORDS`]) and is fully self-contained: all delta
//! and prediction state resets at the block boundary, so the index
//! footer supports seeking straight to any block. The per-block header
//! ([`block::BlockHeader`]) carries the record count, the raw (v1) and
//! encoded byte lengths, first/last wall clock, the min/max file id,
//! and a CRC32 of the payload.
//!
//! ## Payload columns
//!
//! Within a block the record fields are stored as columns, in order:
//! op tags packed two nibbles per byte; a pid dictionary (first-
//! appearance order) followed by per-record dictionary indices (omitted
//! when the block has a single pid); file-id zigzag deltas; wall-clock
//! zigzag deltas; process-clock zigzag deltas; repeat counts as raw
//! varints; length zigzag deltas; and offsets as zigzag deltas against
//! a per-`(pid, file)` stream position (`previous offset + length` for
//! that stream — sequential I/O encodes as a column of zeros). All
//! varints are unsigned LEB128; all deltas are wrapping, so any `u64`
//! pair round-trips exactly.
//!
//! ## Trust boundary
//!
//! One block walker ([`decode`]) frames, checksums and structurally
//! decodes a container strictly front to back, and every reader is that
//! walker under a different driver. [`CompactSource::from_bytes`] is
//! admission-on-ingest: it drains the walker over the whole untrusted
//! buffer — every block's CRC and full structural decode, then the
//! footer cross-check — and only then streams records, so nothing from
//! a container with a fault *anywhere* reaches a replay engine.
//! [`CompactStream`] admits one block at a time while it streams, in
//! O(block) memory from any reader: a block's records are still handed
//! out only after its own CRC and decode passed, but a fault further on
//! surfaces later, through
//! [`TraceSource::take_failure`],
//! and whoever consumed the stream must then discard the result.
//! Either way a rejection is a coded [`TraceError`] naming the block
//! that broke; the rule table is `docs/trace-verifier-rules.md`.
//!
//! [`TraceRecord::ENCODED_LEN`]: crate::record::TraceRecord::ENCODED_LEN
//! [`TraceSource`]: crate::source::TraceSource
//! [`CompactSource::from_bytes`]: decode::CompactSource::from_bytes

pub mod block;
pub mod decode;
pub mod encode;

pub use block::{BlockHeader, BlockIndexEntry};
pub use decode::{decode_trace, CompactSource, CompactStream};
pub use encode::{encode_source, encode_trace, write_compact, CompactWriter};

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

use crate::error::TraceError;
use crate::reader::TraceFile;
use crate::source::TraceSource;

/// The v2 container magic, first four bytes of every compact file.
pub const COMPACT_MAGIC: [u8; 4] = *b"CLC2";

/// The format version this module reads and writes.
pub const COMPACT_VERSION: u16 = 2;

/// Section tag introducing a record block.
pub const BLOCK_TAG: u8 = 0xB1;

/// Section tag introducing the index footer.
pub const INDEX_TAG: u8 = 0xF1;

/// The container's last four bytes (the magic mirrored), so truncation
/// is detectable from the tail alone.
pub const END_MAGIC: [u8; 4] = *b"2CLC";

/// Default target records per block: large enough to amortize the
/// 40-byte block header and give the delta columns room, small enough
/// that O(block) decode memory stays trivial.
pub const DEFAULT_BLOCK_RECORDS: usize = 4096;

/// Whether `data` begins with the v2 magic (cheap format sniffing —
/// does not validate anything beyond the first four bytes).
pub fn is_compact(data: &[u8]) -> bool {
    data.len() >= COMPACT_MAGIC.len() && data[..COMPACT_MAGIC.len()] == COMPACT_MAGIC
}

/// Loads a trace from `path` in either format, sniffing v1 vs v2 by
/// magic, into an in-memory [`TraceFile`].
pub fn load_auto(path: impl AsRef<Path>) -> Result<TraceFile, TraceError> {
    let data = std::fs::read(path)?;
    if is_compact(&data) {
        decode_trace(data)
    } else {
        TraceFile::from_bytes(&data)
    }
}

/// Opens a trace at `path` in either format as a streaming
/// [`TraceSource`]: a verified [`CompactSource`] for v2, a materialized
/// v1 file wrapped in a [`SharedSource`](crate::source::SharedSource)
/// otherwise. Whatever this returns has been admitted whole.
pub fn open_path(path: impl AsRef<Path>) -> Result<Box<dyn TraceSource>, TraceError> {
    let data = std::fs::read(path)?;
    if is_compact(&data) {
        Ok(Box::new(CompactSource::from_bytes(data)?))
    } else {
        open_v1(&data)
    }
}

/// [`open_path`] without the whole-file pass: a v2 file comes back as a
/// [`CompactStream`] over a buffered reader — O(block) memory, each
/// block admitted as the stream reaches it — so a fault past the
/// prelude is reported through
/// [`TraceSource::take_failure`] after the records before it were
/// handed out. For consumers that can drop their result on a late
/// failure; a v1 file is loaded and admitted whole, as by [`open_path`].
pub fn open_path_lazy(path: impl AsRef<Path>) -> Result<Box<dyn TraceSource>, TraceError> {
    let mut reader = BufReader::new(File::open(path)?);
    if is_compact(reader.fill_buf()?) {
        Ok(Box::new(CompactStream::open(reader)?))
    } else {
        let mut data = Vec::new();
        reader.read_to_end(&mut data)?;
        open_v1(&data)
    }
}

/// A v1 buffer as an admitted in-memory source.
fn open_v1(data: &[u8]) -> Result<Box<dyn TraceSource>, TraceError> {
    let trace = TraceFile::from_bytes(data)?;
    Ok(Box::new(crate::source::SharedSource::new(std::sync::Arc::new(trace))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, TraceProfile};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("clio-compact-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sniffs_magics() {
        assert!(is_compact(b"CLC2whatever"));
        assert!(!is_compact(b"CLIO"));
        assert!(!is_compact(b"CL"));
        assert!(!is_compact(b""));
    }

    #[test]
    fn load_auto_reads_both_formats() {
        let t = synthesize(&TraceProfile { data_ops: 64, ..Default::default() });
        let dir = temp_dir("load");

        let v1 = dir.join("t.clio");
        std::fs::write(&v1, t.to_bytes()).unwrap();
        assert_eq!(load_auto(&v1).unwrap().records, t.records);

        let v2 = dir.join("t.clc2");
        std::fs::write(&v2, encode_trace(&t).unwrap()).unwrap();
        assert_eq!(load_auto(&v2).unwrap().records, t.records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_path_streams_both_formats() {
        let t = synthesize(&TraceProfile { data_ops: 64, ..Default::default() });
        let dir = temp_dir("open");
        for (name, bytes) in [("t.clio", t.to_bytes()), ("t.clc2", encode_trace(&t).unwrap())] {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let mut src = open_path(&path).unwrap();
            assert_eq!(src.meta().num_files, t.header.num_files);
            let mut got = Vec::new();
            while let Some(r) = src.next_record() {
                got.push(r);
            }
            assert_eq!(got, t.records, "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
