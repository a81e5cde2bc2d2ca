//! The v2 decoder: one block walker, two sources over it.
//!
//! `BlockWalker` is the only code that knows how a v2 container is
//! framed. It reads any [`Read`] strictly front to back, one section at
//! a time — tag, 40-byte block header, payload (into a reused buffer),
//! CRC32, full structural decode — remembers the 20-byte index entry of
//! every block it admitted, and when it reaches the footer cross-checks
//! it against what it walked: record total, block count, every entry,
//! the self-offset, the end magic, no trailing bytes. Memory is one
//! block plus the index, however long the file.
//!
//! Two sources drive it:
//!
//! - [`CompactStream`] admits **lazily**: a block is verified when the
//!   replay reaches it, and a fault ends the stream and is parked for
//!   [`TraceSource::take_failure`]. This is what a one-pass ingest
//!   reads a file through; the caller must ask for the failure before
//!   trusting what it computed from the records.
//! - [`CompactSource`] admits **eagerly**: [`CompactSource::from_bytes`]
//!   drains the walker over the whole buffer and keeps the index, so
//!   nothing is handed out from a container that has a fault anywhere,
//!   the [`TraceSource::size_hint`] is exact, and the stream can be
//!   [re-opened](CompactSource::reopened) or
//!   [repositioned](CompactSource::seek_to_block). Streaming then walks
//!   the same bytes again, one block in memory at a time.
//!
//! The coded rules both enforce, and the pass each runs in, are listed
//! in `docs/trace-verifier-rules.md`.

use std::collections::HashMap;
use std::io::{self, Cursor, Read};
use std::sync::Arc;

use crate::error::TraceError;
use crate::header::TraceHeader;
use crate::reader::TraceFile;
use crate::record::{IoOp, TraceRecord};
use crate::source::{SourceMeta, TraceSource};

use super::block::{
    apply_delta32, apply_delta64, crc32, get_varint, unzigzag, BlockHeader, BlockIndexEntry,
    BLOCK_HEADER_LEN, INDEX_ENTRY_LEN,
};
use super::{BLOCK_TAG, COMPACT_MAGIC, COMPACT_VERSION, END_MAGIC, INDEX_TAG};

/// `read_exact`, with a premature end of input reported as the coded
/// truncation of whatever was being read.
fn read_or_truncated<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), TraceError> {
    reader.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => TraceError::Truncated { context },
        _ => TraceError::Io(e),
    })
}

fn u32_at(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]])
}

fn u64_at(data: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[i..i + 8]);
    u64::from_le_bytes(b)
}

/// Reads the container prelude (magic, version, embedded header),
/// returning the header and the prelude's length — the offset of the
/// first section tag.
fn read_prelude<R: Read>(reader: &mut R) -> Result<(TraceHeader, u64), TraceError> {
    let mut magic = [0u8; 4];
    read_or_truncated(reader, &mut magic, "magic")?;
    if magic != COMPACT_MAGIC {
        return Err(TraceError::BadMagic(magic));
    }
    let mut version = [0u8; 2];
    read_or_truncated(reader, &mut version, "version")?;
    let version = u16::from_le_bytes(version);
    if version != COMPACT_VERSION {
        return Err(TraceError::BadVersion(version));
    }
    let mut fields = [0u8; 4 + 4 + 8 + 8 + 2];
    read_or_truncated(reader, &mut fields, "header fields")?;
    let name_len = u16::from_le_bytes([fields[24], fields[25]]);
    let mut name = vec![0u8; usize::from(name_len)];
    read_or_truncated(reader, &mut name, "sample file name")?;
    let sample_file = String::from_utf8(name)
        .map_err(|_| TraceError::BadHeader("sample file name is not UTF-8".into()))?;
    let header = TraceHeader {
        num_processes: u32_at(&fields, 0),
        num_files: u32_at(&fields, 4),
        num_records: u64_at(&fields, 8),
        records_offset: u64_at(&fields, 16),
        sample_file,
    };
    header.validate()?;
    Ok((header, 32 + u64::from(name_len)))
}

/// What a replay engine needs of the embedded header.
fn source_meta(header: &TraceHeader) -> SourceMeta {
    SourceMeta {
        sample_file: header.sample_file.clone(),
        num_processes: header.num_processes,
        num_files: header.num_files,
    }
}

/// The fewest payload bytes `records` records can occupy: a nibble in
/// the op column plus one byte in each of the six per-record varint
/// columns (file, wall clock, process clock, repeat, length, offset;
/// the pid index column may be absent).
fn min_payload_len(records: u32) -> u64 {
    let n = u64::from(records);
    n.div_ceil(2) + 6 * n
}

/// The payload decoder's scratch state, reused from block to block so
/// a warm walker allocates nothing per block.
#[derive(Debug, Default)]
struct PayloadDecoder {
    /// The block's pid dictionary.
    dict: Vec<u32>,
    /// Next predicted offset per `(pid, file)` stream of the block.
    streams: HashMap<(u32, u32), u64>,
}

impl PayloadDecoder {
    /// Decodes the payload columns of one block, **appending** its
    /// records to `out` and applying every structural check the format
    /// defines. On error `out` is left as it was.
    fn decode(
        &mut self,
        payload: &[u8],
        header: &BlockHeader,
        roster: &TraceHeader,
        block: u64,
        out: &mut Vec<TraceRecord>,
    ) -> Result<(), TraceError> {
        let start = out.len();
        let decoded = self.decode_columns(payload, header, roster, block, out);
        if decoded.is_err() {
            out.truncate(start);
        }
        decoded
    }

    /// [`PayloadDecoder::decode`] proper. The op column pushes one
    /// record per nibble; every later column fills its field of the
    /// pushed records in place.
    fn decode_columns(
        &mut self,
        payload: &[u8],
        header: &BlockHeader,
        roster: &TraceHeader,
        block: u64,
        out: &mut Vec<TraceRecord>,
    ) -> Result<(), TraceError> {
        let start = out.len();
        let corrupt = |context: &'static str| TraceError::CorruptBlock { block, context };
        // `record_count` is not under the CRC. Bound it by the payload
        // that is, before anything is sized by it.
        if (payload.len() as u64) < min_payload_len(header.record_count) {
            return Err(corrupt("record count exceeds what the payload can hold"));
        }
        let n = header.record_count as usize;
        let mut pos = 0usize;

        // 1. Op tags, two nibbles per byte.
        let op_of =
            |nibble: u8| IoOp::from_code(nibble).ok_or_else(|| corrupt("op nibble outside 0-4"));
        let blank = |op: IoOp| TraceRecord {
            op,
            num_records: 0,
            pid: 0,
            file_id: 0,
            wall_clock_us: 0,
            proc_clock_us: 0,
            offset: 0,
            length: 0,
        };
        out.reserve(n);
        for &byte in &payload[..n / 2] {
            out.push(blank(op_of(byte & 0x0F)?));
            out.push(blank(op_of(byte >> 4)?));
        }
        if n % 2 == 1 {
            let byte = payload[n / 2];
            out.push(blank(op_of(byte & 0x0F)?));
            if byte >> 4 != 0 {
                return Err(corrupt("nonzero padding nibble in op column"));
            }
        }
        pos += n.div_ceil(2);
        let records = &mut out[start..];

        // 2. Pid dictionary + index column.
        let dict_len = get_varint(payload, &mut pos, block)?;
        if dict_len == 0 || dict_len > n as u64 {
            return Err(corrupt("pid dictionary size out of range"));
        }
        self.dict.clear();
        for _ in 0..dict_len {
            let pid = get_varint(payload, &mut pos, block)?;
            if pid >= u64::from(roster.num_processes) {
                return Err(corrupt("dictionary pid outside the process roster"));
            }
            let pid = pid as u32;
            if self.dict.contains(&pid) {
                return Err(corrupt("duplicate pid in dictionary"));
            }
            self.dict.push(pid);
        }
        if let [only] = self.dict[..] {
            for r in records.iter_mut() {
                r.pid = only;
            }
        } else {
            for r in records.iter_mut() {
                let idx = get_varint(payload, &mut pos, block)?;
                r.pid = usize::try_from(idx)
                    .ok()
                    .and_then(|i| self.dict.get(i).copied())
                    .ok_or_else(|| corrupt("pid index outside dictionary"))?;
            }
        }

        // 3. File ids.
        let mut prev_file = 0u32;
        let (mut seen_min, mut seen_max) = (u32::MAX, 0u32);
        for r in records.iter_mut() {
            let delta = unzigzag(get_varint(payload, &mut pos, block)?);
            let delta = i32::try_from(delta).map_err(|_| corrupt("file id delta overflows u32"))?;
            let file_id = apply_delta32(prev_file, delta);
            if file_id >= roster.num_files {
                return Err(corrupt("file id outside the file roster"));
            }
            if file_id < header.min_file || file_id > header.max_file {
                return Err(corrupt("file id outside the block's declared range"));
            }
            seen_min = seen_min.min(file_id);
            seen_max = seen_max.max(file_id);
            prev_file = file_id;
            r.file_id = file_id;
        }
        if seen_min != header.min_file || seen_max != header.max_file {
            return Err(corrupt("declared file id range not attained"));
        }

        // 4–5. Wall and process clocks.
        let mut prev_wall = 0u64;
        for r in records.iter_mut() {
            prev_wall = apply_delta64(prev_wall, unzigzag(get_varint(payload, &mut pos, block)?));
            r.wall_clock_us = prev_wall;
        }
        let wall_of = |r: Option<&TraceRecord>| r.map(|r| r.wall_clock_us);
        if wall_of(records.first()) != Some(header.first_clock)
            || wall_of(records.last()) != Some(header.last_clock)
        {
            return Err(corrupt("clock bounds mismatch"));
        }
        let mut prev_proc = 0u64;
        for r in records.iter_mut() {
            prev_proc = apply_delta64(prev_proc, unzigzag(get_varint(payload, &mut pos, block)?));
            r.proc_clock_us = prev_proc;
        }

        // 6. Repeat counts.
        for r in records.iter_mut() {
            let v = get_varint(payload, &mut pos, block)?;
            r.num_records = u32::try_from(v).map_err(|_| corrupt("repeat count overflows u32"))?;
        }

        // 7. Lengths.
        let mut prev_len = 0u64;
        for r in records.iter_mut() {
            prev_len = apply_delta64(prev_len, unzigzag(get_varint(payload, &mut pos, block)?));
            r.length = prev_len;
        }

        // 8. Offsets, predicted per (pid, file) stream. Consecutive
        //    records mostly belong to one stream, so the stream of the
        //    previous record is held outside the map and written back
        //    only when the stream changes.
        self.streams.clear();
        let mut current: Option<((u32, u32), u64)> = None;
        for r in records.iter_mut() {
            let key = (r.pid, r.file_id);
            let predicted = match current {
                Some((held, next)) if held == key => next,
                _ => {
                    if let Some((held, next)) = current {
                        self.streams.insert(held, next);
                    }
                    self.streams.get(&key).copied().unwrap_or(0)
                }
            };
            r.offset = apply_delta64(predicted, unzigzag(get_varint(payload, &mut pos, block)?));
            current = Some((key, r.offset.wrapping_add(r.length)));
        }

        if pos != payload.len() {
            return Err(corrupt("payload length mismatch"));
        }
        Ok(())
    }
}

/// The v2 framing walk over any reader (see the module docs): the one
/// place that knows the section layout.
#[derive(Debug)]
struct BlockWalker<R> {
    reader: R,
    /// The container's embedded header: the roster every block is
    /// checked against, and the record total the footer must confirm.
    header: TraceHeader,
    /// Bytes consumed so far — the offset of the next section tag.
    pos: u64,
    /// The index entry of every block admitted so far: what the footer
    /// has to repeat.
    index: Vec<BlockIndexEntry>,
    /// Records in the blocks admitted so far.
    records: u64,
    /// The current block's payload bytes.
    payload: Vec<u8>,
    decoder: PayloadDecoder,
}

impl<R: Read> BlockWalker<R> {
    /// Reads and validates the prelude; the walk starts at the first
    /// section tag.
    fn open(mut reader: R) -> Result<Self, TraceError> {
        let (header, pos) = read_prelude(&mut reader)?;
        Ok(Self::resume(reader, header, pos, &[]))
    }

    /// A walker over `reader` positioned at the section tag at `pos`,
    /// having already admitted the blocks in `walked`.
    fn resume(reader: R, header: TraceHeader, pos: u64, walked: &[BlockIndexEntry]) -> Self {
        Self {
            reader,
            header,
            pos,
            index: walked.to_vec(),
            records: walked.iter().map(|e| u64::from(e.record_count)).sum(),
            payload: Vec::new(),
            decoder: PayloadDecoder::default(),
        }
    }

    /// Admits the next section. A block is framed, checksummed and
    /// structurally decoded, its records **appended** to `out`, and
    /// `Ok(true)` returned; the footer is cross-checked against the
    /// walk and `Ok(false)` returned. Nothing is appended on `Err`.
    fn next_block(&mut self, out: &mut Vec<TraceRecord>) -> Result<bool, TraceError> {
        let block = self.index.len() as u64;
        let mut tag = [0u8; 1];
        read_or_truncated(&mut self.reader, &mut tag, "section tag")?;
        match tag[0] {
            BLOCK_TAG => {}
            INDEX_TAG => return self.check_footer().map(|()| false),
            _ => return Err(TraceError::CorruptBlock { block, context: "unknown section tag" }),
        }
        let mut raw = [0u8; BLOCK_HEADER_LEN];
        read_or_truncated(&mut self.reader, &mut raw, "block header")?;
        let frame = BlockHeader::decode(&raw)?;
        if frame.record_count == 0 {
            return Err(TraceError::CorruptBlock { block, context: "empty block" });
        }
        let raw_len = u64::from(frame.record_count) * TraceRecord::ENCODED_LEN as u64;
        if u64::from(frame.raw_len) != raw_len {
            return Err(TraceError::CorruptBlock { block, context: "raw length mismatch" });
        }
        // `encoded_len` is untrusted: the buffer grows with the bytes
        // that are actually there, never with the declared length.
        let encoded_len = u64::from(frame.encoded_len);
        self.payload.clear();
        self.reader.by_ref().take(encoded_len).read_to_end(&mut self.payload)?;
        if (self.payload.len() as u64) < encoded_len {
            return Err(TraceError::Truncated { context: "block payload" });
        }
        let computed = crc32(&self.payload);
        if computed != frame.crc32 {
            return Err(TraceError::ChecksumMismatch { block, stored: frame.crc32, computed });
        }
        self.decoder.decode(&self.payload, &frame, &self.header, block, out)?;
        self.index.push(BlockIndexEntry {
            offset: self.pos,
            record_count: frame.record_count,
            first_clock: frame.first_clock,
        });
        self.records += u64::from(frame.record_count);
        self.pos += 1 + BLOCK_HEADER_LEN as u64 + encoded_len;
        Ok(true)
    }

    /// Cross-checks the index footer (its tag already consumed) against
    /// the blocks walked, through to the end of the input.
    fn check_footer(&mut self) -> Result<(), TraceError> {
        if self.records != self.header.num_records {
            return Err(TraceError::BadHeader(format!(
                "header declares {} records, blocks carry {}",
                self.header.num_records, self.records
            )));
        }
        let mut count = [0u8; 4];
        read_or_truncated(&mut self.reader, &mut count, "index footer")?;
        let count = u32::from_le_bytes(count);
        if u64::from(count) != self.index.len() as u64 {
            return Err(TraceError::BadHeader(format!(
                "index declares {count} blocks, file carries {}",
                self.index.len()
            )));
        }
        for (block, walked) in self.index.iter().enumerate() {
            let mut raw = [0u8; INDEX_ENTRY_LEN];
            read_or_truncated(&mut self.reader, &mut raw, "index entries")?;
            if BlockIndexEntry::decode(&raw)? != *walked {
                return Err(TraceError::CorruptBlock {
                    block: block as u64,
                    context: "index entry disagrees with the block it points at",
                });
            }
        }
        let mut tail = [0u8; 8 + 4];
        read_or_truncated(&mut self.reader, &mut tail, "index entries")?;
        if u64_at(&tail, 0) != self.pos {
            return Err(TraceError::BadHeader("footer self-offset disagrees".into()));
        }
        if tail[8..] != END_MAGIC {
            return Err(TraceError::BadHeader("missing end marker".into()));
        }
        match io::copy(&mut self.reader, &mut io::sink())? {
            0 => Ok(()),
            extra => Err(TraceError::TrailingBytes { extra: extra as usize }),
        }
    }
}

/// A v2 container admitted one block at a time, while it streams.
///
/// Opening reads only the prelude. Each block is framed, CRC-checked
/// and structurally decoded when the consumer reaches it — always
/// before its first record is handed out — and the footer is
/// cross-checked when the last block is spent, so memory is O(block)
/// for a file of any length from any [`Read`]. The price is that a
/// fault may surface *after* earlier blocks were consumed: the stream
/// then ends, and the coded error waits in
/// [`TraceSource::take_failure`]. A consumer must ask for it once the
/// stream is exhausted and discard what it computed if there is one;
/// [`CompactSource`] is the admit-everything-first alternative.
#[derive(Debug)]
pub struct CompactStream<R> {
    walker: BlockWalker<R>,
    /// Decoded records of the current block.
    block: Vec<TraceRecord>,
    /// Read cursor within `block`.
    cursor: usize,
    /// Records handed out so far.
    yielded: u64,
    /// Whether the walk is over: footer verified, or `failure` set.
    done: bool,
    failure: Option<TraceError>,
}

impl<R: Read> CompactStream<R> {
    /// Opens a v2 container on `reader`, validating the prelude.
    pub fn open(reader: R) -> Result<Self, TraceError> {
        BlockWalker::open(reader).map(Self::over)
    }

    fn over(walker: BlockWalker<R>) -> Self {
        Self { walker, block: Vec::new(), cursor: 0, yielded: 0, done: false, failure: None }
    }

    /// The embedded trace header. Its `num_records` is the file's own
    /// claim, confirmed only when the stream ends without a failure.
    pub fn header(&self) -> &TraceHeader {
        &self.walker.header
    }
}

impl<R: Read> TraceSource for CompactStream<R> {
    fn meta(&self) -> SourceMeta {
        source_meta(self.header())
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        loop {
            if let Some(&r) = self.block.get(self.cursor) {
                self.cursor += 1;
                self.yielded += 1;
                return Some(r);
            }
            if self.done {
                return None;
            }
            self.block.clear();
            self.cursor = 0;
            match self.walker.next_block(&mut self.block) {
                Ok(more) => self.done = !more,
                Err(e) => {
                    self.done = true;
                    self.failure = Some(e);
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // The declared count is unverified until the footer agrees:
        // good enough for an upper bound, never for sizing a buffer.
        let declared = self.header().num_records.saturating_sub(self.yielded);
        (0, usize::try_from(declared).ok())
    }

    fn take_failure(&mut self) -> Option<TraceError> {
        self.failure.take()
    }
}

/// An admitted v2 buffer, shared by every stream over it.
#[derive(Debug, Clone)]
struct SharedBytes(Arc<Vec<u8>>);

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A verified, streaming v2 trace reader.
///
/// Construction ([`CompactSource::from_bytes`] / [`CompactSource::load`])
/// is the admission pass: the walker is drained over the whole
/// container — every block framed, CRC-checked and structurally
/// decoded, the footer cross-checked — before the first record is
/// handed out, so corrupt input is rejected with a coded [`TraceError`]
/// naming the block where it breaks and nothing unverified ever reaches
/// a replay engine. Streaming then walks the shared buffer again, one
/// block in memory at a time (re-opening the same bytes copies nothing
/// but an `Arc`).
#[derive(Debug)]
pub struct CompactSource {
    stream: CompactStream<Cursor<SharedBytes>>,
    /// Offset of the first section tag.
    blocks_start: u64,
    /// The admitted block index (one entry per block).
    index: Arc<[BlockIndexEntry]>,
    /// Records not yet yielded (exact).
    remaining: u64,
}

impl CompactSource {
    /// Opens and verifies a v2 container (see the type docs: this is
    /// the admission pass).
    pub fn from_bytes(data: impl Into<Arc<Vec<u8>>>) -> Result<Self, TraceError> {
        let mut walker = BlockWalker::open(Cursor::new(SharedBytes(data.into())))?;
        let blocks_start = walker.pos;
        let mut scratch = Vec::new();
        while walker.next_block(&mut scratch)? {
            scratch.clear();
        }
        let index = walker.index.as_slice().into();
        Ok(Self::stream_at(walker.reader.into_inner(), walker.header, blocks_start, index, 0))
    }

    /// Opens and verifies a v2 file from disk.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, TraceError> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// A stream over admitted bytes, positioned at the first record of
    /// block `block` (`block <= index.len()`): the walker resumes there
    /// with the earlier blocks' entries already in hand, so the footer
    /// cross-check at the end of the walk still sees the whole index.
    fn stream_at(
        data: SharedBytes,
        header: TraceHeader,
        blocks_start: u64,
        index: Arc<[BlockIndexEntry]>,
        block: usize,
    ) -> Self {
        let pos = index.get(block).map_or(blocks_start, |e| e.offset);
        let mut reader = Cursor::new(data);
        reader.set_position(pos);
        let walker = BlockWalker::resume(reader, header, pos, &index[..block]);
        let remaining = index[block..].iter().map(|e| u64::from(e.record_count)).sum();
        Self { stream: CompactStream::over(walker), blocks_start, index, remaining }
    }

    /// [`CompactSource::stream_at`] over this source's own bytes.
    fn at_block(&self, block: usize) -> Self {
        let walker = &self.stream.walker;
        Self::stream_at(
            walker.reader.get_ref().clone(),
            walker.header.clone(),
            self.blocks_start,
            self.index.clone(),
            block,
        )
    }

    /// The embedded trace header.
    pub fn header(&self) -> &TraceHeader {
        self.stream.header()
    }

    /// Number of blocks in the container.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// The block index footer: one entry per block, in file order.
    pub fn block_index(&self) -> &[BlockIndexEntry] {
        &self.index
    }

    /// Repositions the stream at the first record of block
    /// `block` (blocks are numbered from 0 in file order).
    pub fn seek_to_block(&mut self, block: usize) -> Result<(), TraceError> {
        if block >= self.index.len() {
            return Err(TraceError::CorruptBlock {
                block: block as u64,
                context: "seek past the last block",
            });
        }
        *self = self.at_block(block);
        Ok(())
    }

    /// Rewinds to the first record (an `Arc` clone of the buffer, no
    /// re-admission).
    pub fn reopened(&self) -> Self {
        self.at_block(0)
    }
}

impl TraceSource for CompactSource {
    fn meta(&self) -> SourceMeta {
        self.stream.meta()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        let r = self.stream.next_record();
        match r {
            Some(_) => self.remaining -= 1,
            // The bytes were admitted whole and cannot have changed.
            None => debug_assert!(self.stream.failure.is_none(), "an admitted walk failed"),
        }
        r
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining as usize;
        (left, Some(left))
    }

    fn take_failure(&mut self) -> Option<TraceError> {
        self.stream.take_failure()
    }
}

/// Decodes a whole v2 buffer into an in-memory [`TraceFile`]: each
/// block is admitted once, straight into the output, and the output is
/// dropped if any block or the footer fails.
pub fn decode_trace(data: impl Into<Arc<Vec<u8>>>) -> Result<TraceFile, TraceError> {
    let data = data.into();
    let mut walker = BlockWalker::open(&data[..])?;
    // Pre-size from the declared count only as far as the bytes present
    // could bear it out.
    let plausible = walker.header.num_records.min(data.len() as u64 / 6);
    let mut records = Vec::with_capacity(plausible as usize);
    while walker.next_block(&mut records)? {}
    crate::source::trace_of(source_meta(&walker.header), records)
}

#[cfg(test)]
mod tests {
    use super::super::encode::{encode_source_with_blocks, encode_trace};
    use super::*;
    use crate::source::SliceSource;
    use crate::synth::{synthesize, TraceProfile};

    fn sample(ops: usize) -> TraceFile {
        synthesize(&TraceProfile { data_ops: ops, ..Default::default() })
    }

    #[test]
    fn round_trips_records_and_header() {
        let t = sample(500);
        let bytes = encode_trace(&t).unwrap();
        let mut src = CompactSource::from_bytes(bytes).unwrap();
        assert_eq!(src.header().num_records, t.header.num_records);
        assert_eq!(src.header().sample_file, t.header.sample_file);
        let mut got = Vec::new();
        while let Some(r) = src.next_record() {
            got.push(r);
        }
        assert_eq!(got, t.records);
    }

    #[test]
    fn size_hint_is_exact_throughout() {
        let t = sample(100);
        let bytes = encode_source_with_blocks(&mut SliceSource::new(&t), 16).unwrap();
        let mut src = CompactSource::from_bytes(bytes).unwrap();
        let mut left = t.len();
        assert_eq!(src.size_hint(), (left, Some(left)));
        while src.next_record().is_some() {
            left -= 1;
            assert_eq!(src.size_hint(), (left, Some(left)));
        }
        assert_eq!(src.size_hint(), (0, Some(0)));
    }

    #[test]
    fn seek_to_block_yields_the_suffix() {
        let t = sample(200);
        let bytes = encode_source_with_blocks(&mut SliceSource::new(&t), 32).unwrap();
        let mut src = CompactSource::from_bytes(bytes).unwrap();
        assert!(src.block_count() > 2, "need a multi-block file");
        let skip: u64 = src.block_index()[..2].iter().map(|e| u64::from(e.record_count)).sum();
        src.seek_to_block(2).unwrap();
        assert_eq!(src.size_hint().0 as u64, t.header.num_records - skip);
        let mut got = Vec::new();
        while let Some(r) = src.next_record() {
            got.push(r);
        }
        assert_eq!(got, t.records[skip as usize..]);
        // The resumed walk still cross-checked the whole footer.
        assert!(src.take_failure().is_none());
        assert_eq!(src.size_hint(), (0, Some(0)));
        assert!(src.seek_to_block(src.block_count()).is_err());
    }

    /// Hands out one byte per `read` call: every `read_exact` and
    /// `read_to_end` in the walker has to cope with short reads.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn drain(source: &mut impl TraceSource) -> Vec<TraceRecord> {
        std::iter::from_fn(|| source.next_record()).collect()
    }

    #[test]
    fn lazy_stream_equals_the_admitted_source_on_clean_input() {
        let t = sample(200);
        let bytes = encode_source_with_blocks(&mut SliceSource::new(&t), 32).unwrap();
        let mut stream = CompactStream::open(Trickle(&bytes)).unwrap();
        assert_eq!(stream.meta(), CompactSource::from_bytes(bytes.clone()).unwrap().meta());
        // The declared count is an upper bound, never a promise.
        assert_eq!(stream.size_hint(), (0, Some(t.len())));
        assert_eq!(drain(&mut stream), t.records);
        assert_eq!(stream.size_hint(), (0, Some(0)));
        assert!(stream.take_failure().is_none(), "the footer was reached and agreed");
        assert!(stream.next_record().is_none());
    }

    #[test]
    fn lazy_stream_hands_out_whole_admitted_blocks_then_parks_the_failure() {
        let t = sample(200);
        let mut bytes = encode_source_with_blocks(&mut SliceSource::new(&t), 32).unwrap();
        let index = CompactSource::from_bytes(bytes.clone()).unwrap().block_index().to_vec();
        // Flip a payload byte of block 2: blocks 0 and 1 are fine.
        bytes[index[2].offset as usize + 1 + BLOCK_HEADER_LEN + 3] ^= 0x04;
        let mut stream = CompactStream::open(&bytes[..]).unwrap();
        let before_fault: usize = index[..2].iter().map(|e| e.record_count as usize).sum();
        assert_eq!(drain(&mut stream), t.records[..before_fault], "nothing of block 2 gets out");
        assert!(stream.next_record().is_none(), "a failed stream stays ended");
        assert!(matches!(
            stream.take_failure(),
            Some(TraceError::ChecksumMismatch { block: 2, .. })
        ));
        assert!(stream.take_failure().is_none(), "the failure is taken once");
        // The same bytes never get past whole-file admission.
        assert!(matches!(
            CompactSource::from_bytes(bytes),
            Err(TraceError::ChecksumMismatch { block: 2, .. })
        ));
    }

    #[test]
    fn lazy_stream_reports_a_bad_footer_after_the_last_record() {
        let t = sample(100);
        let bytes = encode_source_with_blocks(&mut SliceSource::new(&t), 32).unwrap();
        // Cut inside the footer, and separately append a byte: every
        // record is handed out, and the stream still counts as failed.
        let mut padded = bytes.clone();
        padded.push(0);
        for (damaged, expect_truncated) in [(&bytes[..bytes.len() - 3], true), (&padded[..], false)]
        {
            let mut stream = CompactStream::open(damaged).unwrap();
            assert_eq!(drain(&mut stream).len(), t.len());
            match stream.take_failure() {
                Some(TraceError::Truncated { .. }) if expect_truncated => {}
                Some(TraceError::TrailingBytes { extra: 1 }) if !expect_truncated => {}
                other => panic!("unexpected footer verdict {other:?}"),
            }
        }
    }

    #[test]
    fn min_payload_len_is_a_nibble_and_six_bytes_per_record() {
        // The bound rule C12 holds `record_count` to, before anything
        // is sized by it (the rejection itself: the rule table test).
        assert_eq!(min_payload_len(0), 0);
        assert_eq!(min_payload_len(1), 7);
        assert_eq!(min_payload_len(2), 13);
        assert_eq!(min_payload_len(u32::MAX), 27_917_287_418);
    }

    #[test]
    fn reopened_streams_from_the_start() {
        let t = sample(50);
        let bytes = encode_trace(&t).unwrap();
        let mut src = CompactSource::from_bytes(bytes).unwrap();
        let _ = src.next_record();
        let _ = src.next_record();
        let mut fresh = src.reopened();
        assert_eq!(fresh.size_hint().0, t.len());
        assert_eq!(fresh.next_record(), Some(t.records[0]));
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TraceFile::build("s.dat", 1, vec![]).unwrap();
        let bytes = encode_trace(&t).unwrap();
        let mut src = CompactSource::from_bytes(bytes).unwrap();
        assert_eq!(src.block_count(), 0);
        assert_eq!(src.size_hint(), (0, Some(0)));
        assert!(src.next_record().is_none());
    }

    #[test]
    fn truncation_is_coded() {
        let t = sample(100);
        let bytes = encode_trace(&t).unwrap();
        for cut in [3, 10, 40, bytes.len() / 2, bytes.len() - 5] {
            let err = CompactSource::from_bytes(bytes[..cut].to_vec()).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. }
                        | TraceError::BadHeader(_)
                        | TraceError::CorruptBlock { .. }
                        | TraceError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let t = sample(100);
        let mut bytes = encode_trace(&t).unwrap();
        // Flip a byte well inside the first block's payload.
        let at = 32 + t.header.sample_file.len() + 1 + BLOCK_HEADER_LEN + 10;
        bytes[at] ^= 0x40;
        assert!(matches!(
            CompactSource::from_bytes(bytes),
            Err(TraceError::ChecksumMismatch { block: 0, .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let t = sample(10);
        let mut bytes = encode_trace(&t).unwrap();
        bytes.push(0xAB);
        assert!(matches!(
            CompactSource::from_bytes(bytes),
            Err(TraceError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_coded() {
        let t = sample(10);
        let bytes = encode_trace(&t).unwrap();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(CompactSource::from_bytes(wrong), Err(TraceError::BadMagic(_))));
        let mut wrong = bytes;
        wrong[4] = 9;
        assert!(matches!(CompactSource::from_bytes(wrong), Err(TraceError::BadVersion(9))));
    }

    /// A hand-assembled one-block container: every field a rule reads
    /// is a knob, and whatever is not being broken is kept consistent
    /// (lengths, CRC, index entry, footer offset).
    #[derive(Clone)]
    struct Crafted {
        magic: [u8; 4],
        version: u16,
        num_processes: u32,
        num_files: u32,
        num_records: u64,
        name: Vec<u8>,
        tag: u8,
        frame: BlockHeader,
        payload: Vec<u8>,
        /// XORed into the stored CRC (0 keeps it right).
        crc_damage: u32,
        index_count: u32,
        index_first_clock: u64,
        footer_offset_skew: u64,
        end_magic: [u8; 4],
        trailing: usize,
    }

    impl Crafted {
        /// Two reads by pid 0 on file 0 at clocks 10 and 15.
        fn clean() -> Self {
            let payload = vec![
                0x22, // ops: Read, Read
                0x01, 0x00, // pid dictionary: one entry, pid 0
                0x00, 0x00, // file id deltas
                0x14, 0x0A, // wall clock deltas: +10, +5
                0x00, 0x00, // process clock deltas
                0x01, 0x01, // repeat counts
                0x10, 0x00, // length deltas: +8, +0
                0x00, 0x00, // offset deltas against the prediction
            ];
            let frame = BlockHeader {
                record_count: 2,
                raw_len: 90,
                encoded_len: payload.len() as u32,
                first_clock: 10,
                last_clock: 15,
                min_file: 0,
                max_file: 0,
                crc32: 0, // filled in by `bytes`
            };
            Self {
                magic: COMPACT_MAGIC,
                version: COMPACT_VERSION,
                num_processes: 1,
                num_files: 1,
                num_records: 2,
                name: b"s.dat".to_vec(),
                tag: BLOCK_TAG,
                frame,
                payload,
                crc_damage: 0,
                index_count: 1,
                index_first_clock: 10,
                footer_offset_skew: 0,
                end_magic: END_MAGIC,
                trailing: 0,
            }
        }

        /// The same block holding its first record only.
        fn single_record(ops: u8) -> Self {
            let mut c = Self::clean();
            c.payload = vec![ops, 0x01, 0x00, 0x00, 0x14, 0x00, 0x01, 0x10, 0x00];
            c.frame = BlockHeader { record_count: 1, raw_len: 45, last_clock: 10, ..c.frame };
            c.num_records = 1;
            c
        }

        fn with_payload(mut self, at: usize, replacement: &[u8]) -> Self {
            self.payload.splice(at..at + 1, replacement.iter().copied());
            self
        }

        fn bytes(&self) -> Vec<u8> {
            let mut out = Vec::new();
            out.extend_from_slice(&self.magic);
            out.extend_from_slice(&self.version.to_le_bytes());
            out.extend_from_slice(&self.num_processes.to_le_bytes());
            out.extend_from_slice(&self.num_files.to_le_bytes());
            out.extend_from_slice(&self.num_records.to_le_bytes());
            out.extend_from_slice(&0u64.to_le_bytes());
            out.extend_from_slice(&(self.name.len() as u16).to_le_bytes());
            out.extend_from_slice(&self.name);
            let block_at = out.len() as u64;
            out.push(self.tag);
            let frame = BlockHeader {
                encoded_len: self.payload.len() as u32,
                crc32: crc32(&self.payload) ^ self.crc_damage,
                ..self.frame
            };
            frame.encode(&mut out);
            out.extend_from_slice(&self.payload);
            let footer_at = out.len() as u64;
            out.push(INDEX_TAG);
            out.extend_from_slice(&self.index_count.to_le_bytes());
            BlockIndexEntry {
                offset: block_at,
                record_count: self.frame.record_count,
                first_clock: self.index_first_clock,
            }
            .encode(&mut out);
            out.extend_from_slice(&(footer_at + self.footer_offset_skew).to_le_bytes());
            out.extend_from_slice(&self.end_magic);
            out.extend(std::iter::repeat_n(0xEE, self.trailing));
            out
        }
    }

    /// The rule table of `docs/trace-verifier-rules.md`, container half:
    /// one crafted input per coded rule, broken in exactly that respect,
    /// and the rejection it must draw — from whole-file admission and,
    /// identically, from the lazy stream's parked failure.
    #[test]
    fn every_container_rule_rejects_with_its_documented_code() {
        use TraceError::*;
        let clean = Crafted::clean;
        let bytes = clean().bytes();
        assert_eq!(drain(&mut CompactSource::from_bytes(bytes.clone()).unwrap()).len(), 2);
        let cut = |len: usize| bytes[..len].to_vec();
        let prelude = 32 + 5;
        let block_end = prelude + 1 + BLOCK_HEADER_LEN + 15;
        let huge = [0x80, 0x80, 0x80, 0x80, 0x10]; // varint 2^32
        type Check = Box<dyn Fn(&TraceError) -> bool>;
        let corrupt = |context: &'static str| -> Check {
            Box::new(move |e| matches!(e, CorruptBlock { block: 0, context: c } if *c == context))
        };
        let is = |check: fn(&TraceError) -> bool| -> Check { Box::new(check) };
        let cases: Vec<(&str, Vec<u8>, Check)> = vec![
            // Open: the prelude.
            ("C01", cut(3), is(|e| matches!(e, Truncated { context: "magic" }))),
            (
                "C01",
                Crafted { magic: *b"CLIO", ..clean() }.bytes(),
                is(|e| matches!(e, BadMagic(_))),
            ),
            ("C02", cut(5), is(|e| matches!(e, Truncated { context: "version" }))),
            ("C02", Crafted { version: 3, ..clean() }.bytes(), is(|e| matches!(e, BadVersion(3)))),
            ("C03", cut(20), is(|e| matches!(e, Truncated { context: "header fields" }))),
            ("C03", cut(34), is(|e| matches!(e, Truncated { context: "sample file name" }))),
            (
                "C04",
                Crafted { name: vec![0xFF, 0xFE], ..clean() }.bytes(),
                is(|e| matches!(e, BadHeader(why) if why.contains("UTF-8"))),
            ),
            (
                "C05",
                Crafted { num_processes: 0, ..clean() }.bytes(),
                is(|e| matches!(e, BadHeader(why) if why.contains("zero processes"))),
            ),
            (
                "C05",
                Crafted { num_files: 0, ..clean() }.bytes(),
                is(|e| matches!(e, BadHeader(why) if why.contains("zero files"))),
            ),
            (
                "C05",
                Crafted { name: vec![], ..clean() }.bytes(),
                is(|e| matches!(e, BadHeader(why) if why.contains("empty sample file name"))),
            ),
            // Per block: framing and checksum.
            ("C06", cut(prelude), is(|e| matches!(e, Truncated { context: "section tag" }))),
            ("C06", Crafted { tag: 0x00, ..clean() }.bytes(), corrupt("unknown section tag")),
            ("C07", cut(prelude + 9), is(|e| matches!(e, Truncated { context: "block header" }))),
            (
                "C08",
                Crafted {
                    frame: BlockHeader { record_count: 0, raw_len: 0, ..clean().frame },
                    ..clean()
                }
                .bytes(),
                corrupt("empty block"),
            ),
            (
                "C09",
                Crafted { frame: BlockHeader { raw_len: 91, ..clean().frame }, ..clean() }.bytes(),
                corrupt("raw length mismatch"),
            ),
            (
                "C10",
                cut(block_end - 4),
                is(|e| matches!(e, Truncated { context: "block payload" })),
            ),
            (
                "C11",
                Crafted { crc_damage: 1, ..clean() }.bytes(),
                is(
                    |e| matches!(e, ChecksumMismatch { block: 0, stored, computed } if stored ^ computed == 1),
                ),
            ),
            // Per block: the structural decode, column by column.
            (
                "C12",
                Crafted {
                    num_records: 1000,
                    frame: BlockHeader { record_count: 1000, raw_len: 45_000, ..clean().frame },
                    ..clean()
                }
                .bytes(),
                corrupt("record count exceeds what the payload can hold"),
            ),
            ("C13", clean().with_payload(0, &[0x25]).bytes(), corrupt("op nibble outside 0-4")),
            (
                "C14",
                Crafted::single_record(0x12).bytes(),
                corrupt("nonzero padding nibble in op column"),
            ),
            (
                "C15",
                clean().with_payload(14, &[0x80]).bytes(),
                corrupt("varint ran past the payload"),
            ),
            // An eleventh byte is never reached: a tenth byte with its
            // continuation bit set already overflows the 64th bit.
            ("C15", clean().with_payload(5, &[0x80; 11]).bytes(), corrupt("varint overflows u64")),
            (
                "C15",
                clean().with_payload(5, &[[0xFF; 9].as_slice(), &[0x02]].concat()).bytes(),
                corrupt("varint overflows u64"),
            ),
            (
                "C16",
                clean().with_payload(1, &[0x00]).bytes(),
                corrupt("pid dictionary size out of range"),
            ),
            (
                "C16",
                clean().with_payload(1, &[0x03]).bytes(),
                corrupt("pid dictionary size out of range"),
            ),
            (
                "C17",
                clean().with_payload(2, &[0x05]).bytes(),
                corrupt("dictionary pid outside the process roster"),
            ),
            (
                "C18",
                clean().with_payload(1, &[0x02, 0x00]).bytes(),
                corrupt("duplicate pid in dictionary"),
            ),
            (
                "C19",
                Crafted { num_processes: 2, ..clean() }
                    .with_payload(2, &[]) // the one-entry dictionary's pid
                    .with_payload(1, &[0x02, 0x00, 0x01, 0x00, 0x02])
                    .bytes(),
                corrupt("pid index outside dictionary"),
            ),
            ("C20", clean().with_payload(3, &huge).bytes(), corrupt("file id delta overflows u32")),
            (
                "C21",
                clean().with_payload(3, &[0x06]).bytes(),
                corrupt("file id outside the file roster"),
            ),
            (
                "C22",
                Crafted { num_files: 4, ..clean() }.with_payload(3, &[0x06]).bytes(),
                corrupt("file id outside the block's declared range"),
            ),
            (
                "C23",
                Crafted {
                    num_files: 4,
                    frame: BlockHeader { max_file: 1, ..clean().frame },
                    ..clean()
                }
                .bytes(),
                corrupt("declared file id range not attained"),
            ),
            (
                "C24",
                Crafted { frame: BlockHeader { first_clock: 11, ..clean().frame }, ..clean() }
                    .bytes(),
                corrupt("clock bounds mismatch"),
            ),
            (
                "C24",
                Crafted { frame: BlockHeader { last_clock: 16, ..clean().frame }, ..clean() }
                    .bytes(),
                corrupt("clock bounds mismatch"),
            ),
            ("C25", clean().with_payload(9, &huge).bytes(), corrupt("repeat count overflows u32")),
            (
                "C26",
                clean().with_payload(14, &[0x00, 0x00]).bytes(),
                corrupt("payload length mismatch"),
            ),
            // End of stream: the footer against the walk.
            (
                "C27",
                Crafted { num_records: 3, ..clean() }.bytes(),
                is(
                    |e| matches!(e, BadHeader(why) if why.contains("declares 3 records, blocks carry 2")),
                ),
            ),
            ("C28", cut(block_end + 3), is(|e| matches!(e, Truncated { context: "index footer" }))),
            (
                "C28",
                cut(block_end + 5 + 11),
                is(|e| matches!(e, Truncated { context: "index entries" })),
            ),
            (
                "C28",
                cut(bytes.len() - 1),
                is(|e| matches!(e, Truncated { context: "index entries" })),
            ),
            (
                "C29",
                Crafted { index_count: 2, ..clean() }.bytes(),
                is(
                    |e| matches!(e, BadHeader(why) if why.contains("declares 2 blocks, file carries 1")),
                ),
            ),
            (
                "C30",
                Crafted { index_first_clock: 11, ..clean() }.bytes(),
                corrupt("index entry disagrees with the block it points at"),
            ),
            (
                "C31",
                Crafted { footer_offset_skew: 1, ..clean() }.bytes(),
                is(|e| matches!(e, BadHeader(why) if why.contains("self-offset"))),
            ),
            (
                "C32",
                Crafted { end_magic: *b"CLC2", ..clean() }.bytes(),
                is(|e| matches!(e, BadHeader(why) if why.contains("end marker"))),
            ),
            (
                "C33",
                Crafted { trailing: 7, ..clean() }.bytes(),
                is(|e| matches!(e, TrailingBytes { extra: 7 })),
            ),
        ];
        for (rule, input, expected) in &cases {
            let eager = CompactSource::from_bytes(input.clone()).expect_err(rule);
            assert!(expected(&eager), "{rule}: whole-file admission said {eager}");
            // The lazy stream: a prelude fault fails `open`; anything
            // later is parked, after at most the clean block's records.
            let lazy = match CompactStream::open(&input[..]) {
                Err(e) => e,
                Ok(mut stream) => {
                    assert!(drain(&mut stream).len() <= 2, "{rule}");
                    stream.take_failure().unwrap_or_else(|| panic!("{rule}: no failure parked"))
                }
            };
            assert_eq!(lazy.to_string(), eager.to_string(), "{rule}: the two drivers disagree");
            assert!(decode_trace(input.clone()).is_err(), "{rule}");
        }
        let covered: std::collections::BTreeSet<&str> = cases.iter().map(|c| c.0).collect();
        assert_eq!(covered.len(), 33, "one case at least for each of C01-C33");
    }

    #[test]
    fn decode_trace_drops_its_output_when_a_late_block_fails() {
        let t = sample(200);
        let mut bytes = encode_source_with_blocks(&mut SliceSource::new(&t), 32).unwrap();
        assert_eq!(decode_trace(bytes.clone()).unwrap().records, t.records);
        // A fault in the last block: nothing comes back, not a prefix.
        let last = *CompactSource::from_bytes(bytes.clone()).unwrap().block_index().last().unwrap();
        bytes[last.offset as usize + 1 + BLOCK_HEADER_LEN] ^= 0x01;
        assert!(matches!(
            decode_trace(bytes),
            Err(TraceError::ChecksumMismatch { .. } | TraceError::CorruptBlock { .. })
        ));
    }

    #[test]
    fn decode_trace_materializes() {
        let t = sample(300);
        let bytes = encode_trace(&t).unwrap();
        let back = decode_trace(bytes).unwrap();
        assert_eq!(back.records, t.records);
        assert_eq!(back.header.num_files, t.header.num_files);
        assert_eq!(back.header.num_processes, t.header.num_processes);
        assert_eq!(back.header.sample_file, t.header.sample_file);
    }
}
