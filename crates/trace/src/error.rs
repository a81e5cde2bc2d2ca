//! Trace errors.

use std::fmt;
use std::io;

/// Errors arising from trace encoding, decoding or replay.
#[derive(Debug)]
pub enum TraceError {
    /// The file does not begin with the `CLIO` magic.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u16),
    /// The buffer ended before the declared content.
    Truncated {
        /// What was being decoded when the data ran out.
        context: &'static str,
    },
    /// A record carried an operation code outside 0–4.
    BadOpCode(u8),
    /// A header field failed validation.
    BadHeader(String),
    /// A text-format line could not be parsed.
    BadTextLine {
        /// 1-based line number.
        line: usize,
        /// Why it failed.
        reason: String,
    },
    /// A record referenced a file id not declared in the header.
    FileIdOutOfRange {
        /// 0-based index of the offending record.
        index: u64,
        /// The offending file id.
        file_id: u32,
        /// Number of files the header declares.
        num_files: u32,
    },
    /// A data record spanned more bytes over its repeats than
    /// [`crate::verify::MAX_SPAN_BYTES`] — the verifier's `V10`,
    /// reported by an unverified replay before the record reaches the
    /// cache.
    SpanTooLong {
        /// 0-based index of the offending record.
        index: u64,
        /// The record's byte length.
        length: u64,
        /// The record's repeat count.
        num_records: u32,
    },
    /// A record repeated more times than [`crate::verify::MAX_REPEATS`]
    /// — the verifier's `V11`, reported by an unverified replay before
    /// the record reaches the cache.
    TooManyRepeats {
        /// 0-based index of the offending record.
        index: u64,
        /// The record's repeat count.
        num_records: u32,
    },
    /// Bytes remained after the last declared record (or after the v2
    /// end marker) — the signature of a concatenated or padded file.
    TrailingBytes {
        /// How many unconsumed bytes followed the declared content.
        extra: usize,
    },
    /// A v2 block failed a structural check while decoding.
    CorruptBlock {
        /// 0-based index of the offending block.
        block: u64,
        /// Which structural rule the block broke.
        context: &'static str,
    },
    /// A v2 block's payload did not match its stored CRC32.
    ChecksumMismatch {
        /// 0-based index of the offending block.
        block: u64,
        /// The checksum the block header declares.
        stored: u32,
        /// The checksum computed over the payload actually present.
        computed: u32,
    },
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic(m) => write!(f, "bad magic {m:?}, expected \"CLIO\""),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated { context } => {
                write!(f, "trace truncated while reading {context}")
            }
            TraceError::BadOpCode(c) => write!(f, "unknown operation code {c}"),
            TraceError::BadHeader(why) => write!(f, "invalid header: {why}"),
            TraceError::BadTextLine { line, reason } => {
                write!(f, "text trace line {line}: {reason}")
            }
            TraceError::FileIdOutOfRange { index, file_id, num_files } => {
                write!(
                    f,
                    "record {index} references file {file_id} but header declares \
                     {num_files} files"
                )
            }
            TraceError::SpanTooLong { index, length, num_records } => {
                write!(
                    f,
                    "record {index} spans {length} bytes x {num_records} repeats, over the \
                     {} byte bound (V10)",
                    crate::verify::MAX_SPAN_BYTES
                )
            }
            TraceError::TooManyRepeats { index, num_records } => {
                write!(
                    f,
                    "record {index} repeats {num_records} times, over the bound of {} (V11)",
                    crate::verify::MAX_REPEATS
                )
            }
            TraceError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the declared trace content")
            }
            TraceError::CorruptBlock { block, context } => {
                write!(f, "corrupt block {block}: {context}")
            }
            TraceError::ChecksumMismatch { block, stored, computed } => {
                write!(
                    f,
                    "block {block} checksum mismatch: stored {stored:#010x}, \
                     computed {computed:#010x}"
                )
            }
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(TraceError::BadMagic(*b"NOPE").to_string().contains("CLIO"));
        assert!(TraceError::BadVersion(9).to_string().contains('9'));
        assert!(TraceError::Truncated { context: "header" }.to_string().contains("header"));
        assert!(TraceError::BadOpCode(7).to_string().contains('7'));
        assert!(TraceError::BadHeader("x".into()).to_string().contains('x'));
        assert!(TraceError::BadTextLine { line: 3, reason: "nope".into() }
            .to_string()
            .contains("line 3"));
        assert!(TraceError::FileIdOutOfRange { index: 0, file_id: 5, num_files: 2 }
            .to_string()
            .contains("file 5"));
        assert!(TraceError::SpanTooLong { index: 2, length: 1 << 62, num_records: 1 }
            .to_string()
            .contains("V10"));
        assert!(TraceError::TooManyRepeats { index: 2, num_records: u32::MAX }
            .to_string()
            .contains("V11"));
        assert!(TraceError::TrailingBytes { extra: 9 }.to_string().contains("9 trailing"));
        assert!(TraceError::CorruptBlock { block: 3, context: "bad op nibble" }
            .to_string()
            .contains("block 3"));
        let e = TraceError::ChecksumMismatch { block: 1, stored: 0xDEAD, computed: 0xBEEF };
        assert!(e.to_string().contains("0x0000dead"));
        assert!(e.to_string().contains("0x0000beef"));
    }

    #[test]
    fn io_error_wraps_with_source() {
        let e: TraceError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
