//! Whole-trace reading and the in-memory trace representation.

use std::path::Path;

use bytes::Bytes;

use crate::codec;
use crate::error::TraceError;
use crate::header::TraceHeader;
use crate::record::TraceRecord;

/// An in-memory trace: header plus records.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// The header.
    pub header: TraceHeader,
    /// The records, in capture order.
    pub records: Vec<TraceRecord>,
}

impl TraceFile {
    /// Builds a trace, deriving the header counts from the records.
    ///
    /// `num_files` is taken as `max(file_id) + 1`; `num_processes` from
    /// the distinct pids (at least 1).
    pub fn build(
        sample_file: impl Into<String>,
        num_processes: u32,
        records: Vec<TraceRecord>,
    ) -> Result<Self, TraceError> {
        let num_files = records.iter().map(|r| r.file_id).max().map_or(1, |m| m + 1);
        let header = TraceHeader {
            num_processes: num_processes.max(1),
            num_files,
            num_records: records.len() as u64,
            records_offset: 0, // patched during encoding
            sample_file: sample_file.into(),
        };
        header.validate()?;
        let t = Self { header, records };
        t.validate()?;
        Ok(t)
    }

    /// Validates cross-consistency of header and records.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.header.validate()?;
        if self.header.num_records != self.records.len() as u64 {
            return Err(TraceError::BadHeader(format!(
                "header declares {} records, found {}",
                self.header.num_records,
                self.records.len()
            )));
        }
        for (index, r) in self.records.iter().enumerate() {
            if r.file_id >= self.header.num_files {
                return Err(TraceError::FileIdOutOfRange {
                    index: index as u64,
                    file_id: r.file_id,
                    num_files: self.header.num_files,
                });
            }
        }
        Ok(())
    }

    /// Decodes a binary trace from bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Self, TraceError> {
        let mut buf = Bytes::copy_from_slice(data);
        let mut header = codec::decode_header(&mut buf)?;
        let mut records = Vec::with_capacity(header.num_records.min(1 << 20) as usize);
        for _ in 0..header.num_records {
            records.push(codec::decode_record(&mut buf)?);
        }
        if !buf.is_empty() {
            // A well-formed v1 file ends exactly at the last record;
            // anything after it is a concatenated or padded file, not
            // trace content — reject rather than silently drop it.
            return Err(TraceError::TrailingBytes { extra: buf.len() });
        }
        // The serialized records_offset is advisory; recompute so the
        // in-memory value is always consistent with this library's layout.
        header.records_offset =
            (data.len() - buf.len() - records.len() * TraceRecord::ENCODED_LEN) as u64;
        let t = Self { header, records };
        t.validate()?;
        Ok(t)
    }

    /// Encodes to the binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut header = self.header.clone();
        // Header size: magic 4 + version 2 + fixed 26 + name.
        header.records_offset = (4 + 2 + 26 + header.sample_file.len()) as u64;
        // Exact-size buffer, moved out at the end: encoding a trace
        // costs one allocation and zero copies of the payload.
        let mut out = bytes::BytesMut::with_capacity(
            header.records_offset as usize + self.records.len() * TraceRecord::ENCODED_LEN,
        );
        codec::encode_header(&header, &mut out);
        for r in &self.records {
            codec::encode_record(r, &mut out);
        }
        out.into()
    }

    /// Reads a binary trace from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let data = std::fs::read(path)?;
        Self::from_bytes(&data)
    }

    /// Parses the text format (see [`crate::codec`]).
    pub fn from_text(text: &str) -> Result<Self, TraceError> {
        let mut sample_file = String::new();
        let mut num_processes = 1u32;
        let mut records = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let line_no = i + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("!header") {
                let mut it = rest.split_whitespace();
                sample_file = it
                    .next()
                    .ok_or_else(|| TraceError::BadTextLine {
                        line: line_no,
                        reason: "!header needs a sample file name".into(),
                    })?
                    .to_string();
                num_processes = it.next().unwrap_or("1").parse().map_err(|_| {
                    TraceError::BadTextLine { line: line_no, reason: "bad process count".into() }
                })?;
                continue;
            }
            records.push(codec::record_from_text(line, line_no)?);
        }
        if sample_file.is_empty() {
            return Err(TraceError::BadHeader("text trace missing !header line".into()));
        }
        Self::build(sample_file, num_processes, records)
    }

    /// Renders the text format.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# clio-trace text format\n!header {} {}\n",
            self.header.sample_file, self.header.num_processes
        );
        for r in &self.records {
            out.push_str(&codec::record_to_text(r));
            out.push('\n');
        }
        out
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::IoOp;

    fn sample() -> TraceFile {
        TraceFile::build(
            "big.dat",
            2,
            vec![
                TraceRecord::simple(IoOp::Open, 0, 0, 0),
                TraceRecord::simple(IoOp::Read, 0, 1024, 131072),
                TraceRecord::simple(IoOp::Seek, 1, 66617088, 0),
                TraceRecord::simple(IoOp::Write, 1, 0, 64),
                TraceRecord::simple(IoOp::Close, 0, 0, 0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_derives_counts() {
        let t = sample();
        assert_eq!(t.header.num_files, 2);
        assert_eq!(t.header.num_records, 5);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let bytes = t.to_bytes();
        let back = TraceFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.records, t.records);
        assert_eq!(back.header.sample_file, "big.dat");
        assert_eq!(back.header.records_offset, (4 + 2 + 26 + 7) as u64);
    }

    #[test]
    fn text_round_trip() {
        let t = sample();
        let text = t.to_text();
        let back = TraceFile::from_text(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn text_requires_header() {
        assert!(TraceFile::from_text("read 1 0 0 0 0 0 8\n").is_err());
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let text = "# comment\n\n!header s.dat 1\n  \nopen 1 0 0 0 0 0 0\n";
        let t = TraceFile::from_text(text).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn validate_rejects_file_id_overflow() {
        let mut t = sample();
        t.records[1].file_id = 99;
        assert!(matches!(t.validate(), Err(TraceError::FileIdOutOfRange { .. })));
    }

    #[test]
    fn validate_rejects_count_mismatch() {
        let mut t = sample();
        t.header.num_records = 3;
        assert!(t.validate().is_err());
    }

    #[test]
    fn truncated_records_detected() {
        let bytes = sample().to_bytes();
        let cut = bytes.len() - 10;
        assert!(matches!(TraceFile::from_bytes(&bytes[..cut]), Err(TraceError::Truncated { .. })));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.extend_from_slice(&[0u8; 7]);
        assert!(matches!(
            TraceFile::from_bytes(&bytes),
            Err(TraceError::TrailingBytes { extra: 7 })
        ));
    }

    #[test]
    fn load_missing_file_is_io_error() {
        assert!(matches!(TraceFile::load("/no/such/trace.clio"), Err(TraceError::Io(_))));
    }

    #[test]
    fn empty_trace_is_buildable() {
        let t = TraceFile::build("s.dat", 1, vec![]).unwrap();
        assert!(t.is_empty());
        let back = TraceFile::from_bytes(&t.to_bytes()).unwrap();
        assert!(back.is_empty());
    }
}
