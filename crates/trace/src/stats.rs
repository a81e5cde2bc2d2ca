//! Trace-level statistics.
//!
//! Before replaying, the harness characterizes a trace: operation mix,
//! byte volume, request-size distribution and a sequentiality measure
//! (fraction of data operations whose offset continues the previous one
//! on the same file). The five application traces differ exactly along
//! these axes — LU is dominated by huge seeks, Dmine by uniform
//! synchronous reads, Cholesky by a widening spread of request sizes.

use std::collections::HashMap;

use clio_stats::Summary;

use crate::reader::TraceFile;
use crate::record::IoOp;

/// Aggregate statistics over one trace.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Operation counts, indexed by [`IoOp::code`].
    pub op_counts: [u64; 5],
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Request-size summary over data operations.
    pub request_sizes: Summary,
    /// Fraction of data operations that sequentially continue the
    /// previous operation on the same file (0 when no data ops).
    pub sequentiality: f64,
    /// Number of distinct files touched.
    pub files_touched: usize,
}

impl TraceStats {
    /// Computes statistics for `trace`.
    pub fn compute(trace: &TraceFile) -> Self {
        let mut op_counts = [0u64; 5];
        let mut bytes_read = 0u64;
        let mut bytes_written = 0u64;
        let mut request_sizes = Summary::new();
        let mut last_end: HashMap<u32, u64> = HashMap::new();
        let mut sequential = 0u64;
        let mut data_ops = 0u64;
        let mut files: HashMap<u32, ()> = HashMap::new();

        for r in &trace.records {
            op_counts[r.op.code() as usize] += r.num_records.max(1) as u64;
            files.insert(r.file_id, ());
            match r.op {
                IoOp::Read => bytes_read += r.bytes_moved(),
                IoOp::Write => bytes_written += r.bytes_moved(),
                _ => {}
            }
            if r.op.transfers_data() {
                data_ops += 1;
                request_sizes.add(r.length as f64);
                if let Some(&end) = last_end.get(&r.file_id) {
                    if r.offset == end {
                        sequential += 1;
                    }
                }
                last_end.insert(r.file_id, r.offset + r.length);
            } else if r.op == IoOp::Seek {
                // A seek re-positions the stream: subsequent access at the
                // seek target counts as sequential continuation.
                last_end.insert(r.file_id, r.offset);
            }
        }

        Self {
            op_counts,
            bytes_read,
            bytes_written,
            request_sizes,
            sequentiality: if data_ops == 0 { 0.0 } else { sequential as f64 / data_ops as f64 },
            files_touched: files.len(),
        }
    }

    /// Count for one operation kind.
    pub fn count(&self, op: IoOp) -> u64 {
        self.op_counts[op.code() as usize]
    }

    /// Total operations.
    pub fn total_ops(&self) -> u64 {
        self.op_counts.iter().sum()
    }

    /// Whether the trace is read-dominated (paper's Dmine/Titan shape).
    pub fn is_read_dominated(&self) -> bool {
        self.count(IoOp::Read) > self.count(IoOp::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    fn trace(records: Vec<TraceRecord>) -> TraceFile {
        TraceFile::build("s.dat", 1, records).unwrap()
    }

    #[test]
    fn counts_and_bytes() {
        let t = trace(vec![
            TraceRecord::simple(IoOp::Open, 0, 0, 0),
            TraceRecord::simple(IoOp::Read, 0, 0, 100),
            TraceRecord::simple(IoOp::Read, 0, 100, 50),
            TraceRecord::simple(IoOp::Write, 0, 0, 10),
            TraceRecord::simple(IoOp::Close, 0, 0, 0),
        ]);
        let s = TraceStats::compute(&t);
        assert_eq!(s.count(IoOp::Read), 2);
        assert_eq!(s.count(IoOp::Write), 1);
        assert_eq!(s.bytes_read, 150);
        assert_eq!(s.bytes_written, 10);
        assert_eq!(s.total_ops(), 5);
        assert!(s.is_read_dominated());
        assert_eq!(s.files_touched, 1);
    }

    #[test]
    fn sequentiality_of_streaming_reads() {
        let t = trace(vec![
            TraceRecord::simple(IoOp::Read, 0, 0, 100),
            TraceRecord::simple(IoOp::Read, 0, 100, 100),
            TraceRecord::simple(IoOp::Read, 0, 200, 100),
        ]);
        let s = TraceStats::compute(&t);
        assert!((s.sequentiality - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sequentiality_zero_for_random_access() {
        let t = trace(vec![
            TraceRecord::simple(IoOp::Read, 0, 5000, 100),
            TraceRecord::simple(IoOp::Read, 0, 0, 100),
            TraceRecord::simple(IoOp::Read, 0, 90000, 100),
        ]);
        assert_eq!(TraceStats::compute(&t).sequentiality, 0.0);
    }

    #[test]
    fn seek_redirects_sequentiality() {
        let t = trace(vec![
            TraceRecord::simple(IoOp::Seek, 0, 1000, 0),
            TraceRecord::simple(IoOp::Read, 0, 1000, 100),
        ]);
        assert_eq!(TraceStats::compute(&t).sequentiality, 1.0);
    }

    #[test]
    fn repeat_counts_multiply() {
        let mut r = TraceRecord::simple(IoOp::Read, 0, 0, 100);
        r.num_records = 4;
        let s = TraceStats::compute(&trace(vec![r]));
        assert_eq!(s.count(IoOp::Read), 4);
        assert_eq!(s.bytes_read, 400);
    }

    #[test]
    fn empty_trace_stats() {
        let s = TraceStats::compute(&trace(vec![]));
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.sequentiality, 0.0);
        assert_eq!(s.request_sizes.count(), 0);
    }

    #[test]
    fn multi_file_touch_count() {
        let t = trace(vec![
            TraceRecord::simple(IoOp::Read, 0, 0, 1),
            TraceRecord::simple(IoOp::Read, 2, 0, 1),
        ]);
        assert_eq!(TraceStats::compute(&t).files_touched, 2);
    }
}
