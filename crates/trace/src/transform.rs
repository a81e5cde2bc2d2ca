//! Trace transformations: filter, split, merge, shift.
//!
//! The paper's experiment harness works with one trace per application,
//! but the planned distributed follow-up ("develop benchmarks for
//! I/O-intensive computing in a widely distributed environment") needs
//! trace surgery: merging per-node traces into one timeline, splitting
//! a merged trace back per process, selecting the operation mix under
//! study, and aligning clocks. Every transform here is *total* over
//! valid traces and rebuilds the header so the result still validates.

use crate::error::TraceError;
use crate::reader::TraceFile;
use crate::record::{IoOp, TraceRecord};

/// Keeps only the records `pred` accepts, preserving order.
///
/// # Errors
/// Returns an error if the surviving set cannot form a valid trace
/// (this cannot happen for non-degenerate headers — filtering never
/// invents file ids).
pub fn filter<F>(trace: &TraceFile, pred: F) -> Result<TraceFile, TraceError>
where
    F: FnMut(&TraceRecord) -> bool,
{
    let records: Vec<TraceRecord> = trace.records.iter().copied().filter(pred).collect();
    rebuild(trace, records)
}

/// Keeps only records whose operation is in `ops`.
pub fn filter_by_op(trace: &TraceFile, ops: &[IoOp]) -> Result<TraceFile, TraceError> {
    filter(trace, |r| ops.contains(&r.op))
}

/// Keeps only one process's records.
pub fn filter_by_pid(trace: &TraceFile, pid: u32) -> Result<TraceFile, TraceError> {
    filter(trace, |r| r.pid == pid)
}

/// Splits a trace into per-process traces, ordered by pid.
pub fn split_by_process(trace: &TraceFile) -> Result<Vec<(u32, TraceFile)>, TraceError> {
    let mut pids: Vec<u32> = trace.records.iter().map(|r| r.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    pids.into_iter().map(|pid| Ok((pid, filter_by_pid(trace, pid)?))).collect()
}

/// Merges traces into a single timeline ordered by wall-clock time.
///
/// The merge is *stable*: records with equal timestamps keep the order
/// of their source traces (then their order within the source), so
/// merging is deterministic. The sample file and process count are
/// taken from the union; all inputs must name the same sample file.
///
/// # Errors
/// Fails on an empty input set or mismatched sample files.
pub fn merge(traces: &[TraceFile]) -> Result<TraceFile, TraceError> {
    let first =
        traces.first().ok_or_else(|| TraceError::BadHeader("merge of zero traces".into()))?;
    for t in traces {
        if t.header.sample_file != first.header.sample_file {
            return Err(TraceError::BadHeader(format!(
                "merge across sample files {:?} and {:?}",
                first.header.sample_file, t.header.sample_file
            )));
        }
    }
    let mut tagged: Vec<(u64, usize, usize, TraceRecord)> = Vec::new();
    for (ti, t) in traces.iter().enumerate() {
        for (ri, r) in t.records.iter().enumerate() {
            tagged.push((r.wall_clock_us, ti, ri, *r));
        }
    }
    tagged.sort_by_key(|&(ts, ti, ri, _)| (ts, ti, ri));
    let records: Vec<TraceRecord> = tagged.into_iter().map(|(_, _, _, r)| r).collect();
    let num_processes = traces.iter().map(|t| t.header.num_processes).sum::<u32>().max(1);
    TraceFile::build(first.header.sample_file.clone(), num_processes, records)
}

/// Shifts every record's clocks by `delta_us` (saturating at zero for
/// negative shifts).
pub fn shift_time(trace: &TraceFile, delta_us: i64) -> Result<TraceFile, TraceError> {
    let records = trace
        .records
        .iter()
        .map(|r| {
            let mut r = *r;
            r.wall_clock_us = saturating_shift(r.wall_clock_us, delta_us);
            r.proc_clock_us = saturating_shift(r.proc_clock_us, delta_us);
            r
        })
        .collect();
    rebuild(trace, records)
}

fn saturating_shift(t: u64, delta: i64) -> u64 {
    if delta >= 0 {
        t.saturating_add(delta as u64)
    } else {
        t.saturating_sub(delta.unsigned_abs())
    }
}

fn rebuild(source: &TraceFile, records: Vec<TraceRecord>) -> Result<TraceFile, TraceError> {
    TraceFile::build(source.header.sample_file.clone(), source.header.num_processes, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use proptest::prelude::*;

    fn sample_trace(pid_ops: &[(u32, IoOp, u64, u64)]) -> TraceFile {
        let mut w = TraceWriter::new("sample-1gb.dat")
            .with_processes(pid_ops.iter().map(|&(p, ..)| p).max().unwrap_or(0) + 1);
        for &(pid, op, offset, length) in pid_ops {
            w.record(op, pid, 0, offset, length);
        }
        w.finish().expect("valid trace")
    }

    #[test]
    fn filter_by_op_keeps_only_reads() {
        let t = sample_trace(&[
            (0, IoOp::Open, 0, 0),
            (0, IoOp::Read, 0, 4096),
            (0, IoOp::Write, 4096, 100),
            (0, IoOp::Close, 0, 0),
        ]);
        let reads = filter_by_op(&t, &[IoOp::Read]).unwrap();
        assert_eq!(reads.records.len(), 1);
        assert_eq!(reads.records[0].op, IoOp::Read);
        reads.validate().unwrap();
    }

    #[test]
    fn split_then_merge_is_identity_when_sorted() {
        // Records with strictly increasing wall clocks: splitting per
        // process and merging back must restore the original order.
        let t = sample_trace(&[
            (0, IoOp::Read, 0, 10),
            (1, IoOp::Read, 10, 10),
            (0, IoOp::Write, 20, 10),
            (2, IoOp::Seek, 30, 0),
            (1, IoOp::Close, 0, 0),
        ]);
        let parts = split_by_process(&t).unwrap();
        assert_eq!(parts.len(), 3);
        let merged = merge(&parts.into_iter().map(|(_, t)| t).collect::<Vec<_>>()).unwrap();
        assert_eq!(merged.records, t.records);
    }

    #[test]
    fn merge_is_stable_on_timestamp_ties() {
        let mut w1 = TraceWriter::new("s").with_tick_us(0);
        w1.op(IoOp::Read, 0, 0, 1);
        w1.op(IoOp::Read, 0, 0, 2);
        let t1 = w1.finish().unwrap();
        let mut w2 = TraceWriter::new("s").with_tick_us(0);
        w2.op(IoOp::Read, 0, 0, 3);
        let t2 = w2.finish().unwrap();
        let merged = merge(&[t1, t2]).unwrap();
        let lens: Vec<u64> = merged.records.iter().map(|r| r.length).collect();
        assert_eq!(lens, vec![1, 2, 3], "ties keep source order");
    }

    #[test]
    fn merge_rejects_mismatched_sample_files() {
        let t1 = sample_trace(&[(0, IoOp::Read, 0, 1)]);
        let mut w = TraceWriter::new("other.dat");
        w.op(IoOp::Read, 0, 0, 1);
        let t2 = w.finish().unwrap();
        assert!(merge(&[t1, t2]).is_err());
        assert!(merge(&[]).is_err());
    }

    #[test]
    fn shift_time_saturates_at_zero() {
        let t = sample_trace(&[(0, IoOp::Read, 0, 1)]);
        let shifted = shift_time(&t, -1_000_000_000).unwrap();
        assert!(shifted.records.iter().all(|r| r.wall_clock_us == 0));
        let forward = shift_time(&t, 500).unwrap();
        assert!(forward.records[0].wall_clock_us >= 500);
    }

    proptest! {
        #[test]
        fn filter_preserves_relative_order(
            ops in proptest::collection::vec((0u32..4, 0u64..1000, 0u64..100), 0..50),
        ) {
            let recs: Vec<(u32, IoOp, u64, u64)> = ops
                .iter()
                .map(|&(p, o, l)| (p, IoOp::Read, o, l))
                .collect();
            if recs.is_empty() {
                return Ok(());
            }
            let t = sample_trace(&recs);
            let f = filter(&t, |r| r.length % 2 == 0).unwrap();
            // Surviving records appear in the same relative order.
            let survivors: Vec<_> =
                t.records.iter().filter(|r| r.length % 2 == 0).copied().collect();
            prop_assert_eq!(f.records, survivors);
        }

        #[test]
        fn merge_output_is_sorted_by_wall_clock(
            a in proptest::collection::vec(0u64..100, 1..20),
            b in proptest::collection::vec(0u64..100, 1..20),
        ) {
            let build = |lens: &[u64]| {
                let mut w = TraceWriter::new("s");
                for &l in lens {
                    w.op(IoOp::Read, 0, 0, l);
                }
                w.finish().unwrap()
            };
            let merged = merge(&[build(&a), build(&b)]).unwrap();
            let stamps: Vec<u64> = merged.records.iter().map(|r| r.wall_clock_us).collect();
            prop_assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(merged.records.len(), a.len() + b.len());
            merged.validate().unwrap();
        }

        #[test]
        fn split_partitions_exactly(
            pids in proptest::collection::vec(0u32..5, 1..40),
        ) {
            let recs: Vec<(u32, IoOp, u64, u64)> =
                pids.iter().map(|&p| (p, IoOp::Read, 0, 8)).collect();
            let t = sample_trace(&recs);
            let parts = split_by_process(&t).unwrap();
            let total: usize = parts.iter().map(|(_, p)| p.records.len()).sum();
            prop_assert_eq!(total, t.records.len());
            for (pid, part) in &parts {
                prop_assert!(part.records.iter().all(|r| r.pid == *pid));
                part.validate().unwrap();
            }
        }
    }
}
