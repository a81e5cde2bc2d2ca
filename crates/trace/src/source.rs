//! Streaming trace sources.
//!
//! A [`TraceSource`] yields [`TraceRecord`]s one at a time, so a replay
//! engine can consume a workload without a full in-memory [`TraceFile`]
//! ever existing — the door to replaying traces larger than memory and
//! to synthesizing unbounded workloads on the fly. Everything a replay
//! engine needs up front (sample-file name, file and process counts)
//! travels separately as [`SourceMeta`].
//!
//! Concrete sources:
//!
//! - [`SliceSource`] — borrows a [`TraceFile`] (or a raw record slice);
//!   the zero-copy adapter legacy entry points use,
//! - [`SharedSource`] — owns an `Arc<TraceFile>`; the adapter for
//!   workloads that hold a materialized trace,
//! - [`IterSource`] — wraps *any* `Iterator<Item = TraceRecord>`, so a
//!   generator closure can feed a replay directly,
//! - [`crate::synth::SynthSource`] — the streaming statistical
//!   synthesizer.
//!
//! Combinators build mixed scenarios out of simpler ones:
//!
//! - [`ChainSource`] — run A to completion, then B,
//! - [`WeightedSource`] — ratio-weighted merge (a records from A per b
//!   from B; 1:1 is the round-robin interleave), over disjoint or
//!   shared file namespaces ([`FileNamespace`]).
//!
//! [`PidSplitter`] demultiplexes any source into per-process streams
//! in one pass, buffering only what its consumers' cursors are apart
//! (plus the short prefix it reads ahead to learn the process roster) —
//! the adapter the pid-grouping simulators consume streaming workloads
//! through.
//!
//! The concurrent merge gives the two inputs **disjoint namespaces** by
//! default: B's file ids are offset by A's file count and B's pids by
//! A's process count, so a mix models two applications running
//! concurrently against their own files (contending for cache capacity
//! and disk time, not sharing pages). A chain offsets only file ids —
//! its pid spaces stay shared so the composition is sequential per
//! process even under pid-grouping engines. [`FileNamespace::Shared`]
//! is the deliberate exception: the merge offsets pids but **keeps the
//! file namespaces overlapped**, so two process populations contend
//! for the *same pages* — the page-sharing scenario the disjoint merge
//! cannot express. Captured clocks pass through untouched.

use std::sync::Arc;

use crate::error::TraceError;
use crate::reader::TraceFile;
use crate::record::TraceRecord;

/// The header-level facts a replay engine needs before the first record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMeta {
    /// Name of the sample file the trace runs against.
    pub sample_file: String,
    /// Number of capturing processes.
    pub num_processes: u32,
    /// Number of distinct files the records may reference; every
    /// record's `file_id` must be below this.
    pub num_files: u32,
}

impl SourceMeta {
    /// Extracts the metadata of an existing trace.
    pub fn of(trace: &TraceFile) -> Self {
        Self {
            sample_file: trace.header.sample_file.clone(),
            num_processes: trace.header.num_processes,
            num_files: trace.header.num_files,
        }
    }
}

/// A stream of trace records.
///
/// Implementations must yield records in capture order and must keep
/// every record's `file_id` below `meta().num_files` — replay engines
/// size their file tables from the metadata.
pub trait TraceSource {
    /// The header-level metadata of the stream.
    fn meta(&self) -> SourceMeta;

    /// The next record, or `None` once the stream is exhausted.
    fn next_record(&mut self) -> Option<TraceRecord>;

    /// Bounds on the number of records remaining, iterator-style:
    /// `(lower, upper)` with `None` for "unknown". Engines use the
    /// lower bound to pre-size result buffers.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// Why the stream ended, if it ended because it **failed**.
    ///
    /// Most sources cannot fail once built and keep the default
    /// `None`. A source that admits its input lazily
    /// ([`CompactStream`](crate::compact::CompactStream)) can meet a
    /// fault after records have been handed out: it then yields `None`
    /// from there on and parks the coded error here, to be taken once.
    /// Wrappers and combinators forward their inputs' failures. A
    /// consumer of such a source asks after the last record and must
    /// not trust what it computed from a stream that failed.
    fn take_failure(&mut self) -> Option<TraceError> {
        None
    }
}

/// Forwards every method to the source behind a pointer.
macro_rules! forward_trace_source {
    () => {
        fn meta(&self) -> SourceMeta {
            (**self).meta()
        }

        fn next_record(&mut self) -> Option<TraceRecord> {
            (**self).next_record()
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            (**self).size_hint()
        }

        fn take_failure(&mut self) -> Option<TraceError> {
            (**self).take_failure()
        }
    };
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    forward_trace_source!();
}

impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    forward_trace_source!();
}

/// Collects a source into an in-memory [`TraceFile`].
///
/// The header is rebuilt from the metadata and the collected records;
/// sources whose metadata declares more files than the records touch
/// keep the declared count.
pub fn materialize<S: TraceSource + ?Sized>(source: &mut S) -> Result<TraceFile, TraceError> {
    let meta = source.meta();
    let mut records = Vec::with_capacity(source.size_hint().0);
    while let Some(r) = source.next_record() {
        records.push(r);
    }
    if let Some(failure) = source.take_failure() {
        return Err(failure);
    }
    trace_of(meta, records)
}

/// The [`TraceFile`] of `records` under `meta`: header counts derived
/// from the records, the declared file count kept when it is larger.
pub(crate) fn trace_of(
    meta: SourceMeta,
    records: Vec<TraceRecord>,
) -> Result<TraceFile, TraceError> {
    let mut trace = TraceFile::build(meta.sample_file, meta.num_processes, records)?;
    if meta.num_files > trace.header.num_files {
        trace.header.num_files = meta.num_files;
    }
    Ok(trace)
}

/// A zero-copy source over a borrowed trace (or raw record slice).
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    records: &'a [TraceRecord],
    meta: SourceMeta,
    cursor: usize,
}

impl<'a> SliceSource<'a> {
    /// Streams an existing trace without copying it.
    pub fn new(trace: &'a TraceFile) -> Self {
        Self { records: &trace.records, meta: SourceMeta::of(trace), cursor: 0 }
    }

    /// Streams a raw record slice under explicit metadata.
    pub fn from_parts(records: &'a [TraceRecord], meta: SourceMeta) -> Self {
        Self { records, meta, cursor: 0 }
    }
}

impl TraceSource for SliceSource<'_> {
    fn meta(&self) -> SourceMeta {
        self.meta.clone()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        let r = self.records.get(self.cursor).copied();
        self.cursor += r.is_some() as usize;
        r
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.records.len() - self.cursor;
        (left, Some(left))
    }
}

/// A source over a shared, reference-counted trace.
#[derive(Debug, Clone)]
pub struct SharedSource {
    trace: Arc<TraceFile>,
    cursor: usize,
}

impl SharedSource {
    /// Streams a shared trace (cheap to re-open: clone the `Arc`).
    pub fn new(trace: Arc<TraceFile>) -> Self {
        Self { trace, cursor: 0 }
    }
}

impl TraceSource for SharedSource {
    fn meta(&self) -> SourceMeta {
        SourceMeta::of(&self.trace)
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        let r = self.trace.records.get(self.cursor).copied();
        self.cursor += r.is_some() as usize;
        r
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.records.len() - self.cursor;
        (left, Some(left))
    }
}

/// A source over any record iterator — the adapter that lets generator
/// closures feed a replay with no backing collection at all.
#[derive(Debug, Clone)]
pub struct IterSource<I> {
    iter: I,
    meta: SourceMeta,
}

impl<I: Iterator<Item = TraceRecord>> IterSource<I> {
    /// Wraps `iter` under `meta`. The caller vouches that every yielded
    /// record's `file_id` is below `meta.num_files`.
    pub fn new(meta: SourceMeta, iter: I) -> Self {
        Self { iter, meta }
    }
}

impl<I: Iterator<Item = TraceRecord>> TraceSource for IterSource<I> {
    fn meta(&self) -> SourceMeta {
        self.meta.clone()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        self.iter.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

/// Offsets a record of the second input into the combined namespace.
fn remap(mut r: TraceRecord, pid_offset: u32, file_offset: u32) -> TraceRecord {
    r.pid += pid_offset;
    r.file_id += file_offset;
    r
}

/// Adds two size hints.
fn add_hints(a: (usize, Option<usize>), b: (usize, Option<usize>)) -> (usize, Option<usize>) {
    (a.0 + b.0, a.1.zip(b.1).map(|(x, y)| x + y))
}

/// The failure of a two-input combinator: the first input's, else the
/// second's. (A failed input just looks exhausted to the combinator,
/// which goes on with the other; the run is void either way.)
fn take_either_failure<A: TraceSource, B: TraceSource>(a: &mut A, b: &mut B) -> Option<TraceError> {
    a.take_failure().or_else(|| b.take_failure())
}

/// Sequential composition: all of A, then all of B.
///
/// Unlike the concurrent merges, a chain keeps the two inputs' **pid
/// spaces shared** — B's process `p` continues A's process `p`, which
/// is what makes the composition genuinely sequential even under
/// engines that group records by pid (a process issues all of its A
/// records before its first B record). Only B's file ids are offset
/// into a fresh namespace (phase two works on its own files).
#[derive(Debug)]
pub struct ChainSource<A, B> {
    a: A,
    b: B,
    meta: SourceMeta,
    file_offset: u32,
}

impl<A: TraceSource, B: TraceSource> ChainSource<A, B> {
    /// Chains `a` before `b`.
    pub fn new(a: A, b: B) -> Self {
        let (ma, mb) = (a.meta(), b.meta());
        let meta = SourceMeta {
            sample_file: format!("chain({},{})", ma.sample_file, mb.sample_file),
            num_processes: ma.num_processes.max(mb.num_processes),
            num_files: ma.num_files + mb.num_files,
        };
        Self { a, b, meta, file_offset: ma.num_files }
    }
}

impl<A: TraceSource, B: TraceSource> TraceSource for ChainSource<A, B> {
    fn meta(&self) -> SourceMeta {
        self.meta.clone()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        self.a.next_record().or_else(|| self.b.next_record().map(|r| remap(r, 0, self.file_offset)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        add_hints(self.a.size_hint(), self.b.size_hint())
    }

    fn take_failure(&mut self) -> Option<TraceError> {
        take_either_failure(&mut self.a, &mut self.b)
    }
}

/// How a [`WeightedSource`] lays the second input's files beside the
/// first's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileNamespace {
    /// B's file ids are offset past A's: two applications on their own
    /// files. The merged stream declares `a + b` files and is tagged
    /// `mix(a,b)`.
    Disjoint,
    /// B's file ids are *not* remapped: both sides address the same
    /// files and contend for the same pages. The merged stream declares
    /// `max(a, b)` files and is tagged `share(a,b)` so reports can tell
    /// the two mixes apart. Open/close balance stays exact: each
    /// `(pid, file)` stream is untouched and the pid spaces are
    /// disjoint, so a record-level verifier sees two well-formed
    /// process populations over one file set.
    Shared,
}

/// Ratio-weighted merge: `weight_a` records from A, then `weight_b`
/// from B, repeating; an exhausted side yields its turns to the other.
/// At 1:1 this is the round-robin interleave. B's pids are always
/// offset into a fresh process space; its file ids follow the
/// [`FileNamespace`]. Deterministic — the schedule depends only on the
/// inputs.
#[derive(Debug)]
pub struct WeightedSource<A, B> {
    a: A,
    b: B,
    meta: SourceMeta,
    pid_offset: u32,
    file_offset: u32,
    weight_a: u32,
    weight_b: u32,
    /// Records already taken in the current burst.
    taken: u32,
    /// Whether the current burst draws from A.
    on_a: bool,
}

impl<A: TraceSource, B: TraceSource> WeightedSource<A, B> {
    /// Merges `weight_a` records of `a` per `weight_b` records of `b`,
    /// starting with `a`.
    ///
    /// # Panics
    /// Panics if either weight is zero.
    pub fn new(a: A, b: B, weight_a: u32, weight_b: u32, files: FileNamespace) -> Self {
        assert!(weight_a > 0 && weight_b > 0, "merge weights must be positive");
        let (ma, mb) = (a.meta(), b.meta());
        let (kind, num_files, file_offset) = match files {
            FileNamespace::Disjoint => ("mix", ma.num_files + mb.num_files, ma.num_files),
            FileNamespace::Shared => ("share", ma.num_files.max(mb.num_files), 0),
        };
        let meta = SourceMeta {
            sample_file: format!("{kind}({},{})", ma.sample_file, mb.sample_file),
            num_processes: ma.num_processes + mb.num_processes,
            num_files,
        };
        Self {
            a,
            b,
            meta,
            pid_offset: ma.num_processes,
            file_offset,
            weight_a,
            weight_b,
            taken: 0,
            on_a: true,
        }
    }

    fn flip(&mut self) {
        self.on_a = !self.on_a;
        self.taken = 0;
    }

    /// The next record of the side the current burst draws from.
    fn pull(&mut self) -> Option<TraceRecord> {
        if self.on_a {
            self.a.next_record()
        } else {
            self.b.next_record().map(|r| remap(r, self.pid_offset, self.file_offset))
        }
    }
}

impl<A: TraceSource, B: TraceSource> TraceSource for WeightedSource<A, B> {
    fn meta(&self) -> SourceMeta {
        self.meta.clone()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        let budget = if self.on_a { self.weight_a } else { self.weight_b };
        if self.taken >= budget {
            self.flip();
        }
        self.taken += 1;
        // A side that comes up dry yields its turn, and the record
        // counts against the other side's burst; the stream ends only
        // when the other side is dry too.
        self.pull().or_else(|| {
            self.flip();
            self.taken = 1;
            self.pull()
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        add_hints(self.a.size_hint(), self.b.size_hint())
    }

    fn take_failure(&mut self) -> Option<TraceError> {
        take_either_failure(&mut self.a, &mut self.b)
    }
}

/// A streaming per-pid splitter: demultiplexes one [`TraceSource`]
/// into per-process record streams in a **single pass**, buffering
/// only what lies between its consumers' cursors — the adapter that
/// lets the pid-grouping simulators consume a workload without
/// materializing it.
///
/// [`PidSplitter::next_for`] pulls the next record of one pid; records
/// of *other* pids encountered on the way are parked in per-pid FIFO
/// buffers and handed out when their pid is asked for. **Buffer
/// invariant:** the records buffered at any moment are exactly those
/// between each pid's consumption point and the global read cursor, so
/// peak buffering is the maximum *pid-interleave distance as consumed*:
/// how far the fastest consumer's cursor runs ahead of the slowest's.
/// That is a property of the demand pattern, not of the trace alone.
/// Consumers that advance in step over the round-robin interleavings
/// the trace writer and the mix combinators emit hold it at O(#pids);
/// a closed-loop simulation of processes with unequal service times
/// does not — the fast process runs ahead for the whole run, and the
/// slow one's records pile up in proportion to the trace length (a
/// third of a 180 000-record two-process mix, measured).
/// [`PidSplitter::peak_buffered`] reports the high-water mark, and the
/// simulators pass it on in their report.
///
/// [`PidSplitter::read_roster`] reads ahead — parking everything — just
/// far enough to learn which pids the stream carries, so a consumer
/// can start every process together without a pass of its own over
/// the stream.
#[derive(Debug)]
pub struct PidSplitter<S> {
    source: S,
    /// Parked records, per pid slot (first-appearance order).
    buffers: Vec<std::collections::VecDeque<TraceRecord>>,
    /// Slot -> pid, in first-appearance order.
    pids: Vec<u32>,
    source_done: bool,
    /// Records pulled from the source so far.
    read: u64,
    buffered: usize,
    peak_buffered: usize,
}

impl<S: TraceSource> PidSplitter<S> {
    /// Wraps `source`; nothing is read until the first demand.
    pub fn new(source: S) -> Self {
        Self {
            source,
            buffers: Vec::new(),
            pids: Vec::new(),
            source_done: false,
            read: 0,
            buffered: 0,
            peak_buffered: 0,
        }
    }

    /// Slot of `pid`, registering it on first sight.
    fn slot_of(&mut self, pid: u32) -> usize {
        match self.pids.iter().position(|&p| p == pid) {
            Some(slot) => slot,
            None => {
                self.pids.push(pid);
                self.buffers.push(std::collections::VecDeque::new());
                self.pids.len() - 1
            }
        }
    }

    /// The source's next record, counted.
    fn pull(&mut self) -> Option<TraceRecord> {
        if self.source_done {
            return None;
        }
        let r = self.source.next_record();
        match r {
            Some(_) => self.read += 1,
            None => self.source_done = true,
        }
        r
    }

    /// Parks `r` for its own pid's stream.
    fn park(&mut self, r: TraceRecord) {
        let slot = self.slot_of(r.pid);
        self.buffers[slot].push_back(r);
        self.buffered += 1;
        self.peak_buffered = self.peak_buffered.max(self.buffered);
    }

    /// The next record of `pid` in capture order, or `None` once that
    /// process's stream is exhausted. Records of other pids read on the
    /// way are parked for their own streams.
    pub fn next_for(&mut self, pid: u32) -> Option<TraceRecord> {
        let slot = self.slot_of(pid);
        if let Some(r) = self.buffers[slot].pop_front() {
            self.buffered -= 1;
            return Some(r);
        }
        while let Some(r) = self.pull() {
            if r.pid == pid {
                return Some(r);
            }
            self.park(r);
        }
        None
    }

    /// Reads ahead, parking every record, until `processes` distinct
    /// pids have been seen or the stream ends, and returns the pids
    /// seen so far in first-appearance order: the roster of the
    /// shortest prefix that shows `processes` of them (of the whole
    /// stream if it carries fewer). What was read is handed out by
    /// [`PidSplitter::next_for`] as usual, so nothing is read twice;
    /// the parked prefix counts towards
    /// [`PidSplitter::peak_buffered`].
    pub fn read_roster(&mut self, processes: usize) -> &[u32] {
        while self.pids.len() < processes {
            let Some(r) = self.pull() else { break };
            self.park(r);
        }
        &self.pids
    }

    /// The pids seen so far, in first-appearance order.
    pub fn pids_seen(&self) -> &[u32] {
        &self.pids
    }

    /// Records pulled from the source so far; the stream's length once
    /// any [`PidSplitter::next_for`] has returned `None`.
    pub fn records_read(&self) -> u64 {
        self.read
    }

    /// High-water mark of parked records — the observable side of the
    /// buffer invariant.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Total records currently parked.
    pub fn buffered(&self) -> usize {
        self.buffered
    }
}

/// Streams `source` to exhaustion, returning `(pids, record_count)`
/// with the pids in first-appearance order: the whole-stream roster, in
/// O(#pids) memory. The simulators do not run this pass — they take
/// their roster from [`PidSplitter::read_roster`] on the one stream
/// they replay; the `clio_e2e` benchmark times it as a layer row.
pub fn scan_pids<S: TraceSource + ?Sized>(source: &mut S) -> (Vec<u32>, u64) {
    let mut pids: Vec<u32> = Vec::new();
    let mut count = 0u64;
    while let Some(r) = source.next_record() {
        count += 1;
        if !pids.contains(&r.pid) {
            pids.push(r.pid);
        }
    }
    (pids, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::IoOp;

    fn reads(n: usize, file_id: u32) -> TraceFile {
        let records = (0..n)
            .map(|i| TraceRecord::simple(IoOp::Read, file_id, i as u64 * 4096, 4096))
            .collect();
        TraceFile::build(format!("f{file_id}.dat"), 1, records).unwrap()
    }

    fn drain(mut s: impl TraceSource) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        while let Some(r) = s.next_record() {
            out.push(r);
        }
        out
    }

    #[test]
    fn slice_source_round_trips() {
        let t = reads(5, 0);
        let src = SliceSource::new(&t);
        assert_eq!(src.meta(), SourceMeta::of(&t));
        assert_eq!(src.size_hint(), (5, Some(5)));
        assert_eq!(drain(src), t.records);
    }

    #[test]
    fn shared_source_round_trips() {
        let t = Arc::new(reads(4, 0));
        let src = SharedSource::new(t.clone());
        assert_eq!(drain(src), t.records);
    }

    #[test]
    fn materialize_rebuilds_the_trace() {
        let t = reads(6, 0);
        let back = materialize(&mut SliceSource::new(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn materialize_keeps_declared_file_count() {
        // A source may declare files its records never touch.
        let meta = SourceMeta { sample_file: "s.dat".into(), num_processes: 1, num_files: 3 };
        let records = vec![TraceRecord::simple(IoOp::Read, 0, 0, 4096)];
        let mut src = IterSource::new(meta, records.into_iter());
        let t = materialize(&mut src).unwrap();
        assert_eq!(t.header.num_files, 3);
    }

    #[test]
    fn iter_source_streams_a_generator() {
        let meta = SourceMeta { sample_file: "gen.dat".into(), num_processes: 1, num_files: 1 };
        let gen = (0..100u64).map(|i| TraceRecord::simple(IoOp::Read, 0, i * 8192, 8192));
        let src = IterSource::new(meta, gen);
        let records = drain(src);
        assert_eq!(records.len(), 100);
        assert_eq!(records[99].offset, 99 * 8192);
    }

    #[test]
    fn chain_runs_a_then_b_with_shared_pids_and_fresh_files() {
        let (a, b) = (reads(2, 0), reads(3, 0));
        let src = ChainSource::new(SliceSource::new(&a), SliceSource::new(&b));
        let meta = src.meta();
        assert_eq!(meta.num_files, 2);
        assert_eq!(meta.num_processes, 1, "chained phases share the pid space");
        let records = drain(src);
        assert_eq!(records.len(), 5);
        assert!(records[..2].iter().all(|r| r.file_id == 0 && r.pid == 0));
        assert!(records[2..].iter().all(|r| r.file_id == 1 && r.pid == 0));
    }

    #[test]
    fn interleave_alternates_and_drains_the_longer_side() {
        let (a, b) = (reads(2, 0), reads(4, 0));
        let src = WeightedSource::new(
            SliceSource::new(&a),
            SliceSource::new(&b),
            1,
            1,
            FileNamespace::Disjoint,
        );
        let files: Vec<u32> = drain(src).iter().map(|r| r.file_id).collect();
        assert_eq!(files, vec![0, 1, 0, 1, 1, 1]);
    }

    #[test]
    fn weighted_merge_respects_the_ratio() {
        let (a, b) = (reads(6, 0), reads(2, 0));
        let src = WeightedSource::new(
            SliceSource::new(&a),
            SliceSource::new(&b),
            3,
            1,
            FileNamespace::Disjoint,
        );
        let files: Vec<u32> = drain(src).iter().map(|r| r.file_id).collect();
        assert_eq!(files, vec![0, 0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn weighted_merge_survives_either_side_draining_first() {
        let (a, b) = (reads(1, 0), reads(5, 0));
        let src = WeightedSource::new(
            SliceSource::new(&a),
            SliceSource::new(&b),
            2,
            1,
            FileNamespace::Disjoint,
        );
        let records = drain(src);
        assert_eq!(records.len(), 6);
        assert_eq!(records.iter().filter(|r| r.file_id == 1).count(), 5);
    }

    #[test]
    #[should_panic(expected = "merge weights must be positive")]
    fn zero_weight_panics() {
        let (a, b) = (reads(1, 0), reads(1, 0));
        let _ = WeightedSource::new(
            SliceSource::new(&a),
            SliceSource::new(&b),
            0,
            1,
            FileNamespace::Disjoint,
        );
    }

    #[test]
    fn merged_streams_materialize_to_valid_traces() {
        let (a, b) = (reads(3, 0), reads(3, 0));
        let mut src = WeightedSource::new(
            SliceSource::new(&a),
            SliceSource::new(&b),
            1,
            1,
            FileNamespace::Disjoint,
        );
        let t = materialize(&mut src).unwrap();
        assert!(t.validate().is_ok());
        assert_eq!(t.header.num_files, 2);
    }

    #[test]
    fn share_merge_overlaps_files_and_splits_pids() {
        let (a, b) = (reads(3, 0), reads(3, 0));
        let src = WeightedSource::new(
            SliceSource::new(&a),
            SliceSource::new(&b),
            1,
            1,
            FileNamespace::Shared,
        );
        let meta = src.meta();
        assert_eq!(meta.num_files, 1, "file namespaces overlap");
        assert_eq!(meta.num_processes, 2, "pid namespaces stay disjoint");
        assert!(meta.sample_file.starts_with("share("));
        let records = drain(src);
        assert_eq!(records.len(), 6);
        assert!(records.iter().all(|r| r.file_id == 0), "both sides address the same file");
        let pids: Vec<u32> = records.iter().map(|r| r.pid).collect();
        assert_eq!(pids, vec![0, 1, 0, 1, 0, 1], "round-robin across the two populations");
    }

    #[test]
    fn share_merge_materializes_to_a_valid_trace() {
        let (a, b) = (reads(4, 0), reads(2, 0));
        let mut src = WeightedSource::new(
            SliceSource::new(&a),
            SliceSource::new(&b),
            1,
            1,
            FileNamespace::Shared,
        );
        let t = materialize(&mut src).unwrap();
        assert!(t.validate().is_ok());
        assert_eq!(t.header.num_files, 1);
        assert_eq!(t.header.num_processes, 2);
        // Cross-pid page sharing is structural: the same file id is
        // touched by more than one pid.
        let pids_on_file0: std::collections::BTreeSet<u32> =
            t.records.iter().filter(|r| r.file_id == 0).map(|r| r.pid).collect();
        assert!(pids_on_file0.len() > 1, "shared file must see multiple pids");
    }

    /// A `procs`-process round-robin trace: pid 0, 1, …, procs-1, 0, ….
    fn round_robin(procs: u32, rounds: usize) -> TraceFile {
        let mut records = Vec::new();
        for i in 0..rounds as u64 {
            for pid in 0..procs {
                let mut r = TraceRecord::simple(IoOp::Read, 0, i * 4096, 4096);
                r.pid = pid;
                records.push(r);
            }
        }
        TraceFile::build("rr.dat", procs, records).unwrap()
    }

    #[test]
    fn splitter_yields_each_pid_in_capture_order() {
        let t = round_robin(3, 5);
        let mut split = PidSplitter::new(SliceSource::new(&t));
        for pid in 0..3u32 {
            let expected: Vec<TraceRecord> =
                t.records.iter().filter(|r| r.pid == pid).copied().collect();
            let mut got = Vec::new();
            while let Some(r) = split.next_for(pid) {
                got.push(r);
            }
            assert_eq!(got, expected, "pid {pid}");
        }
        assert_eq!(split.pids_seen(), &[0, 1, 2]);
        assert_eq!(split.buffered(), 0, "everything handed out");
    }

    #[test]
    fn splitter_interleaved_demand_keeps_buffers_bounded() {
        // Round-robin demand over a round-robin trace: buffering never
        // exceeds one interleave stride — the bounded-buffer invariant.
        let procs = 4u32;
        let t = round_robin(procs, 50);
        let mut split = PidSplitter::new(SliceSource::new(&t));
        let mut served = 0usize;
        'outer: loop {
            for pid in 0..procs {
                if split.next_for(pid).is_none() {
                    break 'outer;
                }
                served += 1;
            }
        }
        assert_eq!(served, t.len());
        assert!(
            split.peak_buffered() < 2 * procs as usize,
            "peak {} must stay within one interleave stride of {} pids",
            split.peak_buffered(),
            procs
        );
    }

    #[test]
    fn splitter_worst_case_buffers_the_leading_block_only() {
        // All of pid 1's records come first: demanding pid 0 must park
        // exactly that block, no more.
        let mut records = Vec::new();
        for i in 0..10u64 {
            let mut r = TraceRecord::simple(IoOp::Read, 0, i * 4096, 4096);
            r.pid = 1;
            records.push(r);
        }
        records.push(TraceRecord::simple(IoOp::Read, 0, 0, 4096)); // pid 0
        let t = TraceFile::build("block.dat", 2, records).unwrap();
        let mut split = PidSplitter::new(SliceSource::new(&t));
        assert!(split.next_for(0).is_some());
        assert_eq!(split.peak_buffered(), 10);
        assert_eq!(split.buffered(), 10);
        for _ in 0..10 {
            assert!(split.next_for(1).is_some());
        }
        assert_eq!(split.buffered(), 0);
        assert!(split.next_for(1).is_none());
    }

    #[test]
    fn splitter_unknown_pid_drains_nothing_extra() {
        let t = round_robin(2, 3);
        let mut split = PidSplitter::new(SliceSource::new(&t));
        // Asking for a pid the trace never mentions scans to the end —
        // and parks everything, which is then served normally.
        assert!(split.next_for(99).is_none());
        assert_eq!(split.buffered(), t.len());
        assert!(split.next_for(0).is_some());
    }

    #[test]
    fn read_roster_stops_at_the_shortest_prefix_and_loses_nothing() {
        // pids 2, 0, 2, 1, 0, 2: two of them show after two records,
        // all three after four.
        let mut records = Vec::new();
        for (i, &pid) in [2u32, 0, 2, 1, 0, 2].iter().enumerate() {
            let mut r = TraceRecord::simple(IoOp::Read, 0, i as u64 * 4096, 4096);
            r.pid = pid;
            records.push(r);
        }
        let t = TraceFile::build("order.dat", 3, records).unwrap();
        let mut split = PidSplitter::new(SliceSource::new(&t));
        assert_eq!(split.records_read(), 0, "nothing is read before the first demand");
        assert_eq!(split.read_roster(2), &[2, 0]);
        assert_eq!((split.records_read(), split.buffered()), (2, 2));
        assert_eq!(split.read_roster(3), &[2, 0, 1]);
        assert_eq!((split.records_read(), split.peak_buffered()), (4, 4));
        // More than the stream carries: the whole stream, same roster.
        assert_eq!(split.read_roster(9), &[2, 0, 1]);
        assert_eq!(split.records_read(), 6);
        // The parked prefix is handed out per pid, in capture order.
        for pid in [2u32, 0, 1] {
            let expected: Vec<TraceRecord> =
                t.records.iter().filter(|r| r.pid == pid).copied().collect();
            let got: Vec<TraceRecord> = std::iter::from_fn(|| split.next_for(pid)).collect();
            assert_eq!(got, expected, "pid {pid}");
        }
        assert_eq!(split.buffered(), 0);
    }

    #[test]
    fn scan_pids_reports_first_appearance_order_and_count() {
        let mut records = Vec::new();
        for &pid in &[2u32, 0, 2, 1, 0, 2] {
            let mut r = TraceRecord::simple(IoOp::Read, 0, 0, 4096);
            r.pid = pid;
            records.push(r);
        }
        let t = TraceFile::build("order.dat", 3, records).unwrap();
        let (pids, count) = scan_pids(&mut SliceSource::new(&t));
        assert_eq!(pids, vec![2, 0, 1]);
        assert_eq!(count, 6);
    }
}
