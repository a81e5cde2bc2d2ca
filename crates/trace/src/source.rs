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
//! in one pass — the adapter the pid-grouping simulators consume
//! streaming workloads through. A source that is built of parts with
//! disjoint pid ranges ([`TraceSource::pid_parts`]: a synthetic stream,
//! a mix of such) lets it pull each pid from its own part, so it parks
//! nothing but the short prefix it reads ahead to learn the process
//! roster.
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

use std::collections::VecDeque;
use std::ops::Range;
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
/// every record's `file_id` below `meta().num_files` — a replay engine
/// ends with [`TraceError::FileIdOutOfRange`] at a record past it.
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

    /// The pid range of each part of the stream, when the source can
    /// **vouch** for them: every record it yields lies in exactly one
    /// part, the part whose range holds its pid, *by construction* — no
    /// input and no header can make a record leave it. The ranges are
    /// disjoint and lie below `meta().num_processes`. The merged stream
    /// ([`TraceSource::next_record`]) and the parts
    /// ([`TraceSource::next_from`]) hand out the same records: each
    /// once, and each part's in the order the merged stream has them,
    /// however the two kinds of pull are mixed.
    ///
    /// The default, `None`, is one part: the stream itself. A source
    /// that only *declares* its pids (a file header, a caller's
    /// [`SourceMeta`]) keeps it.
    fn pid_parts(&self) -> Option<Vec<Range<u32>>> {
        None
    }

    /// The next record of part `part` alone (see
    /// [`TraceSource::pid_parts`]), or `None` once that part is
    /// exhausted. Part 0 of a one-part source is the stream.
    fn next_from(&mut self, part: usize) -> Option<TraceRecord> {
        if part == 0 {
            self.next_record()
        } else {
            None
        }
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

        fn pid_parts(&self) -> Option<Vec<Range<u32>>> {
            (**self).pid_parts()
        }

        fn next_from(&mut self, part: usize) -> Option<TraceRecord> {
            (**self).next_from(part)
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
///
/// When both sides vouch for their pids ([`TraceSource::pid_parts`]),
/// so does the merge: A's parts, then B's shifted by the pid offset,
/// each pulled from its own side.
#[derive(Debug)]
pub struct WeightedSource<A, B> {
    a: A,
    b: B,
    meta: SourceMeta,
    pid_offset: u32,
    file_offset: u32,
    /// How many parts A has, when both sides vouch for their pids;
    /// `None` makes the merge one part.
    a_parts: Option<usize>,
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
        let a_parts = a.pid_parts().zip(b.pid_parts()).map(|(parts, _)| parts.len());
        Self {
            a,
            b,
            meta,
            pid_offset: ma.num_processes,
            file_offset,
            a_parts,
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

    fn pid_parts(&self) -> Option<Vec<Range<u32>>> {
        let (a, b) = (self.a.pid_parts()?, self.b.pid_parts()?);
        let shift = |p: Range<u32>| p.start + self.pid_offset..p.end + self.pid_offset;
        Some(a.into_iter().chain(b.into_iter().map(shift)).collect())
    }

    fn next_from(&mut self, part: usize) -> Option<TraceRecord> {
        match self.a_parts {
            Some(a_parts) if part < a_parts => self.a.next_from(part),
            Some(a_parts) => self
                .b
                .next_from(part - a_parts)
                .map(|r| remap(r, self.pid_offset, self.file_offset)),
            None if part == 0 => self.next_record(),
            None => None,
        }
    }
}

/// A streaming per-pid splitter: demultiplexes one [`TraceSource`]
/// into per-process record streams in a **single pass** — the adapter
/// that lets the pid-grouping simulators consume a workload without
/// materializing it.
///
/// [`PidSplitter::next_for`] pulls the next record of one pid from the
/// part of the source that carries it ([`TraceSource::pid_parts`]; a
/// source that cannot vouch for its pids is one part, the whole
/// stream). Records of *other* pids of that part met on the way are
/// parked in per-pid FIFO buffers and handed out when their pid is
/// asked for. **Buffer invariant:** the records buffered at any moment
/// are exactly those of each part between its pids' consumption points
/// and the part's read cursor. Two demands put them there: a consumer
/// running ahead of another pid of its part, and — the larger term — a
/// consumer learning that its pid is *done*, which takes reading its
/// part to the end and parking every record of the part's other pids
/// left in it. On a one-part stream of two processes of unequal length
/// that is the longer one's whole tail, whatever the demand pattern
/// (63 304 of 278 972 records of the benchmark's two-process mix,
/// exactly the difference of its sides). A source whose parts carry
/// one pid each — a synthetic stream, any mix of them — parks nothing
/// past the roster prefix: the peak is at most the number of parts.
/// [`PidSplitter::peak_buffered`] reports the high-water mark, and the
/// simulators pass it on in their report.
///
/// [`PidSplitter::read_roster`] reads ahead through the merged stream —
/// parking everything — just far enough to learn which pids the stream
/// carries, so a consumer can start every process together, in
/// first-appearance order, without a pass of its own over the stream.
#[derive(Debug)]
pub struct PidSplitter<S> {
    source: S,
    /// The pid range of each part the source vouches for; `None` when
    /// it is one part, the stream.
    parts: Option<Vec<Range<u32>>>,
    /// Per part: whether it has ended (all of them once the merged
    /// stream has).
    done: Vec<bool>,
    /// Parked records, per pid slot (first-appearance order).
    buffers: Vec<VecDeque<TraceRecord>>,
    /// Slot -> pid, in first-appearance order.
    pids: Vec<u32>,
    /// Records pulled from the source so far.
    read: u64,
    buffered: usize,
    peak_buffered: usize,
}

impl<S: TraceSource> PidSplitter<S> {
    /// Wraps `source` and routes each pid to its part; nothing is read
    /// until the first demand.
    pub fn new(source: S) -> Self {
        let parts = source.pid_parts();
        let done = vec![false; parts.as_ref().map_or(1, Vec::len)];
        Self {
            source,
            parts,
            done,
            buffers: Vec::new(),
            pids: Vec::new(),
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
                self.buffers.push(VecDeque::new());
                self.pids.len() - 1
            }
        }
    }

    /// The part that carries `pid`: part 0 of a one-part source, `None`
    /// for a pid no vouched part can carry.
    fn part_of(&self, pid: u32) -> Option<usize> {
        match &self.parts {
            None => Some(0),
            Some(parts) => parts.iter().position(|range| range.contains(&pid)),
        }
    }

    /// The next record of `part` — of the merged stream for `None` —
    /// counted. What has ended is not asked again.
    fn pull(&mut self, part: Option<usize>) -> Option<TraceRecord> {
        let r = match part {
            Some(p) if !self.done[p] => self.source.next_from(p),
            None if self.done.contains(&false) => self.source.next_record(),
            _ => return None,
        };
        match (r, part) {
            (Some(_), _) => self.read += 1,
            (None, Some(p)) => self.done[p] = true,
            (None, None) => self.done.fill(true),
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
    /// process's stream is exhausted. Records of other pids of its part
    /// read on the way are parked for their own streams.
    pub fn next_for(&mut self, pid: u32) -> Option<TraceRecord> {
        let slot = self.slot_of(pid);
        if let Some(r) = self.buffers[slot].pop_front() {
            self.buffered -= 1;
            return Some(r);
        }
        let part = self.part_of(pid)?;
        while let Some(r) = self.pull(Some(part)) {
            if r.pid == pid {
                return Some(r);
            }
            self.park(r);
        }
        None
    }

    /// Reads ahead through the merged stream, parking every record,
    /// until `processes` distinct pids have been seen or the stream
    /// ends, and returns the pids seen so far in first-appearance
    /// order: the roster of the shortest prefix that shows `processes`
    /// of them (of the whole stream if it carries fewer). What was read
    /// is handed out by [`PidSplitter::next_for`] as usual, so nothing
    /// is read twice; the parked prefix counts towards
    /// [`PidSplitter::peak_buffered`].
    pub fn read_roster(&mut self, processes: usize) -> &[u32] {
        while self.pids.len() < processes {
            let Some(r) = self.pull(None) else { break };
            self.park(r);
        }
        &self.pids
    }

    /// The pids seen so far, in first-appearance order.
    pub fn pids_seen(&self) -> &[u32] {
        &self.pids
    }

    /// Records pulled from the source so far; the stream's length once
    /// a [`PidSplitter::next_for`] has returned `None` for a pid of
    /// every part (of a one-part source: once any has).
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
    use crate::fault::{FaultKind, FaultPlan, FaultSource};
    use crate::record::IoOp;
    use crate::synth::{SynthSource, TraceProfile};

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

    /// A synthetic side with no seeks: `data_ops + 2` records, all pid 0.
    fn synth(data_ops: usize, seed: u64) -> SynthSource {
        let profile = TraceProfile { data_ops, seed, explicit_seeks: false, ..Default::default() };
        SynthSource::new(profile).unwrap()
    }

    fn mix<A: TraceSource, B: TraceSource>(a: A, b: B) -> WeightedSource<A, B> {
        WeightedSource::new(a, b, 1, 1, FileNamespace::Disjoint)
    }

    /// A caller's own source: only the required methods.
    struct Custom(std::vec::IntoIter<TraceRecord>);

    impl TraceSource for Custom {
        fn meta(&self) -> SourceMeta {
            SourceMeta { sample_file: "custom.dat".into(), num_processes: 1, num_files: 1 }
        }

        fn next_record(&mut self) -> Option<TraceRecord> {
            self.0.next()
        }
    }

    #[test]
    fn nested_mixes_vouch_for_one_part_per_synthetic_side() {
        assert_eq!(synth(4, 1).pid_parts(), Some(vec![Range { start: 0, end: 1 }]));
        let pair = || mix(synth(4, 1), synth(4, 2));
        assert_eq!(pair().pid_parts(), Some(vec![0..1, 1..2]));
        assert_eq!(mix(synth(4, 3), pair()).pid_parts(), Some(vec![0..1, 1..2, 2..3]));
        let quad = WeightedSource::new(pair(), pair(), 3, 1, FileNamespace::Shared);
        assert_eq!(quad.pid_parts(), Some(vec![0..1, 1..2, 2..3, 3..4]));
        assert_eq!(quad.meta().num_processes, 4, "the parts lie below the declared count");
        let boxed: Box<dyn TraceSource> = Box::new(quad);
        assert_eq!(boxed.pid_parts(), Some(vec![0..1, 1..2, 2..3, 3..4]), "through a Box");
    }

    #[test]
    fn a_mix_vouches_only_when_every_side_does() {
        let t = Arc::new(round_robin(1, 3));
        let open = |kind: &str| -> Box<dyn TraceSource> {
            match kind {
                "custom" => Box::new(Custom(t.records.clone().into_iter())),
                "iterator" => {
                    Box::new(IterSource::new(SourceMeta::of(&t), t.records.clone().into_iter()))
                }
                "shared" => Box::new(SharedSource::new(t.clone())),
                "chain" => Box::new(ChainSource::new(synth(4, 1), synth(4, 2))),
                _ => {
                    let plan = FaultPlan::single(1, 2, FaultKind::Duplicate);
                    Box::new(FaultSource::new(synth(4, 1), &plan))
                }
            }
        };
        for kind in ["custom", "iterator", "shared", "chain", "fault"] {
            assert_eq!(open(kind).pid_parts(), None, "{kind}");
            assert_eq!(mix(open(kind), synth(4, 1)).pid_parts(), None, "{kind} as A");
            assert_eq!(mix(synth(4, 1), open(kind)).pid_parts(), None, "{kind} as B");
            let nested = mix(mix(synth(4, 1), synth(4, 2)), mix(synth(4, 3), open(kind)));
            assert_eq!(nested.pid_parts(), None, "{kind} two levels down");

            // One part is the merged stream itself.
            let merged = drain(mix(synth(4, 1), open(kind)));
            let mut one_part = mix(synth(4, 1), open(kind));
            assert_eq!(one_part.next_from(1), None, "{kind}: there is no part 1");
            assert_eq!(std::iter::from_fn(|| one_part.next_from(0)).collect::<Vec<_>>(), merged);
        }
    }

    #[test]
    fn each_part_hands_out_its_records_in_merged_order_however_pulls_mix() {
        let quad = || {
            let (a, b) = (mix(synth(5, 1), synth(9, 2)), mix(synth(7, 3), synth(2, 4)));
            WeightedSource::new(a, b, 2, 3, FileNamespace::Disjoint)
        };
        let merged = drain(quad());
        let parts = quad().pid_parts().expect("synthetic sides vouch");
        for prefix in [0, 3, 10] {
            let mut src = quad();
            let mut pulled: Vec<TraceRecord> =
                (0..prefix).map_while(|_| src.next_record()).collect();
            for part in 0..parts.len() {
                pulled.extend(std::iter::from_fn(|| src.next_from(part)));
            }
            assert_eq!(src.next_record(), None, "prefix {prefix}: every record was handed out");
            assert_eq!(pulled.len(), merged.len(), "prefix {prefix}");
            for range in &parts {
                let of = |records: &[TraceRecord]| -> Vec<TraceRecord> {
                    records.iter().filter(|r| range.contains(&r.pid)).copied().collect()
                };
                assert_eq!(of(&pulled), of(&merged), "prefix {prefix}, part {range:?}");
            }
        }
    }

    /// Reads the two-pid roster, then asks each live pid for its next
    /// record in turn until every pid is done; `(served, peak parked)`.
    fn drain_round_robin(source: impl TraceSource) -> (u64, usize) {
        let mut split = PidSplitter::new(source);
        let mut live = split.read_roster(2).to_vec();
        let mut served = 0;
        while !live.is_empty() {
            live.retain(|&pid| split.next_for(pid).inspect(|_| served += 1).is_some());
        }
        assert_eq!(split.records_read(), served, "every record was read once");
        (served, split.peak_buffered())
    }

    #[test]
    fn finishing_the_short_side_of_a_vouched_mix_parks_nothing() {
        // Sides of 12 and 32 records.
        let unequal = || mix(synth(10, 1), synth(30, 2));
        // Two parts: the roster prefix is all that is ever parked.
        assert_eq!(drain_round_robin(unequal()), (44, 2));
        // The one-part copy: learning that pid 0 is done reads the rest
        // of the stream and parks the long side's 20-record tail.
        let materialized = Arc::new(materialize(&mut unequal()).unwrap());
        assert_eq!(drain_round_robin(SharedSource::new(materialized)), (44, 20));

        // Draining the short pid alone touches nothing of the other's.
        let mut split = PidSplitter::new(unequal());
        assert_eq!(std::iter::from_fn(|| split.next_for(0)).count(), 12);
        assert_eq!((split.records_read(), split.peak_buffered()), (12, 0));
        // A pid no part can carry has no records, and none are read for it.
        assert_eq!(split.next_for(7), None);
        assert_eq!(split.records_read(), 12);
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
