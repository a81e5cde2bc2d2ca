//! Trace admission: one streaming pass over untrusted input.
//!
//! Every engine in the workspace trusts its record stream — a corrupt,
//! truncated or time-warped trace silently produces a wrong report
//! instead of a diagnosis. This module is the trust boundary: a single
//! O(1)-memory pass over any [`TraceSource`] that checks each record
//! against a fixed rule table and rejects (or quarantines) violations
//! with a **specific error code carrying the record index**, in the
//! spirit of a bytecode verifier (one abstract-interpretation pass over
//! untrusted input at load time, every rejection a named rule).
//!
//! # The rule table
//!
//! | Code | Error | Rule |
//! |------|-------|------|
//! | `V01` | [`VerifyError::PidOutOfRange`] | `pid < meta.num_processes` |
//! | `V02` | [`VerifyError::FileIdOutOfRange`] | `file_id < meta.num_files` |
//! | `V03` | [`VerifyError::ClockRewind`] | per-pid wall clocks never decrease |
//! | `V04` | [`VerifyError::ReopenedFile`] | no `Open` of an already-open `(pid, file)` |
//! | `V05` | [`VerifyError::UnbalancedClose`] | every `Close` closes an open `(pid, file)` |
//! | `V06` | [`VerifyError::UnclosedAtEof`] | no `(pid, file)` left open at end of stream |
//! | `V07` | [`VerifyError::ZeroRepeat`] | `num_records > 0` |
//! | `V08` | [`VerifyError::OffsetOverflow`] | `offset + length·num_records` fits in `u64` |
//! | `V09` | [`VerifyError::MetadataWithLength`] | open/close/seek records carry `length == 0` |
//! | `V10` | [`VerifyError::SpanTooLong`] | `length·num_records` is at most [`MAX_SPAN_BYTES`] |
//! | `V11` | [`VerifyError::TooManyRepeats`] | `num_records` is at most [`MAX_REPEATS`] |
//!
//! Clock monotonicity is per pid (capture clocks are shared across the
//! processes of one trace, but mixed workloads interleave independent
//! streams) and non-strict (hand-built traces legitimately carry
//! all-zero clocks). The balance rules track *explicitly opened* pairs
//! only: data operations without a preceding `Open` are legal — many
//! traces record raw access streams — but a `Close` without an `Open`,
//! a second `Open`, or an `Open` left dangling at end of stream each
//! name a distinct corruption.
//!
//! The table — with the pass each rule runs in, the test that breaks
//! it, and the v2 container rules that run ahead of it — is kept in
//! `docs/trace-verifier-rules.md`.
//!
//! # Strict and lenient admission
//!
//! Both modes are a wrapper around the stream, so a record is checked
//! on its way to the consumer and never after it. [`StrictSource`]
//! passes records through until the first violation and then ends the
//! stream; the consumer asks [`StrictSource::finish`] for the verdict
//! (that violation, else `V06`, else a clean pass) once it has drained
//! it. [`QuarantineSource`] applies the same decision procedure as a
//! filter: invalid records are skipped and tallied per rule
//! ([`ViolationCounts`], read back with [`QuarantineSource::ledger`]),
//! valid ones pass through bit-identically — graceful degradation
//! instead of garbage-in/garbage-out. Quarantine decisions depend only
//! on the stream and the options, so a lenient replay is exactly the
//! replay of the clean records that survive. [`verify_strict`] and
//! [`verify_lenient`] are the two wrappers drained with nobody
//! consuming: the stand-alone admission pass for a caller that must
//! know the verdict before it acts on any record.
//!
//! Both wrappers forward the parts of a source that vouches for its
//! pids ([`TraceSource::pid_parts`], [`TraceSource::next_from`]):
//! checking only drops records, so each part still vouches, and every
//! rule's state is per pid or per `(pid, file)`, so no verdict depends
//! on how pulls from different parts interleave. The **record index** a
//! violation carries counts records in the order the consumer pulled
//! them, across all parts: stream order on a one-part stream, the
//! consumer's own interleaving of its part pulls otherwise.
//!
//! ```
//! use clio_trace::synth::{SynthSource, TraceProfile};
//! use clio_trace::verify::{verify_strict, VerifyOptions};
//!
//! let mut source = SynthSource::new(TraceProfile::default()).unwrap();
//! let report = verify_strict(&mut source, VerifyOptions::default()).unwrap();
//! assert_eq!(report.quarantined, 0);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::error::TraceError;
use crate::record::{IoOp, TraceRecord};
use crate::source::{SourceMeta, TraceSource};

/// The most bytes one record may span over all its repeats (`V10`):
/// 4 GiB, a million 4 KiB pages. The cache walks a data record page by
/// page, so the span is the record's work: a replay of one record at
/// this bound takes tens of milliseconds, where `V08` alone let one
/// record ask for 2^52 pages. Every built-in workload stays three
/// orders of magnitude below it (synthesis is held to it by `P08`).
pub const MAX_SPAN_BYTES: u64 = 1 << 32;

/// Whether `r` is a data record spanning more than [`MAX_SPAN_BYTES`]
/// over its repeats — the `V10` predicate, shared with the unverified
/// replay engines, which apply it before the cache sees the record. A
/// zero repeat count replays once there, so it counts as one.
#[inline]
pub fn span_too_long(r: &TraceRecord) -> bool {
    r.op.transfers_data()
        && r.length.saturating_mul(u64::from(r.num_records.max(1))) > MAX_SPAN_BYTES
}

/// The most times one record may repeat (`V11`), whatever its
/// operation: 2^15. `V10` bounds a record's bytes, so a zero-length
/// record — every open, close and seek — passed it with any repeat
/// count, and a replay performs each repeat: a close walks every
/// resident page of the cache each time. At this bound the costliest
/// record, a close while another file fills the default 16 Ki-page
/// cache, replays serially in 0.3-0.4 s under every policy on a 2-vCPU
/// x86-64 container (2^16 took up to 1.4 s under LRU; `u32::MAX` takes
/// over ten hours). No built-in workload repeats a record.
pub const MAX_REPEATS: u32 = 1 << 15;

/// Whether `r` repeats more than [`MAX_REPEATS`] times — the `V11`
/// predicate, shared with the unverified replay engines like
/// [`span_too_long`].
#[inline]
pub fn too_many_repeats(r: &TraceRecord) -> bool {
    r.num_records > MAX_REPEATS
}

/// How an experiment treats trace admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// No admission pass: the stream is trusted as-is (the historical
    /// behavior, and bit-identical to it).
    #[default]
    Off,
    /// Every record is checked before it is replayed; the first
    /// violation aborts the run with its [`VerifyError`] code.
    Strict,
    /// Replay through a [`QuarantineSource`]: invalid records are
    /// skipped and tallied, the surviving records replay
    /// bit-identically.
    Lenient,
}

/// Which rule families the verifier applies.
///
/// All rules default on. Chained workloads legitimately restart their
/// capture clocks at the phase boundary, so
/// `clio-exp` disables [`VerifyOptions::check_clocks`] for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Apply `V03` (per-pid wall-clock monotonicity).
    pub check_clocks: bool,
    /// Apply `V04`–`V06` (open/close balance per `(pid, file)`).
    pub check_balance: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self { check_clocks: true, check_balance: true }
    }
}

/// A trace admission violation: one rule, one record index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// `V01`: a record's pid is not below the roster's process count.
    PidOutOfRange {
        /// 0-based index of the offending record.
        index: u64,
        /// The offending pid.
        pid: u32,
        /// Processes the header roster declares.
        num_processes: u32,
    },
    /// `V02`: a record's file id is not below the roster's file count.
    FileIdOutOfRange {
        /// 0-based index of the offending record.
        index: u64,
        /// The offending file id.
        file_id: u32,
        /// Files the header roster declares.
        num_files: u32,
    },
    /// `V03`: a record's wall clock ran backwards within its pid.
    ClockRewind {
        /// 0-based index of the offending record.
        index: u64,
        /// The pid whose clock rewound.
        pid: u32,
        /// The previous wall-clock stamp seen for this pid, µs.
        prev_us: u64,
        /// The offending (earlier) stamp, µs.
        clock_us: u64,
    },
    /// `V04`: an `Open` of a `(pid, file)` pair that is already open.
    ReopenedFile {
        /// 0-based index of the offending `Open`.
        index: u64,
        /// The opening pid.
        pid: u32,
        /// The re-opened file.
        file_id: u32,
    },
    /// `V05`: a `Close` of a `(pid, file)` pair that is not open.
    UnbalancedClose {
        /// 0-based index of the offending `Close`.
        index: u64,
        /// The closing pid.
        pid: u32,
        /// The never-opened (or already-closed) file.
        file_id: u32,
    },
    /// `V06`: the stream ended with a `(pid, file)` pair still open —
    /// the signature of a truncated trace.
    UnclosedAtEof {
        /// 0-based index of the dangling `Open`.
        index: u64,
        /// The pid left holding the file.
        pid: u32,
        /// The file left open.
        file_id: u32,
    },
    /// `V07`: a record with a repeat count of zero.
    ZeroRepeat {
        /// 0-based index of the offending record.
        index: u64,
    },
    /// `V08`: `offset + length × num_records` overflows `u64`.
    OffsetOverflow {
        /// 0-based index of the offending record.
        index: u64,
        /// The record's byte offset.
        offset: u64,
        /// The record's byte length.
        length: u64,
    },
    /// `V09`: an open/close/seek record carrying a nonzero length.
    MetadataWithLength {
        /// 0-based index of the offending record.
        index: u64,
        /// The metadata operation.
        op: IoOp,
        /// The (nonzero) length it carried.
        length: u64,
    },
    /// `V10`: a data record spanning more than [`MAX_SPAN_BYTES`] over
    /// its repeats.
    SpanTooLong {
        /// 0-based index of the offending record.
        index: u64,
        /// The record's byte length.
        length: u64,
        /// The record's repeat count.
        num_records: u32,
    },
    /// `V11`: a record repeated more than [`MAX_REPEATS`] times.
    TooManyRepeats {
        /// 0-based index of the offending record.
        index: u64,
        /// The record's repeat count.
        num_records: u32,
    },
}

impl VerifyError {
    /// The stable rule code (`"V01"`–`"V11"`), as listed in the module
    /// docs' rule table.
    pub fn code(&self) -> &'static str {
        match self {
            VerifyError::PidOutOfRange { .. } => "V01",
            VerifyError::FileIdOutOfRange { .. } => "V02",
            VerifyError::ClockRewind { .. } => "V03",
            VerifyError::ReopenedFile { .. } => "V04",
            VerifyError::UnbalancedClose { .. } => "V05",
            VerifyError::UnclosedAtEof { .. } => "V06",
            VerifyError::ZeroRepeat { .. } => "V07",
            VerifyError::OffsetOverflow { .. } => "V08",
            VerifyError::MetadataWithLength { .. } => "V09",
            VerifyError::SpanTooLong { .. } => "V10",
            VerifyError::TooManyRepeats { .. } => "V11",
        }
    }

    /// The 0-based index of the record that triggered the rule (for
    /// `V06`, the dangling `Open`).
    pub fn index(&self) -> u64 {
        match *self {
            VerifyError::PidOutOfRange { index, .. }
            | VerifyError::FileIdOutOfRange { index, .. }
            | VerifyError::ClockRewind { index, .. }
            | VerifyError::ReopenedFile { index, .. }
            | VerifyError::UnbalancedClose { index, .. }
            | VerifyError::UnclosedAtEof { index, .. }
            | VerifyError::ZeroRepeat { index }
            | VerifyError::OffsetOverflow { index, .. }
            | VerifyError::MetadataWithLength { index, .. }
            | VerifyError::SpanTooLong { index, .. }
            | VerifyError::TooManyRepeats { index, .. } => index,
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at record {}: ", self.code(), self.index())?;
        match self {
            VerifyError::PidOutOfRange { pid, num_processes, .. } => {
                write!(f, "pid {pid} outside the {num_processes}-process roster")
            }
            VerifyError::FileIdOutOfRange { file_id, num_files, .. } => {
                write!(f, "file id {file_id} outside the {num_files}-file roster")
            }
            VerifyError::ClockRewind { pid, prev_us, clock_us, .. } => {
                write!(f, "pid {pid} wall clock rewound {prev_us}µs -> {clock_us}µs")
            }
            VerifyError::ReopenedFile { pid, file_id, .. } => {
                write!(f, "pid {pid} re-opened file {file_id} without closing it")
            }
            VerifyError::UnbalancedClose { pid, file_id, .. } => {
                write!(f, "pid {pid} closed file {file_id} it never opened")
            }
            VerifyError::UnclosedAtEof { pid, file_id, .. } => {
                write!(f, "pid {pid} left file {file_id} open at end of stream (truncated?)")
            }
            VerifyError::ZeroRepeat { .. } => write!(f, "repeat count of zero"),
            VerifyError::OffsetOverflow { offset, length, .. } => {
                write!(f, "offset {offset} + length {length} overflows the byte space")
            }
            VerifyError::MetadataWithLength { op, length, .. } => {
                write!(f, "{} record carries {length} bytes of payload", op.name())
            }
            VerifyError::SpanTooLong { length, num_records, .. } => {
                write!(
                    f,
                    "{length} bytes x {num_records} repeats spans more than {MAX_SPAN_BYTES} bytes"
                )
            }
            VerifyError::TooManyRepeats { num_records, .. } => {
                write!(f, "{num_records} repeats, more than {MAX_REPEATS}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Per-rule violation tallies from a lenient pass — the quarantine
/// ledger a report surfaces. Field order follows the rule table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ViolationCounts {
    /// `V01` violations.
    pub pid_out_of_range: u64,
    /// `V02` violations.
    pub file_out_of_range: u64,
    /// `V03` violations.
    pub clock_rewind: u64,
    /// `V04` violations.
    pub reopened_file: u64,
    /// `V05` violations.
    pub unbalanced_close: u64,
    /// `V06` violations (stream-level: dangling opens at end of stream).
    pub unclosed_at_eof: u64,
    /// `V07` violations.
    pub zero_repeat: u64,
    /// `V08` violations.
    pub offset_overflow: u64,
    /// `V09` violations.
    pub metadata_with_length: u64,
    /// `V10` violations.
    pub span_too_long: u64,
    /// `V11` violations.
    pub too_many_repeats: u64,
}

impl ViolationCounts {
    /// Adds one violation to the tally for its rule.
    pub fn tally(&mut self, error: &VerifyError) {
        let slot = match error {
            VerifyError::PidOutOfRange { .. } => &mut self.pid_out_of_range,
            VerifyError::FileIdOutOfRange { .. } => &mut self.file_out_of_range,
            VerifyError::ClockRewind { .. } => &mut self.clock_rewind,
            VerifyError::ReopenedFile { .. } => &mut self.reopened_file,
            VerifyError::UnbalancedClose { .. } => &mut self.unbalanced_close,
            VerifyError::UnclosedAtEof { .. } => &mut self.unclosed_at_eof,
            VerifyError::ZeroRepeat { .. } => &mut self.zero_repeat,
            VerifyError::OffsetOverflow { .. } => &mut self.offset_overflow,
            VerifyError::MetadataWithLength { .. } => &mut self.metadata_with_length,
            VerifyError::SpanTooLong { .. } => &mut self.span_too_long,
            VerifyError::TooManyRepeats { .. } => &mut self.too_many_repeats,
        };
        *slot += 1;
    }

    /// Adds `other`'s tallies, rule by rule.
    pub fn add(&mut self, other: &ViolationCounts) {
        self.pid_out_of_range += other.pid_out_of_range;
        self.file_out_of_range += other.file_out_of_range;
        self.clock_rewind += other.clock_rewind;
        self.reopened_file += other.reopened_file;
        self.unbalanced_close += other.unbalanced_close;
        self.unclosed_at_eof += other.unclosed_at_eof;
        self.zero_repeat += other.zero_repeat;
        self.offset_overflow += other.offset_overflow;
        self.metadata_with_length += other.metadata_with_length;
        self.span_too_long += other.span_too_long;
        self.too_many_repeats += other.too_many_repeats;
    }

    /// Total violations across every rule.
    pub fn total(&self) -> u64 {
        self.pid_out_of_range
            + self.file_out_of_range
            + self.clock_rewind
            + self.reopened_file
            + self.unbalanced_close
            + self.unclosed_at_eof
            + self.zero_repeat
            + self.offset_overflow
            + self.metadata_with_length
            + self.span_too_long
            + self.too_many_repeats
    }
}

/// What an admission pass found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Records examined.
    pub records: u64,
    /// Records that passed every rule.
    pub admitted: u64,
    /// Records rejected by a record-level rule (`V06` is stream-level
    /// and tallied in [`VerifyReport::violations`] only).
    pub quarantined: u64,
    /// Per-rule violation tallies.
    pub violations: ViolationCounts,
    /// The first violation, if any — the error a strict pass would
    /// have returned.
    pub first: Option<VerifyError>,
}

/// The incremental rule checker: feed it records in stream order, then
/// [`Verifier::finish`] at end of stream.
///
/// Memory is O(1) in the trace length: the open-pair table is bounded
/// by the concurrently-open `(pid, file)` pairs and the clock table by
/// the pids actually *seen* — never by the record count, and never by
/// the roster the (untrusted) header declares.
#[derive(Debug)]
pub struct Verifier {
    options: VerifyOptions,
    num_processes: u32,
    num_files: u32,
    /// Currently-open `(pid, file)` pairs, mapped to the index of the
    /// `Open` that opened them (for `V06` reporting).
    open: HashMap<(u32, u32), u64>,
    /// The pid of the last accepted record and its stamp: a one-entry
    /// write-back cache in front of `last_clock`. Runs of one pid —
    /// most of any trace — never touch the map.
    held_clock: Option<(u32, u64)>,
    /// Last accepted wall-clock stamp of every other pid seen (the
    /// held pid's entry, if any, is stale until it is written back).
    last_clock: HashMap<u32, u64>,
    index: u64,
}

impl Verifier {
    /// A verifier for a stream with header roster `meta`, default rules.
    pub fn new(meta: &SourceMeta) -> Self {
        Self::with_options(meta, VerifyOptions::default())
    }

    /// A verifier with an explicit rule selection.
    pub fn with_options(meta: &SourceMeta, options: VerifyOptions) -> Self {
        Self {
            options,
            num_processes: meta.num_processes,
            num_files: meta.num_files,
            open: HashMap::new(),
            held_clock: None,
            last_clock: HashMap::new(),
            index: 0,
        }
    }

    /// Records examined so far.
    pub fn records(&self) -> u64 {
        self.index
    }

    /// Checks the next record of the stream against the rule table.
    ///
    /// On `Err` the record is rejected and contributes **nothing** to
    /// the verifier state — exactly the semantics of quarantining it:
    /// subsequent records are judged as if the bad one never existed.
    #[inline]
    pub fn check(&mut self, r: &TraceRecord) -> Result<(), VerifyError> {
        let index = self.index;
        self.index += 1;

        if r.pid >= self.num_processes {
            return Err(VerifyError::PidOutOfRange {
                index,
                pid: r.pid,
                num_processes: self.num_processes,
            });
        }
        if r.file_id >= self.num_files {
            return Err(VerifyError::FileIdOutOfRange {
                index,
                file_id: r.file_id,
                num_files: self.num_files,
            });
        }
        if r.num_records == 0 {
            return Err(VerifyError::ZeroRepeat { index });
        }
        let span = r.length.checked_mul(r.num_records as u64);
        let Some(span) = span.filter(|&span| r.offset.checked_add(span).is_some()) else {
            return Err(VerifyError::OffsetOverflow { index, offset: r.offset, length: r.length });
        };
        if !r.op.transfers_data() && r.length != 0 {
            return Err(VerifyError::MetadataWithLength { index, op: r.op, length: r.length });
        }
        // [`span_too_long`] on a record `V07`-`V09` passed: a metadata
        // record's span is zero by now, a data record's is `span`.
        if span > MAX_SPAN_BYTES {
            return Err(VerifyError::SpanTooLong {
                index,
                length: r.length,
                num_records: r.num_records,
            });
        }
        if too_many_repeats(r) {
            return Err(VerifyError::TooManyRepeats { index, num_records: r.num_records });
        }
        if self.options.check_clocks {
            let prev = match self.held_clock {
                Some((pid, stamp)) if pid == r.pid => Some(stamp),
                _ => self.last_clock.get(&r.pid).copied(),
            };
            if let Some(prev) = prev.filter(|&prev| r.wall_clock_us < prev) {
                return Err(VerifyError::ClockRewind {
                    index,
                    pid: r.pid,
                    prev_us: prev,
                    clock_us: r.wall_clock_us,
                });
            }
        }
        if self.options.check_balance {
            let pair = (r.pid, r.file_id);
            match r.op {
                IoOp::Open => {
                    if self.open.contains_key(&pair) {
                        return Err(VerifyError::ReopenedFile {
                            index,
                            pid: r.pid,
                            file_id: r.file_id,
                        });
                    }
                    self.open.insert(pair, index);
                }
                IoOp::Close => {
                    if self.open.remove(&pair).is_none() {
                        return Err(VerifyError::UnbalancedClose {
                            index,
                            pid: r.pid,
                            file_id: r.file_id,
                        });
                    }
                }
                IoOp::Read | IoOp::Write | IoOp::Seek => {}
            }
        }
        if self.options.check_clocks {
            match &mut self.held_clock {
                Some((pid, stamp)) if *pid == r.pid => *stamp = r.wall_clock_us,
                held => {
                    if let Some((pid, stamp)) = held.replace((r.pid, r.wall_clock_us)) {
                        self.last_clock.insert(pid, stamp);
                    }
                }
            }
        }
        Ok(())
    }

    /// End-of-stream check (`V06`): reports the earliest dangling
    /// `Open`, if any.
    pub fn finish(&self) -> Result<(), VerifyError> {
        self.dangling().first().map_or(Ok(()), |&earliest| Err(earliest))
    }

    /// Every dangling `Open` at end of stream, earliest first.
    fn dangling(&self) -> Vec<VerifyError> {
        let mut all: Vec<VerifyError> = self
            .open
            .iter()
            .map(|(&(pid, file_id), &opened_at)| VerifyError::UnclosedAtEof {
                index: opened_at,
                pid,
                file_id,
            })
            .collect();
        all.sort_by_key(VerifyError::index);
        all
    }
}

/// Strict admission: one streaming pass, stopping at the **first**
/// violation (including a `V06` dangling `Open` at end of stream).
/// Returns the clean-pass report on success.
///
/// The verdict is about the records the source yielded. A source that
/// admits its own input lazily may have ended early: ask its
/// [`TraceSource::take_failure`] afterwards.
pub fn verify_strict<S: TraceSource + ?Sized>(
    source: &mut S,
    options: VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    let mut strict = StrictSource::with_options(source, options);
    while strict.next_record().is_some() {}
    strict.finish()
}

/// Lenient admission: one streaming pass over the **whole** stream,
/// tallying every violation per rule. Rejected records contribute
/// nothing to the verifier state, so the tallies are exactly the
/// records a [`QuarantineSource`] over the same stream skips — the
/// pass *is* a drained [`QuarantineSource`].
pub fn verify_lenient<S: TraceSource + ?Sized>(
    source: &mut S,
    options: VerifyOptions,
) -> VerifyReport {
    let mut quarantine = QuarantineSource::with_options(source, options);
    while quarantine.next_record().is_some() {}
    quarantine.ledger()
}

/// A checking [`TraceSource`]: streams `inner` through the verifier,
/// passing accepted records through bit-identically and **ending the
/// stream at the first violation** — the strict replay path. Every
/// record is checked before it is handed on, so nothing a rule rejects
/// reaches the consumer; the consumer in turn must ask
/// [`StrictSource::finish`] for the verdict once the stream is
/// exhausted, because a stream that ended may have ended *rejected*.
#[derive(Debug)]
pub struct StrictSource<S> {
    inner: S,
    verifier: Verifier,
    violation: Option<VerifyError>,
}

impl<S: TraceSource> StrictSource<S> {
    /// Wraps `inner` with an explicit rule selection.
    pub fn with_options(inner: S, options: VerifyOptions) -> Self {
        let verifier = Verifier::with_options(&inner.meta(), options);
        Self { inner, verifier, violation: None }
    }

    /// The verdict on the records pulled so far, as if the stream ended
    /// here: the violation that stopped it, else the earliest dangling
    /// `Open` (`V06`), else the clean-pass report.
    pub fn finish(&self) -> Result<VerifyReport, VerifyError> {
        if let Some(violation) = self.violation {
            return Err(violation);
        }
        self.verifier.finish()?;
        let records = self.verifier.records();
        Ok(VerifyReport { records, admitted: records, ..VerifyReport::default() })
    }

    /// The record `pull` takes from the inner stream, if it passes; else
    /// the violation is kept and the stream ends.
    fn checked(&mut self, pull: impl FnOnce(&mut S) -> Option<TraceRecord>) -> Option<TraceRecord> {
        if self.violation.is_some() {
            return None;
        }
        let r = pull(&mut self.inner)?;
        match self.verifier.check(&r) {
            Ok(()) => Some(r),
            Err(violation) => {
                self.violation = Some(violation);
                None
            }
        }
    }
}

impl<S: TraceSource> TraceSource for StrictSource<S> {
    fn meta(&self) -> SourceMeta {
        self.inner.meta()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        self.checked(S::next_record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // A violation can only cut the stream short.
        (0, self.inner.size_hint().1)
    }

    fn take_failure(&mut self) -> Option<TraceError> {
        self.inner.take_failure()
    }

    // Checking only drops records, so a part still vouches for its pids.
    fn pid_parts(&self) -> Option<Vec<Range<u32>>> {
        self.inner.pid_parts()
    }

    fn next_from(&mut self, part: usize) -> Option<TraceRecord> {
        self.checked(|inner| inner.next_from(part))
    }
}

/// A filtering [`TraceSource`]: streams `inner` through the verifier,
/// skipping rejected records and passing accepted ones through
/// bit-identically — the lenient replay path — while keeping the
/// quarantine ledger of what it skipped ([`QuarantineSource::ledger`]).
///
/// The decision procedure is [`Verifier::check`] with the same options,
/// so the records this source yields are exactly the `admitted` count
/// of [`verify_lenient`] over the same stream.
#[derive(Debug)]
pub struct QuarantineSource<S> {
    inner: S,
    verifier: Verifier,
    /// Tallies of the records pulled so far (`records` and the
    /// stream-level `V06` are filled in by [`QuarantineSource::ledger`]).
    tallied: VerifyReport,
}

impl<S: TraceSource> QuarantineSource<S> {
    /// Wraps `inner` with the default rule selection.
    pub fn new(inner: S) -> Self {
        Self::with_options(inner, VerifyOptions::default())
    }

    /// Wraps `inner` with an explicit rule selection.
    pub fn with_options(inner: S, options: VerifyOptions) -> Self {
        let verifier = Verifier::with_options(&inner.meta(), options);
        Self { inner, verifier, tallied: VerifyReport::default() }
    }

    /// The quarantine ledger of the records pulled so far, as if the
    /// stream ended here: every skipped record tallied under its rule,
    /// plus one `V06` per `Open` still dangling.
    pub fn ledger(&self) -> VerifyReport {
        let mut report = self.tallied.clone();
        for dangling in self.verifier.dangling() {
            report.violations.tally(&dangling);
            report.first.get_or_insert(dangling);
        }
        report.records = self.verifier.records();
        report
    }

    /// The next record `pull` takes from the inner stream that passes;
    /// the ones that do not are tallied and skipped.
    fn admitted(
        &mut self,
        mut pull: impl FnMut(&mut S) -> Option<TraceRecord>,
    ) -> Option<TraceRecord> {
        loop {
            let r = pull(&mut self.inner)?;
            match self.verifier.check(&r) {
                Ok(()) => {
                    self.tallied.admitted += 1;
                    return Some(r);
                }
                Err(violation) => {
                    self.tallied.quarantined += 1;
                    self.tallied.violations.tally(&violation);
                    self.tallied.first.get_or_insert(violation);
                }
            }
        }
    }
}

impl<S: TraceSource> TraceSource for QuarantineSource<S> {
    fn meta(&self) -> SourceMeta {
        self.inner.meta()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        self.admitted(S::next_record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Quarantining can only shrink the stream: keep the upper
        // bound, drop the lower.
        (0, self.inner.size_hint().1)
    }

    fn take_failure(&mut self) -> Option<TraceError> {
        self.inner.take_failure()
    }

    // Quarantine only drops records, so a part still vouches for its
    // pids.
    fn pid_parts(&self) -> Option<Vec<Range<u32>>> {
        self.inner.pid_parts()
    }

    fn next_from(&mut self, part: usize) -> Option<TraceRecord> {
        self.admitted(|inner| inner.next_from(part))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{materialize, SliceSource};
    use crate::synth::{synthesize, SynthSource, TraceProfile};
    use crate::writer::TraceWriter;
    use proptest::prelude::*;

    fn meta(processes: u32, files: u32) -> SourceMeta {
        SourceMeta { sample_file: "v.dat".into(), num_processes: processes, num_files: files }
    }

    fn rec(op: IoOp, pid: u32, file_id: u32, clock: u64) -> TraceRecord {
        TraceRecord {
            op,
            num_records: 1,
            pid,
            file_id,
            wall_clock_us: clock,
            proc_clock_us: clock,
            offset: 0,
            length: if op.transfers_data() { 4096 } else { 0 },
        }
    }

    #[test]
    fn clean_streams_pass_every_rule() {
        let records = [
            rec(IoOp::Open, 0, 0, 10),
            rec(IoOp::Seek, 0, 0, 20),
            rec(IoOp::Read, 0, 0, 30),
            rec(IoOp::Write, 0, 0, 40),
            rec(IoOp::Close, 0, 0, 50),
        ];
        let mut src = SliceSource::from_parts(&records, meta(1, 1));
        let report = verify_strict(&mut src, VerifyOptions::default()).unwrap();
        assert_eq!(report.records, 5);
        assert_eq!(report.admitted, 5);
        assert_eq!(report.quarantined, 0);
    }

    #[test]
    fn access_without_open_is_legal() {
        // Many traces record raw access streams with no open/close at
        // all; the balance rules must not reject them.
        let records = [rec(IoOp::Read, 0, 0, 0), rec(IoOp::Read, 0, 0, 0)];
        let mut src = SliceSource::from_parts(&records, meta(1, 1));
        assert!(verify_strict(&mut src, VerifyOptions::default()).is_ok());
    }

    #[test]
    fn each_rule_fires_with_its_code_and_index() {
        let cases: Vec<(Vec<TraceRecord>, &str, u64)> = vec![
            (vec![rec(IoOp::Read, 0, 0, 0), rec(IoOp::Read, 7, 0, 0)], "V01", 1),
            (vec![rec(IoOp::Read, 0, 9, 0)], "V02", 0),
            (vec![rec(IoOp::Read, 0, 0, 50), rec(IoOp::Read, 0, 0, 40)], "V03", 1),
            (vec![rec(IoOp::Open, 0, 0, 0), rec(IoOp::Open, 0, 0, 0)], "V04", 1),
            (vec![rec(IoOp::Close, 0, 0, 0)], "V05", 0),
            (vec![rec(IoOp::Open, 0, 0, 0), rec(IoOp::Read, 0, 0, 0)], "V06", 0),
            (
                vec![{
                    let mut r = rec(IoOp::Read, 0, 0, 0);
                    r.num_records = 0;
                    r
                }],
                "V07",
                0,
            ),
            (
                vec![{
                    let mut r = rec(IoOp::Read, 0, 0, 0);
                    r.offset = u64::MAX;
                    r.length = 2;
                    r
                }],
                "V08",
                0,
            ),
            (
                vec![{
                    let mut r = rec(IoOp::Seek, 0, 0, 0);
                    r.length = 512;
                    r
                }],
                "V09",
                0,
            ),
            (
                vec![rec(IoOp::Open, 0, 0, 0), {
                    let mut r = rec(IoOp::Read, 0, 0, 0);
                    r.length = 1 << 62;
                    r
                }],
                "V10",
                1,
            ),
            (
                vec![{
                    let mut r = rec(IoOp::Write, 0, 0, 0);
                    r.length = MAX_SPAN_BYTES / 2 + 1;
                    r.num_records = 2;
                    r
                }],
                "V10",
                0,
            ),
            (
                vec![rec(IoOp::Open, 0, 0, 0), {
                    let mut r = rec(IoOp::Close, 0, 0, 0);
                    r.num_records = u32::MAX;
                    r
                }],
                "V11",
                1,
            ),
            (
                vec![{
                    let mut r = rec(IoOp::Read, 0, 0, 0);
                    r.length = 0;
                    r.num_records = MAX_REPEATS + 1;
                    r
                }],
                "V11",
                0,
            ),
        ];
        for (records, code, index) in cases {
            let mut src = SliceSource::from_parts(&records, meta(2, 2));
            let err = verify_strict(&mut src, VerifyOptions::default())
                .expect_err(&format!("{code} must fire"));
            assert_eq!(err.code(), code, "{err}");
            assert_eq!(err.index(), index, "{err}");
            assert!(err.to_string().contains(code), "{err}");
        }
        // The repeat bound itself is admitted.
        let mut seek = rec(IoOp::Seek, 0, 0, 0);
        seek.num_records = MAX_REPEATS;
        let mut src = SliceSource::from_parts(std::slice::from_ref(&seek), meta(1, 1));
        assert!(verify_strict(&mut src, VerifyOptions::default()).is_ok());
    }

    #[test]
    fn per_pid_clocks_tolerate_interleaved_streams() {
        // Two pids whose global clock order interleaves non-monotonically
        // is fine as long as each pid's own clocks never rewind.
        let records = [
            rec(IoOp::Read, 0, 0, 100),
            rec(IoOp::Read, 1, 0, 10),
            rec(IoOp::Read, 0, 0, 100),
            rec(IoOp::Read, 1, 0, 20),
        ];
        let mut src = SliceSource::from_parts(&records, meta(2, 1));
        assert!(verify_strict(&mut src, VerifyOptions::default()).is_ok());
    }

    #[test]
    fn options_disable_rule_families() {
        let rewind = [rec(IoOp::Read, 0, 0, 50), rec(IoOp::Read, 0, 0, 40)];
        let opts = VerifyOptions { check_clocks: false, ..Default::default() };
        let mut src = SliceSource::from_parts(&rewind, meta(1, 1));
        assert!(verify_strict(&mut src, opts).is_ok());

        let dangling = [rec(IoOp::Open, 0, 0, 0)];
        let opts = VerifyOptions { check_balance: false, ..Default::default() };
        let mut src = SliceSource::from_parts(&dangling, meta(1, 1));
        assert!(verify_strict(&mut src, opts).is_ok());
    }

    #[test]
    fn writer_stamped_traces_pass() {
        let mut w = TraceWriter::new("w.dat").with_processes(3);
        for i in 0..3u32 {
            w.record(IoOp::Open, i, 0, 0, 0);
        }
        for i in 0..30u32 {
            w.record(IoOp::Read, i % 3, 0, (i as u64) * 4096, 4096);
        }
        for i in 0..3u32 {
            w.record(IoOp::Close, i, 0, 0, 0);
        }
        let trace = w.finish().unwrap();
        let mut src = SliceSource::new(&trace);
        let report = verify_strict(&mut src, VerifyOptions::default()).unwrap();
        assert_eq!(report.admitted, 36);
    }

    #[test]
    fn lenient_tallies_match_quarantine_filter() {
        // A stream with one of everything recoverable: the lenient
        // report's admitted count equals what the filter yields.
        let mut records = vec![rec(IoOp::Open, 0, 0, 10)];
        for i in 0..10u64 {
            records.push(rec(IoOp::Read, 0, 0, 20 + i * 10));
        }
        records[3].file_id = 99; // V02
        records[5].wall_clock_us = 1; // V03
        records.push(rec(IoOp::Close, 0, 0, 500));
        records.push(rec(IoOp::Close, 0, 0, 510)); // V05

        let m = meta(1, 1);
        let report =
            verify_lenient(&mut SliceSource::from_parts(&records, m.clone()), Default::default());
        assert_eq!(report.records, 13);
        assert_eq!(report.quarantined, 3);
        assert_eq!(report.violations.file_out_of_range, 1);
        assert_eq!(report.violations.clock_rewind, 1);
        assert_eq!(report.violations.unbalanced_close, 1);
        assert_eq!(report.violations.total(), 3);
        assert_eq!(report.first.unwrap().code(), "V02");

        let mut filtered = QuarantineSource::new(SliceSource::from_parts(&records, m));
        let survived = materialize(&mut filtered).unwrap();
        assert_eq!(survived.len() as u64, report.admitted);
    }

    #[test]
    fn quarantining_a_bad_open_cascades_to_its_close() {
        // The Open is invalid (metadata record with a payload), so it
        // is skipped — and the later Close of the same pair becomes
        // unbalanced and is skipped too. Deterministic cascade, not a
        // crash.
        let mut bad_open = rec(IoOp::Open, 0, 0, 10);
        bad_open.length = 512;
        let records = [bad_open, rec(IoOp::Read, 0, 0, 20), rec(IoOp::Close, 0, 0, 30)];
        let report =
            verify_lenient(&mut SliceSource::from_parts(&records, meta(1, 1)), Default::default());
        assert_eq!(report.quarantined, 2);
        assert_eq!(report.violations.metadata_with_length, 1);
        assert_eq!(report.violations.unbalanced_close, 1);
    }

    #[test]
    fn verifier_memory_tracks_roster_not_stream() {
        // O(1) claim made concrete: a long single-pid stream leaves one
        // clock entry and no open pairs.
        let mut v = Verifier::new(&meta(1, 1));
        for i in 0..10_000u64 {
            v.check(&rec(IoOp::Read, 0, 0, i)).unwrap();
        }
        assert_eq!(v.held_clock, Some((0, 9_999)));
        assert!(v.last_clock.is_empty(), "the one pid never leaves the cache slot");
        assert!(v.open.is_empty());
    }

    #[test]
    fn verifier_clock_table_is_bounded_by_the_pids_seen_not_the_declared_roster() {
        // The header may declare four billion processes; only the three
        // that appear cost memory, however they interleave.
        let mut v = Verifier::new(&meta(u32::MAX, 1));
        for i in 0..9_000u64 {
            let pid = [7, 4_000_000_000, 7, 7, 19][(i % 5) as usize];
            v.check(&rec(IoOp::Read, pid, 0, i)).unwrap();
        }
        assert!(v.last_clock.len() <= 3, "{} clock entries", v.last_clock.len());
        // The cache slot is a cache, not a second opinion: a rewind is
        // caught whether the pid's stamp sits in the slot or in the map.
        let held = v.held_clock.expect("clocks are checked").0;
        let parked = if held == 7 { 19 } else { 7 };
        for pid in [held, parked] {
            let err = v.check(&rec(IoOp::Read, pid, 0, 1)).unwrap_err();
            assert_eq!(err.code(), "V03", "pid {pid}");
        }
    }

    #[test]
    fn strict_source_stops_at_the_first_violation_and_keeps_it() {
        let mut records = vec![rec(IoOp::Open, 0, 0, 10)];
        records.extend((0..6u64).map(|i| rec(IoOp::Read, 0, 0, 20 + i)));
        records[4].num_records = 0; // V07 at index 4
        records[5].file_id = 9; // a later V02 the strict pass never reaches
        let mut strict = StrictSource::with_options(
            SliceSource::from_parts(&records, meta(1, 1)),
            VerifyOptions::default(),
        );
        let passed: Vec<TraceRecord> = std::iter::from_fn(|| strict.next_record()).collect();
        assert_eq!(passed, records[..4], "only what was checked and accepted gets through");
        assert!(strict.next_record().is_none(), "a rejected stream stays ended");
        let err = strict.finish().unwrap_err();
        assert_eq!((err.code(), err.index()), ("V07", 4));

        // A stream that merely ends is judged by V06.
        let dangling = [rec(IoOp::Open, 0, 0, 0), rec(IoOp::Read, 0, 0, 0)];
        let mut strict = StrictSource::with_options(
            SliceSource::from_parts(&dangling, meta(1, 1)),
            VerifyOptions::default(),
        );
        assert_eq!(std::iter::from_fn(|| strict.next_record()).count(), 2);
        assert_eq!(strict.finish().unwrap_err().code(), "V06");
    }

    /// A source of two parts, pid 0 and pid 1, that vouches for them;
    /// the merged stream alternates between the parts.
    struct TwoParts {
        parts: [std::collections::VecDeque<TraceRecord>; 2],
        turn: usize,
    }

    impl TraceSource for TwoParts {
        fn meta(&self) -> SourceMeta {
            meta(2, 1)
        }

        fn next_record(&mut self) -> Option<TraceRecord> {
            self.turn ^= 1;
            self.next_from(self.turn ^ 1).or_else(|| self.next_from(self.turn))
        }

        fn pid_parts(&self) -> Option<Vec<Range<u32>>> {
            Some(vec![0..1, 1..2])
        }

        fn next_from(&mut self, part: usize) -> Option<TraceRecord> {
            self.parts.get_mut(part)?.pop_front()
        }
    }

    #[test]
    fn the_wrappers_pass_parts_through_and_index_in_pull_order() {
        let part = |pid: u32| {
            let mut records = vec![rec(IoOp::Open, pid, 0, 1), rec(IoOp::Read, pid, 0, 2)];
            records.extend([rec(IoOp::Read, pid, 0, 3), rec(IoOp::Close, pid, 0, 4)]);
            records
        };
        let mut bad = part(0);
        bad[2].num_records = 0; // V07, the third record of part 0
        let source = || TwoParts { parts: [bad.clone().into(), part(1).into()], turn: 0 };
        let options = VerifyOptions::default();
        // Merged, the V07 is record 4; pulled part 1 first, it is record 6.
        let mut strict = StrictSource::with_options(source(), options);
        assert_eq!(strict.pid_parts(), Some(vec![0..1, 1..2]));
        while strict.next_record().is_some() {}
        assert_eq!(strict.finish().unwrap_err().index(), 4);
        let mut strict = StrictSource::with_options(source(), options);
        assert_eq!(std::iter::from_fn(|| strict.next_from(1)).count(), 4);
        assert_eq!(std::iter::from_fn(|| strict.next_from(0)).count(), 2);
        assert_eq!(strict.next_from(1), None, "a rejected stream ends in every part");
        assert_eq!(strict.finish().unwrap_err().index(), 6);

        // Lenient: the same record quarantined either way, the same
        // survivors part by part; only the index moves.
        let mut merged = QuarantineSource::with_options(source(), options);
        let survivors: Vec<TraceRecord> = std::iter::from_fn(|| merged.next_record()).collect();
        let mut parted = QuarantineSource::with_options(source(), options);
        // Part 1 drained first, then part 0.
        let mut pulled: Vec<TraceRecord> = std::iter::from_fn(|| parted.next_from(1)).collect();
        pulled.extend(std::iter::from_fn(|| parted.next_from(0)));
        let pid = |records: &[TraceRecord], pid: u32| -> Vec<TraceRecord> {
            records.iter().filter(|r| r.pid == pid).copied().collect()
        };
        for p in 0..2 {
            assert_eq!(pid(&pulled, p), pid(&survivors, p), "part {p}");
        }
        let (merged, parted) = (merged.ledger(), parted.ledger());
        assert_eq!((merged.violations, merged.quarantined), (parted.violations, 1));
        assert_eq!((merged.first.unwrap().index(), parted.first.unwrap().index()), (4, 6));
    }

    fn arb_profile() -> impl Strategy<Value = TraceProfile> {
        (any::<u64>(), 0usize..200, 0.0f64..=1.0, 0.0f64..=1.0, proptest::bool::ANY).prop_map(
            |(seed, data_ops, write_fraction, sequentiality, explicit_seeks)| TraceProfile {
                seed,
                data_ops,
                write_fraction,
                sequentiality,
                explicit_seeks,
                ..Default::default()
            },
        )
    }

    proptest! {
        /// Admission completeness, half one: no false positives — every
        /// stream the synthesizer can produce passes strict
        /// verification under every profile knob.
        #[test]
        fn every_synth_trace_passes_strict(profile in arb_profile()) {
            let mut src = SynthSource::new(profile).unwrap();
            let report = verify_strict(&mut src, VerifyOptions::default()).unwrap();
            prop_assert_eq!(report.quarantined, 0);
            prop_assert_eq!(report.records, report.admitted);
        }

        /// Admission completeness, half two: a single-record corruption
        /// of a clean trace is either caught by a rule or the mutated
        /// stream is still admissible — and everything admitted replays
        /// to completion without panicking.
        #[test]
        fn single_record_mutation_caught_or_harmless(
            seed in any::<u64>(),
            index in 0usize..100,
            mutation in 0u8..6,
        ) {
            let profile = TraceProfile { seed, data_ops: 98, ..Default::default() };
            let mut trace = synthesize(&profile);
            let index = index % trace.len();
            let r = &mut trace.records[index];
            match mutation {
                0 => r.file_id = r.file_id.wrapping_add(1 << 30),
                1 => r.pid = r.pid.wrapping_add(7),
                2 => r.wall_clock_us = r.wall_clock_us.saturating_sub(10_000),
                3 => r.num_records = 0,
                4 => { r.offset = u64::MAX; r.length = u64::MAX; }
                _ => r.op = IoOp::Close,
            }
            let verdict =
                verify_strict(&mut SliceSource::new(&trace), VerifyOptions::default());
            if verdict.is_ok() {
                // Admitted ⇒ the replay engine must survive it.
                let report = crate::replay::replay_cached(
                    &mut SliceSource::new(&trace),
                    Default::default(),
                    Default::default(),
                )
                .expect("an admitted stream stays inside its roster");
                prop_assert_eq!(report.timings.len(), trace.len());
            }
        }
    }
}
