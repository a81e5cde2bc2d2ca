//! # clio-trace — I/O trace format and replay (paper Section 3)
//!
//! The paper's second benchmark replays I/O traces collected at the
//! University of Maryland against a 1 GB sample file, timing each
//! operation. This crate implements the trace infrastructure end to end:
//!
//! - [`record`] — the operation alphabet (`Open=0, Close=1, Read=2,
//!   Write=3, Seek=4`) and the record layout the paper lists (operation,
//!   repeat count, process id, file id, wall-clock time, process-clock
//!   time, offset, length),
//! - [`header`] — the trace-file header (number of processes, files and
//!   records, offset to the records, sample-file name),
//! - [`codec`] — a binary codec (magic + version + fixed-width records)
//!   and a whitespace text codec,
//! - [`compact`] — the v2 block-framed compact format: delta/varint
//!   columns, per-block CRC32, a seekable index footer, a streaming
//!   [`compact::CompactWriter`], and one block walker behind two
//!   readers — [`compact::CompactSource`] (the whole container admitted
//!   before the first record) and [`compact::CompactStream`] (each
//!   block admitted as the stream reaches it, O(block) memory from any
//!   `Read`); corrupt input is rejected with a coded error at the block
//!   where it breaks,
//! - [`reader`] / [`writer`] — whole-file I/O with validation,
//! - [`stats`] — per-operation counts, byte volumes and a sequentiality
//!   measure,
//! - [`source`] — streaming [`TraceSource`]s: records yielded one at a
//!   time (iterator-backed, shared, synthesized) plus chain/interleave/
//!   weighted-merge combinators for mixed workloads — replay without a
//!   full in-memory trace,
//! - [`replay`] — one replay driver per cost target: *simulated*
//!   (against [`clio_cache::BufferCache`]'s deterministic cost model —
//!   the mode the tables in EXPERIMENTS.md are generated from — serial
//!   or sharded across worker threads) and *real* (against an actual
//!   file through [`clio_cache::FileBackend`], timed with monotonic
//!   clocks),
//! - [`verify`] — the trust boundary: a streaming O(1)-memory check of
//!   any [`TraceSource`] against a fixed rule table (`V01`–`V09`),
//!   strict (stop at the first violation, [`verify::StrictSource`], a
//!   coded [`verify::VerifyError`]) or lenient (quarantine-and-tally via
//!   [`verify::QuarantineSource`]),
//! - [`fault`] — deterministic seeded fault injection
//!   ([`fault::FaultSource`]): bit-flips, truncation, duplication,
//!   reordering and clock rewinds on a schedule, to prove the verifier
//!   catches what it claims to catch.
//!
//! ```
//! use clio_trace::record::{IoOp, TraceRecord};
//! use clio_trace::{TraceFile, header::TraceHeader};
//!
//! let records = vec![
//!     TraceRecord::simple(IoOp::Open, 0, 0, 0),
//!     TraceRecord::simple(IoOp::Read, 0, 0, 131072),
//!     TraceRecord::simple(IoOp::Close, 0, 0, 0),
//! ];
//! let trace = TraceFile::build("sample.dat", 1, records).unwrap();
//! let bytes = trace.to_bytes();
//! let back = TraceFile::from_bytes(&bytes).unwrap();
//! assert_eq!(trace.records, back.records);
//! assert_eq!(trace.header.sample_file, back.header.sample_file);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod codec;
pub mod compact;
pub mod error;
pub mod fault;
pub mod header;
pub mod reader;
pub mod record;
pub mod replay;
pub mod source;
pub mod stats;
pub mod synth;
pub mod verify;
pub mod writer;

pub use compact::{CompactSource, CompactStream, CompactWriter};
pub use error::TraceError;
pub use fault::{FaultKind, FaultPlan, FaultSource, FaultSpec};
pub use header::TraceHeader;
pub use reader::TraceFile;
pub use record::{IoOp, TraceRecord};
pub use replay::{OpTiming, ReplayReport};
pub use source::{SourceMeta, TraceSource};
pub use stats::TraceStats;
pub use verify::{
    verify_lenient, verify_strict, QuarantineSource, StrictSource, VerifyError, VerifyMode,
    VerifyOptions, VerifyReport, ViolationCounts,
};
