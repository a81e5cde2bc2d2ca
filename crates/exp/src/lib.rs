//! # clio-exp — the unified experiment API
//!
//! The paper runs one conceptual experiment: *drive an I/O workload
//! through a cache/machine model and report costs*. This crate is that
//! sentence as an API — one composable front door to every replay and
//! simulation engine in the workspace:
//!
//! ```text
//! Workload  ─────►  Engine  ─────►  Report
//! (what to replay)  (what to replay it on)  (what came out)
//! ```
//!
//! - [`Workload`] names a record stream: statistically synthesized,
//!   app-generated (dmine/titan/lu/cholesky/pgrep), loaded from a
//!   file, an in-memory trace, a custom iterator-backed source, or a
//!   chained/interleaved/ratio-weighted/shared-file mix of two
//!   workloads — with scenario knobs (Zipfian/hotspot popularity,
//!   bursty/diurnal arrivals, phased working sets, disk-fault plans)
//!   riding on the same parse grammar (see [`Scenario`]). Opening
//!   a workload yields a **streaming**
//!   [`TraceSource`](clio_trace::source::TraceSource) — records come
//!   one at a time, and every engine consumes them that way: the
//!   serial engines stream once, the parallel engine reads once and
//!   hands its workers the records in shared chunks, and the
//!   simulators demultiplex a stream per process through a
//!   [`PidSplitter`](clio_trace::source::PidSplitter), which feeds a
//!   mix of synthetic sides one part per process and parks nothing
//!   past the roster prefix. No engine materializes the workload.
//! - [`Engine`] selects the machinery: serial cached replay,
//!   sharded-parallel replay, trace-driven machine simulation,
//!   seek-aware scheduled simulation, or real-backend replay.
//! - [`Report`] is the single result type subsuming the engines'
//!   native reports, with serde JSON output via [`Report::summary`].
//!   [`ReportMode::Summary`] keeps running aggregates instead of
//!   per-record timings — O(1) report memory, bit-identical summary
//!   numbers — so workloads larger than memory flow end to end.
//!
//! ```
//! use clio_exp::{Engine, Experiment, Workload};
//! use clio_trace::record::IoOp;
//! use clio_trace::synth::TraceProfile;
//!
//! let report = Experiment::builder()
//!     .workload(Workload::Synthetic(TraceProfile::dmine_like()))
//!     .engine(Engine::SerialReplay)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! // The paper's universal observation survives any front door:
//! assert!(report.mean_ms(IoOp::Close).unwrap() > report.mean_ms(IoOp::Open).unwrap());
//! ```
//!
//! Underneath sit the canonical engines, one driver per cost target:
//! `clio_trace::replay::{replay_cached, replay_sharded, replay_backend}`
//! — each takes the [`ReportMode`] and returns one `ReplayReport`, so
//! "what a replay keeps" is decided there and [`Experiment::run`]
//! never asks; `replay_cached_pipelined`, which an admitting serial
//! replay runs, is `replay_cached` with the cache on a thread of its
//! own, fed through the same chunk pipeline as `replay_sharded`'s
//! workers, the calling thread reading at most three 1024-record chunks
//! ahead — and `clio_sim`'s two simulators,
//! `trace_driven::trace_sim` and `sched_replay::scheduled_trace_sim`:
//! one streaming process driver over a striped FCFS array or over
//! seek-aware scheduled disks. Under open-loop think time a simulated
//! process sleeps until its record's captured instant and issues when
//! it wakes; it never books a disk ahead of time. Equivalence tests
//! pin this builder path bit-identical to all five, `replay_sharded`
//! to its materialized reference `replay_parallel`, and
//! `tests/sim_golden.rs` pins both simulators against recorded
//! literals. [`run_many`] runs any batch of experiments on a worker
//! pool, each through [`Experiment::run`].
//!
//! **Layering rule:** `clio-exp` may depend on `clio-trace`,
//! `clio-sim`, `clio-cache` and `clio-apps` — never the reverse. The
//! substrates stay engine libraries; this crate is the only place that
//! knows about all of them at once.

#![deny(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod engine;
pub mod error;
pub mod experiment;
pub mod report;
pub mod scenario;
pub mod serve;
pub mod workload;

pub use engine::Engine;
pub use error::ExpError;
pub use experiment::{run_many, run_policy_comparison, Experiment, ExperimentBuilder};
pub use report::{PolicyRow, QuarantineSummary, Report, ReportSummary};
pub use scenario::Scenario;
pub use serve::{ServeOptions, ServeSummary};
pub use workload::{AppWorkload, MixKind, Workload};

pub use clio_sim::sched_replay::{DiskFaultPlan, SlowWindow};
pub use clio_trace::replay::ReportMode;
pub use clio_trace::verify::{VerifyError, VerifyMode};
