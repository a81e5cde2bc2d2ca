//! # clio-sim — discrete-event simulation substrate
//!
//! The paper evaluates the QCRD behavioral model on a *simulated system*
//! whose disk and CPU counts are swept from 2 to 32 (Figures 4 and 5) —
//! configurations no single testbed provides. This crate is that
//! simulated system, built as a small but genuine discrete-event
//! simulator:
//!
//! - [`time`] — simulated clock ([`SimTime`]),
//! - [`engine`] — one time-ordered event queue ([`EventQueue`]) with
//!   two fronts: typed events the caller `match`es on (no allocation
//!   per event), and closures over a world state ([`Engine`]),
//! - [`resource`] — FCFS multi-server resources ([`FcfsServer`]),
//! - [`disk`] — a seek/rotation/transfer disk service model and striped
//!   disk arrays,
//! - [`sched`] — disk request schedulers (FCFS, SSTF, SCAN, C-LOOK)
//!   with a distance-calibrated seek curve,
//! - [`raid`] — RAID-0/1/5 layout mapping and service models,
//! - [`trace_driven`] and [`sched_replay`] — the two trace simulators:
//!   one streaming process driver replaying a captured record stream
//!   onto the machine's disks, over a striped FCFS array
//!   ([`trace_driven::trace_sim`]) or over seek-aware disks with
//!   per-disk request scheduling and deterministic fault plans
//!   ([`sched_replay::scheduled_trace_sim`]). The driver is the typed
//!   front of the event queue: a closed `enum` of process steps,
//!   think-gap wake-ups and the array's own chunk/retry events,
//!   striped by [`disk::stripe_shares`] in closed form — an
//!   allocation-free event loop,
//! - [`network`] — interconnect service model for communication bursts,
//! - [`machine`] — a machine configuration bundling CPUs, a disk array
//!   and a network ([`MachineConfig`]),
//! - [`executor`] — executes a [`clio_model::Application`] on a machine,
//!   producing per-program CPU/I/O/communication breakdowns (Fig. 2/3)
//!   and the application makespan (the closure front: its runs take
//!   microseconds),
//! - [`speedup`] — resource-count sweeps producing
//!   [`clio_stats::SpeedupCurve`]s (Fig. 4/5).
//!
//! ## Modeling choices
//!
//! Bursts are *divisible*: an I/O burst is split into stripe-unit-sized
//! chunk requests issued in a batch across the disk array, and a CPU
//! burst into scheduling quanta across the CPU pool. This mirrors the
//! paper's description of QCRD ("first fills a set of buffers in memory
//! and then processes the data") and lets contention between the two
//! concurrently executing programs emerge from FCFS queueing instead of
//! being assumed.
//!
//! ```
//! use clio_model::qcrd::qcrd_application;
//! use clio_sim::{executor::simulate, machine::MachineConfig};
//!
//! let report = simulate(&qcrd_application(), &MachineConfig::uniprocessor());
//! assert!(report.makespan > 0.0);
//! // Program 2 is the more I/O-intensive one (paper Fig. 3).
//! assert!(report.programs[1].io_share() > report.programs[0].io_share());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod disk;
pub mod engine;
pub mod executor;
pub mod machine;
pub mod network;
mod proc_driver;
pub mod raid;
pub mod resource;
pub mod sched;
pub mod sched_replay;
pub mod speedup;
pub mod time;
pub mod trace_driven;

pub use disk::DiskModel;
pub use engine::{Engine, EventQueue};
pub use executor::{simulate, ProgramReport, SimReport};
pub use machine::MachineConfig;
pub use raid::{RaidArray, RaidLevel};
pub use resource::FcfsServer;
pub use sched::{DiskRequest, Policy, Scheduler, SeekCurve};
pub use sched_replay::{DiskFaultPlan, SchedReplayOptions, SlowWindow};
pub use time::SimTime;
