//! Trace-driven machine simulation.
//!
//! The paper's trace simulator "reads each trace file and performs the
//! I/O operations"; its future work calls for "benchmarks for
//! I/O-intensive computing in a widely distributed environment". This
//! module closes the loop between the trace infrastructure and the
//! machine simulator: a captured record stream is replayed *onto the
//! simulated machine*, with each traced process driving its own request
//! stream and all streams contending for the shared disk array — so a
//! single-node trace can be evaluated on hypothetical machines (more
//! disks, faster spindles, wider stripes) or scaled out to many
//! concurrent client processes without re-running the original
//! application.
//!
//! [`trace_sim`] is one of two drivers over the same streaming process
//! loop (the other is
//! [`scheduled_trace_sim`](crate::sched_replay::scheduled_trace_sim)):
//! the stream is opened once and read once through a
//! [`PidSplitter`](clio_trace::source::PidSplitter), which first reads
//! ahead just far enough to see the processes the stream declares —
//! they all start at time zero, in first-appearance order — and then
//! feeds each process its own records — from its own part of the
//! stream when the source vouches for its parts (a mix of synthetic
//! sides). No materialized trace is ever built, and what the splitter
//! had to park (that prefix, and on a one-part stream what a process
//! read past, the other processes' tails above all) is reported as
//! [`TraceSimReport::splitter_peak_buffered`]. A pid beyond the
//! declared count — only unverified or hand-built input carries one —
//! joins at the simulated instant its first record is read. The loop
//! is a typed event queue drained by `match`; it allocates nothing per
//! event.
//! Each process issues its records in order;
//! opens, closes and seeks cost a fixed host overhead, and reads and
//! writes occupy this module's disk array: striped, first come first
//! served, every chunk charged the disk model's flat positioning cost.
//!
//! **Think time is sleep-then-issue.** Under [`ThinkTime::FromTrace`] a
//! process sleeps out the captured gap since its previous record and
//! submits its transfer when it wakes; the disks stay free for every
//! other process meanwhile. Under [`ThinkTime::ClosedLoop`] captured
//! clocks are ignored and a process issues its next record the moment
//! the previous completes.

use std::convert::Infallible;
use std::fmt;

use clio_trace::source::TraceSource;

use crate::disk::{stripe_shares, striped_service};
use crate::machine::MachineConfig;
use crate::proc_driver::{self, resume_at, DiskArray, Queue};
use crate::resource::FcfsServer;
use crate::time::SimTime;

/// How inter-record delays are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThinkTime {
    /// Ignore captured clocks: each process issues its next record the
    /// moment the previous completes (closed-loop stress replay).
    #[default]
    ClosedLoop,
    /// Respect the captured inter-record wall-clock gaps (open-loop,
    /// rate-faithful replay): a process sleeps until its next record's
    /// captured instant, then issues it.
    FromTrace,
}

/// Replay options.
#[derive(Debug, Clone, Default)]
pub struct TraceSimOptions {
    /// Think-time handling.
    pub think_time: ThinkTime,
}

/// Result of simulating a trace on a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSimReport {
    /// Completion time of the whole replay, seconds.
    pub makespan: f64,
    /// Per-process completion times, indexed by position in
    /// [`TraceSimReport::pids`].
    pub process_finish: Vec<f64>,
    /// The distinct pids, in first-appearance order.
    pub pids: Vec<u32>,
    /// Total bytes moved through the disk array.
    pub bytes_moved: u64,
    /// Mean disk utilization over the makespan.
    pub disk_utilization: f64,
    /// Number of simulation events processed.
    pub events: u64,
    /// Number of trace records replayed.
    pub records: u64,
    /// Transient disk errors recovered by retry (scheduled replay
    /// under a [`crate::sched_replay::DiskFaultPlan`]; 0 elsewhere).
    pub retries: u64,
    /// Requests dropped after exhausting the retry budget (scheduled
    /// replay under a fault plan; 0 elsewhere).
    pub dropped_requests: u64,
    /// High-water mark of records the per-pid demultiplexer
    /// ([`PidSplitter`](clio_trace::source::PidSplitter)) had parked at
    /// once: the prefix read before time zero to learn the process
    /// roster (the whole stream when it declares more processes than
    /// it carries), then, on a stream that is one part, what a process
    /// read past for the others — above all, when a process finished,
    /// the rest of the stream it read to learn that. The run's O(trace)
    /// memory term, if any; a mix of synthetic sides, each pid pulled
    /// from its own part, holds it at most at the number of parts.
    pub splitter_peak_buffered: u64,
}

/// Why a trace simulator refused its configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// [`MachineConfig::validate`] rejected the machine; its message.
    InvalidMachine(String),
    /// The scheduled replay was asked for disks with no cylinders.
    ZeroCylinders,
    /// [`DiskFaultPlan::validate`](crate::sched_replay::DiskFaultPlan::validate)
    /// rejected the fault plan; its message.
    InvalidFaultPlan(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidMachine(m) => write!(f, "invalid machine: {m}"),
            SimError::ZeroCylinders => write!(f, "disks need at least one cylinder"),
            SimError::InvalidFaultPlan(m) => write!(f, "invalid disk fault plan: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Striped disks served first come first served: a chunk reserves its
/// disk from the later of now and the disk's last reservation.
struct FcfsArray {
    cfg: MachineConfig,
    disks: Vec<FcfsServer>,
    /// Per process: the disk its next transfer's first chunk lands on.
    /// Grows when a process submits for the first time.
    stripe_rotation: Vec<usize>,
}

impl DiskArray for FcfsArray {
    /// Every chunk is reserved at submit time, so the array has no
    /// events of its own.
    type Event = Infallible;

    fn submit(&mut self, queue: &mut Queue<Self>, proc_idx: u32, _offset: u64, bytes: u64) {
        let now = queue.now();
        let cfg = &self.cfg;
        let p = proc_idx as usize;
        if p >= self.stripe_rotation.len() {
            self.stripe_rotation.resize(p + 1, 0);
        }
        let rotation = self.stripe_rotation[p];
        let mut completion = now;
        let shares = stripe_shares(bytes, self.disks.len(), cfg.stripe_unit);
        for (i, (chunks, tail)) in shares.enumerate() {
            let service = striped_service(&cfg.disk_model, cfg.stripe_unit, chunks, tail);
            if service <= 0.0 {
                continue;
            }
            let disk = (rotation + i) % self.disks.len();
            let (_, end) = self.disks[disk].acquire(now, service);
            completion = completion.max(end);
        }
        self.stripe_rotation[p] = (rotation + 1) % self.disks.len();
        resume_at(queue, completion, proc_idx);
    }

    fn fire(&mut self, _queue: &mut Queue<Self>, event: Infallible) {
        match event {}
    }

    fn utilization(&self, end: SimTime) -> f64 {
        self.disks.iter().map(|d| d.utilization(end)).sum::<f64>() / self.disks.len() as f64
    }
}

/// Simulates the record stream `open` yields on `machine`: every
/// traced process replays its own records, all of them contending for
/// one striped first-come-first-served disk array.
///
/// `open` is called exactly once and the stream is read exactly once;
/// `|| &mut stream` keeps the stream the caller's, to ask afterwards
/// why it ended ([`TraceSource::take_failure`]).
/// The processes are the distinct pids of the shortest prefix showing
/// `meta().num_processes` of them; a pid that first appears after it
/// joins when its first record is read (see the module docs).
///
/// # Errors
/// [`SimError::InvalidMachine`] if `machine` fails
/// [`MachineConfig::validate`]; the stream is not opened.
pub fn trace_sim<S: TraceSource>(
    open: impl FnOnce() -> S,
    machine: &MachineConfig,
    options: &TraceSimOptions,
) -> Result<TraceSimReport, SimError> {
    machine.validate().map_err(SimError::InvalidMachine)?;
    let array = FcfsArray {
        disks: (0..machine.disks).map(|_| FcfsServer::new(1)).collect(),
        cfg: machine.clone(),
        stripe_rotation: Vec::new(),
    };
    let (report, _) = proc_driver::run(open, options.think_time, array);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_trace::record::{IoOp, TraceRecord};
    use clio_trace::source::SliceSource;
    use clio_trace::writer::TraceWriter;
    use clio_trace::TraceFile;

    /// A factory of fresh streams over `trace`.
    fn reopen<'t>(trace: &'t TraceFile) -> impl Fn() -> Box<dyn TraceSource + 't> + 't {
        move || Box::new(SliceSource::new(trace))
    }

    fn single_process_trace(reads: usize, bytes: u64) -> TraceFile {
        let mut w = TraceWriter::new("sim.dat").with_tick_us(1000);
        w.op(IoOp::Open, 0, 0, 0);
        for i in 0..reads as u64 {
            w.op(IoOp::Read, 0, i * bytes, bytes);
        }
        w.op(IoOp::Close, 0, 0, 0);
        w.finish().expect("valid trace")
    }

    fn multi_process_trace(procs: u32, reads: usize, bytes: u64) -> TraceFile {
        let mut w = TraceWriter::new("sim.dat").with_processes(procs).with_tick_us(1000);
        for i in 0..reads as u64 {
            for pid in 0..procs {
                w.record(IoOp::Read, pid, 0, i * bytes, bytes);
            }
        }
        w.finish().expect("valid trace")
    }

    #[test]
    fn transfer_time_matches_disk_model() {
        let trace = single_process_trace(10, 4 * 1024 * 1024);
        let machine = MachineConfig::uniprocessor();
        let report = trace_sim(reopen(&trace), &machine, &TraceSimOptions::default()).unwrap();
        // 40 MiB at 40 MiB/s plus positioning ≈ 1s.
        assert!(report.makespan > 0.9 && report.makespan < 1.3, "makespan {}", report.makespan);
        assert_eq!(report.bytes_moved, 40 * 1024 * 1024);
        assert_eq!(report.pids, vec![0]);
        assert_eq!(report.records, trace.len() as u64);
    }

    #[test]
    fn more_disks_speed_up_the_replay() {
        let trace = single_process_trace(16, 8 * 1024 * 1024);
        let opts = TraceSimOptions::default();
        let t1 = trace_sim(reopen(&trace), &MachineConfig::with_disks(1), &opts).unwrap().makespan;
        let t8 = trace_sim(reopen(&trace), &MachineConfig::with_disks(8), &opts).unwrap().makespan;
        assert!(t8 < t1 / 4.0, "striping speedup: {t1} -> {t8}");
    }

    #[test]
    fn concurrent_processes_contend() {
        let one = multi_process_trace(1, 8, 4 * 1024 * 1024);
        let four = multi_process_trace(4, 8, 4 * 1024 * 1024);
        let opts = TraceSimOptions::default();
        let m = MachineConfig::uniprocessor();
        let t1 = trace_sim(reopen(&one), &m, &opts).unwrap().makespan;
        let t4 = trace_sim(reopen(&four), &m, &opts).unwrap().makespan;
        // 4x the work on one disk takes ~4x as long.
        assert!(t4 > 3.0 * t1, "contention: {t1} vs {t4}");
        assert_eq!(trace_sim(reopen(&four), &m, &opts).unwrap().pids.len(), 4);
    }

    #[test]
    fn extra_disks_absorb_concurrent_processes() {
        let four = multi_process_trace(4, 8, 4 * 1024 * 1024);
        let opts = TraceSimOptions::default();
        let t1 = trace_sim(reopen(&four), &MachineConfig::with_disks(1), &opts).unwrap().makespan;
        let t4 = trace_sim(reopen(&four), &MachineConfig::with_disks(4), &opts).unwrap().makespan;
        assert!(t4 < t1 / 2.5, "scale-out: {t1} -> {t4}");
    }

    #[test]
    fn open_loop_respects_captured_gaps() {
        // Records are 50 ms apart in wall clock — far more than their
        // ~13 ms service time, so the captured rate gates the replay.
        let mut w = TraceWriter::new("gaps.dat").with_tick_us(50_000);
        w.op(IoOp::Open, 0, 0, 0);
        for i in 0..100u64 {
            w.op(IoOp::Read, 0, i * 512, 512);
        }
        w.op(IoOp::Close, 0, 0, 0);
        let trace = w.finish().expect("valid trace");

        let closed = trace_sim(
            reopen(&trace),
            &MachineConfig::uniprocessor(),
            &TraceSimOptions { think_time: ThinkTime::ClosedLoop },
        )
        .unwrap();
        let open = trace_sim(
            reopen(&trace),
            &MachineConfig::uniprocessor(),
            &TraceSimOptions { think_time: ThinkTime::FromTrace },
        )
        .unwrap();
        // Open loop must span at least the captured 5+ seconds.
        assert!(open.makespan > 5.0, "open-loop makespan {}", open.makespan);
        assert!(
            closed.makespan < open.makespan / 2.0,
            "closed loop compresses think time: {} vs {}",
            closed.makespan,
            open.makespan
        );
    }

    #[test]
    fn a_thinking_process_holds_no_disk() {
        // pid 0 reads at 0 s and 10 s, pid 1 at 0, 1, 2 and 3 s, one
        // disk. pid 0's ten-second think must not reserve the disk:
        // pid 1 finishes just after its last captured instant.
        let stamped = |pid: u32, at_s: u64| {
            let mut r = TraceRecord::simple(IoOp::Read, 0, at_s * 4096, 4096);
            r.pid = pid;
            r.wall_clock_us = at_s * 1_000_000;
            r
        };
        let records = vec![
            stamped(0, 0),
            stamped(1, 0),
            stamped(1, 1),
            stamped(1, 2),
            stamped(1, 3),
            stamped(0, 10),
        ];
        let trace = TraceFile::build("think.dat", 2, records).expect("valid trace");
        let report = trace_sim(
            reopen(&trace),
            &MachineConfig::uniprocessor(),
            &TraceSimOptions { think_time: ThinkTime::FromTrace },
        )
        .unwrap();
        assert_eq!(report.pids, vec![0, 1]);
        let (pid0, pid1) = (report.process_finish[0], report.process_finish[1]);
        assert!(pid1 > 3.0 && pid1 < 3.1, "pid 1 waited behind a sleeping process: {pid1}");
        assert!(pid0 > 10.0 && report.makespan < 10.1, "run finished at {}", report.makespan);
    }

    #[test]
    fn invalid_machine_is_an_error_not_a_panic() {
        let trace = single_process_trace(1, 4096);
        let err = trace_sim(reopen(&trace), &MachineConfig::with_disks(0), &Default::default())
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidMachine(_)), "{err:?}");
        assert!(err.to_string().contains("disk"), "{err}");
    }

    #[test]
    fn metadata_only_trace_is_fast() {
        let mut w = TraceWriter::new("meta.dat");
        w.op(IoOp::Open, 0, 0, 0);
        for i in 0..50 {
            w.op(IoOp::Seek, 0, i * 1000, 0);
        }
        w.op(IoOp::Close, 0, 0, 0);
        let trace = w.finish().expect("valid");
        let report =
            trace_sim(reopen(&trace), &MachineConfig::uniprocessor(), &TraceSimOptions::default())
                .unwrap();
        assert!(report.makespan < 0.01, "metadata ops are cheap: {}", report.makespan);
        assert_eq!(report.bytes_moved, 0);
    }

    #[test]
    fn repeat_counts_multiply_bytes() {
        let mut rec = TraceRecord::simple(IoOp::Read, 0, 0, 1000);
        rec.num_records = 5;
        let trace = TraceFile::build("r.dat", 1, vec![rec]).expect("valid");
        let report =
            trace_sim(reopen(&trace), &MachineConfig::uniprocessor(), &TraceSimOptions::default())
                .unwrap();
        assert_eq!(report.bytes_moved, 5000);
    }

    #[test]
    fn utilization_bounded_and_deterministic() {
        let trace = multi_process_trace(3, 10, 1024 * 1024);
        let m = MachineConfig::with_disks(2);
        let a = trace_sim(reopen(&trace), &m, &TraceSimOptions::default()).unwrap();
        let b = trace_sim(reopen(&trace), &m, &TraceSimOptions::default()).unwrap();
        assert_eq!(a, b, "deterministic");
        assert!((0.0..=1.0).contains(&a.disk_utilization));
        assert!(a.events > 0);
    }
}
