//! Seek-aware, scheduler-driven trace replay.
//!
//! [`trace_sim`](crate::trace_driven::trace_sim) charges every request
//! the disk model's flat positioning cost and serves arrivals FCFS —
//! sufficient for the paper's bandwidth questions, blind to request
//! *ordering*. [`scheduled_trace_sim`] runs the same streaming process
//! loop (one pass through a
//! [`PidSplitter`](clio_trace::source::PidSplitter), the roster taken
//! from the stream's prefix; fixed host cost for opens, closes and
//! seeks) over this module's disk
//! array instead: disks with an explicit head position, a
//! distance-dependent seek curve ([`SeekCurve`]) and a pluggable
//! request scheduler ([`Policy`]). Requests that find the disk busy
//! queue up, and the scheduler picks which to serve next. Under
//! contention (many processes, one spindle) the classic result
//! emerges — SSTF/SCAN shorten the makespan of random-access workloads
//! over FCFS, and do nothing for sequential ones. A [`DiskFaultPlan`]
//! degrades the disks deterministically. The replay is closed-loop:
//! every process issues its next record the moment the previous
//! completes.

use clio_trace::source::TraceSource;

use crate::disk::stripe_shares;
use crate::machine::MachineConfig;
use crate::proc_driver::{self, resume_at, DiskArray, Event};
use crate::sched::{DiskRequest, Policy, Scheduler, SeekCurve};
use crate::time::SimTime;
use crate::trace_driven::{SimError, ThinkTime, TraceSimReport};

/// Geometry and policy of the scheduled replay.
#[derive(Debug, Clone)]
pub struct SchedReplayOptions {
    /// Request scheduling policy at each disk.
    pub policy: Policy,
    /// Cylinders per disk (maps byte offsets onto head positions).
    pub cylinders: u64,
    /// Degraded-hardware fault plan (default: healthy disks).
    pub faults: DiskFaultPlan,
}

impl Default for SchedReplayOptions {
    fn default() -> Self {
        Self { policy: Policy::Fcfs, cylinders: 60_000, faults: DiskFaultPlan::default() }
    }
}

/// A window of simulated time during which every disk serves requests
/// slower by a constant factor — a thermal throttle, a background
/// scrub, a RAID rebuild.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowWindow {
    /// Window start, simulated seconds (inclusive).
    pub start_s: f64,
    /// Window end, simulated seconds (exclusive).
    pub end_s: f64,
    /// Service-time multiplier inside the window (`>= 1.0` slows the
    /// disk down; overlapping windows multiply).
    pub multiplier: f64,
}

/// A deterministic degraded-disk scenario for the scheduled replay:
/// latency-multiplier windows plus transient per-request errors with
/// bounded retry — the fault model the healthy-path sims never
/// exercise.
///
/// The default plan is quiet (no windows, `error_every == 0`) and
/// provably changes nothing: a `×1.0` multiplier is bit-identical in
/// IEEE arithmetic and the error branch is never taken.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskFaultPlan {
    /// Degraded-latency windows (empty = full speed throughout).
    pub slow_windows: Vec<SlowWindow>,
    /// Every `error_every`-th request **started** on a disk fails its
    /// first service attempt with a transient error (0 = never).
    pub error_every: u64,
    /// Service attempts allowed beyond the first. With 0 retries a
    /// failed request is dropped — counted, and its process resumes,
    /// so degradation never deadlocks the simulation.
    pub max_retries: u32,
    /// Simulated back-off between a failed attempt and its retry,
    /// seconds. The disk stays busy through the back-off, as a real
    /// device does while its firmware re-reads.
    pub retry_backoff_s: f64,
}

impl Default for DiskFaultPlan {
    fn default() -> Self {
        Self { slow_windows: Vec::new(), error_every: 0, max_retries: 1, retry_backoff_s: 1e-3 }
    }
}

impl DiskFaultPlan {
    /// The combined service-time multiplier at simulated time `t_s`
    /// (product over every containing window; `1.0` outside all).
    pub fn multiplier_at(&self, t_s: f64) -> f64 {
        self.slow_windows
            .iter()
            .filter(|w| w.start_s <= t_s && t_s < w.end_s)
            .fold(1.0, |m, w| m * w.multiplier)
    }

    /// Checks that no window can make a service time negative or NaN
    /// (every `multiplier` finite and `>= 0`, no NaN window bound) and
    /// that the retry back-off is finite. Speed-ups (`< 1`) pass: the
    /// `>= 1` rule belongs to the scenario grammar, not the model.
    pub fn validate(&self) -> Result<(), String> {
        for w in &self.slow_windows {
            if !(w.multiplier >= 0.0 && w.multiplier.is_finite()) {
                return Err(format!("invalid slow-window multiplier {}", w.multiplier));
            }
            if w.start_s.is_nan() || w.end_s.is_nan() {
                return Err(format!("invalid slow window [{}, {})", w.start_s, w.end_s));
            }
        }
        if !self.retry_backoff_s.is_finite() {
            return Err(format!("invalid retry back-off {}", self.retry_backoff_s));
        }
        Ok(())
    }
}

struct Transfer {
    remaining: usize,
    proc_idx: u32,
}

struct DiskState {
    sched: Scheduler,
    busy: bool,
    busy_time: f64,
    /// Requests this disk has started serving (drives the
    /// `error_every` fault schedule).
    started: u64,
    /// A request whose first attempt failed, waiting out its back-off
    /// (the disk stays `busy` until [`SchedEvent::RetryReady`]); served
    /// before anything queued.
    retry: Option<(DiskRequest, u32)>,
}

/// What a [`SchedArray`] schedules for itself. Disk and transfer-slot
/// indices are `u32` to keep a heap entry at 32 bytes; see
/// [`scheduled_trace_sim`] for the bound on disks, and at most one
/// transfer per process is in flight.
enum SchedEvent {
    /// `disk` finished serving (or dropping) a chunk of transfer `tid`.
    ChunkDone { disk: u32, tid: u32 },
    /// `disk` sat out the back-off of the request parked in its
    /// `retry` slot.
    RetryReady { disk: u32 },
}

/// Striped disks with a head position and a request queue each; the
/// scheduling policy picks the next request whenever a disk falls idle.
struct SchedArray {
    cfg: MachineConfig,
    curve: SeekCurve,
    bytes_per_cylinder: u64,
    disks: Vec<DiskState>,
    transfers: Vec<Transfer>,
    /// Completed transfer slots, reusable by the next `submit` — the
    /// transfer table stays O(max in-flight transfers), not
    /// O(#IO-records).
    free_transfers: Vec<u32>,
    faults: DiskFaultPlan,
    retries: u64,
    dropped: u64,
}

type Queue = proc_driver::Queue<SchedArray>;

/// Replays the record stream `open` yields on `machine` with per-disk
/// request scheduling — the same streaming process loop as
/// [`trace_sim`](crate::trace_driven::trace_sim), closed-loop, over
/// seek-aware queued disks. `open` is called exactly once and the
/// stream read exactly once.
///
/// # Errors
/// [`SimError::InvalidMachine`] if `machine` fails
/// [`MachineConfig::validate`] or has more than `u32::MAX` disks,
/// [`SimError::ZeroCylinders`] if `options.cylinders` is 0,
/// [`SimError::InvalidFaultPlan`] if `options.faults` fails
/// [`DiskFaultPlan::validate`]; the stream is not opened.
pub fn scheduled_trace_sim<S: TraceSource>(
    open: impl FnOnce() -> S,
    machine: &MachineConfig,
    options: &SchedReplayOptions,
) -> Result<TraceSimReport, SimError> {
    machine.validate().map_err(SimError::InvalidMachine)?;
    if u32::try_from(machine.disks).is_err() {
        return Err(SimError::InvalidMachine(format!("too many disks: {}", machine.disks)));
    }
    if options.cylinders == 0 {
        return Err(SimError::ZeroCylinders);
    }
    options.faults.validate().map_err(SimError::InvalidFaultPlan)?;

    let array = SchedArray {
        curve: SeekCurve::from_model(&machine.disk_model, options.cylinders),
        bytes_per_cylinder: ((1u64 << 30) / options.cylinders).max(1),
        disks: (0..machine.disks)
            .map(|_| DiskState {
                sched: Scheduler::new(options.policy, options.cylinders / 2),
                busy: false,
                busy_time: 0.0,
                started: 0,
                retry: None,
            })
            .collect(),
        transfers: Vec::new(),
        free_transfers: Vec::new(),
        faults: options.faults.clone(),
        retries: 0,
        dropped: 0,
        cfg: machine.clone(),
    };
    let (mut report, array) = proc_driver::run(open, ThinkTime::ClosedLoop, array);
    report.retries = array.retries;
    report.dropped_requests = array.dropped;
    Ok(report)
}

impl DiskArray for SchedArray {
    type Event = SchedEvent;

    /// Splits the transfer across the stripe and enqueues one request
    /// per participating disk; the process resumes when the last chunk
    /// lands.
    fn submit(&mut self, queue: &mut Queue, proc_idx: u32, offset: u64, bytes: u64) {
        let n_disks = self.disks.len();
        let stripe_unit = self.cfg.stripe_unit;
        let shares = stripe_shares(bytes, n_disks, stripe_unit)
            .map(move |(chunks, tail)| chunks * stripe_unit + tail);
        // Reuse a completed slot when one exists: a completed transfer has
        // fired all of its chunk completions, so nothing references it.
        let transfer = Transfer { remaining: shares.clone().filter(|&b| b > 0).count(), proc_idx };
        let tid = match self.free_transfers.pop() {
            Some(tid) => {
                self.transfers[tid as usize] = transfer;
                tid
            }
            None => {
                self.transfers.push(transfer);
                (self.transfers.len() - 1) as u32
            }
        };

        // Head position target: each disk stores its share of the logical
        // space, so the per-disk offset shrinks by the member count.
        let per_disk_offset = offset / n_disks.max(1) as u64;
        let cylinder = (per_disk_offset / self.bytes_per_cylinder) % self.curve.cylinders;

        for (d, b) in shares.enumerate().filter(|&(_, b)| b > 0) {
            self.disks[d].sched.push(DiskRequest { id: tid as u64, cylinder, bytes: b });
            self.start_if_idle(queue, d as u32);
        }
    }

    fn fire(&mut self, queue: &mut Queue, event: SchedEvent) {
        let disk = match event {
            SchedEvent::ChunkDone { disk, tid } => {
                self.complete_chunk(queue, tid);
                disk
            }
            SchedEvent::RetryReady { disk } => disk,
        };
        self.disks[disk as usize].busy = false;
        self.start_if_idle(queue, disk);
    }

    fn utilization(&self, end: SimTime) -> f64 {
        if end.seconds() <= 0.0 {
            return 0.0;
        }
        self.disks.iter().map(|d| d.busy_time).sum::<f64>()
            / (self.disks.len() as f64 * end.seconds())
    }
}

impl SchedArray {
    fn start_if_idle(&mut self, queue: &mut Queue, disk_idx: u32) {
        let disk = &mut self.disks[disk_idx as usize];
        if disk.busy {
            return;
        }
        let head_before = disk.sched.head();
        // A request that sat out its retry back-off goes first (its head
        // position is wherever the failed attempt left it); otherwise ask
        // the scheduler for the next queued request.
        let (req, attempt) = match disk.retry.take() {
            Some(retry) => retry,
            None => {
                let Some(req) = disk.sched.next() else {
                    return;
                };
                disk.started += 1;
                (req, 0)
            }
        };
        let distance = req.cylinder.abs_diff(head_before);
        // Degraded latency: the fault plan's slow windows scale the whole
        // service time. The quiet plan multiplies by exactly 1.0, which is
        // bit-identical in IEEE arithmetic — no drift on healthy runs.
        let service = (self.curve.seek_time(distance)
            + self.cfg.disk_model.rotational
            + self.cfg.disk_model.transfer(req.bytes))
            * self.faults.multiplier_at(queue.now().seconds());
        disk.busy = true;
        disk.busy_time += service;

        // Transient error: every `error_every`-th request started on this
        // disk fails its first attempt after consuming its service time
        // (the firmware tried and gave up).
        let failed = attempt == 0
            && self.faults.error_every > 0
            && disk.started % self.faults.error_every == 0;
        let done = SchedEvent::ChunkDone { disk: disk_idx, tid: req.id as u32 };
        if !failed {
            queue.schedule_in(service, Event::Array(done));
        } else if self.faults.max_retries == 0 {
            // No retry budget: drop the request gracefully — count it
            // and let the transfer complete so the process resumes.
            self.dropped += 1;
            queue.schedule_in(service, Event::Array(done));
        } else {
            // Bounded retry: hold the disk busy through the back-off,
            // then re-serve the same request (attempt 1 succeeds —
            // the error is transient).
            self.retries += 1;
            disk.retry = Some((req, attempt + 1));
            let backoff = self.faults.retry_backoff_s.max(0.0);
            queue.schedule_in(
                service + backoff,
                Event::Array(SchedEvent::RetryReady { disk: disk_idx }),
            );
        }
    }

    /// One striped chunk of transfer `tid` landed; when the last one
    /// does, the owning process resumes and the slot is recycled.
    fn complete_chunk(&mut self, queue: &mut Queue, tid: u32) {
        let transfer = &mut self.transfers[tid as usize];
        transfer.remaining -= 1;
        if transfer.remaining == 0 {
            let proc_idx = transfer.proc_idx;
            self.free_transfers.push(tid);
            resume_at(queue, queue.now(), proc_idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_driven::trace_sim;
    use clio_trace::record::{IoOp, TraceRecord};
    use clio_trace::source::SliceSource;
    use clio_trace::writer::TraceWriter;
    use clio_trace::TraceFile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A factory of fresh streams over `trace`.
    fn reopen<'t>(trace: &'t TraceFile) -> impl Fn() -> Box<dyn TraceSource + 't> + 't {
        move || Box::new(SliceSource::new(trace))
    }

    /// Many processes hammering one disk with scattered small reads —
    /// the queue-depth regime where scheduling matters.
    fn contended_random_trace(procs: u32, reads_per_proc: usize, seed: u64) -> TraceFile {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = TraceWriter::new("rand.dat").with_processes(procs);
        for _ in 0..reads_per_proc {
            for pid in 0..procs {
                let offset = rng.gen_range(0..(1u64 << 30));
                w.record(IoOp::Read, pid, 0, offset, 4096);
            }
        }
        w.finish().expect("valid trace")
    }

    fn sequential_trace(reads: usize, bytes: u64) -> TraceFile {
        let mut w = TraceWriter::new("seq.dat");
        w.op(IoOp::Open, 0, 0, 0);
        for i in 0..reads as u64 {
            w.op(IoOp::Read, 0, i * bytes, bytes);
        }
        w.op(IoOp::Close, 0, 0, 0);
        w.finish().expect("valid trace")
    }

    fn makespan(trace: &TraceFile, policy: Policy) -> f64 {
        scheduled_trace_sim(
            reopen(trace),
            &MachineConfig::uniprocessor(),
            &SchedReplayOptions { policy, ..Default::default() },
        )
        .unwrap()
        .makespan
    }

    #[test]
    fn sstf_and_scan_beat_fcfs_under_contention() {
        let trace = contended_random_trace(8, 24, 17);
        let fcfs = makespan(&trace, Policy::Fcfs);
        let sstf = makespan(&trace, Policy::Sstf);
        let scan = makespan(&trace, Policy::Scan);
        let clook = makespan(&trace, Policy::CLook);
        assert!(sstf < 0.8 * fcfs, "SSTF {sstf} must clearly beat FCFS {fcfs}");
        assert!(scan < 0.8 * fcfs, "SCAN {scan} must clearly beat FCFS {fcfs}");
        assert!(clook < fcfs, "C-LOOK {clook} must beat FCFS {fcfs}");
    }

    #[test]
    fn single_process_sequential_sees_no_policy_effect() {
        // No queue ever builds, so every policy serves in order.
        let trace = sequential_trace(32, 64 * 1024);
        let fcfs = makespan(&trace, Policy::Fcfs);
        for p in [Policy::Sstf, Policy::Scan, Policy::CLook] {
            let t = makespan(&trace, p);
            assert!(
                (t - fcfs).abs() < 1e-9,
                "{}: {t} differs from FCFS {fcfs} without contention",
                p.name()
            );
        }
    }

    #[test]
    fn every_process_finishes_and_bytes_balance() {
        let trace = contended_random_trace(4, 10, 3);
        let report = scheduled_trace_sim(
            reopen(&trace),
            &MachineConfig::with_disks(2),
            &SchedReplayOptions { policy: Policy::Sstf, ..Default::default() },
        )
        .unwrap();
        assert_eq!(report.pids.len(), 4);
        assert_eq!(report.process_finish.len(), 4);
        assert!(report.process_finish.iter().all(|&f| f > 0.0));
        assert_eq!(report.bytes_moved, 4 * 10 * 4096);
        assert!((0.0..=1.0).contains(&report.disk_utilization));
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = contended_random_trace(3, 12, 9);
        let opts = SchedReplayOptions { policy: Policy::Scan, ..Default::default() };
        let a = scheduled_trace_sim(reopen(&trace), &MachineConfig::uniprocessor(), &opts).unwrap();
        let b = scheduled_trace_sim(reopen(&trace), &MachineConfig::uniprocessor(), &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn striping_still_speeds_up_large_transfers() {
        let trace = sequential_trace(8, 8 * 1024 * 1024);
        let opts = SchedReplayOptions::default();
        let t1 = scheduled_trace_sim(reopen(&trace), &MachineConfig::with_disks(1), &opts)
            .unwrap()
            .makespan;
        let t8 = scheduled_trace_sim(reopen(&trace), &MachineConfig::with_disks(8), &opts)
            .unwrap()
            .makespan;
        assert!(t8 < t1 / 3.0, "striping speedup survives the scheduler: {t1} -> {t8}");
    }

    #[test]
    fn fcfs_matches_arrival_order_semantics() {
        // With FCFS and one process the scheduled replay equals the
        // plain replay's ordering (timings differ only through the
        // distance-dependent seek model).
        let trace = sequential_trace(16, 512 * 1024);
        let report = scheduled_trace_sim(
            reopen(&trace),
            &MachineConfig::uniprocessor(),
            &SchedReplayOptions::default(),
        )
        .unwrap();
        assert!(report.makespan > 0.0);
        assert_eq!(report.bytes_moved, 16 * 512 * 1024);
    }

    #[test]
    fn quiet_fault_plan_is_bit_identical_to_no_plan() {
        // A ×1.0 window over the whole run and a zeroed error schedule
        // must not perturb a single f64: the healthy path multiplies by
        // exactly 1.0 and never takes the error branch.
        let trace = contended_random_trace(4, 16, 11);
        let healthy = scheduled_trace_sim(
            reopen(&trace),
            &MachineConfig::uniprocessor(),
            &SchedReplayOptions::default(),
        )
        .unwrap();
        let quiet = scheduled_trace_sim(
            reopen(&trace),
            &MachineConfig::uniprocessor(),
            &SchedReplayOptions {
                faults: DiskFaultPlan {
                    slow_windows: vec![SlowWindow {
                        start_s: 0.0,
                        end_s: f64::INFINITY,
                        multiplier: 1.0,
                    }],
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(healthy, quiet);
        assert_eq!(healthy.retries, 0);
        assert_eq!(healthy.dropped_requests, 0);
    }

    #[test]
    fn slow_windows_stretch_the_makespan() {
        let trace = contended_random_trace(4, 16, 11);
        let machine = MachineConfig::uniprocessor();
        let healthy =
            scheduled_trace_sim(reopen(&trace), &machine, &SchedReplayOptions::default()).unwrap();
        let degraded = scheduled_trace_sim(
            reopen(&trace),
            &machine,
            &SchedReplayOptions {
                faults: DiskFaultPlan {
                    slow_windows: vec![SlowWindow {
                        start_s: 0.0,
                        end_s: f64::INFINITY,
                        multiplier: 4.0,
                    }],
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            degraded.makespan > 2.0 * healthy.makespan,
            "a 4× slow window must visibly stretch the run: {} -> {}",
            healthy.makespan,
            degraded.makespan
        );
        assert_eq!(degraded.bytes_moved, healthy.bytes_moved, "slowness loses no data");
    }

    #[test]
    fn transient_errors_are_retried_and_bounded() {
        let trace = contended_random_trace(4, 16, 11);
        let machine = MachineConfig::uniprocessor();
        let healthy =
            scheduled_trace_sim(reopen(&trace), &machine, &SchedReplayOptions::default()).unwrap();
        let flaky = scheduled_trace_sim(
            reopen(&trace),
            &machine,
            &SchedReplayOptions {
                faults: DiskFaultPlan { error_every: 5, ..Default::default() },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(flaky.retries > 0, "every 5th request fails once");
        assert_eq!(flaky.dropped_requests, 0, "the retry budget recovers them all");
        assert!(flaky.makespan > healthy.makespan, "retries cost simulated time");
        assert_eq!(flaky.bytes_moved, healthy.bytes_moved);
        assert!(flaky.process_finish.iter().all(|&f| f > 0.0), "every process finishes");
    }

    #[test]
    fn exhausted_retry_budget_drops_gracefully() {
        let trace = contended_random_trace(4, 16, 11);
        let report = scheduled_trace_sim(
            reopen(&trace),
            &MachineConfig::uniprocessor(),
            &SchedReplayOptions {
                faults: DiskFaultPlan { error_every: 5, max_retries: 0, ..Default::default() },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.dropped_requests > 0);
        assert_eq!(report.retries, 0);
        // Graceful degradation, not a hang: every process still runs
        // its stream to completion.
        assert!(report.process_finish.iter().all(|&f| f > 0.0));
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let trace = contended_random_trace(3, 12, 9);
        let opts = SchedReplayOptions {
            policy: Policy::Sstf,
            faults: DiskFaultPlan {
                slow_windows: vec![SlowWindow { start_s: 0.0, end_s: 0.5, multiplier: 3.0 }],
                error_every: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let a = scheduled_trace_sim(reopen(&trace), &MachineConfig::uniprocessor(), &opts).unwrap();
        let b = scheduled_trace_sim(reopen(&trace), &MachineConfig::uniprocessor(), &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_cylinders_and_invalid_machines_are_errors() {
        let trace = sequential_trace(1, 1024);
        let err = scheduled_trace_sim(
            reopen(&trace),
            &MachineConfig::uniprocessor(),
            &SchedReplayOptions { cylinders: 0, ..Default::default() },
        )
        .unwrap_err();
        assert_eq!(err, SimError::ZeroCylinders);
        assert!(err.to_string().contains("at least one cylinder"));
        let err = scheduled_trace_sim(
            reopen(&trace),
            &MachineConfig::with_disks(0),
            &SchedReplayOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidMachine(_)), "{err:?}");
    }

    #[test]
    fn a_fault_plan_that_breaks_the_clock_is_an_error_not_a_panic() {
        let trace = sequential_trace(4, 4096);
        let run = |faults: DiskFaultPlan| {
            scheduled_trace_sim(
                reopen(&trace),
                &MachineConfig::uniprocessor(),
                &SchedReplayOptions { faults, ..Default::default() },
            )
        };
        let window = |start_s, end_s, multiplier| DiskFaultPlan {
            slow_windows: vec![SlowWindow { start_s, end_s, multiplier }],
            ..Default::default()
        };
        for (what, plan) in [
            ("negative multiplier", window(0.0, 1.0, -2.0)),
            ("NaN multiplier", window(0.0, 1.0, f64::NAN)),
            ("infinite multiplier", window(0.0, 1.0, f64::INFINITY)),
            ("NaN window start", window(f64::NAN, 1.0, 2.0)),
            ("NaN window end", window(0.0, f64::NAN, 2.0)),
            ("NaN back-off", DiskFaultPlan { retry_backoff_s: f64::NAN, ..Default::default() }),
            (
                "infinite back-off",
                DiskFaultPlan { retry_backoff_s: f64::INFINITY, ..Default::default() },
            ),
        ] {
            assert!(plan.validate().is_err(), "{what}");
            let err = run(plan).expect_err(what);
            assert!(matches!(err, SimError::InvalidFaultPlan(_)), "{what}: {err:?}");
            assert!(err.to_string().starts_with("invalid disk fault plan: "), "{err}");
        }
        // What the model can run stays accepted: the quiet plan, a
        // speed-up, a zero multiplier, an open-ended window, a negative
        // back-off (clamped to none).
        for plan in [
            DiskFaultPlan::default(),
            window(0.0, 1.0, 0.5),
            window(0.0, f64::INFINITY, 0.0),
            DiskFaultPlan { error_every: 2, retry_backoff_s: -1.0, ..Default::default() },
        ] {
            assert_eq!(plan.validate(), Ok(()));
            let report = run(plan.clone()).unwrap_or_else(|e| panic!("{plan:?}: {e}"));
            assert!(report.makespan.is_finite() && report.makespan > 0.0, "{plan:?}");
        }
    }

    #[test]
    fn an_event_fits_beside_its_key_in_32_bytes() {
        // Time (8) + sequence number (8) + event: what a boxed closure
        // cost the heap entry, with no box behind it.
        assert!(std::mem::size_of::<Event<SchedEvent>>() <= 16);
    }

    #[test]
    fn more_disks_than_an_event_can_name_is_an_error() {
        let trace = sequential_trace(1, 1024);
        let err = scheduled_trace_sim(
            reopen(&trace),
            &MachineConfig::with_disks(usize::MAX),
            &SchedReplayOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(&err, SimError::InvalidMachine(m) if m.contains("too many disks")));
    }

    #[test]
    fn a_saturated_transfer_stripes_in_constant_time() {
        // `length × num_records` saturates at u64::MAX — 2^48 stripe
        // units. Dealing chunks one at a time never returns; the closed
        // form completes at once, through both arrays, and the byte
        // tally saturates instead of overflowing on the second record.
        let mut huge = TraceRecord::simple(IoOp::Read, 0, 0, u64::MAX);
        huge.num_records = 2;
        for (records, disks) in [(vec![huge], 1), (vec![huge], 3), (vec![huge, huge], 3)] {
            let trace = TraceFile::build("huge.dat", 1, records).expect("valid");
            let machine = MachineConfig::with_disks(disks);
            let plain = trace_sim(reopen(&trace), &machine, &Default::default()).unwrap();
            let sched = scheduled_trace_sim(reopen(&trace), &machine, &Default::default()).unwrap();
            for report in [plain, sched] {
                assert_eq!(report.bytes_moved, u64::MAX);
                assert!(report.makespan.is_finite() && report.makespan > 1e9, "{report:?}");
            }
        }
    }
}
