//! Seek-aware, scheduler-driven trace replay.
//!
//! [`trace_sim`](crate::trace_driven::trace_sim) charges every request
//! the disk model's flat positioning cost and serves arrivals FCFS —
//! sufficient for the paper's bandwidth questions, blind to request
//! *ordering*. [`scheduled_trace_sim`] runs the same streaming process
//! loop (discovery pass, then a
//! [`PidSplitter`](clio_trace::source::PidSplitter)-fed replay; fixed
//! host cost for opens, closes and seeks) over this module's disk
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

use crate::disk::stripe_plan;
use crate::engine::Engine;
use crate::machine::MachineConfig;
use crate::proc_driver::{self, resume_at, DiskArray};
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
}

struct Transfer {
    remaining: usize,
    proc_idx: usize,
}

struct DiskState {
    sched: Scheduler,
    busy: bool,
    busy_time: f64,
    /// Requests this disk has started serving (drives the
    /// `error_every` fault schedule).
    started: u64,
    /// A request whose first attempt failed, waiting out its back-off;
    /// served before anything queued.
    retry: Option<(DiskRequest, u32)>,
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
    free_transfers: Vec<usize>,
    faults: DiskFaultPlan,
    retries: u64,
    dropped: u64,
}

type World<'s> = proc_driver::World<'s, SchedArray>;

/// Replays the record stream `open` yields on `machine` with per-disk
/// request scheduling — the same streaming process loop as
/// [`trace_sim`](crate::trace_driven::trace_sim), closed-loop, over
/// seek-aware queued disks. `open` is called twice and must yield the
/// same stream both times.
///
/// # Errors
/// [`SimError::InvalidMachine`] if `machine` fails
/// [`MachineConfig::validate`], [`SimError::ZeroCylinders`] if
/// `options.cylinders` is 0; the stream is not opened.
pub fn scheduled_trace_sim<'s>(
    open: impl Fn() -> Box<dyn TraceSource + 's>,
    machine: &MachineConfig,
    options: &SchedReplayOptions,
) -> Result<TraceSimReport, SimError> {
    machine.validate().map_err(SimError::InvalidMachine)?;
    if options.cylinders == 0 {
        return Err(SimError::ZeroCylinders);
    }

    let (mut report, array) = proc_driver::run(open, ThinkTime::ClosedLoop, |_procs| SchedArray {
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
    });
    report.retries = array.retries;
    report.dropped_requests = array.dropped;
    Ok(report)
}

impl DiskArray for SchedArray {
    /// Splits the transfer across the stripe and enqueues one request
    /// per participating disk; the process resumes when the last chunk
    /// lands.
    fn submit<'s>(
        engine: &mut Engine<World<'s>>,
        world: &mut World<'s>,
        proc_idx: usize,
        offset: u64,
        bytes: u64,
    ) {
        let n_disks = world.array.disks.len();
        let plan = stripe_plan(bytes, n_disks, world.array.cfg.stripe_unit);
        let participating: Vec<(usize, u64)> = plan
            .iter()
            .enumerate()
            .filter_map(|(d, &(chunks, tail))| {
                let b = chunks * world.array.cfg.stripe_unit + tail;
                (b > 0).then_some((d, b))
            })
            .collect();
        // Reuse a completed slot when one exists: a completed transfer has
        // fired all of its chunk completions, so nothing references it.
        let transfer = Transfer { remaining: participating.len(), proc_idx };
        let tid = match world.array.free_transfers.pop() {
            Some(tid) => {
                world.array.transfers[tid] = transfer;
                tid as u64
            }
            None => {
                world.array.transfers.push(transfer);
                (world.array.transfers.len() - 1) as u64
            }
        };

        // Head position target: each disk stores its share of the logical
        // space, so the per-disk offset shrinks by the member count.
        let per_disk_offset = offset / n_disks.max(1) as u64;
        let cylinder =
            (per_disk_offset / world.array.bytes_per_cylinder) % world.array.curve.cylinders;

        for (d, b) in participating {
            world.array.disks[d].sched.push(DiskRequest { id: tid, cylinder, bytes: b });
            start_if_idle(engine, world, d);
        }
    }

    fn utilization(&self, end: SimTime) -> f64 {
        if end.seconds() <= 0.0 {
            return 0.0;
        }
        self.disks.iter().map(|d| d.busy_time).sum::<f64>()
            / (self.disks.len() as f64 * end.seconds())
    }
}

fn start_if_idle<'s>(engine: &mut Engine<World<'s>>, world: &mut World<'s>, disk_idx: usize) {
    if world.array.disks[disk_idx].busy {
        return;
    }
    let head_before = world.array.disks[disk_idx].sched.head();
    // A request waiting out its retry back-off goes first (its head
    // position is wherever the failed attempt left it); otherwise ask
    // the scheduler for the next queued request.
    let (req, attempt) = match world.array.disks[disk_idx].retry.take() {
        Some((req, attempt)) => (req, attempt),
        None => {
            let Some(req) = world.array.disks[disk_idx].sched.next() else {
                return;
            };
            world.array.disks[disk_idx].started += 1;
            (req, 0)
        }
    };
    let distance = req.cylinder.abs_diff(head_before);
    // Degraded latency: the fault plan's slow windows scale the whole
    // service time. The quiet plan multiplies by exactly 1.0, which is
    // bit-identical in IEEE arithmetic — no drift on healthy runs.
    let service = (world.array.curve.seek_time(distance)
        + world.array.cfg.disk_model.rotational
        + world.array.cfg.disk_model.transfer(req.bytes))
        * world.array.faults.multiplier_at(engine.now().seconds());
    world.array.disks[disk_idx].busy = true;
    world.array.disks[disk_idx].busy_time += service;

    // Transient error: every `error_every`-th request started on this
    // disk fails its first attempt after consuming its service time
    // (the firmware tried and gave up).
    let failed = attempt == 0
        && world.array.faults.error_every > 0
        && world.array.disks[disk_idx].started % world.array.faults.error_every == 0;
    let tid = req.id as usize;
    if failed {
        if world.array.faults.max_retries == 0 {
            // No retry budget: drop the request gracefully — count it
            // and let the transfer complete so the process resumes.
            world.array.dropped += 1;
            engine.schedule_in(service, move |eng, w| {
                w.array.disks[disk_idx].busy = false;
                complete_chunk(eng, w, tid);
                start_if_idle(eng, w, disk_idx);
            });
        } else {
            // Bounded retry: hold the disk busy through the back-off,
            // then re-serve the same request (attempt 1 succeeds —
            // the error is transient).
            world.array.retries += 1;
            let backoff = world.array.faults.retry_backoff_s.max(0.0);
            engine.schedule_in(service + backoff, move |eng, w| {
                w.array.disks[disk_idx].busy = false;
                w.array.disks[disk_idx].retry = Some((req, attempt + 1));
                start_if_idle(eng, w, disk_idx);
            });
        }
        return;
    }

    engine.schedule_in(service, move |eng, w| {
        w.array.disks[disk_idx].busy = false;
        complete_chunk(eng, w, tid);
        start_if_idle(eng, w, disk_idx);
    });
}

/// One striped chunk of transfer `tid` landed; when the last one does,
/// the owning process resumes and the slot is recycled.
fn complete_chunk<'s>(engine: &mut Engine<World<'s>>, world: &mut World<'s>, tid: usize) {
    world.array.transfers[tid].remaining -= 1;
    if world.array.transfers[tid].remaining == 0 {
        let proc_idx = world.array.transfers[tid].proc_idx;
        world.array.free_transfers.push(tid);
        resume_at(engine, engine.now(), proc_idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_trace::record::IoOp;
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
}
