//! Seek-aware, scheduler-driven trace replay.
//!
//! [`crate::trace_driven`] charges every request the disk model's flat
//! positioning cost and serves arrivals FCFS — sufficient for the
//! paper's bandwidth questions, blind to request *ordering*. This
//! module replays the same traces onto disks with an explicit head
//! position, a distance-dependent seek curve ([`SeekCurve`]) and a
//! pluggable request scheduler ([`Policy`]): requests that find the
//! disk busy queue up, and the scheduler picks which to serve next.
//! Under contention (many processes, one spindle) the classic result
//! emerges — SSTF/SCAN shorten the makespan of random-access workloads
//! over FCFS, and do nothing for sequential ones.

use clio_trace::record::IoOp;
use clio_trace::source::{scan_pids, PidSplitter, SliceSource, TraceSource};
use clio_trace::TraceFile;

use crate::disk::stripe_plan;
use crate::engine::Engine;
use crate::machine::MachineConfig;
use crate::sched::{DiskRequest, Policy, Scheduler, SeekCurve};
use crate::time::SimTime;
use crate::trace_driven::{TraceSimReport, METADATA_COST};

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
    /// A plan with a single degraded-latency window — requests served
    /// in `[start_s, end_s)` simulated seconds take `multiplier`× as
    /// long.
    pub fn slow_window(start_s: f64, end_s: f64, multiplier: f64) -> Self {
        Self::default().with_slow_window(start_s, end_s, multiplier)
    }

    /// A plan where every `error_every`-th request fails its first
    /// service attempt (retried under the default bounded backoff).
    pub fn flaky(error_every: u64) -> Self {
        Self::default().with_transient_errors(error_every)
    }

    /// Appends a degraded-latency window (overlapping windows
    /// multiply).
    pub fn with_slow_window(mut self, start_s: f64, end_s: f64, multiplier: f64) -> Self {
        self.slow_windows.push(SlowWindow { start_s, end_s, multiplier });
        self
    }

    /// Sets the transient-error period (`0` = never fail).
    pub fn with_transient_errors(mut self, error_every: u64) -> Self {
        self.error_every = error_every;
        self
    }

    /// The combined service-time multiplier at simulated time `t_s`
    /// (product over every containing window; `1.0` outside all).
    pub fn multiplier_at(&self, t_s: f64) -> f64 {
        self.slow_windows
            .iter()
            .filter(|w| w.start_s <= t_s && t_s < w.end_s)
            .fold(1.0, |m, w| m * w.multiplier)
    }
}

struct ProcState {
    /// The pid whose stream this process consumes.
    pid: u32,
    finish: SimTime,
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

struct World<'s> {
    cfg: MachineConfig,
    curve: SeekCurve,
    bytes_per_cylinder: u64,
    disks: Vec<DiskState>,
    procs: Vec<ProcState>,
    transfers: Vec<Transfer>,
    /// Completed transfer slots, reusable by the next `issue_io` — the
    /// transfer table stays O(max in-flight transfers), not
    /// O(#IO-records).
    free_transfers: Vec<usize>,
    bytes_moved: u64,
    faults: DiskFaultPlan,
    retries: u64,
    dropped: u64,
    /// Per-pid demultiplexer over this run's own stream.
    splitter: PidSplitter<Box<dyn TraceSource + 's>>,
}

/// Replays `trace` on `machine` with per-disk request scheduling.
///
/// # Panics
/// Panics if the machine configuration is invalid or `cylinders` is 0.
pub fn scheduled_trace_sim(
    trace: &TraceFile,
    machine: &MachineConfig,
    options: &SchedReplayOptions,
) -> TraceSimReport {
    scheduled_trace_sim_source(
        || Box::new(SliceSource::new(trace)) as Box<dyn TraceSource + '_>,
        machine,
        options,
    )
}

/// Replays a re-openable record stream on `machine` with per-disk
/// request scheduling — fully streaming, exactly like
/// [`crate::trace_driven::trace_sim_source`]: a discovery pass for the
/// process roster, then a replay pass fed through a
/// [`PidSplitter`] with bounded per-pid
/// buffering. `open` is called twice and must yield the same stream
/// both times.
///
/// # Panics
/// Panics if the machine configuration is invalid or `cylinders` is 0.
pub fn scheduled_trace_sim_source<'s, F>(
    open: F,
    machine: &MachineConfig,
    options: &SchedReplayOptions,
) -> TraceSimReport
where
    F: Fn() -> Box<dyn TraceSource + 's>,
{
    machine.validate().expect("invalid machine configuration");
    assert!(options.cylinders > 0, "disk needs at least one cylinder");

    let (pids, records) = scan_pids(&mut *open());

    let curve = SeekCurve::from_model(&machine.disk_model, options.cylinders);
    let mut world = World {
        curve,
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
        procs: pids.iter().map(|&pid| ProcState { pid, finish: SimTime::ZERO }).collect(),
        transfers: Vec::new(),
        free_transfers: Vec::new(),
        bytes_moved: 0,
        faults: options.faults.clone(),
        retries: 0,
        dropped: 0,
        cfg: machine.clone(),
        splitter: PidSplitter::new(open()),
    };

    let mut engine: Engine<World<'s>> = Engine::new();
    for p in 0..world.procs.len() {
        engine.schedule_at(SimTime::ZERO, move |eng, w| step(eng, w, p));
    }
    let end = engine.run(&mut world);

    let disk_utilization = if world.disks.is_empty() || end.seconds() <= 0.0 {
        0.0
    } else {
        world.disks.iter().map(|d| d.busy_time).sum::<f64>()
            / (world.disks.len() as f64 * end.seconds())
    };

    TraceSimReport {
        makespan: world.procs.iter().map(|p| p.finish.seconds()).fold(0.0, f64::max),
        process_finish: world.procs.iter().map(|p| p.finish.seconds()).collect(),
        pids,
        bytes_moved: world.bytes_moved,
        disk_utilization,
        events: engine.processed(),
        records,
        retries: world.retries,
        dropped_requests: world.dropped,
    }
}

fn step<'s>(engine: &mut Engine<World<'s>>, world: &mut World<'s>, proc_idx: usize) {
    let now = engine.now();
    let pid = world.procs[proc_idx].pid;
    let Some(r) = world.splitter.next_for(pid) else {
        world.procs[proc_idx].finish = now;
        return;
    };

    let repeats = r.num_records.max(1) as u64;
    match r.op {
        IoOp::Open | IoOp::Close | IoOp::Seek => {
            engine.schedule_at(now + METADATA_COST * repeats as f64, move |eng, w| {
                step(eng, w, proc_idx)
            });
        }
        IoOp::Read | IoOp::Write => {
            let bytes = r.length.saturating_mul(repeats);
            world.bytes_moved += bytes;
            if bytes == 0 {
                engine.schedule_at(now + METADATA_COST, move |eng, w| step(eng, w, proc_idx));
                return;
            }
            issue_io(engine, world, proc_idx, r.offset, bytes);
        }
    }
}

/// Splits the transfer across the stripe and enqueues one request per
/// participating disk; the process resumes when the last chunk lands.
fn issue_io<'s>(
    engine: &mut Engine<World<'s>>,
    world: &mut World<'s>,
    proc_idx: usize,
    offset: u64,
    bytes: u64,
) {
    let n_disks = world.disks.len();
    let plan = stripe_plan(bytes, n_disks, world.cfg.stripe_unit);
    let participating: Vec<(usize, u64)> = plan
        .iter()
        .enumerate()
        .filter_map(|(d, &(chunks, tail))| {
            let b = chunks * world.cfg.stripe_unit + tail;
            (b > 0).then_some((d, b))
        })
        .collect();
    // Reuse a completed slot when one exists: a completed transfer has
    // fired all of its chunk completions, so nothing references it.
    let transfer = Transfer { remaining: participating.len(), proc_idx };
    let tid = match world.free_transfers.pop() {
        Some(tid) => {
            world.transfers[tid] = transfer;
            tid as u64
        }
        None => {
            world.transfers.push(transfer);
            (world.transfers.len() - 1) as u64
        }
    };

    // Head position target: each disk stores its share of the logical
    // space, so the per-disk offset shrinks by the member count.
    let per_disk_offset = offset / n_disks.max(1) as u64;
    let cylinder = (per_disk_offset / world.bytes_per_cylinder) % world.curve.cylinders;

    for (d, b) in participating {
        world.disks[d].sched.push(DiskRequest { id: tid, cylinder, bytes: b });
        start_if_idle(engine, world, d);
    }
}

fn start_if_idle<'s>(engine: &mut Engine<World<'s>>, world: &mut World<'s>, disk_idx: usize) {
    if world.disks[disk_idx].busy {
        return;
    }
    let head_before = world.disks[disk_idx].sched.head();
    // A request waiting out its retry back-off goes first (its head
    // position is wherever the failed attempt left it); otherwise ask
    // the scheduler for the next queued request.
    let (req, attempt) = match world.disks[disk_idx].retry.take() {
        Some((req, attempt)) => (req, attempt),
        None => {
            let Some(req) = world.disks[disk_idx].sched.next() else {
                return;
            };
            world.disks[disk_idx].started += 1;
            (req, 0)
        }
    };
    let distance = req.cylinder.abs_diff(head_before);
    // Degraded latency: the fault plan's slow windows scale the whole
    // service time. The quiet plan multiplies by exactly 1.0, which is
    // bit-identical in IEEE arithmetic — no drift on healthy runs.
    let service = (world.curve.seek_time(distance)
        + world.cfg.disk_model.rotational
        + world.cfg.disk_model.transfer(req.bytes))
        * world.faults.multiplier_at(engine.now().seconds());
    world.disks[disk_idx].busy = true;
    world.disks[disk_idx].busy_time += service;

    // Transient error: every `error_every`-th request started on this
    // disk fails its first attempt after consuming its service time
    // (the firmware tried and gave up).
    let failed = attempt == 0
        && world.faults.error_every > 0
        && world.disks[disk_idx].started % world.faults.error_every == 0;
    let tid = req.id as usize;
    if failed {
        if world.faults.max_retries == 0 {
            // No retry budget: drop the request gracefully — count it
            // and let the transfer complete so the process resumes.
            world.dropped += 1;
            engine.schedule_in(service, move |eng, w| {
                w.disks[disk_idx].busy = false;
                complete_chunk(eng, w, tid);
                start_if_idle(eng, w, disk_idx);
            });
        } else {
            // Bounded retry: hold the disk busy through the back-off,
            // then re-serve the same request (attempt 1 succeeds —
            // the error is transient).
            world.retries += 1;
            let backoff = world.faults.retry_backoff_s.max(0.0);
            engine.schedule_in(service + backoff, move |eng, w| {
                w.disks[disk_idx].busy = false;
                w.disks[disk_idx].retry = Some((req, attempt + 1));
                start_if_idle(eng, w, disk_idx);
            });
        }
        return;
    }

    engine.schedule_in(service, move |eng, w| {
        w.disks[disk_idx].busy = false;
        complete_chunk(eng, w, tid);
        start_if_idle(eng, w, disk_idx);
    });
}

/// One striped chunk of transfer `tid` landed; when the last one does,
/// the owning process resumes and the slot is recycled.
fn complete_chunk<'s>(engine: &mut Engine<World<'s>>, world: &mut World<'s>, tid: usize) {
    world.transfers[tid].remaining -= 1;
    if world.transfers[tid].remaining == 0 {
        let proc_idx = world.transfers[tid].proc_idx;
        world.free_transfers.push(tid);
        let now = engine.now();
        engine.schedule_at(now, move |eng, w| step(eng, w, proc_idx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_trace::writer::TraceWriter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            trace,
            &MachineConfig::uniprocessor(),
            &SchedReplayOptions { policy, ..Default::default() },
        )
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
            &trace,
            &MachineConfig::with_disks(2),
            &SchedReplayOptions { policy: Policy::Sstf, ..Default::default() },
        );
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
        let a = scheduled_trace_sim(&trace, &MachineConfig::uniprocessor(), &opts);
        let b = scheduled_trace_sim(&trace, &MachineConfig::uniprocessor(), &opts);
        assert_eq!(a, b);
    }

    #[test]
    fn striping_still_speeds_up_large_transfers() {
        let trace = sequential_trace(8, 8 * 1024 * 1024);
        let opts = SchedReplayOptions::default();
        let t1 = scheduled_trace_sim(&trace, &MachineConfig::with_disks(1), &opts).makespan;
        let t8 = scheduled_trace_sim(&trace, &MachineConfig::with_disks(8), &opts).makespan;
        assert!(t8 < t1 / 3.0, "striping speedup survives the scheduler: {t1} -> {t8}");
    }

    #[test]
    fn fcfs_matches_arrival_order_semantics() {
        // With FCFS and one process the scheduled replay equals the
        // plain replay's ordering (timings differ only through the
        // distance-dependent seek model).
        let trace = sequential_trace(16, 512 * 1024);
        let report = scheduled_trace_sim(
            &trace,
            &MachineConfig::uniprocessor(),
            &SchedReplayOptions::default(),
        );
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
            &trace,
            &MachineConfig::uniprocessor(),
            &SchedReplayOptions::default(),
        );
        let quiet = scheduled_trace_sim(
            &trace,
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
        );
        assert_eq!(healthy, quiet);
        assert_eq!(healthy.retries, 0);
        assert_eq!(healthy.dropped_requests, 0);
    }

    #[test]
    fn slow_windows_stretch_the_makespan() {
        let trace = contended_random_trace(4, 16, 11);
        let machine = MachineConfig::uniprocessor();
        let healthy = scheduled_trace_sim(&trace, &machine, &SchedReplayOptions::default());
        let degraded = scheduled_trace_sim(
            &trace,
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
        );
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
        let healthy = scheduled_trace_sim(&trace, &machine, &SchedReplayOptions::default());
        let flaky = scheduled_trace_sim(
            &trace,
            &machine,
            &SchedReplayOptions {
                faults: DiskFaultPlan { error_every: 5, ..Default::default() },
                ..Default::default()
            },
        );
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
            &trace,
            &MachineConfig::uniprocessor(),
            &SchedReplayOptions {
                faults: DiskFaultPlan { error_every: 5, max_retries: 0, ..Default::default() },
                ..Default::default()
            },
        );
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
        let a = scheduled_trace_sim(&trace, &MachineConfig::uniprocessor(), &opts);
        let b = scheduled_trace_sim(&trace, &MachineConfig::uniprocessor(), &opts);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one cylinder")]
    fn zero_cylinders_panics() {
        let trace = sequential_trace(1, 1024);
        let _ = scheduled_trace_sim(
            &trace,
            &MachineConfig::uniprocessor(),
            &SchedReplayOptions { cylinders: 0, ..Default::default() },
        );
    }
}
