//! Trace-driven machine simulation.
//!
//! The paper's future work calls for "benchmarks for I/O-intensive
//! computing in a widely distributed environment". This module closes
//! the loop between the trace infrastructure and the machine simulator:
//! a captured [`TraceFile`] is replayed *onto the simulated machine*,
//! with each traced process driving its own request stream and all
//! streams contending for the shared disk array — so a single-node
//! trace can be evaluated on hypothetical machines (more disks, faster
//! spindles, wider stripes) or scaled out to many concurrent client
//! processes without re-running the original application.
//!
//! Timing semantics: each process issues its records in order;
//! reads/writes occupy the striped disk array for their modeled service
//! time, opens/closes/seeks cost a fixed host overhead. Inter-record
//! think time can be taken from the trace's captured clocks or ignored
//! (closed-loop replay).
//!
//! The simulator is **streaming**: [`trace_sim_source`] replays any
//! re-openable record stream through a
//! [`PidSplitter`] — one cheap discovery
//! pass for the process roster, one replay pass with bounded per-pid
//! buffering — so no materialized [`TraceFile`] or per-pid index is
//! ever built. [`trace_sim`] is the same engine over a borrowed trace.

use clio_trace::record::IoOp;
use clio_trace::source::{scan_pids, PidSplitter, SliceSource, TraceSource};
use clio_trace::TraceFile;

use crate::disk::{stripe_plan, striped_service};
use crate::engine::Engine;
use crate::machine::MachineConfig;
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
    /// rate-faithful replay).
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
}

/// Fixed host cost (seconds) of open/close/seek records in the
/// simulated machine — metadata operations that never touch the array.
/// Both trace simulators charge it.
pub(crate) const METADATA_COST: f64 = 20e-6;

struct ProcState {
    /// The pid whose stream this process consumes.
    pid: u32,
    stripe_rotation: usize,
    finish: SimTime,
    /// Wall clock of the previously issued record (for think time).
    prev_wall_us: Option<u64>,
}

struct World<'s> {
    cfg: MachineConfig,
    disks: Vec<FcfsServer>,
    procs: Vec<ProcState>,
    bytes_moved: u64,
    /// Per-pid demultiplexer over this run's own stream.
    splitter: PidSplitter<Box<dyn TraceSource + 's>>,
}

/// Simulates `trace` on `machine`.
///
/// # Panics
/// Panics if the machine configuration is invalid.
pub fn trace_sim(
    trace: &TraceFile,
    machine: &MachineConfig,
    options: &TraceSimOptions,
) -> TraceSimReport {
    trace_sim_source(
        || Box::new(SliceSource::new(trace)) as Box<dyn TraceSource + '_>,
        machine,
        options,
    )
}

/// Simulates a re-openable record stream on `machine` — fully
/// streaming: one cheap pass discovers the process roster (so every
/// process can start at time zero in first-appearance order, exactly
/// as the materialized path does), then the replay pass feeds each
/// simulated process from a [`PidSplitter`] with bounded per-pid
/// buffering. No `TraceFile` and no per-pid index are ever built.
///
/// `open` is called twice and must yield the same stream both times
/// (the contract `clio_exp::Workload::open` documents).
///
/// # Panics
/// Panics if the machine configuration is invalid.
pub fn trace_sim_source<'s, F>(
    open: F,
    machine: &MachineConfig,
    options: &TraceSimOptions,
) -> TraceSimReport
where
    F: Fn() -> Box<dyn TraceSource + 's>,
{
    machine.validate().expect("invalid machine configuration");

    // Discovery pass: pids in first-appearance order, plus the record
    // count for the report. O(#pids) memory.
    let (pids, records) = scan_pids(&mut *open());

    let mut world = World {
        disks: (0..machine.disks).map(|_| FcfsServer::new(1)).collect(),
        cfg: machine.clone(),
        procs: pids
            .iter()
            .map(|&pid| ProcState {
                pid,
                stripe_rotation: 0,
                finish: SimTime::ZERO,
                prev_wall_us: None,
            })
            .collect(),
        bytes_moved: 0,
        splitter: PidSplitter::new(open()),
    };

    let think = options.think_time;
    let mut engine: Engine<World<'s>> = Engine::new();
    for p in 0..world.procs.len() {
        engine.schedule_at(SimTime::ZERO, move |eng, w| step(eng, w, p, think));
    }
    let end = engine.run(&mut world);

    let disk_utilization = if world.disks.is_empty() {
        0.0
    } else {
        world.disks.iter().map(|d| d.utilization(end)).sum::<f64>() / world.disks.len() as f64
    };

    TraceSimReport {
        makespan: world.procs.iter().map(|p| p.finish.seconds()).fold(0.0, f64::max),
        process_finish: world.procs.iter().map(|p| p.finish.seconds()).collect(),
        pids,
        bytes_moved: world.bytes_moved,
        disk_utilization,
        events: engine.processed(),
        records,
        retries: 0,
        dropped_requests: 0,
    }
}

fn step<'s>(
    engine: &mut Engine<World<'s>>,
    world: &mut World<'s>,
    proc_idx: usize,
    think: ThinkTime,
) {
    let now = engine.now();
    let pid = world.procs[proc_idx].pid;
    let Some(r) = world.splitter.next_for(pid) else {
        world.procs[proc_idx].finish = now;
        return;
    };

    // Open-loop replay: delay issue by the captured inter-record gap.
    let mut issue_at = now;
    if think == ThinkTime::FromTrace {
        if let Some(prev) = world.procs[proc_idx].prev_wall_us {
            let gap_s = r.wall_clock_us.saturating_sub(prev) as f64 / 1e6;
            issue_at += gap_s;
        }
        world.procs[proc_idx].prev_wall_us = Some(r.wall_clock_us);
    }

    let repeats = r.num_records.max(1) as u64;
    let completion = match r.op {
        IoOp::Open | IoOp::Close | IoOp::Seek => issue_at + METADATA_COST * repeats as f64,
        IoOp::Read | IoOp::Write => {
            let bytes = r.length.saturating_mul(repeats);
            world.bytes_moved += bytes;
            issue_io(world, proc_idx, issue_at, bytes)
        }
    };

    engine.schedule_at(completion, move |eng, w| step(eng, w, proc_idx, think));
}

/// Issues a striped transfer; returns its completion time.
fn issue_io(world: &mut World<'_>, proc_idx: usize, at: SimTime, bytes: u64) -> SimTime {
    if bytes == 0 {
        return at + METADATA_COST;
    }
    let cfg = &world.cfg;
    let plan = stripe_plan(bytes, world.disks.len(), cfg.stripe_unit);
    let rotation = world.procs[proc_idx].stripe_rotation;
    let mut completion = at;
    for (i, &(chunks, tail)) in plan.iter().enumerate() {
        let service = striped_service(&cfg.disk_model, cfg.stripe_unit, chunks, tail);
        if service <= 0.0 {
            continue;
        }
        let disk = (rotation + i) % world.disks.len();
        let (_, end) = world.disks[disk].acquire(at, service);
        completion = completion.max(end);
    }
    world.procs[proc_idx].stripe_rotation = (rotation + 1) % world.disks.len();
    completion
}

/// One unit of work for [`trace_sim_pool`]: a trace replayed
/// on a machine.
#[derive(Debug, Clone)]
pub struct SimJob<'a> {
    /// The trace to replay.
    pub trace: &'a TraceFile,
    /// The machine to replay it on.
    pub machine: MachineConfig,
    /// Replay options.
    pub options: TraceSimOptions,
}

/// Runs a batch of independent trace simulations on a pool of worker
/// threads fed through crossbeam channels.
///
/// Each job is a complete, isolated [`trace_sim`] run (the
/// discrete-event engine itself stays single-threaded per job — its
/// event callbacks hold `Rc` handles), so this is the scale-out axis
/// for parameter sweeps: many machines, many policies, many traces at
/// once. Results come back in job order and are identical to running
/// the jobs serially, whatever the thread count — the determinism test
/// in `tests/suite_determinism.rs` pins that.
pub fn trace_sim_pool(jobs: &[SimJob<'_>], threads: usize) -> Vec<TraceSimReport> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, jobs.len());
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<usize>();
    for i in 0..jobs.len() {
        let _ = job_tx.send(i);
    }
    drop(job_tx); // workers drain the queue and exit on disconnect

    let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, TraceSimReport)>();
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            scope.spawn(move |_| {
                while let Ok(i) = job_rx.recv() {
                    let job = &jobs[i];
                    let report = trace_sim(job.trace, &job.machine, &job.options);
                    let _ = res_tx.send((i, report));
                }
            });
        }
    })
    .expect("simulation worker pool");
    drop(res_tx);

    let mut out: Vec<Option<TraceSimReport>> = (0..jobs.len()).map(|_| None).collect();
    while let Ok((i, report)) = res_rx.recv() {
        out[i] = Some(report);
    }
    out.into_iter().map(|r| r.expect("every job completes")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_trace::record::TraceRecord;
    use clio_trace::writer::TraceWriter;

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
        let report = trace_sim(&trace, &machine, &TraceSimOptions::default());
        // 40 MiB at 40 MiB/s plus positioning ≈ 1s.
        assert!(report.makespan > 0.9 && report.makespan < 1.3, "makespan {}", report.makespan);
        assert_eq!(report.bytes_moved, 40 * 1024 * 1024);
        assert_eq!(report.pids, vec![0]);
        assert_eq!(report.records, trace.len() as u64);
    }

    #[test]
    fn streamed_source_sim_is_identical_to_materialized_sim() {
        // trace_sim *is* trace_sim_source over a slice; pin that a
        // genuinely streaming re-openable source (fresh SliceSource per
        // open, as a stand-in for any iterator/synthesizer workload)
        // produces the identical report — multi-process, both
        // think-time modes.
        let trace = multi_process_trace(4, 12, 512 * 1024);
        for think in [ThinkTime::ClosedLoop, ThinkTime::FromTrace] {
            let options = TraceSimOptions { think_time: think };
            let machine = MachineConfig::with_disks(2);
            let materialized = trace_sim(&trace, &machine, &options);
            let streamed = trace_sim_source(
                || Box::new(SliceSource::new(&trace)) as Box<dyn TraceSource + '_>,
                &machine,
                &options,
            );
            assert_eq!(streamed, materialized, "{think:?}");
        }
    }

    #[test]
    fn more_disks_speed_up_the_replay() {
        let trace = single_process_trace(16, 8 * 1024 * 1024);
        let opts = TraceSimOptions::default();
        let t1 = trace_sim(&trace, &MachineConfig::with_disks(1), &opts).makespan;
        let t8 = trace_sim(&trace, &MachineConfig::with_disks(8), &opts).makespan;
        assert!(t8 < t1 / 4.0, "striping speedup: {t1} -> {t8}");
    }

    #[test]
    fn concurrent_processes_contend() {
        let one = multi_process_trace(1, 8, 4 * 1024 * 1024);
        let four = multi_process_trace(4, 8, 4 * 1024 * 1024);
        let opts = TraceSimOptions::default();
        let m = MachineConfig::uniprocessor();
        let t1 = trace_sim(&one, &m, &opts).makespan;
        let t4 = trace_sim(&four, &m, &opts).makespan;
        // 4x the work on one disk takes ~4x as long.
        assert!(t4 > 3.0 * t1, "contention: {t1} vs {t4}");
        assert_eq!(trace_sim(&four, &m, &opts).pids.len(), 4);
    }

    #[test]
    fn extra_disks_absorb_concurrent_processes() {
        let four = multi_process_trace(4, 8, 4 * 1024 * 1024);
        let opts = TraceSimOptions::default();
        let t1 = trace_sim(&four, &MachineConfig::with_disks(1), &opts).makespan;
        let t4 = trace_sim(&four, &MachineConfig::with_disks(4), &opts).makespan;
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
            &trace,
            &MachineConfig::uniprocessor(),
            &TraceSimOptions { think_time: ThinkTime::ClosedLoop },
        );
        let open = trace_sim(
            &trace,
            &MachineConfig::uniprocessor(),
            &TraceSimOptions { think_time: ThinkTime::FromTrace },
        );
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
    fn metadata_only_trace_is_fast() {
        let mut w = TraceWriter::new("meta.dat");
        w.op(IoOp::Open, 0, 0, 0);
        for i in 0..50 {
            w.op(IoOp::Seek, 0, i * 1000, 0);
        }
        w.op(IoOp::Close, 0, 0, 0);
        let trace = w.finish().expect("valid");
        let report = trace_sim(&trace, &MachineConfig::uniprocessor(), &TraceSimOptions::default());
        assert!(report.makespan < 0.01, "metadata ops are cheap: {}", report.makespan);
        assert_eq!(report.bytes_moved, 0);
    }

    #[test]
    fn repeat_counts_multiply_bytes() {
        let mut rec = TraceRecord::simple(IoOp::Read, 0, 0, 1000);
        rec.num_records = 5;
        let trace = TraceFile::build("r.dat", 1, vec![rec]).expect("valid");
        let report = trace_sim(&trace, &MachineConfig::uniprocessor(), &TraceSimOptions::default());
        assert_eq!(report.bytes_moved, 5000);
    }

    #[test]
    fn worker_pool_matches_serial_in_job_order() {
        let traces: Vec<TraceFile> =
            (1..=4).map(|p| multi_process_trace(p, 6, 2 * 1024 * 1024)).collect();
        let jobs: Vec<SimJob<'_>> = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| SimJob {
                trace,
                machine: MachineConfig::with_disks(1 + i % 3),
                options: TraceSimOptions::default(),
            })
            .collect();
        let serial: Vec<TraceSimReport> =
            jobs.iter().map(|j| trace_sim(j.trace, &j.machine, &j.options)).collect();
        for threads in [1usize, 2, 4, 9] {
            let pooled = trace_sim_pool(&jobs, threads);
            assert_eq!(pooled, serial, "{threads} threads");
        }
        assert!(trace_sim_pool(&[], 4).is_empty());
    }

    #[test]
    fn utilization_bounded_and_deterministic() {
        let trace = multi_process_trace(3, 10, 1024 * 1024);
        let m = MachineConfig::with_disks(2);
        let a = trace_sim(&trace, &m, &TraceSimOptions::default());
        let b = trace_sim(&trace, &m, &TraceSimOptions::default());
        assert_eq!(a, b, "deterministic");
        assert!((0.0..=1.0).contains(&a.disk_utilization));
        assert!(a.events > 0);
    }
}
