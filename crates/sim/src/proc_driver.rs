//! The streaming process driver both trace simulators run on.
//!
//! One cheap discovery pass over a re-openable record stream finds the
//! process roster (so every process starts at time zero in
//! first-appearance order), then the replay pass feeds each simulated
//! process from a [`PidSplitter`] with bounded per-pid buffering — no
//! `TraceFile` and no per-pid index are ever built. Each process issues
//! its records in order: opens, closes and seeks cost a fixed host
//! overhead, reads and writes are handed to a [`DiskArray`].
//!
//! The array is the only thing the two simulators differ in, and the
//! seam is two questions: "submit this transfer **now** and resume the
//! process when it is done", and "how busy were you over `[0, end]`".
//! Think time is the driver's business, never the array's: under
//! [`ThinkTime::FromTrace`] a process *sleeps* until its captured issue
//! instant and submits when it wakes, so an array never sees a request
//! dated in the future and a thinking process holds no disk.

use clio_trace::record::{IoOp, TraceRecord};
use clio_trace::source::{scan_pids, PidSplitter, TraceSource};

use crate::engine::Engine;
use crate::time::SimTime;
use crate::trace_driven::{ThinkTime, TraceSimReport};

/// Fixed host cost (seconds) of open/close/seek records — metadata
/// operations that never touch the array — and of zero-byte transfers.
const METADATA_COST: f64 = 20e-6;

/// The disks under a replay.
pub(crate) trait DiskArray: Sized {
    /// Submits `bytes` at logical `offset` for process `proc_idx` at
    /// `engine.now()`. The array calls [`resume_at`] for that process
    /// exactly once, at the instant the transfer completes.
    fn submit<'s>(
        engine: &mut Engine<World<'s, Self>>,
        world: &mut World<'s, Self>,
        proc_idx: usize,
        offset: u64,
        bytes: u64,
    );

    /// Mean per-disk utilisation over `[0, end]`.
    fn utilization(&self, end: SimTime) -> f64;
}

struct ProcState {
    /// The pid whose stream this process consumes.
    pid: u32,
    finish: SimTime,
    /// Captured wall clock of the previously issued record.
    prev_wall_us: Option<u64>,
}

/// Simulation state: the process table over one disk array.
pub(crate) struct World<'s, A> {
    pub(crate) array: A,
    procs: Vec<ProcState>,
    think: ThinkTime,
    bytes_moved: u64,
    /// Per-pid demultiplexer over this run's own stream.
    splitter: PidSplitter<Box<dyn TraceSource + 's>>,
}

/// Replays the stream `open` yields onto the array `build` makes for
/// the discovered number of processes; returns the report (fault
/// tallies zero) and the array as the run left it.
///
/// `open` is called twice and must yield the same stream both times
/// (the contract `clio_exp::Workload::open` documents).
pub(crate) fn run<'s, A: DiskArray>(
    open: impl Fn() -> Box<dyn TraceSource + 's>,
    think: ThinkTime,
    build: impl FnOnce(usize) -> A,
) -> (TraceSimReport, A) {
    // Discovery pass: pids in first-appearance order, plus the record
    // count for the report. O(#pids) memory.
    let (pids, records) = scan_pids(&mut *open());

    let mut world = World {
        array: build(pids.len()),
        procs: pids
            .iter()
            .map(|&pid| ProcState { pid, finish: SimTime::ZERO, prev_wall_us: None })
            .collect(),
        think,
        bytes_moved: 0,
        splitter: PidSplitter::new(open()),
    };

    let mut engine: Engine<World<'s, A>> = Engine::new();
    for p in 0..world.procs.len() {
        resume_at(&mut engine, SimTime::ZERO, p);
    }
    let end = engine.run(&mut world);

    let report = TraceSimReport {
        makespan: world.procs.iter().map(|p| p.finish.seconds()).fold(0.0, f64::max),
        process_finish: world.procs.iter().map(|p| p.finish.seconds()).collect(),
        pids,
        bytes_moved: world.bytes_moved,
        disk_utilization: world.array.utilization(end),
        events: engine.processed(),
        records,
        retries: 0,
        dropped_requests: 0,
    };
    (report, world.array)
}

/// Schedules process `proc_idx` to take its next record at `at`.
pub(crate) fn resume_at<'s, A: DiskArray>(
    engine: &mut Engine<World<'s, A>>,
    at: SimTime,
    proc_idx: usize,
) {
    engine.schedule_at(at, move |eng, w| step(eng, w, proc_idx));
}

fn step<'s, A: DiskArray>(
    engine: &mut Engine<World<'s, A>>,
    world: &mut World<'s, A>,
    proc_idx: usize,
) {
    let proc = &mut world.procs[proc_idx];
    let Some(r) = world.splitter.next_for(proc.pid) else {
        proc.finish = engine.now();
        return;
    };

    // Open-loop replay: sleep out the captured inter-record gap, then
    // issue. A closed-loop process issues at once, with no extra event.
    let gap_s = match (world.think, proc.prev_wall_us.replace(r.wall_clock_us)) {
        (ThinkTime::FromTrace, Some(prev)) => r.wall_clock_us.saturating_sub(prev) as f64 / 1e6,
        _ => 0.0,
    };
    if gap_s > 0.0 {
        engine.schedule_in(gap_s, move |eng, w| issue(eng, w, proc_idx, r));
    } else {
        issue(engine, world, proc_idx, r);
    }
}

fn issue<'s, A: DiskArray>(
    engine: &mut Engine<World<'s, A>>,
    world: &mut World<'s, A>,
    proc_idx: usize,
    r: TraceRecord,
) {
    let now = engine.now();
    let repeats = r.num_records.max(1) as u64;
    match r.op {
        IoOp::Open | IoOp::Close | IoOp::Seek => {
            resume_at(engine, now + METADATA_COST * repeats as f64, proc_idx);
        }
        IoOp::Read | IoOp::Write => {
            let bytes = r.length.saturating_mul(repeats);
            world.bytes_moved += bytes;
            if bytes == 0 {
                resume_at(engine, now + METADATA_COST, proc_idx);
            } else {
                A::submit(engine, world, proc_idx, r.offset, bytes);
            }
        }
    }
}
