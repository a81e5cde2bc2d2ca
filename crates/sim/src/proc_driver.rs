//! The streaming process driver both trace simulators run on.
//!
//! One cheap discovery pass over a re-openable record stream finds the
//! process roster (so every process starts at time zero in
//! first-appearance order), then the replay pass feeds each simulated
//! process from a [`PidSplitter`] — no `TraceFile` and no per-pid index
//! are ever built. The splitter parks what it reads past on behalf of
//! other processes, so its buffer is bounded by how far apart the
//! processes' cursors drift *as the replay consumes them*: O(#pids)
//! when they advance in step, but a closed-loop replay of processes
//! with unequal service times lets the fast one run ahead, and the
//! buffer then grows in proportion to the trace
//! ([`TraceSimReport::splitter_peak_buffered`] reports it). Each
//! process issues its records in order: opens, closes and seeks cost a
//! fixed host overhead, reads and writes are handed to a [`DiskArray`].
//!
//! **The event loop.** The run is one typed [`EventQueue`] drained by
//! `match` over the closed set [`Event`]: a process takes its next
//! record, a sleeper wakes and issues the record it parked, or the
//! array fires one of its own events. An event is a process or disk
//! index inside the heap entry — scheduling one allocates nothing, so
//! a replay makes O(log records) allocations in all (buffer doublings).
//!
//! The array is the only thing the two simulators differ in, and the
//! seam is three questions: "submit this transfer **now** and resume
//! the process when it is done", "one of your events fired", and "how
//! busy were you over `[0, end]`". Think time is the driver's business,
//! never the array's: under [`ThinkTime::FromTrace`] a process *sleeps*
//! until its captured issue instant and submits when it wakes, so an
//! array never sees a request dated in the future and a thinking
//! process holds no disk.

use clio_trace::record::{IoOp, TraceRecord};
use clio_trace::source::{scan_pids, PidSplitter, TraceSource};

use crate::engine::EventQueue;
use crate::time::SimTime;
use crate::trace_driven::{ThinkTime, TraceSimReport};

/// Fixed host cost (seconds) of open/close/seek records — metadata
/// operations that never touch the array — and of zero-byte transfers.
const METADATA_COST: f64 = 20e-6;

/// Everything that can happen in a replay; `X` is the array's own
/// event set. Indices are `u32` so a heap entry stays at 32 bytes: a
/// roster is at most the 2^32 distinct `u32` pids.
pub(crate) enum Event<X> {
    /// Process `.0` takes its next record.
    Step(u32),
    /// Process `.0` wakes from its think gap and issues the record it
    /// parked.
    Issue(u32),
    /// The disk array's own event.
    Array(X),
}

/// The event queue of a replay over array `A`.
pub(crate) type Queue<A> = EventQueue<Event<<A as DiskArray>::Event>>;

/// The disks under a replay.
pub(crate) trait DiskArray: Sized {
    /// What the array schedules for itself (chunk completions, retry
    /// timers); handed back through [`DiskArray::fire`].
    type Event;

    /// Submits `bytes` at logical `offset` for process `proc_idx` at
    /// `queue.now()`. The array calls [`resume_at`] for that process
    /// exactly once, at the instant the transfer completes.
    fn submit(&mut self, queue: &mut Queue<Self>, proc_idx: u32, offset: u64, bytes: u64);

    /// `event`, scheduled earlier by this array, is due now.
    fn fire(&mut self, queue: &mut Queue<Self>, event: Self::Event);

    /// Mean per-disk utilisation over `[0, end]`.
    fn utilization(&self, end: SimTime) -> f64;
}

struct ProcState {
    /// The pid whose stream this process consumes.
    pid: u32,
    finish: SimTime,
    /// Captured wall clock of the previously issued record.
    prev_wall_us: Option<u64>,
    /// The record a sleeping process issues when it wakes.
    parked: Option<TraceRecord>,
}

/// Simulation state: the process table over one disk array.
struct World<'s, A> {
    array: A,
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
            .map(|&pid| ProcState { pid, finish: SimTime::ZERO, prev_wall_us: None, parked: None })
            .collect(),
        think,
        bytes_moved: 0,
        splitter: PidSplitter::new(open()),
    };

    let mut queue: Queue<A> = EventQueue::new();
    for p in 0..world.procs.len() {
        resume_at(&mut queue, SimTime::ZERO, p as u32);
    }
    while let Some(event) = queue.pop() {
        match event {
            Event::Step(p) => step(&mut queue, &mut world, p),
            Event::Issue(p) => {
                if let Some(r) = world.procs[p as usize].parked.take() {
                    issue(&mut queue, &mut world, p, r);
                }
            }
            Event::Array(x) => world.array.fire(&mut queue, x),
        }
    }
    let end = queue.now();

    let report = TraceSimReport {
        makespan: world.procs.iter().map(|p| p.finish.seconds()).fold(0.0, f64::max),
        process_finish: world.procs.iter().map(|p| p.finish.seconds()).collect(),
        pids,
        bytes_moved: world.bytes_moved,
        disk_utilization: world.array.utilization(end),
        events: queue.processed(),
        records,
        retries: 0,
        dropped_requests: 0,
        splitter_peak_buffered: world.splitter.peak_buffered() as u64,
    };
    (report, world.array)
}

/// Schedules process `proc_idx` to take its next record at `at`.
pub(crate) fn resume_at<X>(queue: &mut EventQueue<Event<X>>, at: SimTime, proc_idx: u32) {
    queue.schedule_at(at, Event::Step(proc_idx));
}

fn step<A: DiskArray>(queue: &mut Queue<A>, world: &mut World<'_, A>, proc_idx: u32) {
    let proc = &mut world.procs[proc_idx as usize];
    let Some(r) = world.splitter.next_for(proc.pid) else {
        proc.finish = queue.now();
        return;
    };

    // Open-loop replay: sleep out the captured inter-record gap, then
    // issue. A closed-loop process issues at once, with no extra event.
    let gap_s = match (world.think, proc.prev_wall_us.replace(r.wall_clock_us)) {
        (ThinkTime::FromTrace, Some(prev)) => r.wall_clock_us.saturating_sub(prev) as f64 / 1e6,
        _ => 0.0,
    };
    if gap_s > 0.0 {
        proc.parked = Some(r);
        queue.schedule_in(gap_s, Event::Issue(proc_idx));
    } else {
        issue(queue, world, proc_idx, r);
    }
}

fn issue<A: DiskArray>(
    queue: &mut Queue<A>,
    world: &mut World<'_, A>,
    proc_idx: u32,
    r: TraceRecord,
) {
    let now = queue.now();
    let repeats = r.num_records.max(1) as u64;
    match r.op {
        IoOp::Open | IoOp::Close | IoOp::Seek => {
            resume_at(queue, now + METADATA_COST * repeats as f64, proc_idx);
        }
        IoOp::Read | IoOp::Write => {
            let bytes = r.length.saturating_mul(repeats);
            world.bytes_moved = world.bytes_moved.saturating_add(bytes);
            if bytes == 0 {
                resume_at(queue, now + METADATA_COST, proc_idx);
            } else {
                world.array.submit(queue, proc_idx, r.offset, bytes);
            }
        }
    }
}
