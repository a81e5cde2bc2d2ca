//! The streaming process driver both trace simulators run on.
//!
//! The record stream is opened once and read once, through a
//! [`PidSplitter`] that feeds each simulated process its own records —
//! no `TraceFile` and no per-pid index are ever built.
//!
//! **The roster comes from the stream's prefix.** Before time zero the
//! splitter reads ahead — parking what it reads — until it has seen as
//! many distinct pids as the stream declares
//! ([`SourceMeta::num_processes`](clio_trace::source::SourceMeta), at
//! least one; the whole stream if it carries fewer). Those pids, in
//! first-appearance order, are the processes that take their first
//! step at time zero, in that order. On a stream that keeps its
//! declaration (verifier rule `V01`: every pid is below
//! `num_processes`, so there are at most that many) this is every
//! process of the trace. A pid that first shows up *later* can only
//! come from a stream that breaks the declaration — unverified or
//! hand-built input. It is not dropped and nothing panics: it joins
//! the roster when its first record is read and takes its first step
//! at that instant of simulated time.
//!
//! **After that each process pulls from its own part.** A stream whose
//! parts vouch for their pids
//! ([`TraceSource::pid_parts`]: a synthetic stream, any mix of them)
//! feeds each process from its part alone, so the splitter parks
//! nothing past the roster prefix — at most one record per part. Any
//! other stream is one part, and the splitter parks what a process
//! reads past on behalf of the others. The larger term is not a fast
//! process running ahead but a process *finishing*: learning that its
//! pid is done takes reading the stream to its end, which parks every
//! record the other processes have left — the longer process's whole
//! tail on a two-process stream of unequal length
//! ([`TraceSimReport::splitter_peak_buffered`] reports it). The
//! admission wrappers (strict and lenient) pass a stream's parts
//! through. What still parks: `chain:` phases (their pid space is
//! shared), mixes with an in-memory, application, file or custom atom,
//! a stream behind fault injection, and a stream that declares more
//! processes than it carries (the roster read parks all of it). Each
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
use clio_trace::source::{PidSplitter, TraceSource};

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
    /// exactly once, at the instant the transfer completes. Process
    /// indices are dense but not announced: one above every index seen
    /// so far is a process that has just joined.
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
struct World<A, S> {
    array: A,
    procs: Vec<ProcState>,
    think: ThinkTime,
    bytes_moved: u64,
    /// Per-pid demultiplexer over this run's own stream.
    splitter: PidSplitter<S>,
}

/// Replays the stream `open` yields onto `array`; returns the report
/// (fault tallies zero) and the array as the run left it. `open` is
/// called exactly once.
pub(crate) fn run<A: DiskArray, S: TraceSource>(
    open: impl FnOnce() -> S,
    think: ThinkTime,
    array: A,
) -> (TraceSimReport, A) {
    let source = open();
    let declared = source.meta().num_processes.max(1) as usize;
    let mut world = World {
        array,
        procs: Vec::new(),
        think,
        bytes_moved: 0,
        splitter: PidSplitter::new(source),
    };
    world.splitter.read_roster(declared);

    let mut queue: Queue<A> = EventQueue::new();
    admit_new_pids(&mut queue, &mut world);
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
        pids: world.procs.iter().map(|p| p.pid).collect(),
        bytes_moved: world.bytes_moved,
        disk_utilization: world.array.utilization(end),
        events: queue.processed(),
        // Every process ran until the splitter had nothing left for
        // it, and every part that carries records carries a roster
        // pid (parts lie below the declared count, so the roster read
        // either saw every pid they can carry or ran to the end of the
        // stream): the stream was read to its end.
        records: world.splitter.records_read(),
        retries: 0,
        dropped_requests: 0,
        splitter_peak_buffered: world.splitter.peak_buffered() as u64,
    };
    (report, world.array)
}

/// Gives every pid the splitter has seen and the process table has not
/// a process, in first-appearance order, taking its first step now:
/// the whole roster before time zero, a late pid when it is first read.
fn admit_new_pids<A: DiskArray>(queue: &mut Queue<A>, world: &mut World<A, impl TraceSource>) {
    for &pid in &world.splitter.pids_seen()[world.procs.len()..] {
        let proc_idx = world.procs.len() as u32;
        world.procs.push(ProcState {
            pid,
            finish: SimTime::ZERO,
            prev_wall_us: None,
            parked: None,
        });
        resume_at(queue, queue.now(), proc_idx);
    }
}

/// Schedules process `proc_idx` to take its next record at `at`.
pub(crate) fn resume_at<X>(queue: &mut EventQueue<Event<X>>, at: SimTime, proc_idx: u32) {
    queue.schedule_at(at, Event::Step(proc_idx));
}

fn step<A: DiskArray>(queue: &mut Queue<A>, world: &mut World<A, impl TraceSource>, proc_idx: u32) {
    let next = world.splitter.next_for(world.procs[proc_idx as usize].pid);
    admit_new_pids(queue, world);
    let proc = &mut world.procs[proc_idx as usize];
    let Some(r) = next else {
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

fn issue<A: DiskArray, S>(
    queue: &mut Queue<A>,
    world: &mut World<A, S>,
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

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use clio_trace::fault::{FaultKind, FaultPlan, FaultSource};
    use clio_trace::source::{materialize, FileNamespace, SliceSource, SourceMeta, WeightedSource};
    use clio_trace::synth::{Popularity, SynthSource, TraceProfile};
    use clio_trace::TraceFile;

    use super::*;
    use crate::machine::MachineConfig;
    use crate::sched_replay::{scheduled_trace_sim, DiskFaultPlan, SchedReplayOptions};
    use crate::trace_driven::{trace_sim, TraceSimOptions};

    /// A read of `length` bytes by `pid`, stamped `index` ms.
    fn read(pid: u32, index: u64, length: u64) -> TraceRecord {
        let mut r = TraceRecord::simple(IoOp::Read, 0, index * 8192, length);
        r.pid = pid;
        r.wall_clock_us = index * 1000;
        r.proc_clock_us = index * 1000;
        r
    }

    fn meta(num_processes: u32) -> SourceMeta {
        SourceMeta { sample_file: "driver.dat".into(), num_processes, num_files: 1 }
    }

    /// A scheduled replay whose every third request fails once and is
    /// retried.
    fn retrying() -> SchedReplayOptions {
        SchedReplayOptions {
            faults: DiskFaultPlan { error_every: 3, ..Default::default() },
            ..Default::default()
        }
    }

    /// The three runs every input below goes through: `trace_sim`
    /// closed loop and open loop, `scheduled_trace_sim` under retries.
    fn all_three<'s>(
        open: impl Fn() -> Box<dyn TraceSource + 's>,
        machine: &MachineConfig,
    ) -> [TraceSimReport; 3] {
        let from_trace = TraceSimOptions { think_time: ThinkTime::FromTrace };
        [
            trace_sim(&open, machine, &TraceSimOptions::default()).unwrap(),
            trace_sim(&open, machine, &from_trace).unwrap(),
            scheduled_trace_sim(&open, machine, &retrying()).unwrap(),
        ]
    }

    /// Counts every `next_record` call, the terminating `None`
    /// included, in its own slot of a per-open tally.
    struct CountedPulls<'c, S> {
        inner: S,
        pulls: &'c RefCell<Vec<u64>>,
        slot: usize,
    }

    impl<S: TraceSource> TraceSource for CountedPulls<'_, S> {
        fn meta(&self) -> SourceMeta {
            self.inner.meta()
        }

        fn next_record(&mut self) -> Option<TraceRecord> {
            self.pulls.borrow_mut()[self.slot] += 1;
            self.inner.next_record()
        }
    }

    #[test]
    fn the_input_is_opened_once_and_every_record_pulled_once() {
        let one_pid: Vec<TraceRecord> = (0..40).map(|i| read(0, i, 4096)).collect();
        let round_robin: Vec<TraceRecord> =
            (0..60).map(|i| read(i as u32 % 2, i, 4096 << (i % 2))).collect();
        // Chain-shaped: the second pid appears only after the first ends.
        let chained: Vec<TraceRecord> = (0..50).map(|i| read((i >= 30) as u32, i, 8192)).collect();

        for (name, records, processes) in
            [("one pid", &one_pid, 1), ("round robin", &round_robin, 2), ("chain", &chained, 2)]
        {
            // One entry per open: the pulls made on that stream.
            let pulls = RefCell::new(Vec::new());
            let open = || -> Box<dyn TraceSource + '_> {
                let slot = pulls.borrow().len();
                pulls.borrow_mut().push(0);
                let inner = SliceSource::from_parts(records, meta(processes));
                Box::new(CountedPulls { inner, pulls: &pulls, slot })
            };
            let reports = all_three(open, &MachineConfig::with_disks(2));
            assert_eq!(pulls.borrow().len(), reports.len(), "{name}: one open per run");
            assert!(reports[2].retries > 0, "{name}: the scheduled run retried");
            for (run, report) in reports.iter().enumerate() {
                assert_eq!(report.records, records.len() as u64, "{name}, run {run}: records");
                // Every record once, then the one `None` that ends the
                // stream; a finished source is not asked again.
                assert_eq!(pulls.borrow()[run], report.records + 1, "{name}, run {run}: pulls");
                assert_eq!(report.pids.len(), processes as usize, "{name}, run {run}: roster");
            }
        }
    }

    /// The instant a late pid joins is the instant the process that
    /// reads past its first record takes that step; with one process on
    /// the roster that is when it has finished everything before it —
    /// the makespan of replaying just that prefix.
    fn join_instants(prefix: &[TraceRecord], machine: &MachineConfig) -> [f64; 3] {
        all_three(|| Box::new(SliceSource::from_parts(prefix, meta(1))), machine)
            .map(|r| r.makespan)
    }

    #[test]
    fn a_pid_outside_the_declared_roster_joins_when_it_is_first_read() {
        let machine = MachineConfig::with_disks(2);
        // Declares one process, carries two: pid 1 first shows at
        // record 3, after pid 0's first three.
        let pids = [0u32, 0, 0, 1, 0, 1, 1, 0, 1];
        let under_declared: Vec<TraceRecord> =
            pids.iter().enumerate().map(|(i, &pid)| read(pid, i as u64, 16384)).collect();
        // One flipped pid bit in a one-process stream.
        let mut flipped: Vec<TraceRecord> = (0..10).map(|i| read(0, i, 4096)).collect();
        flipped[4].pid ^= 1 << 24;

        for (name, records, late_at) in [("two pids", &under_declared, 3), ("flip", &flipped, 4)] {
            let late_pid = records[late_at].pid;
            let bytes: u64 = records.iter().map(TraceRecord::bytes_moved).sum();
            let joined = join_instants(&records[..late_at], &machine);
            let reports =
                all_three(|| Box::new(SliceSource::from_parts(records, meta(1))), &machine);
            for (run, (report, joined)) in reports.iter().zip(joined).enumerate() {
                let what = format!("{name}, run {run}");
                assert_eq!(report.records, records.len() as u64, "{what}: a record was dropped");
                assert_eq!(report.bytes_moved, bytes, "{what}: bytes");
                assert_eq!(report.pids, vec![0, late_pid], "{what}: roster");
                assert!(joined > 0.0, "{what}: the late pid does not start at time zero");
                assert!(
                    report.process_finish[1] > joined,
                    "{what}: late pid finished at {} but joined at {joined}",
                    report.process_finish[1]
                );
                assert!(report.makespan >= report.process_finish[1], "{what}: makespan");
            }
        }
    }

    #[test]
    fn a_flipped_file_id_is_not_the_simulators_business() {
        // `FaultKind::BitFlip` corrupts the file id, which no simulator
        // reads: the run equals the clean one.
        let records: Vec<TraceRecord> = (0..10).map(|i| read(0, i, 4096)).collect();
        let plan = FaultPlan::single(3, 4, FaultKind::BitFlip);
        let machine = MachineConfig::uniprocessor();
        let clean = all_three(|| Box::new(SliceSource::from_parts(&records, meta(1))), &machine);
        let faulted = all_three(
            || Box::new(FaultSource::new(SliceSource::from_parts(&records, meta(1)), &plan)),
            &machine,
        );
        assert_eq!(clean, faulted);
        assert_eq!(clean[0].records, 10);
    }

    /// `[makespan bits, utilisation bits, events, records, bytes,
    /// retries, drops, finish bits…]`, the row shape of
    /// `tests/sim_golden.rs`.
    fn row(report: &TraceSimReport) -> Vec<u64> {
        let mut row = vec![
            report.makespan.to_bits(),
            report.disk_utilization.to_bits(),
            report.events,
            report.records,
            report.bytes_moved,
            report.retries,
            report.dropped_requests,
        ];
        row.extend(report.process_finish.iter().map(|f| f.to_bits()));
        row
    }

    #[test]
    fn an_over_declared_roster_changes_nothing_but_the_parked_prefix() {
        // Four processes declared, two active, unequal request sizes.
        let records: Vec<TraceRecord> =
            (0..80).map(|i| read(i as u32 % 2, i, 4096 + 20480 * (i % 2))).collect();
        let trace = TraceFile::build("over.dat", 4, records).expect("valid trace");
        let reports =
            all_three(|| Box::new(SliceSource::new(&trace)), &MachineConfig::with_disks(2));
        let got: Vec<Vec<u64>> = reports.iter().map(row).collect();
        // Recorded at the parent commit (9ea70a3), where a discovery
        // pass found the roster.
        let recorded: [[u64; 9]; 3] = [
            [
                4603066175183971929,
                4606808643796694188,
                82,
                80,
                1146880,
                0,
                0,
                4602942378267089932,
                4603066175183971929,
            ],
            [
                4603768736725841726,
                4605724261348604674,
                160,
                80,
                1146880,
                0,
                0,
                4603608911011940765,
                4603768736725841726,
            ],
            [
                4603225961600340117,
                4602261183392442098,
                188,
                80,
                1146880,
                26,
                0,
                4603159776606960417,
                4603225961600340117,
            ],
        ];
        assert_eq!(got, recorded, "measured rows:\n{got:#?}");
        for report in &reports {
            assert_eq!(report.pids, vec![0, 1]);
            // Fewer pids than declared: the roster read-ahead runs to
            // the end of the stream and parks all of it.
            assert_eq!(report.splitter_peak_buffered, 80);
        }
    }

    /// The mixes of `tests/sim_golden.rs`, 600 data ops a side:
    /// `mix:zipf:0.9,rand` (2 atoms), and that mixed with
    /// `mix:seq,hot:0.1x0.9` (4 atoms).
    fn golden_mix(atoms: usize) -> Box<dyn TraceSource> {
        let side = |profile: TraceProfile| {
            SynthSource::new(TraceProfile { data_ops: 600, ..profile }).expect("valid profile")
        };
        let pair = |a, b| WeightedSource::new(side(a), side(b), 1, 1, FileNamespace::Disjoint);
        let synth = TraceProfile { write_fraction: 0.2, sequentiality: 0.8, ..Default::default() };
        let zipf = TraceProfile { popularity: Popularity::Zipfian { theta: 0.9 }, ..synth.clone() };
        let zipf_rand = pair(zipf, TraceProfile::cholesky_like());
        if atoms == 2 {
            return Box::new(zipf_rand);
        }
        let hot = Popularity::Hotspot { hot_fraction: 0.1, hot_rate: 0.9 };
        let seq_hot = pair(TraceProfile::dmine_like(), TraceProfile { popularity: hot, ..synth });
        Box::new(WeightedSource::new(zipf_rand, seq_hot, 1, 1, FileNamespace::Disjoint))
    }

    #[test]
    fn a_mix_of_synthetic_sides_parks_nothing_and_equals_its_materialized_trace() {
        let machine = MachineConfig::with_disks(2);
        for atoms in [2, 4] {
            let parts = golden_mix(atoms).pid_parts().expect("synthetic sides vouch");
            assert_eq!(parts.len(), atoms);
            let trace = materialize(&mut golden_mix(atoms)).expect("materializes");
            let streamed = all_three(|| golden_mix(atoms), &machine);
            let reference = all_three(|| Box::new(SliceSource::new(&trace)), &machine);
            for (run, (mut got, want)) in streamed.into_iter().zip(reference).enumerate() {
                let what = format!("{atoms} atoms, run {run}");
                assert_eq!(got.records, trace.len() as u64, "{what}: records");
                // Each pid pulls from its own part: the roster prefix is
                // all that is parked. The one-part copy parks a tail.
                assert!(got.splitter_peak_buffered <= atoms as u64, "{what}: {got:?}");
                assert!(want.splitter_peak_buffered > atoms as u64, "{what}: {want:?}");
                got.splitter_peak_buffered = want.splitter_peak_buffered;
                assert_eq!(got, want, "{what}");
            }
        }
    }
}
