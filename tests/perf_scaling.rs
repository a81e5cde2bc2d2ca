//! O(N)-scaling regressions: time *and* memory.
//!
//! The replay engine once cloned the entire record vector on every
//! simulated event, making an N-record replay O(N²) in memory traffic.
//! The timing tests pin the fix: replaying a 4× larger synthesized
//! trace must stay within a generous constant factor of the smaller
//! one's *per-event* wall time (O(N) predicts ≈ 1×; the per-event
//! clone would push it to ≈ 4× and the total to ≈ 16×).
//!
//! The memory tests gate the streaming pipeline: in
//! `ReportMode::Summary`, serial and parallel replay of a synthetic
//! workload must hold peak *live* heap flat as the trace grows — the
//! whole point of the summary mode is that report memory is O(1) in
//! trace length. A counting global allocator (live-byte high-water
//! mark) makes the claim measurable.
//!
//! The allocator also counts *calls*, which gates the intrusive-list
//! policy core's core promise: once a cache is warm, the per-access
//! hot path (hash probe + node relink + slot recycle) performs **zero**
//! heap allocations. The same count, with a per-record time ratio, is
//! the Tier-1 gate over every engine
//! ([`every_engine_is_flat_per_record_in_calls_and_time`]): both
//! compare a run with a larger run of itself, so neither depends on the
//! host's speed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use clio_core::cache::cache::{AccessKind, BufferCache, CacheConfig};
use clio_core::cache::policy::ReplacementPolicy;
use clio_core::cache::ShardedBufferCache;
use clio_core::prelude::*;
use clio_core::sim::sched_replay::{scheduled_trace_sim, SchedReplayOptions};
use clio_core::sim::trace_driven::{trace_sim, ThinkTime, TraceSimOptions, TraceSimReport};
use clio_core::trace::compact::{self, CompactSource, CompactStream};
use clio_core::trace::source::{SliceSource, TraceSource};
use clio_core::trace::synth::{synthesize, TraceProfile};
use clio_core::trace::writer::TraceWriter;
use clio_core::trace::{TraceError, TraceFile};

/// A pass-through allocator that tracks live bytes and their
/// high-water mark, so a test can measure the peak working memory of a
/// region of code.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Count of allocation events (alloc, alloc_zeroed, realloc) —
/// process-global, so zero-allocation gates measure deltas under the
/// `EXCLUSIVE` lock and retry to shed harness noise.
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Serializes the tests in this binary: the memory gates need the
/// allocator counters to themselves, and the timing gates are best not
/// run while another test churns the machine.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Peak live-heap growth (bytes) while running `f`, relative to the
/// live bytes at entry.
fn peak_heap_growth(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(before)
}

/// A factory of fresh streams over `trace`, for the simulator.
fn reopen<'t>(trace: &'t TraceFile) -> impl Fn() -> Box<dyn TraceSource + 't> + 't {
    move || Box::new(SliceSource::new(trace))
}

/// Per-event wall time (seconds) of one replay of `trace`.
fn per_event_seconds(trace: &TraceFile, machine: &MachineConfig) -> f64 {
    let start = Instant::now();
    let report =
        trace_sim(reopen(trace), machine, &TraceSimOptions::default()).expect("valid machine");
    let elapsed = start.elapsed().as_secs_f64();
    assert!(report.events > 0);
    elapsed / report.events as f64
}

/// Best per-event wall times of `small` and `large`, a trace with 8x
/// its events: three rounds, each replaying `small` eight times and
/// then `large` once, so both sizes get the same wall time and a slow
/// spell of the host falls on both, and the small size's minimum is
/// taken over 24 runs of a few milliseconds each.
fn per_event_seconds_small_and_large(
    small: &TraceFile,
    large: &TraceFile,
    machine: &MachineConfig,
) -> (f64, f64) {
    let (mut small_best, mut large_best) = (f64::INFINITY, f64::INFINITY);
    for _round in 0..3 {
        for _ in 0..8 {
            small_best = small_best.min(per_event_seconds(small, machine));
        }
        large_best = large_best.min(per_event_seconds(large, machine));
    }
    (small_best, large_best)
}

#[test]
fn trace_sim_per_event_cost_is_flat_in_trace_length() {
    let _guard = exclusive();
    let profile = |data_ops| TraceProfile {
        data_ops,
        sequentiality: 0.7,
        write_fraction: 0.2,
        seed: 0x5CA1E,
        ..Default::default()
    };
    let small = synthesize(&profile(12_500));
    let large = synthesize(&profile(100_000));
    assert!(large.len() >= 8 * small.len() * 9 / 10, "large trace really is ~8×");

    let machine = MachineConfig::with_disks(2);
    // Warm up allocators and caches before timing anything.
    trace_sim(reopen(&small), &machine, &TraceSimOptions::default()).expect("valid machine");

    // Generous bound, sized for noisy CI runners: O(1) per event
    // predicts a ratio of ≈ 1× at 8× the events, an O(N) step per event
    // ≈ 8×; the old per-event clone copied the whole 160k-record vector
    // on every event, a per-event ratio in the thousands. 3× leaves huge headroom for scheduler/thermal noise,
    // and a transient stall on a shared runner gets two full re-measure
    // attempts — only a *persistent* superlinear ratio (i.e. a real
    // complexity regression) can fail all three.
    let mut small_per_event = 0.0;
    let mut large_per_event = 0.0;
    for _attempt in 0..3 {
        (small_per_event, large_per_event) =
            per_event_seconds_small_and_large(&small, &large, &machine);
        if large_per_event < 3.0 * small_per_event {
            return;
        }
    }
    panic!(
        "per-event cost grew with trace length: {:.1} ns/event (N={}) -> {:.1} ns/event (N={})",
        small_per_event * 1e9,
        small.len(),
        large_per_event * 1e9,
        large.len(),
    );
}

/// Per-record wall time (seconds) of one run of `exp`.
fn per_record_seconds_of(exp: &Experiment) -> f64 {
    let start = Instant::now();
    let records = exp.run().expect("the engine runs").records;
    start.elapsed().as_secs_f64() / records as f64
}

/// The parallel engine must stay O(1) per record: the calling thread's
/// read and merge, the workers' shard views and the recycled chunks and
/// cost columns are all linear in the input, so 16x the operations
/// cannot cost more per record than a generous constant factor over 1x.
///
/// Timed through `Experiment::builder()` — `Engine::ParallelReplay`,
/// `replay_sharded`, what the benchmark's `replay_par` runs — at 2
/// threads x 8 shards. An O(N) step per record shows only once it is a
/// fair share of the per-record cost at the small size, so the input
/// keeps that cost low (one-page requests into a 4 MiB file, all hits
/// once warm: ~200 ns a record) and the large size is 16x, not 8x: a
/// worker that pushes every record and scans every 110th one it kept
/// reads ~6x here. Measured like the `TraceSim` gate above: three
/// rounds of sixteen small runs then one large, minima over each size,
/// and three attempts at the 3x bound.
#[test]
fn parallel_replay_per_record_cost_is_flat_in_trace_length() {
    let _guard = exclusive();
    let experiment = |data_ops| {
        Experiment::builder()
            .workload(Workload::Synthetic(TraceProfile {
                data_ops,
                sequentiality: 0.7,
                write_fraction: 0.2,
                request_size: (64, 2048),
                file_size: 4 << 20,
                seed: 0x9A11E1,
                ..Default::default()
            }))
            .engine(Engine::ParallelReplay)
            .threads(2)
            .shards(8)
            .report_mode(ReportMode::Summary)
            .build()
            .expect("valid experiment")
    };
    let (small, large) = (experiment(10_000), experiment(160_000));
    // Warm up allocators before timing anything.
    let small_records = small.run().expect("the engine runs").records;
    let large_records = large.run().expect("the engine runs").records;
    assert!(large_records >= 16 * small_records * 9 / 10, "large input really is ~16×");

    let mut small_per_record = 0.0;
    let mut large_per_record = 0.0;
    for _attempt in 0..3 {
        (small_per_record, large_per_record) = (f64::INFINITY, f64::INFINITY);
        for _round in 0..3 {
            for _ in 0..16 {
                small_per_record = small_per_record.min(per_record_seconds_of(&small));
            }
            large_per_record = large_per_record.min(per_record_seconds_of(&large));
        }
        if large_per_record < 3.0 * small_per_record {
            return;
        }
    }
    panic!(
        "parallel replay per-record cost grew with the input: \
         {:.1} ns/record ({small_records} records) -> {:.1} ns/record ({large_records})",
        small_per_record * 1e9,
        large_per_record * 1e9,
    );
}

/// Peak heap growth of one summary-mode builder run over a synthetic
/// workload of `data_ops` operations.
fn summary_replay_peak(engine: &Engine, data_ops: usize) -> usize {
    let exp = Experiment::builder()
        .workload(Workload::Synthetic(TraceProfile {
            data_ops,
            sequentiality: 0.7,
            write_fraction: 0.2,
            seed: 0x3E3,
            ..Default::default()
        }))
        .engine(engine.clone())
        .threads(2)
        .shards(8)
        .report_mode(ReportMode::Summary)
        .build()
        .expect("valid experiment");
    let mut records = 0;
    let peak = peak_heap_growth(|| {
        let report = exp.run().expect("replay runs");
        records = report.records;
        assert!(
            report.replay.iter().all(|r| r.timings.is_empty()),
            "summary mode keeps no timings"
        );
    });
    assert!(records as usize > data_ops, "the whole stream was consumed");
    peak
}

/// The memory gate: summary-mode replay must hold peak working memory
/// flat while the workload grows 8×. A report (or engine buffer) that
/// secretly scales O(N) — per-record timings, a materialized trace, an
/// unbounded channel backlog — adds megabytes at the large size and
/// trips the 2× + 512 KiB bound; the real constant-memory pipeline
/// (capacity-bound cache tables, bounded merge chunks) sits far below
/// it.
/// The zero-allocation gate on the intrusive-list policy core: once a
/// cache is warm — slab filled, free list populated, page map at its
/// steady-state footprint — further accesses must never touch the heap,
/// whether they hit (relink / set a visited bit), miss (recycle a freed
/// slot) or evict (push the slot onto the free list). A 512-page
/// cycling working set over a 256-page budget exercises all three paths
/// on every lap.
///
/// The counter is process-global, so another runtime thread allocating
/// mid-measurement could trip a false positive; the gate holds the
/// exclusive lock and takes the best of three attempts — a *real*
/// per-access allocation fires thousands of times in every attempt and
/// cannot pass.
#[test]
fn warm_cache_accesses_allocate_nothing() {
    let _guard = exclusive();
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Sieve] {
        let mut cache = BufferCache::new(CacheConfig {
            policy,
            capacity_pages: 256,
            prefetch_enabled: false,
            ..Default::default()
        });
        let f = cache.register_file("steady");
        let page = |i: u64| (i % 512) * 4096;
        for i in 0..8192u64 {
            cache.access(f, page(i), 1, AccessKind::Read);
        }
        let mut best = usize::MAX;
        for _attempt in 0..3 {
            let before = ALLOC_CALLS.load(Ordering::Relaxed);
            for i in 0..16_384u64 {
                cache.access(f, page(i), 1, AccessKind::Read);
            }
            best = best.min(ALLOC_CALLS.load(Ordering::Relaxed) - before);
            if best == 0 {
                break;
            }
        }
        assert_eq!(
            best,
            0,
            "{}: a warm cache allocated {best} times over 16384 accesses",
            policy.name()
        );
        assert!(cache.metrics().evictions > 0, "the working set really overflows the budget");
    }
}

/// Heap bytes `make` leaves live, in MiB: the least of three builds
/// (the counter is process-global).
fn reserved_mib<T>(make: impl Fn() -> T) -> f64 {
    (0..3)
        .map(|_| {
            let before = LIVE.load(Ordering::Relaxed);
            let made = make();
            let live = LIVE.load(Ordering::Relaxed).saturating_sub(before);
            drop(made);
            live as f64 / f64::from(1 << 20)
        })
        .fold(f64::INFINITY, f64::min)
}

/// The page table's reservation: what a fresh cache of 16 384 pages
/// holds before it caches anything, per policy, against the budget of
/// its slab (32-byte nodes), group slab (48-byte groups, one per four
/// pages of the reservation), open-addressed group table (three 8-byte
/// buckets per group) and gather buffer. At the
/// commit before the table was slimmed these read 1.235 MiB (LRU, FIFO,
/// SLRU, SIEVE), 0.985 (CLOCK), 1.657 (2Q), 2.469 (ARC) and 1.243 for
/// the 16-shard cache.
#[test]
fn a_fresh_cache_reserves_within_its_page_table_budget() {
    let _guard = exclusive();
    const PAGES: usize = 16_384;
    for policy in ReplacementPolicy::ALL {
        let budget = match policy {
            ReplacementPolicy::Clock => 0.75,
            ReplacementPolicy::TwoQ => 1.20,
            ReplacementPolicy::Arc => 1.75,
            _ => 0.90,
        };
        let config = CacheConfig { policy, capacity_pages: PAGES, ..Default::default() };
        let mib = reserved_mib(|| BufferCache::new(config.clone()));
        eprintln!("{}: {mib:.3} MiB reserved", policy.name());
        assert!(mib <= budget, "{}: {mib:.3} MiB reserved, budget {budget}", policy.name());
    }
    let config = CacheConfig { capacity_pages: PAGES, ..Default::default() };
    let mib = reserved_mib(|| ShardedBufferCache::new(config.clone(), 16));
    eprintln!("16 x 1024-page shards: {mib:.3} MiB reserved");
    assert!(mib <= 0.90, "16 x 1024-page shards: {mib:.3} MiB reserved, budget 0.90");
}

/// Closing a file walks its groups in page order out of a buffer the
/// index keeps: under every policy, a close that drops 8 192 resident
/// pages (every other one dirty) allocates nothing. A victim list or a
/// growing free list would allocate on every close.
#[test]
fn closing_a_large_file_allocates_nothing_once_warm() {
    let _guard = exclusive();
    const FILE_PAGES: u64 = 8_192;
    for policy in ReplacementPolicy::ALL {
        let mut cache = BufferCache::new(CacheConfig {
            policy,
            capacity_pages: 16_384,
            prefetch_enabled: false,
            ..Default::default()
        });
        let f = cache.register_file("large");
        let fill = |cache: &mut BufferCache| {
            cache.open(f);
            for i in 0..FILE_PAGES {
                let kind = if i % 2 == 0 { AccessKind::Write } else { AccessKind::Read };
                cache.access(f, i * 4096, 4096, kind);
            }
            assert_eq!(cache.resident_pages(), FILE_PAGES as usize, "{}", policy.name());
        };
        fill(&mut cache);
        cache.close(f);
        let mut best = usize::MAX;
        for _attempt in 0..3 {
            fill(&mut cache);
            let before = ALLOC_CALLS.load(Ordering::Relaxed);
            let closed = cache.close(f);
            best = best.min(ALLOC_CALLS.load(Ordering::Relaxed) - before);
            assert_eq!(cache.resident_pages(), 0, "{}", policy.name());
            assert!(closed.cost_ms > 0.0);
        }
        assert_eq!(best, 0, "{}: closing {FILE_PAGES} pages allocated {best} times", policy.name());
    }
}

/// Allocation calls of one `run`, best of three (the counter is
/// process-global; see [`warm_cache_accesses_allocate_nothing`]).
fn alloc_calls(mut run: impl FnMut()) -> usize {
    (0..3)
        .map(|_| {
            let before = ALLOC_CALLS.load(Ordering::Relaxed);
            run();
            ALLOC_CALLS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("three attempts")
}

/// The same gate for the two trace simulators: an event is a typed
/// word in the heap entry, a sleeper's record is parked in its process
/// slot, and a transfer is striped by an iterator — so a replay's
/// allocations are its fixed set-up plus O(log N) buffer doublings
/// (event heap, splitter `VecDeque`s, transfer table). Eight times the
/// records may add a few dozen calls; one allocation per event would
/// add ~14 000 here and cannot pass.
///
/// The trace is frozen (a `SliceSource` allocates nothing per record).
/// Every other record of its first process is a seek, which needs no
/// disk, so that process runs ahead and the splitter buffers a share of
/// the trace for the second — the doublings the bound allows for. The
/// scheduled run is under `err@64` plus a slow window, so the retry
/// path is measured too; the open-loop run measures the parked-record
/// wake-up.
#[test]
fn simulator_event_loops_allocate_nothing_per_event() {
    let _guard = exclusive();
    let frozen = |data_ops: u64| {
        let mut w = TraceWriter::new("alloc.dat").with_processes(2).with_tick_us(100);
        for i in 0..data_ops / 2 {
            let op = if i % 2 == 0 { IoOp::Seek } else { IoOp::Read };
            w.record(op, 0, 0, i * 4096, 4096);
            w.record(IoOp::Write, 1, 1, i * 300_000, 300_000);
        }
        w.finish().expect("valid trace")
    };
    let machine = MachineConfig::with_disks(2);
    let open_loop = TraceSimOptions { think_time: ThinkTime::FromTrace };
    let faulted = SchedReplayOptions {
        faults: DiskFaultPlan {
            slow_windows: vec![SlowWindow { start_s: 0.0, end_s: 1.0, multiplier: 8.0 }],
            error_every: 64,
            ..Default::default()
        },
        ..Default::default()
    };
    const N: u64 = 2_000;
    let (small, large) = (frozen(N), frozen(8 * N));
    let gate = |name: &str, sim: &dyn Fn(&TraceFile) -> TraceSimReport| {
        let report = sim(&large);
        assert!(report.events >= 8 * N, "{name}: at least one event per record");
        assert!(report.splitter_peak_buffered >= N, "{name}: the splitter buffered");

        let at_n = alloc_calls(|| drop(sim(&small)));
        let at_8n = alloc_calls(|| drop(sim(&large)));
        assert!(
            at_8n <= at_n + 64,
            "{name}: allocations grew with the trace: {at_n} calls at {N} ops -> \
             {at_8n} at {} ops",
            8 * N
        );
        report
    };
    gate("trace_sim", &|t| trace_sim(reopen(t), &machine, &Default::default()).unwrap());
    gate("trace_sim, open loop", &|t| trace_sim(reopen(t), &machine, &open_loop).unwrap());
    let report = gate("scheduled_trace_sim, faulted", &|t| {
        scheduled_trace_sim(reopen(t), &machine, &faulted).unwrap()
    });
    assert!(report.retries > 0, "the retry path ran");
}

/// One row of [`every_engine_is_flat_per_record_in_calls_and_time`]:
/// a run of an engine at a size, prepared outside the measurement.
struct Row {
    name: String,
    /// Allocation calls the 8x run may add per 1024 extra records, on
    /// top of the fixed 64 (0 for an engine that allocates nothing per
    /// record).
    calls_per_krecord: usize,
    /// Whether the per-record time is checked too.
    timed: bool,
    /// The run at `data_ops` synthetic operations; each call of the
    /// returned closure runs it once and returns the records it took.
    at: Box<dyn Fn(usize) -> Box<dyn Fn() -> u64>>,
}

impl Row {
    fn new(name: impl Into<String>, at: impl Fn(usize) -> Box<dyn Fn() -> u64> + 'static) -> Self {
        Row { name: name.into(), calls_per_krecord: 0, timed: false, at: Box::new(at) }
    }

    /// An `Experiment::builder()` run of `engine` over `workload` scaled
    /// to each size, in summary mode unless `configure` says otherwise.
    fn experiment(
        name: impl Into<String>,
        workload: Workload,
        engine: Engine,
        configure: impl Fn(ExperimentBuilder, usize) -> ExperimentBuilder + 'static,
    ) -> Self {
        Row::new(name, move |data_ops| {
            let mut workload = workload.clone();
            workload.scale_data_ops(data_ops);
            let builder = Experiment::builder()
                .workload(workload)
                .engine(engine.clone())
                .report_mode(ReportMode::Summary);
            let exp = configure(builder, data_ops).build().expect("valid experiment");
            Box::new(move || exp.run().expect("the engine runs").records)
        })
    }

    fn per_krecord(self, calls: usize) -> Self {
        Row { calls_per_krecord: calls, ..self }
    }

    fn timed(self) -> Self {
        Row { timed: true, ..self }
    }
}

/// Best-of-5 per-record wall time (seconds) of `run`.
fn per_record_seconds(run: &dyn Fn() -> u64) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let records = run();
            start.elapsed().as_secs_f64() / records as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The Tier-1 regression gate over every engine the benchmark runs, in
/// terms that do not depend on the host: what grows with the input.
///
/// - **Allocation calls.** At 8N each row makes at most its N-run's
///   calls + 64: set-up and O(log N) buffer doublings. The chunk
///   pipeline of strict serial replay and of parallel replay recycles
///   its record chunks (and cost columns), so both are held to that
///   too; v2 encode (per-block buffers, ~1 call per 1024 records) gets
///   16 per 1024 extra records on top. One allocation per record adds
///   ~18 000 calls here and cannot pass either bound.
/// - **Per-record time** of serial replay (unverified, and strict
///   through the chunk pipeline), serve at 32 clients, the faulted
///   scheduled simulator and v2 decode: at 8N within 3x of N,
///   best of 5, with three attempts, as in the timing tests above; the
///   host's speed cancels out of the ratio. An O(N) step per record (a
///   scan over a list that grows with the input) reads ~7x here; at 4N
///   it would read 3.2-3.8x, too near the bound to fail every time.
///
/// A constant-factor slowdown is the benchmark's to catch: `clio_e2e`'s
/// spin-normalised `norm_cost` runs every engine here.
#[test]
fn every_engine_is_flat_per_record_in_calls_and_time() {
    const N: usize = 2_000;
    fn profile(data_ops: usize) -> TraceProfile {
        TraceProfile { data_ops, sequentiality: 0.7, write_fraction: 0.2, ..Default::default() }
    }
    let _guard = exclusive();
    let synth = Workload::Synthetic(profile(N));
    let mut rows: Vec<Row> = ReplacementPolicy::ALL
        .iter()
        .map(|&policy| {
            let cache = CacheConfig { policy, ..Default::default() };
            let row = Row::experiment(
                format!("replay/{}", policy.name()),
                synth.clone(),
                Engine::SerialReplay,
                move |b, _| b.cache(cache.clone()),
            );
            if policy == ReplacementPolicy::Lru {
                row.timed()
            } else {
                row
            }
        })
        .collect();
    rows.push(Row::experiment(
        "replay/LRU, full report",
        synth.clone(),
        Engine::SerialReplay,
        |b, _| b.report_mode(ReportMode::Full),
    ));
    rows.push(
        Row::experiment("replay/LRU, strict", synth.clone(), Engine::SerialReplay, |b, _| {
            b.verify(VerifyMode::Strict)
        })
        .timed(),
    );
    for clients in [1, 32] {
        let serve = Row::experiment(
            format!("serve/{clients}"),
            synth.clone(),
            Engine::Serve,
            move |b, n| b.clients(clients).requests_per_client(n / clients),
        );
        rows.push(if clients == 32 { serve.timed() } else { serve });
    }
    rows.push(Row::experiment("trace_sim", synth.clone(), Engine::TraceSim, |b, _| {
        b.machine(MachineConfig::with_disks(2))
    }));
    let fault = Scenario::parse("fault:slow@0-1x8+err@64:zipf:0.9").expect("parses");
    rows.push(
        Row::new("scheduled_sim, faulted", move |data_ops| {
            let mut sc = fault.clone();
            sc.workload.scale_data_ops(data_ops);
            let exp = Experiment::builder()
                .scenario(sc)
                .engine(Engine::ScheduledSim)
                .build()
                .expect("valid experiment");
            Box::new(move || {
                let report = exp.run().expect("the simulator runs");
                assert!(report.sim.as_ref().is_some_and(|s| s.retries > 0), "the retry path ran");
                report.records
            })
        })
        .timed(),
    );
    for spec in ["zipf:0.9", "burst:64x256", "phase:4", "share:seq,rand"] {
        let workload = Workload::parse(spec).expect("parses");
        rows.push(Row::experiment(
            format!("replay/{spec}"),
            workload,
            Engine::SerialReplay,
            |b, _| b,
        ));
    }
    rows.push(
        Row::new("v2 encode", |data_ops| {
            let trace = synthesize(&profile(data_ops));
            Box::new(move || {
                compact::encode_trace(&trace).expect("encodes");
                trace.len() as u64
            })
        })
        .per_krecord(16),
    );
    rows.push(
        Row::new("v2 decode", move |data_ops| {
            let bytes = compact::encode_trace(&synthesize(&profile(data_ops))).expect("encodes");
            let bytes = Arc::new(bytes);
            Box::new(move || {
                let mut source = CompactSource::from_bytes(bytes.clone()).expect("admits");
                let mut records = 0;
                while source.next_record().is_some() {
                    records += 1;
                }
                records
            })
        })
        .timed(),
    );
    rows.push(Row::experiment("parallel replay", synth.clone(), Engine::ParallelReplay, |b, _| {
        b.threads(2).shards(8)
    }));
    rows.push(Row::experiment(
        "parallel replay, strict",
        synth.clone(),
        Engine::ParallelReplay,
        |b, _| b.threads(2).shards(8).verify(VerifyMode::Strict),
    ));

    for row in &rows {
        let name = &row.name;
        let (small, large) = ((row.at)(N), (row.at)(8 * N));
        let records = small(); // warm-up: first-use allocations
        let mut large_records = 0;
        let at_n = alloc_calls(|| {
            small();
        });
        let at_8n = alloc_calls(|| large_records = large());
        assert!(large_records >= 7 * records, "{name}: {records} -> {large_records} records");
        let allowed = 64 + row.calls_per_krecord * (large_records - records) as usize / 1024;
        assert!(
            at_8n <= at_n + allowed,
            "{name}: allocations grew with the input: {at_n} calls over {records} records -> \
             {at_8n} over {large_records} (at most {allowed} more allowed)"
        );
        if !row.timed {
            continue;
        }
        let (mut small_s, mut large_s) = (0.0, 0.0);
        for _attempt in 0..3 {
            small_s = per_record_seconds(&*small);
            large_s = per_record_seconds(&*large);
            if large_s < 3.0 * small_s {
                break;
            }
        }
        assert!(
            large_s < 3.0 * small_s,
            "{name}: per-record cost grew with the input: {:.1} ns/record at {N} ops -> \
             {:.1} at {}",
            small_s * 1e9,
            large_s * 1e9,
            8 * N
        );
    }
}

#[test]
fn summary_mode_replay_memory_is_flat_in_trace_length() {
    let _guard = exclusive();
    for engine in [Engine::SerialReplay, Engine::ParallelReplay] {
        // Warm-up: let one run populate whatever lazy statics exist so
        // the measured runs see steady state.
        summary_replay_peak(&engine, 1_000);
        let small = summary_replay_peak(&engine, 10_000);
        let large = summary_replay_peak(&engine, 80_000);
        assert!(
            large < 2 * small + 512 * 1024,
            "{engine:?}: peak heap grew with trace length: \
             {small} B at 10k ops -> {large} B at 80k ops"
        );
    }
}

/// The same flat-memory bound for the seek-aware scheduled simulator:
/// its transfer table must recycle completed slots through the free
/// list instead of growing one entry per request, and its demultiplexer
/// stays bounded — so an 8× workload cannot move peak heap. Before slot
/// recycling, the transfer vector alone grew O(N) and trips this bound.
#[test]
fn scheduled_sim_memory_is_flat_in_trace_length() {
    let _guard = exclusive();
    let engine = Engine::ScheduledSim;
    summary_replay_peak(&engine, 1_000);
    let small = summary_replay_peak(&engine, 10_000);
    let large = summary_replay_peak(&engine, 80_000);
    assert!(
        large < 2 * small + 512 * 1024,
        "scheduled sim peak heap grew with trace length: \
         {small} B at 10k ops -> {large} B at 80k ops"
    );
}

/// The simulators over a mix of synthetic sides: each pid pulls from
/// its own side, so the splitter parks nothing past the roster prefix
/// (at most one record per part), and peak heap is flat while the
/// workload grows 8x — unverified, and behind either admission wrapper,
/// which passes the parts through. Pulling both pids from one merged
/// stream parks the longer side's tail once the shorter is done:
/// 36 437 records and 3 MB of peak heap under `TraceSim` at the large
/// size, against 4 KB.
#[test]
fn a_vouched_mix_parks_nothing_and_holds_sim_heap_flat() {
    let _guard = exclusive();
    let mut mix = Workload::parse("mix:zipf:0.9,rand").expect("parses");
    let parts = mix.open().expect("opens").pid_parts().expect("synthetic sides vouch").len();
    assert_eq!(parts, 2);
    for verify in [VerifyMode::Off, VerifyMode::Strict, VerifyMode::Lenient] {
        for engine in [Engine::TraceSim, Engine::ScheduledSim] {
            let mut peak = |data_ops: usize| {
                mix.scale_data_ops(data_ops);
                let exp = Experiment::builder()
                    .workload(mix.clone())
                    .engine(engine.clone())
                    .machine(MachineConfig::with_disks(2))
                    .verify(verify)
                    .build()
                    .expect("valid experiment");
                let mut sim = None;
                let heap = peak_heap_growth(|| sim = exp.run().expect("sim runs").sim);
                let sim = sim.expect("the simulators fill the sim section");
                let case = format!("{engine:?}/{verify:?}");
                assert!(sim.records as usize > 2 * data_ops, "{case}: the whole stream was read");
                assert!(
                    sim.splitter_peak_buffered <= parts as u64,
                    "{case}: parked {} records at {data_ops} ops a side",
                    sim.splitter_peak_buffered
                );
                heap
            };
            peak(1_000); // warm-up, as in the gates above
            let (small, large) = (peak(10_000), peak(80_000));
            assert!(
                large < small + 64 * 1024,
                "{engine:?}/{verify:?}: peak heap grew with the mix: {small} B at 10k ops a \
                 side -> {large} B at 80k"
            );
        }
    }
}

/// A fresh directory for this binary's trace files.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("clio-scaling-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A v2 file of a `data_ops`-operation synthetic trace, and its record
/// count.
fn v2_file(dir: &std::path::Path, data_ops: usize) -> (std::path::PathBuf, u64) {
    let trace = synthesize(&TraceProfile {
        data_ops,
        sequentiality: 0.7,
        write_fraction: 0.2,
        seed: 0x1265,
        ..Default::default()
    });
    let path = dir.join(format!("ingest-{data_ops}.clc2"));
    std::fs::write(&path, compact::encode_trace(&trace).expect("encodes")).expect("writes");
    (path, trace.len() as u64)
}

/// The one-pass ingest gate: a v2 file read, CRC-checked, decoded,
/// strictly verified and replayed in summary mode holds one block, not
/// the trace. Peak heap is flat while the file grows 8x (a
/// materialized `Vec<TraceRecord>` alone grows by megabytes and trips
/// the bound), and so is the allocation *count*: payload, record and
/// column buffers are reused from block to block, so the extra blocks
/// cost a few buffer doublings (the block index, a larger payload), not
/// a set of allocations each.
#[test]
fn one_pass_v2_ingest_memory_and_allocations_are_flat_in_file_length() {
    let _guard = exclusive();
    let dir = temp_dir("ingest");
    let ingest = |data_ops: usize| {
        let (path, records) = v2_file(&dir, data_ops);
        let exp = Experiment::builder()
            .workload(Workload::File(path))
            .engine(Engine::SerialReplay)
            .verify(VerifyMode::Strict)
            .report_mode(ReportMode::Summary)
            .build()
            .expect("valid experiment");
        let run = move || {
            let report = exp.run().expect("a clean file ingests");
            assert_eq!(report.records, records, "the whole file was replayed");
        };
        (peak_heap_growth(&run), alloc_calls(&run))
    };
    ingest(1_000); // warm-up, as in the gates above
    let (small_peak, small_calls) = ingest(10_000);
    let (large_peak, large_calls) = ingest(80_000);
    assert!(
        large_peak < 2 * small_peak + 512 * 1024,
        "peak heap grew with file length: {small_peak} B at 10k ops -> {large_peak} B at 80k ops"
    );
    assert!(
        large_calls <= small_calls + 64,
        "allocations grew with file length: {small_calls} calls at 10k ops -> \
         {large_calls} at 80k ops"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An admitting serial ingest reads, decodes and verifies on a reader
/// thread that runs at most three 1024-record chunks ahead of the
/// cache, in three buffers it recycles. So its peak heap is the
/// unverified ingest's plus those buffers (and 64 KiB for the thread,
/// its channels and the verifier's tables), and its allocation count
/// does not grow with file length: a buffer per chunk would add about
/// 70 calls between 10k and 80k ops, and a channel that allocates per
/// message more.
#[test]
fn a_strict_ingest_on_a_reader_thread_holds_three_chunks_over_the_unverified_one() {
    let _guard = exclusive();
    let dir = temp_dir("read-ahead");
    let ingest = |data_ops: usize, verify: VerifyMode| {
        let (path, records) = v2_file(&dir, data_ops);
        let exp = Experiment::builder()
            .workload(Workload::File(path))
            .engine(Engine::SerialReplay)
            .verify(verify)
            .report_mode(ReportMode::Summary)
            .build()
            .expect("valid experiment");
        let run = move || {
            let report = exp.run().expect("a clean file ingests");
            assert_eq!(report.records, records, "the whole file was replayed");
        };
        (peak_heap_growth(&run), alloc_calls(&run))
    };
    ingest(1_000, VerifyMode::Strict); // warm-up, as in the gates above
    let (off_peak, _) = ingest(80_000, VerifyMode::Off);
    let (strict_peak, large_calls) = ingest(80_000, VerifyMode::Strict);
    let (_, small_calls) = ingest(10_000, VerifyMode::Strict);
    let chunks = 3 * 1024 * std::mem::size_of::<clio_core::trace::record::TraceRecord>();
    assert!(
        strict_peak <= off_peak + chunks + 64 * 1024,
        "a strict ingest held {strict_peak} B against the unverified {off_peak} B"
    );
    assert!(
        large_calls <= small_calls + 64,
        "allocations grew with file length: {small_calls} calls at 10k ops -> \
         {large_calls} at 80k ops"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Admission must never size an allocation by a count the file merely
/// *declares*. None of the three places a v2 file states a block's
/// record count is under the CRC — the prelude's `num_records`, the
/// block header's `record_count`/`raw_len`, the footer's index entry —
/// so a few hundred bytes can agree with themselves on 95 443 717
/// records (the largest count whose `raw_len` still fits a `u32`),
/// pass framing and checksum, and ask the decoder for 4.5 GB. Every
/// way into the decoder has to answer with a coded `CorruptBlock`
/// instead, having allocated next to nothing.
#[test]
fn inflated_record_count_is_a_coded_error_not_an_allocation() {
    const CLAIMED: u32 = 95_443_717;
    let _guard = exclusive();
    let honest = synthesize(&TraceProfile { data_ops: 60, ..Default::default() });
    let mut bytes = compact::encode_trace(&honest).expect("encodes");
    assert!(bytes.len() < 4096, "a small, single-block file");
    let u64_at = |b: &[u8], i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
    let block_header = 32 + honest.header.sample_file.len() + 1;
    let index_entry = u64_at(&bytes, bytes.len() - 12) as usize + 1 + 4;
    bytes[14..22].copy_from_slice(&u64::from(CLAIMED).to_le_bytes());
    bytes[block_header..block_header + 4].copy_from_slice(&CLAIMED.to_le_bytes());
    bytes[block_header + 4..block_header + 8].copy_from_slice(&(CLAIMED * 45).to_le_bytes());
    bytes[index_entry + 8..index_entry + 12].copy_from_slice(&CLAIMED.to_le_bytes());

    let dir = temp_dir("inflated");
    let path = dir.join("inflated.clc2");
    std::fs::write(&path, &bytes).expect("writes");
    let run = |engine: Engine, verify: VerifyMode| {
        let exp = Experiment::builder()
            .workload(Workload::File(path.clone()))
            .engine(engine)
            .verify(verify)
            // The default cache's own tables are over 1 MiB.
            .cache(CacheConfig { capacity_pages: 64, ..Default::default() })
            .build()
            .expect("valid experiment");
        match exp.run() {
            Err(ExpError::Trace(e)) => Err(e),
            other => panic!("expected a trace error, got {other:?}"),
        }
    };
    type Attempt<'a> = (&'a str, Box<dyn Fn() -> Result<(), TraceError> + 'a>);
    let attempts: [Attempt; 6] = [
        ("from_bytes", Box::new(|| CompactSource::from_bytes(bytes.clone()).map(drop))),
        ("decode_trace", Box::new(|| compact::decode_trace(bytes.clone()).map(drop))),
        (
            "CompactStream",
            Box::new(|| {
                let mut stream = CompactStream::open(std::io::Cursor::new(&bytes))?;
                assert!(stream.next_record().is_none(), "nothing of a rejected block gets out");
                stream.take_failure().map_or(Ok(()), Err)
            }),
        ),
        ("run/one-pass", Box::new(|| run(Engine::SerialReplay, VerifyMode::Off))),
        ("run/one-pass strict", Box::new(|| run(Engine::SerialReplay, VerifyMode::Strict))),
        ("run/admitted", Box::new(|| run(Engine::TraceSim, VerifyMode::Off))),
    ];
    for (name, attempt) in &attempts {
        let mut outcome = Ok(());
        let peak = peak_heap_growth(|| outcome = attempt());
        assert!(
            matches!(outcome, Err(TraceError::CorruptBlock { block: 0, .. })),
            "{name}: expected a coded CorruptBlock, got {outcome:?}"
        );
        assert!(peak < 1 << 20, "{name}: rejecting a {}-byte file took {peak} B", bytes.len());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Nothing an engine builds is sized by the file count a header merely
/// *declares*. The prelude's `num_files` is under no CRC, so one
/// flipped high bit passes admission and claims billions of files.
/// Patched to `1 << 22` and to `u32::MAX`, a small v2 file must replay
/// through every engine under every mode exactly as the honest file
/// does: same summary (real replay's wall-clock means aside), and peak
/// heap within 64 KiB. A file table of the declared size would take
/// hundreds of megabytes at `1 << 22`.
#[test]
fn a_declared_file_count_sizes_no_engine_allocation() {
    const SLACK: usize = 64 * 1024;
    let _guard = exclusive();
    let honest = synthesize(&TraceProfile { data_ops: 60, ..Default::default() });
    let clean = compact::encode_trace(&honest).expect("encodes");
    let dir = temp_dir("roster");
    let path = dir.join("roster.clc2");
    let sample = dir.join("sample.dat");
    std::fs::write(&sample, vec![7u8; 64 * 1024]).expect("sample file");
    let engines = [
        Engine::SerialReplay,
        Engine::ParallelReplay,
        Engine::TraceSim,
        Engine::ScheduledSim,
        Engine::Serve,
        Engine::RealReplay { sample },
    ];
    // One run of `engine` over the file now at `path`: its summary and
    // the peak heap growth of `run()`.
    let run = |engine: &Engine, verify: VerifyMode| {
        let exp = Experiment::builder()
            .workload(Workload::File(path.clone()))
            .engine(engine.clone())
            .verify(verify)
            // The default cache's own tables are over 1 MiB.
            .cache(CacheConfig { capacity_pages: 64, ..Default::default() })
            .build()
            .expect("valid experiment");
        let mut report = None;
        let peak = peak_heap_growth(|| report = Some(exp.run()));
        let summary = match report.expect("ran") {
            Ok(report) => report.summary(),
            Err(e) => panic!("{engine:?} under {verify:?}: {e}"),
        };
        let summary = match engine {
            Engine::RealReplay { .. } => ReportSummary {
                total_ms: None,
                open_ms: None,
                close_ms: None,
                read_ms: None,
                write_ms: None,
                seek_ms: None,
                ..summary
            },
            _ => summary,
        };
        (summary, peak)
    };
    let modes = [VerifyMode::Off, VerifyMode::Strict, VerifyMode::Lenient];

    std::fs::write(&path, &clean).expect("writes");
    for engine in &engines {
        run(engine, VerifyMode::Off); // warm-up: first-use allocations
    }
    let baseline: Vec<Vec<_>> =
        engines.iter().map(|e| modes.iter().map(|&v| run(e, v)).collect()).collect();
    for declared in [1u32 << 22, u32::MAX] {
        let mut bytes = clean.clone();
        bytes[10..14].copy_from_slice(&declared.to_le_bytes());
        let admitted =
            CompactSource::from_bytes(bytes.clone()).expect("the prelude is under no CRC");
        assert_eq!(admitted.meta().num_files, declared);
        std::fs::write(&path, &bytes).expect("writes");
        for (engine, honest_runs) in engines.iter().zip(&baseline) {
            for (&verify, (want, honest_peak)) in modes.iter().zip(honest_runs) {
                let (got, peak) = run(engine, verify);
                assert_eq!(&got, want, "{engine:?} under {verify:?}, {declared} files declared");
                assert!(
                    peak.abs_diff(*honest_peak) <= SLACK,
                    "{engine:?} under {verify:?}: {declared} declared files took {peak} B of \
                     heap, the honest roster {honest_peak} B"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
