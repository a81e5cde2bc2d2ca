//! The streaming test layer: pins that keep the whole
//! `Workload → Engine → Report` pipeline >memory-capable.
//!
//! Three families of pins:
//!
//! 1. **Report-mode equivalence.** `ReportMode::Summary` replays with
//!    running aggregates only (O(1) report memory); its flattened
//!    `ReportSummary` must equal `ReportMode::Full`'s **field for
//!    field** — per replacement policy, per engine, and for arbitrary
//!    profiles (proptest).
//! 2. **Streamed parallel determinism.** The parallel engine reads
//!    its one stream and hands each worker the records in shared
//!    chunks; its report must be **bitwise identical** to the
//!    materialized `replay_parallel` reference path, across thread
//!    counts, per policy.
//! 3. **The acceptance pin.** An iterator-backed workload larger than
//!    the default perf-smoke size flows through `SerialReplay`,
//!    `ParallelReplay` and `TraceSim` in summary mode — no `TraceFile`
//!    (and no record vector) ever exists on that path — and reports
//!    the same summary numbers as a full-mode run.

use proptest::prelude::*;

use clio_core::cache::policy::ReplacementPolicy;
use clio_core::prelude::*;
use clio_core::trace::record::TraceRecord;
use clio_core::trace::replay::{replay_parallel, replay_sharded, ParallelReplayOptions};
use clio_core::trace::source::{IterSource, SliceSource, SourceMeta, TraceSource};
use clio_core::trace::synth::synthesize;

/// Runs `workload` on `engine` in both report modes and pins the
/// flattened summaries field-for-field identical; returns the pair for
/// further checks.
fn pin_summary_equals_full(workload: Workload, engine: Engine, cache: CacheConfig) {
    let run = |mode: ReportMode| {
        Experiment::builder()
            .workload(workload.clone())
            .engine(engine.clone())
            .cache(cache.clone())
            .threads(2)
            .shards(8)
            .report_mode(mode)
            .build()
            .expect("valid experiment")
            .run()
            .expect("experiment runs")
    };
    let full = run(ReportMode::Full);
    let summary = run(ReportMode::Summary);
    assert_eq!(
        summary.summary(),
        full.summary(),
        "{engine:?}/{:?}: summary-mode ReportSummary diverged from full mode",
        cache.policy
    );
    if engine.is_replay() {
        let kept = summary.replay.as_ref().expect("summary replay");
        assert!(kept.timings.is_empty(), "{engine:?}: summary mode must keep no timings");
        assert_eq!(
            kept.stats(),
            full.replay.as_ref().expect("full replay").stats(),
            "{engine:?}: running aggregates diverged bit-for-bit"
        );
    } else {
        // The simulators' reports are aggregates already; both modes
        // must produce the identical sim section.
        assert_eq!(summary.sim, full.sim, "{engine:?}");
    }
}

#[test]
fn summary_mode_equals_full_mode_per_policy_and_engine() {
    let workload = Workload::Synthetic(TraceProfile {
        data_ops: 400,
        write_fraction: 0.3,
        sequentiality: 0.5,
        seed: 0x5EA1,
        ..Default::default()
    });
    for policy in ReplacementPolicy::ALL {
        let cache = CacheConfig { policy, capacity_pages: 128, ..Default::default() };
        for engine in [Engine::SerialReplay, Engine::ParallelReplay] {
            pin_summary_equals_full(workload.clone(), engine, cache.clone());
        }
    }
    // The sim engines take no cache policy; pin them once each.
    for engine in [Engine::TraceSim, Engine::ScheduledSim] {
        pin_summary_equals_full(workload.clone(), engine, CacheConfig::default());
    }
}

#[test]
fn per_worker_streams_match_materialized_parallel_across_thread_counts() {
    // Family 2: the streamed engine against the materialized reference,
    // bitwise, per policy, across thread counts (including a stream
    // length that is not a multiple of the engine's merge chunk).
    let trace = synthesize(&TraceProfile {
        data_ops: 700,
        write_fraction: 0.25,
        sequentiality: 0.6,
        seed: 0xD00E,
        ..Default::default()
    });
    for policy in ReplacementPolicy::ALL {
        let config = CacheConfig { policy, capacity_pages: 96, ..Default::default() };
        let reference = replay_parallel(
            &trace,
            config.clone(),
            &ParallelReplayOptions { threads: 2, shards: 8 },
        )
        .expect("valid trace");
        for threads in [1usize, 2, 3, 8] {
            let opts = ParallelReplayOptions { threads, shards: 8 };
            let streamed = replay_sharded(
                &mut SliceSource::new(&trace),
                config.clone(),
                &opts,
                ReportMode::Full,
            )
            .expect("valid trace");
            assert_eq!(
                streamed.timings, reference.timings,
                "{policy:?}: timings diverged at {threads} threads"
            );
            assert_eq!(streamed.metrics, reference.metrics, "{policy:?} @ {threads}");
            assert_eq!(streamed.shard_metrics, reference.shard_metrics, "{policy:?} @ {threads}");

            // Summary mode over the same streams: aggregates must match
            // the full report's, and the counters must be unaffected.
            let stats = replay_sharded(
                &mut SliceSource::new(&trace),
                config.clone(),
                &opts,
                ReportMode::Summary,
            )
            .expect("valid trace");
            assert!(stats.timings.is_empty(), "{policy:?} @ {threads}");
            assert_eq!(stats.stats(), reference.stats(), "{policy:?} @ {threads}");
            assert_eq!(stats.metrics, reference.metrics, "{policy:?} @ {threads}");
        }
    }
}

/// A deterministic iterator-backed record stream: multi-process, mixed
/// reads/writes, no backing collection anywhere.
fn generated_records(n: u64) -> impl Iterator<Item = TraceRecord> {
    use clio_core::trace::record::IoOp;
    let open = (0..3u32).map(|pid| {
        let mut r = TraceRecord::simple(IoOp::Open, 0, 0, 0);
        r.pid = pid;
        r
    });
    let data = (0..n).map(|i| {
        let offset = (i * 37) % 509 * 8192;
        let op = if i % 5 == 0 { IoOp::Write } else { IoOp::Read };
        let mut r = TraceRecord::simple(op, 0, offset, 4096 * (1 + i % 4));
        r.pid = (i % 3) as u32;
        r
    });
    let close = (0..3u32).map(|pid| {
        let mut r = TraceRecord::simple(IoOp::Close, 0, 0, 0);
        r.pid = pid;
        r
    });
    open.chain(data).chain(close)
}

/// The acceptance pin: a generator-backed workload larger than the
/// default perf-smoke size (5 000 replay records) streams through
/// SerialReplay, ParallelReplay and TraceSim in `ReportMode::Summary`
/// — no `TraceFile` materialization anywhere on the path — and its
/// summary equals the full-mode run's field for field.
#[test]
fn large_iterator_workload_streams_through_every_engine_in_summary_mode() {
    const DATA_OPS: u64 = 20_000; // 4× the smoke default
    let workload = || {
        Workload::custom("generator", move || {
            let meta = SourceMeta { sample_file: "gen.dat".into(), num_processes: 3, num_files: 1 };
            Box::new(IterSource::new(meta, generated_records(DATA_OPS)))
        })
    };
    for engine in [Engine::SerialReplay, Engine::ParallelReplay, Engine::TraceSim] {
        let run = |mode: ReportMode| {
            Experiment::builder()
                .workload(workload())
                .engine(engine.clone())
                .threads(2)
                .shards(8)
                .report_mode(mode)
                .build()
                .expect("valid experiment")
                .run()
                .expect("experiment runs")
        };
        let summary = run(ReportMode::Summary);
        assert_eq!(summary.records, DATA_OPS + 6, "{engine:?}: all records consumed");
        assert!(
            summary.replay.iter().all(|r| r.timings.is_empty()),
            "{engine:?}: no per-record report kept"
        );
        let full = run(ReportMode::Full);
        assert_eq!(summary.summary(), full.summary(), "{engine:?}");
        match engine {
            Engine::TraceSim => assert!(summary.makespan_s().unwrap() > 0.0),
            _ => assert!(summary.total_ms().unwrap() > 0.0),
        }
    }
}

#[test]
fn streamed_sim_of_a_mixed_workload_matches_its_materialized_trace() {
    // The pid splitter against the up-front grouping it replaced: a
    // two-sided mix (two pid namespaces) simulated straight off the
    // stream must equal simulating the materialized trace.
    let mix = Workload::mix(
        Workload::Synthetic(TraceProfile { data_ops: 150, seed: 1, ..Default::default() }),
        Workload::Synthetic(TraceProfile {
            data_ops: 150,
            seed: 2,
            sequentiality: 0.2,
            ..Default::default()
        }),
    );
    let materialized = Workload::Trace(mix.materialize().expect("materializes"));
    for engine in [Engine::TraceSim, Engine::ScheduledSim] {
        let run = |w: &Workload| {
            Experiment::builder()
                .workload(w.clone())
                .engine(engine.clone())
                .machine(MachineConfig::with_disks(2))
                .build()
                .expect("valid experiment")
                .run()
                .expect("sim runs")
        };
        let streamed = run(&mix);
        let reference = run(&materialized);
        // The streamed mix pulls each pid from its own side and parks
        // less; every other field is equal.
        let mut streamed_sim = streamed.sim.clone().expect("sim section");
        let reference_sim = reference.sim.clone().expect("sim section");
        assert!(
            streamed_sim.splitter_peak_buffered <= reference_sim.splitter_peak_buffered,
            "{engine:?}"
        );
        streamed_sim.splitter_peak_buffered = reference_sim.splitter_peak_buffered;
        assert_eq!(streamed_sim, reference_sim, "{engine:?}");
        assert_eq!(streamed.records, reference.records, "{engine:?}");
    }
}

#[test]
fn scenario_families_stream_equals_materialized_bitwise() {
    // Every scenario family — skewed popularity, hotspot, bursty and
    // diurnal arrivals, phased working sets, the shared-file mix, and
    // a nested wrapper chain — streams record-for-record identical to
    // its materialized trace, and re-materializes identically.
    for spec in [
        "zipf:0.9",
        "hot:0.2x0.8",
        "burst:32x64",
        "diurnal:40x6",
        "phase:4",
        "share:seq,rand",
        "zipf:0.9@phase:4@seq",
    ] {
        let mut w = Workload::parse(spec).expect(spec);
        w.scale_data_ops(300);
        let mut src = w.open().expect("opens");
        let mut streamed = Vec::new();
        while let Some(r) = src.next_record() {
            streamed.push(r);
        }
        let t = w.materialize().expect("materializes");
        assert_eq!(streamed, t.records, "{spec}: streamed != materialized");
        assert_eq!(
            w.materialize().expect("materializes").records,
            t.records,
            "{spec}: re-materialization diverged"
        );
    }
}

#[test]
fn scenario_families_summary_equals_full_per_engine() {
    for spec in ["zipf:0.9", "burst:32x64", "phase:4", "share:seq,rand"] {
        let mut w = Workload::parse(spec).expect(spec);
        w.scale_data_ops(250);
        for engine in
            [Engine::SerialReplay, Engine::ParallelReplay, Engine::TraceSim, Engine::ScheduledSim]
        {
            pin_summary_equals_full(w.clone(), engine, CacheConfig::default());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Family 1, fuzzed: for any profile and any policy, summary mode
    /// equals full mode on both replay engines.
    #[test]
    fn summary_equals_full_for_any_profile(
        wf in 0f64..1.0,
        seq in 0f64..1.0,
        seed in any::<u64>(),
    ) {
        let policy = ReplacementPolicy::ALL[(seed % ReplacementPolicy::ALL.len() as u64) as usize];
        let cache = CacheConfig { policy, capacity_pages: 64, ..Default::default() };
        let workload = Workload::Synthetic(TraceProfile {
            seed,
            write_fraction: wf,
            sequentiality: seq,
            data_ops: 200,
            ..Default::default()
        });
        for engine in [Engine::SerialReplay, Engine::ParallelReplay] {
            pin_summary_equals_full(workload.clone(), engine, cache.clone());
        }
    }
}
