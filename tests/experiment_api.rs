//! Equivalence and property layer for the unified experiment API.
//!
//! Two families of pins:
//!
//! 1. **Canonical-engine equivalence.** The `Experiment::builder()`
//!    path must produce **bit-identical** reports to the low-level
//!    canonical engines (`replay_cached`, `replay_parallel`,
//!    `trace_sim`, `scheduled_trace_sim`) — per policy, per engine.
//!    This is the contract that lets callers move between the two
//!    API levels without re-baselining a single number. (The
//!    pre-`Experiment` deprecated shims these pins originally covered
//!    are deleted; the pins now anchor directly to the engines the
//!    shims delegated to.)
//! 2. **Streaming equivalence.** A workload consumed as a stream
//!    (synthesizer, iterator-backed generator) must replay
//!    access-for-access identically to the same workload materialized
//!    as a `TraceFile` first.

use proptest::prelude::*;

use clio_core::cache::policy::ReplacementPolicy;
use clio_core::prelude::*;
use clio_core::trace::record::TraceRecord;
use clio_core::trace::replay::{
    replay_cached, replay_parallel, OpTiming, ParallelReplayOptions, ReportMode,
};
use clio_core::trace::source::{IterSource, SliceSource, SourceMeta, TraceSource};
use clio_core::trace::synth::synthesize;
use clio_core::trace::TraceFile;

/// A factory of fresh streams over `trace`, for the simulators.
fn reopen<'t>(trace: &'t TraceFile) -> impl Fn() -> Box<dyn TraceSource + 't> + 't {
    move || Box::new(SliceSource::new(trace))
}

/// Builder-path serial replay timings for a materialized trace.
fn builder_timings(trace: &TraceFile, config: CacheConfig) -> Vec<OpTiming> {
    Experiment::builder()
        .workload(Workload::trace(trace.clone()))
        .engine(Engine::SerialReplay)
        .cache(config)
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs")
        .replay
        .expect("serial replay fills the replay section")
        .timings
}

#[test]
fn builder_serial_replay_is_bit_identical_to_canonical_per_policy() {
    let trace = synthesize(&TraceProfile {
        data_ops: 600,
        write_fraction: 0.25,
        sequentiality: 0.6,
        ..Default::default()
    });
    for policy in ReplacementPolicy::ALL {
        let config = CacheConfig { policy, capacity_pages: 256, ..Default::default() };
        let canonical =
            replay_cached(&mut SliceSource::new(&trace), config.clone(), ReportMode::Full)
                .expect("valid trace");
        let new = builder_timings(&trace, config);
        assert_eq!(new, canonical.timings, "{policy:?}: builder diverged from replay_cached");
    }
}

#[test]
fn builder_parallel_replay_is_bit_identical_to_canonical() {
    // The builder streams the workload once; `replay_parallel` is
    // the materialized reference engine. Their reports must agree
    // bitwise — timings, aggregate and per-shard metrics alike.
    let trace = synthesize(&TraceProfile {
        data_ops: 800,
        write_fraction: 0.3,
        sequentiality: 0.5,
        seed: 0xE0,
        ..Default::default()
    });
    let config = CacheConfig { capacity_pages: 128, ..Default::default() };
    let opts = ParallelReplayOptions { threads: 3, shards: 8 };
    let canonical = replay_parallel(&trace, config.clone(), &opts).expect("valid trace");
    let report = Experiment::builder()
        .workload(Workload::trace(trace.clone()))
        .engine(Engine::ParallelReplay)
        .cache(config)
        .threads(3)
        .shards(8)
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs");
    assert_eq!(report.replay.unwrap().timings, canonical.timings);
    assert_eq!(report.cache_metrics.unwrap(), canonical.metrics);
    assert_eq!(report.shard_metrics.unwrap(), canonical.shard_metrics);
    assert_eq!(report.threads_used.unwrap(), canonical.threads);
}

#[test]
fn builder_trace_sim_is_bit_identical_to_canonical() {
    let mut records = synthesize(&TraceProfile { data_ops: 400, ..Default::default() }).records;
    for (i, r) in records.iter_mut().enumerate() {
        r.pid = (i % 3) as u32;
    }
    let trace = TraceFile::build("sim.dat", 3, records).expect("valid trace");
    let machine = MachineConfig::with_disks(2);
    let canonical = clio_core::sim::trace_driven::trace_sim(
        reopen(&trace),
        &machine,
        &clio_core::sim::trace_driven::TraceSimOptions::default(),
    )
    .expect("valid machine");
    let report = Experiment::builder()
        .workload(Workload::trace(trace))
        .engine(Engine::TraceSim)
        .machine(machine)
        .build()
        .expect("valid experiment")
        .run()
        .expect("sim runs");
    assert_eq!(report.sim.unwrap(), canonical);
}

#[test]
fn builder_scheduled_sim_is_bit_identical_to_canonical() {
    let trace = synthesize(&TraceProfile {
        data_ops: 200,
        sequentiality: 0.1,
        seed: 0x5C4ED,
        ..Default::default()
    });
    for policy in clio_core::sim::sched::Policy::ALL {
        let canonical = clio_core::sim::sched_replay::scheduled_trace_sim(
            reopen(&trace),
            &MachineConfig::uniprocessor(),
            &clio_core::sim::sched_replay::SchedReplayOptions { policy, ..Default::default() },
        )
        .expect("valid machine");
        let report = Experiment::builder()
            .workload(Workload::trace(trace.clone()))
            .engine(Engine::ScheduledSim)
            .machine(MachineConfig::uniprocessor())
            .sched_policy(policy)
            .build()
            .expect("valid experiment")
            .run()
            .expect("sim runs");
        assert_eq!(report.sim.unwrap(), canonical, "{}", policy.name());
    }
}

#[test]
fn real_replay_engine_runs_against_a_real_file() {
    let dir = std::env::temp_dir().join(format!("clio-exp-real-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sample = dir.join("sample.dat");
    std::fs::write(&sample, vec![7u8; 256 * 1024]).expect("sample file");

    let trace = synthesize(&TraceProfile {
        data_ops: 32,
        file_size: 256 * 1024,
        request_size: (512, 4096),
        ..Default::default()
    });
    let report = Experiment::builder()
        .workload(Workload::trace(trace.clone()))
        .engine(Engine::RealReplay { sample: sample.clone() })
        .build()
        .expect("valid experiment")
        .run()
        .expect("real replay runs");
    let replay = report.replay.expect("real replay fills the replay section");
    assert_eq!(replay.timings.len(), trace.len());
    assert!(replay.timings.iter().all(|t| t.elapsed_ms >= 0.0));

    let _ = std::fs::remove_dir_all(dir);
}

/// The acceptance pin: a trace replays from a purely streaming,
/// iterator-backed source — no `TraceFile` (and no record vector) ever
/// exists on the streaming path — and the result is bit-identical to
/// replaying the materialized equivalent.
#[test]
fn iterator_backed_source_replays_without_a_tracefile() {
    fn records() -> impl Iterator<Item = TraceRecord> {
        use clio_core::trace::record::IoOp;
        let open = std::iter::once(TraceRecord::simple(IoOp::Open, 0, 0, 0));
        let reads = (0..5_000u64).map(|i| {
            let offset = (i * 37) % 509 * 8192;
            TraceRecord::simple(if i % 5 == 0 { IoOp::Write } else { IoOp::Read }, 0, offset, 8192)
        });
        let close = std::iter::once(TraceRecord::simple(IoOp::Close, 0, 0, 0));
        open.chain(reads).chain(close)
    }
    let meta = SourceMeta { sample_file: "gen.dat".into(), num_processes: 1, num_files: 1 };

    let streaming = Workload::custom("generator", {
        let meta = meta.clone();
        move || Box::new(IterSource::new(meta.clone(), records()))
    });
    let streamed = Experiment::builder()
        .workload(streaming)
        .engine(Engine::SerialReplay)
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs");

    let materialized = TraceFile::build("gen.dat", 1, records().collect()).expect("valid trace");
    let reference = builder_timings(&materialized, CacheConfig::default());

    assert_eq!(streamed.records as usize, materialized.len());
    assert_eq!(
        streamed.replay.expect("replay section").timings,
        reference,
        "streaming replay diverged from materialized replay"
    );
}

#[test]
fn mixed_workloads_are_deterministic_and_conserve_records() {
    for spec in ["mix:dmine,lu", "mix:dmine*3,cholesky*1", "chain:dmine,titan"] {
        let w = Workload::parse(spec).expect("spec parses");
        let a = w.materialize().expect("materializes");
        let b = w.materialize().expect("materializes");
        assert_eq!(a.records, b.records, "{spec}: reopening must be deterministic");

        let (left, right) = match &w {
            Workload::Mix(l, r, _) | Workload::Chain(l, r) => (l.clone(), r.clone()),
            other => panic!("unexpected {other:?}"),
        };
        let nl = left.materialize().unwrap().len();
        let nr = right.materialize().unwrap().len();
        assert_eq!(a.len(), nl + nr, "{spec}: merge must conserve records");

        let report = Experiment::builder()
            .workload(w)
            .engine(Engine::SerialReplay)
            .build()
            .expect("valid experiment")
            .run()
            .expect("replay runs");
        assert_eq!(report.records as usize, nl + nr);
        assert!(report.total_ms().unwrap() > 0.0);
    }
}

#[test]
fn report_summary_serializes_and_round_trips() {
    let report = Experiment::builder()
        .workload(Workload::App(AppWorkload::DMINE_PAPER))
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs");
    let json = report.to_json();
    let back = ReportSummary::from_json(&json).expect("summary parses");
    assert_eq!(back, report.summary());
    assert_eq!(back.engine, "serial_replay");
    assert!(back.close_ms.unwrap() > back.open_ms.unwrap());
}

#[test]
fn run_many_mixed_batches_match_solo_runs_at_any_thread_count() {
    // One pool for any batch: every engine family, plus a sweep of
    // trace sims over machines, drained by 1, 2 and 8 workers.
    let synth =
        |seed: u64| Workload::Synthetic(TraceProfile { data_ops: 120, seed, ..Default::default() });
    let mut builders = vec![
        Experiment::builder().workload(synth(1)).engine(Engine::SerialReplay),
        Experiment::builder().workload(synth(2)).engine(Engine::ParallelReplay).threads(2),
        Experiment::builder().workload(synth(3)).engine(Engine::ScheduledSim),
        Experiment::builder().workload(synth(4)).engine(Engine::Serve).clients(2),
    ];
    builders.extend((1..=4).map(|disks| {
        Experiment::builder()
            .workload(synth(disks as u64))
            .engine(Engine::TraceSim)
            .machine(MachineConfig::with_disks(disks))
    }));
    let experiments: Vec<Experiment> =
        builders.into_iter().map(|b| b.build().expect("valid experiment")).collect();
    let solo: Vec<_> = experiments.iter().map(|e| e.run().expect("runs")).collect();
    for threads in [1usize, 2, 8] {
        let pooled = run_many(&experiments, threads).expect("pool runs");
        assert_eq!(pooled.len(), solo.len());
        for (p, s) in pooled.iter().zip(&solo) {
            assert_eq!(p.summary(), s.summary(), "{threads} threads");
            assert_eq!(p.sim, s.sim, "{threads} threads");
            assert_eq!(p.records, s.records);
            assert!(p.wall_ms.is_some(), "pooled runs are timed like solo runs");
        }
    }
    assert!(run_many(&[], 4).expect("an empty batch is fine").is_empty());
}

/// A four-record stream whose second record names a file outside the
/// declared one-file roster (`V02` at record 1).
fn out_of_roster_workload() -> Workload {
    Workload::custom("out-of-roster", || {
        let meta = SourceMeta { sample_file: "oor.dat".into(), num_processes: 1, num_files: 1 };
        let records = (0..4u64).map(|i| {
            let file_id = if i == 1 { 7 } else { 0 };
            TraceRecord::simple(IoOp::Read, file_id, i * 4096, 4096)
        });
        Box::new(IterSource::new(meta, records))
    })
}

#[test]
fn run_many_admits_and_quarantines_exactly_like_solo_runs() {
    // An all-TraceSim batch used to bypass `Experiment::verify`.
    let batch = |mode: VerifyMode| -> Vec<Experiment> {
        (1..=2)
            .map(|disks| {
                Experiment::builder()
                    .workload(out_of_roster_workload())
                    .engine(Engine::TraceSim)
                    .machine(MachineConfig::with_disks(disks))
                    .verify(mode)
                    .build()
                    .expect("valid experiment")
            })
            .collect()
    };
    for threads in [1usize, 2] {
        let strict = batch(VerifyMode::Strict);
        for e in &strict {
            assert!(matches!(e.run(), Err(ExpError::Verify(_))), "solo strict run rejects");
        }
        match run_many(&strict, threads) {
            Err(ExpError::Verify(v)) => assert_eq!((v.code(), v.index()), ("V02", 1)),
            other => panic!("pooled strict batch must reject at V02, got {other:?}"),
        }

        let lenient = batch(VerifyMode::Lenient);
        let pooled = run_many(&lenient, threads).expect("lenient batches run");
        for (p, e) in pooled.iter().zip(&lenient) {
            let s = e.run().expect("solo lenient run");
            assert_eq!(s.records, 3, "the out-of-roster record is quarantined");
            assert_eq!(p.records, s.records);
            assert_eq!(p.quarantine, s.quarantine);
            assert_eq!(p.quarantine.expect("lenient runs carry a ledger").quarantined, 1);
            assert_eq!(p.sim, s.sim);
            assert!(p.wall_ms.is_some());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Builder-default equivalence, per policy: for any profile, the
    /// `Experiment` run equals the canonical `replay_cached` engine
    /// bit-for-bit.
    #[test]
    fn builder_equals_canonical_for_any_profile(
        wf in 0f64..1.0,
        seq in 0f64..1.0,
        seed in any::<u64>(),
    ) {
        let profile = TraceProfile {
            seed,
            write_fraction: wf,
            sequentiality: seq,
            data_ops: 200,
            ..Default::default()
        };
        let trace = synthesize(&profile);
        let config = CacheConfig { capacity_pages: 64, ..Default::default() };
        let canonical =
            replay_cached(&mut SliceSource::new(&trace), config.clone(), ReportMode::Full)
                .expect("valid trace");
        let new = builder_timings(&trace, config);
        prop_assert_eq!(new, canonical.timings);
    }

    /// Streaming-vs-materialized equivalence: the synthesizer consumed
    /// as a stream replays identically to the synthesized trace.
    #[test]
    fn streaming_synth_equals_materialized_synth(
        wf in 0f64..1.0,
        seq in 0f64..1.0,
        seed in any::<u64>(),
    ) {
        let profile = TraceProfile {
            seed,
            write_fraction: wf,
            sequentiality: seq,
            data_ops: 200,
            ..Default::default()
        };
        let streamed = Experiment::builder()
            .workload(Workload::Synthetic(profile.clone()))
            .build()
            .expect("valid experiment")
            .run()
            .expect("replay runs");
        let materialized = builder_timings(&synthesize(&profile), CacheConfig::default());
        prop_assert_eq!(streamed.replay.expect("replay section").timings, materialized);
    }
}

#[test]
fn policy_comparison_tables_every_policy() {
    let base = Experiment::builder()
        .workload(Workload::Synthetic(TraceProfile {
            data_ops: 400,
            write_fraction: 0.25,
            sequentiality: 0.6,
            seed: 0xAB1E,
            ..Default::default()
        }))
        .cache(CacheConfig { capacity_pages: 64, ..Default::default() })
        .build()
        .expect("valid experiment");

    let summary = run_policy_comparison(&base, 2).expect("comparison runs");
    let rows = summary.policies.as_ref().expect("comparison attaches the policy table");
    assert_eq!(rows.len(), ReplacementPolicy::ALL.len(), "one row per policy");
    for (policy, row) in ReplacementPolicy::ALL.iter().zip(rows) {
        assert_eq!(row.policy, policy.name(), "rows come back in ablation order");
        assert!(row.records > 0, "{}: consumed the workload", row.policy);
        assert!(
            (0.0..=1.0).contains(&row.hit_ratio),
            "{}: hit ratio {} out of range",
            row.policy,
            row.hit_ratio
        );
        assert!(row.hits + row.misses > 0, "{}: accesses counted", row.policy);
        assert!(
            row.records_per_sec.unwrap_or(1.0) > 0.0,
            "{}: throughput must be positive when timed",
            row.policy
        );
    }
    // The anchor summary describes the base experiment's own run.
    assert_eq!(summary.engine, "serial_replay");
    assert_eq!(summary.records, rows[0].records, "anchor row is the base policy (LRU)");

    // The table survives the JSON archival round trip.
    let back = ReportSummary::from_json(&summary.to_json()).expect("summary parses back");
    assert_eq!(back, summary);
}

#[test]
fn policy_comparison_rejects_non_cache_engines() {
    let base = Experiment::builder()
        .workload(Workload::Synthetic(TraceProfile { data_ops: 8, ..Default::default() }))
        .engine(Engine::TraceSim)
        .build()
        .expect("valid experiment");
    let err = run_policy_comparison(&base, 1).unwrap_err();
    assert!(err.to_string().contains("policy comparison"), "got: {err}");
}
