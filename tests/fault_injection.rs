//! Fault-injection layer: every fault class the seeded [`FaultSource`]
//! can inject is either **caught with its specific rule code** (strict
//! admission) or **skipped with the right tally** while the surviving
//! records replay bit-identically to the clean run minus the
//! quarantined ones (lenient admission).
//!
//! Four families of pins:
//!
//! 1. **Strict detection.** Each [`FaultKind`] applied to a clean
//!    stream trips exactly the rule the verifier documents for it —
//!    bit-flip → `V02`, clock rewind/reorder → `V03`, duplicated open
//!    → `V04`, truncation → `V06` — at the exact record index, and the
//!    outcome is a pure function of the fault-plan seed.
//! 2. **Lenient equivalence.** The quarantine tallies name the fault
//!    class, and replaying the survivors is bit-identical to replaying
//!    the clean trace with the corrupted records removed.
//! 3. **Admission transparency.** A clean workload replays
//!    bit-identically whether admission is `Off`, `Strict` or
//!    `Lenient`, and every built-in workload atom (synthetic, the five
//!    app traces, mixes, chains) passes strict admission.
//! 4. **Degraded-disk plans.** A [`DiskFaultPlan`] reaches the
//!    scheduled simulator through the experiment builder: slow windows
//!    stretch the makespan, transient errors are retried and tallied,
//!    no bytes are lost, and the whole run stays deterministic.

use std::sync::Arc;

use clio_core::prelude::*;
use clio_core::trace::fault::{FaultKind, FaultPlan, FaultSource};
use clio_core::trace::record::TraceRecord;
use clio_core::trace::replay::replay_cached;
use clio_core::trace::source::{SharedSource, SliceSource, SourceMeta};
use clio_core::trace::verify::{verify_lenient, verify_strict, QuarantineSource, VerifyOptions};
use clio_core::trace::{TraceError, TraceFile};

/// A record on pid 0 / file 0 with an explicit capture clock.
fn rec(op: IoOp, clock: u64, offset: u64, length: u64) -> TraceRecord {
    let mut r = TraceRecord::simple(op, 0, offset, length);
    r.wall_clock_us = clock;
    r.proc_clock_us = clock;
    r
}

/// A clean 10-record stream: open, eight sequential reads, close.
/// Clocks tick by 1 µs so any injected rewind (≥ 10 µs) is visible.
fn clean_records() -> Vec<TraceRecord> {
    let mut v = vec![rec(IoOp::Open, 1_000_000, 0, 0)];
    for i in 0..8u64 {
        v.push(rec(IoOp::Read, 1_000_001 + i, i * 4096, 4096));
    }
    v.push(rec(IoOp::Close, 1_000_009, 0, 0));
    v
}

fn meta() -> SourceMeta {
    SourceMeta { sample_file: "fault.dat".into(), num_processes: 1, num_files: 1 }
}

/// Every fault class with the rule it must trip on `clean_records()`:
/// `(kind, inject_at, expected_code, expected_index)`.
const STRICT_CASES: [(FaultKind, u64, &str, u64); 5] = [
    // A flipped high bit pushes file 0 out of the 1-file roster.
    (FaultKind::BitFlip, 4, "V02", 4),
    // The rewound clock lands below record 3's.
    (FaultKind::ClockRewind, 4, "V03", 4),
    // Reorder emits record 5 first; record 4's clock then rewinds.
    (FaultKind::Reorder, 4, "V03", 5),
    // Duplicating the open re-opens an already-open (pid, file) pair.
    (FaultKind::Duplicate, 0, "V04", 1),
    // Truncating before the close leaves the open dangling at EOF.
    (FaultKind::Truncate, 9, "V06", 0),
];

#[test]
fn strict_mode_catches_every_fault_class_with_its_code() {
    let records = clean_records();
    for (kind, at, code, index) in STRICT_CASES {
        let plan = FaultPlan::single(7, at, kind);
        let mut faulty = FaultSource::new(SliceSource::from_parts(&records, meta()), &plan);
        let err = verify_strict(&mut faulty, VerifyOptions::default()).expect_err(kind.name());
        assert_eq!(err.code(), code, "{}", kind.name());
        assert_eq!(err.index(), index, "{}", kind.name());
    }
}

#[test]
fn fault_detection_is_reproducible_from_the_seed() {
    let records = clean_records();
    for (kind, at, code, index) in STRICT_CASES {
        let run = |seed: u64| {
            let plan = FaultPlan::single(seed, at, kind);
            let mut faulty = FaultSource::new(SliceSource::from_parts(&records, meta()), &plan);
            verify_strict(&mut faulty, VerifyOptions::default()).expect_err(kind.name())
        };
        // The same seed reproduces the identical rejection…
        assert_eq!(run(42), run(42), "{}", kind.name());
        // …and the rule code and index are properties of the fault
        // class and position, not of the seeded parameter draw.
        for seed in [1, 99, 0xDEAD] {
            let err = run(seed);
            assert_eq!((err.code(), err.index()), (code, index), "{}", kind.name());
        }
    }
}

#[test]
fn lenient_replay_is_bit_identical_to_clean_minus_quarantined() {
    let records = clean_records();
    let config = CacheConfig::default();
    // (kind, inject_at, surviving record indices, expected tally picker)
    type Case = (FaultKind, u64, Vec<usize>, fn(&clio_core::trace::ViolationCounts) -> u64);
    let cases: [Case; 5] = [
        (FaultKind::BitFlip, 4, (0..10).filter(|i| *i != 4).collect(), |v| v.file_out_of_range),
        (FaultKind::ClockRewind, 4, (0..10).filter(|i| *i != 4).collect(), |v| v.clock_rewind),
        // Reorder swaps records 4 and 5; the late-emitted record 4 is
        // quarantined, so the survivors are exactly clean-minus-4.
        (FaultKind::Reorder, 4, (0..10).filter(|i| *i != 4).collect(), |v| v.clock_rewind),
        // The duplicate is quarantined; the survivors ARE the clean run.
        (FaultKind::Duplicate, 0, (0..10).collect(), |v| v.reopened_file),
        // Truncation quarantines nothing — the stream just ends early
        // and the dangling open is tallied at stream level.
        (FaultKind::Truncate, 9, (0..9).collect(), |v| v.unclosed_at_eof),
    ];
    for (kind, at, survivors, tally) in cases {
        let plan = FaultPlan::single(11, at, kind);
        let faulty = || FaultSource::new(SliceSource::from_parts(&records, meta()), &plan);

        let ledger = verify_lenient(&mut faulty(), VerifyOptions::default());
        assert_eq!(tally(&ledger.violations), 1, "{}", kind.name());
        assert_eq!(ledger.violations.total(), 1, "{}", kind.name());
        assert_eq!(ledger.admitted, survivors.len() as u64, "{}", kind.name());

        let survived =
            replay_cached(&mut QuarantineSource::new(faulty()), config.clone(), ReportMode::Full)
                .expect("quarantine keeps the stream inside its roster");
        let reference: Vec<TraceRecord> = survivors.iter().map(|&i| records[i]).collect();
        let expected = replay_cached(
            &mut SliceSource::from_parts(&reference, meta()),
            config.clone(),
            ReportMode::Full,
        )
        .expect("the survivors stay inside their roster");
        assert_eq!(survived.timings, expected.timings, "{}", kind.name());
    }
}

#[test]
fn verified_clean_replay_is_bit_identical_to_unverified() {
    let profile = TraceProfile {
        data_ops: 400,
        write_fraction: 0.25,
        sequentiality: 0.6,
        ..Default::default()
    };
    let run = |engine: Engine, mode: VerifyMode| {
        Experiment::builder()
            .workload(Workload::Synthetic(profile.clone()))
            .engine(engine)
            .verify(mode)
            .build()
            .expect("valid experiment")
            .run()
            .expect("clean workloads pass admission")
    };
    // Replay engine: per-record timings must not move by a bit.
    let timings = |r: &Report| r.replay.as_ref().expect("full-mode replay").timings.clone();
    let off = run(Engine::SerialReplay, VerifyMode::Off);
    let strict = run(Engine::SerialReplay, VerifyMode::Strict);
    let lenient = run(Engine::SerialReplay, VerifyMode::Lenient);
    assert_eq!(timings(&strict), timings(&off));
    assert_eq!(timings(&lenient), timings(&off));
    // Sim engine: the whole simulation outcome must match too.
    let sim_off = run(Engine::TraceSim, VerifyMode::Off);
    let sim_strict = run(Engine::TraceSim, VerifyMode::Strict);
    assert_eq!(sim_strict.sim, sim_off.sim);
    // The ledger reports a clean pass — and only lenient runs carry one.
    let q = lenient.quarantine.expect("lenient runs carry the ledger");
    assert_eq!(q.quarantined, 0);
    assert_eq!(q.violations.total(), 0);
    assert!(off.quarantine.is_none());
    assert!(strict.quarantine.is_none());
}

#[test]
fn strict_admission_rejects_a_corrupt_workload_through_the_builder() {
    // A clock rewind survives TraceFile::build (the structure is fine)
    // but must not survive admission.
    let mut records = clean_records();
    records[5].wall_clock_us = 0;
    records[5].proc_clock_us = 0;
    let trace = TraceFile::build("fault.dat", 1, records).expect("structurally valid");
    let err = Experiment::builder()
        .workload(Workload::trace(trace))
        .engine(Engine::SerialReplay)
        .verify(VerifyMode::Strict)
        .build()
        .expect("admission is a run-time gate, not a build-time one")
        .run()
        .expect_err("strict admission must reject the rewind");
    match err {
        ExpError::Verify(v) => {
            assert_eq!(v.code(), "V03");
            assert_eq!(v.index(), 5);
        }
        other => panic!("expected ExpError::Verify, got {other:?}"),
    }
}

#[test]
fn unverified_out_of_roster_record_fails_every_replay_engine_with_an_error() {
    // With admission off nothing vets the flipped file id before the
    // engine meets it; the replay drivers themselves must refuse it
    // with an error naming the record — not an out-of-bounds panic.
    let trace = Arc::new(TraceFile::build("fault.dat", 1, clean_records()).expect("clean"));
    let plan = FaultPlan::single(3, 4, FaultKind::BitFlip);
    let workload = Workload::custom("bitflipped", move || {
        Box::new(FaultSource::new(SharedSource::new(trace.clone()), &plan))
    });
    let dir = std::env::temp_dir().join(format!("clio-roster-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sample = dir.join("sample.dat");
    std::fs::write(&sample, vec![7u8; 64 * 1024]).expect("sample file");

    for engine in [Engine::SerialReplay, Engine::ParallelReplay, Engine::RealReplay { sample }] {
        for mode in [ReportMode::Full, ReportMode::Summary] {
            let err = Experiment::builder()
                .workload(workload.clone())
                .engine(engine.clone())
                .verify(VerifyMode::Off)
                .report_mode(mode)
                .build()
                .expect("valid experiment")
                .run()
                .expect_err("the flipped file id must fail the run");
            match err {
                ExpError::Trace(TraceError::FileIdOutOfRange {
                    index: 4, num_files: 1, ..
                }) => {}
                other => panic!("{engine:?}/{mode:?}: expected the roster error, got {other:?}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn lenient_quarantine_ledger_survives_summary_serialization() {
    let trace = Arc::new(TraceFile::build("fault.dat", 1, clean_records()).expect("clean"));
    let plan = FaultPlan::single(3, 4, FaultKind::BitFlip);
    let workload = Workload::custom("bitflipped", move || {
        Box::new(FaultSource::new(SharedSource::new(trace.clone()), &plan))
    });
    let report = Experiment::builder()
        .workload(workload)
        .engine(Engine::SerialReplay)
        .verify(VerifyMode::Lenient)
        .build()
        .expect("valid experiment")
        .run()
        .expect("lenient admission never fails the run");
    let q = report.quarantine.expect("lenient runs carry the ledger");
    assert_eq!(q.examined, 10);
    assert_eq!(q.admitted, 9);
    assert_eq!(q.quarantined, 1);
    assert_eq!(q.violations.file_out_of_range, 1);
    assert_eq!(report.replay.as_ref().expect("full mode").timings.len(), 9);
    // The ledger must survive the serialized summary round trip.
    let summary = report.summary();
    let back = ReportSummary::from_json(&summary.to_json()).expect("summary round-trips");
    let bq = back.quarantine.expect("quarantine survives JSON");
    assert_eq!(bq.quarantined, 1);
    assert_eq!(bq.violations.file_out_of_range, 1);
}

#[test]
fn every_built_in_workload_passes_strict_admission() {
    let specs = [
        "synth",
        "seq",
        "rand",
        "dmine",
        "titan",
        "lu",
        "cholesky",
        "pgrep",
        "mix:dmine,lu",
        "mix:seq*3,rand*1",
        "chain:seq,rand",
    ];
    for spec in specs {
        let workload = Workload::parse(spec).expect("parseable");
        let report = workload
            .verify(VerifyMode::Strict)
            .unwrap_or_else(|e| panic!("{spec}: strict admission failed: {e}"))
            .expect("strict mode yields a report");
        assert_eq!(report.quarantined, 0, "{spec}");
        assert!(report.admitted > 0, "{spec}");
        assert_eq!(report.admitted, report.records, "{spec}");
    }
}

#[test]
fn degraded_disk_plan_flows_through_the_builder() {
    let run = |faults: DiskFaultPlan| {
        Experiment::builder()
            .workload(Workload::parse("seq").expect("parseable"))
            .engine(Engine::ScheduledSim)
            .disk_faults(faults)
            .build()
            .expect("valid experiment")
            .run()
            .expect("scheduled sim runs")
    };
    let degraded_plan = || DiskFaultPlan {
        slow_windows: vec![SlowWindow { start_s: 0.0, end_s: f64::INFINITY, multiplier: 3.0 }],
        error_every: 7,
        max_retries: 2,
        retry_backoff_s: 1e-3,
    };
    let quiet = run(DiskFaultPlan::default()).sim.expect("sim report");
    let degraded = run(degraded_plan()).sim.expect("sim report");
    // Quiet plans tally nothing.
    assert_eq!(quiet.retries, 0);
    assert_eq!(quiet.dropped_requests, 0);
    // The degraded disk retries transients within budget, drops
    // nothing, moves every byte — it just takes longer.
    assert!(degraded.retries > 0, "transient errors must be injected and retried");
    assert_eq!(degraded.dropped_requests, 0);
    assert_eq!(degraded.bytes_moved, quiet.bytes_moved);
    assert!(degraded.makespan > quiet.makespan);
    // And the whole degraded run is deterministic.
    assert_eq!(run(degraded_plan()).sim.expect("sim report"), degraded);
}
