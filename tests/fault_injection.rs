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
//! 5. **All-or-nothing one-pass ingest.** Every engine admits its
//!    input *while* it runs (a v2 file block by block), so a fault can
//!    surface after earlier blocks went through the engine. Whatever
//!    the fault and wherever it sits — first block, last block, last
//!    record, footer — `run()` returns a coded error, never a report
//!    over a prefix; and a failure parked in a source reaches the
//!    caller through every wrapper, combinator and engine.

use std::sync::Arc;

use clio_core::prelude::*;
use clio_core::trace::compact::encode::encode_source_with_blocks;
use clio_core::trace::compact::{load_auto, CompactSource};
use clio_core::trace::fault::{FaultKind, FaultPlan, FaultSource};
use clio_core::trace::record::TraceRecord;
use clio_core::trace::replay::{replay_cached, RealReplayOptions};
use clio_core::trace::source::{
    ChainSource, FileNamespace, SharedSource, SliceSource, SourceMeta, TraceSource, WeightedSource,
};
use clio_core::trace::verify::{
    verify_lenient, verify_strict, QuarantineSource, StrictSource, VerifyOptions,
};
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

    let engines = [
        Engine::SerialReplay,
        Engine::ParallelReplay,
        Engine::RealReplay { sample },
        Engine::Serve,
    ];
    for engine in engines {
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
fn a_giant_span_is_a_coded_error_before_any_cache_walks_it() {
    // open / read / close where the read spans 2^62 bytes, or 1 MiB
    // repeated u32::MAX times: both fit `V08` (offset + length x
    // repeats stays inside u64), and a cache walking either would visit
    // ~2^50 pages. Strict admission rejects them as `V10`; unverified,
    // every cache-driving engine refuses them with the coded
    // `TraceError` before its cache sees the record.
    let giants = [(1u64 << 62, 1u32), (1 << 20, u32::MAX)];
    let dir = std::env::temp_dir().join(format!("clio-span-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sample = dir.join("sample.dat");
    std::fs::write(&sample, vec![7u8; 64 * 1024]).expect("sample file");
    let engines = [
        Engine::SerialReplay,
        Engine::ParallelReplay,
        Engine::Serve,
        Engine::RealReplay { sample },
    ];

    for (length, num_records) in giants {
        let mut read = rec(IoOp::Read, 2, 0, length);
        read.num_records = num_records;
        let records = vec![rec(IoOp::Open, 1, 0, 0), read, rec(IoOp::Close, 3, 0, 0)];
        let trace =
            Arc::new(TraceFile::build("giant.dat", 1, records).expect("structurally valid"));
        let workload =
            Workload::custom("giant", move || Box::new(SharedSource::new(trace.clone())));
        for engine in engines.clone() {
            for verify in [VerifyMode::Strict, VerifyMode::Off] {
                let experiment = Experiment::builder()
                    .workload(workload.clone())
                    .engine(engine.clone())
                    .verify(verify)
                    .build()
                    .expect("valid experiment");
                let started = std::time::Instant::now();
                let err = experiment.run().expect_err("the giant span must fail the run");
                let took = started.elapsed();
                let case = format!("{engine:?}/{verify:?}, {length} B x {num_records}");
                match (verify, err) {
                    (VerifyMode::Strict, ExpError::Verify(v)) => {
                        assert_eq!((v.code(), v.index()), ("V10", 1), "{case}");
                    }
                    (
                        VerifyMode::Off,
                        ExpError::Trace(TraceError::SpanTooLong {
                            index: 1,
                            length: l,
                            num_records: n,
                        }),
                    ) => assert_eq!((l, n), (length, num_records), "{case}"),
                    (_, other) => panic!("{case}: expected the coded span error, got {other:?}"),
                }
                // A walk would take hours; refusing takes microseconds
                // (generous here, for a loaded CI host).
                assert!(took.as_millis() < 1000, "{case}: {took:?}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_huge_repeat_count_is_a_coded_error_before_any_replay_repeats_it() {
    // A close, or a zero-length read, repeated u32::MAX times spans no
    // bytes, so `V10` lets it through; a replay performing every repeat
    // would take minutes (the read) or hours (the close walks every
    // resident page each time). Strict admission rejects it as
    // `V11`; unverified, every cache-driving engine refuses it with the
    // coded `TraceError` before its cache sees the record.
    let dir = std::env::temp_dir().join(format!("clio-repeats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sample = dir.join("sample.dat");
    std::fs::write(&sample, vec![7u8; 64 * 1024]).expect("sample file");
    let engines = [
        Engine::SerialReplay,
        Engine::ParallelReplay,
        Engine::Serve,
        Engine::RealReplay { sample },
    ];

    let mut close = rec(IoOp::Close, 2, 0, 0);
    close.num_records = u32::MAX;
    let mut empty_read = rec(IoOp::Read, 2, 0, 0);
    empty_read.num_records = u32::MAX;
    let inputs = [
        ("close", vec![rec(IoOp::Open, 1, 0, 0), close]),
        ("zero-length read", vec![rec(IoOp::Open, 1, 0, 0), empty_read, rec(IoOp::Close, 3, 0, 0)]),
    ];
    for (name, records) in inputs {
        let trace =
            Arc::new(TraceFile::build("repeats.dat", 1, records).expect("structurally valid"));
        let workload =
            Workload::custom("repeats", move || Box::new(SharedSource::new(trace.clone())));
        for engine in engines.clone() {
            for verify in [VerifyMode::Strict, VerifyMode::Off] {
                let experiment = Experiment::builder()
                    .workload(workload.clone())
                    .engine(engine.clone())
                    .verify(verify)
                    .build()
                    .expect("valid experiment");
                let started = std::time::Instant::now();
                let err = experiment.run().expect_err("the repeat count must fail the run");
                let took = started.elapsed();
                let case = format!("{engine:?}/{verify:?}, {name} x u32::MAX");
                match (verify, err) {
                    (VerifyMode::Strict, ExpError::Verify(v)) => {
                        assert_eq!((v.code(), v.index()), ("V11", 1), "{case}");
                    }
                    (
                        VerifyMode::Off,
                        ExpError::Trace(TraceError::TooManyRepeats { index: 1, num_records }),
                    ) => assert_eq!(num_records, u32::MAX, "{case}"),
                    (_, other) => panic!("{case}: expected the coded repeat error, got {other:?}"),
                }
                // Refusing takes microseconds (generous here, for a
                // loaded CI host).
                assert!(took.as_millis() < 1000, "{case}: {took:?}");
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

/// A scratch directory for the ingest corpora.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("clio-fault-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `trace` as a v2 container of 16-record blocks: a few hundred bytes
/// that still have a first, a middle and a last block.
fn small_block_v2(trace: &TraceFile) -> Vec<u8> {
    let bytes = encode_source_with_blocks(&mut SliceSource::new(trace), 16).expect("encodes");
    let blocks = CompactSource::from_bytes(bytes.clone()).expect("clean").block_count();
    assert!(blocks >= 3, "need first, middle and last blocks, got {blocks}");
    bytes
}

/// One-pass serial replay of the v2 file at `path` (a small cache: the
/// corpora run this thousands of times).
fn ingest(path: &std::path::Path, verify: VerifyMode) -> Result<Report, ExpError> {
    Experiment::builder()
        .workload(Workload::File(path.to_path_buf()))
        .engine(Engine::SerialReplay)
        .verify(verify)
        .cache(CacheConfig { capacity_pages: 64, ..Default::default() })
        .build()
        .expect("valid experiment")
        .run()
}

/// The container corpora through the one-pass path: every single-bit
/// flip (two bits per byte) at every position of a multi-block file,
/// every truncation, and the file concatenated with itself. The oracle
/// is whole-file admission of the same bytes: where it rejects, the
/// one-pass run must return a coded trace error — although it replayed
/// every block before the fault — and where a flip lands in an advisory
/// field and the file is still admissible, the run must cover the
/// *whole* stream and agree with a replay of the loaded trace.
#[test]
fn one_pass_ingest_never_reports_over_a_corrupt_or_cut_file() {
    let trace =
        clio_core::trace::synth::synthesize(&TraceProfile { data_ops: 40, ..Default::default() });
    let clean = small_block_v2(&trace);
    let dir = temp_dir("corpus");
    let path = dir.join("corpus.clc2");

    let mut variants: Vec<(String, Vec<u8>)> = Vec::new();
    for at in 0..clean.len() {
        for bit in [0x01u8, 0x80] {
            let mut flipped = clean.clone();
            flipped[at] ^= bit;
            variants.push((format!("flip {bit:#04x} at byte {at}"), flipped));
        }
    }
    variants.extend((0..clean.len()).map(|cut| (format!("cut at {cut}"), clean[..cut].to_vec())));
    variants.push(("doubled".into(), [clean.clone(), clean.clone()].concat()));

    let (mut rejected, mut admitted) = (0usize, 0usize);
    for (what, bytes) in &variants {
        std::fs::write(&path, bytes).expect("writes");
        let oracle = load_auto(&path);
        for verify in [VerifyMode::Off, VerifyMode::Strict, VerifyMode::Lenient] {
            match (&oracle, ingest(&path, verify)) {
                (Err(_), Err(ExpError::Trace(_))) => rejected += 1,
                (Ok(loaded), Ok(report)) => {
                    admitted += 1;
                    assert_eq!(report.records, loaded.len() as u64, "{what}: a prefix got through");
                }
                (oracle, outcome) => panic!(
                    "{what} under {verify:?}: whole-file admission says {:?}, one-pass run says {:?}",
                    oracle.as_ref().map(|t| t.len()),
                    outcome.map(|r| r.records),
                ),
            }
        }
    }
    assert!(rejected > admitted, "the corpus is mostly rejections: {rejected} vs {admitted}");
    assert!(admitted > 0, "some flips land in advisory fields and must replay whole");
    // The named shapes keep their codes.
    std::fs::write(&path, [clean.clone(), clean.clone()].concat()).expect("writes");
    assert!(matches!(
        ingest(&path, VerifyMode::Strict),
        Err(ExpError::Trace(TraceError::TrailingBytes { extra })) if extra == clean.len()
    ));
    std::fs::write(&path, &clean[..clean.len() - 5]).expect("writes");
    assert!(matches!(
        ingest(&path, VerifyMode::Off),
        Err(ExpError::Trace(TraceError::Truncated { .. }))
    ));
    let _ = std::fs::remove_dir_all(dir);
}

/// A `V`-violation planted past the first block — and one in the very
/// last block — fails a strict one-pass run with its rule code and
/// *global* record index, although every earlier block was replayed by
/// then; lenient quarantines exactly that record; and with two faults
/// in one file the error is the one the stream meets first, whichever
/// kind it is.
#[test]
fn one_pass_ingest_reports_the_first_fault_in_stream_order() {
    let base =
        clio_core::trace::synth::synthesize(&TraceProfile { data_ops: 60, ..Default::default() });
    let dir = temp_dir("order");
    let path = dir.join("order.clc2");
    let last = base.len() - 2; // the record before the final close
    for at in [20usize, last] {
        let mut trace = base.clone();
        trace.records[at].num_records = 0; // V07, invisible to the container checks
        std::fs::write(&path, small_block_v2(&trace)).expect("writes");
        assert!(at >= 16, "the fault sits past the first block");
        match ingest(&path, VerifyMode::Strict) {
            Err(ExpError::Verify(v)) => assert_eq!((v.code(), v.index()), ("V07", at as u64)),
            other => panic!("record {at}: expected V07, got {other:?}"),
        }
        let lenient = ingest(&path, VerifyMode::Lenient).expect("lenient quarantines");
        assert_eq!(lenient.records, trace.len() as u64 - 1);
        let ledger = lenient.quarantine.expect("ledger");
        assert_eq!((ledger.examined, ledger.quarantined), (trace.len() as u64, 1));
        assert_eq!(ledger.violations.zero_repeat, 1);
    }

    // Two faults: V07 in block 1, a flipped payload byte in the last
    // block. The stream meets the V07 first.
    let mut trace = base.clone();
    trace.records[20].num_records = 0;
    let mut bytes = small_block_v2(&trace);
    let source = CompactSource::from_bytes(bytes.clone()).expect("clean container");
    let last_block = source.block_count() - 1;
    let in_last_payload = source.block_index()[last_block].offset as usize + 1 + 40 + 2;
    bytes[in_last_payload] ^= 0x10;
    std::fs::write(&path, &bytes).expect("writes");
    assert!(
        matches!(ingest(&path, VerifyMode::Strict), Err(ExpError::Verify(v)) if v.index() == 20)
    );
    // Without the verifier in the way the container fault is the first
    // (and only) one met, and it names the last block...
    match ingest(&path, VerifyMode::Off) {
        Err(ExpError::Trace(TraceError::ChecksumMismatch { block, .. })) => {
            assert_eq!(block, last_block as u64)
        }
        other => panic!("expected the last block's checksum mismatch, got {other:?}"),
    }
    // ...and a simulator, which admits its one stream while it runs just
    // as serial replay does, meets the V07 first too.
    let simulated = Experiment::builder()
        .workload(Workload::File(path.clone()))
        .engine(Engine::TraceSim)
        .verify(VerifyMode::Strict)
        .build()
        .expect("valid experiment")
        .run();
    assert!(matches!(simulated, Err(ExpError::Verify(v)) if (v.code(), v.index()) == ("V07", 20)));

    // The other order: the payload flip in block 0, the V07 after it.
    let mut bytes = small_block_v2(&trace);
    let in_first_payload = source.block_index()[0].offset as usize + 1 + 40 + 2;
    bytes[in_first_payload] ^= 0x10;
    std::fs::write(&path, &bytes).expect("writes");
    for verify in [VerifyMode::Off, VerifyMode::Strict, VerifyMode::Lenient] {
        assert!(
            matches!(
                ingest(&path, verify),
                Err(ExpError::Trace(TraceError::ChecksumMismatch { block: 0, .. }))
            ),
            "{verify:?}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A source that yields `left` clean records and then ends *because it
/// failed* — the shape of a lazily admitted file with a bad block.
struct FailingSource {
    left: u64,
    next_offset: u64,
    failure: Option<TraceError>,
}

impl FailingSource {
    const BLOCK: u64 = 77;

    fn after(records: u64) -> Self {
        let failure = TraceError::CorruptBlock { block: Self::BLOCK, context: "planted" };
        Self { left: records, next_offset: 0, failure: Some(failure) }
    }
}

impl TraceSource for FailingSource {
    fn meta(&self) -> SourceMeta {
        meta()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        self.left = self.left.checked_sub(1)?;
        self.next_offset += 4096;
        Some(rec(IoOp::Read, 1_000_000, self.next_offset, 4096))
    }

    fn take_failure(&mut self) -> Option<TraceError> {
        if self.left == 0 {
            self.failure.take()
        } else {
            None
        }
    }
}

/// One failure channel: whatever a failing source is wrapped in, the
/// failure it parked comes out of the outermost `take_failure` once the
/// stream is drained — exactly once, with its code intact.
#[test]
fn a_parked_failure_surfaces_through_every_wrapper_and_combinator() {
    let records = clean_records();
    let clean = || SliceSource::from_parts(&records, meta());
    let failing = || FailingSource::after(5);
    let options = VerifyOptions { check_clocks: false, ..Default::default() };
    fn weighted<A: TraceSource, B: TraceSource>(a: A, b: B) -> WeightedSource<A, B> {
        WeightedSource::new(a, b, 2, 1, FileNamespace::Disjoint)
    }
    let mut by_ref = failing();
    let wrapped: Vec<(&str, Box<dyn TraceSource + '_>, usize)> = vec![
        ("bare", Box::new(failing()), 5),
        ("Box<dyn>", Box::new(Box::new(failing()) as Box<dyn TraceSource>), 5),
        ("&mut", Box::new(&mut by_ref), 5),
        ("chain, first", Box::new(ChainSource::new(failing(), clean())), 15),
        ("chain, second", Box::new(ChainSource::new(clean(), failing())), 15),
        ("weighted, first", Box::new(weighted(failing(), clean())), 15),
        ("weighted, second", Box::new(weighted(clean(), failing())), 15),
        ("quarantine", Box::new(QuarantineSource::with_options(failing(), options)), 5),
        ("strict", Box::new(StrictSource::with_options(failing(), options)), 5),
        ("fault", Box::new(FaultSource::new(failing(), &FaultPlan { seed: 1, faults: vec![] })), 5),
        (
            "strict over a boxed chain",
            Box::new(StrictSource::with_options(
                Box::new(ChainSource::new(Box::new(failing()) as Box<dyn TraceSource>, clean())),
                options,
            )),
            15,
        ),
    ];
    for (what, mut source, yields) in wrapped {
        assert!(source.take_failure().is_none(), "{what}: no failure before the stream ends");
        assert_eq!(std::iter::from_fn(|| source.next_record()).count(), yields, "{what}");
        match source.take_failure() {
            Some(TraceError::CorruptBlock { block: FailingSource::BLOCK, context: "planted" }) => {}
            other => panic!("{what}: the planted failure did not surface, got {other:?}"),
        }
        assert!(source.take_failure().is_none(), "{what}: a failure is taken once");
    }

    // Collecting a stream that failed is an error, not a short trace.
    assert!(matches!(
        clio_core::trace::source::materialize(&mut FailingSource::after(5)),
        Err(TraceError::CorruptBlock { block: FailingSource::BLOCK, .. })
    ));

    // A stand-alone admission pass over it is no verdict either.
    let workload = Workload::custom("failing", || Box::new(FailingSource::after(5)));
    for verify in [VerifyMode::Strict, VerifyMode::Lenient] {
        let verdict = workload.verify(verify);
        assert!(
            matches!(verdict, Err(ExpError::Trace(TraceError::CorruptBlock { .. }))),
            "{verify:?}: {verdict:?}"
        );
    }

    // And at the run() boundary: the run over the five records that did
    // arrive is dropped, whatever the engine, in every admission mode.
    let dir = temp_dir("failing");
    for engine in every_engine(&dir) {
        for verify in [VerifyMode::Off, VerifyMode::Strict, VerifyMode::Lenient] {
            let outcome = Experiment::builder()
                .workload(workload.clone())
                .engine(engine.clone())
                .verify(verify)
                .build()
                .expect("valid experiment")
                .run();
            assert!(
                matches!(
                    outcome,
                    Err(ExpError::Trace(TraceError::CorruptBlock {
                        block: FailingSource::BLOCK,
                        ..
                    }))
                ),
                "{engine:?}/{verify:?}: {:?}",
                outcome.map(|r| r.records)
            );
        }
    }
    // Serve clients cut off by their request budget read on to the end
    // of their streams when admission is on, so the failure past the
    // cut is still met.
    for verify in [VerifyMode::Strict, VerifyMode::Lenient] {
        let outcome = Experiment::builder()
            .workload(workload.clone())
            .engine(Engine::Serve)
            .clients(2)
            .requests_per_client(2)
            .verify(verify)
            .build()
            .expect("valid experiment")
            .run();
        assert!(
            matches!(outcome, Err(ExpError::Trace(TraceError::CorruptBlock { .. }))),
            "{verify:?}: {:?}",
            outcome.map(|r| r.records)
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// All six engines; real replay reads a small sample file in `dir`.
fn every_engine(dir: &std::path::Path) -> [Engine; 6] {
    let sample = dir.join("sample.dat");
    std::fs::write(&sample, vec![7u8; 64 * 1024]).expect("sample file");
    [
        Engine::SerialReplay,
        Engine::ParallelReplay,
        Engine::TraceSim,
        Engine::ScheduledSim,
        Engine::Serve,
        Engine::RealReplay { sample },
    ]
}

/// A fault in the last record or the last block of a v2 file is met
/// after every earlier block went through the engine: no engine may
/// return a `Report` over the prefix. A `V07` in the last record fails
/// every strict run with its code and index; a flipped payload byte in
/// the last block fails every run, in every mode, with that block's
/// checksum mismatch.
#[test]
fn a_late_fault_in_a_v2_file_fails_every_engine() {
    let base =
        clio_core::trace::synth::synthesize(&TraceProfile { data_ops: 60, ..Default::default() });
    let dir = temp_dir("late");
    let path = dir.join("late.clc2");
    let run = |engine: &Engine, verify: VerifyMode| {
        Experiment::builder()
            .workload(Workload::File(path.clone()))
            .engine(engine.clone())
            .verify(verify)
            .cache(CacheConfig { capacity_pages: 64, ..Default::default() })
            .build()
            .expect("valid experiment")
            .run()
    };

    let mut trace = base.clone();
    let last = trace.len() - 1;
    trace.records[last].num_records = 0;
    std::fs::write(&path, small_block_v2(&trace)).expect("writes");
    for engine in every_engine(&dir) {
        match run(&engine, VerifyMode::Strict) {
            Err(ExpError::Verify(v)) => {
                assert_eq!((v.code(), v.index()), ("V07", last as u64), "{engine:?}")
            }
            other => {
                panic!("{engine:?}: expected V07 at {last}, got {:?}", other.map(|r| r.records))
            }
        }
    }

    // `trace` as a v2 file with a flipped payload byte in its last block.
    let write_flipped = |trace: &TraceFile| {
        let mut bytes = small_block_v2(trace);
        let source = CompactSource::from_bytes(bytes.clone()).expect("clean container");
        let last_block = source.block_count() - 1;
        bytes[source.block_index()[last_block].offset as usize + 1 + 40 + 2] ^= 0x10;
        std::fs::write(&path, &bytes).expect("writes");
        last_block
    };
    let last_block = write_flipped(&base);
    for engine in every_engine(&dir) {
        for verify in [VerifyMode::Off, VerifyMode::Strict, VerifyMode::Lenient] {
            match run(&engine, verify) {
                Err(ExpError::Trace(TraceError::ChecksumMismatch { block, .. })) => {
                    assert_eq!(block, last_block as u64, "{engine:?}/{verify:?}")
                }
                other => panic!(
                    "{engine:?}/{verify:?}: expected the last block's checksum mismatch, got {:?}",
                    other.map(|r| r.records)
                ),
            }
        }
    }

    // Real replay acts outside the report: even with writes allowed and
    // admission off, the bad block fails the run before any record
    // reaches the sample file.
    let writes = TraceProfile { data_ops: 60, write_fraction: 0.5, ..Default::default() };
    let writes = clio_core::trace::synth::synthesize(&writes);
    assert!(writes.records[..16].iter().any(|r| r.op == IoOp::Write), "the first block writes");
    write_flipped(&writes);
    let sample = dir.join("sample.dat");
    let before = std::fs::read(&sample).expect("sample file");
    for verify in [VerifyMode::Off, VerifyMode::Strict, VerifyMode::Lenient] {
        let written = Experiment::builder()
            .workload(Workload::File(path.clone()))
            .engine(Engine::RealReplay { sample: sample.clone() })
            .real_options(RealReplayOptions { allow_writes: true, ..Default::default() })
            .verify(verify)
            .build()
            .expect("valid experiment")
            .run();
        assert!(
            matches!(written, Err(ExpError::Trace(TraceError::ChecksumMismatch { .. }))),
            "{verify:?}: {:?}",
            written.map(|r| r.records)
        );
        assert!(std::fs::read(&sample).expect("sample file") == before, "{verify:?} wrote");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Lenient serve gives each client its own stream, as `Off` and
/// `Strict` do: on a clean input all three modes report the same run,
/// and the ledger counts every client's stream.
#[test]
fn lenient_serve_on_a_clean_input_equals_the_unverified_run() {
    let profile = TraceProfile { data_ops: 300, ..Default::default() };
    let run = |verify: VerifyMode| {
        Experiment::builder()
            .workload(Workload::Synthetic(profile.clone()))
            .engine(Engine::Serve)
            .clients(4)
            .verify(verify)
            .build()
            .expect("valid experiment")
            .run()
            .expect("a clean input passes admission")
    };
    let off = run(VerifyMode::Off);
    for verify in [VerifyMode::Strict, VerifyMode::Lenient] {
        let admitted = run(verify);
        assert_eq!(admitted.serve, off.serve, "{verify:?}");
        assert_eq!(admitted.serve_latencies, off.serve_latencies, "{verify:?}");
        assert_eq!(admitted.cache_metrics, off.cache_metrics, "{verify:?}");
        assert_eq!(admitted.records, off.records, "{verify:?}");
    }
    let ledger = run(VerifyMode::Lenient).quarantine.expect("lenient runs carry the ledger");
    assert_eq!(
        (ledger.examined, ledger.admitted, ledger.quarantined),
        (off.records, off.records, 0)
    );
}

/// The engines that read one stream open the workload once and pull
/// each record once, whatever the admission mode: no pre-pass
/// generates the input a second time, and parallel replay hands its
/// workers the records its calling thread read.
#[test]
fn single_stream_engines_open_and_generate_their_input_once() {
    use clio_core::trace::source::IterSource;
    use clio_core::trace::synth::SynthSource;
    use std::sync::atomic::{AtomicU64, Ordering};

    let opens = Arc::new(AtomicU64::new(0));
    let pulls = Arc::new(AtomicU64::new(0));
    let (o, p) = (opens.clone(), pulls.clone());
    let workload = Workload::custom("counted", move || {
        o.fetch_add(1, Ordering::SeqCst);
        let profile = TraceProfile { data_ops: 200, ..Default::default() };
        let mut synth = SynthSource::new(profile).expect("valid profile");
        let (meta, p) = (synth.meta(), p.clone());
        Box::new(IterSource::new(
            meta,
            std::iter::from_fn(move || {
                let r = synth.next_record()?;
                p.fetch_add(1, Ordering::SeqCst);
                Some(r)
            }),
        ))
    });
    let engines = [
        (Engine::TraceSim, 1),
        (Engine::ScheduledSim, 1),
        (Engine::SerialReplay, 1),
        (Engine::ParallelReplay, 1),
        (Engine::ParallelReplay, 2),
    ];
    for (engine, threads) in engines {
        for verify in [VerifyMode::Off, VerifyMode::Strict, VerifyMode::Lenient] {
            opens.store(0, Ordering::SeqCst);
            pulls.store(0, Ordering::SeqCst);
            let report = Experiment::builder()
                .workload(workload.clone())
                .engine(engine.clone())
                .threads(threads)
                .shards(4)
                .verify(verify)
                .build()
                .expect("valid experiment")
                .run()
                .expect("a clean input passes admission");
            let run = format!("{engine:?} x{threads}/{verify:?}");
            assert_eq!(opens.load(Ordering::SeqCst), 1, "{run}: opens");
            assert_eq!(pulls.load(Ordering::SeqCst), report.records, "{run}: pulls");
        }
    }
}

/// A v2 file of `data_ops` synthetic operations, several reader chunks
/// long, with `plan`'s faults encoded into it: 300-record blocks, so
/// block and chunk boundaries fall at different records.
fn faulted_v2(dir: &std::path::Path, data_ops: usize, plan: &FaultPlan) -> std::path::PathBuf {
    let trace = clio_core::trace::synth::synthesize(&TraceProfile {
        data_ops,
        write_fraction: 0.25,
        sequentiality: 0.6,
        ..Default::default()
    });
    let mut faulted = FaultSource::new(SliceSource::new(&trace), plan);
    let path = dir.join("input.clc2");
    std::fs::write(&path, encode_source_with_blocks(&mut faulted, 300).expect("encodes"))
        .expect("writes");
    path
}

/// An admitting serial replay reads, decodes and verifies its input on
/// a reader thread beside the cache. Over a clean v2 file of several
/// chunks it reports what the unverified run does, to the byte of its
/// summary and the bit of every per-record timing. Over a faulted one
/// its verdict is the stand-alone admission pass's: the lenient ledger
/// equals `Workload::verify(Lenient)`'s, and a strict run fails with
/// the error `Workload::verify(Strict)` names.
#[test]
fn a_serial_ingest_admitted_on_a_reader_thread_keeps_the_run_and_the_verdict() {
    use clio_core::trace::fault::FaultSpec;
    let dir = temp_dir("read-ahead");
    let clean = Workload::File(faulted_v2(&dir, 5_000, &FaultPlan::default()));
    let run = |workload: &Workload, verify: VerifyMode| {
        Experiment::builder()
            .workload(workload.clone())
            .engine(Engine::SerialReplay)
            .verify(verify)
            .build()
            .expect("valid experiment")
            .run()
    };
    let off = run(&clean, VerifyMode::Off).expect("a clean file replays");
    assert!(off.records > 3 * 1024, "more records than the reader holds at once");
    let timings = |r: &Report| r.replay.as_ref().expect("full-mode replay").timings.clone();
    for verify in [VerifyMode::Strict, VerifyMode::Lenient] {
        let admitted = run(&clean, verify).expect("a clean file passes admission");
        assert_eq!(timings(&admitted), timings(&off), "{verify:?}");
        let mut summary = admitted.summary();
        if let Some(ledger) = summary.quarantine.take() {
            assert_eq!(
                (ledger.examined, ledger.admitted, ledger.quarantined),
                (off.records, off.records, 0)
            );
        }
        assert_eq!(summary.to_json(), off.summary().to_json(), "{verify:?}");
    }

    let faults = [
        (0, FaultKind::Duplicate),
        (1_500, FaultKind::Reorder),
        (2_600, FaultKind::ClockRewind),
        (4_000, FaultKind::Duplicate),
        (5_000, FaultKind::Truncate),
    ];
    let plan = FaultPlan {
        seed: 7,
        faults: faults.iter().map(|&(at, kind)| FaultSpec { at, kind }).collect(),
    };
    let workload = Workload::File(faulted_v2(&dir, 5_000, &plan));

    let expected = workload
        .verify(VerifyMode::Lenient)
        .expect("lenient admission never fails a clean container")
        .expect("lenient admission keeps a ledger");
    assert!(expected.quarantined > 0 && expected.violations.total() > 1, "{expected:?}");
    let report =
        run(&workload, VerifyMode::Lenient).expect("lenient admission never fails the run");
    let ledger = report.quarantine.expect("lenient runs carry the ledger");
    assert_eq!(
        (ledger.examined, ledger.admitted, ledger.quarantined, ledger.violations),
        (expected.records, expected.admitted, expected.quarantined, expected.violations)
    );
    assert_eq!(report.records, expected.admitted);

    let strict =
        run(&workload, VerifyMode::Strict).map(|r| r.records).expect_err("the faults fail strict");
    let alone = workload.verify(VerifyMode::Strict).expect_err("and the stand-alone pass");
    assert_eq!(format!("{strict:?}"), format!("{alone:?}"));
    let _ = std::fs::remove_dir_all(dir);
}

/// Records of file 0, but file 9 at `stray`, that end in a parked
/// failure after `fail` records.
struct StrayThenFailing {
    at: u64,
    stray: u64,
    fail: u64,
    failure: Option<TraceError>,
}

impl TraceSource for StrayThenFailing {
    fn meta(&self) -> SourceMeta {
        meta()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        (self.at < self.fail).then(|| {
            let mut r = rec(IoOp::Read, 1_000_000, (self.at + 1) * 4096, 4096);
            if self.at == self.stray {
                r.file_id = 9;
            }
            self.at += 1;
            r
        })
    }

    fn take_failure(&mut self) -> Option<TraceError> {
        if self.at == self.fail {
            self.failure.take()
        } else {
            None
        }
    }
}

/// An unadmitted serial replay reads its stream on the engine's own
/// thread, so its error is the first one in read order: the record
/// outside the roster, not a stream failure up to three 1024-record
/// chunks past it, which a reader thread running ahead would reach
/// first.
#[test]
fn an_unadmitted_serial_replay_fails_with_the_first_error_it_read() {
    for (stray, fail) in [(0, 5), (10, 500), (10, 1_500), (10, 2_500), (1_500, 2_000)] {
        let workload = Workload::custom("stray", move || {
            let failure = Some(TraceError::CorruptBlock { block: 77, context: "planted" });
            Box::new(StrayThenFailing { at: 0, stray, fail, failure })
        });
        let outcome = Experiment::builder()
            .workload(workload)
            .engine(Engine::SerialReplay)
            .verify(VerifyMode::Off)
            .build()
            .expect("valid experiment")
            .run();
        assert!(
            matches!(
                outcome,
                Err(ExpError::Trace(TraceError::FileIdOutOfRange { index, .. })) if index == stray
            ),
            "stray at {stray}, failure at {fail}: {outcome:?}"
        );
    }
}
