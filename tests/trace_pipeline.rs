//! Cross-crate trace pipeline: real application -> instrumented trace ->
//! persistence -> replay (simulated cache AND real file backend) ->
//! statistics.

use clio_core::apps::{cholesky, dmine, lu, pgrep, titan};
use clio_core::cache::backend::MemBackend;
use clio_core::prelude::{Engine, Experiment, Workload};
use clio_core::trace::record::IoOp;
use clio_core::trace::replay::{replay_backend, RealReplayOptions, ReportMode};
use clio_core::trace::source::SliceSource;
use clio_core::trace::stats::TraceStats;
use clio_core::trace::{writer, TraceFile};

/// Every application trace survives both persistence formats.
#[test]
fn all_app_traces_round_trip_through_disk() {
    let dir = std::env::temp_dir().join(format!("clio-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let traces: Vec<(&str, TraceFile)> = vec![
        ("dmine", dmine::run(&dmine::DmineConfig::default()).expect("runs").1),
        ("pgrep", pgrep::run(&pgrep::PgrepConfig::default()).expect("runs").1),
        ("lu", lu::run(&lu::LuConfig { n: 24, panel: 8, seed: 4 }).expect("runs").1),
        (
            "titan",
            titan::run(
                titan::TitanConfig::default(),
                &[titan::Window { x0: 5, y0: 5, x1: 60, y1: 60 }],
            )
            .expect("runs")
            .1,
        ),
        ("cholesky", cholesky::run(&cholesky::CholeskyConfig { grid: 5 }).expect("runs").1),
    ];

    for (name, trace) in &traces {
        let bin = dir.join(format!("{name}.clio"));
        let txt = dir.join(format!("{name}.txt"));
        writer::save(trace, &bin).expect("binary save");
        writer::save_text(trace, &txt).expect("text save");

        let from_bin = TraceFile::load(&bin).expect("binary load");
        assert_eq!(&from_bin.records, &trace.records, "{name}: binary round trip");

        let text = std::fs::read_to_string(&txt).expect("text read");
        let from_txt = TraceFile::from_text(&text).expect("text parse");
        assert_eq!(&from_txt.records, &trace.records, "{name}: text round trip");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The same trace replayed through the simulated cache twice gives
/// identical timings (full determinism), and through a real backend
/// gives the same operation count.
#[test]
fn replay_modes_agree_on_structure() {
    let (_, trace) = cholesky::run(&cholesky::CholeskyConfig { grid: 4 }).expect("runs");

    let exp = Experiment::builder()
        .workload(Workload::trace(trace.clone()))
        .engine(Engine::SerialReplay)
        .build()
        .expect("valid experiment");
    let sim_a = exp.run().expect("replay runs").replay.expect("replay report");
    let sim_b = exp.run().expect("replay runs").replay.expect("replay report");
    let times_a: Vec<f64> = sim_a.timings.iter().map(|t| t.elapsed_ms).collect();
    let times_b: Vec<f64> = sim_b.timings.iter().map(|t| t.elapsed_ms).collect();
    assert_eq!(times_a, times_b, "simulated replay is deterministic");

    let mut backend = MemBackend::with_data(vec![0u8; 8 * 1024 * 1024]);
    let real = replay_backend(
        &mut SliceSource::new(&trace),
        &mut backend,
        RealReplayOptions::default(),
        ReportMode::Full,
    )
    .expect("replays");
    assert_eq!(real.timings.len(), sim_a.timings.len());
}

/// Cache effects distinguish cold from warm replays of the same trace.
/// Note the pass boundary must not close the file: closing drops the
/// file's residency (that is exactly why the paper's closes are slow).
#[test]
fn warm_cache_beats_cold_cache() {
    use clio_core::trace::record::TraceRecord;
    let reads: Vec<TraceRecord> =
        (0..32u64).map(|i| TraceRecord::simple(IoOp::Read, 0, i * 131_072, 131_072)).collect();

    let one = TraceFile::build("sample-1gb.dat", 1, reads.clone()).expect("valid");
    let replay_total = |t: &TraceFile| {
        Experiment::builder()
            .workload(Workload::trace(t.clone()))
            .build()
            .expect("valid experiment")
            .run()
            .expect("replay runs")
            .total_ms()
            .expect("replay engines report total time")
    };
    let cold_total = replay_total(&one);

    let mut doubled = reads.clone();
    doubled.extend(reads);
    let both = TraceFile::build("sample-1gb.dat", 1, doubled).expect("valid");
    let both_total = replay_total(&both);

    let warm_total = both_total - cold_total;
    assert!(
        warm_total < cold_total / 2.0,
        "second pass {warm_total:.4} ms should be far cheaper than first {cold_total:.4} ms"
    );
}

/// Trace statistics separate the five applications' signatures.
#[test]
fn application_signatures_differ() {
    let (_, dm) = dmine::run(&dmine::DmineConfig::default()).expect("runs");
    let (_, lu_t) = lu::run(&lu::LuConfig { n: 32, panel: 8, seed: 4 }).expect("runs");
    let (_, ch) = cholesky::run(&cholesky::CholeskyConfig { grid: 6 }).expect("runs");

    let dm_s = TraceStats::compute(&dm);
    let lu_s = TraceStats::compute(&lu_t);
    let ch_s = TraceStats::compute(&ch);

    // Dmine: sequential scans, no writes.
    assert!(dm_s.sequentiality > 0.5);
    assert_eq!(dm_s.count(IoOp::Write), 0);
    // LU: write-heavy (panel write-backs + trailing updates).
    assert!(lu_s.count(IoOp::Write) > 0);
    assert!(lu_s.count(IoOp::Seek) > dm_s.count(IoOp::Seek));
    // Cholesky: read-amplified by left-looking re-reads.
    assert!(ch_s.count(IoOp::Read) > ch_s.count(IoOp::Write));
    // Request-size spread is widest for Cholesky (fill-in growth).
    let ch_spread = ch_s.request_sizes.max().unwrap() / ch_s.request_sizes.min().unwrap();
    let dm_spread = dm_s.request_sizes.max().unwrap() / dm_s.request_sizes.min().unwrap();
    assert!(ch_spread > dm_spread);
}

/// Failure injection: a trace with an out-of-range file id is rejected
/// at validation, and a truncated binary trace is rejected at load.
#[test]
fn malformed_traces_rejected() {
    let (_, trace) = titan::run(
        titan::TitanConfig::default(),
        &[titan::Window { x0: 0, y0: 0, x1: 10, y1: 10 }],
    )
    .expect("runs");

    let mut bad = trace.clone();
    bad.records[0].file_id = 1000;
    assert!(bad.validate().is_err());

    let bytes = trace.to_bytes();
    for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
        assert!(TraceFile::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}
