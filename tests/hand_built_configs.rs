//! Hand-built cache configurations: `ExperimentBuilder::build()` is
//! where a bad one stops, for every engine.
//!
//! A zero page size used to build and then panic inside `run()` ("page
//! size must be positive") under serial replay, parallel replay and
//! serve; a NaN cost used to build, run, and come back as a NaN in
//! every reported cost. Each bad field is now an
//! `ExpError::InvalidConfig` that names it, returned by `build()`
//! without panicking, whichever engine the cache would serve. The
//! default configuration still builds and runs on all six.
//!
//! The thread and shard counts are capped too (`MAX_THREADS`,
//! `MAX_SHARDS`): parallel replay starts `min(threads, shards)` OS
//! threads, so a huge count is refused by `build()`, checked here
//! without running anything. Every other knob is driven at arbitrary
//! small values through every engine: a run returns a `Report` or an
//! `ExpError`, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use clio_core::cache::cache::CacheCostModel;
use clio_core::cache::policy::{ReplacementPolicy, WritePolicy};
use clio_core::prelude::*;
use clio_core::trace::replay::{MAX_SHARDS, MAX_THREADS};
use clio_core::trace::synth::{synthesize, TraceProfile};
use proptest::prelude::*;

/// A small trace whose one file fits the real-replay sample.
fn workload() -> Workload {
    Workload::trace(synthesize(&TraceProfile {
        data_ops: 64,
        file_size: 256 * 1024,
        request_size: (512, 8192),
        ..Default::default()
    }))
}

/// A 256 KiB sample file for real replay, under a directory of its own
/// (one per test: the tests run at once and each removes its own).
fn sample_file(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("clio-hand-built-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sample = dir.join("sample.dat");
    std::fs::write(&sample, vec![7u8; 256 * 1024]).expect("sample file");
    (dir, sample)
}

fn engines(sample: PathBuf) -> [Engine; 6] {
    [
        Engine::SerialReplay,
        Engine::ParallelReplay,
        Engine::TraceSim,
        Engine::ScheduledSim,
        Engine::RealReplay { sample },
        Engine::Serve,
    ]
}

/// `engine` over [`workload`] with `cache`, at 2 threads, 4 shards and
/// 2 clients.
fn builder(engine: &Engine, cache: CacheConfig) -> ExperimentBuilder {
    Experiment::builder()
        .workload(workload())
        .engine(engine.clone())
        .cache(cache)
        .threads(2)
        .shards(4)
        .clients(2)
        .requests_per_client(16)
}

#[test]
fn a_bad_cache_config_fails_build_with_the_field_it_names() {
    let (dir, sample) = sample_file("bad");
    let defaults = CacheConfig::default();
    let bad = [
        ("page_size", CacheConfig { page_size: 0, ..defaults.clone() }),
        (
            "hit_per_page",
            CacheConfig {
                costs: CacheCostModel { hit_per_page: f64::NAN, ..defaults.costs },
                ..defaults.clone()
            },
        ),
        (
            "fault_per_page",
            CacheConfig {
                costs: CacheCostModel { fault_per_page: -1.0, ..defaults.costs },
                ..defaults.clone()
            },
        ),
    ];
    for engine in engines(sample) {
        for (field, cache) in &bad {
            let built = catch_unwind(AssertUnwindSafe(|| builder(&engine, cache.clone()).build()));
            match built {
                Ok(Err(ExpError::InvalidConfig(message))) => assert!(
                    message.contains(field),
                    "{engine:?}, bad {field}: the error does not name it: {message}"
                ),
                Ok(Err(other)) => panic!("{engine:?}, bad {field}: wrong error {other:?}"),
                Ok(Ok(_)) => panic!("{engine:?}, bad {field}: build() accepted it"),
                Err(_) => panic!("{engine:?}, bad {field}: build() panicked"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_default_cache_config_builds_and_runs_on_every_engine() {
    let (dir, sample) = sample_file("default");
    for engine in engines(sample) {
        let report = builder(&engine, CacheConfig::default())
            .build()
            .unwrap_or_else(|e| panic!("{engine:?}: the default config must build: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("{engine:?}: the default config must run: {e}"));
        assert!(report.records > 0, "{engine:?}: nothing ran");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn thread_and_shard_counts_over_their_caps_fail_build_with_the_field_they_name() {
    let (dir, sample) = sample_file("caps");
    for engine in engines(sample) {
        let over: [(&str, ExperimentBuilder); 4] = [
            ("threads", builder(&engine, CacheConfig::default()).threads(usize::MAX)),
            ("threads", builder(&engine, CacheConfig::default()).threads(MAX_THREADS + 1)),
            ("shards", builder(&engine, CacheConfig::default()).shards(usize::MAX)),
            ("shards", builder(&engine, CacheConfig::default()).shards(MAX_SHARDS + 1)),
        ];
        // Built only, never run: a run at the caps would start threads.
        for (field, over) in over {
            match catch_unwind(AssertUnwindSafe(|| over.build())) {
                Ok(Err(ExpError::InvalidConfig(message))) => assert!(
                    message.contains(field),
                    "{engine:?}, too many {field}: the error does not name it: {message}"
                ),
                Ok(Err(other)) => panic!("{engine:?}, too many {field}: wrong error {other:?}"),
                Ok(Ok(_)) => panic!("{engine:?}, too many {field}: build() accepted it"),
                Err(_) => panic!("{engine:?}, too many {field}: build() panicked"),
            }
        }
        let at_caps =
            builder(&engine, CacheConfig::default()).threads(MAX_THREADS).shards(MAX_SHARDS);
        assert!(at_caps.build().is_ok(), "{engine:?}: the caps themselves are accepted");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A cost, most often a valid one: zero, finite and positive, or one
/// of a negative, a NaN and an infinity.
fn cost() -> impl Strategy<Value = f64> {
    proptest::sample::select(
        &[0.0, 0.125, 0.25, 1.0, 3.0, 8.0, 40.0, -1.0, f64::NAN, f64::INFINITY][..],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary knob values through every engine, at most 8 threads,
    /// 16 shards and 4 clients over a 64-operation trace: `build()` and
    /// `run()` return a `Report` or a coded error, never panic. A
    /// configuration whose every field is valid builds and runs; one
    /// with a bad field is refused by `build()` as `InvalidConfig`.
    #[test]
    fn arbitrary_knobs_give_a_report_or_a_coded_error_on_every_engine(
        run_knobs in (0usize..6, 0usize..9, 0usize..17, 0usize..5, 0usize..24),
        cache_knobs in (
            proptest::sample::select(&[0u64, 1, 512, 4096, 4096, 8192, 65536][..]),
            proptest::sample::select(&[0usize, 1, 7, 64, 4096][..]),
            0usize..7,
            any::<bool>(),
            any::<bool>(),
        ),
        other_knobs in (
            cost(),
            cost(),
            cost(),
            0u64..3,
            0usize..3,
            any::<bool>(),
        ),
    ) {
        let (engine, threads, shards, clients, requests) = run_knobs;
        let (page_size, capacity, policy, write_through, prefetch) = cache_knobs;
        let (hit, fault, think_ms, cylinders, verify, summary) = other_knobs;
        let (dir, sample) = sample_file(&format!("knobs-{engine}-{threads}-{shards}-{clients}"));
        let engine = engines(sample)[engine].clone();
        let cache = CacheConfig {
            page_size,
            capacity_pages: capacity,
            prefetch_enabled: prefetch,
            policy: ReplacementPolicy::ALL[policy],
            write_policy: if write_through { WritePolicy::WriteThrough } else { WritePolicy::WriteBack },
            costs: CacheCostModel { hit_per_page: hit, fault_per_page: fault, ..Default::default() },
            ..CacheConfig::default()
        };
        let valid_cost = |c: f64| c.is_finite() && c >= 0.0;
        let valid = page_size > 0
            && valid_cost(hit)
            && valid_cost(fault)
            && valid_cost(think_ms)
            && shards > 0
            && (clients > 0 || !matches!(engine, Engine::Serve))
            && (cylinders > 0 || !matches!(engine, Engine::ScheduledSim));
        let experiment = Experiment::builder()
            .workload(workload())
            .engine(engine.clone())
            .cache(cache)
            .threads(threads)
            .shards(shards)
            .clients(clients)
            .requests_per_client(requests)
            .think_ms(think_ms)
            .cylinders(cylinders)
            .verify([VerifyMode::Off, VerifyMode::Strict, VerifyMode::Lenient][verify])
            .report_mode(if summary { ReportMode::Summary } else { ReportMode::Full });
        let outcome = catch_unwind(AssertUnwindSafe(|| experiment.build().and_then(|e| e.run())));
        let _ = std::fs::remove_dir_all(dir);
        match outcome {
            Err(_) => prop_assert!(false, "{:?} panicked", engine),
            Ok(Ok(report)) => {
                prop_assert!(valid, "{:?}: an invalid knob ran", engine);
                prop_assert!(report.records > 0, "{:?}: nothing ran", engine);
            }
            Ok(Err(ExpError::InvalidConfig(message))) => {
                prop_assert!(!valid, "{:?}: a valid configuration was refused: {}", engine, message);
            }
            Ok(Err(other)) => prop_assert!(false, "{:?}: not a configuration error: {:?}", engine, other),
        }
    }
}
