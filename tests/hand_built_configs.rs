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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use clio_core::cache::cache::CacheCostModel;
use clio_core::prelude::*;
use clio_core::trace::synth::{synthesize, TraceProfile};

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
