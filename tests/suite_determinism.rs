//! Workspace smoke test: `BenchmarkSuite` end-to-end on a small
//! configuration, asserting the report is byte-for-byte deterministic
//! across two runs.
//!
//! The web-server benchmark measures a real server with real clocks, so
//! it is excluded here; the model and trace benchmarks are simulated
//! and must reproduce exactly.

use clio_core::cache::cache::CacheConfig;
use clio_core::config::SuiteConfig;
use clio_core::suite::BenchmarkSuite;
use clio_core::trace::replay::{replay_parallel, ParallelReplayOptions};
use clio_core::trace::synth::{synthesize, TraceProfile};

fn small_config() -> SuiteConfig {
    SuiteConfig {
        model_benchmark: true,
        trace_benchmark: true,
        webserver_benchmark: false,
        table6_trials: 2,
        sweep: vec![2, 4],
        ablations: false,
    }
}

#[test]
fn suite_report_is_deterministic_across_runs() {
    let run = || {
        let report =
            BenchmarkSuite::new(small_config()).expect("valid config").run().expect("suite runs");
        serde_json::to_string_pretty(&report).expect("report serializes")
    };

    let first = run();
    let second = run();

    assert!(!first.is_empty());
    assert_eq!(first, second, "simulated suite must be deterministic");

    // The disabled benchmark must actually be skipped.
    let value: serde_json::Value = serde_json::from_str(&first).unwrap();
    assert!(value["table5"].is_null(), "webserver benchmark was disabled");
    assert!(!value["qcrd"].is_null(), "model benchmark ran");
    assert!(!value["trace_means"].is_null(), "trace benchmark ran");
}

/// The parallel replay engine must merge deterministically: a fixed
/// seed produces identical aggregate hit/miss counts — and bitwise
/// identical per-record timings — across repeated runs *and* across
/// thread counts. Scheduling may interleave shard work arbitrarily;
/// none of it is allowed to show in the report.
#[test]
fn parallel_replay_deterministic_across_runs_and_thread_counts() {
    let trace = synthesize(&TraceProfile {
        data_ops: 3_000,
        write_fraction: 0.3,
        sequentiality: 0.6,
        seed: 0xD17E,
        ..Default::default()
    });
    let config = CacheConfig { capacity_pages: 512, ..Default::default() };

    let run = |threads: usize| {
        replay_parallel(&trace, config.clone(), &ParallelReplayOptions { threads, shards: 8 })
            .expect("valid trace")
    };

    let base = run(1);
    assert!(base.metrics.accesses() > 0, "replay did work");
    for threads in [1usize, 2, 4, 8] {
        for _ in 0..2 {
            let r = run(threads);
            assert_eq!(
                (r.metrics.hits, r.metrics.misses),
                (base.metrics.hits, base.metrics.misses),
                "aggregate hit/miss counts at {threads} threads"
            );
            assert_eq!(r.metrics, base.metrics, "full metrics at {threads} threads");
            assert_eq!(r.shard_metrics, base.shard_metrics, "per-shard split at {threads} threads");
            let ta: Vec<f64> = base.timings.iter().map(|t| t.elapsed_ms).collect();
            let tb: Vec<f64> = r.timings.iter().map(|t| t.elapsed_ms).collect();
            assert_eq!(ta, tb, "bitwise-identical timings at {threads} threads");
        }
    }
}

#[test]
fn ablation_report_is_byte_identical_across_runs() {
    let run = || {
        let cfg = SuiteConfig {
            model_benchmark: false,
            trace_benchmark: false,
            webserver_benchmark: false,
            ablations: true,
            ..small_config()
        };
        let report = BenchmarkSuite::new(cfg).expect("valid config").run().expect("suite runs");
        let ablations = report.ablations.expect("ablations enabled");
        serde_json::to_string_pretty(&ablations).expect("ablation report serializes")
    };

    let first = run();
    let second = run();
    assert!(first.contains("SSTF"), "scheduler ablation present");
    assert_eq!(first, second, "ablation report must be byte-identical across runs");
}
