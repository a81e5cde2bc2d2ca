//! # clio-bench — regeneration harness for every table and figure
//!
//! Binaries (run with `cargo run --release -p clio-bench --bin <name>`):
//!
//! | Binary | What it produces |
//! |---|---|
//! | `paper <artifact>` | one paper artifact as text: `fig2`…`fig6`, `table1`…`table6`, or `all` |
//! | `suite` | every artifact, as JSON |
//! | `checklist` | the paper's claims as a PASS/FAIL scorecard |
//! | `perf_suite` | perf baseline: replay/policy/simulator throughput as JSON |
//! | `clio_e2e` | the repository's benchmark (`BENCHMARK.json`): end-to-end metrics plus a per-layer ledger |
//! | `load_harness`, `concurrency_sweep` | serving-path latency curves |
//! | `ablation_storage` | storage-design ablations |
//! | `trace_convert`, `verify_smoke` | trace-format conversion and strict-admission smoke |
//!
//! `perf_suite` writes the committed `BENCH_baseline.json` at the repo
//! root (see README "Benchmarking & the perf baseline"). This library
//! is its measurement engine ([`measure`]): warm up until per-iteration
//! time settles, calibrate the iterations per sample so
//! [`MeasurementConfig::sample_size`] samples fill
//! [`MeasurementConfig::measurement_time`], time each sample batch, and
//! summarize robustly ([`Stats`]: median and MAD over the samples
//! inside the Tukey fences).

#![warn(missing_docs)]

use std::hint::black_box;
use std::time::{Duration, Instant};

mod stats;

pub use stats::Stats;

/// Prints a bench-binary banner.
pub fn banner(artifact: &str, description: &str) {
    println!("== {artifact} ==");
    println!("{description}");
}

/// Knobs of the measurement engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasurementConfig {
    /// Number of timed samples per benchmark.
    pub sample_size: usize,
    /// Target wall-time budget for the whole measurement phase.
    pub measurement_time: Duration,
    /// Minimum warm-up time before sampling starts.
    pub warm_up_time: Duration,
}

impl Default for MeasurementConfig {
    /// 20 samples over 200 ms after a 50 ms warm-up.
    fn default() -> Self {
        Self {
            sample_size: 20,
            measurement_time: Duration::from_millis(200),
            warm_up_time: Duration::from_millis(50),
        }
    }
}

/// Runs the full warm-up → calibrate → sample pipeline on `f` and
/// returns the robust summary.
pub fn measure<F: FnMut(&mut Bencher)>(cfg: &MeasurementConfig, mut f: F) -> Stats {
    // Warm-up: at least one batch, doubling until the budget is spent.
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    let mut warm_elapsed = Duration::ZERO;
    let mut batch: u64 = 1;
    loop {
        let mut b = Bencher { iters: batch, elapsed: Duration::ZERO };
        f(&mut b);
        warm_iters += batch;
        warm_elapsed += b.elapsed;
        if warm_start.elapsed() >= cfg.warm_up_time {
            break;
        }
        batch = batch.saturating_mul(2).min(1 << 20);
    }
    let est_iter_ns = (warm_elapsed.as_nanos() as f64 / warm_iters.max(1) as f64).max(1.0);

    // Calibrate so `sample_size` samples fill the measurement budget.
    let samples = cfg.sample_size.max(1);
    let per_sample_ns = cfg.measurement_time.as_nanos() as f64 / samples as f64;
    let iters_per_sample = (per_sample_ns / est_iter_ns).round().max(1.0) as u64;

    let meas_start = Instant::now();
    let mut sample_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher { iters: iters_per_sample, elapsed: Duration::ZERO };
        f(&mut b);
        sample_ns.push(b.elapsed.as_nanos() as f64 / iters_per_sample as f64);
    }
    Stats::from_samples(&sample_ns, iters_per_sample, meas_start.elapsed())
}

/// Timing loop handle passed to measured closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_does_not_panic() {
        banner("Table 1", "demo");
    }

    #[test]
    fn measure_produces_calibrated_stats() {
        let cfg = MeasurementConfig {
            sample_size: 5,
            measurement_time: Duration::from_millis(2),
            warm_up_time: Duration::from_micros(100),
        };
        let stats = measure(&cfg, |b| b.iter(|| black_box(1 + 1)));
        assert_eq!(stats.samples, 5);
        assert!(stats.iters_per_sample >= 1);
        assert!(stats.median_ns >= 0.0);
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
        assert!(stats.outliers_rejected < stats.samples);
    }

    #[test]
    fn slow_routines_get_one_iteration_per_sample() {
        let cfg = MeasurementConfig {
            sample_size: 2,
            measurement_time: Duration::from_micros(10),
            warm_up_time: Duration::ZERO,
        };
        let stats = measure(&cfg, |b| b.iter(|| std::thread::sleep(Duration::from_millis(1))));
        assert_eq!(stats.iters_per_sample, 1, "budget smaller than one iteration clamps to 1");
    }
}
