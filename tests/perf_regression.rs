//! First perf regression gate.
//!
//! `BENCH_baseline.json` at the repo root is the committed perf
//! trajectory. This test runs `perf_suite --smoke` (small traces,
//! short measurement — CI-seconds, not minutes) and requires every
//! bench that also appears in the baseline to stay above
//! `baseline_rate / margin` records per second.
//!
//! The margin defaults to a deliberately generous **3×**: the gate
//! exists to catch complexity regressions (an O(N²) hot loop, an
//! accidental clone-per-event), not single-digit-percent noise on a
//! shared runner. Override with `CLIO_BENCH_GATE`:
//!
//! - `CLIO_BENCH_GATE=off` (or `0`) — skip the gate entirely,
//! - `CLIO_BENCH_GATE=<float>` — use a custom margin divisor.
//!
//! The smoke run measures fewer records than the committed full
//! baseline, but throughput *rates* are comparable; the 3× margin
//! absorbs the residual cache-warmth difference.
//!
//! The gate prints every compared row's `smoke / floor` ratio, and a
//! row only fails if it is below its floor in **two** smoke runs: on a
//! shared 2-CPU runner a single short sample of an unchanged row can
//! land under a 3× floor, while a complexity regression lands there
//! every time.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    // crates/bench -> crates -> root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn gate_margin() -> Option<f64> {
    match std::env::var("CLIO_BENCH_GATE") {
        Err(_) => Some(3.0),
        Ok(v) if v == "off" || v == "0" => None,
        Ok(v) => Some(v.parse::<f64>().unwrap_or_else(|_| {
            panic!("CLIO_BENCH_GATE must be `off`, `0`, or a margin divisor; got {v:?}")
        })),
    }
}

/// `name -> records_per_sec` for every bench row with a positive rate.
fn rates(report: &serde_json::Value) -> Vec<(String, f64)> {
    report["benches"]
        .as_array()
        .expect("benches array")
        .iter()
        .filter_map(|b| {
            let name = b["name"].as_str()?.to_string();
            let rate = b["records_per_sec"].as_f64()?;
            (rate > 0.0).then_some((name, rate))
        })
        .collect()
}

/// Runs `perf_suite --smoke` and returns its rates.
///
/// The committed baseline is measured in release mode, so the gate must
/// run release too — `cargo test`'s own profile is usually debug, where
/// the replay engines are an order of magnitude slower. Tier-1 verify
/// builds release first, so this reuses the cached binary.
fn smoke_rates(root: &Path) -> Vec<(String, f64)> {
    let out = root.join("target").join("perf_gate_smoke.json");
    let status = Command::new(env!("CARGO"))
        .args(["run", "--release", "-q", "-p", "clio-bench", "--bin", "perf_suite", "--"])
        .args(["--smoke", "--out"])
        .arg(&out)
        .current_dir(root)
        .status()
        .expect("cargo run perf_suite");
    assert!(status.success(), "perf_suite --smoke exited with {status}");
    let smoke: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out).expect("smoke JSON written"))
            .expect("smoke JSON parses");
    rates(&smoke)
}

/// Compares one smoke run with the baseline floors, printing each
/// shared row's `smoke / floor` ratio; returns how many rows were
/// compared and a description of every row below its floor, by name.
fn below_floor(
    run: &str,
    smoke: &[(String, f64)],
    baseline: &[(String, f64)],
    margin: f64,
) -> (usize, Vec<(String, String)>) {
    let mut compared = 0usize;
    let mut failures = Vec::new();
    for (name, baseline_rate) in baseline {
        let Some((_, smoke_rate)) = smoke.iter().find(|(n, _)| n == name) else {
            continue; // rows can come and go across schema revisions
        };
        compared += 1;
        let floor = baseline_rate / margin;
        eprintln!("perf gate [{run}] {name}: smoke/floor = {:.2}", smoke_rate / floor);
        if *smoke_rate < floor {
            failures.push((
                name.clone(),
                format!(
                    "{name}: {smoke_rate:.0} records/s < floor {floor:.0} \
                     (baseline {baseline_rate:.0} / margin {margin})"
                ),
            ));
        }
    }
    (compared, failures)
}

#[test]
fn smoke_run_stays_above_committed_baseline_floors() {
    let Some(margin) = gate_margin() else {
        eprintln!("CLIO_BENCH_GATE=off: skipping the perf regression gate");
        return;
    };

    let root = workspace_root();
    let baseline_path = root.join("BENCH_baseline.json");
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            // A fresh checkout without the baseline (or a deliberate
            // removal) must not brick the tier-1 run; the gate only
            // bites when there is a trajectory to compare against.
            eprintln!("no committed baseline at {}: {e}; skipping", baseline_path.display());
            return;
        }
    };
    let baseline: serde_json::Value =
        serde_json::from_str(&baseline_text).expect("committed baseline parses");
    let baseline_rates = rates(&baseline);

    let smoke = smoke_rates(&root);
    let (compared, mut failures) = below_floor("run 1", &smoke, &baseline_rates, margin);
    assert!(compared > 0, "no comparable benches between baseline and smoke run — gate is vacuous");
    // The serving path must stay covered: at least one closed-loop
    // `serve/*` row has to survive the baseline/smoke intersection.
    assert!(
        baseline_rates.iter().any(|(n, _)| n.starts_with("serve/"))
            && smoke.iter().any(|(n, _)| n.starts_with("serve/")),
        "no serve/ rows in the baseline/smoke intersection — the serving path is ungated"
    );
    // Likewise the compact trace codec: the verified-decode row must
    // survive the intersection, or ingest throughput is ungated.
    assert!(
        baseline_rates.iter().any(|(n, _)| n == "trace_io/decode_bytes_per_sec")
            && smoke.iter().any(|(n, _)| n == "trace_io/decode_bytes_per_sec"),
        "no trace_io/decode_bytes_per_sec row in the baseline/smoke intersection — \
         the compact codec is ungated"
    );
    if !failures.is_empty() {
        eprintln!("perf gate: {} row(s) below floor; re-running the smoke once", failures.len());
        let (_, again) = below_floor("run 2", &smoke_rates(&root), &baseline_rates, margin);
        failures.retain(|(name, _)| again.iter().any(|(n, _)| n == name));
    }
    assert!(
        failures.is_empty(),
        "perf regression gate tripped ({} of {compared} rows, below floor in both runs):\n  {}",
        failures.len(),
        failures.iter().map(|(_, why)| why.as_str()).collect::<Vec<_>>().join("\n  ")
    );
    eprintln!("perf gate: {compared} rows within {margin}x of the committed baseline");
}
