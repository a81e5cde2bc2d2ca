//! `load_harness` — the deterministic closed-loop latency curve.
//!
//! Sweeps {1, 2, 4, 8, 16, 32} closed-loop clients over the serving
//! model (`Engine::Serve`: virtual clock, no sockets, bit-identical
//! across runs and machines) and writes the latency curve as a
//! `clio-load-curve-v1` JSON artifact — CI uploads it per PR, so the
//! serving trajectory is diffable from one change to the next.
//!
//! Flags: `--records N` (requests per client, default 256),
//! `--think MS` (virtual think time), `--out PATH` (default
//! `target/load_curve.json`). The real-socket counterpart lives in
//! `concurrency_sweep`, behind `CLIO_SOCKET_TESTS=1`.

use std::path::PathBuf;

use clio_core::exp::Workload;
use clio_core::load::{fmt_ms, LoadHarness};
use clio_core::stats::Table;
use clio_core::trace::synth::TraceProfile;

const USAGE: &str = "usage: load_harness [--records N] [--think MS] [--out PATH]";

fn main() {
    let mut requests = 256usize;
    let mut think_ms = 0.0f64;
    let mut out = PathBuf::from("target/load_curve.json");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("load_harness: {name} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--records" => {
                let v = value("--records");
                requests = v.parse().unwrap_or_else(|_| {
                    eprintln!("load_harness: bad --records {v}\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--think" => {
                let v = value("--think");
                think_ms = v.parse().unwrap_or_else(|_| {
                    eprintln!("load_harness: bad --think {v}\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--out" => out = PathBuf::from(value("--out")),
            other => {
                eprintln!("load_harness: unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    clio_bench::banner(
        "Closed-loop load harness (deterministic model)",
        "Latency percentiles and throughput vs concurrent clients, virtual clock",
    );

    let workload = Workload::Synthetic(TraceProfile {
        data_ops: requests.max(1),
        write_fraction: 0.25,
        ..Default::default()
    });
    let curve = LoadHarness::new(workload)
        .requests_per_client(requests)
        .think_ms(think_ms)
        .run()
        .expect("deterministic sweep runs");

    let mut table = Table::new(
        "serving model latency vs client count (virtual ms)",
        &["clients", "requests", "fail", "p50", "p95", "p99", "p999", "mean", "rps"],
    );
    for p in &curve.points {
        table.row(&[
            p.clients.to_string(),
            p.requests.to_string(),
            p.failures.to_string(),
            fmt_ms(p.p50_ms),
            fmt_ms(p.p95_ms),
            fmt_ms(p.p99_ms),
            fmt_ms(p.p999_ms),
            fmt_ms(p.mean_ms),
            fmt_ms(p.throughput_rps),
        ]);
    }
    println!("{table}");

    if !curve.throughput_flat_or_rising("model", 0.9) {
        eprintln!("load_harness: virtual throughput sagged under concurrency");
        std::process::exit(1);
    }

    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out, curve.to_json())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}
