//! `perf_suite` — the machine-readable performance baseline.
//!
//! Replays a workload through the simulated buffer cache (all five
//! replacement policies) and through the trace-driven machine
//! simulator, measuring each with `clio_bench`'s statistical
//! engine (warm-up, calibrated samples, IQR outlier rejection, MAD
//! spread) and emitting one JSON report with throughput rates
//! (records/s, pages/s, events/s, bytes/s). Every engine is driven
//! through the unified `Experiment::builder()` API.
//!
//! The committed `BENCH_baseline.json` at the repo root is the perf
//! trajectory: future PRs regenerate it with
//!
//! ```text
//! cargo run --release -p clio-bench --bin perf_suite
//! ```
//!
//! and diff the rates. CI runs `--smoke` (small traces, short
//! measurement) and uploads the JSON as an artifact — trajectory only;
//! the committed-baseline floors are enforced by
//! `tests/perf_regression.rs`.
//!
//! Flags: `--smoke` (or `CLIO_PERF_SMOKE=1`), `--records N` (scales
//! the *synthetic* parts of the workload; app/file workloads keep
//! their intrinsic size), `--sim-records N`, `--threads T` (parallel
//! replay workers; 0
//! disables the sharded rows), `--shards S`, `--workload SPEC`
//! (`synth`, `seq`, `rand`, `dmine`, `titan`, `lu`, `cholesky`,
//! `pgrep`, `mix:<a>,<b>`, `mix:<a>*<wa>,<b>*<wb>`, `share:<a>,<b>`,
//! `chain:<a>,<b>`, scenario wrappers `zipf:`, `hot:`, `burst:`,
//! `diurnal:`, `phase:`, and `fault:<atoms>:<spec>` scenarios),
//! `--report full|summary` (summary replays with O(1)-memory running
//! aggregates — the mode for >memory traces), `--list` (print the
//! benchmark rows and exit), `--out PATH`. Unknown flags exit nonzero
//! with usage.
//!
//! Every serial `replay/<policy>` row is paired with a
//! `replay_par/<policy>` row driving the same workload through the
//! sharded-parallel engine — the committed baseline records
//! serial-vs-sharded throughput side by side — and the
//! `replay_stream/serial` / `replay_stream/parallel` rows measure the
//! fully streaming pipeline: the workload is consumed straight off its
//! source (synthesis included, nothing frozen, nothing materialized)
//! in summary mode. The `sim/trace_driven_pool` row exercises the
//! `run_many` worker pool. The `trace_io/{encode,decode}_bytes_per_sec`
//! rows measure the v2 compact trace codec (decode includes the
//! admission pass), with `trace_io/compact_vs_v1_size` recording the
//! compact-vs-v1 size ratio. The `serve/clients_{1,2,4,8,16,32}` rows
//! drive the closed-loop serving model (`Engine::Serve`) at each
//! client count, recording wall-clock engine throughput plus the
//! deterministic virtual-clock rps and p99 latency. The
//! `scenario/{zipf,burst,phase,share}` rows measure each scenario
//! family as a fully streaming serial replay, `scenario/rand_1page`
//! does the same for the page table's worst shape (single-page
//! uniformly random misses), and `scenario/fault`
//! drives the scheduled simulator through a degraded-disk fault plan.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use clio_bench::{measure, MeasurementConfig, Stats};
use serde::Serialize;

use clio_core::cache::cache::CacheConfig;
use clio_core::cache::page::pages_touched;
use clio_core::cache::policy::ReplacementPolicy;
use clio_core::exp::{run_many, Engine, Experiment, ReportMode, Scenario, Workload};
use clio_core::sim::MachineConfig;
use clio_core::trace::record::IoOp;
use clio_core::trace::source::TraceSource;
use clio_core::trace::synth::{synthesize, TraceProfile};
use clio_core::trace::TraceFile;

/// One measured benchmark with its derived rates.
#[derive(Debug, Serialize)]
struct PerfEntry {
    name: String,
    kind: String,
    policy: Option<String>,
    records: u64,
    threads: Option<u64>,
    shards: Option<u64>,
    samples: u64,
    iters_per_sample: u64,
    outliers_rejected: u64,
    measurement_time_ms: f64,
    median_ms: f64,
    mad_ms: f64,
    records_per_sec: f64,
    pages_per_sec: Option<f64>,
    events_per_sec: Option<f64>,
    bytes_per_sec: f64,
    /// Closed-loop clients (`serve/*` rows only).
    clients: Option<u64>,
    /// Virtual-clock throughput of the serving model (deterministic,
    /// unlike the wall-clock rates).
    virtual_rps: Option<f64>,
    /// Virtual-clock p50 request latency of the serving model, ms.
    p50_virtual_ms: Option<f64>,
    /// Virtual-clock p95 request latency of the serving model, ms.
    p95_virtual_ms: Option<f64>,
    /// Virtual-clock p99 request latency of the serving model, ms.
    p99_virtual_ms: Option<f64>,
    /// Virtual-clock p99.9 request latency of the serving model, ms.
    p999_virtual_ms: Option<f64>,
    /// v2-compact-to-v1 size ratio (`trace_io/*` rows only).
    compact_ratio: Option<f64>,
}

/// The whole baseline report.
#[derive(Debug, Serialize)]
struct PerfBaseline {
    schema: String,
    mode: String,
    report: String,
    workload: String,
    replay_records: u64,
    sim_records: u64,
    benches: Vec<PerfEntry>,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    smoke: bool,
    list: bool,
    replay_ops: usize,
    sim_ops: usize,
    threads: usize,
    shards: usize,
    workload: String,
    report: ReportMode,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: perf_suite [--smoke] [--records N] [--sim-records N] \
                     [--threads T] [--shards S] [--workload SPEC] \
                     [--report full|summary] [--list] [--out PATH]";

/// `env_smoke` is `CLIO_PERF_SMOKE`'s verdict, passed in (rather than
/// read here) so tests are independent of the ambient environment.
fn parse_args(argv: &[String], env_smoke: bool) -> Result<Args, String> {
    let mut args = Args {
        smoke: env_smoke,
        list: false,
        replay_ops: 0,
        sim_ops: 0,
        threads: 4,
        shards: 16,
        workload: "synth".to_string(),
        report: ReportMode::Full,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            "--records" => {
                let v = it.next().ok_or("--records needs a value")?;
                args.replay_ops = v.parse().map_err(|_| format!("bad --records {v}"))?;
            }
            "--sim-records" => {
                let v = it.next().ok_or("--sim-records needs a value")?;
                args.sim_ops = v.parse().map_err(|_| format!("bad --sim-records {v}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|_| format!("bad --threads {v}"))?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                let s: usize = v.parse().map_err(|_| format!("bad --shards {v}"))?;
                if s == 0 {
                    return Err("--shards must be at least 1".into());
                }
                args.shards = s;
            }
            "--workload" => {
                let v = it.next().ok_or("--workload needs a value")?;
                // Validate the spec at parse time so a typo exits with
                // usage rather than surfacing mid-run. The scenario
                // grammar subsumes the workload grammar, so scenario
                // wrappers and `fault:` specs are accepted here too.
                Scenario::parse(v)?;
                args.workload = v.clone();
            }
            "--report" => {
                let v = it.next().ok_or("--report needs a value")?;
                args.report = match v.as_str() {
                    "full" => ReportMode::Full,
                    "summary" => ReportMode::Summary,
                    other => return Err(format!("bad --report {other} (full or summary)")),
                };
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                args.out = Some(PathBuf::from(v));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.replay_ops == 0 {
        args.replay_ops = if args.smoke { 5_000 } else { 100_000 };
    }
    if args.sim_ops == 0 {
        args.sim_ops = if args.smoke { 20_000 } else { 1_000_000 };
    }
    Ok(args)
}

/// Row names — the single source for both `--list` and the
/// measurement loop, so the two cannot drift apart.
fn serial_row(policy: ReplacementPolicy) -> String {
    format!("replay/{}", policy.name())
}

/// Sharded-parallel counterpart of [`serial_row`].
fn parallel_row(policy: ReplacementPolicy) -> String {
    format!("replay_par/{}", policy.name())
}

/// The trace-driven simulator row.
const SIM_ROW: &str = "sim/trace_driven";

/// The `run_many` worker-pool row.
const POOL_ROW: &str = "sim/trace_driven_pool";

/// End-to-end streaming serial replay (summary mode, workload consumed
/// straight off its source — synthesis included, nothing materialized).
const STREAM_SERIAL_ROW: &str = "replay_stream/serial";

/// End-to-end streaming parallel replay (one stream per worker).
const STREAM_PARALLEL_ROW: &str = "replay_stream/parallel";

/// v2 compact encode throughput (v1-equivalent bytes per second).
const TRACE_ENCODE_ROW: &str = "trace_io/encode_bytes_per_sec";

/// v2 compact verified-decode throughput (v1-equivalent bytes per
/// second; every iteration re-runs the admission pass and drains the
/// stream).
const TRACE_DECODE_ROW: &str = "trace_io/decode_bytes_per_sec";

/// The compact-vs-v1 size row: no timing, just the ratio.
const TRACE_RATIO_ROW: &str = "trace_io/compact_vs_v1_size";

/// Client counts of the closed-loop serving rows.
const SERVE_LEVELS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The scenario-engine rows: each scenario family measured end to end
/// as a streaming serial replay (summary mode), keyed `(row suffix,
/// spec)`.
const SCENARIO_SPECS: [(&str, &str); 4] = [
    ("zipf", "zipf:0.9"),
    ("burst", "burst:64x256"),
    ("phase", "phase:4"),
    ("share", "share:seq,rand"),
];

/// The group index's worst shape, kept in the baseline so it has a
/// number: `rand` with every request one byte at a uniformly random
/// offset of a 1 GiB file — exactly one page — into the default
/// 16 384-page cache. Nearly every page misses alone, so every page
/// opens an index group and closes one. (A 4 KiB request at a random
/// byte offset would not do: it spans two neighbouring pages, which
/// share a group seven times in eight.)
const SINGLE_PAGE_KEY: &str = "rand_1page";

/// The fault scenario row: Zipf-skewed synthesis through the scheduled
/// simulator on a degraded disk (slow window + transient errors).
const SCENARIO_FAULT_ROW: &str = "scenario/fault";

/// The fault scenario's spec (also a valid `--workload` value).
const SCENARIO_FAULT_SPEC: &str = "fault:slow@0-1x8+err@64:zipf:0.9";

/// A scenario-family row name.
fn scenario_row(key: &str) -> String {
    format!("scenario/{key}")
}

/// The closed-loop serving-model row at a given client count.
fn serve_row(clients: usize) -> String {
    format!("serve/clients_{clients}")
}

/// The benchmark rows this configuration would measure, in order.
fn row_names(args: &Args) -> Vec<String> {
    let mut rows = Vec::new();
    for policy in ReplacementPolicy::ALL {
        rows.push(serial_row(policy));
        if args.threads > 0 {
            rows.push(parallel_row(policy));
        }
    }
    rows.push(STREAM_SERIAL_ROW.to_string());
    if args.threads > 0 {
        rows.push(STREAM_PARALLEL_ROW.to_string());
    }
    rows.push(TRACE_ENCODE_ROW.to_string());
    rows.push(TRACE_DECODE_ROW.to_string());
    rows.push(TRACE_RATIO_ROW.to_string());
    for clients in SERVE_LEVELS {
        rows.push(serve_row(clients));
    }
    for (key, _) in SCENARIO_SPECS {
        rows.push(scenario_row(key));
    }
    rows.push(scenario_row(SINGLE_PAGE_KEY));
    rows.push(SCENARIO_FAULT_ROW.to_string());
    rows.push(SIM_ROW.to_string());
    if args.threads > 0 {
        rows.push(POOL_ROW.to_string());
    }
    rows
}

/// The replay workload: the parsed spec, rescaled to the requested
/// operation count. `synth` is the historical mixed profile (80 %
/// sequential, 20 % writes) — the same stream at top level and inside
/// `mix:`/`chain:` specs.
fn replay_workload(args: &Args) -> Workload {
    // The workload half of the scenario drives the replay rows; any
    // fault plan in the spec only bites on the scheduled-sim scenario
    // row below.
    let mut s = Scenario::parse(&args.workload).expect("spec validated during parsing");
    s.workload.scale_data_ops(args.replay_ops);
    s.workload
}

/// Walks up from the current directory to the workspace root.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn rate(count: u64, median_ns: f64) -> f64 {
    if median_ns > 0.0 {
        count as f64 * 1e9 / median_ns
    } else {
        0.0
    }
}

/// Counts the work one replay iteration performs: `(records, pages,
/// bytes)` over a stream's data operations (with repeat counts) — one
/// pass, O(1) memory.
fn count_work(source: &mut dyn TraceSource, page_size: u64) -> (u64, u64, u64) {
    let mut records = 0u64;
    let mut pages = 0u64;
    let mut bytes = 0u64;
    while let Some(r) = source.next_record() {
        records += 1;
        if matches!(r.op, IoOp::Read | IoOp::Write) {
            let repeats = r.num_records.max(1) as u64;
            pages += pages_touched(r.offset, r.length, page_size) * repeats;
            bytes += r.length * repeats;
        }
    }
    (records, pages, bytes)
}

/// [`count_work`] over a materialized trace.
fn replay_work(trace: &TraceFile, page_size: u64) -> (u64, u64, u64) {
    count_work(&mut clio_core::trace::source::SliceSource::new(trace), page_size)
}

/// [`count_work`] over a fresh stream of a workload — the streaming
/// rows never materialize.
fn replay_work_source(workload: &Workload, page_size: u64) -> (u64, u64, u64) {
    count_work(&mut *workload.open().expect("workload opens"), page_size)
}

fn entry_from_stats(name: &str, kind: &str, policy: Option<&str>, stats: &Stats) -> PerfEntry {
    PerfEntry {
        name: name.to_string(),
        kind: kind.to_string(),
        policy: policy.map(str::to_string),
        records: 0,
        threads: None,
        shards: None,
        samples: stats.samples as u64,
        iters_per_sample: stats.iters_per_sample,
        outliers_rejected: stats.outliers_rejected as u64,
        measurement_time_ms: stats.total_time.as_secs_f64() * 1e3,
        median_ms: stats.median_ns / 1e6,
        mad_ms: stats.mad_ns / 1e6,
        records_per_sec: 0.0,
        pages_per_sec: None,
        events_per_sec: None,
        bytes_per_sec: 0.0,
        clients: None,
        virtual_rps: None,
        p50_virtual_ms: None,
        p95_virtual_ms: None,
        p99_virtual_ms: None,
        p999_virtual_ms: None,
        compact_ratio: None,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let env_smoke = std::env::var_os("CLIO_PERF_SMOKE").is_some_and(|v| v != "0");
    let args = match parse_args(&argv, env_smoke) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_suite: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    if args.list {
        for row in row_names(&args) {
            println!("{row}");
        }
        return;
    }

    clio_bench::banner(
        "perf_suite",
        "Replay + cache-policy + trace-driven-simulator throughput baseline",
    );

    // Materialize the replay workload up front (the measured loops
    // replay a frozen Arc — they never re-synthesize or re-load), so
    // the banner can report the records the run actually measures.
    // `--records` scales synthetic workload parts only; app/file
    // workloads keep their intrinsic size.
    let trace = replay_workload(&args).materialize().unwrap_or_else(|e| {
        eprintln!("perf_suite: cannot materialize workload {}: {e}", args.workload);
        std::process::exit(1);
    });
    let frozen = Workload::Trace(trace.clone());
    let page_size = CacheConfig::default().page_size;
    let (records, pages, bytes) = replay_work(&trace, page_size);

    let mode = if args.smoke { "smoke" } else { "full" };
    let report_mode = match args.report {
        ReportMode::Full => "full",
        ReportMode::Summary => "summary",
    };
    println!(
        "mode: {mode} (workload {}, {} replay records, {} sim data-ops, {} threads x {} shards, \
         {report_mode} reports)\n",
        args.workload, records, args.sim_ops, args.threads, args.shards
    );

    // Measurement knobs: the smoke run must finish in CI seconds; the
    // full run favors sample count.
    let mut cfg = MeasurementConfig::default();
    if args.smoke {
        cfg.sample_size = cfg.sample_size.min(5);
        cfg.measurement_time = cfg.measurement_time.min(Duration::from_millis(50));
        cfg.warm_up_time = cfg.warm_up_time.min(Duration::from_millis(10));
    }

    let mut benches = Vec::new();

    // --- Cache-policy replay: the selected workload through all five
    // replacement policies. ---

    for policy in ReplacementPolicy::ALL {
        let config = CacheConfig { policy, ..Default::default() };
        let exp = Experiment::builder()
            .workload(frozen.clone())
            .engine(Engine::SerialReplay)
            .cache(config.clone())
            .report_mode(args.report)
            .build()
            .expect("serial replay experiment is valid");
        let stats = measure(&cfg, |b| b.iter(|| exp.run().expect("replay runs")));
        let name = serial_row(policy);
        println!(
            "{name:<24} median {:>10.3} ms  {:>12.0} records/s  {:>14.0} bytes/s",
            stats.median_ns / 1e6,
            rate(records, stats.median_ns),
            rate(bytes, stats.median_ns),
        );
        let mut e = entry_from_stats(&name, "cache_replay", Some(policy.name()), &stats);
        e.records = records;
        e.records_per_sec = rate(records, stats.median_ns);
        e.pages_per_sec = Some(rate(pages, stats.median_ns));
        e.bytes_per_sec = rate(bytes, stats.median_ns);
        let serial_median_ns = stats.median_ns;
        benches.push(e);

        // The sharded counterpart: same workload, same policy, through
        // the lock-striped cache and its worker pool. The printed
        // speedup is sharded-vs-serial on this machine's core count.
        if args.threads > 0 {
            let exp = Experiment::builder()
                .workload(frozen.clone())
                .engine(Engine::ParallelReplay)
                .cache(config.clone())
                .threads(args.threads)
                .shards(args.shards)
                .report_mode(args.report)
                .build()
                .expect("parallel replay experiment is valid");
            let stats = measure(&cfg, |b| b.iter(|| exp.run().expect("parallel replay runs")));
            let name = parallel_row(policy);
            println!(
                "{name:<24} median {:>10.3} ms  {:>12.0} records/s  {:>10.2}x vs serial",
                stats.median_ns / 1e6,
                rate(records, stats.median_ns),
                serial_median_ns / stats.median_ns.max(1.0),
            );
            let mut e =
                entry_from_stats(&name, "cache_replay_parallel", Some(policy.name()), &stats);
            e.records = records;
            // Record what the engine actually used: it clamps the
            // worker count to the shard count.
            e.threads = Some(args.threads.clamp(1, args.shards) as u64);
            e.shards = Some(args.shards as u64);
            e.records_per_sec = rate(records, stats.median_ns);
            e.pages_per_sec = Some(rate(pages, stats.median_ns));
            e.bytes_per_sec = rate(bytes, stats.median_ns);
            benches.push(e);
        }
    }

    // --- End-to-end streaming replay: the *unfrozen* workload,
    // consumed straight off its source every iteration (synthesis
    // included), in summary mode — the >memory-trace configuration.
    // The work counts come from a streaming pass too; with the exact
    // SynthSource size hints, nothing here ever materializes. ---
    {
        let streaming = replay_workload(&args);
        let (s_records, s_pages, s_bytes) = replay_work_source(&streaming, page_size);
        let stream_exp = Experiment::builder()
            .workload(streaming.clone())
            .engine(Engine::SerialReplay)
            .report_mode(ReportMode::Summary)
            .build()
            .expect("streaming serial experiment is valid");
        let stats = measure(&cfg, |b| b.iter(|| stream_exp.run().expect("streaming replay runs")));
        println!(
            "{STREAM_SERIAL_ROW:<24} median {:>10.3} ms  {:>12.0} records/s  {:>14.0} bytes/s",
            stats.median_ns / 1e6,
            rate(s_records, stats.median_ns),
            rate(s_bytes, stats.median_ns),
        );
        let mut e = entry_from_stats(STREAM_SERIAL_ROW, "cache_replay_stream", None, &stats);
        e.records = s_records;
        e.records_per_sec = rate(s_records, stats.median_ns);
        e.pages_per_sec = Some(rate(s_pages, stats.median_ns));
        e.bytes_per_sec = rate(s_bytes, stats.median_ns);
        benches.push(e);

        if args.threads > 0 {
            let stream_par = Experiment::builder()
                .workload(streaming)
                .engine(Engine::ParallelReplay)
                .threads(args.threads)
                .shards(args.shards)
                .report_mode(ReportMode::Summary)
                .build()
                .expect("streaming parallel experiment is valid");
            let stats =
                measure(&cfg, |b| b.iter(|| stream_par.run().expect("streaming replay runs")));
            println!(
                "{STREAM_PARALLEL_ROW:<24} median {:>10.3} ms  {:>12.0} records/s  \
                 {:>14.0} bytes/s",
                stats.median_ns / 1e6,
                rate(s_records, stats.median_ns),
                rate(s_bytes, stats.median_ns),
            );
            let mut e = entry_from_stats(STREAM_PARALLEL_ROW, "cache_replay_stream", None, &stats);
            e.records = s_records;
            e.threads = Some(args.threads.clamp(1, args.shards) as u64);
            e.shards = Some(args.shards as u64);
            e.records_per_sec = rate(s_records, stats.median_ns);
            e.pages_per_sec = Some(rate(s_pages, stats.median_ns));
            e.bytes_per_sec = rate(s_bytes, stats.median_ns);
            benches.push(e);
        }
    }

    // --- Trace I/O: the v2 compact codec over the materialized replay
    // trace — encode throughput, verified-decode throughput (every
    // iteration re-runs the admission pass and drains the stream), and
    // the compact-vs-v1 size ratio. Byte rates are in v1-equivalent
    // (raw) bytes, the "decode at disk speed" figure of merit. ---
    {
        use clio_core::trace::compact;
        let v1_len = trace.to_bytes().len() as u64;
        let encoded = Arc::new(compact::encode_trace(&trace).expect("compact encode succeeds"));
        let compact_ratio = encoded.len() as f64 / v1_len as f64;

        let stats = measure(&cfg, |b| {
            b.iter(|| compact::encode_trace(&trace).expect("compact encode succeeds"))
        });
        println!(
            "{TRACE_ENCODE_ROW:<24} median {:>10.3} ms  {:>12.0} records/s  {:>14.0} bytes/s",
            stats.median_ns / 1e6,
            rate(records, stats.median_ns),
            rate(v1_len, stats.median_ns),
        );
        let mut e = entry_from_stats(TRACE_ENCODE_ROW, "trace_io", None, &stats);
        e.records = records;
        e.records_per_sec = rate(records, stats.median_ns);
        e.bytes_per_sec = rate(v1_len, stats.median_ns);
        e.compact_ratio = Some(compact_ratio);
        benches.push(e);

        let stats = measure(&cfg, |b| {
            b.iter(|| {
                let mut src = compact::CompactSource::from_bytes(encoded.clone())
                    .expect("verified decode succeeds");
                let mut n = 0u64;
                while src.next_record().is_some() {
                    n += 1;
                }
                n
            })
        });
        println!(
            "{TRACE_DECODE_ROW:<24} median {:>10.3} ms  {:>12.0} records/s  {:>14.0} bytes/s",
            stats.median_ns / 1e6,
            rate(records, stats.median_ns),
            rate(v1_len, stats.median_ns),
        );
        let mut e = entry_from_stats(TRACE_DECODE_ROW, "trace_io", None, &stats);
        e.records = records;
        e.records_per_sec = rate(records, stats.median_ns);
        e.bytes_per_sec = rate(v1_len, stats.median_ns);
        e.compact_ratio = Some(compact_ratio);
        benches.push(e);

        // The size row carries no timing — rates stay zero so the perf
        // gate skips it; the ratio is the datum.
        println!(
            "{TRACE_RATIO_ROW:<24} v1 {v1_len:>10} B  v2 {:>10} B  ratio {compact_ratio:>8.3}",
            encoded.len(),
        );
        let size_stats = Stats {
            samples: 0,
            iters_per_sample: 0,
            outliers_rejected: 0,
            median_ns: 0.0,
            mean_ns: 0.0,
            mad_ns: 0.0,
            min_ns: 0.0,
            max_ns: 0.0,
            total_time: Duration::ZERO,
        };
        let mut e = entry_from_stats(TRACE_RATIO_ROW, "trace_io_size", None, &size_stats);
        e.records = records;
        e.compact_ratio = Some(compact_ratio);
        benches.push(e);
    }

    // --- Closed-loop serving model: N virtual clients over the shared
    // managed runtime, one row per client count. Requests per client
    // shrink as clients grow, so every row serves the same total and
    // the wall-clock rates compare across levels. The virtual-clock
    // throughput and p99 ride along — deterministic, so they diff
    // exactly across baselines. ---
    {
        let streaming = replay_workload(&args);
        for clients in SERVE_LEVELS {
            let exp = Experiment::builder()
                .workload(streaming.clone())
                .engine(Engine::Serve)
                .clients(clients)
                .requests_per_client((args.replay_ops / clients).max(1))
                .shards(args.shards)
                .report_mode(ReportMode::Summary)
                .build()
                .expect("serve experiment is valid");
            let probe =
                exp.run().expect("serve runs").serve.expect("the serve engine fills its section");
            let stats = measure(&cfg, |b| b.iter(|| exp.run().expect("serve runs")));
            let name = serve_row(clients);
            println!(
                "{name:<24} median {:>10.3} ms  {:>12.0} requests/s  {:>10.0} virtual rps",
                stats.median_ns / 1e6,
                rate(probe.requests, stats.median_ns),
                probe.throughput_rps.unwrap_or_default(),
            );
            let mut e = entry_from_stats(&name, "serve_model", None, &stats);
            e.records = probe.requests;
            e.records_per_sec = rate(probe.requests, stats.median_ns);
            e.shards = Some(args.shards as u64);
            e.clients = Some(clients as u64);
            e.virtual_rps = probe.throughput_rps;
            e.p50_virtual_ms = probe.p50_ms;
            e.p95_virtual_ms = probe.p95_ms;
            e.p99_virtual_ms = probe.p99_ms;
            e.p999_virtual_ms = probe.p999_ms;
            benches.push(e);
        }
    }

    // --- Scenario engine: each scenario family measured end to end as
    // a streaming serial replay (summary mode, synthesis included) —
    // skewed popularity, burst arrivals, phased working sets, and the
    // shared-file mix all cost differently per record, so each family
    // gets its own throughput row. ---
    let single_page =
        Workload::Synthetic(TraceProfile { request_size: (1, 1), ..TraceProfile::cholesky_like() });
    let scenarios = SCENARIO_SPECS
        .iter()
        .map(|&(key, spec)| (key, Scenario::parse(spec).expect("scenario spec parses").workload))
        .chain([(SINGLE_PAGE_KEY, single_page)]);
    for (key, mut workload) in scenarios {
        workload.scale_data_ops(args.replay_ops);
        let (s_records, s_pages, s_bytes) = replay_work_source(&workload, page_size);
        let exp = Experiment::builder()
            .workload(workload)
            .engine(Engine::SerialReplay)
            .report_mode(ReportMode::Summary)
            .build()
            .expect("scenario experiment is valid");
        let stats = measure(&cfg, |b| b.iter(|| exp.run().expect("scenario replay runs")));
        let name = scenario_row(key);
        println!(
            "{name:<24} median {:>10.3} ms  {:>12.0} records/s  {:>14.0} bytes/s",
            stats.median_ns / 1e6,
            rate(s_records, stats.median_ns),
            rate(s_bytes, stats.median_ns),
        );
        let mut e = entry_from_stats(&name, "scenario_replay", None, &stats);
        e.records = s_records;
        e.records_per_sec = rate(s_records, stats.median_ns);
        e.pages_per_sec = Some(rate(s_pages, stats.median_ns));
        e.bytes_per_sec = rate(s_bytes, stats.median_ns);
        benches.push(e);
    }

    // The fault scenario drives the scheduled simulator: a degraded
    // disk (slow window, transient errors with retry) under skewed
    // load — the one engine whose costs the fault plan reaches.
    {
        let mut sc = Scenario::parse(SCENARIO_FAULT_SPEC).expect("fault scenario parses");
        sc.workload.scale_data_ops(args.replay_ops);
        let fault_exp = Experiment::builder()
            .scenario(sc)
            .engine(Engine::ScheduledSim)
            .build()
            .expect("fault scenario experiment is valid");
        let probe =
            fault_exp.run().expect("fault sim runs").sim.expect("scheduled sim fills its section");
        let stats = measure(&cfg, |b| b.iter(|| fault_exp.run().expect("fault sim runs")));
        println!(
            "{SCENARIO_FAULT_ROW:<24} median {:>10.3} ms  {:>12.0} events/s  {:>14.0} bytes/s",
            stats.median_ns / 1e6,
            rate(probe.events, stats.median_ns),
            rate(probe.bytes_moved, stats.median_ns),
        );
        let mut e = entry_from_stats(SCENARIO_FAULT_ROW, "scenario_sim", None, &stats);
        e.records = probe.records;
        e.records_per_sec = rate(probe.records, stats.median_ns);
        e.events_per_sec = Some(rate(probe.events, stats.median_ns));
        e.bytes_per_sec = rate(probe.bytes_moved, stats.median_ns);
        benches.push(e);
    }

    // --- Trace-driven machine simulation: a large four-process trace
    // contending for a four-disk array. ---
    let sim_profile = TraceProfile {
        data_ops: args.sim_ops,
        write_fraction: 0.3,
        sequentiality: 0.7,
        seed: 0xBA5E,
        ..Default::default()
    };
    let mut sim_records = synthesize(&sim_profile).records;
    for (i, r) in sim_records.iter_mut().enumerate() {
        r.pid = (i % 4) as u32;
    }
    let sim_trace = Arc::new(
        TraceFile::build("perf-sim.dat", 4, sim_records).expect("synthesized trace is valid"),
    );
    let machine = MachineConfig::with_disks(4);
    let sim_exp = Experiment::builder()
        .workload(Workload::Trace(sim_trace.clone()))
        .engine(Engine::TraceSim)
        .machine(machine.clone())
        .build()
        .expect("trace-sim experiment is valid");
    let probe = sim_exp.run().expect("sim runs").sim.expect("trace sim fills the sim section");
    let sim_cfg = MeasurementConfig { sample_size: cfg.sample_size.min(10), ..cfg };
    let stats = measure(&sim_cfg, |b| b.iter(|| sim_exp.run().expect("sim runs")));
    println!(
        "{SIM_ROW:<24} median {:>10.3} ms  {:>12.0} events/s  {:>14.0} bytes/s",
        stats.median_ns / 1e6,
        rate(probe.events, stats.median_ns),
        rate(probe.bytes_moved, stats.median_ns),
    );
    let mut e = entry_from_stats(SIM_ROW, "trace_sim", None, &stats);
    e.records = sim_trace.len() as u64;
    e.records_per_sec = rate(sim_trace.len() as u64, stats.median_ns);
    e.events_per_sec = Some(rate(probe.events, stats.median_ns));
    e.bytes_per_sec = rate(probe.bytes_moved, stats.median_ns);
    benches.push(e);

    // --- Worker-pool driver: the same simulated workload split into
    // four independent experiments drained by `run_many`'s pool. ---
    if args.threads > 0 {
        let pool_experiments: Vec<Experiment> = (0..4u64)
            .map(|i| {
                let trace = Arc::new(synthesize(&TraceProfile {
                    data_ops: (args.sim_ops / 4).max(1),
                    write_fraction: 0.3,
                    sequentiality: 0.7,
                    seed: 0xBA5E + 1 + i,
                    ..Default::default()
                }));
                Experiment::builder()
                    .workload(Workload::Trace(trace))
                    .engine(Engine::TraceSim)
                    .machine(machine.clone())
                    .build()
                    .expect("pool experiment is valid")
            })
            .collect();
        let pool_probe = run_many(&pool_experiments, args.threads).expect("pool runs");
        let sims: Vec<_> =
            pool_probe.iter().map(|r| r.sim.as_ref().expect("sim section")).collect();
        let pool_events: u64 = sims.iter().map(|r| r.events).sum();
        let pool_bytes: u64 = sims.iter().map(|r| r.bytes_moved).sum();
        let pool_records: u64 = pool_probe.iter().map(|r| r.records).sum();
        let stats = measure(&sim_cfg, |b| {
            b.iter(|| run_many(&pool_experiments, args.threads).expect("pool runs"))
        });
        println!(
            "{POOL_ROW:<24} median {:>10.3} ms  {:>12.0} events/s  {:>14.0} bytes/s",
            stats.median_ns / 1e6,
            rate(pool_events, stats.median_ns),
            rate(pool_bytes, stats.median_ns),
        );
        let mut e = entry_from_stats(POOL_ROW, "run_many_pool", None, &stats);
        e.records = pool_records;
        // The pool clamps its worker count to the job count.
        e.threads = Some(args.threads.clamp(1, pool_experiments.len()) as u64);
        e.records_per_sec = rate(pool_records, stats.median_ns);
        e.events_per_sec = Some(rate(pool_events, stats.median_ns));
        e.bytes_per_sec = rate(pool_bytes, stats.median_ns);
        benches.push(e);
    }

    let report = PerfBaseline {
        schema: "clio-perf-baseline-v8".to_string(),
        mode: mode.to_string(),
        report: report_mode.to_string(),
        workload: args.workload.clone(),
        replay_records: records,
        sim_records: sim_trace.len() as u64,
        benches,
    };

    let out_path = args.out.unwrap_or_else(|| {
        let root = workspace_root();
        if args.smoke {
            root.join("target").join("perf_smoke.json")
        } else {
            root.join("BENCH_baseline.json")
        }
    });
    let json = serde_json::to_string_pretty(&report).expect("baseline serializes");
    if let Some(parent) = out_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out_path, json.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out_path.display()));
    println!("\nwrote {}", out_path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_scale_with_mode() {
        let full = parse_args(&[], false).unwrap();
        assert!(!full.smoke);
        let smoke = parse_args(&s(&["--smoke"]), false).unwrap();
        assert!(smoke.smoke);
        assert!(smoke.replay_ops < full.replay_ops);
        assert!(smoke.sim_ops < full.sim_ops);
        // The env verdict alone also selects smoke sizing.
        let env_smoke = parse_args(&[], true).unwrap();
        assert_eq!(env_smoke.replay_ops, smoke.replay_ops);
    }

    #[test]
    fn explicit_sizes_and_out() {
        let a =
            parse_args(&s(&["--records", "123", "--sim-records", "456", "--out", "x.json"]), false)
                .unwrap();
        assert_eq!(a.replay_ops, 123);
        assert_eq!(a.sim_ops, 456);
        assert_eq!(a.out, Some(PathBuf::from("x.json")));
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse_args(&s(&["--nope"]), false).is_err());
        assert!(parse_args(&s(&["--records"]), false).is_err());
        // The typo the silent-ignore era would have swallowed.
        assert!(parse_args(&s(&["--thread", "4"]), false).is_err());
    }

    #[test]
    fn threads_and_shards_parse_and_validate() {
        let a = parse_args(&s(&["--threads", "8", "--shards", "32"]), false).unwrap();
        assert_eq!(a.threads, 8);
        assert_eq!(a.shards, 32);
        let defaults = parse_args(&[], false).unwrap();
        assert_eq!(defaults.threads, 4, "serial-vs-sharded rows emitted by default");
        assert_eq!(defaults.shards, 16);
        assert_eq!(parse_args(&s(&["--threads", "0"]), false).unwrap().threads, 0);
        assert!(parse_args(&s(&["--shards", "0"]), false).is_err());
        assert!(parse_args(&s(&["--threads", "x"]), false).is_err());
    }

    #[test]
    fn workload_specs_validate_at_parse_time() {
        let a = parse_args(&s(&["--workload", "mix:dmine,lu"]), false).unwrap();
        assert_eq!(a.workload, "mix:dmine,lu");
        assert!(parse_args(&s(&["--workload", "nope"]), false).is_err());
        assert!(parse_args(&s(&["--workload", "mix:dmine*0,lu"]), false).is_err());
        assert!(parse_args(&s(&["--workload"]), false).is_err());
        // The scenario grammar is accepted wholesale.
        for spec in ["zipf:0.9", "burst:64x256", "phase:4", "share:seq,rand", SCENARIO_FAULT_SPEC] {
            assert!(parse_args(&s(&["--workload", spec]), false).is_ok(), "{spec}");
        }
        assert!(parse_args(&s(&["--workload", "zipf:0"]), false).is_err());
        assert!(parse_args(&s(&["--workload", "fault:wat@1:synth"]), false).is_err());
    }

    #[test]
    fn scenario_specs_stay_parseable_and_scale() {
        // Every committed scenario row's spec must parse and rescale,
        // or the measurement loop would panic.
        for (_, spec) in SCENARIO_SPECS {
            let mut sc = Scenario::parse(spec).unwrap();
            sc.workload.scale_data_ops(500);
            assert!(sc.workload.open().is_ok(), "{spec}");
        }
        let sc = Scenario::parse(SCENARIO_FAULT_SPEC).unwrap();
        assert!(sc.has_faults());
    }

    #[test]
    fn list_enumerates_rows() {
        let a = parse_args(&s(&["--list"]), false).unwrap();
        assert!(a.list);
        let rows = row_names(&a);
        assert!(rows.contains(&serial_row(ReplacementPolicy::Lru)));
        assert!(rows.contains(&parallel_row(ReplacementPolicy::Lru)));
        assert!(rows.contains(&STREAM_SERIAL_ROW.to_string()));
        assert!(rows.contains(&STREAM_PARALLEL_ROW.to_string()));
        assert!(rows.contains(&TRACE_ENCODE_ROW.to_string()));
        assert!(rows.contains(&TRACE_DECODE_ROW.to_string()));
        assert!(rows.contains(&TRACE_RATIO_ROW.to_string()));
        assert!(rows.contains(&SIM_ROW.to_string()));
        assert!(rows.contains(&POOL_ROW.to_string()));
        for clients in SERVE_LEVELS {
            assert!(rows.contains(&serve_row(clients)));
        }
        for (key, _) in SCENARIO_SPECS {
            assert!(rows.contains(&scenario_row(key)));
        }
        assert!(rows.contains(&SCENARIO_FAULT_ROW.to_string()));
        // With threads disabled, the sharded, streaming-parallel and
        // pool rows vanish.
        let serial = parse_args(&s(&["--threads", "0"]), false).unwrap();
        let rows = row_names(&serial);
        assert!(!rows.iter().any(|r| r.starts_with("replay_par/")));
        assert!(rows.contains(&STREAM_SERIAL_ROW.to_string()));
        assert!(!rows.contains(&STREAM_PARALLEL_ROW.to_string()));
        assert!(!rows.contains(&POOL_ROW.to_string()));
    }

    #[test]
    fn report_mode_parses_and_validates() {
        assert_eq!(parse_args(&[], false).unwrap().report, ReportMode::Full);
        let a = parse_args(&s(&["--report", "summary"]), false).unwrap();
        assert_eq!(a.report, ReportMode::Summary);
        let a = parse_args(&s(&["--report", "full"]), false).unwrap();
        assert_eq!(a.report, ReportMode::Full);
        assert!(parse_args(&s(&["--report", "tiny"]), false).is_err());
        assert!(parse_args(&s(&["--report"]), false).is_err());
    }

    #[test]
    fn streaming_work_counts_match_materialized_counts() {
        let args = parse_args(&s(&["--records", "120"]), false).unwrap();
        let w = replay_workload(&args);
        let trace = w.materialize().unwrap();
        let streamed = replay_work_source(&w, 4096);
        assert_eq!(streamed, replay_work(&trace, 4096));
    }

    #[test]
    fn default_workload_is_the_historical_mixed_profile() {
        let args = parse_args(&s(&["--records", "77"]), false).unwrap();
        match replay_workload(&args) {
            Workload::Synthetic(p) => {
                assert_eq!(p.data_ops, 77);
                assert_eq!(p.write_fraction, 0.2);
                assert_eq!(p.sequentiality, 0.8);
            }
            other => panic!("unexpected workload {other:?}"),
        }
    }

    #[test]
    fn named_workloads_rescale_their_synthetic_parts() {
        let args =
            parse_args(&s(&["--workload", "mix:seq,rand", "--records", "31"]), false).unwrap();
        let w = replay_workload(&args);
        let trace = w.materialize().unwrap();
        // Two synthetic sides of 31 data ops each, plus opens/closes
        // and the explicit seeks of the random side.
        assert!(trace.len() as u64 >= 62, "got {}", trace.len());
    }

    #[test]
    fn rate_handles_zero() {
        assert_eq!(rate(100, 0.0), 0.0);
        assert_eq!(rate(100, 1e9), 100.0);
    }

    #[test]
    fn replay_work_counts_data_ops_only() {
        let t = synthesize(&TraceProfile { data_ops: 50, ..Default::default() });
        let (records, pages, bytes) = replay_work(&t, 4096);
        assert_eq!(records, t.len() as u64);
        assert!(pages > 0);
        assert!(bytes > 0);
    }
}
