//! The single source of workload and metric names, units, directions,
//! bounds and "moves" notes. `--list` prints it, every output is keyed
//! by it, and a unit test holds `BENCHMARK.json` equal to it.

use serde_json::{Number, Value};

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/clio_e2e/Cargo.toml",
    "--",
];

/// The directory that holds the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["crates/bench/src/bin/clio_e2e"];

/// How long one run measures, in seconds (the driver's `--seconds`).
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// One line: why the workload exists and which layers it stresses.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "replay_hot",
        why: "frozen trace that fits the cache (hit ratio >= 0.95), swept over all 7 policies: \
              the BufferCache hit path and PolicySet::touch do the work, source and codec none",
    },
    WorkloadDef {
        name: "replay_thrash",
        why: "streamed synthesis into a 128x oversubscribed cache (hit ratio <= 0.15), all 7 \
              policies: miss, insert, pop_victim and dirty write-back, the opposite cache path",
    },
    WorkloadDef {
        name: "replay_par",
        why: "the only real-thread workload: share:seq,rand through ParallelReplay on \
              min(nproc,2) threads x 16 shards, so shard routing, locks and the merge dominate",
    },
    WorkloadDef {
        name: "ingest_v2",
        why: "a v2 .clc2 file through load, CRC, structural admission, decode and strict V01-V09 \
              verify before a short hit-path replay: the codec and verifier are most of the rep",
    },
    WorkloadDef {
        name: "sim_machine",
        why: "a faulted two-process mix through TraceSim then ScheduledSim: discovery pass, \
              PidSplitter, event heap, disk queues and retries; clio-cache does no work at all",
    },
    WorkloadDef {
        name: "serve_closed",
        why: "closed loop, 8 virtual clients x 7500 requests, think 0 ms, zipf:0.9: \
              SharedManagedIo, the sharded cache through its locks, PercentileSink per request",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "input synthesis/encode/file write + build() + one warm-up rep + output \
                     checks; median of 5 set-ups per run",
    },
    EndToEnd {
        name: "records_per_s",
        unit: "records/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "trace records consumed per rep / lower-decile rep wall time (policy sweeps \
                     count records x 7)",
    },
    EndToEnd {
        name: "norm_cost",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        definition: "lower decile over reps of rep wall time / mean of its two bracketing \
                     calibration-kernel times; cancels host speed drift",
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
        definition: "median over reps of the heap high-water mark above the rep's starting \
                     level, from the counting global allocator",
    },
];

/// Lower-cased `ReplacementPolicy::ALL` names, in ablation order; a
/// test holds this equal to the enum.
pub const POLICIES: [&str; 7] = ["lru", "clock", "fifo", "2q", "slru", "sieve", "arc"];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// A count or virtual-clock value that must repeat bit-for-bit for
    /// one seed.
    pub exact: bool,
    /// Which end-to-end metric on which workload the row should move.
    pub moves: &'static str,
}

impl PerLayer {
    /// The crate (or `serve`/`host`) the row belongs to: its prefix.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().expect("split yields at least one piece")
    }
}

const ALL_WORKLOADS: &str = "records_per_s, norm_cost on every workload";
const STREAMED: &str =
    "records_per_s, norm_cost on replay_thrash, replay_par, sim_machine, serve_closed";
const INGEST: &str = "records_per_s, norm_cost on ingest_v2";
const INGEST_SETUP: &str = "setup_s on ingest_v2";
const SIM: &str = "records_per_s, norm_cost on sim_machine";
const SERVE: &str = "records_per_s, norm_cost on serve_closed";
const CACHE: &str = "records_per_s, norm_cost on replay_hot (hit path), replay_thrash (miss \
                     path), ingest_v2 (minor); never sim_machine";
const SHARDS: &str = "records_per_s, norm_cost on replay_par, serve_closed";
const NONE_MODEL: &str = "none: model output, a speed-up must leave it identical";
const NONE_HOST: &str = "none: tells machine drift from code change";

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut row = |name: &str, unit, better, exact, moves| {
        out.push(PerLayer { name: name.to_string(), unit, better, exact, moves });
    };
    row("exp.run_ns_per_record", "ns", Lower, false, ALL_WORKLOADS);
    row("exp.self_share", "fraction", Lower, false, "largest on replay_hot");
    row("exp.unattributed_share", "fraction", Lower, false, "none: harness glue inside a rep");
    row("exp.build_us", "us", Lower, false, "setup_s on every workload");
    row("exp.rep_ms_p83", "ms", Lower, false, "the tail of what records_per_s takes the median of");
    row("exp.trace_overhead_share", "fraction", Lower, false, "none: cost of the span recorder");
    row("exp.par_speedup", "ratio", Higher, false, "records_per_s on replay_par only");
    row("exp.threads_used", "count", Higher, true, "replay_par: min(nproc, 2); 1 elsewhere");
    row("exp.serve_ns_per_request", "ns", Lower, false, SERVE);
    row("exp.allocs_per_krecord", "count", Lower, true, "peak_heap_mib, and time via malloc");
    row("trace.source_ns_per_record", "ns", Lower, false, STREAMED);
    row("trace.v2_admit_ns_per_record", "ns", Lower, false, INGEST);
    row("trace.v2_decode_ns_per_record", "ns", Lower, false, INGEST);
    row("trace.v2_encode_ns_per_record", "ns", Lower, false, INGEST_SETUP);
    row("trace.v1_decode_ns_per_record", "ns", Lower, false, "none: the v1 reference for v2");
    row("trace.verify_ns_per_record", "ns", Lower, false, INGEST);
    row("trace.scan_pids_ns_per_record", "ns", Lower, false, SIM);
    row("trace.splitter_ns_per_record", "ns", Lower, false, SIM);
    row("trace.splitter_peak_buffered", "count", Lower, true, "peak_heap_mib on sim_machine");
    row("trace.v2_vs_v1_size", "ratio", Lower, true, "setup_s on ingest_v2 (bytes written)");
    row("cache.access_ns_per_page", "ns", Lower, false, CACHE);
    for policy in POLICIES {
        row(&format!("cache.replay_ns_per_page.{policy}"), "ns", Lower, false, CACHE);
    }
    for policy in POLICIES {
        row(&format!("cache.policy_touch_ns.{policy}"), "ns", Lower, false, CACHE);
    }
    row("cache.shard_access_ns_per_page", "ns", Lower, false, SHARDS);
    row("cache.shard_imbalance", "ratio", Lower, true, "bounds exp.par_speedup on replay_par");
    row("cache.hit_ratio", "fraction", Higher, true, NONE_MODEL);
    row("cache.evictions_per_kpage", "count", Lower, true, NONE_MODEL);
    row("cache.writebacks_per_kpage", "count", Lower, true, NONE_MODEL);
    row("cache.prefetch_hit_share", "fraction", Higher, true, NONE_MODEL);
    row("sim.trace_ns_per_event", "ns", Lower, false, SIM);
    row("sim.sched_ns_per_event", "ns", Lower, false, SIM);
    row("sim.engine_ns_per_event", "ns", Lower, false, SIM);
    row("sim.events_per_record", "ratio", Lower, true, SIM);
    row("sim.retries", "count", Lower, true, NONE_MODEL);
    row("sim.dropped_requests", "count", Lower, true, NONE_MODEL);
    row("sim.makespan_s", "s", Lower, true, NONE_MODEL);
    row("sim.disk_utilization", "fraction", Higher, true, NONE_MODEL);
    row("runtime.managed_op_ns", "ns", Lower, false, SERVE);
    row("runtime.jit_ms", "ms", Lower, true, NONE_MODEL);
    row("stats.sink_record_ns", "ns", Lower, false, SERVE);
    row("stats.sink_quantile_us", "us", Lower, false, SERVE);
    row("stats.sink_buckets", "count", Lower, true, "peak_heap_mib on serve_closed");
    row("serve.virtual_rps", "1/s", Higher, true, NONE_MODEL);
    row("serve.virtual_p50_ms", "ms", Lower, true, NONE_MODEL);
    row("serve.virtual_p99_ms", "ms", Lower, true, NONE_MODEL);
    row("host.spin_ms_p50", "ms", Lower, false, NONE_HOST);
    row("host.nproc", "count", Higher, false, NONE_HOST);
    out
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The registry in the shape of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    object(vec![
        ("command", Value::Array(COMMAND.iter().map(|s| text(s)).collect())),
        ("paths", Value::Array(PATHS.iter().map(|s| text(s)).collect())),
        ("run_seconds", Value::Number(Number::PosInt(RUN_SECONDS))),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Number(Number::Float(m.bound))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer()
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(&m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `--list`: the registry as text, with the notes `BENCHMARK.json`'s
/// fixed schema has no room for.
pub fn print_list() {
    println!("command: {}", COMMAND.join(" "));
    println!("run_seconds: {RUN_SECONDS}\n\nworkloads:");
    for w in &WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (tracing off):");
    for m in &END_TO_END {
        println!(
            "  {:<14} {:<10} better={:<6} bound={:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.definition
        );
    }
    println!("\nper-layer metrics (--trace 1); * = exact, must repeat bit-for-bit:");
    for m in per_layer() {
        println!(
            "  {:<34}{} {:<9} better={:<6} [{}] moves: {}",
            m.name,
            if m.exact { "*" } else { " " },
            m.unit,
            m.better.as_str(),
            m.layer(),
            m.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_core::cache::policy::ReplacementPolicy;

    fn valid_name(name: &str) -> bool {
        let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_equals_the_registry() {
        let committed: Value =
            serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).unwrap();
        assert_eq!(committed, benchmark_json(), "regenerate with `clio_e2e --list-json`");
    }

    #[test]
    fn names_units_and_counts_stay_within_the_contract() {
        let layers = per_layer();
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for name in &names {
            assert!(valid_name(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why has {} characters", w.name, w.why.len());
            assert!(!w.why.contains('\n'), "{}: why is one line", w.name);
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(layers.iter().map(|m| m.unit)) {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn policy_names_follow_the_enum() {
        let names: Vec<String> =
            ReplacementPolicy::ALL.iter().map(|p| p.name().to_ascii_lowercase()).collect();
        assert_eq!(names, POLICIES);
    }
}
