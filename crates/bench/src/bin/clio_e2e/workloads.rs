//! The six workloads: how each input is generated from the seed, the
//! experiments one rep runs, and the output checks a rep must pass.
//!
//! Everything here goes through the front door only (`Experiment`,
//! `Workload`, `Engine`, `Scenario`, `CacheConfig`): the entry points
//! behind it are slated for collapse and must stay refactorable
//! without editing the benchmark.

use std::path::Path;
use std::time::Instant;

use clio_core::cache::policy::ReplacementPolicy;
use clio_core::prelude::*;
use clio_core::trace::{compact, TraceRecord};

use crate::registry::WORKLOADS;

/// Page size every workload's cache uses (the `CacheConfig` default);
/// the bench-side page recount is done against it.
const PAGE_SIZE: u64 = 4096;

/// What one rep runs and what its reports must satisfy.
pub enum Kind {
    /// Serial replay once per policy; the hit ratio must lie in `band`.
    PolicySweep { band: HitBand },
    /// Sharded-parallel replay on `threads` workers.
    Parallel { threads: usize },
    /// v2 file ingest with strict admission, then serial replay.
    Ingest,
    /// `TraceSim` then `ScheduledSim` under the scenario's fault plan.
    Sim,
    /// Closed-loop serving.
    Serve { clients: usize, requests_per_client: usize },
}

/// The cache regime a policy sweep must stay in, whatever the seed.
pub enum HitBand {
    AtLeast(f64),
    /// At most this hit ratio, and dirty pages must be written back.
    AtMostWithWritebacks(f64),
}

/// A workload ready to run: inputs generated, experiments built.
pub struct Prepared {
    pub name: &'static str,
    pub kind: Kind,
    /// The runs of one rep, in order, each with its span label.
    pub runs: Vec<(String, Experiment)>,
    /// The record stream the runs consume — recounted on the bench
    /// side, and the input of the isolated layer rows. (For
    /// `serve_closed` the engine reseeds it per client, so this is one
    /// stream of `clients x requests` ops with the same profile.)
    pub input: Workload,
    pub cache: CacheConfig,
    /// Records and page accesses of `input`, counted by the benchmark.
    pub input_records: u64,
    pub input_pages: u64,
    /// Median time of one `Experiment::builder()…build()`, in us.
    pub build_us: f64,
}

/// SplitMix64 step: derives independent per-workload, per-atom profile
/// seeds from the one `--seed`.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Gives every synthetic atom of a parsed spec its own seed derived
/// from `seed` — how `--seed` reaches `TraceProfile::seed`.
fn reseed(workload: &mut Workload, seed: u64, atom: &mut u64) {
    match workload {
        Workload::Synthetic(profile) => {
            *atom += 1;
            profile.seed = mix(seed, *atom);
        }
        Workload::Chain(a, b) | Workload::Mix(a, b, _) => {
            reseed(a, seed, atom);
            reseed(b, seed, atom);
        }
        _ => {}
    }
}

/// Parses a scenario spec, scales it to `data_ops` per synthetic atom
/// and seeds it.
fn scenario(spec: &str, data_ops: usize, seed: u64) -> Result<Scenario, String> {
    let mut scenario = Scenario::parse(spec)?;
    scenario.workload.scale_data_ops(data_ops);
    reseed(&mut scenario.workload, seed, &mut 0);
    Ok(scenario)
}

/// First and last page a data record touches. A zero-length access
/// still touches the page its offset falls in.
pub fn page_span(r: &TraceRecord, page_size: u64) -> (u64, u64) {
    let first = r.offset / page_size;
    let last = if r.length == 0 { first } else { (r.offset + r.length - 1) / page_size };
    (first, last)
}

/// A policy's name as it appears in span labels and metric names.
pub fn policy_label(policy: ReplacementPolicy) -> String {
    policy.name().to_ascii_lowercase()
}

/// CPUs the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Streams `workload` once and counts its records and the page
/// accesses its data operations make — the benchmark's own count, held
/// against `Report::records` and `hits + misses`.
fn recount(workload: &Workload) -> Result<(u64, u64), String> {
    let mut source = workload.open().map_err(|e| e.to_string())?;
    let (mut records, mut pages) = (0u64, 0u64);
    while let Some(r) = source.next_record() {
        records += 1;
        if r.op.transfers_data() {
            let (first, last) = page_span(&r, PAGE_SIZE);
            pages += (last - first + 1) * u64::from(r.num_records.max(1));
        }
    }
    Ok((records, pages))
}

fn built(builder: ExperimentBuilder) -> Result<Experiment, String> {
    builder.build().map_err(|e| e.to_string())
}

fn policy_sweep(
    input: &Workload,
    cache: &CacheConfig,
) -> Result<Vec<(String, Experiment)>, String> {
    ReplacementPolicy::ALL
        .iter()
        .map(|&policy| {
            let exp = built(
                Experiment::builder()
                    .workload(input.clone())
                    .engine(Engine::SerialReplay)
                    .cache(CacheConfig { policy, ..cache.clone() })
                    .report_mode(ReportMode::Summary),
            )?;
            Ok((format!("run:{}", policy_label(policy)), exp))
        })
        .collect()
}

/// Worker threads `replay_par` uses: never more than the host has.
pub fn par_threads() -> usize {
    nproc().min(2)
}

impl Prepared {
    /// Generates workload `name`'s inputs from `seed` and builds its
    /// experiments. `shrink` divides the op counts (1 = the published
    /// sizes; the unit-test smoke uses more); files go under `dir`.
    pub fn new(name: &str, seed: u64, shrink: usize, dir: &Path) -> Result<Prepared, String> {
        let index = WORKLOADS
            .iter()
            .position(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name:?} (see --list)"))?;
        let name = WORKLOADS[index].name;
        let seed = mix(seed, 0x100 + index as u64);
        let ops = |n: usize| (n / shrink).max(64);
        let default_cache = CacheConfig::default();

        let (kind, input, cache, runs) = match name {
            "replay_hot" => {
                // Half the cache, so after the cold pass every access
                // hits; frozen, so the source does almost no work.
                let profile = TraceProfile {
                    seed,
                    data_ops: ops(60_000),
                    file_size: (32 << 20) / shrink as u64,
                    request_size: (4 << 10, 32 << 10),
                    sequentiality: 0.1,
                    write_fraction: 0.1,
                    ..Default::default()
                };
                let frozen =
                    Workload::Synthetic(profile).materialize().map_err(|e| e.to_string())?;
                let input = Workload::Trace(frozen);
                let runs = policy_sweep(&input, &default_cache)?;
                let band = HitBand::AtLeast(0.95);
                (Kind::PolicySweep { band }, input, default_cache, runs)
            }
            "replay_thrash" => {
                // 1 GiB of uniformly random requests into 2048 pages:
                // 128x oversubscribed, synthesis inside the timed run.
                let input = Workload::Synthetic(TraceProfile {
                    seed,
                    data_ops: ops(18_000),
                    file_size: 1 << 30,
                    request_size: (4 << 10, 64 << 10),
                    sequentiality: 0.0,
                    write_fraction: 0.3,
                    ..Default::default()
                });
                let cache = CacheConfig { capacity_pages: 2048, ..default_cache };
                let runs = policy_sweep(&input, &cache)?;
                let band = HitBand::AtMostWithWritebacks(0.15);
                (Kind::PolicySweep { band }, input, cache, runs)
            }
            "replay_par" => {
                let input = scenario("share:seq,rand", ops(12_000), seed)?.workload;
                let threads = par_threads();
                let exp = built(
                    Experiment::builder()
                        .workload(input.clone())
                        .engine(Engine::ParallelReplay)
                        .threads(threads)
                        .shards(16)
                        .report_mode(ReportMode::Summary),
                )?;
                (Kind::Parallel { threads }, input, default_cache, vec![("run:par".into(), exp)])
            }
            "ingest_v2" => {
                let profile = TraceProfile {
                    seed,
                    data_ops: ops(300_000),
                    file_size: 32 << 20,
                    request_size: (512, 8 << 10),
                    sequentiality: 0.5,
                    write_fraction: 0.1,
                    ..Default::default()
                };
                let trace =
                    Workload::Synthetic(profile).materialize().map_err(|e| e.to_string())?;
                let bytes = compact::encode_trace(&trace).map_err(|e| e.to_string())?;
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                let path = dir.join("ingest_v2.clc2");
                std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
                let input = Workload::File(path);
                let exp = built(
                    Experiment::builder()
                        .workload(input.clone())
                        .engine(Engine::SerialReplay)
                        .verify(VerifyMode::Strict)
                        .report_mode(ReportMode::Summary),
                )?;
                (Kind::Ingest, input, default_cache, vec![("run:ingest".into(), exp)])
            }
            "sim_machine" => {
                let s = scenario("fault:slow@0-1x8+err@64:mix:zipf:0.9,rand", ops(90_000), seed)?;
                let input = s.workload.clone();
                let trace_sim =
                    built(Experiment::builder().workload(input.clone()).engine(Engine::TraceSim))?;
                let sched_sim =
                    built(Experiment::builder().scenario(s).engine(Engine::ScheduledSim))?;
                let runs =
                    vec![("run:trace_sim".into(), trace_sim), ("run:sched_sim".into(), sched_sim)];
                (Kind::Sim, input, default_cache, runs)
            }
            "serve_closed" => {
                let (clients, requests_per_client) = (8, ops(7_500));
                let per_client = scenario("zipf:0.9", requests_per_client, seed)?.workload;
                let exp = built(
                    Experiment::builder()
                        .workload(per_client)
                        .engine(Engine::Serve)
                        .clients(clients)
                        .requests_per_client(requests_per_client)
                        .think_ms(0.0)
                        .shards(16)
                        .report_mode(ReportMode::Summary),
                )?;
                let input = scenario("zipf:0.9", clients * requests_per_client, seed)?.workload;
                let kind = Kind::Serve { clients, requests_per_client };
                (kind, input, default_cache, vec![("run:serve".into(), exp)])
            }
            other => unreachable!("{other} is in WORKLOADS but has no recipe"),
        };

        let (input_records, input_pages) = recount(&input)?;
        let build_us = time_build(&runs[0].1);
        Ok(Prepared { name, kind, runs, input, cache, input_records, input_pages, build_us })
    }

    /// One rep: every run of the workload, in order.
    pub fn rep(&self) -> Result<Vec<Report>, String> {
        self.runs.iter().map(|(_, exp)| exp.run().map_err(|e| e.to_string())).collect()
    }

    /// The conservation and regime checks on one rep's reports; every
    /// returned line is one failed check.
    pub fn check(&self, reports: &[Report]) -> Vec<String> {
        let mut failed = Vec::new();
        let mut ensure = |ok: bool, what: String| {
            if !ok {
                failed.push(format!("{}: {what}", self.name));
            }
        };
        for ((label, _), report) in self.runs.iter().zip(reports) {
            if let Kind::Serve { clients, requests_per_client } = self.kind {
                let Some(serve) = &report.serve else {
                    ensure(false, format!("{label}: no serve section"));
                    continue;
                };
                let expected = (clients * requests_per_client) as u64;
                ensure(
                    serve.requests == expected,
                    format!("{label}: {} requests, expected {expected}", serve.requests),
                );
                ensure(serve.failures == 0, format!("{label}: {} failures", serve.failures));
            } else {
                ensure(
                    report.records == self.input_records,
                    format!(
                        "{label}: Report.records {} != recount {}",
                        report.records, self.input_records
                    ),
                );
            }
            if let Some(m) = report.cache_metrics {
                if !matches!(self.kind, Kind::Serve { .. }) {
                    ensure(
                        m.hits + m.misses == self.input_pages,
                        format!(
                            "{label}: hits+misses {} != recounted pages {}",
                            m.hits + m.misses,
                            self.input_pages
                        ),
                    );
                }
                // Close-time eviction drops pages that never missed
                // (prefetched ones), so plain `evictions <= misses` is
                // false; this is the bound that holds.
                ensure(
                    m.evictions <= m.misses + m.prefetched,
                    format!("{label}: evictions {} > misses+prefetched", m.evictions),
                );
                ensure(
                    m.prefetch_hits <= m.prefetched,
                    format!("{label}: prefetch_hits {} > prefetched", m.prefetch_hits),
                );
                if let Kind::PolicySweep { band } = &self.kind {
                    let ratio = m.hit_ratio();
                    match *band {
                        HitBand::AtLeast(min) => {
                            ensure(ratio >= min, format!("{label}: hit ratio {ratio:.4} < {min}"))
                        }
                        HitBand::AtMostWithWritebacks(max) => {
                            ensure(ratio <= max, format!("{label}: hit ratio {ratio:.4} > {max}"));
                            ensure(m.writebacks > 0, format!("{label}: no write-backs"));
                        }
                    }
                }
            } else {
                ensure(
                    matches!(self.kind, Kind::Sim),
                    format!("{label}: a cache-driving engine reported no cache metrics"),
                );
            }
        }
        if let (Kind::Sim, [trace_sim, sched_sim]) = (&self.kind, reports) {
            match (&trace_sim.sim, &sched_sim.sim) {
                (Some(plain), Some(faulted)) => {
                    ensure(
                        plain.dropped_requests == 0,
                        format!("TraceSim dropped {} requests", plain.dropped_requests),
                    );
                    ensure(faulted.retries > 0, "the fault plan caused no retries".into());
                }
                _ => ensure(false, "a sim engine reported no sim section".into()),
            }
        }
        if let Kind::Parallel { threads } = self.kind {
            let used = reports.first().and_then(|r| r.threads_used);
            ensure(used == Some(threads), format!("threads_used {used:?}, expected {threads}"));
        }
        failed
    }

    /// The deterministic face of one rep: every run's summary as JSON.
    /// Each rep's must equal the first rep's.
    pub fn fingerprint(reports: &[Report]) -> Vec<String> {
        reports.iter().map(|r| r.summary().to_json()).collect()
    }
}

/// Median time of `Experiment::builder()…build()` for a configuration
/// like `exp`'s, in us. (`build()` validates workload and knobs; it is
/// the `clio-exp` part of set-up.)
fn time_build(exp: &Experiment) -> f64 {
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let started = Instant::now();
            let rebuilt = Experiment::builder()
                .workload(exp.workload().clone())
                .engine(exp.engine().clone())
                .report_mode(exp.report_mode())
                .build();
            let us = started.elapsed().as_nanos() as f64 / 1e3;
            std::hint::black_box(rebuilt).ok();
            us
        })
        .collect();
    crate::measure::median(&samples).expect("nine samples")
}
