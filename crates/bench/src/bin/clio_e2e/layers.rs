//! The from-outside per-layer ledger.
//!
//! Each row is an isolated call sequence into one layer's public API
//! over the *same generated input* the end-to-end runs consume, timed
//! as a span from this file. Only the calls named in the README's
//! API-stability rule are used, so the entry points ROADMAP slates for
//! collapse stay refactorable without editing the benchmark.

use std::collections::BTreeMap;
use std::sync::Arc;

use clio_core::cache::cache::{AccessKind, BufferCache};
use clio_core::cache::page::{FileId, PageId};
use clio_core::cache::policy::ReplacementPolicy;
use clio_core::cache::shard::ShardedBufferCache;
use clio_core::prelude::*;
use clio_core::runtime::{JitModel, SharedManagedIo};
use clio_core::sim::{Engine as SimEngine, SimTime};
use clio_core::trace::compact::{self, CompactSource};
use clio_core::trace::source::{scan_pids, PidSplitter, TraceSource};
use clio_core::trace::verify::verify_strict;
use clio_core::trace::{TraceFile, TraceRecord};
use clio_stats::PercentileSink;

use crate::measure;
use crate::spans::Recorder;
use crate::workloads::{page_span, policy_label, Kind, Prepared};

/// Shards of the sharded rows: what `replay_par` and `serve_closed` run.
const SHARDS: usize = 16;
/// Managed-method body sizes of the serve path's handlers (doGet,
/// doPost, open/close helpers). They only scale the *virtual* JIT
/// charge; host time per op does not depend on them.
const GET_OPS: usize = 320;
const POST_OPS: usize = 280;
const FILE_OPS: usize = 60;
/// Relative error of the latency sink, as the serve engine's default.
const SINK_ERROR: f64 = 0.01;

/// The workload's input, materialised once for the isolated rows.
pub struct LayerInput {
    trace: Arc<TraceFile>,
    /// `trace` as a re-openable frozen workload.
    frozen: Workload,
    /// Page ids the data operations touch, in order (cache workloads).
    page_ids: Vec<PageId>,
}

impl LayerInput {
    pub fn new(prepared: &Prepared) -> Result<Self, String> {
        let trace = prepared.input.materialize().map_err(|e| e.to_string())?;
        let page_size = prepared.cache.page_size;
        let mut page_ids = Vec::new();
        if !matches!(prepared.kind, Kind::Sim) {
            page_ids.reserve(prepared.input_pages as usize);
            for (r, _) in data_accesses(&trace.records) {
                let (first, last) = page_span(r, page_size);
                page_ids
                    .extend((first..=last).map(|index| PageId { file: FileId(r.file_id), index }));
            }
        }
        Ok(Self { frozen: Workload::Trace(trace.clone()), trace, page_ids })
    }

    fn records(&self) -> &[TraceRecord] {
        &self.trace.records
    }
}

/// Collects the samples of one traced pass: per metric, one value per
/// layer sweep (or per traced rep); the reported value is their lower
/// decile — exact rows repeat, so any reduction returns them as is.
pub struct Ledger {
    pub recorder: Recorder,
    samples: BTreeMap<String, Vec<f64>>,
    /// Per sweep, the ns of one rep the isolated rows on the workload's
    /// path account for: what `exp.self_share` is the remainder of.
    pub children_ns: Vec<f64>,
    /// Per sweep, the `replay_par` input through the serial engine.
    pub serial_twin_ns: Vec<f64>,
    sweep: u32,
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            recorder: Recorder::new(),
            samples: BTreeMap::new(),
            children_ns: Vec::new(),
            serial_twin_ns: Vec::new(),
            sweep: 0,
        }
    }

    pub fn push(&mut self, metric: &str, value: f64) {
        self.samples.entry(metric.to_string()).or_default().push(value);
    }

    /// Times `f` as the span `layer:<metric>`, records `ns / units` as
    /// a sample of `metric`, and returns the result with the span's
    /// total ns (what attribution sums).
    fn row<T>(
        &mut self,
        metric: &str,
        unit: &'static str,
        f: impl FnOnce() -> T,
        units: impl FnOnce(&T) -> u64,
    ) -> (T, f64) {
        self.row_scaled(metric, unit, 1.0, f, units)
    }

    /// [`Ledger::row`] for a metric reported in `ns_per_unit` ns (1e3
    /// for a row in us).
    fn row_scaled<T>(
        &mut self,
        metric: &str,
        unit: &'static str,
        ns_per_unit: f64,
        f: impl FnOnce() -> T,
        units: impl FnOnce(&T) -> u64,
    ) -> (T, f64) {
        let sweep = self.sweep;
        let mut counted = 0;
        let (out, ns) = self.recorder.time(format!("layer:{metric}"), sweep, f, |out| {
            counted = units(out);
            vec![(unit, counted)]
        });
        self.push(metric, ns / counted.max(1) as f64 / ns_per_unit);
        (out, ns)
    }

    /// Per metric, the lower decile of the samples recorded.
    pub fn reduced(&self) -> BTreeMap<String, f64> {
        self.samples
            .iter()
            .filter_map(|(name, values)| Some((name.clone(), measure::lower_decile(values)?)))
            .collect()
    }
}

fn drain(source: &mut dyn TraceSource) -> u64 {
    let mut records = 0;
    while let Some(r) = source.next_record() {
        std::hint::black_box(r);
        records += 1;
    }
    records
}

/// Every data access of the stream, repeats expanded, with its kind.
fn data_accesses(records: &[TraceRecord]) -> impl Iterator<Item = (&TraceRecord, AccessKind)> {
    records.iter().filter(|r| r.op.transfers_data()).flat_map(|r| {
        let kind = if r.op == IoOp::Write { AccessKind::Write } else { AccessKind::Read };
        (0..r.num_records.max(1)).map(move |_| (r, kind))
    })
}

/// Registers the trace's files with a cache, in file-id order.
fn register_files(trace: &TraceFile, mut register: impl FnMut(String) -> FileId) -> Vec<FileId> {
    (0..trace.header.num_files).map(|i| register(format!("f{i}"))).collect()
}

/// The whole op stream against one `BufferCache`: open, every data
/// access, close. Returns the page accesses it made.
fn cache_replay(cfg: CacheConfig, trace: &TraceFile) -> u64 {
    let mut cache = BufferCache::new(cfg);
    let files = register_files(trace, |name| cache.register_file(name));
    for r in &trace.records {
        let file = files[r.file_id as usize];
        match r.op {
            IoOp::Open => drop(cache.open(file)),
            IoOp::Close => drop(cache.close(file)),
            IoOp::Read | IoOp::Write => {
                for (r, kind) in data_accesses(std::slice::from_ref(r)) {
                    std::hint::black_box(cache.access(file, r.offset, r.length, kind));
                }
            }
            IoOp::Seek => {}
        }
    }
    let m = cache.metrics();
    m.hits + m.misses
}

/// One sweep of every isolated row on `prepared`'s path. `reports` is
/// a rep's reports (for the exact, model-side rows).
pub fn sweep(
    ledger: &mut Ledger,
    prepared: &Prepared,
    input: &LayerInput,
    reports: &[Report],
) -> Result<(), String> {
    ledger.sweep += 1;
    // clio-trace: the source every engine drains, as the engine sees it.
    let mut source = prepared.input.open().map_err(|e| e.to_string())?;
    let (_, source_ns) =
        ledger.row("trace.source_ns_per_record", "records", || drain(&mut *source), |&n| n);

    let children_ns = match prepared.kind {
        Kind::PolicySweep { .. } => {
            let mut replay_ns = 0.0;
            for policy in ReplacementPolicy::ALL {
                replay_ns += cache_rows(ledger, prepared, input, policy);
            }
            access_row(ledger, prepared, input);
            ReplacementPolicy::ALL.len() as f64 * source_ns + replay_ns
        }
        Kind::Parallel { threads } => {
            cache_rows(ledger, prepared, input, prepared.cache.policy);
            access_row(ledger, prepared, input);
            let shard_ns = shard_row(ledger, prepared, input);
            // The same input through the serial engine: what the
            // threads and shards buy.
            let serial = Experiment::builder()
                .workload(prepared.input.clone())
                .engine(Engine::SerialReplay)
                .cache(prepared.cache.clone())
                .report_mode(ReportMode::Summary)
                .build()
                .map_err(|e| e.to_string())?;
            let sweep = ledger.sweep;
            let (twin, serial_ns) = ledger.recorder.time(
                "layer:exp.serial_twin",
                sweep,
                || serial.run(),
                |out| vec![("records", out.as_ref().map_or(0, |r| r.records))],
            );
            twin.map_err(|e| e.to_string())?;
            ledger.serial_twin_ns.push(serial_ns);
            if let Some(shards) = reports.first().and_then(|r| r.shard_metrics.as_ref()) {
                let loads: Vec<u64> = shards.iter().map(|m| m.hits + m.misses).collect();
                let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
                let max = loads.iter().copied().max().unwrap_or(0) as f64;
                ledger.push("cache.shard_imbalance", max / mean);
            }
            // Every worker drains its own stream and the merge walk
            // drains one more, so two drains are on the wall-clock
            // path; the shard work divides over the workers.
            2.0 * source_ns + shard_ns / threads as f64
        }
        Kind::Ingest => {
            let codec_ns = codec_rows(ledger, prepared, input)?;
            let replay_ns = cache_rows(ledger, prepared, input, prepared.cache.policy);
            access_row(ledger, prepared, input);
            // `source_ns` above is the file's load + admission + decode.
            source_ns + codec_ns + replay_ns
        }
        Kind::Sim => {
            let split_ns = splitter_rows(ledger, input)?;
            let engine_ns = sim_rows(ledger, reports);
            // Two engines, each a discovery pass and a replay pass.
            4.0 * source_ns + 2.0 * split_ns + engine_ns
        }
        Kind::Serve { .. } => {
            cache_rows(ledger, prepared, input, prepared.cache.policy);
            access_row(ledger, prepared, input);
            shard_row(ledger, prepared, input);
            let (managed_ns, latencies) = runtime_row(ledger, prepared, input);
            let sink_ns = stats_rows(ledger, &latencies);
            if let Some(serve) = reports.first().and_then(|r| r.serve.as_ref()) {
                ledger.push("runtime.jit_ms", serve.jit_ms);
                ledger.push("serve.virtual_rps", serve.throughput_rps.unwrap_or(0.0));
                ledger.push("serve.virtual_p50_ms", serve.p50_ms.unwrap_or(0.0));
                ledger.push("serve.virtual_p99_ms", serve.p99_ms.unwrap_or(0.0));
            }
            source_ns + managed_ns + sink_ns
        }
    };

    // The model-side cache facts of the workload's own (first) run.
    if let Some(m) = reports.first().and_then(|r| r.cache_metrics) {
        let kpages = (m.hits + m.misses).max(1) as f64 / 1e3;
        ledger.push("cache.hit_ratio", m.hit_ratio());
        ledger.push("cache.evictions_per_kpage", m.evictions as f64 / kpages);
        ledger.push("cache.writebacks_per_kpage", m.writebacks as f64 / kpages);
        ledger
            .push("cache.prefetch_hit_share", m.prefetch_hits as f64 / m.prefetched.max(1) as f64);
    }
    ledger.children_ns.push(children_ns);
    Ok(())
}

/// `cache.replay_ns_per_page.<policy>` and `cache.policy_touch_ns.<policy>`;
/// returns the replay row's total ns.
fn cache_rows(
    ledger: &mut Ledger,
    prepared: &Prepared,
    input: &LayerInput,
    policy: ReplacementPolicy,
) -> f64 {
    let name = policy_label(policy);
    let cfg = CacheConfig { policy, ..prepared.cache.clone() };
    let (_, replay_ns) = ledger.row(
        &format!("cache.replay_ns_per_page.{name}"),
        "pages",
        || cache_replay(cfg, &input.trace),
        |&pages| pages,
    );
    // The bare residency set, driven with the same page-id sequence at
    // the same capacity: touch, and evict whenever over budget.
    let capacity = prepared.cache.capacity_pages;
    ledger.row(
        &format!("cache.policy_touch_ns.{name}"),
        "touches",
        || {
            let mut set = policy.build::<PageId>(capacity);
            for &id in &input.page_ids {
                if set.touch(id) && set.len() > capacity {
                    std::hint::black_box(set.pop_victim());
                }
            }
            set.len()
        },
        |_| input.page_ids.len() as u64,
    );
    replay_ns
}

/// `cache.access_ns_per_page`: only the data accesses, under the
/// workload's own policy, with open and close left out of the timing.
fn access_row(ledger: &mut Ledger, prepared: &Prepared, input: &LayerInput) {
    let mut cache = BufferCache::new(prepared.cache.clone());
    let files = register_files(&input.trace, |name| cache.register_file(name));
    for &file in &files {
        cache.open(file);
    }
    ledger.row(
        "cache.access_ns_per_page",
        "pages",
        || {
            for (r, kind) in data_accesses(input.records()) {
                let file = files[r.file_id as usize];
                std::hint::black_box(cache.access(file, r.offset, r.length, kind));
            }
        },
        |_| input.page_ids.len() as u64,
    );
}

/// `cache.shard_access_ns_per_page`: the data accesses through the
/// sharded cache's locks, from one thread. Returns the row's total ns.
fn shard_row(ledger: &mut Ledger, prepared: &Prepared, input: &LayerInput) -> f64 {
    let cache = ShardedBufferCache::new(prepared.cache.clone(), SHARDS);
    let files = register_files(&input.trace, |name| cache.register_file(name));
    let (_, ns) = ledger.row(
        "cache.shard_access_ns_per_page",
        "pages",
        || {
            for (r, kind) in data_accesses(input.records()) {
                let file = files[r.file_id as usize];
                std::hint::black_box(cache.access(file, r.offset, r.length, kind));
            }
        },
        |_| input.page_ids.len() as u64,
    );
    ns
}

/// The v2/v1 codec and the strict verifier; returns the verify row's
/// total ns (admission and decode are already inside the source row).
fn codec_rows(ledger: &mut Ledger, prepared: &Prepared, input: &LayerInput) -> Result<f64, String> {
    let trace = &input.trace;
    let records = trace.records.len() as u64;
    let (v2, _) = ledger.row(
        "trace.v2_encode_ns_per_record",
        "records",
        || compact::encode_trace(trace),
        |_| records,
    );
    let v2 = Arc::new(v2.map_err(|e| e.to_string())?);
    let (admitted, _) = ledger.row(
        "trace.v2_admit_ns_per_record",
        "records",
        || CompactSource::from_bytes(v2.clone()),
        |_| records,
    );
    let mut admitted = admitted.map_err(|e| e.to_string())?;
    ledger.row("trace.v2_decode_ns_per_record", "records", || drain(&mut admitted), |&n| n);
    let v1 = trace.to_bytes();
    let (decoded, _) = ledger.row(
        "trace.v1_decode_ns_per_record",
        "records",
        || TraceFile::from_bytes(&v1),
        |_| records,
    );
    decoded.map_err(|e| e.to_string())?;
    ledger.push("trace.v2_vs_v1_size", v2.len() as f64 / v1.len() as f64);

    let mut source = input.frozen.open().map_err(|e| e.to_string())?;
    let options = prepared.input.verify_options();
    let (verdict, verify_ns) = ledger.row(
        "trace.verify_ns_per_record",
        "records",
        || verify_strict(&mut *source, options),
        |_| records,
    );
    verdict.map_err(|e| format!("strict verify rejected the generated input: {e:?}"))?;
    Ok(verify_ns)
}

/// The simulators' discovery pass and per-pid demultiplexer over the
/// frozen input; returns scan + splitter total ns.
fn splitter_rows(ledger: &mut Ledger, input: &LayerInput) -> Result<f64, String> {
    let open = || input.frozen.open().map_err(|e| e.to_string());
    let mut source = open()?;
    let ((pids, _), scan_ns) = ledger.row(
        "trace.scan_pids_ns_per_record",
        "records",
        || scan_pids(&mut *source),
        |(_, records)| *records,
    );
    let mut splitter = PidSplitter::new(open()?);
    let (_, split_ns) = ledger.row(
        "trace.splitter_ns_per_record",
        "records",
        || {
            // Round-robin demand, as simulated processes interleave.
            let mut live = pids.clone();
            let mut records = 0u64;
            while !live.is_empty() {
                live.retain(|&pid| match splitter.next_for(pid) {
                    Some(r) => {
                        std::hint::black_box(r);
                        records += 1;
                        true
                    }
                    None => false,
                });
            }
            records
        },
        |&records| records,
    );
    ledger.push("trace.splitter_peak_buffered", splitter.peak_buffered() as f64);
    Ok(scan_ns + split_ns)
}

struct Ticks {
    left: u64,
}

fn tick(engine: &mut SimEngine<Ticks>, world: &mut Ticks) {
    if world.left > 0 {
        world.left -= 1;
        engine.schedule_in(1e-6, tick);
    }
}

/// The bare event loop with a no-op world, as many events as the two
/// simulators processed; plus their model-side outputs. Returns the
/// bare loop's total ns.
fn sim_rows(ledger: &mut Ledger, reports: &[Report]) -> f64 {
    let sims: Vec<_> = reports.iter().filter_map(|r| r.sim.as_ref()).collect();
    let events: u64 = sims.iter().map(|s| s.events).sum();
    let chains = sims.first().map_or(1, |s| s.pids.len().max(1)) as u64;
    let (_, engine_ns) = ledger.row(
        "sim.engine_ns_per_event",
        "events",
        || {
            let mut engine: SimEngine<Ticks> = SimEngine::new();
            let mut world = Ticks { left: events.saturating_sub(chains) };
            for _ in 0..chains {
                engine.schedule_at(SimTime::ZERO, tick);
            }
            engine.run(&mut world);
            engine.processed()
        },
        |&processed| processed,
    );
    if let [plain, faulted] = sims[..] {
        ledger.push("sim.events_per_record", plain.events as f64 / plain.records.max(1) as f64);
        ledger.push("sim.retries", faulted.retries as f64);
        ledger.push("sim.dropped_requests", faulted.dropped_requests as f64);
        ledger.push("sim.makespan_s", faulted.makespan);
        ledger.push("sim.disk_utilization", faulted.disk_utilization);
    }
    engine_ns
}

/// `runtime.managed_op_ns`: the serve records through `SharedManagedIo`
/// from one thread. Returns the row's total ns and the virtual
/// latencies it produced (the sink rows' input).
fn runtime_row(ledger: &mut Ledger, prepared: &Prepared, input: &LayerInput) -> (f64, Vec<f64>) {
    let managed = SharedManagedIo::new(prepared.cache.clone(), SHARDS, JitModel::sscli_like());
    let files = register_files(&input.trace, |name| managed.register_file(name));
    let mut latencies = Vec::with_capacity(input.records().len());
    let (_, ns) = ledger.row(
        "runtime.managed_op_ns",
        "ops",
        || {
            for r in input.records() {
                let file = files[r.file_id as usize];
                let op = match r.op {
                    IoOp::Open => managed.open("open", FILE_OPS, file),
                    IoOp::Close => managed.close("close", FILE_OPS, file),
                    IoOp::Read => managed.read("doGet", GET_OPS, file, r.offset, r.length),
                    IoOp::Write => managed.write("doPost", POST_OPS, file, r.offset, r.length),
                    IoOp::Seek => continue,
                };
                latencies.push(op.cost_ms);
            }
            latencies.len() as u64
        },
        |&ops| ops,
    );
    (ns, latencies)
}

/// `stats.sink_*`: one `record` per request latency, then the p99
/// lookup. Returns the record row's total ns.
fn stats_rows(ledger: &mut Ledger, latencies: &[f64]) -> f64 {
    let mut sink = PercentileSink::new(SINK_ERROR);
    let (_, record_ns) = ledger.row(
        "stats.sink_record_ns",
        "samples",
        || {
            for &ms in latencies {
                sink.record(ms);
            }
        },
        |_| latencies.len() as u64,
    );
    const LOOKUPS: u64 = 64;
    ledger.row_scaled(
        "stats.sink_quantile_us",
        "lookups",
        1e3,
        || {
            for _ in 0..LOOKUPS {
                std::hint::black_box(sink.quantile(std::hint::black_box(0.99)));
            }
        },
        |_| LOOKUPS,
    );
    ledger.push("stats.sink_buckets", sink.stored_buckets() as f64);
    record_ns
}
