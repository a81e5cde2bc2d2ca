//! The closed-loop serving engine.
//!
//! The paper's §4 web-server benchmark drives the managed runtime with
//! N concurrent clients, each issuing its next request only after the
//! previous response arrives. [`Engine::Serve`](crate::Engine::Serve)
//! is that experiment as a deterministic model: a virtual-clock
//! discrete-event loop over [`SharedManagedIo`], where each client
//! replays a seeded request stream derived from the experiment's
//! [`Workload`] and each request's service time is the
//! real managed cost (JIT warmup + dispatch + sharded-cache cost)
//! of its I/O.
//!
//! Contention is modeled where the real server contends: a request
//! occupies the cache shard its pages hash to for its service time, so
//! requests on different shards overlap while requests on the same
//! shard queue. Latency is queue delay plus service time. The loop is
//! serial — worker threads are a socket-backend concern — so results
//! are bit-identical across runs and host thread counts, like every
//! other engine.
//!
//! At one client no request ever queues, so per-request latency reduces
//! to the managed cost of its operations: the load-harness test layer
//! composes that bill by hand over a solo buffer cache (JIT, dispatch,
//! cache, added in that order) and compares bit for bit.

use clio_cache::cache::CacheConfig;
use clio_runtime::{
    JitMethod, JitModel, SharedManagedIo, StreamOp, DO_GET_OPS, DO_POST_OPS, FILE_HELPER_OPS,
};
use clio_stats::sink::PercentileSink;
use clio_trace::record::{IoOp, TraceRecord};
use clio_trace::replay::{check_record, ReportMode};
use clio_trace::source::TraceSource;
use clio_trace::TraceError;
use serde::{Deserialize, Serialize};

use crate::error::ExpError;
use crate::workload::Workload;

/// Closed-loop serving knobs (set through the
/// [`ExperimentBuilder`](crate::ExperimentBuilder)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues; `0` means "its whole stream".
    pub requests_per_client: usize,
    /// Virtual think time between a response and the client's next
    /// request, ms.
    pub think_ms: f64,
    /// JIT model for the managed serving path.
    pub jit: JitModel,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self { clients: 1, requests_per_client: 0, think_ms: 0.0, jit: JitModel::sscli_like() }
    }
}

/// The serving section of a report: latency percentiles and
/// throughput under closed-loop concurrency.
///
/// Percentiles are `None` — never a fabricated `0.0` — when no request
/// completed, and `failures` is always explicit so an all-failed run
/// cannot hide behind rosy latencies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Concurrent closed-loop clients driven.
    pub clients: u64,
    /// Requests completed successfully.
    pub requests: u64,
    /// Requests that failed (socket backends; the model never fails).
    pub failures: u64,
    /// Virtual (model) or wall (socket) time from first issue to last
    /// completion, ms.
    pub makespan_ms: f64,
    /// Completed requests per second over the makespan; `None` when
    /// nothing completed.
    pub throughput_rps: Option<f64>,
    /// Median request latency, ms; `None` when no sample completed.
    pub p50_ms: Option<f64>,
    /// 95th-percentile latency, ms.
    pub p95_ms: Option<f64>,
    /// 99th-percentile latency, ms.
    pub p99_ms: Option<f64>,
    /// 99.9th-percentile latency, ms.
    pub p999_ms: Option<f64>,
    /// Mean latency, ms.
    pub mean_ms: Option<f64>,
    /// Slowest request, ms.
    pub max_ms: Option<f64>,
    /// Total JIT compile time charged across the run, ms (the warmup
    /// the paper's first-request cliff comes from).
    pub jit_ms: f64,
}

impl ServeSummary {
    /// Builds the summary from a latency sink plus run totals.
    pub fn from_sink(
        sink: &PercentileSink,
        clients: usize,
        failures: u64,
        makespan_ms: f64,
        jit_ms: f64,
    ) -> Self {
        Self {
            clients: clients as u64,
            requests: sink.count(),
            failures,
            makespan_ms,
            throughput_rps: (sink.count() > 0 && makespan_ms > 0.0)
                .then(|| sink.count() as f64 / (makespan_ms / 1e3)),
            p50_ms: sink.quantile(0.50),
            p95_ms: sink.quantile(0.95),
            p99_ms: sink.quantile(0.99),
            p999_ms: sink.quantile(0.999),
            mean_ms: sink.mean(),
            max_ms: sink.max(),
            jit_ms,
        }
    }
}

/// What the serve engine hands back to [`crate::Experiment::run`].
pub(crate) struct ServeOutcome {
    pub summary: ServeSummary,
    /// Per-request latencies in completion order
    /// ([`ReportMode::Full`] only — summary mode keeps O(1) memory).
    pub latencies: Option<Vec<f64>>,
    pub cache_metrics: clio_cache::CacheMetrics,
    pub records: u64,
}

/// Derives client `c`'s request stream from the experiment workload:
/// synthetic atoms are reseeded per client (distinct but deterministic
/// streams), everything else replays the same stream per client
/// (shared-file semantics — every client fetches the same documents).
fn client_workload(workload: &Workload, client: u64) -> Workload {
    match workload {
        Workload::Synthetic(profile) => {
            let mut p = profile.clone();
            // SplitMix64 over (seed, client): distinct per-client
            // streams that never collide with simple seed increments.
            let mut x = p.seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            p.seed = x;
            Workload::Synthetic(p)
        }
        Workload::Chain(a, b) => Workload::Chain(
            Box::new(client_workload(a, client)),
            Box::new(client_workload(b, client)),
        ),
        Workload::Mix(a, b, kind) => Workload::Mix(
            Box::new(client_workload(a, client)),
            Box::new(client_workload(b, client)),
            *kind,
        ),
        other => other.clone(),
    }
}

/// One client's closed-loop state.
struct Client<S> {
    stream: S,
    /// Virtual time at which this client issues its next request.
    ready: f64,
    /// Records pulled from `stream` so far.
    pulled: u64,
    issued: usize,
    done: bool,
}

/// The four managed methods a served record bills to, resolved once
/// per run: a warm call through them is one atomic increment.
struct Methods {
    open: JitMethod,
    close: JitMethod,
    get: JitMethod,
    post: JitMethod,
}

impl Methods {
    fn resolve(managed: &SharedManagedIo) -> Self {
        Self {
            open: managed.resolve("open", FILE_HELPER_OPS),
            close: managed.resolve("close", FILE_HELPER_OPS),
            get: managed.resolve("doGet", DO_GET_OPS),
            post: managed.resolve("doPost", DO_POST_OPS),
        }
    }
}

/// Issues one record through the managed runtime, returning the
/// service cost and the shard the request occupies.
///
/// Seek records are dropped (the serving path addresses files at
/// explicit per-request offsets; there is no client-visible seek
/// request), so streams with and without explicit seeks serve the same
/// request sequence.
///
/// # Errors
/// What [`check_record`] returns for the record, before anything is
/// issued: [`TraceError::FileIdOutOfRange`] for a file outside the
/// `num_files` roster, [`TraceError::SpanTooLong`] for a span the cache
/// would walk for ever, [`TraceError::TooManyRepeats`] for a repeat
/// count past the `V11` bound; `index` is its position in the client's
/// stream.
fn dispatch(
    managed: &SharedManagedIo,
    methods: &Methods,
    num_files: u32,
    index: u64,
    r: &TraceRecord,
) -> Result<Option<(StreamOp, usize)>, TraceError> {
    let fid = check_record(num_files, index, r)?;
    let (op, offset) = match r.op {
        IoOp::Open => (managed.open_with(&methods.open, fid), 0),
        IoOp::Close => (managed.close_with(&methods.close, fid), 0),
        IoOp::Read => (managed.read_with(&methods.get, fid, r.offset, r.length), r.offset),
        IoOp::Write => (managed.write_with(&methods.post, fid, r.offset, r.length), r.offset),
        IoOp::Seek => return Ok(None),
    };
    Ok(Some((op, managed.cache().home_shard(fid, offset))))
}

/// The event loop's conservation laws, checked at the end of a debug
/// build's run. A release build keeps no state for them (every vector
/// stays empty) and does no work per request.
///
/// - Every issued request completes: the model never fails one.
/// - A shard serves its requests one at a time, so its busy time (the
///   service times it held) is at most the makespan.
/// - A client's clock is the sum of its latencies and the think gaps
///   between them: that sum is its last completion, at most the
///   makespan, and equal to it for the client that finishes last.
struct Audit {
    shard_busy_ms: Vec<f64>,
    client_latency_ms: Vec<f64>,
    client_last_end: Vec<f64>,
}

impl Audit {
    const ON: bool = cfg!(debug_assertions);

    fn new(shards: usize, clients: usize) -> Self {
        let len = |n| if Self::ON { n } else { 0 };
        Self {
            shard_busy_ms: vec![0.0; len(shards)],
            client_latency_ms: vec![0.0; len(clients)],
            client_last_end: vec![0.0; len(clients)],
        }
    }

    fn request(&mut self, client: usize, shard: usize, cost_ms: f64, latency: f64, end: f64) {
        if Self::ON {
            self.shard_busy_ms[shard] += cost_ms;
            self.client_latency_ms[client] += latency;
            self.client_last_end[client] = end;
        }
    }

    fn check<S>(&self, clients: &[Client<S>], completed: u64, think_ms: f64, makespan: f64) {
        if !Self::ON {
            return;
        }
        // Rounding slack: each clock sums up to a few thousand terms.
        let slack = |x: f64| 1e-9 * x.abs().max(1.0);
        let issued: u64 = clients.iter().map(|c| c.issued as u64).sum();
        assert_eq!(issued, completed, "every issued request completes");
        for (shard, &busy) in self.shard_busy_ms.iter().enumerate() {
            assert!(busy <= makespan + slack(makespan), "shard {shard} busy {busy} > {makespan}");
        }
        for (c, client) in clients.iter().enumerate() {
            let gaps = client.issued.saturating_sub(1) as f64 * think_ms;
            let clock = self.client_latency_ms[c] + gaps;
            let end = self.client_last_end[c];
            assert!((clock - end).abs() <= slack(end), "client {c}: clock {clock} != end {end}");
            assert!(clock <= makespan + slack(makespan), "client {c}: {clock} > {makespan}");
        }
        // With each clock equal to its client's last completion, the
        // last client's clock equals the makespan when some client's
        // last completion is the makespan.
        assert!(self.client_last_end.contains(&makespan), "makespan {makespan} is no client's end");
    }
}

/// Runs the closed-loop model: a serial virtual-clock event loop, so
/// the outcome is a pure function of (workload, cache config, shard
/// count, serve options) — bit-identical across runs and host thread
/// counts.
///
/// Each client reads its stream through `wrap`, and `judge` rules on
/// that stream when the client stops: its stream ran out, or it issued
/// its `requests_per_client`.
pub(crate) fn run_serve<S: TraceSource>(
    workload: &Workload,
    cache: CacheConfig,
    shards: usize,
    opts: &ServeOptions,
    mode: ReportMode,
    wrap: impl Fn(Box<dyn TraceSource>) -> S,
    mut judge: impl FnMut(&mut S) -> Result<(), ExpError>,
) -> Result<ServeOutcome, ExpError> {
    let managed = SharedManagedIo::new(cache, shards, opts.jit);
    let methods = Methods::resolve(&managed);
    let mut clients: Vec<Client<S>> = (0..opts.clients.max(1) as u64)
        .map(|c| {
            client_workload(workload, c).open().map(|stream| Client {
                stream: wrap(stream),
                ready: 0.0,
                pulled: 0,
                issued: 0,
                done: false,
            })
        })
        .collect::<Result<_, _>>()?;

    // Every client stream shares the workload's file ids; the roster is
    // the widest any client declares.
    let num_files = clients.iter().map(|c| c.stream.meta().num_files).max().unwrap_or(0);

    // The sharded cache clamps its shard count; mirror what it built.
    let mut shard_busy = vec![0.0f64; managed.cache().num_shards()];
    let mut audit = Audit::new(shard_busy.len(), clients.len());
    let mut sink = PercentileSink::default();
    let mut latencies = matches!(mode, ReportMode::Full).then(Vec::new);
    let mut makespan: f64 = 0.0;
    let mut jit_total: f64 = 0.0;

    // Next request: the earliest-ready live client, ties broken by
    // client id (`min_by` keeps the first of equal minima) — a
    // deterministic discrete-event order.
    while let Some(c) = clients
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.done)
        .min_by(|(_, a), (_, b)| a.ready.total_cmp(&b.ready))
        .map(|(i, _)| i)
    {
        let client = &mut clients[c];
        let capped = opts.requests_per_client > 0 && client.issued >= opts.requests_per_client;
        // Pull the next request-record; seeks are dropped in flight.
        let op_shard = loop {
            if capped {
                break None;
            }
            let Some(r) = client.stream.next_record() else { break None };
            let hit = dispatch(&managed, &methods, num_files, client.pulled, &r)?;
            client.pulled += 1;
            if hit.is_some() {
                break hit;
            }
        };
        let Some((op, shard)) = op_shard else {
            client.done = true;
            judge(&mut client.stream)?;
            continue;
        };
        client.issued += 1;

        // Queue on the shard the request's pages hash to, then hold it
        // for the service time.
        let start = client.ready.max(shard_busy[shard]);
        let end = start + op.cost_ms;
        shard_busy[shard] = end;
        // Queue delay + service time. Computed this way (rather than
        // `end - ready`) so an uncontended request's latency is its
        // cost to the last bit, independent of how far the virtual
        // clock has advanced.
        let latency = (start - client.ready) + op.cost_ms;
        sink.record(latency);
        audit.request(c, shard, op.cost_ms, latency, end);
        if let Some(v) = latencies.as_mut() {
            v.push(latency);
        }
        jit_total += op.jit_ms;
        makespan = makespan.max(end);
        client.ready = end + opts.think_ms;
    }
    audit.check(&clients, sink.count(), opts.think_ms, makespan);

    Ok(ServeOutcome {
        summary: ServeSummary::from_sink(&sink, opts.clients.max(1), 0, makespan, jit_total),
        latencies,
        cache_metrics: managed.cache_metrics(),
        records: clients.iter().map(|c| c.pulled).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_trace::synth::TraceProfile;

    fn synth(ops: usize) -> Workload {
        Workload::Synthetic(TraceProfile { data_ops: ops, ..Default::default() })
    }

    fn run(clients: usize, ops: usize) -> ServeOutcome {
        run_serve(
            &synth(ops),
            CacheConfig::default(),
            16,
            &ServeOptions { clients, ..Default::default() },
            ReportMode::Full,
            |s| s,
            |_| Ok(()),
        )
        .unwrap()
    }

    #[test]
    fn model_is_deterministic_across_runs() {
        let a = run(8, 64);
        let b = run(8, 64);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.cache_metrics, b.cache_metrics);
    }

    #[test]
    fn per_client_streams_are_distinct_but_deterministic() {
        let w = synth(32);
        let mut a = client_workload(&w, 0).open().unwrap();
        let mut b = client_workload(&w, 1).open().unwrap();
        let mut a2 = client_workload(&w, 0).open().unwrap();
        let ra: Vec<_> = std::iter::from_fn(|| a.next_record()).collect();
        let rb: Vec<_> = std::iter::from_fn(|| b.next_record()).collect();
        let ra2: Vec<_> = std::iter::from_fn(|| a2.next_record()).collect();
        assert_eq!(ra, ra2, "same client id, same stream");
        assert_ne!(ra, rb, "different clients draw different streams");
    }

    #[test]
    fn single_client_never_queues() {
        let out = run(1, 48);
        // With one closed-loop client every latency is pure service
        // time; total virtual time is the sum of the costs.
        let total: f64 = out.latencies.as_ref().unwrap().iter().sum();
        assert!((total - out.summary.makespan_ms).abs() < 1e-9);
    }

    #[test]
    fn summary_mode_is_bit_identical_and_unmaterialized() {
        let full = run(4, 64);
        let summary = run_serve(
            &synth(64),
            CacheConfig::default(),
            16,
            &ServeOptions { clients: 4, ..Default::default() },
            ReportMode::Summary,
            |s| s,
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(full.summary, summary.summary);
        assert!(summary.latencies.is_none(), "summary mode keeps no per-request samples");
    }

    #[test]
    fn empty_workload_reports_none_not_zero() {
        // Zero-data-op profiles are now rejected at validation (P04),
        // so drive a truly empty custom stream: percentiles must be
        // None — never a fabricated 0.0 — when nothing completed.
        use clio_trace::source::{IterSource, SourceMeta};
        let empty = Workload::custom("empty", || {
            let meta = SourceMeta { sample_file: "e.dat".into(), num_processes: 1, num_files: 1 };
            Box::new(IterSource::new(meta, std::iter::empty()))
        });
        let out = run_serve(
            &empty,
            CacheConfig::default(),
            16,
            &ServeOptions { clients: 4, ..Default::default() },
            ReportMode::Full,
            |s| s,
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(out.summary.requests, 0);
        assert_eq!(out.summary.p50_ms, None);
        assert_eq!(out.summary.throughput_rps, None);
    }

    #[test]
    fn requests_per_client_caps_the_run() {
        let capped = run_serve(
            &synth(256),
            CacheConfig::default(),
            16,
            &ServeOptions { clients: 2, requests_per_client: 5, ..Default::default() },
            ReportMode::Full,
            |s| s,
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(capped.summary.requests, 10, "2 clients x 5 requests");
    }

    #[test]
    fn think_time_stretches_makespan_not_latency() {
        let busy = run_serve(
            &synth(32),
            CacheConfig::default(),
            16,
            &ServeOptions { clients: 1, ..Default::default() },
            ReportMode::Full,
            |s| s,
            |_| Ok(()),
        )
        .unwrap();
        let idle = run_serve(
            &synth(32),
            CacheConfig::default(),
            16,
            &ServeOptions { clients: 1, think_ms: 5.0, ..Default::default() },
            ReportMode::Full,
            |s| s,
            |_| Ok(()),
        )
        .unwrap();
        assert!(idle.summary.makespan_ms > busy.summary.makespan_ms);
        assert_eq!(idle.latencies, busy.latencies, "think time is not service time");
    }
}
