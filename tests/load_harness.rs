//! The load-harness pinning layer.
//!
//! Three contracts the closed-loop serving harness must keep:
//!
//! 1. **Determinism** — the model backend is a pure function of its
//!    configuration: bit-identical JSON across back-to-back runs and
//!    across host thread counts (the engine is a serial virtual-clock
//!    loop; host parallelism must be unobservable).
//! 2. **Cost-model equivalence** — at one client the harness is the
//!    serial managed runtime: per-request latencies equal the bill
//!    composed by hand (`jit + dispatch + cache` over a solo
//!    `BufferCache`) for the same stream, bit for bit.
//! 3. **Honest percentiles** — the streaming sink the harness reports
//!    through tracks the exact order statistics within its advertised
//!    relative error, and empty sample sets surface as `None`/`-`,
//!    never a fabricated `0.0`.
//!
//! A gated socket test drives the real-server backend through the same
//! [`LoadPoint`] reduction when `CLIO_SOCKET_TESTS=1`.

use clio_core::cache::cache::{AccessKind, BufferCache};
use clio_core::exp::{Engine, Experiment, ReportMode, Workload};
use clio_core::load::{fmt_ms, LoadCurve, LoadHarness, DEFAULT_CLIENT_LEVELS};
use clio_core::runtime::stream::DEFAULT_DISPATCH_MS;
use clio_core::runtime::{JitModel, DO_GET_OPS, DO_POST_OPS, FILE_HELPER_OPS};
use clio_core::stats::{quantile, PercentileSink};
use clio_core::trace::record::IoOp;
use clio_core::trace::synth::{synthesize, TraceProfile};
use std::sync::Arc;

fn profile(data_ops: usize) -> TraceProfile {
    TraceProfile { data_ops, write_fraction: 0.25, seed: 0xC10AD, ..Default::default() }
}

fn harness(data_ops: usize) -> LoadHarness {
    LoadHarness::new(Workload::Synthetic(profile(data_ops)))
        .clients_levels(&[1, 2, 4, 8])
        .requests_per_client(24)
}

// --- 1. Determinism -------------------------------------------------

#[test]
fn model_curve_is_bit_identical_across_runs() {
    let h = harness(64);
    let a = h.run().expect("harness runs").to_json();
    let b = h.run().expect("harness runs").to_json();
    assert_eq!(a, b, "two runs of the deterministic backend must serialize identically");
}

#[test]
fn model_curve_is_bit_identical_across_host_thread_counts() {
    // The serving model is a serial virtual-clock loop; running it
    // from one thread or from eight concurrently must be unobservable
    // in the output.
    let reference = harness(64).run().expect("harness runs").to_json();
    for threads in [1usize, 4, 8] {
        let outputs: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| harness(64).run().expect("harness runs").to_json()))
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for out in outputs {
            assert_eq!(
                out, reference,
                "host parallelism ({threads} threads) leaked into the curve"
            );
        }
    }
}

#[test]
fn curve_json_round_trips() {
    let curve = harness(48).run().expect("harness runs");
    let back = LoadCurve::from_json(&curve.to_json()).expect("curve parses");
    assert_eq!(back, curve);
}

// --- 2. One client == the serial managed runtime --------------------

/// The straight-line managed cost of each request in `trace`, in issue
/// order, composed by hand with the serving path's method table: a solo
/// [`BufferCache`] for the cache term, [`JitModel::compile_cost`] on a
/// method name's first call and the default dispatch — summed in the
/// facade's pinned order `jit + dispatch + cache`. Shares no code with
/// `SharedManagedIo`.
fn serial_serve_costs(trace: &clio_core::trace::TraceFile, requests: usize) -> Vec<f64> {
    let mut cache = BufferCache::new(Default::default());
    let jit = JitModel::sscli_like();
    let mut compiled = std::collections::HashSet::new();
    let files: Vec<_> =
        (0..trace.header.num_files).map(|i| cache.register_file(format!("serve-{i}"))).collect();
    let mut costs = Vec::new();
    for r in &trace.records {
        if costs.len() >= requests {
            break;
        }
        let fid = files[r.file_id as usize];
        // The serving path's dispatch table: doGet/doPost page costs
        // plus open/close bookkeeping; seeks are not client-visible.
        let (method, ops, out) = match r.op {
            IoOp::Open => ("open", FILE_HELPER_OPS, cache.open(fid)),
            IoOp::Close => ("close", FILE_HELPER_OPS, cache.close(fid)),
            IoOp::Read => {
                ("doGet", DO_GET_OPS, cache.access(fid, r.offset, r.length, AccessKind::Read))
            }
            IoOp::Write => {
                ("doPost", DO_POST_OPS, cache.access(fid, r.offset, r.length, AccessKind::Write))
            }
            IoOp::Seek => continue,
        };
        let jit_ms = if compiled.insert(method) { jit.compile_cost(ops) } else { 0.0 };
        costs.push(jit_ms + DEFAULT_DISPATCH_MS + out.cost_ms);
    }
    costs
}

#[test]
fn one_client_harness_matches_serial_managed_io_costs() {
    let requests = 96;
    let trace = Arc::new(synthesize(&profile(128)));
    let report = Experiment::builder()
        .workload(Workload::Trace(trace.clone()))
        .engine(Engine::Serve)
        .shards(1)
        .clients(1)
        .requests_per_client(requests)
        .report_mode(ReportMode::Full)
        .build()
        .expect("serve experiment is valid")
        .run()
        .expect("serve runs");

    let latencies = report.serve_latencies.as_ref().expect("full mode keeps latencies");
    let costs = serial_serve_costs(&trace, requests);
    assert_eq!(latencies.len(), costs.len(), "same request count");
    for (i, (lat, cost)) in latencies.iter().zip(&costs).enumerate() {
        assert_eq!(
            lat, cost,
            "request {i}: harness latency diverged from the hand-composed managed cost"
        );
    }

    // With one client nothing ever queues: the makespan is exactly the
    // serial sum of costs.
    let summary = report.serve.expect("serve section");
    assert_eq!(summary.makespan_ms, costs.iter().sum::<f64>());
    assert_eq!(summary.requests, costs.len() as u64);
    assert_eq!(summary.failures, 0);
}

#[test]
fn explicit_seeks_do_not_change_the_served_sequence() {
    // The serving path addresses files per request; a collector-style
    // Seek record is dropped in flight, so traces with and without
    // explicit seeks serve identical latencies.
    let run = |explicit_seeks: bool| {
        let trace = Arc::new(synthesize(&TraceProfile {
            explicit_seeks,
            sequentiality: 0.3,
            ..profile(96)
        }));
        Experiment::builder()
            .workload(Workload::Trace(trace))
            .engine(Engine::Serve)
            .clients(3)
            .report_mode(ReportMode::Full)
            .build()
            .expect("valid")
            .run()
            .expect("runs")
            .serve_latencies
            .expect("full mode keeps latencies")
    };
    assert_eq!(run(true), run(false));
}

// --- 3. Honest percentiles ------------------------------------------

#[test]
fn streaming_sink_tracks_exact_quantiles_within_tolerance() {
    // Deterministic heavy-tail-ish stream via an LCG (no RNG dep).
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut samples = Vec::with_capacity(10_000);
    let mut sink = PercentileSink::default();
    for _ in 0..10_000 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let v = 0.1 + 500.0 * u * u * u; // cubed: a long right tail
        samples.push(v);
        sink.record(v);
    }
    let mut sorted = samples.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));

    for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
        let approx = sink.quantile(q).expect("non-empty");
        let exact = quantile(&samples, q).expect("non-empty");
        // The sink's guarantee is relative to the *order statistics*
        // bracketing the rank, not the interpolated estimator.
        let pos = q * (sorted.len() - 1) as f64;
        let lo = sorted[pos.floor() as usize] * (1.0 - 0.01) - 1e-12;
        let hi = sorted[pos.ceil() as usize] * (1.0 + 0.01) + 1e-12;
        assert!(
            approx >= lo && approx <= hi,
            "q={q}: sink {approx} outside [{lo}, {hi}] (exact estimator {exact})"
        );
    }
}

#[test]
fn empty_latency_sets_render_as_dash_not_zero() {
    let sink = PercentileSink::default();
    assert_eq!(sink.quantile(0.5), None);
    assert_eq!(fmt_ms(sink.quantile(0.5)), "-");
    assert_eq!(fmt_ms(sink.quantile(0.99)), "-");
}

#[test]
fn default_sweep_reaches_thirty_two_clients_flat_or_rising() {
    let curve = LoadHarness::new(Workload::Synthetic(profile(128)))
        .requests_per_client(32)
        .run()
        .expect("harness runs");
    assert_eq!(
        curve.points.iter().map(|p| p.clients).collect::<Vec<_>>(),
        DEFAULT_CLIENT_LEVELS.iter().map(|&c| c as u64).collect::<Vec<_>>()
    );
    assert!(
        curve.throughput_flat_or_rising("model", 0.9),
        "virtual throughput sagged: {:?}",
        curve.points.iter().map(|p| p.throughput_rps).collect::<Vec<_>>()
    );
}

// --- Gated socket backend -------------------------------------------

#[test]
fn socket_backend_reduces_to_the_same_load_point_shape() {
    clio_core::httpd::skip_unless_socket_tests!();
    let point = clio_core::load::socket_point(
        clio_core::httpd::server::ServerMode::Pool { workers: 2 },
        "pool-2",
        2,
        6,
    )
    .expect("socket point");
    assert_eq!(point.backend, "socket");
    assert_eq!(point.clients, 2);
    let completed = point.requests + point.failures;
    assert_eq!(completed, 12, "2 clients x 6 requests accounted for");
    if point.requests > 0 {
        assert!(point.p50_ms.is_some() && point.throughput_rps.is_some());
    } else {
        assert_eq!(point.p50_ms, None, "all-failed runs must not fabricate latencies");
    }
}
