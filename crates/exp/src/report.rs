//! The single result type every engine reports into.

use clio_cache::metrics::CacheMetrics;
use clio_sim::trace_driven::TraceSimReport;
use clio_trace::record::IoOp;
use clio_trace::replay::{ReplayReport, ReplayStats};
use clio_trace::verify::{VerifyReport, ViolationCounts};
use serde::{Deserialize, Serialize};

use crate::serve::ServeSummary;

/// What an experiment produced.
///
/// One type subsumes the engines' native reports: replay engines fill
/// [`Report::replay`] (in summary mode its timings are empty and only
/// the running aggregates are kept, O(1) in the trace length), the
/// cache-driving engines add cache counters, and simulation engines
/// fill [`Report::sim`]. The untouched sections are `None`.
/// [`Report::summary`] flattens everything into a serde-serializable
/// [`ReportSummary`] for JSON archival — bit-identical between the two
/// replay report modes.
#[derive(Debug, Clone)]
pub struct Report {
    /// Stable engine name (see [`crate::Engine::name`]).
    pub engine: String,
    /// Workload label (see [`crate::Workload::label`]).
    pub workload: String,
    /// Number of records the experiment consumed.
    pub records: u64,
    /// The replay engines' result: running per-op aggregates always,
    /// per-record timings in
    /// [`ReportMode::Full`](clio_trace::replay::ReportMode::Full) only.
    pub replay: Option<ReplayReport>,
    /// Aggregate cache counters (serial and parallel replay, serve).
    pub cache_metrics: Option<CacheMetrics>,
    /// Per-shard cache counters (parallel replay).
    pub shard_metrics: Option<Vec<CacheMetrics>>,
    /// Worker threads actually used after clamping (parallel replay).
    pub threads_used: Option<usize>,
    /// Machine-simulation outcome (sim engines).
    pub sim: Option<TraceSimReport>,
    /// Lenient-admission quarantine ledger
    /// ([`crate::VerifyMode::Lenient`] runs only).
    pub quarantine: Option<QuarantineSummary>,
    /// Closed-loop serving outcome ([`crate::Engine::Serve`]): latency
    /// percentiles, throughput and the explicit failure count.
    pub serve: Option<ServeSummary>,
    /// Per-request serve latencies in completion order
    /// ([`crate::Engine::Serve`] in full report mode only — summary
    /// mode streams them through an O(1)-memory percentile sink).
    pub serve_latencies: Option<Vec<f64>>,
    /// Wall-clock time [`crate::Experiment::run`] spent producing this
    /// report, ms. Diagnostic only: it is **not** serialized and not
    /// part of [`ReportSummary`] (summaries must stay bit-identical
    /// across report modes and runs); the cross-policy comparison
    /// derives its records/s column from it.
    pub wall_ms: Option<f64>,
}

impl Report {
    /// An empty report shell for `engine` over `workload`.
    pub(crate) fn new(engine: &str, workload: String) -> Self {
        Self {
            engine: engine.to_string(),
            workload,
            records: 0,
            replay: None,
            cache_metrics: None,
            shard_metrics: None,
            threads_used: None,
            sim: None,
            quarantine: None,
            serve: None,
            serve_latencies: None,
            wall_ms: None,
        }
    }

    /// Files a replay engine's result: the record count and the
    /// replay section.
    pub(crate) fn set_replay(&mut self, replay: ReplayReport) {
        self.records = replay.stats().records();
        self.replay = Some(replay);
    }

    /// The replay aggregates — accumulated while streaming in either
    /// report mode, so bit-identical between them.
    pub fn stats(&self) -> Option<&ReplayStats> {
        self.replay.as_ref().map(|r| r.stats())
    }

    /// Mean latency of one operation kind, ms (replay engines).
    pub fn mean_ms(&self, op: IoOp) -> Option<f64> {
        self.stats().and_then(|s| s.mean_ms(op))
    }

    /// Total replayed simulated/wall time, ms (replay engines).
    pub fn total_ms(&self) -> Option<f64> {
        self.stats().map(|s| s.total_ms())
    }

    /// Simulated makespan, seconds (sim engines).
    pub fn makespan_s(&self) -> Option<f64> {
        self.sim.as_ref().map(|s| s.makespan)
    }

    /// Flattens the report into its serializable summary.
    pub fn summary(&self) -> ReportSummary {
        ReportSummary {
            engine: self.engine.clone(),
            workload: self.workload.clone(),
            records: self.records,
            total_ms: self.total_ms(),
            open_ms: self.mean_ms(IoOp::Open),
            close_ms: self.mean_ms(IoOp::Close),
            read_ms: self.mean_ms(IoOp::Read),
            write_ms: self.mean_ms(IoOp::Write),
            seek_ms: self.mean_ms(IoOp::Seek),
            makespan_s: self.makespan_s(),
            bytes_moved: self.sim.as_ref().map(|s| s.bytes_moved),
            disk_utilization: self.sim.as_ref().map(|s| s.disk_utilization),
            sim_events: self.sim.as_ref().map(|s| s.events),
            retries: self.sim.as_ref().map(|s| s.retries),
            dropped_requests: self.sim.as_ref().map(|s| s.dropped_requests),
            cache: self.cache_metrics,
            threads: self.threads_used.map(|t| t as u64),
            quarantine: self.quarantine,
            serve: self.serve.clone(),
            policies: None,
        }
    }

    /// The summary as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.summary()).expect("report summary serializes")
    }
}

/// The serializable flattening of a [`Report`]: the headline numbers
/// of whichever engine ran, `null` elsewhere.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportSummary {
    /// Stable engine name.
    pub engine: String,
    /// Workload label.
    pub workload: String,
    /// Records consumed.
    pub records: u64,
    /// Total replayed time, ms (replay engines).
    pub total_ms: Option<f64>,
    /// Mean open latency, ms.
    pub open_ms: Option<f64>,
    /// Mean close latency, ms.
    pub close_ms: Option<f64>,
    /// Mean read latency, ms.
    pub read_ms: Option<f64>,
    /// Mean write latency, ms.
    pub write_ms: Option<f64>,
    /// Mean seek latency, ms.
    pub seek_ms: Option<f64>,
    /// Simulated makespan, seconds (sim engines).
    pub makespan_s: Option<f64>,
    /// Bytes moved through the simulated disk array.
    pub bytes_moved: Option<u64>,
    /// Mean disk utilization over the makespan.
    pub disk_utilization: Option<f64>,
    /// Simulation events processed.
    pub sim_events: Option<u64>,
    /// Transient disk errors recovered by retry (sim engines; 0 unless
    /// the scheduled simulator ran under a fault plan).
    pub retries: Option<u64>,
    /// Requests dropped after exhausting the retry budget (sim
    /// engines; 0 unless the scheduled simulator ran under a fault
    /// plan).
    pub dropped_requests: Option<u64>,
    /// Aggregate cache counters (serial and parallel replay, serve).
    pub cache: Option<CacheMetrics>,
    /// Worker threads used (parallel replay).
    pub threads: Option<u64>,
    /// Lenient-admission quarantine ledger: how many records the
    /// verifier examined, admitted and skipped, and the per-rule
    /// violation tallies. `null` unless the experiment ran with
    /// [`crate::VerifyMode::Lenient`].
    pub quarantine: Option<QuarantineSummary>,
    /// Closed-loop serving section: latency percentiles (`null`, never
    /// a fabricated `0.0`, when no request completed), throughput and
    /// the explicit failure count. `null` unless the experiment ran
    /// [`crate::Engine::Serve`].
    pub serve: Option<ServeSummary>,
    /// Per-policy comparison rows, one per replacement policy in
    /// ablation order — filled only by
    /// [`crate::run_policy_comparison`]; `null` for single-policy runs.
    pub policies: Option<Vec<PolicyRow>>,
}

/// The admission verifier's ledger from a lenient run, flattened for
/// serialization: stream totals plus the per-rule violation tallies,
/// summed over every stream judged (one per serve client).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QuarantineSummary {
    /// Records the admission pass examined.
    pub examined: u64,
    /// Records admitted to replay.
    pub admitted: u64,
    /// Records skipped (quarantined) by a record-level rule.
    pub quarantined: u64,
    /// Per-rule violation tallies (includes the stream-level `V06`).
    pub violations: ViolationCounts,
}

impl QuarantineSummary {
    /// Adds the ledger of one stream.
    pub(crate) fn add(&mut self, r: &VerifyReport) {
        self.examined += r.records;
        self.admitted += r.admitted;
        self.quarantined += r.quarantined;
        self.violations.add(&r.violations);
    }
}

/// One replacement policy's row in a cross-policy comparison: the same
/// workload replayed under each policy, reduced to the numbers the
/// ablation tables plot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRow {
    /// Policy display name (see
    /// `clio_cache::policy::ReplacementPolicy::name`).
    pub policy: String,
    /// Records replayed under this policy.
    pub records: u64,
    /// Page-level cache hits.
    pub hits: u64,
    /// Page-level cache misses (demand faults).
    pub misses: u64,
    /// Hits over hits-plus-misses, in `[0, 1]` (0 when no accesses).
    pub hit_ratio: f64,
    /// Pages evicted by the policy.
    pub evictions: u64,
    /// Replay throughput, records per wall-clock second; `None` when
    /// the run finished too fast to time.
    pub records_per_sec: Option<f64>,
}

impl ReportSummary {
    /// The summary as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report summary serializes")
    }

    /// Parses a summary back from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_summarizes_to_nulls() {
        let r = Report::new("serial_replay", "synth(ops=0)".into());
        let s = r.summary();
        assert_eq!(s.engine, "serial_replay");
        assert!(s.total_ms.is_none());
        assert!(s.makespan_s.is_none());
        let json = r.to_json();
        let back: ReportSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
