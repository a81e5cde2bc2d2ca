//! The experiment builder and runner.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use clio_cache::cache::CacheConfig;
use clio_cache::policy::ReplacementPolicy;
use clio_sim::machine::MachineConfig;
use clio_sim::sched::Policy;
use clio_sim::sched_replay::{scheduled_trace_sim, DiskFaultPlan, SchedReplayOptions};
use clio_sim::trace_driven::{trace_sim, SimError, ThinkTime, TraceSimOptions};
use clio_trace::replay::{
    open_real_backend, replay_backend, replay_cached, replay_cached_pipelined, replay_sharded,
    ParallelReplayOptions, RealReplayOptions, ReportMode,
};
use clio_trace::source::TraceSource;
use clio_trace::verify::{QuarantineSource, StrictSource, VerifyError, VerifyMode};

use crate::engine::Engine;
use crate::error::ExpError;
use crate::report::{PolicyRow, QuarantineSummary, Report, ReportSummary};
use crate::serve::{self, ServeOptions};
use crate::workload::Workload;

/// A fully validated, runnable experiment. Build one with
/// [`Experiment::builder`]; run it as many times as measurement needs —
/// every run re-opens the workload from the start.
#[derive(Debug, Clone)]
pub struct Experiment {
    workload: Workload,
    engine: Engine,
    cache: CacheConfig,
    parallel: ParallelReplayOptions,
    machine: MachineConfig,
    sim_options: TraceSimOptions,
    sched: SchedReplayOptions,
    real: RealReplayOptions,
    serve: ServeOptions,
    mode: ReportMode,
    verify: VerifyMode,
}

impl Experiment {
    /// Starts a builder with default knobs (default cache, 4×16
    /// thread/shard parallel replay, uniprocessor machine, FCFS
    /// scheduling, non-destructive real replay, full report mode).
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// The engine this experiment drives.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The workload this experiment replays.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The report mode this experiment runs in.
    pub fn report_mode(&self) -> ReportMode {
        self.mode
    }

    /// Runs the experiment.
    ///
    /// Every engine consumes the workload as a stream: serve reads one
    /// per client, every other engine one — no engine materializes a
    /// [`TraceFile`](clio_trace::TraceFile). In [`ReportMode::Summary`]
    /// the replay engines additionally keep only O(1) running
    /// aggregates instead of per-record timings.
    ///
    /// **Admission is all-or-nothing at this boundary, and there is one
    /// path to it.** Every engine admits the streams it reads *while*
    /// it runs: each stream goes behind the [`VerifyMode`]'s wrapper
    /// (none, [`StrictSource`] or [`QuarantineSource`]; serial and
    /// parallel replay and the simulators admit v2 file atoms block by
    /// block as they reach them), and a `Report` comes back only once
    /// every stream the verdict comes from has been judged: read to its
    /// end under `Strict` and `Lenient` (a serve client cut off by its
    /// request budget drains the rest), then asked why it ended
    /// ([`TraceSource::take_failure`]), then the wrapper's verdict
    /// ([`StrictSource::finish`], `V06` included, or the lenient
    /// ledger). The streams judged are the one stream of every engine
    /// but serve, and every serve client's, whose lenient ledgers are
    /// summed. With two faults in one stream, the error is the one that
    /// comes first in the order the engine read it. Serial and parallel
    /// replay read, decode and verify on the calling thread, at most
    /// three 1024-record chunks ahead of the engine's threads, which it
    /// feeds through one chunk pipeline ([`replay_cached_pipelined`],
    /// [`replay_sharded`]); an unadmitted serial replay reads inline, as
    /// a reader running ahead could reach a stream failure past the
    /// engine's own error. Real replay, which acts outside the report,
    /// loads the whole input first in every mode (every v2 block's
    /// container checks included) and admits it under `Strict` and
    /// `Lenient` ([`Workload::verify`]) before it touches the sample file.
    ///
    /// A stream replayed with [`VerifyMode::Off`] whose record names a
    /// file outside the declared roster fails with
    /// [`ExpError::Trace`] (record index and file id inside) instead
    /// of being replayed.
    pub fn run(&self) -> Result<Report, ExpError> {
        let mut report = Report::new(self.engine.name(), self.workload.label());
        let options = self.workload.verify_options();
        match self.verify {
            // The bare stream, exactly as an unverified run always read
            // it: no wrapper and no per-record branch.
            VerifyMode::Off => self.run_judged(&mut report, |source| source, |_| Ok(()))?,
            VerifyMode::Strict => self.run_judged(
                &mut report,
                |source| StrictSource::with_options(source, options),
                |strict| strict.finish().map(drop),
            )?,
            VerifyMode::Lenient => {
                let mut ledger = QuarantineSummary::default();
                self.run_judged(
                    &mut report,
                    |source| QuarantineSource::with_options(source, options),
                    |quarantine| {
                        ledger.add(&quarantine.ledger());
                        Ok(())
                    },
                )?;
                report.quarantine = Some(ledger);
            }
        }
        Ok(report)
    }

    /// The one admission path: runs the engine over streams wrapped by
    /// `wrap`, and judges each stream the verdict comes from once the
    /// engine is done with it: read to its end when admission is on,
    /// then why it failed, if it did, then `verdict`, the wrapper's say
    /// on the records it saw. Both come ahead of the engine's own error.
    fn run_judged<S: TraceSource>(
        &self,
        report: &mut Report,
        wrap: impl Fn(Box<dyn TraceSource>) -> S,
        mut verdict: impl FnMut(&mut S) -> Result<(), VerifyError>,
    ) -> Result<(), ExpError> {
        let admitting = self.verify != VerifyMode::Off;
        let mut judge = |stream: &mut S| {
            while admitting && stream.next_record().is_some() {}
            match stream.take_failure() {
                Some(failure) => Err(ExpError::from(failure)),
                None => Ok(verdict(stream)?),
            }
        };
        // Serve opens its input once per client: the load-once atoms
        // (file, app) become one shared in-memory trace first, so each
        // open clones an `Arc`. Real replay acts outside the report: it
        // loads the whole input (every container check included) before
        // it touches the file. Every other engine reads one lazy stream.
        let workload = match self.engine {
            Engine::Serve | Engine::RealReplay { .. } => Cow::Owned(self.workload.resolve()?),
            _ => Cow::Borrowed(&self.workload),
        };
        let started = Instant::now();
        if let Engine::Serve = self.engine {
            let outcome = serve::run_serve(
                &workload,
                self.cache.clone(),
                self.parallel.shards,
                &self.serve,
                self.mode,
                wrap,
                judge,
            )?;
            report.records = outcome.records;
            report.cache_metrics = Some(outcome.cache_metrics);
            report.serve_latencies = outcome.latencies;
            report.serve = Some(outcome.summary);
        } else {
            let mut stream = wrap(workload.open_lazy()?);
            let ran = self.run_engine(&workload, &mut stream, report);
            judge(&mut stream)?;
            ran?;
        }
        report.wall_ms = Some(started.elapsed().as_secs_f64() * 1e3);
        Ok(())
    }

    /// Runs every engine but serve over `stream`, the one stream the
    /// verdict comes from.
    fn run_engine(
        &self,
        workload: &Workload,
        stream: &mut impl TraceSource,
        report: &mut Report,
    ) -> Result<(), ExpError> {
        match &self.engine {
            Engine::SerialReplay => {
                // Admission is about half the work: the cache gets a thread.
                let replay = match self.verify {
                    VerifyMode::Off => replay_cached(stream, self.cache.clone(), self.mode),
                    _ => replay_cached_pipelined(stream, self.cache.clone(), self.mode),
                }?;
                report.cache_metrics = Some(replay.metrics);
                report.set_replay(replay);
            }
            Engine::ParallelReplay => {
                let replay = replay_sharded(stream, self.cache.clone(), &self.parallel, self.mode)?;
                report.cache_metrics = Some(replay.metrics);
                report.shard_metrics = Some(replay.shard_metrics.clone());
                report.threads_used = Some(replay.threads);
                report.set_replay(replay);
            }
            Engine::TraceSim | Engine::ScheduledSim => {
                let sim = match self.engine {
                    Engine::TraceSim => trace_sim(|| stream, &self.machine, &self.sim_options),
                    _ => scheduled_trace_sim(|| stream, &self.machine, &self.sched),
                }?;
                report.records = sim.records;
                report.sim = Some(sim);
            }
            Engine::RealReplay { sample } => {
                workload.verify(self.verify)?;
                let mut backend = open_real_backend(sample, self.real)?;
                report.set_replay(replay_backend(stream, &mut backend, self.real, self.mode)?);
            }
            Engine::Serve => unreachable!("serve judges each client's stream itself"),
        }
        Ok(())
    }
}

/// Runs a batch of experiments on a pool of `threads` worker threads.
///
/// Each worker pulls the next unclaimed experiment and calls
/// [`Experiment::run`] on it, so any batch scales out — replays,
/// simulations and serving runs alike — and every report is exactly
/// the one a solo run produces: admission, quarantine ledger and
/// `wall_ms` included. Reports come back in input order; if any
/// experiment fails, the error of the first failing one in input order
/// is returned. With `threads <= 1` or a single experiment the batch
/// runs on the calling thread.
///
/// Deterministic report fields do not depend on `threads`. Wall-clock
/// telemetry (`wall_ms`) is measured under whatever concurrency the
/// caller asked for.
pub fn run_many(experiments: &[Experiment], threads: usize) -> Result<Vec<Report>, ExpError> {
    let threads = threads.min(experiments.len());
    if threads <= 1 {
        return experiments.iter().map(Experiment::run).collect();
    }

    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(experiment) = experiments.get(i) else { return done };
            done.push((i, experiment.run()));
        }
    };
    let mut slots: Vec<Option<Result<Report, ExpError>>> =
        experiments.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        for handle in workers {
            let done = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("the workers claimed every index")).collect()
}

/// Replays `base`'s workload under **every** replacement policy
/// ([`ReplacementPolicy::ALL`], in ablation order) and returns `base`'s
/// own summary with the per-policy comparison table attached
/// ([`ReportSummary::policies`]): hit ratio, evictions and wall-clock
/// records/s per policy.
///
/// Only the cache-driving engines compare policies meaningfully, so
/// `base` must use [`Engine::SerialReplay`] or
/// [`Engine::ParallelReplay`]; anything else is an
/// [`ExpError::InvalidConfig`]. The variants go through [`run_many`]
/// on `threads` workers, and each variant differs from `base` in
/// exactly one knob — the cache's replacement policy — so the rows are
/// a controlled ablation. Every column but `records_per_sec` is
/// identical at any `threads`; `records_per_sec` is wall-clock
/// telemetry, measured under the concurrency asked for (pass 1 to time
/// each policy alone).
pub fn run_policy_comparison(base: &Experiment, threads: usize) -> Result<ReportSummary, ExpError> {
    if !matches!(base.engine, Engine::SerialReplay | Engine::ParallelReplay) {
        return Err(ExpError::InvalidConfig(format!(
            "policy comparison needs a cache-driving replay engine, not {}",
            base.engine.name()
        )));
    }
    let experiments: Vec<Experiment> = ReplacementPolicy::ALL
        .iter()
        .map(|&policy| {
            let mut e = base.clone();
            e.cache.policy = policy;
            e
        })
        .collect();
    let reports = run_many(&experiments, threads)?;

    let rows: Vec<PolicyRow> = ReplacementPolicy::ALL
        .iter()
        .zip(&reports)
        .map(|(policy, report)| {
            let metrics = report.cache_metrics.unwrap_or_default();
            let records_per_sec =
                report.wall_ms.filter(|ms| *ms > 0.0).map(|ms| report.records as f64 / (ms / 1e3));
            PolicyRow {
                policy: policy.name().to_string(),
                records: report.records,
                hits: metrics.hits,
                misses: metrics.misses,
                hit_ratio: metrics.hit_ratio(),
                evictions: metrics.evictions,
                records_per_sec,
            }
        })
        .collect();

    // Anchor the summary on the base experiment's own policy so the
    // headline numbers describe the configuration the caller built.
    let anchor = ReplacementPolicy::ALL
        .iter()
        .position(|&p| p == base.cache.policy)
        .expect("ALL covers every policy");
    let mut summary = reports[anchor].summary();
    summary.policies = Some(rows);
    Ok(summary)
}

/// Configures and validates an [`Experiment`].
///
/// ```
/// use clio_exp::{Engine, Experiment, ReportMode, Workload};
/// use clio_trace::synth::TraceProfile;
///
/// let exp = Experiment::builder()
///     .workload(Workload::Synthetic(TraceProfile::default()))
///     .engine(Engine::ParallelReplay)
///     .threads(2)
///     .shards(8)
///     .report_mode(ReportMode::Summary)
///     .build()
///     .unwrap();
/// let report = exp.run().unwrap();
/// assert_eq!(report.threads_used, Some(2));
/// assert!(report.total_ms().unwrap() > 0.0);
/// assert!(report.replay.unwrap().timings.is_empty(), "summary mode keeps no per-record timings");
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    workload: Option<Workload>,
    engine: Engine,
    cache: CacheConfig,
    parallel: ParallelReplayOptions,
    machine: MachineConfig,
    sim_options: TraceSimOptions,
    sched: SchedReplayOptions,
    real: RealReplayOptions,
    serve: ServeOptions,
    mode: ReportMode,
    verify: VerifyMode,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        Self {
            workload: None,
            engine: Engine::SerialReplay,
            cache: CacheConfig::default(),
            parallel: ParallelReplayOptions { threads: 4, shards: 16 },
            machine: MachineConfig::uniprocessor(),
            sim_options: TraceSimOptions::default(),
            sched: SchedReplayOptions::default(),
            real: RealReplayOptions::default(),
            serve: ServeOptions::default(),
            mode: ReportMode::Full,
            verify: VerifyMode::Off,
        }
    }
}

impl ExperimentBuilder {
    /// Sets the workload (required).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the workload *and* the disk-fault plan from one parsed
    /// [`Scenario`](crate::Scenario) — the builder form of a
    /// `fault:…` spec. Equivalent to
    /// `.workload(s.workload).disk_faults(s.faults)`.
    pub fn scenario(mut self, scenario: crate::Scenario) -> Self {
        self.workload = Some(scenario.workload);
        self.sched.faults = scenario.faults;
        self
    }

    /// Selects the engine (default: streaming serial replay).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Configures the simulated buffer cache (replay engines).
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Worker threads for the parallel replay engine (clamped to
    /// `1..=` the shard count at run time; [`build`](Self::build)
    /// rejects more than [`MAX_THREADS`](clio_trace::replay::MAX_THREADS)).
    /// [`run_many`]'s pool is sized by its own `threads` argument, not
    /// by this knob; a parallel replay run from that pool still starts
    /// this many threads of its own.
    pub fn threads(mut self, threads: usize) -> Self {
        self.parallel.threads = threads;
        self
    }

    /// Shard count of the striped cache of the parallel replay and
    /// serving engines (`1..=`[`MAX_SHARDS`](clio_trace::replay::MAX_SHARDS)).
    pub fn shards(mut self, shards: usize) -> Self {
        self.parallel.shards = shards;
        self
    }

    /// The simulated machine (sim engines; default uniprocessor).
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Think-time handling for the trace-driven simulator.
    pub fn think_time(mut self, think_time: ThinkTime) -> Self {
        self.sim_options.think_time = think_time;
        self
    }

    /// Disk scheduling policy for the scheduled simulator.
    pub fn sched_policy(mut self, policy: Policy) -> Self {
        self.sched.policy = policy;
        self
    }

    /// Cylinder count of the scheduled simulator's modeled disks.
    pub fn cylinders(mut self, cylinders: u64) -> Self {
        self.sched.cylinders = cylinders;
        self
    }

    /// Degraded-disk fault plan for the scheduled simulator (default:
    /// a quiet plan — no slow windows, no transient errors).
    ///
    /// Slow windows multiply service times while the simulated clock
    /// is inside them; `error_every` makes every N-th request fail its
    /// first service attempt, retried with bounded backoff up to
    /// `max_retries` times and dropped gracefully past that. The
    /// retry/drop tallies land in
    /// [`Report::sim`](crate::Report)'s `retries` / `dropped_requests`.
    /// [`build`](Self::build) rejects a plan that fails
    /// [`DiskFaultPlan::validate`] (a negative or non-finite
    /// multiplier, say) when the engine is the scheduled simulator.
    pub fn disk_faults(mut self, faults: DiskFaultPlan) -> Self {
        self.sched.faults = faults;
        self
    }

    /// Options for the real-file replay engine.
    pub fn real_options(mut self, options: RealReplayOptions) -> Self {
        self.real = options;
        self
    }

    /// Concurrent closed-loop clients for the serving engine
    /// ([`Engine::Serve`]; default 1). Each client issues its next
    /// request only after the previous response, over its own seeded
    /// stream derived from the workload.
    pub fn clients(mut self, clients: usize) -> Self {
        self.serve.clients = clients;
        self
    }

    /// Requests each serving client issues (default: its whole
    /// stream).
    pub fn requests_per_client(mut self, requests: usize) -> Self {
        self.serve.requests_per_client = requests;
        self
    }

    /// Virtual think time between a serving client's response and its
    /// next request, ms (default 0).
    pub fn think_ms(mut self, ms: f64) -> Self {
        self.serve.think_ms = ms;
        self
    }

    /// JIT model for the serving engine's managed runtime (default
    /// SSCLI-calibrated).
    pub fn serve_jit(mut self, jit: clio_runtime::JitModel) -> Self {
        self.serve.jit = jit;
        self
    }

    /// Trace admission mode (default [`VerifyMode::Off`]).
    ///
    /// [`VerifyMode::Strict`] checks every record before it is
    /// replayed and fails the run with [`ExpError::Verify`] (rule code
    /// and record index) at the first violation; a stream that passes
    /// replays bit-identically to an unverified one. [`VerifyMode::Lenient`]
    /// quarantines invalid records instead — the survivors replay, and
    /// the ledger lands in [`Report::quarantine`] /
    /// [`ReportSummary::quarantine`].
    pub fn verify(mut self, mode: VerifyMode) -> Self {
        self.verify = mode;
        self
    }

    /// Report mode for the replay engines (default [`ReportMode::Full`]).
    ///
    /// [`ReportMode::Summary`] keeps running aggregates only — report
    /// memory stays O(1) in the trace length, and
    /// [`Report::summary`](crate::Report::summary) is bit-identical to
    /// full mode's — the setting for workloads larger than memory.
    pub fn report_mode(mut self, mode: ReportMode) -> Self {
        self.mode = mode;
        self
    }

    /// Validates the configuration into a runnable [`Experiment`].
    ///
    /// Workload parameters are validated here too (structurally — no
    /// records generated), so a degenerate synthetic profile fails at
    /// build time with its coded [`ExpError::Profile`] instead of deep
    /// inside a run. So is the cache configuration, for every engine: a
    /// zero page size or a cost that is not finite and non-negative is
    /// an [`ExpError::InvalidConfig`] naming the field
    /// ([`CacheConfig::validate`]); and so are a thread or shard count
    /// over its cap ([`ParallelReplayOptions::validate`]).
    pub fn build(self) -> Result<Experiment, ExpError> {
        let workload = self
            .workload
            .ok_or_else(|| ExpError::InvalidConfig("a workload is required".into()))?;
        workload.validate()?;
        self.cache.validate().map_err(ExpError::InvalidConfig)?;
        self.parallel.validate().map_err(ExpError::InvalidConfig)?;
        if matches!(self.engine, Engine::TraceSim | Engine::ScheduledSim) {
            self.machine.validate().map_err(ExpError::InvalidConfig)?;
        }
        if matches!(self.engine, Engine::ScheduledSim) {
            if self.sched.cylinders == 0 {
                return Err(ExpError::InvalidConfig("disks need at least one cylinder".into()));
            }
            self.sched.faults.validate().map_err(SimError::InvalidFaultPlan)?;
        }
        if matches!(self.engine, Engine::Serve) && self.serve.clients == 0 {
            return Err(ExpError::InvalidConfig("serving needs at least one client".into()));
        }
        if !self.serve.think_ms.is_finite() || self.serve.think_ms < 0.0 {
            return Err(ExpError::InvalidConfig(
                "think time must be finite and non-negative".into(),
            ));
        }
        Ok(Experiment {
            workload,
            engine: self.engine,
            cache: self.cache,
            parallel: self.parallel,
            machine: self.machine,
            sim_options: self.sim_options,
            sched: self.sched,
            real: self.real,
            serve: self.serve,
            mode: self.mode,
            verify: self.verify,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_trace::record::IoOp;
    use clio_trace::synth::TraceProfile;

    fn synth(ops: usize) -> Workload {
        Workload::Synthetic(TraceProfile { data_ops: ops, ..Default::default() })
    }

    #[test]
    fn builder_requires_a_workload() {
        let err = Experiment::builder().build().unwrap_err();
        assert!(err.to_string().contains("workload"));
    }

    #[test]
    fn builder_rejects_degenerate_profiles_with_coded_errors() {
        // Build-time validation: the coded ProfileError surfaces from
        // `build()`, not from the first run.
        let zero = Workload::Synthetic(TraceProfile { data_ops: 0, ..Default::default() });
        match Experiment::builder().workload(zero).build().unwrap_err() {
            ExpError::Profile(p) => assert_eq!(p.code(), "P04"),
            other => panic!("unexpected {other:?}"),
        }
        let wild = Workload::Synthetic(TraceProfile { write_fraction: 2.0, ..Default::default() });
        match Experiment::builder().workload(wild).build().unwrap_err() {
            ExpError::Profile(p) => assert_eq!(p.code(), "P01"),
            other => panic!("unexpected {other:?}"),
        }
        // Nested inside a combinator, same treatment.
        let nested = Workload::mix(
            synth(8),
            Workload::Synthetic(TraceProfile { sequentiality: -0.1, ..Default::default() }),
        );
        assert!(matches!(
            Experiment::builder().workload(nested).build().unwrap_err(),
            ExpError::Profile(_)
        ));
    }

    #[test]
    fn scenario_knob_sets_workload_and_faults() {
        let s = crate::Scenario::parse("fault:slow@0-1x8+err@64:synth").unwrap();
        let exp = Experiment::builder()
            .scenario(s)
            .engine(Engine::ScheduledSim)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let sim = exp.sim.expect("scheduled sim reports");
        assert!(sim.records > 0);
        // The error plan actually bites: with error_every=64 over a
        // 256-op workload, retries must be recorded.
        assert!(sim.retries > 0, "expected transient-error retries, got {sim:?}");
    }

    #[test]
    fn builder_rejects_zero_shards() {
        let err = Experiment::builder().workload(synth(1)).shards(0).build().unwrap_err();
        assert!(err.to_string().contains("shard"));
    }

    #[test]
    fn builder_rejects_zero_cylinders_for_scheduled_sim() {
        let err = Experiment::builder()
            .workload(synth(1))
            .engine(Engine::ScheduledSim)
            .cylinders(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("cylinder"));
    }

    #[test]
    fn builder_rejects_a_fault_plan_the_simulator_cannot_run() {
        use clio_sim::sched_replay::SlowWindow;
        for multiplier in [-2.0, f64::NAN, f64::INFINITY] {
            let err = Experiment::builder()
                .workload(synth(4))
                .engine(Engine::ScheduledSim)
                .disk_faults(DiskFaultPlan {
                    slow_windows: vec![SlowWindow { start_s: 0.0, end_s: 1.0, multiplier }],
                    ..Default::default()
                })
                .build()
                .unwrap_err();
            assert!(
                matches!(&err, ExpError::InvalidConfig(m) if m.contains("fault plan")),
                "x{multiplier}: {err:?}"
            );
        }
    }

    #[test]
    fn serial_replay_reports_per_op_means() {
        let report = Experiment::builder().workload(synth(32)).build().unwrap().run().unwrap();
        assert_eq!(report.engine, "serial_replay");
        assert!(report.records >= 34);
        assert!(report.mean_ms(IoOp::Read).is_some());
        assert!(report.total_ms().unwrap() > 0.0);
        assert!(report.sim.is_none());
    }

    #[test]
    fn summary_mode_summarizes_identically() {
        for engine in [Engine::SerialReplay, Engine::ParallelReplay] {
            let full = Experiment::builder()
                .workload(synth(64))
                .engine(engine.clone())
                .build()
                .unwrap()
                .run()
                .unwrap();
            let summary = Experiment::builder()
                .workload(synth(64))
                .engine(engine.clone())
                .report_mode(ReportMode::Summary)
                .build()
                .unwrap()
                .run()
                .unwrap();
            let kept = summary.replay.as_ref().expect("replay section");
            assert!(kept.timings.is_empty(), "{engine:?}");
            assert!(kept.stats().records() > 0, "{engine:?}");
            assert_eq!(summary.summary(), full.summary(), "{engine:?}");
        }
    }

    #[test]
    fn experiments_rerun_identically() {
        let exp = Experiment::builder().workload(synth(64)).build().unwrap();
        let a = exp.run().unwrap();
        let b = exp.run().unwrap();
        assert_eq!(
            a.replay.unwrap().timings,
            b.replay.unwrap().timings,
            "re-running an experiment must be deterministic"
        );
    }

    #[test]
    fn trace_sim_reports_makespan() {
        let report = Experiment::builder()
            .workload(synth(16))
            .engine(Engine::TraceSim)
            .machine(MachineConfig::with_disks(2))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(report.makespan_s().unwrap() > 0.0);
        assert!(report.replay.is_none());
        assert!(report.records >= 18, "records counted as the splitter reads them");
    }

    #[test]
    fn run_many_matches_individual_runs() {
        let experiments: Vec<Experiment> = (1..=3)
            .map(|d| {
                Experiment::builder()
                    .workload(synth(16))
                    .engine(Engine::TraceSim)
                    .machine(MachineConfig::with_disks(d))
                    .build()
                    .unwrap()
            })
            .collect();
        let solo: Vec<_> = experiments.iter().map(|e| e.run().unwrap()).collect();
        for threads in [1usize, 2, 8] {
            let pooled = run_many(&experiments, threads).unwrap();
            assert_eq!(pooled.len(), solo.len());
            for (p, s) in pooled.iter().zip(&solo) {
                assert_eq!(p.sim, s.sim, "{threads} threads");
                assert_eq!(p.records, s.records, "{threads} threads");
            }
        }
    }

    #[test]
    fn run_many_handles_mixed_batches_serially() {
        let experiments = vec![
            Experiment::builder().workload(synth(8)).build().unwrap(),
            Experiment::builder().workload(synth(8)).engine(Engine::TraceSim).build().unwrap(),
        ];
        let reports = run_many(&experiments, 1).unwrap();
        assert_eq!(reports[0].engine, "serial_replay");
        assert_eq!(reports[1].engine, "trace_sim");
    }

    #[test]
    fn run_many_returns_the_first_error_in_input_order() {
        // Experiment 1 fails strict admission, experiment 2 cannot find
        // its file; whichever worker fails first on the clock, the
        // batch reports experiment 1.
        let zero_repeat = Workload::custom("zero-repeat", || {
            let meta = clio_trace::source::SourceMeta {
                sample_file: "z.dat".into(),
                num_processes: 1,
                num_files: 1,
            };
            let mut r = clio_trace::record::TraceRecord::simple(IoOp::Read, 0, 0, 4096);
            r.num_records = 0;
            Box::new(clio_trace::source::IterSource::new(meta, std::iter::once(r)))
        });
        let experiments = vec![
            Experiment::builder().workload(synth(8)).build().unwrap(),
            Experiment::builder().workload(zero_repeat).verify(VerifyMode::Strict).build().unwrap(),
            Experiment::builder()
                .workload(Workload::File("/nonexistent/clio.trace".into()))
                .build()
                .unwrap(),
        ];
        for threads in [1usize, 3] {
            let err = run_many(&experiments, threads).unwrap_err();
            assert!(matches!(err, ExpError::Verify(_)), "{threads} threads: {err}");
        }
    }
}
