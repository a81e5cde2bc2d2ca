//! Set-up, the untraced end-to-end pass and the traced per-layer pass.
//!
//! Workloads are measured **interleaved in rounds**: a round runs a
//! short block of reps of each workload in turn, so a slow minute of
//! the host lands on every workload alike instead of on whichever row
//! happened to be running. Every rep is bracketed by the calibration
//! kernel, and every metric is a median over the reps.

use std::path::Path;
use std::time::Instant;

use clio_core::prelude::Report;

use crate::layers::{self, LayerInput, Ledger};
use crate::measure::{self, HeapWindow};
use crate::registry;
use crate::spans::{self, Recorder, Span};
use crate::workloads::{nproc, Kind, Prepared};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untraced reps of one workload per round.
const REPS_PER_ROUND: usize = 3;
/// Rounds every pass runs at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;
/// Share of a traced pass's time given to the end-to-end reps (half of
/// them under spans); the rest goes to the isolated layer sweeps.
const TRACED_REP_SHARE: f64 = 0.35;
/// Failed checks kept verbatim per workload; the rest are only counted.
const KEPT_FAILURES: usize = 8;

/// Reps attempted and failed, with the first few failed checks.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one rep; it failed if any check did.
    fn count(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(failures.into_iter().take(room));
    }
}

/// A workload set up and warmed: ready for timed reps.
pub struct Ready {
    pub prepared: Prepared,
    /// The first rep's report summaries; every later rep must match.
    fingerprint: Vec<String>,
    pub setup_s: f64,
    pub tally: Tally,
}

/// The failed output checks of one rep: its own, and its summaries
/// against `fingerprint`.
fn checked(
    prepared: &Prepared,
    fingerprint: &[String],
    reports: &Result<Vec<Report>, String>,
) -> Vec<String> {
    match reports {
        Err(e) => vec![format!("{}: run() failed: {e}", prepared.name)],
        Ok(reports) => {
            let mut failures = prepared.check(reports);
            if Prepared::fingerprint(reports) != fingerprint {
                failures
                    .push(format!("{}: ReportSummary differs from the first rep's", prepared.name));
            }
            failures
        }
    }
}

/// Sets workload `name` up [`SETUPS`] times — input synthesis, encode,
/// file write, `build()`, one warm-up rep and its output checks — and
/// reports the median time.
pub fn setup(name: &str, seed: u64, shrink: usize, dir: &Path) -> Result<Ready, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut tally = Tally::default();
    let mut last = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let prepared = Prepared::new(name, seed, shrink, dir)?;
        let reports = prepared.rep();
        let fingerprint = reports.as_ref().map(|r| Prepared::fingerprint(r)).unwrap_or_default();
        tally.count(checked(&prepared, &fingerprint, &reports));
        times.push(started.elapsed().as_secs_f64());
        last = Some((prepared, fingerprint));
    }
    let (prepared, fingerprint) = last.expect("SETUPS is at least 1");
    let setup_s = measure::median(&times).expect("SETUPS is at least 1");
    Ok(Ready { prepared, fingerprint, setup_s, tally })
}

/// What one timed rep measured.
#[derive(Debug, Clone, Copy)]
pub struct RepSample {
    pub wall_ns: f64,
    pub spin_before_ns: f64,
    pub spin_after_ns: f64,
    pub peak_bytes: usize,
    pub alloc_calls: u64,
}

impl RepSample {
    fn norm_cost(&self) -> f64 {
        measure::normalised(self.wall_ns, self.spin_before_ns, self.spin_after_ns)
    }
}

/// Runs one rep inside a heap window; under `tracer`, inside a root
/// span with one child span per `Experiment::run()`.
fn timed_rep(
    prepared: &Prepared,
    tracer: Option<(&mut Recorder, u32)>,
) -> (Result<Vec<Report>, String>, f64, usize, u64) {
    let heap = HeapWindow::open();
    let started = Instant::now();
    let reports = match tracer {
        None => prepared.rep(),
        Some((recorder, rep)) => {
            let root = recorder.enter(format!("rep:{}", prepared.name), rep);
            let reports: Result<Vec<Report>, String> = prepared
                .runs
                .iter()
                .map(|(label, exp)| {
                    recorder
                        .time(
                            label.as_str(),
                            rep,
                            || exp.run().map_err(|e| e.to_string()),
                            |out| match out {
                                Ok(r) => {
                                    let events = r.sim.as_ref().map_or(0, |s| s.events);
                                    vec![("records", r.records), ("events", events)]
                                }
                                Err(_) => Vec::new(),
                            },
                        )
                        .0
                })
                .collect();
            recorder.exit(root, &[]);
            reports
        }
    };
    let wall_ns = started.elapsed().as_nanos() as f64;
    (reports, wall_ns, heap.peak_bytes(), heap.alloc_calls())
}

/// The end-to-end numbers of one workload from one untraced pass.
pub struct EndToEnd {
    pub samples: Vec<RepSample>,
    pub records_per_rep: u64,
    pub tally: Tally,
}

impl EndToEnd {
    fn walls(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.wall_ns).collect()
    }

    pub fn median_wall_ns(&self) -> f64 {
        measure::median(&self.walls()).unwrap_or(f64::NAN)
    }

    /// The lower-decile rep: what `records_per_s` is computed from.
    pub fn quiet_wall_ns(&self) -> f64 {
        measure::lower_decile(&self.walls()).unwrap_or(f64::NAN)
    }

    /// The end-to-end metrics in registry order (`setup_s` from `ready`).
    pub fn metrics(&self, ready: &Ready) -> Vec<(&'static str, f64)> {
        let norms: Vec<f64> = self.samples.iter().map(RepSample::norm_cost).collect();
        let peaks: Vec<f64> = self.samples.iter().map(|s| s.peak_bytes as f64).collect();
        registry::END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "setup_s" => ready.setup_s,
                    "records_per_s" => self.records_per_rep as f64 / (self.quiet_wall_ns() / 1e9),
                    "norm_cost" => measure::lower_decile(&norms).unwrap_or(f64::NAN),
                    "peak_heap_mib" => {
                        measure::median(&peaks).unwrap_or(f64::NAN) / (1u64 << 20) as f64
                    }
                    other => unreachable!("end-to-end metric {other} has no definition"),
                };
                (m.name, value)
            })
            .collect()
    }

    /// `exp.rep_ms_p83`: the highest percentile with ten reps beyond it
    /// (the slowest rep while there are too few for that).
    pub fn tail_ms(&self) -> f64 {
        let q = measure::tail_quantile(self.samples.len()).unwrap_or(1.0);
        measure::quantile(&self.walls(), q).unwrap_or(f64::NAN) / 1e6
    }
}

/// A block of consecutive reps of one workload. Neighbouring reps share
/// the calibration-kernel run between them; `traced[i]` says whether
/// rep `i` runs under spans. Output checks run after the block, outside
/// every timed interval; only reps that pass them yield a sample.
fn block(
    ready: &Ready,
    traced: &[bool],
    mut recorder: Option<&mut Recorder>,
    rep_id: &mut u32,
    tally: &mut Tally,
) -> (Vec<(bool, RepSample)>, u64, Option<Vec<Report>>) {
    let mut timed = Vec::with_capacity(traced.len());
    let mut spin_before_ns = measure::spin_ns();
    for &under_spans in traced {
        *rep_id += 1;
        let tracer = match (&mut recorder, under_spans) {
            (Some(r), true) => Some((&mut **r, *rep_id)),
            _ => None,
        };
        let (reports, wall_ns, peak_bytes, alloc_calls) = timed_rep(&ready.prepared, tracer);
        let spin_after_ns = measure::spin_ns();
        let sample = RepSample { wall_ns, spin_before_ns, spin_after_ns, peak_bytes, alloc_calls };
        timed.push((under_spans, sample, reports));
        spin_before_ns = spin_after_ns;
    }
    // A failed rep is counted, never timed: it may have stopped early.
    let mut samples = Vec::with_capacity(timed.len());
    let mut records = 0;
    let mut last_ok = None;
    for (under_spans, sample, reports) in timed {
        let failures = checked(&ready.prepared, &ready.fingerprint, &reports);
        if let (true, Ok(reports)) = (failures.is_empty(), reports) {
            samples.push((under_spans, sample));
            records = reports.iter().map(|r| r.records).sum();
            last_ok = Some(reports);
        }
        tally.count(failures);
    }
    (samples, records, last_ok)
}

/// The untraced pass: rounds of [`REPS_PER_ROUND`] reps per workload
/// until `seconds` per workload have been spent.
pub fn untraced_pass(readies: &[Ready], seconds: f64) -> Vec<EndToEnd> {
    let mut out: Vec<EndToEnd> = readies
        .iter()
        .map(|r| EndToEnd { samples: Vec::new(), records_per_rep: 0, tally: r.tally.clone() })
        .collect();
    let budget = seconds * readies.len() as f64;
    let started = Instant::now();
    let mut rep_id = 0;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < budget {
        for (ready, e2e) in readies.iter().zip(&mut out) {
            let (samples, records, _) =
                block(ready, &[false; REPS_PER_ROUND], None, &mut rep_id, &mut e2e.tally);
            e2e.samples.extend(samples.into_iter().map(|(_, s)| s));
            e2e.records_per_rep = records;
        }
        rounds += 1;
    }
    out
}

/// What the traced pass produced for one workload.
pub struct Traced {
    pub tally: Tally,
    /// Median untraced rep, ms.
    pub rep_ms: f64,
    /// Per-layer metrics in registry order; `None` where the layer is
    /// bypassed on this workload.
    pub metrics: Vec<(String, &'static str, Option<f64>)>,
    pub spans: Vec<Span>,
}

/// The traced pass: end-to-end reps alternating untraced and under
/// spans, then round-robin sweeps of the isolated layer rows, until
/// `seconds` per workload have been spent.
pub fn traced_pass(readies: &[Ready], seconds: f64) -> Result<Vec<Traced>, String> {
    struct State {
        ledger: Ledger,
        plain: EndToEnd,
        traced_walls: Vec<f64>,
        reports: Option<Vec<Report>>,
    }
    let mut states: Vec<State> = readies
        .iter()
        .map(|r| State {
            ledger: Ledger::new(),
            plain: EndToEnd { samples: Vec::new(), records_per_rep: 0, tally: r.tally.clone() },
            traced_walls: Vec::new(),
            reports: None,
        })
        .collect();
    let budget = seconds * readies.len() as f64;
    let started = Instant::now();

    let mut rep_id = 0;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < budget * TRACED_REP_SHARE {
        for (ready, st) in readies.iter().zip(&mut states) {
            // Alternate which kind goes first, so neither always runs
            // on the warmer cache.
            let order = if rounds % 2 == 0 { [false, true] } else { [true, false] };
            let (samples, records, reports) = block(
                ready,
                &order,
                Some(&mut st.ledger.recorder),
                &mut rep_id,
                &mut st.plain.tally,
            );
            st.plain.records_per_rep = records;
            for (under_spans, sample) in samples {
                if under_spans {
                    st.traced_walls.push(sample.wall_ns);
                } else {
                    st.plain.samples.push(sample);
                }
            }
            if reports.is_some() {
                st.reports = reports;
            }
        }
        rounds += 1;
    }

    let inputs: Vec<LayerInput> =
        readies.iter().map(|r| LayerInput::new(&r.prepared)).collect::<Result<_, _>>()?;
    let mut sweeps = 0;
    while sweeps < MIN_ROUNDS || started.elapsed().as_secs_f64() < budget {
        for ((ready, st), input) in readies.iter().zip(&mut states).zip(&inputs) {
            let reports = st.reports.as_deref().unwrap_or(&[]);
            layers::sweep(&mut st.ledger, &ready.prepared, input, reports)?;
        }
        sweeps += 1;
    }

    Ok(readies
        .iter()
        .zip(states)
        .map(|(ready, st)| {
            ledger_metrics(&ready.prepared, st.ledger, st.plain, &st.traced_walls, st.reports)
        })
        .collect())
}

/// Adds the rows that come from the reps and their spans to the layer
/// sweeps' ledger and reduces it to one value per metric. Timed rows
/// are reduced like the end-to-end timings, by the lower decile, so a
/// share compares a quiet rep with quiet rows.
fn ledger_metrics(
    prepared: &Prepared,
    mut ledger: Ledger,
    plain: EndToEnd,
    traced_walls: &[f64],
    reports: Option<Vec<Report>>,
) -> Traced {
    let quiet_ns = plain.quiet_wall_ns();
    let records = plain.records_per_rep.max(1) as f64;

    ledger.push("exp.run_ns_per_record", quiet_ns / records);
    ledger.push("exp.build_us", prepared.build_us);
    ledger.push("exp.rep_ms_p83", plain.tail_ms());
    if let Some(children_ns) = measure::lower_decile(&ledger.children_ns) {
        ledger.push("exp.self_share", 1.0 - children_ns / quiet_ns);
    }
    if let Some(serial_ns) = measure::lower_decile(&ledger.serial_twin_ns) {
        ledger.push("exp.par_speedup", serial_ns / quiet_ns);
    }
    if let Some(traced_ns) = measure::lower_decile(traced_walls) {
        ledger.push("exp.trace_overhead_share", (traced_ns - quiet_ns) / quiet_ns);
    }
    let allocs: Vec<f64> = plain.samples.iter().map(|s| s.alloc_calls as f64).collect();
    if let Some(calls) = measure::median(&allocs) {
        ledger.push("exp.allocs_per_krecord", calls / records * 1e3);
    }
    let threads = reports.as_deref().and_then(|r| r.first()?.threads_used).unwrap_or(1);
    ledger.push("exp.threads_used", threads as f64);
    if let Kind::Serve { clients, requests_per_client } = prepared.kind {
        ledger.push("exp.serve_ns_per_request", quiet_ns / (clients * requests_per_client) as f64);
    }
    let spins: Vec<f64> =
        plain.samples.iter().flat_map(|s| [s.spin_before_ns, s.spin_after_ns]).collect();
    if let Some(spin_ns) = measure::median(&spins) {
        ledger.push("host.spin_ms_p50", spin_ns / 1e6);
    }
    ledger.push("host.nproc", nproc() as f64);

    // From the rep spans: harness glue (the root's self time) and, on
    // the simulators, host ns per simulated event.
    let mut glue_shares = Vec::new();
    let mut per_event: Vec<(&str, f64)> = Vec::new();
    let recorded = ledger.recorder.spans();
    for (span, self_ns) in recorded.iter().zip(spans::self_times(recorded)) {
        let ns = span.duration_ns().max(1) as f64;
        if span.parent.is_none() && span.name.starts_with("rep:") {
            glue_shares.push(self_ns as f64 / ns);
        }
        let events = span.counts.iter().find(|(k, _)| k == "events").map_or(0, |&(_, v)| v);
        match span.name.as_str() {
            "run:trace_sim" => {
                per_event.push(("sim.trace_ns_per_event", ns / events.max(1) as f64))
            }
            "run:sched_sim" => {
                per_event.push(("sim.sched_ns_per_event", ns / events.max(1) as f64))
            }
            _ => {}
        }
    }
    if let Some(share) = measure::median(&glue_shares) {
        ledger.push("exp.unattributed_share", share);
    }
    for (metric, value) in per_event {
        ledger.push(metric, value);
    }

    let reduced = ledger.reduced();
    let metrics = registry::per_layer()
        .into_iter()
        .map(|m| {
            let value = reduced.get(&m.name).copied();
            (m.name, m.unit, value)
        })
        .collect();
    Traced {
        rep_ms: plain.median_wall_ns() / 1e6,
        tally: plain.tally,
        metrics,
        spans: ledger.recorder.finish(),
    }
}
