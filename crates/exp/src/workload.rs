//! Workloads: *what* to replay.
//!
//! A [`Workload`] is a named recipe for a record stream. Opening it
//! yields a fresh streaming [`TraceSource`]; opening it again yields
//! the same stream from the start (every constructor is deterministic),
//! which is what lets one experiment be run — and measured — many
//! times.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use clio_trace::source::{
    materialize, ChainSource, FileNamespace, SharedSource, TraceSource, WeightedSource,
};
use clio_trace::synth::{Arrival, Popularity, SynthSource, TraceProfile};
use clio_trace::verify::{verify_lenient, verify_strict, VerifyMode, VerifyOptions, VerifyReport};
use clio_trace::{TraceError, TraceFile};

use crate::error::ExpError;

/// The paper's traced applications, with their table parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppWorkload {
    /// Data mining (Table 1): synchronous sequential 131 072-byte
    /// reads, `reads` per pass over `passes` passes.
    Dmine {
        /// Reads per pass.
        reads: usize,
        /// Number of passes over the dataset.
        passes: usize,
    },
    /// Titan (Table 2): `reads` 187 681-byte tile reads.
    Titan {
        /// Number of tile reads.
        reads: usize,
    },
    /// LU (Table 3): six giant seeks plus out-of-core writes.
    Lu,
    /// Sparse Cholesky (Table 4): sixteen seek+read requests, 4 B to
    /// 2.4 MB.
    Cholesky,
    /// Parallel grep over a synthesized corpus (default config).
    Pgrep,
}

impl AppWorkload {
    /// The Table 1 configuration (64 reads × 2 passes).
    pub const DMINE_PAPER: AppWorkload = AppWorkload::Dmine { reads: 64, passes: 2 };
    /// The Table 2 configuration (16 tile reads).
    pub const TITAN_PAPER: AppWorkload = AppWorkload::Titan { reads: 16 };

    /// Generates the application's trace.
    fn trace(&self) -> Result<TraceFile, ExpError> {
        Ok(match *self {
            AppWorkload::Dmine { reads, passes } => clio_apps::dmine::paper_trace(reads, passes),
            AppWorkload::Titan { reads } => clio_apps::titan::paper_trace(reads),
            AppWorkload::Lu => clio_apps::lu::paper_trace(),
            AppWorkload::Cholesky => clio_apps::cholesky::paper_trace(),
            AppWorkload::Pgrep => {
                let (_, trace) = clio_apps::pgrep::run(&clio_apps::pgrep::PgrepConfig::default())?;
                trace
            }
        })
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AppWorkload::Dmine { .. } => "dmine",
            AppWorkload::Titan { .. } => "titan",
            AppWorkload::Lu => "lu",
            AppWorkload::Cholesky => "cholesky",
            AppWorkload::Pgrep => "pgrep",
        }
    }
}

/// How a [`Workload::File`] leaf is opened (see [`Workload::open`]).
type FileOpener = fn(&Path) -> Result<Box<dyn TraceSource>, TraceError>;

/// How a [`Workload::Mix`] merges its two inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// Strict alternation: one record from each side in turn.
    RoundRobin,
    /// `(a, b)` records from the respective sides per cycle; both
    /// weights must be positive.
    Weighted(u32, u32),
    /// Strict alternation with **overlapping file namespaces**: both
    /// sides address the same files (pid spaces stay disjoint), so the
    /// mix models cross-process page-sharing contention instead of the
    /// default disjoint-namespace isolation.
    Shared,
}

/// A user-supplied source factory — the escape hatch that lets any
/// iterator-backed [`TraceSource`] ride through the builder.
#[derive(Clone)]
pub struct CustomWorkload {
    label: String,
    factory: Arc<dyn Fn() -> Box<dyn TraceSource> + Send + Sync>,
}

impl fmt::Debug for CustomWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CustomWorkload").field("label", &self.label).finish_non_exhaustive()
    }
}

/// What to replay. See the module docs for the catalogue.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Statistically synthesized stream (streams with O(1) memory —
    /// never materialized).
    Synthetic(TraceProfile),
    /// One of the paper's traced applications.
    App(AppWorkload),
    /// A binary trace file loaded from disk — v1 fixed-width or v2
    /// compact, auto-detected by magic.
    File(PathBuf),
    /// An in-memory trace (shared, cheap to re-open).
    Trace(Arc<TraceFile>),
    /// Sequential composition: all of the first, then all of the
    /// second. The phases share the pid space (so the order survives
    /// pid-grouping engines) but work on their own files.
    Chain(Box<Workload>, Box<Workload>),
    /// Concurrent mix of two workloads. Namespaces are kept disjoint
    /// except under [`MixKind::Shared`], which deliberately overlaps
    /// the file namespaces (pids stay disjoint).
    Mix(Box<Workload>, Box<Workload>, MixKind),
    /// A user-supplied source factory.
    Custom(CustomWorkload),
}

impl Workload {
    /// Wraps an owned trace.
    pub fn trace(trace: TraceFile) -> Workload {
        Workload::Trace(Arc::new(trace))
    }

    /// Round-robin mix of two workloads.
    pub fn mix(a: Workload, b: Workload) -> Workload {
        Workload::Mix(Box::new(a), Box::new(b), MixKind::RoundRobin)
    }

    /// Ratio-weighted mix: `wa` records of `a` per `wb` records of `b`.
    pub fn mix_weighted(a: Workload, wa: u32, b: Workload, wb: u32) -> Workload {
        Workload::Mix(Box::new(a), Box::new(b), MixKind::Weighted(wa, wb))
    }

    /// Round-robin mix whose sides **share their file namespace**: both
    /// populations address the same files while keeping disjoint pids,
    /// modeling cross-process page-sharing contention. The plain
    /// [`Workload::mix`]/[`Workload::chain`] disjoint-namespace
    /// invariant is untouched — sharing is only ever opt-in through
    /// this constructor (or the `share:` spec).
    pub fn mix_shared(a: Workload, b: Workload) -> Workload {
        Workload::Mix(Box::new(a), Box::new(b), MixKind::Shared)
    }

    /// Sequential chain: `a` to completion, then `b` — per process,
    /// even under the sim engines (the phases share the pid space).
    pub fn chain(a: Workload, b: Workload) -> Workload {
        Workload::Chain(Box::new(a), Box::new(b))
    }

    /// A custom iterator-backed workload: `factory` is called once per
    /// [`Workload::open`] and must return an equivalent stream each
    /// time — an experiment may be run many times, and within one run
    /// serve opens one stream per client and an admitting real replay
    /// one more for its verify pass (every other engine opens exactly
    /// one).
    pub fn custom(
        label: impl Into<String>,
        factory: impl Fn() -> Box<dyn TraceSource> + Send + Sync + 'static,
    ) -> Workload {
        Workload::Custom(CustomWorkload { label: label.into(), factory: Arc::new(factory) })
    }

    /// Opens the workload as a fresh streaming source. Every file atom
    /// in it has been admitted whole (container checks; the `V`-rules
    /// are [`Workload::verify`]) before this returns.
    pub fn open(&self) -> Result<Box<dyn TraceSource>, ExpError> {
        self.open_with(|path| clio_trace::compact::open_path(path))
    }

    /// [`Workload::open`] with v2 file atoms admitted lazily, block by
    /// block as the stream reaches them
    /// ([`open_path_lazy`](clio_trace::compact::open_path_lazy)): for
    /// the engines of [`Experiment::run`](crate::Experiment::run),
    /// which reads the source's
    /// [`take_failure`](TraceSource::take_failure) before it returns a
    /// report.
    pub(crate) fn open_lazy(&self) -> Result<Box<dyn TraceSource>, ExpError> {
        self.open_with(|path| clio_trace::compact::open_path_lazy(path))
    }

    /// The one recursion behind both openers; `open_file` opens a
    /// [`Workload::File`] leaf (v1 vs v2 sniffed by magic either way).
    fn open_with(&self, open_file: FileOpener) -> Result<Box<dyn TraceSource>, ExpError> {
        Ok(match self {
            Workload::Synthetic(profile) => Box::new(SynthSource::new(profile.clone())?),
            Workload::App(app) => Box::new(SharedSource::new(Arc::new(app.trace()?))),
            Workload::File(path) => open_file(path)?,
            Workload::Trace(trace) => Box::new(SharedSource::new(trace.clone())),
            Workload::Chain(a, b) => {
                Box::new(ChainSource::new(a.open_with(open_file)?, b.open_with(open_file)?))
            }
            Workload::Mix(a, b, kind) => {
                let (wa, wb, files) = match *kind {
                    MixKind::RoundRobin => (1, 1, FileNamespace::Disjoint),
                    MixKind::Weighted(wa, wb) => (wa, wb, FileNamespace::Disjoint),
                    MixKind::Shared => (1, 1, FileNamespace::Shared),
                };
                if wa == 0 || wb == 0 {
                    return Err(ExpError::InvalidWorkload(format!(
                        "mix weights must be positive, got {wa}:{wb}"
                    )));
                }
                let (a, b) = (a.open_with(open_file)?, b.open_with(open_file)?);
                Box::new(WeightedSource::new(a, b, wa, wb, files))
            }
            Workload::Custom(c) => (c.factory)(),
        })
    }

    /// Collects the workload into an in-memory [`TraceFile`] — for
    /// callers that want the records themselves (inspection, encoding,
    /// [`Workload::resolve`]); no engine needs it, they all stream.
    /// Workloads that are already a whole trace ([`Workload::Trace`],
    /// [`Workload::File`], [`Workload::App`]) come back without a
    /// second record copy.
    pub fn materialize(&self) -> Result<Arc<TraceFile>, ExpError> {
        match self {
            Workload::Trace(trace) => Ok(trace.clone()),
            Workload::App(app) => Ok(Arc::new(app.trace()?)),
            Workload::File(path) => Ok(Arc::new(clio_trace::compact::load_auto(path)?)),
            _ => Ok(Arc::new(materialize(&mut *self.open()?)?)),
        }
    }

    /// Validates the workload **cheaply** — parameter checks only, no
    /// records generated, no files touched. Everything this accepts,
    /// [`Workload::open`] can open (the one exception is
    /// [`Workload::Custom`], whose factory is opaque by design).
    pub fn validate(&self) -> Result<(), ExpError> {
        match self {
            Workload::Synthetic(p) => Ok(p.validate()?),
            Workload::Mix(a, b, kind) => {
                if let MixKind::Weighted(wa, wb) = kind {
                    if *wa == 0 || *wb == 0 {
                        return Err(ExpError::InvalidWorkload(format!(
                            "mix weights must be positive, got {wa}:{wb}"
                        )));
                    }
                }
                a.validate()?;
                b.validate()
            }
            Workload::Chain(a, b) => {
                a.validate()?;
                b.validate()
            }
            Workload::App(_) | Workload::File(_) | Workload::Trace(_) | Workload::Custom(_) => {
                Ok(())
            }
        }
    }

    /// The verifier rule selection matching this workload's structure.
    ///
    /// Chained workloads legitimately restart their capture clocks at
    /// the phase boundary (phase B's stamps follow phase A's stream but
    /// restart from B's own capture), so the clock-monotonicity rule
    /// (`V03`) is disabled for any workload containing a
    /// [`Workload::Chain`]. Mixes keep every rule: their combinators
    /// hold the sides' pid namespaces disjoint, and the verifier's
    /// clock rule is per pid.
    pub fn verify_options(&self) -> VerifyOptions {
        VerifyOptions { check_clocks: !self.has_chain(), ..Default::default() }
    }

    fn has_chain(&self) -> bool {
        match self {
            Workload::Chain(_, _) => true,
            Workload::Mix(a, b, _) => a.has_chain() || b.has_chain(),
            _ => false,
        }
    }

    /// Extends [`Workload::validate`]'s structural checks to full
    /// trace admission: one streaming pass over the workload's records
    /// under the rules of [`Workload::verify_options`].
    ///
    /// [`VerifyMode::Off`] keeps the historical trust-the-stream
    /// behavior and returns `None` without generating a record.
    /// [`VerifyMode::Strict`] rejects the workload at the first
    /// violation ([`ExpError::Verify`], rule code and record index
    /// intact). [`VerifyMode::Lenient`] returns the full quarantine
    /// ledger. A stream that ends because it failed
    /// ([`TraceSource::take_failure`]) fails either mode with that
    /// error ([`ExpError::Trace`]): a verdict over its prefix is no
    /// verdict on the workload.
    ///
    /// Note this *opens* the workload (apps run, files load); call it
    /// on a [resolved](Workload::resolve) workload to pay that once.
    pub fn verify(&self, mode: VerifyMode) -> Result<Option<VerifyReport>, ExpError> {
        self.validate()?;
        if mode == VerifyMode::Off {
            return Ok(None);
        }
        let (mut source, options) = (self.open()?, self.verify_options());
        let verdict = match mode {
            VerifyMode::Strict => verify_strict(&mut source, options),
            _ => Ok(verify_lenient(&mut source, options)),
        };
        // A failure ends the stream, so it comes before anything the
        // verifier could have met after it.
        match source.take_failure() {
            Some(failure) => Err(failure.into()),
            None => Ok(Some(verdict?)),
        }
    }

    /// Resolves the load-once atoms — [`Workload::File`] (disk load)
    /// and [`Workload::App`] (application run) — into shared
    /// [`Workload::Trace`]s, recursively through chains and mixes, so
    /// that serve, which opens the workload once per client, clones an
    /// `Arc` instead of re-loading or re-running the application per
    /// stream. Streaming atoms (synthetic, custom, trace) pass through
    /// untouched; the label is unchanged by resolution, so resolve
    /// *after* taking the label.
    pub fn resolve(&self) -> Result<Workload, ExpError> {
        Ok(match self {
            Workload::File(_) | Workload::App(_) => Workload::Trace(self.materialize()?),
            Workload::Chain(a, b) => {
                Workload::Chain(Box::new(a.resolve()?), Box::new(b.resolve()?))
            }
            Workload::Mix(a, b, kind) => {
                Workload::Mix(Box::new(a.resolve()?), Box::new(b.resolve()?), *kind)
            }
            other => other.clone(),
        })
    }

    /// A short human-readable description.
    pub fn label(&self) -> String {
        match self {
            Workload::Synthetic(p) => format!("synth(ops={})", p.data_ops),
            Workload::App(app) => app.name().to_string(),
            Workload::File(path) => format!("file({})", path.display()),
            Workload::Trace(trace) => format!("trace({})", trace.header.sample_file),
            Workload::Chain(a, b) => format!("chain({},{})", a.label(), b.label()),
            Workload::Mix(a, b, MixKind::RoundRobin) => {
                format!("mix({},{})", a.label(), b.label())
            }
            Workload::Mix(a, b, MixKind::Weighted(wa, wb)) => {
                format!("mix({}*{wa},{}*{wb})", a.label(), b.label())
            }
            Workload::Mix(a, b, MixKind::Shared) => {
                format!("share({},{})", a.label(), b.label())
            }
            Workload::Custom(c) => c.label.clone(),
        }
    }

    /// Rescales every synthetic component to `data_ops` operations —
    /// how CLI size flags reach parsed workload specs.
    pub fn scale_data_ops(&mut self, data_ops: usize) {
        match self {
            Workload::Synthetic(p) => p.data_ops = data_ops,
            Workload::Chain(a, b) | Workload::Mix(a, b, _) => {
                a.scale_data_ops(data_ops);
                b.scale_data_ops(data_ops);
            }
            _ => {}
        }
    }

    /// Parses a CLI workload spec.
    ///
    /// Atoms: `synth` (the mixed benchmark profile: 80 % sequential,
    /// 20 % writes), `seq` (dmine-like sequential reads), `rand`
    /// (cholesky-like scattered requests), `dmine`,
    /// `titan`, `lu`, `cholesky`, `pgrep`.
    ///
    /// Scenario wrappers reshape a *synthetic* operand (default
    /// `synth` when the `@<inner>` suffix is omitted) and nest freely,
    /// e.g. `zipf:0.9@phase:4@seq`:
    ///
    /// - `zipf:<theta>[@<inner>]` — Zipfian page popularity
    /// - `hot:<fraction>x<rate>[@<inner>]` — hotspot popularity
    /// - `burst:<n>x<idle>[@<inner>]` — bursty arrivals
    /// - `diurnal:<period>x<peak>[@<inner>]` — diurnal arrivals
    /// - `phase:<k>[@<inner>]` — `k`-phase working-set migration
    ///
    /// Combinators over two operands: `mix:<a>,<b>` (round-robin),
    /// `mix:<a>*<wa>,<b>*<wb>` (ratio-weighted), `share:<a>,<b>`
    /// (overlapping file namespaces), `chain:<a>,<b>`.
    pub fn parse(spec: &str) -> Result<Workload, String> {
        if let Some(rest) = spec.strip_prefix("mix:") {
            let (a, b) = split_pair(rest)?;
            let (wa, a) = split_weight(a)?;
            let (wb, b) = split_weight(b)?;
            let (a, b) = (Self::parse_operand(a)?, Self::parse_operand(b)?);
            return Ok(match (wa, wb) {
                (1, 1) => Workload::mix(a, b),
                _ => Workload::mix_weighted(a, wa, b, wb),
            });
        }
        if let Some(rest) = spec.strip_prefix("share:") {
            let (a, b) = split_pair(rest)?;
            return Ok(Workload::mix_shared(Self::parse_operand(a)?, Self::parse_operand(b)?));
        }
        if let Some(rest) = spec.strip_prefix("chain:") {
            let (a, b) = split_pair(rest)?;
            return Ok(Workload::chain(Self::parse_operand(a)?, Self::parse_operand(b)?));
        }
        Self::parse_operand(spec)
    }

    /// Parses a combinator operand: a scenario wrapper chain or a bare
    /// atom. Wrappers recurse, so `zipf:0.9@phase:4@seq` nests; each
    /// application re-validates the profile so degenerate knobs
    /// (`zipf:0`, `phase on a 4 KiB file`, …) fail at parse time with
    /// the coded [`ProfileError`](clio_trace::synth::ProfileError)
    /// message.
    fn parse_operand(spec: &str) -> Result<Workload, String> {
        if let Some(rest) = spec.strip_prefix("zipf:") {
            let (param, inner) = split_wrapper(rest);
            let theta: f64 = param.parse().map_err(|_| format!("bad zipf exponent {param:?}"))?;
            return apply_scenario_knob(Self::parse_operand(inner)?, "zipf:", |p| {
                p.popularity = Popularity::Zipfian { theta };
            });
        }
        if let Some(rest) = spec.strip_prefix("hot:") {
            let (param, inner) = split_wrapper(rest);
            let (hot_fraction, hot_rate) = split_xy::<f64>(param, "hot")?;
            return apply_scenario_knob(Self::parse_operand(inner)?, "hot:", |p| {
                p.popularity = Popularity::Hotspot { hot_fraction, hot_rate };
            });
        }
        if let Some(rest) = spec.strip_prefix("burst:") {
            let (param, inner) = split_wrapper(rest);
            let (burst, idle_ticks) = split_xy::<u32>(param, "burst")?;
            return apply_scenario_knob(Self::parse_operand(inner)?, "burst:", |p| {
                p.arrival = Arrival::Bursty { burst, idle_ticks };
            });
        }
        if let Some(rest) = spec.strip_prefix("diurnal:") {
            let (param, inner) = split_wrapper(rest);
            let (period, peak) = split_xy::<u32>(param, "diurnal")?;
            return apply_scenario_knob(Self::parse_operand(inner)?, "diurnal:", |p| {
                p.arrival = Arrival::Diurnal { period, peak };
            });
        }
        if let Some(rest) = spec.strip_prefix("phase:") {
            let (param, inner) = split_wrapper(rest);
            let phases: u32 = param.parse().map_err(|_| format!("bad phase count {param:?}"))?;
            return apply_scenario_knob(Self::parse_operand(inner)?, "phase:", |p| {
                p.phases = phases;
            });
        }
        Self::parse_atom(spec)
    }

    fn parse_atom(name: &str) -> Result<Workload, String> {
        Ok(match name {
            // The mixed benchmark profile (80 % sequential, 20 %
            // writes) — the same stream whether named at top level or
            // inside a mix:/chain: spec.
            "synth" => Workload::Synthetic(TraceProfile {
                write_fraction: 0.2,
                sequentiality: 0.8,
                ..Default::default()
            }),
            "seq" => Workload::Synthetic(TraceProfile::dmine_like()),
            "rand" => Workload::Synthetic(TraceProfile::cholesky_like()),
            "dmine" => Workload::App(AppWorkload::DMINE_PAPER),
            "titan" => Workload::App(AppWorkload::TITAN_PAPER),
            "lu" => Workload::App(AppWorkload::Lu),
            "cholesky" => Workload::App(AppWorkload::Cholesky),
            "pgrep" => Workload::App(AppWorkload::Pgrep),
            other => {
                return Err(format!(
                    "unknown workload {other:?} (try synth, seq, rand, dmine, titan, lu, \
                     cholesky, pgrep, a scenario wrapper zipf:<theta>, hot:<frac>x<rate>, \
                     burst:<n>x<idle>, diurnal:<period>x<peak>, phase:<k> — each taking an \
                     optional @<inner> — or mix:<a>,<b>, mix:<a>*<wa>,<b>*<wb>, \
                     share:<a>,<b>, chain:<a>,<b>)"
                ))
            }
        })
    }
}

/// Splits a wrapper body `"<param>@<inner>"`; the inner operand
/// defaults to `synth` so `zipf:0.9` alone is a complete spec.
fn split_wrapper(rest: &str) -> (&str, &str) {
    match rest.split_once('@') {
        Some((param, inner)) => (param.trim(), inner.trim()),
        None => (rest.trim(), "synth"),
    }
}

/// Parses a two-field `"<a>x<b>"` wrapper parameter.
fn split_xy<T: std::str::FromStr>(param: &str, what: &str) -> Result<(T, T), String> {
    let (a, b) = param
        .split_once('x')
        .ok_or_else(|| format!("expected <a>x<b> in {what} spec, got {param:?}"))?;
    let a = a.trim().parse().map_err(|_| format!("bad {what} parameter {param:?}"))?;
    let b = b.trim().parse().map_err(|_| format!("bad {what} parameter {param:?}"))?;
    Ok((a, b))
}

/// Applies a scenario wrapper's profile mutation to a parsed operand.
/// Wrappers only make sense on synthetic operands (traced apps replay
/// fixed streams), and the touched profile is re-validated so the
/// coded `P` diagnostics surface at parse time.
fn apply_scenario_knob(
    w: Workload,
    what: &str,
    f: impl FnOnce(&mut TraceProfile),
) -> Result<Workload, String> {
    match w {
        Workload::Synthetic(mut p) => {
            f(&mut p);
            p.validate().map_err(|e| e.to_string())?;
            Ok(Workload::Synthetic(p))
        }
        other => Err(format!(
            "{what} applies to synthetic operands (synth, seq, rand, or a nested wrapper), \
             got {}",
            other.label()
        )),
    }
}

/// Splits `"a,b"` into its two operands.
fn split_pair(rest: &str) -> Result<(&str, &str), String> {
    rest.split_once(',')
        .map(|(a, b)| (a.trim(), b.trim()))
        .ok_or_else(|| format!("expected two comma-separated workloads, got {rest:?}"))
}

/// Splits an optional `name*weight` suffix; weight defaults to 1.
fn split_weight(atom: &str) -> Result<(u32, &str), String> {
    match atom.split_once('*') {
        None => Ok((1, atom)),
        Some((name, w)) => {
            let w: u32 = w.trim().parse().map_err(|_| format!("bad mix weight {w:?}"))?;
            if w == 0 {
                return Err("mix weights must be positive".into());
            }
            Ok((w, name.trim()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_trace::record::{IoOp, TraceRecord};
    use clio_trace::source::{IterSource, SourceMeta};

    #[test]
    fn synthetic_opens_as_a_stream() {
        let w = Workload::Synthetic(TraceProfile { data_ops: 10, ..Default::default() });
        let mut src = w.open().unwrap();
        let mut n = 0;
        while src.next_record().is_some() {
            n += 1;
        }
        assert!(n >= 12, "open + close + 10 data ops, got {n}");
    }

    #[test]
    fn reopening_yields_the_same_stream() {
        let w = Workload::Synthetic(TraceProfile { data_ops: 50, ..Default::default() });
        let a = w.materialize().unwrap();
        let b = w.materialize().unwrap();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn materialize_shares_in_memory_traces() {
        let t = clio_apps::lu::paper_trace();
        let w = Workload::trace(t.clone());
        let m = w.materialize().unwrap();
        assert_eq!(m.records, t.records);
    }

    #[test]
    fn app_workloads_produce_their_paper_traces() {
        let w = Workload::App(AppWorkload::DMINE_PAPER);
        let t = w.materialize().unwrap();
        assert_eq!(t.records, clio_apps::dmine::paper_trace(64, 2).records);
    }

    #[test]
    fn parse_atoms_and_combinators() {
        assert!(matches!(Workload::parse("synth").unwrap(), Workload::Synthetic(_)));
        assert!(matches!(
            Workload::parse("dmine").unwrap(),
            Workload::App(AppWorkload::Dmine { reads: 64, passes: 2 })
        ));
        assert!(matches!(
            Workload::parse("mix:dmine,lu").unwrap(),
            Workload::Mix(_, _, MixKind::RoundRobin)
        ));
        assert!(matches!(
            Workload::parse("mix:dmine*3,lu*1").unwrap(),
            Workload::Mix(_, _, MixKind::Weighted(3, 1))
        ));
        assert!(matches!(Workload::parse("chain:seq,rand").unwrap(), Workload::Chain(_, _)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Workload::parse("nope").is_err());
        assert!(Workload::parse("mix:dmine").is_err());
        assert!(Workload::parse("mix:dmine*0,lu").is_err());
        assert!(Workload::parse("mix:dmine*x,lu").is_err());
        assert!(Workload::parse("chain:dmine,nope").is_err());
    }

    #[test]
    fn parse_scenario_wrappers() {
        match Workload::parse("zipf:0.9").unwrap() {
            Workload::Synthetic(p) => {
                assert_eq!(p.popularity, Popularity::Zipfian { theta: 0.9 });
                // Bare wrappers default to the `synth` atom's profile.
                assert_eq!(p.write_fraction, 0.2);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Workload::parse("burst:64x256@seq").unwrap() {
            Workload::Synthetic(p) => {
                assert_eq!(p.arrival, Arrival::Bursty { burst: 64, idle_ticks: 256 });
                assert_eq!(p.write_fraction, 0.0, "inner operand is dmine-like seq");
            }
            other => panic!("unexpected {other:?}"),
        }
        match Workload::parse("hot:0.1x0.9").unwrap() {
            Workload::Synthetic(p) => {
                assert_eq!(p.popularity, Popularity::Hotspot { hot_fraction: 0.1, hot_rate: 0.9 })
            }
            other => panic!("unexpected {other:?}"),
        }
        match Workload::parse("diurnal:50x9").unwrap() {
            Workload::Synthetic(p) => {
                assert_eq!(p.arrival, Arrival::Diurnal { period: 50, peak: 9 })
            }
            other => panic!("unexpected {other:?}"),
        }
        // Wrappers nest: outermost applies last, all knobs stick.
        match Workload::parse("zipf:0.9@phase:4@seq").unwrap() {
            Workload::Synthetic(p) => {
                assert_eq!(p.popularity, Popularity::Zipfian { theta: 0.9 });
                assert_eq!(p.phases, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_scenario_combinators() {
        assert!(matches!(
            Workload::parse("share:seq,rand").unwrap(),
            Workload::Mix(_, _, MixKind::Shared)
        ));
        let label = Workload::parse("share:seq,rand").unwrap().label();
        assert!(label.starts_with("share(") && label.ends_with(')'), "got {label}");
        assert!(matches!(
            Workload::parse("mix:zipf:0.9@seq*3,rand").unwrap(),
            Workload::Mix(_, _, MixKind::Weighted(3, 1))
        ));
        assert!(matches!(
            Workload::parse("chain:phase:4,burst:8x32").unwrap(),
            Workload::Chain(_, _)
        ));
    }

    #[test]
    fn parse_rejects_degenerate_scenarios() {
        // Coded profile diagnostics surface at parse time.
        let err = Workload::parse("zipf:0").unwrap_err();
        assert!(err.contains("P05"), "zipf:0 must fail with the popularity code, got {err}");
        let err = Workload::parse("burst:0x4").unwrap_err();
        assert!(err.contains("P06"), "burst:0x4 must fail with the arrival code, got {err}");
        let err = Workload::parse("phase:0").unwrap_err();
        assert!(err.contains("P07"), "phase:0 must fail with the phase code, got {err}");
        // Structural garbage fails with parse-level messages.
        assert!(Workload::parse("zipf:abc").is_err());
        assert!(Workload::parse("burst:64").is_err());
        assert!(Workload::parse("zipf:0.9@dmine").is_err(), "wrappers reject traced apps");
        assert!(Workload::parse("share:seq").is_err());
    }

    #[test]
    fn scale_reaches_nested_synthetics() {
        let mut w = Workload::parse("mix:seq,rand").unwrap();
        w.scale_data_ops(123);
        match &w {
            Workload::Mix(a, b, _) => {
                for side in [a.as_ref(), b.as_ref()] {
                    match side {
                        Workload::Synthetic(p) => assert_eq!(p.data_ops, 123),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn custom_workload_streams_from_an_iterator() {
        let w = Workload::custom("generator", || {
            let meta = SourceMeta { sample_file: "gen.dat".into(), num_processes: 1, num_files: 1 };
            let gen = (0..64u64).map(|i| TraceRecord::simple(IoOp::Read, 0, i * 4096, 4096));
            Box::new(IterSource::new(meta, gen))
        });
        assert_eq!(w.label(), "generator");
        let t = w.materialize().unwrap();
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn mix_label_mentions_both_sides() {
        let w = Workload::parse("mix:dmine*3,lu*2").unwrap();
        assert_eq!(w.label(), "mix(dmine*3,lu*2)");
    }

    #[test]
    fn validate_is_structural_and_catches_nested_errors() {
        assert!(Workload::parse("mix:seq,rand").unwrap().validate().is_ok());
        let bad = Workload::mix(
            Workload::Synthetic(TraceProfile { write_fraction: 2.0, ..Default::default() }),
            Workload::Synthetic(TraceProfile::default()),
        );
        assert!(bad.validate().is_err(), "nested invalid profile must surface");
        assert!(Workload::App(AppWorkload::Lu).validate().is_ok());
    }

    #[test]
    fn resolve_shares_one_trace_across_reopens() {
        // App atoms resolve to a shared in-memory trace: re-opening is
        // an Arc clone, not a re-run of the application.
        let resolved = Workload::App(AppWorkload::Lu).resolve().unwrap();
        match &resolved {
            Workload::Trace(trace) => {
                assert_eq!(trace.records, clio_apps::lu::paper_trace().records)
            }
            other => panic!("expected a resolved trace, got {other:?}"),
        }
        // Streaming atoms pass through; labels never change.
        let synth = Workload::Synthetic(TraceProfile::default());
        assert!(matches!(synth.resolve().unwrap(), Workload::Synthetic(_)));
        let mix = Workload::parse("mix:dmine,lu").unwrap();
        let resolved = mix.resolve().unwrap();
        assert!(matches!(&resolved, Workload::Mix(a, b, _)
            if matches!(a.as_ref(), Workload::Trace(_)) && matches!(b.as_ref(), Workload::Trace(_))));
        assert_eq!(
            resolved.materialize().unwrap().records,
            mix.materialize().unwrap().records,
            "resolution must not change the stream"
        );
    }
}
