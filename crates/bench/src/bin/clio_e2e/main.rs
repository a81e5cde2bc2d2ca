//! `clio_e2e` — the repository's benchmark: six workloads, four
//! end-to-end metrics, a from-outside per-layer ledger. See the
//! README beside this file for the tables and the method.
//!
//! ```text
//! clio_e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!          [--aa] [--list] [--list-json] [--out PATH]
//! ```
//!
//! Without `--workload` all six run, interleaved in rounds. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; with one workload the metric
//! names are exactly those of `BENCHMARK.json`.

mod layers;
mod measure;
mod passes;
mod registry;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::{Number, Value};

use passes::{Ready, Tally};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// The default seed, as `TraceProfile::default().seed`.
const DEFAULT_SEED: u64 = 0xD15C;

const USAGE: &str = "usage: clio_e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--aa] [--list] [--list-json] [--out PATH]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    /// Measuring time per workload and pass.
    seconds: f64,
    trace: bool,
    aa: bool,
    list: bool,
    list_json: bool,
    out: Option<PathBuf>,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("bad seed {text:?}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: registry::RUN_SECONDS as f64,
        trace: false,
        aa: false,
        list: false,
        list_json: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => args.seed = parse_seed(value("a number")?)?,
            "--seconds" => {
                let text = value("a number of seconds")?;
                args.seconds = text.parse().map_err(|_| format!("bad --seconds {text:?}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {text} is outside (0, 600]"));
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            // The driver passes `--trace 0|1`; by hand, bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--aa" => args.aa = true,
            "--list" => args.list = true,
            "--list-json" => args.list_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.aa && args.trace {
        return Err("--aa compares end-to-end metrics; it does not combine with --trace".into());
    }
    Ok(args)
}

/// Generated files live under the build's target directory only (the
/// driver points `CARGO_TARGET_DIR` inside its checkout).
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("clio_e2e")
}

fn number(value: f64) -> Value {
    Value::Number(Number::Float(value))
}

fn count(value: u64) -> Value {
    Value::Number(Number::PosInt(value))
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), number(value)),
        ("unit".into(), Value::String(unit.into())),
    ])
}

/// One workload's outcome, ready to print.
struct Outcome {
    name: &'static str,
    tally: Tally,
    /// Median untraced rep, ms.
    rep_ms: f64,
    /// Name, unit, value; `None` where a layer is bypassed.
    metrics: Vec<(String, &'static str, Option<f64>)>,
}

fn end_to_end_outcomes(readies: &[Ready], pass: &[passes::EndToEnd]) -> Vec<Outcome> {
    readies
        .iter()
        .zip(pass)
        .map(|(ready, e2e)| Outcome {
            name: ready.prepared.name,
            tally: e2e.tally.clone(),
            rep_ms: e2e.median_wall_ns() / 1e6,
            metrics: registry::END_TO_END
                .iter()
                .zip(e2e.metrics(ready))
                .map(|(def, (name, value))| (name.to_string(), def.unit, Some(value)))
                .collect(),
        })
        .collect()
}

fn print_outcomes(outcomes: &[Outcome]) {
    for o in outcomes {
        println!(
            "\n{} ({} reps attempted, {} failed, median rep {:.1} ms)",
            o.name, o.tally.attempted, o.tally.failed, o.rep_ms
        );
        for (name, unit, value) in &o.metrics {
            match value {
                Some(v) => println!("  {name:<36} {v:>16.6} {unit}"),
                None => println!("  {name:<36} {:>16} (layer bypassed)", "-"),
            }
        }
        for failure in &o.tally.failures {
            println!("  FAILED {failure}");
        }
    }
}

/// The result object: the contract's four keys. With one workload the
/// metric names are bare; with several they carry the workload as a
/// prefix. A bypassed layer's row reads 0.
fn result_json(outcomes: &[Outcome]) -> Value {
    let attempted: u64 = outcomes.iter().map(|o| o.tally.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.tally.failed).sum();
    let mut metrics = Vec::new();
    for o in outcomes {
        for (name, unit, value) in &o.metrics {
            let key = if outcomes.len() == 1 { name.clone() } else { format!("{}:{name}", o.name) };
            metrics.push((key, metric(value.unwrap_or(0.0), unit)));
        }
    }
    Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), count(attempted)),
        ("failed".into(), count(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

/// `--aa`: the relative difference of every end-to-end metric between
/// two passes of the same code, next to its bound. Returns whether
/// every pair agrees.
fn print_aa(first: &[Outcome], second: &[Outcome]) -> bool {
    let mut agree = true;
    println!("\nA/A: two passes, same seed, same binary");
    for (a, b) in first.iter().zip(second) {
        for (def, ((name, _, va), (_, _, vb))) in
            registry::END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics))
        {
            // Set-up ran once and is shared by both passes.
            if def.name == "setup_s" {
                continue;
            }
            let (va, vb) = (va.unwrap_or(f64::NAN), vb.unwrap_or(f64::NAN));
            let diff = (vb - va).abs() / va.abs();
            let ok = diff <= def.bound;
            agree &= ok;
            println!(
                "  {:<14} {name:<14} {va:>16.6} {vb:>16.6}  diff {:>6.2}%  bound {:>5.1}%  {}",
                a.name,
                diff * 100.0,
                def.bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    agree
}

fn write_json(path: &std::path::Path, value: &impl serde::Serialize) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => registry::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let dir = out_dir();

    // Once per run: the paper's model and trace claims (QCRD and the
    // tables) must all still hold, or no timing below means anything.
    let broken: Vec<String> = clio_core::paper::checklist_offline()
        .into_iter()
        .filter(|c| !c.holds)
        .map(|c| format!("paper checklist: {} — {} ({})", c.artifact, c.claim, c.evidence))
        .collect();

    let readies: Vec<Ready> = names
        .iter()
        .map(|name| passes::setup(name, args.seed, 1, &dir))
        .collect::<Result<_, _>>()?;

    let mut spans = Vec::new();
    let mut outcomes = if args.trace {
        passes::traced_pass(&readies, args.seconds)?
            .into_iter()
            .zip(&readies)
            .map(|(traced, ready)| {
                spans.push((ready.prepared.name, traced.spans));
                Outcome {
                    name: ready.prepared.name,
                    tally: traced.tally,
                    rep_ms: traced.rep_ms,
                    metrics: traced.metrics,
                }
            })
            .collect()
    } else {
        end_to_end_outcomes(&readies, &passes::untraced_pass(&readies, args.seconds))
    };
    if let Some(first) = outcomes.first_mut() {
        if !broken.is_empty() {
            first.tally.failed += 1;
            first.tally.failures.extend(broken);
        }
    }

    println!(
        "clio_e2e seed={:#x} seconds={} trace={} nproc={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::nproc()
    );
    print_outcomes(&outcomes);
    let mut ok = outcomes.iter().all(|o| o.tally.failed == 0);
    if args.aa {
        let again = end_to_end_outcomes(&readies, &passes::untraced_pass(&readies, args.seconds));
        ok &= again.iter().all(|o| o.tally.failed == 0);
        ok &= print_aa(&outcomes, &again);
    }

    for (name, spans) in &spans {
        write_json(&dir.join(format!("trace-{name}.json")), spans)?;
    }
    let result = result_json(&outcomes);
    write_json(&args.out.clone().unwrap_or_else(|| dir.join("result.json")), &result)?;
    println!("\n{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("clio_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        registry::print_list();
        return ExitCode::SUCCESS;
    }
    if args.list_json {
        let json = serde_json::to_string_pretty(&registry::benchmark_json());
        println!("{}", json.expect("the registry serializes"));
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("clio_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn driver_and_hand_forms_of_trace_both_parse() {
        let driver = parse_args(&argv(&[
            "--workload",
            "ingest_v2",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(driver.workload.as_deref(), Some("ingest_v2"));
        assert_eq!((driver.seed, driver.seconds, driver.trace), (7, 3.0, false));
        assert!(parse_args(&argv(&["--trace", "1"])).unwrap().trace);
        assert!(parse_args(&argv(&["--trace"])).unwrap().trace);
        assert!(parse_args(&argv(&["--trace", "--aa"])).is_err());
        assert_eq!(parse_args(&argv(&["--seed", "0xD15C"])).unwrap().seed, DEFAULT_SEED);
        assert!(parse_args(&argv(&["--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--bogus"])).is_err());
    }

    #[test]
    fn one_round_of_replay_hot_passes_its_checks() {
        // Shrunk 8x (ops and file alike, so the hit-ratio band still
        // holds) to keep the debug-profile test quick.
        let dir = std::env::temp_dir().join(format!("clio_e2e-smoke-{}", std::process::id()));
        let ready = passes::setup("replay_hot", DEFAULT_SEED, 8, &dir).unwrap();
        let pass = passes::untraced_pass(std::slice::from_ref(&ready), 0.0);
        let outcomes = end_to_end_outcomes(std::slice::from_ref(&ready), &pass);
        assert_eq!(outcomes[0].tally.failed, 0, "{:?}", outcomes[0].tally.failures);
        assert!(outcomes[0].tally.attempted >= 3);
        for (name, _, value) in &outcomes[0].metrics {
            assert!(value.is_some_and(|v| v.is_finite() && v > 0.0), "{name}: {value:?}");
        }
        let json = result_json(&outcomes);
        assert_eq!(json["correct"], Value::Bool(true));
        assert!(json["metrics"]["records_per_s"]["value"].as_f64().unwrap() > 0.0);
    }
}
