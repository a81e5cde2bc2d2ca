//! `clio_run <spec>` — runs one scenario spec once and prints what the
//! engines report, as `ReportSummary` JSON. It measures nothing: the
//! repository's one benchmark is `clio_e2e`.
//!
//! - A quiet spec (any workload spec: `synth`, `zipf:0.9`,
//!   `share:seq,rand`, …) is replayed serially under every replacement
//!   policy; the summary's `policies` array is the per-policy table.
//! - A `fault:<atoms>:<spec>` spec runs the scheduled simulator on the
//!   degraded disk it describes; the summary carries `makespan_s`,
//!   `retries` and `dropped_requests`.
//!
//! Every spec runs at its intrinsic size. A missing or extra argument,
//! or a spec that does not parse, exits 2 with usage; a failed run
//! exits 1.

use clio_core::exp::{
    run_policy_comparison, Engine, ExpError, Experiment, ReportMode, ReportSummary, Scenario,
};

const USAGE: &str = "usage: clio_run <spec>   (a workload spec, or fault:<atoms>:<spec>)";

/// The scheduled simulator over `scenario`'s workload and disk.
fn scheduled(scenario: Scenario) -> Result<ReportSummary, ExpError> {
    Experiment::builder()
        .scenario(scenario)
        .engine(Engine::ScheduledSim)
        .build()?
        .run()
        .map(|r| r.summary())
}

/// The summary's JSON, or the exit code and message of a failure.
fn cli(args: &[String]) -> Result<String, (u8, String)> {
    let usage = |e: String| (2, format!("clio_run: {e}\n{USAGE}"));
    let [spec] = args else {
        return Err(usage(format!("expected one <spec>, got {} arguments", args.len())));
    };
    let scenario = Scenario::parse(spec).map_err(usage)?;
    let summary = if scenario.has_faults() {
        scheduled(scenario)
    } else {
        Experiment::builder()
            .workload(scenario.workload)
            .engine(Engine::SerialReplay)
            .report_mode(ReportMode::Summary)
            .build()
            .and_then(|base| run_policy_comparison(&base, 1))
    };
    summary.map(|s| s.to_json()).map_err(|e| (1, format!("clio_run: {spec}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(json) => println!("{json}"),
        Err((code, message)) => {
            eprintln!("{message}");
            std::process::exit(code.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(spec: &str) -> ReportSummary {
        let json = cli(&[spec.to_string()]).unwrap_or_else(|(_, e)| panic!("{e}"));
        ReportSummary::from_json(&json).expect("the printed summary parses")
    }

    fn assert_usage_exit(args: &[&str]) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        match cli(&args) {
            Err((2, message)) => assert!(message.ends_with(USAGE), "{args:?}: {message}"),
            other => panic!("{args:?}: expected exit 2 with usage, got {other:?}"),
        }
    }

    #[test]
    fn a_missing_or_extra_argument_exits_2_with_usage() {
        assert_usage_exit(&[]);
        assert_usage_exit(&["synth", "synth"]);
        assert_usage_exit(&["--records", "synth"]);
    }

    #[test]
    fn a_bad_spec_exits_2_with_usage_before_anything_runs() {
        for spec in ["nope", "--nope", "mix:dmine*0,lu", "zipf:0", "fault:wat@1:synth"] {
            assert_usage_exit(&[spec]);
        }
        // The whole scenario grammar is accepted.
        for spec in ["mix:dmine,lu", "zipf:0.9", "burst:64x256", "phase:4", "share:seq,rand"] {
            assert!(Scenario::parse(spec).is_ok(), "{spec}");
        }
    }

    #[test]
    fn a_quiet_spec_prints_one_row_per_policy() {
        let s = summary("zipf:0.9");
        assert_eq!(s.engine, "serial_replay");
        let rows = s.policies.expect("the per-policy table");
        let names: Vec<&str> = rows.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(names, ["LRU", "CLOCK", "FIFO", "2Q", "SLRU", "SIEVE", "ARC"]);
        assert!(rows.iter().all(|r| r.records == s.records && r.records > 0));
    }

    #[test]
    fn a_fault_spec_reaches_the_faulted_scheduled_simulator() {
        let faulted = summary("fault:slow@0-1x8+err@64:burst:64x256");
        assert_eq!(faulted.engine, "scheduled_sim");
        assert!(faulted.retries.expect("a sim summary") > 0, "the retry path ran");
        let quiet = scheduled(Scenario::parse("burst:64x256").unwrap()).unwrap();
        assert!(quiet.retries == Some(0) && quiet.policies.is_none());
        let (slow, fast) = (faulted.makespan_s.unwrap(), quiet.makespan_s.unwrap());
        assert!(slow > fast, "the degraded disk is slower: {slow} s vs {fast} s");
    }
}
