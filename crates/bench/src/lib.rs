//! # clio-bench — regeneration harness for every table and figure
//!
//! Binaries (run with `cargo run --release -p clio-bench --bin <name>`):
//!
//! | Binary | What it produces |
//! |---|---|
//! | `paper <artifact>` | one paper artifact as text: `fig2`…`fig6`, `table1`…`table6`, or `all` |
//! | `suite` | every artifact, as JSON |
//! | `checklist` | the paper's claims as a PASS/FAIL scorecard |
//! | `clio_e2e` | the repository's benchmark (`BENCHMARK.json`): end-to-end metrics plus a per-layer ledger |
//! | `clio_run <spec>` | one scenario spec as `ReportSummary` JSON: the per-policy table, or the faulted scheduled simulator |
//! | `load_harness`, `concurrency_sweep` | serving-path latency curves |
//! | `ablation_storage` | storage-design ablations |
//! | `trace_convert`, `verify_smoke` | trace-format conversion and strict-admission smoke |
//!
//! `clio_e2e` is the one measurement harness: every performance number
//! the repository quotes comes from it. `clio_run` measures nothing; it
//! runs a spec once and prints what the engines report.

#![warn(missing_docs)]

/// Prints a bench-binary banner.
pub fn banner(artifact: &str, description: &str) {
    println!("== {artifact} ==");
    println!("{description}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_does_not_panic() {
        banner("Table 1", "demo");
    }
}
