//! Strict-admission smoke: every built-in workload atom, plus the
//! mix/chain combinators and the scenario knobs over them, must pass
//! the verifier's full `V01`–`V11` rule table. CI runs this after the unit layer; any
//! rejected workload exits nonzero with the rule code and record index.

use clio_core::prelude::*;

const SPECS: [&str; 17] = [
    "synth",
    "seq",
    "rand",
    "dmine",
    "titan",
    "lu",
    "cholesky",
    "pgrep",
    "mix:dmine,lu",
    "mix:seq*3,rand*1",
    "chain:seq,rand",
    "share:seq,rand",
    "zipf:0.9",
    "hot:0.2x0.8",
    "burst:64x256",
    "diurnal:64x4",
    "phase:4",
];

const RULES: [(&str, &str); 11] = [
    ("V01", "process id outside the header roster"),
    ("V02", "file id outside the header roster"),
    ("V03", "per-process wall clock rewound"),
    ("V04", "open of an already-open (pid, file) pair"),
    ("V05", "close without a matching open"),
    ("V06", "open left dangling at end of stream"),
    ("V07", "zero repeat count"),
    ("V08", "offset + length x repeat overflows u64"),
    ("V09", "metadata operation carrying a length"),
    ("V10", "length x repeat spans more than 4 GiB"),
    ("V11", "repeat count above 2^15"),
];

fn main() {
    clio_bench::banner("Verify", "Strict trace admission over every built-in workload");

    println!("Rule table:");
    for (code, what) in RULES {
        println!("  {code}  {what}");
    }
    println!();
    println!("{:18} {:>9} {:>9}  verdict", "workload", "records", "admitted");

    let mut failed = false;
    for spec in SPECS {
        let workload = match Workload::parse(spec) {
            Ok(w) => w,
            Err(e) => {
                println!("{spec:18} {:>9} {:>9}  UNPARSEABLE: {e}", "-", "-");
                failed = true;
                continue;
            }
        };
        // Chains legitimately restart capture clocks, so the workload
        // picks its own rule selection via `Workload::verify_options`.
        match workload.verify(VerifyMode::Strict) {
            Ok(Some(report)) => {
                println!("{spec:18} {:>9} {:>9}  pass", report.records, report.admitted);
            }
            Ok(None) => unreachable!("strict mode always yields a report"),
            Err(e) => {
                println!("{spec:18} {:>9} {:>9}  REJECTED: {e}", "-", "-");
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
