//! `paper <artifact>` — regenerates one table or figure of the paper
//! (or `all` of them, in the paper's order) as text.
//!
//! Artifacts: `fig2` … `fig6`, `table1` … `table6`. Figures 2–5 and
//! Tables 1–4 are simulated and print identically on every run;
//! Tables 5–6 and Figure 6 time a real web server over loopback.

use std::io;
use std::process::ExitCode;

use clio_core::experiments::{
    cpu_speedup, disk_speedup, fig6_series, qcrd_breakdown, table1_dmine, table2_titan, table3_lu,
    table4_cholesky, table5_webserver, table6_repeated_reads, TraceTable,
};
use clio_core::report::{
    render_qcrd, render_speedup, render_table5, render_table6, render_trace_means,
    render_trace_requests,
};
use clio_stats::{SpeedupCurve, Table};

/// One regenerable artifact: CLI name, banner title, banner
/// description, and the routine that prints its body.
type Artifact = (&'static str, &'static str, &'static str, fn() -> io::Result<()>);

const ARTIFACTS: [Artifact; 11] = [
    ("fig2", "Figure 2", "QCRD execution time of computation and disk I/O (seconds)", fig2),
    ("fig3", "Figure 3", "Percentage of execution time for computation and disk I/O", fig3),
    ("fig4", "Figure 4", "Speedup of the application as a function of the number of disks", fig4),
    ("fig5", "Figure 5", "Speedup of the application as a function of the number of CPUs", fig5),
    ("table1", "Table 1", "Results for the data mining application (replayed trace)", table1),
    ("table2", "Table 2", "Results for the Titan application (replayed trace)", table2),
    ("table3", "Table 3", "Results for the LU application (replayed trace)", table3),
    ("table4", "Table 4", "Results for the Cholesky application (replayed trace)", table4),
    ("table5", "Table 5", "Web server first-request read/write response times", table5),
    ("table6", "Table 6", "Repeated reads of the 14063-byte file", table6),
    ("fig6", "Figure 6", "Read response time vs trial number (14063-byte file)", fig6),
];

fn fig2() -> io::Result<()> {
    let fig = qcrd_breakdown();
    println!("{}", render_qcrd(&fig));
    println!("Simulated makespan: {:.1} s", fig.makespan_s);
    println!(
        "Paper shape check: program 1 longer than program 2: {}",
        fig.program1.cpu_s + fig.program1.io_s > fig.program2.cpu_s + fig.program2.io_s
    );
    Ok(())
}

fn fig3() -> io::Result<()> {
    let fig = qcrd_breakdown();
    let mut t = Table::new("CPU vs IO percentage", &["Unit", "CPU (%)", "IO (%)"]);
    for (name, b) in
        [("Application", fig.application), ("Program 1", fig.program1), ("Program 2", fig.program2)]
    {
        t.row(&[name.to_string(), format!("{:.1}", b.cpu_pct), format!("{:.1}", b.io_pct)]);
    }
    println!("{t}");
    println!(
        "Paper shape check: I/O share noticeably large (application): {:.1}%",
        fig.application.io_pct
    );
    Ok(())
}

/// Figures 4 and 5: a speedup table, the fitted Amdahl fraction of the
/// share `resource` cannot speed up, and the paper's shape check.
fn speedup_figure(
    title: &str,
    curve: &SpeedupCurve,
    resource: &str,
    shape: &str,
) -> io::Result<()> {
    println!("{}", render_speedup(title, curve));
    if let Some(f) = curve.amdahl_serial_fraction() {
        println!("Amdahl serial fraction ({resource}-insensitive share): {f:.3}");
    }
    println!(
        "Paper shape check: {shape}: max {:.2}",
        curve.speedups().iter().map(|&(_, s)| s).fold(0.0, f64::max)
    );
    Ok(())
}

fn fig4() -> io::Result<()> {
    let shape = "speedup changes only slightly with disks";
    speedup_figure("QCRD disk sweep (baseline: 1 disk)", &disk_speedup(), "disk", shape)
}

fn fig5() -> io::Result<()> {
    let shape = "CPU speedup exceeds disk speedup and saturates";
    speedup_figure("QCRD CPU sweep (baseline: 1 CPU)", &cpu_speedup(), "CPU", shape)
}

/// Tables 1–4: the per-request rows where the paper lists them, the
/// per-operation means, and the paper's own numbers for comparison.
fn trace_table(table: &TraceTable, per_request: bool, paper: &str) -> io::Result<()> {
    if per_request {
        println!("{}", render_trace_requests(table));
    }
    println!("{}", render_trace_means(table));
    println!("{paper}");
    Ok(())
}

fn table1() -> io::Result<()> {
    trace_table(
        &table1_dmine(),
        false,
        "Paper row: data size 131072 B | read 0.0025 ms | open 0.0006 ms | close 0.0072 ms | seek 7.88E-05 ms",
    )
}

fn table2() -> io::Result<()> {
    trace_table(
        &table2_titan(),
        false,
        "Paper row: data size 187681 B | read 0.002 ms | open 0.0005 ms | close 0.005 ms",
    )
}

fn table3() -> io::Result<()> {
    trace_table(
        &table3_lu(),
        true,
        "Paper: open 0.0006 ms, close 0.4566 ms; seeks 7.27E-05..2E-04 ms at 60-67 MB offsets",
    )
}

fn table4() -> io::Result<()> {
    trace_table(
        &table4_cholesky(),
        true,
        "Paper: open 0.00067 ms, close 0.0071 ms; reads 7.3E-05..0.025 ms, sizes 4 B..2.4 MB",
    )
}

fn table5() -> io::Result<()> {
    println!("{}", render_table5(&table5_webserver()?));
    println!(
        "Paper rows: 7501 B: 2.1175/2.8538 ms | 50607 B: 2.2319/2.7442 ms | 14603 B: 1.6764/2.4026 ms"
    );
    Ok(())
}

fn table6() -> io::Result<()> {
    let data = table6_repeated_reads(6)?;
    println!("{}", render_table6(&data));
    println!("Paper trials (ms): 9.0181, 6.7331, 6.5070, 7.4598, 5.9489, 3.2441");
    let first = data[0].0;
    let rest_max = data[1..].iter().map(|&(s, _)| s).fold(0.0, f64::max);
    println!(
        "Shape check: first read slowest: {} ({first:.3} vs max rest {rest_max:.3})",
        first > rest_max
    );
    Ok(())
}

fn fig6() -> io::Result<()> {
    let series = fig6_series()?;
    print!("{}", series.to_tsv());
    println!("sparkline: {}", series.sparkline());
    println!("first-is-max shape holds: {}", series.first_is_max(0.0));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Artifact> = match args.as_slice() {
        [name] if name == "all" => ARTIFACTS.iter().collect(),
        [name] => ARTIFACTS.iter().filter(|a| a.0 == name).collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
        eprintln!("usage: paper <{} | all>", names.join(" | "));
        return ExitCode::from(2);
    }
    for (_, title, description, body) in selected {
        clio_bench::banner(title, description);
        // Only the web-server artifacts can fail (sockets).
        if let Err(e) = body() {
            eprintln!("web server experiment failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
