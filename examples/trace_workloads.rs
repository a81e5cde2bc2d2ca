//! Trace pipeline walkthrough: run the paper's five traced
//! I/O-intensive applications, capture their traces, persist one in
//! both formats, and replay them against the simulated page cache.
//!
//! ```sh
//! cargo run --example trace_workloads
//! ```

use clio_core::apps::{cholesky, dmine, lu, pgrep, titan};
use clio_core::prelude::{Experiment, Workload};
use clio_core::trace::record::IoOp;
use clio_core::trace::stats::TraceStats;
use clio_core::trace::writer;
use clio_core::trace::TraceFile;

fn describe(name: &str, trace: &TraceFile) {
    let stats = TraceStats::compute(trace);
    println!("{name}:");
    println!(
        "  {} records | reads {} | writes {} | seeks {} | {:.0}% sequential",
        trace.len(),
        stats.count(IoOp::Read),
        stats.count(IoOp::Write),
        stats.count(IoOp::Seek),
        stats.sequentiality * 100.0
    );
    let report = Experiment::builder()
        .workload(Workload::trace(trace.clone()))
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs");
    println!(
        "  replayed: total {:.3} ms | mean read {} | open {} / close {}",
        report.total_ms().expect("replay engines report total time"),
        report.mean_ms(IoOp::Read).map_or("n/a".into(), |v| format!("{v:.5} ms")),
        report.mean_ms(IoOp::Open).map_or("n/a".into(), |v| format!("{v:.5} ms")),
        report.mean_ms(IoOp::Close).map_or("n/a".into(), |v| format!("{v:.5} ms")),
    );
}

fn main() -> std::io::Result<()> {
    let out_dir = std::env::temp_dir().join(format!("clio-traces-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir)?;

    let (dm, dm_trace) = dmine::run(&dmine::DmineConfig::default())?;
    println!("Dmine found {} frequent itemsets in {} passes", dm.frequent.len(), dm.passes);
    describe("dmine", &dm_trace);

    let (pg, pg_trace) = pgrep::run(&pgrep::PgrepConfig::default())?;
    println!("\nPgrep found {} matches over {} chunks", pg.matches.len(), pg.chunks);
    describe("pgrep", &pg_trace);

    let (lu_res, lu_trace) = lu::run(&lu::LuConfig::default())?;
    println!("\nLU factored a {0}x{0} matrix out-of-core", lu_res.n);
    describe("lu", &lu_trace);

    let (ti, ti_trace) = titan::run(
        titan::TitanConfig::default(),
        &[
            titan::Window { x0: 0, y0: 0, x1: 100, y1: 100 },
            titan::Window { x0: 150, y0: 150, x1: 250, y1: 250 },
        ],
    )?;
    println!(
        "\nTitan answered {} queries ({} tiles read)",
        ti.len(),
        ti.iter().map(|q| q.tiles_read).sum::<usize>()
    );
    describe("titan", &ti_trace);

    let (ch, ch_trace) = cholesky::run(&cholesky::CholeskyConfig::default())?;
    println!("\nCholesky factored a {0}x{0} SPD matrix ({1} nnz in L)", ch.n, ch.nnz);
    describe("cholesky", &ch_trace);

    // Persist one trace in both formats and read it back.
    let bin_path = out_dir.join("cholesky.clio");
    let txt_path = out_dir.join("cholesky.txt");
    writer::save(&ch_trace, &bin_path).expect("binary save");
    writer::save_text(&ch_trace, &txt_path).expect("text save");
    let reloaded = TraceFile::load(&bin_path).expect("binary load");
    assert_eq!(reloaded.records, ch_trace.records);
    println!(
        "\nsaved + reloaded {} ({} bytes binary)",
        bin_path.display(),
        ch_trace.to_bytes().len()
    );

    std::fs::remove_dir_all(&out_dir)?;
    Ok(())
}
