//! The unified experiment API in one tour: `Workload` → `Engine` →
//! `Report`.
//!
//! One builder drives every engine in the workspace — streaming serial
//! replay, sharded-parallel replay (one stream per worker), and the
//! trace-driven machine simulator — over workloads that range from a
//! purely streaming synthesizer (no trace is ever materialized) to a
//! ratio-weighted mix of two paper applications, in full or
//! O(1)-memory summary report mode.
//!
//! ```sh
//! cargo run --example experiment_api
//! ```

use clio_core::prelude::*;

fn main() {
    // 1. A streaming synthetic workload: records flow from the
    //    synthesizer straight into the cache, one at a time.
    let synthetic = Workload::Synthetic(TraceProfile {
        data_ops: 20_000,
        write_fraction: 0.2,
        sequentiality: 0.8,
        ..Default::default()
    });
    let report = Experiment::builder()
        .workload(synthetic.clone())
        .engine(Engine::SerialReplay)
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs");
    println!("[1] streaming serial replay ({} records, never materialized)", report.records);
    println!(
        "    total {:.3} ms | read {:.5} ms | close {:.5} ms",
        report.total_ms().unwrap(),
        report.mean_ms(IoOp::Read).unwrap(),
        report.mean_ms(IoOp::Close).unwrap(),
    );

    // 2. The same workload on the sharded-parallel engine —
    //    deterministic across runs and thread counts, plus the cache
    //    counters the shards left behind.
    let par = Experiment::builder()
        .workload(synthetic.clone())
        .engine(Engine::ParallelReplay)
        .threads(4)
        .shards(16)
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs");
    let metrics = par.cache_metrics.expect("parallel replay reports cache metrics");
    println!(
        "\n[2] sharded-parallel replay: {} threads, {} accesses, {:.1}% hits",
        par.threads_used.unwrap(),
        metrics.accesses(),
        100.0 * metrics.hit_ratio(),
    );

    // 3. A mixed workload the combinators unlock: three parts
    //    sequential data mining per one part scattered Cholesky,
    //    replayed concurrently over disjoint file namespaces.
    let mix = Workload::mix_weighted(
        Workload::App(AppWorkload::DMINE_PAPER),
        3,
        Workload::App(AppWorkload::Cholesky),
        1,
    );
    let report = Experiment::builder()
        .workload(mix)
        .engine(Engine::SerialReplay)
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs");
    println!(
        "\n[3] mixed workload {}: {} records, total {:.3} ms",
        report.workload,
        report.records,
        report.total_ms().unwrap(),
    );

    // 4. The machine simulator behind the same front door: how long
    //    would the synthetic workload take on 1 vs 8 spindles?
    for disks in [1usize, 8] {
        let sim = Experiment::builder()
            .workload(synthetic.clone())
            .engine(Engine::TraceSim)
            .machine(MachineConfig::with_disks(disks))
            .build()
            .expect("valid experiment")
            .run()
            .expect("sim runs");
        println!(
            "{}[4] trace-driven sim on {disks} disk(s): makespan {:.2} s",
            if disks == 1 { "\n" } else { "" },
            sim.makespan_s().unwrap(),
        );
    }

    // 5. Summary mode: the >memory-trace configuration. The replay
    //    keeps only running aggregates (O(1) report memory however
    //    long the stream is), and the flattened summary is
    //    bit-identical to full mode's.
    let summary = Experiment::builder()
        .workload(synthetic.clone())
        .engine(Engine::SerialReplay)
        .report_mode(ReportMode::Summary)
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs");
    let full = Experiment::builder()
        .workload(synthetic)
        .engine(Engine::SerialReplay)
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs");
    assert!(
        summary.replay.as_ref().expect("replay section").timings.is_empty(),
        "summary mode keeps no per-record timings"
    );
    assert_eq!(summary.summary(), full.summary(), "summary numbers are bit-identical");
    println!(
        "\n[5] summary mode: {} records aggregated in O(1) memory, total {:.3} ms (== full mode)",
        summary.records,
        summary.total_ms().unwrap(),
    );

    // 6. Every report flattens to one JSON shape.
    let report = Experiment::builder()
        .workload(Workload::App(AppWorkload::Lu))
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs");
    println!("\n[6] report as JSON:\n{}", report.to_json());
}
