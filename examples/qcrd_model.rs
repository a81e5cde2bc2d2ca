//! Behavioral-model walkthrough: build Γ-vectors by hand, inspect QCRD,
//! and sweep a custom application across simulated machines.
//!
//! ```sh
//! cargo run --example qcrd_model
//! ```

use clio_core::model::qcrd::{qcrd_application, qcrd_program1, qcrd_program2};
use clio_core::model::synth::{synth_application, SynthConfig, WorkloadClass};
use clio_core::model::{Application, Program, WorkingSet};
use clio_core::sim::executor::simulate;
use clio_core::sim::machine::MachineConfig;
use clio_core::sim::speedup::{cpu_sweep, disk_sweep};

fn main() {
    // 1. A hand-built program in the paper's Γ = (φ, γ, ρ, τ) notation:
    //    read-in, compute, write-out.
    let custom = Program::new(
        "read-compute-write",
        120.0,
        vec![
            WorkingSet::new(0.80, 0.0, 0.10, 1).expect("valid working set"),
            WorkingSet::new(0.05, 0.0, 0.35, 2).expect("valid working set"),
            WorkingSet::new(0.90, 0.0, 0.20, 1).expect("valid working set"),
        ],
    )
    .expect("valid program");
    let req = custom.requirements();
    println!("custom program {:?}:", custom.name());
    for ws in custom.working_sets() {
        println!("  {ws}");
    }
    println!(
        "  R_CPU = {:.1}s, R_Disk = {:.1}s ({:.0}% I/O)\n",
        req.cpu,
        req.disk,
        req.io_percentage()
    );

    // 2. The paper's QCRD application (Eqs. 8-10).
    println!("QCRD (paper Eqs. 8-10):");
    for p in [qcrd_program1(), qcrd_program2()] {
        let r = p.requirements();
        println!(
            "  {}: {} phases, {:.1}s total, {:.0}% I/O",
            p.name(),
            p.phase_count(),
            p.total_time(),
            r.io_percentage()
        );
    }
    let report = simulate(&qcrd_application(), &MachineConfig::uniprocessor());
    println!(
        "  simulated makespan on 1 CPU / 1 disk: {:.1}s ({} events)\n",
        report.makespan, report.events
    );

    // 3. Speedup sweeps over a synthesized I/O-bound application.
    let cfg = SynthConfig { class: WorkloadClass::IoBound, ..Default::default() };
    let synth = synth_application(&cfg, "synthetic-io", 2);
    print_sweeps("synthetic I/O-bound app", &synth);
    print_sweeps("QCRD", &qcrd_application());
}

fn print_sweeps(name: &str, app: &Application) {
    let counts = [2, 4, 8, 16, 32];
    let d = disk_sweep(app, &counts);
    let c = cpu_sweep(app, &counts);
    println!("{name}:");
    println!("  disks: {:?}", rounded(&d.speedups()));
    println!("  cpus:  {:?}", rounded(&c.speedups()));
}

fn rounded(points: &[(u32, f64)]) -> Vec<(u32, f64)> {
    points.iter().map(|&(n, s)| (n, (s * 100.0).round() / 100.0)).collect()
}
