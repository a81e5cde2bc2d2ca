//! Garbage-collection pauses under the web-server request mix.
//!
//! The paper explains first-request latency with JIT warmup and cold
//! I/O buffers; a managed runtime adds a third mechanism — collection
//! pauses seeded by per-request allocation. This example drives the
//! managed stream facade with the paper's image files under three
//! collectors and shows which requests absorb pauses.
//!
//! ```sh
//! cargo run --example gc_pauses
//! ```

use clio_core::cache::cache::CacheConfig;
use clio_core::runtime::{GcModel, JitModel, SharedManagedIo};
use clio_core::stats::percentile::quantile;

fn drive(label: &str, gc: Option<GcModel>) {
    let mut io = SharedManagedIo::new(CacheConfig::default(), 1, JitModel::sscli_like());
    if let Some(model) = gc {
        io = io.with_gc(model);
    }
    let sizes = [7_501u64, 50_607, 14_063];
    let files: Vec<_> = sizes.iter().map(|s| io.register_file(format!("img{s}.jpg"))).collect();

    let mut latencies = Vec::new();
    let mut paused = 0usize;
    for i in 0..1500usize {
        let k = i % sizes.len();
        let op = io.read("doGet", 300, files[k], 0, sizes[k]);
        latencies.push(op.cost_ms);
        if op.gc_ms > 0.0 {
            paused += 1;
        }
    }

    let p50 = quantile(&latencies, 0.5).unwrap();
    let p99 = quantile(&latencies, 0.99).unwrap();
    let max = latencies.iter().cloned().fold(0.0, f64::max);
    print!("{label:14} p50 {p50:7.3} ms   p99 {p99:7.3} ms   max {max:7.3} ms");
    match io.gc_stats() {
        Some(s) => println!(
            "   | {} minors, {} majors, {:.2} ms paused, {} requests hit a pause",
            s.minor_collections, s.major_collections, s.total_pause_ms, paused
        ),
        None => println!("   | collector disabled"),
    }
}

fn main() {
    println!("1500 GETs over the paper's three image files:\n");
    drive("sscli (1 MiB)", Some(GcModel::sscli_like()));
    drive("8 MiB nursery", Some(GcModel { nursery_bytes: 8 << 20, ..GcModel::sscli_like() }));
    drive("no GC", None);
    println!();
    println!("The median request never sees the collector; the tail does. Sizing");
    println!("the nursery above the per-burst allocation volume removes nearly all");
    println!("pauses — the knob ahead-of-time runtimes turn implicitly.");
}
