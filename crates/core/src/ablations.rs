//! Ablation experiments over the substrate design knobs.
//!
//! DESIGN.md calls out the storage substrate's two quietly load-bearing
//! choices: the device serves requests FCFS, and the array is a plain
//! stripe (RAID-0). The functions here sweep those choices — request
//! scheduling policy and RAID level — over the paper's own workloads so
//! the defaults can be justified with numbers rather than assertion.
//! `clio-bench` exposes them via the `ablation_storage` binary.

use clio_apps::lu;
use clio_exp::{Engine, Experiment, Workload};
use clio_sim::machine::MachineConfig;
use clio_sim::raid::{RaidArray, RaidLevel};
use clio_sim::sched::{run_schedule, DiskRequest, Policy, SeekCurve};
use clio_sim::DiskModel;
use clio_trace::record::IoOp;
use clio_trace::writer::TraceWriter;
use clio_trace::TraceFile;
use serde::{Deserialize, Serialize};

/// Cylinder count of the modeled device.
pub const CYLINDERS: u64 = 60_000;

/// Bytes per cylinder when the paper's 1 GB sample file covers the
/// whole device.
pub const BYTES_PER_CYLINDER: u64 = (1 << 30) / CYLINDERS;

/// One row of the scheduler ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedRow {
    /// Policy display name.
    pub policy: String,
    /// Total head travel in cylinders.
    pub seek_cylinders: u64,
    /// Total seek time, milliseconds.
    pub seek_ms: f64,
    /// Total service time (seek + rotation + transfer), milliseconds.
    pub service_ms: f64,
}

/// Converts the LU paper trace into a device batch: each record's byte
/// offset becomes a cylinder on the modeled device.
pub fn lu_device_batch() -> Vec<DiskRequest> {
    lu::paper_trace()
        .records
        .iter()
        .filter(|r| r.length > 0)
        .enumerate()
        .map(|(i, r)| DiskRequest {
            id: i as u64,
            cylinder: (r.offset / BYTES_PER_CYLINDER).min(CYLINDERS - 1),
            bytes: r.length.max(1),
        })
        .collect()
}

/// A seeded uniform-random device batch: `n` requests spread over the
/// whole device with 4 KiB – 256 KiB transfers.
pub fn random_device_batch(n: usize, seed: u64) -> Vec<DiskRequest> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| DiskRequest {
            id: i as u64,
            cylinder: rng.gen_range(0..CYLINDERS),
            bytes: rng.gen_range(4096..256 * 1024),
        })
        .collect()
}

/// Serves `batch` under every policy from the device's middle cylinder.
pub fn scheduler_ablation(batch: &[DiskRequest]) -> Vec<SchedRow> {
    let model = DiskModel::commodity_2003();
    let curve = SeekCurve::from_model(&model, CYLINDERS);
    Policy::ALL
        .iter()
        .map(|&p| {
            let out = run_schedule(&model, &curve, p, CYLINDERS / 2, batch.to_vec());
            SchedRow {
                policy: p.name().to_string(),
                seek_cylinders: out.seek_cylinders,
                seek_ms: out.seek_time * 1e3,
                service_ms: out.service_time * 1e3,
            }
        })
        .collect()
}

/// One row of the RAID-level ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RaidRow {
    /// Level display name.
    pub level: String,
    /// Elapsed read of 8 MiB, milliseconds.
    pub read_large_ms: f64,
    /// Elapsed write of 8 MiB, milliseconds.
    pub write_large_ms: f64,
    /// Elapsed write of 16 KiB (sub-stripe), milliseconds.
    pub write_small_ms: f64,
    /// Fraction of raw capacity usable for data.
    pub capacity_efficiency: f64,
}

/// Compares the RAID levels on a 4-member array with 64 KiB units.
pub fn raid_ablation() -> Vec<RaidRow> {
    let model = DiskModel::commodity_2003();
    RaidLevel::ALL
        .iter()
        .map(|&level| {
            let a = RaidArray::new(level, 4, 64 * 1024, model).expect("valid array");
            RaidRow {
                level: level.name().to_string(),
                read_large_ms: a.read_service(0, 8 << 20) * 1e3,
                write_large_ms: a.write_service(0, 8 << 20) * 1e3,
                write_small_ms: a.write_service(0, 16 << 10) * 1e3,
                capacity_efficiency: a.capacity_efficiency(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_batch_is_nonempty_and_in_range() {
        let batch = lu_device_batch();
        assert!(!batch.is_empty());
        assert!(batch.iter().all(|r| r.cylinder < CYLINDERS && r.bytes > 0));
    }

    #[test]
    fn seek_optimizers_never_lose_on_lu() {
        // The LU trace's six requests arrive already sorted by offset,
        // so reordering cannot help — but it must not hurt either
        // (C-LOOK's wrap is allowed its one extra sweep).
        let rows = scheduler_ablation(&lu_device_batch());
        let by = |n: &str| rows.iter().find(|r| r.policy == n).unwrap().seek_ms;
        assert!(by("SSTF") <= by("FCFS"));
        assert!(by("SCAN") <= by("FCFS"));
    }

    #[test]
    fn seek_optimizers_win_on_random_batch() {
        let rows = scheduler_ablation(&random_device_batch(64, 7));
        let by = |n: &str| rows.iter().find(|r| r.policy == n).unwrap().seek_ms;
        assert!(by("SSTF") < 0.6 * by("FCFS"), "SSTF must clearly beat FCFS");
        assert!(by("SCAN") < 0.6 * by("FCFS"), "SCAN must clearly beat FCFS");
        assert!(by("C-LOOK") < by("FCFS"));
    }

    #[test]
    fn service_always_at_least_seek() {
        for row in scheduler_ablation(&lu_device_batch()) {
            assert!(row.service_ms >= row.seek_ms);
            assert!(row.seek_cylinders > 0);
        }
    }

    #[test]
    fn raid_rows_show_expected_tradeoffs() {
        let rows = raid_ablation();
        let get = |n: &str| rows.iter().find(|r| r.level == n).unwrap();
        let (r0, r1, r5) = (get("RAID-0"), get("RAID-1"), get("RAID-5"));
        // Striped levels read a large block faster than one mirror.
        assert!(r0.read_large_ms < r1.read_large_ms);
        assert!(r5.read_large_ms < r1.read_large_ms);
        // RAID-5's small-write penalty.
        assert!(r5.write_small_ms > r0.write_small_ms);
        // Capacity: RAID-0 = 1, RAID-1 = 1/4, RAID-5 = 3/4.
        assert!((r0.capacity_efficiency - 1.0).abs() < 1e-12);
        assert!((r1.capacity_efficiency - 0.25).abs() < 1e-12);
        assert!((r5.capacity_efficiency - 0.75).abs() < 1e-12);
    }
}

/// One row of the contended-replay scheduler ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayRow {
    /// Policy display name.
    pub policy: String,
    /// Replay makespan, seconds.
    pub makespan_s: f64,
    /// Mean disk utilization over the makespan.
    pub disk_utilization: f64,
}

/// A multi-process random-access trace: `procs` processes each issuing
/// `reads` scattered 4 KiB reads over the 1 GB sample space.
pub fn contended_trace(procs: u32, reads: usize, seed: u64) -> TraceFile {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = TraceWriter::new("sample-1gb.dat").with_processes(procs.max(1));
    for _ in 0..reads {
        for pid in 0..procs.max(1) {
            w.record(IoOp::Read, pid, 0, rng.gen_range(0..(1u64 << 30)), 4096);
        }
    }
    w.finish().expect("constructed trace is valid")
}

/// Replays `trace` on a single simulated disk under every policy — the
/// end-to-end (queueing-sensitive) version of [`scheduler_ablation`].
pub fn scheduled_replay_ablation(trace: &TraceFile) -> Vec<ReplayRow> {
    let workload = Workload::trace(trace.clone());
    Policy::ALL
        .iter()
        .map(|&policy| {
            let report = Experiment::builder()
                .workload(workload.clone())
                .engine(Engine::ScheduledSim)
                .machine(MachineConfig::uniprocessor())
                .sched_policy(policy)
                .build()
                .expect("scheduled-sim ablation experiment is valid")
                .run()
                .expect("scheduled simulation is infallible");
            let sim = report.sim.expect("scheduled sim fills the sim section");
            ReplayRow {
                policy: policy.name().to_string(),
                makespan_s: sim.makespan,
                disk_utilization: sim.disk_utilization,
            }
        })
        .collect()
}

#[cfg(test)]
mod replay_tests {
    use super::*;

    #[test]
    fn contended_replay_rewards_seek_optimizers() {
        let rows = scheduled_replay_ablation(&contended_trace(8, 16, 5));
        let by = |n: &str| rows.iter().find(|r| r.policy == n).unwrap().makespan_s;
        assert!(by("SSTF") < by("FCFS"));
        assert!(by("SCAN") < by("FCFS"));
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.disk_utilization), "{r:?}");
        }
    }
}
