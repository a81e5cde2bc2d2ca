//! Disk service-time model and striping arithmetic.
//!
//! The simulated disks are parameterized like a circa-2003 commodity
//! drive (the hardware class under the paper's SSCLI/Windows XP testbed):
//! average seek, half-rotation latency and sustained transfer rate. A
//! request's service time is `seek + rotation + bytes/rate`; sequential
//! requests within one burst skip the positioning cost after the first
//! chunk on each spindle, which is what makes striping pay off for large
//! bursts but not for tiny ones.

use serde::{Deserialize, Serialize};

/// Parameters of one disk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskModel {
    /// Average seek time in seconds.
    pub seek: f64,
    /// Average rotational latency in seconds (half a revolution).
    pub rotational: f64,
    /// Sustained transfer rate in bytes per second.
    pub transfer_rate: f64,
}

impl DiskModel {
    /// A 7200 rpm ATA disk of the paper's era: 8.5 ms seek, 4.17 ms
    /// rotational latency, 40 MB/s sustained transfer.
    pub fn commodity_2003() -> Self {
        Self { seek: 8.5e-3, rotational: 4.17e-3, transfer_rate: 40.0 * 1024.0 * 1024.0 }
    }

    /// Positioning cost for a random access.
    pub fn positioning(&self) -> f64 {
        self.seek + self.rotational
    }

    /// Service time for one random request of `bytes`.
    pub fn random_access(&self, bytes: u64) -> f64 {
        self.positioning() + self.transfer(bytes)
    }

    /// Service time for a sequential continuation of `bytes` (no
    /// positioning, pure transfer).
    pub fn transfer(&self, bytes: u64) -> f64 {
        bytes as f64 / self.transfer_rate
    }

    /// Validates the model parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.seek >= 0.0 && self.seek.is_finite()) {
            return Err(format!("invalid seek time {}", self.seek));
        }
        if !(self.rotational >= 0.0 && self.rotational.is_finite()) {
            return Err(format!("invalid rotational latency {}", self.rotational));
        }
        if !(self.transfer_rate > 0.0 && self.transfer_rate.is_finite()) {
            return Err(format!("invalid transfer rate {}", self.transfer_rate));
        }
        Ok(())
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        Self::commodity_2003()
    }
}

/// Splits a burst of `total_bytes` over a stripe of `disks` spindles
/// with the given `stripe_unit`: yields, per disk in stripe order, the
/// number of full chunks and the bytes of a final short chunk (0 on
/// every disk but at most one).
///
/// Round-robin dealing in closed form — with `full` whole chunks, disk
/// `d` gets `full / disks` of them plus one more if `d < full % disks`,
/// and the tail lands on disk `full % disks`, the next in rotation —
/// so a share costs O(1) whatever the burst size, and nothing is
/// allocated. The caller turns shares into service requests: the first
/// chunk on each disk pays positioning, the rest stream sequentially.
///
/// # Panics
/// Panics on zero `disks` or a zero `stripe_unit`.
pub fn stripe_shares(
    total_bytes: u64,
    disks: usize,
    stripe_unit: u64,
) -> impl Iterator<Item = (u64, u64)> + Clone {
    assert!(disks > 0, "stripe over zero disks");
    assert!(stripe_unit > 0, "zero stripe unit");
    let full_chunks = total_bytes / stripe_unit;
    let tail = total_bytes % stripe_unit;
    let (each, extra) = (full_chunks / disks as u64, full_chunks % disks as u64);
    (0..disks as u64).map(move |d| (each + u64::from(d < extra), if d == extra { tail } else { 0 }))
}

/// [`stripe_shares`] collected: one `(chunks, tail)` entry per disk.
pub fn stripe_plan(total_bytes: u64, disks: usize, stripe_unit: u64) -> Vec<(u64, u64)> {
    stripe_shares(total_bytes, disks, stripe_unit).collect()
}

/// Service time for one disk's share of a striped burst: positioning
/// once, then `chunks` full stripe units plus a `tail` streamed
/// sequentially.
pub fn striped_service(model: &DiskModel, stripe_unit: u64, chunks: u64, tail: u64) -> f64 {
    let bytes = chunks * stripe_unit + tail;
    if bytes == 0 {
        return 0.0;
    }
    model.positioning() + model.transfer(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn commodity_parameters() {
        let d = DiskModel::commodity_2003();
        assert!(d.validate().is_ok());
        assert!((d.positioning() - 12.67e-3).abs() < 1e-9);
        // 40 MiB transfers in one second.
        assert!((d.transfer(40 * 1024 * 1024) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_access_includes_positioning() {
        let d = DiskModel::commodity_2003();
        assert!(d.random_access(0) > 0.0);
        assert!(d.random_access(1024) > d.transfer(1024));
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut d = DiskModel::commodity_2003();
        d.seek = -1.0;
        assert!(d.validate().is_err());
        let mut d = DiskModel::commodity_2003();
        d.transfer_rate = 0.0;
        assert!(d.validate().is_err());
        let mut d = DiskModel::commodity_2003();
        d.rotational = f64::INFINITY;
        assert!(d.validate().is_err());
    }

    #[test]
    fn stripe_plan_round_robin() {
        // 10 chunks over 4 disks: 3,3,2,2.
        let plan = stripe_plan(10 * 64, 4, 64);
        assert_eq!(plan.iter().map(|p| p.0).collect::<Vec<_>>(), vec![3, 3, 2, 2]);
        assert!(plan.iter().all(|p| p.1 == 0));
    }

    #[test]
    fn stripe_plan_tail_lands_after_full_chunks() {
        let plan = stripe_plan(2 * 64 + 10, 4, 64);
        assert_eq!(plan[0].0, 1);
        assert_eq!(plan[1].0, 1);
        assert_eq!(plan[2], (0, 10), "tail goes to the next disk in rotation");
    }

    #[test]
    fn zero_bytes_zero_service() {
        let d = DiskModel::commodity_2003();
        assert_eq!(striped_service(&d, 64, 0, 0), 0.0);
    }

    #[test]
    fn single_disk_stripe_is_whole_burst() {
        let plan = stripe_plan(1000, 1, 64);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0], (15, 40));
    }

    proptest! {
        #[test]
        fn stripe_conserves_bytes(total in 0u64..10_000_000, disks in 1usize..33,
                                  unit in 1u64..1_000_000) {
            let plan = stripe_plan(total, disks, unit);
            let sum: u64 = plan.iter().map(|&(c, t)| c * unit + t).sum();
            prop_assert_eq!(sum, total);
        }

        #[test]
        fn stripe_balanced_within_one_chunk(total in 1u64..10_000_000, disks in 1usize..33,
                                            unit in 1u64..100_000) {
            let plan = stripe_plan(total, disks, unit);
            let max = plan.iter().map(|p| p.0).max().unwrap();
            let min = plan.iter().map(|p| p.0).min().unwrap();
            prop_assert!(max - min <= 1, "round-robin imbalance");
        }

        #[test]
        fn more_disks_never_increase_per_disk_load(total in 1u64..10_000_000, unit in 1u64..100_000) {
            let p4 = stripe_plan(total, 4, unit);
            let p8 = stripe_plan(total, 8, unit);
            let max4 = p4.iter().map(|&(c, t)| c * unit + t).max().unwrap();
            let max8 = p8.iter().map(|&(c, t)| c * unit + t).max().unwrap();
            prop_assert!(max8 <= max4);
        }
    }

    /// Round-robin dealing one chunk at a time — `stripe_plan` as it
    /// was before the closed form, kept as the reference.
    fn stripe_plan_per_chunk(total_bytes: u64, disks: usize, stripe_unit: u64) -> Vec<(u64, u64)> {
        let full_chunks = total_bytes / stripe_unit;
        let tail = total_bytes % stripe_unit;
        let mut per_disk: Vec<(u64, u64)> = vec![(0, 0); disks];
        for i in 0..full_chunks {
            let d = (i % disks as u64) as usize;
            per_disk[d].0 += 1;
        }
        if tail > 0 {
            let d = (full_chunks % disks as u64) as usize;
            per_disk[d].1 = tail;
        }
        per_disk
    }

    proptest! {
        #[test]
        fn closed_form_matches_per_chunk_dealing(total in 0u64..10_000_000, disks in 1usize..33,
                                                 unit in 1u64..1_000_000) {
            prop_assert_eq!(stripe_plan(total, disks, unit),
                            stripe_plan_per_chunk(total, disks, unit));
        }
    }

    #[test]
    fn striping_cost_is_independent_of_burst_size() {
        // 2^48 chunks: the per-chunk loop would never return.
        let plan = stripe_plan(u64::MAX, 3, 64 * 1024);
        let sum: u128 = plan.iter().map(|&(c, t)| c as u128 * (64 * 1024) + t as u128).sum();
        assert_eq!(sum, u64::MAX as u128);
        assert_eq!(plan.iter().filter(|p| p.1 > 0).count(), 1);
    }
}
