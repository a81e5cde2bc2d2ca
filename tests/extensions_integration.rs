//! Integration of the disk-scheduler ablation through the public API:
//! a seeded random request batch driven through every scheduling
//! policy must produce bit-identical seek tallies on every call.

use clio_core::ablations::{random_device_batch, scheduler_ablation};

#[test]
fn scheduler_ablation_is_deterministic_across_calls() {
    let a = scheduler_ablation(&random_device_batch(128, 3));
    let b = scheduler_ablation(&random_device_batch(128, 3));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.policy, y.policy);
        assert_eq!(x.seek_cylinders, y.seek_cylinders);
        assert_eq!(x.seek_ms.to_bits(), y.seek_ms.to_bits());
    }
}
