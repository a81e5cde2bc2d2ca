//! Integration across the extension features: the new applications'
//! traces flowing through transforms, replacement policies and the
//! scheduler ablation — each exercising at least two crates through
//! the public API.

use clio_core::ablations::{random_device_batch, scheduler_ablation};
use clio_core::apps::{radar, render};
use clio_core::cache::cache::CacheConfig;
use clio_core::cache::policy::ReplacementPolicy;
use std::sync::Arc;

use clio_core::prelude::{Experiment, Workload};
use clio_core::trace::record::IoOp;
use clio_core::trace::replay::ReplayReport;
use clio_core::trace::transform;
use clio_core::trace::TraceFile;

/// Serial cached replay through the unified experiment API. Takes the
/// trace behind an `Arc` so repeated replays (one per policy) share
/// one copy of the records.
fn replay(trace: &Arc<TraceFile>, config: CacheConfig) -> ReplayReport {
    Experiment::builder()
        .workload(Workload::Trace(trace.clone()))
        .cache(config)
        .build()
        .expect("valid experiment")
        .run()
        .expect("replay runs")
        .replay
        .expect("serial replay fills the replay section")
}

#[test]
fn new_app_traces_replay_under_every_policy() {
    let (_, radar_trace) = radar::form_image(radar::RadarConfig::default()).unwrap();
    let (_, render_trace) = render::render(render::RenderConfig::default()).unwrap();
    for trace in [Arc::new(radar_trace), Arc::new(render_trace)] {
        for policy in ReplacementPolicy::ALL {
            let report = replay(&trace, CacheConfig { policy, ..CacheConfig::default() });
            assert!(report.total_ms() > 0.0, "{policy:?}: replay must accumulate simulated time");
            assert_eq!(report.timings.len(), trace.records.len());
        }
    }
}

#[test]
fn transform_pipeline_feeds_replay() {
    let (_, trace) = radar::form_image(radar::RadarConfig::default()).unwrap();
    // Reads-only view must be cheaper to replay than the full trace.
    let reads = Arc::new(transform::filter_by_op(&trace, &[IoOp::Read]).unwrap());
    let full = replay(&Arc::new(trace.clone()), CacheConfig::default()).total_ms();
    let reads_only = replay(&reads, CacheConfig::default()).total_ms();
    assert!(reads_only < full, "reads-only {reads_only} !< full {full}");
    // Splitting and re-merging preserves record count and replay cost.
    let parts = transform::split_by_process(&trace).unwrap();
    let merged = transform::merge(&parts.into_iter().map(|(_, t)| t).collect::<Vec<_>>()).unwrap();
    assert_eq!(merged.records.len(), trace.records.len());
    let remerged = replay(&Arc::new(merged), CacheConfig::default()).total_ms();
    assert!((remerged - full).abs() < 1e-9, "same records, same simulated cost");
}

#[test]
fn cache_capacity_dominates_policy_choice_on_render_rereads() {
    // Render twice in one trace-like sequence: the second pass of
    // texture reads is where policies differ. Use the trace from one
    // render replayed twice through a small cache.
    let (_, trace) = render::render(render::RenderConfig::default()).unwrap();
    let doubled = Arc::new(transform::merge(&[trace.clone(), trace]).unwrap());
    let cost = |policy| {
        replay(&doubled, CacheConfig { policy, capacity_pages: 16, ..CacheConfig::default() })
            .total_ms()
    };
    // No strict winner is guaranteed for every geometry; the invariants
    // are (a) every policy yields a positive finite cost, and (b) for
    // each policy a generous cache is at least as fast as the tiny one
    // (a 16-page cache can even lose to *no* cache here, because
    // write-back evictions repay whole pages).
    for policy in ReplacementPolicy::ALL {
        let tiny = cost(policy);
        assert!(tiny.is_finite() && tiny > 0.0, "{policy:?}: bad cost {tiny}");
        let roomy = replay(
            &doubled,
            CacheConfig { policy, capacity_pages: 1 << 16, ..CacheConfig::default() },
        )
        .total_ms();
        assert!(roomy <= tiny + 1e-9, "{policy:?}: roomy cache {roomy} slower than tiny {tiny}");
    }
}

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
