//! Property layer pinning the sharded-cache invariants, per policy:
//!
//! (a) the resident set never exceeds the configured capacity, for any
//!     shard count and any operation stream;
//! (b) a single-shard [`ShardedBufferCache`] is access-for-access
//!     identical to [`BufferCache`] — outcomes, metrics and residency;
//! (c) a shard's eviction decisions depend only on the subsequence of
//!     pages that map to it (shard independence): replaying each
//!     shard's stream through a standalone policy instance reproduces
//!     the shard exactly. This is the invariant that makes changing
//!     the shard count — or the thread count of the parallel replay —
//!     unable to change which pages a shard-local policy evicts on a
//!     given stream. The worker views parallel replay drives are held to
//!     the same replicas: T views of one cache, each fed the whole
//!     stream, leave every shard where the striped verbs do, and their
//!     partial costs plus the base add up to the striped outcome.
//!
//! These are the pins behind `replay_parallel`'s determinism
//! guarantee; shrinking in the vendored proptest reports minimized
//! operation streams when an invariant breaks.

use clio_core::cache::cache::{AccessKind, AccessOutcome, BufferCache, CacheConfig, RunCursor};
use clio_core::cache::page::{page_span, FileId, PageId};
use clio_core::cache::policy::{PolicySet, ReplacementPolicy};
use clio_core::cache::prefetch::Prefetcher;
use clio_core::cache::shard::{shard_capacity, ShardView, ShardedBufferCache};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One generated cache operation; `sel` picks the operation kind.
type Op = (u8, u64, u64, bool);

fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    // Offsets span ~300 shard blocks so multi-shard configurations
    // really stripe; lengths up to 96 KiB cross page boundaries.
    prop::collection::vec((0u8..8, 0u64..20_000, 1u64..98_304, prop::bool::ANY), 1..max_len)
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    proptest::sample::select(&ReplacementPolicy::ALL[..])
}

fn config(policy: ReplacementPolicy, capacity: usize) -> CacheConfig {
    CacheConfig { policy, capacity_pages: capacity, ..Default::default() }
}

/// Applies one generated operation to every worker view of one cache
/// (each view sees the whole stream) and returns what a merge would
/// report for it: the operation's base cost plus every partial cost.
fn through_views(
    views: &mut [ShardView<'_>],
    base: &CacheConfig,
    (sel, off, len, kind): (u8, u64, u64, AccessKind),
    f: FileId,
) -> f64 {
    let mut cost = match sel {
        0 => base.costs.open_base,
        1 => base.costs.close_base,
        2 => base.costs.seek_base,
        _ => base.costs.op_base,
    };
    for view in views {
        let partials = match sel {
            0 => view.open(f),
            1 => view.close(f),
            2 => view.seek(f, off),
            3 => view.access_run(f, off, len, kind),
            _ => view.access(f, off, len, kind),
        };
        cost += partials.iter().map(|p| p.cost_ms).sum::<f64>();
    }
    cost
}

proptest! {
    // (a) Residency bound: aggregate residency stays within the
    // configured capacity for every policy and shard count.
    #[test]
    fn resident_set_never_exceeds_capacity(
        ops in arb_ops(120),
        policy in arb_policy(),
        capacity in 1usize..48,
        shards in 1usize..6,
    ) {
        let cache = ShardedBufferCache::new(config(policy, capacity), shards);
        let f = cache.register_file("prop");
        for (sel, off_page, len, write) in ops {
            let off = off_page * 512;
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            match sel {
                0 => { cache.open(f); }
                1 => { cache.close(f); }
                2 => { cache.seek(f, off); }
                3 => { cache.access_run(f, off, len, kind); }
                _ => { cache.access(f, off, len, kind); }
            }
            prop_assert!(
                cache.resident_pages() <= capacity,
                "{} resident > {capacity} ({shards} shards, {})",
                cache.resident_pages(),
                policy.name(),
            );
        }
    }

    // (b) Single-shard equivalence: with one shard the sharded cache is
    // the monolithic cache, operation for operation.
    #[test]
    fn single_shard_is_access_for_access_identical(
        ops in arb_ops(120),
        policy in arb_policy(),
        capacity in 1usize..48,
    ) {
        let mut mono = BufferCache::new(config(policy, capacity));
        let sharded = ShardedBufferCache::new(config(policy, capacity), 1);
        let fm = mono.register_file("f");
        let fs = sharded.register_file("f");
        prop_assert_eq!(fm, fs);
        for (i, (sel, off_page, len, write)) in ops.into_iter().enumerate() {
            let off = off_page * 512;
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let (a, b) = match sel {
                0 => (mono.open(fm), sharded.open(fs)),
                1 => (mono.close(fm), sharded.close(fs)),
                2 => (mono.seek(fm, off), sharded.seek(fs, off)),
                3 => (mono.access_run(fm, off, len, kind), sharded.access_run(fs, off, len, kind)),
                _ => (mono.access(fm, off, len, kind), sharded.access(fs, off, len, kind)),
            };
            prop_assert_eq!(a, b, "op {} diverged ({})", i, policy.name());
            prop_assert_eq!(mono.resident_pages(), sharded.resident_pages());
        }
        prop_assert_eq!(mono.metrics(), sharded.metrics());
        prop_assert_eq!(mono.flush(), sharded.flush());
    }

    // (c) Shard independence: each shard of an N-shard cache behaves
    // exactly like a standalone policy instance fed only that shard's
    // page subsequence — sibling-shard traffic can never change which
    // pages a shard evicts.
    #[test]
    fn shard_evictions_depend_only_on_the_shards_own_stream(
        ops in arb_ops(100),
        policy in arb_policy(),
        capacity in 4usize..64,
        shards in 2usize..6,
    ) {
        let base = config(policy, capacity);
        let cache = ShardedBufferCache::new(base.clone(), shards);
        // The constructor clamps the shard count to the page capacity;
        // mirror whatever it actually built.
        let shards = cache.num_shards();
        let f = cache.register_file("iso");

        // Standalone replicas: one policy instance per shard, sized to
        // that shard's capacity share, plus a replica of the shared
        // readahead detector (its decisions depend only on the access
        // sequence).
        let mut replicas: Vec<BufferCache> = (0..shards)
            .map(|s| {
                BufferCache::new(CacheConfig {
                    capacity_pages: shard_capacity(capacity, shards, s),
                    prefetch_enabled: false,
                    ..base.clone()
                })
            })
            .collect();
        let mut prefetcher = Prefetcher::new(base.prefetch);
        let page_size = base.page_size;
        // Outcome accumulator for the replicas: counters are compared
        // via metrics, so one shared sink is fine.
        let mut sink = AccessOutcome::default();

        // The same stream through T worker views of a second cache, for
        // T = 1, 2, 3, all on this thread.
        let viewed: Vec<ShardedBufferCache> = (1..=3)
            .map(|_| {
                let c = ShardedBufferCache::new(base.clone(), shards);
                assert_eq!(c.register_file("iso"), f);
                c
            })
            .collect();
        let mut views: Vec<Vec<ShardView<'_>>> = viewed
            .iter()
            .zip(1..=3)
            .map(|(c, threads)| (0..threads).map(|w| c.worker_view(w, threads)).collect())
            .collect();

        for (sel, off_page, len, write) in ops {
            let off = off_page * 512;
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let striped;
            match sel {
                0 => {
                    striped = cache.open(f);
                    let id = PageId { file: f, index: 0 };
                    replicas[cache.shard_of(id)].stage_open_page(id, &mut sink);
                }
                1 => {
                    striped = cache.close(f);
                    for r in replicas.iter_mut() {
                        r.evict_file_pages(f, &mut sink);
                    }
                    prefetcher.forget(f);
                }
                2 => {
                    striped = cache.seek(f, off);
                    let index = off / page_size;
                    if index > 0 {
                        prefetcher.on_access(f, index, index.saturating_sub(1));
                    }
                }
                sel => {
                    let per_page_touch = sel >= 4;
                    striped = if per_page_touch {
                        cache.access(f, off, len, kind)
                    } else {
                        cache.access_run(f, off, len, kind)
                    };
                    let (first, last) = page_span(off, len, page_size);
                    let mut cursors = vec![RunCursor::default(); shards];
                    for index in first..=last {
                        let id = PageId { file: f, index };
                        let s = cache.shard_of(id);
                        replicas[s].page_access(id, kind, per_page_touch, &mut cursors[s], &mut sink);
                    }
                    for (s, cursor) in cursors.into_iter().enumerate() {
                        replicas[s].finish_run(cursor);
                    }
                    if base.prefetch_enabled && capacity > 0 {
                        let window = prefetcher.on_access(f, first, last);
                        for ahead in 1..=window {
                            let id = PageId { file: f, index: last + ahead };
                            replicas[cache.shard_of(id)].stage_prefetch(id, &mut sink);
                        }
                    }
                }
            }
            for per_count in views.iter_mut() {
                let merged = through_views(per_count, &base, (sel, off, len, kind), f);
                prop_assert!(
                    (merged - striped.cost_ms).abs() < 1e-9,
                    "{} views merge to {} ms, the striped cache says {} ms ({})",
                    per_count.len(),
                    merged,
                    striped.cost_ms,
                    policy.name(),
                );
            }
        }

        for (s, replica) in replicas.iter().enumerate() {
            prop_assert_eq!(
                cache.shard_metrics(s),
                replica.metrics(),
                "shard {} diverged from its standalone replica ({}, {} shards)",
                s,
                policy.name(),
                shards,
            );
            prop_assert_eq!(
                cache.lock_shard(s).resident_pages(),
                replica.resident_pages(),
                "shard {} residency diverged",
                s,
            );
            for (c, threads) in viewed.iter().zip(1..=3) {
                prop_assert_eq!(
                    (c.shard_metrics(s), c.lock_shard(s).resident_pages()),
                    (replica.metrics(), replica.resident_pages()),
                    "shard {} under {} worker view(s) diverged from its standalone replica ({})",
                    s,
                    threads,
                    policy.name(),
                );
            }
        }
    }

    // (d) Shard-count clamp: requesting more shards than there are
    // capacity pages must not strand any page in a zero-capacity shard
    // (capacity 0 means "never cache", so such pages would miss
    // forever). With the clamp, every shard holds at least one page,
    // so any single page re-accessed back-to-back hits — regardless of
    // policy — while the aggregate residency bound still holds.
    #[test]
    fn oversharded_cache_stays_fully_cacheable(
        pages in prop::collection::vec(0u64..20_000, 1..40),
        policy in arb_policy(),
        capacity in 1usize..16,
        shards in 1usize..32,
    ) {
        let cache = ShardedBufferCache::new(config(policy, capacity), shards);
        prop_assert!(
            cache.num_shards() <= capacity,
            "{} shards exceed {} capacity pages",
            cache.num_shards(),
            capacity,
        );
        for s in 0..cache.num_shards() {
            prop_assert!(
                cache.lock_shard(s).config().capacity_pages >= 1,
                "shard {}/{} has zero capacity",
                s,
                cache.num_shards(),
            );
        }
        let f = cache.register_file("clamp");
        let page_size = config(policy, capacity).page_size;
        for index in pages {
            let off = index * page_size;
            cache.access(f, off, 1, AccessKind::Read);
            let again = cache.access(f, off, 1, AccessKind::Read);
            prop_assert_eq!(
                again.pages_hit, 1,
                "page {} uncacheable ({}, {} shards, {} pages)",
                index, policy.name(), shards, capacity,
            );
            prop_assert!(cache.resident_pages() <= capacity);
        }
    }

    // The intrusive-list LRU — reached exactly as the cache reaches it,
    // through the `PolicySet` registry — is access-for-access identical
    // to the obvious VecDeque reference semantics: same touch/remove
    // return values, same eviction order, same membership, at every
    // step of an arbitrary operation stream.
    #[test]
    fn intrusive_lru_matches_reference_semantics(
        ops in prop::collection::vec((0u8..3, 0u32..24), 0..250),
        capacity in 0usize..32,
    ) {
        let mut lru: Box<dyn PolicySet<u32>> = ReplacementPolicy::Lru.build(capacity);
        let mut model: VecDeque<u32> = VecDeque::new(); // front = MRU
        for (op, key) in ops {
            match op {
                0 => {
                    let was_present = model.contains(&key);
                    model.retain(|&k| k != key);
                    model.push_front(key);
                    prop_assert_eq!(lru.touch(key), !was_present, "touch({}) insert flag", key);
                }
                1 => {
                    prop_assert_eq!(lru.pop_victim(), model.pop_back(), "eviction order");
                }
                _ => {
                    let before = model.len();
                    model.retain(|&k| k != key);
                    prop_assert_eq!(lru.remove(&key), model.len() != before, "remove({})", key);
                }
            }
            prop_assert_eq!(lru.len(), model.len());
            prop_assert_eq!(lru.is_empty(), model.is_empty());
            for k in &model {
                prop_assert!(lru.contains(k), "model key {} missing from the intrusive list", k);
            }
        }
        // Drain: the full eviction sequence is the model's back-to-front
        // order.
        while let Some(expect) = model.pop_back() {
            prop_assert_eq!(lru.pop_victim(), Some(expect), "drain order");
        }
        prop_assert_eq!(lru.pop_victim(), None);
    }
}
