//! The sharded, concurrency-safe buffer cache.
//!
//! [`BufferCache`] is a single-owner structure: every access takes
//! `&mut self`, so a multithreaded server serializes all requests on
//! one lock around the whole cache. [`ShardedBufferCache`] removes that
//! bottleneck with classic lock striping: the page-id space is hashed
//! into N shards, each shard is a *full policy instance* (its own
//! residency set, page table and counters) behind a
//! [`parking_lot::Mutex`], and an operation only locks the shards its
//! pages actually map to.
//!
//! Design invariants, pinned by `tests/cache_properties.rs`:
//!
//! 1. **Single-shard equivalence.** With one shard, every operation is
//!    access-for-access identical to [`BufferCache`] — outcomes,
//!    metrics, costs and residency. This holds by construction: both
//!    paths execute the same per-page SPI
//!    ([`BufferCache::page_access`] et al.) in the same order.
//! 2. **Shard independence.** A shard's eviction decisions depend only
//!    on the subsequence of pages that map to it — never on traffic to
//!    sibling shards. Changing the shard count changes the partition,
//!    not the behaviour of any shard on its own stream, which is what
//!    makes parallel replay deterministic across thread counts.
//! 3. **Capacity partition.** The configured capacity is divided
//!    across shards (remainder pages go to the lowest-numbered
//!    shards), so total residency never exceeds the configured
//!    capacity regardless of shard count.
//!
//! Pages are mapped to shards in aligned blocks of
//! [`SHARD_BLOCK_PAGES`] pages rather than individually, so the
//! sequential runs that dominate the paper's traces stay on one shard:
//! an access's span decomposes into a handful of per-shard runs, each
//! processed under a single lock acquisition, and the run-promotion
//! fast path of [`BufferCache::access_run`] applies per shard.
//!
//! The readahead detector is deliberately *not* sharded: sequential
//! runs span shard boundaries, so one top-level [`Prefetcher`] (its own
//! small mutex) observes the access stream and the staged pages are
//! routed to their shards. Its decisions depend only on the access
//! sequence, which lets parallel replay workers run a private replica
//! instead of contending on it.

use parking_lot::{Mutex, MutexGuard};

use crate::cache::{AccessKind, AccessOutcome, BufferCache, CacheConfig, RunCursor};
use crate::metrics::CacheMetrics;
use crate::page::{page_span, FileId, PageId};
use crate::policy::CachePolicyKind;
use crate::prefetch::Prefetcher;

/// Pages per shard block: page→shard hashing is done on aligned blocks
/// of this many pages (256 KiB at the default page size), so sequential
/// runs decompose into few per-shard groups.
pub const SHARD_BLOCK_PAGES: u64 = 64;

const SHARD_BLOCK_SHIFT: u32 = SHARD_BLOCK_PAGES.trailing_zeros();

/// Default shard count for callers that don't size it explicitly.
pub const DEFAULT_SHARDS: usize = 8;

/// Multi-block spans touching at most this many blocks keep their
/// per-shard run cursors on the stack.
const INLINE_RUNS: usize = 8;

/// Splits the inclusive page range `first..=last` into its maximal
/// sub-ranges that stay inside one aligned shard block, in ascending
/// order. A block boundary is the only place the owning shard can
/// change, so each yielded `(start, end)` run belongs to one shard and
/// can be processed under one lock acquisition.
pub fn block_runs(first: u64, last: u64) -> impl Iterator<Item = (u64, u64)> {
    let mut next = Some(first).filter(|&f| f <= last);
    std::iter::from_fn(move || {
        let start = next?;
        let end = (start | (SHARD_BLOCK_PAGES - 1)).min(last);
        next = end.checked_add(1).filter(|&n| n <= last);
        Some((start, end))
    })
}

/// A page-granular buffer cache striped across N independently locked
/// shards. See the module docs for the invariants.
#[derive(Debug)]
pub struct ShardedBufferCache {
    cfg: CacheConfig,
    shards: Vec<Mutex<BufferCache>>,
    prefetcher: Mutex<Prefetcher>,
    files: Mutex<Vec<String>>,
}

impl ShardedBufferCache {
    /// Creates a cache with `shards` lock-striped shards (clamped to at
    /// least 1). `cfg.capacity_pages` is the *aggregate* capacity,
    /// partitioned across shards.
    ///
    /// The shard count is additionally clamped to `capacity_pages`:
    /// with more shards than pages, [`shard_capacity`] would hand the
    /// high shards capacity 0, and a zero-capacity [`BufferCache`]
    /// never caches — pages hashed there would see a 0 % hit ratio
    /// forever while the low shards sat half empty. Clamping instead
    /// guarantees every shard at least one page whenever the aggregate
    /// capacity is nonzero, so every page of the id space remains
    /// cacheable. (A zero aggregate capacity still means "never
    /// cache", now on a single shard.)
    pub fn new(cfg: CacheConfig, shards: usize) -> Self {
        assert!(cfg.page_size > 0, "page size must be positive");
        let n = shards.max(1).min(cfg.capacity_pages.max(1));
        let prefetcher = Mutex::new(Prefetcher::new(cfg.prefetch));
        let shards = (0..n)
            .map(|i| {
                let shard_cfg = CacheConfig {
                    capacity_pages: shard_capacity(cfg.capacity_pages, n, i),
                    // Shards never self-prefetch; readahead is driven at
                    // the sharded level and staged per page.
                    prefetch_enabled: false,
                    ..cfg.clone()
                };
                Mutex::new(BufferCache::new(shard_cfg))
            })
            .collect();
        Self { cfg, shards, prefetcher, files: Mutex::new(Vec::new()) }
    }

    /// Creates a cache running `policy` in every shard — the
    /// policy-generic constructor: the kind selects each shard's
    /// residency structure, everything else shards uniformly.
    pub fn for_policy(policy: CachePolicyKind, shards: usize, base: CacheConfig) -> Self {
        Self::new(CacheConfig { policy, ..base }, shards)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The aggregate configuration (shard configs derive from it).
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The shard `id` maps to: a stable multiplicative hash of the
    /// page's aligned block, so results are identical across runs,
    /// platforms and thread counts.
    pub fn shard_of(&self, id: PageId) -> usize {
        let block = id.index >> SHARD_BLOCK_SHIFT;
        let mut x = ((id.file.0 as u64) << 40) ^ block;
        // SplitMix64 finalizer: full-avalanche mixing keeps shards
        // balanced even for the all-sequential traces.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.shards.len() as u64) as usize
    }

    /// Locks shard `s`, exposing its [`BufferCache`] for SPI-level
    /// driving (parallel replay workers own disjoint shard sets and use
    /// this to replay their subsequences).
    pub fn lock_shard(&self, s: usize) -> MutexGuard<'_, BufferCache> {
        self.shards[s].lock()
    }

    /// Registers a file name, returning its id (ids are shared across
    /// shards; shards' internal registries are unused).
    pub fn register_file(&self, name: impl Into<String>) -> FileId {
        let mut files = self.files.lock();
        files.push(name.into());
        FileId(files.len() as u32 - 1)
    }

    /// Name of a registered file.
    pub fn file_name(&self, file: FileId) -> Option<String> {
        self.files.lock().get(file.0 as usize).cloned()
    }

    /// Aggregate metrics, merged over shards in shard order.
    pub fn metrics(&self) -> CacheMetrics {
        let mut total = CacheMetrics::default();
        for s in &self.shards {
            total.merge(&s.lock().metrics());
        }
        total
    }

    /// Metrics of one shard.
    pub fn shard_metrics(&self, s: usize) -> CacheMetrics {
        self.shards[s].lock().metrics()
    }

    /// Total pages resident across all shards.
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().resident_pages()).sum()
    }

    /// Whether the page holding `offset` is resident (in its shard).
    pub fn is_resident(&self, file: FileId, offset: u64) -> bool {
        let id = PageId::containing(file, offset, self.cfg.page_size);
        self.shards[self.shard_of(id)].lock().is_resident(file, offset)
    }

    /// Performs a read or write of `len` bytes at `offset`; pages are
    /// routed to their shards, the policy touched per page — the
    /// sharded analogue of [`BufferCache::access`].
    pub fn access(&self, file: FileId, offset: u64, len: u64, kind: AccessKind) -> AccessOutcome {
        self.access_impl(file, offset, len, kind, true)
    }

    /// Sequential-run fast path: the policy of each shard is touched
    /// once per that shard's portion of the run — the sharded analogue
    /// of [`BufferCache::access_run`].
    pub fn access_run(
        &self,
        file: FileId,
        offset: u64,
        len: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        self.access_impl(file, offset, len, kind, false)
    }

    fn access_impl(
        &self,
        file: FileId,
        offset: u64,
        len: u64,
        kind: AccessKind,
        per_page_touch: bool,
    ) -> AccessOutcome {
        let mut out = AccessOutcome { cost_ms: self.cfg.costs.op_base, ..Default::default() };
        let (first, last) = page_span(offset, len, self.cfg.page_size);

        if first >> SHARD_BLOCK_SHIFT == last >> SHARD_BLOCK_SHIFT {
            // Fast path for the common case (a span inside one aligned
            // block, hence one shard): no per-shard cursor vector, one
            // lock acquisition, promotion done in place. This is the
            // path nearly every web-server request takes.
            let s = self.shard_of(PageId { file, index: first });
            let mut cursor = RunCursor::default();
            let mut shard = self.shards[s].lock();
            for i in first..=last {
                shard.page_access(
                    PageId { file, index: i },
                    kind,
                    per_page_touch,
                    &mut cursor,
                    &mut out,
                );
            }
            shard.finish_run(cursor);
        } else {
            // General path: walk the span in per-shard groups, each
            // processed under one lock acquisition, then promote only
            // the shards we touched. A span of B blocks touches at most
            // B shards, so the per-shard cursors — `(shard, cursor)` in
            // first-touch order — fit a small stack array unless the
            // span is unusually long.
            let blocks = ((last >> SHARD_BLOCK_SHIFT) - (first >> SHARD_BLOCK_SHIFT)) as usize + 1;
            let mut inline = [(0usize, RunCursor::default()); INLINE_RUNS];
            let mut spilled = Vec::new();
            let runs: &mut [(usize, RunCursor)] = if blocks <= INLINE_RUNS {
                &mut inline
            } else {
                spilled.resize(blocks.min(self.shards.len()), (0, RunCursor::default()));
                &mut spilled
            };
            let mut touched = 0;
            for (start, end) in block_runs(first, last) {
                let s = self.shard_of(PageId { file, index: start });
                let run = match runs[..touched].iter().position(|&(shard, _)| shard == s) {
                    Some(run) => run,
                    None => {
                        runs[touched] = (s, RunCursor::default());
                        touched += 1;
                        touched - 1
                    }
                };
                let mut shard = self.shards[s].lock();
                for i in start..=end {
                    shard.page_access(
                        PageId { file, index: i },
                        kind,
                        per_page_touch,
                        &mut runs[run].1,
                        &mut out,
                    );
                }
            }
            for &(s, cursor) in &runs[..touched] {
                if cursor.has_pending_promotion() {
                    self.shards[s].lock().finish_run(cursor);
                }
            }
        }

        if self.cfg.prefetch_enabled && self.cfg.capacity_pages > 0 {
            let window = self.prefetcher.lock().on_access(file, first, last);
            // The window sits in one or two blocks: one lock each, not
            // one per staged page.
            for (start, end) in block_runs(last + 1, last + window) {
                let mut shard = self.shards[self.shard_of(PageId { file, index: start })].lock();
                for i in start..=end {
                    shard.stage_prefetch(PageId { file, index: i }, &mut out);
                }
            }
        }
        out
    }

    /// Opens `file`: fixed metadata cost plus staging the header page
    /// into its shard.
    pub fn open(&self, file: FileId) -> AccessOutcome {
        let mut out = AccessOutcome { cost_ms: self.cfg.costs.open_base, ..Default::default() };
        let id = PageId { file, index: 0 };
        self.shards[self.shard_of(id)].lock().stage_open_page(id, &mut out);
        out
    }

    /// Seeks: file-pointer update plus informing the shared readahead
    /// engine (a far seek breaks the sequential run).
    pub fn seek(&self, file: FileId, offset: u64) -> AccessOutcome {
        let index = offset / self.cfg.page_size;
        if index > 0 {
            self.prefetcher.lock().on_access(file, index, index.saturating_sub(1));
        }
        AccessOutcome { cost_ms: self.cfg.costs.seek_base, ..Default::default() }
    }

    /// Closes `file`: every shard flushes and drops the file's pages;
    /// the shared readahead state for it is forgotten.
    pub fn close(&self, file: FileId) -> AccessOutcome {
        let mut out = AccessOutcome { cost_ms: self.cfg.costs.close_base, ..Default::default() };
        for shard in &self.shards {
            shard.lock().evict_file_pages(file, &mut out);
        }
        self.prefetcher.lock().forget(file);
        out
    }

    /// Writes every dirty page back without evicting, shard by shard.
    pub fn flush(&self) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        for shard in &self.shards {
            shard.lock().flush_pages(&mut out);
        }
        out
    }
}

/// The capacity share of shard `i` of `n`: `total / n`, with the
/// remainder distributed to the lowest-numbered shards.
pub fn shard_capacity(total: usize, n: usize, i: usize) -> usize {
    total / n + usize::from(i < total % n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplacementPolicy;

    fn cfg(capacity: usize) -> CacheConfig {
        CacheConfig { capacity_pages: capacity, ..Default::default() }
    }

    #[test]
    fn capacity_partition_is_exact() {
        for total in [0usize, 1, 7, 16, 16 * 1024] {
            for n in 1..=9 {
                let sum: usize = (0..n).map(|i| shard_capacity(total, n, i)).sum();
                assert_eq!(sum, total, "total {total} over {n} shards");
            }
        }
    }

    #[test]
    fn block_runs_split_a_span_at_block_boundaries_only() {
        let runs = |first, last| block_runs(first, last).collect::<Vec<_>>();
        assert_eq!(runs(5, 9), vec![(5, 9)]);
        assert_eq!(runs(63, 64), vec![(63, 63), (64, 64)]);
        assert_eq!(runs(60, 200), vec![(60, 63), (64, 127), (128, 191), (192, 200)]);
        assert_eq!(runs(128, 191), vec![(128, 191)]);
        assert_eq!(runs(10, 9), vec![], "an empty window yields nothing");
        assert_eq!(runs(u64::MAX - 1, u64::MAX), vec![(u64::MAX - 1, u64::MAX)]);
    }

    #[test]
    fn long_spans_spill_their_cursors_and_still_match_a_single_cache() {
        // 40 blocks > INLINE_RUNS: the general path's spilled storage.
        // With run promotion each of the 3 shards promotes once.
        let config = CacheConfig { capacity_pages: 4096, ..Default::default() };
        let sharded = ShardedBufferCache::new(config.clone(), 3);
        let mut mono = BufferCache::new(config);
        let (fs, fm) = (sharded.register_file("long"), mono.register_file("long"));
        let len = 40 * SHARD_BLOCK_PAGES * 4096;
        for _ in 0..2 {
            let (a, b) = (
                sharded.access_run(fs, 4096, len, AccessKind::Write),
                mono.access_run(fm, 4096, len, AccessKind::Write),
            );
            assert_eq!((a.pages_hit, a.pages_missed), (b.pages_hit, b.pages_missed));
        }
        assert_eq!(sharded.resident_pages(), mono.resident_pages());
        assert_eq!(sharded.flush().writebacks, mono.flush().writebacks);
    }

    #[test]
    fn shard_map_is_block_aligned_and_stable() {
        let c = ShardedBufferCache::new(cfg(1024), 4);
        let f = FileId(3);
        let s0 = c.shard_of(PageId { file: f, index: 0 });
        for i in 1..SHARD_BLOCK_PAGES {
            assert_eq!(c.shard_of(PageId { file: f, index: i }), s0, "block stays on one shard");
        }
        // Stability: the same page maps to the same shard on a second
        // identically configured cache.
        let c2 = ShardedBufferCache::new(cfg(1024), 4);
        for i in (0..2048).step_by(63) {
            let id = PageId { file: f, index: i };
            assert_eq!(c.shard_of(id), c2.shard_of(id));
        }
    }

    #[test]
    fn shards_are_reasonably_balanced() {
        let c = ShardedBufferCache::new(cfg(1024), 8);
        let mut counts = vec![0usize; 8];
        for file in 0..4u32 {
            for block in 0..256u64 {
                counts[c
                    .shard_of(PageId { file: FileId(file), index: block * SHARD_BLOCK_PAGES })] +=
                    1;
            }
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*min * 2 > *max, "balance within 2x: {counts:?}");
    }

    #[test]
    fn single_shard_matches_buffer_cache_exactly() {
        // The constructive equivalence check; the property test in
        // tests/cache_properties.rs fuzzes the same invariant.
        for policy in ReplacementPolicy::ALL {
            let config = CacheConfig { capacity_pages: 64, policy, ..Default::default() };
            let mut mono = BufferCache::new(config.clone());
            let sharded = ShardedBufferCache::new(config, 1);
            let fm = mono.register_file("f");
            let fs = sharded.register_file("f");
            assert_eq!(fm, fs);

            assert_eq!(mono.open(fm), sharded.open(fs));
            for i in 0..200u64 {
                let off = (i * 37) % 150 * 4096;
                let len = 4096 * (1 + i % 5);
                let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                assert_eq!(mono.access(fm, off, len, kind), sharded.access(fs, off, len, kind));
                if i % 11 == 0 {
                    assert_eq!(mono.seek(fm, off), sharded.seek(fs, off));
                }
            }
            assert_eq!(mono.flush(), sharded.flush());
            assert_eq!(mono.close(fm), sharded.close(fs));
            assert_eq!(mono.metrics(), sharded.metrics(), "policy {}", policy.name());
        }
    }

    #[test]
    fn aggregate_capacity_respected_across_shard_counts() {
        for shards in [1usize, 2, 3, 8] {
            let c = ShardedBufferCache::new(cfg(32), shards);
            let f = c.register_file("cap");
            for i in 0..500u64 {
                c.access(f, i * 4096, 4096, AccessKind::Read);
                assert!(c.resident_pages() <= 32, "{} shards", shards);
            }
            assert!(c.metrics().evictions > 0);
        }
    }

    #[test]
    fn close_drops_only_that_file() {
        let c = ShardedBufferCache::new(cfg(256), 4);
        let a = c.register_file("a");
        let b = c.register_file("b");
        c.access(a, 0, 64 * 4096, AccessKind::Write);
        c.access(b, 0, 4096, AccessKind::Read);
        let close = c.close(a);
        assert!(close.writebacks > 0, "dirty pages flushed on close");
        assert!(!c.is_resident(a, 0));
        assert!(c.is_resident(b, 0));
    }

    #[test]
    fn sequential_reads_prefetch_across_shards() {
        let c = ShardedBufferCache::new(cfg(4096), 4);
        let f = c.register_file("seq");
        let mut prefetched = 0;
        for i in 0..200u64 {
            prefetched += c.access(f, i * 4096, 4096, AccessKind::Read).pages_prefetched;
        }
        assert!(prefetched > 0, "shared readahead engine fires");
        assert!(c.metrics().prefetch_hits > 0, "staged pages get hit");
    }

    #[test]
    fn policy_generic_constructor_selects_policy() {
        for policy in ReplacementPolicy::ALL {
            let c = ShardedBufferCache::for_policy(policy, 3, cfg(48));
            assert_eq!(c.config().policy, policy);
            assert_eq!(c.num_shards(), 3);
            for s in 0..3 {
                assert_eq!(c.lock_shard(s).config().policy, policy);
            }
        }
    }

    #[test]
    fn concurrent_hammer_keeps_totals_consistent() {
        use std::sync::Arc;
        let c = Arc::new(ShardedBufferCache::new(cfg(128), 8));
        let f = c.register_file("hammer");
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut hits = 0u64;
                let mut misses = 0u64;
                for i in 0..2_000u64 {
                    let off = ((t * 7919 + i * 31) % 4096) * 4096;
                    let out = c.access(f, off, 4096, AccessKind::Read);
                    hits += out.pages_hit;
                    misses += out.pages_missed;
                }
                (hits, misses)
            }));
        }
        let (mut hits, mut misses) = (0, 0);
        for h in handles {
            let (a, b) = h.join().unwrap();
            hits += a;
            misses += b;
        }
        let m = c.metrics();
        assert_eq!(m.hits, hits, "no lost hit updates");
        assert_eq!(m.misses, misses, "no lost miss updates");
        assert_eq!(m.accesses(), 4 * 2_000, "every page accounted");
        assert!(c.resident_pages() <= 128);
    }

    #[test]
    fn shard_count_clamps_to_capacity() {
        // 3 pages over 8 requested shards: without the clamp, shards
        // 3..8 would get capacity 0 and their pages would never cache.
        let c = ShardedBufferCache::new(cfg(3), 8);
        assert_eq!(c.num_shards(), 3, "shards clamp to capacity_pages");
        for s in 0..c.num_shards() {
            assert!(
                c.lock_shard(s).config().capacity_pages >= 1,
                "every shard holds at least one page"
            );
        }
        // Every page is cacheable: a re-access of any page hits.
        let f = c.register_file("tiny");
        for block in 0..64u64 {
            let off = block * SHARD_BLOCK_PAGES * 4096;
            c.access(f, off, 4096, AccessKind::Read);
            let out = c.access(f, off, 4096, AccessKind::Read);
            assert_eq!(out.pages_hit, 1, "block {block} is cacheable after the clamp");
            assert!(c.resident_pages() <= 3);
        }
        // Capacity 1 degenerates to a single shard; zero-capacity
        // stays a single never-caching shard.
        assert_eq!(ShardedBufferCache::new(cfg(1), 16).num_shards(), 1);
        assert_eq!(ShardedBufferCache::new(cfg(0), 16).num_shards(), 1);
        // Plenty of capacity: the requested count is honoured.
        assert_eq!(ShardedBufferCache::new(cfg(1024), 16).num_shards(), 16);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ShardedBufferCache::new(cfg(0), 4);
        let f = c.register_file("nc");
        assert_eq!(c.access(f, 0, 4096, AccessKind::Read).pages_missed, 1);
        assert_eq!(c.access(f, 0, 4096, AccessKind::Read).pages_missed, 1);
        assert_eq!(c.resident_pages(), 0);
        assert_eq!(c.open(f).pages_prefetched, 0);
    }

    #[test]
    fn file_registry_shared() {
        let c = ShardedBufferCache::new(cfg(16), 2);
        let f = c.register_file("x.dat");
        assert_eq!(c.file_name(f).as_deref(), Some("x.dat"));
        assert_eq!(c.file_name(FileId(42)), None);
    }
}
