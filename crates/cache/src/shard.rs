//! The sharded, concurrency-safe buffer cache.
//!
//! [`BufferCache`] is a single-owner structure: every access takes
//! `&mut self`, so a multithreaded server serializes all requests on
//! one lock around the whole cache. [`ShardedBufferCache`] removes that
//! bottleneck with classic lock striping: the page-id space is hashed
//! into N shards, each shard is a [`ShardCore`] — a *full policy
//! instance* (its own residency set, page table and counters) and
//! nothing else — behind a [`parking_lot::Mutex`], and an operation
//! only locks the shards its pages actually map to.
//!
//! Operations are not written here. The crate has one operation-level
//! driver (`driver.rs`: open / close / seek / read-write with readahead)
//! and this module supplies two of its three front-ends:
//!
//! - the **striped** set behind [`ShardedBufferCache`]'s own verbs:
//!   every shard, one lock each, the shared readahead detector locked
//!   only around each question put to it, one cost accumulator;
//! - the **owned subset** behind [`ShardView`]: worker `w` of `T` sees
//!   only the shards `s` with `s % T == w`, skips every other page,
//!   consults a private detector replica and reports one partial
//!   outcome per owned shard — what parallel trace replay drives.
//!
//! Design invariants, pinned by `tests/cache_properties.rs`:
//!
//! 1. **Single-shard equivalence.** With one shard, every operation is
//!    access-for-access identical to [`BufferCache`] — outcomes,
//!    metrics, costs and residency. Both *are* the same driver code
//!    over the same core; the property test is the check that the two
//!    shard sets answer alike.
//! 2. **Shard independence.** A shard's eviction decisions depend only
//!    on the subsequence of pages that map to it — never on traffic to
//!    sibling shards. Changing the shard count changes the partition,
//!    not the behaviour of any shard on its own stream, which is what
//!    makes parallel replay deterministic across thread counts: the
//!    worker views of one cache, each fed the whole stream, leave every
//!    shard exactly where the striped verbs would.
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
//! sequence, which lets each worker view run a private replica instead
//! of contending on it.
//!
//! [`BufferCache`]: crate::cache::BufferCache
//! [`BufferCache::access_run`]: crate::cache::BufferCache::access_run

use std::iter::StepBy;
use std::ops::{Deref, Range};

use parking_lot::{Mutex, MutexGuard};

use crate::cache::{AccessKind, AccessOutcome, CacheConfig, RunCursor, ShardCore};
use crate::driver::{self, ShardSet};
use crate::metrics::CacheMetrics;
use crate::page::{FileId, PageId};
use crate::prefetch::Prefetcher;

/// Pages per shard block: page→shard hashing is done on aligned blocks
/// of this many pages (256 KiB at the default page size), so sequential
/// runs decompose into few per-shard groups.
pub const SHARD_BLOCK_PAGES: u64 = 64;

/// One shard behind its lock, on cache lines of its own. Workers own
/// alternating shards, so in a plain `Vec<Mutex<ShardCore>>` shard
/// `k`'s counters and shard `k + 1`'s lock word can share a line and
/// every access of one worker invalidates it under the other; whether
/// they do depended on where the allocator put the `Vec`. 128 bytes
/// covers the adjacent-line prefetcher's pair of 64-byte lines.
#[derive(Debug)]
#[repr(align(128))]
struct ShardCell(Mutex<ShardCore>);

impl Deref for ShardCell {
    type Target = Mutex<ShardCore>;

    fn deref(&self) -> &Mutex<ShardCore> {
        &self.0
    }
}

/// A page-granular buffer cache striped across N independently locked
/// shards. See the module docs for the invariants.
#[derive(Debug)]
pub struct ShardedBufferCache {
    cfg: CacheConfig,
    shards: Vec<ShardCell>,
    prefetcher: Mutex<Prefetcher>,
    files: Mutex<Vec<String>>,
}

/// The striped shard set: every shard of `cache`, each locked for the
/// duration of one step, the shared detector locked for the duration of
/// one question, one accumulator for the whole operation.
struct Striped<'c> {
    cache: &'c ShardedBufferCache,
    out: AccessOutcome,
}

impl ShardSet for Striped<'_> {
    #[inline]
    fn config(&self) -> &CacheConfig {
        &self.cache.cfg
    }

    #[inline]
    fn charge_base(&mut self, ms: f64) {
        self.out.cost_ms += ms;
    }

    #[inline]
    fn owner(&self, id: PageId) -> Option<usize> {
        Some(self.cache.shard_of(id))
    }

    #[inline]
    fn shards(&self) -> StepBy<Range<usize>> {
        (0..self.cache.shards.len()).step_by(1)
    }

    #[inline]
    fn on_shard(&mut self, s: usize, step: impl FnOnce(&mut ShardCore, &mut AccessOutcome)) {
        step(&mut self.cache.shards[s].lock(), &mut self.out)
    }

    #[inline]
    fn readahead<R>(&mut self, ask: impl FnOnce(&mut Prefetcher) -> R) -> R {
        ask(&mut self.cache.prefetcher.lock())
    }
}

impl ShardedBufferCache {
    /// Creates a cache with `shards` lock-striped shards (clamped to at
    /// least 1). `cfg.capacity_pages` is the *aggregate* capacity,
    /// partitioned across shards.
    ///
    /// The shard count is additionally clamped to `capacity_pages`:
    /// with more shards than pages, [`shard_capacity`] would hand the
    /// high shards capacity 0, and a zero-capacity core never caches —
    /// pages hashed there would see a 0 % hit ratio forever while the
    /// low shards sat half empty. Clamping instead guarantees every
    /// shard at least one page whenever the aggregate capacity is
    /// nonzero, so every page of the id space remains cacheable. (A
    /// zero aggregate capacity still means "never cache", now on a
    /// single shard.)
    pub fn new(cfg: CacheConfig, shards: usize) -> Self {
        let n = shards.max(1).min(cfg.capacity_pages.max(1));
        let prefetcher = Mutex::new(Prefetcher::new(cfg.prefetch));
        let shards = (0..n)
            .map(|i| {
                let capacity_pages = shard_capacity(cfg.capacity_pages, n, i);
                let core = ShardCore::new(CacheConfig { capacity_pages, ..cfg.clone() });
                ShardCell(Mutex::new(core))
            })
            .collect();
        Self { cfg, shards, prefetcher, files: Mutex::new(Vec::new()) }
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
        let block = id.index / SHARD_BLOCK_PAGES;
        let mut x = ((id.file.0 as u64) << 40) ^ block;
        // SplitMix64 finalizer: full-avalanche mixing keeps shards
        // balanced even for the all-sequential traces.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.shards.len() as u64) as usize
    }

    /// The shard that serves the page holding byte `offset` of `file` —
    /// where a request for that byte queues.
    pub fn home_shard(&self, file: FileId, offset: u64) -> usize {
        self.shard_of(PageId::containing(file, offset, self.cfg.page_size))
    }

    /// Locks shard `s`, exposing its page-level core (tests compare a
    /// shard with a standalone replica through this).
    pub fn lock_shard(&self, s: usize) -> MutexGuard<'_, ShardCore> {
        self.shards[s].lock()
    }

    /// Registers a file name, returning its id (ids are shared across
    /// shards).
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

    /// Pages resident in shard `s`, and the capacity share they must
    /// fit in.
    pub fn shard_occupancy(&self, s: usize) -> (usize, usize) {
        let shard = self.shards[s].lock();
        (shard.resident_pages(), shard.config().capacity_pages)
    }

    /// Total pages resident across all shards.
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().resident_pages()).sum()
    }

    /// Whether the page holding `offset` is resident (in its shard).
    pub fn is_resident(&self, file: FileId, offset: u64) -> bool {
        self.shards[self.home_shard(file, offset)].lock().is_resident(file, offset)
    }

    /// Runs one driver operation over the striped shard set and returns
    /// what it accumulated.
    fn drive(&self, op: impl FnOnce(&mut Striped<'_>)) -> AccessOutcome {
        let mut set = Striped { cache: self, out: AccessOutcome::default() };
        op(&mut set);
        set.out
    }

    /// Performs a read or write of `len` bytes at `offset`; pages are
    /// routed to their shards, the policy touched per page — the
    /// sharded analogue of [`BufferCache::access`].
    ///
    /// [`BufferCache::access`]: crate::cache::BufferCache::access
    pub fn access(&self, file: FileId, offset: u64, len: u64, kind: AccessKind) -> AccessOutcome {
        self.drive(|set| driver::data_op(set, None, file, offset, len, kind, true))
    }

    /// Sequential-run fast path: the policy of each shard is touched
    /// once per that shard's portion of the run — the sharded analogue
    /// of [`BufferCache::access_run`].
    ///
    /// [`BufferCache::access_run`]: crate::cache::BufferCache::access_run
    pub fn access_run(
        &self,
        file: FileId,
        offset: u64,
        len: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        self.drive(|set| driver::data_op(set, None, file, offset, len, kind, false))
    }

    /// Opens `file`: fixed metadata cost plus staging the header page
    /// into its shard.
    pub fn open(&self, file: FileId) -> AccessOutcome {
        self.drive(|set| driver::open(set, file))
    }

    /// Seeks: file-pointer update plus informing the shared readahead
    /// engine (a far seek breaks the sequential run).
    pub fn seek(&self, file: FileId, offset: u64) -> AccessOutcome {
        self.drive(|set| driver::seek(set, file, offset))
    }

    /// Closes `file`: every shard flushes and drops the file's pages;
    /// the shared readahead state for it is forgotten.
    pub fn close(&self, file: FileId) -> AccessOutcome {
        self.drive(|set| driver::close(set, file))
    }

    /// Writes every dirty page back without evicting, shard by shard.
    pub fn flush(&self) -> AccessOutcome {
        self.drive(|set| driver::flush(set))
    }

    /// The view of worker `worker` of `threads` (`worker < threads`):
    /// the shards `s` with `s % threads == worker`. The `threads` views
    /// of one cache partition its shards, so they can run on as many
    /// threads without contending; each must be fed the *whole*
    /// operation stream, in order.
    pub fn worker_view(&self, worker: usize, threads: usize) -> ShardView<'_> {
        // A caller contract: the replay engines ask for workers
        // `0..threads` only; a worker past them would own no shard and
        // silently replay nothing.
        assert!(worker < threads, "worker {worker} of {threads}");
        let owned = (worker..self.shards.len()).step_by(threads).len();
        ShardView {
            cache: self,
            worker,
            threads,
            prefetcher: Prefetcher::new(self.cfg.prefetch),
            parts: vec![AccessOutcome::default(); owned],
            spill: Vec::new(),
        }
    }
}

/// One worker's share of a [`ShardedBufferCache`]: the owned-subset
/// front-end of the operation driver (see
/// [`ShardedBufferCache::worker_view`]).
///
/// Every verb performs the operation's effect on the owned shards only
/// — pages of foreign shards are skipped, the private readahead replica
/// still sees the whole access — and returns one partial
/// [`AccessOutcome`] per owned shard, in ascending shard order (the
/// `k`-th entry belongs to shard `worker + k·threads`), zero for shards
/// the operation did not reach. The operation's fixed base cost is in
/// none of them: whoever merges the views' partials adds it once.
#[derive(Debug)]
pub struct ShardView<'c> {
    cache: &'c ShardedBufferCache,
    worker: usize,
    threads: usize,
    prefetcher: Prefetcher,
    parts: Vec<AccessOutcome>,
    /// Cursor storage kept between operations, so long spans over many
    /// owned shards do not allocate per operation.
    spill: Vec<(usize, RunCursor)>,
}

impl ShardSet for ShardView<'_> {
    #[inline]
    fn config(&self) -> &CacheConfig {
        &self.cache.cfg
    }

    #[inline]
    fn charge_base(&mut self, _ms: f64) {}

    #[inline]
    fn owner(&self, id: PageId) -> Option<usize> {
        Some(self.cache.shard_of(id)).filter(|s| s % self.threads == self.worker)
    }

    #[inline]
    fn shards(&self) -> StepBy<Range<usize>> {
        (self.worker..self.cache.shards.len()).step_by(self.threads)
    }

    #[inline]
    fn on_shard(&mut self, s: usize, step: impl FnOnce(&mut ShardCore, &mut AccessOutcome)) {
        step(&mut self.cache.shards[s].lock(), &mut self.parts[s / self.threads])
    }

    #[inline]
    fn readahead<R>(&mut self, ask: impl FnOnce(&mut Prefetcher) -> R) -> R {
        ask(&mut self.prefetcher)
    }
}

impl ShardView<'_> {
    /// The owned shard ids, ascending — the shards the partial outcomes
    /// of every verb line up with.
    pub fn owned_shards(&self) -> impl ExactSizeIterator<Item = usize> {
        self.shards()
    }

    /// Runs one driver operation over the owned shards from zeroed
    /// partials.
    fn drive(&mut self, op: impl FnOnce(&mut Self)) -> &[AccessOutcome] {
        self.parts.fill(AccessOutcome::default());
        op(self);
        &self.parts
    }

    fn data_op(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
        kind: AccessKind,
        per_page_touch: bool,
    ) -> &[AccessOutcome] {
        self.drive(|set| {
            let mut spill = std::mem::take(&mut set.spill);
            driver::data_op(set, Some(&mut spill), file, offset, len, kind, per_page_touch);
            set.spill = spill;
        })
    }

    /// This worker's share of [`ShardedBufferCache::access`].
    pub fn access(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
        kind: AccessKind,
    ) -> &[AccessOutcome] {
        self.data_op(file, offset, len, kind, true)
    }

    /// This worker's share of [`ShardedBufferCache::access_run`].
    pub fn access_run(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
        kind: AccessKind,
    ) -> &[AccessOutcome] {
        self.data_op(file, offset, len, kind, false)
    }

    /// This worker's share of [`ShardedBufferCache::open`].
    pub fn open(&mut self, file: FileId) -> &[AccessOutcome] {
        self.drive(|set| driver::open(set, file))
    }

    /// This worker's share of [`ShardedBufferCache::seek`]: the replica
    /// detector hears of it, no shard does.
    pub fn seek(&mut self, file: FileId, offset: u64) -> &[AccessOutcome] {
        self.drive(|set| driver::seek(set, file, offset))
    }

    /// This worker's share of [`ShardedBufferCache::close`].
    pub fn close(&mut self, file: FileId) -> &[AccessOutcome] {
        self.drive(|set| driver::close(set, file))
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
    use crate::cache::BufferCache;
    use crate::driver::block_runs;
    use crate::policy::ReplacementPolicy;

    fn cfg(capacity: usize) -> CacheConfig {
        CacheConfig { capacity_pages: capacity, ..Default::default() }
    }

    #[test]
    fn neighbouring_shards_never_share_a_cache_line() {
        assert_eq!(std::mem::align_of::<ShardCell>(), 128);
        assert_eq!(std::mem::size_of::<ShardCell>() % 128, 0);
        let cache = ShardedBufferCache::new(cfg(64), 4);
        let at = |s: usize| std::ptr::from_ref(&cache.shards[s]) as usize;
        for s in 0..3 {
            assert_eq!(at(s) % 128, 0, "shard {s} starts a line pair");
            assert!(at(s + 1) - at(s) >= 128, "shards {s} and {} are a line pair apart", s + 1);
        }
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
        // 40 blocks over 12 shards: more touched shards than the inline
        // cursor table holds, so the general path spills. With run
        // promotion each shard promotes once.
        let config = CacheConfig { capacity_pages: 16 * 1024, ..Default::default() };
        let sharded = ShardedBufferCache::new(config.clone(), 12);
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
            let c = ShardedBufferCache::new(CacheConfig { policy, ..cfg(48) }, 3);
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
