//! The buffer cache.
//!
//! A page-granular cache with a pluggable replacement policy (seven of
//! them, selected by [`ReplacementPolicy`]; LRU is the default) and
//! sequential readahead, plus a *cost model* that converts cache events
//! into simulated latencies. It comes in two layers:
//!
//! - [`ShardCore`] is the page level: the policy slab (which is also
//!   the page table — each resident page's dirty and prefetched bits
//!   live in its node), the counters, and the per-page transitions
//!   (`page_access`, `finish_run`, `stage_prefetch`, `stage_open_page`,
//!   `evict_file_pages`, `flush_pages`). It knows nothing of files,
//!   operations or readahead. The page level is **compiled once per
//!   policy** behind one trait object: each transition is written once,
//!   generic over the policy set, and the core holds its policy as a
//!   crate-private `Box<dyn PageTable>` whose methods run a transition
//!   over a whole block run with the policy's methods called statically
//!   — one dynamic call per block run instead of two to five per page.
//!   The per-page methods are the same transitions instantiated for the
//!   trait object, for callers that walk pages themselves.
//! - [`BufferCache`] is the single-owner front-end: one core, one
//!   readahead detector, one file registry. Its operations (open /
//!   close / seek / read-write) are not written here: they are the
//!   crate's one operation-level driver (`driver.rs`) run over a
//!   one-shard, lock-free shard set. [`ShardedBufferCache`] and its
//!   worker views run the *same* driver over other shard sets.
//!
//! [`ShardedBufferCache`]: crate::shard::ShardedBufferCache
//!
//! The defaults are calibrated so replayed traces reproduce the paper's
//! observations:
//!
//! - a warm (fully cached) operation costs microseconds — Table 1's
//!   0.0025 ms reads, Table 3's 7.5e-5 ms seeks,
//! - a cold operation pays a per-run positioning charge plus per-page
//!   fault transfer, two orders of magnitude slower — Table 4's 0.017 ms
//!   read of 28 048 bytes vs its 7.5e-5 ms read of 133 692 cached bytes,
//! - closing a file flushes dirty pages, which is why "the time spent
//!   closing a file was longer than the time taken to open the file"
//!   (LU's 0.4566 ms close after out-of-core writes vs its 0.0006 ms
//!   open),
//! - readahead staged by one operation is charged to that operation
//!   ("I/O operations in light of prefetching experience relatively
//!   high execution times").

use serde::{Deserialize, Serialize};

use std::iter::StepBy;
use std::ops::{Deref, DerefMut, Range};

use crate::driver::{self, ShardSet};
use crate::metrics::CacheMetrics;
use crate::page::{FileId, PageId};
use crate::policy::{PolicySet, ReplacementPolicy, SetBuilder, WritePolicy};
use crate::prefetch::{PrefetchConfig, Prefetcher};

/// Whether an access reads or writes the spanned pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand read.
    Read,
    /// Write: spanned pages become dirty.
    Write,
}

/// Latency parameters, all in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheCostModel {
    /// Fixed per-operation overhead (managed-call dispatch, syscall).
    pub op_base: f64,
    /// Per-page cost of a cache hit (buffer copy).
    pub hit_per_page: f64,
    /// One-time positioning charge per contiguous miss run.
    pub fault_positioning: f64,
    /// Per-page cost of faulting a page in.
    pub fault_per_page: f64,
    /// Per-page cost of staging a prefetched page (sequential transfer,
    /// cheaper than a demand fault).
    pub prefetch_per_page: f64,
    /// Per-page cost of writing a dirty page back.
    pub writeback_per_page: f64,
    /// Fixed cost of opening a file.
    pub open_base: f64,
    /// Fixed cost of closing a file (before dirty flush).
    pub close_base: f64,
    /// Fixed cost of a seek (file-pointer update).
    pub seek_base: f64,
}

impl CacheCostModel {
    /// Costs of the *managed* I/O path — the SSCLI's interpreted-helper
    /// stream classes are two to three orders of magnitude slower per
    /// page than raw OS buffer operations. This is the model behind the
    /// web-server tables, where every operation is milliseconds even
    /// warm (paper Table 5: 1.7–2.9 ms; Table 6: 3.2–9.0 ms).
    pub fn sscli_managed() -> Self {
        Self {
            op_base: 0.05,
            hit_per_page: 0.15,
            fault_positioning: 0.8,
            fault_per_page: 0.12,
            prefetch_per_page: 0.05,
            writeback_per_page: 0.15,
            open_base: 0.1,
            close_base: 0.2,
            seek_base: 0.05,
        }
    }
}

impl Default for CacheCostModel {
    fn default() -> Self {
        Self {
            op_base: 7.5e-5,
            hit_per_page: 2.0e-6,
            fault_positioning: 8.0e-3,
            fault_per_page: 1.2e-3,
            prefetch_per_page: 1.0e-4,
            writeback_per_page: 3.0e-2,
            open_base: 6.0e-4,
            close_base: 5.0e-3,
            seek_base: 7.5e-5,
        }
    }
}

/// Cache geometry and policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Page size in bytes.
    pub page_size: u64,
    /// Capacity in pages. Zero disables caching entirely: every access
    /// faults and nothing is retained (the ablation baseline).
    pub capacity_pages: usize,
    /// Readahead policy.
    pub prefetch: PrefetchConfig,
    /// Master switch for readahead (ablation knob).
    pub prefetch_enabled: bool,
    /// Replacement policy (ablation knob; LRU is the platform default).
    pub policy: ReplacementPolicy,
    /// Write policy (ablation knob; write-back is the platform default).
    pub write_policy: WritePolicy,
    /// Latency model.
    pub costs: CacheCostModel,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            page_size: crate::page::PAGE_SIZE_DEFAULT,
            // 64 MiB of 4 KiB pages: a plausible XP-era cache share.
            capacity_pages: 16 * 1024,
            prefetch: PrefetchConfig::default(),
            prefetch_enabled: true,
            policy: ReplacementPolicy::default(),
            write_policy: WritePolicy::default(),
            costs: CacheCostModel::default(),
        }
    }
}

impl CacheConfig {
    /// Checks the fields a run would otherwise trip over: a page size
    /// of zero (every page walk divides by it) and a cost that is not a
    /// finite, non-negative number of milliseconds (a NaN would be
    /// summed into every reported cost). The error names the field.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_size == 0 {
            return Err("cache page_size must be positive".into());
        }
        let c = &self.costs;
        let costs = [
            ("op_base", c.op_base),
            ("hit_per_page", c.hit_per_page),
            ("fault_positioning", c.fault_positioning),
            ("fault_per_page", c.fault_per_page),
            ("prefetch_per_page", c.prefetch_per_page),
            ("writeback_per_page", c.writeback_per_page),
            ("open_base", c.open_base),
            ("close_base", c.close_base),
            ("seek_base", c.seek_base),
        ];
        match costs.iter().find(|(_, ms)| !ms.is_finite() || *ms < 0.0) {
            Some((field, ms)) => {
                Err(format!("cache cost {field} must be finite and non-negative, not {ms}"))
            }
            None => Ok(()),
        }
    }
}

// Page state bits, kept in the policy node's payload byte.
/// The page has been written since it was last written back.
const DIRTY: u8 = 1;
/// The page was staged by readahead and has not been demanded yet.
const PREFETCHED: u8 = 2;

/// State threaded through a sequence of [`ShardCore::page_access`]
/// calls belonging to one operation.
///
/// A cursor tracks two things the per-page step cannot know on its own:
/// whether the previous page of *this* operation on *this* core missed
/// (so a continuing miss run is charged positioning only once), and —
/// in run-promotion mode — which resident page currently stands for the
/// whole run, remembered with its policy slot so promoting it needs no
/// second lookup. The operation driver keeps one cursor per touched
/// shard so each shard sees exactly the miss-run structure of its own
/// page subsequence, which is what makes shard-local eviction decisions
/// independent of the total shard count.
///
/// A cursor belongs to one operation: the pages fed through it must be
/// distinct, and it is spent by [`ShardCore::finish_run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCursor {
    in_miss_run: bool,
    run_mru: Option<(PageId, usize)>,
}

impl RunCursor {
    /// Whether a run-promotion candidate is pending (i.e.
    /// [`ShardCore::finish_run`] would do work).
    pub fn has_pending_promotion(&self) -> bool {
        self.run_mru.is_some()
    }
}

/// What one operation did to the cache, and what it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccessOutcome {
    /// Pages served from cache.
    pub pages_hit: u64,
    /// Pages demand-faulted.
    pub pages_missed: u64,
    /// Pages staged by readahead on behalf of this operation.
    pub pages_prefetched: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Simulated latency of the operation, milliseconds.
    pub cost_ms: f64,
}

impl AccessOutcome {
    /// Folds another outcome's counters and cost into this one — how
    /// the sharded cache combines per-shard partial outcomes of one
    /// operation.
    pub fn absorb(&mut self, other: &AccessOutcome) {
        self.pages_hit += other.pages_hit;
        self.pages_missed += other.pages_missed;
        self.pages_prefetched += other.pages_prefetched;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.cost_ms += other.cost_ms;
    }
}

/// Pages `first..=last` of `file`, inside one aligned shard block: what
/// the operation driver hands a core in one call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageRun {
    pub(crate) file: FileId,
    pub(crate) first: u64,
    pub(crate) last: u64,
}

impl PageRun {
    /// The run's pages, ascending.
    #[inline]
    fn pages(self) -> impl Iterator<Item = PageId> {
        (self.first..=self.last).map(move |index| PageId { file: self.file, index })
    }
}

/// A core's books: its configuration and its counters — everything a
/// page transition reads or writes besides the policy set.
///
/// Every transition is written once, here, as a function generic over
/// the set (`P: PolicySet<PageId> + ?Sized`). [`PageTable`] runs it
/// over whole block runs with `P` the concrete policy; the per-page
/// surface of [`ShardCore`] runs the same function with `P = dyn
/// PageTable`.
#[derive(Debug, Clone)]
pub(crate) struct Books {
    cfg: CacheConfig,
    metrics: CacheMetrics,
}

impl Books {
    /// Charges one page's write-back to `out` and the counters.
    fn write_back(&mut self, out: &mut AccessOutcome) {
        out.writebacks += 1;
        self.metrics.writebacks += 1;
        out.cost_ms += self.cfg.costs.writeback_per_page;
    }

    /// Accounts for a page leaving the cache with state `bits`.
    fn evicted(&mut self, bits: u8, out: &mut AccessOutcome) {
        out.evictions += 1;
        self.metrics.evictions += 1;
        if bits & DIRTY != 0 {
            self.write_back(out);
        }
    }

    #[inline]
    fn insert_page<P: PolicySet<PageId> + ?Sized>(
        &mut self,
        set: &mut P,
        id: PageId,
        bits: u8,
        out: &mut AccessOutcome,
    ) {
        if self.cfg.capacity_pages == 0 {
            return; // caching disabled: nothing is retained
        }
        while set.len() >= self.cfg.capacity_pages {
            let Some((_, victim_bits)) = set.pop_victim_entry() else { break };
            self.evicted(victim_bits, out);
        }
        set.admit(id, bits);
    }

    /// The page step: see [`ShardCore::page_access`].
    #[inline]
    fn page_access<P: PolicySet<PageId> + ?Sized>(
        &mut self,
        set: &mut P,
        id: PageId,
        kind: AccessKind,
        per_page_touch: bool,
        cursor: &mut RunCursor,
        out: &mut AccessOutcome,
    ) {
        // The one hash probe of a hit; everything after goes by slot.
        if let Some(slot) = set.lookup(&id) {
            let bits = set.payload_mut(slot);
            if *bits & PREFETCHED != 0 {
                *bits &= !PREFETCHED;
                self.metrics.prefetch_hits += 1;
            }
            if kind == AccessKind::Write {
                match self.cfg.write_policy {
                    WritePolicy::WriteBack => *bits |= DIRTY,
                    WritePolicy::WriteThrough => self.write_back(out),
                }
            }
            if per_page_touch {
                set.hit(slot);
            } else {
                cursor.run_mru = Some((id, slot));
            }
            out.pages_hit += 1;
            self.metrics.hits += 1;
            out.cost_ms += self.cfg.costs.hit_per_page;
            cursor.in_miss_run = false;
        } else {
            if !cursor.in_miss_run {
                out.cost_ms += self.cfg.costs.fault_positioning;
                cursor.in_miss_run = true;
            }
            out.pages_missed += 1;
            self.metrics.misses += 1;
            out.cost_ms += self.cfg.costs.fault_per_page;
            let mut bits = 0;
            if kind == AccessKind::Write {
                match self.cfg.write_policy {
                    WritePolicy::WriteBack => bits = DIRTY,
                    WritePolicy::WriteThrough => self.write_back(out),
                }
            }
            self.insert_page(set, id, bits, out);
        }
    }

    /// Stages `id` without a demand: readahead (which charges its
    /// transfer to `out`) or the header page at open (which does not:
    /// the platform overlaps it). No-op (returning `false`) when the
    /// page is already resident or caching is disabled.
    #[inline]
    fn stage<P: PolicySet<PageId> + ?Sized>(
        &mut self,
        set: &mut P,
        id: PageId,
        readahead: bool,
        out: &mut AccessOutcome,
    ) -> bool {
        if self.cfg.capacity_pages == 0 || set.contains(&id) {
            return false;
        }
        out.pages_prefetched += 1;
        self.metrics.prefetched += 1;
        if readahead {
            out.cost_ms += self.cfg.costs.prefetch_per_page;
        }
        self.insert_page(set, id, PREFETCHED, out);
        true
    }

    /// Evicts every resident page of `file`: see
    /// [`ShardCore::evict_file_pages`].
    fn evict_file_pages<P: PolicySet<PageId> + ?Sized>(
        &mut self,
        set: &mut P,
        file: FileId,
        out: &mut AccessOutcome,
    ) {
        // Some policies (CLOCK's slot reuse, 2Q's queue surgery) are
        // sensitive to removal order — evict in page order: a page
        // id's groups rank like its pages, and lanes ascend inside one.
        set.remove_groups_where(&|group| group.file == file, &PageId::cmp, &mut |bits| {
            self.evicted(bits, out)
        });
    }

    /// Writes every dirty page back: see [`ShardCore::flush_pages`].
    fn flush_pages<P: PolicySet<PageId> + ?Sized>(&mut self, set: &mut P, out: &mut AccessOutcome) {
        let mut dirty = 0;
        set.visit_residents(&mut |_, bits| {
            if *bits & DIRTY != 0 {
                *bits &= !DIRTY;
                dirty += 1;
            }
        });
        for _ in 0..dirty {
            self.write_back(out);
        }
    }
}

/// Promotes a run's remembered page: see [`ShardCore::finish_run`].
#[inline]
fn promote_run<P: PolicySet<PageId> + ?Sized>(set: &mut P, cursor: RunCursor) {
    if let Some((id, slot)) = cursor.run_mru {
        // A later fault in the same span can have evicted the page
        // (and handed its slot to another); the slot still holding
        // the remembered key says it is resident, without hashing.
        if set.resident_key(slot) == Some(&id) {
            set.hit(slot);
        }
    }
}

/// The cache's page level, compiled once per concrete policy set.
///
/// [`ShardCore`] holds its policy as a `Box<dyn PageTable>`, so the
/// dynamic boundary sits at a *block run*, not at a set operation: each
/// method is one virtual call that runs a [`Books`] transition over the
/// whole run with the policy's own methods called statically (and
/// inlined). The blanket impl is the only one: a policy gets its page
/// table by implementing [`PolicySet`], and [`ReplacementPolicy`]'s one
/// registry match builds it.
pub(crate) trait PageTable: PolicySet<PageId> {
    /// Demands every page of `run` for one operation, ascending.
    fn demand_run(
        &mut self,
        books: &mut Books,
        run: PageRun,
        kind: AccessKind,
        per_page_touch: bool,
        cursor: &mut RunCursor,
        out: &mut AccessOutcome,
    );

    /// [`PageTable::demand_run`] then [`PageTable::finish_run`] on a
    /// fresh cursor: an operation whose whole span on this core is
    /// `run` (the common case: a span inside one block).
    fn demand_span(
        &mut self,
        books: &mut Books,
        run: PageRun,
        kind: AccessKind,
        per_page_touch: bool,
        out: &mut AccessOutcome,
    );

    /// Stages every page of `run` as readahead, ascending.
    fn readahead_run(&mut self, books: &mut Books, run: PageRun, out: &mut AccessOutcome);

    /// Stages the header page `id` at open.
    fn open_page(&mut self, books: &mut Books, id: PageId, out: &mut AccessOutcome) -> bool;

    /// Promotes a run's remembered page.
    fn finish_run(&mut self, cursor: RunCursor);

    /// Evicts every resident page of `file`.
    fn evict_file(&mut self, books: &mut Books, file: FileId, out: &mut AccessOutcome);

    /// Writes every dirty page back.
    fn flush(&mut self, books: &mut Books, out: &mut AccessOutcome);

    /// Clones the table behind the object.
    fn clone_table(&self) -> Box<dyn PageTable>;
}

impl<P: PolicySet<PageId> + Clone + 'static> PageTable for P {
    fn demand_run(
        &mut self,
        books: &mut Books,
        run: PageRun,
        kind: AccessKind,
        per_page_touch: bool,
        cursor: &mut RunCursor,
        out: &mut AccessOutcome,
    ) {
        for id in run.pages() {
            books.page_access(self, id, kind, per_page_touch, cursor, out);
        }
    }

    fn demand_span(
        &mut self,
        books: &mut Books,
        run: PageRun,
        kind: AccessKind,
        per_page_touch: bool,
        out: &mut AccessOutcome,
    ) {
        let mut cursor = RunCursor::default();
        self.demand_run(books, run, kind, per_page_touch, &mut cursor, out);
        promote_run(self, cursor);
    }

    fn readahead_run(&mut self, books: &mut Books, run: PageRun, out: &mut AccessOutcome) {
        for id in run.pages() {
            books.stage(self, id, true, out);
        }
    }

    fn open_page(&mut self, books: &mut Books, id: PageId, out: &mut AccessOutcome) -> bool {
        books.stage(self, id, false, out)
    }

    fn finish_run(&mut self, cursor: RunCursor) {
        promote_run(self, cursor);
    }

    fn evict_file(&mut self, books: &mut Books, file: FileId, out: &mut AccessOutcome) {
        books.evict_file_pages(self, file, out);
    }

    fn flush(&mut self, books: &mut Books, out: &mut AccessOutcome) {
        books.flush_pages(self, out);
    }

    fn clone_table(&self) -> Box<dyn PageTable> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn PageTable> {
    fn clone(&self) -> Self {
        (**self).clone_table()
    }
}

/// The registry visitor that builds a policy's page table.
struct AsPageTable;

impl SetBuilder<PageId> for AsPageTable {
    type Built = Box<dyn PageTable>;

    fn build<P: PolicySet<PageId> + Clone + 'static>(capacity: usize) -> Box<dyn PageTable> {
        Box::new(P::with_capacity(capacity))
    }
}

/// The page level of the cache: one replacement-policy instance (whose
/// slab doubles as the page table, see [`PolicySet`]), its counters,
/// and the per-page transitions every operation decomposes into.
///
/// A core has no notion of files, operations or readahead — those live
/// in the operation driver and its front-ends ([`BufferCache`],
/// [`ShardedBufferCache`]). Of its [`CacheConfig`] it reads the
/// capacity, the policies and the cost model; the readahead fields are
/// the front-end's business.
///
/// The driver reaches the policy with one dynamic call per block run;
/// the per-page methods below (`page_access`, `stage_prefetch`) are the
/// same page step with one dynamic call per set operation, for callers
/// that walk pages themselves (the sharding property tests' replicas).
///
/// [`ShardedBufferCache`]: crate::shard::ShardedBufferCache
#[derive(Debug, Clone)]
pub struct ShardCore {
    books: Books,
    resident: Box<dyn PageTable>,
}

impl ShardCore {
    /// Creates an empty core holding up to `cfg.capacity_pages` pages.
    pub fn new(cfg: CacheConfig) -> Self {
        // A caller contract, not an input check: the constructor is
        // infallible (`BufferCache::new` is on the frozen benchmark's
        // call list) and every config in the repo carries a positive
        // page size; a zero one would divide by zero later, so it stops
        // here instead.
        assert!(cfg.page_size > 0, "page size must be positive");
        // The single registry point: the configured policy builds its
        // own page table, sized so the replay hot loop never regrows.
        let resident = cfg.policy.build_with::<PageId, AsPageTable>(cfg.capacity_pages);
        Self { books: Books { cfg, metrics: CacheMetrics::default() }, resident }
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> CacheMetrics {
        self.books.metrics
    }

    /// Number of pages currently cached.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.books.cfg
    }

    /// Whether the page holding `offset` is resident.
    pub fn is_resident(&self, file: FileId, offset: u64) -> bool {
        self.resident.contains(&PageId::containing(file, offset, self.books.cfg.page_size))
    }

    /// Performs the cache transition for one page of an operation,
    /// threading miss-run and run-promotion state through `cursor` and
    /// accumulating counters and cost into `out`.
    ///
    /// With `per_page_touch` the replacement policy is touched on every
    /// hit (the [`BufferCache::access`] semantics); without it the
    /// cursor remembers the page as the run's promotion candidate (the
    /// [`BufferCache::access_run`] semantics) and the caller must invoke
    /// [`ShardCore::finish_run`] after the last page.
    pub fn page_access(
        &mut self,
        id: PageId,
        kind: AccessKind,
        per_page_touch: bool,
        cursor: &mut RunCursor,
        out: &mut AccessOutcome,
    ) {
        self.books.page_access(&mut *self.resident, id, kind, per_page_touch, cursor, out);
    }

    /// [`ShardCore::page_access`] for every page of `run`, in one call
    /// into the policy.
    #[inline]
    pub(crate) fn demand_run(
        &mut self,
        run: PageRun,
        kind: AccessKind,
        per_page_touch: bool,
        cursor: &mut RunCursor,
        out: &mut AccessOutcome,
    ) {
        self.resident.demand_run(&mut self.books, run, kind, per_page_touch, cursor, out);
    }

    /// [`ShardCore::demand_run`] and [`ShardCore::finish_run`] for an
    /// operation whose whole span on this core is `run`, in one call
    /// into the policy.
    #[inline]
    pub(crate) fn demand_span(
        &mut self,
        run: PageRun,
        kind: AccessKind,
        per_page_touch: bool,
        out: &mut AccessOutcome,
    ) {
        self.resident.demand_span(&mut self.books, run, kind, per_page_touch, out);
    }

    /// Completes a run-promotion (`per_page_touch = false`) sequence of
    /// [`ShardCore::page_access`] calls: the run's final resident page
    /// is promoted once, standing for the whole stretch.
    #[inline]
    pub fn finish_run(&mut self, cursor: RunCursor) {
        self.resident.finish_run(cursor);
    }

    /// Stages one readahead page on behalf of the current operation,
    /// charging its transfer to `out`. No-op (returning `false`) when
    /// the page is already resident or caching is disabled.
    pub fn stage_prefetch(&mut self, id: PageId, out: &mut AccessOutcome) -> bool {
        self.books.stage(&mut *self.resident, id, true, out)
    }

    /// [`ShardCore::stage_prefetch`] for every page of `run`, in one
    /// call into the policy.
    #[inline]
    pub(crate) fn readahead_run(&mut self, run: PageRun, out: &mut AccessOutcome) {
        self.resident.readahead_run(&mut self.books, run, out);
    }

    /// Stages a page at open time without charging fault or prefetch
    /// cost (the platform overlaps the header read with the open).
    pub fn stage_open_page(&mut self, id: PageId, out: &mut AccessOutcome) -> bool {
        self.resident.open_page(&mut self.books, id, out)
    }

    /// Evicts every resident page of `file`, writing dirty ones back
    /// into `out` — the page-side effect of a close, without the fixed
    /// close cost or the readahead-state reset.
    pub fn evict_file_pages(&mut self, file: FileId, out: &mut AccessOutcome) {
        self.resident.evict_file(&mut self.books, file, out);
    }

    /// Writes every dirty page back without evicting, accumulating into
    /// `out` — the page-side effect of a flush.
    pub fn flush_pages(&mut self, out: &mut AccessOutcome) {
        self.resident.flush(&mut self.books, out);
    }
}

/// A page-granular buffer cache with readahead, under the replacement
/// policy [`CacheConfig::policy`] names: the single-owner front-end of
/// the operation driver — one [`ShardCore`] (reachable through `Deref`,
/// so the page-level surface and the read-only accessors are the
/// core's), one readahead detector, one file registry, no lock.
#[derive(Debug, Clone)]
pub struct BufferCache {
    core: ShardCore,
    prefetcher: Prefetcher,
    files: Vec<String>,
}

impl Deref for BufferCache {
    type Target = ShardCore;

    fn deref(&self) -> &ShardCore {
        &self.core
    }
}

impl DerefMut for BufferCache {
    fn deref_mut(&mut self) -> &mut ShardCore {
        &mut self.core
    }
}

/// The solo shard set: the cache's one core is shard 0 and owns every
/// page, nothing is locked, and one accumulator takes the whole
/// operation (base cost included).
struct Solo<'a> {
    core: &'a mut ShardCore,
    prefetcher: &'a mut Prefetcher,
    out: AccessOutcome,
}

impl ShardSet for Solo<'_> {
    #[inline]
    fn config(&self) -> &CacheConfig {
        self.core.config()
    }

    #[inline]
    fn charge_base(&mut self, ms: f64) {
        self.out.cost_ms += ms;
    }

    #[inline]
    fn owner(&self, _id: PageId) -> Option<usize> {
        Some(0)
    }

    #[inline]
    fn shards(&self) -> StepBy<Range<usize>> {
        (0..1).step_by(1)
    }

    #[inline]
    fn on_shard(&mut self, _s: usize, step: impl FnOnce(&mut ShardCore, &mut AccessOutcome)) {
        step(self.core, &mut self.out)
    }

    #[inline]
    fn readahead<R>(&mut self, ask: impl FnOnce(&mut Prefetcher) -> R) -> R {
        ask(self.prefetcher)
    }
}

impl BufferCache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let prefetcher = Prefetcher::new(cfg.prefetch);
        Self { core: ShardCore::new(cfg), prefetcher, files: Vec::new() }
    }

    /// Registers a file name, returning its id. The cache itself never
    /// touches the filesystem; names are bookkeeping for reports.
    pub fn register_file(&mut self, name: impl Into<String>) -> FileId {
        self.files.push(name.into());
        FileId(self.files.len() as u32 - 1)
    }

    /// Name of a registered file.
    pub fn file_name(&self, file: FileId) -> Option<&str> {
        self.files.get(file.0 as usize).map(String::as_str)
    }

    /// Runs one driver operation over the solo shard set and returns
    /// what it accumulated.
    fn drive(&mut self, op: impl FnOnce(&mut Solo<'_>)) -> AccessOutcome {
        let mut set = Solo {
            core: &mut self.core,
            prefetcher: &mut self.prefetcher,
            out: AccessOutcome::default(),
        };
        op(&mut set);
        set.out
    }

    /// Performs a read or write of `len` bytes at `offset`, returning
    /// the cache outcome including the simulated latency.
    pub fn access(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        self.drive(|set| driver::data_op(set, None, file, offset, len, kind, true))
    }

    /// Sequential-run fast path: like [`BufferCache::access`], but the
    /// replacement policy is touched **once per run** (the run's final
    /// resident page stands for the whole stretch) instead of once per
    /// page.
    ///
    /// While nothing is evicted mid-operation, hit/miss/prefetch counts
    /// and the simulated cost are identical to
    /// [`BufferCache::access`]. Under eviction pressure the policy sees
    /// a different recency ranking for the run's pages, so victim
    /// choice — and with it hit ratios, writebacks and cost — can
    /// diverge from the per-page-touch path. The divergence is
    /// deterministic, and it models a cache whose sequential runs are
    /// promoted as a unit. Trace replay uses this for multi-page data
    /// operations, where per-page promotion dominated the profile.
    pub fn access_run(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        self.drive(|set| driver::data_op(set, None, file, offset, len, kind, false))
    }

    /// Opens `file`: fixed metadata cost; stages the header page like
    /// the paper describes ("a page or two is placed in I/O buffers"),
    /// without charging fault cost (the platform overlaps it).
    pub fn open(&mut self, file: FileId) -> AccessOutcome {
        self.drive(|set| driver::open(set, file))
    }

    /// Seeks: file-pointer update plus informing the readahead engine
    /// (a far seek breaks the sequential run).
    pub fn seek(&mut self, file: FileId, offset: u64) -> AccessOutcome {
        self.drive(|set| driver::seek(set, file, offset))
    }

    /// Closes `file`: flushes its dirty pages and drops its residency.
    /// The dirty flush is what makes close slower than open.
    pub fn close(&mut self, file: FileId) -> AccessOutcome {
        self.drive(|set| driver::close(set, file))
    }

    /// Writes every dirty page back without evicting.
    pub fn flush(&mut self) -> AccessOutcome {
        self.drive(|set| driver::flush(set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_cache(capacity: usize) -> BufferCache {
        BufferCache::new(CacheConfig { capacity_pages: capacity, ..Default::default() })
    }

    #[test]
    fn cold_then_warm_read() {
        let mut c = small_cache(1024);
        let f = c.register_file("a");
        let cold = c.access(f, 0, 8192, AccessKind::Read);
        assert_eq!(cold.pages_missed, 2);
        assert_eq!(cold.pages_hit, 0);
        let warm = c.access(f, 0, 8192, AccessKind::Read);
        assert_eq!(warm.pages_missed, 0);
        assert_eq!(warm.pages_hit, 2);
        assert!(warm.cost_ms < cold.cost_ms / 10.0, "warm reads are far cheaper");
    }

    #[test]
    fn write_marks_dirty_and_close_flushes() {
        let mut c = small_cache(1024);
        let f = c.register_file("w");
        c.access(f, 0, 4096 * 3, AccessKind::Write);
        let open_cost = c.open(f).cost_ms;
        let close = c.close(f);
        assert_eq!(close.writebacks, 3);
        assert!(close.cost_ms > open_cost, "close (with flush) is slower than open");
    }

    #[test]
    fn close_without_dirty_still_slower_than_open() {
        // Paper: "for all trace files the time spent closing a file was
        // longer than the time taken to open the file".
        let mut c = small_cache(1024);
        let f = c.register_file("r");
        let open = c.open(f);
        c.access(f, 0, 4096, AccessKind::Read);
        let close = c.close(f);
        assert!(close.cost_ms > open.cost_ms);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = small_cache(4);
        let f = c.register_file("cap");
        for i in 0..100u64 {
            c.access(f, i * 4096, 4096, AccessKind::Read);
            assert!(c.resident_pages() <= 4, "resident {} > capacity", c.resident_pages());
        }
        assert!(c.metrics().evictions > 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let mut c = small_cache(2);
        let f = c.register_file("d");
        c.access(f, 0, 4096, AccessKind::Write);
        c.access(f, 4096, 4096, AccessKind::Write);
        // Third distinct page evicts the LRU dirty page.
        let out = c.access(f, 8 * 4096, 4096, AccessKind::Read);
        assert!(out.writebacks >= 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = small_cache(0);
        let f = c.register_file("nc");
        let a = c.access(f, 0, 4096, AccessKind::Read);
        let b = c.access(f, 0, 4096, AccessKind::Read);
        assert_eq!(a.pages_missed, 1);
        assert_eq!(b.pages_missed, 1, "nothing is retained");
        assert_eq!(c.resident_pages(), 0);
    }

    #[test]
    fn sequential_reads_trigger_prefetch_and_pay_for_it() {
        let mut c = small_cache(1024);
        let f = c.register_file("seq");
        let mut outs = Vec::new();
        for i in 0..6u64 {
            outs.push(c.access(f, i * 4096, 4096, AccessKind::Read));
        }
        let total_prefetched: u64 = outs.iter().map(|o| o.pages_prefetched).sum();
        assert!(total_prefetched > 0, "sequential run must trigger readahead");
        // Later reads land on prefetched pages: misses stop.
        assert_eq!(outs[4].pages_missed, 0);
        assert_eq!(outs[5].pages_missed, 0);
        assert!(c.metrics().prefetch_hits > 0);
    }

    #[test]
    fn prefetch_disabled_means_every_new_page_faults() {
        let mut c = BufferCache::new(CacheConfig { prefetch_enabled: false, ..Default::default() });
        let f = c.register_file("nopf");
        for i in 0..6u64 {
            let out = c.access(f, i * 4096, 4096, AccessKind::Read);
            assert_eq!(out.pages_missed, 1);
            assert_eq!(out.pages_prefetched, 0);
        }
        assert_eq!(c.metrics().prefetched, 0);
    }

    #[test]
    fn open_stages_header_page() {
        let mut c = small_cache(1024);
        let f = c.register_file("hdr");
        c.open(f);
        assert!(c.is_resident(f, 0), "open places a page in I/O buffers");
        let first_read = c.access(f, 0, 100, AccessKind::Read);
        assert_eq!(first_read.pages_missed, 0);
    }

    #[test]
    fn far_seek_breaks_readahead_run() {
        let mut c = small_cache(1024);
        let f = c.register_file("seek");
        for i in 0..4u64 {
            c.access(f, i * 4096, 4096, AccessKind::Read);
        }
        c.seek(f, 500 * 4096);
        let after = c.access(f, 500 * 4096, 4096, AccessKind::Read);
        assert_eq!(after.pages_prefetched, 0, "run reset by seek");
    }

    #[test]
    fn seek_cost_matches_model() {
        let mut c = small_cache(16);
        let f = c.register_file("s");
        let out = c.seek(f, 123456);
        assert_eq!(out.cost_ms, c.config().costs.seek_base);
        assert_eq!(out.pages_missed, 0);
    }

    #[test]
    fn flush_cleans_without_evicting() {
        let mut c = small_cache(1024);
        let f = c.register_file("fl");
        c.access(f, 0, 4096 * 2, AccessKind::Write);
        let resident_before = c.resident_pages();
        let out = c.flush();
        assert_eq!(out.writebacks, 2);
        assert_eq!(c.resident_pages(), resident_before);
        // Second flush: nothing dirty.
        assert_eq!(c.flush().writebacks, 0);
    }

    #[test]
    fn per_file_isolation_on_close() {
        let mut c = small_cache(1024);
        let a = c.register_file("a");
        let b = c.register_file("b");
        c.access(a, 0, 4096, AccessKind::Read);
        c.access(b, 0, 4096, AccessKind::Read);
        c.close(a);
        assert!(!c.is_resident(a, 0));
        assert!(c.is_resident(b, 0));
    }

    #[test]
    fn access_run_matches_access_outcomes_without_pressure() {
        // Same trace of operations through access() and access_run():
        // identical outcomes while nothing is evicted.
        let mut a = small_cache(1024);
        let mut b = small_cache(1024);
        let fa = a.register_file("a");
        let fb = b.register_file("b");
        let ops: [(u64, u64, AccessKind); 6] = [
            (0, 4096 * 4, AccessKind::Read),
            (4096 * 4, 4096 * 4, AccessKind::Read),
            (0, 4096 * 8, AccessKind::Read),
            (4096 * 2, 4096 * 3, AccessKind::Write),
            (500 * 4096, 4096, AccessKind::Read),
            (0, 4096 * 8, AccessKind::Read),
        ];
        for &(off, len, kind) in &ops {
            let oa = a.access(fa, off, len, kind);
            let ob = b.access_run(fb, off, len, kind);
            assert_eq!(oa, ob, "outcome diverged at offset {off}");
        }
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.resident_pages(), b.resident_pages());
    }

    #[test]
    fn access_run_promotes_the_run_as_a_unit() {
        let mut c = BufferCache::new(CacheConfig {
            capacity_pages: 4,
            prefetch_enabled: false,
            ..Default::default()
        });
        let f = c.register_file("run");
        // Fill: pages 0..=3 resident.
        c.access_run(f, 0, 4 * 4096, AccessKind::Read);
        // Re-touch the whole run, then fault one new page: the victim
        // is a page of the old run (its representative promotion kept
        // only one page at MRU), and residency stays bounded.
        c.access_run(f, 0, 4 * 4096, AccessKind::Read);
        let out = c.access_run(f, 10 * 4096, 4096, AccessKind::Read);
        assert_eq!(out.pages_missed, 1);
        assert!(c.resident_pages() <= 4);
        assert!(c.is_resident(f, 3 * 4096), "run representative stays hot");
    }

    #[test]
    fn a_run_candidate_evicted_mid_span_does_not_promote_its_slots_new_owner() {
        let mut c = BufferCache::new(CacheConfig {
            capacity_pages: 3,
            prefetch_enabled: false,
            ..Default::default()
        });
        let f = c.register_file("run");
        let g = c.register_file("other");
        c.access(f, 4096, 4096, AccessKind::Read); // f:1, the oldest
        c.access(g, 0, 4096, AccessKind::Read);
        c.access(g, 4096, 4096, AccessKind::Read);
        // f:1 hits and becomes the run's candidate; f:2 faults, evicts
        // f:1 and inherits its slot; f:3 faults and evicts g:0. The
        // remembered slot now holds f:2, which must stay where it is:
        // recency is f:3 > f:2 > g:1.
        let out = c.access_run(f, 4096, 3 * 4096, AccessKind::Read);
        assert_eq!((out.pages_hit, out.pages_missed, out.evictions), (1, 2, 2));
        c.access(g, 10 * 4096, 4096, AccessKind::Read); // evicts g:1
        c.access(g, 11 * 4096, 4096, AccessKind::Read); // evicts f:2, not f:3
        assert!(!c.is_resident(f, 2 * 4096));
        assert!(c.is_resident(f, 3 * 4096));
    }

    #[test]
    fn separately_built_caches_agree_access_for_access() {
        // No table in the crate carries per-instance state, so two
        // caches fed one stream agree on every outcome — including
        // which pages a close evicts in which order, which CLOCK's slot
        // reuse and 2Q's queues turn into later victim choices — and
        // walk their residents in the same order.
        for policy in ReplacementPolicy::ALL {
            let cfg = CacheConfig { policy, capacity_pages: 96, ..Default::default() };
            let mut a = BufferCache::new(cfg.clone());
            let mut b = BufferCache::new(cfg);
            for name in ["x", "y", "z"] {
                assert_eq!(a.register_file(name), b.register_file(name));
            }
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for step in 0..4000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let file = FileId((x % 3) as u32);
                let offset = (x >> 8) % 300 * 4096;
                let len = 1 + (x >> 20) % (6 * 4096);
                let kind = if x & 4 == 0 { AccessKind::Write } else { AccessKind::Read };
                let (oa, ob) = if step % 97 == 96 {
                    (a.close(file), b.close(file))
                } else if x & 8 == 0 {
                    (a.access_run(file, offset, len, kind), b.access_run(file, offset, len, kind))
                } else {
                    (a.access(file, offset, len, kind), b.access(file, offset, len, kind))
                };
                assert_eq!(oa, ob, "{} diverged at step {step}", policy.name());
            }
            assert_eq!(a.metrics(), b.metrics());
            assert!(a.metrics().evictions > 96 && a.metrics().writebacks > 0);
            let walk = |c: &mut BufferCache| {
                let mut seen = Vec::new();
                c.resident.visit_residents(&mut |id, bits| seen.push((*id, *bits)));
                seen
            };
            assert_eq!(walk(&mut a), walk(&mut b), "{}", policy.name());
            assert_eq!(a.flush(), b.flush());
        }
    }

    #[test]
    fn the_compiled_page_level_matches_the_per_page_spi() {
        // The driver reaches the policy once per block run, through the
        // page table compiled for it; a replica core driven page by
        // page through the per-page surface (one dynamic call per set
        // operation) must agree with it op for op, cost bits included —
        // under every policy, and on the branches no golden reaches:
        // capacity 0 and 1, write-through, readahead off.
        for policy in ReplacementPolicy::ALL {
            for write_policy in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
                for capacity_pages in [0, 1, 7, 64] {
                    for prefetch_enabled in [true, false] {
                        let cfg = CacheConfig {
                            policy,
                            write_policy,
                            capacity_pages,
                            prefetch_enabled,
                            ..Default::default()
                        };
                        let case = format!(
                            "{} {write_policy:?} capacity {capacity_pages} readahead \
                             {prefetch_enabled}",
                            policy.name()
                        );
                        compiled_matches_per_page(cfg, &case);
                    }
                }
            }
        }
    }

    /// One stream of opens, closes, seeks, `access` and `access_run`
    /// through a [`BufferCache`] and, page by page, through a replica.
    fn compiled_matches_per_page(cfg: CacheConfig, case: &str) {
        let mut cache = BufferCache::new(cfg.clone());
        let mut replica = ShardCore::new(cfg.clone());
        let mut detector = Prefetcher::new(cfg.prefetch);
        let (costs, page_size) = (cfg.costs, cfg.page_size);
        let readahead = cfg.prefetch_enabled && cfg.capacity_pages > 0;
        let files = [cache.register_file("a"), cache.register_file("b")];
        let mut next = [0u64; 2];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = (x & 1) as usize;
            let file = files[f];
            // Up to 20 pages, half of them continuing the file's last
            // access (so readahead fires), the rest anywhere in 160
            // pages; some spans cross a shard block.
            let offset = if x & 8 == 0 {
                next[f]
            } else {
                (x >> 8) % 160 * page_size + (x >> 40) % 3 * 1000
            };
            let len = (x >> 20) % (20 * page_size);
            next[f] = (offset + len) % (200 * page_size);
            let kind = if x & 2 == 0 { AccessKind::Write } else { AccessKind::Read };
            let per_page_touch = x & 4 == 0;

            let mut want = AccessOutcome::default();
            let got = match step % 23 {
                21 => {
                    want.cost_ms += costs.close_base;
                    replica.evict_file_pages(file, &mut want);
                    detector.forget(file);
                    cache.close(file)
                }
                17 => {
                    want.cost_ms += costs.open_base;
                    replica.stage_open_page(PageId { file, index: 0 }, &mut want);
                    cache.open(file)
                }
                13 => {
                    want.cost_ms += costs.seek_base;
                    let index = offset / page_size;
                    if index > 0 {
                        detector.on_access(file, index, index - 1);
                    }
                    cache.seek(file, offset)
                }
                _ => {
                    want.cost_ms += costs.op_base;
                    let (first, last) = crate::page::page_span(offset, len, page_size);
                    let mut cursor = RunCursor::default();
                    for index in first..=last {
                        let id = PageId { file, index };
                        replica.page_access(id, kind, per_page_touch, &mut cursor, &mut want);
                    }
                    replica.finish_run(cursor);
                    if readahead {
                        let window = detector.on_access(file, first, last);
                        for index in last + 1..=last + window {
                            replica.stage_prefetch(PageId { file, index }, &mut want);
                        }
                    }
                    if per_page_touch {
                        cache.access(file, offset, len, kind)
                    } else {
                        cache.access_run(file, offset, len, kind)
                    }
                }
            };
            assert_eq!(got, want, "{case}, step {step}");
            assert_eq!(got.cost_ms.to_bits(), want.cost_ms.to_bits(), "{case}, step {step}");
            assert_eq!(cache.metrics(), replica.metrics(), "{case}, step {step}");
        }
        assert_eq!(cache.resident_pages(), replica.resident_pages(), "{case}");
        assert!(cache.metrics().accesses() > 0, "{case}");
        let m = cache.metrics();
        if cfg.capacity_pages > 1 {
            assert!(m.hits > 0 && m.evictions > 0 && m.writebacks > 0, "{case}: {m:?}");
        }
        if readahead && cfg.capacity_pages > 1 {
            assert!(m.prefetch_hits > 0, "{case}: {m:?}");
        }
    }

    #[test]
    fn file_names_registered() {
        let mut c = small_cache(16);
        let f = c.register_file("sample.dat");
        assert_eq!(c.file_name(f), Some("sample.dat"));
        assert_eq!(c.file_name(FileId(99)), None);
    }

    proptest! {
        #[test]
        fn residency_never_exceeds_capacity(
            ops in prop::collection::vec((0u64..2048, 1u64..65536, prop::bool::ANY), 1..300),
            capacity in 1usize..64,
        ) {
            let mut c = small_cache(capacity);
            let f = c.register_file("prop");
            for (off, len, write) in ops {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                c.access(f, off * 512, len, kind);
                prop_assert!(c.resident_pages() <= capacity);
            }
        }

        #[test]
        fn metrics_account_for_all_pages(
            ops in prop::collection::vec((0u64..256, 1u64..32768), 1..200),
        ) {
            let mut c = small_cache(128);
            let f = c.register_file("acct");
            let mut hit = 0u64;
            let mut miss = 0u64;
            for (off, len) in ops {
                let out = c.access(f, off * 4096, len, AccessKind::Read);
                hit += out.pages_hit;
                miss += out.pages_missed;
                let span = crate::page::pages_touched(off * 4096, len, 4096);
                prop_assert_eq!(out.pages_hit + out.pages_missed, span);
            }
            prop_assert_eq!(c.metrics().hits, hit);
            prop_assert_eq!(c.metrics().misses, miss);
        }

        #[test]
        fn cost_is_positive_and_finite(
            off in 0u64..1_000_000, len in 0u64..1_000_000, write in prop::bool::ANY,
        ) {
            let mut c = small_cache(256);
            let f = c.register_file("cost");
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let out = c.access(f, off, len, kind);
            prop_assert!(out.cost_ms > 0.0);
            prop_assert!(out.cost_ms.is_finite());
        }
    }
}
