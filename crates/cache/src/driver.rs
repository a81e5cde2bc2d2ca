//! The operation-level cache driver.
//!
//! The paper explains its timing anomalies through four page-cache
//! behaviours: open stages "a page or two", a read, write or seek
//! "invokes a prefetch operation", a cold run pays one positioning
//! charge, close flushes dirty pages. How one such operation decomposes
//! into per-shard page steps plus readahead is decided here and nowhere
//! else. The driver is generic, by static dispatch, over a [`ShardSet`]
//! — the few questions whose answers differ between the cache's three
//! front-ends:
//!
//! | front-end | shards | lock | readahead detector | accumulators |
//! |---|---|---|---|---|
//! | solo ([`BufferCache`]) | one core | none | owned | one |
//! | striped ([`ShardedBufferCache`]) | all | per shard | shared, locked per question | one |
//! | owned subset ([`ShardView`]) | `s % threads == worker` | per shard | private replica | one per owned shard, no base cost |
//!
//! Everything else — block-run grouping, one [`RunCursor`] per touched
//! shard, promotion after the span, the readahead window routed by
//! block — is the same code for all three, which is why a one-shard
//! striped cache, a solo cache and the union of a cache's worker views
//! cannot disagree.
//!
//! [`BufferCache`]: crate::cache::BufferCache
//! [`ShardedBufferCache`]: crate::shard::ShardedBufferCache
//! [`ShardView`]: crate::shard::ShardView

use std::iter::StepBy;
use std::ops::Range;

use crate::cache::{AccessKind, AccessOutcome, CacheConfig, PageRun, RunCursor, ShardCore};
use crate::page::{page_span, FileId, PageId};
use crate::prefetch::Prefetcher;
use crate::shard::SHARD_BLOCK_PAGES;

/// Spans whose touched-shard bound is at most this keep their per-shard
/// run cursors on the stack.
const INLINE_RUNS: usize = 8;

/// What the driver asks of a front-end.
pub(crate) trait ShardSet {
    /// The aggregate configuration: page size, fixed costs and the
    /// readahead switch.
    fn config(&self) -> &CacheConfig;

    /// Takes the operation's fixed cost. A set that reports per-shard
    /// partial costs only (the merge adds the base) drops it.
    fn charge_base(&mut self, ms: f64);

    /// The shard owning `id`'s block, or `None` when the page belongs
    /// to a shard outside this set.
    fn owner(&self, id: PageId) -> Option<usize>;

    /// This set's shards, ascending.
    fn shards(&self) -> StepBy<Range<usize>>;

    /// Runs `step` on shard `s` (one of [`ShardSet::shards`]) against
    /// the accumulator its costs go to, under whatever exclusion the
    /// shard needs for exactly the duration of `step`.
    fn on_shard(&mut self, s: usize, step: impl FnOnce(&mut ShardCore, &mut AccessOutcome));

    /// Puts one question to the readahead detector.
    fn readahead<R>(&mut self, ask: impl FnOnce(&mut Prefetcher) -> R) -> R;
}

/// Splits the inclusive page range `first..=last` into its maximal
/// sub-ranges that stay inside one aligned shard block, in ascending
/// order. A block boundary is the only place the owning shard can
/// change, so each yielded `(start, end)` run belongs to one shard and
/// can be processed under one lock acquisition.
pub(crate) fn block_runs(first: u64, last: u64) -> impl Iterator<Item = (u64, u64)> {
    let mut next = Some(first).filter(|&f| f <= last);
    std::iter::from_fn(move || {
        let start = next?;
        let end = (start | (SHARD_BLOCK_PAGES - 1)).min(last);
        next = end.checked_add(1).filter(|&n| n <= last);
        Some((start, end))
    })
}

/// Reports an access to pages `first..=last` of `file` to the readahead
/// detector; returns the window it asks for.
fn observe<S: ShardSet>(set: &mut S, file: FileId, first: u64, last: u64) -> u64 {
    set.readahead(|detector| detector.on_access(file, first, last))
}

/// Open: fixed metadata cost, and the header page staged into its shard
/// without fault cost.
pub(crate) fn open<S: ShardSet>(set: &mut S, file: FileId) {
    set.charge_base(set.config().costs.open_base);
    let id = PageId { file, index: 0 };
    if let Some(s) = set.owner(id) {
        set.on_shard(s, |core, out| {
            core.stage_open_page(id, out);
        });
    }
}

/// Seek: file-pointer update. A seek is an access of zero pages at the
/// target: it perturbs the run detector without faulting anything.
pub(crate) fn seek<S: ShardSet>(set: &mut S, file: FileId, offset: u64) {
    set.charge_base(set.config().costs.seek_base);
    let index = offset / set.config().page_size;
    if index > 0 {
        observe(set, file, index, index - 1);
    }
}

/// Close: every shard, in ascending order, flushes and drops the file's
/// pages; the detector forgets the file's run.
pub(crate) fn close<S: ShardSet>(set: &mut S, file: FileId) {
    set.charge_base(set.config().costs.close_base);
    for s in set.shards() {
        set.on_shard(s, |core, out| core.evict_file_pages(file, out));
    }
    set.readahead(|detector| detector.forget(file));
}

/// Flush: every shard writes its dirty pages back, evicting nothing.
pub(crate) fn flush<S: ShardSet>(set: &mut S) {
    for s in set.shards() {
        set.on_shard(s, |core, out| core.flush_pages(out));
    }
}

/// A read or write of `len` bytes at `offset`: the spanned pages go to
/// their shards block by block, then the readahead window does.
///
/// With `per_page_touch` the policy is touched on every hit; without,
/// each touched shard promotes its part of the span once, after the
/// span. `spill` is cursor storage for spans that may touch more than
/// [`INLINE_RUNS`] shards: a caller that keeps one between operations
/// never allocates here, a caller without one allocates per such span.
// `#[inline]` lets each front-end's `access`/`access_run` pair share one
// instantiation with the set's methods folded in; without it the solo
// hit path measures ~3 % slower on `clio_e2e replay_hot`.
#[inline]
pub(crate) fn data_op<S: ShardSet>(
    set: &mut S,
    spill: Option<&mut Vec<(usize, RunCursor)>>,
    file: FileId,
    offset: u64,
    len: u64,
    kind: AccessKind,
    per_page_touch: bool,
) {
    let cfg = set.config();
    let (base, page_size) = (cfg.costs.op_base, cfg.page_size);
    let readahead = cfg.prefetch_enabled && cfg.capacity_pages > 0;
    set.charge_base(base);
    let (first, last) = page_span(offset, len, page_size);

    let blocks = last / SHARD_BLOCK_PAGES - first / SHARD_BLOCK_PAGES + 1;
    if blocks == 1 {
        // The common case (a span inside one aligned block, hence one
        // shard): no cursor table, one `on_shard` and one call into the
        // policy, promotion inside it. This is the path nearly every
        // web-server request takes.
        if let Some(s) = set.owner(PageId { file, index: first }) {
            let run = PageRun { file, first, last };
            set.on_shard(s, |core, out| core.demand_span(run, kind, per_page_touch, out));
        }
    } else {
        // Walk the span block by block, one `on_shard` each, then
        // promote only the shards touched. A span of B blocks touches
        // at most min(B, shards) of them, so the cursors — `(shard,
        // cursor)` in first-touch order — fit a small stack array
        // unless the span is long *and* the set wide.
        let bound = usize::try_from(blocks).unwrap_or(usize::MAX).min(set.shards().len());
        let mut inline = [(0usize, RunCursor::default()); INLINE_RUNS];
        let mut local = Vec::new();
        let runs: &mut [(usize, RunCursor)] = if bound <= INLINE_RUNS {
            &mut inline
        } else {
            let spill = spill.unwrap_or(&mut local);
            spill.clear();
            spill.resize(bound, (0, RunCursor::default()));
            spill
        };
        let mut touched = 0;
        for (first, last) in block_runs(first, last) {
            let Some(s) = set.owner(PageId { file, index: first }) else { continue };
            let at = match runs[..touched].iter().position(|&(shard, _)| shard == s) {
                Some(at) => at,
                None => {
                    runs[touched] = (s, RunCursor::default());
                    touched += 1;
                    touched - 1
                }
            };
            let (run, cursor) = (PageRun { file, first, last }, &mut runs[at].1);
            set.on_shard(s, |core, out| core.demand_run(run, kind, per_page_touch, cursor, out));
        }
        for &(s, cursor) in &runs[..touched] {
            if cursor.has_pending_promotion() {
                set.on_shard(s, |core, _| core.finish_run(cursor));
            }
        }
    }

    if readahead {
        let window = observe(set, file, first, last);
        // The window sits in one or two blocks: one `on_shard` (and one
        // call into the policy) each, not one per staged page.
        for (first, last) in block_runs(last + 1, last + window) {
            if let Some(s) = set.owner(PageId { file, index: first }) {
                set.on_shard(s, |core, out| core.readahead_run(PageRun { file, first, last }, out));
            }
        }
    }
}
