//! Trace replay engines.
//!
//! "Our simulator reads each trace file and performs the I/O operations
//! on a local disk. … Timing is taken for opening, closing, reading,
//! writing, seeking in a file to analyze the behavior of I/O
//! operations." — paper, Section 3.3.
//!
//! One driver per cost target, each streaming records from a
//! [`TraceSource`] — no in-memory [`TraceFile`] required:
//!
//! - [`replay_cached`] replays against a [`BufferCache`], taking the
//!   deterministic simulated latency from its cost model. This is the
//!   engine behind the regenerated Tables 1–4: page-cache hits,
//!   prefetch charges and dirty-flush closes reproduce the paper's
//!   anomalies exactly and repeatably.
//! - [`replay_sharded`] drives a [`ShardedBufferCache`] with a pool of
//!   workers, each holding the cache's [`ShardView`] of a disjoint set
//!   of shards — the multi-core engine, deterministic across runs *and*
//!   thread counts.
//! - [`replay_backend`] issues the records against an actual file
//!   through a [`FileBackend`] ([`open_real_backend`] opens the sample
//!   file), timing each operation with a monotonic clock — the
//!   honest-hardware mode.
//!
//! [`replay_cached_pipelined`] is [`replay_cached`] with the cache on a
//! thread of its own. It and [`replay_sharded`] share one chunk
//! pipeline: the calling thread owns the stream (a [`TraceSource`] need
//! not be `Send`), reads it, checks each record and hands the records
//! to the scoped threads in shared, read-only chunks of 1024, at most
//! three chunks ahead of the cache or two ahead of the workers (each
//! chunk in flight holds a worker's cost columns). A thread the host
//! cannot start is a [`TraceError::Io`]; a panic is re-raised.
//!
//! [`replay_parallel`] is not a fourth engine but the materialized
//! reference for [`replay_sharded`], over a borrowed [`TraceFile`]; the
//! equivalence layer pins the two bitwise-identical. No library code
//! calls it. It stays public because that layer lives in the
//! workspace's integration tests (`tests/experiment_api.rs`,
//! `tests/streaming_equivalence.rs`, `tests/suite_determinism.rs`),
//! which cannot see a `#[cfg(test)]` item.
//!
//! Every driver takes a [`ReportMode`] and returns one [`ReplayReport`].
//! What a replay *keeps* is decided there and nowhere else: *Full* keeps
//! the per-record [`OpTiming`] vector (O(N) report memory — the paper's
//! per-request tables need it), *Summary* only folds each record into
//! the running [`ReplayStats`] as it streams past (O(1) report memory —
//! the mode for traces larger than memory). Both modes feed the same
//! accumulators in the same order, so their summary numbers are
//! bit-identical.
//!
//! A record naming a file at or past the source's declared
//! `meta().num_files` ends the replay with
//! [`TraceError::FileIdOutOfRange`], a data record spanning more than
//! [`MAX_SPAN_BYTES`](crate::verify::MAX_SPAN_BYTES) with
//! [`TraceError::SpanTooLong`], and a record repeating more than
//! [`MAX_REPEATS`](crate::verify::MAX_REPEATS) times with
//! [`TraceError::TooManyRepeats`], before the cache sees it (admission
//! rules `V02`, `V10` and `V11` reject such records up front; the
//! drivers check again, in [`check_record`], because hand-built sources
//! can be replayed unverified).
//!
//! The cached drivers speak to the cache in its four operation verbs
//! (open, close, seek, read/write) and nothing finer: how an operation
//! becomes page steps on shards is `clio-cache`'s business alone. In
//! debug builds each of them ends on a conservation oracle computed
//! from the *records* — the pages the data records span must equal the
//! demand accesses the cache counted, and no shard may hold more than
//! its capacity share.
//!
//! The preferred front door to all of them is
//! `clio_exp::Experiment::builder()`.

use std::io;
use std::path::Path;
use std::time::Duration;

use clio_cache::backend::{FileBackend, RealFsBackend};
use clio_cache::cache::{AccessKind, BufferCache, CacheConfig};
use clio_cache::metrics::CacheMetrics;
use clio_cache::page::{pages_touched, FileId};
use clio_cache::shard::{ShardView, ShardedBufferCache};
use clio_stats::{Stopwatch, Summary};

use crate::error::TraceError;
use crate::pipeline::{fan_out, Feed, CHUNK, SERIAL_DEPTH, SHARDED_DEPTH};
use crate::reader::TraceFile;
use crate::record::{IoOp, TraceRecord};
use crate::source::TraceSource;
use crate::verify::{span_too_long, too_many_repeats};

/// How a replay engine reports its results.
///
/// The replayed work — cache state machine, cost model, hit/miss
/// accounting — is identical in both modes; the mode only selects what
/// the engine *keeps*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// Keep every per-record [`OpTiming`] (O(N) report memory). The
    /// per-request tables of the paper (Tables 3 and 4) need this.
    #[default]
    Full,
    /// Keep only the running [`ReplayStats`] aggregates (O(1) report
    /// memory in the trace length) — the mode for traces larger than
    /// memory. Summary numbers are bit-identical to Full mode's.
    Summary,
}

/// One replayed operation and its latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// The replayed record.
    pub record: TraceRecord,
    /// Measured or simulated latency, milliseconds (per single
    /// operation: for `num_records > 1` this is the mean over repeats).
    pub elapsed_ms: f64,
}

/// Running replay aggregates: per-op latency summaries, the total
/// replayed time and the record count — everything
/// [`ReportMode::Summary`] keeps, O(1) in the trace length.
///
/// Records are folded in replay order with [`ReplayStats::add`] as
/// they stream past, in both report modes, which is what makes the two
/// modes' summaries bit-identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayStats {
    records: u64,
    total_ms: f64,
    per_op: [Summary; 5],
}

impl ReplayStats {
    /// Folds one replayed record into the running aggregates.
    pub fn add(&mut self, record: &TraceRecord, elapsed_ms: f64) {
        self.records += 1;
        self.total_ms += elapsed_ms * record.num_records.max(1) as f64;
        self.per_op[record.op.code() as usize].add(elapsed_ms);
    }

    /// Number of records replayed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Latency summary (count/mean/min/max/variance) for one operation
    /// kind.
    pub fn summary(&self, op: IoOp) -> &Summary {
        &self.per_op[op.code() as usize]
    }

    /// Mean latency for one operation kind (ms); `None` if absent.
    pub fn mean_ms(&self, op: IoOp) -> Option<f64> {
        self.summary(op).mean()
    }

    /// Total replayed wall/simulated time, ms (repeat counts weighted).
    pub fn total_ms(&self) -> f64 {
        self.total_ms
    }
}

/// The result of replaying one trace: what the [`ReportMode`] asked to
/// keep, plus the cache counters the replay left behind.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Per-record timings, in replay order. Empty in
    /// [`ReportMode::Summary`].
    pub timings: Vec<OpTiming>,
    stats: ReplayStats,
    keep_timings: bool,
    /// Aggregate cache counters (merged over shards in shard order by
    /// the sharded engine; all zero for [`replay_backend`], which
    /// drives no cache).
    pub metrics: CacheMetrics,
    /// Per-shard cache counters ([`replay_sharded`] and
    /// [`replay_parallel`]; empty elsewhere).
    pub shard_metrics: Vec<CacheMetrics>,
    /// Worker threads actually used, after clamping (1 for the serial
    /// drivers).
    pub threads: usize,
}

impl ReplayReport {
    /// An empty report for a replay in `mode`; `capacity` pre-sizes the
    /// timings vector, which only [`ReportMode::Full`] allocates.
    fn new(mode: ReportMode, capacity: usize) -> Self {
        let keep_timings = mode == ReportMode::Full;
        Self {
            timings: Vec::with_capacity(if keep_timings { capacity } else { 0 }),
            stats: ReplayStats::default(),
            keep_timings,
            metrics: CacheMetrics::default(),
            shard_metrics: Vec::new(),
            threads: 1,
        }
    }

    /// Takes one replayed record, in replay order: always folded into
    /// the running aggregates, kept as an [`OpTiming`] only in Full
    /// mode.
    fn keep(&mut self, record: &TraceRecord, elapsed_ms: f64) {
        self.stats.add(record, elapsed_ms);
        if self.keep_timings {
            self.timings.push(OpTiming { record: *record, elapsed_ms });
        }
    }

    /// Fills in the counters a sharded replay over `threads` workers
    /// left in `cache`, and settles them against `ledger`.
    fn finish_sharded(
        mut self,
        cache: &ShardedBufferCache,
        threads: usize,
        ledger: &PageLedger,
    ) -> Self {
        self.shard_metrics = (0..cache.num_shards()).map(|s| cache.shard_metrics(s)).collect();
        for (s, m) in self.shard_metrics.iter().enumerate() {
            self.metrics.merge(m);
            let (resident, share) = cache.shard_occupancy(s);
            debug_assert!(resident <= share, "shard {s} holds {resident} pages of {share}");
        }
        ledger.settle(&self.metrics);
        self.threads = threads;
        self
    }

    /// The running aggregates — the same object in both report modes.
    pub fn stats(&self) -> &ReplayStats {
        &self.stats
    }

    /// Latency summary for one operation kind.
    pub fn summary(&self, op: IoOp) -> &Summary {
        self.stats.summary(op)
    }

    /// Mean latency for one operation kind (ms); `None` if absent.
    pub fn mean_ms(&self, op: IoOp) -> Option<f64> {
        self.stats.mean_ms(op)
    }

    /// The data-operation timings (reads/writes/seeks), as
    /// `(request_index, data_size, elapsed_ms)` rows — the layout of the
    /// paper's Tables 3 and 4.
    pub fn request_rows(&self) -> Vec<(usize, u64, IoOp, f64)> {
        self.timings
            .iter()
            .filter(|t| matches!(t.record.op, IoOp::Read | IoOp::Write | IoOp::Seek))
            .enumerate()
            .map(|(i, t)| {
                let size =
                    if t.record.op == IoOp::Seek { t.record.offset } else { t.record.length };
                (i + 1, size, t.record.op, t.elapsed_ms)
            })
            .collect()
    }

    /// Total replayed wall/simulated time, ms.
    pub fn total_ms(&self) -> f64 {
        self.stats.total_ms()
    }
}

/// The checks every replay engine makes on a record before acting on
/// it, verified or not, and the one way an engine turns a record into
/// a cache file: it names a file inside the source's declared roster,
/// it spans no more than the verifier's `V10` bound (the cache walks a
/// span page by page, so one giant record would hang the replay), and
/// it repeats no more than the `V11` bound (each repeat is replayed, so
/// a huge count hangs it just the same, whatever the length). `index`
/// is the record's 0-based position in the stream.
///
/// A checked record's file is `FileId(r.file_id)`, the id a fresh
/// cache would give it had the roster been registered in order. The
/// roster bounds the ids and sizes nothing.
pub fn check_record(num_files: u32, index: u64, r: &TraceRecord) -> Result<FileId, TraceError> {
    if r.file_id >= num_files {
        return Err(TraceError::FileIdOutOfRange { index, file_id: r.file_id, num_files });
    }
    if span_too_long(r) {
        return Err(TraceError::SpanTooLong {
            index,
            length: r.length,
            num_records: r.num_records,
        });
    }
    if too_many_repeats(r) {
        return Err(TraceError::TooManyRepeats { index, num_records: r.num_records });
    }
    Ok(FileId(r.file_id))
}

/// The conservation oracle of the cached drivers (debug builds only):
/// the page accesses the *records* imply, counted on the calling
/// thread as they stream past and never read back from the cache.
#[derive(Default)]
struct PageLedger {
    pages: u64,
}

impl PageLedger {
    fn count(&mut self, r: &TraceRecord, page_size: u64) {
        if cfg!(debug_assertions) && matches!(r.op, IoOp::Read | IoOp::Write) {
            self.pages +=
                pages_touched(r.offset, r.length, page_size) * u64::from(r.num_records.max(1));
        }
    }

    /// Every spanned page was one hit or one miss, and no readahead
    /// page was claimed twice.
    fn settle(&self, metrics: &CacheMetrics) {
        debug_assert_eq!(metrics.accesses(), self.pages, "demand accesses != pages spanned");
        debug_assert!(metrics.prefetch_hits <= metrics.prefetched, "{metrics:?}");
    }
}

/// Replays a streaming record source against a buffer cache;
/// deterministic. Records are consumed one at a time, so the source
/// never needs to exist as a whole in memory — an iterator-backed or
/// synthesized stream replays exactly like a loaded [`TraceFile`].
pub fn replay_cached<S: TraceSource + ?Sized>(
    source: &mut S,
    config: CacheConfig,
    mode: ReportMode,
) -> Result<ReplayReport, TraceError> {
    let num_files = source.meta().num_files;
    let mut cache = BufferCache::new(config);
    let mut report = ReplayReport::new(mode, source.size_hint().0);
    let mut ledger = PageLedger::default();

    while let Some(r) = source.next_record() {
        let fid = check_record(num_files, report.stats.records, &r)?;
        ledger.count(&r, cache.config().page_size);
        let repeats = r.num_records.max(1);
        let mut total = 0.0;
        for _ in 0..repeats {
            // `access_run` promotes each data operation's page span as
            // one unit in the replacement policy — same hit/miss/cost
            // accounting as `access`, far fewer policy updates on the
            // sequential scans that dominate the paper's traces.
            let outcome = match r.op {
                IoOp::Open => cache.open(fid),
                IoOp::Close => cache.close(fid),
                IoOp::Read => cache.access_run(fid, r.offset, r.length, AccessKind::Read),
                IoOp::Write => cache.access_run(fid, r.offset, r.length, AccessKind::Write),
                IoOp::Seek => cache.seek(fid, r.offset),
            };
            total += outcome.cost_ms;
        }
        report.keep(&r, total / repeats as f64);
    }
    report.metrics = cache.metrics();
    ledger.settle(&report.metrics);
    debug_assert!(cache.resident_pages() <= cache.config().capacity_pages);
    Ok(report)
}

/// [`replay_cached`], bit for bit, with the cache on a thread of its own
/// that the calling thread feeds (see the [module docs](self)). A replay
/// that ends early, or on a record the checks reject, stops the reading
/// there; the source is the caller's to ask, afterwards, why it ended
/// ([`TraceSource::take_failure`]).
pub fn replay_cached_pipelined<S: TraceSource + ?Sized>(
    source: &mut S,
    config: CacheConfig,
    mode: ReportMode,
) -> Result<ReplayReport, TraceError> {
    let (meta, hint) = (source.meta(), source.size_hint());
    let replay = |_, feed: Feed<()>| {
        replay_cached(&mut feed.into_source(meta.clone(), hint), config.clone(), mode)
    };
    fan_out(source, (1, SERIAL_DEPTH), &replay, |_, _| {})?
}

/// The most worker threads [`ParallelReplayOptions::validate`] accepts.
/// Parallel replay starts `min(threads, shards)` OS threads, so the knob
/// is bounded where it is set rather than by what the host will spawn.
pub const MAX_THREADS: usize = 256;

/// The most shards [`ParallelReplayOptions::validate`] accepts. Each
/// shard is a cache core of its own, and parallel replay keeps a cost
/// column per shard for every record in flight.
pub const MAX_SHARDS: usize = 1024;

/// Options for the parallel simulated replay engine.
#[derive(Debug, Clone, Copy)]
pub struct ParallelReplayOptions {
    /// Worker threads (clamped to `1..=shards`; each worker owns the
    /// shards `s` with `s % threads == worker`).
    pub threads: usize,
    /// Shard count of the [`ShardedBufferCache`] driven by the replay.
    pub shards: usize,
}

impl ParallelReplayOptions {
    /// Checks the counts against their caps: `shards` in
    /// `1..=`[`MAX_SHARDS`], `threads` at most [`MAX_THREADS`] (zero
    /// is clamped to one). The error names the field.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shard count must be at least 1".into());
        }
        if self.shards > MAX_SHARDS {
            return Err(format!("shards: {} is over the cap of {MAX_SHARDS}", self.shards));
        }
        if self.threads > MAX_THREADS {
            return Err(format!("threads: {} is over the cap of {MAX_THREADS}", self.threads));
        }
        Ok(())
    }
}

/// Replays one record through a worker's view — the same four verbs
/// [`replay_cached`] speaks — reporting each owned shard's partial cost
/// of every repeat through `add(k, cost_ms)`, `k` counting the view's
/// owned shards in ascending order. One function for the materialized
/// ([`replay_parallel`]) and streamed ([`replay_sharded`]) engines, so
/// the two cannot drift.
fn replay_on_view(
    view: &mut ShardView<'_>,
    fid: FileId,
    r: &TraceRecord,
    mut add: impl FnMut(usize, f64),
) {
    for _ in 0..r.num_records.max(1) {
        let partials = match r.op {
            IoOp::Open => view.open(fid),
            IoOp::Close => view.close(fid),
            IoOp::Read => view.access_run(fid, r.offset, r.length, AccessKind::Read),
            IoOp::Write => view.access_run(fid, r.offset, r.length, AccessKind::Write),
            IoOp::Seek => view.seek(fid, r.offset),
        };
        for (k, partial) in partials.iter().enumerate() {
            add(k, partial.cost_ms);
        }
    }
}

/// The fixed per-operation base cost the merge step adds on top of the
/// shard partial costs.
fn base_cost(config: &CacheConfig, op: IoOp) -> f64 {
    match op {
        IoOp::Open => config.costs.open_base,
        IoOp::Close => config.costs.close_base,
        IoOp::Read | IoOp::Write => config.costs.op_base,
        IoOp::Seek => config.costs.seek_base,
    }
}

/// Replays against a sharded cache with a pool of worker threads, from
/// a borrowed, materialized trace — the reference implementation the
/// streamed engine ([`replay_sharded`]) is pinned bitwise-identical
/// against. Always [`ReportMode::Full`].
///
/// Every worker scans the whole trace but performs cache work only for
/// the shards it owns, through the cache's [`ShardView`] for that
/// worker — the same operation driver the serial sharded path runs,
/// with the [`BufferCache::access_run`] promotion semantics. Readahead
/// decisions depend only on the access sequence, so each view consults
/// a private detector replica instead of contending on the shared one.
///
/// **Determinism.** A shard's event stream — and therefore its
/// hit/miss/eviction counters and its per-record cost vector — is a
/// pure function of the trace, never of scheduling. Costs are merged
/// per record in shard order, so the returned report and metrics are
/// bit-identical across runs *and* across thread counts; with one
/// shard they match [`replay_cached`]'s hit/miss accounting
/// access-for-access.
///
/// `trace` must pass [`TraceFile::validate`] (checked before any
/// worker starts) and every record [`check_record`] (a hand-assembled
/// one may not): every worker meets the first record it rejects and
/// stops there, and that violation is returned.
pub fn replay_parallel(
    trace: &TraceFile,
    config: CacheConfig,
    options: &ParallelReplayOptions,
) -> Result<ReplayReport, TraceError> {
    trace.validate()?;
    let num_files = trace.header.num_files;
    let cache = ShardedBufferCache::new(config.clone(), options.shards);
    let num_shards = cache.num_shards();
    let threads = options.threads.clamp(1, num_shards);
    let records = &trace.records;

    // costs[s][i]: simulated per-page/per-run cost record i incurred on
    // shard s (summed over repeats); filled by the worker owning s.
    let mut costs: Vec<Option<Vec<f64>>> = (0..num_shards).map(|_| None).collect();
    // A worker's panic is re-raised, with its own payload, at its join.
    let worker_results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let cache = &cache;
                scope.spawn(move || {
                    let mut view = cache.worker_view(w, threads);
                    let mut costs: Vec<Vec<f64>> =
                        view.owned_shards().map(|_| vec![0.0; records.len()]).collect();
                    for (i, r) in records.iter().enumerate() {
                        let fid = check_record(num_files, i as u64, r)?;
                        replay_on_view(&mut view, fid, r, |k, c| costs[k][i] += c);
                    }
                    Ok(view.owned_shards().zip(costs).collect::<Vec<_>>())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect::<Result<Vec<_>, TraceError>>()
    })?;
    for per_worker in worker_results {
        for (shard, vec) in per_worker {
            costs[shard] = Some(vec);
        }
    }

    // Deterministic merge: per record, the fixed per-op cost plus the
    // shard partial costs in shard order.
    let mut report = ReplayReport::new(ReportMode::Full, records.len());
    let mut ledger = PageLedger::default();
    for (i, r) in records.iter().enumerate() {
        ledger.count(r, config.page_size);
        let repeats = r.num_records.max(1) as f64;
        let mut total = base_cost(&config, r.op) * repeats;
        for shard_costs in costs.iter().flatten() {
            total += shard_costs[i];
        }
        report.keep(r, total / repeats);
    }
    Ok(report.finish_sharded(&cache, threads, &ledger))
}

/// Replays a streaming record source against a sharded cache with a
/// pool of worker threads — no materialized [`TraceFile`] exists
/// anywhere in the engine.
///
/// Through the chunk pipeline (see the [module docs](self)), every
/// worker gets every chunk of checked records, replays it on its
/// [`ShardView`] and returns the chunk's per-record cost on each
/// shard it owns. The calling thread reads the next chunk while the
/// workers replay this one, then merges this one's costs per record in
/// ascending shard order — the same order as [`replay_parallel`]'s
/// merge, which is what keeps the two engines and every thread count
/// bitwise-identical — and keeps each record in stream order. Chunks
/// and cost columns are recycled, so a warm replay allocates nothing
/// per chunk.
///
/// A record [`check_record`] rejects ends the replay with that error
/// before any worker sees it. The source is the caller's to ask,
/// afterwards, why it ended ([`TraceSource::take_failure`]).
pub fn replay_sharded<S: TraceSource + ?Sized>(
    source: &mut S,
    config: CacheConfig,
    options: &ParallelReplayOptions,
    mode: ReportMode,
) -> Result<ReplayReport, TraceError> {
    let cache = ShardedBufferCache::new(config.clone(), options.shards);
    let num_shards = cache.num_shards();
    let threads = options.threads.clamp(1, num_shards);
    let mut report = ReplayReport::new(mode, source.size_hint().0);
    let mut ledger = PageLedger::default();
    let worker = |w, mut feed: Feed<Vec<Vec<f64>>>| {
        let mut view = cache.worker_view(w, threads);
        let owned = view.owned_shards().len();
        while let Some((chunk, columns)) = feed.next_chunk() {
            columns.resize_with(owned, || Vec::with_capacity(CHUNK));
            for column in columns.iter_mut() {
                column.clear();
                column.resize(chunk.len(), 0.0);
            }
            for (i, r) in chunk.iter().enumerate() {
                // The calling thread checked the record.
                replay_on_view(&mut view, FileId(r.file_id), r, |k, c| columns[k][i] += c);
            }
        }
    };
    // Per record: the fixed per-op cost, then the shard partials in shard order.
    let merge = |chunk: &[TraceRecord], columns: &[Vec<Vec<f64>>]| {
        for (i, r) in chunk.iter().enumerate() {
            ledger.count(r, config.page_size);
            let repeats = r.num_records.max(1) as f64;
            let mut total = base_cost(&config, r.op) * repeats;
            for s in 0..num_shards {
                total += columns[s % threads][s / threads][i];
            }
            report.keep(r, total / repeats);
        }
    };
    fan_out(source, (threads, SHARDED_DEPTH), &worker, merge)?;
    Ok(report.finish_sharded(&cache, threads, &ledger))
}

/// Options for real-file replay.
#[derive(Debug, Clone, Copy)]
pub struct RealReplayOptions {
    /// Permit `Write` records to modify the sample file. When `false`,
    /// writes are timed as reads of the same extent (non-destructive).
    pub allow_writes: bool,
    /// Largest single transfer; larger requests are chunked.
    pub max_chunk: usize,
    /// Extra attempts per backend operation after a transient failure
    /// (default 0: any error aborts the replay, the historical
    /// behavior).
    pub retries: u32,
    /// Sleep between a failed attempt and its retry, doubled per
    /// attempt (default zero: retry immediately). Retry time is wall
    /// time and lands in the failing operation's measured latency, as
    /// it would on real degraded hardware.
    pub retry_backoff: Duration,
}

impl Default for RealReplayOptions {
    fn default() -> Self {
        Self {
            allow_writes: false,
            max_chunk: 16 * 1024 * 1024,
            retries: 0,
            retry_backoff: Duration::ZERO,
        }
    }
}

/// Runs `op`, retrying transient failures up to `options.retries`
/// extra attempts with exponential back-off — the bounded-retry path
/// that keeps a replay alive across a flaky backend instead of
/// aborting at the first `EINTR`-style hiccup.
fn with_retry<T>(
    options: &RealReplayOptions,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut backoff = options.retry_backoff;
    for _ in 0..options.retries {
        match op() {
            Ok(v) => return Ok(v),
            Err(_) => {
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
            }
        }
    }
    op()
}

/// Opens the sample file for a real replay: writable only when
/// `options.allow_writes` asks for destructive writes.
pub fn open_real_backend(
    sample_path: impl AsRef<Path>,
    options: RealReplayOptions,
) -> io::Result<RealFsBackend> {
    if options.allow_writes {
        RealFsBackend::open(sample_path)
    } else {
        RealFsBackend::open_readonly(sample_path)
    }
}

/// Replays a streaming source against `backend` — a real file (see
/// [`open_real_backend`]) or, in tests, an in-memory one — timing every
/// operation with a monotonic clock. The workload is never
/// materialized.
pub fn replay_backend<S: TraceSource + ?Sized>(
    source: &mut S,
    backend: &mut dyn FileBackend,
    options: RealReplayOptions,
    mode: ReportMode,
) -> Result<ReplayReport, TraceError> {
    let num_files = source.meta().num_files;
    let chunk = options.max_chunk.max(1);
    let mut buf = vec![0u8; chunk.min(1 << 20)];
    let mut report = ReplayReport::new(mode, source.size_hint().0);

    while let Some(r) = source.next_record() {
        check_record(num_files, report.stats.records, &r)?;
        let repeats = r.num_records.max(1);
        let mut total_ms = 0.0;
        for _ in 0..repeats {
            let sw = Stopwatch::started();
            match r.op {
                IoOp::Open | IoOp::Close | IoOp::Seek => {
                    // The single shared backend stands for the sample
                    // file, so open/close cost on real hardware is the
                    // metadata round trip; and "seek operations are
                    // performed from the beginning of the file to the
                    // offset", which a positioned backend realizes as
                    // the same bounds probe.
                    with_retry(&options, || backend.len())?;
                }
                IoOp::Read => {
                    let mut remaining = r.length as usize;
                    let mut off = r.offset;
                    while remaining > 0 {
                        let n = remaining.min(buf.len());
                        let got = with_retry(&options, || backend.read_at(off, &mut buf[..n]))?;
                        if got == 0 {
                            break; // past EOF: paper traces clamp at 1 GB
                        }
                        off += got as u64;
                        remaining -= got;
                    }
                }
                IoOp::Write => {
                    if options.allow_writes {
                        let mut remaining = r.length as usize;
                        let mut off = r.offset;
                        while remaining > 0 {
                            let n = remaining.min(buf.len());
                            with_retry(&options, || backend.write_at(off, &buf[..n]))?;
                            off += n as u64;
                            remaining -= n;
                        }
                    } else {
                        let n = (r.length as usize).min(buf.len());
                        with_retry(&options, || backend.read_at(r.offset, &mut buf[..n]))?;
                    }
                }
            }
            total_ms += sw.elapsed_ms();
        }
        report.keep(&r, total_ms / repeats as f64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{IterSource, SliceSource, SourceMeta};
    use clio_cache::backend::{FaultyBackend, FlakyBackend, MemBackend};

    /// Full-mode cached replay of a materialized trace.
    fn replay(trace: &TraceFile, config: CacheConfig) -> ReplayReport {
        replay_cached(&mut SliceSource::new(trace), config, ReportMode::Full).unwrap()
    }

    /// Full-mode backend replay of a materialized trace.
    fn replay_on(
        trace: &TraceFile,
        backend: &mut dyn FileBackend,
        options: RealReplayOptions,
    ) -> Result<ReplayReport, TraceError> {
        replay_backend(&mut SliceSource::new(trace), backend, options, ReportMode::Full)
    }

    fn simple_trace() -> TraceFile {
        TraceFile::build(
            "s.dat",
            1,
            vec![
                TraceRecord::simple(IoOp::Open, 0, 0, 0),
                TraceRecord::simple(IoOp::Read, 0, 0, 8192),
                TraceRecord::simple(IoOp::Read, 0, 0, 8192),
                TraceRecord::simple(IoOp::Seek, 0, 1_000_000, 0),
                TraceRecord::simple(IoOp::Write, 0, 1_000_000, 4096),
                TraceRecord::simple(IoOp::Close, 0, 0, 0),
            ],
        )
        .unwrap()
    }

    /// A longer mixed trace that actually exercises eviction.
    fn mixed_trace(n: u64) -> TraceFile {
        let mut recs = Vec::new();
        recs.push(TraceRecord::simple(IoOp::Open, 0, 0, 0));
        for i in 0..n {
            let off = (i * 13) % 97 * 4096;
            let op = if i % 4 == 0 { IoOp::Write } else { IoOp::Read };
            recs.push(TraceRecord::simple(op, 0, off, 4096 * (1 + i % 9)));
        }
        recs.push(TraceRecord::simple(IoOp::Close, 0, 0, 0));
        TraceFile::build("p.dat", 1, recs).unwrap()
    }

    #[test]
    fn simulated_replay_second_read_is_warm() {
        let report = replay(&simple_trace(), CacheConfig::default());
        let reads: Vec<f64> = report
            .timings
            .iter()
            .filter(|t| t.record.op == IoOp::Read)
            .map(|t| t.elapsed_ms)
            .collect();
        assert_eq!(reads.len(), 2);
        assert!(reads[1] < reads[0] / 10.0, "warm read {} vs cold {}", reads[1], reads[0]);
    }

    #[test]
    fn simulated_close_slower_than_open() {
        let report = replay(&simple_trace(), CacheConfig::default());
        let open = report.mean_ms(IoOp::Open).unwrap();
        let close = report.mean_ms(IoOp::Close).unwrap();
        assert!(close > open, "close {close} vs open {open} (paper's universal observation)");
    }

    #[test]
    fn simulated_replay_is_deterministic() {
        let a = replay(&simple_trace(), CacheConfig::default());
        let b = replay(&simple_trace(), CacheConfig::default());
        let ta: Vec<f64> = a.timings.iter().map(|t| t.elapsed_ms).collect();
        let tb: Vec<f64> = b.timings.iter().map(|t| t.elapsed_ms).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn summary_mode_matches_full_mode_bit_for_bit() {
        let trace = mixed_trace(400);
        let config = CacheConfig { capacity_pages: 64, ..Default::default() };
        let full = replay(&trace, config.clone());
        let summary =
            replay_cached(&mut SliceSource::new(&trace), config, ReportMode::Summary).unwrap();
        assert!(summary.timings.is_empty(), "summary mode keeps no timings");
        let stats = summary.stats();
        assert_eq!(stats, full.stats(), "summary-mode stats diverged from full-mode stats");
        assert_eq!(stats.records() as usize, full.timings.len());
        assert_eq!(stats.total_ms(), full.total_ms());
        assert_eq!(summary.metrics, full.metrics);
    }

    #[test]
    fn request_rows_match_paper_table_shape() {
        let report = replay(&simple_trace(), CacheConfig::default());
        let rows = report.request_rows();
        // 2 reads + 1 seek + 1 write.
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, 1, "request numbers are 1-based");
        // Seek rows report the seek distance as "data size" (Table 3).
        let seek_row = rows.iter().find(|r| r.2 == IoOp::Seek).unwrap();
        assert_eq!(seek_row.1, 1_000_000);
    }

    #[test]
    fn repeats_average() {
        let mut rec = TraceRecord::simple(IoOp::Read, 0, 0, 4096);
        rec.num_records = 5;
        let t = TraceFile::build("s.dat", 1, vec![rec]).unwrap();
        let report = replay(&t, CacheConfig::default());
        // First of the 5 faults, the rest hit: mean is between.
        let mean = report.timings[0].elapsed_ms;
        assert!(mean > 0.0);
        let total = report.total_ms();
        assert!((total - mean * 5.0).abs() < 1e-12);
    }

    #[test]
    fn real_replay_against_mem_backend() {
        let mut backend = MemBackend::with_data(vec![7u8; 2_000_000]);
        let report =
            replay_on(&simple_trace(), &mut backend, RealReplayOptions::default()).unwrap();
        assert_eq!(report.timings.len(), 6);
        assert!(report.timings.iter().all(|t| t.elapsed_ms >= 0.0));
        assert!(report.mean_ms(IoOp::Read).is_some());
    }

    #[test]
    fn real_replay_summary_mode_reports_every_op() {
        let trace = simple_trace();
        let mut backend = MemBackend::with_data(vec![7u8; 2_000_000]);
        let summary = replay_backend(
            &mut SliceSource::new(&trace),
            &mut backend,
            RealReplayOptions::default(),
            ReportMode::Summary,
        )
        .unwrap();
        assert!(summary.timings.is_empty(), "summary mode keeps no timings");
        let stats = summary.stats();
        assert_eq!(stats.records() as usize, trace.len());
        assert!(stats.mean_ms(IoOp::Read).is_some());
        assert!(stats.total_ms() >= 0.0);
    }

    #[test]
    fn real_replay_readonly_does_not_write() {
        let mut backend = MemBackend::with_data(vec![7u8; 2_000_000]);
        let before = backend.data().to_vec();
        replay_on(&simple_trace(), &mut backend, RealReplayOptions::default()).unwrap();
        assert_eq!(backend.data(), &before[..], "read-only replay must not mutate");
    }

    #[test]
    fn real_replay_with_writes_mutates() {
        // Write-only trace: the (zero-initialized) transfer buffer lands
        // on a region initialized to 7s.
        let t = TraceFile::build(
            "s.dat",
            1,
            vec![TraceRecord::simple(IoOp::Write, 0, 1_000_000, 4096)],
        )
        .unwrap();
        let mut backend = MemBackend::with_data(vec![7u8; 2_000_000]);
        let opts = RealReplayOptions { allow_writes: true, ..Default::default() };
        replay_on(&t, &mut backend, opts).unwrap();
        assert_eq!(backend.data()[1_000_000], 0u8, "write landed");
    }

    #[test]
    fn real_replay_propagates_backend_failure() {
        let mut backend = FaultyBackend::new(MemBackend::with_data(vec![0u8; 1024]), 1);
        let err = replay_on(&simple_trace(), &mut backend, RealReplayOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn parallel_replay_single_shard_matches_serial_counts() {
        // One shard, one worker: the cache state machine is exactly the
        // serial engine's, so per-record timings agree too.
        let trace = simple_trace();
        let serial = replay(&trace, CacheConfig::default());
        let opts = ParallelReplayOptions { threads: 1, shards: 1 };
        let par = replay_parallel(&trace, CacheConfig::default(), &opts).unwrap();
        assert_eq!(par.timings.len(), serial.timings.len());
        for (a, b) in serial.timings.iter().zip(&par.timings) {
            assert_eq!(a.record, b.record);
            assert!(
                (a.elapsed_ms - b.elapsed_ms).abs() < 1e-12,
                "cost diverged: {} vs {}",
                a.elapsed_ms,
                b.elapsed_ms
            );
        }
    }

    #[test]
    fn parallel_replay_identical_across_thread_counts() {
        let trace = mixed_trace(400);
        let config = CacheConfig { capacity_pages: 64, ..Default::default() };

        let base = replay_parallel(
            &trace,
            config.clone(),
            &ParallelReplayOptions { threads: 1, shards: 8 },
        )
        .unwrap();
        for threads in [2usize, 3, 5, 8] {
            let r = replay_parallel(
                &trace,
                config.clone(),
                &ParallelReplayOptions { threads, shards: 8 },
            )
            .unwrap();
            assert_eq!(r.metrics, base.metrics, "{threads} threads");
            assert_eq!(r.shard_metrics, base.shard_metrics, "{threads} threads");
            let ta: Vec<f64> = base.timings.iter().map(|t| t.elapsed_ms).collect();
            let tb: Vec<f64> = r.timings.iter().map(|t| t.elapsed_ms).collect();
            assert_eq!(ta, tb, "bitwise-identical timings at {threads} threads");
        }
        assert!(base.metrics.accesses() > 0);
    }

    #[test]
    fn per_worker_streams_match_materialized_parallel_replay() {
        // The streamed engine hands its one stream to the workers in
        // chunks; its merged timings and metrics must be
        // bitwise-identical to the materialized engine's, at every thread
        // count — including stream lengths that are not a multiple of
        // the chunk.
        let trace = mixed_trace(CHUNK as u64 + 137);
        let config = CacheConfig { capacity_pages: 64, ..Default::default() };
        let reference = replay_parallel(
            &trace,
            config.clone(),
            &ParallelReplayOptions { threads: 2, shards: 8 },
        )
        .unwrap();
        for threads in [1usize, 2, 3, 8] {
            let opts = ParallelReplayOptions { threads, shards: 8 };
            let streamed = replay_sharded(
                &mut SliceSource::new(&trace),
                config.clone(),
                &opts,
                ReportMode::Full,
            )
            .unwrap();
            assert_eq!(streamed.timings, reference.timings, "{threads} threads");
            assert_eq!(streamed.metrics, reference.metrics, "{threads} threads");
            assert_eq!(streamed.shard_metrics, reference.shard_metrics, "{threads} threads");
        }
    }

    #[test]
    fn parallel_summary_mode_matches_full_mode_bit_for_bit() {
        let trace = mixed_trace(600);
        let config = CacheConfig { capacity_pages: 64, ..Default::default() };
        let opts = ParallelReplayOptions { threads: 3, shards: 8 };
        let full =
            replay_sharded(&mut SliceSource::new(&trace), config.clone(), &opts, ReportMode::Full)
                .unwrap();
        let summary =
            replay_sharded(&mut SliceSource::new(&trace), config, &opts, ReportMode::Summary)
                .unwrap();
        assert!(summary.timings.is_empty(), "summary mode keeps no timings");
        assert_eq!(summary.stats(), full.stats());
        assert_eq!(summary.metrics, full.metrics);
        assert_eq!(summary.shard_metrics, full.shard_metrics);
        assert_eq!(summary.threads, full.threads);
    }

    #[test]
    fn parallel_replay_clamps_threads_to_shards() {
        let trace = simple_trace();
        let par = replay_parallel(
            &trace,
            CacheConfig::default(),
            &ParallelReplayOptions { threads: 64, shards: 4 },
        )
        .unwrap();
        assert_eq!(par.threads, 4);
        assert_eq!(par.shard_metrics.len(), 4);
    }

    #[test]
    fn read_past_eof_clamps() {
        let mut backend = MemBackend::with_data(vec![0u8; 100]);
        let t =
            TraceFile::build("s.dat", 1, vec![TraceRecord::simple(IoOp::Read, 0, 50, 1_000_000)])
                .unwrap();
        let report = replay_on(&t, &mut backend, RealReplayOptions::default()).unwrap();
        assert_eq!(report.timings.len(), 1);
    }

    #[test]
    fn bounded_retry_rides_through_transient_faults() {
        // Every 3rd backend op fails once; a single retry per op keeps
        // the whole replay alive and the result complete.
        let trace = simple_trace();
        let mut backend = FlakyBackend::new(MemBackend::with_data(vec![0u8; 2 << 20]), 3);
        let options = RealReplayOptions { retries: 1, ..Default::default() };
        let report = replay_on(&trace, &mut backend, options).unwrap();
        assert_eq!(report.timings.len(), trace.len());
        assert!(backend.faults() > 0, "the fault schedule really fired");
    }

    #[test]
    fn zero_retries_abort_at_the_first_transient_fault() {
        // The historical default: no retry budget, so the same flaky
        // backend kills the replay.
        let trace = simple_trace();
        let mut backend = FlakyBackend::new(MemBackend::with_data(vec![0u8; 2 << 20]), 3);
        let err = replay_on(&trace, &mut backend, RealReplayOptions::default()).unwrap_err();
        assert!(
            matches!(&err, TraceError::Io(e) if e.kind() == io::ErrorKind::Interrupted),
            "{err:?}"
        );
    }

    #[test]
    fn retries_cannot_save_a_permanently_dead_backend() {
        // Bounded means bounded: a backend that fails every attempt
        // still surfaces its error instead of looping forever.
        let trace = simple_trace();
        let mut backend = FaultyBackend::new(MemBackend::with_data(vec![0u8; 2 << 20]), 0);
        let options = RealReplayOptions { retries: 3, ..Default::default() };
        assert!(replay_on(&trace, &mut backend, options).is_err());
    }

    /// A hand-built source whose third record (index 2) names file 7
    /// of a one-file roster — what admission rule `V02` would reject,
    /// here replayed unverified.
    fn out_of_roster() -> Box<dyn TraceSource> {
        let records = vec![
            TraceRecord::simple(IoOp::Open, 0, 0, 0),
            TraceRecord::simple(IoOp::Read, 0, 0, 4096),
            TraceRecord::simple(IoOp::Read, 7, 0, 4096),
            TraceRecord::simple(IoOp::Close, 0, 0, 0),
        ];
        let meta = SourceMeta { sample_file: "s.dat".into(), num_processes: 1, num_files: 1 };
        Box::new(IterSource::new(meta, records.into_iter()))
    }

    fn assert_roster_error(result: Result<ReplayReport, TraceError>) {
        match result {
            Err(TraceError::FileIdOutOfRange { index: 2, file_id: 7, num_files: 1 }) => {}
            other => panic!("expected the roster violation at record 2, got {other:?}"),
        }
    }

    #[test]
    fn cached_replay_rejects_an_out_of_roster_file_id() {
        for mode in [ReportMode::Full, ReportMode::Summary] {
            assert_roster_error(replay_cached(&mut *out_of_roster(), CacheConfig::default(), mode));
        }
    }

    #[test]
    fn sharded_replay_rejects_an_out_of_roster_file_id() {
        // The calling thread rejects the bad record before any worker
        // sees it, and the scope still joins — also when the record
        // comes chunks in, with the workers replaying the chunks before.
        for threads in [1usize, 3] {
            let opts = ParallelReplayOptions { threads, shards: 4 };
            let source = &mut *out_of_roster();
            let config = CacheConfig::default();
            assert_roster_error(replay_sharded(source, config, &opts, ReportMode::Summary));

            let index = 2 * CHUNK as u64 + 3;
            let records = (0..3 * CHUNK as u64).map(|i| {
                let file_id = if i == index { 7 } else { 0 };
                TraceRecord::simple(IoOp::Read, file_id, i % 64 * 4096, 4096)
            });
            let meta = SourceMeta { sample_file: "s.dat".into(), num_processes: 1, num_files: 1 };
            let source = &mut IterSource::new(meta, records);
            match replay_sharded(source, CacheConfig::default(), &opts, ReportMode::Summary) {
                Err(TraceError::FileIdOutOfRange { index: at, file_id: 7, .. }) => {
                    assert_eq!(at, index)
                }
                other => panic!("{threads} threads: got {other:?}"),
            }
        }
    }

    #[test]
    fn backend_replay_rejects_an_out_of_roster_file_id() {
        let mut backend = MemBackend::with_data(vec![0u8; 8192]);
        assert_roster_error(replay_backend(
            &mut *out_of_roster(),
            &mut backend,
            RealReplayOptions::default(),
            ReportMode::Full,
        ));
    }

    #[test]
    fn reference_replay_rejects_an_invalid_hand_assembled_trace() {
        let mut trace = simple_trace();
        trace.records[2].file_id = 7;
        let opts = ParallelReplayOptions { threads: 2, shards: 4 };
        assert_roster_error(replay_parallel(&trace, CacheConfig::default(), &opts));
    }
}
