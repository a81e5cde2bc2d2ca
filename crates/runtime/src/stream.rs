//! Managed stream I/O: the FileStream analog.
//!
//! The paper's benchmarks issue I/O through managed stream classes
//! (`FileStream`, `StreamWriter`): each call crosses the managed
//! dispatch boundary, may trigger JIT compilation of the calling
//! method, and lands in the platform's I/O buffers. [`SharedManagedIo`]
//! is the one facade that bills a call for all of it:
//!
//! `op cost = JIT charge (first call of the method)
//!            + GC pause (if this call's allocations trigger one)
//!            + managed dispatch + buffer-cache cost`
//!
//! and reports each operation as a [`StreamOp`] with its simulated
//! latency — the quantity the web-server tables are built from. The GC
//! term is off by default and enabled with [`SharedManagedIo::with_gc`];
//! see [`crate::gc`] for the collector model.
//!
//! Every verb takes `&self`, so one facade serves every worker thread
//! of a server: the page cache is a [`ShardedBufferCache`] (requests
//! contend only when their pages share a shard) and the JIT table a
//! [`SharedJit`] (a warm call takes a shared read lock and one atomic
//! increment). Only the optional GC state sits behind a mutex — one
//! collector is inherently serial. At one shard the cache is the solo
//! [`BufferCache`](clio_cache::cache::BufferCache) bit for bit, which
//! the tests below pin against a bill composed by hand.

use clio_cache::cache::{AccessKind, AccessOutcome, CacheConfig};
use clio_cache::page::FileId;
use clio_cache::shard::ShardedBufferCache;
use clio_cache::CacheMetrics;
use parking_lot::Mutex;

use crate::gc::{GcModel, GcState, GcStats};
use crate::jit::{JitModel, SharedJit};

/// Fixed per-call allocation: the request buffer / stream object /
/// string conversion garbage of one managed I/O call, bytes.
pub const PER_CALL_ALLOC_BYTES: u64 = 512;

/// Default managed dispatch overhead (ms): vtable + security stack walk
/// on the SSCLI's interpreted-helper path.
pub const DEFAULT_DISPATCH_MS: f64 = 0.05;

/// Size of the web server's `doGet` handler body in bytecode
/// instructions, for the JIT charge (a rough SSCLI handler size).
pub const DO_GET_OPS: usize = 320;
/// Size of the `doPost` handler body.
pub const DO_POST_OPS: usize = 280;
/// Size of the stream open/close helpers the serving engine bills
/// `Open` and `Close` records to.
pub const FILE_HELPER_OPS: usize = 60;

/// One completed managed I/O operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOp {
    /// Total simulated latency, milliseconds.
    pub cost_ms: f64,
    /// Portion charged by the JIT (non-zero only on a method's first call).
    pub jit_ms: f64,
    /// Portion charged as a GC pause (zero unless this call's
    /// allocations triggered a collection).
    pub gc_ms: f64,
    /// Pages that missed the cache.
    pub pages_missed: u64,
    /// Pages served from the cache.
    pub pages_hit: u64,
}

impl StreamOp {
    /// One managed call's bill: the runtime's charges plus what the
    /// cache charged for the access underneath. The addition order
    /// (`jit + gc + dispatch + cache`) is pinned bit-for-bit by the
    /// load harness.
    fn charged(jit_ms: f64, gc_ms: f64, dispatch_ms: f64, out: &AccessOutcome) -> Self {
        Self {
            cost_ms: jit_ms + gc_ms + dispatch_ms + out.cost_ms,
            jit_ms,
            gc_ms,
            pages_missed: out.pages_missed,
            pages_hit: out.pages_hit,
        }
    }
}

/// Thread-safe managed-runtime I/O facade: `&self` everywhere, pages
/// served from a sharded cache.
#[derive(Debug)]
pub struct SharedManagedIo {
    cache: ShardedBufferCache,
    jit: SharedJit,
    gc: Option<Mutex<GcState>>,
    /// Fixed managed-dispatch overhead per call, ms.
    dispatch_ms: f64,
}

impl SharedManagedIo {
    /// Creates the facade with the given cache geometry (striped over
    /// `shards` shards) and JIT model.
    pub fn new(cache_cfg: CacheConfig, shards: usize, jit_model: JitModel) -> Self {
        Self {
            cache: ShardedBufferCache::new(cache_cfg, shards),
            jit: SharedJit::new(jit_model),
            gc: None,
            dispatch_ms: DEFAULT_DISPATCH_MS,
        }
    }

    /// Enables the garbage-collector pause model: every managed call
    /// allocates (its data buffer plus [`PER_CALL_ALLOC_BYTES`] of
    /// per-call garbage) and absorbs any collection pause it triggers.
    pub fn with_gc(mut self, model: GcModel) -> Self {
        self.gc = Some(Mutex::new(GcState::new(model)));
        self
    }

    /// Overrides the dispatch overhead.
    pub fn with_dispatch_ms(mut self, ms: f64) -> Self {
        self.dispatch_ms = ms;
        self
    }

    /// Registers a file, returning its id.
    pub fn register_file(&self, name: impl Into<String>) -> FileId {
        self.cache.register_file(name)
    }

    /// The sharded cache the pages are served from.
    pub fn cache(&self) -> &ShardedBufferCache {
        &self.cache
    }

    /// Opens a file from managed method `method` (of `method_ops`
    /// bytecode instructions, for the JIT charge).
    pub fn open(&self, method: &str, method_ops: usize, file: FileId) -> StreamOp {
        let jit_ms = self.jit.invoke(method, method_ops);
        let gc_ms = self.charge_alloc(PER_CALL_ALLOC_BYTES);
        let out = self.cache.open(file);
        StreamOp::charged(jit_ms, gc_ms, self.dispatch_ms, &out)
    }

    /// Reads `len` bytes at `offset`.
    pub fn read(
        &self,
        method: &str,
        method_ops: usize,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> StreamOp {
        self.data_op(method, method_ops, file, offset, len, AccessKind::Read)
    }

    /// Writes `len` bytes at `offset`.
    pub fn write(
        &self,
        method: &str,
        method_ops: usize,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> StreamOp {
        self.data_op(method, method_ops, file, offset, len, AccessKind::Write)
    }

    fn data_op(
        &self,
        method: &str,
        method_ops: usize,
        file: FileId,
        offset: u64,
        len: u64,
        kind: AccessKind,
    ) -> StreamOp {
        let jit_ms = self.jit.invoke(method, method_ops);
        let gc_ms = self.charge_alloc(len.saturating_add(PER_CALL_ALLOC_BYTES));
        let out = self.cache.access(file, offset, len, kind);
        StreamOp::charged(jit_ms, gc_ms, self.dispatch_ms, &out)
    }

    /// Closes a file (flushing its dirty pages).
    pub fn close(&self, method: &str, method_ops: usize, file: FileId) -> StreamOp {
        let jit_ms = self.jit.invoke(method, method_ops);
        let gc_ms = self.charge_alloc(PER_CALL_ALLOC_BYTES);
        let out = self.cache.close(file);
        StreamOp::charged(jit_ms, gc_ms, self.dispatch_ms, &out)
    }

    fn charge_alloc(&self, bytes: u64) -> f64 {
        match &self.gc {
            Some(gc) => gc.lock().alloc(bytes),
            None => 0.0,
        }
    }

    /// Collector statistics, if the GC model is enabled.
    pub fn gc_stats(&self) -> Option<GcStats> {
        self.gc.as_ref().map(|g| g.lock().stats())
    }

    /// Whether `method` has been JIT-compiled.
    pub fn is_warm(&self, method: &str) -> bool {
        self.jit.is_warm(method)
    }

    /// Aggregate cache metrics across all shards.
    pub fn cache_metrics(&self) -> CacheMetrics {
        self.cache.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_cache::cache::BufferCache;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn shared(shards: usize) -> SharedManagedIo {
        SharedManagedIo::new(CacheConfig::default(), shards, JitModel::sscli_like())
    }

    /// The bill composed by hand over a solo [`BufferCache`]: shares no
    /// code with the facade (not `StreamOp::charged`, not `SharedJit`,
    /// not the sharded cache).
    struct Oracle {
        cache: BufferCache,
        model: JitModel,
        compiled: HashSet<&'static str>,
    }

    impl Oracle {
        fn bill(&mut self, method: &'static str, ops: usize, out: AccessOutcome) -> StreamOp {
            let jit_ms =
                if self.compiled.insert(method) { self.model.compile_cost(ops) } else { 0.0 };
            StreamOp {
                cost_ms: jit_ms + 0.0 + DEFAULT_DISPATCH_MS + out.cost_ms,
                jit_ms,
                gc_ms: 0.0,
                pages_missed: out.pages_missed,
                pages_hit: out.pages_hit,
            }
        }
    }

    #[test]
    fn single_shard_matches_hand_composed_oracle() {
        let mut want = Oracle {
            cache: BufferCache::new(CacheConfig::default()),
            model: JitModel::sscli_like(),
            compiled: HashSet::new(),
        };
        let io = shared(1);
        let fw = want.cache.register_file("f");
        let f = io.register_file("f");

        let out = want.cache.open(fw);
        assert_eq!(want.bill("h", 100, out), io.open("h", 100, f));
        for i in 0..20u64 {
            let out = want.cache.access(fw, i * 4096, 8192, AccessKind::Read);
            assert_eq!(want.bill("h", 100, out), io.read("h", 100, f, i * 4096, 8192), "read {i}");
        }
        let out = want.cache.access(fw, 0, 4096, AccessKind::Write);
        assert_eq!(want.bill("w", 80, out), io.write("w", 80, f, 0, 4096));
        let out = want.cache.close(fw);
        assert_eq!(want.bill("h", 100, out), io.close("h", 100, f));
        assert_eq!(want.cache.metrics(), io.cache_metrics());
    }

    #[test]
    fn first_call_pays_jit_then_warm() {
        let io = shared(4);
        let f = io.register_file("img.jpg");
        let first = io.read("doGet", 300, f, 0, 14_063);
        let second = io.read("doGet", 300, f, 0, 14_063);
        assert!(first.jit_ms > 0.0);
        assert_eq!(second.jit_ms, 0.0);
        assert!(first.pages_missed > 0);
        assert_eq!(second.pages_missed, 0, "second read served from the sharded cache");
        assert!(
            first.cost_ms > 2.0 * second.cost_ms,
            "first {} vs warm {}",
            first.cost_ms,
            second.cost_ms
        );
        assert!(io.is_warm("doGet"));
    }

    #[test]
    fn distinct_methods_compile_separately() {
        let io = shared(1);
        let f = io.register_file("a");
        io.read("doGet", 300, f, 0, 100);
        let post = io.write("doPost", 250, f, 0, 100);
        assert!(post.jit_ms > 0.0, "doPost compiles on its own first call");
        assert!(io.is_warm("doGet") && io.is_warm("doPost"));
    }

    #[test]
    fn dispatch_overhead_always_charged() {
        let io = shared(1).with_dispatch_ms(0.5);
        let f = io.register_file("a");
        io.read("m", 10, f, 0, 100);
        let warm = io.read("m", 10, f, 0, 100);
        assert!(warm.cost_ms >= 0.5, "warm op still pays dispatch: {}", warm.cost_ms);
    }

    #[test]
    fn open_close_lifecycle() {
        let io = shared(1);
        let f = io.register_file("a");
        let open = io.open("handler", 100, f);
        io.write("handler", 100, f, 0, 8192);
        let close = io.close("handler", 100, f);
        assert!(open.jit_ms > 0.0, "handler compiled at open");
        assert_eq!(close.jit_ms, 0.0);
        assert!(close.cost_ms > 0.0);
    }

    #[test]
    fn precompiled_runtime_has_no_jit_spike() {
        let io = SharedManagedIo::new(CacheConfig::default(), 1, JitModel::precompiled());
        let f = io.register_file("a");
        let first = io.read("doGet", 300, f, 0, 14_063);
        assert_eq!(first.jit_ms, 0.0);
    }

    #[test]
    fn gc_disabled_by_default() {
        let io = shared(1);
        let f = io.register_file("a");
        let op = io.read("m", 10, f, 0, 1 << 20);
        assert_eq!(op.gc_ms, 0.0);
        assert!(io.gc_stats().is_none());
    }

    #[test]
    fn gc_pauses_show_up_under_allocation_pressure() {
        let io = SharedManagedIo::new(CacheConfig::default(), 1, JitModel::precompiled())
            .with_gc(GcModel::sscli_like());
        let f = io.register_file("a");
        let mut paused_ops = 0;
        for i in 0..64u64 {
            let op = io.read("m", 10, f, i * 65536, 65536);
            if op.gc_ms > 0.0 {
                paused_ops += 1;
            }
        }
        let stats = io.gc_stats().expect("gc enabled");
        assert!(stats.allocated_bytes >= 64 * 65536, "every read allocated its buffer");
        assert!(stats.minor_collections > 0, "64 x 64 KiB reads must fill the nursery");
        assert!(stats.minor_collections + stats.major_collections >= paused_ops as u64);
        assert!(paused_ops > 0, "some ops must absorb a pause");
        assert!(paused_ops < 64, "most ops must not pause");
    }

    #[test]
    fn gc_cost_included_in_total() {
        let io = SharedManagedIo::new(CacheConfig::default(), 1, JitModel::precompiled())
            .with_gc(GcModel::sscli_like())
            .with_dispatch_ms(0.0);
        let f = io.register_file("a");
        // Read the same cached page repeatedly so cache cost is stable;
        // the op that pauses must be visibly slower.
        io.read("m", 10, f, 0, 4096);
        let mut max_gc = 0.0f64;
        for _ in 0..600 {
            let op = io.read("m", 10, f, 0, 4096);
            if op.gc_ms > max_gc {
                max_gc = op.gc_ms;
                assert!(op.cost_ms >= op.gc_ms, "total includes the pause");
            }
        }
        assert!(max_gc > 0.0, "a pause must have occurred");
    }

    #[test]
    fn gc_model_still_charges() {
        let io = shared(2).with_gc(GcModel::default());
        let f = io.register_file("g");
        for i in 0..200u64 {
            io.write("doPost", 250, f, i * 65536, 65536);
        }
        let stats = io.gc_stats().expect("gc enabled");
        assert!(
            stats.minor_collections + stats.major_collections > 0,
            "allocations trigger collections"
        );
    }

    #[test]
    fn cache_metrics_visible() {
        let io = shared(1);
        let f = io.register_file("a");
        io.read("m", 10, f, 0, 4096);
        io.read("m", 10, f, 0, 4096);
        let m = io.cache_metrics();
        assert!(m.hits > 0);
        assert!(m.misses > 0);
    }

    #[test]
    fn concurrent_readers_account_every_page() {
        let io = Arc::new(shared(8));
        let f = io.register_file("shared.bin");
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let io = Arc::clone(&io);
            handles.push(std::thread::spawn(move || {
                let mut pages = 0u64;
                for i in 0..500u64 {
                    let off = ((t * 131 + i * 17) % 2048) * 4096;
                    let op = io.read("doGet", 300, f, off, 4096);
                    pages += op.pages_hit + op.pages_missed;
                }
                pages
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(io.cache_metrics().accesses(), total, "no lost page accounting");
    }

    #[test]
    fn read_at_the_top_of_the_offset_space_saturates() {
        // Unverified input can carry any offset/len; neither the GC
        // charge nor the page span may overflow on it.
        for gc in [false, true] {
            let mut io = shared(1);
            if gc {
                io = io.with_gc(GcModel::sscli_like());
            }
            let f = io.register_file("a");
            let op = io.read("m", 1, f, u64::MAX - 4096, u64::MAX);
            assert_eq!((op.pages_missed, op.pages_hit), (2, 0), "gc {gc}");
        }
    }
}
