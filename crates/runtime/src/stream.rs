//! Managed stream I/O: the FileStream analog.
//!
//! The paper's benchmarks issue I/O through managed stream classes
//! (`FileStream`, `StreamWriter`): each call crosses the managed
//! dispatch boundary, may trigger JIT compilation of the calling
//! method, and lands in the platform's I/O buffers. [`ManagedIo`]
//! combines the three cost sources:
//!
//! `op cost = JIT charge (first call of the method) + managed dispatch
//!            + GC pause (if this call's allocations trigger one)
//!            + buffer-cache cost`
//!
//! and reports each operation as a [`StreamOp`] with its simulated
//! latency — the quantity the web-server tables are built from. The GC
//! term is off by default and enabled with [`ManagedIo::with_gc`]; see
//! [`crate::gc`] for the collector model.

use clio_cache::cache::{AccessKind, AccessOutcome, BufferCache, CacheConfig};
use clio_cache::page::FileId;

use crate::gc::{GcModel, GcState, GcStats};
use crate::jit::{JitModel, JitState};

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
    pub(crate) fn charged(jit_ms: f64, gc_ms: f64, dispatch_ms: f64, out: &AccessOutcome) -> Self {
        Self {
            cost_ms: jit_ms + gc_ms + dispatch_ms + out.cost_ms,
            jit_ms,
            gc_ms,
            pages_missed: out.pages_missed,
            pages_hit: out.pages_hit,
        }
    }
}

/// Managed-runtime I/O facade over a buffer cache.
#[derive(Debug, Clone)]
pub struct ManagedIo {
    cache: BufferCache,
    jit: JitState,
    gc: Option<GcState>,
    /// Fixed managed-dispatch overhead per call, ms.
    dispatch_ms: f64,
}

/// Fixed per-call allocation: the request buffer / stream object /
/// string conversion garbage of one managed I/O call, bytes.
pub const PER_CALL_ALLOC_BYTES: u64 = 512;

/// Default managed dispatch overhead (ms): vtable + security stack walk
/// on the SSCLI's interpreted-helper path.
pub const DEFAULT_DISPATCH_MS: f64 = 0.05;

impl ManagedIo {
    /// Creates the facade with the given cache geometry and JIT model.
    pub fn new(cache_cfg: CacheConfig, jit_model: JitModel) -> Self {
        Self {
            cache: BufferCache::new(cache_cfg),
            jit: JitState::new(jit_model),
            gc: None,
            dispatch_ms: DEFAULT_DISPATCH_MS,
        }
    }

    /// Enables the garbage-collector pause model: every managed call
    /// allocates (its data buffer plus [`PER_CALL_ALLOC_BYTES`] of
    /// per-call garbage) and absorbs any collection pause it triggers.
    pub fn with_gc(mut self, model: GcModel) -> Self {
        self.gc = Some(GcState::new(model));
        self
    }

    /// Overrides the dispatch overhead.
    pub fn with_dispatch_ms(mut self, ms: f64) -> Self {
        self.dispatch_ms = ms;
        self
    }

    /// Registers a file, returning its id.
    pub fn register_file(&mut self, name: impl Into<String>) -> FileId {
        self.cache.register_file(name)
    }

    /// Opens a file from managed method `method` (of `method_ops`
    /// bytecode instructions, for the JIT charge).
    pub fn open(&mut self, method: &str, method_ops: usize, file: FileId) -> StreamOp {
        let jit_ms = self.jit.invoke(method, method_ops);
        let gc_ms = self.charge_alloc(PER_CALL_ALLOC_BYTES);
        let out = self.cache.open(file);
        StreamOp::charged(jit_ms, gc_ms, self.dispatch_ms, &out)
    }

    /// Reads `len` bytes at `offset`.
    pub fn read(
        &mut self,
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
        &mut self,
        method: &str,
        method_ops: usize,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> StreamOp {
        self.data_op(method, method_ops, file, offset, len, AccessKind::Write)
    }

    fn data_op(
        &mut self,
        method: &str,
        method_ops: usize,
        file: FileId,
        offset: u64,
        len: u64,
        kind: AccessKind,
    ) -> StreamOp {
        let jit_ms = self.jit.invoke(method, method_ops);
        let gc_ms = self.charge_alloc(len + PER_CALL_ALLOC_BYTES);
        let out = self.cache.access(file, offset, len, kind);
        StreamOp::charged(jit_ms, gc_ms, self.dispatch_ms, &out)
    }

    /// Closes a file (flushing its dirty pages).
    pub fn close(&mut self, method: &str, method_ops: usize, file: FileId) -> StreamOp {
        let jit_ms = self.jit.invoke(method, method_ops);
        let gc_ms = self.charge_alloc(PER_CALL_ALLOC_BYTES);
        let out = self.cache.close(file);
        StreamOp::charged(jit_ms, gc_ms, self.dispatch_ms, &out)
    }

    fn charge_alloc(&mut self, bytes: u64) -> f64 {
        match &mut self.gc {
            Some(gc) => gc.alloc(bytes),
            None => 0.0,
        }
    }

    /// Collector statistics, if the GC model is enabled.
    pub fn gc_stats(&self) -> Option<GcStats> {
        self.gc.as_ref().map(|g| g.stats())
    }

    /// Whether `method` has been JIT-compiled.
    pub fn is_warm(&self, method: &str) -> bool {
        self.jit.is_warm(method)
    }

    /// Cache metrics.
    pub fn cache_metrics(&self) -> clio_cache::CacheMetrics {
        self.cache.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn managed() -> ManagedIo {
        ManagedIo::new(CacheConfig::default(), JitModel::sscli_like())
    }

    #[test]
    fn first_read_pays_jit_and_faults() {
        let mut io = managed();
        let f = io.register_file("img.jpg");
        let first = io.read("doGet", 300, f, 0, 14_063);
        let second = io.read("doGet", 300, f, 0, 14_063);
        assert!(first.jit_ms > 0.0);
        assert_eq!(second.jit_ms, 0.0);
        assert!(first.pages_missed > 0);
        assert_eq!(second.pages_missed, 0);
        assert!(
            first.cost_ms > 2.0 * second.cost_ms,
            "first {} vs warm {}",
            first.cost_ms,
            second.cost_ms
        );
    }

    #[test]
    fn distinct_methods_compile_separately() {
        let mut io = managed();
        let f = io.register_file("a");
        io.read("doGet", 300, f, 0, 100);
        let post = io.write("doPost", 250, f, 0, 100);
        assert!(post.jit_ms > 0.0, "doPost compiles on its own first call");
        assert!(io.is_warm("doGet") && io.is_warm("doPost"));
    }

    #[test]
    fn dispatch_overhead_always_charged() {
        let mut io = managed().with_dispatch_ms(0.5);
        let f = io.register_file("a");
        io.read("m", 10, f, 0, 100);
        let warm = io.read("m", 10, f, 0, 100);
        assert!(warm.cost_ms >= 0.5, "warm op still pays dispatch: {}", warm.cost_ms);
    }

    #[test]
    fn open_close_lifecycle() {
        let mut io = managed();
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
        let mut io = ManagedIo::new(CacheConfig::default(), JitModel::precompiled());
        let f = io.register_file("a");
        let first = io.read("doGet", 300, f, 0, 14_063);
        assert_eq!(first.jit_ms, 0.0);
    }

    #[test]
    fn gc_disabled_by_default() {
        let mut io = managed();
        let f = io.register_file("a");
        let op = io.read("m", 10, f, 0, 1 << 20);
        assert_eq!(op.gc_ms, 0.0);
        assert!(io.gc_stats().is_none());
    }

    #[test]
    fn gc_pauses_show_up_under_allocation_pressure() {
        use crate::gc::GcModel;
        let mut io = ManagedIo::new(CacheConfig::default(), JitModel::precompiled())
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
        assert!(stats.minor_collections > 0, "64 x 64 KiB reads must fill the nursery");
        assert!(stats.minor_collections + stats.major_collections >= paused_ops as u64);
        assert!(paused_ops > 0, "some ops must absorb a pause");
        assert!(paused_ops < 64, "most ops must not pause");
    }

    #[test]
    fn gc_cost_included_in_total() {
        use crate::gc::GcModel;
        let mut io = ManagedIo::new(CacheConfig::default(), JitModel::precompiled())
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
    fn cache_metrics_visible() {
        let mut io = managed();
        let f = io.register_file("a");
        io.read("m", 10, f, 0, 4096);
        io.read("m", 10, f, 0, 4096);
        let m = io.cache_metrics();
        assert!(m.hits > 0);
        assert!(m.misses > 0);
    }
}
