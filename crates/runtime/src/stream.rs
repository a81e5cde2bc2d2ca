//! Managed stream I/O: the FileStream analog.
//!
//! The paper's benchmarks issue I/O through managed stream classes
//! (`FileStream`, `StreamWriter`): each call crosses the managed
//! dispatch boundary, may trigger JIT compilation of the calling
//! method, and lands in the platform's I/O buffers. [`SharedManagedIo`]
//! is the one facade that bills a call for all of it:
//!
//! `op cost = JIT charge (first call of the method)
//!            + managed dispatch + buffer-cache cost`
//!
//! and reports each operation as a [`StreamOp`] with its simulated
//! latency — the quantity the web-server tables are built from.
//!
//! Every verb takes `&self`, so one facade serves every worker thread
//! of a server: the page cache is a [`ShardedBufferCache`] (requests
//! contend only when their pages share a shard) and the JIT table a
//! [`SharedJit`] (a warm call takes a shared read lock and one atomic
//! increment). At one shard the cache is the solo
//! [`BufferCache`](clio_cache::cache::BufferCache) bit for bit, which
//! the tests below pin against a bill composed by hand.

use clio_cache::cache::{AccessKind, AccessOutcome, CacheConfig};
use clio_cache::page::FileId;
use clio_cache::shard::ShardedBufferCache;
use clio_cache::CacheMetrics;

use crate::jit::{JitModel, SharedJit};

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
    /// Pages that missed the cache.
    pub pages_missed: u64,
    /// Pages served from the cache.
    pub pages_hit: u64,
}

impl StreamOp {
    /// One managed call's bill: the runtime's charges plus what the
    /// cache charged for the access underneath. The addition order
    /// (`jit + dispatch + cache`) is pinned bit-for-bit by the load
    /// harness.
    fn charged(jit_ms: f64, dispatch_ms: f64, out: &AccessOutcome) -> Self {
        Self {
            cost_ms: jit_ms + dispatch_ms + out.cost_ms,
            jit_ms,
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
            dispatch_ms: DEFAULT_DISPATCH_MS,
        }
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
        let out = self.cache.open(file);
        StreamOp::charged(jit_ms, self.dispatch_ms, &out)
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
        let out = self.cache.access(file, offset, len, kind);
        StreamOp::charged(jit_ms, self.dispatch_ms, &out)
    }

    /// Closes a file (flushing its dirty pages).
    pub fn close(&self, method: &str, method_ops: usize, file: FileId) -> StreamOp {
        let jit_ms = self.jit.invoke(method, method_ops);
        let out = self.cache.close(file);
        StreamOp::charged(jit_ms, self.dispatch_ms, &out)
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
                cost_ms: jit_ms + DEFAULT_DISPATCH_MS + out.cost_ms,
                jit_ms,
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
        // Unverified input can carry any offset/len; the page span may
        // not overflow on it.
        let io = shared(1);
        let f = io.register_file("a");
        let op = io.read("m", 1, f, u64::MAX - 4096, u64::MAX);
        assert_eq!((op.pages_missed, op.pages_hit), (2, 0));
    }
}
