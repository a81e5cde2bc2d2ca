//! Concurrent managed I/O over the sharded buffer cache.
//!
//! [`crate::stream::ManagedIo`] is single-owner (`&mut self`), so the
//! web server used to funnel every request through one big mutex around
//! the whole managed state — JIT map, GC and buffer cache alike. That
//! was faithful to the paper's measurements but caps a multithreaded
//! server at one core. [`SharedManagedIo`] is the production-scale
//! variant: the page cache is a [`ShardedBufferCache`]
//! (lock-striped, so concurrent requests only contend when their pages
//! share a shard) and the JIT table is a [`SharedJit`] — striped
//! read-write locks over atomic call counters, so warm invocations (the
//! steady state of a loaded server) never funnel through one global
//! mutex. Only the optional GC state keeps a mutex: its pause model is
//! inherently serial (one collector).
//!
//! Cost composition is identical to [`crate::stream::ManagedIo`]:
//! `JIT charge + GC pause + managed dispatch + cache cost`, so the
//! SSCLI tables keep their shape while requests proceed in parallel.

use clio_cache::cache::{AccessKind, CacheConfig};
use clio_cache::page::FileId;
use clio_cache::shard::ShardedBufferCache;
use clio_cache::CacheMetrics;
use parking_lot::Mutex;

use crate::gc::{GcModel, GcState, GcStats};
use crate::jit::{JitModel, SharedJit};
use crate::stream::{StreamOp, DEFAULT_DISPATCH_MS, PER_CALL_ALLOC_BYTES};

/// Thread-safe managed-runtime I/O facade: `&self` everywhere, pages
/// served from a sharded cache.
#[derive(Debug)]
pub struct SharedManagedIo {
    cache: ShardedBufferCache,
    jit: SharedJit,
    gc: Option<Mutex<GcState>>,
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

    /// Enables the garbage-collector pause model (see
    /// [`crate::stream::ManagedIo::with_gc`]).
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

    /// Opens a file from managed method `method`.
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
        let gc_ms = self.charge_alloc(len + PER_CALL_ALLOC_BYTES);
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
    use crate::stream::ManagedIo;
    use std::sync::Arc;

    fn shared(shards: usize) -> SharedManagedIo {
        SharedManagedIo::new(CacheConfig::default(), shards, JitModel::sscli_like())
    }

    #[test]
    fn single_shard_matches_managed_io_costs() {
        let mut mono = ManagedIo::new(CacheConfig::default(), JitModel::sscli_like());
        let conc = shared(1);
        let fm = mono.register_file("f");
        let fc = conc.register_file("f");
        assert_eq!(mono.open("h", 100, fm), conc.open("h", 100, fc));
        for i in 0..20u64 {
            assert_eq!(
                mono.read("h", 100, fm, i * 4096, 8192),
                conc.read("h", 100, fc, i * 4096, 8192)
            );
        }
        assert_eq!(mono.write("h", 100, fm, 0, 4096), conc.write("h", 100, fc, 0, 4096));
        assert_eq!(mono.close("h", 100, fm), conc.close("h", 100, fc));
        assert_eq!(mono.cache_metrics(), conc.cache_metrics());
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
        assert!(io.is_warm("doGet"));
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
}
