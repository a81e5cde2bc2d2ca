//! # clio-cache — buffer-cache substrate
//!
//! The paper explains nearly every timing anomaly it observes through
//! the page cache: "when the file is opened, a page or two is placed in
//! I/O buffers"; "at the time when a read, write, or seek operation is
//! performed, a prefetch operation will be invoked"; cold accesses pay a
//! page fault, warm accesses are served from the buffers. This crate
//! makes those mechanisms explicit and deterministic:
//!
//! - [`page`] — page identity and offset↔page arithmetic,
//! - [`intrusive`] — the slab-backed intrusive multi-list every list
//!   policy threads its segments through (O(1) relink, zero per-access
//!   allocation once warm); its nodes carry the cache's per-page state,
//!   so it is also the one page table,
//! - [`lru`] — an O(1) LRU list,
//! - [`policy`] — the [`PolicySet`] trait all seven replacement
//!   policies implement, and the selector enum whose one match is the
//!   single policy registry,
//! - [`prefetch`] — a sequential readahead detector,
//! - [`scanres`] — scan-resistant replacement (2Q, segmented LRU),
//! - [`sieve`] — SIEVE (visited-bit hand, lazy promotion),
//! - [`arc`] — ARC (adaptive recency/frequency with ghost lists),
//! - [`cache`] — the page-level core ([`cache::ShardCore`]: policy
//!   slab, counters, per-page transitions compiled once per policy, and
//!   a cost model that turns hits/misses/prefetches into simulated
//!   latencies) and the single-owner [`BufferCache`] over one core,
//! - `driver` (crate-private) — the one operation-level state machine:
//!   how open / close / seek / read-write decompose into page steps on
//!   shards plus readahead, generic over a small shard-set seam that
//!   exactly three front-ends implement,
//! - [`shard`] — two of those front-ends: the lock-striped concurrent
//!   cache (N cores behind per-shard mutexes, for multithreaded
//!   servers) and its per-worker views (disjoint shard subsets, for
//!   parallel trace replay),
//! - [`backend`] — real-filesystem and fault-injecting file backends for
//!   replaying traces against actual disks,
//! - [`metrics`] — hit/miss/eviction counters.
//!
//! ```
//! use clio_cache::cache::{AccessKind, BufferCache, CacheConfig};
//!
//! let mut cache = BufferCache::new(CacheConfig::default());
//! let file = cache.register_file("sample.dat");
//! let cold = cache.access(file, 0, 8192, AccessKind::Read);
//! let warm = cache.access(file, 0, 8192, AccessKind::Read);
//! assert!(cold.pages_missed > 0);
//! assert_eq!(warm.pages_missed, 0, "second read is served from buffers");
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]

pub mod arc;
pub mod backend;
pub mod cache;
mod driver;
mod hash;
pub mod intrusive;
pub mod lru;
pub mod metrics;
pub mod page;
pub mod policy;
pub mod prefetch;
pub mod scanres;
pub mod shard;
pub mod sieve;

pub use backend::{FileBackend, RealFsBackend};
pub use cache::{AccessKind, BufferCache, CacheConfig, CacheCostModel};
pub use intrusive::GroupKey;
pub use metrics::CacheMetrics;
pub use page::{PageId, PAGE_SIZE_DEFAULT};
pub use policy::PolicySet;
pub use shard::ShardedBufferCache;

/// Upper bound on entries pre-allocated from a configured capacity:
/// constructors reserve `min(capacity, PREALLOC_PAGES_MAX)` so the hot
/// loop never regrows for realistic caches, while absurdly large
/// configured capacities don't allocate gigabytes up front.
///
/// At the bound a page table reserves 51 bytes a key (a node, a
/// quarter of a lane group, its group-table buckets and gather slot;
/// see [`intrusive`]): 51 MiB for LRU, FIFO, SLRU, SIEVE and ARC (whose
/// ghosts share the 2^20 keys), 43 MiB for CLOCK's 24-byte positions,
/// and 2Q's 1.5 x 2^20 keys about 77 MiB. It was 79 bytes a key (79 MiB
/// for LRU) before the links went to `u32` and the group table to
/// open addressing.
pub const PREALLOC_PAGES_MAX: usize = 1 << 20;
