//! Golden pins for the cache layer: literal counters and total cost,
//! per replacement policy, for one fixed trace under eviction pressure.
//!
//! Most cache pins in this repo are self-referential (builder ==
//! canonical engine, single shard == [`BufferCache`]): when the cache's
//! internals are refactored both sides move together and the pin still
//! passes. The literals below do not move. They were recorded before
//! the page table was folded into the policy slab and must survive any
//! change that claims to keep the hit/miss/eviction/write-back streams
//! and every simulated cost bit-identical.
//!
//! The trace is generated here from a private SplitMix64 stream (not
//! from `clio_trace::synth`, so a synthesis change cannot silently move
//! it): three 8 MiB files over a 512-page cache, sequential runs long
//! enough to open the readahead window, random seeks, 30 % writes,
//! multi-block spans, repeat counts, and files closed and reopened
//! mid-trace. It is driven three ways:
//!
//! - `serial`: [`replay_cached`] in summary mode — one
//!   [`BufferCache`],
//! - `sharded`: a 4-shard [`ShardedBufferCache`] driven operation by
//!   operation on this thread (its own span routing and readahead
//!   staging),
//! - `parallel`: [`replay_sharded`] in summary mode over 4 shards and
//!   2 worker threads (one worker view of the cache each).
//!
//! [`BufferCache`]: clio_core::cache::cache::BufferCache

use clio_core::cache::cache::{AccessKind, CacheConfig};
use clio_core::cache::metrics::CacheMetrics;
use clio_core::cache::page::FileId;
use clio_core::cache::policy::ReplacementPolicy;
use clio_core::cache::shard::ShardedBufferCache;
use clio_core::trace::reader::TraceFile;
use clio_core::trace::record::{IoOp, TraceRecord};
use clio_core::trace::replay::{replay_cached, replay_sharded, ParallelReplayOptions, ReportMode};
use clio_core::trace::source::SliceSource;

const PAGE: u64 = 4096;
const FILE_PAGES: u64 = 2048;
const FILES: u32 = 3;
const STEPS: usize = 3000;
const CAPACITY_PAGES: usize = 512;
const SHARDS: usize = 4;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn golden_trace() -> TraceFile {
    let mut rng = SplitMix64(0xC110_601D);
    let mut records = Vec::new();
    let mut open = [false; FILES as usize];
    let mut pos = [0u64; FILES as usize];
    for _ in 0..STEPS {
        let f = rng.below(FILES as u64) as usize;
        if !open[f] {
            records.push(TraceRecord::simple(IoOp::Open, f as u32, 0, 0));
            open[f] = true;
            pos[f] = 0;
        }
        if rng.below(40) == 0 {
            records.push(TraceRecord::simple(IoOp::Close, f as u32, 0, 0));
            open[f] = false;
            continue;
        }
        let pages = if rng.below(8) == 0 { 64 + rng.below(137) } else { 1 + rng.below(16) };
        let length = pages * PAGE - rng.below(PAGE);
        let sequential = rng.below(100) < 55;
        if !sequential || pos[f] + length > FILE_PAGES * PAGE {
            pos[f] = rng.below(FILE_PAGES - pages) * PAGE + rng.below(2) * 512;
            records.push(TraceRecord::simple(IoOp::Seek, f as u32, pos[f], 0));
        }
        let op = if rng.below(100) < 30 { IoOp::Write } else { IoOp::Read };
        let mut record = TraceRecord::simple(op, f as u32, pos[f], length);
        if rng.below(16) == 0 {
            record.num_records = 2;
        }
        records.push(record);
        pos[f] += length;
    }
    for (f, is_open) in open.iter().enumerate() {
        if *is_open {
            records.push(TraceRecord::simple(IoOp::Close, f as u32, 0, 0));
        }
    }
    TraceFile::build("golden.dat", 1, records).expect("golden trace is well-formed")
}

fn config(policy: ReplacementPolicy) -> CacheConfig {
    CacheConfig { policy, capacity_pages: CAPACITY_PAGES, ..Default::default() }
}

/// `[hits, misses, evictions, writebacks, prefetched, prefetch_hits,
/// total_ms.to_bits()]`.
type Row = [u64; 7];

fn row(m: CacheMetrics, total_ms: f64) -> Row {
    [m.hits, m.misses, m.evictions, m.writebacks, m.prefetched, m.prefetch_hits, total_ms.to_bits()]
}

fn serial(trace: &TraceFile, policy: ReplacementPolicy) -> Row {
    let out = replay_cached(&mut SliceSource::new(trace), config(policy), ReportMode::Summary)
        .expect("golden trace is well-formed");
    row(out.metrics, out.total_ms())
}

fn sharded(trace: &TraceFile, policy: ReplacementPolicy) -> Row {
    let cache = ShardedBufferCache::new(config(policy), SHARDS);
    assert_eq!(cache.num_shards(), SHARDS);
    let files: Vec<FileId> =
        (0..trace.header.num_files).map(|i| cache.register_file(format!("golden#{i}"))).collect();
    let mut total_ms = 0.0;
    for r in &trace.records {
        let fid = files[r.file_id as usize];
        for _ in 0..r.num_records.max(1) {
            let out = match r.op {
                IoOp::Open => cache.open(fid),
                IoOp::Close => cache.close(fid),
                IoOp::Seek => cache.seek(fid, r.offset),
                IoOp::Read => cache.access_run(fid, r.offset, r.length, AccessKind::Read),
                IoOp::Write => cache.access_run(fid, r.offset, r.length, AccessKind::Write),
            };
            total_ms += out.cost_ms;
        }
    }
    row(cache.metrics(), total_ms)
}

fn parallel(trace: &TraceFile, policy: ReplacementPolicy) -> Row {
    let options = ParallelReplayOptions { threads: 2, shards: SHARDS };
    let out =
        replay_sharded(&mut SliceSource::new(trace), config(policy), &options, ReportMode::Summary)
            .expect("golden trace is well-formed");
    row(out.metrics, out.total_ms())
}

/// One `(serial, sharded, parallel)` triple per policy, in
/// [`ReplacementPolicy::ALL`] order.
#[rustfmt::skip]
const GOLDEN: [[Row; 3]; 7] = [
    // LRU
    [
        [13642, 56660, 64983, 18433, 8323, 3639, 4648866955497258560],
        [12601, 57701, 66127, 18385, 8426, 3638, 4648904755985741883],
        [12601, 57701, 66127, 18385, 8426, 3638, 4648904755985741889],
    ],
    // CLOCK
    [
        [13681, 56621, 64894, 18451, 8273, 3622, 4648870898592246367],
        [12714, 57588, 66003, 18441, 8415, 3617, 4648919881096391990],
        [12714, 57588, 66003, 18441, 8415, 3617, 4648919881096391989],
    ],
    // FIFO
    [
        [13611, 56691, 65006, 18437, 8315, 3633, 4648867697342151867],
        [12577, 57725, 66150, 18387, 8425, 3638, 4648904339508329463],
        [12577, 57725, 66150, 18387, 8425, 3638, 4648904339508329468],
    ],
    // 2Q
    [
        [13668, 56634, 64956, 18398, 8322, 3597, 4648857022526805417],
        [12615, 57687, 66031, 18299, 8344, 3481, 4648883671997058267],
        [12615, 57687, 66031, 18299, 8344, 3481, 4648883671997058272],
    ],
    // SLRU
    [
        [13697, 56605, 64914, 18373, 8309, 3618, 4648880015144529563],
        [12565, 57737, 66149, 18322, 8412, 3544, 4648917912548365798],
        [12565, 57737, 66149, 18322, 8412, 3544, 4648917912548365798],
    ],
    // SIEVE
    [
        [13697, 56605, 64914, 18373, 8309, 3618, 4648880015144529563],
        [12552, 57750, 66163, 18323, 8413, 3545, 4648917540244932542],
        [12552, 57750, 66163, 18323, 8413, 3545, 4648917540244932542],
    ],
    // ARC
    [
        [13644, 56658, 65002, 18351, 8344, 3615, 4648876839702171993],
        [12635, 57667, 66069, 18316, 8402, 3530, 4648910938478052218],
        [12635, 57667, 66069, 18316, 8402, 3530, 4648910938478052218],
    ],
];

#[test]
fn the_trace_exercises_every_path_it_claims_to() {
    let trace = golden_trace();
    let count = |op: IoOp| trace.records.iter().filter(|r| r.op == op).count();
    assert!(count(IoOp::Open) > FILES as usize, "files are reopened mid-trace");
    assert!(count(IoOp::Close) > FILES as usize);
    assert!(count(IoOp::Write) > 500 && count(IoOp::Read) > 1000 && count(IoOp::Seek) > 500);
    assert!(trace.records.iter().any(|r| r.num_records > 1));
    assert!(trace.records.iter().any(|r| r.length > 128 * PAGE), "multi-block spans");
    // Pressure, write-back and readahead all fire under the default
    // policy: every column of the pin carries signal.
    let [hits, misses, evictions, writebacks, prefetched, prefetch_hits, _] =
        serial(&trace, ReplacementPolicy::Lru);
    assert!(hits > 0 && misses > 0 && evictions > CAPACITY_PAGES as u64);
    assert!(writebacks > 0 && prefetched > 0 && prefetch_hits > 0);
}

#[test]
fn counters_and_total_cost_match_the_recorded_literals() {
    let trace = golden_trace();
    let mut got = Vec::new();
    for policy in ReplacementPolicy::ALL {
        got.push([serial(&trace, policy), sharded(&trace, policy), parallel(&trace, policy)]);
    }
    // On a mismatch print the whole table in the literal's own syntax:
    // the diff against `GOLDEN` is the finding.
    let table: String = got.iter().map(|triple| format!("    {triple:?},\n")).collect();
    assert!(got == GOLDEN, "cache golden literals moved; measured table:\n{table}");
}
