//! Measurement helpers: the counting allocator, the calibration
//! kernel, and the order statistics every metric is reduced with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Pass-through allocator counting live bytes, their high-water mark
/// and allocation calls (the pattern of `tests/perf_scaling.rs`). The
/// counters are statistics and publish no other data, hence `Relaxed`.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only updates counters around the call, so `System`'s
// guarantees carry over unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// Heap accounting local to one rep: the high-water mark *above the
/// level the rep started at*, so what earlier reps or the set-up left
/// allocated does not count against it.
pub struct HeapWindow {
    start_live: usize,
    start_calls: u64,
}

impl HeapWindow {
    /// Starts a window: resets the high-water mark to the current level.
    pub fn open() -> Self {
        let start_live = LIVE.load(Ordering::Relaxed);
        PEAK.store(start_live, Ordering::Relaxed);
        Self { start_live, start_calls: CALLS.load(Ordering::Relaxed) }
    }

    /// Peak bytes above the starting level since [`HeapWindow::open`].
    pub fn peak_bytes(&self) -> usize {
        PEAK.load(Ordering::Relaxed).saturating_sub(self.start_live)
    }

    /// Allocation calls since [`HeapWindow::open`].
    pub fn alloc_calls(&self) -> u64 {
        CALLS.load(Ordering::Relaxed) - self.start_calls
    }
}

/// Iterations of the calibration kernel: ~5 ms of dependent xorshift
/// steps. Fixed, so its wall time measures the host, not the input.
const SPIN_STEPS: u64 = 3_000_000;

/// Runs the calibration kernel once and returns its wall time in ns.
/// Pure register arithmetic: it tracks CPU speed and steal time, the
/// drift that moves every rep alike, and touches no memory the
/// workloads compete for.
pub fn spin_ns() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..SPIN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_nanos() as f64
}

/// A rep's cost in units of the calibration kernel: wall time over the
/// mean of the two kernel runs that bracket it.
pub fn normalised(rep_ns: f64, spin_before_ns: f64, spin_after_ns: f64) -> f64 {
    rep_ns / ((spin_before_ns + spin_after_ns) / 2.0)
}

/// Nearest-rank order statistic: the smallest sample with at least
/// `q` of the samples at or below it. `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median, averaging the two middle samples of an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// The lower decile: the end-to-end timing statistic. Interference on
/// a shared host only ever adds time, and it comes in regimes that last
/// seconds, so a low order statistic of a run's reps reports the quiet
/// machine as long as a tenth of the run saw it; the median reports
/// whichever regime held for most of the run (see the README's
/// measurements).
pub fn lower_decile(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.10)
}

/// The highest percentile that still has ten samples beyond it, as a
/// fraction: `(n - 10) / n`, or `None` below eleven samples. With the
/// default 60 reps this is 0.8333 — the `p83` of `exp.rep_ms_p83`.
pub fn tail_quantile(n: usize) -> Option<f64> {
    (n > 10).then(|| (n - 10) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p83_of_sixty_leaves_ten_samples_beyond_it() {
        let q = tail_quantile(60).unwrap();
        assert!((q - 50.0 / 60.0).abs() < 1e-12);
        let samples: Vec<f64> = (1..=60).map(f64::from).collect();
        // Nearest rank 50 of 60: exactly ten samples (51..=60) lie beyond.
        assert_eq!(quantile(&samples, q), Some(50.0));
        assert_eq!(tail_quantile(10), None);
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&samples, 1.0), Some(60.0));
    }

    #[test]
    fn lower_decile_is_the_sixth_fastest_of_sixty() {
        let samples: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        assert_eq!(lower_decile(&samples), Some(6.0));
        assert_eq!(lower_decile(&[7.0]), Some(7.0));
        assert_eq!(lower_decile(&[]), None);
    }

    #[test]
    fn normalisation_divides_by_the_mean_of_the_bracketing_kernels() {
        assert_eq!(normalised(100.0, 4.0, 6.0), 20.0);
        // A host running at half speed doubles rep and kernels alike.
        assert_eq!(normalised(200.0, 8.0, 12.0), normalised(100.0, 4.0, 6.0));
    }

    #[test]
    fn heap_window_measures_above_its_own_starting_level() {
        // Other test threads allocate too, so both bounds leave room:
        // the first window must see its own 64 MiB, and the second must
        // not inherit it although the block is still live.
        const BLOCK: usize = 64 << 20;
        let first = HeapWindow::open();
        let held = std::hint::black_box(vec![1u8; BLOCK]);
        assert!(first.peak_bytes() >= BLOCK);
        assert!(first.alloc_calls() >= 1);
        let second = HeapWindow::open();
        let small = std::hint::black_box(vec![1u8; 1024]);
        assert!(second.peak_bytes() >= small.len());
        assert!(second.peak_bytes() < BLOCK, "high-water mark was not reset");
        drop(held);
    }

    #[test]
    fn calibration_kernel_takes_measurable_time() {
        assert!(spin_ns() > 0.0);
    }
}
