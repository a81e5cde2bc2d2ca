//! Streaming percentile sink with bounded relative error.
//!
//! The closed-loop load harness records one latency per request; at
//! millions of requests a full sample vector ([`crate::percentile`])
//! stops being an option in summary mode. This sink is the O(1)-memory
//! replacement: geometrically spaced buckets (a DDSketch-style layout)
//! whose width is chosen from a target relative error, so
//! `sink.quantile(q)` agrees with the exact
//! [`quantile`](crate::percentile::quantile) of the same samples to
//! within that error — tight enough that p50/p95/p99/p999 rows from the
//! streaming and exact paths are interchangeable.
//!
//! The counts live in one dense window of buckets, a `Vec<u64>` over a
//! contiguous run of bucket indices that covers every bucket touched,
//! so recording a sample is a logarithm and one indexed add. The window
//! grows in place at either end when a sample lands outside it, by at
//! least a quarter so growth is amortised, but never past the indices a
//! positive finite `f64` can take. Memory is therefore bounded by the
//! value range, not the sample count: ten decades at 1 % error span
//! ~1150 buckets (9 KiB). The worst case, a sink fed both the smallest
//! subnormal and `f64::MAX`, is every index in between: about
//! `1454.3 / ln(gamma)` buckets. At the default 1 % error that is
//! 72 709 buckets, 581 672 bytes (568 KiB); at the finest accuracy
//! [`PercentileSink::new`] accepts, ten times that. Zeros, negatives
//! and `+inf` are counted beside the window. Sinks with the same accuracy
//! merge losslessly, which is what lets per-client recorders combine
//! into one report.

/// Default target relative error (1 %).
pub const DEFAULT_RELATIVE_ERROR: f64 = 0.01;

/// Finest relative error a sink accepts (0.1 %): it bounds the dense
/// window's worst case at ten times the default's.
pub const MIN_RELATIVE_ERROR: f64 = 1e-3;

/// Fewest buckets a widening adds on the side it grows.
const MIN_GROWTH: i32 = 16;

/// Streaming percentile estimator over non-negative samples.
///
/// Values are in milliseconds by convention (matching the rest of the
/// suite) but the structure is unit-agnostic. Values ≤ 0 are counted in
/// a dedicated zero bucket and reported as exactly `0.0` — timers round
/// to zero on very fast requests, and inventing a small positive
/// latency for them would skew the low percentiles.
#[derive(Debug, Clone)]
pub struct PercentileSink {
    /// Bucket boundary ratio: bucket `k` covers `(gamma^k, gamma^(k+1)]`.
    gamma: f64,
    /// Precomputed `1 / ln(gamma)` for the index map.
    inv_ln_gamma: f64,
    /// Bucket index of `buckets[0]`.
    lo: i32,
    /// Count per bucket index `lo + i`, over a window that covers every
    /// touched bucket (and may hold empty ones).
    buckets: Vec<u64>,
    /// Samples ≤ 0 (reported as exactly zero).
    zeros: u64,
    /// `+inf` samples: the bucket above every finite one.
    infs: u64,
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
}

impl PercentileSink {
    /// Creates a sink whose quantiles are accurate to `relative_error`
    /// (e.g. `0.01` for 1 %).
    ///
    /// # Panics
    /// Panics unless `MIN_RELATIVE_ERROR <= relative_error < 1`.
    pub fn new(relative_error: f64) -> Self {
        assert!(
            (MIN_RELATIVE_ERROR..1.0).contains(&relative_error),
            "relative error must be in [{MIN_RELATIVE_ERROR}, 1)"
        );
        let gamma = (1.0 + relative_error) / (1.0 - relative_error);
        Self {
            gamma,
            inv_ln_gamma: 1.0 / gamma.ln(),
            lo: 0,
            buckets: Vec::new(),
            zeros: 0,
            infs: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Bucket index for a strictly positive value.
    fn index_of(&self, value: f64) -> i32 {
        (value.ln() * self.inv_ln_gamma).ceil() as i32
    }

    /// The representative value of bucket `k`: the geometric midpoint
    /// `2·gamma^k / (gamma + 1)`, which bounds the relative error at
    /// `(gamma − 1) / (gamma + 1)` — exactly the requested accuracy.
    fn value_of(&self, index: i32) -> f64 {
        2.0 * self.gamma.powi(index) / (self.gamma + 1.0)
    }

    /// Records one sample. NaN samples are ignored, matching the exact
    /// quantile's NaN filtering.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= 0.0 {
            self.zeros += 1;
        } else if value == f64::INFINITY {
            self.infs += 1;
        } else {
            let index = self.index_of(value);
            // Below the window the offset wraps to a huge `usize`, so
            // one bounds check covers both ends.
            let slot = (i64::from(index) - i64::from(self.lo)) as usize;
            match self.buckets.get_mut(slot) {
                Some(c) => *c += 1,
                None => self.add_outside(index),
            }
        }
    }

    /// The cold half of [`record`](Self::record): widen, then count.
    #[cold]
    fn add_outside(&mut self, index: i32) {
        self.cover(index, index);
        self.buckets[(index - self.lo) as usize] += 1;
    }

    /// Widens the window to cover bucket indices `from..=to`, in place
    /// (one `realloc`, so the old and new windows are never both
    /// allocated). A side that grows takes at least a quarter of the
    /// window more, and at least [`MIN_GROWTH`] buckets, so a run of
    /// widenings copies each count O(1) times; neither side reaches past
    /// the indices of the smallest subnormal and `f64::MAX`.
    fn cover(&mut self, from: i32, to: i32) {
        if self.buckets.is_empty() {
            self.lo = from;
        }
        let len = self.buckets.len() as i32;
        let (lo, hi) = (self.lo, self.lo + len - 1);
        let step = (len / 4).max(MIN_GROWTH);
        let floor = self.index_of(f64::from_bits(1)).min(from);
        let ceil = self.index_of(f64::MAX).max(to);
        let below = if from < lo { lo - from.min(lo - step).max(floor) } else { 0 };
        let above = if to > hi { to.max(hi + step).min(ceil) - hi } else { 0 };
        let grown = (len + below + above) as usize;
        self.buckets.reserve_exact(grown - len as usize);
        self.buckets.resize(grown, 0);
        self.buckets[..(len + below) as usize].rotate_right(below as usize);
        self.lo -= below;
    }

    /// The window trimmed to its first and last non-empty bucket: the
    /// index of the first and the counts from it. `None` when every
    /// bucket is empty.
    fn occupied(&self) -> Option<(i32, &[u64])> {
        let first = self.buckets.iter().position(|&c| c > 0)?;
        let last = self.buckets.iter().rposition(|&c| c > 0)?;
        Some((self.lo + first as i32, &self.buckets[first..=last]))
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) of the recorded samples, accurate
    /// to the sink's relative error.
    ///
    /// Returns `None` when empty — never a fabricated `0.0`; an
    /// all-failed run must not report rosy latencies.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the answer in the sorted samples (0-based), matching
        // the exact estimator's `q * (n - 1)` position.
        let rank = (q * (self.count - 1) as f64).round() as u64;
        if rank < self.zeros {
            return Some(0.0);
        }
        let mut seen = self.zeros;
        for (index, &c) in (self.lo..).zip(&self.buckets) {
            seen += c;
            if seen > rank {
                // Clamp to the observed extremes so q=0 / q=1 return
                // the true min/max rather than a bucket midpoint.
                return Some(self.value_of(index).clamp(self.min.max(0.0), self.max));
            }
        }
        // The rank falls among the `+inf` samples (or past the count).
        Some(self.max)
    }

    /// Several quantiles in one call, `None` when empty.
    pub fn quantiles(&self, qs: &[f64]) -> Option<Vec<f64>> {
        if self.count == 0 {
            return None;
        }
        Some(qs.iter().map(|&q| self.quantile(q).unwrap_or(self.max)).collect())
    }

    /// Merges another sink recorded at the same accuracy.
    ///
    /// # Panics
    /// Panics if the two sinks were built with different relative
    /// errors (their buckets would not line up).
    pub fn merge(&mut self, other: &PercentileSink) {
        assert_eq!(self.gamma, other.gamma, "sink accuracies differ");
        if let Some((from, counts)) = other.occupied() {
            self.cover(from, from + counts.len() as i32 - 1);
            let at = (from - self.lo) as usize;
            for (mine, &theirs) in self.buckets[at..].iter_mut().zip(counts) {
                *mine += theirs;
            }
        }
        self.zeros += other.zeros;
        self.infs += other.infs;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of non-empty buckets currently stored, the zero bucket
    /// aside: the distinct latency classes the sink has seen.
    pub fn stored_buckets(&self) -> usize {
        self.buckets.iter().filter(|&&c| c > 0).count() + usize::from(self.infs > 0)
    }
}

/// Equal when the recorded contents are: two sinks that saw the same
/// samples compare equal whatever extent their windows grew to.
impl PartialEq for PercentileSink {
    fn eq(&self, other: &Self) -> bool {
        self.gamma == other.gamma
            && self.inv_ln_gamma == other.inv_ln_gamma
            && self.occupied() == other.occupied()
            && self.zeros == other.zeros
            && self.infs == other.infs
            && self.count == other.count
            && self.min == other.min
            && self.max == other.max
            && self.sum == other.sum
    }
}

impl Default for PercentileSink {
    fn default() -> Self {
        Self::new(DEFAULT_RELATIVE_ERROR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::quantile;
    use proptest::prelude::*;

    #[test]
    fn empty_is_none_never_zero() {
        let s = PercentileSink::default();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.quantiles(&[0.5, 0.99]), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn single_sample_is_exact() {
        let mut s = PercentileSink::default();
        s.record(42.0);
        for q in [0.0, 0.5, 0.999, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!((v - 42.0).abs() / 42.0 <= 0.01, "q={q} v={v}");
        }
    }

    #[test]
    fn zeros_report_as_zero() {
        let mut s = PercentileSink::default();
        s.record(0.0);
        s.record(0.0);
        s.record(0.0);
        s.record(10.0);
        assert_eq!(s.quantile(0.5), Some(0.0));
        assert_eq!(s.min(), Some(0.0));
    }

    #[test]
    fn nan_ignored() {
        let mut s = PercentileSink::default();
        s.record(f64::NAN);
        assert!(s.is_empty());
        s.record(1.0);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn extremes_clamp_to_observed() {
        let mut s = PercentileSink::default();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
    }

    #[test]
    fn merge_matches_single_sink() {
        let mut a = PercentileSink::default();
        let mut b = PercentileSink::default();
        let mut whole = PercentileSink::default();
        for i in 0..500 {
            let v = (i as f64).mul_add(0.37, 0.01);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "accuracies differ")]
    fn merge_incompatible_panics() {
        let mut a = PercentileSink::new(0.01);
        let b = PercentileSink::new(0.02);
        a.merge(&b);
    }

    #[test]
    fn memory_stays_bounded() {
        let mut s = PercentileSink::default();
        for i in 0..1_000_000u64 {
            // Ten decades of values, a million samples.
            s.record(1e-5 * 1.000_023f64.powi((i % 500_000) as i32));
        }
        assert_eq!(s.count(), 1_000_000);
        assert!(s.stored_buckets() < 3000, "buckets={}", s.stored_buckets());
    }

    /// The order statistics bracketing the exact `q`-quantile: the
    /// interpolated estimator lands between these two samples, so the
    /// sink's answer must land within relative error of that bracket.
    fn bracket(samples: &[f64], q: f64) -> (f64, f64) {
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        (v[pos.floor() as usize], v[pos.ceil() as usize])
    }

    fn assert_within(samples: &[f64], q: f64, approx: f64, err: f64) {
        let (lo, hi) = bracket(samples, q);
        assert!(
            approx >= lo * (1.0 - err) - 1e-12 && approx <= hi * (1.0 + err) + 1e-12,
            "q={q}: approx {approx} outside [{lo}, {hi}] ± {err}"
        );
    }

    /// Shared check: every requested quantile within the advertised
    /// relative error of the exact estimator's bracketing samples.
    fn assert_close(samples: &[f64], err: f64) {
        let mut s = PercentileSink::new(err);
        for &x in samples {
            s.record(x);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert!(quantile(samples, q).is_some());
            assert_within(samples, q, s.quantile(q).unwrap(), err);
        }
    }

    #[test]
    fn tracks_exact_quantile_uniform() {
        let samples: Vec<f64> = (1..=10_000).map(|i| i as f64 * 0.01).collect();
        assert_close(&samples, 0.01);
    }

    #[test]
    fn tracks_exact_quantile_heavy_tail() {
        // Mixture: many sub-millisecond hits, a tail of slow requests.
        let samples: Vec<f64> =
            (0..5000)
                .map(|i| {
                    if i % 100 == 0 {
                        50.0 + i as f64 * 0.01
                    } else {
                        0.05 + (i % 7) as f64 * 0.001
                    }
                })
                .collect();
        assert_close(&samples, 0.01);
    }

    proptest! {
        #[test]
        fn quantiles_track_exact(
            xs in prop::collection::vec(1e-4f64..1e3, 1..400),
            q in 0f64..1.0,
        ) {
            let mut s = PercentileSink::default();
            for &x in &xs { s.record(x); }
            prop_assert!(quantile(&xs, q).is_some());
            let approx = s.quantile(q).unwrap();
            let (lo, hi) = bracket(&xs, q);
            prop_assert!(
                approx >= lo * 0.99 - 1e-12 && approx <= hi * 1.01 + 1e-12,
                "q={} approx={} bracket=[{}, {}]", q, approx, lo, hi,
            );
        }

        #[test]
        fn quantile_monotone(xs in prop::collection::vec(0f64..1e4, 1..300)) {
            let mut s = PercentileSink::default();
            for &x in &xs { s.record(x); }
            let v = s.quantiles(&[0.25, 0.5, 0.75, 0.99]).unwrap();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    /// The sink as it was stored before the dense window: a `BTreeMap`
    /// of touched buckets, with the same index map and quantile walk.
    struct MapSink {
        gamma: f64,
        buckets: std::collections::BTreeMap<i32, u64>,
        zeros: u64,
        count: u64,
        min: f64,
        max: f64,
        sum: f64,
    }

    impl MapSink {
        fn new() -> Self {
            let gamma = 1.01 / 0.99;
            let (min, max) = (f64::INFINITY, f64::NEG_INFINITY);
            Self { gamma, buckets: Default::default(), zeros: 0, count: 0, min, max, sum: 0.0 }
        }
        fn record(&mut self, v: f64) {
            if v.is_nan() {
                return;
            }
            (self.count, self.sum) = (self.count + 1, self.sum + v);
            (self.min, self.max) = (self.min.min(v), self.max.max(v));
            if v <= 0.0 {
                self.zeros += 1;
            } else {
                let k = (v.ln() * (1.0 / self.gamma.ln())).ceil() as i32;
                *self.buckets.entry(k).or_insert(0) += 1;
            }
        }
        fn merge(&mut self, o: &MapSink) {
            for (&k, &c) in &o.buckets {
                *self.buckets.entry(k).or_insert(0) += c;
            }
            (self.zeros, self.count, self.sum) =
                (self.zeros + o.zeros, self.count + o.count, self.sum + o.sum);
            (self.min, self.max) = (self.min.min(o.min), self.max.max(o.max));
        }
        fn quantile(&self, q: f64) -> Option<f64> {
            let rank = (q.clamp(0.0, 1.0) * (self.count.checked_sub(1)? as f64)).round() as u64;
            if rank < self.zeros {
                return Some(0.0);
            }
            let mut seen = self.zeros;
            for (&k, &c) in &self.buckets {
                seen += c;
                if seen > rank {
                    let mid = 2.0 * self.gamma.powi(k) / (self.gamma + 1.0);
                    return Some(mid.clamp(self.min.max(0.0), self.max));
                }
            }
            Some(self.max)
        }
    }

    /// Every observable of the dense sink equals the map's, bit for bit.
    fn assert_same(dense: &PercentileSink, map: &MapSink) -> Result<(), TestCaseError> {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        let n = map.count;
        prop_assert_eq!(dense.count(), n);
        prop_assert_eq!(dense.sum().to_bits(), map.sum.to_bits());
        prop_assert_eq!(bits(dense.min()), bits((n > 0).then_some(map.min)));
        prop_assert_eq!(bits(dense.max()), bits((n > 0).then_some(map.max)));
        prop_assert_eq!(bits(dense.mean()), bits((n > 0).then(|| map.sum / n as f64)));
        prop_assert_eq!(dense.stored_buckets(), map.buckets.len());
        for i in 0..=40 {
            let q = f64::from(i) / 40.0;
            prop_assert_eq!(bits(dense.quantile(q)), bits(map.quantile(q)), "q={}", q);
        }
        for q in [0.999, 0.9999, -1.0, 2.0] {
            prop_assert_eq!(bits(dense.quantile(q)), bits(map.quantile(q)), "q={}", q);
        }
        Ok(())
    }

    /// Samples from every region the index map treats differently.
    fn any_sample() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            -1e300f64..0.0,
            Just(f64::NAN),
            (1u64..1 << 52).prop_map(f64::from_bits),
            Just(f64::MIN_POSITIVE),
            (0.5f64..1.0).prop_map(|x| x * f64::MAX),
            Just(f64::MAX),
            Just(f64::INFINITY),
            1e-6f64..1e6,
            1e-3f64..1e2,
        ]
    }

    use proptest::test_runner::TestCaseError;

    proptest! {
        #[test]
        fn the_dense_window_equals_a_bucket_map_bit_for_bit(
            xs in prop::collection::vec(any_sample(), 0..120),
            ys in prop::collection::vec(any_sample(), 0..120),
        ) {
            let (mut a, mut b) = (PercentileSink::default(), PercentileSink::default());
            let (mut ma, mut mb) = (MapSink::new(), MapSink::new());
            for &x in &xs { a.record(x); ma.record(x); }
            for &y in &ys { b.record(y); mb.record(y); }
            assert_same(&a, &ma)?;
            assert_same(&b, &mb)?;

            // Merges in both orders, and into an empty sink.
            let (mut ab, mut mab) = (a.clone(), MapSink::new());
            ab.merge(&b);
            mab.merge(&ma);
            mab.merge(&mb);
            assert_same(&ab, &mab)?;
            let (mut ba, mut mba) = (b.clone(), MapSink::new());
            ba.merge(&a);
            mba.merge(&mb);
            mba.merge(&ma);
            assert_same(&ba, &mba)?;
            let mut empty = PercentileSink::default();
            empty.merge(&a);
            assert_same(&empty, &ma)?;

            // Equality is content, not extent: the sink that saw every
            // sample one by one equals the merged one.
            let mut whole = PercentileSink::default();
            for &x in xs.iter().chain(&ys) { whole.record(x); }
            let bits = |s: &PercentileSink| s.sum().to_bits();
            if bits(&whole) == bits(&ab) && !whole.sum().is_nan() {
                prop_assert_eq!(&whole, &ab);
            }
        }
    }

    #[test]
    fn the_window_stays_under_the_stated_worst_case() {
        // The module doc's bound at the default accuracy.
        const WORST_CASE_BYTES: usize = 581_672;
        let s = PercentileSink::default();
        let span = s.index_of(f64::MAX) - s.index_of(f64::from_bits(1)) + 1;
        assert_eq!(span as usize * 8, WORST_CASE_BYTES, "the doc's bound is the index span");

        let mut s = PercentileSink::default();
        s.record(f64::MIN_POSITIVE);
        s.record(f64::MAX);
        assert_eq!(s.stored_buckets(), 2);
        assert!(s.buckets.capacity() * 8 <= WORST_CASE_BYTES);

        // Widening one bucket at a time from the top down and the
        // bottom up stays under it too, however far the doubling reaches.
        let ladder: Vec<f64> = std::iter::successors(Some(f64::MAX), |&v| Some(v / 2.0))
            .take_while(|&v| v > 0.0)
            .collect();
        let (mut down, mut up) = (PercentileSink::default(), PercentileSink::default());
        ladder.iter().for_each(|&v| down.record(v));
        ladder.iter().rev().for_each(|&v| up.record(v));
        for s in [&down, &up] {
            assert!(s.buckets.capacity() * 8 <= WORST_CASE_BYTES, "{}", s.buckets.capacity());
        }
        assert_eq!(down, up, "the same samples in opposite orders");
    }
}
