//! The statistical model behind the measurement engine.
//!
//! Each benchmark produces `sample_size` samples; a sample is the mean
//! per-iteration time of a calibrated batch of iterations. Samples are
//! summarized robustly:
//!
//! - the **median** is the central estimate (not the mean — a single
//!   scheduler hiccup would drag a mean arbitrarily far),
//! - samples outside the Tukey fences `[Q1 - 1.5·IQR, Q3 + 1.5·IQR]`
//!   are rejected as outliers before the location estimates are taken,
//! - spread is the **MAD** (median absolute deviation) of the kept
//!   samples, scaled by 1.4826 so it estimates a standard deviation
//!   under normality.

use std::time::Duration;

/// Robust summary of one benchmark's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Number of samples collected (before outlier rejection).
    pub samples: usize,
    /// Iterations timed per sample.
    pub iters_per_sample: u64,
    /// Samples rejected by the Tukey IQR fences.
    pub outliers_rejected: usize,
    /// Median per-iteration time of the kept samples, nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time of the kept samples, nanoseconds.
    pub mean_ns: f64,
    /// Normal-consistent MAD (1.4826 · median |x - median|) of the kept
    /// samples, nanoseconds.
    pub mad_ns: f64,
    /// Fastest sample (including outliers), nanoseconds.
    pub min_ns: f64,
    /// Slowest sample (including outliers), nanoseconds.
    pub max_ns: f64,
    /// Wall time actually spent in the measurement loop.
    pub total_time: Duration,
}

impl Stats {
    /// Summarizes per-iteration sample times (nanoseconds).
    ///
    /// # Panics
    /// Panics if `sample_ns` is empty — a benchmark always produces at
    /// least one sample.
    pub fn from_samples(sample_ns: &[f64], iters_per_sample: u64, total_time: Duration) -> Self {
        assert!(!sample_ns.is_empty(), "no samples collected");
        let mut sorted = sample_ns.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));

        let q1 = percentile(&sorted, 0.25);
        let q3 = percentile(&sorted, 0.75);
        let iqr = q3 - q1;
        let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
        let kept: Vec<f64> = sorted.iter().copied().filter(|&x| x >= lo && x <= hi).collect();
        // The fences always keep the inter-quartile half, so `kept` is
        // non-empty whenever `sorted` is.
        let median = percentile(&kept, 0.5);
        let mean = kept.iter().sum::<f64>() / kept.len() as f64;
        let mut deviations: Vec<f64> = kept.iter().map(|x| (x - median).abs()).collect();
        deviations.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mad = 1.4826 * percentile(&deviations, 0.5);

        Stats {
            samples: sorted.len(),
            iters_per_sample,
            outliers_rejected: sorted.len() - kept.len(),
            median_ns: median,
            mean_ns: mean,
            mad_ns: mad,
            min_ns: sorted[0],
            max_ns: sorted[sorted.len() - 1],
            total_time,
        }
    }
}

/// Linear-interpolation percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        let s = Stats::from_samples(&[3.0, 1.0, 2.0], 1, Duration::ZERO);
        assert_eq!(s.median_ns, 2.0);
        let s = Stats::from_samples(&[1.0, 2.0, 3.0, 4.0], 1, Duration::ZERO);
        assert_eq!(s.median_ns, 2.5);
    }

    #[test]
    fn outlier_is_rejected_and_does_not_move_the_median() {
        let mut xs = vec![10.0; 19];
        xs.push(10_000.0); // one wild sample
        let s = Stats::from_samples(&xs, 1, Duration::ZERO);
        assert_eq!(s.outliers_rejected, 1);
        assert_eq!(s.median_ns, 10.0);
        assert_eq!(s.mean_ns, 10.0, "mean over kept samples only");
        assert_eq!(s.max_ns, 10_000.0, "extremes still reported");
    }

    #[test]
    fn tight_samples_have_zero_mad() {
        let s = Stats::from_samples(&[5.0; 10], 7, Duration::from_secs(1));
        assert_eq!(s.mad_ns, 0.0);
        assert_eq!(s.iters_per_sample, 7);
        assert_eq!(s.outliers_rejected, 0);
    }

    #[test]
    fn mad_tracks_spread() {
        // Symmetric spread around 100: deviations are all 10.
        let s = Stats::from_samples(&[90.0, 90.0, 100.0, 110.0, 110.0], 1, Duration::ZERO);
        assert!((s.mad_ns - 14.826).abs() < 1e-9, "mad {}", s.mad_ns);
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = Stats::from_samples(&[42.0], 3, Duration::ZERO);
        assert_eq!(s.median_ns, 42.0);
        assert_eq!(s.min_ns, 42.0);
        assert_eq!(s.max_ns, 42.0);
        assert_eq!(s.mad_ns, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 0.25), 2.5);
        assert_eq!(percentile(&xs, 0.5), 5.0);
    }
}
