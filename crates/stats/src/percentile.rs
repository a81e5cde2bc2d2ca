//! Exact quantiles over recorded sample vectors.
//!
//! The bench harness keeps full sample vectors for the smaller
//! experiments (Tables 5–6 have at most a few hundred requests), where
//! exact order statistics are affordable and preferable to the bucketed
//! approximation in [`crate::sink`].

/// Returns the `q`-quantile (`0 ≤ q ≤ 1`) of `samples` using linear
/// interpolation between closest ranks (the "type 7" estimator used by
/// NumPy and R).
///
/// Returns `None` for an empty slice. NaN samples are rejected by
/// sorting with a total order that places NaN last, then ignoring them.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    Some(quantile_sorted(&v, q))
}

/// `quantile` over a slice already sorted ascending (no NaNs).
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Convenience: several quantiles in one sort.
pub fn quantiles(samples: &[f64], qs: &[f64]) -> Option<Vec<f64>> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    Some(qs.iter().map(|&q| quantile_sorted(&v, q)).collect())
}

/// Median absolute deviation, a robust spread measure used by the bench
/// harness to flag noisy runs before printing a table.
pub fn median_abs_deviation(samples: &[f64]) -> Option<f64> {
    let med = quantile(samples, 0.5)?;
    let dev: Vec<f64> = samples.iter().map(|x| (x - med).abs()).collect();
    quantile(&dev, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantiles(&[], &[0.5]), None);
        assert_eq!(median_abs_deviation(&[]), None);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[42.0], 0.0), Some(42.0));
        assert_eq!(quantile(&[42.0], 0.5), Some(42.0));
        assert_eq!(quantile(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn median_of_odd() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn median_of_even_interpolates() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.5));
    }

    #[test]
    fn interpolated_quartile() {
        // type-7 estimator over [1,2,3,4]: q=0.25 -> pos 0.75 -> 1.75
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), Some(1.75));
    }

    #[test]
    fn nan_ignored() {
        assert_eq!(quantile(&[1.0, f64::NAN, 3.0], 0.5), Some(2.0));
    }

    #[test]
    fn all_nan_is_none() {
        assert_eq!(quantile(&[f64::NAN, f64::NAN], 0.5), None);
    }

    #[test]
    fn quantiles_batch_matches_single() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0];
        let qs = quantiles(&xs, &[0.0, 0.5, 1.0]).unwrap();
        assert_eq!(qs[0], quantile(&xs, 0.0).unwrap());
        assert_eq!(qs[1], quantile(&xs, 0.5).unwrap());
        assert_eq!(qs[2], quantile(&xs, 1.0).unwrap());
    }

    #[test]
    fn mad_of_constant_is_zero() {
        assert_eq!(median_abs_deviation(&[4.0, 4.0, 4.0]), Some(0.0));
    }

    proptest! {
        #[test]
        fn quantile_bounded(xs in prop::collection::vec(-1e6f64..1e6, 1..200), q in 0f64..1.0) {
            let v = quantile(&xs, q).unwrap();
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(min <= v && v <= max);
        }

        #[test]
        fn quantile_monotone_in_q(xs in prop::collection::vec(-1e6f64..1e6, 1..200),
                                  a in 0f64..1.0, b in 0f64..1.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let va = quantile(&xs, lo).unwrap();
            let vb = quantile(&xs, hi).unwrap();
            prop_assert!(va <= vb + 1e-9);
        }

        #[test]
        fn q0_is_min_q1_is_max(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(quantile(&xs, 0.0).unwrap(), min);
            prop_assert_eq!(quantile(&xs, 1.0).unwrap(), max);
        }
    }
}
