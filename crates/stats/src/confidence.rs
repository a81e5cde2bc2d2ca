//! Confidence intervals for measured means.
//!
//! The paper attributes its <10 % simulation error to "system
//! instabilities and non-dedicated environment" — exactly the
//! uncertainty a confidence interval quantifies. The bench binaries
//! report `mean ± half-width` at 95 % or 99 % using Student's t for
//! small samples (critical values tabulated for df ≤ 30, the normal
//! approximation beyond).

use crate::summary::Summary;

/// Supported confidence levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// 95 % two-sided.
    P95,
    /// 99 % two-sided.
    P99,
}

/// Two-sided Student-t critical values, df = 1..=30.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];
const T99: [f64; 30] = [
    63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
    2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
    2.771, 2.763, 2.756, 2.750,
];
const Z95: f64 = 1.960;
const Z99: f64 = 2.576;

/// The critical value for `df` degrees of freedom at `level`.
pub fn t_critical(df: u64, level: Level) -> f64 {
    let (table, z) = match level {
        Level::P95 => (&T95, Z95),
        Level::P99 => (&T99, Z99),
    };
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        table[(df - 1) as usize]
    } else {
        z
    }
}

/// A symmetric confidence interval around a mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The sample mean.
    pub mean: f64,
    /// Half-width: the interval is `mean ± half_width`.
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// Lower bound.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `value` falls inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (self.low()..=self.high()).contains(&value)
    }

    /// Relative half-width (half-width / |mean|); `None` on zero mean.
    pub fn relative(&self) -> Option<f64> {
        (self.mean != 0.0).then(|| self.half_width / self.mean.abs())
    }
}

/// Computes the confidence interval of a summary's mean.
///
/// Returns `None` with fewer than 2 samples (the sample variance is
/// undefined).
pub fn confidence_interval(summary: &Summary, level: Level) -> Option<ConfidenceInterval> {
    let n = summary.count();
    if n < 2 {
        return None;
    }
    let mean = summary.mean()?;
    let s2 = summary.sample_variance()?;
    let se = (s2 / n as f64).sqrt();
    let t = t_critical(n - 1, level);
    Some(ConfidenceInterval { mean, half_width: t * se })
}

/// Formats a value with its 95 % interval: `"12.34 ± 0.56"`.
pub fn fmt_with_ci(summary: &Summary) -> String {
    match confidence_interval(summary, Level::P95) {
        Some(ci) => format!("{:.4} ± {:.4}", ci.mean, ci.half_width),
        None => match summary.mean() {
            Some(m) => format!("{m:.4} (n=1)"),
            None => "n/a".into(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_values_sane() {
        assert_eq!(t_critical(1, Level::P95), 12.706);
        assert_eq!(t_critical(30, Level::P95), 2.042);
        assert_eq!(t_critical(1000, Level::P95), Z95);
        assert_eq!(t_critical(5, Level::P99), 4.032);
        assert_eq!(t_critical(0, Level::P95), f64::INFINITY);
        // t shrinks toward z as df grows.
        for df in 1..60 {
            assert!(t_critical(df, Level::P95) >= t_critical(df + 1, Level::P95) - 1e-12);
            assert!(t_critical(df, Level::P99) > t_critical(df, Level::P95));
        }
    }

    #[test]
    fn interval_for_known_sample() {
        // Samples 1..=5: mean 3, sample variance 2.5, se = sqrt(0.5).
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let ci = confidence_interval(&s, Level::P95).unwrap();
        assert_eq!(ci.mean, 3.0);
        let expect = 2.776 * (2.5f64 / 5.0).sqrt();
        assert!((ci.half_width - expect).abs() < 1e-9);
        assert!(ci.contains(3.0));
        assert!(!ci.contains(100.0));
        assert!(ci.low() < ci.high());
    }

    #[test]
    fn constant_samples_zero_width() {
        let s = Summary::from_samples(&[7.0; 10]);
        let ci = confidence_interval(&s, Level::P99).unwrap();
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.relative(), Some(0.0));
    }

    #[test]
    fn too_few_samples() {
        assert!(confidence_interval(&Summary::new(), Level::P95).is_none());
        assert!(confidence_interval(&Summary::from_samples(&[1.0]), Level::P95).is_none());
    }

    #[test]
    fn wider_at_higher_confidence() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        let p95 = confidence_interval(&s, Level::P95).unwrap();
        let p99 = confidence_interval(&s, Level::P99).unwrap();
        assert!(p99.half_width > p95.half_width);
    }

    #[test]
    fn more_samples_narrow_the_interval() {
        // Same spread, more data: the interval tightens.
        let few: Vec<f64> = (0..6).map(|i| (i % 2) as f64).collect();
        let many: Vec<f64> = (0..600).map(|i| (i % 2) as f64).collect();
        let ci_few = confidence_interval(&Summary::from_samples(&few), Level::P95).unwrap();
        let ci_many = confidence_interval(&Summary::from_samples(&many), Level::P95).unwrap();
        assert!(ci_many.half_width < ci_few.half_width / 3.0);
    }

    #[test]
    fn formatting() {
        let s = Summary::from_samples(&[2.0, 2.0, 2.0]);
        assert_eq!(fmt_with_ci(&s), "2.0000 ± 0.0000");
        assert_eq!(fmt_with_ci(&Summary::from_samples(&[1.5])), "1.5000 (n=1)");
        assert_eq!(fmt_with_ci(&Summary::new()), "n/a");
    }

    #[test]
    fn relative_width() {
        let ci = ConfidenceInterval { mean: 10.0, half_width: 1.0 };
        assert_eq!(ci.relative(), Some(0.1));
        let zero = ConfidenceInterval { mean: 0.0, half_width: 1.0 };
        assert_eq!(zero.relative(), None);
    }
}
