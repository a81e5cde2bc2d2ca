//! # clio-stats — measurement kit for the CLI I/O benchmark suite
//!
//! The paper measures every benchmark with a high-resolution counter
//! (`QueryPerformanceCounter` on Windows XP) and reports results as tables
//! of per-operation times, percentage splits, speedup curves and
//! trial-number series. This crate is the portable equivalent:
//!
//! - [`timer`] — monotonic stopwatches and named scoped timers,
//! - [`summary`] — streaming mean/variance/min/max (Welford),
//! - [`percentile`] — exact quantiles over recorded samples,
//! - [`sink`] — streaming percentile sink (O(1) memory, bounded error),
//! - [`speedup`] — speedup-versus-resources series (Figures 4 and 5),
//! - [`series`] — (trial, value) series (Figure 6),
//! - [`table`] — paper-style ASCII tables (Tables 1–6).
//!
//! Everything here is deliberately dependency-light so that the
//! simulation substrates can embed it without pulling in I/O machinery.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod percentile;
pub mod series;
pub mod sink;
pub mod speedup;
pub mod summary;
pub mod table;
pub mod timer;

pub use percentile::{quantile, quantiles};
pub use series::Series;
pub use sink::PercentileSink;
pub use speedup::SpeedupCurve;
pub use summary::Summary;
pub use table::Table;
pub use timer::{Stopwatch, Timed};
