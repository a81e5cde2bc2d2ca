//! # clio-apps — the five traced I/O-intensive applications
//!
//! The paper's trace-driven benchmark replays traces of five real
//! applications collected at the University of Maryland: data mining
//! (Dmine), parallel text search (Pgrep), out-of-core LU decomposition
//! (LU), the Titan remote-sensing database, and sparse Cholesky
//! factorization (Cholesky). Those trace files are not publicly
//! available, so this crate *re-creates the applications themselves* —
//! real, tested implementations of each algorithm that perform their
//! I/O through an instrumented file layer ([`instrument::TracedStore`]),
//! regenerating traces of the same kind:
//!
//! - [`dmine`] — Apriori association-rule mining over an out-of-core
//!   transaction file (repeated sequential scans),
//! - [`pgrep`] — approximate pattern matching (the bitap algorithm of
//!   Wu & Manber's agrep) over chunked file text, searched in parallel,
//! - [`lu`] — blocked out-of-core LU factorization with partial
//!   pivoting (panel reads, trailing-matrix updates, large seeks),
//! - [`titan`] — a tiled remote-sensing raster store with spatial range
//!   queries (index seeks + scattered tile reads),
//! - [`cholesky`] — left-looking sparse Cholesky factorization with
//!   out-of-core column storage (growing dependent-column read sets).
//!
//! Each module also exposes a `paper_trace()` constructor that emits a
//! trace with the exact request sizes the paper's Tables 1–4 print, so
//! the table-regeneration benches replay the very byte counts the
//! original evaluation used.

#![warn(missing_docs)]

pub mod cholesky;
pub mod datagen;
pub mod dmine;
pub mod instrument;
pub mod lu;
pub mod pgrep;
pub mod titan;

pub use instrument::TracedStore;
