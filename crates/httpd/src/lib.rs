//! # clio-httpd — the multithreaded web-server micro benchmark
//!
//! The paper's third benchmark is "a multi-threaded web server that
//! intensively issues read and write operations to a local disk":
//! a main thread accepts connections and spawns one thread per client;
//! `GET` reads the requested file and returns it, `POST` writes the
//! request body to a freshly named file (no synchronization needed);
//! the time of each read and write is measured around the managed
//! stream calls.
//!
//! This crate is that server, faithfully re-created:
//!
//! - [`http`] — a minimal, panic-free HTTP/1.0 request parser and
//!   response builder,
//! - [`files`] — the document root with the paper's exact file sizes
//!   (7 501, 14 063 and 50 607 bytes),
//! - [`timing`] — per-request measurement records (real wall time and
//!   the simulated SSCLI cost from [`clio_runtime`]),
//! - [`server`] — the thread-per-connection server (paper default port
//!   5050; tests bind port 0),
//! - [`client`] — a load-generating client for the benches.

#![warn(missing_docs)]
// Library code reports failures; tests may assert with unwrap or
// expect. (CI runs clippy with -D warnings, so these warns are a hard
// gate there.)
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]

pub mod client;
pub mod files;
pub mod http;
pub mod server;
pub mod timing;

pub use client::{get, post};
pub use server::{Server, ServerConfig, ServerMode};
pub use timing::{OpKind, RequestTiming, TimingLog};

/// Whether real-socket tests and benches are enabled.
///
/// The server binds actual TCP sockets and several tests measure real
/// wall clocks — the most plausible CI flake in the suite. The default
/// tier-1 run therefore covers only the deterministic SSCLI-model
/// path; set `CLIO_SOCKET_TESTS=1` to opt the socket tests in
/// (anything but `0` counts as enabled).
pub fn socket_tests_enabled() -> bool {
    std::env::var_os("CLIO_SOCKET_TESTS").is_some_and(|v| v != "0")
}

/// Returns early from the current test unless [`socket_tests_enabled`],
/// logging the skip so test output shows what was gated.
#[macro_export]
macro_rules! skip_unless_socket_tests {
    () => {
        if !$crate::socket_tests_enabled() {
            eprintln!("skipped: real-socket test (set CLIO_SOCKET_TESTS=1 to run)");
            return;
        }
    };
}
