//! # clio-runtime — the managed-runtime cost model of the paper's §4
//!
//! The paper benchmarks I/O *through* the Common Language
//! Infrastructure: managed code, JIT-compiled on first call, performing
//! file I/O through managed stream classes. Two CLI-specific effects
//! show up in its measurements:
//!
//! 1. **JIT warmup** — "there is a delay caused by the JIT compiler when
//!    the web server is handling the first read or write request …
//!    functions are compiled only when they are required", and
//! 2. **managed stream overhead** — every I/O call crosses the managed
//!    dispatch boundary before reaching the OS buffers.
//!
//! The SSCLI itself is not portable (or available), so this crate
//! models the mechanisms as costs and nothing else — it executes no
//! managed code; a method is a name and an instruction count:
//!
//! - [`jit`] — a first-call compilation cost model with per-method
//!   caching (warm methods never pay again),
//! - [`stream`] — the managed-FileStream facade whose operation costs
//!   combine JIT charges, managed dispatch overhead and the buffer
//!   cache from [`clio_cache`].
//!
//! ```
//! use clio_cache::cache::CacheConfig;
//! use clio_runtime::{JitModel, SharedManagedIo, DO_GET_OPS};
//!
//! let io = SharedManagedIo::new(CacheConfig::default(), 1, JitModel::sscli_like());
//! let img = io.register_file("img.jpg");
//! let first = io.read("doGet", DO_GET_OPS, img, 0, 14_063);
//! let warm = io.read("doGet", DO_GET_OPS, img, 0, 14_063);
//! assert!(first.jit_ms > 0.0 && first.pages_missed > 0);
//! assert_eq!((warm.jit_ms, warm.pages_missed), (0.0, 0));
//! ```

#![warn(missing_docs)]
// Library code reports failures; tests may assert with unwrap or
// expect. (CI runs clippy with -D warnings, so these warns are a hard
// gate there.)
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]

pub mod jit;
pub mod stream;

pub use jit::{JitModel, SharedJit};
pub use stream::{SharedManagedIo, StreamOp, DO_GET_OPS, DO_POST_OPS, FILE_HELPER_OPS};
