//! The JIT warmup cost model.
//!
//! "Functions are compiled only when they are required" — the SSCLI
//! JIT-compiles a method on its first invocation, which the paper
//! identifies as one reason the web server's first request is slowest
//! (Table 6, Fig. 6). [`SharedJit`] charges a per-method compilation
//! cost exactly once; subsequent invocations are free.
//!
//! The table is shared by every worker thread of a server: it is
//! striped across several read-write locks and the per-method call
//! counter is atomic. A caller that knows its methods up front
//! [`resolve`](SharedJit::resolve)s each once into a [`JitMethod`]
//! handle, and a warm call through the handle is one `fetch_add` on
//! the method's own cache line: no lock, no hashing, no `Arc` traffic.
//! A call by name ([`SharedJit::invoke`]) resolves and then calls
//! through the handle, so there is one charging path. Whichever
//! caller's increment observes call number zero pays the compile cost
//! of *its* call, exactly once per method, whichever entry point it
//! came through.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Compilation cost parameters (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitModel {
    /// Fixed cost of entering the JIT for a method.
    pub base_ms: f64,
    /// Additional cost per bytecode instruction.
    pub per_op_ms: f64,
}

impl JitModel {
    /// Constants calibrated so a few-hundred-op handler costs a couple
    /// of milliseconds to compile — the magnitude gap between the first
    /// and warm requests in the paper's Table 6.
    pub fn sscli_like() -> Self {
        Self { base_ms: 1.2, per_op_ms: 0.01 }
    }

    /// A zero-cost model (ablation: CLI without JIT warmup, i.e. an
    /// ahead-of-time-compiled runtime).
    pub fn precompiled() -> Self {
        Self { base_ms: 0.0, per_op_ms: 0.0 }
    }

    /// A HotSpot-style model for the paper's future-work comparison
    /// ("evaluate performance of the benchmarks ... on other virtual
    /// machines like java virtual machine"): interpretation starts
    /// instantly (tiny base) but the optimizing compile of a hot method
    /// is charged up front here, making first calls costlier per op.
    pub fn jvm_like() -> Self {
        Self { base_ms: 0.4, per_op_ms: 0.025 }
    }

    /// Compile cost for a method of `ops` instructions.
    pub fn compile_cost(&self, ops: usize) -> f64 {
        self.base_ms + self.per_op_ms * ops as f64
    }
}

impl Default for JitModel {
    fn default() -> Self {
        Self::sscli_like()
    }
}

/// Number of lock stripes in [`SharedJit`]. Methods hash across these
/// with a deterministic FNV-1a hash, so stripe assignment is stable
/// across runs and platforms.
const JIT_STRIPES: usize = 16;

/// FNV-1a over the method name — small, deterministic, and independent
/// of the standard library's randomized `HashMap` hasher.
fn stripe_of(method: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in method.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % JIT_STRIPES as u64) as usize
}

/// One method's call counter, padded out to a cache line.
///
/// Hot methods are incremented from every worker thread on every
/// request; without the alignment, counters allocated back-to-back
/// share a 64-byte line and each `fetch_add` invalidates the line for
/// every other hot method's owner core (false sharing). The padding
/// costs 56 bytes per *method* — a one-time, bounded overhead — and
/// keeps each hot counter's ping-ponging confined to its own line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct MethodCounter(AtomicU64);

/// A method resolved once against a [`SharedJit`]: its call counter and
/// the compile cost its first call is billed.
///
/// A handle belongs to the table that resolved it; calls through it
/// count towards that table's [`calls`](SharedJit::calls) for the name.
#[derive(Debug)]
pub struct JitMethod {
    counter: Arc<MethodCounter>,
    compile_ms: f64,
}

impl JitMethod {
    /// Charges one invocation: the compile cost if this is the method's
    /// first call through any handle or name (exactly one caller pays
    /// it, even under contention), zero afterwards.
    #[inline]
    pub fn invoke(&self) -> f64 {
        if self.counter.0.fetch_add(1, Ordering::AcqRel) == 0 {
            self.compile_ms
        } else {
            0.0
        }
    }
}

/// Per-runtime JIT cache: which methods have been compiled, and what
/// each invocation costs. Shareable across threads without a global
/// mutex.
///
/// The method table is striped over 16 read-write locks; each method's
/// call count is a cache-line-padded atomic behind an `Arc`, which a
/// [`JitMethod`] holds on to, so a warm call through a handle touches
/// one atomic on a line no other method shares. Resolving takes the
/// stripe's read lock, or its write lock just long enough to insert a
/// cold counter; the compile cost itself is charged by whichever
/// caller's `fetch_add` returns zero — exactly one per method.
#[derive(Debug)]
pub struct SharedJit {
    model: JitModel,
    stripes: Vec<RwLock<HashMap<String, Arc<MethodCounter>>>>,
}

impl SharedJit {
    /// Creates an empty (fully cold) concurrent JIT cache.
    pub fn new(model: JitModel) -> Self {
        Self { model, stripes: (0..JIT_STRIPES).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    /// The call counter for `method`, inserting a cold entry if needed.
    fn counter(&self, method: &str) -> Arc<MethodCounter> {
        let stripe = &self.stripes[stripe_of(method)];
        if let Some(c) = stripe.read().get(method) {
            return Arc::clone(c);
        }
        Arc::clone(stripe.write().entry(method.to_string()).or_default())
    }

    /// Resolves `method` (a body of `ops` instructions) into a handle,
    /// inserting a cold entry if the table has none. Charges nothing:
    /// the method stays cold until its first invocation.
    pub fn resolve(&self, method: &str, ops: usize) -> JitMethod {
        JitMethod { counter: self.counter(method), compile_ms: self.model.compile_cost(ops) }
    }

    /// Charges one invocation of `method` (a body of `ops`
    /// instructions): [`resolve`](Self::resolve), then
    /// [`JitMethod::invoke`]. Returns the JIT cost in ms: the compile
    /// cost on the first call (exactly one caller pays it, even under
    /// contention), zero afterwards.
    pub fn invoke(&self, method: &str, ops: usize) -> f64 {
        self.resolve(method, ops).invoke()
    }

    /// Whether a method has been compiled already.
    pub fn is_warm(&self, method: &str) -> bool {
        self.stripes[stripe_of(method)]
            .read()
            .get(method)
            .is_some_and(|c| c.0.load(Ordering::Acquire) > 0)
    }

    /// Number of invocations of a method so far.
    pub fn calls(&self, method: &str) -> u64 {
        self.stripes[stripe_of(method)]
            .read()
            .get(method)
            .map_or(0, |c| c.0.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_call_pays_then_free() {
        let jit = SharedJit::new(JitModel::sscli_like());
        let first = jit.invoke("doGet", 200);
        let second = jit.invoke("doGet", 200);
        assert!(first > 1.0, "first call pays compile cost: {first}");
        assert_eq!(second, 0.0);
        assert!(jit.is_warm("doGet"));
        assert_eq!(jit.calls("doGet"), 2);
    }

    #[test]
    fn per_method_isolation() {
        let jit = SharedJit::new(JitModel::sscli_like());
        jit.invoke("doGet", 100);
        let other = jit.invoke("doPost", 100);
        assert!(other > 0.0, "doPost compiles separately");
    }

    #[test]
    fn cost_scales_with_method_size() {
        let m = JitModel::sscli_like();
        assert!(m.compile_cost(1000) > m.compile_cost(10));
        assert_eq!(m.compile_cost(0), m.base_ms);
    }

    #[test]
    fn jvm_like_differs_from_sscli() {
        let jvm = JitModel::jvm_like();
        let sscli = JitModel::sscli_like();
        // Small methods: the SSCLI's fixed JIT entry dominates.
        assert!(jvm.compile_cost(10) < sscli.compile_cost(10));
        // Large methods: the optimizing compile costs more per op.
        assert!(jvm.compile_cost(1000) > sscli.compile_cost(1000));
    }

    #[test]
    fn precompiled_model_is_free() {
        let jit = SharedJit::new(JitModel::precompiled());
        assert_eq!(jit.invoke("anything", 10_000), 0.0);
    }

    #[test]
    fn cold_method_reports() {
        let jit = SharedJit::new(JitModel::default());
        assert!(!jit.is_warm("never"));
        assert_eq!(jit.calls("never"), 0);
    }

    #[test]
    fn shared_jit_charges_follow_the_recorded_table() {
        // sscli_like: 1.2 ms + 0.01 ms per op, on a name's first call only.
        let jit = SharedJit::new(JitModel::sscli_like());
        let stream = [
            ("doGet", 320, 4.4),
            ("doPost", 280, 4.0),
            ("doGet", 320, 0.0),
            ("open", 40, 1.6),
            ("doGet", 320, 0.0),
        ];
        for (i, (method, ops, cost)) in stream.into_iter().enumerate() {
            assert_eq!(jit.invoke(method, ops), cost, "call {i}: {method}");
        }
        for (method, calls) in [("doGet", 3), ("doPost", 1), ("open", 1), ("never", 0)] {
            assert_eq!(jit.calls(method), calls, "{method} calls");
            assert_eq!(jit.is_warm(method), calls > 0, "{method} warmth");
        }
    }

    #[test]
    fn shared_jit_charges_compile_exactly_once_under_contention() {
        use std::sync::Arc;
        let jit = Arc::new(SharedJit::new(JitModel::sscli_like()));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let jit = Arc::clone(&jit);
            handles.push(std::thread::spawn(move || {
                let mut paid = 0u32;
                for i in 0..1000u32 {
                    // Every thread hammers the same few methods.
                    let method = ["doGet", "doPost", "close"][((t + i) % 3) as usize];
                    if jit.invoke(method, 200) > 0.0 {
                        paid += 1;
                    }
                }
                paid
            }));
        }
        let total_paid: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total_paid, 3, "each method compiled exactly once across all threads");
        assert_eq!(jit.calls("doGet") + jit.calls("doPost") + jit.calls("close"), 8000);
    }

    #[test]
    fn a_handle_and_its_name_share_one_counter_whichever_comes_first() {
        let model = JitModel::sscli_like();
        // Handle first: it pays its own call's cost, the name never does.
        let jit = SharedJit::new(model);
        let get = jit.resolve("doGet", 320);
        assert_eq!(jit.calls("doGet"), 0, "resolving charges nothing");
        assert!(!jit.is_warm("doGet"));
        assert_eq!(get.invoke(), model.compile_cost(320));
        assert_eq!(jit.invoke("doGet", 320), 0.0);
        assert_eq!(get.invoke(), 0.0);
        assert_eq!(jit.calls("doGet"), 3);

        // Name first: the handle resolved earlier (with another op
        // count) finds the method warm; the name's call paid its cost.
        let jit = SharedJit::new(model);
        let post = jit.resolve("doPost", 999);
        assert_eq!(jit.invoke("doPost", 280), model.compile_cost(280));
        assert_eq!(post.invoke(), 0.0);
        assert_eq!(jit.resolve("doPost", 280).invoke(), 0.0);
        assert_eq!(jit.calls("doPost"), 3);
        assert!(jit.is_warm("doPost"));
    }

    #[test]
    fn handles_and_names_racing_on_a_cold_method_pay_exactly_once() {
        for round in 0..16u32 {
            let jit = SharedJit::new(JitModel::sscli_like());
            let barrier = std::sync::Barrier::new(8);
            let paid: u32 = std::thread::scope(|s| {
                let workers: Vec<_> = (0..8u32)
                    .map(|t| {
                        let (jit, barrier) = (&jit, &barrier);
                        s.spawn(move || {
                            // Half the threads resolve a handle, half
                            // call by name; all start on a cold method.
                            let handle = (t % 2 == 0).then(|| jit.resolve("doGet", 320));
                            barrier.wait();
                            let mut paid = 0;
                            for _ in 0..100 {
                                let ms = match &handle {
                                    Some(m) => m.invoke(),
                                    None => jit.invoke("doGet", 320),
                                };
                                paid += u32::from(ms > 0.0);
                            }
                            paid
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            assert_eq!(paid, 1, "round {round}: one compile charge");
            assert_eq!(jit.calls("doGet"), 800, "round {round}: every call counted");
        }
    }

    #[test]
    fn method_counters_occupy_their_own_cache_line() {
        // The false-sharing fix: two hot methods' counters can never
        // land on the same 64-byte line.
        assert_eq!(std::mem::align_of::<MethodCounter>(), 64);
        assert!(std::mem::size_of::<MethodCounter>() >= 64);
    }

    #[test]
    fn stripe_of_is_deterministic() {
        for name in ["doGet", "doPost", "a", "zz", ""] {
            assert_eq!(stripe_of(name), stripe_of(name));
            assert!(stripe_of(name) < JIT_STRIPES);
        }
    }
}
