//! Deterministic fault injection for trace streams.
//!
//! [`FaultSource`] wraps any [`TraceSource`] and corrupts it on a
//! schedule: each [`FaultSpec`] names a clean-stream record index and a
//! [`FaultKind`]. Fault parameters (which bit flips, how far a clock
//! rewinds) are drawn once from a seeded generator at construction, so
//! the corrupted stream is a pure function of `(inner stream, plan)` —
//! the same seed reproduces the same corruption byte for byte, which is
//! what lets `tests/fault_injection.rs` assert that the verifier
//! catches **this** fault at **this** index with **this** code.
//!
//! The five fault classes model distinct real-world failure modes:
//!
//! | Kind | Models | Verifier rule it trips |
//! |------|--------|------------------------|
//! | [`FaultKind::BitFlip`] | media / memory corruption | `V02` (file id leaves the roster) |
//! | [`FaultKind::ClockRewind`] | broken capture clock | `V03` |
//! | [`FaultKind::Truncate`] | torn write / partial transfer | `V06` (dangling `Open`) |
//! | [`FaultKind::Duplicate`] | replayed log segment | `V04` when it duplicates an `Open` |
//! | [`FaultKind::Reorder`] | unordered delivery | `V03` (later stamp arrives first) |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::TraceError;
use crate::record::TraceRecord;
use crate::source::{SourceMeta, TraceSource};

/// One class of injected corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip a high bit of the record's file id, pushing it outside any
    /// realistic header roster.
    BitFlip,
    /// Pull the record's wall clock backwards by at least one capture
    /// tick (and up to ~10 ms).
    ClockRewind,
    /// End the stream at this record: it and everything after it are
    /// dropped, as if the file were torn mid-write.
    Truncate,
    /// Emit this record twice.
    Duplicate,
    /// Swap this record with its successor.
    Reorder,
}

impl FaultKind {
    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bit-flip",
            FaultKind::ClockRewind => "clock-rewind",
            FaultKind::Truncate => "truncate",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
        }
    }
}

/// One scheduled fault: corrupt the clean stream's record `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// 0-based index into the **clean** (inner) stream.
    pub at: u64,
    /// What to do to it.
    pub kind: FaultKind,
}

/// A seeded fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the fault parameters (bit positions, rewind deltas).
    pub seed: u64,
    /// The scheduled faults, by clean-stream index.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan injecting a single fault of `kind` at clean-stream
    /// index `at`.
    pub fn single(seed: u64, at: u64, kind: FaultKind) -> Self {
        Self { seed, faults: vec![FaultSpec { at, kind }] }
    }
}

/// Per-fault parameters, drawn once at construction so the corruption
/// is independent of consumption order.
#[derive(Debug, Clone, Copy)]
struct ArmedFault {
    spec: FaultSpec,
    /// BitFlip: which of the top 8 file-id bits flips.
    /// ClockRewind: extra µs beyond the guaranteed one-tick rewind.
    param: u64,
}

/// A [`TraceSource`] adaptor that injects the faults of a [`FaultPlan`]
/// into its inner stream. See the module docs for the fault classes.
#[derive(Debug)]
pub struct FaultSource<S> {
    inner: S,
    faults: Vec<ArmedFault>,
    /// Index of the next record the inner stream will yield.
    next_inner: u64,
    /// A record displaced by Duplicate/Reorder, to emit next.
    pending: Option<TraceRecord>,
    truncated: bool,
}

impl<S: TraceSource> FaultSource<S> {
    /// Wraps `inner`, arming every fault in `plan` from its seed.
    pub fn new(inner: S, plan: &FaultPlan) -> Self {
        let mut rng = StdRng::seed_from_u64(plan.seed);
        let faults = plan
            .faults
            .iter()
            .map(|&spec| ArmedFault { spec, param: rng.gen_range(0..10_000) })
            .collect();
        Self { inner, faults, next_inner: 0, pending: None, truncated: false }
    }

    fn fault_at(&self, index: u64) -> Option<ArmedFault> {
        self.faults.iter().find(|f| f.spec.at == index).copied()
    }

    fn corrupt(r: &mut TraceRecord, kind: FaultKind, param: u64) {
        match kind {
            FaultKind::BitFlip => r.file_id ^= 1 << (24 + (param % 8) as u32),
            FaultKind::ClockRewind => {
                r.wall_clock_us = r.wall_clock_us.saturating_sub(10 + param);
            }
            // Truncate/Duplicate/Reorder restructure the stream in
            // `next_record`; the record bytes themselves are untouched.
            FaultKind::Truncate | FaultKind::Duplicate | FaultKind::Reorder => {}
        }
    }
}

impl<S: TraceSource> TraceSource for FaultSource<S> {
    fn meta(&self) -> SourceMeta {
        self.inner.meta()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        if let Some(r) = self.pending.take() {
            return Some(r);
        }
        if self.truncated {
            return None;
        }
        let mut r = self.inner.next_record()?;
        let index = self.next_inner;
        self.next_inner += 1;
        let Some(fault) = self.fault_at(index) else {
            return Some(r);
        };
        match fault.spec.kind {
            FaultKind::BitFlip | FaultKind::ClockRewind => {
                Self::corrupt(&mut r, fault.spec.kind, fault.param);
                Some(r)
            }
            FaultKind::Truncate => {
                self.truncated = true;
                None
            }
            FaultKind::Duplicate => {
                self.pending = Some(r);
                Some(r)
            }
            FaultKind::Reorder => match self.inner.next_record() {
                // Yield the successor first, the displaced record after.
                Some(next) => {
                    self.next_inner += 1;
                    self.pending = Some(r);
                    Some(next)
                }
                // Nothing to swap with at end of stream: no-op.
                None => Some(r),
            },
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Truncation shrinks, duplication grows: only "unknown but
        // bounded by inner + planned duplicates" is honest.
        let (_, upper) = self.inner.size_hint();
        (0, upper.map(|u| u + self.faults.len()))
    }

    fn take_failure(&mut self) -> Option<TraceError> {
        self.inner.take_failure()
    }

    // `pid_parts` stays the default, one part: the schedule indexes the
    // merged stream, which a pull from one part would skip past, and a
    // fault plan does not promise a corrupted record keeps its pid.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{materialize, SliceSource};
    use crate::synth::{synthesize, TraceProfile};

    fn clean() -> crate::reader::TraceFile {
        synthesize(&TraceProfile { seed: 7, data_ops: 32, ..Default::default() })
    }

    fn faulted(plan: &FaultPlan) -> Vec<TraceRecord> {
        let trace = clean();
        let mut src = FaultSource::new(SliceSource::new(&trace), plan);
        materialize(&mut src).unwrap().records
    }

    #[test]
    fn same_seed_reproduces_the_same_corruption() {
        let plan = FaultPlan::single(0xBAD, 5, FaultKind::ClockRewind);
        assert_eq!(faulted(&plan), faulted(&plan));
    }

    #[test]
    fn different_seeds_draw_different_parameters() {
        // Clocks large enough that the rewind never saturates to zero,
        // so the drawn delta is visible in the output.
        let records: Vec<TraceRecord> = (0..8)
            .map(|i| {
                let mut r = TraceRecord::simple(crate::record::IoOp::Read, 0, i * 4096, 4096);
                r.wall_clock_us = 1_000_000 + i * 10;
                r
            })
            .collect();
        let meta = SourceMeta { sample_file: "f.dat".into(), num_processes: 1, num_files: 1 };
        let rewind = |seed| {
            let plan = FaultPlan::single(seed, 5, FaultKind::ClockRewind);
            let mut src = FaultSource::new(SliceSource::from_parts(&records, meta.clone()), &plan);
            materialize(&mut src).unwrap().records[5].wall_clock_us
        };
        assert_ne!(rewind(1), rewind(2));
    }

    #[test]
    fn each_kind_reshapes_the_stream_as_documented() {
        let n = clean().len();

        let flipped = faulted(&FaultPlan::single(0, 3, FaultKind::BitFlip));
        assert_eq!(flipped.len(), n);
        assert!(flipped[3].file_id >= 1 << 24);

        let rewound = faulted(&FaultPlan::single(0, 3, FaultKind::ClockRewind));
        assert!(rewound[3].wall_clock_us < rewound[2].wall_clock_us);

        let cut = faulted(&FaultPlan::single(0, 3, FaultKind::Truncate));
        assert_eq!(cut.len(), 3);
        assert_eq!(cut[..], clean().records[..3]);

        let doubled = faulted(&FaultPlan::single(0, 3, FaultKind::Duplicate));
        assert_eq!(doubled.len(), n + 1);
        assert_eq!(doubled[3], doubled[4]);

        let swapped = faulted(&FaultPlan::single(0, 3, FaultKind::Reorder));
        assert_eq!(swapped.len(), n);
        assert_eq!(swapped[3], clean().records[4]);
        assert_eq!(swapped[4], clean().records[3]);
    }

    #[test]
    fn empty_plan_is_the_identity() {
        assert_eq!(faulted(&FaultPlan::default()), clean().records);
    }
}
