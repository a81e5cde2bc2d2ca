//! Statistical trace synthesis.
//!
//! The UMD study the paper draws its traces from characterizes each
//! application by its operation mix, request-size distribution and
//! sequentiality. [`TraceProfile`] captures exactly those axes and
//! [`synthesize`] emits a trace matching them — so workloads "like
//! Dmine but 10× longer" or "Cholesky-shaped but write-heavy" can be
//! generated for stress tests and capacity planning without re-running
//! the applications.

use std::fmt;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::reader::TraceFile;
use crate::record::{IoOp, TraceRecord};
use crate::source::{materialize, SourceMeta, TraceSource};
use crate::stats::TraceStats;
use crate::verify::MAX_SPAN_BYTES;

/// How non-sequential data-op offsets distribute over the file (or,
/// with [`TraceProfile::phases`] > 1, over the current phase region).
///
/// Every variant draws in O(1) time and memory, so the streaming
/// synthesizer stays streaming whatever the skew.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Popularity {
    /// Every start offset equally likely — the historical behavior.
    #[default]
    Uniform,
    /// Zipf-like skew over 4 KiB-aligned start positions: rank-1 (the
    /// region head) is hottest, tail popularity falls off as
    /// `rank^-theta`. Sampled by the bounded-Pareto inverse CDF — one
    /// uniform draw per offset, no rank table.
    Zipfian {
        /// Skew exponent; larger is hotter (`0.0` < `theta`, finite).
        /// Typical web/storage skews sit in `0.6..=1.2`.
        theta: f64,
    },
    /// A two-temperature hotspot: the first `hot_fraction` of the
    /// region absorbs `hot_rate` of the non-sequential offsets, the
    /// remainder spreads uniformly over the cold tail.
    Hotspot {
        /// Fraction of the region that is hot (`0.0 < f <= 1.0`).
        hot_fraction: f64,
        /// Fraction of draws landing in the hot region (`0.0..=1.0`).
        hot_rate: f64,
    },
}

/// The arrival process modulating inter-record virtual-clock gaps.
///
/// Purely a clock-stamp shape — record contents and order are
/// untouched, so replay results that ignore capture clocks are
/// identical across arrival processes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Arrival {
    /// One fixed tick between consecutive records — the historical
    /// behavior.
    #[default]
    Steady,
    /// Records arrive in back-to-back bursts of `burst` separated by
    /// idle gaps of `idle_ticks` ticks.
    Bursty {
        /// Records per burst (`>= 1`).
        burst: u32,
        /// Idle ticks between bursts (`>= 1`).
        idle_ticks: u32,
    },
    /// A diurnal (triangle-wave) cycle: gaps swell from one tick up to
    /// `1 + peak` ticks and back over each `period` records — slow
    /// "night" traffic alternating with dense "day" traffic.
    Diurnal {
        /// Records per full cycle (`>= 2`).
        period: u32,
        /// Extra ticks at the widest point of the cycle (`>= 1`).
        peak: u32,
    },
}

/// A statistical description of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// RNG seed.
    pub seed: u64,
    /// Number of data operations (reads + writes) to emit.
    pub data_ops: usize,
    /// Fraction of data operations that are writes (`0.0..=1.0`).
    pub write_fraction: f64,
    /// Fraction of data operations that sequentially continue the
    /// previous one (`0.0..=1.0`); the rest seek to a random offset
    /// first.
    pub sequentiality: f64,
    /// Request sizes are drawn log-uniformly from this inclusive range.
    pub request_size: (u64, u64),
    /// Size of the file the offsets are drawn from.
    pub file_size: u64,
    /// Emit an explicit `Seek` record before each non-sequential op
    /// (the UMD traces do; turning it off folds the reposition into the
    /// data op's offset, as some collectors did).
    pub explicit_seeks: bool,
    /// Page-popularity distribution of non-sequential offsets.
    pub popularity: Popularity,
    /// Arrival process shaping the inter-record clock gaps.
    pub arrival: Arrival,
    /// Working-set phases: the file is split into this many equal
    /// regions and the trace migrates through them in order, spending
    /// `data_ops / phases` operations in each — `1` (the default) is
    /// the historical single-working-set behavior.
    pub phases: u32,
}

impl Default for TraceProfile {
    fn default() -> Self {
        Self {
            seed: 0xD15C,
            data_ops: 256,
            write_fraction: 0.0,
            sequentiality: 0.8,
            request_size: (4 * 1024, 256 * 1024),
            file_size: 1 << 30, // the paper's 1 GB sample file
            explicit_seeks: true,
            popularity: Popularity::Uniform,
            arrival: Arrival::Steady,
            phases: 1,
        }
    }
}

/// A coded [`TraceProfile`] validation failure. The `P`-codes are the
/// profile-level counterpart of the verifier's `V`-codes: stable
/// identifiers CLI surfaces and tests match on instead of parsing
/// messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// `P01` — a fraction parameter is outside `[0, 1]`.
    FractionRange {
        /// Which fraction field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `P02` — the request-size range is empty or starts at zero.
    RequestSizeRange {
        /// Range low bound.
        lo: u64,
        /// Range high bound.
        hi: u64,
    },
    /// `P03` — the file cannot hold the largest request.
    FileTooSmall {
        /// Declared file size.
        file_size: u64,
        /// Largest request the profile can draw.
        max_request: u64,
    },
    /// `P04` — zero data operations: the profile would synthesize an
    /// empty stream (open + close and nothing else).
    ZeroDataOps,
    /// `P05` — the popularity distribution's parameters are out of
    /// range.
    BadPopularity {
        /// What is wrong with them.
        reason: &'static str,
    },
    /// `P06` — the arrival process's parameters are out of range.
    BadArrival {
        /// What is wrong with them.
        reason: &'static str,
    },
    /// `P07` — the phase count is zero, or slices the file into
    /// regions too small for the largest request.
    BadPhases {
        /// The offending phase count.
        phases: u32,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// `P08` — the largest request spans more than the verifier's
    /// `V10` bound ([`MAX_SPAN_BYTES`]): the profile could synthesize a
    /// record strict admission rejects.
    RequestTooLong {
        /// Largest request the profile can draw.
        max_request: u64,
    },
}

impl ProfileError {
    /// The stable rule code (`P01`–`P08`).
    pub fn code(&self) -> &'static str {
        match self {
            ProfileError::FractionRange { .. } => "P01",
            ProfileError::RequestSizeRange { .. } => "P02",
            ProfileError::FileTooSmall { .. } => "P03",
            ProfileError::ZeroDataOps => "P04",
            ProfileError::BadPopularity { .. } => "P05",
            ProfileError::BadArrival { .. } => "P06",
            ProfileError::BadPhases { .. } => "P07",
            ProfileError::RequestTooLong { .. } => "P08",
        }
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            ProfileError::FractionRange { field, value } => {
                write!(f, "{field} {value} outside [0,1]")
            }
            ProfileError::RequestSizeRange { lo, hi } => {
                write!(f, "bad request size range ({lo}, {hi})")
            }
            ProfileError::FileTooSmall { file_size, max_request } => {
                write!(
                    f,
                    "file of {file_size} B smaller than the largest request ({max_request} B)"
                )
            }
            ProfileError::ZeroDataOps => {
                write!(f, "zero data ops: the profile synthesizes an empty stream")
            }
            ProfileError::BadPopularity { reason } => write!(f, "bad popularity: {reason}"),
            ProfileError::BadArrival { reason } => write!(f, "bad arrival process: {reason}"),
            ProfileError::BadPhases { phases, reason } => {
                write!(f, "bad phase count {phases}: {reason}")
            }
            ProfileError::RequestTooLong { max_request } => {
                write!(f, "largest request of {max_request} B spans more than {MAX_SPAN_BYTES} B")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

impl TraceProfile {
    /// A Dmine-like profile: pure sequential synchronous reads.
    pub fn dmine_like() -> Self {
        Self {
            write_fraction: 0.0,
            sequentiality: 1.0,
            request_size: (131_072, 131_072),
            ..Default::default()
        }
    }

    /// An LU-like profile: scattered large-offset writes.
    pub fn lu_like() -> Self {
        Self {
            write_fraction: 1.0,
            sequentiality: 0.0,
            request_size: (8_192, 524_288),
            ..Default::default()
        }
    }

    /// A Cholesky-like profile: random reads spanning 4 B to ~2.4 MB.
    pub fn cholesky_like() -> Self {
        Self {
            write_fraction: 0.1,
            sequentiality: 0.1,
            request_size: (4, 2_446_612),
            ..Default::default()
        }
    }

    /// Validates the parameter ranges with coded [`ProfileError`]s, so
    /// a degenerate profile fails at build time — never deep inside
    /// synthesis, never as a silently empty stream.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return Err(ProfileError::FractionRange {
                field: "write_fraction",
                value: self.write_fraction,
            });
        }
        if !(0.0..=1.0).contains(&self.sequentiality) {
            return Err(ProfileError::FractionRange {
                field: "sequentiality",
                value: self.sequentiality,
            });
        }
        if self.request_size.0 == 0 || self.request_size.0 > self.request_size.1 {
            return Err(ProfileError::RequestSizeRange {
                lo: self.request_size.0,
                hi: self.request_size.1,
            });
        }
        if self.file_size < self.request_size.1 {
            return Err(ProfileError::FileTooSmall {
                file_size: self.file_size,
                max_request: self.request_size.1,
            });
        }
        if self.data_ops == 0 {
            return Err(ProfileError::ZeroDataOps);
        }
        match self.popularity {
            Popularity::Uniform => {}
            Popularity::Zipfian { theta } => {
                if !theta.is_finite() || theta <= 0.0 {
                    return Err(ProfileError::BadPopularity {
                        reason: "zipfian theta must be finite and positive",
                    });
                }
            }
            Popularity::Hotspot { hot_fraction, hot_rate } => {
                if !(hot_fraction > 0.0 && hot_fraction <= 1.0) {
                    return Err(ProfileError::BadPopularity {
                        reason: "hotspot fraction must be in (0, 1]",
                    });
                }
                if !(0.0..=1.0).contains(&hot_rate) {
                    return Err(ProfileError::BadPopularity {
                        reason: "hotspot rate must be in [0, 1]",
                    });
                }
            }
        }
        match self.arrival {
            Arrival::Steady => {}
            Arrival::Bursty { burst, idle_ticks } => {
                if burst == 0 || idle_ticks == 0 {
                    return Err(ProfileError::BadArrival {
                        reason: "bursty needs burst >= 1 and idle_ticks >= 1",
                    });
                }
            }
            Arrival::Diurnal { period, peak } => {
                if period < 2 || peak == 0 {
                    return Err(ProfileError::BadArrival {
                        reason: "diurnal needs period >= 2 and peak >= 1",
                    });
                }
            }
        }
        if self.phases == 0 {
            return Err(ProfileError::BadPhases {
                phases: 0,
                reason: "at least one phase is required",
            });
        }
        if self.phases > 1 && self.file_size / (self.phases as u64) < self.request_size.1 {
            return Err(ProfileError::BadPhases {
                phases: self.phases,
                reason: "phase regions smaller than the largest request",
            });
        }
        // Synthesized records carry one repeat, so the request is the
        // whole span.
        if self.request_size.1 > MAX_SPAN_BYTES {
            return Err(ProfileError::RequestTooLong { max_request: self.request_size.1 });
        }
        Ok(())
    }
}

/// The sample-file name every synthesized trace replays against.
const SYNTH_SAMPLE: &str = "synthetic-sample.dat";

/// Virtual-clock advance per synthesized record, microseconds (the
/// [`crate::writer::TraceWriter`] default).
const SYNTH_TICK_US: u64 = 10;

/// Alignment of Zipf-ranked start positions: ranks address 4 KiB
/// blocks, so skewed offsets land page-aligned and rank-1 reuse is
/// visible to a page cache.
const ZIPF_BLOCK: u64 = 4096;

/// Where the synthesis state machine is in the open → data ops → close
/// record sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SynthState {
    Open,
    Data,
    Done,
}

/// A streaming statistical synthesizer: yields the same record stream
/// as [`synthesize`] — one record at a time, with O(1) memory — so
/// workloads of any length can be replayed without ever materializing
/// them. [`synthesize`] itself is this source collected into a
/// [`TraceFile`], which is what makes the two bit-identical.
///
/// Construction is O(1): no record is generated before the first
/// [`TraceSource::next_record`]. The source's
/// [`TraceSource::size_hint`] is therefore a pair of **bounds**, not a
/// count — how many seek records lie ahead is decided by RNG draws not
/// yet made. The lower bound is what is certainly left (the open/close
/// framing, the data ops still to emit, a data op staged behind its
/// seek); the upper bound adds one possible seek per data op still to
/// come. With [`TraceProfile::explicit_seeks`] off the two coincide.
#[derive(Debug, Clone)]
pub struct SynthSource {
    profile: TraceProfile,
    rng: StdRng,
    state: SynthState,
    /// Data record staged behind an explicit seek.
    pending: Option<TraceRecord>,
    emitted_data_ops: usize,
    position: u64,
    clock_us: u64,
    /// Records stamped so far — drives the arrival process's gap
    /// schedule.
    stamped: u64,
    /// `(ln(lo), ln(hi))` of the request-size range, hoisted out of
    /// the per-record draw.
    ln_size_bounds: (f64, f64),
    /// Direct-mapped memo of `blocks -> blocks.powf(1 - theta)` for the
    /// Zipfian draw. `blocks` moves only with the request size in
    /// 4 KiB steps, so a profile sees a few dozen distinct values; the
    /// entry holds the same function of the same argument, so the
    /// stream is bit-identical. `(0.0, _)` is an empty entry (`blocks`
    /// is at least 1).
    zipf_pow: [(f64, f64); ZIPF_POW_MEMO],
}

/// Entries of [`SynthSource::zipf_pow`].
const ZIPF_POW_MEMO: usize = 64;

impl SynthSource {
    /// Creates a streaming synthesizer for `profile`.
    pub fn new(profile: TraceProfile) -> Result<Self, ProfileError> {
        profile.validate()?;
        let (lo, hi) = profile.request_size;
        Ok(Self {
            rng: StdRng::seed_from_u64(profile.seed),
            state: SynthState::Open,
            pending: None,
            emitted_data_ops: 0,
            position: 0,
            clock_us: 0,
            stamped: 0,
            ln_size_bounds: ((lo as f64).ln(), (hi as f64).ln()),
            zipf_pow: [(0.0, 0.0); ZIPF_POW_MEMO],
            profile,
        })
    }

    /// Stamps a record the way [`crate::writer::TraceWriter`] does:
    /// advance the virtual clock, then record both clocks. The arrival
    /// process picks the gap; [`Arrival::Steady`] is the historical
    /// one-tick advance, bit for bit.
    fn stamp(&mut self, op: IoOp, offset: u64, length: u64) -> TraceRecord {
        let i = self.stamped;
        self.stamped += 1;
        let gap = match self.profile.arrival {
            Arrival::Steady => SYNTH_TICK_US,
            // A burst starts every `burst` records; the gap in front of
            // it is the idle window, everything inside is back to back.
            Arrival::Bursty { burst, idle_ticks } => {
                if i % burst as u64 == 0 {
                    SYNTH_TICK_US * idle_ticks as u64
                } else {
                    SYNTH_TICK_US
                }
            }
            // Integer triangle wave over the cycle: gap swells from one
            // tick to `1 + peak` ticks at mid-cycle and back.
            Arrival::Diurnal { period, peak } => {
                let pos = i % period as u64;
                let tri = pos.min(period as u64 - pos);
                SYNTH_TICK_US + SYNTH_TICK_US * peak as u64 * 2 * tri / period as u64
            }
        };
        self.clock_us += gap;
        TraceRecord {
            op,
            num_records: 1,
            pid: 0,
            file_id: 0,
            wall_clock_us: self.clock_us,
            proc_clock_us: self.clock_us,
            offset,
            length,
        }
    }

    /// The working-set region of the *current* data op: `[lo, hi)`.
    /// One phase spans the whole file; `k` phases migrate through `k`
    /// equal slices of it in emission order.
    fn region(&self) -> (u64, u64) {
        let phases = self.profile.phases as u64;
        if phases <= 1 {
            return (0, self.profile.file_size);
        }
        let idx = (self.emitted_data_ops as u64 * phases / self.profile.data_ops.max(1) as u64)
            .min(phases - 1);
        let span = self.profile.file_size / phases;
        let lo = idx * span;
        // The last region absorbs the division remainder.
        let hi = if idx == phases - 1 { self.profile.file_size } else { lo + span };
        (lo, hi)
    }

    /// Draws a start offset for a `size`-byte request inside
    /// `[lo, hi)` under the profile's popularity distribution.
    fn draw_offset(&mut self, lo: u64, hi: u64, size: u64) -> u64 {
        let max_start = hi - size; // >= lo, by validation
        match self.profile.popularity {
            Popularity::Uniform => self.rng.gen_range(lo..=max_start),
            Popularity::Zipfian { theta } => {
                // Bounded-Pareto inverse CDF over the region's 4 KiB
                // blocks: rank r gets probability ~ r^-theta, sampled
                // from one uniform draw — O(1), no rank table.
                let blocks = ((max_start - lo) / ZIPF_BLOCK + 1) as f64;
                let u = self.rng.gen_range(0.0..1.0);
                let x = if (theta - 1.0).abs() < 1e-9 {
                    blocks.powf(u)
                } else {
                    let memo = &mut self.zipf_pow[blocks as usize % ZIPF_POW_MEMO];
                    if memo.0 != blocks {
                        *memo = (blocks, blocks.powf(1.0 - theta));
                    }
                    (1.0 + u * (memo.1 - 1.0)).powf(1.0 / (1.0 - theta))
                };
                let rank = (x.floor() as u64).clamp(1, blocks as u64) - 1;
                (lo + rank * ZIPF_BLOCK).min(max_start)
            }
            Popularity::Hotspot { hot_fraction, hot_rate } => {
                let hot_end = lo + ((max_start - lo) as f64 * hot_fraction) as u64;
                if self.rng.gen_bool(hot_rate) || hot_end >= max_start {
                    self.rng.gen_range(lo..=hot_end.min(max_start))
                } else {
                    self.rng.gen_range(hot_end + 1..=max_start)
                }
            }
        }
    }

    /// Draws the next data operation; returns the seek record when the
    /// profile calls for an explicit reposition (the data record is
    /// then staged in `pending`).
    fn next_data_op(&mut self) -> TraceRecord {
        // The profile axes are all `Copy` scalars: read them into
        // locals (no clone) — this is the synthesis hot path.
        let (lo, hi) = self.profile.request_size;
        let (sequentiality, write_fraction) =
            (self.profile.sequentiality, self.profile.write_fraction);
        let explicit_seeks = self.profile.explicit_seeks;
        let size = if lo == hi {
            lo
        } else {
            let (ln_lo, ln_hi) = self.ln_size_bounds;
            self.rng.gen_range(ln_lo..=ln_hi).exp().round().clamp(lo as f64, hi as f64) as u64
        };
        let sequential = self.rng.gen_bool(sequentiality);
        let (region_lo, region_hi) = self.region();
        let mut seek = None;
        if !sequential {
            self.position = self.draw_offset(region_lo, region_hi, size);
            if explicit_seeks {
                seek = Some(self.stamp(IoOp::Seek, self.position, 0));
            }
        } else if self.position < region_lo || self.position + size > region_hi {
            // Wrap the sequential stream at the region's end — and jump
            // into the region when a phase change moved it out from
            // under the stream. With one phase this is the historical
            // wrap-at-EOF, bit for bit.
            self.position = region_lo;
        }
        let op = if self.rng.gen_bool(write_fraction) { IoOp::Write } else { IoOp::Read };
        let data = self.stamp(op, self.position, size);
        self.position += size;
        self.emitted_data_ops += 1;
        match seek {
            Some(s) => {
                self.pending = Some(data);
                s
            }
            None => data,
        }
    }
}

impl TraceSource for SynthSource {
    fn meta(&self) -> SourceMeta {
        SourceMeta { sample_file: SYNTH_SAMPLE.into(), num_processes: 1, num_files: 1 }
    }

    fn pid_parts(&self) -> Option<Vec<Range<u32>>> {
        // `stamp` writes pid 0 into every record.
        Some(vec![Range { start: 0, end: 1 }])
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        if let Some(data) = self.pending.take() {
            return Some(data);
        }
        match self.state {
            SynthState::Open => {
                self.state = SynthState::Data;
                Some(self.stamp(IoOp::Open, 0, 0))
            }
            SynthState::Data => {
                if self.emitted_data_ops >= self.profile.data_ops {
                    self.state = SynthState::Done;
                    return Some(self.stamp(IoOp::Close, 0, 0));
                }
                Some(self.next_data_op())
            }
            SynthState::Done => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // `Done` is entered only once every data op is out, so the
        // difference is zero there.
        let data_ops = self.profile.data_ops - self.emitted_data_ops;
        let framing = match self.state {
            SynthState::Open => 2,
            SynthState::Data => 1,
            SynthState::Done => 0,
        };
        let lower = framing + data_ops + self.pending.is_some() as usize;
        let seeks = if self.profile.explicit_seeks { data_ops } else { 0 };
        (lower, Some(lower + seeks))
    }
}

/// Synthesizes a trace matching `profile` (open, the data ops, close).
///
/// This is [`SynthSource`] collected into a [`TraceFile`]; streaming
/// and materialized synthesis share one code path and are therefore
/// record-for-record identical.
///
/// # Panics
/// Panics if the profile fails validation — synthesis parameters are
/// programmer input, not runtime data.
pub fn synthesize(profile: &TraceProfile) -> TraceFile {
    let mut source = SynthSource::new(profile.clone()).expect("invalid trace profile");
    materialize(&mut source).expect("synthesized records are valid")
}

/// Extracts the profile axes back out of a trace for verification:
/// `(write_fraction, sequentiality, mean_request_size)`.
///
/// Unlike [`TraceStats::sequentiality`] — which treats a seek-then-read
/// as a positioned continuation, the replayer's view — this measures
/// the *stream* property the profile specifies: a data op is sequential
/// only if its offset equals the previous data op's end.
pub fn measure(trace: &TraceFile) -> (f64, f64, f64) {
    let stats = TraceStats::compute(trace);
    let data = stats.count(IoOp::Read) + stats.count(IoOp::Write);
    let wf = if data == 0 { 0.0 } else { stats.count(IoOp::Write) as f64 / data as f64 };

    let mut sequential = 0u64;
    let mut data_ops = 0u64;
    let mut last_end: Option<u64> = None;
    for r in &trace.records {
        if r.op.transfers_data() {
            data_ops += 1;
            if last_end == Some(r.offset) {
                sequential += 1;
            }
            last_end = Some(r.offset + r.length);
        }
    }
    let seq = if data_ops == 0 { 0.0 } else { sequential as f64 / data_ops as f64 };
    (wf, seq, stats.request_sizes.mean().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic() {
        let p = TraceProfile::default();
        assert_eq!(synthesize(&p).records, synthesize(&p).records);
    }

    #[test]
    fn pure_sequential_reads() {
        let t = synthesize(&TraceProfile::dmine_like());
        let (wf, seq, mean) = measure(&t);
        assert_eq!(wf, 0.0);
        assert!(seq > 0.95, "sequentiality {seq}");
        assert_eq!(mean, 131_072.0);
    }

    #[test]
    fn lu_like_is_scattered_writes() {
        let t = synthesize(&TraceProfile::lu_like());
        let (wf, seq, _) = measure(&t);
        assert_eq!(wf, 1.0);
        assert!(seq < 0.15, "sequentiality {seq}");
        let stats = TraceStats::compute(&t);
        assert!(stats.count(IoOp::Seek) > 200, "explicit seeks present");
    }

    #[test]
    fn cholesky_like_size_spread() {
        let t = synthesize(&TraceProfile::cholesky_like());
        let stats = TraceStats::compute(&t);
        let spread = stats.request_sizes.max().unwrap() / stats.request_sizes.min().unwrap();
        assert!(spread > 1000.0, "log-uniform sizes spread {spread}");
    }

    #[test]
    fn offsets_stay_in_file() {
        let p = TraceProfile { file_size: 10 << 20, ..TraceProfile::cholesky_like() };
        let p = TraceProfile { request_size: (4, 1 << 20), ..p };
        let t = synthesize(&p);
        for r in &t.records {
            if r.op.transfers_data() {
                assert!(r.offset + r.length <= p.file_size, "op spills past EOF");
            }
        }
    }

    #[test]
    fn without_explicit_seeks() {
        let p = TraceProfile { explicit_seeks: false, sequentiality: 0.0, ..Default::default() };
        let t = synthesize(&p);
        assert_eq!(TraceStats::compute(&t).count(IoOp::Seek), 0);
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        assert!(TraceProfile { write_fraction: 1.5, ..Default::default() }.validate().is_err());
        assert!(TraceProfile { sequentiality: -0.1, ..Default::default() }.validate().is_err());
        assert!(TraceProfile { request_size: (0, 10), ..Default::default() }.validate().is_err());
        assert!(TraceProfile { request_size: (20, 10), ..Default::default() }.validate().is_err());
        assert!(TraceProfile { file_size: 10, request_size: (4, 1024), ..Default::default() }
            .validate()
            .is_err());
    }

    /// Every degenerate axis fails with its own stable code — the
    /// coded-error satellite pin.
    #[test]
    fn validation_codes_are_stable() {
        let code = |p: TraceProfile| p.validate().unwrap_err().code();
        assert_eq!(code(TraceProfile { write_fraction: -0.5, ..Default::default() }), "P01");
        assert_eq!(code(TraceProfile { sequentiality: 1.5, ..Default::default() }), "P01");
        assert_eq!(code(TraceProfile { request_size: (0, 10), ..Default::default() }), "P02");
        assert_eq!(
            code(TraceProfile { file_size: 10, request_size: (4, 1024), ..Default::default() }),
            "P03"
        );
        assert_eq!(code(TraceProfile { data_ops: 0, ..Default::default() }), "P04");
        assert_eq!(
            code(TraceProfile {
                popularity: Popularity::Zipfian { theta: -1.0 },
                ..Default::default()
            }),
            "P05"
        );
        assert_eq!(
            code(TraceProfile {
                popularity: Popularity::Hotspot { hot_fraction: 0.0, hot_rate: 0.9 },
                ..Default::default()
            }),
            "P05"
        );
        assert_eq!(
            code(TraceProfile {
                arrival: Arrival::Bursty { burst: 0, idle_ticks: 8 },
                ..Default::default()
            }),
            "P06"
        );
        assert_eq!(
            code(TraceProfile {
                arrival: Arrival::Diurnal { period: 1, peak: 4 },
                ..Default::default()
            }),
            "P06"
        );
        assert_eq!(code(TraceProfile { phases: 0, ..Default::default() }), "P07");
        // 1 GB / 8192 phases < the 256 KiB max request.
        assert_eq!(code(TraceProfile { phases: 8192, ..Default::default() }), "P07");
        // The file holds the request; the verifier's V10 does not.
        let giant = |hi| TraceProfile {
            request_size: (4096, hi),
            file_size: 1 << 40,
            ..Default::default()
        };
        assert_eq!(code(giant(MAX_SPAN_BYTES + 1)), "P08");
        assert!(giant(MAX_SPAN_BYTES).validate().is_ok(), "the bound itself is admitted");
        let msg = TraceProfile { data_ops: 0, ..Default::default() }.validate().unwrap_err();
        assert!(msg.to_string().contains("P04"), "Display carries the code: {msg}");
    }

    #[test]
    fn zipfian_skew_concentrates_block_popularity_monotonically() {
        // Hotter theta => the single most popular 4 KiB start block
        // absorbs a strictly larger share of the non-sequential draws.
        let top_share = |theta: f64| {
            let t = synthesize(&TraceProfile {
                sequentiality: 0.0,
                explicit_seeks: false,
                data_ops: 3000,
                request_size: (4096, 4096),
                popularity: Popularity::Zipfian { theta },
                ..Default::default()
            });
            let mut counts = std::collections::HashMap::new();
            let mut total = 0u64;
            for r in t.records.iter().filter(|r| r.op.transfers_data()) {
                *counts.entry(r.offset).or_insert(0u64) += 1;
                total += 1;
            }
            *counts.values().max().unwrap() as f64 / total as f64
        };
        let shares: Vec<f64> = [0.4, 0.8, 1.2, 1.6].iter().map(|&t| top_share(t)).collect();
        for pair in shares.windows(2) {
            assert!(pair[1] > pair[0], "top-block share must grow with theta: {shares:?}");
        }
    }

    #[test]
    fn hotspot_hits_the_hot_region_at_the_requested_rate() {
        let p = TraceProfile {
            sequentiality: 0.0,
            explicit_seeks: false,
            data_ops: 4000,
            popularity: Popularity::Hotspot { hot_fraction: 0.1, hot_rate: 0.9 },
            ..Default::default()
        };
        let t = synthesize(&p);
        let hot_end = (p.file_size as f64 * 0.1) as u64;
        let data: Vec<_> = t.records.iter().filter(|r| r.op.transfers_data()).collect();
        let hot = data.iter().filter(|r| r.offset <= hot_end).count() as f64;
        let rate = hot / data.len() as f64;
        assert!((rate - 0.9).abs() < 0.05, "hot rate {rate}");
    }

    #[test]
    fn phases_migrate_the_working_set_in_order() {
        let p = TraceProfile { data_ops: 400, phases: 4, sequentiality: 0.5, ..Default::default() };
        let t = synthesize(&p);
        let span = p.file_size / 4;
        let mut op_idx = 0usize;
        for r in t.records.iter().filter(|r| r.op.transfers_data()) {
            let phase = (op_idx * 4 / p.data_ops).min(3) as u64;
            let (lo, hi) =
                (phase * span, if phase == 3 { p.file_size } else { (phase + 1) * span });
            assert!(
                r.offset >= lo && r.offset + r.length <= hi,
                "op {op_idx} at {} strayed from phase {phase} region [{lo}, {hi})",
                r.offset
            );
            op_idx += 1;
        }
        assert_eq!(op_idx, 400);
    }

    #[test]
    fn bursty_arrivals_shape_the_clock_gaps() {
        let p = TraceProfile {
            data_ops: 64,
            sequentiality: 1.0,
            arrival: Arrival::Bursty { burst: 8, idle_ticks: 50 },
            ..Default::default()
        };
        let t = synthesize(&p);
        let mut idle_gaps = 0usize;
        for w in t.records.windows(2) {
            let gap = w[1].wall_clock_us - w[0].wall_clock_us;
            assert!(gap == 10 || gap == 500, "gap {gap} is neither a tick nor an idle window");
            idle_gaps += (gap == 500) as usize;
        }
        // 66 records / burst of 8 => 8 idle windows follow the first.
        assert!(idle_gaps >= 7, "bursts separated by idle windows, got {idle_gaps}");
        // Clocks stay monotone whatever the arrival shape.
        assert!(t.records.windows(2).all(|w| w[1].wall_clock_us > w[0].wall_clock_us));
    }

    #[test]
    fn diurnal_arrivals_cycle_the_gap_width() {
        let p = TraceProfile {
            data_ops: 200,
            sequentiality: 1.0,
            arrival: Arrival::Diurnal { period: 50, peak: 9 },
            ..Default::default()
        };
        let t = synthesize(&p);
        let gaps: Vec<u64> =
            t.records.windows(2).map(|w| w[1].wall_clock_us - w[0].wall_clock_us).collect();
        let (min, max) = (gaps.iter().min().unwrap(), gaps.iter().max().unwrap());
        assert_eq!(*min, 10, "night gaps are one tick");
        assert_eq!(*max, 100, "peak gap is 1 + peak ticks");
    }

    #[test]
    fn scenario_knobs_stream_equals_materialized() {
        // The streaming == materialized identity must survive every
        // scenario knob, not just the defaults.
        for p in [
            TraceProfile {
                popularity: Popularity::Zipfian { theta: 1.1 },
                sequentiality: 0.3,
                data_ops: 250,
                ..Default::default()
            },
            TraceProfile {
                popularity: Popularity::Hotspot { hot_fraction: 0.2, hot_rate: 0.8 },
                data_ops: 250,
                ..Default::default()
            },
            TraceProfile {
                arrival: Arrival::Bursty { burst: 16, idle_ticks: 100 },
                data_ops: 250,
                ..Default::default()
            },
            TraceProfile {
                arrival: Arrival::Diurnal { period: 40, peak: 5 },
                phases: 3,
                data_ops: 250,
                ..Default::default()
            },
        ] {
            let t = synthesize(&p);
            let mut src = SynthSource::new(p.clone()).unwrap();
            let mut streamed = Vec::new();
            while let Some(r) = src.next_record() {
                streamed.push(r);
            }
            assert_eq!(streamed, t.records, "streamed != materialized for {p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid trace profile")]
    fn synthesize_panics_on_invalid() {
        synthesize(&TraceProfile { write_fraction: 2.0, ..Default::default() });
    }

    #[test]
    fn streaming_source_rejects_invalid_profiles() {
        assert!(
            SynthSource::new(TraceProfile { sequentiality: 7.0, ..Default::default() }).is_err()
        );
    }

    #[test]
    fn streaming_source_matches_materialized_record_for_record() {
        let p = TraceProfile {
            write_fraction: 0.3,
            sequentiality: 0.5,
            data_ops: 300,
            ..Default::default()
        };
        let t = synthesize(&p);
        let mut src = SynthSource::new(p).unwrap();
        let mut streamed = Vec::new();
        while let Some(r) = src.next_record() {
            streamed.push(r);
        }
        assert_eq!(streamed, t.records, "streaming and materialized synthesis diverged");
    }

    #[test]
    fn streaming_source_meta_is_exact() {
        let p = TraceProfile { data_ops: 25, ..Default::default() };
        let meta = SynthSource::new(p.clone()).unwrap().meta();
        let t = synthesize(&p);
        assert_eq!(meta.sample_file, t.header.sample_file);
        assert_eq!(meta.num_processes, t.header.num_processes);
        assert_eq!(meta.num_files, t.header.num_files);
    }

    #[test]
    fn materialize_of_a_seek_heavy_profile_equals_the_stream() {
        // Every data op is preceded by a seek, so the lower size hint
        // `materialize` pre-sizes by is half the record count.
        let p = TraceProfile { sequentiality: 0.0, data_ops: 500, ..Default::default() };
        let mut src = SynthSource::new(p.clone()).unwrap();
        assert_eq!(src.size_hint(), (502, Some(1002)));
        let streamed: Vec<_> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(streamed.len(), 1002);
        let t = materialize(&mut SynthSource::new(p).unwrap()).unwrap();
        assert_eq!(t.records, streamed);
    }

    fn arb_popularity() -> impl Strategy<Value = Popularity> {
        prop_oneof![
            Just(Popularity::Uniform),
            (0.2f64..2.0).prop_map(|theta| Popularity::Zipfian { theta }),
            (0.05f64..=1.0, 0.0f64..=1.0).prop_map(|(hot_fraction, hot_rate)| {
                Popularity::Hotspot { hot_fraction, hot_rate }
            }),
        ]
    }

    fn arb_arrival() -> impl Strategy<Value = Arrival> {
        prop_oneof![
            Just(Arrival::Steady),
            (1u32..20, 1u32..100)
                .prop_map(|(burst, idle_ticks)| Arrival::Bursty { burst, idle_ticks }),
            (2u32..60, 1u32..12).prop_map(|(period, peak)| Arrival::Diurnal { period, peak }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The size-hint contract: the bounds bracket what is really
        /// left at construction and after every record, coincide when
        /// no seek record can be emitted, and close at exhaustion.
        #[test]
        fn size_hint_brackets_what_is_left(
            seed in any::<u64>(), data_ops in 1usize..120, seq in 0.0f64..=1.0,
            explicit_seeks in any::<bool>(), phases in 1u32..=4,
            popularity in arb_popularity(), arrival in arb_arrival(),
        ) {
            let p = TraceProfile {
                seed, data_ops, sequentiality: seq, explicit_seeks, phases, popularity,
                arrival, ..Default::default()
            };
            let total = synthesize(&p).len();
            let mut src = SynthSource::new(p).unwrap();
            for left in (0..=total).rev() {
                let (lower, upper) = src.size_hint();
                let upper = upper.expect("a synthesizer always knows an upper bound");
                prop_assert!(lower <= left && left <= upper, "{lower} <= {left} <= {upper}");
                if !explicit_seeks {
                    prop_assert_eq!(lower, upper);
                }
                prop_assert_eq!(src.next_record().is_some(), left > 0);
            }
            prop_assert_eq!(src.size_hint(), (0, Some(0)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn measured_axes_track_requested(wf in 0f64..1.0, seq in 0f64..1.0,
                                         seed in any::<u64>()) {
            let p = TraceProfile {
                seed, write_fraction: wf, sequentiality: seq,
                data_ops: 600, ..Default::default()
            };
            let t = synthesize(&p);
            let (got_wf, got_seq, _) = measure(&t);
            prop_assert!((got_wf - wf).abs() < 0.12, "wf {wf} -> {got_wf}");
            // Sequential wraps at EOF and re-seeks count against the
            // target, so the tolerance is looser on the high end.
            prop_assert!((got_seq - seq).abs() < 0.15, "seq {seq} -> {got_seq}");
        }

        #[test]
        fn synthesized_traces_always_valid(wf in 0f64..1.0, seq in 0f64..1.0) {
            let p = TraceProfile { write_fraction: wf, sequentiality: seq, ..Default::default() };
            let t = synthesize(&p);
            prop_assert!(t.validate().is_ok());
            // Round-trips through the binary codec.
            let back = TraceFile::from_bytes(&t.to_bytes()).unwrap();
            prop_assert_eq!(back.records, t.records);
        }
    }
}
