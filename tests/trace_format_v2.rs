//! End-to-end pins for the v2 compact trace format.
//!
//! Three properties, straight from the format's contract:
//!
//! 1. **Bitwise losslessness** — `decode(encode(T)) == T` record for
//!    record, for every built-in workload atom, the chain/mix
//!    combinators, and (by proptest) arbitrary synthesized profiles at
//!    arbitrary block granularities.
//! 2. **Admission-on-ingest** — flipping any single byte of a v2 file
//!    either fails decode with a coded `TraceError` or yields records
//!    that still pass strict verification; it never panics and never
//!    smuggles garbage past the trust boundary.
//! 3. **Stack integration** — a v2 file on disk drives the experiment
//!    pipeline (auto-detected `Workload::File`, strict admission,
//!    serial replay) to the same result as the same trace in v1.
//! 4. **The bytes on disk are pinned** — literal `(len, crc32)` of the
//!    encoder's output, recorded before the CRC and varint routines
//!    were rewritten.
//! 5. **One pass == four passes** — serial replay straight off a v2
//!    file (each block admitted as the replay reaches it) reports
//!    bit-identically to loading, admitting, verifying and then
//!    replaying the same trace from memory.

use std::sync::Arc;

use proptest::prelude::*;

use clio_core::prelude::*;
use clio_core::trace::compact::block::crc32;
use clio_core::trace::compact::{
    decode_trace, encode_trace, load_auto, CompactSource, DEFAULT_BLOCK_RECORDS,
};
use clio_core::trace::source::{SharedSource, TraceSource};
use clio_core::trace::synth::{synthesize, TraceProfile};
use clio_core::trace::verify::{verify_strict, VerifyOptions};
use clio_core::trace::TraceFile;

/// Every built-in workload atom plus the combinators over them — the
/// same list the verify smoke admits.
const SPECS: [&str; 11] = [
    "synth",
    "seq",
    "rand",
    "dmine",
    "titan",
    "lu",
    "cholesky",
    "pgrep",
    "mix:dmine,lu",
    "mix:seq*3,rand*1",
    "chain:seq,rand",
];

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("clio-v2-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn drain(source: &mut dyn TraceSource) -> Vec<clio_core::trace::record::TraceRecord> {
    let mut out = Vec::new();
    while let Some(r) = source.next_record() {
        out.push(r);
    }
    out
}

#[test]
fn every_builtin_workload_round_trips_bitwise() {
    for spec in SPECS {
        let trace = Workload::parse(spec).unwrap().materialize().unwrap();
        let bytes = encode_trace(&trace).unwrap();
        let back = decode_trace(bytes).unwrap();
        assert_eq!(back.records, trace.records, "records differ for {spec}");
        assert_eq!(back.header.num_processes, trace.header.num_processes, "{spec}");
        assert_eq!(back.header.num_files, trace.header.num_files, "{spec}");
        assert_eq!(back.header.sample_file, trace.header.sample_file, "{spec}");
    }
}

#[test]
fn streaming_decode_matches_v1_stream() {
    let trace = Workload::parse("mix:dmine,lu").unwrap().materialize().unwrap();
    let bytes = encode_trace(&trace).unwrap();
    let mut v2 = CompactSource::from_bytes(bytes).unwrap();
    let mut v1 = SharedSource::new(Arc::clone(&trace));
    assert_eq!(v2.size_hint(), v1.size_hint(), "both sides know the exact length");
    assert_eq!(drain(&mut v2), drain(&mut v1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary synthesized profiles at arbitrary block granularities
    /// round-trip record-for-record.
    #[test]
    fn synthesized_profiles_round_trip(
        seed in any::<u64>(),
        data_ops in 0usize..240,
        write_fraction in 0.0f64..=1.0,
        sequentiality in 0.0f64..=1.0,
        explicit_seeks in any::<bool>(),
        block_records in 1usize..=DEFAULT_BLOCK_RECORDS,
    ) {
        let profile = TraceProfile {
            seed,
            data_ops,
            write_fraction,
            sequentiality,
            explicit_seeks,
            ..Default::default()
        };
        let trace = synthesize(&profile);
        let mut src = clio_core::trace::source::SliceSource::new(&trace);
        let bytes = clio_core::trace::compact::encode::encode_source_with_blocks(
            &mut src,
            block_records,
        ).unwrap();
        let back = decode_trace(bytes).unwrap();
        prop_assert_eq!(back.records, trace.records);
    }
}

/// The corrupt-block corpus: flip one byte at *every* position of a
/// multi-block v2 file. Each flip must either fail decode with a coded
/// error or decode to records that still pass strict verification —
/// and must never panic.
#[test]
fn single_byte_flips_never_pass_unverified() {
    // A small trace in small blocks, so the corpus covers prelude,
    // several block headers and payloads, and the index footer without
    // taking minutes.
    let profile = TraceProfile { data_ops: 40, ..Default::default() };
    let trace = synthesize(&profile);
    let mut src = clio_core::trace::source::SliceSource::new(&trace);
    let bytes = clio_core::trace::compact::encode::encode_source_with_blocks(&mut src, 16).unwrap();

    let mut rejected = 0usize;
    let mut admitted = 0usize;
    for at in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= bit;
            match CompactSource::from_bytes(corrupt) {
                Err(_) => rejected += 1, // coded rejection: the contract held
                Ok(mut source) => {
                    // The flip survived admission (header cosmetics,
                    // roster growth, advisory fields): whatever streams
                    // out must still satisfy the verifier's full rule
                    // table.
                    verify_strict(&mut source, VerifyOptions::default()).unwrap_or_else(|e| {
                        panic!(
                            "flip at byte {at} (bit {bit:#04x}) admitted records that fail \
                                strict verify: {e}"
                        )
                    });
                    admitted += 1;
                }
            }
        }
    }
    // The corpus must actually exercise both sides of the boundary:
    // most flips land in CRC-protected payload or framing (rejected),
    // a few land in cosmetic/advisory header bytes (admitted + still
    // verified).
    assert!(
        rejected > admitted,
        "CRC + structural checks reject the bulk: {rejected} vs {admitted}"
    );
    assert!(admitted > 0, "some flips (advisory fields) survive and must verify");
}

#[test]
fn v2_file_drives_the_experiment_stack_like_v1() {
    let trace = Workload::parse("synth").unwrap().materialize().unwrap();
    let dir = temp_dir("stack");
    let v1_path = dir.join("t.clio");
    let v2_path = dir.join("t.clc2");
    std::fs::write(&v1_path, trace.to_bytes()).unwrap();
    std::fs::write(&v2_path, encode_trace(&trace).unwrap()).unwrap();

    // Auto-detection: both files materialize to the same records.
    let from_v1 = Workload::File(v1_path.clone()).materialize().unwrap();
    let from_v2 = Workload::File(v2_path.clone()).materialize().unwrap();
    assert_eq!(from_v1.records, from_v2.records);

    // Strict admission composes with the streaming v2 decoder, and the
    // replay results agree between formats.
    let mut reports = Vec::new();
    for path in [v1_path, v2_path] {
        let report = Experiment::builder()
            .workload(Workload::File(path))
            .engine(Engine::SerialReplay)
            .verify(VerifyMode::Strict)
            .build()
            .unwrap()
            .run()
            .unwrap();
        reports.push(report);
    }
    let (v1_report, v2_report) = (&reports[0], &reports[1]);
    assert_eq!(v1_report.records, v2_report.records);
    assert_eq!(
        v1_report.replay.as_ref().map(|r| r.total_ms()),
        v2_report.replay.as_ref().map(|r| r.total_ms()),
        "simulated replay must not depend on the on-disk format"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_and_oversized_v2_files_are_coded_errors() {
    let trace = TraceFile::build("s.dat", 1, synthesize(&TraceProfile::default()).records).unwrap();
    let bytes = encode_trace(&trace).unwrap();
    // Every prefix fails with an error, never a panic.
    for cut in (0..bytes.len()).step_by(97) {
        assert!(CompactSource::from_bytes(bytes[..cut].to_vec()).is_err(), "prefix {cut}");
    }
    // Concatenating two v2 files is trailing garbage, not two traces.
    let mut doubled = bytes.clone();
    doubled.extend_from_slice(&bytes);
    assert!(matches!(
        CompactSource::from_bytes(doubled),
        Err(clio_core::trace::TraceError::TrailingBytes { .. })
    ));
}

/// "Same bytes on disk": the encoder's output for two built-in
/// workloads and one multi-block synthetic trace, as `(records, len,
/// crc32)` literals recorded at the commit before slicing-by-8 CRC and
/// the varint fast path went in. The CRC of the whole file covers every
/// block's stored CRC, so a checksum routine that drifted by a bit
/// shows here as well as in the known-answer tests.
#[test]
fn encoder_output_matches_the_recorded_golden_bytes() {
    let multi_block = Workload::Synthetic(TraceProfile { data_ops: 10_000, ..Default::default() });
    let golden = [
        (Workload::parse("synth").unwrap(), 303, 2_842, 0x6773_9DBFu32),
        (Workload::parse("mix:dmine,lu").unwrap(), 82, 843, 0x5C2E_BDE5),
        (multi_block, 11_979, 107_599, 0x2667_F2DE),
    ];
    for (workload, records, len, crc) in golden {
        let trace = workload.materialize().unwrap();
        let bytes = encode_trace(&trace).unwrap();
        assert_eq!(
            (trace.len(), bytes.len(), crc32(&bytes)),
            (records, len, crc),
            "{}: (records, len, crc32) moved — got crc {:#010x}",
            workload.label(),
            crc32(&bytes),
        );
    }
}

/// Everything deterministic a replay run reports, with the one field
/// that names the input's *form* (`file(..)` vs `trace(..)`) left out.
fn replay_fingerprint(
    report: &Report,
) -> (String, Vec<(clio_core::trace::record::TraceRecord, u64)>) {
    let mut summary = report.summary();
    summary.workload = String::new();
    let timings = report
        .replay
        .as_ref()
        .expect("replay section")
        .timings
        .iter()
        .map(|t| (t.record, t.elapsed_ms.to_bits()))
        .collect();
    (summary.to_json(), timings)
}

/// One pass == four passes, on clean input: for a single-pid file, a
/// two-pid mix file and a file chained after a synthetic phase, under
/// every admission mode and both report modes, `Experiment::run` on the
/// `Workload::File` (opened once, admitted block by block as the replay
/// reaches each block) equals the same run on the trace loaded whole
/// first — summary JSON, cache metrics, quarantine ledger and every
/// per-record timing bit.
#[test]
fn one_pass_file_replay_equals_load_then_replay() {
    let dir = temp_dir("fused");
    // Small blocks, so even these short traces span several.
    let write = |name: &str, workload: Workload| {
        let trace = workload.materialize().unwrap();
        let mut src = clio_core::trace::source::SliceSource::new(&trace);
        let bytes =
            clio_core::trace::compact::encode::encode_source_with_blocks(&mut src, 64).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        assert!(
            CompactSource::from_bytes(std::fs::read(&path).unwrap()).unwrap().block_count() > 2
        );
        path
    };
    let single = write("single.clc2", Workload::parse("synth").unwrap());
    let mixed = write("mixed.clc2", Workload::parse("mix:seq,rand").unwrap());
    let synth = || Workload::Synthetic(TraceProfile { data_ops: 50, ..Default::default() });
    type Wrap = fn(Workload, Workload) -> Workload;
    let cases: [(&std::path::Path, Wrap); 3] = [
        (&single, |file, _| file),
        (&mixed, |file, _| file),
        (&single, |file, synth| Workload::chain(synth, file)),
    ];
    for (path, wrap) in cases {
        let one_pass = wrap(Workload::File(path.to_path_buf()), synth());
        let loaded = wrap(Workload::trace(load_auto(path).unwrap()), synth());
        for verify in [VerifyMode::Off, VerifyMode::Strict, VerifyMode::Lenient] {
            for mode in [ReportMode::Summary, ReportMode::Full] {
                let run = |workload: &Workload| {
                    Experiment::builder()
                        .workload(workload.clone())
                        .engine(Engine::SerialReplay)
                        .verify(verify)
                        .report_mode(mode)
                        .build()
                        .unwrap()
                        .run()
                        .unwrap_or_else(|e| panic!("{}: {verify:?}/{mode:?}: {e}", path.display()))
                };
                let (fused, reference) = (run(&one_pass), run(&loaded));
                let what = format!("{} {verify:?}/{mode:?}", one_pass.label());
                assert!(fused.records > 150, "{what}: a multi-block stream");
                assert_eq!(replay_fingerprint(&fused), replay_fingerprint(&reference), "{what}");
                assert_eq!(fused.cache_metrics, reference.cache_metrics, "{what}");
                assert_eq!(fused.quarantine, reference.quarantine, "{what}");
                assert_eq!(fused.quarantine.is_some(), verify == VerifyMode::Lenient, "{what}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
