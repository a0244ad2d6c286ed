//! Roundtrip and rejection properties of the on-disk trace format
//! (DESIGN.md §16): capture→replay must be byte-identical to the live
//! engine for every registered application, captures must be deterministic,
//! random slice access must agree with sequential decode, and every
//! corruption mode must be rejected with the right structured error.

use parrot_workloads::tracefmt::{
    capture, decode_all, ReplayCursor, TraceError, TraceFile, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
use parrot_workloads::{all_apps, app_by_name, Workload};
use std::sync::Arc;

const INSTS: u64 = 30_000;
/// Deliberately small and non-dividing so every capture has many slices and
/// a ragged final slice.
const SLICE: u32 = 700;

fn wl(name: &str) -> Workload {
    Workload::build(&app_by_name(name).expect("registered app"))
}

#[test]
fn roundtrip_is_byte_identical_for_all_apps() {
    for p in all_apps() {
        let wl = Workload::build(&p);
        let trace = Arc::new(capture(&wl, INSTS, SLICE).expect("encodable"));
        let live: Vec<_> = wl.engine().take(INSTS as usize).collect();
        let replayed = decode_all(&trace, &wl).expect("decodes");
        assert_eq!(
            replayed, live,
            "{}: replay diverges from the engine",
            p.name
        );
        assert!(
            trace.bits_per_inst() < 16.0,
            "{}: {:.2} bits/inst is not a compact encoding",
            p.name,
            trace.bits_per_inst()
        );
    }
}

#[test]
fn capture_is_deterministic() {
    let w = wl("gcc");
    let a = capture(&w, 10_000, 512).expect("encodable");
    let b = capture(&w, 10_000, 512).expect("encodable");
    assert_eq!(a.bytes(), b.bytes(), "same stream must encode identically");
    assert_eq!(a.file_fp(), b.file_fp());
}

#[test]
fn reparse_of_written_bytes_is_lossless() {
    let w = wl("vortex");
    let trace = capture(&w, 5_000, 256).expect("encodable");
    let reparsed = TraceFile::parse(trace.bytes().to_vec()).expect("valid");
    assert_eq!(reparsed.inst_count(), trace.inst_count());
    assert_eq!(reparsed.app_name(), "vortex");
    assert_eq!(reparsed.source_fp(), trace.source_fp());
    assert_eq!(reparsed.slices(), trace.slices());
    assert_eq!(reparsed.file_fp(), trace.file_fp());
}

#[test]
fn random_slice_access_matches_sequential_decode() {
    let w = wl("equake");
    let trace = Arc::new(capture(&w, 20_000, 1_000).expect("encodable"));
    let all = decode_all(&trace, &w).expect("decodes");
    let mut cur = ReplayCursor::new(Arc::clone(&trace), &w).expect("source matches");
    // Jump around out of order; each slice must decode from its index entry
    // alone, independent of everything before it.
    for slice in [7usize, 0, 19, 3, 12] {
        cur.at_slice(slice).expect("in range");
        let start = slice * 1_000;
        assert_eq!(cur.read(), start as u64);
        for (k, want) in all[start..start + 1_000].iter().enumerate() {
            let got = cur.try_next().expect("decodes");
            assert_eq!(&got, want, "slice {slice} inst {k}");
        }
    }
    assert!(
        cur.at_slice(trace.slices().len()).is_err(),
        "out-of-range slice must be rejected"
    );
}

#[test]
fn seek_lands_mid_slice_and_agrees_with_sequential_decode() {
    let w = wl("lucas");
    let trace = Arc::new(capture(&w, 10_000, 1_000).expect("encodable"));
    let all = decode_all(&trace, &w).expect("decodes");
    let mut cur = ReplayCursor::new(Arc::clone(&trace), &w).expect("source matches");
    // Positions straddling slice boundaries, out of order, including 0 and
    // the very last instruction.
    for pos in [4_321usize, 0, 999, 1_000, 7_700, 9_999, 2_500] {
        cur.seek(pos as u64).expect("in range");
        assert_eq!(cur.read(), pos as u64);
        let got = cur.try_next().expect("decodes");
        assert_eq!(got, all[pos], "seek({pos})");
    }
    assert_eq!(
        cur.seek(10_000),
        Err(TraceError::TooShort {
            captured: 10_000,
            requested: 10_001
        })
    );

    // StreamSource::skip routes through the same machinery and must agree
    // with a live engine skipped the slow way.
    let mut replay =
        parrot_workloads::StreamSource::replay(Arc::clone(&trace), &w).expect("source matches");
    let mut live = parrot_workloads::StreamSource::live(&w);
    replay.skip(6_400).expect("in range");
    live.skip(6_400).expect("live skip is infallible");
    for k in 0..200 {
        assert_eq!(replay.next_inst(), live.next_inst(), "inst {k} after skip");
    }
}

#[test]
fn replay_past_capture_end_is_a_structured_error() {
    let w = wl("art");
    let trace = Arc::new(capture(&w, 1_000, 256).expect("encodable"));
    let mut cur = ReplayCursor::new(Arc::clone(&trace), &w).expect("source matches");
    for _ in 0..1_000 {
        cur.try_next().expect("within capture");
    }
    assert_eq!(
        cur.try_next(),
        Err(TraceError::TooShort {
            captured: 1_000,
            requested: 1_001
        })
    );
}

#[test]
fn rejects_bad_magic() {
    let w = wl("gzip");
    let mut bytes = capture(&w, 2_000, 512).expect("encodable").bytes().to_vec();
    bytes[0] ^= 0xFF;
    assert_eq!(TraceFile::parse(bytes).unwrap_err(), TraceError::BadMagic);
    // A totally foreign file is BadMagic too, once it is long enough.
    assert_eq!(
        TraceFile::parse(vec![0u8; 4 * HEADER_LEN]).unwrap_err(),
        TraceError::BadMagic
    );
}

#[test]
fn rejects_future_version() {
    let w = wl("gzip");
    let mut bytes = capture(&w, 2_000, 512).expect("encodable").bytes().to_vec();
    let future = (FORMAT_VERSION + 1).to_le_bytes();
    bytes[0x08..0x0C].copy_from_slice(&future);
    assert_eq!(
        TraceFile::parse(bytes).unwrap_err(),
        TraceError::UnsupportedVersion {
            found: FORMAT_VERSION + 1
        }
    );
}

#[test]
fn rejects_truncation_at_every_boundary() {
    let w = wl("gzip");
    let bytes = capture(&w, 2_000, 512).expect("encodable").bytes().to_vec();
    // Shorter than a header at all.
    match TraceFile::parse(bytes[..HEADER_LEN / 2].to_vec()).unwrap_err() {
        TraceError::Truncated { actual, .. } => assert_eq!(actual, HEADER_LEN / 2),
        e => panic!("expected Truncated, got {e:?}"),
    }
    // Valid header, body cut off.
    match TraceFile::parse(bytes[..bytes.len() - 40].to_vec()).unwrap_err() {
        TraceError::Truncated { expected, actual } => {
            assert_eq!(expected, bytes.len());
            assert_eq!(actual, bytes.len() - 40);
        }
        e => panic!("expected Truncated, got {e:?}"),
    }
    // Trailing garbage is also structural, not silently ignored.
    let mut padded = bytes.clone();
    padded.extend_from_slice(b"junk");
    assert!(matches!(
        TraceFile::parse(padded).unwrap_err(),
        TraceError::Malformed(_)
    ));
}

#[test]
fn any_flipped_payload_bit_fails_a_checksum() {
    let w = wl("crafty");
    let bytes = capture(&w, 4_000, 512).expect("encodable").bytes().to_vec();
    // Flip one bit in several file regions: header tail, payload middle,
    // index. Each must fail the whole-file or per-slice checksum.
    for off in [0x30usize, bytes.len() / 2, bytes.len() - 24] {
        let mut corrupt = bytes.clone();
        corrupt[off] ^= 0x10;
        match TraceFile::parse(corrupt).unwrap_err() {
            TraceError::ChecksumMismatch { .. } | TraceError::Malformed(_) => {}
            e => panic!("byte {off}: expected checksum/structural error, got {e:?}"),
        }
    }
}

#[test]
fn rejects_replay_against_the_wrong_workload() {
    let gcc = wl("gcc");
    let twolf = wl("twolf");
    let trace = Arc::new(capture(&gcc, 2_000, 512).expect("encodable"));
    assert!(matches!(
        trace.check_source(&twolf),
        Err(TraceError::SourceMismatch { .. })
    ));
    assert!(matches!(
        ReplayCursor::new(Arc::clone(&trace), &twolf),
        Err(TraceError::SourceMismatch { .. })
    ));
    assert!(trace.check_source(&gcc).is_ok());
}

#[test]
fn magic_is_the_documented_constant() {
    // DESIGN.md §16.1 pins these exact bytes; a drift here is a spec break.
    assert_eq!(&MAGIC, b"PRTRACE\0");
    let w = wl("gcc");
    let trace = capture(&w, 1_000, 512).expect("encodable");
    assert_eq!(&trace.bytes()[..8], b"PRTRACE\0");
    assert_eq!(&trace.bytes()[trace.bytes().len() - 8..], b"PTRCEND\0");
}
