//! `telemetry::json` as an *untrusted-input* codec.
//!
//! The hand-rolled parser reads documents from disk (sweep caches,
//! `results/*.json`, benchmark references) that may be truncated,
//! corrupted or hand-edited, so a malformed file must never panic, recurse
//! without bound, or produce a value that corrupts re-serialized output.
//! Every rejection is a structured [`ParseError`] with a byte offset.
//! This suite covers the attack-shaped corners — deep nesting, duplicate
//! keys, truncation at every byte, huge numbers, invalid UTF-16 escapes —
//! plus a seeded mutation fuzz pass over valid documents.

use parrot_telemetry::json::{parse, ParseError, Value, MAX_DEPTH};
use parrot_telemetry::rng::Xorshift64Star;

#[test]
fn nesting_is_capped_with_a_structured_error() {
    // One past the cap: rejected, not a stack overflow.
    let deep_arr = format!(
        "{}1{}",
        "[".repeat(MAX_DEPTH + 1),
        "]".repeat(MAX_DEPTH + 1)
    );
    let err = parse(&deep_arr).expect_err("over-deep array must be rejected");
    assert_eq!(err.message, "nesting too deep");
    let mut deep_obj = String::new();
    for _ in 0..=MAX_DEPTH {
        deep_obj.push_str("{\"k\":");
    }
    deep_obj.push('1');
    deep_obj.push_str(&"}".repeat(MAX_DEPTH + 1));
    let err = parse(&deep_obj).expect_err("over-deep object must be rejected");
    assert_eq!(err.message, "nesting too deep");
}

#[test]
fn nesting_at_the_cap_parses() {
    let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&ok).is_ok(), "exactly MAX_DEPTH levels are fine");
}

#[test]
fn siblings_do_not_accumulate_depth() {
    // Depth is nesting, not container count: a long flat document of
    // sibling containers must parse however many there are.
    let flat = format!("[{}{{}}]", "{},".repeat(10_000));
    assert!(parse(&flat).is_ok());
}

#[test]
fn duplicate_keys_keep_the_last_value_deterministically() {
    let v = parse(r#"{"a":1,"b":2,"a":3,"a":4}"#).expect("RFC 8259 permits duplicates");
    assert_eq!(v.get("a").as_u64(), Some(4), "last duplicate wins");
    assert_eq!(v.get("b").as_u64(), Some(2));
    // And the value re-serializes with a single copy of the key.
    assert_eq!(v.to_json(), r#"{"a":4,"b":2}"#);
}

#[test]
fn every_truncation_of_a_document_errors_cleanly() {
    let doc = r#"{"job":{"kind":"sim","model":"TOW","insts":1e4,"tags":["a\u00e9","b\n"],"ok":true,"n":null,"x":-0.25}}"#;
    assert!(parse(doc).is_ok(), "the full document is valid");
    for cut in 0..doc.len() {
        if !doc.is_char_boundary(cut) {
            continue;
        }
        let err = parse(&doc[..cut]).expect_err("every prefix is incomplete");
        assert!(
            err.offset <= doc.len(),
            "offset {} in range for cut {cut}",
            err.offset
        );
        assert!(!err.message.is_empty());
        // The error formats without panicking.
        let _ = format!("{err}");
    }
}

#[test]
fn huge_numbers_are_rejected_not_infinity() {
    for bad in ["1e999", "-1e999", "123456789e999999", "1e+400"] {
        let err = parse(bad).expect_err("overflow to infinity must be rejected");
        assert_eq!(err.message, "number out of range", "{bad}");
    }
    // Values merely losing precision still parse: they are finite.
    assert!(parse("1e308").is_ok());
    assert!(parse("123456789012345678901234567890").is_ok());
    // Subnormal underflow collapses to 0.0, which is finite and fine.
    assert_eq!(parse("1e-999").unwrap().as_f64(), Some(0.0));
}

#[test]
fn malformed_number_shapes_are_rejected() {
    for bad in [
        "-", "+1", ".5", "1.", "1e", "1e+", "01", "0x10", "NaN", "Infinity", "--1",
    ] {
        match parse(bad) {
            // Either a parse error…
            Err(ParseError { .. }) => {}
            // …or (for "01") the grammar may stop early and then reject
            // the trailing characters. Both are structured rejections.
            Ok(v) => panic!("{bad:?} parsed to {v:?}"),
        }
    }
}

#[test]
fn invalid_utf16_escapes_are_rejected() {
    let cases = [
        (r#""\ud800""#, "lone high surrogate"),
        (r#""\ud800\u0041""#, "high surrogate + non-surrogate"),
        (r#""\udc00""#, "lone low surrogate"),
        (r#""\ud800\ud800""#, "two high surrogates"),
        (r#""\uZZZZ""#, "non-hex escape"),
        (r#""\u12"#, "truncated escape"),
        (r#""\x41""#, "unknown escape"),
    ];
    for (doc, what) in cases {
        assert!(parse(doc).is_err(), "{what} must be rejected: {doc}");
    }
    // Escaped surrogate pairs and raw multibyte UTF-8 still work.
    assert_eq!(parse(r#""\ud83e\udd9c""#).unwrap().as_str(), Some("🦜"));
    assert_eq!(parse("\"漢字\"").unwrap().as_str(), Some("漢字"));
}

#[test]
fn control_characters_and_garbage_bodies_error_cleanly() {
    for bad in [
        "",
        "   ",
        "\u{0}",
        "{\"a\":}",
        "{\"a\"}",
        "{,}",
        "[,]",
        "[1 2]",
        "{\"a\":1,}",
        "[1,]",
        "}{",
        "][",
        "nul",
        "tru",
        "falsey",
        "\"\\\"",
        "{\"\\ud800\":1}",
    ] {
        assert!(parse(bad).is_err(), "must reject {bad:?}");
    }
}

/// Seeded mutation fuzz: take a representative document, flip bytes,
/// truncate, and splice; the parser must always return (Ok or structured
/// Err) without panicking, and anything it accepts must re-serialize and
/// re-parse to the same value (idempotent canonicalization — what a
/// read-merge-write of a results file relies on).
#[test]
fn mutation_fuzz_never_panics_and_accepted_docs_roundtrip() {
    let seed_doc = r#"{"v":1,"kind":"sweep","insts":200000,"apps":["gcc","swim"],"rates":[0.01,0.25],"nested":{"a":[1,-2.5,3e2],"b":"x\ty"},"flag":true,"none":null}"#;
    let mut rng = Xorshift64Star::seed_from_u64(0x1a_55_0b_5e);
    let mut accepted = 0u32;
    for _ in 0..20_000 {
        let mut bytes = seed_doc.as_bytes().to_vec();
        for _ in 0..rng.usize_in(1, 9) {
            // rng ranges are half-open [lo, hi).
            match rng.u32_in(0, 4) {
                0 => {
                    // Flip a byte to an arbitrary value.
                    let i = rng.usize_in(0, bytes.len());
                    bytes[i] = rng.next_u64() as u8;
                }
                1 => {
                    // Truncate.
                    let i = rng.usize_in(0, bytes.len());
                    bytes.truncate(i);
                    if bytes.is_empty() {
                        break;
                    }
                }
                2 => {
                    // Duplicate a slice (grows nesting/keys).
                    let i = rng.usize_in(0, bytes.len());
                    let j = rng.usize_in(i, bytes.len() + 1);
                    let slice = bytes[i..j].to_vec();
                    bytes.extend_from_slice(&slice);
                }
                _ => {
                    // Insert a structural byte.
                    let i = rng.usize_in(0, bytes.len() + 1);
                    let b = [b'{', b'}', b'[', b']', b'"', b'\\', b',', b':', b'0'];
                    bytes.insert(i, b[rng.usize_in(0, b.len())]);
                }
            }
        }
        // Non-UTF-8 mutants never reach the parser in production
        // (`read_to_string` rejects them first); skip those here.
        let Ok(text) = std::str::from_utf8(&bytes) else {
            continue;
        };
        if let Ok(v) = parse(text) {
            accepted += 1;
            let once = v.to_json();
            let again = parse(&once).expect("re-parse of serialized value");
            assert_eq!(again, v, "canonicalization must be idempotent");
            assert_eq!(again.to_json(), once);
        }
    }
    assert!(accepted > 0, "some mutants should still be valid JSON");
}

/// The writer side of the codec: values built programmatically (as every
/// report writer does) always serialize to parseable JSON, even for
/// hostile strings.
#[test]
fn writer_output_is_always_reparseable() {
    let nasty = [
        "\u{0}\u{1}\u{1f}",
        "\"\\\"\\",
        "\u{7f}\u{80}\u{2028}\u{2029}",
        "🦜\u{10FFFF}",
    ];
    for s in nasty {
        let v = Value::obj([("k", Value::Str(s.to_string()))]);
        let back = parse(&v.to_json()).expect("writer output parses");
        assert_eq!(back.get("k").as_str(), Some(s));
    }
}
