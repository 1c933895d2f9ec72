//! Hostility tests for the request parser ([`mpmb_serve::json`]): every
//! request body is untrusted, so malformed input must come back as an
//! `Err` — never a panic, never a silently different value.

use mpmb_serve::json::{Json, MAX_DEPTH};
use proptest::prelude::*;

/// A valid solve body exercising every value kind and escape form.
const SOLVE_BODY: &str = r#"{"graph":"demo","method":"ols","trials":5000,"prep":100,"seed":42,"threads":2,"k":3,"epsilon":0.0001,"butterfly":[1,2,3,4],"note":"d\u00e9mo \ud83d\ude00\n\\\"/","cache":true,"trace":null}"#;

#[test]
fn the_solve_body_parses() {
    let j = Json::parse(SOLVE_BODY).unwrap();
    assert_eq!(j.get("trials").and_then(Json::as_u64), Some(5000));
    assert_eq!(j.get("note").and_then(Json::as_str), Some("démo 😀\n\\\"/"));
}

#[test]
fn every_proper_prefix_is_an_error() {
    for cut in 0..SOLVE_BODY.len() {
        // A cut inside a multi-byte character is not UTF-8, and
        // non-UTF-8 bodies are rejected before the parser runs.
        let Some(prefix) = SOLVE_BODY.get(..cut) else {
            continue;
        };
        assert!(Json::parse(prefix).is_err(), "accepted prefix {prefix:?}");
    }
}

#[test]
fn every_single_bit_flip_is_an_error_or_an_exact_document() {
    let bytes = SOLVE_BODY.as_bytes();
    let mut errors = 0;
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 1 << bit;
            // Non-UTF-8 bodies are rejected before the parser runs.
            let Ok(text) = std::str::from_utf8(&flipped) else {
                continue;
            };
            match Json::parse(text) {
                Err(_) => errors += 1,
                // A flip that still spells JSON (a digit, a letter inside
                // a string) must parse to a value that round-trips.
                Ok(v) => assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}"),
            }
        }
    }
    assert!(errors > bytes.len(), "only {errors} flips rejected");
}

#[test]
fn unicode_escapes_take_exactly_four_hex_digits() {
    for bad in [
        r#""\u+041""#,
        r#""\u-041""#,
        r#""\u 041""#,
        r#""\u04G1""#,
        r#""\u041""#,
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad}");
    }
    assert_eq!(
        Json::parse(r#""\u0041\u00E9""#).unwrap().as_str(),
        Some("Aé")
    );
}

#[test]
fn numbers_follow_the_rfc_grammar() {
    for bad in [
        "01", "-01", "00", "1.", "-", "1e", "1e+", "1.e5", "-.5", "+1", ".5", "0x10", "1e5.",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted {bad}");
        assert!(
            Json::parse(&format!("[{bad}]")).is_err(),
            "accepted [{bad}]"
        );
    }
    for (good, want) in [
        ("0", 0.0),
        ("-0", -0.0),
        ("0.5", 0.5),
        ("1e5", 1e5),
        ("1E+5", 1e5),
        ("-1.5e-3", -1.5e-3),
        ("10", 10.0),
    ] {
        assert_eq!(Json::parse(good).unwrap().as_f64(), Some(want), "{good}");
    }
}

#[test]
fn overflowing_numbers_are_errors_not_infinities() {
    for bad in ["1e999999", "-1e999999", "1e309", r#"{"trials":1e400}"#] {
        let err = Json::parse(bad).unwrap_err();
        assert!(err.msg.contains("out of range"), "{bad}: {err}");
    }
    assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
    // Underflow is not an error: the nearest double is zero.
    assert_eq!(Json::parse("1e-999999").unwrap().as_f64(), Some(0.0));
}

#[test]
fn twenty_digit_integers_never_saturate_into_a_count() {
    // 2⁶⁴ − 1 and 2⁶⁴ both round to the double 2⁶⁴, past `u64::MAX`.
    for big in [
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
    ] {
        let v = Json::parse(big).unwrap();
        assert_eq!(v.as_u64(), None, "{big}");
        let body = Json::parse(&format!(r#"{{"trials":{big}}}"#)).unwrap();
        assert_eq!(body.get("trials").and_then(Json::as_u64), None, "{big}");
    }
    // A 20-digit integer a double holds exactly is read exactly.
    let exact = Json::parse("10000000000000000000").unwrap();
    assert_eq!(exact.as_u64(), Some(10_000_000_000_000_000_000));
    assert_eq!(Json::parse("-18446744073709551615").unwrap().as_u64(), None);
}

#[test]
fn nesting_at_the_cap_parses_and_one_past_it_is_an_error() {
    // The body itself nests two levels (its object and `butterfly`).
    let wrap = |n: usize| format!("{}{SOLVE_BODY}{}", "[".repeat(n), "]".repeat(n));
    assert!(Json::parse(&wrap(MAX_DEPTH - 2)).is_ok());
    let err = Json::parse(&wrap(MAX_DEPTH - 1)).unwrap_err();
    assert!(err.msg.contains("nesting"), "{err}");
}

#[test]
fn duplicate_keys_keep_every_occurrence_and_the_first_wins() {
    let j = Json::parse(r#"{"trials":5,"seed":1,"trials":7}"#).unwrap();
    assert_eq!(j.get("trials").and_then(Json::as_u64), Some(5));
    let Json::Obj(fields) = &j else {
        panic!("not an object")
    };
    assert_eq!(fields.len(), 3);
    assert_eq!(fields[2], ("trials".to_string(), Json::Num(7.0)));
}

proptest! {
    /// Arbitrary text never panics the parser.
    #[test]
    fn random_text_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
    }

    /// Splicing random bytes into the solve body never panics.
    #[test]
    fn spliced_bodies_never_panic(at in 0usize..SOLVE_BODY.len(),
                                  junk in proptest::collection::vec(any::<u8>(), 1..16)) {
        let mut bytes = SOLVE_BODY.as_bytes().to_vec();
        bytes.splice(at..at, junk);
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
    }
}
