//! Properties of the one JSON codec every text format in the workspace
//! shares: floats round-trip by bits, strings round-trip through every
//! escape, truncated and garbage input is rejected with a position inside
//! it (never a panic), and the strict grammar rejects what RFC 8259 does.
//! The writer's fast paths (integers, integer-valued floats, escape-free
//! strings) write exactly what `{}` Display and the per-byte escaper
//! write.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use chamulteon_obs::json::{self, JsonError, Writer, MAX_DEPTH};
use proptest::prelude::*;

/// One compact record holding `value` under key `v`.
fn record_with(fill: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    let mut w = Writer::compact(&mut out);
    fill(&mut w);
    w.finish();
    out
}

fn round_trip_f64(v: f64) -> f64 {
    let text = record_with(|w| {
        w.f64("v", v);
    });
    json::parse_record(&text, 1)
        .and_then(|r| r.f64("v"))
        .unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// The text the writer gives one member, between `{"v":` and `}`.
fn member_text(fill: impl FnOnce(&mut Writer<'_>)) -> String {
    let text = record_with(fill);
    let body = text
        .strip_prefix("{\"v\":")
        .and_then(|t| t.strip_suffix('}'));
    body.unwrap_or_else(|| panic!("{text}")).to_owned()
}

/// A compact array of `values` as each element's Display writes it.
fn display_array<T: std::fmt::Display>(values: &[T]) -> String {
    let items: Vec<String> = values.iter().map(T::to_string).collect();
    format!("[{}]", items.join(","))
}

fn written_f64(v: f64) -> String {
    member_text(|w| {
        w.f64("v", v);
    })
}

/// The per-byte escaper the writer used before it copied escape-free
/// strings whole: the reference the fast path must match.
fn reference_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\0'..='\u{1f}' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

fn round_trip_str(s: &str) -> String {
    let text = record_with(|w| {
        w.str("v", s);
    });
    let record = json::parse_record(&text, 1).unwrap_or_else(|e| panic!("{text:?}: {e}"));
    record.str("v").unwrap().to_owned()
}

/// The byte offset a `(line, column)` error position points at, given
/// the first line is `first_line`.
fn offset_of(text: &str, err: &JsonError, first_line: usize) -> usize {
    let line_start: usize = text
        .split_inclusive('\n')
        .take(err.line - first_line)
        .map(str::len)
        .sum();
    line_start + err.column - 1
}

/// A document exercising every value kind in both layouts.
fn sample_documents() -> Vec<String> {
    let mut indented = String::new();
    let mut w = Writer::indented(&mut indented);
    w.str("name", "a \"quoted\"\tname 😀")
        .f64("x", -0.0)
        .f64("nan", f64::NAN)
        .u64("big", u64::MAX)
        .bool("flag", false)
        .begin_array("items");
    w.push_object().f64_array("xs", &[1.5, 5e-324]).end_object();
    w.push_array().push_u64(7).push_str("\u{1}").end_array();
    w.end_array().begin_object("empty").end_object();
    w.finish();
    let compact = record_with(|w| {
        w.str("kind", "decision")
            .u32_array("targets", &[1, 2, 3])
            .opt_f64("absent", None)
            .f64("rate", 1e21);
    });
    vec![indented, compact]
}

#[test]
fn float_edge_cases_round_trip_by_bits() {
    for v in [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        1e21,
        1e22,
        0.1,
        1.0 / 3.0,
        f64::MAX,
        f64::MIN,
        9_007_199_254_740_993.0,
    ] {
        assert_eq!(round_trip_f64(v).to_bits(), v.to_bits(), "{v:e}");
    }
    // Display never uses exponent notation.
    assert_eq!(
        record_with(|w| {
            w.f64("v", 1e21);
        }),
        "{\"v\":1000000000000000000000}"
    );
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(
            record_with(|w| {
                w.f64("v", v);
            }),
            "{\"v\":null}"
        );
        assert!(round_trip_f64(v).is_nan());
    }
}

#[test]
fn fast_paths_write_what_display_writes() {
    let mut floats = vec![0.0, -0.0, 1.0, -1.0, 1e21, 1e23, f64::MAX, f64::MIN];
    for k in 0..=53 {
        let p = 2f64.powi(k);
        floats.extend([p - 1.0, p, p + 1.0]);
    }
    floats.extend([2f64.powi(53) + 2.0, 2f64.powi(60)]);
    for v in floats {
        for v in [v, -v] {
            assert_eq!(written_f64(v), format!("{v}"), "{v:e}");
        }
    }
    // The cases the integer path must leave to Display.
    assert_eq!(written_f64(-0.0), "-0");
    assert_eq!(written_f64(2f64.powi(60)), "1152921504606847000");
    assert_eq!(written_f64(1e23), "100000000000000000000000");
    let u64s = [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
    assert_eq!(
        member_text(|w| {
            w.u64_array("v", &u64s);
        }),
        display_array(&u64s)
    );
    let u32s = [0, 7, u32::MAX];
    assert_eq!(
        member_text(|w| {
            w.u32_array("v", &u32s);
        }),
        display_array(&u32s)
    );
    let usizes = [0, 42, usize::MAX];
    assert_eq!(
        member_text(|w| {
            w.usize_array("v", &usizes);
        }),
        display_array(&usizes)
    );
    let bools = [true, false];
    assert_eq!(
        member_text(|w| {
            w.bool_array("v", &bools);
        }),
        display_array(&bools)
    );
}

#[test]
fn integers_read_back_exactly() {
    let record = json::parse_record("{\"a\":9007199254740993,\"b\":18446744073709551615}", 1)
        .expect("parses");
    assert_eq!(record.u64("a"), Ok(9_007_199_254_740_993));
    assert_eq!(record.u64("b"), Ok(u64::MAX));
    assert!(record.u32("a").is_err(), "beyond u32");
    let record =
        json::parse_record("{\"a\":18446744073709551616,\"b\":-1,\"c\":1.0}", 1).expect("parses");
    for key in ["a", "b", "c"] {
        let err = record.u64(key).expect_err("not a u64");
        assert!(err.message.contains(&format!("`{key}`")), "{err}");
    }
}

#[test]
fn every_escape_decodes() {
    let record = json::parse_record(r#"{"v":"\"\\\/\b\f\n\r\t\u0041\u00e9\ud83d\ude00"}"#, 1)
        .expect("parses");
    assert_eq!(record.str("v"), Ok("\"\\/\u{8}\u{c}\n\r\tAé😀"));
    // The writer's escapes, by name where JSON has one.
    assert_eq!(
        record_with(|w| {
            w.str("v", "\"\\\n\r\t\u{1}\u{1f}/é😀");
        }),
        "{\"v\":\"\\\"\\\\\\n\\r\\t\\u0001\\u001f/é😀\"}"
    );
}

#[test]
fn strict_grammar_rejections() {
    for bad in [
        "01",
        "-01",
        "00",
        "+1",
        "1.",
        ".5",
        "-",
        "1e",
        "1e+",
        "[1,]",
        "{\"a\":1,}",
        "[,1]",
        "{,}",
        "\"a\u{1}b\"",
        "\"a\nb\"",
        "\"\\ud83d\"",
        "\"\\ude00\"",
        "\"\\ud83dx\"",
        "\"\\ud83d\\u0041\"",
        "\"\\x\"",
        "\"\\u12\"",
        "1e400",
        "-1e400",
        "1e309",
        "nul",
        "truex",
        "{\"a\" 1}",
        "{\"a\":1} trailing",
        "{1:2}",
        "",
        "   ",
    ] {
        let err = json::parse(bad).expect_err(bad);
        assert!(
            offset_of(bad, &err, 1) <= bad.len(),
            "{bad:?}: position {err} outside the input"
        );
    }
    // Just inside the finite range.
    for good in ["1e308", "0.1e309", "1.7976931348623157e308", "1e-400", "-0"] {
        assert!(json::parse(good).is_ok(), "{good}");
    }
    let err = json::parse("{\n  \"a\": 1e400\n}").expect_err("overflow");
    assert_eq!((err.line, err.column), (2, 8), "{err}");
}

#[test]
fn nesting_is_bounded() {
    let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert!(json::parse(&deep).is_err());
    let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(json::parse(&ok).is_ok());
}

#[test]
fn every_strict_prefix_is_rejected_inside_the_input() {
    for doc in sample_documents() {
        let value = json::parse(&doc).expect("whole document parses");
        assert!(value.as_object().is_some());
        for (cut, _) in doc.char_indices() {
            let prefix = &doc[..cut];
            let err = json::parse(prefix).expect_err(prefix);
            assert!(
                offset_of(prefix, &err, 1) <= prefix.len(),
                "{prefix:?}: {err}"
            );
            if !prefix.contains('\n') {
                let err = json::parse_record(prefix, 7).expect_err(prefix);
                assert_eq!(err.line, 7);
                assert!(offset_of(prefix, &err, 7) <= prefix.len(), "{err}");
            }
        }
    }
}

/// Characters drawn by category, so generated strings hit every escape,
/// control characters, the BMP and the astral planes.
fn pick_char(category: u32, code: u32) -> char {
    let code = match category {
        0 => code % 0x20,
        1 => [0x22, 0x5c, 0x2f, 0x7f][(code % 4) as usize],
        2 => 0x20 + code % 0x5f,
        3 => 0x80 + code % (0xd800 - 0x80),
        _ => 0x1_0000 + code % (0x11_0000 - 0x1_0000),
    };
    char::from_u32(code).unwrap()
}

/// JSON-significant bytes, so garbage gets past the first token.
const ALPHABET: &[u8] = b"{}[]:,\"\\ \n\t0123456789-+.eEtrufalsn/u";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn finite_floats_round_trip_by_bits(v in any::<f64>(), tiny in 0u64..(1 << 52)) {
        prop_assert_eq!(round_trip_f64(v).to_bits(), v.to_bits());
        let subnormal = f64::from_bits(tiny);
        prop_assert_eq!(round_trip_f64(subnormal).to_bits(), subnormal.to_bits());
    }

    #[test]
    fn strings_round_trip(chars in prop::collection::vec((0u32..5, 0u32..0x11_0000), 0..24)) {
        let s: String = chars.iter().map(|&(category, code)| pick_char(category, code)).collect();
        prop_assert_eq!(round_trip_str(&s), s);
    }

    #[test]
    fn integers_of_every_bit_length_write_as_display(
        bits in 0u32..=64,
        raw in 0u64..=u64::MAX,
        negative in any::<bool>(),
    ) {
        // `raw` cut to exactly `bits` bits: 0 for none, 2^63 and up for 64.
        let magnitude = match bits {
            0 => 0,
            64 => raw | 1 << 63,
            _ => raw & ((1 << bits) - 1) | 1 << (bits - 1),
        };
        prop_assert_eq!(member_text(|w| { w.u64("v", magnitude); }), magnitude.to_string());
        let low = u32::try_from(magnitude & u64::from(u32::MAX)).unwrap();
        prop_assert_eq!(member_text(|w| { w.u32("v", low); }), low.to_string());
        let index = usize::try_from(magnitude).unwrap();
        prop_assert_eq!(member_text(|w| { w.usize("v", index); }), index.to_string());
        // Rounded to the nearest float: exact below 2^53, an integer
        // with fewer significant digits from there on.
        let v = if negative { -(magnitude as f64) } else { magnitude as f64 };
        prop_assert_eq!(written_f64(v), format!("{v}"));
    }

    #[test]
    fn floats_write_as_display(v in any::<f64>(), tiny in 0u64..(1 << 52)) {
        prop_assert_eq!(written_f64(v), format!("{v}"));
        let subnormal = f64::from_bits(tiny);
        prop_assert_eq!(written_f64(subnormal), format!("{subnormal}"));
    }

    #[test]
    fn strings_write_as_the_per_byte_escaper(
        chars in prop::collection::vec((0u32..5, 0u32..0x11_0000), 0..24),
        plain in any::<bool>(),
    ) {
        // Half the cases hold no byte that needs an escape.
        let s: String = chars
            .iter()
            .map(|&(category, code)| {
                let category = if plain && category < 2 { 2 } else { category };
                pick_char(category, code)
            })
            .collect();
        let expected = reference_string(&s);
        prop_assert_eq!(member_text(|w| { w.str("v", &s); }), expected.clone());
        let keyed = record_with(|w| {
            w.u32(&s, 0);
        });
        prop_assert_eq!(keyed, format!("{{{expected}:0}}"));
    }

    #[test]
    fn garbage_never_panics(
        raw in prop::collection::vec(0u32..256, 0..48),
        biased in prop::collection::vec(0usize..ALPHABET.len(), 0..48),
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| u8::try_from(b).unwrap()).collect();
        let lossy = String::from_utf8_lossy(&bytes).into_owned();
        let json_ish: String = biased.iter().map(|&i| char::from(ALPHABET[i])).collect();
        for text in [lossy, json_ish] {
            if let Err(err) = json::parse(&text) {
                prop_assert!(offset_of(&text, &err, 1) <= text.len(), "{err}");
            }
            let _ = json::parse_record(&text, 1);
        }
    }
}
