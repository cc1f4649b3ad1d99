//! A minimal hand-rolled JSON writer and parser.
//!
//! The build environment is fully offline, so instead of `serde` the
//! workspace serializes with this module: the benchmark harness writes its
//! [`Measurement`] documents with it, and the query
//! server reads and writes its line-delimited request/response protocol
//! through [`Value`] and its [`std::fmt::Display`] serializer. Only the
//! subset of JSON those consumers need is supported: objects, arrays,
//! strings, booleans, integers, and finite floats (non-finite floats
//! serialize as `null`, which JSON requires).
//!
//! One escaper serves every writer: [`escape_into`] appends a string's
//! escaped form to a `String`, copying the runs that need no escaping as
//! slices, and [`Value::Str`]'s `Display` runs the same loop through the
//! `Formatter`, so rendering a reply allocates nothing per string. A writer
//! that renders a large part of a reply itself (the server's answer rows)
//! hands the text over as [`Value::Raw`], which `Display` writes verbatim.

use crate::Measurement;
use std::fmt;

/// Escapes a string for inclusion in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Appends the escaped form of `s` (without quotes) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    write_escaped(out, s).expect("writing to a String cannot fail");
}

/// The one escaping loop: `"`, `\`, and the control characters below
/// U+0020 are escaped (`\n`, `\r`, `\t` by name, the rest as `\u00xx`);
/// every run of other characters is written as one slice. The escaped
/// bytes are all ASCII, so slicing at them never splits a UTF-8 sequence.
fn write_escaped(w: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        w.write_str(&s[run..i])?;
        match named {
            Some(e) => w.write_str(e)?,
            None => write!(w, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    w.write_str(&s[run..])
}

/// Serializes an `f64` as a JSON number, or `null` when non-finite.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` is guaranteed round-trippable and always contains a decimal
        // point or exponent, so the output is an unambiguous JSON float.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Serializes one measurement as a JSON object.
pub fn measurement(m: &Measurement) -> String {
    format!(
        "{{\"series\":\"{}\",\"param\":{},\"seconds\":{},\"note\":\"{}\"}}",
        escape(&m.series),
        m.param,
        number(m.seconds),
        escape(&m.note)
    )
}

/// Serializes a whole experiment family as a JSON document:
/// `{"experiment": ..., "mode": ..., "measurements": [...]}`.
pub fn experiment(id: &str, mode: &str, measurements: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"experiment\": \"{}\",\n", escape(id)));
    out.push_str(&format!("  \"mode\": \"{}\",\n", escape(mode)));
    out.push_str("  \"measurements\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&measurement(m));
        if i + 1 < measurements.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Parsing (the server's request lines, the benchmarks' result documents)
// ---------------------------------------------------------------------------

/// A JSON value. The parser covers the documents this module itself emits
/// and general JSON built from them, `\u` surrogate pairs included.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null` (also produced for non-finite floats by [`number`]).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
    /// JSON text that is already rendered, which `Display` writes verbatim.
    /// Only writers build it (the server renders its answer rows into one);
    /// [`parse`] never produces it, and the accessors treat it as opaque.
    Raw(String),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Builds an object value from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Builds an integral number value.
    pub fn int(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl fmt::Display for Value {
    /// Serializes the value as compact JSON (no whitespace). Integral
    /// numbers print without a decimal point; non-finite numbers print as
    /// `null`. This is the writer the server protocol uses — one `Value`
    /// per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(x) if !x.is_finite() => f.write_str("null"),
            Value::Num(x) if x.fract() == 0.0 && x.abs() < 9.0e15 => {
                write!(f, "{}", *x as i64)
            }
            Value::Num(x) => write!(f, "{x:?}"),
            Value::Str(s) => {
                f.write_str("\"")?;
                write_escaped(f, s)?;
                f.write_str("\"")
            }
            Value::Raw(text) => f.write_str(text),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    f.write_str("\"")?;
                    write_escaped(f, k)?;
                    write!(f, "\":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses a JSON document. Returns a descriptive error on malformed input.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number `{s}`"))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        out.push(parse_unicode_escape(b, pos)?);
                        continue;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // copy a full UTF-8 scalar
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(*pos..*pos + len)
                    .ok_or_else(|| "truncated UTF-8 sequence".to_string())?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

/// Decodes the `\uXXXX` escape whose `u` is at `b[*pos]`, or a UTF-16
/// surrogate pair `\uD8xx\uDCxx` spelled as two such escapes, leaving
/// `*pos` just past it. A lone or reversed surrogate is an error naming the
/// byte offset of its backslash, never a substituted character.
fn parse_unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let at = *pos - 1;
    let high = hex4(b, *pos + 1).ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
    *pos += 5;
    let code = match high {
        0xd800..=0xdbff => {
            let low = match (b.get(*pos..*pos + 2), hex4(b, *pos + 2)) {
                (Some(b"\\u"), Some(low @ 0xdc00..=0xdfff)) => low,
                _ => return Err(format!("unpaired surrogate \\u{high:04x} at byte {at}")),
            };
            *pos += 6;
            0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
        }
        0xdc00..=0xdfff => return Err(format!("unpaired surrogate \\u{high:04x} at byte {at}")),
        code => code,
    };
    Ok(char::from_u32(code).expect("a non-surrogate code point below 0x110000 is a char"))
}

/// The value of exactly four hex digits at `b[start..start + 4]`.
fn hex4(b: &[u8], start: usize) -> Option<u32> {
    let digits = b.get(start..start + 4)?;
    digits.iter().try_fold(0, |acc, &d| Some(acc * 16 + (d as char).to_digit(16)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(series: &str, param: u64, seconds: f64, note: &str) -> Measurement {
        Measurement { series: series.to_string(), param, seconds, note: note.to_string() }
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    /// The escaper as it was first written, one `char` at a time: the
    /// reference the slice-copying loop must match byte for byte.
    fn escape_by_chars(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn escape_into_matches_the_per_char_escaper_on_random_strings() {
        // Every char below 0x20 appears, next to ASCII, 2-, 3- and 4-byte
        // UTF-8 and the two characters that always need escaping.
        let mut pool: Vec<char> = (0u8..0x20).map(char::from).collect();
        pool.extend(['"', '\\', 'a', 'Z', '/', ' ', '\u{7f}', 'é', 'ß', '€', '\u{2028}', '😀']);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for _ in 0..2_000 {
            let len = next(24);
            let s: String = (0..len).map(|_| pool[next(pool.len())]).collect();
            let want = escape_by_chars(&s);
            let mut got = String::from("prefix");
            escape_into(&mut got, &s);
            assert_eq!(&got["prefix".len()..], want, "{s:?}");
            assert_eq!(escape(&s), want);
            assert_eq!(Value::str(s.as_str()).to_string(), format!("\"{want}\""));
            assert_eq!(parse(&format!("\"{want}\"")).unwrap(), Value::str(s.as_str()));
        }
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs_and_reject_lone_surrogates() {
        let s = |text: &str| parse(text).map(|v| v.as_str().unwrap().to_string());
        assert_eq!(s(r#""x\ud83d\ude00""#).unwrap(), "x😀");
        assert_eq!(s(r#""\uD83D\uDE00!""#).unwrap(), "😀!");
        assert_eq!(s(r#""\u00e9\u0041""#).unwrap(), "éA");
        // A lone high or low surrogate, or a reversed pair, is an error at
        // the byte offset of its backslash, not a replacement character.
        assert_eq!(s(r#""ab\ud83d""#).unwrap_err(), "unpaired surrogate \\ud83d at byte 3");
        assert_eq!(s(r#""\ud83dx""#).unwrap_err(), "unpaired surrogate \\ud83d at byte 1");
        assert_eq!(s(r#""\ud83d\u0041""#).unwrap_err(), "unpaired surrogate \\ud83d at byte 1");
        assert_eq!(s(r#""\ude00\ud83d""#).unwrap_err(), "unpaired surrogate \\ude00 at byte 1");
        // Exactly four hex digits.
        assert_eq!(s(r#""\u+041""#).unwrap_err(), "bad \\u escape at byte 1");
        assert_eq!(s(r#""\u04""#).unwrap_err(), "bad \\u escape at byte 1");
        assert!(s(r#""\u0""#).is_err());
    }

    #[test]
    fn raw_values_render_verbatim() {
        let v =
            Value::obj([("ok", Value::Bool(true)), ("answers", Value::Raw("[[\"a\"]]".into()))]);
        assert_eq!(v.to_string(), r#"{"ok":true,"answers":[["a"]]}"#);
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_is_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        // integral floats keep a decimal point so they stay floats when parsed
        assert_eq!(number(2.0), "2.0");
    }

    #[test]
    fn experiment_document_shape() {
        let doc = experiment("fig1a_data", "quick", &[m("crpq", 100, 0.25, "answer=true")]);
        assert!(doc.contains("\"experiment\": \"fig1a_data\""));
        assert!(doc.contains("\"mode\": \"quick\""));
        assert!(doc.contains(
            "{\"series\":\"crpq\",\"param\":100,\"seconds\":0.25,\"note\":\"answer=true\"}"
        ));
        // crude balance check: equal numbers of braces and brackets
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn empty_measurement_list_is_valid() {
        let doc = experiment("empty", "full", &[]);
        assert!(doc.contains("\"measurements\": [\n  ]"));
    }

    #[test]
    fn parse_round_trips_experiment_documents() {
        let doc = experiment(
            "fig1a_data",
            "full",
            &[m("crpq", 100, 0.25, "answer=true"), m("ecrpq", 200, 0.5, "x \"quoted\"")],
        );
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("experiment").and_then(Value::as_str), Some("fig1a_data"));
        let points = parsed.get("measurements").and_then(Value::as_arr).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].get("series").and_then(Value::as_str), Some("crpq"));
        assert_eq!(points[0].get("param").and_then(Value::as_u64), Some(100));
        assert_eq!(points[0].get("seconds").and_then(Value::as_f64), Some(0.25));
        assert_eq!(points[1].get("seconds").and_then(Value::as_f64), Some(0.5));
    }

    #[test]
    fn parse_handles_general_json() {
        let v = parse(r#"{"a": [1, 2.5, null, true, "s\n"], "b": {"c": -3e2}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(-300.0));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[4].as_str(), Some("s\n"));
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn display_serializes_compact_json_that_reparses() {
        let v = Value::obj([
            ("ok", Value::Bool(true)),
            ("count", Value::int(3)),
            ("seconds", Value::Num(0.25)),
            ("name", Value::str("a \"b\"\n")),
            ("items", Value::Arr(vec![Value::Null, Value::int(1)])),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            r#"{"ok":true,"count":3,"seconds":0.25,"name":"a \"b\"\n","items":[null,1]}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
        // non-finite numbers degrade to null instead of invalid JSON
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn accessor_helpers() {
        let v = parse(r#"{"n": 7, "b": true, "x": 1.5}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("x").unwrap().as_u64(), None);
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.5));
    }
}
