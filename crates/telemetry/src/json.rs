//! A minimal JSON value type with a serializer and parser.
//!
//! Run reports must serialize to JSON without pulling in serde (this crate
//! is dependency-free by design), and the test suite must be able to read
//! reports back. This module provides exactly that: a small [`Json`] enum,
//! `Display`-based serialization, and a recursive-descent [`parse`].
//!
//! Numbers are `f64` throughout (every value the telemetry layer records —
//! nanoseconds, counters, costs — fits without loss at the magnitudes
//! involved).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_value(v: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_num(*n, out),
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&inner);
                write_value(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&inner);
                escape_into(k, out);
                out.push_str(": ");
                write_value(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_value(self, 0, &mut s);
        f.write_str(&s)
    }
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, s: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{s}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(&format!("unexpected byte '{}'", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // serializer; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 starting at the byte we consumed.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`JsonError`] with a byte offset on malformed input.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj(vec![
            ("name", Json::Str("splc".into())),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            ("count", Json::Num(42.0)),
            ("ratio", Json::Num(0.125)),
            (
                "items",
                Json::Arr(vec![Json::Num(1.0), Json::Str("two".into())]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_special_characters() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_survives() {
        let v = Json::Str("π ≈ 3.14159 — naïve".into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(1234.0).to_string(), "1234");
        assert_eq!(Json::Num(-7.0).to_string(), "-7");
    }

    #[test]
    fn accessors_navigate() {
        let v = parse(r#"{"a": {"b": [1, 2, 3]}, "s": "x"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        let arr = v
            .get("a")
            .and_then(|a| a.get("b"))
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_f64(), Some(2.0));
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "nul", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nonfinite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn escaped_strings_round_trip_in_keys_and_values() {
        // Escapes in *keys* exercise a different parser path than values.
        let v = Json::Obj(vec![
            ("tab\there".to_string(), Json::Str("line\none".into())),
            ("quote\"key".to_string(), Json::Str("back\\slash".into())),
            ("ctrl\u{2}".to_string(), Json::Str("cr\rlf\n".into())),
            ("naïve π".to_string(), Json::Str("emoji ☃".into())),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
        // The writer escaped every control character (raw text is pure
        // printable ASCII apart from the multi-byte UTF-8 sequences).
        assert!(!text.contains('\t') || text.contains("\\t"));
        assert!(text.contains("\\n") && text.contains("\\\"") && text.contains("\\\\"));
        assert!(text.contains("\\u0002"));
    }

    #[test]
    fn parses_standard_escape_sequences() {
        let v = parse(r#""aA\t\r\n\f\b\/\\\"z""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\t\r\n\u{c}\u{8}/\\\"z"));
    }

    #[test]
    fn deeply_nested_objects_round_trip() {
        let v = Json::obj(vec![(
            "report",
            Json::obj(vec![
                (
                    "sections",
                    Json::Arr(vec![
                        Json::obj(vec![
                            ("name", Json::Str("unit:\"fft\"".into())),
                            ("counters", Json::obj(vec![("a.b", Json::Num(3.0))])),
                            ("empty_obj", Json::Obj(vec![])),
                            ("empty_arr", Json::Arr(vec![])),
                        ]),
                        Json::Null,
                    ]),
                ),
                (
                    "nested",
                    Json::obj(vec![(
                        "deeper",
                        Json::obj(vec![("deepest", Json::Arr(vec![Json::Bool(false)]))]),
                    )]),
                ),
            ]),
        )]);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        // And the re-rendering is stable (fixed point after one trip).
        assert_eq!(back.to_string(), text);
    }
}
