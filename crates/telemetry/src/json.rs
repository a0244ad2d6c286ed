//! Minimal JSON: a value type, a writer with correct string escaping, and a
//! recursive-descent parser. No serde — this is what keeps the workspace
//! building with no registry access.
//!
//! Numbers are stored as `f64`. Integers up to 2^53 round-trip exactly and
//! are written without a decimal point; that covers every counter the
//! simulator produces.
//!
//! The parser reads files from disk (sweep caches, `results/*.json`,
//! benchmark references) that may be truncated, hand-edited or stale, so
//! it must be safe on *untrusted* input: every malformed document —
//! truncated, deeply nested, non-finite numbers, invalid escapes — yields
//! a structured [`ParseError`] with a byte offset, never a panic or
//! unbounded recursion. Nesting is capped at [`MAX_DEPTH`]; duplicate
//! object keys keep the last value (deterministic, RFC 8259-permitted);
//! numbers that overflow `f64` to infinity are rejected rather than
//! silently becoming `null` on re-write.
//!
//! ```
//! use parrot_telemetry::json::{parse, Value};
//!
//! let doc = Value::obj([("ipc", Value::Num(1.25)), ("cycles", Value::int(800))]);
//! let text = doc.to_json();
//! let back = parse(&text).unwrap();
//! assert_eq!(back.get("cycles").as_u64(), Some(800));
//! assert_eq!(back.get("ipc").as_f64(), Some(1.25));
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (see the module docs for integer precision).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<Value>),
    /// Object with insertion-stable key order not required; keys are sorted
    /// (BTreeMap) so output is deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<I>(pairs: I) -> Value
    where
        I: IntoIterator<Item = (&'static str, Value)>,
    {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Integer convenience constructor (exact up to 2^53).
    pub fn int(v: u64) -> Value {
        Value::Num(v as f64)
    }

    /// Signed integer convenience constructor.
    pub fn iint(v: i64) -> Value {
        Value::Num(v as f64)
    }

    /// Member lookup on objects; `Null` otherwise.
    pub fn get(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Obj(m) => m.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric member as `u64` (rejects negatives and non-integers).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Is this `Value::Null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Compact rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Pretty rendering with two-space indentation (used for the bench
    /// result cache so diffs stay readable).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Arr(a) if !a.is_empty() => {
                out.push_str("[\n");
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Obj(m) if !m.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            _ => self.write(out),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-bad spelling.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        // {:?} gives a shortest round-trip representation for f64.
        let _ = write!(out, "{n:?}");
    }
}

/// Append `s` as a JSON string literal, escaping per RFC 8259.
pub fn write_escaped(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting depth the parser accepts. Recursive-descent
/// parsing consumes stack per level; the cap turns a hostile
/// `[[[[…]]]]` document into a structured error instead of a stack
/// overflow. Real telemetry/wire documents nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parse error with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value()?;
            // Duplicate keys: last one wins, deterministically.
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; input is a &str so boundaries
                    // are valid.
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Strict RFC 8259 grammar, not `f64::from_str`'s: the std parser
        // accepts `"1."`, `".5"`, and `"inf"`, none of which are JSON.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n = s.parse::<f64>().map_err(|_| ParseError {
            offset: start,
            message: "invalid number",
        })?;
        // `"1e999".parse::<f64>()` is Ok(inf): reject it here, or a hostile
        // document would round-trip to `null` and corrupt re-serialized
        // output downstream.
        if !n.is_finite() {
            return Err(ParseError {
                offset: start,
                message: "number out of range",
            });
        }
        Ok(Value::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_every_special_character() {
        let s = "a\"b\\c\nd\re\tf\u{08}g\u{0C}h\u{01}i";
        let mut out = String::new();
        write_escaped(s, &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001i\"");
    }

    #[test]
    fn escape_roundtrip() {
        let cases = [
            "plain",
            "quote\" backslash\\ slash/",
            "control\u{0}\u{1f}",
            "unicode: ümlaut 漢字 🦜",
            "newline\nand\ttab",
        ];
        for s in cases {
            let v = Value::Str(s.to_string());
            let parsed = parse(&v.to_json()).unwrap();
            assert_eq!(parsed.as_str(), Some(s), "roundtrip failed for {s:?}");
        }
    }

    #[test]
    fn surrogate_pair_parses() {
        let v = parse("\"\\ud83e\\udd9c\"").unwrap(); // 🦜
        assert_eq!(v.as_str(), Some("\u{1F99C}"));
    }

    #[test]
    fn value_roundtrip() {
        let v = Value::obj([
            ("name", Value::Str("gzip".into())),
            ("ipc", Value::Num(1.375)),
            ("insts", Value::int(200_000)),
            ("neg", Value::iint(-42)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "arr",
                Value::Arr(vec![Value::int(1), Value::int(2), Value::int(3)]),
            ),
        ]);
        let compact = parse(&v.to_json()).unwrap();
        let pretty = parse(&v.to_json_pretty()).unwrap();
        assert_eq!(compact, v);
        assert_eq!(pretty, v);
    }

    #[test]
    fn integers_have_no_decimal_point() {
        assert_eq!(Value::int(12345).to_json(), "12345");
        assert_eq!(Value::iint(-7).to_json(), "-7");
        assert_eq!(Value::Num(0.5).to_json(), "0.5");
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for n in [0.1, 1.0 / 3.0, 1e-12, 6.02214076e23, -123.456] {
            let parsed = parse(&Value::Num(n).to_json()).unwrap();
            assert_eq!(parsed.as_f64(), Some(n));
        }
    }

    #[test]
    fn nonfinite_serializes_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "truf",
            "01x",
            "{\"a\" 1}",
            "[1] extra",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(v.get("a").as_arr().unwrap().len(), 2);
        assert!(v.get("a").as_arr().unwrap()[1].get("b").is_null());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Num(3.5).as_u64(), None);
        assert_eq!(Value::iint(-1).as_u64(), None);
        assert_eq!(Value::int(42).as_u64(), Some(42));
    }
}
