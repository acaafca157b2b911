//! The workspace's one JSON codec (DESIGN.md §7): the string escaper and
//! float formatter every writer shares, and the strict reader behind the
//! FtFlight perf gate, the FtPulse shape gate and `f4tdbg`.
//!
//! Writers keep their own hand-laid layouts — their bytes are pinned by
//! the determinism goldens, `results/{flight,pulse}` and FtBench's
//! `sim_digest` — so there is no serializer here, only the two leaf
//! formatters. The reader rejects trailing bytes, trailing commas, bare
//! control characters and lone surrogates, naming the byte offset of the
//! first defect; objects keep document order and numbers keep their
//! lexeme, so a full-width FNV digest reads back exactly.
//!
//! ```
//! use f4t_sim::json::{self, Value};
//!
//! let doc = json::parse(r#"{"digest": 18446744073709551615, "note": "a\tb"}"#).unwrap();
//! assert_eq!(doc.get("digest").and_then(Value::as_u64), Some(u64::MAX));
//! assert_eq!(doc.get("note").and_then(Value::as_str), Some("a\tb"));
//! assert_eq!(json::quote("a\tb"), r#""a\tb""#);
//! ```

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal: `"`, `\`, newline,
/// carriage return and tab get their short escapes, any other C0 control
/// character becomes `\u00XX`, everything else passes through.
pub fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal (see [`push_quoted`]).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Formats a float as a JSON number: integral values below 1e15 keep one
/// decimal (`2.0`), others print the shortest round-trip form; NaN and
/// the infinities degrade to `0.0`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{}", v)
        }
    } else {
        "0.0".into()
    }
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number as its validated lexeme, so integers of any width read
    /// back exactly.
    Number(String),
    /// A string with every escape decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The number as a `u64` when its lexeme is a non-negative integer
    /// that fits — exact at every width, unlike a trip through `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.parse::<f64>().ok(),
            _ => None,
        }
    }

    /// The decoded string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array's elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object's members in document order.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// Deeper nesting is rejected, so a hostile document cannot exhaust the
/// stack of the recursive reader.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (RFC 8259, strict).
///
/// # Errors
///
/// The first defect and its byte offset, e.g. `trailing bytes at byte 3`.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing bytes"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let literal = |p: &mut Self, word: &str, v| {
            if !p.text[p.pos..].starts_with(word) {
                return Err(p.err("bad literal"));
            }
            p.pos += word.len();
            Ok(v)
        };
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.list(b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.err("expected a string key"));
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.err("expected ':'"));
                    }
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => literal(self, "true", Value::Bool(true)),
            Some(b'f') => literal(self, "false", Value::Bool(false)),
            Some(b'n') => literal(self, "null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads the comma-separated items of an array or object from its
    /// opening bracket through `close`; a trailing comma is an error.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if !self.eat(close) {
            loop {
                item(self)?;
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err(&format!("expected ',' or '{}'", close as char)));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        let mut ok = self.eat(b'0') || self.digits();
        if self.eat(b'.') {
            ok &= self.digits();
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            ok &= self.digits();
        }
        if !ok {
            return Err(self.err("bad number"));
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    /// Reads the string starting at the opening quote. Unescaped runs are
    /// copied as `&str` slices, so UTF-8 passes through untouched.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a backslash, joining a `\uD8xx\uDCxx`
    /// surrogate pair into one scalar.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                return char::from_u32(code).ok_or_else(|| self.err("lone surrogate"));
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Result<String, String> {
        Ok(parse(text)?.as_str().expect("a string").to_string())
    }

    #[test]
    fn escaper_and_float_formatter() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\r\t\u{1}\u{1f}é"), "\"\\r\\t\\u0001\\u001fé\"");
        let all: String = (0u8..0x80).map(char::from).chain("é€😀".chars()).collect();
        assert_eq!(s(&quote(&all)), Ok(all), "round trip");
        assert_eq!([fmt_f64(2.0), fmt_f64(-0.25), fmt_f64(1e15)], ["2.0", "-0.25", "1000000000000000"]);
        assert_eq!([fmt_f64(f64::NAN), fmt_f64(f64::INFINITY)], ["0.0", "0.0"]);
    }

    #[test]
    fn decodes_every_escape_and_passes_utf8_through() {
        assert_eq!(s(r#""a\rb""#).unwrap(), "a\rb");
        assert_eq!(s(r#""\b\f\/\"\\\n\t\u0041\u00e9""#).unwrap(), "\u{8}\u{c}/\"\\\n\tAé");
        assert_eq!(s(r#""\ud83d\ude00""#).unwrap(), "😀", "surrogate pair");
        for lone in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ude00""#, r#""\ud83d\u0041""#] {
            assert!(s(lone).is_err(), "{lone} must be rejected");
        }
        let v = parse(r#"{"é": "€ ok", "ключ": 1}"#).unwrap();
        assert_eq!(v.get("é").and_then(Value::as_str), Some("€ ok"));
        assert_eq!(v.get("ключ").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn objects_keep_order_and_numbers_keep_their_lexeme() {
        let v = parse(r#"{"b": [18446744073709551615, 9007199254740993, -1.5e2, 1E+2], "a": [true, null], "b": 2}"#)
            .unwrap();
        let keys: Vec<&str> = v.entries().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "b"]);
        let n = v.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(n[0].as_u64(), Some(u64::MAX));
        assert_eq!(n[1].as_u64(), Some(9_007_199_254_740_993), "2^53 + 1 stays exact");
        assert_eq!((n[2].as_f64(), n[2].as_u64()), (Some(-150.0), None));
        assert_eq!(n[3].as_f64(), Some(100.0));
        assert_eq!(v.get("a").and_then(Value::as_array), Some(&[Value::Bool(true), Value::Null][..]));
    }

    #[test]
    fn rejects_garbage_with_a_byte_offset() {
        assert_eq!(parse("{").unwrap_err(), "expected a string key at byte 1");
        assert_eq!(parse("{\"a\": }").unwrap_err(), "expected a value at byte 6");
        assert_eq!(parse("{} trailing").unwrap_err(), "trailing bytes at byte 3");
        assert_eq!(parse("{\"a\": 1,}").unwrap_err(), "expected a string key at byte 8");
        for bad in [
            "", "[1,]", "[1 2]", "{\"a\" 1}", "{1: 2}", "tru", "\"a\nb\"", "\"\\x\"", "\"open", "01",
            "1.", ".5", "-", "1e", "+1", "0x10",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().starts_with("nesting too deep"));
        assert!(parse(&format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH))).is_ok());
    }
}
