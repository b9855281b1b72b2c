//! Minimal JSON emission and parsing, shared by every exporter.
//!
//! The workspace deliberately carries no JSON dependency; the bench
//! binaries used to hand-roll emitters per file. This module is the one
//! canonical copy: [`num`]/[`string`]/[`object`]/[`array()`] build JSON
//! text, and [`parse_object`] reads back everything this module emits —
//! scalars, arrays and nested objects (the `roia explain --json` summary).

use std::collections::BTreeMap;
use std::fmt::Write;

/// Render a float as a JSON number, or `null` when non-finite.
pub fn num(v: f64) -> String {
    let mut out = String::new();
    write_num(&mut out, v);
    out
}

/// [`num`], appended to `out`.
pub(crate) fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Render an unsigned integer as a JSON number.
pub fn uint(v: u64) -> String {
    format!("{v}")
}

/// Render a signed integer as a JSON number.
pub fn int(v: i64) -> String {
    format!("{v}")
}

/// Render a JSON string literal with escaping for quotes, backslashes
/// and control characters.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(&mut out, s);
    out
}

/// [`string`], appended to `out`.
pub(crate) fn write_string(out: &mut String, s: &str) {
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

/// Render an object from `(key, already-rendered-value)` pairs.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), v))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Render an array from already-rendered items.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// A parsed JSON value from the subset this module emits.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced by [`num`] for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, parsed as `f64`.
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array of values.
    Arr(Vec<JsonValue>),
    /// A nested object.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64`, if numeric and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `i64`, if numeric.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object map, if a nested object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_object`] accepts. Nothing this
/// module emits nests past three levels; the cap keeps a hostile line
/// from recursing the reader off its stack.
const MAX_DEPTH: usize = 64;

/// Parse one JSON object (`{"k": value, ...}`, values possibly nested)
/// into a key → value map. Returns `None` on malformed input, including
/// nesting deeper than 64 arrays/objects (`MAX_DEPTH`).
pub fn parse_object(input: &str) -> Option<BTreeMap<String, JsonValue>> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let map = p.parse_object_body()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(map)
    } else {
        None
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open below the top-level object.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == b {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn parse_object_body(&mut self) -> Option<BTreeMap<String, JsonValue>> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(map);
        }
        loop {
            let key = self.parse_string()?;
            self.eat(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b'}' => {
                    self.pos += 1;
                    return Some(map);
                }
                _ => return None,
            }
        }
    }

    fn parse_value(&mut self) -> Option<JsonValue> {
        match self.peek()? {
            b'"' => Some(JsonValue::Str(self.parse_string()?)),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return None;
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object_body().map(JsonValue::Obj)
                };
                self.depth -= 1;
                value
            }
            b't' => self.parse_literal("true", JsonValue::Bool(true)),
            b'f' => self.parse_literal("false", JsonValue::Bool(false)),
            b'n' => self.parse_literal("null", JsonValue::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: JsonValue) -> Option<JsonValue> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(value)
        } else {
            None
        }
    }

    fn parse_array(&mut self) -> Option<JsonValue> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b']' => {
                    self.pos += 1;
                    return Some(JsonValue::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn parse_string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                b => {
                    // Recover full UTF-8 sequences from the byte stream.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let chunk = self.bytes.get(start..start + len)?;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(JsonValue::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_parse_round_trip() {
        let line = object(&[
            ("tick", uint(4180)),
            ("t", num(0.0312)),
            ("name", string("zone \"a\"\n")),
            ("per_task", array(&[num(1.0), num(2.5)])),
            ("none", "null".to_string()),
            ("flag", "true".to_string()),
        ]);
        let map = parse_object(&line).expect("parse");
        assert_eq!(map["tick"].as_u64(), Some(4180));
        assert_eq!(map["t"].as_f64(), Some(0.0312));
        assert_eq!(map["name"].as_str(), Some("zone \"a\"\n"));
        let arr = map["per_task"].as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(map["none"], JsonValue::Null);
        assert_eq!(map["flag"], JsonValue::Bool(true));
    }

    #[test]
    fn renders_flat_documents() {
        let doc = object(&[
            ("name", string("fig\"8\"")),
            ("worst", num(1.25)),
            ("bad", num(f64::NAN)),
            ("series", array(&[num(1.0), num(2.0)])),
        ]);
        assert_eq!(
            doc,
            "{\"name\": \"fig\\\"8\\\"\", \"worst\": 1.25, \"bad\": null, \"series\": [1, 2]}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(parse_object("{").is_none());
        assert!(parse_object("{\"a\": }").is_none());
        assert!(parse_object("{\"a\": 1} trailing").is_none());
        assert!(
            parse_object("{\"a\": {\"b\": 1}").is_none(),
            "unclosed nest"
        );
    }

    #[test]
    fn nested_objects_round_trip() {
        let line = object(&[
            ("name", string("top")),
            (
                "rows",
                array(&[
                    object(&[("slo", string("tick_budget")), ("burns", uint(2))]),
                    object(&[("slo", string("join_shed")), ("burns", uint(0))]),
                ]),
            ),
        ]);
        let map = parse_object(&line).expect("nested parse");
        let rows = map["rows"].as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        let first = rows[0].as_obj().unwrap();
        assert_eq!(first["slo"].as_str(), Some("tick_budget"));
        assert_eq!(first["burns"].as_u64(), Some(2));
    }

    #[test]
    fn deep_nesting_is_rejected_not_recursed() {
        let deep = 100_000;
        let arrays = format!("{{\"a\": {}", "[".repeat(deep));
        assert!(parse_object(&arrays).is_none());
        let objects = "{\"a\": ".repeat(deep);
        assert!(parse_object(&objects).is_none());
        // Well-formed but past the cap is rejected too; at the cap it parses.
        let nest = |n: usize| format!("{{\"a\": {}1{}}}", "[".repeat(n), "]".repeat(n));
        assert!(parse_object(&nest(MAX_DEPTH)).is_some());
        assert!(parse_object(&nest(MAX_DEPTH + 1)).is_none());
        let closed = format!("{}1{}", "{\"a\": ".repeat(deep), "}".repeat(deep));
        assert!(parse_object(&closed).is_none());
    }

    #[test]
    fn unicode_survives() {
        let line = object(&[("s", string("héllo ☃"))]);
        let map = parse_object(&line).unwrap();
        assert_eq!(map["s"].as_str(), Some("héllo ☃"));
    }
}
