//! Minimal JSON writing and parsing for artifact round-trips.
//!
//! The workspace emits all of its artifacts (metrics snapshots, event
//! JSONL, checkpoint journals) with hand-rolled writers built on this
//! module's emission helpers ([`string`], [`field_u64`], [`field_str`],
//! [`key`]): integers and strings only, no floats, so output never
//! depends on formatting quirks. Resuming an interrupted run means
//! reading those artifacts back, and the matching reader is a small
//! recursive-descent parser producing a [`JsonValue`] tree with
//! **structured errors** — it never panics on truncated, garbage, or
//! bit-flipped input, which the corrupt-input tests exercise directly.
//!
//! Numbers keep their raw source text ([`JsonValue::Number`]) so `u64`
//! counters survive the round-trip exactly, without detouring through
//! `f64`. Object member order is preserved (`Vec` of pairs, not a map)
//! because the writers emit keys in a fixed order and byte-identical
//! re-emission is a workspace invariant.
//!
//! # Examples
//!
//! ```
//! use pacer_collections::json::JsonValue;
//!
//! let v = JsonValue::parse("{\"count\": 18446744073709551615, \"tags\": [\"a\"]}").unwrap();
//! assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(u64::MAX));
//! assert_eq!(v.get("tags").and_then(JsonValue::as_array).map(Vec::len), Some(1));
//! assert!(JsonValue::parse("{\"truncated\": ").is_err());
//! ```

use std::error::Error;
use std::fmt;

/// Appends `"key":value` (integer), with a leading comma unless `first`.
pub fn field_u64(out: &mut String, first: &mut bool, key: &str, value: u64) {
    self::key(out, first, key);
    out.push_str(&value.to_string());
}

/// Appends `"key":"value"` with JSON string escaping, with a leading
/// comma unless `first`.
pub fn field_str(out: &mut String, first: &mut bool, key: &str, value: &str) {
    self::key(out, first, key);
    string(out, value);
}

/// Appends `"key":` (for a value the caller writes), with a leading
/// comma unless `first`; clears `first`.
pub fn key(out: &mut String, first: &mut bool, key: &str) {
    if !std::mem::take(first) {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

/// Appends `s` as a JSON string literal (quotes included), escaping
/// quotes, backslashes, and control characters.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text so integer precision is
    /// never lost; convert via [`JsonValue::as_u64`] / [`JsonValue::as_f64`].
    Number(String),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; member order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses `text` into a value, requiring that nothing but whitespace
    /// follows it.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first offending byte on any
    /// malformed input; never panics.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after JSON value"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&Vec<JsonValue>> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's members, if it is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, JsonValue)>> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// A structured JSON parse error: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending position in the input.
    pub offset: usize,
    /// 1-based line containing the offending position.
    pub line: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json error at line {}, byte {}: {}",
            self.line, self.offset, self.message
        )
    }
}

impl Error for JsonError {}

/// Deeply nested input is an attack/corruption signature, not an
/// artifact this workspace ever writes; bail before the stack does.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        JsonError {
            offset: self.pos,
            line,
            message: message.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
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
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        // The slice is ASCII digits/sign/dot/exponent, all single bytes.
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("number is not valid UTF-8"))?;
        Ok(JsonValue::Number(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Artifact writers only emit BMP escapes;
                            // reject surrogates instead of mis-decoding.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(self.err(format!("invalid \\u escape {code:04x}")))
                                }
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("string is not valid UTF-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42),);
        assert_eq!(
            JsonValue::parse("\"hi\\n\\\"there\\\"\"").unwrap().as_str(),
            Some("hi\n\"there\""),
        );
    }

    #[test]
    fn u64_max_survives_exactly() {
        let v = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v, JsonValue::Number("18446744073709551615".into()));
    }

    #[test]
    fn parses_nested_structures_preserving_member_order() {
        let v = JsonValue::parse(
            "{\"z\": [1, 2.5, -3e2], \"a\": {\"inner\": null}, \"s\": \"\\u0041\"}",
        )
        .unwrap();
        let members = v.as_object().unwrap();
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["z", "a", "s"], "source order, not sorted");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("A"));
        let z = v.get("z").and_then(JsonValue::as_array).unwrap();
        assert_eq!(z[1].as_f64(), Some(2.5));
        assert_eq!(z[2].as_f64(), Some(-300.0));
    }

    #[test]
    fn truncated_inputs_are_structured_errors() {
        for bad in [
            "",
            "{",
            "{\"a\"",
            "{\"a\":",
            "{\"a\": 1,",
            "[1, 2",
            "\"unterminated",
            "12.",
            "1e",
            "tru",
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad:?} should explain itself");
        }
    }

    #[test]
    fn garbage_inputs_are_structured_errors() {
        for bad in [
            "@", "{1: 2}", "[1 2]", "{'a': 1}", "nul", "0x10", "{} extra",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn error_carries_line_number() {
        let err = JsonValue::parse("{\n  \"a\": 1,\n  \"b\": @\n}").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let text = format!("{}{}", "[".repeat(4096), "]".repeat(4096));
        let err = JsonValue::parse(&text).unwrap_err();
        assert!(err.message.contains("nesting"));
    }

    #[test]
    fn bit_flipped_metrics_snapshot_fails_cleanly() {
        let good = "{\"schema\": 1, \"count\": 12345}";
        // Flip one bit in every byte position in turn; every mutation
        // must either still parse or fail with an error — never panic.
        for i in 0..good.len() {
            let mut bytes = good.as_bytes().to_vec();
            bytes[i] ^= 0x04;
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let _ = JsonValue::parse(text);
            }
        }
    }
}
