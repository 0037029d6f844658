//! A minimal, dependency-free JSON document layer with deterministic
//! encoding.
//!
//! The workspace's `serde` is a vendored marker stub (offline container, no
//! registry — see `vendor/README.md`), so anything that must *really* move
//! structured data over a wire needs its own encode/decode path. Telemetry
//! already hand-encodes its events; this module is the decode-capable
//! counterpart the orchestration service (`fedsched-serve`) uses for job
//! specs and snapshots:
//!
//! * [`JsonValue`] — a small document tree. Objects preserve **insertion
//!   order**, which is what makes encoding deterministic: encoding a parsed
//!   document reproduces the field order of its producer, and every in-tree
//!   producer writes fields in one fixed order.
//! * [`JsonValue::parse`] — a recursive-descent parser for the JSON subset
//!   the wire schemas use (no unicode escapes beyond `\uXXXX` of the BMP,
//!   nesting capped at [`MAX_DEPTH`]).
//! * [`JsonValue::encode`] — compact, byte-deterministic output. `f64`
//!   values print through Rust's shortest-round-trip formatting (the same
//!   rule the telemetry JSONL uses), so `parse(encode(v)) == v` exactly.
//!
//! Non-finite floats are not representable in JSON numbers; the wire
//! schemas encode them as the strings `"inf"` / `"-inf"` / `"nan"` and
//! decode them through [`JsonValue::as_f64_lenient`].

use std::fmt;

/// Maximum container nesting the parser accepts; deeper documents are
/// rejected rather than risking a stack overflow on hostile input (the
/// serve crate parses request bodies straight off a socket).
pub const MAX_DEPTH: usize = 64;

/// A JSON document node. Object fields keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has no non-finite literals).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, JsonValue)>),
}

/// Why a document failed to parse or a field lookup failed.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description, stable enough for test assertions.
    pub message: String,
    /// Byte offset the parser had reached (0 for shape errors raised by
    /// accessors after parsing).
    pub offset: usize,
}

impl JsonError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset,
        }
    }

    /// A shape error raised by an accessor (not tied to a byte offset).
    pub fn shape(message: impl Into<String>) -> Self {
        JsonError::new(message, 0)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parse a complete JSON document. Trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::new("trailing characters after document", pos));
        }
        Ok(value)
    }

    /// Encode compactly (no whitespace), byte-deterministically.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Num(v) => push_f64(out, *v),
            JsonValue::Str(s) => push_escaped(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, key);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match; in-tree producers never repeat
    /// keys). `None` for missing fields and non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field, as a shape error when absent.
    pub fn req(&self, key: &str) -> Result<&JsonValue, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::shape(format!("missing field `{key}`")))
    }

    /// The value as a finite `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            JsonValue::Num(v) => Ok(*v),
            other => Err(JsonError::shape(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }

    /// The value as an `f64`, additionally accepting the strings `"inf"`,
    /// `"-inf"` and `"nan"` — the wire encoding for non-finite floats.
    pub fn as_f64_lenient(&self) -> Result<f64, JsonError> {
        match self {
            JsonValue::Num(v) => Ok(*v),
            JsonValue::Str(s) => match s.as_str() {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "nan" => Ok(f64::NAN),
                _ => Err(JsonError::shape(format!("expected number, found \"{s}\""))),
            },
            other => Err(JsonError::shape(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }

    /// The value as a `u64` (a non-negative integral number below 2^64).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let v = self.as_f64()?;
        // `u64::MAX as f64` rounds up to exactly 2^64, which does not fit.
        if v >= 0.0 && v.fract() == 0.0 && v < u64::MAX as f64 {
            Ok(v as u64)
        } else {
            Err(JsonError::shape(format!(
                "expected non-negative integer, found {v}"
            )))
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let v = self.as_u64()?;
        usize::try_from(v).map_err(|_| JsonError::shape(format!("integer {v} overflows usize")))
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(JsonError::shape(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }

    /// The value as a `&str`.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(JsonError::shape(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Arr(items) => Ok(items),
            other => Err(JsonError::shape(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }

    /// True iff the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// The node's type name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }
}

/// Build an object from `(key, value)` pairs, keeping the given order.
pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// An `f64` node when finite, the wire string (`"inf"`, `"-inf"`, `"nan"`)
/// otherwise — the encoding [`JsonValue::as_f64_lenient`] reverses.
pub fn num(v: f64) -> JsonValue {
    if v.is_finite() {
        JsonValue::Num(v)
    } else if v.is_nan() {
        JsonValue::Str("nan".to_string())
    } else if v > 0.0 {
        JsonValue::Str("inf".to_string())
    } else {
        JsonValue::Str("-inf".to_string())
    }
}

/// A string node.
pub fn str(s: impl Into<String>) -> JsonValue {
    JsonValue::Str(s.into())
}

/// Format a finite float exactly like the encoder does (shortest
/// round-trip, integral values without a decimal point).
fn push_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "JSON numbers must be finite");
    use fmt::Write;
    let _ = write!(out, "{v}");
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::new("document nested too deeply", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::new("unexpected end of document", *pos)),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError::new(format!("expected `{word}`"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::new("invalid number bytes", start))?;
    let v: f64 = text
        .parse()
        .map_err(|_| JsonError::new(format!("invalid number `{text}`"), start))?;
    if !v.is_finite() {
        return Err(JsonError::new("number overflows f64 range", start));
    }
    Ok(JsonValue::Num(v))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::new("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::new("truncated \\u escape", *pos))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::new("invalid \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::new("invalid \\u escape", *pos))?;
                        // Surrogates would need pairing; the in-tree wire
                        // schemas never produce them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| JsonError::new("\\u escape is not a scalar", *pos))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(JsonError::new("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::new("invalid UTF-8 in string", *pos))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(JsonError::new("expected `,` or `]` in array", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError::new("expected string key in object", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError::new("expected `:` after object key", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(JsonError::new("expected `,` or `}` in object", *pos)),
        }
    }
}

/// FNV-1a 64-bit hash — the workspace's stable fingerprint function for
/// canonical JSON bytes (job-spec caching keys, snapshot integrity). Not a
/// cryptographic hash; collisions only cost a cache miss.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in [
            "null", "true", "false", "0", "-1", "3.5", "1e-9", "\"hi\"", "[]", "{}",
        ] {
            let v = JsonValue::parse(text).unwrap();
            let enc = v.encode();
            assert_eq!(JsonValue::parse(&enc).unwrap(), v, "{text} -> {enc}");
        }
    }

    #[test]
    fn float_shortest_round_trip_is_exact() {
        for v in [
            0.1,
            1.0 / 3.0,
            2.5e6,
            f64::MAX,
            f64::MIN_POSITIVE,
            -0.0,
            123_456_789.123_456_79,
        ] {
            let enc = JsonValue::Num(v).encode();
            let back = JsonValue::parse(&enc).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {enc}");
        }
    }

    #[test]
    fn nonfinite_floats_go_through_strings() {
        for (v, s) in [(f64::INFINITY, "\"inf\""), (f64::NEG_INFINITY, "\"-inf\"")] {
            let node = num(v);
            assert_eq!(node.encode(), s);
            assert_eq!(JsonValue::parse(s).unwrap().as_f64_lenient().unwrap(), v);
        }
        assert!(JsonValue::parse("\"nan\"")
            .unwrap()
            .as_f64_lenient()
            .unwrap()
            .is_nan());
    }

    #[test]
    fn object_order_is_preserved() {
        let doc = r#"{"b":1,"a":2,"z":[{"y":3}]}"#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.encode(), doc);
        assert_eq!(v.get("a").unwrap().as_u64().unwrap(), 2);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = JsonValue::Str("a\"b\\c\nd\te\u{0001}é".to_string());
        let enc = v.encode();
        assert_eq!(enc, "\"a\\\"b\\\\c\\nd\\te\\u0001é\"");
        assert_eq!(JsonValue::parse(&enc).unwrap(), v);
        assert_eq!(
            JsonValue::parse("\"\\u0041\\/\"")
                .unwrap()
                .as_str()
                .unwrap(),
            "A/"
        );
    }

    #[test]
    fn whitespace_and_nesting_parse() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.encode(), r#"{"a":[1,2],"b":{}}"#);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1e999",
            "[1] garbage",
            "{'a':1}",
        ] {
            assert!(JsonValue::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_guards_hostile_input() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(JsonValue::parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_report_shapes() {
        let v = JsonValue::parse(r#"{"n":1.5,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.req("n").unwrap().as_f64().unwrap(), 1.5);
        assert!(v.req("n").unwrap().as_u64().is_err());
        // 2^64 is one past `u64::MAX`: a shape error, not a saturated value.
        let big = JsonValue::parse("18446744073709551616").unwrap();
        assert!(big.as_u64().is_err());
        // The largest f64 below 2^64 still decodes exactly.
        let top = JsonValue::parse("18446744073709549568").unwrap();
        assert_eq!(top.as_u64().unwrap(), 18_446_744_073_709_549_568);
        assert_eq!(v.req("s").unwrap().as_str().unwrap(), "x");
        assert!(v.req("s").unwrap().as_bool().is_err());
        assert_eq!(v.req("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.req("zz").is_err());
    }

    #[test]
    fn fnv_fingerprint_is_stable() {
        // Pinned: job IDs and cache keys derive from these exact values.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"fedsched"), fnv1a64(b"fedsched"));
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
