//! The workspace's one JSON codec: a value type, an ordered object, a
//! builder that renders fields in insertion order, and an
//! error-returning parser for one object or an array of objects.
//!
//! Three formats share it: the telemetry JSONL log (one flat object
//! per line), the job server's request and response bodies, and the
//! per-job trace rendering. Everything here returns errors instead of
//! panicking, because the parser sits on the job server's request
//! path.
//!
//! Writing: strings escape `"`, `\` and control characters; floats
//! use Rust's shortest round-trip formatting, with a `.0` suffix on
//! whole values so they parse back as floats; non-finite floats
//! become `null`, since JSON has no NaN or infinity.
//!
//! Reading: integers stay exact ([`JsonValue::U64`] when
//! non-negative, [`JsonValue::I64`] when negative, [`JsonValue::F64`]
//! once they carry a fraction or exponent or overflow 64 bits).
//! Duplicate keys are rejected: a duplicate would let accessors answer
//! from one copy while another reader takes the other. Nested objects
//! and arrays are captured verbatim as [`JsonValue::Raw`] (balanced
//! and string-aware) without interpretation, so the parser never
//! recurses.

use std::fmt::Write as _;

/// A JSON value: a typed scalar or a verbatim nested container.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// Non-negative integer (counters, ids, seeds, sizes).
    U64(u64),
    /// Negative integer (the parser yields `U64` for non-negative
    /// ones).
    I64(i64),
    /// Floating point. Non-finite values render as `null`.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// JSON `null`.
    Null,
    /// A nested object or array, kept as its exact source text.
    /// Rendering splices it unchanged, so the caller guarantees it
    /// is valid JSON.
    Raw(String),
}

impl JsonValue {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::U64(v) => Some(*v as f64),
            JsonValue::I64(v) => Some(*v as f64),
            JsonValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer. Floats
    /// never convert, so `16.5` or `1e300` is not mistaken for one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            JsonValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::U64(v as u64)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::U64(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::I64(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}
impl From<f32> for JsonValue {
    fn from(v: f32) -> Self {
        JsonValue::F64(v as f64)
    }
}
impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_owned())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

/// A JSON object: `(key, value)` pairs in document (or insertion)
/// order, keys unique.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// Appends a field. The key must not be present yet: the parser
    /// rejects duplicate keys, so an object holding one would not
    /// read back.
    pub fn push(&mut self, key: &str, value: impl Into<JsonValue>) {
        debug_assert!(self.get(key).is_none(), "duplicate JSON key `{key}`");
        self.fields.push((key.to_owned(), value.into()));
    }

    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String field accessor.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Non-negative integer field accessor.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// Numeric field accessor (integers convert).
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(JsonValue::as_f64)
    }

    /// All fields in order.
    pub fn fields(&self) -> &[(String, JsonValue)] {
        &self.fields
    }

    /// Consumes the object, yielding its fields in order.
    pub fn into_fields(self) -> Vec<(String, JsonValue)> {
        self.fields
    }

    /// Appends every field, in order, to `b`.
    pub fn render_into(&self, b: JsonBuilder) -> JsonBuilder {
        self.fields.iter().fold(b, |b, (k, v)| b.value(k, v))
    }
}

/// Renders one JSON object field by field, in call order, without
/// building a [`JsonObject`] first.
#[derive(Debug, Default)]
pub struct JsonBuilder {
    /// The rendered text so far: empty, or `{` plus the fields.
    out: String,
}

impl JsonBuilder {
    /// An empty object.
    pub fn new() -> Self {
        JsonBuilder::default()
    }

    fn key(&mut self, key: &str) {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        write_str(&mut self.out, key);
        self.out.push(':');
    }

    /// Adds a field of any value type.
    fn value(mut self, key: &str, value: &JsonValue) -> Self {
        self.key(key);
        match value {
            JsonValue::U64(n) => {
                let _ = write!(self.out, "{n}");
            }
            JsonValue::I64(n) => {
                let _ = write!(self.out, "{n}");
            }
            JsonValue::F64(x) if x.is_finite() => {
                let start = self.out.len();
                let _ = write!(self.out, "{x}");
                // "1" would parse back as an integer; keep floatness.
                if !self.out[start..].contains(['.', 'e', 'E']) {
                    self.out.push_str(".0");
                }
            }
            JsonValue::F64(_) | JsonValue::Null => self.out.push_str("null"),
            JsonValue::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Str(s) => write_str(&mut self.out, s),
            JsonValue::Raw(r) => self.out.push_str(r),
        }
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        write_str(&mut self.out, value);
        self
    }

    /// Adds an unsigned-integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.value(key, &JsonValue::U64(value))
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.value(key, &JsonValue::F64(value))
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.value(key, &JsonValue::Bool(value))
    }

    /// Splices pre-rendered JSON (an object or array) as a field
    /// value. The caller guarantees `value` is valid JSON.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push_str(value);
        self
    }

    /// Closes and returns the rendered object.
    pub fn build(mut self) -> String {
        if self.out.is_empty() {
            self.out.push('{');
        }
        self.out.push('}');
        self.out
    }
}

/// Renders a JSON array from pre-rendered element strings.
pub fn json_array(elements: &[String]) -> String {
    format!("[{}]", elements.join(","))
}

/// Writes `s` as a quoted JSON string.
fn write_str(out: &mut String, s: &str) {
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

/// Parses one JSON object from UTF-8 bytes.
///
/// # Errors
///
/// A human-readable description of the first problem (invalid UTF-8,
/// a syntax error, a duplicate key, trailing characters), suitable for
/// a 400 response body.
pub fn parse_object(bytes: &[u8]) -> Result<JsonObject, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "body is not UTF-8".to_string())?;
    let mut p = Parser { text, pos: 0 };
    let object = p.object()?;
    p.end()?;
    Ok(object)
}

/// Parses a JSON array of objects: the shape of the `/jobs` listing
/// and of a stored trace's `events` field. Every element is held to
/// [`parse_object`]'s rules.
///
/// # Errors
///
/// A human-readable description of the first problem, including an
/// element that is not an object.
pub fn parse_object_array(text: &str) -> Result<Vec<JsonObject>, String> {
    let mut p = Parser { text, pos: 0 };
    let mut out = Vec::new();
    p.list(b'[', b']', |p| {
        out.push(p.object()?);
        Ok(())
    })?;
    p.end()?;
    Ok(out)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset; always on a char boundary between tokens.
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips JSON's four whitespace bytes.
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn eat_if(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.eat_if(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing characters at byte {}", self.pos))
        }
    }

    /// Parses `open item (, item)* close` or `open close`.
    fn list(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(open)?;
        if self.eat_if(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.eat_if(b',') {
                return self.eat(close);
            }
        }
    }

    fn object(&mut self) -> Result<JsonObject, String> {
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.list(b'{', b'}', |p| {
            let key = p.string()?;
            p.eat(b':')?;
            let value = p.value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            fields.push((key, value));
            Ok(())
        })?;
        Ok(JsonObject { fields })
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let code = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    self.pos += 4;
                    // Surrogate pairs never occur in what this codec
                    // writes; a lone surrogate becomes U+FFFD.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                other => return Err(format!("unknown escape `\\{}`", other as char)),
            });
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'{' | b'[') => self.raw(),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::I64(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    /// Captures a balanced nested object or array verbatim. Brackets
    /// inside strings don't count; a closer must match its opener.
    fn raw(&mut self) -> Result<JsonValue, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut closers = Vec::new();
        let mut in_string = false;
        while let Some(&b) = bytes.get(self.pos) {
            self.pos += 1;
            match (in_string, b) {
                // Skip the escaped byte; a UTF-8 continuation byte is
                // never ASCII, so no bracket or quote is misread.
                (true, b'\\') => self.pos += 1,
                (_, b'"') => in_string = !in_string,
                (false, b'{') => closers.push(b'}'),
                (false, b'[') => closers.push(b']'),
                (false, b'}' | b']') => {
                    if closers.pop() != Some(b) {
                        return Err(format!("mismatched `{}` at byte {}", b as char, self.pos - 1));
                    }
                    if closers.is_empty() {
                        return Ok(JsonValue::Raw(self.text[start..self.pos].to_owned()));
                    }
                }
                _ => {}
            }
        }
        Err("unterminated nested value".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let o = parse_object(br#"{"bits": 8, "kind": "and", "deep": false, "x": 1.5}"#).unwrap();
        assert_eq!(o.get_u64("bits"), Some(8));
        assert_eq!(o.get_str("kind"), Some("and"));
        assert_eq!(o.get("deep"), Some(&JsonValue::Bool(false)));
        assert_eq!(o.get_f64("x"), Some(1.5));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn captures_nested_values_verbatim() {
        let o = parse_object(br#"{"id":7,"result":{"best_cost":1.5,"tags":["a","}"]},"ok":true}"#)
            .unwrap();
        assert_eq!(o.get_u64("id"), Some(7));
        assert_eq!(
            o.get("result"),
            Some(&JsonValue::Raw(r#"{"best_cost":1.5,"tags":["a","}"]}"#.into()))
        );
        assert_eq!(o.get("ok"), Some(&JsonValue::Bool(true)));
        // Nested values are opaque: typed accessors refuse them.
        assert_eq!(o.get_u64("result"), None);
        // Arrays of objects (the /jobs listing shape) round-trip too.
        let list = parse_object(br#"{"count":2,"jobs":[{"id":1},{"id":2}]}"#).unwrap();
        assert_eq!(list.get("jobs"), Some(&JsonValue::Raw(r#"[{"id":1},{"id":2}]"#.into())));
        assert!(parse_object(br#"{"a": {"b": 1}"#).is_err(), "unbalanced nesting");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_object(b"not json").is_err());
        assert!(parse_object(br#"{"a": 1} trailing"#).is_err());
        assert!(parse_object(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn rejects_near_misses() {
        for bad in [
            b"".as_slice(),
            b"{",
            br#"{"a":}"#,
            br#"{"a":1,}"#,
            br#"{"a":[},"b":1}"#,
            br#"{"s":"\u+0e9"}"#,
        ] {
            assert!(parse_object(bad).is_err(), "accepted {}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn escapes_round_trip() {
        let body = JsonBuilder::new().str("msg", "a\"b\\c\nd").u64("n", 3).build();
        let o = parse_object(body.as_bytes()).unwrap();
        assert_eq!(o.get_str("msg"), Some("a\"b\\c\nd"));
        assert_eq!(o.get_u64("n"), Some(3));
    }

    #[test]
    fn control_characters_round_trip() {
        let control = "x\u{1}\u{8}\u{c}\r\ty";
        let body = JsonBuilder::new().str("c", control).build();
        assert_eq!(body, r#"{"c":"x\u0001\u0008\u000c\r\ty"}"#);
        assert_eq!(parse_object(body.as_bytes()).unwrap().get_str("c"), Some(control));
        let o = parse_object(br#"{"s":"\b\f"}"#).unwrap();
        assert_eq!(o.get_str("s"), Some("\u{8}\u{c}"));
    }

    #[test]
    fn builder_renders_arrays_and_floats() {
        let rows = vec![JsonBuilder::new().u64("id", 1).build()];
        let body = JsonBuilder::new()
            .raw("jobs", &json_array(&rows))
            .f64("p50", 0.5)
            .f64("bad", f64::NAN)
            .bool("ok", true)
            .build();
        assert_eq!(body, r#"{"jobs":[{"id":1}],"p50":0.5,"bad":null,"ok":true}"#);
    }

    #[test]
    fn object_arrays_parse_per_element() {
        let rows = parse_object_array(r#"[{"seq":0,"kind":"a"},{"seq":1,"kind":"b"}]"#).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get_u64("seq"), Some(0));
        assert_eq!(rows[1].get_str("kind"), Some("b"));
        assert!(parse_object_array("[]").unwrap().is_empty());
        assert!(parse_object_array(r#"[{"a":1},2]"#).is_err(), "non-object element");
        assert!(parse_object_array(r#"[{"a":1}"#).is_err(), "unterminated array");
        assert!(parse_object_array(r#"[{"a":1,"a":2}]"#).is_err(), "duplicate key in element");
    }

    #[test]
    fn integral_floats_keep_floatness() {
        let body = JsonBuilder::new().f64("v", 2.0).build();
        assert_eq!(body, r#"{"v":2.0}"#);
        let o = parse_object(body.as_bytes()).unwrap();
        assert_eq!(o.get_f64("v"), Some(2.0));
        assert_eq!(o.get("v"), Some(&JsonValue::F64(2.0)));
    }

    #[test]
    fn integers_stay_exact_and_typed() {
        let o = parse_object(
            br#"{"a":3,"b":3.5,"c":-2,"d":1e-3,"big":9007199254740993,"max":18446744073709551615}"#,
        )
        .unwrap();
        assert_eq!(o.get("a"), Some(&JsonValue::U64(3)));
        assert_eq!(o.get("b"), Some(&JsonValue::F64(3.5)));
        assert_eq!(o.get("c"), Some(&JsonValue::I64(-2)));
        assert_eq!(o.get("d"), Some(&JsonValue::F64(1e-3)));
        assert_eq!(o.get_u64("big"), Some(9_007_199_254_740_993));
        assert_eq!(o.get_u64("max"), Some(u64::MAX));
        // Integers read as floats; floats and negatives never read as
        // unsigned integers.
        assert_eq!(o.get_f64("a"), Some(3.0));
        assert_eq!(o.get_u64("b"), None);
        assert_eq!(o.get_u64("c"), None);
        assert_eq!(o.get_u64("d"), None);
    }

    #[test]
    fn whitespace_is_json_whitespace_only() {
        let o = parse_object(b" {\t\"n\" :\r\n4 } \n").unwrap();
        assert_eq!(o.get_u64("n"), Some(4));
        assert_eq!(parse_object(b"{ }").unwrap().fields().len(), 0);
        // Form feed and vertical tab are not JSON whitespace.
        assert!(parse_object(b"{\x0c\"n\":4}").is_err());
        assert!(parse_object(b"{\"n\":4}\x0b").is_err());
    }

    #[test]
    fn objects_render_in_insertion_order() {
        let mut o = JsonObject::default();
        o.push("z", 1u64);
        o.push("a", "x");
        o.push("neg", -3i64);
        o.push("nothing", JsonValue::Null);
        o.push("nest", JsonValue::Raw("[1,2]".into()));
        let body = o.render_into(JsonBuilder::new()).build();
        assert_eq!(body, r#"{"z":1,"a":"x","neg":-3,"nothing":null,"nest":[1,2]}"#);
        assert_eq!(parse_object(body.as_bytes()).unwrap(), o);
        assert_eq!(JsonBuilder::new().build(), "{}");
        assert_eq!(json_array(&[]), "[]");
    }
}
