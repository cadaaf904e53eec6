//! Minimal JSON: a value tree, a strict parser, and a writer.
//!
//! The build environment has no serde; this module is the single JSON
//! implementation shared by the trace sinks (writing), `--report-json`
//! (writing) and `trace_report` (parsing + rewriting as Chrome trace
//! JSON). It supports exactly the JSON the stack produces: finite
//! numbers, UTF-8 strings with standard escapes, arrays, objects
//! (insertion-ordered, duplicate keys rejected), `true`/`false`/`null`.
//!
//! The parser also reads untrusted wire lines, so its cost is bounded
//! by the input: nesting stops at [`MAX_DEPTH`] levels, and duplicate
//! keys are found by sorting, not by comparing every pair.

use std::fmt::{self, Write as _};

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are carried as `f64`; integral values round-trip
    /// exactly up to 2^53, far beyond any id or per-process timestamp
    /// the tracer emits.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (linear scan; objects here are small).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss
            )]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Convenience constructor for an object.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Convenience constructor for an exact u64 number.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Encodes a `u64` losslessly as a fixed-width lowercase hex string.
    ///
    /// [`Json::Num`] carries `f64`, which is only exact up to 2^53 —
    /// not enough for content hashes and checksums. Values that must
    /// survive a round trip bit-for-bit travel as strings instead.
    #[must_use]
    pub fn hex(n: u64) -> Json {
        Json::Str(format!("{n:016x}"))
    }

    /// Decodes a value written by [`Json::hex`] back to the exact `u64`.
    #[must_use]
    pub fn as_hex_u64(&self) -> Option<u64> {
        match self {
            Json::Str(s) if s.len() == 16 => u64::from_str_radix(s, 16).ok(),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl fmt::Display for Json {
    /// Compact serialization (no whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_num(f: &mut impl fmt::Write, n: f64) -> fmt::Result {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    if n.is_finite() && n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        // Integral: print without the ".0" so u64 fields stay integers.
        if n < 0.0 {
            write!(f, "{}", n as i64)
        } else {
            write!(f, "{}", n as u64)
        }
    } else if n.is_finite() {
        write!(f, "{n}")
    } else {
        // JSON has no NaN/Inf; null is the least-bad encoding.
        f.write_str("null")
    }
}

/// Writes `s` as a quoted JSON string with standard escapes.
pub fn write_escaped(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the bound keeps a line of brackets from
/// overflowing the stack; every document the stack writes nests far
/// less.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_owned(),
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object a level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    if let Some(key) = duplicate_key(&fields) {
                        return Err(self.err(&format!("duplicate key {key:?}")));
                    }
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: only accept a full pair.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !(self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u'))
                                {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                cp
                            };
                            out.push(
                                char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this
                    // is always well-formed).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            pos: start,
            msg: "invalid number".to_owned(),
        })
    }
}

/// A key that occurs twice among `fields`, found in O(n log n).
fn duplicate_key(fields: &[(String, Json)]) -> Option<&str> {
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_trace_line() {
        let line = r#"{"ts":123456,"tid":1,"ph":"B","name":"bmc.solve","args":{"depth":3,"ok":true,"r":1.5}}"#;
        let v = parse(line).expect("parses");
        assert_eq!(v.get("ts").and_then(Json::as_u64), Some(123_456));
        assert_eq!(v.get("ph").and_then(Json::as_str), Some("B"));
        assert_eq!(
            v.get("args")
                .and_then(|a| a.get("depth"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(parse(&v.to_string()).expect("re-parses"), v);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\tе\u{1}\u{1F600}".to_owned());
        let s = v.to_string();
        assert_eq!(parse(&s).expect("parses"), v);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""\ud83d\ude00""#).expect("parses");
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "01x",
            "\"\\q\"",
            "{\"a\":1,\"a\":2}",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.msg.contains("too deep"), "{err}");
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // A wire line of ten thousand open brackets is an error, not a
        // stack overflow.
        let hostile = format!("{{\"cmd\":{}", "[".repeat(10_000));
        assert!(parse(&hostile).unwrap_err().msg.contains("too deep"));
    }

    #[test]
    fn duplicate_among_many_keys_is_reported() {
        let mut text = String::from("{");
        for i in 0..90_000 {
            write!(text, "\"k{i}\":0,").unwrap();
        }
        let unique = format!("{}}}", text.trim_end_matches(','));
        assert_eq!(
            parse(&unique).unwrap().as_obj().map(<[_]>::len),
            Some(90_000)
        );
        text.push_str("\"k45000\":1}");
        let err = parse(&text).unwrap_err();
        assert!(err.msg.contains("duplicate key \"k45000\""), "{err}");
    }

    #[test]
    fn large_integers_round_trip_exactly() {
        let n = 9_007_199_254_740_992u64; // 2^53
        let v = Json::num(n);
        assert_eq!(parse(&v.to_string()).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(parse("-42").unwrap().to_string(), "-42");
        assert_eq!(parse("1.5e3").unwrap().as_f64(), Some(1500.0));
    }
}
