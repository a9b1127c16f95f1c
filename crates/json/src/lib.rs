//! # lazyeye-json — the workspace's dependency-free JSON layer
//!
//! The build environment has no crates.io access, so instead of `serde` +
//! `serde_json` the workspace carries this small JSON library: a [`Json`]
//! value type with parser and (deterministic) printers, [`ToJson`] /
//! [`FromJson`] conversion traits, and declarative macros that derive the
//! conversions for plain structs ([`impl_json_struct!`]) and fieldless
//! enums ([`impl_json_unit_enum!`]).
//!
//! Object key order is **insertion order**, and the printers are fully
//! deterministic — the campaign engine's byte-identical-report guarantee
//! (same spec + seed ⇒ same JSON, whatever `--jobs` is) rests on this.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Duration;

/// A JSON document/value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer in `i64` range (all non-negative integers ≤ `i64::MAX`
    /// normalise here).
    Int(i64),
    /// Integer above `i64::MAX` (e.g. large campaign seeds).
    UInt(u64),
    /// Non-integral number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
}

impl JsonError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Value accessors
// ---------------------------------------------------------------------------

static NULL: Json = Json::Null;

impl Json {
    /// Builds an object from key/value pairs (insertion order preserved).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` when the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, idx: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Json {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<u64> for Json {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<bool> for Json {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn escape_into(s: &str, out: &mut String) {
    // Fast path: almost every key and value in a report is escape-free.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push('"');
        out.push_str(s);
        out.push('"');
        return;
    }
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

fn number_to_string(f: f64) -> String {
    assert!(
        f.is_finite(),
        "lazyeye-json cannot serialize non-finite number {f}"
    );
    format!("{f}")
}

/// Appends `n` spaces without allocating (the pretty printer previously
/// built a fresh `String` per indented line via `" ".repeat(..)`).
fn push_spaces(out: &mut String, n: usize) {
    const SPACES: &str = "                                                                ";
    let mut left = n;
    while left > 0 {
        let take = left.min(SPACES.len());
        out.push_str(&SPACES[..take]);
        left -= take;
    }
}

impl Json {
    /// A close upper-bound estimate of the compact rendering's byte
    /// length, used to pre-size output buffers (reports are built from
    /// thousands of small values; growing a `String` through repeated
    /// doublings showed up in the campaign writer's profile).
    pub fn estimate_compact_len(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Int(_) | Json::UInt(_) => 20,
            Json::Float(_) => 24,
            // `+ 8` leaves headroom for escapes.
            Json::Str(s) => s.len() + 8,
            Json::Arr(items) => {
                2 + items
                    .iter()
                    .map(|v| v.estimate_compact_len() + 1)
                    .sum::<usize>()
            }
            Json::Obj(pairs) => {
                2 + pairs
                    .iter()
                    .map(|(k, v)| k.len() + 4 + v.estimate_compact_len() + 1)
                    .sum::<usize>()
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => out.push_str(&number_to_string(*f)),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        const STEP: usize = 2;
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_spaces(out, indent + STEP);
                    v.write_pretty(out, indent + STEP);
                }
                out.push('\n');
                push_spaces(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_spaces(out, indent + STEP);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + STEP);
                }
                out.push('\n');
                push_spaces(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    /// Compact rendering (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::with_capacity(self.estimate_compact_len());
        self.write_compact(&mut out);
        out
    }

    /// Compact rendering appended to a caller-owned buffer — lets report
    /// writers and periodic checkpoint savers reuse one allocation.
    pub fn write_compact_into(&self, out: &mut String) {
        out.reserve(self.estimate_compact_len());
        self.write_compact(out);
    }

    /// Pretty rendering, two-space indent.
    pub fn to_string_pretty(&self) -> String {
        // Indentation roughly doubles the compact size for report-shaped
        // documents (one scalar per line).
        let mut out = String::with_capacity(self.estimate_compact_len() * 2);
        self.write_pretty(&mut out, 0);
        out
    }

    /// Pretty rendering appended to a caller-owned buffer; see
    /// [`Json::write_compact_into`].
    pub fn write_pretty_into(&self, out: &mut String) {
        out.reserve(self.estimate_compact_len() * 2);
        self.write_pretty(out, 0);
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_string_compact())
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level; past this bound it returns an error rather
/// than overflow the stack.
pub const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
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
                Some(b',') => self.pos += 1,
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
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = (v << 4) | d as u16;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(u32::from(hi))
                                    .ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                _ => {
                    // Bulk-copy everything up to the next delimiter. The
                    // delimiters are ASCII, so scanning bytes never splits
                    // a multi-byte UTF-8 sequence.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let span = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(span);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                // Integers print as `0`; `-0` is how the writer spells the
                // float negative zero, so keep its sign and re-emit `-0`.
                if i == 0 && text.starts_with('-') {
                    return Ok(Json::Float(-0.0));
                }
                return Ok(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        // An overflowing literal (`1e999`) parses to infinity, which no
        // JSON document can hold and the writer refuses to print.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

impl Json {
    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` to JSON.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Converts JSON into `Self`.
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Called when a struct field's key is absent entirely. Overridden by
    /// `Option<T>` (absent means `None`); everything else errors.
    fn from_missing_field(name: &str) -> Result<Self, JsonError> {
        Err(JsonError::new(format!("missing field {name:?}")))
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Json, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<bool, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::new(format!("expected bool, got {v}")))
    }
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as u64;
                if v <= i64::MAX as u64 {
                    Json::Int(v as i64)
                } else {
                    Json::UInt(v)
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<$t, JsonError> {
                let u = v
                    .as_u64()
                    .ok_or_else(|| JsonError::new(format!("expected unsigned integer, got {v}")))?;
                <$t>::try_from(u)
                    .map_err(|_| JsonError::new(format!("{u} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
json_uint!(u8, u16, u32, u64, usize);

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<$t, JsonError> {
                let i = v
                    .as_i64()
                    .ok_or_else(|| JsonError::new(format!("expected integer, got {v}")))?;
                <$t>::try_from(i)
                    .map_err(|_| JsonError::new(format!("{i} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
json_int!(i8, i16, i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        if self.fract() == 0.0 && self.abs() < 9.0e15 {
            Json::Int(*self as i64)
        } else {
            Json::Float(*self)
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::new(format!("expected number, got {v}")))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, JsonError> {
        v.as_str()
            .map(String::from)
            .ok_or_else(|| JsonError::new(format!("expected string, got {v}")))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>, JsonError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }

    fn from_missing_field(_name: &str) -> Result<Option<T>, JsonError> {
        Ok(None)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::new(format!("expected array, got {v}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl ToJson for Duration {
    /// Serialized as `{"secs": u64, "nanos": u32}`, the shape serde uses
    /// for `std::time::Duration`.
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("secs", self.as_secs().to_json()),
            ("nanos", self.subsec_nanos().to_json()),
        ])
    }
}

impl FromJson for Duration {
    fn from_json(v: &Json) -> Result<Duration, JsonError> {
        let secs = u64::from_json(&v["secs"])
            .map_err(|e| JsonError::new(format!("Duration.secs: {e}")))?;
        let nanos = u32::from_json(&v["nanos"])
            .map_err(|e| JsonError::new(format!("Duration.nanos: {e}")))?;
        Ok(Duration::new(secs, nanos))
    }
}

// ---------------------------------------------------------------------------
// Derive macros
// ---------------------------------------------------------------------------

/// Implements [`ToJson`] + [`FromJson`] for a plain struct: an object with
/// one key per listed field, in declaration order.
///
/// ```
/// use lazyeye_json::{impl_json_struct, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct P { x: u32, label: Option<String> }
/// impl_json_struct!(P { x, label });
///
/// let p = P { x: 7, label: None };
/// let back = P::from_json(&Json::parse(&p.to_json().to_string_compact()).unwrap()).unwrap();
/// assert_eq!(back, p);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::obj(vec![
                    $((stringify!($field), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> ::std::result::Result<$name, $crate::JsonError> {
                ::std::result::Result::Ok($name {
                    $($field: match v.get(stringify!($field)) {
                        ::std::option::Option::Some(fv) => {
                            $crate::FromJson::from_json(fv).map_err(|e| {
                                $crate::JsonError::new(format!(
                                    "{}.{}: {}",
                                    stringify!($name),
                                    stringify!($field),
                                    e
                                ))
                            })?
                        }
                        ::std::option::Option::None => {
                            $crate::FromJson::from_missing_field(stringify!($field)).map_err(
                                |e| {
                                    $crate::JsonError::new(format!(
                                        "{}: {}",
                                        stringify!($name),
                                        e
                                    ))
                                },
                            )?
                        }
                    },)+
                })
            }
        }
    };
}

/// Implements [`ToJson`] + [`FromJson`] for a fieldless enum: each variant
/// serializes as its name string.
///
/// ```
/// use lazyeye_json::{impl_json_unit_enum, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// enum E { A, B }
/// impl_json_unit_enum!(E { A, B });
///
/// assert_eq!(E::A.to_json(), Json::Str("A".into()));
/// assert_eq!(E::from_json(&Json::Str("B".into())).unwrap(), E::B);
/// ```
#[macro_export]
macro_rules! impl_json_unit_enum {
    ($name:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $($name::$variant => $crate::Json::Str(stringify!($variant).to_string()),)+
                }
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> ::std::result::Result<$name, $crate::JsonError> {
                match v.as_str() {
                    $(::std::option::Option::Some(stringify!($variant)) => {
                        ::std::result::Result::Ok($name::$variant)
                    })+
                    _ => ::std::result::Result::Err($crate::JsonError::new(format!(
                        "expected one of {:?} for {}, got {}",
                        [$(stringify!($variant)),+],
                        stringify!($name),
                        v
                    ))),
                }
            }
        }
    };
}

/// Appends one CSV row to `out`: cells comma-joined, a cell quoted (with
/// `"` doubled) when it contains a comma or a quote, plus a trailing
/// newline. Shared by the campaign and fleet report writers so their
/// escaping can never diverge.
pub fn push_csv_row(out: &mut String, cells: &[String]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if cell.contains(',') || cell.contains('"') {
            out.push('"');
            out.push_str(&cell.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let src =
            r#"{"a": 1, "b": [true, null, -2.5], "c": {"d": "x\ny"}, "e": 18446744073709551615}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v["a"], 1u64);
        assert_eq!(v["b"][0], true);
        assert!(v["b"][1].is_null());
        assert_eq!(v["b"][2].as_f64(), Some(-2.5));
        assert_eq!(v["c"]["d"], "x\ny");
        assert_eq!(v["e"].as_u64(), Some(u64::MAX));
        let again = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(again, v);
        let pretty = Json::parse(&v.to_string_pretty()).unwrap();
        assert_eq!(pretty, v);
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""é😀""#).unwrap();
        assert_eq!(v, "é😀");
    }

    #[test]
    fn garbage_errors() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"\u{01}\"").is_err());
    }

    #[test]
    fn overflowing_numbers_are_errors_not_infinities() {
        for src in ["1e999", "-1e999", "[0.5e400]"] {
            let err = Json::parse(src).unwrap_err();
            assert!(
                err.to_string().contains("number out of range"),
                "{src}: {err}"
            );
        }
        // Large but finite, and underflow to zero, still parse.
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
        assert_eq!(Json::parse("1e-999").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let deepest = Json::parse(&nest(MAX_DEPTH)).unwrap();
        assert_eq!(Json::parse(&deepest.to_string_compact()).unwrap(), deepest);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        for src in [nest(MAX_DEPTH + 1), objects, "[".repeat(200_000)] {
            let err = Json::parse(&src).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 512"), "{err}");
        }
    }

    #[test]
    fn duration_roundtrip() {
        let d = Duration::from_millis(1250);
        let j = d.to_json();
        assert_eq!(j["secs"], 1u64);
        assert_eq!(Duration::from_json(&j).unwrap(), d);
    }

    #[test]
    fn struct_macro_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct S {
            n: u64,
            f: f64,
            name: String,
            opt: Option<u32>,
            list: Vec<u16>,
        }
        impl_json_struct!(S {
            n,
            f,
            name,
            opt,
            list
        });

        let s = S {
            n: u64::MAX,
            f: 2.25,
            name: "x\"y".into(),
            opt: None,
            list: vec![1, 2, 3],
        };
        let text = s.to_json().to_string_pretty();
        let back = S::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);

        // Absent Option field parses as None; absent required field errors.
        let partial = Json::parse(r#"{"n": 1, "f": 0, "name": "a", "list": []}"#).unwrap();
        assert_eq!(S::from_json(&partial).unwrap().opt, None);
        let broken = Json::parse(r#"{"n": 1}"#).unwrap();
        assert!(S::from_json(&broken).is_err());
    }

    #[test]
    fn unit_enum_macro() {
        #[derive(Debug, PartialEq)]
        enum Color {
            Red,
            Green,
        }
        impl_json_unit_enum!(Color { Red, Green });
        assert_eq!(Color::Red.to_json().as_str(), Some("Red"));
        assert_eq!(
            Color::from_json(&Json::Str("Green".into())).unwrap(),
            Color::Green
        );
        assert!(Color::from_json(&Json::Str("Blue".into())).is_err());
    }
}
