//! Vendored deterministic serialization subset.
//!
//! The workspace must build with no network and no registry cache (the
//! same constraint that produced the vendored `proptest` subset), so
//! this crate provides the small slice of `serde`'s surface the
//! workspace needs: a [`Serialize`] trait mapping values into a JSON
//! [`Value`] model and its strict inverse [`Deserialize`],
//! byte-deterministic emitters ([`to_string`], [`to_string_pretty`]),
//! and a strict parser ([`from_str`]) for files read back from outside
//! the program (checkpoints, elision tables, progress journals).
//!
//! Each struct that is written (and perhaps read back) is described
//! once, as a list of `"key": field` entries ([`codec_object!`]) or of
//! positional fields ([`codec_array!`]); that one list both writes the
//! JSON and reads it back, so the two directions cannot drift apart.
//! Decoding is strict: a missing key, a wrong JSON type, a wrong array
//! length or an integer out of its field's range is an error naming the
//! field, never a silent truncation.
//!
//! Determinism notes: objects preserve insertion order (no hash-map
//! reordering), floats emit via Rust's shortest-roundtrip `Display`,
//! and non-finite floats serialize as `null` (JSON has no NaN/Inf).
//!
//! # Example
//!
//! ```
//! use serde::{from_str, to_string, Deserialize, Value};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point { x: u32, y: u32 }
//! serde::codec_object!(Point { "x": x, "y": y });
//!
//! let json = to_string(&Point { x: 3, y: 4 });
//! assert_eq!(json, r#"{"x":3,"y":4}"#);
//! let v = from_str(&json).unwrap();
//! assert_eq!(v.get("y").and_then(Value::as_u64), Some(4));
//! assert_eq!(Point::dec(&v, "point"), Ok(Point { x: 3, y: 4 }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A finite float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Starts an object builder.
    pub fn object() -> ObjectBuilder {
        ObjectBuilder(Vec::new())
    }

    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for other variants).
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Integer view: `U64` directly, or an exactly-representable `I64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::I64(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// Float view of any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(n) => Some(n),
            _ => None,
        }
    }

    /// String view (`None` for other variants).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Incremental object construction preserving field order.
#[derive(Default)]
pub struct ObjectBuilder(Vec<(String, Value)>);

impl ObjectBuilder {
    /// Appends a serialized field.
    #[must_use]
    pub fn field(mut self, name: &str, value: &dyn Serialize) -> ObjectBuilder {
        self.0.push((name.to_string(), value.to_value()));
        self
    }

    /// Appends a pre-built [`Value`] field.
    #[must_use]
    pub fn raw(mut self, name: &str, value: Value) -> ObjectBuilder {
        self.0.push((name.to_string(), value));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

/// Conversion into the JSON [`Value`] model.
pub trait Serialize {
    /// Serializes `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }

        impl Deserialize for $t {
            fn dec(v: &Value, what: &str) -> Result<Self, String> {
                let n = v.as_u64().ok_or_else(|| format!("`{what}` is not an integer"))?;
                <$t>::try_from(n)
                    .map_err(|_| format!("`{what}` = {n} does not fit in {}", stringify!($t)))
            }
        }
    )*};
}
uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = i64::from(*self);
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

/// A pair is a 2-array.
impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

/// Strict conversion back from the JSON [`Value`] model, the inverse of
/// [`Serialize`] for the types that are read back.
pub trait Deserialize: Sized {
    /// Reads a value written by [`Serialize::to_value`]; `what` names
    /// it in errors.
    fn dec(v: &Value, what: &str) -> Result<Self, String>;
}

/// Key `key` of the object `v` (named `what` in errors).
pub fn field<'a>(v: &'a Value, what: &str, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("`{what}` has no field `{key}`"))
}

/// The elements of the array `v` (named `what` in errors).
pub fn items<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], String> {
    v.as_array().ok_or_else(|| format!("`{what}` is not an array"))
}

impl Deserialize for bool {
    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("`{what}` is not a boolean")),
        }
    }
}

impl Deserialize for String {
    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        v.as_str().map(str::to_string).ok_or_else(|| format!("`{what}` is not a string"))
    }
}

/// `null` is `None`.
impl<T: Deserialize> Deserialize for Option<T> {
    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            _ => T::dec(v, what).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        items(v, what)?.iter().map(|item| T::dec(item, what)).collect()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        Vec::dec(v, what)?
            .try_into()
            .map_err(|got: Vec<T>| format!("`{what}` has {} entries, not {N}", got.len()))
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn dec(v: &Value, what: &str) -> Result<Self, String> {
        match items(v, what)? {
            [a, b] => Ok((A::dec(a, what)?, B::dec(b, what)?)),
            other => Err(format!("`{what}` has {} entries, not 2", other.len())),
        }
    }
}

/// Field adapter (see [`codec_object!`]): a 32-bit word as the
/// `"0x%08x"` string outputs show pcs and instruction words in. Only
/// exactly that form (ten characters, lower-case hex) reads back.
pub mod hex32 {
    use super::Value;

    /// `0x` and eight lower-case hex digits.
    pub fn enc(v: &u32) -> Value {
        Value::Str(format!("{v:#010x}"))
    }

    /// Reads a string written by [`enc`], and no other.
    pub fn dec(v: &Value, what: &str) -> Result<u32, String> {
        let word = v.as_str().and_then(|s| u32::from_str_radix(s.strip_prefix("0x")?, 16).ok());
        word.filter(|w| enc(w) == *v).ok_or_else(|| format!("`{what}` is not a \"0x%08x\" word"))
    }
}

/// Encode-only field adapter (see [`codec_object!`]): a value as its
/// `Display` string.
pub mod display {
    use super::Value;

    /// The value's `Display` rendering.
    pub fn enc<T: std::fmt::Display>(v: &T) -> Value {
        Value::Str(v.to_string())
    }
}

/// Describes a struct written as a JSON object, once for both
/// directions: implements [`Serialize`] and [`Deserialize`] from the
/// `"key": entry` list, in the order the object lists them. An entry is
///
/// * `field`: written with [`Serialize`], read with [`Deserialize`];
/// * `field via adapter`: written with `adapter::enc(&field)`, read
///   with `adapter::dec(value, key)` (a rendering such as [`hex32`]);
/// * `method()`: an encode-only extra, `self.method()`, which the
///   decoder skips.
///
/// The `encode` form, `codec_object!(encode Type { .. })`, implements
/// only [`Serialize`], for types that are written but never read back
/// (its adapters need no `dec`).
#[macro_export]
macro_rules! codec_object {
    (encode $ty:ident { $($body:tt)* }) => {
        $crate::codec_object!(@munch encode $ty [] [] $($body)*);
    };
    ($ty:ident { $($body:tt)* }) => {
        $crate::codec_object!(@munch both $ty [] [] $($body)*);
    };
    // Each entry is moved into the encoder list `($key [access] enc)`
    // and, unless it is an extra, the decoder list `($key field dec)`.
    (@munch $mode:ident $ty:ident [$($enc:tt)*] [$($dec:tt)*]
        $key:literal: $method:ident() $(, $($rest:tt)*)?) => {
        $crate::codec_object!(@munch $mode $ty
            [$($enc)* ($key [$method()] $crate::Serialize::to_value)] [$($dec)*] $($($rest)*)?);
    };
    (@munch $mode:ident $ty:ident [$($enc:tt)*] [$($dec:tt)*]
        $key:literal: $field:ident via $($a:ident)::+ $(, $($rest:tt)*)?) => {
        $crate::codec_object!(@munch $mode $ty [$($enc)* ($key [$field] $($a)::+::enc)]
            [$($dec)* ($key $field $($a)::+::dec)] $($($rest)*)?);
    };
    (@munch $mode:ident $ty:ident [$($enc:tt)*] [$($dec:tt)*]
        $key:literal: $field:ident $(, $($rest:tt)*)?) => {
        $crate::codec_object!(@munch $mode $ty [$($enc)* ($key [$field] $crate::Serialize::to_value)]
            [$($dec)* ($key $field $crate::Deserialize::dec)] $($($rest)*)?);
    };
    (@munch encode $ty:ident [$(($key:literal [$($get:tt)+] $enc:path))*] [$($dec:tt)*]) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::Value::object()$(.raw($key, $enc(&self.$($get)+)))*.build()
            }
        }
    };
    (@munch both $ty:ident [$($enc:tt)*] [$(($key:literal $field:ident $dec:path))*]) => {
        $crate::codec_object!(@munch encode $ty [$($enc)*] []);
        impl $crate::Deserialize for $ty {
            fn dec(v: &$crate::Value, what: &str) -> Result<Self, String> {
                Ok($ty { $($field: $dec($crate::field(v, what, $key)?, $key)?),* })
            }
        }
    };
}

/// Describes a struct written as a JSON array of its fields, in the
/// listed order (bulk data where per-entry keys would dominate the
/// file): implements [`Serialize`] and [`Deserialize`].
#[macro_export]
macro_rules! codec_array {
    ($ty:ident [$($field:ident),* $(,)?]) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::Value::Array(vec![$($crate::Serialize::to_value(&self.$field)),*])
            }
        }
        impl $crate::Deserialize for $ty {
            fn dec(v: &$crate::Value, what: &str) -> Result<Self, String> {
                let [$($field),*] = $crate::items(v, what)? else {
                    let names = [$(stringify!($field)),*];
                    return Err(format!("`{what}` needs exactly {} entries", names.len()));
                };
                Ok($ty { $($field: $crate::Deserialize::dec($field, stringify!($field))?),* })
            }
        }
    };
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn emit(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
        None => ("", String::new(), String::new()),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(n) => {
            if n.is_finite() {
                // Shortest-roundtrip Display; force a fractional part so
                // the value parses back as a float.
                let s = format!("{n}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => escape_into(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                emit(item, out, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                emit(item, out, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Serializes to compact single-line JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    emit(&value.to_value(), &mut out, None, 0);
    out
}

/// Serializes to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    emit(&value.to_value(), &mut out, Some(2), 0);
    out
}

/// A parse failure: byte offset and description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: message.into() })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() != Some(b'\\') {
                                    return self.err("lone high surrogate");
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => s.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                        }
                        _ => return self.err("invalid escape"),
                    }
                }
                b if b < 0x20 => return self.err("control character in string"),
                _ => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return self.err("invalid UTF-8"),
                    };
                    if start + len > self.bytes.len() {
                        return self.err("truncated UTF-8");
                    }
                    match std::str::from_utf8(&self.bytes[start..start + len]) {
                        Ok(frag) => s.push_str(frag),
                        Err(_) => return self.err("invalid UTF-8"),
                    }
                    self.pos = start + len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return self.err("truncated \\u escape");
            };
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return self.err("invalid hex digit"),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number in JSON's grammar: no leading zeros, and at least one
    /// digit after `-`, after `.` and in an exponent.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 => return self.err("expected a digit"),
            n if n > 1 && self.bytes[int_start] == b'0' => {
                self.pos = int_start;
                return self.err("leading zero in a number");
            }
            _ => {}
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            if self.digits() == 0 {
                return self.err("expected a digit after `.`");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.err("expected a digit in the exponent");
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::F64(n)),
            Err(_) => self.err(format!("invalid number `{text}`")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                // Hashed, so a hostile file with many keys stays linear.
                let mut keys = std::collections::HashSet::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key_at = self.pos;
                    let key = self.string()?;
                    if !keys.insert(key.clone()) {
                        self.pos = key_at;
                        return self.err(format!("duplicate key `{key}`"));
                    }
                    self.skip_ws();
                    self.expect(b':')?;
                    let v = self.value(depth + 1)?;
                    fields.push((key, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            _ => self.err("expected a JSON value"),
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing
/// else).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn from_str(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for case in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v = from_str(case).unwrap();
            assert_eq!(to_string(&v), case, "round-trip of {case}");
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Value::object().field("z", &1u32).field("a", &2u32).build();
        assert_eq!(to_string(&v), r#"{"z":1,"a":2}"#);
        assert_eq!(from_str(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_parse_back() {
        let s = "line1\nline2\t\"quoted\" \\slash \u{1}";
        let json = to_string(&s);
        assert_eq!(from_str(&json).unwrap(), Value::Str(s.to_string()));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(from_str(r#""\u0041""#).unwrap(), Value::Str("A".into()));
        // Surrogate pair for U+1F600.
        assert_eq!(from_str(r#""\ud83d\ude00""#).unwrap(), Value::Str("\u{1f600}".into()));
        assert!(from_str(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn floats_always_reparse_as_floats() {
        let json = to_string(&2.0f64);
        assert_eq!(json, "2.0");
        assert!(matches!(from_str(&json).unwrap(), Value::F64(_)));
        assert_eq!(to_string(&f64::NAN), "null", "non-finite floats become null");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::object()
            .raw("xs", Value::Array(vec![Value::U64(1), Value::Null, Value::Bool(true)]))
            .raw("o", Value::object().field("s", &"x").build())
            .build();
        assert_eq!(from_str(&to_string(&v)).unwrap(), v);
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains("\n  \"xs\": ["));
        assert_eq!(from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "{\"a\" 1}", "\"\\q\""] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// `(input, offset of the refusal)`.
    fn refused_at(input: &str) -> usize {
        from_str(input).expect_err(input).offset
    }

    #[test]
    fn leading_zeros_are_rejected() {
        assert_eq!(refused_at("01"), 0);
        assert_eq!(refused_at("-01"), 1);
        assert_eq!(refused_at("[00]"), 1);
        assert_eq!(from_str("[0,-0,0.5,0e1]").map(|v| to_string(&v)), Ok("[0,0,0.5,0.0]".into()));
    }

    #[test]
    fn a_fraction_needs_a_digit() {
        assert_eq!(refused_at("1."), 2);
        assert_eq!(refused_at("1.e3"), 2);
        assert_eq!(refused_at("1e"), 2);
        assert_eq!(refused_at("-"), 1);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        assert_eq!(refused_at(r#"{"a":1,"a":2}"#), 7);
        assert_eq!(refused_at(r#"{"o":{"b":1, "b":1}}"#), 13);
        assert!(from_str(r#"{"a":{"a":1}}"#).is_ok(), "keys are per object");
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(from_str(&deep).is_err());
    }

    #[test]
    fn integer_widths() {
        assert_eq!(from_str("18446744073709551615").unwrap(), Value::U64(u64::MAX));
        assert_eq!(from_str("-9223372036854775808").unwrap(), Value::I64(i64::MIN));
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
    }

    #[test]
    fn option_and_collections_serialize() {
        assert_eq!(to_string(&Option::<u32>::None), "null");
        assert_eq!(to_string(&Some(3u32)), "3");
        assert_eq!(to_string(&vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(to_string(&[1u64; 2]), "[1,1]");
        assert_eq!(to_string(&(1u32, 2u8)), "[1,2]");
    }

    #[test]
    fn primitives_decode_strictly() {
        let v = |json: &str| from_str(json).expect("valid JSON");
        assert_eq!(u8::dec(&v("255"), "n"), Ok(255));
        assert_eq!(u8::dec(&v("256"), "n"), Err("`n` = 256 does not fit in u8".into()));
        assert!(u32::dec(&v("-1"), "n").is_err());
        assert!(bool::dec(&v("1"), "b").is_err());
        assert_eq!(Option::<u64>::dec(&v("null"), "o"), Ok(None));
        assert_eq!(<[u8; 2]>::dec(&v("[1,2]"), "a"), Ok([1, 2]));
        assert_eq!(<[u8; 2]>::dec(&v("[1]"), "a"), Err("`a` has 1 entries, not 2".into()));
        assert_eq!(<(u32, String)>::dec(&v(r#"[7,"x"]"#), "p"), Ok((7, "x".into())));
    }

    #[test]
    fn hex32_reads_only_its_own_form() {
        assert_eq!(to_string(&hex32::enc(&0x40)), r#""0x00000040""#);
        assert_eq!(hex32::dec(&hex32::enc(&u32::MAX), "pc"), Ok(u32::MAX));
        let bad = [r#""0x40""#, r#""0X00000040""#, r#""0x+0000040""#, r#""0x0000ABCD""#, "64"];
        for bad in bad {
            assert!(hex32::dec(&from_str(bad).expect("valid JSON"), "pc").is_err(), "{bad}");
        }
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        n: u32,
        pc: u32,
        pair: Option<(u8, u8)>,
    }

    impl Sample {
        fn double(&self) -> u32 {
            self.n * 2
        }
    }

    codec_object!(Sample { "n": n, "double": double(), "pc": pc via hex32, "pair": pair });

    #[derive(Debug, PartialEq)]
    struct Row {
        a: u8,
        b: bool,
    }

    codec_array!(Row [a, b]);

    #[test]
    fn described_types_round_trip_and_skip_extras() {
        let s = Sample { n: 3, pc: 0x1000, pair: Some((1, 2)) };
        let json = to_string(&s);
        assert_eq!(json, r#"{"n":3,"double":6,"pc":"0x00001000","pair":[1,2]}"#);
        assert_eq!(Sample::dec(&from_str(&json).expect("valid JSON"), "sample"), Ok(s));
        let missing = from_str(r#"{"n":3,"pair":null}"#).expect("valid JSON");
        assert_eq!(Sample::dec(&missing, "sample"), Err("`sample` has no field `pc`".into()));

        assert_eq!(to_string(&Row { a: 1, b: true }), "[1,true]");
        assert_eq!(
            Row::dec(&from_str("[1,true]").expect("valid JSON"), "row"),
            Ok(Row { a: 1, b: true })
        );
        let short = from_str("[1]").expect("valid JSON");
        assert_eq!(Row::dec(&short, "row"), Err("`row` needs exactly 2 entries".into()));
    }
}
