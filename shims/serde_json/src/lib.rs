//! Offline stand-in for `serde_json`, for the JSON the process prints
//! for people and harnesses (metric snapshots, bench records): a
//! [`Value`] tree, a strict recursive-descent parser, compact
//! (`Display`) and pretty writers, and a `json!` macro over anything
//! that implements [`ToJson`]. Object keys are `BTreeMap`-ordered, so
//! output is deterministic — the observability snapshots rely on that
//! for byte-identical same-seed runs. Nothing here persists state: the
//! catalog's files have a binary codec of their own.

use std::collections::BTreeMap;
use std::fmt;

/// A parse or render failure.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn custom<T: fmt::Display>(msg: T) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

#[derive(Debug, Clone, Copy)]
pub enum Number {
    PosInt(u128),
    NegInt(i128),
    Float(f64),
}

impl Number {
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(p) => p as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(f) => f,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(p) => u64::try_from(p).ok(),
            Number::NegInt(_) | Number::Float(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(p) => i64::try_from(p).ok(),
            Number::NegInt(n) => i64::try_from(n).ok(),
            Number::Float(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        use Number::*;
        match (*self, *other) {
            (PosInt(a), PosInt(b)) => a == b,
            (NegInt(a), NegInt(b)) => a == b,
            (PosInt(a), NegInt(b)) | (NegInt(b), PosInt(a)) => b >= 0 && a == b as u128,
            (Float(a), Float(b)) => a == b,
            // Integer-vs-float compare numerically (serde_json treats
            // 1 and 1.0 as distinct, but nothing here relies on that).
            (Float(f), other) | (other, Float(f)) => Number::as_f64(&other) == f,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::PosInt(p) => write!(f, "{p}"),
            Number::NegInt(n) => write!(f, "{n}"),
            Number::Float(x) if !x.is_finite() => f.write_str("null"),
            Number::Float(x) if x == x.trunc() && x.abs() < 1e16 => write!(f, "{x:.1}"),
            Number::Float(x) => write!(f, "{x}"),
        }
    }
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => escape_into(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

/// Compact JSON — `format!("{v}")` is the canonical snapshot encoding.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_compact(self, &mut out);
        f.write_str(&out)
    }
}

// From impls so values build ergonomically.
macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Number::PosInt(v as u128)) }
        }
    )*};
}
from_unsigned!(u8, u16, u32, u64, usize, u128);

macro_rules! from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                let v = v as i128;
                if v >= 0 { Value::Number(Number::PosInt(v as u128)) }
                else { Value::Number(Number::NegInt(v)) }
            }
        }
    )*};
}
from_signed!(i8, i16, i32, i64, isize, i128);

/// JSON has no NaN or infinity: a non-finite float is `null`.
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        if v.is_finite() {
            Value::Number(Number::Float(v))
        } else {
            Value::Null
        }
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::from(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl From<BTreeMap<String, Value>> for Value {
    fn from(m: BTreeMap<String, Value>) -> Value {
        Value::Object(m)
    }
}

/// What `json!` accepts: anything with a JSON rendering, taken by
/// reference so the caller keeps its value.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

pub fn to_value<T: ToJson + ?Sized>(t: &T) -> Value {
    t.to_json()
}

macro_rules! to_json_via_from {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value { Value::from(self.clone()) }
        }
    )*};
}
to_json_via_from!(
    u8, u16, u32, u64, usize, u128, i8, i16, i32, i64, isize, i128, f32, f64, bool, String
);

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::from(self)
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<K: fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

pub fn to_string_pretty(v: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(v, 0, &mut out);
    Ok(out)
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_pretty(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(m) if !m.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in m.iter().enumerate() {
                out.push_str(&pad_in);
                escape_into(out, k);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
                if i + 1 < m.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::custom(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
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
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut m = std::collections::BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pair handling.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if !(self.eat_keyword("\\u")) {
                                    return Err(Error::custom("lone high surrogate"));
                                }
                                let low = self.hex4()?;
                                let combined =
                                    0x10000 + ((cp - 0xd800) << 10) + (low.wrapping_sub(0xdc00));
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::custom("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| Error::custom("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        other => {
                            return Err(Error::custom(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 char.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| Error::custom(format!("invalid UTF-8 in string: {e}")))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::custom("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::custom("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::custom("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(|f| Value::Number(Number::Float(f)))
                .map_err(|e| Error::custom(format!("bad number `{text}`: {e}")))
        } else if let Some(neg) = text.strip_prefix('-') {
            // Parse the magnitude, then negate, so i128::MIN-adjacent
            // values stay exact.
            neg.parse::<i128>()
                .map(|m| Value::Number(Number::NegInt(-m)))
                .map_err(|e| Error::custom(format!("bad number `{text}`: {e}")))
        } else {
            text.parse::<u128>()
                .map(|u| Value::Number(Number::PosInt(u)))
                .map_err(|e| Error::custom(format!("bad number `{text}`: {e}")))
        }
    }
}

/// Build a [`Value`] in place. Supports the workspace's usage: flat or
/// nested objects with string-literal keys, arrays, and bare
/// expressions of a [`ToJson`] type.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut __m = ::std::collections::BTreeMap::new();
        // Borrow like serde_json's `json!` does, so callers can keep
        // using the named value afterwards.
        $( __m.insert(::std::string::String::from($key), $crate::to_value(&$val)); )*
        $crate::Value::Object(__m)
    }};
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basics() {
        for text in [
            "null",
            "true",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null],\"c\":\"x\\ny\"}",
            "-12",
            "1.5",
        ] {
            let v = parse(text).unwrap();
            let v2 = parse(&v.to_string()).unwrap();
            assert_eq!(v, v2, "{text}");
        }
    }

    #[test]
    fn json_macro_and_display() {
        let v = json!({"b": 2u64, "a": "x", "list": vec![1u64, 2]});
        // BTreeMap ordering: keys sorted.
        assert_eq!(v.to_string(), "{\"a\":\"x\",\"b\":2,\"list\":[1,2]}");
    }

    #[test]
    fn pretty_parses_back() {
        let v = json!({"x": 1u64, "y": vec![1u64, 2]});
        let pretty = to_string_pretty(&v).unwrap();
        let back = parse(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(json!(1.0f64).to_string(), "1.0");
        assert_eq!(json!(0.25f64).to_string(), "0.25");
        assert_eq!(json!(f64::NAN).to_string(), "null");
    }
}
