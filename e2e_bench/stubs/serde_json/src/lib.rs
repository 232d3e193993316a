//! Offline stand-in for `serde_json` over the serde stand-in: the
//! `to_*`/`from_*` entry points, [`Value`] with its accessors and indexing,
//! [`Map`], [`Number`] and the [`json!`] macro.

use serde::de::{self, Parser};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Index, IndexMut};

pub use serde::de::Error;

/// Result alias matching serde_json's.
pub type Result<T> = std::result::Result<T, Error>;

/// Object representation: sorted by key, as serde_json's default is.
pub type Map<K, V> = BTreeMap<K, V>;

/// A JSON number; integers are kept exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(de::Number);

impl Number {
    /// The value as `i64` if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            de::Number::U(u) => i64::try_from(u).ok(),
            de::Number::I(i) => Some(i),
            de::Number::F(_) => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            de::Number::U(u) => Some(u),
            _ => None,
        }
    }

    /// The value as a float (always possible).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            de::Number::U(u) => u as f64,
            de::Number::I(i) => i as f64,
            de::Number::F(f) => f,
        })
    }

    /// A float number; `None` for NaN and infinities, which JSON lacks.
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(de::Number::F(f)))
    }

    /// Whether the number is an integer.
    pub fn is_i64(&self) -> bool {
        self.as_i64().is_some()
    }

    /// Whether the number is a non-negative integer.
    pub fn is_u64(&self) -> bool {
        self.as_u64().is_some()
    }

    /// Whether the number has a fraction or exponent.
    pub fn is_f64(&self) -> bool {
        matches!(self.0, de::Number::F(_))
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.serialize(&mut s);
        f.write_str(&s)
    }
}

impl Serialize for Number {
    fn serialize(&self, out: &mut String) {
        match self.0 {
            de::Number::U(u) => u.serialize(out),
            de::Number::I(i) => i.serialize(out),
            de::Number::F(f) => f.serialize(out),
        }
    }
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Look up an object key or array index; `None` when absent or when
    /// `self` is the wrong shape.
    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    /// Mutable [`Value::get`].
    pub fn get_mut<I: ValueIndex>(&mut self, index: I) -> Option<&mut Value> {
        index.index_into_mut(self)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is one that fits `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The integer, if this is a non-negative one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as a float, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutable [`Value::as_array`].
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Mutable [`Value::as_object`].
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this is a number.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// Whether this is a string.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// Whether this is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// Whether this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Replace with `null`, returning the old value.
    pub fn take(&mut self) -> Value {
        std::mem::take(self)
    }
}

/// Types usable with [`Value::get`] and `value[...]`.
pub trait ValueIndex {
    #[doc(hidden)]
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
    #[doc(hidden)]
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value>;
    #[doc(hidden)]
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value;
}

impl ValueIndex for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_array()?.get(*self)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_array_mut()?.get_mut(*self)
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        self.index_into_mut(v).expect("array index out of bounds")
    }
}

impl ValueIndex for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        v.as_object()?.get(self)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        v.as_object_mut()?.get_mut(self)
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        if v.is_null() {
            *v = Value::Object(Map::new());
        }
        v.as_object_mut()
            .expect("cannot index a non-object with a string")
            .entry(self.to_string())
            .or_insert(Value::Null)
    }
}

impl ValueIndex for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        self.as_str().index_into_mut(v)
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        self.as_str().index_or_insert(v)
    }
}

impl<T: ValueIndex + ?Sized> ValueIndex for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        (**self).index_into_mut(v)
    }
    fn index_or_insert<'v>(&self, v: &'v mut Value) -> &'v mut Value {
        (**self).index_or_insert(v)
    }
}

impl<I: ValueIndex> Index<I> for Value {
    type Output = Value;
    /// Absent keys and wrong shapes read as `null`, as in serde_json.
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl<I: ValueIndex> IndexMut<I> for Value {
    fn index_mut(&mut self, index: I) -> &mut Value {
        index.index_or_insert(self)
    }
}

impl Serialize for Value {
    fn serialize(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.serialize(out),
            Value::Number(n) => n.serialize(out),
            Value::String(s) => s.serialize(out),
            Value::Array(a) => a.serialize(out),
            Value::Object(o) => o.serialize(out),
        }
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize(p: &mut Parser<'de>) -> de::Result<Self> {
        Ok(match p.peek()? {
            b'n' => {
                p.parse_null()?;
                Value::Null
            }
            b't' | b'f' => Value::Bool(p.parse_bool()?),
            b'"' => Value::String(p.parse_str()?.into_owned()),
            b'[' => Value::Array(Vec::deserialize(p)?),
            b'{' => Value::Object(Map::deserialize(p)?),
            _ => Value::Number(Number(p.parse_number()?)),
        })
    }
}

impl fmt::Display for Value {
    /// Compact JSON; `{:#}` pretty-prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = if f.alternate() {
            to_string_pretty(self)
        } else {
            to_string(self)
        };
        f.write_str(&s.map_err(|_| fmt::Error)?)
    }
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Value {
                $e
            }
        }
    )*};
}
value_from! {
    bool => |v| Value::Bool(v),
    String => |v| Value::String(v),
    &str => |v| Value::String(v.to_string()),
    u8 => |v| Value::Number(Number(de::Number::U(v.into()))),
    u16 => |v| Value::Number(Number(de::Number::U(v.into()))),
    u32 => |v| Value::Number(Number(de::Number::U(v.into()))),
    u64 => |v| Value::Number(Number(de::Number::U(v))),
    usize => |v| Value::Number(Number(de::Number::U(v as u64))),
    i8 => |v| Value::from(i64::from(v)),
    i16 => |v| Value::from(i64::from(v)),
    i32 => |v| Value::from(i64::from(v)),
    isize => |v| Value::from(v as i64),
    i64 => |v| Value::Number(Number(match u64::try_from(v) {
        Ok(u) => de::Number::U(u),
        Err(_) => de::Number::I(v),
    })),
    f64 => |v| Number::from_f64(v).map_or(Value::Null, Value::Number),
    f32 => |v| Value::from(f64::from(v)),
    Number => |v| Value::Number(v),
    Map<String, Value> => |v| Value::Object(v),
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

/// Serialize to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(&mut out);
    Ok(out)
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Serialize to indented JSON text (two spaces, like serde_json).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let compact = to_string(value)?;
    let mut out = String::with_capacity(compact.len() * 2);
    let mut indent = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = compact.chars().peekable();
    let newline = |out: &mut String, indent: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", indent));
    };
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                // Empty containers stay on one line.
                if matches!(chars.peek(), Some('}' | ']')) {
                    out.push(chars.next().expect("peeked"));
                } else {
                    indent += 1;
                    newline(&mut out, indent);
                }
            }
            '}' | ']' => {
                indent -= 1;
                newline(&mut out, indent);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, indent);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    Ok(out)
}

/// Convert any serializable value to a [`Value`].
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    from_str(&to_string(value)?)
}

/// Convert a [`Value`] to any deserializable type.
pub fn from_value<T: de::DeserializeOwned>(value: Value) -> Result<T> {
    from_str(&to_string(&value)?)
}

/// Parse JSON bytes.
pub fn from_slice<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T> {
    let mut p = Parser::new(bytes);
    let value = T::deserialize(&mut p)?;
    p.end()?;
    Ok(value)
}

/// Parse JSON text.
pub fn from_str<'a, T: Deserialize<'a>>(s: &'a str) -> Result<T> {
    from_slice(s.as_bytes())
}

/// Build a [`Value`] from JSON-like syntax. Object keys are string literals;
/// values are `null`, nested `{...}` / `[...]`, or any `Serialize`
/// expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {
        $crate::Value::Array($crate::json_array!([] () $($tt)*))
    };
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = $crate::Map::<::std::string::String, $crate::Value>::new();
        $crate::json_object!(object $($tt)*);
        $crate::Value::Object(object)
    }};
    ($e:expr) => { $crate::to_value(&$e).expect("json!: value serializes") };
}

/// Implementation detail of [`json!`]: munch `"key": value,` pairs,
/// accumulating each value's tokens until the next top-level comma.
#[macro_export]
#[doc(hidden)]
macro_rules! json_object {
    ($object:ident) => {};
    ($object:ident $key:literal : $($rest:tt)*) => {
        $crate::json_object!(@value $object $key () $($rest)*);
    };
    (@value $object:ident $key:literal ($($value:tt)+)) => {
        $object.insert(::std::string::String::from($key), $crate::json!($($value)+));
    };
    (@value $object:ident $key:literal ($($value:tt)+) , $($rest:tt)*) => {
        $object.insert(::std::string::String::from($key), $crate::json!($($value)+));
        $crate::json_object!($object $($rest)*);
    };
    (@value $object:ident $key:literal ($($value:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_object!(@value $object $key ($($value)* $next) $($rest)*);
    };
}

/// Implementation detail of [`json!`]: munch comma-separated elements
/// into a `vec![...]` of finished element expressions.
#[macro_export]
#[doc(hidden)]
macro_rules! json_array {
    ([$($done:expr,)*] ()) => {
        ::std::vec![$($done,)*]
    };
    ([$($done:expr,)*] ($($value:tt)+)) => {
        ::std::vec![$($done,)* $crate::json!($($value)+),]
    };
    ([$($done:expr,)*] ($($value:tt)+) , $($rest:tt)*) => {
        $crate::json_array!([$($done,)* $crate::json!($($value)+),] () $($rest)*)
    };
    ([$($done:expr,)*] ($($value:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_array!([$($done,)*] ($($value)* $next) $($rest)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values() {
        let counts = vec![1u64, 2, 3];
        let label = "band";
        let v = json!({
            "label": label,
            "counts": counts,
            "nested": { "pi": 3.5, "none": null, "list": [1, "two", [3]] },
            "expr": counts.iter().map(|c| json!({ "c": c })).collect::<Vec<_>>(),
        });
        assert_eq!(v["label"], Value::from("band"));
        assert_eq!(v["counts"][2].as_u64(), Some(3));
        assert_eq!(v["nested"]["pi"].as_f64(), Some(3.5));
        assert!(v["nested"]["none"].is_null());
        assert_eq!(v["nested"]["list"][2][0].as_i64(), Some(3));
        assert_eq!(v["expr"][1]["c"].as_u64(), Some(2));
        assert!(v["absent"]["deeper"].is_null());
    }

    #[test]
    fn text_round_trips_and_pretty_prints() {
        let text = r#"{"a":[1,-2,3.5,"x\ny"],"b":{},"c":null,"d":true}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), text);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": [\n    1,"));
        assert!(pretty.contains("\"b\": {}"));
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
        assert!(from_str::<Value>("{\"a\":1} x").is_err());
    }

    #[test]
    fn index_mut_inserts_keys() {
        let mut v = Value::Null;
        v["k"]["n"] = Value::from(7);
        assert_eq!(v["k"]["n"].as_i64(), Some(7));
    }
}
