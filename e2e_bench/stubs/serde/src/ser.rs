//! JSON-writing half of the stand-in.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

/// A value that can write itself as JSON text.
pub trait Serialize {
    /// Append this value's JSON to `out`.
    fn serialize(&self, out: &mut String);
}

/// Append `s` as a JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        // `start..i` ends before an ASCII byte, so it is a char boundary.
        out.push_str(&s[start..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Append an unsigned integer in decimal.
pub fn write_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// Append a signed integer in decimal.
pub fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Append a float the way serde_json does: shortest round-trip text, always
/// with a fraction or exponent; non-finite values become `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut String) {
                write_u64(out, *self as u64);
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut String) {
                write_i64(out, *self as i64);
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

impl Serialize for f32 {
    fn serialize(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut String) {
        write_str(out, self.encode_utf8(&mut [0u8; 4]));
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Serialize for Path {
    fn serialize(&self, out: &mut String) {
        write_str(out, &self.to_string_lossy());
    }
}

impl Serialize for PathBuf {
    fn serialize(&self, out: &mut String) {
        self.as_path().serialize(out);
    }
}

impl Serialize for () {
    fn serialize(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn serialize(&self, out: &mut String) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize(out),
            None => out.push_str("null"),
        }
    }
}

fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl Iterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn serialize(&self, out: &mut String) {
        write_seq(out, self.iter());
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, out: &mut String) {
                out.push('[');
                $(
                    if $n > 0 { out.push(','); }
                    self.$n.serialize(out);
                )+
                out.push(']');
            }
        }
    )+};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// A map key: JSON object keys are strings, so integer keys are quoted.
pub trait SerializeKey {
    /// Append this key as a JSON string literal.
    fn serialize_key(&self, out: &mut String);
}

impl SerializeKey for str {
    fn serialize_key(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl SerializeKey for String {
    fn serialize_key(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<K: SerializeKey + ?Sized> SerializeKey for &K {
    fn serialize_key(&self, out: &mut String) {
        (**self).serialize_key(out);
    }
}

macro_rules! key_int {
    ($($t:ty),*) => {$(
        impl SerializeKey for $t {
            fn serialize_key(&self, out: &mut String) {
                out.push('"');
                self.serialize(out);
                out.push('"');
            }
        }
    )*};
}
key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn write_map<'a, K: SerializeKey + 'a, V: Serialize + 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) {
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        k.serialize_key(out);
        out.push(':');
        v.serialize(out);
    }
    out.push('}');
}

impl<K: SerializeKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut String) {
        write_map(out, self.iter());
    }
}

impl<K: SerializeKey, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, out: &mut String) {
        write_map(out, self.iter());
    }
}
