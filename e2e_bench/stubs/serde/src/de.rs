//! JSON-reading half of the stand-in: a recursive-descent [`Parser`] over a
//! byte slice and the [`Deserialize`] trait the derives target.
//!
//! Input may come off a socket, so nothing here panics on malformed bytes:
//! every failure is an [`Error`], and nesting is capped at
//! [`MAX_DEPTH`] so hostile input cannot overflow the stack.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

/// Deepest array/object nesting accepted (serde_json's default limit).
pub const MAX_DEPTH: usize = 128;

/// A parse or shape error, with the byte offset where it was noticed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    offset: usize,
}

impl Error {
    /// An error not tied to an input position.
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error {
            msg: msg.to_string(),
            offset: 0,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Result alias for this module.
pub type Result<T> = std::result::Result<T, Error>;

/// Cursor over JSON text.
pub struct Parser<'de> {
    input: &'de [u8],
    pos: usize,
    depth: usize,
}

impl<'de> Parser<'de> {
    /// Start parsing `input`.
    pub fn new(input: &'de [u8]) -> Parser<'de> {
        Parser {
            input,
            pos: 0,
            depth: 0,
        }
    }

    /// An error at the current position.
    pub fn error(&self, msg: impl fmt::Display) -> Error {
        Error {
            msg: msg.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\t' | b'\r') = self.input.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    pub fn peek(&mut self) -> Result<u8> {
        self.skip_ws();
        self.input
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.error("unexpected end of input"))
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{}`", byte as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<()> {
        if self.input[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{lit}`")))
        }
    }

    /// Fail unless only whitespace remains.
    pub fn end(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos == self.input.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters"))
        }
    }

    /// Consume `null` if it is next.
    pub fn parse_null(&mut self) -> Result<bool> {
        if self.peek()? == b'n' {
            self.eat_literal("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Parse `true` or `false`.
    pub fn parse_bool(&mut self) -> Result<bool> {
        match self.peek()? {
            b't' => self.eat_literal("true").map(|()| true),
            b'f' => self.eat_literal("false").map(|()| false),
            _ => Err(self.error("expected a boolean")),
        }
    }

    /// The text of the number at the cursor and whether it is an integer.
    fn number_text(&mut self) -> Result<(&'de str, bool)> {
        self.peek()?;
        let start = self.pos;
        let mut integer = true;
        while let Some(&b) = self.input.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => integer = false,
                _ => break,
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.error("invalid utf-8 in number"))?;
        Ok((text, integer))
    }

    /// Parse a signed integer.
    pub fn parse_i64(&mut self) -> Result<i64> {
        let (text, integer) = self.number_text()?;
        if !integer {
            return Err(self.error("expected an integer"));
        }
        text.parse().map_err(|_| self.error("integer out of range"))
    }

    /// Parse an unsigned integer.
    pub fn parse_u64(&mut self) -> Result<u64> {
        let (text, integer) = self.number_text()?;
        if !integer {
            return Err(self.error("expected an integer"));
        }
        text.parse()
            .map_err(|_| self.error("unsigned integer out of range"))
    }

    /// Parse any number as a float. `null` reads as NaN, mirroring how
    /// non-finite floats are written.
    pub fn parse_f64(&mut self) -> Result<f64> {
        if self.parse_null()? {
            return Ok(f64::NAN);
        }
        let (text, _) = self.number_text()?;
        text.parse().map_err(|_| self.error("invalid number"))
    }

    /// Parse any number, keeping integers exact.
    pub fn parse_number(&mut self) -> Result<Number> {
        let (text, integer) = self.number_text()?;
        if integer {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::U(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::I(i));
            }
        }
        text.parse()
            .map(Number::F)
            .map_err(|_| self.error("invalid number"))
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let hex = self
            .input
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Parse a string literal, borrowing from the input when it has no
    /// escapes.
    pub fn parse_str(&mut self) -> Result<Cow<'de, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.input.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    let s = std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| self.error("invalid utf-8 in string"))?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(0..=0x1f) => return Err(self.error("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
        // Slow path: copy what was scanned, then decode escapes.
        let mut out = Vec::from(&self.input[start..self.pos]);
        loop {
            let b = *self
                .input
                .get(self.pos)
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out)
                        .map(Cow::Owned)
                        .map_err(|_| self.error("invalid utf-8 in string"));
                }
                b'\\' => {
                    let e = *self
                        .input
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    let ch = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let mut cp = self.parse_hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: a low one must follow.
                                if self.input.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(self.error("lone surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("lone surrogate"));
                                }
                                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            }
                            char::from_u32(cp).ok_or_else(|| self.error("bad code point"))?
                        }
                        _ => return Err(self.error("unknown escape")),
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0u8; 4]).as_bytes());
                }
                0..=0x1f => return Err(self.error("control character in string")),
                _ => out.push(b),
            }
        }
    }

    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.error("recursion limit exceeded"))
        } else {
            Ok(())
        }
    }

    /// Consume `{`. Follow with [`Parser::next_key`] until it returns `None`.
    pub fn begin_object(&mut self) -> Result<()> {
        self.expect(b'{')?;
        self.descend()
    }

    /// The next key of the open object (its `:` consumed), or `None` once
    /// the closing `}` has been consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'de, str>>> {
        match self.peek()? {
            b'}' => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(None);
            }
            b',' => self.pos += 1,
            _ => {}
        }
        let key = self.parse_str()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Consume the `}` of an object whose keys were read one at a time
    /// without running [`Parser::next_key`] to exhaustion.
    pub fn end_object(&mut self) -> Result<()> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(self.error("expected `}`")),
        }
    }

    /// Consume `[`. Follow with [`Parser::next_element`] until it returns
    /// `false`.
    pub fn begin_array(&mut self) -> Result<()> {
        self.expect(b'[')?;
        self.descend()
    }

    /// Whether another element follows in the open array; `false` once the
    /// closing `]` has been consumed.
    pub fn next_element(&mut self) -> Result<bool> {
        match self.peek()? {
            b']' => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            b',' => {
                self.pos += 1;
                Ok(true)
            }
            _ => Ok(true),
        }
    }

    /// Require one more element in the open array (fixed-length tuples).
    pub fn expect_element(&mut self) -> Result<()> {
        if self.next_element()? {
            Ok(())
        } else {
            Err(self.error("array too short"))
        }
    }

    /// Require the open array to end here.
    pub fn end_array(&mut self) -> Result<()> {
        if self.next_element()? {
            Err(self.error("array too long"))
        } else {
            Ok(())
        }
    }

    /// Skip one value of any shape.
    pub fn skip_value(&mut self) -> Result<()> {
        match self.peek()? {
            b'{' => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            b'[' => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            b'"' => self.parse_str().map(drop),
            b't' | b'f' => self.parse_bool().map(drop),
            b'n' => self.eat_literal("null"),
            _ => self.number_text().map(drop),
        }
    }
}

/// A JSON number with integers kept exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Anything with a fraction or exponent.
    F(f64),
}

/// A value that can read itself from JSON.
pub trait Deserialize<'de>: Sized {
    /// Parse one value at the cursor.
    fn deserialize(p: &mut Parser<'de>) -> Result<Self>;

    /// The value of a struct field absent from the input. Only `Option`
    /// has one (`None`); everything else reports the field as missing.
    fn missing_field(name: &'static str) -> Result<Self> {
        Err(Error::custom(format_args!("missing field `{name}`")))
    }
}

/// A value deserializable from input of any lifetime.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

macro_rules! de_int {
    ($parse:ident: $($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
                let v = p.$parse()?;
                <$t>::try_from(v).map_err(|_| p.error(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}
de_int!(parse_u64: u8, u16, u32, u64, usize);
de_int!(parse_i64: i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        p.parse_f64()
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        p.parse_f64().map(|v| v as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        p.parse_bool()
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        let s = p.parse_str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(p.error("expected a single character")),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        p.parse_str().map(Cow::into_owned)
    }
}

impl<'de> Deserialize<'de> for PathBuf {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        p.parse_str().map(|s| PathBuf::from(s.into_owned()))
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        if p.parse_null()? {
            Ok(())
        } else {
            Err(p.error("expected null"))
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        if p.parse_null()? {
            Ok(None)
        } else {
            T::deserialize(p).map(Some)
        }
    }

    fn missing_field(_name: &'static str) -> Result<Self> {
        Ok(None)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        T::deserialize(p).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Arc<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        T::deserialize(p).map(Arc::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Rc<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        T::deserialize(p).map(Rc::new)
    }
}

/// Collect the elements of the array at the cursor.
fn collect_seq<'de, T: Deserialize<'de>, C: Default + Extend<T>>(p: &mut Parser<'de>) -> Result<C> {
    let mut out = C::default();
    p.begin_array()?;
    while p.next_element()? {
        out.extend(std::iter::once(T::deserialize(p)?));
    }
    Ok(out)
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        collect_seq::<T, _>(p)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for VecDeque<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        collect_seq::<T, _>(p)
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        collect_seq::<T, _>(p)
    }
}

impl<'de, T: Deserialize<'de> + Eq + Hash, S: BuildHasher + Default> Deserialize<'de>
    for HashSet<T, S>
{
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        collect_seq::<T, _>(p)
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        let v: Vec<T> = Vec::deserialize(p)?;
        v.try_into()
            .map_err(|_| p.error(format_args!("expected an array of {N} elements")))
    }
}

macro_rules! de_tuple {
    ($(($($t:ident),+))+) => {$(
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
                p.begin_array()?;
                let out = ($(
                    {
                        p.expect_element()?;
                        $t::deserialize(p)?
                    },
                )+);
                p.end_array()?;
                Ok(out)
            }
        }
    )+};
}
de_tuple! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// A map key parsed back from its JSON string form.
pub trait DeserializeKey: Sized {
    /// Convert the key text.
    fn from_key(key: Cow<'_, str>) -> Option<Self>;
}

impl DeserializeKey for String {
    fn from_key(key: Cow<'_, str>) -> Option<Self> {
        Some(key.into_owned())
    }
}

macro_rules! key_int {
    ($($t:ty),*) => {$(
        impl DeserializeKey for $t {
            fn from_key(key: Cow<'_, str>) -> Option<Self> {
                key.parse().ok()
            }
        }
    )*};
}
key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn collect_map<'de, K, V, C>(p: &mut Parser<'de>) -> Result<C>
where
    K: DeserializeKey,
    V: Deserialize<'de>,
    C: Default + Extend<(K, V)>,
{
    let mut out = C::default();
    p.begin_object()?;
    while let Some(key) = p.next_key()? {
        let k = K::from_key(key).ok_or_else(|| p.error("invalid map key"))?;
        out.extend(std::iter::once((k, V::deserialize(p)?)));
    }
    Ok(out)
}

impl<'de, K: DeserializeKey + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        collect_map::<K, V, _>(p)
    }
}

impl<'de, K, V, S> Deserialize<'de> for HashMap<K, V, S>
where
    K: DeserializeKey + Eq + Hash,
    V: Deserialize<'de>,
    S: BuildHasher + Default,
{
    fn deserialize(p: &mut Parser<'de>) -> Result<Self> {
        collect_map::<K, V, _>(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse<'a, T: Deserialize<'a>>(s: &'a str) -> Result<T> {
        let mut p = Parser::new(s.as_bytes());
        let v = T::deserialize(&mut p)?;
        p.end()?;
        Ok(v)
    }

    #[test]
    fn scalars_and_containers() {
        assert_eq!(parse::<i64>(" -42 ").unwrap(), -42);
        assert_eq!(parse::<u8>("255").unwrap(), 255);
        assert!(parse::<u8>("256").is_err());
        assert!(parse::<i64>("1.5").is_err());
        assert_eq!(parse::<f64>("1e3").unwrap(), 1000.0);
        assert_eq!(parse::<f64>("7").unwrap(), 7.0);
        assert_eq!(parse::<Option<bool>>("null").unwrap(), None);
        assert_eq!(
            parse::<Vec<(String, u32)>>(r#"[["a",1],["b",2]]"#).unwrap(),
            vec![("a".to_string(), 1), ("b".to_string(), 2)]
        );
        let m: BTreeMap<String, f64> = parse(r#"{"x":1.5,"y":2}"#).unwrap();
        assert_eq!(m["y"], 2.0);
        assert!(parse::<(u8, u8)>("[1]").is_err());
        assert!(parse::<(u8, u8)>("[1,2,3]").is_err());
    }

    #[test]
    fn strings_with_escapes_and_surrogates() {
        assert_eq!(parse::<String>(r#""plain""#).unwrap(), "plain");
        assert_eq!(
            parse::<String>(r#""a\"b\\c\né😀""#).unwrap(),
            "a\"b\\c\n\u{e9}\u{1F600}"
        );
        assert!(parse::<String>(r#""\ud83d""#).is_err());
        assert!(parse::<String>("\"unterminated").is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let mut p = Parser::new(deep.as_bytes());
        assert!(p.skip_value().is_err());
        assert!(parse::<u8>("1 2").is_err());
        assert!(parse::<Vec<u8>>("[1,").is_err());
    }
}
