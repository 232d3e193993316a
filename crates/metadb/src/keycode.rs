//! Order-preserving key encoding for the paged backend.
//!
//! The paged B-tree ([`hedc_store`]) compares raw bytes, so index keys
//! must be encoded such that `memcmp` order equals [`Value`] order.
//! The encoding mirrors `Value::cmp` exactly for values whose numeric
//! component is within ±2⁵³ (where `i64 → f64` is lossless):
//!
//! - A leading **rank tag** reproduces the NULL < BOOL < numeric <
//!   TEXT < BYTES type order.
//! - All three numeric types share one tag and encode as the
//!   sign-flipped IEEE-754 bits of the value widened to `f64`
//!   (monotone under `total_cmp`), followed by an exact `i64`
//!   tie-break so that integers that collide after widening still
//!   order exactly. Integral floats canonicalise to the *same* bytes
//!   as the equal integer, because `Value::cmp` calls
//!   `Int(5)`, `Float(5.0)` and `Timestamp(5)` equal and unique-index
//!   probes rely on byte equality.
//! - TEXT and BYTES escape `0x00 → 0x00 0xFF` and terminate with
//!   `0x00 0x00`, which keeps components prefix-free so composite keys
//!   concatenate into tuple order.
//!
//! Row payloads use a separate tagged binary codec (`encode_row` /
//! `decode_row`) that round-trips every value exactly, including
//! float bit patterns (NaN, -0.0) that a textual codec would mangle. It is
//! also the row format of the `hedc-net` wire: [`put_row`] appends to a
//! frame under construction and [`try_decode_row`] reads through a checked
//! [`Reader`], so bytes off a socket are an error where bytes out of our
//! own tree are a panic. That row codec is all this module shows outside
//! the crate; the key encoding stays private to the paged backend.

use crate::value::Value;
use std::io;

/// Rank tags, matching `Value::rank`.
const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_NUM: u8 = 0x02;
const TAG_TEXT: u8 = 0x03;
const TAG_BYTES: u8 = 0x04;

/// Append the order-preserving encoding of one value.
pub(crate) fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) | Value::Timestamp(i) => encode_numeric(out, *i as f64, *i),
        Value::Float(f) => {
            // Canonicalise integral floats onto the integer encoding so
            // that byte equality matches `Value`'s cross-type equality.
            let tie = if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                let i = *f as i64;
                if i as f64 == *f {
                    i
                } else {
                    0
                }
            } else {
                0
            };
            encode_numeric(out, *f, tie);
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            encode_escaped(out, s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            encode_escaped(out, b);
        }
    }
}

/// Encode a composite key (one encoded component per column, in order).
pub(crate) fn encode_key(vals: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 10);
    for v in vals {
        encode_value(&mut out, v);
    }
    out
}

/// Encode an index entry key: composite key bytes plus a big-endian row
/// id suffix, so duplicate keys stay distinct in the tree and scans
/// yield ids in (key, id) order.
pub(crate) fn encode_index_entry(vals: &[Value], id: u64) -> Vec<u8> {
    let mut out = encode_key(vals);
    out.extend_from_slice(&id.to_be_bytes());
    out
}

/// Recover the row id from an index entry produced by
/// [`encode_index_entry`].
pub(crate) fn decode_index_entry_id(key: &[u8]) -> u64 {
    let n = key.len();
    debug_assert!(n >= 8, "index entry too short");
    let mut id = [0u8; 8];
    id.copy_from_slice(&key[n - 8..]);
    u64::from_be_bytes(id)
}

/// Smallest byte string strictly greater than every extension of
/// `prefix`, or `None` when the prefix is all `0xFF` (no upper bound).
pub(crate) fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

fn encode_numeric(out: &mut Vec<u8>, widened: f64, exact: i64) {
    out.push(TAG_NUM);
    // `total_cmp` order: flip the sign bit for positives, all bits for
    // negatives, then compare as unsigned big-endian.
    let bits = widened.to_bits();
    let mono = if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    };
    out.extend_from_slice(&mono.to_be_bytes());
    // Bias the exact integer so it also compares as unsigned bytes.
    out.extend_from_slice(&((exact as u64) ^ (1 << 63)).to_be_bytes());
}

fn encode_escaped(out: &mut Vec<u8>, bytes: &[u8]) {
    for &b in bytes {
        out.push(b);
        if b == 0x00 {
            out.push(0xFF);
        }
    }
    out.extend_from_slice(&[0x00, 0x00]);
}

// ---------------------------------------------------------------------
// Row payload codec (exact round-trip; ordering irrelevant).
// ---------------------------------------------------------------------

const ROW_NULL: u8 = 0;
const ROW_INT: u8 = 1;
const ROW_FLOAT: u8 = 2;
const ROW_TEXT: u8 = 3;
const ROW_BOOL: u8 = 4;
const ROW_TS: u8 = 5;
const ROW_BYTES: u8 = 6;

/// Encode a full row for storage as a tree value.
pub(crate) fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + row.len() * 9);
    put_row(&mut out, row);
    out
}

/// Append a row — a `u32` little-endian value count, then each value by
/// [`put_value`] — to `out`. The same bytes serve as a tree value and as a
/// result row on the `hedc-net` wire.
pub fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        put_value(out, v);
    }
}

/// Append one tagged value: a tag byte, then eight little-endian bytes for
/// `Int`/`Timestamp`/`Float` (floats as their bit pattern), one byte for
/// `Bool`, a `u32` length and the bytes for `Text`/`Bytes`.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(ROW_NULL),
        Value::Int(i) => {
            out.push(ROW_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(ROW_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(ROW_TEXT);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            out.push(ROW_BOOL);
            out.push(u8::from(*b));
        }
        Value::Timestamp(t) => {
            out.push(ROW_TS);
            out.extend_from_slice(&t.to_le_bytes());
        }
        Value::Bytes(b) => {
            out.push(ROW_BYTES);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
    }
}

/// The most [`Reader::repeat`] reserves on the word of a count alone: room
/// for 2 048 values or 340 requests, so the messages the system sends
/// itself still decode into vectors allocated once.
const MAX_RESERVE_BYTES: usize = 64 * 1024;

/// A cursor over bytes that may be damaged or hostile. Every read is one
/// [`Reader::take`], checked against what is left, so no length found in
/// the input is believed before the bytes behind it are seen to exist.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

#[cold]
fn short(want: usize, have: usize) -> io::Error {
    invalid(format!("truncated: {want} bytes wanted, {have} left"))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { rest: buf }
    }

    /// The next `n` bytes, or `InvalidData` when fewer are left.
    #[inline]
    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(short(n, self.rest.len()));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> io::Result<u8> {
        let [byte] = self.array()?;
        Ok(byte)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32` element count, refused when it exceeds the bytes left (every
    /// element is at least one byte). That bounds the *count*, not the
    /// memory behind it — a one-byte element may be a 32-byte [`Value`] or a
    /// message several times that — so never reserve for it directly: read
    /// the elements with [`Reader::repeat`].
    pub fn count(&mut self) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n > self.rest.len() {
            return Err(short(n, self.rest.len()));
        }
        Ok(n)
    }

    /// `n` elements, each read by `get`. At most 64 KiB are reserved before
    /// the first element is read; past that the vector grows as elements
    /// actually arrive, so what a decode holds follows the bytes it has
    /// consumed and never a count it was merely told.
    pub fn repeat<T>(
        &mut self,
        n: usize,
        mut get: impl FnMut(&mut Reader<'a>) -> io::Result<T>,
    ) -> io::Result<Vec<T>> {
        let fits = MAX_RESERVE_BYTES / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// A `u32` length and that many bytes.
    #[inline]
    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A `u32` length and that many bytes of valid UTF-8.
    pub fn text(&mut self) -> io::Result<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|e| invalid(format!("text is not UTF-8: {e}")))
    }

    /// `Ok` only at the end of the input: trailing bytes are refused.
    pub fn finish(&self) -> io::Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(invalid(format!("{} trailing bytes", self.rest.len())))
        }
    }
}

/// Read one row written by [`put_row`], checking every length against the
/// bytes that are there.
pub fn try_decode_row(r: &mut Reader<'_>) -> io::Result<Vec<Value>> {
    let n = r.count()?;
    r.repeat(n, try_decode_value)
}

/// Read one value written by [`put_value`].
#[inline]
pub fn try_decode_value(r: &mut Reader<'_>) -> io::Result<Value> {
    Ok(match r.u8()? {
        ROW_NULL => Value::Null,
        ROW_INT => Value::Int(r.u64()? as i64),
        ROW_FLOAT => Value::Float(f64::from_bits(r.u64()?)),
        ROW_TEXT => Value::Text(r.text()?.to_string()),
        ROW_BOOL => Value::Bool(r.u8()? != 0),
        ROW_TS => Value::Timestamp(r.u64()? as i64),
        ROW_BYTES => Value::Bytes(r.bytes()?.to_vec()),
        other => return Err(invalid(format!("unknown value tag {other}"))),
    })
}

/// Decode a row previously produced by [`encode_row`]. Panics on
/// malformed input: row payloads only ever come from our own trees, so
/// corruption here is a logic error, not an expected condition.
pub(crate) fn decode_row(buf: &[u8]) -> Vec<Value> {
    try_decode_row(&mut Reader::new(buf)).expect("row payload read back from our own tree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedc_obs::{Seed, Stream};
    use std::cmp::Ordering;

    const SEED: u64 = 0x0570_BEE7;

    /// Random value whose numeric part stays within ±2^53, where the
    /// encoding is exactly faithful to `Value::cmp`.
    fn arb_value(state: &mut Stream) -> Value {
        match state.below(8) {
            0 => Value::Null,
            1 => Value::Bool(state.below(2) == 1),
            2 => Value::Int(state.below(1 << 53) as i64 - (1 << 52)),
            3 => Value::Timestamp(state.below(1 << 53) as i64 - (1 << 52)),
            4 => {
                let i = state.below(2000) as i64 - 1000;
                if state.below(2) == 1 {
                    Value::Float(i as f64) // integral float: canonical case
                } else {
                    Value::Float(i as f64 + 0.5)
                }
            }
            5 => {
                let n = state.below(12) as usize;
                let s: String = (0..n)
                    .map(|_| char::from(b'a' + state.below(26) as u8))
                    .collect();
                Value::Text(s)
            }
            6 => {
                // Text with embedded NULs to exercise the escape.
                let n = state.below(6) as usize;
                let s: String = (0..n)
                    .map(|_| if state.below(2) == 1 { '\0' } else { 'x' })
                    .collect();
                Value::Text(s)
            }
            _ => {
                let n = state.below(8) as usize;
                Value::Bytes((0..n).map(|_| state.below(256) as u8).collect())
            }
        }
    }

    #[test]
    fn single_value_order_matches_value_cmp() {
        let mut state = Seed::from_env(SEED).stream("single");
        for _ in 0..4000 {
            let a = arb_value(&mut state);
            let b = arb_value(&mut state);
            let ea = encode_key(std::slice::from_ref(&a));
            let eb = encode_key(std::slice::from_ref(&b));
            assert_eq!(
                ea.cmp(&eb),
                a.cmp(&b),
                "keycode order diverges: {a:?} vs {b:?} ({ea:02x?} vs {eb:02x?})"
            );
        }
    }

    #[test]
    fn composite_key_order_matches_tuple_cmp() {
        let mut state = Seed::from_env(SEED).stream("composite");
        for _ in 0..2000 {
            let n = 1 + state.below(3) as usize;
            let a: Vec<Value> = (0..n).map(|_| arb_value(&mut state)).collect();
            let b: Vec<Value> = (0..n).map(|_| arb_value(&mut state)).collect();
            assert_eq!(
                encode_key(&a).cmp(&encode_key(&b)),
                a.cmp(&b),
                "composite keycode diverges: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn cross_type_numeric_equality_is_byte_equality() {
        for i in [-7i64, 0, 5, 1 << 40] {
            let int = encode_key(&[Value::Int(i)]);
            let ts = encode_key(&[Value::Timestamp(i)]);
            let fl = encode_key(&[Value::Float(i as f64)]);
            assert_eq!(int, ts);
            assert_eq!(int, fl);
        }
        // Negative zero sorts below positive zero (total_cmp order),
        // exactly as the in-memory comparator does.
        let nz = encode_key(&[Value::Float(-0.0)]);
        let z = encode_key(&[Value::Int(0)]);
        assert!(nz < z);
        assert_eq!(
            Value::Float(-0.0).cmp(&Value::Int(0)),
            Ordering::Less,
            "keycode must agree with Value::cmp on -0.0"
        );
    }

    #[test]
    fn prefix_successor_bounds_prefix_scans() {
        assert_eq!(prefix_successor(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_successor(&[0x61, 0xFF]), Some(vec![0x62]));
        assert_eq!(prefix_successor(&[0xFF, 0xFF]), None);
        // Every extension of the prefix is below the successor.
        let p = encode_key(&[Value::Int(5)]);
        let succ = prefix_successor(&p).unwrap();
        let ext = encode_index_entry(&[Value::Int(5), Value::Text("zzz".into())], u64::MAX);
        assert!(p < ext && ext < succ);
    }

    #[test]
    fn row_codec_round_trips_exactly() {
        let rows = vec![
            vec![],
            vec![Value::Null, Value::Bool(true), Value::Bool(false)],
            vec![
                Value::Int(i64::MIN),
                Value::Int(i64::MAX),
                Value::Timestamp(-1),
            ],
            vec![
                Value::Float(f64::NAN),
                Value::Float(-0.0),
                Value::Float(1e300),
            ],
            vec![Value::Text("".into()), Value::Text("héllo\0world".into())],
            vec![Value::Bytes(vec![]), Value::Bytes((0..=255).collect())],
        ];
        for row in rows {
            let enc = encode_row(&row);
            let dec = decode_row(&enc);
            assert_eq!(dec.len(), row.len());
            for (a, b) in row.iter().zip(&dec) {
                // Compare bit patterns, not Value::eq, so NaN and -0.0
                // round-trips are actually checked.
                match (a, b) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    _ => assert_eq!(a, b),
                }
            }
            // The checked reader consumes the row exactly, and a row cut
            // short anywhere is an error, never a panic or a short row.
            let mut r = Reader::new(&enc);
            assert_eq!(try_decode_row(&mut r).unwrap().len(), row.len());
            r.finish().unwrap();
            for cut in 0..enc.len() {
                let err = try_decode_row(&mut Reader::new(&enc[..cut])).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
            }
        }
    }

    #[test]
    fn checked_reader_refuses_what_the_bytes_do_not_back() {
        // A count larger than the bytes behind it is refused before
        // anything is reserved for it.
        let mut claims_many = u32::MAX.to_le_bytes().to_vec();
        claims_many.push(ROW_NULL);
        assert!(try_decode_row(&mut Reader::new(&claims_many)).is_err());
        // Text must be UTF-8, a tag must be known.
        let bad_text = [1, 0, 0, 0, ROW_TEXT, 2, 0, 0, 0, 0xC3, 0x28];
        assert!(try_decode_row(&mut Reader::new(&bad_text)).is_err());
        assert!(try_decode_row(&mut Reader::new(&[1, 0, 0, 0, 99])).is_err());
        // Trailing bytes are the caller's to refuse.
        let mut r = Reader::new(&[0, 0, 0, 0, 7]);
        assert!(try_decode_row(&mut r).unwrap().is_empty());
        assert!(r.finish().is_err());
    }
}
