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
//! Row payloads use a separate tagged binary codec ([`encode_row`] /
//! [`decode_row`]) that round-trips every value exactly, including
//! float bit patterns (NaN, -0.0) that a textual codec would mangle.

use crate::value::Value;

/// Rank tags, matching `Value::rank`.
const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_NUM: u8 = 0x02;
const TAG_TEXT: u8 = 0x03;
const TAG_BYTES: u8 = 0x04;

/// Append the order-preserving encoding of one value.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
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
pub fn encode_key(vals: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 10);
    for v in vals {
        encode_value(&mut out, v);
    }
    out
}

/// Encode an index entry key: composite key bytes plus a big-endian row
/// id suffix, so duplicate keys stay distinct in the tree and scans
/// yield ids in (key, id) order.
pub fn encode_index_entry(vals: &[Value], id: u64) -> Vec<u8> {
    let mut out = encode_key(vals);
    out.extend_from_slice(&id.to_be_bytes());
    out
}

/// Recover the row id from an index entry produced by
/// [`encode_index_entry`].
pub fn decode_index_entry_id(key: &[u8]) -> u64 {
    let n = key.len();
    debug_assert!(n >= 8, "index entry too short");
    let mut id = [0u8; 8];
    id.copy_from_slice(&key[n - 8..]);
    u64::from_be_bytes(id)
}

/// Smallest byte string strictly greater than every extension of
/// `prefix`, or `None` when the prefix is all `0xFF` (no upper bound).
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
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
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + row.len() * 9);
    out.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
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
    out
}

/// Decode a row previously produced by [`encode_row`]. Panics on
/// malformed input: row payloads only ever come from our own trees, so
/// corruption here is a logic error, not an expected condition.
pub fn decode_row(buf: &[u8]) -> Vec<Value> {
    let mut p = 0usize;
    let n = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    p += 4;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = buf[p];
        p += 1;
        row.push(match tag {
            ROW_NULL => Value::Null,
            ROW_INT => {
                let v = i64::from_le_bytes(buf[p..p + 8].try_into().unwrap());
                p += 8;
                Value::Int(v)
            }
            ROW_FLOAT => {
                let v = u64::from_le_bytes(buf[p..p + 8].try_into().unwrap());
                p += 8;
                Value::Float(f64::from_bits(v))
            }
            ROW_TEXT => {
                let len = u32::from_le_bytes(buf[p..p + 4].try_into().unwrap()) as usize;
                p += 4;
                let s = std::str::from_utf8(&buf[p..p + len]).expect("utf8 row text");
                p += len;
                Value::Text(s.to_string())
            }
            ROW_BOOL => {
                let v = buf[p] != 0;
                p += 1;
                Value::Bool(v)
            }
            ROW_TS => {
                let v = i64::from_le_bytes(buf[p..p + 8].try_into().unwrap());
                p += 8;
                Value::Timestamp(v)
            }
            ROW_BYTES => {
                let len = u32::from_le_bytes(buf[p..p + 4].try_into().unwrap()) as usize;
                p += 4;
                let b = buf[p..p + len].to_vec();
                p += len;
                Value::Bytes(b)
            }
            other => panic!("corrupt row tag {other}"),
        });
    }
    row
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
        }
    }
}
