//! The binary layout of everything a proto message carries.
//!
//! One rule per shape, no negotiation:
//!
//! * an integer is fixed-width little-endian (`u32`, `u64`; `i64` and
//!   `usize` travel as `u64`, a float as its bit pattern, a `bool` field
//!   as one byte that must be 0 or 1);
//! * text is a `u32` length and that many bytes of UTF-8;
//! * a sequence is a `u32` count and its elements; an `Option` is a 0/1
//!   byte and, after a 1, the value;
//! * an enum is one tag byte (tags start at 1, so neither zeroed memory
//!   nor JSON text is a message) and its fields in declaration order;
//! * a struct is its fields in declaration order;
//! * a [`Value`] and a result row are written by `hedc_metadb::keycode` —
//!   the bytes a row has in the paged store are the bytes it has here.
//!
//! [`Put`] writes, [`Wire`] also reads. Every struct is taken apart by an
//! exhaustive pattern and rebuilt by a struct literal, so a field added
//! later fails to compile here instead of silently staying behind. Reads go
//! through [`Reader`], whose one `take` checks every length against what is
//! left of the payload: a count larger than the bytes behind it is refused,
//! one that passes reserves at most 64 KiB ahead of the elements actually
//! read ([`Reader::repeat`]), text is validated, and expression nesting is
//! bounded. What a payload decodes into is therefore bounded by its own
//! size — at worst a frame of one-byte `Null`s as 32-byte [`Value`]s — and
//! never by a number it merely states.

use hedc_dm::{NameType, ResolvedName, ShardMap, ShardScheme, TableSharding};
use hedc_metadb::keycode::{self, Reader};
use hedc_metadb::{
    AccessPath, AggFunc, ArithOp, CmpOp, ExecStats, Expr, OrderDir, Projection, Query, QueryResult,
    Value,
};
use std::collections::BTreeMap;
use std::io;

/// How deep an [`Expr`] may nest on the wire — what the JSON decoder of v2
/// allowed. Decoding recurses once per level, so the bound is what keeps a
/// hostile payload off the end of the stack.
const MAX_EXPR_DEPTH: u32 = 128;

/// Something that can be written into a frame. Implemented by the message
/// types and by the borrowed views a client sends without first cloning
/// into an owned message.
pub trait Put {
    /// Append the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// A cheap guess at the encoded size: what a sender reserves so that
    /// writing the message grows its buffer at most once.
    fn size_hint(&self) -> usize {
        128
    }
}

/// Something that crosses the wire both ways.
pub trait Wire: Put + Sized {
    /// Read one `Self` from the front of `r`.
    fn get(r: &mut Reader<'_>) -> io::Result<Self>;
}

pub(crate) fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The error for a tag byte no variant of `what` has.
pub(crate) fn unknown_tag(what: &str, tag: u8) -> io::Error {
    invalid(format!("unknown {what} tag {tag}"))
}

/// Write a slice as a counted sequence.
pub(crate) fn put_seq<T: Put>(out: &mut Vec<u8>, items: &[T]) {
    (items.len() as u32).put(out);
    for item in items {
        item.put(out);
    }
}

/// Read a counted sequence, each element by `get`.
pub(crate) fn get_seq<'a, T>(
    r: &mut Reader<'a>,
    get: impl FnMut(&mut Reader<'a>) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let n = r.count()?;
    r.repeat(n, get)
}

// ---------------------------------------------------------------------------
// Scalars, text, containers
// ---------------------------------------------------------------------------

impl Put for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Wire for u32 {
    fn get(r: &mut Reader<'_>) -> io::Result<u32> {
        r.u32()
    }
}

impl Put for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Wire for u64 {
    fn get(r: &mut Reader<'_>) -> io::Result<u64> {
        r.u64()
    }
}

impl Put for i64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Wire for i64 {
    fn get(r: &mut Reader<'_>) -> io::Result<i64> {
        Ok(r.u64()? as i64)
    }
}

impl Put for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
}

impl Wire for usize {
    fn get(r: &mut Reader<'_>) -> io::Result<usize> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| invalid(format!("{v} does not fit this host's usize")))
    }
}

impl Put for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Wire for bool {
    fn get(r: &mut Reader<'_>) -> io::Result<bool> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(invalid(format!("{other} is not a bool"))),
        }
    }
}

impl Put for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Wire for String {
    fn get(r: &mut Reader<'_>) -> io::Result<String> {
        Ok(r.text()?.to_string())
    }
}

impl<T: Put> Put for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn get(r: &mut Reader<'_>) -> io::Result<Vec<T>> {
        get_seq(r, T::get)
    }
}

impl<T: Put> Put for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn get(r: &mut Reader<'_>) -> io::Result<Option<T>> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

impl<A: Put, B: Put> Put for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn get(r: &mut Reader<'_>) -> io::Result<(A, B)> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A field-less enum as its tag byte: `$ty { $variant = $tag, .. }`.
macro_rules! tag_enum {
    ($ty:ty, $what:literal, { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl Put for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self { $(<$ty>::$variant => $tag),+ });
            }
        }

        impl Wire for $ty {
            fn get(r: &mut Reader<'_>) -> io::Result<$ty> {
                match r.u8()? {
                    $($tag => Ok(<$ty>::$variant),)+
                    other => Err(unknown_tag($what, other)),
                }
            }
        }
    };
}

tag_enum!(OrderDir, "sort direction", { Asc = 1, Desc = 2 });
tag_enum!(CmpOp, "comparison", { Eq = 1, Ne = 2, Lt = 3, Le = 4, Gt = 5, Ge = 6 });
tag_enum!(ArithOp, "arithmetic operator", { Add = 1, Sub = 2, Mul = 3, Div = 4 });
tag_enum!(NameType, "name type", { File = 1, Tuple = 2, Url = 3 });

// ---------------------------------------------------------------------------
// hedc-metadb: values, expressions, queries, results
// ---------------------------------------------------------------------------

impl Put for Value {
    fn put(&self, out: &mut Vec<u8>) {
        keycode::put_value(out, self);
    }
}

impl Wire for Value {
    fn get(r: &mut Reader<'_>) -> io::Result<Value> {
        keycode::try_decode_value(r)
    }
}

impl Put for Expr {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Expr::Literal(v) => {
                out.push(1);
                v.put(out);
            }
            Expr::Name(name) => {
                out.push(2);
                name.put(out);
            }
            Expr::Col(pos) => {
                out.push(3);
                pos.put(out);
            }
            Expr::Cmp(op, l, r) => {
                out.push(4);
                op.put(out);
                l.put(out);
                r.put(out);
            }
            Expr::And(l, r) => {
                out.push(5);
                l.put(out);
                r.put(out);
            }
            Expr::Or(l, r) => {
                out.push(6);
                l.put(out);
                r.put(out);
            }
            Expr::Not(e) => {
                out.push(7);
                e.put(out);
            }
            Expr::IsNull { expr, negated } => {
                out.push(8);
                expr.put(out);
                negated.put(out);
            }
            Expr::Between { expr, lo, hi } => {
                out.push(9);
                expr.put(out);
                lo.put(out);
                hi.put(out);
            }
            Expr::InList { expr, list } => {
                out.push(10);
                expr.put(out);
                list.put(out);
            }
            Expr::Like { expr, pattern } => {
                out.push(11);
                expr.put(out);
                pattern.put(out);
            }
            Expr::Arith(op, l, r) => {
                out.push(12);
                op.put(out);
                l.put(out);
                r.put(out);
            }
        }
    }
}

/// One expression, `depth` levels below the root of its tree.
fn get_expr(r: &mut Reader<'_>, depth: u32) -> io::Result<Expr> {
    if depth >= MAX_EXPR_DEPTH {
        return Err(invalid(format!(
            "expression nests deeper than {MAX_EXPR_DEPTH}"
        )));
    }
    let sub = |r: &mut Reader<'_>| get_expr(r, depth + 1).map(Box::new);
    Ok(match r.u8()? {
        1 => Expr::Literal(Value::get(r)?),
        2 => Expr::Name(String::get(r)?),
        3 => Expr::Col(usize::get(r)?),
        4 => Expr::Cmp(CmpOp::get(r)?, sub(r)?, sub(r)?),
        5 => Expr::And(sub(r)?, sub(r)?),
        6 => Expr::Or(sub(r)?, sub(r)?),
        7 => Expr::Not(sub(r)?),
        8 => Expr::IsNull {
            expr: sub(r)?,
            negated: bool::get(r)?,
        },
        9 => Expr::Between {
            expr: sub(r)?,
            lo: sub(r)?,
            hi: sub(r)?,
        },
        10 => Expr::InList {
            expr: sub(r)?,
            list: get_seq(r, |r| get_expr(r, depth + 1))?,
        },
        11 => Expr::Like {
            expr: sub(r)?,
            pattern: String::get(r)?,
        },
        12 => Expr::Arith(ArithOp::get(r)?, sub(r)?, sub(r)?),
        other => return Err(unknown_tag("expression", other)),
    })
}

impl Wire for Expr {
    fn get(r: &mut Reader<'_>) -> io::Result<Expr> {
        get_expr(r, 0)
    }
}

impl<T: Put + ?Sized> Put for Box<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
}

impl Put for Projection {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Projection::All => out.push(1),
            Projection::Columns(cols) => {
                out.push(2);
                cols.put(out);
            }
        }
    }
}

impl Wire for Projection {
    fn get(r: &mut Reader<'_>) -> io::Result<Projection> {
        match r.u8()? {
            1 => Ok(Projection::All),
            2 => Ok(Projection::Columns(Wire::get(r)?)),
            other => Err(unknown_tag("projection", other)),
        }
    }
}

impl Put for AggFunc {
    fn put(&self, out: &mut Vec<u8>) {
        let (tag, column) = match self {
            AggFunc::CountStar => return out.push(1),
            AggFunc::Count(c) => (2, c),
            AggFunc::Sum(c) => (3, c),
            AggFunc::Avg(c) => (4, c),
            AggFunc::Min(c) => (5, c),
            AggFunc::Max(c) => (6, c),
        };
        out.push(tag);
        column.put(out);
    }
}

impl Wire for AggFunc {
    fn get(r: &mut Reader<'_>) -> io::Result<AggFunc> {
        let of = match r.u8()? {
            1 => return Ok(AggFunc::CountStar),
            2 => AggFunc::Count,
            3 => AggFunc::Sum,
            4 => AggFunc::Avg,
            5 => AggFunc::Min,
            6 => AggFunc::Max,
            other => return Err(unknown_tag("aggregate", other)),
        };
        Ok(of(String::get(r)?))
    }
}

impl Put for Query {
    fn put(&self, out: &mut Vec<u8>) {
        let Query {
            table,
            projection,
            filter,
            order_by,
            limit,
            offset,
            aggregates,
            group_by,
        } = self;
        table.put(out);
        projection.put(out);
        filter.put(out);
        order_by.put(out);
        limit.put(out);
        offset.put(out);
        aggregates.put(out);
        group_by.put(out);
    }
}

impl Wire for Query {
    fn get(r: &mut Reader<'_>) -> io::Result<Query> {
        Ok(Query {
            table: Wire::get(r)?,
            projection: Wire::get(r)?,
            filter: Wire::get(r)?,
            order_by: Wire::get(r)?,
            limit: Wire::get(r)?,
            offset: Wire::get(r)?,
            aggregates: Wire::get(r)?,
            group_by: Wire::get(r)?,
        })
    }
}

impl Put for AccessPath {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            AccessPath::FullScan => out.push(1),
            AccessPath::Index { name, point } => {
                out.push(2);
                name.put(out);
                point.put(out);
            }
            AccessPath::IndexMultiPoint { name, probes } => {
                out.push(3);
                name.put(out);
                probes.put(out);
            }
        }
    }
}

impl Wire for AccessPath {
    fn get(r: &mut Reader<'_>) -> io::Result<AccessPath> {
        Ok(match r.u8()? {
            1 => AccessPath::FullScan,
            2 => AccessPath::Index {
                name: Wire::get(r)?,
                point: Wire::get(r)?,
            },
            3 => AccessPath::IndexMultiPoint {
                name: Wire::get(r)?,
                probes: Wire::get(r)?,
            },
            other => return Err(unknown_tag("access path", other)),
        })
    }
}

impl Put for ExecStats {
    fn put(&self, out: &mut Vec<u8>) {
        let ExecStats {
            rows_scanned,
            rows_returned,
            rows_sorted,
            access,
        } = self;
        rows_scanned.put(out);
        rows_returned.put(out);
        rows_sorted.put(out);
        access.put(out);
    }
}

impl Wire for ExecStats {
    fn get(r: &mut Reader<'_>) -> io::Result<ExecStats> {
        Ok(ExecStats {
            rows_scanned: Wire::get(r)?,
            rows_returned: Wire::get(r)?,
            rows_sorted: Wire::get(r)?,
            access: Wire::get(r)?,
        })
    }
}

impl Put for QueryResult {
    fn put(&self, out: &mut Vec<u8>) {
        let QueryResult {
            columns,
            rows,
            stats,
        } = self;
        columns.put(out);
        (rows.len() as u32).put(out);
        for row in rows {
            keycode::put_row(out, row);
        }
        stats.put(out);
    }

    /// Exact for a result of fixed-width values; text and LOB bytes come
    /// on top.
    fn size_hint(&self) -> usize {
        let width = self.columns.len();
        64 + 16 * width + self.rows.len() * (4 + 9 * width)
    }
}

impl Wire for QueryResult {
    fn get(r: &mut Reader<'_>) -> io::Result<QueryResult> {
        Ok(QueryResult {
            columns: Wire::get(r)?,
            rows: get_seq(r, keycode::try_decode_row)?,
            stats: Wire::get(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// hedc-dm: resolved names, the shard map
// ---------------------------------------------------------------------------

impl Put for ResolvedName {
    fn put(&self, out: &mut Vec<u8>) {
        let ResolvedName {
            entry_id,
            name_type,
            archive_id,
            archive_path,
            entry_path,
            full_name,
            url,
            size,
            role,
            transforms,
        } = self;
        entry_id.put(out);
        name_type.put(out);
        archive_id.put(out);
        archive_path.put(out);
        entry_path.put(out);
        full_name.put(out);
        url.put(out);
        size.put(out);
        role.put(out);
        transforms.put(out);
    }
}

impl Wire for ResolvedName {
    fn get(r: &mut Reader<'_>) -> io::Result<ResolvedName> {
        Ok(ResolvedName {
            entry_id: Wire::get(r)?,
            name_type: Wire::get(r)?,
            archive_id: Wire::get(r)?,
            archive_path: Wire::get(r)?,
            entry_path: Wire::get(r)?,
            full_name: Wire::get(r)?,
            url: Wire::get(r)?,
            size: Wire::get(r)?,
            role: Wire::get(r)?,
            transforms: Wire::get(r)?,
        })
    }
}

impl Put for ShardScheme {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ShardScheme::Hash { slots } => {
                out.push(1);
                slots.put(out);
            }
            ShardScheme::Range { cuts, assign } => {
                out.push(2);
                cuts.put(out);
                assign.put(out);
            }
        }
    }
}

impl Wire for ShardScheme {
    /// Refuses the shapes routing would index out of: a hash scheme with no
    /// slot, a range scheme whose assignment does not cover its intervals.
    fn get(r: &mut Reader<'_>) -> io::Result<ShardScheme> {
        match r.u8()? {
            1 => {
                let slots: Vec<u32> = Wire::get(r)?;
                if slots.is_empty() {
                    return Err(invalid("hash scheme without slots"));
                }
                Ok(ShardScheme::Hash { slots })
            }
            2 => {
                let cuts: Vec<i64> = Wire::get(r)?;
                let assign: Vec<u32> = Wire::get(r)?;
                if assign.len() != cuts.len() + 1 {
                    return Err(invalid(format!(
                        "range scheme assigns {} intervals, its {} cuts make {}",
                        assign.len(),
                        cuts.len(),
                        cuts.len() + 1
                    )));
                }
                Ok(ShardScheme::Range { cuts, assign })
            }
            other => Err(unknown_tag("shard scheme", other)),
        }
    }
}

impl Put for TableSharding {
    fn put(&self, out: &mut Vec<u8>) {
        let TableSharding { column, scheme } = self;
        column.put(out);
        scheme.put(out);
    }
}

impl Wire for TableSharding {
    fn get(r: &mut Reader<'_>) -> io::Result<TableSharding> {
        Ok(TableSharding {
            column: Wire::get(r)?,
            scheme: Wire::get(r)?,
        })
    }
}

impl Put for ShardMap {
    fn put(&self, out: &mut Vec<u8>) {
        let ShardMap {
            epoch,
            shards,
            tables,
        } = self;
        epoch.put(out);
        shards.put(out);
        (tables.len() as u32).put(out);
        for (table, sharding) in tables {
            table.put(out);
            sharding.put(out);
        }
    }
}

impl Wire for ShardMap {
    /// Refuses a map that names a shard it does not have: a router indexes
    /// its replica sets by what the map assigns.
    fn get(r: &mut Reader<'_>) -> io::Result<ShardMap> {
        let epoch = Wire::get(r)?;
        let shards: u32 = Wire::get(r)?;
        let mut tables = BTreeMap::new();
        for _ in 0..r.count()? {
            let (table, sharding): (String, TableSharding) = Wire::get(r)?;
            let (ShardScheme::Hash { slots: assigned }
            | ShardScheme::Range {
                assign: assigned, ..
            }) = &sharding.scheme;
            if let Some(beyond) = assigned.iter().find(|&&shard| shard >= shards) {
                return Err(invalid(format!(
                    "`{table}` is assigned to shard {beyond} of {shards}"
                )));
            }
            tables.insert(table, sharding);
        }
        Ok(ShardMap {
            epoch,
            shards,
            tables,
        })
    }
}
