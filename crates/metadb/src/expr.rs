//! Predicate and scalar expressions.
//!
//! The DM layer builds query *objects* rather than SQL strings (§5.4); those
//! objects compile down to these expressions. The SQL parser produces the
//! same representation, so both entry points share one executor.

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::value::Value;
use std::ops::Bound;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Arithmetic operators (numeric only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// An expression tree over one row.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column referenced by name; resolved by [`Expr::bind`].
    Name(String),
    /// A column resolved to its position in the row.
    Col(usize),
    /// Binary comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// `IS NULL` (negated = `IS NOT NULL`).
    IsNull { expr: Box<Expr>, negated: bool },
    /// `x BETWEEN lo AND hi` (inclusive both ends).
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
    },
    /// `x IN (a, b, c)`.
    InList { expr: Box<Expr>, list: Vec<Expr> },
    /// SQL `LIKE` with `%` and `_` wildcards.
    Like { expr: Box<Expr>, pattern: String },
    /// Numeric arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience: `column op literal`.
    pub fn cmp(col: impl Into<String>, op: CmpOp, v: impl Into<Value>) -> Expr {
        Expr::Cmp(
            op,
            Box::new(Expr::Name(col.into())),
            Box::new(Expr::Literal(v.into())),
        )
    }

    /// Convenience: `column = literal`.
    pub fn eq(col: impl Into<String>, v: impl Into<Value>) -> Expr {
        Expr::cmp(col, CmpOp::Eq, v)
    }

    /// Convenience: `column BETWEEN lo AND hi`.
    pub fn between(col: impl Into<String>, lo: impl Into<Value>, hi: impl Into<Value>) -> Expr {
        Expr::Between {
            expr: Box::new(Expr::Name(col.into())),
            lo: Box::new(Expr::Literal(lo.into())),
            hi: Box::new(Expr::Literal(hi.into())),
        }
    }

    /// Convenience: `column IN (v1, v2, ...)`.
    pub fn in_list<V: Into<Value>>(
        col: impl Into<String>,
        vals: impl IntoIterator<Item = V>,
    ) -> Expr {
        Expr::InList {
            expr: Box::new(Expr::Name(col.into())),
            list: vals.into_iter().map(|v| Expr::Literal(v.into())).collect(),
        }
    }

    /// Conjunction that consumes self.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction that consumes self.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// A copy with every `Name` node resolved to its `Col` position in
    /// `schema`. Built from a borrow, so binding a caller's filter costs one
    /// allocation per interior node and none for the column names.
    pub fn bind(&self, schema: &Schema) -> DbResult<Expr> {
        let sub = |e: &Expr| e.bind(schema).map(Box::new);
        Ok(match self {
            Expr::Name(n) => Expr::Col(schema.require_column(n)?),
            Expr::Literal(_) | Expr::Col(_) => self.clone(),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, sub(a)?, sub(b)?),
            Expr::And(a, b) => Expr::And(sub(a)?, sub(b)?),
            Expr::Or(a, b) => Expr::Or(sub(a)?, sub(b)?),
            Expr::Not(a) => Expr::Not(sub(a)?),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: sub(expr)?,
                negated: *negated,
            },
            Expr::Between { expr, lo, hi } => Expr::Between {
                expr: sub(expr)?,
                lo: sub(lo)?,
                hi: sub(hi)?,
            },
            Expr::InList { expr, list } => Expr::InList {
                expr: sub(expr)?,
                list: list
                    .iter()
                    .map(|e| e.bind(schema))
                    .collect::<DbResult<_>>()?,
            },
            Expr::Like { expr, pattern } => Expr::Like {
                expr: sub(expr)?,
                pattern: pattern.clone(),
            },
            Expr::Arith(op, a, b) => Expr::Arith(*op, sub(a)?, sub(b)?),
        })
    }

    /// Evaluate to a value. `Name` nodes must have been bound first.
    pub fn eval(&self, row: &[Value]) -> DbResult<Value> {
        Ok(match self {
            Expr::Literal(v) => v.clone(),
            Expr::Name(n) => return Err(DbError::Txn(format!("unbound column reference `{n}`"))),
            Expr::Col(i) => row.get(*i).cloned().ok_or(DbError::NoSuchRow(*i as u64))?,
            Expr::Cmp(op, a, b) => {
                let (x, y) = (a.eval(row)?, b.eval(row)?);
                // SQL three-valued logic: a comparison with NULL is UNKNOWN
                // (represented as Value::Null), so that NOT over it stays
                // UNKNOWN instead of flipping to TRUE.
                if x.is_null() || y.is_null() {
                    Value::Null
                } else {
                    let r = match op {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    };
                    Value::Bool(r)
                }
            }
            // Kleene logic: FALSE dominates AND, TRUE dominates OR,
            // UNKNOWN propagates otherwise.
            Expr::And(a, b) => match (a.eval(row)?.as_bool_tvl()?, b.eval(row)?.as_bool_tvl()?) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            },
            Expr::Or(a, b) => match (a.eval(row)?.as_bool_tvl()?, b.eval(row)?.as_bool_tvl()?) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            },
            Expr::Not(a) => match a.eval(row)?.as_bool_tvl()? {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            Expr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Value::Bool(v.is_null() != *negated)
            }
            Expr::Between { expr, lo, hi } => {
                let v = expr.eval(row)?;
                let (l, h) = (lo.eval(row)?, hi.eval(row)?);
                if v.is_null() || l.is_null() || h.is_null() {
                    Value::Null
                } else {
                    Value::Bool(v >= l && v <= h)
                }
            }
            Expr::InList { expr, list } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    Value::Null
                } else {
                    // SQL IN: TRUE on a match; UNKNOWN (not FALSE) when no
                    // match but the list contains NULL.
                    let mut saw_null = false;
                    let mut found = false;
                    for item in list {
                        let iv = item.eval(row)?;
                        if iv.is_null() {
                            saw_null = true;
                        } else if iv == v {
                            found = true;
                            break;
                        }
                    }
                    if found {
                        Value::Bool(true)
                    } else if saw_null {
                        Value::Null
                    } else {
                        Value::Bool(false)
                    }
                }
            }
            Expr::Like { expr, pattern } => {
                let v = expr.eval(row)?;
                match v {
                    Value::Text(s) => Value::Bool(like_match(pattern, &s)),
                    Value::Null => Value::Null,
                    other => {
                        return Err(DbError::TypeMismatch {
                            column: "<like>".into(),
                            expected: "TEXT",
                            got: other.type_name(),
                        })
                    }
                }
            }
            Expr::Arith(op, a, b) => {
                let (x, y) = (a.eval(row)?, b.eval(row)?);
                if x.is_null() || y.is_null() {
                    return Ok(Value::Null);
                }
                match (x.as_int(), y.as_int(), op) {
                    // Integer arithmetic when both sides are integral and
                    // division is exact-free (SQL integer division).
                    (Some(i), Some(j), ArithOp::Add) => Value::Int(i.wrapping_add(j)),
                    (Some(i), Some(j), ArithOp::Sub) => Value::Int(i.wrapping_sub(j)),
                    (Some(i), Some(j), ArithOp::Mul) => Value::Int(i.wrapping_mul(j)),
                    (Some(i), Some(j), ArithOp::Div) => {
                        if j == 0 {
                            Value::Null
                        } else {
                            Value::Int(i / j)
                        }
                    }
                    _ => {
                        let fx = x.as_float().ok_or_else(|| DbError::TypeMismatch {
                            column: "<arith>".into(),
                            expected: "numeric",
                            got: x.type_name(),
                        })?;
                        let fy = y.as_float().ok_or_else(|| DbError::TypeMismatch {
                            column: "<arith>".into(),
                            expected: "numeric",
                            got: y.type_name(),
                        })?;
                        match op {
                            ArithOp::Add => Value::Float(fx + fy),
                            ArithOp::Sub => Value::Float(fx - fy),
                            ArithOp::Mul => Value::Float(fx * fy),
                            ArithOp::Div => Value::Float(fx / fy),
                        }
                    }
                }
            }
        })
    }

    /// Evaluate as a boolean predicate. UNKNOWN (NULL) collapses to false
    /// — the SQL rule for WHERE.
    pub fn eval_bool(&self, row: &[Value]) -> DbResult<bool> {
        match self.eval(row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(DbError::TypeMismatch {
                column: "<predicate>".into(),
                expected: "BOOL",
                got: other.type_name(),
            }),
        }
    }

    /// Collect the conjuncts of this expression (flattening nested ANDs).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::And(a, b) = e {
                walk(a, out);
                walk(b, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Extract a sargable range on a single column, if this (already bound)
    /// conjunct constrains exactly one column against literals. Used by the
    /// planner to pick an index range scan.
    pub fn column_range(&self) -> Option<ColumnRange> {
        match self {
            Expr::Cmp(op, a, b) => {
                let (col, lit, op) = match (&**a, &**b) {
                    (Expr::Col(c), Expr::Literal(v)) => (*c, v.clone(), *op),
                    (Expr::Literal(v), Expr::Col(c)) => (*c, v.clone(), flip(*op)),
                    _ => return None,
                };
                let r = match op {
                    CmpOp::Eq => ColumnRange {
                        col,
                        low: Bound::Included(lit.clone()),
                        high: Bound::Included(lit),
                    },
                    CmpOp::Lt => ColumnRange {
                        col,
                        low: Bound::Unbounded,
                        high: Bound::Excluded(lit),
                    },
                    CmpOp::Le => ColumnRange {
                        col,
                        low: Bound::Unbounded,
                        high: Bound::Included(lit),
                    },
                    CmpOp::Gt => ColumnRange {
                        col,
                        low: Bound::Excluded(lit),
                        high: Bound::Unbounded,
                    },
                    CmpOp::Ge => ColumnRange {
                        col,
                        low: Bound::Included(lit),
                        high: Bound::Unbounded,
                    },
                    CmpOp::Ne => return None,
                };
                Some(r)
            }
            Expr::Between { expr, lo, hi } => match (&**expr, &**lo, &**hi) {
                (Expr::Col(c), Expr::Literal(l), Expr::Literal(h)) => Some(ColumnRange {
                    col: *c,
                    low: Bound::Included(l.clone()),
                    high: Bound::Included(h.clone()),
                }),
                _ => None,
            },
            _ => None,
        }
    }

    /// Extract the distinct probe points of a bound `col IN (literals)`
    /// conjunct, for the planner's multi-point index access path. NULL
    /// items are skipped: a non-null key never equals NULL, and the
    /// residual filter re-applies the full predicate (including its
    /// three-valued NULL semantics) to every candidate row anyway.
    pub fn column_in_points(&self) -> Option<(usize, Vec<Value>)> {
        let Expr::InList { expr, list } = self else {
            return None;
        };
        let Expr::Col(col) = &**expr else {
            return None;
        };
        let mut points = Vec::with_capacity(list.len());
        for item in list {
            match item {
                Expr::Literal(v) if v.is_null() => continue,
                Expr::Literal(v) => points.push(v.clone()),
                _ => return None,
            }
        }
        points.sort();
        points.dedup();
        Some((*col, points))
    }

    /// Render to SQL text. Bound columns require the schema to print names.
    pub fn to_sql(&self, schema: &Schema) -> String {
        match self {
            Expr::Literal(v) => v.to_sql_literal(),
            Expr::Name(n) => n.clone(),
            Expr::Col(i) => schema.columns[*i].name.clone(),
            Expr::Cmp(op, a, b) => {
                format!("{} {} {}", a.to_sql(schema), op.sql(), b.to_sql(schema))
            }
            Expr::And(a, b) => format!("({} AND {})", a.to_sql(schema), b.to_sql(schema)),
            Expr::Or(a, b) => format!("({} OR {})", a.to_sql(schema), b.to_sql(schema)),
            Expr::Not(a) => format!("NOT ({})", a.to_sql(schema)),
            Expr::IsNull { expr, negated } => format!(
                "{} IS {}NULL",
                expr.to_sql(schema),
                if *negated { "NOT " } else { "" }
            ),
            Expr::Between { expr, lo, hi } => format!(
                "{} BETWEEN {} AND {}",
                expr.to_sql(schema),
                lo.to_sql(schema),
                hi.to_sql(schema)
            ),
            Expr::InList { expr, list } => {
                let items: Vec<String> = list.iter().map(|e| e.to_sql(schema)).collect();
                format!("{} IN ({})", expr.to_sql(schema), items.join(", "))
            }
            Expr::Like { expr, pattern } => format!(
                "{} LIKE '{}'",
                expr.to_sql(schema),
                pattern.replace('\'', "''")
            ),
            Expr::Arith(op, a, b) => {
                let sym = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                };
                format!("({} {} {})", a.to_sql(schema), sym, b.to_sql(schema))
            }
        }
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// A sargable range on one column, consumable by an index range scan.
#[derive(Debug, Clone)]
pub struct ColumnRange {
    /// Column position.
    pub col: usize,
    /// Lower bound.
    pub low: Bound<Value>,
    /// Upper bound.
    pub high: Bound<Value>,
}

/// SQL `LIKE` matcher: `%` matches any run, `_` matches one char.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // Iterative two-pointer algorithm with backtracking to the last `%`.
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("flux", DataType::Float),
            ],
        )
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int(7),
            Value::Text("flare".into()),
            Value::Float(2.5),
        ]
    }

    #[test]
    fn bind_and_eval_comparison() {
        let e = Expr::cmp("id", CmpOp::Ge, 5).bind(&schema()).unwrap();
        assert!(e.eval_bool(&row()).unwrap());
        let e = Expr::cmp("id", CmpOp::Lt, 5).bind(&schema()).unwrap();
        assert!(!e.eval_bool(&row()).unwrap());
    }

    #[test]
    fn bind_unknown_column_errors() {
        let err = Expr::eq("missing", 1).bind(&schema()).unwrap_err();
        assert!(matches!(err, DbError::NoSuchColumn { .. }));
    }

    #[test]
    fn null_comparisons_are_false() {
        let s = schema();
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Name("name".into())),
            Box::new(Expr::Literal(Value::Null)),
        )
        .bind(&s)
        .unwrap();
        assert!(!e.eval_bool(&row()).unwrap());
    }

    #[test]
    fn three_valued_logic_with_null() {
        let s = schema();
        let row_null = vec![Value::Int(1), Value::Null, Value::Float(2.0)];
        // NOT (name = 'x') over NULL name stays UNKNOWN -> filter false.
        let e = Expr::Not(Box::new(Expr::eq("name", "x"))).bind(&s).unwrap();
        assert!(!e.eval_bool(&row_null).unwrap());
        assert_eq!(e.eval(&row_null).unwrap(), Value::Null);
        // NOT BETWEEN over NULL is also UNKNOWN.
        let e = Expr::Not(Box::new(Expr::between("name", "a", "z")))
            .bind(&s)
            .unwrap();
        assert!(!e.eval_bool(&row_null).unwrap());
        // Kleene: FALSE AND UNKNOWN = FALSE; TRUE OR UNKNOWN = TRUE.
        let e = Expr::eq("id", 99)
            .and(Expr::eq("name", "x"))
            .bind(&s)
            .unwrap();
        assert_eq!(e.eval(&row_null).unwrap(), Value::Bool(false));
        let e = Expr::eq("id", 1)
            .or(Expr::eq("name", "x"))
            .bind(&s)
            .unwrap();
        assert_eq!(e.eval(&row_null).unwrap(), Value::Bool(true));
        // x IN (1, NULL) with no match is UNKNOWN, not FALSE.
        let e = Expr::InList {
            expr: Box::new(Expr::Name("id".into())),
            list: vec![Expr::Literal(Value::Int(99)), Expr::Literal(Value::Null)],
        }
        .bind(&s)
        .unwrap();
        assert_eq!(e.eval(&row_null).unwrap(), Value::Null);
    }

    #[test]
    fn between_and_in_list() {
        let s = schema();
        let e = Expr::between("flux", 1.0, 3.0).bind(&s).unwrap();
        assert!(e.eval_bool(&row()).unwrap());
        let e = Expr::InList {
            expr: Box::new(Expr::Name("id".into())),
            list: vec![Expr::Literal(Value::Int(3)), Expr::Literal(Value::Int(7))],
        }
        .bind(&s)
        .unwrap();
        assert!(e.eval_bool(&row()).unwrap());
    }

    #[test]
    fn like_wildcards() {
        assert!(like_match("fl%", "flare"));
        assert!(like_match("%are", "flare"));
        assert!(like_match("f_are", "flare"));
        assert!(like_match("%a%", "flare"));
        assert!(!like_match("f_are", "fare"));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
        assert!(like_match("a%b%c", "axxbyyc"));
        assert!(!like_match("a%b%c", "axxbyy"));
    }

    #[test]
    fn arithmetic_int_and_float() {
        let s = schema();
        let e = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::Name("id".into())),
            Box::new(Expr::Literal(Value::Int(3))),
        )
        .bind(&s)
        .unwrap();
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(10));
        let e = Expr::Arith(
            ArithOp::Mul,
            Box::new(Expr::Name("flux".into())),
            Box::new(Expr::Literal(Value::Int(2))),
        )
        .bind(&s)
        .unwrap();
        assert_eq!(e.eval(&row()).unwrap(), Value::Float(5.0));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::Literal(Value::Int(5))),
            Box::new(Expr::Literal(Value::Int(0))),
        );
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn conjunct_flattening_and_ranges() {
        let s = schema();
        let e = Expr::cmp("id", CmpOp::Ge, 5)
            .and(Expr::cmp("id", CmpOp::Le, 10).and(Expr::eq("name", "flare")))
            .bind(&s)
            .unwrap();
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        let ranges: Vec<_> = parts.iter().filter_map(|c| c.column_range()).collect();
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges[0].col, 0);
    }

    #[test]
    fn flipped_literal_comparison_ranges() {
        let s = schema();
        // `5 < id` is the same range as `id > 5`.
        let e = Expr::Cmp(
            CmpOp::Lt,
            Box::new(Expr::Literal(Value::Int(5))),
            Box::new(Expr::Name("id".into())),
        )
        .bind(&s)
        .unwrap();
        let r = e.column_range().unwrap();
        assert!(matches!(r.low, Bound::Excluded(Value::Int(5))));
        assert!(matches!(r.high, Bound::Unbounded));
    }

    #[test]
    fn to_sql_roundtrips_shape() {
        let s = schema();
        let e = Expr::cmp("id", CmpOp::Ge, 5)
            .and(Expr::Like {
                expr: Box::new(Expr::Name("name".into())),
                pattern: "fl%".into(),
            })
            .bind(&s)
            .unwrap();
        assert_eq!(e.to_sql(&s), "(id >= 5 AND name LIKE 'fl%')");
    }
}
