//! A small SQL dialect: tokenizer, parser, and statement representation.
//!
//! The DM speaks structured [`Query`] objects and hands them to the executor
//! as they are, but the paper also lets advanced users submit "their own SQL
//! queries" (§1), and a slow query is logged as SQL. This module is that
//! front end and that rendering ([`query_to_sql`]); a seeded suite keeps the
//! two honest by running query objects directly and through their text.
//!
//! Supported statements: `CREATE TABLE`, `CREATE [UNIQUE] INDEX`, `INSERT`,
//! `SELECT` (with WHERE/GROUP BY/ORDER BY/LIMIT/OFFSET and aggregates),
//! `UPDATE`, `DELETE`, `BEGIN`, `COMMIT`, `ROLLBACK`.

use crate::error::{DbError, DbResult};
use crate::expr::{ArithOp, CmpOp, Expr};
use crate::query::{AggFunc, OrderDir, Projection, Query};
use crate::schema::{ColumnDef, Schema};
use crate::value::{DataType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone)]
pub enum Statement {
    /// `CREATE TABLE ...`
    CreateTable(Schema),
    /// `CREATE [UNIQUE] INDEX name ON table (cols)`
    CreateIndex {
        /// Target table.
        table: String,
        /// Index name.
        name: String,
        /// Indexed columns.
        columns: Vec<String>,
        /// Uniqueness.
        unique: bool,
    },
    /// `INSERT INTO table [(cols)] VALUES (...), (...)`
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Rows of literal values.
        values: Vec<Vec<Value>>,
    },
    /// `SELECT ...`
    Select(Query),
    /// `UPDATE table SET col = expr [WHERE ...]`
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Optional filter.
        filter: Option<Expr>,
    },
    /// `DELETE FROM table [WHERE ...]`
    Delete {
        /// Target table.
        table: String,
        /// Optional filter.
        filter: Option<Expr>,
    },
    /// `BEGIN`
    Begin,
    /// `COMMIT`
    Commit,
    /// `ROLLBACK`
    Rollback,
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Hex(Vec<u8>),
    Sym(&'static str),
    Eof,
}

fn tokenize(input: &str) -> DbResult<Vec<Tok>> {
    let b: Vec<char> = input.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '-' && b.get(i + 1) == Some(&'-') {
            // Line comment.
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            let word: String = b[start..i].iter().collect();
            // X'ab01' hex literal.
            if (word == "X" || word == "x") && b.get(i) == Some(&'\'') {
                i += 1;
                let hstart = i;
                while i < b.len() && b[i] != '\'' {
                    i += 1;
                }
                if i >= b.len() {
                    return Err(DbError::Parse("unterminated hex literal".into()));
                }
                let hex: String = b[hstart..i].iter().collect();
                i += 1;
                if !hex.len().is_multiple_of(2) {
                    return Err(DbError::Parse("odd-length hex literal".into()));
                }
                let mut bytes = Vec::with_capacity(hex.len() / 2);
                for pair in hex.as_bytes().chunks(2) {
                    let s = std::str::from_utf8(pair).unwrap();
                    bytes.push(
                        u8::from_str_radix(s, 16)
                            .map_err(|_| DbError::Parse(format!("bad hex `{s}`")))?,
                    );
                }
                out.push(Tok::Hex(bytes));
            } else {
                out.push(Tok::Ident(word));
            }
            continue;
        }
        if c.is_ascii_digit() || (c == '.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())) {
            let start = i;
            let mut is_float = false;
            while i < b.len()
                && (b[i].is_ascii_digit()
                    || b[i] == '.'
                    || b[i] == 'e'
                    || b[i] == 'E'
                    || ((b[i] == '+' || b[i] == '-') && (b[i - 1] == 'e' || b[i - 1] == 'E')))
            {
                if b[i] == '.' || b[i] == 'e' || b[i] == 'E' {
                    is_float = true;
                }
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            if is_float {
                let f: f64 = text
                    .parse()
                    .map_err(|_| DbError::Parse(format!("bad float `{text}`")))?;
                out.push(Tok::Float(f));
            } else {
                let n: i64 = text
                    .parse()
                    .map_err(|_| DbError::Parse(format!("bad integer `{text}`")))?;
                out.push(Tok::Int(n));
            }
            continue;
        }
        if c == '\'' {
            i += 1;
            let mut s = String::new();
            loop {
                if i >= b.len() {
                    return Err(DbError::Parse("unterminated string literal".into()));
                }
                if b[i] == '\'' {
                    if b.get(i + 1) == Some(&'\'') {
                        s.push('\'');
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                s.push(b[i]);
                i += 1;
            }
            out.push(Tok::Str(s));
            continue;
        }
        let two: Option<&'static str> = match (c, b.get(i + 1)) {
            ('<', Some('=')) => Some("<="),
            ('>', Some('=')) => Some(">="),
            ('<', Some('>')) => Some("<>"),
            ('!', Some('=')) => Some("<>"),
            _ => None,
        };
        if let Some(sym) = two {
            out.push(Tok::Sym(sym));
            i += 2;
            continue;
        }
        let one: Option<&'static str> = match c {
            '(' => Some("("),
            ')' => Some(")"),
            ',' => Some(","),
            ';' => Some(";"),
            '=' => Some("="),
            '<' => Some("<"),
            '>' => Some(">"),
            '+' => Some("+"),
            '-' => Some("-"),
            '*' => Some("*"),
            '/' => Some("/"),
            '.' => Some("."),
            _ => None,
        };
        match one {
            Some(sym) => {
                out.push(Tok::Sym(sym));
                i += 1;
            }
            None => return Err(DbError::Parse(format!("unexpected character `{c}`"))),
        }
    }
    out.push(Tok::Eof);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> DbResult<T> {
        Err(DbError::Parse(format!(
            "{} (at token {:?})",
            msg.into(),
            self.peek()
        )))
    }

    /// Consume a keyword (case-insensitive); error if absent.
    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`"))
        }
    }

    /// Consume a keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Tok::Ident(w) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.next();
                return true;
            }
        }
        false
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(w) if w.eq_ignore_ascii_case(kw))
    }

    fn expect_sym(&mut self, sym: &str) -> DbResult<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            self.err(format!("expected `{sym}`"))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Tok::Sym(s) if *s == sym) {
            self.next();
            return true;
        }
        false
    }

    fn ident(&mut self) -> DbResult<String> {
        match self.next() {
            Tok::Ident(w) => Ok(w),
            other => Err(DbError::Parse(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> DbResult<Statement> {
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.create_table();
            }
            let unique = self.eat_kw("UNIQUE");
            if self.eat_kw("INDEX") {
                return self.create_index(unique);
            }
            return self.err("expected TABLE or INDEX after CREATE");
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("BEGIN") {
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            return Ok(Statement::Rollback);
        }
        self.err("expected a statement")
    }

    fn create_table(&mut self) -> DbResult<Statement> {
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut cols: Vec<ColumnDef> = Vec::new();
        let mut pk: Vec<String> = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect_sym("(")?;
                loop {
                    pk.push(self.ident()?);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                self.expect_sym(")")?;
            } else {
                let cname = self.ident()?;
                let tname = self.ident()?;
                let ty = DataType::parse(&tname)
                    .ok_or_else(|| DbError::Parse(format!("unknown type `{tname}`")))?;
                let mut col = ColumnDef::new(cname, ty);
                loop {
                    if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                        col.not_null = true;
                    } else if self.eat_kw("DEFAULT") {
                        col.default = Some(self.literal()?);
                    } else {
                        break;
                    }
                }
                cols.push(col);
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        let mut schema = Schema::new(name, cols);
        if !pk.is_empty() {
            let refs: Vec<&str> = pk.iter().map(String::as_str).collect();
            // `primary_key` panics on unknown columns; validate first.
            for c in &refs {
                if schema.column_index(c).is_none() {
                    return Err(DbError::Parse(format!("unknown PRIMARY KEY column `{c}`")));
                }
            }
            schema = schema.primary_key(&refs);
        }
        Ok(Statement::CreateTable(schema))
    }

    fn create_index(&mut self, unique: bool) -> DbResult<Statement> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.ident()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(Statement::CreateIndex {
            table,
            name,
            columns,
            unique,
        })
    }

    fn insert(&mut self) -> DbResult<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_sym("(") {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut values = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.signed_literal()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            values.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    fn select(&mut self) -> DbResult<Query> {
        // Projection / aggregate list.
        let mut q = Query::default();
        let mut plain_cols: Vec<String> = Vec::new();
        let mut star = false;
        loop {
            if self.eat_sym("*") {
                star = true;
            } else if let Some(agg) = self.try_aggregate()? {
                q.aggregates.push(agg);
            } else {
                plain_cols.push(self.ident()?);
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_kw("FROM")?;
        q.table = self.ident()?;
        if self.eat_kw("WHERE") {
            q.filter = Some(self.expr()?);
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                q.group_by.push(self.ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                // An aggregate's output column is ordered by its label.
                let col = match self.try_aggregate()? {
                    Some(agg) => agg.label(),
                    None => self.ident()?,
                };
                let dir = if self.eat_kw("DESC") {
                    OrderDir::Desc
                } else {
                    self.eat_kw("ASC");
                    OrderDir::Asc
                };
                q.order_by.push((col, dir));
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            q.limit = Some(self.usize_literal()?);
        }
        if self.eat_kw("OFFSET") {
            q.offset = Some(self.usize_literal()?);
        }
        if !q.aggregates.is_empty() {
            // Plain columns alongside aggregates must be the group-by keys;
            // the executor emits group keys automatically, so just validate.
            for c in &plain_cols {
                if !q.group_by.iter().any(|g| g.eq_ignore_ascii_case(c)) {
                    return Err(DbError::Parse(format!(
                        "column `{c}` must appear in GROUP BY"
                    )));
                }
            }
        } else if star {
            q.projection = Projection::All;
        } else if !plain_cols.is_empty() {
            q.projection = Projection::Columns(plain_cols);
        } else {
            return self.err("empty select list");
        }
        Ok(q)
    }

    fn try_aggregate(&mut self) -> DbResult<Option<AggFunc>> {
        let kw = match self.peek() {
            Tok::Ident(w) => w.to_ascii_uppercase(),
            _ => return Ok(None),
        };
        let is_agg = matches!(kw.as_str(), "COUNT" | "SUM" | "AVG" | "MIN" | "MAX");
        // Only treat as aggregate when followed by `(` — otherwise it's a
        // column that happens to be called e.g. `count`.
        if !is_agg || !matches!(self.toks.get(self.pos + 1), Some(Tok::Sym("("))) {
            return Ok(None);
        }
        self.next(); // keyword
        self.next(); // (
        let agg = if kw == "COUNT" && self.eat_sym("*") {
            AggFunc::CountStar
        } else {
            let col = self.ident()?;
            match kw.as_str() {
                "COUNT" => AggFunc::Count(col),
                "SUM" => AggFunc::Sum(col),
                "AVG" => AggFunc::Avg(col),
                "MIN" => AggFunc::Min(col),
                "MAX" => AggFunc::Max(col),
                _ => unreachable!(),
            }
        };
        self.expect_sym(")")?;
        Ok(Some(agg))
    }

    fn update(&mut self) -> DbResult<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym("=")?;
            sets.push((col, self.expr()?));
            if !self.eat_sym(",") {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn delete(&mut self) -> DbResult<Statement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    // --- expressions, precedence: OR < AND < NOT < cmp < add < mul < unary

    fn expr(&mut self) -> DbResult<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> DbResult<Expr> {
        let left = self.add_expr()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] BETWEEN / IN / LIKE
        let negated = self.peek_kw("NOT") && {
            // lookahead: NOT BETWEEN / NOT IN / NOT LIKE
            matches!(self.toks.get(self.pos + 1), Some(Tok::Ident(w))
                    if ["BETWEEN", "IN", "LIKE"].iter().any(|k| w.eq_ignore_ascii_case(k)))
        };
        if negated {
            self.next();
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.add_expr()?;
            self.expect_kw("AND")?;
            let hi = self.add_expr()?;
            let e = Expr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
            };
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.add_expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            let e = Expr::InList {
                expr: Box::new(left),
                list,
            };
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.next() {
                Tok::Str(s) => s,
                other => {
                    return Err(DbError::Parse(format!(
                        "LIKE requires a string pattern, got {other:?}"
                    )))
                }
            };
            let e = Expr::Like {
                expr: Box::new(left),
                pattern,
            };
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        let op = match self.peek() {
            Tok::Sym("=") => Some(CmpOp::Eq),
            Tok::Sym("<>") => Some(CmpOp::Ne),
            Tok::Sym("<") => Some(CmpOp::Lt),
            Tok::Sym("<=") => Some(CmpOp::Le),
            Tok::Sym(">") => Some(CmpOp::Gt),
            Tok::Sym(">=") => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.next();
                let right = self.add_expr()?;
                Ok(Expr::Cmp(op, Box::new(left), Box::new(right)))
            }
            None => Ok(left),
        }
    }

    fn add_expr(&mut self) -> DbResult<Expr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Sym("+") => ArithOp::Add,
                Tok::Sym("-") => ArithOp::Sub,
                _ => break,
            };
            self.next();
            let right = self.mul_expr()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> DbResult<Expr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Sym("*") => ArithOp::Mul,
                Tok::Sym("/") => ArithOp::Div,
                _ => break,
            };
            self.next();
            let right = self.unary_expr()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> DbResult<Expr> {
        if self.eat_sym("-") {
            let inner = self.unary_expr()?;
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Arith(
                    ArithOp::Sub,
                    Box::new(Expr::Literal(Value::Int(0))),
                    Box::new(other),
                ),
            });
        }
        if self.eat_sym("(") {
            let e = self.expr()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        match self.next() {
            Tok::Int(i) => Ok(Expr::Literal(Value::Int(i))),
            Tok::Float(f) => Ok(Expr::Literal(Value::Float(f))),
            Tok::Str(s) => Ok(Expr::Literal(Value::Text(s))),
            Tok::Hex(b) => Ok(Expr::Literal(Value::Bytes(b))),
            Tok::Ident(w) => {
                if w.eq_ignore_ascii_case("NULL") {
                    Ok(Expr::Literal(Value::Null))
                } else if w.eq_ignore_ascii_case("TRUE") {
                    Ok(Expr::Literal(Value::Bool(true)))
                } else if w.eq_ignore_ascii_case("FALSE") {
                    Ok(Expr::Literal(Value::Bool(false)))
                } else {
                    Ok(Expr::Name(w))
                }
            }
            other => Err(DbError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    fn literal(&mut self) -> DbResult<Value> {
        match self.unary_expr()? {
            Expr::Literal(v) => Ok(v),
            other => Err(DbError::Parse(format!("expected literal, got {other:?}"))),
        }
    }

    /// A literal with optional leading minus (INSERT values).
    fn signed_literal(&mut self) -> DbResult<Value> {
        self.literal()
    }

    fn usize_literal(&mut self) -> DbResult<usize> {
        match self.next() {
            Tok::Int(i) if i >= 0 => Ok(i as usize),
            other => Err(DbError::Parse(format!(
                "expected non-negative integer, got {other:?}"
            ))),
        }
    }
}

/// Parse one SQL statement (a trailing semicolon is allowed).
pub fn parse(input: &str) -> DbResult<Statement> {
    let toks = tokenize(input)?;
    let mut p = Parser { toks, pos: 0 };
    let stmt = p.statement()?;
    p.eat_sym(";");
    if *p.peek() != Tok::Eof {
        return p.err("trailing input after statement");
    }
    Ok(stmt)
}

/// Render a [`Query`] back to SQL text. This is the DM's "transformed into
/// regular SQL queries" step (§5.4); [`parse`] accepts everything this emits.
pub fn query_to_sql(q: &Query, schema: &Schema) -> String {
    let mut out = String::from("SELECT ");
    if q.aggregates.is_empty() {
        match &q.projection {
            Projection::All => out.push('*'),
            Projection::Columns(cols) => out.push_str(&cols.join(", ")),
        }
    } else {
        let mut parts: Vec<String> = q.group_by.clone();
        parts.extend(q.aggregates.iter().map(AggFunc::label));
        out.push_str(&parts.join(", "));
    }
    out.push_str(" FROM ");
    out.push_str(&q.table);
    if let Some(f) = &q.filter {
        out.push_str(" WHERE ");
        out.push_str(&f.to_sql(schema));
    }
    if !q.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        out.push_str(&q.group_by.join(", "));
    }
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        let parts: Vec<String> = q
            .order_by
            .iter()
            .map(|(c, d)| format!("{c} {}", if *d == OrderDir::Desc { "DESC" } else { "ASC" }))
            .collect();
        out.push_str(&parts.join(", "));
    }
    if let Some(n) = q.limit {
        out.push_str(&format!(" LIMIT {n}"));
    }
    if let Some(n) = q.offset {
        out.push_str(&format!(" OFFSET {n}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_basics() {
        let toks = tokenize("SELECT a, b FROM t WHERE x >= 1.5 AND y = 'o''k'").unwrap();
        assert!(toks.contains(&Tok::Sym(">=")));
        assert!(toks.contains(&Tok::Float(1.5)));
        assert!(toks.contains(&Tok::Str("o'k".into())));
    }

    #[test]
    fn tokenizer_errors() {
        assert!(tokenize("SELECT 'unterminated").is_err());
        assert!(tokenize("SELECT @").is_err());
        assert!(tokenize("SELECT X'abc'").is_err()); // odd hex
    }

    #[test]
    fn comments_are_skipped() {
        let s = parse("SELECT * FROM t -- trailing comment").unwrap();
        assert!(matches!(s, Statement::Select(_)));
    }

    #[test]
    fn parse_create_table_full() {
        let s = parse(
            "CREATE TABLE hle (id INT NOT NULL, t TIMESTAMP NOT NULL, \
             label TEXT DEFAULT 'none', flux FLOAT, PRIMARY KEY (id))",
        )
        .unwrap();
        let Statement::CreateTable(schema) = s else {
            panic!("not a create table");
        };
        assert_eq!(schema.table, "hle");
        assert_eq!(schema.arity(), 4);
        assert_eq!(schema.primary_key, vec![0]);
        assert_eq!(schema.columns[2].default, Some(Value::Text("none".into())));
    }

    #[test]
    fn parse_create_index() {
        let s = parse("CREATE UNIQUE INDEX ix ON t (a, b)").unwrap();
        let Statement::CreateIndex {
            table,
            name,
            columns,
            unique,
        } = s
        else {
            panic!()
        };
        assert_eq!((table.as_str(), name.as_str(), unique), ("t", "ix", true));
        assert_eq!(columns, vec!["a", "b"]);
    }

    #[test]
    fn parse_insert_multi_row_with_columns() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL)").unwrap();
        let Statement::Insert {
            columns, values, ..
        } = s
        else {
            panic!()
        };
        assert_eq!(columns, Some(vec!["a".to_string(), "b".to_string()]));
        assert_eq!(values.len(), 2);
        assert_eq!(values[1][0], Value::Int(-2));
        assert_eq!(values[1][1], Value::Null);
    }

    #[test]
    fn parse_select_all_clauses() {
        let s = parse(
            "SELECT a, b FROM t WHERE a >= 3 AND b LIKE 'fl%' \
             ORDER BY a DESC, b LIMIT 10 OFFSET 5",
        )
        .unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.table, "t");
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0].1, OrderDir::Desc);
        assert!(q.filter.is_some());
    }

    #[test]
    fn parse_aggregates_and_group_by() {
        let s = parse("SELECT kind, COUNT(*), AVG(dur) FROM ana GROUP BY kind").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.aggregates.len(), 2);
        assert_eq!(q.group_by, vec!["kind"]);
    }

    #[test]
    fn plain_column_without_group_by_is_error() {
        assert!(parse("SELECT kind, COUNT(*) FROM ana").is_err());
    }

    #[test]
    fn count_as_column_name_is_not_an_aggregate() {
        let s = parse("SELECT count FROM t").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.projection, Projection::Columns(vec!["count".into()]));
    }

    #[test]
    fn parse_update_delete() {
        let s = parse("UPDATE t SET a = a + 1, b = 'x' WHERE a < 10").unwrap();
        let Statement::Update { sets, filter, .. } = s else {
            panic!()
        };
        assert_eq!(sets.len(), 2);
        assert!(filter.is_some());

        let s = parse("DELETE FROM t").unwrap();
        let Statement::Delete { filter, .. } = s else {
            panic!()
        };
        assert!(filter.is_none());
    }

    #[test]
    fn parse_not_between_in() {
        let s = parse("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 2 OR b NOT IN (1,2)").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let f = q.filter.unwrap();
        assert!(matches!(f, Expr::Or(_, _)));
    }

    #[test]
    fn parse_is_null() {
        let s = parse("SELECT * FROM t WHERE a IS NOT NULL AND b IS NULL").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert!(q.filter.is_some());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT * FROM t garbage more").is_err());
        assert!(parse("COMMIT extra").is_err());
    }

    #[test]
    fn txn_statements() {
        assert!(matches!(parse("BEGIN").unwrap(), Statement::Begin));
        assert!(matches!(parse("COMMIT;").unwrap(), Statement::Commit));
        assert!(matches!(parse("ROLLBACK").unwrap(), Statement::Rollback));
    }

    #[test]
    fn operator_precedence() {
        // a = 1 OR b = 2 AND c = 3  =>  a=1 OR (b=2 AND c=3)
        let s = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let Expr::Or(_, rhs) = q.filter.unwrap() else {
            panic!("expected OR at top");
        };
        assert!(matches!(*rhs, Expr::And(_, _)));
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 = 7
        let s = parse("SELECT * FROM t WHERE a = 1 + 2 * 3").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let Expr::Cmp(_, _, rhs) = q.filter.unwrap() else {
            panic!()
        };
        assert_eq!(rhs.eval(&[]).unwrap(), Value::Int(7));
    }
}
