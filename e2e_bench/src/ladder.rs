//! The trace ladder for browse pages: each sampled op is run down a ladder
//! of public entry points — the full op (`WebServer::handle`), the DM calls
//! that op makes (`Services::query`, `Names::resolve`, …), and for each DM
//! call that reached the database the same scoped `Query` on
//! `Connection::query` plus `query_to_sql` and `sql::parse` — and a layer's
//! self time is its rung minus the rung below.
//!
//! The rungs run as three passes over the same op list, not back to back
//! per op: a rung run straight after the rung above would find the pages
//! (or cache entries) the upper rung just loaded and read too cheap.

use crate::catalogue::Manifest;
use crate::counters::db_queries;
use crate::pages::{self, DmCall, PageOp};
use crate::report::RunResult;
use crate::trace::{mean, SpanId, Tracer, NO_PARENT};
use hedc_dm::{scope_query, DmIo, Session};
use hedc_metadb::{parse, query_to_sql, Expr, Query, Statement};
use hedc_web::WebServer;

/// What the ladder drives.
pub struct Target<'a> {
    /// The node's I/O layer.
    pub io: &'a DmIo,
    /// The logged-in session.
    pub session: &'a Session,
    /// The web tier and session cookie; `None` makes the DM-level page the
    /// top rung (`ingest_browse`, whose node has no `WebServer`).
    pub web: Option<(&'a WebServer, u64)>,
    /// Ground truth.
    pub manifest: &'a Manifest,
}

/// Per-op and per-call samples of one ladder run, µs.
#[derive(Debug, Default)]
pub struct Ladder {
    /// Top rung, per op.
    pub root_us: Vec<f64>,
    /// Top rung minus the replayed DM calls, per op (≥ 0).
    pub web_self_us: Vec<f64>,
    /// DM calls answered by the result/name cache, summed per op.
    pub cache_us: Vec<f64>,
    /// DM calls that reached the database, minus their metadb rung, summed
    /// per op (≥ 0): scoping, verification, pool, SQL hand-over.
    pub dm_self_us: Vec<f64>,
    /// `query_to_sql` + `sql::parse` + `Connection::query` of every query
    /// the op's DM calls issued, summed per op: metadb and the store below.
    pub metadb_us: Vec<f64>,
    /// Each `Services::query` / `catalog_members` / `user_sql` call.
    pub dm_query_us: Vec<f64>,
    /// Each `Names::resolve` call.
    pub name_resolve_us: Vec<f64>,
    /// Each `Connection::query`.
    pub metadb_query_us: Vec<f64>,
    /// Each `query_to_sql`.
    pub to_sql_us: Vec<f64>,
    /// Each `sql::parse`.
    pub parse_us: Vec<f64>,
    /// Response body sizes.
    pub page_bytes: Vec<f64>,
    /// Ops whose response failed the oracle.
    pub failed: u64,
}

impl Ladder {
    /// Σ mean layer self times ÷ mean root time. Self times are clamped at
    /// zero per op, so this exceeds 1 by exactly the amount the lower rungs
    /// out-measured the rungs above them.
    pub fn coverage(&self) -> f64 {
        let parts = mean(&self.web_self_us)
            + mean(&self.cache_us)
            + mean(&self.dm_self_us)
            + mean(&self.metadb_us);
        parts / mean(&self.root_us).max(f64::MIN_POSITIVE)
    }
}

impl Ladder {
    /// Set the ledger rows every page ladder yields (the rungs below the
    /// top one, and the coverage).
    pub fn record(&self, result: &mut RunResult) {
        result.count(0, self.failed);
        result.set("dm.query_us", mean(&self.dm_query_us));
        result.set("dm.name_resolve_us", mean(&self.name_resolve_us));
        result.set("dm.self_us", mean(&self.dm_self_us));
        result.set("cache.self_us", mean(&self.cache_us));
        result.set("metadb.self_us", mean(&self.metadb_us));
        result.set("metadb.query_us", mean(&self.metadb_query_us));
        result.set("metadb.to_sql_us", mean(&self.to_sql_us));
        result.set("metadb.parse_us", mean(&self.parse_us));
        result.set("trace.coverage", self.coverage());
    }
}

impl Target<'_> {
    /// Run the top rung of one op; returns whether it verified and the
    /// response size.
    pub fn run_root(&self, op: &PageOp) -> (bool, usize) {
        match self.web {
            Some((web, cookie)) => {
                let resp = web.handle(&pages::request(op, self.manifest, cookie));
                (
                    pages::verify_response(op, &resp, self.manifest),
                    resp.body.len(),
                )
            }
            None => (pages::dm_page(self.io, self.session, op, self.manifest), 0),
        }
    }

    /// The metadb rung of one DM call: every query the call issues, each as
    /// `query_to_sql` → `sql::parse` → `Connection::query`. Returns the sum
    /// of the three, µs, and appends the per-query samples to `out`.
    fn metadb_rung(
        &self,
        call: &DmCall,
        parent: SpanId,
        op_id: u32,
        tracer: &mut Tracer,
        out: &mut Ladder,
    ) -> f64 {
        // One query down the rung; returns its result and the µs it took.
        let one = |q: &Query, tracer: &mut Tracer, out: &mut Ladder| {
            let db = self.io.db_for(&q.table);
            let conn = db.connect();
            let Ok(schema) = db.schema_of(&q.table) else {
                return (None, 0.0);
            };
            let (sql, to_sql) =
                tracer.span("metadb.to_sql", parent, op_id, || query_to_sql(q, &schema));
            let (_, parsed) = tracer.span("metadb.parse", parent, op_id, || parse(&sql));
            let (result, query) = tracer.span("metadb.query", parent, op_id, || conn.query(q));
            out.to_sql_us.push(to_sql);
            out.parse_us.push(parsed);
            out.metadb_query_us.push(query);
            (result.ok(), to_sql + parsed + query)
        };
        let mut total = 0.0;
        match call {
            DmCall::Query(q) => {
                total += one(&scope_query(self.session, q.clone()), tracer, out).1;
            }
            DmCall::Members(id) => {
                let catalog = Query::table("catalog").filter(Expr::eq("id", *id));
                total += one(&scope_query(self.session, catalog), tracer, out).1;
                let members = Query::table("catalog_member").filter(Expr::eq("catalog_id", *id));
                total += one(&scope_query(self.session, members), tracer, out).1;
            }
            DmCall::UserSql(sql) => {
                // The front-end parse of the user's text, then the scoped
                // query takes the usual to_sql → parse → execute path.
                let (stmt, front) = tracer.span("metadb.parse", parent, op_id, || parse(sql));
                out.parse_us.push(front);
                total += front;
                if let Ok(Statement::Select(q)) = stmt {
                    total += one(&scope_query(self.session, q), tracer, out).1;
                }
            }
            DmCall::Resolve(item) => {
                // `Names::resolve`: entries of the item, then per file entry
                // its archive row and its transforms.
                let entries = Query::table("loc_entry").filter(Expr::eq("item_id", *item));
                let (rows, us) = one(&entries, tracer, out);
                total += us;
                for row in rows.iter().flat_map(|r| &r.rows) {
                    if row[2].as_text() != Some("file") {
                        continue;
                    }
                    let archive = row[3].as_int().unwrap_or(0);
                    let entry = row[0].as_int().unwrap_or(0);
                    let by_archive =
                        Query::table("loc_archive").filter(Expr::eq("archive_id", archive));
                    total += one(&by_archive, tracer, out).1;
                    let by_entry =
                        Query::table("loc_transform").filter(Expr::eq("entry_id", entry));
                    total += one(&by_entry, tracer, out).1;
                }
            }
        }
        total
    }

    /// Run the three passes over `ops`.
    pub fn run(&self, ops: &[PageOp], tracer: &mut Tracer) -> Ladder {
        let mut out = Ladder::default();
        let top = if self.web.is_some() {
            "web.handle"
        } else {
            "dm.page"
        };
        // Pass 1: the full op.
        let mut roots = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let id = tracer.begin(top, NO_PARENT, i as u32);
            let (ok, bytes) = self.run_root(op);
            out.root_us.push(tracer.end(id));
            out.page_bytes.push(bytes as f64);
            out.failed += u64::from(!ok);
            roots.push(id);
        }
        // Pass 2: the DM calls each op makes. A call during which the
        // databases saw no query was answered by a cache.
        let mut calls: Vec<Vec<(DmCall, SpanId, f64, bool)>> = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let mut traced = Vec::new();
            for call in pages::dm_calls(op, self.manifest) {
                let name = match call {
                    DmCall::Resolve(_) => "dm.name_resolve",
                    _ => "dm.query",
                };
                let before = db_queries(self.io);
                let id = tracer.begin(name, roots[i], i as u32);
                let ok = call.run(self.io, self.session).is_ok();
                let us = tracer.end(id);
                let missed = db_queries(self.io) > before;
                out.failed += u64::from(!ok);
                match call {
                    DmCall::Resolve(_) => out.name_resolve_us.push(us),
                    _ => out.dm_query_us.push(us),
                }
                traced.push((call, id, us, missed));
            }
            calls.push(traced);
        }
        // Pass 3: the metadb rung of every call that reached the database.
        for (i, traced) in calls.iter().enumerate() {
            let (mut dm_total, mut cache, mut dm_self, mut metadb) = (0.0, 0.0, 0.0, 0.0);
            for (call, id, us, missed) in traced {
                dm_total += us;
                if *missed {
                    let below = self.metadb_rung(call, *id, i as u32, tracer, &mut out);
                    metadb += below;
                    dm_self += (us - below).max(0.0);
                } else {
                    cache += us;
                }
            }
            out.web_self_us.push((out.root_us[i] - dm_total).max(0.0));
            out.cache_us.push(cache);
            out.dm_self_us.push(dm_self);
            out.metadb_us.push(metadb);
        }
        out
    }

    fn clear_caches(&self) {
        if let Some(c) = self.io.caches() {
            c.queries.clear();
            c.names.clear();
        }
    }

    /// The replay-drift guard: for each op, the replayed DM calls must send
    /// the databases exactly as many queries as the full op does (both from
    /// cleared caches), and — with caching off, where every query reaches
    /// the database — so must the metadb rung. A change to `web` that adds
    /// or drops a DM call would otherwise desynchronise the ledger silently.
    pub fn drift_guard(&self, ops: &[PageOp]) -> Result<(), String> {
        let hist = || hedc_obs::global().histogram("dm.query").count();
        for op in ops {
            self.clear_caches();
            let (q0, h0) = (db_queries(self.io), hist());
            self.run_root(op);
            let full = (db_queries(self.io) - q0, hist() - h0);
            let calls = pages::dm_calls(op, self.manifest);
            self.clear_caches();
            let (q0, h0) = (db_queries(self.io), hist());
            for call in &calls {
                let _ = call.run(self.io, self.session);
            }
            let replay = (db_queries(self.io) - q0, hist() - h0);
            if full != replay {
                return Err(format!(
                    "replay drift on `{}` page: the full op made {} db queries ({} dm.query), \
                     the replayed DM calls {} ({})",
                    op.kind(),
                    full.0,
                    full.1,
                    replay.0,
                    replay.1
                ));
            }
            if self.io.caches().is_none() {
                let q0 = db_queries(self.io);
                let mut scratch = (Tracer::default(), Ladder::default());
                for call in &calls {
                    self.metadb_rung(call, NO_PARENT, 0, &mut scratch.0, &mut scratch.1);
                }
                let rung = db_queries(self.io) - q0;
                if rung != full.0 {
                    return Err(format!(
                        "replay drift on `{}` page: the full op made {} db queries, \
                         the metadb rung {rung}",
                        op.kind(),
                        full.0
                    ));
                }
            }
        }
        Ok(())
    }
}
