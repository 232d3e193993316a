//! The DM I/O layer.
//!
//! §5.2: "The I/O layer abstracts from the actual storage type and location.
//! All data accesses happen through this layer. It manages database access,
//! file system manipulation, database connections and performs general
//! resource management." It also implements the load partitioning that
//! routes "data requests for certain parts of a database schema ... to a
//! different DBMS".
//!
//! The query path (§5.4): structured [`Query`] objects are *verified*,
//! *scoped* and handed to the database as they are. SQL text is a
//! *rendering* of a query object ([`query_to_sql`], used by the slow-query
//! log), not a hop on the way to the executor; `hedc_metadb::parse` is the
//! front end for text that arrives as text (user SQL, DDL).

use crate::error::{DmError, DmResult};
use crate::names::ResolvedSet;
use hedc_cache::{CacheConfig, GenerationMap, QueryCache, ShardedCache};
use hedc_filestore::FileStore;
use hedc_metadb::{
    query_to_sql, Database, PoolKind, PoolSet, Query, QueryResult, SqlOutput, Statement, Value,
};
use hedc_obs::Histogram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Access-scope tag for internal (non-session) queries. Internal callers
/// see raw rows, so their cache entries must never be shared with a
/// session scope — the tag keeps them structurally apart.
const INTERNAL_SCOPE: &str = "-";

/// Logical mission clock: deterministic, strictly monotone milliseconds.
/// Injected everywhere a timestamp is needed so tests and experiments are
/// reproducible.
#[derive(Debug)]
pub struct Clock {
    now_ms: AtomicU64,
}

impl Clock {
    /// Start the clock at a given mission time.
    pub fn starting_at(ms: u64) -> Arc<Self> {
        Arc::new(Clock {
            now_ms: AtomicU64::new(ms),
        })
    }

    /// Current time; each call advances by 1 ms (strict monotonicity).
    pub fn now_ms(&self) -> u64 {
        self.now_ms.fetch_add(1, Ordering::Relaxed)
    }

    /// Advance the clock (simulated elapsed work).
    pub fn advance(&self, ms: u64) {
        self.now_ms.fetch_add(ms, Ordering::Relaxed);
    }

    /// Advance the clock to at least `ms` (never backwards). Used after WAL
    /// recovery so timestamps minted post-restart stay monotone with the
    /// replayed history.
    pub fn advance_to(&self, ms: u64) {
        self.now_ms.fetch_max(ms, Ordering::Relaxed);
    }

    /// Read without advancing.
    pub fn peek_ms(&self) -> u64 {
        self.now_ms.load(Ordering::Relaxed)
    }
}

/// Table → database routing (§5.2 "dynamic partitioning of the load").
#[derive(Debug, Clone, Default)]
pub struct Partitioning {
    routes: HashMap<String, usize>,
}

impl Partitioning {
    /// Everything on database 0.
    pub fn single() -> Self {
        Partitioning::default()
    }

    /// Route a table to a database index.
    pub fn route(mut self, table: &str, db: usize) -> Self {
        self.routes.insert(table.to_ascii_lowercase(), db);
        self
    }

    /// Database index for a table (default 0).
    pub fn db_for(&self, table: &str) -> usize {
        self.routes
            .get(&table.to_ascii_lowercase())
            .copied()
            .unwrap_or(0)
    }
}

/// Connection-pool sizing for one DM node.
#[derive(Debug, Clone)]
pub struct IoConfig {
    /// Query-pool capacity per database.
    pub query_pool: usize,
    /// Update-pool capacity per database.
    pub update_pool: usize,
    /// Auth-pool capacity per database.
    pub auth_pool: usize,
    /// Synthetic connection-creation cost (see `hedc_metadb::ConnectionPool`).
    pub creation_cost: Duration,
    /// The `[root]` element of dynamic names (§4.3), from system config.
    pub name_root: String,
    /// Queries slower than this are captured in the observability event log
    /// with their SQL and trace ID.
    pub slow_query: Duration,
    /// Result-cache policy. `None` (the default) disables caching: every
    /// query takes the verify/compile/execute path. When set, query
    /// results and name resolutions are cached with write-through
    /// generation invalidation (see `hedc-cache`).
    pub cache: Option<CacheConfig>,
}

impl Default for IoConfig {
    fn default() -> Self {
        IoConfig {
            query_pool: 16,
            update_pool: 4,
            auth_pool: 4,
            creation_cost: Duration::ZERO,
            name_root: "hedc".to_string(),
            slow_query: Duration::from_millis(100),
            cache: None,
        }
    }
}

/// The I/O layer's cache bundle: one shared [`GenerationMap`] feeding a
/// query-result cache and a name-resolution cache. Every write through
/// [`DmIo::insert`] / [`DmIo::execute`] bumps the written table's
/// generation; multi-statement transactions that bypass those entry
/// points (semantic-layer `update_conn` blocks) must bump explicitly via
/// [`DmIo::bump_generation`] after commit.
pub struct DmCaches {
    /// Per-table write generations — the invalidation spine.
    pub gens: Arc<GenerationMap>,
    /// Cached query results, keyed by access scope + canonical
    /// fingerprint.
    pub queries: QueryCache,
    /// Cached dynamic-name resolutions, keyed `names:{type}:{item_id}`,
    /// depending on the three location tables.
    pub names: ShardedCache<ResolvedSet>,
}

impl DmCaches {
    fn new(config: &CacheConfig) -> Arc<Self> {
        let gens = Arc::new(GenerationMap::new());
        Arc::new(DmCaches {
            queries: QueryCache::new(config, Arc::clone(&gens)),
            names: ShardedCache::new(config),
            gens,
        })
    }
}

/// The I/O layer: databases + pools + file store + id/clock services.
pub struct DmIo {
    dbs: Vec<Arc<Database>>,
    pools: Vec<PoolSet>,
    partition: Partitioning,
    /// The archives this node mounts.
    pub files: Arc<FileStore>,
    /// The logical clock.
    pub clock: Arc<Clock>,
    next_id: AtomicI64,
    /// Highest calibration version applied to this node's raw data. Result
    /// reuse (PL §3.5) is only sound for analyses computed at this lineage
    /// or later; recalibration bumps it, invalidating older cached results.
    calib_lineage: AtomicU32,
    name_root: String,
    slow_query: Duration,
    caches: Option<Arc<DmCaches>>,
    /// The process-wide `dm.*` latency histograms, resolved once per node
    /// so that no query or name resolution takes the registry lock.
    query_hist: Arc<Histogram>,
    pub(crate) name_map_hist: Arc<Histogram>,
    pub(crate) name_map_batch_hist: Arc<Histogram>,
}

impl DmIo {
    /// Build over existing databases (schema must be created by the caller;
    /// [`crate::Dm::bootstrap`] does both).
    pub fn new(
        dbs: Vec<Arc<Database>>,
        partition: Partitioning,
        files: Arc<FileStore>,
        clock: Arc<Clock>,
        config: &IoConfig,
    ) -> Self {
        assert!(!dbs.is_empty(), "at least one database required");
        let pools = dbs
            .iter()
            .map(|db| {
                PoolSet::new(
                    db,
                    config.query_pool,
                    config.update_pool,
                    config.auth_pool,
                    config.creation_cost,
                )
            })
            .collect();
        DmIo {
            dbs,
            pools,
            partition,
            files,
            clock,
            next_id: AtomicI64::new(1),
            calib_lineage: AtomicU32::new(1),
            name_root: config.name_root.clone(),
            slow_query: config.slow_query,
            caches: config.cache.as_ref().map(DmCaches::new),
            query_hist: hedc_obs::global().histogram("dm.query"),
            name_map_hist: hedc_obs::global().histogram("dm.name_map"),
            name_map_batch_hist: hedc_obs::global().histogram("dm.name_map.batch"),
        }
    }

    /// Allocate a fresh tuple/item id.
    pub fn next_id(&self) -> i64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Current calibration lineage: the highest calibration version applied
    /// to raw data on this node. Analyses committed at an older
    /// `calib_version` are stale and must not be served from result caches.
    pub fn calib_lineage(&self) -> u32 {
        self.calib_lineage.load(Ordering::Acquire)
    }

    /// Advance the calibration lineage (monotonic; called by recalibration).
    pub fn bump_calib_lineage(&self, version: u32) {
        self.calib_lineage.fetch_max(version, Ordering::AcqRel);
    }

    /// Re-seed the id allocator and clock after a WAL rebuild. A recovered
    /// database carries every previously-allocated id and timestamp in its
    /// rows, but the in-process `next_id` counter and `Clock` restart at
    /// their initial values — without this, a resumed ingest would mint
    /// duplicate primary keys. Scans every table of every database for the
    /// largest integer value (ids and millisecond timestamps share one
    /// ordered space, both strictly below any future allocation) and bumps
    /// both allocators past it.
    pub fn reseed_after_recovery(&self) {
        let mut max_seen: i64 = 0;
        for db in &self.dbs {
            for table in db.table_names() {
                let q = Query::table(&table);
                if let Ok(res) = db.connect().query(&q) {
                    for row in &res.rows {
                        for v in row {
                            if let Some(i) = v.as_int() {
                                max_seen = max_seen.max(i);
                            }
                        }
                    }
                }
            }
        }
        self.next_id.fetch_max(max_seen + 1, Ordering::Relaxed);
        self.clock.advance_to((max_seen + 1) as u64);
    }

    /// The `[root]` element for name construction.
    pub fn name_root(&self) -> &str {
        &self.name_root
    }

    /// The database holding a table.
    pub fn db_for(&self, table: &str) -> &Arc<Database> {
        &self.dbs[self.partition.db_for(table).min(self.dbs.len() - 1)]
    }

    /// All databases (for stats aggregation).
    pub fn databases(&self) -> &[Arc<Database>] {
        &self.dbs
    }

    fn pool_for(&self, table: &str) -> &PoolSet {
        &self.pools[self.partition.db_for(table).min(self.dbs.len() - 1)]
    }

    /// Verify a query object: known table, sane limits. The semantic layer
    /// adds ownership scoping before calling this.
    ///
    /// Table existence is checked against the live catalog, not a static
    /// list — new instruments add new domain tables at run time (§3.1:
    /// "new data sources ... some of which require a new database schema").
    fn verify(&self, q: &Query) -> DmResult<()> {
        if !self.db_for(&q.table).has_table(&q.table) {
            return Err(DmError::BadQuery(format!("unknown table `{}`", q.table)));
        }
        if let Some(limit) = q.limit {
            if limit > 1_000_000 {
                return Err(DmError::BadQuery(format!("limit {limit} too large")));
            }
        }
        Ok(())
    }

    /// Execute an internal (non-session) query. Cached under the internal
    /// access scope when caching is enabled; see [`DmIo::query_scoped`].
    pub fn query(&self, q: &Query) -> DmResult<QueryResult> {
        self.query_scoped(INTERNAL_SCOPE, q)
    }

    /// Execute a query under an access-scope tag, through the result cache
    /// when one is enabled (`hedc_cache::QueryCache::read_through`: a fresh
    /// entry under `(scope, fingerprint)` is served without touching the
    /// database; a miss fills on success). The semantic layer passes the
    /// session's scope tag; two scopes never share an entry, preserving
    /// §5.5 ownership isolation.
    pub fn query_scoped(&self, scope: &str, q: &Query) -> DmResult<QueryResult> {
        let cache = self.caches.as_ref().map(|c| &c.queries);
        QueryCache::read_through(cache, scope, q, || self.query_uncached(q))
    }

    /// Execute a verified query object on a pooled connection (§5.4).
    /// End-to-end latency feeds the `dm.query` histogram; anything over the
    /// configured slow-query threshold is captured in the event log with its
    /// SQL rendering, under the ambient trace.
    fn query_uncached(&self, q: &Query) -> DmResult<QueryResult> {
        let _span = hedc_obs::Span::child("dm.io.query");
        let started = std::time::Instant::now();
        self.verify(q)?;
        let conn = self.pool_for(&q.table).pool(PoolKind::Query).acquire();
        let out = conn.query(q);
        let elapsed = started.elapsed();
        self.query_hist.record(elapsed);
        if elapsed >= self.slow_query {
            let db = conn.database();
            let sql = db.schema_of(&q.table).map(|s| query_to_sql(q, &s));
            hedc_obs::emit(
                hedc_obs::events::kind::SLOW_QUERY,
                format!(
                    "db={} elapsed_us={} sql={}",
                    db.name(),
                    elapsed.as_micros(),
                    sql.unwrap_or_default()
                ),
            );
        }
        Ok(out?)
    }

    /// Check out an update-pool connection for the database holding
    /// `table` — the semantic layer uses this for multi-statement
    /// transactions ("transactional properties around entities", §4.4).
    pub fn update_conn(&self, table: &str) -> hedc_metadb::PooledConnection {
        self.pool_for(table).pool(PoolKind::Update).acquire()
    }

    /// Insert a row (update pool). Write-through: the table's cache
    /// generation is bumped around the write (see [`DmIo::bump_generation`]
    /// for why both sides are needed).
    pub fn insert(&self, table: &str, values: Vec<Value>) -> DmResult<u64> {
        let pool = self.pool_for(table).pool(PoolKind::Update);
        let mut conn = pool.acquire();
        self.bump_generation(table);
        let id = conn.insert(table, values)?;
        self.bump_generation(table);
        Ok(id)
    }

    /// Execute an arbitrary DML/DDL statement (update pool). Write-through:
    /// the written table's cache generation is bumped around the write.
    pub fn execute(&self, stmt: Statement) -> DmResult<usize> {
        let table = match &stmt {
            Statement::Insert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => table.clone(),
            _ => String::new(),
        };
        let pool = self.pool_for(&table).pool(PoolKind::Update);
        let mut conn = pool.acquire();
        self.bump_generation(&table);
        let out = conn.execute_statement(stmt)?;
        self.bump_generation(&table);
        match out {
            SqlOutput::Affected(n) => Ok(n),
            _ => Ok(0),
        }
    }

    /// Record a write to `table` in the cache generation map (no-op when
    /// caching is off, or for the empty table name).
    ///
    /// Writers must bump **before and after** the write (the built-in
    /// [`DmIo::insert`] / [`DmIo::execute`] paths do; semantic-layer
    /// transactions built on [`DmIo::update_conn`] must do the same per
    /// written table). A single post-write bump has an ABA hole: a read
    /// that executes between the commit and the bump observes the new data
    /// under the *old* generation, so a slower read that executed before
    /// the commit could later overwrite it with pre-write rows that still
    /// verify as fresh. Bumping on both sides makes any fill whose
    /// snapshot-to-fill window overlaps a write born-stale.
    pub fn bump_generation(&self, table: &str) {
        if let Some(caches) = &self.caches {
            if !table.is_empty() {
                caches.gens.bump(table);
            }
        }
    }

    /// The cache bundle, when [`IoConfig::cache`] enabled one.
    pub fn caches(&self) -> Option<&Arc<DmCaches>> {
        self.caches.as_ref()
    }

    /// Execute administrator DDL (CREATE TABLE / CREATE INDEX) — the §3.1
    /// path by which a new instrument's domain schema arrives at run time.
    pub fn execute_ddl(&self, sql: &str) -> DmResult<()> {
        let stmt = hedc_metadb::parse(sql)?;
        match &stmt {
            Statement::CreateTable(_) | Statement::CreateIndex { .. } => {
                let mut conn = self.update_conn("");
                conn.execute_statement(stmt)?;
                Ok(())
            }
            _ => Err(DmError::BadQuery("execute_ddl accepts only DDL".into())),
        }
    }

    /// Run raw SQL submitted by an advanced user (§1). Only SELECTs are
    /// accepted on this path; everything else must go through services.
    pub fn user_sql(&self, sql: &str) -> DmResult<QueryResult> {
        let stmt = hedc_metadb::parse(sql)?;
        match stmt {
            Statement::Select(q) => self.query(&q),
            _ => Err(DmError::BadQuery(
                "only SELECT is allowed on the user SQL path".into(),
            )),
        }
    }

    /// Append an operational log row (§4.1 operational section).
    pub fn log(&self, level: &str, component: &str, message: &str) -> DmResult<()> {
        let id = self.next_id();
        let ts = self.clock.now_ms();
        self.insert(
            "op_log",
            vec![
                Value::Int(id),
                Value::Int(ts as i64),
                Value::Text(level.to_string()),
                Value::Text(component.to_string()),
                Value::Text(message.to_string()),
            ],
        )?;
        Ok(())
    }

    /// Record a usage/audit row.
    pub fn audit(&self, user_id: i64, action: &str, duration_ms: Option<i64>) -> DmResult<()> {
        let id = self.next_id();
        let ts = self.clock.now_ms();
        self.insert(
            "op_usage",
            vec![
                Value::Int(id),
                Value::Int(ts as i64),
                Value::Int(user_id),
                Value::Text(action.to_string()),
                duration_ms.map(Value::Int).unwrap_or(Value::Null),
            ],
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;
    use crate::testkit::{cached_node, catalog_node, catalog_row};
    use hedc_metadb::Expr;

    fn io_single() -> DmIo {
        catalog_node("io-test", 0)
    }

    #[test]
    fn clock_is_monotone() {
        let c = Clock::starting_at(100);
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b > a);
        c.advance(500);
        assert!(c.peek_ms() >= 602);
    }

    #[test]
    fn query_roundtrips_through_sql() {
        let io = io_single();
        let id = io.next_id();
        io.insert("catalog", catalog_row(id, "extended")).unwrap();
        let r = io
            .query(&Query::table("catalog").filter(Expr::eq("name", "extended")))
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn unknown_table_rejected() {
        let io = io_single();
        let err = io.query(&Query::table("secrets")).unwrap_err();
        assert!(matches!(err, DmError::BadQuery(_)));
    }

    #[test]
    fn oversized_limit_rejected() {
        let io = io_single();
        let err = io
            .query(&Query::table("hle").limit(10_000_000))
            .unwrap_err();
        assert!(matches!(err, DmError::BadQuery(_)));
    }

    #[test]
    fn user_sql_select_only() {
        let io = io_single();
        assert!(io.user_sql("SELECT * FROM hle").is_ok());
        assert!(io.user_sql("DELETE FROM hle").is_err());
        assert!(io.user_sql("INSERT INTO hle (id) VALUES (1)").is_err());
    }

    #[test]
    fn partitioning_routes_tables() {
        let browse_db = Database::in_memory("browse");
        let process_db = Database::in_memory("process");
        for db in [&browse_db, &process_db] {
            let mut conn = db.connect();
            schema::create_generic(&mut conn).unwrap();
            schema::create_domain(&mut conn).unwrap();
        }
        // §5.2: separate processing (raw_unit) from browsing load.
        let io = DmIo::new(
            vec![browse_db.clone(), process_db.clone()],
            Partitioning::single().route("raw_unit", 1),
            Arc::new(FileStore::new()),
            Clock::starting_at(0),
            &IoConfig::default(),
        );
        io.insert(
            "raw_unit",
            vec![
                Value::Int(1),
                Value::Int(0),
                Value::Int(0),
                Value::Int(1000),
                Value::Int(10),
                Value::Int(1),
                Value::Int(99),
                Value::Int(4096),
                Value::Bool(false),
            ],
        )
        .unwrap();
        assert_eq!(process_db.row_count("raw_unit").unwrap(), 1);
        assert_eq!(browse_db.row_count("raw_unit").unwrap(), 0);
        // Browsing tables stay on db 0.
        io.log("info", "test", "hello").unwrap();
        assert_eq!(browse_db.row_count("op_log").unwrap(), 1);
        assert_eq!(process_db.row_count("op_log").unwrap(), 0);
    }

    #[test]
    fn cached_query_skips_database_and_write_invalidates() {
        let io = cached_node("io-cache", CacheConfig::default());
        io.insert("catalog", catalog_row(1, "standard")).unwrap();

        let q = Query::table("catalog").filter(Expr::eq("public", true));
        let before = io.db_for("catalog").stats();
        let r1 = io.query(&q).unwrap();
        let r2 = io.query(&q).unwrap();
        assert_eq!(r1.rows, r2.rows);
        let delta = io.db_for("catalog").stats().since(&before);
        assert_eq!(delta.queries, 1, "second read must be served by the cache");

        // A write through the io layer invalidates; the next read sees it.
        io.insert("catalog", catalog_row(2, "extended")).unwrap();
        let r3 = io.query(&q).unwrap();
        assert_eq!(r3.rows.len(), 2, "cached row set must not survive a write");
    }

    #[test]
    fn audit_and_log_rows_written() {
        let io = io_single();
        io.log("warn", "dm", "something").unwrap();
        io.audit(7, "browse", Some(12)).unwrap();
        let logs = io.query(&Query::table("op_log")).unwrap();
        assert_eq!(logs.rows.len(), 1);
        let usage = io.query(&Query::table("op_usage")).unwrap();
        assert_eq!(usage.rows[0][2], Value::Int(7));
    }
}
