//! The database kernel: catalog, connections, transactions, recovery.
//!
//! Concurrency model: one coarse reader-writer lock over the catalog. Reads
//! (queries) share the lock; DML takes it exclusively per statement. A
//! transaction's atomicity is provided by an undo list held in the
//! connection (rollback reverses the transaction's own effects) and a redo
//! buffer flushed to the WAL at commit. This is the "read committed on a
//! single node" regime the paper's DM runs against — HEDC serializes writers
//! through the DM component rather than relying on exotic DBMS isolation.
//!
//! Known limitation (single-writer assumption, as in HEDC's deployment):
//! redo records are appended at commit time, not under the catalog lock, so
//! *concurrent writers to the same table* can produce a WAL whose replay
//! order differs from apply order (slot-id conflicts on recovery), and a
//! rollback can fail if another connection reused a freed slot in the
//! interim. The DM routes all writes through its update pool and entity
//! services, which serialize writers per entity; embedders doing raw
//! multi-writer DML on one table should wrap it in their own lock.

use crate::error::{DbError, DbResult};
use crate::expr::Expr;
use crate::index::RowId;
use crate::lob::LobStore;
use crate::paged::{TableMeta, TableSnapshot};
use crate::query::{self, Query, QueryResult};
use crate::schema::Schema;
use crate::sql::{self, Statement};
use crate::stats::{DbStats, StatsSnapshot};
use crate::table::Table;
use crate::value::Value;
use crate::wal::{self, LogRecord, Wal, WalOptions};
use hedc_store::{Snapshot, Store, StoreOptions};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Which engine holds table rows and indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum StorageBackend {
    /// Rows in process-heap `Vec`s, indexes in `BTreeMap`s — the original
    /// backing. Fastest for datasets that fit comfortably in RAM.
    Memory,
    /// Rows and indexes in [`hedc_store`]'s paged copy-on-write B-trees:
    /// tables can exceed RAM (a page cache bounds residency) and readers
    /// run against MVCC snapshots that never block the writer.
    Paged,
}

impl Default for StorageBackend {
    fn default() -> Self {
        StorageBackend::Memory
    }
}

/// Declarative storage-engine configuration, embeddable in `HedcConfig`.
///
/// Durability is unchanged by the backend choice: the WAL above the
/// database remains the source of truth, and the paged store's backing
/// file is scratch space rebuilt from the WAL at open.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct StorageConfig {
    /// Backend selector.
    pub backend: StorageBackend,
    /// Page size in bytes for the paged backend (clamped by the store to
    /// `[128, 32768]`).
    pub page_size: usize,
    /// Page-cache budget in pages; `0` means use the process-wide default
    /// from [`crate::tuning::page_cache_pages`].
    pub cache_pages: usize,
    /// Backing file for the paged store. `None` uses an anonymous scratch
    /// file in the OS temp directory.
    pub store_path: Option<PathBuf>,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            backend: StorageBackend::Memory,
            page_size: 4096,
            cache_pages: 0,
            store_path: None,
        }
    }
}

impl StorageConfig {
    /// Convenience: a paged configuration with default page size and cache.
    pub fn paged() -> Self {
        StorageConfig {
            backend: StorageBackend::Paged,
            ..StorageConfig::default()
        }
    }
}

/// Options for [`Database::open`]: storage backend plus optional WAL.
#[derive(Debug, Clone, Default)]
pub struct DbOptions {
    /// Storage-engine configuration.
    pub storage: StorageConfig,
    /// Redo-log path; `None` disables durability (like
    /// [`Database::in_memory`]).
    pub wal_path: Option<PathBuf>,
    /// WAL durability options (group commit, fsync).
    pub wal: WalOptions,
}

#[derive(Debug, Default)]
struct Inner {
    tables: BTreeMap<String, Table>,
    lobs: LobStore,
    /// Shared paged store; `None` for the memory backend.
    store: Option<Arc<Store>>,
}

/// The key `name` is filed under in a map keyed by lower-cased table
/// names: `name` itself when it is already lower-case (every name the DM
/// generates is), so the usual lookup allocates nothing.
fn table_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl Inner {
    fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(&*table_key(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.tables
            .get_mut(&*table_key(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Construct a table on whichever backing this database uses.
    fn new_table(&self, schema: Schema) -> DbResult<Table> {
        match &self.store {
            Some(store) => Table::new_paged(schema, Arc::clone(store)),
            None => Ok(Table::new(schema)),
        }
    }
}

/// What queries on paged tables read: the state of the last statement
/// boundary. One store snapshot serves every table, so the store's pin
/// horizon is the oldest [`TableSnapshot`] handle still alive — a query in
/// flight, or one an embedder keeps — never the table written longest ago.
#[derive(Debug, Default)]
struct ReadView {
    /// `None` until a paged table exists (always, on the memory backend).
    snap: Option<Arc<Snapshot>>,
    tables: HashMap<String, Arc<TableMeta>>,
}

/// An embedded metadata database instance.
#[derive(Debug)]
pub struct Database {
    name: String,
    inner: RwLock<Inner>,
    stats: DbStats,
    wal: Mutex<Option<Wal>>,
    /// The published read view, moved forward by every mutating statement
    /// before it releases the catalog lock. Queries against paged tables
    /// are served from here without touching the catalog lock, so browse
    /// reads never wait behind ingest writers. Always empty for the memory
    /// backend. Lock order: `inner` before `published`.
    published: RwLock<ReadView>,
    /// The process-wide `metadb.*` latency histograms, resolved once per
    /// database so that no query takes the registry lock.
    query_hist: Arc<hedc_obs::Histogram>,
    compile_hist: Arc<hedc_obs::Histogram>,
    execute_hist: Arc<hedc_obs::Histogram>,
}

impl Database {
    fn assemble(name: String, inner: Inner, wal: Option<Wal>) -> Arc<Self> {
        let obs = hedc_obs::global();
        Arc::new(Database {
            name,
            inner: RwLock::new(inner),
            stats: DbStats::default(),
            wal: Mutex::new(wal),
            published: RwLock::new(ReadView::default()),
            query_hist: obs.histogram("metadb.query"),
            compile_hist: obs.histogram("metadb.compile"),
            execute_hist: obs.histogram("metadb.execute"),
        })
    }

    /// Create an in-memory database (no redo log).
    pub fn in_memory(name: impl Into<String>) -> Arc<Self> {
        Self::assemble(name.into(), Inner::default(), None)
    }

    /// Open a database backed by a redo log, replaying any committed history
    /// found at `path` first.
    pub fn with_wal(name: impl Into<String>, path: impl AsRef<Path>) -> DbResult<Arc<Self>> {
        Self::with_wal_opts(name, path, WalOptions::default())
    }

    /// Like [`Database::with_wal`], but with explicit WAL durability options
    /// (group commit, fsync). Recovery is identical for every option set:
    /// replay stops at the last complete commit marker.
    pub fn with_wal_opts(
        name: impl Into<String>,
        path: impl AsRef<Path>,
        options: WalOptions,
    ) -> DbResult<Arc<Self>> {
        Self::open(
            name,
            DbOptions {
                storage: StorageConfig::default(),
                wal_path: Some(path.as_ref().to_path_buf()),
                wal: options,
            },
        )
    }

    /// Open a database with explicit storage and durability options. This
    /// is the general constructor; [`Database::in_memory`] and
    /// [`Database::with_wal`] are shorthands for the memory backend.
    ///
    /// With [`StorageBackend::Paged`], rows and indexes live in a paged
    /// copy-on-write B-tree store whose backing file is *scratch*: any
    /// existing file at `storage.store_path` is replaced, and the durable
    /// contents are rebuilt by replaying the WAL (exactly as for the memory
    /// backend). Replay produces identical row ids on either backend, so a
    /// WAL written under one backend can be opened under the other.
    pub fn open(name: impl Into<String>, opts: DbOptions) -> DbResult<Arc<Self>> {
        let store = match opts.storage.backend {
            StorageBackend::Memory => None,
            StorageBackend::Paged => {
                let cache_pages = if opts.storage.cache_pages == 0 {
                    crate::tuning::page_cache_pages()
                } else {
                    opts.storage.cache_pages
                };
                let store = Store::open(StoreOptions {
                    path: opts.storage.store_path.clone(),
                    page_size: opts.storage.page_size,
                    cache_pages,
                })
                .map_err(|e| DbError::Storage(e.to_string()))?;
                Some(Arc::new(store))
            }
        };
        let mut inner = Inner {
            store,
            ..Inner::default()
        };
        let wal = match &opts.wal_path {
            Some(path) => {
                let records = wal::read_committed(path)?;
                for rec in records {
                    replay(&mut inner, rec)?;
                }
                Some(Wal::open_with(path, opts.wal)?)
            }
            None => None,
        };
        let db = Self::assemble(name.into(), inner, wal);
        // Publish every paged table recovered from the WAL so queries can
        // run lock-free from the start.
        let inner = db.inner.read();
        for name in inner.tables.keys() {
            db.publish(&inner, name);
        }
        drop(inner);
        Ok(db)
    }

    /// Flush any group-commit-deferred WAL batches to the OS. A no-op for
    /// in-memory databases or a WAL with nothing pending. Ingest barriers
    /// (end of a pipeline run, a journal checkpoint) call this so "pipeline
    /// finished" implies "journal durable" even with a large group-commit
    /// window.
    pub fn wal_flush(&self) -> DbResult<()> {
        if let Some(wal) = self.wal.lock().as_mut() {
            wal.flush()?;
        }
        Ok(())
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Open a connection.
    pub fn connect(self: &Arc<Self>) -> Connection {
        Connection {
            db: Arc::clone(self),
            txn: None,
        }
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.read().tables.keys().cloned().collect()
    }

    /// Whether `table` exists (names compare case-insensitively).
    pub fn has_table(&self, table: &str) -> bool {
        self.inner.read().tables.contains_key(&*table_key(table))
    }

    /// A table's schema, cloned.
    pub fn schema_of(&self, table: &str) -> DbResult<Schema> {
        Ok(self.inner.read().table(table)?.schema().clone())
    }

    /// Live row count of a table.
    pub fn row_count(&self, table: &str) -> DbResult<usize> {
        Ok(self.inner.read().table(table)?.len())
    }

    /// Snapshot of the monitoring counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn log(&self, records: &[LogRecord]) -> DbResult<()> {
        if let Some(wal) = self.wal.lock().as_mut() {
            wal.append_commit(records)?;
        }
        Ok(())
    }

    /// Move the read view to the state `table`'s last statement left. A
    /// no-op for memory-backed tables ([`Table::freeze`] returns `None`).
    /// `inner` is the catalog lock the statement ran under, still held: the
    /// snapshot and the table's counters then describe the same commit, and
    /// every view is a state some statement boundary had.
    fn publish(&self, inner: &Inner, table: &str) {
        let key = table_key(table);
        let Some(frozen) = inner.tables.get(&*key).and_then(Table::freeze) else {
            return;
        };
        let mut view = self.published.write();
        view.tables.insert(key.into_owned(), frozen.meta);
        let superseded = view.snap.replace(frozen.snap);
        drop(view);
        // Its last handle gone, the old snapshot hands its pages back to
        // the store: outside the view lock, readers do not wait for that.
        drop(superseded);
    }

    fn view_of(&self, table: &str) -> Option<TableSnapshot> {
        let view = self.published.read();
        let meta = Arc::clone(view.tables.get(&*table_key(table))?);
        let snap = view.snap.clone().expect("a published table has a snapshot");
        Some(TableSnapshot { snap, meta })
    }

    /// The published state of a paged table, if any. Queries use this to
    /// serve reads without the catalog lock; embedders can hold one to pin
    /// a consistent view across several queries — and with it every page
    /// the store supersedes meanwhile, so not for longer than that.
    pub fn snapshot(&self, table: &str) -> Option<Arc<TableSnapshot>> {
        self.view_of(table).map(Arc::new)
    }

    /// Compile then run `q` against `source`, feeding `metadb.compile`
    /// (bind + access-path choice) and `metadb.execute` (fetch, filter,
    /// sort, project) once each.
    fn run_query<S: query::RowSource + ?Sized>(
        &self,
        source: &S,
        q: &Query,
    ) -> DbResult<QueryResult> {
        let started = std::time::Instant::now();
        let plan = query::compile(source, q)?;
        let compiled = std::time::Instant::now();
        self.compile_hist.record(compiled - started);
        let out = query::run(source, q, plan);
        self.execute_hist.record(compiled.elapsed());
        out
    }
}

fn replay(inner: &mut Inner, rec: LogRecord) -> DbResult<()> {
    match rec {
        LogRecord::CreateTable { schema } => {
            let key = schema.table.to_ascii_lowercase();
            if inner.tables.contains_key(&key) {
                return Err(DbError::CorruptLog(format!(
                    "duplicate CREATE TABLE {key} in log"
                )));
            }
            let table = inner.new_table(schema)?;
            inner.tables.insert(key, table);
        }
        LogRecord::CreateIndex {
            table,
            name,
            columns,
            unique,
        } => {
            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
            inner.table_mut(&table)?.create_index(name, &cols, unique)?;
        }
        LogRecord::Insert {
            table,
            row_id,
            values,
        } => {
            inner.table_mut(&table)?.insert_at(row_id, values)?;
        }
        LogRecord::Update {
            table,
            row_id,
            values,
        } => {
            inner.table_mut(&table)?.update(row_id, values)?;
        }
        LogRecord::Delete { table, row_id } => {
            inner.table_mut(&table)?.delete(row_id)?;
        }
        LogRecord::Commit => {}
    }
    Ok(())
}

/// Undo record for rollback.
#[derive(Debug)]
enum Undo {
    Insert {
        table: String,
        row_id: RowId,
    },
    Update {
        table: String,
        row_id: RowId,
        old: Vec<Value>,
    },
    Delete {
        table: String,
        row_id: RowId,
        old: Vec<Value>,
    },
}

#[derive(Debug, Default)]
struct Txn {
    undo: Vec<Undo>,
    redo: Vec<LogRecord>,
}

/// Result of executing one SQL statement.
#[derive(Debug)]
pub enum SqlOutput {
    /// A SELECT's result set.
    Rows(QueryResult),
    /// Number of rows affected by DML.
    Affected(usize),
    /// DDL or transaction control: nothing to return.
    Done,
}

impl SqlOutput {
    /// Unwrap a result set; panics on DML/DDL output (test convenience).
    pub fn rows(self) -> QueryResult {
        match self {
            SqlOutput::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// Unwrap an affected-row count.
    pub fn affected(self) -> usize {
        match self {
            SqlOutput::Affected(n) => n,
            other => panic!("expected affected count, got {other:?}"),
        }
    }
}

/// A connection: the unit of transaction scope. Cheap to create, but the
/// paper found connection creation expensive enough to pool (§5.3) — the
/// pool in [`crate::ConnectionPool`] models that cost explicitly.
pub struct Connection {
    db: Arc<Database>,
    txn: Option<Txn>,
}

impl Connection {
    /// The owning database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Whether a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Begin a transaction. Nested transactions are rejected.
    pub fn begin(&mut self) -> DbResult<()> {
        if self.txn.is_some() {
            return Err(DbError::Txn("transaction already open".into()));
        }
        self.txn = Some(Txn::default());
        Ok(())
    }

    /// Commit the open transaction, flushing its redo records to the WAL.
    pub fn commit(&mut self) -> DbResult<()> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| DbError::Txn("commit without begin".into()))?;
        self.db.log(&txn.redo)?;
        DbStats::bump(&self.db.stats.commits);
        Ok(())
    }

    /// Roll back the open transaction, undoing its effects in reverse order.
    pub fn rollback(&mut self) -> DbResult<()> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| DbError::Txn("rollback without begin".into()))?;
        let mut touched: Vec<String> = Vec::new();
        let mut inner = self.db.inner.write();
        for undo in txn.undo.into_iter().rev() {
            match undo {
                Undo::Insert { table, row_id } => {
                    inner.table_mut(&table)?.delete(row_id)?;
                    touched.push(table);
                }
                Undo::Update { table, row_id, old } => {
                    inner.table_mut(&table)?.update(row_id, old)?;
                    touched.push(table);
                }
                Undo::Delete { table, row_id, old } => {
                    inner.table_mut(&table)?.insert_at(row_id, old)?;
                    touched.push(table);
                }
            }
        }
        touched.sort();
        touched.dedup();
        for table in &touched {
            self.db.publish(&inner, table);
        }
        drop(inner);
        DbStats::bump(&self.db.stats.rollbacks);
        Ok(())
    }

    fn record(&mut self, undo: Undo, redo: LogRecord) -> DbResult<()> {
        match &mut self.txn {
            Some(t) => {
                t.undo.push(undo);
                t.redo.push(redo);
                Ok(())
            }
            // Auto-commit: log immediately.
            None => self.db.log(std::slice::from_ref(&redo)),
        }
    }

    /// Create a table. DDL auto-commits and is not undone by rollback.
    pub fn create_table(&mut self, schema: Schema) -> DbResult<()> {
        {
            let mut inner = self.db.inner.write();
            let key = schema.table.to_ascii_lowercase();
            if inner.tables.contains_key(&key) {
                return Err(DbError::TableExists(schema.table));
            }
            let table = inner.new_table(schema.clone())?;
            inner.tables.insert(key, table);
            self.db.publish(&inner, &schema.table);
        }
        self.db.log(&[LogRecord::CreateTable { schema }])
    }

    /// Create an index. DDL auto-commits.
    pub fn create_index(
        &mut self,
        table: &str,
        name: &str,
        columns: &[&str],
        unique: bool,
    ) -> DbResult<()> {
        {
            let mut inner = self.db.inner.write();
            inner
                .table_mut(table)?
                .create_index(name, columns, unique)?;
            self.db.publish(&inner, table);
        }
        self.db.log(&[LogRecord::CreateIndex {
            table: table.to_string(),
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            unique,
        }])
    }

    /// Insert a row, returning its id.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> DbResult<RowId> {
        let (row_id, stored) = {
            let mut inner = self.db.inner.write();
            let t = inner.table_mut(table)?;
            let id = t.insert(values)?;
            let stored = t.get(id)?.into_owned();
            self.db.publish(&inner, table);
            (id, stored)
        };
        DbStats::bump(&self.db.stats.edits);
        self.record(
            Undo::Insert {
                table: table.to_string(),
                row_id,
            },
            LogRecord::Insert {
                table: table.to_string(),
                row_id,
                values: stored,
            },
        )?;
        Ok(row_id)
    }

    /// Fetch one row by id.
    pub fn get_row(&self, table: &str, row_id: RowId) -> DbResult<Vec<Value>> {
        let inner = self.db.inner.read();
        Ok(inner.table(table)?.get(row_id)?.to_vec())
    }

    /// Run a structured query.
    ///
    /// Paged tables are served from the published read view without
    /// taking the catalog lock, so reads never wait behind a writer; the
    /// memory backend reads under the shared catalog lock as before.
    pub fn query(&self, q: &Query) -> DbResult<QueryResult> {
        let span = hedc_obs::Span::child("metadb.query");
        let started = std::time::Instant::now();
        let result = match self.db.view_of(&q.table) {
            Some(s) => self.db.run_query(&s, q)?,
            None => {
                let inner = self.db.inner.read();
                self.db.run_query(inner.table(&q.table)?, q)?
            }
        };
        self.db.query_hist.record(started.elapsed());
        drop(span);
        let s = &self.db.stats;
        DbStats::bump(&s.queries);
        DbStats::add(&s.rows_scanned, result.stats.rows_scanned as u64);
        DbStats::add(&s.rows_returned, result.stats.rows_returned as u64);
        DbStats::add(&s.rows_sorted, result.stats.rows_sorted as u64);
        match result.stats.access {
            query::AccessPath::FullScan => DbStats::bump(&s.full_scans),
            query::AccessPath::Index { .. } | query::AccessPath::IndexMultiPoint { .. } => {
                DbStats::bump(&s.index_hits)
            }
        }
        Ok(result)
    }

    /// Update all rows matching `filter` (or every row when `None`),
    /// assigning each `(column, expression)` pair. Returns rows affected.
    pub fn update_where(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        filter: Option<Expr>,
    ) -> DbResult<usize> {
        let updates: Vec<(RowId, Vec<Value>, Vec<Value>)> = {
            let mut inner = self.db.inner.write();
            let t = inner.table_mut(table)?;
            let schema = t.schema().clone();
            let set_cols: Vec<(usize, Expr)> = sets
                .iter()
                .map(|(c, e)| Ok((schema.require_column(c)?, e.bind(&schema)?)))
                .collect::<DbResult<_>>()?;
            let ids = matching_ids(t, filter.as_ref())?;
            // Evaluate every row's new values before touching the table:
            // an eval or type error aborts with no effects at all, and the
            // apply becomes one batched statement — a single store
            // transaction on the paged backing instead of a commit per
            // row. `update_batch` is itself all-or-nothing, so a unique
            // violation mid-batch also leaves no partial effects.
            let mut batch: Vec<(RowId, Vec<Value>)> = Vec::with_capacity(ids.len());
            for id in ids {
                let old = t.get(id)?.to_vec();
                let mut new_row = old.clone();
                for (col, expr) in &set_cols {
                    new_row[*col] = expr.eval(&old)?;
                }
                batch.push((id, new_row));
            }
            let olds = t.update_batch(batch.clone())?;
            self.db.publish(&inner, table);
            batch
                .into_iter()
                .zip(olds)
                .map(|((id, new_row), old)| (id, old, new_row))
                .collect()
        };
        let n = updates.len();
        for (row_id, old, new_row) in updates {
            DbStats::bump(&self.db.stats.edits);
            self.record(
                Undo::Update {
                    table: table.to_string(),
                    row_id,
                    old,
                },
                LogRecord::Update {
                    table: table.to_string(),
                    row_id,
                    values: new_row,
                },
            )?;
        }
        Ok(n)
    }

    /// Delete all rows matching `filter` (or every row when `None`).
    pub fn delete_where(&mut self, table: &str, filter: Option<Expr>) -> DbResult<usize> {
        let deleted: Vec<(RowId, Vec<Value>)> = {
            let mut inner = self.db.inner.write();
            let t = inner.table_mut(table)?;
            let ids = matching_ids(t, filter.as_ref())?;
            let mut out = Vec::with_capacity(ids.len());
            for id in ids {
                let old = t.delete(id)?;
                out.push((id, old));
            }
            self.db.publish(&inner, table);
            out
        };
        let n = deleted.len();
        for (row_id, old) in deleted {
            DbStats::bump(&self.db.stats.edits);
            self.record(
                Undo::Delete {
                    table: table.to_string(),
                    row_id,
                    old,
                },
                LogRecord::Delete {
                    table: table.to_string(),
                    row_id,
                },
            )?;
        }
        Ok(n)
    }

    /// Parse and execute one SQL statement — the front end for ad-hoc text
    /// and DDL. A `SELECT` lowers to the same [`Query`] object the DM builds
    /// and runs through [`Connection::query`].
    pub fn execute_sql(&mut self, sql_text: &str) -> DbResult<SqlOutput> {
        self.execute_statement(sql::parse(sql_text)?)
    }

    /// Execute an already-parsed statement.
    pub fn execute_statement(&mut self, stmt: Statement) -> DbResult<SqlOutput> {
        match stmt {
            Statement::CreateTable(schema) => {
                self.create_table(schema)?;
                Ok(SqlOutput::Done)
            }
            Statement::CreateIndex {
                table,
                name,
                columns,
                unique,
            } => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.create_index(&table, &name, &cols, unique)?;
                Ok(SqlOutput::Done)
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                let mut count = 0usize;
                for row in values {
                    let full = reorder_insert(&self.db.schema_of(&table)?, &columns, row)?;
                    self.insert(&table, full)?;
                    count += 1;
                }
                Ok(SqlOutput::Affected(count))
            }
            Statement::Select(q) => Ok(SqlOutput::Rows(self.query(&q)?)),
            Statement::Update {
                table,
                sets,
                filter,
            } => {
                let n = self.update_where(&table, &sets, filter)?;
                Ok(SqlOutput::Affected(n))
            }
            Statement::Delete { table, filter } => {
                let n = self.delete_where(&table, filter)?;
                Ok(SqlOutput::Affected(n))
            }
            Statement::Begin => {
                self.begin()?;
                Ok(SqlOutput::Done)
            }
            Statement::Commit => {
                self.commit()?;
                Ok(SqlOutput::Done)
            }
            Statement::Rollback => {
                self.rollback()?;
                Ok(SqlOutput::Done)
            }
        }
    }

    // ---- LOB access (ablation support, §4.2) ------------------------------

    /// Store a LOB; not transactional and not logged (ablation only).
    pub fn lob_put(&mut self, data: &[u8]) -> u64 {
        DbStats::add(&self.db.stats.lob_bytes_written, data.len() as u64);
        self.db.inner.write().lobs.put(data)
    }

    /// Read a whole LOB.
    pub fn lob_get(&self, id: u64) -> DbResult<Vec<u8>> {
        let data = self.db.inner.read().lobs.get(id)?;
        DbStats::add(&self.db.stats.lob_bytes_read, data.len() as u64);
        Ok(data)
    }

    /// Read a LOB byte range.
    pub fn lob_get_range(&self, id: u64, offset: usize, len: usize) -> DbResult<Vec<u8>> {
        let data = self.db.inner.read().lobs.get_range(id, offset, len)?;
        DbStats::add(&self.db.stats.lob_bytes_read, data.len() as u64);
        Ok(data)
    }

    /// Delete a LOB.
    pub fn lob_delete(&mut self, id: u64) -> DbResult<()> {
        self.db.inner.write().lobs.delete(id)
    }
}

/// Row ids matching a filter, using the planner's access-path choice.
fn matching_ids(t: &Table, filter: Option<&Expr>) -> DbResult<Vec<RowId>> {
    match filter {
        None => Ok(t.scan_ids()),
        Some(f) => {
            let bound = f.bind(t.schema())?;
            let (candidates, _) = query::plan_candidates(t, &bound);
            let mut out = Vec::new();
            for id in candidates {
                if let Ok(row) = t.get(id) {
                    if bound.eval_bool(&row)? {
                        out.push(id);
                    }
                }
            }
            Ok(out)
        }
    }
}

/// Expand an `INSERT (cols) VALUES (...)` row to full schema arity, filling
/// omitted columns with NULL (defaults are applied by `check_row`).
fn reorder_insert(
    schema: &Schema,
    columns: &Option<Vec<String>>,
    values: Vec<Value>,
) -> DbResult<Vec<Value>> {
    match columns {
        None => Ok(values),
        Some(cols) => {
            if cols.len() != values.len() {
                return Err(DbError::ArityMismatch {
                    expected: cols.len(),
                    got: values.len(),
                });
            }
            let mut full = vec![Value::Null; schema.arity()];
            for (c, v) in cols.iter().zip(values) {
                let i = schema.require_column(c)?;
                full[i] = v;
            }
            Ok(full)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(
            "hle",
            vec![
                ColumnDef::new("id", DataType::Int).not_null(),
                ColumnDef::new("time_start", DataType::Timestamp).not_null(),
                ColumnDef::new("label", DataType::Text),
            ],
        )
        .primary_key(&["id"])
    }

    fn seeded() -> (Arc<Database>, Connection) {
        let db = Database::in_memory("test");
        let mut conn = db.connect();
        conn.create_table(schema()).unwrap();
        for i in 0..10i64 {
            conn.insert(
                "hle",
                vec![
                    Value::Int(i),
                    Value::Int(i * 100),
                    Value::Text(format!("e{i}")),
                ],
            )
            .unwrap();
        }
        (db, conn)
    }

    #[test]
    fn insert_query_roundtrip() {
        let (_db, conn) = seeded();
        let r = conn
            .query(&Query::table("hle").filter(Expr::eq("id", 3)))
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][2], Value::Text("e3".into()));
    }

    #[test]
    fn update_where_applies_expressions() {
        let (_db, mut conn) = seeded();
        let n = conn
            .update_where(
                "hle",
                &[(
                    "label".to_string(),
                    Expr::Literal(Value::Text("bulk".into())),
                )],
                Some(Expr::cmp("id", crate::expr::CmpOp::Lt, 3)),
            )
            .unwrap();
        assert_eq!(n, 3);
        let r = conn
            .query(&Query::table("hle").filter(Expr::eq("label", "bulk")))
            .unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn delete_where_and_counts() {
        let (db, mut conn) = seeded();
        let n = conn
            .delete_where("hle", Some(Expr::cmp("id", crate::expr::CmpOp::Ge, 5)))
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(db.row_count("hle").unwrap(), 5);
    }

    #[test]
    fn failed_update_statement_leaves_no_partial_effects() {
        let (db, mut conn) = seeded();
        // `SET id = 5` collides with the existing pk 5 on the second row
        // it touches; the first row's update must be compensated.
        let err = conn
            .update_where(
                "hle",
                &[("id".to_string(), Expr::Literal(Value::Int(5)))],
                Some(Expr::cmp("id", crate::expr::CmpOp::Lt, 3)),
            )
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        // All original ids still present exactly once.
        for i in 0..10i64 {
            let r = conn
                .query(&Query::table("hle").filter(Expr::eq("id", i)))
                .unwrap();
            assert_eq!(r.rows.len(), 1, "id {i} intact");
        }
        let _ = db;
    }

    #[test]
    fn rollback_undoes_everything_in_reverse() {
        let (db, mut conn) = seeded();
        conn.begin().unwrap();
        conn.insert("hle", vec![Value::Int(100), Value::Int(1), Value::Null])
            .unwrap();
        conn.update_where(
            "hle",
            &[("label".to_string(), Expr::Literal(Value::Text("x".into())))],
            Some(Expr::eq("id", 1)),
        )
        .unwrap();
        conn.delete_where("hle", Some(Expr::eq("id", 2))).unwrap();
        assert_eq!(db.row_count("hle").unwrap(), 10);
        conn.rollback().unwrap();
        assert_eq!(db.row_count("hle").unwrap(), 10);
        let r = conn
            .query(&Query::table("hle").filter(Expr::eq("id", 1)))
            .unwrap();
        assert_eq!(r.rows[0][2], Value::Text("e1".into()));
        let r = conn
            .query(&Query::table("hle").filter(Expr::eq("id", 2)))
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let r = conn
            .query(&Query::table("hle").filter(Expr::eq("id", 100)))
            .unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn commit_then_rollback_errors() {
        let (_db, mut conn) = seeded();
        conn.begin().unwrap();
        conn.commit().unwrap();
        assert!(conn.rollback().is_err());
        assert!(conn.commit().is_err());
    }

    #[test]
    fn nested_begin_rejected() {
        let (_db, mut conn) = seeded();
        conn.begin().unwrap();
        assert!(conn.begin().is_err());
    }

    #[test]
    fn stats_accumulate() {
        let (db, mut conn) = seeded();
        let before = db.stats();
        conn.query(&Query::table("hle").filter(Expr::eq("id", 1)))
            .unwrap();
        conn.insert("hle", vec![Value::Int(50), Value::Int(1), Value::Null])
            .unwrap();
        let d = db.stats().since(&before);
        assert_eq!(d.queries, 1);
        assert_eq!(d.edits, 1);
        assert_eq!(d.index_hits, 1);
    }

    #[test]
    fn wal_recovery_restores_state() {
        let mut path = std::env::temp_dir();
        path.push(format!("hedc-metadb-recover-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::with_wal("d", &path).unwrap();
            let mut conn = db.connect();
            conn.create_table(schema()).unwrap();
            conn.create_index("hle", "hle_time", &["time_start"], false)
                .unwrap();
            for i in 0..5i64 {
                conn.insert("hle", vec![Value::Int(i), Value::Int(i), Value::Null])
                    .unwrap();
            }
            conn.delete_where("hle", Some(Expr::eq("id", 3))).unwrap();
            conn.update_where(
                "hle",
                &[("label".to_string(), Expr::Literal(Value::Text("r".into())))],
                Some(Expr::eq("id", 4)),
            )
            .unwrap();
            // Rolled-back txn must not survive recovery.
            conn.begin().unwrap();
            conn.insert("hle", vec![Value::Int(99), Value::Int(9), Value::Null])
                .unwrap();
            conn.rollback().unwrap();
        }
        let db = Database::with_wal("d", &path).unwrap();
        assert_eq!(db.row_count("hle").unwrap(), 4);
        let conn = db.connect();
        let r = conn
            .query(&Query::table("hle").filter(Expr::eq("id", 4)))
            .unwrap();
        assert_eq!(r.rows[0][2], Value::Text("r".into()));
        let r = conn
            .query(&Query::table("hle").filter(Expr::eq("id", 99)))
            .unwrap();
        assert!(r.rows.is_empty());
        // Recovered index is functional.
        let r = conn
            .query(&Query::table("hle").filter(Expr::between("time_start", 0, 2)))
            .unwrap();
        assert!(matches!(r.stats.access, query::AccessPath::Index { .. }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn committed_txn_survives_recovery() {
        let mut path = std::env::temp_dir();
        path.push(format!("hedc-metadb-commit-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::with_wal("d", &path).unwrap();
            let mut conn = db.connect();
            conn.create_table(schema()).unwrap();
            conn.begin().unwrap();
            conn.insert("hle", vec![Value::Int(1), Value::Int(1), Value::Null])
                .unwrap();
            conn.commit().unwrap();
        }
        let db = Database::with_wal("d", &path).unwrap();
        assert_eq!(db.row_count("hle").unwrap(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    fn paged_opts() -> DbOptions {
        DbOptions {
            storage: StorageConfig {
                backend: StorageBackend::Paged,
                page_size: 512,
                cache_pages: 64,
                store_path: None,
            },
            ..DbOptions::default()
        }
    }

    fn seeded_paged() -> (Arc<Database>, Connection) {
        let db = Database::open("test-paged", paged_opts()).unwrap();
        let mut conn = db.connect();
        conn.create_table(schema()).unwrap();
        for i in 0..10i64 {
            conn.insert(
                "hle",
                vec![
                    Value::Int(i),
                    Value::Int(i * 100),
                    Value::Text(format!("e{i}")),
                ],
            )
            .unwrap();
        }
        (db, conn)
    }

    /// The full statement battery behaves identically on both backends:
    /// same affected counts, same surviving rows, same rollback results.
    #[test]
    fn paged_statements_match_memory() {
        let (mem_db, mut mem) = seeded();
        let (pag_db, mut pag) = seeded_paged();
        let run = |conn: &mut Connection| -> Vec<String> {
            let mut log = Vec::new();
            let n = conn
                .update_where(
                    "hle",
                    &[("label".to_string(), Expr::Literal(Value::Text("u".into())))],
                    Some(Expr::cmp("id", crate::expr::CmpOp::Lt, 4)),
                )
                .unwrap();
            log.push(format!("update {n}"));
            let n = conn
                .delete_where("hle", Some(Expr::cmp("id", crate::expr::CmpOp::Ge, 7)))
                .unwrap();
            log.push(format!("delete {n}"));
            conn.begin().unwrap();
            conn.insert("hle", vec![Value::Int(50), Value::Int(1), Value::Null])
                .unwrap();
            conn.rollback().unwrap();
            let r = conn
                .query(&Query::table("hle").order_by("id", crate::query::OrderDir::Asc))
                .unwrap();
            for row in &r.rows {
                log.push(format!("{row:?}"));
            }
            log
        };
        assert_eq!(run(&mut mem), run(&mut pag));
        assert_eq!(
            mem_db.row_count("hle").unwrap(),
            pag_db.row_count("hle").unwrap()
        );
    }

    /// Reads on a paged table come from the published snapshot: a snapshot
    /// handle taken before a write keeps serving the old state, while new
    /// queries see the write immediately.
    #[test]
    fn paged_published_snapshot_semantics() {
        let (db, mut conn) = seeded_paged();
        let pinned = db.snapshot("hle").expect("paged table publishes");
        conn.insert("hle", vec![Value::Int(77), Value::Int(7), Value::Null])
            .unwrap();
        assert_eq!(pinned.len(), 10);
        assert_eq!(db.snapshot("hle").unwrap().len(), 11);
        let r = conn
            .query(&Query::table("hle").filter(Expr::eq("id", 77)))
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        // Memory backend never publishes.
        let (mdb, _mconn) = seeded();
        assert!(mdb.snapshot("hle").is_none());
    }

    /// A WAL written under the memory backend recovers byte-identically
    /// (same rows, same row ids) when reopened under the paged backend.
    #[test]
    fn paged_recovery_from_memory_backend_wal() {
        let mut path = std::env::temp_dir();
        path.push(format!("hedc-metadb-xbackend-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::with_wal("d", &path).unwrap();
            let mut conn = db.connect();
            conn.create_table(schema()).unwrap();
            conn.create_index("hle", "hle_time", &["time_start"], false)
                .unwrap();
            for i in 0..20i64 {
                conn.insert(
                    "hle",
                    vec![
                        Value::Int(i),
                        Value::Int(i * 7),
                        Value::Text(format!("e{i}")),
                    ],
                )
                .unwrap();
            }
            conn.delete_where("hle", Some(Expr::eq("id", 5))).unwrap();
            conn.insert("hle", vec![Value::Int(100), Value::Int(3), Value::Null])
                .unwrap();
        }
        let db = Database::open(
            "d",
            DbOptions {
                wal_path: Some(path.clone()),
                ..paged_opts()
            },
        )
        .unwrap();
        assert_eq!(db.row_count("hle").unwrap(), 20);
        let conn = db.connect();
        // Row 100 reused slot 5 (LIFO free list) — identical on both backends.
        let r = conn
            .query(&Query::table("hle").filter(Expr::eq("id", 100)))
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let r = conn
            .query(&Query::table("hle").filter(Expr::between("time_start", 0, 35)))
            .unwrap();
        assert!(matches!(r.stats.access, query::AccessPath::Index { .. }));
        // t = 0, 7, 14, 21, 28 plus t = 3 from row 100; t = 35 was deleted.
        assert_eq!(r.rows.len(), 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lob_roundtrip_with_stats() {
        let db = Database::in_memory("lobs");
        let mut conn = db.connect();
        let id = conn.lob_put(&[1, 2, 3, 4]);
        assert_eq!(conn.lob_get(id).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(conn.lob_get_range(id, 1, 2).unwrap(), vec![2, 3]);
        let s = db.stats();
        assert_eq!(s.lob_bytes_written, 4);
        assert_eq!(s.lob_bytes_read, 6);
        conn.lob_delete(id).unwrap();
        assert!(conn.lob_get(id).is_err());
    }
}
