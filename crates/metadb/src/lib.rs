//! # hedc-metadb — the embedded metadata database
//!
//! HEDC's central design choice (§4.1 of the paper) is that the **metadata**
//! — tuples describing events, analyses, catalogs, users, archives — lives
//! in a relational database, while the **data** (raw telemetry, derived
//! images) lives in a file system reachable only *through* that metadata.
//! This crate is the relational side of that split: an embedded engine with
//! typed schemas, B-tree indexes, a planner that prefers indexed access
//! paths, transactions with a redo log, a small SQL dialect, and the split
//! connection pools the paper describes in §5.3.
//!
//! It deliberately implements the subset of a commercial DBMS that HEDC's
//! design actually exercises — indexed range queries over a few hundred
//! thousand tuples, count/aggregate queries, short transactions — rather
//! than a general-purpose SQL system.
//!
//! ## Quick tour
//!
//! ```
//! use hedc_metadb::{Database, Query, Expr, Value};
//!
//! let db = Database::in_memory("demo");
//! let mut conn = db.connect();
//! conn.execute_sql("CREATE TABLE hle (id INT NOT NULL, t0 TIMESTAMP, label TEXT, PRIMARY KEY (id))").unwrap();
//! conn.execute_sql("CREATE INDEX hle_t0 ON hle (t0)").unwrap();
//! conn.execute_sql("INSERT INTO hle VALUES (1, 1000, 'flare'), (2, 2000, 'grb')").unwrap();
//!
//! // Structured query objects (what the DM uses)...
//! let r = conn.query(&Query::table("hle").filter(Expr::between("t0", 500, 1500))).unwrap();
//! assert_eq!(r.rows.len(), 1);
//!
//! // ...and SQL text (what advanced users submit) share one executor.
//! let r = conn.execute_sql("SELECT label FROM hle WHERE id = 2").unwrap().rows();
//! assert_eq!(r.rows[0][0], Value::Text("grb".into()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod db;
mod error;
mod expr;
mod fingerprint;
mod index;
pub mod keycode;
mod lob;
mod matview;
mod paged;
mod pool;
mod query;
mod schema;
mod sql;
mod stats;
mod table;
pub mod tuning;
mod value;
mod wal;

pub use db::{Connection, Database, DbOptions, SqlOutput, StorageBackend, StorageConfig};
pub use error::{DbError, DbResult};
pub use expr::{like_match, ArithOp, CmpOp, ColumnRange, Expr};
pub use index::{Index, RowId};
pub use lob::{LobStore, DEFAULT_CHUNK};
pub use matview::MatViewManager;
pub use paged::TableSnapshot;
pub use pool::{ConnectionPool, PoolKind, PoolSet, PoolStats, PooledConnection};
pub use query::{AccessPath, AggFunc, ExecStats, OrderDir, Projection, Query, QueryResult};
pub use schema::{ColumnDef, Schema};
pub use sql::{parse, query_to_sql, Statement};
pub use stats::{DbStats, StatsSnapshot};
pub use table::{IndexRef, Table};
pub use value::{DataType, Value};
pub use wal::{read_committed, LogRecord, Wal, WalOptions};
