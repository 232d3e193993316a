//! Connection pooling.
//!
//! "Creating database connections and user sessions are the two most
//! expensive parts of request processing" (§5.3). HEDC therefore pools
//! connections, and splits the pool into separate pools for query
//! processing, updates, and user authentication, releasing connections
//! "immediately ... after the result set has been copied".
//!
//! Real connection setup cost (network round-trips, authentication against
//! the DBMS) does not exist for an embedded engine, so the pool models it
//! explicitly with a configurable `creation_cost`; the pooling ablation
//! bench (A4) measures throughput with the pool on and off under that cost.

use crate::db::{Connection, Database};
use crate::error::{DbError, DbResult};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which of the three split pools a caller wants (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Read-only query processing.
    Query,
    /// DML / updates.
    Update,
    /// User authentication checks.
    Auth,
}

/// Pool usage statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Connections handed out from the idle list (cheap path).
    pub reused: u64,
    /// Connections created on demand (pays `creation_cost`).
    pub created: u64,
    /// Acquisitions that had to block waiting for a free slot.
    pub waited: u64,
}

struct PoolState {
    idle: Vec<Connection>,
    outstanding: usize,
}

/// A bounded pool of [`Connection`]s to one database.
pub struct ConnectionPool {
    db: Arc<Database>,
    capacity: usize,
    creation_cost: Duration,
    state: Mutex<PoolState>,
    available: Condvar,
    reused: AtomicU64,
    created: AtomicU64,
    waited: AtomicU64,
    /// Saturation gauge: checked-out connections across all pools in the
    /// process (`db.pool.in_use`), sampled by the saturation ring.
    in_use_gauge: Arc<hedc_obs::Gauge>,
    acquire_hist: Arc<hedc_obs::Histogram>,
}

impl ConnectionPool {
    /// Create a pool with `capacity` slots. `creation_cost` is charged (by
    /// sleeping) each time a connection must be created rather than reused,
    /// modeling the expensive setup the paper pools away.
    pub fn new(db: Arc<Database>, capacity: usize, creation_cost: Duration) -> Arc<Self> {
        assert!(capacity > 0, "pool capacity must be positive");
        Arc::new(ConnectionPool {
            db,
            capacity,
            creation_cost,
            state: Mutex::new(PoolState {
                idle: Vec::new(),
                outstanding: 0,
            }),
            available: Condvar::new(),
            reused: AtomicU64::new(0),
            created: AtomicU64::new(0),
            waited: AtomicU64::new(0),
            in_use_gauge: hedc_obs::global().gauge("db.pool.in_use"),
            acquire_hist: hedc_obs::global().histogram("db.pool.acquire"),
        })
    }

    /// Pool capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The pooled database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Usage statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            reused: self.reused.load(Ordering::Relaxed),
            created: self.created.load(Ordering::Relaxed),
            waited: self.waited.load(Ordering::Relaxed),
        }
    }

    /// Currently checked-out connections.
    pub fn in_use(&self) -> usize {
        self.state.lock().outstanding
    }

    /// Acquire a connection, blocking until one is free. Wait time feeds the
    /// `db.pool.acquire` latency histogram; acquisitions that had to block
    /// are additionally logged as `pool_stall` events with the wait and the
    /// pool's database, under the ambient trace.
    pub fn acquire(self: &Arc<Self>) -> PooledConnection {
        let started = std::time::Instant::now();
        let mut state = self.state.lock();
        let mut waited = false;
        while state.idle.is_empty() && state.outstanding >= self.capacity {
            waited = true;
            self.available.wait(&mut state);
        }
        if waited {
            self.waited.fetch_add(1, Ordering::Relaxed);
        }
        let wait = started.elapsed();
        self.acquire_hist.record(wait);
        // Inside a traced request the wait also becomes a span, so the
        // critical-path analyzer can attribute it (no-op outside traces).
        hedc_obs::record_interval("db.pool.acquire", started);
        if waited {
            hedc_obs::emit(
                hedc_obs::events::kind::POOL_STALL,
                format!("db={} waited_us={}", self.db.name(), wait.as_micros()),
            );
        }
        self.take_locked(state)
    }

    /// Acquire without blocking; [`DbError::PoolExhausted`] when full.
    pub fn try_acquire(self: &Arc<Self>) -> DbResult<PooledConnection> {
        let state = self.state.lock();
        if state.idle.is_empty() && state.outstanding >= self.capacity {
            return Err(DbError::PoolExhausted);
        }
        Ok(self.take_locked(state))
    }

    fn take_locked(
        self: &Arc<Self>,
        mut state: parking_lot::MutexGuard<'_, PoolState>,
    ) -> PooledConnection {
        state.outstanding += 1;
        self.in_use_gauge.add(1);
        let conn = match state.idle.pop() {
            Some(c) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                drop(state);
                c
            }
            None => {
                drop(state);
                self.created.fetch_add(1, Ordering::Relaxed);
                if !self.creation_cost.is_zero() {
                    std::thread::sleep(self.creation_cost);
                }
                self.db.connect()
            }
        };
        PooledConnection {
            pool: Arc::clone(self),
            conn: Some(conn),
        }
    }

    fn release(&self, mut conn: Connection) {
        // A connection returned mid-transaction is rolled back before reuse,
        // mirroring what real pools do to avoid leaking transaction state.
        if conn.in_txn() {
            let _ = conn.rollback();
        }
        let mut state = self.state.lock();
        state.outstanding -= 1;
        self.in_use_gauge.add(-1);
        state.idle.push(conn);
        drop(state);
        self.available.notify_one();
    }
}

/// A checked-out connection; returns itself to the pool on drop.
pub struct PooledConnection {
    pool: Arc<ConnectionPool>,
    conn: Option<Connection>,
}

impl std::ops::Deref for PooledConnection {
    type Target = Connection;
    fn deref(&self) -> &Connection {
        self.conn.as_ref().expect("connection present until drop")
    }
}

impl std::ops::DerefMut for PooledConnection {
    fn deref_mut(&mut self) -> &mut Connection {
        self.conn.as_mut().expect("connection present until drop")
    }
}

impl Drop for PooledConnection {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.pool.release(conn);
        }
    }
}

/// The paper's split pool: query / update / auth (§5.3).
pub struct PoolSet {
    query: Arc<ConnectionPool>,
    update: Arc<ConnectionPool>,
    auth: Arc<ConnectionPool>,
}

impl PoolSet {
    /// Build the three pools against one database.
    pub fn new(
        db: &Arc<Database>,
        query_cap: usize,
        update_cap: usize,
        auth_cap: usize,
        creation_cost: Duration,
    ) -> Self {
        PoolSet {
            query: ConnectionPool::new(Arc::clone(db), query_cap, creation_cost),
            update: ConnectionPool::new(Arc::clone(db), update_cap, creation_cost),
            auth: ConnectionPool::new(Arc::clone(db), auth_cap, creation_cost),
        }
    }

    /// Get the pool for a given use.
    pub fn pool(&self, kind: PoolKind) -> &Arc<ConnectionPool> {
        match kind {
            PoolKind::Query => &self.query,
            PoolKind::Update => &self.update,
            PoolKind::Auth => &self.auth,
        }
    }

    /// Acquire from the pool matching `kind`.
    pub fn acquire(&self, kind: PoolKind) -> PooledConnection {
        self.pool(kind).acquire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{DataType, Value};

    fn db() -> Arc<Database> {
        let db = Database::in_memory("pool-test");
        let mut conn = db.connect();
        conn.create_table(Schema::new("t", vec![ColumnDef::new("a", DataType::Int)]))
            .unwrap();
        db
    }

    #[test]
    fn reuse_after_release() {
        let pool = ConnectionPool::new(db(), 2, Duration::ZERO);
        {
            let _a = pool.acquire();
            let _b = pool.acquire();
            assert_eq!(pool.in_use(), 2);
        }
        assert_eq!(pool.in_use(), 0);
        let _c = pool.acquire();
        let s = pool.stats();
        assert_eq!(s.created, 2);
        assert_eq!(s.reused, 1);
    }

    #[test]
    fn try_acquire_when_exhausted() {
        let pool = ConnectionPool::new(db(), 1, Duration::ZERO);
        let held = pool.acquire();
        assert!(matches!(pool.try_acquire(), Err(DbError::PoolExhausted)));
        drop(held);
        assert!(pool.try_acquire().is_ok());
    }

    #[test]
    fn blocking_acquire_wakes_on_release() {
        let pool = ConnectionPool::new(db(), 1, Duration::ZERO);
        let held = pool.acquire();
        let p2 = Arc::clone(&pool);
        let handle = std::thread::spawn(move || {
            let c = p2.acquire();
            drop(c);
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        handle.join().unwrap();
        assert_eq!(pool.stats().waited, 1);
    }

    #[test]
    fn open_transaction_rolled_back_on_return() {
        let pool = ConnectionPool::new(db(), 1, Duration::ZERO);
        {
            let mut c = pool.acquire();
            c.begin().unwrap();
            c.insert("t", vec![Value::Int(1)]).unwrap();
            // dropped without commit
        }
        let c = pool.acquire();
        let r = c.query(&crate::query::Query::table("t")).unwrap();
        assert!(r.rows.is_empty(), "uncommitted insert must not leak");
        assert!(!c.in_txn());
    }

    #[test]
    fn pool_set_routes_by_kind() {
        let db = db();
        let set = PoolSet::new(&db, 2, 1, 1, Duration::ZERO);
        let _q = set.acquire(PoolKind::Query);
        let _u = set.acquire(PoolKind::Update);
        let _a = set.acquire(PoolKind::Auth);
        assert_eq!(set.pool(PoolKind::Query).in_use(), 1);
        assert_eq!(set.pool(PoolKind::Update).in_use(), 1);
        assert_eq!(set.pool(PoolKind::Auth).in_use(), 1);
    }

    #[test]
    fn concurrent_workers_share_pool() {
        let pool = ConnectionPool::new(db(), 4, Duration::ZERO);
        let mut handles = Vec::new();
        for w in 0..8 {
            let p = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let mut c = p.acquire();
                    c.insert("t", vec![Value::Int(w * 100 + i)]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.database().row_count("t").unwrap(), 200);
        let s = pool.stats();
        assert!(s.created <= 4);
        assert!(s.reused >= 196);
    }
}
