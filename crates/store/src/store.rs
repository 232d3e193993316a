//! Store: named B-trees + single-writer/multi-reader MVCC.
//!
//! Concurrency model (mirrors the PulseDB ADR discussed in DESIGN.md
//! §13): exactly one write transaction at a time, serialized by a writer
//! mutex; any number of concurrent snapshots, each pinning the root set
//! published by the last commit. Because pages are copy-on-write, a
//! snapshot never sees a torn page and never takes a lock on the read
//! path beyond the page-cache mutex.
//!
//! Page reclamation: pages superseded by a commit at sequence `s` are
//! still referenced by snapshots opened before `s`. They sit on a
//! pending-free queue tagged with `s` and return to the free pool only
//! once every active snapshot's sequence is `>= s`.

use std::collections::HashMap;
use std::io;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use std::sync::{Mutex, MutexGuard};

use crate::btree;
use crate::page::{Page, PageId, NULL_PAGE};
use crate::pager::{CacheStats, Pager, StoreOptions};
use crate::{StoreError, StoreResult};

/// Identifier of one B-tree within a store.
pub type TreeId = u32;

/// Immutable root set published by a commit.
#[derive(Debug, Clone)]
struct Version {
    seq: u64,
    roots: Vec<PageId>,
}

struct State {
    current: Arc<Version>,
    /// Active snapshot sequences → refcount.
    active: std::collections::BTreeMap<u64, usize>,
    /// Pages freed by the commit that produced `seq`, reclaimable once
    /// `min(active) >= seq`.
    pending: std::collections::VecDeque<(u64, Vec<PageId>)>,
    /// Total page ids on `pending`.
    pending_pages: usize,
    /// Reclaimed page ids ready for reuse.
    free: Vec<PageId>,
    next_page: PageId,
}

impl State {
    fn min_active(&self) -> u64 {
        self.active.keys().next().copied().unwrap_or(u64::MAX)
    }

    fn reclaim(&mut self, pager: &Pager) {
        let min = self.min_active();
        while let Some((seq, _)) = self.pending.front() {
            if *seq > min {
                break;
            }
            let (_, pages) = self.pending.pop_front().expect("checked front");
            self.pending_pages -= pages.len();
            for id in pages {
                pager.forget(id);
                self.free.push(id);
            }
        }
    }
}

struct StoreInner {
    pager: Pager,
    state: Mutex<State>,
    writer: Mutex<()>,
    obs_snapshots: Arc<hedc_obs::Gauge>,
    obs_writer_waiting: Arc<hedc_obs::Gauge>,
    obs_writer_stall: Arc<hedc_obs::Histogram>,
    obs_allocated: Arc<hedc_obs::Gauge>,
    obs_free: Arc<hedc_obs::Gauge>,
    obs_pending: Arc<hedc_obs::Gauge>,
    obs_oldest_lag: Arc<hedc_obs::Gauge>,
}

impl StoreInner {
    /// Publish the space gauges. Called under the state lock at the two
    /// places reclamation runs: commit and snapshot drop.
    fn observe_space(&self, state: &State) {
        self.obs_allocated.set(state.next_page as i64 - 1);
        self.obs_free.set(state.free.len() as i64);
        self.obs_pending.set(state.pending_pages as i64);
        let oldest = state.active.keys().next();
        self.obs_oldest_lag
            .set(oldest.map_or(0, |min| (state.current.seq - min) as i64));
    }
}

/// A paged storage engine holding any number of named B-trees, with
/// single-writer transactions and point-in-time snapshots.
///
/// Cheap to clone (`Arc` inside); all clones share the same file, cache,
/// and version state.
#[derive(Clone)]
pub struct Store {
    inner: Arc<StoreInner>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.inner.pager.path())
            .field("page_size", &self.inner.pager.page_size())
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Open (create) a store. Any file at the path is replaced: a store's
    /// durable contents always come from replaying a WAL above it, so
    /// the file itself is scratch space that lets tables exceed RAM.
    pub fn open(opts: StoreOptions) -> io::Result<Store> {
        let pager = Pager::open(&opts)?;
        let reg = hedc_obs::global();
        Ok(Store {
            inner: Arc::new(StoreInner {
                pager,
                state: Mutex::new(State {
                    current: Arc::new(Version {
                        seq: 0,
                        roots: Vec::new(),
                    }),
                    active: Default::default(),
                    pending: Default::default(),
                    pending_pages: 0,
                    free: Vec::new(),
                    next_page: 1, // page 0 is the NULL sentinel
                }),
                writer: Mutex::new(()),
                obs_snapshots: reg.gauge("store.snapshot.active"),
                obs_writer_waiting: reg.gauge("store.writer.waiting"),
                obs_writer_stall: reg.histogram("store.writer.stall"),
                obs_allocated: reg.gauge("store.pages.allocated"),
                obs_free: reg.gauge("store.pages.free"),
                obs_pending: reg.gauge("store.pages.pending"),
                obs_oldest_lag: reg.gauge("store.snapshot.oldest_lag"),
            }),
        })
    }

    /// Page size in bytes actually in use.
    pub fn page_size(&self) -> usize {
        self.inner.pager.page_size()
    }

    /// Path of the backing page file.
    pub fn path(&self) -> std::path::PathBuf {
        self.inner.pager.path().to_path_buf()
    }

    /// Page-cache traffic counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.pager.stats()
    }

    /// Highest page id ever allocated (a proxy for file size in pages).
    pub fn allocated_pages(&self) -> u64 {
        (self
            .inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .next_page
            - 1) as u64
    }

    /// Number of snapshots currently alive.
    pub fn active_snapshots(&self) -> usize {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .active
            .values()
            .sum()
    }

    /// Open a point-in-time snapshot of the last committed state.
    /// Snapshots never block the writer and are never blocked by it.
    pub fn snapshot(&self) -> Snapshot {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let version = state.current.clone();
        *state.active.entry(version.seq).or_insert(0) += 1;
        drop(state);
        self.inner.obs_snapshots.add(1);
        Snapshot {
            inner: self.inner.clone(),
            version,
        }
    }

    /// Begin the (single) write transaction, blocking until any other
    /// writer finishes. Stall time is recorded to `store.writer.stall`.
    pub fn begin(&self) -> WriteTxn<'_> {
        let waiting = &self.inner.obs_writer_waiting;
        waiting.add(1);
        let t0 = Instant::now();
        let guard = self.inner.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.inner.obs_writer_stall.record(t0.elapsed());
        waiting.add(-1);
        let state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let roots = state.current.roots.clone();
        let base_seq = state.current.seq;
        drop(state);
        WriteTxn {
            inner: &self.inner,
            _guard: guard,
            pages: TxnPages {
                inner: &self.inner,
                dirty: HashMap::new(),
                allocated: Vec::new(),
                freed: Vec::new(),
                reusable: Vec::new(),
            },
            roots,
            base_seq,
            done: false,
        }
    }
}

/// Page accessor for a write transaction: reads see the transaction's
/// dirty pages first, then committed state.
struct TxnPages<'s> {
    inner: &'s StoreInner,
    dirty: HashMap<PageId, Arc<Page>>,
    /// Ids newly allocated by this transaction (not yet visible).
    allocated: Vec<PageId>,
    /// Committed ids superseded by this transaction.
    freed: Vec<PageId>,
    /// Ids allocated then discarded within this transaction; reusable
    /// immediately.
    reusable: Vec<PageId>,
}

impl btree::Pages for TxnPages<'_> {
    fn load(&self, id: PageId) -> io::Result<Arc<Page>> {
        if let Some(p) = self.dirty.get(&id) {
            return Ok(p.clone());
        }
        self.inner.pager.read(id)
    }

    fn page_size(&self) -> usize {
        self.inner.pager.page_size()
    }
}

impl btree::PagesMut for TxnPages<'_> {
    fn alloc(&mut self) -> PageId {
        if let Some(id) = self.reusable.pop() {
            self.allocated.push(id);
            return id;
        }
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let id = if let Some(id) = state.free.pop() {
            id
        } else {
            let id = state.next_page;
            state.next_page += 1;
            id
        };
        drop(state);
        self.allocated.push(id);
        id
    }

    fn free(&mut self, id: PageId) {
        self.dirty.remove(&id);
        if let Some(pos) = self.allocated.iter().position(|&a| a == id) {
            self.allocated.swap_remove(pos);
            self.reusable.push(id);
        } else {
            self.freed.push(id);
        }
    }

    fn put(&mut self, id: PageId, page: Page) {
        self.dirty.insert(id, Arc::new(page));
    }

    fn cow(&mut self, id: PageId) -> io::Result<(PageId, Page)> {
        if let Some(arc) = self.dirty.remove(&id) {
            let page = Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone());
            return Ok((id, page));
        }
        let page = (*self.inner.pager.read(id)?).clone();
        self.free(id);
        let new_id = <TxnPages<'_> as btree::PagesMut>::alloc(self);
        Ok((new_id, page))
    }
}

/// The store's single write transaction. Dropping without `commit`
/// rolls back: nothing becomes visible and allocated pages return to
/// the free pool.
pub struct WriteTxn<'s> {
    inner: &'s StoreInner,
    _guard: MutexGuard<'s, ()>,
    pages: TxnPages<'s>,
    roots: Vec<PageId>,
    base_seq: u64,
    done: bool,
}

impl WriteTxn<'_> {
    /// Create a new, empty tree and return its id. Tree ids are dense
    /// and stable for the life of the store.
    pub fn create_tree(&mut self) -> TreeId {
        self.roots.push(NULL_PAGE);
        (self.roots.len() - 1) as TreeId
    }

    fn root(&self, tree: TreeId) -> PageId {
        self.roots.get(tree as usize).copied().unwrap_or(NULL_PAGE)
    }

    /// Insert or replace `key`. Returns `true` when an existing value
    /// was replaced.
    pub fn insert(&mut self, tree: TreeId, key: &[u8], val: &[u8]) -> StoreResult<bool> {
        let root = self.root(tree);
        let (new_root, replaced) = btree::insert(&mut self.pages, root, key, val)?;
        self.roots[tree as usize] = new_root;
        Ok(replaced)
    }

    /// Delete `key`. Returns `true` when the key was present.
    pub fn delete(&mut self, tree: TreeId, key: &[u8]) -> StoreResult<bool> {
        let root = self.root(tree);
        let (new_root, found) = btree::delete(&mut self.pages, root, key)?;
        self.roots[tree as usize] = new_root;
        Ok(found)
    }

    /// Point lookup, seeing this transaction's own writes.
    pub fn get(&self, tree: TreeId, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        btree::get(&self.pages, self.root(tree), key).map_err(StoreError::Io)
    }

    /// First entry with key `>= key`, seeing this transaction's own
    /// writes. Used for prefix-existence (unique) probes.
    pub fn seek_ge(&self, tree: TreeId, key: &[u8]) -> StoreResult<Option<(Vec<u8>, Vec<u8>)>> {
        btree::seek_ge(&self.pages, self.root(tree), key).map_err(StoreError::Io)
    }

    /// Durably stage every dirty page and atomically publish the new
    /// root set. Readers opening snapshots after `commit` returns see
    /// the new state; existing snapshots are untouched.
    pub fn commit(mut self) -> StoreResult<()> {
        // Write dirty pages to the file (and cache) before publishing.
        for (id, page) in self.pages.dirty.drain() {
            self.inner.pager.write(id, page).map_err(StoreError::Io)?;
        }
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let seq = self.base_seq + 1;
        state.current = Arc::new(Version {
            seq,
            roots: std::mem::take(&mut self.roots),
        });
        let freed = std::mem::take(&mut self.pages.freed);
        if !freed.is_empty() {
            state.pending_pages += freed.len();
            state.pending.push_back((seq, freed));
        }
        // Ids allocated-then-discarded this txn were never visible.
        state.free.append(&mut self.pages.reusable);
        state.reclaim(&self.inner.pager);
        self.inner.observe_space(&state);
        drop(state);
        self.done = true;
        Ok(())
    }
}

impl Drop for WriteTxn<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Rollback: every page this transaction allocated is invisible;
        // hand the ids straight back to the free pool.
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        for id in self.pages.allocated.drain(..) {
            self.inner.pager.forget(id);
            state.free.push(id);
        }
        state.free.append(&mut self.pages.reusable);
    }
}

/// A point-in-time, immutable view of the store. Reads never block the
/// writer; the writer never blocks reads.
pub struct Snapshot {
    inner: Arc<StoreInner>,
    version: Arc<Version>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("seq", &self.version.seq)
            .finish_non_exhaustive()
    }
}

struct SnapPages<'a> {
    inner: &'a StoreInner,
}

impl btree::Pages for SnapPages<'_> {
    fn load(&self, id: PageId) -> io::Result<Arc<Page>> {
        self.inner.pager.read(id)
    }

    fn page_size(&self) -> usize {
        self.inner.pager.page_size()
    }
}

impl Snapshot {
    /// Commit sequence this snapshot observes.
    pub fn seq(&self) -> u64 {
        self.version.seq
    }

    fn root(&self, tree: TreeId) -> PageId {
        self.version
            .roots
            .get(tree as usize)
            .copied()
            .unwrap_or(NULL_PAGE)
    }

    /// Point lookup.
    pub fn get(&self, tree: TreeId, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let pages = SnapPages { inner: &self.inner };
        btree::get(&pages, self.root(tree), key).map_err(StoreError::Io)
    }

    /// Iterate entries with keys in `[low, high]` (bounds respected per
    /// `Bound` semantics) in ascending key order.
    pub fn range(&self, tree: TreeId, low: Bound<&[u8]>, high: Bound<Vec<u8>>) -> Cursor<'_> {
        let pages = SnapPages { inner: &self.inner };
        let raw = btree::RawCursor::seek(&pages, self.root(tree), low);
        Cursor {
            snap: self,
            raw,
            high,
            error: None,
        }
    }
}

impl Clone for Snapshot {
    fn clone(&self) -> Self {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        *state.active.entry(self.version.seq).or_insert(0) += 1;
        drop(state);
        self.inner.obs_snapshots.add(1);
        Snapshot {
            inner: self.inner.clone(),
            version: self.version.clone(),
        }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let seq = self.version.seq;
        if let Some(n) = state.active.get_mut(&seq) {
            *n -= 1;
            if *n == 0 {
                state.active.remove(&seq);
            }
        }
        state.reclaim(&self.inner.pager);
        self.inner.observe_space(&state);
        drop(state);
        self.inner.obs_snapshots.add(-1);
    }
}

/// Ascending iterator over a snapshot range. I/O errors end the
/// iteration and are surfaced through [`Cursor::error`].
pub struct Cursor<'s> {
    snap: &'s Snapshot,
    raw: io::Result<btree::RawCursor>,
    high: Bound<Vec<u8>>,
    error: Option<io::Error>,
}

impl Cursor<'_> {
    /// I/O error that terminated the cursor early, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }
}

impl Iterator for Cursor<'_> {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<(Vec<u8>, Vec<u8>)> {
        let pages = SnapPages {
            inner: &self.snap.inner,
        };
        let raw = match &mut self.raw {
            Ok(raw) => raw,
            Err(e) => {
                self.error = Some(io::Error::new(e.kind(), e.to_string()));
                return None;
            }
        };
        match raw.next(&pages) {
            Ok(Some((k, v))) => {
                let stop = match &self.high {
                    Bound::Unbounded => false,
                    Bound::Included(h) => k.as_slice() > h.as_slice(),
                    Bound::Excluded(h) => k.as_slice() >= h.as_slice(),
                };
                if stop {
                    None
                } else {
                    Some((k, v))
                }
            }
            Ok(None) => None,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}
