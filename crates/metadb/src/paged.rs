//! Paged table backing: rows and indexes stored in [`hedc_store`]
//! B-trees instead of in-process `Vec`/`BTreeMap` structures.
//!
//! Layout per table:
//!
//! - a **row tree** mapping big-endian row id → [`keycode::encode_row`]
//!   payload, and
//! - one **index tree** per index mapping
//!   [`keycode::encode_index_entry`] (order-preserving key bytes plus a
//!   row-id suffix) → empty value.
//!
//! Every mutating table operation runs as one store write transaction
//! spanning the row tree and all index trees, so a [`Snapshot`] taken
//! between operations always sees rows and index entries in agreement.
//! The backing keeps no snapshot of its own: a read through the table
//! opens one and drops it before returning, and a [`TableSnapshot`]
//! shares the one its database published (`db.rs`). A snapshot kept
//! alive pins every page any tree of the store supersedes after it, so
//! nothing here may hold one while idle.
//!
//! The store file is **scratch**: durability comes from the redo log
//! above (`wal.rs`), whose replay at open rebuilds these trees through
//! the very same code paths — which is also why the free-list state
//! here is process-local and never persisted.

use crate::error::{DbError, DbResult};
use crate::index::RowId;
use crate::keycode;
use crate::schema::Schema;
use crate::value::Value;
use hedc_store::{Snapshot, Store, StoreError, TreeId, WriteTxn};
use std::ops::Bound;
use std::sync::Arc;

fn storage_err(e: StoreError) -> DbError {
    DbError::Storage(e.to_string())
}

fn row_key(id: RowId) -> [u8; 8] {
    id.to_be_bytes()
}

/// An index whose entries live in a store B-tree.
#[derive(Debug, Clone)]
pub(crate) struct PagedIndex {
    pub(crate) name: String,
    pub(crate) columns: Vec<usize>,
    pub(crate) unique: bool,
    tree: TreeId,
    entries: usize,
}

impl PagedIndex {
    fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.columns.iter().map(|&c| row[c].clone()).collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    /// Uniqueness probe inside an open write transaction (sees the
    /// transaction's own uncommitted entries, matching the in-memory
    /// backing's statement-order semantics). NULL keys are exempt.
    fn check_unique(&self, txn: &WriteTxn<'_>, row: &[Value]) -> DbResult<()> {
        if !self.unique {
            return Ok(());
        }
        let key = self.key_of(row);
        if key.iter().any(Value::is_null) {
            return Ok(());
        }
        let prefix = keycode::encode_key(&key);
        if let Some((found, _)) = txn.seek_ge(self.tree, &prefix).map_err(storage_err)? {
            if found.starts_with(&prefix) {
                return Err(DbError::UniqueViolation {
                    index: self.name.clone(),
                });
            }
        }
        Ok(())
    }
}

/// The paged counterpart of the in-memory row heap.
#[derive(Debug)]
pub(crate) struct PagedTable {
    store: Arc<Store>,
    rows_tree: TreeId,
    pub(crate) indexes: Vec<PagedIndex>,
    /// Recycled slots, LIFO — byte-for-byte the same slot-assignment
    /// policy as the in-memory backing, so redo-log replay produces
    /// identical row ids on either backend.
    free: Vec<RowId>,
    /// Next never-used slot (the `rows.len()` analogue).
    next: RowId,
}

impl PagedTable {
    /// Create the row tree (and the implicit primary-key index when the
    /// schema declares one).
    pub(crate) fn new(store: Arc<Store>, schema: &Schema) -> DbResult<Self> {
        let mut txn = store.begin();
        let rows_tree = txn.create_tree();
        let mut indexes = Vec::new();
        if !schema.primary_key.is_empty() {
            indexes.push(PagedIndex {
                name: format!("{}_pk", schema.table),
                columns: schema.primary_key.clone(),
                unique: true,
                tree: txn.create_tree(),
                entries: 0,
            });
        }
        txn.commit().map_err(storage_err)?;
        Ok(PagedTable {
            store,
            rows_tree,
            indexes,
            free: Vec::new(),
            next: 0,
        })
    }

    fn write_row(&self, txn: &mut WriteTxn<'_>, id: RowId, row: &[Value]) -> DbResult<()> {
        txn.insert(self.rows_tree, &row_key(id), &keycode::encode_row(row))
            .map_err(storage_err)?;
        for ix in &self.indexes {
            txn.insert(
                ix.tree,
                &keycode::encode_index_entry(&ix.key_of(row), id),
                &[],
            )
            .map_err(storage_err)?;
        }
        Ok(())
    }

    fn check_all_unique(&self, txn: &WriteTxn<'_>, row: &[Value]) -> DbResult<()> {
        for ix in &self.indexes {
            ix.check_unique(txn, row)?;
        }
        Ok(())
    }

    /// Insert into the next free slot (LIFO) or a fresh one.
    pub(crate) fn insert(&mut self, row: &[Value]) -> DbResult<RowId> {
        let mut txn = self.store.begin();
        self.check_all_unique(&txn, row)?;
        let id = self.free.last().copied().unwrap_or(self.next);
        self.write_row(&mut txn, id, row)?;
        txn.commit().map_err(storage_err)?;
        if self.free.pop().is_none() {
            self.next += 1;
        }
        for ix in &mut self.indexes {
            ix.entries += 1;
        }
        Ok(id)
    }

    /// Insert into a specific slot (recovery replay, delete rollback).
    pub(crate) fn insert_at(&mut self, id: RowId, row: &[Value]) -> DbResult<()> {
        let mut txn = self.store.begin();
        self.check_all_unique(&txn, row)?;
        if id < self.next
            && txn
                .get(self.rows_tree, &row_key(id))
                .map_err(storage_err)?
                .is_some()
        {
            return Err(DbError::Txn(format!("slot {id} already occupied")));
        }
        self.write_row(&mut txn, id, row)?;
        txn.commit().map_err(storage_err)?;
        if id >= self.next {
            // Extending the heap: intermediate slots become free, in
            // ascending order, exactly as the in-memory backing does.
            for i in self.next..id {
                self.free.push(i);
            }
            self.next = id + 1;
        } else if let Some(pos) = self.free.iter().position(|&f| f == id) {
            self.free.swap_remove(pos);
        }
        for ix in &mut self.indexes {
            ix.entries += 1;
        }
        Ok(())
    }

    /// Fetch a row by id from the last committed state.
    pub(crate) fn get(&self, id: RowId) -> DbResult<Vec<Value>> {
        let found = self.store.snapshot().get(self.rows_tree, &row_key(id));
        found_row(id, found)
    }

    /// Replace rows, maintaining index entries, in ONE store transaction:
    /// one commit and no partial effects on failure (the uncommitted
    /// transaction is simply dropped). This is the bulk
    /// `UPDATE .. WHERE` fast path — committing per row would pwrite
    /// the dirty page set and rewrite the B-tree root path once per
    /// row instead of once per statement. Returns prior values in
    /// batch order.
    pub(crate) fn update_many(
        &mut self,
        updates: &[(RowId, Vec<Value>)],
    ) -> DbResult<Vec<Vec<Value>>> {
        let mut txn = self.store.begin();
        let mut olds = Vec::with_capacity(updates.len());
        for (id, new_row) in updates {
            // Read the old row through the transaction so earlier rows
            // in this batch are visible (sequential-statement
            // semantics, even though ids are distinct in practice).
            let old = found_row(*id, txn.get(self.rows_tree, &row_key(*id)))?;
            for ix in &self.indexes {
                if ix.unique {
                    let old_key = keycode::encode_key(&ix.key_of(&old));
                    let new_key = keycode::encode_key(&ix.key_of(new_row));
                    if old_key != new_key {
                        ix.check_unique(&txn, new_row)?;
                    }
                }
            }
            txn.insert(self.rows_tree, &row_key(*id), &keycode::encode_row(new_row))
                .map_err(storage_err)?;
            for ix in &self.indexes {
                txn.delete(ix.tree, &keycode::encode_index_entry(&ix.key_of(&old), *id))
                    .map_err(storage_err)?;
                txn.insert(
                    ix.tree,
                    &keycode::encode_index_entry(&ix.key_of(new_row), *id),
                    &[],
                )
                .map_err(storage_err)?;
            }
            olds.push(old);
        }
        txn.commit().map_err(storage_err)?;
        Ok(olds)
    }

    /// Delete a row; returns its former values and recycles the slot.
    pub(crate) fn delete(&mut self, id: RowId) -> DbResult<Vec<Value>> {
        let mut txn = self.store.begin();
        let old = found_row(id, txn.get(self.rows_tree, &row_key(id)))?;
        txn.delete(self.rows_tree, &row_key(id))
            .map_err(storage_err)?;
        for ix in &self.indexes {
            txn.delete(ix.tree, &keycode::encode_index_entry(&ix.key_of(&old), id))
                .map_err(storage_err)?;
        }
        txn.commit().map_err(storage_err)?;
        for ix in &mut self.indexes {
            ix.entries -= 1;
        }
        self.free.push(id);
        Ok(old)
    }

    /// Build a new index, backfilled from existing rows in one store
    /// transaction (a failed unique backfill leaves no residue).
    pub(crate) fn create_index(
        &mut self,
        name: String,
        columns: Vec<usize>,
        unique: bool,
    ) -> DbResult<()> {
        let rows = self.scan_rows()?;
        let mut txn = self.store.begin();
        let ix = PagedIndex {
            name,
            columns,
            unique,
            tree: txn.create_tree(),
            entries: rows.len(),
        };
        for (id, row) in &rows {
            ix.check_unique(&txn, row)?;
            txn.insert(
                ix.tree,
                &keycode::encode_index_entry(&ix.key_of(row), *id),
                &[],
            )
            .map_err(storage_err)?;
        }
        txn.commit().map_err(storage_err)?;
        self.indexes.push(ix);
        Ok(())
    }

    /// Drop an index by position. The tree is abandoned in place; its
    /// pages come back only when the store is rebuilt at the next open
    /// (the store file is scratch, so this leaks at most one run's
    /// worth of dropped-index pages — they stay counted in the
    /// `store.pages.allocated` gauge and on neither free list).
    pub(crate) fn drop_index(&mut self, pos: usize) {
        self.indexes.remove(pos);
    }

    /// All live rows in slot order.
    pub(crate) fn scan_rows(&self) -> DbResult<Vec<(RowId, Vec<Value>)>> {
        let snap = self.store.snapshot();
        let rows = snap.range(self.rows_tree, Bound::Unbounded, Bound::Unbounded);
        Ok(rows
            .map(|(k, v)| (row_id_of(&k), keycode::decode_row(&v)))
            .collect())
    }

    /// All live row ids in slot order (no row decoding).
    pub(crate) fn scan_ids(&self) -> Vec<RowId> {
        scan_row_ids(&self.store.snapshot(), self.rows_tree)
    }

    /// Range scan on index `pos`: equality prefix plus bounds on the
    /// next key column (the shape the planner and tests use). Unbounded
    /// on both sides, it is the exact-key lookup.
    pub(crate) fn index_range(
        &self,
        pos: usize,
        eq_prefix: &[Value],
        low: Bound<&Value>,
        high: Bound<&Value>,
    ) -> Vec<RowId> {
        let snap = self.store.snapshot();
        index_range_scan(&snap, self.indexes[pos].tree, eq_prefix, low, high)
    }

    /// Freeze the current committed state for lock-free readers.
    pub(crate) fn freeze(
        &self,
        schema: &Arc<Schema>,
        live: usize,
        data_bytes: usize,
    ) -> TableSnapshot {
        TableSnapshot {
            snap: Arc::new(self.store.snapshot()),
            meta: Arc::new(TableMeta {
                schema: Arc::clone(schema),
                rows_tree: self.rows_tree,
                indexes: self.indexes.clone(),
                live,
                data_bytes,
            }),
        }
    }
}

/// A stored row or `NoSuchRow`.
fn found_row(id: RowId, found: Result<Option<Vec<u8>>, StoreError>) -> DbResult<Vec<Value>> {
    match found.map_err(storage_err)? {
        Some(buf) => Ok(keycode::decode_row(&buf)),
        None => Err(DbError::NoSuchRow(id)),
    }
}

fn row_id_of(key: &[u8]) -> RowId {
    RowId::from_be_bytes(key[..8].try_into().expect("row key width"))
}

/// All live row ids of a row tree, in slot order (no row decoding).
fn scan_row_ids(snap: &Snapshot, rows_tree: TreeId) -> Vec<RowId> {
    snap.range(rows_tree, Bound::Unbounded, Bound::Unbounded)
        .map(|(k, _)| row_id_of(&k))
        .collect()
}

/// Shared range-scan logic for live tables and frozen snapshots.
fn index_range_scan(
    snap: &Snapshot,
    tree: TreeId,
    eq_prefix: &[Value],
    low: Bound<&Value>,
    high: Bound<&Value>,
) -> Vec<RowId> {
    let prefix = keycode::encode_key(eq_prefix);
    let lo_bytes;
    let start: Bound<&[u8]> = match low {
        Bound::Unbounded => {
            if eq_prefix.is_empty() {
                Bound::Unbounded
            } else {
                lo_bytes = prefix.clone();
                Bound::Included(&lo_bytes)
            }
        }
        Bound::Included(v) => {
            let mut k = prefix.clone();
            keycode::encode_value(&mut k, v);
            lo_bytes = k;
            Bound::Included(&lo_bytes)
        }
        Bound::Excluded(v) => {
            let mut k = prefix.clone();
            keycode::encode_value(&mut k, v);
            // Skip every entry whose bounded column equals `v`.
            match keycode::prefix_successor(&k) {
                Some(succ) => {
                    lo_bytes = succ;
                    Bound::Included(&lo_bytes)
                }
                None => return Vec::new(),
            }
        }
    };
    let end: Bound<Vec<u8>> = match high {
        Bound::Unbounded => {
            if eq_prefix.is_empty() {
                Bound::Unbounded
            } else {
                match keycode::prefix_successor(&prefix) {
                    Some(succ) => Bound::Excluded(succ),
                    None => Bound::Unbounded,
                }
            }
        }
        Bound::Included(v) => {
            let mut k = prefix.clone();
            keycode::encode_value(&mut k, v);
            match keycode::prefix_successor(&k) {
                Some(succ) => Bound::Excluded(succ),
                None => Bound::Unbounded,
            }
        }
        Bound::Excluded(v) => {
            let mut k = prefix.clone();
            keycode::encode_value(&mut k, v);
            Bound::Excluded(k)
        }
    };
    snap.range(tree, start, end)
        .map(|(k, _)| keycode::decode_index_entry_id(&k))
        .collect()
}

/// What a reader needs of one paged table at a statement boundary,
/// besides the store snapshot taken at that boundary.
#[derive(Debug)]
pub(crate) struct TableMeta {
    schema: Arc<Schema>,
    rows_tree: TreeId,
    indexes: Vec<PagedIndex>,
    live: usize,
    data_bytes: usize,
}

/// An immutable, point-in-time view of a paged table.
///
/// Shares a store [`Snapshot`], so reads served from it never take the
/// database catalog lock and never block (or are blocked by) the
/// writer — this is what the `/hedc` browse path queries while ingest
/// is running. For as long as a handle lives, the store reuses no page
/// any of its trees supersedes: keep one for a query or a page, not
/// for a session.
#[derive(Debug)]
pub struct TableSnapshot {
    pub(crate) snap: Arc<Snapshot>,
    pub(crate) meta: Arc<TableMeta>,
}

impl TableSnapshot {
    /// The frozen table's schema.
    pub fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    /// Number of live rows at freeze time.
    pub fn len(&self) -> usize {
        self.meta.live
    }

    /// Whether the table was empty at freeze time.
    pub fn is_empty(&self) -> bool {
        self.meta.live == 0
    }

    /// Approximate live row bytes at freeze time.
    pub fn data_bytes(&self) -> usize {
        self.meta.data_bytes
    }

    /// Fetch one row by id.
    pub fn get(&self, id: RowId) -> Option<Vec<Value>> {
        found_row(id, self.snap.get(self.meta.rows_tree, &row_key(id))).ok()
    }

    /// All live row ids in slot order.
    pub fn scan_ids(&self) -> Vec<RowId> {
        scan_row_ids(&self.snap, self.meta.rows_tree)
    }

    pub(crate) fn best_index(&self, col: usize) -> Option<usize> {
        let indexes = &self.meta.indexes;
        let mut best: Option<usize> = None;
        for (i, ix) in indexes.iter().enumerate() {
            if ix.columns.first() == Some(&col) {
                match best {
                    Some(b) if indexes[b].unique && !ix.unique => {}
                    _ => best = Some(i),
                }
            }
        }
        best
    }

    pub(crate) fn index_name(&self, pos: usize) -> &str {
        &self.meta.indexes[pos].name
    }

    pub(crate) fn index_range(
        &self,
        pos: usize,
        low: Bound<&Value>,
        high: Bound<&Value>,
    ) -> Vec<RowId> {
        index_range_scan(&self.snap, self.meta.indexes[pos].tree, &[], low, high)
    }
}
