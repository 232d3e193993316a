//! Tables: row storage plus attached indexes, over one of two backings.
//!
//! A [`Table`] presents identical semantics — stable row-id slots, a
//! LIFO free list, constraint checking, index maintenance — regardless
//! of where the rows physically live:
//!
//! - **Memory** (the default): rows in a `Vec` heap, indexes in
//!   `BTreeMap`s. Fast, but bounded by RAM and readers must hold the
//!   database catalog lock.
//! - **Paged**: rows and indexes in [`hedc_store`] copy-on-write
//!   B-trees behind a budgeted page cache. Tables can exceed RAM, and
//!   point-in-time [`TableSnapshot`]s serve readers without any lock
//!   shared with the writer.
//!
//! All constraint checking (types, NOT NULL, uniqueness) happens here so
//! that every caller — SQL, DM query objects, recovery replay — gets
//! identical semantics, and so that redo-log replay assigns the same
//! row ids on either backing.

use crate::error::{DbError, DbResult};
use crate::index::{Index, RowId};
use crate::paged::{PagedTable, TableSnapshot};
use crate::schema::Schema;
use crate::value::Value;
use hedc_store::Store;
use std::borrow::Cow;
use std::ops::Bound;
use std::sync::Arc;

/// A table. See the module docs for the two backings.
#[derive(Debug)]
pub struct Table {
    /// Shared with every [`TableSnapshot`] frozen from this table.
    schema: Arc<Schema>,
    live: usize,
    data_bytes: usize,
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    Memory {
        rows: Vec<Option<Vec<Value>>>,
        free: Vec<usize>,
        indexes: Vec<Index>,
    },
    Paged(PagedTable),
}

impl Table {
    /// Create an empty in-memory table. If the schema declares a primary
    /// key, a unique index named `<table>_pk` is created automatically.
    pub fn new(schema: Schema) -> Self {
        let mut indexes = Vec::new();
        if !schema.primary_key.is_empty() {
            let cols = schema.primary_key.clone();
            let name = format!("{}_pk", schema.table);
            indexes.push(Index::new(name, cols, true));
        }
        Table {
            live: 0,
            data_bytes: 0,
            backing: Backing::Memory {
                rows: Vec::new(),
                free: Vec::new(),
                indexes,
            },
            schema: Arc::new(schema),
        }
    }

    /// Create an empty paged table whose rows and indexes live in
    /// `store`. The implicit `<table>_pk` index is created exactly as in
    /// the memory backing.
    pub fn new_paged(schema: Schema, store: Arc<Store>) -> DbResult<Self> {
        let paged = PagedTable::new(store, &schema)?;
        Ok(Table {
            live: 0,
            data_bytes: 0,
            backing: Backing::Paged(paged),
            schema: Arc::new(schema),
        })
    }

    /// Whether this table uses the paged backing.
    pub fn is_paged(&self) -> bool {
        matches!(self.backing, Backing::Paged(_))
    }

    /// Freeze the current committed state into a lock-free snapshot,
    /// which pins the store's pages until it is dropped. Returns `None`
    /// for memory-backed tables, which have no independent committed
    /// state to freeze.
    pub fn freeze(&self) -> Option<TableSnapshot> {
        match &self.backing {
            Backing::Paged(p) => Some(p.freeze(&self.schema, self.live, self.data_bytes)),
            Backing::Memory { .. } => None,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Approximate bytes of live row data (drives the pool's volume stats).
    pub fn data_bytes(&self) -> usize {
        self.data_bytes
    }

    /// Attached indexes, as backing-agnostic views.
    pub fn indexes(&self) -> Vec<IndexRef<'_>> {
        match &self.backing {
            Backing::Memory { indexes, .. } => indexes
                .iter()
                .map(|ix| IndexRef(IndexRefInner::Memory(ix)))
                .collect(),
            Backing::Paged(p) => (0..p.indexes.len())
                .map(|pos| IndexRef(IndexRefInner::Paged { table: p, pos }))
                .collect(),
        }
    }

    fn index_names(&self) -> Vec<String> {
        match &self.backing {
            Backing::Memory { indexes, .. } => indexes.iter().map(|ix| ix.name.clone()).collect(),
            Backing::Paged(p) => p.indexes.iter().map(|ix| ix.name.clone()).collect(),
        }
    }

    /// Create a secondary index over the named columns, backfilling from
    /// existing rows. `unique` enforces key uniqueness (including backfill).
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        columns: &[&str],
        unique: bool,
    ) -> DbResult<()> {
        let name = name.into();
        if self.index_names().iter().any(|n| *n == name) {
            return Err(DbError::IndexExists(name));
        }
        let cols = columns
            .iter()
            .map(|c| self.schema.require_column(c))
            .collect::<DbResult<Vec<_>>>()?;
        match &mut self.backing {
            Backing::Memory { rows, indexes, .. } => {
                let mut ix = Index::new(name, cols, unique);
                for (slot, row) in rows.iter().enumerate() {
                    if let Some(row) = row {
                        ix.check_unique(row)?;
                        ix.insert(row, slot as RowId);
                    }
                }
                indexes.push(ix);
                Ok(())
            }
            Backing::Paged(p) => p.create_index(name, cols, unique),
        }
    }

    /// Drop an index by name. The implicit primary-key index cannot be
    /// dropped.
    pub fn drop_index(&mut self, name: &str) -> DbResult<()> {
        let pk_name = format!("{}_pk", self.schema.table);
        if name == pk_name {
            return Err(DbError::Unsupported("cannot drop primary key index".into()));
        }
        let pos = self
            .index_names()
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| DbError::NoSuchIndex(name.to_string()))?;
        match &mut self.backing {
            Backing::Memory { indexes, .. } => {
                indexes.remove(pos);
            }
            Backing::Paged(p) => p.drop_index(pos),
        }
        Ok(())
    }

    /// Find an index by name.
    pub fn index(&self, name: &str) -> Option<IndexRef<'_>> {
        let pos = self.index_names().iter().position(|n| n == name)?;
        Some(self.indexes().swap_remove(pos))
    }

    /// Position of the best index whose first key column is `col`
    /// (prefers unique).
    pub(crate) fn index_pos_on(&self, col: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        let ixs = self.indexes();
        for (i, ix) in ixs.iter().enumerate() {
            if ix.columns().first() == Some(&col) {
                match best {
                    Some(b) if ixs[b].unique() && !ix.unique() => {}
                    _ => best = Some(i),
                }
            }
        }
        best
    }

    /// Find the best index whose first key column is `col` (prefers unique).
    pub fn index_on(&self, col: usize) -> Option<IndexRef<'_>> {
        let pos = self.index_pos_on(col)?;
        Some(self.indexes().swap_remove(pos))
    }

    /// Validate and insert a row; returns its id.
    pub fn insert(&mut self, values: Vec<Value>) -> DbResult<RowId> {
        let row = self.schema.check_row(values, true)?;
        let bytes = row_bytes(&row);
        let id = match &mut self.backing {
            Backing::Memory {
                rows,
                free,
                indexes,
            } => {
                for ix in indexes.iter() {
                    ix.check_unique(&row)?;
                }
                let slot = match free.pop() {
                    Some(s) => s,
                    None => {
                        rows.push(None);
                        rows.len() - 1
                    }
                };
                let id = slot as RowId;
                for ix in indexes.iter_mut() {
                    ix.insert(&row, id);
                }
                rows[slot] = Some(row);
                id
            }
            Backing::Paged(p) => p.insert(&row)?,
        };
        self.data_bytes += bytes;
        self.live += 1;
        Ok(id)
    }

    /// Insert a row into a *specific* slot. Used by recovery replay (slot
    /// assignments must match the original run) and by rollback of deletes.
    pub(crate) fn insert_at(&mut self, id: RowId, values: Vec<Value>) -> DbResult<()> {
        let row = self.schema.check_row(values, false)?;
        let bytes = row_bytes(&row);
        match &mut self.backing {
            Backing::Memory {
                rows,
                free,
                indexes,
            } => {
                for ix in indexes.iter() {
                    ix.check_unique(&row)?;
                }
                let slot = id as usize;
                if slot >= rows.len() {
                    // Extend the heap; intermediate slots become free.
                    for i in rows.len()..slot {
                        free.push(i);
                    }
                    rows.resize_with(slot + 1, || None);
                } else {
                    if rows[slot].is_some() {
                        return Err(DbError::Txn(format!("slot {id} already occupied")));
                    }
                    if let Some(pos) = free.iter().position(|&f| f == slot) {
                        free.swap_remove(pos);
                    }
                }
                for ix in indexes.iter_mut() {
                    ix.insert(&row, id);
                }
                rows[slot] = Some(row);
            }
            Backing::Paged(p) => p.insert_at(id, &row)?,
        }
        self.data_bytes += bytes;
        self.live += 1;
        Ok(())
    }

    /// Fetch a row by id. Borrowed from the heap for memory tables,
    /// decoded (owned) for paged ones.
    pub fn get(&self, id: RowId) -> DbResult<Cow<'_, [Value]>> {
        match &self.backing {
            Backing::Memory { rows, .. } => rows
                .get(id as usize)
                .and_then(|r| r.as_deref())
                .map(Cow::Borrowed)
                .ok_or(DbError::NoSuchRow(id)),
            Backing::Paged(p) => p.get(id).map(Cow::Owned),
        }
    }

    /// Replace a full row; returns the previous values.
    pub fn update(&mut self, id: RowId, values: Vec<Value>) -> DbResult<Vec<Value>> {
        let new_row = self.schema.check_row(values, false)?;
        let new_bytes = row_bytes(&new_row);
        let old = match &mut self.backing {
            Backing::Memory { rows, indexes, .. } => {
                let slot = id as usize;
                let old = rows
                    .get(slot)
                    .and_then(|r| r.as_ref())
                    .cloned()
                    .ok_or(DbError::NoSuchRow(id))?;
                // Unique checks must ignore this row's own current key.
                for ix in indexes.iter() {
                    if ix.unique {
                        let old_key = ix.key_of(&old);
                        let new_key = ix.key_of(&new_row);
                        if old_key != new_key {
                            ix.check_unique(&new_row)?;
                        }
                    }
                }
                for ix in indexes.iter_mut() {
                    ix.remove(&old, id);
                    ix.insert(&new_row, id);
                }
                rows[slot] = Some(new_row);
                old
            }
            Backing::Paged(p) => {
                let mut olds = p.update_many(&[(id, new_row)])?;
                olds.pop().expect("one row in, one row out")
            }
        };
        self.data_bytes = self.data_bytes + new_bytes - row_bytes(&old);
        Ok(old)
    }

    /// Replace many rows as one statement; returns previous values in
    /// batch order. All-or-nothing on both backings: the paged backing
    /// applies the whole batch in a single store transaction (one
    /// commit — the bulk-update fast path), the
    /// memory backing compensates already-applied rows in reverse on a
    /// mid-batch failure.
    pub fn update_batch(&mut self, updates: Vec<(RowId, Vec<Value>)>) -> DbResult<Vec<Vec<Value>>> {
        if !self.is_paged() {
            let mut olds: Vec<Vec<Value>> = Vec::with_capacity(updates.len());
            let mut done: Vec<RowId> = Vec::with_capacity(updates.len());
            for (id, new_row) in updates {
                match self.update(id, new_row) {
                    Ok(old) => {
                        done.push(id);
                        olds.push(old);
                    }
                    Err(e) => {
                        for (id, old) in done.into_iter().zip(olds).rev() {
                            self.update(id, old)
                                .expect("compensating update restores prior value");
                        }
                        return Err(e);
                    }
                }
            }
            return Ok(olds);
        }
        let mut checked = Vec::with_capacity(updates.len());
        for (id, values) in updates {
            checked.push((id, self.schema.check_row(values, false)?));
        }
        let new_bytes: usize = checked.iter().map(|(_, r)| row_bytes(r)).sum();
        let olds = match &mut self.backing {
            Backing::Paged(p) => p.update_many(&checked)?,
            Backing::Memory { .. } => unreachable!("memory backing handled above"),
        };
        let old_bytes: usize = olds.iter().map(|r| row_bytes(r)).sum();
        self.data_bytes = self.data_bytes + new_bytes - old_bytes;
        Ok(olds)
    }

    /// Delete a row; returns its former values.
    pub fn delete(&mut self, id: RowId) -> DbResult<Vec<Value>> {
        let old = match &mut self.backing {
            Backing::Memory {
                rows,
                free,
                indexes,
            } => {
                let slot = id as usize;
                let old = rows
                    .get_mut(slot)
                    .and_then(Option::take)
                    .ok_or(DbError::NoSuchRow(id))?;
                for ix in indexes.iter_mut() {
                    ix.remove(&old, id);
                }
                free.push(slot);
                old
            }
            Backing::Paged(p) => p.delete(id)?,
        };
        self.data_bytes -= row_bytes(&old);
        self.live -= 1;
        Ok(old)
    }

    /// Iterate live rows in slot order.
    pub fn scan(&self) -> Box<dyn Iterator<Item = (RowId, Cow<'_, [Value]>)> + '_> {
        match &self.backing {
            Backing::Memory { rows, .. } => Box::new(
                rows.iter()
                    .enumerate()
                    .filter_map(|(i, r)| r.as_deref().map(|row| (i as RowId, Cow::Borrowed(row)))),
            ),
            Backing::Paged(p) => {
                let rows = p.scan_rows().unwrap_or_default();
                Box::new(rows.into_iter().map(|(id, r)| (id, Cow::Owned(r))))
            }
        }
    }

    /// Live row ids in slot order (cheaper than [`Table::scan`] for the
    /// planner's full-scan candidate list: no row decoding on the paged
    /// backing).
    pub fn scan_ids(&self) -> Vec<RowId> {
        match &self.backing {
            Backing::Memory { rows, .. } => rows
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().map(|_| i as RowId))
                .collect(),
            Backing::Paged(p) => p.scan_ids(),
        }
    }
}

/// A backing-agnostic read view of one index.
pub struct IndexRef<'t>(IndexRefInner<'t>);

enum IndexRefInner<'t> {
    Memory(&'t Index),
    Paged { table: &'t PagedTable, pos: usize },
}

impl IndexRef<'_> {
    /// Index name (unique per database).
    pub fn name(&self) -> &str {
        match &self.0 {
            IndexRefInner::Memory(ix) => &ix.name,
            IndexRefInner::Paged { table, pos } => &table.indexes[*pos].name,
        }
    }

    /// Positions of the indexed columns, in key order.
    pub fn columns(&self) -> &[usize] {
        match &self.0 {
            IndexRefInner::Memory(ix) => &ix.columns,
            IndexRefInner::Paged { table, pos } => &table.indexes[*pos].columns,
        }
    }

    /// Whether duplicate keys are rejected.
    pub fn unique(&self) -> bool {
        match &self.0 {
            IndexRefInner::Memory(ix) => ix.unique,
            IndexRefInner::Paged { table, pos } => table.indexes[*pos].unique,
        }
    }

    /// Number of (key, rowid) entries.
    pub fn len(&self) -> usize {
        match &self.0 {
            IndexRefInner::Memory(ix) => ix.len(),
            IndexRefInner::Paged { table, pos } => table.indexes[*pos].len(),
        }
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact-key lookup.
    pub fn get(&self, key: &[Value]) -> Vec<RowId> {
        match &self.0 {
            IndexRefInner::Memory(ix) => ix.get(key).to_vec(),
            IndexRefInner::Paged { table, pos } => {
                table.index_range(*pos, key, Bound::Unbounded, Bound::Unbounded)
            }
        }
    }

    /// Range scan: equality prefix plus bounds on the next key column.
    /// See [`Index::range`] for the exact contract.
    pub fn range(
        &self,
        eq_prefix: &[Value],
        low: Bound<&Value>,
        high: Bound<&Value>,
    ) -> Vec<RowId> {
        match &self.0 {
            IndexRefInner::Memory(ix) => ix.range(eq_prefix, low, high),
            IndexRefInner::Paged { table, pos } => table.index_range(*pos, eq_prefix, low, high),
        }
    }
}

fn row_bytes(row: &[Value]) -> usize {
    row.iter().map(Value::size_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;
    use hedc_store::StoreOptions;

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

    /// Both backings, so every test below covers memory and paged. The
    /// paged store uses tiny pages to force real B-tree splits.
    fn tables() -> Vec<Table> {
        let store = Arc::new(
            Store::open(StoreOptions {
                path: None,
                page_size: 512,
                cache_pages: 32,
            })
            .unwrap(),
        );
        vec![
            Table::new(schema()),
            Table::new_paged(schema(), store).unwrap(),
        ]
    }

    fn row(id: i64, t: i64, label: &str) -> Vec<Value> {
        vec![Value::Int(id), Value::Int(t), Value::Text(label.into())]
    }

    #[test]
    fn pk_index_created_automatically() {
        for t in tables() {
            assert_eq!(t.indexes().len(), 1);
            assert_eq!(t.indexes()[0].name(), "hle_pk");
            assert!(t.indexes()[0].unique());
        }
    }

    #[test]
    fn insert_get_scan() {
        for mut t in tables() {
            let a = t.insert(row(1, 100, "flare")).unwrap();
            let b = t.insert(row(2, 200, "grb")).unwrap();
            assert_ne!(a, b);
            assert_eq!(t.len(), 2);
            assert_eq!(t.get(a).unwrap()[2], Value::Text("flare".into()));
            assert_eq!(t.scan().count(), 2);
        }
    }

    #[test]
    fn pk_uniqueness_enforced() {
        for mut t in tables() {
            t.insert(row(1, 100, "a")).unwrap();
            let err = t.insert(row(1, 200, "b")).unwrap_err();
            assert!(matches!(err, DbError::UniqueViolation { .. }));
        }
    }

    #[test]
    fn delete_recycles_slots() {
        for mut t in tables() {
            let a = t.insert(row(1, 100, "a")).unwrap();
            t.delete(a).unwrap();
            assert_eq!(t.len(), 0);
            assert!(t.get(a).is_err());
            let b = t.insert(row(2, 200, "b")).unwrap();
            // Slot reuse is an implementation detail, but the free list
            // must behave identically on both backings so WAL replay
            // assigns the same ids.
            assert_eq!(b, a);
            // Index no longer returns the deleted row's key.
            assert!(t.indexes()[0].get(&[Value::Int(1)]).is_empty());
        }
    }

    #[test]
    fn update_maintains_indexes_and_uniqueness() {
        for mut t in tables() {
            let a = t.insert(row(1, 100, "a")).unwrap();
            t.insert(row(2, 200, "b")).unwrap();
            // Updating to a conflicting pk fails.
            let err = t.update(a, row(2, 100, "a")).unwrap_err();
            assert!(matches!(err, DbError::UniqueViolation { .. }));
            // Updating in place with the same pk succeeds.
            t.update(a, row(1, 150, "a2")).unwrap();
            assert_eq!(t.get(a).unwrap()[1], Value::Timestamp(150));
            assert_eq!(t.indexes()[0].get(&[Value::Int(1)]), &[a]);
        }
    }

    #[test]
    fn secondary_index_backfill_and_range() {
        for mut t in tables() {
            for i in 0..20 {
                t.insert(row(i, i * 10, "e")).unwrap();
            }
            t.create_index("hle_time", &["time_start"], false).unwrap();
            let ix = t.index("hle_time").unwrap();
            let ids = ix.range(
                &[],
                std::ops::Bound::Included(&Value::Int(50)),
                std::ops::Bound::Included(&Value::Int(90)),
            );
            assert_eq!(ids.len(), 5);
        }
    }

    #[test]
    fn unique_secondary_index_backfill_detects_duplicates() {
        for mut t in tables() {
            t.insert(row(1, 100, "x")).unwrap();
            t.insert(row(2, 100, "y")).unwrap();
            let err = t.create_index("u_time", &["time_start"], true).unwrap_err();
            assert!(matches!(err, DbError::UniqueViolation { .. }));
            // Failed creation leaves no residue.
            assert!(t.index("u_time").is_none());
        }
    }

    #[test]
    fn data_bytes_tracked() {
        for mut t in tables() {
            assert_eq!(t.data_bytes(), 0);
            let a = t.insert(row(1, 100, "abcd")).unwrap();
            let sz = t.data_bytes();
            assert!(sz > 0);
            t.delete(a).unwrap();
            assert_eq!(t.data_bytes(), 0);
        }
    }

    #[test]
    fn index_on_prefers_unique() {
        for mut t in tables() {
            t.create_index("id_dup", &["id"], false).unwrap();
            let ix = t.index_on(0).unwrap();
            assert_eq!(ix.name(), "hle_pk");
        }
    }

    #[test]
    fn insert_at_extends_heap_identically_on_both_backings() {
        let mut results = Vec::new();
        for mut t in tables() {
            // Replay-style insert into slot 5 leaves 0..5 free (LIFO), so
            // subsequent inserts drain 4, 3, 2, ...
            t.insert_at(5, row(50, 500, "at5")).unwrap();
            let a = t.insert(row(1, 100, "a")).unwrap();
            let b = t.insert(row(2, 200, "b")).unwrap();
            // Occupied slot is rejected.
            assert!(t.insert_at(5, row(9, 900, "dup")).is_err());
            results.push((a, b, t.scan_ids()));
        }
        assert_eq!(results[0], results[1], "backings diverged on slot policy");
    }

    #[test]
    fn paged_snapshot_isolated_from_later_writes() {
        let mut t = tables().remove(1);
        t.insert(row(1, 100, "before")).unwrap();
        let snap = t.freeze().expect("paged tables freeze");
        t.insert(row(2, 200, "after")).unwrap();
        t.update(0, row(1, 150, "changed")).unwrap();
        // The frozen view still sees exactly one unmodified row.
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.scan_ids(), vec![0]);
        assert_eq!(snap.get(0).unwrap()[2], Value::Text("before".into()));
        assert!(snap.get(1).is_none());
        // The live table sees both.
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0).unwrap()[2], Value::Text("changed".into()));
    }
}
