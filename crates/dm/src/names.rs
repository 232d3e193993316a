//! Dynamic name mapping (§4.3).
//!
//! "Information is located by constructing a name that refers to the data
//! ... Each name has the form: `[type] [root] [path] [item id]`, each one of
//! these elements being determined dynamically for every request." The cost
//! is "two extra database queries on an indexed field" — `loc_entry` by
//! `item_id`, then `loc_archive` by `archive_id` — and the payoff is that
//! administrators "can install or repair disks, reorganize the data, or
//! move data from disk to tapes by simply changing tuples in the location
//! table", at run time, without touching domain tuples.

use crate::error::{DmError, DmResult};
use crate::io::DmIo;
use hedc_metadb::{Expr, Query, Value};
use std::collections::HashMap;

/// The three name types of §4.3. Serializable so batched resolutions can
/// cross the `hedc-net` wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NameType {
    /// Local storage location (archive + path).
    File,
    /// A tuple identifier (DBMS-location independent).
    Tuple,
    /// A download URL.
    Url,
}

impl NameType {
    /// Stored representation.
    pub fn as_str(self) -> &'static str {
        match self {
            NameType::File => "file",
            NameType::Tuple => "tuple",
            NameType::Url => "url",
        }
    }

    /// Parse the stored representation back.
    pub fn parse(s: &str) -> Option<NameType> {
        match s {
            "file" => Some(NameType::File),
            "tuple" => Some(NameType::Tuple),
            "url" => Some(NameType::Url),
            _ => None,
        }
    }
}

/// A fully constructed name.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ResolvedName {
    /// Location-table entry id.
    pub entry_id: i64,
    /// Name type.
    pub name_type: NameType,
    /// Archive holding the bytes.
    pub archive_id: u32,
    /// Path *within* the archive (what `FileStore::fetch` takes): the
    /// archive's current prefix joined with `entry_path`.
    pub archive_path: String,
    /// The entry-relative path as stored in `loc_entry.path` (what UPDATEs
    /// of the location tables must use).
    pub entry_path: String,
    /// The constructed `[type]:[root]/[prefix]/[path]#[item]` name.
    pub full_name: String,
    /// Download URL, when the archive publishes one.
    pub url: Option<String>,
    /// Stored size in bytes.
    pub size: u64,
    /// Entry role (`data`, `image`, `log`, `params`, ...).
    pub role: String,
    /// Access transformations registered for the entry (e.g. `gunzip`).
    pub transforms: Vec<String>,
}

/// A cached resolution result. Newtype over the `Vec` because
/// `CacheValue` and `Vec` are both foreign to this crate, so the
/// orphan rule (E0117) forbids implementing the trait directly on
/// `Vec<ResolvedName>`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedSet(pub Vec<ResolvedName>);

impl hedc_cache::CacheValue for ResolvedSet {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .0
                .iter()
                .map(|n| {
                    std::mem::size_of::<ResolvedName>()
                        + n.archive_path.capacity()
                        + n.entry_path.capacity()
                        + n.full_name.capacity()
                        + n.url.as_ref().map_or(0, String::capacity)
                        + n.role.capacity()
                        + n.transforms
                            .iter()
                            .map(|t| std::mem::size_of::<String>() + t.capacity())
                            .sum::<usize>()
                })
                .sum::<usize>()
    }
}

/// An entry-relative path under its archive's current prefix.
fn join_prefix(prefix: &str, entry_path: &str) -> String {
    if prefix.is_empty() {
        entry_path.to_string()
    } else {
        format!("{prefix}/{entry_path}")
    }
}

/// The transformation named by a `loc_transform` row.
fn transform_name(row: &[Value]) -> String {
    row[2].as_text().unwrap_or("").to_string()
}

/// Name-mapping services over the I/O layer.
pub struct Names<'a> {
    io: &'a DmIo,
}

impl<'a> Names<'a> {
    /// Wrap the I/O layer.
    pub fn new(io: &'a DmIo) -> Self {
        Names { io }
    }

    /// Register an item (the anchor domain tuples reference).
    pub fn new_item(&self) -> DmResult<i64> {
        let item_id = self.io.next_id();
        let ts = self.io.clock.now_ms();
        self.io
            .insert("loc_item", vec![Value::Int(item_id), Value::Int(ts as i64)])?;
        Ok(item_id)
    }

    /// Ensure an archive row exists in `loc_archive`.
    pub fn register_archive(
        &self,
        archive_id: u32,
        archive_type: &str,
        path_prefix: &str,
        url_base: Option<&str>,
    ) -> DmResult<()> {
        self.io.insert(
            "loc_archive",
            vec![
                Value::Int(i64::from(archive_id)),
                Value::Text(archive_type.to_string()),
                Value::Text(path_prefix.to_string()),
                url_base
                    .map(|u| Value::Text(u.to_string()))
                    .unwrap_or(Value::Null),
                Value::Bool(true),
            ],
        )?;
        Ok(())
    }

    /// Attach a named resource to an item.
    #[allow(clippy::too_many_arguments)] // mirrors the loc_entry row
    pub fn attach(
        &self,
        item_id: i64,
        name_type: NameType,
        archive_id: u32,
        path: &str,
        size: u64,
        checksum: Option<u32>,
        role: &str,
    ) -> DmResult<i64> {
        let entry_id = self.io.next_id();
        self.io.insert(
            "loc_entry",
            vec![
                Value::Int(entry_id),
                Value::Int(item_id),
                Value::Text(name_type.as_str().to_string()),
                Value::Int(i64::from(archive_id)),
                Value::Text(path.to_string()),
                Value::Int(size as i64),
                checksum
                    .map(|c| Value::Int(i64::from(c)))
                    .unwrap_or(Value::Null),
                Value::Text(role.to_string()),
            ],
        )?;
        Ok(entry_id)
    }

    /// Register an access transformation for an entry.
    pub fn add_transform(&self, entry_id: i64, transform: &str) -> DmResult<()> {
        let id = self.io.next_id();
        self.io.insert(
            "loc_transform",
            vec![
                Value::Int(id),
                Value::Int(entry_id),
                Value::Text(transform.to_string()),
            ],
        )?;
        Ok(())
    }

    /// The archive's current path prefix (for writers: physical stores must
    /// happen at [`Names::physical_path`] so that later resolution — which
    /// joins the prefix — finds the bytes).
    pub fn archive_prefix(&self, archive_id: u32) -> DmResult<String> {
        let arch = self.io.query(
            &Query::table("loc_archive").filter(Expr::eq("archive_id", i64::from(archive_id))),
        )?;
        let row = arch.rows.first().ok_or(DmError::NotFound {
            entity: "archive",
            id: i64::from(archive_id),
        })?;
        Ok(row[2].as_text().unwrap_or("").to_string())
    }

    /// Join an entry-relative path with the archive's current prefix.
    pub fn physical_path(&self, archive_id: u32, entry_path: &str) -> DmResult<String> {
        Ok(join_prefix(&self.archive_prefix(archive_id)?, entry_path))
    }

    /// Construct all names of one type for an item: the two indexed queries
    /// of §4.3 (plus one per entry for transforms, only when present). The
    /// end-to-end cost of the mapping — the price §4.3 pays for run-time
    /// relocatability — feeds the `dm.name_map` histogram.
    ///
    /// When the result cache is enabled, successful resolutions are cached
    /// against the generation counters of the three location tables, so a
    /// relocation (one location-table UPDATE) invalidates every affected
    /// name on its next lookup.
    pub fn resolve(&self, item_id: i64, want: NameType) -> DmResult<Vec<ResolvedName>> {
        let _span = hedc_obs::Span::child("dm.name_map");
        let started = std::time::Instant::now();
        let out = self
            .resolve_cached(&[item_id], want, |ids| {
                vec![self.resolve_inner(ids[0], want)]
            })
            .pop()
            .expect("one result per item");
        self.io.name_map_hist.record(started.elapsed());
        out
    }

    /// Cache-aside over the name cache for any number of items: warm items
    /// are served without touching the database, the misses go to `read`
    /// in one call, and every successful read is filled against one
    /// generation snapshot of the three location tables taken **before**
    /// `read` ran — a racing relocation leaves the whole batch born-stale,
    /// never live.
    fn resolve_cached(
        &self,
        item_ids: &[i64],
        want: NameType,
        read: impl FnOnce(&[i64]) -> Vec<DmResult<Vec<ResolvedName>>>,
    ) -> Vec<DmResult<Vec<ResolvedName>>> {
        let Some(caches) = self.io.caches() else {
            return read(item_ids);
        };
        let keys: Vec<String> = item_ids
            .iter()
            .map(|id| format!("names:{}:{id}", want.as_str()))
            .collect();
        let mut out: Vec<Option<DmResult<Vec<ResolvedName>>>> = keys
            .iter()
            .map(|key| caches.names.get(key).map(|set| Ok(set.0)))
            .collect();
        let miss_idx: Vec<usize> = (0..out.len()).filter(|&i| out[i].is_none()).collect();
        if !miss_idx.is_empty() {
            let miss_ids: Vec<i64> = miss_idx.iter().map(|&i| item_ids[i]).collect();
            let deps = caches
                .gens
                .snapshot(&["loc_entry", "loc_archive", "loc_transform"]);
            for (&i, r) in miss_idx.iter().zip(read(&miss_ids)) {
                if let Ok(names) = &r {
                    caches
                        .names
                        .put(&keys[i], ResolvedSet(names.clone()), deps.clone());
                }
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every item hit or was read"))
            .collect()
    }

    fn resolve_inner(&self, item_id: i64, want: NameType) -> DmResult<Vec<ResolvedName>> {
        // Query 1: entries by item id (indexed on item_id).
        let entries = self
            .io
            .query(&Query::table("loc_entry").filter(Expr::eq("item_id", item_id)))?;
        self.build_names(
            item_id,
            want,
            &entries.rows,
            // Query 2: archive type + current path prefix (indexed pk).
            |archive_id| {
                let arch = self.io.query(
                    &Query::table("loc_archive").filter(Expr::eq("archive_id", archive_id)),
                )?;
                Ok(arch.rows.into_iter().next())
            },
            |entry_id| {
                let t = self
                    .io
                    .query(&Query::table("loc_transform").filter(Expr::eq("entry_id", entry_id)))?;
                Ok(t.rows.iter().map(|r| transform_name(r)).collect())
            },
        )
    }

    /// The name construction of §4.3, shared by the single-item and batched
    /// paths: one [`ResolvedName`] per `loc_entry` row of `item_id` whose
    /// type is `want`. `archive` yields the `loc_archive` row of an archive
    /// id and `transforms` the access transformations of an entry id —
    /// indexed queries on the single path, map lookups on the batched one —
    /// and each is asked only once everything before it has checked out, so
    /// an entry of another type or on an offline archive costs no lookup
    /// beyond the one that rules it out.
    fn build_names<'r, A: AsRef<[Value]>>(
        &self,
        item_id: i64,
        want: NameType,
        entries: impl IntoIterator<Item = &'r Vec<Value>>,
        archive: impl Fn(i64) -> DmResult<Option<A>>,
        transforms: impl Fn(i64) -> DmResult<Vec<String>>,
    ) -> DmResult<Vec<ResolvedName>> {
        let mut out = Vec::new();
        for row in entries {
            let entry_id = row[0].as_int().expect("entry id");
            let name_type = NameType::parse(row[2].as_text().unwrap_or(""))
                .ok_or_else(|| DmError::Integrity(format!("bad name_type in entry {entry_id}")))?;
            if name_type != want {
                continue;
            }
            let archive_id = row[3].as_int().expect("archive id");
            let path = row[4].as_text().unwrap_or("").to_string();
            let size = row[5].as_int().unwrap_or(0) as u64;
            let role = row[7].as_text().unwrap_or("data").to_string();

            let arch_row = archive(archive_id)?.ok_or(DmError::NotFound {
                entity: "archive",
                id: archive_id,
            })?;
            let arch_row = arch_row.as_ref();
            let archive_id = archive_id as u32;
            let prefix = arch_row[2].as_text().unwrap_or("");
            let online = arch_row[4].as_bool().unwrap_or(false);
            if !online {
                return Err(DmError::Fs(hedc_filestore::FsError::Offline(archive_id)));
            }

            let archive_path = join_prefix(prefix, &path);
            let full_name = format!(
                "{}:{}/{}#{}",
                want.as_str(),
                self.io.name_root(),
                archive_path,
                item_id
            );
            let url = arch_row[3]
                .as_text()
                .map(|base| format!("{base}/{archive_path}"));

            out.push(ResolvedName {
                entry_id,
                name_type,
                archive_id,
                entry_path: path,
                archive_path,
                full_name,
                url,
                size,
                role,
                transforms: transforms(entry_id)?,
            });
        }
        Ok(out)
    }

    /// Construct names for *many* items in one pass — the batched hot
    /// path. A browse page of N items pays §4.3's "two extra database
    /// queries" **per batch** instead of per item: one `IN`-list probe
    /// over the `loc_entry` item index, one over the `loc_archive`
    /// primary key (plus one over `loc_transform` for access
    /// transformations), then a per-item stitch. Results come back in
    /// `item_ids` order, one per input, with per-item error isolation:
    /// an item whose entries reference a missing or offline archive
    /// fails alone; its neighbours still resolve.
    ///
    /// Only the items the name cache misses go into the batched queries.
    pub fn resolve_batch(
        &self,
        item_ids: &[i64],
        want: NameType,
    ) -> Vec<DmResult<Vec<ResolvedName>>> {
        let _span = hedc_obs::Span::child("dm.name_map.batch");
        let started = std::time::Instant::now();
        let out = self.resolve_cached(item_ids, want, |ids| {
            // A failed batched query fails every item it was read for.
            self.resolve_batch_inner(ids, want)
                .unwrap_or_else(|e| vec![Err(e); ids.len()])
        });
        self.io.name_map_batch_hist.record(started.elapsed());
        out
    }

    fn resolve_batch_inner(
        &self,
        item_ids: &[i64],
        want: NameType,
    ) -> DmResult<Vec<DmResult<Vec<ResolvedName>>>> {
        if item_ids.is_empty() {
            return Ok(Vec::new());
        }
        // Batched query 1: every location entry for the whole item set —
        // one multi-point probe over the loc_entry item_id index.
        let entries = self.io.query(
            &Query::table("loc_entry").filter(Expr::in_list("item_id", item_ids.iter().copied())),
        )?;
        let mut rows_by_item: HashMap<i64, Vec<&Vec<Value>>> = HashMap::new();
        let mut archive_ids: Vec<i64> = Vec::new();
        let mut entry_ids: Vec<i64> = Vec::new();
        for row in &entries.rows {
            let item = row[1].as_int().expect("item id");
            if NameType::parse(row[2].as_text().unwrap_or("")) == Some(want) {
                archive_ids.push(row[3].as_int().expect("archive id"));
                entry_ids.push(row[0].as_int().expect("entry id"));
            }
            rows_by_item.entry(item).or_default().push(row);
        }
        archive_ids.sort_unstable();
        archive_ids.dedup();

        // Batched query 2: every referenced archive, one multi-point probe
        // on the loc_archive primary key.
        let archive_rows = if archive_ids.is_empty() {
            Vec::new()
        } else {
            self.io
                .query(
                    &Query::table("loc_archive").filter(Expr::in_list("archive_id", archive_ids)),
                )?
                .rows
        };
        let archive_by_id: HashMap<i64, &Vec<Value>> = archive_rows
            .iter()
            .map(|row| (row[0].as_int().expect("archive id"), row))
            .collect();

        // Batched query 3 (the per-entry transform lookups of the single-item
        // path, collapsed): all transforms for the wanted entries.
        let mut transforms_by_entry: HashMap<i64, Vec<String>> = HashMap::new();
        if !entry_ids.is_empty() {
            let t = self.io.query(
                &Query::table("loc_transform").filter(Expr::in_list("entry_id", entry_ids)),
            )?;
            for row in &t.rows {
                transforms_by_entry
                    .entry(row[1].as_int().expect("entry id"))
                    .or_default()
                    .push(transform_name(row));
            }
        }

        // Stitch: per item, the same construction (and the same error
        // semantics) as the single-item path, from the maps.
        Ok(item_ids
            .iter()
            .map(|&item_id| {
                self.build_names(
                    item_id,
                    want,
                    rows_by_item.get(&item_id).into_iter().flatten().copied(),
                    |archive_id| Ok(archive_by_id.get(&archive_id).copied()),
                    |entry_id| {
                        Ok(transforms_by_entry
                            .get(&entry_id)
                            .cloned()
                            .unwrap_or_default())
                    },
                )
            })
            .collect())
    }

    /// Fetch an item's primary data file through the name mapping — the only
    /// sanctioned way from metadata to bytes (§4.1: data "is only accessible
    /// through the meta data").
    pub fn fetch_data(&self, item_id: i64) -> DmResult<Vec<u8>> {
        let names = self.resolve(item_id, NameType::File)?;
        let primary = names
            .iter()
            .find(|n| n.role == "data")
            .or_else(|| names.first())
            .ok_or(DmError::NotFound {
                entity: "file for item",
                id: item_id,
            })?;
        Ok(self
            .io
            .files
            .fetch(primary.archive_id, &primary.archive_path)?)
    }

    /// Run-time relocation, variant A (§4.3): change an archive's path
    /// prefix. One UPDATE on the location tables; no domain tuples touched.
    pub fn set_archive_prefix(&self, archive_id: u32, new_prefix: &str) -> DmResult<usize> {
        self.io.execute(hedc_metadb::Statement::Update {
            table: "loc_archive".into(),
            sets: vec![(
                "path_prefix".into(),
                Expr::Literal(Value::Text(new_prefix.to_string())),
            )],
            filter: Some(Expr::eq("archive_id", i64::from(archive_id))),
        })
    }

    /// Run-time relocation, variant B: point entries at a different archive
    /// after their files were migrated (`hedc_filestore::migrate_batch`).
    pub fn repoint_entries(
        &self,
        from_archive: u32,
        to_archive: u32,
        paths: &[String],
    ) -> DmResult<usize> {
        let mut moved = 0usize;
        for path in paths {
            moved += self.io.execute(hedc_metadb::Statement::Update {
                table: "loc_entry".into(),
                sets: vec![(
                    "archive_id".into(),
                    Expr::Literal(Value::Int(i64::from(to_archive))),
                )],
                filter: Some(
                    Expr::eq("archive_id", i64::from(from_archive))
                        .and(Expr::eq("path", path.as_str())),
                ),
            })?;
        }
        Ok(moved)
    }

    /// Mark an archive offline/online in the location tables.
    pub fn set_archive_online(&self, archive_id: u32, online: bool) -> DmResult<usize> {
        self.io.execute(hedc_metadb::Statement::Update {
            table: "loc_archive".into(),
            sets: vec![("online".into(), Expr::Literal(Value::Bool(online)))],
            filter: Some(Expr::eq("archive_id", i64::from(archive_id))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{cached_node, node};
    use hedc_cache::CacheConfig;

    fn io() -> DmIo {
        node("names-test", Default::default())
    }

    #[test]
    fn attach_and_resolve_file_name() {
        let io = io();
        let names = Names::new(&io);
        names
            .register_archive(1, "disk", "online", Some("http://hedc.ethz.ch/data"))
            .unwrap();
        let item = names.new_item().unwrap();
        io.files.store(1, "online/raw/u1.fits", b"bytes").unwrap();
        names
            .attach(item, NameType::File, 1, "raw/u1.fits", 5, Some(7), "data")
            .unwrap();
        let resolved = names.resolve(item, NameType::File).unwrap();
        assert_eq!(resolved.len(), 1);
        let n = &resolved[0];
        assert_eq!(n.archive_path, "online/raw/u1.fits");
        assert_eq!(n.full_name, format!("file:hedc/online/raw/u1.fits#{item}"));
        assert_eq!(
            n.url.as_deref(),
            Some("http://hedc.ethz.ch/data/online/raw/u1.fits")
        );
        // And the bytes are reachable only through this mapping.
        assert_eq!(names.fetch_data(item).unwrap(), b"bytes");
    }

    #[test]
    fn relocation_changes_only_location_tables() {
        let io = io();
        let names = Names::new(&io);
        names.register_archive(1, "disk", "v1", None).unwrap();
        let item = names.new_item().unwrap();
        io.files.store(1, "v1/raw/u1.fits", b"x").unwrap();
        names
            .attach(item, NameType::File, 1, "raw/u1.fits", 1, None, "data")
            .unwrap();
        // Administrator moves the archive root: one location-table update.
        io.files.store(1, "v2/raw/u1.fits", b"x").unwrap();
        assert_eq!(names.set_archive_prefix(1, "v2").unwrap(), 1);
        let resolved = names.resolve(item, NameType::File).unwrap();
        assert_eq!(resolved[0].archive_path, "v2/raw/u1.fits");
        assert_eq!(names.fetch_data(item).unwrap(), b"x");
    }

    #[test]
    fn repointing_entries_after_migration() {
        let io = io();
        let names = Names::new(&io);
        names.register_archive(1, "disk", "", None).unwrap();
        names.register_archive(2, "tape", "", None).unwrap();
        let item = names.new_item().unwrap();
        io.files.store(1, "raw/u1.fits", b"payload").unwrap();
        names
            .attach(item, NameType::File, 1, "raw/u1.fits", 7, None, "data")
            .unwrap();
        // Migrate the file, then repoint.
        hedc_filestore::migrate_file(&io.files, 1, 2, "raw/u1.fits").unwrap();
        let n = names
            .repoint_entries(1, 2, &["raw/u1.fits".to_string()])
            .unwrap();
        assert_eq!(n, 1);
        let resolved = names.resolve(item, NameType::File).unwrap();
        assert_eq!(resolved[0].archive_id, 2);
        assert_eq!(names.fetch_data(item).unwrap(), b"payload");
    }

    #[test]
    fn offline_archive_blocks_resolution() {
        let io = io();
        let names = Names::new(&io);
        names.register_archive(1, "disk", "", None).unwrap();
        let item = names.new_item().unwrap();
        names
            .attach(item, NameType::File, 1, "f", 0, None, "data")
            .unwrap();
        names.set_archive_online(1, false).unwrap();
        assert!(matches!(
            names.resolve(item, NameType::File),
            Err(DmError::Fs(hedc_filestore::FsError::Offline(1)))
        ));
        names.set_archive_online(1, true).unwrap();
        assert!(names.resolve(item, NameType::File).is_ok());
    }

    #[test]
    fn transforms_and_roles() {
        let io = io();
        let names = Names::new(&io);
        names.register_archive(1, "disk", "", None).unwrap();
        let item = names.new_item().unwrap();
        let entry = names
            .attach(item, NameType::File, 1, "u1.fits.gz", 10, None, "data")
            .unwrap();
        names.add_transform(entry, "gunzip").unwrap();
        names
            .attach(item, NameType::File, 1, "u1.log", 2, None, "log")
            .unwrap();
        let resolved = names.resolve(item, NameType::File).unwrap();
        assert_eq!(resolved.len(), 2);
        let data = resolved.iter().find(|n| n.role == "data").unwrap();
        assert_eq!(data.transforms, vec!["gunzip"]);
        // Url resolution returns nothing: no url entries attached.
        assert!(names.resolve(item, NameType::Url).unwrap().is_empty());
    }

    #[test]
    fn cached_resolution_skips_database_until_relocation() {
        let io = cached_node("names-cache-test", CacheConfig::default());
        let names = Names::new(&io);
        names.register_archive(1, "disk", "v1", None).unwrap();
        let item = names.new_item().unwrap();
        names
            .attach(item, NameType::File, 1, "raw/u1.fits", 1, None, "data")
            .unwrap();

        let first = names.resolve(item, NameType::File).unwrap();
        let before = io.db_for("loc_entry").stats();
        let second = names.resolve(item, NameType::File).unwrap();
        let delta = io.db_for("loc_entry").stats().since(&before);
        assert_eq!(first, second);
        assert_eq!(
            delta.queries, 0,
            "warm name resolution must not touch the database"
        );

        // A run-time relocation is one location-table UPDATE; the very next
        // resolve must observe it (no stale name served).
        names.set_archive_prefix(1, "v2").unwrap();
        let moved = names.resolve(item, NameType::File).unwrap();
        assert_eq!(moved[0].archive_path, "v2/raw/u1.fits");
    }

    #[test]
    fn batch_matches_per_item_resolution() {
        let io = io();
        let names = Names::new(&io);
        names
            .register_archive(1, "disk", "online", Some("http://hedc.ethz.ch/data"))
            .unwrap();
        let mut items = Vec::new();
        for i in 0..5 {
            let item = names.new_item().unwrap();
            let entry = names
                .attach(
                    item,
                    NameType::File,
                    1,
                    &format!("raw/u{i}.fits"),
                    10 + i,
                    None,
                    "data",
                )
                .unwrap();
            if i == 2 {
                names.add_transform(entry, "gunzip").unwrap();
            }
            items.push(item);
        }
        let no_entries = names.new_item().unwrap();
        items.push(no_entries);

        let batch = names.resolve_batch(&items, NameType::File);
        assert_eq!(batch.len(), items.len());
        for (item, got) in items.iter().zip(&batch) {
            let single = names.resolve(*item, NameType::File).unwrap();
            assert_eq!(got.as_ref().unwrap(), &single, "item {item}");
        }
        assert!(batch.last().unwrap().as_ref().unwrap().is_empty());
        assert_eq!(batch[2].as_ref().unwrap()[0].transforms, vec!["gunzip"]);
    }

    #[test]
    fn batch_costs_constant_queries_regardless_of_width() {
        let io = io();
        let names = Names::new(&io);
        names.register_archive(1, "disk", "", None).unwrap();
        let items: Vec<i64> = (0..8)
            .map(|i| {
                let item = names.new_item().unwrap();
                names
                    .attach(item, NameType::File, 1, &format!("u{i}"), 1, None, "data")
                    .unwrap();
                item
            })
            .collect();
        let before = io.db_for("loc_entry").stats();
        let batch = names.resolve_batch(&items, NameType::File);
        let delta = io.db_for("loc_entry").stats().since(&before);
        assert!(batch.iter().all(Result::is_ok));
        assert_eq!(
            delta.queries, 3,
            "8-item batch must cost the entry + archive + transform queries, not 8×3"
        );
    }

    #[test]
    fn batch_isolates_per_item_failures() {
        let io = io();
        let names = Names::new(&io);
        names.register_archive(1, "disk", "", None).unwrap();
        names.register_archive(2, "tape", "", None).unwrap();
        let ok_item = names.new_item().unwrap();
        names
            .attach(ok_item, NameType::File, 1, "a", 1, None, "data")
            .unwrap();
        let offline_item = names.new_item().unwrap();
        names
            .attach(offline_item, NameType::File, 2, "b", 1, None, "data")
            .unwrap();
        let orphan_item = names.new_item().unwrap();
        names
            .attach(orphan_item, NameType::File, 42, "c", 1, None, "data")
            .unwrap();
        names.set_archive_online(2, false).unwrap();

        let batch = names.resolve_batch(&[ok_item, offline_item, orphan_item], NameType::File);
        assert_eq!(batch[0].as_ref().unwrap().len(), 1, "healthy item resolves");
        assert!(matches!(
            batch[1],
            Err(DmError::Fs(hedc_filestore::FsError::Offline(2)))
        ));
        assert!(matches!(batch[2], Err(DmError::NotFound { .. })));
    }

    #[test]
    fn batch_serves_warm_items_from_cache_and_queries_only_misses() {
        let io = cached_node("names-batch-cache", CacheConfig::default());
        let names = Names::new(&io);
        names.register_archive(1, "disk", "v1", None).unwrap();
        let items: Vec<i64> = (0..4)
            .map(|i| {
                let item = names.new_item().unwrap();
                names
                    .attach(item, NameType::File, 1, &format!("u{i}"), 1, None, "data")
                    .unwrap();
                item
            })
            .collect();

        // Partial warmth: warm half the set first, then batch all of it —
        // the warm half is served by cache multi-get, the cold half by one
        // batched miss pass (3 queries), never one query set per item.
        let head = names.resolve_batch(&items[..2], NameType::File);
        let before = io.db_for("loc_entry").stats();
        let full = names.resolve_batch(&items, NameType::File);
        let delta = io.db_for("loc_entry").stats().since(&before);
        assert_eq!(delta.queries, 3, "misses resolve in one batched pass");
        for (c, w) in head.iter().zip(&full) {
            assert_eq!(c.as_ref().unwrap(), w.as_ref().unwrap());
        }

        // Fully warm: zero database work.
        let before = io.db_for("loc_entry").stats();
        let warm = names.resolve_batch(&items, NameType::File);
        let delta = io.db_for("loc_entry").stats().since(&before);
        assert_eq!(delta.queries, 0, "fully warm batch must not touch the db");
        for (c, w) in full.iter().zip(&warm) {
            assert_eq!(c.as_ref().unwrap(), w.as_ref().unwrap());
        }

        // A relocation invalidates every cached fill of the batch at once.
        names.set_archive_prefix(1, "v2").unwrap();
        let moved = names.resolve_batch(&items, NameType::File);
        for r in &moved {
            assert!(r.as_ref().unwrap()[0].archive_path.starts_with("v2/"));
        }
    }

    #[test]
    fn missing_archive_row_is_integrity_error() {
        let io = io();
        let names = Names::new(&io);
        let item = names.new_item().unwrap();
        names
            .attach(item, NameType::File, 42, "f", 0, None, "data")
            .unwrap();
        assert!(matches!(
            names.resolve(item, NameType::File),
            Err(DmError::NotFound { .. })
        ));
    }
}
