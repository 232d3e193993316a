//! Node assembly: the single browse node, the WAL-backed ingest node, and
//! the 2×2 sharded cluster over loopback sockets. Everything is built from
//! the program's public constructors; every file a node writes lives under
//! the run's [`Scratch`] directory inside the checkout.

use crate::catalogue::{self, Manifest, Sizes, DERIVED_ARCHIVE, RAW_ARCHIVE};
use hedc_cache::CacheConfig;
use hedc_dm::{
    create_user, schema, Clock, Dm, DmConfig, DmIo, DmNode, DmResult, IngestConfig, IoConfig,
    Names, Partitioning, Rights, Services, Session, SessionKind, SessionManager, ShardMap,
    ShardMapHandle, ShardedDm,
};
use hedc_filestore::{Archive, ArchiveTier, DirBackend, FileStore};
use hedc_metadb::{
    Database, DbOptions, Expr, Query, StorageBackend, StorageConfig, Value, WalOptions,
};
use hedc_net::{AdmissionConfig, DmServer, NetConfig, NetDm, ServerConfig, ShardIdentity};
use hedc_web::WebServer;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The benchmark's scientist account.
pub const USER: &str = "bench";
/// Its password.
pub const PASSWORD: &str = "bench-pw";
/// The one client address every request carries (both generator threads
/// share one logged-in session: a second login would evict the first, §5.3).
pub const CLIENT_IP: &str = "10.0.0.7";

/// A per-run scratch directory inside the checkout, removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Create `<base>/run-<pid>-<label>` (and its parents).
    pub fn new(base: &Path, label: &str) -> std::io::Result<Scratch> {
        let dir = base.join(format!("run-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total size of the regular files under `path` (a file or a directory).
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

fn memory_files() -> Arc<FileStore> {
    let files = FileStore::new();
    files.register(Archive::in_memory(
        RAW_ARCHIVE,
        "raw",
        ArchiveTier::OnlineDisk,
        8 << 30,
    ));
    files.register(Archive::in_memory(
        DERIVED_ARCHIVE,
        "derived",
        ArchiveTier::OnlineRaid,
        8 << 30,
    ));
    Arc::new(files)
}

/// A paged backend over a page file that does not exist yet. The store
/// truncates whatever it finds at its path, and ext4 answers "truncate, then
/// rewrite" with a forced write-out of the whole file when it is closed
/// (`auto_da_alloc`): reusing a path would have every node but the first
/// flush its several hundred MiB of pages to disk — and discard them again
/// at the next truncate — in the background of the next trial's timed
/// windows. A fresh inode has no such history, and its pages die in the page
/// cache when the scratch directory goes.
fn paged(store_path: PathBuf, cache_pages: usize) -> StorageConfig {
    let _ = std::fs::remove_file(&store_path);
    StorageConfig {
        backend: StorageBackend::Paged,
        page_size: 4096,
        cache_pages,
        store_path: Some(store_path),
    }
}

/// One DM node behind the thin web tier, with the catalogue loaded and the
/// benchmark user logged in.
pub struct BrowseNode {
    /// The node.
    pub dm: Arc<Dm>,
    /// The web tier in front of it (browse only: no PL).
    pub web: WebServer,
    /// The logged-in session (kind `Hle`), for DM-level calls.
    pub session: Arc<Session>,
    /// Its cookie, for web requests.
    pub cookie: u64,
    /// Ground truth.
    pub manifest: Manifest,
    /// The paged store's backing file.
    pub store_path: PathBuf,
}

/// Boot a paged single node and load the catalogue into it.
pub fn browse_node(
    scratch: &Scratch,
    label: &str,
    cache: Option<CacheConfig>,
    cache_pages: usize,
    sizes: &Sizes,
    seed: u64,
) -> DmResult<BrowseNode> {
    let store_path = scratch.path(&format!("{label}.pages"));
    let dm = Dm::bootstrap(
        memory_files(),
        DmConfig {
            io: IoConfig {
                cache,
                ..IoConfig::default()
            },
            storage: paged(store_path.clone(), cache_pages),
            ..DmConfig::default()
        },
    )?;
    dm.create_user(USER, PASSWORD, "science", Rights::SCIENTIST)?;
    let cookie = dm.login(USER, PASSWORD, CLIENT_IP)?;
    let session = dm.session(CLIENT_IP, cookie, SessionKind::Hle)?;
    let manifest = catalogue::build(&dm.io, &session, sizes, seed, DERIVED_ARCHIVE)?;
    Ok(BrowseNode {
        web: WebServer::new(Arc::clone(&dm), None),
        dm,
        session,
        cookie,
        manifest,
        store_path,
    })
}

/// A hand-assembled node over a WAL-backed paged database and directory
/// archives — the pieces that survive process death, so it can be dropped
/// and reopened from the log alone. (`Dm::bootstrap` takes no WAL path, so
/// this node has no `Dm` and therefore no `WebServer`: its reader issues
/// the page's DM calls directly.)
pub struct WalNode {
    /// The I/O layer (result cache on).
    pub io: DmIo,
    /// Session cache; owns the logged-in sessions.
    pub sessions: SessionManager,
    /// The logged-in benchmark session.
    pub session: Arc<Session>,
    /// Ingest parameters bound to this node's archives and catalog.
    pub ingest: IngestConfig,
}

/// The in-memory archive a [`WalNode`] keeps the catalogue's files in.
pub const CATALOGUE_ARCHIVE: u32 = 3;

/// Where a [`WalNode`] keeps its durable and scratch state.
#[derive(Debug, Clone)]
pub struct WalPaths {
    /// Redo log.
    pub wal: PathBuf,
    /// Paged store backing file (scratch: rebuilt from the log at open).
    pub store: PathBuf,
    /// Root of the two directory-backed archives.
    pub archives: PathBuf,
}

impl WalPaths {
    /// Bytes on disk: page file + redo log + both archives.
    pub fn disk_bytes(&self) -> u64 {
        disk_bytes(&self.store) + disk_bytes(&self.wal) + disk_bytes(&self.archives)
    }

    /// Paths under `scratch`.
    pub fn under(scratch: &Scratch) -> WalPaths {
        WalPaths {
            wal: scratch.path("ingest.wal"),
            store: scratch.path("ingest.pages"),
            archives: scratch.path("archives"),
        }
    }
}

/// Open (or reopen) the WAL node. A fresh log gets schema, archives, the
/// benchmark user and the `extended` catalog; a log with history is
/// replayed and the id/clock allocators are re-seeded past it.
pub fn wal_node(
    paths: &WalPaths,
    wal: WalOptions,
    cache: Option<CacheConfig>,
    cache_pages: usize,
) -> DmResult<WalNode> {
    let db = Database::open(
        "ingest-browse",
        DbOptions {
            storage: paged(paths.store.clone(), cache_pages),
            wal_path: Some(paths.wal.clone()),
            wal,
        },
    )?;
    let fresh = db.table_names().is_empty();
    if fresh {
        let mut conn = db.connect();
        schema::create_generic(&mut conn)?;
        schema::create_domain(&mut conn)?;
    }
    let files = FileStore::new();
    for (id, name) in [(RAW_ARCHIVE, "raw"), (DERIVED_ARCHIVE, "derived")] {
        let backend = DirBackend::new(paths.archives.join(name)).map_err(hedc_dm::DmError::Fs)?;
        files.register(Archive::new(
            id,
            name,
            ArchiveTier::OnlineDisk,
            8 << 30,
            Box::new(backend),
        ));
    }
    // The catalogue's 12 000 small analysis files stay in memory: a
    // directory archive re-measures its whole tree on every store, which
    // would turn set-up quadratic. They are not part of what the reopen
    // must bring back; the telemetry the writer ingests is, and that goes
    // to the two directory archives above.
    files.register(Archive::in_memory(
        CATALOGUE_ARCHIVE,
        "catalogue",
        ArchiveTier::OnlineRaid,
        8 << 30,
    ));
    let io = DmIo::new(
        vec![db],
        Partitioning::single(),
        Arc::new(files),
        Clock::starting_at(0),
        &IoConfig {
            cache,
            ..IoConfig::default()
        },
    );
    if fresh {
        let names = Names::new(&io);
        for status in io.files.statuses() {
            names.register_archive(status.id, &format!("{:?}", status.tier), "", None)?;
            io.insert(
                "op_archives",
                vec![
                    Value::Int(i64::from(status.id)),
                    Value::Text(status.name.clone()),
                    Value::Text(format!("{:?}", status.tier)),
                    Value::Text(format!("{:?}", status.state)),
                    Value::Int(status.capacity as i64),
                    Value::Int(status.used as i64),
                ],
            )?;
        }
        create_user(&io, USER, PASSWORD, "science", Rights::SCIENTIST)?;
    } else {
        io.reseed_after_recovery();
    }
    let sessions = SessionManager::new();
    let cookie = sessions.authenticate(&io, USER, PASSWORD, CLIENT_IP)?;
    let session = sessions.lookup(CLIENT_IP, cookie, SessionKind::Hle)?;
    let catalog = if fresh {
        let svc = Services::new(&io);
        let id = svc.create_catalog(&session, "extended", "system", None)?;
        svc.publish(&session, "catalog", id)?;
        id
    } else {
        io.query(&Query::table("catalog").filter(Expr::eq("name", "extended")))?
            .rows
            .first()
            .and_then(|r| r[0].as_int())
            .ok_or(hedc_dm::DmError::NotFound {
                entity: "catalog",
                id: 0,
            })?
    };
    Ok(WalNode {
        ingest: IngestConfig::new(RAW_ARCHIVE, DERIVED_ARCHIVE, catalog),
        io,
        sessions,
        session,
    })
}

/// Shards in the cluster.
pub const SHARDS: u32 = 2;
/// Replicas per shard.
pub const REPLICAS: usize = 2;
/// Range intervals `hle.time_end` is cut into (assigned round-robin, so a
/// 5 %-of-span window often straddles a cut and fans out to both shards).
pub const HLE_INTERVALS: i64 = 8;
/// Tables copied from the twin into the shards, with their shard-key column
/// index. `ana` is not queried by this workload and stays on the twin.
const SHARDED_TABLES: [(&str, usize); 3] = [("hle", 4), ("loc_item", 0), ("loc_entry", 1)];

/// The 2 shards × 2 replicas cluster, its router, and its oracle twin.
pub struct Cluster {
    /// The router under test: `ShardedDm` over `NetDm` clients.
    pub sharded: ShardedDm,
    /// `replicas[shard][replica]`: the in-process nodes behind the servers.
    pub replicas: Vec<Vec<Arc<Dm>>>,
    /// `clients[shard][replica]`: the same `NetDm`s the router holds.
    pub clients: Vec<Vec<Arc<NetDm>>>,
    /// An unsharded, uncached in-process node holding every row: the
    /// correctness oracle, and the source the shards were filled from.
    pub twin: Arc<Dm>,
    /// Ground truth.
    pub manifest: Manifest,
    /// The servers; dropped (and joined) with the cluster.
    servers: Vec<DmServer>,
}

/// The cluster's partitioning: `hle` range-sharded on `time_end`, the
/// location tables hash-sharded on the item id (so an item, its entries and
/// its resolve requests co-locate).
pub fn cluster_map(span_ms: u64) -> ShardMap {
    let width = span_ms as i64 / HLE_INTERVALS;
    let cuts: Vec<i64> = (1..HLE_INTERVALS).map(|i| i * width).collect();
    let assign: Vec<u32> = (0..HLE_INTERVALS as u32).map(|i| i % SHARDS).collect();
    ShardMap::new(SHARDS)
        .with_range("hle", "time_end", cuts, assign)
        .with_hash("loc_item", "item_id", 64)
        .with_hash("loc_entry", "item_id", 64)
}

/// Boot the cluster: build the catalogue once on the twin, copy each row of
/// the sharded tables to both replicas of its owning shard, put every
/// replica behind its own `DmServer::bind_sharded` on `127.0.0.1:0`
/// (one admission worker each), and route through `NetDm` clients with one
/// pooled connection per replica. Result caches are off everywhere.
pub fn cluster(sizes: &Sizes, seed: u64) -> DmResult<Cluster> {
    let twin = Dm::bootstrap(memory_files(), DmConfig::default())?;
    twin.create_user(USER, PASSWORD, "science", Rights::SCIENTIST)?;
    let cookie = twin.login(USER, PASSWORD, CLIENT_IP)?;
    let session = twin.session(CLIENT_IP, cookie, SessionKind::Hle)?;
    let manifest = catalogue::build(&twin.io, &session, sizes, seed, DERIVED_ARCHIVE)?;
    let map = cluster_map(manifest.span_ms);
    let mut replicas: Vec<Vec<Arc<Dm>>> = Vec::new();
    for _ in 0..SHARDS {
        let mut set = Vec::new();
        for _ in 0..REPLICAS {
            set.push(Dm::bootstrap(memory_files(), DmConfig::default())?);
        }
        replicas.push(set);
    }
    for (table, key_col) in SHARDED_TABLES {
        for row in twin.io.query(&Query::table(table))?.rows {
            let key = row[key_col].as_int().expect("integer shard key");
            let shard = map.shard_for(table, key).expect("table is sharded");
            for dm in &replicas[shard as usize] {
                dm.io.insert(table, row.clone())?;
            }
        }
    }
    let handle = ShardMapHandle::new(map.clone());
    let mut servers = Vec::new();
    let mut clients: Vec<Vec<Arc<NetDm>>> = Vec::new();
    for (s, set) in replicas.iter().enumerate() {
        let mut shard_clients = Vec::new();
        for (r, dm) in set.iter().enumerate() {
            let server = DmServer::bind_sharded(
                "127.0.0.1:0",
                Arc::clone(dm) as Arc<dyn DmNode>,
                ServerConfig {
                    admission: AdmissionConfig {
                        workers: 1,
                        reader_shards: 1,
                        ..AdmissionConfig::default()
                    },
                    ..ServerConfig::default()
                },
                ShardIdentity {
                    shard: s as u32,
                    map: Arc::clone(&handle),
                },
            )
            .map_err(|e| hedc_dm::DmError::RemoteUnavailable(format!("bind: {e}")))?;
            shard_clients.push(Arc::new(NetDm::connect(
                server.local_addr(),
                format!("shard{s}-r{r}"),
                NetConfig {
                    pool_size: 1,
                    ..NetConfig::default()
                },
            )));
            servers.push(server);
        }
        clients.push(shard_clients);
    }
    let replica_sets = clients
        .iter()
        .map(|set| {
            set.iter()
                .map(|c| Arc::clone(c) as Arc<dyn DmNode>)
                .collect()
        })
        .collect();
    Ok(Cluster {
        sharded: ShardedDm::new(replica_sets, map),
        replicas,
        clients,
        twin,
        manifest,
        servers,
    })
}

impl Cluster {
    /// Stop every server (joins their threads).
    pub fn shutdown(&mut self) {
        for s in &mut self.servers {
            s.shutdown();
        }
    }
}
