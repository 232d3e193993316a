//! The test kit: the one seed and the fixtures every seeded suite, unit
//! test and harness binary builds on.
//!
//! **Seed → labelled stream.** A run has one [`Seed`]
//! (`Seed::from_env(default)`, the workspace's only reader of
//! `HEDC_TEST_SEED`) and every source of randomness in it draws from a
//! [`Stream`] it was *handed* — `seed.stream("node-faults")` for
//! [`FaultyDmNode`] replicas, `"workflow-crash"` for the [`CrashSite`]
//! cell a mover or ingest dies at, `"clients"` for request schedules — so
//! the three compose in one test and replay from one printed number.
//!
//! **Fixtures.** [`memory_files`], [`node`] / [`node_with`] /
//! [`cached_node`] / [`catalog_node`], [`dm`] / [`dm_with`] /
//! [`dm_with_telemetry`], [`login`], [`Loader`] (a node
//! ready for `pipeline::ingest`, in memory or over a WAL), the named-field
//! [`HleRow`], and [`ShardedFixture`] (shard stores + faulty replicas + the
//! unsharded oracle twin). Fixtures that need `hedc-net` live in
//! `crates/net/tests/common/mod.rs`, above this crate.
//!
//! [`CrashSite`]: crate::CrashSite

use crate::{
    create_user, pipeline, schema, Clock, Dm, DmConfig, DmIo, DmNode, FaultPlan, FaultyDmNode,
    IngestConfig, IngestOptions, IoConfig, Names, Partitioning, Rights, Services, Session,
    SessionKind, SessionManager, ShardMap, ShardedDm,
};
use hedc_cache::CacheConfig;
use hedc_events::{generate, package, GenConfig};
use hedc_filestore::{Archive, ArchiveTier, DirBackend, FileStore};
use hedc_metadb::{Database, DbOptions, Expr, Query, StorageConfig, Value, WalOptions};
pub use hedc_obs::{Seed, Stream};
use std::path::Path;
use std::sync::Arc;

/// A file store with the two archives every node mounts: 1 `raw`
/// (online disk) and 2 `derived` (online RAID), 1 GiB each, in memory.
pub fn memory_files() -> Arc<FileStore> {
    let files = FileStore::new();
    files.register(Archive::in_memory(
        1,
        "raw",
        ArchiveTier::OnlineDisk,
        1 << 30,
    ));
    files.register(Archive::in_memory(
        2,
        "derived",
        ArchiveTier::OnlineRaid,
        1 << 30,
    ));
    Arc::new(files)
}

/// One I/O-layer node: a database named `label` on `storage` with the
/// generic and domain schemas, over [`memory_files`].
pub fn node(label: &str, storage: StorageConfig) -> DmIo {
    node_with(label, storage, &IoConfig::default())
}

/// [`node`] with a non-default [`IoConfig`] (result cache, slow-query bar).
pub fn node_with(label: &str, storage: StorageConfig, config: &IoConfig) -> DmIo {
    let options = DbOptions {
        storage,
        ..DbOptions::default()
    };
    over(
        Database::open(label, options).unwrap(),
        memory_files(),
        config,
    )
    .0
}

/// An in-memory [`node`] with a result cache.
pub fn cached_node(label: &str, cache: CacheConfig) -> DmIo {
    let config = IoConfig {
        cache: Some(cache),
        ..IoConfig::default()
    };
    node_with(label, StorageConfig::default(), &config)
}

/// A node over `db` with both schemas, and whether this call created them
/// (`false`: they were replayed from a WAL).
fn over(db: Arc<Database>, files: Arc<FileStore>, config: &IoConfig) -> (DmIo, bool) {
    let fresh = {
        let mut conn = db.connect();
        let fresh = schema::create_generic(&mut conn).is_ok();
        if fresh {
            schema::create_domain(&mut conn).unwrap();
        }
        fresh
    };
    let single = Partitioning::single();
    let io = DmIo::new(vec![db], single, files, Clock::starting_at(0), config);
    (io, fresh)
}

/// An in-memory [`node`] holding `rows` public rows in `catalog`.
pub fn catalog_node(label: &str, rows: i64) -> DmIo {
    let io = node(label, StorageConfig::default());
    for i in 0..rows {
        io.insert("catalog", catalog_row(i + 1, &format!("c{i}")))
            .unwrap();
    }
    io
}

/// One public system `catalog` row.
pub fn catalog_row(id: i64, name: &str) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(0),
        Value::Text(name.into()),
        Value::Null,
        Value::Text("system".into()),
        Value::Bool(true),
        Value::Int(0),
    ]
}

/// A bootstrapped DM over [`memory_files`] with the default configuration.
pub fn dm() -> Arc<Dm> {
    dm_with(DmConfig::default())
}

/// A bootstrapped DM over [`memory_files`].
pub fn dm_with(config: DmConfig) -> Arc<Dm> {
    Dm::bootstrap(memory_files(), config).unwrap()
}

/// [`dm`] with `minutes` of synthetic telemetry (generator seed 4242, six
/// flares an hour over a 15 /s background) ingested at launch calibration
/// in 200 000-photon units.
pub fn dm_with_telemetry(minutes: u64) -> Arc<Dm> {
    let dm = dm();
    let telemetry = generate(&GenConfig {
        duration_ms: minutes * 60 * 1000,
        flares_per_hour: 6.0,
        background_rate: 15.0,
        seed: 4242,
        ..GenConfig::default()
    });
    let units = package(&telemetry, 200_000, 1);
    let cfg = IngestConfig::new(1, 2, dm.extended_catalog);
    let serial = IngestOptions::default();
    let run = pipeline::ingest(&dm.io, &dm.import_session(), &units, &cfg, &serial).unwrap();
    assert_eq!(run.failed, 0, "ingest: {:?}", run.units);
    dm
}

/// Create scientist `name` and open its HLE session.
pub fn login(io: &DmIo, name: &str) -> Arc<Session> {
    create_user(io, name, "pw", "sci", Rights::SCIENTIST).unwrap();
    session(io, name)
}

fn session(io: &DmIo, name: &str) -> Arc<Session> {
    let mgr = SessionManager::new();
    let cookie = mgr.authenticate(io, name, "pw", "testkit").unwrap();
    mgr.lookup("testkit", cookie, SessionKind::Hle).unwrap()
}

/// A node ready for `pipeline::ingest`: archives in the location tables,
/// an admin `loader` user logged in, the public `extended` catalog, and the
/// [`IngestConfig`] naming all three.
pub struct Loader {
    /// The node.
    pub io: DmIo,
    /// The `loader` user's session.
    pub session: Arc<Session>,
    /// Ingest into archives 1 and 2 and the `extended` catalog.
    pub cfg: IngestConfig,
}

impl Loader {
    /// Prepare `io`, whose schema is empty.
    pub fn over(io: DmIo) -> Loader {
        let names = Names::new(&io);
        for status in io.files.statuses() {
            let tier = format!("{:?}", status.tier);
            names.register_archive(status.id, &tier, "", None).unwrap();
        }
        let admin = Rights::SCIENTIST.with(Rights::ADMIN);
        create_user(&io, "loader", "pw", "system", admin).unwrap();
        let session = session(&io, "loader");
        let svc = Services::new(&io);
        let catalog = svc
            .create_catalog(&session, "extended", "system", None)
            .unwrap();
        svc.publish(&session, "catalog", catalog).unwrap();
        let cfg = IngestConfig::new(1, 2, catalog);
        Loader { io, session, cfg }
    }

    /// A fresh [`node`] prepared for ingest.
    pub fn new(label: &str, storage: StorageConfig) -> Loader {
        Loader::over(node(label, storage))
    }

    /// A loader over exactly what survives a process death: a database
    /// logged to `dir/wal.log` and directory archives under `dir`. The
    /// first open prepares the node; an open that finds the schema replayed
    /// from the log re-seeds ids and clock past the recovered history and
    /// picks the user and catalog up from it.
    pub fn wal(dir: &Path, wal: WalOptions, storage: StorageConfig) -> Loader {
        let options = DbOptions {
            storage,
            wal_path: Some(dir.join("wal.log")),
            wal,
        };
        let db = Database::open("wal-loader", options).unwrap();
        let files = FileStore::new();
        for (id, name) in [(1u32, "raw"), (2u32, "derived")] {
            let backend = Box::new(DirBackend::new(dir.join(name)).unwrap());
            files.register(Archive::new(
                id,
                name,
                ArchiveTier::OnlineDisk,
                1 << 32,
                backend,
            ));
        }
        let (io, fresh) = over(db, Arc::new(files), &IoConfig::default());
        if fresh {
            return Loader::over(io);
        }
        io.reseed_after_recovery();
        let extended = Query::table("catalog").filter(Expr::eq("name", "extended"));
        let catalog = io.query(&extended).unwrap().rows[0][0].as_int().unwrap();
        Loader {
            session: session(&io, "loader"),
            cfg: IngestConfig::new(1, 2, catalog),
            io,
        }
    }
}

/// One `hle` row by field name. [`HleRow::into_values`] spells the
/// 25-column tuple once; the columns no suite varies are fixed there.
#[derive(Debug, Clone, PartialEq)]
pub struct HleRow {
    /// Primary key.
    pub id: i64,
    /// Owning user.
    pub owner: i64,
    /// Location item.
    pub item_id: i64,
    /// Window start, mission ms.
    pub time_start: i64,
    /// Window end, mission ms — the range shard key.
    pub time_end: i64,
    /// Event type.
    pub event_type: &'static str,
    /// Peak rate.
    pub peak_rate: f64,
    /// Photons attributed; `None` is SQL NULL.
    pub n_photons: Option<i64>,
    /// Visible to other users.
    pub public: bool,
    /// Quality flag.
    pub quality: i64,
}

const EVENT_TYPES: [&str; 4] = ["flare", "grb", "background", "calibration"];

impl HleRow {
    /// The row every field of which follows from `id` and `time_end`: a
    /// public five-ms flare with `n_photons = (id * 13) % 997`.
    pub fn at(id: i64, time_end: i64) -> HleRow {
        HleRow {
            id,
            owner: 1,
            item_id: id % 16,
            time_start: time_end - 5,
            time_end,
            event_type: "flare",
            peak_rate: (id % 11) as f64,
            n_photons: Some((id * 13) % 997),
            public: true,
            quality: 0,
        }
    }

    /// A row drawn from `stream`: `time_end` in `[1, 4400)`, four event
    /// types, one `n_photons` in ten NULL. Integer-valued numerics keep
    /// SUM/AVG in the byte-identical regime; `peak_rate` is a float for
    /// MIN/MAX coverage.
    pub fn seeded(id: i64, stream: &mut Stream) -> HleRow {
        let time_start = stream.below(4_000) as i64;
        HleRow {
            id,
            owner: 1 + stream.below(5) as i64,
            item_id: stream.below(64) as i64,
            time_start,
            time_end: time_start + 1 + stream.below(400) as i64,
            event_type: EVENT_TYPES[stream.below(4) as usize],
            peak_rate: stream.below(1_000) as f64,
            n_photons: (stream.below(10) != 0).then(|| stream.below(100_000) as i64),
            public: stream.below(2) == 0,
            quality: stream.below(5) as i64,
        }
    }

    /// The `hle` tuple in schema order.
    pub fn into_values(self) -> Vec<Value> {
        vec![
            Value::Int(self.id),
            Value::Int(self.owner),
            Value::Int(self.item_id),
            Value::Timestamp(self.time_start),
            Value::Timestamp(self.time_end),
            Value::Float(3.0),      // energy_lo
            Value::Float(20_000.0), // energy_hi
            Value::Text(self.event_type.into()),
            Value::Null, // flare_class
            Value::Float(self.peak_rate),
            Value::Null, // hardness
            self.n_photons.map_or(Value::Null, Value::Int),
            Value::Int(1), // calib_version
            Value::Int(1), // version
            Value::Bool(self.public),
            Value::Null,                       // title
            Value::Null,                       // notes
            Value::Timestamp(self.time_start), // created_ms
            Value::Text("user".into()),        // source
            Value::Null,                       // position_x
            Value::Null,                       // position_y
            Value::Null,                       // goes_flux
            Value::Null,                       // active_region
            Value::Int(self.quality),
            Value::Bool(false), // obsolete
        ]
    }
}

/// A sharded cluster in one process: one store per shard holding the rows
/// `map` assigns it, every replica a [`FaultyDmNode`] over its shard's
/// store, and an unsharded oracle holding every row.
pub struct ShardedFixture {
    /// The router under test, over `nodes`.
    pub sharded: ShardedDm,
    /// The store behind each shard (`shard-{s}`).
    pub stores: Vec<Arc<DmIo>>,
    /// Every row in one unsharded, uncached node.
    pub oracle: Arc<DmIo>,
    /// `nodes[shard][replica]`, labelled `s{shard}r{replica}`.
    pub nodes: Vec<Vec<Arc<FaultyDmNode<DmIo>>>>,
}

impl ShardedFixture {
    /// One replica per plan in `replicas` on every shard of `map`, each
    /// drawing from its own fork of `faults`; `rows` go to their owning
    /// shard (by the `hle` sharding's `id` or `time_end` key) and the oracle.
    pub fn build(
        faults: &mut Stream,
        map: ShardMap,
        replicas: &[FaultPlan],
        rows: impl IntoIterator<Item = HleRow>,
    ) -> ShardedFixture {
        let stores: Vec<Arc<DmIo>> = (0..map.shards)
            .map(|s| Arc::new(node(&format!("shard-{s}"), StorageConfig::default())))
            .collect();
        let oracle = Arc::new(node("oracle", StorageConfig::default()));
        let by_id = map.sharding("hle").is_some_and(|spec| spec.column == "id");
        for row in rows {
            let key = if by_id { row.id } else { row.time_end };
            let owner = map.shard_for("hle", key).expect("hle must be sharded") as usize;
            let values = row.into_values();
            stores[owner].insert("hle", values.clone()).unwrap();
            oracle.insert("hle", values).unwrap();
        }
        let nodes: Vec<Vec<_>> = stores
            .iter()
            .enumerate()
            .map(|(s, io)| {
                replicas
                    .iter()
                    .enumerate()
                    .map(|(r, plan)| {
                        let (label, plan) = (format!("s{s}r{r}"), plan.clone());
                        Arc::new(FaultyDmNode::new(io.clone(), label, plan, faults.fork()))
                    })
                    .collect()
            })
            .collect();
        let sharded = ShardedDm::new(replica_sets(&nodes), map);
        ShardedFixture {
            sharded,
            stores,
            oracle,
            nodes,
        }
    }

    /// One healthy replica per shard.
    pub fn plain(map: ShardMap, rows: impl IntoIterator<Item = HleRow>) -> ShardedFixture {
        Self::build(&mut Stream(0), map, &[FaultPlan::none()], rows)
    }

    /// The stores as the `&DmIo` list a `ShardMover` takes.
    pub fn store_refs(&self) -> Vec<&DmIo> {
        self.stores.iter().map(Arc::as_ref).collect()
    }
}

/// `nodes` as the `dyn DmNode` replica sets `ShardedDm::new` takes.
pub fn replica_sets<N: DmNode + 'static>(nodes: &[Vec<Arc<N>>]) -> Vec<Vec<Arc<dyn DmNode>>> {
    nodes
        .iter()
        .map(|set| set.iter().map(|n| n.clone() as Arc<dyn DmNode>).collect())
        .collect()
}
