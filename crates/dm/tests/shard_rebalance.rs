//! The rebalance crash-point matrix (mirror of `ingest_crash.rs` for
//! [`ShardMover`]).
//!
//! A shard move is killed at every journal boundary and mid-step of its
//! workflow, resumed, and held to the recovery contract:
//!
//! * the resumed final placement is **byte-identical** to an uninterrupted
//!   twin's — per shard, row for row;
//! * an interrupted copy is compensated (the destination's partial rows
//!   deleted, then re-copied) so nothing duplicates;
//! * the map epoch lands exactly where the twin's does — resume after a
//!   mid-cutover crash must not double-bump;
//! * the cutover invalidates every cached scatter that read either moved
//!   shard: across the whole matrix there are **zero stale cache hits**.
//!
//! Deterministic: the placement derives from a printed seed
//! (`HEDC_TEST_SEED` overrides; replay with `scripts/check.sh --seed`).

use hedc_cache::CacheConfig;
use hedc_dm::{
    schema, splitmix64, Clock, CrashSite, DmError, DmIo, DmNode, DmResult, IoConfig, MoveSpec,
    MoveStep, Partitioning, ShardMap, ShardMover, ShardedDm, Step,
};
use hedc_filestore::FileStore;
use hedc_metadb::{Database, Expr, OrderDir, Query, Value};
use std::sync::Arc;

const BASE_SEED: u64 = 0x5AAD_0EBA;
const N_ROWS: i64 = 120;
/// The hash slot the matrix moves from shard 0 to shard 1.
const MOVED_PART: u32 = 0;

fn effective_seed() -> u64 {
    std::env::var("HEDC_TEST_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(BASE_SEED)
}

fn store(label: &str) -> Arc<DmIo> {
    let db = Database::in_memory(label);
    {
        let mut conn = db.connect();
        schema::create_generic(&mut conn).unwrap();
        schema::create_domain(&mut conn).unwrap();
    }
    Arc::new(DmIo::new(
        vec![db],
        Partitioning::single(),
        Arc::new(FileStore::new()),
        Clock::starting_at(0),
        &IoConfig::default(),
    ))
}

fn hle_row(id: i64, time_end: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(1),
        Value::Int(id % 16),
        Value::Timestamp(time_end - 5),
        Value::Timestamp(time_end),
        Value::Float(3.0),
        Value::Float(20_000.0),
        Value::Text("flare".into()),
        Value::Null,
        Value::Float((id % 11) as f64),
        Value::Null,
        Value::Int((id * 13) % 997),
        Value::Int(1),
        Value::Int(1),
        Value::Bool(true),
        Value::Null,
        Value::Null,
        Value::Timestamp(time_end - 5),
        Value::Text("user".into()),
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Int(0),
        Value::Bool(false),
    ]
}

/// Slots spread round-robin over 2 shards: slots {0,2} on shard 0,
/// {1,3} on shard 1. The matrix moves slot 0 to shard 1.
fn base_map() -> ShardMap {
    ShardMap::new(2).with_hash("hle", "id", 4)
}

struct Fix {
    stores: Vec<Arc<DmIo>>,
    sharded: ShardedDm,
}

fn fixture(seed: u64, cache: bool) -> Fix {
    let map = base_map();
    let stores = vec![store("reb-0"), store("reb-1")];
    let mut state = seed;
    for id in 0..N_ROWS {
        let time_end = 10 + (splitmix64(&mut state) % 3_000) as i64;
        let owner = map.shard_for("hle", id).unwrap();
        stores[owner as usize]
            .insert("hle", hle_row(id, time_end))
            .unwrap();
    }
    let replica_sets: Vec<Vec<Arc<dyn DmNode>>> = stores
        .iter()
        .map(|io| vec![Arc::clone(io) as Arc<dyn DmNode>])
        .collect();
    let sharded = if cache {
        ShardedDm::with_cache(replica_sets, map, &CacheConfig::default())
    } else {
        ShardedDm::new(replica_sets, map)
    };
    Fix { stores, sharded }
}

fn spec() -> MoveSpec {
    MoveSpec {
        table: "hle".into(),
        part: MOVED_PART,
        to: 1,
    }
}

/// Sorted per-shard dump of the `hle` table (the journal table is
/// intentionally excluded: a resumed run legitimately journals more rows
/// than its twin).
fn hle_dump(io: &DmIo) -> Vec<String> {
    let r = io.query(&Query::table("hle")).unwrap();
    let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    rows
}

fn run_mover(fix: &Fix, crash: Option<CrashSite<MoveStep>>) -> DmResult<hedc_dm::MoveOutcome> {
    let stores: Vec<&DmIo> = fix.stores.iter().map(|s| s.as_ref()).collect();
    let mut mover = ShardMover::new(fix.stores[0].as_ref(), stores, &fix.sharded);
    if let Some(c) = crash {
        mover = mover.with_crash(c);
    }
    mover.run(&spec())
}

/// Ids the moved slot owns, and a probe query over them.
fn moved_ids(map: &ShardMap) -> Vec<i64> {
    (0..N_ROWS)
        .filter(|&id| map.part_for("hle", id) == Some(MOVED_PART))
        .collect()
}

#[test]
fn uninterrupted_move_relocates_the_partition_and_bumps_the_epoch() {
    let seed = effective_seed();
    println!("shard_rebalance seed={seed} (replay: scripts/check.sh --seed {seed})");
    let fix = fixture(seed, false);
    let map0 = fix.sharded.map();
    let ids = moved_ids(&map0);
    assert!(!ids.is_empty(), "slot {MOVED_PART} must own rows");
    assert_eq!(map0.assignment("hle", MOVED_PART), Some(0));

    let out = run_mover(&fix, None).unwrap();
    assert_eq!(out.from, 0);
    assert_eq!(out.to, 1);
    assert_eq!(out.rows_moved, ids.len());
    assert_eq!(out.rows_planned, ids.len());
    assert_eq!(out.resumed_from, None);
    assert_eq!(out.compensated_rows, 0);

    let map1 = fix.sharded.map();
    assert_eq!(map1.epoch, map0.epoch + 1);
    assert_eq!(map1.assignment("hle", MOVED_PART), Some(1));
    for id in &ids {
        assert_eq!(map1.shard_for("hle", *id), Some(1));
    }
    // The source holds nothing of the moved slot; the destination holds
    // all of it; a routed point read finds each row exactly once.
    for id in &ids {
        let q = Query::table("hle")
            .select(&["id"])
            .filter(Expr::eq("id", *id));
        assert!(fix.stores[0].query(&q).unwrap().rows.is_empty());
        assert_eq!(fix.stores[1].query(&q).unwrap().rows.len(), 1);
        assert_eq!(fix.sharded.query(&q).unwrap().rows.len(), 1);
    }
    // Re-running the whole move is a journaled no-op.
    let again = run_mover(&fix, None).unwrap();
    assert_eq!(again.resumed_from, Some(MoveStep::Done));
    assert_eq!(again.rows_moved, 0);
    assert_eq!(fix.sharded.map().epoch, map0.epoch + 1, "no double bump");
}

#[test]
fn crash_matrix_resumes_to_the_twin_placement_byte_for_byte() {
    let seed = effective_seed();
    println!("shard_rebalance seed={seed} (replay: scripts/check.sh --seed {seed})");

    // Uninterrupted twin: the reference placement.
    let twin = fixture(seed, false);
    run_mover(&twin, None).unwrap();
    let twin_dumps: Vec<Vec<String>> = twin.stores.iter().map(|s| hle_dump(s)).collect();
    let twin_epoch = twin.sharded.map().epoch;

    // Every cell of the step table: steps × {MidStep, Boundary}.
    let matrix: Vec<CrashSite<MoveStep>> = CrashSite::all().collect();
    assert!(matrix.len() >= 7, "the matrix must not shrink: {matrix:?}");
    for crash in matrix {
        let fix = fixture(seed, false);
        let ids = moved_ids(&fix.sharded.map());
        let died = run_mover(&fix, Some(crash));
        assert!(
            matches!(died, Err(DmError::Crashed(_))),
            "{crash:?}: the injected crash must surface, got {died:?}"
        );
        let out = run_mover(&fix, None)
            .unwrap_or_else(|e| panic!("{crash:?}: resume must complete: {e}"));

        // The journal pins where the resume picked up.
        let expected_resume = match crash {
            CrashSite::Boundary(s) => Some(s),
            // A mid-step death loses that step's journal row: the resume
            // sees only the previous step (none before the first).
            CrashSite::MidStep(s) => s.index().checked_sub(1).map(|i| MoveStep::TABLE[i].0),
        };
        assert_eq!(out.resumed_from, expected_resume, "{crash:?}: resume point");
        assert_eq!(out.rows_planned, ids.len(), "{crash:?}: recovered plan");
        if crash == CrashSite::MidStep(MoveStep::Copied) {
            assert_eq!(
                out.compensated_rows,
                ids.len() / 2,
                "{crash:?}: the half-copied destination rows must be compensated"
            );
            assert_eq!(out.rows_moved, ids.len(), "{crash:?}: full re-copy");
        }

        for (s, twin_dump) in twin_dumps.iter().enumerate() {
            assert_eq!(
                &hle_dump(&fix.stores[s]),
                twin_dump,
                "{crash:?}: shard {s} placement must match the twin byte-for-byte"
            );
        }
        assert_eq!(
            fix.sharded.map().epoch,
            twin_epoch,
            "{crash:?}: exactly one epoch bump, crash or no crash"
        );
        assert_eq!(
            fix.sharded.map().assignment("hle", MOVED_PART),
            Some(1),
            "{crash:?}"
        );

        // A third run is a pure skip.
        let noop = run_mover(&fix, None).unwrap();
        assert_eq!(noop.resumed_from, Some(MoveStep::Done), "{crash:?}");
        assert_eq!(noop.rows_moved, 0, "{crash:?}");
    }
}

#[test]
fn cutover_leaves_zero_stale_cache_hits() {
    let seed = effective_seed();
    println!("shard_rebalance seed={seed} (replay: scripts/check.sh --seed {seed})");
    // The matrix includes the nastiest window: a crash *between* the map
    // install and the generation bumps (MidStep(Cutover)). Resume must
    // re-bump, so even entries cached inside that window cannot be served.
    for crash in [None, Some(CrashSite::MidStep(MoveStep::Cutover))] {
        let fix = fixture(seed, true);
        let ids = moved_ids(&fix.sharded.map());
        let probe = Query::table("hle")
            .select(&["id", "n_photons"])
            .order_by("id", OrderDir::Asc);

        // Warm the cache with a full scatter, then prove it serves hits.
        let cache = fix.sharded.cache().unwrap();
        let first = fix.sharded.query(&probe).unwrap();
        assert_eq!(first.rows.len(), N_ROWS as usize);
        let warm_hits = cache.stats().hits;
        let second = fix.sharded.query(&probe).unwrap();
        assert_eq!(second.rows, first.rows);
        assert_eq!(
            cache.stats().hits,
            warm_hits + 1,
            "the warmed entry must serve before the move"
        );

        if let Some(c) = crash {
            let died = run_mover(&fix, Some(c));
            assert!(matches!(died, Err(DmError::Crashed(_))));
        }
        run_mover(&fix, None).unwrap();

        // Mutate the moved partition on its *new* owner. A stale cached
        // scatter would still show the old rows; a fresh read cannot.
        let victim = ids[0];
        fix.stores[1]
            .execute(hedc_metadb::Statement::Delete {
                table: "hle".into(),
                filter: Some(Expr::eq("id", victim)),
            })
            .unwrap();
        let hits_before = cache.stats().hits;
        let after = fix.sharded.query(&probe).unwrap();
        assert_eq!(
            cache.stats().hits,
            hits_before,
            "{crash:?}: the cutover must invalidate the cached scatter (zero stale hits)"
        );
        assert_eq!(
            after.rows.len(),
            N_ROWS as usize - 1,
            "{crash:?}: the merged answer must reflect the post-move state"
        );
        assert!(
            after.rows.iter().all(|r| r[0] != Value::Int(victim)),
            "{crash:?}: the deleted row must be gone from the merge"
        );
    }
}

#[test]
fn journal_is_scoped_per_move_key() {
    // Two different moves journal side by side without clobbering each
    // other's resume state: move slot 0 → shard 1, then slot 1 → shard 0.
    let seed = effective_seed();
    let fix = fixture(seed, false);
    run_mover(&fix, None).unwrap();

    let back = MoveSpec {
        table: "hle".into(),
        part: 1,
        to: 0,
    };
    let stores: Vec<&DmIo> = fix.stores.iter().map(|s| s.as_ref()).collect();
    let mover = ShardMover::new(fix.stores[0].as_ref(), stores, &fix.sharded);
    let out = mover.run(&back).unwrap();
    assert_eq!(out.from, 1);
    assert_eq!(out.resumed_from, None, "a distinct move key starts fresh");
    let map = fix.sharded.map();
    assert_eq!(map.assignment("hle", 0), Some(1));
    assert_eq!(map.assignment("hle", 1), Some(0));
    assert_eq!(map.epoch, 3, "two cutovers, two bumps");
}
