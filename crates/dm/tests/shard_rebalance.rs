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
use hedc_dm::testkit::{replica_sets, HleRow, Seed, ShardedFixture};
use hedc_dm::{
    CrashSite, DmError, DmIo, DmResult, MoveSpec, MoveStep, ShardMap, ShardMover, ShardedDm, Step,
};
use hedc_metadb::{Expr, OrderDir, Query, Value};

const BASE_SEED: u64 = 0x5AAD_0EBA;
const N_ROWS: i64 = 120;
/// The hash slot the matrix moves from shard 0 to shard 1.
const MOVED_PART: u32 = 0;

/// Slots spread round-robin over 2 shards: slots {0,2} on shard 0,
/// {1,3} on shard 1. The matrix moves slot 0 to shard 1.
fn base_map() -> ShardMap {
    ShardMap::new(2).with_hash("hle", "id", 4)
}

/// [`N_ROWS`] rows at seeded `time_end`s under [`base_map`]; `cache` puts a
/// merged-result cache on the router.
fn fixture(cache: bool) -> ShardedFixture {
    let mut times = Seed::from_env(BASE_SEED).stream("placement");
    let rows = (0..N_ROWS).map(|id| HleRow::at(id, 10 + times.below(3_000) as i64));
    let mut fix = ShardedFixture::plain(base_map(), rows);
    if cache {
        let sets = replica_sets(&fix.nodes);
        fix.sharded = ShardedDm::with_cache(sets, base_map(), &CacheConfig::default());
    }
    fix
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

fn run_mover(
    fix: &ShardedFixture,
    crash: Option<CrashSite<MoveStep>>,
) -> DmResult<hedc_dm::MoveOutcome> {
    let mut mover = ShardMover::new(&fix.stores[0], fix.store_refs(), &fix.sharded);
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
    let fix = fixture(false);
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
    // Uninterrupted twin: the reference placement.
    let twin = fixture(false);
    run_mover(&twin, None).unwrap();
    let twin_dumps: Vec<Vec<String>> = twin.stores.iter().map(|s| hle_dump(s)).collect();
    let twin_epoch = twin.sharded.map().epoch;

    // Every cell of the step table: steps × {MidStep, Boundary}.
    let matrix: Vec<CrashSite<MoveStep>> = CrashSite::all().collect();
    assert!(matrix.len() >= 7, "the matrix must not shrink: {matrix:?}");
    for crash in matrix {
        let fix = fixture(false);
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
    // The matrix includes the nastiest window: a crash *between* the map
    // install and the generation bumps (MidStep(Cutover)). Resume must
    // re-bump, so even entries cached inside that window cannot be served.
    for crash in [None, Some(CrashSite::MidStep(MoveStep::Cutover))] {
        let fix = fixture(true);
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
    let fix = fixture(false);
    run_mover(&fix, None).unwrap();

    let back = MoveSpec {
        table: "hle".into(),
        part: 1,
        to: 0,
    };
    let mover = ShardMover::new(&fix.stores[0], fix.store_refs(), &fix.sharded);
    let out = mover.run(&back).unwrap();
    assert_eq!(out.from, 1);
    assert_eq!(out.resumed_from, None, "a distinct move key starts fresh");
    let map = fix.sharded.map();
    assert_eq!(map.assignment("hle", 0), Some(1));
    assert_eq!(map.assignment("hle", 1), Some(0));
    assert_eq!(map.epoch, 3, "two cutovers, two bumps");
}
