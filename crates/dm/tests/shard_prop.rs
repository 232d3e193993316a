//! Seeded scatter-gather oracle: a [`ShardedDm`] over 2–8 shards must be
//! observably indistinguishable from one unsharded DM node holding the
//! same rows.
//!
//! Every case derives from one printed seed (`HEDC_TEST_SEED` overrides,
//! `scripts/check.sh --seed <seed>` replays): the workload, the shard
//! count, the partitioning scheme and the query mix are all pure functions
//! of it. Queries whose `ORDER BY` ends in the unique `id` column — and
//! every aggregate over integer columns — are asserted **byte-identical**
//! (`columns` + `rows`); un-ordered row queries are asserted equal as
//! multisets, which is the documented carve-out (shard-concatenation order
//! replaces single-node scan order).

use hedc_dm::{
    schema, splitmix64, Clock, DmError, DmIo, DmNode, DmResult, FanoutPlan, IoConfig, NameType,
    Partitioning, ShardMap, ShardedDm,
};
use hedc_filestore::FileStore;
use hedc_metadb::{AggFunc, CmpOp, Database, Expr, OrderDir, Query, QueryResult, Value};
use std::sync::{Arc, Mutex};

const BASE_SEED: u64 = 0x5AAD_0010;

fn effective_seed() -> u64 {
    std::env::var("HEDC_TEST_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(BASE_SEED)
}

/// Deterministic splitmix stream, the same generator the fault plans use.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// A DM store with the full schema and nothing else.
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

/// A [`DmNode`] that records every query it serves — the probe for the
/// LIMIT-pushdown assertions.
struct RecordingNode {
    inner: Arc<DmIo>,
    seen: Mutex<Vec<Query>>,
}

impl DmNode for RecordingNode {
    fn node_id(&self) -> String {
        self.inner.node_id()
    }
    fn execute_query(&self, q: &Query) -> DmResult<QueryResult> {
        self.seen.lock().unwrap().push(q.clone());
        self.inner.execute_query(q)
    }
}

/// One synthetic HLE row. Integer-valued numerics keep SUM/AVG in the
/// byte-identical regime; `peak_rate` is a float for MIN/MAX coverage.
fn hle_row(id: i64, rng: &mut Rng) -> Vec<Value> {
    let t0 = rng.below(4_000) as i64;
    let dur = 1 + rng.below(400) as i64;
    let kinds = ["flare", "grb", "background", "calibration"];
    let kind = kinds[rng.below(kinds.len() as u64) as usize];
    let n_photons = if rng.below(10) == 0 {
        Value::Null
    } else {
        Value::Int(rng.below(100_000) as i64)
    };
    vec![
        Value::Int(id),
        Value::Int(1 + rng.below(5) as i64),   // owner
        Value::Int(rng.below(64) as i64),      // item_id
        Value::Timestamp(t0),                  // time_start
        Value::Timestamp(t0 + dur),            // time_end
        Value::Float(3.0),                     // energy_lo
        Value::Float(20_000.0),                // energy_hi
        Value::Text(kind.into()),              // event_type
        Value::Null,                           // flare_class
        Value::Float(rng.below(1_000) as f64), // peak_rate
        Value::Null,                           // hardness
        n_photons,                             // n_photons
        Value::Int(1),                         // calib_version
        Value::Int(1),                         // version
        Value::Bool(rng.below(2) == 0),        // public
        Value::Null,                           // title
        Value::Null,                           // notes
        Value::Timestamp(t0),                  // created_ms
        Value::Text("user".into()),            // source
        Value::Null,                           // position_x
        Value::Null,                           // position_y
        Value::Null,                           // goes_flux
        Value::Null,                           // active_region
        Value::Int(rng.below(5) as i64),       // quality
        Value::Bool(false),                    // obsolete
    ]
}

/// A seeded cluster: `shards` stores partitioned per `map`, the same rows
/// mirrored into one unsharded oracle store.
struct Cluster {
    sharded: ShardedDm,
    oracle: Arc<DmIo>,
    rows: Vec<Vec<Value>>,
}

fn cluster(seed: u64, shards: u32, map: ShardMap, n_rows: usize) -> Cluster {
    let mut rng = Rng(seed);
    let stores: Vec<Arc<DmIo>> = (0..shards).map(|s| store(&format!("shard-{s}"))).collect();
    let oracle = store("oracle");
    let mut rows = Vec::with_capacity(n_rows);
    for id in 0..n_rows as i64 {
        let row = hle_row(id, &mut rng);
        let spec = map.sharding("hle").expect("hle must be sharded");
        let key_col = match spec.column.as_str() {
            "id" => 0,
            "time_end" => 4,
            other => panic!("unexpected shard key {other}"),
        };
        let key = match &row[key_col] {
            Value::Int(i) => *i,
            Value::Timestamp(t) => *t,
            other => panic!("non-integer shard key {other:?}"),
        };
        let owner = map.shard_for("hle", key).unwrap();
        stores[owner as usize].insert("hle", row.clone()).unwrap();
        oracle.insert("hle", row.clone()).unwrap();
        rows.push(row);
    }
    let replica_sets: Vec<Vec<Arc<dyn DmNode>>> = stores
        .iter()
        .map(|io| vec![Arc::clone(io) as Arc<dyn DmNode>])
        .collect();
    Cluster {
        sharded: ShardedDm::new(replica_sets, map),
        oracle,
        rows,
    }
}

/// The seeded partitioning for one scenario round: alternate hash-by-id
/// and range-by-time_end.
fn seeded_map(rng: &mut Rng, shards: u32) -> ShardMap {
    if rng.below(2) == 0 {
        ShardMap::new(shards).with_hash("hle", "id", 16)
    } else {
        // Cuts inside the generated time_end domain [1, 4400).
        ShardMap::new(shards).with_even_range("hle", "time_end", 0, 4_400)
    }
}

// ---------------------------------------------------------------------------
// Seeded query mix
// ---------------------------------------------------------------------------

/// A seeded row query whose final ORDER BY key is the unique `id`: totally
/// ordered, so the sharded answer must be byte-identical.
fn ordered_query(rng: &mut Rng) -> Query {
    let mut q = Query::table("hle");
    q = match rng.below(4) {
        0 => q.select(&["id", "event_type", "n_photons"]),
        1 => q.select(&["id", "time_end"]),
        2 => q.select(&["id", "owner", "peak_rate"]),
        _ => q,
    };
    q = match rng.below(5) {
        0 => {
            let lo = rng.below(4_000) as i64;
            q.filter(Expr::between("time_end", lo, lo + rng.below(2_000) as i64))
        }
        1 => q.filter(Expr::eq("event_type", "flare")),
        2 => q.filter(Expr::cmp("time_end", CmpOp::Ge, rng.below(4_000) as i64)),
        3 => q.filter(Expr::eq("public", true)),
        _ => q,
    };
    if rng.below(2) == 0 {
        q = q.order_by("time_end", OrderDir::Desc);
    }
    q = q.order_by("id", OrderDir::Asc);
    if rng.below(2) == 0 {
        q = q.limit(1 + rng.below(40) as usize);
    }
    if rng.below(3) == 0 {
        q = q.offset(rng.below(20) as usize);
    }
    q
}

/// A seeded integer-aggregate query: byte-identical under the merge.
fn aggregate_query(rng: &mut Rng) -> Query {
    let mut q = Query::table("hle");
    if rng.below(2) == 0 {
        q = q.group_by("event_type");
    }
    q = q.aggregate(AggFunc::CountStar);
    q = match rng.below(4) {
        0 => q.aggregate(AggFunc::Sum("n_photons".into())),
        1 => q.aggregate(AggFunc::Avg("n_photons".into())),
        2 => q
            .aggregate(AggFunc::Min("peak_rate".into()))
            .aggregate(AggFunc::Max("peak_rate".into())),
        _ => q.aggregate(AggFunc::Count("n_photons".into())),
    };
    if rng.below(4) == 0 {
        let lo = rng.below(3_000) as i64;
        q = q.filter(Expr::between("time_end", lo, lo + 1_500));
    }
    q
}

fn multiset(r: &QueryResult) -> Vec<String> {
    let mut out: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
    out.sort();
    out
}

// ---------------------------------------------------------------------------
// The oracle suite
// ---------------------------------------------------------------------------

#[test]
fn sharded_answers_are_byte_identical_to_the_unsharded_oracle() {
    let seed = effective_seed();
    println!("shard_prop seed={seed} (replay: scripts/check.sh --seed {seed})");
    let mut rng = Rng(seed);
    for round in 0..4u64 {
        let shards = 2 + rng.below(7) as u32; // 2..=8
        let map = seeded_map(&mut rng, shards);
        let c = cluster(rng.next(), shards, map, 300);
        for case in 0..25u64 {
            let q = ordered_query(&mut rng);
            let want = c.oracle.query(&q).unwrap();
            let got = c.sharded.query(&q).unwrap();
            assert_eq!(
                got.columns, want.columns,
                "round {round} case {case}: columns diverged for {q:?}"
            );
            assert_eq!(
                got.rows, want.rows,
                "round {round} case {case}: rows diverged for {q:?}"
            );
        }
        for case in 0..25u64 {
            let q = aggregate_query(&mut rng);
            let want = c.oracle.query(&q).unwrap();
            let got = c.sharded.query(&q).unwrap();
            assert_eq!(
                (got.columns, got.rows),
                (want.columns, want.rows),
                "round {round} aggregate case {case}: {q:?}"
            );
        }
        // Un-ordered queries: multiset equality (the documented carve-out).
        for _ in 0..10u64 {
            let mut q = Query::table("hle");
            if rng.below(2) == 0 {
                q = q.filter(Expr::eq("event_type", "grb"));
            }
            let want = c.oracle.query(&q).unwrap();
            let got = c.sharded.query(&q).unwrap();
            assert_eq!(got.columns, want.columns);
            assert_eq!(multiset(&got), multiset(&want));
        }
    }
}

/// Partials arrive off the wire, so the merge is also fed each query's real
/// partials damaged three ways — a short row, a text SUM partial, a missing
/// ORDER BY column — and must answer `RemoteFailed`, never panic.
#[test]
fn merge_is_invariant_under_shuffled_reply_order() {
    let seed = effective_seed() ^ 0x00FF_F00D;
    println!("shard_prop seed={seed} (replay: scripts/check.sh --seed {seed})");
    let mut rng = Rng(seed);
    let shards = 5;
    let map = ShardMap::new(shards).with_hash("hle", "id", 16);
    let c = cluster(rng.next(), shards, map.clone(), 200);
    let mut queries: Vec<Query> = (0..20).map(|_| ordered_query(&mut rng)).collect();
    // `time_end` is not projected: the plan widens the pushed projection by
    // it, as a carrier the merge sorts on and then strips.
    queries.push(
        Query::table("hle")
            .select(&["id"])
            .order_by("time_end", OrderDir::Desc)
            .order_by("id", OrderDir::Asc),
    );
    queries.push(
        Query::table("hle")
            .group_by("event_type")
            .aggregate(AggFunc::Sum("n_photons".into())),
    );
    for q in queries {
        let plan = FanoutPlan::new(&q);
        // Collect each shard's partial directly, then merge under several
        // seeded permutations of the reply order.
        let mut parts: Vec<QueryResult> = (0..shards)
            .map(|s| {
                c.sharded
                    .shard_router(s)
                    .execute_query(plan.pushed())
                    .unwrap()
            })
            .collect();
        let reference = plan.merge(parts.clone()).unwrap();
        for _ in 0..4 {
            // Fisher–Yates over the parts.
            for i in (1..parts.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                parts.swap(i, j);
            }
            let shuffled = plan.merge(parts.clone()).unwrap();
            assert_eq!(shuffled.columns, reference.columns);
            assert_eq!(
                shuffled.rows, reference.rows,
                "totally-ordered merge must not depend on reply order: {q:?}"
            );
        }

        let rejects = |bad: Vec<QueryResult>, what: &str| {
            let got = plan.merge(bad);
            assert!(
                matches!(got, Err(DmError::RemoteFailed(_))),
                "{what} must be RemoteFailed for {q:?}, got {got:?}"
            );
        };
        let Some(k) = parts.iter().position(|p| !p.rows.is_empty()) else {
            continue;
        };
        let mut short = parts.clone();
        short[k].rows[0].pop();
        rejects(short, "a short row");
        if q.aggregates.is_empty() {
            // Every shard drops the first ORDER BY column — for the widened
            // query that is the carrier.
            let mut narrow = parts.clone();
            for p in &mut narrow {
                let at = p
                    .columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(&q.order_by[0].0))
                    .expect("pushed projection carries the ORDER BY column");
                p.columns.remove(at);
                p.rows.iter_mut().for_each(|r| drop(r.remove(at)));
            }
            rejects(narrow, "a missing ORDER BY column");
        } else {
            let mut text = parts.clone();
            *text[k].rows[0].last_mut().unwrap() = Value::Text("NaN".into());
            rejects(text, "a text SUM partial");
        }
    }
}

#[test]
fn limit_pushdown_caps_what_each_shard_returns() {
    let seed = effective_seed() ^ 0x10_57;
    println!("shard_prop seed={seed} (replay: scripts/check.sh --seed {seed})");
    let mut rng = Rng(seed);
    let shards = 4u32;
    let map = ShardMap::new(shards).with_hash("hle", "id", 16);

    // Build the cluster by hand so every shard node records its queries.
    let stores: Vec<Arc<DmIo>> = (0..shards).map(|s| store(&format!("rec-{s}"))).collect();
    let oracle = store("rec-oracle");
    for id in 0..400i64 {
        let row = hle_row(id, &mut rng);
        let owner = map.shard_for("hle", id).unwrap();
        stores[owner as usize].insert("hle", row.clone()).unwrap();
        oracle.insert("hle", row).unwrap();
    }
    let recorders: Vec<Arc<RecordingNode>> = stores
        .iter()
        .map(|io| {
            Arc::new(RecordingNode {
                inner: Arc::clone(io),
                seen: Mutex::new(Vec::new()),
            })
        })
        .collect();
    let sharded = ShardedDm::new(
        recorders
            .iter()
            .map(|r| vec![Arc::clone(r) as Arc<dyn DmNode>])
            .collect(),
        map,
    );

    let q = Query::table("hle")
        .select(&["id", "event_type"])
        .order_by("n_photons", OrderDir::Desc)
        .order_by("id", OrderDir::Asc)
        .limit(10)
        .offset(7);
    let got = sharded.query(&q).unwrap();
    let want = oracle.query(&q).unwrap();
    assert_eq!(got.columns, want.columns);
    assert_eq!(got.rows, want.rows);
    assert_eq!(got.rows.len(), 10);

    for (s, rec) in recorders.iter().enumerate() {
        let seen = rec.seen.lock().unwrap();
        assert_eq!(seen.len(), 1, "shard {s} must be scattered to exactly once");
        let pushed = &seen[0];
        assert_eq!(
            pushed.limit,
            Some(17),
            "shard {s}: offset+limit must push down"
        );
        assert_eq!(pushed.offset, None, "shard {s}: offset must not push");
        // The pushed window bounds the per-shard transfer.
        let part = stores[s].query(pushed).unwrap();
        assert!(
            part.rows.len() <= 17,
            "shard {s} returned {} rows past the pushed window",
            part.rows.len()
        );
    }
}

#[test]
fn point_and_batch_resolution_route_like_the_oracle() {
    // resolve_batch groups by the ITEM_TABLE (loc_item) sharding; here we
    // only pin that grouped routing agrees with shard_for on every id and
    // that input order is preserved positionally even when ids interleave
    // across shards.
    let seed = effective_seed() ^ 0xBA7C;
    println!("shard_prop seed={seed} (replay: scripts/check.sh --seed {seed})");
    let mut rng = Rng(seed);
    let shards = 3u32;
    let map = ShardMap::new(shards).with_hash("loc_item", "item_id", 12);
    let stores: Vec<Arc<DmIo>> = (0..shards).map(|s| store(&format!("res-{s}"))).collect();
    let sharded = ShardedDm::new(
        stores
            .iter()
            .map(|io| vec![Arc::clone(io) as Arc<dyn DmNode>])
            .collect(),
        map.clone(),
    );
    let ids: Vec<i64> = (0..40).map(|_| rng.below(10_000) as i64).collect();
    let results = sharded.resolve_batch(&ids, NameType::File);
    assert_eq!(results.len(), ids.len(), "positional, one answer per input");
    // No names exist anywhere: every entry must be an empty Ok, proving the
    // scatter reached a real shard (a routing hole would error).
    for (i, r) in results.iter().enumerate() {
        let names = r.as_ref().unwrap_or_else(|e| {
            panic!(
                "id {} (shard {:?}): {e}",
                ids[i],
                map.shard_for("loc_item", ids[i])
            )
        });
        assert!(names.is_empty());
    }
}

#[test]
fn same_seed_reproduces_the_same_answers() {
    // The replay contract behind the printed seed: the whole scenario is a
    // pure function of it.
    let run = |seed: u64| -> Vec<String> {
        let mut rng = Rng(seed);
        let shards = 2 + rng.below(7) as u32;
        let map = seeded_map(&mut rng, shards);
        let c = cluster(rng.next(), shards, map, 120);
        let mut digest = Vec::new();
        for _ in 0..10 {
            let q = ordered_query(&mut rng);
            let r = c.sharded.query(&q).unwrap();
            digest.push(format!("{:?}|{:?}", r.columns, r.rows));
        }
        digest.push(format!("{}", c.rows.len()));
        digest
    };
    assert_eq!(run(41), run(41), "same seed, same cluster, same answers");
}
