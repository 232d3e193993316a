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

use hedc_dm::testkit::{HleRow, Seed, ShardedFixture, Stream};
use hedc_dm::{DmError, DmIo, DmNode, DmResult, FanoutPlan, NameType, ShardMap, ShardedDm};
use hedc_metadb::{AggFunc, CmpOp, Expr, OrderDir, Query, QueryResult, Value};
use std::sync::{Arc, Mutex};

const BASE_SEED: u64 = 0x5AAD_0010;

/// The suite's stream; `case` separates the tests that share the seed.
fn stream(case: &str) -> Stream {
    Seed::from_env(BASE_SEED).stream(case)
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

/// A seeded cluster of healthy single-replica shards: `n_rows` rows drawn
/// from `rng`, partitioned per `map`, mirrored into the unsharded oracle.
fn cluster(rng: &mut Stream, map: ShardMap, n_rows: i64) -> ShardedFixture {
    let mut rows = rng.fork();
    ShardedFixture::plain(map, (0..n_rows).map(|id| HleRow::seeded(id, &mut rows)))
}

/// The seeded partitioning for one scenario round: alternate hash-by-id
/// and range-by-time_end.
fn seeded_map(rng: &mut Stream, shards: u32) -> ShardMap {
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
fn ordered_query(rng: &mut Stream) -> Query {
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
fn aggregate_query(rng: &mut Stream) -> Query {
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
    let mut rng = stream("oracle");
    for round in 0..4u64 {
        let shards = 2 + rng.below(7) as u32; // 2..=8
        let map = seeded_map(&mut rng, shards);
        let c = cluster(&mut rng, map, 300);
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
    let mut rng = stream("merge");
    let shards = 5;
    let map = ShardMap::new(shards).with_hash("hle", "id", 16);
    let c = cluster(&mut rng, map, 200);
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
            rng.shuffle(&mut parts);
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
    let map = ShardMap::new(4).with_hash("hle", "id", 16);
    let ShardedFixture { stores, oracle, .. } = cluster(&mut stream("pushdown"), map.clone(), 400);

    // A second router over the same stores, every replica recording.
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
    let mut rng = stream("resolve");
    let map = ShardMap::new(3).with_hash("loc_item", "item_id", 12);
    let sharded = ShardedFixture::plain(map.clone(), []).sharded;
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
        let mut rng = Seed(seed).stream("replay");
        let shards = 2 + rng.below(7) as u32;
        let map = seeded_map(&mut rng, shards);
        let c = cluster(&mut rng, map, 120);
        let mut digest = Vec::new();
        for _ in 0..10 {
            let q = ordered_query(&mut rng);
            let r = c.sharded.query(&q).unwrap();
            digest.push(format!("{:?}|{:?}", r.columns, r.rows));
        }
        digest.push(format!(
            "{:?}",
            c.oracle.query(&Query::table("hle")).unwrap().rows
        ));
        digest
    };
    assert_eq!(run(41), run(41), "same seed, same cluster, same answers");
}
