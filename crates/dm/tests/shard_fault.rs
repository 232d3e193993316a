//! Shard-failover fault suite: what a scatter-gather does when replicas
//! die or shed mid-flight.
//!
//! The contract under test, layer by layer:
//!
//! * a replica dying mid-scatter is absorbed by its shard's sibling — the
//!   merged answer is identical to the healthy cluster's (never a partial
//!   row set);
//! * a replica shedding [`DmError::Overloaded`] redirects within the shard
//!   without flipping its health (the node is *up*; it must keep receiving
//!   traffic once it stops shedding);
//! * a **whole shard** going dark surfaces as the typed
//!   [`DmError::ShardUnavailable`] naming the lost shard — not as a
//!   silently smaller result.
//!
//! Seeded faults derive from one printed seed (`HEDC_TEST_SEED`
//! overrides; replay with `scripts/check.sh --seed <seed>`).

use hedc_dm::testkit::{HleRow, Seed, ShardedFixture, Stream};
use hedc_dm::{
    CrashSite, DmError, DmIo, DmNode, DmResult, FaultCounts, FaultPlan, MoveSpec, MoveStep,
    NameType, ShardMap, ShardMover, ShardedDm,
};
use hedc_metadb::{AggFunc, Expr, OrderDir, Query, QueryResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BASE_SEED: u64 = 0x5AAD_FA17;

/// Sheds the first `sheds` queries with [`DmError::Overloaded`], serves
/// everything after; counts what it actually served.
struct ShedFirst {
    inner: Arc<DmIo>,
    sheds: AtomicU64,
    served: AtomicU64,
}

impl DmNode for ShedFirst {
    fn node_id(&self) -> String {
        self.inner.node_id()
    }
    fn execute_query(&self, q: &Query) -> DmResult<QueryResult> {
        loop {
            let left = self.sheds.load(Ordering::SeqCst);
            if left == 0 {
                break;
            }
            if self
                .sheds
                .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Err(DmError::Overloaded(format!(
                    "{}: queue full",
                    self.inner.node_id()
                )));
            }
        }
        self.served.fetch_add(1, Ordering::SeqCst);
        self.inner.execute_query(q)
    }
}

/// Two range shards (cut at 1000).
fn two_shard_map() -> ShardMap {
    ShardMap::new(2)
        .with_range("hle", "time_end", vec![1000], vec![0, 1])
        .with_hash("loc_item", "item_id", 8)
}

/// [`two_shard_map`] with `n` rows spread over `time_end` in `[1, 2000]`
/// and one replica per plan on each shard, drawing from `faults`.
fn cluster(faults: &mut Stream, replicas: &[FaultPlan], n: i64) -> ShardedFixture {
    let mut times = Stream(0x0DDB_1A5E);
    let rows = (0..n).map(|id| HleRow::at(id, 1 + times.below(2_000) as i64));
    ShardedFixture::build(faults, two_shard_map(), replicas, rows)
}

/// Two replicas per shard that fail only when a test switches them off.
fn steady_pairs(n: i64) -> ShardedFixture {
    cluster(&mut Stream(0), &[FaultPlan::none(), FaultPlan::none()], n)
}

/// The fanout query every test scatters: spans the range cut, totally
/// ordered by the unique id.
fn spanning_query() -> Query {
    Query::table("hle")
        .select(&["id", "time_end", "n_photons"])
        .filter(Expr::between("time_end", 500, 1500))
        .order_by("id", OrderDir::Asc)
}

#[test]
fn replica_death_mid_scatter_is_absorbed_by_the_sibling() {
    // Shard 0's first replica dies after exactly 3 served calls — mid-way
    // through the query sequence.
    let ShardedFixture {
        sharded,
        oracle,
        nodes,
        ..
    } = steady_pairs(200);
    let (a0, a1) = (&nodes[0][0], &nodes[0][1]);
    a0.down_after(3);

    let q = spanning_query();
    let want = oracle.query(&q).unwrap();
    assert!(!want.rows.is_empty(), "the window must hold rows");
    for i in 0..12 {
        let got = sharded.query(&q).unwrap_or_else(|e| {
            panic!("scatter {i}: a single replica death must be absorbed: {e}")
        });
        assert_eq!(got.columns, want.columns, "scatter {i}");
        assert_eq!(got.rows, want.rows, "scatter {i}: no partial answers");
    }
    assert!(!a0.is_available(), "a0 must have died mid-sequence");
    assert!(
        a1.counts().passed > 0,
        "the sibling must have carried shard 0 after the death"
    );
}

#[test]
fn seeded_replica_flapping_never_surfaces_or_truncates() {
    // One noisy replica per shard (~25% unavailable); the sibling is
    // always healthy, so every scatter must complete exactly.
    let mut faults = Seed::from_env(BASE_SEED).stream("node-faults");
    let plans = [FaultPlan::none().unavailable(250), FaultPlan::none()];
    let ShardedFixture {
        sharded,
        oracle,
        nodes,
        ..
    } = cluster(&mut faults, &plans, 300);

    let q = spanning_query();
    let want = oracle.query(&q).unwrap();
    for i in 0..150 {
        let got = sharded
            .query(&q)
            .unwrap_or_else(|e| panic!("scatter {i}: injected flap must be absorbed: {e}"));
        assert_eq!(got.rows, want.rows, "scatter {i}");
    }
    let injected = nodes[0][0].counts().unavailable + nodes[1][0].counts().unavailable;
    assert!(
        injected > 0,
        "the plan should have injected at least one outage"
    );
}

#[test]
fn overload_shed_redirects_within_the_shard_without_health_flip() {
    let ShardedFixture { stores, oracle, .. } = steady_pairs(150);
    let shedder = Arc::new(ShedFirst {
        inner: Arc::clone(&stores[0]),
        sheds: AtomicU64::new(2),
        served: AtomicU64::new(0),
    });
    let mk = |io: &Arc<DmIo>| Arc::clone(io) as Arc<dyn DmNode>;
    let sharded = ShardedDm::new(
        vec![
            vec![Arc::clone(&shedder) as Arc<dyn DmNode>, mk(&stores[0])],
            vec![mk(&stores[1]), mk(&stores[1])],
        ],
        two_shard_map(),
    );

    let q = spanning_query();
    let want = oracle.query(&q).unwrap();
    // Every query during the shed window succeeds via the sibling.
    for i in 0..4 {
        let got = sharded
            .query(&q)
            .unwrap_or_else(|e| panic!("query {i}: a shed must redirect, not fail: {e}"));
        assert_eq!(got.rows, want.rows, "query {i}");
    }
    // The shedding node was never health-flipped: once it stops shedding,
    // rotation keeps sending it traffic and it serves.
    assert!(shedder.is_available());
    for _ in 0..6 {
        sharded.query(&q).unwrap();
    }
    assert!(
        shedder.served.load(Ordering::SeqCst) > 0,
        "a node that shed must stay in rotation and serve once recovered"
    );
}

#[test]
fn whole_shard_loss_is_a_typed_error_not_a_truncated_result() {
    let ShardedFixture {
        sharded,
        oracle,
        nodes,
        ..
    } = steady_pairs(200);
    let (b0, b1) = (&nodes[1][0], &nodes[1][1]);

    // Healthy baseline.
    let q = spanning_query();
    let want = oracle.query(&q).unwrap();
    assert_eq!(sharded.query(&q).unwrap().rows, want.rows);

    // Kill every replica of shard 1: the scatter must name the lost shard.
    b0.set_down(true);
    b1.set_down(true);
    match sharded.query(&q) {
        Err(DmError::ShardUnavailable { shard, .. }) => assert_eq!(shard, 1),
        Ok(r) => panic!(
            "a scatter that lost shard 1 returned {} rows as if complete",
            r.rows.len()
        ),
        Err(other) => panic!("wrong error type: {other:?}"),
    }

    // Queries pinned to the surviving shard still answer.
    let pinned = Query::table("hle")
        .select(&["id", "time_end"])
        .filter(Expr::between("time_end", 1, 900))
        .order_by("id", OrderDir::Asc);
    let got = sharded.query(&pinned).unwrap();
    assert_eq!(got.rows, oracle.query(&pinned).unwrap().rows);

    // Recovery: the shard rejoins and scatters complete again.
    b0.set_down(false);
    b1.set_down(false);
    assert_eq!(sharded.query(&q).unwrap().rows, want.rows);
}

#[test]
fn shard_loss_during_batch_resolution_errors_per_entry() {
    let ShardedFixture { sharded, nodes, .. } = steady_pairs(0);
    let map = two_shard_map();
    nodes[1][0].set_down(true);
    nodes[1][1].set_down(true);

    let ids: Vec<i64> = (0..32).collect();
    let results = sharded.resolve_batch(&ids, NameType::File);
    assert_eq!(results.len(), ids.len(), "positional: one slot per input");
    let mut lost = 0;
    for (id, r) in ids.iter().zip(&results) {
        let owner = map.shard_for("loc_item", *id).unwrap();
        match r {
            Ok(_) => assert_eq!(owner, 0, "id {id}: only shard 0 can answer"),
            Err(DmError::ShardUnavailable { shard, .. }) => {
                assert_eq!(*shard, 1, "id {id}");
                assert_eq!(owner, 1, "id {id}: the typed error names its owner");
                lost += 1;
            }
            Err(other) => panic!("id {id}: wrong error type: {other:?}"),
        }
    }
    assert!(lost > 0, "some ids must hash to the dead shard");
}

// ---------------------------------------------------------------------------
// The three fault sources of one seed, together
// ---------------------------------------------------------------------------

/// What one composed run drew and injected.
#[derive(Debug, PartialEq)]
struct Composed {
    cell: CrashSite<MoveStep>,
    counts: Vec<FaultCounts>,
    /// Every query every reader issued, reader by reader.
    asked: Vec<Vec<String>>,
}

/// One seeded query against `hle`. Key-pinned point reads are right at any
/// instant of a move (the cutover is one atomic map install). Scatters are
/// drawn only while no move is in flight: between a move's copy and clean
/// steps the moved partition sits on two shards and a scatter returns it
/// twice — ROADMAP item 4's oracle has to fix that before it can drop this
/// restriction.
fn client_query(clients: &mut Stream, move_in_flight: bool) -> Query {
    let q = Query::table("hle").select(&["id", "time_end", "n_photons"]);
    match clients.below(if move_in_flight { 1 } else { 3 }) {
        0 => q.filter(Expr::eq("id", clients.below(120) as i64)),
        1 => {
            let lo = clients.below(3_000) as i64;
            q.filter(Expr::between("time_end", lo, lo + 600))
                .order_by("id", OrderDir::Asc)
        }
        _ => Query::table("hle")
            .aggregate(AggFunc::CountStar)
            .aggregate(AggFunc::Sum("n_photons".into())),
    }
}

/// Node faults, a workflow crash and client schedules from one seed: four
/// concurrent readers browse a 2×2 cluster with one noisy and one slow
/// replica per shard — before a partition move, against whatever state the
/// mover left when it died at the drawn cell, and after the resumed move.
/// `burn` names a stream that draws seven extra values first.
fn composed_run(seed: Seed, burn: &str) -> Composed {
    let stream = |label: &str| {
        let mut s = seed.stream(label);
        if label == burn {
            (0..7).for_each(|_| _ = s.draw());
        }
        s
    };
    let (mut faults, mut crash, mut clients) = (
        stream("node-faults"),
        stream("workflow-crash"),
        stream("clients"),
    );
    let plans = [
        FaultPlan::none().unavailable(250),
        FaultPlan::none().slow(100, Duration::from_micros(50)),
    ];
    let map = ShardMap::new(2).with_hash("hle", "id", 4);
    let rows = (0..120).map(|id| HleRow::at(id, 10 + (id * 37) % 3_000));
    let fix = ShardedFixture::build(&mut faults, map, &plans, rows);
    let cell = CrashSite::<MoveStep>::drawn(&mut crash);
    let spec = MoveSpec {
        table: "hle".into(),
        part: 0,
        to: 1,
    };

    let mut readers: Vec<Stream> = (0..4).map(|_| clients.fork()).collect();
    let mut asked = vec![Vec::new(); readers.len()];
    let mut browse = |move_in_flight: bool| {
        std::thread::scope(|scope| {
            for (rng, log) in readers.iter_mut().zip(&mut asked) {
                let fix = &fix;
                scope.spawn(move || {
                    for _ in 0..25 {
                        let q = client_query(rng, move_in_flight);
                        let want = fix.oracle.query(&q).unwrap();
                        let got = fix.sharded.query(&q).unwrap_or_else(|e| {
                            panic!("{cell:?}: a healthy sibling must absorb every fault: {e}")
                        });
                        assert_eq!(
                            (got.columns, got.rows),
                            (want.columns, want.rows),
                            "{cell:?}: {q:?}"
                        );
                        log.push(format!("{q:?}"));
                    }
                });
            }
        })
    };

    browse(false);
    let mover = ShardMover::new(&fix.stores[0], fix.store_refs(), &fix.sharded);
    let died = mover.with_crash(cell).run(&spec);
    assert!(
        matches!(died, Err(DmError::Crashed(_))),
        "{cell:?}: {died:?}"
    );
    browse(true);
    ShardMover::new(&fix.stores[0], fix.store_refs(), &fix.sharded)
        .run(&spec)
        .unwrap_or_else(|e| panic!("{cell:?}: resume must complete: {e}"));
    browse(false);

    let counts = fix.nodes.iter().flatten().map(|n| n.counts()).collect();
    Composed {
        cell,
        counts,
        asked,
    }
}

/// The seed of ROADMAP item 4's oracle: the node, workflow and client fault
/// sources run *together* from one seed, every answer equals the unsharded
/// twin's, and the run replays.
#[test]
fn node_faults_a_workflow_crash_and_clients_compose_and_replay() {
    let seed = Seed::from_env(BASE_SEED);
    let first = composed_run(seed, "");
    let injected: u64 = first.counts.iter().map(|c| c.unavailable + c.slow).sum();
    assert!(injected > 0, "the plans must have injected: {first:?}");
    assert_eq!(first, composed_run(seed, ""), "same seed, same run");

    // Drawing more from one stream moves neither of the other two.
    let noisier = composed_run(seed, "node-faults");
    assert_eq!((noisier.cell, &noisier.asked), (first.cell, &first.asked));
    assert_eq!(composed_run(seed, "workflow-crash").asked, first.asked);
    assert_eq!(composed_run(seed, "clients").cell, first.cell);
}
