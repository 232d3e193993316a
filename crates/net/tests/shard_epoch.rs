//! Epoch-handshake churn: 64 clients browse a 2-shard cluster while the
//! shard map is repeatedly republished under them.
//!
//! The protocol contract under test: a client holding a stale map never
//! gets a wrong or empty answer — it gets [`Response::Redirect`], refetches
//! the map with [`Request::FetchShardMap`], and retries; the retried
//! request returns exactly the row it asked for. The churn reassigns a
//! partition no client queries, so every redirect in this test is purely
//! an epoch-staleness signal — data placement for the probed keys never
//! changes, which is what makes "retry must succeed with the same answer"
//! assertable.
//!
//! Seeded: the per-client schedules derive from a printed seed
//! (`HEDC_TEST_SEED` overrides; replay with `scripts/check.sh --seed`).

mod common;

use common::{mux, rpc};
use hedc_dm::testkit::{HleRow, Seed, ShardedFixture};
use hedc_dm::{ShardMap, ShardMapHandle};
use hedc_metadb::{Expr, Query, QueryResult, Value};
use hedc_net::proto::{Request, Response, WireErrorKind};
use hedc_net::{DmServer, MuxClient, ServerConfig, ShardIdentity};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const CLIENTS: usize = 64;
const ROUNDS: usize = 8;
/// The range partition the churn thread flips between shards; its key
/// interval (`id >= 2000`) holds no rows and is never queried.
const CHURN_PART: u32 = 2;

/// `id < 1000` → shard 0, `1000 ≤ id < 2000` → shard 1, `id ≥ 2000` →
/// the churn partition (initially shard 0, flipped throughout the test).
fn cluster_map() -> ShardMap {
    ShardMap::new(2).with_range("hle", "id", vec![1000, 2000], vec![0, 1, 0])
}

struct Cluster {
    servers: Vec<DmServer>,
    addrs: Vec<SocketAddr>,
    handle: Arc<ShardMapHandle>,
    /// Ids with rows, spread over both stable partitions.
    ids: Vec<i64>,
    /// Every row, unsharded: what a probe must come back with.
    oracle: Arc<hedc_dm::DmIo>,
}

/// Each shard's store behind its own server, all sharing one map handle.
fn cluster() -> Cluster {
    let ids: Vec<i64> = (0..60).flat_map(|off| [off * 7, 1000 + off * 7]).collect();
    let rows = ids.iter().map(|&id| HleRow::at(id, id + 5));
    let ShardedFixture { stores, oracle, .. } = ShardedFixture::plain(cluster_map(), rows);
    let handle = ShardMapHandle::new(cluster_map());
    let servers: Vec<DmServer> = (0u32..)
        .zip(stores)
        .map(|(shard, io)| {
            let map = Arc::clone(&handle);
            DmServer::bind_sharded(
                "127.0.0.1:0",
                io,
                ServerConfig::default(),
                ShardIdentity { shard, map },
            )
            .expect("bind loopback")
        })
        .collect();
    Cluster {
        addrs: servers.iter().map(DmServer::local_addr).collect(),
        servers,
        handle,
        ids,
        oracle,
    }
}

fn probe(id: i64) -> Query {
    Query::table("hle")
        .select(&["id", "n_photons"])
        .filter(Expr::eq("id", id))
}

/// Fetch the live map from any server.
fn fetch_map(client: &MuxClient) -> ShardMap {
    match rpc(client, &Request::FetchShardMap) {
        Response::ShardMap(m) => m,
        other => panic!("FetchShardMap answered {other:?}"),
    }
}

/// One cluster-aware client: routes by its local map snapshot, and on
/// [`Response::Redirect`] refetches the map and retries. Returns the
/// number of redirects absorbed.
fn query_with_retry(clients: &[MuxClient], map: &mut ShardMap, id: i64) -> (QueryResult, u64) {
    let mut redirects = 0;
    for _attempt in 0..40 {
        let shard = map.shard_for("hle", id).expect("hle is sharded") as usize;
        let request = Request::Sharded {
            shard: shard as u32,
            epoch: map.epoch,
            inner: Box::new(Request::Query(probe(id))),
        };
        match rpc(&clients[shard], &request) {
            Response::Result(r) => return (r, redirects),
            Response::Redirect { .. } => {
                redirects += 1;
                *map = fetch_map(&clients[shard]);
            }
            other => panic!("probe for id {id} answered {other:?}"),
        }
    }
    panic!("id {id}: still redirected after 40 map refetches");
}

#[test]
fn pong_carries_the_live_epoch() {
    let c = cluster();
    let client = mux(c.addrs[0]);
    match rpc(&client, &Request::Ping) {
        Response::Pong { node_id, epoch } => {
            assert_eq!(node_id, "shard-0");
            assert_eq!(epoch, c.handle.epoch());
        }
        other => panic!("{other:?}"),
    }
    let next = c.handle.current().reassign("hle", CHURN_PART, 1);
    assert!(c.handle.install(next));
    match rpc(&client, &Request::Ping) {
        Response::Pong { epoch, .. } => assert_eq!(
            epoch,
            c.handle.epoch(),
            "a republished map must show up in the very next pong"
        ),
        other => panic!("{other:?}"),
    }
    drop(c.servers);
}

#[test]
fn stale_epoch_redirects_and_a_refetched_map_succeeds() {
    let c = cluster();
    let client = mux(c.addrs[0]);
    // Bump the epoch behind the client's back.
    assert!(c
        .handle
        .install(c.handle.current().reassign("hle", CHURN_PART, 1)));
    let live = c.handle.epoch();

    let stale = Request::Sharded {
        shard: 0,
        epoch: live - 1,
        inner: Box::new(Request::Query(probe(c.ids[0]))),
    };
    match rpc(&client, &stale) {
        Response::Redirect { shard, epoch } => {
            assert_eq!(shard, 0, "the redirect names the serving shard");
            assert_eq!(epoch, live, "the redirect carries the live epoch");
        }
        other => panic!("stale envelope answered {other:?}"),
    }

    // Refetch → retry: the exact row, not a miss.
    let mut map = fetch_map(&client);
    assert_eq!(map.epoch, live);
    let clients = vec![client, mux(c.addrs[1])];
    let (result, redirects) = query_with_retry(&clients, &mut map, c.ids[0]);
    assert_eq!(redirects, 0, "a fresh map needs no retry");
    assert_eq!(result.rows.len(), 1);
    assert_eq!(result.rows[0][0], Value::Int(c.ids[0]));
    drop(c.servers);
}

#[test]
fn wrong_shard_envelope_is_redirected_not_answered() {
    let c = cluster();
    let client = mux(c.addrs[0]);
    // Right epoch, wrong shard: shard 0's server must not answer a query
    // addressed to shard 1, even though it could produce *some* rows.
    let wrong = Request::Sharded {
        shard: 1,
        epoch: c.handle.epoch(),
        inner: Box::new(Request::Query(probe(c.ids[0]))),
    };
    match rpc(&client, &wrong) {
        Response::Redirect { shard, epoch } => {
            assert_eq!(shard, 0);
            assert_eq!(epoch, c.handle.epoch());
        }
        other => panic!("wrong-shard envelope answered {other:?}"),
    }
    drop(c.servers);
}

#[test]
fn nested_envelopes_are_rejected_as_malformed() {
    let c = cluster();
    let client = mux(c.addrs[0]);
    let nested = Request::Sharded {
        shard: 0,
        epoch: c.handle.epoch(),
        inner: Box::new(Request::Sharded {
            shard: 0,
            epoch: c.handle.epoch(),
            inner: Box::new(Request::Ping),
        }),
    };
    match rpc(&client, &nested) {
        Response::Error(e) => assert_eq!(e.kind, WireErrorKind::Failed, "{e:?}"),
        other => panic!("nested envelope answered {other:?}"),
    }
    drop(c.servers);
}

#[test]
fn churning_epochs_under_64_clients_never_lose_a_row() {
    let mut schedules = Seed::from_env(0x5AAD_E70C).stream("clients");
    let c = cluster();
    let addrs = c.addrs.clone();
    let ids = Arc::new(c.ids.clone());
    let total_redirects = Arc::new(AtomicU64::new(0));

    // Two-phase start: every client snapshots the initial map, then the
    // churn thread republishes before any of them issue a query — so each
    // client's first probe is *guaranteed* stale and must take the
    // redirect → refetch → retry path.
    let fetched = Arc::new(Barrier::new(CLIENTS + 1));
    let churned = Arc::new(Barrier::new(CLIENTS + 1));
    let stop = Arc::new(AtomicBool::new(false));

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let mut state = schedules.fork();
            let oracle = Arc::clone(&c.oracle);
            let addrs = addrs.clone();
            let ids = Arc::clone(&ids);
            let fetched = Arc::clone(&fetched);
            let churned = Arc::clone(&churned);
            let total_redirects = Arc::clone(&total_redirects);
            std::thread::spawn(move || {
                let clients: Vec<MuxClient> = addrs
                    .iter()
                    .map(|a| MuxClient::connect(*a, Duration::from_secs(2)).expect("connect"))
                    .collect();
                let mut map = fetch_map(&clients[0]);
                fetched.wait();
                churned.wait();
                let mut got = 0u64;
                for _ in 0..ROUNDS {
                    let id = *state.pick(&ids);
                    let (result, redirects) = query_with_retry(&clients, &mut map, id);
                    total_redirects.fetch_add(redirects, Ordering::Relaxed);
                    assert_eq!(result.rows.len(), 1, "id {id}");
                    assert_eq!(result.rows[0][0], Value::Int(id));
                    assert_eq!(
                        result.rows,
                        oracle.query(&probe(id)).unwrap().rows,
                        "id {id} came back with the wrong payload"
                    );
                    got += 1;
                }
                got
            })
        })
        .collect();

    fetched.wait();
    // Republish once while every client still holds the epoch-1 snapshot.
    assert!(c
        .handle
        .install(c.handle.current().reassign("hle", CHURN_PART, 1)));
    churned.wait();

    // Keep republishing while the clients run: flip the unqueried
    // partition back and forth, bumping the epoch each time.
    let handle = Arc::clone(&c.handle);
    let stop_flag = Arc::clone(&stop);
    let churner = std::thread::spawn(move || {
        let mut flips = 0u64;
        while !stop_flag.load(Ordering::Relaxed) {
            let cur = handle.current();
            let to = 1 - cur.assignment("hle", CHURN_PART).unwrap();
            assert!(handle.install(cur.reassign("hle", CHURN_PART, to)));
            flips += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        flips
    });

    let mut answered = 0u64;
    for h in handles {
        answered += h.join().expect("client thread panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let flips = churner.join().unwrap();

    assert_eq!(
        answered,
        (CLIENTS * ROUNDS) as u64,
        "every probe must land despite the churn"
    );
    let redirects = total_redirects.load(Ordering::Relaxed);
    assert!(
        redirects >= CLIENTS as u64,
        "each client's first probe was provably stale, yet only {redirects} \
         redirects were absorbed"
    );
    assert!(flips >= 1, "the churner must have republished");
    println!(
        "shard_epoch: {answered} probes, {redirects} redirects absorbed, \
         {flips} republishes"
    );
    drop(c.servers);
}
