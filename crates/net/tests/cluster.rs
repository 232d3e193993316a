//! Cluster integration: real sockets under the DM router.
//!
//! Boots multiple `DmServer`s on loopback, routes browse queries through a
//! `DmRouter` over `NetDm` clients, kills a server mid-run, and checks that
//! every request completes via failover — with the observability span tree
//! staying connected across the wire.
//!
//! The failure-path tests inject faults through [`FaultyDmNode`] with a
//! seeded plan and print that seed, so any flake replays exactly with
//! `scripts/check.sh --seed <printed seed>` (which exports
//! `HEDC_TEST_SEED`).

mod common;

use common::{
    browse_query, canned_result, fast_config, mux, one_cell, serve, Script, ScriptedPeer,
};
use hedc_cache::CacheConfig;
use hedc_dm::testkit::{self, Seed};
use hedc_dm::{Dm, DmError, DmNode, DmResult, DmRouter, FaultPlan, FaultyDmNode, NameType};
use hedc_metadb::{Query, QueryResult, Value};
use hedc_net::proto::{Request, Response, WireErrorKind, MAX_BATCH_ENTRIES};
use hedc_net::{DmServer, NetConfig, NetDm, ServerConfig};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

fn boot(label: &str) -> (DmServer, Arc<NetDm>) {
    common::boot(label, ServerConfig::default())
}

/// `net.client.unavailable` is one process-wide counter and the tests of
/// this file share a process: every test that drives a client into a dead
/// transport holds this, so [`one_call_path_maps_every_peer_answer`] can
/// assert exact deltas.
fn dead_transport_serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn query_roundtrip_over_loopback() {
    let (_server, client) = boot("rt-node");
    let r = client.execute_query(&browse_query()).unwrap();
    // Dm::bootstrap creates the standard + extended catalogs.
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.stats.rows_returned, 2);
    assert!(client.is_available());
}

#[test]
fn dead_server_is_unavailable_and_probe_recovers() {
    let _serial = dead_transport_serial();
    let (mut server, client) = boot("probe-node");
    assert!(client.is_available());
    server.shutdown();
    // Health verdict is cached for health_ttl; wait it out, then probe.
    std::thread::sleep(Duration::from_millis(60));
    assert!(!client.is_available());
    let err = client.execute_query(&browse_query()).unwrap_err();
    assert!(matches!(err, DmError::RemoteUnavailable(_)), "{err:?}");
}

#[test]
fn client_and_server_spans_share_one_trace() {
    let (_server, client) = boot("trace-node");
    let root = hedc_obs::Span::root("test.browse");
    let trace_id = root.context().trace_id;
    let root_span_id = root.context().span_id;
    client.execute_query(&browse_query()).unwrap();
    drop(root);

    let spans = hedc_obs::span_store().spans_for(trace_id);
    let client_span = spans
        .iter()
        .find(|s| s.name == "net.rpc.client")
        .expect("client-side rpc span in trace");
    let server_span = spans
        .iter()
        .find(|s| s.name == "net.rpc.server")
        .expect("server-side rpc span in trace");
    // Connected tree: root -> net.rpc.client -> net.rpc.server, one trace.
    assert_eq!(client_span.trace_id, server_span.trace_id);
    assert_eq!(client_span.parent_id, root_span_id);
    assert_eq!(server_span.parent_id, client_span.span_id);
    // Query execution inside the server joins the same trace too.
    assert!(
        spans.iter().any(|s| s.name.starts_with("metadb.")),
        "expected a metadb span under the server span: {spans:?}"
    );
}

/// The acceptance scenario: ≥2 nodes, concurrent browse traffic through the
/// router, one server flaky from the start and killed mid-run — every
/// request must still complete.
///
/// Node A's flakiness is injected by a seeded [`FaultyDmNode`] *behind* the
/// wire, so the router sees real serialized `RemoteUnavailable` errors and
/// must redirect. The fault sequence is a pure function of the printed
/// seed: a failing run replays with `scripts/check.sh --seed <seed>`.
#[test]
fn failover_completes_every_request_when_a_node_dies_mid_run() {
    let _serial = dead_transport_serial();
    // Node A drops ~15% of requests and drags out another ~5% even before
    // it is killed. Only unavailability is injected — RemoteFailed means
    // "the node is up, the query is bad" and is deliberately not failed
    // over by the router.
    let faults = Seed::from_env(0xC0FFEE).stream("node-faults");
    let plan = FaultPlan::none()
        .unavailable(150)
        .slow(50, Duration::from_millis(2));
    let faulty_a = Arc::new(FaultyDmNode::new(testkit::dm(), "srv-a", plan, faults));
    let mut server_a = serve(faulty_a.clone(), ServerConfig::default());
    let client_a = Arc::new(NetDm::connect(
        server_a.local_addr(),
        "net-a",
        fast_config(),
    ));
    let (_server_b, client_b) = boot("net-b");
    let router = Arc::new(DmRouter::new(vec![
        client_a.clone() as Arc<dyn DmNode>,
        client_b.clone() as Arc<dyn DmNode>,
    ]));

    const THREADS: usize = 4;
    const REQUESTS_PER_THREAD: usize = 40;
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                let mut completed = 0usize;
                for _ in 0..REQUESTS_PER_THREAD {
                    let root = hedc_obs::Span::root("test.failover");
                    let r = router.execute_query(&browse_query());
                    drop(root);
                    let r = r.expect("request must complete via failover");
                    assert_eq!(r.rows.len(), 2);
                    completed += 1;
                }
                completed
            })
        })
        .collect();

    // Kill node A once traffic is in flight.
    std::thread::sleep(Duration::from_millis(30));
    server_a.shutdown();

    let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(total, THREADS * REQUESTS_PER_THREAD, "no request lost");

    // After the kill the surviving node carried the load.
    assert!(client_b.is_available());
    std::thread::sleep(Duration::from_millis(60)); // let the health TTL lapse
    assert!(!client_a.is_available());

    // The outage is visible in the event log: reconnect attempts and the
    // router's redirect past the dead node.
    let events = hedc_obs::event_log().events();
    assert!(
        events.iter().any(|e| {
            e.kind == hedc_obs::events::kind::NET_RECONNECT && e.detail.contains("net-a")
        }),
        "expected a net_reconnect event for net-a"
    );
    // The injector really exercised node A before the kill (if this fires,
    // replay the printed seed to see the exact fault sequence).
    let counts = faulty_a.counts();
    assert!(
        counts.passed + counts.unavailable + counts.slow > 0,
        "node A never saw traffic: {counts:?}"
    );
}

/// Tentpole degraded mode at the network tier: a client whose cache is warm
/// keeps answering browse queries after its backend dies, and says so in
/// the event log.
#[test]
fn warm_client_cache_survives_backend_outage_read_only() {
    let _serial = dead_transport_serial();
    let (mut server, _) = boot("warm-node");
    let client =
        NetDm::connect(server.local_addr(), "warm-node", fast_config()).with_cache(&CacheConfig {
            ttl: Some(Duration::from_secs(3600)),
            ..CacheConfig::default()
        });

    let q = browse_query();
    let cold = client.execute_query(&q).expect("cold query over the wire");
    assert_eq!(cold.rows.len(), 2);
    // Warm repeat: served client-side, no wire round trip.
    let warm = client.execute_query(&q).expect("warm query from cache");
    assert_eq!(warm.rows, cold.rows);

    server.shutdown();
    std::thread::sleep(Duration::from_millis(60)); // let the health TTL lapse

    // A fresh hit still answers without noticing the outage.
    assert_eq!(client.execute_query(&q).unwrap().rows, cold.rows);

    // Even once the entry is invalidated, the dead wire downgrades the
    // miss to a stale serve instead of an error: degraded read-only mode.
    let cache = client.cache().expect("cache enabled");
    cache.bump("catalog");
    let degraded = client
        .execute_query(&q)
        .expect("stale serve during the outage");
    assert_eq!(degraded.rows, cold.rows);
    assert!(cache.stats().stale_serves >= 1, "{:?}", cache.stats());
    let events = hedc_obs::event_log().events();
    assert!(
        events.iter().any(|e| {
            e.kind == hedc_obs::events::kind::CACHE_DEGRADED && e.detail.contains("warm-node")
        }),
        "expected a cache_degraded event for warm-node"
    );

    // Writes-through-the-wire stay impossible: a query the cache has never
    // seen is an honest outage.
    let miss = client.execute_query(&Query::table("hle")).unwrap_err();
    assert!(matches!(miss, DmError::RemoteUnavailable(_)), "{miss:?}");
}

/// A node whose every answer is too large for one frame: 40 MiB of LOB
/// bytes against the 32 MiB payload cap.
struct Bloated;

impl DmNode for Bloated {
    fn node_id(&self) -> String {
        "bloated".into()
    }

    fn execute_query(&self, _q: &Query) -> DmResult<QueryResult> {
        let mut result = canned_result();
        result.rows = (0..5)
            .map(|_| vec![Value::Bytes(vec![0xAB; 8 << 20])])
            .collect();
        Ok(result)
    }
}

/// A response the frame cannot carry is the *query's* failure. Severing the
/// connection instead reads as a dead node: the client fails over and the
/// replica dies of the same answer.
#[test]
fn a_response_over_the_frame_cap_is_a_rejection_not_a_dead_node() {
    let server = serve(Arc::new(Bloated), ServerConfig::default());
    let client = NetDm::connect(server.local_addr(), "net-bloated", fast_config());
    let err = client.execute_query(&browse_query()).unwrap_err();
    assert!(
        matches!(&err, DmError::BadQuery(m) if m.contains("exceeds the 32 MiB frame cap")),
        "{err:?}"
    );
    assert!(client.is_available(), "the node answered: it is up");

    // On one connection: the rejection comes back on the request's own id,
    // and a sibling in flight beside it is answered as if nothing happened.
    let conn = mux(server.local_addr());
    let big = conn.submit(&Request::Query(browse_query()), 0, 0).unwrap();
    let ping = conn.submit(&Request::Ping, 0, 0).unwrap();
    let patience = Duration::from_secs(5);
    match big.wait(patience).expect("an answer, not a hang-up").0 {
        Response::Error(e) => assert_eq!(e.kind, WireErrorKind::Rejected, "{e:?}"),
        other => panic!("over-cap result answered {other:?}"),
    }
    let pong = ping.wait(patience).expect("the connection survived").0;
    assert!(matches!(pong, Response::Pong { .. }), "{pong:?}");
    assert!(!conn.is_dead());
}

/// A bootstrapped DM carrying `n` items with attached file names, plus the
/// item ids.
fn dm_with_items(n: usize) -> (Arc<Dm>, Vec<i64>) {
    let dm = testkit::dm();
    let names = dm.names();
    let items: Vec<i64> = (0..n)
        .map(|i| {
            let item = names.new_item().unwrap();
            names
                .attach(
                    item,
                    NameType::File,
                    1,
                    &format!("raw/obs{i}.fits"),
                    128,
                    None,
                    "data",
                )
                .unwrap();
            item
        })
        .collect();
    (dm, items)
}

/// Satellite (d), net tier: per-entry fault injection *inside* one
/// `Request::Batch` frame fails only the affected entries. The injector
/// sits behind the wire, so each entry's outcome crosses back as its own
/// positional response; its draw tally also proves the whole batch crossed
/// the wire exactly once (no client-side retry amplification).
#[test]
fn batch_over_the_wire_isolates_injected_per_entry_faults() {
    let (dm, items) = dm_with_items(32);
    let expected: Vec<_> = items
        .iter()
        .map(|&id| dm.names().resolve(id, NameType::File).unwrap())
        .collect();

    let faults = Seed::from_env(5).stream("node-faults");
    let plan = FaultPlan::none().unavailable(250);
    let faulty = Arc::new(FaultyDmNode::new(dm, "wire-faults", plan, faults));
    let server = serve(faulty.clone(), ServerConfig::default());
    let client = NetDm::connect(server.local_addr(), "wire-faults", fast_config());

    let got = client.resolve_batch(&items, NameType::File);
    assert_eq!(got.len(), items.len(), "one response per entry, in order");
    let (mut ok, mut failed) = (0usize, 0usize);
    for ((r, want), item) in got.iter().zip(&expected).zip(&items) {
        match r {
            Ok(names) => {
                assert_eq!(names, want, "item {item} answered wrong");
                ok += 1;
            }
            Err(DmError::RemoteUnavailable(_)) => failed += 1,
            other => panic!("item {item}: unexpected outcome {other:?}"),
        }
    }
    assert!(
        ok > 0 && failed > 0,
        "seeded plan should split the batch: ok={ok} failed={failed}"
    );
    // Exactly one fault draw per entry: the batch crossed the wire once,
    // and a failed entry never poisoned (or re-ran) its neighbours.
    let counts = faulty.counts();
    assert_eq!(counts.passed as usize, ok);
    assert_eq!(counts.unavailable as usize, failed);
}

/// Several queries in one frame: positional answers with per-entry error
/// isolation — a rejected entry does not poison the rest of the batch.
#[test]
fn query_batch_isolates_a_rejected_entry() {
    let (_server, client) = boot("qbatch-node");
    let qs = vec![
        browse_query(),
        Query::table("nope"),
        Query::table("catalog"),
    ];
    let got = client.execute_batch(&qs);
    assert_eq!(got.len(), 3);
    assert_eq!(got[0].as_ref().unwrap().rows.len(), 2);
    assert!(matches!(&got[1], Err(DmError::BadQuery(_))), "{:?}", got[1]);
    assert_eq!(got[2].as_ref().unwrap().rows.len(), 2);
}

/// A node that answers a query with the limit it carried.
struct EchoLimit;

impl DmNode for EchoLimit {
    fn node_id(&self) -> String {
        "echo".into()
    }

    fn execute_query(&self, q: &Query) -> DmResult<QueryResult> {
        Ok(one_cell("limit", Value::Int(q.limit.unwrap_or(0) as i64)))
    }
}

/// The decoder refuses a batch over `MAX_BATCH_ENTRIES`, so the client must
/// never send one: a longer batch crosses in several frames and still comes
/// back whole and in order.
#[test]
fn a_batch_longer_than_one_frame_carries_is_split_and_answered_in_order() {
    let server = serve(Arc::new(EchoLimit), ServerConfig::default());
    let client = NetDm::connect(server.local_addr(), "net-echo", fast_config());
    let qs: Vec<Query> = (0..MAX_BATCH_ENTRIES + 3)
        .map(|i| Query::table("t").limit(i))
        .collect();
    let got = client.execute_batch(&qs);
    assert_eq!(got.len(), qs.len());
    for (i, answer) in got.iter().enumerate() {
        let result = answer.as_ref().expect("every entry answered");
        assert_eq!(result.rows[0][0], Value::Int(i as i64));
    }
}

#[test]
fn resolve_roundtrip_matches_local_resolution() {
    let (dm, items) = dm_with_items(3);
    let server = serve(dm.clone(), ServerConfig::default());
    let client = NetDm::connect(server.local_addr(), "resolve-node", fast_config());
    for &item in &items {
        let local = dm.names().resolve(item, NameType::File).unwrap();
        let remote = client.resolve_names(item, NameType::File).unwrap();
        assert_eq!(remote, local);
    }
}

#[test]
fn rpc_metrics_are_recorded() {
    let (_server, client) = boot("metrics-node");
    for _ in 0..5 {
        client.execute_query(&browse_query()).unwrap();
    }
    let snap = hedc_obs::global().snapshot();
    let client_rpc = snap
        .histogram("net.rpc.client")
        .expect("client rpc histogram");
    assert!(client_rpc.count >= 5);
    let server_rpc = snap
        .histogram("net.rpc.server")
        .expect("server rpc histogram");
    assert!(server_rpc.count >= 5);
    for counter in [
        "net.client.bytes_out",
        "net.client.bytes_in",
        "net.server.bytes_in",
        "net.server.bytes_out",
        "net.server.requests",
    ] {
        let value = snap.counter(counter).unwrap_or(0);
        assert!(value > 0, "counter {counter} should be non-zero");
    }
}

// ---------------------------------------------------------------------------
// The one call path, against a scripted peer
// ---------------------------------------------------------------------------

/// The outcome classes the table distinguishes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Ok,
    Unavailable,
    BadQuery,
    Failed,
    Overloaded,
    ShardLost(u32),
}

fn outcome<T>(r: &DmResult<T>) -> Outcome {
    match r {
        Ok(_) => Outcome::Ok,
        Err(DmError::RemoteUnavailable(_)) => Outcome::Unavailable,
        Err(DmError::BadQuery(_)) => Outcome::BadQuery,
        Err(DmError::RemoteFailed(_)) => Outcome::Failed,
        Err(DmError::Overloaded(_)) => Outcome::Overloaded,
        Err(DmError::ShardUnavailable { shard, .. }) => Outcome::ShardLost(*shard),
        Err(other) => panic!("no wire answer maps to {other:?}"),
    }
}

/// Every `DmNode` method of `NetDm` goes through the one `call`: whatever
/// the peer answers, each method must map it to the same error class, the
/// same health verdict and the same `net.client.unavailable` count — and,
/// with a cache attached, degrade to the stale entry for exactly the
/// outage classes.
#[test]
fn one_call_path_maps_every_peer_answer() {
    let _serial = dead_transport_serial();
    // (peer script, outcome of each entry, node still up, transport dead,
    // stale entry served)
    let table = [
        (Script::Expected, Outcome::Ok, true, false, false),
        (
            Script::Error(WireErrorKind::Unavailable),
            Outcome::Unavailable,
            false,
            false,
            true,
        ),
        (
            Script::Error(WireErrorKind::Rejected),
            Outcome::BadQuery,
            true,
            false,
            false,
        ),
        (
            Script::Error(WireErrorKind::Failed),
            Outcome::Failed,
            true,
            false,
            false,
        ),
        (
            Script::Error(WireErrorKind::Overloaded),
            Outcome::Overloaded,
            true,
            false,
            true,
        ),
        (
            Script::Error(WireErrorKind::ShardUnavailable(3)),
            Outcome::ShardLost(3),
            true,
            false,
            false,
        ),
        (Script::WrongVariant, Outcome::Failed, true, false, false),
        (Script::TruncatedBatch, Outcome::Failed, true, false, false),
        (Script::CloseSocket, Outcome::Unavailable, false, true, true),
    ];

    let peer = ScriptedPeer::start();
    // A health verdict outlives the whole table, so `is_available` reports
    // what the last call concluded instead of pinging the (always
    // answering) peer again.
    let config = NetConfig {
        health_ttl: Duration::from_secs(600),
        ..fast_config()
    };
    let unavailable = hedc_obs::global().counter("net.client.unavailable");
    let (q1, q2) = (browse_query(), Query::table("hle"));

    for (script, want, up, dead, stale) in table {
        let client = NetDm::connect(peer.addr, "scripted", config);
        // TTL zero: every entry is expired the moment it is filled, so a
        // warmed client still crosses the wire on every call.
        let cached =
            NetDm::connect(peer.addr, "scripted-cached", config).with_cache(&CacheConfig {
                ttl: Some(Duration::ZERO),
                ..CacheConfig::default()
            });
        peer.set(Script::Expected);
        cached.execute_query(&q1).expect("warm q1");
        cached.execute_query(&q2).expect("warm q2");
        peer.set(script);

        // A batch's entries all share the outcome, except that a truncated
        // batch still answers its leading entries.
        let batch_want = match script {
            Script::TruncatedBatch => vec![Outcome::Ok, want],
            _ => vec![want, want],
        };
        let check = |method: &str, want: &[Outcome], call: &dyn Fn() -> Vec<Outcome>| {
            let before = unavailable.get();
            assert_eq!(call(), want, "{script:?} {method}");
            assert_eq!(client.is_available(), up, "{script:?} {method}: health");
            assert_eq!(
                unavailable.get() - before,
                u64::from(dead),
                "{script:?} {method}: net.client.unavailable"
            );
        };
        check("execute_query", &[want], &|| {
            vec![outcome(&client.execute_query(&q1))]
        });
        check("execute_batch", &batch_want, &|| {
            let got = client.execute_batch(&[q1.clone(), q2.clone()]);
            got.iter().map(outcome).collect()
        });
        check("resolve_names", &[want], &|| {
            vec![outcome(&client.resolve_names(5, NameType::File))]
        });
        check("resolve_batch", &batch_want, &|| {
            let got = client.resolve_batch(&[5, 6], NameType::File);
            got.iter().map(outcome).collect()
        });

        // The cached client: the outage classes degrade to the warmed
        // entries, every other answer is the uncached one.
        let stale_before = cached.cache().unwrap().stats().stale_serves;
        let single = cached.execute_query(&q1);
        let batch = cached.execute_batch(&[q1.clone(), q2.clone()]);
        if stale {
            assert_eq!(single.expect("stale q1").rows, canned_result().rows);
            for entry in batch {
                assert_eq!(entry.expect("stale batch entry").rows, canned_result().rows);
            }
            let served = cached.cache().unwrap().stats().stale_serves - stale_before;
            assert_eq!(served, 3, "{script:?}: one stale serve per missed entry");
        } else {
            assert_eq!(outcome(&single), want, "{script:?} cached execute_query");
            let got: Vec<Outcome> = batch.iter().map(outcome).collect();
            assert_eq!(got, batch_want, "{script:?} cached execute_batch");
            assert_eq!(cached.cache().unwrap().stats().stale_serves, stale_before);
        }
    }
    peer.shutdown();
}
