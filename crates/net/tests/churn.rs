//! Connection-churn chaos: 64 clients connecting, pipelining, vanishing
//! mid-flight, and reconnecting — under a seeded schedule.
//!
//! The invariant under test is response integrity during churn: every
//! request a client *waits on* gets exactly the response class it asked
//! for (no lost responses, no cross-wired request ids), even while other
//! connections are being torn down with requests still in flight. The
//! schedule is driven by SplitMix64 from a printed seed, so a failure
//! replays exactly with `scripts/check.sh --seed <printed seed>` (which
//! exports `HEDC_TEST_SEED`).

mod common;

use common::{mux, rpc, serve, Kind};
use hedc_dm::testkit::{self, Seed, Stream};
use hedc_net::proto::{Request, Response, WireErrorKind};
use hedc_net::{MuxClient, ServerConfig};
use std::net::SocketAddr;
use std::time::Duration;

const CLIENTS: usize = 64;
const ROUNDS: usize = 6;

/// `Overloaded` sheds are legitimate under churn load and count as
/// correctly-correlated too — what must never happen is a *different
/// class's* answer arriving.
fn shed(response: &Response) -> bool {
    matches!(response, Response::Error(e) if e.kind == WireErrorKind::Overloaded)
}

/// One client's lifetime: rounds of connect → pipeline a burst → either
/// wait for every response or abandon the connection mid-flight.
/// Returns `(waited, matched)` counts.
fn churn_client(addr: SocketAddr, mut state: Stream) -> (u64, u64) {
    let mut waited = 0u64;
    let mut matched = 0u64;
    for _round in 0..ROUNDS {
        let client = match MuxClient::connect(addr, Duration::from_millis(500)) {
            Ok(c) => c,
            // Transient accept pressure under 64-way churn: try next round.
            Err(_) => continue,
        };
        let burst = 1 + state.below(12) as usize;
        let abandon = state.below(4) == 0;
        let mut pending = Vec::with_capacity(burst);
        for _ in 0..burst {
            let kind = Kind::draw(&mut state);
            match client.submit(&kind.request(), 0, 0) {
                Ok(p) => pending.push((kind, p)),
                // The connection died (e.g. server-side sever during a
                // previous abandon's RST storm); nothing was waited on.
                Err(_) => break,
            }
        }
        if abandon {
            // Vanish with requests in flight: dropping the client shuts
            // the socket down, so responses for these ids arrive at a dead
            // connection and must be discarded by the server's shard
            // without affecting any other connection.
            drop(pending);
            drop(client);
            continue;
        }
        for (kind, p) in pending {
            waited += 1;
            match p.wait(Duration::from_secs(5)) {
                Ok((response, _)) => {
                    assert!(
                        shed(&response) || kind.matches(&response),
                        "cross-wired response: {kind:?} got {response:?}"
                    );
                    matched += 1;
                }
                Err(e) => panic!("lost response for {kind:?}: {e}"),
            }
        }
    }
    (waited, matched)
}

#[test]
fn churning_64_clients_lose_and_duplicate_nothing() {
    let mut clients = Seed::from_env(0x5EED_C0DE).stream("clients");
    let server = serve(testkit::dm(), ServerConfig::default());
    let addr = server.local_addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let schedule = clients.fork();
            std::thread::spawn(move || churn_client(addr, schedule))
        })
        .collect();

    let mut waited = 0u64;
    let mut matched = 0u64;
    for h in handles {
        let (w, m) = h.join().expect("client thread panicked");
        waited += w;
        matched += m;
    }
    // Every waited-on request produced exactly one correctly-classed
    // response; the panics inside churn_client catch losses/cross-wiring,
    // this catches the accounting.
    assert_eq!(waited, matched);
    // The churn actually exercised the server: with 64 clients × 6 rounds
    // and 3/4 of bursts waited on, thousands of requests is typical; even
    // a hostile seed cannot get below a few hundred.
    assert!(
        waited >= 200,
        "schedule degenerated: only {waited} waited requests"
    );

    // The server survives the storm: a fresh client still gets answers.
    let response = rpc(&mux(addr), &Request::Ping);
    assert!(matches!(response, Response::Pong { .. }), "{response:?}");
    drop(server);
}
