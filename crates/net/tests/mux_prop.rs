//! Multiplexing properties, checked over seeded random schedules.
//!
//! `hedc-net` carries a dev-dependency-free property harness: SplitMix64
//! generates the schedules and `HEDC_TEST_SEED` replays them (via
//! `scripts/check.sh --seed`), which keeps the test deterministic where a
//! shrinking framework would not be.
//!
//! Properties, per randomized case on one long-lived [`MuxClient`]:
//!
//! 1. **Correlation** — every response matches the class of the request
//!    that carried its frame id, no matter how many requests are in
//!    flight or in which order the server completes them.
//! 2. **Isolation** — a failing `Batch` entry produces an error at *its*
//!    position only; sibling entries in the same frame still succeed.
//! 3. **Stream view** — waiting on pending requests in an arbitrary
//!    (shuffled) order always yields each request's own answer: the
//!    client's view is keyed by request id, never by arrival order.

mod common;

use common::{mux, serve, Kind};
use hedc_dm::testkit::{self, Seed, Stream};
use hedc_net::proto::{Request, Response};
use hedc_net::{Pending, ServerConfig};
use std::time::Duration;

const CASES: usize = 24;
const MAX_BURST: u64 = 20;

/// What one pipelined slot expects back.
#[derive(Debug)]
enum Expected {
    One(Kind),
    /// A batch frame: positionally-matched per-entry expectations.
    Batch(Vec<Kind>),
}

impl Expected {
    fn draw(state: &mut Stream) -> Expected {
        // 1 in 4 slots is a batch of 2..=6 entries (batches do not nest).
        if state.below(4) == 0 {
            let n = 2 + state.below(5) as usize;
            Expected::Batch((0..n).map(|_| Kind::draw(state)).collect())
        } else {
            Expected::One(Kind::draw(state))
        }
    }

    fn request(&self) -> Request {
        match self {
            Expected::One(kind) => kind.request(),
            Expected::Batch(kinds) => Request::Batch(kinds.iter().map(|k| k.request()).collect()),
        }
    }

    fn check(&self, response: &Response) {
        match (self, response) {
            (Expected::One(kind), _) => {
                assert!(kind.matches(response), "{kind:?} answered {response:?}")
            }
            (Expected::Batch(kinds), Response::Batch(entries)) => {
                assert_eq!(entries.len(), kinds.len(), "batch arity");
                // Per-entry isolation: each position carries its own
                // verdict; a BadTable entry must not poison siblings.
                for (kind, entry) in kinds.iter().zip(entries) {
                    assert!(kind.matches(entry), "{kind:?} entry answered {entry:?}");
                }
            }
            (_, other) => panic!("batch answered with {other:?}"),
        }
    }
}

#[test]
fn interleaved_pipelined_requests_demultiplex_by_request_id() {
    let mut state = Seed::from_env(0x00D1_5EED).stream("clients");
    let server = serve(testkit::dm(), ServerConfig::default());
    let client = mux(server.local_addr());

    for case in 0..CASES {
        let burst = 1 + state.below(MAX_BURST) as usize;
        let mut pending: Vec<(Expected, Pending)> = Vec::with_capacity(burst);
        for _ in 0..burst {
            let expected = Expected::draw(&mut state);
            let p = client
                .submit(&expected.request(), 0, 0)
                .unwrap_or_else(|e| panic!("case {case}: submit failed: {e}"));
            pending.push((expected, p));
        }
        // Consume out of submission order (a seeded shuffle, decoupled
        // from server completion order too): correlation must come from
        // the frame's request id, not from queue position.
        state.shuffle(&mut pending);
        for (expected, p) in pending {
            let (response, _) = p
                .wait(Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("case {case}: lost response: {e}"));
            expected.check(&response);
        }
        assert!(!client.is_dead(), "case {case}: connection died");
    }
    drop(client);
    drop(server);
}
