//! Accept-path latency regression guard.
//!
//! The first server iteration polled `accept()` with a 5 ms sleep, adding
//! up to 5 ms before a fresh connection was even seen — invisible in
//! throughput benchmarks, dominant in connect-then-one-query workloads.
//! The acceptor now blocks in `accept()` and reader shards are woken on
//! registration, so a fresh connection's first request answers in
//! microseconds. This test pins that down: the *median* fresh-connect
//! ping RTT on an idle loopback server must beat 1 ms. (The median is the
//! right statistic — a sleep-poll acceptor centres it near half the poll
//! interval, where a min would occasionally sneak under the bar and a max
//! is hostage to scheduler noise.)

mod common;

use common::{serve, RawClient};
use hedc_dm::testkit;
use hedc_net::ServerConfig;
use std::time::{Duration, Instant};

#[test]
fn idle_accept_to_first_response_median_is_under_a_millisecond() {
    let server = serve(testkit::dm(), ServerConfig::default());
    let addr = server.local_addr();

    let trials = 100;
    let mut rtts: Vec<Duration> = (0..trials)
        .map(|i| {
            let start = Instant::now();
            RawClient::connect(addr).ping(i + 1);
            start.elapsed()
        })
        .collect();

    rtts.sort();
    let median = rtts[trials as usize / 2];
    assert!(
        median < Duration::from_millis(1),
        "idle accept→first-response median regressed to {median:?} \
         (p90 {:?}, max {:?}) — did a sleep-poll sneak back into the accept \
         or registration path?",
        rtts[trials as usize * 9 / 10],
        rtts[trials as usize - 1],
    );
    drop(server);
}
