//! No timers, no reader thread: the net tier moves only when bytes do.
//!
//! Server side, `net.server.shard_wakeups` counts every return of a reader
//! shard from its blocking wait. An idle server must not move it, a ping
//! may move it by at most three (the request's bytes; nothing for the
//! response, which the worker writes itself), and shutdown must not wait
//! out any park interval. Client side, a [`MuxClient`] has no thread of its
//! own: whichever caller waits first reads the socket for everybody, and
//! passes that job on when it is done — also when it is done because its
//! own deadline ran out.
//!
//! The wake-up counter is process-wide, so the tests here take turns.

mod common;

use common::{mux, one_cell, serve, workers, RawClient};
use hedc_dm::testkit::Seed;
use hedc_dm::{DmNode, DmResult};
use hedc_metadb::{Query, QueryResult, Value};
use hedc_net::proto::{Request, Response};
use hedc_net::{DmServer, NetConfig, NetDm};
use std::io::ErrorKind;
use std::sync::{mpsc, Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static ONE_SERVER_AT_A_TIME: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    ONE_SERVER_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Answers `echo_request(serial, delay)` with `serial`, after sleeping
/// `delay`: the test decides when each answer completes.
struct EchoNode;

impl DmNode for EchoNode {
    fn node_id(&self) -> String {
        "echo".into()
    }

    fn execute_query(&self, q: &Query) -> DmResult<QueryResult> {
        std::thread::sleep(Duration::from_micros(q.limit.unwrap_or(0) as u64));
        Ok(one_cell("serial", Value::Int(q.offset.unwrap_or(0) as i64)))
    }
}

fn echo_request(serial: usize, delay: Duration) -> Request {
    Request::Query(
        Query::table("echo")
            .limit(delay.as_micros() as usize)
            .offset(serial),
    )
}

fn echoed(response: &Response) -> Option<i64> {
    match response {
        Response::Result(r) => r.scalar_int(),
        _ => None,
    }
}

fn echo_server(n: usize) -> DmServer {
    serve(Arc::new(EchoNode), workers(n))
}

fn shard_wakeups() -> u64 {
    hedc_obs::global().counter("net.server.shard_wakeups").get()
}

#[test]
fn an_idle_server_stays_asleep_and_a_ping_costs_at_most_three_shard_wakeups() {
    let _turn = take_turn();
    let server = echo_server(2);
    let mut stream = RawClient::connect(server.local_addr());
    stream.ping(1); // the connection is registered and served

    let before = shard_wakeups();
    std::thread::sleep(Duration::from_millis(300));
    let idle = shard_wakeups() - before;
    assert!(
        idle <= 2,
        "{idle} shard wake-ups in 300 ms with one idle connection"
    );

    const PINGS: u64 = 200;
    let before = shard_wakeups();
    for i in 0..PINGS {
        stream.ping(2 + i);
    }
    let busy = shard_wakeups() - before;
    println!("shard wake-ups: {idle} in 300 ms idle, {busy} for {PINGS} pings");
    assert!(
        busy <= 3 * PINGS,
        "{busy} shard wake-ups for {PINGS} serial pings"
    );
    drop(server);
}

#[test]
fn shutdown_with_idle_connections_does_not_wait_out_a_park_interval() {
    let _turn = take_turn();
    let mut server = echo_server(2);
    let mut idle: Vec<RawClient> = (0..32)
        .map(|_| RawClient::connect(server.local_addr()))
        .collect();
    for (i, stream) in idle.iter_mut().enumerate() {
        stream.ping(i as u64); // every one is owned by a shard by now
    }
    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    println!("shutdown with 32 idle connections: {took:?}");
    assert!(
        took < Duration::from_millis(100),
        "shutdown took {took:?} with 32 idle connections"
    );
}

/// Names of this process's threads (Linux keeps them in procfs).
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn eight_callers_share_one_connection_without_a_reader_thread() {
    let _turn = take_turn();
    let mut clients = Seed::from_env(0x0071_3E55).stream("clients");
    const CALLERS: usize = 8;
    const REQUESTS: usize = 40;

    // As many workers as callers, and a seeded service time per request:
    // answers complete in an order unrelated to the order they were asked.
    let server = echo_server(CALLERS);
    let client = Arc::new(mux(server.local_addr()));
    let start = Arc::new(Barrier::new(CALLERS));
    let callers: Vec<_> = (0..CALLERS)
        .map(|caller| {
            let client = Arc::clone(&client);
            let start = Arc::clone(&start);
            let mut delays = clients.fork();
            std::thread::spawn(move || {
                start.wait();
                for i in 0..REQUESTS {
                    let serial = caller * 1000 + i;
                    let delay = Duration::from_micros(delays.below(1500));
                    let (response, _) = client
                        .submit(&echo_request(serial, delay), 0, 0)
                        .unwrap_or_else(|e| panic!("submit {serial}: {e}"))
                        .wait(Duration::from_secs(5))
                        .unwrap_or_else(|e| panic!("lost answer {serial}: {e}"));
                    assert_eq!(
                        echoed(&response),
                        Some(serial as i64),
                        "caller {caller} got somebody else's answer"
                    );
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().expect("caller panicked");
    }
    assert!(!client.is_dead());

    #[cfg(target_os = "linux")]
    {
        // The name the per-connection reader thread used to carry.
        let reader = ["dm-net", "mux"].join("-");
        let names = thread_names();
        assert!(
            !names.iter().any(|n| n.starts_with(&reader)),
            "a mux reader thread exists: {names:?}"
        );
    }
    drop(server);
}

#[test]
fn a_reader_whose_deadline_expires_hands_the_socket_to_a_follower() {
    let _turn = take_turn();
    let server = echo_server(2);
    let client = Arc::new(mux(server.local_addr()));

    // The holder asks for an answer that takes far longer than it is
    // willing to wait. It is alone on the connection when it starts to
    // wait, so it is the one reading the socket.
    let (holder_waiting, follower_may_start) = mpsc::channel();
    let holder = {
        let client = Arc::clone(&client);
        std::thread::spawn(move || {
            let pending = client
                .submit(&echo_request(1, Duration::from_millis(400)), 0, 0)
                .expect("submit");
            holder_waiting.send(()).expect("follower listens");
            let start = Instant::now();
            let outcome = pending.wait(Duration::from_millis(100));
            (outcome.map(|_| ()), start.elapsed())
        })
    };

    // The follower arrives while the holder reads. Its answer completes
    // after the holder's deadline and before the holder's own answer, so it
    // can only get it by taking over the socket.
    follower_may_start.recv().expect("holder runs");
    std::thread::sleep(Duration::from_millis(20));
    let (response, _) = client
        .submit(&echo_request(2, Duration::from_millis(200)), 0, 0)
        .expect("submit")
        .wait(Duration::from_secs(5))
        .expect("follower is answered");
    assert_eq!(echoed(&response), Some(2));

    let (outcome, waited) = holder.join().expect("holder panicked");
    assert_eq!(
        outcome.expect_err("holder's answer takes 400 ms").kind(),
        ErrorKind::TimedOut
    );
    assert!(
        waited < Duration::from_millis(200),
        "holder waited {waited:?} on a 100 ms deadline"
    );

    // A timeout is not a transport failure: the connection lives on, and
    // the holder's late answer is dropped by whoever reads it.
    assert!(!client.is_dead());
    let (response, _) = client
        .submit(&echo_request(3, Duration::from_millis(300)), 0, 0)
        .expect("submit")
        .wait(Duration::from_secs(5))
        .expect("answered after the straggler");
    assert_eq!(echoed(&response), Some(3));
    drop(server);
}

#[test]
fn the_client_pool_grows_with_concurrency_not_with_use() {
    let _turn = take_turn();
    let server = echo_server(8);
    let connections = || hedc_obs::global().gauge("net.server.connections").get();
    let before = connections();
    let config = NetConfig {
        pool_size: 4,
        ..NetConfig::default()
    };
    let client = Arc::new(NetDm::connect(server.local_addr(), "pool", config));
    let query = |serial: usize, delay: Duration| {
        let Request::Query(q) = echo_request(serial, delay) else {
            unreachable!("echo requests are queries");
        };
        q
    };

    // A lone caller never finds its one connection busy.
    for serial in 0..20 {
        let r = client
            .execute_query(&query(serial, Duration::ZERO))
            .expect("answered");
        assert_eq!(r.scalar_int(), Some(serial as i64));
    }
    assert_eq!(
        connections() - before,
        1,
        "a lone caller opened more sockets"
    );

    // Eight callers whose requests overlap (each holds its connection busy
    // for 50 ms) spread over the whole pool, and no further.
    let start = Arc::new(Barrier::new(8));
    let callers: Vec<_> = (0..8)
        .map(|caller| {
            let client = Arc::clone(&client);
            let start = Arc::clone(&start);
            let q = query(100 + caller, Duration::from_millis(50));
            std::thread::spawn(move || {
                start.wait();
                let r = client.execute_query(&q).expect("answered");
                assert_eq!(r.scalar_int(), Some(100 + caller as i64));
            })
        })
        .collect();
    for caller in callers {
        caller.join().expect("caller panicked");
    }
    assert_eq!(connections() - before, 4, "pool_size is 4");
    drop(client);
    drop(server);
}
