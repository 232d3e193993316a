//! Slow-loris torture: hostile clients that dribble bytes or stall
//! mid-payload must not pin workers or degrade well-behaved clients.
//!
//! The event-driven server owns sockets in reader shards, so an unfinished
//! frame never reaches a worker — the shard's read deadline severs the
//! connection instead. These tests run attackers and a legitimate client
//! side by side and assert both halves of the contract: the attacker is
//! disconnected, and the legitimate client's latency stays bounded.

mod common;

use common::{serve, RawClient};
use hedc_dm::testkit;
use hedc_net::frame::encode_frame;
use hedc_net::proto::Request;
use hedc_net::{AdmissionConfig, DmServer, ServerConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A tight read deadline so the tests finish quickly; two workers so a pair
/// of pinned connections would visibly starve the legitimate client.
fn loris_server() -> DmServer {
    let config = ServerConfig {
        admission: AdmissionConfig {
            workers: 2,
            read_deadline: Duration::from_millis(250),
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    };
    serve(testkit::dm(), config)
}

fn counter(name: &str) -> u64 {
    hedc_obs::global().counter(name).get()
}

/// Block until the server closes `stream` (read returns EOF or a reset),
/// or fail after `patience`.
fn assert_severed(mut stream: TcpStream, patience: Duration) {
    stream
        .set_read_timeout(Some(patience))
        .expect("set read timeout");
    let mut buf = [0u8; 256];
    let start = Instant::now();
    loop {
        match stream.read(&mut buf) {
            // EOF: the server shut the socket down. Reset counts too.
            Ok(0) => return,
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return,
            // A shed response may be in flight; drain and keep waiting.
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                panic!("server never severed the stalled connection");
            }
            Err(e) => panic!("unexpected read error while waiting for close: {e}"),
        }
        assert!(
            start.elapsed() < patience,
            "server never severed the stalled connection"
        );
    }
}

/// One synchronous ping over a fresh blocking socket, returning its RTT
/// (connect included).
fn timed_ping(addr: std::net::SocketAddr) -> Duration {
    let start = Instant::now();
    RawClient::connect(addr).ping(1);
    start.elapsed()
}

/// A client that stalls forever in the middle of a request payload must be
/// disconnected by the read deadline — and because the unfinished frame
/// never reaches the worker pool, concurrent well-behaved clients keep
/// their sub-deadline latency even with as many stalled connections as
/// there are workers.
#[test]
fn mid_payload_staller_is_severed_without_pinning_workers() {
    let server = loris_server();
    let addr = server.local_addr();
    let kills_before = counter("net.server.read_deadline_kills");

    // Two attackers (== worker count): each sends a valid header plus half
    // the promised payload, then goes silent.
    let attackers: Vec<TcpStream> = (0..2)
        .map(|i| {
            let RawClient(mut stream) = RawClient::connect(addr);
            let bytes = encode_frame(&RawClient::frame(100 + i, &Request::Ping)).unwrap();
            let half = bytes.len() - 4;
            stream.write_all(&bytes[..half]).expect("partial write");
            stream.flush().ok();
            stream
        })
        .collect();

    // Meanwhile a legitimate client keeps pinging. With the attackers
    // holding no workers, every ping completes fast.
    let mut latencies: Vec<Duration> = (0..40).map(|_| timed_ping(addr)).collect();
    latencies.sort();
    let p99 = latencies[latencies.len() * 99 / 100];
    assert!(
        p99 < Duration::from_millis(500),
        "legitimate p99 degraded alongside stalled clients: {p99:?} (all: {latencies:?})"
    );

    // The read deadline reaps both attackers.
    for stream in attackers {
        assert_severed(stream, Duration::from_secs(5));
    }
    assert!(
        counter("net.server.read_deadline_kills") >= kills_before + 2,
        "expected read-deadline kills to be counted"
    );
    drop(server);
}

/// Dribbling one byte at a time is still a loris: progress on the wire
/// does not reset the frame deadline. A frame must *complete* within the
/// read deadline or the connection is severed.
#[test]
fn byte_dribbler_is_severed_by_the_frame_deadline() {
    let server = loris_server();
    let addr = server.local_addr();
    let kills_before = counter("net.server.read_deadline_kills");

    let bytes = encode_frame(&RawClient::frame(7, &Request::Ping)).unwrap();
    let RawClient(mut stream) = RawClient::connect(addr);
    let start = Instant::now();
    let mut severed_while_writing = false;
    // 25 ms per byte: the ~60-byte frame would take ~1.5 s, far past the
    // 250 ms deadline, while each write still "makes progress".
    for b in bytes.iter() {
        if let Err(e) = stream.write_all(std::slice::from_ref(b)) {
            // The server hung up mid-dribble: exactly what we want. On
            // loopback the error often surfaces as a broken pipe or reset.
            assert!(
                matches!(
                    e.kind(),
                    ErrorKind::BrokenPipe
                        | ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                ),
                "unexpected write error: {e}"
            );
            severed_while_writing = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
        if start.elapsed() > Duration::from_secs(4) {
            break;
        }
    }
    if !severed_while_writing {
        assert_severed(stream, Duration::from_secs(5));
    }
    assert!(
        counter("net.server.read_deadline_kills") > kills_before,
        "expected the dribbler to be reaped by the read deadline"
    );

    // The server is unharmed: fresh clients still get answers.
    assert!(timed_ping(addr) < Duration::from_secs(1));
    drop(server);
}
