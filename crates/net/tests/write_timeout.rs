//! The response spill path: what happens when a socket will not take a
//! whole response.
//!
//! Workers write responses straight to the nonblocking socket; whatever
//! does not fit waits in the connection's backlog and the owning reader
//! shard finishes the write when the socket drains. Two contracts follow:
//!
//! * a client that never reads cannot hold a worker — the worker moves on
//!   at once, and the shard severs the connection after `write_timeout`;
//! * a client that does read gets every frame whole, in one piece, under
//!   its own request id, even when a multi-MiB response and small ones
//!   complete concurrently on different workers.

mod common;

use common::{one_cell, serve, workers, RawClient};
use hedc_dm::{DmNode, DmResult};
use hedc_metadb::{Query, QueryResult, Value};
use hedc_net::proto::{Request, Response};
use hedc_net::{DmServer, ServerConfig};
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Answers `Query::table("blob").limit(n).offset(tag)` with one row holding
/// `n` copies of the letter for `tag`: a response of any size whose every
/// byte says which request it belongs to. Counts the queries it has
/// answered.
#[derive(Default)]
struct BlobNode {
    served: AtomicUsize,
}

fn letter(tag: usize) -> char {
    (b'a' + (tag % 26) as u8) as char
}

impl DmNode for BlobNode {
    fn node_id(&self) -> String {
        "blob".into()
    }

    fn execute_query(&self, q: &Query) -> DmResult<QueryResult> {
        let blob: String =
            std::iter::repeat_n(letter(q.offset.unwrap_or(0)), q.limit.unwrap_or(0)).collect();
        self.served.fetch_add(1, Ordering::SeqCst);
        Ok(one_cell("blob", Value::Text(blob)))
    }
}

fn server(node: Arc<BlobNode>, n: usize, write_timeout: Duration) -> DmServer {
    let config = ServerConfig {
        write_timeout,
        ..workers(n)
    };
    serve(node, config)
}

fn blob_request(len: usize, tag: usize) -> Request {
    Request::Query(Query::table("blob").limit(len).offset(tag))
}

#[test]
fn a_client_that_never_reads_is_severed_and_never_holds_the_worker() {
    const RESPONSES: usize = 12;
    const RESPONSE_BYTES: usize = 1 << 20;
    let write_timeout = Duration::from_secs(1);
    // One worker: if a write to the hog could block it, nobody else would
    // be served until the hog is cut loose.
    let node = Arc::new(BlobNode::default());
    let server = server(Arc::clone(&node), 1, write_timeout);
    let addr = server.local_addr();

    // Several times more response bytes than the socket buffers hold,
    // requested by a client that never reads any of them.
    let mut hog = RawClient::connect(addr);
    let asked = Instant::now();
    for tag in 0..RESPONSES {
        hog.send(tag as u64, &blob_request(RESPONSE_BYTES, tag));
    }

    // The worker gets through every one of them while the hog is still
    // connected: no write waited for the peer.
    while node.served.load(Ordering::SeqCst) < RESPONSES {
        assert!(
            asked.elapsed() < write_timeout,
            "worker stuck after {} of {RESPONSES} responses",
            node.served.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // And it stays reachable before, while and after the shard severs the
    // hog.
    let mut sibling = RawClient::connect(addr);
    let mut req_id = 1;
    while asked.elapsed() < 2 * write_timeout {
        let rtt = sibling.ping(req_id);
        assert!(
            rtt < Duration::from_millis(50),
            "sibling ping took {rtt:?} while the hog's responses were backed up"
        );
        req_id += 1;
        std::thread::sleep(Duration::from_millis(10));
    }

    // The hog is gone: what the kernel had buffered drains, then EOF — well
    // short of everything it asked for.
    let mut received = 0usize;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match hog.0.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => received += n,
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("hog was never severed: {e}"),
        }
    }
    assert!(
        received < RESPONSES * RESPONSE_BYTES,
        "hog received all {received} bytes: nothing ever backed up"
    );
    drop(server);
}

#[test]
fn a_reading_client_gets_big_and_small_frames_whole_and_by_request_id() {
    const BIG_BYTES: usize = 6 << 20;
    // Several workers, so small responses complete while a big one is
    // still draining through the backlog.
    let server = server(Arc::new(BlobNode::default()), 4, Duration::from_secs(5));
    let mut client = RawClient::connect(server.local_addr());

    // Big responses (each more than a socket buffer) interleaved with
    // pings and small blobs, all pipelined before anything is read.
    let mut expected: HashMap<u64, Option<(usize, usize)>> = HashMap::new();
    let mut req_id = 0u64;
    for round in 0..3 {
        req_id += 1;
        client.send(req_id, &blob_request(BIG_BYTES, round));
        expected.insert(req_id, Some((BIG_BYTES, round)));
        for small in 0..8 {
            req_id += 1;
            if small % 2 == 0 {
                client.send(req_id, &Request::Ping);
                expected.insert(req_id, None);
            } else {
                let (len, tag) = (100 + small, round * 8 + small);
                client.send(req_id, &blob_request(len, tag));
                expected.insert(req_id, Some((len, tag)));
            }
        }
    }
    // Let the first big response hit a full socket before draining it.
    std::thread::sleep(Duration::from_millis(100));

    for _ in 0..expected.len() {
        let (id, response) = client.recv();
        let want = expected
            .remove(&id)
            .unwrap_or_else(|| panic!("unknown or repeated request id {id}"));
        match (want, response) {
            (None, Response::Pong { .. }) => {}
            (Some((len, tag)), Response::Result(r)) => {
                let Some(Value::Text(blob)) = r.rows.first().and_then(|row| row.first()) else {
                    panic!("request {id} answered without its blob");
                };
                assert_eq!(blob.len(), len, "request {id}");
                assert!(
                    blob.chars().all(|c| c == letter(tag)),
                    "request {id} got another request's bytes"
                );
            }
            (want, other) => panic!(
                "request {id} expected {want:?}, got {}",
                match other {
                    Response::Error(e) => format!("error {e:?}"),
                    _ => "another response class".into(),
                }
            ),
        }
    }
    assert!(expected.is_empty());
    drop(server);
}
