//! Fixtures of the net-tier suites: what `hedc_dm::testkit` cannot hold
//! because it sits below `hedc-net` — loopback servers and clients, the
//! request classes the torture suites draw from, a client that speaks
//! frames by hand, and a peer that answers from a script.

#![allow(dead_code)] // each test binary uses a subset of this kit

use hedc_dm::testkit::{self, Stream};
use hedc_dm::{DmNode, NameType, ResolvedName, ShardMap};
use hedc_metadb::{AccessPath, ExecStats, Expr, Query, QueryResult, Value};
use hedc_net::frame::{self, Frame, FrameKind};
use hedc_net::proto::{self, Request, Response, WireError, WireErrorKind};
use hedc_net::{AdmissionConfig, DmServer, MuxClient, NetConfig, NetDm, ServerConfig};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `node` behind a server on a loopback port of the kernel's choosing.
pub fn serve(node: Arc<dyn DmNode>, config: ServerConfig) -> DmServer {
    DmServer::bind("127.0.0.1:0", node, config).expect("bind loopback")
}

/// A default server configuration with `workers` workers.
pub fn workers(workers: usize) -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig {
            workers,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A bootstrapped DM behind a server, and a `NetDm` named `label` dialled
/// to it with [`fast_config`].
pub fn boot(label: &str, config: ServerConfig) -> (DmServer, Arc<NetDm>) {
    let server = serve(testkit::dm(), config);
    let client = NetDm::connect(server.local_addr(), label, fast_config());
    (server, Arc::new(client))
}

/// Test-friendly deadlines: fail fast, retry fast.
pub fn fast_config() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_millis(200),
        request_timeout: Duration::from_secs(2),
        retries: 2,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(20),
        health_ttl: Duration::from_millis(50),
        ..NetConfig::default()
    }
}

/// One multiplexed connection to `addr`.
pub fn mux(addr: SocketAddr) -> MuxClient {
    MuxClient::connect(addr, Duration::from_millis(500)).expect("connect")
}

/// One request on `client`, waited for.
pub fn rpc(client: &MuxClient, request: &Request) -> Response {
    let pending = client.submit(request, 0, 0).expect("submit");
    pending.wait(Duration::from_secs(5)).expect("response").0
}

/// The browse every suite sends at a bootstrapped DM: its two public
/// system catalogs.
pub fn browse_query() -> Query {
    Query::table("catalog").filter(Expr::eq("public", true))
}

/// A one-row, one-column result, for nodes that answer without a database.
pub fn one_cell(column: &str, value: Value) -> QueryResult {
    QueryResult {
        columns: vec![column.into()],
        rows: vec![vec![value]],
        stats: ExecStats {
            rows_scanned: 1,
            rows_returned: 1,
            rows_sorted: 0,
            access: AccessPath::FullScan,
        },
    }
}

/// Three request classes with mutually distinguishable responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Ping` → `Pong`.
    Ping,
    /// [`browse_query`] → `Result` with the two catalog rows.
    Browse,
    /// A query against a table that does not exist → `Error(Rejected)`;
    /// the error must come back on *this* request's id, not poison a
    /// neighbour.
    BadTable,
}

impl Kind {
    pub fn draw(stream: &mut Stream) -> Kind {
        *stream.pick(&[Kind::Ping, Kind::Browse, Kind::BadTable])
    }

    pub fn request(self) -> Request {
        match self {
            Kind::Ping => Request::Ping,
            Kind::Browse => Request::Query(browse_query()),
            Kind::BadTable => Request::Query(Query::table("no_such_table")),
        }
    }

    /// Is `response` this class's answer?
    pub fn matches(self, response: &Response) -> bool {
        match (self, response) {
            (Kind::Ping, Response::Pong { .. }) => true,
            (Kind::Browse, Response::Result(r)) => r.rows.len() == 2,
            (Kind::BadTable, Response::Error(e)) => e.kind == WireErrorKind::Rejected,
            _ => false,
        }
    }
}

/// A client that speaks frames by hand over a blocking socket: for tests
/// about what is on the wire rather than what `MuxClient` makes of it.
pub struct RawClient(pub TcpStream);

impl RawClient {
    pub fn connect(addr: SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let patience = Some(Duration::from_secs(10));
        stream.set_read_timeout(patience).expect("read timeout");
        RawClient(stream)
    }

    /// The frame [`RawClient::send`] writes.
    pub fn frame(req_id: u64, request: &Request) -> Frame {
        Frame {
            kind: FrameKind::Request,
            trace_id: 0,
            span_id: 0,
            req_id,
            payload: proto::encode(request).expect("encode"),
        }
    }

    pub fn send(&mut self, req_id: u64, request: &Request) {
        frame::write_frame(&mut self.0, &Self::frame(req_id, request)).expect("write request");
    }

    /// The next response frame, whole: its request id and message.
    /// `read_frame` validates magic, version and length on every header, so
    /// bytes of one frame landing inside another fail right here.
    pub fn recv(&mut self) -> (u64, Response) {
        let reply = frame::read_frame(&mut self.0).expect("a whole response frame");
        assert_eq!(reply.kind, FrameKind::Response);
        (reply.req_id, proto::decode(&reply.payload).expect("decode"))
    }

    /// One synchronous ping; returns its round-trip time.
    pub fn ping(&mut self, req_id: u64) -> Duration {
        let start = Instant::now();
        self.send(req_id, &Request::Ping);
        let (id, response) = self.recv();
        assert_eq!(id, req_id);
        assert!(matches!(response, Response::Pong { .. }), "{response:?}");
        start.elapsed()
    }
}

/// What a [`ScriptedPeer`] does with every request that is not a ping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Script {
    /// The variant the request asks for.
    Expected,
    /// A typed wire error.
    Error(WireErrorKind),
    /// A well-formed response no `DmNode` method asks for.
    WrongVariant,
    /// A batch answer one entry short (a bare empty batch to a single call).
    TruncatedBatch,
    /// Hang up without answering.
    CloseSocket,
}

/// The result a [`ScriptedPeer`] answers a query with.
pub fn canned_result() -> QueryResult {
    one_cell("id", Value::Int(7))
}

pub fn canned_name(item_id: i64, name_type: NameType) -> ResolvedName {
    ResolvedName {
        entry_id: item_id,
        name_type,
        archive_id: 1,
        archive_path: format!("raw/{item_id}"),
        entry_path: format!("{item_id}"),
        full_name: format!("file:hedc/raw/{item_id}#{item_id}"),
        url: None,
        size: 1,
        role: "data".into(),
        transforms: Vec::new(),
    }
}

fn expected_answer(request: &Request) -> Response {
    match request {
        Request::Query(_) => Response::Result(canned_result()),
        Request::Resolve { item_id, name_type } => {
            Response::Names(vec![canned_name(*item_id, *name_type)])
        }
        Request::Batch(entries) => Response::Batch(entries.iter().map(expected_answer).collect()),
        other => panic!("the four DmNode methods never send {other:?}"),
    }
}

/// A loopback listener speaking the frame protocol from a [`Script`] the
/// test flips between calls. Pings always get a pong, so only the call
/// under test decides the client's health verdict.
pub struct ScriptedPeer {
    pub addr: SocketAddr,
    script: Arc<Mutex<Script>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl ScriptedPeer {
    pub fn start() -> ScriptedPeer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let script = Arc::new(Mutex::new(Script::Expected));
        let stop = Arc::new(AtomicBool::new(false));
        let (script2, stop2) = (Arc::clone(&script), Arc::clone(&stop));
        let acceptor = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let (stream, script) = (stream.expect("accept"), Arc::clone(&script2));
                conns.push(std::thread::spawn(move || Self::serve(stream, &script)));
            }
            for conn in conns {
                conn.join().expect("scripted connection panicked");
            }
        });
        ScriptedPeer {
            addr,
            script,
            stop,
            acceptor: Some(acceptor),
        }
    }

    pub fn set(&self, script: Script) {
        *self.script.lock().unwrap() = script;
    }

    /// One connection: answer frames until the client hangs up or the
    /// script says to.
    fn serve(mut stream: TcpStream, script: &Mutex<Script>) {
        stream.set_nodelay(true).unwrap();
        while let Ok(request) = frame::read_frame(&mut stream) {
            let message: Request = proto::decode(&request.payload).expect("client sent a request");
            let script = *script.lock().unwrap();
            let answer = match (&message, script) {
                (Request::Ping, _) => Response::Pong {
                    node_id: "scripted".into(),
                    epoch: 0,
                },
                (_, Script::Expected) => expected_answer(&message),
                (_, Script::Error(kind)) => Response::Error(WireError {
                    kind,
                    message: "scripted".into(),
                }),
                (_, Script::WrongVariant) => Response::ShardMap(ShardMap::new(1)),
                (Request::Batch(entries), Script::TruncatedBatch) => {
                    Response::Batch(entries.iter().skip(1).map(expected_answer).collect())
                }
                (_, Script::TruncatedBatch) => Response::Batch(Vec::new()),
                (_, Script::CloseSocket) => return,
            };
            let reply = Frame {
                kind: FrameKind::Response,
                payload: proto::encode(&answer).unwrap(),
                ..request
            };
            if frame::write_frame(&mut stream, &reply).is_err() {
                return;
            }
        }
    }

    /// Stop accepting and wait for every connection to drain. Call after
    /// the clients are dropped: a connection ends when its client hangs up.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake the acceptor
        self.acceptor
            .take()
            .unwrap()
            .join()
            .expect("acceptor panicked");
    }
}
