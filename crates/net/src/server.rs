//! `DmServer`: expose a [`DmNode`] on a TCP listener — event-driven.
//!
//! The serving tier is a small, fixed set of threads regardless of how many
//! clients connect (the paper's §5 lesson: bound concurrency up front and
//! reject work you cannot finish, instead of queueing into 30-second p99s):
//!
//! ```text
//!   acceptor ──► reader shards ──► bounded run queues ──► worker pool
//!   (1 thread)   (own N conns     (per-worker, shed      (≈ CPU count,
//!    blocking     each, blocked    when full or stale)    executes the
//!    accept)      in poll(2))                             DmNode calls,
//!                      ▲                                  writes the
//!                      └──── wake byte on a spilled ───── response)
//!                            write / new connection
//! ```
//!
//! * The **acceptor** blocks in `accept()` — no sleep-poll, so an idle
//!   server admits a new connection in microseconds — and refuses
//!   connections beyond `max_connections` outright.
//! * **Reader shards** own the read side of the sockets. Each shard blocks
//!   in `poll(2)` over its connections plus a wake channel — no timer: the
//!   timeout is the nearest pending read/write deadline, or none — reads
//!   what is ready into an incremental [`FrameBuffer`] and drains complete
//!   frames to the run queues. A peer that starts a frame and stalls (slow
//!   loris) trips the read deadline and is disconnected without ever
//!   pinning a worker.
//! * **Workers** execute requests and write the encoded response straight
//!   to the nonblocking socket under the connection's write lock. Only
//!   what the socket would not take spills to the connection's backlog;
//!   the worker then wakes the owning shard, which polls for `POLLOUT` and
//!   finishes the write (or severs a peer that stays unwritable past
//!   `write_timeout`) — a worker never waits on a slow reader. Admission
//!   control sheds instead of
//!   queueing without bound: a full run queue, a request that sat queued
//!   past its deadline, or a connection over its in-flight cap gets an
//!   immediate typed `Overloaded` response the client can retry or fail
//!   over (`DmError::Overloaded` → `DmRouter` redirect).
//!
//! Connections are multiplexed: many requests may be in flight per socket,
//! correlated by the frame header's request id, and responses complete out
//! of order. Queue wait is recorded as a `net.server.queue_wait` span in
//! the caller's trace, so a shed or queued request is attributable on
//! `/hedc/traces`.

use crate::frame::{Frame, FrameBuffer, FrameKind};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::proto::{decode, encode_framed, Request, Response, WireError, WireErrorKind};
use hedc_dm::{DmNode, NameType, ShardMapHandle};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission-control limits. Every bound has a shed behaviour: exceeding it
/// produces a fast typed `Overloaded` rejection (or a refused connection),
/// never an unbounded queue.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Open-connection cap; connections beyond it are accepted and
    /// immediately closed (counted as `net.server.accept_rejected`).
    pub max_connections: usize,
    /// Worker threads executing requests. `0` = one per available core
    /// (clamped to 2..=16).
    pub workers: usize,
    /// Reader shards polling connection sockets. `0` = 2.
    pub reader_shards: usize,
    /// Per-worker run-queue depth; a frame arriving at a full queue is shed
    /// (`net.server.shed.queue_full`).
    pub queue_depth: usize,
    /// A request that waited in the run queue longer than this is shed
    /// without execution (`net.server.shed.deadline`) — by the time a
    /// worker reaches it the client has usually given up anyway.
    pub queue_deadline: Duration,
    /// A peer that starts a frame and leaves it unfinished this long is
    /// disconnected (`net.server.read_deadline_kills`): the slow-loris
    /// guard.
    pub read_deadline: Duration,
    /// Per-connection in-flight request cap; excess pipelined frames are
    /// shed (`net.server.shed.inflight`) so one greedy multiplexer cannot
    /// monopolize the worker pool.
    pub max_inflight_per_conn: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_connections: 1024,
            workers: 0,
            reader_shards: 0,
            queue_depth: 256,
            queue_deadline: Duration::from_millis(1000),
            read_deadline: Duration::from_millis(2000),
            max_inflight_per_conn: 64,
        }
    }
}

impl AdmissionConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        // Start-up only: one call per server, not per request.
        #[allow(clippy::disallowed_methods)]
        let cores = std::thread::available_parallelism();
        cores.map(|n| n.get()).unwrap_or(4).clamp(2, 16)
    }

    fn effective_shards(&self) -> usize {
        if self.reader_shards > 0 {
            return self.reader_shards;
        }
        2
    }
}

/// Server-side deadlines and limits.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Hard deadline for draining a response to a non-reading client
    /// before the connection is severed.
    pub write_timeout: Duration,
    /// Requests handled slower than this emit a structured `slow_request`
    /// event carrying the trace ID and peer address — the net-tier analogue
    /// of metadb's `slow_query_ms`.
    pub slow_request: Duration,
    /// Admission-control limits (connection cap, worker pool, run queues,
    /// shed deadlines).
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            write_timeout: Duration::from_secs(2),
            slow_request: Duration::from_millis(100),
            admission: AdmissionConfig::default(),
        }
    }
}

/// The serving node's place in a sharded cluster: which shard it answers
/// for, and the live [`ShardMapHandle`] its epoch checks read. Shared with
/// the cluster's rebalance workflow — a cutover `install` is immediately
/// visible to every server holding the handle, so stale-epoch redirects
/// start on the very next request.
#[derive(Clone)]
pub struct ShardIdentity {
    /// The shard this server's backing node stores.
    pub shard: u32,
    /// The cluster map the epoch handshake validates against.
    pub map: Arc<ShardMapHandle>,
}

/// The socket and liveness shared between the owning reader shard (which
/// reads) and whoever answers a request on the connection (which writes).
struct ConnShared {
    /// Nonblocking. Only the owning shard reads; writes go through `out`.
    stream: TcpStream,
    /// The connection's write lock, and what the socket has not taken yet.
    out: Mutex<Outbox>,
    /// Set by a worker whose response could not be written; the shard
    /// severs the connection when it next wakes.
    dead: AtomicBool,
    /// Requests dispatched but not yet answered, for the per-connection
    /// in-flight cap.
    inflight: AtomicI64,
}

/// Response bytes the socket would not take: whole frames in order, the
/// front one possibly part-written.
#[derive(Default)]
struct Outbox {
    backlog: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already on the wire.
    cursor: usize,
    /// When the backlog last became non-empty: the `write_timeout` clock.
    since: Option<Instant>,
}

/// Where a connection's outgoing bytes stand after a write attempt.
enum Drain {
    /// Everything is on the wire.
    Empty,
    /// The socket is full; the rest waits in the backlog since this
    /// instant.
    Blocked(Instant),
    /// The socket is gone.
    Dead,
}

impl ConnShared {
    /// Queue one encoded frame behind whatever is still unwritten and write
    /// as much as the socket takes. Frames stay whole and in order because
    /// every write happens under the one lock, front of the backlog first.
    fn send(&self, frame: Vec<u8>, bytes_out: &hedc_obs::Counter) -> Drain {
        let mut out = self.out.lock().unwrap();
        out.backlog.push_back(frame);
        out.drain(&self.stream, bytes_out)
    }

    /// Write as much of the backlog as the socket takes.
    fn flush(&self, bytes_out: &hedc_obs::Counter) -> Drain {
        self.out.lock().unwrap().drain(&self.stream, bytes_out)
    }
}

impl Outbox {
    fn drain(&mut self, mut stream: &TcpStream, bytes_out: &hedc_obs::Counter) -> Drain {
        while let Some(front) = self.backlog.front() {
            match stream.write(&front[self.cursor..]) {
                Ok(0) => return Drain::Dead,
                Ok(n) => {
                    bytes_out.add(n as u64);
                    self.cursor += n;
                    if self.cursor == front.len() {
                        self.backlog.pop_front();
                        self.cursor = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Drain::Blocked(*self.since.get_or_insert_with(Instant::now));
                }
                Err(_) => return Drain::Dead,
            }
        }
        self.since = None;
        Drain::Empty
    }
}

/// One unit of admitted work: a decoded-enough request frame plus the
/// plumbing to answer it.
struct WorkItem {
    frame: Frame,
    enqueued: Instant,
    conn: Arc<ConnShared>,
    shard: Arc<Shard>,
    peer: Arc<str>,
}

/// A bounded per-worker run queue.
struct WorkQueue {
    items: Mutex<VecDeque<WorkItem>>,
    cv: Condvar,
    depth: usize,
}

impl WorkQueue {
    fn new(depth: usize) -> WorkQueue {
        WorkQueue {
            items: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            depth,
        }
    }

    /// Enqueue unless full; hands the item back on overflow so the caller
    /// can try a sibling queue or shed.
    fn try_push(&self, item: WorkItem) -> Result<(), WorkItem> {
        let mut items = self.items.lock().unwrap();
        if items.len() >= self.depth {
            return Err(item);
        }
        items.push_back(item);
        drop(items);
        self.cv.notify_one();
        Ok(())
    }
}

/// Reader-shard wakeup state: pending connection registrations plus a flag
/// that coalesces wake bytes — set by whoever wakes the shard, cleared by
/// the shard after it drained the channel.
struct ShardState {
    incoming: Vec<(TcpStream, Arc<str>)>,
    wake: bool,
}

struct Shard {
    state: Mutex<ShardState>,
    /// Write end of the wake channel the shard polls beside its sockets.
    wake_tx: UnixStream,
}

impl Shard {
    /// The shard handle and the read end of its wake channel.
    fn new() -> io::Result<(Shard, UnixStream)> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        let shard = Shard {
            state: Mutex::new(ShardState {
                incoming: Vec::new(),
                wake: false,
            }),
            wake_tx,
        };
        Ok((shard, wake_rx))
    }

    /// Pop the shard out of `poll`: a spilled response, a dead connection,
    /// or shutdown needs its attention.
    fn wake(&self) {
        self.signal(&mut self.state.lock().unwrap());
    }

    fn register(&self, stream: TcpStream, peer: Arc<str>) {
        let mut st = self.state.lock().unwrap();
        st.incoming.push((stream, peer));
        self.signal(&mut st);
    }

    /// One byte per shard wake-up, however many callers asked for it.
    fn signal(&self, st: &mut ShardState) {
        if !st.wake {
            st.wake = true;
            // At most one byte is ever outstanding, so this cannot block;
            // it can only fail once the shard thread (the reader) is gone.
            let _ = (&self.wake_tx).write(&[1]);
        }
    }
}

/// A running DM network server. Dropping it (or calling
/// [`DmServer::shutdown`]) stops the acceptor, severs open connections, and
/// joins every thread.
pub struct DmServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    listener: Option<TcpListener>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<Arc<Shard>>,
    shard_handles: Vec<JoinHandle<()>>,
    queues: Arc<Vec<Arc<WorkQueue>>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl DmServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral loopback port) and
    /// start serving `node`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        node: Arc<dyn DmNode>,
        config: ServerConfig,
    ) -> io::Result<DmServer> {
        Self::bind_with_identity(addr, node, config, None)
    }

    /// [`DmServer::bind`] with a shard identity: the server additionally
    /// answers the sharded-cluster protocol — [`Request::Sharded`]
    /// envelopes are epoch- and ownership-checked (wrong ⇒
    /// [`Response::Redirect`], never a miss), [`Request::FetchShardMap`]
    /// serves the current map, and pongs carry the epoch.
    pub fn bind_sharded(
        addr: impl ToSocketAddrs,
        node: Arc<dyn DmNode>,
        config: ServerConfig,
        identity: ShardIdentity,
    ) -> io::Result<DmServer> {
        Self::bind_with_identity(addr, node, config, Some(Arc::new(identity)))
    }

    fn bind_with_identity(
        addr: impl ToSocketAddrs,
        node: Arc<dyn DmNode>,
        config: ServerConfig,
        identity: Option<Arc<ShardIdentity>>,
    ) -> io::Result<DmServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_count = Arc::new(AtomicI64::new(0));

        let n_workers = config.admission.effective_workers();
        let n_shards = config.admission.effective_shards();
        let queues: Arc<Vec<Arc<WorkQueue>>> = Arc::new(
            (0..n_workers)
                .map(|_| Arc::new(WorkQueue::new(config.admission.queue_depth)))
                .collect(),
        );
        let mut shards: Vec<Arc<Shard>> = Vec::with_capacity(n_shards);
        let mut wake_rxs: Vec<UnixStream> = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let (shard, wake_rx) = Shard::new()?;
            shards.push(Arc::new(shard));
            wake_rxs.push(wake_rx);
        }

        let worker_handles: Vec<JoinHandle<()>> = queues
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let q = Arc::clone(q);
                let node = Arc::clone(&node);
                let stop = Arc::clone(&stop);
                let identity = identity.clone();
                std::thread::Builder::new()
                    .name(format!("dm-net-worker-{}-{i}", addr.port()))
                    .spawn(move || worker_loop(q, node, stop, config, identity))
                    .expect("spawn worker")
            })
            .collect();

        let shard_handles: Vec<JoinHandle<()>> = shards
            .iter()
            .zip(wake_rxs)
            .enumerate()
            .map(|(i, (shard, wake_rx))| {
                let shard = Arc::clone(shard);
                let queues = Arc::clone(&queues);
                let stop = Arc::clone(&stop);
                let conn_count = Arc::clone(&conn_count);
                std::thread::Builder::new()
                    .name(format!("dm-net-shard-{}-{i}", addr.port()))
                    .spawn(move || shard_loop(shard, wake_rx, queues, stop, conn_count, config))
                    .expect("spawn reader shard")
            })
            .collect();

        let acceptor = {
            let listener = listener.try_clone()?;
            let stop = Arc::clone(&stop);
            let shards = shards.clone();
            let conn_count = Arc::clone(&conn_count);
            let max_conns = config.admission.max_connections;
            std::thread::Builder::new()
                .name(format!("dm-net-accept-{}", addr.port()))
                .spawn(move || {
                    accept_loop(listener, stop, shards, conn_count, max_conns);
                })
                .expect("spawn acceptor")
        };

        Ok(DmServer {
            addr,
            stop,
            listener: Some(listener),
            acceptor: Some(acceptor),
            shards,
            shard_handles,
            queues,
            worker_handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, sever open connections, and join every thread.
    /// Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Pop the acceptor out of its blocking accept: flip the shared fd
        // to nonblocking (the acceptor holds a clone of the same socket)
        // and nudge it with a throwaway connect in case it was already
        // parked inside the syscall.
        if let Some(listener) = self.listener.take() {
            let _ = listener.set_nonblocking(true);
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(100));
        }
        for shard in &self.shards {
            shard.wake();
        }
        for q in self.queues.iter() {
            // Under the queue lock, so a worker that saw `stop` unset is
            // already parked on the condvar when the notification fires.
            let _items = q.items.lock().unwrap();
            q.cv.notify_all();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for h in self.shard_handles.drain(..) {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for DmServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocking accept loop with a hard connection cap. No sleep-poll: an idle
/// server sits in `accept()` and admits a fresh connection the instant the
/// kernel hands it over.
fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    shards: Vec<Arc<Shard>>,
    conn_count: Arc<AtomicI64>,
    max_connections: usize,
) {
    let obs = hedc_obs::global();
    let rejected = obs.counter("net.server.accept_rejected");
    let mut next_shard = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if stop.load(Ordering::SeqCst) {
                    break; // the shutdown nudge connect lands here
                }
                if conn_count.load(Ordering::SeqCst) >= max_connections as i64 {
                    rejected.inc();
                    hedc_obs::emit(
                        hedc_obs::events::kind::OVERLOAD_SHED,
                        format!("reason=accept peer={peer} cap={max_connections}"),
                    );
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                conn_count.fetch_add(1, Ordering::SeqCst);
                let peer: Arc<str> = Arc::from(peer.to_string());
                shards[next_shard % shards.len()].register(stream, peer);
                next_shard = next_shard.wrapping_add(1);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Only reachable once shutdown flipped the fd nonblocking.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
    // Listener clone drops here; shutdown() dropped the other handle, so
    // further connects are refused.
}

/// One connection owned by a reader shard.
struct Conn {
    shared: Arc<ConnShared>,
    peer: Arc<str>,
    buf: FrameBuffer,
    /// `Some` while response bytes wait for the socket to drain: the shard
    /// polls for `POLLOUT` and the `write_timeout` clock runs from here.
    write_since: Option<Instant>,
    /// `Some` while a frame is part-received: the `read_deadline` clock.
    partial_since: Option<Instant>,
}

impl Conn {
    /// The earliest instant at which this connection must be looked at
    /// again even if its socket stays quiet.
    fn deadline(&self, config: &ServerConfig) -> Option<Instant> {
        let read = self
            .partial_since
            .map(|t| t + config.admission.read_deadline);
        let write = self.write_since.map(|t| t + config.write_timeout);
        match (read, write) {
            (Some(r), Some(w)) => Some(r.min(w)),
            (r, w) => r.or(w),
        }
    }

    /// Record where the outgoing bytes stand; `false` when the socket is
    /// gone and the connection must be severed.
    fn note_drain(&mut self, drain: Drain) -> bool {
        match drain {
            Drain::Empty => self.write_since = None,
            Drain::Blocked(since) => self.write_since = Some(since),
            Drain::Dead => return false,
        }
        true
    }
}

/// Reader-shard event loop: block until a socket is ready, a deadline
/// falls due, or someone writes the wake channel; then admit registrations,
/// finish spilled writes, read and parse request bytes, and dispatch
/// admitted frames to the run queues.
fn shard_loop(
    shard: Arc<Shard>,
    mut wake_rx: UnixStream,
    queues: Arc<Vec<Arc<WorkQueue>>>,
    stop: Arc<AtomicBool>,
    conn_count: Arc<AtomicI64>,
    config: ServerConfig,
) {
    let obs = hedc_obs::global();
    let connections = obs.gauge("net.server.connections");
    let wakeups = obs.counter("net.server.shard_wakeups");
    let counters = ShardCounters {
        requests: obs.counter("net.server.requests"),
        bytes_in: obs.counter("net.server.bytes_in"),
        bytes_out: obs.counter("net.server.bytes_out"),
        overloaded: obs.counter("net.server.overloaded"),
        shed_queue_full: obs.counter("net.server.shed.queue_full"),
        shed_inflight: obs.counter("net.server.shed.inflight"),
        read_kills: obs.counter("net.server.read_deadline_kills"),
        inflight: obs.gauge("net.server.inflight"),
        queue_depth: obs.gauge("net.server.queue_depth"),
        conn_max_inflight: obs.gauge("net.server.conn_max_inflight"),
    };

    // `pollfds[0]` is the wake channel; `pollfds[i + 1]` watches `conns[i]`.
    // Both are edited in place as connections come, go, and gain or lose
    // write interest, so a wake-up costs the kernel's scan and nothing else.
    let mut conns: Vec<Conn> = Vec::new();
    let mut pollfds: Vec<PollFd> = vec![PollFd::new(wake_rx.as_raw_fd(), POLLIN)];
    let mut scratch = vec![0u8; 64 * 1024];
    let mut rr = 0usize;
    let mut next_deadline: Option<Instant> = None;

    loop {
        let timeout = next_deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if poll::wait(&mut pollfds, timeout).is_err() {
            break; // the descriptor table itself is unusable
        }
        wakeups.inc();
        if stop.load(Ordering::SeqCst) {
            break;
        }

        // A wake byte: new connections, and possibly a worker that spilled
        // a response or marked a connection dead.
        let woken = pollfds[0].revents() != 0;
        if woken {
            // Drain before clearing the flag: whoever sets it next writes
            // a fresh byte, so no wake-up is lost between the two.
            let _ = wake_rx.read(&mut [0u8; 8]);
            let incoming = {
                let mut st = shard.state.lock().unwrap();
                st.wake = false;
                std::mem::take(&mut st.incoming)
            };
            for (stream, peer) in incoming {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    conn_count.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                connections.add(1);
                pollfds.push(PollFd::new(stream.as_raw_fd(), POLLIN));
                conns.push(Conn {
                    shared: Arc::new(ConnShared {
                        stream,
                        out: Mutex::new(Outbox::default()),
                        dead: AtomicBool::new(false),
                        inflight: AtomicI64::new(0),
                    }),
                    peer,
                    buf: FrameBuffer::new(),
                    write_since: None,
                    partial_since: None,
                });
            }
        }

        next_deadline = None;
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            let ready = pollfds[i + 1].revents();
            let alive = service_conn(
                conn,
                ready,
                woken,
                &shard,
                &queues,
                &mut rr,
                &mut scratch,
                &config,
                &counters,
            );
            if alive {
                let events = if conn.write_since.is_some() {
                    POLLIN | POLLOUT
                } else {
                    POLLIN
                };
                pollfds[i + 1].set_events(events);
                if let Some(d) = conn.deadline(&config) {
                    next_deadline = Some(next_deadline.map_or(d, |n| n.min(d)));
                }
                i += 1;
            } else {
                let conn = conns.swap_remove(i);
                pollfds.swap_remove(i + 1);
                sever(&conn, &connections, &conn_count);
            }
        }
    }

    // Shutdown: sever everything this shard owns.
    for conn in &conns {
        sever(conn, &connections, &conn_count);
    }
}

/// Close a connection the shard is letting go of. Workers still holding
/// the shared half see `dead` (or a failed write) and drop their answers.
fn sever(conn: &Conn, connections: &hedc_obs::Gauge, conn_count: &AtomicI64) {
    let _ = conn.shared.stream.shutdown(Shutdown::Both);
    conn.shared.dead.store(true, Ordering::SeqCst);
    connections.add(-1);
    conn_count.fetch_sub(1, Ordering::SeqCst);
}

/// Obs handles a reader shard resolves once and uses on every wake-up.
struct ShardCounters {
    requests: Arc<hedc_obs::Counter>,
    bytes_in: Arc<hedc_obs::Counter>,
    bytes_out: Arc<hedc_obs::Counter>,
    overloaded: Arc<hedc_obs::Counter>,
    shed_queue_full: Arc<hedc_obs::Counter>,
    shed_inflight: Arc<hedc_obs::Counter>,
    read_kills: Arc<hedc_obs::Counter>,
    inflight: Arc<hedc_obs::Gauge>,
    queue_depth: Arc<hedc_obs::Gauge>,
    conn_max_inflight: Arc<hedc_obs::Gauge>,
}

/// Look after one connection on a shard wake-up: finish spilled writes,
/// read what `poll` reported (`ready`), parse, dispatch, and check both
/// deadlines. Returns `false` when the connection must be severed.
#[allow(clippy::too_many_arguments)]
fn service_conn(
    conn: &mut Conn,
    ready: std::ffi::c_short,
    woken: bool,
    shard: &Arc<Shard>,
    queues: &Arc<Vec<Arc<WorkQueue>>>,
    rr: &mut usize,
    scratch: &mut [u8],
    config: &ServerConfig,
    c: &ShardCounters,
) -> bool {
    if conn.shared.dead.load(Ordering::SeqCst) {
        return false;
    }
    let now = Instant::now();

    // Writes: the socket drained, or a worker may just have spilled (it
    // wakes the shard without saying which connection).
    if (woken || ready & POLLOUT != 0) && !conn.note_drain(conn.shared.flush(&c.bytes_out)) {
        return false;
    }
    if conn
        .write_since
        .is_some_and(|since| now.duration_since(since) > config.write_timeout)
    {
        return false; // client stopped reading; cut it loose
    }

    // Anything but plain writability — data, hang-up, error — is read out;
    // the read reports which. Capped per wake-up so one firehose connection
    // cannot starve its shard siblings: `poll` is level-triggered, so what
    // is left brings the shard straight back.
    if ready & !POLLOUT != 0 {
        for _ in 0..4 {
            match (&conn.shared.stream).read(scratch) {
                Ok(0) => return false, // orderly EOF
                Ok(n) => {
                    conn.buf.extend(&scratch[..n]);
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => return false,
            }
        }

        // Parse and dispatch every complete frame.
        loop {
            let frame = match conn.buf.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => return false, // corrupt stream
            };
            if frame.kind != FrameKind::Request {
                return false; // protocol violation
            }
            c.requests.inc();
            c.bytes_in.add(frame.wire_len() as u64);
            // A shed frame is not fatal by itself: the rejection is on its
            // way and the connection stays up — unless writing it showed
            // the socket is gone.
            if !dispatch(frame, conn, shard, queues, rr, config, c) {
                return false;
            }
        }
    }

    // Slow-loris guard: a frame left unfinished past the read deadline
    // kills the connection (a worker never saw it, so none was pinned).
    if conn.buf.has_partial() {
        let since = *conn.partial_since.get_or_insert(now);
        if now.duration_since(since) > config.admission.read_deadline {
            c.read_kills.inc();
            hedc_obs::emit(
                hedc_obs::events::kind::OVERLOAD_SHED,
                format!(
                    "reason=read_deadline peer={} stalled_ms={}",
                    conn.peer,
                    now.duration_since(since).as_millis()
                ),
            );
            return false;
        }
    } else {
        conn.partial_since = None;
    }
    true
}

/// Admission decision for one parsed request frame: enqueue it, or shed it
/// with a typed `Overloaded` response (the connection stays up either way).
/// Returns `false` only when writing the rejection showed the connection
/// must be severed.
fn dispatch(
    frame: Frame,
    conn: &mut Conn,
    shard: &Arc<Shard>,
    queues: &Arc<Vec<Arc<WorkQueue>>>,
    rr: &mut usize,
    config: &ServerConfig,
    c: &ShardCounters,
) -> bool {
    // Per-connection in-flight cap.
    let cur = conn.shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    if cur > config.admission.max_inflight_per_conn as i64 {
        conn.shared.inflight.fetch_sub(1, Ordering::SeqCst);
        c.shed_inflight.inc();
        c.overloaded.inc();
        return shed(conn, &frame, "inflight_cap", c);
    }
    if cur > c.conn_max_inflight.get() {
        c.conn_max_inflight.set(cur);
    }

    // Round-robin over the run queues, spilling to siblings before
    // shedding: only a pool-wide backlog rejects.
    let mut item = WorkItem {
        frame,
        enqueued: Instant::now(),
        conn: Arc::clone(&conn.shared),
        shard: Arc::clone(shard),
        peer: Arc::clone(&conn.peer),
    };
    let start = *rr;
    *rr = rr.wrapping_add(1);
    for i in 0..queues.len() {
        let q = &queues[(start + i) % queues.len()];
        match q.try_push(item) {
            Ok(()) => {
                c.inflight.add(1);
                c.queue_depth.add(1);
                return true;
            }
            Err(back) => item = back,
        }
    }
    conn.shared.inflight.fetch_sub(1, Ordering::SeqCst);
    c.shed_queue_full.inc();
    c.overloaded.inc();
    shed(conn, &item.frame, "queue_full", c)
}

/// Shard-side shed: answer `frame` with a typed `Overloaded` rejection
/// without it ever reaching a worker. Returns `false` when the connection
/// must be severed.
fn shed(conn: &mut Conn, frame: &Frame, reason: &str, c: &ShardCounters) -> bool {
    let bytes = shed_response(frame, reason, &conn.peer);
    conn.note_drain(conn.shared.send(bytes, &c.bytes_out))
}

/// Build the encoded `Overloaded` response frame for a shed request and
/// emit the structured shed event into the caller's trace.
fn shed_response(frame: &Frame, reason: &str, peer: &str) -> Vec<u8> {
    // Join the caller's trace so the shed is attributable on /hedc/traces.
    let caller = (frame.trace_id != 0).then_some(hedc_obs::SpanContext {
        trace_id: frame.trace_id,
        span_id: frame.span_id,
    });
    let _g = hedc_obs::adopt(caller);
    hedc_obs::emit(
        hedc_obs::events::kind::OVERLOAD_SHED,
        format!("reason={reason} peer={peer} req_id={}", frame.req_id),
    );
    let shed = Response::Error(WireError {
        kind: WireErrorKind::Overloaded,
        message: format!("shed: {reason}"),
    });
    response_frame(&shed, frame, 0)
}

/// `response` as the frame answering `request`. A response too large for
/// one frame goes back as a `Rejected` error on the same request id: the
/// node is up and the connection in sync, so neither may be given up —
/// a severed connection would read as a dead node and send the same
/// request on to kill the replica the same way.
fn response_frame(response: &Response, request: &Frame, span_id: u64) -> Vec<u8> {
    let framed = |response: &Response| {
        encode_framed(
            response,
            FrameKind::Response,
            request.trace_id,
            span_id,
            request.req_id,
        )
    };
    framed(response).unwrap_or_else(|over_cap| {
        framed(&Response::Error(WireError {
            kind: WireErrorKind::Rejected,
            message: format!("response {over_cap}"),
        }))
        .expect("an error message fits a frame")
    })
}

/// Worker loop: pop admitted requests, enforce the queue deadline, execute
/// against the node, and write the encoded response to the connection.
fn worker_loop(
    queue: Arc<WorkQueue>,
    node: Arc<dyn DmNode>,
    stop: Arc<AtomicBool>,
    config: ServerConfig,
    identity: Option<Arc<ShardIdentity>>,
) {
    let obs = hedc_obs::global();
    let rpc_hist = obs.histogram("net.rpc.server");
    let inflight = obs.gauge("net.server.inflight");
    let queue_depth = obs.gauge("net.server.queue_depth");
    let overloaded = obs.counter("net.server.overloaded");
    let shed_deadline = obs.counter("net.server.shed.deadline");
    let bytes_out = obs.counter("net.server.bytes_out");

    loop {
        let item = {
            let mut items = queue.items.lock().unwrap();
            loop {
                if let Some(it) = items.pop_front() {
                    break Some(it);
                }
                if stop.load(Ordering::SeqCst) {
                    break None;
                }
                items = queue.cv.wait(items).unwrap();
            }
        };
        let Some(item) = item else { break };
        queue_depth.add(-1);

        let frame = &item.frame;
        let waited = item.enqueued.elapsed();
        if waited > config.admission.queue_deadline {
            // Deadline-aware shed: the client's own deadline has likely
            // passed; answering now only wastes an execution slot.
            shed_deadline.inc();
            overloaded.inc();
            item.answer(
                shed_response(frame, "queue_deadline", &item.peer),
                &bytes_out,
            );
            item.finish(&inflight);
            continue;
        }

        // Join the caller's trace; the backdated queue-wait span makes
        // time-spent-queued attributable in the critical-path analyzer.
        let caller = (frame.trace_id != 0).then_some(hedc_obs::SpanContext {
            trace_id: frame.trace_id,
            span_id: frame.span_id,
        });
        let trace = hedc_obs::adopt(caller);
        hedc_obs::record_interval("net.server.queue_wait", item.enqueued);
        let span = hedc_obs::Span::child("net.rpc.server");
        let start = Instant::now();

        let request: Result<Request, _> = decode(&frame.payload);
        let label = request.as_ref().map(request_label).unwrap_or("malformed");
        let response = match request {
            Ok(req) => respond(node.as_ref(), identity.as_deref(), req, true),
            Err(e) => Response::Error(WireError {
                kind: WireErrorKind::Failed,
                message: format!("malformed request: {e}"),
            }),
        };

        let reply = response_frame(&response, frame, span.context().span_id);

        let elapsed = start.elapsed();
        rpc_hist.record_us(elapsed.as_micros() as u64);
        if elapsed >= config.slow_request {
            // The ambient context is still the caller's trace, so the event
            // joins the request's span tree (net-tier analogue of metadb's
            // slow_query_ms).
            hedc_obs::emit(
                hedc_obs::events::kind::SLOW_REQUEST,
                format!(
                    "request={label} peer={} elapsed_us={}",
                    item.peer,
                    elapsed.as_micros()
                ),
            );
        }
        drop(span);
        // Leaving the trace publishes this request's spans, so the caller
        // finds them in the span store by the time it has the response.
        drop(trace);

        item.answer(reply, &bytes_out);
        item.finish(&inflight);
    }
}

impl WorkItem {
    /// Write the response to the connection from this thread. The socket is
    /// nonblocking, so a slow peer costs the worker nothing: what does not
    /// fit stays in the connection's backlog and the owning shard is woken
    /// to finish the write when the socket drains. A failed write marks the
    /// connection dead for the shard to sever.
    fn answer(&self, reply: Vec<u8>, bytes_out: &hedc_obs::Counter) {
        match self.conn.send(reply, bytes_out) {
            Drain::Empty => {}
            Drain::Blocked(_) => self.shard.wake(),
            Drain::Dead => {
                if !self.conn.dead.swap(true, Ordering::SeqCst) {
                    self.shard.wake();
                }
            }
        }
    }

    /// Book-keeping after the item is answered (or shed by the worker): the
    /// connection's in-flight slot frees.
    fn finish(&self, inflight: &hedc_obs::Gauge) {
        self.conn.inflight.fetch_sub(1, Ordering::SeqCst);
        inflight.add(-1);
    }
}

/// Stable label for a request shape, for slow-request events.
fn request_label(request: &Request) -> &'static str {
    match request {
        Request::Ping => "ping",
        Request::Query(_) => "query",
        Request::Resolve { .. } => "resolve",
        Request::Batch(_) => "batch",
        Request::Sharded { .. } => "sharded",
        Request::FetchShardMap => "fetch_shard_map",
    }
}

/// Dispatch one request. `top_level` distinguishes the outer frame from
/// batch entries: a `Batch` nested inside a `Batch` is rejected per entry
/// instead of recursing (the protocol forbids nesting, and a flat cap keeps
/// a hostile frame from driving unbounded recursion).
fn respond(
    node: &dyn DmNode,
    identity: Option<&ShardIdentity>,
    request: Request,
    top_level: bool,
) -> Response {
    match request {
        Request::Ping => Response::Pong {
            node_id: node.node_id(),
            epoch: identity.map_or(0, |i| i.map.epoch()),
        },
        Request::Sharded {
            shard,
            epoch,
            inner,
        } if top_level => {
            if matches!(*inner, Request::Sharded { .. }) {
                return Response::Error(WireError {
                    kind: WireErrorKind::Failed,
                    message: "nested sharded envelope rejected".into(),
                });
            }
            let Some(id) = identity else {
                // An unsharded node ignores the envelope — single-node
                // deployments accept cluster-aware clients unchanged.
                return respond(node, identity, *inner, true);
            };
            let current = id.map.epoch();
            if epoch != current || shard != id.shard {
                let reason = if epoch != current {
                    hedc_obs::global()
                        .counter("dm.shard.redirect.stale_epoch")
                        .inc();
                    "stale epoch"
                } else {
                    hedc_obs::global()
                        .counter("dm.shard.redirect.wrong_shard")
                        .inc();
                    "wrong shard"
                };
                hedc_obs::emit(
                    hedc_obs::events::kind::DM_REDIRECT,
                    format!(
                        "{reason}: client routed shard {shard}@e{epoch}, \
                         serving shard {}@e{current}",
                        id.shard
                    ),
                );
                return Response::Redirect {
                    shard: id.shard,
                    epoch: current,
                };
            }
            respond(node, identity, *inner, true)
        }
        Request::Sharded { .. } => Response::Error(WireError {
            kind: WireErrorKind::Failed,
            message: "sharded envelope must be the outer frame".into(),
        }),
        Request::FetchShardMap => match identity {
            Some(id) => Response::ShardMap((*id.map.current()).clone()),
            None => Response::Error(WireError {
                kind: WireErrorKind::Failed,
                message: "node has no shard map".into(),
            }),
        },
        Request::Query(q) => match node.execute_query(&q) {
            Ok(r) => Response::Result(r),
            Err(e) => Response::Error(WireError::from_dm(&e)),
        },
        Request::Resolve { item_id, name_type } => match node.resolve_names(item_id, name_type) {
            Ok(names) => Response::Names(names),
            Err(e) => Response::Error(WireError::from_dm(&e)),
        },
        Request::Batch(entries) if top_level => {
            // A homogeneous resolve batch runs through the node's batched
            // name mapping — two IN-list queries for the whole batch
            // instead of two point queries per entry. Mixed batches fall
            // back to per-entry dispatch; either way the answers line up
            // positionally and errors stay isolated per entry.
            if let Some((ids, want)) = homogeneous_resolve(&entries) {
                let _span = hedc_obs::Span::child("net.rpc.server.resolve_batch");
                Response::Batch(
                    node.resolve_batch(&ids, want)
                        .into_iter()
                        .map(|r| match r {
                            Ok(names) => Response::Names(names),
                            Err(e) => Response::Error(WireError::from_dm(&e)),
                        })
                        .collect(),
                )
            } else {
                Response::Batch(
                    entries
                        .into_iter()
                        .map(|e| {
                            // One span per entry (error outcomes included),
                            // so batch members attribute individually in the
                            // caller's trace.
                            let _span = hedc_obs::Span::child("net.rpc.server.entry");
                            respond(node, identity, e, false)
                        })
                        .collect(),
                )
            }
        }
        Request::Batch(_) => Response::Error(WireError {
            kind: WireErrorKind::Failed,
            message: "nested batch rejected".into(),
        }),
    }
}

/// If every entry is a [`Request::Resolve`] asking for the same name type,
/// return the item ids (in entry order) and that type.
fn homogeneous_resolve(entries: &[Request]) -> Option<(Vec<i64>, NameType)> {
    let mut want: Option<NameType> = None;
    let mut ids = Vec::with_capacity(entries.len());
    for entry in entries {
        match entry {
            Request::Resolve { item_id, name_type }
                if want.is_none() || want == Some(*name_type) =>
            {
                want = Some(*name_type);
                ids.push(*item_id);
            }
            _ => return None,
        }
    }
    want.map(|w| (ids, w))
}
