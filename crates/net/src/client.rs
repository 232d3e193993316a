//! `NetDm`: a [`DmNode`] whose execution happens on a remote server.
//!
//! This is the client half of §5.4 call redirection made real: a
//! [`hedc_dm::DmRouter`] holds a mix of local nodes and `NetDm` handles and
//! the calling code cannot tell which is which. The client keeps a small
//! pool of warm **multiplexed** connections ([`MuxClient`]): many threads
//! share each socket, every request carries its own frame id, and replies
//! complete out of order without head-of-line blocking. Transient
//! transport failures retry with exponential backoff plus jitter; a typed
//! `Overloaded` shed from the server's admission control also retries with
//! backoff (the node is *up* — health is not flipped) before surfacing as
//! [`DmError::Overloaded`] for the router to fail over. A health verdict
//! (refreshed by a wire-level ping) feeds the router's failover decision.
//!
//! [`MuxClient`]: crate::MuxClient

use crate::mux::MuxClient;
use crate::proto::{BatchRef, QueryRef, Request, Response, WireErrorKind, MAX_BATCH_ENTRIES};
use crate::wire::Put;
use hedc_cache::{CacheConfig, GenerationMap, QueryCache};
use hedc_dm::{DmError, DmNode, DmResult, NameType, ResolvedName};
use hedc_metadb::{Query, QueryResult};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cache scope tag for client-side entries (queries on the wire are
/// already ownership-scoped, so the tag only has to be distinct from the
/// semantic layer's per-user tags).
const CLIENT_SCOPE: &str = "net";

/// Client-side timeouts and retry policy.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-request round-trip deadline (write + read).
    pub request_timeout: Duration,
    /// Transport-failure retries after the first attempt (total attempts =
    /// `retries + 1`). Wire-level errors are never retried — the node
    /// answered — with one exception: a typed `Overloaded` shed retries
    /// with the same backoff, since the server asked for exactly that.
    pub retries: u32,
    /// First backoff step; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// How long a health verdict (from a ping or a completed request) stays
    /// fresh before [`NetDm::is_available`] probes again.
    pub health_ttl: Duration,
    /// Maximum idle connections kept warm.
    pub pool_size: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_timeout: Duration::from_millis(500),
            request_timeout: Duration::from_secs(2),
            retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            health_ttl: Duration::from_millis(250),
            pool_size: 8,
        }
    }
}

/// The warm connections, plus how many more are being dialed right now so
/// that concurrent callers do not all dial at once.
#[derive(Default)]
struct Pool {
    conns: Vec<Arc<MuxClient>>,
    dialing: usize,
}

#[derive(Debug)]
struct Health {
    available: bool,
    checked: Option<Instant>,
}

/// Obs handles resolved once per client: the registry lookup is a
/// process-wide lock and a map probe, which has no place on the per-request
/// path.
struct ClientMetrics {
    rpc: Arc<hedc_obs::Histogram>,
    bytes_out: Arc<hedc_obs::Counter>,
    bytes_in: Arc<hedc_obs::Counter>,
    retries: Arc<hedc_obs::Counter>,
    overload_retries: Arc<hedc_obs::Counter>,
    unavailable: Arc<hedc_obs::Counter>,
}

/// A remote DM node reached over the `hedc-net` wire protocol.
pub struct NetDm {
    addr: SocketAddr,
    label: String,
    config: NetConfig,
    pool: Mutex<Pool>,
    health: Mutex<Health>,
    cache: Option<QueryCache>,
    metrics: ClientMetrics,
}

impl NetDm {
    /// Create a client for the server at `addr`. No connection is made
    /// until the first request or probe.
    pub fn connect(addr: SocketAddr, label: impl Into<String>, config: NetConfig) -> NetDm {
        let obs = hedc_obs::global();
        NetDm {
            addr,
            label: label.into(),
            config,
            pool: Mutex::new(Pool::default()),
            health: Mutex::new(Health {
                available: true,
                checked: None,
            }),
            cache: None,
            metrics: ClientMetrics {
                rpc: obs.histogram("net.rpc.client"),
                bytes_out: obs.counter("net.client.bytes_out"),
                bytes_in: obs.counter("net.client.bytes_in"),
                retries: obs.counter("net.client.retries"),
                overload_retries: obs.counter("net.client.overload_retries"),
                unavailable: obs.counter("net.client.unavailable"),
            },
        }
    }

    /// Add a client-side result cache. Generation counters never bump on
    /// this side of the wire (the server's writes are invisible here), so
    /// freshness is purely [`CacheConfig::ttl`] — set one. A warm client
    /// keeps answering browse queries from stale entries when the server
    /// becomes unreachable (degraded read-only mode).
    pub fn with_cache(mut self, cache_config: &CacheConfig) -> NetDm {
        let gens = Arc::new(GenerationMap::new());
        self.cache = Some(QueryCache::new(cache_config, gens));
        self
    }

    /// The client-side cache, when enabled.
    pub fn cache(&self) -> Option<&QueryCache> {
        self.cache.as_ref()
    }

    /// The peer address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Pick the live multiplexed connection with the fewest requests in
    /// flight (dead ones are pruned on the way). Connections are *shared*,
    /// not checked out exclusively: any number of in-flight requests ride
    /// each socket. Another one is dialed only while every pooled
    /// connection is busy and the pool has room, so a lone caller keeps one
    /// socket and `n` concurrent callers spread over up to `pool_size`.
    fn checkout(&self) -> io::Result<Arc<MuxClient>> {
        {
            let mut pool = self.pool.lock().unwrap();
            pool.conns.retain(|c| !c.is_dead());
            let full = pool.conns.len() + pool.dialing >= self.config.pool_size;
            match pool.conns.iter().min_by_key(|c| c.in_flight()) {
                Some(idlest) if full || idlest.in_flight() == 0 => return Ok(Arc::clone(idlest)),
                _ => pool.dialing += 1,
            }
        }
        // Dial outside the lock so a slow connect does not serialize peers.
        let dialed = MuxClient::connect(self.addr, self.config.connect_timeout);
        let mut pool = self.pool.lock().unwrap();
        pool.dialing -= 1;
        let conn = Arc::new(dialed?);
        if pool.conns.len() < self.config.pool_size {
            pool.conns.push(Arc::clone(&conn));
        }
        Ok(conn)
    }

    fn set_health(&self, available: bool) {
        let mut h = self.health.lock().unwrap();
        h.available = available;
        h.checked = Some(Instant::now());
    }

    /// One request/response exchange over a shared multiplexed connection.
    /// Any error here is a transport failure (the response, if one was
    /// decoded, is returned even when it carries a wire-level error). A
    /// timeout does **not** retire the connection — the straggling
    /// response, if it ever lands, is discarded by request id — but a hard
    /// transport error marks it dead and the pool prunes it.
    fn roundtrip(&self, request: &dyn Put) -> io::Result<(Response, usize, usize)> {
        let conn = self.checkout()?;
        let ctx = hedc_obs::current();
        let pending = conn.submit_message(
            request,
            ctx.map(|c| c.trace_id).unwrap_or(0),
            ctx.map(|c| c.span_id).unwrap_or(0),
        )?;
        let sent = pending.bytes_sent();
        let (response, received) = pending.wait(self.config.request_timeout)?;
        Ok((response, sent, received))
    }

    /// Issue `request`, retrying transport failures — and server-side
    /// `Overloaded` sheds — per the config. Returns the decoded response,
    /// the last `Overloaded` rejection when every attempt was shed, or
    /// `None` after exhausting retries against a dead transport.
    fn exchange(&self, request: &dyn Put) -> Option<Response> {
        let obs = &self.metrics;
        let mut last_shed: Option<Response> = None;
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                obs.retries.inc();
                std::thread::sleep(backoff(&self.config, attempt));
            }
            match self.roundtrip(request) {
                Ok((response, sent, received)) => {
                    obs.bytes_out.add(sent as u64);
                    obs.bytes_in.add(received as u64);
                    if matches!(&response, Response::Error(e) if e.kind == WireErrorKind::Overloaded)
                    {
                        // The server shed the request: back off and retry.
                        // The node is up, so this is not a health event.
                        obs.overload_retries.inc();
                        last_shed = Some(response);
                        continue;
                    }
                    return Some(response);
                }
                Err(e) => {
                    last_shed = None;
                    let timed_out = matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    );
                    let kind = if timed_out {
                        hedc_obs::events::kind::NET_TIMEOUT
                    } else {
                        hedc_obs::events::kind::NET_RECONNECT
                    };
                    hedc_obs::emit(
                        kind,
                        format!(
                            "{} attempt {}/{}: {e}",
                            self.label,
                            attempt + 1,
                            self.config.retries + 1
                        ),
                    );
                    // Dead connections prune on the next checkout; a
                    // timed-out one stays — its other in-flight requests
                    // are unaffected.
                }
            }
        }
        // Every attempt was shed: surface the Overloaded error so the
        // router can redirect to a less-loaded replica.
        last_shed
    }

    /// Wire-level liveness probe: a ping round trip (single attempt, no
    /// retries — the router will simply skip the node and try again later).
    pub fn probe(&self) -> bool {
        let up = matches!(
            self.roundtrip(&Request::Ping),
            Ok((Response::Pong { .. }, _, _))
        );
        self.set_health(up);
        up
    }

    /// The one remote call: `request` under a `net.rpc.client` span, with
    /// retries, the latency histogram and the health verdict. A peer that
    /// answered is up — also when it answered with an error, unless that
    /// error says it is going away; a dead transport is
    /// [`DmError::RemoteUnavailable`]. Callers only pick the variant they
    /// asked for out of the `Ok`. `request` is a [`Request`] or a view that
    /// encodes as one from borrowed parts.
    fn call(&self, request: &dyn Put) -> DmResult<Response> {
        let span = hedc_obs::Span::child("net.rpc.client");
        let start = Instant::now();
        let outcome = self.exchange(request);
        self.metrics
            .rpc
            .record_us(start.elapsed().as_micros() as u64);
        drop(span);
        match outcome {
            Some(Response::Error(e)) => {
                self.set_health(e.kind != WireErrorKind::Unavailable);
                Err(e.into_dm(&self.label))
            }
            Some(response) => {
                self.set_health(true);
                Ok(response)
            }
            None => {
                self.set_health(false);
                self.metrics.unavailable.inc();
                Err(DmError::RemoteUnavailable(format!(
                    "{} ({})",
                    self.label, self.addr
                )))
            }
        }
    }

    /// `entries` in **one frame** (one per [`MAX_BATCH_ENTRIES`] of them),
    /// answered positionally: `pick` takes the expected variant out of each
    /// entry's response, an entry the server failed carries its own error,
    /// and a failure of a frame as a whole is the error of every entry in
    /// it. An empty batch sends nothing.
    fn call_batch<T: Clone>(
        &self,
        entries: &[impl Put],
        pick: impl Fn(Response) -> DmResult<T>,
    ) -> Vec<DmResult<T>> {
        entries
            .chunks(MAX_BATCH_ENTRIES)
            .flat_map(|frame| self.call_batch_frame(frame, &pick))
            .collect()
    }

    fn call_batch_frame<T: Clone>(
        &self,
        entries: &[impl Put],
        pick: &impl Fn(Response) -> DmResult<T>,
    ) -> Vec<DmResult<T>> {
        let n = entries.len();
        let whole = match self.call(&BatchRef(entries)) {
            Ok(Response::Batch(responses)) => {
                let mut responses = responses.into_iter();
                return (0..n)
                    .map(|_| match responses.next() {
                        Some(Response::Error(e)) => Err(e.into_dm(&self.label)),
                        Some(response) => pick(response),
                        None => Err(DmError::RemoteFailed(format!(
                            "{}: batch response truncated",
                            self.label
                        ))),
                    })
                    .collect();
            }
            Ok(other) => self.unexpected(&other, "a batch"),
            Err(e) => e,
        };
        vec![Err(whole); n]
    }

    /// The error for a well-formed response of the wrong variant.
    fn unexpected(&self, got: &Response, asked: &str) -> DmError {
        let got = match got {
            Response::Pong { .. } => "pong",
            Response::Result(_) => "query result",
            Response::Names(_) => "name list",
            Response::Batch(_) => "batch",
            Response::Redirect { .. } => "shard redirect",
            Response::ShardMap(_) => "shard map",
            Response::Error(_) => "error",
        };
        DmError::RemoteFailed(format!(
            "{}: unexpected {got} in answer to {asked}",
            self.label
        ))
    }

    fn pick_result(&self, response: Response) -> DmResult<QueryResult> {
        match response {
            Response::Result(r) => Ok(r),
            other => Err(self.unexpected(&other, "a query")),
        }
    }

    fn pick_names(&self, response: Response) -> DmResult<Vec<ResolvedName>> {
        match response {
            Response::Names(names) => Ok(names),
            other => Err(self.unexpected(&other, "a resolve")),
        }
    }
}

/// Exponential backoff with jitter: `base * 2^(attempt-1)` capped at
/// `backoff_max`, plus up to 50% pseudo-random jitter to decorrelate
/// concurrent retriers.
fn backoff(config: &NetConfig, attempt: u32) -> Duration {
    let step = config
        .backoff_base
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(config.backoff_max);
    let jitter_cap = (step.as_micros() as u64 / 2).max(1);
    step + Duration::from_micros(pseudo_random() % jitter_cap)
}

/// Dependency-free pseudo-randomness for jitter: hash a counter through
/// `RandomState` (seeded per-process by the OS).
fn pseudo_random() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    static STATE: OnceLock<std::collections::hash_map::RandomState> = OnceLock::new();
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut h = STATE
        .get_or_init(std::collections::hash_map::RandomState::new)
        .build_hasher();
    h.write_u64(SEQ.fetch_add(1, Ordering::Relaxed));
    h.finish()
}

impl DmNode for NetDm {
    fn node_id(&self) -> String {
        self.label.clone()
    }

    fn execute_query(&self, q: &Query) -> DmResult<QueryResult> {
        let fetch = || self.pick_result(self.call(&QueryRef(q))?);
        QueryCache::read_through(self.cache.as_ref(), CLIENT_SCOPE, q, fetch)
    }

    /// All queries in **one frame**: cached entries are answered locally,
    /// the misses cross the wire as a single [`Request::Batch`], and the
    /// answers are stitched back positionally. A transport failure degrades
    /// per entry — stale cache where available, `RemoteUnavailable`
    /// otherwise — exactly like the single-query path.
    fn execute_batch(&self, qs: &[Query]) -> Vec<DmResult<QueryResult>> {
        let mut out: Vec<Option<DmResult<QueryResult>>> = (0..qs.len()).map(|_| None).collect();
        let mut misses = Vec::new();
        for (i, q) in qs.iter().enumerate() {
            match &self.cache {
                Some(cache) => match cache.begin(CLIENT_SCOPE, q, || cache.snapshot(q)) {
                    Ok(hit) => out[i] = Some(Ok(hit)),
                    Err(miss) => misses.push((i, Some(miss))),
                },
                None => misses.push((i, None)),
            }
        }
        let entries: Vec<QueryRef<'_>> = misses.iter().map(|&(i, _)| QueryRef(&qs[i])).collect();
        let answers = self.call_batch(&entries, |r| self.pick_result(r));
        for ((i, miss), answer) in misses.into_iter().zip(answers) {
            out[i] = Some(match (&self.cache, miss) {
                (Some(cache), Some(miss)) => cache.finish(miss, &qs[i], answer),
                _ => answer,
            });
        }
        out.into_iter()
            .map(|slot| slot.expect("every batch entry hit or was answered"))
            .collect()
    }

    fn resolve_names(&self, item_id: i64, want: NameType) -> DmResult<Vec<ResolvedName>> {
        self.pick_names(self.call(&Request::Resolve {
            item_id,
            name_type: want,
        })?)
    }

    /// The whole name-mapping batch in one round trip: N `Resolve` entries
    /// in one [`Request::Batch`] frame; the server recognises the
    /// homogeneous shape and runs its batched (two-IN-list-query) resolver.
    /// A transport failure marks **every** entry `RemoteUnavailable` so the
    /// router fails the chunk over wholesale.
    fn resolve_batch(&self, item_ids: &[i64], want: NameType) -> Vec<DmResult<Vec<ResolvedName>>> {
        let entries: Vec<Request> = item_ids
            .iter()
            .map(|&item_id| Request::Resolve {
                item_id,
                name_type: want,
            })
            .collect();
        self.call_batch(&entries, |r| self.pick_names(r))
    }

    fn is_available(&self) -> bool {
        {
            let h = self.health.lock().unwrap();
            if let Some(checked) = h.checked {
                if checked.elapsed() < self.config.health_ttl {
                    return h.available;
                }
            }
        }
        self.probe()
    }
}
