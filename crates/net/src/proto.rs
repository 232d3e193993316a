//! RPC message bodies, their wire layout, and error mapping.
//!
//! The payload of every [`crate::frame::Frame`] is one of these messages.
//! The surface mirrors the [`hedc_dm::DmNode`] trait — the whole point of
//! §5.4 call redirection is that the remote surface *is* the local
//! surface — plus a liveness ping for health probing.
//!
//! A payload is one tag byte and the variant's fields, laid out by the
//! rules of the private `wire` module (fixed-width little-endian integers,
//! `u32`-counted text and sequences, rows in the paged store's own row
//! format):
//!
//! ```text
//! Request                              Response
//!   1 Ping                               1 Pong      node_id, epoch u64
//!   2 Query     query                    2 Result    columns, rows, stats
//!   3 Resolve   item_id i64, name type   3 Names     [resolved name]
//!   4 Batch     [request]                4 Batch     [response]
//!   5 Sharded   shard u32, epoch u64,    5 Redirect  shard u32, epoch u64
//!               request                  6 ShardMap  epoch, shards, tables
//!   6 FetchShardMap                      7 Error     kind, message
//! ```
//!
//! [`decode`] refuses, with `InvalidData` and without panicking: an unknown
//! tag (so every payload that begins like JSON text), a length or count
//! larger than the bytes behind it, text that is not UTF-8, a batch inside a
//! batch or a sharded envelope inside a sharded envelope (requests nest at
//! most two deep), a batch of more than [`MAX_BATCH_ENTRIES`], an expression
//! nested deeper than 128, and bytes left over after the message. A count
//! that passes is still not reserved for beyond 64 KiB: what a decode holds
//! grows with the bytes it has read.

use crate::frame::{self, FrameKind};
use crate::wire::{invalid, put_seq, unknown_tag, Put, Wire};
use hedc_dm::{DmError, NameType, ResolvedName, ShardMap};
use hedc_metadb::keycode::Reader;
use hedc_metadb::{Query, QueryResult};
use std::io;

/// The most entries one [`Request::Batch`] or [`Response::Batch`] carries.
/// An entry can be a single byte on the wire (`Ping`) and a couple of
/// hundred in memory, so without a ceiling one full frame of them decodes
/// into gigabytes; the decoder refuses the count before it reads an entry,
/// and [`crate::NetDm`] splits a longer batch over several frames.
pub const MAX_BATCH_ENTRIES: usize = 16_384;

/// Client → server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness/identity probe; answered with [`Response::Pong`].
    Ping,
    /// Execute a (pre-scoped) read query.
    Query(Query),
    /// Resolve an item's dynamic names (§4.3) on the serving node;
    /// answered with [`Response::Names`].
    Resolve {
        /// The item whose names to construct.
        item_id: i64,
        /// Which of the three §4.3 name types to construct.
        name_type: NameType,
    },
    /// Several requests in one frame — one round trip for the whole
    /// batch. The server answers with [`Response::Batch`] carrying one
    /// response per entry **in order**, errors isolated per entry (a bad
    /// entry never poisons its neighbours). Batches do not nest.
    Batch(Vec<Request>),
    /// `inner`, routed under the sharded-cluster protocol: the client
    /// states which shard it believes the serving node owns and the
    /// [`ShardMap`] epoch that belief came from. A server with shard
    /// identity answers [`Response::Redirect`] when either is wrong —
    /// never a miss or an empty result — so a stale client re-fetches the
    /// map and re-routes instead of silently reading the wrong shard.
    /// Sharded envelopes do not nest.
    Sharded {
        /// The shard the client routed this request to.
        shard: u32,
        /// The map epoch the client routed with.
        epoch: u64,
        /// The request to execute once identity checks pass.
        inner: Box<Request>,
    },
    /// Fetch the server's current [`ShardMap`] (answer:
    /// [`Response::ShardMap`]) — the redirect-recovery path.
    FetchShardMap,
}

/// Server → client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The serving node's id, for logs and router status.
        node_id: String,
        /// The node's current [`ShardMap`] epoch (0 when the node has no
        /// shard identity). Piggybacked on the liveness probe so clients
        /// learn of cutovers from the handshake they already make.
        epoch: u64,
    },
    /// Successful query execution.
    Result(QueryResult),
    /// Successful name resolution (answer to [`Request::Resolve`]).
    Names(Vec<ResolvedName>),
    /// Answers to a [`Request::Batch`], positionally matched to its
    /// entries.
    Batch(Vec<Response>),
    /// The [`Request::Sharded`] envelope named the wrong shard or a stale
    /// epoch. Carries the serving node's actual shard id and current
    /// epoch; the client re-fetches the map and re-routes.
    Redirect {
        /// The shard this server actually serves.
        shard: u32,
        /// The server's current map epoch.
        epoch: u64,
    },
    /// Answer to [`Request::FetchShardMap`].
    ShardMap(ShardMap),
    /// The request failed on the server.
    Error(WireError),
}

/// Coarse classification of a remote failure: enough to drive client-side
/// policy (failover vs surface-to-caller) without shipping the full local
/// error enum across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The node (or a node behind it) is unavailable; the caller should
    /// fail over.
    Unavailable,
    /// The query itself was rejected (unknown table, failed verification);
    /// retrying elsewhere would fail identically.
    Rejected,
    /// Any other server-side failure; the node is up, the request is not
    /// retried.
    Failed,
    /// The node shed the request under load (queue full, deadline passed,
    /// or per-connection in-flight cap hit). The node is *up* — health
    /// probes must not mark it down — but the caller should back off and
    /// retry, or fail over to a less-loaded replica.
    Overloaded,
    /// A whole shard (every replica of its set) was unreachable behind the
    /// serving node during a scatter-gather. The serving node itself is
    /// *up*: callers must not mark it down, and must not retry the same
    /// cluster — the typed shard id says which partition's rows are
    /// missing.
    ShardUnavailable(u32),
}

/// A server-side error as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Failure class.
    pub kind: WireErrorKind,
    /// Human-readable description (the remote error's `Display` text).
    pub message: String,
}

impl WireError {
    /// Classify a server-side [`DmError`] for the wire.
    pub fn from_dm(e: &DmError) -> WireError {
        let kind = match e {
            DmError::RemoteUnavailable(_) => WireErrorKind::Unavailable,
            DmError::Overloaded(_) => WireErrorKind::Overloaded,
            DmError::ShardUnavailable { shard, .. } => WireErrorKind::ShardUnavailable(*shard),
            DmError::BadQuery(_) | DmError::Db(_) => WireErrorKind::Rejected,
            _ => WireErrorKind::Failed,
        };
        WireError {
            kind,
            message: e.to_string(),
        }
    }

    /// Reconstruct a client-side [`DmError`]. `node` labels the peer for
    /// unavailability errors.
    pub fn into_dm(self, node: &str) -> DmError {
        match self.kind {
            WireErrorKind::Unavailable => {
                DmError::RemoteUnavailable(format!("{node}: {}", self.message))
            }
            WireErrorKind::Rejected => DmError::BadQuery(self.message),
            WireErrorKind::Failed => DmError::RemoteFailed(self.message),
            WireErrorKind::Overloaded => DmError::Overloaded(format!("{node}: {}", self.message)),
            WireErrorKind::ShardUnavailable(shard) => DmError::ShardUnavailable {
                shard,
                detail: format!("{node}: {}", self.message),
            },
        }
    }
}

/// A [`Request::Query`] that borrows its query: the bytes of the owned
/// form, written from the caller's `&Query`.
pub(crate) struct QueryRef<'a>(pub &'a Query);

impl Put for QueryRef<'_> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(2);
        self.0.put(out);
    }
}

/// A [`Request::Batch`] over borrowed entries.
pub(crate) struct BatchRef<'a, T>(pub &'a [T]);

impl<T: Put> Put for BatchRef<'_, T> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(4);
        put_seq(out, self.0);
    }
}

impl Put for Request {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(1),
            Request::Query(q) => QueryRef(q).put(out),
            Request::Resolve { item_id, name_type } => {
                out.push(3);
                item_id.put(out);
                name_type.put(out);
            }
            Request::Batch(entries) => BatchRef(entries).put(out),
            Request::Sharded {
                shard,
                epoch,
                inner,
            } => {
                out.push(5);
                shard.put(out);
                epoch.put(out);
                inner.put(out);
            }
            Request::FetchShardMap => out.push(6),
        }
    }
}

/// The envelopes a request is already inside of. Neither kind may repeat,
/// so a request nests at most two deep whatever its bytes claim.
#[derive(Clone, Copy, Default)]
struct Inside {
    batch: bool,
    sharded: bool,
}

/// The entries of a batch, the count refused before the first is read.
fn get_batch<'a, T>(
    r: &mut Reader<'a>,
    get: impl FnMut(&mut Reader<'a>) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let n = r.count()?;
    if n > MAX_BATCH_ENTRIES {
        return Err(invalid(format!(
            "a batch of {n} entries, {MAX_BATCH_ENTRIES} is the most a frame carries"
        )));
    }
    r.repeat(n, get)
}

fn get_request(r: &mut Reader<'_>, inside: Inside) -> io::Result<Request> {
    Ok(match r.u8()? {
        1 => Request::Ping,
        2 => Request::Query(Wire::get(r)?),
        3 => Request::Resolve {
            item_id: Wire::get(r)?,
            name_type: Wire::get(r)?,
        },
        4 if inside.batch => return Err(invalid("a batch inside a batch")),
        4 => {
            let inside = Inside {
                batch: true,
                ..inside
            };
            Request::Batch(get_batch(r, |r| get_request(r, inside))?)
        }
        5 if inside.sharded => return Err(invalid("a sharded envelope inside a sharded envelope")),
        5 => {
            let inside = Inside {
                sharded: true,
                ..inside
            };
            Request::Sharded {
                shard: Wire::get(r)?,
                epoch: Wire::get(r)?,
                inner: Box::new(get_request(r, inside)?),
            }
        }
        6 => Request::FetchShardMap,
        other => return Err(unknown_tag("request", other)),
    })
}

impl Wire for Request {
    fn get(r: &mut Reader<'_>) -> io::Result<Request> {
        get_request(r, Inside::default())
    }
}

impl Put for Response {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong { node_id, epoch } => {
                out.push(1);
                node_id.put(out);
                epoch.put(out);
            }
            Response::Result(result) => {
                out.push(2);
                result.put(out);
            }
            Response::Names(names) => {
                out.push(3);
                names.put(out);
            }
            Response::Batch(entries) => {
                out.push(4);
                entries.put(out);
            }
            Response::Redirect { shard, epoch } => {
                out.push(5);
                shard.put(out);
                epoch.put(out);
            }
            Response::ShardMap(map) => {
                out.push(6);
                map.put(out);
            }
            Response::Error(error) => {
                out.push(7);
                error.put(out);
            }
        }
    }

    fn size_hint(&self) -> usize {
        match self {
            Response::Result(result) => 1 + result.size_hint(),
            Response::Batch(entries) => 8 + entries.iter().map(Put::size_hint).sum::<usize>(),
            _ => 128,
        }
    }
}

/// One response; `in_batch` refuses a batch of batches, which no server
/// sends (a nested request batch is answered with an error entry).
fn get_response(r: &mut Reader<'_>, in_batch: bool) -> io::Result<Response> {
    Ok(match r.u8()? {
        1 => Response::Pong {
            node_id: Wire::get(r)?,
            epoch: Wire::get(r)?,
        },
        2 => Response::Result(Wire::get(r)?),
        3 => Response::Names(Wire::get(r)?),
        4 if in_batch => return Err(invalid("a batch inside a batch")),
        4 => Response::Batch(get_batch(r, |r| get_response(r, true))?),
        5 => Response::Redirect {
            shard: Wire::get(r)?,
            epoch: Wire::get(r)?,
        },
        6 => Response::ShardMap(Wire::get(r)?),
        7 => Response::Error(Wire::get(r)?),
        other => return Err(unknown_tag("response", other)),
    })
}

impl Wire for Response {
    fn get(r: &mut Reader<'_>) -> io::Result<Response> {
        get_response(r, false)
    }
}

impl Put for WireErrorKind {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WireErrorKind::Unavailable => out.push(1),
            WireErrorKind::Rejected => out.push(2),
            WireErrorKind::Failed => out.push(3),
            WireErrorKind::Overloaded => out.push(4),
            WireErrorKind::ShardUnavailable(shard) => {
                out.push(5);
                shard.put(out);
            }
        }
    }
}

impl Wire for WireErrorKind {
    fn get(r: &mut Reader<'_>) -> io::Result<WireErrorKind> {
        Ok(match r.u8()? {
            1 => WireErrorKind::Unavailable,
            2 => WireErrorKind::Rejected,
            3 => WireErrorKind::Failed,
            4 => WireErrorKind::Overloaded,
            5 => WireErrorKind::ShardUnavailable(Wire::get(r)?),
            other => return Err(unknown_tag("error kind", other)),
        })
    }
}

impl Put for WireError {
    fn put(&self, out: &mut Vec<u8>) {
        let WireError { kind, message } = self;
        kind.put(out);
        message.put(out);
    }
}

impl Wire for WireError {
    fn get(r: &mut Reader<'_>) -> io::Result<WireError> {
        Ok(WireError {
            kind: Wire::get(r)?,
            message: Wire::get(r)?,
        })
    }
}

/// Serialize a proto message to a frame payload.
pub fn encode<T: Wire>(msg: &T) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(msg.size_hint());
    msg.put(&mut out);
    Ok(out)
}

/// Deserialize a frame payload: exactly one message, nothing behind it.
pub fn decode<T: Wire>(payload: &[u8]) -> io::Result<T> {
    let mut r = Reader::new(payload);
    let msg = T::get(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// `msg` as one whole frame ready for the socket: header and payload are
/// written into the same buffer, so the payload never exists on its own
/// (as it does between [`encode`] and [`frame::encode_frame`]). The only
/// failure is a payload over the frame cap.
pub fn encode_framed<T: Put + ?Sized>(
    msg: &T,
    kind: FrameKind,
    trace_id: u64,
    span_id: u64,
    req_id: u64,
) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(frame::HEADER_LEN + msg.size_hint());
    frame::start_frame(&mut buf, kind, trace_id, span_id, req_id);
    msg.put(&mut buf);
    frame::seal_frame(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedc_metadb::{AggFunc, Expr, OrderDir};

    #[test]
    fn query_roundtrips_through_payload() {
        let q = Query::table("hle")
            .select(&["id", "event_type"])
            .filter(Expr::between("t0", 500, 1500).and(Expr::eq("public", true)))
            .order_by("t0", OrderDir::Desc)
            .limit(20)
            .offset(5);
        let bytes = encode(&Request::Query(q.clone())).unwrap();
        let back: Request = decode(&bytes).unwrap();
        match back {
            Request::Query(got) => {
                assert_eq!(got.table, q.table);
                assert_eq!(got.projection, q.projection);
                assert_eq!(got.filter, q.filter);
                assert_eq!(got.order_by, q.order_by);
                assert_eq!(got.limit, q.limit);
                assert_eq!(got.offset, q.offset);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn aggregate_query_roundtrips() {
        let q = Query::table("ana")
            .group_by("kind")
            .aggregate(AggFunc::CountStar)
            .aggregate(AggFunc::Avg("duration_ms".into()));
        let bytes = encode(&q).unwrap();
        let back: Query = decode(&bytes).unwrap();
        assert_eq!(back.aggregates, q.aggregates);
        assert_eq!(back.group_by, q.group_by);
    }

    #[test]
    fn batch_frame_roundtrips_in_order() {
        let batch = Request::Batch(vec![
            Request::Query(Query::table("hle").limit(3)),
            Request::Resolve {
                item_id: 42,
                name_type: NameType::File,
            },
            Request::Ping,
        ]);
        let bytes = encode(&batch).unwrap();
        let back: Request = decode(&bytes).unwrap();
        let Request::Batch(entries) = back else {
            panic!("wrong variant");
        };
        assert_eq!(entries.len(), 3);
        assert!(matches!(&entries[0], Request::Query(q) if q.table == "hle"));
        assert!(matches!(
            &entries[1],
            Request::Resolve {
                item_id: 42,
                name_type: NameType::File
            }
        ));
        assert!(matches!(&entries[2], Request::Ping));
    }

    #[test]
    fn envelopes_nest_two_deep_and_no_deeper() {
        let sharded = |inner| Request::Sharded {
            shard: 0,
            epoch: 1,
            inner: Box::new(inner),
        };
        // Either envelope around the other is the protocol.
        for ok in [
            sharded(Request::Batch(vec![Request::Ping])),
            Request::Batch(vec![sharded(Request::Ping), Request::Ping]),
        ] {
            decode::<Request>(&encode(&ok).unwrap()).unwrap();
        }
        // Neither may repeat, directly or through the other — refused by
        // the decoder, whatever `respond` would have made of them.
        for nested in [
            Request::Batch(vec![Request::Ping, Request::Batch(vec![])]),
            sharded(sharded(Request::Ping)),
            Request::Batch(vec![sharded(Request::Batch(vec![]))]),
            sharded(Request::Batch(vec![sharded(Request::Ping)])),
        ] {
            let err = decode::<Request>(&encode(&nested).unwrap()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("inside"), "{err}");
        }
        let nested = Response::Batch(vec![Response::Batch(vec![])]);
        assert!(decode::<Response>(&encode(&nested).unwrap()).is_err());
        // A frame of nothing but batch tags never recurses.
        assert!(decode::<Request>(&[4u8; 100_000]).is_err());
    }

    #[test]
    fn text_that_looks_like_json_and_trailing_bytes_are_refused() {
        for bad in [&b""[..], b"{", b"{\"Ping\":null}", b"[1]", b"\"Ping\""] {
            assert!(decode::<Request>(bad).is_err(), "{bad:?}");
            assert!(decode::<Response>(bad).is_err(), "{bad:?}");
        }
        let mut ping = encode(&Request::Ping).unwrap();
        decode::<Request>(&ping).unwrap();
        ping.push(0);
        assert!(decode::<Request>(&ping).is_err());
        // An expression nested past the bound is refused, not recursed into.
        let mut deep = vec![2, 1, 0, 0, 0, b't', 1, 1]; // Query, table "t", All, Some(filter)
        deep.extend([7u8; 10_000]); // NOT NOT NOT ...
        let err = decode::<Request>(&deep).unwrap_err();
        assert!(err.to_string().contains("nests deeper"), "{err}");
    }

    #[test]
    fn resolved_names_cross_the_wire_intact() {
        let names = vec![hedc_dm::ResolvedName {
            entry_id: 7,
            name_type: NameType::Url,
            archive_id: 2,
            archive_path: "v1/raw/u1.fits".into(),
            entry_path: "raw/u1.fits".into(),
            full_name: "url:hedc/v1/raw/u1.fits#9".into(),
            url: Some("http://hedc.ethz.ch/data/v1/raw/u1.fits".into()),
            size: 4096,
            role: "data".into(),
            transforms: vec!["gunzip".into()],
        }];
        let bytes = encode(&Response::Names(names.clone())).unwrap();
        let back: Response = decode(&bytes).unwrap();
        let Response::Names(got) = back else {
            panic!("wrong variant");
        };
        assert_eq!(got, names);
    }

    #[test]
    fn error_mapping_preserves_failover_semantics() {
        let down = WireError::from_dm(&DmError::RemoteUnavailable("n2".into()));
        assert_eq!(down.kind, WireErrorKind::Unavailable);
        assert!(matches!(
            down.into_dm("peer"),
            DmError::RemoteUnavailable(_)
        ));

        let rejected = WireError::from_dm(&DmError::BadQuery("unknown table `nope`".into()));
        assert_eq!(rejected.kind, WireErrorKind::Rejected);
        assert!(matches!(rejected.into_dm("peer"), DmError::BadQuery(_)));

        let other = WireError::from_dm(&DmError::NoSession);
        assert_eq!(other.kind, WireErrorKind::Failed);
        assert!(matches!(other.into_dm("peer"), DmError::RemoteFailed(_)));

        // Overload is its own class: the node is up, so it must not map to
        // Unavailable (which would flip health probes), and not to Failed
        // (which would surface to the caller without failover).
        let shed = WireError::from_dm(&DmError::Overloaded("queue full".into()));
        assert_eq!(shed.kind, WireErrorKind::Overloaded);
        match shed.into_dm("peer") {
            DmError::Overloaded(m) => assert!(m.contains("peer"), "{m}"),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
