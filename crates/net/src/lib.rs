//! # hedc-net — the DM cluster wire protocol
//!
//! The paper scales browse throughput from 3 to 18 req/s by adding
//! middle-tier nodes behind §5.4 call redirection: "the calling methods do
//! not know where the code is actually executed". This crate is that
//! redirection on real sockets — a dependency-light TCP RPC subsystem that
//! puts [`hedc_dm::DmNode`]s on the network:
//!
//! * [`frame`] — length-prefixed, versioned frames with trace-ID and
//!   request-ID propagation in the header, so `hedc-obs` span trees stay
//!   connected across the wire and many requests multiplex per socket.
//! * [`proto`] — `Query`/`QueryResult`/error payloads mirroring the
//!   `DmNode` trait, plus a liveness ping and a typed `Overloaded` shed
//!   response, in one length-checked binary layout whose rows are the
//!   paged store's own row format (`hedc_metadb::keycode`).
//! * [`DmServer`] — an event-driven server: a blocking acceptor with a
//!   connection cap, reader shards blocked in `poll(2)` over their
//!   sockets, and a bounded worker pool with deadline-aware load shedding
//!   ([`AdmissionConfig`]) whose workers write their own responses.
//!   Concurrency is fixed by configuration, not by client count.
//! * [`MuxClient`] — one multiplexed connection: concurrent requests
//!   correlated by frame id, out-of-order completion, per-request waits;
//!   no thread of its own — a waiting caller reads the socket.
//! * [`NetDm`] — a pooled, retrying client that *is* a `DmNode`, so a
//!   [`hedc_dm::DmRouter`] mixes local and remote nodes transparently and
//!   its failover works off the client's cached health probe. `Overloaded`
//!   sheds retry with backoff before surfacing for router failover.
//!
//! ```no_run
//! use hedc_dm::{DmNode, DmRouter};
//! use hedc_net::{DmServer, NetConfig, NetDm, ServerConfig};
//! use std::sync::Arc;
//!
//! # fn node() -> Arc<dyn DmNode> { unimplemented!() }
//! // Server side: put a DM node on a loopback socket.
//! let server = DmServer::bind("127.0.0.1:0", node(), ServerConfig::default()).unwrap();
//!
//! // Client side: the remote node joins a router like any local one.
//! let remote = Arc::new(NetDm::connect(server.local_addr(), "dm-1", NetConfig::default()));
//! let router = DmRouter::new(vec![remote]);
//! ```
//!
//! Everything here is std: no async runtime, no networking crates.
//! Readiness comes from `poll(2)`, declared in one small private module
//! (the only `unsafe` in the workspace's library crates; `hedc-dm`,
//! `hedc-cache` and `hedc-metadb` forbid it); nothing sleeps on a timer,
//! and an idle server wakes no thread. The serving thread count stays
//! fixed as client count grows (the §5 lesson: bound concurrency and
//! reject work you cannot finish).

#![warn(missing_docs)]

pub mod frame;
pub mod proto;

mod client;
mod mux;
mod poll;
mod server;
mod wire;

pub use client::{NetConfig, NetDm};
pub use mux::{MuxClient, Pending};
pub use server::{AdmissionConfig, DmServer, ServerConfig, ShardIdentity};
