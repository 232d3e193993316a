//! `MuxClient`: one multiplexed connection to a DM server.
//!
//! Many requests ride one socket concurrently: each submission picks a
//! fresh request id, writes its frame under a short write lock, and gets a
//! per-request slot. There is no reader thread. The connection has one
//! *read token*; the first caller to wait takes it and reads the socket
//! itself, filing every response frame into its slot by the echoed request
//! id and waking only that slot's owner. When the reader's own answer (or
//! its own deadline) arrives it hands the token to a waiter that is still
//! parked. A lone caller therefore blocks directly in `read()` — the
//! server's write is the only wake-up between it and its answer — and
//! out-of-order completion on the wire never reorders any caller's view,
//! because every caller only ever sees its own slot.
//!
//! The handle is cheap to share (`Arc` internally via [`NetDm`]'s pool);
//! a hard transport error fails *all* in-flight requests at once and marks
//! the connection dead so the pool retires it, while a per-request timeout
//! leaves the connection healthy — the response, if it ever lands, is
//! discarded by id.
//!
//! [`NetDm`]: crate::NetDm

use crate::frame::{Frame, FrameBuffer, FrameKind};
use crate::proto::{decode, encode_framed, Request, Response};
use crate::wire::Put;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What a pending slot holds.
enum SlotState {
    /// Submitted; no answer has been read yet.
    Waiting,
    /// The reader filed the response frame.
    Ready(Frame),
    /// The transport died before an answer arrived.
    Failed(io::ErrorKind),
}

/// One in-flight request's rendezvous.
struct Slot {
    state: SlotState,
    /// The owner's own condvar, so filling this slot (or handing its owner
    /// the read token) wakes no other waiter.
    cv: Arc<Condvar>,
    /// The owner is blocked on `cv` — as opposed to not waiting yet, or
    /// being the reader.
    parked: bool,
}

/// The socket's read side: whoever holds it is the connection's reader.
struct ReadHalf {
    /// Assembles frames incrementally, so a deadline landing mid-frame
    /// never loses bytes or breaks stream sync for the next reader.
    frames: FrameBuffer,
    scratch: Vec<u8>,
}

struct State {
    slots: HashMap<u64, Slot>,
    /// The read token; `None` while some waiter is reading the socket.
    reader: Option<ReadHalf>,
}

/// What the handle and its in-flight requests share.
struct Conn {
    stream: TcpStream,
    /// Serializes request frames onto the socket.
    write: Mutex<()>,
    state: Mutex<State>,
    /// Set (under `state`) by the first hard transport error or teardown.
    dead: AtomicBool,
    /// Live [`Pending`] handles: a load figure for whoever picks among
    /// several connections, nothing else is published through it.
    in_flight: AtomicUsize,
}

/// One multiplexed connection.
pub struct MuxClient {
    addr: SocketAddr,
    conn: Arc<Conn>,
    next_id: AtomicU64,
}

impl MuxClient {
    /// Connect. No thread is started: waiting callers do the reading.
    pub fn connect(addr: SocketAddr, connect_timeout: Duration) -> io::Result<MuxClient> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        Ok(MuxClient {
            addr,
            conn: Arc::new(Conn {
                stream,
                write: Mutex::new(()),
                state: Mutex::new(State {
                    slots: HashMap::new(),
                    reader: Some(ReadHalf {
                        frames: FrameBuffer::new(),
                        scratch: vec![0u8; 64 * 1024],
                    }),
                }),
                dead: AtomicBool::new(false),
                in_flight: AtomicUsize::new(0),
            }),
            next_id: AtomicU64::new(1),
        })
    }

    /// The server address this connection points at.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests submitted on this connection and not yet answered, timed
    /// out or abandoned.
    pub fn in_flight(&self) -> usize {
        self.conn.in_flight.load(Ordering::Relaxed)
    }

    /// True once a hard transport error (or teardown) retired this
    /// connection; submissions fail fast and the pool should drop it.
    pub fn is_dead(&self) -> bool {
        self.conn.dead.load(Ordering::SeqCst)
    }

    /// Submit one request; returns a handle to wait on. `trace`/`span` ride
    /// the frame header for cross-node trace propagation.
    pub fn submit(&self, request: &Request, trace_id: u64, span_id: u64) -> io::Result<Pending> {
        self.submit_message(request, trace_id, span_id)
    }

    /// [`MuxClient::submit`] for anything that encodes as a request — the
    /// borrowed views included, which is how a query leaves without being
    /// cloned into a [`Request`] first.
    pub(crate) fn submit_message(
        &self,
        request: &dyn Put,
        trace_id: u64,
        span_id: u64,
    ) -> io::Result<Pending> {
        let req_id = self.next_id.fetch_add(1, Ordering::SeqCst);
        // One buffer, one write: header and payload leave in one segment.
        let wire = encode_framed(request, FrameKind::Request, trace_id, span_id, req_id)?;
        // Register the slot *before* writing: the response can land before
        // the submitting thread runs again.
        {
            let mut st = self.conn.state.lock().unwrap();
            if self.is_dead() {
                return Err(io::ErrorKind::NotConnected.into());
            }
            st.slots.insert(
                req_id,
                Slot {
                    state: SlotState::Waiting,
                    cv: Arc::new(Condvar::new()),
                    parked: false,
                },
            );
        }
        self.conn.in_flight.fetch_add(1, Ordering::Relaxed);
        let pending = Pending {
            conn: Arc::clone(&self.conn),
            req_id,
            sent: wire.len(),
        };
        let written = {
            let _w = self.conn.write.lock().unwrap();
            (&self.conn.stream).write_all(&wire)
        };
        if let Err(e) = written {
            drop(pending); // frees the slot
            self.conn.fail_all(e.kind());
            return Err(e);
        }
        Ok(pending)
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        // Severing the socket pops a reading waiter out of `read()`.
        let _ = self.conn.stream.shutdown(Shutdown::Both);
        self.conn.fail_all(io::ErrorKind::NotConnected);
    }
}

impl Conn {
    /// Mark the connection dead, fail every waiting slot with `kind`, and
    /// wake the owners that are parked.
    fn fail_all(&self, kind: io::ErrorKind) {
        let mut st = self.state.lock().unwrap();
        self.dead.store(true, Ordering::SeqCst);
        for slot in st.slots.values_mut() {
            if matches!(slot.state, SlotState::Waiting) {
                slot.state = SlotState::Failed(kind);
                if slot.parked {
                    slot.cv.notify_one();
                }
            }
        }
    }

    /// File one response frame into its slot; returns whether it answers
    /// `reader_id`. A parked owner is woken; an unknown id (its waiter gave
    /// up) is dropped on the floor.
    fn file(&self, frame: Frame, reader_id: u64) -> bool {
        let mut st = self.state.lock().unwrap();
        let req_id = frame.req_id;
        if let Some(slot) = st.slots.get_mut(&req_id) {
            if matches!(slot.state, SlotState::Waiting) {
                slot.state = SlotState::Ready(frame);
                if slot.parked {
                    slot.cv.notify_one();
                }
            }
        }
        req_id == reader_id
    }

    /// Be the connection's reader on behalf of request `reader_id`: read
    /// the socket and file frames until that request's own answer arrives,
    /// `deadline` passes, or the transport fails (which fails everyone).
    fn read_for(&self, half: &mut ReadHalf, reader_id: u64, deadline: Instant) {
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return;
            }
            let read = self
                .stream
                .set_read_timeout(Some(remaining))
                .and_then(|()| (&self.stream).read(&mut half.scratch));
            match read {
                Ok(0) => return self.fail_all(io::ErrorKind::ConnectionReset), // peer hung up
                Ok(n) => half.frames.extend(&half.scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return; // this reader's own deadline
                }
                Err(e) => return self.fail_all(e.kind()),
            }
            let mut answered = false;
            loop {
                match half.frames.next_frame() {
                    Ok(Some(frame)) if frame.kind == FrameKind::Response => {
                        answered |= self.file(frame, reader_id);
                    }
                    Ok(None) => break,
                    // Corrupt stream or a non-response frame: framing is
                    // unrecoverable.
                    Ok(Some(_)) | Err(_) => return self.fail_all(io::ErrorKind::InvalidData),
                }
            }
            if answered {
                return;
            }
        }
    }
}

/// A submitted request awaiting its response.
pub struct Pending {
    conn: Arc<Conn>,
    req_id: u64,
    sent: usize,
}

impl Pending {
    /// Bytes written for the request frame (header + payload).
    pub fn bytes_sent(&self) -> usize {
        self.sent
    }

    /// Block until the response lands, the transport dies, or `timeout`
    /// passes. If nobody is reading the socket this caller does, filing
    /// other requests' answers on the way; otherwise it parks until the
    /// reader fills its slot or passes it the read token. A timed-out
    /// response arriving later is discarded by whoever reads it.
    pub fn wait(self, timeout: Duration) -> io::Result<(Response, usize)> {
        let deadline = Instant::now() + timeout;
        let conn = &*self.conn;
        let mut st = conn.state.lock().unwrap();
        // Every exit leaves through here so the guard is released before
        // `self` drops (which takes the lock again to free the slot).
        let outcome = loop {
            let State { slots, reader } = &mut *st;
            let Some(slot) = slots.get_mut(&self.req_id) else {
                break Err(io::ErrorKind::NotConnected);
            };
            match std::mem::replace(&mut slot.state, SlotState::Waiting) {
                SlotState::Waiting => {}
                SlotState::Ready(frame) => break Ok(frame),
                SlotState::Failed(kind) => break Err(kind),
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break Err(io::ErrorKind::TimedOut);
            }
            if let Some(mut half) = reader.take() {
                drop(st);
                conn.read_for(&mut half, self.req_id, deadline);
                st = conn.state.lock().unwrap();
                st.reader = Some(half);
                // Done reading (answered, timed out, or failed): pass the
                // token to one waiter that is still parked.
                if let Some(next) = st
                    .slots
                    .values()
                    .find(|s| s.parked && matches!(s.state, SlotState::Waiting))
                {
                    next.cv.notify_one();
                }
            } else {
                slot.parked = true;
                let cv = Arc::clone(&slot.cv);
                st = cv.wait_timeout(st, remaining).unwrap().0;
                if let Some(slot) = st.slots.get_mut(&self.req_id) {
                    slot.parked = false;
                }
            }
        };
        drop(st);
        let frame = outcome?;
        let response: Response = decode(&frame.payload)?;
        Ok((response, frame.wire_len()))
    }
}

impl Drop for Pending {
    /// Waited on or abandoned, the slot goes: a late answer to an abandoned
    /// request must not sit in the table for the connection's lifetime.
    fn drop(&mut self) {
        self.conn.in_flight.fetch_sub(1, Ordering::Relaxed);
        if let Ok(mut st) = self.conn.state.lock() {
            st.slots.remove(&self.req_id);
        }
    }
}
