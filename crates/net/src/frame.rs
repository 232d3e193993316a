//! Length-prefixed, versioned wire frames.
//!
//! Every message on a DM cluster connection is one frame:
//!
//! ```text
//! offset  size  field
//! ------  ----  ------------------------------------------
//!      0     4  magic  b"HEDC"
//!      4     1  protocol version (currently 3)
//!      5     1  frame kind (1 = request, 2 = response)
//!      6     8  trace id,    big-endian u64 (0 = untraced)
//!     14     8  span id,     big-endian u64 (0 = untraced)
//!     22     8  request id,  big-endian u64
//!     30     4  payload length, big-endian u32
//!     34     n  payload: one binary proto message (see [`crate::proto`])
//! ```
//!
//! The trace/span ids ride in the *header*, outside the serialized payload,
//! so `hedc-obs` propagation does not depend on the payload schema: a
//! server can adopt the caller's span context before it even parses the
//! request, and protocol-error replies still join the right trace.
//!
//! The request id (new in v2) correlates responses with requests on a
//! *multiplexed* connection: many requests may be in flight on one socket
//! at once, responses complete out of order, and each response frame
//! carries back the id of the request it answers. Clients pick ids; the
//! server echoes them verbatim and attaches no meaning beyond equality.
//!
//! v3 changed the payload, not the header: a tagged binary message where v2
//! carried JSON text. There is one format per version and no negotiation —
//! a v2 peer's first frame fails the version check below and the connection
//! is dropped.
//!
//! A sender builds a frame in place ([`crate::proto::encode_framed`], and
//! [`encode_frame`] for a payload that already exists): the header goes in
//! with the length left open, the message is appended to the same buffer,
//! and sealing checks the cap and patches the length in.

use crate::wire::invalid;
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"HEDC";
/// Current protocol version. Bumped on any incompatible payload change;
/// peers reject mismatches rather than guessing. v2 added the request-id
/// header field for connection multiplexing; v3 made the payload binary.
pub const VERSION: u8 = 3;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 34;
/// Upper bound on payload size; guards against allocating from a corrupt
/// or hostile length prefix.
pub const MAX_PAYLOAD_BYTES: usize = 32 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server.
    Request,
    /// Server → client.
    Response,
}

impl FrameKind {
    fn to_wire(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
        }
    }

    fn from_wire(b: u8) -> io::Result<FrameKind> {
        match b {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            other => Err(invalid(format!("unknown frame kind {other}"))),
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Request or response.
    pub kind: FrameKind,
    /// Originating trace id (0 when the caller had no ambient trace).
    pub trace_id: u64,
    /// Parent span id on the sending side (0 when untraced).
    pub span_id: u64,
    /// Multiplexing correlation id: chosen by the client per request,
    /// echoed verbatim on the matching response.
    pub req_id: u64,
    /// Serialized proto message.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Total encoded size in bytes (header + payload).
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

/// Begin a frame in `buf` (which must be empty): the header, with the
/// payload length left for [`seal_frame`] to fill in once the payload has
/// been appended behind it.
pub(crate) fn start_frame(
    buf: &mut Vec<u8>,
    kind: FrameKind,
    trace_id: u64,
    span_id: u64,
    req_id: u64,
) {
    debug_assert!(buf.is_empty(), "one frame per buffer");
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(kind.to_wire());
    buf.extend_from_slice(&trace_id.to_be_bytes());
    buf.extend_from_slice(&span_id.to_be_bytes());
    buf.extend_from_slice(&req_id.to_be_bytes());
    buf.extend_from_slice(&[0u8; 4]);
}

/// Finish the frame [`start_frame`] began: everything in `buf` behind the
/// header is its payload. Refuses a payload over [`MAX_PAYLOAD_BYTES`] —
/// the receiver would, and a length that does not fit the prefix must
/// never reach the wire.
pub(crate) fn seal_frame(buf: &mut [u8]) -> io::Result<()> {
    let len = buf.len() - HEADER_LEN;
    if len > MAX_PAYLOAD_BYTES {
        return Err(invalid(format!(
            "payload of {len} bytes exceeds the {} MiB frame cap",
            MAX_PAYLOAD_BYTES >> 20
        )));
    }
    buf[30..HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// Encode one frame into a contiguous byte vector (header + payload),
/// ready to hand to a nonblocking writer that flushes in pieces.
pub fn encode_frame(frame: &Frame) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(frame.wire_len());
    start_frame(
        &mut buf,
        frame.kind,
        frame.trace_id,
        frame.span_id,
        frame.req_id,
    );
    buf.extend_from_slice(&frame.payload);
    seal_frame(&mut buf)?;
    Ok(buf)
}

/// Encode and write one frame. Returns the number of bytes written.
///
/// Header and payload go out in one `write_all`, so on a `TCP_NODELAY`
/// socket a small frame is one segment and wakes its receiver once.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<usize> {
    let wire = encode_frame(frame)?;
    w.write_all(&wire)?;
    w.flush()?;
    Ok(wire.len())
}

/// Read one complete frame, blocking until it arrives or the stream's read
/// deadline fires.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    decode_after_header(r, header)
}

/// Read one frame, tolerating an *idle* timeout: returns `Ok(None)` when the
/// read deadline fires before any byte arrives (the connection is simply
/// quiet), and an error when it fires mid-frame (the peer stalled and the
/// connection is no longer in sync). Blocking callers poll with this so a
/// read never outlives a shutdown request.
pub fn read_frame_or_idle(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e),
        }
    }
    let mut header = [0u8; HEADER_LEN];
    header[0] = first[0];
    r.read_exact(&mut header[1..])?;
    decode_after_header(r, header).map(Some)
}

fn decode_after_header(r: &mut impl Read, header: [u8; HEADER_LEN]) -> io::Result<Frame> {
    let (kind, trace_id, span_id, req_id, len) = decode_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Frame {
        kind,
        trace_id,
        span_id,
        req_id,
        payload,
    })
}

/// Validate a raw header and pull out its fields.
#[allow(clippy::type_complexity)]
fn decode_header(header: &[u8; HEADER_LEN]) -> io::Result<(FrameKind, u64, u64, u64, usize)> {
    if header[0..4] != MAGIC {
        return Err(invalid("bad frame magic"));
    }
    if header[4] != VERSION {
        return Err(invalid(format!(
            "protocol version mismatch: peer speaks v{}, we speak v{VERSION}",
            header[4]
        )));
    }
    let kind = FrameKind::from_wire(header[5])?;
    let trace_id = u64::from_be_bytes(header[6..14].try_into().unwrap());
    let span_id = u64::from_be_bytes(header[14..22].try_into().unwrap());
    let req_id = u64::from_be_bytes(header[22..30].try_into().unwrap());
    let len = u32::from_be_bytes(header[30..34].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD_BYTES {
        return Err(invalid(format!(
            "payload {len} bytes exceeds cap {MAX_PAYLOAD_BYTES}"
        )));
    }
    Ok((kind, trace_id, span_id, req_id, len))
}

/// Incremental frame assembler for nonblocking sockets.
///
/// A reader feeds whatever bytes `read()` produced — possibly a single
/// byte, possibly several frames at once — and drains complete frames as
/// they materialize. The buffer validates each header as soon as its 34
/// bytes are present, so corrupt magic, a bad version, or a hostile length
/// prefix is rejected before any payload allocation.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// Received bytes; those before `head` belong to frames already drained.
    buf: Vec<u8>,
    head: usize,
    /// Set when the buffer holds the start of a frame that is not yet
    /// complete; cleared when the frame drains. Drives read-deadline
    /// enforcement: a peer that starts a frame and stalls is killable.
    partial: bool,
}

impl FrameBuffer {
    /// An empty assembler.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Append freshly-read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Drop the drained prefix once it outweighs what is still pending,
        // so the move is always the smaller half.
        if self.head > self.buf.len() - self.head {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
        self.partial = !self.is_empty();
    }

    /// True when the buffer holds the beginning of an unfinished frame —
    /// i.e. the peer owes us bytes to stay in sync.
    pub fn has_partial(&self) -> bool {
        self.partial
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the next complete frame, if one has fully arrived.
    ///
    /// `Ok(None)` means "keep reading"; an error means the stream is
    /// corrupt and the connection must be dropped.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        let pending = &self.buf[self.head..];
        let Some(header) = pending.first_chunk::<HEADER_LEN>() else {
            self.partial = !pending.is_empty();
            return Ok(None);
        };
        let (kind, trace_id, span_id, req_id, len) = decode_header(header)?;
        let Some(payload) = pending.get(HEADER_LEN..HEADER_LEN + len) else {
            self.partial = true;
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.head += HEADER_LEN + len;
        if self.is_empty() {
            self.buf.clear();
            self.head = 0;
        }
        self.partial = !self.is_empty();
        Ok(Some(Frame {
            kind,
            trace_id,
            span_id,
            req_id,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Frame {
        Frame {
            kind: FrameKind::Request,
            trace_id: 0xDEAD_BEEF,
            span_id: 42,
            req_id: 7,
            // `Request::Resolve { item_id: 42, name_type: NameType::File }`
            payload: vec![3, 42, 0, 0, 0, 0, 0, 0, 0, 1],
        }
    }

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, &sample()).unwrap();
        assert_eq!(n, buf.len());
        let got = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(got, sample());
    }

    #[test]
    fn back_to_back_frames() {
        let mut buf = Vec::new();
        let mut b = sample();
        b.kind = FrameKind::Response;
        b.req_id = 8;
        write_frame(&mut buf, &sample()).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut cur = Cursor::new(&buf);
        let first = read_frame(&mut cur).unwrap();
        assert_eq!(first.kind, FrameKind::Request);
        assert_eq!(first.req_id, 7);
        let second = read_frame(&mut cur).unwrap();
        assert_eq!(second.kind, FrameKind::Response);
        assert_eq!(second.req_id, 8);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        let mut corrupt = buf.clone();
        corrupt[0] = b'X';
        assert!(read_frame(&mut Cursor::new(&corrupt)).is_err());
        // A future version and the JSON-payload v2 alike: no fallback.
        for version in [9, 2] {
            let mut wrong_ver = buf.clone();
            wrong_ver[4] = version;
            let err = read_frame(&mut Cursor::new(&wrong_ver)).unwrap_err();
            let want = format!("peer speaks v{version}, we speak v{VERSION}");
            assert!(err.to_string().contains(&want), "{err}");
            let mut fb = FrameBuffer::new();
            fb.extend(&wrong_ver);
            assert!(fb.next_frame().is_err());
        }
    }

    #[test]
    fn rejects_oversized_length_prefix() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        buf[30..34].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(read_frame(&mut Cursor::new(&buf)).is_err());
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn buffer_assembles_frames_from_single_bytes() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &sample()).unwrap();
        let mut fb = FrameBuffer::new();
        for (i, b) in wire.iter().enumerate() {
            assert!(
                fb.next_frame().unwrap().is_none(),
                "frame early at byte {i}"
            );
            fb.extend(&[*b]);
        }
        let got = fb.next_frame().unwrap().expect("complete frame");
        assert_eq!(got, sample());
        assert!(!fb.has_partial());
        assert!(fb.is_empty());
    }

    #[test]
    fn buffer_drains_multiple_frames_from_one_read() {
        let mut wire = Vec::new();
        let mut b = sample();
        b.req_id = 99;
        write_frame(&mut wire, &sample()).unwrap();
        write_frame(&mut wire, &b).unwrap();
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        assert_eq!(fb.next_frame().unwrap().unwrap().req_id, 7);
        assert!(fb.has_partial());
        assert_eq!(fb.next_frame().unwrap().unwrap().req_id, 99);
        assert!(fb.next_frame().unwrap().is_none());
        assert!(!fb.has_partial());
    }

    #[test]
    fn buffer_flags_partial_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &sample()).unwrap();
        let mut fb = FrameBuffer::new();
        fb.extend(&wire[..10]);
        assert!(fb.next_frame().unwrap().is_none());
        assert!(fb.has_partial(), "header fragment counts as partial");
        fb.extend(&wire[10..HEADER_LEN + 3]);
        assert!(fb.next_frame().unwrap().is_none());
        assert!(fb.has_partial(), "payload fragment counts as partial");
        fb.extend(&wire[HEADER_LEN + 3..]);
        assert!(fb.next_frame().unwrap().is_some());
        assert!(!fb.has_partial());
    }

    #[test]
    fn buffer_rejects_corrupt_header_before_payload() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &sample()).unwrap();
        wire[0] = b'X';
        let mut fb = FrameBuffer::new();
        // Only the header has arrived; the corrupt magic must already fail.
        fb.extend(&wire[..HEADER_LEN]);
        assert!(fb.next_frame().is_err());
    }
}
