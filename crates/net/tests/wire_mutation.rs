//! Seeded byte mutation of the wire format: no input off a socket may panic
//! the frame assembler or the message decoder.
//!
//! A corpus of valid frames — every [`Request`] and [`Response`] variant —
//! is damaged four ways (bytes flipped, the tail truncated, a slice of
//! another frame spliced in, bytes appended) and fed to a [`FrameBuffer`]
//! in seeded chunk sizes, the way a nonblocking reader would deliver it.
//! Every frame the buffer releases goes through [`proto::decode`] for its
//! kind. The only acceptable outcomes are a valid message, a typed
//! `InvalidData` error, or "keep reading"; a panic fails the test, and the
//! printed seed replays it (`HEDC_TEST_SEED`, `scripts/check.sh --seed`).

use hedc_dm::testkit::{Seed, Stream};
use hedc_dm::{NameType, ResolvedName, ShardMap};
use hedc_metadb::{AccessPath, AggFunc, ExecStats, Expr, OrderDir, Query, QueryResult, Value};
use hedc_net::frame::{self, Frame, FrameBuffer, FrameKind};
use hedc_net::proto::{self, Request, Response, WireError, WireErrorKind};
use std::io::ErrorKind;

const CASES: usize = 50_000;

/// A draw in `0..n`, and 0 for an empty range.
fn below(state: &mut Stream, n: usize) -> usize {
    state.below(n.max(1) as u64) as usize
}

fn requests() -> Vec<Request> {
    let browse = Query::table("hle")
        .select(&["id", "event_type"])
        .filter(Expr::between("time_end", 500, 1500).and(Expr::eq("public", true)))
        .order_by("time_end", OrderDir::Desc)
        .limit(20)
        .offset(5);
    let counts = Query::table("ana")
        .group_by("kind")
        .aggregate(AggFunc::CountStar)
        .aggregate(AggFunc::Avg("duration_ms".into()));
    let resolve = Request::Resolve {
        item_id: 42,
        name_type: NameType::Url,
    };
    vec![
        Request::Ping,
        Request::FetchShardMap,
        resolve.clone(),
        Request::Query(counts),
        Request::Batch(vec![Request::Query(browse.clone()), resolve, Request::Ping]),
        Request::Sharded {
            shard: 1,
            epoch: 7,
            inner: Box::new(Request::Query(browse)),
        },
    ]
}

fn responses() -> Vec<Response> {
    let result = QueryResult {
        columns: vec!["id".into(), "label".into(), "rate".into(), "public".into()],
        rows: vec![
            vec![
                Value::Int(-3),
                Value::Text("fl\"are\\ \u{2603}".into()),
                Value::Float(1.5e-3),
                Value::Bool(true),
            ],
            vec![
                Value::Timestamp(1_000),
                Value::Null,
                Value::Float(0.0),
                Value::Bool(false),
            ],
        ],
        stats: ExecStats {
            rows_scanned: 12,
            rows_returned: 2,
            rows_sorted: 2,
            access: AccessPath::FullScan,
        },
    };
    let names = vec![ResolvedName {
        entry_id: 7,
        name_type: NameType::File,
        archive_id: 2,
        archive_path: "v1/raw/u1.fits".into(),
        entry_path: "raw/u1.fits".into(),
        full_name: "file:hedc/v1/raw/u1.fits#9".into(),
        url: Some("http://hedc.ethz.ch/data/v1/raw/u1.fits".into()),
        size: 4096,
        role: "data".into(),
        transforms: vec!["gunzip".into()],
    }];
    let error = Response::Error(WireError {
        kind: WireErrorKind::ShardUnavailable(3),
        message: "every replica is down".into(),
    });
    vec![
        Response::Pong {
            node_id: "dm-1".into(),
            epoch: 9,
        },
        Response::Redirect { shard: 1, epoch: 9 },
        Response::ShardMap(
            ShardMap::new(2)
                .with_hash("loc_item", "item_id", 8)
                .with_range("hle", "time_end", vec![1000], vec![0, 1]),
        ),
        error.clone(),
        Response::Names(names.clone()),
        Response::Batch(vec![
            Response::Result(result.clone()),
            error,
            Response::Names(names),
        ]),
        Response::Result(result),
    ]
}

/// The corpus, encoded: one valid frame per message.
fn corpus() -> Vec<Vec<u8>> {
    let encode = |kind, payload, req_id| {
        frame::encode_frame(&Frame {
            kind,
            trace_id: 0xDEAD_BEEF,
            span_id: 42,
            req_id,
            payload,
        })
        .expect("corpus frame encodes")
    };
    let mut frames = Vec::new();
    for (i, r) in requests().iter().enumerate() {
        let payload = proto::encode(r).expect("request encodes");
        frames.push(encode(FrameKind::Request, payload, i as u64));
    }
    for (i, r) in responses().iter().enumerate() {
        let payload = proto::encode(r).expect("response encodes");
        frames.push(encode(FrameKind::Response, payload, 100 + i as u64));
    }
    frames
}

/// Damage `bytes` one seeded way; `donor` supplies splice material.
fn mutate(state: &mut Stream, bytes: &mut Vec<u8>, donor: &[u8]) {
    match below(state, 4) {
        0 => {
            for _ in 0..1 + below(state, 4) {
                let at = below(state, bytes.len());
                bytes[at] ^= 1 << below(state, 8);
            }
        }
        1 => bytes.truncate(below(state, bytes.len())),
        2 => {
            let from = below(state, donor.len());
            let take = below(state, donor.len() - from);
            let at = below(state, bytes.len());
            let end = (at + below(state, take + 1)).min(bytes.len());
            bytes.splice(at..end, donor[from..from + take].iter().copied());
        }
        _ => {
            for _ in 0..1 + below(state, 64) {
                bytes.push(state.draw() as u8);
            }
        }
    }
}

/// Feed `bytes` to a fresh assembler in seeded chunks and decode whatever
/// it releases. Returns how many frames decoded to a valid message.
fn deliver(state: &mut Stream, bytes: &[u8]) -> usize {
    let mut buf = FrameBuffer::new();
    let mut valid = 0;
    let mut rest = bytes;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(1 + below(state, rest.len()));
        rest = tail;
        buf.extend(chunk);
        loop {
            match buf.next_frame() {
                Ok(Some(f)) => {
                    let decoded = match f.kind {
                        FrameKind::Request => proto::decode::<Request>(&f.payload).map(drop),
                        FrameKind::Response => proto::decode::<Response>(&f.payload).map(drop),
                    };
                    match decoded {
                        Ok(()) => valid += 1,
                        Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}"),
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // A corrupt header: the connection would be dropped.
                    assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
                    return valid;
                }
            }
        }
    }
    valid
}

#[test]
fn mutated_frames_never_panic_the_assembler_or_the_decoder() {
    let corpus = corpus();
    let mut state = Seed::from_env(0x0B17_F11B).stream("mutations");

    // The corpus itself is valid, however it is chunked.
    for bytes in &corpus {
        assert_eq!(deliver(&mut state, bytes), 1);
    }

    let mut still_valid = 0usize;
    for _ in 0..CASES {
        // One to three frames back to back, each damaged up to three times.
        let mut stream = Vec::new();
        for _ in 0..1 + below(&mut state, 3) {
            let mut bytes = corpus[below(&mut state, corpus.len())].clone();
            let donor = &corpus[below(&mut state, corpus.len())];
            for _ in 0..below(&mut state, 4) {
                if !bytes.is_empty() {
                    mutate(&mut state, &mut bytes, donor);
                }
            }
            stream.extend(bytes);
        }
        still_valid += deliver(&mut state, &stream);
    }
    // The mutations are small, so much of the stream survives them: the
    // run exercised the accepting paths too, not only rejection.
    assert!(still_valid > CASES / 10, "only {still_valid} valid frames");
}
