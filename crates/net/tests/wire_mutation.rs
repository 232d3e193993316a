//! Seeded byte mutation of the wire format (v3, binary payloads): no input
//! off a socket may panic the frame assembler or the message decoder — and
//! seeded round trips: what the decoder accepts is what the encoder wrote.
//!
//! A corpus of valid frames — every [`Request`] and [`Response`] variant,
//! every [`Value`] variant at its awkward edges, empty and zero-column
//! results, a 64-entry batch — is damaged four ways (bytes flipped, the tail truncated, a slice of
//! another frame spliced in, bytes appended) and fed to a [`FrameBuffer`]
//! in seeded chunk sizes, the way a nonblocking reader would deliver it.
//! Every frame the buffer releases goes through [`proto::decode`] for its
//! kind. The only acceptable outcomes are a valid message, a typed
//! `InvalidData` error, or "keep reading"; a panic fails the test, and the
//! printed seed replays it (`HEDC_TEST_SEED`, `scripts/check.sh --seed`).

use hedc_dm::testkit::{Seed, Stream};
use hedc_dm::{NameType, ResolvedName, ShardMap};
use hedc_metadb::{
    AccessPath, AggFunc, ArithOp, CmpOp, ExecStats, Expr, OrderDir, Projection, Query, QueryResult,
    Value,
};
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
    let resolve_batch = (0..64)
        .map(|item_id| Request::Resolve {
            item_id,
            name_type: NameType::File,
        })
        .collect();
    vec![
        Request::Ping,
        Request::FetchShardMap,
        resolve.clone(),
        Request::Query(counts),
        Request::Batch(vec![Request::Query(browse.clone()), resolve, Request::Ping]),
        Request::Batch(resolve_batch),
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
    let stats = |rows_returned| ExecStats {
        rows_scanned: 40,
        rows_returned,
        rows_sorted: 0,
        access: AccessPath::IndexMultiPoint {
            name: "hle_pk".into(),
            probes: 3,
        },
    };
    // Every value variant, at the edges a text codec gets wrong.
    let edges = QueryResult {
        columns: vec!["v".into()],
        rows: [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Text(String::new()),
            Value::Text("h\u{e9}llo \u{1F600}\0".into()),
            Value::Bool(true),
            Value::Timestamp(i64::MAX),
            Value::Bytes(Vec::new()),
            Value::Bytes((0..=255).collect()),
        ]
        .into_iter()
        .map(|v| vec![v])
        .collect(),
        stats: stats(10),
    };
    let empty = QueryResult {
        columns: vec!["id".into(), "label".into()],
        rows: Vec::new(),
        stats: stats(0),
    };
    let zero_columns = QueryResult {
        columns: Vec::new(),
        rows: vec![Vec::new(), Vec::new()],
        stats: stats(2),
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
        Response::Result(edges),
        Response::Batch(vec![
            Response::Result(empty),
            Response::Result(zero_columns),
        ]),
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

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

fn arb_text(state: &mut Stream) -> String {
    const ALPHABET: [char; 10] = [
        'a',
        'Z',
        '_',
        ' ',
        '"',
        '\\',
        '\0',
        '\u{e9}',
        '\u{2603}',
        '\u{1F600}',
    ];
    (0..below(state, 12))
        .map(|_| *state.pick(&ALPHABET))
        .collect()
}

fn arb_value(state: &mut Stream) -> Value {
    match below(state, 7) {
        0 => Value::Null,
        1 => Value::Int(state.draw() as i64),
        // Any bit pattern: NaN payloads, infinities, subnormals, -0.0.
        2 => Value::Float(f64::from_bits(state.draw())),
        3 => Value::Text(arb_text(state)),
        4 => Value::Bool(state.per_mille(500)),
        5 => Value::Timestamp(state.draw() as i64),
        _ => Value::Bytes((0..below(state, 20)).map(|_| state.draw() as u8).collect()),
    }
}

fn arb_expr(state: &mut Stream, depth: usize) -> Expr {
    let sub = |state: &mut Stream| Box::new(arb_expr(state, depth + 1));
    // Leaves only, once the tree is deep enough.
    match below(state, if depth >= 5 { 3 } else { 12 }) {
        0 => Expr::Literal(arb_value(state)),
        1 => Expr::Name(arb_text(state)),
        2 => Expr::Col(below(state, 40)),
        3 => {
            let ops = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            Expr::Cmp(*state.pick(&ops), sub(state), sub(state))
        }
        4 => Expr::And(sub(state), sub(state)),
        5 => Expr::Or(sub(state), sub(state)),
        6 => Expr::Not(sub(state)),
        7 => Expr::IsNull {
            expr: sub(state),
            negated: state.per_mille(500),
        },
        8 => Expr::Between {
            expr: sub(state),
            lo: sub(state),
            hi: sub(state),
        },
        9 => Expr::InList {
            expr: sub(state),
            list: (0..below(state, 5))
                .map(|_| arb_expr(state, depth + 1))
                .collect(),
        },
        10 => Expr::Like {
            expr: sub(state),
            pattern: arb_text(state),
        },
        _ => {
            let ops = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div];
            Expr::Arith(*state.pick(&ops), sub(state), sub(state))
        }
    }
}

fn arb_query(state: &mut Stream) -> Query {
    let texts = |state: &mut Stream| (0..below(state, 4)).map(|_| arb_text(state)).collect();
    let some_usize = |state: &mut Stream| {
        state
            .per_mille(500)
            .then(|| state.draw() as usize >> below(state, 64))
    };
    Query {
        table: arb_text(state),
        projection: if state.per_mille(500) {
            Projection::All
        } else {
            Projection::Columns(texts(state))
        },
        filter: state.per_mille(800).then(|| arb_expr(state, 0)),
        order_by: (0..below(state, 3))
            .map(|_| {
                (
                    arb_text(state),
                    *state.pick(&[OrderDir::Asc, OrderDir::Desc]),
                )
            })
            .collect(),
        limit: some_usize(state),
        offset: some_usize(state),
        aggregates: (0..below(state, 3))
            .map(|_| match below(state, 6) {
                0 => AggFunc::CountStar,
                1 => AggFunc::Count(arb_text(state)),
                2 => AggFunc::Sum(arb_text(state)),
                3 => AggFunc::Avg(arb_text(state)),
                4 => AggFunc::Min(arb_text(state)),
                _ => AggFunc::Max(arb_text(state)),
            })
            .collect(),
        group_by: texts(state),
    }
}

fn arb_result(state: &mut Stream) -> QueryResult {
    let width = below(state, 6);
    let rows: Vec<Vec<Value>> = (0..below(state, 8))
        .map(|_| (0..width).map(|_| arb_value(state)).collect())
        .collect();
    QueryResult {
        columns: (0..width).map(|_| arb_text(state)).collect(),
        stats: ExecStats {
            rows_scanned: below(state, 1 << 20),
            rows_returned: rows.len(),
            rows_sorted: below(state, 100),
            access: match below(state, 3) {
                0 => AccessPath::FullScan,
                1 => AccessPath::Index {
                    name: arb_text(state),
                    point: state.per_mille(500),
                },
                _ => AccessPath::IndexMultiPoint {
                    name: arb_text(state),
                    probes: below(state, 64),
                },
            },
        },
        rows,
    }
}

/// The query a round-trip request carries, whatever it is wrapped in.
fn query_in(request: Request) -> Query {
    match request {
        Request::Query(q) => q,
        Request::Batch(mut entries) => query_in(entries.pop().expect("a query entry")),
        Request::Sharded { inner, .. } => query_in(*inner),
        other => panic!("no query in {other:?}"),
    }
}

#[test]
fn what_was_encoded_is_what_decodes() {
    let mut state = Seed::from_env(0x0B17_F11B).stream("round-trips");
    for _ in 0..2_000 {
        let q = arb_query(&mut state);
        let request = match below(&mut state, 3) {
            0 => Request::Query(q.clone()),
            1 => Request::Batch(vec![Request::Ping, Request::Query(q.clone())]),
            _ => Request::Sharded {
                shard: state.draw() as u32,
                epoch: state.draw(),
                inner: Box::new(Request::Query(q.clone())),
            },
        };
        let bytes = proto::encode(&request).expect("encodes");
        let back: Request = proto::decode(&bytes).expect("decodes");
        assert_eq!(format!("{back:?}"), format!("{request:?}"));
        // Debug prints every NaN alike; the bytes do not. Equal re-encoding
        // is bit-identical floats, in literals as in rows.
        assert_eq!(proto::encode(&back).expect("re-encodes"), bytes);
        assert_eq!(query_in(back).fingerprint(), q.fingerprint());

        let result = arb_result(&mut state);
        let response = Response::Result(result.clone());
        let bytes = proto::encode(&response).expect("encodes");
        let Response::Result(back) = proto::decode(&bytes).expect("decodes") else {
            panic!("a result decoded to another variant");
        };
        assert_eq!(format!("{back:?}"), format!("{result:?}"));
        for (sent, got) in result.rows.iter().flatten().zip(back.rows.iter().flatten()) {
            if let (Value::Float(sent), Value::Float(got)) = (sent, got) {
                assert_eq!(sent.to_bits(), got.to_bits());
            }
        }
        assert_eq!(
            proto::encode(&Response::Result(back)).expect("re-encodes"),
            bytes
        );
    }
}
