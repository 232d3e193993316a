//! The offline serde stand-ins against the program's real derived types:
//! everything that crosses the wire, the WAL or a config file must survive
//! a JSON round trip, and malformed input must come back as an error.

use hedc_core::HedcConfig;
use hedc_dm::{NameType, ShardMap};
use hedc_metadb::{
    AccessPath, AggFunc, CmpOp, ExecStats, Expr, LogRecord, OrderDir, Query, QueryResult,
    StorageBackend, Value,
};
use hedc_net::proto::{self, Request, Response};

fn sample_query() -> Query {
    Query::table("hle")
        .select(&["id", "title"])
        .filter(
            Expr::between("time_end", 10, 2_000)
                .and(Expr::eq("public", true).or(Expr::eq("owner", 7)))
                .and(Expr::in_list("id", [1i64, 2, 3]))
                .and(Expr::cmp("title", CmpOp::Ne, "a \"quoted\"\nname")),
        )
        .order_by("n_photons", OrderDir::Desc)
        .limit(10)
        .offset(2)
        .aggregate(AggFunc::Avg("peak_rate".into()))
        .group_by("event_type")
}

#[test]
fn wire_messages_round_trip() {
    let q = sample_query();
    let request = Request::Sharded {
        shard: 1,
        epoch: 9,
        inner: Box::new(Request::Batch(vec![
            Request::Query(q.clone()),
            Request::Resolve {
                item_id: 42,
                name_type: NameType::File,
            },
            Request::Ping,
        ])),
    };
    let bytes = proto::encode(&request).unwrap();
    let back: Request = proto::decode(&bytes).unwrap();
    assert_eq!(format!("{request:?}"), format!("{back:?}"));

    let result = QueryResult {
        columns: vec!["id".into(), "v".into()],
        rows: vec![
            vec![Value::Int(-3), Value::Float(1.5e-7)],
            vec![Value::Timestamp(i64::MAX), Value::Null],
            vec![Value::Bool(true), Value::Bytes(vec![0, 255, 7])],
            vec![Value::Text("é😀\t\\".into()), Value::Float(3.0)],
        ],
        stats: ExecStats {
            rows_scanned: 4,
            rows_returned: 4,
            rows_sorted: 0,
            access: AccessPath::Index {
                name: "hle_time".into(),
                point: false,
            },
        },
    };
    let bytes = proto::encode(&Response::Result(result.clone())).unwrap();
    match proto::decode::<Response>(&bytes).unwrap() {
        Response::Result(back) => {
            assert_eq!(back.columns, result.columns);
            assert_eq!(format!("{:?}", back.rows), format!("{:?}", result.rows));
            assert_eq!(back.stats.access, result.stats.access);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn malformed_payloads_are_errors_not_panics() {
    for bad in [
        &b""[..],
        b"{",
        b"{\"Query\":",
        b"{\"NoSuchVariant\":1}",
        b"{\"Query\":{\"table\":7}}",
        b"\"Ping\" trailing",
        b"[[[[[[[[[[[[[[[[",
    ] {
        assert!(proto::decode::<Request>(bad).is_err(), "{bad:?}");
    }
    let deep = format!("{}1{}", "{\"Batch\":[".repeat(5000), "]}".repeat(5000));
    assert!(proto::decode::<Request>(deep.as_bytes()).is_err());
}

#[test]
fn wal_records_config_and_shard_map_round_trip() {
    let rec = LogRecord::Insert {
        table: "ana".into(),
        row_id: 17,
        values: vec![Value::Int(1), Value::Text("x".into()), Value::Null],
    };
    let line = serde_json::to_string(&rec).unwrap();
    assert!(!line.contains('\n'), "a WAL record is one line");
    let back: LogRecord = serde_json::from_str(&line).unwrap();
    assert_eq!(format!("{rec:?}"), format!("{back:?}"));
    let commit: LogRecord = serde_json::from_str("\"Commit\"").unwrap();
    assert!(matches!(commit, LogRecord::Commit));

    // Defaults for fields an older config file lacks; lowercase enum names.
    let mut cfg = HedcConfig::default();
    cfg.storage.backend = StorageBackend::Paged;
    let json = cfg.to_json();
    assert!(json.contains("\"backend\": \"paged\""));
    let back = HedcConfig::from_json(&json).unwrap();
    assert_eq!(back.storage, cfg.storage);
    let mut doc: serde_json::Value = serde_json::from_str(&json).unwrap();
    let fields = doc.as_object_mut().unwrap();
    for newer in ["slow_query_ms", "storage", "net_workers", "slow_trace_ms"] {
        fields.remove(newer);
    }
    let old = HedcConfig::from_json(&doc.to_string()).unwrap();
    assert_eq!(old.slow_query_ms, HedcConfig::default().slow_query_ms);
    assert_eq!(old.storage, HedcConfig::default().storage);

    let map = ShardMap::new(2)
        .with_range("hle", "time_end", vec![10, 20], vec![0, 1, 0])
        .with_hash("loc_item", "item_id", 8);
    let back: ShardMap = serde_json::from_str(&serde_json::to_string(&map).unwrap()).unwrap();
    assert_eq!(back, map);
}
