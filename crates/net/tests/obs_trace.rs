//! Trace propagation through `Request::Batch` frames, per-entry server
//! spans (error paths included), and the structured slow-request event.

mod common;

use common::{boot, browse_query};
use hedc_dm::{DmNode, NameType};
use hedc_metadb::Query;
use hedc_net::ServerConfig;
use hedc_obs::FinishedSpan;
use std::time::Duration;

fn by_name<'a>(spans: &'a [FinishedSpan], name: &str) -> Vec<&'a FinishedSpan> {
    spans.iter().filter(|s| s.name == name).collect()
}

/// A mixed batch (queries, one of which fails) must stay one trace across
/// the wire: root -> net.rpc.client -> net.rpc.server -> one
/// net.rpc.server.entry per batch member, with the failing entry getting a
/// span just like the successful ones.
#[test]
fn batch_entries_join_the_callers_trace_including_errors() {
    let (mut server, client) = boot("trace-batch", ServerConfig::default());

    let root = hedc_obs::Span::root("test.batch_trace");
    let trace_id = root.context().trace_id;
    let root_span_id = root.context().span_id;
    let queries = [
        browse_query(),
        Query::table("no_such_table"),
        Query::table("catalog"),
    ];
    let results = client.execute_batch(&queries);
    drop(root);
    server.shutdown();

    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok(), "{:?}", results[0]);
    assert!(results[1].is_err(), "bad table must fail its entry");
    assert!(results[2].is_ok(), "{:?}", results[2]);

    let spans = hedc_obs::span_store().spans_for(trace_id);
    let client_spans = by_name(&spans, "net.rpc.client");
    assert_eq!(client_spans.len(), 1, "one wire frame for the whole batch");
    assert_eq!(client_spans[0].parent_id, root_span_id);

    let server_spans = by_name(&spans, "net.rpc.server");
    assert_eq!(server_spans.len(), 1);
    assert_eq!(
        server_spans[0].parent_id, client_spans[0].span_id,
        "server span must be a child of the client RPC span"
    );

    let entries = by_name(&spans, "net.rpc.server.entry");
    assert_eq!(
        entries.len(),
        3,
        "every batch member gets a span, error entries included: {spans:?}"
    );
    for entry in &entries {
        assert_eq!(entry.parent_id, server_spans[0].span_id);
    }
}

/// A homogeneous resolve batch takes the batched name-mapping path, and its
/// dedicated span joins the caller's trace.
#[test]
fn homogeneous_resolve_batch_traces_the_batched_path() {
    let (mut server, client) = boot("trace-resolve", ServerConfig::default());

    let root = hedc_obs::Span::root("test.resolve_trace");
    let trace_id = root.context().trace_id;
    let results = client.resolve_batch(&[901, 902, 903], NameType::File);
    drop(root);
    server.shutdown();

    assert_eq!(results.len(), 3);
    let spans = hedc_obs::span_store().spans_for(trace_id);
    let batched = by_name(&spans, "net.rpc.server.resolve_batch");
    assert_eq!(batched.len(), 1, "{spans:?}");
    let server_spans = by_name(&spans, "net.rpc.server");
    assert_eq!(batched[0].parent_id, server_spans[0].span_id);
    assert!(
        by_name(&spans, "net.rpc.server.entry").is_empty(),
        "the batched path must not also mint per-entry spans"
    );
}

/// With a zero slow-request threshold every request is slow: the server
/// must emit a structured `slow_request` event carrying the caller's trace
/// ID, the request label, and the peer address.
#[test]
fn slow_requests_emit_structured_event_with_trace_and_peer() {
    let config = ServerConfig {
        slow_request: Duration::ZERO,
        ..ServerConfig::default()
    };
    let (mut server, client) = boot("trace-slow", config);

    let root = hedc_obs::Span::root("test.slow_request");
    let trace_id = root.context().trace_id;
    client
        .execute_query(&Query::table("catalog"))
        .expect("query");
    drop(root);
    server.shutdown();

    let events: Vec<_> = hedc_obs::event_log()
        .events_of_kind(hedc_obs::kind::SLOW_REQUEST)
        .into_iter()
        .filter(|e| e.trace_id == trace_id)
        .collect();
    assert_eq!(events.len(), 1, "exactly one slow-request for one query");
    let detail = &events[0].detail;
    assert!(detail.contains("request=query"), "{detail}");
    assert!(detail.contains("peer=127.0.0.1"), "{detail}");
    assert!(detail.contains("elapsed_us="), "{detail}");
}
