//! Integration tests for the cluster story (§5.4/§7.3): several DM nodes
//! behind the router, browse load spread across them, node failure and
//! recovery, and the partitioned-database configuration.

use hedc_dm::testkit::{dm, dm_with};
use hedc_dm::{Dm, DmConfig, DmNode, DmRouter, FaultyDmNode, HleSpec, Partitioning};
use hedc_metadb::{AggFunc, Expr, Query};
use std::sync::Arc;

/// A replica behind the steady fault wrapper: it fails only when a test
/// flips it down.
fn replica(events: i64, label: &str) -> Arc<FaultyDmNode<Dm>> {
    Arc::new(FaultyDmNode::steady(seeded_node(events), label))
}

fn seeded_node(events: i64) -> Arc<Dm> {
    let dm = dm();
    let session = dm.import_session();
    let svc = dm.services();
    for i in 0..events {
        let id = svc
            .create_hle(
                &session,
                &HleSpec::window(i as u64 * 1000, i as u64 * 1000 + 500, "flare"),
            )
            .unwrap();
        svc.publish(&session, "hle", id).unwrap();
    }
    dm
}

#[test]
fn router_spreads_browse_load_and_survives_failures() {
    // Three replicas of the same catalog (read scale-out, §7.3).
    let nodes: Vec<_> = (0..3).map(|i| replica(40, &format!("node-{i}"))).collect();
    let router = DmRouter::new(
        nodes
            .iter()
            .map(|n| Arc::clone(n) as Arc<dyn DmNode>)
            .collect(),
    );

    // Browse mix round-robins over all nodes.
    for _ in 0..30 {
        let r = router
            .execute_query(
                &Query::table("hle")
                    .filter(Expr::eq("public", true))
                    .limit(10),
            )
            .unwrap();
        assert_eq!(r.rows.len(), 10);
    }
    for n in &nodes {
        assert_eq!(n.counts().passed, 10, "even spread");
    }

    // Node 1 dies; traffic flows on.
    nodes[1].set_down(true);
    for _ in 0..20 {
        router
            .execute_query(&Query::table("hle").aggregate(AggFunc::CountStar))
            .unwrap();
    }
    assert_eq!(nodes[1].counts().passed, 10, "no calls while down");

    // It comes back and rejoins the rotation.
    nodes[1].set_down(false);
    for _ in 0..6 {
        router.execute_query(&Query::table("hle").limit(1)).unwrap();
    }
    assert!(nodes[1].counts().passed > 10);
}

#[test]
fn partitioned_databases_separate_browse_from_processing() {
    // §5.2: "data requests for certain parts of a database schema are
    // routed to a different DBMS. We use this feature to separate
    // processing from browsing clients."
    let config = DmConfig {
        databases: 2,
        partitioning: Partitioning::single()
            .route("raw_unit", 1)
            .route("view_meta", 1),
        ..DmConfig::default()
    };
    let dm = dm_with(config);
    let session = dm.import_session();

    // Browse writes land on db 0; processing-side tables on db 1.
    let svc = dm.services();
    let hle = svc
        .create_hle(&session, &HleSpec::window(0, 1000, "flare"))
        .unwrap();
    let _ = hle;
    dm.io
        .insert(
            "raw_unit",
            vec![
                hedc_metadb::Value::Int(999),
                hedc_metadb::Value::Int(0),
                hedc_metadb::Value::Int(0),
                hedc_metadb::Value::Int(1000),
                hedc_metadb::Value::Int(10),
                hedc_metadb::Value::Int(1),
                hedc_metadb::Value::Int(1),
                hedc_metadb::Value::Int(100),
                hedc_metadb::Value::Bool(false),
            ],
        )
        .unwrap();

    let dbs = dm.io.databases();
    assert_eq!(dbs[0].row_count("hle").unwrap(), 1);
    assert_eq!(dbs[1].row_count("hle").unwrap(), 0);
    assert_eq!(dbs[0].row_count("raw_unit").unwrap(), 0);
    assert_eq!(dbs[1].row_count("raw_unit").unwrap(), 1);

    // Query stats prove isolation: browsing hle doesn't touch db 1.
    let before = dbs[1].stats();
    for _ in 0..5 {
        dm.io.query(&Query::table("hle")).unwrap();
    }
    assert_eq!(dbs[1].stats().since(&before).queries, 0);
}

#[test]
fn network_accounting_scales_with_traffic() {
    let node = replica(5, "far-node");
    let hop_us = 2_000;
    let router = DmRouter::new(vec![Arc::clone(&node) as Arc<dyn DmNode>]);
    for _ in 0..10 {
        router.execute_query(&Query::table("hle").limit(1)).unwrap();
    }
    // 10 calls × 2 ms hop × 2 directions.
    assert_eq!(node.counts().passed * 2 * hop_us, 40_000);
}
