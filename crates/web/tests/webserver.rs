//! Full-stack tests of the thin Web interface: DM + PL + web routing.

use hedc_analysis::AlgorithmRegistry;
use hedc_dm::{pipeline, Dm, IngestConfig, IngestOptions, Rights};
use hedc_events::{generate, package, GenConfig};
use hedc_pl::{PlConfig, ProcessingLogic};
use hedc_web::{HttpRequest, WebServer};
use std::sync::Arc;

struct Stack {
    server: WebServer,
    dm: Arc<Dm>,
    pl: Arc<ProcessingLogic>,
    hle_id: i64,
}

fn stack() -> Stack {
    let dm = hedc_dm::testkit::dm();
    let telemetry = generate(&GenConfig {
        duration_ms: 15 * 60 * 1000,
        flares_per_hour: 8.0,
        background_rate: 15.0,
        seed: 909,
        ..GenConfig::default()
    });
    let import = dm.import_session();
    let cfg = IngestConfig::new(1, 2, dm.extended_catalog);
    let unit = package(&telemetry, usize::MAX, 1).remove(0);
    let mut run =
        pipeline::ingest(&dm.io, &import, &[unit], &cfg, &IngestOptions::default()).unwrap();
    let report = run.units.remove(0).report.expect("the unit ingests");
    assert!(!report.hle_ids.is_empty());
    dm.create_user("ana", "pw", "sci", Rights::SCIENTIST)
        .unwrap();
    let pl = ProcessingLogic::start(
        Arc::clone(&dm),
        Arc::new(AlgorithmRegistry::with_builtins()),
        PlConfig::default(),
    );
    Stack {
        server: WebServer::new(Arc::clone(&dm), Some(Arc::clone(&pl))),
        dm,
        pl,
        hle_id: report.hle_ids[0],
    }
}

#[test]
fn anonymous_browse_catalogs_and_events() {
    let s = stack();
    let resp = s
        .server
        .handle(&HttpRequest::get("/hedc/catalogs", "1.1.1.1"));
    assert_eq!(resp.status, 200);
    let html = resp.text();
    assert!(html.contains("extended"), "{html}");
    assert!(html.contains("standard"));

    let resp = s.server.handle(&HttpRequest::get(
        &format!("/hedc/catalog/{}", s.dm.extended_catalog),
        "1.1.1.1",
    ));
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains(&format!("/hedc/hle/{}", s.hle_id)));

    let resp = s.server.handle(&HttpRequest::get(
        &format!("/hedc/hle/{}", s.hle_id),
        "1.1.1.1",
    ));
    assert_eq!(resp.status, 200);
    let html = resp.text();
    assert!(html.contains("Analyses"));
    assert!(html.contains("Run analysis"));
    s.pl.shutdown();
}

#[test]
fn login_flow_sets_cookie_and_unlocks_analysis() {
    let s = stack();
    // Anonymous analyze attempt: denied.
    let resp = s.server.handle(
        &HttpRequest::post(&format!("/hedc/analyze/{}", s.hle_id), "9.9.9.9")
            .with_param("kind", "histogram"),
    );
    assert_eq!(resp.status, 403, "{}", resp.text());

    // Login.
    let resp = s.server.handle(
        &HttpRequest::post("/hedc/login", "9.9.9.9")
            .with_param("user", "ana")
            .with_param("password", "pw"),
    );
    assert_eq!(resp.status, 200);
    let cookie = resp.set_cookie.expect("login sets a cookie");

    // Analyze with the session.
    let resp = s.server.handle(
        &HttpRequest::post(&format!("/hedc/analyze/{}", s.hle_id), "9.9.9.9")
            .with_cookie(cookie)
            .with_param("kind", "histogram"),
    );
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(resp.text().contains("computed analysis"));

    // The same request again is answered from the catalog (§3.5).
    let resp = s.server.handle(
        &HttpRequest::post(&format!("/hedc/analyze/{}", s.hle_id), "9.9.9.9")
            .with_cookie(cookie)
            .with_param("kind", "histogram"),
    );
    assert!(resp.text().contains("reused existing"), "{}", resp.text());
    s.pl.shutdown();
}

#[test]
fn bad_login_is_401() {
    let s = stack();
    let resp = s.server.handle(
        &HttpRequest::post("/hedc/login", "9.9.9.9")
            .with_param("user", "ana")
            .with_param("password", "wrong"),
    );
    assert_eq!(resp.status, 401);
    s.pl.shutdown();
}

#[test]
fn ana_page_lists_result_files() {
    let s = stack();
    let cookie = {
        let resp = s.server.handle(
            &HttpRequest::post("/hedc/login", "7.7.7.7")
                .with_param("user", "ana")
                .with_param("password", "pw"),
        );
        resp.set_cookie.unwrap()
    };
    let resp = s.server.handle(
        &HttpRequest::post(&format!("/hedc/analyze/{}", s.hle_id), "7.7.7.7")
            .with_cookie(cookie)
            .with_param("kind", "lightcurve"),
    );
    let html = resp.text();
    let ana_id: i64 = html
        .split("/hedc/ana/")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .and_then(|s| s.parse().ok())
        .expect("analysis link in response");
    let resp = s
        .server
        .handle(&HttpRequest::get(&format!("/hedc/ana/{ana_id}"), "7.7.7.7").with_cookie(cookie));
    assert_eq!(resp.status, 200);
    let html = resp.text();
    assert!(html.contains("lightcurve"));
    assert!(html.contains("/files/"), "{html}");
    s.pl.shutdown();
}

#[test]
fn user_sql_requires_rights_and_rejects_dml() {
    let s = stack();
    // Anonymous: denied (download right required).
    let resp = s
        .server
        .handle(&HttpRequest::get("/hedc/sql", "2.2.2.2").with_param("q", "SELECT * FROM hle"));
    assert_eq!(resp.status, 403);

    let cookie = {
        let resp = s.server.handle(
            &HttpRequest::post("/hedc/login", "2.2.2.2")
                .with_param("user", "ana")
                .with_param("password", "pw"),
        );
        resp.set_cookie.unwrap()
    };
    let resp = s.server.handle(
        &HttpRequest::get("/hedc/sql", "2.2.2.2")
            .with_cookie(cookie)
            .with_param(
                "q",
                "SELECT event_type, COUNT(*) FROM hle GROUP BY event_type",
            ),
    );
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(resp.text().contains("COUNT(*)"));

    let resp = s.server.handle(
        &HttpRequest::get("/hedc/sql", "2.2.2.2")
            .with_cookie(cookie)
            .with_param("q", "DELETE FROM hle"),
    );
    assert_eq!(resp.status, 500);
    s.pl.shutdown();
}

#[test]
fn unknown_routes_and_ids_404() {
    let s = stack();
    assert_eq!(
        s.server
            .handle(&HttpRequest::get("/nope", "1.1.1.1"))
            .status,
        404
    );
    assert_eq!(
        s.server
            .handle(&HttpRequest::get("/hedc/hle/999999", "1.1.1.1"))
            .status,
        404
    );
    assert_eq!(
        s.server
            .handle(&HttpRequest::get("/hedc/hle/not-a-number", "1.1.1.1"))
            .status,
        404
    );
    s.pl.shutdown();
}

#[test]
fn hle_page_costs_about_seven_queries() {
    // §7.2: "on average, a request generates seven DM queries".
    let s = stack();
    // Attach one analysis so the page includes an ANA block.
    let cookie = {
        let resp = s.server.handle(
            &HttpRequest::post("/hedc/login", "3.3.3.3")
                .with_param("user", "ana")
                .with_param("password", "pw"),
        );
        resp.set_cookie.unwrap()
    };
    s.server.handle(
        &HttpRequest::post(&format!("/hedc/analyze/{}", s.hle_id), "3.3.3.3")
            .with_cookie(cookie)
            .with_param("kind", "histogram"),
    );
    let before = s.dm.io.databases()[0].stats();
    let resp = s.server.handle(&HttpRequest::get(
        &format!("/hedc/hle/{}", s.hle_id),
        "3.3.3.3",
    ));
    assert_eq!(resp.status, 200);
    let delta = s.dm.io.databases()[0].stats().since(&before);
    assert!(
        (2..=10).contains(&delta.queries),
        "HLE page issued {} queries",
        delta.queries
    );
    s.pl.shutdown();
}

#[test]
fn viz_density_returns_pgm() {
    let s = stack();
    let resp = s.server.handle(
        &HttpRequest::get("/hedc/viz/density", "5.5.5.5")
            .with_param("t0", 0)
            .with_param("t1", 900_000)
            .with_param("e0", 3.0)
            .with_param("e1", 100.0)
            .with_param("bins", 16),
    );
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.content_type, "image/x-portable-graymap");
    assert!(resp.body.starts_with(b"P5\n16 16\n255\n"));
    // Degenerate ranges rejected.
    let resp = s.server.handle(
        &HttpRequest::get("/hedc/viz/density", "5.5.5.5")
            .with_param("t0", 100)
            .with_param("t1", 100),
    );
    assert_eq!(resp.status, 404);
    s.pl.shutdown();
}

#[test]
fn summary_served_from_materialized_views() {
    let s = stack();
    // Refresh so the ingest's public events appear.
    s.dm.matviews.refresh_stale(0).unwrap();
    let before = s.dm.io.databases()[0].stats();
    let resp = s
        .server
        .handle(&HttpRequest::get("/hedc/summary", "6.6.6.6"));
    assert_eq!(resp.status, 200);
    let html = resp.text();
    assert!(html.contains("events_by_type"), "{html}");
    assert!(html.contains("flare") || html.contains("grb"), "{html}");
    // The whole page came from snapshots: zero base-table queries.
    let delta = s.dm.io.databases()[0].stats().since(&before);
    assert_eq!(delta.queries, 0);
    s.pl.shutdown();
}

#[test]
fn files_route_downloads_through_metadata() {
    let s = stack();
    let cookie = {
        let resp = s.server.handle(
            &HttpRequest::post("/hedc/login", "8.8.8.8")
                .with_param("user", "ana")
                .with_param("password", "pw"),
        );
        resp.set_cookie.unwrap()
    };
    // Produce an analysis, find its file link on the ana page.
    let resp = s.server.handle(
        &HttpRequest::post(&format!("/hedc/analyze/{}", s.hle_id), "8.8.8.8")
            .with_cookie(cookie)
            .with_param("kind", "spectrum"),
    );
    let ana_id: i64 = resp
        .text()
        .split("/hedc/ana/")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .and_then(|v| v.parse().ok())
        .unwrap();
    let page = s
        .server
        .handle(&HttpRequest::get(&format!("/hedc/ana/{ana_id}"), "8.8.8.8").with_cookie(cookie));
    let html = page.text();
    let link = html
        .split("href=\"/files/")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("a file link");
    // Anonymous download: denied (download right, §5.5).
    let resp = s
        .server
        .handle(&HttpRequest::get(&format!("/files/{link}"), "8.8.8.8"));
    assert_eq!(resp.status, 403);
    // Authorized download succeeds and streams bytes.
    let resp = s
        .server
        .handle(&HttpRequest::get(&format!("/files/{link}"), "8.8.8.8").with_cookie(cookie));
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.content_type, "application/octet-stream");
    assert!(!resp.body.is_empty());
    // Unknown path 404s.
    let resp = s
        .server
        .handle(&HttpRequest::get("/files/nope/missing.fits", "8.8.8.8").with_cookie(cookie));
    assert_eq!(resp.status, 404);
    s.pl.shutdown();
}

#[test]
fn user_sql_is_ownership_scoped() {
    // §5.5 applies to user-submitted SQL too: a user must not see another
    // user's private tuples through /hedc/sql.
    let s = stack();
    s.dm.create_user("rival", "pw", "sci", hedc_dm::Rights::SCIENTIST)
        .unwrap();
    let (ana_cookie, rival_cookie) = {
        let a = s.server.handle(
            &HttpRequest::post("/hedc/login", "ip-ana")
                .with_param("user", "ana")
                .with_param("password", "pw"),
        );
        let b = s.server.handle(
            &HttpRequest::post("/hedc/login", "ip-rival")
                .with_param("user", "rival")
                .with_param("password", "pw"),
        );
        (a.set_cookie.unwrap(), b.set_cookie.unwrap())
    };
    // ana computes a private analysis.
    s.server.handle(
        &HttpRequest::post(&format!("/hedc/analyze/{}", s.hle_id), "ip-ana")
            .with_cookie(ana_cookie)
            .with_param("kind", "histogram"),
    );
    // ana sees one analysis via SQL; rival sees zero.
    let mine = s.server.handle(
        &HttpRequest::get("/hedc/sql", "ip-ana")
            .with_cookie(ana_cookie)
            .with_param("q", "SELECT COUNT(*) FROM ana"),
    );
    assert!(mine.text().contains("<td>1</td>"), "{}", mine.text());
    let theirs = s.server.handle(
        &HttpRequest::get("/hedc/sql", "ip-rival")
            .with_cookie(rival_cookie)
            .with_param("q", "SELECT COUNT(*) FROM ana"),
    );
    assert!(theirs.text().contains("<td>0</td>"), "{}", theirs.text());
    s.pl.shutdown();
}

#[test]
fn files_route_enforces_tuple_visibility() {
    let s = stack();
    s.dm.create_user("rival", "pw", "sci", hedc_dm::Rights::SCIENTIST)
        .unwrap();
    let ana_cookie = s
        .server
        .handle(
            &HttpRequest::post("/hedc/login", "ip-ana")
                .with_param("user", "ana")
                .with_param("password", "pw"),
        )
        .set_cookie
        .unwrap();
    let rival_cookie = s
        .server
        .handle(
            &HttpRequest::post("/hedc/login", "ip-rival")
                .with_param("user", "rival")
                .with_param("password", "pw"),
        )
        .set_cookie
        .unwrap();
    // ana's private analysis produces files.
    let resp = s.server.handle(
        &HttpRequest::post(&format!("/hedc/analyze/{}", s.hle_id), "ip-ana")
            .with_cookie(ana_cookie)
            .with_param("kind", "spectrum"),
    );
    let ana_id: i64 = resp
        .text()
        .split("/hedc/ana/")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .and_then(|v| v.parse().ok())
        .unwrap();
    let page = s.server.handle(
        &HttpRequest::get(&format!("/hedc/ana/{ana_id}"), "ip-ana").with_cookie(ana_cookie),
    );
    let link = page
        .text()
        .split("href=\"/files/")
        .nth(1)
        .and_then(|r| r.split('"').next().map(str::to_string))
        .unwrap();
    // Owner downloads fine; the rival is denied even with download rights.
    let ok = s
        .server
        .handle(&HttpRequest::get(&format!("/files/{link}"), "ip-ana").with_cookie(ana_cookie));
    assert_eq!(ok.status, 200);
    let denied = s
        .server
        .handle(&HttpRequest::get(&format!("/files/{link}"), "ip-rival").with_cookie(rival_cookie));
    assert_eq!(denied.status, 403, "{}", denied.text());
    s.pl.shutdown();
}

#[test]
fn files_route_serves_the_requested_file_not_the_primary() {
    let s = stack();
    let cookie = s
        .server
        .handle(
            &HttpRequest::post("/hedc/login", "ip-x")
                .with_param("user", "ana")
                .with_param("password", "pw"),
        )
        .set_cookie
        .unwrap();
    let resp = s.server.handle(
        &HttpRequest::post(&format!("/hedc/analyze/{}", s.hle_id), "ip-x")
            .with_cookie(cookie)
            .with_param("kind", "histogram"),
    );
    let ana_id: i64 = resp
        .text()
        .split("/hedc/ana/")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .and_then(|v| v.parse().ok())
        .unwrap();
    let page = s
        .server
        .handle(&HttpRequest::get(&format!("/hedc/ana/{ana_id}"), "ip-x").with_cookie(cookie));
    // The page links several files; the run.log must come back as the log's
    // bytes, not the primary JSON result.
    let html = page.text();
    let log_link = html
        .split("href=\"/files/")
        .filter_map(|r| r.split('"').next())
        .find(|l| l.ends_with("run.log"))
        .expect("log link present");
    let resp = s
        .server
        .handle(&HttpRequest::get(&format!("/files/{log_link}"), "ip-x").with_cookie(cookie));
    assert_eq!(resp.status, 200);
    let body = resp.text();
    assert!(body.starts_with("kind=histogram"), "{body}");
}

#[test]
fn flight_recorder_trace_pages_serve_waterfalls() {
    let s = stack();
    // With a 1 us pin threshold this request is guaranteed to pin, so the
    // recorder has at least one trace for the pages below to serve. The
    // recorder is global: restore the threshold before asserting.
    let recorder = hedc_obs::recorder();
    let prev = recorder.pin_threshold_us();
    recorder.set_pin_threshold_us(1);
    let resp = s
        .server
        .handle(&HttpRequest::get("/hedc/catalogs", "1.1.1.1"));
    recorder.set_pin_threshold_us(prev);
    assert_eq!(resp.status, 200);

    let pinned = recorder.pinned();
    assert!(
        !pinned.is_empty(),
        "request did not pin at a 1 us threshold"
    );
    let trace_id = pinned[0].trace_id;

    let resp = s
        .server
        .handle(&HttpRequest::get("/hedc/traces", "1.1.1.1"));
    assert_eq!(resp.status, 200);
    let html = resp.text();
    assert!(html.contains("Flight recorder"), "{html}");
    assert!(html.contains(&format!("/hedc/trace/{trace_id}")), "{html}");

    let resp = s.server.handle(&HttpRequest::get(
        &format!("/hedc/trace/{trace_id}"),
        "1.1.1.1",
    ));
    assert_eq!(resp.status, 200);
    let html = resp.text();
    assert!(html.contains(&format!("Trace {trace_id}")), "{html}");

    let resp = s.server.handle(&HttpRequest::get(
        &format!("/hedc/trace/{trace_id}.json"),
        "1.1.1.1",
    ));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type, "application/json");
    let body = resp.text();
    assert!(body.contains("\"breakdown\""), "{body}");
    assert!(body.contains("\"queue_us\""), "{body}");

    // Unknown / malformed ids are 404s, not 500s.
    let resp = s
        .server
        .handle(&HttpRequest::get("/hedc/trace/notanumber", "1.1.1.1"));
    assert_eq!(resp.status, 404);
    s.pl.shutdown();
}

#[test]
fn stats_page_renders_the_processing_section() {
    let s = stack();
    // The PL registers its reuse/coalescing metrics at start, so the
    // section renders (zero-valued) before any request flows.
    let resp = s.server.handle(&HttpRequest::get("/hedc/stats", "9.9.9.9"));
    assert_eq!(resp.status, 200);
    let html = resp.text();
    assert!(html.contains("== processing =="), "{html}");
    assert!(html.contains("reuse"), "{html}");
    assert!(html.contains("coalesce"), "{html}");
    assert!(html.contains("inflight_groups"), "{html}");
    assert!(html.contains("queue_sessions"), "{html}");
    s.pl.shutdown();
}
