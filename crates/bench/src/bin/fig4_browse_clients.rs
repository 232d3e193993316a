//! Figure 4: browse throughput versus number of simultaneous clients on a
//! single middle-tier server (§7.3).
//!
//! Paper shape: throughput peaks at ≈ 16 requests/s around 16 clients
//! (database near its ≈ 120 query/s ceiling), then *degrades* to ≈ 3
//! requests/s at 96 clients — caused by the application logic, not the
//! database.

use hedc_bench::attribution::{run_browse_attribution, AttributionConfig};
use hedc_bench::cluster::run_fig4_net;
use hedc_core::HedcConfig;
use hedc_sim::browse::{figure4, figure4_batched};
use std::time::Duration;

fn batch_mode_enabled() -> bool {
    std::env::args().any(|a| a == "--batch")
        || std::env::var("HEDC_BATCH").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn attribution_mode_enabled() -> bool {
    std::env::args().any(|a| a == "--attribution")
        || std::env::var("HEDC_ATTRIBUTION").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn main() {
    let clients = [8usize, 16, 24, 32, 48, 64, 80, 96];
    // The paper's figure marks 16..96; paper values read off Figure 4's
    // stated anchors (peak ≈16 rps at 16 clients, ≈3 rps at 96).
    let paper: [(usize, Option<f64>); 8] = [
        (8, None),
        (16, Some(16.0)),
        (24, None),
        (32, None),
        (48, None),
        (64, None),
        (80, None),
        (96, Some(3.0)),
    ];

    println!("Figure 4 — browse throughput vs clients (1 middle-tier node)");
    println!("{:-<74}", "");
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "clients", "req/s", "paper", "delta", "DB q/s", "resp [s]"
    );
    let results = figure4(&clients);
    let mut rows = Vec::new();
    for (r, (_, paper_v)) in results.iter().zip(paper.iter()) {
        let paper_s = paper_v
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "-".into());
        let delta = paper_v
            .map(|v| hedc_bench::vs_paper(r.requests_per_second, v))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>8} {:>12.2} {:>12} {:>10} {:>12.1} {:>12.2}",
            r.config.clients,
            r.requests_per_second,
            paper_s,
            delta,
            r.db_queries_per_second,
            r.avg_response_s
        );
        rows.push(serde_json::json!({
            "clients": r.config.clients,
            "requests_per_second": r.requests_per_second,
            "paper_requests_per_second": paper_v,
            "db_queries_per_second": r.db_queries_per_second,
            "avg_response_s": r.avg_response_s,
            "p50_response_s": r.p50_response_s,
            "p95_response_s": r.p95_response_s,
            "p99_response_s": r.p99_response_s,
            "mt_utilization": r.mt_utilization,
            "db_utilization": r.db_utilization,
        }));
    }

    // The §7.3 diagnosis: at 96 clients the middle tier, not the DB, is hot.
    let at96 = results.last().unwrap();
    println!("{:-<74}", "");
    println!(
        "at 96 clients: middle-tier util {:.0}%, DB util {:.0}% -> the slowdown \"is caused by the increased processing load of the application logic\" (§7.3)",
        at96.mt_utilization[0] * 100.0,
        at96.db_utilization * 100.0
    );

    // `--batch`: the same sweep with the §4.3 name-mapping queries batched
    // (3 DB queries per request instead of 7 — see
    // `hedc_sim::calib::BATCHED_QUERIES_PER_REQUEST`).
    let batched = if batch_mode_enabled() {
        let batched = figure4_batched(&clients);
        println!();
        println!("with batched name mapping (3 DB queries/request instead of 7)");
        println!("{:-<74}", "");
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>12}",
            "clients", "req/s", "std req/s", "DB q/s", "DB util"
        );
        for (b, s) in batched.iter().zip(results.iter()) {
            println!(
                "{:>8} {:>12.2} {:>12.2} {:>12.1} {:>11.0}%",
                b.config.clients,
                b.requests_per_second,
                s.requests_per_second,
                b.db_queries_per_second,
                b.db_utilization * 100.0
            );
        }
        Some(batched)
    } else {
        None
    };

    let mut report = serde_json::json!({ "rows": rows });
    if let Some(batched) = &batched {
        report["batched_rows"] = serde_json::Value::Array(
            batched
                .iter()
                .map(|r| {
                    serde_json::json!({
                        "clients": r.config.clients,
                        "requests_per_second": r.requests_per_second,
                        "db_queries_per_second": r.db_queries_per_second,
                        "db_utilization": r.db_utilization,
                        "avg_response_s": r.avg_response_s,
                    })
                })
                .collect(),
        );
    }
    hedc_bench::write_report("fig4_browse_clients", &report);

    // Machine-readable latency/throughput summary from the per-run obs
    // histograms (one row per client count), mode-tagged when the batched
    // sweep ran too. These rows come out of the simulator and say so: they
    // are a shape check against the paper's figure, not a measurement.
    let summarize = |rs: &[hedc_sim::browse::BrowseResult], mode: &str| -> Vec<serde_json::Value> {
        rs.iter()
            .map(|r| {
                serde_json::json!({
                    "mode": mode,
                    "source": "sim",
                    "clients": r.config.clients,
                    "throughput_rps": r.requests_per_second,
                    "latency_s": {
                        "avg": r.avg_response_s,
                        "p50": r.p50_response_s,
                        "p95": r.p95_response_s,
                        "p99": r.p99_response_s,
                    },
                })
            })
            .collect()
    };
    let mut bench_rows = summarize(&results, "standard");
    if let Some(batched) = &batched {
        bench_rows.extend(summarize(batched, "batched"));
    }

    // The measured net-tier sweep: the same "clients vs throughput" axis as
    // the paper's figure, but against the event-driven, admission-controlled
    // `DmServer` over real loopback sockets. Where Figure 4 collapses
    // (16 req/s at 16 clients down to 3 at 96), this curve must hold flat:
    // offered load beyond capacity is shed with a typed `Overloaded`, not
    // queued into multi-second p99s. `check_fig4` in `hedc_bench::schema`
    // gates exactly that shape.
    let net_clients: &[usize] = if hedc_bench::smoke() {
        &[8, 16]
    } else {
        &[16, 32, 64, 128, 256, 512]
    };
    let net_secs: f64 = std::env::var("HEDC_NET_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let hedc = HedcConfig::default();
    println!();
    println!("net — measured clients sweep, 1 admission-controlled DmServer");
    println!("{:-<74}", "");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "clients", "req/s", "p50 ms", "p99 ms", "requests", "sheds", "shed %"
    );
    for &clients in net_clients {
        let r = run_fig4_net(clients, Duration::from_secs_f64(net_secs), &hedc);
        println!(
            "{:>8} {:>12.1} {:>10.2} {:>10.2} {:>10} {:>10} {:>8.1}%",
            r.clients,
            r.requests_per_second,
            r.p50_response_s * 1e3,
            r.p99_response_s * 1e3,
            r.requests,
            r.sheds,
            r.shed_rate * 100.0
        );
        bench_rows.push(serde_json::json!({
            "mode": "net",
            "clients": r.clients,
            "requests": r.requests,
            "throughput_rps": r.requests_per_second,
            "sheds": r.sheds,
            "shed_rate": r.shed_rate,
            "overload_retries": r.overload_retries,
            "latency_s": {
                "avg": r.avg_response_s,
                "p50": r.p50_response_s,
                "p95": r.p95_response_s,
                "p99": r.p99_response_s,
            },
        }));
    }

    // `--attribution`: the measured tail-latency decomposition. A one-node
    // loopback stack serves the same browse mix over real sockets; every
    // request runs under a root span, sampled traces are partitioned into
    // queue / pool / wire / execute self time, and the slowest trace is
    // verified retrievable through `/hedc/trace/<id>`.
    let mut bench_report = serde_json::json!({ "bench": "fig4_browse_clients" });
    if attribution_mode_enabled() {
        let smoke = hedc_bench::smoke();
        let (clients, measure) = if smoke {
            (8, Duration::from_millis(800))
        } else {
            (96, Duration::from_secs(10))
        };
        println!();
        println!("attribution — measured critical-path breakdown at {clients} clients");
        println!("{:-<74}", "");
        let run = run_browse_attribution(&AttributionConfig::fig4(clients, measure));
        println!(
            "{} requests, {:.2} req/s, avg {:.1} ms, p99 {:.1} ms",
            run.requests,
            run.requests_per_second,
            run.avg_response_s * 1e3,
            run.p99_response_s * 1e3
        );
        let attributed = run.totals.attributed_us.max(1);
        for (cat, us) in &run.totals.by_category_us {
            println!(
                "{:>10}: {:>10} us total across {} sampled traces ({:>5.1}%)",
                cat,
                us,
                run.totals.traces,
                *us as f64 / attributed as f64 * 100.0
            );
        }
        println!(
            "coverage {:.3} (attributed / measured root time), {} pinned >= {} us",
            run.totals.coverage(),
            run.pinned,
            run.pin_threshold_us
        );
        if let Some(check) = &run.trace_page {
            println!(
                "slowest trace {} -> GET /hedc/trace/{} = {}",
                check.trace_id, check.trace_id, check.status
            );
        }
        bench_rows.push(run.to_row());
        bench_report["attribution"] = run.to_section();
    }
    bench_report["rows"] = serde_json::Value::Array(bench_rows);
    hedc_bench::write_report("BENCH_fig4_browse_clients", &bench_report);
}
