//! hedc-doctor — the tail-latency triage tool.
//!
//! Three modes:
//!
//! * **(default) live** — boot a node, load a slice of telemetry, drive a
//!   few browse requests, and print the observability snapshot, the
//!   storage finding if there is one (a page store pinned by an old
//!   snapshot), and a critical-path breakdown of the slowest retained
//!   traces. The "what is this process doing" console.
//! * **`--obs-smoke`** — the CI gate: boot a node, force every request to
//!   pin (threshold 1 µs), and assert the whole diagnosis loop closes:
//!   traces pin, `/hedc/trace/<id>` serves the waterfall, the JSON variant
//!   parses, and `/hedc/stats.json` exposes the exemplar / saturation /
//!   flight-recorder fields. Exits non-zero on the first broken link.
//! * **`--bench-report [dir]`** — validate the `BENCH_*.json` reports in
//!   `dir` (default: the repo `results/`) against `hedc_bench::schema` and
//!   print the attribution sections' per-tier breakdowns.

use hedc_core::{Hedc, HedcConfig};
use hedc_events::GenConfig;
use hedc_web::HttpRequest;
use std::path::PathBuf;

fn small_gen() -> GenConfig {
    GenConfig {
        duration_ms: 5 * 60 * 1000,
        flares_per_hour: 12.0,
        background_rate: 20.0,
        seed: 4242,
        ..GenConfig::default()
    }
}

/// Boot, load, browse: the shared setup for live and smoke modes.
fn boot_and_browse() -> std::sync::Arc<Hedc> {
    let hedc = Hedc::start(HedcConfig::default()).expect("boot node");
    let report = hedc
        .load_telemetry(&small_gen(), 200_000)
        .expect("load telemetry");
    eprintln!(
        "loaded {} unit(s), {} photons, {} events",
        report.units, report.photons, report.events
    );
    for path in ["/hedc/catalogs", "/hedc/summary", "/hedc/catalogs"] {
        let resp = hedc.web().handle(&HttpRequest::get(path, "doctor"));
        assert_eq!(resp.status, 200, "GET {path} failed during warm-up");
    }
    hedc
}

fn fail(checks: &mut u32, msg: &str) {
    *checks += 1;
    eprintln!("FAIL {msg}");
}

fn pass(msg: &str) {
    println!("  ok {msg}");
}

fn obs_smoke() -> i32 {
    let hedc = boot_and_browse();
    let recorder = hedc_obs::recorder();
    // Force the tail: with a 1 µs threshold every request is "slow", so the
    // pin path runs even on a fast CI box.
    recorder.set_pin_threshold_us(1);
    for _ in 0..3 {
        let resp = hedc
            .web()
            .handle(&HttpRequest::get("/hedc/catalogs", "doctor"));
        assert_eq!(resp.status, 200);
    }
    hedc_obs::sample_now();

    let mut failures = 0u32;

    let pinned = recorder.pinned();
    if pinned.is_empty() {
        fail(&mut failures, "no trace pinned despite a 1 us threshold");
    } else {
        pass(&format!(
            "{} trace(s) pinned, slowest {} us",
            pinned.len(),
            pinned[0].duration_us
        ));
    }

    if let Some(slow) = pinned.first() {
        let path = format!("/hedc/trace/{}", slow.trace_id);
        let resp = hedc.web().handle(&HttpRequest::get(&path, "doctor"));
        if resp.status != 200 {
            fail(&mut failures, &format!("GET {path} -> {}", resp.status));
        } else {
            pass(&format!("GET {path} -> 200 ({} bytes)", resp.body.len()));
        }

        let resp = hedc
            .web()
            .handle(&HttpRequest::get(&format!("{path}.json"), "doctor"));
        let parsed: Result<serde_json::Value, _> = serde_json::from_slice(&resp.body);
        match parsed {
            Ok(v) if resp.status == 200 && v.get("breakdown").is_some() => {
                pass(&format!("GET {path}.json -> parseable breakdown"));
            }
            _ => fail(
                &mut failures,
                &format!("GET {path}.json -> {} or missing breakdown", resp.status),
            ),
        }
    }

    let stats = hedc
        .web()
        .handle(&HttpRequest::get("/hedc/stats.json", "doctor"));
    let body = String::from_utf8_lossy(&stats.body).to_string();
    for field in ["\"exemplars\"", "\"saturation\"", "\"flight\""] {
        if stats.status == 200 && body.contains(field) {
            pass(&format!("stats.json exposes {field}"));
        } else {
            fail(&mut failures, &format!("stats.json missing {field}"));
        }
    }
    match serde_json::from_str::<serde_json::Value>(&body) {
        Ok(v) => {
            let pinned_count = v
                .pointer("/flight/pinned")
                .and_then(|p| p.as_u64())
                .unwrap_or(0);
            if pinned_count == 0 {
                fail(&mut failures, "stats.json flight.pinned is zero");
            } else {
                pass(&format!("stats.json flight.pinned = {pinned_count}"));
            }
            match v.pointer("/saturation/0/gauges") {
                Some(g) if g.as_object().is_some_and(|o| !o.is_empty()) => {
                    pass("stats.json carries saturation gauge samples");
                }
                _ => fail(&mut failures, "stats.json has no saturation samples"),
            }
        }
        Err(e) => fail(&mut failures, &format!("stats.json is not JSON: {e}")),
    }

    hedc.shutdown();
    if failures == 0 {
        println!("obs-smoke: all checks passed");
        0
    } else {
        eprintln!("obs-smoke: {failures} check(s) failed");
        1
    }
}

fn bench_report(dir: Option<PathBuf>) -> i32 {
    let dir = dir.unwrap_or_else(hedc_bench::results_dir);
    match hedc_bench::schema::validate_dir(&dir, &[]) {
        Ok(summary) => println!("{}: {summary}", dir.display()),
        Err(errs) => {
            for e in &errs {
                eprintln!("FAIL {e}");
            }
            return 1;
        }
    }
    // Print whatever attribution sections the reports carry.
    for name in ["fig4_browse_clients", "ingest"] {
        let path = dir.join(format!("BENCH_{name}.json"));
        let Ok(raw) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(report) = serde_json::from_str::<serde_json::Value>(&raw) else {
            continue;
        };
        let Some(attr) = report.get("attribution") else {
            continue;
        };
        println!("\n{name} — attribution");
        if let Some(tiers) = attr.get("tiers").and_then(|t| t.as_array()) {
            println!("{:>10} {:>10} {:>14}", "tier", "category", "self_us");
            for t in tiers {
                println!(
                    "{:>10} {:>10} {:>14}",
                    t.get("tier").and_then(|v| v.as_str()).unwrap_or("?"),
                    t.get("category").and_then(|v| v.as_str()).unwrap_or("?"),
                    t.get("self_us").and_then(|v| v.as_u64()).unwrap_or(0)
                );
            }
        }
        if let Some(rows) = report.get("rows").and_then(|r| r.as_array()) {
            for row in rows {
                if row.get("mode").and_then(|m| m.as_str()) == Some("attribution") {
                    println!(
                        "coverage {:.3} over {} sampled traces",
                        row.get("coverage").and_then(|c| c.as_f64()).unwrap_or(0.0),
                        row.get("sampled_traces")
                            .and_then(|s| s.as_u64())
                            .unwrap_or(0)
                    );
                }
            }
        }
    }
    0
}

fn live() -> i32 {
    let hedc = boot_and_browse();
    let snapshot = hedc_obs::snapshot();
    println!("{}", snapshot.to_text());
    let gauge = |name: &str| snapshot.metrics.gauge(name).unwrap_or(0);
    if let Some(finding) = hedc_bench::pinned_store_finding(
        gauge("store.snapshot.oldest_lag"),
        gauge("store.pages.pending"),
    ) {
        println!("FINDING {finding}\n");
    }
    println!("slowest retained traces");
    println!("{:-<74}", "");
    for record in hedc_obs::recorder().slowest(3) {
        match hedc_obs::analyze_trace(record.trace_id) {
            Some(b) => {
                print!("trace {} {} {} us:", b.trace_id, b.root_name, b.root_us);
                for c in hedc_obs::Category::ALL {
                    print!(" {}={}us", c.label(), b.category_us(c));
                }
                println!();
                for t in b.by_tier.iter().take(4) {
                    println!("    {:>8}/{}: {} us", t.tier, t.category.label(), t.self_us);
                }
            }
            None => println!(
                "trace {} {} {} us (spans evicted)",
                record.trace_id, record.root_name, record.duration_us
            ),
        }
    }
    println!("\n(drill in: GET /hedc/traces and /hedc/trace/<id> on the web tier)");
    hedc.shutdown();
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--obs-smoke") => obs_smoke(),
        Some("--bench-report") => bench_report(args.get(1).map(PathBuf::from)),
        Some("--help") | Some("-h") => {
            println!("usage: hedc_doctor [--obs-smoke | --bench-report [dir]]");
            0
        }
        Some(other) => {
            eprintln!("unknown flag {other:?}; try --help");
            2
        }
        None => live(),
    };
    std::process::exit(code);
}
