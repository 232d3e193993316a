//! The redundant-work elimination bench (§3.5 "avoid redundant
//! computation").
//!
//! Drives the real PL (real DM, real staging, real imaging executions) with
//! a zipf-skewed duplicate-heavy request stream — the "everyone asks for
//! the same flare" shape — in two configurations over the *same* seeded
//! sequence:
//!
//! * `coalesce_off` — the execute-every-submit baseline: coalescing
//!   disabled and every request forced, so each of the N submits runs the
//!   full estimate → stage → execute → commit workflow.
//! * `coalesce_on` — single-flight coalescing plus the versioned result
//!   store: concurrent duplicates attach to the in-flight leader, repeat
//!   requests across waves hit the store.
//!
//! Effective throughput is requests *answered* per second; the committed
//! `BENCH_pl.json` is gated by `hedc_bench::schema::check_pl`, which
//! requires the on/off ratio to hold at ≥ 5x.
//!
//! Usage: `pl_bench [seed]` (default 0x5EED). `HEDC_BENCH_SMOKE=1` shrinks
//! the sweep.

use hedc_analysis::{AlgorithmRegistry, AnalysisParams};
use hedc_dm::Dm;
use hedc_pl::{PlConfig, ProcessingLogic, RequestSpec};
use hedc_sim::{duplication_factor, Zipf, ZipfConfig};
use std::sync::Arc;
use std::time::Instant;

/// Sweep shape: `rounds` waves of `threads` concurrent submits drawn from a
/// zipf catalog of `keys` distinct analyses.
struct Shape {
    threads: usize,
    rounds: usize,
    keys: usize,
    window_ms: u64,
}

fn shape() -> Shape {
    if hedc_bench::smoke() {
        Shape {
            threads: 8,
            rounds: 10,
            keys: 4,
            window_ms: 5 * 60 * 1000,
        }
    } else {
        Shape {
            threads: 32,
            rounds: 10,
            keys: 16,
            window_ms: 20 * 60 * 1000,
        }
    }
}

/// The catalog of distinct analyses the zipf stream draws from: histogram
/// requests over staggered sub-windows, so each key stages and computes
/// real (distinct) work. Histograms are the paper's I/O-bound series —
/// staging dominates, which is exactly the work reuse avoids.
fn catalog(dm: &Arc<Dm>, shape: &Shape) -> Vec<RequestSpec> {
    let session = dm.import_session();
    let hle = dm
        .services()
        .query(&session, hedc_metadb::Query::table("hle").limit(1))
        .expect("hle query")
        .rows[0][0]
        .as_int()
        .expect("hle id");
    let span = shape.window_ms / shape.keys as u64;
    (0..shape.keys as u64)
        .map(|i| {
            RequestSpec::new(
                "histogram",
                AnalysisParams::window(i * span, (i + 1) * span).with("bins", 64.0),
                hle,
            )
        })
        .collect()
}

struct ModeResult {
    requests: u64,
    computes: u64,
    wall_ms: f64,
    effective_rps: f64,
}

/// Replay the stream against one PL configuration. Each round submits
/// `threads` requests back-to-back (concurrent in flight) and waits for the
/// wave to drain before the next — the barrier keeps offered concurrency
/// constant across modes.
fn run_mode(shape: &Shape, stream: &[usize], coalesce: bool) -> ModeResult {
    let dm = hedc_dm::testkit::dm_with_telemetry(shape.window_ms / 60_000);
    let specs = catalog(&dm, shape);
    let session = dm.import_session();
    let pl = ProcessingLogic::start(
        Arc::clone(&dm),
        Arc::new(AlgorithmRegistry::with_builtins()),
        PlConfig {
            servers: 2,
            dispatchers: shape.threads,
            coalesce,
            ..PlConfig::default()
        },
    );
    let mut computes = 0u64;
    let started = Instant::now();
    for wave in stream.chunks(shape.threads) {
        let rxs: Vec<_> = wave
            .iter()
            .map(|&k| {
                let mut spec = specs[k].clone();
                if !coalesce {
                    // The baseline really is execute-every-submit: forcing
                    // skips the result store the same way the elimination
                    // machinery being absent would.
                    spec = spec.force();
                }
                pl.submit_async(Arc::clone(&session), spec).1
            })
            .collect();
        for rx in rxs {
            let outcome = rx.recv().expect("pl alive").expect("analysis ok");
            if !outcome.was_reused() {
                computes += 1;
            }
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    pl.shutdown();
    ModeResult {
        requests: stream.len() as u64,
        computes,
        wall_ms,
        effective_rps: stream.len() as f64 / (wall_ms / 1e3),
    }
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED);
    let shape = shape();
    let n = shape.threads * shape.rounds;
    let stream = Zipf::new(&ZipfConfig {
        keys: shape.keys,
        exponent: 1.3,
        seed,
    })
    .stream(n);
    println!(
        "pl_bench: {} requests over {} distinct analyses (duplication {:.1}x), \
         {} waves of {}",
        n,
        shape.keys,
        duplication_factor(&stream),
        shape.rounds,
        shape.threads
    );

    println!("{:-<72}", "");
    println!(
        "{:<14} {:>9} {:>9} {:>11} {:>13}",
        "mode", "requests", "computes", "wall [ms]", "effective r/s"
    );
    let mut rows = Vec::new();
    let mut by_mode = std::collections::HashMap::new();
    // Coalesce-on first: both modes start from a cold DM, and the forced
    // baseline is insensitive to order anyway.
    for (mode, coalesce) in [("coalesce_on", true), ("coalesce_off", false)] {
        let r = run_mode(&shape, &stream, coalesce);
        println!(
            "{:<14} {:>9} {:>9} {:>11.0} {:>13.1}",
            mode, r.requests, r.computes, r.wall_ms, r.effective_rps
        );
        rows.push(serde_json::json!({
            "mode": mode,
            "threads": shape.threads,
            "rounds": shape.rounds,
            "requests": r.requests,
            "computes": r.computes,
            "wall_ms": r.wall_ms,
            "effective_rps": r.effective_rps,
        }));
        by_mode.insert(mode, r);
    }
    let on = &by_mode["coalesce_on"];
    let off = &by_mode["coalesce_off"];
    let ratio = on.effective_rps / off.effective_rps;
    println!(
        "\nsingle-flight + versioned store: {:.1}x effective throughput \
         ({} -> {} executions)",
        ratio, off.computes, on.computes
    );
    hedc_bench::write_report(
        "BENCH_pl",
        &serde_json::json!({
            "bench": "pl",
            "seed": seed,
            "zipf": { "keys": shape.keys, "exponent": 1.3 },
            "duplication_factor": duplication_factor(&stream),
            "rows": rows,
            "summary": {
                "computes_on": on.computes,
                "computes_off": off.computes,
                "throughput_ratio": ratio,
            },
        }),
    );
}
