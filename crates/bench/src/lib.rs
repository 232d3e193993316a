//! # hedc-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (run with
//! `cargo run --release -p hedc-bench --bin <name>`):
//!
//! | target | reproduces |
//! |---|---|
//! | `fig4_browse_clients` | Figure 4: browse throughput vs clients, 1 node |
//! | `fig5_browse_nodes` | Figure 5: browse throughput vs middle-tier nodes |
//! | `table1_processing` | Table 1: imaging & histogram test series |
//! | `table23_characteristics` | Tables 2–3: workload characteristics, measured on the real stack |
//! | `pl_bench` | §3.5 redundant-work elimination: zipf duplicate-heavy load, coalesce on/off |
//!
//! Criterion benches (`cargo bench -p hedc-bench`) cover the ablations
//! A1–A7 from DESIGN.md. Reports are also written as JSON under
//! `results/` for EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod attribution;
pub mod cache_bench;
pub mod cluster;
pub mod schema;
pub mod shard_bench;

use std::path::{Path, PathBuf};

/// Where harness binaries drop their JSON reports: `HEDC_RESULTS_DIR` if
/// set, otherwise `results/` at the **workspace root** — anchored via this
/// crate's compile-time manifest path, not the working directory, so
/// `cargo run` from any subdirectory lands the report where the repo
/// commits it (a CWD-relative `results/` silently scattered reports and
/// left the committed trajectory empty).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("HEDC_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("workspace root above crates/bench")
                .join("results")
        });
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Nearest-rank percentile `p` (in `[0, 1]`) of an ascending sample; the
/// type's zero on an empty one.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Write a JSON report.
pub fn write_report(name: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{name}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("write report");
    println!("\n[report written to {}]", path.display());
}

/// Whether the harness runs in smoke mode (`HEDC_BENCH_SMOKE=1`): tiny
/// configurations that finish in seconds rather than minutes, used by
/// `scripts/check.sh --bench-smoke` so the harness binaries cannot rot
/// unnoticed. Smoke runs still exercise the full code path; only sweep
/// sizes and measurement windows shrink.
pub fn smoke() -> bool {
    std::env::var("HEDC_BENCH_SMOKE").map_or(false, |v| !v.is_empty() && v != "0")
}

/// `hedc_doctor`'s storage rule, over the `store.snapshot.oldest_lag` and
/// `store.pages.pending` gauges: a snapshot a thousand commits behind with
/// a thousand pages waiting for it is a handle somebody kept, not a query.
pub fn pinned_store_finding(oldest_lag: i64, pending_pages: i64) -> Option<String> {
    (oldest_lag >= 1000 && pending_pages >= 1000).then(|| {
        format!(
            "page reclamation held back by a snapshot {oldest_lag} commits old: \
             {pending_pages} superseded pages wait for it and the page file grows with every \
             commit — look for a kept `TableSnapshot` or a stalled query"
        )
    })
}

/// Format a ratio of measured vs paper as a signed percentage string.
pub fn vs_paper(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return "-".to_string();
    }
    let pct = (measured - paper) / paper * 100.0;
    format!("{pct:+.0}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_store_rule_needs_both_an_old_snapshot_and_waiting_pages() {
        let finding = pinned_store_finding(4321, 36_000).expect("pinned");
        assert!(finding.contains("held back by a snapshot 4321 commits old"));
        // A long scan beside a quiet writer, and a busy writer nobody pins.
        assert_eq!(pinned_store_finding(4321, 12), None);
        assert_eq!(pinned_store_finding(1, 36_000), None);
    }
}
