//! HEDC end-to-end benchmark: five workloads through
//! web/PL/DM/net/metadb/store, timed from outside through the program's
//! public functions, with a per-layer ledger. See `README.md`.

pub mod analysis;
pub mod browse;
pub mod catalogue;
pub mod cluster;
pub mod compare;
pub mod counters;
pub mod gen;
pub mod ingest;
pub mod ladder;
pub mod nodes;
pub mod pages;
pub mod phases;
pub mod probes;
pub mod report;
pub mod spec;
pub mod trace;

use phases::RunCtx;
use report::RunResult;

/// Pin every process-global knob to a stated value before a workload
/// touches the program, and return what was set (recorded in the run file).
/// `hedc_metadb::tuning` and the flight recorder are process-wide; each
/// workload runs in its own process, so nothing set here leaks.
pub fn pin_globals() -> serde_json::Value {
    use hedc_metadb::tuning;
    tuning::set_parallel_scan_threshold(tuning::DEFAULT_PARALLEL_SCAN_ROWS);
    tuning::set_topk_enabled(true);
    tuning::set_page_cache_pages(tuning::DEFAULT_PAGE_CACHE_PAGES);
    let pin_us = 1_000_000;
    hedc_obs::recorder().set_pin_threshold_us(pin_us);
    serde_json::json!({
        "tuning.parallel_scan_threshold": tuning::parallel_scan_threshold(),
        "tuning.topk_enabled": tuning::topk_enabled(),
        "tuning.page_cache_pages": tuning::page_cache_pages(),
        "flight_recorder.pin_threshold_us": hedc_obs::recorder().pin_threshold_us(),
    })
}

/// Run one workload by name.
pub fn run_workload(name: &str, ctx: &RunCtx) -> Result<RunResult, String> {
    match name {
        "browse_hot" => browse::run(browse::Kind::Hot, ctx).map_err(|e| e.to_string()),
        "browse_cold" => browse::run(browse::Kind::Cold, ctx).map_err(|e| e.to_string()),
        "cluster_scatter" => cluster::run(ctx).map_err(|e| e.to_string()),
        "ingest_browse" => ingest::run(ctx).map_err(|e| e.to_string()),
        "analysis_mix" => analysis::run(ctx).map_err(|e| e.to_string()),
        other => Err(format!("unknown workload `{other}`")),
    }
}
