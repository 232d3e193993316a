//! What is fixed before any run: the metric and workload names and bounds
//! of `BENCHMARK.json`, and the sizes and open-loop rates of `frozen.json`.
//! Both are compiled in, so a run cannot pick up a different file than the
//! code it was built with.

use crate::catalogue::Sizes;
use serde::{Deserialize, Serialize};

/// The contract file at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// The frozen sizes and rates.
pub const FROZEN_JSON: &str = include_str!("../frozen.json");

/// The five workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "browse_hot",
    "browse_cold",
    "cluster_scatter",
    "ingest_browse",
    "analysis_mix",
];

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: String,
    /// Why it exists.
    pub why: String,
}

/// `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Benchmark {
    /// The run command.
    pub command: Vec<String>,
    /// Directories holding the benchmark.
    pub paths: Vec<String>,
    /// Timed seconds per run.
    pub run_seconds: u64,
    /// Workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// User-visible metrics, with bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// The per-layer ledger.
    pub per_layer: Vec<MetricSpec>,
}

impl Benchmark {
    /// Parse the compiled-in contract file.
    pub fn load() -> Benchmark {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }
}

/// `browse_hot` constants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotSpec {
    /// Open-loop arrival rate (≈ 50 % of the closed-loop rate measured
    /// when the benchmark was built).
    pub open_rate_per_s: f64,
    /// Result + name cache budget.
    pub result_cache_bytes: usize,
    /// Pager budget: large enough to hold every table.
    pub page_cache_pages: usize,
    /// Zipf exponent over the hot set.
    pub zipf_s: f64,
}

/// `browse_cold` constants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColdSpec {
    /// Open-loop arrival rate.
    pub open_rate_per_s: f64,
    /// Pager budget: a fraction of the live pages.
    pub page_cache_pages: usize,
}

/// `cluster_scatter` constants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Open-loop arrival rate.
    pub open_rate_per_s: f64,
    /// Every n-th result is kept and compared with the twin afterwards.
    pub oracle_sample_every: u64,
}

/// `ingest_browse` constants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestSpec {
    /// Reader's open-loop arrival rate.
    pub reader_rate_per_s: f64,
    /// Photons per telemetry unit.
    pub photons_per_unit: usize,
    /// Result + name cache budget.
    pub result_cache_bytes: usize,
    /// Pager budget.
    pub page_cache_pages: usize,
    /// Zipf exponent of the reader's hot set.
    pub zipf_s: f64,
    /// Seed of the telemetry timeline the writer's units are cut from. A
    /// constant, like an input file: the run's `--seed` drives the catalogue,
    /// the op streams and the schedules, not how many flares the writer
    /// happens to meet.
    pub telemetry_seed: u64,
}

/// `analysis_mix` constants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisSpec {
    /// Requests in the fixed list, per second of `--seconds`.
    pub requests_per_window_second: f64,
    /// Telemetry loaded at set-up, minutes.
    pub telemetry_minutes: u64,
    /// Photons per telemetry unit at load.
    pub photons_per_unit: usize,
    /// Smallest of the nine imaging grids requests use. Imaging costs
    /// photons × grid²; 40..=48 keeps one run near a third of a second on
    /// the event windows, and within ±20 % of each other.
    pub imaging_grid_lo: u32,
    /// Seed of the loaded telemetry. A constant, like an input file: the
    /// events and their photon windows are the same in every run, and the
    /// run's `--seed` drives which requests are made.
    pub telemetry_seed: u64,
}

/// `frozen.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Frozen {
    /// Why the file exists.
    pub note: String,
    /// The host the constants were chosen on.
    pub host: String,
    /// Shared data-set dimensions.
    pub catalogue: Sizes,
    /// `--smoke` divides sizes, windows and op counts by this.
    pub smoke_divisor: usize,
    /// Trials an untraced run is cut into, each with a set-up of its own;
    /// every end-to-end timing is the median over them.
    pub trials: usize,
    /// Generator threads = client connections (≤ nproc).
    pub clients: usize,
    /// Blocks a trial's closed-loop phase is cut into; the trial's rate is
    /// that of its fastest block.
    pub blocks: usize,
    /// Untimed ops before the timed phases.
    pub warmup_ops: u64,
    /// Sampled ops in the traced pass.
    pub traced_ops: u64,
    /// Per-workload constants.
    pub browse_hot: HotSpec,
    /// Per-workload constants.
    pub browse_cold: ColdSpec,
    /// Per-workload constants.
    pub cluster_scatter: ClusterSpec,
    /// Per-workload constants.
    pub ingest_browse: IngestSpec,
    /// Per-workload constants.
    pub analysis_mix: AnalysisSpec,
}

impl Frozen {
    /// Parse the compiled-in constants; `smoke` shrinks sizes and counts.
    pub fn load(smoke: bool) -> Frozen {
        let mut f: Frozen = serde_json::from_str(FROZEN_JSON).expect("frozen.json parses");
        if smoke {
            let d = f.smoke_divisor;
            f.catalogue = f.catalogue.shrunk(d);
            // A smoke window is too short to cut up.
            f.trials = 1;
            f.blocks = 1;
            f.warmup_ops = (f.warmup_ops / d as u64).max(20);
            f.traced_ops = (f.traced_ops / d as u64).max(40);
            f.analysis_mix.telemetry_minutes = 6;
            // Enough requests for a p95 within a smoke window: cheap images.
            f.analysis_mix.imaging_grid_lo = 4;
            f.analysis_mix.requests_per_window_second = 240.0;
            f.ingest_browse.photons_per_unit /= d;
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_file_is_well_formed() {
        let b = Benchmark::load();
        let names: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        assert!((1..=60).contains(&b.run_seconds));
        assert!(b
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in b.end_to_end.iter().chain(&b.per_layer) {
            assert!(ok_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
            assert!(m.better == "higher" || m.better == "lower");
            assert!(m.unit.len() <= 16);
        }
        for m in &b.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(b.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(b.per_layer.len() <= 128 && b.end_to_end.len() <= 16);
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn frozen_constants_keep_the_issue_ratios() {
        let f = Frozen::load(false);
        let c = f.catalogue;
        assert_eq!(c.anas_per_hle, 3);
        assert_eq!(c.members_per_catalog, 25);
        assert_eq!(c.catalogs * 100, c.hles);
        assert_eq!(c.hot_set * 10, c.hles);
        assert!(f.clients <= 2);
        let s = Frozen::load(true);
        assert!(s.catalogue.hles < c.hles && s.catalogue.hot_set <= s.catalogue.hles);
    }
}
