//! Run results: the metric table a run fills, the `workload metric value
//! unit` lines and the final JSON line it prints, the stamped per-workload
//! file it writes, and the process-level facts (peak RSS, host, toolchain).

use crate::spec::{Benchmark, MetricSpec};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Ops attempted across every timed or traced phase.
    pub attempted: u64,
    /// Ops that errored, were shed, answered wrongly, or were still queued
    /// at window end.
    pub failed: u64,
    /// Failures of whole-run checks (oracle sample, durability re-read,
    /// drift guard, hygiene assertions), each named.
    pub violations: Vec<String>,
    /// Metric values by name; units come from `BENCHMARK.json`.
    pub metrics: BTreeMap<String, f64>,
    /// Diagnostics printed beside the metrics but not part of the contract
    /// (sample counts, demoted metrics in an untraced run).
    pub info: BTreeMap<String, Value>,
}

impl RunResult {
    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a diagnostic.
    pub fn note(&mut self, name: &str, value: impl Into<Value>) {
        self.info.insert(name.to_string(), value.into());
    }

    /// Whether every output was correct: no failed op and no violation.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Fold a phase's op accounting in.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// The metrics of one mode, in contract order, each with its value. An
/// end-to-end metric the run did not produce is an error; a per-layer
/// metric that does not apply to the workload reads 0.
pub fn contract_metrics(
    result: &RunResult,
    specs: &[MetricSpec],
    all_required: bool,
) -> Result<Vec<(MetricSpec, f64)>, String> {
    specs
        .iter()
        .map(|spec| match result.metrics.get(&spec.name) {
            Some(v) if v.is_finite() => Ok((spec.clone(), *v)),
            Some(v) => Err(format!("metric `{}` is not finite: {v}", spec.name)),
            None if all_required => Err(format!("metric `{}` was not measured", spec.name)),
            None => Ok((spec.clone(), 0.0)),
        })
        .collect()
}

/// Print one `workload metric value unit` line per contract metric, the
/// diagnostics, and return the final JSON object of the driver contract.
pub fn print_run(
    workload: &str,
    traced: bool,
    result: &RunResult,
    bench: &Benchmark,
) -> Result<Value, String> {
    for (k, v) in &result.info {
        println!("# {workload} {k} {v}");
    }
    for v in &result.violations {
        println!("# {workload} VIOLATION {v}");
    }
    let metrics = if traced {
        contract_metrics(result, &bench.per_layer, false)?
    } else {
        contract_metrics(result, &bench.end_to_end, true)?
    };
    let mut out = Map::new();
    for (spec, value) in &metrics {
        println!("{workload} {} {value} {}", spec.name, spec.unit);
        out.insert(
            spec.name.clone(),
            json!({ "value": value, "unit": spec.unit }),
        );
    }
    Ok(json!({
        "correct": result.correct(),
        "attempted": result.attempted.max(1),
        "failed": result.failed + result.violations.len() as u64,
        "metrics": Value::Object(out),
    }))
}

/// Peak resident set of this process, MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut command = std::process::Command::new(program);
    // `git` may look for a repository in the working directory only, not in
    // the directories above it: a run reads nothing outside its checkout.
    if let Some(above) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        command.env("GIT_CEILING_DIRECTORIES", above);
    }
    let out = command.args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `{git_sha, host_cores, rustc}`: where and on what a run was made. The
/// driver's checkout is not a git repository; the sha then reads `unknown`.
pub fn stamp() -> Value {
    json!({
        "git_sha": command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        "host_cores": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "rustc": command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    })
}

/// Write `<dir>/<workload>.json` (or `<workload>.traced.json`): the final
/// object plus the stamp, seed, smoke flag and the run's configuration.
pub fn write_run_file(
    dir: &Path,
    workload: &str,
    traced: bool,
    final_line: &Value,
    header: &Value,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut doc = header.clone();
    doc["workload"] = Value::from(workload);
    doc["traced"] = Value::from(traced);
    doc["result"] = final_line.clone();
    let name = if traced {
        format!("{workload}.traced.json")
    } else {
        format!("{workload}.json")
    };
    std::fs::write(dir.join(name), serde_json::to_string_pretty(&doc)? + "\n")
}
