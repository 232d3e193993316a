//! Every workload at smoke size, through the binary, in both modes: exactly
//! the metric names of `BENCHMARK.json` come out, each finite and with its
//! unit, every op verifies, and the run leaves nothing behind.

use hedc_e2e_bench::spec::{Benchmark, MetricSpec, WORKLOADS};
use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn out_dir(label: &str) -> PathBuf {
    // Inside the cargo target directory: a test run writes nowhere else.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e-bench-test-{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run one workload in a child process (the global registry and tuning
/// knobs are per process) and return its final JSON line.
fn run(workload: &str, traced: bool, dir: &PathBuf) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args(["--workload", workload, "--seed", "5", "--smoke"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(dir)
        .env("CARGO_TARGET_DIR", dir)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(stdout.lines().last().expect("a final line")).expect("final line is JSON")
}

fn check(workload: &str, line: &Value, specs: &[MetricSpec]) {
    assert_eq!(line["correct"], Value::Bool(true), "{workload}: {line}");
    assert_eq!(line["failed"].as_u64(), Some(0), "{workload}");
    assert!(line["attempted"].as_u64().unwrap() >= 1);
    let metrics = line["metrics"].as_object().expect("metrics object");
    let want: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    let mut got: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut sorted = want.clone();
    sorted.sort_unstable();
    got.sort_unstable();
    assert_eq!(
        got, sorted,
        "{workload}: metric names differ from BENCHMARK.json"
    );
    for spec in specs {
        let m = &metrics[&spec.name];
        assert_eq!(
            m["unit"].as_str(),
            Some(spec.unit.as_str()),
            "{}",
            spec.name
        );
        let v = m["value"].as_f64().expect("numeric value");
        assert!(v.is_finite() && v >= 0.0, "{workload} {} = {v}", spec.name);
    }
}

#[test]
fn every_workload_emits_exactly_the_contract_metrics() {
    let bench = Benchmark::load();
    let dir = out_dir("smoke");
    for workload in WORKLOADS {
        let line = run(workload, false, &dir);
        check(workload, &line, &bench.end_to_end);
        // End-to-end metrics are never 0.
        for spec in &bench.end_to_end {
            assert!(
                line["metrics"][&spec.name]["value"].as_f64().unwrap() > 0.0,
                "{workload} {}",
                spec.name
            );
        }
        let traced = run(workload, true, &dir);
        check(workload, &traced, &bench.per_layer);
        let wire = traced["metrics"]["net.bytes_per_op"]["value"]
            .as_f64()
            .unwrap();
        assert_eq!(
            wire > 0.0,
            workload == "cluster_scatter",
            "{workload}: {wire}"
        );
        assert!(dir.join(format!("{workload}.json")).exists());
        assert!(dir.join(format!("{workload}.traced.json")).exists());
        assert!(dir.join(format!("{workload}.trace.json")).exists());
    }
    // Scratch directories are removed when a run ends.
    let leftovers: Vec<_> = std::fs::read_dir(dir.join("e2e_bench"))
        .map(|d| d.flatten().map(|e| e.file_name()).collect())
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "scratch left behind: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_seed_same_inputs() {
    // Fixed-work workload: the counts of a run are a function of the seed.
    let dir = out_dir("repeat");
    let a = run("analysis_mix", true, &dir);
    let b = run("analysis_mix", true, &dir);
    for name in ["pl.executions", "pl.reuse_ratio", "gen.samples"] {
        assert_eq!(
            a["metrics"][name]["value"], b["metrics"][name]["value"],
            "{name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args(["--workload", "no_such_workload", "--smoke"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
}
