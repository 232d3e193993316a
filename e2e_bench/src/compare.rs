//! `e2e_bench compare <dirA> <dirB>`: per (workload, end-to-end metric),
//! both medians, the delta, the bound from `BENCHMARK.json`, and a verdict.
//!
//! * `same`: B is within the bound of A (in the worse direction) and not
//!   better than A by more than the bound.
//! * `better` / `worse`: B differs from A by more than the bound.
//! * `unresolved`: either side's run-to-run spread (interquartile range ÷
//!   median) is wider than the bound, so the comparison cannot tell.

use crate::gen::median;
use crate::spec::{Benchmark, MetricSpec};
use serde_json::Value;
use std::path::Path;

/// The values one run-set holds for one metric of one workload.
fn values(dir: &Path, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    // An aggregate written by `--all` holds `runs`; a single run holds
    // `result`.
    let runs: Vec<&Value> = match doc["runs"].as_array() {
        Some(runs) => runs.iter().collect(),
        None => vec![&doc["result"]],
    };
    let out: Vec<f64> = runs
        .iter()
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect();
    if out.is_empty() {
        Err(format!("{}: no value for `{metric}`", path.display()))
    } else {
        Ok(out)
    }
}

/// Interquartile range ÷ median; 0 for fewer than four values (a spread
/// cannot be read off them).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Exclusive-method quartiles, as Python's `statistics.quantiles(n=4)`.
    let q = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    (q(0.75) - q(0.25)) / median(&v).abs().max(f64::MIN_POSITIVE)
}

/// The verdict for one metric.
pub fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> &'static str {
    let bound = spec.bound.unwrap_or(0.0);
    if spread(a) > bound || spread(b) > bound {
        return "unresolved";
    }
    let (ma, mb) = (median(a), median(b));
    // Relative change in the direction that is worse for this metric.
    let worsening = if spec.better == "higher" {
        (ma - mb) / ma.abs().max(f64::MIN_POSITIVE)
    } else {
        (mb - ma) / ma.abs().max(f64::MIN_POSITIVE)
    };
    if worsening > bound {
        "worse"
    } else if worsening < -bound {
        "better"
    } else {
        "same"
    }
}

/// Print the comparison table; returns whether every row read `same` or
/// `better`.
pub fn compare(a: &Path, b: &Path, bench: &Benchmark) -> Result<bool, String> {
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "delta", "bound"
    );
    let mut clean = true;
    for w in &bench.workloads {
        for spec in &bench.end_to_end {
            let (va, vb) = (
                values(a, &w.name, &spec.name)?,
                values(b, &w.name, &spec.name)?,
            );
            let (ma, mb) = (median(&va), median(&vb));
            let v = verdict(spec, &va, &vb);
            clean &= v == "same" || v == "better";
            println!(
                "{:<16} {:<12} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {v}",
                w.name,
                spec.name,
                ma,
                mb,
                (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: &str, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            better: better.into(),
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = spec("lower", 0.1);
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&lower, &a, &[10.5, 10.4, 10.6, 10.5, 10.5]), "same");
        assert_eq!(
            verdict(&lower, &a, &[12.0, 12.1, 11.9, 12.0, 12.0]),
            "worse"
        );
        assert_eq!(verdict(&lower, &a, &[8.0, 8.1, 7.9, 8.0, 8.0]), "better");
        let higher = spec("higher", 0.1);
        assert_eq!(verdict(&higher, &a, &[8.0, 8.1, 7.9, 8.0, 8.0]), "worse");
        // A spread wider than the bound cannot resolve anything.
        assert_eq!(
            verdict(&lower, &a, &[8.0, 12.0, 10.0, 14.0, 6.0]),
            "unresolved"
        );
    }

    #[test]
    fn spread_matches_the_exclusive_quartile_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 0.0);
    }
}
