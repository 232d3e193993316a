//! `e2e_bench`: the command line. See `README.md`.
//!
//! ```text
//! e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! e2e_bench --all --seed <n> [--traced] [--smoke] [--repeat <k>] [--seconds <s>] [--out <dir>]
//! e2e_bench compare <dirA> <dirB>
//! ```

use hedc_e2e_bench::nodes::Scratch;
use hedc_e2e_bench::phases::RunCtx;
use hedc_e2e_bench::spec::{Benchmark, Frozen, WORKLOADS};
use hedc_e2e_bench::{compare, pin_globals, report, run_workload};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
  e2e_bench --all --seed <n> [--traced] [--smoke] [--repeat <k>] [--seconds <s>] [--out <dir>]
  e2e_bench compare <dirA> <dirB>";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        repeat: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--all" => args.all = true,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => args.traced = value()? == "1",
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Run files and scratch files go under the cargo target directory, never
/// into the source tree.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("e2e_bench")
}

fn seconds(args: &Args, bench: &Benchmark) -> f64 {
    args.seconds.unwrap_or(if args.smoke {
        1.0
    } else {
        bench.run_seconds as f64
    })
}

/// One workload in this process (the driver's contract).
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let bench = Benchmark::load();
    let globals = pin_globals();
    let out_dir = args.out.clone().unwrap_or_else(work_dir);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let seconds = seconds(args, &bench);
    let ctx = RunCtx {
        seed: args.seed,
        seconds,
        traced: args.traced,
        frozen: Frozen::load(args.smoke),
        scratch: Scratch::new(&work_dir(), workload).map_err(|e| e.to_string())?,
        out_dir: out_dir.clone(),
    };
    let result = run_workload(workload, &ctx)?;
    let line = report::print_run(workload, args.traced, &result, &bench)?;
    let mut header = report::stamp();
    header["seed"] = json!(args.seed);
    header["seconds"] = json!(seconds);
    header["smoke"] = json!(args.smoke);
    header["config"] = json!({ "globals": globals, "frozen": ctx.frozen });
    header["info"] = json!(result.info);
    header["violations"] = json!(result.violations);
    report::write_run_file(&out_dir, workload, args.traced, &line, &header)
        .map_err(|e| e.to_string())?;
    println!("{line}");
    // The printed object carries `correct`; the exit code only says whether
    // a result was produced.
    Ok(true)
}

/// Re-run this binary for one workload and return the final JSON line.
/// Each workload gets a process of its own: `hedc_obs::global()` and
/// `hedc_metadb::tuning` are process-wide, and peak RSS is per process.
fn run_child(args: &Args, workload: &str, traced: bool, dir: &Path) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(dir);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    let last = stdout.lines().last().unwrap_or("");
    match serde_json::from_str::<Value>(last) {
        Ok(v) if v["metrics"].is_object() => Ok(v),
        _ => Err(format!(
            "{workload} printed no result (exit {:?}): {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Every workload, each in a child process, `--repeat` times; writes
/// `<dir>/<workload>.json` holding every run and the per-metric medians,
/// and with `--traced` one per-layer pass per workload as well.
fn run_all(args: &Args) -> Result<bool, String> {
    let bench = Benchmark::load();
    let dir = args.out.clone().unwrap_or_else(work_dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut header = report::stamp();
    header["seed"] = json!(args.seed);
    header["seconds"] = json!(seconds(args, &bench));
    header["smoke"] = json!(args.smoke);
    header["config"] = json!({ "frozen": Frozen::load(args.smoke) });
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for r in 0..args.repeat.max(1) {
            let run_dir = dir.join(format!("run{r}"));
            let line = run_child(args, workload, false, &run_dir)?;
            all_correct &= line["correct"].as_bool() == Some(true);
            runs.push(line);
        }
        let mut medians = serde_json::Map::new();
        for spec in &bench.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r["metrics"][&spec.name]["value"].as_f64())
                .collect();
            medians.insert(
                spec.name.clone(),
                json!({ "value": hedc_e2e_bench::gen::median(&values), "unit": spec.unit }),
            );
        }
        let mut doc = header.clone();
        doc["workload"] = json!(workload);
        doc["runs"] = json!(runs);
        doc["median"] = Value::Object(medians);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(dir.join(format!("{workload}.json")), text + "\n")
            .map_err(|e| e.to_string())?;
        if args.traced {
            let line = run_child(args, workload, true, &dir)?;
            all_correct &= line["correct"].as_bool() == Some(true);
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        match argv.as_slice() {
            [_, a, b] => compare::compare(Path::new(a), Path::new(b), &Benchmark::load()),
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse_args(&argv).and_then(|args| match (&args.workload, args.all) {
            (Some(w), false) => run_one(&args, w),
            (None, true) => run_all(&args),
            _ => Err(USAGE.to_string()),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::from(2)
        }
    }
}
