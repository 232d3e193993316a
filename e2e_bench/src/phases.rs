//! The phases every workload is assembled from: what a run is asked to do
//! ([`RunCtx`]), and the trials an untraced run is cut into ([`Trials`]) —
//! each a timed set-up followed by warm-up → closed loop → open loop on the
//! system it built.

use crate::gen::{self, median, ClosedStats, Limit, OpenStats};
use crate::nodes::Scratch;
use crate::report::RunResult;
use crate::spec::Frozen;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Op stream of the untimed warm-up.
pub const STREAM_WARMUP: u64 = 1;
/// Op stream of the closed-loop phase.
pub const STREAM_CLOSED: u64 = 2;
/// Op stream of the open-loop phase.
pub const STREAM_OPEN: u64 = 3;
/// Op stream of the traced pass.
pub const STREAM_TRACE: u64 = 4;

/// Everything one workload run is given.
pub struct RunCtx {
    /// Workload seed: data set, op streams and schedules derive from it.
    pub seed: u64,
    /// Timed seconds (`--seconds`), split between the trials and their
    /// timed phases.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) pass.
    pub traced: bool,
    /// Frozen sizes and rates (already shrunk under `--smoke`).
    pub frozen: Frozen,
    /// Where nodes keep their files.
    pub scratch: Scratch,
    /// Where run files and the trace are written.
    pub out_dir: PathBuf,
}

impl RunCtx {
    /// Length of one of `parts` equal timed windows.
    pub fn window(&self, parts: f64) -> Duration {
        Duration::from_secs_f64(self.seconds / parts)
    }
}

/// The second-best of the trials' values (the best, if there is only one).
///
/// What disturbs a trial on a shared 2-core host — a neighbour taking the
/// cores or the last-level cache for some tens of seconds — only ever makes
/// it slower, by up to a factor of two, and often lasts longer than a trial.
/// A median over the trials follows the disturbance as soon as it covers
/// half the run; the second-best trial stays put until it covers all but one
/// of them, and unlike the very best it is not decided by one lucky trial.
pub fn second_best(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v.get(1).or(v.first()).copied().unwrap_or(f64::NAN)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Fold an open-loop phase of a traced run in: its ops count and the
/// generator's own numbers (`gen.*` rows).
pub fn record_gen(result: &mut RunResult, open: &OpenStats) {
    result.count(open.scheduled, open.failed_total());
    let p99 = gen::percentile(&open.latencies_ns, 0.99);
    result.set("gen.samples", open.latencies_ns.len() as f64);
    result.set("gen.late_ratio", open.late_ratio());
    result.set("gen.backlog_end", open.backlog_end as f64);
    result.set("gen.lat_p99_ms", p99.map_or(0.0, ms));
    result.set(
        "gen.fail_ratio",
        open.failed_total() as f64 / open.scheduled.max(1) as f64,
    );
}

/// The trials of an untraced run. A run is cut into several trials, each on
/// a system of its own built under the set-up clock, so the set-ups that
/// `setup_s` needs anyway each carry a share of the measurement. `setup_s`
/// is the median over the trials; `ops_per_s`, `lat_p50_ms` and `lat_p95_ms`
/// are each the **second-best trial's** value ([`second_best`]).
#[derive(Debug, Default)]
pub struct Trials {
    setup_s: Vec<f64>,
    ops_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p95_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    samples: u64,
    sent: u64,
    late: u64,
    backlog: u64,
}

impl Trials {
    /// Build one trial's system under the set-up clock.
    pub fn setup<T, E>(&mut self, build: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let t = Instant::now();
        let built = build()?;
        self.setup_s.push(t.elapsed().as_secs_f64());
        Ok(built)
    }

    /// Fold one trial's closed-loop phase in: its ops count, and its rate as
    /// the fastest of `blocks` blocks.
    pub fn closed(&mut self, closed: &ClosedStats, blocks: usize, result: &mut RunResult) {
        result.count(closed.attempted, closed.failed);
        self.ops_per_s.push(closed.best_block_ops_per_s(blocks));
    }

    /// Fold one trial's latencies (sorted, ns) in: their median and 95th
    /// percentile. `lat_p95_ms` needs ten samples beyond it in every trial; a
    /// trial too short to give them is a violation, not a silently noisier
    /// number.
    pub fn latencies(&mut self, sorted_ns: &[u64], result: &mut RunResult) {
        match (
            gen::percentile(sorted_ns, 0.50),
            gen::percentile(sorted_ns, 0.95),
        ) {
            (Some(p50), Some(p95)) => {
                self.p50_ms.push(ms(p50));
                self.p95_ms.push(ms(p95));
            }
            _ => result.violations.push(format!(
                "a trial gave {} latency samples: too few beyond p95",
                sorted_ns.len()
            )),
        }
        self.p99_ms.extend(gen::percentile(sorted_ns, 0.99).map(ms));
        self.samples += sorted_ns.len() as u64;
    }

    /// Fold one trial's open-loop phase in: its ops count, its latencies,
    /// and how the generator kept up.
    pub fn open(&mut self, open: &OpenStats, result: &mut RunResult) {
        result.count(open.scheduled, open.failed_total());
        self.latencies(&open.latencies_ns, result);
        self.sent += open.sent;
        self.late += open.late;
        self.backlog += open.backlog_end;
    }

    /// One trial's warm-up (untimed, fixed count) → closed loop → open loop
    /// (at the frozen `rate_per_s`), each timed phase `1 / (2 × trials)` of
    /// the run's seconds. `op(stream, client, index)` runs and verifies one
    /// op.
    pub fn warm_closed_open(
        &mut self,
        ctx: &RunCtx,
        rate_per_s: f64,
        op: &(dyn Fn(u64, usize, u64) -> bool + Sync),
        result: &mut RunResult,
    ) {
        let clients = ctx.frozen.clients;
        let warm = gen::closed_loop(clients, Limit::Count(ctx.frozen.warmup_ops), &|c, i| {
            op(STREAM_WARMUP, c, i)
        });
        if warm.failed > 0 {
            result
                .violations
                .push(format!("{} warm-up ops failed", warm.failed));
        }
        let window = ctx.window(2.0 * ctx.frozen.trials as f64);
        let closed = gen::closed_loop(clients, Limit::Window(window), &|c, i| {
            op(STREAM_CLOSED, c, i)
        });
        self.closed(&closed, ctx.frozen.blocks, result);
        let due = gen::schedule(ctx.seed, rate_per_s, window);
        let open = gen::open_loop(clients, &due, window, &|c, i| op(STREAM_OPEN, c, i));
        self.open(&open, result);
    }

    /// Set the end-to-end timings and note every trial's own values beside
    /// them.
    pub fn finish(self, result: &mut RunResult) {
        result.set("setup_s", median(&self.setup_s));
        result.set("ops_per_s", second_best(&self.ops_per_s, true));
        result.set("lat_p50_ms", second_best(&self.p50_ms, false));
        result.set("lat_p95_ms", second_best(&self.p95_ms, false));
        result.note("trials.setup_s", self.setup_s);
        result.note("trials.ops_per_s", self.ops_per_s);
        result.note("trials.lat_p50_ms", self.p50_ms);
        result.note("trials.lat_p95_ms", self.p95_ms);
        result.note("trials.lat_p99_ms", self.p99_ms);
        result.note("lat.samples", self.samples);
        result.note(
            "open.late_ratio",
            self.late as f64 / self.sent.max(1) as f64,
        );
        result.note("open.backlog_end", self.backlog);
    }
}

/// The generator's own numbers (`gen.*`) for a traced run: a short
/// open-loop phase at the frozen rate, tracing off.
pub fn gen_diagnostics(
    ctx: &RunCtx,
    rate_per_s: f64,
    op: &(dyn Fn(u64, usize, u64) -> bool + Sync),
    result: &mut RunResult,
) {
    let window = ctx.window(4.0);
    let due = gen::schedule(ctx.seed, rate_per_s, window);
    let open = gen::open_loop(ctx.frozen.clients, &due, window, &|c, i| {
        op(STREAM_OPEN, c, i)
    });
    record_gen(result, &open);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_best_ignores_one_lucky_and_all_the_disturbed_trials() {
        let latency = [0.9, 0.61, 1.4, 0.5, 0.62];
        assert_eq!(second_best(&latency, false), 0.61);
        let rate = [900.0, 1500.0, 1490.0, 700.0, 1480.0];
        assert_eq!(second_best(&rate, true), 1490.0);
        assert_eq!(second_best(&[3.0], false), 3.0);
        assert!(second_best(&[], true).is_nan());
    }
}
