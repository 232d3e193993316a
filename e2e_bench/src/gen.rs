//! The load generator: seeded op streams, a closed-loop phase, an open-loop
//! phase timed from each request's *due* time, and the percentile helper.
//!
//! One process, at most `nproc` generator threads. In the open loop a
//! seeded schedule of due times (exponential gaps at a fixed mean rate) is
//! drained by the generator threads; a request that leaves late because the
//! generator was stuck behind a slow predecessor is charged that wait, so a
//! stall shows in every request it delays (no coordinated omission).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A send that leaves more than this after its due time counts as late.
pub const LATE_US: u64 = 1_000;
/// How long past the window generator threads keep sending ops that were due
/// inside it. Long enough that a stall at the very end of the window is
/// charged the way a stall in its middle is — as latency of the requests it
/// delayed — and short against the window, so that a generator which is
/// simply outrun (overload) still leaves its backlog behind.
pub const DRAIN: Duration = Duration::from_secs(1);
/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A per-op generator: op `index` of `stream` under `seed` always draws the
/// same values, whichever thread asks and in whatever order.
pub fn op_rng(seed: u64, stream: u64, index: u64) -> StdRng {
    let mut s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    s = hedc_dm::splitmix64(&mut s) ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    StdRng::seed_from_u64(s)
}

/// Zipf(s) sampler over ranks `0..n` by inverse CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the CDF for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw a rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Due times (µs from window start) of an open-loop phase: exponential gaps
/// with mean `1/rate_per_s`, up to `window`.
pub fn schedule(seed: u64, rate_per_s: f64, window: Duration) -> Vec<u64> {
    assert!(rate_per_s > 0.0);
    let mut rng = op_rng(seed, 0x5C4E_D01E, 0);
    let mean_gap_us = 1e6 / rate_per_s;
    let end = window.as_micros() as f64;
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate_per_s * window.as_secs_f64() * 1.1) as usize + 8);
    loop {
        let u: f64 = rng.gen();
        t += -mean_gap_us * (1.0 - u).ln();
        if t >= end {
            return due;
        }
        due.push(t as u64);
    }
}

/// The `q`-quantile (nearest rank) of `sorted`, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it — a percentile read off a
/// handful of samples is noise, so it is refused rather than reported.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    assert!((0.0..1.0).contains(&q));
    let n = sorted.len();
    let rank = ((n as f64) * q).ceil() as usize;
    if n - rank.min(n) < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank.max(1) - 1])
}

/// Median of a small set of measurements (set-up repeats, probe rounds),
/// where the tail rule of [`percentile`] does not apply. `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// What a closed-loop phase measured.
#[derive(Debug, Default, Clone)]
pub struct ClosedStats {
    /// Ops attempted (started).
    pub attempted: u64,
    /// Ops whose result failed verification or errored.
    pub failed: u64,
    /// Wall time from phase start until the last client finished.
    pub elapsed: Duration,
    /// Per-op latency, ns, sorted (successful ops).
    pub latencies_ns: Vec<u64>,
    /// When each successful op completed, ns from phase start, sorted.
    pub completions_ns: Vec<u64>,
}

impl ClosedStats {
    /// Completed, verified ops per second over the whole phase.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64()
    }

    /// Completed, verified ops per second over the fastest of `blocks` blocks
    /// of equally many consecutive completions (each block's count ÷ the
    /// time it took). What disturbs a closed loop on a shared 2-core host —
    /// a neighbour's burst, the two clients falling into step on a lock — only
    /// ever slows it, and comes and goes within a fraction of a second; the
    /// fastest block is the rate the program sustains when left alone, and
    /// repeats from run to run where the mean and the median block do not.
    pub fn best_block_ops_per_s(&self, blocks: usize) -> f64 {
        let per_block = self.completions_ns.len() / blocks.max(1);
        if per_block == 0 {
            return self.ops_per_s();
        }
        let mut best = 0.0f64;
        let mut block_start = 0u64;
        for block in self.completions_ns.chunks_exact(per_block) {
            let end = *block.last().expect("non-empty block");
            best = best.max(per_block as f64 / ((end - block_start).max(1) as f64 / 1e9));
            block_start = end;
        }
        best
    }
}

/// When a closed-loop phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Fixed time: clients stop taking ops once the window has elapsed.
    Window(Duration),
    /// Fixed work: clients drain op indices `0..count` (`analysis_mix`,
    /// where the op list, not the window, is what repeats).
    Count(u64),
}

/// Closed loop: `clients` threads, each sending its next op when the
/// previous one returns. `op(client, index)` returns whether the op
/// succeeded and verified; indices are global and dense, so the op stream
/// does not depend on thread interleaving.
pub fn closed_loop(
    clients: usize,
    limit: Limit,
    op: &(dyn Fn(usize, u64) -> bool + Sync),
) -> ClosedStats {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let per_client: Vec<(u64, u64, Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let next = &next;
                s.spawn(move || {
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    let (mut lat, mut done) = (Vec::new(), Vec::new());
                    loop {
                        if matches!(limit, Limit::Window(w) if start.elapsed() >= w) {
                            break;
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if matches!(limit, Limit::Count(n) if idx >= n) {
                            break;
                        }
                        let t0 = Instant::now();
                        let ok = op(c, idx);
                        attempted += 1;
                        if ok {
                            lat.push(t0.elapsed().as_nanos() as u64);
                            done.push(start.elapsed().as_nanos() as u64);
                        } else {
                            failed += 1;
                        }
                    }
                    (attempted, failed, lat, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut stats = ClosedStats {
        elapsed: start.elapsed(),
        ..ClosedStats::default()
    };
    for (a, f, lat, done) in per_client {
        stats.attempted += a;
        stats.failed += f;
        stats.latencies_ns.extend(lat);
        stats.completions_ns.extend(done);
    }
    stats.latencies_ns.sort_unstable();
    stats.completions_ns.sort_unstable();
    stats
}

/// What an open-loop phase measured.
#[derive(Debug, Default, Clone)]
pub struct OpenStats {
    /// Ops scheduled inside the window.
    pub scheduled: u64,
    /// Ops sent (the rest were still queued when the window closed).
    pub sent: u64,
    /// Sent ops that failed verification or errored.
    pub failed: u64,
    /// Scheduled ops not yet sent at window end: the backlog.
    pub backlog_end: u64,
    /// Sends that left more than [`LATE_US`] after their due time.
    pub late: u64,
    /// Latency from **due time** to completion, ns, sorted (successful ops).
    pub latencies_ns: Vec<u64>,
}

impl OpenStats {
    /// Ops that count as failed: errors, wrong answers and the backlog.
    pub fn failed_total(&self) -> u64 {
        self.failed + self.backlog_end
    }

    /// Share of sends that left late.
    pub fn late_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.late as f64 / self.sent as f64
        }
    }
}

/// Open loop: `threads` generator threads drain the schedule `due_us`
/// (offsets from phase start, all inside `window`). Each takes the next
/// unsent op, spins until it is due, runs it, and records `completion -
/// due`. The threads get [`DRAIN`] past the window to send what was due just
/// before it closed; an op whose turn has not come by then is not sent. It
/// is the backlog: under overload the schedule runs ahead of the generator
/// and most of it ends up there.
pub fn open_loop(
    threads: usize,
    due_us: &[u64],
    window: Duration,
    op: &(dyn Fn(usize, u64) -> bool + Sync),
) -> OpenStats {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stop_us = (window + DRAIN).as_micros() as u64;
    let per_thread: Vec<(u64, u64, u64, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|c| {
                let next = &next;
                s.spawn(move || {
                    let (mut sent, mut failed, mut late, mut lat) = (0u64, 0u64, 0u64, Vec::new());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = due_us.get(i) else { break };
                        let due_at = Duration::from_micros(due);
                        // Spin, never sleep. A sleep overshoots by a timer
                        // slack, and a core left idle for the gap comes back
                        // with cold caches (and, on a shared host, may have
                        // to be won back from a neighbour first): both would
                        // be charged to the program as latency, and both
                        // vary from run to run with what the host is doing.
                        while start.elapsed() < due_at {
                            std::hint::spin_loop();
                        }
                        let now = start.elapsed().as_micros() as u64;
                        if now >= stop_us {
                            break;
                        }
                        if now.saturating_sub(due) > LATE_US {
                            late += 1;
                        }
                        let ok = op(c, i as u64);
                        sent += 1;
                        if ok {
                            lat.push(start.elapsed().saturating_sub(due_at).as_nanos() as u64);
                        } else {
                            failed += 1;
                        }
                    }
                    (sent, failed, late, lat)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop generator panicked"))
            .collect()
    });
    let mut stats = OpenStats {
        scheduled: due_us.len() as u64,
        ..OpenStats::default()
    };
    for (sent, failed, late, lat) in per_thread {
        stats.sent += sent;
        stats.failed += failed;
        stats.late += late;
        stats.latencies_ns.extend(lat);
    }
    stats.backlog_end = stats.scheduled - stats.sent;
    stats.latencies_ns.sort_unstable();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let w = Duration::from_secs(2);
        let a = schedule(7, 500.0, w);
        assert_eq!(a, schedule(7, 500.0, w));
        assert_ne!(a, schedule(8, 500.0, w));
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        // ~1000 arrivals; exponential gaps give sqrt(n) spread.
        assert!((850..1150).contains(&a.len()), "{}", a.len());
        assert!(*a.last().unwrap() < w.as_micros() as u64);
    }

    #[test]
    fn op_streams_do_not_depend_on_draw_order() {
        let a: u64 = op_rng(1, 2, 3).gen();
        let _: u64 = op_rng(1, 2, 4).gen();
        assert_eq!(a, op_rng(1, 2, 3).gen::<u64>());
        assert_ne!(a, op_rng(1, 3, 3).gen::<u64>());
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<u64> = (1..=199).collect();
        // 199 samples: ceil(199 * 0.95) = 190, 9 beyond — refused.
        assert_eq!(percentile(&v, 0.95), None);
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 0.95), Some(190));
        assert_eq!(percentile(&v, 0.5), Some(100));
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[5, 6, 7], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time_to_every_delayed_request() {
        // One generator thread, ops due every 5 ms; op 2 stalls 50 ms, the
        // others take ~0. Measured from the send time, only op 2 would look
        // slow. Measured from the due time, ops 3..=11 (due during the
        // stall) each carry the part of the stall they waited out.
        let due: Vec<u64> = (0..40).map(|i| i * 5_000).collect();
        let op = |_c: usize, i: u64| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(50));
            }
            true
        };
        let stats = open_loop(1, &due, Duration::from_millis(400), &op);
        assert_eq!(stats.sent, 40);
        assert_eq!(stats.backlog_end, 0);
        let delayed = stats
            .latencies_ns
            .iter()
            .filter(|&&l| l >= 4_000_000)
            .count();
        assert!(
            (9..=12).contains(&delayed),
            "the stalled op plus the ~9 ops due during its 50 ms: {delayed}"
        );
        // Those sends left late, and the generator says so.
        assert!(stats.late >= 8, "late = {}", stats.late);
        assert!(stats.late_ratio() > 0.15 && stats.late_ratio() < 0.5);
        // Longest latency ≈ the stall itself, not stall + queue.
        assert!(*stats.latencies_ns.last().unwrap() < 80_000_000);
    }

    #[test]
    fn ops_still_queued_at_window_end_are_the_backlog() {
        // 10 ms ops at 1000/s on one thread: the window closes long before
        // the schedule drains.
        let due = schedule(3, 1000.0, Duration::from_millis(200));
        let op = |_c: usize, _i: u64| {
            std::thread::sleep(Duration::from_millis(10));
            true
        };
        let stats = open_loop(1, &due, Duration::from_millis(200), &op);
        // 10 ms ops for the 200 ms window plus the drain allowance.
        assert!(stats.sent <= 125, "sent {}", stats.sent);
        assert_eq!(stats.backlog_end, stats.scheduled - stats.sent);
        assert!(stats.backlog_end > 60);
        assert_eq!(stats.failed_total(), stats.backlog_end);
    }

    #[test]
    fn closed_loop_counts_failures_apart() {
        let flip = AtomicBool::new(false);
        let op = |_c: usize, _i: u64| flip.fetch_xor(true, Ordering::Relaxed);
        let stats = closed_loop(2, Limit::Window(Duration::from_millis(50)), &op);
        assert!(stats.attempted > 100);
        assert!(stats.failed > 0 && stats.failed < stats.attempted);
        assert_eq!(
            stats.latencies_ns.len() as u64,
            stats.attempted - stats.failed
        );
        let fixed = closed_loop(2, Limit::Count(100), &|_, i| i % 10 != 0);
        assert_eq!((fixed.attempted, fixed.failed), (100, 10));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = op_rng(9, 9, 9);
        let mut top10 = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                top10 += 1;
            }
        }
        assert!((3_000..6_000).contains(&top10), "{top10}");
    }
}
