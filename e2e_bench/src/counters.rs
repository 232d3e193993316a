//! `[C]` ledger rows: deltas of counters and histograms the program
//! already keeps, read from outside before and after a pass.

use crate::report::RunResult;
use hedc_dm::DmIo;
use hedc_metadb::StatsSnapshot;
use hedc_obs::RegistrySnapshot;

/// The process-global registry plus the per-database statistics of the
/// nodes a pass drives, at one instant.
pub struct Counters {
    reg: RegistrySnapshot,
    db: StatsSnapshot,
}

fn sum_db(ios: &[&DmIo]) -> StatsSnapshot {
    let mut total = StatsSnapshot::default();
    for db in ios.iter().flat_map(|io| io.databases()) {
        let s = db.stats();
        total.queries += s.queries;
        total.edits += s.edits;
        total.rows_scanned += s.rows_scanned;
        total.rows_returned += s.rows_returned;
        total.rows_sorted += s.rows_sorted;
        total.index_hits += s.index_hits;
        total.full_scans += s.full_scans;
        total.commits += s.commits;
        total.rollbacks += s.rollbacks;
    }
    total
}

/// `db.queries` summed over the databases of `io`: cheap enough to read
/// around a single call (hit-or-miss detection, the drift guard).
pub fn db_queries(io: &DmIo) -> u64 {
    io.databases().iter().map(|db| db.stats().queries).sum()
}

impl Counters {
    /// Snapshot the registry and the databases behind `ios`.
    pub fn read(ios: &[&DmIo]) -> Counters {
        Counters {
            reg: hedc_obs::global().snapshot(),
            db: sum_db(ios),
        }
    }

    /// Database statistics accumulated since `earlier`.
    pub fn db_since(&self, earlier: &Counters) -> StatsSnapshot {
        self.db.since(&earlier.db)
    }

    fn counter(&self, name: &str) -> u64 {
        self.reg
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Increase of a counter since `earlier`.
    pub fn delta(&self, earlier: &Counters, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> i64 {
        self.reg
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    fn hist(&self, name: &str) -> (u64, u64) {
        self.reg
            .histogram(name)
            .map_or((0, 0), |h| (h.count, h.sum_us))
    }

    /// Samples a histogram gained since `earlier`.
    pub fn hist_count(&self, earlier: &Counters, name: &str) -> u64 {
        self.hist(name).0.saturating_sub(earlier.hist(name).0)
    }

    /// Mean of the samples a histogram gained since `earlier`, µs (0 when
    /// it gained none). Histogram samples are whole microseconds.
    pub fn hist_mean_us(&self, earlier: &Counters, name: &str) -> f64 {
        let (c1, s1) = self.hist(name);
        let (c0, s0) = earlier.hist(name);
        ratio(s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64)
    }
}

/// The `[C]` rows every node-driving pass reports, from the readings
/// before (`c0`) and after (`c1`) a pass of `ops` ops: result/name cache,
/// connection pool, metadb compile/execute and access paths, pager, and
/// bytes over the wire (which must be 0 off the cluster).
pub fn record_node_rows(result: &mut RunResult, c0: &Counters, c1: &Counters, ops: u64) {
    let ops = ops.max(1) as f64;
    let db = c1.db_since(c0);
    let (hit, miss) = (c1.delta(c0, "cache.hit"), c1.delta(c0, "cache.miss"));
    result.set("cache.hit_ratio", ratio(hit as f64, (hit + miss) as f64));
    result.set("cache.evictions", c1.delta(c0, "cache.evict") as f64);
    result.set("cache.bytes", c1.gauge("cache.bytes") as f64);
    result.set(
        "dm.queries_per_page",
        c1.hist_count(c0, "dm.query") as f64 / ops,
    );
    result.set("dm.pool_wait_us", c1.hist_mean_us(c0, "db.pool.acquire"));
    result.set("metadb.compile_us", c1.hist_mean_us(c0, "metadb.compile"));
    result.set("metadb.execute_us", c1.hist_mean_us(c0, "metadb.execute"));
    result.set(
        "metadb.rows_scanned_per_row_returned",
        ratio(db.rows_scanned as f64, db.rows_returned as f64),
    );
    result.set(
        "metadb.full_scan_ratio",
        ratio(db.full_scans as f64, db.queries as f64),
    );
    let (phit, pmiss) = (
        c1.delta(c0, "store.page_cache.hit"),
        c1.delta(c0, "store.page_cache.miss"),
    );
    result.set(
        "store.page_hit_ratio",
        ratio(phit as f64, (phit + pmiss) as f64),
    );
    result.set(
        "store.evictions",
        c1.delta(c0, "store.page_cache.evict") as f64,
    );
    result.set(
        "store.pages_per_query",
        ratio((phit + pmiss) as f64, db.queries as f64),
    );
    result.set(
        "store.writer_stall_us",
        c1.hist_mean_us(c0, "store.writer.stall"),
    );
    result.set("filestore.read_us", c1.hist_mean_us(c0, "fs.read"));
    result.set(
        "filestore.bytes_read_per_op",
        c1.delta(c0, "fs.read_bytes") as f64 / ops,
    );
    result.set(
        "net.bytes_per_op",
        (c1.delta(c0, "net.client.bytes_in") + c1.delta(c0, "net.client.bytes_out")) as f64 / ops,
    );
}

/// Violation text when a single-node workload moved bytes over the wire
/// between two readings (`net.client.bytes_*` must not move there).
pub fn wire_violation(before: &Counters, after: &Counters) -> Option<String> {
    let wire =
        after.delta(before, "net.client.bytes_in") + after.delta(before, "net.client.bytes_out");
    (wire != 0).then(|| format!("a single-node workload moved {wire} bytes over the wire"))
}

/// `num / den`, or 0 when `den` is 0 (a ratio over nothing observed).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
