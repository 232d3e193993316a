//! Horizontal partitioning: the sharded DM cluster (ROADMAP item 1).
//!
//! The paper's §5.4 call redirection and the [`crate::DmRouter`] failover
//! built on it load-balance over *replicas of everything*: every node holds
//! the full catalog, so adding nodes buys availability but not capacity.
//! This module partitions the metadata itself — the distributed-warehouse
//! move of the astroparticle and SDSS archive migrations — while keeping
//! replica failover *per shard*:
//!
//! * [`ShardMap`] — a versioned (epoch-stamped) description of which shard
//!   owns which rows of which table, by hash over an integer key column
//!   (item ids) or by time-range cuts (observation windows). Serde-
//!   serializable so it crosses the wire; see `hedc-net` for the epoch
//!   handshake and the wrong-shard redirect frame.
//! * [`ShardedDm`] — a router layer *above* [`crate::DmRouter`]: one router
//!   (replica set) per shard. Point lookups and `resolve_batch` chunks go
//!   to exactly one shard's replicas; range/catalog queries fan out
//!   scatter-gather with partial-result merge. The PR 4 top-k pushdown
//!   composes: `LIMIT offset+limit` is pushed to every shard and a stable
//!   sort of the sorted partials at the router recombines; the PR 8
//!   `Overloaded` policy composes
//!   untouched because each shard *is* a `DmRouter`.
//! * [`ShardMover`] — rebalancing on node add/remove as §5.2 archive
//!   relocation at cluster scale: a staged, crash-resumable step table
//!   over the [`crate::workflow`] engine (done ⇒ skip, an interrupted copy
//!   is compensated, cutover and cleanup redo idempotently). The old shard
//!   serves reads until the cutover step bumps the map epoch and the moved
//!   shards' cache generations.
//!
//! # Merge semantics
//!
//! [`FanoutPlan::merge`] reproduces the single-node executor's observable
//! output (`columns` + `rows`) exactly, with two documented carve-outs:
//! rows tied under the requested `ORDER BY` (or rows of an un-ordered
//! query) come back in shard-concatenation order rather than single-node
//! scan order, and `SUM`/`AVG` over *float* columns recombine partial
//! sums, so they match up to f64 addition order. Queries whose sort keys
//! are a total order (e.g. a unique id as the final key) and integer
//! aggregates are byte-identical — which is what the seeded oracle suite
//! (`tests/shard_prop.rs`) pins.
//!
//! Execution statistics are synthesized (scans sum across shards); only
//! `columns` and `rows` carry identity guarantees.

use crate::error::{DmError, DmResult};
use crate::io::DmIo;
use crate::redirect::{scatter, DmNode, DmRouter};
use crate::workflow::{self, CrashSite, Probe, Step, Workflow};
use crate::{NameType, ResolvedName};
use hedc_cache::{CacheConfig, GenerationMap, QueryCache};
use hedc_metadb::{
    AccessPath, AggFunc, CmpOp, ExecStats, Expr, OrderDir, Projection, Query, QueryResult,
    Statement, Value,
};
use hedc_obs::splitmix64;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, RwLock};

/// Cache scope tag for results assembled by [`ShardedDm`]. Structural
/// isolation from the router/net scopes: merged results are never
/// interchangeable with single-node results.
pub const SHARD_SCOPE: &str = "shard";

/// The table whose sharding spec routes item-id based name resolution
/// (`resolve_batch`). Items, their entries and transforms co-locate.
pub const ITEM_TABLE: &str = "loc_item";

// ---------------------------------------------------------------------------
// Shard map
// ---------------------------------------------------------------------------

/// How one table's rows map to shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShardScheme {
    /// Hash partitioning: `slot = splitmix64(key) % slots.len()`, and
    /// `slots[slot]` names the owning shard. Rebalancing moves slots.
    Hash {
        /// Slot → shard assignment. Length is the (fixed) slot count.
        slots: Vec<u32>,
    },
    /// Range partitioning over an integer (time) column: `cuts` are the
    /// ascending interval boundaries; keys `< cuts[0]` fall in interval 0,
    /// keys `>= cuts[last]` in the last. `assign[i]` names the shard owning
    /// interval `i`; `assign.len() == cuts.len() + 1`.
    Range {
        /// Ascending interval boundaries.
        cuts: Vec<i64>,
        /// Interval → shard assignment.
        assign: Vec<u32>,
    },
}

/// One table's sharding spec: the key column plus the scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableSharding {
    /// The integer key column rows are placed by.
    pub column: String,
    /// Hash or range placement.
    pub scheme: ShardScheme,
}

impl TableSharding {
    /// Partition → shard assignment: hash slots or range intervals.
    fn assigned(&self) -> &[u32] {
        match &self.scheme {
            ShardScheme::Hash { slots } => slots,
            ShardScheme::Range { assign, .. } => assign,
        }
    }

    /// The partition (hash slot or range interval) owning `key`.
    fn part_of(&self, key: i64) -> usize {
        match &self.scheme {
            ShardScheme::Hash { slots } => (hash_key(key) % slots.len() as u64) as usize,
            ShardScheme::Range { cuts, .. } => cuts.partition_point(|&c| c <= key),
        }
    }

    /// The shard owning `key`.
    fn shard_of(&self, key: i64) -> u32 {
        self.assigned()[self.part_of(key)]
    }
}

/// The versioned cluster partitioning description. Tables not listed are
/// *replicated*: present on every shard, served by any one of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardMap {
    /// Monotone version. Every rebalance cutover installs a higher epoch;
    /// clients holding an older epoch are redirected (see `hedc-net`).
    pub epoch: u64,
    /// Number of shards in the cluster.
    pub shards: u32,
    /// Per-table sharding specs, keyed by lowercased table name.
    pub tables: BTreeMap<String, TableSharding>,
}

/// Where a query must run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// The filter pins the shard key: exactly one shard can hold matches.
    Single(u32),
    /// Scatter-gather over these shards (all of them, or a pruned subset
    /// for range predicates under range sharding).
    Fanout(Vec<u32>),
    /// The table is replicated; any one shard answers.
    Replicated,
}

fn hash_key(key: i64) -> u64 {
    let mut s = key as u64;
    splitmix64(&mut s)
}

/// The shard-key value of a literal, when it is an integer-like value.
fn key_of(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::Timestamp(t) => Some(*t),
        _ => None,
    }
}

impl ShardMap {
    /// An empty map (everything replicated) over `shards` shards, epoch 1.
    pub fn new(shards: u32) -> Self {
        assert!(shards >= 1);
        ShardMap {
            epoch: 1,
            shards,
            tables: BTreeMap::new(),
        }
    }

    /// Hash-shard `table` by `column` over `slot_count` slots assigned
    /// round-robin across the shards.
    pub fn with_hash(mut self, table: &str, column: &str, slot_count: usize) -> Self {
        assert!(slot_count >= 1);
        let slots = (0..slot_count as u32).map(|i| i % self.shards).collect();
        self.tables.insert(
            table.to_ascii_lowercase(),
            TableSharding {
                column: column.to_string(),
                scheme: ShardScheme::Hash { slots },
            },
        );
        self
    }

    /// Range-shard `table` by `column` with explicit interval boundaries
    /// and per-interval shard assignment (`assign.len() == cuts.len()+1`).
    pub fn with_range(
        mut self,
        table: &str,
        column: &str,
        cuts: Vec<i64>,
        assign: Vec<u32>,
    ) -> Self {
        assert_eq!(assign.len(), cuts.len() + 1);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
        assert!(assign.iter().all(|&s| s < self.shards));
        self.tables.insert(
            table.to_ascii_lowercase(),
            TableSharding {
                column: column.to_string(),
                scheme: ShardScheme::Range { cuts, assign },
            },
        );
        self
    }

    /// Range-shard `table` by `column` into `self.shards` equal intervals
    /// of `[lo, hi)`, interval `i` owned by shard `i`.
    pub fn with_even_range(self, table: &str, column: &str, lo: i64, hi: i64) -> Self {
        let n = self.shards as i64;
        assert!(hi > lo);
        let width = ((hi - lo) / n).max(1);
        let cuts: Vec<i64> = (1..n).map(|i| lo + i * width).collect();
        let assign: Vec<u32> = (0..self.shards).collect();
        self.with_range(table, column, cuts, assign)
    }

    /// This table's sharding spec, if it is partitioned.
    pub fn sharding(&self, table: &str) -> Option<&TableSharding> {
        self.tables.get(&table.to_ascii_lowercase())
    }

    /// The partition index (hash slot or range interval) owning `key`.
    pub fn part_for(&self, table: &str, key: i64) -> Option<u32> {
        Some(self.sharding(table)?.part_of(key) as u32)
    }

    /// The shard owning `key` in `table`; `None` when the table is
    /// replicated.
    pub fn shard_for(&self, table: &str, key: i64) -> Option<u32> {
        Some(self.sharding(table)?.shard_of(key))
    }

    /// The shard currently assigned to partition `part` of `table`.
    pub fn assignment(&self, table: &str, part: u32) -> Option<u32> {
        self.sharding(table)?.assigned().get(part as usize).copied()
    }

    /// A successor map with partition `part` of `table` reassigned to
    /// shard `to` and the epoch bumped. The rebalance cutover installs
    /// this.
    pub fn reassign(&self, table: &str, part: u32, to: u32) -> ShardMap {
        let mut next = self.clone();
        next.epoch += 1;
        if let Some(spec) = next.tables.get_mut(&table.to_ascii_lowercase()) {
            match &mut spec.scheme {
                ShardScheme::Hash { slots } => slots[part as usize] = to,
                ShardScheme::Range { assign, .. } => assign[part as usize] = to,
            }
        }
        next
    }

    /// Shards whose key space intersects `[lo, hi]` (inclusive; `None` is
    /// unbounded). Hash sharding cannot prune ranges, so it returns every
    /// shard the table touches.
    fn shards_for_range(&self, spec: &TableSharding, lo: Option<i64>, hi: Option<i64>) -> Vec<u32> {
        match &spec.scheme {
            ShardScheme::Hash { slots } => {
                let mut all: Vec<u32> = slots.clone();
                all.sort_unstable();
                all.dedup();
                all
            }
            ShardScheme::Range { cuts, assign } => {
                let first = lo.map_or(0, |l| cuts.partition_point(|&c| c <= l));
                let last = hi.map_or(assign.len() - 1, |h| cuts.partition_point(|&c| c <= h));
                let mut out: Vec<u32> = assign[first..=last].to_vec();
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }

    /// Decide where `q` must run under this map. The filter's conjuncts
    /// (AND-connected top-level terms) are inspected for sargable
    /// constraints on the shard-key column — equality and `IN` pin shards
    /// under either scheme; `BETWEEN` and inequality ranges prune under
    /// range sharding. Conjunct constraints intersect; a contradiction
    /// (e.g. `item_id = 5 AND item_id = 7` landing on different shards)
    /// degenerates to one of the named shards, which then proves the
    /// result empty.
    pub fn route(&self, q: &Query) -> Route {
        let Some(spec) = self.sharding(&q.table) else {
            return Route::Replicated;
        };
        let mut targets = self.shards_for_range(spec, None, None);
        if let Some(filter) = &q.filter {
            for conj in filter.conjuncts() {
                if let Some(set) = self.conjunct_shards(spec, conj) {
                    targets.retain(|s| set.contains(s));
                    if targets.is_empty() {
                        // Provably-empty intersection: still execute
                        // somewhere so the caller gets the right columns.
                        return Route::Single(set.first().copied().unwrap_or(0));
                    }
                }
            }
        }
        if targets.len() == 1 {
            Route::Single(targets[0])
        } else {
            Route::Fanout(targets)
        }
    }

    /// The shard set one conjunct constrains the key column to, or `None`
    /// when the conjunct says nothing about shard placement.
    fn conjunct_shards(&self, spec: &TableSharding, conj: &Expr) -> Option<Vec<u32>> {
        let col_matches =
            |e: &Expr| matches!(e, Expr::Name(n) if n.eq_ignore_ascii_case(&spec.column));
        match conj {
            Expr::Cmp(op, a, b) => {
                let (op, lit) = match (&**a, &**b) {
                    (l, Expr::Literal(v)) if col_matches(l) => (*op, v),
                    (Expr::Literal(v), r) if col_matches(r) => (flip_cmp(*op), v),
                    _ => return None,
                };
                let key = key_of(lit)?;
                match op {
                    CmpOp::Eq => Some(vec![spec.shard_of(key)]),
                    CmpOp::Lt | CmpOp::Le => Some(self.shards_for_range(spec, None, Some(key))),
                    CmpOp::Gt | CmpOp::Ge => Some(self.shards_for_range(spec, Some(key), None)),
                    CmpOp::Ne => None,
                }
            }
            Expr::Between { expr, lo, hi } => {
                if !col_matches(expr) {
                    return None;
                }
                let (Expr::Literal(l), Expr::Literal(h)) = (&**lo, &**hi) else {
                    return None;
                };
                let (l, h) = (key_of(l)?, key_of(h)?);
                Some(self.shards_for_range(spec, Some(l), Some(h)))
            }
            Expr::InList { expr, list } => {
                if !col_matches(expr) {
                    return None;
                }
                let mut out = Vec::new();
                for item in list {
                    let Expr::Literal(v) = item else { return None };
                    if v.is_null() {
                        continue;
                    }
                    out.push(spec.shard_of(key_of(v)?));
                }
                out.sort_unstable();
                out.dedup();
                Some(out)
            }
            _ => None,
        }
    }
}

fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Shared, swappable map handle (the epoch protocol's server-side state)
// ---------------------------------------------------------------------------

/// A shared, atomically swappable [`ShardMap`]: the router, the rebalance
/// workflow and the net-tier servers all read the same handle, so a
/// cutover is one `install` and every reader sees the new epoch on its
/// next routing decision.
pub struct ShardMapHandle {
    inner: RwLock<Arc<ShardMap>>,
}

impl ShardMapHandle {
    /// Wrap an initial map.
    pub fn new(map: ShardMap) -> Arc<Self> {
        hedc_obs::global()
            .gauge("dm.shard.epoch")
            .set(map.epoch as i64);
        hedc_obs::global()
            .gauge("dm.shard.count")
            .set(i64::from(map.shards));
        Arc::new(ShardMapHandle {
            inner: RwLock::new(Arc::new(map)),
        })
    }

    /// The current map.
    pub fn current(&self) -> Arc<ShardMap> {
        Arc::clone(&self.inner.read().expect("shard map poisoned"))
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Install `map` if it is newer than the current one. Returns whether
    /// it was installed; an equal-or-older epoch is ignored, which makes
    /// cutover re-runs after a crash idempotent.
    pub fn install(&self, map: ShardMap) -> bool {
        let mut cur = self.inner.write().expect("shard map poisoned");
        if map.epoch <= cur.epoch {
            return false;
        }
        hedc_obs::global()
            .gauge("dm.shard.epoch")
            .set(map.epoch as i64);
        *cur = Arc::new(map);
        true
    }
}

// ---------------------------------------------------------------------------
// Scatter-gather pushdown + merge
// ---------------------------------------------------------------------------

/// How one requested aggregate recombines from the pushed partial
/// aggregates. Indices are offsets into the partial aggregate list (the
/// partial row layout is `group_by ++ partials`).
#[derive(Debug, Clone)]
enum AggMerge {
    /// COUNT(*) / COUNT(col): sum the partial counts.
    CountSum(usize),
    /// SUM(col): recombine partial sums with the executor's
    /// int-iff-all-int rule.
    Sum(usize),
    /// AVG(col): final = merged SUM / merged COUNT.
    Avg {
        /// Partial `SUM(col)` index.
        sum: usize,
        /// Partial `COUNT(col)` index.
        count: usize,
    },
    /// MIN(col): minimum of the non-null partials.
    Min(usize),
    /// MAX(col): maximum of the non-null partials.
    Max(usize),
}

/// Merged SUM accumulator mirroring the executor's `Acc` sum fields.
#[derive(Debug, Clone, Copy, Default)]
struct SumAcc {
    seen: bool,
    is_int: bool,
    isum: i64,
    fsum: f64,
}

impl SumAcc {
    fn new() -> Self {
        SumAcc {
            seen: false,
            is_int: true,
            isum: 0,
            fsum: 0.0,
        }
    }

    /// Fold one shard's partial in; `false` for a partial no SUM produces.
    fn push(&mut self, partial: &Value) -> bool {
        match partial {
            Value::Null => {}
            Value::Int(i) => {
                self.seen = true;
                self.fsum += *i as f64;
                if self.is_int {
                    self.isum = self.isum.wrapping_add(*i);
                }
            }
            Value::Float(f) => {
                self.seen = true;
                self.is_int = false;
                self.fsum += f;
            }
            _ => return false,
        }
        true
    }

    fn sum_value(&self) -> Value {
        if !self.seen {
            Value::Null
        } else if self.is_int {
            Value::Int(self.isum)
        } else {
            Value::Float(self.fsum)
        }
    }

    fn sum_f64(&self) -> f64 {
        if self.is_int {
            self.isum as f64
        } else {
            self.fsum
        }
    }
}

/// The pushed-down per-shard query plus the recipe to recombine the
/// partial results into the answer of the original query. Built by
/// [`FanoutPlan::new`]; pure data + pure merge, so the oracle suite can
/// exercise it against shuffled shard reply orders directly.
pub struct FanoutPlan {
    original: Query,
    pushed: Query,
    /// Aggregate recombination recipe; empty for row queries.
    agg_merge: Vec<AggMerge>,
    /// Row queries: number of trailing pushed projection columns that were
    /// added only to carry ORDER BY keys and are stripped after the merge.
    widened_by: usize,
}

impl FanoutPlan {
    /// Plan the scatter for `q`.
    pub fn new(q: &Query) -> FanoutPlan {
        if !q.aggregates.is_empty() {
            return Self::plan_aggregate(q);
        }
        Self::plan_rows(q)
    }

    /// The per-shard query to execute.
    pub fn pushed(&self) -> &Query {
        &self.pushed
    }

    fn plan_rows(q: &Query) -> FanoutPlan {
        let mut pushed = q.clone();
        // The shards sort; the merge preserves order, then applies the
        // global window. Only `offset + limit` rows per shard can survive
        // the window, so that is all each shard returns (top-k pushdown).
        pushed.offset = None;
        pushed.limit = q.limit.map(|l| q.offset.unwrap_or(0).saturating_add(l));
        let mut widened_by = 0;
        if !q.order_by.is_empty() {
            if let Projection::Columns(cols) = &q.projection {
                let mut wide = cols.clone();
                for (oc, _) in &q.order_by {
                    if !wide.iter().any(|c| c.eq_ignore_ascii_case(oc)) {
                        wide.push(oc.clone());
                        widened_by += 1;
                    }
                }
                if widened_by > 0 {
                    pushed.projection = Projection::Columns(wide);
                }
            }
        }
        FanoutPlan {
            original: q.clone(),
            pushed,
            agg_merge: Vec::new(),
            widened_by,
        }
    }

    fn plan_aggregate(q: &Query) -> FanoutPlan {
        // Partial aggregate list, deduplicated: AVG decomposes into
        // SUM + COUNT partials; everything else pushes as itself.
        let mut partials: Vec<AggFunc> = Vec::new();
        let index_of = |p: AggFunc, partials: &mut Vec<AggFunc>| -> usize {
            if let Some(i) = partials.iter().position(|x| *x == p) {
                i
            } else {
                partials.push(p);
                partials.len() - 1
            }
        };
        let mut agg_merge = Vec::with_capacity(q.aggregates.len());
        for agg in &q.aggregates {
            let m = match agg {
                AggFunc::CountStar => {
                    AggMerge::CountSum(index_of(AggFunc::CountStar, &mut partials))
                }
                AggFunc::Count(c) => {
                    AggMerge::CountSum(index_of(AggFunc::Count(c.clone()), &mut partials))
                }
                AggFunc::Sum(c) => AggMerge::Sum(index_of(AggFunc::Sum(c.clone()), &mut partials)),
                AggFunc::Avg(c) => AggMerge::Avg {
                    sum: index_of(AggFunc::Sum(c.clone()), &mut partials),
                    count: index_of(AggFunc::Count(c.clone()), &mut partials),
                },
                AggFunc::Min(c) => AggMerge::Min(index_of(AggFunc::Min(c.clone()), &mut partials)),
                AggFunc::Max(c) => AggMerge::Max(index_of(AggFunc::Max(c.clone()), &mut partials)),
            };
            agg_merge.push(m);
        }
        let mut pushed = q.clone();
        pushed.aggregates = partials;
        pushed.order_by = Vec::new();
        pushed.limit = None;
        pushed.offset = None;
        FanoutPlan {
            original: q.clone(),
            pushed,
            agg_merge,
            widened_by: 0,
        }
    }

    /// Recombine per-shard partial results (one entry per scattered shard;
    /// any positional order) into the original query's answer. The partials
    /// arrive off the wire: one whose shape is not what [`Self::pushed`]
    /// produces is a [`DmError::RemoteFailed`] naming its position, never a
    /// panic.
    pub fn merge(&self, parts: Vec<QueryResult>) -> DmResult<QueryResult> {
        if self.agg_merge.is_empty() {
            self.merge_rows(parts)
        } else {
            self.merge_aggregates(parts)
        }
    }

    /// Every row of every partial must be `width` values wide — the merge
    /// indexes rows by column position from here on.
    fn check_widths(parts: &[QueryResult], width: usize) -> DmResult<()> {
        for (k, part) in parts.iter().enumerate() {
            if let Some(row) = part.rows.iter().find(|r| r.len() != width) {
                return Err(malformed(
                    k,
                    format!("a row of {} values where {width} were pushed", row.len()),
                ));
            }
        }
        Ok(())
    }

    fn merge_rows(&self, parts: Vec<QueryResult>) -> DmResult<QueryResult> {
        let q = &self.original;
        let mut stats = sum_stats(&parts);
        // Column labels of the merged (possibly widened) row set.
        let mut columns: Vec<String> = parts.first().map(|p| p.columns.clone()).unwrap_or_default();
        if let Some(k) = parts.iter().position(|p| p.columns.len() != columns.len()) {
            return Err(malformed(
                k,
                format!(
                    "{} columns where partial 0 has {}",
                    parts[k].columns.len(),
                    columns.len()
                ),
            ));
        }
        Self::check_widths(&parts, columns.len())?;
        let keys: Vec<(usize, OrderDir)> = q
            .order_by
            .iter()
            .map(|(c, d)| {
                columns
                    .iter()
                    .position(|l| l.eq_ignore_ascii_case(c))
                    .map(|i| (i, *d))
                    .ok_or_else(|| malformed(0, format!("no ORDER BY column `{c}`")))
            })
            .collect::<DmResult<_>>()?;
        let mut rows: Vec<Vec<Value>> = parts.into_iter().flat_map(|p| p.rows).collect();
        if !keys.is_empty() {
            // Each partial arrives sorted, so this is a merge of k runs; the
            // sort is stable, so ties stay in shard-concatenation order.
            rows.sort_by(|a, b| cmp_by_keys(a, b, &keys));
            stats.rows_sorted += rows.len();
        }
        apply_window(&mut rows, q);
        // Strip the ORDER BY carrier columns the plan widened the projection
        // by. Each resolved to a distinct column above, so there are at
        // least that many.
        if self.widened_by > 0 {
            let keep = columns.len().saturating_sub(self.widened_by);
            columns.truncate(keep);
            for r in &mut rows {
                r.truncate(keep);
            }
        }
        stats.rows_returned = rows.len();
        Ok(QueryResult {
            columns,
            rows,
            stats,
        })
    }

    fn merge_aggregates(&self, parts: Vec<QueryResult>) -> DmResult<QueryResult> {
        let q = &self.original;
        let mut stats = sum_stats(&parts);
        let n_groups = q.group_by.len();
        let n_partials = self.pushed.aggregates.len();

        // Accumulate per group key. BTreeMap over Vec<Value> sorts groups
        // exactly like the executor's default group-key order.
        #[derive(Clone)]
        struct GroupAcc {
            counts: Vec<i64>,
            sums: Vec<SumAcc>,
            mins: Vec<Option<Value>>,
            maxs: Vec<Option<Value>>,
        }
        let empty = GroupAcc {
            counts: vec![0; n_partials],
            sums: vec![SumAcc::new(); n_partials],
            mins: vec![None; n_partials],
            maxs: vec![None; n_partials],
        };
        Self::check_widths(&parts, n_groups + n_partials)?;
        let mut groups: BTreeMap<Vec<Value>, GroupAcc> = BTreeMap::new();
        for (k, part) in parts.iter().enumerate() {
            for row in &part.rows {
                let key = row[..n_groups].to_vec();
                let acc = groups.entry(key).or_insert_with(|| empty.clone());
                for (i, partial) in self.pushed.aggregates.iter().enumerate() {
                    let v = &row[n_groups + i];
                    match partial {
                        AggFunc::CountStar | AggFunc::Count(_) => {
                            acc.counts[i] += v.as_int().unwrap_or(0);
                        }
                        AggFunc::Sum(_) => {
                            if !acc.sums[i].push(v) {
                                return Err(malformed(k, format!("SUM partial {v:?}")));
                            }
                        }
                        AggFunc::Min(_) => {
                            if !v.is_null() && acc.mins[i].as_ref().is_none_or(|m| v < m) {
                                acc.mins[i] = Some(v.clone());
                            }
                        }
                        AggFunc::Max(_) => {
                            if !v.is_null() && acc.maxs[i].as_ref().is_none_or(|m| v > m) {
                                acc.maxs[i] = Some(v.clone());
                            }
                        }
                        AggFunc::Avg(_) => unreachable!("AVG never pushes as a partial"),
                    }
                }
            }
        }
        // An empty, ungrouped scatter still yields the executor's one row
        // of zeroes — every shard returned it; the merge keeps one.
        if groups.is_empty() && n_groups == 0 {
            groups.insert(Vec::new(), empty);
        }

        let mut labels: Vec<String> = q.group_by.clone();
        labels.extend(q.aggregates.iter().map(AggFunc::label));

        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(groups.len());
        for (key, acc) in groups {
            let mut row = key;
            for merge in &self.agg_merge {
                let v = match merge {
                    AggMerge::CountSum(i) => Value::Int(acc.counts[*i]),
                    AggMerge::Sum(i) => acc.sums[*i].sum_value(),
                    AggMerge::Avg { sum, count } => {
                        let n = acc.counts[*count];
                        if n == 0 {
                            Value::Null
                        } else {
                            Value::Float(acc.sums[*sum].sum_f64() / n as f64)
                        }
                    }
                    AggMerge::Min(i) => acc.mins[*i].clone().unwrap_or(Value::Null),
                    AggMerge::Max(i) => acc.maxs[*i].clone().unwrap_or(Value::Null),
                };
                row.push(v);
            }
            rows.push(row);
        }

        // Output order: explicit ORDER BY over output labels (exact match,
        // like the executor), else the BTreeMap already delivered default
        // group-key order.
        if !q.order_by.is_empty() {
            let keys: Vec<(usize, OrderDir)> = q
                .order_by
                .iter()
                .map(|(c, d)| {
                    labels
                        .iter()
                        .position(|l| l == c)
                        .map(|i| (i, *d))
                        .ok_or_else(|| {
                            DmError::BadQuery(format!(
                                "ORDER BY column `{c}` is not in the aggregate output"
                            ))
                        })
                })
                .collect::<DmResult<_>>()?;
            rows.sort_by(|a, b| cmp_by_keys(a, b, &keys));
            stats.rows_sorted += rows.len();
        } else if n_groups > 0 {
            stats.rows_sorted += rows.len();
        }
        apply_window(&mut rows, q);
        stats.rows_returned = rows.len();
        Ok(QueryResult {
            columns: labels,
            rows,
            stats,
        })
    }
}

/// The original query's `OFFSET`/`LIMIT`, applied to the merged rows.
fn apply_window(rows: &mut Vec<Vec<Value>>, q: &Query) {
    let offset = q.offset.unwrap_or(0);
    rows.drain(..offset.min(rows.len()));
    if let Some(limit) = q.limit {
        rows.truncate(limit);
    }
}

fn cmp_by_keys(a: &[Value], b: &[Value], keys: &[(usize, OrderDir)]) -> Ordering {
    for &(col, dir) in keys {
        let ord = a[col].cmp(&b[col]);
        let ord = if dir == OrderDir::Desc {
            ord.reverse()
        } else {
            ord
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn sum_stats(parts: &[QueryResult]) -> ExecStats {
    ExecStats {
        rows_scanned: parts.iter().map(|p| p.stats.rows_scanned).sum(),
        rows_returned: 0,
        rows_sorted: parts.iter().map(|p| p.stats.rows_sorted).sum(),
        access: parts
            .first()
            .map(|p| p.stats.access.clone())
            .unwrap_or(AccessPath::FullScan),
    }
}

/// A shard's partial result that the pushed query cannot have produced.
fn malformed(part: usize, what: String) -> DmError {
    DmError::RemoteFailed(format!("shard partial {part} is malformed: {what}"))
}

// ---------------------------------------------------------------------------
// The sharded router
// ---------------------------------------------------------------------------

/// The router layer above per-shard [`DmRouter`] replica sets. See the
/// module docs for routing and merge semantics.
pub struct ShardedDm {
    shards: Vec<DmRouter>,
    map: Arc<ShardMapHandle>,
    gens: Arc<GenerationMap>,
    cache: Option<QueryCache>,
    rotate: AtomicUsize,
    metrics: RouteMetrics,
}

/// Obs handles resolved once per router, not by name on every query.
struct RouteMetrics {
    point: Arc<hedc_obs::Counter>,
    replicated: Arc<hedc_obs::Counter>,
    fanout_queries: Arc<hedc_obs::Counter>,
    fanout_batches: Arc<hedc_obs::Counter>,
    fanout_targets: Arc<hedc_obs::Counter>,
    shard_loss: Arc<hedc_obs::Counter>,
}

impl ShardedDm {
    /// Assemble from one replica set per shard (outer index = shard id)
    /// and the initial map. Panics unless `replica_sets.len() ==
    /// map.shards`.
    pub fn new(replica_sets: Vec<Vec<Arc<dyn DmNode>>>, map: ShardMap) -> ShardedDm {
        assert_eq!(
            replica_sets.len(),
            map.shards as usize,
            "one replica set per shard"
        );
        let shards = replica_sets.into_iter().map(DmRouter::new).collect();
        let obs = hedc_obs::global();
        ShardedDm {
            shards,
            map: ShardMapHandle::new(map),
            gens: Arc::new(GenerationMap::new()),
            cache: None,
            rotate: AtomicUsize::new(0),
            metrics: RouteMetrics {
                point: obs.counter("dm.shard.route.point"),
                replicated: obs.counter("dm.shard.route.replicated"),
                fanout_queries: obs.counter("dm.shard.fanout.queries"),
                fanout_batches: obs.counter("dm.shard.fanout.batches"),
                fanout_targets: obs.counter("dm.shard.fanout.targets"),
                shard_loss: obs.counter("dm.shard.fanout.shard_loss"),
            },
        }
    }

    /// Same, with a merged-result cache scoped per shard: cached entries
    /// depend on the *shard-scoped* generation counters of every shard
    /// they were assembled from, so a rebalance cutover invalidates
    /// exactly the moved shards' entries.
    pub fn with_cache(
        replica_sets: Vec<Vec<Arc<dyn DmNode>>>,
        map: ShardMap,
        config: &CacheConfig,
    ) -> ShardedDm {
        let mut dm = Self::new(replica_sets, map);
        dm.cache = Some(QueryCache::new(config, Arc::clone(&dm.gens)));
        dm
    }

    /// The shared map handle (rebalance installs through it; net servers
    /// read it).
    pub fn map_handle(&self) -> &Arc<ShardMapHandle> {
        &self.map
    }

    /// The current map.
    pub fn map(&self) -> Arc<ShardMap> {
        self.map.current()
    }

    /// The shard-scoped generation counters backing the cache.
    pub fn generations(&self) -> &Arc<GenerationMap> {
        &self.gens
    }

    /// The merged-result cache, when configured.
    pub fn cache(&self) -> Option<&QueryCache> {
        self.cache.as_ref()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The replica router of one shard (tests and the rebalancer reach
    /// through it).
    pub fn shard_router(&self, shard: u32) -> &DmRouter {
        &self.shards[shard as usize]
    }

    /// Record a write to `table` on shard `shard`: cached results that
    /// read that shard go stale.
    pub fn bump_shard(&self, shard: u32, table: &str) {
        self.gens.bump_shard(shard, table);
    }

    /// Record a write to `table` on every shard (replicated-table writes,
    /// bulk loads).
    pub fn invalidate(&self, table: &str) {
        for s in 0..self.shards.len() as u32 {
            self.gens.bump_shard(s, table);
        }
    }

    fn rotate_shard(&self) -> u32 {
        (self.rotate.fetch_add(1, AtomicOrdering::Relaxed) % self.shards.len()) as u32
    }

    /// Map a shard's replica-set failure to the typed whole-shard error:
    /// a scatter that lost a shard must not silently drop that shard's
    /// rows.
    fn shard_err(shard: u32, e: DmError) -> DmError {
        match e {
            DmError::RemoteUnavailable(detail) => DmError::ShardUnavailable { shard, detail },
            other => other,
        }
    }

    /// Route and execute `q`: one shard for pinned keys and replicated
    /// tables, scatter-gather with partial-result merge otherwise. A cached
    /// answer depends on the shard-scoped generations of every shard it was
    /// assembled from.
    pub fn query(&self, q: &Query) -> DmResult<QueryResult> {
        let route = self.map.current().route(q);
        let targets: Vec<u32> = match &route {
            Route::Single(s) => vec![*s],
            Route::Fanout(set) => set.clone(),
            Route::Replicated => vec![self.rotate_shard()],
        };
        let fetch = || {
            match route {
                Route::Single(_) => self.metrics.point.inc(),
                Route::Replicated => self.metrics.replicated.inc(),
                Route::Fanout(_) => return self.gather(q, &targets),
            }
            let s = targets[0];
            self.shards[s as usize]
                .execute_query(q)
                .map_err(|e| Self::shard_err(s, e))
        };
        let deps = |_: &QueryCache| self.gens.snapshot_shards(&targets, &q.table);
        QueryCache::read_through_deps(self.cache.as_ref(), SHARD_SCOPE, q, deps, fetch)
    }

    /// Scatter the pushed-down form of `q` over `set` and merge the
    /// partials. A lost shard fails the whole read: its rows must not
    /// silently go missing.
    fn gather(&self, q: &Query, set: &[u32]) -> DmResult<QueryResult> {
        let metrics = &self.metrics;
        metrics.fanout_queries.inc();
        metrics.fanout_targets.add(set.len() as u64);
        let plan = FanoutPlan::new(q);
        let pushed = plan.pushed();
        let replies = scatter(set, |&s| self.shards[s as usize].execute_query(pushed));
        let mut parts = Vec::with_capacity(replies.len());
        for (&s, r) in set.iter().zip(replies) {
            match r {
                Ok(part) => parts.push(part),
                Err(e) => {
                    if matches!(e, DmError::RemoteUnavailable(_)) {
                        metrics.shard_loss.inc();
                    }
                    return Err(Self::shard_err(s, e));
                }
            }
        }
        plan.merge(parts).map_err(|e| match e {
            DmError::RemoteFailed(m) => {
                DmError::RemoteFailed(format!("{m} (partials in shard order {set:?})"))
            }
            other => other,
        })
    }

    /// The shard owning `item_id` for name resolution, per the
    /// [`ITEM_TABLE`] spec; replicated item tables rotate.
    fn item_shard(&self, map: &ShardMap, item_id: i64) -> u32 {
        map.shard_for(ITEM_TABLE, item_id)
            .unwrap_or_else(|| self.rotate_shard())
    }
}

impl DmNode for ShardedDm {
    fn node_id(&self) -> String {
        format!("sharded-dm({})", self.shards.len())
    }

    fn execute_query(&self, q: &Query) -> DmResult<QueryResult> {
        self.query(q)
    }

    fn resolve_names(&self, item_id: i64, want: NameType) -> DmResult<Vec<ResolvedName>> {
        self.resolve_batch(&[item_id], want)
            .pop()
            .unwrap_or_else(|| Err(DmError::RemoteFailed("empty resolve batch".into())))
    }

    fn resolve_batch(&self, item_ids: &[i64], want: NameType) -> Vec<DmResult<Vec<ResolvedName>>> {
        let map = self.map.current();
        // Group ids by owning shard, resolve each group against that
        // shard's replica set (which chunks + fails over internally), and
        // reassemble in input order.
        let mut by_shard: BTreeMap<u32, Vec<(usize, i64)>> = BTreeMap::new();
        for (pos, &id) in item_ids.iter().enumerate() {
            by_shard
                .entry(self.item_shard(&map, id))
                .or_default()
                .push((pos, id));
        }
        if by_shard.len() > 1 {
            self.metrics.fanout_batches.inc();
            self.metrics.fanout_targets.add(by_shard.len() as u64);
        } else {
            self.metrics.point.inc();
        }
        let mut out: Vec<Option<DmResult<Vec<ResolvedName>>>> = Vec::new();
        out.resize_with(item_ids.len(), || None);
        let groups: Vec<(u32, Vec<(usize, i64)>)> = by_shard.into_iter().collect();
        let replies = scatter(&groups, |(s, entries)| {
            let ids: Vec<i64> = entries.iter().map(|(_, id)| *id).collect();
            self.shards[*s as usize].resolve_batch(&ids, want)
        });
        for ((s, entries), results) in groups.iter().zip(replies) {
            for ((pos, _), r) in entries.iter().zip(results) {
                out[*pos] = Some(r.map_err(|e| Self::shard_err(*s, e)));
            }
        }
        out.into_iter()
            .map(|r| r.unwrap_or_else(|| Err(DmError::RemoteFailed("unrouted batch entry".into()))))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Rebalance: the shard-move step table over the workflow engine
// ---------------------------------------------------------------------------

/// Steps of one shard move, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MoveStep {
    /// The move is planned (source shard, target epoch, row count);
    /// nothing has happened yet.
    Planned,
    /// Every owned row is copied to the destination shard. Readers still
    /// hit the source: the map has not changed.
    Copied,
    /// The new map (epoch+1) is installed and the moved shards' cache
    /// generations are bumped. Readers now hit the destination.
    Cutover,
    /// The source shard's copies are deleted.
    Cleaned,
    /// Terminal marker: re-running the move is a no-op.
    Done,
}

impl Step for MoveStep {
    const KIND: &'static str = "shard_move";
    const TABLE: &'static [(Self, &'static str)] = &[
        (MoveStep::Planned, "planned"),
        (MoveStep::Copied, "copied"),
        (MoveStep::Cutover, "cutover"),
        (MoveStep::Cleaned, "cleaned"),
        (MoveStep::Done, "done"),
    ];
}

/// One shard move: partition `part` of `table` goes to shard `to`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoveSpec {
    /// The partitioned table.
    pub table: String,
    /// Hash slot or range interval to move.
    pub part: u32,
    /// Destination shard.
    pub to: u32,
}

impl MoveSpec {
    /// Journal key: stable across retries of the same move.
    pub fn key(&self) -> String {
        format!(
            "{}:part{}->s{}",
            self.table.to_ascii_lowercase(),
            self.part,
            self.to
        )
    }
}

/// Durable per-move state, carried in the journal payload so a resumed
/// mover re-derives nothing from the (possibly already cut-over) map.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct MoveState {
    from: u32,
    target_epoch: u64,
    rows_planned: usize,
}

/// What one [`ShardMover::run`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveOutcome {
    /// Source shard.
    pub from: u32,
    /// Destination shard.
    pub to: u32,
    /// Rows copied in this run (0 when resuming past the copy).
    pub rows_moved: usize,
    /// Rows the original plan counted in the moved partition (recovered
    /// from the journal payload on resume).
    pub rows_planned: usize,
    /// `Some(step)` when this run resumed an interrupted move whose
    /// journal ended at `step`.
    pub resumed_from: Option<MoveStep>,
    /// Destination rows deleted by compensation before re-copying.
    pub compensated_rows: usize,
}

/// The journaled rebalance workflow. Holds direct store handles (moves
/// write rows; the read-path [`DmNode`] surface cannot) plus the
/// [`ShardedDm`] whose map and cache generations the cutover flips.
pub struct ShardMover<'a> {
    journal_io: &'a DmIo,
    stores: Vec<&'a DmIo>,
    sharded: &'a ShardedDm,
    crash: Option<CrashSite<MoveStep>>,
}

impl<'a> ShardMover<'a> {
    /// A mover journaling into `journal_io` (any store with the generic
    /// schema; conventionally shard 0's), moving rows between `stores`
    /// (index = shard id), cutting over `sharded`'s map.
    pub fn new(journal_io: &'a DmIo, stores: Vec<&'a DmIo>, sharded: &'a ShardedDm) -> Self {
        assert_eq!(stores.len(), sharded.shard_count());
        ShardMover {
            journal_io,
            stores,
            sharded,
            crash: None,
        }
    }

    /// Inject a crash for the matrix suite.
    pub fn with_crash(mut self, crash: CrashSite<MoveStep>) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Rows of `spec.table` on shard `shard` that belong to the moved
    /// partition under `map`.
    fn owned_rows(&self, spec: &MoveSpec, map: &ShardMap, shard: u32) -> DmResult<Vec<Vec<Value>>> {
        let sharding = map
            .sharding(&spec.table)
            .ok_or_else(|| DmError::BadQuery(format!("table `{}` is not sharded", spec.table)))?;
        let all = self.stores[shard as usize].query(&Query::table(&spec.table))?;
        let key_col = all
            .columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(&sharding.column))
            .ok_or_else(|| {
                DmError::BadQuery(format!(
                    "shard key `{}` missing from `{}`",
                    sharding.column, spec.table
                ))
            })?;
        let mut rows = Vec::new();
        for row in all.rows {
            let Some(key) = key_of(&row[key_col]) else {
                continue;
            };
            if map.part_for(&spec.table, key) == Some(spec.part) {
                rows.push(row);
            }
        }
        Ok(rows)
    }

    /// Delete `rows` from `shard` by primary id (column 0 of the table —
    /// every partitioned table keys on a leading integer id).
    fn delete_rows(&self, shard: u32, table: &str, rows: &[Vec<Value>]) -> DmResult<usize> {
        if rows.is_empty() {
            return Ok(0);
        }
        self.stores[shard as usize].execute(Statement::Delete {
            table: table.to_string(),
            filter: Some(Expr::InList {
                expr: Box::new(Expr::Name("id".into())),
                list: rows.iter().map(|r| Expr::Literal(r[0].clone())).collect(),
            }),
        })
    }

    /// Run (or resume) the move. Crash-resumable: re-running after any
    /// injected or real death continues from the journal — completed
    /// steps skip, an interrupted copy is compensated (destination copies
    /// deleted, then re-copied), cutover and cleanup redo idempotently.
    pub fn run(&self, spec: &MoveSpec) -> DmResult<MoveOutcome> {
        let metrics = hedc_obs::global();
        let flow = MoveFlow {
            mover: self,
            spec,
            rows_moved: Cell::new(0),
        };
        let mut run = workflow::resume(self.journal_io, &flow)?;
        if run.resumed_from.is_some() {
            metrics.counter("dm.shard.rebalance.resumes").inc();
        } else if self.sharded.map().assignment(&spec.table, spec.part) == Some(spec.to) {
            // Already there and never started: nothing to move or journal.
            return Ok(MoveOutcome {
                from: spec.to,
                to: spec.to,
                rows_moved: 0,
                rows_planned: 0,
                resumed_from: None,
                compensated_rows: 0,
            });
        }
        metrics
            .counter("dm.shard.rebalance.compensations")
            .add(run.compensations as u64);
        if run.next_step().is_some() {
            let probe = Probe(self.crash);
            workflow::advance(self.journal_io, &flow, &mut run, MoveStep::Done, &probe)?;
            metrics.counter("dm.shard.rebalance.moves").inc();
        }
        Ok(MoveOutcome {
            from: run.state.from,
            to: spec.to,
            rows_moved: flow.rows_moved.get(),
            rows_planned: run.state.rows_planned,
            resumed_from: run.resumed_from,
            compensated_rows: run.compensations,
        })
    }
}

/// One move's run of the shard-move step table.
struct MoveFlow<'m> {
    mover: &'m ShardMover<'m>,
    spec: &'m MoveSpec,
    /// Rows copied by this run — reported, not journaled.
    rows_moved: Cell<usize>,
}

impl MoveFlow<'_> {
    /// The *pre-move* map, which drives row ownership throughout: after a
    /// crash between cutover and done the live map already points at the
    /// destination, but copy/clean must still see the original partition
    /// contents.
    fn placement(&self, state: &MoveState) -> Arc<ShardMap> {
        let live = self.mover.sharded.map();
        if live.assignment(&self.spec.table, self.spec.part) == Some(self.spec.to) {
            Arc::new(live.reassign(&self.spec.table, self.spec.part, state.from))
        } else {
            live
        }
    }
}

impl Workflow for MoveFlow<'_> {
    type Step = MoveStep;
    type State = MoveState;

    fn key(&self) -> String {
        self.spec.key()
    }

    fn exec(&self, step: MoveStep, state: &mut MoveState, probe: &Probe<MoveStep>) -> DmResult<()> {
        let (mover, spec) = (self.mover, self.spec);
        match step {
            MoveStep::Planned => {
                let map = mover.sharded.map();
                let from = map.assignment(&spec.table, spec.part).ok_or_else(|| {
                    DmError::BadQuery(format!("no partition {} in `{}`", spec.part, spec.table))
                })?;
                *state = MoveState {
                    from,
                    target_epoch: map.epoch + 1,
                    rows_planned: mover.owned_rows(spec, &map, from)?.len(),
                };
            }
            MoveStep::Copied => {
                let rows = mover.owned_rows(spec, &self.placement(state), state.from)?;
                let half = rows.len() / 2;
                for (i, row) in rows.into_iter().enumerate() {
                    if i == half {
                        probe.mid_step(step)?;
                    }
                    mover.stores[spec.to as usize].insert(&spec.table, row)?;
                    self.rows_moved.set(self.rows_moved.get() + 1);
                }
                hedc_obs::global()
                    .counter("dm.shard.rebalance.rows_moved")
                    .add(self.rows_moved.get() as u64);
            }
            MoveStep::Cutover => {
                let live = mover.sharded.map();
                if live.assignment(&spec.table, spec.part) != Some(spec.to) {
                    let mut next = live.reassign(&spec.table, spec.part, spec.to);
                    next.epoch = next.epoch.max(state.target_epoch);
                    mover.sharded.map_handle().install(next);
                }
                probe.mid_step(step)?;
                // Generation bumps make every cached result assembled from
                // either moved shard stale — re-run after a mid-cutover crash
                // re-bumps, which is harmless.
                mover.sharded.bump_shard(state.from, &spec.table);
                mover.sharded.bump_shard(spec.to, &spec.table);
            }
            MoveStep::Cleaned => {
                let leftovers = mover.owned_rows(spec, &self.placement(state), state.from)?;
                let (first, rest) = leftovers.split_at(leftovers.len() / 2);
                mover.delete_rows(state.from, &spec.table, first)?;
                probe.mid_step(step)?;
                mover.delete_rows(state.from, &spec.table, rest)?;
            }
            MoveStep::Done => {}
        }
        Ok(())
    }

    /// Only the copy leaves effects a redo cannot absorb: whatever partial
    /// rows a dead mover left on the destination are deleted, so the copy
    /// redoes from scratch — byte-identical to a clean run. Cutover and
    /// cleanup are idempotent as written.
    fn compensate(&self, step: MoveStep, state: &MoveState) -> DmResult<usize> {
        if step != MoveStep::Copied {
            return Ok(0);
        }
        let (mover, spec) = (self.mover, self.spec);
        let stale = mover.owned_rows(spec, &self.placement(state), spec.to)?;
        mover.delete_rows(spec.to, &spec.table, &stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map2() -> ShardMap {
        ShardMap::new(2)
            .with_hash("loc_item", "item_id", 8)
            .with_range("hle", "time_end", vec![1000], vec![0, 1])
    }

    #[test]
    fn hash_routing_is_stable_and_covers_all_slots() {
        let m = ShardMap::new(4).with_hash("loc_item", "item_id", 64);
        let a = m.shard_for("loc_item", 12345).unwrap();
        assert_eq!(m.shard_for("loc_item", 12345).unwrap(), a);
        let mut seen = [false; 4];
        for id in 0..1000 {
            seen[m.shard_for("loc_item", id).unwrap() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards should own some keys");
    }

    #[test]
    fn range_routing_respects_cuts() {
        let m = map2();
        assert_eq!(m.shard_for("hle", 0), Some(0));
        assert_eq!(m.shard_for("hle", 999), Some(0));
        assert_eq!(m.shard_for("hle", 1000), Some(1));
        assert_eq!(m.shard_for("HLE", 5000), Some(1), "table names fold case");
        assert_eq!(m.shard_for("catalog", 1), None, "unlisted ⇒ replicated");
    }

    #[test]
    fn query_routing_prunes_by_predicate() {
        let m = map2();
        // Pinned range key → single shard.
        let q = Query::table("hle").filter(Expr::between("time_end", 0, 500));
        assert_eq!(m.route(&q), Route::Single(0));
        // Range spanning the cut → both.
        let q = Query::table("hle").filter(Expr::between("time_end", 500, 1500));
        assert_eq!(m.route(&q), Route::Fanout(vec![0, 1]));
        // Inequality prunes.
        let q = Query::table("hle").filter(Expr::cmp("time_end", CmpOp::Ge, 2000));
        assert_eq!(m.route(&q), Route::Single(1));
        // Unrelated predicate → full fanout.
        let q = Query::table("hle").filter(Expr::eq("owner", "sci"));
        assert_eq!(m.route(&q), Route::Fanout(vec![0, 1]));
        // Replicated table.
        assert_eq!(m.route(&Query::table("catalog")), Route::Replicated);
        // Hash equality pins.
        let id = 77;
        let q = Query::table("loc_item").filter(Expr::eq("item_id", id));
        assert_eq!(
            m.route(&q),
            Route::Single(m.shard_for("loc_item", id).unwrap())
        );
    }

    #[test]
    fn contradictory_pins_degenerate_to_one_shard() {
        let m = map2();
        let q = Query::table("hle").filter(Expr::cmp("time_end", CmpOp::Le, 10).and(Expr::cmp(
            "time_end",
            CmpOp::Ge,
            5000,
        )));
        assert!(matches!(m.route(&q), Route::Single(_)));
    }

    #[test]
    fn reassign_bumps_epoch_and_moves_the_part() {
        let m = map2();
        let part = m.part_for("hle", 5000).unwrap();
        assert_eq!(m.assignment("hle", part), Some(1));
        let next = m.reassign("hle", part, 0);
        assert_eq!(next.epoch, m.epoch + 1);
        assert_eq!(next.assignment("hle", part), Some(0));
        assert_eq!(next.shard_for("hle", 5000), Some(0));
    }

    #[test]
    fn handle_install_is_monotone() {
        let h = ShardMapHandle::new(map2());
        assert_eq!(h.epoch(), 1);
        assert!(!h.install(map2()), "equal epoch must not install");
        let newer = map2().reassign("hle", 0, 1);
        assert!(h.install(newer));
        assert_eq!(h.epoch(), 2);
        assert!(!h.install(map2()), "older epoch must not install");
    }

    #[test]
    fn aggregate_plan_decomposes_avg_and_dedups_partials() {
        let q = Query::table("hle")
            .group_by("event_type")
            .aggregate(AggFunc::Avg("peak_rate".into()))
            .aggregate(AggFunc::Sum("peak_rate".into()))
            .aggregate(AggFunc::CountStar);
        let plan = FanoutPlan::new(&q);
        // AVG → SUM+COUNT; the explicit SUM reuses the same partial.
        assert_eq!(
            plan.pushed().aggregates,
            vec![
                AggFunc::Sum("peak_rate".into()),
                AggFunc::Count("peak_rate".into()),
                AggFunc::CountStar,
            ]
        );
        assert!(plan.pushed().order_by.is_empty());
        assert!(plan.pushed().limit.is_none());
    }

    #[test]
    fn row_plan_pushes_window_and_widens_projection() {
        let q = Query::table("hle")
            .select(&["id", "owner"])
            .order_by("time_start", OrderDir::Desc)
            .limit(10)
            .offset(5);
        let plan = FanoutPlan::new(&q);
        assert_eq!(plan.pushed().limit, Some(15), "offset+limit pushes");
        assert_eq!(plan.pushed().offset, None);
        assert_eq!(
            plan.pushed().projection,
            Projection::Columns(vec!["id".into(), "owner".into(), "time_start".into()]),
        );
        // Merge strips the carrier column again.
        let part = QueryResult {
            columns: vec!["id".into(), "owner".into(), "time_start".into()],
            rows: vec![
                vec![Value::Int(1), Value::Text("a".into()), Value::Int(900)],
                vec![Value::Int(2), Value::Text("b".into()), Value::Int(300)],
            ],
            stats: ExecStats {
                rows_scanned: 2,
                rows_returned: 2,
                rows_sorted: 2,
                access: AccessPath::FullScan,
            },
        };
        let merged = plan.merge(vec![part]).unwrap();
        assert_eq!(merged.columns, vec!["id".to_string(), "owner".to_string()]);
    }

    #[test]
    fn merge_heap_interleaves_sorted_parts() {
        let q = Query::table("hle").order_by("id", OrderDir::Asc);
        let plan = FanoutPlan::new(&q);
        let mk = |ids: &[i64]| QueryResult {
            columns: vec!["id".into()],
            rows: ids.iter().map(|&i| vec![Value::Int(i)]).collect(),
            stats: ExecStats {
                rows_scanned: ids.len(),
                rows_returned: ids.len(),
                rows_sorted: 0,
                access: AccessPath::FullScan,
            },
        };
        let merged = plan
            .merge(vec![mk(&[1, 4, 9]), mk(&[2, 3, 10]), mk(&[5])])
            .unwrap();
        let got: Vec<i64> = merged.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 9, 10]);
        assert_eq!(merged.stats.rows_scanned, 7);
    }

    #[test]
    fn empty_ungrouped_aggregate_merges_to_one_zero_row() {
        let q = Query::table("hle")
            .aggregate(AggFunc::CountStar)
            .aggregate(AggFunc::Sum("n_photons".into()))
            .aggregate(AggFunc::Avg("n_photons".into()));
        let plan = FanoutPlan::new(&q);
        let empty_part = QueryResult {
            columns: vec![
                "COUNT(*)".into(),
                "SUM(n_photons)".into(),
                "COUNT(n_photons)".into(),
            ],
            rows: vec![vec![Value::Int(0), Value::Null, Value::Int(0)]],
            stats: ExecStats {
                rows_scanned: 0,
                rows_returned: 1,
                rows_sorted: 0,
                access: AccessPath::FullScan,
            },
        };
        let merged = plan.merge(vec![empty_part.clone(), empty_part]).unwrap();
        assert_eq!(merged.rows.len(), 1);
        assert_eq!(
            merged.rows[0],
            vec![Value::Int(0), Value::Null, Value::Null]
        );
        assert_eq!(
            merged.columns,
            vec![
                "COUNT(*)".to_string(),
                "SUM(n_photons)".to_string(),
                "AVG(n_photons)".to_string()
            ]
        );
    }
}
