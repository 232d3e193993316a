//! Query specification, planning, and execution.
//!
//! The paper's DM builds queries as structured objects ("Java collection
//! objects", §5.4) which are "parsed, analyzed, verified and transformed into
//! regular SQL queries". [`Query`] is that structured object; the SQL parser
//! also lowers `SELECT` text into it, so both paths share this executor.

#[cfg(test)]
use crate::error::DbError;
use crate::error::DbResult;
use crate::expr::Expr;
use crate::index::RowId;
use crate::paged::TableSnapshot;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::OnceLock;

/// What the executor needs from a row container. Implemented by live
/// [`Table`]s (both backings, under the catalog lock) and by frozen
/// [`TableSnapshot`]s (paged tables, no lock at all) — one pipeline,
/// three access modes.
///
/// `Sync` is required so the parallel scan stage can share the source
/// across scoped worker threads.
pub(crate) trait RowSource: Sync {
    /// Schema of the underlying table.
    fn schema(&self) -> &Schema;
    /// Fetch one row; `None` when the id is stale or deleted.
    fn fetch(&self, id: RowId) -> Option<Cow<'_, [Value]>>;
    /// All live row ids in slot order (the full-scan candidate list).
    fn all_ids(&self) -> Vec<RowId>;
    /// Position of the best index whose first key column is `col`.
    fn best_index(&self, col: usize) -> Option<usize>;
    /// Name of the index at `pos` (for access-path reporting).
    fn index_name(&self, pos: usize) -> String;
    /// First-column range scan on the index at `pos`.
    fn index_range(&self, pos: usize, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId>;
}

impl RowSource for Table {
    fn schema(&self) -> &Schema {
        Table::schema(self)
    }
    fn fetch(&self, id: RowId) -> Option<Cow<'_, [Value]>> {
        self.get(id).ok()
    }
    fn all_ids(&self) -> Vec<RowId> {
        self.scan_ids()
    }
    fn best_index(&self, col: usize) -> Option<usize> {
        self.index_pos_on(col)
    }
    fn index_name(&self, pos: usize) -> String {
        self.indexes()[pos].name().to_string()
    }
    fn index_range(&self, pos: usize, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        self.indexes()[pos].range(&[], low, high)
    }
}

impl RowSource for TableSnapshot {
    fn schema(&self) -> &Schema {
        TableSnapshot::schema(self)
    }
    fn fetch(&self, id: RowId) -> Option<Cow<'_, [Value]>> {
        self.get(id).map(Cow::Owned)
    }
    fn all_ids(&self) -> Vec<RowId> {
        self.scan_ids()
    }
    fn best_index(&self, col: usize) -> Option<usize> {
        TableSnapshot::best_index(self, col)
    }
    fn index_name(&self, pos: usize) -> String {
        TableSnapshot::index_name(self, pos).to_string()
    }
    fn index_range(&self, pos: usize, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        TableSnapshot::index_range(self, pos, low, high)
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum OrderDir {
    /// Ascending (NULLs first, per the `Value` total order).
    Asc,
    /// Descending.
    Desc,
}

/// Aggregate functions.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum AggFunc {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(col)` — non-null values.
    Count(String),
    /// `SUM(col)`
    Sum(String),
    /// `AVG(col)`
    Avg(String),
    /// `MIN(col)`
    Min(String),
    /// `MAX(col)`
    Max(String),
}

impl AggFunc {
    fn column(&self) -> Option<&str> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(c)
            | AggFunc::Sum(c)
            | AggFunc::Avg(c)
            | AggFunc::Min(c)
            | AggFunc::Max(c) => Some(c),
        }
    }

    /// Result column label, e.g. `COUNT(*)` or `SUM(flux)`.
    pub fn label(&self) -> String {
        match self {
            AggFunc::CountStar => "COUNT(*)".to_string(),
            AggFunc::Count(c) => format!("COUNT({c})"),
            AggFunc::Sum(c) => format!("SUM({c})"),
            AggFunc::Avg(c) => format!("AVG({c})"),
            AggFunc::Min(c) => format!("MIN({c})"),
            AggFunc::Max(c) => format!("MAX({c})"),
        }
    }
}

/// Column projection.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub enum Projection {
    /// `SELECT *`
    #[default]
    All,
    /// Named columns, in output order.
    Columns(Vec<String>),
}

/// A structured query over one table.
///
/// Serializes with serde so it can travel between DM nodes over the
/// `hedc-net` wire protocol (§5.4 call redirection) and be dumped into
/// `/hedc/stats.json`-style diagnostics.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct Query {
    /// Target table.
    pub table: String,
    /// Output columns (ignored when `aggregates` is non-empty).
    pub projection: Projection,
    /// Optional filter predicate.
    pub filter: Option<Expr>,
    /// Sort specification applied before limit/offset.
    pub order_by: Vec<(String, OrderDir)>,
    /// Maximum number of result rows.
    pub limit: Option<usize>,
    /// Number of result rows to skip.
    pub offset: Option<usize>,
    /// Aggregate outputs; non-empty switches to aggregate mode.
    pub aggregates: Vec<AggFunc>,
    /// Group-by columns (aggregate mode only).
    pub group_by: Vec<String>,
}

impl Query {
    /// Start a query on a table.
    pub fn table(name: impl Into<String>) -> Self {
        Query {
            table: name.into(),
            ..Query::default()
        }
    }

    /// Project specific columns.
    pub fn select(mut self, cols: &[&str]) -> Self {
        self.projection = Projection::Columns(cols.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Add a filter, AND-ing with any existing filter.
    pub fn filter(mut self, e: Expr) -> Self {
        self.filter = Some(match self.filter.take() {
            Some(prev) => prev.and(e),
            None => e,
        });
        self
    }

    /// Add a sort key.
    pub fn order_by(mut self, col: impl Into<String>, dir: OrderDir) -> Self {
        self.order_by.push((col.into(), dir));
        self
    }

    /// Cap the result size.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Skip leading rows.
    pub fn offset(mut self, n: usize) -> Self {
        self.offset = Some(n);
        self
    }

    /// Add an aggregate output.
    pub fn aggregate(mut self, f: AggFunc) -> Self {
        self.aggregates.push(f);
        self
    }

    /// Group by a column.
    pub fn group_by(mut self, col: impl Into<String>) -> Self {
        self.group_by.push(col.into());
        self
    }
}

/// How the executor located candidate rows — reported so the evaluation can
/// verify "all database queries are performed on indexed fields" (§7.1).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum AccessPath {
    /// Whole-heap scan.
    FullScan,
    /// Index range or point scan.
    Index {
        /// Index name used.
        name: String,
        /// Whether the probe was a point (equality) lookup.
        point: bool,
    },
    /// Multi-point index probes for an `IN`-list predicate: one point
    /// lookup per distinct list item, candidate sets concatenated.
    IndexMultiPoint {
        /// Index name used.
        name: String,
        /// Number of distinct probe points.
        probes: usize,
    },
}

/// Execution statistics for one query.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ExecStats {
    /// Rows fetched from the heap and tested.
    pub rows_scanned: usize,
    /// Rows returned.
    pub rows_returned: usize,
    /// Rows that passed through the sort stage: the full match count for a
    /// complete sort, only the bounded-heap working set (`offset + limit`)
    /// when the top-k path engages. `0` when no sort ran.
    #[serde(default)]
    pub rows_sorted: usize,
    /// Access path chosen by the planner.
    pub access: AccessPath,
}

/// A query result: column labels plus rows.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct QueryResult {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Executor statistics.
    pub stats: ExecStats,
}

impl QueryResult {
    /// First row, first column, as an integer (handy for COUNT queries).
    pub fn scalar_int(&self) -> Option<i64> {
        self.rows
            .first()
            .and_then(|r| r.first())
            .and_then(Value::as_int)
    }

    /// Allocated byte size of the result set: the struct itself, column
    /// labels (header + heap capacity), and every row's `Vec` header,
    /// spare capacity, and value footprints. This is the accounting unit
    /// for the result cache, so it must charge for *capacity*, not just
    /// initialized length — the old `Value::size_bytes` sum under-counted
    /// string capacity and ignored per-row overhead entirely.
    pub fn size_bytes(&self) -> usize {
        let header = std::mem::size_of::<QueryResult>();
        let columns: usize = self
            .columns
            .iter()
            .map(|c| std::mem::size_of::<String>() + c.capacity())
            .sum();
        let rows: usize = self
            .rows
            .iter()
            .map(|r| {
                std::mem::size_of::<Vec<Value>>() + r.capacity() * std::mem::size_of::<Value>()
                    - r.len() * std::mem::size_of::<Value>()
                    + r.iter().map(Value::alloc_bytes).sum::<usize>()
            })
            .sum();
        let access = match &self.stats.access {
            AccessPath::Index { name, .. } | AccessPath::IndexMultiPoint { name, .. } => {
                name.capacity()
            }
            AccessPath::FullScan => 0,
        };
        header + columns + rows + access
    }
}

fn execute<S: RowSource + ?Sized>(source: &S, q: &Query) -> DbResult<QueryResult> {
    run(source, q, compile(source, q)?)
}

impl TableSnapshot {
    /// Run `q` against this frozen state, whatever table it names: several
    /// queries through one handle see one state.
    pub fn query(&self, q: &Query) -> DbResult<QueryResult> {
        execute(self, q)
    }
}

/// A compiled query: the filter bound to the table's columns and the
/// candidate rows of the access path chosen for it.
pub(crate) struct Plan {
    filter: Option<Expr>,
    candidates: Vec<RowId>,
    access: AccessPath,
}

/// Bind `q`'s filter and choose its access path. [`compile`] then [`run`]
/// is the single pipeline behind SQL `SELECT`, DM query objects, internal
/// maintenance scans, and lock-free snapshot reads.
pub(crate) fn compile<S: RowSource + ?Sized>(source: &S, q: &Query) -> DbResult<Plan> {
    let filter = q.filter.as_ref().map(|f| f.bind(source.schema()));
    let filter = filter.transpose()?;
    let (candidates, access) = match &filter {
        Some(f) => plan_candidates(source, f),
        None => (source.all_ids(), AccessPath::FullScan),
    };
    Ok(Plan {
        filter,
        candidates,
        access,
    })
}

/// Fetch, filter, sort/aggregate and project the rows of a compiled query.
pub(crate) fn run<S: RowSource + ?Sized>(
    source: &S,
    q: &Query,
    plan: Plan,
) -> DbResult<QueryResult> {
    let schema = source.schema();
    let access = plan.access;

    // --- scan + filter ------------------------------------------------------
    let (rows_scanned, mut matched) = scan_filter(source, &plan.filter, plan.candidates)?;

    // --- aggregate mode -----------------------------------------------------
    if !q.aggregates.is_empty() {
        return aggregate(schema, q, matched, rows_scanned, access);
    }

    // --- sort ----------------------------------------------------------------
    let mut rows_sorted = 0usize;
    if !q.order_by.is_empty() {
        let keys: Vec<(usize, OrderDir)> = q
            .order_by
            .iter()
            .map(|(c, d)| Ok((schema.require_column(c)?, *d)))
            .collect::<DbResult<_>>()?;
        let by_keys = |a: &[Value], b: &[Value]| {
            for &(col, dir) in &keys {
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
        };
        // Top-k pushdown: when a LIMIT bounds the output, only the first
        // `offset + limit` rows in sort order can ever be returned, so a
        // bounded heap of that size replaces sorting every matched row.
        let keep = q
            .limit
            .map(|l| q.offset.unwrap_or(0).saturating_add(l))
            .unwrap_or(usize::MAX);
        if keep < matched.len() && crate::tuning::topk_enabled() {
            matched = top_k_by(matched, keep, &|(_, a), (_, b)| {
                by_keys(a.as_ref(), b.as_ref())
            });
            rows_sorted = matched.len();
        } else {
            matched.sort_by(|(_, a), (_, b)| by_keys(a.as_ref(), b.as_ref()));
            rows_sorted = matched.len();
        }
    }

    // --- offset / limit -------------------------------------------------------
    let offset = q.offset.unwrap_or(0);
    let limit = q.limit.unwrap_or(usize::MAX);
    let window = matched.into_iter().skip(offset).take(limit);

    // --- project ---------------------------------------------------------------
    let (labels, cols): (Vec<String>, Option<Vec<usize>>) = match &q.projection {
        Projection::All => (
            schema.columns.iter().map(|c| c.name.clone()).collect(),
            None,
        ),
        Projection::Columns(names) => {
            let idx = names
                .iter()
                .map(|n| schema.require_column(n))
                .collect::<DbResult<Vec<_>>>()?;
            (names.clone(), Some(idx))
        }
    };
    let rows: Vec<Vec<Value>> = window
        .map(|(_, row)| match &cols {
            None => row.into_owned(),
            Some(idx) => idx.iter().map(|&i| row[i].clone()).collect(),
        })
        .collect();

    let rows_returned = rows.len();
    Ok(QueryResult {
        columns: labels,
        rows,
        stats: ExecStats {
            rows_scanned,
            rows_returned,
            rows_sorted,
            access,
        },
    })
}

/// Fetch candidate rows and apply the filter. Above the
/// [`crate::tuning::parallel_scan_threshold`] the candidate list is
/// partitioned into contiguous chunks evaluated by scoped worker threads;
/// chunk results are re-joined in order, so the output is identical to the
/// sequential walk.
fn scan_filter<'t, S: RowSource + ?Sized>(
    source: &'t S,
    filter: &Option<Expr>,
    candidates: Vec<RowId>,
) -> DbResult<(usize, Vec<(RowId, Cow<'t, [Value]>)>)> {
    let threshold = crate::tuning::parallel_scan_threshold();
    let parallel = filter.is_some() && threshold > 0 && candidates.len() >= threshold;
    // Asked only past the threshold: an index probe must not pay for it.
    let workers = if parallel { scan_workers() } else { 1 };
    if workers > 1 {
        let chunk = candidates.len().div_ceil(workers);
        let results: Vec<DbResult<(usize, Vec<(RowId, Cow<'t, [Value]>)>)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = candidates
                    .chunks(chunk)
                    .map(|ids| scope.spawn(move || scan_filter_chunk(source, filter, ids)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        let mut rows_scanned = 0usize;
        let mut matched = Vec::new();
        for r in results {
            let (scanned, part) = r?;
            rows_scanned += scanned;
            matched.extend(part);
        }
        Ok((rows_scanned, matched))
    } else {
        scan_filter_chunk(source, filter, &candidates)
    }
}

/// Worker threads for a partitioned scan, resolved once per process:
/// `available_parallelism` re-reads affinity and cgroup files on every call
/// (~10 µs), which is more than a whole index probe costs.
fn scan_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        #[allow(clippy::disallowed_methods)]
        let cores = std::thread::available_parallelism();
        cores.map(|n| n.get()).unwrap_or(1).min(8)
    })
}

fn scan_filter_chunk<'t, S: RowSource + ?Sized>(
    source: &'t S,
    filter: &Option<Expr>,
    ids: &[RowId],
) -> DbResult<(usize, Vec<(RowId, Cow<'t, [Value]>)>)> {
    let mut rows_scanned = 0usize;
    let mut matched: Vec<(RowId, Cow<'t, [Value]>)> = Vec::new();
    for &id in ids {
        let row = match source.fetch(id) {
            Some(r) => r,
            None => continue, // deleted concurrently within this txn view
        };
        rows_scanned += 1;
        if let Some(f) = filter {
            if !f.eval_bool(&row)? {
                continue;
            }
        }
        matched.push((id, row));
    }
    Ok((rows_scanned, matched))
}

/// Keep the `k` least elements of `items` under `cmp`, returned in
/// ascending order: a bounded binary max-heap (worst survivor at the root)
/// does O(n log k) comparisons in k slots instead of sorting all n.
fn top_k_by<T>(items: Vec<T>, k: usize, cmp: &dyn Fn(&T, &T) -> Ordering) -> Vec<T> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: Vec<T> = Vec::with_capacity(k);
    let sift_down = |heap: &mut [T], mut i: usize| loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut largest = i;
        if l < heap.len() && cmp(&heap[l], &heap[largest]) == Ordering::Greater {
            largest = l;
        }
        if r < heap.len() && cmp(&heap[r], &heap[largest]) == Ordering::Greater {
            largest = r;
        }
        if largest == i {
            break;
        }
        heap.swap(i, largest);
        i = largest;
    };
    for item in items {
        if heap.len() < k {
            heap.push(item);
            // Sift up the freshly appended element.
            let mut i = heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if cmp(&heap[i], &heap[parent]) != Ordering::Greater {
                    break;
                }
                heap.swap(i, parent);
                i = parent;
            }
        } else if cmp(&item, &heap[0]) == Ordering::Less {
            heap[0] = item;
            sift_down(&mut heap, 0);
        }
    }
    heap.sort_by(|a, b| cmp(a, b));
    heap
}

/// Choose candidate row ids for a bound filter: the most selective sargable
/// conjunct (single-column range or `IN`-list of literals) that has an index
/// on its column wins; otherwise full scan.
pub(crate) fn plan_candidates<S: RowSource + ?Sized>(
    source: &S,
    filter: &Expr,
) -> (Vec<RowId>, AccessPath) {
    let mut best: Option<(Vec<RowId>, AccessPath)> = None;
    let consider =
        |ids: Vec<RowId>, access: AccessPath, best: &mut Option<(Vec<RowId>, AccessPath)>| {
            let better = match best {
                None => true,
                Some((cur, _)) => ids.len() < cur.len(),
            };
            if better {
                *best = Some((ids, access));
            }
        };
    for conj in filter.conjuncts() {
        if let Some(range) = conj.column_range() {
            let Some(pos) = source.best_index(range.col) else {
                continue;
            };
            let point = matches!(
                (&range.low, &range.high),
                (Bound::Included(a), Bound::Included(b)) if a == b
            );
            let ids = source.index_range(pos, as_ref_bound(&range.low), as_ref_bound(&range.high));
            let access = AccessPath::Index {
                name: source.index_name(pos),
                point,
            };
            consider(ids, access, &mut best);
        } else if let Some((col, points)) = conj.column_in_points() {
            let Some(pos) = source.best_index(col) else {
                continue;
            };
            // One point probe per distinct list item. Points are distinct
            // (deduped) so the per-point id sets are disjoint — plain
            // concatenation, no dedup pass needed.
            let ids: Vec<RowId> = points
                .iter()
                .flat_map(|v| source.index_range(pos, Bound::Included(v), Bound::Included(v)))
                .collect();
            let access = AccessPath::IndexMultiPoint {
                name: source.index_name(pos),
                probes: points.len(),
            };
            consider(ids, access, &mut best);
        }
    }
    match best {
        Some((ids, access)) => (ids, access),
        None => (source.all_ids(), AccessPath::FullScan),
    }
}

fn as_ref_bound(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Aggregate accumulator.
#[derive(Debug, Clone)]
struct Acc {
    count: i64,
    sum: f64,
    sum_is_int: bool,
    isum: i64,
    min: Option<Value>,
    max: Option<Value>,
}

impl Acc {
    fn new() -> Self {
        Acc {
            count: 0,
            sum: 0.0,
            sum_is_int: true,
            isum: 0,
            min: None,
            max: None,
        }
    }

    fn push(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(f) = v.as_float() {
            self.sum += f;
            match v.as_int() {
                Some(i) if self.sum_is_int => self.isum = self.isum.wrapping_add(i),
                _ => self.sum_is_int = false,
            }
        }
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
    }
}

fn aggregate(
    schema: &Schema,
    q: &Query,
    matched: Vec<(RowId, Cow<'_, [Value]>)>,
    rows_scanned: usize,
    access: AccessPath,
) -> DbResult<QueryResult> {
    // Resolve aggregate input columns.
    let agg_cols: Vec<Option<usize>> = q
        .aggregates
        .iter()
        .map(|a| match a.column() {
            Some(c) => schema.require_column(c).map(Some),
            None => Ok(None),
        })
        .collect::<DbResult<_>>()?;
    let group_cols: Vec<usize> = q
        .group_by
        .iter()
        .map(|c| schema.require_column(c))
        .collect::<DbResult<_>>()?;

    // Group rows (a single implicit group when group_by is empty).
    let mut groups: HashMap<Vec<Value>, (i64, Vec<Acc>)> = HashMap::new();
    let mut group_order: Vec<Vec<Value>> = Vec::new();
    for (_, row) in &matched {
        let key: Vec<Value> = group_cols.iter().map(|&c| row[c].clone()).collect();
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            group_order.push(key);
            (0, vec![Acc::new(); q.aggregates.len()])
        });
        entry.0 += 1;
        for (acc, col) in entry.1.iter_mut().zip(&agg_cols) {
            if let Some(c) = col {
                acc.push(&row[*c]);
            }
        }
    }
    // COUNT(*) over an empty, ungrouped input is still one row of zeroes.
    if groups.is_empty() && group_cols.is_empty() {
        group_order.push(Vec::new());
        groups.insert(Vec::new(), (0, vec![Acc::new(); q.aggregates.len()]));
    }

    let mut labels: Vec<String> = q.group_by.clone();
    labels.extend(q.aggregates.iter().map(AggFunc::label));

    let mut rows = Vec::with_capacity(group_order.len());
    for key in group_order {
        let (star_count, accs) = &groups[&key];
        let mut row = key.clone();
        for (agg, acc) in q.aggregates.iter().zip(accs) {
            let v = match agg {
                AggFunc::CountStar => Value::Int(*star_count),
                AggFunc::Count(_) => Value::Int(acc.count),
                AggFunc::Sum(_) => {
                    if acc.count == 0 {
                        Value::Null
                    } else if acc.sum_is_int {
                        Value::Int(acc.isum)
                    } else {
                        Value::Float(acc.sum)
                    }
                }
                AggFunc::Avg(_) => {
                    if acc.count == 0 {
                        Value::Null
                    } else {
                        Value::Float(acc.sum / acc.count as f64)
                    }
                }
                AggFunc::Min(_) => acc.min.clone().unwrap_or(Value::Null),
                AggFunc::Max(_) => acc.max.clone().unwrap_or(Value::Null),
            };
            row.push(v);
        }
        rows.push(row);
    }

    // Output order: an explicit ORDER BY over *output* columns (group keys
    // or aggregate labels like `count(*)`) wins; grouped results default to
    // group-key order otherwise. Top-k pushdown applies here exactly as in
    // the plain path — with a LIMIT, only the first `offset + limit` groups
    // in sort order can survive.
    let mut rows_sorted = 0usize;
    if !q.order_by.is_empty() {
        let keys: Vec<(usize, OrderDir)> = q
            .order_by
            .iter()
            .map(|(c, d)| {
                labels
                    .iter()
                    .position(|l| l == c)
                    .map(|i| (i, *d))
                    .ok_or_else(|| crate::error::DbError::NoSuchColumn {
                        table: q.table.clone(),
                        column: c.clone(),
                    })
            })
            .collect::<DbResult<_>>()?;
        let by_keys = |a: &Vec<Value>, b: &Vec<Value>| {
            for &(col, dir) in &keys {
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
        };
        let keep = q
            .limit
            .map(|l| q.offset.unwrap_or(0).saturating_add(l))
            .unwrap_or(usize::MAX);
        if keep < rows.len() && crate::tuning::topk_enabled() {
            rows = top_k_by(rows, keep, &by_keys);
        } else {
            rows.sort_by(by_keys);
        }
        rows_sorted = rows.len();
    } else if !group_cols.is_empty() {
        let n = group_cols.len();
        rows.sort_by(|a, b| a[..n].cmp(&b[..n]));
        rows_sorted = rows.len();
    }

    // LIMIT/OFFSET apply to aggregate output too (grouped rows are already
    // ordered by their group keys).
    let offset = q.offset.unwrap_or(0);
    if offset > 0 {
        rows.drain(..offset.min(rows.len()));
    }
    if let Some(limit) = q.limit {
        rows.truncate(limit);
    }

    let rows_returned = rows.len();
    Ok(QueryResult {
        columns: labels,
        rows,
        stats: ExecStats {
            rows_scanned,
            rows_returned,
            rows_sorted,
            access,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::DataType;

    fn table() -> Table {
        let mut t = Table::new(
            Schema::new(
                "ana",
                vec![
                    ColumnDef::new("id", DataType::Int).not_null(),
                    ColumnDef::new("hle_id", DataType::Int).not_null(),
                    ColumnDef::new("kind", DataType::Text).not_null(),
                    ColumnDef::new("dur", DataType::Float),
                ],
            )
            .primary_key(&["id"]),
        );
        t.create_index("ana_hle", &["hle_id"], false).unwrap();
        let kinds = ["image", "lightcurve", "spectrum"];
        for i in 0..30i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Int(i / 3),
                Value::Text(kinds[(i % 3) as usize].into()),
                Value::Float(i as f64 * 0.5),
            ])
            .unwrap();
        }
        t
    }

    /// Serializes tests that flip the process-wide tuning knobs so they
    /// don't race each other (flipped knobs never change *results*, only
    /// which execution strategy produced them).
    static TUNING_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn point_lookup_uses_pk_index() {
        let t = table();
        let q = Query::table("ana").filter(Expr::eq("id", 7));
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(
            r.stats.access,
            AccessPath::Index {
                name: "ana_pk".into(),
                point: true
            }
        );
        assert_eq!(r.stats.rows_scanned, 1);
    }

    #[test]
    fn range_scan_uses_secondary_index() {
        let t = table();
        let q = Query::table("ana").filter(Expr::between("hle_id", 2, 4));
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 9);
        assert!(matches!(
            r.stats.access,
            AccessPath::Index { point: false, .. }
        ));
    }

    #[test]
    fn unindexed_predicate_full_scans() {
        let t = table();
        let q = Query::table("ana").filter(Expr::eq("kind", "image"));
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.stats.access, AccessPath::FullScan);
        assert_eq!(r.stats.rows_scanned, 30);
    }

    #[test]
    fn residual_filter_applied_after_index() {
        let t = table();
        let q = Query::table("ana").filter(Expr::eq("hle_id", 2).and(Expr::eq("kind", "image")));
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(matches!(r.stats.access, AccessPath::Index { .. }));
        assert_eq!(r.stats.rows_scanned, 3); // only hle_id=2 candidates touched
    }

    #[test]
    fn projection_order_and_limit() {
        let t = table();
        let q = Query::table("ana")
            .select(&["kind", "id"])
            .order_by("id", OrderDir::Desc)
            .limit(3)
            .offset(1);
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.columns, vec!["kind", "id"]);
        let ids: Vec<i64> = r.rows.iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(ids, vec![28, 27, 26]);
    }

    #[test]
    fn count_star_and_filtered_count() {
        let t = table();
        let q = Query::table("ana").aggregate(AggFunc::CountStar);
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.scalar_int(), Some(30));

        let q = Query::table("ana")
            .filter(Expr::cmp("id", CmpOp::Lt, 10))
            .aggregate(AggFunc::CountStar);
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.scalar_int(), Some(10));
    }

    #[test]
    fn aggregates_sum_avg_min_max() {
        let t = table();
        let q = Query::table("ana")
            .aggregate(AggFunc::Sum("id".into()))
            .aggregate(AggFunc::Avg("dur".into()))
            .aggregate(AggFunc::Min("dur".into()))
            .aggregate(AggFunc::Max("dur".into()));
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows[0][0], Value::Int((0..30).sum::<i64>()));
        let avg = r.rows[0][1].as_float().unwrap();
        assert!((avg - 7.25).abs() < 1e-9);
        assert_eq!(r.rows[0][2], Value::Float(0.0));
        assert_eq!(r.rows[0][3], Value::Float(14.5));
    }

    #[test]
    fn group_by_kind() {
        let t = table();
        let q = Query::table("ana")
            .group_by("kind")
            .aggregate(AggFunc::CountStar);
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.columns, vec!["kind", "COUNT(*)"]);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert_eq!(row[1], Value::Int(10));
        }
        // Deterministic sorted group order.
        assert_eq!(r.rows[0][0], Value::Text("image".into()));
    }

    #[test]
    fn empty_aggregate_returns_zero_row() {
        let t = table();
        let q = Query::table("ana")
            .filter(Expr::eq("id", 9999))
            .aggregate(AggFunc::CountStar)
            .aggregate(AggFunc::Sum("dur".into()));
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert_eq!(r.rows[0][1], Value::Null);
    }

    #[test]
    fn aggregate_respects_limit_and_offset() {
        let t = table();
        let q = Query::table("ana")
            .group_by("kind")
            .aggregate(AggFunc::CountStar)
            .limit(2)
            .offset(1);
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 2);
        // Sorted group order is image < lightcurve < spectrum; offset 1
        // drops "image".
        assert_eq!(r.rows[0][0], Value::Text("lightcurve".into()));
    }

    #[test]
    fn aggregate_orders_by_output_columns() {
        let _g = TUNING_LOCK.lock().unwrap();
        // Per-kind SUM(dur): image 67.5 < lightcurve 72.5 < spectrum 77.5.
        let t = table();
        let q = Query::table("ana")
            .group_by("kind")
            .aggregate(AggFunc::Sum("dur".into()))
            .order_by("SUM(dur)", OrderDir::Desc)
            .limit(2);
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.columns, vec!["kind".to_string(), "SUM(dur)".to_string()]);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Text("spectrum".into()));
        assert_eq!(r.rows[1][0], Value::Text("lightcurve".into()));
        // Top-k pushdown bounds the grouped sort too: 3 groups, keep 2.
        assert_eq!(r.stats.rows_sorted, 2);

        // Group keys are orderable output columns as well.
        let by_kind = execute(
            &t,
            &Query::table("ana")
                .group_by("kind")
                .aggregate(AggFunc::CountStar)
                .order_by("kind", OrderDir::Desc),
        )
        .unwrap();
        assert_eq!(by_kind.rows[0][0], Value::Text("spectrum".into()));
        assert_eq!(by_kind.rows[2][0], Value::Text("image".into()));
    }

    #[test]
    fn aggregate_order_by_non_output_column_is_an_error() {
        // `dur` is an *input* column; after grouping it no longer exists.
        let t = table();
        let q = Query::table("ana")
            .group_by("kind")
            .aggregate(AggFunc::CountStar)
            .order_by("dur", OrderDir::Asc);
        assert!(execute(&t, &q).is_err());
    }

    #[test]
    fn in_list_uses_multi_point_probes() {
        let t = table();
        let q = Query::table("ana").filter(Expr::in_list("id", [3i64, 7, 11, 7]));
        let r = execute(&t, &q).unwrap();
        let mut ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        ids.sort();
        assert_eq!(ids, vec![3, 7, 11]);
        assert_eq!(
            r.stats.access,
            AccessPath::IndexMultiPoint {
                name: "ana_pk".into(),
                probes: 3, // the duplicate 7 collapses to one probe
            }
        );
        assert_eq!(r.stats.rows_scanned, 3);
    }

    #[test]
    fn in_list_with_null_item_skips_the_null_probe() {
        let t = table();
        let q = Query::table("ana").filter(Expr::InList {
            expr: Box::new(Expr::Name("id".into())),
            list: vec![Expr::Literal(Value::Int(3)), Expr::Literal(Value::Null)],
        });
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(matches!(
            r.stats.access,
            AccessPath::IndexMultiPoint { probes: 1, .. }
        ));
    }

    #[test]
    fn in_list_on_unindexed_column_full_scans() {
        let t = table();
        let q = Query::table("ana").filter(Expr::in_list("kind", ["image", "spectrum"]));
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 20);
        assert_eq!(r.stats.access, AccessPath::FullScan);
    }

    #[test]
    fn in_list_competes_on_selectivity() {
        // `hle_id IN (2)` selects 3 rows; `id IN (5, 6, 7, 8)` selects 4.
        // The planner must pick the smaller candidate set.
        let t = table();
        let q = Query::table("ana")
            .filter(Expr::in_list("id", [5i64, 6, 7, 8]))
            .filter(Expr::in_list("hle_id", [2i64]));
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 3); // ids 6,7,8 have hle_id 2
        assert!(matches!(
            r.stats.access,
            AccessPath::IndexMultiPoint { probes: 1, .. }
        ));
        assert_eq!(r.stats.rows_scanned, 3);
    }

    #[test]
    fn topk_limit_bounds_the_sort_working_set() {
        let _g = TUNING_LOCK.lock().unwrap();
        let t = table();
        let q = Query::table("ana").order_by("dur", OrderDir::Desc).limit(3);
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 3);
        // Bounded heap: only k rows enter the sort, not all 30 matches.
        assert_eq!(r.stats.rows_sorted, 3);
        // Identical output to the full-sort baseline.
        crate::tuning::set_topk_enabled(false);
        let full = execute(&t, &q).unwrap();
        crate::tuning::set_topk_enabled(true);
        assert_eq!(full.stats.rows_sorted, 30);
        assert_eq!(r.rows, full.rows);
    }

    #[test]
    fn topk_keeps_offset_rows_in_the_heap() {
        let _g = TUNING_LOCK.lock().unwrap();
        let t = table();
        let q = Query::table("ana")
            .order_by("id", OrderDir::Asc)
            .offset(5)
            .limit(4);
        let r = execute(&t, &q).unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![5, 6, 7, 8]);
        // The heap must retain offset + limit rows or the window is wrong.
        assert_eq!(r.stats.rows_sorted, 9);
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let _g = TUNING_LOCK.lock().unwrap();
        let t = table();
        let q = Query::table("ana")
            .filter(Expr::eq("kind", "image"))
            .order_by("id", OrderDir::Asc);
        crate::tuning::set_parallel_scan_threshold(1); // force the parallel path
        let par = execute(&t, &q).unwrap();
        crate::tuning::set_parallel_scan_threshold(crate::tuning::DEFAULT_PARALLEL_SCAN_ROWS);
        let seq = execute(&t, &q).unwrap();
        assert_eq!(par.rows, seq.rows);
        assert_eq!(par.stats.rows_scanned, seq.stats.rows_scanned);
    }

    #[test]
    fn unknown_projection_column_errors() {
        let t = table();
        let q = Query::table("ana").select(&["nope"]);
        assert!(matches!(
            execute(&t, &q).unwrap_err(),
            DbError::NoSuchColumn { .. }
        ));
    }

    /// The same 30 rows as [`table`], but on the paged backing with tiny
    /// pages (real splits) and a small cache (real evictions).
    fn paged_table() -> Table {
        let store = std::sync::Arc::new(
            hedc_store::Store::open(hedc_store::StoreOptions {
                path: None,
                page_size: 512,
                cache_pages: 16,
            })
            .unwrap(),
        );
        let mut t = Table::new_paged(
            Schema::new(
                "ana",
                vec![
                    ColumnDef::new("id", DataType::Int).not_null(),
                    ColumnDef::new("hle_id", DataType::Int).not_null(),
                    ColumnDef::new("kind", DataType::Text).not_null(),
                    ColumnDef::new("dur", DataType::Float),
                ],
            )
            .primary_key(&["id"]),
            store,
        )
        .unwrap();
        t.create_index("ana_hle", &["hle_id"], false).unwrap();
        let kinds = ["image", "lightcurve", "spectrum"];
        for i in 0..30i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Int(i / 3),
                Value::Text(kinds[(i % 3) as usize].into()),
                Value::Float(i as f64 * 0.5),
            ])
            .unwrap();
        }
        t
    }

    /// Every access path — point, range, multi-point, full scan, sort,
    /// aggregate — must return identical rows, stats, and access paths on
    /// the memory backing, the paged backing, and a frozen paged snapshot.
    #[test]
    fn paged_and_snapshot_execution_match_memory() {
        let mem = table();
        let paged = paged_table();
        let snap = paged.freeze().expect("paged tables freeze");
        let queries = vec![
            Query::table("ana").filter(Expr::eq("id", 7)),
            Query::table("ana").filter(Expr::between("hle_id", 2, 4)),
            Query::table("ana").filter(Expr::eq("kind", "image")),
            Query::table("ana").filter(Expr::eq("hle_id", 2).and(Expr::eq("kind", "image"))),
            Query::table("ana")
                .select(&["kind", "id"])
                .order_by("id", OrderDir::Desc)
                .limit(3)
                .offset(1),
            Query::table("ana").filter(Expr::in_list("id", [3i64, 7, 11, 7])),
            Query::table("ana")
                .group_by("kind")
                .aggregate(AggFunc::CountStar),
            Query::table("ana")
                .aggregate(AggFunc::Sum("id".into()))
                .aggregate(AggFunc::Avg("dur".into()))
                .aggregate(AggFunc::Min("dur".into()))
                .aggregate(AggFunc::Max("dur".into())),
            Query::table("ana").order_by("dur", OrderDir::Desc).limit(5),
        ];
        for q in &queries {
            let m = execute(&mem, q).unwrap();
            let p = execute(&paged, q).unwrap();
            let s = execute(&snap, q).unwrap();
            assert_eq!(m.rows, p.rows, "paged rows diverge for {q:?}");
            assert_eq!(m.rows, s.rows, "snapshot rows diverge for {q:?}");
            assert_eq!(
                m.stats.access, p.stats.access,
                "access path diverges for {q:?}"
            );
            assert_eq!(
                m.stats.access, s.stats.access,
                "snapshot access diverges for {q:?}"
            );
            assert_eq!(m.stats.rows_scanned, p.stats.rows_scanned);
            assert_eq!(m.columns, p.columns);
        }
    }

    /// A frozen snapshot keeps answering the old state while the live
    /// table moves on — the reader/writer decoupling the paged backend
    /// exists to provide.
    #[test]
    fn snapshot_reads_are_stable_under_writes() {
        let mut paged = paged_table();
        let snap = paged.freeze().unwrap();
        for i in 30..60i64 {
            paged
                .insert(vec![
                    Value::Int(i),
                    Value::Int(i / 3),
                    Value::Text("late".into()),
                    Value::Null,
                ])
                .unwrap();
        }
        let count = Query::table("ana").aggregate(AggFunc::CountStar);
        assert_eq!(execute(&snap, &count).unwrap().scalar_int(), Some(30));
        assert_eq!(execute(&paged, &count).unwrap().scalar_int(), Some(60));
    }

    /// Pin the cache-accounting arithmetic: `size_bytes` charges the
    /// struct header, column label capacity, per-row `Vec` overhead
    /// (including spare capacity), and value *capacity* rather than
    /// initialized length.
    #[test]
    fn size_bytes_charges_capacity_and_row_overhead() {
        let val = std::mem::size_of::<Value>();
        let vec_hdr = std::mem::size_of::<Vec<Value>>();
        let str_hdr = std::mem::size_of::<String>();
        let base = std::mem::size_of::<QueryResult>();

        let empty = QueryResult {
            columns: vec![],
            rows: vec![],
            stats: ExecStats {
                rows_scanned: 0,
                rows_returned: 0,
                rows_sorted: 0,
                access: AccessPath::FullScan,
            },
        };
        assert_eq!(empty.size_bytes(), base);

        // One column whose backing String has excess capacity; one row
        // holding an Int and a Text with excess capacity.
        let mut label = String::with_capacity(16);
        label.push_str("id");
        let mut text = String::with_capacity(32);
        text.push_str("abcd");
        let mut row = Vec::with_capacity(4);
        row.push(Value::Int(7));
        row.push(Value::Text(text));
        let r = QueryResult {
            columns: vec![label],
            rows: vec![row],
            stats: ExecStats {
                rows_scanned: 1,
                rows_returned: 1,
                rows_sorted: 0,
                access: AccessPath::FullScan,
            },
        };
        let expected = base
            + (str_hdr + 16)            // column label: header + capacity 16
            + vec_hdr + 4 * val         // row: Vec header + capacity-4 slots
            + 32; // Text heap capacity (Int carries no heap)
        assert_eq!(r.size_bytes(), expected);
        // The old accounting (len-based value sum, no overhead) would have
        // said 8 + (4 + 8) = 20; capacity-aware is strictly larger.
        assert!(r.size_bytes() > 20);
    }
}
