//! Critical-path analysis of finished span trees.
//!
//! Walks a trace's spans and partitions the root's wall-clock time into
//! exclusive *self time* per span: each instant of the root interval is
//! attributed to exactly one span (the deepest one covering it, earlier
//! siblings winning overlaps), so the per-span self times always sum to the
//! root duration — the breakdown cannot silently lose or double-count
//! milliseconds. Self time is then rolled up two ways: by *category*
//! (queue wait / lock-or-pool acquire / wire / execute) and by *tier* (the
//! dotted-name prefix: `web`, `pl`, `dm`, `db`, `metadb`, `net`, `fs`,
//! `ingest`), which is exactly the decomposition the §7.3 fig4 collapse
//! needs before anyone optimizes it.

use crate::export::json_string;
use crate::trace::FinishedSpan;
use std::collections::HashMap;

/// Where a span's self time goes in the breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Waiting in a queue (PL frontend, ingest stage handoffs).
    Queue,
    /// Waiting for a lock or pooled resource (`db.pool.acquire`).
    Pool,
    /// On the wire: client-side RPC self time (request/response framing,
    /// kernel, loopback). When the server runs in the same process its
    /// spans join the trace and subtract out; for a remote server the wire
    /// share includes the peer's processing.
    Wire,
    /// Everything else: actually executing.
    Execute,
}

impl Category {
    /// All categories, breakdown display order.
    pub const ALL: [Category; 4] = [
        Category::Queue,
        Category::Pool,
        Category::Wire,
        Category::Execute,
    ];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Category::Queue => "queue",
            Category::Pool => "pool",
            Category::Wire => "wire",
            Category::Execute => "execute",
        }
    }
}

/// Classify a span name. Matches the repo's metric-name conventions:
/// `*queue*` → queue wait, `*pool*`/`*lock*` → pool, `net.rpc.client` →
/// wire, rest → execute.
pub fn category_of(name: &str) -> Category {
    if name.contains("queue") {
        Category::Queue
    } else if name.contains("pool") || name.contains("lock") {
        Category::Pool
    } else if name.starts_with("net.rpc.client") {
        Category::Wire
    } else {
        Category::Execute
    }
}

/// The tier a span belongs to: its dotted-name prefix.
pub fn tier_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// One span in the waterfall, depth-first order.
#[derive(Debug, Clone)]
pub struct WaterfallRow {
    pub span_id: u64,
    pub name: String,
    /// Nesting depth (root = 0).
    pub depth: usize,
    /// Start offset from the root start, microseconds.
    pub offset_us: u64,
    pub duration_us: u64,
    /// Exclusive self time within the partition.
    pub self_us: u64,
    pub category: Category,
}

/// Per-tier, per-category self-time rollup.
#[derive(Debug, Clone)]
pub struct TierSlice {
    pub tier: String,
    pub category: Category,
    pub self_us: u64,
}

/// The full analysis of one trace.
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub trace_id: u64,
    pub root_name: String,
    pub root_us: u64,
    /// Self time per category; all four present, display order.
    pub by_category: Vec<(Category, u64)>,
    /// Nonzero tier/category slices, largest first.
    pub by_tier: Vec<TierSlice>,
    /// Depth-first waterfall rows.
    pub waterfall: Vec<WaterfallRow>,
    /// Spans whose recorded parent was already evicted; they were attached
    /// to the root so their time still attributes.
    pub orphans: usize,
}

impl Breakdown {
    /// Self time of one category, microseconds.
    pub fn category_us(&self, c: Category) -> u64 {
        self.by_category
            .iter()
            .find(|(cat, _)| *cat == c)
            .map(|(_, us)| *us)
            .unwrap_or(0)
    }

    /// Total attributed time — equals `root_us` by construction (the
    /// partition property; the analyzer's tests assert it).
    pub fn attributed_us(&self) -> u64 {
        self.by_category.iter().map(|(_, us)| *us).sum()
    }

    /// Compact JSON rendering (the `/hedc/trace/<id>.json` payload and the
    /// bench attribution rows).
    pub fn to_json(&self) -> String {
        let cats: Vec<String> = self
            .by_category
            .iter()
            .map(|(c, us)| format!("\"{}_us\":{us}", c.label()))
            .collect();
        let tiers: Vec<String> = self
            .by_tier
            .iter()
            .map(|t| {
                format!(
                    "{{\"tier\":{},\"category\":\"{}\",\"self_us\":{}}}",
                    json_string(&t.tier),
                    t.category.label(),
                    t.self_us
                )
            })
            .collect();
        let rows: Vec<String> = self
            .waterfall
            .iter()
            .map(|r| {
                format!(
                    "{{\"span_id\":{},\"name\":{},\"depth\":{},\"offset_us\":{},\"duration_us\":{},\"self_us\":{},\"category\":\"{}\"}}",
                    r.span_id,
                    json_string(&r.name),
                    r.depth,
                    r.offset_us,
                    r.duration_us,
                    r.self_us,
                    r.category.label()
                )
            })
            .collect();
        format!(
            "{{\"trace_id\":{},\"root\":{},\"root_us\":{},\"attributed_us\":{},\"orphans\":{},\"breakdown\":{{{}}},\"tiers\":[{}],\"spans\":[{}]}}",
            self.trace_id,
            json_string(&self.root_name),
            self.root_us,
            self.attributed_us(),
            self.orphans,
            cats.join(","),
            tiers.join(","),
            rows.join(",")
        )
    }
}

// -- interval-set helpers (disjoint, sorted (start, end) pairs) -------------

type Ivls = Vec<(u64, u64)>;

fn ivls_len(v: &Ivls) -> u64 {
    v.iter().map(|(a, b)| b - a).sum()
}

/// `v ∩ [lo, hi)`.
fn ivls_clip(v: &Ivls, lo: u64, hi: u64) -> Ivls {
    v.iter()
        .filter_map(|&(a, b)| {
            let (a, b) = (a.max(lo), b.min(hi));
            (a < b).then_some((a, b))
        })
        .collect()
}

/// `a \ b`, both disjoint-sorted.
fn ivls_subtract(a: &Ivls, b: &Ivls) -> Ivls {
    let mut out = Vec::new();
    for &(mut lo, hi) in a {
        for &(blo, bhi) in b {
            if bhi <= lo || blo >= hi {
                continue;
            }
            if blo > lo {
                out.push((lo, blo));
            }
            lo = lo.max(bhi);
            if lo >= hi {
                break;
            }
        }
        if lo < hi {
            out.push((lo, hi));
        }
    }
    out
}

/// Merge `add` into `acc`, keeping it disjoint-sorted.
fn ivls_union(acc: &Ivls, add: &Ivls) -> Ivls {
    let mut all: Ivls = acc.iter().chain(add.iter()).copied().collect();
    all.sort_unstable();
    let mut out: Ivls = Vec::with_capacity(all.len());
    for (a, b) in all {
        match out.last_mut() {
            Some((_, pb)) if a <= *pb => *pb = (*pb).max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Analyze one trace's spans. Returns `None` when no root span is present
/// (fully evicted or still running).
pub fn analyze(spans: &[FinishedSpan]) -> Option<Breakdown> {
    let root = spans
        .iter()
        .filter(|s| s.parent_id == 0)
        .max_by_key(|s| s.duration_us)?;
    let ids: HashMap<u64, usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.span_id, i))
        .collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut orphans = 0usize;
    for (i, s) in spans.iter().enumerate() {
        if s.span_id == root.span_id {
            continue;
        }
        let parent = if s.parent_id != 0 && ids.contains_key(&s.parent_id) {
            s.parent_id
        } else {
            // Evicted parent (or a sibling root — a concurrently-minted
            // trace can't share a trace_id, so siblings here are rare):
            // hang it off the root so its time still attributes.
            orphans += 1;
            root.span_id
        };
        children.entry(parent).or_default().push(i);
    }
    // Earlier-start siblings win overlap ties: sort each child list.
    for list in children.values_mut() {
        list.sort_by_key(|&i| (spans[i].start_us, spans[i].span_id));
    }

    let mut waterfall = Vec::with_capacity(spans.len());
    // Iterative DFS carrying (index, depth, allocated interval set).
    let root_idx = ids[&root.span_id];
    let root_alloc: Ivls = vec![(root.start_us, root.start_us + root.duration_us)];
    let mut stack = vec![(root_idx, 0usize, root_alloc)];
    let mut visited = vec![false; spans.len()];
    while let Some((idx, depth, alloc)) = stack.pop() {
        if visited[idx] {
            continue;
        }
        visited[idx] = true;
        let span = &spans[idx];
        let kids = children.get(&span.span_id).cloned().unwrap_or_default();
        let mut granted: Ivls = Vec::new();
        let mut kid_allocs = Vec::with_capacity(kids.len());
        for &k in &kids {
            let kspan = &spans[k];
            let kiv = ivls_clip(&alloc, kspan.start_us, kspan.start_us + kspan.duration_us);
            let kiv = ivls_subtract(&kiv, &granted);
            granted = ivls_union(&granted, &kiv);
            kid_allocs.push((k, kiv));
        }
        let self_us = ivls_len(&alloc) - ivls_len(&granted);
        waterfall.push(WaterfallRow {
            span_id: span.span_id,
            name: span.name.to_string(),
            depth,
            offset_us: span.start_us.saturating_sub(root.start_us),
            duration_us: span.duration_us,
            self_us,
            category: category_of(span.name),
        });
        // Reverse push so DFS visits children in start order.
        for (k, kiv) in kid_allocs.into_iter().rev() {
            stack.push((k, depth + 1, kiv));
        }
    }

    let mut by_category: Vec<(Category, u64)> = Category::ALL.iter().map(|&c| (c, 0u64)).collect();
    let mut tier_map: HashMap<(String, Category), u64> = HashMap::new();
    for row in &waterfall {
        if let Some(slot) = by_category.iter_mut().find(|(c, _)| *c == row.category) {
            slot.1 += row.self_us;
        }
        *tier_map
            .entry((tier_of(&row.name).to_string(), row.category))
            .or_insert(0) += row.self_us;
    }
    let mut by_tier: Vec<TierSlice> = tier_map
        .into_iter()
        .filter(|(_, us)| *us > 0)
        .map(|((tier, category), self_us)| TierSlice {
            tier,
            category,
            self_us,
        })
        .collect();
    by_tier.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.tier.cmp(&b.tier)));

    Some(Breakdown {
        trace_id: root.trace_id,
        root_name: root.name.to_string(),
        root_us: root.duration_us,
        by_category,
        by_tier,
        waterfall,
        orphans,
    })
}

/// Analyze a trace by ID: the flight recorder's copy if retained (pinned
/// traces survive span-store churn), else whatever the span store still
/// holds.
pub fn analyze_trace(trace_id: u64) -> Option<Breakdown> {
    let spans = match crate::flight::recorder().get(trace_id) {
        Some(record) => record.spans,
        None => crate::trace::span_store().spans_for(trace_id),
    };
    analyze(&spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        name: &'static str,
        start_us: u64,
        duration_us: u64,
    ) -> FinishedSpan {
        FinishedSpan {
            trace_id,
            span_id,
            parent_id,
            name,
            start_us,
            duration_us,
        }
    }

    #[test]
    fn nested_spans_partition_exactly() {
        // root [0,100) -> db [10,40) -> pool [10,20); queue [50,80)
        let spans = vec![
            span(7, 1, 0, "web.request", 0, 100),
            span(7, 2, 1, "metadb.query", 10, 30),
            span(7, 3, 2, "db.pool.acquire", 10, 10),
            span(7, 4, 1, "pl.queue_wait", 50, 30),
        ];
        let b = analyze(&spans).unwrap();
        assert_eq!(b.root_us, 100);
        assert_eq!(b.attributed_us(), 100, "partition must be exact");
        assert_eq!(b.category_us(Category::Pool), 10);
        assert_eq!(b.category_us(Category::Queue), 30);
        assert_eq!(b.category_us(Category::Execute), 60); // 40 root + 20 db
        assert_eq!(b.category_us(Category::Wire), 0);
        assert_eq!(b.orphans, 0);
        // Waterfall is DFS: root, db, pool, queue.
        let names: Vec<&str> = b.waterfall.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "web.request",
                "metadb.query",
                "db.pool.acquire",
                "pl.queue_wait"
            ]
        );
        assert_eq!(b.waterfall[1].depth, 1);
        assert_eq!(b.waterfall[2].depth, 2);
        assert_eq!(b.waterfall[3].offset_us, 50);
    }

    #[test]
    fn overlapping_siblings_do_not_double_count() {
        // Two parallel children covering [0,60) and [40,100) of a 100us root:
        // overlap [40,60) goes to the earlier sibling once.
        let spans = vec![
            span(8, 1, 0, "web.request", 0, 100),
            span(8, 2, 1, "dm.io.query", 0, 60),
            span(8, 3, 1, "dm.io.query", 40, 60),
        ];
        let b = analyze(&spans).unwrap();
        assert_eq!(b.attributed_us(), 100);
        let rows: Vec<u64> = b.waterfall.iter().map(|r| r.self_us).collect();
        assert_eq!(rows, vec![0, 60, 40]);
    }

    #[test]
    fn orphaned_spans_attach_to_root() {
        let spans = vec![
            span(9, 1, 0, "web.request", 0, 100),
            // Parent span 99 was evicted from the ring.
            span(9, 5, 99, "fs.read", 20, 10),
        ];
        let b = analyze(&spans).unwrap();
        assert_eq!(b.orphans, 1);
        assert_eq!(b.attributed_us(), 100);
        assert_eq!(b.waterfall[1].name, "fs.read");
        assert_eq!(b.waterfall[1].self_us, 10);
    }

    #[test]
    fn child_overflowing_root_is_clipped() {
        let spans = vec![
            span(10, 1, 0, "web.request", 0, 50),
            span(10, 2, 1, "net.rpc.client", 40, 30), // runs past the root
        ];
        let b = analyze(&spans).unwrap();
        assert_eq!(b.attributed_us(), 50);
        assert_eq!(
            b.category_us(Category::Wire),
            10,
            "clipped to the root window"
        );
    }

    #[test]
    fn no_root_no_breakdown() {
        assert!(analyze(&[]).is_none());
        assert!(analyze(&[span(11, 2, 1, "dm.io.query", 0, 10)]).is_none());
    }

    #[test]
    fn tier_rollup_and_json() {
        let spans = vec![
            span(12, 1, 0, "web.request", 0, 100),
            span(12, 2, 1, "db.pool.acquire", 10, 20),
        ];
        let b = analyze(&spans).unwrap();
        assert_eq!(b.by_tier[0].tier, "web");
        assert_eq!(b.by_tier[0].self_us, 80);
        assert_eq!(b.by_tier[1].tier, "db");
        let json = b.to_json();
        assert!(json.contains("\"pool_us\":20"), "{json}");
        assert!(json.contains("\"execute_us\":80"), "{json}");
        assert!(json.contains("\"attributed_us\":100"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn category_classification() {
        assert_eq!(category_of("pl.queue_wait"), Category::Queue);
        assert_eq!(category_of("ingest.queue_wait.write"), Category::Queue);
        assert_eq!(category_of("db.pool.acquire"), Category::Pool);
        assert_eq!(category_of("net.rpc.client"), Category::Wire);
        assert_eq!(category_of("net.rpc.server"), Category::Execute);
        assert_eq!(category_of("metadb.query"), Category::Execute);
        assert_eq!(tier_of("db.pool.acquire"), "db");
        assert_eq!(tier_of("web"), "web");
    }
}
