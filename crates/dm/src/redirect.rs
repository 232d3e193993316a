//! DM call redirection (§5.4).
//!
//! "The system has been designed to run either on a single node, or
//! distributed across a cluster. ... there is the possibility of redirecting
//! calls from one DM component to another. We use this feature to increase
//! capacity in HEDC by adding more nodes to the system." Callers address a
//! [`DmRouter`]; whether a request executes locally or on another node is a
//! configuration matter, invisible to the calling code ("the calling
//! methods do not know where the code is actually executed").

use crate::error::{DmError, DmResult};
use crate::names::{NameType, ResolvedName};
use hedc_cache::{CacheConfig, QueryCache};
use hedc_metadb::{Query, QueryResult};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache scope tag for router-side entries. Queries reaching the router are
/// already scoped (ownership filters are part of the query text, hence part
/// of the fingerprint), so one shared tag is sufficient — and it can never
/// collide with the per-user tags of the semantic layer.
const ROUTER_SCOPE: &str = "net";

/// The request surface a DM node exposes to other nodes: read-side browsing
/// calls (the workload that scales out in §7.3). Writes stay on the primary.
pub trait DmNode: Send + Sync {
    /// Node identifier for logs and status.
    fn node_id(&self) -> String;
    /// Execute a (pre-scoped) query.
    fn execute_query(&self, q: &Query) -> DmResult<QueryResult>;
    /// Execute several queries as one logical call, results in input
    /// order with per-entry error isolation. The default loops
    /// [`DmNode::execute_query`]; network-backed nodes override it to
    /// ship the whole batch in a single round trip.
    fn execute_batch(&self, qs: &[Query]) -> Vec<DmResult<QueryResult>> {
        qs.iter().map(|q| self.execute_query(q)).collect()
    }
    /// Resolve an item's dynamic names (§4.3) on this node. The default
    /// reports the capability as unsupported; nodes backed by a DM (or a
    /// wire to one) override it.
    fn resolve_names(&self, item_id: i64, want: NameType) -> DmResult<Vec<ResolvedName>> {
        Err(DmError::RemoteFailed(format!(
            "{}: name resolution not supported (item {item_id}, {})",
            self.node_id(),
            want.as_str()
        )))
    }
    /// Resolve many items' names as one logical call, results in input
    /// order with per-entry error isolation. The default loops
    /// [`DmNode::resolve_names`]; DM-backed nodes override it with the
    /// batched `IN`-list path, network-backed nodes with one batch frame.
    fn resolve_batch(&self, item_ids: &[i64], want: NameType) -> Vec<DmResult<Vec<ResolvedName>>> {
        item_ids
            .iter()
            .map(|&id| self.resolve_names(id, want))
            .collect()
    }
    /// Liveness probe.
    fn is_available(&self) -> bool {
        true
    }
}

/// Run `call` once per target and return the answers in target order. The
/// first target runs on the calling thread — which would otherwise only
/// wait — and each of the others on a scoped thread that joins the caller's
/// trace; a scatter with a single target spawns nothing.
pub(crate) fn scatter<T: Sync, R: Send>(targets: &[T], call: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let Some((first, rest)) = targets.split_first() else {
        return Vec::new();
    };
    let ctx = hedc_obs::current();
    let call = &call;
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter()
            .map(|t| {
                scope.spawn(move || {
                    let _trace = hedc_obs::adopt(ctx);
                    call(t)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(targets.len());
        out.push(call(first));
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter target panicked")),
        );
        out
    })
}

/// Round-robin router over DM nodes with failover: a request landing on an
/// unavailable node is retried on the next one ("interactions ... are
/// self-recovering and tolerate failure and restart", §5.1).
pub struct DmRouter {
    nodes: Vec<Arc<dyn DmNode>>,
    next: AtomicUsize,
    /// Per-node "last seen down" flags, so recovery (a formerly skipped or
    /// failed node serving again) is observable, not just the outage.
    seen_down: Vec<AtomicBool>,
    /// Router-side result cache. The router cannot observe writes behind
    /// the nodes, so freshness is TTL-only — and when *every* node is
    /// unavailable, expired entries are still served (degraded read-only
    /// mode) rather than failing the browse request.
    cache: Option<QueryCache>,
}

impl DmRouter {
    /// Build a router. At least one node is required.
    pub fn new(nodes: Vec<Arc<dyn DmNode>>) -> Self {
        assert!(!nodes.is_empty(), "router needs at least one node");
        let seen_down = nodes.iter().map(|_| AtomicBool::new(false)).collect();
        DmRouter {
            nodes,
            next: AtomicUsize::new(0),
            seen_down,
            cache: None,
        }
    }

    /// Build a router with a result cache in front of the wire. Because no
    /// generation counters ever bump on this side, set
    /// [`CacheConfig::ttl`]; with `ttl: None` entries only leave by
    /// eviction (acceptable for immutable archives, wrong for live ones).
    pub fn with_cache(nodes: Vec<Arc<dyn DmNode>>, config: &CacheConfig) -> Self {
        let gens = Arc::new(hedc_cache::GenerationMap::new());
        let mut router = DmRouter::new(nodes);
        router.cache = Some(QueryCache::new(config, gens));
        router
    }

    /// The router-side cache, when enabled.
    pub fn cache(&self) -> Option<&QueryCache> {
        self.cache.as_ref()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Mark node `i` down once, emitting the skip/failure event only on the
    /// up→down edge so a flapping node does not flood the event log.
    fn note_down(&self, i: usize, detail: String) {
        if !self.seen_down[i].swap(true, Ordering::Relaxed) {
            hedc_obs::emit(hedc_obs::events::kind::DM_REDIRECT, detail);
        }
    }

    /// Execute on the next node in rotation, failing over past down nodes.
    /// With a cache, fresh entries are served without touching any node,
    /// and when every node is unavailable or shedding the request is
    /// answered from stale cache (degraded read-only mode) before erroring.
    pub fn execute_query(&self, q: &Query) -> DmResult<QueryResult> {
        let fetch = || {
            let start = self.next.fetch_add(1, Ordering::Relaxed);
            self.walk(start, 1, |node, _| vec![node.execute_query(q)])
                .pop()
                .expect("walk answers every entry")
        };
        QueryCache::read_through(self.cache.as_ref(), ROUTER_SCOPE, q, fetch)
    }

    /// Resolve a batch of item names across the cluster: the items are
    /// split into contiguous chunks, one per node, the chunks fan out in
    /// parallel from consecutive rotation positions, and the per-item
    /// results are stitched back in input order. A chunk whose node is down
    /// or dies mid-batch fails over wholesale to the next node in rotation
    /// — no item is lost and none is resolved twice in the output (exactly
    /// one result per input, positionally).
    pub fn resolve_batch(
        &self,
        item_ids: &[i64],
        want: NameType,
    ) -> Vec<DmResult<Vec<ResolvedName>>> {
        if item_ids.is_empty() {
            return Vec::new();
        }
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        let fan = self.nodes.len().min(item_ids.len());
        let chunks: Vec<(usize, &[i64])> = item_ids
            .chunks(item_ids.len().div_ceil(fan))
            .enumerate()
            .collect();
        scatter(&chunks, |&(ci, ids)| {
            self.walk(start.wrapping_add(ci), ids.len(), |node, pending| {
                let picked: Vec<i64> = pending.iter().map(|&p| ids[p]).collect();
                node.resolve_batch(&picked, want)
            })
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// The replica walk: offer `entries` positional entries to the nodes in
    /// rotation order from `start` (a free-running cursor, expected to
    /// overflow on a long-lived router, hence the wrapping arithmetic).
    /// `call` runs the still-pending entries (by index) on one node and
    /// answers them positionally. An entry that comes back
    /// [`DmError::RemoteUnavailable`] or [`DmError::Overloaded`] is retried
    /// on the next node; every other outcome — success or a real per-entry
    /// error — is final. An entry no node settled keeps the last reason.
    fn walk<T>(
        &self,
        start: usize,
        entries: usize,
        call: impl Fn(&dyn DmNode, &[usize]) -> Vec<DmResult<T>>,
    ) -> Vec<DmResult<T>> {
        let n = self.nodes.len();
        let mut out: Vec<Option<DmResult<T>>> = (0..entries).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..entries).collect();
        for k in 0..n {
            if pending.is_empty() {
                break;
            }
            let i = start.wrapping_add(k) % n;
            let node = &self.nodes[i];
            if !node.is_available() {
                self.note_down(i, format!("skipped unavailable node {}", node.node_id()));
                for &p in &pending {
                    out[p] = Some(Err(DmError::RemoteUnavailable(node.node_id())));
                }
                continue;
            }
            let mut answers = call(node.as_ref(), &pending).into_iter();
            let mut retry = Vec::new();
            let mut shed = 0usize;
            for &p in &pending {
                let answer = answers.next().unwrap_or_else(|| {
                    Err(DmError::RemoteFailed(format!(
                        "{}: answered fewer entries than it was sent",
                        node.node_id()
                    )))
                });
                match &answer {
                    Err(DmError::RemoteUnavailable(_)) => retry.push(p),
                    Err(DmError::Overloaded(_)) => {
                        // The node answered — it is *up*, just shedding — so
                        // the entry redirects to the next replica without
                        // this one being marked down.
                        shed += 1;
                        retry.push(p);
                    }
                    _ => {}
                }
                out[p] = Some(answer);
            }
            if shed > 0 {
                hedc_obs::global()
                    .counter("dm.router.overload_redirects")
                    .add(shed as u64);
            }
            if retry.len() < pending.len() {
                if self.seen_down[i].swap(false, Ordering::Relaxed) {
                    hedc_obs::emit(
                        hedc_obs::events::kind::DM_REDIRECT,
                        format!("node {} recovered, back in rotation", node.node_id()),
                    );
                }
            } else if shed < retry.len() {
                // Nothing got through and not because of shedding: a
                // node-level outage, not per-entry faults.
                self.note_down(i, format!("redirected past failed node {}", node.node_id()));
            }
            pending = retry;
        }
        out.into_iter()
            .map(|slot| slot.unwrap_or_else(|| Err(DmError::RemoteUnavailable("no nodes".into()))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultyDmNode;
    use crate::io::DmIo;
    use crate::testkit::catalog_node;

    /// A one-database node behind a fault wrapper that injects nothing
    /// until a test flips it down.
    fn node(label: &str, rows: i64) -> Arc<FaultyDmNode<DmIo>> {
        wrap(catalog_node(label, rows), label)
    }

    fn wrap<N: DmNode>(inner: N, label: &str) -> Arc<FaultyDmNode<N>> {
        Arc::new(FaultyDmNode::steady(Arc::new(inner), label))
    }

    #[test]
    fn round_robin_spreads_calls() {
        let a = node("node-a", 1);
        let b = node("node-b", 1);
        let router = DmRouter::new(vec![a.clone(), b.clone()]);
        for _ in 0..10 {
            router.execute_query(&Query::table("catalog")).unwrap();
        }
        assert_eq!(a.counts().passed, 5);
        assert_eq!(b.counts().passed, 5);
    }

    #[test]
    fn failover_skips_down_nodes() {
        let a = node("node-a", 1);
        let b = node("node-b", 1);
        let router = DmRouter::new(vec![a.clone(), b.clone()]);
        a.set_down(true);
        for _ in 0..6 {
            router.execute_query(&Query::table("catalog")).unwrap();
        }
        assert_eq!(a.counts().passed, 0);
        assert_eq!(b.counts().passed, 6);
        // Recovery.
        a.set_down(false);
        for _ in 0..2 {
            router.execute_query(&Query::table("catalog")).unwrap();
        }
        assert!(a.counts().passed > 0);
    }

    #[test]
    fn recovery_emits_redirect_event() {
        let a = node("node-recov-a", 1);
        let b = node("node-recov-b", 1);
        let router = DmRouter::new(vec![a.clone(), b]);
        a.set_down(true);
        for _ in 0..4 {
            router.execute_query(&Query::table("catalog")).unwrap();
        }
        a.set_down(false);
        for _ in 0..4 {
            router.execute_query(&Query::table("catalog")).unwrap();
        }
        let events = hedc_obs::event_log().events_of_kind(hedc_obs::events::kind::DM_REDIRECT);
        let skips = events
            .iter()
            .filter(|e| e.detail.contains("node-recov-a") && e.detail.contains("skipped"))
            .count();
        let recoveries = events
            .iter()
            .filter(|e| e.detail.contains("node-recov-a") && e.detail.contains("recovered"))
            .count();
        // Down edge logged once (not once per skipped request), up edge once.
        assert_eq!(skips, 1, "{events:?}");
        assert_eq!(recoveries, 1, "{events:?}");
    }

    #[test]
    fn all_nodes_down_errors() {
        let a = node("node-a", 1);
        let router = DmRouter::new(vec![a.clone() as Arc<dyn DmNode>]);
        a.set_down(true);
        assert!(matches!(
            router.execute_query(&Query::table("catalog")),
            Err(DmError::RemoteUnavailable(_))
        ));
    }

    #[test]
    fn warm_router_cache_survives_total_outage() {
        let a = node("node-cache-a", 3);
        let config = hedc_cache::CacheConfig {
            ttl: Some(std::time::Duration::from_secs(3600)),
            ..hedc_cache::CacheConfig::default()
        };
        let router = DmRouter::with_cache(vec![a.clone() as Arc<dyn DmNode>], &config);
        let q = Query::table("catalog");
        let cold = router.execute_query(&q).unwrap();
        assert_eq!(a.counts().passed, 1);
        // Warm: served from cache, the node sees no second call.
        let warm = router.execute_query(&q).unwrap();
        assert_eq!(a.counts().passed, 1, "warm request must not reach the node");
        assert_eq!(cold.rows, warm.rows);
        // Total outage: the warm entry still answers (degraded read-only).
        a.set_down(true);
        let degraded = router.execute_query(&q).unwrap();
        assert_eq!(degraded.rows, cold.rows);
        // An uncached query during the outage still fails.
        assert!(matches!(
            router.execute_query(&Query::table("hle")),
            Err(DmError::RemoteUnavailable(_))
        ));
    }

    #[test]
    fn expired_entries_are_stale_served_only_during_outage() {
        let a = node("node-ttl-a", 2);
        let config = hedc_cache::CacheConfig {
            ttl: Some(std::time::Duration::ZERO), // everything expires at once
            ..hedc_cache::CacheConfig::default()
        };
        let router = DmRouter::with_cache(vec![a.clone() as Arc<dyn DmNode>], &config);
        let q = Query::table("catalog");
        router.execute_query(&q).unwrap();
        router.execute_query(&q).unwrap();
        // TTL zero: both requests hit the node.
        assert_eq!(a.counts().passed, 2);
        // But an outage falls back to the expired entry, with an event.
        a.set_down(true);
        assert!(router.execute_query(&q).is_ok());
        let events = hedc_obs::event_log().events_of_kind(hedc_obs::events::kind::CACHE_DEGRADED);
        assert!(
            events.iter().any(|e| e.detail.contains("stale")),
            "{events:?}"
        );
        assert_eq!(router.cache().unwrap().stats().stale_serves, 1);
    }

    /// A node that answers name resolutions synthetically (no database),
    /// tagging each result with its own label so tests can tell which
    /// node served which item.
    struct ResolvingNode {
        label: String,
    }

    impl DmNode for ResolvingNode {
        fn node_id(&self) -> String {
            self.label.clone()
        }
        fn execute_query(&self, _q: &Query) -> DmResult<QueryResult> {
            Err(DmError::RemoteFailed("queries unsupported".into()))
        }
        fn resolve_names(&self, item_id: i64, want: NameType) -> DmResult<Vec<ResolvedName>> {
            Ok(vec![ResolvedName {
                entry_id: item_id,
                name_type: want,
                archive_id: 1,
                archive_path: format!("p/{item_id}"),
                entry_path: format!("{item_id}"),
                full_name: format!("{}:{}#{item_id}", want.as_str(), self.label),
                url: None,
                size: 0,
                role: "data".into(),
                transforms: Vec::new(),
            }])
        }
    }

    #[test]
    fn batch_fans_out_across_healthy_nodes_and_stitches_in_order() {
        let a = wrap(
            ResolvingNode {
                label: "fan-a".into(),
            },
            "fan-a",
        );
        let b = wrap(
            ResolvingNode {
                label: "fan-b".into(),
            },
            "fan-b",
        );
        let router = DmRouter::new(vec![
            a.clone() as Arc<dyn DmNode>,
            b.clone() as Arc<dyn DmNode>,
        ]);
        let items: Vec<i64> = (100..110).collect();
        let out = router.resolve_batch(&items, NameType::File);
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            let names = r.as_ref().expect("healthy cluster resolves everything");
            assert_eq!(names[0].entry_id, items[i], "stitched back in input order");
        }
        // Every item crossed exactly one node.
        assert_eq!(a.counts().passed + b.counts().passed, items.len() as u64);
        // Both directions of the split actually went out in parallel.
        let served: std::collections::HashSet<String> = out
            .iter()
            .flat_map(|r| r.as_ref().unwrap())
            .map(|n| n.full_name.split('#').next().unwrap().to_string())
            .collect();
        assert_eq!(served.len(), 2, "both nodes served a chunk: {served:?}");
    }

    #[test]
    fn batch_chunk_fails_over_to_the_surviving_node() {
        let a = wrap(
            ResolvingNode {
                label: "surv-a".into(),
            },
            "surv-a",
        );
        let b = wrap(
            ResolvingNode {
                label: "surv-b".into(),
            },
            "surv-b",
        );
        let router = DmRouter::new(vec![
            a.clone() as Arc<dyn DmNode>,
            b.clone() as Arc<dyn DmNode>,
        ]);
        a.set_down(true);
        let items: Vec<i64> = (0..16).collect();
        let out = router.resolve_batch(&items, NameType::Url);
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            let names = r.as_ref().expect("survivor must absorb the batch");
            assert_eq!(names[0].entry_id, items[i]);
            assert!(names[0].full_name.contains("surv-b"));
        }
        assert_eq!(a.counts().passed, 0, "a down node serves nothing");

        // Total outage: one positional error per input, none dropped.
        b.set_down(true);
        let dead = router.resolve_batch(&items, NameType::Url);
        assert_eq!(dead.len(), items.len());
        assert!(dead
            .iter()
            .all(|r| matches!(r, Err(DmError::RemoteUnavailable(_)))));
    }

    #[test]
    fn batch_on_nodes_without_resolution_surfaces_per_entry_errors() {
        // A node that keeps the trait default: resolution unsupported. The
        // error is final (the node is up), so the router must not spin
        // through the rotation — every entry reports it positionally.
        struct QueryOnly;
        impl DmNode for QueryOnly {
            fn node_id(&self) -> String {
                "plain".into()
            }
            fn execute_query(&self, _q: &Query) -> DmResult<QueryResult> {
                Err(DmError::RemoteFailed("queries unsupported".into()))
            }
        }
        let router = DmRouter::new(vec![Arc::new(QueryOnly) as Arc<dyn DmNode>]);
        let out = router.resolve_batch(&[1, 2, 3], NameType::File);
        assert_eq!(out.len(), 3);
        assert!(out
            .iter()
            .all(|r| matches!(r, Err(DmError::RemoteFailed(_)))));
    }

    #[test]
    fn non_availability_errors_pass_through() {
        // A real query error (unknown table) must not trigger failover.
        let a = node("node-a", 1);
        let b = node("node-b", 1);
        let router = DmRouter::new(vec![a, b.clone()]);
        let err = router.execute_query(&Query::table("nope")).unwrap_err();
        assert!(matches!(err, DmError::BadQuery(_)));
        assert_eq!(b.counts().passed, 0, "no failover on query errors");
    }
}
