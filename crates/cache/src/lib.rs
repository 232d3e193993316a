#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `hedc-cache`: a sharded, size-bounded, lock-striped LRU result cache
//! for the HEDC middle tier.
//!
//! The paper's DM re-derives every browse page from metadata queries
//! (§7.2: seven queries per HLE page) and pays two extra indexed queries
//! per dynamic name mapping (§4.3). Both workloads are read-dominated, so
//! a result cache in front of the metadata DBMS converts repeat browsing
//! into hash lookups — the lever the SDSS and astroparticle-warehouse
//! migrations credit for interactive latency.
//!
//! # Invalidation model
//!
//! Correctness is anchored on **generation counters**, one per table
//! ([`GenerationMap`]). Every cached entry records, at fill time, the
//! generation of each table it depends on; every mutating statement bumps
//! the written table's counter. A [`ShardedCache::get`] revalidates the
//! recorded generations against the live counters and treats any mismatch
//! as a miss (the entry stays behind, reachable only through
//! [`ShardedCache::get_stale`]) — write-through invalidation at O(1)
//! per write, no key scans. Fill-time dependency snapshots must be taken
//! **before** the underlying read executes, so a write racing with the
//! read leaves the entry born-stale rather than wrongly fresh; every
//! query-result tier reads through [`QueryCache::read_through`], which is
//! where that order is kept.
//!
//! Tiers that cannot observe writes (a network client caching remote
//! results) additionally bound staleness with a TTL
//! ([`CacheConfig::ttl`]). The same read-through serves a stale entry
//! when the backing read fails with an [`Outage`] — the degraded
//! read-only mode of the DM router — and never otherwise.
//!
//! # Metrics
//!
//! `cache.hit` / `cache.miss` / `cache.evict` counters and the
//! `cache.bytes` gauge are exported through the `hedc-obs` registry; each
//! cache instance also keeps private counters ([`ShardedCache::stats`])
//! so tests are not confounded by the process-global registry.

mod lru;

use hedc_metadb::{Projection, Query, QueryResult};
use lru::LruCore;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Separator between the access-scope tag and the query fingerprint in a
/// cache key. Control byte: cannot occur in either part.
pub const SCOPE_SEP: char = '\u{1}';

/// Cache sizing and freshness policy.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total byte budget across all shards.
    pub capacity_bytes: usize,
    /// Lock stripes. More stripes, less contention; budget is split
    /// evenly between them.
    pub shards: usize,
    /// Optional staleness bound. `None` means generation validation is
    /// the only freshness check — correct when every writer shares the
    /// [`GenerationMap`]; tiers that cannot see writes (network clients)
    /// should set a TTL.
    pub ttl: Option<Duration>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 32 << 20,
            shards: 8,
            ttl: None,
        }
    }
}

/// Per-table generation counters: the write-through invalidation spine.
#[derive(Default)]
pub struct GenerationMap {
    inner: Mutex<HashMap<String, Arc<AtomicU64>>>,
}

/// Dependency snapshot: (counter handle, value at snapshot time). Take it
/// **before** executing the read that will be cached.
pub type DepSnapshot = Vec<(Arc<AtomicU64>, u64)>;

impl GenerationMap {
    /// An empty map; counters materialize on first touch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live counter for `table` (case-insensitive), created at 0.
    pub fn handle(&self, table: &str) -> Arc<AtomicU64> {
        let mut inner = self.inner.lock().expect("generation map poisoned");
        Arc::clone(
            inner
                .entry(table.to_ascii_lowercase())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Record a write to `table`: every cached entry depending on it goes
    /// stale at once.
    pub fn bump(&self, table: &str) {
        self.handle(table).fetch_add(1, Ordering::SeqCst);
    }

    /// Current generation of `table`.
    pub fn current(&self, table: &str) -> u64 {
        self.handle(table).load(Ordering::SeqCst)
    }

    /// Snapshot the generations of `tables` for a fill that follows.
    pub fn snapshot(&self, tables: &[&str]) -> DepSnapshot {
        tables
            .iter()
            .map(|t| {
                let h = self.handle(t);
                let v = h.load(Ordering::SeqCst);
                (h, v)
            })
            .collect()
    }

    /// Key under which shard `shard`'s copy of `table` is tracked. Shard
    /// scoping lets a sharded router invalidate exactly the shards a
    /// rebalance moved, instead of every cached result for the table.
    fn shard_key(shard: u32, table: &str) -> String {
        format!("shard{shard}\u{1}{}", table.to_ascii_lowercase())
    }

    /// The live counter for shard `shard`'s copy of `table`.
    pub fn handle_shard(&self, shard: u32, table: &str) -> Arc<AtomicU64> {
        self.handle(&Self::shard_key(shard, table))
    }

    /// Record a write to `table` on one shard: only cached results
    /// assembled from that shard go stale.
    pub fn bump_shard(&self, shard: u32, table: &str) {
        self.handle_shard(shard, table)
            .fetch_add(1, Ordering::SeqCst);
    }

    /// Current generation of shard `shard`'s copy of `table`.
    pub fn current_shard(&self, shard: u32, table: &str) -> u64 {
        self.handle_shard(shard, table).load(Ordering::SeqCst)
    }

    /// Snapshot the shard-scoped generations of `table` across `shards` —
    /// the dependency set of a scatter-gather result about to be cached.
    pub fn snapshot_shards(&self, shards: &[u32], table: &str) -> DepSnapshot {
        shards
            .iter()
            .map(|&s| {
                let h = self.handle_shard(s, table);
                let v = h.load(Ordering::SeqCst);
                (h, v)
            })
            .collect()
    }
}

/// Something storable in the cache: cheap to clone out, and able to state
/// its own byte footprint for the budget accounting.
pub trait CacheValue: Clone + Send + 'static {
    /// Allocated size of this value in bytes.
    fn weight_bytes(&self) -> usize;
}

impl CacheValue for QueryResult {
    fn weight_bytes(&self) -> usize {
        self.size_bytes()
    }
}

/// Counter snapshot for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fresh lookups served from the cache.
    pub hits: u64,
    /// Lookups that went to the backing store (including invalidations).
    pub misses: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Lookups rejected because a dependency generation moved or the TTL
    /// lapsed (the entry stays behind for degraded-mode stale serves).
    pub invalidations: u64,
    /// Stale entries served in degraded mode.
    pub stale_serves: u64,
}

struct Entry<V> {
    value: V,
    deps: DepSnapshot,
    filled: Instant,
}

impl<V> Entry<V> {
    fn is_fresh(&self, ttl: Option<Duration>) -> bool {
        if let Some(ttl) = ttl {
            if self.filled.elapsed() > ttl {
                return false;
            }
        }
        self.deps
            .iter()
            .all(|(h, v)| h.load(Ordering::SeqCst) == *v)
    }
}

/// The sharded, lock-striped LRU cache.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<LruCore<Entry<V>>>>,
    ttl: Option<Duration>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    stale_serves: AtomicU64,
    bytes: AtomicI64,
    /// The process-wide `cache.*` metrics (summed across every cache
    /// instance), resolved here so a hit never takes the registry lock.
    global_hit: Arc<hedc_obs::Counter>,
    global_miss: Arc<hedc_obs::Counter>,
    global_evict: Arc<hedc_obs::Counter>,
    global_bytes: Arc<hedc_obs::Gauge>,
}

impl<V: CacheValue> ShardedCache<V> {
    /// Build a cache per `config` (the TTL applies uniformly).
    pub fn new(config: &CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard = (config.capacity_bytes / shards).max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCore::new(per_shard)))
                .collect(),
            ttl: config.ttl,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            stale_serves: AtomicU64::new(0),
            bytes: AtomicI64::new(0),
            global_hit: hedc_obs::global().counter("cache.hit"),
            global_miss: hedc_obs::global().counter("cache.miss"),
            global_evict: hedc_obs::global().counter("cache.evict"),
            global_bytes: hedc_obs::global().gauge("cache.bytes"),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<LruCore<Entry<V>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Fresh lookup: validates the dependency generations (and TTL, if
    /// configured); a stale entry is counted as a miss but **left in
    /// place** — it is the reserve [`Self::get_stale`] serves from when
    /// the backend is unreachable. The next [`Self::put`] overwrites it,
    /// and capacity pressure evicts it like any other entry, so staleness
    /// never outlives the byte budget.
    pub fn get(&self, key: &str) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let fresh = match shard.peek(key) {
            Some(entry) => entry.is_fresh(self.ttl),
            None => {
                drop(shard);
                self.miss();
                return None;
            }
        };
        if !fresh {
            drop(shard);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            self.miss();
            return None;
        }
        let value = shard.get(key).expect("peeked entry").value.clone();
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.global_hit.inc();
        Some(value)
    }

    /// Degraded-mode lookup: returns whatever is stored under `key`,
    /// ignoring generations and TTL. For read-only operation while the
    /// backend is unreachable; callers must label the result stale.
    pub fn get_stale(&self, key: &str) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let value = shard.get(key).map(|e| e.value.clone());
        drop(shard);
        if value.is_some() {
            self.stale_serves.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Store `value` under `key` with its dependency snapshot (taken
    /// before the backing read ran).
    pub fn put(&self, key: &str, value: V, deps: DepSnapshot) {
        let weight = key.len() + value.weight_bytes();
        let entry = Entry {
            value,
            deps,
            filled: Instant::now(),
        };
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let replaced = shard.remove(key);
        let evicted = shard.insert(key, entry, weight);
        let stored = shard.peek(key).is_some();
        drop(shard);
        let mut delta: i64 = 0;
        if let Some((_, old)) = replaced {
            delta -= old as i64;
        }
        if stored {
            delta += weight as i64;
        }
        for (_, w) in &evicted {
            delta -= *w as i64;
        }
        self.adjust_bytes(delta);
        if !evicted.is_empty() {
            self.evictions
                .fetch_add(evicted.len() as u64, Ordering::Relaxed);
            self.global_evict.add(evicted.len() as u64);
        }
    }

    /// Drop every entry (all shards).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("cache shard poisoned").clear();
        }
        let resident = self.bytes.swap(0, Ordering::Relaxed);
        self.global_bytes.add(-resident);
    }

    /// Live entry count across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed).max(0) as usize
    }

    /// This instance's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
        }
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.global_miss.inc();
    }

    /// Apply a signed byte delta to this instance and mirror it into the
    /// process-wide `cache.bytes` gauge (which therefore sums across
    /// every live cache instance).
    fn adjust_bytes(&self, delta: i64) {
        if delta != 0 {
            self.bytes.fetch_add(delta, Ordering::Relaxed);
            self.global_bytes.add(delta);
        }
    }
}

/// What the read-through must know about a failed backing read: whether
/// the backend answered at all.
pub trait Outage: std::fmt::Display {
    /// True when the backend was unreachable or shed the request — the
    /// only failures a stale entry may paper over. An error the backend
    /// *answered* with (a rejected query, a lost shard) is final.
    fn is_outage(&self) -> bool;
}

/// A lookup that missed: the key (computed once) and the dependency
/// snapshot taken before the backing read. Settled by
/// [`QueryCache::finish`].
pub struct Miss {
    key: String,
    deps: DepSnapshot,
}

/// A [`ShardedCache`] specialized to query results, keyed by canonical
/// query fingerprint plus access-scope tag, with table-generation
/// dependencies.
pub struct QueryCache {
    cache: ShardedCache<QueryResult>,
    gens: Arc<GenerationMap>,
}

impl QueryCache {
    /// Build over a shared generation map (the DM's writers bump it).
    pub fn new(config: &CacheConfig, gens: Arc<GenerationMap>) -> Self {
        QueryCache {
            cache: ShardedCache::new(config),
            gens,
        }
    }

    /// The cache key for `q` under `scope`: scope tag, control-byte
    /// separator, canonical fingerprint. Scope isolation is structural —
    /// two scopes can never collide on a key.
    pub fn key(scope: &str, q: &Query) -> String {
        format!("{scope}{SCOPE_SEP}{}", q.fingerprint())
    }

    /// Fresh lookup; a hit is re-projected into the column order `q`
    /// asked for (fingerprints canonicalize projection order).
    pub fn get(&self, scope: &str, q: &Query) -> Option<QueryResult> {
        let cached = self.cache.get(&Self::key(scope, q))?;
        reproject(cached, q)
    }

    /// Degraded-mode lookup (see [`ShardedCache::get_stale`]).
    pub fn get_stale(&self, scope: &str, q: &Query) -> Option<QueryResult> {
        let cached = self.cache.get_stale(&Self::key(scope, q))?;
        reproject(cached, q)
    }

    /// Snapshot the dependency generations for `q` — call **before**
    /// executing it.
    pub fn snapshot(&self, q: &Query) -> DepSnapshot {
        self.gens.snapshot(&[&q.table])
    }

    /// Store a result under `q`'s key with its pre-read snapshot.
    pub fn fill(&self, scope: &str, q: &Query, result: &QueryResult, deps: DepSnapshot) {
        self.cache.put(&Self::key(scope, q), result.clone(), deps);
    }

    /// The cache-aside read, first half: a fresh entry, or the [`Miss`] to
    /// settle once the backing read has run. `deps` runs only on a miss and
    /// **before** this returns — hence before the backing read — so a write
    /// racing that read leaves the entry born-stale rather than wrongly
    /// fresh, and a TTL covers the whole read.
    pub fn begin(
        &self,
        scope: &str,
        q: &Query,
        deps: impl FnOnce() -> DepSnapshot,
    ) -> Result<QueryResult, Miss> {
        let key = Self::key(scope, q);
        match self.cache.get(&key).and_then(|hit| reproject(hit, q)) {
            Some(hit) => Ok(hit),
            None => Err(Miss { key, deps: deps() }),
        }
    }

    /// The cache-aside read, second half: fill on success; when the backend
    /// was unreachable or shedding ([`Outage::is_outage`]) serve whatever
    /// entry is left — expired or invalidated — with a `cache_degraded`
    /// event, because a stale answer beats no answer; pass every other
    /// error through. Batched callers run [`Self::begin`] per query, one
    /// backing read for all the misses, then this per miss.
    pub fn finish<E: Outage>(
        &self,
        miss: Miss,
        q: &Query,
        fetched: Result<QueryResult, E>,
    ) -> Result<QueryResult, E> {
        match fetched {
            Ok(r) => {
                self.cache.put(&miss.key, r.clone(), miss.deps);
                Ok(r)
            }
            Err(e) if e.is_outage() => {
                let stale = self.cache.get_stale(&miss.key);
                match stale.and_then(|s| reproject(s, q)) {
                    Some(stale) => {
                        hedc_obs::emit(
                            hedc_obs::events::kind::CACHE_DEGRADED,
                            format!("serving stale `{}` result: {e}", q.table),
                        );
                        Ok(stale)
                    }
                    None => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// The whole cache-aside read around one backing read `fetch`:
    /// [`Self::begin`], then `fetch` and [`Self::finish`] on a miss. Every
    /// tier's cache is optional, so this takes the option: without a cache
    /// it is `fetch` alone. The entry depends on `q`'s table
    /// ([`Self::snapshot`]).
    pub fn read_through<E: Outage>(
        cache: Option<&QueryCache>,
        scope: &str,
        q: &Query,
        fetch: impl FnOnce() -> Result<QueryResult, E>,
    ) -> Result<QueryResult, E> {
        Self::read_through_deps(cache, scope, q, |c| c.snapshot(q), fetch)
    }

    /// [`Self::read_through`] for a caller that tracks finer dependencies
    /// than the table (the sharded router's per-shard counters): `deps`
    /// supplies the snapshot.
    pub fn read_through_deps<E: Outage>(
        cache: Option<&QueryCache>,
        scope: &str,
        q: &Query,
        deps: impl FnOnce(&QueryCache) -> DepSnapshot,
        fetch: impl FnOnce() -> Result<QueryResult, E>,
    ) -> Result<QueryResult, E> {
        let Some(cache) = cache else {
            return fetch();
        };
        match cache.begin(scope, q, || deps(cache)) {
            Ok(hit) => Ok(hit),
            Err(miss) => cache.finish(miss, q, fetch()),
        }
    }

    /// Record a write to `table`.
    pub fn bump(&self, table: &str) {
        self.gens.bump(table);
    }

    /// The shared generation map.
    pub fn generations(&self) -> &Arc<GenerationMap> {
        &self.gens
    }

    /// Instance counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Drop everything (generation counters keep their values).
    pub fn clear(&self) {
        self.cache.clear();
    }
}

/// Reorder a cached result's columns into the order `q` requested.
/// Fingerprints sort the projection of non-aggregate queries, so one
/// cached row set serves every permutation; the cached copy carries
/// whichever order filled first. Returns `None` (a miss) if the mapping
/// is impossible — callers then fall through to the real executor.
fn reproject(cached: QueryResult, q: &Query) -> Option<QueryResult> {
    let wanted = match &q.projection {
        Projection::Columns(cols) if q.aggregates.is_empty() => cols,
        _ => return Some(cached),
    };
    if cached.columns.len() == wanted.len()
        && cached
            .columns
            .iter()
            .zip(wanted.iter())
            .all(|(have, want)| have.eq_ignore_ascii_case(want))
    {
        return Some(cached);
    }
    let mapping: Option<Vec<usize>> = wanted
        .iter()
        .map(|w| {
            cached
                .columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(w))
        })
        .collect();
    let mapping = mapping?;
    Some(QueryResult {
        columns: mapping.iter().map(|&i| cached.columns[i].clone()).collect(),
        rows: cached
            .rows
            .iter()
            .map(|r| mapping.iter().map(|&i| r[i].clone()).collect())
            .collect(),
        stats: cached.stats.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedc_metadb::{AccessPath, ExecStats, Expr, Value};

    fn result(rows: Vec<Vec<Value>>, columns: &[&str]) -> QueryResult {
        QueryResult {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
            stats: ExecStats {
                rows_scanned: 0,
                rows_returned: 0,
                rows_sorted: 0,
                access: AccessPath::FullScan,
            },
        }
    }

    #[test]
    fn hit_after_fill_and_invalidation_after_bump() {
        let gens = Arc::new(GenerationMap::new());
        let cache = QueryCache::new(&CacheConfig::default(), Arc::clone(&gens));
        let q = Query::table("hle").filter(Expr::eq("public", true));
        assert!(cache.get("u1", &q).is_none());
        let deps = cache.snapshot(&q);
        cache.fill("u1", &q, &result(vec![vec![Value::Int(1)]], &["id"]), deps);
        assert!(cache.get("u1", &q).is_some());
        cache.bump("HLE"); // case-insensitive table keying
        assert!(cache.get("u1", &q).is_none(), "bump must invalidate");
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.invalidations, 1);
        // Invalidation hides the entry from fresh reads without dropping
        // it: degraded mode can still reach it if the backend dies.
        assert!(cache.get_stale("u1", &q).is_some());
    }

    #[test]
    fn scopes_are_isolated() {
        let cache = QueryCache::new(&CacheConfig::default(), Arc::new(GenerationMap::new()));
        let q = Query::table("hle");
        let deps = cache.snapshot(&q);
        cache.fill("u1", &q, &result(vec![vec![Value::Int(1)]], &["id"]), deps);
        assert!(cache.get("u1", &q).is_some());
        assert!(cache.get("u2", &q).is_none());
        assert!(cache.get("admin", &q).is_none());
    }

    #[test]
    fn born_stale_when_write_races_the_read() {
        let gens = Arc::new(GenerationMap::new());
        let cache = QueryCache::new(&CacheConfig::default(), Arc::clone(&gens));
        let q = Query::table("ana");
        let deps = cache.snapshot(&q); // snapshot BEFORE the "read"
        gens.bump("ana"); // concurrent write lands mid-read
        cache.fill("-", &q, &result(vec![], &[]), deps);
        assert!(
            cache.get("-", &q).is_none(),
            "entry filled against a pre-write snapshot must be stale"
        );
    }

    #[test]
    fn permuted_projection_hits_and_reprojects() {
        let cache = QueryCache::new(&CacheConfig::default(), Arc::new(GenerationMap::new()));
        let a = Query::table("ana").select(&["kind", "id"]);
        let b = Query::table("ana").select(&["id", "kind"]);
        assert_eq!(QueryCache::key("-", &a), QueryCache::key("-", &b));
        let deps = cache.snapshot(&a);
        cache.fill(
            "-",
            &a,
            &result(
                vec![vec![Value::Text("image".into()), Value::Int(7)]],
                &["kind", "id"],
            ),
            deps,
        );
        let hit = cache.get("-", &b).expect("permuted projection must hit");
        assert_eq!(hit.columns, vec!["id".to_string(), "kind".to_string()]);
        assert_eq!(
            hit.rows[0],
            vec![Value::Int(7), Value::Text("image".into())]
        );
        // The original order comes back verbatim.
        let same = cache.get("-", &a).unwrap();
        assert_eq!(same.columns, vec!["kind".to_string(), "id".to_string()]);
    }

    #[test]
    fn ttl_expires_entries() {
        let config = CacheConfig {
            ttl: Some(Duration::from_millis(0)),
            ..CacheConfig::default()
        };
        let cache = QueryCache::new(&config, Arc::new(GenerationMap::new()));
        let q = Query::table("catalog");
        let deps = cache.snapshot(&q);
        let r = result(vec![vec![Value::Int(1)]], &["id"]);
        cache.fill("net", &q, &r, deps);
        std::thread::sleep(Duration::from_millis(2));
        assert!(cache.get("net", &q).is_none(), "TTL 0 entry must expire");
        // The expired entry must survive the failed `get`: it is exactly
        // what degraded mode serves during an outage.
        assert!(cache.get_stale("net", &q).is_some());
        assert_eq!(cache.stats().stale_serves, 1);
    }

    #[test]
    fn shard_scoped_generations_invalidate_independently() {
        let gens = Arc::new(GenerationMap::new());
        let cache = QueryCache::new(&CacheConfig::default(), Arc::clone(&gens));
        let q = Query::table("hle");
        let r = result(vec![vec![Value::Int(1)]], &["id"]);

        // A merged result depends on shards 0 and 2 only.
        let deps = gens.snapshot_shards(&[0, 2], "hle");
        cache.fill("shard", &q, &r, deps);
        assert!(cache.get("shard", &q).is_some());

        // A write on an uninvolved shard leaves the entry fresh...
        gens.bump_shard(1, "hle");
        assert!(cache.get("shard", &q).is_some());
        // ...the table-level counter is a different namespace entirely...
        gens.bump("hle");
        assert!(cache.get("shard", &q).is_some());
        // ...but a write on a depended-on shard invalidates.
        gens.bump_shard(2, "hle");
        assert!(cache.get("shard", &q).is_none());
        assert_eq!(gens.current_shard(2, "hle"), 1);
        assert_eq!(gens.current_shard(0, "HLE"), 0, "shard keys fold case");
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let config = CacheConfig {
            capacity_bytes: 4096,
            shards: 1,
            ttl: None,
        };
        let cache = ShardedCache::<QueryResult>::new(&config);
        let big = result(vec![vec![Value::Text("x".repeat(1000))]; 1], &["payload"]);
        for i in 0..8 {
            cache.put(&format!("k{i}"), big.clone(), Vec::new());
        }
        assert!(cache.stats().evictions > 0, "budget must evict");
        assert!(cache.bytes() <= 4096, "bytes {} over budget", cache.bytes());
        // The most recent key survived; the oldest did not.
        assert!(cache.get("k7").is_some());
        assert!(cache.get("k0").is_none());
    }
}
