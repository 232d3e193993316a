//! File-backed pager with a budgeted page cache.
//!
//! The store file is a flat array of fixed-size pages addressed by
//! [`PageId`]. Committed pages are immutable (copy-on-write discipline
//! lives in the transaction layer), which lets the cache hand out
//! `Arc<Page>` clones with no per-page content locks: a cached page can
//! never change under a reader.
//!
//! The cache is an LRU bounded in *pages* (`cache_pages`); eviction only
//! drops the cache's own reference, so pages pinned by in-flight readers
//! stay alive until they drop their `Arc`.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::Mutex;

use crate::page::{Page, PageId};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// Options controlling a [`crate::Store`]'s file, page size, and cache
/// budget.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Backing file path. `None` creates a scratch file in the OS temp
    /// directory that is deleted when the store is dropped.
    pub path: Option<PathBuf>,
    /// Page size in bytes; clamped to `[128, 32768]` and rounded to a
    /// multiple of 64.
    pub page_size: usize,
    /// Page-cache budget in pages (minimum 8).
    pub cache_pages: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            path: None,
            page_size: 4096,
            cache_pages: 1024,
        }
    }
}

/// Counters describing page-cache traffic since the store opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from the cache.
    pub hits: u64,
    /// Reads that went to the file.
    pub misses: u64,
    /// Pages dropped to stay within the cache budget.
    pub evictions: u64,
    /// Pages currently resident in the cache.
    pub resident: u64,
}

struct CacheInner {
    map: HashMap<PageId, (Arc<Page>, u64)>,
    lru: BTreeMap<u64, PageId>,
    clock: u64,
    budget: usize,
}

impl CacheInner {
    fn touch(&mut self, id: PageId) -> Option<Arc<Page>> {
        let clock = self.clock;
        self.clock += 1;
        if let Some((page, stamp)) = self.map.get_mut(&id) {
            let old = *stamp;
            *stamp = clock;
            let page = page.clone();
            self.lru.remove(&old);
            self.lru.insert(clock, id);
            Some(page)
        } else {
            None
        }
    }

    /// Insert `page`, returning the number of evictions performed.
    fn insert(&mut self, id: PageId, page: Arc<Page>) -> u64 {
        let clock = self.clock;
        self.clock += 1;
        if let Some((_, old)) = self.map.insert(id, (page, clock)) {
            self.lru.remove(&old);
        }
        self.lru.insert(clock, id);
        let mut evicted = 0;
        while self.map.len() > self.budget {
            let (&stamp, &victim) = self.lru.iter().next().expect("lru tracks map");
            self.lru.remove(&stamp);
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    fn remove(&mut self, id: PageId) {
        if let Some((_, stamp)) = self.map.remove(&id) {
            self.lru.remove(&stamp);
        }
    }
}

/// File + cache layer under the store. One pager per store; shared by
/// the writer and all snapshots.
pub(crate) struct Pager {
    file: File,
    path: PathBuf,
    owns_file: bool,
    page_size: usize,
    cache: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    obs_hit: Arc<hedc_obs::Counter>,
    obs_miss: Arc<hedc_obs::Counter>,
    obs_evict: Arc<hedc_obs::Counter>,
    obs_resident: Arc<hedc_obs::Gauge>,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl Pager {
    pub(crate) fn open(opts: &StoreOptions) -> io::Result<Pager> {
        let page_size = opts.page_size.clamp(128, 32768) / 64 * 64;
        let (path, owns_file) = match &opts.path {
            Some(p) => (p.clone(), false),
            None => {
                let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
                let name = format!("hedc-store-{}-{}.pages", std::process::id(), seq);
                (std::env::temp_dir().join(name), true)
            }
        };
        // A fresh inode, never a truncate in place: ext4 (`auto_da_alloc`)
        // writes the whole old file back before a truncated one is reused.
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        let reg = hedc_obs::global();
        Ok(Pager {
            file,
            path,
            owns_file,
            page_size,
            cache: Mutex::new(CacheInner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                clock: 0,
                budget: opts.cache_pages.max(8),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            obs_hit: reg.counter("store.page_cache.hit"),
            obs_miss: reg.counter("store.page_cache.miss"),
            obs_evict: reg.counter("store.page_cache.evict"),
            obs_resident: reg.gauge("store.page_cache.resident"),
        })
    }

    pub(crate) fn page_size(&self) -> usize {
        self.page_size
    }

    pub(crate) fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Read a committed page, going through the cache.
    pub(crate) fn read(&self, id: PageId) -> io::Result<Arc<Page>> {
        if let Some(page) = self
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .touch(id)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs_hit.inc();
            return Ok(page);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs_miss.inc();
        let mut buf = vec![0u8; self.page_size];
        self.read_exact_at(&mut buf, id as u64 * self.page_size as u64)?;
        let page = Arc::new(Page::from_bytes(buf));
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let evicted = cache.insert(id, page.clone());
        let resident = cache.map.len();
        drop(cache);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.obs_evict.add(evicted);
        }
        self.obs_resident.set(resident as i64);
        Ok(page)
    }

    /// Write a freshly committed page to the file and publish it in the
    /// cache.
    pub(crate) fn write(&self, id: PageId, page: Arc<Page>) -> io::Result<()> {
        self.write_all_at(page.bytes(), id as u64 * self.page_size as u64)?;
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let evicted = cache.insert(id, page);
        let resident = cache.map.len();
        drop(cache);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.obs_evict.add(evicted);
        }
        self.obs_resident.set(resident as i64);
        Ok(())
    }

    /// Drop a reclaimed page from the cache so its slot can be reused
    /// for unrelated content.
    pub(crate) fn forget(&self, id: PageId) {
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(id);
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: self
                .cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .map
                .len() as u64,
        }
    }

    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        self.file.read_exact_at(buf, off)
    }

    #[cfg(unix)]
    fn write_all_at(&self, buf: &[u8], off: u64) -> io::Result<()> {
        self.file.write_all_at(buf, off)
    }
}

impl Drop for Pager {
    fn drop(&mut self) {
        if self.owns_file {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}
