//! # hedc-store — paged storage engine
//!
//! A single-file storage engine for the HEDC metadata tier: slotted
//! pages ([`page`]), a budgeted page cache ([`pager`]), copy-on-write
//! B-trees ([`btree`]), and a single-writer/multi-reader MVCC layer
//! ([`Store`] / [`Snapshot`] / [`WriteTxn`]).
//!
//! Design goals (DESIGN.md §13):
//!
//! - **Readers never block the writer, and vice versa.** A snapshot is
//!   an `Arc` of the last committed root set; copy-on-write pages make
//!   every page reachable from it immutable.
//! - **Tables larger than RAM.** The page cache holds a configurable
//!   budget of pages; everything else lives in the backing file.
//! - **Durability rides the WAL above.** The page file is scratch: it
//!   is rebuilt by WAL replay at open, so commits here never fsync.
//!
//! ```
//! use hedc_store::{Store, StoreOptions};
//! use std::ops::Bound;
//!
//! let store = Store::open(StoreOptions::default()).unwrap();
//! let mut txn = store.begin();
//! let tree = txn.create_tree();
//! txn.insert(tree, b"hale-bopp", b"comet").unwrap();
//! txn.commit().unwrap();
//!
//! let snap = store.snapshot();
//! assert_eq!(snap.get(tree, b"hale-bopp").unwrap().as_deref(), Some(&b"comet"[..]));
//! let all: Vec<_> = snap.range(tree, Bound::Unbounded, Bound::Unbounded).collect();
//! assert_eq!(all.len(), 1);
//! ```

#![warn(missing_docs)]

mod btree;
pub mod page;
mod pager;
mod store;

pub use pager::{CacheStats, StoreOptions};
pub use store::{Cursor, Snapshot, Store, TreeId, WriteTxn};

/// Errors surfaced by the storage engine.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A key exceeded the per-page-size key budget.
    KeyTooLarge {
        /// Offending key length in bytes.
        len: usize,
        /// Maximum key length for the configured page size.
        max: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::KeyTooLarge { len, max } => {
                write!(f, "key of {len} bytes exceeds page budget of {max}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Bound;

    fn tiny() -> Store {
        Store::open(StoreOptions {
            path: None,
            page_size: 256,
            cache_pages: 16,
        })
        .unwrap()
    }

    #[test]
    fn insert_get_roundtrip_with_splits() {
        let store = tiny();
        let mut txn = store.begin();
        let tree = txn.create_tree();
        for i in 0..500u32 {
            let k = format!("key-{:05}", i * 7919 % 500);
            txn.insert(tree, k.as_bytes(), &i.to_le_bytes()).unwrap();
        }
        txn.commit().unwrap();
        let snap = store.snapshot();
        for i in 0..500u32 {
            let k = format!("key-{:05}", i * 7919 % 500);
            assert!(snap.get(tree, k.as_bytes()).unwrap().is_some(), "{k}");
        }
        let all: Vec<_> = snap
            .range(tree, Bound::Unbounded, Bound::Unbounded)
            .collect();
        assert_eq!(all.len(), 500);
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted, "range scan must be in key order");
    }

    #[test]
    fn delete_shrinks_back_to_empty() {
        let store = tiny();
        let mut txn = store.begin();
        let tree = txn.create_tree();
        for i in 0..300u32 {
            txn.insert(tree, format!("k{i:04}").as_bytes(), b"v")
                .unwrap();
        }
        for i in 0..300u32 {
            assert!(txn.delete(tree, format!("k{i:04}").as_bytes()).unwrap());
        }
        txn.commit().unwrap();
        let snap = store.snapshot();
        assert_eq!(
            snap.range(tree, Bound::Unbounded, Bound::Unbounded).count(),
            0
        );
    }

    #[test]
    fn snapshots_are_point_in_time() {
        let store = tiny();
        let mut txn = store.begin();
        let tree = txn.create_tree();
        txn.insert(tree, b"a", b"1").unwrap();
        txn.commit().unwrap();

        let before = store.snapshot();
        let mut txn = store.begin();
        txn.insert(tree, b"a", b"2").unwrap();
        txn.insert(tree, b"b", b"3").unwrap();
        txn.commit().unwrap();
        let after = store.snapshot();

        assert_eq!(before.get(tree, b"a").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(before.get(tree, b"b").unwrap(), None);
        assert_eq!(after.get(tree, b"a").unwrap().as_deref(), Some(&b"2"[..]));
        assert_eq!(after.get(tree, b"b").unwrap().as_deref(), Some(&b"3"[..]));
        assert_eq!(store.active_snapshots(), 2);
        drop(before);
        drop(after);
        assert_eq!(store.active_snapshots(), 0);
    }

    #[test]
    fn rollback_discards_changes_and_reuses_pages() {
        let store = tiny();
        let mut txn = store.begin();
        let tree = txn.create_tree();
        txn.insert(tree, b"keep", b"1").unwrap();
        txn.commit().unwrap();

        let before = store.allocated_pages();
        let mut txn = store.begin();
        for i in 0..200u32 {
            txn.insert(tree, format!("drop{i}").as_bytes(), b"x")
                .unwrap();
        }
        drop(txn); // rollback

        let snap = store.snapshot();
        assert_eq!(snap.get(tree, b"keep").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(snap.get(tree, b"drop0").unwrap(), None);
        drop(snap);

        // A same-sized retry must reuse the rolled-back pages rather
        // than growing the file.
        let mut txn = store.begin();
        for i in 0..200u32 {
            txn.insert(tree, format!("drop{i}").as_bytes(), b"x")
                .unwrap();
        }
        txn.commit().unwrap();
        assert!(
            store.allocated_pages() <= before + 220,
            "rollback must recycle pages: before={} after={}",
            before,
            store.allocated_pages()
        );
    }

    #[test]
    fn overflow_values_roundtrip() {
        let store = tiny();
        let mut txn = store.begin();
        let tree = txn.create_tree();
        let big: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        txn.insert(tree, b"big", &big).unwrap();
        txn.insert(tree, b"small", b"s").unwrap();
        txn.commit().unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.get(tree, b"big").unwrap().unwrap(), big);
        // Replacing an overflow value frees its chain.
        let mut txn = store.begin();
        txn.insert(tree, b"big", b"tiny now").unwrap();
        txn.commit().unwrap();
        drop(snap);
        let snap = store.snapshot();
        assert_eq!(
            snap.get(tree, b"big").unwrap().as_deref(),
            Some(&b"tiny now"[..])
        );
    }

    #[test]
    fn oversized_key_is_rejected() {
        let store = tiny();
        let mut txn = store.begin();
        let tree = txn.create_tree();
        let huge = vec![b'k'; 4096];
        assert!(matches!(
            txn.insert(tree, &huge, b"v"),
            Err(StoreError::KeyTooLarge { .. })
        ));
    }

    #[test]
    fn freed_pages_wait_for_snapshots() {
        let store = tiny();
        let mut txn = store.begin();
        let tree = txn.create_tree();
        for i in 0..100u32 {
            txn.insert(tree, format!("k{i:03}").as_bytes(), b"v1")
                .unwrap();
        }
        txn.commit().unwrap();

        let pinned = store.snapshot();
        // Churn: repeatedly rewrite; the old pages cannot be reused
        // while `pinned` is alive, so the file grows.
        for round in 0..5 {
            let mut txn = store.begin();
            for i in 0..100u32 {
                txn.insert(
                    tree,
                    format!("k{i:03}").as_bytes(),
                    format!("v{round}").as_bytes(),
                )
                .unwrap();
            }
            txn.commit().unwrap();
        }
        // The pinned snapshot still reads the original values.
        assert_eq!(
            pinned.get(tree, b"k000").unwrap().as_deref(),
            Some(&b"v1"[..])
        );
        drop(pinned);

        // After release, churn stops growing the file.
        let grown = store.allocated_pages();
        for round in 0..5 {
            let mut txn = store.begin();
            for i in 0..100u32 {
                txn.insert(
                    tree,
                    format!("k{i:03}").as_bytes(),
                    format!("w{round}").as_bytes(),
                )
                .unwrap();
            }
            txn.commit().unwrap();
        }
        assert!(
            store.allocated_pages() <= grown + 5,
            "reclamation must recycle pages: {} -> {}",
            grown,
            store.allocated_pages()
        );
    }

    #[test]
    fn open_replaces_an_existing_file_with_a_fresh_inode() {
        let path =
            std::env::temp_dir().join(format!("hedc-store-reopen-{}.pages", std::process::id()));
        std::fs::write(&path, vec![0xEEu8; 4 << 20]).unwrap();
        let old = std::fs::File::open(&path).unwrap();
        let store = Store::open(StoreOptions {
            path: Some(path.clone()),
            ..StoreOptions::default()
        })
        .unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert_eq!(
            old.metadata().unwrap().len(),
            4 << 20,
            "the old inode is unlinked, not truncated in place"
        );
        assert_eq!(store.allocated_pages(), 0);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn range_bounds_are_respected() {
        let store = tiny();
        let mut txn = store.begin();
        let tree = txn.create_tree();
        for i in 0..50u32 {
            txn.insert(tree, format!("k{i:02}").as_bytes(), b"")
                .unwrap();
        }
        txn.commit().unwrap();
        let snap = store.snapshot();
        let keys: Vec<String> = snap
            .range(
                tree,
                Bound::Excluded(&b"k10"[..]),
                Bound::Included(b"k13".to_vec()),
            )
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect();
        assert_eq!(keys, vec!["k11", "k12", "k13"]);
    }
}
