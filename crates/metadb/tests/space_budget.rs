//! Space gate for the paged backend (DESIGN.md §13's budget table).
//!
//! Every paged table of a database shares one store, and the store frees a
//! superseded page only when no snapshot older than the superseding commit
//! is alive. The database therefore keeps exactly one snapshot — the
//! published read view, moved forward by every statement — and no table
//! keeps its own: an idle table must not pin what a busy one supersedes.
//!
//! The gate: twelve tables, eleven written once and left idle, 5 000
//! single-statement inserts/updates/deletes on the twelfth beside a reader.
//! The page file must end within 2 × the pages reachable from the final
//! roots + 64 pages, and must not grow over the last 1 000 statements
//! (beyond what one query in flight may hold back).
//!
//! At the parent of the change that introduced this file (each table and
//! each published entry pinned the snapshot of *that table's* last write)
//! the same run ends at 41 477 pages = 170 MB for 1 504 live rows: 8.3
//! pages = 33 KiB per statement, every one of the 5 000 growing the file,
//! 162 × the 256 pages reachable at the end. Here it ends at ≈ 330 pages,
//! 0.9 KB per row, and the second case's handle is what the first's idle
//! tables used to be.
//!
//! Replayable: `scripts/check.sh --seed N`.

use hedc_metadb::{
    ColumnDef, Connection, DataType, Database, DbOptions, Expr, Query, Schema, StorageBackend,
    StorageConfig, TableSnapshot, Value,
};
use hedc_obs::{Seed, Stream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const SEED: u64 = 0x5BAC_E000;
const PAGE: u64 = 4096;
const TABLES: usize = 12;
const BUSY: &str = "t11";

/// The `store.*` gauges are process-wide: one store at a time.
static ONE_STORE: Mutex<()> = Mutex::new(());

fn gauge(name: &str) -> i64 {
    hedc_obs::global().gauge(name).get()
}

/// Pages reachable from the current roots: everything allocated that is on
/// neither free list.
fn reachable_pages() -> i64 {
    gauge("store.pages.allocated") - gauge("store.pages.free") - gauge("store.pages.pending")
}

fn schema(table: &str) -> Schema {
    Schema::new(
        table,
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("t0", DataType::Timestamp).not_null(),
            ColumnDef::new("label", DataType::Text),
            ColumnDef::new("pad", DataType::Text),
        ],
    )
    .primary_key(&["id"])
}

fn row(rng: &mut Stream, id: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(rng.below(100_000) as i64),
        Value::Text(format!("l{}", rng.below(64))),
        Value::Text("x".repeat(100 + rng.below(100) as usize)),
    ]
}

struct Fixture {
    db: Arc<Database>,
    path: PathBuf,
}

impl Fixture {
    /// Twelve tables with a primary key and two secondary indexes each;
    /// all but the last get their rows now and are never written again.
    fn open(case: &str, rng: &mut Stream) -> Fixture {
        let path = std::env::temp_dir().join(format!(
            "hedc-metadb-space-{case}-{}.pages",
            std::process::id()
        ));
        let db = Database::open(
            "space",
            DbOptions {
                storage: StorageConfig {
                    backend: StorageBackend::Paged,
                    page_size: PAGE as usize,
                    cache_pages: 1024,
                    store_path: Some(path.clone()),
                },
                ..DbOptions::default()
            },
        )
        .unwrap();
        let mut conn = db.connect();
        for t in 0..TABLES {
            let table = format!("t{t}");
            conn.create_table(schema(&table)).unwrap();
            conn.create_index(&table, &format!("{table}_t0"), &["t0"], false)
                .unwrap();
            conn.create_index(&table, &format!("{table}_label"), &["label"], false)
                .unwrap();
            if table != BUSY {
                for id in 0..20 {
                    conn.insert(&table, row(rng, id)).unwrap();
                }
            }
        }
        Fixture { db, path }
    }

    fn file_pages(&self) -> u64 {
        std::fs::metadata(&self.path).unwrap().len() / PAGE
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One drawn single-statement insert, update or delete on the busy table,
/// steering its row count towards ≈ 1 500.
fn churn(conn: &mut Connection, rng: &mut Stream, live: &mut Vec<i64>, next_id: &mut i64) {
    let (insert, delete) = if live.len() < 1500 {
        (60, 10)
    } else {
        (25, 35)
    };
    let draw = rng.below(100);
    if draw < insert || live.is_empty() {
        conn.insert(BUSY, row(rng, *next_id)).unwrap();
        live.push(*next_id);
        *next_id += 1;
        return;
    }
    let at = rng.below(live.len() as u64) as usize;
    let hit = Some(Expr::eq("id", live[at]));
    let n = if draw < insert + delete {
        live.swap_remove(at);
        conn.delete_where(BUSY, hit).unwrap()
    } else {
        let t0 = Expr::Literal(Value::Int(rng.below(100_000) as i64));
        conn.update_where(BUSY, &[("t0".to_string(), t0)], hit)
            .unwrap()
    };
    assert_eq!(n, 1);
}

#[test]
fn an_idle_table_pins_nothing() {
    let _one = ONE_STORE.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Seed::from_env(SEED).stream("space-budget");
    let fx = Fixture::open("idle", &mut rng);
    let (mut live, mut next_id) = (Vec::new(), 0i64);
    let stop = AtomicBool::new(false);
    let mut at_4000 = 0;
    std::thread::scope(|scope| {
        // Each query holds the view's snapshot only while it runs.
        let reader = scope.spawn(|| {
            let conn = fx.db.connect();
            let mut queries = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let lo = (queries * 7919 % 100_000) as i64;
                let q = Query::table(BUSY).filter(Expr::between("t0", lo, lo + 500));
                conn.query(&q).unwrap();
                queries += 1;
            }
            queries
        });
        let mut conn = fx.db.connect();
        for statement in 0..5000 {
            if statement == 4000 {
                at_4000 = gauge("store.pages.allocated");
            }
            churn(&mut conn, &mut rng, &mut live, &mut next_id);
            // A query in flight pins what the commits beside it supersede,
            // and a reader the scheduler stalls is a kept handle — the
            // other case. Here none falls more than 8 commits behind.
            while gauge("store.snapshot.oldest_lag") > 8 {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        assert!(
            reader.join().unwrap() > 0,
            "the reader ran beside the writer"
        );
    });
    let (file, reachable) = (fx.file_pages() as i64, reachable_pages());
    let allocated = gauge("store.pages.allocated");
    assert_eq!(fx.db.row_count(BUSY).unwrap(), live.len());
    let rows = live.len() as i64;

    // What one single-row commit rewrites: hold a handle over 200 more
    // statements and count the pages they could not hand back.
    let mut conn = fx.db.connect();
    let pinned = fx.db.snapshot(BUSY).unwrap();
    for _ in 0..200 {
        churn(&mut conn, &mut rng, &mut live, &mut next_id);
    }
    let per_commit = gauge("store.pages.pending") as f64 / 200.0;
    drop(pinned);
    println!(
        "page file: {} B/row, {per_commit:.1} pages per commit; budget 2 x {reachable} \
         reachable + 64 = {} pages, file {file} pages ({rows} rows)",
        file * PAGE as i64 / rows,
        2 * reachable + 64,
    );
    assert!(
        file <= 2 * reachable + 64,
        "page file is {file} pages for {reachable} reachable ones"
    );
    // The high-water mark may still meet its first 8-commit query (≈ 70
    // pages); a file that grows adds 8 300 pages in 1 000 statements.
    assert!(
        allocated - at_4000 <= 100,
        "the file still grows: {at_4000} pages after 4 000 statements, {allocated} after 5 000"
    );
    assert_eq!(gauge("store.pages.pending"), 0, "nothing is left pinned");
    assert!(gauge("store.snapshot.oldest_lag") <= 1);
}

/// The other half of the rule: a handle an embedder keeps does pin — it
/// reads its own state for as long as it lives — and costs nothing once it
/// is dropped.
#[test]
fn a_kept_handle_pins_until_dropped() {
    let _one = ONE_STORE.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Seed::from_env(SEED).stream("space-budget-pinned");
    let fx = Fixture::open("pinned", &mut rng);
    let mut conn = fx.db.connect();
    let (mut live, mut next_id) = (Vec::new(), 0i64);
    for _ in 0..300 {
        churn(&mut conn, &mut rng, &mut live, &mut next_id);
    }
    let pinned = fx.db.snapshot(BUSY).expect("paged table publishes");
    let rows_of = |handle: &TableSnapshot, ids: &[u64]| -> Vec<Vec<Value>> {
        ids.iter().map(|&id| handle.get(id).unwrap()).collect()
    };
    let ids = pinned.scan_ids();
    let original = rows_of(&pinned, &ids);
    assert_eq!(ids.len(), pinned.len());

    let before = gauge("store.pages.allocated");
    for _ in 0..500 {
        churn(&mut conn, &mut rng, &mut live, &mut next_id);
    }
    assert!(gauge("store.snapshot.oldest_lag") >= 500);
    assert!(
        gauge("store.pages.pending") > 0,
        "the handle holds pages back"
    );
    assert!(gauge("store.pages.allocated") > before);
    assert_eq!(pinned.scan_ids(), ids);
    assert_eq!(
        rows_of(&pinned, &ids),
        original,
        "the handle reads its own state"
    );

    drop(pinned);
    assert_eq!(gauge("store.pages.pending"), 0);
    assert!(gauge("store.pages.free") > 0, "its pages came back");
    let released = gauge("store.pages.allocated");
    for _ in 0..200 {
        churn(&mut conn, &mut rng, &mut live, &mut next_id);
    }
    assert_eq!(
        gauge("store.pages.allocated"),
        released,
        "commits after the drop run on the freed pages"
    );
    assert!(gauge("store.pages.free") > 0);
}
