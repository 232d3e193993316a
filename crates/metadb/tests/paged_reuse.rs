//! Seeded MVCC test under real page reuse.
//!
//! Since the database keeps one published read view instead of a pinned
//! snapshot per table, the store hands superseded pages back and the next
//! commits write new content under old page ids. A reader must never see
//! that: every page its handle can reach stays untouched until the handle
//! is gone. Tiny pages (512 bytes: three-level trees within a few hundred
//! rows) and a 16-page cache (every recycled id is re-read from the file)
//! make each statement recycle a dozen ids while two readers walk fresh
//! handles of the table being written.
//!
//! A handle kept over a whole epoch of statements must read the same bytes
//! at its end as at its start. It is taken per epoch, not per run: a handle
//! kept for the run would pin everything after it and end the reuse this
//! test is about.
//!
//! Replayable: `scripts/check.sh --seed N` (the statement stream is the
//! seed's; the interleaving with the readers is the scheduler's).

use hedc_metadb::{
    AccessPath, ColumnDef, Connection, DataType, Database, DbOptions, Expr, Query, RowId, Schema,
    StorageBackend, StorageConfig, TableSnapshot, Value,
};
use hedc_obs::{Seed, Stream};
use std::sync::atomic::{AtomicBool, Ordering};

const SEED: u64 = 0x9A6E_D0DE;
const TABLES: [&str; 3] = ["r0", "r1", "r2"];
const EPOCHS: usize = 6;
const STATEMENTS_PER_EPOCH: usize = 500;

fn schema(table: &str) -> Schema {
    Schema::new(
        table,
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("t0", DataType::Timestamp).not_null(),
            ColumnDef::new("label", DataType::Text).not_null(),
            ColumnDef::new("pad", DataType::Text),
        ],
    )
    .primary_key(&["id"])
}

fn label(rng: &mut Stream) -> String {
    format!("l{}", rng.below(16))
}

/// One drawn insert, update or delete on a drawn table; `live` holds each
/// table's primary keys.
fn statement(conn: &mut Connection, rng: &mut Stream, live: &mut [Vec<i64>; 3], next_id: &mut i64) {
    let t = rng.below(3) as usize;
    let (table, keys) = (TABLES[t], &mut live[t]);
    let draw = rng.below(100);
    if draw < 40 || keys.is_empty() {
        let pad = "p".repeat(rng.below(120) as usize);
        let row = vec![
            Value::Int(*next_id),
            Value::Int(rng.below(10_000) as i64),
            Value::Text(label(rng)),
            Value::Text(pad),
        ];
        conn.insert(table, row).unwrap();
        keys.push(*next_id);
        *next_id += 1;
        return;
    }
    let at = rng.below(keys.len() as u64) as usize;
    let hit = Some(Expr::eq("id", keys[at]));
    let n = if draw < 70 {
        let sets = [
            (
                "t0".to_string(),
                Expr::Literal(Value::Int(rng.below(10_000) as i64)),
            ),
            ("label".to_string(), Expr::Literal(Value::Text(label(rng)))),
        ];
        conn.update_where(table, &sets, hit).unwrap()
    } else {
        keys.swap_remove(at);
        conn.delete_where(table, hit).unwrap()
    };
    assert_eq!(n, 1);
}

/// Everything a handle can read, through the row tree.
fn contents(handle: &TableSnapshot) -> Vec<(RowId, Vec<Value>)> {
    let ids = handle.scan_ids();
    assert_eq!(ids.len(), handle.len(), "the row tree and the row count");
    ids.into_iter()
        .map(|id| (id, handle.get(id).expect("a scanned id resolves to a row")))
        .collect()
}

/// An indexed query through `handle` returns exactly the scanned rows its
/// filter keeps.
fn check_index(handle: &TableSnapshot, rows: &[(RowId, Vec<Value>)], filter: Expr) {
    let q = Query::table("any").filter(filter);
    let result = handle.query(&q).unwrap();
    assert!(
        matches!(result.stats.access, AccessPath::Index { .. }),
        "{q:?} went {:?}",
        result.stats.access
    );
    let bound = q.filter.as_ref().unwrap().bind(handle.schema()).unwrap();
    let mut expected: Vec<&Vec<Value>> = rows
        .iter()
        .map(|(_, row)| row)
        .filter(|row| bound.eval_bool(row).unwrap())
        .collect();
    let mut got: Vec<&Vec<Value>> = result.rows.iter().collect();
    let by_id = |row: &&Vec<Value>| match row[0] {
        Value::Int(id) => id,
        ref other => panic!("id column holds {other:?}"),
    };
    expected.sort_by_key(by_id);
    got.sort_by_key(by_id);
    assert_eq!(got, expected, "index and row tree disagree for {q:?}");
}

fn reader(db: &Database, mut rng: Stream, stop: &AtomicBool) -> u64 {
    let mut handles = 0;
    while !stop.load(Ordering::Relaxed) {
        let table = *rng.pick(&TABLES);
        let handle = db.snapshot(table).expect("paged table publishes");
        let rows = contents(&handle);
        let lo = rng.below(10_000) as i64;
        check_index(&handle, &rows, Expr::between("t0", lo, lo + 800));
        check_index(&handle, &rows, Expr::eq("label", label(&mut rng)));
        handles += 1;
    }
    handles
}

#[test]
fn readers_never_see_a_recycled_page() {
    let seed = Seed::from_env(SEED);
    let db = Database::open(
        "reuse",
        DbOptions {
            storage: StorageConfig {
                backend: StorageBackend::Paged,
                page_size: 512,
                cache_pages: 16,
                store_path: None,
            },
            ..DbOptions::default()
        },
    )
    .unwrap();
    let mut conn = db.connect();
    for table in TABLES {
        conn.create_table(schema(table)).unwrap();
        conn.create_index(table, &format!("{table}_t0"), &["t0"], false)
            .unwrap();
        conn.create_index(table, &format!("{table}_label"), &["label"], false)
            .unwrap();
    }
    let mut rng = seed.stream("reuse-writer");
    let (mut live, mut next_id) = ([Vec::new(), Vec::new(), Vec::new()], 0i64);
    for _ in 0..300 {
        statement(&mut conn, &mut rng, &mut live, &mut next_id);
    }

    let stop = AtomicBool::new(false);
    let misses = || hedc_obs::global().counter_value("store.page_cache.miss");
    let misses_before = misses();
    std::thread::scope(|scope| {
        let readers: Vec<_> = ["reuse-reader-0", "reuse-reader-1"]
            .map(|name| scope.spawn(|| reader(&db, seed.stream(name), &stop)))
            .into_iter()
            .collect();
        for epoch in 0..EPOCHS {
            let kept = db.snapshot(TABLES[epoch % 3]).unwrap();
            let at_start = contents(&kept);
            for _ in 0..STATEMENTS_PER_EPOCH {
                statement(&mut conn, &mut rng, &mut live, &mut next_id);
            }
            assert!(
                contents(&kept) == at_start,
                "epoch {epoch}: a kept handle's pages were rewritten under it"
            );
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "each reader validated handles");
        }
    });

    for (t, table) in TABLES.iter().enumerate() {
        assert_eq!(db.row_count(table).unwrap(), live[t].len());
    }
    // The run did recycle: 3 000 statements rewrite at least a root-to-leaf
    // path in four trees each, yet the file holds a fraction of that, and
    // the 16-page cache had to go back to it.
    let allocated = hedc_obs::global().gauge("store.pages.allocated").get();
    let written_at_least = (EPOCHS * STATEMENTS_PER_EPOCH * 4) as i64;
    assert!(
        allocated * 2 < written_at_least,
        "{allocated} pages allocated for >= {written_at_least} page writes: nothing was reused"
    );
    assert!(misses() - misses_before > 1000, "recycled ids were re-read");
}
