//! Fixed-cost budget of the uncached DM query path.
//!
//! A catalog archive lives or dies by the fixed cost of its small indexed
//! queries, so that cost is pinned here as counts that repeat exactly:
//! heap allocations per point query, span-store publications and
//! metrics-registry lookups per page. A change that puts a per-query
//! string, schema clone, registry lookup or span-store lock back on the
//! path fails this suite rather than a noisy timing.

use hedc_dm::testkit::{login, node};
use hedc_dm::{DmIo, NameType, Names, Services, Session};
use hedc_metadb::{Expr, Query, StorageConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

/// Counts this thread's calls into the allocator (`alloc` and `realloc`;
/// frees are not counted) and forwards every call to [`System`].
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counter is gone and the count no longer matters.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` with a const initialiser, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The span-store and registry counters are process-wide; tests that read
/// them must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

struct Fixture {
    io: DmIo,
    session: Arc<Session>,
    /// An item with [`FILES`] file entries (and one transform each).
    item: i64,
    /// An item with one file entry.
    single: i64,
    /// An HLE owned by the session user.
    hle: i64,
}

const FILES: i64 = 7;

fn fixture(storage: StorageConfig) -> Fixture {
    let io = node("budget", storage);
    let session = login(&io, "ana");

    let names = Names::new(&io);
    names.register_archive(1, "disk", "arch", None).unwrap();
    let item = names.new_item().unwrap();
    for i in 0..FILES {
        let entry = names
            .attach(
                item,
                NameType::File,
                1,
                &format!("f{i}.fits"),
                10,
                None,
                "data",
            )
            .unwrap();
        names.add_transform(entry, "gunzip").unwrap();
    }
    let single = names.new_item().unwrap();
    names
        .attach(single, NameType::File, 1, "s.fits", 10, None, "data")
        .unwrap();
    let svc = Services::new(&io);
    let hle = svc
        .create_hle(&session, &hedc_dm::HleSpec::window(0, 100, "flare"))
        .unwrap();
    Fixture {
        io,
        session,
        item,
        single,
        hle,
    }
}

/// One uncached point query, run as it is in production — under a
/// request's root span, through `Services::query` — stays within 60
/// allocator calls plus its result's column labels, on either backend.
/// Measured: 28 (memory) / 33 (paged) for the `loc_entry` probe and 61 / 67
/// for the scoped 25-column `hle` probe; with the SQL round-trip, the
/// per-query schema and table-name clones and `String` span names the
/// parent commit spent 100 / 105 and 194 / 199.
#[test]
fn point_query_allocation_budget() {
    let _serial = SERIAL.lock().unwrap();
    for storage in [StorageConfig::default(), StorageConfig::paged()] {
        let f = fixture(storage.clone());
        let svc = Services::new(&f.io);
        let _request = hedc_obs::Span::root("budget.request");
        let measure = |q: Query| {
            // Warm-up: the pooled connection and the thread's span buffer.
            svc.query(&f.session, q.clone()).unwrap();
            let (r, allocs) = allocs_during(|| svc.query(&f.session, q).unwrap());
            assert_eq!(r.rows.len(), 1);
            allocs
        };

        // 8 columns, 3 of them text.
        let entry = measure(Query::table("loc_entry").filter(Expr::eq("item_id", f.single)));
        assert!(
            entry <= 40,
            "{:?}: loc_entry probe {entry}",
            storage.backend
        );

        // 25 columns, so 26 are the result's labels (`Vec<String>`), and
        // ownership scoping appends `public = true OR owner = me`.
        let hle = measure(Query::table("hle").filter(Expr::eq("id", f.hle)));
        assert!(hle <= 70, "{:?}: scoped hle probe {hle}", storage.backend);
    }
}

/// A 17-query page under one root span publishes to the span store once,
/// never takes a metrics-registry lock, and every one of its queries still
/// reaches the database and the `dm.query` histogram.
#[test]
fn page_costs_one_publication_and_no_registry_lookup() {
    let _serial = SERIAL.lock().unwrap();
    let f = fixture(StorageConfig::paged());
    let svc = Services::new(&f.io);
    let names = Names::new(&f.io);
    let page = || {
        let root = hedc_obs::Span::root("budget.page");
        let trace = root.context().trace_id;
        svc.query(
            &f.session,
            Query::table("hle").filter(Expr::eq("id", f.hle)),
        )
        .unwrap();
        svc.query(
            &f.session,
            Query::table("ana").filter(Expr::eq("hle_id", f.hle)),
        )
        .unwrap();
        let resolved = names.resolve(f.item, NameType::File).unwrap();
        assert_eq!(resolved.len(), FILES as usize);
        trace
    };
    page(); // warm-up

    let dm_query = hedc_obs::global().histogram("dm.query");
    let db = f.io.db_for("hle");
    let (queries0, samples0) = (db.stats().queries, dm_query.count());
    let publishes0 = hedc_obs::span_store().publishes();
    let lookups0 = hedc_obs::global().lookups();
    let trace = page();
    assert_eq!(hedc_obs::global().lookups() - lookups0, 0);
    assert_eq!(hedc_obs::span_store().publishes() - publishes0, 1);
    // hle + ana + (entries + FILES x (archive + transforms)).
    let expected = 2 + 1 + 2 * FILES as u64;
    assert_eq!(expected, 17);
    assert_eq!(db.stats().queries - queries0, expected);
    assert_eq!(dm_query.count() - samples0, expected);

    let spans = hedc_obs::span_store().spans_for(trace);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    assert_eq!(count("metadb.query"), expected);
    assert_eq!(count("dm.io.query"), expected);
    assert_eq!(count("db.pool.acquire"), expected);
    assert_eq!(count("dm.session.query"), 2);
    assert_eq!(count("dm.name_map"), 1);
    assert_eq!(spans.last().unwrap().name, "budget.page");
    assert_eq!(spans.len() as u64, 3 * expected + 2 + 1 + 1);
}

/// After the root drops, the store holds every span of the trace: each
/// thread's in completion order, a worker's as one block that lands when
/// the worker leaves the adopted context.
#[test]
fn spans_survive_buffering_across_an_adopted_worker() {
    let _serial = SERIAL.lock().unwrap();
    let root = hedc_obs::Span::root("budget.root");
    let ctx = root.context();
    drop(hedc_obs::Span::child("budget.a"));
    std::thread::spawn(move || {
        let _trace = hedc_obs::adopt(Some(ctx));
        let _outer = hedc_obs::Span::child("budget.w.outer");
        drop(hedc_obs::Span::child("budget.w.inner"));
    })
    .join()
    .unwrap();
    let seen = hedc_obs::span_store().spans_for(ctx.trace_id);
    let names: Vec<&str> = seen.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        ["budget.w.inner", "budget.w.outer"],
        "the worker published on leaving the trace; this thread has not yet"
    );
    drop(hedc_obs::Span::child("budget.b"));
    drop(root);

    let spans = hedc_obs::span_store().spans_for(ctx.trace_id);
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "budget.w.inner",
            "budget.w.outer",
            "budget.a",
            "budget.b",
            "budget.root"
        ]
    );
    let outer = spans.iter().find(|s| s.name == "budget.w.outer").unwrap();
    let inner = spans.iter().find(|s| s.name == "budget.w.inner").unwrap();
    assert_eq!(outer.parent_id, ctx.span_id);
    assert_eq!(inner.parent_id, outer.span_id);
    // The flight recorder saw the finished root.
    let record = hedc_obs::recorder().get(ctx.trace_id).unwrap();
    assert_eq!(record.spans.len(), 5);
}
