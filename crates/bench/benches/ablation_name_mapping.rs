//! Ablation A2 (§4.3): the cost of dynamic name construction — "two extra
//! database queries on an indexed field" — versus a hypothetical design
//! that stores absolute paths in the domain tuples. The flexibility
//! (run-time relocation) costs these microseconds per access.

use criterion::{criterion_group, criterion_main, Criterion};
use hedc_dm::{DmIo, NameType, Names};
use hedc_metadb::{Expr, Query};
use std::hint::black_box;

fn setup() -> (DmIo, Vec<i64>) {
    let io = hedc_dm::testkit::node("names-bench", Default::default());
    let names = Names::new(&io);
    names
        .register_archive(1, "disk", "online/v1", None)
        .unwrap();
    let mut items = Vec::new();
    for i in 0..10_000 {
        let item = names.new_item().unwrap();
        names
            .attach(
                item,
                NameType::File,
                1,
                &format!("raw/unit{i:06}.fits"),
                40 << 20,
                Some(i as u32),
                "data",
            )
            .unwrap();
        items.push(item);
    }
    (io, items)
}

fn bench_name_mapping(c: &mut Criterion) {
    let (io, items) = setup();
    let names = Names::new(&io);
    let mut group = c.benchmark_group("A2_name_mapping");

    // Dynamic §4.3 construction: loc_entry by item_id + loc_archive by pk.
    let mut i = 0usize;
    group.bench_function("dynamic_two_queries", |b| {
        b.iter(|| {
            let item = items[i % items.len()];
            i += 1;
            black_box(names.resolve(item, NameType::File).unwrap())
        })
    });

    // Static baseline: a single indexed lookup returning a frozen path
    // (what a path-in-tuple schema would do — and what relocation breaks).
    let mut j = 0usize;
    group.bench_function("static_single_query", |b| {
        b.iter(|| {
            let item = items[j % items.len()];
            j += 1;
            black_box(
                io.query(&Query::table("loc_entry").filter(Expr::eq("item_id", item)))
                    .unwrap(),
            )
        })
    });

    // The payoff side: relocation under dynamic naming is one UPDATE...
    group.bench_function("relocate_archive_prefix", |b| {
        let mut version = 0u64;
        b.iter(|| {
            version += 1;
            black_box(
                names
                    .set_archive_prefix(1, &format!("online/v{version}"))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_name_mapping);
criterion_main!(benches);
