//! SQL is a rendering of a query object, not a hop: the DM hands `Query`
//! objects straight to the executor, so nothing in production checks any
//! more that `query_to_sql` still says what the object says. This suite
//! does. For seeded random queries on both storage backends,
//! `DmIo::query(q)` must equal — columns, rows and access path —
//! executing the text `query_to_sql(q)` renders. The places that still
//! take text (the slow-query log, `Services::user_sql`) are pinned too.
//!
//! Every case derives from one printed seed (`HEDC_TEST_SEED` overrides,
//! `scripts/check.sh --seed <seed>` replays).

use hedc_dm::testkit::{login, node, node_with, Seed, Stream};
use hedc_dm::{DmIo, HleSpec, IoConfig, Services};
use hedc_metadb::{query_to_sql, AggFunc, CmpOp, Expr, OrderDir, Query, StorageConfig, Value};
use std::time::Duration;

const LABELS: [&str; 5] = ["flare", "grb", "it's", "quiet sun", ""];
const ROWS: i64 = 120;

/// `obs(id pk, grp indexed, t indexed, label, flux, flag)`: every column
/// type the renderer has a literal for, two secondary indexes, NULLs.
fn populate(io: &DmIo, rng: &mut Stream) {
    io.execute_ddl(
        "CREATE TABLE obs (id INT NOT NULL, grp INT NOT NULL, t TIMESTAMP NOT NULL, \
         label TEXT, flux FLOAT, flag BOOL, PRIMARY KEY (id))",
    )
    .unwrap();
    io.execute_ddl("CREATE INDEX obs_grp ON obs (grp)").unwrap();
    io.execute_ddl("CREATE INDEX obs_t ON obs (t)").unwrap();
    for id in 0..ROWS {
        let label = match rng.below(6) {
            5 => Value::Null,
            i => Value::Text(LABELS[i as usize].into()),
        };
        let flux = match rng.below(5) {
            0 => Value::Null,
            _ => Value::Float(rng.below(40) as f64 * 0.5 - 5.0),
        };
        io.insert(
            "obs",
            vec![
                Value::Int(id),
                Value::Int(rng.below(8) as i64),
                Value::Int(rng.below(1_000) as i64),
                label,
                flux,
                Value::Bool(rng.per_mille(500)),
            ],
        )
        .unwrap();
    }
}

fn predicate(rng: &mut Stream) -> Expr {
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let op = *rng.pick(&ops);
    match rng.below(9) {
        0 => Expr::eq("id", rng.below(ROWS as u64 + 10) as i64),
        1 => Expr::cmp("grp", op, rng.below(8) as i64),
        2 => {
            let lo = rng.below(1_000) as i64;
            Expr::between("t", lo, lo + rng.below(300) as i64)
        }
        // Never empty: `IN ()` is a query object with no SQL spelling.
        3 => Expr::in_list("id", (0..1 + rng.below(5)).map(|_| rng.below(150) as i64)),
        4 => Expr::in_list("grp", (0..1 + rng.below(4)).map(|_| rng.below(9) as i64)),
        5 => Expr::eq("label", *rng.pick(&LABELS)),
        6 => Expr::cmp("flux", op, rng.below(20) as f64 * 0.5 - 2.5),
        7 => Expr::eq("flag", rng.per_mille(500)),
        _ => Expr::cmp("t", op, rng.below(1_000) as i64),
    }
}

fn filter(rng: &mut Stream) -> Expr {
    let mut e = predicate(rng);
    for _ in 0..rng.below(3) {
        let next = predicate(rng);
        e = if rng.per_mille(700) {
            e.and(next)
        } else {
            e.or(next)
        };
    }
    e
}

fn dir(rng: &mut Stream) -> OrderDir {
    if rng.per_mille(500) {
        OrderDir::Asc
    } else {
        OrderDir::Desc
    }
}

fn random_query(rng: &mut Stream) -> Query {
    const COLS: [&str; 6] = ["id", "grp", "t", "label", "flux", "flag"];
    let mut q = Query::table("obs");
    if rng.per_mille(800) {
        q = q.filter(filter(rng));
    }
    if rng.per_mille(350) {
        // Aggregate mode, ordered by output labels when ordered at all.
        let aggs = [
            AggFunc::CountStar,
            AggFunc::Count("label".into()),
            AggFunc::Sum("t".into()),
            AggFunc::Avg("flux".into()),
            AggFunc::Min("t".into()),
            AggFunc::Max("flux".into()),
        ];
        let mut labels = Vec::new();
        if rng.per_mille(600) {
            q = q.group_by("grp");
            labels.push("grp".to_string());
        }
        for _ in 0..1 + rng.below(3) {
            let agg = aggs[rng.below(6) as usize].clone();
            if !labels.contains(&agg.label()) {
                labels.push(agg.label());
                q = q.aggregate(agg);
            }
        }
        if rng.per_mille(500) {
            let key = labels[rng.below(labels.len() as u64) as usize].clone();
            q = q.order_by(key, dir(rng));
        }
    } else {
        if rng.per_mille(500) {
            let n = 1 + rng.below(4) as usize;
            let cols: Vec<&str> = (0..n).map(|_| *rng.pick(&COLS)).collect();
            q = q.select(&cols);
        }
        for _ in 0..rng.below(3) {
            q = q.order_by(*rng.pick(&COLS), dir(rng));
        }
    }
    if rng.per_mille(400) {
        q = q.limit(rng.below(12) as usize);
        if rng.per_mille(500) {
            q = q.offset(rng.below(6) as usize);
        }
    }
    q
}

#[test]
fn query_objects_and_their_sql_rendering_agree_on_both_backends() {
    let seed = Seed::from_env(0x0570_BEE7);
    for storage in [StorageConfig::default(), StorageConfig::paged()] {
        let backend = storage.backend;
        let mut rng = seed.stream("queries");
        let io = node("equiv", storage);
        populate(&io, &mut rng);
        let db = io.db_for("obs");
        let schema = db.schema_of("obs").unwrap();
        let mut nonempty = 0;
        for case in 0..400 {
            let q = random_query(&mut rng);
            let sql = query_to_sql(&q, &schema);
            let direct = io.query(&q);
            let rendered = db.connect().execute_sql(&sql);
            let ctx = format!("{backend:?} case {case}: {sql}");
            match (direct, rendered) {
                (Ok(a), Ok(b)) => {
                    let b = b.rows();
                    assert_eq!(a.columns, b.columns, "{ctx}");
                    assert_eq!(a.rows, b.rows, "{ctx}");
                    assert_eq!(a.stats.access, b.stats.access, "{ctx}");
                    nonempty += usize::from(!a.rows.is_empty());
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("{ctx}: direct {a:?} vs rendered {b:?}"),
            }
        }
        assert!(
            nonempty > 200,
            "{backend:?}: only {nonempty} non-empty results"
        );
    }
}

/// The slow-query log is the one production consumer of the rendering:
/// with a zero threshold every query is slow and must say what ran.
#[test]
fn slow_query_event_carries_the_rendered_sql() {
    let config = IoConfig {
        slow_query: Duration::ZERO,
        ..IoConfig::default()
    };
    let io = node_with("equiv-slow", StorageConfig::default(), &config);
    let q = Query::table("loc_archive")
        .filter(Expr::eq("archive_id", 4242))
        .limit(3);
    io.query(&q).unwrap();
    let want = "db=equiv-slow";
    let events = hedc_obs::event_log().events_of_kind(hedc_obs::kind::SLOW_QUERY);
    let event = events
        .iter()
        .rev()
        .find(|e| e.detail.contains(want))
        .expect("a slow_query event for this node");
    assert!(
        event
            .detail
            .ends_with("sql=SELECT * FROM loc_archive WHERE archive_id = 4242 LIMIT 3"),
        "{}",
        event.detail
    );
}

/// Text that arrives as text still goes through the parser, and §5.5
/// scoping is applied to what it parsed to.
#[test]
fn user_sql_still_parses_and_scopes() {
    let io = node("equiv-user", StorageConfig::default());
    let sessions = [login(&io, "ann"), login(&io, "ben")];
    let svc = Services::new(&io);
    // A fresh HLE is private to its owner.
    let id = svc
        .create_hle(&sessions[0], &HleSpec::window(0, 100, "flare"))
        .unwrap();
    let sql = format!("SELECT id, owner FROM hle WHERE id = {id} ORDER BY id DESC LIMIT 5");
    let own = svc.user_sql(&sessions[0], &sql).unwrap();
    assert_eq!(own.columns, ["id", "owner"]);
    assert_eq!(own.rows.len(), 1);
    let other = svc.user_sql(&sessions[1], &sql).unwrap();
    assert!(other.rows.is_empty(), "scoping hides another user's tuple");
    assert!(svc.user_sql(&sessions[0], "SELEKT 1").is_err());
    assert!(svc.user_sql(&sessions[0], "DELETE FROM hle").is_err());
}
