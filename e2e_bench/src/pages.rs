//! Browse ops: the seeded page mix, the web requests, the correctness
//! oracle for responses, and the DM-level replay of each page (the second
//! rung of the trace ladder, and what `ingest_browse`'s reader issues).

use crate::catalogue::{Manifest, DAY_MS};
use crate::gen::{op_rng, Zipf};
use crate::nodes::CLIENT_IP;
use hedc_dm::{DmIo, DmResult, NameType, Names, Services, Session};
use hedc_metadb::{Expr, Query};
use hedc_web::{HttpRequest, HttpResponse};
use rand::Rng;

/// One browse operation.
#[derive(Debug, Clone, PartialEq)]
pub enum PageOp {
    /// `GET /hedc/hle/<id>`: the §7.2 page.
    Hle(i64),
    /// `GET /hedc/catalog/<id>`: index into `Manifest::catalogs`.
    Catalog(usize),
    /// `GET /hedc/viz/density?t0&t1` over a 2-day window starting at `t0`.
    Density(u64),
    /// `GET /hedc/sql?q=SELECT ...` for one HLE id.
    Sql(i64),
}

impl PageOp {
    /// Page-kind label (ledger rows, drift-guard messages).
    pub fn kind(&self) -> &'static str {
        match self {
            PageOp::Hle(_) => "hle",
            PageOp::Catalog(_) => "catalog",
            PageOp::Density(_) => "density",
            PageOp::Sql(_) => "sql",
        }
    }
}

/// Shares of each page kind, in percent.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// HLE pages.
    pub hle: u32,
    /// Catalog pages.
    pub catalog: u32,
    /// Density plots.
    pub density: u32,
    /// User SQL.
    pub sql: u32,
}

/// `ingest_browse`'s reader: HLE pages only. Under ingest a catalog page's
/// cache entries die whenever a unit with a detected event lands (about
/// every other unit), so with `browse_hot`'s 10 % catalog pages the 95th
/// percentile would sit on the edge between catalog pages that hit and
/// catalog pages that miss, and flip between 0.8 ms and 3 ms from run to
/// run. With HLE pages only, the median is a hit and p95 a miss.
pub const READER_MIX: Mix = Mix {
    hle: 100,
    catalog: 0,
    density: 0,
    sql: 0,
};
/// `browse_hot`: 90 % HLE, 10 % catalog.
pub const HOT_MIX: Mix = Mix {
    hle: 90,
    catalog: 10,
    density: 0,
    sql: 0,
};
/// `browse_cold`: 70 % HLE, 10 % catalog, 15 % density, 5 % SQL.
pub const COLD_MIX: Mix = Mix {
    hle: 70,
    catalog: 10,
    density: 15,
    sql: 5,
};

/// Length of the density window.
pub const DENSITY_WINDOW_MS: u64 = 2 * DAY_MS;

/// How HLE ids are drawn.
pub enum IdSource {
    /// Zipf-ranked over a fixed hot set (rank 0 most popular).
    Hot {
        /// The rank distribution.
        zipf: Zipf,
        /// Rank → HLE id.
        ids: Vec<i64>,
    },
    /// Uniform over every HLE.
    Uniform,
}

impl IdSource {
    /// A zipf(`s`) source over `hot_set` HLEs picked by a seeded shuffle.
    pub fn hot(manifest: &Manifest, hot_set: usize, s: f64, seed: u64) -> IdSource {
        let mut all: Vec<i64> = manifest.hles.iter().map(|h| h.id).collect();
        let mut rng = op_rng(seed, 0x407_5E7, 0);
        let n = hot_set.min(all.len());
        for i in 0..n {
            let j = rng.gen_range(i..all.len());
            all.swap(i, j);
        }
        all.truncate(n);
        IdSource::Hot {
            zipf: Zipf::new(n, s),
            ids: all,
        }
    }

    fn draw(&self, manifest: &Manifest, rng: &mut impl Rng) -> i64 {
        match self {
            IdSource::Hot { zipf, ids } => ids[zipf.sample(rng)],
            IdSource::Uniform => manifest.hles[rng.gen_range(0..manifest.hles.len())].id,
        }
    }
}

/// Op `index` of `stream`: a pure function of the seed.
pub fn draw(
    mix: &Mix,
    ids: &IdSource,
    manifest: &Manifest,
    seed: u64,
    stream: u64,
    index: u64,
) -> PageOp {
    let mut rng = op_rng(seed, stream, index);
    let roll = rng.gen_range(0..mix.hle + mix.catalog + mix.density + mix.sql);
    if roll < mix.hle {
        PageOp::Hle(ids.draw(manifest, &mut rng))
    } else if roll < mix.hle + mix.catalog {
        PageOp::Catalog(rng.gen_range(0..manifest.catalogs.len()))
    } else if roll < mix.hle + mix.catalog + mix.density {
        PageOp::Density(rng.gen_range(0..manifest.span_ms - DENSITY_WINDOW_MS))
    } else {
        PageOp::Sql(ids.draw(manifest, &mut rng))
    }
}

fn sql_text(id: i64) -> String {
    format!("SELECT id, title, n_photons FROM hle WHERE id = {id}")
}

/// The web request of an op, carrying the logged-in session's cookie.
pub fn request(op: &PageOp, manifest: &Manifest, cookie: u64) -> HttpRequest {
    let req = match op {
        PageOp::Hle(id) => HttpRequest::get(&format!("/hedc/hle/{id}"), CLIENT_IP),
        PageOp::Catalog(c) => HttpRequest::get(
            &format!("/hedc/catalog/{}", manifest.catalogs[*c].id),
            CLIENT_IP,
        ),
        PageOp::Density(t0) => HttpRequest::get("/hedc/viz/density", CLIENT_IP)
            .with_param("t0", t0)
            .with_param("t1", t0 + DENSITY_WINDOW_MS),
        PageOp::Sql(id) => HttpRequest::get("/hedc/sql", CLIENT_IP).with_param("q", sql_text(*id)),
    };
    req.with_cookie(cookie)
}

fn count(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

/// The oracle for web responses: status 200 and the content the set-up
/// manifest says the page must show.
pub fn verify_response(op: &PageOp, resp: &HttpResponse, manifest: &Manifest) -> bool {
    if resp.status != 200 {
        return false;
    }
    match op {
        PageOp::Hle(id) => {
            let Some(h) = manifest.hle(*id) else {
                return false;
            };
            let body = String::from_utf8_lossy(&resp.body);
            body.contains(&format!("<h2>{}</h2>", h.title))
                && body.contains(&format!("action=\"/hedc/analyze/{id}\""))
                && count(&body, "<div class=\"ana\">") == h.anas.len()
                && count(&body, "<img src=\"/files/ana/") == h.anas.len()
        }
        PageOp::Catalog(c) => {
            let cat = &manifest.catalogs[*c];
            let body = String::from_utf8_lossy(&resp.body);
            body.contains(&format!("Catalog: {}", cat.name))
                && count(&body, "<a href=\"/hedc/hle/") == cat.members.len()
        }
        PageOp::Density(_) => {
            resp.content_type == "image/x-portable-graymap" && resp.body.starts_with(b"P5")
        }
        PageOp::Sql(id) => {
            let Some(h) = manifest.hle(*id) else {
                return false;
            };
            let body = String::from_utf8_lossy(&resp.body);
            count(&body, "<tr>") == 2
                && body.contains(&format!("<td>{id}</td>"))
                && body.contains(&format!("<td>{}</td>", h.n_photons))
        }
    }
}

/// One DM-level call a page makes.
#[derive(Debug, Clone)]
pub enum DmCall {
    /// `Services::query` with this (unscoped) query.
    Query(Query),
    /// `Services::catalog_members`.
    Members(i64),
    /// `Names::resolve(item, File)`.
    Resolve(i64),
    /// `Services::user_sql`.
    UserSql(String),
}

/// The DM calls `WebServer` makes for an op, in order, derived from the
/// manifest (which knows each HLE's analyses and each catalog's members).
/// The replay-drift guard checks this list against the real page.
pub fn dm_calls(op: &PageOp, manifest: &Manifest) -> Vec<DmCall> {
    match op {
        PageOp::Hle(id) => {
            let mut calls = vec![
                DmCall::Query(Query::table("hle").filter(Expr::eq("id", *id))),
                DmCall::Query(Query::table("ana").filter(Expr::eq("hle_id", *id))),
            ];
            if let Some(h) = manifest.hle(*id) {
                calls.extend(h.anas.iter().map(|&(_, item)| DmCall::Resolve(item)));
            }
            calls
        }
        PageOp::Catalog(c) => {
            let cat = &manifest.catalogs[*c];
            let mut calls = vec![
                DmCall::Query(Query::table("catalog").filter(Expr::eq("id", cat.id))),
                DmCall::Members(cat.id),
            ];
            calls.extend(
                cat.members
                    .iter()
                    .map(|m| DmCall::Query(Query::table("hle").filter(Expr::eq("id", *m)))),
            );
            calls
        }
        PageOp::Density(t0) => vec![DmCall::Query(Query::table("hle").filter(Expr::between(
            "time_start",
            *t0 as i64,
            (*t0 + DENSITY_WINDOW_MS) as i64,
        )))],
        PageOp::Sql(id) => vec![DmCall::UserSql(sql_text(*id))],
    }
}

impl DmCall {
    /// Execute the call through the DM's public services; returns how many
    /// rows / names / members came back.
    pub fn run(&self, io: &DmIo, session: &Session) -> DmResult<usize> {
        let svc = Services::new(io);
        match self {
            DmCall::Query(q) => svc.query(session, q.clone()).map(|r| r.rows.len()),
            DmCall::Members(id) => svc.catalog_members(session, *id).map(|m| m.len()),
            DmCall::Resolve(item) => Names::new(io)
                .resolve(*item, NameType::File)
                .map(|n| n.len()),
            DmCall::UserSql(sql) => svc.user_sql(session, sql).map(|r| r.rows.len()),
        }
    }
}

/// Run a page at the DM level and check it against the manifest: the HLE
/// exists, its analysis rows are all there, and each resolves to its files.
pub fn dm_page(io: &DmIo, session: &Session, op: &PageOp, manifest: &Manifest) -> bool {
    let calls = dm_calls(op, manifest);
    let mut counts = Vec::with_capacity(calls.len());
    for call in &calls {
        match call.run(io, session) {
            Ok(n) => counts.push(n),
            Err(_) => return false,
        }
    }
    match op {
        PageOp::Hle(id) => manifest.hle(*id).is_some_and(|h| {
            counts[0] == 1 && counts[1] == h.anas.len() && counts[2..].iter().all(|&n| n == 2)
        }),
        PageOp::Catalog(c) => {
            counts[0] == 1
                && counts[1] == manifest.catalogs[*c].members.len()
                && counts[2..].iter().all(|&n| n == 1)
        }
        PageOp::Density(t0) => counts[0] == manifest.count_started_in(*t0, t0 + DENSITY_WINDOW_MS),
        PageOp::Sql(_) => counts[0] == 1,
    }
}
