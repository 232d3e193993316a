//! `analysis_mix`: the paper's other user-visible operation. A fixed,
//! seeded list of `POST /hedc/analyze/<hle>` requests against `Hedc::start`
//! (2 analysis servers, 2 dispatchers) with telemetry loaded; 60 % of the
//! requests are first-time executions and 40 % repeat an earlier request,
//! so they are reuse or coalesce hits. Fixed work, not fixed time, so
//! execution and reuse counts repeat; closed loop, because a caller waits
//! for its own reply.

use crate::counters::{ratio, record_node_rows, wire_violation, Counters};
use crate::gen::{self, median, op_rng, Limit};
use crate::nodes::{CLIENT_IP, PASSWORD, USER};
use crate::phases::{RunCtx, Trials};
use crate::report::{peak_rss_mb, RunResult};
use crate::trace::{mean, Tracer, NO_PARENT};
use hedc_analysis::{select_photons, AnalysisParams};
use hedc_core::{Hedc, HedcConfig};
use hedc_dm::{DmResult, HleSpec, NameType, Rights, Session, SessionKind};
use hedc_events::{GenConfig, TelemetryUnit};
use hedc_filestore::{FitsFile, PhotonList};
use hedc_metadb::{CmpOp, Expr, Query};
use hedc_pl::RequestSpec;
use hedc_web::HttpRequest;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Kinds by request index mod 10: 50 % lightcurve, 30 % histogram, 20 %
/// imaging, interleaved.
const KIND_PATTERN: [&str; 10] = [
    "lightcurve",
    "histogram",
    "lightcurve",
    "imaging",
    "lightcurve",
    "histogram",
    "lightcurve",
    "histogram",
    "imaging",
    "lightcurve",
];
/// Of every five requests of a kind, the first three are first-time keys and
/// the last two repeat an earlier key of that kind: 60 % executions, 40 %
/// reuse or coalesce hits, exactly, whatever the seed. The median request is
/// then an execution and the 95th percentile an imaging run, neither of them
/// on the edge between two populations.
const FRESH_OF_FIVE: usize = 3;
/// Imaging requests use this many consecutive grid sizes.
const IMAGING_GRIDS: u32 = 9;
/// User-defined events the requests target: windows of this length tiled
/// over the loaded telemetry (§3.3: an event is whatever window a user
/// declares relevant).
const EVENT_WINDOW_MS: u64 = 90_000;
/// Spacing of the event windows.
const EVENT_STRIDE_MS: u64 = 60_000;

/// One `(hle, kind, params)` key.
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    /// Target event.
    pub hle: i64,
    /// Analysis kind.
    pub kind: &'static str,
    /// The kind's knob (`bin_ms`, `bins` or `grid`) and its value.
    pub knob: (&'static str, f64),
}

/// The fixed request list: a pure function of the seed, the events, the
/// length and the smallest imaging grid. `offset` shifts every knob, so a
/// second list (the traced pass's direct PL submissions) shares no key with
/// the first.
pub fn request_list(hles: &[i64], n: usize, seed: u64, grid_lo: u32, offset: u32) -> Vec<Key> {
    let mut rng = op_rng(seed, 0xA7A_1157, u64::from(offset));
    // Imaging keys are (event, grid) pairs; walk them in a seeded order so
    // first-time imaging requests never collide. An offset list uses the
    // next nine grids up.
    let mut imaging: Vec<(i64, u32)> = hles
        .iter()
        .flat_map(|&h| (0..IMAGING_GRIDS).map(move |g| (h, grid_lo + g + IMAGING_GRIDS * offset)))
        .collect();
    for i in (1..imaging.len()).rev() {
        imaging.swap(i, rng.gen_range(0..=i));
    }
    // Per kind: how many requests so far, and the distinct keys issued.
    let mut by_kind: BTreeMap<&str, (usize, Vec<Key>)> = BTreeMap::new();
    let mut list = Vec::with_capacity(n);
    for i in 0..n {
        let kind = KIND_PATTERN[i % KIND_PATTERN.len()];
        let (count, issued) = by_kind.entry(kind).or_default();
        let key = if *count % 5 < FRESH_OF_FIVE {
            let unique = f64::from(offset) * 1_000.0 + i as f64;
            let key = match kind {
                "lightcurve" => Key {
                    hle: hles[rng.gen_range(0..hles.len())],
                    kind,
                    knob: ("bin_ms", 500.0 + unique),
                },
                "histogram" => Key {
                    hle: hles[rng.gen_range(0..hles.len())],
                    kind,
                    knob: ("bins", 8.0 + unique),
                },
                _ => {
                    let (hle, grid) = imaging[issued.len() % imaging.len()];
                    Key {
                        hle,
                        kind,
                        knob: ("grid", f64::from(grid)),
                    }
                }
            };
            issued.push(key.clone());
            key
        } else {
            issued[rng.gen_range(0..issued.len())].clone()
        };
        *count += 1;
        list.push(key);
    }
    list
}

struct Fixture {
    hedc: Arc<Hedc>,
    session: Arc<Session>,
    cookie: u64,
    /// `(id, time_start, time_end)` of the user-defined events.
    hles: Vec<(i64, u64, u64)>,
}

/// Stops the PL's servers, dispatchers and the sampler when a fixture goes
/// away (a repeated set-up, or the end of the run).
impl Drop for Fixture {
    fn drop(&mut self) {
        self.hedc.shutdown();
    }
}

fn boot(ctx: &RunCtx) -> DmResult<Fixture> {
    let spec = &ctx.frozen.analysis_mix;
    let hedc = Hedc::start(HedcConfig {
        analysis_servers: 2,
        dispatchers: 2,
        ..HedcConfig::default()
    })?;
    let duration_ms = spec.telemetry_minutes * 60_000;
    hedc.load_telemetry(
        &GenConfig {
            seed: spec.telemetry_seed,
            duration_ms,
            // Quiet sun only: every event window then holds about the same
            // number of photons, so an imaging run costs the same whichever
            // event the seed picks.
            flares_per_hour: 0.0,
            grbs_per_day: 0.0,
            background_rate: 15.0,
            ..GenConfig::default()
        },
        spec.photons_per_unit,
    )?;
    let dm = hedc.dm();
    dm.create_user(USER, PASSWORD, "science", Rights::SCIENTIST)?;
    let cookie = dm.login(USER, PASSWORD, CLIENT_IP)?;
    let session = dm.session(CLIENT_IP, cookie, SessionKind::Analysis)?;
    let mut hles = Vec::new();
    let mut t0 = 0;
    while t0 + EVENT_WINDOW_MS <= duration_ms {
        let id = dm
            .services()
            .create_hle(&session, &HleSpec::window(t0, t0 + EVENT_WINDOW_MS, "user"))?;
        hles.push((id, t0, t0 + EVENT_WINDOW_MS));
        t0 += EVENT_STRIDE_MS;
    }
    Ok(Fixture {
        hedc,
        session,
        cookie,
        hles,
    })
}

fn request(key: &Key, cookie: u64) -> HttpRequest {
    HttpRequest::post(&format!("/hedc/analyze/{}", key.hle), CLIENT_IP)
        .with_cookie(cookie)
        .with_param("kind", key.kind)
        .with_param(key.knob.0, key.knob.1)
}

/// The analysis id a `200` answer names.
fn answered_ana(body: &str) -> Option<i64> {
    let rest = body.split("href=\"/hedc/ana/").nth(1)?;
    rest[..rest.find('"')?].parse().ok()
}

/// Run the workload.
pub fn run(ctx: &RunCtx) -> DmResult<RunResult> {
    let mut result = RunResult::default();
    let spec = &ctx.frozen.analysis_mix;
    let before = Counters::read(&[]);
    // The set-up is repeated like every workload's, for `setup_s`; the fixed
    // request list is then run once, on the last fixture (a list cut into
    // trials would leave too few requests beyond each trial's p95).
    let mut trials = Trials::default();
    let mut fixture = None;
    for _ in 0..if ctx.traced { 1 } else { ctx.frozen.trials } {
        drop(fixture.take());
        fixture = Some(trials.setup(|| boot(ctx))?);
    }
    let fx = fixture.expect("at least one set-up");
    result.note("events", fx.hles.len());
    let hle_ids: Vec<i64> = fx.hles.iter().map(|h| h.0).collect();
    let count = (spec.requests_per_window_second * ctx.seconds).round() as usize;
    let list = request_list(&hle_ids, count, ctx.seed, spec.imaging_grid_lo, 0);
    let answered: Mutex<BTreeSet<i64>> = Mutex::new(BTreeSet::new());
    let op = |_client: usize, index: u64| {
        let resp = fx
            .hedc
            .web()
            .handle(&request(&list[index as usize], fx.cookie));
        match (resp.status, answered_ana(&resp.text())) {
            (200, Some(id)) => {
                answered.lock().expect("answer set").insert(id);
                true
            }
            _ => false,
        }
    };
    if ctx.traced {
        traced(ctx, &fx, &hle_ids, count as u64, &op, &mut result);
    } else {
        let closed = gen::closed_loop(ctx.frozen.clients, Limit::Count(count as u64), &op);
        trials.closed(&closed, 1, &mut result);
        trials.latencies(&closed.latencies_ns, &mut result);
        trials.finish(&mut result);
        result.note("closed.requests", closed.attempted);
        result.note("closed.elapsed_s", closed.elapsed.as_secs_f64());
        result.set("peak_rss_mb", peak_rss_mb());
    }

    // Every answered analysis must exist with at least one resolvable file.
    let dm = fx.hedc.dm();
    let answered = answered.into_inner().expect("answer set");
    let mut broken = 0u64;
    for &ana in &answered {
        let ok = dm
            .services()
            .query(&fx.session, Query::table("ana").filter(Expr::eq("id", ana)))
            .ok()
            .and_then(|r| r.rows.first().and_then(|row| row[3].as_int()))
            .and_then(|item| dm.names().resolve(item, NameType::File).ok())
            .is_some_and(|files| !files.is_empty());
        broken += u64::from(!ok);
    }
    result.count(answered.len() as u64, broken);
    result.note("analyses.verified", answered.len());
    if broken > 0 {
        result.violations.push(format!(
            "{broken} answered analyses have no tuple or no resolvable file"
        ));
    }
    result
        .violations
        .extend(wire_violation(&before, &Counters::read(&[])));
    Ok(result)
}

/// The photons of a window, staged the way the PL stages them: raw units
/// overlapping the window, fetched through the name mapping, parsed, cut.
fn stage_photons(fx: &Fixture, params: &AnalysisParams) -> Option<PhotonList> {
    let dm = fx.hedc.dm();
    let q = Query::table("raw_unit").filter(
        Expr::cmp("t_start", CmpOp::Lt, params.t_end_ms as i64).and(Expr::cmp(
            "t_end",
            CmpOp::Gt,
            params.t_start_ms as i64,
        )),
    );
    let mut merged = PhotonList::default();
    for row in dm.io.query(&q).ok()?.rows {
        let bytes = dm.names().fetch_data(row[6].as_int()?).ok()?;
        let unit = TelemetryUnit::from_fits(&FitsFile::from_bytes(&bytes).ok()?).ok()?;
        let cut = select_photons(&unit.photons, params);
        merged.times_ms.extend(cut.times_ms);
        merged.energies_kev.extend(cut.energies_kev);
        merged.detectors.extend(cut.detectors);
    }
    Some(merged)
}

fn traced(
    ctx: &RunCtx,
    fx: &Fixture,
    hle_ids: &[i64],
    count: u64,
    op: &(dyn Fn(usize, u64) -> bool + Sync),
    result: &mut RunResult,
) {
    let dm = fx.hedc.dm();
    // Plain pass: the request list, one client, between counter readings.
    let c0 = Counters::read(&[&dm.io]);
    let t = Instant::now();
    let failed = (0..count).filter(|&i| !op(0, i)).count() as u64;
    let plain_us = t.elapsed().as_nanos() as f64 / 1e3 / count.max(1) as f64;
    let c1 = Counters::read(&[&dm.io]);
    result.count(count, failed);
    let db = c1.db_since(&c0);
    let executions = c1.hist_count(&c0, "pl.analysis");
    result.set("pl.executions", executions as f64);
    result.set("pl.queue_wait_us", c1.hist_mean_us(&c0, "pl.queue_wait"));
    result.set("pl.exec_us", c1.hist_mean_us(&c0, "pl.analysis"));
    result.set(
        "pl.reuse_ratio",
        ratio(
            (c1.delta(&c0, "pl.reuse.hit") + c1.delta(&c0, "pl.reuse.coalesced")) as f64,
            count as f64,
        ),
    );
    result.set(
        "pl.dm_queries_per_analysis",
        ratio(db.queries as f64, executions as f64),
    );
    result.set(
        "pl.dm_edits_per_analysis",
        ratio(db.edits as f64, executions as f64),
    );
    record_node_rows(result, &c0, &c1, count);
    result.set("web.handle_us", plain_us);

    // `pl.submit_us`: first-time executions submitted straight to the PL
    // (a list whose knobs are offset, so none of it is a reuse hit).
    let mut tracer = Tracer::default();
    let mut submit = Vec::new();
    let mut direct: Vec<Key> = Vec::new();
    for key in request_list(
        hle_ids,
        30,
        ctx.seed,
        ctx.frozen.analysis_mix.imaging_grid_lo,
        1,
    ) {
        if !direct.contains(&key) {
            direct.push(key);
        }
    }
    for (i, key) in direct.iter().enumerate() {
        let window = fx.hles.iter().find(|h| h.0 == key.hle).expect("key event");
        let params = AnalysisParams::window(window.1, window.2).with(key.knob.0, key.knob.1);
        let spec = RequestSpec::new(key.kind, params, key.hle);
        let (outcome, us) = tracer.span("pl.submit", NO_PARENT, i as u32, || {
            fx.hedc.pl().submit_sync(Arc::clone(&fx.session), spec)
        });
        match outcome {
            Ok(o) if !o.was_reused() => submit.push(us),
            Ok(_) => result
                .violations
                .push(format!("first-time key {key:?} was answered by reuse")),
            Err(e) => result.violations.push(format!("pl.submit_sync: {e}")),
        }
    }
    result.set("pl.submit_us", mean(&submit));
    result.count(direct.len() as u64, (direct.len() - submit.len()) as u64);

    // `analysis.run_us.*`: the algorithms alone, on the photon window the
    // PL stages for the first event.
    let (_, t0, t1) = fx.hles[0];
    let base = AnalysisParams::window(t0, t1);
    if let Some(photons) = stage_photons(fx, &base) {
        result.note("analysis.probe_photons", photons.len());
        for (kind, knob) in [
            ("lightcurve", ("bin_ms", 1_000.0)),
            ("histogram", ("bins", 16.0)),
            (
                "imaging",
                ("grid", f64::from(ctx.frozen.analysis_mix.imaging_grid_lo)),
            ),
        ] {
            let params = base.clone().with(knob.0, knob.1);
            let mut runs = Vec::new();
            for i in 0..5 {
                let (out, us) = tracer.span("analysis.run", NO_PARENT, i, || {
                    fx.hedc.registry().run(kind, &photons, &params)
                });
                if out.is_ok() {
                    runs.push(us);
                }
            }
            result.set(&format!("analysis.run_us.{kind}"), median(&runs));
        }
    } else {
        result
            .violations
            .push("could not stage photons for the algorithm probe".into());
    }
    if let Err(e) = tracer.write(&ctx.out_dir.join("analysis_mix.trace.json")) {
        result.note("trace.write_error", e.to_string());
    }
    // The generator's own numbers: this workload has no open loop, so only
    // the sample count and failure share apply.
    result.set("gen.samples", count as f64);
    result.set("gen.fail_ratio", failed as f64 / count.max(1) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_list_is_seeded_and_repeats_two_in_five() {
        let hles = [11, 12, 13, 14, 15, 16, 17, 18];
        let a = request_list(&hles, 400, 9, 40, 0);
        assert_eq!(a, request_list(&hles, 400, 9, 40, 0));
        assert_ne!(a, request_list(&hles, 400, 10, 40, 0));
        let mut distinct: Vec<&Key> = Vec::new();
        for k in &a {
            if !distinct.contains(&k) {
                distinct.push(k);
            }
        }
        // 3 of every 5 requests of a kind are first-time keys.
        assert_eq!(distinct.len(), 240);
        assert_eq!(a.iter().filter(|k| k.kind == "imaging").count(), 80);
        // The offset list shares nothing with the timed list.
        let b = request_list(&hles, 50, 9, 40, 1);
        assert!(b.iter().all(|k| !a.contains(k)));
    }
}
