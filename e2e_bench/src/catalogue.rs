//! The shared data set (`catalogue`) and its manifest.
//!
//! Built through the DM's public services — `Services::create_hle`,
//! `Services::import_analysis` (which stores the files and writes the
//! `loc_item`/`loc_entry`/`ana` tuples in one transaction) and
//! `Services::{create_catalog, add_to_catalog}` — not through telemetry
//! ingest, so set-up stays in seconds. Everything is drawn from the seed;
//! the manifest records what every later page must show, which is what the
//! correctness oracle checks responses against.

use crate::gen::op_rng;
use hedc_dm::{AnaSpec, DmIo, DmResult, FilePayload, HleSpec, Services, Session};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Archive receiving the catalogue's derived files.
pub const DERIVED_ARCHIVE: u32 = 2;
/// Archive receiving raw telemetry.
pub const RAW_ARCHIVE: u32 = 1;
/// Milliseconds per day.
pub const DAY_MS: u64 = 86_400_000;

const STREAM_HLE: u64 = 0xC47A_0001;
const STREAM_CATALOG: u64 = 0xC47A_0002;
const KINDS: [&str; 3] = ["imaging", "lightcurve", "spectrum"];
const EVENT_TYPES: [&str; 4] = ["flare", "flare", "grb", "quiet"];
const FLARE_CLASSES: [&str; 4] = ["B", "C", "M", "X"];

/// Data-set dimensions; the ratios (3 ANAs per HLE, one item with 2 files
/// per ANA, 25 members per catalog, one catalog per 100 HLEs, hot set of a
/// tenth) are the issue's, the absolute size is frozen in `frozen.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sizes {
    /// Number of HLEs.
    pub hles: usize,
    /// Analyses per HLE.
    pub anas_per_hle: usize,
    /// User catalogs.
    pub catalogs: usize,
    /// Members per catalog.
    pub members_per_catalog: usize,
    /// Size of the zipf hot set `browse_hot` draws from.
    pub hot_set: usize,
    /// Mission span the HLE windows are spread over, days.
    pub mission_days: u64,
}

impl Sizes {
    /// The same ratios at `1/divisor` of the size (`--smoke`).
    pub fn shrunk(self, divisor: usize) -> Sizes {
        let hles = (self.hles / divisor).max(self.members_per_catalog * 2);
        Sizes {
            hles,
            catalogs: (self.catalogs / divisor).max(2),
            hot_set: (self.hot_set / divisor).max(10).min(hles),
            ..self
        }
    }

    /// Mission span, ms.
    pub fn span_ms(&self) -> u64 {
        self.mission_days * DAY_MS
    }
}

/// What set-up created for one HLE.
#[derive(Debug, Clone)]
pub struct HleEntry {
    /// Tuple id.
    pub id: i64,
    /// Title shown on its page.
    pub title: String,
    /// Window start, mission ms.
    pub time_start: u64,
    /// Window end, mission ms.
    pub time_end: u64,
    /// Photons attributed.
    pub n_photons: i64,
    /// `(ana_id, item_id)` of each analysis, in creation order.
    pub anas: Vec<(i64, i64)>,
}

/// What set-up created for one catalog.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Tuple id.
    pub id: i64,
    /// Catalog name.
    pub name: String,
    /// Member HLE ids, in insertion order.
    pub members: Vec<i64>,
}

/// The set-up manifest: ground truth for verification and id pools for the
/// op generators.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Every HLE, in creation order.
    pub hles: Vec<HleEntry>,
    /// Every catalog.
    pub catalogs: Vec<CatalogEntry>,
    /// Mission span the windows lie in, ms.
    pub span_ms: u64,
    by_id: HashMap<i64, usize>,
}

impl Manifest {
    /// The entry of an HLE id.
    pub fn hle(&self, id: i64) -> Option<&HleEntry> {
        self.by_id.get(&id).map(|&i| &self.hles[i])
    }

    /// Every `loc_item` id the catalogue created.
    pub fn item_ids(&self) -> Vec<i64> {
        self.hles
            .iter()
            .flat_map(|h| h.anas.iter().map(|&(_, item)| item))
            .collect()
    }

    /// Number of HLEs whose `time_start` lies in `[lo, hi]`.
    pub fn count_started_in(&self, lo: u64, hi: u64) -> usize {
        self.hles
            .iter()
            .filter(|h| (lo..=hi).contains(&h.time_start))
            .count()
    }
}

/// Build the catalogue on one node as `session` (a scientist account: the
/// tuples are private to it, and every browse query carries the §5.5
/// `public OR owner` scoping filter). Analysis files go to `archive`.
pub fn build(
    io: &DmIo,
    session: &Session,
    sizes: &Sizes,
    seed: u64,
    archive: u32,
) -> DmResult<Manifest> {
    let svc = Services::new(io);
    let span = sizes.span_ms();
    let mut manifest = Manifest {
        span_ms: span,
        ..Manifest::default()
    };
    let image = vec![0x5Au8; 1024];
    for i in 0..sizes.hles {
        let mut rng = op_rng(seed, STREAM_HLE, i as u64);
        let duration = rng.gen_range(120_000..900_000u64);
        let time_start = rng.gen_range(0..span - duration);
        let time_end = time_start + duration;
        let n_photons = rng.gen_range(1_000..5_000_000i64);
        let title = format!("Event {i:05} @ {}", time_start / 1000);
        let event_type = EVENT_TYPES[rng.gen_range(0..EVENT_TYPES.len())];
        let spec = HleSpec {
            flare_class: (event_type == "flare")
                .then(|| FLARE_CLASSES[rng.gen_range(0..FLARE_CLASSES.len())].to_string()),
            peak_rate: Some(rng.gen_range(10.0..50_000.0)),
            hardness: Some(rng.gen_range(0.0..1.0)),
            n_photons: Some(n_photons),
            title: Some(title.clone()),
            source: "import".to_string(),
            ..HleSpec::window(time_start, time_end, event_type)
        };
        let id = svc.create_hle(session, &spec)?;
        let mut anas = Vec::with_capacity(sizes.anas_per_hle);
        for (a, kind) in KINDS.iter().cycle().take(sizes.anas_per_hle).enumerate() {
            let ana = AnaSpec {
                hle_id: id,
                kind: kind.to_string(),
                fingerprint: format!("{kind}|hle{id}|v{a}"),
                t_start: time_start,
                t_end: time_end,
                energy_lo: 3.0,
                energy_hi: 20_000.0,
                param_grid: (*kind == "imaging").then_some(64.0),
                param_bins: None,
                param_bin_ms: (*kind == "lightcurve").then_some(4000.0),
                duration_ms: rng.gen_range(50..30_000),
                cpu_ms: rng.gen_range(10..20_000),
                output_bytes: image.len() as i64 + 128,
                product_type: if *kind == "imaging" {
                    "image"
                } else {
                    "series"
                }
                .to_string(),
                calib_version: 1,
            };
            let dir = format!("ana/h{id}/a{a}");
            let files = [
                FilePayload {
                    archive_id: archive,
                    path: format!("{dir}/result.fits"),
                    role: "image".to_string(),
                    data: image.clone(),
                },
                FilePayload {
                    archive_id: archive,
                    path: format!("{dir}/run.log"),
                    role: "log".to_string(),
                    data: format!("kind={kind} hle={id} window=[{time_start},{time_end})\n")
                        .into_bytes(),
                },
            ];
            let (ana_id, item_id) = svc.import_analysis(session, &ana, &files)?;
            anas.push((ana_id, item_id.expect("analysis with files has an item")));
        }
        manifest.by_id.insert(id, manifest.hles.len());
        manifest.hles.push(HleEntry {
            id,
            title,
            time_start,
            time_end,
            n_photons,
            anas,
        });
    }
    for c in 0..sizes.catalogs {
        let mut rng = op_rng(seed, STREAM_CATALOG, c as u64);
        let name = format!("workspace-{c:03}");
        let id = svc.create_catalog(session, &name, "user", Some("benchmark workspace"))?;
        let mut members = Vec::with_capacity(sizes.members_per_catalog);
        while members.len() < sizes.members_per_catalog {
            let hle = manifest.hles[rng.gen_range(0..manifest.hles.len())].id;
            if !members.contains(&hle) {
                svc.add_to_catalog(session, id, hle)?;
                members.push(hle);
            }
        }
        manifest.catalogs.push(CatalogEntry { id, name, members });
    }
    Ok(manifest)
}
