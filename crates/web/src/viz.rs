//! Interactive database visualization (§6.3).
//!
//! "The basic idea is to reorganize the catalogs as a number of
//! multi-dimensional arrays and allow users to specify ranges in any of the
//! dimensions. Based on these ranges the information is then presented in a
//! compact and efficient manner using density (number of tuples per bin)
//! and extent (location and extent of each tuple or cluster of tuples)
//! plots." The arrays are wavelet-encoded for shipping to the client
//! (decoding "at the Java client side to minimize the load at the server").

use hedc_dm::{Dm, DmResult, Session};
use hedc_metadb::{Expr, Query};
use hedc_wavelet::{clusters, encode_signal, Axis, DensityPlot, ExtentPlot};

/// Ranges the user selected in the viz UI.
#[derive(Debug, Clone, Copy)]
pub struct VizRanges {
    /// Time range, mission ms.
    pub t: (u64, u64),
    /// Energy range, keV.
    pub energy: (f64, f64),
    /// Bins per axis.
    pub bins: usize,
}

/// Build the density plot of visible HLEs over (time, energy).
pub fn catalog_density(dm: &Dm, session: &Session, r: VizRanges) -> DmResult<DensityPlot> {
    let q = Query::table("hle").filter(Expr::between("time_start", r.t.0 as i64, r.t.1 as i64));
    let result = dm.services().query(session, q)?;
    let points: Vec<(f64, f64)> = result
        .rows
        .iter()
        .map(|row| {
            (
                row[3].as_int().unwrap_or(0) as f64,
                row[5].as_float().unwrap_or(0.0),
            )
        })
        .collect();
    Ok(DensityPlot::build(
        Axis::new("time_start", r.t.0 as f64, r.t.1 as f64, r.bins),
        Axis::new("energy_lo", r.energy.0, r.energy.1, r.bins),
        points,
    ))
}

/// Build the extent plot of visible HLEs: per time bin, the min/max peak
/// rate (the "location and extent" rendering).
pub fn catalog_extent(dm: &Dm, session: &Session, r: VizRanges) -> DmResult<ExtentPlot> {
    let q = Query::table("hle").filter(Expr::between("time_start", r.t.0 as i64, r.t.1 as i64));
    let result = dm.services().query(session, q)?;
    let points: Vec<(f64, f64)> = result
        .rows
        .iter()
        .filter_map(|row| {
            let t = row[3].as_int()? as f64;
            let rate = row[9].as_float()?;
            Some((t, rate))
        })
        .collect();
    Ok(ExtentPlot::build(
        Axis::new("time_start", r.t.0 as f64, r.t.1 as f64, r.bins),
        points,
    ))
}

/// Wavelet-encode a density plot for shipping to the client (§6.3: "since
/// the partitioned views tend to be large, we encode them using a wavelet
/// transformation"). Returns (encoded bytes, raw f64 bytes it replaces).
pub fn ship_density(plot: &DensityPlot, quant_step: f64) -> (Vec<u8>, usize) {
    let signal = plot.as_signal();
    let encoded = encode_signal(&signal, quant_step);
    let raw = signal.len() * 8;
    (encoded, raw)
}

/// Render a density plot as a PGM (portable graymap) image — the pictorial
/// content the thin client embeds.
pub fn render_pgm(plot: &DensityPlot) -> Vec<u8> {
    let peak = plot.peak().max(1);
    let mut out = format!("P5\n{} {}\n255\n", plot.x.bins, plot.y.bins).into_bytes();
    for by in (0..plot.y.bins).rev() {
        for bx in 0..plot.x.bins {
            let v = plot.count(bx, by);
            out.push(((v * 255) / peak) as u8);
        }
    }
    out
}

/// Summarize an extent plot's clusters as table rows for the thin client:
/// (time range label, tuple count, rate range label).
pub fn cluster_rows(plot: &ExtentPlot) -> Vec<(String, u64, String)> {
    clusters(plot)
        .into_iter()
        .map(|(b0, b1, count, lo, hi)| {
            (
                format!(
                    "{:.0} - {:.0}",
                    plot.x.bin_center(b0),
                    plot.x.bin_center(b1)
                ),
                count,
                format!("{lo:.1} - {hi:.1}"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedc_dm::HleSpec;
    use std::sync::Arc;

    fn dm_with_events() -> (Arc<Dm>, Arc<Session>) {
        let dm = hedc_dm::testkit::dm();
        let session = dm.import_session();
        let svc = dm.services();
        for i in 0..50i64 {
            let mut spec = HleSpec::window(
                (i as u64) * 10_000,
                (i as u64) * 10_000 + 5_000,
                if i % 5 == 0 { "grb" } else { "flare" },
            );
            spec.peak_rate = Some(100.0 + i as f64 * 10.0);
            spec.energy_lo = 3.0 + (i % 10) as f64 * 5.0;
            let id = svc.create_hle(&session, &spec).unwrap();
            svc.publish(&session, "hle", id).unwrap();
        }
        (dm, session)
    }

    fn ranges() -> VizRanges {
        VizRanges {
            t: (0, 500_000),
            energy: (0.0, 60.0),
            bins: 20,
        }
    }

    #[test]
    fn density_covers_all_events() {
        let (dm, session) = dm_with_events();
        let plot = catalog_density(&dm, &session, ranges()).unwrap();
        assert_eq!(plot.total(), 50);
        assert!(plot.peak() >= 1);
    }

    #[test]
    fn density_respects_visibility() {
        let (dm, session) = dm_with_events();
        // A private event is invisible to guests.
        let svc = dm.services();
        svc.create_hle(&session, &HleSpec::window(1000, 2000, "secret"))
            .unwrap();
        let guest = Session::anonymous("x");
        let plot = catalog_density(&dm, &guest, ranges()).unwrap();
        assert_eq!(plot.total(), 50, "private event excluded");
        let _ = session;
    }

    #[test]
    fn extent_and_clusters() {
        let (dm, session) = dm_with_events();
        let plot = catalog_extent(&dm, &session, ranges()).unwrap();
        assert!(plot.occupied() > 0);
        let rows = cluster_rows(&plot);
        assert!(!rows.is_empty());
        let total: u64 = rows.iter().map(|(_, c, _)| *c).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn shipping_compresses() {
        let (dm, session) = dm_with_events();
        let plot = catalog_density(&dm, &session, ranges()).unwrap();
        let (encoded, raw) = ship_density(&plot, 0.5);
        assert!(
            encoded.len() < raw / 2,
            "encoded {} vs raw {raw}",
            encoded.len()
        );
        // Decodes to the same bin count.
        let back = hedc_wavelet::decode_prefix(&encoded, usize::MAX).unwrap();
        assert_eq!(back.len(), 400);
    }

    #[test]
    fn pgm_rendering_shape() {
        let (dm, session) = dm_with_events();
        let plot = catalog_density(&dm, &session, ranges()).unwrap();
        let pgm = render_pgm(&plot);
        let header = b"P5\n20 20\n255\n";
        assert!(pgm.starts_with(header));
        assert_eq!(pgm.len(), header.len() + 400);
        // Peak bin maps to 255.
        assert!(pgm[header.len()..].contains(&255));
    }
}
