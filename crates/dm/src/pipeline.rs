//! The concurrent, crash-resumable ingest pipeline (§5.2, §6).
//!
//! §5.2 describes loading as "a multi-step workflow with logging and
//! compensation"; §6 requires it to keep pace with the continuous RHESSI
//! downlink. This module provides both properties on top of the existing
//! single-unit ingest logic:
//!
//! * **Staged parallelism** — [`ingest`] runs units through five bounded-queue
//!   stages (`package` → `write` → `meta` → `events` → `view`), each with N
//!   worker threads. Bounded channels give backpressure: a slow stage stalls
//!   its producers instead of buffering without limit.
//! * **A persistent workflow journal** — each unit is one run of the
//!   [`crate::workflow`] engine, keyed by its archive path: every completed
//!   step is journaled after its effects, a crashed unit resumes at its first
//!   unrecorded step once that step's partial effects are compensated, and a
//!   unit whose `done` record survived is skipped entirely — re-running an
//!   ingest is idempotent.
//!
//! The step table, in order:
//!
//! | step | effects |
//! |---|---|
//! | `admitted` | none (marks the unit as entered) |
//! | `raw_stored` | raw FITS file in the archive, `loc_entry` + `loc_item` |
//! | `raw_row` | the `raw_unit` tuple |
//! | `events` | detected HLEs + catalog membership + lineage |
//! | `view` | approximated view file, its location rows, `view_meta`, lineage |
//! | `done` | the ingest `op_log` line |
//!
//! Within each step, rows that *reference* are written before rows that are
//! *referenced* (e.g. `loc_entry` before `loc_item`), so a mid-step crash
//! never strands an unreachable row; the compensation queries rediscover
//! partial effects purely from the unit's deterministic keys (archive paths,
//! time window) and remove them before the step re-runs.
//!
//! Determinism: with a single worker, a crash at a step *boundary* (the
//! record was written) followed by a resume performs exactly the same global
//! sequence of id allocations, clock reads, and inserts as an uninterrupted
//! run — the resume path itself is read-only — so the final database state is
//! byte-identical. The crash-point matrix test asserts this per step.

use crate::error::{DmError, DmResult};
use crate::io::DmIo;
use crate::names::{NameType, Names};
use crate::process::{IngestConfig, IngestReport, Processes};
use crate::semantic::{HleSpec, Services};
use crate::session::Session;
use crate::workflow::{self, CrashSite, Probe, Run, Step, Workflow};
use crossbeam::channel::{bounded, Receiver, Sender};
use hedc_events::{detect, EventKind, TelemetryUnit};
use hedc_filestore::checksum;
use hedc_metadb::{Expr, Query, Statement, Value};
use hedc_wavelet::PartitionedView;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Journal steps
// ---------------------------------------------------------------------------

/// One step of the ingest workflow, in execution order. The journal records
/// the *completion* of a step; resumption starts at the successor of the last
/// recorded step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JournalStep {
    /// The unit entered the pipeline (no effects; anchors the unit key).
    Admitted,
    /// Raw FITS file stored and its location rows written.
    RawStored,
    /// The `raw_unit` tuple inserted.
    RawRow,
    /// Event detection ran; HLEs, catalog members, lineage written.
    Events,
    /// The load-time approximated view stored and registered.
    View,
    /// The ingest log line written; the unit is complete.
    Done,
}

impl Step for JournalStep {
    const KIND: &'static str = "ingest";
    const TABLE: &'static [(Self, &'static str)] = &[
        (JournalStep::Admitted, "admitted"),
        (JournalStep::RawStored, "raw_stored"),
        (JournalStep::RawRow, "raw_row"),
        (JournalStep::Events, "events"),
        (JournalStep::View, "view"),
        (JournalStep::Done, "done"),
    ];
}

// ---------------------------------------------------------------------------
// Crash injection (tests and the bench crash-cycle)
// ---------------------------------------------------------------------------

/// A one-shot injected process crash: ingest dies with [`DmError::Crashed`]
/// when the named unit reaches the named site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// `TelemetryUnit::seq` of the victim unit.
    pub unit_seq: u32,
    /// Crash site within that unit's workflow.
    pub site: CrashSite<JournalStep>,
}

// ---------------------------------------------------------------------------
// Options and reports
// ---------------------------------------------------------------------------

/// Tuning for one ingest run.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Worker threads per stage. `0` or `1` selects the serial executor
    /// (which is also the deterministic one the crash matrix uses).
    pub workers: usize,
    /// Bound of each inter-stage queue (backpressure window).
    pub queue_depth: usize,
    /// Injected crash, if any (tests, bench crash-cycle).
    pub crash: Option<CrashPlan>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            workers: 1,
            queue_depth: 8,
            crash: None,
        }
    }
}

impl IngestOptions {
    /// Staged ingest with `n` workers per stage.
    pub fn with_workers(n: usize) -> Self {
        IngestOptions {
            workers: n,
            ..IngestOptions::default()
        }
    }
}

/// Terminal status of one unit in a pipeline run. Every submitted unit gets
/// exactly one status — the accounting invariant the report enforces.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitStatus {
    /// Ingested from scratch in this run.
    Ingested,
    /// A prior attempt left a journal trail; this run finished the remainder.
    Resumed {
        /// Last step the prior attempt completed.
        from: JournalStep,
        /// Number of compensating actions (row deletes, file deletes) taken
        /// before re-running the interrupted step.
        compensations: usize,
    },
    /// The journal already carried a `done` record: nothing to do.
    Skipped,
    /// The unit failed with the attached error; later units still ran.
    Failed,
}

/// Outcome of one unit.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// `TelemetryUnit::seq` of the unit.
    pub seq: u32,
    /// Terminal status.
    pub status: UnitStatus,
    /// What the unit produced (also reconstructed for skipped units from the
    /// journal payload). `None` only for failed units.
    pub report: Option<IngestReport>,
    /// The failure, when `status` is [`UnitStatus::Failed`].
    pub error: Option<DmError>,
}

impl UnitResult {
    fn failed(seq: u32, error: DmError) -> UnitResult {
        UnitResult {
            seq,
            status: UnitStatus::Failed,
            report: None,
            error: Some(error),
        }
    }
}

/// Aggregated outcome of one pipeline run. Unlike the original all-or-nothing
/// loader, every submitted unit is accounted for exactly once:
/// `ingested + resumed + skipped + failed == submitted`.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Units handed to the run.
    pub submitted: usize,
    /// Units ingested from scratch.
    pub ingested: usize,
    /// Units resumed from a journal trail.
    pub resumed: usize,
    /// Units already complete (journaled `done`).
    pub skipped: usize,
    /// Units that failed (their errors are in `units`).
    pub failed: usize,
    /// Total compensating actions across resumed units.
    pub compensations: usize,
    /// HLEs created or re-counted by completed units.
    pub hle_count: usize,
    /// Bytes stored by units completed in this run (skipped units excluded).
    pub bytes_stored: u64,
    /// Per-unit outcomes, sorted by `seq`.
    pub units: Vec<UnitResult>,
}

impl PipelineReport {
    /// Whether every submitted unit landed in exactly one status bucket.
    pub fn fully_accounted(&self) -> bool {
        self.ingested + self.resumed + self.skipped + self.failed == self.submitted
    }

    fn from_units(submitted: usize, mut units: Vec<UnitResult>) -> PipelineReport {
        units.sort_by_key(|u| u.seq);
        let mut rep = PipelineReport {
            submitted,
            ..PipelineReport::default()
        };
        for u in &units {
            match &u.status {
                UnitStatus::Ingested => rep.ingested += 1,
                UnitStatus::Resumed { compensations, .. } => {
                    rep.resumed += 1;
                    rep.compensations += *compensations;
                }
                UnitStatus::Skipped => rep.skipped += 1,
                UnitStatus::Failed => rep.failed += 1,
            }
            if let Some(r) = &u.report {
                rep.hle_count += r.hle_ids.len();
                if !matches!(u.status, UnitStatus::Skipped) {
                    rep.bytes_stored += r.bytes_stored;
                }
            }
        }
        let obs = hedc_obs::global();
        obs.counter("ingest.units_ingested")
            .add(rep.ingested as u64);
        obs.counter("ingest.units_resumed").add(rep.resumed as u64);
        obs.counter("ingest.units_skipped").add(rep.skipped as u64);
        obs.counter("ingest.units_failed").add(rep.failed as u64);
        rep.units = units;
        rep
    }
}

// ---------------------------------------------------------------------------
// Journal state
// ---------------------------------------------------------------------------

/// Cumulative per-unit workflow state, serialized into the journal `payload`
/// column at every step so the *last* record alone suffices to resume.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
struct UnitState {
    raw_item: Option<i64>,
    raw_entry: Option<i64>,
    raw_id: Option<i64>,
    hle_ids: Vec<i64>,
    view_item: Option<i64>,
    view_entry: Option<i64>,
    view_id: Option<i64>,
    raw_bytes: u64,
    view_bytes: u64,
}

impl UnitState {
    fn report(&self) -> IngestReport {
        IngestReport {
            raw_id: self.raw_id.unwrap_or(-1),
            hle_ids: self.hle_ids.clone(),
            view_id: self.view_id.unwrap_or(-1),
            bytes_stored: self.raw_bytes + self.view_bytes,
        }
    }
}

fn done_message(unit: &TelemetryUnit, state: &UnitState) -> String {
    format!(
        "unit {} ingested: {} photons, {} events, {} bytes",
        unit.seq,
        unit.photons.len(),
        state.hle_ids.len(),
        state.raw_bytes + state.view_bytes
    )
}

// ---------------------------------------------------------------------------
// Artifacts: CPU-heavy byte products, computed once in the package stage
// ---------------------------------------------------------------------------

/// Serialized byte products of a unit. The package stage precomputes them so
/// DB-bound stages don't repeat the CPU work; the serial path fills them
/// lazily.
#[derive(Debug, Default)]
struct Artifacts {
    fits: OnceLock<Vec<u8>>,
    view: OnceLock<Vec<u8>>,
}

impl Artifacts {
    fn fits(&self, unit: &TelemetryUnit) -> &[u8] {
        self.fits.get_or_init(|| unit.to_fits().to_bytes())
    }

    fn view(&self, unit: &TelemetryUnit, cfg: &IngestConfig) -> &[u8] {
        self.view.get_or_init(|| build_view_bytes(unit, cfg))
    }

    /// Eagerly compute whatever the steps from `next` on will need.
    fn precompute(&self, unit: &TelemetryUnit, cfg: &IngestConfig, next: JournalStep) {
        if next.index() <= JournalStep::RawStored.index() {
            let _ = self.fits(unit);
        }
        if next.index() <= JournalStep::View.index() {
            let _ = self.view(unit, cfg);
        }
    }
}

fn build_view_bytes(unit: &TelemetryUnit, cfg: &IngestConfig) -> Vec<u8> {
    let counts =
        hedc_events::bin_counts(&unit.photons, unit.start_ms, unit.end_ms, cfg.view_bin_ms);
    let signal: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    PartitionedView::build(&signal, cfg.view_partition, cfg.view_quant).to_bytes()
}

// ---------------------------------------------------------------------------
// The unit workflow: step bodies and compensation over the shared engine
// ---------------------------------------------------------------------------

/// One unit mid-flight through the stages.
struct Flight<'a> {
    flow: UnitFlow<'a>,
    run: Run<JournalStep, UnitState>,
    /// Decided at admission: skipped (`done` survived), resumed, or fresh.
    status: UnitStatus,
    probe: Probe<JournalStep>,
    /// Per-unit trace root, minted by the package stage and finished by
    /// whichever stage terminates the unit (done or failed). Stages adopt
    /// its context so their spans join one tree per unit.
    trace: Option<hedc_obs::PendingRoot>,
    /// When the unit was handed to the current stage's queue, for the
    /// `ingest.queue_wait.<stage>` attribution spans.
    handed_off: Option<Instant>,
}

impl Flight<'_> {
    /// Execute steps up to and including `through`, journaling each.
    fn advance(&mut self, through: JournalStep) -> DmResult<()> {
        workflow::advance(
            self.flow.io,
            &self.flow,
            &mut self.run,
            through,
            &self.probe,
        )
    }

    fn into_result(self) -> UnitResult {
        UnitResult {
            seq: self.flow.unit.seq,
            status: self.status,
            report: Some(self.run.state.report()),
            error: None,
        }
    }
}

/// What every unit of one ingest run shares.
struct UnitRunner<'a> {
    io: &'a DmIo,
    session: &'a Session,
    cfg: &'a IngestConfig,
    crash: Option<CrashPlan>,
}

impl<'a> UnitRunner<'a> {
    /// Read the unit's journal trail and decide how to enter the workflow:
    /// fresh, resumed at the first unrecorded step (after compensating any
    /// partial effects of that step), or skipped because `done` survived —
    /// advancing a skipped flight is a no-op.
    fn admit(&self, unit: &'a TelemetryUnit) -> DmResult<Flight<'a>> {
        let flow = UnitFlow {
            io: self.io,
            session: self.session,
            cfg: self.cfg,
            unit,
            art: Artifacts::default(),
        };
        let run = workflow::resume(self.io, &flow)?;
        let status = match (run.next_step(), run.resumed_from) {
            (None, _) => UnitStatus::Skipped,
            (Some(_), None) => UnitStatus::Ingested,
            (Some(next), Some(from)) => {
                let (seq, n, next, last) = (unit.seq, run.compensations, next.text(), from.text());
                if n > 0 {
                    hedc_obs::emit(
                        hedc_obs::kind::INGEST_COMPENSATE,
                        format!("unit {seq} step {next}: {n} compensating actions"),
                    );
                    hedc_obs::global()
                        .counter("ingest.compensations")
                        .add(n as u64);
                }
                hedc_obs::emit(
                    hedc_obs::kind::INGEST_RESUME,
                    format!("unit {seq} resumes at {next} (journal ends after {last})"),
                );
                UnitStatus::Resumed {
                    from,
                    compensations: n,
                }
            }
        };
        let site = self
            .crash
            .filter(|p| p.unit_seq == unit.seq)
            .map(|p| p.site);
        Ok(Flight {
            flow,
            run,
            status,
            probe: Probe(site),
            trace: None,
            handed_off: None,
        })
    }
}

/// One unit's run of the ingest step table.
struct UnitFlow<'a> {
    io: &'a DmIo,
    session: &'a Session,
    cfg: &'a IngestConfig,
    unit: &'a TelemetryUnit,
    art: Artifacts,
}

impl Workflow for UnitFlow<'_> {
    type Step = JournalStep;
    type State = UnitState;

    fn key(&self) -> String {
        self.unit.archive_path()
    }

    fn exec(
        &self,
        step: JournalStep,
        state: &mut UnitState,
        _probe: &Probe<JournalStep>,
    ) -> DmResult<()> {
        match step {
            JournalStep::Admitted => Ok(()),
            JournalStep::RawStored => self.step_raw_stored(state),
            JournalStep::RawRow => self.step_raw_row(state),
            JournalStep::Events => self.step_events(state),
            JournalStep::View => self.step_view(state),
            JournalStep::Done => self.step_done(state),
        }
    }

    /// Every query keys off deterministic unit properties — archive paths,
    /// the unit's time window — never off allocated ids, which the crash may
    /// not have persisted anywhere.
    fn compensate(&self, step: JournalStep, state: &UnitState) -> DmResult<usize> {
        match step {
            JournalStep::Admitted => Ok(0),
            JournalStep::RawStored => {
                self.compensate_file_location(self.unit.archive_path(), self.cfg.raw_archive)
            }
            JournalStep::RawRow => self.compensate_raw_row(state),
            JournalStep::Events => self.compensate_events(),
            JournalStep::View => self.compensate_view(state),
            JournalStep::Done => self.compensate_done(state),
        }
    }
}

impl UnitFlow<'_> {
    /// Store `bytes` at `path` in `archive` and register the location:
    /// returns `(item_id, entry_id, size)`. The mirror of
    /// [`UnitFlow::compensate_file_location`].
    fn store_located(&self, archive: u32, path: String, bytes: &[u8]) -> DmResult<(i64, i64, u64)> {
        let physical = Names::new(self.io).physical_path(archive, &path)?;
        self.io.files.store(archive, &physical, bytes)?;
        let item_id = self.io.next_id();
        let entry_id = self.io.next_id();
        // loc_entry before loc_item: a mid-step crash may leave an entry
        // whose item row is missing (cleaned by path-keyed compensation) but
        // never an item row nothing points to.
        self.io.insert(
            "loc_entry",
            vec![
                Value::Int(entry_id),
                Value::Int(item_id),
                Value::Text(NameType::File.as_str().to_string()),
                Value::Int(i64::from(archive)),
                Value::Text(path),
                Value::Int(bytes.len() as i64),
                Value::Int(i64::from(checksum(bytes))),
                Value::Text("data".to_string()),
            ],
        )?;
        let ts = self.io.clock.now_ms();
        self.io
            .insert("loc_item", vec![Value::Int(item_id), Value::Int(ts as i64)])?;
        Ok((item_id, entry_id, bytes.len() as u64))
    }

    fn step_raw_stored(&self, state: &mut UnitState) -> DmResult<()> {
        let (raw_item, entry_id, size) = self.store_located(
            self.cfg.raw_archive,
            self.unit.archive_path(),
            self.art.fits(self.unit),
        )?;
        state.raw_item = Some(raw_item);
        state.raw_entry = Some(entry_id);
        state.raw_bytes = size;
        Ok(())
    }

    fn step_raw_row(&self, state: &mut UnitState) -> DmResult<()> {
        let unit = self.unit;
        let raw_item = state.raw_item.ok_or_else(|| {
            DmError::Integrity("ingest journal: raw_row without raw_stored".into())
        })?;
        let raw_id = self.io.next_id();
        self.io.insert(
            "raw_unit",
            vec![
                Value::Int(raw_id),
                Value::Int(i64::from(unit.seq)),
                Value::Int(unit.start_ms as i64),
                Value::Int(unit.end_ms as i64),
                Value::Int(unit.photons.len() as i64),
                Value::Int(i64::from(unit.calib_version)),
                Value::Int(raw_item),
                Value::Int(state.raw_bytes as i64),
                Value::Bool(false),
            ],
        )?;
        state.raw_id = Some(raw_id);
        Ok(())
    }

    fn step_events(&self, state: &mut UnitState) -> DmResult<()> {
        let unit = self.unit;
        let svc = Services::new(self.io);
        let procs = Processes::new(self.io);
        let raw_id = state
            .raw_id
            .ok_or_else(|| DmError::Integrity("ingest journal: events without raw_row".into()))?;
        let detected = detect(&unit.photons, unit.start_ms, unit.end_ms, &self.cfg.detect);
        for ev in &detected {
            let spec = HleSpec {
                time_start: ev.start_ms,
                time_end: ev.end_ms,
                energy_lo: 3.0,
                energy_hi: 20_000.0,
                event_type: ev.kind.type_name().to_string(),
                flare_class: match ev.kind {
                    EventKind::Flare(c) => Some(c.label().to_string()),
                    _ => None,
                },
                peak_rate: Some(ev.peak_rate),
                hardness: Some(ev.hardness),
                n_photons: Some(ev.photon_count as i64),
                title: Some(format!("{} @ {}", ev.kind.type_name(), ev.start_ms)),
                source: "detection".to_string(),
                calib_version: unit.calib_version,
            };
            let hle_id = svc.create_hle(self.session, &spec)?;
            svc.publish(self.session, "hle", hle_id)?;
            svc.add_to_catalog(self.session, self.cfg.extended_catalog, hle_id)?;
            procs.lineage(
                "hle",
                hle_id,
                Some(("raw_unit", raw_id)),
                "detect",
                unit.calib_version,
            )?;
            state.hle_ids.push(hle_id);
        }
        Ok(())
    }

    fn step_view(&self, state: &mut UnitState) -> DmResult<()> {
        let unit = self.unit;
        let raw_id = state
            .raw_id
            .ok_or_else(|| DmError::Integrity("ingest journal: view without raw_row".into()))?;
        let (view_item, entry_id, size) = self.store_located(
            self.cfg.derived_archive,
            view_path_of(unit, self.cfg),
            self.art.view(unit, self.cfg),
        )?;
        let view_id = self.io.next_id();
        self.io.insert(
            "view_meta",
            vec![
                Value::Int(view_id),
                Value::Int(unit.start_ms as i64),
                Value::Int(unit.end_ms as i64),
                Value::Int(self.cfg.view_bin_ms as i64),
                Value::Int(self.cfg.view_partition as i64),
                Value::Float(self.cfg.view_quant),
                Value::Int(view_item),
                Value::Int(i64::from(unit.calib_version)),
            ],
        )?;
        Processes::new(self.io).lineage(
            "view",
            view_id,
            Some(("raw_unit", raw_id)),
            "wavelet",
            unit.calib_version,
        )?;
        state.view_item = Some(view_item);
        state.view_entry = Some(entry_id);
        state.view_id = Some(view_id);
        state.view_bytes = size;
        Ok(())
    }

    fn step_done(&self, state: &UnitState) -> DmResult<()> {
        self.io
            .log("info", "ingest", &done_message(self.unit, state))
    }

    // -- compensation -------------------------------------------------------

    /// Delete the location rows and archive file of one path, if present.
    fn compensate_file_location(&self, path: String, archive: u32) -> DmResult<usize> {
        let mut n = 0usize;
        let entries = self.io.query(&Query::table("loc_entry").filter(
            Expr::eq("path", path.as_str()).and(Expr::eq("archive_id", i64::from(archive))),
        ))?;
        for row in &entries.rows {
            let entry_id = row[0].as_int().unwrap_or(0);
            let item_id = row[1].as_int().unwrap_or(0);
            n += self.io.execute(Statement::Delete {
                table: "loc_item".into(),
                filter: Some(Expr::eq("item_id", item_id)),
            })?;
            n += self.io.execute(Statement::Delete {
                table: "loc_entry".into(),
                filter: Some(Expr::eq("id", entry_id)),
            })?;
        }
        let names = Names::new(self.io);
        let physical = names.physical_path(archive, &path)?;
        if self.io.files.exists(archive, &physical) {
            self.io.files.delete(archive, &physical)?;
            n += 1;
        }
        Ok(n)
    }

    fn compensate_raw_row(&self, state: &UnitState) -> DmResult<usize> {
        match state.raw_item {
            Some(item) => Ok(self.io.execute(Statement::Delete {
                table: "raw_unit".into(),
                filter: Some(Expr::eq("item_id", item)),
            })?),
            None => Ok(0),
        }
    }

    /// Remove HLEs a crashed events step left behind. Detection HLEs start
    /// inside the unit's half-open time window, and units partition the
    /// downlink on disjoint windows, so `source = 'detection'` rows starting
    /// in `[start_ms, end_ms)` can only be this unit's partial output.
    fn compensate_events(&self) -> DmResult<usize> {
        let unit = self.unit;
        if unit.end_ms <= unit.start_ms {
            return Ok(0);
        }
        let mut n = 0usize;
        let hles = self.io.query(&Query::table("hle").filter(
            Expr::eq("source", "detection").and(Expr::between(
                "time_start",
                unit.start_ms as i64,
                unit.end_ms as i64 - 1,
            )),
        ))?;
        for row in &hles.rows {
            let hle_id = row[0].as_int().unwrap_or(0);
            n += self.io.execute(Statement::Delete {
                table: "catalog_member".into(),
                filter: Some(Expr::eq("hle_id", hle_id)),
            })?;
            n += self.io.execute(Statement::Delete {
                table: "op_lineage".into(),
                filter: Some(Expr::eq("entity_id", hle_id)),
            })?;
            n += self.io.execute(Statement::Delete {
                table: "hle".into(),
                filter: Some(Expr::eq("id", hle_id)),
            })?;
        }
        Ok(n)
    }

    fn compensate_view(&self, state: &UnitState) -> DmResult<usize> {
        let view_path = view_path_of(self.unit, self.cfg);
        let mut n = 0usize;
        let entries = self.io.query(
            &Query::table("loc_entry").filter(
                Expr::eq("path", view_path.as_str())
                    .and(Expr::eq("archive_id", i64::from(self.cfg.derived_archive))),
            ),
        )?;
        for row in &entries.rows {
            let item_id = row[1].as_int().unwrap_or(0);
            n += self.io.execute(Statement::Delete {
                table: "view_meta".into(),
                filter: Some(Expr::eq("item_id", item_id)),
            })?;
        }
        if let Some(raw_id) = state.raw_id {
            n += self.io.execute(Statement::Delete {
                table: "op_lineage".into(),
                filter: Some(Expr::eq("entity_kind", "view").and(Expr::eq("source_id", raw_id))),
            })?;
        }
        n += self.compensate_file_location(view_path, self.cfg.derived_archive)?;
        Ok(n)
    }

    /// The done step's only effect is the ingest log line; its message is
    /// deterministic, so an exact-match delete removes a pre-crash duplicate.
    fn compensate_done(&self, state: &UnitState) -> DmResult<usize> {
        Ok(self.io.execute(Statement::Delete {
            table: "op_log".into(),
            filter: Some(
                Expr::eq("component", "ingest")
                    .and(Expr::eq("message", done_message(self.unit, state).as_str())),
            ),
        })?)
    }
}

fn view_path_of(unit: &TelemetryUnit, cfg: &IngestConfig) -> String {
    format!("views/unit{:06}_b{}.hpv", unit.seq, cfg.view_bin_ms)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Ingest a batch of units: serial when `opts.workers <= 1`, staged-parallel
/// otherwise. Either way the run ends with the operational catalog refresh
/// (`op_archives` synced to the live file-store state) and a WAL flush on
/// every database, so "the run returned" implies "the journal is durable"
/// even under a large group-commit window.
///
/// A [`DmError::Crashed`] (injected crash) aborts the run and propagates —
/// it simulates process death, so no report exists. Any other per-unit error
/// marks that unit [`UnitStatus::Failed`] and the run continues: the report
/// accounts for every submitted unit.
pub fn ingest(
    io: &DmIo,
    session: &Session,
    units: &[TelemetryUnit],
    cfg: &IngestConfig,
    opts: &IngestOptions,
) -> DmResult<PipelineReport> {
    let runner = UnitRunner {
        io,
        session,
        cfg,
        crash: opts.crash,
    };
    let report = if opts.workers <= 1 {
        ingest_serial(&runner, units)?
    } else {
        ingest_parallel(&runner, units, opts)?
    };
    finish(io)?;
    Ok(report)
}

fn finish(io: &DmIo) -> DmResult<()> {
    Processes::new(io).refresh_archive_status()?;
    for db in io.databases() {
        db.wal_flush()?;
    }
    Ok(())
}

fn ingest_serial(runner: &UnitRunner<'_>, units: &[TelemetryUnit]) -> DmResult<PipelineReport> {
    let mut results = Vec::with_capacity(units.len());
    for unit in units {
        // One trace per unit, same shape as the staged pipeline's.
        let root = hedc_obs::Span::root("ingest.unit");
        let outcome = runner.admit(unit).and_then(|mut flight| {
            flight.advance(JournalStep::Done)?;
            Ok(flight.into_result())
        });
        drop(root);
        results.push(match outcome {
            Ok(result) => result,
            Err(crash @ DmError::Crashed(_)) => return Err(crash),
            Err(e) => UnitResult::failed(unit.seq, e),
        });
    }
    Ok(PipelineReport::from_units(units.len(), results))
}

/// Stage-shared control state: the abort latch and the first injected crash.
struct Ctrl {
    abort: AtomicBool,
    crash: parking_lot::Mutex<Option<DmError>>,
}

impl Ctrl {
    fn record_crash(&self, e: DmError) {
        let mut slot = self.crash.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.abort.store(true, Ordering::Relaxed);
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }
}

fn ingest_parallel(
    runner: &UnitRunner<'_>,
    units: &[TelemetryUnit],
    opts: &IngestOptions,
) -> DmResult<PipelineReport> {
    let workers = opts.workers.max(1);
    let depth = opts.queue_depth.max(1);
    let ctrl = Ctrl {
        abort: AtomicBool::new(false),
        crash: parking_lot::Mutex::new(None),
    };

    let (in_tx, in_rx) = bounded::<&TelemetryUnit>(depth);
    let (write_tx, write_rx) = bounded::<Flight<'_>>(depth);
    let (meta_tx, meta_rx) = bounded::<Flight<'_>>(depth);
    let (events_tx, events_rx) = bounded::<Flight<'_>>(depth);
    let (view_tx, view_rx) = bounded::<Flight<'_>>(depth);
    // Unbounded-enough: one result per unit, so cap at the unit count.
    let (res_tx, res_rx) = bounded::<UnitResult>(units.len().max(1));

    let results = std::thread::scope(|s| {
        for _ in 0..workers {
            let (rx, tx, res) = (in_rx.clone(), write_tx.clone(), res_tx.clone());
            let ctrl = &ctrl;
            s.spawn(move || package_worker(runner, rx, tx, res, ctrl));
        }
        let stages = [
            ("write", JournalStep::RawStored, write_rx, Some(meta_tx)),
            ("meta", JournalStep::RawRow, meta_rx, Some(events_tx)),
            ("events", JournalStep::Events, events_rx, Some(view_tx)),
            ("view", JournalStep::Done, view_rx, None),
        ];
        for (name, through, rx, tx) in stages {
            for _ in 0..workers {
                let (rx, tx, res) = (rx.clone(), tx.clone(), res_tx.clone());
                let ctrl = &ctrl;
                s.spawn(move || stage_worker(name, through, rx, tx, res, ctrl));
            }
            // The per-stage clones moved into the workers; dropping the
            // originals here lets each channel close once its stage drains.
            drop((rx, tx));
        }
        drop((in_rx, write_tx, res_tx));
        for unit in units {
            if ctrl.aborted() || in_tx.send(unit).is_err() {
                break;
            }
        }
        drop(in_tx);
        res_rx.iter().collect::<Vec<UnitResult>>()
    });

    if let Some(e) = ctrl.crash.lock().take() {
        return Err(e);
    }
    Ok(PipelineReport::from_units(units.len(), results))
}

/// First stage: journal lookup (admit/skip/resume) plus the CPU-heavy byte
/// products, so the DB-bound stages downstream stay short.
fn package_worker<'u>(
    runner: &UnitRunner<'u>,
    rx: Receiver<&'u TelemetryUnit>,
    tx: Sender<Flight<'u>>,
    results: Sender<UnitResult>,
    ctrl: &Ctrl,
) {
    let obs = hedc_obs::global();
    let queue = obs.gauge("ingest.queue.package");
    let lat = obs.histogram("ingest.stage.package");
    for unit in rx.iter() {
        queue.set(rx.len() as i64);
        if ctrl.aborted() {
            continue;
        }
        let started = Instant::now();
        match runner.admit(unit) {
            Ok(mut flight) => {
                let Some(next) = flight.run.next_step() else {
                    let _ = results.send(flight.into_result());
                    continue;
                };
                // Mint the unit's trace; the package work becomes its first
                // stage span, and downstream stages adopt the same context.
                let root = hedc_obs::PendingRoot::begin("ingest.unit");
                {
                    let _g = hedc_obs::adopt(Some(root.context()));
                    let _span = hedc_obs::Span::child("ingest.stage.package");
                    flight.flow.art.precompute(unit, runner.cfg, next);
                }
                lat.record(started.elapsed());
                flight.trace = Some(root);
                flight.handed_off = Some(Instant::now());
                if tx.send(flight).is_err() {
                    ctrl.abort.store(true, Ordering::Relaxed);
                }
            }
            Err(e @ DmError::Crashed(_)) => ctrl.record_crash(e),
            Err(e) => {
                let _ = results.send(UnitResult::failed(unit.seq, e));
            }
        }
    }
}

/// A DB-bound stage: advance each in-flight unit through this stage's steps,
/// journaling as it goes, then hand it downstream (or finalize it).
fn stage_worker<'u>(
    name: &'static str,
    through: JournalStep,
    rx: Receiver<Flight<'u>>,
    tx: Option<Sender<Flight<'u>>>,
    results: Sender<UnitResult>,
    ctrl: &Ctrl,
) {
    // Span names are `&'static str`, so each stage's are spelled out.
    let (stage_span, wait_span) = match name {
        "write" => ("ingest.stage.write", "ingest.queue_wait.write"),
        "meta" => ("ingest.stage.meta", "ingest.queue_wait.meta"),
        "events" => ("ingest.stage.events", "ingest.queue_wait.events"),
        "view" => ("ingest.stage.view", "ingest.queue_wait.view"),
        other => unreachable!("no ingest stage `{other}`"),
    };
    let obs = hedc_obs::global();
    let queue = obs.gauge(&format!("ingest.queue.{name}"));
    let lat = obs.histogram(stage_span);
    for mut flight in rx.iter() {
        queue.set(rx.len() as i64);
        if ctrl.aborted() {
            continue;
        }
        // Rejoin the unit's trace; the time spent in this stage's queue
        // becomes an attribution span before the stage span opens.
        let trace = hedc_obs::adopt(flight.trace.as_ref().map(|t| t.context()));
        if let Some(handed) = flight.handed_off.take() {
            hedc_obs::record_interval(wait_span, handed);
        }
        let started = Instant::now();
        let outcome = {
            let _span = hedc_obs::Span::child(stage_span);
            flight.advance(through)
        };
        match outcome {
            Ok(()) => {
                lat.record(started.elapsed());
                match &tx {
                    Some(tx) => {
                        // Leaving the trace publishes this stage's spans,
                        // before a later stage can finish the unit's root.
                        drop(trace);
                        flight.handed_off = Some(Instant::now());
                        if tx.send(flight).is_err() {
                            ctrl.abort.store(true, Ordering::Relaxed);
                        }
                    }
                    None => {
                        // Terminal stage: close the unit's trace.
                        if let Some(root) = flight.trace.take() {
                            root.finish();
                        }
                        let _ = results.send(flight.into_result());
                    }
                }
            }
            Err(e @ DmError::Crashed(_)) => ctrl.record_crash(e),
            Err(e) => {
                if let Some(root) = flight.trace.take() {
                    root.finish();
                }
                let _ = results.send(UnitResult::failed(flight.flow.unit.seq, e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accounts_for_every_unit() {
        let mk = |seq: u32, status: UnitStatus| UnitResult {
            seq,
            report: match status {
                UnitStatus::Failed => None,
                _ => Some(IngestReport {
                    raw_id: 1,
                    hle_ids: vec![7, 8],
                    view_id: 2,
                    bytes_stored: 100,
                }),
            },
            error: match status {
                UnitStatus::Failed => Some(DmError::Integrity("x".into())),
                _ => None,
            },
            status,
        };
        let rep = PipelineReport::from_units(
            4,
            vec![
                mk(3, UnitStatus::Failed),
                mk(0, UnitStatus::Ingested),
                mk(
                    1,
                    UnitStatus::Resumed {
                        from: JournalStep::RawRow,
                        compensations: 2,
                    },
                ),
                mk(2, UnitStatus::Skipped),
            ],
        );
        assert!(rep.fully_accounted());
        assert_eq!(
            (rep.ingested, rep.resumed, rep.skipped, rep.failed),
            (1, 1, 1, 1)
        );
        assert_eq!(rep.compensations, 2);
        // Skipped units contribute HLE counts but not "stored this run" bytes.
        assert_eq!(rep.hle_count, 6);
        assert_eq!(rep.bytes_stored, 200);
        // Sorted by seq.
        let seqs: Vec<u32> = rep.units.iter().map(|u| u.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }
}
