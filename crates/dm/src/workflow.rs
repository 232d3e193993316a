//! The generic workflow engine of the process layer (§5.2: "multi-step
//! workflows with logging and compensation"). The discipline lives here
//! once; data loading ([`crate::pipeline`]) and shard rebalancing
//! ([`crate::shard::ShardMover`]) are two step tables over it.
//!
//! * **Journal after effects** — completing a step appends one
//!   `op_workflow_journal` row *after* the step's effects, so a recovered
//!   journal never claims work that did not happen. Rows are ordinary
//!   inserts and ride the metadb WAL; the payload is the run's *cumulative*
//!   state, so the furthest row alone suffices to resume.
//! * **Resume** — a run whose last step is recorded is done and re-running
//!   it is read-only; otherwise the first unrecorded step is compensated
//!   once and the run continues there. A crash at a step boundary therefore
//!   resumes without any compensating action.

use crate::error::{DmError, DmResult};
use crate::io::DmIo;
use hedc_metadb::{ColumnDef, DataType, Expr, Query, Schema, Value};
use serde::{de::DeserializeOwned, Serialize};
use std::fmt::Debug;

/// Name of the journal table.
pub const JOURNAL_TABLE: &str = "op_workflow_journal";

/// `op_workflow_journal`: one row per completed step of one run. `kind`
/// names the step table, `key` the run (stable across retries), `payload`
/// is the run's cumulative JSON state.
pub fn journal_schema() -> Schema {
    Schema::new(
        JOURNAL_TABLE,
        vec![
            ColumnDef::new("id", DataType::Int).not_null(),
            ColumnDef::new("kind", DataType::Text).not_null(),
            ColumnDef::new("key", DataType::Text).not_null(),
            ColumnDef::new("step", DataType::Text).not_null(),
            ColumnDef::new("payload", DataType::Text),
            ColumnDef::new("ts_ms", DataType::Timestamp).not_null(),
        ],
    )
    .primary_key(&["id"])
}

/// The steps of one workflow kind: a plain `Copy` enum plus its table.
pub trait Step: Copy + PartialEq + Debug + 'static {
    /// Journal `kind` column value.
    const KIND: &'static str;
    /// Every step in execution order, with its journal `step` text.
    const TABLE: &'static [(Self, &'static str)];

    /// Position in [`Step::TABLE`].
    fn index(self) -> usize {
        Self::TABLE
            .iter()
            .position(|(s, _)| *s == self)
            .expect("every step is listed in its table")
    }

    /// This step's journal text.
    fn text(self) -> &'static str {
        Self::TABLE[self.index()].1
    }
}

/// One run of a workflow: the per-step effects over a [`Step`] table.
pub trait Workflow {
    /// The step table this run walks.
    type Step: Step;
    /// Cumulative run state, journaled whole with every step.
    type State: Serialize + DeserializeOwned + Default;

    /// Journal key of this run: stable across retries of the same work.
    fn key(&self) -> String;

    /// Apply `step`'s effects, recording what later steps need in `state`.
    /// A step with many effects calls [`Probe::mid_step`] half-way through.
    fn exec(
        &self,
        step: Self::Step,
        state: &mut Self::State,
        probe: &Probe<Self::Step>,
    ) -> DmResult<()>;

    /// Remove whatever a crashed attempt of `step` left behind so it can
    /// re-run from a clean slate; returns the number of compensating
    /// actions. Must key off deterministic properties of the run, never off
    /// ids the crash may not have persisted.
    fn compensate(&self, step: Self::Step, state: &Self::State) -> DmResult<usize>;
}

/// Where, relative to one step, an injected crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite<S> {
    /// After (some of) the step's effects but *before* its journal row.
    /// Resume must compensate.
    MidStep(S),
    /// After the step's journal row: a clean step boundary. Resume must
    /// continue without compensation.
    Boundary(S),
}

impl<S: Step> CrashSite<S> {
    /// Every cell of a crash matrix: `steps × {MidStep, Boundary}`.
    pub fn all() -> impl Iterator<Item = CrashSite<S>> {
        S::TABLE
            .iter()
            .flat_map(|(s, _)| [CrashSite::MidStep(*s), CrashSite::Boundary(*s)])
    }

    /// One cell of the matrix, drawn from the stream the caller hands in
    /// (a run's `"workflow-crash"` stream).
    pub fn drawn(stream: &mut hedc_obs::Stream) -> CrashSite<S> {
        *stream.pick(&Self::all().collect::<Vec<_>>())
    }
}

/// A one-shot injected process crash (tests, the bench crash cycle): the
/// run dies with [`DmError::Crashed`] on reaching the armed site. `None`
/// in production.
#[derive(Debug, Clone, Copy)]
pub struct Probe<S>(pub Option<CrashSite<S>>);

impl<S: Step> Probe<S> {
    /// Die here if armed for the middle of `step`. [`advance`] calls this
    /// after a step's effects; step bodies may call it earlier.
    pub fn mid_step(&self, step: S) -> DmResult<()> {
        self.fire(CrashSite::MidStep(step))
    }

    fn fire(&self, site: CrashSite<S>) -> DmResult<()> {
        if self.0 != Some(site) {
            return Ok(());
        }
        let at = format!("{} {site:?}", S::KIND);
        hedc_obs::emit(
            hedc_obs::kind::FAULT_INJECT,
            format!("workflow crash injected: {at}"),
        );
        Err(DmError::Crashed(at))
    }
}

/// A run's position in its step table plus its cumulative state.
#[derive(Debug)]
pub struct Run<S, T> {
    /// Cumulative state: restored from the journal, extended by each step.
    pub state: T,
    /// Index of the first step not yet recorded.
    next: usize,
    /// The furthest step a prior attempt recorded, if any.
    pub resumed_from: Option<S>,
    /// Compensating actions [`resume`] took for the interrupted step.
    pub compensations: usize,
}

impl<S: Step, T> Run<S, T> {
    /// The first step not yet recorded; `None` once the run is done.
    pub fn next_step(&self) -> Option<S> {
        S::TABLE.get(self.next).map(|(s, _)| *s)
    }
}

/// Enter a run from its journal trail: fresh when there is none, done when
/// the last step is recorded (nothing is written), otherwise positioned at
/// the first unrecorded step after compensating that step once.
pub fn resume<W: Workflow>(io: &DmIo, wf: &W) -> DmResult<Run<W::Step, W::State>> {
    let Some((last, state)) = journal_last::<W>(io, &wf.key())? else {
        return Ok(Run {
            state: W::State::default(),
            next: 0,
            resumed_from: None,
            compensations: 0,
        });
    };
    let compensations = match W::Step::TABLE.get(last + 1) {
        Some((interrupted, _)) => wf.compensate(*interrupted, &state)?,
        None => 0,
    };
    Ok(Run {
        state,
        next: last + 1,
        resumed_from: Some(W::Step::TABLE[last].0),
        compensations,
    })
}

/// Execute the run's unrecorded steps up to and including `through`,
/// journaling each after its effects.
pub fn advance<W: Workflow>(
    io: &DmIo,
    wf: &W,
    run: &mut Run<W::Step, W::State>,
    through: W::Step,
    probe: &Probe<W::Step>,
) -> DmResult<()> {
    let through = through.index();
    while run.next <= through {
        let (step, text) = W::Step::TABLE[run.next];
        wf.exec(step, &mut run.state, probe)?;
        probe.mid_step(step)?;
        journal_append(io, W::Step::KIND, wf.key(), text, &run.state)?;
        probe.fire(CrashSite::Boundary(step))?;
        run.next += 1;
    }
    Ok(())
}

fn bad_payload(kind: &str, key: &str, e: impl std::fmt::Display) -> DmError {
    DmError::Integrity(format!("{kind} journal payload for `{key}`: {e}"))
}

fn journal_append<T: Serialize>(
    io: &DmIo,
    kind: &str,
    key: String,
    step: &str,
    state: &T,
) -> DmResult<()> {
    let payload = serde_json::to_string(state).map_err(|e| bad_payload(kind, &key, e))?;
    let id = io.next_id();
    let ts = io.clock.now_ms();
    let row = vec![
        Value::Int(id),
        Value::Text(kind.to_string()),
        Value::Text(key),
        Value::Text(step.to_string()),
        Value::Text(payload),
        Value::Int(ts as i64),
    ];
    io.insert(JOURNAL_TABLE, row)?;
    Ok(())
}

/// The furthest recorded step of run `key` (as a table index) and its
/// state. Rows whose step text is not in the table are ignored; only the
/// winning row's payload is deserialized, and a bad one is an
/// [`DmError::Integrity`] error, not a panic and not a silent restart.
fn journal_last<W: Workflow>(io: &DmIo, key: &str) -> DmResult<Option<(usize, W::State)>> {
    let kind = W::Step::KIND;
    let trail = Query::table(JOURNAL_TABLE)
        .select(&["step", "payload"])
        .filter(Expr::eq("key", key).and(Expr::eq("kind", kind)));
    let rows = io.query(&trail)?.rows;
    let mut best: Option<(usize, &Value)> = None;
    for row in &rows {
        let text = row[0].as_text().unwrap_or_default();
        if let Some(idx) = W::Step::TABLE.iter().position(|(_, t)| *t == text) {
            if best.is_none_or(|(b, _)| idx > b) {
                best = Some((idx, &row[1]));
            }
        }
    }
    let Some((idx, payload)) = best else {
        return Ok(None);
    };
    let text = payload
        .as_text()
        .ok_or_else(|| bad_payload(kind, key, "missing"))?;
    let state = serde_json::from_str(text).map_err(|e| bad_payload(kind, key, e))?;
    Ok(Some((idx, state)))
}
