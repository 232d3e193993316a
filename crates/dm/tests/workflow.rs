//! The workflow engine on a toy three-step table (§5.2: "logging and
//! compensation"), independent of ingest and rebalance.
//!
//! Each toy step's effect is one `op_log` line carrying the step's name;
//! compensation deletes that line. The suite pins the engine's contract:
//! one journal row per step, a done run is read-only, an interrupted step
//! is compensated exactly once, a boundary resume compensates nothing, and
//! the journal reader tolerates junk rows but not a corrupt winning row.

use hedc_dm::testkit::node;
use hedc_dm::workflow::{self, Probe, Workflow, JOURNAL_TABLE};
use hedc_dm::{CrashSite, DmError, DmIo, Step};
use hedc_metadb::{Expr, Query, Statement, Value};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Toy {
    Fetch,
    Stamp,
    File,
}

impl Step for Toy {
    const KIND: &'static str = "toy";
    const TABLE: &'static [(Self, &'static str)] = &[
        (Toy::Fetch, "fetch"),
        (Toy::Stamp, "stamp"),
        (Toy::File, "file"),
    ];
}

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct ToyState {
    applied: Vec<String>,
}

/// One toy run; `calls` records every `exec`/`compensate` the engine made.
struct ToyRun<'a> {
    io: &'a DmIo,
    calls: RefCell<Vec<String>>,
}

impl<'a> ToyRun<'a> {
    fn new(io: &'a DmIo) -> Self {
        ToyRun {
            io,
            calls: RefCell::new(Vec::new()),
        }
    }
}

impl Workflow for ToyRun<'_> {
    type Step = Toy;
    type State = ToyState;

    fn key(&self) -> String {
        "run-1".into()
    }

    fn exec(&self, step: Toy, state: &mut ToyState, _probe: &Probe<Toy>) -> hedc_dm::DmResult<()> {
        self.calls
            .borrow_mut()
            .push(format!("exec {}", step.text()));
        self.io.log("info", "toy", step.text())?;
        state.applied.push(step.text().to_string());
        Ok(())
    }

    fn compensate(&self, step: Toy, _state: &ToyState) -> hedc_dm::DmResult<usize> {
        self.calls
            .borrow_mut()
            .push(format!("compensate {}", step.text()));
        self.io.execute(Statement::Delete {
            table: "op_log".into(),
            filter: Some(Expr::eq("component", "toy").and(Expr::eq("message", step.text()))),
        })
    }
}

fn store() -> DmIo {
    node("workflow-toy", Default::default())
}

/// Canonical dump of the journal and the effects table.
fn dump(io: &DmIo) -> Vec<String> {
    let mut out = Vec::new();
    for table in [JOURNAL_TABLE, "op_log"] {
        let r = io.query(&Query::table(table)).unwrap();
        out.extend(r.rows.iter().map(|row| format!("{table}|{row:?}")));
    }
    out.sort();
    out
}

fn journal_rows(io: &DmIo) -> usize {
    io.query(&Query::table(JOURNAL_TABLE)).unwrap().rows.len()
}

/// Run (or resume) the toy workflow to its end, dying at `crash` if set.
fn drive(io: &DmIo, crash: Option<CrashSite<Toy>>) -> Result<ToyRun<'_>, DmError> {
    let wf = ToyRun::new(io);
    let mut run = workflow::resume(io, &wf)?;
    workflow::advance(io, &wf, &mut run, Toy::File, &Probe(crash))?;
    Ok(wf)
}

fn plant(io: &DmIo, step: &str, payload: &str) {
    let id = io.next_id();
    io.insert(
        JOURNAL_TABLE,
        vec![
            Value::Int(id),
            Value::Text(Toy::KIND.into()),
            Value::Text("run-1".into()),
            Value::Text(step.into()),
            Value::Text(payload.into()),
            Value::Int(0),
        ],
    )
    .unwrap();
}

#[test]
fn fresh_run_journals_one_row_per_step() {
    let io = store();
    let wf = ToyRun::new(&io);
    let mut run = workflow::resume(&io, &wf).unwrap();
    assert_eq!(run.resumed_from, None);
    assert_eq!(run.next_step(), Some(Toy::Fetch));
    // Steps run only as far as asked.
    workflow::advance(&io, &wf, &mut run, Toy::Stamp, &Probe(None)).unwrap();
    assert_eq!(journal_rows(&io), 2);
    assert_eq!(run.next_step(), Some(Toy::File));
    workflow::advance(&io, &wf, &mut run, Toy::File, &Probe(None)).unwrap();
    assert_eq!(journal_rows(&io), 3);
    assert_eq!(run.next_step(), None);
    assert_eq!(run.state.applied, ["fetch", "stamp", "file"]);
    assert_eq!(
        *wf.calls.borrow(),
        ["exec fetch", "exec stamp", "exec file"]
    );
}

#[test]
fn done_run_is_skipped_read_only() {
    let io = store();
    drive(&io, None).unwrap();
    let before = dump(&io);
    let next_id = io.next_id();

    let wf = ToyRun::new(&io);
    let mut run = workflow::resume(&io, &wf).unwrap();
    assert_eq!(run.resumed_from, Some(Toy::File));
    assert_eq!(run.next_step(), None);
    assert_eq!(run.compensations, 0);
    assert_eq!(run.state.applied, ["fetch", "stamp", "file"]);
    workflow::advance(&io, &wf, &mut run, Toy::File, &Probe(None)).unwrap();

    assert!(wf.calls.borrow().is_empty(), "{:?}", wf.calls.borrow());
    assert_eq!(dump(&io), before, "a done run writes nothing");
    assert_eq!(io.next_id(), next_id + 1, "and allocates no id");
}

#[test]
fn mid_step_resume_compensates_the_interrupted_step_exactly_once() {
    let io = store();
    let died = drive(&io, Some(CrashSite::MidStep(Toy::Stamp)));
    assert!(matches!(died, Err(DmError::Crashed(_))), "{:?}", died.err());
    assert_eq!(
        journal_rows(&io),
        1,
        "the stamp row was lost with the crash"
    );

    let wf = ToyRun::new(&io);
    let mut run = workflow::resume(&io, &wf).unwrap();
    assert_eq!(run.resumed_from, Some(Toy::Fetch));
    assert_eq!(run.next_step(), Some(Toy::Stamp));
    assert_eq!(run.compensations, 1, "the half-done stamp line is removed");
    workflow::advance(&io, &wf, &mut run, Toy::File, &Probe(None)).unwrap();
    assert_eq!(
        *wf.calls.borrow(),
        ["compensate stamp", "exec stamp", "exec file"]
    );

    // Same final state as an uninterrupted twin: three rows, three lines.
    assert_eq!(journal_rows(&io), 3);
    let lines = io.query(&Query::table("op_log")).unwrap().rows.len();
    assert_eq!(lines, 3, "no duplicated effect");
}

#[test]
fn boundary_resume_performs_no_compensation_and_matches_the_twin() {
    let twin = store();
    drive(&twin, None).unwrap();

    for (step, _) in Toy::TABLE {
        let io = store();
        let died = drive(&io, Some(CrashSite::Boundary(*step)));
        assert!(matches!(died, Err(DmError::Crashed(_))), "{step:?}");
        let wf = ToyRun::new(&io);
        let mut run = workflow::resume(&io, &wf).unwrap();
        assert_eq!(run.resumed_from, Some(*step), "{step:?}");
        assert_eq!(run.compensations, 0, "{step:?}: nothing to undo");
        workflow::advance(&io, &wf, &mut run, Toy::File, &Probe(None)).unwrap();
        let executed = wf
            .calls
            .borrow()
            .iter()
            .filter(|c| c.starts_with("exec"))
            .count();
        assert_eq!(executed, 2 - step.index(), "{step:?}: only the rest runs");
        assert_eq!(
            dump(&io),
            dump(&twin),
            "{step:?}: byte-identical to the twin"
        );
    }
}

#[test]
fn reader_skips_junk_rows_and_rejects_a_corrupt_winner() {
    // An unknown step text and a corrupt payload on an *early* row are both
    // harmless: only the furthest known step's payload is read.
    let io = store();
    plant(&io, "teleport", "not json");
    plant(&io, "fetch", "not json");
    plant(&io, "stamp", r#"{"applied":["fetch","stamp"]}"#);
    let wf = ToyRun::new(&io);
    let run = workflow::resume(&io, &wf).unwrap();
    assert_eq!(run.resumed_from, Some(Toy::Stamp));
    assert_eq!(run.state.applied, ["fetch", "stamp"]);

    // A corrupt payload on the winning row is an integrity error.
    let io = store();
    plant(&io, "fetch", r#"{"applied":["fetch"]}"#);
    plant(&io, "stamp", "not json");
    let wf = ToyRun::new(&io);
    match workflow::resume(&io, &wf) {
        Err(DmError::Integrity(msg)) => assert!(msg.contains("run-1"), "{msg}"),
        other => panic!(
            "expected an integrity error, got {:?}",
            other.map(|r| r.state)
        ),
    }
    assert!(wf.calls.borrow().is_empty(), "nothing ran on a bad journal");
}
