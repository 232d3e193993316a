//! Fixed-cost budget of the wire codec.
//!
//! A cluster op is a request out and a result back, so what the codec costs
//! per result is pinned here as counts that repeat exactly — allocations to
//! encode one into a frame, allocations to decode it, bytes on the wire —
//! for the shape the cluster workload ships: 64 rows of the 25-column `hle`
//! tuple. A change that puts a per-row buffer, a second copy of the payload
//! or a text encoding back on the path fails this suite rather than a noisy
//! timing. The other half is what a *hostile* payload may cost: the bytes a
//! decode holds are bounded by the bytes it was sent, whatever counts they
//! state.

use hedc_metadb::{AccessPath, ExecStats, QueryResult, Value};
use hedc_net::frame::{FrameKind, HEADER_LEN, MAX_PAYLOAD_BYTES};
use hedc_net::proto::{self, Request, Response, MAX_BATCH_ENTRIES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's calls into the allocator (`alloc` and `realloc`;
/// frees are not counted), keeps the bytes it has live and their high-water
/// mark, and forwards every call to [`System`].
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counter is gone and the count no longer matters.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// `freed` bytes back, `taken` bytes out. A block freed here may have been
/// allocated on another thread, so the subtraction saturates.
fn note_bytes(freed: usize, taken: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get().saturating_sub(freed) + taken;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// `Cell`s with const initialisers, so touching them never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        note_bytes(0, layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_bytes(layout.size(), 0);
        // SAFETY: `ptr` and `layout` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        note_bytes(layout.size(), new_size);
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

/// The most bytes `f` had live at once, over what was live when it began.
fn peak_bytes_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

const ROWS: usize = 64;

/// 64 rows shaped like `hle`: 25 columns, five of them text (one of those
/// NULL in every row), the rest fixed-width.
fn hle_page() -> QueryResult {
    let columns = [
        "id",
        "owner",
        "item_id",
        "time_start",
        "time_end",
        "energy_lo",
        "energy_hi",
        "event_type",
        "flare_class",
        "peak_rate",
        "hardness",
        "n_photons",
        "calib_version",
        "version",
        "public",
        "title",
        "notes",
        "created_ms",
        "source",
        "position_x",
        "position_y",
        "goes_flux",
        "active_region",
        "quality",
        "obsolete",
    ];
    let rows = (0..ROWS as i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(1),
                Value::Int(1_000 + i),
                Value::Timestamp(60_000 * i),
                Value::Timestamp(60_000 * i + 45_000),
                Value::Float(3.0),
                Value::Float(20_000.0),
                Value::Text("flare".into()),
                Value::Text("M1.2".into()),
                Value::Float(123.5 + i as f64),
                Value::Float(0.25),
                Value::Int(100_000 + i),
                Value::Int(1),
                Value::Int(1),
                Value::Bool(i % 2 == 0),
                Value::Text(format!("Flare {i}")),
                Value::Null,
                Value::Timestamp(5),
                Value::Text("pipeline".into()),
                Value::Float(-310.5),
                Value::Float(220.25),
                Value::Float(1.5e-6),
                Value::Int(9_000 + i),
                Value::Int(0),
                Value::Bool(false),
            ]
        })
        .collect();
    QueryResult {
        columns: columns.iter().map(|c| c.to_string()).collect(),
        rows,
        stats: ExecStats {
            rows_scanned: ROWS,
            rows_returned: ROWS,
            rows_sorted: 0,
            access: AccessPath::Index {
                name: "hle_time".into(),
                point: false,
            },
        },
    }
}

fn framed(response: &Response) -> Vec<u8> {
    proto::encode_framed(response, FrameKind::Response, 1, 2, 3).expect("fits a frame")
}

#[test]
fn a_result_is_encoded_into_its_frame_in_at_most_two_allocations() {
    let response = Response::Result(hle_page());
    let (wire, first) = allocs_during(|| framed(&response));
    let (_, again) = allocs_during(|| framed(&response));
    assert_eq!(first, again, "the count must repeat exactly");
    // The frame buffer, and at most one growth for the text the size guess
    // cannot see: no payload buffer beside it, no buffer per row.
    assert!(first <= 2, "{first} allocations to frame a result");
    // The payload is where the header says it is: the same bytes `encode`
    // produces on their own.
    assert_eq!(wire[HEADER_LEN..], proto::encode(&response).unwrap()[..]);
}

#[test]
fn a_result_is_decoded_in_one_allocation_per_thing_it_owns() {
    let page = hle_page();
    let heap_values = page
        .rows
        .iter()
        .flatten()
        .filter(|v| matches!(v, Value::Text(s) if !s.is_empty()))
        .count() as u64;
    let owned = (page.rows.len() + page.columns.len()) as u64 + heap_values;
    let payload = proto::encode(&Response::Result(page)).unwrap();
    let decode = || proto::decode::<Response>(&payload).expect("decodes");
    let (_, first) = allocs_during(decode);
    let (_, again) = allocs_during(decode);
    assert_eq!(first, again, "the count must repeat exactly");
    // One per row, per label, per text value; the two outer vectors and the
    // index name on top. Nothing is parsed into an intermediate tree.
    assert!(
        first <= owned + 4,
        "{first} allocations to decode what owns {owned}"
    );
}

#[test]
fn a_result_costs_its_values_and_its_labels_on_the_wire() {
    let page = hle_page();
    let values: usize = page
        .rows
        .iter()
        .flatten()
        .map(|v| match v {
            Value::Text(s) => 5 + s.len(),
            Value::Bytes(b) => 5 + b.len(),
            _ => 9,
        })
        .sum();
    let labels: usize = page.columns.iter().map(|c| 4 + c.len()).sum();
    // A count per row, and one fixed allowance for the tag, the three
    // sequence counts and the statistics.
    let budget = values + labels + 4 * page.rows.len() + 64;
    let payload = proto::encode(&Response::Result(page)).unwrap();
    assert!(
        payload.len() <= budget,
        "{} bytes on the wire, budget {budget}",
        payload.len()
    );
}

/// A payload of the largest size a frame carries: `head`, then `fill` to
/// the cap.
fn capped_payload(head: &[u8], fill: u8) -> Vec<u8> {
    let mut payload = Vec::with_capacity(MAX_PAYLOAD_BYTES);
    payload.extend_from_slice(head);
    payload.resize(MAX_PAYLOAD_BYTES, fill);
    payload
}

fn refused<T: std::fmt::Debug>(decoded: std::io::Result<T>) -> String {
    let err = decoded.expect_err("a hostile payload decoded");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    err.to_string()
}

/// One frame from a peer nobody has authenticated must not be able to take
/// the process down: a count is believed for 64 KiB of reservation and no
/// further, at every level it appears on. Reserved in full, the first of
/// these asks the allocator for 6.4 GB and aborts where that is refused.
#[test]
fn a_count_reserves_for_what_was_read_not_for_what_it_claims() {
    // A count the bytes behind it make plausible — every element is at least
    // a byte — so the check against the rest of the payload lets it through.
    const TOLD: usize = MAX_PAYLOAD_BYTES - 64;
    let told = (TOLD as u32).to_le_bytes();
    let told = told.as_slice();
    let nested = ((TOLD - 8) as u32).to_le_bytes();
    // The most a refusal may have held: one capped reservation per level of
    // sequence the payload opens (two at most), and the text of the error.
    const BOUND: usize = 3 * 64 * 1024;

    let requests: [(&str, Vec<u8>, u8); 3] = [
        // A batch of `TOLD` entries, garbage behind the count.
        ("garbage batch", [&[4], told].concat(), 0xFF),
        // A batch of `TOLD` well-formed one-byte pings: every entry decodes,
        // so only the ceiling on entries stands between it and 6 GB.
        ("ping batch", [&[4], told].concat(), 1),
        // Query "t", all columns, filter `c IN (<TOLD garbage expressions>)`.
        (
            "in-list",
            [&[2, 1, 0, 0, 0, b't', 1, 1, 10, 2, 1, 0, 0, 0, b'c'], told].concat(),
            0xFF,
        ),
    ];
    for (what, head, fill) in &requests {
        let payload = capped_payload(head, *fill);
        let (why, peak) = peak_bytes_during(|| refused(proto::decode::<Request>(&payload)));
        assert!(peak <= BOUND, "{what}: {peak} bytes live to say `{why}`");
    }

    let responses: [(&str, Vec<u8>); 3] = [
        ("garbage batch", [&[4], told].concat()),
        // `TOLD` resolved names, the first of them garbage.
        ("names", [&[3], told].concat()),
        // No columns, `TOLD` rows, the first of `TOLD - 8` values: a count
        // inside a count, both plausible, neither backed.
        ("rows of values", [&[2, 0, 0, 0, 0], told, &nested].concat()),
    ];
    for (what, head) in &responses {
        let payload = capped_payload(head, 0xFF);
        let (why, peak) = peak_bytes_during(|| refused(proto::decode::<Response>(&payload)));
        assert!(peak <= BOUND, "{what}: {peak} bytes live to say `{why}`");
    }
}

#[test]
fn a_batch_is_refused_by_its_count_above_the_protocol_maximum() {
    let full = Request::Batch(vec![Request::Ping; MAX_BATCH_ENTRIES]);
    let mut payload = proto::encode(&full).unwrap();
    let (decoded, peak) = peak_bytes_during(|| proto::decode::<Request>(&payload));
    assert!(matches!(decoded, Ok(Request::Batch(entries)) if entries.len() == MAX_BATCH_ENTRIES));
    // The entries themselves, with the slack of growing by doubling.
    let entries = MAX_BATCH_ENTRIES * std::mem::size_of::<Request>();
    assert!(
        peak <= 2 * entries,
        "{peak} bytes live for {entries} of entries"
    );

    // One more ping and a count to match: refused before an entry is read.
    payload.push(1);
    payload[1..5].copy_from_slice(&(MAX_BATCH_ENTRIES as u32 + 1).to_le_bytes());
    let (why, peak) = peak_bytes_during(|| refused(proto::decode::<Request>(&payload)));
    assert!(why.contains("entries"), "{why}");
    assert!(peak <= 1024, "{peak} bytes live to refuse a count");

    let answers = vec![Response::Redirect { shard: 0, epoch: 0 }; MAX_BATCH_ENTRIES + 1];
    let over = proto::encode(&Response::Batch(answers)).unwrap();
    assert!(refused(proto::decode::<Response>(&over)).contains("entries"));
}

/// What a well-formed payload decodes into is a fixed multiple of its size:
/// at worst one-byte `Null`s as whole [`Value`]s.
#[test]
fn decoded_size_follows_payload_size() {
    let wide = QueryResult {
        columns: Vec::new(),
        rows: vec![vec![Value::Null; 1 << 20]],
        stats: hle_page().stats,
    };
    let payload = proto::encode(&Response::Result(wide)).unwrap();
    let (decoded, peak) = peak_bytes_during(|| proto::decode::<Response>(&payload));
    decoded.expect("a wide row of nulls is a message");
    // Twice the values: a vector that outgrew its reservation doubles.
    let worst = 2 * std::mem::size_of::<Value>() * payload.len();
    assert!(
        peak <= worst,
        "{peak} bytes live from a {} byte payload",
        payload.len()
    );
}
