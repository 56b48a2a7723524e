//! An unindexed scan allocates per page and per match, not per table row.
//!
//! A set-oriented statement's predicate is compiled once to column positions
//! and evaluated on each record's stored bytes; only a matching record is
//! decoded (DESIGN.md §24), and a heap scan copies every page into one
//! buffer it keeps (§40). Before §24, every table row cost at least three
//! allocations whether it matched or not: the record copy, the decoded
//! row's `Vec` and its filler `String`; before §40, every page cost one. A
//! counting global allocator counts what one 20-row range UPDATE over a
//! 20 000-row table allocates; it must make fewer allocations than the
//! table has pages. A keyed statement reads the records its index range names in
//! place, so it too allocates per match, not per record it fetches; and an
//! INSERT clones each literal of its value list once.
#![allow(unsafe_code)] // the counting allocator forwards to `System`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use delta_engine::db::{Database, DbOptions};
use delta_engine::exec::{choose_access_path, AccessPath};
use delta_sql::parser::parse_expression;

/// Forwards to the system allocator, counting every allocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter only observes that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The tests of this file take turns: the counter is global.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

const ROWS: i64 = 20_000;
const MATCHED: i64 = 20;
const FILLER_LEN: usize = 57;

/// A table shaped like the benchmark's: `aux` (equal to `id`, never
/// indexed) is the range column and `filler` pads each row. The buffer pool
/// holds every page, so a scan reads without loading any.
fn seeded(name: &str) -> Arc<Database> {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-scan-allocations-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = DbOptions::new(dir);
    opts.buffer_pool_pages = 4096;
    let db = Database::open(opts).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE parts (id INT PRIMARY KEY, grp INT, val INT, aux INT, filler VARCHAR)")
        .unwrap();
    for chunk in 0..ROWS / 500 {
        s.execute(&insert_statement(chunk * 500..(chunk + 1) * 500))
            .unwrap();
    }
    db
}

/// One INSERT of the rows with ids `ids`, in the benchmark's shape.
fn insert_statement(ids: std::ops::Range<i64>) -> String {
    let values: Vec<String> = ids
        .map(|i| {
            let filler = format!("{i:0>FILLER_LEN$}");
            format!("({i}, {}, 0, {i}, '{filler}')", i % 10)
        })
        .collect();
    format!("INSERT INTO parts VALUES {}", values.join(", "))
}

#[test]
fn a_range_update_allocates_per_page_and_match_not_per_row() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = seeded("range");
    let mut s = db.session();
    let mut counts = Vec::new();
    for rep in 0..5 {
        let a = 1_000 + rep * 3_000;
        let sql = format!(
            "UPDATE parts SET val = val + 1 WHERE aux >= {a} AND aux < {}",
            a + MATCHED
        );
        let (count, affected) = allocations(|| s.execute(&sql).unwrap().affected);
        counts.push(count);
        assert_eq!(affected, MATCHED as u64, "{sql}");
    }
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    let pages = db.heap("parts").unwrap().page_count().unwrap();
    eprintln!(
        "range UPDATE of {MATCHED} rows over {ROWS} ({pages} pages): \
         {median} allocations (median of {counts:?})"
    );
    assert!(
        (median as u32) < pages,
        "{median} allocations for one scan of {ROWS} rows: at least one per page of {pages}"
    );
}

/// Records an index range names but the rest of the predicate refuses.
const FETCHED: i64 = 2_000;

#[test]
fn a_keyed_statement_reads_the_records_it_fetches_in_place() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = seeded("keyed");
    let meta = db.table("parts").unwrap();
    let mut s = db.session();
    let mut counts = Vec::new();
    for rep in 0..5 {
        let a = 1_000 + rep * 3_000;
        let predicate = format!("id >= {a} AND id < {} AND grp = 99", a + FETCHED);
        let plan = choose_access_path(&db, &meta, Some(&parse_expression(&predicate).unwrap()));
        assert!(
            matches!(plan, AccessPath::IndexRange { .. }),
            "{predicate}: {plan:?}"
        );
        let sql = format!("UPDATE parts SET val = val + 1 WHERE {predicate}");
        let (count, affected) = allocations(|| s.execute(&sql).unwrap().affected);
        counts.push(count);
        assert_eq!(affected, 0, "{sql}");
    }
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    eprintln!(
        "keyed UPDATE fetching {FETCHED} records, matching none: \
         {median} allocations (median of {counts:?})"
    );
    // Copying each fetched record out of its page made one allocation per
    // record.
    assert!(
        (median as i64) * 10 < FETCHED,
        "{median} allocations for {FETCHED} fetched records: at least one per ten"
    );
}

/// Allocations per inserted row the INSERT test allows. A row of the
/// benchmark's shape makes ≈ 14.3 (parse, row, record, log and index);
/// compiling each literal and evaluating it out again copied the `filler`
/// string twice, ≈ 15.3. The count is the same on every repetition to a
/// hundredth.
const GATE_PER_INSERTED_ROW: f64 = 14.8;

/// Rows per INSERT statement.
const INSERTED: i64 = 500;

#[test]
fn an_insert_clones_each_literal_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = seeded("insert");
    let mut s = db.session();
    let mut per_row = Vec::new();
    for rep in 0..5 {
        let first = ROWS + rep * INSERTED;
        let sql = insert_statement(first..first + INSERTED);
        let (count, affected) = allocations(|| s.execute(&sql).unwrap().affected);
        assert_eq!(affected, INSERTED as u64);
        per_row.push(count as f64 / INSERTED as f64);
    }
    per_row.sort_by(f64::total_cmp);
    let median = per_row[per_row.len() / 2];
    eprintln!("INSERT of {INSERTED} rows: {median:.2} allocations per row (of {per_row:?})");
    assert!(
        median < GATE_PER_INSERTED_ROW,
        "{median:.2} allocations per inserted row: is a literal copied twice?"
    );
}
