//! A pass over a table holds a page of it at a time, not the table.
//!
//! `Database::for_each_row` hands each row to its visitor as it is decoded,
//! so a pass that folds rows (a digest), rescans a base for a departed
//! MIN/MAX extreme, or looks for one row without a key keeps O(page) of the
//! table live. Materialising the table first made each of them hold every
//! decoded row at once (DESIGN.md §22). A counting global allocator
//! measures the peak bytes a pass allocates above where it started; the
//! peak on a table ten times larger must stay within 2x.
#![allow(unsafe_code)] // the counting allocator forwards to `System`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use delta_core::digest::{digest_table, DigestParams};
use delta_engine::db::{Database, DbOptions};
use delta_sql::ast::AggFunc;
use delta_storage::{Row, Value};
use delta_warehouse::{AggSpec, AggViewDef, View};

/// Forwards to the system allocator, tracking live and peak bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak bytes allocated above the starting level while `f` runs.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed).saturating_sub(start), out)
}

const SMALL: i64 = 2_000;
const LARGE: i64 = 20_000;
const REPS: i64 = 5;

/// A database holding `rows` rows in each of three tables: `t` (keyed, for
/// the digest), `sales` (one group under a MIN view) and `u` (no key). The
/// buffer pool holds every page, so a pass reads without loading any.
fn seeded(rows: i64) -> (Arc<Database>, View) {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-stream-memory-{}-{rows}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = DbOptions::new(dir);
    opts.buffer_pool_pages = 4096;
    let db = Database::open(opts).unwrap();
    let mut s = db.session();
    for ddl in [
        "CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR)",
        "CREATE TABLE sales (id INT PRIMARY KEY, g INT, amount INT)",
        "CREATE TABLE u (a INT, s VARCHAR)",
    ] {
        s.execute(ddl).unwrap();
    }
    for chunk in 0..rows / 500 {
        let ids = chunk * 500..(chunk + 1) * 500;
        let insert = |table: &str, row: &dyn Fn(i64) -> String| {
            let values: Vec<String> = ids.clone().map(row).collect();
            format!("INSERT INTO {table} VALUES {}", values.join(", "))
        };
        s.execute(&insert("t", &|i| format!("({i}, {i}, 'row {i}')")))
            .unwrap();
        s.execute(&insert("sales", &|i| format!("({i}, 0, {i})")))
            .unwrap();
        s.execute(&insert("u", &|i| format!("({i}, 'row {i}')")))
            .unwrap();
    }
    let def = AggViewDef {
        name: "sales_min".into(),
        table: "sales".into(),
        group_by: vec!["g".into()],
        aggregates: vec![AggSpec::of(AggFunc::Min, "amount")],
        selection: None,
    };
    let view = View::compile(&db, def).unwrap();
    let mut txn = db.begin();
    view.refresh_full(&db, &mut txn).unwrap();
    db.commit(txn).unwrap();
    (db, view)
}

fn digest(db: &Database) -> usize {
    let (peak, digest) =
        peak_above_start(|| digest_table(db, "t", 0, DigestParams::with_span(1 << 40)).unwrap());
    assert_eq!(digest.leaves.len(), 1);
    peak
}

/// Delete the group's current minimum (`amount == id == k`) and hand the
/// view its `-1` image: the extreme departed, so the pass rescans the base.
fn min_rescan(db: &Arc<Database>, view: &View, k: i64) -> usize {
    let mut s = db.session();
    s.execute(&format!("DELETE FROM sales WHERE id = {k}"))
        .unwrap();
    let gone = Row::new(vec![Value::Int(k), Value::Int(0), Value::Int(k)]);
    let (peak, ()) = peak_above_start(|| {
        let mut txn = db.begin();
        view.apply_stream(db, &mut txn, "sales", &[(-1, &gone)])
            .unwrap();
        db.commit(txn).unwrap();
    });
    let rows = view.visible_rows(db).unwrap();
    assert_eq!(rows, vec![Row::new(vec![Value::Int(0), Value::Int(k + 1)])]);
    peak
}

/// Find `u`'s first row by image; the table has no key, so this scans.
fn locate_first(db: &Database) -> usize {
    let meta = db.table("u").unwrap();
    let first = Row::new(vec![Value::Int(0), Value::Str("row 0".into())]);
    let (peak, found) = peak_above_start(|| db.locate_by_image(&meta, &first).unwrap());
    assert_eq!(found.map(|(_, row)| row), Some(first));
    peak
}

fn median(mut peaks: Vec<usize>) -> usize {
    peaks.sort_unstable();
    peaks[peaks.len() / 2]
}

#[test]
fn a_table_pass_holds_a_page_not_the_table() {
    let small = seeded(SMALL);
    let large = seeded(LARGE);
    type Pass = fn(&(Arc<Database>, View), i64) -> usize;
    let passes: [(&str, Pass); 3] = [
        ("digest_table", |(db, _), _| digest(db)),
        ("MIN rescan", |(db, view), k| min_rescan(db, view, k)),
        ("locate_by_image", |(db, _), _| locate_first(db)),
    ];
    let mut failures = Vec::new();
    for (name, pass) in passes {
        // Alternate the two sizes, so whatever the process does in the
        // background lands on both sides alike.
        let (mut at_small, mut at_large) = (Vec::new(), Vec::new());
        for k in 0..REPS {
            at_small.push(pass(&small, k));
            at_large.push(pass(&large, k));
        }
        let (s, l) = (median(at_small), median(at_large));
        let ratio = l as f64 / s as f64;
        eprintln!("{name}: peak {s} B on {SMALL} rows, {l} B on {LARGE}, ratio {ratio:.2}");
        if ratio > 2.0 {
            failures.push(format!("{name}: ratio {ratio:.1} ({s} B -> {l} B)"));
        }
    }
    assert!(
        failures.is_empty(),
        "peak bytes grow with the table: {}",
        failures.join("; ")
    );
}
