//! An unindexed scan allocates per page and per match, not per table row.
//!
//! A set-oriented statement's predicate is compiled once to column positions
//! and evaluated on each record's stored bytes; only a matching record is
//! decoded, and a heap scan copies each page once (DESIGN.md §24). Before
//! that, every table row cost at least three allocations whether it matched
//! or not: the record copy, the decoded row's `Vec` and its filler `String`.
//! A counting global allocator counts what one 20-row range UPDATE over a
//! 20 000-row table allocates; it must stay under one allocation per ten
//! table rows.
#![allow(unsafe_code)] // the counting allocator forwards to `System`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use delta_engine::db::{Database, DbOptions};

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

const ROWS: i64 = 20_000;
const MATCHED: i64 = 20;
const FILLER_LEN: usize = 57;

/// A table shaped like the benchmark's: `aux` (equal to `id`, never
/// indexed) is the range column and `filler` pads each row. The buffer pool
/// holds every page, so a scan reads without loading any.
fn seeded() -> Arc<Database> {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-scan-allocations-{}",
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
        let values: Vec<String> = (chunk * 500..(chunk + 1) * 500)
            .map(|i| {
                let filler = format!("{i:0>FILLER_LEN$}");
                format!("({i}, {}, 0, {i}, '{filler}')", i % 10)
            })
            .collect();
        s.execute(&format!("INSERT INTO parts VALUES {}", values.join(", ")))
            .unwrap();
    }
    db
}

#[test]
fn a_range_update_allocates_per_page_and_match_not_per_row() {
    let db = seeded();
    let mut s = db.session();
    let mut counts = Vec::new();
    for rep in 0..5 {
        let a = 1_000 + rep * 3_000;
        let sql = format!(
            "UPDATE parts SET val = val + 1 WHERE aux >= {a} AND aux < {}",
            a + MATCHED
        );
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let affected = s.execute(&sql).unwrap().affected;
        counts.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
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
        (median as i64) * 10 < ROWS,
        "{median} allocations for one scan of {ROWS} rows: at least one per ten rows"
    );
}
