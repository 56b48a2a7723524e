//! Allocation gate for the key-ordered snapshot diff (DESIGN.md §34): the
//! merge compares each side's rows where their decoded blocks hold them and
//! builds a `Row` only for a record it emits, so what it allocates follows
//! the blocks and the records, not the rows read.
//!
//! Two 40 000-row snapshots shaped like dwbench's `snapshot_audit` table
//! (`id INT PRIMARY KEY, grp INT, val INT, aux INT, filler VARCHAR` with a
//! 57-byte filler), each dumped in key order, 1 % of the rows updated in
//! the second. The gate is 1.2 allocations per snapshot row read; building
//! every row read (a `Vec`, its filler `String` and a key `Vec` per row,
//! on each side) costs 3.0.
//!
//! `cargo test --release -p delta-core --test diff_allocations -- --nocapture`
//! prints the figure.
#![allow(unsafe_code)] // the allocator forwards to `System`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use delta_core::snapshot::{diff_snapshots, DiffAlgorithm};
use delta_storage::colbatch::{RowSink, DEFAULT_BLOCK_ROWS};
use delta_storage::{Column, DataType, Row, Schema, Value};

/// The system allocator, counting allocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the memory returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: i64 = 40_000;
const GATE: f64 = 1.2;

/// dwbench's filler text for row `id`; `salt` distinguishes rewrites.
fn filler(id: i64, salt: u64) -> String {
    let mut s = format!("r{id:010}s{salt:06}-");
    while s.len() < 57 {
        s.push((b'a' + (s.len() % 26) as u8) as char);
    }
    s
}

fn row(id: i64, val: i64, salt: u64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Int(id % 64),
        Value::Int(val),
        Value::Int(id),
        Value::Str(filler(id, salt)),
    ])
}

#[test]
fn a_key_ordered_diff_allocates_per_block_and_per_record_not_per_row() {
    let dir = std::env::temp_dir().join(format!("delta-diff-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (old, new) = (dir.join("old.snap"), dir.join("new.snap"));
    let mut old_sink = RowSink::create_sorted(&old, DEFAULT_BLOCK_ROWS, &[0]).unwrap();
    let mut new_sink = RowSink::create_sorted(&new, DEFAULT_BLOCK_ROWS, &[0]).unwrap();
    for id in 0..ROWS {
        old_sink.write_row(row(id, id * 7, 0)).unwrap();
        let updated = id % 100 == 37;
        let (val, salt) = if updated {
            (id * 7 + 1, 424_242)
        } else {
            (id * 7, 0)
        };
        new_sink.write_row(row(id, val, salt)).unwrap();
    }
    old_sink.finish().unwrap();
    new_sink.finish().unwrap();
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("grp", DataType::Int),
        Column::new("val", DataType::Int),
        Column::new("aux", DataType::Int),
        Column::new("filler", DataType::Varchar),
    ])
    .unwrap();
    let algo = DiffAlgorithm::SortMerge { run_size: 4096 };

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (delta, stats) = diff_snapshots("big", &schema, &[0], &old, &new, algo).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(
        delta.len(),
        2 * ROWS as usize / 100,
        "one update pair per changed row"
    );
    assert_eq!(stats.rows_read, 2 * ROWS as u64);
    assert_eq!(stats.run_rows_written, 0, "both sides are their own run");
    let per_row = allocations as f64 / stats.rows_read as f64;
    println!(
        "allocations per snapshot row read: {per_row:.3} ({allocations} for {} rows, {} records)",
        stats.rows_read,
        delta.len()
    );
    assert!(
        per_row <= GATE,
        "{per_row:.3} allocations per row read > {GATE}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
