//! Allocation gate for the snapshot dump (DESIGN.md §35): the dump copies
//! each record's bytes from the heap and the snapshot writer encodes every
//! block from the cells of those bytes, so what it allocates follows the
//! chunks, the pages and the blocks, not the rows dumped.
//!
//! One 40 000-row table shaped like dwbench's `snapshot_audit` table (`id
//! INT PRIMARY KEY, grp INT, val INT, aux INT, filler VARCHAR` with a
//! 57-byte filler), dumped in key order through a 56-page buffer pool, so
//! the dump pages most of the heap in. The gate is 0.1 allocations per
//! dumped row; building each row (its `Vec` and its filler `String`) costs
//! 2 on its own.
//!
//! `cargo test --release -p delta-engine --test snapshot_allocations --
//! --nocapture` prints the figure.
#![allow(unsafe_code)] // the allocator forwards to `System`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use delta_engine::db::{Database, DbOptions};
use delta_engine::lock::LockMode;
use delta_engine::util::snapshot_dump;
use delta_storage::colbatch::RowSource;
use delta_storage::{Row, Value};

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

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
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
const POOL_PAGES: usize = 56;
const GATE: f64 = 0.1;

/// dwbench's filler text for row `id`.
fn filler(id: i64) -> String {
    let mut s = format!("r{id:010}s{:06}-", 0);
    while s.len() < 57 {
        s.push((b'a' + (s.len() % 26) as u8) as char);
    }
    s
}

fn row(id: i64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Int(id % 64),
        Value::Int(id * 7),
        Value::Int(id),
        Value::Str(filler(id)),
    ])
}

#[test]
fn a_key_ordered_dump_allocates_per_chunk_and_block_not_per_row() {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-snapshot-allocations-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = DbOptions::new(dir.clone());
    opts.buffer_pool_pages = POOL_PAGES;
    let db = Database::open(opts).unwrap();
    db.session()
        .execute("CREATE TABLE big (id INT PRIMARY KEY, grp INT, val INT, aux INT, filler VARCHAR)")
        .unwrap();
    let meta = db.table("big").unwrap();
    // Inserted out of key order, so the dump's index walk jumps about the
    // heap rather than reading it front to back.
    for part in 0..4 {
        db.in_txn(|txn| {
            db.lock_table(txn, "big", LockMode::Exclusive)?;
            for id in (part..ROWS).step_by(4) {
                db.insert_row(txn, &meta, row(id))?;
            }
            Ok(())
        })
        .unwrap();
    }
    let path = dir.join("big.snap");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let dumped = snapshot_dump(&db, "big", &path).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(dumped, ROWS as u64);
    let mut src = RowSource::open(&path).unwrap();
    assert_eq!(src.key(), &[0], "dumped in key order");
    let mut next = 0;
    while let Some(r) = src.next_row().unwrap() {
        assert_eq!(r, row(next));
        next += 1;
    }
    assert_eq!(next, ROWS);
    let per_row = allocations as f64 / dumped as f64;
    println!("allocations per dumped row: {per_row:.3} ({allocations} for {dumped} rows)");
    assert!(
        per_row <= GATE,
        "{per_row:.3} allocations per dumped row > {GATE}"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
