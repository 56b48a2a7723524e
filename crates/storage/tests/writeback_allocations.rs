//! Allocation gate for the buffer pool's write-back: a flush copies each
//! dirty page into snapshot space its shard keeps from one write-back to
//! the next, and stamps and writes the copy where it lies. Once that space
//! has grown to the shard's dirty set, a flush allocates nothing per page.
//! A fresh buffer per page (and a second, stamped copy) costs one or more
//! allocations a page.
//!
//! A 64-frame, one-shard pool holds a 64-page file; every page is dirtied
//! and the whole file flushed, lap after lap.
//!
//! `cargo test --release -p delta-storage --test writeback_allocations --
//! --nocapture` prints the figure.
#![allow(unsafe_code)] // the allocator forwards to `System`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use delta_storage::{BufferPool, DiskFile, FileId, PageId};

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

const FID: FileId = FileId(1);
const PAGES: u32 = 64;
const LAPS: u64 = 4;

#[test]
fn a_warm_flush_allocates_nothing_per_page() {
    let dir = std::env::temp_dir().join(format!("delta-writeback-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pages.db");
    let _ = std::fs::remove_file(&path);
    let file = Arc::new(DiskFile::open(&path).unwrap());
    let pool = BufferPool::with_shards(PAGES as usize, 1);
    pool.register_file(FID, file.clone());
    for _ in 0..PAGES {
        pool.allocate_page(FID).unwrap();
    }

    // Dirty every page, then flush the file; count only the flush.
    let lap = |pool: &BufferPool, n: u64| -> u64 {
        for page_no in 0..PAGES {
            pool.with_page_mut(PageId::new(FID, page_no), |p| {
                p.insert(&n.to_le_bytes()).unwrap();
            })
            .unwrap();
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        pool.flush(Some(FID)).unwrap();
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    // One lap to grow the shard's snapshot space and tables to their
    // working size, then the measured laps.
    lap(&pool, 0);
    let (writebacks, writes) = (pool.stats().writebacks, file.writes());
    let allocations: u64 = (1..=LAPS).map(|n| lap(&pool, n)).sum();
    let flushed = pool.stats().writebacks - writebacks;
    assert_eq!(flushed, LAPS * PAGES as u64, "every lap flushes every page");
    assert_eq!(
        file.writes() - writes,
        flushed,
        "one write per flushed page"
    );
    let per_page = allocations as f64 / flushed as f64;
    println!("allocations per flushed page: {per_page:.3} ({allocations} for {flushed} pages)");
    assert!(
        allocations < LAPS,
        "a warm flush allocates per page: {allocations} allocations for {flushed} pages"
    );

    // The pages that reached disk are the pool's last images.
    let cold = BufferPool::with_shards(4, 1);
    cold.register_file(FID, Arc::new(DiskFile::open(&path).unwrap()));
    for page_no in 0..PAGES {
        let records = cold
            .with_page(PageId::new(FID, page_no), |p| p.live_count())
            .unwrap();
        assert_eq!(records, 1 + LAPS as usize, "page {page_no}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
