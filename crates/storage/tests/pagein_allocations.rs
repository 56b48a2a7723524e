//! Allocation gate for the buffer pool's page-in: a page comes off disk
//! straight into the boxed page its frame owns, so a miss allocates that
//! page and nothing else. Reading into a scratch buffer and copying it into
//! a fresh page costs two.
//!
//! A four-frame, one-shard pool over a 64-page file is read round and
//! round, so every access misses and evicts a clean frame.
//!
//! `cargo test --release -p delta-storage --test pagein_allocations --
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
const FRAMES: usize = 4;

#[test]
fn a_page_in_allocates_only_the_page_it_installs() {
    let dir = std::env::temp_dir().join(format!("delta-pagein-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pages.db");
    let _ = std::fs::remove_file(&path);
    let file = Arc::new(DiskFile::open(&path).unwrap());
    let pool = BufferPool::with_shards(FRAMES, 1);
    pool.register_file(FID, file.clone());
    for n in 0..PAGES {
        let pid = pool.allocate_page(FID).unwrap();
        pool.with_page_mut(pid, |p| p.insert(format!("page {n}").as_bytes()).unwrap())
            .unwrap();
    }
    pool.flush(Some(FID)).unwrap();

    // One lap to settle the pool's tables at their working size, then the
    // measured laps.
    let lap = |pool: &BufferPool| {
        for n in 0..PAGES {
            let pid = PageId::new(FID, n);
            let first = pool.with_page(pid, |p| p.get(0).map(<[u8]>::len)).unwrap();
            assert!(first.is_some(), "page {n} lost its record");
        }
    };
    lap(&pool);
    let (misses, before) = (pool.stats().misses, ALLOCATIONS.load(Ordering::Relaxed));
    for _ in 0..4 {
        lap(&pool);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let page_ins = pool.stats().misses - misses;
    assert_eq!(page_ins, 4 * PAGES as u64, "every access pages in");
    let per_page_in = allocations as f64 / page_ins as f64;
    println!("allocations per page-in: {per_page_in:.2} ({allocations} for {page_ins} page-ins)");
    assert_eq!(allocations, page_ins, "one allocation per page-in");
    std::fs::remove_dir_all(&dir).ok();
}
