//! An index entry costs no allocation of its own.
//!
//! An index is one ordered set of `(key, record id)` entries held inline in
//! its B-tree leaves (DESIGN.md §38), so inserting a key allocates only when
//! a leaf splits. When each key owned a separate set of record ids, every
//! new key allocated that set: ≈ 1.17 allocations per insert, and the same
//! per delete+insert step. A counting global allocator counts 20 000
//! inserts into a unique and into a non-unique index, then 20 000
//! delete+insert steps that move an entry to a new key; each must stay at
//! or under 0.3 allocations per operation.
#![allow(unsafe_code)] // the counting allocator forwards to `System`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use delta_engine::index::{Index, IndexDef};
use delta_storage::{RecordId, Value};

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
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const KEYS: u32 = 20_000;
const GATE: f64 = 0.3;

/// The `n`th key: the numbers below `2 * KEYS` in a scattered order, so
/// inserts land all over the tree rather than at its right edge.
fn key(n: u32) -> Value {
    Value::Int(i64::from(n.wrapping_mul(7_919) % (2 * KEYS)))
}

fn rid(n: u32) -> RecordId {
    RecordId::new(n / 64, (n % 64) as u16)
}

/// Allocations per insert and per delete+insert step on a fresh index.
fn per_operation(unique: bool) -> (f64, f64) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let idx = Index::new(
        IndexDef {
            name: "i".into(),
            table: "t".into(),
            column: "c".into(),
            unique,
        },
        0,
    );
    let inserts = allocations(|| {
        for n in 0..KEYS {
            idx.insert(&key(n), rid(n)).unwrap();
        }
    });
    // Step `n` moves entry `n` to a key no entry holds, under a new rid:
    // an UPDATE that changes its row's key.
    let steps = allocations(|| {
        for n in 0..KEYS {
            idx.remove(&key(n), rid(n));
            idx.insert(&key(n + KEYS), rid(n + KEYS)).unwrap();
        }
    });
    assert_eq!(idx.len(), KEYS as usize);
    let per = |count: usize| count as f64 / f64::from(KEYS);
    (per(inserts), per(steps))
}

fn assert_gated(unique: bool) {
    let (insert, step) = per_operation(unique);
    let kind = if unique { "unique" } else { "non-unique" };
    println!("{kind} index: {insert:.3} allocations per insert, {step:.3} per delete+insert step");
    assert!(
        insert <= GATE,
        "{kind} index: {insert:.3} allocations per insert"
    );
    assert!(
        step <= GATE,
        "{kind} index: {step:.3} allocations per delete+insert step"
    );
}

#[test]
fn a_unique_index_allocates_per_leaf_not_per_key() {
    assert_gated(true);
}

#[test]
fn a_non_unique_index_allocates_per_leaf_not_per_key() {
    assert_gated(false);
}
