//! A row block's row count is a claim until its cells decode. A block that
//! claims 60 M rows over a 3-byte body must fail as typed corruption
//! without first reserving room for 60 M of anything: every vector a
//! decoder sizes from a count it read is capped at 8 MiB up front.
#![allow(unsafe_code)] // the allocator forwards to `System`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use delta_storage::colbatch::{decode_block, decode_rows_block, put_uvarint};
use delta_storage::StorageError;

/// The system allocator, noting the largest single request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the memory returned.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

type Decode = fn(&[u8]) -> Result<(), StorageError>;

const CLAIMED_ROWS: u64 = 60_000_000;
const LIMIT: usize = 16 << 20;

/// A uniform one-column block claiming [`CLAIMED_ROWS`] rows, its column
/// `head` (tag and type bytes) followed by a 3-byte body; or a ragged block
/// when `head` is empty.
fn block(head: &[u8]) -> Vec<u8> {
    let mut out = vec![if head.is_empty() { 1 } else { 0 }];
    put_uvarint(&mut out, CLAIMED_ROWS);
    if !head.is_empty() {
        put_uvarint(&mut out, 1);
        out.extend_from_slice(head);
    }
    out.extend_from_slice(&[2, 4, 6]);
    out
}

#[test]
fn a_block_claiming_60m_rows_over_3_bytes_reserves_no_more_than_16_mib() {
    let heads: [(&str, &[u8]); 10] = [
        ("int plain", &[1, 1]),
        ("int delta2", &[2, 1]),
        ("timestamp rle", &[3, 4]),
        ("str raw", &[4]),
        ("str dict", &[5]),
        ("str front", &[6]),
        ("double", &[7]),
        ("bool", &[8]),
        ("raw cells", &[0]),
        ("ragged", &[]),
    ];
    for (name, head) in heads {
        let payload = block(head);
        let decoders: [(&str, Decode); 2] = [
            ("decode_block", |p| decode_block(p).map(drop)),
            ("decode_rows_block", |p| decode_rows_block(p).map(drop)),
        ];
        for (how, decode) in decoders {
            LARGEST.store(0, Ordering::Relaxed);
            let result = decode(&payload);
            let largest = LARGEST.load(Ordering::Relaxed);
            assert!(
                matches!(result, Err(StorageError::Corrupt(_))),
                "{name} via {how}: {result:?}"
            );
            assert!(
                largest <= LIMIT,
                "{name} via {how}: one reservation of {largest} bytes for a {}-byte block",
                payload.len()
            );
        }
    }
}
