//! Multi-threaded stress for the sharded buffer pool: readers and writers
//! hammering a small pool (constant eviction pressure) while a churn thread
//! registers and deregisters short-lived files — the DROP TABLE path racing
//! in-flight miss reads and eviction writebacks.
//!
//! The properties under test: no torn pages (every record read belongs to
//! the writer that owns the page), deregistered files fail with a clean
//! `NotFound` rather than corruption or a hang, and the pool's counters and
//! in-flight bookkeeping survive the churn (checked by `flush_and_sync_all`,
//! which verifies the shard invariants when the `invariants` feature is on).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use delta_storage::{BufferPool, DiskFile, FileId, PageId, StorageError};

fn temp_dir(label: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("delta-pool-stress-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const STABLE: FileId = FileId(1);
const STABLE_PAGES: usize = 16;
const WRITERS: usize = 2;
const READERS: usize = 2;

/// Raises the stop flag when dropped. The churn section runs on the scope's
/// own thread and holds one, so a panic there still stops the readers and
/// the prober: the scope then joins them and the test fails instead of
/// waiting on them forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn sharded_pool_survives_churned_files_under_eviction_pressure() {
    let dir = temp_dir("churn");
    let pool = Arc::new(BufferPool::with_shards(8, 4));
    pool.register_file(
        STABLE,
        Arc::new(DiskFile::open(dir.join("stable.db")).unwrap()),
    );

    // Seed every stable page with a marker record so readers can tell a
    // correct page from a torn or foreign one.
    let pids: Vec<PageId> = (0..STABLE_PAGES)
        .map(|i| {
            let pid = pool.allocate_page(STABLE).unwrap();
            pool.with_page_mut(pid, |p| p.insert(format!("seed-{i}").as_bytes()).unwrap())
                .unwrap();
            pid
        })
        .collect();

    let stop = AtomicBool::new(false);
    // The churn generation currently registered (0 = none); lets the prober
    // guess both live and dead FileIds.
    let live_gen = AtomicU32::new(0);

    std::thread::scope(|scope| {
        // Writers: each owns a disjoint half of the stable pages and appends
        // records tagged with its id. PageFull is fine; torn data is not.
        for w in 0..WRITERS {
            let pool = Arc::clone(&pool);
            let pids = pids.clone();
            scope.spawn(move || {
                let own: Vec<PageId> = pids
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % WRITERS == w)
                    .map(|(_, p)| p)
                    .collect();
                for i in 0..400u32 {
                    let pid = own[(i as usize) % own.len()];
                    pool.with_page_mut(pid, |p| {
                        p.insert(format!("w{w}-i{i}").as_bytes()).ok();
                    })
                    .unwrap();
                }
            });
        }

        // Readers: verify the seed marker survives every eviction/reload.
        for r in 0..READERS {
            let pool = Arc::clone(&pool);
            let pids = pids.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut x = 17u64 + r as u64;
                while !stop.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let pid = pids[(x >> 33) as usize % pids.len()];
                    let first = pool
                        .with_page(pid, |p| p.get(0).map(|rec| rec.to_vec()))
                        .unwrap();
                    let first = first.expect("seed record present");
                    assert!(
                        first.starts_with(b"seed-"),
                        "page {pid:?} lost its seed marker: {first:?}"
                    );
                }
            });
        }

        // Prober: pokes churn files by guessed id, racing deregistration.
        // Every outcome must be a clean success or a clean error.
        {
            let pool = Arc::clone(&pool);
            let stop = &stop;
            let live_gen = &live_gen;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let g = live_gen.load(Ordering::Relaxed).max(1);
                    let fid = FileId(100 + g);
                    let pid = PageId {
                        file: fid,
                        page_no: 0,
                    };
                    match pool.with_page(pid, |p| p.get(0).map(|r| r.to_vec())) {
                        Ok(Some(rec)) => assert!(
                            rec.starts_with(b"churn-"),
                            "churn page held foreign data: {rec:?}"
                        ),
                        Ok(None) => {}
                        Err(StorageError::NotFound(_)) | Err(StorageError::Io(_)) => {}
                        Err(e) => panic!("unexpected error probing churn file: {e}"),
                    }
                    std::thread::yield_now();
                }
            });
        }

        // Churn: short-lived files registered, written through the pool
        // (forcing stable pages out), then dropped mid-flight.
        let _stop = StopOnDrop(&stop);
        for g in 1..=40u32 {
            let fid = FileId(100 + g);
            let path = dir.join(format!("churn-{g}.db"));
            let _ = std::fs::remove_file(&path);
            pool.register_file(fid, Arc::new(DiskFile::open(&path).unwrap()));
            live_gen.store(g, Ordering::Relaxed);
            for _ in 0..3 {
                let pid = pool.allocate_page(fid).unwrap();
                pool.with_page_mut(pid, |p| {
                    p.insert(format!("churn-{g}").as_bytes()).unwrap();
                })
                .unwrap();
            }
            // Deregister while our dirty pages are still cached (or already
            // being evicted by the stable-side traffic).
            pool.deregister_file(fid);
            let _ = std::fs::remove_file(&path);
        }
    });

    // Every stable page still holds its seed record plus only its owner's
    // writes, surviving the eviction churn intact.
    for (i, pid) in pids.iter().enumerate() {
        let owner = i % WRITERS;
        let ok = pool
            .with_page(*pid, |p| {
                let mut it = p.iter();
                let seed_ok = it
                    .next()
                    .is_some_and(|(_, r)| r == format!("seed-{i}").as_bytes());
                seed_ok && it.all(|(_, r)| r.starts_with(format!("w{owner}-").as_bytes()))
            })
            .unwrap();
        assert!(ok, "page {i} corrupted");
    }

    let s = pool.stats();
    assert!(s.evictions > 0, "test never evicted: {s:?}");
    assert!(s.writebacks > 0, "test never wrote back: {s:?}");
    // With --features invariants, checks shard placement / no-duplicate /
    // in-flight bookkeeping invariants.
    pool.flush_and_sync_all().unwrap();
}
