//! Faults on the buffer pool's page writes: a failed or torn write, whether
//! an eviction or a flush issued it, keeps its page cached and dirty, and
//! the access that needed the victim's frame fails before touching any page.
//!
//! Every case runs a one-frame, one-shard pool over a `DiskFile` with a
//! `FaultInjector`, so each access to a second page evicts the first and the
//! injector's write count names the exact write that fails.

use std::sync::Arc;

use delta_storage::{
    scrub_page_file, BufferPool, DiskFile, FaultInjector, FaultPlan, FileId, IoOp, PageId,
    StorageError,
};

const FID: FileId = FileId(1);

fn temp_path(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("delta-pool-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{label}.db"));
    let _ = std::fs::remove_file(&path);
    path
}

/// A one-frame pool over a fresh file armed with `plan`, and the file.
fn pool_with(label: &str, plan: FaultPlan) -> (BufferPool, Arc<DiskFile>) {
    let faults = Arc::new(FaultInjector::new(plan));
    let file = Arc::new(DiskFile::open_with_faults(temp_path(label), Some(faults)).unwrap());
    let pool = BufferPool::with_shards(1, 1);
    pool.register_file(FID, file.clone());
    (pool, file)
}

/// Two zero pages on disk, the first cached and dirty with record `a`.
fn victim_and_newcomer(pool: &BufferPool, file: &DiskFile) -> (PageId, PageId) {
    let victim = PageId::new(FID, file.allocate_page().unwrap());
    let newcomer = PageId::new(FID, file.allocate_page().unwrap());
    pool.with_page_mut(victim, |p| p.insert(b"a").unwrap())
        .unwrap();
    (victim, newcomer)
}

fn first_record(pool: &BufferPool, pid: PageId) -> Option<Vec<u8>> {
    pool.with_page(pid, |p| p.get(0).map(<[u8]>::to_vec))
        .unwrap()
}

fn assert_write_fault<T: std::fmt::Debug>(result: Result<T, StorageError>) {
    match result {
        Err(StorageError::InjectedFault {
            op: IoOp::Write, ..
        }) => {}
        other => panic!("expected an injected write fault, got {other:?}"),
    }
}

/// The first record of `pid` as a fresh pool reads it from disk.
fn on_disk(file: &DiskFile, pid: PageId) -> Option<Vec<u8>> {
    let fresh = BufferPool::with_shards(1, 1);
    fresh.register_file(FID, Arc::new(DiskFile::open(file.path()).unwrap()));
    first_record(&fresh, pid)
}

#[test]
fn a_failed_eviction_write_keeps_the_victim_and_runs_no_closure() {
    let (pool, file) = pool_with("evict-fail", FaultPlan::new(1).fail(IoOp::Write, 0));
    let (victim, newcomer) = victim_and_newcomer(&pool, &file);

    let mut ran = false;
    let err = pool.with_page_mut(newcomer, |p| {
        ran = true;
        p.insert(b"b").unwrap();
    });
    assert_write_fault(err);
    assert!(!ran, "the failed access's closure ran");

    // The victim is still cached, dirty, with its record.
    assert_eq!(first_record(&pool, victim).as_deref(), Some(&b"a"[..]));
    let writes = file.writes();
    pool.flush_and_sync_all().unwrap();
    assert_eq!(file.writes() - writes, 1, "the flush writes the victim");
    assert_eq!(on_disk(&file, victim).as_deref(), Some(&b"a"[..]));

    // The newcomer was never changed: clean victim out, zero page in.
    assert_eq!(first_record(&pool, newcomer), None);
    assert_eq!(on_disk(&file, newcomer), None);
}

#[test]
fn a_torn_eviction_write_is_repaired_by_the_next_flush() {
    let (pool, file) = pool_with("evict-torn", FaultPlan::new(2).torn_write(0, 90));
    let (victim, newcomer) = victim_and_newcomer(&pool, &file);

    assert_write_fault(pool.with_page(newcomer, |_| ()));

    pool.flush_and_sync_all().unwrap();
    let scrub = scrub_page_file(&file).unwrap();
    assert!(
        scrub.corrupt.is_empty(),
        "torn pages left on disk: {:?}",
        scrub.corrupt
    );
    assert_eq!(on_disk(&file, victim).as_deref(), Some(&b"a"[..]));
}

#[test]
fn a_failed_flush_write_keeps_the_page_dirty_for_the_next_flush() {
    let (pool, file) = pool_with("flush-fail", FaultPlan::new(3).fail(IoOp::Write, 0));
    let pid = pool.allocate_page(FID).unwrap();
    pool.with_page_mut(pid, |p| p.insert(b"a").unwrap())
        .unwrap();

    assert_write_fault(pool.flush(None));
    assert_eq!(on_disk(&file, pid), None);

    let writes = file.writes();
    pool.flush_and_sync_all().unwrap();
    assert_eq!(file.writes() - writes, 1, "the next flush writes the page");
    assert_eq!(on_disk(&file, pid).as_deref(), Some(&b"a"[..]));
}
