//! ENOSPC exhaustion corpus (the PR 4 truncation corpus, extended to disk
//! pressure): an injected disk-full at **every byte offset** of a WAL
//! append and of a checkpoint archive must surface as a typed
//! `StorageError::DiskFull` — never a panic, never silent success. The live
//! database must have rolled the failed commit back (no row, no lock left),
//! and a crash-restart must recover exactly the last committed state.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_engine::error::EngineError;
use delta_storage::DiskBudget;
use proptest::prelude::*;

fn dir(label: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-enospc-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Open with a tiny buffer pool (crash-leaked handles stay cheap), a short
/// lock timeout (a leaked lock shows as a timeout, not a stall) and the
/// given budget.
fn open_with(d: &std::path::Path, budget: &Arc<DiskBudget>) -> Arc<Database> {
    let mut opts = DbOptions::new(d)
        .disk_budget(Arc::clone(budget))
        .archive(true);
    // Flush on commit: the budget meets every WAL byte at append time, and
    // a crash-leaked handle loses nothing the engine called durable.
    opts.wal_sync = SyncMode::Flush;
    opts.buffer_pool_pages = 8;
    opts.lock_timeout = Duration::from_millis(200);
    Database::open(opts).expect("open")
}

/// Committed state of table `t`, order-independent.
fn state(db: &Database) -> BTreeMap<i64, String> {
    db.scan_table("t")
        .expect("scan")
        .into_iter()
        .map(|(_, r)| {
            (
                r.values()[0].as_int().expect("int pk"),
                format!("{:?}", r.values()[1]),
            )
        })
        .collect()
}

fn seed(db: &Arc<Database>, pad: &str) {
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, pad VARCHAR)")
        .expect("create");
    for id in 0..5i64 {
        s.execute(&format!("INSERT INTO t VALUES ({id}, '{pad}')"))
            .expect("seed");
    }
}

fn assert_disk_full(err: &EngineError, ctx: &str) {
    assert!(
        matches!(err, EngineError::Storage(s) if s.is_disk_full()),
        "{ctx}: expected typed DiskFull, got {err}"
    );
}

/// Bytes the budget admits while `f` runs against a fresh seeded database.
fn measure(label: &str, pad: &str, f: impl FnOnce(&Arc<Database>)) -> u64 {
    let d = dir(label);
    let budget = Arc::new(DiskBudget::unlimited());
    let db = open_with(&d, &budget);
    seed(&db, pad);
    let before = budget.stats().charged;
    f(&db);
    let need = budget.stats().charged - before;
    drop(db);
    let _ = std::fs::remove_dir_all(&d);
    assert!(need > 0, "{label}: the probed operation never wrote");
    need
}

/// Run one offset of the WAL-append walk: budget `k` of the `need` bytes
/// the append wants, then crash and verify recovery.
fn wal_offset(pad: &str, k: u64) {
    let d = dir(&format!("wal-{k}"));
    let budget = Arc::new(DiskBudget::unlimited());
    let db = open_with(&d, &budget);
    seed(&db, pad);
    let committed = state(&db);
    budget.set_global(Some(k));
    let err = db
        .session()
        .execute(&format!("INSERT INTO t VALUES (99, '{pad}')"))
        .expect_err("under-budget append must fail");
    assert_disk_full(&err, &format!("wal append at budget {k}"));
    // The live database: the unlogged insert is rolled back and its lock
    // released, so a reader gets a shared lock on `t` and the next write
    // fails with a typed error of its own instead of waiting on that lock.
    assert_eq!(state(&db), committed, "row 99 visible at budget {k}");
    db.session()
        .execute("SELECT * FROM t")
        .unwrap_or_else(|e| panic!("shared lock on t after failed append at budget {k}: {e}"));
    let err = db
        .session()
        .execute(&format!("INSERT INTO t VALUES (100, '{pad}')"))
        .expect_err("the log cannot take the next write either");
    assert!(
        !matches!(
            err,
            EngineError::LockTimeout { .. } | EngineError::Deadlock { .. }
        ),
        "next write at budget {k} waited on a leaked lock: {err}"
    );
    // Crash (leak the handle mid-flight) and restart without a budget:
    // recovery must land on exactly the pre-append committed state.
    let _ = std::mem::ManuallyDrop::new(db);
    let db = Database::open(DbOptions::new(&d).archive(true)).expect("reopen");
    assert_eq!(state(&db), committed, "wal append at budget {k}");
    // And the recovered database still accepts the write.
    db.session()
        .execute(&format!("INSERT INTO t VALUES (99, '{pad}')"))
        .expect("post-recovery append");
    drop(db);
    let _ = std::fs::remove_dir_all(&d);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Every byte offset of a WAL append: for each proptest-chosen row
    /// size, walk budgets 0..need exhaustively.
    #[test]
    fn wal_append_enospc_at_every_offset_recovers(pad_len in 8usize..96) {
        let pad = "p".repeat(pad_len);
        let need = measure(&format!("wal-probe-{pad_len}"), &pad, |db| {
            db.session()
                .execute(&format!("INSERT INTO t VALUES (99, '{pad}')"))
                .expect("probe insert");
        });
        for k in 0..need {
            wal_offset(&pad, k);
        }
    }
}

/// A checkpoint needs kilobytes, so the walk is strided (every offset
/// congruence class is still hit across the stride) plus the exact
/// boundaries. The page flush, the checkpoint record and the LSN hint ask
/// the budget for space; archiving closed segments is a rename and asks for
/// none. The invariant per offset is "typed failure or clean success — and a
/// crash-restart recovers the committed state either way, with nothing
/// poisoned for the retry".
#[test]
fn checkpoint_archive_enospc_walk_recovers() {
    static NEED: OnceLock<u64> = OnceLock::new();
    let pad = "c".repeat(64);
    let need = *NEED.get_or_init(|| {
        measure("ckpt-probe", &pad, |db| {
            db.checkpoint().expect("probe checkpoint");
        })
    });
    let step = (need / 96).max(1);
    let mut offsets: Vec<u64> = (0..need).step_by(step as usize).collect();
    offsets.extend([1.min(need - 1), need / 2, need - 1]);
    offsets.sort_unstable();
    offsets.dedup();
    let mut failures = 0u32;
    for k in offsets {
        let d = dir(&format!("ckpt-{k}"));
        let budget = Arc::new(DiskBudget::unlimited());
        let db = open_with(&d, &budget);
        seed(&db, &pad);
        let committed = state(&db);
        budget.set_global(Some(k));
        if let Err(err) = db.checkpoint() {
            assert_disk_full(&err, &format!("checkpoint at budget {k}"));
            failures += 1;
        }
        let _ = std::mem::ManuallyDrop::new(db);
        let db = Database::open(DbOptions::new(&d).archive(true)).expect("reopen");
        assert_eq!(state(&db), committed, "checkpoint at budget {k}");
        // Whatever the budget did, nothing poisoned survives: a retry with
        // room succeeds and the table keeps working.
        db.checkpoint().expect("post-recovery checkpoint");
        db.session()
            .execute(&format!("INSERT INTO t VALUES (99, '{pad}')"))
            .expect("post-recovery append");
        drop(db);
        let _ = std::fs::remove_dir_all(&d);
    }
    assert!(
        failures > 0,
        "the walk never hit the typed-failure path; budgets were all sufficient"
    );
}
