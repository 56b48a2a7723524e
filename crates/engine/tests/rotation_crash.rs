//! A closed WAL segment ends on an entry boundary, whatever write a crash
//! interrupts.
//!
//! An archived segment is read strictly (DESIGN.md §23): a tail that does
//! not decode there is damage, and a log extractor that meets it quarantines
//! the segment and owes an audit (§25). That is only right if no crash can
//! leave a closed segment with a torn tail. This test runs a workload that
//! rotates small segments and checkpoints, and crashes it at its k-th
//! physical write for every k. It reopens, checkpoints so that every
//! surviving segment is archived, and asserts:
//!
//! * every archived segment reads under the strict rule: nothing is
//!   quarantined and the whole log reads without `Corrupt`;
//! * every transaction whose commit returned is still in the log.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_engine::wal::LogRecord;
use delta_storage::{FaultInjector, FaultPlan, IoOp};

fn dir(label: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-rotcrash-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts(dir: &Path, faults: Option<Arc<FaultInjector>>) -> DbOptions {
    let mut opts = DbOptions::new(dir).archive(true);
    opts.wal_sync = SyncMode::Flush;
    // A few commits per segment, so the workload rotates often.
    opts.wal_segment_bytes = 512;
    opts.buffer_pool_pages = 8;
    if let Some(inj) = faults {
        opts = opts.faults(inj);
    }
    opts
}

/// Three rounds of six single-row commits and a checkpoint, under `plan`.
/// The first failed operation is the crash: the database is leaked there,
/// never shut down. Returns the ids whose commit returned, and whether the
/// plan fired at all.
fn crashed_workload(dir: &Path, plan: FaultPlan) -> (BTreeSet<i64>, bool) {
    let inj = Arc::new(FaultInjector::new(plan));
    let mut committed = BTreeSet::new();
    let Ok(db) = Database::open(opts(dir, Some(Arc::clone(&inj)))) else {
        return (committed, true);
    };
    let pad = "p".repeat(40);
    let mut s = db.session();
    for round in 0..3 {
        for i in 0..6 {
            let id = round * 6 + i;
            if s.execute(&format!("INSERT INTO t VALUES ({id}, '{pad}')"))
                .is_err()
            {
                drop(s);
                let _leaked = std::mem::ManuallyDrop::new(db);
                return (committed, true);
            }
            committed.insert(id);
        }
        if db.checkpoint().is_err() {
            drop(s);
            let _leaked = std::mem::ManuallyDrop::new(db);
            return (committed, true);
        }
    }
    // A clean shutdown writes too; a crash there is checked like any other.
    drop(s);
    drop(db);
    (committed, inj.stats().injected > 0)
}

#[test]
fn a_crash_at_any_write_leaves_every_closed_segment_whole() {
    for k in 0.. {
        let d = dir(&k.to_string());
        let db = Database::open(opts(&d, None)).unwrap();
        db.session()
            .execute("CREATE TABLE t (id INT PRIMARY KEY, pad VARCHAR)")
            .unwrap();
        drop(db);

        let (committed, fired) = crashed_workload(&d, FaultPlan::new(k).crash(IoOp::Write, k));
        if !fired {
            let _ = std::fs::remove_dir_all(&d);
            assert!(k >= 20, "the workload made only {k} writes");
            return;
        }
        let db = Database::open(opts(&d, None))
            .unwrap_or_else(|e| panic!("write {k}: reopen failed: {e}"));
        db.checkpoint().unwrap();
        let archived = db.wal().archived_segments().unwrap();
        assert!(!archived.is_empty(), "write {k}");
        let (_, quarantined) = db.wal().quarantine_corrupt_archived().unwrap();
        assert!(
            quarantined.is_empty(),
            "write {k}: a closed segment has a torn tail: {quarantined:?}"
        );
        let log = db
            .wal()
            .read_from(1)
            .unwrap_or_else(|e| panic!("write {k}: strict read failed: {e}"));
        let logged: BTreeSet<i64> = log
            .iter()
            .filter_map(|(_, rec)| match rec {
                LogRecord::Insert { table, row, .. } if table == "t" => {
                    row.values()[0].as_int().ok()
                }
                _ => None,
            })
            .collect();
        let lost: Vec<_> = committed.difference(&logged).collect();
        assert!(lost.is_empty(), "write {k}: committed {lost:?} lost");
        drop(db);
        let _ = std::fs::remove_dir_all(&d);
    }
}
