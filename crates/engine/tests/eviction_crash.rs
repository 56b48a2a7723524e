//! Crash safety of eviction writebacks: WAL before data.
//!
//! The sharded pool writes dirty victims back *outside* the shard lock, so a
//! page can reach disk long before any checkpoint. That is only safe if, at
//! every moment a crash could happen, each committed row the heap files
//! contain is already covered by the durable log. This test drives a
//! two-frame pool through heavy eviction with per-commit fsync, simulates a
//! crash by leaking the database (no flush, no checkpoint, no orderly drop),
//! and then checks both directions of the contract:
//!
//! * every row that survived in the heap is in the durable WAL (no data
//!   page overtook its log record), and
//! * replaying the durable WAL onto a fresh database reconstructs the full
//!   committed state (what eviction did not persist, the log recovers).
//!
//! A second test fails each heap-file write of an insert stream in turn: the
//! eviction whose write fails keeps its page cached, so no committed row
//! goes missing, in the same process or after a checkpoint and reopen.

use std::collections::HashSet;
use std::sync::Arc;

use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_engine::wal::LogRecord;
use delta_storage::{DiskFile, FaultInjector, FaultPlan, IoOp};

fn dir(label: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-evcrash-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn eviction_writeback_respects_wal_before_data() {
    const ROWS: i64 = 400;

    let d = dir("main");
    let mut opts = DbOptions::new(&d);
    // Two frames across two shards: nearly every access evicts.
    opts.buffer_pool_pages = 2;
    opts = opts.pool_shards(2);
    opts.wal_sync = SyncMode::Fsync;
    let db = Database::open(opts).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, pad VARCHAR)")
        .unwrap();
    // Fat rows so pages fill fast and the eviction path stays hot.
    let pad = "x".repeat(512);
    for id in 0..ROWS {
        s.execute(&format!("INSERT INTO t VALUES ({id}, '{pad}')"))
            .unwrap();
    }
    let evictions = db.pool_stats().evictions;
    assert!(
        evictions >= 20,
        "workload must evict constantly, got {evictions}"
    );

    // Simulate the crash: leak the database. No flush, no WAL shutdown, no
    // Drop impls run — disk holds exactly what evictions and per-commit
    // fsyncs got there.
    drop(s);
    let _leaked = std::mem::ManuallyDrop::new(db);

    // Recovery side 1: the durable log must cover everything committed.
    let recovered = Database::open(DbOptions::new(&d)).unwrap();
    let records = recovered.wal().read_from(1).unwrap();
    let logged: HashSet<i64> = records
        .iter()
        .filter_map(|(_, r)| match r {
            LogRecord::Insert { table, row, .. } if table == "t" => row.values()[0].as_int().ok(),
            _ => None,
        })
        .collect();
    assert_eq!(logged.len() as i64, ROWS, "every commit was fsynced");

    // Recovery side 2: whatever the heap retained must be log-covered — a
    // surviving row without a log record would mean a data page hit disk
    // before its WAL entry.
    let survivors: Vec<i64> = recovered
        .scan_table("t")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r.values()[0].as_int().unwrap())
        .collect();
    assert!(
        !survivors.is_empty(),
        "eviction writebacks should have persisted some pages"
    );
    let unique: HashSet<i64> = survivors.iter().copied().collect();
    assert_eq!(unique.len(), survivors.len(), "no duplicated rows");
    for id in &survivors {
        assert!(
            logged.contains(id),
            "row {id} survived in the heap but is missing from the durable WAL"
        );
    }

    // And the log alone rebuilds the full committed state on a replica.
    let replica = Database::open(DbOptions::new(dir("replica"))).unwrap();
    replica.apply_log_records(&records).unwrap();
    let mut rebuilt: Vec<i64> = replica
        .scan_table("t")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r.values()[0].as_int().unwrap())
        .collect();
    rebuilt.sort_unstable();
    assert_eq!(rebuilt, (0..ROWS).collect::<Vec<_>>());
}

/// Every committed id reads back exactly once, by a scan and by its key.
fn assert_holds_exactly(db: &Arc<Database>, committed: &[i64], when: &str) {
    let mut scanned: Vec<i64> = db
        .scan_table("t")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r.values()[0].as_int().unwrap())
        .collect();
    scanned.sort_unstable();
    assert_eq!(scanned, committed, "{when}: scan");
    let mut s = db.session();
    for id in committed {
        let hit = s
            .execute(&format!("SELECT id FROM t WHERE id = {id}"))
            .unwrap();
        assert_eq!(hit.rows.len(), 1, "{when}: lookup of id {id}");
    }
}

#[test]
fn a_failed_eviction_write_loses_no_committed_row() {
    // About 13 rows a page: ten pages through two frames.
    const ROWS: i64 = 130;
    let pad = "x".repeat(600);
    // Fail heap-file write `at`, for every write the stream makes.
    for at in 0.. {
        let d = dir(&format!("eio-{at}"));
        let mut opts = DbOptions::new(&d).pool_shards(1);
        opts.buffer_pool_pages = 2;
        let db = Database::open(opts).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, pad VARCHAR)")
            .unwrap();
        // Re-register the heap file with the injector, so only its page
        // writes are counted and failed (the WAL's are not).
        let meta = db.table("t").unwrap();
        let faults = Arc::new(FaultInjector::new(FaultPlan::new(at).fail(IoOp::Write, at)));
        let path = d.join(meta.heap_file_name());
        let file = DiskFile::open_with_faults(path, Some(faults.clone())).unwrap();
        db.pool().register_file(meta.file_id, Arc::new(file));

        let mut committed = Vec::new();
        for id in 0..ROWS {
            match s.execute(&format!("INSERT INTO t VALUES ({id}, '{pad}')")) {
                Ok(_) => committed.push(id),
                Err(_) => break,
            }
        }
        if faults.stats().injected == 0 {
            // The stream made fewer than `at + 1` heap writes: walked all.
            assert!(at >= 5, "the stream must evict, walked only {at} writes");
            let _ = std::fs::remove_dir_all(&d);
            break;
        }
        assert_holds_exactly(&db, &committed, &format!("write {at}, same process"));

        db.checkpoint().unwrap();
        drop(s);
        drop(db);
        let reopened = Database::open(DbOptions::new(&d)).unwrap();
        assert_holds_exactly(&reopened, &committed, &format!("write {at}, reopened"));
        drop(reopened);
        let _ = std::fs::remove_dir_all(&d);
    }
}
