//! Group-commit WAL properties under concurrency, and the incremental
//! index undo on abort.
//!
//! The leader/follower protocol batches whole commit runs, so the log must
//! still read back as if commits were serial: every transaction's records
//! contiguous between its Begin and Commit, LSNs dense, and a replay of the
//! log reconstructing exactly the committed state.

use std::collections::HashMap;
use std::sync::Arc;

use delta_engine::db::{destroy, Database, DbOptions, SyncMode};
use delta_engine::wal::LogRecord;
use delta_storage::Row;

fn dir(label: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-gc-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn sorted_rows(db: &Arc<Database>, table: &str) -> Vec<Row> {
    let mut rows: Vec<Row> = db
        .scan_table(table)
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    rows.sort_by(|a, b| a.values()[0].total_cmp(&b.values()[0]));
    rows
}

#[test]
fn concurrent_commits_stay_contiguous_dense_and_replayable() {
    const THREADS: usize = 8;
    const TXNS: usize = 25;

    let d = dir("atomic");
    let mut opts = DbOptions::new(&d);
    opts.wal_sync = SyncMode::Flush;
    let db = Database::open(opts).unwrap();
    for t in 0..THREADS {
        db.session()
            .execute(&format!("CREATE TABLE t{t} (id INT PRIMARY KEY, v INT)"))
            .unwrap();
    }

    let before = db.wal().stats();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut s = db.session();
                for rep in 0..TXNS {
                    // Three rows per transaction: multi-record commit
                    // batches are what could interleave if grouping broke
                    // per-transaction contiguity.
                    let base = rep * 3;
                    s.execute(&format!(
                        "INSERT INTO t{t} VALUES ({base}, {t}), ({}, {t}), ({}, {t})",
                        base + 1,
                        base + 2
                    ))
                    .unwrap();
                }
            });
        }
    });
    let after = db.wal().stats();
    assert_eq!(
        after.batches - before.batches,
        (THREADS * TXNS) as u64,
        "one commit batch per transaction"
    );
    assert!(after.groups <= after.batches);
    assert_eq!(
        db.wal().durable_lsn(),
        db.wal().next_lsn() - 1,
        "everything acknowledged is durable"
    );

    let records = db.wal().read_from(1).unwrap();
    // Dense LSNs: the sealed group order leaves no holes.
    for (i, (lsn, _)) in records.iter().enumerate() {
        assert_eq!(*lsn, (i + 1) as u64, "LSNs must be dense");
    }
    // Per-transaction contiguity: between a Begin and its Commit, every
    // record (all carry a txn id in a commit batch) belongs to that txn.
    let mut open = None;
    let mut committed = 0usize;
    for (lsn, rec) in &records {
        match rec {
            LogRecord::Begin { txn } => {
                assert!(open.is_none(), "Begin {txn} inside open txn at lsn {lsn}");
                open = Some(*txn);
            }
            LogRecord::Commit { txn } => {
                assert_eq!(open, Some(*txn), "Commit {txn} closes wrong txn at {lsn}");
                open = None;
                committed += 1;
            }
            other => {
                if let Some(owner) = open {
                    assert_eq!(
                        other.txn(),
                        Some(owner),
                        "foreign record interleaved into txn {owner} at lsn {lsn}"
                    );
                }
            }
        }
    }
    assert!(open.is_none(), "log ends with an open transaction");
    // DDL ships as standalone unbracketed batches; only the insert
    // transactions carry Begin/Commit pairs.
    assert_eq!(committed, THREADS * TXNS, "one Commit per insert txn");

    // Replay into a fresh database: group commit must not change what the
    // log *means*. The replica ends up identical to the live state, which
    // is by construction the serial outcome (each thread owns its table).
    let rd = dir("atomic-replica");
    let replica = Database::open(DbOptions::new(&rd)).unwrap();
    replica.apply_log_records(&records).unwrap();
    for t in 0..THREADS {
        let table = format!("t{t}");
        assert_eq!(replica.row_count(&table).unwrap(), TXNS * 3);
        assert_eq!(sorted_rows(&replica, &table), sorted_rows(&db, &table));
    }
    destroy(&rd);
    destroy(&d);
}

#[test]
fn abort_undoes_incrementally_without_scanning_the_heap() {
    let d = dir("abort-noscan");
    let db = Database::open(DbOptions::new(&d)).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, pad VARCHAR)")
        .unwrap();
    s.execute("CREATE INDEX v_idx ON t (v)").unwrap();
    // A few thousand ~100-byte rows: dozens of heap pages, so a rebuild
    // (full scan) would show up as hundreds of page touches.
    let pad = "x".repeat(80);
    for chunk in 0..8 {
        let values: Vec<String> = (chunk * 500..(chunk + 1) * 500)
            .map(|i| format!("({i}, {}, '{pad}')", i * 7))
            .collect();
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }

    // A small transaction touching all three undo shapes.
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET v = -1 WHERE id = 1234").unwrap();
    s.execute("DELETE FROM t WHERE id = 2345").unwrap();
    s.execute("INSERT INTO t VALUES (9999, 9, 'fresh')")
        .unwrap();
    let before = db.pool_stats();
    s.execute("ROLLBACK").unwrap();
    let after = db.pool_stats();

    let touched = (after.hits - before.hits) + (after.misses - before.misses);
    assert!(
        touched < 50,
        "abort touched {touched} pages — looks like an index rebuild scan"
    );

    // And the rollback is actually correct, indexes included.
    assert_eq!(db.row_count("t").unwrap(), 4000);
    let by_pk = s.execute("SELECT v FROM t WHERE id = 1234").unwrap();
    assert_eq!(by_pk.rows.len(), 1);
    assert_eq!(
        by_pk.rows[0].values()[0],
        delta_storage::Value::Int(1234 * 7)
    );
    // Secondary-index probes see the restored rows and not the aborted ones.
    let mut probe = |cond: &str| {
        s.execute(&format!("SELECT id FROM t WHERE {cond}"))
            .unwrap()
    };
    assert_eq!(probe(&format!("v = {}", 1234 * 7)).rows.len(), 1);
    assert_eq!(probe(&format!("v = {}", 2345 * 7)).rows.len(), 1);
    assert_eq!(probe("v = -1").rows.len(), 0);
    assert_eq!(probe("v = 9").rows.len(), 0);
    destroy(&d);
}

/// Distinct counts per table prove no cross-thread write leaked: each
/// committed transaction's effects land exactly once.
#[test]
fn recovery_equals_concurrent_state_under_fsync_grouping() {
    const THREADS: usize = 4;
    const TXNS: usize = 10;
    let d = dir("fsync-replay");
    let mut opts = DbOptions::new(&d);
    opts.wal_sync = SyncMode::Fsync;
    let db = Database::open(opts).unwrap();
    for t in 0..THREADS {
        db.session()
            .execute(&format!("CREATE TABLE t{t} (id INT PRIMARY KEY, v INT)"))
            .unwrap();
    }
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut s = db.session();
                for rep in 0..TXNS {
                    s.execute(&format!("INSERT INTO t{t} VALUES ({rep}, {t})"))
                        .unwrap();
                }
            });
        }
    });
    let records = db.wal().read_from(1).unwrap();
    let mut per_table: HashMap<String, usize> = HashMap::new();
    for (_, rec) in &records {
        if let LogRecord::Insert { table, .. } = rec {
            *per_table.entry(table.clone()).or_default() += 1;
        }
    }
    for t in 0..THREADS {
        assert_eq!(per_table.get(&format!("t{t}")), Some(&TXNS));
    }
    let rd = dir("fsync-replay-replica");
    let replica = Database::open(DbOptions::new(&rd)).unwrap();
    replica.apply_log_records(&records).unwrap();
    for t in 0..THREADS {
        let table = format!("t{t}");
        assert_eq!(sorted_rows(&replica, &table), sorted_rows(&db, &table));
    }
    destroy(&rd);
    destroy(&d);
}
