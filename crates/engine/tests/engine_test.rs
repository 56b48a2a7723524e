//! End-to-end tests of the engine: DML, transactions, triggers, indexes,
//! access paths, WAL/archiving, log application, and persistence.

use std::sync::Arc;
use std::time::Duration;

use delta_engine::db::{destroy, Database, DbOptions};
use delta_engine::exec::{choose_access_path, AccessPath};
use delta_engine::trigger::{delta_table_schema, TriggerDef};
use delta_engine::{EngineError, Session};
use delta_sql::parser::parse_expression;
use delta_storage::Value;

fn temp_dir(label: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-it-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(label: &str) -> Arc<Database> {
    Database::open(DbOptions::new(temp_dir(label))).unwrap()
}

fn create_parts(s: &mut Session) {
    s.execute(
        "CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR NOT NULL, qty INT, last_modified TIMESTAMP)",
    )
    .unwrap();
}

fn seed_parts(s: &mut Session, n: i64) {
    for i in 0..n {
        s.execute(&format!(
            "INSERT INTO parts (id, name, qty) VALUES ({i}, 'part-{i}', {})",
            i % 10
        ))
        .unwrap();
    }
}

#[test]
fn insert_select_update_delete_cycle() {
    let db = open("crud");
    let mut s = db.session();
    create_parts(&mut s);
    seed_parts(&mut s, 20);

    let r = s.execute("SELECT * FROM parts WHERE id = 7").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].values()[1], Value::Str("part-7".into()));
    assert_eq!(r.columns, vec!["id", "name", "qty", "last_modified"]);

    let r = s
        .execute("UPDATE parts SET qty = qty + 100 WHERE id < 5")
        .unwrap();
    assert_eq!(r.affected, 5);
    let r = s.execute("SELECT qty FROM parts WHERE id = 3").unwrap();
    assert_eq!(r.rows[0].values()[0], Value::Int(103));

    let r = s.execute("DELETE FROM parts WHERE qty >= 100").unwrap();
    assert_eq!(r.affected, 5);
    assert_eq!(db.row_count("parts").unwrap(), 15);
}

#[test]
fn select_projection_expressions_and_aliases() {
    let db = open("proj");
    let mut s = db.session();
    create_parts(&mut s);
    seed_parts(&mut s, 3);
    let r = s
        .execute("SELECT id * 2 AS twice, name FROM parts WHERE id = 2")
        .unwrap();
    assert_eq!(r.columns, vec!["twice", "name"]);
    assert_eq!(r.rows[0].values()[0], Value::Int(4));
}

#[test]
fn primary_key_uniqueness_enforced() {
    let db = open("pk");
    let mut s = db.session();
    create_parts(&mut s);
    s.execute("INSERT INTO parts (id, name) VALUES (1, 'a')")
        .unwrap();
    let err = s
        .execute("INSERT INTO parts (id, name) VALUES (1, 'b')")
        .unwrap_err();
    assert!(matches!(err, EngineError::DuplicateKey { .. }));
    // Update onto an existing key also fails...
    s.execute("INSERT INTO parts (id, name) VALUES (2, 'c')")
        .unwrap();
    let err = s
        .execute("UPDATE parts SET id = 1 WHERE id = 2")
        .unwrap_err();
    assert!(matches!(err, EngineError::DuplicateKey { .. }));
    // ...and the autocommit abort rolled the statement back cleanly.
    assert_eq!(db.row_count("parts").unwrap(), 2);
    let r = s.execute("SELECT id FROM parts WHERE id = 2").unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn auto_timestamp_stamps_inserts_and_updates() {
    let db = open("autots");
    let mut s = db.session();
    create_parts(&mut s);
    s.execute("INSERT INTO parts (id, name) VALUES (1, 'a')")
        .unwrap();
    let t1 = match s
        .execute("SELECT last_modified FROM parts WHERE id = 1")
        .unwrap()
        .rows[0]
        .values()[0]
    {
        Value::Timestamp(t) => t,
        ref other => panic!("expected timestamp, got {other:?}"),
    };
    assert!(t1 > 0);
    s.execute("UPDATE parts SET name = 'b' WHERE id = 1")
        .unwrap();
    let t2 = match s
        .execute("SELECT last_modified FROM parts WHERE id = 1")
        .unwrap()
        .rows[0]
        .values()[0]
    {
        Value::Timestamp(t) => t,
        ref other => panic!("expected timestamp, got {other:?}"),
    };
    assert!(t2 > t1, "update must advance the timestamp");
}

#[test]
fn explicit_transactions_commit_and_rollback() {
    let db = open("txn");
    let mut s = db.session();
    create_parts(&mut s);
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO parts (id, name) VALUES (1, 'kept')")
        .unwrap();
    s.execute("COMMIT").unwrap();

    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO parts (id, name) VALUES (2, 'doomed')")
        .unwrap();
    s.execute("UPDATE parts SET name = 'mutated' WHERE id = 1")
        .unwrap();
    s.execute("DELETE FROM parts WHERE id = 1").unwrap();
    s.execute("ROLLBACK").unwrap();

    let r = s.execute("SELECT name FROM parts WHERE id = 1").unwrap();
    assert_eq!(r.rows[0].values()[0], Value::Str("kept".into()));
    assert_eq!(db.row_count("parts").unwrap(), 1);
    // Indexes were restored by the rollback: keyed lookup still works.
    let r = s.execute("SELECT * FROM parts WHERE id = 2").unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn rollback_restores_multi_row_state() {
    let db = open("txn2");
    let mut s = db.session();
    create_parts(&mut s);
    seed_parts(&mut s, 50);
    let before: Vec<_> = db
        .scan_table("parts")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE parts SET qty = 999").unwrap();
    s.execute("DELETE FROM parts WHERE id >= 25").unwrap();
    s.execute("ROLLBACK").unwrap();
    let mut after: Vec<_> = db
        .scan_table("parts")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    // Order can differ (deletes re-inserted elsewhere); compare as sets.
    let key = |r: &delta_storage::Row| r.values()[0].as_int().unwrap();
    after.sort_by_key(key);
    let mut want = before.clone();
    want.sort_by_key(key);
    assert_eq!(after, want);
}

#[test]
fn rollback_after_delete_insert_churn_in_one_table_restores_every_row() {
    // Undo entries name rows by record id, and the heap hands a re-inserted
    // row the first free slot — which may be the slot an earlier insert of
    // the same transaction used. Rolling back must still remove exactly the
    // rows the transaction added and bring back exactly those it removed.
    let db = open("txn-churn");
    let mut s = db.session();
    create_parts(&mut s);
    seed_parts(&mut s, 12);
    let key = |r: &delta_storage::Row| r.values()[0].as_int().unwrap();
    let snapshot = |db: &Database| {
        let mut rows: Vec<_> = db
            .scan_table("parts")
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        rows.sort_by_key(key);
        rows
    };
    let want = snapshot(&db);
    s.execute("BEGIN").unwrap();
    // Free an early slot, take it with a new row, free that one again and
    // a later one, refill both, rewrite a survivor.
    s.execute("DELETE FROM parts WHERE id = 2").unwrap();
    s.execute("INSERT INTO parts (id, name, qty) VALUES (100, 'n100', 1)")
        .unwrap();
    s.execute("DELETE FROM parts WHERE id = 100").unwrap();
    s.execute("DELETE FROM parts WHERE id = 7").unwrap();
    s.execute("INSERT INTO parts (id, name, qty) VALUES (101, 'n101', 1)")
        .unwrap();
    s.execute("INSERT INTO parts (id, name, qty) VALUES (7, 'back', 1)")
        .unwrap();
    s.execute("UPDATE parts SET qty = qty + 1 WHERE id = 101")
        .unwrap();
    s.execute("DELETE FROM parts WHERE id = 101").unwrap();
    s.execute("INSERT INTO parts (id, name, qty) VALUES (102, 'n102', 1)")
        .unwrap();
    s.execute("ROLLBACK").unwrap();
    assert_eq!(snapshot(&db), want);
    // The primary-key index followed the rows.
    for id in [2, 7] {
        let r = s
            .execute(&format!("SELECT id FROM parts WHERE id = {id}"))
            .unwrap();
        assert_eq!(r.rows.len(), 1, "id {id}");
    }
    for id in [100, 101, 102] {
        let r = s
            .execute(&format!("SELECT id FROM parts WHERE id = {id}"))
            .unwrap();
        assert!(r.rows.is_empty(), "id {id}");
    }
}

#[test]
fn txn_control_misuse_is_reported() {
    let db = open("txn3");
    let mut s = db.session();
    assert!(matches!(s.execute("COMMIT"), Err(EngineError::TxnState(_))));
    assert!(matches!(
        s.execute("ROLLBACK"),
        Err(EngineError::TxnState(_))
    ));
    s.execute("BEGIN").unwrap();
    assert!(matches!(s.execute("BEGIN"), Err(EngineError::TxnState(_))));
    assert!(matches!(
        s.execute("CREATE TABLE t (a INT)"),
        Err(EngineError::TxnState(_))
    ));
    s.execute("COMMIT").unwrap();
}

#[test]
fn dropped_session_rolls_back_open_txn() {
    let db = open("drop-session");
    {
        let mut s = db.session();
        create_parts(&mut s);
    }
    {
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO parts (id, name) VALUES (1, 'x')")
            .unwrap();
        // Session dropped with the transaction open.
    }
    assert_eq!(db.row_count("parts").unwrap(), 0);
    // And its locks were released: another session can write immediately.
    let mut s2 = db.session();
    s2.execute("INSERT INTO parts (id, name) VALUES (1, 'y')")
        .unwrap();
}

#[test]
fn capture_trigger_writes_delta_rows() {
    let db = open("trig");
    let mut s = db.session();
    create_parts(&mut s);
    let src = db.table("parts").unwrap();
    db.create_table(
        "parts_delta",
        delta_table_schema(&src.schema).unwrap(),
        Default::default(),
    )
    .unwrap();
    db.create_trigger(TriggerDef::capture_all("cap", "parts", "parts_delta"))
        .unwrap();

    s.execute("INSERT INTO parts (id, name, qty) VALUES (1, 'a', 5)")
        .unwrap();
    s.execute("UPDATE parts SET qty = 6 WHERE id = 1").unwrap();
    s.execute("DELETE FROM parts WHERE id = 1").unwrap();

    let rows = db.scan_table("parts_delta").unwrap();
    let ops: Vec<String> = rows
        .iter()
        .map(|(_, r)| r.values()[0].as_str().unwrap().to_string())
        .collect();
    assert_eq!(
        ops,
        vec!["I", "UB", "UA", "D"],
        "1 insert + 2 update images + 1 delete"
    );
    // The before image of the update carries qty=5, the after image qty=6.
    assert_eq!(rows[1].1.values()[4], Value::Int(5));
    assert_eq!(rows[2].1.values()[4], Value::Int(6));
    // Distinct statements have distinct transaction ids.
    let txns: Vec<i64> = rows
        .iter()
        .map(|(_, r)| r.values()[1].as_int().unwrap())
        .collect();
    assert_ne!(txns[0], txns[1]);
    assert_eq!(txns[1], txns[2], "both update images in one transaction");
}

#[test]
fn trigger_failure_aborts_user_transaction() {
    let db = open("trig-abort");
    let mut s = db.session();
    create_parts(&mut s);
    // Trigger writes into a table that doesn't exist: the insert must fail
    // and leave no row behind (paper: "if a trigger fails it also aborts the
    // user transaction").
    db.create_trigger(TriggerDef::capture_all("bad", "parts", "missing_target"))
        .unwrap();
    let err = s
        .execute("INSERT INTO parts (id, name) VALUES (1, 'x')")
        .unwrap_err();
    assert!(matches!(err, EngineError::NoSuchObject(_)));
    assert_eq!(db.row_count("parts").unwrap(), 0);
}

#[test]
fn secondary_index_and_access_path_heuristic() {
    let dir = temp_dir("access");
    let db = Database::open(DbOptions::new(&dir)).unwrap();
    let mut s = db.session();
    create_parts(&mut s);
    seed_parts(&mut s, 200);
    db.create_index("ts_idx", "parts", "last_modified", false)
        .unwrap();

    let meta = db.table("parts").unwrap();
    // Small delta fraction → index.
    let hi = db.peek_clock();
    let p = parse_expression(&format!("last_modified > {}", hi - 10)).unwrap();
    match choose_access_path(&db, &meta, Some(&p)) {
        AccessPath::IndexRange {
            index,
            estimated_fraction,
        } => {
            assert_eq!(index, "ts_idx");
            assert!(estimated_fraction < 0.2);
        }
        other => panic!("expected index path, got {other:?}"),
    }
    // Large delta fraction → seq scan (the optimizer remark of §3.1.1).
    let p = parse_expression("last_modified > 0").unwrap();
    assert_eq!(
        choose_access_path(&db, &meta, Some(&p)),
        AccessPath::SeqScan
    );
    // No predicate → seq scan.
    assert_eq!(choose_access_path(&db, &meta, None), AccessPath::SeqScan);

    // Results agree between paths.
    let r = s
        .execute(&format!(
            "SELECT id FROM parts WHERE last_modified > {}",
            hi - 10
        ))
        .unwrap();
    let r2_pred = format!("last_modified > {} AND id >= 0", hi - 10);
    let r2 = s
        .execute(&format!("SELECT id FROM parts WHERE {r2_pred}"))
        .unwrap();
    assert_eq!(r.rows.len(), r2.rows.len());
    destroy(dir);
}

#[test]
fn lock_conflicts_time_out_and_release() {
    let dir = temp_dir("locks");
    let mut opts = DbOptions::new(&dir);
    opts.lock_timeout = Duration::from_millis(80);
    let db = Database::open(opts).unwrap();
    let mut s1 = db.session();
    create_parts(&mut s1);
    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO parts (id, name) VALUES (1, 'x')")
        .unwrap();

    let mut s2 = db.session();
    let err = s2
        .execute("INSERT INTO parts (id, name) VALUES (2, 'y')")
        .unwrap_err();
    assert!(matches!(err, EngineError::LockTimeout { .. }));
    // Readers are blocked too (writer holds X).
    assert!(s2.execute("SELECT * FROM parts").is_err());

    s1.execute("COMMIT").unwrap();
    s2.execute("INSERT INTO parts (id, name) VALUES (2, 'y')")
        .unwrap();
    assert_eq!(db.row_count("parts").unwrap(), 2);
    destroy(dir);
}

#[test]
fn concurrent_writers_serialize() {
    let db = open("conc");
    let mut s = db.session();
    create_parts(&mut s);
    let mut handles = Vec::new();
    for t in 0..4 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = db.session();
            for i in 0..50 {
                s.execute(&format!(
                    "INSERT INTO parts (id, name) VALUES ({}, 'w{t}')",
                    t * 1000 + i
                ))
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.row_count("parts").unwrap(), 200);
    // Primary-key index agrees with the heap after concurrent writes.
    let r = db
        .session()
        .execute("SELECT * FROM parts WHERE id = 3042")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn wal_contains_committed_work_in_commit_order() {
    let db = open("walorder");
    let mut s = db.session();
    create_parts(&mut s);
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO parts (id, name) VALUES (1, 'a')")
        .unwrap();
    s.execute("ROLLBACK").unwrap();
    s.execute("INSERT INTO parts (id, name) VALUES (2, 'b')")
        .unwrap();

    let recs = db.wal().read_from(1).unwrap();
    // No record of the rolled-back insert may appear.
    for (_, r) in &recs {
        if let delta_engine::LogRecord::Insert { row, .. } = r {
            assert_ne!(
                row.values()[0],
                Value::Int(1),
                "aborted work must not be logged"
            );
        }
    }
    // Exactly one committed DML transaction (Begin/Insert/Commit).
    let begins = recs
        .iter()
        .filter(|(_, r)| matches!(r, delta_engine::LogRecord::Begin { .. }))
        .count();
    assert_eq!(begins, 1);
}

#[test]
fn log_shipping_recreates_database() {
    let dir = temp_dir("ship-src");
    let opts = DbOptions::new(&dir).archive(true);
    let src = Database::open(opts).unwrap();
    let mut s = src.session();
    create_parts(&mut s);
    seed_parts(&mut s, 30);
    s.execute("UPDATE parts SET qty = 777 WHERE id < 10")
        .unwrap();
    s.execute("DELETE FROM parts WHERE id >= 20").unwrap();
    src.checkpoint().unwrap();

    // Ship: read everything from the source log, apply to a fresh standby —
    // the §3 log-based tool ("shipped to another similar database and applied
    // using tools based on the DBMS recovery managers").
    let standby = open("ship-dst");
    let recs = src.wal().read_from(1).unwrap();
    standby.apply_log_records(&recs).unwrap();

    assert_eq!(standby.row_count("parts").unwrap(), 20);
    let r = standby
        .session()
        .execute("SELECT qty FROM parts WHERE id = 5")
        .unwrap();
    assert_eq!(r.rows[0].values()[0], Value::Int(777));
    // Timestamps were preserved verbatim (no re-stamping on apply).
    let src_rows: Vec<_> = src
        .scan_table("parts")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    let mut dst_rows: Vec<_> = standby
        .scan_table("parts")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    let key = |r: &delta_storage::Row| r.values()[0].as_int().unwrap();
    let mut src_sorted = src_rows;
    src_sorted.sort_by_key(key);
    dst_rows.sort_by_key(key);
    assert_eq!(src_sorted, dst_rows);
    destroy(dir);
}

#[test]
fn checkpoint_recycles_segments_unless_archiving() {
    // Without archive mode, closed segments disappear at checkpoint.
    let dir = temp_dir("ckpt-noarch");
    let mut opts = DbOptions::new(&dir);
    opts.wal_segment_bytes = 4096;
    let db = Database::open(opts).unwrap();
    let mut s = db.session();
    create_parts(&mut s);
    seed_parts(&mut s, 300);
    db.checkpoint().unwrap();
    assert!(db.wal().archived_segments().unwrap().is_empty());
    assert_eq!(db.wal().resident_segments().unwrap().len(), 1);
    destroy(dir);

    // With archive mode, they accumulate in the archive.
    let dir = temp_dir("ckpt-arch");
    let mut opts = DbOptions::new(&dir).archive(true);
    opts.wal_segment_bytes = 4096;
    let db = Database::open(opts).unwrap();
    let mut s = db.session();
    create_parts(&mut s);
    seed_parts(&mut s, 300);
    db.checkpoint().unwrap();
    assert!(!db.wal().archived_segments().unwrap().is_empty());
    destroy(dir);
}

#[test]
fn archiving_never_rewrites_a_segment() {
    let dir = temp_dir("ckpt-rename");
    let db = Database::open(DbOptions::new(&dir).archive(true)).unwrap();
    let mut s = db.session();
    create_parts(&mut s);
    seed_parts(&mut s, 20);
    db.wal().switch_segment().unwrap();
    let closed = db.wal().resident_segments().unwrap()[0].clone();
    let written = std::fs::read(&closed).unwrap();
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    // The segment the log wrote is the segment the archive holds: moved by
    // rename, never re-encoded, and nothing else lands beside it.
    let archived = db.wal().archive_dir().join(closed.file_name().unwrap());
    assert_eq!(std::fs::read(&archived).unwrap(), written);
    for entry in std::fs::read_dir(db.wal().archive_dir()).unwrap() {
        let path = entry.unwrap().path();
        assert_eq!(path.extension().unwrap(), "wal", "{}", path.display());
    }
    destroy(dir);
}

#[test]
fn database_reopens_with_data_indexes_and_clock() {
    let dir = temp_dir("reopen");
    {
        let db = Database::open(DbOptions::new(&dir)).unwrap();
        let mut s = db.session();
        create_parts(&mut s);
        seed_parts(&mut s, 25);
        db.create_index("ts_idx", "parts", "last_modified", false)
            .unwrap();
        db.pool().flush_and_sync_all().unwrap();
    }
    let db = Database::open(DbOptions::new(&dir)).unwrap();
    assert_eq!(db.row_count("parts").unwrap(), 25);
    // Secondary index definition survived and was rebuilt.
    assert!(db.indexes().get("ts_idx").is_some());
    assert_eq!(db.indexes().get("ts_idx").unwrap().len(), 25);
    // PK uniqueness still enforced after reopen.
    let mut s = db.session();
    let err = s
        .execute("INSERT INTO parts (id, name) VALUES (3, 'dup')")
        .unwrap_err();
    assert!(matches!(err, EngineError::DuplicateKey { .. }));
    // The clock resumed past all stored timestamps: new stamps are fresh.
    s.execute("INSERT INTO parts (id, name) VALUES (100, 'new')")
        .unwrap();
    let r = s
        .execute("SELECT last_modified FROM parts WHERE id = 100")
        .unwrap();
    let t_new = r.rows[0].values()[0].as_int().unwrap();
    let r = s
        .execute("SELECT last_modified FROM parts WHERE id = 3")
        .unwrap();
    let t_old = r.rows[0].values()[0].as_int().unwrap();
    assert!(t_new > t_old);
    destroy(dir);
}

#[test]
fn drop_table_removes_everything() {
    let db = open("droptbl");
    let mut s = db.session();
    create_parts(&mut s);
    seed_parts(&mut s, 5);
    db.create_index("ts_idx", "parts", "last_modified", false)
        .unwrap();
    db.create_trigger(TriggerDef::capture_all("cap", "parts", "parts"))
        .unwrap();
    s.execute("DROP TABLE parts").unwrap();
    assert!(db.table("parts").is_err());
    assert!(db.indexes().get("ts_idx").is_none());
    assert!(!db.triggers().has_any("parts"));
    // Recreating the table works and starts empty.
    create_parts(&mut s);
    assert_eq!(db.row_count("parts").unwrap(), 0);
}

#[test]
fn orphan_index_definition_does_not_block_reopen() {
    // `drop_table` persists the catalog before `indexes.meta`; a crash
    // between the two leaves a line naming a table that is gone.
    let dir = temp_dir("orphanidx");
    {
        let db = Database::open(DbOptions::new(&dir)).unwrap();
        let mut s = db.session();
        create_parts(&mut s);
        seed_parts(&mut s, 5);
        db.create_index("ts_idx", "parts", "last_modified", false)
            .unwrap();
        db.pool().flush_and_sync_all().unwrap();
    }
    let meta = dir.join("indexes.meta");
    let mut defs = std::fs::read_to_string(&meta).unwrap();
    defs.push_str("gone_idx\tgone\tc\t0\nbad_col\tparts\tno_such_column\t0\n");
    std::fs::write(&meta, defs).unwrap();

    let db = Database::open(DbOptions::new(&dir)).unwrap();
    assert_eq!(db.indexes().get("ts_idx").unwrap().len(), 5);
    assert!(db.indexes().get("gone_idx").is_none());
    assert!(db.indexes().get("bad_col").is_none());
    // The next save forgets the orphans.
    db.create_index("qty_idx", "parts", "qty", false).unwrap();
    let defs = std::fs::read_to_string(&meta).unwrap();
    assert!(defs.contains("ts_idx") && defs.contains("qty_idx"));
    assert!(!defs.contains("gone_idx") && !defs.contains("bad_col"));
    destroy(dir);
}

#[test]
fn now_in_statements_uses_engine_clock() {
    let db = open("now");
    let mut s = db.session();
    create_parts(&mut s);
    s.execute("INSERT INTO parts (id, name, qty) VALUES (1, 'a', 0)")
        .unwrap();
    // NOW() strictly exceeds any stored stamp at evaluation time.
    let r = s
        .execute("SELECT * FROM parts WHERE last_modified < NOW()")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn execute_all_runs_scripts_and_stops_on_error() {
    let db = open("script");
    let mut s = db.session();
    s.execute_all(&[
        "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
        "INSERT INTO t VALUES (1, 10)",
        "INSERT INTO t VALUES (2, 20)",
        "UPDATE t SET v = v + 1 WHERE id = 1",
    ])
    .unwrap();
    assert_eq!(db.row_count("t").unwrap(), 2);
    // A failure mid-script surfaces and halts the remainder.
    let err = s.execute_all(&[
        "INSERT INTO t VALUES (3, 30)",
        "INSERT INTO t VALUES (3, 31)", // duplicate key
        "INSERT INTO t VALUES (4, 40)", // never runs
    ]);
    assert!(err.is_err());
    assert_eq!(db.row_count("t").unwrap(), 3, "stopped before id=4");
}

#[test]
fn multi_row_insert_is_one_transaction() {
    let db = open("multirow");
    let mut s = db.session();
    create_parts(&mut s);
    s.execute("INSERT INTO parts (id, name) VALUES (1, 'a'), (2, 'b'), (2, 'dup')")
        .unwrap_err();
    assert_eq!(db.row_count("parts").unwrap(), 0, "atomic: all-or-nothing");
    let r = s
        .execute("INSERT INTO parts (id, name) VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    assert_eq!(r.affected, 3);
}

#[test]
fn predicate_that_fails_mid_scan_fails_the_statement() {
    // A sequential scan filters as it goes; an evaluation error on one row
    // is still the statement's error, whichever rows matched before it.
    let db = open("scan-eval-error");
    let mut s = db.session();
    create_parts(&mut s);
    seed_parts(&mut s, 20);
    let err = s
        .execute("UPDATE parts SET qty = 0 WHERE 100 / (qty - 5) > 0")
        .unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    let touched = s.execute("SELECT * FROM parts WHERE qty = 0").unwrap();
    assert_eq!(touched.rows.len(), 2, "only the two seeded with qty 0");
    // Without the failing rows the same shape goes through.
    let ok = s
        .execute("UPDATE parts SET qty = 0 WHERE qty > 5 AND 100 / (qty - 5) > 0")
        .unwrap();
    assert_eq!(ok.affected, 8);
}
