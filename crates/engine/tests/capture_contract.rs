//! The capture contract of the trigger method (§3.1.3): what a capture
//! trigger writes, in which order, and where it writes nothing.
//!
//! * a replay — log application onto a standby, redo recovery at reopen —
//!   never captures;
//! * each row's delta rows follow that row's redo record, before the next
//!   row changes;
//! * a statement that fails on row k inside `BEGIN` leaves the delta rows of
//!   rows 1..k-1, as it leaves the rows themselves;
//! * the auto-timestamp stamp is the executor's, put on the row before it is
//!   validated.

use std::sync::Arc;

use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_engine::trigger::{delta_table_schema, TriggerDef};
use delta_engine::{EngineError, LogRecord, Session};
use delta_storage::{Row, Value};

fn temp_dir(label: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-capture-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &std::path::Path) -> Arc<Database> {
    Database::open(DbOptions::new(dir).sync(SyncMode::Flush)).unwrap()
}

fn create_parts(s: &mut Session) {
    s.execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR, qty INT)")
        .unwrap();
}

/// Create `parts_delta` and the capture trigger `cap` on `parts`.
fn capture_parts(db: &Database) {
    let src = db.table("parts").unwrap();
    let schema = delta_table_schema(&src.schema).unwrap();
    db.create_table("parts_delta", schema, Default::default())
        .unwrap();
    db.create_trigger(TriggerDef::capture_all("cap", "parts", "parts_delta"))
        .unwrap();
}

/// `(op code, src_id)` of every delta row, in storage order.
fn delta_ops(db: &Database) -> Vec<(String, i64)> {
    db.scan_table("parts_delta")
        .unwrap()
        .into_iter()
        .map(|(_, r)| {
            let op = r.values()[0].as_str().unwrap().to_string();
            (op, r.values()[2].as_int().unwrap())
        })
        .collect()
}

fn sorted_rows(db: &Database, table: &str) -> Vec<Row> {
    let mut rows: Vec<Row> = db
        .scan_table(table)
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    rows.sort_by_key(|r| r.to_bytes());
    rows
}

#[test]
fn log_application_onto_a_captured_table_captures_nothing() {
    let src_dir = temp_dir("apply-src");
    let src = open(&src_dir);
    let mut s = src.session();
    create_parts(&mut s);
    s.execute("INSERT INTO parts VALUES (1, 'a', 1), (2, 'b', 2), (3, 'c', 3)")
        .unwrap();
    s.execute("UPDATE parts SET qty = 10 WHERE id = 2").unwrap();
    s.execute("DELETE FROM parts WHERE id = 3").unwrap();

    let dst_dir = temp_dir("apply-dst");
    let dst = open(&dst_dir);
    create_parts(&mut dst.session());
    capture_parts(&dst);
    let applied = dst
        .apply_log_records(&src.wal().read_from(1).unwrap())
        .unwrap();
    assert_eq!(applied, 5);
    assert_eq!(sorted_rows(&dst, "parts"), sorted_rows(&src, "parts"));
    assert!(delta_ops(&dst).is_empty(), "a replay fires no trigger");
    let _ = std::fs::remove_dir_all(src_dir);
    let _ = std::fs::remove_dir_all(dst_dir);
}

#[test]
fn recovery_at_reopen_captures_nothing() {
    let dir = temp_dir("recover");
    let db = open(&dir);
    let mut s = db.session();
    create_parts(&mut s);
    capture_parts(&db);
    s.execute("INSERT INTO parts VALUES (1, 'a', 1), (2, 'b', 2)")
        .unwrap();
    s.execute("UPDATE parts SET qty = 5 WHERE id = 1").unwrap();
    s.execute("DELETE FROM parts WHERE id = 2").unwrap();
    let captured = sorted_rows(&db, "parts_delta");
    assert_eq!(captured.len(), 5, "I, I, UB, UA, D");
    let parts = sorted_rows(&db, "parts");

    // Crash: leak the database, so reopen replays the log onto the heaps.
    drop(s);
    let _leaked = std::mem::ManuallyDrop::new(db);
    let db = open(&dir);
    assert_eq!(sorted_rows(&db, "parts"), parts);
    assert_eq!(
        sorted_rows(&db, "parts_delta"),
        captured,
        "recovery restores the captured rows and adds none"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn each_rows_delta_rows_follow_its_redo_record() {
    let dir = temp_dir("order");
    let db = open(&dir);
    let mut s = db.session();
    create_parts(&mut s);
    capture_parts(&db);
    s.execute("INSERT INTO parts VALUES (1, 'a', 1), (2, 'b', 2)")
        .unwrap();
    let from = db.wal().next_lsn();
    s.execute("UPDATE parts SET qty = qty + 1").unwrap();

    let logged: Vec<String> = db
        .wal()
        .read_from(from)
        .unwrap()
        .into_iter()
        .filter_map(|(_, rec)| match rec {
            LogRecord::Update { table, before, .. } => {
                Some(format!("Update {table} {}", before.values()[0]))
            }
            LogRecord::Insert { table, row, .. } => Some(format!(
                "Insert {table} {} {}",
                row.values()[0],
                row.values()[2]
            )),
            _ => None,
        })
        .collect();
    assert_eq!(
        logged,
        [
            "Update parts 1",
            "Insert parts_delta 'UB' 1",
            "Insert parts_delta 'UA' 1",
            "Update parts 2",
            "Insert parts_delta 'UB' 2",
            "Insert parts_delta 'UA' 2",
        ]
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_statement_failing_on_row_k_keeps_the_delta_rows_before_it() {
    let dir = temp_dir("partial");
    let db = open(&dir);
    let mut s = db.session();
    create_parts(&mut s);
    capture_parts(&db);
    s.execute("INSERT INTO parts VALUES (9, 'z', 0)").unwrap();
    s.execute("BEGIN").unwrap();
    let err = s
        .execute("INSERT INTO parts VALUES (1, 'a', 1), (2, 'b', 2), (9, 'dup', 3), (4, 'd', 4)")
        .unwrap_err();
    assert!(matches!(err, EngineError::DuplicateKey { .. }), "{err}");
    s.execute("COMMIT").unwrap();

    assert_eq!(db.row_count("parts").unwrap(), 3, "rows 9, 1 and 2");
    let ops: Vec<(String, i64)> = [9, 1, 2].map(|id| ("I".to_string(), id)).to_vec();
    assert_eq!(delta_ops(&db), ops);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_unset_not_null_auto_timestamp_column_is_stamped() {
    let dir = temp_dir("stamp");
    let db = open(&dir);
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, last_modified TIMESTAMP NOT NULL)")
        .unwrap();
    s.execute("INSERT INTO t (id) VALUES (1)").unwrap();
    let rows = db.scan_table("t").unwrap();
    assert_eq!(rows.len(), 1);
    assert!(matches!(rows[0].1.values()[1], Value::Timestamp(_)));
    let _ = std::fs::remove_dir_all(dir);
}
