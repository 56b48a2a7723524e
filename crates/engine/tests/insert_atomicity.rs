//! A rejected INSERT leaves nothing behind.
//!
//! `insert_row` used to pre-check only the first unique index, insert into
//! the heap and then hook the indexes one by one; when a *second* unique
//! index rejected, the statement returned `DuplicateKey` with the row already
//! in the heap and in `pk_t`, and neither an undo entry nor a WAL record to
//! take it out again.

use std::sync::Arc;

use delta_engine::db::{Database, DbOptions};
use delta_engine::{EngineError, Session};
use delta_storage::Value;

fn dir(label: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-insatom-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// `t (id PK, code UNIQUE, v)` holding `(1, 10, 0)`.
fn two_unique_indexes(label: &str) -> (std::path::PathBuf, Arc<Database>, Session) {
    let d = dir(label);
    let db = Database::open(DbOptions::new(&d)).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, code INT, v INT)")
        .unwrap();
    s.execute("CREATE UNIQUE INDEX u_code ON t (code)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 10, 0)").unwrap();
    (d, db, s)
}

fn rows(db: &Database) -> Vec<Vec<i64>> {
    let mut rows: Vec<Vec<i64>> = db
        .scan_table("t")
        .unwrap()
        .iter()
        .map(|(_, r)| r.values().iter().map(|v| v.as_int().unwrap()).collect())
        .collect();
    rows.sort();
    rows
}

fn assert_rejected(s: &mut Session, sql: &str) {
    assert!(
        matches!(s.execute(sql), Err(EngineError::DuplicateKey { .. })),
        "{sql} must be rejected"
    );
}

/// The heap, both indexes and the SQL surface agree on `expected`.
fn assert_state(db: &Database, s: &mut Session, expected: &[[i64; 3]]) {
    assert_eq!(rows(db), expected, "heap scan");
    for name in ["pk_t", "u_code"] {
        let idx = db.indexes().get(name).unwrap();
        assert_eq!(idx.len(), expected.len(), "{name} entry count");
    }
    let r = s.execute("SELECT id FROM t WHERE id = 2").unwrap();
    let found = expected.iter().any(|row| row[0] == 2);
    assert_eq!(r.rows.len(), usize::from(found), "keyed probe for id 2");
}

#[test]
fn second_unique_index_rejection_leaves_no_phantom_under_autocommit() {
    let (_, db, mut s) = two_unique_indexes("auto");
    assert_rejected(&mut s, "INSERT INTO t VALUES (2, 10, 0)");
    assert_state(&db, &mut s, &[[1, 10, 0]]);
    // The key is still free: nothing claimed it on the way to the rejection.
    s.execute("INSERT INTO t VALUES (2, 20, 0)").unwrap();
    assert_state(&db, &mut s, &[[1, 10, 0], [2, 20, 0]]);
}

#[test]
fn rejection_inside_a_transaction_that_commits_other_work() {
    let (_, db, mut s) = two_unique_indexes("txn");
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (3, 30, 0)").unwrap();
    assert_rejected(&mut s, "INSERT INTO t VALUES (2, 10, 0)");
    s.execute("UPDATE t SET v = 7 WHERE id = 1").unwrap();
    s.execute("COMMIT").unwrap();
    assert_state(&db, &mut s, &[[1, 10, 7], [3, 30, 0]]);

    // And the same statement inside a transaction that rolls back.
    s.execute("BEGIN").unwrap();
    assert_rejected(&mut s, "INSERT INTO t VALUES (2, 10, 0)");
    s.execute("DELETE FROM t WHERE id = 3").unwrap();
    s.execute("ROLLBACK").unwrap();
    assert_state(&db, &mut s, &[[1, 10, 7], [3, 30, 0]]);
}

#[test]
fn rejection_survives_checkpoint_and_reopen() {
    let (d, db, mut s) = two_unique_indexes("reopen");
    assert_rejected(&mut s, "INSERT INTO t VALUES (2, 10, 0)");
    db.checkpoint().unwrap();
    s.execute("INSERT INTO t VALUES (4, 40, 0)").unwrap();
    drop(s);
    drop(db);

    // A phantom flushed by the checkpoint would fail the index rebuild at
    // open (two rows with code 10) or come back as a second row.
    let db = Database::open(DbOptions::new(&d)).unwrap();
    let mut s = db.session();
    assert_state(&db, &mut s, &[[1, 10, 0], [4, 40, 0]]);
    let r = s.execute("SELECT v FROM t WHERE code = 10").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].values()[0], Value::Int(0));
}
