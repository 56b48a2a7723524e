//! A statement raises `unknown column` only for a name its predicate
//! actually reads.
//!
//! A predicate is compiled once per statement, but a name the table does not
//! have raises its error when it is evaluated, not when it is compiled
//! (DESIGN.md §24.1, §37): a branch a short-circuit skips on every row, and
//! a statement over an empty table, succeed as if each name were looked up
//! per row. This holds on an unindexed scan and on an index range alike.

use std::sync::Arc;

use delta_engine::db::{Database, DbOptions};
use delta_engine::exec::{choose_access_path, AccessPath};
use delta_engine::EngineError;
use delta_sql::parser::parse_expression;

const ROWS: i64 = 50;

fn open(label: &str, rows: i64) -> Arc<Database> {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-predicate-deferral-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(DbOptions::new(dir)).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR)")
        .unwrap();
    if rows > 0 {
        let values: Vec<String> = (0..rows)
            .map(|i| format!("({i}, {}, 'row {i}')", i % 5))
            .collect();
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }
    db
}

/// Predicates whose `zz` branch no row reaches: `v` is 0..5 on every row.
/// The last two take the index range on `id`.
const SKIPPED: [&str; 6] = [
    "v < 0 AND zz = 1",
    "v >= 0 OR zz = 1",
    "NOT (v < 5) AND zz IS NULL",
    "(v > 9 AND zz = 1) OR s IS NOT NULL",
    "id >= 10 AND id < 12 AND (v >= 0 OR zz = 1)",
    "id >= 10 AND id < 12 AND v > 9 AND zz > 0",
];

/// Predicates that read `zz` on some row: beside a TRUE `AND`, a FALSE
/// `OR`, an UNKNOWN, on its own, or on the row an index range fetches.
const EVALUATED: [&str; 6] = [
    "v >= 0 AND zz = 1",
    "v < 0 OR zz = 1",
    "v = NULL AND zz = 1",
    "zz = 1",
    "1 < zz AND v < 0",
    "id >= 10 AND id < 12 AND zz = 1",
];

fn statements(predicate: &str) -> [String; 3] {
    [
        format!("UPDATE t SET v = v + 10 WHERE {predicate}"),
        format!("DELETE FROM t WHERE {predicate}"),
        format!("SELECT id, v FROM t WHERE {predicate}"),
    ]
}

/// `t`'s rows, sorted, as text.
fn contents(db: &Database) -> Vec<String> {
    let mut rows: Vec<String> = db
        .scan_table("t")
        .unwrap()
        .into_iter()
        .map(|(_, row)| format!("{:?}", row.values()))
        .collect();
    rows.sort();
    rows
}

#[test]
fn the_ranges_take_the_index() {
    let db = open("plans", ROWS);
    let meta = db.table("t").unwrap();
    for predicate in [SKIPPED[4], SKIPPED[5], EVALUATED[5]] {
        let plan = choose_access_path(&db, &meta, Some(&parse_expression(predicate).unwrap()));
        assert!(
            matches!(plan, AccessPath::IndexRange { .. }),
            "{predicate}: {plan:?}"
        );
    }
    let plan = choose_access_path(&db, &meta, Some(&parse_expression(SKIPPED[0]).unwrap()));
    assert_eq!(plan, AccessPath::SeqScan);
}

#[test]
fn a_skipped_branch_raises_nothing_on_a_populated_table() {
    for (i, predicate) in SKIPPED.iter().enumerate() {
        for sql in statements(predicate) {
            let db = open(&format!("skipped-{i}"), ROWS);
            let mut s = db.session();
            if let Err(e) = s.execute(&sql) {
                panic!("{sql}: {e}");
            }
        }
    }
}

#[test]
fn an_evaluated_branch_raises_unknown_column_and_changes_nothing() {
    for (i, predicate) in EVALUATED.iter().enumerate() {
        for sql in statements(predicate) {
            let db = open(&format!("evaluated-{i}"), ROWS);
            let before = contents(&db);
            let mut s = db.session();
            match s.execute(&sql) {
                Err(EngineError::Eval(e)) => {
                    assert_eq!(e.message, "unknown column 'zz'", "{sql}")
                }
                other => panic!("{sql} returned {other:?}, not unknown column"),
            }
            assert_eq!(contents(&db), before, "{sql} left a change behind");
        }
    }
}

#[test]
fn every_statement_succeeds_on_an_empty_table() {
    let db = open("empty", 0);
    let mut s = db.session();
    for predicate in SKIPPED.iter().chain(&EVALUATED) {
        for sql in statements(predicate) {
            let result = s.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!((result.affected, result.rows.len()), (0, 0), "{sql}");
        }
    }
}
