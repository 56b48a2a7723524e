//! The paper's §3/§5 qualitative comparison of extraction methods, as
//! executable assertions: run ONE workload against a source system and check
//! what each method can and cannot see.

use deltaforge::core::logextract::LogExtractor;
use deltaforge::core::model::DeltaOp;
use deltaforge::core::opdelta::{collect_from_table, OpDeltaCapture, OpLogSink};
use deltaforge::core::snapshot::{diff_snapshots, take_snapshot, DiffAlgorithm};
use deltaforge::core::timestamp::TimestampExtractor;
use deltaforge::core::trigger_extract::TriggerExtractor;
use deltaforge::engine::db::{Database, DbOptions};
use deltaforge::storage::Value;

fn scratch(label: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-xmethods-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Build a source with every extraction method armed, run a fixed workload,
/// and return everything each method captured.
struct Harness {
    db: std::sync::Arc<Database>,
    dir: std::path::PathBuf,
    watermark: i64,
    old_snapshot: std::path::PathBuf,
}

fn run_workload(label: &str) -> Harness {
    let dir = scratch(label);
    let db = Database::open(DbOptions::new(dir.join("src")).archive(true)).unwrap();
    let mut s = db.session();
    s.execute(
        "CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR, qty INT, last_modified TIMESTAMP)",
    )
    .unwrap();
    for i in 0..50 {
        s.execute(&format!(
            "INSERT INTO parts (id, name, qty) VALUES ({i}, 'p{i}', 0)"
        ))
        .unwrap();
    }
    drop(s);
    // Arm everything.
    TriggerExtractor::new("parts").install(&db).unwrap();
    let old_snapshot = dir.join("before.snap");
    take_snapshot(&db, "parts", &old_snapshot).unwrap();
    let watermark = db.peek_clock();
    let log_watermark = db.wal().next_lsn();
    let mut cap = OpDeltaCapture::new(db.session(), OpLogSink::Table("op_log".into())).unwrap();

    // THE workload: insert, double update of one row, delete another,
    // plus a rolled-back transaction.
    cap.execute("INSERT INTO parts (id, name, qty) VALUES (100, 'new', 1)")
        .unwrap();
    cap.execute("UPDATE parts SET qty = 1 WHERE id = 7")
        .unwrap();
    cap.execute("UPDATE parts SET qty = 2 WHERE id = 7")
        .unwrap();
    cap.execute("DELETE FROM parts WHERE id = 9").unwrap();
    cap.execute("BEGIN").unwrap();
    cap.execute("UPDATE parts SET qty = 99 WHERE id = 3")
        .unwrap();
    cap.execute("ROLLBACK").unwrap();

    let _ = log_watermark;
    Harness {
        db,
        dir,
        watermark,
        old_snapshot,
    }
}

#[test]
fn timestamp_method_sees_final_states_only_and_misses_deletes() {
    let h = run_workload("ts");
    let x = TimestampExtractor::new("parts", "last_modified");
    let vd = x.extract(&h.db, h.watermark).unwrap();
    // Insert of 100 and final state of 7; the delete of 9 is invisible and
    // the intermediate qty=1 state of row 7 was lost.
    assert_eq!(vd.len(), 2);
    assert!(vd.records.iter().all(|r| r.op == DeltaOp::Insert));
    let row7 = vd
        .records
        .iter()
        .find(|r| r.row.values()[0] == Value::Int(7))
        .expect("row 7 extracted");
    assert_eq!(row7.row.values()[2], Value::Int(2), "only the final state");
    assert!(!vd.has_txn_context());
}

#[test]
fn snapshot_method_sees_deletes_but_not_intermediate_states() {
    let h = run_workload("snap");
    let new_snapshot = h.dir.join("after.snap");
    take_snapshot(&h.db, "parts", &new_snapshot).unwrap();
    let schema = h.db.table("parts").unwrap().schema.clone();
    let (vd, _) = diff_snapshots(
        "parts",
        &schema,
        &[0],
        &h.old_snapshot,
        &new_snapshot,
        DiffAlgorithm::SortMerge { run_size: 16 },
    )
    .unwrap();
    let ops: Vec<(DeltaOp, i64)> = vd
        .records
        .iter()
        .map(|r| (r.op, r.row.values()[0].as_int().unwrap()))
        .collect();
    assert!(ops.contains(&(DeltaOp::Insert, 100)));
    assert!(
        ops.contains(&(DeltaOp::Delete, 9)),
        "snapshots DO see deletes"
    );
    assert!(ops.contains(&(DeltaOp::UpdateBefore, 7)));
    assert!(ops.contains(&(DeltaOp::UpdateAfter, 7)));
    // But only one update pair for row 7 (intermediate state lost), and no
    // transaction context.
    assert_eq!(
        ops.iter()
            .filter(|(op, id)| *id == 7 && *op == DeltaOp::UpdateAfter)
            .count(),
        1
    );
    assert!(!vd.has_txn_context());
}

#[test]
fn trigger_method_sees_every_state_change_with_txn_context() {
    let h = run_workload("trig");
    let vd = TriggerExtractor::new("parts").drain(&h.db).unwrap();
    // insert(1) + 2 updates (2 images each) + delete(1) = 6; the rolled-back
    // update left nothing.
    assert_eq!(vd.len(), 6);
    assert!(vd.has_txn_context());
    // Both states of row 7 are visible.
    let qtys: Vec<i64> = vd
        .records
        .iter()
        .filter(|r| r.op == DeltaOp::UpdateAfter)
        .map(|r| r.row.values()[2].as_int().unwrap())
        .collect();
    assert_eq!(qtys, vec![1, 2]);
}

#[test]
fn log_method_matches_trigger_content_without_touching_transactions() {
    let h = run_workload("log");
    let stmts_before = h.db.statements_executed();
    let mut x = LogExtractor::for_tables(&["parts"]);
    let deltas = x.extract(&h.db).unwrap();
    assert_eq!(
        h.db.statements_executed(),
        stmts_before,
        "log extraction runs no statements against the source"
    );
    let parts: Vec<_> = deltas.into_iter().filter(|d| d.table == "parts").collect();
    assert_eq!(parts.len(), 1);
    let vd = &parts[0];
    // Seed inserts (50) + workload changes (6 records) — and nothing from
    // the rolled-back transaction.
    assert_eq!(vd.len(), 50 + 6);
    assert!(vd.has_txn_context());
    assert!(
        !vd.records
            .iter()
            .any(|r| r.row.values()[2] == Value::Int(99)),
        "aborted work absent"
    );
}

#[test]
fn op_delta_captures_operations_with_boundaries_and_tiny_volume() {
    let h = run_workload("opd");
    let ods = collect_from_table(&h.db, "op_log").unwrap();
    // 4 committed transactions; the rolled-back one vanished with its txn.
    assert_eq!(ods.len(), 4);
    let total_wire: usize = ods.iter().map(|od| od.wire_size()).sum();
    assert!(
        total_wire < 600,
        "four ops should be a few hundred bytes, got {total_wire}"
    );
    // Both update statements present (state-change capture, like triggers).
    let sqls: Vec<&str> = ods
        .iter()
        .flat_map(|od| od.ops.iter().map(|o| o.sql.as_str()))
        .collect();
    assert!(sqls.iter().any(|s| s.contains("qty = 1")));
    assert!(sqls.iter().any(|s| s.contains("qty = 2")));
    assert!(
        !sqls.iter().any(|s| s.contains("99")),
        "rolled-back op absent"
    );
}

#[test]
fn volume_comparison_matches_section_4_1() {
    // A set-oriented update touching many rows: value delta ships hundreds of
    // records, the Op-Delta ships one statement.
    let dir = scratch("volume");
    let db = Database::open(DbOptions::new(dir.join("src"))).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR, qty INT)")
        .unwrap();
    for i in 0..500 {
        s.execute(&format!("INSERT INTO parts VALUES ({i}, 'p{i}', 0)"))
            .unwrap();
    }
    drop(s);
    TriggerExtractor::new("parts").install(&db).unwrap();
    let mut cap = OpDeltaCapture::new(db.session(), OpLogSink::Table("op_log".into())).unwrap();
    cap.execute("UPDATE parts SET qty = 1 WHERE id >= 0")
        .unwrap();

    let value = TriggerExtractor::new("parts").drain(&db).unwrap();
    let op = collect_from_table(&db, "op_log").unwrap();
    assert_eq!(value.len(), 1000, "500 before + 500 after images");
    let ratio = value.wire_size() as f64 / op[0].wire_size() as f64;
    assert!(
        ratio > 100.0,
        "value delta must be orders of magnitude larger (got {ratio:.0}x)"
    );
}
