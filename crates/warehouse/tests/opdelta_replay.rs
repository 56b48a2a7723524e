//! Op-Delta replay (`OpDeltaApplier`) maintains views from the replay
//! transaction's own redo tail: set-oriented statements hit rows only the
//! executor knows, and the before/after images it logs for them are the
//! image stream the views fold.
//!
//! Generated transactions of multi-row INSERTs, range UPDATEs and range
//! DELETEs run on a source database and replay on a warehouse with two
//! joined mirrors, an SPJ join view and COUNT/SUM and MIN/MAX aggregate
//! views. After every transaction the mirrors equal the source tables and
//! every view equals its recomputation; a transaction that fails leaves
//! nothing behind; and the warehouse log names only mirror, view and
//! watermark tables.

use std::sync::Arc;

use delta_core::model::{OpDelta, OpLogRecord};
use delta_engine::db::{open_temp, Database};
use delta_engine::{exec, EngineError, EngineResult, LogRecord, TableOptions};
use delta_sql::ast::AggFunc;
use delta_sql::parser::{parse_expression, parse_statement};
use delta_storage::{Column, DataType, Schema};
use delta_warehouse::{
    AggSpec, AggViewDef, AppliedMark, JoinCond, MirrorConfig, OpDeltaApplier, SpjView, Warehouse,
};
use proptest::prelude::*;

fn items_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("grp", DataType::Int),
        Column::new("val", DataType::Int),
        Column::new("note", DataType::Varchar),
    ])
    .unwrap()
}

fn owners_schema() -> Schema {
    Schema::new(vec![
        Column::new("oid", DataType::Int).primary_key(),
        Column::new("item_id", DataType::Int),
        Column::new("region", DataType::Varchar),
    ])
    .unwrap()
}

/// The source: the two tables, nothing else.
fn source(label: &str) -> Arc<Database> {
    let db = open_temp(label).unwrap();
    db.create_table("items", items_schema(), TableOptions::default())
        .unwrap();
    db.create_table("owners", owners_schema(), TableOptions::default())
        .unwrap();
    db
}

/// Full mirrors of both tables, `item_owner` joining them (with a
/// selection), and two aggregate views over `items`.
fn warehouse(label: &str) -> Warehouse {
    let mut wh = Warehouse::new(open_temp(label).unwrap());
    wh.add_mirror(MirrorConfig::full("items", items_schema()))
        .unwrap();
    wh.add_mirror(MirrorConfig::full("owners", owners_schema()))
        .unwrap();
    wh.add_view(SpjView {
        name: "item_owner".into(),
        tables: vec!["items".into(), "owners".into()],
        joins: vec![JoinCond::new("items", "id", "owners", "item_id")],
        selection: Some(parse_expression("owners_region <> 'void'").unwrap()),
        projection: vec![
            ("items".into(), "id".into()),
            ("owners".into(), "oid".into()),
            ("items".into(), "val".into()),
            ("owners".into(), "region".into()),
        ],
    })
    .unwrap();
    wh.add_agg_view(AggViewDef {
        name: "by_grp".into(),
        table: "items".into(),
        group_by: vec!["grp".into()],
        aggregates: vec![AggSpec::count_star(), AggSpec::of(AggFunc::Sum, "val")],
        selection: None,
    })
    .unwrap();
    wh.add_agg_view(AggViewDef {
        name: "extremes".into(),
        table: "items".into(),
        group_by: vec!["grp".into()],
        aggregates: vec![
            AggSpec::of(AggFunc::Min, "val"),
            AggSpec::of(AggFunc::Max, "val"),
        ],
        selection: None,
    })
    .unwrap();
    wh
}

fn sorted_rows(db: &Database, table: &str) -> Vec<Vec<u8>> {
    let mut rows: Vec<Vec<u8>> = db
        .scan_table(table)
        .unwrap()
        .into_iter()
        .map(|(_, r)| r.to_bytes())
        .collect();
    rows.sort();
    rows
}

/// Every table of the database as sorted encoded rows.
fn dump(db: &Database) -> Vec<(String, Vec<Vec<u8>>)> {
    let mut names = db.table_names();
    names.sort();
    names
        .into_iter()
        .map(|t| {
            let rows = sorted_rows(db, &t);
            (t, rows)
        })
        .collect()
}

fn ints(db: &Database, table: &str, col: usize) -> Vec<i64> {
    let mut v: Vec<i64> = db
        .scan_table(table)
        .unwrap()
        .into_iter()
        .map(|(_, r)| r.values()[col].as_int().unwrap())
        .collect();
    v.sort_unstable();
    v
}

/// One generated statement, steered by the keys live in `src` right now
/// (uncommitted changes of the open source transaction included).
fn statement(src: &Database, (kind, a, b, val, grp): (u8, u8, u8, i64, u8)) -> String {
    let fresh = |table: &str, n: usize| -> Vec<i64> {
        let live = ints(src, table, 0);
        (1 + a as i64 % 5..)
            .filter(|k| !live.contains(k))
            .take(n)
            .collect()
    };
    let (lo, hi) = (a as i64 % 24, a as i64 % 24 + b as i64 % 6);
    let region = ["west", "east", "void"][b as usize % 3];
    match kind {
        0..=24 => {
            let rows: Vec<String> = fresh("items", 1 + b as usize % 3)
                .iter()
                .map(|k| format!("({k}, {grp}, {val}, 'n{k}')"))
                .collect();
            format!("INSERT INTO items VALUES {}", rows.join(", "))
        }
        25..=39 => {
            let rows: Vec<String> = fresh("owners", 1 + b as usize % 2)
                .iter()
                .map(|k| format!("({k}, {}, '{region}')", (k + val).rem_euclid(20)))
                .collect();
            format!("INSERT INTO owners VALUES {}", rows.join(", "))
        }
        40..=59 => format!("UPDATE items SET val = val + {val} WHERE id >= {lo} AND id <= {hi}"),
        60..=69 => format!("UPDATE items SET grp = {grp} WHERE val < {val}"),
        70..=74 => format!("UPDATE owners SET item_id = {lo} WHERE oid >= {lo} AND oid <= {hi}"),
        75..=79 => format!("UPDATE owners SET region = '{region}' WHERE item_id <= {hi}"),
        80..=89 => format!("DELETE FROM items WHERE id >= {lo} AND id <= {hi}"),
        90..=96 => format!("DELETE FROM owners WHERE item_id >= {lo} AND item_id <= {hi}"),
        // A multi-row INSERT whose second row collides: the statement fails
        // after its first row went in, and the transaction with it.
        _ => {
            let k = fresh("items", 1)[0];
            match ints(src, "items", 0).first() {
                Some(taken) => format!(
                    "INSERT INTO items VALUES ({k}, {grp}, {val}, 'x'), ({taken}, 0, 0, 'dup')"
                ),
                None => format!("INSERT INTO items VALUES ({k}, {grp}, {val}, 'x')"),
            }
        }
    }
}

/// Run one generated transaction on the source (committed, or aborted at
/// its first failing statement) and return it as the Op-Delta the capture
/// would have shipped, with the source's verdict.
fn source_txn(
    src: &Database,
    txn_no: u64,
    ops: &[(u8, u8, u8, i64, u8)],
) -> (OpDelta, EngineResult<()>) {
    let mut txn = src.begin();
    let mut od = OpDelta {
        txn: txn_no,
        ops: Vec::new(),
    };
    for (n, op) in ops.iter().enumerate() {
        let stmt = parse_statement(&statement(src, *op)).unwrap();
        let outcome = exec::execute(src, &mut txn, &stmt);
        // What the capture ships: the statement printed back to text.
        od.ops.push(op_record(txn_no, n, stmt.to_string()));
        if let Err(e) = outcome {
            src.abort(txn).unwrap();
            return (od, Err(e));
        }
    }
    src.commit(txn).unwrap();
    (od, Ok(()))
}

/// Mirrors equal the source, every view equals its recomputation, and no
/// capture table exists.
fn assert_converged(src: &Database, wh: &Warehouse, after: &str) {
    let db = wh.db();
    for t in ["items", "owners"] {
        assert_eq!(sorted_rows(db, t), sorted_rows(src, t), "{t} after {after}");
    }
    for name in ["item_owner", "by_grp", "extremes"] {
        let view = wh.view(name).unwrap();
        assert!(
            view.verify_against_recompute(db).unwrap(),
            "'{name}' is stale after {after}"
        );
    }
    assert!(
        !db.table_names().iter().any(|t| t.starts_with("__changes_")),
        "{:?}",
        db.table_names()
    );
}

fn describe(od: &OpDelta) -> String {
    let sql: Vec<&str> = od.ops.iter().map(|o| o.sql.as_str()).collect();
    sql.join("; ")
}

/// Replay `od` and hold the warehouse to the source's verdict: applied and
/// converged, or failed alike with every table as it was.
fn replay(src: &Database, wh: &Warehouse, od: &OpDelta, verdict: &EngineResult<()>) {
    let before = dump(wh.db());
    let replayed = OpDeltaApplier::apply(wh, od);
    match (verdict, &replayed) {
        (Ok(()), Ok(report)) => {
            assert_eq!(report.transactions, 1);
            assert_eq!(report.statements, od.ops.len() as u64);
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{a} / {b}"
            );
            assert_eq!(
                dump(wh.db()),
                before,
                "failed {} left a trace",
                describe(od)
            );
        }
        (a, b) => panic!("source {a:?}, warehouse {b:?} on {}", describe(od)),
    }
    assert_converged(src, wh, &describe(od));
}

fn seeded(label: &str) -> (Arc<Database>, Warehouse) {
    let src = source(&format!("{label}-src"));
    let wh = warehouse(&format!("{label}-wh"));
    let seed = [
        "INSERT INTO items VALUES (1, 0, 10, 'a'), (2, 0, 50, 'b'), (3, 1, 7, 'c'), \
         (4, 1, 0, 'd'), (5, 2, 30, 'e'), (6, 2, 30, 'f')",
        "INSERT INTO owners VALUES (1, 1, 'west'), (2, 1, 'east'), (3, 5, 'void'), (4, 9, 'west')",
    ];
    let od = op_delta(0, &seed);
    run_on_source(&src, &od).unwrap();
    replay(&src, &wh, &od, &Ok(()));
    (src, wh)
}

fn op_record(txn: u64, n: usize, sql: String) -> OpLogRecord {
    OpLogRecord {
        seq: txn * 100 + n as u64,
        txn,
        sql,
        before_image: None,
    }
}

fn op_delta(txn: u64, sql: &[&str]) -> OpDelta {
    OpDelta {
        txn,
        ops: sql
            .iter()
            .enumerate()
            .map(|(n, s)| op_record(txn, n, s.to_string()))
            .collect(),
    }
}

/// Run `od` on the source as one transaction: committed, or aborted at its
/// first failing statement.
fn run_on_source(src: &Database, od: &OpDelta) -> EngineResult<()> {
    let mut txn = src.begin();
    for op in &od.ops {
        if let Err(e) = exec::execute(src, &mut txn, &parse_statement(&op.sql).unwrap()) {
            src.abort(txn)?;
            return Err(e);
        }
    }
    src.commit(txn).map(|_| ())
}

/// Row-change records the warehouse logged from `from` on, by table.
fn logged_row_changes(db: &Database, from: delta_engine::Lsn) -> Vec<String> {
    db.wal()
        .read_from(from)
        .unwrap()
        .into_iter()
        .filter(|(_, rec)| {
            matches!(
                rec,
                LogRecord::Insert { .. } | LogRecord::Update { .. } | LogRecord::Delete { .. }
            )
        })
        .map(|(_, rec)| rec.table().unwrap().to_string())
        .collect()
}

#[test]
fn statement_failing_mid_transaction_leaves_mirrors_and_views_untouched() {
    let (src, wh) = seeded("odr-fail");
    // Two statements change both mirrors and every view, then the third
    // collides on its second row.
    let ops = [
        "UPDATE items SET val = val + 5, grp = 3 WHERE id <= 3",
        "DELETE FROM owners WHERE item_id = 1",
        "INSERT INTO items VALUES (7, 1, 1, 'g'), (2, 0, 0, 'dup')",
    ];
    let od = op_delta(1, &ops);
    let before = dump(wh.db());
    let err = OpDeltaApplier::apply(&wh, &od).unwrap_err();
    assert!(matches!(err, EngineError::DuplicateKey { .. }), "{err}");
    assert_eq!(dump(wh.db()), before);
    assert_converged(&src, &wh, "the failed transaction");
    // The same transaction without the collision goes through.
    let od = op_delta(2, &ops[..2]);
    run_on_source(&src, &od).unwrap();
    replay(&src, &wh, &od, &Ok(()));
}

#[test]
fn replay_logs_only_mirror_view_and_watermark_rows() {
    let (_src, wh) = seeded("odr-wal");
    wh.ensure_applied_watermark().unwrap();
    let db = wh.db();
    let from = db.wal().next_lsn();
    let od = op_delta(
        1,
        &[
            "INSERT INTO items VALUES (7, 1, 5, 'g'), (8, 3, 6, 'h')",
            "UPDATE items SET val = val + 1 WHERE id <= 2",
            "DELETE FROM owners WHERE oid >= 3",
        ],
    );
    let report = OpDeltaApplier::apply_marked(&wh, &od, AppliedMark::Watermark(7)).unwrap();
    assert_eq!(wh.applied_watermark().unwrap(), Some(7));
    let tables = logged_row_changes(db, from);
    for table in &tables {
        assert!(
            [
                "items",
                "owners",
                "item_owner",
                "by_grp",
                "extremes",
                "__applied_seq"
            ]
            .contains(&table.as_str()),
            "row change logged for '{table}'"
        );
    }
    // Exactly one record per affected mirror row; the rest is views and
    // the watermark.
    let mirror_records = tables
        .iter()
        .filter(|t| ["items", "owners"].contains(&t.as_str()))
        .count();
    assert_eq!(mirror_records as u64, report.rows_affected);
    assert_eq!(report.rows_affected, 2 + 2 + 2);
}

#[test]
fn view_less_mirror_beside_a_viewed_one_logs_one_record_per_row() {
    // The `olap_mixed` shape: `items` feeds a view, `parts` feeds none.
    let mut wh = Warehouse::new(open_temp("odr-viewless").unwrap());
    wh.add_mirror(MirrorConfig::full("items", items_schema()))
        .unwrap();
    wh.add_mirror(MirrorConfig::full("parts", owners_schema()))
        .unwrap();
    wh.add_agg_view(AggViewDef {
        name: "by_grp".into(),
        table: "items".into(),
        group_by: vec!["grp".into()],
        aggregates: vec![AggSpec::count_star()],
        selection: None,
    })
    .unwrap();
    let rows: Vec<String> = (1..=20).map(|k| format!("({k}, {k}, 'r')")).collect();
    let seed = format!("INSERT INTO parts VALUES {}", rows.join(", "));
    OpDeltaApplier::apply(&wh, &op_delta(1, &[&seed])).unwrap();

    let db = wh.db();
    let from = db.wal().next_lsn();
    let od = op_delta(
        2,
        &[
            "UPDATE parts SET region = 's' WHERE oid >= 5 AND oid <= 16",
            "DELETE FROM parts WHERE oid > 18",
            "INSERT INTO parts VALUES (30, 1, 'n')",
        ],
    );
    let report = OpDeltaApplier::apply(&wh, &od).unwrap();
    assert_eq!(report.rows_affected, 12 + 2 + 1);
    assert_eq!(report.view_rows_touched, 0);
    let tables = logged_row_changes(db, from);
    assert_eq!(tables.len() as u64, report.rows_affected, "{tables:?}");
    assert!(tables.iter().all(|t| t == "parts"), "{tables:?}");
    assert!(db.triggers().names().is_empty());
}

proptest! {
    // The default case count: 256, or `PROPTEST_CASES` (CI's `view-oracle`
    // job raises it).
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn generated_transactions_converge_after_every_replay(
        txns in prop::collection::vec(
            prop::collection::vec((0u8..100, 0u8..48, 0u8..48, -5i64..40, 0u8..4), 1..5),
            1..7,
        ),
    ) {
        let (src, wh) = seeded("odr-prop");
        for (n, ops) in txns.iter().enumerate() {
            let (od, verdict) = source_txn(&src, n as u64 + 1, ops);
            replay(&src, &wh, &od, &verdict);
        }
    }
}
