//! The direct keyed apply (`DirectValueApplier`, what `Pipeline::sync` runs)
//! against the paper's §4.1 statement translation (`ValueDeltaApplier`).
//!
//! Every case sends the same run through both appliers on twin warehouses
//! and requires byte-equal canonical dumps of every table — the mirrors,
//! every SPJ view, every aggregate view with its hidden state columns —
//! plus equal `ApplyReport`s, or the same kind of failure with nothing left
//! behind.

use delta_core::model::{DeltaOp, ValueDelta, ValueDeltaRecord};
use delta_engine::db::open_temp;
use delta_engine::{EngineError, EngineResult, LogRecord};
use delta_sql::ast::AggFunc;
use delta_sql::parser::parse_expression;
use delta_storage::{Column, DataType, Row, Schema, Value};
use delta_warehouse::{
    AggSpec, AggViewDef, AppliedMark, ApplyReport, DirectValueApplier, JoinCond, MirrorConfig,
    SpjView, ValueDeltaApplier, Warehouse,
};
use proptest::prelude::*;

fn items_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("grp", DataType::Int),
        Column::new("val", DataType::Int),
        Column::new("note", DataType::Varchar),
        Column::new("price", DataType::Double),
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

/// `items` (optionally mirrored without `note`) and `owners`, a two-table
/// join view with a selection, a single-table SPJ view, a grouped aggregate
/// view with every aggregate kind (a DOUBLE sum included) and a filtered
/// global summary.
fn warehouse(label: &str, projected: bool) -> Warehouse {
    let mut wh = Warehouse::new(open_temp(label).unwrap());
    let items = if projected {
        MirrorConfig::projected("items", items_schema(), &["id", "grp", "val", "price"])
    } else {
        MirrorConfig::full("items", items_schema())
    };
    wh.add_mirror(items).unwrap();
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
    wh.add_view(SpjView {
        name: "stocked".into(),
        tables: vec!["items".into()],
        joins: vec![],
        selection: Some(parse_expression("items_val > 0").unwrap()),
        projection: vec![
            ("items".into(), "id".into()),
            ("items".into(), "val".into()),
        ],
    })
    .unwrap();
    wh.add_agg_view(AggViewDef {
        name: "by_grp".into(),
        table: "items".into(),
        group_by: vec!["grp".into()],
        aggregates: vec![
            AggSpec::count_star(),
            AggSpec::of(AggFunc::Sum, "val"),
            AggSpec::of(AggFunc::Avg, "val"),
            AggSpec::of(AggFunc::Min, "val"),
            AggSpec::of(AggFunc::Max, "val"),
            AggSpec::of(AggFunc::Sum, "price"),
        ],
        selection: None,
    })
    .unwrap();
    wh.add_agg_view(AggViewDef {
        name: "big_totals".into(),
        table: "items".into(),
        group_by: vec![],
        aggregates: vec![AggSpec::count_star(), AggSpec::of(AggFunc::Max, "val")],
        selection: Some(parse_expression("val >= 10").unwrap()),
    })
    .unwrap();
    wh
}

/// One warehouse per applier, identically defined.
struct Twin {
    statement: Warehouse,
    direct: Warehouse,
}

fn twin(label: &str, projected: bool) -> Twin {
    Twin {
        statement: warehouse(&format!("{label}-stmt"), projected),
        direct: warehouse(&format!("{label}-direct"), projected),
    }
}

/// Every table of the warehouse database as sorted encoded rows.
fn dump(wh: &Warehouse) -> Vec<(String, Vec<Vec<u8>>)> {
    let mut names = wh.db().table_names();
    names.sort();
    names
        .into_iter()
        .map(|t| {
            let mut rows: Vec<Vec<u8>> = wh
                .db()
                .scan_table(&t)
                .unwrap()
                .into_iter()
                .map(|(_, r)| r.to_bytes())
                .collect();
            rows.sort();
            (t, rows)
        })
        .collect()
}

impl Twin {
    /// Apply `run` through both appliers; the outcomes must agree, and so
    /// must every table afterwards. Returns the shared outcome.
    fn apply(&self, run: &[&ValueDelta]) -> EngineResult<ApplyReport> {
        let by_statement = ValueDeltaApplier::apply_run(&self.statement, run);
        let direct = DirectValueApplier::apply_run(&self.direct, run);
        match (&by_statement, &direct) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "apply reports differ"),
            (Err(a), Err(b)) => assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "different failures: {a} / {b}"
            ),
            (a, b) => panic!("one applier failed, the other did not: {a:?} / {b:?}"),
        }
        let (a, b) = (dump(&self.statement), dump(&self.direct));
        let differing: Vec<&String> = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x != y)
            .map(|(x, _)| &x.0)
            .collect();
        assert!(
            a.len() == b.len() && differing.is_empty(),
            "tables {differing:?} differ after {}",
            describe(run)
        );
        // The dumps are equal, so one warehouse speaks for both. A global
        // summary with nothing to summarize holds no row, where SQL answers
        // with one row of COUNT 0: nothing to compare then.
        for name in ["by_grp", "big_totals"] {
            let view = self.direct.view(name).unwrap();
            let rows = view.visible_rows(self.direct.db()).unwrap();
            assert!(
                (name == "big_totals" && rows.is_empty())
                    || view.verify_against_recompute(self.direct.db()).unwrap(),
                "'{name}' is stale after {}",
                describe(run)
            );
        }
        direct
    }
}

fn item(id: i64, grp: i64, val: i64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Int(grp),
        Value::Int(val),
        Value::Str(format!("note-{id}")),
        // Dyadic, so DOUBLE sums stay exact and a recompute can match them.
        Value::Double(val as f64 * 0.25 + 0.5),
    ])
}

fn owner(oid: i64, item_id: i64, region: &str) -> Row {
    Row::new(vec![
        Value::Int(oid),
        Value::Int(item_id),
        Value::Str(region.into()),
    ])
}

fn delta(table: &str, schema: Schema, records: Vec<(DeltaOp, Row)>) -> ValueDelta {
    let mut vd = ValueDelta::new(table, schema);
    vd.records = records
        .into_iter()
        .map(|(op, row)| ValueDeltaRecord { op, txn: 0, row })
        .collect();
    vd
}

fn items(records: Vec<(DeltaOp, Row)>) -> ValueDelta {
    delta("items", items_schema(), records)
}

fn owners(records: Vec<(DeltaOp, Row)>) -> ValueDelta {
    delta("owners", owners_schema(), records)
}

use DeltaOp::{Delete as D, Insert as I, UpdateAfter as UA, UpdateBefore as UB};

/// Items 1..=6 in groups 0..3 and two owners, applied through both paths.
fn seeded(label: &str, projected: bool) -> Twin {
    let t = twin(label, projected);
    let seed = items(vec![
        (I, item(1, 0, 10)),
        (I, item(2, 0, 50)),
        (I, item(3, 1, 7)),
        (I, item(4, 1, 0)),
        (I, item(5, 2, 30)),
        (I, item(6, 2, 30)),
    ]);
    let r = t.apply(&[&seed]).unwrap();
    assert_eq!((r.statements, r.rows_affected), (1, 6));
    let seed = owners(vec![
        (I, owner(100, 1, "west")),
        (I, owner(101, 1, "east")),
        (I, owner(102, 5, "void")),
        (I, owner(103, 9, "west")),
    ]);
    t.apply(&[&seed]).unwrap();
    t
}

/// A run as `op:key` words, batches separated by `|` (failure messages).
fn describe(run: &[&ValueDelta]) -> String {
    let batch = |vd: &&ValueDelta| {
        let words: Vec<String> = vd
            .records
            .iter()
            .map(|r| format!("{:?}:{}", r.op, r.row.values()[0]))
            .collect();
        words.join(" ")
    };
    run.iter().map(batch).collect::<Vec<_>>().join(" | ")
}

fn mirror_ids(wh: &Warehouse) -> Vec<i64> {
    let mut ids: Vec<i64> = wh
        .db()
        .scan_table("items")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r.values()[0].as_int().unwrap())
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn insert_then_delete_and_delete_then_reinsert_of_one_key_inside_a_run() {
    let t = seeded("eq-churn", false);
    let run = items(vec![
        (I, item(7, 3, 5)),
        (D, item(7, 3, 5)),
        (D, item(1, 0, 10)),
        (I, item(1, 2, 99)),
    ]);
    let r = t.apply(&[&run]).unwrap();
    assert_eq!((r.statements, r.rows_affected), (4, 4));
    assert_eq!(mirror_ids(&t.direct), vec![1, 2, 3, 4, 5, 6]);
    // Item 1 kept its owners in the join view, with the new value.
    let joined = t.direct.db().scan_table("item_owner").unwrap();
    assert_eq!(joined.len(), 2);
    assert!(joined.iter().all(|(_, r)| r.values()[2] == Value::Int(99)));
}

#[test]
fn key_changing_update_moves_the_row_and_its_view_rows() {
    let t = seeded("eq-rekey", false);
    let run = items(vec![(UB, item(1, 0, 10)), (UA, item(9, 0, 11))]);
    let r = t.apply(&[&run]).unwrap();
    assert_eq!((r.statements, r.rows_affected), (2, 2));
    assert_eq!(mirror_ids(&t.direct), vec![2, 3, 4, 5, 6, 9]);
    // Owner 103 pointed at item 9 all along; 100 and 101 lost their item.
    let joined = t.direct.db().scan_table("item_owner").unwrap();
    assert_eq!(joined.len(), 1);
    assert_eq!(joined[0].1.values()[1], Value::Int(103));
}

#[test]
fn delete_and_update_of_an_absent_key_touch_nothing_or_insert() {
    let t = seeded("eq-absent", false);
    let run = items(vec![(D, item(40, 0, 1))]);
    let r = t.apply(&[&run]).unwrap();
    assert_eq!(
        (r.statements, r.rows_affected, r.view_rows_touched),
        (1, 0, 0)
    );
    // An update whose before image is gone is the after image's insert.
    let run = items(vec![(UB, item(41, 1, 1)), (UA, item(41, 1, 2))]);
    let r = t.apply(&[&run]).unwrap();
    assert_eq!((r.statements, r.rows_affected), (2, 1));
    assert_eq!(mirror_ids(&t.direct), vec![1, 2, 3, 4, 5, 6, 41]);
}

#[test]
fn stale_before_images_do_not_reach_the_views() {
    // The shipped before image of a delete or update names the key and
    // nothing else the warehouse trusts: the views fold the stored row.
    let t = seeded("eq-stale", false);
    let run = items(vec![
        (UB, item(2, 3, -777)),
        (UA, item(2, 0, 51)),
        (D, item(5, 1, 12345)),
    ]);
    t.apply(&[&run]).unwrap();
}

#[test]
fn duplicate_key_insert_aborts_the_whole_run_and_leaves_nothing_behind() {
    let t = seeded("eq-dup", false);
    let before = dump(&t.direct);
    let run_a = items(vec![(I, item(20, 3, 1)), (D, item(3, 1, 7))]);
    let run_b = items(vec![
        (UB, item(2, 0, 50)),
        (UA, item(2, 1, 8)),
        (I, item(1, 0, 1)),
    ]);
    let err = t.apply(&[&run_a, &run_b]).unwrap_err();
    assert!(matches!(err, EngineError::DuplicateKey { .. }), "{err}");
    assert_eq!(dump(&t.direct), before);
    assert_eq!(dump(&t.statement), before);
    // An update onto a key another row holds fails the same way.
    let run = items(vec![(UB, item(2, 0, 50)), (UA, item(3, 0, 50))]);
    let err = t.apply(&[&run]).unwrap_err();
    assert!(matches!(err, EngineError::DuplicateKey { .. }), "{err}");
    assert_eq!(dump(&t.direct), before);
}

#[test]
fn failed_run_that_emptied_a_group_restores_the_stored_row() {
    // Group 1 holds items 3 and 4. Deleting both folds its row to
    // `__rows = 0` and deletes it; the abort must bring back the row that
    // was stored, not the folded one.
    let t = seeded("eq-undo", false);
    let before = dump(&t.direct);
    let run = items(vec![
        (D, item(3, 1, 7)),
        (D, item(4, 1, 0)),
        (I, item(2, 0, 1)),
    ]);
    t.apply(&[&run]).unwrap_err();
    assert_eq!(dump(&t.direct), before);
    assert_eq!(dump(&t.statement), before);
}

#[test]
fn projected_mirror_applies_projected_images() {
    let t = seeded("eq-proj", true);
    assert_eq!(t.direct.db().table("items").unwrap().schema.len(), 4);
    let run = items(vec![
        (UB, item(1, 0, 10)),
        (UA, item(1, 3, 12)),
        (D, item(6, 2, 30)),
        (I, item(8, 3, 1)),
        (UB, item(8, 3, 1)),
        (UA, item(10, 3, 2)),
    ]);
    let r = t.apply(&[&run]).unwrap();
    assert_eq!((r.statements, r.rows_affected), (6, 6));
}

#[test]
fn group_emptied_and_recreated_within_one_run() {
    let t = seeded("eq-regroup", false);
    // Group 2 (items 5, 6) dies and is reborn twice over, across batches.
    let a = items(vec![
        (D, item(5, 2, 30)),
        (D, item(6, 2, 30)),
        (I, item(11, 2, 3)),
        (D, item(11, 2, 3)),
    ]);
    let b = items(vec![(I, item(12, 2, 4)), (I, item(13, 2, 44))]);
    let r = t.apply(&[&a, &b]).unwrap();
    assert_eq!((r.statements, r.rows_affected), (5, 6));
    let by_grp = t.direct.view("by_grp").unwrap();
    let rows = by_grp.visible_rows(t.direct.db()).unwrap();
    let g2 = rows
        .iter()
        .find(|r| r.values()[0] == Value::Int(2))
        .unwrap();
    assert_eq!(g2.values()[1], Value::Int(2), "count");
    assert_eq!(g2.values()[4], Value::Int(4), "min");
    assert_eq!(g2.values()[5], Value::Int(44), "max");
}

#[test]
fn min_max_extremes_removed_and_replaced() {
    let t = seeded("eq-extremes", false);
    // Group 0: items 1 (10) and 2 (50). Remove the max, lower the min,
    // then add a new max — one coalesced rescan on the direct path.
    let run = items(vec![
        (D, item(2, 0, 50)),
        (UB, item(1, 0, 10)),
        (UA, item(1, 0, 4)),
        (I, item(14, 0, 20)),
        (I, item(15, 0, 6)),
        (D, item(14, 0, 20)),
    ]);
    t.apply(&[&run]).unwrap();
    let by_grp = t.direct.view("by_grp").unwrap();
    let rows = by_grp.visible_rows(t.direct.db()).unwrap();
    let g0 = rows
        .iter()
        .find(|r| r.values()[0] == Value::Int(0))
        .unwrap();
    assert_eq!(
        (&g0.values()[4], &g0.values()[5]),
        (&Value::Int(4), &Value::Int(6))
    );
}

#[test]
fn two_table_join_view_follows_deltas_on_either_side() {
    let t = seeded("eq-join", false);
    // The other side of the join: owners come, go, move and change region.
    let run = owners(vec![
        (I, owner(104, 2, "north")),
        (UB, owner(101, 1, "east")),
        (UA, owner(101, 3, "void")),
        (UB, owner(102, 5, "void")),
        (UA, owner(102, 5, "south")),
        (D, owner(100, 1, "west")),
        (I, owner(105, 77, "west")),
    ]);
    let r = t.apply(&[&run]).unwrap();
    assert_eq!((r.statements, r.rows_affected), (7, 7));
    let mut pairs: Vec<(Value, Value)> = t
        .direct
        .db()
        .scan_table("item_owner")
        .unwrap()
        .into_iter()
        .map(|(_, r)| (r.values()[0].clone(), r.values()[1].clone()))
        .collect();
    pairs.sort_by(|a, b| a.1.total_cmp(&b.1));
    assert_eq!(
        pairs,
        vec![
            (Value::Int(5), Value::Int(102)),
            (Value::Int(2), Value::Int(104)),
        ]
    );
    // And the first side again, now that owners moved.
    let run = items(vec![
        (I, item(77, 3, 1)),
        (UB, item(2, 0, 50)),
        (UA, item(2, 0, 55)),
        (D, item(5, 2, 30)),
    ]);
    t.apply(&[&run]).unwrap();
    assert_eq!(t.direct.db().row_count("item_owner").unwrap(), 2);
}

#[test]
fn malformed_update_pairs_are_rejected_alike() {
    let t = seeded("eq-malformed", false);
    let before = dump(&t.direct);
    for bad in [
        items(vec![(D, item(1, 0, 10)), (UB, item(2, 0, 50))]),
        items(vec![(UA, item(2, 0, 50))]),
        items(vec![(UB, item(2, 0, 50)), (I, item(30, 0, 1))]),
    ] {
        t.apply(&[&bad]).unwrap_err();
        assert_eq!(dump(&t.direct), before);
    }
    assert!(DirectValueApplier::apply_run(&t.direct, &[]).is_err());
    let other = owners(vec![(I, owner(1, 1, "x"))]);
    let mine = items(vec![(I, item(31, 0, 1))]);
    assert!(DirectValueApplier::apply_run(&t.direct, &[&mine, &other]).is_err());
}

#[test]
fn direct_path_logs_only_mirror_view_and_watermark_rows() {
    let t = seeded("eq-wal", false);
    t.direct.ensure_applied_watermark().unwrap();
    let db = t.direct.db();
    let from = db.wal().next_lsn();
    let run = items(vec![
        (I, item(50, 1, 5)),
        (UB, item(1, 0, 10)),
        (UA, item(1, 0, 12)),
        (D, item(6, 2, 30)),
    ]);
    DirectValueApplier::apply_run_marked(&t.direct, &[&run], AppliedMark::Range(7, 7)).unwrap();
    assert_eq!(t.direct.applied_state().unwrap().ranges, vec![(7, 7)]);
    let mut row_changes = 0;
    for (_, rec) in db.wal().read_from(from).unwrap() {
        if !matches!(
            rec,
            LogRecord::Insert { .. } | LogRecord::Update { .. } | LogRecord::Delete { .. }
        ) {
            continue;
        }
        row_changes += 1;
        let table = rec.table().unwrap();
        assert!(
            [
                "items",
                "item_owner",
                "stocked",
                "by_grp",
                "big_totals",
                "__applied_seq"
            ]
            .contains(&table),
            "row change logged for '{table}'"
        );
    }
    // Mirror: one insert, one in-place update, one delete. The statement
    // path logs the update as a delete plus an insert.
    assert!(row_changes >= 3);
    let tables = db.table_names();
    assert!(
        !tables.iter().any(|t| t.starts_with("__changes_")),
        "{tables:?}"
    );
}

/// Interpret generated numbers as a run over `items`, steering by a model
/// of the live keys so that most operations hit what they aim at — and a
/// few deliberately do not (absent deletes and updates, duplicate inserts,
/// updates onto a taken key).
fn generated_run(ops: &[(u8, u8, u8, i64, u8)], cuts: &[u8]) -> Vec<ValueDelta> {
    let mut live: Vec<i64> = (1..=6).collect();
    let mut records: Vec<(DeltaOp, Row)> = Vec::new();
    let mut starts: Vec<usize> = Vec::new();
    for (n, &(kind, a, b, val, grp)) in ops.iter().enumerate() {
        if cuts.contains(&(n as u8)) {
            starts.push(records.len());
        }
        let grp = grp as i64;
        let pick = |pool: &[i64], x: u8| pool.get(x as usize % pool.len().max(1)).copied();
        let fresh = |x: u8| {
            (20..60)
                .map(|k| k + x as i64 % 7)
                .find(|k| !live.contains(k))
        };
        // Before images ship with junk outside the key on purpose.
        match kind {
            0..=29 => {
                if let Some(k) = fresh(a) {
                    records.push((I, item(k, grp, val)));
                    live.push(k);
                }
            }
            30..=49 => {
                if let Some(k) = pick(&live, a) {
                    records.push((D, item(k, 9, -1)));
                    live.retain(|x| *x != k);
                }
            }
            50..=79 => {
                if let Some(k) = pick(&live, a) {
                    records.push((UB, item(k, 9, -1)));
                    records.push((UA, item(k, grp, val)));
                }
            }
            80..=89 => {
                if let (Some(k), Some(to)) = (pick(&live, a), fresh(b)) {
                    records.push((UB, item(k, 9, -1)));
                    records.push((UA, item(to, grp, val)));
                    live.retain(|x| *x != k);
                    live.push(to);
                }
            }
            // Misses: a delete finds nothing, an update becomes an insert.
            90..=95 => records.push((D, item(200 + a as i64, 0, 0))),
            96 | 97 => {
                if let Some(k) = fresh(a) {
                    records.push((UB, item(k, 9, -1)));
                    records.push((UA, item(k, grp, val)));
                    live.push(k);
                }
            }
            // Failures: the whole run aborts, in both appliers.
            98 => {
                if let Some(k) = pick(&live, a) {
                    records.push((I, item(k, grp, val)));
                }
            }
            _ => {
                if let (Some(k), Some(to)) = (pick(&live, a), pick(&live, a.wrapping_add(1))) {
                    if k != to {
                        records.push((UB, item(k, 9, -1)));
                        records.push((UA, item(to, grp, val)));
                    }
                }
            }
        }
    }
    // Cuts fall between operations, so no UB/UA pair is split.
    starts.retain(|s| *s > 0 && *s < records.len());
    starts.dedup();
    let mut batches = Vec::new();
    let mut rest = records;
    for s in starts.into_iter().rev() {
        batches.push(items(rest.split_off(s)));
    }
    batches.push(items(rest));
    batches.reverse();
    batches
}

proptest! {
    // The default case count: 256, or `PROPTEST_CASES` (CI's `view-oracle`
    // job raises it).
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn generated_runs_leave_both_warehouses_byte_equal(
        ops in prop::collection::vec((0u8..100, 0u8..32, 0u8..32, -5i64..60, 0u8..4), 1..40),
        cuts in prop::collection::vec(0u8..40, 0..4),
        projected in any::<bool>(),
    ) {
        let t = seeded("eq-prop", projected);
        let batches = generated_run(&ops, &cuts);
        let run: Vec<&ValueDelta> = batches.iter().collect();
        let before = dump(&t.direct);
        if t.apply(&run).is_err() {
            prop_assert_eq!(dump(&t.direct), before);
        }
        // A second run on whatever the first left proves the two stayed in
        // step, not merely that they ended alike once.
        let again = items(vec![
            (UB, item(1, 0, 0)),
            (UA, item(1, 1, 21)),
            (D, item(2, 0, 0)),
        ]);
        t.apply(&[&again]).unwrap();
    }
}
