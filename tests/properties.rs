//! System-level property tests: for *random workloads*, every delta pathway
//! must reconstruct the source state exactly.
//!
//! * Op-Delta capture → replay ≡ source (§4's correctness premise),
//! * trigger capture → value-delta apply ≡ source,
//! * archive-log extraction ≡ trigger extraction (same state changes),
//! * snapshot differential applied to the old snapshot ≡ new snapshot,
//!   for both diff algorithms and any window size,
//! * a view maintained through `View::apply_stream` ≡ the same view rebuilt
//!   from scratch, whichever its sink.

use proptest::prelude::*;

use deltaforge::core::logextract::LogExtractor;
use deltaforge::core::model::{DeltaOp, ValueDelta};
use deltaforge::core::opdelta::{collect_from_table, OpDeltaCapture, OpLogSink};
use deltaforge::core::snapshot::{
    diff_snapshots, diff_snapshots_parallel, take_snapshot, DiffAlgorithm,
};
use deltaforge::core::trigger_extract::TriggerExtractor;
use deltaforge::engine::db::{Database, DbOptions};
use deltaforge::engine::{exec, EngineError};
use deltaforge::sql::ast::AggFunc;
use deltaforge::sql::parser::{parse_expression, parse_statement};
use deltaforge::storage::colbatch::{self, RowSink};
use deltaforge::storage::{Column, DataType, Row, Schema, Value};
use deltaforge::warehouse::{
    AggSpec, AggViewDef, JoinCond, MirrorConfig, OpDeltaApplier, SpjView, ValueDeltaApplier, View,
    ViewDef, Warehouse,
};

/// One abstract workload step; ids are folded into a small space so inserts,
/// updates and deletes collide interestingly.
#[derive(Debug, Clone)]
enum Step {
    Insert { id: i64, val: i64, txt: String },
    UpdateById { id: i64, val: i64 },
    UpdateRange { lo: i64, hi: i64, delta: i64 },
    DeleteById { id: i64 },
    DeleteRange { lo: i64, hi: i64 },
    Txn(Vec<Step>),
}

fn arb_leaf() -> impl Strategy<Value = Step> {
    let id = 0i64..24;
    prop_oneof![
        (id.clone(), any::<i64>(), "[a-z]{0,8}").prop_map(|(id, val, txt)| Step::Insert {
            id,
            val: val % 1000,
            txt
        }),
        (id.clone(), any::<i64>()).prop_map(|(id, val)| Step::UpdateById {
            id,
            val: val % 1000
        }),
        (id.clone(), 0i64..8, -5i64..5).prop_map(|(lo, span, delta)| Step::UpdateRange {
            lo,
            hi: lo + span,
            delta
        }),
        id.clone().prop_map(|id| Step::DeleteById { id }),
        (id, 0i64..6).prop_map(|(lo, span)| Step::DeleteRange { lo, hi: lo + span }),
    ]
}

fn arb_workload() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            4 => arb_leaf(),
            1 => prop::collection::vec(arb_leaf(), 1..4).prop_map(Step::Txn),
        ],
        1..16,
    )
}

fn step_sql(step: &Step) -> Vec<String> {
    match step {
        Step::Insert { id, val, txt } => {
            vec![format!("INSERT INTO parts VALUES ({id}, {val}, '{txt}')")]
        }
        Step::UpdateById { id, val } => {
            vec![format!("UPDATE parts SET val = {val} WHERE id = {id}")]
        }
        Step::UpdateRange { lo, hi, delta } => vec![format!(
            "UPDATE parts SET val = val + {delta} WHERE id >= {lo} AND id <= {hi}"
        )],
        Step::DeleteById { id } => vec![format!("DELETE FROM parts WHERE id = {id}")],
        Step::DeleteRange { lo, hi } => {
            vec![format!("DELETE FROM parts WHERE id >= {lo} AND id <= {hi}")]
        }
        Step::Txn(steps) => {
            let mut v = vec!["BEGIN".to_string()];
            v.extend(steps.iter().flat_map(step_sql));
            v.push("COMMIT".to_string());
            v
        }
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("val", DataType::Int),
        Column::new("txt", DataType::Varchar),
    ])
    .unwrap()
}

fn scratch(label: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "deltaforge-prop-{}-{:?}-{label}-{}",
        std::process::id(),
        std::thread::current().id(),
        COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn open(dir: &std::path::Path, archive: bool) -> std::sync::Arc<Database> {
    Database::open(DbOptions::new(dir).archive(archive)).unwrap()
}

fn create_parts(db: &std::sync::Arc<Database>) {
    db.session()
        .execute("CREATE TABLE parts (id INT PRIMARY KEY, val INT, txt VARCHAR)")
        .unwrap();
}

/// `parts` dumped in heap order, as any writer without the primary-key
/// index would: rows from `for_each_row` through a `RowSink` whose header
/// names no sort key.
fn heap_order_dump(db: &Database, path: &std::path::Path) {
    let mut sink = RowSink::create(path, colbatch::DEFAULT_BLOCK_ROWS).unwrap();
    db.for_each_row("parts", |_, row| {
        sink.write_row(row)?;
        Ok(std::ops::ControlFlow::Continue(()))
    })
    .unwrap();
    sink.finish().unwrap();
}

fn sorted_state(db: &Database) -> Vec<Row> {
    let mut rows: Vec<Row> = db
        .scan_table("parts")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    rows.sort_by(|a, b| a.values()[0].total_cmp(&b.values()[0]));
    rows
}

/// Run the workload through a statement runner, ignoring expected failures
/// (duplicate-key inserts). Transactions that fail mid-way are rolled back.
fn drive(mut run: impl FnMut(&str) -> Result<(), String>, workload: &[Step]) {
    for step in workload {
        match step {
            Step::Txn(_) => {
                let stmts = step_sql(step);
                let mut failed = false;
                for sql in &stmts {
                    if failed && sql != "COMMIT" {
                        continue;
                    }
                    if failed && sql == "COMMIT" {
                        run("ROLLBACK").ok();
                        continue;
                    }
                    if run(sql).is_err() {
                        failed = true;
                    }
                }
            }
            other => {
                for sql in step_sql(other) {
                    run(&sql).ok();
                }
            }
        }
    }
}

/// The views of the driver property: an SPJ join with a selection, a
/// single-input SPJ view, and aggregate views with every aggregate kind over
/// a nullable argument, a selection, and a global summary.
fn driver_views() -> Vec<ViewDef> {
    let agg = |name: &str, group_by: &[&str], aggregates, selection: Option<&str>| {
        ViewDef::from(AggViewDef {
            name: name.into(),
            table: "parts".into(),
            group_by: group_by.iter().map(|g| g.to_string()).collect(),
            aggregates,
            selection: selection.map(|s| parse_expression(s).unwrap()),
        })
    };
    let every_kind = vec![
        AggSpec::count_star(),
        AggSpec::of(AggFunc::Count, "val"),
        AggSpec::of(AggFunc::Sum, "val"),
        AggSpec::of(AggFunc::Avg, "val"),
        AggSpec::of(AggFunc::Min, "val"),
        AggSpec::of(AggFunc::Max, "val"),
    ];
    let extremes = vec![
        AggSpec::of(AggFunc::Min, "val"),
        AggSpec::of(AggFunc::Max, "id"),
    ];
    let totals = vec![AggSpec::count_star(), AggSpec::of(AggFunc::Sum, "val")];
    vec![
        SpjView {
            name: "part_bins".into(),
            tables: vec!["parts".into(), "bins".into()],
            joins: vec![JoinCond::new("parts", "id", "bins", "part_id")],
            selection: Some(parse_expression("bins_zone <> 3").unwrap()),
            projection: vec![
                ("parts".into(), "id".into()),
                ("bins".into(), "bid".into()),
                ("parts".into(), "val".into()),
                ("bins".into(), "zone".into()),
            ],
        }
        .into(),
        SpjView {
            name: "stocked".into(),
            tables: vec!["parts".into()],
            joins: vec![],
            selection: Some(parse_expression("parts_val > 0").unwrap()),
            projection: vec![
                ("parts".into(), "id".into()),
                ("parts".into(), "txt".into()),
            ],
        }
        .into(),
        agg("by_txt", &["txt"], every_kind, None),
        agg(
            "big_extremes",
            &["txt"],
            extremes,
            Some("val >= 10 OR id < 4"),
        ),
        agg("totals", &[], totals, None),
    ]
}

/// One statement of a driver step. Ids fold into 0..12 and groups into three
/// `txt` values, so keys are deleted and re-inserted and groups die and are
/// reborn within one stream; `Rekey` changes the key itself.
#[derive(Debug, Clone)]
enum ViewOp {
    Insert { id: i64, val: Option<i64>, grp: u8 },
    Update { id: i64, val: Option<i64>, grp: u8 },
    Rekey { id: i64, to: i64 },
    Delete { id: i64 },
    DeleteGroup { grp: u8 },
    Bin { bid: i64, part: i64, zone: i64 },
    MoveBin { bid: i64, part: i64 },
    DropBins { part: i64 },
}

impl ViewOp {
    fn table(&self) -> &'static str {
        match self {
            ViewOp::Bin { .. } | ViewOp::MoveBin { .. } | ViewOp::DropBins { .. } => "bins",
            _ => "parts",
        }
    }

    fn sql(&self) -> String {
        let lit = |v: &Option<i64>| v.map_or("NULL".to_string(), |v| v.to_string());
        match self {
            ViewOp::Insert { id, val, grp } => {
                format!("INSERT INTO parts VALUES ({id}, {}, 'g{grp}')", lit(val))
            }
            ViewOp::Update { id, val, grp } => {
                format!(
                    "UPDATE parts SET val = {}, txt = 'g{grp}' WHERE id = {id}",
                    lit(val)
                )
            }
            ViewOp::Rekey { id, to } => format!("UPDATE parts SET id = {to} WHERE id = {id}"),
            ViewOp::Delete { id } => format!("DELETE FROM parts WHERE id = {id}"),
            ViewOp::DeleteGroup { grp } => format!("DELETE FROM parts WHERE txt = 'g{grp}'"),
            ViewOp::Bin { bid, part, zone } => {
                format!("INSERT INTO bins VALUES ({bid}, {part}, {zone})")
            }
            ViewOp::MoveBin { bid, part } => {
                format!("UPDATE bins SET part_id = {part} WHERE bid = {bid}")
            }
            ViewOp::DropBins { part } => format!("DELETE FROM bins WHERE part_id = {part}"),
        }
    }
}

fn arb_view_op() -> impl Strategy<Value = ViewOp> {
    let id = 0i64..12;
    let val = || prop_oneof![1 => Just(None), 5 => (-5i64..40).prop_map(Some)];
    prop_oneof![
        4 => (id.clone(), val(), 0u8..3).prop_map(|(id, val, grp)| ViewOp::Insert { id, val, grp }),
        3 => (id.clone(), val(), 0u8..3).prop_map(|(id, val, grp)| ViewOp::Update { id, val, grp }),
        2 => (id.clone(), id.clone()).prop_map(|(id, to)| ViewOp::Rekey { id, to }),
        3 => id.clone().prop_map(|id| ViewOp::Delete { id }),
        1 => (0u8..3).prop_map(|grp| ViewOp::DeleteGroup { grp }),
        3 => (0i64..8, id.clone(), 1i64..4).prop_map(|(bid, part, zone)| ViewOp::Bin { bid, part, zone }),
        1 => (0i64..8, id.clone()).prop_map(|(bid, part)| ViewOp::MoveBin { bid, part }),
        1 => id.prop_map(|part| ViewOp::DropBins { part }),
    ]
}

/// Every view table as sorted encoded rows, hidden columns included.
fn view_tables(db: &Database, views: &[View]) -> Vec<(String, Vec<Vec<u8>>)> {
    let dump = |v: &View| {
        let rows = db.scan_table(v.name()).unwrap();
        let mut rows: Vec<Vec<u8>> = rows.into_iter().map(|(_, r)| r.to_bytes()).collect();
        rows.sort();
        (v.name().to_string(), rows)
    };
    views.iter().map(dump).collect()
}

proptest! {
    // The default case count: 256, or `PROPTEST_CASES` (CI's `view-oracle`
    // and `audit-repair-gate` jobs raise it).
    #![proptest_config(ProptestConfig::default())]

    /// A snapshot diff takes a replica of the old state to the new one, at
    /// every worker count, and the sort-merge's delta is record for record
    /// the one-worker `diff_snapshots`'s. It is also the same whichever of
    /// the two states is dumped in key order (`take_snapshot`, read as one
    /// run) or in heap order (sorted into runs). The audit's scoped repair
    /// and the log extractor's coalesce-rung oracle both rest on this diff.
    #[test]
    fn snapshot_diff_is_a_correct_delta(
        workload in arb_workload(),
        window in prop_oneof![Just(0usize), Just(2), Just(64), Just(4096)],
        use_window in any::<bool>(),
        workers in 1usize..4,
    ) {
        let dir = scratch("snap");
        std::fs::create_dir_all(&dir).unwrap();
        let src = open(&dir.join("src"), false);
        create_parts(&src);
        // Seed a little, snapshot, run the workload, snapshot again.
        let mut s = src.session();
        for i in 0..8 {
            s.execute(&format!("INSERT INTO parts VALUES ({i}, 0, 'seed')")).unwrap();
        }
        let old_path = dir.join("old.snap");
        let old_heap = dir.join("old.heap");
        take_snapshot(&src, "parts", &old_path).unwrap();
        heap_order_dump(&src, &old_heap);
        drive(|sql| s.execute(sql).map(|_| ()).map_err(|e| e.to_string()), &workload);
        let new_path = dir.join("new.snap");
        let new_heap = dir.join("new.heap");
        take_snapshot(&src, "parts", &new_path).unwrap();
        heap_order_dump(&src, &new_heap);

        let sort_merge = DiffAlgorithm::SortMerge { run_size: 4 };
        let (keyed, keyed_stats) =
            diff_snapshots("parts", &schema(), &[0], &old_path, &new_path, sort_merge).unwrap();
        prop_assert_eq!(keyed_stats.run_rows_written, 0);
        for (o, n) in [(&old_path, &new_heap), (&old_heap, &new_path), (&old_heap, &new_heap)] {
            let (vd, _) =
                diff_snapshots_parallel("parts", &schema(), &[0], o, n, sort_merge, workers)
                    .unwrap();
            prop_assert_eq!(&vd, &keyed, "{:?} vs {:?}", o, n);
        }

        let algo = if use_window {
            DiffAlgorithm::Window { size: window }
        } else {
            sort_merge
        };
        let (vd, _) =
            diff_snapshots_parallel("parts", &schema(), &[0], &old_path, &new_path, algo, workers)
                .unwrap();
        if !use_window {
            // The run-generation workers never change the sort-merge delta.
            let (one, _) =
                diff_snapshots("parts", &schema(), &[0], &old_path, &new_path, algo).unwrap();
            prop_assert_eq!(&vd, &one);
        }

        // Apply the diff to a copy of the OLD state: must land on NEW state.
        let replica = open(&dir.join("replica"), false);
        create_parts(&replica);
        let mut rs = replica.session();
        for i in 0..8 {
            rs.execute(&format!("INSERT INTO parts VALUES ({i}, 0, 'seed')")).unwrap();
        }
        drop(rs);
        let mut wh = Warehouse::new(replica);
        wh.add_mirror(MirrorConfig::full("parts", schema())).unwrap();
        // Reorder for applicability: the window algorithm may emit an Insert
        // for a key before the Delete of its old version. Apply deletes and
        // update pairs first, then inserts (keyed batches commute per key
        // except insert-vs-delete of the same key, where delete-first is the
        // correct interleaving for a snapshot delta).
        let mut ordered = ValueDelta::new("parts", schema());
        let mut i = 0;
        let recs = &vd.records;
        let mut inserts = Vec::new();
        while i < recs.len() {
            match recs[i].op {
                DeltaOp::Insert => {
                    inserts.push(recs[i].clone());
                    i += 1;
                }
                DeltaOp::UpdateBefore => {
                    ordered.records.push(recs[i].clone());
                    ordered.records.push(recs[i + 1].clone());
                    i += 2;
                }
                _ => {
                    ordered.records.push(recs[i].clone());
                    i += 1;
                }
            }
        }
        ordered.records.extend(inserts);
        ValueDeltaApplier::apply(&wh, &ordered).unwrap();
        let (want, got) = (sorted_state(&src), sorted_state(wh.db()));
        drop((s, wh, src));
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(want, got);
    }

    /// One oracle for both sinks. Each step is one transaction on the
    /// maintained database: statements on one table, then one pass of the
    /// driver per view over the transaction's own redo tail — the shape of
    /// a direct-apply run. A twin database runs the same statements and only
    /// ever rebuilds its views. After every step the maintained view tables
    /// equal the twin's byte for byte and pass their own recompute check. A
    /// step marked `torn` gets an image of the wrong arity spliced into the
    /// middle of its stream: the driver must refuse it with a typed error,
    /// and `Database::abort` must leave every table as the step found it.
    #[test]
    fn view_driver_equals_a_rebuild_for_both_sinks(
        steps in prop::collection::vec(
            (prop::collection::vec(arb_view_op(), 1..7), 0u8..8),
            1..8,
        ),
    ) {
        let dir = scratch("viewdrv");
        let open_with_views = |name: &str| {
            let db = open(&dir.join(name), false);
            create_parts(&db);
            let mut s = db.session();
            s.execute("CREATE TABLE bins (bid INT PRIMARY KEY, part_id INT, zone INT)").unwrap();
            s.execute("INSERT INTO parts VALUES (1, 10, 'g0'), (2, 50, 'g0'), (3, NULL, 'g1'), (4, 0, 'g2')").unwrap();
            s.execute("INSERT INTO bins VALUES (0, 1, 1), (1, 1, 3), (2, 9, 2)").unwrap();
            let views: Vec<View> =
                driver_views().into_iter().map(|def| View::compile(&db, def).unwrap()).collect();
            (db, views)
        };
        let rebuild = |db: &Database, views: &[View]| {
            let mut txn = db.begin();
            for v in views {
                v.refresh_full(db, &mut txn).unwrap();
            }
            db.commit(txn).unwrap();
        };
        let (db, views) = open_with_views("maintained");
        let (twin, twin_views) = open_with_views("twin");
        rebuild(&db, &views);
        rebuild(&twin, &twin_views);

        for (ops, torn) in &steps {
            // A stream is the changes of one table; the other stands still.
            let table = ops[0].table();
            let ops: Vec<&ViewOp> = ops.iter().filter(|op| op.table() == table).collect();
            let before = (sorted_state(&db), view_tables(&db, &views));
            let mut txn = db.begin();
            let mut applied = Vec::new();
            for op in ops {
                let stmt = parse_statement(&op.sql()).unwrap();
                // A duplicate key fails the statement, not the step: the
                // executor undoes its partial work, and the twin skips it.
                if exec::execute(&db, &mut txn, &stmt).is_ok() {
                    applied.push(op);
                }
            }
            let images: Vec<(i64, Row)> =
                txn.images_since(0, table).map(|(sign, row)| (sign, row.clone())).collect();
            let mut stream: Vec<(i64, &Row)> = images.iter().map(|(sign, row)| (*sign, row)).collect();
            let short = Row::new(vec![Value::Int(1)]);
            let torn = *torn == 0 && !stream.is_empty();
            if torn {
                stream.insert(stream.len() / 2, (1, &short));
            }
            let mut outcome = Ok(0);
            for v in &views {
                outcome = outcome.and_then(|n| Ok(n + v.apply_stream(&db, &mut txn, table, &stream)?));
            }
            if torn {
                prop_assert!(matches!(outcome, Err(EngineError::Invalid(_))), "{outcome:?}");
                db.abort(txn).unwrap();
                prop_assert_eq!(&(sorted_state(&db), view_tables(&db, &views)), &before);
            } else {
                prop_assert!(outcome.is_ok(), "{outcome:?}");
                db.commit(txn).unwrap();
                let mut s = twin.session();
                for op in applied {
                    s.execute(&op.sql()).unwrap();
                }
                rebuild(&twin, &twin_views);
            }
            prop_assert_eq!(view_tables(&db, &views), view_tables(&twin, &twin_views));
            for v in &views {
                prop_assert!(v.verify_against_recompute(&db).unwrap(), "{}", v);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn op_delta_replay_reconstructs_source(workload in arb_workload()) {
        let dir = scratch("opd");
        let src = open(&dir.join("src"), false);
        create_parts(&src);
        let mut cap = OpDeltaCapture::new(src.session(), OpLogSink::Table("op_log".into())).unwrap();
        drive(|sql| cap.execute(sql).map(|_| ()).map_err(|e| e.to_string()), &workload);

        let ods = collect_from_table(&src, "op_log").unwrap();
        let wh_db = open(&dir.join("wh"), false);
        let mut wh = Warehouse::new(wh_db);
        wh.add_mirror(MirrorConfig::full("parts", schema())).unwrap();
        OpDeltaApplier::apply_all(&wh, &ods).unwrap();
        prop_assert_eq!(sorted_state(&src), sorted_state(wh.db()));
    }

    #[test]
    fn value_delta_apply_reconstructs_source(workload in arb_workload()) {
        let dir = scratch("vd");
        let src = open(&dir.join("src"), false);
        create_parts(&src);
        let x = TriggerExtractor::new("parts");
        x.install(&src).unwrap();
        let mut s = src.session();
        drive(|sql| s.execute(sql).map(|_| ()).map_err(|e| e.to_string()), &workload);
        let vd = x.drain(&src).unwrap();

        let wh_db = open(&dir.join("wh"), false);
        let mut wh = Warehouse::new(wh_db);
        wh.add_mirror(MirrorConfig::full("parts", schema())).unwrap();
        ValueDeltaApplier::apply(&wh, &vd).unwrap();
        prop_assert_eq!(sorted_state(&src), sorted_state(wh.db()));
    }

    #[test]
    fn aggregate_view_matches_recompute_after_random_workload(workload in arb_workload()) {
        use deltaforge::sql::ast::AggFunc;
        let dir = scratch("aggprop");
        let src = open(&dir.join("src"), false);
        create_parts(&src);
        TriggerExtractor::new("parts").install(&src).unwrap();
        let mut s = src.session();
        drive(|sql| s.execute(sql).map(|_| ()).map_err(|e| e.to_string()), &workload);
        let vd = TriggerExtractor::new("parts").drain(&src).unwrap();

        let wh_db = open(&dir.join("wh"), false);
        let mut wh = Warehouse::new(wh_db);
        wh.add_mirror(MirrorConfig::full("parts", schema())).unwrap();
        wh.add_agg_view(AggViewDef {
            name: "summary".into(),
            table: "parts".into(),
            group_by: vec!["txt".into()],
            aggregates: vec![
                AggSpec::count_star(),
                AggSpec::of(AggFunc::Sum, "val"),
                AggSpec::of(AggFunc::Min, "val"),
                AggSpec::of(AggFunc::Max, "val"),
                AggSpec::of(AggFunc::Avg, "val"),
            ],
            selection: None,
        }).unwrap();
        ValueDeltaApplier::apply(&wh, &vd).unwrap();
        let v = wh.view("summary").unwrap();
        prop_assert!(
            v.verify_against_recompute(wh.db()).unwrap(),
            "incrementally maintained summary diverged from recompute"
        );
    }

    #[test]
    fn log_and_trigger_extraction_agree(workload in arb_workload()) {
        let dir = scratch("logtrig");
        let src = open(&dir.join("src"), true);
        create_parts(&src);
        let x = TriggerExtractor::new("parts");
        x.install(&src).unwrap();
        let mut log_x = LogExtractor::for_tables(&["parts"]);
        log_x.extract(&src).unwrap(); // consume DDL-era records
        let mut s = src.session();
        drive(|sql| s.execute(sql).map(|_| ()).map_err(|e| e.to_string()), &workload);

        let trig: ValueDelta = x.drain(&src).unwrap();
        let logd = log_x.extract(&src).unwrap();
        let log_records = logd.into_iter().find(|d| d.table == "parts");
        let trig_ops: Vec<(DeltaOp, Row)> =
            trig.records.iter().map(|r| (r.op, r.row.clone())).collect();
        let log_ops: Vec<(DeltaOp, Row)> = log_records
            .map(|d| d.records.iter().map(|r| (r.op, r.row.clone())).collect())
            .unwrap_or_default();
        // Both capture exactly the same committed state changes, in order.
        prop_assert_eq!(trig_ops, log_ops);
    }
}
