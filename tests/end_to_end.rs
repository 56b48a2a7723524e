//! End-to-end incremental maintenance: source → capture → transport →
//! warehouse, covering both delta representations, partial mirrors, the
//! before-image hybrid, views, and crash-flavored queue semantics.

use deltaforge::core::model::{DeltaBatch, DeltaOp};
use deltaforge::core::opdelta::{clear_table, collect_from_table, OpDeltaCapture, OpLogSink};
use deltaforge::core::selfmaint::{SelfMaintAnalyzer, WarehouseProfile};
use deltaforge::core::trigger_extract::TriggerExtractor;
use deltaforge::engine::db::{Database, DbOptions};
use deltaforge::sql::parser::parse_expression;
use deltaforge::storage::{Column, DataType, Row, Schema, Value};
use deltaforge::warehouse::{
    AggSpec, AggViewDef, JoinCond, MirrorConfig, OpDeltaApplier, Pipeline, SpjView,
    ValueDeltaApplier, Warehouse,
};

fn scratch(label: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-e2e-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn orders_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("status", DataType::Varchar),
        Column::new("customer", DataType::Varchar),
        Column::new("total", DataType::Int),
    ])
    .unwrap()
}

fn sorted(db: &Database, table: &str) -> Vec<Row> {
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
fn op_delta_pipeline_keeps_full_mirror_identical() {
    let dir = scratch("full");
    let src = Database::open(DbOptions::new(dir.join("src"))).unwrap();
    src.session()
        .execute(
            "CREATE TABLE orders (id INT PRIMARY KEY, status VARCHAR, customer VARCHAR, total INT)",
        )
        .unwrap();
    let mut cap = OpDeltaCapture::new(src.session(), OpLogSink::Table("op_log".into())).unwrap();

    let wh_db = Database::open(DbOptions::new(dir.join("wh"))).unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full("orders", orders_schema()))
        .unwrap();
    let pipe = Pipeline::open(dir.join("pipe.q")).unwrap();

    // Several rounds of activity with interleaved syncs.
    for round in 0..3 {
        let base = round * 100;
        cap.execute(&format!(
            "INSERT INTO orders VALUES ({}, 'open', 'acme', 10), ({}, 'open', 'bob', 20)",
            base,
            base + 1
        ))
        .unwrap();
        cap.execute("BEGIN").unwrap();
        cap.execute(&format!(
            "UPDATE orders SET total = total + 5 WHERE id = {base}"
        ))
        .unwrap();
        cap.execute(&format!("DELETE FROM orders WHERE id = {}", base + 1))
            .unwrap();
        cap.execute("COMMIT").unwrap();
        for od in collect_from_table(&src, "op_log").unwrap() {
            pipe.publish(&DeltaBatch::Op(od)).unwrap();
        }
        clear_table(&src, "op_log").unwrap();
        pipe.sync(&wh).unwrap();
        assert_eq!(
            sorted(&src, "orders"),
            sorted(wh.db(), "orders"),
            "round {round}"
        );
    }
}

#[test]
fn hybrid_flow_maintains_projected_mirror() {
    let dir = scratch("hybrid");
    let src = Database::open(DbOptions::new(dir.join("src"))).unwrap();
    src.session()
        .execute(
            "CREATE TABLE orders (id INT PRIMARY KEY, status VARCHAR, customer VARCHAR, total INT)",
        )
        .unwrap();
    // Warehouse mirrors only (id, status, total); predicates on `customer`
    // force the §4.1 hybrid.
    let profile = WarehouseProfile::new().mirror_columns("orders", &["id", "status", "total"]);
    let mut cap = OpDeltaCapture::new(src.session(), OpLogSink::Table("op_log".into()))
        .unwrap()
        .with_analyzer(SelfMaintAnalyzer::new(profile));

    cap.execute("INSERT INTO orders VALUES (1, 'open', 'acme', 10), (2, 'open', 'acme', 20), (3, 'open', 'bob', 30)")
        .unwrap();
    cap.execute("UPDATE orders SET status = 'flagged' WHERE customer = 'acme'")
        .unwrap();
    cap.execute("DELETE FROM orders WHERE customer = 'bob'")
        .unwrap();

    let ods = collect_from_table(&src, "op_log").unwrap();
    assert_eq!(ods.len(), 3);
    assert!(
        ods[1].ops[0].before_image.is_some(),
        "update predicated on unmirrored column"
    );
    assert!(
        ods[2].ops[0].before_image.is_some(),
        "delete predicated on unmirrored column"
    );

    let wh_db = Database::open(DbOptions::new(dir.join("wh"))).unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::projected(
        "orders",
        orders_schema(),
        &["id", "status", "total"],
    ))
    .unwrap();
    OpDeltaApplier::apply_all(&wh, &ods).unwrap();

    let rows = sorted(wh.db(), "orders");
    assert_eq!(
        rows,
        vec![
            Row::new(vec![
                Value::Int(1),
                Value::Str("flagged".into()),
                Value::Int(10)
            ]),
            Row::new(vec![
                Value::Int(2),
                Value::Str("flagged".into()),
                Value::Int(20)
            ]),
        ]
    );
}

#[test]
fn trigger_extracted_value_delta_round_trips_through_pipeline() {
    let dir = scratch("value");
    let src = Database::open(DbOptions::new(dir.join("src"))).unwrap();
    let mut s = src.session();
    s.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, status VARCHAR, customer VARCHAR, total INT)",
    )
    .unwrap();
    let x = TriggerExtractor::new("orders");
    x.install(&src).unwrap();
    s.execute("INSERT INTO orders VALUES (1, 'open', 'acme', 10)")
        .unwrap();
    s.execute("INSERT INTO orders VALUES (2, 'open', 'bob', 20)")
        .unwrap();
    s.execute("UPDATE orders SET total = 25 WHERE id = 2")
        .unwrap();
    let vd = x.drain(&src).unwrap();

    // Ship through the queue as a serialized envelope (exactly what crosses
    // the network), then apply.
    let wh_db = Database::open(DbOptions::new(dir.join("wh"))).unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full("orders", orders_schema()))
        .unwrap();
    let pipe = Pipeline::open(dir.join("pipe.q")).unwrap();
    pipe.publish(&DeltaBatch::Value(vd)).unwrap();
    let report = pipe.sync(&wh).unwrap();
    assert_eq!(report.batches, 1);
    assert_eq!(sorted(&src, "orders"), sorted(wh.db(), "orders"));
}

#[test]
fn unacked_batch_is_reapplied_after_consumer_restart() {
    let dir = scratch("restart");
    let qpath = dir.join("pipe.q");
    std::fs::create_dir_all(&dir).unwrap();
    let mut vd = deltaforge::core::model::ValueDelta::new("orders", orders_schema());
    vd.records.push(deltaforge::core::model::ValueDeltaRecord {
        op: DeltaOp::Insert,
        txn: 0,
        row: Row::new(vec![
            Value::Int(1),
            Value::Str("open".into()),
            Value::Str("acme".into()),
            Value::Int(10),
        ]),
    });
    {
        let pipe = Pipeline::open(&qpath).unwrap();
        pipe.publish(&DeltaBatch::Value(vd.clone())).unwrap();
        // Consumer "crashes" before syncing: nothing acked.
    }
    let pipe = Pipeline::open(&qpath).unwrap();
    let wh_db = Database::open(DbOptions::new(dir.join("wh"))).unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full("orders", orders_schema()))
        .unwrap();
    let report = pipe.sync(&wh).unwrap();
    assert_eq!(report.batches, 1, "redelivered after restart");
    assert_eq!(wh.db().row_count("orders").unwrap(), 1);
}

#[test]
fn views_stay_consistent_across_both_appliers_end_to_end() {
    let dir = scratch("views");
    let src = Database::open(DbOptions::new(dir.join("src"))).unwrap();
    src.session()
        .execute(
            "CREATE TABLE orders (id INT PRIMARY KEY, status VARCHAR, customer VARCHAR, total INT)",
        )
        .unwrap();
    TriggerExtractor::new("orders").install(&src).unwrap();
    let mut cap = OpDeltaCapture::new(src.session(), OpLogSink::Table("op_log".into())).unwrap();

    let build_wh = |name: &str| {
        let wh_db = Database::open(DbOptions::new(dir.join(name))).unwrap();
        let mut wh = Warehouse::new(wh_db);
        wh.add_mirror(MirrorConfig::full("orders", orders_schema()))
            .unwrap();
        wh.add_view(SpjView {
            name: "open_orders".into(),
            tables: vec!["orders".into()],
            joins: vec![],
            selection: Some(parse_expression("orders_status = 'open'").unwrap()),
            projection: vec![
                ("orders".into(), "id".into()),
                ("orders".into(), "total".into()),
            ],
        })
        .unwrap();
        wh
    };
    let wh_op = build_wh("wh-op");
    let wh_val = build_wh("wh-val");

    cap.execute("INSERT INTO orders VALUES (1, 'open', 'a', 10), (2, 'open', 'b', 20), (3, 'closed', 'c', 30)")
        .unwrap();
    cap.execute("UPDATE orders SET status = 'closed' WHERE id = 1")
        .unwrap();
    cap.execute("UPDATE orders SET status = 'open' WHERE id = 3")
        .unwrap();
    cap.execute("DELETE FROM orders WHERE id = 2").unwrap();

    let vd = TriggerExtractor::new("orders").drain(&src).unwrap();
    let ods = collect_from_table(&src, "op_log").unwrap();
    OpDeltaApplier::apply_all(&wh_op, &ods).unwrap();
    ValueDeltaApplier::apply(&wh_val, &vd).unwrap();

    // Both view materializations equal, and equal to a from-source recompute.
    let view_op = sorted(wh_op.db(), "open_orders");
    let view_val = sorted(wh_val.db(), "open_orders");
    assert_eq!(view_op, view_val);
    assert_eq!(
        view_op,
        vec![Row::new(vec![Value::Int(3), Value::Int(30)])],
        "only order 3 is open at the end"
    );
    for wh in [&wh_op, &wh_val] {
        let view = wh.view("open_orders").unwrap();
        assert!(view.verify_against_recompute(wh.db()).unwrap(), "{view}");
    }
    // A second useless join: ensure joins in multi-table views work e2e too.
    let wh2_db = Database::open(DbOptions::new(dir.join("wh2"))).unwrap();
    let mut wh2 = Warehouse::new(wh2_db);
    wh2.add_mirror(MirrorConfig::full("orders", orders_schema()))
        .unwrap();
    let customers = Schema::new(vec![
        Column::new("name", DataType::Varchar).primary_key(),
        Column::new("tier", DataType::Varchar),
    ])
    .unwrap();
    wh2.add_mirror(MirrorConfig::full("customers", customers))
        .unwrap();
    wh2.db()
        .session()
        .execute("INSERT INTO customers VALUES ('a', 'gold'), ('c', 'silver')")
        .unwrap();
    wh2.add_view(SpjView {
        name: "order_tiers".into(),
        tables: vec!["orders".into(), "customers".into()],
        joins: vec![JoinCond::new("orders", "customer", "customers", "name")],
        selection: None,
        projection: vec![
            ("orders".into(), "id".into()),
            ("customers".into(), "name".into()),
            ("customers".into(), "tier".into()),
        ],
    })
    .unwrap();
    OpDeltaApplier::apply_all(&wh2, &ods).unwrap();
    let tiers = sorted(wh2.db(), "order_tiers");
    assert_eq!(tiers.len(), 2, "orders 1 (a/gold) and 3 (c/silver) joined");
    let view = wh2.view("order_tiers").unwrap();
    assert!(view.verify_against_recompute(wh2.db()).unwrap(), "{view}");
}

#[test]
fn aggregate_views_maintained_by_both_appliers() {
    use deltaforge::sql::ast::AggFunc;
    let dir = scratch("aggviews");
    let src = Database::open(DbOptions::new(dir.join("src"))).unwrap();
    src.session()
        .execute(
            "CREATE TABLE orders (id INT PRIMARY KEY, status VARCHAR, customer VARCHAR, total INT)",
        )
        .unwrap();
    TriggerExtractor::new("orders").install(&src).unwrap();
    let mut cap = OpDeltaCapture::new(src.session(), OpLogSink::Table("op_log".into())).unwrap();

    let build_wh = |name: &str| {
        let wh_db = Database::open(DbOptions::new(dir.join(name))).unwrap();
        let mut wh = Warehouse::new(wh_db);
        wh.add_mirror(MirrorConfig::full("orders", orders_schema()))
            .unwrap();
        wh.add_agg_view(AggViewDef {
            name: "revenue_by_customer".into(),
            table: "orders".into(),
            group_by: vec!["customer".into()],
            aggregates: vec![
                AggSpec::count_star(),
                AggSpec::of(AggFunc::Sum, "total"),
                AggSpec::of(AggFunc::Max, "total"),
            ],
            selection: Some(parse_expression("status = 'open'").unwrap()),
        })
        .unwrap();
        wh
    };
    let wh_op = build_wh("wh-agg-op");
    let wh_val = build_wh("wh-agg-val");

    cap.execute(
        "INSERT INTO orders VALUES (1, 'open', 'acme', 100), (2, 'open', 'acme', 50), (3, 'open', 'bob', 70)",
    )
    .unwrap();
    cap.execute("UPDATE orders SET status = 'closed' WHERE id = 1")
        .unwrap();
    cap.execute("UPDATE orders SET total = 90 WHERE id = 3")
        .unwrap();
    cap.execute("DELETE FROM orders WHERE id = 2").unwrap();

    let vd = TriggerExtractor::new("orders").drain(&src).unwrap();
    let ods = collect_from_table(&src, "op_log").unwrap();
    OpDeltaApplier::apply_all(&wh_op, &ods).unwrap();
    ValueDeltaApplier::apply(&wh_val, &vd).unwrap();

    for wh in [&wh_op, &wh_val] {
        let v = wh.view("revenue_by_customer").unwrap();
        assert!(
            v.verify_against_recompute(wh.db()).unwrap(),
            "incremental summary must equal SQL recompute"
        );
        let rows = v.visible_rows(wh.db()).unwrap();
        // Only bob still has an open order (id 3, total 90).
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values()[0], Value::Str("bob".into()));
        assert_eq!(rows[0].values()[1], Value::Int(1));
        assert_eq!(rows[0].values()[2], Value::Int(90));
    }
    assert_eq!(
        wh_op
            .view("revenue_by_customer")
            .unwrap()
            .visible_rows(wh_op.db())
            .unwrap(),
        wh_val
            .view("revenue_by_customer")
            .unwrap()
            .visible_rows(wh_val.db())
            .unwrap(),
    );
}
