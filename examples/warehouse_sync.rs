//! End-to-end warehouse maintenance with an SPJ materialized view and
//! concurrent OLAP queries: the "no outage" property of §4.1, demonstrated.
//!
//! A source system runs order transactions; Op-Deltas flow through the
//! pipeline; the warehouse maintains mirrors *and* a join view while OLAP
//! readers keep querying it.
//!
//! ```text
//! cargo run --release --example warehouse_sync
//! ```

use deltaforge::core::model::DeltaBatch;
use deltaforge::core::opdelta::{clear_table, collect_from_table, OpDeltaCapture, OpLogSink};
use deltaforge::engine::db::Database;
use deltaforge::engine::DbOptions;
use deltaforge::sql::ast::AggFunc;
use deltaforge::sql::parser::parse_expression;
use deltaforge::storage::{Column, DataType, Schema};
use deltaforge::warehouse::{
    AggSpec, AggViewDef, JoinCond, MirrorConfig, OlapDriver, Pipeline, SpjView, Warehouse,
};

fn customers_schema() -> Schema {
    Schema::new(vec![
        Column::new("cid", DataType::Int).primary_key(),
        Column::new("name", DataType::Varchar).not_null(),
        Column::new("region", DataType::Varchar),
    ])
    .unwrap()
}

fn orders_schema() -> Schema {
    Schema::new(vec![
        Column::new("oid", DataType::Int).primary_key(),
        Column::new("cust", DataType::Int),
        Column::new("total", DataType::Int),
        Column::new("status", DataType::Varchar),
    ])
    .unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scratch = std::env::temp_dir().join(format!("deltaforge-sync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // --- Source system with two tables.
    let source = Database::open(DbOptions::new(scratch.join("source")))?;
    let mut s = source.session();
    s.execute(
        "CREATE TABLE customers (cid INT PRIMARY KEY, name VARCHAR NOT NULL, region VARCHAR)",
    )?;
    s.execute("CREATE TABLE orders (oid INT PRIMARY KEY, cust INT, total INT, status VARCHAR)")?;
    s.execute("INSERT INTO customers VALUES (1, 'acme', 'west'), (2, 'globex', 'east'), (3, 'initech', 'west')")?;
    drop(s);
    let mut app = OpDeltaCapture::new(source.session(), OpLogSink::Table("op_log".into()))?;

    // --- Warehouse: mirrors + a key-preserving SPJ view of open west orders.
    let wh_db = Database::open(DbOptions::new(scratch.join("warehouse")))?;
    let mut warehouse = Warehouse::new(wh_db);
    warehouse.add_mirror(MirrorConfig::full("customers", customers_schema()))?;
    warehouse.add_mirror(MirrorConfig::full("orders", orders_schema()))?;
    // Backfill the initial customer state.
    for (cid, name, region) in [
        (1, "acme", "west"),
        (2, "globex", "east"),
        (3, "initech", "west"),
    ] {
        warehouse.db().session().execute(&format!(
            "INSERT INTO customers VALUES ({cid}, '{name}', '{region}')"
        ))?;
    }
    warehouse.add_view(SpjView {
        name: "west_open_orders".into(),
        tables: vec!["customers".into(), "orders".into()],
        joins: vec![JoinCond::new("customers", "cid", "orders", "cust")],
        selection: Some(parse_expression(
            "customers_region = 'west' AND orders_status = 'open'",
        )?),
        projection: vec![
            ("customers".into(), "cid".into()),
            ("customers".into(), "name".into()),
            ("orders".into(), "oid".into()),
            ("orders".into(), "total".into()),
        ],
    })?;

    // A summary table too: revenue per region over open orders, maintained
    // incrementally by the counting algorithm.
    warehouse.add_agg_view(AggViewDef {
        name: "open_order_stats".into(),
        table: "orders".into(),
        group_by: vec![],
        aggregates: vec![
            AggSpec::count_star(),
            AggSpec::of(AggFunc::Sum, "total"),
            AggSpec::of(AggFunc::Max, "total"),
        ],
        selection: Some(parse_expression("status = 'open'")?),
    })?;

    let pipeline = Pipeline::open(scratch.join("pipe.q"))?;

    // --- Round 1 of source activity.
    app.execute("INSERT INTO orders VALUES (100, 1, 250, 'open')")?;
    app.execute("INSERT INTO orders VALUES (101, 2, 90, 'open')")?;
    app.execute("INSERT INTO orders VALUES (102, 3, 400, 'open')")?;
    ship(&source, &pipeline)?;

    // Apply while OLAP readers hammer the view: no outage.
    let driver = OlapDriver::new(warehouse.db().clone(), &["west_open_orders"], 2);
    let (sync_result, stats) = driver.run_during(|| pipeline.sync(&warehouse));
    let report = sync_result?;
    println!(
        "round 1: {} batch(es) applied, {} view row(s) touched; OLAP readers completed {} queries (max latency {:.1?}, timeouts {})",
        report.batches, report.apply.view_rows_touched, stats.completed, stats.max_latency, stats.timeouts
    );
    print_view(&warehouse)?;

    // --- Round 2: a customer moves region, an order closes, one is deleted.
    app.execute("BEGIN")?;
    app.execute("UPDATE customers SET region = 'west' WHERE cid = 2")?;
    app.execute("UPDATE orders SET status = 'closed' WHERE oid = 100")?;
    app.execute("COMMIT")?;
    app.execute("DELETE FROM orders WHERE oid = 102")?;
    ship(&source, &pipeline)?;
    let report = pipeline.sync(&warehouse)?;
    println!(
        "\nround 2: {} batch(es) applied as {} warehouse txn(s) (one per source txn)",
        report.batches, report.apply.transactions
    );
    print_view(&warehouse)?;

    // The view now shows exactly the open west orders: globex's order 101.
    let rows = warehouse.db().scan_table("west_open_orders")?;
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1.values()[2].as_int()?, 101);

    // The summary stayed consistent through every delta, and matches a
    // from-scratch SQL recompute.
    let summary = warehouse.view("open_order_stats").expect("registered");
    assert!(summary.verify_against_recompute(warehouse.db())?);
    let stats_rows = summary.visible_rows(warehouse.db())?;
    println!(
        "\nopen_order_stats (incremental == recompute): count={}, sum={}, max={}",
        stats_rows[0].values()[0],
        stats_rows[0].values()[1],
        stats_rows[0].values()[2]
    );
    println!("verified: view contents match the source state");
    Ok(())
}

fn ship(source: &Database, pipeline: &Pipeline) -> Result<(), Box<dyn std::error::Error>> {
    for od in collect_from_table(source, "op_log")? {
        pipeline.publish(&DeltaBatch::Op(od))?;
    }
    clear_table(source, "op_log")?;
    Ok(())
}

fn print_view(warehouse: &Warehouse) -> Result<(), Box<dyn std::error::Error>> {
    println!("west_open_orders:");
    for (_, row) in warehouse.db().scan_table("west_open_orders")? {
        println!("  {}", deltaforge::storage::codec::ascii::format_row(&row));
    }
    Ok(())
}
