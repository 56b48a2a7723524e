//! The complete Figure 1 loop through the collector APIs: multiple
//! heterogeneous sources → per-source extraction method + transform →
//! durable queue → warehouse with views, in repeated rounds.

use deltaforge::core::extractor::{DeltaSource, LogSource, TriggerSource};
use deltaforge::core::opdelta::{OpDeltaCapture, OpLogSink};
use deltaforge::core::transform::{ColumnTransform, DeltaTransform};
use deltaforge::engine::db::{Database, DbOptions};
use deltaforge::sql::ast::AggFunc;
use deltaforge::sql::parser::parse_expression;
use deltaforge::storage::{Column, DataType, Schema, Value};
use deltaforge::warehouse::{AggSpec, AggViewDef, MirrorConfig, Pipeline, Warehouse};

fn scratch(label: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-fullpipe-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn wh_parts_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("qty", DataType::Int),
    ])
    .unwrap()
}

#[test]
fn collector_pipeline_runs_multiple_rounds() {
    let dir = scratch("rounds");

    // Source A (trigger extraction, extra column dropped by a transform).
    let src_a = Database::open(DbOptions::new(dir.join("a"))).unwrap();
    src_a
        .session()
        .execute("CREATE TABLE parts (id INT PRIMARY KEY, qty INT, note VARCHAR)")
        .unwrap();
    // Source B (log extraction; same warehouse schema already).
    let src_b = Database::open(DbOptions::new(dir.join("b")).archive(true)).unwrap();
    src_b
        .session()
        .execute("CREATE TABLE parts (id INT PRIMARY KEY, qty INT)")
        .unwrap();

    let mut sources_a: Vec<(Box<dyn DeltaSource>, Option<DeltaTransform>)> = vec![(
        Box::new(TriggerSource::install(&src_a, "parts").unwrap()),
        Some(DeltaTransform::new().columns(vec![
            ColumnTransform::copy("id"),
            ColumnTransform::copy("qty"),
        ])),
    )];
    let mut sources_b: Vec<(Box<dyn DeltaSource>, Option<DeltaTransform>)> =
        vec![(Box::new(LogSource::from_now(&src_b, &["parts"])), None)];

    // Warehouse with a summary view over the merged stream.
    let wh_db = Database::open(DbOptions::new(dir.join("wh"))).unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full("parts", wh_parts_schema()))
        .unwrap();
    wh.add_agg_view(AggViewDef {
        name: "stock".into(),
        table: "parts".into(),
        group_by: vec![],
        aggregates: vec![AggSpec::count_star(), AggSpec::of(AggFunc::Sum, "qty")],
        selection: None,
    })
    .unwrap();
    let pipe = Pipeline::open(dir.join("pipe.q")).unwrap();

    for round in 0..3i64 {
        let base_a = round * 100;
        let base_b = 1000 + round * 100;
        let mut sa = src_a.session();
        sa.execute(&format!(
            "INSERT INTO parts VALUES ({base_a}, {round}, 'x')"
        ))
        .unwrap();
        if round > 0 {
            sa.execute(&format!(
                "UPDATE parts SET qty = qty + 10 WHERE id = {}",
                base_a - 100
            ))
            .unwrap();
        }
        let mut sb = src_b.session();
        sb.execute(&format!("INSERT INTO parts VALUES ({base_b}, {round})"))
            .unwrap();

        let published = pipe.collect(&src_a, &mut sources_a).unwrap()
            + pipe.collect(&src_b, &mut sources_b).unwrap();
        assert!(published >= 2, "round {round}: both sources published");
        pipe.sync(&wh).unwrap();

        // The summary is exact after every round.
        let v = wh.view("stock").unwrap();
        assert!(
            v.verify_against_recompute(wh.db()).unwrap(),
            "round {round}"
        );
        assert_eq!(
            wh.db().row_count("parts").unwrap(),
            2 * (round as usize + 1),
            "round {round}"
        );
    }
    // Cross-check final totals against both sources.
    let total_wh: i64 = wh
        .db()
        .scan_table("parts")
        .unwrap()
        .iter()
        .map(|(_, r)| r.values()[1].as_int().unwrap())
        .sum();
    let total_src: i64 = [&src_a, &src_b]
        .iter()
        .flat_map(|db| db.scan_table("parts").unwrap())
        .map(|(_, r)| r.values()[1].as_int().unwrap())
        .sum();
    assert_eq!(total_wh, total_src);
}

#[test]
fn op_log_collector_ships_and_clears() {
    let dir = scratch("oplog");
    let src = Database::open(DbOptions::new(dir.join("src"))).unwrap();
    src.session()
        .execute("CREATE TABLE parts (id INT PRIMARY KEY, qty INT)")
        .unwrap();
    let mut cap = OpDeltaCapture::new(src.session(), OpLogSink::Table("op_log".into())).unwrap();
    cap.execute("INSERT INTO parts VALUES (1, 5), (2, 7)")
        .unwrap();
    cap.execute("UPDATE parts SET qty = qty * 2 WHERE qty > 6")
        .unwrap();

    let wh_db = Database::open(DbOptions::new(dir.join("wh"))).unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full("parts", wh_parts_schema()))
        .unwrap();
    let pipe = Pipeline::open(dir.join("pipe.q")).unwrap();

    assert_eq!(pipe.collect_op_log(&src, "op_log").unwrap(), 2);
    assert_eq!(
        src.row_count("op_log").unwrap(),
        0,
        "log cleared after publish"
    );
    pipe.sync(&wh).unwrap();
    let r = wh
        .db()
        .session()
        .execute("SELECT qty FROM parts WHERE id = 2")
        .unwrap();
    assert_eq!(r.rows[0].values()[0], Value::Int(14));
    // Nothing left to ship on a second collect.
    assert_eq!(pipe.collect_op_log(&src, "op_log").unwrap(), 0);
}

#[test]
fn restricting_transform_in_the_collector_path() {
    let dir = scratch("restrict");
    let src = Database::open(DbOptions::new(dir.join("src"))).unwrap();
    src.session()
        .execute("CREATE TABLE parts (id INT PRIMARY KEY, qty INT)")
        .unwrap();
    let mut sources: Vec<(Box<dyn DeltaSource>, Option<DeltaTransform>)> = vec![(
        Box::new(TriggerSource::install(&src, "parts").unwrap()),
        Some(DeltaTransform::new().restrict(parse_expression("qty >= 100").unwrap())),
    )];
    let mut s = src.session();
    s.execute("INSERT INTO parts VALUES (1, 50), (2, 150), (3, 200)")
        .unwrap();

    let wh_db = Database::open(DbOptions::new(dir.join("wh"))).unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full("parts", wh_parts_schema()))
        .unwrap();
    let pipe = Pipeline::open(dir.join("pipe.q")).unwrap();
    pipe.collect(&src, &mut sources).unwrap();
    pipe.sync(&wh).unwrap();
    assert_eq!(
        wh.db().row_count("parts").unwrap(),
        2,
        "only qty >= 100 shipped"
    );

    // A batch whose records are all filtered publishes nothing.
    s.execute("INSERT INTO parts VALUES (4, 1)").unwrap();
    assert_eq!(pipe.collect(&src, &mut sources).unwrap(), 0);
}
