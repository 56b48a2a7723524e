//! **Experiment C** — warehouse availability during maintenance.
//!
//! The paper's qualitative claim (§4.1/§5): value-delta batches require the
//! warehouse to be unavailable for the whole integration, while Op-Delta —
//! having preserved source transaction boundaries — interleaves with OLAP
//! queries. We run an OLAP reader pool against the warehouse while each
//! applier integrates the *same* source change set, and report what the
//! readers experienced.

use delta_core::opdelta::{collect_from_table, OpDeltaCapture, OpLogSink};
use delta_core::trigger_extract::TriggerExtractor;
use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_warehouse::apply::{OpDeltaApplier, ValueDeltaApplier, Warehouse};
use delta_warehouse::mirror::MirrorConfig;
use delta_warehouse::olap::OlapDriver;

use crate::report::{fmt_duration, TableReport};
use crate::workload::{filler, op_schema, seed_rows, update_txn_sql, Scale, SourceBuilder};

fn warehouse_with_short_locks(b: &SourceBuilder, name: &str, rows: usize) -> Warehouse {
    let mut opts = DbOptions::new(b.path(name));
    opts.wal_sync = SyncMode::Flush;
    opts.lock_timeout = std::time::Duration::from_millis(75);
    let db = Database::open(opts).expect("warehouse db");
    let mut wh = Warehouse::new(db);
    wh.add_mirror(MirrorConfig::full("parts", op_schema()))
        .expect("mirror");
    seed_rows(wh.db(), "parts", 0, rows, |id| {
        format!("({id}, {id}, 0, '{}')", filler(id))
    })
    .expect("seed");
    wh
}

pub fn run(scale: &Scale) -> TableReport {
    let mut report = TableReport::new(
        "C",
        "Experiment C: OLAP query experience during warehouse maintenance",
        "value-delta batch starves readers (outage: timeouts, huge max latency); Op-Delta interleaves (queries keep completing)",
        &[
            "strategy",
            "maintenance time",
            "queries completed",
            "lock timeouts",
            "mean query latency",
            "max query latency",
        ],
    );
    let rows = scale.rows(5_000);
    let txns = 30usize;
    let per_txn = scale.rows(200);
    report.note(format!(
        "warehouse: {rows}-row mirror, 2 OLAP reader threads (full scans, 75 ms lock budget); workload: {txns} source update txns x {per_txn} rows, shipped as one value-delta batch vs {txns} Op-Deltas"
    ));

    // Source: capture the same workload both ways.
    let b = SourceBuilder::new("expc");
    let src = b.db(false).expect("source");
    b.seeded_op_table(&src, "parts", rows).expect("seed");
    let extractor = TriggerExtractor::new("parts");
    extractor.install(&src).expect("trigger");
    let mut cap =
        OpDeltaCapture::new(src.session(), OpLogSink::Table("op_log".into())).expect("capture");
    for rep in 0..txns {
        cap.execute(&update_txn_sql("parts", (rep * per_txn) as i64, per_txn))
            .expect("txn");
    }
    let value_delta = extractor.drain(&src).expect("drain");
    let op_deltas = collect_from_table(&src, "op_log").expect("collect");

    // Value-delta batch under OLAP load.
    let wh = warehouse_with_short_locks(&b, "wh-value", rows);
    let driver = OlapDriver::new(wh.db().clone(), &["parts"], 2);
    let (result, stats) = driver
        .run_during(|| crate::workload::time_once(|| ValueDeltaApplier::apply(&wh, &value_delta)));
    let (apply_result, t_value) = result;
    apply_result.expect("value apply");
    let value_stats = stats;
    report.push_row(vec![
        "value delta (batch)".into(),
        fmt_duration(t_value),
        value_stats.completed.to_string(),
        value_stats.timeouts.to_string(),
        fmt_duration(value_stats.mean_latency()),
        fmt_duration(value_stats.max_latency),
    ]);

    // Op-Delta stream under OLAP load.
    let wh = warehouse_with_short_locks(&b, "wh-op", rows);
    let driver = OlapDriver::new(wh.db().clone(), &["parts"], 2);
    let (result, stats) = driver
        .run_during(|| crate::workload::time_once(|| OpDeltaApplier::apply_all(&wh, &op_deltas)));
    let (apply_result, t_op) = result;
    apply_result.expect("op apply");
    let op_stats = stats;
    report.push_row(vec![
        "Op-Delta (per source txn)".into(),
        fmt_duration(t_op),
        op_stats.completed.to_string(),
        op_stats.timeouts.to_string(),
        fmt_duration(op_stats.mean_latency()),
        fmt_duration(op_stats.max_latency),
    ]);

    // Rates, not counts: the two maintenance windows differ in length, so
    // a count of completed queries mostly measures the window.
    let per_second = |completed: u64, window: std::time::Duration| {
        completed as f64 / window.as_secs_f64().max(1e-9)
    };
    report.check(
        "readers complete more queries per second of maintenance under Op-Delta",
        per_second(op_stats.completed, t_op) > per_second(value_stats.completed, t_value),
    );
    report.check(
        "Op-Delta maintenance never starves a reader past the lock budget",
        op_stats.timeouts == 0,
    );
    report
}
