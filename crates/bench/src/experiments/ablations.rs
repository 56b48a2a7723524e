//! Ablations of the design choices DESIGN.md §6 calls out.

use std::ops::ControlFlow;
use std::path::Path;
use std::time::Duration;

use delta_core::model::DeltaOp;
use delta_core::opdelta::{OpDeltaCapture, OpLogSink};
use delta_core::selfmaint::{SelfMaintAnalyzer, WarehouseProfile};
use delta_core::snapshot::{diff_snapshots, DiffAlgorithm};
use delta_core::timestamp::TimestampExtractor;
use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_engine::exec::{choose_access_path, AccessPath, INDEX_SCAN_THRESHOLD};
use delta_sql::parser::parse_expression;
use delta_storage::colbatch::{RowSink, DEFAULT_BLOCK_ROWS};

use crate::report::{fmt_duration, fmt_pct, overhead_pct, TableReport};
use crate::workload::{filler, seed_rows, time_avg, time_once, Scale, SourceBuilder};

/// WAL durability mode vs transaction cost (affects Import, triggers, and
/// every capture mechanism uniformly).
pub fn wal_sync(scale: &Scale) -> TableReport {
    let mut report = TableReport::new(
        "A-WAL",
        "Ablation: WAL durability mode vs insert-transaction cost",
        "None <= Flush <= Fsync; the fsync gap depends on the device (write-cached VM disks may show little)",
        &["wal sync mode", "1000-row insert txn", "relative"],
    );
    let n = scale.rows(1000);
    let b = SourceBuilder::new("ablation-wal");
    let mut base: Option<Duration> = None;
    for (label, mode) in [
        ("None (buffered)", SyncMode::None),
        ("Flush (to OS)", SyncMode::Flush),
        ("Fsync (to disk)", SyncMode::Fsync),
    ] {
        let mut opts = DbOptions::new(b.path(&format!("wal-{label}")));
        opts.wal_sync = mode;
        let db = Database::open(opts).expect("db");
        db.session()
            .execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT, filler VARCHAR)")
            .expect("create");
        let mut next_id = 0usize;
        let t = time_avg(3, |_| {
            seed_rows(&db, "t", next_id, n, |id| {
                format!("({id}, {id}, 0, '{}')", filler(id))
            })
            .expect("insert");
            next_id += n;
        });
        let rel = match base {
            None => {
                base = Some(t);
                "1.0x".to_string()
            }
            Some(b0) => format!("{:.1}x", t.as_secs_f64() / b0.as_secs_f64()),
        };
        report.push_row(vec![label.to_string(), fmt_duration(t), rel]);
    }
    report
}

/// Index vs scan for timestamp extraction across delta fractions — the
/// §3.1.1 optimizer remark, with the engine's threshold visible.
pub fn ts_index(scale: &Scale) -> TableReport {
    let mut report = TableReport::new(
        "A-IDX",
        "Ablation: timestamp extraction with vs without an index on last_modified",
        "index wins at small delta fractions; the optimizer falls back to a scan past the threshold, where the index stops helping",
        &["delta fraction", "no index", "with index", "access path chosen"],
    );
    let rows = scale.rows(10_000);
    let b = SourceBuilder::new("ablation-idx");
    let plain = b.db(false).expect("db");
    b.seeded_ts_table(&plain, "parts", rows).expect("seed");
    let indexed = b.db(false).expect("db");
    b.seeded_ts_table(&indexed, "parts", rows).expect("seed");
    indexed
        .create_index("ts_idx", "parts", "last_modified", false)
        .expect("index");
    report.note(format!(
        "source {rows} rows; engine index threshold {INDEX_SCAN_THRESHOLD}"
    ));
    let x = TimestampExtractor::new("parts", "last_modified");
    let mut small_fraction_speedup = None;
    let mut large_fraction_path_is_scan = false;
    for pct in [1usize, 5, 10, 25, 50] {
        let n = (rows * pct / 100).max(1);
        let (wm_plain, wm_indexed) = (plain.peek_clock(), indexed.peek_clock());
        for db in [&plain, &indexed] {
            db.session()
                .execute(&format!("UPDATE parts SET grp = grp WHERE id < {n}"))
                .expect("touch");
        }
        let t_plain = {
            let (r, t) = time_once(|| x.extract(&plain, wm_plain));
            assert_eq!(r.expect("extract").len(), n);
            t
        };
        let t_indexed = {
            let (r, t) = time_once(|| x.extract(&indexed, wm_indexed));
            assert_eq!(r.expect("extract").len(), n);
            t
        };
        let meta = indexed.table("parts").expect("meta");
        let pred = parse_expression(&format!("last_modified > {wm_indexed}")).unwrap();
        let path = match choose_access_path(&indexed, &meta, Some(&pred)) {
            AccessPath::SeqScan => "seq scan".to_string(),
            AccessPath::IndexRange {
                estimated_fraction, ..
            } => {
                format!("index range (est {:.1}%)", estimated_fraction * 100.0)
            }
        };
        if pct == 1 {
            small_fraction_speedup =
                Some(t_plain.as_secs_f64() / t_indexed.as_secs_f64().max(1e-9));
        }
        if pct == 50 {
            large_fraction_path_is_scan = path.contains("seq scan");
        }
        report.push_row(vec![
            format!("{pct}%"),
            fmt_duration(t_plain),
            fmt_duration(t_indexed),
            path,
        ]);
    }
    report.check(
        "index wins decisively at a 1% delta fraction",
        small_fraction_speedup.unwrap_or(0.0) > 3.0,
    );
    report.check(
        "optimizer abandons the index past the threshold (§3.1.1)",
        large_fraction_path_is_scan,
    );
    report
}

/// `table` dumped in heap order: rows from `for_each_row` through a
/// `RowSink` whose header names no sort key. `take_snapshot` would dump a
/// keyed table in key order and leave no displacement to measure.
fn heap_order_snapshot(db: &Database, table: &str, path: &Path) {
    let mut sink = RowSink::create(path, DEFAULT_BLOCK_ROWS).expect("snapshot file");
    db.for_each_row(table, |_, row| {
        sink.write_row(row)?;
        Ok(ControlFlow::Continue(()))
    })
    .expect("snapshot rows");
    sink.finish().expect("snapshot flush");
}

/// Snapshot-differential algorithm choice, on two heap-order dumps: the
/// churned rows move to the end of the heap, and so of the new dump, which
/// is the displacement that separates the window sizes. (A key-ordered
/// snapshot has none: the sort-merge reads it as one run and a window of
/// any size matches every row, DESIGN.md §30.)
pub fn snapshot_algorithms(scale: &Scale) -> TableReport {
    let mut report = TableReport::new(
        "A-SNAP",
        "Ablation: snapshot differential - sort-merge vs window",
        "window cheaper when displacement is small; tiny windows stay correct but degrade updates into delete+insert pairs",
        &["algorithm", "diff time", "updates found", "delete+insert pairs", "comparisons"],
    );
    let rows = scale.rows(10_000);
    let churn = rows / 20;
    let b = SourceBuilder::new("ablation-snap");
    let db = b.db(false).expect("db");
    b.seeded_ts_table(&db, "parts", rows).expect("seed");
    let old_path = b.path("snap-old.txt");
    heap_order_snapshot(&db, "parts", &old_path);
    // Churn by delete + re-insert with new values: the changed rows move to
    // the end of the new snapshot, giving them maximal displacement — the
    // regime that separates the window sizes.
    db.session()
        .execute(&format!("DELETE FROM parts WHERE id < {churn}"))
        .expect("churn delete");
    crate::workload::seed_rows(&db, "parts", 0, churn, |id| {
        format!("({id}, {}, '{}', NULL)", id + 1_000_000, filler(id))
    })
    .expect("churn reinsert");
    let new_path = b.path("snap-new.txt");
    heap_order_snapshot(&db, "parts", &new_path);
    report.note(format!(
        "{rows}-row heap-order snapshots, {churn} changed rows re-inserted at the end (maximal displacement)"
    ));
    report.note(
        "an overwhelmed window emits identical-content delete+insert pairs (net no-ops): still a correct delta, but it balloons the shipped volume",
    );

    let schema = db.table("parts").expect("meta").schema.clone();
    let mut updates_by_algo = Vec::new();
    for (label, algo) in [
        (
            "sort-merge (runs of 2k)",
            DiffAlgorithm::SortMerge { run_size: 2000 },
        ),
        ("window 1024", DiffAlgorithm::Window { size: 1024 }),
        ("window 4", DiffAlgorithm::Window { size: 4 }),
    ] {
        let (r, t) =
            time_once(|| diff_snapshots("parts", &schema, &[0], &old_path, &new_path, algo));
        let (vd, stats) = r.expect("diff");
        let updates = vd
            .records
            .iter()
            .filter(|r| r.op == DeltaOp::UpdateBefore)
            .count();
        let dels = vd
            .records
            .iter()
            .filter(|r| r.op == DeltaOp::Delete)
            .count();
        updates_by_algo.push((updates, dels));
        report.push_row(vec![
            label.to_string(),
            fmt_duration(t),
            updates.to_string(),
            dels.to_string(),
            stats.comparisons.to_string(),
        ]);
    }
    report.check(
        "sort-merge recognizes every displaced update",
        updates_by_algo[0].0 == churn,
    );
    report.check(
        "an overwhelmed window degrades updates into delete+insert pairs",
        updates_by_algo[2].0 < churn && updates_by_algo[2].1 > updates_by_algo[0].1,
    );
    report
}

/// Pure Op-Delta vs the before-image hybrid: what self-maintainability
/// failures cost at capture time.
pub fn hybrid_capture(scale: &Scale) -> TableReport {
    let mut report = TableReport::new(
        "A-HYB",
        "Ablation: pure Op-Delta vs before-image hybrid capture",
        "hybrid pays an extra pre-image SELECT and ships rows; cost grows with affected rows while pure capture stays flat",
        &["affected rows", "pure op capture", "hybrid capture", "hybrid overhead"],
    );
    let rows = scale.rows(10_000);
    let b = SourceBuilder::new("ablation-hyb");
    report.note(format!(
        "DELETE txns on a {rows}-row table; hybrid forced by predicating on an unmirrored column"
    ));
    for &n in &[10usize, 100, 1000] {
        if n * 4 > rows {
            continue;
        }
        // Pure: predicate on a mirrored column (grp).
        let t_pure = {
            let db = b.db(false).expect("db");
            b.seeded_op_table(&db, "parts", rows).expect("seed");
            let analyzer = SelfMaintAnalyzer::new(
                WarehouseProfile::new().mirror_columns("parts", &["id", "grp", "val", "filler"]),
            );
            let mut cap = OpDeltaCapture::new(db.session(), OpLogSink::Table("op_log".into()))
                .expect("cap")
                .with_analyzer(analyzer);
            time_avg(2, |rep| {
                let a = rep * n;
                cap.execute(&format!(
                    "DELETE FROM parts WHERE grp >= {a} AND grp < {}",
                    a + n
                ))
                .expect("delete");
            })
        };
        // Hybrid: predicate on a column the warehouse does not mirror.
        let t_hybrid = {
            let db = b.db(false).expect("db");
            b.seeded_op_table(&db, "parts", rows).expect("seed");
            let analyzer = SelfMaintAnalyzer::new(
                WarehouseProfile::new().mirror_columns("parts", &["id", "val", "filler"]),
            );
            let mut cap = OpDeltaCapture::new(db.session(), OpLogSink::Table("op_log".into()))
                .expect("cap")
                .with_analyzer(analyzer);
            time_avg(2, |rep| {
                let a = (2 + rep) * n;
                cap.execute(&format!(
                    "DELETE FROM parts WHERE grp >= {a} AND grp < {}",
                    a + n
                ))
                .expect("delete");
            })
        };
        report.push_row(vec![
            n.to_string(),
            fmt_duration(t_pure),
            fmt_duration(t_hybrid),
            fmt_pct(overhead_pct(t_pure, t_hybrid)),
        ]);
    }
    report
}
