//! End-to-end anti-entropy audit and self-healing repair (DESIGN.md §14).
//!
//! The acceptance scenario for the audit subsystem: a warehouse mirror is
//! silently corrupted (flipped rows, a deleted row, a phantom insert) and a
//! poison batch sits in the DLQ, all while live traffic keeps flowing for
//! another table. One [`audit_and_repair`] pass must localize the
//! divergence to bounded key ranges, ship a *scoped* snapshot-differential
//! repair through the normal queue (not a full reload), converge the mirror
//! byte-equal with the source (canonical sorted dump), resolve the
//! superseded DLQ entry, and leave the pipeline fully functional for
//! subsequent live deltas. The repair traffic at 0.1% divergence must cost
//! at most 5% of a full snapshot — the strict gate of experiment A. The
//! same pass settles the audit a log extractor owes once a damaged archived
//! segment lost part of the log.

use std::sync::Arc;

use delta_core::logextract::ResilientLogExtractor;
use delta_core::model::{DeltaBatch, DeltaOp, ValueDelta, ValueDeltaRecord};
use delta_engine::db::{open_temp, Database, DbOptions};
use delta_engine::{EngineError, LogRecord};
use delta_sql::ast::AggFunc;
use delta_storage::{Column, DataType, DiskBudget, Row, Schema, Value};
use delta_warehouse::{
    audit_and_repair, AggSpec, AggViewDef, AuditConfig, JoinCond, MirrorConfig, Pipeline,
    RetryPolicy, SpjView, Warehouse,
};

const TABLE: &str = "accounts";
const SIDE: &str = "side";
const ROWS: i64 = 2000;

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("v", DataType::Int),
        Column::new("note", DataType::Varchar),
    ])
    .unwrap()
}

fn side_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("v", DataType::Int),
    ])
    .unwrap()
}

fn qpath(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "delta-auditrep-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{label}.q"));
    for ext in [
        "q.ack",
        "dlq",
        "dlq.ack",
        "dlq.resolved",
        "audit",
        "audit.ack",
    ] {
        let _ = std::fs::remove_file(p.with_extension(ext));
    }
    let _ = std::fs::remove_file(&p);
    p
}

fn record(op: DeltaOp, id: i64, v: i64) -> ValueDeltaRecord {
    ValueDeltaRecord {
        op,
        txn: 0,
        row: Row::new(vec![
            Value::Int(id),
            Value::Int(v),
            Value::Str(format!("row-{id}")),
        ]),
    }
}

/// Insert `lo..hi` into the source table *and* publish the matching value
/// deltas, keeping both sides of the link in step.
fn seed_rows(s: &mut delta_engine::Session, pipe: &Pipeline, lo: i64, hi: i64) {
    let mut vd = ValueDelta::new(TABLE, schema());
    for id in lo..hi {
        s.execute(&format!(
            "INSERT INTO {TABLE} VALUES ({id}, {}, 'row-{id}')",
            id * 7
        ))
        .unwrap();
        vd.records.push(record(DeltaOp::Insert, id, id * 7));
        if vd.records.len() == 250 {
            pipe.publish(&DeltaBatch::Value(vd)).unwrap();
            vd = ValueDelta::new(TABLE, schema());
        }
    }
    if !vd.records.is_empty() {
        pipe.publish(&DeltaBatch::Value(vd)).unwrap();
    }
}

/// Canonical sorted dump of one table: logical row values only, ordered,
/// so physically different heap layouts compare equal.
fn dump(db: &delta_engine::Database, table: &str) -> Vec<String> {
    let mut rows: Vec<String> = db
        .scan_table(table)
        .unwrap()
        .into_iter()
        .map(|(_, row)| format!("{:?}", row.values()))
        .collect();
    rows.sort();
    rows
}

fn drain(pipe: &Pipeline, wh: &Warehouse) {
    for _ in 0..200 {
        if pipe.queue().pending() == 0 {
            return;
        }
        pipe.sync(wh).unwrap();
    }
    panic!("queue did not drain");
}

#[test]
fn audit_detects_and_repairs_silent_divergence() {
    let source = open_temp("audit-src").unwrap();
    let mut s = source.session();
    s.execute(&format!(
        "CREATE TABLE {TABLE} (id INT PRIMARY KEY, v INT, note VARCHAR)"
    ))
    .unwrap();

    let wh_db = open_temp("audit-wh").unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full(TABLE, schema())).unwrap();
    wh.add_mirror(MirrorConfig::full(SIDE, side_schema()))
        .unwrap();

    let pipe = Pipeline::open(qpath("heal"))
        .unwrap()
        .with_retry(RetryPolicy::quick(2))
        .unwrap();

    // Live traffic: 2000 mirrored rows, fully synced.
    seed_rows(&mut s, &pipe, 0, ROWS);
    drain(&pipe, &wh);
    assert_eq!(wh.db().row_count(TABLE).unwrap(), ROWS as usize);

    // A poison batch for the audited table: re-inserting an existing key
    // violates the mirror's primary key, fails every retry, and lands in
    // the DLQ. The source snapshot already holds this row, so the audit's
    // repair supersedes the entry.
    let mut poison = ValueDelta::new(TABLE, schema());
    poison.records.push(record(DeltaOp::Insert, 5, 35));
    pipe.publish(&DeltaBatch::Value(poison)).unwrap();
    drain(&pipe, &wh);
    assert_eq!(pipe.dlq_entries().unwrap().len(), 1, "poison quarantined");

    // Silent warehouse corruption, 0.1% of rows (2 of 2000): an operator's
    // stray UPDATE and a flipped value — plus one lost row and one phantom,
    // exercising every repair op kind. (4 touched rows is still 0.2%; the
    // strict 0.1% gate is measured by experiment A. Here we assert the same
    // ≤5% bound, which even the 0.2% case must clear by a wide margin.)
    let mut ws = wh.db().session();
    ws.execute(&format!("UPDATE {TABLE} SET v = 999999 WHERE id = 137"))
        .unwrap();
    ws.execute(&format!("UPDATE {TABLE} SET note = 'oops' WHERE id = 1500"))
        .unwrap();
    ws.execute(&format!("DELETE FROM {TABLE} WHERE id = 42"))
        .unwrap();
    ws.execute(&format!("INSERT INTO {TABLE} VALUES (90001, 1, 'phantom')"))
        .unwrap();
    assert_ne!(dump(&source, TABLE), dump(wh.db(), TABLE), "diverged");

    // Pending live traffic at audit time: deltas published but not yet
    // synced (the audit drains them before digesting), and traffic for an
    // unrelated table flowing through the same queue.
    seed_rows(&mut s, &pipe, ROWS, ROWS + 10);
    let mut side = ValueDelta::new(SIDE, side_schema());
    side.records.push(ValueDeltaRecord {
        op: DeltaOp::Insert,
        txn: 0,
        row: Row::new(vec![Value::Int(1), Value::Int(2)]),
    });
    pipe.publish(&DeltaBatch::Value(side)).unwrap();

    let report = audit_and_repair(&source, &pipe, &wh, &[TABLE], &AuditConfig::default()).unwrap();

    // Localization: divergence detected and pinned to a handful of bounded
    // key ranges covering exactly the corrupted keys.
    assert!(report.diverged(), "audit saw the corruption");
    let audit = &report.tables[0];
    assert!(
        !audit.diverged_ranges.is_empty() && audit.diverged_ranges.len() <= 4,
        "divergence localized to at most one range per corrupt key: {:?}",
        audit.diverged_ranges
    );
    for key in [137i64, 1500, 42, 90001] {
        assert!(
            audit.diverged_ranges.iter().any(|r| r.contains(key)),
            "key {key} not covered by {:?}",
            audit.diverged_ranges
        );
    }

    // Convergence: byte-equal canonical dumps, verified digest agreement,
    // and the watermark machinery intact.
    assert!(report.converged(), "post-repair digests agree");
    assert_eq!(dump(&source, TABLE), dump(wh.db(), TABLE), "byte-equal");

    // Scoped repair, not a reload: a few records, and wire cost within the
    // 5% budget of a full snapshot.
    assert!(
        audit.repair_records >= 4 && audit.repair_records <= 64,
        "repair stayed scoped: {} records",
        audit.repair_records
    );
    assert!(report.full_snapshot_bytes > 0);
    assert!(
        report.repair_bytes * 20 <= report.full_snapshot_bytes,
        "repair {} bytes vs snapshot {} bytes exceeds 5%",
        report.repair_bytes,
        report.full_snapshot_bytes
    );

    // Reconciliation: the superseded poison entry is resolved and the DLQ
    // drained; the resolution survives independent inspection.
    assert_eq!(report.dlq_resolved(), 1);
    assert!(pipe.dlq_entries().unwrap().is_empty(), "DLQ reconciled");

    // The pipeline still carries live traffic after the audit.
    seed_rows(&mut s, &pipe, ROWS + 10, ROWS + 20);
    drain(&pipe, &wh);
    assert_eq!(
        dump(&source, TABLE),
        dump(wh.db(), TABLE),
        "live sync resumed"
    );
    assert_eq!(
        wh.db().row_count(SIDE).unwrap(),
        1usize,
        "side traffic applied"
    );
}

#[test]
fn audit_heals_a_mirror_that_has_views() {
    // The mirror is corrupted behind the views' back, so the views still
    // summarise the rows it held before. The repair's before images are the
    // diverged rows: folded into stale views they leave every COUNT/SUM
    // wrong, and the phantom's `-row` asks a group for a row it never
    // counted — the repair batch would be quarantined and the mirror stay
    // diverged.
    const N: i64 = 300;
    let acct = |id: i64, v: i64| ValueDeltaRecord {
        op: DeltaOp::Insert,
        txn: 0,
        row: Row::new(vec![
            Value::Int(id),
            Value::Int(v),
            Value::Str(format!("g{}", id % 5)),
        ]),
    };
    let with_op = |op: DeltaOp, mut rec: ValueDeltaRecord| {
        rec.op = op;
        rec
    };
    let side_row = |id: i64| ValueDeltaRecord {
        op: DeltaOp::Insert,
        txn: 0,
        row: Row::new(vec![Value::Int(id), Value::Int(id + 1)]),
    };
    let source = open_temp("audit-views-src").unwrap();
    let mut s = source.session();
    s.execute(&format!(
        "CREATE TABLE {TABLE} (id INT PRIMARY KEY, v INT, note VARCHAR)"
    ))
    .unwrap();
    let mut wh = Warehouse::new(open_temp("audit-views-wh").unwrap());
    wh.add_mirror(MirrorConfig::full(TABLE, schema())).unwrap();
    wh.add_mirror(MirrorConfig::full(SIDE, side_schema()))
        .unwrap();
    wh.add_view(SpjView {
        name: "acct_side".into(),
        tables: vec![TABLE.into(), SIDE.into()],
        joins: vec![JoinCond::new(TABLE, "id", SIDE, "id")],
        selection: None,
        projection: vec![
            (TABLE.into(), "id".into()),
            (SIDE.into(), "id".into()),
            (TABLE.into(), "v".into()),
        ],
    })
    .unwrap();
    let agg = |name: &str, group_by: &[&str], aggregates: Vec<AggSpec>| AggViewDef {
        name: name.into(),
        table: TABLE.into(),
        group_by: group_by.iter().map(|g| g.to_string()).collect(),
        aggregates,
        selection: None,
    };
    let count_sum = || vec![AggSpec::count_star(), AggSpec::of(AggFunc::Sum, "v")];
    let min_max = vec![
        AggSpec::of(AggFunc::Min, "v"),
        AggSpec::of(AggFunc::Max, "v"),
    ];
    wh.add_agg_view(agg("by_note", &["note"], count_sum()))
        .unwrap();
    wh.add_agg_view(agg("totals", &[], count_sum())).unwrap();
    wh.add_agg_view(agg("extremes", &["note"], min_max))
        .unwrap();
    let views = ["acct_side", "by_note", "totals", "extremes"];
    let assert_views_fresh = |wh: &Warehouse, when: &str| {
        for name in views {
            let view = wh.view(name).unwrap();
            assert!(
                view.verify_against_recompute(wh.db()).unwrap(),
                "'{name}' differs from its recomputation {when}"
            );
        }
    };

    let pipe = Pipeline::open(qpath("views"))
        .unwrap()
        .with_retry(RetryPolicy::quick(2))
        .unwrap();
    let mut vd = ValueDelta::new(TABLE, schema());
    for id in 0..N {
        s.execute(&format!(
            "INSERT INTO {TABLE} VALUES ({id}, {}, 'g{}')",
            id * 7,
            id % 5
        ))
        .unwrap();
        vd.records.push(acct(id, id * 7));
    }
    pipe.publish(&DeltaBatch::Value(vd)).unwrap();
    let mut side = ValueDelta::new(SIDE, side_schema());
    side.records
        .extend([1, 5, 7, 90001].into_iter().map(side_row));
    pipe.publish(&DeltaBatch::Value(side)).unwrap();
    drain(&pipe, &wh);
    assert_views_fresh(&wh, "after the seed");

    // The stray UPDATE (on a group's maximum), the lost row, the phantom.
    let mut ws = wh.db().session();
    ws.execute(&format!("UPDATE {TABLE} SET v = 5 WHERE id = {}", N - 1))
        .unwrap();
    ws.execute(&format!("UPDATE {TABLE} SET v = 999999 WHERE id = 5"))
        .unwrap();
    ws.execute(&format!("DELETE FROM {TABLE} WHERE id = 7"))
        .unwrap();
    ws.execute(&format!("INSERT INTO {TABLE} VALUES (90001, 1, 'phantom')"))
        .unwrap();

    let report = audit_and_repair(&source, &pipe, &wh, &[TABLE], &AuditConfig::default()).unwrap();
    assert!(report.diverged());
    assert!(report.converged(), "post-repair digests agree");
    assert_eq!(dump(&source, TABLE), dump(wh.db(), TABLE), "byte-equal");
    assert!(pipe.dlq_entries().unwrap().is_empty(), "repair applied");
    assert_eq!(report.tables[0].views_rebuilt, 4, "every view was stale");
    assert_views_fresh(&wh, "after the repair");

    // Rebuilding writes each view row once (row 1 held its group's minimum).
    ws.execute(&format!("DELETE FROM {TABLE} WHERE id = 1"))
        .unwrap();
    let from = wh.db().wal().next_lsn();
    assert_eq!(wh.reconcile_views(TABLE).unwrap(), 4);
    let inserts = |table: &str| {
        let log = wh.db().wal().read_from(from).unwrap();
        log.iter()
            .filter(|(_, rec)| {
                matches!(rec, LogRecord::Insert { .. }) && rec.table() == Some(table)
            })
            .count()
    };
    assert_eq!((inserts("by_note"), inserts("totals")), (5, 1));
    assert_eq!(wh.reconcile_views(TABLE).unwrap(), 0, "nothing left to do");
    let again = audit_and_repair(&source, &pipe, &wh, &[TABLE], &AuditConfig::default()).unwrap();
    assert!(again.converged());
    assert_views_fresh(&wh, "after the second repair");

    // Live deltas after the audit fold into the healed views.
    for sql in [
        format!("UPDATE {TABLE} SET v = 1, note = 'g0' WHERE id = 5"),
        format!("DELETE FROM {TABLE} WHERE id = {}", N - 1),
        format!("INSERT INTO {TABLE} VALUES ({N}, 3, 'g9')"),
    ] {
        s.execute(&sql).unwrap();
    }
    let mut live = ValueDelta::new(TABLE, schema());
    live.records.extend([
        with_op(DeltaOp::UpdateBefore, acct(5, 35)),
        ValueDeltaRecord {
            op: DeltaOp::UpdateAfter,
            txn: 0,
            row: Row::new(vec![Value::Int(5), Value::Int(1), Value::Str("g0".into())]),
        },
        with_op(DeltaOp::Delete, acct(N - 1, (N - 1) * 7)),
        ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 0,
            row: Row::new(vec![Value::Int(N), Value::Int(3), Value::Str("g9".into())]),
        },
    ]);
    pipe.publish(&DeltaBatch::Value(live)).unwrap();
    drain(&pipe, &wh);
    assert_eq!(dump(&source, TABLE), dump(wh.db(), TABLE), "live sync");
    assert_views_fresh(&wh, "after live traffic");
    assert!(pipe.dlq_entries().unwrap().is_empty());
}

#[test]
fn audit_of_consistent_table_is_a_cheap_noop() {
    let source = open_temp("audit-noop-src").unwrap();
    let mut s = source.session();
    s.execute(&format!(
        "CREATE TABLE {TABLE} (id INT PRIMARY KEY, v INT, note VARCHAR)"
    ))
    .unwrap();
    let wh_db = open_temp("audit-noop-wh").unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full(TABLE, schema())).unwrap();
    let pipe = Pipeline::open(qpath("noop")).unwrap();
    seed_rows(&mut s, &pipe, 0, 500);
    drain(&pipe, &wh);

    let report = audit_and_repair(&source, &pipe, &wh, &[TABLE], &AuditConfig::default()).unwrap();
    assert!(!report.diverged());
    assert!(report.converged());
    assert_eq!(report.repair_bytes, 0);
    assert_eq!(report.repair_records(), 0);
    assert!(report.digest_bytes > 0, "digest still shipped");
    // Digest traffic is O(target_leaves), independent of table size — a
    // few KB no matter how much data it summarizes.
    assert!(
        report.digest_bytes < 8 * 1024,
        "digest unexpectedly large: {} bytes",
        report.digest_bytes
    );
}

#[test]
fn main_queue_ack_watermark_survives_an_audit_and_restart() {
    // Regression: the audit side channel (`<q>.audit`) must keep its own
    // ack file. When it shared `<q>.ack` with the main queue, acking the
    // digest frame clobbered the main watermark, and a restarted consumer
    // redelivered the entire queue history.
    let source = open_temp("audit-ack-src").unwrap();
    let mut s = source.session();
    s.execute(&format!(
        "CREATE TABLE {TABLE} (id INT PRIMARY KEY, v INT, note VARCHAR)"
    ))
    .unwrap();
    let wh_db = open_temp("audit-ack-wh").unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full(TABLE, schema())).unwrap();
    let qp = qpath("ackwm");
    let pipe = Pipeline::open(&qp).unwrap();
    seed_rows(&mut s, &pipe, 0, 500);
    drain(&pipe, &wh);
    let acked_before = pipe.queue().acked();
    assert!(acked_before > 0);

    let report = audit_and_repair(&source, &pipe, &wh, &[TABLE], &AuditConfig::default()).unwrap();
    assert!(report.converged());
    assert_eq!(
        pipe.queue().acked(),
        acked_before,
        "audit left the main watermark alone"
    );

    // A consumer restart must see the durable watermark intact and have
    // nothing to redeliver.
    drop(pipe);
    let reopened = Pipeline::open(&qp).unwrap();
    assert_eq!(
        reopened.queue().acked(),
        acked_before,
        "durable ack watermark survived the audit"
    );
    assert_eq!(reopened.queue().pending(), 0, "no redelivery after restart");
    let sync = reopened.sync(&wh).unwrap();
    assert_eq!(sync.batches, 0, "nothing to re-apply");
}

#[test]
fn stale_leftover_audit_frame_is_discarded() {
    // A prior audit that crashed between enqueue and ack leaves its digest
    // unacked on the audit channel; the next exchange must not compare the
    // warehouse against that stale frame.
    let source = open_temp("audit-stale-src").unwrap();
    let mut s = source.session();
    s.execute(&format!(
        "CREATE TABLE {TABLE} (id INT PRIMARY KEY, v INT, note VARCHAR)"
    ))
    .unwrap();
    let wh_db = open_temp("audit-stale-wh").unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full(TABLE, schema())).unwrap();
    let pipe = Pipeline::open(qpath("stale")).unwrap();
    seed_rows(&mut s, &pipe, 0, 200);
    drain(&pipe, &wh);

    // Simulate the crashed audit: a digest for a different table (and one
    // undecodable frame) sit enqueued but never acked.
    let leftover = delta_core::digest::DigestBuilder::new(
        "other_table",
        0,
        delta_core::digest::DigestParams::with_span(1),
    )
    .finish();
    let audit_q = pipe.audit_queue().unwrap();
    audit_q.enqueue(&leftover.encode()).unwrap();
    audit_q
        .enqueue(b"torn garbage from a crashed audit")
        .unwrap();

    let report = audit_and_repair(&source, &pipe, &wh, &[TABLE], &AuditConfig::default()).unwrap();
    assert!(
        !report.diverged(),
        "fresh digest exchanged, not the stale one"
    );
    assert!(report.converged());
}

#[test]
fn dlq_drain_api_lists_requeues_and_resolves() {
    let source = open_temp("dlq-api-src").unwrap();
    let mut s = source.session();
    s.execute(&format!(
        "CREATE TABLE {TABLE} (id INT PRIMARY KEY, v INT, note VARCHAR)"
    ))
    .unwrap();
    let wh_db = open_temp("dlq-api-wh").unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full(TABLE, schema())).unwrap();
    let pipe = Pipeline::open(qpath("dlqapi"))
        .unwrap()
        .with_retry(RetryPolicy::quick(2))
        .unwrap();
    seed_rows(&mut s, &pipe, 0, 20);
    drain(&pipe, &wh);

    // Two poison batches (duplicate keys), quarantined independently.
    for id in [3i64, 7] {
        let mut vd = ValueDelta::new(TABLE, schema());
        vd.records.push(record(DeltaOp::Insert, id, 0));
        pipe.publish(&DeltaBatch::Value(vd)).unwrap();
    }
    drain(&pipe, &wh);
    let entries = pipe.dlq_entries().unwrap();
    assert_eq!(entries.len(), 2);
    assert!(!entries[0].error.is_empty(), "apply error recorded");

    // Resolving one hides it from the drain view but keeps the evidence.
    assert!(pipe.resolve_dlq(entries[0].index).unwrap());
    assert!(!pipe.resolve_dlq(entries[0].index).unwrap(), "idempotent");
    assert_eq!(pipe.dlq_entries().unwrap().len(), 1);
    assert_eq!(pipe.quarantined().unwrap().len(), 2, "raw DLQ untouched");

    // Requeueing replays the payload through the normal queue. The
    // duplicate key now fails again and re-quarantines under a fresh
    // sequence — proof the full retry/DLQ machinery handled the replay.
    let old = entries[1].index;
    let new_seq = pipe.requeue_dlq(old).unwrap().expect("entry existed");
    assert!(new_seq > old);
    drain(&pipe, &wh);
    let after = pipe.dlq_entries().unwrap();
    assert_eq!(
        after.len(),
        1,
        "replayed batch re-quarantined, old resolved"
    );
    assert_eq!(after[0].index, new_seq);
    assert_eq!(after[0].payload, entries[1].payload, "payload preserved");

    // Requeueing a resolved/unknown entry is a no-op.
    assert!(pipe.requeue_dlq(old).unwrap().is_none());
    assert!(pipe.requeue_dlq(999_999).unwrap().is_none());
}

#[test]
fn audit_leaves_no_scratch_file_when_the_warehouse_denies_its_snapshot() {
    let source = open_temp("audit-full-src").unwrap();
    let mut s = source.session();
    s.execute(&format!(
        "CREATE TABLE {TABLE} (id INT PRIMARY KEY, v INT, note VARCHAR)"
    ))
    .unwrap();
    let dir = std::env::temp_dir().join(format!(
        "delta-auditrep-full-wh-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let budget = Arc::new(DiskBudget::unlimited());
    let wh_db = Database::open(DbOptions::new(&dir).disk_budget(Arc::clone(&budget))).unwrap();
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full(TABLE, schema())).unwrap();
    let pipe = Pipeline::open(qpath("full")).unwrap();
    seed_rows(&mut s, &pipe, 0, 300);
    drain(&pipe, &wh);
    // A lost row makes the audit snapshot the warehouse, which has no room.
    wh.db()
        .session()
        .execute(&format!("DELETE FROM {TABLE} WHERE id = 17"))
        .unwrap();
    budget.set_global(Some(0));

    let err = audit_and_repair(&source, &pipe, &wh, &[TABLE], &AuditConfig::default())
        .expect_err("the warehouse snapshot cannot be written");
    assert!(
        matches!(&err, EngineError::Storage(e) if e.is_disk_full()),
        "{err}"
    );
    let scratch = std::env::temp_dir().join(format!(
        "delta-audit-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    assert!(!scratch.exists(), "audit scratch left behind: {scratch:?}");

    // With room again, the same audit converges.
    budget.set_global(None);
    let report = audit_and_repair(&source, &pipe, &wh, &[TABLE], &AuditConfig::default()).unwrap();
    assert!(report.diverged() && report.converged());
    assert_eq!(dump(&source, TABLE), dump(wh.db(), TABLE));
    assert!(!scratch.exists());
}

#[test]
fn a_quarantined_segment_is_settled_by_an_audit_and_the_log_resumes() {
    // The whole lost-log path: a damaged archived segment fails
    // `Pipeline::ship` with the typed audit-owed error, one audit pass
    // converges the mirrors and the views, `audited` moves the extractor to
    // the log head, and the next round ships from the log again.
    let src_dir = std::env::temp_dir().join(format!(
        "delta-auditrep-owed-src-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&src_dir);
    let source = Database::open(DbOptions::new(&src_dir).archive(true)).unwrap();
    let mut s = source.session();
    s.execute(&format!(
        "CREATE TABLE {TABLE} (id INT PRIMARY KEY, v INT, note VARCHAR)"
    ))
    .unwrap();
    s.execute(&format!("CREATE TABLE {SIDE} (id INT PRIMARY KEY, v INT)"))
        .unwrap();

    let mut wh = Warehouse::new(open_temp("audit-owed-wh").unwrap());
    wh.add_mirror(MirrorConfig::full(TABLE, schema())).unwrap();
    wh.add_mirror(MirrorConfig::full(SIDE, side_schema()))
        .unwrap();
    wh.add_view(SpjView {
        name: "acct_side".into(),
        tables: vec![TABLE.into(), SIDE.into()],
        joins: vec![JoinCond::new(TABLE, "id", SIDE, "id")],
        selection: None,
        projection: vec![
            (TABLE.into(), "id".into()),
            (SIDE.into(), "id".into()),
            (SIDE.into(), "v".into()),
            (TABLE.into(), "v".into()),
        ],
    })
    .unwrap();
    wh.add_agg_view(AggViewDef {
        name: "by_note".into(),
        table: TABLE.into(),
        group_by: vec!["note".into()],
        aggregates: vec![
            AggSpec::count_star(),
            AggSpec::of(AggFunc::Sum, "v"),
            AggSpec::of(AggFunc::Max, "v"),
        ],
        selection: None,
    })
    .unwrap();
    let converged = |wh: &Warehouse, when: &str| {
        for t in [TABLE, SIDE] {
            assert_eq!(dump(&source, t), dump(wh.db(), t), "{t} {when}");
        }
        for name in ["acct_side", "by_note"] {
            let view = wh.view(name).unwrap();
            assert!(
                view.verify_against_recompute(wh.db()).unwrap(),
                "'{name}' differs from its recomputation {when}"
            );
        }
    };
    let pipe = Pipeline::open(qpath("owed"))
        .unwrap()
        .with_retry(RetryPolicy::quick(2))
        .unwrap();
    let mut x = ResilientLogExtractor::new("unused", &[TABLE, SIDE]).unwrap();

    for id in 0..200 {
        s.execute(&format!(
            "INSERT INTO {TABLE} VALUES ({id}, {}, 'g{}')",
            id * 7,
            id % 5
        ))
        .unwrap();
    }
    s.execute(&format!(
        "INSERT INTO {SIDE} VALUES (1, 10), (5, 50), (9, 90)"
    ))
    .unwrap();
    assert!(pipe.ship(&source, &mut x).unwrap().published > 0);
    drain(&pipe, &wh);
    converged(&wh, "after the first round");

    // Changes the warehouse has not seen go into a segment that is archived
    // and then damaged.
    for sql in [
        format!("UPDATE {TABLE} SET v = 1 WHERE id < 20"),
        format!("DELETE FROM {TABLE} WHERE id >= 190"),
        format!("INSERT INTO {TABLE} VALUES (500, 3, 'g9')"),
        format!("UPDATE {SIDE} SET v = 11 WHERE id = 1"),
        format!("DELETE FROM {SIDE} WHERE id = 9"),
    ] {
        s.execute(&sql).unwrap();
    }
    source.checkpoint().unwrap();
    let archived = source.wal().archived_segments().unwrap();
    let victim = archived.last().unwrap();
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(victim, bytes).unwrap();

    let owed = match pipe.ship(&source, &mut x) {
        Err(EngineError::AuditOwed { tables, segments }) => {
            assert_eq!(segments.len(), 1);
            assert!(segments[0].exists(), "moved aside, kept as evidence");
            tables
        }
        other => panic!("expected an owed audit, got {other:?}"),
    };
    assert_eq!(owed, [TABLE, SIDE]);
    assert!(
        matches!(
            pipe.ship(&source, &mut x),
            Err(EngineError::AuditOwed { .. })
        ),
        "owed until audited"
    );
    assert_eq!(pipe.queue().pending(), 0, "nothing shipped past the gap");

    let tables: Vec<&str> = owed.iter().map(String::as_str).collect();
    let report = audit_and_repair(&source, &pipe, &wh, &tables, &AuditConfig::default()).unwrap();
    assert!(report.diverged() && report.converged());
    x.audited(&source);
    converged(&wh, "after the audit");

    // The next round comes from the log, with transaction context.
    s.execute(&format!(
        "UPDATE {TABLE} SET v = 2, note = 'g0' WHERE id = 5"
    ))
    .unwrap();
    s.execute(&format!("INSERT INTO {SIDE} VALUES (5000, 1)"))
        .unwrap();
    let staged = x.stage(&source).unwrap();
    assert!(!staged.coalesced);
    assert_eq!(staged.outcome.deltas.len(), 2);
    assert!(staged.outcome.deltas.iter().all(|d| d.has_txn_context()));
    drop(staged);
    assert!(pipe.ship(&source, &mut x).unwrap().published > 0);
    drain(&pipe, &wh);
    converged(&wh, "after the next round");
    assert!(pipe.dlq_entries().unwrap().is_empty());
}

#[test]
fn a_segment_the_scrubber_quarantines_first_still_owes_an_audit() {
    // The scrubber, not the extractor, finds the damaged segment and moves
    // it aside as `*.wal.corrupt`. The extractor has not read it yet, so
    // the changes it held are lost to the log: the next stage owes an audit
    // naming that file, instead of shipping a round with a silent gap.
    let src_dir = std::env::temp_dir().join(format!(
        "delta-auditrep-scrub-src-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&src_dir);
    let source = Database::open(DbOptions::new(&src_dir).archive(true)).unwrap();
    let mut s = source.session();
    s.execute(&format!(
        "CREATE TABLE {TABLE} (id INT PRIMARY KEY, v INT, note VARCHAR)"
    ))
    .unwrap();
    let mut wh = Warehouse::new(open_temp("audit-scrub-wh").unwrap());
    wh.add_mirror(MirrorConfig::full(TABLE, schema())).unwrap();
    let pipe = Pipeline::open(qpath("scrub")).unwrap();
    let mut x = ResilientLogExtractor::new("unused", &[TABLE]).unwrap();

    for id in 0..100 {
        s.execute(&format!("INSERT INTO {TABLE} VALUES ({id}, {id}, 'n')"))
            .unwrap();
    }
    assert!(pipe.ship(&source, &mut x).unwrap().published > 0);
    drain(&pipe, &wh);
    assert_eq!(dump(&source, TABLE), dump(wh.db(), TABLE));

    // Unseen changes go into segment k, which is archived, damaged and
    // quarantined by the scrubber before any round reads it.
    s.execute(&format!("UPDATE {TABLE} SET v = 0 WHERE id < 10"))
        .unwrap();
    s.execute(&format!("DELETE FROM {TABLE} WHERE id >= 90"))
        .unwrap();
    source.checkpoint().unwrap();
    let victim = source.wal().archived_segments().unwrap().pop().unwrap();
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&victim, bytes).unwrap();
    let report = delta_engine::scrub_database(&source).unwrap();
    assert_eq!(report.wal_segments_corrupt, 1);
    assert_eq!(report.quarantined, [victim.with_extension("wal.corrupt")]);
    let aside = report.quarantined[0].clone();

    s.execute(&format!("INSERT INTO {TABLE} VALUES (500, 5, 'late')"))
        .unwrap();
    source.checkpoint().unwrap();
    match x.stage(&source) {
        Err(EngineError::AuditOwed { tables, segments }) => {
            assert_eq!(tables, [TABLE]);
            assert_eq!(segments, [aside]);
        }
        other => panic!("expected an owed audit, got {other:?}"),
    }
    assert!(matches!(
        pipe.ship(&source, &mut x),
        Err(EngineError::AuditOwed { .. })
    ));
    assert_eq!(pipe.queue().pending(), 0, "nothing shipped past the gap");

    let report = audit_and_repair(&source, &pipe, &wh, &[TABLE], &AuditConfig::default()).unwrap();
    assert!(report.diverged() && report.converged());
    x.audited(&source);
    assert_eq!(dump(&source, TABLE), dump(wh.db(), TABLE));

    // The next round comes from the log again.
    s.execute(&format!("UPDATE {TABLE} SET v = 7 WHERE id = 50"))
        .unwrap();
    let staged = x.stage(&source).unwrap();
    assert!(!staged.coalesced);
    assert_eq!(staged.outcome.deltas.len(), 1);
    assert!(staged.outcome.deltas[0].has_txn_context());
    drop(staged);
    assert!(pipe.ship(&source, &mut x).unwrap().published > 0);
    drain(&pipe, &wh);
    assert_eq!(dump(&source, TABLE), dump(wh.db(), TABLE));
    let _ = std::fs::remove_dir_all(&src_dir);
}
