//! Crash-safety of the batched sync protocol.
//!
//! `Pipeline::sync` acknowledges a run only after its apply transaction
//! commits, so the dangerous window is *between* commit and ack: a crash
//! there re-delivers batches whose effects are already in the warehouse.
//! This test simulates exactly that window — apply a run directly, never
//! ack, drop the pipeline — then reopens the queue and verifies the
//! redelivered run converges: keyed deletes hit zero rows, updates net to
//! zero in the aggregate view, and nothing is lost or double-counted.

use std::mem::ManuallyDrop;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use delta_core::model::{DeltaBatch, DeltaOp, ValueDelta, ValueDeltaRecord};
use delta_engine::db::{open_temp, Database, DbOptions, SyncMode};
use delta_sql::ast::AggFunc;
use delta_storage::fault::{FaultInjector, FaultPlan};
use delta_storage::{Column, DataType, Row, Schema, Value};
use delta_warehouse::{
    AggSpec, AggViewDef, MirrorConfig, Pipeline, SyncReport, ValueDeltaApplier, View, Warehouse,
};

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("v", DataType::Int),
    ])
    .unwrap()
}

fn qpath(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "delta-crash-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{label}.q"));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(delta_transport::PersistentQueue::ack_file(&p));
    p
}

/// A warehouse with a full mirror of `t` and a global summary view
/// (count + sum of `v`) so double-applied deltas would show up as a
/// wrong count or sum even when the mirror itself converges.
fn warehouse(label: &str) -> Warehouse {
    let db = open_temp(label).unwrap();
    let mut wh = Warehouse::new(db);
    wh.add_mirror(MirrorConfig::full("t", schema())).unwrap();
    wh.add_agg_view(AggViewDef {
        name: "t_totals".into(),
        table: "t".into(),
        group_by: vec![],
        aggregates: vec![AggSpec::count_star(), AggSpec::of(AggFunc::Sum, "v")],
        selection: None,
    })
    .unwrap();
    wh
}

fn record(op: DeltaOp, id: i64, v: i64) -> ValueDeltaRecord {
    ValueDeltaRecord {
        op,
        txn: 0,
        row: Row::new(vec![Value::Int(id), Value::Int(v)]),
    }
}

fn batch(records: Vec<ValueDeltaRecord>) -> ValueDelta {
    let mut vd = ValueDelta::new("t", schema());
    vd.records = records;
    vd
}

/// (count, sum) from the global summary row.
fn totals(wh: &Warehouse) -> (Value, Value) {
    let view = wh.view("t_totals").unwrap();
    let rows = view.visible_rows(wh.db()).unwrap();
    assert_eq!(rows.len(), 1, "global summary is a single row");
    (rows[0].values()[0].clone(), rows[0].values()[1].clone())
}

fn sorted_ids(wh: &Warehouse) -> Vec<Value> {
    let mut ids: Vec<Value> = wh
        .db()
        .scan_table("t")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r.values()[0].clone())
        .collect();
    ids.sort_by(|a, b| a.total_cmp(b));
    ids
}

#[test]
fn redelivered_run_after_crash_between_commit_and_ack_converges() {
    let wh = warehouse("crash1");
    let path = qpath("crash1");

    // Phase 1: a synced baseline — four inserts, fully acknowledged.
    {
        let pipe = Pipeline::open(&path).unwrap();
        for id in 1..=4 {
            pipe.publish(&DeltaBatch::Value(batch(vec![record(
                DeltaOp::Insert,
                id,
                10 * id,
            )])))
            .unwrap();
        }
        let report = pipe.sync(&wh).unwrap();
        assert_eq!(report.batches, 4);
        assert_eq!(pipe.queue().acked(), 4);
        assert_eq!(totals(&wh), (Value::Int(4), Value::Int(100)));

        // Phase 2: publish an update run and apply it exactly as `sync`
        // would (one transaction for the consecutive same-table batches) —
        // but "crash" before the ack, leaving the run deliverable.
        //
        // Only updates and deletes here: those are the shapes whose replay
        // must be absorbed (a replayed plain insert is a duplicate key,
        // which sync correctly surfaces as an error instead of hiding).
        let upd = batch(vec![
            record(DeltaOp::UpdateBefore, 1, 10),
            record(DeltaOp::UpdateAfter, 1, 110),
        ]);
        let del = batch(vec![record(DeltaOp::Delete, 2, 20)]);
        pipe.publish(&DeltaBatch::Value(upd.clone())).unwrap();
        pipe.publish(&DeltaBatch::Value(del.clone())).unwrap();
        let applied = ValueDeltaApplier::apply_run(&wh, &[&upd, &del]).unwrap();
        assert_eq!(applied.transactions, 1);
        assert_eq!(
            pipe.queue().acked(),
            4,
            "the crash window: applied, not acked"
        );
        // `pipe` dropped here: the process dies with two unacked batches.
    }

    // The apply did commit — the warehouse already shows the new state.
    assert_eq!(totals(&wh), (Value::Int(3), Value::Int(180)));

    // Phase 3: restart. The reopened queue rewinds its cursor to the ack
    // watermark, so the already-applied run is delivered again.
    let pipe = Pipeline::open(&path).unwrap();
    assert_eq!(pipe.queue().pending(), 2, "unacked suffix is redelivered");
    let report = pipe.sync(&wh).unwrap();
    assert_eq!(report.batches, 2);
    assert_eq!(
        report.runs, 1,
        "consecutive same-table batches stay one run"
    );

    // Convergence: the keyed update re-sets row 1 to the value it already
    // has, the keyed delete of row 2 hits nothing. Mirror and summary both
    // end exactly where the single application left them.
    assert_eq!(
        sorted_ids(&wh),
        vec![Value::Int(1), Value::Int(3), Value::Int(4)]
    );
    let v1 = wh
        .db()
        .scan_table("t")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .find(|r| r.values()[0] == Value::Int(1))
        .unwrap();
    assert_eq!(v1.values()[1], Value::Int(110));
    assert_eq!(totals(&wh), (Value::Int(3), Value::Int(180)));
    let view = wh.view("t_totals").unwrap();
    assert!(
        view.verify_against_recompute(wh.db()).unwrap(),
        "summary table must match a from-scratch recompute after redelivery"
    );

    // Everything acknowledged; a further sync is a no-op.
    assert_eq!(pipe.queue().acked(), 6);
    assert_eq!(pipe.queue().pending(), 0);
    assert_eq!(pipe.sync(&wh).unwrap(), SyncReport::default());
}

#[test]
fn partially_acked_run_redelivers_only_the_unacked_suffix() {
    // A crash can also land between two groups of one sync: the first
    // group acked, the second applied-but-unacked. Reopening must replay
    // only the suffix.
    let wh = warehouse("crash2");
    let path = qpath("crash2");
    {
        let pipe = Pipeline::open(&path).unwrap();
        for id in 1..=3 {
            pipe.publish(&DeltaBatch::Value(batch(vec![record(
                DeltaOp::Insert,
                id,
                id,
            )])))
            .unwrap();
        }
        pipe.sync(&wh).unwrap();

        // Group A (acked): update id=1 → 5. Group B (crash window).
        let a = batch(vec![
            record(DeltaOp::UpdateBefore, 1, 1),
            record(DeltaOp::UpdateAfter, 1, 5),
        ]);
        pipe.publish(&DeltaBatch::Value(a.clone())).unwrap();
        let pipe = pipe.with_batch_size(1); // force one group per batch
        let report = pipe.sync(&wh).unwrap();
        assert_eq!((report.batches, report.runs), (1, 1));
        assert_eq!(pipe.queue().acked(), 4);

        let b = batch(vec![record(DeltaOp::Delete, 3, 3)]);
        pipe.publish(&DeltaBatch::Value(b.clone())).unwrap();
        ValueDeltaApplier::apply(&wh, &b).unwrap();
        // Crash: group B committed, never acked.
    }

    let pipe = Pipeline::open(&path).unwrap();
    assert_eq!(pipe.queue().pending(), 1, "only group B comes back");
    let report = pipe.sync(&wh).unwrap();
    assert_eq!(report.batches, 1);

    assert_eq!(sorted_ids(&wh), vec![Value::Int(1), Value::Int(2)]);
    assert_eq!(totals(&wh), (Value::Int(2), Value::Int(7)));
    let view = wh.view("t_totals").unwrap();
    assert!(view.verify_against_recompute(wh.db()).unwrap());
    assert_eq!(pipe.queue().pending(), 0);
}

// ---------------------------------------------------------------------
// Crashes around the direct value apply (what `sync` runs)
// ---------------------------------------------------------------------

/// A grouped view over `t`: rows sharing a value of `v` share a group.
fn by_value_view() -> AggViewDef {
    AggViewDef {
        name: "t_by_v".into(),
        table: "t".into(),
        group_by: vec!["v".into()],
        aggregates: vec![AggSpec::count_star(), AggSpec::of(AggFunc::Max, "id")],
        selection: None,
    }
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "delta-crash-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Open (or reopen) the warehouse under `dir`: mirror of `t`, the global
/// totals and a grouped view. `None` if the injector killed the open.
fn warehouse_at(dir: &Path, faults: Option<Arc<FaultInjector>>) -> Option<Warehouse> {
    // Commits reach the OS, so a leaked (crashed) life keeps them.
    let mut opts = DbOptions::new(dir.join("wh")).sync(SyncMode::Flush);
    if let Some(inj) = faults {
        opts = opts.faults(inj);
    }
    let mut wh = Warehouse::new(Database::open(opts).ok()?);
    wh.add_mirror(MirrorConfig::full("t", schema())).ok()?;
    wh.add_agg_view(AggViewDef {
        name: "t_totals".into(),
        table: "t".into(),
        group_by: vec![],
        aggregates: vec![AggSpec::count_star(), AggSpec::of(AggFunc::Sum, "v")],
        selection: None,
    })
    .ok()?;
    wh.add_agg_view(by_value_view()).ok()?;
    Some(wh)
}

/// Every table of `db` as sorted encoded rows.
fn dump(db: &Database) -> Vec<(String, Vec<Vec<u8>>)> {
    let mut names = db.table_names();
    names.sort();
    names
        .into_iter()
        .map(|t| {
            let mut rows: Vec<Vec<u8>> = db
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

/// The run under test: an in-place update, a delete that empties the group
/// `v = 30`, a key change, an insert and a delete of a key never seen.
fn churn_run() -> Vec<ValueDelta> {
    vec![
        batch(vec![
            record(DeltaOp::UpdateBefore, 1, 10),
            record(DeltaOp::UpdateAfter, 1, 20),
            record(DeltaOp::Delete, 3, 30),
        ]),
        batch(vec![
            record(DeltaOp::UpdateBefore, 4, 40),
            record(DeltaOp::UpdateAfter, 9, 40),
            record(DeltaOp::Insert, 5, 20),
            record(DeltaOp::Delete, 77, 0),
        ]),
    ]
}

fn assert_churn_applied(wh: &Warehouse) {
    assert_eq!(
        sorted_ids(wh),
        [1, 2, 5, 9].map(Value::Int).to_vec(),
        "mirror after the run"
    );
    assert_eq!(totals(wh), (Value::Int(4), Value::Int(100)));
    for name in ["t_totals", "t_by_v"] {
        let view = wh.view(name).unwrap();
        assert!(view.verify_against_recompute(wh.db()).unwrap(), "{name}");
    }
}

#[test]
fn crash_inside_a_direct_run_recovers_the_pre_run_state_and_redelivery_converges() {
    // Walk a torn write over every page-file or WAL write of one life of
    // the warehouse. Lives in which it tears the run's own commit are the
    // ones under test: the run's records reach the log without their
    // commit, so the reopened warehouse must show the pre-run state, and
    // the redelivered run must then apply exactly once.
    let mut torn_runs = 0;
    for at in 0u64.. {
        let dir = scratch(&format!("direct-{at}"));
        let path = dir.join("ship.q");
        // Life 1, clean: a synced baseline, then the run is published.
        let before = {
            let wh = warehouse_at(&dir, None).unwrap();
            let pipe = Pipeline::open(&path).unwrap().with_sync_workers(1);
            for id in 1..=4 {
                pipe.publish(&DeltaBatch::Value(batch(vec![record(
                    DeltaOp::Insert,
                    id,
                    10 * id,
                )])))
                .unwrap();
            }
            pipe.sync(&wh).unwrap();
            for vd in churn_run() {
                pipe.publish(&DeltaBatch::Value(vd)).unwrap();
            }
            dump(wh.db())
        };
        // Life 2: the `at`-th write keeps 90 bytes and fails.
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(at).torn_write(at, 90)));
        let opened = warehouse_at(&dir, Some(inj.clone()));
        let fired_before_sync = inj.stats().injected > 0;
        let synced = opened.as_ref().map(|wh| {
            let pipe = Pipeline::open(&path).unwrap().with_sync_workers(1);
            pipe.sync(wh)
        });
        let fired = inj.stats().injected > 0;
        // Crash: whatever this life held in memory is gone.
        let _leaked = ManuallyDrop::new(opened);
        if !fired {
            // The walk has passed the last write of a whole clean life.
            assert!(matches!(synced, Some(Ok(_))));
            break;
        }
        // Life 3, clean: recovery, then redelivery of whatever is unacked.
        let wh = warehouse_at(&dir, None).unwrap();
        if !fired_before_sync {
            assert!(
                matches!(synced, Some(Err(_))),
                "a torn commit fails the sync"
            );
            assert_eq!(dump(wh.db()), before, "write {at}: pre-run state");
            torn_runs += 1;
        }
        let pipe = Pipeline::open(&path).unwrap().with_sync_workers(1);
        pipe.sync(&wh).unwrap();
        assert_churn_applied(&wh);
        assert_eq!(pipe.queue().pending(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(torn_runs >= 1, "no write of the run's commit was torn");
}

#[test]
fn reopening_after_a_committed_group_emptying_run_finds_no_phantom_group() {
    // The view table has no key, so redo finds the row a `Delete` record
    // removed by its full before image — which therefore has to be the row
    // as it was stored, not the row folded down to `__rows = 0`.
    let dir = scratch("phantom");
    let path = dir.join("ship.q");
    {
        let wh = warehouse_at(&dir, None).unwrap();
        let pipe = Pipeline::open(&path).unwrap().with_sync_workers(1);
        for id in 1..=4 {
            pipe.publish(&DeltaBatch::Value(batch(vec![record(
                DeltaOp::Insert,
                id,
                10 * id,
            )])))
            .unwrap();
        }
        for vd in churn_run() {
            pipe.publish(&DeltaBatch::Value(vd)).unwrap();
        }
        pipe.sync(&wh).unwrap();
        assert_churn_applied(&wh);
        // Crash after the commit: nothing flushed, the log has it all.
        let _leaked = ManuallyDrop::new(wh);
    }
    // Recovery alone, without the refresh `add_agg_view` would run.
    let db = Database::open(DbOptions::new(dir.join("wh"))).unwrap();
    assert_eq!(db.row_count("t").unwrap(), 4, "the log was replayed");
    let view = View::compile(&db, by_value_view()).unwrap();
    let groups: Vec<Value> = view
        .visible_rows(&db)
        .unwrap()
        .iter()
        .map(|r| r.values()[0].clone())
        .collect();
    assert_eq!(
        groups,
        [20, 40].map(Value::Int).to_vec(),
        "v = 10 and v = 30 died"
    );
    assert!(view.verify_against_recompute(&db).unwrap());
}
