//! **Experiment G** — group-commit WAL and batched delta apply (this
//! repo's hot-path engineering, not a paper artifact).
//!
//! Two measurements:
//!
//! * [`group_commit`] sweeps committer threads {1, 2, 4, 8} × [`SyncMode`].
//!   Each thread runs single-row insert transactions against its own
//!   table, so the only shared resource is the log. The baseline is the
//!   1-thread row: with one committer a group *is* one commit, so it pays
//!   one `sync_data` per transaction. The interesting cell is 8 threads
//!   under `Fsync`: the leader/follower protocol amortizes one `sync_data`
//!   over the whole group, so fsyncs/txn collapses below 1 and throughput
//!   scales instead of serializing on the disk flush.
//! * [`sync_batched`] measures the warehouse side: `Pipeline::sync`
//!   draining the same queue contents with a dequeue run of 1 (the
//!   unbatched protocol) vs the default 64. Batching folds consecutive
//!   same-table value deltas into one maintenance outage.

use std::sync::Arc;
use std::time::Duration;

use delta_core::model::{DeltaBatch, DeltaOp, OpDelta, OpLogRecord, ValueDelta, ValueDeltaRecord};
use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_storage::{Column, DataType, Row, Schema, Value};
use delta_warehouse::mirror::MirrorConfig;
use delta_warehouse::pipeline::{Pipeline, DEFAULT_SYNC_BATCH};
use delta_warehouse::Warehouse;

use crate::report::{fmt_duration, TableReport};
use crate::workload::{filler, time_once, Scale, SourceBuilder};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const MODES: [(SyncMode, &str); 3] = [
    (SyncMode::None, "none"),
    (SyncMode::Flush, "flush"),
    (SyncMode::Fsync, "fsync"),
];

fn txns_per_thread(scale: &Scale) -> usize {
    scale.rows(150)
}

fn open_db(b: &SourceBuilder, name: &str, mode: SyncMode) -> Arc<Database> {
    let mut opts = DbOptions::new(b.path(name));
    opts.wal_sync = mode;
    opts.lock_timeout = Duration::from_secs(30);
    Database::open(opts).expect("bench db")
}

struct RunResult {
    tps: f64,
    fsyncs_per_txn: f64,
    mean_group: f64,
    max_group: u64,
}

/// Run `threads` committers × `txns` single-row insert transactions each,
/// one table per thread, and report WAL-side rates.
fn committer_run(db: &Arc<Database>, threads: usize, txns: usize) -> RunResult {
    for t in 0..threads {
        let mut s = db.session();
        s.execute(&format!(
            "CREATE TABLE t{t} (id INT PRIMARY KEY, grp INT, val INT, filler VARCHAR)"
        ))
        .expect("create");
    }
    let before = db.wal().stats();
    let (_, elapsed) = time_once(|| {
        std::thread::scope(|scope| {
            for t in 0..threads {
                let db = Arc::clone(db);
                scope.spawn(move || {
                    let mut s = db.session();
                    for rep in 0..txns {
                        s.execute(&format!(
                            "INSERT INTO t{t} VALUES ({rep}, {rep}, 0, '{}')",
                            filler(rep as i64)
                        ))
                        .expect("insert txn");
                    }
                });
            }
        });
    });
    let after = db.wal().stats();
    let total = (threads * txns) as f64;
    let batches = after.batches - before.batches;
    let groups = after.groups - before.groups;
    RunResult {
        tps: total / elapsed.as_secs_f64().max(1e-9),
        fsyncs_per_txn: (after.fsyncs - before.fsyncs) as f64 / total,
        mean_group: if groups == 0 {
            1.0
        } else {
            batches as f64 / groups as f64
        },
        max_group: after.max_group_batches,
    }
}

/// Experiment G: WAL group commit, committer threads × sync mode.
pub fn group_commit(scale: &Scale) -> TableReport {
    let mut report = TableReport::new(
        "G",
        "Experiment G: WAL group commit, committer threads × sync mode",
        "under Fsync, grouping amortizes the flush: a lone committer pays one fsync per commit, 8 committers pay fsyncs/txn < 0.5 and commit >= 2x the txns/sec",
        &[
            "sync mode",
            "threads",
            "txns/sec",
            "fsyncs/txn",
            "mean group",
            "max group",
        ],
    );
    let txns = txns_per_thread(scale);
    report.note(format!(
        "{txns} single-row insert transactions per committer thread, one table per thread (the WAL is the only shared resource); fsyncs/txn and group sizes from WalStats deltas"
    ));
    let b = SourceBuilder::new("expg");
    let mut fsync_1 = None;
    let mut fsync_8 = None;
    for (mode, label) in MODES {
        for threads in THREADS {
            let db = open_db(&b, &format!("g-{label}-{threads}"), mode);
            let r = committer_run(&db, threads, txns);
            report.push_row(vec![
                label.to_string(),
                threads.to_string(),
                format!("{:.0}", r.tps),
                format!("{:.3}", r.fsyncs_per_txn),
                format!("{:.2}", r.mean_group),
                r.max_group.to_string(),
            ]);
            match (mode, threads) {
                (SyncMode::Fsync, 1) => fsync_1 = Some(r),
                (SyncMode::Fsync, 8) => fsync_8 = Some(r),
                _ => {}
            }
        }
    }
    let one = fsync_1.expect("1-thread fsync cell");
    let eight = fsync_8.expect("8-thread fsync cell");
    report.check(
        "8-thread Fsync commits share flushes (fsyncs/txn < 0.5)",
        eight.fsyncs_per_txn < 0.5,
    );
    report.check(
        "8 Fsync committers commit >= 2x the txns/sec of one",
        eight.tps >= 2.0 * one.tps,
    );
    report.check(
        "a lone Fsync committer pays a flush per commit (fsyncs/txn ~ 1)",
        one.fsyncs_per_txn > 0.99,
    );
    report.check(
        "groups actually form at 8 Fsync committers (mean group > 1.5)",
        eight.mean_group > 1.5,
    );
    report
}

fn sync_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("v", DataType::Int),
    ])
    .unwrap()
}

fn sync_warehouse(b: &SourceBuilder) -> Warehouse {
    let db = b.db(false).expect("warehouse db");
    let mut wh = Warehouse::new(db);
    wh.add_mirror(MirrorConfig::full("t", sync_schema()))
        .expect("mirror");
    wh
}

/// Publish `value_batches` single-row value deltas followed by
/// `op_batches` single-statement Op-Delta updates.
fn publish_workload(pipe: &Pipeline, value_batches: usize, op_batches: usize) {
    for i in 0..value_batches {
        let mut vd = ValueDelta::new("t", sync_schema());
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 0,
            row: Row::new(vec![Value::Int(i as i64), Value::Int(0)]),
        });
        pipe.publish(&DeltaBatch::Value(vd)).expect("publish vd");
    }
    for i in 0..op_batches {
        pipe.publish(&DeltaBatch::Op(OpDelta {
            txn: i as u64 + 1,
            ops: vec![OpLogRecord {
                seq: 1,
                txn: i as u64 + 1,
                sql: "UPDATE t SET v = v + 1 WHERE id = 0".into(),
                before_image: None,
            }],
        }))
        .expect("publish od");
    }
}

/// Experiment G-sync: batched warehouse apply throughput.
pub fn sync_batched(scale: &Scale) -> TableReport {
    let mut report = TableReport::new(
        "GS",
        "Experiment G-sync: batched pipeline sync vs one ack per batch",
        "dequeue runs fold consecutive value deltas into one warehouse transaction: fewer transactions and higher batches/sec at run size 64 than at 1",
        &[
            "run size",
            "batches",
            "sync time",
            "batches/sec",
            "warehouse txns",
        ],
    );
    let value_batches = scale.rows(200);
    let op_batches = scale.rows(200);
    report.note(format!(
        "{value_batches} single-row value-delta batches then {op_batches} single-statement Op-Delta updates, same queue contents for both run sizes"
    ));
    let b = SourceBuilder::new("expg-sync");
    let mut run = |run_size: u64| -> (f64, u64) {
        let wh = sync_warehouse(&b);
        let pipe = Pipeline::open(b.path(&format!("q-{run_size}")))
            .expect("pipeline")
            .with_batch_size(run_size);
        publish_workload(&pipe, value_batches, op_batches);
        let (res, elapsed) = time_once(|| pipe.sync(&wh));
        let sync = res.expect("sync");
        assert_eq!(sync.batches as usize, value_batches + op_batches);
        let bps = sync.batches as f64 / elapsed.as_secs_f64().max(1e-9);
        report.push_row(vec![
            run_size.to_string(),
            sync.batches.to_string(),
            fmt_duration(elapsed),
            format!("{bps:.0}"),
            sync.apply.transactions.to_string(),
        ]);
        (bps, sync.apply.transactions)
    };
    let (bps_1, txns_1) = run(1);
    let (bps_64, txns_64) = run(DEFAULT_SYNC_BATCH);
    report.check(
        "batched sync folds value-delta runs into fewer warehouse transactions",
        txns_64 < txns_1,
    );
    report.check(
        "batched sync is at least as fast as one ack per batch",
        bps_64 >= bps_1,
    );
    report
}
