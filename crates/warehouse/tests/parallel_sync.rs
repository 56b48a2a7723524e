//! Equivalence of the parallel staged sync and the sequential loop.
//!
//! The scheduler in `warehouse/src/sched.rs` may commit groups for
//! different tables out of queue order, but its observable outcome — every
//! mirror, every SPJ view, every aggregate view, the applied watermark,
//! and the quarantine parking lot — must be identical to a one-worker
//! sequential drain of the same published stream. These tests run the same
//! deterministic workload through both and compare canonical state dumps:
//! on a clean link, under the seeded loss/duplication/reorder fault plans
//! used by the torture harness (seeds 909690, 7, 1234), and with a poison
//! batch quarantining mid-stream.

use delta_core::model::{DeltaBatch, DeltaOp, OpDelta, OpLogRecord, ValueDelta, ValueDeltaRecord};
use delta_engine::db::open_temp;
use delta_sql::ast::AggFunc;
use delta_storage::{Column, DataType, Row, Schema, Value};
use delta_transport::NetFaultPlan;
use delta_warehouse::{
    AggSpec, AggViewDef, JoinCond, MirrorConfig, Pipeline, RetryPolicy, SpjView, Warehouse,
};

const TABLES: [&str; 4] = ["t0", "t1", "t2", "t3"];

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("g", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .unwrap()
}

/// Four mirrored tables, an SPJ view joining t0 ⋈ t1 (so those two share a
/// concurrency class while t2 and t3 parallelize freely), and an aggregate
/// view per table with COUNT/SUM/MIN/MAX so folds and extreme recomputes
/// are all exercised.
fn warehouse(label: &str) -> Warehouse {
    let db = open_temp(label).unwrap();
    let mut wh = Warehouse::new(db);
    for t in TABLES {
        wh.add_mirror(MirrorConfig::full(t, schema())).unwrap();
    }
    wh.add_view(SpjView {
        name: "t0_t1".into(),
        tables: vec!["t0".into(), "t1".into()],
        joins: vec![JoinCond::new("t0", "id", "t1", "id")],
        selection: None,
        projection: vec![
            ("t0".into(), "id".into()),
            ("t1".into(), "id".into()),
            ("t0".into(), "v".into()),
            ("t1".into(), "v".into()),
        ],
    })
    .unwrap();
    for t in TABLES {
        wh.add_agg_view(AggViewDef {
            name: format!("{t}_by_g"),
            table: t.into(),
            group_by: vec!["g".into()],
            aggregates: vec![
                AggSpec::count_star(),
                AggSpec::of(AggFunc::Sum, "v"),
                AggSpec::of(AggFunc::Min, "v"),
                AggSpec::of(AggFunc::Max, "v"),
            ],
            selection: None,
        })
        .unwrap();
    }
    wh
}

fn qpath(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "delta-parsync-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{label}.q"));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(delta_transport::PersistentQueue::ack_file(&p));
    let _ = std::fs::remove_file(p.with_extension("dlq"));
    let _ = std::fs::remove_file(p.with_extension("dlq.ack"));
    p
}

/// Tiny deterministic generator (splitmix64) so both pipelines publish the
/// identical stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn record(op: DeltaOp, id: i64, g: i64, v: i64) -> ValueDeltaRecord {
    ValueDeltaRecord {
        op,
        txn: 0,
        row: Row::new(vec![Value::Int(id), Value::Int(g), Value::Int(v)]),
    }
}

/// A mixed workload: interleaved multi-record value-delta batches across
/// all four tables (inserts, update pairs, deletes) with an Op-Delta
/// barrier every few rounds. Ids are per-table counters from `id_base`,
/// so t0 and t1 share ids and the join view stays populated. Returns the
/// published batch count.
fn publish_workload(pipe: &Pipeline, seed: u64, rounds: usize, id_base: i64) -> u64 {
    let mut rng = Rng(seed);
    // Live (id, g, v) triples per table, so updates/deletes hit real rows.
    let mut live: Vec<Vec<(i64, i64, i64)>> = vec![Vec::new(); TABLES.len()];
    let mut next_id: Vec<i64> = vec![id_base; TABLES.len()];
    let mut published = 0;
    for round in 0..rounds {
        for (ti, t) in TABLES.iter().enumerate() {
            let mut vd = ValueDelta::new(*t, schema());
            for _ in 0..1 + rng.below(3) {
                let roll = rng.below(10);
                if roll < 6 || live[ti].is_empty() {
                    let (id, g, v) = (next_id[ti], rng.below(5) as i64, rng.below(1000) as i64);
                    next_id[ti] += 1;
                    live[ti].push((id, g, v));
                    vd.records.push(record(DeltaOp::Insert, id, g, v));
                } else if roll < 8 {
                    let k = rng.below(live[ti].len() as u64) as usize;
                    let (id, g, old_v) = live[ti][k];
                    let v = rng.below(1000) as i64;
                    live[ti][k] = (id, g, v);
                    vd.records.push(record(DeltaOp::UpdateBefore, id, g, old_v));
                    vd.records.push(record(DeltaOp::UpdateAfter, id, g, v));
                } else {
                    let k = rng.below(live[ti].len() as u64) as usize;
                    let (id, g, v) = live[ti].swap_remove(k);
                    vd.records.push(record(DeltaOp::Delete, id, g, v));
                }
            }
            pipe.publish(&DeltaBatch::Value(vd)).unwrap();
            published += 1;
        }
        if round % 3 == 2 {
            // A replayed source transaction: a full barrier for the
            // scheduler.
            let g = rng.below(5);
            let od = OpDelta {
                txn: round as u64,
                ops: vec![OpLogRecord {
                    seq: round as u64,
                    txn: round as u64,
                    sql: format!("UPDATE t2 SET v = {round} WHERE g = {g}"),
                    before_image: None,
                }],
            };
            pipe.publish(&DeltaBatch::Op(od)).unwrap();
            published += 1;
        }
    }
    published
}

/// Canonical dump of every warehouse table: logical row values only
/// (no record ids), each table's rows sorted, so physically different but
/// logically identical layouts compare equal.
fn dump(wh: &Warehouse) -> String {
    let db = wh.db();
    let mut tables = db.table_names();
    tables.sort();
    let mut out = String::new();
    for t in &tables {
        let mut rows: Vec<String> = db
            .scan_table(t)
            .unwrap()
            .into_iter()
            .map(|(_, row)| format!("{:?}", row.values()))
            .collect();
        rows.sort();
        out.push_str(t);
        out.push('\n');
        for r in rows {
            out.push_str(&r);
            out.push('\n');
        }
    }
    out
}

/// Drain `pipe` into `wh` until the queue is fully acknowledged (fault
/// plans rewind the cursor, so one sync may return before convergence).
fn drain(pipe: &Pipeline, wh: &Warehouse, total: u64) {
    for _ in 0..300 {
        pipe.sync(wh).unwrap();
        if pipe.queue().pending() == 0 && pipe.queue().acked() == total {
            return;
        }
    }
    panic!(
        "queue did not converge: acked {} of {total}, {} pending",
        pipe.queue().acked(),
        pipe.queue().pending()
    );
}

/// Run the workload through a 1-worker and an N-worker pipeline, compare
/// canonical dumps and watermarks.
fn assert_equivalent(label: &str, plan: Option<NetFaultPlan>, seed: u64) {
    let mut dumps = Vec::new();
    for (tag, workers) in [("seq", 1), ("par", 4)] {
        let wh = warehouse(&format!("{label}-{tag}"));
        let mut pipe = Pipeline::open(qpath(&format!("{label}-{tag}")))
            .unwrap()
            .with_batch_size(6)
            .with_sync_workers(workers);
        if let Some(plan) = plan {
            pipe = pipe.with_net_faults(plan);
        }
        let total = publish_workload(&pipe, seed, 12, 0);
        drain(&pipe, &wh, total);
        assert_eq!(
            wh.applied_watermark().unwrap(),
            Some(total - 1),
            "{tag}: watermark covers the whole stream"
        );
        dumps.push(dump(&wh));
    }
    assert_eq!(
        dumps[0], dumps[1],
        "parallel state diverged from sequential"
    );
}

#[test]
fn parallel_sync_matches_sequential_clean_link() {
    assert_equivalent("clean", None, 42);
}

#[test]
fn parallel_sync_matches_sequential_under_faults_seed_909690() {
    assert_equivalent("f909690", Some(NetFaultPlan::lossy(909690)), 909690);
}

#[test]
fn parallel_sync_matches_sequential_under_faults_seed_7() {
    assert_equivalent("f7", Some(NetFaultPlan::lossy(7)), 7);
}

#[test]
fn parallel_sync_matches_sequential_under_faults_seed_1234() {
    assert_equivalent("f1234", Some(NetFaultPlan::lossy(1234)), 1234);
}

#[test]
fn parallel_sync_matches_sequential_with_poison_quarantine() {
    let mut dumps = Vec::new();
    for (tag, workers) in [("seq", 1), ("par", 4)] {
        let wh = warehouse(&format!("poison-{tag}"));
        let pipe = Pipeline::open(qpath(&format!("poison-{tag}")))
            .unwrap()
            .with_batch_size(6)
            .with_retry(RetryPolicy::quick(2))
            .unwrap()
            .with_sync_workers(workers);
        let mut total = publish_workload(&pipe, 99, 4, 0);
        // Poison: an op against a table with no mirror always fails and
        // must land in the parking lot without stalling later batches.
        pipe.publish(&DeltaBatch::Op(OpDelta {
            txn: 1000,
            ops: vec![OpLogRecord {
                seq: 1000,
                txn: 1000,
                sql: "INSERT INTO missing VALUES (1, 2, 3)".into(),
                before_image: None,
            }],
        }))
        .unwrap();
        total += 1;
        total += publish_workload(&pipe, 77, 4, 100_000);
        drain(&pipe, &wh, total);
        let parked = pipe.quarantined().unwrap();
        assert_eq!(parked.len(), 1, "{tag}: exactly the poison batch parked");
        dumps.push((dump(&wh), parked[0].index, parked[0].error.clone()));
    }
    assert_eq!(dumps[0], dumps[1], "quarantine path diverged");
}

#[test]
fn zero_workers_resolves_to_available_parallelism() {
    // `sync_workers(0)` (the default) must behave like *some* worker
    // count, whatever the host offers — this is a smoke test that the
    // resolution path syncs correctly end to end.
    let wh = warehouse("auto");
    let pipe = Pipeline::open(qpath("auto"))
        .unwrap()
        .with_batch_size(6)
        .with_sync_workers(0);
    let total = publish_workload(&pipe, 5, 6, 0);
    drain(&pipe, &wh, total);
    assert_eq!(wh.applied_watermark().unwrap(), Some(total - 1));
}
