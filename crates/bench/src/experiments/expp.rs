//! **Experiment P** — parallel pipelined sync: the staged decode/apply
//! scheduler (warehouse `sched` module) against the serial drain.
//!
//! One published delta stream — multi-record value-delta batches spread
//! over eight mirrored tables with per-table aggregate views and one SPJ
//! join view, plus periodic Op-Delta barriers — is drained into a fresh
//! warehouse at 1, 2, and 8 apply workers. Each cell reports end-to-end
//! throughput plus the scheduler's per-stage split (decode / apply / ack
//! nanos) and worker occupancy (busy worker time over apply wall-clock x
//! workers). The acceptance property rides along: every worker count must
//! leave the warehouse in exactly the state the serial drain produces.

use std::sync::Arc;
use std::time::Instant;

use delta_core::model::{DeltaBatch, DeltaOp, OpDelta, OpLogRecord, ValueDelta, ValueDeltaRecord};
use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_sql::ast::AggFunc;
use delta_storage::{Column, DataType, Row, Schema, Value};
use delta_warehouse::{AggSpec, AggViewDef, JoinCond, MirrorConfig, Pipeline, SpjView, Warehouse};

use crate::report::{fmt_duration, TableReport};
use crate::workload::{Scale, SourceBuilder};

const WORKERS: [usize; 3] = [1, 2, 8];
const N_TABLES: usize = 8;

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("g", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .unwrap()
}

fn table_name(i: usize) -> String {
    format!("t{i}")
}

/// Eight mirrored tables, a COUNT/SUM/MIN/MAX aggregate view per table, and
/// one SPJ view joining t0 ⋈ t1 so two tables share a concurrency class.
fn warehouse(b: &SourceBuilder, label: &str) -> Warehouse {
    let dir = b.path(label);
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = DbOptions::new(dir);
    opts.wal_sync = SyncMode::Flush;
    let db = Database::open(opts).expect("warehouse db");
    let mut wh = Warehouse::new(db);
    for i in 0..N_TABLES {
        wh.add_mirror(MirrorConfig::full(table_name(i), schema()))
            .expect("mirror");
        wh.add_agg_view(AggViewDef {
            name: format!("t{i}_by_g"),
            table: table_name(i),
            group_by: vec!["g".into()],
            aggregates: vec![
                AggSpec::count_star(),
                AggSpec::of(AggFunc::Sum, "v"),
                AggSpec::of(AggFunc::Min, "v"),
                AggSpec::of(AggFunc::Max, "v"),
            ],
            selection: None,
        })
        .expect("agg view");
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
    .expect("spj view");
    wh
}

fn record(op: DeltaOp, id: i64, g: i64, v: i64) -> ValueDeltaRecord {
    ValueDeltaRecord {
        op,
        txn: 0,
        row: Row::new(vec![Value::Int(id), Value::Int(g), Value::Int(v)]),
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Publish the deterministic stream: `rounds` sweeps over the tables, each
/// contributing a batch of inserts/update-pairs, with an Op-Delta barrier
/// every eighth round. Returns the batch count.
fn publish_stream(pipe: &Pipeline, rounds: usize) -> u64 {
    let mut rng = 0x9Eu64;
    let mut live: Vec<Vec<(i64, i64, i64)>> = vec![Vec::new(); N_TABLES];
    let mut next_id = [0i64; N_TABLES];
    let mut published = 0;
    for round in 0..rounds {
        for ti in 0..N_TABLES {
            let mut vd = ValueDelta::new(table_name(ti), schema());
            for _ in 0..4 {
                if splitmix(&mut rng) % 10 < 7 || live[ti].is_empty() {
                    let id = next_id[ti];
                    next_id[ti] += 1;
                    let g = (splitmix(&mut rng) % 16) as i64;
                    let v = (splitmix(&mut rng) % 1000) as i64;
                    live[ti].push((id, g, v));
                    vd.records.push(record(DeltaOp::Insert, id, g, v));
                } else {
                    let k = (splitmix(&mut rng) % live[ti].len() as u64) as usize;
                    let (id, g, old_v) = live[ti][k];
                    let v = (splitmix(&mut rng) % 1000) as i64;
                    live[ti][k] = (id, g, v);
                    vd.records.push(record(DeltaOp::UpdateBefore, id, g, old_v));
                    vd.records.push(record(DeltaOp::UpdateAfter, id, g, v));
                }
            }
            pipe.publish(&DeltaBatch::Value(vd)).expect("publish");
            published += 1;
        }
        if round % 8 == 7 {
            let g = (round / 8) % 4;
            pipe.publish(&DeltaBatch::Op(OpDelta {
                txn: round as u64,
                ops: vec![OpLogRecord {
                    seq: round as u64,
                    txn: round as u64,
                    sql: format!("UPDATE t3 SET v = {g} WHERE g = {g}"),
                    before_image: None,
                }],
            }))
            .expect("publish op");
            published += 1;
        }
    }
    published
}

/// Canonical logical dump of every warehouse table (rows sorted, record
/// ids ignored) for the equivalence check.
fn dump(wh: &Warehouse) -> String {
    let db: &Arc<Database> = wh.db();
    let mut tables = db.table_names();
    tables.sort();
    let mut out = String::new();
    for t in &tables {
        let mut rows: Vec<String> = db
            .scan_table(t)
            .expect("scan")
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

struct Cell {
    batches_per_sec: f64,
    dump: String,
}

/// Experiment P: staged parallel sync throughput and equivalence.
pub fn run(scale: &Scale) -> TableReport {
    let mut report = TableReport::new(
        "P",
        "Experiment P: parallel pipelined sync (staged decode/apply scheduler)",
        "8 apply workers drain the same stream >= 2x faster than 1 (asserted only on >= 4 cores; non-regression recorded otherwise) and every worker count leaves the warehouse byte-identical to the serial drain",
        &[
            "workers",
            "throughput",
            "decode",
            "apply",
            "ack",
            "occupancy",
            "time",
        ],
    );
    let b = SourceBuilder::new("expp");
    let rounds = scale.rows(160);
    report.note(format!(
        "{rounds} rounds over {N_TABLES} tables (4-record value batches, Op-Delta barrier every 8th round); occupancy = busy worker nanos / (apply wall x workers)"
    ));

    let mut cells: Vec<(usize, Cell)> = Vec::new();
    for workers in WORKERS {
        let wh = warehouse(&b, &format!("wh-{workers}"));
        let qp = b.path(&format!("queue-{workers}.q"));
        let _ = std::fs::remove_file(&qp);
        let _ = std::fs::remove_file(delta_transport::PersistentQueue::ack_file(&qp));
        let pipe = Pipeline::open(&qp)
            .expect("pipeline")
            .with_batch_size(16)
            .with_sync_workers(workers);
        let total = publish_stream(&pipe, rounds);
        let started = Instant::now();
        let sync = pipe.sync(&wh).expect("sync");
        let elapsed = started.elapsed();
        assert_eq!(sync.batches, total, "every published batch applied");
        let apply_wall = sync.apply_nanos.max(1) as f64;
        let occupancy = sync.worker_busy_nanos as f64 / (apply_wall * workers as f64);
        report.push_row(vec![
            workers.to_string(),
            format!(
                "{:.0} batches/s",
                total as f64 / elapsed.as_secs_f64().max(1e-9)
            ),
            format!("{:.1} ms", sync.decode_nanos as f64 / 1e6),
            format!("{:.1} ms", sync.apply_nanos as f64 / 1e6),
            format!("{:.1} ms", sync.ack_nanos as f64 / 1e6),
            format!("{occupancy:.2}"),
            fmt_duration(elapsed),
        ]);
        cells.push((
            workers,
            Cell {
                batches_per_sec: total as f64 / elapsed.as_secs_f64().max(1e-9),
                dump: dump(&wh),
            },
        ));
    }

    // --- Checks -----------------------------------------------------------
    let serial = &cells[0].1;
    report.check(
        "every worker count converges to the serial drain's warehouse state",
        cells.iter().all(|(_, c)| c.dump == serial.dump),
    );
    // Like experiment B's scan gate: aggregate throughput of a lock-bound
    // apply path cannot scale on a single CPU, so the 2x claim is only
    // assertable where groups can physically commit in parallel.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ratio = cells[2].1.batches_per_sec / serial.batches_per_sec.max(1e-9);
    report.note(format!(
        "host has {cores} core(s); 8-worker / 1-worker sync throughput = {ratio:.2}x"
    ));
    if cores >= 4 {
        report.check(
            "8 workers drain the stream >= 2x faster than the serial loop",
            ratio >= 2.0,
        );
    } else {
        report.check(
            "parallel scheduler does not regress the serial loop (>= 2x waived: single-CPU host cannot scale the apply stage)",
            ratio >= 0.7,
        );
    }
    report
}
