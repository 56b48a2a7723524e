//! **Experiment PR** — throughput vs. disk budget under the ship
//! degradation ladder (DESIGN.md §15).
//!
//! A steady-state pipeline ships the same seeded workload (insert + update
//! transactions per cycle) through spools capped at shrinking disk budgets.
//! The fixed budget is a *pool*: draining a cycle and compacting the spool
//! prefix credits the bytes back, so a budget a little larger than one
//! round sustains indefinitely via compaction alone. Tighter budgets force
//! the ladder's next rungs — coalesced snapshot-diff rounds, then deferral
//! with a recorded pressure lift. The strict gate: **every** budget level,
//! including the one that can never fit a round, ends byte-equal with the
//! source — pressure degrades throughput and delta form, never data.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use delta_core::logextract::ResilientLogExtractor;
use delta_engine::db::Database;
use delta_storage::{DiskBudget, Value};
use delta_warehouse::{MirrorConfig, Pipeline, Warehouse};

use crate::report::{fmt_duration, TableReport};
use crate::workload::{insert_txn_sql, op_schema, update_txn_sql, Scale, SourceBuilder};

const TABLE: &str = "parts";
const CYCLES: usize = 6;

/// Sorted row image of a table, for byte-equality comparison.
fn table_state(db: &Database, label: &str) -> Result<BTreeMap<i64, Vec<Value>>, String> {
    let mut out = BTreeMap::new();
    for (_, row) in db
        .scan_table(TABLE)
        .map_err(|e| format!("{label} scan: {e}"))?
    {
        let vals = row.values().to_vec();
        let id = match vals.first() {
            Some(Value::Int(id)) => *id,
            other => return Err(format!("{label}: non-int key {other:?}")),
        };
        out.insert(id, vals);
    }
    Ok(out)
}

struct Cell {
    label: String,
    rounds: u64,
    published: u64,
    backpressure: u64,
    compactions: u64,
    degradations: u64,
    deferrals: u64,
    lifts: u64,
    changed_rows: u64,
    elapsed: Duration,
    converged: bool,
}

/// Run the full workload against one budget level (`None` = unlimited).
fn run_level(b: &SourceBuilder, scale: &Scale, idx: usize, cap: Option<u64>) -> Cell {
    let label = match cap {
        None => "unlimited".to_string(),
        Some(n) if n >= 1024 => format!("{} KiB", n / 1024),
        Some(n) => format!("{n} B"),
    };
    let src = b.db(true).expect("source db");
    src.session()
        .execute(&format!(
            "CREATE TABLE {TABLE} (id INT PRIMARY KEY, grp INT, val INT, filler VARCHAR)"
        ))
        .expect("create");
    let mut x =
        ResilientLogExtractor::new(b.path(&format!("baselines-{idx}")), &[TABLE]).expect("extract");
    x.prime(&src).expect("prime");

    let wh_db = b.db(false).expect("warehouse db");
    let mut wh = Warehouse::new(wh_db);
    wh.add_mirror(MirrorConfig::full(TABLE, op_schema()))
        .expect("mirror");

    let budget = Arc::new(match cap {
        Some(n) => DiskBudget::bytes(n),
        None => DiskBudget::unlimited(),
    });
    let pipe = Pipeline::open(b.path(&format!("queue-{idx}.q")))
        .expect("pipeline")
        .with_queue_budget(Arc::clone(&budget));

    let batch = scale.rows(150);
    let mut cell = Cell {
        label,
        rounds: 0,
        published: 0,
        backpressure: 0,
        compactions: 0,
        degradations: 0,
        deferrals: 0,
        lifts: 0,
        changed_rows: 0,
        elapsed: Duration::ZERO,
        converged: false,
    };
    for cycle in 0..CYCLES {
        // One insert txn of fresh rows + one update txn over the previous
        // cycle's rows: the op stream carries ~3 records per changed row
        // pair, the coalesced form exactly one.
        let first = (cycle * batch) as i64;
        let mut s = src.session();
        s.execute(&insert_txn_sql(TABLE, first, batch))
            .expect("insert");
        cell.changed_rows += batch as u64;
        if cycle > 0 {
            s.execute(&update_txn_sql(TABLE, first - batch as i64, batch))
                .expect("update");
            cell.changed_rows += batch as u64;
        }
        drop(s);

        let started = Instant::now();
        let mut lifted = false;
        loop {
            let round = pipe.ship(&src, &mut x).expect("ship");
            cell.rounds += 1;
            cell.published += round.published;
            cell.backpressure += round.backpressure;
            cell.compactions += round.compactions;
            cell.degradations += round.degradations;
            cell.deferrals += round.deferred;
            while pipe.queue().pending() > 0 {
                pipe.sync(&wh).expect("sync");
            }
            if round.deferred == 0 {
                break;
            }
            assert!(!lifted, "round deferred even after the pressure lift");
            // The drain acked everything; compaction credits the spool
            // prefix back to the pool. If nothing comes back, the budget
            // cannot fit this round in any form: pressure lifts.
            let reclaimed = pipe.queue().compact().expect("compact").bytes_reclaimed;
            if reclaimed > 0 {
                cell.compactions += 1;
            } else {
                budget.set_global(None);
                cell.lifts += 1;
                lifted = true;
            }
        }
        cell.elapsed += started.elapsed();
        if lifted {
            // Re-arm the pool for the next cycle.
            budget.set_global(Some(cap.expect("only capped budgets lift")));
        }
    }
    cell.converged = table_state(&src, "source").expect("src state")
        == table_state(wh.db(), "warehouse").expect("wh state");
    cell
}

/// Experiment PR: throughput vs. disk budget under graceful degradation.
pub fn run(scale: &Scale) -> TableReport {
    let mut report = TableReport::new(
        "PR",
        "Experiment PR: shipping throughput vs. transport disk budget",
        "every budget level converges byte-equal; tight budgets degrade (compact, coalesce, defer) instead of erroring; the unlimited level sees zero backpressure",
        &[
            "spool budget",
            "rounds",
            "published",
            "backpressure",
            "compactions",
            "coalesced",
            "deferrals",
            "lifts",
            "changed rows",
            "rows/s",
            "time",
        ],
    );
    let b = SourceBuilder::new("exprp");
    report.note(format!(
        "{CYCLES} cycles of insert+update transactions per level; the budget is a fixed pool \
         that drained-and-compacted spool bytes are credited back into, so the ladder is \
         compact -> coalesce -> defer(+lift) as the pool shrinks"
    ));

    let levels: [Option<u64>; 5] = [
        None,
        Some(256 * 1024),
        Some(48 * 1024),
        Some(12 * 1024),
        Some(1024),
    ];
    let cells: Vec<Cell> = levels
        .iter()
        .enumerate()
        .map(|(i, cap)| run_level(&b, scale, i, *cap))
        .collect();

    for c in &cells {
        let rate = c.changed_rows as f64 / c.elapsed.as_secs_f64().max(1e-9);
        report.push_row(vec![
            c.label.clone(),
            c.rounds.to_string(),
            c.published.to_string(),
            c.backpressure.to_string(),
            c.compactions.to_string(),
            c.degradations.to_string(),
            c.deferrals.to_string(),
            c.lifts.to_string(),
            c.changed_rows.to_string(),
            format!("{rate:.0}"),
            fmt_duration(c.elapsed),
        ]);
    }

    report.check(
        "every budget level converges byte-equal",
        cells.iter().all(|c| c.converged),
    );
    report.check(
        "unlimited budget never sees backpressure",
        cells[0].backpressure == 0 && cells[0].deferrals == 0,
    );
    report.check(
        "pressure engages the ladder somewhere (backpressure + compaction)",
        cells.iter().any(|c| c.backpressure > 0) && cells.iter().any(|c| c.compactions > 0),
    );
    report.check(
        "a tight budget degrades to the coalesced form",
        cells.iter().any(|c| c.degradations > 0),
    );
    report.check(
        "the tightest budget defers and records the pressure lift",
        cells.last().is_some_and(|c| c.deferrals > 0 && c.lifts > 0),
    );
    report.check(
        "degradation ships fewer batches, not fewer rows",
        cells
            .iter()
            .all(|c| c.changed_rows == cells[0].changed_rows),
    );
    report
}
