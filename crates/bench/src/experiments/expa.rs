//! **Experiment A** — anti-entropy audit cost and scoped-repair traffic
//! (DESIGN.md §14).
//!
//! Two questions, one table:
//!
//! * **Audit cost vs table size** — digesting a *consistent* mirror at
//!   growing row counts. The digest is O(target leaves), so its wire cost
//!   must stay flat while the table grows; the audit ships kilobytes where
//!   a reload would ship the table.
//! * **Repair traffic vs divergence** — corrupting a fixed fraction of
//!   warehouse rows (0.1%, 1%, 5%) and measuring what the scoped
//!   snapshot-differential repair actually ships through the queue,
//!   against the full-snapshot bytes a reload would cost. The strict gate:
//!   at 0.1% divergence the repair costs at most 5% of a full reload, and
//!   every audited table converges byte-equal.

use std::sync::Arc;
use std::time::Instant;

use delta_core::digest::DEFAULT_TARGET_LEAVES;
use delta_core::model::{DeltaBatch, DeltaOp, ValueDelta, ValueDeltaRecord};
use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_warehouse::{audit_and_repair, AuditConfig, MirrorConfig, Pipeline, Warehouse};

use crate::report::{fmt_duration, TableReport};
use crate::workload::{insert_txn_sql, op_schema, Scale, SourceBuilder};

const TABLE: &str = "parts";

/// A source database holding `rows` rows of the op-schema table.
fn source(b: &SourceBuilder, label: &str, rows: usize) -> Arc<Database> {
    let dir = b.path(label);
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(DbOptions::new(dir)).expect("source db");
    db.session()
        .execute(&format!(
            "CREATE TABLE {TABLE} (id INT PRIMARY KEY, grp INT, val INT, filler VARCHAR)"
        ))
        .expect("create");
    let mut at = 0usize;
    while at < rows {
        let n = (rows - at).min(256);
        db.session()
            .execute(&insert_txn_sql(TABLE, at as i64, n))
            .expect("seed txn");
        at += n;
    }
    db
}

/// A warehouse mirroring the table, seeded to byte-equality by shipping the
/// source's rows as insert deltas through `pipe`.
fn mirrored(b: &SourceBuilder, label: &str, src: &Arc<Database>, pipe: &Pipeline) -> Warehouse {
    let dir = b.path(label);
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = DbOptions::new(dir);
    opts.wal_sync = SyncMode::Flush;
    let db = Database::open(opts).expect("warehouse db");
    let mut wh = Warehouse::new(db);
    wh.add_mirror(MirrorConfig::full(TABLE, op_schema()))
        .expect("mirror");
    let mut vd = ValueDelta::new(TABLE, op_schema());
    for (_, row) in src.scan_table(TABLE).expect("scan source") {
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 0,
            row,
        });
        if vd.records.len() == 512 {
            pipe.publish(&DeltaBatch::Value(vd)).expect("publish");
            vd = ValueDelta::new(TABLE, op_schema());
        }
    }
    if !vd.records.is_empty() {
        pipe.publish(&DeltaBatch::Value(vd)).expect("publish");
    }
    while pipe.queue().pending() > 0 {
        pipe.sync(&wh).expect("sync");
    }
    wh
}

fn pipeline(b: &SourceBuilder, label: &str) -> Pipeline {
    let qp = b.path(&format!("{label}.q"));
    for ext in [
        "q.ack",
        "dlq",
        "dlq.ack",
        "dlq.resolved",
        "audit",
        "audit.ack",
    ] {
        let _ = std::fs::remove_file(qp.with_extension(ext));
    }
    let _ = std::fs::remove_file(&qp);
    Pipeline::open(&qp).expect("pipeline")
}

/// Corrupt `count` evenly spaced warehouse rows (silent divergence).
fn corrupt(wh: &Warehouse, rows: usize, count: usize) {
    let step = (rows / count.max(1)).max(1);
    let mut s = wh.db().session();
    for i in 0..count {
        let id = (i * step) as i64;
        s.execute(&format!(
            "UPDATE {TABLE} SET val = val + 999983 WHERE id = {id}"
        ))
        .expect("corrupt");
    }
}

struct Cell {
    phase: &'static str,
    rows: usize,
    corrupted: usize,
    report: delta_warehouse::AuditReport,
    elapsed: std::time::Duration,
}

fn audit_cell(
    b: &SourceBuilder,
    phase: &'static str,
    label: &str,
    rows: usize,
    corrupted: usize,
) -> Cell {
    let src = source(b, &format!("src-{label}"), rows);
    let pipe = pipeline(b, &format!("queue-{label}"));
    let wh = mirrored(b, &format!("wh-{label}"), &src, &pipe);
    if corrupted > 0 {
        corrupt(&wh, rows, corrupted);
    }
    let started = Instant::now();
    let report =
        audit_and_repair(&src, &pipe, &wh, &[TABLE], &AuditConfig::default()).expect("audit");
    let elapsed = started.elapsed();
    Cell {
        phase,
        rows,
        corrupted,
        report,
        elapsed,
    }
}

/// Experiment A: audit cost scaling and scoped-repair traffic.
pub fn run(scale: &Scale) -> TableReport {
    let mut report = TableReport::new(
        "A",
        "Experiment A: anti-entropy audit cost and scoped-repair traffic",
        "digest cost stays flat as the table grows; at 0.1% divergence the scoped repair ships <= 5% of full-reload bytes; every audit converges byte-equal",
        &[
            "phase",
            "rows",
            "corrupted",
            "digest B",
            "leaves cmp",
            "ranges",
            "repair recs",
            "repair B",
            "snapshot B",
            "repair/reload",
            "time",
        ],
    );
    let b = SourceBuilder::new("expa");
    let base = scale.rows(4000);
    report.note(format!(
        "base table {base} rows; audit uses the default {} target leaves; repair = scoped \
         snapshot diff over diverged ranges shipped through the normal queue",
        DEFAULT_TARGET_LEAVES
    ));

    // Phase 1: audit cost vs table size on consistent mirrors.
    let sizes = [base / 4, base, base * 4];
    let mut cost_cells = Vec::new();
    for (i, &rows) in sizes.iter().enumerate() {
        cost_cells.push(audit_cell(&b, "cost", &format!("size{i}"), rows, 0));
    }

    // Phase 2: repair traffic vs divergence fraction on the base size.
    let fractions: [(f64, &'static str); 3] = [(0.001, "0.1%"), (0.01, "1%"), (0.05, "5%")];
    let mut repair_cells = Vec::new();
    for (i, &(f, _)) in fractions.iter().enumerate() {
        let corrupted = ((base as f64 * f) as usize).max(1);
        repair_cells.push(audit_cell(
            &b,
            "repair",
            &format!("div{i}"),
            base,
            corrupted,
        ));
    }

    for cell in cost_cells.iter().chain(repair_cells.iter()) {
        let r = &cell.report;
        let t = &r.tables[0];
        let ratio = if r.full_snapshot_bytes > 0 {
            r.repair_bytes as f64 / r.full_snapshot_bytes as f64
        } else {
            0.0
        };
        report.push_row(vec![
            cell.phase.to_string(),
            cell.rows.to_string(),
            cell.corrupted.to_string(),
            r.digest_bytes.to_string(),
            t.leaves_compared.to_string(),
            t.diverged_ranges.len().to_string(),
            t.repair_records.to_string(),
            r.repair_bytes.to_string(),
            r.full_snapshot_bytes.to_string(),
            format!("{:.2}%", ratio * 100.0),
            fmt_duration(cell.elapsed),
        ]);
    }

    let all_converged = cost_cells
        .iter()
        .chain(repair_cells.iter())
        .all(|c| c.report.converged());
    report.check("every audit converges byte-equal", all_converged);
    report.check(
        "consistent mirrors need no repair",
        cost_cells
            .iter()
            .all(|c| !c.report.diverged() && c.report.repair_bytes == 0),
    );
    // The digest summarizes any table size in O(target_leaves) bytes: the
    // 16x table must not cost more than 2x the digest bytes of the 1x.
    let digest_small = cost_cells[0].report.digest_bytes.max(1);
    let digest_large = cost_cells[2].report.digest_bytes.max(1);
    report.check(
        "digest cost stays flat as the table grows 16x",
        digest_large <= digest_small * 2,
    );
    let strict = &repair_cells[0].report;
    report.check(
        "strict: repair <= 5% of full-reload bytes at 0.1% divergence",
        strict.repair_bytes * 20 <= strict.full_snapshot_bytes,
    );
    report.check(
        "repair traffic grows with divergence",
        repair_cells[0].report.repair_bytes < repair_cells[1].report.repair_bytes
            && repair_cells[1].report.repair_bytes < repair_cells[2].report.repair_bytes,
    );
    report
}
