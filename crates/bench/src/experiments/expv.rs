//! **Experiment V** — §4.1's message-volume argument, measured exactly.
//!
//! *"For deletions and updates at sources, Op-Delta can reduce the 'delta'
//! volume and hence the message traffic from source to the data warehouse
//! significantly ... the size of an Op-Delta for deletion and update is
//! independent of the size of the transaction ... For insertion at sources,
//! the Op-Delta has the same space efficiency as the value delta."*
//!
//! We run identical transactions, capture them both ways, and compare the
//! size of each representation's text (`ValueDelta::to_text` /
//! `OpDelta::to_text`) — the quantity §4.1 compares. The columnar frames the
//! pipeline actually ships compress value deltas far more than Op-Deltas, so
//! the insert-parity claim holds for the text only. Unlike the timing
//! experiments this one is fully deterministic.

use delta_core::opdelta::{collect_from_table, OpDeltaCapture, OpLogSink};
use delta_core::trigger_extract::TriggerExtractor;

use crate::experiments::fig2::OpKind;
use crate::report::TableReport;
use crate::workload::{delete_txn_sql, insert_txn_sql, update_txn_sql, Scale, SourceBuilder};

fn fmt_bytes(n: usize) -> String {
    if n < 10_000 {
        format!("{n} B")
    } else {
        format!("{:.1} KiB", n as f64 / 1024.0)
    }
}

pub fn run(scale: &Scale) -> TableReport {
    let mut report = TableReport::new(
        "V",
        "Experiment V (§4.1): shipped delta volume, value delta vs Op-Delta",
        "delete/update Op-Deltas are ~constant-size (~70 B) regardless of rows affected; insert volumes are comparable",
        &["op", "txn size", "value delta bytes", "Op-Delta bytes", "ratio"],
    );
    let rows = scale.rows(10_000);
    report.note(format!(
        "bytes are the text representation §4.1 compares, not the columnar frames that ship; source table {rows} rows of 100-byte records"
    ));
    let b = SourceBuilder::new("expv");
    let sizes: Vec<usize> = [10usize, 100, 1_000, 10_000]
        .into_iter()
        .filter(|n| *n <= rows / 2)
        .collect();
    let mut measured: std::collections::HashMap<(&'static str, usize), (usize, usize)> =
        Default::default();
    for op in OpKind::all() {
        for &n in &sizes {
            let db = b.db(false).expect("db");
            b.seeded_op_table(&db, "parts", rows).expect("seed");
            let extractor = TriggerExtractor::new("parts");
            extractor.install(&db).expect("trigger");
            let mut cap = OpDeltaCapture::new(db.session(), OpLogSink::Table("op_log".into()))
                .expect("capture");
            let sql = match op {
                OpKind::Insert => insert_txn_sql("parts", (rows * 10) as i64, n),
                OpKind::Update => update_txn_sql("parts", 0, n),
                OpKind::Delete => delete_txn_sql("parts", 0, n),
            };
            cap.execute(&sql).expect("txn");
            let value = extractor.drain(&db).expect("drain").wire_size();
            let op_delta = collect_from_table(&db, "op_log")
                .expect("collect")
                .iter()
                .map(|od| od.wire_size())
                .sum::<usize>();
            measured.insert((op.label(), n), (value, op_delta));
            report.push_row(vec![
                op.label().to_string(),
                n.to_string(),
                fmt_bytes(value),
                fmt_bytes(op_delta),
                format!("{:.1}x", value as f64 / op_delta as f64),
            ]);
        }
    }
    let n_min = sizes[0];
    let n_max = *sizes.last().expect("non-empty");
    // Delete/update op-deltas do not grow with the transaction.
    for op in ["delete", "update"] {
        let (_, od_small) = measured[&(op, n_min)];
        let (_, od_big) = measured[&(op, n_max)];
        report.check(
            format!("{op} Op-Delta size is independent of rows affected"),
            od_big < od_small * 3,
        );
        let (vd_big, od) = measured[&(op, n_max)];
        report.check(
            format!("{op} value delta dwarfs the Op-Delta at the largest txn"),
            vd_big > od * 50,
        );
    }
    // Inserts: same space efficiency (within 2x either way).
    let (vd, od) = measured[&("insert", n_max)];
    let ratio = vd as f64 / od as f64;
    report.check(
        "insert volumes are comparable (paper: same space efficiency)",
        (0.5..=2.0).contains(&ratio),
    );
    report
}
