//! Replication and reconciliation (§2.2): why low-level extraction from
//! replicated COTS systems needs an authoritative-copy step, and how
//! Op-Delta sidesteps the problem by capturing at the business level.
//!
//! Two replica databases receive the same business changes (one imperfectly
//! — a lost update, a divergent value). Trigger-based extraction sees one
//! delta *per replica*; the reconciler merges them, dropping echoes and
//! surfacing the divergence. The same business activity captured once as
//! Op-Delta needs no reconciliation at all.
//!
//! ```text
//! cargo run --example reconciliation
//! ```

use deltaforge::core::opdelta::{collect_from_table, OpDeltaCapture, OpLogSink};
use deltaforge::core::reconcile::{ReconcileKey, Reconciler};
use deltaforge::core::trigger_extract::TriggerExtractor;
use deltaforge::engine::db::Database;
use deltaforge::engine::DbOptions;

fn make_replica(dir: &std::path::Path, name: &str) -> std::sync::Arc<Database> {
    let db = Database::open(DbOptions::new(dir.join(name))).expect("open");
    db.session()
        .execute("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT, owner VARCHAR)")
        .expect("ddl");
    db
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scratch = std::env::temp_dir().join(format!("deltaforge-recon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // --- Two replicas, both instrumented with capture triggers.
    let east = make_replica(&scratch, "east");
    let west = make_replica(&scratch, "west");
    let x_east = TriggerExtractor::new("accounts");
    let x_west = TriggerExtractor::new("accounts");
    x_east.install(&east)?;
    x_west.install(&west)?;

    // The COTS layer replays each business transaction on both replicas
    // (the DBMSs are unaware of each other). Meanwhile the same layer is
    // also wrapped with Op-Delta capture on the authoritative replica.
    let mut cap = OpDeltaCapture::new(east.session(), OpLogSink::Table("op_log".into()))?;
    let mut west_s = west.session();

    // txn 1: replicated cleanly to both.
    cap.execute("INSERT INTO accounts VALUES (1, 1000, 'alice')")?;
    west_s.execute("INSERT INTO accounts VALUES (1, 1000, 'alice')")?;
    // txn 2: replication glitch — west applied a *different* value
    // (non-serializable interleaving with a local write).
    cap.execute("UPDATE accounts SET balance = 900 WHERE id = 1")?;
    west_s.execute("UPDATE accounts SET balance = 905 WHERE id = 1")?;
    // txn 3: never reached west at all.
    cap.execute("INSERT INTO accounts VALUES (2, 500, 'bob')")?;

    // --- Low-level extraction: one delta stream per replica.
    let d_east = x_east.drain(&east)?;
    let d_west = x_west.drain(&west)?;
    println!(
        "trigger extraction saw {} records at east, {} at west ({} total for {} business changes)",
        d_east.len(),
        d_west.len(),
        d_east.len() + d_west.len(),
        4
    );

    // Reconcile with east as the authoritative replica. The replicas applied
    // the business transactions in lockstep, so their transaction ids align —
    // standing in for the global transaction id an integration layer would
    // stamp (§3.1.3 calls this mechanism out). The id-keyed reconciler can
    // therefore both drop echoes AND catch value divergence; pure content
    // matching (ReconcileKey::Content) could only do the former.
    let reconciler = Reconciler::new("east", ReconcileKey::GlobalTxnId);
    let r = reconciler.reconcile(vec![("east".into(), d_east), ("west".into(), d_west)]);
    println!(
        "reconciled: {} authoritative records, {} replica echoes dropped, {} conflict(s) surfaced",
        r.delta.len(),
        r.duplicates_dropped,
        r.conflicts.len()
    );
    for c in &r.conflicts {
        println!(
            "  CONFLICT: kept {:?} from {}, rejected {:?} from {}",
            c.kept.row.values()[1],
            c.kept_from,
            c.conflicting.row.values()[1],
            c.conflicting_from
        );
    }
    assert!(!r.conflicts.is_empty(), "the divergence must surface");

    // --- Op-Delta: captured once at the business level — one authoritative
    // operation per change, nothing to reconcile.
    let ods = collect_from_table(&east, "op_log")?;
    println!(
        "\nOp-Delta capture saw exactly {} business transactions:",
        ods.len()
    );
    for od in &ods {
        for op in &od.ops {
            println!("  txn {}: {}", od.txn, op.sql);
        }
    }
    assert_eq!(ods.len(), 3);
    println!("\nno duplicates, no reconciliation step — §4.1's authoritative-capture argument");
    Ok(())
}
