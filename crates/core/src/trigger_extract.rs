//! Trigger-based delta extraction (§3.1.3, Figure 2).
//!
//! Installs a row-level capture trigger on the source table. Every state
//! change is written — **inside the user's transaction** — to a local delta
//! table; the extractor then drains that table into a [`ValueDelta`] (and,
//! when the deltas must leave the source DBMS, exports it).
//!
//! The method captures every state change and the transaction id, requires
//! no application changes, and is trivially installed — but the capture cost
//! lands on the user transactions (Figure 2), which is its downfall.

use std::ops::ControlFlow;
use std::path::Path;

use delta_engine::db::Database;
use delta_engine::lock::LockMode;
use delta_engine::trigger::{delta_table_schema, TriggerDef};
use delta_engine::{EngineError, EngineResult, TableOptions};
use delta_storage::Row;

use crate::model::{DeltaOp, ValueDelta, ValueDeltaRecord};

/// Trigger-based extractor for one source table.
#[derive(Debug, Clone)]
pub struct TriggerExtractor {
    pub source_table: String,
    pub delta_table: String,
    pub trigger_name: String,
}

impl TriggerExtractor {
    /// Create an extractor capturing changes to `source_table`.
    pub fn new(source_table: impl Into<String>) -> TriggerExtractor {
        let source_table = source_table.into();
        TriggerExtractor {
            delta_table: format!("{source_table}_delta"),
            trigger_name: format!("{source_table}_capture"),
            source_table,
        }
    }

    /// Create the delta table (if missing) and register the capture trigger.
    pub fn install(&self, db: &Database) -> EngineResult<()> {
        let src = db.table(&self.source_table)?;
        if db.table(&self.delta_table).is_err() {
            db.create_table(
                &self.delta_table,
                delta_table_schema(&src.schema)?,
                TableOptions::default(),
            )?;
        }
        db.create_trigger(TriggerDef::capture_all(
            &self.trigger_name,
            &self.source_table,
            &self.delta_table,
        ))
    }

    /// Remove the trigger (the delta table is kept for draining).
    pub fn uninstall(&self, db: &Database) -> EngineResult<()> {
        db.drop_trigger(&self.trigger_name)
    }

    /// Read the captured deltas **without** clearing them.
    pub fn peek(&self, db: &Database) -> EngineResult<ValueDelta> {
        self.read(db, false)
    }

    /// Drain: read the captured deltas and clear the delta table in one
    /// pass, atomically with respect to concurrent capture.
    pub fn drain(&self, db: &Database) -> EngineResult<ValueDelta> {
        self.read(db, true)
    }

    /// Export the (un-drained) delta table with the Export utility — the
    /// "additional step of extracting out the delta table" of §3.
    pub fn export(&self, db: &Database, path: impl AsRef<Path>) -> EngineResult<u64> {
        delta_engine::util::export_table(db, &self.delta_table, path)
    }

    /// Decode every captured row into a delta under a table lock, deleting
    /// each row once it is decoded if `drain`.
    fn read(&self, db: &Database, drain: bool) -> EngineResult<ValueDelta> {
        let src = db.table(&self.source_table)?;
        let delta_meta = db.table(&self.delta_table)?;
        let mode = if drain {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        db.in_txn(|txn| {
            db.lock_table(txn, &self.delta_table, mode)?;
            let mut vd = ValueDelta::new(&self.source_table, src.schema.clone());
            db.for_each_row(&self.delta_table, |rid, row| {
                vd.records.push(decode_delta_row(&row)?);
                if drain {
                    db.delete_row(txn, &delta_meta, rid, row)?;
                }
                Ok(ControlFlow::Continue(()))
            })?;
            Ok(vd)
        })
    }
}

/// Decode one delta-table row `(op, txn, src columns...)` into a record.
pub fn decode_delta_row(row: &Row) -> EngineResult<ValueDeltaRecord> {
    let op_code = row.values()[0].as_str()?;
    let op = DeltaOp::from_code(op_code)
        .ok_or_else(|| EngineError::Invalid(format!("unknown delta op '{op_code}'")))?;
    let txn = row.values()[1].as_int()? as u64;
    Ok(ValueDeltaRecord {
        op,
        txn,
        row: Row::new(row.values()[2..].to_vec()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_engine::db::open_temp;
    use delta_storage::Value;

    fn setup() -> (std::sync::Arc<Database>, TriggerExtractor) {
        let db = open_temp("trigx").unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR, qty INT)")
            .unwrap();
        let x = TriggerExtractor::new("parts");
        x.install(&db).unwrap();
        (db, x)
    }

    #[test]
    fn captures_every_state_change_with_txn_context() {
        let (db, x) = setup();
        let mut s = db.session();
        s.execute("INSERT INTO parts VALUES (1, 'a', 0)").unwrap();
        s.execute("UPDATE parts SET qty = 1 WHERE id = 1").unwrap();
        s.execute("UPDATE parts SET qty = 2 WHERE id = 1").unwrap();
        s.execute("DELETE FROM parts WHERE id = 1").unwrap();
        let vd = x.peek(&db).unwrap();
        let ops: Vec<DeltaOp> = vd.records.iter().map(|r| r.op).collect();
        assert_eq!(
            ops,
            vec![
                DeltaOp::Insert,
                DeltaOp::UpdateBefore,
                DeltaOp::UpdateAfter,
                DeltaOp::UpdateBefore,
                DeltaOp::UpdateAfter,
                DeltaOp::Delete
            ],
            "unlike timestamps, every intermediate state is captured"
        );
        assert!(vd.has_txn_context(), "trigger capture keeps txn ids");
        // Intermediate value qty=1 is visible.
        assert!(vd
            .records
            .iter()
            .any(|r| r.row.values()[2] == Value::Int(1)));
    }

    #[test]
    fn drain_clears_the_delta_table() {
        let (db, x) = setup();
        let mut s = db.session();
        s.execute("INSERT INTO parts VALUES (1, 'a', 0)").unwrap();
        let vd = x.drain(&db).unwrap();
        assert_eq!(vd.len(), 1);
        assert_eq!(db.row_count(&x.delta_table).unwrap(), 0);
        // New activity is captured afresh.
        s.execute("INSERT INTO parts VALUES (2, 'b', 0)").unwrap();
        let vd = x.drain(&db).unwrap();
        assert_eq!(vd.len(), 1);
        assert_eq!(vd.records[0].row.values()[0], Value::Int(2));
    }

    #[test]
    fn uninstall_stops_capture() {
        let (db, x) = setup();
        let mut s = db.session();
        s.execute("INSERT INTO parts VALUES (1, 'a', 0)").unwrap();
        x.uninstall(&db).unwrap();
        s.execute("INSERT INTO parts VALUES (2, 'b', 0)").unwrap();
        let vd = x.drain(&db).unwrap();
        assert_eq!(vd.len(), 1, "only the pre-uninstall change was captured");
    }

    #[test]
    fn rolled_back_transactions_leave_no_delta() {
        let (db, x) = setup();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO parts VALUES (1, 'a', 0)").unwrap();
        s.execute("ROLLBACK").unwrap();
        let vd = x.drain(&db).unwrap();
        assert!(
            vd.is_empty(),
            "triggered rows share the user txn's fate (same transaction context)"
        );
    }

    #[test]
    fn export_moves_delta_out_of_source() {
        let (db, x) = setup();
        let mut s = db.session();
        s.execute("INSERT INTO parts VALUES (1, 'a', 0)").unwrap();
        let path = db.options().dir.join("trig-delta.exp");
        let n = x.export(&db, &path).unwrap();
        assert_eq!(n, 1);
        assert!(path.exists());
    }

    #[test]
    fn decode_rejects_garbage_rows() {
        let bad = Row::new(vec![Value::Str("ZZ".into()), Value::Int(1)]);
        assert!(decode_delta_row(&bad).is_err());
    }
}
