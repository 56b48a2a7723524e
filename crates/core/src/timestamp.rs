//! Timestamp-based delta extraction (§3.1.1, Tables 2–3).
//!
//! `SELECT * FROM t WHERE last_modified > <since>` — applicable only to
//! sources that "support time stamps naturally". Three output modes, matching
//! Table 2's rows:
//!
//! * **file output** — write the matching rows to an ASCII dump file;
//! * **table output** — insert them into a local delta table (full engine
//!   write path: WAL, buffer pool, locks — hence the 2–3× cost of Table 2);
//! * **table output + Export** — additionally run the Export utility on the
//!   delta table, as required to move it out of the source DBMS.
//!
//! Inherent limitations, reproduced faithfully and covered by tests:
//! the method sees only the *final* state of each changed row (intermediate
//! states are unobservable), it cannot see deletions at all, and it loses
//! the source transaction context.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use delta_engine::db::Database;
use delta_engine::exec;
use delta_engine::lock::LockMode;
use delta_engine::{EngineError, EngineResult, TableOptions};
use delta_sql::ast::{BinOp, Expr};
use delta_storage::codec::ascii;
use delta_storage::{Row, Value};

use crate::model::{DeltaOp, ValueDelta, ValueDeltaRecord};

/// Timestamp-based extractor for one table.
#[derive(Debug, Clone)]
pub struct TimestampExtractor {
    pub table: String,
    pub ts_column: String,
}

impl TimestampExtractor {
    /// Create an extractor scanning `table` by its `ts_column` timestamps.
    pub fn new(table: impl Into<String>, ts_column: impl Into<String>) -> TimestampExtractor {
        TimestampExtractor {
            table: table.into(),
            ts_column: ts_column.into(),
        }
    }

    fn predicate(&self, since: i64) -> Expr {
        Expr::Binary {
            left: Box::new(Expr::Column(self.ts_column.clone())),
            op: BinOp::Gt,
            right: Box::new(Expr::Literal(Value::Timestamp(since))),
        }
    }

    /// Rows modified after `since` (the raw query both outputs share).
    fn matching(&self, db: &Database, since: i64) -> EngineResult<Vec<Row>> {
        let meta = db.table(&self.table)?;
        if meta.schema.column(&self.ts_column).is_none() {
            return Err(EngineError::NoSuchObject(format!(
                "{}.{}",
                self.table, self.ts_column
            )));
        }
        db.in_txn(|txn| {
            db.lock_table(txn, &self.table, LockMode::Shared)?;
            let pred = self.predicate(since);
            let rows = exec::matching_rows(db, &meta, Some(&pred), db.now_micros())?;
            Ok(rows.into_iter().map(|(_, r)| r).collect())
        })
    }

    /// Extract as an in-memory value delta (every record an after-image
    /// `Insert`, with no transaction context — the method cannot know it).
    pub fn extract(&self, db: &Database, since: i64) -> EngineResult<ValueDelta> {
        let meta = db.table(&self.table)?;
        let rows = self.matching(db, since)?;
        let mut vd = ValueDelta::new(&self.table, meta.schema.clone());
        vd.records
            .extend(rows.into_iter().map(|row| ValueDeltaRecord {
                op: DeltaOp::Insert,
                txn: 0,
                row,
            }));
        Ok(vd)
    }

    /// **File output**: write matching rows to an ASCII dump at `path`.
    /// Returns the number of rows extracted.
    pub fn extract_to_file(
        &self,
        db: &Database,
        since: i64,
        path: impl AsRef<Path>,
    ) -> EngineResult<u64> {
        let rows = self.matching(db, since)?;
        let mut out = BufWriter::new(File::create(path.as_ref())?);
        let mut n = 0u64;
        for row in &rows {
            writeln!(out, "{}", ascii::format_row(row))?;
            n += 1;
        }
        out.flush()?;
        Ok(n)
    }

    /// **Table output**: insert matching rows into the local delta table
    /// `target` (created with the source schema, sans constraints, if
    /// absent). Returns the number of rows extracted.
    pub fn extract_to_table(&self, db: &Database, since: i64, target: &str) -> EngineResult<u64> {
        let meta = db.table(&self.table)?;
        if db.table(target).is_err() {
            // Delta tables carry the source columns without keys/not-null.
            let cols = meta
                .schema
                .columns()
                .iter()
                .map(|c| delta_storage::Column::new(c.name.clone(), c.data_type))
                .collect();
            db.create_table(
                target,
                delta_storage::Schema::new(cols)?,
                TableOptions::default(),
            )?;
        }
        let target_meta = db.table(target)?;
        let rows = self.matching(db, since)?;
        db.in_txn(|txn| {
            db.lock_table(txn, target, LockMode::Exclusive)?;
            let mut n = 0u64;
            for row in rows {
                db.insert_row(txn, &target_meta, row)?;
                n += 1;
            }
            Ok(n)
        })
    }

    /// **Table output + Export**: table output, then the Export utility on
    /// the delta table (Table 2's third row). Returns rows extracted.
    pub fn extract_to_table_and_export(
        &self,
        db: &Database,
        since: i64,
        target: &str,
        export_path: impl AsRef<Path>,
    ) -> EngineResult<u64> {
        let n = self.extract_to_table(db, since, target)?;
        delta_engine::util::export_table(db, target, export_path)?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_engine::db::open_temp;

    fn setup() -> (std::sync::Arc<Database>, TimestampExtractor) {
        let db = open_temp("tsx").unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR, last_modified TIMESTAMP)")
            .unwrap();
        for i in 0..10 {
            s.execute(&format!(
                "INSERT INTO parts (id, name) VALUES ({i}, 'p{i}')"
            ))
            .unwrap();
        }
        (db, TimestampExtractor::new("parts", "last_modified"))
    }

    #[test]
    fn extracts_only_rows_after_watermark() {
        let (db, x) = setup();
        let watermark = db.peek_clock();
        let mut s = db.session();
        s.execute("UPDATE parts SET name = 'changed' WHERE id < 3")
            .unwrap();
        s.execute("INSERT INTO parts (id, name) VALUES (100, 'new')")
            .unwrap();
        let vd = x.extract(&db, watermark).unwrap();
        assert_eq!(vd.len(), 4, "3 updates + 1 insert");
        assert!(vd.records.iter().all(|r| r.op == DeltaOp::Insert));
        assert!(!vd.has_txn_context(), "timestamp method loses txn context");
    }

    #[test]
    fn sees_only_final_state_of_multiply_updated_rows() {
        let (db, x) = setup();
        let watermark = db.peek_clock();
        let mut s = db.session();
        s.execute("UPDATE parts SET name = 'v1' WHERE id = 0")
            .unwrap();
        s.execute("UPDATE parts SET name = 'v2' WHERE id = 0")
            .unwrap();
        let vd = x.extract(&db, watermark).unwrap();
        assert_eq!(vd.len(), 1, "one row, not one per state change");
        assert_eq!(vd.records[0].row.values()[1], Value::Str("v2".into()));
    }

    #[test]
    fn cannot_observe_deletions() {
        let (db, x) = setup();
        let watermark = db.peek_clock();
        let mut s = db.session();
        s.execute("DELETE FROM parts WHERE id = 5").unwrap();
        let vd = x.extract(&db, watermark).unwrap();
        assert!(vd.is_empty(), "deleted rows are invisible to timestamps");
    }

    #[test]
    fn file_output_round_trips_through_loader_format() {
        let (db, x) = setup();
        let path = db.options().dir.join("delta.txt");
        let n = x.extract_to_file(&db, 0, &path).unwrap();
        assert_eq!(n, 10);
        let meta = db.table("parts").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let rows = ascii::read_rows(&mut text.as_bytes(), &meta.schema).unwrap();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn table_output_creates_and_fills_delta_table() {
        let (db, x) = setup();
        let n = x.extract_to_table(&db, 0, "parts_tsdelta").unwrap();
        assert_eq!(n, 10);
        assert_eq!(db.row_count("parts_tsdelta").unwrap(), 10);
        // Re-extract appends (the client is responsible for truncation).
        let watermark = db.peek_clock();
        db.session()
            .execute("INSERT INTO parts (id, name) VALUES (55, 'x')")
            .unwrap();
        let n = x.extract_to_table(&db, watermark, "parts_tsdelta").unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.row_count("parts_tsdelta").unwrap(), 11);
    }

    #[test]
    fn table_output_plus_export_produces_dump() {
        let (db, x) = setup();
        let path = db.options().dir.join("delta.exp");
        let n = x.extract_to_table_and_export(&db, 0, "d1", &path).unwrap();
        assert_eq!(n, 10);
        assert!(path.exists());
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
    }

    #[test]
    fn missing_timestamp_column_is_an_error() {
        let (db, _) = setup();
        let bad = TimestampExtractor::new("parts", "nonexistent");
        assert!(bad.extract(&db, 0).is_err());
    }
}
