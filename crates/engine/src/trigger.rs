//! The capture trigger (§3.1.3, Figure 2).
//!
//! A capture trigger names a source table and a delta table. After each row
//! change to the source, inside the same transaction, the SQL executor
//! ([`crate::exec::execute`]) writes the change's images into the delta
//! table, one row per image, tagged with an op code and the transaction id:
//!
//! * insert  → one `I` row (new image),
//! * delete  → one `D` row (old image),
//! * update  → two rows, `UB` (before image) and `UA` (after image).
//!
//! The images are read off the redo record the row primitive has just
//! logged ([`delta_rows`]), so the delta table holds exactly what the log
//! holds. The capture cost lands on the user transaction's response time —
//! the overhead Figure 2 measures — and a failed capture fails the
//! statement. Row primitives themselves fire nothing: recovery, log
//! application, Import and every warehouse write never capture.

use std::sync::Arc;

use parking_lot::RwLock;

use delta_storage::{Column, DataType, Row, Schema, Value};

use crate::error::{EngineError, EngineResult};
use crate::wal::LogRecord;

/// Op codes written into delta tables.
pub mod opcode {
    /// Row inserted.
    pub const INSERT: &str = "I";
    /// Row deleted.
    pub const DELETE: &str = "D";
    /// Pre-update image of an updated row.
    pub const UPDATE_BEFORE: &str = "UB";
    /// Post-update image of an updated row.
    pub const UPDATE_AFTER: &str = "UA";
}

/// A registered capture trigger: every row change to `table` is written
/// into `target` (created with [`delta_table_schema`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerDef {
    pub name: String,
    pub table: String,
    pub target: String,
}

impl TriggerDef {
    /// A capture trigger `name` on `table` writing into `target`.
    pub fn capture_all(
        name: impl Into<String>,
        table: impl Into<String>,
        target: impl Into<String>,
    ) -> TriggerDef {
        TriggerDef {
            name: name.into(),
            table: table.into(),
            target: target.into(),
        }
    }
}

/// The delta-table rows of one logged row change, in order: `I` + the new
/// image, `D` + the old image, or `UB` + the before image then `UA` + the
/// after image, each prefixed with the record's transaction id. Records
/// that change no row yield nothing.
pub fn delta_rows(rec: &LogRecord) -> Vec<Row> {
    let row = |op: &str, txn: u64, image: &Row| {
        let mut vals = Vec::with_capacity(image.len() + 2);
        vals.push(Value::Str(op.to_string()));
        vals.push(Value::Int(txn as i64));
        vals.extend(image.values().iter().cloned());
        Row::new(vals)
    };
    match rec {
        LogRecord::Insert { txn, row: new, .. } => vec![row(opcode::INSERT, txn.0, new)],
        LogRecord::Delete { txn, before, .. } => vec![row(opcode::DELETE, txn.0, before)],
        LogRecord::Update {
            txn, before, after, ..
        } => vec![
            row(opcode::UPDATE_BEFORE, txn.0, before),
            row(opcode::UPDATE_AFTER, txn.0, after),
        ],
        _ => Vec::new(),
    }
}

/// Schema of the delta table a capture trigger writes into: an op code, the
/// capturing transaction id, then every source column (made nullable,
/// keyless — a delta table never enforces the source's constraints).
pub fn delta_table_schema(source: &Schema) -> EngineResult<Schema> {
    let mut cols = vec![
        Column::new("delta_op", DataType::Varchar).not_null(),
        Column::new("delta_txn", DataType::Int).not_null(),
    ];
    for c in source.columns() {
        cols.push(Column::new(format!("src_{}", c.name), c.data_type));
    }
    Ok(Schema::new(cols)?)
}

/// Trigger registry: one per database.
#[derive(Default)]
pub struct TriggerManager {
    triggers: RwLock<Vec<Arc<TriggerDef>>>,
}

impl TriggerManager {
    /// Create an empty trigger registry.
    pub fn new() -> TriggerManager {
        TriggerManager::default()
    }

    /// Register a trigger (names must be unique).
    pub fn create(&self, def: TriggerDef) -> EngineResult<()> {
        let mut v = self.triggers.write();
        if v.iter().any(|t| t.name == def.name) {
            return Err(EngineError::AlreadyExists(def.name));
        }
        v.push(Arc::new(def));
        Ok(())
    }

    /// Remove a trigger by name.
    pub fn drop(&self, name: &str) -> EngineResult<()> {
        let mut v = self.triggers.write();
        let before = v.len();
        v.retain(|t| t.name != name);
        if v.len() == before {
            return Err(EngineError::NoSuchObject(name.to_string()));
        }
        Ok(())
    }

    /// Remove every trigger on `table` (DROP TABLE).
    pub fn drop_for_table(&self, table: &str) {
        self.triggers.write().retain(|t| t.table != table);
    }

    /// The delta tables that capture `table`'s changes, in registration
    /// order.
    pub fn targets(&self, table: &str) -> Vec<String> {
        self.triggers
            .read()
            .iter()
            .filter(|t| t.table == table)
            .map(|t| t.target.clone())
            .collect()
    }

    /// Whether `table` has any triggers at all.
    pub fn has_any(&self, table: &str) -> bool {
        self.triggers.read().iter().any(|t| t.table == table)
    }

    /// Names of all registered triggers, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .triggers
            .read()
            .iter()
            .map(|t| t.name.clone())
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnId;

    fn source_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("name", DataType::Varchar),
        ])
        .unwrap()
    }

    fn row(i: i64, s: &str) -> Row {
        Row::new(vec![Value::Int(i), Value::Str(s.into())])
    }

    #[test]
    fn delta_schema_shape() {
        let d = delta_table_schema(&source_schema()).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.columns()[0].name, "delta_op");
        assert_eq!(d.columns()[2].name, "src_id");
        assert!(d.columns()[2].nullable, "delta columns must be nullable");
        assert!(d.primary_key_indices().is_empty());
    }

    #[test]
    fn delta_rows_per_record() {
        let txn = TxnId(7);
        let table = "parts".to_string();
        let ins = delta_rows(&LogRecord::Insert {
            txn,
            table: table.clone(),
            row: row(1, "a"),
        });
        assert_eq!(ins.len(), 1);
        assert_eq!(ins[0].values()[0], Value::Str("I".into()));
        assert_eq!(ins[0].values()[1], Value::Int(7));
        assert_eq!(&ins[0].values()[2..], row(1, "a").values());

        let upd = delta_rows(&LogRecord::Update {
            txn,
            table: table.clone(),
            before: row(1, "a"),
            after: row(1, "b"),
        });
        assert_eq!(upd.len(), 2, "update captures before AND after images");
        assert_eq!(upd[0].values()[0], Value::Str("UB".into()));
        assert_eq!(upd[0].values()[3], Value::Str("a".into()));
        assert_eq!(upd[1].values()[0], Value::Str("UA".into()));
        assert_eq!(upd[1].values()[3], Value::Str("b".into()));

        let del = delta_rows(&LogRecord::Delete {
            txn,
            table,
            before: row(1, "b"),
        });
        assert_eq!(del.len(), 1);
        assert_eq!(del[0].values()[0], Value::Str("D".into()));

        assert!(delta_rows(&LogRecord::Commit { txn }).is_empty());
    }

    #[test]
    fn manager_create_drop_targets() {
        let m = TriggerManager::new();
        m.create(TriggerDef::capture_all("a", "t", "d")).unwrap();
        assert!(m.create(TriggerDef::capture_all("a", "t", "d")).is_err());
        m.create(TriggerDef::capture_all("b", "u", "d2")).unwrap();
        assert!(m.has_any("t"));
        assert_eq!(m.targets("t"), vec!["d".to_string()]);
        assert!(m.targets("zzz").is_empty());
        m.drop("a").unwrap();
        assert!(!m.has_any("t"));
        assert!(m.drop("a").is_err());
        m.drop_for_table("u");
        assert_eq!(m.names().len(), 0);
    }
}
