//! Transaction bookkeeping.
//!
//! Transactions buffer their redo records and append them to the WAL
//! atomically at commit (see [`crate::wal`]), so the log contains only
//! committed work. Rollback is served from an in-memory undo list — the
//! classic no-steal simplification. Undo also restores index entries.

use std::sync::atomic::{AtomicU64, Ordering};

use delta_storage::{RecordId, Row};

use crate::wal::LogRecord;

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// One undoable action, recorded in execution order.
#[derive(Debug, Clone)]
pub enum UndoEntry {
    /// Row was inserted at `rid`; undo deletes it.
    Insert { table: String, rid: RecordId },
    /// Row (`before`) was deleted from `rid`; undo re-inserts it.
    Delete {
        table: String,
        rid: RecordId,
        before: Row,
    },
    /// Row was updated; `rid` is where the new version lives now, `old_rid`
    /// where the old one lived (they differ when the row had to move),
    /// `before` is the old image; undo writes `before` back over it.
    Update {
        table: String,
        rid: RecordId,
        old_rid: RecordId,
        before: Row,
    },
}

/// State carried by an open transaction.
#[derive(Debug, Default)]
pub struct Transaction {
    pub id: TxnId,
    /// Redo records to publish at commit.
    pub wal_buffer: Vec<LogRecord>,
    /// Undo actions, applied in reverse on rollback.
    pub undo: Vec<UndoEntry>,
    /// Tables this transaction holds locks on.
    pub locked_tables: Vec<String>,
}

impl Transaction {
    /// Start a transaction with the given id.
    pub fn new(id: TxnId) -> Transaction {
        Transaction {
            id,
            ..Default::default()
        }
    }

    /// Record a table as locked (deduplicated).
    pub fn note_lock(&mut self, table: &str) {
        if !self.locked_tables.iter().any(|t| t == table) {
            self.locked_tables.push(table.to_string());
        }
    }

    /// Number of row-level changes buffered so far.
    pub fn change_count(&self) -> usize {
        self.wal_buffer.iter().filter(|r| r.is_row_change()).count()
    }

    /// The current end of the redo tail; row changes made from here on are
    /// what [`images_since`](Transaction::images_since) yields for this mark.
    pub fn redo_mark(&self) -> usize {
        self.wal_buffer.len()
    }

    /// The signed images of the rows of `table` this transaction changed
    /// since `mark`, in execution order and as stored: `+1` a row that
    /// entered the table, `-1` a row that left it, an update its before
    /// image (`-1`) then its after image (`+1`). Changes to other tables —
    /// a trigger's writes, a view's own rows — are skipped.
    pub fn images_since<'a>(
        &'a self,
        mark: usize,
        table: &'a str,
    ) -> impl Iterator<Item = (i64, &'a Row)> + 'a {
        images_of(self.wal_buffer.get(mark..).unwrap_or_default(), table)
    }

    /// Run `f` on [`images_since`](Transaction::images_since)`(mark,
    /// table)`, read in place from the redo records, while `f` writes
    /// through this transaction. The tail is held aside for the call and put
    /// back in front of what `f` logged, so the redo sequence is the tail,
    /// then `f`'s records — as if the images had been copied out first.
    pub fn with_images_since<R>(
        &mut self,
        mark: usize,
        table: &str,
        f: impl FnOnce(&mut Transaction, &[(i64, &Row)]) -> R,
    ) -> R {
        let at = mark.min(self.wal_buffer.len());
        let tail = self.wal_buffer.split_off(at);
        let images: Vec<(i64, &Row)> = images_of(&tail, table).collect();
        let out = f(self, &images);
        drop(images);
        self.wal_buffer.splice(at..at, tail);
        out
    }
}

/// The signed images of the rows of `table` that `records` change, in
/// order (see [`Transaction::images_since`]).
fn images_of<'a>(
    records: &'a [LogRecord],
    table: &'a str,
) -> impl Iterator<Item = (i64, &'a Row)> + 'a {
    records
        .iter()
        .filter(move |rec| rec.table() == Some(table))
        .flat_map(|rec| rec.images().into_iter().flatten())
}

/// Hands out transaction ids.
#[derive(Debug)]
pub struct TxnManager {
    next: AtomicU64,
}

impl TxnManager {
    /// Create a manager whose first transaction id is 1.
    pub fn new() -> TxnManager {
        TxnManager {
            next: AtomicU64::new(1),
        }
    }

    /// Allocate a fresh transaction.
    pub fn begin(&self) -> Transaction {
        Transaction::new(TxnId(self.next.fetch_add(1, Ordering::Relaxed)))
    }

    /// Highest id handed out so far (0 if none).
    pub fn last_issued(&self) -> u64 {
        self.next.load(Ordering::Relaxed).saturating_sub(1)
    }
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_storage::Value;

    #[test]
    fn txn_ids_are_unique_and_increasing() {
        let m = TxnManager::new();
        let a = m.begin();
        let b = m.begin();
        assert!(b.id > a.id);
        assert_eq!(m.last_issued(), b.id.0);
    }

    #[test]
    fn note_lock_deduplicates() {
        let mut t = Transaction::new(TxnId(1));
        t.note_lock("a");
        t.note_lock("a");
        t.note_lock("b");
        assert_eq!(t.locked_tables, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn change_count_ignores_control_records() {
        let mut t = Transaction::new(TxnId(1));
        t.wal_buffer.push(LogRecord::Begin { txn: t.id });
        t.wal_buffer.push(LogRecord::Insert {
            txn: t.id,
            table: "t".into(),
            row: Row::new(vec![Value::Int(1)]),
        });
        t.wal_buffer.push(LogRecord::Commit { txn: t.id });
        assert_eq!(t.change_count(), 1);
    }

    fn stored_rows(db: &crate::db::Database, table: &str) -> Vec<Row> {
        let rows = db.scan_table(table).unwrap();
        rows.into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn images_since_yields_stored_rows_signed_in_order_from_the_mark_for_one_table() {
        use crate::catalog::TableOptions;
        use crate::exec::execute;
        use crate::trigger::TriggerDef;
        use delta_sql::parser::parse_statement;
        use delta_storage::{Column, DataType, Schema};

        let db = crate::db::open_temp("txn-images").unwrap();
        // `price` coerces INT literals to DOUBLE on validation and
        // `last_modified` is stamped by the engine, so the stored row is
        // neither the statement's literal row nor the one before stamping.
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("price", DataType::Double),
            Column::new("last_modified", DataType::Timestamp),
        ])
        .unwrap();
        let stamped = TableOptions {
            auto_timestamp: Some("last_modified".into()),
        };
        db.create_table("t", schema.clone(), stamped).unwrap();
        db.create_table(
            "t_delta",
            crate::trigger::delta_table_schema(&schema).unwrap(),
            TableOptions::default(),
        )
        .unwrap();
        // A source-side capture trigger writes into another table inside the
        // same transaction.
        db.create_trigger(TriggerDef::capture_all("cap", "t", "t_delta"))
            .unwrap();
        let run = |txn: &mut Transaction, sql: &str| {
            execute(&db, txn, &parse_statement(sql).unwrap()).unwrap();
        };

        let mut txn = db.begin();
        run(&mut txn, "INSERT INTO t (id, price) VALUES (1, 5), (2, 7)");
        let inserted = stored_rows(&db, "t");
        assert_eq!(inserted[0].values()[1], Value::Double(5.0), "coerced");
        assert!(matches!(inserted[0].values()[2], Value::Timestamp(_)));
        let from_start: Vec<(i64, Row)> = txn
            .images_since(0, "t")
            .map(|(s, r)| (s, r.clone()))
            .collect();
        assert_eq!(
            from_start,
            vec![(1, inserted[0].clone()), (1, inserted[1].clone())]
        );

        let mark = txn.redo_mark();
        run(&mut txn, "UPDATE t SET price = 9 WHERE id = 1");
        let updated = stored_rows(&db, "t")
            .into_iter()
            .find(|r| r.values()[0] == Value::Int(1))
            .unwrap();
        assert_eq!(updated.values()[1], Value::Double(9.0));
        run(&mut txn, "DELETE FROM t WHERE id = 2");
        let since: Vec<(i64, Row)> = txn
            .images_since(mark, "t")
            .map(|(s, r)| (s, r.clone()))
            .collect();
        assert_eq!(
            since,
            vec![
                (-1, inserted[0].clone()),
                (1, updated),
                (-1, inserted[1].clone()),
            ]
        );
        // The trigger's rows are in the tail, under their own table only:
        // I, I before the mark; UB, UA, D after it.
        assert_eq!(txn.images_since(0, "t_delta").count(), 5);
        assert_eq!(txn.images_since(mark, "t_delta").count(), 3);
        assert!(txn.images_since(mark, "t_delta").all(|(s, _)| s == 1));
        assert_eq!(txn.images_since(txn.redo_mark(), "t").count(), 0);
        assert_eq!(txn.images_since(usize::MAX, "t").count(), 0);
        db.abort(txn).unwrap();
    }
}
