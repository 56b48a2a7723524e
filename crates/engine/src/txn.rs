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
    /// Current trigger nesting depth (guards runaway recursion).
    pub trigger_depth: usize,
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
        self.wal_buffer
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    LogRecord::Insert { .. } | LogRecord::Delete { .. } | LogRecord::Update { .. }
                )
            })
            .count()
    }
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
}
