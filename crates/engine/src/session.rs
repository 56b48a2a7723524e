//! Sessions: the engine's client API and the Op-Delta interception seam.
//!
//! A session executes SQL text or pre-parsed statements, with autocommit for
//! standalone DML and explicit `BEGIN`/`COMMIT`/`ROLLBACK` transactions. The
//! Op-Delta capture wrapper in `delta-core` wraps a `Session` and records
//! every write statement "right before it is submitted to the DBMS" (§4.2).

use std::sync::Arc;

use delta_sql::ast::Statement;
use delta_sql::parser::parse_statement;
use delta_storage::{Column, DataType, Schema};

use crate::catalog::TableOptions;
use crate::db::Database;
use crate::error::{EngineError, EngineResult};
use crate::exec::{self, QueryResult};
use crate::txn::Transaction;

/// An interactive session against one database.
pub struct Session {
    db: Arc<Database>,
    txn: Option<Transaction>,
}

impl Session {
    pub(crate) fn new(db: Arc<Database>) -> Session {
        Session { db, txn: None }
    }

    /// The database this session talks to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Whether an explicit transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Parse and execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> EngineResult<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute_stmt(&stmt)
    }

    /// Execute a pre-parsed statement.
    pub fn execute_stmt(&mut self, stmt: &Statement) -> EngineResult<QueryResult> {
        match stmt {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(EngineError::TxnState("transaction already open".into()));
                }
                self.txn = Some(self.db.begin());
                Ok(QueryResult::default())
            }
            Statement::Commit => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| EngineError::TxnState("COMMIT without BEGIN".into()))?;
                self.db.commit(txn)?;
                Ok(QueryResult::default())
            }
            Statement::Rollback => {
                let txn = self
                    .txn
                    .take()
                    .ok_or_else(|| EngineError::TxnState("ROLLBACK without BEGIN".into()))?;
                self.db.abort(txn)?;
                Ok(QueryResult::default())
            }
            Statement::CreateTable { name, columns } => {
                if self.txn.is_some() {
                    return Err(EngineError::TxnState(
                        "DDL is not allowed inside a transaction".into(),
                    ));
                }
                let schema = schema_from_defs(columns)?;
                // A TIMESTAMP column named `last_modified` is auto-stamped,
                // modelling sources that "support time stamps naturally".
                let auto = schema
                    .column("last_modified")
                    .filter(|c| c.data_type == DataType::Timestamp)
                    .map(|c| c.name.clone());
                self.db.create_table(
                    name,
                    schema,
                    TableOptions {
                        auto_timestamp: auto,
                    },
                )?;
                Ok(QueryResult::default())
            }
            Statement::DropTable { name } => {
                if self.txn.is_some() {
                    return Err(EngineError::TxnState(
                        "DDL is not allowed inside a transaction".into(),
                    ));
                }
                self.db.drop_table(name)?;
                Ok(QueryResult::default())
            }
            Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            } => {
                if self.txn.is_some() {
                    return Err(EngineError::TxnState(
                        "DDL is not allowed inside a transaction".into(),
                    ));
                }
                self.db.create_index(name, table, column, *unique)?;
                Ok(QueryResult::default())
            }
            Statement::DropIndex { name } => {
                if self.txn.is_some() {
                    return Err(EngineError::TxnState(
                        "DDL is not allowed inside a transaction".into(),
                    ));
                }
                self.db.drop_index(name)?;
                Ok(QueryResult::default())
            }
            dml => match self.txn.as_mut() {
                Some(txn) => exec::execute(&self.db, txn, dml),
                // Autocommit: a fresh transaction per statement.
                None => self.db.in_txn(|txn| exec::execute(&self.db, txn, dml)),
            },
        }
    }

    /// Convenience: run several `;`-free statements in sequence.
    pub fn execute_all(&mut self, statements: &[&str]) -> EngineResult<()> {
        for s in statements {
            self.execute(s)?;
        }
        Ok(())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Abandoning an open transaction rolls it back, releasing its locks.
        if let Some(txn) = self.txn.take() {
            let _ = self.db.abort(txn);
        }
    }
}

/// Build a [`Schema`] from parsed column definitions.
pub fn schema_from_defs(defs: &[delta_sql::ast::ColumnDef]) -> EngineResult<Schema> {
    let mut cols = Vec::with_capacity(defs.len());
    for d in defs {
        let mut c = Column::new(d.name.clone(), d.data_type);
        if d.primary_key {
            c = c.primary_key();
        } else if d.not_null {
            c = c.not_null();
        }
        cols.push(c);
    }
    Ok(Schema::new(cols)?)
}
