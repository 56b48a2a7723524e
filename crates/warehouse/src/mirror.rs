//! Mirror tables and Op-Delta statement rewriting.
//!
//! The warehouse keeps a *mirror* of each source table it cares about — all
//! columns, or a projection (the [`MirrorScope`] of the self-maintainability
//! analysis). Shipped operations are rewritten against the mirror:
//!
//! * INSERTs drop values for unmirrored columns;
//! * UPDATEs drop SET items for unmirrored columns (the predicate is
//!   guaranteed evaluable by the capture-side analyzer — when it is not, the
//!   capture attached a before-image and [`MirrorConfig::hybrid_statements`]
//!   turns op + before-image into exact keyed statements, §4.1's hybrid);
//! * DELETEs pass through (or become keyed deletes in the hybrid path).

use delta_core::model::ValueDelta;
use delta_core::selfmaint::MirrorScope;
use delta_engine::db::Database;
use delta_engine::{EngineError, EngineResult, TableOptions};
use delta_sql::ast::{BinOp, Expr, Statement};
use delta_sql::eval::CompiledExpr;
use delta_storage::{Column, Row, Schema, Value};

/// Configuration of one mirror table.
#[derive(Debug, Clone)]
pub struct MirrorConfig {
    /// Source table name (and the mirror's name at the warehouse).
    pub table: String,
    /// Full source schema.
    pub source_schema: Schema,
    /// Which columns the warehouse keeps.
    pub scope: MirrorScope,
}

impl MirrorConfig {
    /// A full mirror.
    pub fn full(table: impl Into<String>, source_schema: Schema) -> MirrorConfig {
        MirrorConfig {
            table: table.into(),
            source_schema,
            scope: MirrorScope::Full,
        }
    }

    /// A column-projected mirror. The projection must include the source's
    /// primary key (checked in [`MirrorConfig::mirror_schema`]).
    pub fn projected(
        table: impl Into<String>,
        source_schema: Schema,
        columns: &[&str],
    ) -> MirrorConfig {
        MirrorConfig {
            table: table.into(),
            source_schema,
            scope: MirrorScope::Columns(columns.iter().map(|c| c.to_string()).collect()),
        }
    }

    /// Whether `column` is mirrored.
    pub fn covers(&self, column: &str) -> bool {
        match &self.scope {
            MirrorScope::Full => true,
            MirrorScope::Columns(cols) => cols.iter().any(|c| c == column),
        }
    }

    /// The source primary-key column (single-column keys required).
    pub fn key_column(&self) -> EngineResult<&Column> {
        let pk = self.source_schema.primary_key_indices();
        if pk.len() != 1 {
            return Err(EngineError::Invalid(format!(
                "mirror '{}' requires a single-column primary key",
                self.table
            )));
        }
        Ok(&self.source_schema.columns()[pk[0]])
    }

    /// Schema of the mirror table (source columns filtered by scope, key
    /// constraints preserved).
    pub fn mirror_schema(&self) -> EngineResult<Schema> {
        let key = self.key_column()?.name.clone();
        if !self.covers(&key) {
            return Err(EngineError::Invalid(format!(
                "mirror '{}' must include the source key column '{key}'",
                self.table
            )));
        }
        let cols: Vec<Column> = self
            .source_schema
            .columns()
            .iter()
            .filter(|c| self.covers(&c.name))
            .cloned()
            .collect();
        Ok(Schema::new(cols)?)
    }

    /// Create the mirror table in the warehouse database if missing.
    pub fn create_in(&self, db: &Database) -> EngineResult<()> {
        if db.table(&self.table).is_err() {
            db.create_table(&self.table, self.mirror_schema()?, TableOptions::default())?;
        }
        Ok(())
    }

    /// Rewrite a shipped source statement against the mirror. Returns
    /// `Ok(None)` when the statement cannot touch mirrored data.
    pub fn rewrite(&self, stmt: &Statement) -> EngineResult<Option<Statement>> {
        match stmt {
            Statement::Insert { columns, rows, .. } => {
                // Resolve the source column list.
                let src_cols: Vec<String> = match columns {
                    Some(cols) => cols.clone(),
                    None => self
                        .source_schema
                        .columns()
                        .iter()
                        .map(|c| c.name.clone())
                        .collect(),
                };
                if let Some(row) = rows.first() {
                    if row.len() != src_cols.len() {
                        return Err(EngineError::Invalid(
                            "INSERT arity does not match source schema".into(),
                        ));
                    }
                }
                let keep: Vec<usize> = src_cols
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| self.covers(c))
                    .map(|(i, _)| i)
                    .collect();
                let new_cols: Vec<String> = keep.iter().map(|&i| src_cols[i].clone()).collect();
                let new_rows: Vec<Vec<Expr>> = rows
                    .iter()
                    .map(|row| keep.iter().map(|&i| row[i].clone()).collect())
                    .collect();
                Ok(Some(Statement::Insert {
                    table: self.table.clone(),
                    columns: Some(new_cols),
                    rows: new_rows,
                }))
            }
            Statement::Update {
                sets, predicate, ..
            } => {
                let kept: Vec<(String, Expr)> = sets
                    .iter()
                    .filter(|(c, _)| self.covers(c))
                    .cloned()
                    .collect();
                if kept.is_empty() {
                    return Ok(None);
                }
                self.check_evaluable(predicate.as_ref())?;
                for (_, e) in &kept {
                    self.check_expr(e)?;
                }
                Ok(Some(Statement::Update {
                    table: self.table.clone(),
                    sets: kept,
                    predicate: predicate.clone(),
                }))
            }
            Statement::Delete { predicate, .. } => {
                self.check_evaluable(predicate.as_ref())?;
                Ok(Some(Statement::Delete {
                    table: self.table.clone(),
                    predicate: predicate.clone(),
                }))
            }
            other => Err(EngineError::Invalid(format!(
                "cannot replay {other} against a mirror"
            ))),
        }
    }

    fn check_evaluable(&self, predicate: Option<&Expr>) -> EngineResult<()> {
        if let Some(p) = predicate {
            self.check_expr(p)?;
        }
        Ok(())
    }

    fn check_expr(&self, e: &Expr) -> EngineResult<()> {
        for col in e.referenced_columns() {
            if !self.covers(col) {
                return Err(EngineError::Invalid(format!(
                    "operation references unmirrored column '{col}' and carries no before-image"
                )));
            }
        }
        Ok(())
    }

    /// Expand a hybrid op (statement + before-images of the affected source
    /// rows) into exact keyed mirror statements.
    pub fn hybrid_statements(
        &self,
        stmt: &Statement,
        before: &ValueDelta,
        now_micros: i64,
    ) -> EngineResult<Vec<Statement>> {
        let key = self.key_column()?.name.clone();
        let key_pos = self
            .source_schema
            .index_of(&key)
            .expect("key is in source schema");
        let keyed = |v: &Value| Expr::Binary {
            left: Box::new(Expr::Column(key.clone())),
            op: BinOp::Eq,
            right: Box::new(Expr::Literal(v.clone())),
        };
        match stmt {
            Statement::Delete { .. } => Ok(before
                .records
                .iter()
                .map(|r| Statement::Delete {
                    table: self.table.clone(),
                    predicate: Some(keyed(&r.row.values()[key_pos])),
                })
                .collect()),
            Statement::Update { sets, .. } => {
                // Each mirrored SET expression, compiled once against the
                // source schema.
                let sets: Vec<(&String, CompiledExpr)> = sets
                    .iter()
                    .filter(|(col, _)| self.covers(col))
                    .map(|(col, e)| (col, CompiledExpr::for_schema(e, &self.source_schema)))
                    .collect();
                let mut out = Vec::with_capacity(before.records.len());
                for r in &before.records {
                    // Evaluate each SET expression against the full source
                    // before-image, then write literal values keyed by pk.
                    let mut literal_sets = Vec::new();
                    for (col, e) in &sets {
                        let v = e
                            .eval(r.row.values(), now_micros)
                            .map_err(EngineError::Eval)?;
                        literal_sets.push(((*col).clone(), Expr::Literal(v)));
                    }
                    if literal_sets.is_empty() {
                        continue;
                    }
                    out.push(Statement::Update {
                        table: self.table.clone(),
                        sets: literal_sets,
                        predicate: Some(keyed(&r.row.values()[key_pos])),
                    });
                }
                Ok(out)
            }
            other => Err(EngineError::Invalid(format!(
                "hybrid expansion only applies to UPDATE/DELETE, got {other}"
            ))),
        }
    }

    /// Project a full source row image onto the mirror schema.
    pub fn project_row(&self, source_row: &Row) -> Row {
        let vals: Vec<Value> = self
            .source_schema
            .columns()
            .iter()
            .zip(source_row.values())
            .filter(|(c, _)| self.covers(&c.name))
            .map(|(_, v)| v.clone())
            .collect();
        Row::new(vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_core::model::{DeltaOp, ValueDeltaRecord};
    use delta_sql::parser::parse_statement;
    use delta_storage::DataType;

    fn source_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("status", DataType::Varchar),
            Column::new("customer", DataType::Varchar),
            Column::new("total", DataType::Int),
        ])
        .unwrap()
    }

    fn projected() -> MirrorConfig {
        MirrorConfig::projected("orders", source_schema(), &["id", "status"])
    }

    #[test]
    fn mirror_schema_projects_and_keeps_key() {
        let m = projected();
        let schema = m.mirror_schema().unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.primary_key_indices(), vec![0]);
        // Dropping the key is rejected.
        let bad = MirrorConfig::projected("orders", source_schema(), &["status"]);
        assert!(bad.mirror_schema().is_err());
    }

    #[test]
    fn insert_rewrite_projects_columns() {
        let m = projected();
        let stmt = parse_statement("INSERT INTO orders VALUES (1, 'open', 'acme', 100)").unwrap();
        let out = m.rewrite(&stmt).unwrap().unwrap();
        assert_eq!(
            out.to_string(),
            "INSERT INTO orders (id, status) VALUES (1, 'open')"
        );
        // Explicit column lists work too, in any order.
        let stmt =
            parse_statement("INSERT INTO orders (customer, id, status) VALUES ('b', 2, 'new')")
                .unwrap();
        let out = m.rewrite(&stmt).unwrap().unwrap();
        assert_eq!(
            out.to_string(),
            "INSERT INTO orders (id, status) VALUES (2, 'new')"
        );
    }

    #[test]
    fn update_rewrite_drops_unmirrored_sets() {
        let m = projected();
        let stmt =
            parse_statement("UPDATE orders SET status = 'closed', customer = 'x' WHERE id = 1")
                .unwrap();
        let out = m.rewrite(&stmt).unwrap().unwrap();
        assert_eq!(
            out.to_string(),
            "UPDATE orders SET status = 'closed' WHERE (id = 1)"
        );
        // All-unmirrored SET → no-op.
        let stmt = parse_statement("UPDATE orders SET customer = 'x' WHERE id = 1").unwrap();
        assert!(m.rewrite(&stmt).unwrap().is_none());
    }

    #[test]
    fn rewrite_rejects_unmirrored_predicate_without_before_image() {
        let m = projected();
        let stmt = parse_statement("DELETE FROM orders WHERE customer = 'acme'").unwrap();
        assert!(m.rewrite(&stmt).is_err());
        let stmt = parse_statement("UPDATE orders SET status = 'c' WHERE total > 10").unwrap();
        assert!(m.rewrite(&stmt).is_err());
    }

    #[test]
    fn full_mirror_passes_everything() {
        let m = MirrorConfig::full("orders", source_schema());
        let stmt = parse_statement("DELETE FROM orders WHERE customer = 'acme'").unwrap();
        let out = m.rewrite(&stmt).unwrap().unwrap();
        assert!(out.to_string().contains("customer"));
    }

    fn before_image() -> ValueDelta {
        let mut vd = ValueDelta::new("orders", source_schema());
        for (id, status, cust, total) in [(1, "open", "acme", 50), (3, "open", "acme", 70)] {
            vd.records.push(ValueDeltaRecord {
                op: DeltaOp::Delete,
                txn: 1,
                row: Row::new(vec![
                    Value::Int(id),
                    Value::Str(status.into()),
                    Value::Str(cust.into()),
                    Value::Int(total),
                ]),
            });
        }
        vd
    }

    #[test]
    fn hybrid_delete_becomes_keyed_deletes() {
        let m = projected();
        let stmt = parse_statement("DELETE FROM orders WHERE customer = 'acme'").unwrap();
        let out = m.hybrid_statements(&stmt, &before_image(), 0).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].to_string(), "DELETE FROM orders WHERE (id = 1)");
        assert_eq!(out[1].to_string(), "DELETE FROM orders WHERE (id = 3)");
    }

    #[test]
    fn hybrid_update_evaluates_sets_against_before_image() {
        let m = projected();
        // SET references the unmirrored column `customer` — only resolvable
        // from the before image.
        let stmt = parse_statement("UPDATE orders SET status = customer WHERE total > 10").unwrap();
        let out = m.hybrid_statements(&stmt, &before_image(), 0).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0].to_string(),
            "UPDATE orders SET status = 'acme' WHERE (id = 1)"
        );
    }

    #[test]
    fn project_row_filters_values() {
        let m = projected();
        let src = Row::new(vec![
            Value::Int(7),
            Value::Str("open".into()),
            Value::Str("acme".into()),
            Value::Int(1),
        ]);
        assert_eq!(
            m.project_row(&src),
            Row::new(vec![Value::Int(7), Value::Str("open".into())])
        );
    }
}
