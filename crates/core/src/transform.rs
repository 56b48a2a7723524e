//! Delta transformation: the cleansing/reshaping stage between extraction
//! and transport (Figure 1), and the flexibility §5 credits the timestamp
//! and trigger methods with — *"restricting, sub-setting, and when
//! appropriate aggregating deltas during the extraction process"*.
//!
//! A [`DeltaTransform`] maps a value-delta stream onto the warehouse's
//! schema: it **restricts** rows with a predicate and **subsets/reshapes**
//! columns (copies, renames, computed expressions).
//!
//! Restriction over a *delta* stream is subtler than a WHERE clause over a
//! table: an update whose before-image satisfied the predicate but whose
//! after-image does not must become a **delete** at the warehouse (the row
//! left the restricted subset), and the converse must become an **insert**
//! — the standard selection-view maintenance rules, applied at extraction
//! time. (Aggregation-at-extraction is intentionally not offered here; the
//! warehouse's aggregate views maintain summaries exactly, which a lossy
//! pre-aggregation could not.)

use delta_engine::{EngineError, EngineResult};
use delta_sql::ast::Expr;
use delta_sql::eval::CompiledExpr;
#[cfg(test)]
use delta_storage::Value;
use delta_storage::{Column, DataType, Row, Schema};

use crate::model::{DeltaOp, ValueDelta, ValueDeltaRecord};

/// One output column of a transform.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnTransform {
    /// Copy a source column, optionally under a new name.
    Copy {
        source: String,
        rename: Option<String>,
    },
    /// Compute a new column from an expression over the source row.
    Computed {
        name: String,
        expr: Expr,
        data_type: DataType,
    },
}

impl ColumnTransform {
    /// Copy `source` unchanged.
    pub fn copy(source: impl Into<String>) -> ColumnTransform {
        ColumnTransform::Copy {
            source: source.into(),
            rename: None,
        }
    }

    /// Copy `source` as `name`.
    pub fn renamed(source: impl Into<String>, name: impl Into<String>) -> ColumnTransform {
        ColumnTransform::Copy {
            source: source.into(),
            rename: Some(name.into()),
        }
    }

    /// Compute `name` from `expr`.
    pub fn computed(name: impl Into<String>, expr: Expr, data_type: DataType) -> ColumnTransform {
        ColumnTransform::Computed {
            name: name.into(),
            expr,
            data_type,
        }
    }

    /// The name this column has in the transformed output.
    pub fn output_name(&self) -> &str {
        match self {
            ColumnTransform::Copy { source, rename } => rename.as_deref().unwrap_or(source),
            ColumnTransform::Computed { name, .. } => name,
        }
    }
}

/// A restriction + reshaping of a value-delta stream.
#[derive(Debug, Clone, Default)]
pub struct DeltaTransform {
    /// Row filter over *source* columns (None = keep everything).
    pub restrict: Option<Expr>,
    /// Output columns (empty = keep the source schema unchanged).
    pub columns: Vec<ColumnTransform>,
}

impl DeltaTransform {
    /// Create an identity transform (no column rules).
    pub fn new() -> DeltaTransform {
        DeltaTransform::default()
    }

    /// Add a restriction predicate.
    pub fn restrict(mut self, predicate: Expr) -> DeltaTransform {
        self.restrict = Some(predicate);
        self
    }

    /// Set the output columns.
    pub fn columns(mut self, columns: Vec<ColumnTransform>) -> DeltaTransform {
        self.columns = columns;
        self
    }

    /// The output schema for `input`. Copied columns keep their type and
    /// key/null flags; computed columns are nullable non-keys.
    pub fn output_schema(&self, input: &Schema) -> EngineResult<Schema> {
        if self.columns.is_empty() {
            return Ok(input.clone());
        }
        let mut cols = Vec::with_capacity(self.columns.len());
        for t in &self.columns {
            match t {
                ColumnTransform::Copy { source, rename } => {
                    let src = input.column(source).ok_or_else(|| {
                        EngineError::Invalid(format!("unknown transform column '{source}'"))
                    })?;
                    let mut c = Column::new(
                        rename.clone().unwrap_or_else(|| source.clone()),
                        src.data_type,
                    );
                    if src.primary_key {
                        c = c.primary_key();
                    } else if !src.nullable {
                        c = c.not_null();
                    }
                    cols.push(c);
                }
                ColumnTransform::Computed {
                    name,
                    expr,
                    data_type,
                } => {
                    for col in expr.referenced_columns() {
                        if input.index_of(col).is_none() {
                            return Err(EngineError::Invalid(format!(
                                "computed column '{name}' references unknown column '{col}'"
                            )));
                        }
                    }
                    cols.push(Column::new(name.clone(), *data_type));
                }
            }
        }
        Ok(Schema::new(cols)?)
    }

    /// Bind the restriction and the output columns to `input`'s column
    /// positions, once per batch.
    fn bind(&self, input: &Schema) -> EngineResult<Bound> {
        let mut columns = Vec::with_capacity(self.columns.len());
        for t in &self.columns {
            columns.push(match t {
                ColumnTransform::Copy { source, .. } => {
                    Output::Copy(input.index_of(source).ok_or_else(|| {
                        EngineError::Invalid(format!("unknown transform column '{source}'"))
                    })?)
                }
                ColumnTransform::Computed {
                    expr, data_type, ..
                } => Output::Computed(CompiledExpr::for_schema(expr, input), *data_type),
            });
        }
        Ok(Bound {
            restrict: self
                .restrict
                .as_ref()
                .map(|p| CompiledExpr::for_schema(p, input)),
            columns,
        })
    }

    /// Transform one extracted batch: restrict rows (with the selection-view
    /// conversion rules for update pairs) and reshape the survivors.
    pub fn apply(&self, input: &ValueDelta, now: i64) -> EngineResult<ValueDelta> {
        let out_schema = self.output_schema(&input.schema)?;
        let bound = self.bind(&input.schema)?;
        let mut out = ValueDelta::new(input.table.clone(), out_schema);
        let mut i = 0;
        while i < input.records.len() {
            let rec = &input.records[i];
            match rec.op {
                DeltaOp::Insert => {
                    if bound.passes(&rec.row, now)? {
                        out.records.push(ValueDeltaRecord {
                            op: DeltaOp::Insert,
                            txn: rec.txn,
                            row: bound.reshape(&rec.row, now)?,
                        });
                    }
                    i += 1;
                }
                DeltaOp::Delete => {
                    if bound.passes(&rec.row, now)? {
                        out.records.push(ValueDeltaRecord {
                            op: DeltaOp::Delete,
                            txn: rec.txn,
                            row: bound.reshape(&rec.row, now)?,
                        });
                    }
                    i += 1;
                }
                DeltaOp::UpdateBefore => {
                    let after = input.records.get(i + 1).ok_or_else(|| {
                        EngineError::Invalid("dangling UB record in transform input".into())
                    })?;
                    if after.op != DeltaOp::UpdateAfter {
                        return Err(EngineError::Invalid(
                            "UB record not followed by UA in transform input".into(),
                        ));
                    }
                    let was_in = bound.passes(&rec.row, now)?;
                    let is_in = bound.passes(&after.row, now)?;
                    match (was_in, is_in) {
                        (true, true) => {
                            out.records.push(ValueDeltaRecord {
                                op: DeltaOp::UpdateBefore,
                                txn: rec.txn,
                                row: bound.reshape(&rec.row, now)?,
                            });
                            out.records.push(ValueDeltaRecord {
                                op: DeltaOp::UpdateAfter,
                                txn: after.txn,
                                row: bound.reshape(&after.row, now)?,
                            });
                        }
                        // Left the restricted subset: a delete downstream.
                        (true, false) => out.records.push(ValueDeltaRecord {
                            op: DeltaOp::Delete,
                            txn: rec.txn,
                            row: bound.reshape(&rec.row, now)?,
                        }),
                        // Entered the subset: an insert downstream.
                        (false, true) => out.records.push(ValueDeltaRecord {
                            op: DeltaOp::Insert,
                            txn: after.txn,
                            row: bound.reshape(&after.row, now)?,
                        }),
                        (false, false) => {}
                    }
                    i += 2;
                }
                DeltaOp::UpdateAfter => {
                    return Err(EngineError::Invalid(
                        "UA record without UB in transform input".into(),
                    ))
                }
            }
        }
        Ok(out)
    }
}

/// A [`DeltaTransform`] bound to one input schema.
struct Bound {
    restrict: Option<CompiledExpr>,
    /// Empty: keep the input row unchanged.
    columns: Vec<Output>,
}

/// How one output column is made from an input row.
enum Output {
    Copy(usize),
    Computed(CompiledExpr, DataType),
}

impl Bound {
    fn passes(&self, row: &Row, now: i64) -> EngineResult<bool> {
        match &self.restrict {
            None => Ok(true),
            Some(p) => p.matches(row.values(), now).map_err(EngineError::Eval),
        }
    }

    fn reshape(&self, row: &Row, now: i64) -> EngineResult<Row> {
        if self.columns.is_empty() {
            return Ok(row.clone());
        }
        let mut vals = Vec::with_capacity(self.columns.len());
        for column in &self.columns {
            vals.push(match column {
                Output::Copy(i) => row.values()[*i].clone(),
                Output::Computed(expr, data_type) => expr
                    .eval(row.values(), now)
                    .map_err(EngineError::Eval)?
                    .coerce_to(*data_type)?,
            });
        }
        Ok(Row::new(vals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_sql::parser::parse_expression;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("qty", DataType::Int),
            Column::new("secret", DataType::Varchar),
        ])
        .unwrap()
    }

    fn rec(op: DeltaOp, id: i64, qty: i64, secret: &str) -> ValueDeltaRecord {
        ValueDeltaRecord {
            op,
            txn: 1,
            row: Row::new(vec![
                Value::Int(id),
                Value::Int(qty),
                Value::Str(secret.into()),
            ]),
        }
    }

    fn delta(records: Vec<ValueDeltaRecord>) -> ValueDelta {
        let mut d = ValueDelta::new("t", schema());
        d.records = records;
        d
    }

    #[test]
    fn subsetting_drops_columns_and_keeps_key_flags() {
        let t = DeltaTransform::new().columns(vec![
            ColumnTransform::copy("id"),
            ColumnTransform::copy("qty"),
        ]);
        let out_schema = t.output_schema(&schema()).unwrap();
        assert_eq!(out_schema.len(), 2);
        assert_eq!(out_schema.primary_key_indices(), vec![0]);
        let out = t
            .apply(&delta(vec![rec(DeltaOp::Insert, 1, 5, "classified")]), 0)
            .unwrap();
        assert_eq!(out.records[0].row.len(), 2, "secret column gone");
    }

    #[test]
    fn renaming_and_computed_columns() {
        let t = DeltaTransform::new().columns(vec![
            ColumnTransform::renamed("id", "part_id"),
            ColumnTransform::computed(
                "double_qty",
                parse_expression("qty * 2").unwrap(),
                DataType::Int,
            ),
        ]);
        let out_schema = t.output_schema(&schema()).unwrap();
        assert_eq!(out_schema.columns()[0].name, "part_id");
        assert_eq!(out_schema.columns()[1].name, "double_qty");
        let out = t
            .apply(&delta(vec![rec(DeltaOp::Insert, 1, 5, "x")]), 0)
            .unwrap();
        assert_eq!(out.records[0].row.values()[1], Value::Int(10));
    }

    #[test]
    fn restriction_filters_inserts_and_deletes() {
        let t = DeltaTransform::new().restrict(parse_expression("qty >= 10").unwrap());
        let out = t
            .apply(
                &delta(vec![
                    rec(DeltaOp::Insert, 1, 5, "a"),
                    rec(DeltaOp::Insert, 2, 15, "b"),
                    rec(DeltaOp::Delete, 3, 3, "c"),
                    rec(DeltaOp::Delete, 4, 30, "d"),
                ]),
                0,
            )
            .unwrap();
        let ids: Vec<i64> = out
            .records
            .iter()
            .map(|r| r.row.values()[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![2, 4]);
    }

    #[test]
    fn updates_crossing_the_restriction_become_inserts_or_deletes() {
        let t = DeltaTransform::new().restrict(parse_expression("qty >= 10").unwrap());
        let out = t
            .apply(
                &delta(vec![
                    // stays in: update pair preserved
                    rec(DeltaOp::UpdateBefore, 1, 20, "a"),
                    rec(DeltaOp::UpdateAfter, 1, 30, "a"),
                    // leaves the subset: delete
                    rec(DeltaOp::UpdateBefore, 2, 15, "b"),
                    rec(DeltaOp::UpdateAfter, 2, 5, "b"),
                    // enters the subset: insert
                    rec(DeltaOp::UpdateBefore, 3, 2, "c"),
                    rec(DeltaOp::UpdateAfter, 3, 50, "c"),
                    // never in the subset: dropped
                    rec(DeltaOp::UpdateBefore, 4, 1, "d"),
                    rec(DeltaOp::UpdateAfter, 4, 2, "d"),
                ]),
                0,
            )
            .unwrap();
        let got: Vec<(DeltaOp, i64)> = out
            .records
            .iter()
            .map(|r| (r.op, r.row.values()[0].as_int().unwrap()))
            .collect();
        assert_eq!(
            got,
            vec![
                (DeltaOp::UpdateBefore, 1),
                (DeltaOp::UpdateAfter, 1),
                (DeltaOp::Delete, 2),
                (DeltaOp::Insert, 3),
            ]
        );
    }

    #[test]
    fn txn_context_is_preserved() {
        let t = DeltaTransform::new();
        let out = t
            .apply(&delta(vec![rec(DeltaOp::Insert, 1, 5, "x")]), 0)
            .unwrap();
        assert_eq!(out.records[0].txn, 1);
        assert!(out.has_txn_context());
    }

    #[test]
    fn bad_definitions_are_rejected() {
        let t = DeltaTransform::new().columns(vec![ColumnTransform::copy("nope")]);
        assert!(t.output_schema(&schema()).is_err());
        let t = DeltaTransform::new().columns(vec![ColumnTransform::computed(
            "x",
            parse_expression("missing + 1").unwrap(),
            DataType::Int,
        )]);
        assert!(t.output_schema(&schema()).is_err());
        // Malformed update pairs are rejected, not silently mangled.
        let t = DeltaTransform::new();
        assert!(t
            .apply(&delta(vec![rec(DeltaOp::UpdateBefore, 1, 1, "x")]), 0)
            .is_err());
        assert!(t
            .apply(&delta(vec![rec(DeltaOp::UpdateAfter, 1, 1, "x")]), 0)
            .is_err());
    }

    #[test]
    fn empty_transform_is_identity() {
        let t = DeltaTransform::new();
        let d = delta(vec![
            rec(DeltaOp::Insert, 1, 5, "x"),
            rec(DeltaOp::UpdateBefore, 2, 1, "y"),
            rec(DeltaOp::UpdateAfter, 2, 2, "y"),
        ]);
        assert_eq!(t.apply(&d, 0).unwrap(), d);
    }
}
