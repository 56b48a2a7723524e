//! Aggregate materialized views (summary tables).
//!
//! The paper's update-window discussion builds on Labio/Yerneni/
//! Garcia-Molina's aggregate-view maintenance work (the paper's ref.\[19\]);
//! warehouses keep
//! GROUP BY summary tables over the mirrored base data. This module
//! maintains such views incrementally from the same per-statement delta
//! stream the SPJ views use:
//!
//! * `COUNT` / `SUM` / `AVG` maintain in O(1) per changed row via hidden
//!   state columns (the classic counting algorithm);
//! * `MIN` / `MAX` maintain in O(1) on inserts and fall back to a per-group
//!   recompute when the current extreme is deleted (they are not
//!   incrementally maintainable under deletion without auxiliary state).
//!
//! A hidden `__rows` column tracks group liveness: a group's row disappears
//! exactly when its last base row does.

use delta_engine::db::Database;
use delta_engine::exec;
use delta_engine::lock::LockMode;
use delta_engine::txn::Transaction;
use delta_engine::{EngineError, EngineResult, TableOptions};
use delta_sql::ast::{AggFunc, Expr};
use delta_sql::eval::{EvalContext, SchemaRow};
use delta_storage::{Column, DataType, RecordId, Row, Schema, Value};

/// One aggregate column of the view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Aggregated base column; `None` only for `COUNT(*)`.
    pub column: Option<String>,
}

impl AggSpec {
    pub fn count_star() -> AggSpec {
        AggSpec {
            func: AggFunc::Count,
            column: None,
        }
    }

    pub fn of(func: AggFunc, column: impl Into<String>) -> AggSpec {
        AggSpec {
            func,
            column: Some(column.into()),
        }
    }

    /// Visible output column name.
    pub fn output_name(&self) -> String {
        match &self.column {
            Some(c) => format!("{}_{c}", self.func.name()),
            None => "count_star".to_string(),
        }
    }
}

/// Definition of an aggregate view over one mirror table.
#[derive(Debug, Clone)]
pub struct AggViewDef {
    /// Materialized table name.
    pub name: String,
    /// Base mirror table.
    pub table: String,
    /// Grouping columns (may be empty: a single global summary row).
    pub group_by: Vec<String>,
    /// Aggregate columns.
    pub aggregates: Vec<AggSpec>,
    /// Row filter over base columns, applied before aggregation.
    pub selection: Option<Expr>,
}

/// Runtime state of a registered aggregate view.
pub struct AggregateView {
    pub def: AggViewDef,
    base_schema: Schema,
    /// Base-schema positions of the grouping columns.
    group_pos: Vec<usize>,
    /// Base-schema positions of each aggregate's argument.
    agg_pos: Vec<Option<usize>>,
    /// View-schema positions: groups at 0..G, aggregates at G..G+A, then
    /// `__rows`, then per-aggregate hidden state (`__nn_i`, `__sum_i`).
    rows_pos: usize,
}

impl AggregateView {
    /// Validate the definition and create the backing table (empty).
    pub fn create(db: &Database, def: AggViewDef) -> EngineResult<AggregateView> {
        let base = db.table(&def.table)?;
        let base_schema = base.schema.clone();
        let mut group_pos = Vec::with_capacity(def.group_by.len());
        let mut cols: Vec<Column> = Vec::new();
        for g in &def.group_by {
            let pos = base_schema
                .index_of(g)
                .ok_or_else(|| EngineError::Invalid(format!("unknown group column '{g}'")))?;
            group_pos.push(pos);
            cols.push(Column::new(g.clone(), base_schema.columns()[pos].data_type));
        }
        if def.aggregates.is_empty() {
            return Err(EngineError::Invalid(
                "aggregate view needs at least one aggregate".into(),
            ));
        }
        let mut agg_pos = Vec::with_capacity(def.aggregates.len());
        for a in &def.aggregates {
            let pos = match (&a.column, a.func) {
                (None, AggFunc::Count) => None,
                (None, f) => return Err(EngineError::Invalid(format!("{f}(*) is not valid"))),
                (Some(c), _) => Some(base_schema.index_of(c).ok_or_else(|| {
                    EngineError::Invalid(format!("unknown aggregate column '{c}'"))
                })?),
            };
            let out_type = match (a.func, pos) {
                (AggFunc::Count, _) => DataType::Int,
                (AggFunc::Avg, _) => DataType::Double,
                (AggFunc::Sum | AggFunc::Min | AggFunc::Max, Some(p)) => {
                    base_schema.columns()[p].data_type
                }
                _ => unreachable!("validated above"),
            };
            cols.push(Column::new(a.output_name(), out_type));
            agg_pos.push(pos);
        }
        if let Some(sel) = &def.selection {
            for c in sel.referenced_columns() {
                if base_schema.index_of(c).is_none() {
                    return Err(EngineError::Invalid(format!(
                        "selection references unknown column '{c}'"
                    )));
                }
            }
        }
        let rows_pos = cols.len();
        cols.push(Column::new("__rows", DataType::Int).not_null());
        for (i, _) in def.aggregates.iter().enumerate() {
            cols.push(Column::new(format!("__nn_{i}"), DataType::Int));
            cols.push(Column::new(format!("__sum_{i}"), DataType::Double));
        }
        if db.table(&def.name).is_err() {
            db.create_table(&def.name, Schema::new(cols)?, TableOptions::default())?;
        }
        Ok(AggregateView {
            def,
            base_schema,
            group_pos,
            agg_pos,
            rows_pos,
        })
    }

    /// Whether `table` is this view's base.
    pub fn involves(&self, table: &str) -> bool {
        self.def.table == table
    }

    fn passes_selection(&self, db: &Database, row: &Row) -> EngineResult<bool> {
        match &self.def.selection {
            None => Ok(true),
            Some(sel) => {
                let resolver = SchemaRow {
                    schema: &self.base_schema,
                    row,
                };
                EvalContext::new(&resolver, db.peek_clock())
                    .matches(sel)
                    .map_err(EngineError::Eval)
            }
        }
    }

    fn group_key(&self, row: &Row) -> Vec<Value> {
        self.group_pos
            .iter()
            .map(|&p| row.values()[p].clone())
            .collect()
    }

    /// Find the view row for `key`, if present.
    fn find_group(&self, db: &Database, key: &[Value]) -> EngineResult<Option<(RecordId, Row)>> {
        for (rid, row) in db.scan_table(&self.def.name)? {
            let matches = key
                .iter()
                .enumerate()
                .all(|(i, k)| row.values()[i].total_cmp(k) == std::cmp::Ordering::Equal);
            if matches {
                return Ok(Some((rid, row)));
            }
        }
        Ok(None)
    }

    /// A fresh (all-empty) view row for `key`.
    fn empty_group_row(&self, key: &[Value]) -> Row {
        let g = key.len();
        let a = self.def.aggregates.len();
        let mut vals = Vec::with_capacity(g + a + 1 + 2 * a);
        vals.extend(key.iter().cloned());
        vals.extend(std::iter::repeat_n(Value::Null, a));
        vals.push(Value::Int(0)); // __rows
        for _ in 0..a {
            vals.push(Value::Int(0)); // __nn_i
            vals.push(Value::Double(0.0)); // __sum_i
        }
        Row::new(vals)
    }

    fn nn_pos(&self, i: usize) -> usize {
        self.rows_pos + 1 + 2 * i
    }

    fn sum_pos(&self, i: usize) -> usize {
        self.rows_pos + 2 + 2 * i
    }

    fn agg_out_pos(&self, i: usize) -> usize {
        self.group_pos.len() + i
    }

    /// Fold one base row into (or out of) a view row; `sign` is +1/-1.
    /// Returns the aggregate indices needing a MIN/MAX group recompute.
    fn fold(&self, view_row: &mut Row, base_row: &Row, sign: i64) -> EngineResult<Vec<usize>> {
        let rows = view_row.values()[self.rows_pos].as_int()? + sign;
        view_row.set(self.rows_pos, Value::Int(rows));
        let mut recompute = Vec::new();
        for (i, (spec, pos)) in self.def.aggregates.iter().zip(&self.agg_pos).enumerate() {
            let arg = pos.map(|p| &base_row.values()[p]);
            let arg_is_null = arg.map(|v| v.is_null()).unwrap_or(false);
            if arg.is_some() && arg_is_null {
                // NULL argument: invisible to every aggregate except COUNT(*).
                continue;
            }
            let nn = view_row.values()[self.nn_pos(i)].as_int()? + sign;
            view_row.set(self.nn_pos(i), Value::Int(nn));
            match spec.func {
                AggFunc::Count => {
                    view_row.set(
                        self.agg_out_pos(i),
                        Value::Int(match pos {
                            None => rows,
                            Some(_) => nn,
                        }),
                    );
                }
                AggFunc::Sum | AggFunc::Avg => {
                    let delta = arg
                        .ok_or_else(|| {
                            EngineError::Invalid("SUM/AVG aggregate lost its argument".into())
                        })?
                        .as_double()?;
                    let sum = view_row.values()[self.sum_pos(i)].as_double()? + sign as f64 * delta;
                    view_row.set(self.sum_pos(i), Value::Double(sum));
                    let out = if nn == 0 {
                        Value::Null
                    } else if spec.func == AggFunc::Avg {
                        Value::Double(sum / nn as f64)
                    } else {
                        // SUM keeps the base column's type.
                        let p = pos.ok_or_else(|| {
                            EngineError::Invalid("SUM aggregate lost its argument column".into())
                        })?;
                        match self.base_schema.columns()[p].data_type {
                            DataType::Int => Value::Int(sum as i64),
                            _ => Value::Double(sum),
                        }
                    };
                    view_row.set(self.agg_out_pos(i), out);
                }
                AggFunc::Min | AggFunc::Max => {
                    let v = arg.ok_or_else(|| {
                        EngineError::Invalid("MIN/MAX aggregate lost its argument".into())
                    })?;
                    let cur = &view_row.values()[self.agg_out_pos(i)];
                    if sign > 0 {
                        let better = cur.is_null()
                            || match spec.func {
                                AggFunc::Min => v.total_cmp(cur) == std::cmp::Ordering::Less,
                                _ => v.total_cmp(cur) == std::cmp::Ordering::Greater,
                            };
                        if better {
                            let v = v.clone();
                            view_row.set(self.agg_out_pos(i), v);
                        }
                    } else {
                        // Deleting the current extreme (or anything when nn
                        // hit 0) forces a recompute of this aggregate.
                        if nn == 0 {
                            view_row.set(self.agg_out_pos(i), Value::Null);
                        } else if v.total_cmp(cur) == std::cmp::Ordering::Equal {
                            recompute.push(i);
                        }
                    }
                }
            }
        }
        Ok(recompute)
    }

    /// Recompute the MIN/MAX aggregates in `recompute` for the group `key`
    /// by scanning the base mirror.
    fn recompute_extremes(
        &self,
        db: &Database,
        view_row: &mut Row,
        key: &[Value],
        recompute: &[usize],
    ) -> EngineResult<()> {
        if recompute.is_empty() {
            return Ok(());
        }
        let mut extremes: Vec<Value> = vec![Value::Null; recompute.len()];
        for (_, base_row) in db.scan_table(&self.def.table)? {
            if !self.passes_selection(db, &base_row)? {
                continue;
            }
            if self.group_key(&base_row) != key {
                continue;
            }
            for (slot, &i) in recompute.iter().enumerate() {
                let p = self.agg_pos[i].expect("MIN/MAX have arguments");
                let v = &base_row.values()[p];
                if v.is_null() {
                    continue;
                }
                let cur = &extremes[slot];
                let better = cur.is_null()
                    || match self.def.aggregates[i].func {
                        AggFunc::Min => v.total_cmp(cur) == std::cmp::Ordering::Less,
                        _ => v.total_cmp(cur) == std::cmp::Ordering::Greater,
                    };
                if better {
                    extremes[slot] = v.clone();
                }
            }
        }
        for (slot, &i) in recompute.iter().enumerate() {
            view_row.set(self.agg_out_pos(i), extremes[slot].clone());
        }
        Ok(())
    }

    fn apply_signed(
        &self,
        db: &Database,
        txn: &mut Transaction,
        base_row: &Row,
        sign: i64,
    ) -> EngineResult<u64> {
        if !self.passes_selection(db, base_row)? {
            return Ok(0);
        }
        let meta = db.table(&self.def.name)?;
        db.lock_table(txn, &self.def.name, LockMode::Exclusive)?;
        let key = self.group_key(base_row);
        let now = db.now_micros();
        match self.find_group(db, &key)? {
            Some((rid, stored)) => {
                let mut view_row = stored.clone();
                let recompute = self.fold(&mut view_row, base_row, sign)?;
                self.recompute_extremes(db, &mut view_row, &key, &recompute)?;
                if view_row.values()[self.rows_pos] == Value::Int(0) {
                    // The before image is the stored row: it is what an
                    // abort re-inserts and what redo must find by image.
                    db.delete_row(txn, &meta, rid, stored, now, false)?;
                } else {
                    db.update_row(txn, &meta, rid, stored, view_row, now, false, false)?;
                }
            }
            None => {
                if sign < 0 {
                    return Err(EngineError::Invalid(format!(
                        "delete for a group absent from aggregate view '{}'",
                        self.def.name
                    )));
                }
                let mut view_row = self.empty_group_row(&key);
                self.fold(&mut view_row, base_row, sign)?;
                db.insert_row(txn, &meta, view_row, now, false, false)?;
            }
        }
        Ok(1)
    }

    /// Batched maintenance: fold an ordered signed delta stream (`+1`
    /// insert, `-1` delete; an update contributes a `-1`/`+1` pair) into
    /// the view in one pass — one view-table scan locates every touched
    /// group, each record folds in memory, MIN/MAX recomputes are
    /// coalesced into at most one base scan for the whole batch, and each
    /// touched group is written exactly once. The final view state is
    /// identical to applying the records one at a time in stream order
    /// (see `batched_fold_matches_per_row_path` in the tests); only the
    /// number of intermediate row versions differs.
    pub fn apply_batch(
        &self,
        db: &Database,
        txn: &mut Transaction,
        table: &str,
        deltas: &[(i64, &Row)],
    ) -> EngineResult<u64> {
        if !self.involves(table) || deltas.is_empty() {
            return Ok(0);
        }
        let mut live: Vec<(i64, &Row)> = Vec::with_capacity(deltas.len());
        for &(sign, row) in deltas {
            if self.passes_selection(db, row)? {
                live.push((sign, row));
            }
        }
        if live.is_empty() {
            return Ok(0);
        }
        let keys_equal = |a: &[Value], b: &[Value]| {
            a.iter()
                .zip(b)
                .all(|(x, y)| x.total_cmp(y) == std::cmp::Ordering::Equal)
        };
        let touched = live.len() as u64;
        // Bucket the stream by group key, preserving per-group fold order.
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut folds: Vec<Vec<(i64, &Row)>> = Vec::new();
        for (sign, row) in live {
            let key = self.group_key(row);
            match keys.iter().position(|k| keys_equal(k, &key)) {
                Some(g) => folds[g].push((sign, row)),
                None => {
                    keys.push(key);
                    folds.push(vec![(sign, row)]);
                }
            }
        }
        let meta = db.table(&self.def.name)?;
        db.lock_table(txn, &self.def.name, LockMode::Exclusive)?;
        // One view-table scan locates every touched group.
        let mut found: Vec<Option<(RecordId, Row)>> = vec![None; keys.len()];
        for (rid, row) in db.scan_table(&self.def.name)? {
            let hit = keys
                .iter()
                .position(|k| keys_equal(&row.values()[..k.len()], k));
            if let Some(g) = hit {
                if found[g].is_none() {
                    found[g] = Some((rid, row));
                }
            }
        }
        // Fold each group's records in stream order, in memory.
        let mut view_rows: Vec<Row> = Vec::with_capacity(keys.len());
        let mut recomputes: Vec<Vec<usize>> = Vec::with_capacity(keys.len());
        for (g, key) in keys.iter().enumerate() {
            let mut view_row = match &found[g] {
                Some((_, row)) => row.clone(),
                None => self.empty_group_row(key),
            };
            let mut wanted: Vec<usize> = Vec::new();
            for &(sign, base_row) in &folds[g] {
                if sign < 0 && view_row.values()[self.rows_pos] == Value::Int(0) {
                    // Same condition the per-row path hits via a missing
                    // `find_group`: the group's row count ran out.
                    return Err(EngineError::Invalid(format!(
                        "delete for a group absent from aggregate view '{}'",
                        self.def.name
                    )));
                }
                for i in self.fold(&mut view_row, base_row, sign)? {
                    if !wanted.contains(&i) {
                        wanted.push(i);
                    }
                }
                if view_row.values()[self.rows_pos] == Value::Int(0) {
                    // The group died mid-batch: what follows starts from a
                    // fresh row, exactly as after the per-row path deleted
                    // it (no residue in the hidden sums, nothing to rescan).
                    view_row = self.empty_group_row(key);
                    wanted.clear();
                }
            }
            view_rows.push(view_row);
            recomputes.push(wanted);
        }
        // Coalesced MIN/MAX recomputes: one base scan serves every group.
        // Deferring them to the end of the batch is sound because the base
        // table is already in its final state for this drain, so a
        // recompute yields the same extreme no matter when it runs, and
        // later in-batch inserts can never beat that extreme (their values
        // are part of it).
        let jobs: Vec<usize> = (0..keys.len())
            .filter(|&g| {
                !recomputes[g].is_empty() && view_rows[g].values()[self.rows_pos] != Value::Int(0)
            })
            .collect();
        if !jobs.is_empty() {
            let mut extremes: Vec<Vec<Value>> = jobs
                .iter()
                .map(|&g| vec![Value::Null; recomputes[g].len()])
                .collect();
            for (_, base_row) in db.scan_table(&self.def.table)? {
                if !self.passes_selection(db, &base_row)? {
                    continue;
                }
                let key = self.group_key(&base_row);
                let Some(slot) = jobs.iter().position(|&g| keys_equal(&keys[g], &key)) else {
                    continue;
                };
                let g = jobs[slot];
                for (j, &i) in recomputes[g].iter().enumerate() {
                    let p = self.agg_pos[i].ok_or_else(|| {
                        EngineError::Invalid("MIN/MAX aggregate lost its argument".into())
                    })?;
                    let v = &base_row.values()[p];
                    if v.is_null() {
                        continue;
                    }
                    let cur = &extremes[slot][j];
                    let better = cur.is_null()
                        || match self.def.aggregates[i].func {
                            AggFunc::Min => v.total_cmp(cur) == std::cmp::Ordering::Less,
                            _ => v.total_cmp(cur) == std::cmp::Ordering::Greater,
                        };
                    if better {
                        extremes[slot][j] = v.clone();
                    }
                }
            }
            for (slot, &g) in jobs.iter().enumerate() {
                for (j, &i) in recomputes[g].iter().enumerate() {
                    view_rows[g].set(self.agg_out_pos(i), extremes[slot][j].clone());
                }
            }
        }
        // One write per touched group.
        let now = db.now_micros();
        for (g, view_row) in view_rows.into_iter().enumerate() {
            let empty = view_row.values()[self.rows_pos] == Value::Int(0);
            match (found[g].take(), empty) {
                // The before image is the stored row, not the folded one:
                // it is what an abort re-inserts and what redo must find.
                (Some((rid, stored)), true) => {
                    db.delete_row(txn, &meta, rid, stored, now, false)?;
                }
                (Some((rid, stored)), false) => {
                    db.update_row(txn, &meta, rid, stored, view_row, now, false, false)?;
                }
                // Created and emptied entirely within the batch: no row.
                (None, true) => {}
                (None, false) => {
                    db.insert_row(txn, &meta, view_row, now, false, false)?;
                }
            }
        }
        Ok(touched)
    }

    /// Maintenance entry points, mirroring [`crate::view::MaterializedView`].
    pub fn on_base_insert(
        &self,
        db: &Database,
        txn: &mut Transaction,
        table: &str,
        rows: &[Row],
    ) -> EngineResult<u64> {
        if !self.involves(table) {
            return Ok(0);
        }
        let mut n = 0;
        for r in rows {
            n += self.apply_signed(db, txn, r, 1)?;
        }
        Ok(n)
    }

    pub fn on_base_delete(
        &self,
        db: &Database,
        txn: &mut Transaction,
        table: &str,
        rows: &[Row],
    ) -> EngineResult<u64> {
        if !self.involves(table) {
            return Ok(0);
        }
        let mut n = 0;
        for r in rows {
            n += self.apply_signed(db, txn, r, -1)?;
        }
        Ok(n)
    }

    pub fn on_base_update(
        &self,
        db: &Database,
        txn: &mut Transaction,
        table: &str,
        old_rows: &[Row],
        new_rows: &[Row],
    ) -> EngineResult<u64> {
        let d = self.on_base_delete(db, txn, table, old_rows)?;
        let i = self.on_base_insert(db, txn, table, new_rows)?;
        Ok(d + i)
    }

    /// Rebuild from scratch inside `txn`.
    pub fn refresh_full(&self, db: &Database, txn: &mut Transaction) -> EngineResult<u64> {
        let meta = db.table(&self.def.name)?;
        db.lock_table(txn, &self.def.name, LockMode::Exclusive)?;
        let now = db.now_micros();
        for (rid, row) in db.scan_table(&self.def.name)? {
            db.delete_row(txn, &meta, rid, row, now, false)?;
        }
        let base_rows: Vec<Row> = db
            .scan_table(&self.def.table)?
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        self.on_base_insert(db, txn, &self.def.table, &base_rows)
    }

    /// The SELECT that recomputes this view from the base (used by tests to
    /// verify incremental maintenance).
    pub fn recompute_sql(&self) -> String {
        let mut items: Vec<String> = self.def.group_by.clone();
        for a in &self.def.aggregates {
            let expr = match &a.column {
                Some(c) => format!("{}({c})", a.func),
                None => "COUNT(*)".to_string(),
            };
            items.push(format!("{expr} AS {}", a.output_name()));
        }
        let mut sql = format!("SELECT {} FROM {}", items.join(", "), self.def.table);
        if let Some(sel) = &self.def.selection {
            sql.push_str(&format!(" WHERE {sel}"));
        }
        if !self.def.group_by.is_empty() {
            sql.push_str(&format!(" GROUP BY {}", self.def.group_by.join(", ")));
        }
        sql
    }

    /// Visible (non-hidden) portion of the materialized rows, sorted by
    /// group key.
    pub fn visible_rows(&self, db: &Database) -> EngineResult<Vec<Row>> {
        let visible = self.group_pos.len() + self.def.aggregates.len();
        let mut rows: Vec<Row> = db
            .scan_table(&self.def.name)?
            .into_iter()
            .map(|(_, r)| Row::new(r.values()[..visible].to_vec()))
            .collect();
        rows.sort_by(|a, b| {
            for (x, y) in a.values().iter().zip(b.values()) {
                let o = x.total_cmp(y);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(rows)
    }

    /// Recompute via SQL and compare against the materialization (test aid).
    pub fn verify_against_recompute(&self, db: &Database) -> EngineResult<bool> {
        let mut txn = db.begin();
        let stmt = delta_sql::parser::parse_statement(&self.recompute_sql())?;
        let result = exec::execute(db, &mut txn, &stmt);
        db.commit(txn)?;
        let mut expected = result?.rows;
        expected.sort_by(|a, b| {
            for (x, y) in a.values().iter().zip(b.values()) {
                let o = x.total_cmp(y);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        let actual = self.visible_rows(db)?;
        Ok(rows_equivalent(&expected, &actual))
    }
}

/// Compare result rows, treating Int and Double forms of the same number as
/// equal (SUM over an Int column materializes as Int; SQL recompute may agree
/// exactly, but keep the comparison robust).
fn rows_equivalent(a: &[Row], b: &[Row]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(x, y)| {
        x.len() == y.len()
            && x.values()
                .iter()
                .zip(y.values())
                .all(|(u, v)| u.sql_eq(v) == Some(true) || (u.is_null() && v.is_null()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_engine::db::open_temp;
    use delta_sql::parser::parse_expression;
    use std::sync::Arc;

    fn setup() -> (Arc<Database>, AggregateView) {
        let db = open_temp("aggview").unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE sales (id INT PRIMARY KEY, region VARCHAR, amount INT)")
            .unwrap();
        s.execute("INSERT INTO sales VALUES (1, 'west', 100), (2, 'west', 50), (3, 'east', 70)")
            .unwrap();
        let def = AggViewDef {
            name: "sales_by_region".into(),
            table: "sales".into(),
            group_by: vec!["region".into()],
            aggregates: vec![
                AggSpec::count_star(),
                AggSpec::of(AggFunc::Sum, "amount"),
                AggSpec::of(AggFunc::Avg, "amount"),
                AggSpec::of(AggFunc::Min, "amount"),
                AggSpec::of(AggFunc::Max, "amount"),
            ],
            selection: None,
        };
        let v = AggregateView::create(&db, def).unwrap();
        let mut txn = db.begin();
        v.refresh_full(&db, &mut txn).unwrap();
        db.commit(txn).unwrap();
        (db, v)
    }

    fn base_row(id: i64, region: &str, amount: i64) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Str(region.into()),
            Value::Int(amount),
        ])
    }

    #[test]
    fn full_refresh_matches_sql_recompute() {
        let (db, v) = setup();
        assert!(v.verify_against_recompute(&db).unwrap());
        let rows = v.visible_rows(&db).unwrap();
        assert_eq!(rows.len(), 2);
        // east: count 1, sum 70; west: count 2, sum 150, avg 75, min 50, max 100.
        assert_eq!(rows[0].values()[1], Value::Int(1));
        assert_eq!(rows[1].values()[2], Value::Int(150));
        assert_eq!(rows[1].values()[3], Value::Double(75.0));
        assert_eq!(rows[1].values()[4], Value::Int(50));
        assert_eq!(rows[1].values()[5], Value::Int(100));
    }

    #[test]
    fn insert_updates_group_or_creates_it() {
        let (db, v) = setup();
        db.session()
            .execute("INSERT INTO sales VALUES (4, 'west', 10), (5, 'north', 5)")
            .unwrap();
        let mut txn = db.begin();
        v.on_base_insert(
            &db,
            &mut txn,
            "sales",
            &[base_row(4, "west", 10), base_row(5, "north", 5)],
        )
        .unwrap();
        db.commit(txn).unwrap();
        assert!(v.verify_against_recompute(&db).unwrap());
        let rows = v.visible_rows(&db).unwrap();
        assert_eq!(rows.len(), 3, "north group appeared");
    }

    #[test]
    fn delete_shrinks_group_and_removes_empty_groups() {
        let (db, v) = setup();
        db.session()
            .execute("DELETE FROM sales WHERE id = 3")
            .unwrap();
        let mut txn = db.begin();
        v.on_base_delete(&db, &mut txn, "sales", &[base_row(3, "east", 70)])
            .unwrap();
        db.commit(txn).unwrap();
        assert!(v.verify_against_recompute(&db).unwrap());
        assert_eq!(v.visible_rows(&db).unwrap().len(), 1, "east group gone");
    }

    #[test]
    fn deleting_the_extreme_recomputes_min_max() {
        let (db, v) = setup();
        // Delete west's max (100): max must become 50 via recompute.
        db.session()
            .execute("DELETE FROM sales WHERE id = 1")
            .unwrap();
        let mut txn = db.begin();
        v.on_base_delete(&db, &mut txn, "sales", &[base_row(1, "west", 100)])
            .unwrap();
        db.commit(txn).unwrap();
        let rows = v.visible_rows(&db).unwrap();
        let west = &rows[1];
        assert_eq!(west.values()[4], Value::Int(50), "min");
        assert_eq!(west.values()[5], Value::Int(50), "max recomputed");
        assert!(v.verify_against_recompute(&db).unwrap());
    }

    #[test]
    fn update_moves_rows_between_groups() {
        let (db, v) = setup();
        db.session()
            .execute("UPDATE sales SET region = 'east', amount = 80 WHERE id = 2")
            .unwrap();
        let mut txn = db.begin();
        v.on_base_update(
            &db,
            &mut txn,
            "sales",
            &[base_row(2, "west", 50)],
            &[base_row(2, "east", 80)],
        )
        .unwrap();
        db.commit(txn).unwrap();
        assert!(v.verify_against_recompute(&db).unwrap());
        let rows = v.visible_rows(&db).unwrap();
        assert_eq!(rows[0].values()[1], Value::Int(2), "east count");
        assert_eq!(rows[1].values()[1], Value::Int(1), "west count");
    }

    #[test]
    fn selection_filters_base_rows() {
        let db = open_temp("aggview-sel").unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE sales (id INT PRIMARY KEY, region VARCHAR, amount INT)")
            .unwrap();
        s.execute("INSERT INTO sales VALUES (1, 'west', 100), (2, 'west', 5)")
            .unwrap();
        let def = AggViewDef {
            name: "big_sales".into(),
            table: "sales".into(),
            group_by: vec!["region".into()],
            aggregates: vec![AggSpec::count_star()],
            selection: Some(parse_expression("amount >= 50").unwrap()),
        };
        let v = AggregateView::create(&db, def).unwrap();
        let mut txn = db.begin();
        v.refresh_full(&db, &mut txn).unwrap();
        db.commit(txn).unwrap();
        let rows = v.visible_rows(&db).unwrap();
        assert_eq!(
            rows[0].values()[1],
            Value::Int(1),
            "small sale filtered out"
        );
        // An insert below the threshold is a no-op for the view.
        let mut txn = db.begin();
        let n = v
            .on_base_insert(&db, &mut txn, "sales", &[base_row(3, "west", 1)])
            .unwrap();
        db.commit(txn).unwrap();
        assert_eq!(n, 0);
        assert!(v.verify_against_recompute(&db).unwrap());
    }

    #[test]
    fn global_summary_without_group_by() {
        let (db, _) = setup();
        let def = AggViewDef {
            name: "totals".into(),
            table: "sales".into(),
            group_by: vec![],
            aggregates: vec![AggSpec::count_star(), AggSpec::of(AggFunc::Sum, "amount")],
            selection: None,
        };
        let v = AggregateView::create(&db, def).unwrap();
        let mut txn = db.begin();
        v.refresh_full(&db, &mut txn).unwrap();
        db.commit(txn).unwrap();
        let rows = v.visible_rows(&db).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values()[0], Value::Int(3));
        assert_eq!(rows[0].values()[1], Value::Int(220));
        assert!(v.verify_against_recompute(&db).unwrap());
    }

    #[test]
    fn rejects_bad_definitions() {
        let (db, _) = setup();
        let bad = AggViewDef {
            name: "x".into(),
            table: "sales".into(),
            group_by: vec!["nope".into()],
            aggregates: vec![AggSpec::count_star()],
            selection: None,
        };
        assert!(AggregateView::create(&db, bad).is_err());
        let bad = AggViewDef {
            name: "x".into(),
            table: "sales".into(),
            group_by: vec![],
            aggregates: vec![],
            selection: None,
        };
        assert!(AggregateView::create(&db, bad).is_err());
        let bad = AggViewDef {
            name: "x".into(),
            table: "sales".into(),
            group_by: vec![],
            aggregates: vec![AggSpec {
                func: AggFunc::Sum,
                column: None,
            }],
            selection: None,
        };
        assert!(AggregateView::create(&db, bad).is_err());
    }

    #[test]
    fn null_amounts_are_invisible_to_aggregates_but_count_star() {
        let db = open_temp("aggview-null").unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE sales (id INT PRIMARY KEY, region VARCHAR, amount INT)")
            .unwrap();
        s.execute("INSERT INTO sales VALUES (1, 'west', NULL), (2, 'west', 10)")
            .unwrap();
        let def = AggViewDef {
            name: "v".into(),
            table: "sales".into(),
            group_by: vec!["region".into()],
            aggregates: vec![
                AggSpec::count_star(),
                AggSpec::of(AggFunc::Count, "amount"),
                AggSpec::of(AggFunc::Sum, "amount"),
            ],
            selection: None,
        };
        let v = AggregateView::create(&db, def).unwrap();
        let mut txn = db.begin();
        v.refresh_full(&db, &mut txn).unwrap();
        db.commit(txn).unwrap();
        let rows = v.visible_rows(&db).unwrap();
        assert_eq!(rows[0].values()[1], Value::Int(2), "COUNT(*)");
        assert_eq!(rows[0].values()[2], Value::Int(1), "COUNT(amount)");
        assert_eq!(rows[0].values()[3], Value::Int(10));
        assert!(v.verify_against_recompute(&db).unwrap());
    }

    #[test]
    fn aborting_after_a_group_died_restores_the_stored_row() {
        // Both delete arms must hand `delete_row` the stored row as the
        // before image; with the folded (`__rows = 0`) row an abort would
        // bring back a zero-count group.
        let stored = |db: &Database| {
            let mut rows: Vec<Vec<u8>> = db
                .scan_table("sales_by_region")
                .unwrap()
                .into_iter()
                .map(|(_, r)| r.to_bytes())
                .collect();
            rows.sort();
            rows
        };
        let (db, v) = setup();
        let before = stored(&db);
        let last_of_east = base_row(3, "east", 70);
        let mut txn = db.begin();
        v.on_base_delete(&db, &mut txn, "sales", std::slice::from_ref(&last_of_east))
            .unwrap();
        assert_eq!(v.visible_rows(&db).unwrap().len(), 1);
        db.abort(txn).unwrap();
        assert_eq!(stored(&db), before, "per-row path");
        let mut txn = db.begin();
        v.apply_batch(&db, &mut txn, "sales", &[(-1, &last_of_east)])
            .unwrap();
        assert_eq!(v.visible_rows(&db).unwrap().len(), 1);
        db.abort(txn).unwrap();
        assert_eq!(stored(&db), before, "batched path");
    }

    #[test]
    fn group_that_dies_mid_batch_restarts_from_a_fresh_row() {
        // east (one row, 70) dies and is reborn inside one batch: the
        // reborn group's state must be that of a group born then, as the
        // per-row path (which deletes and re-creates the row) leaves it.
        let (db_a, v_a) = setup();
        let (db_b, v_b) = {
            let db = open_temp("aggview-reborn").unwrap();
            let mut s = db.session();
            s.execute("CREATE TABLE sales (id INT PRIMARY KEY, region VARCHAR, amount INT)")
                .unwrap();
            s.execute(
                "INSERT INTO sales VALUES (1, 'west', 100), (2, 'west', 50), (3, 'east', 70)",
            )
            .unwrap();
            let v = AggregateView::create(&db, v_a.def.clone()).unwrap();
            let mut txn = db.begin();
            v.refresh_full(&db, &mut txn).unwrap();
            db.commit(txn).unwrap();
            (db, v)
        };
        let (dead, reborn) = (base_row(3, "east", 70), base_row(4, "east", 9));
        for db in [&db_a, &db_b] {
            let mut s = db.session();
            s.execute("DELETE FROM sales WHERE id = 3").unwrap();
            s.execute("INSERT INTO sales VALUES (4, 'east', 9)")
                .unwrap();
        }
        let mut txn = db_a.begin();
        v_a.on_base_delete(&db_a, &mut txn, "sales", std::slice::from_ref(&dead))
            .unwrap();
        v_a.on_base_insert(&db_a, &mut txn, "sales", std::slice::from_ref(&reborn))
            .unwrap();
        db_a.commit(txn).unwrap();
        let mut txn = db_b.begin();
        v_b.apply_batch(&db_b, &mut txn, "sales", &[(-1, &dead), (1, &reborn)])
            .unwrap();
        db_b.commit(txn).unwrap();
        let raw = |db: &Database| -> Vec<Row> {
            let mut rows: Vec<Row> = db
                .scan_table("sales_by_region")
                .unwrap()
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            rows.sort_by(|a, b| a.values()[0].total_cmp(&b.values()[0]));
            rows
        };
        assert_eq!(raw(&db_a), raw(&db_b), "hidden state included");
        assert!(v_b.verify_against_recompute(&db_b).unwrap());
    }

    #[test]
    fn batched_fold_matches_per_row_path() {
        // The same image stream applied via `apply_batch` (one fold per
        // touched group) and via the per-row entry points must leave the
        // view identical — including group births, group deaths, and
        // MIN/MAX recomputes when an extreme leaves.
        let (db_a, v_a) = setup();
        let db_b = open_temp("aggview-batch").unwrap();
        let mut s = db_b.session();
        s.execute("CREATE TABLE sales (id INT PRIMARY KEY, region VARCHAR, amount INT)")
            .unwrap();
        s.execute("INSERT INTO sales VALUES (1, 'west', 100), (2, 'west', 50), (3, 'east', 70)")
            .unwrap();
        let v_b = AggregateView::create(&db_b, v_a.def.clone()).unwrap();
        let mut txn = db_b.begin();
        v_b.refresh_full(&db_b, &mut txn).unwrap();
        db_b.commit(txn).unwrap();

        // One drain: kill west's max, move a row into east, empty east
        // again, and birth a fresh group.
        let drain_sql = [
            "DELETE FROM sales WHERE id = 1",
            "UPDATE sales SET region = 'east', amount = 80 WHERE id = 2",
            "DELETE FROM sales WHERE id = 3",
            "DELETE FROM sales WHERE id = 2",
            "INSERT INTO sales VALUES (4, 'north', 5)",
        ];
        let del1 = base_row(1, "west", 100);
        let old2 = base_row(2, "west", 50);
        let new2 = base_row(2, "east", 80);
        let del3 = base_row(3, "east", 70);
        let del2 = base_row(2, "east", 80);
        let ins4 = base_row(4, "north", 5);
        let signed: Vec<(i64, &Row)> = vec![
            (-1, &del1),
            (-1, &old2),
            (1, &new2),
            (-1, &del3),
            (-1, &del2),
            (1, &ins4),
        ];

        for db in [&db_a, &db_b] {
            let mut s = db.session();
            for sql in drain_sql {
                s.execute(sql).unwrap();
            }
        }
        let mut txn = db_a.begin();
        v_a.on_base_delete(&db_a, &mut txn, "sales", std::slice::from_ref(&del1))
            .unwrap();
        v_a.on_base_update(
            &db_a,
            &mut txn,
            "sales",
            std::slice::from_ref(&old2),
            std::slice::from_ref(&new2),
        )
        .unwrap();
        v_a.on_base_delete(&db_a, &mut txn, "sales", std::slice::from_ref(&del3))
            .unwrap();
        v_a.on_base_delete(&db_a, &mut txn, "sales", std::slice::from_ref(&del2))
            .unwrap();
        v_a.on_base_insert(&db_a, &mut txn, "sales", std::slice::from_ref(&ins4))
            .unwrap();
        db_a.commit(txn).unwrap();
        let mut txn = db_b.begin();
        v_b.apply_batch(&db_b, &mut txn, "sales", &signed).unwrap();
        db_b.commit(txn).unwrap();

        assert!(v_a.verify_against_recompute(&db_a).unwrap());
        assert!(v_b.verify_against_recompute(&db_b).unwrap());
        assert_eq!(
            v_a.visible_rows(&db_a).unwrap(),
            v_b.visible_rows(&db_b).unwrap(),
            "batched fold diverged from the per-row path"
        );
    }
}
