//! Key-preserving select-project-join (SPJ) materialized views.
//!
//! A view joins mirror tables on equi-join conditions, filters with a
//! selection predicate, and projects columns. Combined rows expose columns
//! under the name `<table>_<column>`; the selection predicate and the
//! projection both use those names.
//!
//! Views must be **key-preserving**: the projection must include the primary
//! key of every joined table. This is the classical sufficient condition for
//! exact incremental maintenance without multiplicity counters — every view
//! row is uniquely attributable to the base-row combination that produced it,
//! so base deletes/updates map to precise view deletes. (It is also the
//! regime the paper's companion TR \[8\] works in: warehouse schemas that
//! aggregate source schemas while retaining identifying keys.)

use std::collections::BTreeMap;

use delta_engine::db::Database;
use delta_engine::index::IndexKey;
use delta_engine::lock::LockMode;
use delta_engine::txn::Transaction;
use delta_engine::{EngineError, EngineResult, TableOptions};
use delta_sql::ast::Expr;
use delta_sql::eval::{EvalContext, RowResolver};
use delta_storage::{Column, RecordId, Row, Schema, Value};

/// An equi-join condition `left_table.left_col = right_table.right_col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCond {
    pub left_table: String,
    pub left_col: String,
    pub right_table: String,
    pub right_col: String,
}

impl JoinCond {
    pub fn new(
        left_table: impl Into<String>,
        left_col: impl Into<String>,
        right_table: impl Into<String>,
        right_col: impl Into<String>,
    ) -> JoinCond {
        JoinCond {
            left_table: left_table.into(),
            left_col: left_col.into(),
            right_table: right_table.into(),
            right_col: right_col.into(),
        }
    }
}

/// An SPJ view definition.
#[derive(Debug, Clone)]
pub struct SpjView {
    /// Name of the materialized table in the warehouse.
    pub name: String,
    /// Mirror tables joined, in join order.
    pub tables: Vec<String>,
    /// Equi-join conditions (each must link a table to an earlier one).
    pub joins: Vec<JoinCond>,
    /// Selection over combined `<table>_<column>` names.
    pub selection: Option<Expr>,
    /// Projected `(table, column)` pairs; output column `<table>_<column>`.
    pub projection: Vec<(String, String)>,
}

impl SpjView {
    /// Output column name for a projected pair.
    pub fn output_name(table: &str, column: &str) -> String {
        format!("{table}_{column}")
    }

    /// Whether `table` participates in this view.
    pub fn involves(&self, table: &str) -> bool {
        self.tables.iter().any(|t| t == table)
    }

    /// Whether this view joins a table that `other` also touches. Views
    /// sharing a base table must maintain under the same apply worker:
    /// their join reads and view-table locks overlap (see
    /// [`crate::apply::Warehouse::apply_classes`]).
    pub fn shares_base_with(&self, other: &SpjView) -> bool {
        self.tables.iter().any(|t| other.involves(t))
    }
}

/// A combined (joined) row: values addressable as `<table>_<column>`.
struct CombinedRow<'a> {
    names: &'a [String],
    values: Vec<Value>,
}

impl RowResolver for CombinedRow<'_> {
    fn resolve(&self, name: &str) -> Option<Value> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.values[i].clone())
    }
}

/// Runtime state for one registered view.
pub struct MaterializedView {
    pub def: SpjView,
    /// Combined-column names, in table order (all columns of every table).
    combined_names: Vec<String>,
    /// Per-table (start offset, schema) into the combined row.
    table_offsets: Vec<(String, usize, Schema)>,
    /// Positions (into the combined row) of each projected output column.
    projection_positions: Vec<usize>,
    /// Positions (into the view row) of each table's primary key, by table.
    key_positions_in_view: Vec<(String, usize)>,
    /// For each table (by position), the delta-join plan seeded at it.
    join_plans: Vec<Vec<JoinStep>>,
}

impl MaterializedView {
    /// Validate the definition against the mirror schemas and create the
    /// backing table. The view starts empty; call
    /// [`MaterializedView::refresh_full`] to materialize.
    pub fn create(db: &Database, def: SpjView) -> EngineResult<MaterializedView> {
        if def.tables.is_empty() {
            return Err(EngineError::Invalid("view needs at least one table".into()));
        }
        // Build combined layout.
        let mut combined_names = Vec::new();
        let mut table_offsets = Vec::new();
        for t in &def.tables {
            let meta = db.table(t)?;
            table_offsets.push((t.clone(), combined_names.len(), meta.schema.clone()));
            for c in meta.schema.columns() {
                combined_names.push(SpjView::output_name(t, &c.name));
            }
        }
        // Joins must reference known tables/columns, linking to an earlier table.
        for j in &def.joins {
            let li = def.tables.iter().position(|t| *t == j.left_table);
            let ri = def.tables.iter().position(|t| *t == j.right_table);
            let (Some(li), Some(ri)) = (li, ri) else {
                return Err(EngineError::Invalid(format!(
                    "join references unknown table in view '{}'",
                    def.name
                )));
            };
            if li == ri {
                return Err(EngineError::Invalid("self-join condition".into()));
            }
            for (t, c) in [(&j.left_table, &j.left_col), (&j.right_table, &j.right_col)] {
                if db.table(t)?.schema.index_of(c).is_none() {
                    return Err(EngineError::Invalid(format!(
                        "join column {t}.{c} does not exist"
                    )));
                }
            }
        }
        // Selection references only combined names.
        if let Some(sel) = &def.selection {
            for col in sel.referenced_columns() {
                if !combined_names.iter().any(|n| n == col) {
                    return Err(EngineError::Invalid(format!(
                        "selection references unknown combined column '{col}'"
                    )));
                }
            }
        }
        // Projection positions + key preservation.
        let mut projection_positions = Vec::new();
        let mut out_cols: Vec<Column> = Vec::new();
        for (t, c) in &def.projection {
            let name = SpjView::output_name(t, c);
            let pos = combined_names
                .iter()
                .position(|n| *n == name)
                .ok_or_else(|| {
                    EngineError::Invalid(format!("projection references unknown column {t}.{c}"))
                })?;
            projection_positions.push(pos);
            let (_, _, schema) = table_offsets
                .iter()
                .find(|(tt, _, _)| tt == t)
                .expect("validated above");
            let src_col = schema.column(c).expect("validated above");
            out_cols.push(Column::new(name, src_col.data_type));
        }
        let mut key_positions_in_view = Vec::new();
        for (t, _, schema) in &table_offsets {
            let pk = schema.primary_key_indices();
            if pk.len() != 1 {
                return Err(EngineError::Invalid(format!(
                    "view '{}' requires a single-column primary key on '{t}'",
                    def.name
                )));
            }
            let key_col = &schema.columns()[pk[0]].name;
            let out_name = SpjView::output_name(t, key_col);
            let view_pos = def
                .projection
                .iter()
                .position(|(pt, pc)| pt == t && pc == key_col)
                .ok_or_else(|| {
                    EngineError::Invalid(format!(
                        "view '{}' is not key-preserving: projection must include {t}.{key_col}",
                        def.name
                    ))
                })?;
            let _ = out_name;
            key_positions_in_view.push((t.clone(), view_pos));
        }
        if db.table(&def.name).is_err() {
            db.create_table(&def.name, Schema::new(out_cols)?, TableOptions::default())?;
        }
        let join_plans = (0..table_offsets.len())
            .map(|seed| join_plan(&def, &table_offsets, seed))
            .collect::<EngineResult<_>>()?;
        Ok(MaterializedView {
            def,
            combined_names,
            table_offsets,
            projection_positions,
            key_positions_in_view,
            join_plans,
        })
    }

    /// Position of `table` among the joined tables.
    fn slot_of(&self, table: &str) -> EngineResult<usize> {
        self.table_offsets
            .iter()
            .position(|(t, _, _)| t == table)
            .ok_or_else(|| {
                EngineError::Invalid(format!(
                    "table '{table}' is not part of view '{}'",
                    self.def.name
                ))
            })
    }

    /// Scan each table of `plan` once and index it on the column its first
    /// join condition probes.
    fn load_join_tables(&self, db: &Database, plan: &[JoinStep]) -> EngineResult<Vec<JoinTable>> {
        let mut tables = Vec::with_capacity(plan.len());
        for step in plan {
            let rows: Vec<Row> = db
                .scan_table(&self.table_offsets[step.slot].0)?
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            let index = step.conds.first().map(|&(col, _, _)| {
                let mut map: BTreeMap<IndexKey, Vec<usize>> = BTreeMap::new();
                for (i, row) in rows.iter().enumerate() {
                    if let Some(key) = join_key(&row.values()[col]) {
                        map.entry(key).or_default().push(i);
                    }
                }
                map
            });
            tables.push(JoinTable { rows, index });
        }
        Ok(tables)
    }

    /// Join one row of the table at `seed` against the loaded tables, filter
    /// and project; the resulting view rows are appended to `out`.
    fn delta_join(
        &self,
        now: i64,
        seed: usize,
        row: &Row,
        plan: &[JoinStep],
        tables: &[JoinTable],
        out: &mut Vec<Row>,
    ) -> EngineResult<()> {
        let place = |combined: &mut [Value], slot: usize, row: &Row| {
            let at = self.table_offsets[slot].1;
            combined[at..at + row.len()].clone_from_slice(row.values());
        };
        let mut first = vec![Value::Null; self.combined_names.len()];
        if row.len() != self.table_offsets[seed].2.len() {
            return Err(EngineError::Invalid(format!(
                "row image for '{}' has {} values, the view expects {}",
                self.table_offsets[seed].0,
                row.len(),
                self.table_offsets[seed].2.len()
            )));
        }
        place(&mut first, seed, row);
        let mut partials = vec![first];
        for (step, table) in plan.iter().zip(tables) {
            let mut next = Vec::new();
            for partial in &partials {
                let probe = |&(_, other, other_col): &(usize, usize, usize)| {
                    &partial[self.table_offsets[other].1 + other_col]
                };
                let all: Vec<usize>;
                let candidates: &[usize] = match (&table.index, step.conds.first()) {
                    (Some(index), Some(cond)) => join_key(probe(cond))
                        .and_then(|k| index.get(&k))
                        .map_or(&[], Vec::as_slice),
                    _ => {
                        all = (0..table.rows.len()).collect();
                        &all
                    }
                };
                for &i in candidates {
                    let cand = &table.rows[i];
                    let matches = step
                        .conds
                        .iter()
                        .all(|c| probe(c).sql_eq(&cand.values()[c.0]) == Some(true));
                    if matches {
                        let mut combined = partial.clone();
                        place(&mut combined, step.slot, cand);
                        next.push(combined);
                    }
                }
            }
            partials = next;
            if partials.is_empty() {
                return Ok(());
            }
        }
        for values in partials {
            if let Some(sel) = &self.def.selection {
                let resolver = CombinedRow {
                    names: &self.combined_names,
                    values,
                };
                let keep = EvalContext::new(&resolver, now)
                    .matches(sel)
                    .map_err(EngineError::Eval)?;
                if keep {
                    out.push(self.project(&resolver.values));
                }
            } else {
                out.push(self.project(&values));
            }
        }
        Ok(())
    }

    fn project(&self, combined: &[Value]) -> Row {
        Row::new(
            self.projection_positions
                .iter()
                .map(|&i| combined[i].clone())
                .collect(),
        )
    }

    /// Compute the view rows produced by joining, filtering and projecting,
    /// optionally with one table restricted to specific rows.
    pub fn compute(
        &self,
        db: &Database,
        restricted: Option<(&str, &[Row])>,
    ) -> EngineResult<Vec<Row>> {
        let scanned: Vec<Row>;
        let (seed, rows) = match restricted {
            Some((table, rows)) => (self.slot_of(table)?, rows),
            None => {
                scanned = db
                    .scan_table(&self.table_offsets[0].0)?
                    .into_iter()
                    .map(|(_, r)| r)
                    .collect();
                (0, scanned.as_slice())
            }
        };
        let plan = &self.join_plans[seed];
        let tables = self.load_join_tables(db, plan)?;
        let now = db.peek_clock();
        let mut out = Vec::new();
        for row in rows {
            self.delta_join(now, seed, row, plan, &tables, &mut out)?;
        }
        Ok(out)
    }

    /// Recompute from scratch inside `txn` (initial load / repair).
    pub fn refresh_full(&self, db: &Database, txn: &mut Transaction) -> EngineResult<usize> {
        let meta = db.table(&self.def.name)?;
        db.lock_table(txn, &self.def.name, LockMode::Exclusive)?;
        let now = db.now_micros();
        for (rid, row) in db.scan_table(&self.def.name)? {
            db.delete_row(txn, &meta, rid, row, now, false)?;
        }
        let rows = self.compute(db, None)?;
        let n = rows.len();
        for row in rows {
            db.insert_row(txn, &meta, row, now, false, false)?;
        }
        Ok(n)
    }

    /// Incremental maintenance from an ordered stream of signed row images
    /// of `table` (`+1` inserted, `-1` deleted; an update is a `-1`/`+1`
    /// pair), replayed **in stream order**: a `-1` removes the view rows
    /// carrying that row's key (exact, because the view is key-preserving),
    /// a `+1` delta-joins the image against the other mirrors and inserts
    /// the results. Order matters — a key deleted and re-inserted within one
    /// stream must lose its old view rows and keep its new ones.
    ///
    /// The other joined tables are scanned and indexed once per call, and so
    /// is the view table (by `table`'s key), instead of once per image. That
    /// is sound because neither changes underneath the replay: the caller
    /// holds `table` and the view exclusively, and deltas for tables that
    /// share a view apply one after the other (see
    /// [`crate::apply::Warehouse::apply_classes`]).
    ///
    /// Returns the number of view rows inserted or deleted.
    pub fn apply_stream(
        &self,
        db: &Database,
        txn: &mut Transaction,
        table: &str,
        stream: &[(i64, &Row)],
    ) -> EngineResult<usize> {
        if !self.def.involves(table) || stream.is_empty() {
            return Ok(0);
        }
        let seed = self.slot_of(table)?;
        let pk = self.table_offsets[seed].2.primary_key_indices()[0];
        let view_key_pos = self.key_positions_in_view[seed].1;
        let plan = &self.join_plans[seed];
        let meta = db.table(&self.def.name)?;
        db.lock_table(txn, &self.def.name, LockMode::Exclusive)?;
        let now = db.now_micros();
        let clock = db.peek_clock();
        // Both sides load on first use: an insert-only stream never reads
        // the view table, a delete-only stream never scans the other mirrors.
        let mut joined: Option<Vec<JoinTable>> = None;
        let mut live: Option<BTreeMap<IndexKey, Vec<(RecordId, Row)>>> = None;
        let mut computed = Vec::new();
        let mut n = 0;
        for &(sign, row) in stream {
            let key = row.values().get(pk).ok_or_else(|| {
                EngineError::Invalid(format!("row image for '{table}' is missing its key"))
            })?;
            if sign < 0 {
                let live = match live.take() {
                    Some(loaded) => live.insert(loaded),
                    None => {
                        let mut by_key: BTreeMap<IndexKey, Vec<(RecordId, Row)>> = BTreeMap::new();
                        for (rid, vrow) in db.scan_table(&self.def.name)? {
                            if let Some(k) = join_key(&vrow.values()[view_key_pos]) {
                                by_key.entry(k).or_default().push((rid, vrow));
                            }
                        }
                        live.insert(by_key)
                    }
                };
                let hits = join_key(key).and_then(|k| live.remove(&k));
                for (rid, vrow) in hits.into_iter().flatten() {
                    db.delete_row(txn, &meta, rid, vrow, now, false)?;
                    n += 1;
                }
            } else {
                let tables = match joined.take() {
                    Some(loaded) => joined.insert(loaded),
                    None => joined.insert(self.load_join_tables(db, plan)?),
                };
                self.delta_join(clock, seed, row, plan, tables, &mut computed)?;
                for vrow in computed.drain(..) {
                    let vrow = meta.schema.validate(&vrow)?;
                    let rid = db.insert_row(txn, &meta, vrow.clone(), now, false, false)?;
                    if let Some(live) = &mut live {
                        if let Some(k) = join_key(&vrow.values()[view_key_pos]) {
                            live.entry(k).or_default().push((rid, vrow));
                        }
                    }
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Incremental maintenance for rows inserted into `table`.
    pub fn on_base_insert(
        &self,
        db: &Database,
        txn: &mut Transaction,
        table: &str,
        new_rows: &[Row],
    ) -> EngineResult<usize> {
        let stream: Vec<(i64, &Row)> = new_rows.iter().map(|r| (1, r)).collect();
        self.apply_stream(db, txn, table, &stream)
    }

    /// Incremental maintenance for rows deleted from `table`.
    pub fn on_base_delete(
        &self,
        db: &Database,
        txn: &mut Transaction,
        table: &str,
        old_rows: &[Row],
    ) -> EngineResult<usize> {
        let stream: Vec<(i64, &Row)> = old_rows.iter().map(|r| (-1, r)).collect();
        self.apply_stream(db, txn, table, &stream)
    }

    /// Incremental maintenance for updates: delete-by-old-key, then
    /// delta-join the new images.
    pub fn on_base_update(
        &self,
        db: &Database,
        txn: &mut Transaction,
        table: &str,
        old_rows: &[Row],
        new_rows: &[Row],
    ) -> EngineResult<usize> {
        let stream: Vec<(i64, &Row)> = old_rows
            .iter()
            .map(|r| (-1, r))
            .chain(new_rows.iter().map(|r| (1, r)))
            .collect();
        self.apply_stream(db, txn, table, &stream)
    }
}

/// One step of a delta join: bring in the table at `slot`, matching `conds`
/// — (column of that table, an already joined slot, its column).
struct JoinStep {
    slot: usize,
    conds: Vec<(usize, usize, usize)>,
}

/// One joined table held for the length of a maintenance pass: a single
/// scan, indexed on the column its step's first condition probes.
struct JoinTable {
    rows: Vec<Row>,
    index: Option<BTreeMap<IndexKey, Vec<usize>>>,
}

/// The order in which a delta join seeded at table `seed` brings in the
/// other tables: a table some join condition links to the joined set comes
/// before one that none reaches yet (that one is a cross product whenever it
/// is taken). Every condition is checked exactly once, when the second of
/// its two tables arrives, so the result is the same set of combinations as
/// joining in definition order.
fn join_plan(
    def: &SpjView,
    tables: &[(String, usize, Schema)],
    seed: usize,
) -> EngineResult<Vec<JoinStep>> {
    let n = tables.len();
    let mut placed = vec![false; n];
    placed[seed] = true;
    let mut plan = Vec::with_capacity(n - 1);
    while plan.len() + 1 < n {
        let mut pick: Option<JoinStep> = None;
        for slot in (0..n).filter(|&s| !placed[s]) {
            let conds = conds_into(def, tables, slot, &placed)?;
            let linked = !conds.is_empty();
            if linked || pick.is_none() {
                pick = Some(JoinStep { slot, conds });
            }
            if linked {
                break;
            }
        }
        let step =
            pick.ok_or_else(|| EngineError::Invalid("join plan ran out of tables".into()))?;
        placed[step.slot] = true;
        plan.push(step);
    }
    Ok(plan)
}

/// The join conditions between table `slot` and the tables already `placed`,
/// as (column of `slot`, placed slot, its column).
fn conds_into(
    def: &SpjView,
    tables: &[(String, usize, Schema)],
    slot: usize,
    placed: &[bool],
) -> EngineResult<Vec<(usize, usize, usize)>> {
    let (name, _, schema) = &tables[slot];
    let column = |schema: &Schema, t: &str, c: &str| {
        schema
            .index_of(c)
            .ok_or_else(|| EngineError::Invalid(format!("join column {t}.{c} does not exist")))
    };
    let mut conds = Vec::new();
    for j in &def.joins {
        let (this_col, other_table, other_col) = if j.left_table == *name {
            (&j.left_col, &j.right_table, &j.right_col)
        } else if j.right_table == *name {
            (&j.right_col, &j.left_table, &j.left_col)
        } else {
            continue;
        };
        let Some(other) = tables.iter().position(|(t, _, _)| t == other_table) else {
            continue;
        };
        if placed[other] {
            conds.push((
                column(schema, name, this_col)?,
                other,
                column(&tables[other].2, other_table, other_col)?,
            ));
        }
    }
    Ok(conds)
}

/// The ordered-map key under which `v` can meet an `sql_eq`-equal value, or
/// `None` when nothing equals it (NULL, NaN). The map orders by
/// `Value::total_cmp`, which tells `-0.0` from `0.0` where `sql_eq` does not.
fn join_key(v: &Value) -> Option<IndexKey> {
    match v {
        Value::Null => None,
        Value::Double(d) if d.is_nan() => None,
        Value::Double(d) if *d == 0.0 => Some(IndexKey(Value::Double(0.0))),
        other => Some(IndexKey(other.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_engine::db::open_temp;
    use delta_sql::parser::parse_expression;

    fn setup() -> std::sync::Arc<Database> {
        let db = open_temp("view").unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR, qty INT)")
            .unwrap();
        s.execute("CREATE TABLE suppliers (sid INT PRIMARY KEY, part_id INT, region VARCHAR)")
            .unwrap();
        s.execute("INSERT INTO parts VALUES (1, 'bolt', 10), (2, 'nut', 0), (3, 'washer', 5)")
            .unwrap();
        s.execute(
            "INSERT INTO suppliers VALUES (10, 1, 'west'), (11, 1, 'east'), (12, 2, 'west'), (13, 9, 'west')",
        )
        .unwrap();
        db
    }

    fn view_def() -> SpjView {
        SpjView {
            name: "west_parts".into(),
            tables: vec!["parts".into(), "suppliers".into()],
            joins: vec![JoinCond::new("parts", "id", "suppliers", "part_id")],
            selection: Some(parse_expression("suppliers_region = 'west'").unwrap()),
            projection: vec![
                ("parts".into(), "id".into()),
                ("parts".into(), "name".into()),
                ("suppliers".into(), "sid".into()),
                ("suppliers".into(), "region".into()),
            ],
        }
    }

    fn materialize(db: &std::sync::Arc<Database>) -> MaterializedView {
        let v = MaterializedView::create(db, view_def()).unwrap();
        let mut txn = db.begin();
        v.refresh_full(db, &mut txn).unwrap();
        db.commit(txn).unwrap();
        v
    }

    fn view_rows(db: &Database) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = db
            .scan_table("west_parts")
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.into_values())
            .collect();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[2].total_cmp(&b[2])));
        rows
    }

    #[test]
    fn full_refresh_joins_filters_projects() {
        let db = setup();
        materialize(&db);
        let rows = view_rows(&db);
        // west suppliers joined to existing parts: (1,west,sid 10), (2,west,sid 12).
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[0][1], Value::Str("bolt".into()));
        assert_eq!(rows[1][0], Value::Int(2));
        // Dangling supplier (part 9) joined nothing; east filtered out.
    }

    #[test]
    fn rejects_non_key_preserving_projection() {
        let db = setup();
        let mut def = view_def();
        def.projection
            .retain(|(t, c)| !(t == "suppliers" && c == "sid"));
        match MaterializedView::create(&db, def) {
            Err(e) => assert!(e.to_string().contains("key-preserving"), "{e}"),
            Ok(_) => panic!("expected rejection"),
        }
    }

    #[test]
    fn rejects_unknown_columns() {
        let db = setup();
        let mut def = view_def();
        def.selection = Some(parse_expression("nonexistent = 1").unwrap());
        assert!(MaterializedView::create(&db, def).is_err());
        let mut def = view_def();
        def.joins[0].right_col = "bogus".into();
        assert!(MaterializedView::create(&db, def).is_err());
    }

    #[test]
    fn incremental_insert_matches_full_recompute() {
        let db = setup();
        let v = materialize(&db);
        // New west supplier for part 3.
        let new_row = Row::new(vec![
            Value::Int(14),
            Value::Int(3),
            Value::Str("west".into()),
        ]);
        let mut s = db.session();
        s.execute("INSERT INTO suppliers VALUES (14, 3, 'west')")
            .unwrap();
        let mut txn = db.begin();
        let n = v
            .on_base_insert(&db, &mut txn, "suppliers", std::slice::from_ref(&new_row))
            .unwrap();
        db.commit(txn).unwrap();
        assert_eq!(n, 1);
        assert_eq!(view_rows(&db).len(), 3);
    }

    #[test]
    fn incremental_delete_removes_exactly_matching_view_rows() {
        let db = setup();
        let v = materialize(&db);
        // Delete supplier 10 (part 1, west). Supplier row: (10, 1, 'west').
        let old = Row::new(vec![
            Value::Int(10),
            Value::Int(1),
            Value::Str("west".into()),
        ]);
        db.session()
            .execute("DELETE FROM suppliers WHERE sid = 10")
            .unwrap();
        let mut txn = db.begin();
        let n = v
            .on_base_delete(&db, &mut txn, "suppliers", std::slice::from_ref(&old))
            .unwrap();
        db.commit(txn).unwrap();
        assert_eq!(n, 1);
        let rows = view_rows(&db);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(2));
    }

    #[test]
    fn incremental_update_handles_selection_transitions() {
        let db = setup();
        let v = materialize(&db);
        // Supplier 11 moves east → west: the view gains a row.
        let old = Row::new(vec![
            Value::Int(11),
            Value::Int(1),
            Value::Str("east".into()),
        ]);
        let new = Row::new(vec![
            Value::Int(11),
            Value::Int(1),
            Value::Str("west".into()),
        ]);
        db.session()
            .execute("UPDATE suppliers SET region = 'west' WHERE sid = 11")
            .unwrap();
        let mut txn = db.begin();
        v.on_base_update(
            &db,
            &mut txn,
            "suppliers",
            std::slice::from_ref(&old),
            std::slice::from_ref(&new),
        )
        .unwrap();
        db.commit(txn).unwrap();
        assert_eq!(view_rows(&db).len(), 3);
        // And back out again.
        let back = Row::new(vec![
            Value::Int(11),
            Value::Int(1),
            Value::Str("north".into()),
        ]);
        db.session()
            .execute("UPDATE suppliers SET region = 'north' WHERE sid = 11")
            .unwrap();
        let mut txn = db.begin();
        v.on_base_update(&db, &mut txn, "suppliers", &[new], &[back])
            .unwrap();
        db.commit(txn).unwrap();
        assert_eq!(view_rows(&db).len(), 2);
    }

    #[test]
    fn incremental_equals_full_recompute_after_mixed_changes() {
        let db = setup();
        let v = materialize(&db);
        let mut s = db.session();

        // Mixed base changes, maintained incrementally.
        let ins = Row::new(vec![
            Value::Int(20),
            Value::Int(3),
            Value::Str("west".into()),
        ]);
        s.execute("INSERT INTO suppliers VALUES (20, 3, 'west')")
            .unwrap();
        let mut txn = db.begin();
        v.on_base_insert(&db, &mut txn, "suppliers", std::slice::from_ref(&ins))
            .unwrap();
        db.commit(txn).unwrap();

        let old_part = Row::new(vec![Value::Int(2), Value::Str("nut".into()), Value::Int(0)]);
        s.execute("DELETE FROM parts WHERE id = 2").unwrap();
        let mut txn = db.begin();
        v.on_base_delete(&db, &mut txn, "parts", std::slice::from_ref(&old_part))
            .unwrap();
        db.commit(txn).unwrap();

        let incremental = view_rows(&db);

        // Rebuild from scratch and compare.
        let mut txn = db.begin();
        v.refresh_full(&db, &mut txn).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(incremental, view_rows(&db));
    }

    #[test]
    fn stream_replay_on_the_middle_table_of_a_chain_equals_full_recompute() {
        // regions ⋈ suppliers ⋈ parts, deltas on `suppliers` (the middle of
        // the chain, so the join fans out to both sides), with a key
        // deleted and re-inserted inside one stream.
        let db = setup();
        let mut s = db.session();
        s.execute("CREATE TABLE regions (name VARCHAR PRIMARY KEY, zone INT)")
            .unwrap();
        s.execute("INSERT INTO regions VALUES ('west', 1), ('east', 2), ('north', 1)")
            .unwrap();
        let def = SpjView {
            name: "chain".into(),
            tables: vec!["regions".into(), "suppliers".into(), "parts".into()],
            joins: vec![
                JoinCond::new("suppliers", "region", "regions", "name"),
                JoinCond::new("parts", "id", "suppliers", "part_id"),
            ],
            selection: Some(parse_expression("regions_zone = 1").unwrap()),
            projection: vec![
                ("regions".into(), "name".into()),
                ("suppliers".into(), "sid".into()),
                ("parts".into(), "id".into()),
                ("parts".into(), "qty".into()),
            ],
        };
        let v = MaterializedView::create(&db, def).unwrap();
        let mut txn = db.begin();
        assert_eq!(v.refresh_full(&db, &mut txn).unwrap(), 2);
        db.commit(txn).unwrap();

        let sup = |sid: i64, part: i64, region: &str| {
            Row::new(vec![
                Value::Int(sid),
                Value::Int(part),
                Value::Str(region.into()),
            ])
        };
        s.execute("DELETE FROM suppliers WHERE sid = 10").unwrap();
        s.execute(
            "INSERT INTO suppliers VALUES (10, 3, 'north'), (15, 2, 'west'), (16, 1, 'south')",
        )
        .unwrap();
        s.execute("UPDATE suppliers SET region = 'west' WHERE sid = 11")
            .unwrap();
        let (d10, i10) = (sup(10, 1, "west"), sup(10, 3, "north"));
        let (i15, i16) = (sup(15, 2, "west"), sup(16, 1, "south"));
        let (b11, a11) = (sup(11, 1, "east"), sup(11, 1, "west"));
        let stream = [
            (-1, &d10),
            (1, &i10),
            (1, &i15),
            (1, &i16),
            (-1, &b11),
            (1, &a11),
        ];
        let mut txn = db.begin();
        // 10 leaves; 10, 15 and 11 arrive; 16's region does not exist.
        assert_eq!(
            v.apply_stream(&db, &mut txn, "suppliers", &stream).unwrap(),
            4
        );
        db.commit(txn).unwrap();

        let sorted = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| a.values()[1].total_cmp(&b.values()[1]));
            rows
        };
        let incremental = sorted(
            db.scan_table("chain")
                .unwrap()
                .into_iter()
                .map(|(_, r)| r)
                .collect(),
        );
        assert_eq!(incremental, sorted(v.compute(&db, None).unwrap()));
        assert_eq!(incremental.len(), 4);
    }

    #[test]
    fn single_table_view_without_joins() {
        let db = setup();
        let def = SpjView {
            name: "stocked".into(),
            tables: vec!["parts".into()],
            joins: vec![],
            selection: Some(parse_expression("parts_qty > 0").unwrap()),
            projection: vec![
                ("parts".into(), "id".into()),
                ("parts".into(), "qty".into()),
            ],
        };
        let v = MaterializedView::create(&db, def).unwrap();
        let mut txn = db.begin();
        let n = v.refresh_full(&db, &mut txn).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(n, 2, "parts with qty > 0");
    }
}
