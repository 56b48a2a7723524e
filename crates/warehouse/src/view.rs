//! One view engine: every materialized view is a fold over the signed image
//! stream of its input mirrors (DESIGN.md §17).
//!
//! A view is defined either as a key-preserving select-project-join
//! ([`SpjView`]) or as a grouped aggregate over one mirror ([`AggViewDef`]).
//! The two are input formats, not engines: [`View::compile`] turns either
//! into the same plan —
//!
//! 1. **inputs** — the mirrors read, laid side by side as one combined row;
//! 2. **join steps** — per input, the order in which a delta row of that
//!    input brings in the others (none for a view over one input);
//! 3. **selection** — the predicate, its column names resolved once to
//!    positions in the combined row;
//! 4. **sink** — what a surviving delta row does to the view table:
//!    * `Rows` projects it into a view row. Views of this kind must be
//!      **key-preserving** (the projection includes the primary key of every
//!      input), the classical sufficient condition for exact maintenance
//!      without multiplicity counters: a `-1` image removes exactly the view
//!      rows carrying its key. It is also the regime the paper's companion
//!      TR \[8\] works in.
//!    * `Groups` folds it into its group's row by the counting algorithm
//!      (the paper's ref. \[19\]): `COUNT`/`SUM`/`AVG` in O(1) from the
//!      hidden `__nn_i`/`__sum_i` columns (a SUM of an INT column exactly,
//!      in its own output column), `MIN`/`MAX` in O(1) on the way in
//!      and by one rescan of the base when a group's extreme leaves. The
//!      hidden `__rows` column is the group's liveness: its row disappears
//!      exactly when its last base row does.
//!
//! and [`View::apply_stream`] is the one driver: arity check → expand →
//! filter → sink.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::ControlFlow;

use delta_engine::db::Database;
use delta_engine::exec;
use delta_engine::index::IndexKey;
use delta_engine::lock::LockMode;
use delta_engine::txn::Transaction;
use delta_engine::{EngineError, EngineResult, TableMeta, TableOptions};
use delta_sql::ast::{AggFunc, Expr};
use delta_sql::eval::CompiledExpr;
use delta_sql::parser::parse_statement;
use delta_storage::{Column, DataType, RecordId, Row, Schema, Value};

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

/// An SPJ view definition. Combined rows expose columns under the name
/// `<table>_<column>`; the selection and the output columns use those names.
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
}

/// One aggregate column of an aggregate view.
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

/// Definition of an aggregate view (summary table) over one mirror table.
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

/// Either definition format, as [`View::compile`] takes it.
#[derive(Debug, Clone)]
pub enum ViewDef {
    Spj(SpjView),
    Agg(AggViewDef),
}

impl From<SpjView> for ViewDef {
    fn from(def: SpjView) -> ViewDef {
        ViewDef::Spj(def)
    }
}

impl From<AggViewDef> for ViewDef {
    fn from(def: AggViewDef) -> ViewDef {
        ViewDef::Agg(def)
    }
}

impl ViewDef {
    /// Name of the materialized table.
    pub fn name(&self) -> &str {
        match self {
            ViewDef::Spj(def) => &def.name,
            ViewDef::Agg(def) => &def.name,
        }
    }

    /// The mirror tables the view reads.
    pub fn tables(&self) -> &[String] {
        match self {
            ViewDef::Spj(def) => &def.tables,
            ViewDef::Agg(def) => std::slice::from_ref(&def.table),
        }
    }
}

/// One table a view reads: its columns start at `at` in the combined row.
struct Input {
    table: String,
    at: usize,
    schema: Schema,
}

/// One step of a delta join: bring in the input at `slot`, matching `conds`
/// — (column of that input, an already joined slot, its column).
struct JoinStep {
    slot: usize,
    conds: Vec<(usize, usize, usize)>,
}

/// One joined input held for the length of a maintenance pass: a single
/// scan, indexed on the column its step's first condition probes.
struct JoinTable {
    rows: Vec<Row>,
    index: Option<BTreeMap<IndexKey, Vec<usize>>>,
}

/// View rows bucketed by the values of their key columns, in scan order.
type Located = BTreeMap<Vec<IndexKey>, Vec<(RecordId, Row)>>;

/// A delta row on its way to the sink: its sign and its combined values —
/// borrowed from the image when the view has one input.
type Delta<'r> = (i64, Cow<'r, [Value]>);

/// A selection as defined, and compiled to combined-row positions.
type Selection = (Expr, CompiledExpr);

/// What a delta row that passed the selection does to the view table.
enum Sink {
    /// Project it into a view row; a `-1` image removes the view rows that
    /// carry its key.
    Rows {
        /// Combined-row positions of the output columns.
        projection: Vec<usize>,
        /// Per input, the position of its key in an image and in a view row.
        keys: Vec<(usize, usize)>,
    },
    /// Fold it into the row of its group.
    Groups(Fold),
}

/// The counting fold of a `Groups` sink. A view row holds the group columns
/// at `0..G`, the aggregates at `G..G+A`, then `__rows`, then each
/// aggregate's hidden state (`__nn_i`, `__sum_i`).
struct Fold {
    /// Combined-row positions of the grouping columns.
    group_by: Vec<usize>,
    aggs: Vec<Agg>,
    /// The SELECT that recomputes the view from its base, with the group's
    /// row count as a last column.
    recompute_sql: String,
}

struct Agg {
    func: AggFunc,
    /// Combined-row position of the argument; `None` only for `COUNT(*)`.
    arg: Option<usize>,
    /// The argument is an INT column, so its SUM shows as one.
    int_arg: bool,
    /// As SQL spells it, e.g. `SUM(amount)`.
    sql: String,
}

/// One touched group of a `Groups` pass: the row the view table holds for
/// it (if any), the row being folded, and the MIN/MAX aggregates whose
/// extreme left and must be found again.
struct Group {
    stored: Option<(RecordId, Row)>,
    row: Row,
    rescan: Vec<usize>,
}

/// A registered view: the compiled plan of one definition.
pub struct View {
    name: String,
    inputs: Vec<Input>,
    /// Combined-row column names, as the selection spells them.
    names: Vec<String>,
    /// Per input, the join steps of a delta row seeded there.
    plans: Vec<Vec<JoinStep>>,
    selection: Option<Selection>,
    sink: Sink,
}

impl View {
    /// Validate a definition against the mirror schemas, compile its plan
    /// and create the backing table if the database does not hold it yet
    /// (a reopened warehouse does). A new view table starts empty; call
    /// [`View::refresh_full`] to materialize.
    pub fn compile(db: &Database, def: impl Into<ViewDef>) -> EngineResult<View> {
        let (view, columns) = match def.into() {
            ViewDef::Spj(def) => View::plan_spj(db, def)?,
            ViewDef::Agg(def) => View::plan_agg(db, def)?,
        };
        let schema = Schema::new(columns)?;
        match db.table(&view.name) {
            Ok(meta) if meta.schema == schema => {}
            Ok(_) => {
                return Err(EngineError::Invalid(format!(
                    "table '{}' exists with other columns than the view defines",
                    view.name
                )))
            }
            Err(_) => {
                db.create_table(&view.name, schema, TableOptions::default())?;
            }
        }
        Ok(view)
    }

    /// Lay the input tables side by side; `qualified` names the combined
    /// columns `<table>_<column>` instead of `<column>`.
    fn layout(
        db: &Database,
        tables: &[String],
        qualified: bool,
    ) -> EngineResult<(Vec<Input>, Vec<String>)> {
        if tables.is_empty() {
            return Err(EngineError::Invalid("view needs at least one table".into()));
        }
        let mut inputs = Vec::with_capacity(tables.len());
        let mut names = Vec::new();
        for t in tables {
            let schema = db.table(t)?.schema.clone();
            for c in schema.columns() {
                names.push(match qualified {
                    true => SpjView::output_name(t, &c.name),
                    false => c.name.clone(),
                });
            }
            inputs.push(Input {
                table: t.clone(),
                at: names.len() - schema.len(),
                schema,
            });
        }
        Ok((inputs, names))
    }

    /// Compile `selection` to combined-row positions; every column it names
    /// must be one of `names`.
    fn resolve(selection: Option<Expr>, names: &[String]) -> EngineResult<Option<Selection>> {
        let Some(sel) = selection else {
            return Ok(None);
        };
        let position = |col: &str| names.iter().position(|n| n == col);
        if let Some(col) = sel
            .referenced_columns()
            .into_iter()
            .find(|c| position(c).is_none())
        {
            return Err(EngineError::Invalid(format!(
                "selection references unknown column '{col}'"
            )));
        }
        let compiled = CompiledExpr::compile(&sel, position);
        Ok(Some((sel, compiled)))
    }

    fn plan_spj(db: &Database, def: SpjView) -> EngineResult<(View, Vec<Column>)> {
        let (inputs, names) = View::layout(db, &def.tables, true)?;
        let column = |t: &str, c: &str| {
            let input = inputs.iter().find(|i| i.table == t)?;
            let pos = input.schema.index_of(c)?;
            Some((input.at + pos, input.schema.columns()[pos].data_type))
        };
        for j in &def.joins {
            if !(def.tables.contains(&j.left_table) && def.tables.contains(&j.right_table)) {
                return Err(EngineError::Invalid(format!(
                    "join references unknown table in view '{}'",
                    def.name
                )));
            }
            if j.left_table == j.right_table {
                return Err(EngineError::Invalid("self-join condition".into()));
            }
        }
        let plans = (0..inputs.len())
            .map(|seed| join_plan(&def.joins, &inputs, seed))
            .collect::<EngineResult<_>>()?;
        let mut projection = Vec::with_capacity(def.projection.len());
        let mut columns = Vec::with_capacity(def.projection.len());
        for (t, c) in &def.projection {
            let (pos, data_type) = column(t, c).ok_or_else(|| {
                EngineError::Invalid(format!("projection references unknown column {t}.{c}"))
            })?;
            projection.push(pos);
            columns.push(Column::new(SpjView::output_name(t, c), data_type));
        }
        let mut keys = Vec::with_capacity(inputs.len());
        for input in &inputs {
            let t = &input.table;
            let &[pk] = input.schema.primary_key_indices().as_slice() else {
                return Err(EngineError::Invalid(format!(
                    "view '{}' requires a single-column primary key on '{t}'",
                    def.name
                )));
            };
            let key_col = &input.schema.columns()[pk].name;
            let in_view = def
                .projection
                .iter()
                .position(|(pt, pc)| pt == t && pc == key_col)
                .ok_or_else(|| {
                    EngineError::Invalid(format!(
                        "view '{}' is not key-preserving: projection must include {t}.{key_col}",
                        def.name
                    ))
                })?;
            keys.push((pk, in_view));
        }
        let view = View {
            name: def.name,
            selection: View::resolve(def.selection, &names)?,
            inputs,
            names,
            plans,
            sink: Sink::Rows { projection, keys },
        };
        Ok((view, columns))
    }

    fn plan_agg(db: &Database, def: AggViewDef) -> EngineResult<(View, Vec<Column>)> {
        let (inputs, names) = View::layout(db, std::slice::from_ref(&def.table), false)?;
        let base = &inputs[0].schema;
        let mut columns = Vec::new();
        let mut group_by = Vec::with_capacity(def.group_by.len());
        for g in &def.group_by {
            let pos = base
                .index_of(g)
                .ok_or_else(|| EngineError::Invalid(format!("unknown group column '{g}'")))?;
            group_by.push(pos);
            columns.push(Column::new(g.clone(), base.columns()[pos].data_type));
        }
        if def.aggregates.is_empty() {
            return Err(EngineError::Invalid(
                "aggregate view needs at least one aggregate".into(),
            ));
        }
        let mut aggs = Vec::with_capacity(def.aggregates.len());
        let mut items: Vec<String> = def.group_by.clone();
        for a in &def.aggregates {
            let (arg, arg_type) = match (&a.column, a.func) {
                (None, AggFunc::Count) => (None, DataType::Int),
                (None, f) => return Err(EngineError::Invalid(format!("{f}(*) is not valid"))),
                (Some(c), _) => {
                    let pos = base.index_of(c).ok_or_else(|| {
                        EngineError::Invalid(format!("unknown aggregate column '{c}'"))
                    })?;
                    (Some(pos), base.columns()[pos].data_type)
                }
            };
            let out_type = match a.func {
                AggFunc::Count => DataType::Int,
                AggFunc::Avg => DataType::Double,
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg_type,
            };
            columns.push(Column::new(a.output_name(), out_type));
            let sql = format!("{}({})", a.func, a.column.as_deref().unwrap_or("*"));
            items.push(format!("{sql} AS {}", a.output_name()));
            aggs.push(Agg {
                func: a.func,
                arg,
                int_arg: arg_type == DataType::Int,
                sql,
            });
        }
        columns.push(Column::new("__rows", DataType::Int).not_null());
        for i in 0..aggs.len() {
            columns.push(Column::new(format!("__nn_{i}"), DataType::Int));
            columns.push(Column::new(format!("__sum_{i}"), DataType::Double));
        }
        items.push("COUNT(*) AS __rows".to_string());
        let mut recompute_sql = format!("SELECT {} FROM {}", items.join(", "), def.table);
        if let Some(sel) = &def.selection {
            recompute_sql.push_str(&format!(" WHERE {sel}"));
        }
        if !def.group_by.is_empty() {
            recompute_sql.push_str(&format!(" GROUP BY {}", def.group_by.join(", ")));
        }
        let view = View {
            name: def.name,
            selection: View::resolve(def.selection, &names)?,
            inputs,
            names,
            plans: vec![Vec::new()],
            sink: Sink::Groups(Fold {
                group_by,
                aggs,
                recompute_sql,
            }),
        };
        Ok((view, columns))
    }

    /// Name of the materialized table.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The mirror tables this view reads.
    pub fn inputs(&self) -> impl Iterator<Item = &str> {
        self.inputs.iter().map(|i| i.table.as_str())
    }

    /// Whether `table` is one of this view's inputs.
    pub fn involves(&self, table: &str) -> bool {
        self.inputs().any(|t| t == table)
    }

    fn passes(&self, clock: i64, values: &[Value]) -> EngineResult<bool> {
        let Some((_, sel)) = &self.selection else {
            return Ok(true);
        };
        sel.matches(values, clock).map_err(EngineError::Eval)
    }

    /// Scan each input the plan seeded at `seed` brings in, once, and index
    /// it on the column its step's first join condition probes.
    fn load_join_tables(&self, db: &Database, seed: usize) -> EngineResult<Vec<JoinTable>> {
        let plan = &self.plans[seed];
        let mut tables = Vec::with_capacity(plan.len());
        for step in plan {
            let rows = collect_rows(db, &self.inputs[step.slot].table)?;
            let index = step.conds.first().map(|&(col, _, _)| {
                let mut map: BTreeMap<IndexKey, Vec<usize>> = BTreeMap::new();
                for (i, row) in rows.iter().enumerate() {
                    if let Some(key) = row.values().get(col).and_then(join_key) {
                        map.entry(key).or_default().push(i);
                    }
                }
                map
            });
            tables.push(JoinTable { rows, index });
        }
        Ok(tables)
    }

    /// Expand one image of the input at `seed` into delta rows: join it
    /// outward through `tables` (loaded for the same seed) and keep the
    /// combinations that pass the selection. The image's arity was checked
    /// by the caller.
    fn expand<'r>(
        &self,
        clock: i64,
        seed: usize,
        (sign, row): (i64, &'r Row),
        tables: &[JoinTable],
        out: &mut Vec<Delta<'r>>,
    ) -> EngineResult<()> {
        let plan = &self.plans[seed];
        if plan.is_empty() {
            if self.passes(clock, row.values())? {
                out.push((sign, Cow::Borrowed(row.values())));
            }
            return Ok(());
        }
        let place = |combined: &mut [Value], slot: usize, row: &Row| {
            let at = self.inputs[slot].at;
            combined[at..at + row.len()].clone_from_slice(row.values());
        };
        let mut first = vec![Value::Null; self.names.len()];
        place(&mut first, seed, row);
        let mut partials = vec![first];
        for (step, table) in plan.iter().zip(tables) {
            let mut next = Vec::new();
            for partial in &partials {
                let probe = |&(_, other, other_col): &(usize, usize, usize)| {
                    &partial[self.inputs[other].at + other_col]
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
        }
        for values in partials {
            if self.passes(clock, &values)? {
                out.push((sign, Cow::Owned(values)));
            }
        }
        Ok(())
    }

    /// Scan the view table once and bucket its rows by the values at
    /// `cols`, compared by `Value::total_cmp`: a key finds exactly the rows
    /// that carry it, and NULLs form one group.
    fn locate(&self, db: &Database, cols: &[usize]) -> EngineResult<Located> {
        let mut by_key = Located::new();
        db.for_each_row(&self.name, |rid, row| {
            let key = cols.iter().map(|&c| IndexKey(row.values()[c].clone()));
            by_key.entry(key.collect()).or_default().push((rid, row));
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(by_key)
    }

    /// Incremental maintenance from an ordered stream of signed row images
    /// of `table` (`+1` a row that entered it, `-1` a row that left it; an
    /// update is a `-1`/`+1` pair): every image is checked against the
    /// input's arity, expanded through the join steps seeded at `table`,
    /// filtered by the selection and handed to the sink.
    ///
    /// A `Rows` sink replays the stream **in order** — a key deleted and
    /// re-inserted within one stream must lose its old view rows and keep
    /// its new ones — and returns the number of view rows inserted or
    /// deleted. A `Groups` sink folds each delta row into its group in
    /// memory, finds departed MIN/MAX extremes again in one scan of the base
    /// for the whole stream, writes each touched group once, and returns the
    /// number of delta rows folded.
    ///
    /// A pass scans the view table at most once, each other input at most
    /// once, and neither when the stream does not need it (an insert-only
    /// stream never reads a `Rows` view table, a delete-only one never the
    /// other mirrors). That is sound because nothing changes underneath the
    /// pass: the caller holds `table` and the view exclusively, and deltas
    /// for tables that share a view apply one after the other (see
    /// [`crate::apply::Warehouse::apply_classes`]).
    pub fn apply_stream(
        &self,
        db: &Database,
        txn: &mut Transaction,
        table: &str,
        stream: &[(i64, &Row)],
    ) -> EngineResult<u64> {
        let Some(seed) = self.inputs.iter().position(|i| i.table == table) else {
            return Ok(0);
        };
        if stream.is_empty() {
            return Ok(0);
        }
        let width = self.inputs[seed].schema.len();
        if let Some((_, bad)) = stream.iter().find(|(_, row)| row.len() != width) {
            return Err(EngineError::Invalid(format!(
                "row image for '{table}' has {} values, view '{}' expects {width}",
                bad.len(),
                self.name
            )));
        }
        let meta = db.table(&self.name)?;
        db.lock_table(txn, &self.name, LockMode::Exclusive)?;
        let now = db.now_micros();
        match &self.sink {
            Sink::Rows { projection, keys } => {
                let (pk, in_view) = keys[seed];
                // Each side is scanned only if the stream needs it: an
                // insert-only stream never reads the view table, a
                // delete-only stream never the other mirrors.
                let tables = match stream.iter().any(|&(sign, _)| sign > 0) {
                    true => self.load_join_tables(db, seed)?,
                    false => Vec::new(),
                };
                let mut live = match stream.iter().any(|&(sign, _)| sign < 0) {
                    true => Some(self.locate(db, &[in_view])?),
                    false => None,
                };
                let mut deltas = Vec::new();
                let mut n = 0;
                for &(sign, row) in stream {
                    let key = || vec![IndexKey(row.values()[pk].clone())];
                    if sign < 0 {
                        let hits = live.as_mut().and_then(|live| live.remove(&key()));
                        for stored in hits.into_iter().flatten() {
                            write(db, txn, &meta, Some(stored), None)?;
                            n += 1;
                        }
                        continue;
                    }
                    self.expand(now, seed, (sign, row), &tables, &mut deltas)?;
                    for (_, values) in deltas.drain(..) {
                        let vrow = project(projection, &values);
                        n += 1;
                        let Some(live) = &mut live else {
                            write(db, txn, &meta, None, Some(vrow))?;
                            continue;
                        };
                        // Kept as stored, to be the before image if a later
                        // `-1` of the stream removes the row again: one
                        // validation, one copy.
                        let vrow = meta.schema.validate(vrow)?;
                        if let Some(rid) = write(db, txn, &meta, None, Some(vrow.clone()))? {
                            live.entry(key()).or_default().push((rid, vrow));
                        }
                    }
                }
                Ok(n)
            }
            Sink::Groups(fold) => {
                let tables = self.load_join_tables(db, seed)?;
                let mut deltas = Vec::with_capacity(stream.len());
                for &image in stream {
                    self.expand(now, seed, image, &tables, &mut deltas)?;
                }
                if deltas.is_empty() {
                    return Ok(0);
                }
                let group_cols: Vec<usize> = (0..fold.group_by.len()).collect();
                let mut stored = self.locate(db, &group_cols)?;
                // Touched groups in first-touch order, each folded in
                // stream order.
                let mut groups: Vec<Group> = Vec::new();
                let mut slots: BTreeMap<Vec<IndexKey>, usize> = BTreeMap::new();
                // One key buffer for the pass; a key is copied into the map
                // only when its group is first touched.
                let mut key = Vec::with_capacity(fold.group_by.len());
                for (sign, values) in &deltas {
                    fold.key_into(values, &mut key);
                    let g = match slots.get(key.as_slice()) {
                        Some(&g) => g,
                        None => {
                            let stored = stored
                                .remove(key.as_slice())
                                .and_then(|rows| rows.into_iter().next());
                            let row = match &stored {
                                Some((_, row)) => row.clone(),
                                None => fold.empty_row(&key),
                            };
                            groups.push(Group {
                                stored,
                                row,
                                rescan: Vec::new(),
                            });
                            slots.insert(key.clone(), groups.len() - 1);
                            groups.len() - 1
                        }
                    };
                    let group = &mut groups[g];
                    if *sign < 0 && fold.is_empty(&group.row) {
                        return Err(EngineError::Invalid(format!(
                            "delete for a group absent from aggregate view '{}'",
                            self.name
                        )));
                    }
                    fold.fold(group, values, *sign)?;
                    if fold.is_empty(&group.row) {
                        // The group died mid-stream: what follows starts
                        // from a fresh row (no residue in the hidden sums,
                        // nothing to rescan).
                        group.row = fold.empty_row(&key);
                        group.rescan.clear();
                    }
                }
                // Departed extremes, found again in one scan of the base
                // for every group. Deferring this to the end of the stream
                // is sound because the base is already in its final state
                // for this pass: the scan yields the same extreme whenever
                // it runs, and later `+1` rows of the stream cannot beat it
                // (they are part of it). A `Groups` plan has one input, so
                // the seed is the base.
                if groups.iter().any(|g| !g.rescan.is_empty()) {
                    for group in &mut groups {
                        for &i in &group.rescan {
                            group.row.set(fold.out_pos(i), Value::Null);
                        }
                    }
                    db.for_each_row(table, |_, row| {
                        let mut expanded = Vec::new();
                        self.expand(now, seed, (1, &row), &tables, &mut expanded)?;
                        for (_, values) in &expanded {
                            fold.key_into(values, &mut key);
                            let Some(&g) = slots.get(key.as_slice()) else {
                                continue;
                            };
                            let group = &mut groups[g];
                            for &i in &group.rescan {
                                fold.improve(&mut group.row, i, values);
                            }
                        }
                        Ok(ControlFlow::Continue(()))
                    })?;
                }
                // One write per touched group; a group born and emptied
                // within the stream leaves no row.
                for group in groups {
                    let new = (!fold.is_empty(&group.row)).then_some(group.row);
                    write(db, txn, &meta, group.stored, new)?;
                }
                Ok(deltas.len() as u64)
            }
        }
    }

    /// Rebuild from scratch inside `txn` (initial load / repair): clear the
    /// view table, then run every row of the first input through
    /// [`apply_stream`](View::apply_stream) as a `+1` image — one insert per
    /// view row, whichever the sink.
    pub fn refresh_full(&self, db: &Database, txn: &mut Transaction) -> EngineResult<u64> {
        let meta = db.table(&self.name)?;
        db.lock_table(txn, &self.name, LockMode::Exclusive)?;
        db.for_each_row(&self.name, |rid, row| {
            write(db, txn, &meta, Some((rid, row)), None)?;
            Ok(ControlFlow::Continue(()))
        })?;
        let seed = &self.inputs[0].table;
        let base = collect_rows(db, seed)?;
        let stream: Vec<(i64, &Row)> = base.iter().map(|row| (1, row)).collect();
        self.apply_stream(db, txn, seed, &stream)
    }

    /// Visible (non-hidden) columns of the materialized rows, sorted.
    pub fn visible_rows(&self, db: &Database) -> EngineResult<Vec<Row>> {
        let visible = match &self.sink {
            Sink::Rows { projection, .. } => projection.len(),
            Sink::Groups(fold) => fold.rows_pos(),
        };
        let mut rows = Vec::new();
        db.for_each_row(&self.name, |_, row| {
            let mut values = row.into_values();
            values.truncate(visible);
            rows.push(Row::new(values));
            Ok(ControlFlow::Continue(()))
        })?;
        rows.sort_by(cmp_rows);
        Ok(rows)
    }

    /// The visible rows this view should hold, computed from its inputs
    /// without reading the view table, sorted: a `Rows` plan expands every
    /// row of its first input in memory, a `Groups` plan asks the SQL
    /// executor (an implementation that shares nothing with the fold).
    fn recompute(&self, db: &Database) -> EngineResult<Vec<Row>> {
        let mut rows: Vec<Row> = match &self.sink {
            Sink::Rows { projection, .. } => {
                let tables = self.load_join_tables(db, 0)?;
                let clock = db.peek_clock();
                let mut rows = Vec::new();
                db.for_each_row(&self.inputs[0].table, |_, row| {
                    let mut deltas = Vec::new();
                    self.expand(clock, 0, (1, &row), &tables, &mut deltas)?;
                    rows.extend(deltas.iter().map(|(_, values)| project(projection, values)));
                    Ok(ControlFlow::Continue(()))
                })?;
                rows
            }
            Sink::Groups(fold) => {
                let stmt = parse_statement(&fold.recompute_sql)?;
                let result = db.in_txn(|txn| exec::execute(db, txn, &stmt))?;
                // SQL answers a global aggregate over nothing with one row;
                // the view holds none. The trailing count tells them apart.
                let live = |row: Row| {
                    let mut values = row.into_values();
                    match values.pop() {
                        Some(Value::Int(0)) | None => None,
                        Some(_) => Some(Row::new(values)),
                    }
                };
                result.rows.into_iter().filter_map(live).collect()
            }
        };
        rows.sort_by(cmp_rows);
        Ok(rows)
    }

    /// Whether the materialization equals its recomputation from the
    /// inputs. Int and Double forms of the same number count as equal (SUM
    /// over an INT column materializes as Int whatever the recompute says).
    pub fn verify_against_recompute(&self, db: &Database) -> EngineResult<bool> {
        let (expected, actual) = (self.recompute(db)?, self.visible_rows(db)?);
        let same = |x: &Row, y: &Row| {
            x.len() == y.len()
                && x.values()
                    .iter()
                    .zip(y.values())
                    .all(|(u, v)| u.sql_eq(v) == Some(true) || (u.is_null() && v.is_null()))
        };
        Ok(expected.len() == actual.len() && expected.iter().zip(&actual).all(|(x, y)| same(x, y)))
    }
}

impl Fold {
    fn out_pos(&self, i: usize) -> usize {
        self.group_by.len() + i
    }

    fn rows_pos(&self) -> usize {
        self.group_by.len() + self.aggs.len()
    }

    fn nn_pos(&self, i: usize) -> usize {
        self.rows_pos() + 1 + 2 * i
    }

    fn sum_pos(&self, i: usize) -> usize {
        self.rows_pos() + 2 + 2 * i
    }

    /// Set `key` to the group a delta row belongs to.
    fn key_into(&self, values: &[Value], key: &mut Vec<IndexKey>) {
        key.clear();
        key.extend(self.group_by.iter().map(|&p| IndexKey(values[p].clone())));
    }

    /// A fresh (all-empty) view row for the group `key`.
    fn empty_row(&self, key: &[IndexKey]) -> Row {
        let mut vals: Vec<Value> = key.iter().map(|k| k.0.clone()).collect();
        // A count of nothing is 0, every other aggregate of nothing NULL.
        vals.extend(self.aggs.iter().map(|a| match a.func {
            AggFunc::Count => Value::Int(0),
            _ => Value::Null,
        }));
        vals.push(Value::Int(0)); // __rows
        for _ in &self.aggs {
            vals.push(Value::Int(0)); // __nn_i
            vals.push(Value::Double(0.0)); // __sum_i
        }
        Row::new(vals)
    }

    /// Whether the group row counts no base row.
    fn is_empty(&self, row: &Row) -> bool {
        row.values()[self.rows_pos()] == Value::Int(0)
    }

    /// Raise aggregate `i` (MIN or MAX) of `row` to the argument in
    /// `values` if that is more extreme than what the row shows.
    fn improve(&self, row: &mut Row, i: usize, values: &[Value]) {
        let agg = &self.aggs[i];
        let Some(v) = agg.arg.map(|p| &values[p]).filter(|v| !v.is_null()) else {
            return;
        };
        let cur = &row.values()[self.out_pos(i)];
        let wanted = match agg.func {
            AggFunc::Min => std::cmp::Ordering::Less,
            _ => std::cmp::Ordering::Greater,
        };
        if cur.is_null() || v.total_cmp(cur) == wanted {
            row.set(self.out_pos(i), v.clone());
        }
    }

    /// Fold one delta row into (`sign` +1) or out of (-1) its group,
    /// noting the MIN/MAX aggregates whose extreme left.
    fn fold(&self, group: &mut Group, values: &[Value], sign: i64) -> EngineResult<()> {
        let row = &mut group.row;
        let rows = row.values()[self.rows_pos()].as_int()? + sign;
        row.set(self.rows_pos(), Value::Int(rows));
        for (i, agg) in self.aggs.iter().enumerate() {
            let arg = agg.arg.map(|p| &values[p]);
            if arg.is_some_and(Value::is_null) {
                // NULL argument: invisible to every aggregate except COUNT(*).
                continue;
            }
            let nn = row.values()[self.nn_pos(i)].as_int()? + sign;
            row.set(self.nn_pos(i), Value::Int(nn));
            match (agg.func, arg) {
                (AggFunc::Count, None) => row.set(self.out_pos(i), Value::Int(rows)),
                (AggFunc::Count, Some(_)) => row.set(self.out_pos(i), Value::Int(nn)),
                (AggFunc::Sum, Some(v)) if agg.int_arg => {
                    // SUM keeps the base column's type, and an INT sum is
                    // exact and wraps, as the executor's is. It runs in the
                    // output column itself (NULL there is 0): a DOUBLE
                    // running sum rounds past 2^53. The hidden sum shows it.
                    let running = match &row.values()[self.out_pos(i)] {
                        Value::Null => 0,
                        running => running.as_int()?,
                    };
                    let sum = running.wrapping_add(v.as_int()?.wrapping_mul(sign));
                    row.set(self.sum_pos(i), Value::Double(sum as f64));
                    let out = if nn == 0 {
                        Value::Null
                    } else {
                        Value::Int(sum)
                    };
                    row.set(self.out_pos(i), out);
                }
                (AggFunc::Sum | AggFunc::Avg, Some(v)) => {
                    let sum =
                        row.values()[self.sum_pos(i)].as_double()? + sign as f64 * v.as_double()?;
                    row.set(self.sum_pos(i), Value::Double(sum));
                    let out = match agg.func {
                        _ if nn == 0 => Value::Null,
                        AggFunc::Avg => Value::Double(sum / nn as f64),
                        _ => Value::Double(sum),
                    };
                    row.set(self.out_pos(i), out);
                }
                (AggFunc::Min | AggFunc::Max, Some(v)) => {
                    if sign > 0 {
                        self.improve(row, i, values);
                    } else if nn == 0 {
                        row.set(self.out_pos(i), Value::Null);
                    } else if v.total_cmp(&row.values()[self.out_pos(i)])
                        == std::cmp::Ordering::Equal
                        && !group.rescan.contains(&i)
                    {
                        // The current extreme left: find the next one.
                        group.rescan.push(i);
                    }
                }
                (f, None) => {
                    return Err(EngineError::Invalid(format!(
                        "{f} aggregate lost its argument"
                    )))
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for View {
    /// The compiled plan, one stage per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = |positions: &[usize]| {
            let names: Vec<&str> = positions.iter().map(|&p| self.names[p].as_str()).collect();
            names.join(", ")
        };
        writeln!(f, "view {}", self.name)?;
        for (input, plan) in self.inputs.iter().zip(&self.plans) {
            write!(f, "  delta {}", input.table)?;
            for step in plan {
                write!(f, " ⋈ {}", self.inputs[step.slot].table)?;
                for (n, &(col, other, other_col)) in step.conds.iter().enumerate() {
                    let word = if n == 0 { "on" } else { "and" };
                    let near = &self.names[self.inputs[step.slot].at + col];
                    let far = &self.names[self.inputs[other].at + other_col];
                    write!(f, " {word} {near} = {far}")?;
                }
            }
            writeln!(f)?;
        }
        if let Some((sel, _)) = &self.selection {
            writeln!(f, "  select {sel}")?;
        }
        match &self.sink {
            Sink::Rows { projection, keys } => {
                let keys: Vec<usize> = keys
                    .iter()
                    .map(|&(_, in_view)| projection[in_view])
                    .collect();
                write!(
                    f,
                    "  rows ({}) keyed by ({})",
                    names(projection),
                    names(&keys)
                )
            }
            Sink::Groups(fold) => {
                let aggs: Vec<&str> = fold.aggs.iter().map(|a| a.sql.as_str()).collect();
                write!(
                    f,
                    "  groups by ({}) fold {}",
                    names(&fold.group_by),
                    aggs.join(", ")
                )
            }
        }
    }
}

/// The one place view rows are written: `stored` is the row as the view
/// table holds it — the before image an abort re-inserts and redo must find
/// by image, never a row folded in memory — and `new` what takes its place.
/// Returns where `new` went.
fn write(
    db: &Database,
    txn: &mut Transaction,
    meta: &TableMeta,
    stored: Option<(RecordId, Row)>,
    new: Option<Row>,
) -> EngineResult<Option<RecordId>> {
    Ok(match (stored, new) {
        (Some((rid, old)), Some(new)) => Some(db.update_row(txn, meta, rid, old, new)?),
        (Some((rid, old)), None) => {
            db.delete_row(txn, meta, rid, old)?;
            None
        }
        (None, Some(new)) => Some(db.insert_row(txn, meta, new)?),
        (None, None) => None,
    })
}

/// Every live row of `table`, for a pass that needs them all at once.
fn collect_rows(db: &Database, table: &str) -> EngineResult<Vec<Row>> {
    let mut rows = Vec::new();
    db.for_each_row(table, |_, row| {
        rows.push(row);
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(rows)
}

/// The view row of a `Rows` sink for one delta row.
fn project(projection: &[usize], values: &[Value]) -> Row {
    Row::new(projection.iter().map(|&p| values[p].clone()).collect())
}

/// Lexicographic `Value::total_cmp` order over whole rows.
fn cmp_rows(a: &Row, b: &Row) -> std::cmp::Ordering {
    let pairs = a.values().iter().zip(b.values());
    pairs
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(a.len().cmp(&b.len()))
}

/// The order in which a delta join seeded at input `seed` brings in the
/// other inputs: one some join condition links to the joined set comes
/// before one that none reaches yet (that one is a cross product whenever it
/// is taken). Every condition is checked exactly once, when the second of
/// its two inputs arrives, so the result is the same set of combinations as
/// joining in definition order.
fn join_plan(joins: &[JoinCond], inputs: &[Input], seed: usize) -> EngineResult<Vec<JoinStep>> {
    let n = inputs.len();
    let mut placed = vec![false; n];
    placed[seed] = true;
    let mut plan = Vec::with_capacity(n - 1);
    while plan.len() + 1 < n {
        let mut pick: Option<JoinStep> = None;
        for slot in (0..n).filter(|&s| !placed[s]) {
            let conds = conds_into(joins, inputs, slot, &placed)?;
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

/// The join conditions between input `slot` and the inputs already
/// `placed`, as (column of `slot`, placed slot, its column).
fn conds_into(
    joins: &[JoinCond],
    inputs: &[Input],
    slot: usize,
    placed: &[bool],
) -> EngineResult<Vec<(usize, usize, usize)>> {
    let this = &inputs[slot];
    let column = |input: &Input, c: &str| {
        input.schema.index_of(c).ok_or_else(|| {
            EngineError::Invalid(format!("join column {}.{c} does not exist", input.table))
        })
    };
    let mut conds = Vec::new();
    for j in joins {
        let (this_col, other_table, other_col) = if j.left_table == this.table {
            (&j.left_col, &j.right_table, &j.right_col)
        } else if j.right_table == this.table {
            (&j.right_col, &j.left_table, &j.left_col)
        } else {
            continue;
        };
        let Some(other) = inputs.iter().position(|i| i.table == *other_table) else {
            continue;
        };
        if placed[other] {
            conds.push((
                column(this, this_col)?,
                other,
                column(&inputs[other], other_col)?,
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
    use std::sync::Arc;

    /// Compile and materialize.
    fn materialize(db: &Arc<Database>, def: impl Into<ViewDef>) -> View {
        let v = View::compile(db, def).unwrap();
        let mut txn = db.begin();
        v.refresh_full(db, &mut txn).unwrap();
        db.commit(txn).unwrap();
        v
    }

    /// One committed pass of the driver.
    fn apply(v: &View, db: &Database, table: &str, stream: &[(i64, &Row)]) -> u64 {
        let mut txn = db.begin();
        let n = v.apply_stream(db, &mut txn, table, stream).unwrap();
        db.commit(txn).unwrap();
        n
    }

    /// The view table as it is stored, hidden columns included, sorted.
    fn stored(db: &Database, view: &str) -> Vec<Vec<u8>> {
        let mut rows: Vec<Vec<u8>> = db
            .scan_table(view)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.to_bytes())
            .collect();
        rows.sort();
        rows
    }

    /// Incremental maintenance left `v` exactly as a rebuild over the same
    /// base does: verified against the recomputation, then byte for byte
    /// (hidden columns included) against its own `refresh_full`.
    fn assert_equals_rebuild(v: &View, db: &Database) {
        assert!(v.verify_against_recompute(db).unwrap(), "{v}");
        let incremental = stored(db, v.name());
        let mut txn = db.begin();
        v.refresh_full(db, &mut txn).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(incremental, stored(db, v.name()), "{v}");
    }

    fn parts_and_suppliers() -> Arc<Database> {
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

    fn west_parts() -> SpjView {
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

    fn supplier(sid: i64, part: i64, region: &str) -> Row {
        Row::new(vec![
            Value::Int(sid),
            Value::Int(part),
            Value::Str(region.into()),
        ])
    }

    #[test]
    fn full_refresh_joins_filters_projects() {
        let db = parts_and_suppliers();
        let v = materialize(&db, west_parts());
        let rows = v.visible_rows(&db).unwrap();
        // west suppliers joined to existing parts: (1,west,sid 10), (2,west,sid 12).
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].values()[0], Value::Int(1));
        assert_eq!(rows[0].values()[1], Value::Str("bolt".into()));
        assert_eq!(rows[1].values()[0], Value::Int(2));
        // Dangling supplier (part 9) joined nothing; east filtered out.
        assert!(v.verify_against_recompute(&db).unwrap());
    }

    #[test]
    fn rejects_non_key_preserving_projection() {
        let db = parts_and_suppliers();
        let mut def = west_parts();
        def.projection
            .retain(|(t, c)| !(t == "suppliers" && c == "sid"));
        match View::compile(&db, def) {
            Err(e) => assert!(e.to_string().contains("key-preserving"), "{e}"),
            Ok(_) => panic!("expected rejection"),
        }
    }

    #[test]
    fn rejects_unknown_columns() {
        let db = parts_and_suppliers();
        let mut def = west_parts();
        def.selection = Some(parse_expression("nonexistent = 1").unwrap());
        assert!(View::compile(&db, def).is_err());
        let mut def = west_parts();
        def.joins[0].right_col = "bogus".into();
        assert!(View::compile(&db, def).is_err());
    }

    #[test]
    fn rejects_bad_aggregate_definitions() {
        let db = parts_and_suppliers();
        let def = |group_by: Vec<String>, aggregates| AggViewDef {
            name: "x".into(),
            table: "parts".into(),
            group_by,
            aggregates,
            selection: None,
        };
        let sum_star = AggSpec {
            func: AggFunc::Sum,
            column: None,
        };
        assert!(View::compile(&db, def(vec!["nope".into()], vec![AggSpec::count_star()])).is_err());
        assert!(View::compile(&db, def(vec![], vec![])).is_err());
        assert!(View::compile(&db, def(vec![], vec![sum_star])).is_err());
    }

    #[test]
    fn existing_table_with_other_columns_is_not_taken_for_the_view() {
        let db = parts_and_suppliers();
        let mut def = west_parts();
        def.name = "parts".into();
        let err = View::compile(&db, def).err().unwrap();
        assert!(err.to_string().contains("other columns"), "{err}");
    }

    #[test]
    fn rows_sink_follows_inserts_deletes_and_selection_transitions() {
        let db = parts_and_suppliers();
        let v = materialize(&db, west_parts());
        let mut s = db.session();
        // New west supplier for part 3.
        s.execute("INSERT INTO suppliers VALUES (14, 3, 'west')")
            .unwrap();
        assert_eq!(
            apply(&v, &db, "suppliers", &[(1, &supplier(14, 3, "west"))]),
            1
        );
        assert_eq!(v.visible_rows(&db).unwrap().len(), 3);
        // Supplier 10 (part 1, west) leaves: exactly its view row goes.
        s.execute("DELETE FROM suppliers WHERE sid = 10").unwrap();
        assert_eq!(
            apply(&v, &db, "suppliers", &[(-1, &supplier(10, 1, "west"))]),
            1
        );
        assert_eq!(v.visible_rows(&db).unwrap().len(), 2);
        // Supplier 11 moves east → west (the view gains a row) and out again.
        s.execute("UPDATE suppliers SET region = 'west' WHERE sid = 11")
            .unwrap();
        let (east, west, north) = (
            supplier(11, 1, "east"),
            supplier(11, 1, "west"),
            supplier(11, 1, "north"),
        );
        apply(&v, &db, "suppliers", &[(-1, &east), (1, &west)]);
        assert_eq!(v.visible_rows(&db).unwrap().len(), 3);
        s.execute("UPDATE suppliers SET region = 'north' WHERE sid = 11")
            .unwrap();
        apply(&v, &db, "suppliers", &[(-1, &west), (1, &north)]);
        assert_eq!(v.visible_rows(&db).unwrap().len(), 2);
        // The other input: part 2 leaves and takes supplier 12's row along.
        let nut = Row::new(vec![Value::Int(2), Value::Str("nut".into()), Value::Int(0)]);
        s.execute("DELETE FROM parts WHERE id = 2").unwrap();
        assert_eq!(apply(&v, &db, "parts", &[(-1, &nut)]), 1);
        assert_equals_rebuild(&v, &db);
    }

    #[test]
    fn stream_replay_on_the_middle_table_of_a_chain_equals_full_recompute() {
        // regions ⋈ suppliers ⋈ parts, deltas on `suppliers` (the middle of
        // the chain, so the join fans out to both sides), with a key
        // deleted and re-inserted inside one stream.
        let db = parts_and_suppliers();
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
        let v = View::compile(&db, def).unwrap();
        let mut txn = db.begin();
        assert_eq!(v.refresh_full(&db, &mut txn).unwrap(), 2);
        db.commit(txn).unwrap();

        s.execute("DELETE FROM suppliers WHERE sid = 10").unwrap();
        s.execute(
            "INSERT INTO suppliers VALUES (10, 3, 'north'), (15, 2, 'west'), (16, 1, 'south')",
        )
        .unwrap();
        s.execute("UPDATE suppliers SET region = 'west' WHERE sid = 11")
            .unwrap();
        let (d10, i10) = (supplier(10, 1, "west"), supplier(10, 3, "north"));
        let (i15, i16) = (supplier(15, 2, "west"), supplier(16, 1, "south"));
        let (b11, a11) = (supplier(11, 1, "east"), supplier(11, 1, "west"));
        let stream = [
            (-1, &d10),
            (1, &i10),
            (1, &i15),
            (1, &i16),
            (-1, &b11),
            (1, &a11),
        ];
        // 10 leaves; 10, 15 and 11 arrive; 16's region does not exist.
        assert_eq!(apply(&v, &db, "suppliers", &stream), 4);
        assert_eq!(v.visible_rows(&db).unwrap().len(), 4);
        assert_equals_rebuild(&v, &db);
    }

    #[test]
    fn single_table_view_without_joins() {
        let db = parts_and_suppliers();
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
        let v = View::compile(&db, def).unwrap();
        let mut txn = db.begin();
        let n = v.refresh_full(&db, &mut txn).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(n, 2, "parts with qty > 0");
    }

    fn sales_db(label: &str, rows: &str) -> Arc<Database> {
        let db = open_temp(label).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE sales (id INT PRIMARY KEY, region VARCHAR, amount INT)")
            .unwrap();
        s.execute(&format!("INSERT INTO sales VALUES {rows}"))
            .unwrap();
        db
    }

    fn by_region(aggregates: Vec<AggSpec>) -> AggViewDef {
        AggViewDef {
            name: "sales_by_region".into(),
            table: "sales".into(),
            group_by: vec!["region".into()],
            aggregates,
            selection: None,
        }
    }

    /// west: 100, 50; east: 70 — under every aggregate kind.
    fn sales() -> (Arc<Database>, View) {
        let db = sales_db(
            "aggview",
            "(1, 'west', 100), (2, 'west', 50), (3, 'east', 70)",
        );
        let def = by_region(vec![
            AggSpec::count_star(),
            AggSpec::of(AggFunc::Sum, "amount"),
            AggSpec::of(AggFunc::Avg, "amount"),
            AggSpec::of(AggFunc::Min, "amount"),
            AggSpec::of(AggFunc::Max, "amount"),
        ]);
        let v = materialize(&db, def);
        (db, v)
    }

    fn sale(id: i64, region: &str, amount: i64) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Str(region.into()),
            Value::Int(amount),
        ])
    }

    #[test]
    fn full_refresh_matches_sql_recompute() {
        let (db, v) = sales();
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
    fn an_int_sum_stays_exact_past_two_to_the_53() {
        let db = sales_db("aggview-int-sum", "(1, 'east', 70)");
        let def = by_region(vec![
            AggSpec::count_star(),
            AggSpec::of(AggFunc::Sum, "amount"),
        ]);
        let v = materialize(&db, def);
        let big = (1i64 << 53) + 1;
        let mut s = db.session();
        s.execute(&format!(
            "INSERT INTO sales VALUES (2, 'west', {big}), (3, 'west', 1), (4, 'west', 1)"
        ))
        .unwrap();
        let rows = [sale(2, "west", big), sale(3, "west", 1), sale(4, "west", 1)];
        let stream: Vec<(i64, &Row)> = rows.iter().map(|row| (1, row)).collect();
        apply(&v, &db, "sales", &stream);
        let west = v.visible_rows(&db).unwrap().pop().unwrap();
        assert_eq!(west.values()[2], Value::Int(9_007_199_254_740_995));
        assert!(v.verify_against_recompute(&db).unwrap(), "{v}");
        // The big row leaves again: exactly the two small ones remain.
        s.execute("DELETE FROM sales WHERE id = 2").unwrap();
        apply(&v, &db, "sales", &[(-1, &rows[0])]);
        let west = v.visible_rows(&db).unwrap().pop().unwrap();
        assert_eq!(west.values()[2], Value::Int(2));
        assert_equals_rebuild(&v, &db);
    }

    #[test]
    fn groups_sink_creates_updates_moves_and_removes_groups() {
        let (db, v) = sales();
        let mut s = db.session();
        s.execute("INSERT INTO sales VALUES (4, 'west', 10), (5, 'north', 5)")
            .unwrap();
        let stream = [(1, &sale(4, "west", 10)), (1, &sale(5, "north", 5))];
        assert_eq!(apply(&v, &db, "sales", &stream), 2);
        assert_eq!(v.visible_rows(&db).unwrap().len(), 3, "north appeared");
        assert!(v.verify_against_recompute(&db).unwrap());
        // Row 2 moves west → east.
        s.execute("UPDATE sales SET region = 'east', amount = 80 WHERE id = 2")
            .unwrap();
        let stream = [(-1, &sale(2, "west", 50)), (1, &sale(2, "east", 80))];
        apply(&v, &db, "sales", &stream);
        let rows = v.visible_rows(&db).unwrap();
        assert_eq!(rows[0].values()[1], Value::Int(2), "east count");
        assert_eq!(rows[2].values()[1], Value::Int(2), "west count");
        // north's only row leaves, and the group with it.
        s.execute("DELETE FROM sales WHERE id = 5").unwrap();
        apply(&v, &db, "sales", &[(-1, &sale(5, "north", 5))]);
        assert_eq!(v.visible_rows(&db).unwrap().len(), 2, "north gone");
        assert_equals_rebuild(&v, &db);
    }

    #[test]
    fn deleting_the_extreme_rescans_min_max() {
        let (db, v) = sales();
        // Delete west's max (100): max must become 50 via the base rescan.
        db.session()
            .execute("DELETE FROM sales WHERE id = 1")
            .unwrap();
        apply(&v, &db, "sales", &[(-1, &sale(1, "west", 100))]);
        let rows = v.visible_rows(&db).unwrap();
        assert_eq!(rows[1].values()[4], Value::Int(50), "min");
        assert_eq!(rows[1].values()[5], Value::Int(50), "max found again");
        assert_equals_rebuild(&v, &db);
    }

    #[test]
    fn selection_filters_base_rows() {
        let db = sales_db("aggview-sel", "(1, 'west', 100), (2, 'west', 5)");
        let mut def = by_region(vec![AggSpec::count_star()]);
        def.selection = Some(parse_expression("amount >= 50").unwrap());
        let v = materialize(&db, def);
        let rows = v.visible_rows(&db).unwrap();
        assert_eq!(rows[0].values()[1], Value::Int(1), "small sale filtered");
        // An insert below the threshold is a no-op for the view.
        assert_eq!(apply(&v, &db, "sales", &[(1, &sale(3, "west", 1))]), 0);
        assert!(v.verify_against_recompute(&db).unwrap());
    }

    #[test]
    fn global_summary_without_group_by() {
        let (db, _) = sales();
        let def = AggViewDef {
            name: "totals".into(),
            table: "sales".into(),
            group_by: vec![],
            aggregates: vec![AggSpec::count_star(), AggSpec::of(AggFunc::Sum, "amount")],
            selection: None,
        };
        let v = materialize(&db, def);
        let rows = v.visible_rows(&db).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values()[0], Value::Int(3));
        assert_eq!(rows[0].values()[1], Value::Int(220));
        assert!(v.verify_against_recompute(&db).unwrap());
        // Summarising nothing, the view holds no row — and verifies.
        let mut s = db.session();
        s.execute("DELETE FROM sales").unwrap();
        let gone = [
            sale(1, "west", 100),
            sale(2, "west", 50),
            sale(3, "east", 70),
        ];
        let stream: Vec<(i64, &Row)> = gone.iter().map(|r| (-1, r)).collect();
        apply(&v, &db, "sales", &stream);
        assert!(v.visible_rows(&db).unwrap().is_empty());
        assert!(v.verify_against_recompute(&db).unwrap());
    }

    #[test]
    fn null_amounts_are_invisible_to_aggregates_but_count_star() {
        let db = sales_db("aggview-null", "(1, 'west', NULL), (2, 'west', 10)");
        let v = materialize(
            &db,
            by_region(vec![
                AggSpec::count_star(),
                AggSpec::of(AggFunc::Count, "amount"),
                AggSpec::of(AggFunc::Sum, "amount"),
            ]),
        );
        let rows = v.visible_rows(&db).unwrap();
        assert_eq!(rows[0].values()[1], Value::Int(2), "COUNT(*)");
        assert_eq!(rows[0].values()[2], Value::Int(1), "COUNT(amount)");
        assert_eq!(rows[0].values()[3], Value::Int(10));
        assert!(v.verify_against_recompute(&db).unwrap());
    }

    #[test]
    fn aborting_after_a_group_died_restores_the_stored_row() {
        // The write-back must hand `delete_row` the stored row as the before
        // image; with the folded (`__rows = 0`) row an abort would bring
        // back a zero-count group.
        let (db, v) = sales();
        let before = stored(&db, "sales_by_region");
        let last_of_east = sale(3, "east", 70);
        let mut txn = db.begin();
        v.apply_stream(&db, &mut txn, "sales", &[(-1, &last_of_east)])
            .unwrap();
        assert_eq!(v.visible_rows(&db).unwrap().len(), 1);
        db.abort(txn).unwrap();
        assert_eq!(stored(&db, "sales_by_region"), before);
    }

    #[test]
    fn group_that_dies_mid_batch_restarts_from_a_fresh_row() {
        // east (one row, 70) dies and is reborn inside one stream: the
        // reborn group's state must be that of a group born then — no
        // residue in the hidden sums — as a rebuild leaves it.
        let (db, v) = sales();
        let mut s = db.session();
        s.execute("DELETE FROM sales WHERE id = 3").unwrap();
        s.execute("INSERT INTO sales VALUES (4, 'east', 9)")
            .unwrap();
        let (dead, reborn) = (sale(3, "east", 70), sale(4, "east", 9));
        apply(&v, &db, "sales", &[(-1, &dead), (1, &reborn)]);
        assert_equals_rebuild(&v, &db);
    }

    #[test]
    fn batched_fold_matches_a_rebuild() {
        // One stream kills west's max, moves a row into east, empties east
        // again, and births a fresh group: group births, group deaths and
        // a MIN/MAX rescan, each touched group written once.
        let (db, v) = sales();
        let mut s = db.session();
        for sql in [
            "DELETE FROM sales WHERE id = 1",
            "UPDATE sales SET region = 'east', amount = 80 WHERE id = 2",
            "DELETE FROM sales WHERE id = 3",
            "DELETE FROM sales WHERE id = 2",
            "INSERT INTO sales VALUES (4, 'north', 5), (6, 'west', 20), (7, 'west', 60)",
        ] {
            s.execute(sql).unwrap();
        }
        let rows = [
            (-1, sale(1, "west", 100)),
            (-1, sale(2, "west", 50)),
            (1, sale(2, "east", 80)),
            (-1, sale(3, "east", 70)),
            (-1, sale(2, "east", 80)),
            (1, sale(4, "north", 5)),
            (1, sale(6, "west", 20)),
            (1, sale(7, "west", 60)),
        ];
        let stream: Vec<(i64, &Row)> = rows.iter().map(|(sign, r)| (*sign, r)).collect();
        let mut txn = db.begin();
        assert_eq!(v.apply_stream(&db, &mut txn, "sales", &stream).unwrap(), 8);
        // west updated, east deleted, north inserted.
        assert_eq!(txn.change_count(), 3);
        db.commit(txn).unwrap();
        assert_eq!(v.visible_rows(&db).unwrap().len(), 2);
        assert_equals_rebuild(&v, &db);
    }

    #[test]
    fn wrong_arity_image_is_a_typed_error_for_both_sinks() {
        let (db, v) = sales();
        let short = Row::new(vec![Value::Int(9), Value::Str("west".into())]);
        let mut txn = db.begin();
        let err = v
            .apply_stream(
                &db,
                &mut txn,
                "sales",
                &[(1, &sale(8, "west", 1)), (-1, &short)],
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Invalid(_)), "{err}");
        db.abort(txn).unwrap();
        assert!(v.verify_against_recompute(&db).unwrap());

        let db = parts_and_suppliers();
        let v = materialize(&db, west_parts());
        let mut txn = db.begin();
        let err = v
            .apply_stream(&db, &mut txn, "suppliers", &[(-1, &short)])
            .unwrap_err();
        assert!(matches!(err, EngineError::Invalid(_)), "{err}");
        db.abort(txn).unwrap();
    }

    #[test]
    fn display_prints_the_plan_of_either_definition() {
        let db = parts_and_suppliers();
        let v = View::compile(&db, west_parts()).unwrap();
        assert_eq!(
            v.to_string(),
            "view west_parts\n  \
             delta parts ⋈ suppliers on suppliers_part_id = parts_id\n  \
             delta suppliers ⋈ parts on parts_id = suppliers_part_id\n  \
             select (suppliers_region = 'west')\n  \
             rows (parts_id, parts_name, suppliers_sid, suppliers_region) \
             keyed by (parts_id, suppliers_sid)"
        );
        let (_, v) = sales();
        assert_eq!(
            v.to_string(),
            "view sales_by_region\n  \
             delta sales\n  \
             groups by (region) fold COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount)"
        );
    }
}
