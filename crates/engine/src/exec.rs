//! Statement execution: DML/query dispatch and access-path selection.
//!
//! [`execute`] is the only place a row change is stamped or captured. A DML
//! statement reads the clock once, and per row it stamps the table's
//! auto-timestamp column on the row it built (INSERT, UPDATE), calls the
//! row primitive, then writes the images of the redo record that primitive
//! pushed into the delta table of each capture trigger on the table
//! ([`crate::trigger`]). A failed row leaves the rows before it, and their
//! delta rows, to the transaction.

use std::ops::{Bound, ControlFlow};
use std::sync::Arc;

use delta_sql::ast::{BinOp, Expr, OrderKey, SelectItem, Statement};
use delta_sql::eval::CompiledExpr;
use delta_storage::{EncodedRow, RecordId, Row, Value};

use crate::catalog::TableMeta;
use crate::db::Database;
use crate::error::{EngineError, EngineResult};
use crate::index::Index;
use crate::lock::LockMode;
use crate::trigger::delta_rows;
use crate::txn::Transaction;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names (SELECT only).
    pub columns: Vec<String>,
    /// Output rows (SELECT only).
    pub rows: Vec<Row>,
    /// Rows inserted/updated/deleted (DML only).
    pub affected: u64,
}

impl QueryResult {
    fn dml(affected: u64) -> QueryResult {
        QueryResult {
            affected,
            ..Default::default()
        }
    }
}

/// The access path chosen for a scan (exposed for tests and the
/// `ablation_ts_index` benchmark).
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full sequential scan.
    SeqScan,
    /// Index range scan over the named index.
    IndexRange {
        index: String,
        /// Estimated fraction of the table matched.
        estimated_fraction: f64,
    },
}

/// Execute a DML or SELECT statement inside `txn`.
///
/// DDL and transaction-control statements are routed by
/// [`crate::session::Session`], not here.
pub fn execute(
    db: &Database,
    txn: &mut Transaction,
    stmt: &Statement,
) -> EngineResult<QueryResult> {
    db.count_statement();
    let now = db.now_micros();
    match stmt {
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let meta = db.table(table)?;
            db.lock_table(txn, table, LockMode::Exclusive)?;
            let steps = RowSteps::of(db, &meta)?;
            let mut n = 0u64;
            for value_exprs in rows {
                let mut row = build_insert_row(&meta, columns.as_deref(), value_exprs, now)?;
                steps.stamp(&mut row, now);
                let at = txn.redo_mark();
                db.insert_row(txn, &meta, row)?;
                steps.capture(db, txn, at)?;
                n += 1;
            }
            Ok(QueryResult::dml(n))
        }
        Statement::Update {
            table,
            sets,
            predicate,
        } => {
            let meta = db.table(table)?;
            db.lock_table(txn, table, LockMode::Exclusive)?;
            // Resolve target columns and compile their expressions once.
            let mut targets = Vec::with_capacity(sets.len());
            for (col, e) in sets {
                let pos = meta.schema.index_of(col).ok_or_else(|| {
                    EngineError::Invalid(format!("unknown column '{col}' in UPDATE"))
                })?;
                targets.push((pos, CompiledExpr::for_schema(e, &meta.schema)));
            }
            let steps = RowSteps::of(db, &meta)?;
            let matches = matching_rows(db, &meta, predicate.as_ref(), now)?;
            let mut n = 0u64;
            for (rid, old) in matches {
                let mut new = old.clone();
                for (pos, e) in &targets {
                    new.set(*pos, e.eval(old.values(), now)?);
                }
                steps.stamp(&mut new, now);
                let at = txn.redo_mark();
                db.update_row(txn, &meta, rid, old, new)?;
                steps.capture(db, txn, at)?;
                n += 1;
            }
            Ok(QueryResult::dml(n))
        }
        Statement::Delete { table, predicate } => {
            let meta = db.table(table)?;
            db.lock_table(txn, table, LockMode::Exclusive)?;
            let steps = RowSteps::of(db, &meta)?;
            let matches = matching_rows(db, &meta, predicate.as_ref(), now)?;
            let mut n = 0u64;
            for (rid, old) in matches {
                let at = txn.redo_mark();
                db.delete_row(txn, &meta, rid, old)?;
                steps.capture(db, txn, at)?;
                n += 1;
            }
            Ok(QueryResult::dml(n))
        }
        Statement::Select {
            projection,
            table,
            predicate,
            group_by,
            order_by,
            limit,
        } => {
            let meta = db.table(table)?;
            db.lock_table(txn, table, LockMode::Shared)?;
            let mut matches = matching_rows(db, &meta, predicate.as_ref(), now)?;
            let has_agg = projection.iter().any(
                |item| matches!(item, SelectItem::Expr { expr, .. } if expr.contains_aggregate()),
            );
            let mut result = if has_agg || !group_by.is_empty() {
                aggregate_project(&meta, projection, group_by, order_by, matches, now)?
            } else {
                // Order the candidate rows on keys evaluated against the
                // source row, then project.
                if !order_by.is_empty() {
                    let keys: Vec<(CompiledExpr, bool)> = order_by
                        .iter()
                        .map(|k| {
                            (
                                CompiledExpr::for_schema(&k.expr, &meta.schema),
                                k.descending,
                            )
                        })
                        .collect();
                    sort_by_keys(&mut matches, |(_, row)| {
                        keys.iter()
                            .map(|(k, descending)| {
                                k.eval(row.values(), now).map(|v| (v, *descending))
                            })
                            .collect()
                    })?;
                }
                project(&meta, projection, matches, now)?
            };
            if let Some(n) = limit {
                result.rows.truncate(*n as usize);
            }
            Ok(result)
        }
        other => Err(EngineError::Invalid(format!(
            "executor cannot handle {other}"
        ))),
    }
}

/// What a DML statement does around each row primitive, resolved once per
/// statement: stamp the table's auto-timestamp column on the row it built
/// (INSERT and UPDATE), and, after the change, write its images into the
/// delta table of every capture trigger on the table.
struct RowSteps {
    stamp_pos: Option<usize>,
    targets: Vec<Arc<TableMeta>>,
}

impl RowSteps {
    fn of(db: &Database, meta: &TableMeta) -> EngineResult<RowSteps> {
        let stamp_pos = meta
            .options
            .auto_timestamp
            .as_deref()
            .and_then(|c| meta.schema.index_of(c));
        let targets = db
            .triggers()
            .targets(&meta.name)
            .iter()
            .map(|t| db.table(t))
            .collect::<EngineResult<_>>()?;
        Ok(RowSteps { stamp_pos, targets })
    }

    /// Stamp `row` with the statement's clock reading, if the table has an
    /// auto-timestamp column.
    fn stamp(&self, row: &mut Row, now: i64) {
        if let Some(pos) = self.stamp_pos {
            row.set(pos, Value::Timestamp(now));
        }
    }

    /// Capture the row change the primitive logged at redo position `at`:
    /// its images (`I`, `D`, or `UB` then `UA`) go into each delta table
    /// through `insert_row`, in the same transaction and ahead of the next
    /// row's change.
    fn capture(&self, db: &Database, txn: &mut Transaction, at: usize) -> EngineResult<()> {
        for target in &self.targets {
            let Some(rec) = txn.wal_buffer.get(at) else {
                return Ok(());
            };
            let rows = delta_rows(rec);
            db.lock_table(txn, &target.name, LockMode::Exclusive)?;
            for row in rows {
                db.insert_row(txn, target, row)?;
            }
        }
        Ok(())
    }
}

fn build_insert_row(
    meta: &TableMeta,
    columns: Option<&[String]>,
    value_exprs: &[Expr],
    now: i64,
) -> EngineResult<Row> {
    // A value list names no column: every reference compiles to `unknown
    // column`, raised if it is evaluated. A literal is cloned as it
    // stands: compiling it and evaluating it out would copy it twice.
    let eval = |e: &Expr| match e {
        Expr::Literal(v) => Ok(v.clone()),
        _ => CompiledExpr::compile(e, |_| None).eval(&[] as &[Value], now),
    };
    match columns {
        None => {
            if value_exprs.len() != meta.schema.len() {
                return Err(EngineError::Invalid(format!(
                    "INSERT has {} values for {} columns",
                    value_exprs.len(),
                    meta.schema.len()
                )));
            }
            let mut vals = Vec::with_capacity(value_exprs.len());
            for e in value_exprs {
                vals.push(eval(e)?);
            }
            Ok(Row::new(vals))
        }
        Some(cols) => {
            if value_exprs.len() != cols.len() {
                return Err(EngineError::Invalid(format!(
                    "INSERT column list has {} names but {} values",
                    cols.len(),
                    value_exprs.len()
                )));
            }
            let mut vals = vec![Value::Null; meta.schema.len()];
            for (c, e) in cols.iter().zip(value_exprs) {
                let pos = meta.schema.index_of(c).ok_or_else(|| {
                    EngineError::Invalid(format!("unknown column '{c}' in INSERT"))
                })?;
                vals[pos] = eval(e)?;
            }
            Ok(Row::new(vals))
        }
    }
}

/// An access path resolved to what running it needs: the index itself and
/// the bounds the choice was made on, so a statement derives both once.
/// [`AccessPath`] is its public description.
enum Plan {
    SeqScan,
    IndexRange {
        index: Arc<Index>,
        lo: Bound<Value>,
        hi: Bound<Value>,
        estimated_fraction: f64,
    },
}

/// Rows of `meta` matching `predicate`, via the chosen access path.
///
/// The predicate is compiled once to column positions and evaluated on each
/// record's stored bytes; only a match is decoded (DESIGN.md §24), so a scan
/// allocates one page buffer and one row per match. Decoding every row
/// costs three allocations per *table* row, and their cost swings 2-3x with
/// the state of the process heap (§20.6). `EncodedRow::index` checks every
/// cell as `Row::from_bytes` does, so a damaged record fails the statement
/// whether it matches or not, and keeps what it read for the predicate's
/// column tests (§40).
pub fn matching_rows(
    db: &Database,
    meta: &TableMeta,
    predicate: Option<&Expr>,
    now: i64,
) -> EngineResult<Vec<(RecordId, Row)>> {
    let compiled = predicate.map(|p| CompiledExpr::for_schema(p, &meta.schema));
    let mut cells = Vec::new();
    let mut keep = |bytes: &[u8]| -> EngineResult<bool> {
        match &compiled {
            Some(p) => Ok(p.matches(&EncodedRow::index(bytes, &mut cells)?, now)?),
            None => Ok(true),
        }
    };
    let mut out = Vec::new();
    let heap = db.heap(&meta.name)?;
    match plan_access(db, meta, predicate) {
        Plan::SeqScan => heap.for_each(|rid, bytes| {
            if keep(bytes)? {
                out.push((rid, Row::from_bytes(bytes)?));
            }
            Ok::<_, EngineError>(ControlFlow::Continue(()))
        })?,
        Plan::IndexRange { index, lo, hi, .. } => {
            let rids = index.range(as_ref_bound(&lo), as_ref_bound(&hi));
            // `keep` touches neither the heap nor its pool, so it may read
            // each record in place under the page latch.
            heap.for_each_at(&rids, |rid, bytes| -> EngineResult<()> {
                let Some(bytes) = bytes else {
                    return Ok(());
                };
                if keep(bytes)? {
                    out.push((rid, Row::from_bytes(bytes)?));
                }
                Ok(())
            })?;
        }
    }
    Ok(out)
}

/// Pick seq-scan vs index-range for `predicate` on `meta`, applying the
/// selectivity threshold of §3.1.1 ("indices may not be used ... if the
/// deltas form a significant portion of the table").
pub fn choose_access_path(db: &Database, meta: &TableMeta, predicate: Option<&Expr>) -> AccessPath {
    match plan_access(db, meta, predicate) {
        Plan::SeqScan => AccessPath::SeqScan,
        Plan::IndexRange {
            index,
            estimated_fraction,
            ..
        } => AccessPath::IndexRange {
            index: index.def.name.clone(),
            estimated_fraction,
        },
    }
}

/// Use an index only when the estimated matching fraction is at most this
/// (reproduces §3.1.1's optimizer remark).
pub const INDEX_SCAN_THRESHOLD: f64 = 0.2;

fn plan_access(db: &Database, meta: &TableMeta, predicate: Option<&Expr>) -> Plan {
    let Some(pred) = predicate else {
        return Plan::SeqScan;
    };
    for index in db.indexes().for_table(&meta.name).iter() {
        let Some((lo, hi)) = bounds_for(pred, &index.def.column) else {
            continue;
        };
        if matches!(lo, Bound::Unbounded) && matches!(hi, Bound::Unbounded) {
            continue;
        }
        let total = index.len().max(1);
        // A range that will be refused costs no more to estimate than one
        // that is accepted: any count past `INDEX_SCAN_THRESHOLD × total` is
        // refused whatever its size. The `+ 1` keeps the comparison below exact when
        // the product lands a rounding error under a whole number.
        let limit = ((INDEX_SCAN_THRESHOLD * total as f64) as usize).saturating_add(1);
        let matched = index.count_range(as_ref_bound(&lo), as_ref_bound(&hi), limit);
        let estimated_fraction = matched as f64 / total as f64;
        if estimated_fraction <= INDEX_SCAN_THRESHOLD {
            return Plan::IndexRange {
                index: index.clone(),
                lo,
                hi,
                estimated_fraction,
            };
        }
    }
    Plan::SeqScan
}

fn as_ref_bound(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Derive index-range bounds for `column` from the top-level AND conjuncts of
/// `pred`. Only `col op literal` / `literal op col` conjuncts contribute.
pub fn bounds_for(pred: &Expr, column: &str) -> Option<(Bound<Value>, Bound<Value>)> {
    let mut lo: Bound<Value> = Bound::Unbounded;
    let mut hi: Bound<Value> = Bound::Unbounded;
    let mut found = false;
    let mut stack = vec![pred];
    while let Some(e) = stack.pop() {
        if let Expr::Binary { left, op, right } = e {
            if *op == BinOp::And {
                stack.push(left);
                stack.push(right);
                continue;
            }
            // Normalize to col-op-literal.
            let (col, op, lit) = match (&**left, &**right) {
                (Expr::Column(c), Expr::Literal(v)) if c == column => (c, *op, v),
                (Expr::Literal(v), Expr::Column(c)) if c == column => (c, flip(*op), v),
                _ => continue,
            };
            let _ = col;
            found = true;
            match op {
                BinOp::Eq => {
                    tighten_lo(&mut lo, Bound::Included(lit.clone()));
                    tighten_hi(&mut hi, Bound::Included(lit.clone()));
                }
                BinOp::Gt => tighten_lo(&mut lo, Bound::Excluded(lit.clone())),
                BinOp::Ge => tighten_lo(&mut lo, Bound::Included(lit.clone())),
                BinOp::Lt => tighten_hi(&mut hi, Bound::Excluded(lit.clone())),
                BinOp::Le => tighten_hi(&mut hi, Bound::Included(lit.clone())),
                // Ops like <> contribute no range; the residual predicate is
                // re-applied after the index scan anyway.
                _ => {}
            }
        }
    }
    if found {
        Some((lo, hi))
    } else {
        None
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn tighten_lo(current: &mut Bound<Value>, candidate: Bound<Value>) {
    let better = match (&*current, &candidate) {
        (Bound::Unbounded, _) => true,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b)) => {
            b.total_cmp(a) == std::cmp::Ordering::Greater
        }
        (Bound::Included(a), Bound::Excluded(b)) => b.total_cmp(a) != std::cmp::Ordering::Less,
        (Bound::Excluded(a), Bound::Excluded(b)) => b.total_cmp(a) == std::cmp::Ordering::Greater,
        (_, Bound::Unbounded) => false,
    };
    if better {
        *current = candidate;
    }
}

fn tighten_hi(current: &mut Bound<Value>, candidate: Bound<Value>) {
    let better = match (&*current, &candidate) {
        (Bound::Unbounded, _) => true,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b)) => {
            b.total_cmp(a) == std::cmp::Ordering::Less
        }
        (Bound::Included(a), Bound::Excluded(b)) => b.total_cmp(a) != std::cmp::Ordering::Greater,
        (Bound::Excluded(a), Bound::Excluded(b)) => b.total_cmp(a) == std::cmp::Ordering::Less,
        (_, Bound::Unbounded) => false,
    };
    if better {
        *current = candidate;
    }
}

fn project(
    meta: &TableMeta,
    projection: &[SelectItem],
    matches: Vec<(RecordId, Row)>,
    now: i64,
) -> EngineResult<QueryResult> {
    // Column headers.
    let mut columns = Vec::new();
    for item in projection {
        match item {
            SelectItem::Wildcard => {
                columns.extend(meta.schema.columns().iter().map(|c| c.name.clone()))
            }
            SelectItem::Expr { expr, alias } => columns.push(match alias {
                Some(a) => a.clone(),
                None => match expr {
                    Expr::Column(c) => c.clone(),
                    other => other.to_string(),
                },
            }),
        }
    }
    // A lone `*` hands the matched rows over as they are.
    if let [SelectItem::Wildcard] = projection {
        return Ok(QueryResult {
            columns,
            rows: matches.into_iter().map(|(_, row)| row).collect(),
            affected: 0,
        });
    }
    let items: Vec<Option<CompiledExpr>> = projection
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => None,
            SelectItem::Expr { expr, .. } => Some(CompiledExpr::for_schema(expr, &meta.schema)),
        })
        .collect();
    let mut rows = Vec::with_capacity(matches.len());
    for (_, row) in matches {
        let mut out = Vec::with_capacity(columns.len());
        for item in &items {
            match item {
                None => out.extend(row.values().iter().cloned()),
                Some(e) => out.push(e.eval(row.values(), now)?),
            }
        }
        rows.push(Row::new(out));
    }
    Ok(QueryResult {
        columns,
        rows,
        affected: 0,
    })
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

/// One aggregate accumulator (SQL semantics: NULL inputs are skipped; empty
/// input yields NULL except for COUNT, which yields 0).
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: delta_sql::ast::AggFunc,
    rows: u64,
    non_null: u64,
    sum_int: i64,
    sum_float: f64,
    saw_float: bool,
    extreme: Option<Value>,
}

impl Accumulator {
    /// Create an accumulator for the given aggregate function.
    pub fn new(func: delta_sql::ast::AggFunc) -> Accumulator {
        Accumulator {
            func,
            rows: 0,
            non_null: 0,
            sum_int: 0,
            sum_float: 0.0,
            saw_float: false,
            extreme: None,
        }
    }

    /// Feed one row's argument value (`None` for `COUNT(*)`).
    pub fn push(&mut self, v: Option<&Value>) -> EngineResult<()> {
        use delta_sql::ast::AggFunc::*;
        self.rows += 1;
        let Some(v) = v else { return Ok(()) };
        if v.is_null() {
            return Ok(());
        }
        self.non_null += 1;
        match self.func {
            Count => {}
            Sum | Avg => match v {
                Value::Int(i) | Value::Timestamp(i) => self.sum_int = self.sum_int.wrapping_add(*i),
                Value::Double(d) => {
                    self.saw_float = true;
                    self.sum_float += d;
                }
                other => {
                    return Err(EngineError::Invalid(format!(
                        "cannot {}() a {other}",
                        self.func.name()
                    )))
                }
            },
            Min => {
                let better = match &self.extreme {
                    None => true,
                    Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Less,
                };
                if better {
                    self.extreme = Some(v.clone());
                }
            }
            Max => {
                let better = match &self.extreme {
                    None => true,
                    Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Greater,
                };
                if better {
                    self.extreme = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// The aggregate's final value.
    pub fn finish(&self, counts_star: bool) -> Value {
        use delta_sql::ast::AggFunc::*;
        match self.func {
            Count => Value::Int(if counts_star {
                self.rows
            } else {
                self.non_null
            } as i64),
            Sum => {
                if self.non_null == 0 {
                    Value::Null
                } else if self.saw_float {
                    Value::Double(self.sum_float + self.sum_int as f64)
                } else {
                    Value::Int(self.sum_int)
                }
            }
            Avg => {
                if self.non_null == 0 {
                    Value::Null
                } else {
                    Value::Double((self.sum_float + self.sum_int as f64) / self.non_null as f64)
                }
            }
            Min | Max => self.extreme.clone().unwrap_or(Value::Null),
        }
    }
}

/// Group key with a total order (so groups are deterministic).
#[derive(Debug, Clone, PartialEq)]
struct GroupKey(Vec<Value>);

impl Eq for GroupKey {}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            let o = a.total_cmp(b);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// Column names `expr` references outside aggregate calls.
fn bare_columns(expr: &Expr) -> Vec<&str> {
    fn walk<'e>(expr: &'e Expr, out: &mut Vec<&'e str>) {
        match expr {
            Expr::Column(c) => out.push(c),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => walk(expr, out),
            Expr::Binary { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            Expr::Literal(_) | Expr::Now | Expr::Aggregate { .. } => {}
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// Sort `items` by per-item key vectors (each key carries its direction).
/// Extracted so both the plain and aggregate paths share the comparator.
fn sort_by_keys<T>(
    items: &mut Vec<T>,
    mut key_of: impl FnMut(&T) -> Result<Vec<(Value, bool)>, delta_sql::EvalError>,
) -> EngineResult<()> {
    // Precompute keys (evaluation may fail; sorting itself cannot).
    let mut keyed: Vec<(usize, Vec<(Value, bool)>)> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        keyed.push((i, key_of(item).map_err(EngineError::Eval)?));
    }
    keyed.sort_by(|(_, a), (_, b)| {
        for ((va, desc), (vb, _)) in a.iter().zip(b) {
            let o = va.total_cmp(vb);
            let o = if *desc { o.reverse() } else { o };
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    let mut taken: Vec<Option<T>> = items.drain(..).map(Some).collect();
    for (i, _) in keyed {
        items.push(taken[i].take().expect("each slot moved once"));
    }
    Ok(())
}

/// Grouped/aggregate SELECT evaluation.
fn aggregate_project(
    meta: &TableMeta,
    projection: &[SelectItem],
    group_by: &[Expr],
    order_by: &[OrderKey],
    matches: Vec<(RecordId, Row)>,
    now: i64,
) -> EngineResult<QueryResult> {
    // Gather the distinct aggregate sub-expressions across the projection.
    let mut agg_exprs: Vec<Expr> = Vec::new();
    let mut columns = Vec::new();
    for item in projection {
        match item {
            SelectItem::Wildcard => {
                return Err(EngineError::Invalid(
                    "SELECT * cannot be combined with GROUP BY / aggregates".into(),
                ))
            }
            SelectItem::Expr { expr, alias } => {
                collect_aggs(expr, &mut agg_exprs);
                columns.push(match alias {
                    Some(a) => a.clone(),
                    None => expr.to_string(),
                });
                // Bare columns outside aggregates must be grouping columns.
                for col in bare_columns(expr) {
                    let grouped = group_by
                        .iter()
                        .any(|g| matches!(g, Expr::Column(c) if c == col));
                    if !grouped {
                        return Err(EngineError::Invalid(format!(
                            "column '{col}' must appear in GROUP BY or inside an aggregate"
                        )));
                    }
                }
            }
        }
    }

    // ORDER BY contributes aggregate expressions too; collect them before
    // accumulators are built so every group carries state for them.
    for k in order_by {
        for col in bare_columns(&k.expr) {
            let grouped = group_by
                .iter()
                .any(|g| matches!(g, Expr::Column(c) if c == col));
            if !grouped {
                return Err(EngineError::Invalid(format!(
                    "ORDER BY column '{col}' must appear in GROUP BY or inside an aggregate"
                )));
            }
        }
        collect_aggs(&k.expr, &mut agg_exprs);
    }

    // Compile once: the grouping keys and aggregate arguments read a matched
    // row; the projection and ORDER BY read a group's representative row
    // with its finished aggregates placed after it.
    let width = meta.schema.len();
    let position = |c: &str| meta.schema.index_of(c);
    let keys: Vec<CompiledExpr> = group_by
        .iter()
        .map(|g| CompiledExpr::for_schema(g, &meta.schema))
        .collect();
    let args: Vec<(delta_sql::ast::AggFunc, Option<CompiledExpr>)> = agg_exprs
        .iter()
        .filter_map(|e| match e {
            Expr::Aggregate { func, arg } => Some((
                *func,
                arg.as_deref()
                    .map(|a| CompiledExpr::for_schema(a, &meta.schema)),
            )),
            _ => None,
        })
        .collect();
    let items: Vec<CompiledExpr> = projection
        .iter()
        .filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => {
                Some(CompiledExpr::grouped(expr, position, &agg_exprs, width))
            }
            SelectItem::Wildcard => None,
        })
        .collect();
    let order: Vec<(CompiledExpr, bool)> = order_by
        .iter()
        .map(|k| {
            let key = CompiledExpr::grouped(&k.expr, position, &agg_exprs, width);
            (key, k.descending)
        })
        .collect();
    let accumulators = || -> Vec<Accumulator> {
        args.iter()
            .map(|(func, _)| Accumulator::new(*func))
            .collect()
    };

    // Group rows and feed accumulators.
    let mut groups: std::collections::BTreeMap<GroupKey, (Row, Vec<Accumulator>)> =
        Default::default();
    for (_, row) in &matches {
        let key = GroupKey(
            keys.iter()
                .map(|g| g.eval(row.values(), now))
                .collect::<Result<Vec<_>, _>>()?,
        );
        let entry = groups
            .entry(key)
            .or_insert_with(|| (row.clone(), accumulators()));
        for ((_, arg), acc) in args.iter().zip(entry.1.iter_mut()) {
            match arg {
                None => acc.push(None)?,
                Some(a) => {
                    let v = a.eval(row.values(), now)?;
                    acc.push(Some(&v))?;
                }
            }
        }
    }
    // A global aggregate over zero rows still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(
            GroupKey(vec![]),
            (Row::new(vec![Value::Null; width]), accumulators()),
        );
    }

    // Emit one output row per group.
    let mut rows = Vec::with_capacity(groups.len());
    let mut sort_keys: Vec<Vec<(Value, bool)>> = Vec::with_capacity(groups.len());
    for (_, (rep_row, accs)) in groups {
        let mut values = rep_row.into_values();
        values.resize(width, Value::Null);
        values.extend(agg_exprs.iter().zip(&accs).map(|(e, acc)| {
            let counts_star = matches!(e, Expr::Aggregate { arg: None, .. });
            acc.finish(counts_star)
        }));
        let out = items
            .iter()
            .map(|e| e.eval(&values[..], now))
            .collect::<Result<Vec<_>, _>>()?;
        rows.push(Row::new(out));
        let keys = order
            .iter()
            .map(|(k, descending)| k.eval(&values[..], now).map(|v| (v, *descending)))
            .collect::<Result<Vec<_>, _>>()?;
        sort_keys.push(keys);
    }
    if !order_by.is_empty() {
        let mut indexed: Vec<usize> = (0..rows.len()).collect();
        indexed.sort_by(|&a, &b| {
            for ((va, desc), (vb, _)) in sort_keys[a].iter().zip(&sort_keys[b]) {
                let o = va.total_cmp(vb);
                let o = if *desc { o.reverse() } else { o };
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows = indexed.into_iter().map(|i| rows[i].clone()).collect();
    }
    Ok(QueryResult {
        columns,
        rows,
        affected: 0,
    })
}

fn collect_aggs(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Aggregate { .. } if !out.iter().any(|e| e == expr) => {
            out.push(expr.clone());
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => collect_aggs(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_sql::ast::AggFunc;
    use delta_sql::parser::parse_expression;

    #[test]
    fn accumulator_count_distinguishes_star_from_column() {
        let mut acc = Accumulator::new(AggFunc::Count);
        acc.push(None).unwrap(); // COUNT(*) semantics
        acc.push(None).unwrap();
        assert_eq!(acc.finish(true), Value::Int(2));

        let mut acc = Accumulator::new(AggFunc::Count);
        acc.push(Some(&Value::Int(1))).unwrap();
        acc.push(Some(&Value::Null)).unwrap();
        assert_eq!(acc.finish(false), Value::Int(1), "NULLs not counted");
    }

    #[test]
    fn accumulator_sum_and_avg_mix_types_and_skip_nulls() {
        let mut sum = Accumulator::new(AggFunc::Sum);
        sum.push(Some(&Value::Int(3))).unwrap();
        sum.push(Some(&Value::Null)).unwrap();
        sum.push(Some(&Value::Double(1.5))).unwrap();
        assert_eq!(sum.finish(false), Value::Double(4.5));

        let mut avg = Accumulator::new(AggFunc::Avg);
        avg.push(Some(&Value::Int(10))).unwrap();
        avg.push(Some(&Value::Int(20))).unwrap();
        avg.push(Some(&Value::Null)).unwrap();
        assert_eq!(avg.finish(false), Value::Double(15.0));
    }

    #[test]
    fn accumulator_empty_inputs_yield_null_except_count() {
        for f in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            let acc = Accumulator::new(f);
            assert_eq!(acc.finish(false), Value::Null, "{f}");
        }
        let acc = Accumulator::new(AggFunc::Count);
        assert_eq!(acc.finish(true), Value::Int(0));
    }

    #[test]
    fn accumulator_minmax_track_extremes() {
        let mut min = Accumulator::new(AggFunc::Min);
        let mut max = Accumulator::new(AggFunc::Max);
        for v in [Value::Int(5), Value::Int(-3), Value::Null, Value::Int(9)] {
            min.push(Some(&v)).unwrap();
            max.push(Some(&v)).unwrap();
        }
        assert_eq!(min.finish(false), Value::Int(-3));
        assert_eq!(max.finish(false), Value::Int(9));
    }

    #[test]
    fn accumulator_rejects_non_numeric_sums() {
        let mut sum = Accumulator::new(AggFunc::Sum);
        assert!(sum.push(Some(&Value::Str("x".into()))).is_err());
    }

    #[test]
    fn bounds_extraction_combines_conjuncts() {
        let p = parse_expression("ts > 10 AND ts <= 20 AND other = 1").unwrap();
        let (lo, hi) = bounds_for(&p, "ts").unwrap();
        assert_eq!(lo, Bound::Excluded(Value::Int(10)));
        assert_eq!(hi, Bound::Included(Value::Int(20)));
    }

    #[test]
    fn bounds_extraction_handles_flipped_literal() {
        let p = parse_expression("100 <= ts").unwrap();
        let (lo, hi) = bounds_for(&p, "ts").unwrap();
        assert_eq!(lo, Bound::Included(Value::Int(100)));
        assert_eq!(hi, Bound::Unbounded);
    }

    #[test]
    fn equality_gives_point_bounds() {
        let p = parse_expression("id = 5").unwrap();
        let (lo, hi) = bounds_for(&p, "id").unwrap();
        assert_eq!(lo, Bound::Included(Value::Int(5)));
        assert_eq!(hi, Bound::Included(Value::Int(5)));
    }

    #[test]
    fn or_predicates_do_not_produce_bounds() {
        let p = parse_expression("ts > 10 OR id = 1").unwrap();
        assert!(bounds_for(&p, "ts").is_none());
    }

    #[test]
    fn unrelated_columns_do_not_produce_bounds() {
        let p = parse_expression("other > 10").unwrap();
        assert!(bounds_for(&p, "ts").is_none());
    }

    #[test]
    fn tighter_bound_wins() {
        let p = parse_expression("ts > 10 AND ts > 15").unwrap();
        let (lo, _) = bounds_for(&p, "ts").unwrap();
        assert_eq!(lo, Bound::Excluded(Value::Int(15)));
        let p = parse_expression("ts < 10 AND ts <= 5").unwrap();
        let (_, hi) = bounds_for(&p, "ts").unwrap();
        assert_eq!(hi, Bound::Included(Value::Int(5)));
    }
}
