//! The two warehouse maintenance strategies (§4.1).
//!
//! **Value delta** lost the source transaction boundaries, so correctness
//! forces the whole batch into one indivisible warehouse transaction that
//! exclusively locks every affected table up front — the *maintenance
//! outage*. Each delta record is translated into a single SQL statement: one
//! INSERT per inserted row, one keyed DELETE per deleted row, and a keyed
//! DELETE **plus** an INSERT per updated row (x deletes + x inserts, exactly
//! as the paper describes).
//!
//! **Op-Delta** preserved the boundaries, so each source transaction replays
//! as its own short warehouse transaction: one statement per captured
//! operation (or a handful of keyed statements for the before-image hybrid).
//! Locks are held per transaction; OLAP queries interleave between them.
//!
//! Both strategies maintain the registered views incrementally from one
//! image stream: the apply transaction's own redo tail. Every row change a
//! statement makes is already logged there by the engine, in execution
//! order, with the stored before and after rows, so an applier takes a mark
//! ([`Transaction::redo_mark`]) before a statement group and
//! `Warehouse::propagate_since` folds what was logged since into the views,
//! one [`View::apply_stream`] pass per view whatever its kind.
//! Propagation stays sequential, once per replayed statement group: each
//! delta joins against the state the other tables had when it ran. The
//! warehouse arms no trigger and keeps no table beside the mirrors, the
//! views and [`APPLIED_SEQ_TABLE`].
//!
//! The value-delta applier here is the paper's translation, kept as the
//! reference. [`crate::Pipeline::sync`] applies value-delta runs through
//! [`crate::direct::DirectValueApplier`] instead: the same outage
//! transaction (`Warehouse::outage_txn`) and the same view propagation,
//! once per run, without SQL in between.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use delta_core::model::{DeltaOp, OpDelta, ValueDelta};
use delta_engine::db::Database;
use delta_engine::exec;
use delta_engine::lock::LockMode;
use delta_engine::txn::Transaction;
use delta_engine::{EngineError, EngineResult, TableOptions};
use delta_sql::ast::{BinOp, Expr, Statement};
use delta_sql::parser::parse_statement;
use delta_storage::{Column, DataType, Row, Schema, Value};

use crate::mirror::MirrorConfig;
use crate::view::{AggViewDef, SpjView, View, ViewDef};

/// What an apply call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Warehouse transactions used.
    pub transactions: u64,
    /// SQL statements executed against mirrors.
    pub statements: u64,
    /// Mirror rows affected.
    pub rows_affected: u64,
    /// View rows inserted or deleted by incremental maintenance.
    pub view_rows_touched: u64,
}

impl ApplyReport {
    /// Accumulate another report into this one.
    pub fn merge(&mut self, other: ApplyReport) {
        self.transactions += other.transactions;
        self.statements += other.statements;
        self.rows_affected += other.rows_affected;
        self.view_rows_touched += other.view_rows_touched;
    }
}

/// A warehouse: mirrors + materialized views over one database.
pub struct Warehouse {
    db: Arc<Database>,
    mirrors: HashMap<String, MirrorConfig>,
    views: Vec<View>,
}

impl Warehouse {
    pub fn new(db: Arc<Database>) -> Warehouse {
        Warehouse {
            db,
            mirrors: HashMap::new(),
            views: Vec::new(),
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Register (and create) a mirror. Must precede views over it.
    pub fn add_mirror(&mut self, cfg: MirrorConfig) -> EngineResult<()> {
        cfg.create_in(&self.db)?;
        self.mirrors.insert(cfg.table.clone(), cfg);
        Ok(())
    }

    /// The mirror config for `table`.
    pub fn mirror(&self, table: &str) -> EngineResult<&MirrorConfig> {
        self.mirrors
            .get(table)
            .ok_or_else(|| EngineError::NoSuchObject(format!("mirror '{table}'")))
    }

    /// Registered mirror names, sorted.
    pub fn mirror_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.mirrors.keys().cloned().collect();
        v.sort();
        v
    }

    /// Register an SPJ view over the mirrors and materialize it. From then
    /// on every apply transaction folds the row changes it logs on those
    /// mirrors into the view (`propagate_since`); nothing is installed on
    /// the mirrors themselves.
    pub fn add_view(&mut self, def: SpjView) -> EngineResult<()> {
        self.register(def.into())
    }

    /// Register an aggregate (summary-table) view over one mirror and
    /// materialize it. Maintained like any other view.
    pub fn add_agg_view(&mut self, def: AggViewDef) -> EngineResult<()> {
        self.register(def.into())
    }

    fn register(&mut self, def: ViewDef) -> EngineResult<()> {
        if let Some(t) = def.tables().iter().find(|t| !self.mirrors.contains_key(*t)) {
            return Err(EngineError::NoSuchObject(format!(
                "view '{}' needs mirror '{t}'",
                def.name()
            )));
        }
        let view = View::compile(&self.db, def)?;
        self.db.in_txn(|txn| view.refresh_full(&self.db, txn))?;
        self.views.push(view);
        Ok(())
    }

    /// The registered view named `name`.
    pub fn view(&self, name: &str) -> Option<&View> {
        self.views.iter().find(|v| v.name() == name)
    }

    /// [`Warehouse::view`] under the name the frozen dwbench harness calls.
    pub fn agg_view(&self, name: &str) -> Option<&View> {
        self.view(name)
    }

    /// Rebuild every view over `table` that does not equal its
    /// recomputation, in one transaction (inputs shared, views exclusive);
    /// returns the number rebuilt. Views fold the changes apply
    /// transactions log, so a mirror changed behind their back — what an
    /// audit repairs — leaves them summarising rows the mirror no longer
    /// holds; after this they equal the mirror as it is, and the repair
    /// folds in like any other delta.
    pub fn reconcile_views(&self, table: &str) -> EngineResult<u64> {
        let db = &self.db;
        self.db.in_txn(|txn| {
            let mut rebuilt = 0;
            for v in self.views_for(table) {
                for input in v.inputs() {
                    db.lock_table(txn, input, LockMode::Shared)?;
                }
                db.lock_table(txn, v.name(), LockMode::Exclusive)?;
                if !v.verify_against_recompute(db)? {
                    v.refresh_full(db, txn)?;
                    rebuilt += 1;
                }
            }
            Ok(rebuilt)
        })
    }

    /// Create the applied-sequence watermark table if it does not exist.
    /// The row with `id = 0` holds the highest queue sequence id of the
    /// *contiguous* applied prefix; rows with `id = lo + 1` record the
    /// `[lo, seq]` range each apply group commits, until
    /// [`Warehouse::fold_applied_ranges`] folds it into that prefix.
    pub fn ensure_applied_watermark(&self) -> EngineResult<()> {
        if self.db.table(APPLIED_SEQ_TABLE).is_err() {
            let schema = Schema::new(vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("seq", DataType::Int),
            ])
            .map_err(EngineError::Storage)?;
            self.db
                .create_table(APPLIED_SEQ_TABLE, schema, TableOptions::default())?;
        }
        Ok(())
    }

    /// The highest queue sequence id of the contiguous applied prefix, or
    /// `None` if nothing was ever tracked. Redelivered batches at or below
    /// this watermark were already applied and must be skipped — this is
    /// what makes at-least-once delivery exactly-once-observable. Ranges
    /// committed but not yet folded sit *above* the watermark; use
    /// [`Warehouse::applied_state`] to see those too.
    pub fn applied_watermark(&self) -> EngineResult<Option<u64>> {
        Ok(self.applied_state()?.watermark)
    }

    /// The full durable applied-sequence bookkeeping: the contiguous
    /// watermark plus the committed ranges not yet folded into it.
    pub fn applied_state(&self) -> EngineResult<AppliedState> {
        if self.db.table(APPLIED_SEQ_TABLE).is_err() {
            return Ok(AppliedState::default());
        }
        let mut state = AppliedState::default();
        self.db.for_each_row(APPLIED_SEQ_TABLE, |_, row| {
            let id = row.values()[0].as_int()?;
            let seq = row.values()[1].as_int()? as u64;
            if id == 0 {
                state.watermark = Some(seq);
            } else {
                state.ranges.push(((id - 1) as u64, seq));
            }
            Ok(ControlFlow::Continue(()))
        })?;
        state.ranges.sort_unstable();
        Ok(state)
    }

    /// Write the watermark-table row keyed `id` through the engine's row
    /// primitives: located by key, updated in place when it exists, inserted
    /// otherwise. This runs once per committed apply group, so it skips the
    /// SQL executor; the stored row is the same `(id, seq)` either way.
    fn set_applied_row(&self, txn: &mut Transaction, id: i64, seq: u64) -> EngineResult<()> {
        let meta = self.db.table(APPLIED_SEQ_TABLE)?;
        self.db
            .lock_table(txn, APPLIED_SEQ_TABLE, LockMode::Exclusive)?;
        let now = self.db.now_micros();
        let row = Row::new(vec![Value::Int(id), Value::Int(seq as i64)]);
        match self.db.locate_by_image(&meta, &row)? {
            Some((rid, old)) => {
                self.db
                    .update_row(txn, &meta, rid, old, row, now, true, false)?;
            }
            None => {
                self.db.insert_row(txn, &meta, row, now, true, false)?;
            }
        }
        Ok(())
    }

    /// Every view that reads `table`.
    fn views_for<'a>(&'a self, table: &'a str) -> impl Iterator<Item = &'a View> {
        self.views.iter().filter(move |v| v.involves(table))
    }

    /// Fold the row changes `txn` made to `table` since `mark` (a
    /// [`Transaction::redo_mark`]) into every view over it; returns view
    /// rows touched. The transaction's own redo tail is the image stream:
    /// the stored before and after rows, in execution order, whichever
    /// applier made the changes. The images are copied out because the
    /// views write through `txn` while they read them — one clone per
    /// image, none when no view reads `table`.
    pub(crate) fn propagate_since(
        &self,
        txn: &mut Transaction,
        table: &str,
        mark: usize,
    ) -> EngineResult<u64> {
        if self.views_for(table).next().is_none() {
            return Ok(0);
        }
        let images: Vec<(i64, Row)> = txn
            .images_since(mark, table)
            .map(|(sign, row)| (sign, row.clone()))
            .collect();
        let stream: Vec<(i64, &Row)> = images.iter().map(|(sign, row)| (*sign, row)).collect();
        self.propagate_images(txn, table, &stream)
    }

    /// Fold an ordered stream of signed row images of `table` (`+1`
    /// inserted, `-1` deleted; an update is a `-1`/`+1` pair) into every
    /// view over it, inside `txn`. Returns view rows touched. Each view gets
    /// one [`View::apply_stream`] pass per call — per statement group from
    /// the statement appliers, per run from the direct value apply.
    fn propagate_images(
        &self,
        txn: &mut Transaction,
        table: &str,
        stream: &[(i64, &Row)],
    ) -> EngineResult<u64> {
        let mut touched = 0u64;
        for v in self.views_for(table) {
            touched += v.apply_stream(&self.db, txn, table, stream)?;
        }
        Ok(touched)
    }

    /// Partition the mirrored tables into apply concurrency classes: tables
    /// read by one registered view share a class (their maintenance
    /// locks and join reads overlap), every other table is alone in its
    /// own. Delta groups for different classes may apply concurrently;
    /// groups within one class must apply in queue-sequence order.
    pub fn apply_classes(&self) -> HashMap<String, usize> {
        let names: Vec<&str> = self.mirrors.keys().map(String::as_str).collect();
        let index: HashMap<&str, usize> = names
            .iter()
            .enumerate()
            .map(|(i, name)| (*name, i))
            .collect();
        let mut parent: Vec<usize> = (0..names.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for view in &self.views {
            let mut tables = view.inputs();
            if let Some(first) = tables.next().and_then(|t| index.get(t)) {
                for t in tables {
                    if let Some(other) = index.get(t) {
                        let a = find(&mut parent, *first);
                        let b = find(&mut parent, *other);
                        parent[a] = b;
                    }
                }
            }
        }
        names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.to_string(), find(&mut parent, i)))
            .collect()
    }
}

/// The durable applied-sequence bookkeeping read back from
/// [`APPLIED_SEQ_TABLE`]: the contiguous watermark plus the committed
/// ranges not yet folded into it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedState {
    /// Highest sequence id of the contiguous applied prefix.
    pub watermark: Option<u64>,
    /// Committed `[lo, hi]` sequence ranges above the watermark, sorted.
    pub ranges: Vec<(u64, u64)>,
}

impl AppliedState {
    /// Whether `seq` was already durably applied (and must be skipped on
    /// redelivery).
    pub fn contains(&self, seq: u64) -> bool {
        self.watermark.is_some_and(|w| seq <= w)
            || self.ranges.iter().any(|&(lo, hi)| lo <= seq && seq <= hi)
    }
}

/// How an apply transaction records its queue-sequence progress in the
/// warehouse watermark table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedMark {
    /// Record nothing (direct applier use outside the sync pipeline).
    None,
    /// Record the closed `[lo, hi]` range as applied (every sync apply
    /// group: commits may land out of order, and the contiguous prefix is
    /// folded afterwards by [`Warehouse::fold_applied_ranges`]).
    Range(u64, u64),
}

impl Warehouse {
    /// Record the applied range `[lo, hi]` *inside* `txn`, so the delta
    /// effects and the claim that they happened commit atomically: a crash
    /// either keeps both (the redelivery dedupes) or neither (the
    /// redelivery re-applies). The row is keyed `id = lo + 1` (`id = 0` is
    /// the watermark row), so concurrent workers recording disjoint ranges
    /// never collide.
    pub fn record_applied_range(
        &self,
        txn: &mut Transaction,
        lo: u64,
        hi: u64,
    ) -> EngineResult<()> {
        self.set_applied_row(txn, (lo + 1) as i64, hi)
    }

    /// Apply `mark` inside `txn` (dispatch helper for the appliers).
    fn record_mark(&self, txn: &mut Transaction, mark: AppliedMark) -> EngineResult<()> {
        match mark {
            AppliedMark::None => Ok(()),
            AppliedMark::Range(lo, hi) => self.record_applied_range(txn, lo, hi),
        }
    }

    /// Run `body` as the one indivisible transaction of a value-delta run
    /// on `table` — the maintenance outage of §4.1: the mirror and every
    /// view over it are exclusively locked up front, `mark` is recorded
    /// inside, and the transaction commits on success or aborts (every row
    /// change undone, every lock released) on any error, a lock timeout
    /// included.
    pub(crate) fn outage_txn(
        &self,
        table: &str,
        mark: AppliedMark,
        body: impl FnOnce(&mut Transaction) -> EngineResult<ApplyReport>,
    ) -> EngineResult<ApplyReport> {
        self.db.in_txn(|txn| {
            self.db.lock_table(txn, table, LockMode::Exclusive)?;
            for v in self.views_for(table) {
                self.db.lock_table(txn, v.name(), LockMode::Exclusive)?;
            }
            let report = body(txn)?;
            self.record_mark(txn, mark)?;
            Ok(report)
        })
    }

    /// Fold every range that extends the contiguous prefix into the
    /// `id = 0` watermark row, in one short transaction — the one writer of
    /// that row. A sequence for which `parked` holds (quarantined to the
    /// dead-letter queue: completed without an apply) closes a gap like a
    /// range does. Ranges stay behind only while a sequence below them is
    /// neither applied nor parked (a sibling group still to be redelivered).
    pub fn fold_applied_ranges(&self, parked: impl Fn(u64) -> bool) -> EngineResult<AppliedState> {
        let state = self.applied_state()?;
        let mut next = state.watermark.map_or(0, |w| w.saturating_add(1));
        let mut folded = 0;
        for &(lo, hi) in &state.ranges {
            while next < lo && parked(next) {
                next += 1;
            }
            if lo > next {
                break;
            }
            next = next.max(hi.saturating_add(1));
            folded += 1;
        }
        if folded == 0 {
            return Ok(state);
        }
        let (done, rest) = state.ranges.split_at(folded);
        let watermark = next - 1;
        self.db.in_txn(|txn| {
            let meta = self.db.table(APPLIED_SEQ_TABLE)?;
            self.db
                .lock_table(txn, APPLIED_SEQ_TABLE, LockMode::Exclusive)?;
            let now = self.db.now_micros();
            for &(lo, hi) in done {
                let key = Row::new(vec![Value::Int((lo + 1) as i64), Value::Int(hi as i64)]);
                if let Some((rid, old)) = self.db.locate_by_image(&meta, &key)? {
                    self.db.delete_row(txn, &meta, rid, old, now, false)?;
                }
            }
            self.set_applied_row(txn, 0, watermark)
        })?;
        Ok(AppliedState {
            watermark: Some(watermark),
            ranges: rest.to_vec(),
        })
    }
}

/// The warehouse-side watermark table of applied queue sequence ids.
pub const APPLIED_SEQ_TABLE: &str = "__applied_seq";

/// Literal-expression row for building single-row INSERT statements.
fn literal_row(row: &Row) -> Vec<Expr> {
    row.values().iter().cloned().map(Expr::Literal).collect()
}

fn keyed_predicate(key_col: &str, key: &Value) -> Expr {
    Expr::Binary {
        left: Box::new(Expr::Column(key_col.to_string())),
        op: BinOp::Eq,
        right: Box::new(Expr::Literal(key.clone())),
    }
}

/// The table a value-delta run maintains; a run is non-empty and stays on
/// one table.
pub(crate) fn run_table<'a>(vds: &[&'a ValueDelta]) -> EngineResult<&'a str> {
    let first = vds
        .first()
        .ok_or_else(|| EngineError::Invalid("empty value-delta run".into()))?;
    if vds.iter().any(|vd| vd.table != first.table) {
        return Err(EngineError::Invalid("value-delta run spans tables".into()));
    }
    Ok(&first.table)
}

/// Statement-per-record applier for value deltas: the paper's §4.1
/// translation, kept as the reference the experiments measure (W, C) and the
/// direct path ([`crate::direct::DirectValueApplier`], what
/// [`crate::Pipeline::sync`] runs) is tested against.
pub struct ValueDeltaApplier;

impl ValueDeltaApplier {
    /// Apply one extracted batch as a single indivisible transaction,
    /// exclusively locking the mirror and every dependent view up front.
    pub fn apply(wh: &Warehouse, vd: &ValueDelta) -> EngineResult<ApplyReport> {
        ValueDeltaApplier::apply_run(wh, &[vd])
    }

    /// Apply a run of batches for one table as a single indivisible
    /// transaction: one outage, one lock acquisition, one commit for the
    /// whole run. Insert coalescing stays per batch, so the statement
    /// counts match applying each batch alone.
    pub fn apply_run(wh: &Warehouse, vds: &[&ValueDelta]) -> EngineResult<ApplyReport> {
        ValueDeltaApplier::apply_run_marked(wh, vds, AppliedMark::None)
    }

    /// Like [`apply_run`](ValueDeltaApplier::apply_run), but additionally
    /// recording `mark` in the warehouse watermark table inside the same
    /// transaction (see [`AppliedMark`]).
    pub fn apply_run_marked(
        wh: &Warehouse,
        vds: &[&ValueDelta],
        mark: AppliedMark,
    ) -> EngineResult<ApplyReport> {
        let table = run_table(vds)?;
        let cfg = wh.mirror(table)?;
        let mirror_schema = cfg.mirror_schema()?;
        let key_col = cfg.key_column()?.name.clone();
        let key_pos_mirror = mirror_schema.index_of(&key_col).ok_or_else(|| {
            EngineError::Invalid(format!("mirror of '{table}' lost key column '{key_col}'"))
        })?;
        wh.outage_txn(table, mark, |txn| {
            let mut report = ApplyReport {
                transactions: 1,
                ..Default::default()
            };
            for vd in vds {
                Self::apply_records(wh, cfg, &key_col, key_pos_mirror, vd, txn, &mut report)?;
            }
            Ok(report)
        })
    }

    /// Translate and execute one batch's records inside the open outage
    /// transaction.
    #[allow(clippy::too_many_arguments)]
    fn apply_records(
        wh: &Warehouse,
        cfg: &MirrorConfig,
        key_col: &str,
        key_pos_mirror: usize,
        vd: &ValueDelta,
        txn: &mut Transaction,
        report: &mut ApplyReport,
    ) -> EngineResult<()> {
        let db = wh.db();
        {
            let mut i = 0;
            while i < vd.records.len() {
                let rec = &vd.records[i];
                let projected = cfg.project_row(&rec.row);
                let redo_mark = txn.redo_mark();
                match rec.op {
                    DeltaOp::Insert => {
                        // A run of consecutive inserts becomes ONE multi-row
                        // INSERT: per §4.1 "each original insert transaction
                        // will be ... translated into one insert SQL
                        // statement", which is why insertion maintenance ties
                        // between the two methods.
                        let mut rows = vec![literal_row(&projected)];
                        while let Some(next) = vd.records.get(i + rows.len()) {
                            if next.op != DeltaOp::Insert {
                                break;
                            }
                            rows.push(literal_row(&cfg.project_row(&next.row)));
                        }
                        let run = rows.len();
                        let stmt = Statement::Insert {
                            table: vd.table.clone(),
                            columns: None,
                            rows,
                        };
                        report.rows_affected += exec::execute(db, txn, &stmt)?.affected;
                        report.statements += 1;
                        report.view_rows_touched +=
                            wh.propagate_since(txn, &vd.table, redo_mark)?;
                        i += run;
                    }
                    DeltaOp::Delete => {
                        let stmt = Statement::Delete {
                            table: vd.table.clone(),
                            predicate: Some(keyed_predicate(
                                key_col,
                                &projected.values()[key_pos_mirror],
                            )),
                        };
                        report.rows_affected += exec::execute(db, txn, &stmt)?.affected;
                        report.statements += 1;
                        report.view_rows_touched +=
                            wh.propagate_since(txn, &vd.table, redo_mark)?;
                        i += 1;
                    }
                    DeltaOp::UpdateBefore => {
                        let after = vd.records.get(i + 1).ok_or_else(|| {
                            EngineError::Invalid("dangling UB in value delta".into())
                        })?;
                        if after.op != DeltaOp::UpdateAfter {
                            return Err(EngineError::Invalid(
                                "UB record not followed by UA in value delta".into(),
                            ));
                        }
                        // Transaction context is lost, so the update becomes
                        // a delete + insert pair of statements (§4.1).
                        let del = Statement::Delete {
                            table: vd.table.clone(),
                            predicate: Some(keyed_predicate(
                                key_col,
                                &projected.values()[key_pos_mirror],
                            )),
                        };
                        let ins = Statement::Insert {
                            table: vd.table.clone(),
                            columns: None,
                            rows: vec![literal_row(&cfg.project_row(&after.row))],
                        };
                        report.rows_affected += exec::execute(db, txn, &del)?.affected;
                        report.rows_affected += exec::execute(db, txn, &ins)?.affected;
                        report.statements += 2;
                        report.view_rows_touched +=
                            wh.propagate_since(txn, &vd.table, redo_mark)?;
                        i += 2;
                    }
                    DeltaOp::UpdateAfter => {
                        return Err(EngineError::Invalid(
                            "UA record without UB in value delta".into(),
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-source-transaction applier for Op-Deltas (the concurrent path).
pub struct OpDeltaApplier;

impl OpDeltaApplier {
    /// Replay one source transaction as one self-contained warehouse
    /// transaction.
    pub fn apply(wh: &Warehouse, od: &OpDelta) -> EngineResult<ApplyReport> {
        OpDeltaApplier::apply_marked(wh, od, AppliedMark::None)
    }

    /// Like [`apply`](OpDeltaApplier::apply), but recording `mark` in the
    /// warehouse watermark table inside the replay transaction (see
    /// [`AppliedMark`]).
    ///
    /// This is where an operation stops being text: each one is parsed
    /// here, once, immediately before its mirror rewrite and execution. An
    /// operation that does not parse fails the replay like any other
    /// statement error — nothing of the transaction stays applied, and
    /// under a retry policy the batch ends in the dead-letter queue.
    pub fn apply_marked(
        wh: &Warehouse,
        od: &OpDelta,
        mark: AppliedMark,
    ) -> EngineResult<ApplyReport> {
        let db = wh.db();
        db.in_txn(|txn| {
            let mut report = ApplyReport {
                transactions: 1,
                ..Default::default()
            };
            for op in &od.ops {
                let statement = parse_statement(&op.sql)?;
                let table = statement
                    .table()
                    .ok_or_else(|| EngineError::Invalid("op without a table".into()))?;
                let cfg = wh.mirror(table)?;
                let redo_mark = txn.redo_mark();
                let statements: Vec<Statement> = match &op.before_image {
                    Some(bi) => cfg.hybrid_statements(&statement, bi, db.peek_clock())?,
                    None => cfg.rewrite(&statement)?.into_iter().collect(),
                };
                for stmt in &statements {
                    report.rows_affected += exec::execute(db, txn, stmt)?.affected;
                    report.statements += 1;
                }
                // Views are maintained per statement (standard sequential
                // delta propagation): each delta joins against the state the
                // *other* tables had when this statement ran, so the
                // delta-x-delta term is never double counted.
                report.view_rows_touched += wh.propagate_since(txn, table, redo_mark)?;
            }
            wh.record_mark(txn, mark)?;
            Ok(report)
        })
    }

    /// Replay a stream of Op-Deltas, one warehouse transaction each.
    pub fn apply_all(wh: &Warehouse, ods: &[OpDelta]) -> EngineResult<ApplyReport> {
        let mut report = ApplyReport::default();
        for od in ods {
            report.merge(OpDeltaApplier::apply(wh, od)?);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_core::model::{OpLogRecord, ValueDeltaRecord};
    use delta_engine::db::open_temp;
    use delta_storage::{Column, DataType, Schema};

    fn source_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("name", DataType::Varchar),
            Column::new("qty", DataType::Int),
        ])
        .unwrap()
    }

    fn warehouse() -> Warehouse {
        let db = open_temp("wh").unwrap();
        let mut wh = Warehouse::new(db);
        wh.add_mirror(MirrorConfig::full("parts", source_schema()))
            .unwrap();
        wh
    }

    fn row(id: i64, name: &str, qty: i64) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Str(name.into()),
            Value::Int(qty),
        ])
    }

    fn mirror_rows(wh: &Warehouse) -> Vec<Row> {
        let mut rows: Vec<Row> = wh
            .db()
            .scan_table("parts")
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        rows.sort_by(|a, b| a.values()[0].total_cmp(&b.values()[0]));
        rows
    }

    #[test]
    fn value_delta_insert_delete_update() {
        let wh = warehouse();
        let mut vd = ValueDelta::new("parts", source_schema());
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 0,
            row: row(1, "a", 1),
        });
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 0,
            row: row(2, "b", 2),
        });
        let r = ValueDeltaApplier::apply(&wh, &vd).unwrap();
        assert_eq!(
            r.statements, 1,
            "a run of inserts coalesces into one statement"
        );
        assert_eq!(r.rows_affected, 2);
        assert_eq!(r.transactions, 1);

        // Update row 1 and delete row 2.
        let mut vd = ValueDelta::new("parts", source_schema());
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::UpdateBefore,
            txn: 0,
            row: row(1, "a", 1),
        });
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::UpdateAfter,
            txn: 0,
            row: row(1, "a2", 10),
        });
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::Delete,
            txn: 0,
            row: row(2, "b", 2),
        });
        let r = ValueDeltaApplier::apply(&wh, &vd).unwrap();
        assert_eq!(r.statements, 3, "update = delete + insert statements");
        let rows = mirror_rows(&wh);
        assert_eq!(rows, vec![row(1, "a2", 10)]);
    }

    #[test]
    fn value_delta_rejects_malformed_update_pairs() {
        let wh = warehouse();
        let mut vd = ValueDelta::new("parts", source_schema());
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::UpdateBefore,
            txn: 0,
            row: row(1, "a", 1),
        });
        assert!(ValueDeltaApplier::apply(&wh, &vd).is_err());
        // And the failed batch left nothing behind.
        assert!(mirror_rows(&wh).is_empty());
    }

    fn op(sql: &str, seq: u64, txn: u64) -> OpLogRecord {
        OpLogRecord {
            seq,
            txn,
            sql: sql.into(),
            before_image: None,
        }
    }

    #[test]
    fn op_delta_replays_statements_per_transaction() {
        let wh = warehouse();
        let od1 = OpDelta {
            txn: 1,
            ops: vec![op(
                "INSERT INTO parts VALUES (1, 'a', 1), (2, 'b', 2), (3, 'c', 3)",
                1,
                1,
            )],
        };
        let od2 = OpDelta {
            txn: 2,
            ops: vec![
                op("UPDATE parts SET qty = qty * 2 WHERE qty >= 2", 2, 2),
                op("DELETE FROM parts WHERE id = 1", 3, 2),
            ],
        };
        let r = OpDeltaApplier::apply_all(&wh, &[od1, od2]).unwrap();
        assert_eq!(r.transactions, 2, "one warehouse txn per source txn");
        assert_eq!(r.statements, 3);
        assert_eq!(r.rows_affected, 3 + 2 + 1);
        let rows = mirror_rows(&wh);
        assert_eq!(rows, vec![row(2, "b", 4), row(3, "c", 6)]);
    }

    #[test]
    fn op_delta_statement_count_independent_of_rows() {
        let wh = warehouse();
        let mut seed = ValueDelta::new("parts", source_schema());
        for i in 0..100 {
            seed.records.push(ValueDeltaRecord {
                op: DeltaOp::Insert,
                txn: 0,
                row: row(i, "x", i),
            });
        }
        ValueDeltaApplier::apply(&wh, &seed).unwrap();
        let od = OpDelta {
            txn: 9,
            ops: vec![op("DELETE FROM parts WHERE qty < 50", 1, 9)],
        };
        let r = OpDeltaApplier::apply(&wh, &od).unwrap();
        assert_eq!(r.statements, 1, "one statement, not one per row");
        assert_eq!(r.rows_affected, 50);
    }

    #[test]
    fn projected_mirror_applies_rewritten_ops() {
        let db = open_temp("wh-proj").unwrap();
        let mut wh = Warehouse::new(db);
        wh.add_mirror(MirrorConfig::projected(
            "parts",
            source_schema(),
            &["id", "qty"],
        ))
        .unwrap();
        let od = OpDelta {
            txn: 1,
            ops: vec![
                op("INSERT INTO parts VALUES (1, 'dropped-name', 5)", 1, 1),
                op(
                    "UPDATE parts SET qty = 6, name = 'also-dropped' WHERE id = 1",
                    2,
                    1,
                ),
            ],
        };
        OpDeltaApplier::apply(&wh, &od).unwrap();
        let rows = wh.db().scan_table("parts").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, Row::new(vec![Value::Int(1), Value::Int(6)]));
    }

    #[test]
    fn hybrid_op_applies_via_before_image() {
        let db = open_temp("wh-hybrid").unwrap();
        let mut wh = Warehouse::new(db);
        wh.add_mirror(MirrorConfig::projected(
            "parts",
            source_schema(),
            &["id", "qty"],
        ))
        .unwrap();
        // Seed mirror rows 1..3.
        let mut seed = ValueDelta::new("parts", source_schema());
        for i in 1..=3 {
            seed.records.push(ValueDeltaRecord {
                op: DeltaOp::Insert,
                txn: 0,
                row: row(i, "n", 10 * i),
            });
        }
        ValueDeltaApplier::apply(&wh, &seed).unwrap();
        // Source deleted WHERE name = 'n' (unmirrored predicate): the capture
        // attached before images of rows 1 and 3.
        let mut bi = ValueDelta::new("parts", source_schema());
        for i in [1i64, 3] {
            bi.records.push(ValueDeltaRecord {
                op: DeltaOp::Delete,
                txn: 5,
                row: row(i, "n", 10 * i),
            });
        }
        let od = OpDelta {
            txn: 5,
            ops: vec![OpLogRecord {
                seq: 1,
                txn: 5,
                sql: "DELETE FROM parts WHERE name = 'n' AND id <> 2".into(),
                before_image: Some(bi),
            }],
        };
        let r = OpDeltaApplier::apply(&wh, &od).unwrap();
        assert_eq!(r.statements, 2, "one keyed delete per before-image row");
        let rows = wh.db().scan_table("parts").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.values()[0], Value::Int(2));
    }

    #[test]
    fn op_that_is_not_sql_fails_the_replay_and_leaves_nothing_behind() {
        let wh = warehouse();
        let od = OpDelta {
            txn: 1,
            ops: vec![
                op("INSERT INTO parts VALUES (1, 'a', 1)", 1, 1),
                op("NOT SQL AT ALL", 2, 1),
            ],
        };
        let err = OpDeltaApplier::apply(&wh, &od).unwrap_err();
        assert!(matches!(err, EngineError::Parse(_)), "{err}");
        assert!(mirror_rows(&wh).is_empty(), "the transaction aborted whole");
    }

    #[test]
    fn op_without_mirror_is_an_error() {
        let wh = warehouse();
        let od = OpDelta {
            txn: 1,
            ops: vec![op("INSERT INTO unknown VALUES (1)", 1, 1)],
        };
        assert!(OpDeltaApplier::apply(&wh, &od).is_err());
    }

    #[test]
    fn add_agg_view_materialises_with_one_insert_per_group() {
        use crate::view::AggSpec;
        use delta_engine::LogRecord;
        use delta_sql::ast::AggFunc;
        let mut wh = warehouse();
        let mut seed = ValueDelta::new("parts", source_schema());
        for i in 0..40 {
            seed.records.push(ValueDeltaRecord {
                op: DeltaOp::Insert,
                txn: 0,
                row: row(i, &format!("g{}", i % 5), i),
            });
        }
        ValueDeltaApplier::apply(&wh, &seed).unwrap();
        let from = wh.db().wal().next_lsn();
        wh.add_agg_view(AggViewDef {
            name: "by_name".into(),
            table: "parts".into(),
            group_by: vec!["name".into()],
            aggregates: vec![AggSpec::count_star(), AggSpec::of(AggFunc::Max, "qty")],
            selection: None,
        })
        .unwrap();
        // 40 base rows in 5 groups: 5 row versions, not 40.
        let log = wh.db().wal().read_from(from).unwrap();
        let is_row_change = |rec: &&LogRecord| {
            matches!(
                rec,
                LogRecord::Insert { .. } | LogRecord::Update { .. } | LogRecord::Delete { .. }
            )
        };
        let changes: Vec<&LogRecord> = log.iter().map(|(_, r)| r).filter(is_row_change).collect();
        assert_eq!(changes.len(), 5);
        assert!(changes.iter().all(|rec| {
            matches!(rec, LogRecord::Insert { .. }) && rec.table() == Some("by_name")
        }));
        let view = wh.view("by_name").unwrap();
        assert!(view.verify_against_recompute(wh.db()).unwrap());
    }

    #[test]
    fn views_maintained_by_both_appliers() {
        use crate::view::JoinCond;
        let db = open_temp("wh-views").unwrap();
        let mut wh = Warehouse::new(db);
        wh.add_mirror(MirrorConfig::full("parts", source_schema()))
            .unwrap();
        let supplier_schema = Schema::new(vec![
            Column::new("sid", DataType::Int).primary_key(),
            Column::new("part_id", DataType::Int),
            Column::new("region", DataType::Varchar),
        ])
        .unwrap();
        wh.add_mirror(MirrorConfig::full("suppliers", supplier_schema.clone()))
            .unwrap();
        wh.add_view(SpjView {
            name: "v".into(),
            tables: vec!["parts".into(), "suppliers".into()],
            joins: vec![JoinCond::new("parts", "id", "suppliers", "part_id")],
            selection: None,
            projection: vec![
                ("parts".into(), "id".into()),
                ("parts".into(), "qty".into()),
                ("suppliers".into(), "sid".into()),
            ],
        })
        .unwrap();

        // Op-delta path: insert a part and a supplier.
        let od = OpDelta {
            txn: 1,
            ops: vec![
                op("INSERT INTO parts VALUES (1, 'a', 5)", 1, 1),
                op("INSERT INTO suppliers VALUES (10, 1, 'west')", 2, 1),
            ],
        };
        let r = OpDeltaApplier::apply(&wh, &od).unwrap();
        assert!(r.view_rows_touched >= 1);
        assert_eq!(wh.db().row_count("v").unwrap(), 1);

        // Value-delta path: another supplier for the same part.
        let mut vd = ValueDelta::new("suppliers", supplier_schema);
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 0,
            row: Row::new(vec![
                Value::Int(11),
                Value::Int(1),
                Value::Str("east".into()),
            ]),
        });
        ValueDeltaApplier::apply(&wh, &vd).unwrap();
        assert_eq!(wh.db().row_count("v").unwrap(), 2);

        // Op-delta update propagates into the view.
        let od = OpDelta {
            txn: 2,
            ops: vec![op("UPDATE parts SET qty = 99 WHERE id = 1", 3, 2)],
        };
        OpDeltaApplier::apply(&wh, &od).unwrap();
        let view_rows = wh.db().scan_table("v").unwrap();
        assert_eq!(view_rows.len(), 2);
        assert!(view_rows
            .iter()
            .all(|(_, r)| r.values()[1] == Value::Int(99)));
    }
}
