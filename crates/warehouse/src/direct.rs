//! Direct keyed apply of value-delta runs — what [`crate::Pipeline::sync`]
//! runs for value deltas.
//!
//! The paper's §4.1 translation ([`crate::apply::ValueDeltaApplier`]) turns
//! every changed row into SQL *statements*: ASTs built per row, the executor
//! choosing an access path and evaluating a predicate per row, and a view
//! maintenance pass after every statement. All of that only re-derives what
//! a value delta already says — which key, which image — so this path
//! applies a run through the engine's row primitives instead:
//!
//! * each record goes key → unique-index lookup → `delete_row` /
//!   `insert_row` (`update_row` in place when an update keeps its key), with
//!   triggers off and without timestamp stamping: a mirror stores what was
//!   shipped;
//! * the row images the views need are the ones those primitives log on the
//!   run's transaction: the **stored** row for everything removed (the
//!   shipped before image may be a projection's worth wider, or stale on a
//!   redelivery — the views hold what the mirror held), the validated row
//!   for everything added;
//! * views are maintained **once per run** from that redo tail: one mark
//!   when the run starts, one `Warehouse::propagate_since` when it ends.
//!
//! Locks, transaction scope, the applied mark and the [`ApplyReport`] are
//! those of the statement applier: one outage transaction per run, and the
//! report counts the statements the §4.1 translation *would* have issued,
//! so the two paths can be compared record for record.

use delta_core::model::{DeltaOp, ValueDelta};
use delta_engine::db::Database;
use delta_engine::txn::Transaction;
use delta_engine::{EngineError, EngineResult, TableMeta};
use delta_storage::{RecordId, Row};

use crate::apply::{run_table, AppliedMark, ApplyReport, Warehouse};
use crate::mirror::MirrorConfig;

/// Applier for value-delta runs that bypasses SQL (see the module docs).
pub struct DirectValueApplier;

impl DirectValueApplier {
    /// Apply a run of batches for one table as a single indivisible
    /// transaction, recording nothing in the watermark table.
    pub fn apply_run(wh: &Warehouse, vds: &[&ValueDelta]) -> EngineResult<ApplyReport> {
        DirectValueApplier::apply_run_marked(wh, vds, AppliedMark::None)
    }

    /// Apply a run of batches for one table as a single indivisible
    /// transaction that also records `mark` (see [`AppliedMark`]). The
    /// mirror, the views and the report end up exactly as
    /// [`crate::apply::ValueDeltaApplier::apply_run_marked`] leaves them.
    pub fn apply_run_marked(
        wh: &Warehouse,
        vds: &[&ValueDelta],
        mark: AppliedMark,
    ) -> EngineResult<ApplyReport> {
        let table = run_table(vds)?;
        let cfg = wh.mirror(table)?;
        let db = wh.db();
        let meta = db.table(table)?;
        let covered: Vec<usize> = (0..cfg.source_schema.len())
            .filter(|&p| cfg.covers(&cfg.source_schema.columns()[p].name))
            .collect();
        let pk = meta.schema.primary_key_indices();
        let key_at = match pk[..] {
            [k] => cfg.source_schema.index_of(&meta.schema.columns()[k].name),
            _ => None,
        };
        wh.outage_txn(table, mark, |txn| {
            let redo_mark = txn.redo_mark();
            let mut run = Run {
                db,
                cfg,
                meta: &meta,
                covered: &covered,
                pk: &pk,
                key_at,
                report: ApplyReport {
                    transactions: 1,
                    ..Default::default()
                },
            };
            for vd in vds {
                run.apply_records(txn, vd)?;
            }
            run.report.view_rows_touched = wh.propagate_since(txn, table, redo_mark)?;
            Ok(run.report)
        })
    }
}

/// State of one run while its records are walked.
struct Run<'a> {
    db: &'a Database,
    cfg: &'a MirrorConfig,
    meta: &'a TableMeta,
    /// Positions in a shipped image of the columns the mirror keeps.
    covered: &'a [usize],
    /// Positions of the mirror's primary key in a mirror row.
    pk: &'a [usize],
    /// Position in a shipped image of the mirror's single-column key.
    key_at: Option<usize>,
    report: ApplyReport,
}

impl Run<'_> {
    fn apply_records(&mut self, txn: &mut Transaction, vd: &ValueDelta) -> EngineResult<()> {
        let mut i = 0;
        while i < vd.records.len() {
            let rec = &vd.records[i];
            match rec.op {
                DeltaOp::Insert => {
                    // §4.1 coalesces a run of consecutive inserts of one
                    // batch into one statement.
                    if i == 0 || vd.records[i - 1].op != DeltaOp::Insert {
                        self.report.statements += 1;
                    }
                    self.insert(txn, &rec.row)?;
                    i += 1;
                }
                DeltaOp::Delete => {
                    self.report.statements += 1;
                    self.delete(txn, &rec.row)?;
                    i += 1;
                }
                DeltaOp::UpdateBefore => {
                    let after = vd
                        .records
                        .get(i + 1)
                        .filter(|r| r.op == DeltaOp::UpdateAfter)
                        .ok_or_else(|| {
                            EngineError::Invalid(
                                "UB record not followed by UA in value delta".into(),
                            )
                        })?;
                    self.report.statements += 2;
                    self.update(txn, &rec.row, &after.row)?;
                    i += 2;
                }
                DeltaOp::UpdateAfter => {
                    return Err(EngineError::Invalid(
                        "UA record without UB in value delta".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    /// The stored mirror row carrying the key of `source_row`, if any,
    /// found by the key value read in place from the shipped image. A
    /// missing row is not an error: a redelivered delete or update finds
    /// its work already done, exactly as a keyed DELETE matches no row.
    fn locate(&self, source_row: &Row) -> EngineResult<Option<(RecordId, Row)>> {
        let mirrored = self
            .covered
            .iter()
            .take_while(|&&p| p < source_row.len())
            .count();
        if mirrored != self.meta.schema.len() {
            return Err(EngineError::Invalid(format!(
                "row image for '{}' has {} mirrored values, the mirror has {} columns",
                self.meta.name,
                mirrored,
                self.meta.schema.len()
            )));
        }
        match self.key_at {
            Some(at) => self.db.locate_by_key(self.meta, &source_row.values()[at]),
            None => self
                .db
                .locate_by_image(self.meta, &self.cfg.project_row(source_row)),
        }
    }

    fn add(&mut self, txn: &mut Transaction, row: Row) -> EngineResult<()> {
        self.db.insert_row(txn, self.meta, row)?;
        self.report.rows_affected += 1;
        Ok(())
    }

    fn remove(&mut self, txn: &mut Transaction, rid: RecordId, stored: Row) -> EngineResult<()> {
        self.db.delete_row(txn, self.meta, rid, stored)?;
        self.report.rows_affected += 1;
        Ok(())
    }

    /// The row primitive validates the projection (coercions included) as
    /// it stores it; nothing here copies or checks it a second time.
    fn insert(&mut self, txn: &mut Transaction, source_row: &Row) -> EngineResult<()> {
        self.add(txn, self.cfg.project_row(source_row))
    }

    fn delete(&mut self, txn: &mut Transaction, source_row: &Row) -> EngineResult<()> {
        match self.locate(source_row)? {
            Some((rid, stored)) => self.remove(txn, rid, stored),
            None => Ok(()),
        }
    }

    /// An update is a keyed delete of the before image's key plus an insert
    /// of the after image; when the stored row already carries the after
    /// image's key, that pair is one in-place `update_row`.
    fn update(&mut self, txn: &mut Transaction, before: &Row, after: &Row) -> EngineResult<()> {
        let located = self.locate(before)?;
        let row = self.cfg.project_row(after);
        let Some((rid, stored)) = located else {
            return self.add(txn, row);
        };
        // Compared before validation, which only widens: an INT key equals
        // its DOUBLE or TIMESTAMP form. A short image keeps no key; its
        // insert then fails validation and the run with it.
        let key_kept = self.pk.iter().all(|&k| {
            row.get(k)
                .is_some_and(|v| stored.values()[k].sql_eq(v) == Some(true))
        });
        if !key_kept {
            self.remove(txn, rid, stored)?;
            return self.add(txn, row);
        }
        self.db.update_row(txn, self.meta, rid, stored, row)?;
        // One row deleted plus one inserted, as the statement pair counts.
        self.report.rows_affected += 2;
        Ok(())
    }
}
