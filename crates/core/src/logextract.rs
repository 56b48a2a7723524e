//! Archive-log delta extraction (§3.1.4).
//!
//! Reads the engine's redo log (archived + resident segments) and turns the
//! committed records into value deltas. Matching the paper's analysis:
//!
//! * near-zero impact on source transactions (the log is written anyway —
//!   only *reading* it is extra, off the critical path);
//! * captures every state change, with transaction context;
//! * requires archive mode, a same-product log format (checked), and — when
//!   used for log *shipping* — an identical destination schema;
//! * is all-or-nothing: a recovery-manager-style apply can only recreate the
//!   source table, not transform it (transformations need the value-delta
//!   form this extractor produces).

use std::collections::btree_map::{BTreeMap, Entry};
use std::path::PathBuf;

use delta_engine::db::Database;
use delta_engine::wal::{LogRecord, Lsn};
use delta_engine::{EngineError, EngineResult};

use crate::model::{DeltaOp, ValueDelta, ValueDeltaRecord};

/// Incremental archive-log extractor. Tracks the last LSN it has consumed.
#[derive(Debug, Clone, Default)]
pub struct LogExtractor {
    /// Everything at or below this LSN has been extracted already.
    pub watermark: Lsn,
    /// Restrict extraction to these tables (empty = all user tables).
    pub tables: Vec<String>,
}

impl LogExtractor {
    /// Create an extractor with no table filter.
    pub fn new() -> LogExtractor {
        LogExtractor::default()
    }

    /// Restrict extraction to `tables`.
    pub fn for_tables(tables: &[&str]) -> LogExtractor {
        LogExtractor {
            watermark: 0,
            tables: tables.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn wants(&self, table: &str) -> bool {
        self.tables.is_empty() || self.tables.iter().any(|t| t == table)
    }

    /// Extract the committed changes past the watermark, grouped per table,
    /// and advance the watermark. Requires archive mode (otherwise recycled
    /// segments would silently hole the stream).
    pub fn extract(&mut self, db: &Database) -> EngineResult<Vec<ValueDelta>> {
        let (deltas, new_watermark) = self.peek(db)?;
        self.watermark = new_watermark;
        Ok(deltas)
    }

    /// The read-only half of [`LogExtractor::extract`]: compute the
    /// committed changes past the watermark and the watermark they advance
    /// it to, without mutating the extractor. Callers that must publish the
    /// deltas before the advance is safe (staged extraction) peek first and
    /// assign the watermark only after the publish succeeds.
    pub fn peek(&self, db: &Database) -> EngineResult<(Vec<ValueDelta>, Lsn)> {
        if !db.wal().archive_mode() {
            return Err(EngineError::Invalid(
                "log-based extraction requires archive mode (redo segments must not be recycled)"
                    .into(),
            ));
        }
        // Per table, in name order. What is committed, and how far the
        // watermark may move (past a torn tail's `Begin …` fragment too — a
        // commit batch reaches the WAL whole, so a fragment can never commit
        // later), are the log reader's call, not this function's.
        let mut per_table: BTreeMap<String, ValueDelta> = BTreeMap::new();
        let high = db.wal().read_committed(self.watermark + 1, |unit| {
            for (_, rec) in unit {
                if let LogRecord::DropTable { name } = rec {
                    // Nothing mirrors a dropped table: its earlier rows go,
                    // and a later namesake starts from its own `CreateTable`.
                    per_table.remove(name);
                }
                let (Some(table), Some(txn)) = (rec.table(), rec.txn()) else {
                    continue;
                };
                if !self.wants(table) {
                    continue;
                }
                let delta = match per_table.entry(table.to_string()) {
                    Entry::Occupied(known) => known.into_mut(),
                    // A table dropped since has no schema to ship rows under.
                    Entry::Vacant(new) => match db.table(table) {
                        Ok(meta) => new.insert(ValueDelta::new(table, meta.schema.clone())),
                        Err(_) => continue,
                    },
                };
                let images = rec.images();
                let update = images.iter().all(Option::is_some);
                for (sign, row) in images.into_iter().flatten() {
                    delta.records.push(ValueDeltaRecord {
                        op: match (update, sign < 0) {
                            (false, false) => DeltaOp::Insert,
                            (false, true) => DeltaOp::Delete,
                            (true, true) => DeltaOp::UpdateBefore,
                            (true, false) => DeltaOp::UpdateAfter,
                        },
                        txn: txn.0,
                        row: row.clone(),
                    });
                }
            }
            Ok(())
        })?;
        let deltas = per_table.into_values().filter(|v| !v.is_empty()).collect();
        Ok((deltas, self.watermark.max(high)))
    }

    /// Paths of archived segments ready to ship (the file-level transport of
    /// classic log shipping).
    pub fn shippable_segments(db: &Database) -> EngineResult<Vec<PathBuf>> {
        db.wal().archived_segments()
    }
}

/// Outcome of one [`ResilientLogExtractor::extract`] round.
#[derive(Debug, Clone, Default)]
pub struct ResilientExtract {
    /// Extracted deltas, per table.
    pub deltas: Vec<ValueDelta>,
    /// Tables whose deltas came from snapshot differencing because the log
    /// could not be read; empty on the happy path. Degraded deltas carry no
    /// transaction context (snapshots observe only final states).
    pub degraded: Vec<String>,
    /// Corrupt archived segments moved aside (renamed `*.corrupt`) so later
    /// rounds read past them instead of failing forever.
    pub quarantined_segments: Vec<PathBuf>,
}

/// One extraction round staged but not yet committed: the deltas are ready
/// to publish, the refreshed baselines sit in sibling `*.baseline.staged`
/// files, and the watermark advance is recorded but not applied. Publish the
/// deltas, then [`ResilientLogExtractor::commit`] (rename baselines into
/// place, advance the watermark) or [`ResilientLogExtractor::abort`] (delete
/// the staged files, leave the extractor untouched so the next round
/// re-extracts the same changes). This is what lets a publish that hits a
/// disk-full transport budget retry later with zero loss.
#[derive(Debug)]
pub struct StagedExtract {
    /// The round's outcome: deltas to publish plus degradation bookkeeping.
    pub outcome: ResilientExtract,
    /// True when the deltas came from snapshot differencing (coalesced: one
    /// net record per changed row, no transaction context).
    pub coalesced: bool,
    new_watermark: Lsn,
    /// `(staged, final)` baseline pairs renamed into place at commit.
    staged: Vec<(PathBuf, PathBuf)>,
}

/// A [`LogExtractor`] that *degrades instead of wedging*: when the redo log
/// turns out to be unreadable (a corrupt archived segment), extraction falls
/// back to per-table snapshot differencing against baselines captured at the
/// previous extraction point, quarantines the corrupt segment, and
/// fast-forwards the log watermark past the damage. The delta stream stays
/// complete — it just temporarily loses transaction context, exactly the
/// trade-off of the paper's snapshot method (§3.1.2) versus the log method
/// (§3.1.4).
///
/// The caller must quiesce writes to the tracked tables across each
/// `extract` call (the usual contract for any snapshot-based extractor):
/// the baseline refreshed after a round must describe the state as of the
/// advanced watermark.
#[derive(Debug)]
pub struct ResilientLogExtractor {
    inner: LogExtractor,
    tables: Vec<String>,
    baseline_dir: PathBuf,
    primed: bool,
    /// Set when corrupt segments were quarantined before a diff round
    /// committed. Quarantine removes the bytes from the log view, so until
    /// a snapshot diff lands, a fresh `peek` would see a clean-looking log
    /// with a silent gap — this flag forces every staged round to the diff
    /// path until one commits.
    diff_owed: bool,
}

impl ResilientLogExtractor {
    /// Track `tables`, keeping snapshot baselines under `baseline_dir`.
    pub fn new(
        baseline_dir: impl Into<PathBuf>,
        tables: &[&str],
    ) -> EngineResult<ResilientLogExtractor> {
        let baseline_dir = baseline_dir.into();
        std::fs::create_dir_all(&baseline_dir)?;
        Ok(ResilientLogExtractor {
            inner: LogExtractor::for_tables(tables),
            tables: tables.iter().map(|s| s.to_string()).collect(),
            baseline_dir,
            primed: false,
            diff_owed: false,
        })
    }

    /// The log watermark (everything at or below it has been extracted).
    pub fn watermark(&self) -> Lsn {
        self.inner.watermark
    }

    fn baseline_path(&self, table: &str) -> PathBuf {
        self.baseline_dir.join(format!("{table}.baseline"))
    }

    /// Capture the initial baselines. Call once, quiescent, before the first
    /// `extract`; the baselines must describe the state the watermark
    /// (initially 0, i.e. "nothing extracted") refers to — typically right
    /// after the tables are created, before any tracked changes.
    pub fn prime(&mut self, db: &Database) -> EngineResult<()> {
        for t in &self.tables {
            crate::snapshot::take_snapshot(db, t, self.baseline_path(t))?;
        }
        self.primed = true;
        Ok(())
    }

    /// Extract committed changes past the watermark — from the log when it
    /// is readable, from snapshot diffs when it is not — committing the
    /// round immediately. Equivalent to `stage` followed by `commit`; use
    /// the staged pair directly when a publish step sits between them.
    pub fn extract(&mut self, db: &Database) -> EngineResult<ResilientExtract> {
        let staged = self.stage(db)?;
        self.commit(staged)
    }

    /// Stage one extraction round without mutating durable extractor state:
    /// compute the deltas (from the log, or via snapshot diff when the log
    /// is unreadable), refresh baselines into `*.baseline.staged` siblings,
    /// and record — but do not apply — the watermark advance.
    pub fn stage(&mut self, db: &Database) -> EngineResult<StagedExtract> {
        if self.diff_owed {
            // A previous round quarantined segments and then aborted; the
            // log now has a silent gap, so the op path would under-extract.
            return self.stage_diff(db, ResilientExtract::default());
        }
        match self.inner.peek(db) {
            Ok((deltas, new_watermark)) => {
                let staged = self.stage_baselines(db, &deltas)?;
                Ok(StagedExtract {
                    outcome: ResilientExtract {
                        deltas,
                        ..Default::default()
                    },
                    coalesced: false,
                    new_watermark,
                    staged,
                })
            }
            Err(EngineError::Storage(delta_storage::StorageError::Corrupt(_))) => {
                // Quarantine is repair, not extraction state: it happens at
                // stage time and is not rolled back by `abort`.
                let (_, quarantined_segments) = db.wal().quarantine_corrupt_archived()?;
                self.diff_owed = true;
                self.stage_diff(
                    db,
                    ResilientExtract {
                        quarantined_segments,
                        ..Default::default()
                    },
                )
            }
            Err(e) => Err(e),
        }
    }

    /// Stage a *coalesced* round: skip the log entirely and diff every
    /// tracked table against its baseline, yielding at most one net record
    /// per changed row. This is the graceful-degradation path for transport
    /// backpressure — when the op-delta stream cannot fit in the queue's
    /// disk budget, the coalesced form is strictly smaller (per §3.1.2,
    /// snapshot diffs observe only final states) and covers the same
    /// changes, at the cost of transaction context.
    pub fn stage_coalesced(&mut self, db: &Database) -> EngineResult<StagedExtract> {
        self.stage_diff(db, ResilientExtract::default())
    }

    /// Apply a staged round: rename the staged baselines into place and
    /// advance the watermark. Call only after the round's deltas have been
    /// durably published.
    pub fn commit(&mut self, staged: StagedExtract) -> EngineResult<ResilientExtract> {
        for (from, to) in &staged.staged {
            std::fs::rename(from, to)?;
        }
        self.inner.watermark = staged.new_watermark;
        if staged.coalesced {
            // A committed diff covers everything up to its watermark,
            // including any gap left by quarantined segments.
            self.diff_owed = false;
        }
        Ok(staged.outcome)
    }

    /// Discard a staged round: delete the staged baseline files and leave
    /// the watermark and committed baselines untouched, so the next round
    /// re-extracts the same changes.
    pub fn abort(&self, staged: StagedExtract) {
        for (from, _) in &staged.staged {
            let _ = std::fs::remove_file(from);
        }
    }

    fn staged_baseline_path(&self, table: &str) -> PathBuf {
        self.baseline_dir.join(format!("{table}.baseline.staged"))
    }

    /// Snapshot every table the round changed into its `.baseline.staged`
    /// sibling, cleaning up on failure so aborted stages leave no debris. A
    /// table with no record in the round is not re-snapshotted: its state at
    /// the new watermark is, by definition, the baseline already on disk.
    fn stage_baselines(
        &self,
        db: &Database,
        changed: &[ValueDelta],
    ) -> EngineResult<Vec<(PathBuf, PathBuf)>> {
        let mut staged = Vec::with_capacity(changed.len());
        for t in changed.iter().map(|delta| &delta.table) {
            let s = self.staged_baseline_path(t);
            if let Err(e) = crate::snapshot::take_snapshot(db, t, &s) {
                for (p, _) in &staged {
                    let _ = std::fs::remove_file(p);
                }
                return Err(e);
            }
            staged.push((s, self.baseline_path(t)));
        }
        Ok(staged)
    }

    /// The snapshot-diff body shared by degradation and coalescing: stage a
    /// fresh snapshot of each table, diff it against the committed baseline,
    /// and record a watermark advance to the log head (the diffs cover
    /// everything up to it).
    fn stage_diff(
        &mut self,
        db: &Database,
        mut out: ResilientExtract,
    ) -> EngineResult<StagedExtract> {
        if !self.primed {
            return Err(EngineError::Invalid(
                "resilient extraction needs prime() to capture baselines before it can diff".into(),
            ));
        }
        let mut staged = Vec::with_capacity(self.tables.len());
        let fail = |staged: &[(PathBuf, PathBuf)], e: EngineError| {
            for (p, _) in staged {
                let _ = std::fs::remove_file(p);
            }
            Err(e)
        };
        for t in &self.tables {
            let meta = match db.table(t) {
                Ok(m) => m,
                Err(e) => return fail(&staged, e),
            };
            let key_cols = meta.schema.primary_key_indices();
            let current = self.staged_baseline_path(t);
            if let Err(e) = crate::snapshot::take_snapshot(db, t, &current) {
                return fail(&staged, e);
            }
            staged.push((current.clone(), self.baseline_path(t)));
            let diff = crate::snapshot::diff_snapshots(
                t,
                &meta.schema,
                &key_cols,
                self.baseline_path(t),
                &current,
                crate::snapshot::DiffAlgorithm::SortMerge { run_size: 1024 },
            );
            let (vd, _stats) = match diff {
                Ok(v) => v,
                Err(e) => return fail(&staged, EngineError::Storage(e)),
            };
            out.degraded.push(t.clone());
            if !vd.is_empty() {
                out.deltas.push(vd);
            }
        }
        // Everything up to the log head is covered by the diffs.
        Ok(StagedExtract {
            outcome: out,
            coalesced: true,
            new_watermark: db.wal().next_lsn().saturating_sub(1),
            staged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_engine::db::{Database, DbOptions};
    use delta_storage::Value;
    use std::sync::Arc;

    fn open(archive: bool, label: &str) -> Arc<Database> {
        let dir = std::env::temp_dir().join(format!(
            "delta-logx-{}-{:?}-{label}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Database::open(DbOptions::new(dir).archive(archive)).unwrap()
    }

    fn setup(label: &str) -> Arc<Database> {
        let db = open(true, label);
        let mut s = db.session();
        s.execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR)")
            .unwrap();
        db
    }

    #[test]
    fn requires_archive_mode() {
        let db = open(false, "noarch");
        let mut x = LogExtractor::new();
        assert!(x.extract(&db).is_err());
    }

    #[test]
    fn extracts_committed_changes_with_txn_context() {
        let db = setup("basic");
        let mut s = db.session();
        s.execute("INSERT INTO parts VALUES (1, 'a')").unwrap();
        s.execute("UPDATE parts SET name = 'b' WHERE id = 1")
            .unwrap();
        s.execute("DELETE FROM parts WHERE id = 1").unwrap();
        let mut x = LogExtractor::new();
        let deltas = x.extract(&db).unwrap();
        assert_eq!(deltas.len(), 1);
        let vd = &deltas[0];
        let ops: Vec<DeltaOp> = vd.records.iter().map(|r| r.op).collect();
        assert_eq!(
            ops,
            vec![
                DeltaOp::Insert,
                DeltaOp::UpdateBefore,
                DeltaOp::UpdateAfter,
                DeltaOp::Delete
            ]
        );
        assert!(vd.has_txn_context());
    }

    #[test]
    fn watermark_makes_extraction_incremental() {
        let db = setup("incr");
        let mut s = db.session();
        s.execute("INSERT INTO parts VALUES (1, 'a')").unwrap();
        let mut x = LogExtractor::new();
        assert_eq!(x.extract(&db).unwrap()[0].len(), 1);
        // Nothing new → nothing extracted.
        assert!(x.extract(&db).unwrap().is_empty());
        s.execute("INSERT INTO parts VALUES (2, 'b')").unwrap();
        let deltas = x.extract(&db).unwrap();
        assert_eq!(deltas[0].len(), 1);
        assert_eq!(deltas[0].records[0].row.values()[0], Value::Int(2));
    }

    /// Append one torn `Begin, Insert` fragment per id to `segment` (a crash
    /// tore each commit batch after its second record); fragment `i` tries to
    /// insert row `(100 + i, 'torn')`.
    fn append_torn_fragments(segment: &std::path::Path, mut lsn: Lsn, ids: &[u64]) {
        use delta_engine::txn::TxnId;
        use delta_engine::wal::encode_record;
        use delta_storage::Row;
        use std::io::Write;

        let mut tail = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let txn = TxnId(*id);
            tail.extend(encode_record(lsn, &LogRecord::Begin { txn }));
            tail.extend(encode_record(
                lsn + 1,
                &LogRecord::Insert {
                    txn,
                    table: "parts".into(),
                    row: Row::new(vec![Value::Int(100 + i as i64), Value::Str("torn".into())]),
                },
            ));
            lsn += 2;
        }
        std::fs::OpenOptions::new()
            .append(true)
            .open(segment)
            .unwrap()
            .write_all(&tail)
            .unwrap();
    }

    /// The id of the one transaction committed so far.
    fn committed_txn_id(db: &Database) -> u64 {
        let log = db.wal().read_from(1).unwrap();
        let ids: Vec<u64> = log
            .iter()
            .filter_map(|(_, r)| match r {
                LogRecord::Commit { txn } => Some(txn.0),
                _ => None,
            })
            .collect();
        assert_eq!(ids.len(), 1);
        ids[0]
    }

    fn ids_of(delta: &ValueDelta) -> Vec<Value> {
        delta
            .records
            .iter()
            .map(|r| r.row.values()[0].clone())
            .collect()
    }

    #[test]
    fn torn_tail_fragment_is_skipped_and_the_watermark_passes_it() {
        let db = setup("torn");
        db.session()
            .execute("INSERT INTO parts VALUES (1, 'a')")
            .unwrap();
        let dir = db.options().dir.clone();
        let torn_lsn = db.wal().next_lsn();
        let segment = db.wal().resident_segments().unwrap().pop().unwrap();
        // The fragment carries the id of the transaction committed just
        // before it, in the same resident log: transaction ids restart at
        // every open, so nothing makes a torn batch's id unique.
        let collides = committed_txn_id(&db);
        drop(db);
        append_torn_fragments(&segment, torn_lsn, &[collides]);

        let db = Database::open(DbOptions::new(dir).archive(true)).unwrap();
        let mut x = LogExtractor::new();
        let deltas = x.extract(&db).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(ids_of(&deltas[0]), [Value::Int(1)], "only the commit");
        assert_eq!(
            x.watermark,
            torn_lsn + 1,
            "the watermark passes the fragment"
        );

        // The next committed transaction is extracted exactly once.
        db.session()
            .execute("INSERT INTO parts VALUES (3, 'c')")
            .unwrap();
        let deltas = x.extract(&db).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(ids_of(&deltas[0]), [Value::Int(3)]);
        assert!(x.extract(&db).unwrap().is_empty());
    }

    #[test]
    fn torn_fragment_sharing_its_id_with_a_later_commit_is_still_skipped() {
        let db = setup("torn-later");
        db.session()
            .execute("INSERT INTO parts VALUES (1, 'a')")
            .unwrap();
        let dir = db.options().dir.clone();
        let torn_lsn = db.wal().next_lsn();
        let segment = db.wal().resident_segments().unwrap().pop().unwrap();
        drop(db);
        // Fragments under ids 1..=4: whichever id the first transaction
        // after the reopen draws, one torn fragment already carries it, and
        // both sit in the same extraction window.
        append_torn_fragments(&segment, torn_lsn, &[1, 2, 3, 4]);

        let db = Database::open(DbOptions::new(dir).archive(true)).unwrap();
        db.session()
            .execute("INSERT INTO parts VALUES (3, 'c')")
            .unwrap();
        let later = db.wal().read_from(torn_lsn).unwrap();
        assert!(
            later
                .iter()
                .any(|(_, r)| matches!(r, LogRecord::Commit { txn } if (1..=4).contains(&txn.0))),
            "the test needs the id to collide: {later:?}"
        );
        let mut x = LogExtractor::new();
        let deltas = x.extract(&db).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(ids_of(&deltas[0]), [Value::Int(1), Value::Int(3)]);
        assert_eq!(x.watermark, db.wal().next_lsn() - 1);
    }

    #[test]
    fn records_of_a_dropped_table_are_skipped() {
        let db = setup("dropped");
        let mut s = db.session();
        s.execute("CREATE TABLE gone (id INT PRIMARY KEY)").unwrap();
        s.execute("INSERT INTO gone VALUES (1)").unwrap();
        s.execute("INSERT INTO parts VALUES (1, 'a')").unwrap();
        db.drop_table("gone").unwrap();
        let mut x = LogExtractor::new();
        let deltas = x.extract(&db).unwrap();
        assert_eq!(deltas.len(), 1, "nothing ships for the dropped table");
        assert_eq!(deltas[0].table, "parts");
        assert_eq!(x.watermark, db.wal().next_lsn() - 1);

        // A namesake created afterwards starts from its own rows, under its
        // own schema — not from the rows its predecessor logged.
        s.execute("CREATE TABLE again (id INT PRIMARY KEY)")
            .unwrap();
        s.execute("INSERT INTO again VALUES (7)").unwrap();
        db.drop_table("again").unwrap();
        s.execute("CREATE TABLE again (id INT PRIMARY KEY, note VARCHAR)")
            .unwrap();
        s.execute("INSERT INTO again VALUES (8, 'new')").unwrap();
        let deltas = x.extract(&db).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].table, "again");
        assert_eq!(ids_of(&deltas[0]), [Value::Int(8)]);
        assert_eq!(deltas[0].records[0].row.values().len(), 2);
    }

    #[test]
    fn rolled_back_work_never_appears() {
        let db = setup("rb");
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO parts VALUES (1, 'doomed')").unwrap();
        s.execute("ROLLBACK").unwrap();
        let mut x = LogExtractor::new();
        assert!(x.extract(&db).unwrap().is_empty());
    }

    #[test]
    fn table_filter_restricts_extraction() {
        let db = setup("filter");
        let mut s = db.session();
        s.execute("CREATE TABLE other (id INT PRIMARY KEY)")
            .unwrap();
        s.execute("INSERT INTO parts VALUES (1, 'a')").unwrap();
        s.execute("INSERT INTO other VALUES (9)").unwrap();
        let mut x = LogExtractor::for_tables(&["other"]);
        let deltas = x.extract(&db).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].table, "other");
    }

    #[test]
    fn survives_checkpoints_because_of_archiving() {
        let db = setup("ckpt");
        let mut s = db.session();
        for i in 0..200 {
            s.execute(&format!("INSERT INTO parts VALUES ({i}, 'x')"))
                .unwrap();
        }
        db.checkpoint().unwrap();
        for i in 200..210 {
            s.execute(&format!("INSERT INTO parts VALUES ({i}, 'y')"))
                .unwrap();
        }
        let mut x = LogExtractor::new();
        let deltas = x.extract(&db).unwrap();
        assert_eq!(
            deltas[0].len(),
            210,
            "pre-checkpoint changes still visible via archive"
        );
        assert!(!LogExtractor::shippable_segments(&db).unwrap().is_empty());
    }

    #[test]
    fn corrupt_archive_degrades_to_snapshot_diff_then_recovers() {
        let db = setup("degrade");
        let dir = std::env::temp_dir().join(format!(
            "delta-logx-baselines-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut x = ResilientLogExtractor::new(&dir, &["parts"]).unwrap();
        x.prime(&db).unwrap();

        let mut s = db.session();
        for i in 0..30 {
            s.execute(&format!("INSERT INTO parts VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
        // Archive the segment holding those inserts, then vandalize it.
        db.checkpoint().unwrap();
        s.execute("INSERT INTO parts VALUES (100, 'after')")
            .unwrap();
        let archived = LogExtractor::shippable_segments(&db).unwrap();
        assert!(!archived.is_empty());
        flip_middle_byte(&archived[0]);

        // The plain extractor wedges on the corrupt segment...
        assert!(LogExtractor::new().extract(&db).is_err());

        // ...the resilient one degrades to a snapshot diff and still
        // produces the complete delta.
        let round = x.extract(&db).unwrap();
        assert_eq!(round.degraded, vec!["parts".to_string()]);
        assert_eq!(round.quarantined_segments.len(), 1);
        assert!(round.quarantined_segments[0].exists());
        assert_eq!(round.deltas.len(), 1);
        assert_eq!(
            round.deltas[0].len(),
            31,
            "all inserts recovered via snapshot diff"
        );
        assert!(
            round.deltas[0]
                .records
                .iter()
                .all(|r| r.op == DeltaOp::Insert),
            "baseline was empty, so every delta is an insert"
        );

        // With the damage quarantined, the next round reads the log again.
        s.execute("INSERT INTO parts VALUES (101, 'healed')")
            .unwrap();
        let round = x.extract(&db).unwrap();
        assert!(round.degraded.is_empty(), "log extraction is healthy again");
        assert_eq!(round.deltas.len(), 1);
        assert_eq!(round.deltas[0].len(), 1);
        assert_eq!(round.deltas[0].records[0].row.values()[0], Value::Int(101));
    }

    fn baseline_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "delta-logx-stage-{}-{:?}-{label}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn aborted_stage_re_extracts_the_same_deltas() {
        let db = setup("abort");
        let mut x = ResilientLogExtractor::new(baseline_dir("abort"), &["parts"]).unwrap();
        x.prime(&db).unwrap();
        let mut s = db.session();
        s.execute("INSERT INTO parts VALUES (1, 'a')").unwrap();

        let staged = x.stage(&db).unwrap();
        assert_eq!(staged.outcome.deltas.len(), 1);
        assert!(!staged.coalesced);
        x.abort(staged);
        assert_eq!(x.watermark(), 0, "abort leaves the watermark untouched");

        // Publish "failed"; the retry sees the exact same changes.
        let retry = x.stage(&db).unwrap();
        assert_eq!(retry.outcome.deltas.len(), 1);
        assert_eq!(retry.outcome.deltas[0].len(), 1);
        let done = x.commit(retry).unwrap();
        assert_eq!(done.deltas.len(), 1);
        assert!(x.watermark() > 0);

        // Committed round is consumed: nothing left to extract.
        let empty = x.stage(&db).unwrap();
        assert!(empty.outcome.deltas.is_empty());
        x.abort(empty);
        // No staged debris survives an abort.
        let leftover: Vec<_> = std::fs::read_dir(&x.baseline_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".staged"))
            .collect();
        assert!(leftover.is_empty());
    }

    #[test]
    fn coalesced_stage_nets_op_deltas_into_final_states() {
        let db = setup("coalesce");
        let mut x = ResilientLogExtractor::new(baseline_dir("coalesce"), &["parts"]).unwrap();
        x.prime(&db).unwrap();
        let mut s = db.session();
        // Three ops on one row + one op on another: the op stream has 5
        // records (insert, before, after, insert, delete-never) — the
        // coalesced form has 2 (one net insert per surviving row).
        s.execute("INSERT INTO parts VALUES (1, 'a')").unwrap();
        s.execute("UPDATE parts SET name = 'b' WHERE id = 1")
            .unwrap();
        s.execute("INSERT INTO parts VALUES (2, 'c')").unwrap();

        let op_form = x.stage(&db).unwrap();
        assert_eq!(op_form.outcome.deltas[0].len(), 4, "op stream: 4 records");
        x.abort(op_form);

        let coalesced = x.stage_coalesced(&db).unwrap();
        assert!(coalesced.coalesced);
        assert_eq!(coalesced.outcome.degraded, vec!["parts".to_string()]);
        assert_eq!(
            coalesced.outcome.deltas[0].len(),
            2,
            "coalesced stream: one net record per changed row"
        );
        x.commit(coalesced).unwrap();

        // The commit advanced the watermark past the coalesced changes, so
        // the log path resumes cleanly afterwards.
        s.execute("INSERT INTO parts VALUES (3, 'd')").unwrap();
        let next = x.extract(&db).unwrap();
        assert!(next.degraded.is_empty());
        assert_eq!(next.deltas[0].len(), 1);
        assert_eq!(next.deltas[0].records[0].row.values()[0], Value::Int(3));
    }

    #[test]
    fn aborted_round_after_quarantine_still_owes_the_diff() {
        let db = setup("owed");
        let mut x = ResilientLogExtractor::new(baseline_dir("owed"), &["parts"]).unwrap();
        x.prime(&db).unwrap();
        let mut s = db.session();
        for i in 0..20 {
            s.execute(&format!("INSERT INTO parts VALUES ({i}, 'v')"))
                .unwrap();
        }
        db.checkpoint().unwrap();
        flip_middle_byte(&LogExtractor::shippable_segments(&db).unwrap()[0]);

        // Stage: corruption is quarantined, diff staged — then the publish
        // "fails" and the round aborts. The quarantine is not rolled back,
        // so the log now has a silent gap.
        let staged = x.stage(&db).unwrap();
        assert!(staged.coalesced);
        assert_eq!(staged.outcome.quarantined_segments.len(), 1);
        x.abort(staged);

        // The retry must NOT trust the (clean-looking, gapped) log: it owes
        // the snapshot diff until one commits.
        let retry = x.stage(&db).unwrap();
        assert!(retry.coalesced, "gap forces the diff path");
        assert_eq!(retry.outcome.deltas[0].len(), 20, "no rows lost");
        x.commit(retry).unwrap();

        // Once the diff lands, the log path resumes.
        s.execute("INSERT INTO parts VALUES (100, 'after')")
            .unwrap();
        let next = x.stage(&db).unwrap();
        assert!(!next.coalesced);
        assert_eq!(next.outcome.deltas[0].len(), 1);
        x.commit(next).unwrap();
    }

    fn flip_middle_byte(path: &std::path::Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn reopen_survives_a_corrupt_archive_and_the_next_stage_degrades() {
        let db = setup("reopen-corrupt");
        let dir = db.options().dir.clone();
        let mut x = ResilientLogExtractor::new(baseline_dir("reopen-corrupt"), &["parts"]).unwrap();
        x.prime(&db).unwrap();
        let mut s = db.session();
        for i in 0..30 {
            s.execute(&format!("INSERT INTO parts VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
        db.checkpoint().unwrap();
        s.execute("INSERT INTO parts VALUES (100, 'after')")
            .unwrap();
        let next_lsn = db.wal().next_lsn();
        flip_middle_byte(&LogExtractor::shippable_segments(&db).unwrap()[0]);
        drop(s);
        drop(db);

        // Open reads the resident log and `lsn.hint`; the archive is the
        // extractor's to judge, never a reason not to boot.
        let db = Database::open(DbOptions::new(dir).archive(true)).unwrap();
        assert_eq!(db.wal().next_lsn(), next_lsn);
        assert_eq!(db.row_count("parts").unwrap(), 31);

        let round = x.extract(&db).unwrap();
        assert_eq!(round.degraded, vec!["parts".to_string()]);
        assert_eq!(round.quarantined_segments.len(), 1);
        assert_eq!(round.deltas[0].len(), 31, "every insert, via the diff");
        db.session()
            .execute("INSERT INTO parts VALUES (101, 'healed')")
            .unwrap();
        let round = x.extract(&db).unwrap();
        assert!(round.degraded.is_empty(), "back on the log");
        assert_eq!(ids_of(&round.deltas[0]), [Value::Int(101)]);
    }

    #[test]
    fn a_consumed_segment_is_never_read_again() {
        // Damage, then loss, of an archived segment wholly below the
        // watermark: the next round neither notices nor degrades, because
        // it never opens the file.
        for delete in [false, true] {
            let label = if delete {
                "consumed-rm"
            } else {
                "consumed-flip"
            };
            let db = setup(label);
            let mut x = ResilientLogExtractor::new(baseline_dir(label), &["parts"]).unwrap();
            x.prime(&db).unwrap();
            let mut s = db.session();
            for round in 0..3 {
                for i in 0..10 {
                    let id = round * 10 + i;
                    s.execute(&format!("INSERT INTO parts VALUES ({id}, 'v')"))
                        .unwrap();
                }
                db.checkpoint().unwrap();
                let out = x.extract(&db).unwrap();
                assert!(out.degraded.is_empty());
                assert_eq!(out.deltas[0].len(), 10);
            }
            let archived = LogExtractor::shippable_segments(&db).unwrap();
            assert!(archived.len() >= 3);
            if delete {
                std::fs::remove_file(&archived[0]).unwrap();
            } else {
                flip_middle_byte(&archived[0]);
            }

            s.execute("INSERT INTO parts VALUES (1000, 'new')").unwrap();
            let staged = x.stage(&db).unwrap();
            assert!(!staged.coalesced, "{label}: still on the log path");
            assert!(staged.outcome.degraded.is_empty());
            assert!(staged.outcome.quarantined_segments.is_empty());
            assert_eq!(ids_of(&staged.outcome.deltas[0]), [Value::Int(1000)]);
            x.commit(staged).unwrap();
            assert_eq!(
                LogExtractor::shippable_segments(&db).unwrap().len(),
                archived.len() - delete as usize,
                "{label}: nothing was quarantined"
            );
        }
    }

    #[test]
    fn only_tables_the_round_changed_get_a_new_baseline() {
        let db = setup("two-baselines");
        let mut s = db.session();
        s.execute("CREATE TABLE orders (id INT PRIMARY KEY)")
            .unwrap();
        let dir = baseline_dir("two-baselines");
        let mut x = ResilientLogExtractor::new(&dir, &["orders", "parts"]).unwrap();
        x.prime(&db).unwrap();
        s.execute("INSERT INTO orders VALUES (1)").unwrap();
        s.execute("INSERT INTO parts VALUES (0, 'z')").unwrap();
        assert_eq!(x.extract(&db).unwrap().deltas.len(), 2);
        let stamp = |t: &str| {
            let path = dir.join(format!("{t}.baseline"));
            let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
            (modified, std::fs::read(&path).unwrap())
        };
        let (orders_before, parts_before) = (stamp("orders"), stamp("parts"));

        std::thread::sleep(std::time::Duration::from_millis(20));
        s.execute("INSERT INTO parts VALUES (1, 'a')").unwrap();
        let staged = x.stage(&db).unwrap();
        assert!(!staged.coalesced);
        assert!(!dir.join("orders.baseline.staged").exists());
        assert!(dir.join("parts.baseline.staged").exists());
        x.commit(staged).unwrap();
        assert_eq!(stamp("orders"), orders_before, "untouched table, same file");
        assert_ne!(
            stamp("parts").1,
            parts_before.1,
            "changed table, new baseline"
        );

        // The baseline left alone is still the right one to diff against.
        s.execute("INSERT INTO orders VALUES (2)").unwrap();
        let diff = x.stage_coalesced(&db).unwrap();
        assert_eq!(diff.outcome.deltas.len(), 1);
        assert_eq!(diff.outcome.deltas[0].table, "orders");
        assert_eq!(ids_of(&diff.outcome.deltas[0]), [Value::Int(2)]);
        x.abort(diff);
    }

    #[test]
    fn multi_table_changes_group_per_table() {
        let db = setup("multi");
        let mut s = db.session();
        s.execute("CREATE TABLE orders (id INT PRIMARY KEY)")
            .unwrap();
        s.execute("INSERT INTO parts VALUES (1, 'a')").unwrap();
        s.execute("INSERT INTO orders VALUES (100)").unwrap();
        s.execute("INSERT INTO parts VALUES (2, 'b')").unwrap();
        let mut x = LogExtractor::new();
        let deltas = x.extract(&db).unwrap();
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0].table, "orders");
        assert_eq!(deltas[1].table, "parts");
        assert_eq!(deltas[1].len(), 2);
    }
}
