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

use std::collections::BTreeMap;
use std::path::PathBuf;

use delta_engine::db::Database;
use delta_engine::wal::{LogRecord, Lsn};
use delta_engine::{EngineError, EngineResult};
use delta_storage::StorageError;

use crate::model::{DeltaOp, ValueDelta, ValueDeltaRecord};
use crate::snapshot::{cmp_keys, key_of};

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
        let tail = db.wal().read_committed(self.watermark + 1, |unit| {
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
                // The table's name is copied once, for its first record.
                let delta = match per_table.get_mut(table) {
                    Some(known) => known,
                    // A table dropped since has no schema to ship rows under.
                    None => match db.table(table) {
                        Ok(meta) => per_table
                            .entry(table.to_string())
                            .or_insert(ValueDelta::new(table, meta.schema.clone())),
                        Err(_) => continue,
                    },
                };
                // The unit is the reader's own decoded copy: its images move.
                let images = rec.images_mut();
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
                        row: std::mem::take(row),
                    });
                }
            }
            Ok(())
        })?;
        if !tail.lost.is_empty() {
            // A quarantined segment may have held changes past the
            // watermark: the log no longer has them, so nothing ships.
            return Err(EngineError::AuditOwed {
                tables: self.tables.clone(),
                segments: tail.lost,
            });
        }
        Ok((
            per_table.into_values().filter(|v| !v.is_empty()).collect(),
            self.watermark.max(tail.high),
        ))
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
    /// Always empty: no round diffs snapshots any more, and a netted round
    /// says so in [`StagedExtract::coalesced`]. The field stays only
    /// because the frozen dwbench harness reads it.
    pub degraded: Vec<String>,
    /// Always empty: a round that finds a corrupt archived segment
    /// quarantines it and fails with [`EngineError::AuditOwed`], which names
    /// it. The field stays only because the frozen dwbench harness reads it.
    pub quarantined_segments: Vec<PathBuf>,
}

/// One extraction round staged but not yet committed: the deltas are ready
/// to publish, and the watermark they advance the extractor to is recorded
/// but not applied. Publish the deltas, then
/// [`ResilientLogExtractor::commit`]. A round that is never committed (its
/// publish hit a disk-full transport budget, say) is simply dropped: nothing
/// moved, so the next round re-extracts the same changes with zero loss.
#[derive(Debug)]
pub struct StagedExtract {
    /// The round's outcome: deltas to publish.
    pub outcome: ResilientExtract,
    /// True when the deltas were netted by
    /// [`ResilientLogExtractor::stage_coalesced`].
    pub coalesced: bool,
    new_watermark: Lsn,
}

/// A [`LogExtractor`] with staged rounds, a coalesced form, and a refusal to
/// ship past a hole in the log (DESIGN.md §25). It keeps nothing but the
/// watermark — no copy of a table, no journal, no file:
///
/// * a round reads the committed log tail past the watermark, and its commit
///   moves the watermark;
/// * a coalesced round nets the same tail to one record per changed key —
///   it reads no table, so writers need not be quiesced;
/// * when an archived segment the round needs is corrupt, the round moves
///   it aside (`*.wal.corrupt`) and fails with [`EngineError::AuditOwed`]
///   — as it does when `scrub_database` moved the segment aside first —
///   and so does every later round until [`audited`](Self::audited). With
///   the log gone the warehouse is the authority: the caller converges it
///   with `delta_warehouse::audit_and_repair` under that function's
///   quiescence contract, then calls `audited`.
#[derive(Debug)]
pub struct ResilientLogExtractor {
    inner: LogExtractor,
    /// Segments quarantined since the last [`audited`](Self::audited);
    /// `Some` while an audit is owed.
    owed: Option<Vec<PathBuf>>,
}

impl ResilientLogExtractor {
    /// Track `tables`. Nothing is created on disk and `_dir` is unused: the
    /// argument and the `Result` stay only because the frozen dwbench
    /// harness passes and unwraps them.
    pub fn new(_dir: impl Into<PathBuf>, tables: &[&str]) -> EngineResult<ResilientLogExtractor> {
        Ok(ResilientLogExtractor {
            inner: LogExtractor::for_tables(tables),
            owed: None,
        })
    }

    /// The log watermark (everything at or below it has been extracted).
    pub fn watermark(&self) -> Lsn {
        self.inner.watermark
    }

    /// Does nothing: there is no baseline to capture. It stays only because
    /// the frozen dwbench harness calls it.
    pub fn prime(&mut self, _db: &Database) -> EngineResult<()> {
        Ok(())
    }

    /// Extract committed changes past the watermark, committing the round
    /// immediately. Equivalent to `stage` followed by `commit`; use the
    /// staged pair directly when a publish step sits between them.
    pub fn extract(&mut self, db: &Database) -> EngineResult<ResilientExtract> {
        let staged = self.stage(db)?;
        self.commit(staged)
    }

    /// Stage one round from the committed log tail past the watermark,
    /// without moving the watermark. Fails with [`EngineError::AuditOwed`]
    /// — quarantining the damage first — when an archived segment it needs
    /// is corrupt or already quarantined, and from then on until
    /// [`audited`](Self::audited).
    pub fn stage(&mut self, db: &Database) -> EngineResult<StagedExtract> {
        if self.owed.is_none() {
            match self.inner.peek(db) {
                Ok((deltas, new_watermark)) => {
                    return Ok(StagedExtract {
                        outcome: ResilientExtract {
                            deltas,
                            ..Default::default()
                        },
                        coalesced: false,
                        new_watermark,
                    })
                }
                Err(EngineError::Storage(StorageError::Corrupt(_))) => {
                    self.owed = Some(db.wal().quarantine_corrupt_archived()?.1);
                }
                Err(EngineError::AuditOwed { segments, .. }) => self.owed = Some(segments),
                Err(e) => return Err(e),
            }
        }
        Err(EngineError::AuditOwed {
            tables: self.inner.tables.clone(),
            segments: self.owed.clone().unwrap_or_default(),
        })
    }

    /// Stage a *coalesced* round: [`stage`](Self::stage)'s log tail netted
    /// to at most one record per changed key (see [`net`]). This is the
    /// ship ladder's answer to transport backpressure: the same watermark
    /// advance in the fewest bytes, at the cost of transaction context
    /// (§3.1.2's trade). It reads no table.
    pub fn stage_coalesced(&mut self, db: &Database) -> EngineResult<StagedExtract> {
        let mut staged = self.stage(db)?;
        let deltas = std::mem::take(&mut staged.outcome.deltas);
        staged.outcome.deltas = deltas
            .into_iter()
            .map(net)
            .filter(|vd| !vd.is_empty())
            .collect();
        staged.coalesced = true;
        Ok(staged)
    }

    /// Apply a staged round: move the watermark. Call only after the round's
    /// deltas have been durably published. It cannot fail; the `Result`
    /// stays because the frozen dwbench harness unwraps it.
    pub fn commit(&mut self, staged: StagedExtract) -> EngineResult<ResilientExtract> {
        self.inner.watermark = staged.new_watermark;
        Ok(staged.outcome)
    }

    /// Settle an owed audit: move the watermark to the log head and read the
    /// log again from there. Call once `audit_and_repair` has converged the
    /// tracked tables, before their writers resume: a change committed
    /// between the audit's source snapshot and this call would lie below the
    /// new watermark and outside the audit, and never ship.
    pub fn audited(&mut self, db: &Database) {
        self.inner.watermark = db.wal().next_lsn().saturating_sub(1);
        self.owed = None;
    }
}

/// The net change `delta` describes: its images signed (`+1` for `Insert`
/// and `UpdateAfter`, `−1` for `Delete` and `UpdateBefore`) and summed per
/// primary key, equal images cancelling, and what is left emitted in key
/// order as one `Insert`, `Delete` or `UpdateBefore` + `UpdateAfter` pair
/// per changed key, with no transaction context. That is what
/// [`crate::snapshot::diff_snapshots`] finds between the table at the two
/// watermarks. A table without a primary key is keyed by the whole row.
fn net(mut delta: ValueDelta) -> ValueDelta {
    let mut key_cols = delta.schema.primary_key_indices();
    if key_cols.is_empty() {
        key_cols = (0..delta.schema.len()).collect();
    }
    let mut keyed: Vec<_> = std::mem::take(&mut delta.records)
        .into_iter()
        .map(|r| (key_of(&r.row, &key_cols), r))
        .collect();
    // Stable: a key's records stay in log order.
    keyed.sort_by(|a, b| cmp_keys(&a.0, &b.0));
    for changes in keyed.chunk_by_mut(|a, b| cmp_keys(&a.0, &b.0).is_eq()) {
        // Per distinct image: its stored bytes, where it first occurs, and
        // its signed count.
        let mut images: Vec<(Vec<u8>, usize, i64)> = Vec::new();
        for (at, (_, r)) in changes.iter().enumerate() {
            let n = match r.op {
                DeltaOp::Insert | DeltaOp::UpdateAfter => 1,
                DeltaOp::UpdateBefore | DeltaOp::Delete => -1,
            };
            let bytes = r.row.to_bytes();
            match images.iter_mut().find(|image| image.0 == bytes) {
                Some(image) => image.2 += n,
                None => images.push((bytes, at, n)),
            }
        }
        let before = images.iter().find(|image| image.2 < 0).map(|image| image.1);
        let after = images.iter().find(|image| image.2 > 0).map(|image| image.1);
        let survivors = match (before, after) {
            (Some(old), Some(new)) => [
                Some((DeltaOp::UpdateBefore, old)),
                Some((DeltaOp::UpdateAfter, new)),
            ],
            (Some(old), None) => [Some((DeltaOp::Delete, old)), None],
            (None, Some(new)) => [Some((DeltaOp::Insert, new)), None],
            (None, None) => [None, None],
        };
        // Each surviving image moves out of the record it came in.
        for (op, at) in survivors.into_iter().flatten() {
            let row = std::mem::take(&mut changes[at].1.row);
            delta.records.push(ValueDeltaRecord { op, txn: 0, row });
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_engine::db::{Database, DbOptions};
    use delta_storage::{Row, Value};
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

    fn extractor_dir(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "delta-logx-dir-{}-{:?}-{label}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn flip_middle_byte(path: &std::path::Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
    }

    /// The next `stage` fails with the typed audit-owed error, naming the
    /// tracked table and one quarantined segment, which exists.
    fn assert_audit_owed(x: &mut ResilientLogExtractor, db: &Database) {
        match x.stage(db) {
            Err(EngineError::AuditOwed { tables, segments }) => {
                assert_eq!(tables, ["parts"]);
                assert_eq!(segments.len(), 1, "{segments:?}");
                assert!(segments[0].exists());
            }
            other => panic!("expected an owed audit, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_archive_owes_an_audit_until_audited() {
        let db = setup("owed");
        let dir = extractor_dir("owed");
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

        // ...the resilient one moves it aside and owes an audit, round after
        // round and on every rung, shipping nothing past the gap.
        assert_audit_owed(&mut x, &db);
        assert_audit_owed(&mut x, &db);
        assert!(matches!(
            x.stage_coalesced(&db),
            Err(EngineError::AuditOwed { .. })
        ));
        assert!(matches!(x.extract(&db), Err(EngineError::AuditOwed { .. })));
        assert_eq!(x.watermark(), 0);

        // Once the warehouse is audited, the log is read from its head.
        x.audited(&db);
        assert_eq!(x.watermark(), db.wal().next_lsn() - 1);
        s.execute("INSERT INTO parts VALUES (101, 'healed')")
            .unwrap();
        let round = x.extract(&db).unwrap();
        assert_eq!(ids_of(&round.deltas[0]), [Value::Int(101)]);
        assert!(round.deltas[0].has_txn_context());
        assert!(!dir.exists(), "the extractor keeps nothing on disk");
    }

    #[test]
    fn a_dropped_stage_re_extracts_the_same_deltas() {
        let db = setup("dropped-stage");
        let mut x = ResilientLogExtractor::new(extractor_dir("dropped-stage"), &["parts"]).unwrap();
        let mut s = db.session();
        s.execute("INSERT INTO parts VALUES (1, 'a')").unwrap();

        let staged = x.stage(&db).unwrap();
        assert_eq!(staged.outcome.deltas.len(), 1);
        assert!(!staged.coalesced);
        drop(staged);
        assert_eq!(x.watermark(), 0, "an uncommitted round moves nothing");

        // Publish "failed"; the retry sees the exact same changes.
        let retry = x.stage(&db).unwrap();
        assert_eq!(retry.outcome.deltas.len(), 1);
        assert_eq!(retry.outcome.deltas[0].len(), 1);
        let done = x.commit(retry).unwrap();
        assert_eq!(done.deltas.len(), 1);
        assert!(x.watermark() > 0);

        // Committed round is consumed: nothing left to extract.
        assert!(x.stage(&db).unwrap().outcome.deltas.is_empty());
    }

    #[test]
    fn coalesced_stage_nets_the_log_tail_per_key() {
        let db = setup("coalesce");
        let dir = extractor_dir("coalesce");
        let mut x = ResilientLogExtractor::new(&dir, &["parts"]).unwrap();
        let mut s = db.session();
        for i in 1..=4 {
            s.execute(&format!("INSERT INTO parts VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
        x.extract(&db).unwrap();
        for sql in [
            "INSERT INTO parts VALUES (6, 'f')",
            "UPDATE parts SET name = 'b' WHERE id = 1",
            "UPDATE parts SET name = 'c' WHERE id = 1",
            // Changed and changed back: nothing net.
            "UPDATE parts SET name = 'x' WHERE id = 2",
            "UPDATE parts SET name = 'v2' WHERE id = 2",
            "DELETE FROM parts WHERE id = 3",
            "UPDATE parts SET name = 'y' WHERE id = 4",
            "DELETE FROM parts WHERE id = 4",
            // Came and went: nothing net.
            "INSERT INTO parts VALUES (5, 'e')",
            "DELETE FROM parts WHERE id = 5",
        ] {
            s.execute(sql).unwrap();
        }

        let op_form = x.stage(&db).unwrap();
        assert_eq!(op_form.outcome.deltas[0].len(), 15, "every image");
        drop(op_form);

        let coalesced = x.stage_coalesced(&db).unwrap();
        assert!(coalesced.coalesced);
        let row = |id: i64, name: &str| Row::new(vec![Value::Int(id), Value::Str(name.into())]);
        let net: Vec<_> = coalesced.outcome.deltas[0]
            .records
            .iter()
            .map(|r| (r.op, r.txn, r.row.clone()))
            .collect();
        assert_eq!(
            net,
            [
                (DeltaOp::UpdateBefore, 0, row(1, "v1")),
                (DeltaOp::UpdateAfter, 0, row(1, "c")),
                (DeltaOp::Delete, 0, row(3, "v3")),
                (DeltaOp::Delete, 0, row(4, "v4")),
                (DeltaOp::Insert, 0, row(6, "f")),
            ],
            "one net record per changed key, in key order"
        );
        x.commit(coalesced).unwrap();

        // The commit advanced the watermark past the coalesced changes, so
        // the log path resumes cleanly afterwards.
        s.execute("INSERT INTO parts VALUES (7, 'g')").unwrap();
        let next = x.extract(&db).unwrap();
        assert_eq!(ids_of(&next.deltas[0]), [Value::Int(7)]);
        assert!(!dir.exists(), "the extractor keeps nothing on disk");
    }

    #[test]
    fn reopen_survives_a_corrupt_archive_and_the_next_stage_owes_an_audit() {
        let db = setup("reopen-corrupt");
        let dir = db.options().dir.clone();
        let mut x =
            ResilientLogExtractor::new(extractor_dir("reopen-corrupt"), &["parts"]).unwrap();
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

        assert_audit_owed(&mut x, &db);
        x.audited(&db);
        db.session()
            .execute("INSERT INTO parts VALUES (101, 'healed')")
            .unwrap();
        let round = x.extract(&db).unwrap();
        assert_eq!(
            ids_of(&round.deltas[0]),
            [Value::Int(101)],
            "back on the log"
        );
    }

    #[test]
    fn a_consumed_segment_is_never_read_again() {
        // Damage, then loss, of an archived segment wholly below the
        // watermark: the next round neither notices nor owes an audit,
        // because it never opens the file.
        for delete in [false, true] {
            let label = if delete {
                "consumed-rm"
            } else {
                "consumed-flip"
            };
            let db = setup(label);
            let mut x = ResilientLogExtractor::new(extractor_dir(label), &["parts"]).unwrap();
            let mut s = db.session();
            for round in 0..3 {
                for i in 0..10 {
                    let id = round * 10 + i;
                    s.execute(&format!("INSERT INTO parts VALUES ({id}, 'v')"))
                        .unwrap();
                }
                db.checkpoint().unwrap();
                let out = x.extract(&db).unwrap();
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
    fn a_segment_quarantined_after_the_extractor_passed_it_owes_nothing() {
        // The scrubber moves aside two archived segments the extractor has
        // read to their last record (the newest one included, which the
        // next segment's first record follows directly): no audit is owed.
        let db = setup("passed");
        let mut x = ResilientLogExtractor::new(extractor_dir("passed"), &["parts"]).unwrap();
        let mut s = db.session();
        for round in 0..3 {
            s.execute(&format!("INSERT INTO parts VALUES ({round}, 'v')"))
                .unwrap();
            db.checkpoint().unwrap();
            x.extract(&db).unwrap();
        }
        let archived = LogExtractor::shippable_segments(&db).unwrap();
        flip_middle_byte(&archived[0]);
        flip_middle_byte(archived.last().unwrap());
        let report = delta_engine::scrub_database(&db).unwrap();
        assert_eq!(report.wal_segments_corrupt, 2);

        s.execute("INSERT INTO parts VALUES (1000, 'new')").unwrap();
        let staged = x.stage(&db).unwrap();
        assert_eq!(ids_of(&staged.outcome.deltas[0]), [Value::Int(1000)]);
    }

    #[test]
    fn a_write_committed_while_stage_reads_is_shipped_by_the_next_round() {
        let db = setup("stage-race");
        let mut x = ResilientLogExtractor::new(extractor_dir("stage-race"), &["parts"]).unwrap();
        db.session()
            .execute("INSERT INTO parts VALUES (1, 'a')")
            .unwrap();
        let (held, is_held) = std::sync::mpsc::channel();
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut s = db.session();
                s.execute("BEGIN").unwrap();
                s.execute("INSERT INTO parts VALUES (2, 'b')").unwrap();
                held.send(()).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(100));
                s.execute("COMMIT").unwrap();
            })
        };
        is_held.recv().unwrap();
        // Row 2 is not committed, so the round's log tail ends before it,
        // and so does the watermark: the next round, coalesced or not,
        // ships it.
        let staged = x.stage(&db).unwrap();
        let mut shipped: Vec<Value> = staged.outcome.deltas.iter().flat_map(ids_of).collect();
        x.commit(staged).unwrap();
        writer.join().unwrap();

        let next = x.stage_coalesced(&db).unwrap();
        shipped.extend(next.outcome.deltas.iter().flat_map(ids_of));
        x.commit(next).unwrap();
        assert_eq!(shipped, [Value::Int(1), Value::Int(2)]);
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
