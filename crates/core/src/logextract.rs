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
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasher;
use std::ops::Range;
use std::path::{Path, PathBuf};

use delta_engine::db::Database;
use delta_engine::wal::{LogRecord, Lsn};
use delta_engine::{EngineError, EngineResult};
use delta_storage::colbatch::{RowSink, RowSource, DEFAULT_BLOCK_ROWS};
use delta_storage::{Row, StorageError};

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
        self.peek_tail(db).map(|tail| (tail.deltas, tail.watermark))
    }

    /// [`LogExtractor::peek`], plus the wanted tables whose `DropTable` lies
    /// in the tail.
    fn peek_tail(&self, db: &Database) -> EngineResult<Tail> {
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
        let mut dropped = BTreeSet::new();
        let high = db.wal().read_committed(self.watermark + 1, |unit| {
            for (_, rec) in unit {
                if let LogRecord::DropTable { name } = rec {
                    // Nothing mirrors a dropped table: its earlier rows go,
                    // and a later namesake starts from its own `CreateTable`.
                    per_table.remove(name);
                    if self.wants(name) {
                        dropped.insert(name.clone());
                    }
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
        Ok(Tail {
            deltas: per_table.into_values().filter(|v| !v.is_empty()).collect(),
            watermark: self.watermark.max(high),
            dropped,
        })
    }

    /// Paths of archived segments ready to ship (the file-level transport of
    /// classic log shipping).
    pub fn shippable_segments(db: &Database) -> EngineResult<Vec<PathBuf>> {
        db.wal().archived_segments()
    }
}

/// One read of the committed log tail.
struct Tail {
    deltas: Vec<ValueDelta>,
    watermark: Lsn,
    /// Wanted tables with a `DropTable` in the tail; their deltas hold only
    /// what followed the last drop.
    dropped: BTreeSet<String>,
}

/// A signed multiset of stored row images, keyed by their bytes
/// ([`Row::to_bytes`]). The images sit back to back in one buffer rather
/// than in one allocation each: a journal lives from one fold to the next
/// and may hold as many images as its baseline file has rows, and that many
/// small blocks kept alive among the source's own allocations slowed the
/// source's statements (DESIGN.md §21.3).
#[derive(Debug, Default)]
struct Journal {
    /// Each distinct image added since the journal was rebuilt, once.
    bytes: Vec<u8>,
    /// One per distinct image, in the order first added.
    images: Vec<Image>,
    /// Hash of an image's bytes → the last image added with that hash.
    heads: HashMap<u64, usize>,
    /// Images whose count is not zero.
    counted: usize,
    hasher: RandomState,
}

#[derive(Debug)]
struct Image {
    /// Where its bytes sit in [`Journal::bytes`].
    span: Range<usize>,
    /// Zero once its additions cancelled out.
    n: i64,
    /// The image added before it with the same hash.
    next: Option<usize>,
}

impl Journal {
    fn find(&self, hash: u64, image: &[u8]) -> Option<usize> {
        let mut at = self.heads.get(&hash).copied();
        while let Some(i) = at {
            let entry = self.images.get(i)?;
            if self.bytes.get(entry.span.clone()) == Some(image) {
                return Some(i);
            }
            at = entry.next;
        }
        None
    }

    /// Add `n` to the count of `image`.
    fn add(&mut self, image: &[u8], n: i64) {
        let hash = self.hasher.hash_one(image);
        if let Some(entry) = self.find(hash, image).and_then(|i| self.images.get_mut(i)) {
            let was = entry.n;
            entry.n += n;
            self.counted = self.counted + usize::from(entry.n != 0) - usize::from(was != 0);
            return;
        }
        let start = self.bytes.len();
        self.bytes.extend_from_slice(image);
        let next = self.heads.insert(hash, self.images.len());
        self.images.push(Image {
            span: start..self.bytes.len(),
            n,
            next,
        });
        self.counted += usize::from(n != 0);
    }

    /// The count of `image`.
    fn count(&self, image: &[u8]) -> i64 {
        let hash = self.hasher.hash_one(image);
        self.find(hash, image)
            .and_then(|i| self.images.get(i))
            .map_or(0, |entry| entry.n)
    }

    /// Add `delta`'s images: `+1` per `Insert` / `UpdateAfter`, `−1` per
    /// `UpdateBefore` / `Delete`. Cancelled images keep their place until
    /// they outnumber the counted ones; then the journal is rebuilt from
    /// the counted ones, so it never takes more than twice their room.
    fn add_delta(&mut self, delta: &ValueDelta) {
        let mut image = Vec::new();
        for r in &delta.records {
            let n = match r.op {
                DeltaOp::Insert | DeltaOp::UpdateAfter => 1,
                DeltaOp::UpdateBefore | DeltaOp::Delete => -1,
            };
            image.clear();
            r.row.encode(&mut image);
            self.add(&image, n);
        }
        if self.images.len() > 2 * self.counted {
            let old = std::mem::take(self);
            for (image, n) in old.counts() {
                self.add(image, n);
            }
        }
    }

    /// Images whose count is not zero.
    fn len(&self) -> usize {
        self.counted
    }

    fn is_empty(&self) -> bool {
        self.counted == 0
    }

    /// The images whose count is not zero, with their counts.
    fn counts(&self) -> impl Iterator<Item = (&[u8], i64)> + '_ {
        self.images
            .iter()
            .filter(|entry| entry.n != 0)
            .filter_map(|entry| Some((self.bytes.get(entry.span.clone())?, entry.n)))
    }
}

/// The committed baseline of one tracked table: the `<table>.baseline` file
/// and the journal of every committed round since it was written. Their sum
/// is the table at the watermark.
#[derive(Debug)]
struct Baseline {
    /// Rows in the baseline file.
    rows: u64,
    journal: Journal,
}

/// What committing a staged round does to one tracked table's baseline.
#[derive(Debug)]
enum Advance {
    /// Add the table's images in the round's deltas to the journal.
    Journal,
    /// Rename the `.baseline.staged` sibling, holding this many rows, into
    /// place and clear the journal.
    Replace(u64),
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
/// to publish, and the watermark advance and the baselines' advance are
/// recorded but not applied. On the log path the baselines advance by the
/// round's own images; a diff round, or a table whose journal outgrew its
/// baseline file, has a new baseline file waiting in its `*.baseline.staged`
/// sibling. Publish the deltas, then [`ResilientLogExtractor::commit`]
/// (advance watermark and baselines) or [`ResilientLogExtractor::abort`]
/// (delete the staged files, leave the extractor untouched so the next round
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
    /// Per tracked table the round moves, what commit does to its baseline.
    advance: Vec<(String, Advance)>,
}

/// A [`LogExtractor`] that *degrades instead of wedging*: when the redo log
/// turns out to be unreadable (a corrupt archived segment), extraction falls
/// back to per-table snapshot differencing against the baselines at the
/// watermark, quarantines the corrupt segment, and fast-forwards the log
/// watermark past the damage. The delta stream stays complete — it just
/// temporarily loses transaction context, exactly the trade-off of the
/// paper's snapshot method (§3.1.2) versus the log method (§3.1.4).
///
/// The baseline of a tracked table at the watermark is its baseline file
/// ⊕ an in-memory journal: each committed log round adds its own images
/// (`+1` inserted or after, `−1` deleted or before), so a log round reads
/// the log tail and nothing else. The file is rewritten only by a diff round
/// (a fresh snapshot), by a round that drops the table (empty, plus what
/// followed the drop), or by a round that would leave the journal holding
/// more entries than the file has rows (one streaming fold of file, journal
/// and round) — so a journal never outgrows its file, and the file work is
/// amortised O(1) per journaled row.
///
/// The log path needs no quiescing: the journal comes from the same log
/// records the round ships. A diff round snapshots the tables and reads the
/// watermark after the snapshot, so writes to the tracked tables must be
/// quiesced across `stage_coalesced` and across a round that degrades.
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
    /// Per tracked table, filled by `prime`.
    baselines: BTreeMap<String, Baseline>,
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
            baselines: BTreeMap::new(),
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
        let mut baselines = BTreeMap::new();
        for t in &self.tables {
            let rows = crate::snapshot::take_snapshot(db, t, self.baseline_path(t))?;
            baselines.insert(
                t.clone(),
                Baseline {
                    rows,
                    journal: Journal::default(),
                },
            );
        }
        self.baselines = baselines;
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
    /// is unreadable) and record — but do not apply — the watermark advance
    /// and the baselines' advance. On the log path that is the log tail and
    /// nothing else, unless a table's journal outgrows its baseline file or
    /// the round drops a tracked table (see [`ResilientLogExtractor`]).
    pub fn stage(&mut self, db: &Database) -> EngineResult<StagedExtract> {
        if self.diff_owed {
            // A previous round quarantined segments and then aborted; the
            // log now has a silent gap, so the op path would under-extract.
            return self.stage_diff(db, ResilientExtract::default());
        }
        match self.inner.peek_tail(db) {
            Ok(tail) => {
                let advance = self.advance_by_log(&tail)?;
                Ok(StagedExtract {
                    outcome: ResilientExtract {
                        deltas: tail.deltas,
                        ..Default::default()
                    },
                    coalesced: false,
                    new_watermark: tail.watermark,
                    advance,
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

    /// Apply a staged round: advance each baseline (add the round's images
    /// to the journal, or rename a staged baseline file into place and clear
    /// the journal) and the watermark. Call only after the round's deltas
    /// have been durably published.
    pub fn commit(&mut self, staged: StagedExtract) -> EngineResult<ResilientExtract> {
        for (t, step) in staged.advance {
            let (from, to) = (self.staged_baseline_path(&t), self.baseline_path(&t));
            let Some(base) = self.baselines.get_mut(&t) else {
                continue;
            };
            match step {
                Advance::Journal => {
                    for delta in staged.outcome.deltas.iter().filter(|d| d.table == t) {
                        base.journal.add_delta(delta);
                    }
                }
                Advance::Replace(rows) => {
                    std::fs::rename(from, to)?;
                    *base = Baseline {
                        rows,
                        journal: Journal::default(),
                    };
                }
            }
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
        self.discard(&staged.advance);
    }

    /// Write tracked `table` as of the watermark — its baseline file ⊕ its
    /// journal — to `path` as a snapshot file, in one streaming pass.
    /// Returns the rows written. This is the old side of a diff round.
    pub fn write_baseline(&self, table: &str, path: impl AsRef<Path>) -> EngineResult<u64> {
        self.fold(table, false, None, path.as_ref())
    }

    fn staged_baseline_path(&self, table: &str) -> PathBuf {
        self.baseline_dir.join(format!("{table}.baseline.staged"))
    }

    /// Delete the staged baseline files `advance` refers to.
    fn discard(&self, advance: &[(String, Advance)]) {
        for (t, step) in advance {
            if let Advance::Replace(_) = step {
                let _ = std::fs::remove_file(self.staged_baseline_path(t));
            }
        }
    }

    /// How a log round advances each tracked table it moves: by its own
    /// images, added to the journal at commit — or, when the journal's
    /// entries plus the round's images could outnumber the baseline file's
    /// rows, by folding file, journal and round into the `.baseline.staged`
    /// sibling, so that a journal never holds more entries than its file has
    /// rows. A table the round drops starts over from an empty baseline
    /// with the round's post-create images as its journal, staged as a fold
    /// over nothing: the reset needs a new file anyway, and any journal
    /// outgrows an empty one. Nothing before `prime`.
    fn advance_by_log(&self, tail: &Tail) -> EngineResult<Vec<(String, Advance)>> {
        let mut advance = Vec::new();
        if !self.primed {
            return Ok(advance);
        }
        for (t, base) in &self.baselines {
            let dropped = tail.dropped.contains(t);
            let round = tail.deltas.iter().find(|d| &d.table == t);
            let images = round.map_or(0, ValueDelta::len);
            if images == 0 && !dropped {
                continue;
            }
            let step = if dropped || (base.journal.len() + images) as u64 > base.rows {
                match self.fold(t, dropped, round, &self.staged_baseline_path(t)) {
                    Ok(rows) => Advance::Replace(rows),
                    Err(e) => {
                        self.discard(&advance);
                        return Err(e);
                    }
                }
            } else {
                Advance::Journal
            };
            advance.push((t.clone(), step));
        }
        Ok(advance)
    }

    /// Stream `table`'s baseline file through its journal and `round` into a
    /// snapshot file at `out` — or only `round`, over an empty baseline,
    /// when `from_empty`. A file row is dropped for each `−1` its image
    /// carries; an image left at `+n` is written `n` times after the file's
    /// rows, in byte order. Returns the rows written; `out` is removed on
    /// failure.
    fn fold(
        &self,
        table: &str,
        from_empty: bool,
        round: Option<&ValueDelta>,
        out: &Path,
    ) -> EngineResult<u64> {
        let base = self.baselines.get(table).ok_or_else(|| {
            EngineError::Invalid(format!("{table} has no primed baseline to fold"))
        })?;
        let mut net = Journal::default();
        if !from_empty {
            for (image, n) in base.journal.counts() {
                net.add(image, n);
            }
        }
        if let Some(delta) = round {
            net.add_delta(delta);
        }
        let written = (|| -> EngineResult<u64> {
            let mut sink = RowSink::create(out, DEFAULT_BLOCK_ROWS)?;
            let mut rows = 0u64;
            if !from_empty {
                let mut file = RowSource::open(&self.baseline_path(table))?;
                let mut image = Vec::new();
                while let Some(row) = file.next_row()? {
                    image.clear();
                    row.encode(&mut image);
                    if net.count(&image) < 0 {
                        net.add(&image, 1);
                        continue;
                    }
                    sink.write_row(&row)?;
                    rows += 1;
                }
            }
            let mut left: Vec<_> = net.counts().collect();
            left.sort_unstable();
            for (image, n) in left {
                if n < 0 {
                    return Err(EngineError::Storage(StorageError::Corrupt(format!(
                        "{table}: the journal removes a row its baseline file does not hold"
                    ))));
                }
                let row = Row::from_bytes(image)?;
                for _ in 0..n {
                    sink.write_row(&row)?;
                }
                rows += n as u64;
            }
            sink.finish()?;
            Ok(rows)
        })();
        if written.is_err() {
            let _ = std::fs::remove_file(out);
        }
        written
    }

    /// The snapshot-diff body shared by degradation and coalescing: stage a
    /// fresh snapshot of each table, diff it against the baseline at the
    /// watermark, and record a watermark advance to the log head (the diffs
    /// cover everything up to it).
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
        let mut advance = Vec::with_capacity(self.tables.len());
        for t in &self.tables {
            match self.diff_one(db, t) {
                Ok((vd, rows)) => {
                    advance.push((t.clone(), Advance::Replace(rows)));
                    out.degraded.push(t.clone());
                    if !vd.is_empty() {
                        out.deltas.push(vd);
                    }
                }
                Err(e) => {
                    self.discard(&advance);
                    return Err(e);
                }
            }
        }
        // Everything up to the log head is covered by the diffs.
        Ok(StagedExtract {
            outcome: out,
            coalesced: true,
            new_watermark: db.wal().next_lsn().saturating_sub(1),
            advance,
        })
    }

    /// Diff `table` at the watermark against a fresh snapshot staged in its
    /// `.baseline.staged` sibling; returns the delta and the snapshot's row
    /// count, and leaves no file behind on failure. With nothing journaled
    /// the baseline file is the old side as it is; otherwise the fold of the
    /// two goes to a `.baseline.folded` scratch file first.
    fn diff_one(&self, db: &Database, table: &str) -> EngineResult<(ValueDelta, u64)> {
        let meta = db.table(table)?;
        let key_cols = meta.schema.primary_key_indices();
        let folded = self.baseline_dir.join(format!("{table}.baseline.folded"));
        let journaled = self
            .baselines
            .get(table)
            .is_some_and(|base| !base.journal.is_empty());
        let old = if journaled {
            self.write_baseline(table, &folded)?;
            folded.clone()
        } else {
            self.baseline_path(table)
        };
        let current = self.staged_baseline_path(table);
        let diffed = crate::snapshot::take_snapshot(db, table, &current).and_then(|rows| {
            let (vd, _stats) = crate::snapshot::diff_snapshots(
                table,
                &meta.schema,
                &key_cols,
                &old,
                &current,
                crate::snapshot::DiffAlgorithm::SortMerge { run_size: 1024 },
            )?;
            Ok((vd, rows))
        });
        let _ = std::fs::remove_file(&folded);
        if diffed.is_err() {
            let _ = std::fs::remove_file(&current);
        }
        diffed
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
    fn a_journal_rebuilt_without_its_cancelled_images_keeps_every_count() {
        use delta_storage::{Column, DataType, Schema};
        let schema = Schema::new(vec![Column::new("id", DataType::Int).primary_key()]).unwrap();
        let delta = |records: &[(DeltaOp, i64)]| {
            let mut vd = ValueDelta::new("t", schema.clone());
            for &(op, id) in records {
                vd.records.push(ValueDeltaRecord {
                    op,
                    txn: 1,
                    row: Row::new(vec![Value::Int(id)]),
                });
            }
            vd
        };
        let mut journal = Journal::default();
        // Four rows left the file, four entered it.
        let kept: Vec<_> = (0..4)
            .flat_map(|i| [(DeltaOp::Delete, i), (DeltaOp::Insert, 100 + i)])
            .collect();
        journal.add_delta(&delta(&kept));
        // Twenty rows came and went: cancelled images outnumber counted ones.
        let churn: Vec<_> = (200..220)
            .flat_map(|i| [(DeltaOp::Insert, i), (DeltaOp::Delete, i)])
            .collect();
        journal.add_delta(&delta(&churn));
        assert_eq!(journal.images.len(), 8, "rebuilt from the counted images");
        let mut counts: Vec<(Vec<u8>, i64)> =
            journal.counts().map(|(b, n)| (b.to_vec(), n)).collect();
        counts.sort();
        let mut expected: Vec<(Vec<u8>, i64)> = (0..4)
            .flat_map(|i| {
                [
                    (Row::new(vec![Value::Int(i)]).to_bytes(), -1),
                    (Row::new(vec![Value::Int(100 + i)]).to_bytes(), 1),
                ]
            })
            .collect();
        expected.sort();
        assert_eq!(counts, expected);
        assert_eq!(journal.len(), 8);
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

    /// Every file under `dir`: name, modification time and bytes.
    fn stamp_dir(dir: &std::path::Path) -> Vec<(String, std::time::SystemTime, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, modified, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// The rows of a snapshot file, sorted.
    fn sorted_rows(path: &std::path::Path) -> Vec<Vec<u8>> {
        let mut src = RowSource::open(path).unwrap();
        let mut rows = Vec::new();
        while let Some(row) = src.next_row().unwrap() {
            rows.push(row.to_bytes());
        }
        rows.sort();
        rows
    }

    /// The tracked table at the watermark, as the extractor's baseline and
    /// journal describe it, equals a snapshot of the (quiescent) table.
    fn assert_baseline_is_the_table(x: &ResilientLogExtractor, db: &Database, table: &str) {
        let (ours, theirs) = (
            x.baseline_dir.join("check.ours"),
            x.baseline_dir.join("check.theirs"),
        );
        x.write_baseline(table, &ours).unwrap();
        crate::snapshot::take_snapshot(db, table, &theirs).unwrap();
        assert_eq!(sorted_rows(&ours), sorted_rows(&theirs), "{table}");
        std::fs::remove_file(ours).unwrap();
        std::fs::remove_file(theirs).unwrap();
    }

    #[test]
    fn log_rounds_leave_the_baseline_files_alone_until_the_journal_outgrows_them() {
        let db = setup("journal-bound");
        let mut s = db.session();
        s.execute("CREATE TABLE orders (id INT PRIMARY KEY)")
            .unwrap();
        let dir = baseline_dir("journal-bound");
        let mut x = ResilientLogExtractor::new(&dir, &["orders", "parts"]).unwrap();
        x.prime(&db).unwrap();
        // Ten inserts against an empty file: the first round already
        // crosses the bound, so both files are rewritten once.
        for i in 0..10 {
            s.execute(&format!("INSERT INTO parts VALUES ({i}, 'v')"))
                .unwrap();
        }
        s.execute("INSERT INTO orders VALUES (1)").unwrap();
        x.extract(&db).unwrap();
        assert_eq!(sorted_rows(&dir.join("parts.baseline")).len(), 10);
        assert_eq!(sorted_rows(&dir.join("orders.baseline")).len(), 1);

        // One row updated per round carries two images (−old, +new): five
        // rounds journal 10 entries against 10 rows, the sixth would cross.
        let mut rewrites = Vec::new();
        for (round, id) in [0, 1, 2, 3, 4, 5, 6, 7, 8].into_iter().enumerate() {
            let before = stamp_dir(&dir);
            s.execute(&format!(
                "UPDATE parts SET name = 'r{round}' WHERE id = {id}"
            ))
            .unwrap();
            let staged = x.stage(&db).unwrap();
            assert!(!staged.coalesced);
            x.commit(staged).unwrap();
            let after = stamp_dir(&dir);
            if after != before {
                rewrites.push(round);
                let changed: Vec<_> = after
                    .iter()
                    .filter(|f| !before.contains(f))
                    .map(|f| f.0.as_str())
                    .collect();
                assert_eq!(changed, ["parts.baseline"], "round {round}");
            }
            assert_baseline_is_the_table(&x, &db, "parts");
        }
        assert_eq!(
            rewrites,
            [5],
            "the fold fires once, when the bound is crossed"
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
    fn a_write_committed_while_stage_snapshots_is_not_lost_by_a_later_diff() {
        let db = setup("stage-race");
        let mut x = ResilientLogExtractor::new(baseline_dir("stage-race"), &["parts"]).unwrap();
        x.prime(&db).unwrap();
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
        // Row 2 is not committed, so the round's log tail ends before it. A
        // stage that snapshotted the table here would wait out the writer's
        // X lock and take row 2 into a baseline whose watermark does not
        // cover it — and no later round would ship row 2. (The writer's
        // sleep only gives such a stage something to wait for; what is
        // asserted below does not depend on it.)
        let staged = x.stage(&db).unwrap();
        let mut shipped: Vec<Value> = staged.outcome.deltas.iter().flat_map(ids_of).collect();
        x.commit(staged).unwrap();
        writer.join().unwrap();

        let diff = x.stage_coalesced(&db).unwrap();
        shipped.extend(diff.outcome.deltas.iter().flat_map(ids_of));
        x.commit(diff).unwrap();
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
