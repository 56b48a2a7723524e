//! Differential-snapshot delta extraction (§3.1.2).
//!
//! When snapshots (full dumps) are the only operation a source allows, the
//! delta is computed by *comparing* the previous snapshot with the current
//! one. Two algorithms, after Labio & Garcia-Molina's snapshot-differential
//! work the paper cites:
//!
//! * [`DiffAlgorithm::SortMerge`] — externally sort both snapshots by key,
//!   then merge. Exact, but pays the full sort.
//! * [`DiffAlgorithm::Window`] — stream both snapshots through bounded
//!   in-memory windows, matching rows by key. Cheaper (no sort) and exact
//!   whenever a row's displacement between the snapshots fits the window;
//!   beyond that it degrades — *soundly* — by reporting the row as a
//!   delete + insert pair instead of an update.
//!
//! Like the timestamp method, snapshots observe only final states and lose
//! transaction context; unlike it, they *can* observe deletions.
//!
//! The sort-merge is one pipeline of two steps. Run generation cuts each
//! snapshot into `run_size`-row chunks as it reads them, and
//! [`diff_snapshots_parallel`]'s workers sort and write one run per chunk
//! (the chunk index names the run, so the runs are the same at any worker
//! count). The diff is then one pass on the calling thread: a merge cursor
//! over each side's runs yields that side's rows in key order, and the two
//! cursors are merge-joined. No merged copy of either snapshot is written.
//! [`diff_snapshots`] is the one-worker call, and the records are the same
//! at any worker count. The window diff is sequential.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use delta_engine::db::Database;
use delta_engine::EngineResult;
use delta_storage::colbatch::{self, RowSink, RowSource};
use delta_storage::{Row, Schema, StorageError, StorageResult, Value};
use parking_lot::Mutex;

use crate::model::{DeltaOp, ValueDelta, ValueDeltaRecord};

/// Snapshot-differential algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffAlgorithm {
    /// External sort on the key, then merge-join the two snapshots.
    SortMerge {
        /// Rows per in-memory sort run.
        run_size: usize,
    },
    /// Streaming windowed matcher.
    Window {
        /// Maximum unmatched rows buffered per side.
        size: usize,
    },
}

/// Counters describing the work a diff performed (for the ablation bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Rows read from both snapshots.
    pub rows_read: u64,
    /// Rows written to temporary run files (sort-merge only).
    pub run_rows_written: u64,
    /// Key comparisons performed.
    pub comparisons: u64,
}

/// Take a snapshot of `table` at `path` (columnar CRC-framed row blocks, the
/// one snapshot format). Returns row count.
pub fn take_snapshot(db: &Database, table: &str, path: impl AsRef<Path>) -> EngineResult<u64> {
    delta_engine::util::snapshot_dump(db, table, path)
}

/// Compare `old_path` and `new_path` (snapshots of a table with `schema`,
/// keyed by the columns at `key_cols`) and return the value delta that turns
/// the old snapshot into the new one. This is [`diff_snapshots_parallel`]
/// with one worker.
pub fn diff_snapshots(
    table: &str,
    schema: &Schema,
    key_cols: &[usize],
    old_path: impl AsRef<Path>,
    new_path: impl AsRef<Path>,
    algo: DiffAlgorithm,
) -> StorageResult<(ValueDelta, DiffStats)> {
    diff_snapshots_parallel(table, schema, key_cols, old_path, new_path, algo, 1)
}

/// Like [`diff_snapshots`], with the sort-merge's run generation spread
/// across `workers` threads (`0` counts as one). The records do not depend
/// on `workers`. [`DiffAlgorithm::Window`] runs the one sequential window
/// diff at any worker count and emits its records in arrival order.
pub fn diff_snapshots_parallel(
    table: &str,
    schema: &Schema,
    key_cols: &[usize],
    old_path: impl AsRef<Path>,
    new_path: impl AsRef<Path>,
    algo: DiffAlgorithm,
    workers: usize,
) -> StorageResult<(ValueDelta, DiffStats)> {
    if key_cols.is_empty() {
        return Err(StorageError::SchemaMismatch(
            "snapshot diff requires at least one key column".into(),
        ));
    }
    let (old_path, new_path) = (old_path.as_ref(), new_path.as_ref());
    match algo {
        DiffAlgorithm::SortMerge { run_size } => sort_merge(
            table,
            schema,
            key_cols,
            old_path,
            new_path,
            run_size,
            workers.max(1),
        ),
        DiffAlgorithm::Window { size } => {
            window_diff(table, schema, key_cols, old_path, new_path, size)
        }
    }
}

pub(crate) fn key_of(row: &Row, key_cols: &[usize]) -> Vec<Value> {
    key_cols.iter().map(|&i| row.values()[i].clone()).collect()
}

pub(crate) fn cmp_keys(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        let o = x.total_cmp(y);
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

// ---------------------------------------------------------------------
// Sort-merge algorithm
// ---------------------------------------------------------------------

struct RunReader {
    src: RowSource,
    current: Option<(Vec<Value>, Row)>,
    key_cols: Vec<usize>,
}

impl RunReader {
    fn open(path: &Path, key_cols: &[usize]) -> StorageResult<RunReader> {
        let mut r = RunReader {
            src: RowSource::open(path)?,
            current: None,
            key_cols: key_cols.to_vec(),
        };
        r.advance()?;
        Ok(r)
    }

    fn advance(&mut self) -> StorageResult<()> {
        self.current = self
            .src
            .next_row()?
            .map(|row| (key_of(&row, &self.key_cols), row));
        Ok(())
    }
}

/// One side of the merge: a k-way merge over that side's sorted runs. The
/// current row is the one with the smallest key any run holds; ties go to
/// the lower run index, so equal keys come out in the order they were read.
struct MergeCursor {
    runs: Vec<RunReader>,
    best: Option<usize>,
}

impl MergeCursor {
    fn open(
        paths: &[PathBuf],
        key_cols: &[usize],
        stats: &mut DiffStats,
    ) -> StorageResult<MergeCursor> {
        let runs = paths
            .iter()
            .map(|p| RunReader::open(p, key_cols))
            .collect::<StorageResult<_>>()?;
        let mut cursor = MergeCursor { runs, best: None };
        cursor.pick(stats);
        Ok(cursor)
    }

    /// Key of the current row; `None` once every run is exhausted.
    fn key(&self) -> Option<&[Value]> {
        let run = self.best.and_then(|i| self.runs.get(i))?;
        run.current.as_ref().map(|(k, _)| k.as_slice())
    }

    /// Take the current row and move on to the next smallest key.
    fn pop(&mut self, stats: &mut DiffStats) -> StorageResult<Option<Row>> {
        let Some(run) = self.best.and_then(|i| self.runs.get_mut(i)) else {
            return Ok(None);
        };
        let row = run.current.take().map(|(_, row)| row);
        run.advance()?;
        self.pick(stats);
        Ok(row)
    }

    /// Point `best` at the run whose current key is smallest.
    fn pick(&mut self, stats: &mut DiffStats) {
        let mut best: Option<(usize, &[Value])> = None;
        for (i, run) in self.runs.iter().enumerate() {
            let Some((k, _)) = &run.current else {
                continue;
            };
            let better = match best {
                None => true,
                Some((_, bk)) => {
                    stats.comparisons += 1;
                    cmp_keys(k, bk) == Ordering::Less
                }
            };
            if better {
                best = Some((i, k));
            }
        }
        self.best = best.map(|(i, _)| i);
    }
}

/// Best-effort removal of a diff's temp files, however the diff ends.
struct TempFiles(Vec<PathBuf>);

impl Drop for TempFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn worker_panic() -> StorageError {
    StorageError::Corrupt("snapshot diff worker thread panicked".into())
}

/// Cut the snapshot at `path` into key-sorted runs of `run_size` rows,
/// appending their paths to `runs` in read order. The calling thread decodes
/// the snapshot into chunks; `workers` threads each sort a chunk and write it
/// as one run named by its chunk index, so the runs are the same at any
/// worker count. At most `2 * workers + 1` chunks are in memory at once. A
/// path joins `runs` before its file is created.
fn sorted_runs(
    path: &Path,
    key_cols: &[usize],
    run_size: usize,
    workers: usize,
    runs: &mut TempFiles,
    stats: &mut DiffStats,
) -> StorageResult<()> {
    let dir = path
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_else(std::env::temp_dir);
    let stem = path
        .file_name()
        .and_then(|s| s.to_str())
        .unwrap_or("snapshot");
    let first = runs.0.len();
    let (tx, rx) = std::sync::mpsc::sync_channel::<(PathBuf, Vec<Row>)>(workers);
    let rx = Arc::new(Mutex::new(rx));
    let mut read_err: Option<StorageError> = None;
    let per_worker: Vec<StorageResult<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                scope.spawn(move || -> StorageResult<u64> {
                    let mut written = 0u64;
                    loop {
                        // Hold the receiver lock only for the claim itself.
                        let msg = rx.lock().recv();
                        let Ok((run_path, chunk)) = msg else { break };
                        let mut run: Vec<(Vec<Value>, Row)> = chunk
                            .into_iter()
                            .map(|row| (key_of(&row, key_cols), row))
                            .collect();
                        run.sort_by(|a, b| cmp_keys(&a.0, &b.0));
                        let mut w = RowSink::create(&run_path, colbatch::DEFAULT_BLOCK_ROWS)?;
                        for (_, row) in &run {
                            w.write_row(row)?;
                        }
                        w.finish()?;
                        written += run.len() as u64;
                    }
                    Ok(written)
                })
            })
            .collect();
        // Only the workers hold the receiver, so once every one of them has
        // stopped (failed or panicked) a send fails instead of blocking.
        drop(rx);

        // Feed chunks; a read error stops the feed, and closing the channel
        // lets the workers drain and exit.
        let mut send = |chunk: Vec<Row>| {
            let run_path = dir.join(format!("{stem}.run{}", runs.0.len() - first));
            runs.0.push(run_path.clone());
            tx.send((run_path, chunk)).is_ok()
        };
        let mut feed = || -> StorageResult<()> {
            let mut src = RowSource::open(path)?;
            let mut chunk: Vec<Row> = Vec::with_capacity(run_size.min(1 << 16));
            while let Some(row) = src.next_row()? {
                stats.rows_read += 1;
                chunk.push(row);
                // A failed send leaves the workers' errors to report.
                if chunk.len() >= run_size && !send(std::mem::take(&mut chunk)) {
                    return Ok(());
                }
            }
            if !chunk.is_empty() {
                send(chunk);
            }
            Ok(())
        };
        read_err = feed().err();
        drop(tx);
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(worker_panic())))
            .collect()
    });

    let mut first_err = read_err;
    for r in per_worker {
        match r {
            Ok(n) => stats.run_rows_written += n,
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// Sort both snapshots into runs, then merge-join the two sides' runs in one
/// pass. Every run file is removed however the diff ends.
fn sort_merge(
    table: &str,
    schema: &Schema,
    key_cols: &[usize],
    old_path: &Path,
    new_path: &Path,
    run_size: usize,
    workers: usize,
) -> StorageResult<(ValueDelta, DiffStats)> {
    let mut stats = DiffStats::default();
    let mut runs = TempFiles(Vec::new());
    sorted_runs(old_path, key_cols, run_size, workers, &mut runs, &mut stats)?;
    let old_runs = runs.0.len();
    sorted_runs(new_path, key_cols, run_size, workers, &mut runs, &mut stats)?;
    let (old_runs, new_runs) = runs.0.split_at(old_runs);
    let mut old = MergeCursor::open(old_runs, key_cols, &mut stats)?;
    let mut new = MergeCursor::open(new_runs, key_cols, &mut stats)?;
    let mut delta = ValueDelta::new(table, schema.clone());
    merge_diff_streams(&mut old, &mut new, &mut delta.records, &mut stats)?;
    Ok((delta, stats))
}

/// Merge-join the two key-ordered sides, appending the delta records that
/// turn the old side into the new one.
fn merge_diff_streams(
    old: &mut MergeCursor,
    new: &mut MergeCursor,
    records: &mut Vec<ValueDeltaRecord>,
    stats: &mut DiffStats,
) -> StorageResult<()> {
    let record = |op, row| ValueDeltaRecord { op, txn: 0, row };
    loop {
        let order = match (old.key(), new.key()) {
            (None, None) => return Ok(()),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(ok), Some(nk)) => {
                stats.comparisons += 1;
                cmp_keys(ok, nk)
            }
        };
        match order {
            Ordering::Less => records.extend(old.pop(stats)?.map(|o| record(DeltaOp::Delete, o))),
            Ordering::Greater => {
                records.extend(new.pop(stats)?.map(|n| record(DeltaOp::Insert, n)))
            }
            Ordering::Equal => {
                if let (Some(o), Some(n)) = (old.pop(stats)?, new.pop(stats)?) {
                    if o != n {
                        records.push(record(DeltaOp::UpdateBefore, o));
                        records.push(record(DeltaOp::UpdateAfter, n));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Window algorithm
// ---------------------------------------------------------------------

fn window_diff(
    table: &str,
    schema: &Schema,
    key_cols: &[usize],
    old_path: &Path,
    new_path: &Path,
    window: usize,
) -> StorageResult<(ValueDelta, DiffStats)> {
    let mut stats = DiffStats::default();
    let mut delta = ValueDelta::new(table, schema.clone());
    let mut old_r = RunReader::open(old_path, key_cols)?;
    let mut new_r = RunReader::open(new_path, key_cols)?;

    // Unmatched rows buffered per side, oldest first.
    let mut old_buf: VecDeque<(Vec<Value>, Row)> = VecDeque::new();
    let mut new_buf: VecDeque<(Vec<Value>, Row)> = VecDeque::new();

    let emit_update_or_skip = |delta: &mut ValueDelta, o: Row, n: Row| {
        if o != n {
            delta.records.push(ValueDeltaRecord {
                op: DeltaOp::UpdateBefore,
                txn: 0,
                row: o,
            });
            delta.records.push(ValueDeltaRecord {
                op: DeltaOp::UpdateAfter,
                txn: 0,
                row: n,
            });
        }
    };

    loop {
        let old_done = old_r.current.is_none();
        let new_done = new_r.current.is_none();
        if old_done && new_done {
            break;
        }
        // Ingest one row from each side, matching against the opposite buffer.
        if let Some((k, row)) = old_r.current.take() {
            stats.rows_read += 1;
            old_r.advance()?;
            let hit = new_buf.iter().position(|(nk, _)| {
                stats.comparisons += 1;
                cmp_keys(nk, &k) == Ordering::Equal
            });
            match hit.and_then(|i| new_buf.remove(i)) {
                Some((_, nrow)) => emit_update_or_skip(&mut delta, row, nrow),
                None => old_buf.push_back((k, row)),
            }
        }
        if let Some((k, row)) = new_r.current.take() {
            stats.rows_read += 1;
            new_r.advance()?;
            let hit = old_buf.iter().position(|(ok, _)| {
                stats.comparisons += 1;
                cmp_keys(ok, &k) == Ordering::Equal
            });
            match hit.and_then(|i| old_buf.remove(i)) {
                Some((_, orow)) => emit_update_or_skip(&mut delta, orow, row),
                None => new_buf.push_back((k, row)),
            }
        }
        // Evict overflow: rows that scrolled out of the window become
        // deletes/inserts (the algorithm's documented degradation).
        while old_buf.len() > window {
            let Some((_, row)) = old_buf.pop_front() else {
                break;
            };
            delta.records.push(ValueDeltaRecord {
                op: DeltaOp::Delete,
                txn: 0,
                row,
            });
        }
        while new_buf.len() > window {
            let Some((_, row)) = new_buf.pop_front() else {
                break;
            };
            delta.records.push(ValueDeltaRecord {
                op: DeltaOp::Insert,
                txn: 0,
                row,
            });
        }
    }
    for (_, row) in old_buf {
        delta.records.push(ValueDeltaRecord {
            op: DeltaOp::Delete,
            txn: 0,
            row,
        });
    }
    for (_, row) in new_buf {
        delta.records.push(ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 0,
            row,
        });
    }
    Ok((delta, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_storage::Column;
    use delta_storage::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("name", DataType::Varchar),
        ])
        .unwrap()
    }

    fn write_snapshot(label: &str, rows: &[(i64, &str)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "delta-snap-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(label);
        let mut sink = RowSink::create(&p, colbatch::DEFAULT_BLOCK_ROWS).unwrap();
        for (id, name) in rows {
            sink.write_row(&Row::new(vec![Value::Int(*id), Value::Str((*name).into())]))
                .unwrap();
        }
        sink.finish().unwrap();
        p
    }

    fn ops_of(vd: &ValueDelta) -> Vec<(DeltaOp, i64)> {
        vd.records
            .iter()
            .map(|r| (r.op, r.row.values()[0].as_int().unwrap()))
            .collect()
    }

    fn check_exact(algo: DiffAlgorithm) {
        check_exact_with(algo, 1);
    }

    fn check_exact_with(algo: DiffAlgorithm, workers: usize) {
        let old = write_snapshot("old.snap", &[(1, "a"), (2, "b"), (3, "c"), (4, "d")]);
        let new = write_snapshot("new.snap", &[(2, "b"), (3, "c2"), (4, "d"), (5, "e")]);
        let (vd, stats) =
            diff_snapshots_parallel("t", &schema(), &[0], &old, &new, algo, workers).unwrap();
        let mut got = ops_of(&vd);
        got.sort_by_key(|(op, id)| (*id, format!("{op:?}")));
        assert_eq!(
            got,
            vec![
                (DeltaOp::Delete, 1),
                (DeltaOp::UpdateAfter, 3),
                (DeltaOp::UpdateBefore, 3),
                (DeltaOp::Insert, 5),
            ]
        );
        assert!(stats.comparisons > 0);
    }

    #[test]
    fn sort_merge_computes_exact_diff() {
        check_exact(DiffAlgorithm::SortMerge { run_size: 2 });
    }

    #[test]
    fn window_computes_exact_diff_when_window_suffices() {
        check_exact(DiffAlgorithm::Window { size: 16 });
    }

    #[test]
    fn identical_snapshots_give_empty_delta() {
        let old = write_snapshot("same1.snap", &[(1, "a"), (2, "b")]);
        let new = write_snapshot("same2.snap", &[(1, "a"), (2, "b")]);
        for algo in [
            DiffAlgorithm::SortMerge { run_size: 100 },
            DiffAlgorithm::Window { size: 4 },
        ] {
            let (vd, _) = diff_snapshots("t", &schema(), &[0], &old, &new, algo).unwrap();
            assert!(vd.is_empty(), "{algo:?}");
        }
    }

    /// 200 reversed-order rows vs. a version with evens below 20 dropped and
    /// 100..=105 changed — big enough to force real runs and partitions.
    fn big_fixture(prefix: &str) -> (PathBuf, PathBuf) {
        let old_rows: Vec<(i64, String)> = (0..200).map(|i| (i, format!("v{i}"))).collect();
        let mut shuffled = old_rows.clone();
        shuffled.reverse();
        let shuffled_refs: Vec<(i64, &str)> =
            shuffled.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let old = write_snapshot(&format!("{prefix}-old.snap"), &shuffled_refs);
        let new_rows: Vec<(i64, String)> = (0..200)
            .filter(|i| !(i % 2 == 0 && *i < 20))
            .map(|i| {
                if (100..=105).contains(&i) {
                    (i, format!("changed{i}"))
                } else {
                    (i, format!("v{i}"))
                }
            })
            .collect();
        let new_refs: Vec<(i64, &str)> = new_rows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let new = write_snapshot(&format!("{prefix}-new.snap"), &new_refs);
        (old, new)
    }

    #[test]
    fn sort_merge_handles_unsorted_input_with_tiny_runs() {
        // Shuffled snapshots force real run generation and merging.
        let (old, new) = big_fixture("big");
        let (vd, stats) = diff_snapshots(
            "t",
            &schema(),
            &[0],
            &old,
            &new,
            DiffAlgorithm::SortMerge { run_size: 16 },
        )
        .unwrap();
        let deletes = vd
            .records
            .iter()
            .filter(|r| r.op == DeltaOp::Delete)
            .count();
        let updates = vd
            .records
            .iter()
            .filter(|r| r.op == DeltaOp::UpdateBefore)
            .count();
        assert_eq!(deletes, 10);
        assert_eq!(updates, 6);
        assert!(stats.run_rows_written >= 390, "external runs were used");
    }

    #[test]
    fn window_degrades_to_delete_insert_beyond_displacement() {
        // With a zero-size window no unmatched row can wait for its partner,
        // so the displaced row 1 cannot be recognized as an update.
        let old = write_snapshot("w-old.snap", &[(1, "a"), (2, "b"), (3, "c"), (4, "d")]);
        let new = write_snapshot("w-new.snap", &[(2, "b"), (3, "c"), (4, "d"), (1, "a2")]);
        let (vd, _) = diff_snapshots(
            "t",
            &schema(),
            &[0],
            &old,
            &new,
            DiffAlgorithm::Window { size: 0 },
        )
        .unwrap();
        let got = ops_of(&vd);
        // Sound but degraded: 1 reported as delete + insert, never silently
        // dropped or misreported as unchanged.
        assert!(got.contains(&(DeltaOp::Delete, 1)));
        assert!(got.contains(&(DeltaOp::Insert, 1)));
        assert!(!got
            .iter()
            .any(|(op, id)| *id == 1 && matches!(op, DeltaOp::UpdateBefore)));
    }

    #[test]
    fn empty_key_columns_rejected() {
        let old = write_snapshot("k-old.snap", &[(1, "a")]);
        let new = write_snapshot("k-new.snap", &[(1, "a")]);
        assert!(diff_snapshots(
            "t",
            &schema(),
            &[],
            &old,
            &new,
            DiffAlgorithm::Window { size: 1 }
        )
        .is_err());
    }

    #[test]
    fn snapshot_of_live_table() {
        let db = delta_engine::db::open_temp("snapdb").unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR)")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        let p1 = db.options().dir.join("s1.snap");
        take_snapshot(&db, "t", &p1).unwrap();
        s.execute("UPDATE t SET name = 'bb' WHERE id = 2").unwrap();
        s.execute("DELETE FROM t WHERE id = 1").unwrap();
        s.execute("INSERT INTO t VALUES (3, 'c')").unwrap();
        let p2 = db.options().dir.join("s2.snap");
        take_snapshot(&db, "t", &p2).unwrap();
        let (vd, _) = diff_snapshots(
            "t",
            &db.table("t").unwrap().schema,
            &[0],
            &p1,
            &p2,
            DiffAlgorithm::SortMerge { run_size: 64 },
        )
        .unwrap();
        let got = ops_of(&vd);
        assert!(got.contains(&(DeltaOp::Delete, 1)));
        assert!(got.contains(&(DeltaOp::UpdateBefore, 2)));
        assert!(got.contains(&(DeltaOp::UpdateAfter, 2)));
        assert!(got.contains(&(DeltaOp::Insert, 3)));
    }

    #[test]
    fn parallel_sort_merge_is_identical_to_sequential() {
        let (old, new) = big_fixture("psm");
        let algo = DiffAlgorithm::SortMerge { run_size: 16 };
        let (seq_vd, seq_stats) = diff_snapshots("t", &schema(), &[0], &old, &new, algo).unwrap();
        for workers in [2, 3, 4, 8] {
            let (par_vd, par_stats) =
                diff_snapshots_parallel("t", &schema(), &[0], &old, &new, algo, workers).unwrap();
            assert_eq!(par_vd, seq_vd, "workers={workers}");
            // Parallel run generation reads and writes exactly what the
            // sequential pass does (chunk index == run index).
            assert_eq!(par_stats.rows_read, seq_stats.rows_read);
            assert_eq!(par_stats.run_rows_written, seq_stats.run_rows_written);
        }
    }

    #[test]
    fn parallel_diff_passes_exactness_checks() {
        // A worker count that is neither a divisor of the row count nor a
        // power of two, for both algorithms.
        check_exact_with(DiffAlgorithm::SortMerge { run_size: 2 }, 3);
        check_exact_with(DiffAlgorithm::Window { size: 16 }, 3);
    }

    #[test]
    fn parallel_identical_snapshots_give_empty_delta() {
        let old = write_snapshot("psame1.snap", &[(1, "a"), (2, "b")]);
        let new = write_snapshot("psame2.snap", &[(1, "a"), (2, "b")]);
        for algo in [
            DiffAlgorithm::SortMerge { run_size: 100 },
            DiffAlgorithm::Window { size: 4 },
        ] {
            let (vd, _) =
                diff_snapshots_parallel("t", &schema(), &[0], &old, &new, algo, 4).unwrap();
            assert!(vd.is_empty(), "{algo:?}");
        }
    }

    #[test]
    fn parallel_empty_key_columns_rejected() {
        let old = write_snapshot("pk-old.snap", &[(1, "a")]);
        let new = write_snapshot("pk-new.snap", &[(1, "a")]);
        assert!(diff_snapshots_parallel(
            "t",
            &schema(),
            &[],
            &old,
            &new,
            DiffAlgorithm::Window { size: 1 },
            4
        )
        .is_err());
    }

    /// Files next to `snap` whose names start with `prefix` and look like a
    /// diff's temp files: runs (`.run<i>`), and the merged (`.sorted`) and
    /// partition (`-part<i>`) files no diff may write.
    fn temp_files_beside(snap: &Path, prefix: &str) -> Vec<String> {
        std::fs::read_dir(snap.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(prefix))
            .filter(|name| {
                name.contains(".run") || name.contains(".sorted") || name.contains("-part")
            })
            .collect()
    }

    #[test]
    fn parallel_diff_cleans_up_temp_files() {
        let (old, new) = big_fixture("clean");
        for algo in [
            DiffAlgorithm::SortMerge { run_size: 16 },
            DiffAlgorithm::Window { size: 32 },
        ] {
            diff_snapshots_parallel("t", &schema(), &[0], &old, &new, algo, 4).unwrap();
        }
        assert_eq!(temp_files_beside(&old, "clean-"), Vec::<String>::new());
    }

    #[test]
    fn a_run_that_cannot_be_written_fails_the_diff() {
        // A directory holds the first run's name, so the worker that takes
        // chunk 0 fails. With one worker nobody is left to receive: the
        // reader must stop rather than block on the full channel.
        let (old, new) = big_fixture("blocked");
        std::fs::create_dir_all(old.with_file_name("blocked-old.snap.run0")).unwrap();
        let algo = DiffAlgorithm::SortMerge { run_size: 16 };
        for workers in [1, 2] {
            let r = diff_snapshots_parallel("t", &schema(), &[0], &old, &new, algo, workers);
            assert!(
                matches!(r, Err(StorageError::Io(_))),
                "{workers} workers: {r:?}"
            );
        }
        assert_eq!(
            temp_files_beside(&old, "blocked-"),
            vec!["blocked-old.snap.run0".to_string()]
        );
    }

    /// `good` rewritten in 8-row blocks with its last three bytes cut off,
    /// so a reader meets the damage only after it has read most rows.
    fn cut_copy(good: &Path, label: &str) -> PathBuf {
        let bad = good.with_file_name(label);
        let mut src = RowSource::open(good).unwrap();
        let mut sink = RowSink::create(&bad, 8).unwrap();
        while let Some(row) = src.next_row().unwrap() {
            sink.write_row(&row).unwrap();
        }
        sink.finish().unwrap();
        let bytes = std::fs::read(&bad).unwrap();
        std::fs::write(&bad, &bytes[..bytes.len() - 3]).unwrap();
        bad
    }

    #[test]
    fn failed_diff_leaves_no_temp_file() {
        let (old, new) = big_fixture("cut");
        let bad_old = cut_copy(&old, "cut-bad-old.snap");
        let bad_new = cut_copy(&new, "cut-bad-new.snap");
        for workers in [1, 2] {
            for algo in [
                DiffAlgorithm::SortMerge { run_size: 16 },
                DiffAlgorithm::Window { size: 32 },
            ] {
                for (o, n) in [(&bad_old, &new), (&old, &bad_new)] {
                    let r = diff_snapshots_parallel("t", &schema(), &[0], o, n, algo, workers);
                    assert!(
                        matches!(r, Err(StorageError::Corrupt(_))),
                        "{algo:?} at {workers} workers: {r:?}"
                    );
                    assert_eq!(
                        temp_files_beside(&old, "cut-"),
                        Vec::<String>::new(),
                        "{algo:?} at {workers} workers, {o:?} vs {n:?}"
                    );
                }
            }
        }
    }
}
