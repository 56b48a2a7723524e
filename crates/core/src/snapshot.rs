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
//! Both algorithms also come in a parallel flavour,
//! [`diff_snapshots_parallel`]: run generation in the external sort fans out
//! across worker threads (one sorted run per chunk, chunk index doubling as
//! run index so the run files stay byte-identical to a sequential sort), and
//! the diff itself consumes key-hash partitions of the two snapshots
//! concurrently, merging the per-partition deltas back in key order. The
//! sort-merge output is record-for-record identical to the sequential path;
//! the sharded buffer pool underneath lets the scans that *feed* these
//! snapshots proceed concurrently too.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

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
/// the old snapshot into the new one.
pub fn diff_snapshots(
    table: &str,
    schema: &Schema,
    key_cols: &[usize],
    old_path: impl AsRef<Path>,
    new_path: impl AsRef<Path>,
    algo: DiffAlgorithm,
) -> StorageResult<(ValueDelta, DiffStats)> {
    if key_cols.is_empty() {
        return Err(StorageError::SchemaMismatch(
            "snapshot diff requires at least one key column".into(),
        ));
    }
    match algo {
        DiffAlgorithm::SortMerge { run_size } => sort_merge_diff(
            table,
            schema,
            key_cols,
            old_path.as_ref(),
            new_path.as_ref(),
            run_size,
        ),
        DiffAlgorithm::Window { size } => window_diff(
            table,
            schema,
            key_cols,
            old_path.as_ref(),
            new_path.as_ref(),
            size,
        ),
    }
}

/// Like [`diff_snapshots`], but spread across `workers` threads: run
/// generation fans out one sorted run per worker chunk, and the diff itself
/// consumes key-hash partitions of the two snapshots concurrently, merging
/// the per-partition deltas back in key order.
///
/// `workers <= 1` is exactly the sequential [`diff_snapshots`]. For
/// [`DiffAlgorithm::SortMerge`] the parallel output is record-for-record
/// identical to the sequential diff. For [`DiffAlgorithm::Window`] the
/// records come out key-ordered rather than in arrival order; each partition
/// windows only its own keys, so a displacement the sequential window
/// absorbs is absorbed here too.
pub fn diff_snapshots_parallel(
    table: &str,
    schema: &Schema,
    key_cols: &[usize],
    old_path: impl AsRef<Path>,
    new_path: impl AsRef<Path>,
    algo: DiffAlgorithm,
    workers: usize,
) -> StorageResult<(ValueDelta, DiffStats)> {
    if workers <= 1 {
        return diff_snapshots(table, schema, key_cols, old_path, new_path, algo);
    }
    if key_cols.is_empty() {
        return Err(StorageError::SchemaMismatch(
            "snapshot diff requires at least one key column".into(),
        ));
    }
    match algo {
        DiffAlgorithm::SortMerge { run_size } => parallel_sort_merge(
            table,
            schema,
            key_cols,
            old_path.as_ref(),
            new_path.as_ref(),
            run_size,
            workers,
        ),
        DiffAlgorithm::Window { size } => parallel_window(
            table,
            schema,
            key_cols,
            old_path.as_ref(),
            new_path.as_ref(),
            size,
            workers,
        ),
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
// External sort
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

/// Externally sort the snapshot at `path` by key into one merged, sorted
/// temp file; returns its path. `run_size` rows are sorted in memory at a
/// time — the classic run-generation + k-way-merge structure. With
/// `workers > 1` run generation fans out across that many threads, one
/// sorted run per chunk; the chunk index doubles as the run index, so the
/// run files (and therefore the merged output) are byte-identical to a
/// sequential sort.
fn external_sort(
    path: &Path,
    key_cols: &[usize],
    run_size: usize,
    workers: usize,
    stats: &mut DiffStats,
) -> StorageResult<PathBuf> {
    let dir = path
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_else(std::env::temp_dir);
    let stem = path
        .file_name()
        .and_then(|s| s.to_str())
        .unwrap_or("snapshot");

    // Phase 1: sorted runs.
    let mut run_paths = Vec::new();
    if workers > 1 {
        let (n_runs, rows_read, rows_written) =
            parallel_run_generation(path, key_cols, run_size, workers, &dir, stem)?;
        stats.rows_read += rows_read;
        stats.run_rows_written += rows_written;
        run_paths = (0..n_runs)
            .map(|i| dir.join(format!("{stem}.run{i}")))
            .collect();
    } else {
        let mut src = RowSource::open(path)?;
        let mut run: Vec<(Vec<Value>, Row)> = Vec::with_capacity(run_size.min(1 << 16));
        let flush_run = |run: &mut Vec<(Vec<Value>, Row)>,
                         run_paths: &mut Vec<PathBuf>,
                         stats: &mut DiffStats|
         -> StorageResult<()> {
            if run.is_empty() {
                return Ok(());
            }
            run.sort_by(|a, b| cmp_keys(&a.0, &b.0));
            let rp = dir.join(format!("{stem}.run{}", run_paths.len()));
            let mut w = RowSink::create(&rp, colbatch::DEFAULT_BLOCK_ROWS)?;
            for (_, row) in run.iter() {
                w.write_row(row)?;
                stats.run_rows_written += 1;
            }
            w.finish()?;
            run_paths.push(rp);
            run.clear();
            Ok(())
        };
        while let Some(row) = src.next_row()? {
            stats.rows_read += 1;
            run.push((key_of(&row, key_cols), row));
            if run.len() >= run_size {
                flush_run(&mut run, &mut run_paths, stats)?;
            }
        }
        flush_run(&mut run, &mut run_paths, stats)?;
    }

    // Phase 2: k-way merge of the runs.
    let sorted_path = dir.join(format!("{stem}.sorted"));
    {
        let mut readers: Vec<RunReader> = run_paths
            .iter()
            .map(|p| RunReader::open(p, key_cols))
            .collect::<StorageResult<_>>()?;
        let mut out = RowSink::create(&sorted_path, colbatch::DEFAULT_BLOCK_ROWS)?;
        loop {
            // Pick the reader with the smallest current key.
            let mut best: Option<usize> = None;
            for (i, r) in readers.iter().enumerate() {
                if let Some((k, _)) = &r.current {
                    let better = match best {
                        None => true,
                        Some(j) => {
                            stats.comparisons += 1;
                            cmp_keys(k, &readers[j].current.as_ref().unwrap().0) == Ordering::Less
                        }
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
            match best {
                None => break,
                Some(i) => {
                    let (_, row) = readers[i].current.take().expect("checked");
                    out.write_row(&row)?;
                    readers[i].advance()?;
                }
            }
        }
        out.finish()?;
    }
    for rp in run_paths {
        let _ = std::fs::remove_file(rp);
    }
    Ok(sorted_path)
}

fn worker_panic() -> StorageError {
    StorageError::Corrupt("snapshot diff worker thread panicked".into())
}

/// Fan run generation out across `workers` threads: the reader decodes the
/// input into chunks, workers sort/write one run per chunk. Returns
/// `(runs_written, rows_read, run_rows_written)`. The chunk index names the
/// run file, so run contents match a sequential pass exactly.
fn parallel_run_generation(
    path: &Path,
    key_cols: &[usize],
    run_size: usize,
    workers: usize,
    dir: &Path,
    stem: &str,
) -> StorageResult<(usize, u64, u64)> {
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<Row>)>();
    let rx = Mutex::new(rx);
    let mut n_runs = 0usize;
    let mut rows_read = 0u64;
    let mut read_err: Option<StorageError> = None;
    let per_worker: Vec<StorageResult<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| -> StorageResult<u64> {
                    let mut written = 0u64;
                    loop {
                        // Hold the receiver lock only for the claim itself.
                        let claimed = rx.lock();
                        let msg = claimed.recv();
                        drop(claimed);
                        let Ok((idx, chunk)) = msg else { break };
                        let mut run: Vec<(Vec<Value>, Row)> = chunk
                            .into_iter()
                            .map(|row| (key_of(&row, key_cols), row))
                            .collect();
                        run.sort_by(|a, b| cmp_keys(&a.0, &b.0));
                        let rp = dir.join(format!("{stem}.run{idx}"));
                        let mut w = RowSink::create(&rp, colbatch::DEFAULT_BLOCK_ROWS)?;
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

        // Feed chunks; a read error stops the feed, and closing the channel
        // lets the workers drain and exit.
        let mut feed = || -> StorageResult<()> {
            let mut src = RowSource::open(path)?;
            let mut chunk: Vec<Row> = Vec::with_capacity(run_size.min(1 << 16));
            while let Some(row) = src.next_row()? {
                rows_read += 1;
                chunk.push(row);
                if chunk.len() >= run_size {
                    let _ = tx.send((n_runs, std::mem::take(&mut chunk)));
                    n_runs += 1;
                }
            }
            if !chunk.is_empty() {
                let _ = tx.send((n_runs, std::mem::take(&mut chunk)));
                n_runs += 1;
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
    let mut rows_written = 0u64;
    for r in per_worker {
        match r {
            Ok(n) => rows_written += n,
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        for i in 0..n_runs {
            let _ = std::fs::remove_file(dir.join(format!("{stem}.run{i}")));
        }
        return Err(e);
    }
    Ok((n_runs, rows_read, rows_written))
}

fn sort_merge_diff(
    table: &str,
    schema: &Schema,
    key_cols: &[usize],
    old_path: &Path,
    new_path: &Path,
    run_size: usize,
) -> StorageResult<(ValueDelta, DiffStats)> {
    let mut stats = DiffStats::default();
    let old_sorted = external_sort(old_path, key_cols, run_size, 1, &mut stats)?;
    let new_sorted = external_sort(new_path, key_cols, run_size, 1, &mut stats)?;

    let mut delta = ValueDelta::new(table, schema.clone());
    {
        let mut old_r = RunReader::open(&old_sorted, key_cols)?;
        let mut new_r = RunReader::open(&new_sorted, key_cols)?;
        merge_diff_streams(&mut old_r, &mut new_r, &mut delta.records, &mut stats)?;
    }
    let _ = std::fs::remove_file(old_sorted);
    let _ = std::fs::remove_file(new_sorted);
    Ok((delta, stats))
}

/// Merge-join two key-sorted row streams, appending the delta records that
/// turn the old stream into the new one.
fn merge_diff_streams(
    old_r: &mut RunReader,
    new_r: &mut RunReader,
    records: &mut Vec<ValueDeltaRecord>,
    stats: &mut DiffStats,
) -> StorageResult<()> {
    loop {
        match (&old_r.current, &new_r.current) {
            (None, None) => break,
            (Some((_, o)), None) => {
                records.push(ValueDeltaRecord {
                    op: DeltaOp::Delete,
                    txn: 0,
                    row: o.clone(),
                });
                old_r.advance()?;
            }
            (None, Some((_, n))) => {
                records.push(ValueDeltaRecord {
                    op: DeltaOp::Insert,
                    txn: 0,
                    row: n.clone(),
                });
                new_r.advance()?;
            }
            (Some((ok, o)), Some((nk, n))) => {
                stats.comparisons += 1;
                match cmp_keys(ok, nk) {
                    Ordering::Less => {
                        records.push(ValueDeltaRecord {
                            op: DeltaOp::Delete,
                            txn: 0,
                            row: o.clone(),
                        });
                        old_r.advance()?;
                    }
                    Ordering::Greater => {
                        records.push(ValueDeltaRecord {
                            op: DeltaOp::Insert,
                            txn: 0,
                            row: n.clone(),
                        });
                        new_r.advance()?;
                    }
                    Ordering::Equal => {
                        if o != n {
                            records.push(ValueDeltaRecord {
                                op: DeltaOp::UpdateBefore,
                                txn: 0,
                                row: o.clone(),
                            });
                            records.push(ValueDeltaRecord {
                                op: DeltaOp::UpdateAfter,
                                txn: 0,
                                row: n.clone(),
                            });
                        }
                        old_r.advance()?;
                        new_r.advance()?;
                    }
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Parallel partitioned diff
// ---------------------------------------------------------------------

/// Best-effort removal of temp files when a diff finishes or errors out.
/// Disarm by clearing the inner vec.
struct TempFiles(Vec<PathBuf>);

impl Drop for TempFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Partition index for a key. Values that compare `Equal` under
/// [`Value::total_cmp`] must land in the same partition, and that relation
/// crosses types (`Int(2) == Double(2.0) == Timestamp(2)`), so numeric
/// values hash through a common integer form when they have one. Merging
/// *more* than total_cmp-equality into one partition only skews balance;
/// splitting an equality class across partitions would corrupt the diff.
fn key_partition(key: &[Value], parts: usize) -> usize {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    for v in key {
        match v {
            Value::Null => 0u8.hash(&mut h),
            Value::Int(i) => (1u8, *i).hash(&mut h),
            Value::Timestamp(t) => (1u8, *t).hash(&mut h),
            Value::Double(d) => {
                if d.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(d) {
                    (1u8, *d as i64).hash(&mut h);
                } else {
                    (2u8, d.to_bits()).hash(&mut h);
                }
            }
            Value::Str(s) => (3u8, s).hash(&mut h),
            Value::Bool(b) => (4u8, *b).hash(&mut h),
        }
    }
    (h.finish() % parts as u64) as usize
}

/// Split the snapshot at `path` into `parts` files by key hash, preserving
/// row order within each partition (so a key-sorted input yields key-sorted
/// partitions). Returns the partition paths.
fn partition_by_key(
    path: &Path,
    key_cols: &[usize],
    parts: usize,
    tag: &str,
) -> StorageResult<Vec<PathBuf>> {
    let dir = path
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_else(std::env::temp_dir);
    let stem = path
        .file_name()
        .and_then(|s| s.to_str())
        .unwrap_or("snapshot");
    let paths: Vec<PathBuf> = (0..parts)
        .map(|i| dir.join(format!("{stem}.{tag}-part{i}")))
        .collect();
    let mut guard = TempFiles(paths.clone());
    let mut writers = paths
        .iter()
        .map(|p| RowSink::create(p, colbatch::DEFAULT_BLOCK_ROWS))
        .collect::<StorageResult<Vec<_>>>()?;
    let mut src = RowSource::open(path)?;
    while let Some(row) = src.next_row()? {
        let p = key_partition(&key_of(&row, key_cols), parts);
        writers[p].write_row(&row)?;
    }
    for w in writers {
        w.finish()?;
    }
    guard.0.clear();
    Ok(paths)
}

/// Diff each old/new partition pair on its own thread. `diff_one` returns
/// that partition's records in key order plus its stats; stats are summed.
fn diff_partitions<F>(
    old_parts: &[PathBuf],
    new_parts: &[PathBuf],
    diff_one: F,
) -> StorageResult<(Vec<Vec<ValueDeltaRecord>>, DiffStats)>
where
    F: Fn(&Path, &Path) -> StorageResult<(Vec<ValueDeltaRecord>, DiffStats)> + Sync,
{
    let results: Vec<StorageResult<(Vec<ValueDeltaRecord>, DiffStats)>> =
        std::thread::scope(|scope| {
            let diff_one = &diff_one;
            let handles: Vec<_> = old_parts
                .iter()
                .zip(new_parts)
                .map(|(o, n)| scope.spawn(move || diff_one(o, n)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err(worker_panic())))
                .collect()
        });
    let mut parts = Vec::with_capacity(results.len());
    let mut stats = DiffStats::default();
    for r in results {
        let (recs, s) = r?;
        stats.rows_read += s.rows_read;
        stats.run_rows_written += s.run_rows_written;
        stats.comparisons += s.comparisons;
        parts.push(recs);
    }
    Ok((parts, stats))
}

/// Merge per-partition record streams into one key-ordered stream. Each
/// input must be key-nondecreasing; partitions are key-disjoint, so taking
/// the whole same-key group from the winning stream keeps update pairs
/// adjacent and preserves each partition's within-key order.
fn merge_parts_by_key(
    parts: Vec<Vec<ValueDeltaRecord>>,
    key_cols: &[usize],
) -> Vec<ValueDeltaRecord> {
    let mut parts: Vec<VecDeque<ValueDeltaRecord>> =
        parts.into_iter().map(VecDeque::from).collect();
    let mut out = Vec::with_capacity(parts.iter().map(VecDeque::len).sum());
    loop {
        let mut best: Option<(usize, Vec<Value>)> = None;
        for (i, part) in parts.iter().enumerate() {
            if let Some(rec) = part.front() {
                let k = key_of(&rec.row, key_cols);
                let better = match &best {
                    None => true,
                    Some((_, bk)) => cmp_keys(&k, bk) == Ordering::Less,
                };
                if better {
                    best = Some((i, k));
                }
            }
        }
        let Some((i, k)) = best else { break };
        while parts[i]
            .front()
            .is_some_and(|r| cmp_keys(&key_of(&r.row, key_cols), &k) == Ordering::Equal)
        {
            out.push(parts[i].pop_front().expect("front checked"));
        }
    }
    out
}

/// Parallel sort-merge: fan out run generation, sort both snapshots, split
/// the *sorted* streams by key hash (a subsequence of a sorted file stays
/// sorted), merge-diff each partition pair concurrently, and stitch the
/// per-partition deltas back together in key order.
fn parallel_sort_merge(
    table: &str,
    schema: &Schema,
    key_cols: &[usize],
    old_path: &Path,
    new_path: &Path,
    run_size: usize,
    workers: usize,
) -> StorageResult<(ValueDelta, DiffStats)> {
    let mut stats = DiffStats::default();
    let old_sorted = external_sort(old_path, key_cols, run_size, workers, &mut stats)?;
    let _g_old = TempFiles(vec![old_sorted.clone()]);
    let new_sorted = external_sort(new_path, key_cols, run_size, workers, &mut stats)?;
    let _g_new = TempFiles(vec![new_sorted.clone()]);

    let old_parts = partition_by_key(&old_sorted, key_cols, workers, "old")?;
    let _g_op = TempFiles(old_parts.clone());
    let new_parts = partition_by_key(&new_sorted, key_cols, workers, "new")?;
    let _g_np = TempFiles(new_parts.clone());

    let (parts, part_stats) = diff_partitions(&old_parts, &new_parts, |o, n| {
        let mut st = DiffStats::default();
        let mut recs = Vec::new();
        let mut old_r = RunReader::open(o, key_cols)?;
        let mut new_r = RunReader::open(n, key_cols)?;
        merge_diff_streams(&mut old_r, &mut new_r, &mut recs, &mut st)?;
        Ok((recs, st))
    })?;
    stats.comparisons += part_stats.comparisons;

    let mut delta = ValueDelta::new(table, schema.clone());
    delta.records = merge_parts_by_key(parts, key_cols);
    Ok((delta, stats))
}

/// Parallel window diff: split the *raw* snapshots by key hash (arrival
/// order survives within a partition, which is what the window algorithm
/// keys off), window-diff each partition pair concurrently, then emit the
/// per-partition deltas in key order.
fn parallel_window(
    table: &str,
    schema: &Schema,
    key_cols: &[usize],
    old_path: &Path,
    new_path: &Path,
    window: usize,
    workers: usize,
) -> StorageResult<(ValueDelta, DiffStats)> {
    let old_parts = partition_by_key(old_path, key_cols, workers, "old")?;
    let _g_op = TempFiles(old_parts.clone());
    let new_parts = partition_by_key(new_path, key_cols, workers, "new")?;
    let _g_np = TempFiles(new_parts.clone());

    let (parts, stats) = diff_partitions(&old_parts, &new_parts, |o, n| {
        let (vd, st) = window_diff(table, schema, key_cols, o, n, window)?;
        let mut recs = vd.records;
        // Window output is arrival-ordered; sort it (stably — update pairs
        // and delete/insert degradations keep their relative order) so the
        // final merge can interleave partitions by key.
        recs.sort_by(|a, b| cmp_keys(&key_of(&a.row, key_cols), &key_of(&b.row, key_cols)));
        Ok((recs, st))
    })?;

    let mut delta = ValueDelta::new(table, schema.clone());
    delta.records = merge_parts_by_key(parts, key_cols);
    Ok((delta, stats))
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
    fn parallel_window_matches_sequential_sort_merge_exactly() {
        // With ample window per partition the parallel window diff emits the
        // same key-ordered records as the exact sort-merge.
        let old = write_snapshot("pw-old.snap", &[(1, "a"), (2, "b"), (3, "c"), (4, "d")]);
        let new = write_snapshot("pw-new.snap", &[(2, "b"), (3, "c2"), (4, "d"), (5, "e")]);
        let (seq_vd, _) = diff_snapshots(
            "t",
            &schema(),
            &[0],
            &old,
            &new,
            DiffAlgorithm::SortMerge { run_size: 64 },
        )
        .unwrap();
        let (par_vd, _) = diff_snapshots_parallel(
            "t",
            &schema(),
            &[0],
            &old,
            &new,
            DiffAlgorithm::Window { size: 16 },
            4,
        )
        .unwrap();
        assert_eq!(par_vd, seq_vd);
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
    fn parallel_window_degradation_stays_sound() {
        // Zero window: the displaced row 1 must still surface — as a
        // delete + insert pair, or as an update when partitioning shrinks
        // its displacement enough — never silently dropped. Unchanged rows
        // must produce nothing.
        let old = write_snapshot("pd-old.snap", &[(1, "a"), (2, "b"), (3, "c"), (4, "d")]);
        let new = write_snapshot("pd-new.snap", &[(2, "b"), (3, "c"), (4, "d"), (1, "a2")]);
        let (vd, _) = diff_snapshots_parallel(
            "t",
            &schema(),
            &[0],
            &old,
            &new,
            DiffAlgorithm::Window { size: 0 },
            2,
        )
        .unwrap();
        let mut got = ops_of(&vd);
        got.sort_by_key(|(op, id)| (*id, format!("{op:?}")));
        let degraded = got == vec![(DeltaOp::Delete, 1), (DeltaOp::Insert, 1)];
        let resolved = got == vec![(DeltaOp::UpdateAfter, 1), (DeltaOp::UpdateBefore, 1)];
        assert!(
            degraded || resolved,
            "row 1 must be a delete+insert pair or an update pair, got {got:?}"
        );
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

    #[test]
    fn parallel_diff_cleans_up_temp_files() {
        let (old, new) = big_fixture("clean");
        let dir = old.parent().unwrap().to_path_buf();
        for algo in [
            DiffAlgorithm::SortMerge { run_size: 16 },
            DiffAlgorithm::Window { size: 32 },
        ] {
            diff_snapshots_parallel("t", &schema(), &[0], &old, &new, algo, 4).unwrap();
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            if name.starts_with("clean-") {
                assert!(
                    !name.contains(".run") && !name.contains(".sorted") && !name.contains("-part"),
                    "temp file left behind: {name}"
                );
            }
        }
    }

    #[test]
    fn key_partition_respects_cross_type_equality() {
        // total_cmp declares Int(7) == Double(7.0) == Timestamp(7); they
        // must all route to one partition or a diff would split a key.
        for parts in [2, 3, 8] {
            let a = key_partition(&[Value::Int(7)], parts);
            assert_eq!(a, key_partition(&[Value::Double(7.0)], parts));
            assert_eq!(a, key_partition(&[Value::Timestamp(7)], parts));
        }
    }
}
