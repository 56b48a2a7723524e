//! The apply scheduler behind [`Pipeline::sync`].
//!
//! `sync` is one loop on the calling thread: fold the applied ranges, then
//! dequeue a run into one reused arena, decode its frames, classify them by
//! sequence id, apply, ack the completed prefix and fold again, until the
//! queue is drained. Decode is inline — there is no second thread touching
//! the queue cursor, so a rewind has nothing to race. Each decision the
//! loop makes has one rule:
//!
//! - **Progress.** Every apply group — value or Op-Delta, at any worker
//!   count — records its `[first, last]` sequence range
//!   ([`AppliedMark::Range`]) inside its own transaction, so the commit and
//!   the claim that it happened are atomic.
//!   [`Warehouse::fold_applied_ranges`] is the one writer of the contiguous
//!   watermark: it runs at the start of every sync and after every run's
//!   ack, and folds the ranges (and the dead-letter queue's parked
//!   sequences) that extend the prefix.
//! - **Acknowledgement.** Groups may commit out of sequence order, but the
//!   queue ack only advances over the run's **contiguous completed
//!   prefix** (completed = committed, quarantined, or already applied in a
//!   previous life). A crash at any point therefore redelivers only
//!   batches that either never committed or are recognized (watermark or
//!   range) and deduped.
//! - **Failure.** A frame that does not decode is a group of its own whose
//!   apply fails at once. Like any failed apply it is quarantined under a
//!   retry policy — at once, since decoding is deterministic — and
//!   fail-stops without one. On a fail-stop the completed prefix is acked
//!   and folded, the cursor rewinds to the ack, and the earliest error
//!   surfaces.
//! - **Execution.** Each run's groups are scheduled in *waves*.
//!   Consecutive value-delta groups form one wave whose groups are
//!   partitioned into concurrency classes ([`Warehouse::apply_classes`]:
//!   tables read by a common view share a class); an Op-Delta or
//!   undecodable group is a wave of its own — a full barrier — because
//!   replayed SQL may touch any table. One class executor ([`run_class`])
//!   runs a class's groups in sequence order and stops at the first
//!   fail-stop, on a pool worker spawned once per sync when a wave has more
//!   than one class, on the calling thread otherwise. With one worker there
//!   is no pool: every wave runs on the calling thread in sequence order.
//!
//! There is no stall deadline: the workers are scoped threads that `sync`
//! joins before it returns, so a deadline could not bound a `sync`, only
//! make it do less work in the same time. An injected stall
//! ([`crate::watchdog`]) makes one class commit after its siblings.
//!
//! Inside a group, a value-delta run applies through the engine's row
//! primitives and hands its row images to the views in one stream
//! ([`crate::direct::DirectValueApplier`]); an Op-Delta's images are one
//! stream per replayed statement. Both streams are read off the apply
//! transaction's redo tail, and each view gets one pass of
//! [`crate::view::View::apply_stream`] per stream.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use delta_core::model::{DeltaBatch, ValueDelta};
use delta_engine::{EngineError, EngineResult};
use delta_storage::StorageError;
use parking_lot::Mutex;

use crate::apply::{AppliedMark, AppliedState, ApplyReport, OpDeltaApplier, Warehouse};
use crate::direct::DirectValueApplier;
use crate::pipeline::{Pipeline, SyncReport};

/// One dequeued frame: sequence id, payload range into the run arena, and
/// the decode result. An undecodable frame stays deliverable: its apply
/// fails with the decode error.
type RunBatch = (u64, Range<usize>, Result<DeltaBatch, StorageError>);

/// How far one unique sequence id of a run has progressed.
#[derive(Clone, Copy)]
enum Entry {
    /// Already applied (watermark or range) or parked in the dead-letter
    /// queue: nothing left to do, the prefix ack may pass over it.
    Done,
    /// Waiting on the apply group that owns deliverable batch `i`.
    Batch(usize),
}

/// One apply group: a maximal run of consecutive same-table value-delta
/// batches, or a single Op-Delta or undecodable batch.
struct Group {
    /// Index range into the run's deliverable batches.
    batches: Range<usize>,
    /// Base table for value groups; `None` for the barrier groups.
    table: Option<String>,
}

/// Immutable per-run data shared between the calling thread and the apply
/// workers for the duration of one run's waves.
struct RunShared {
    /// Backing bytes for every payload range.
    arena: Vec<u8>,
    /// Deliverable batches in sequence order.
    batches: Vec<RunBatch>,
    /// Apply groups over `batches`.
    groups: Vec<Group>,
}

/// One unit of parallel work: the group ordinals of one concurrency class
/// within one wave.
struct WorkItem {
    run: Arc<RunShared>,
    class: Vec<usize>,
}

/// What one class execution reported back: per-group outcomes in sequence
/// order, and the nanoseconds spent executing them.
type ClassResult = (Vec<(usize, GroupOutcome)>, u64);

/// What one group's execution reported back.
#[derive(Default)]
struct GroupOutcome {
    report: ApplyReport,
    batches_applied: u64,
    groups_committed: u64,
    retries: u64,
    quarantined: u64,
    /// Fail-stop error (no retry policy, or the dead-letter queue itself
    /// failed): the group's sequences stay incomplete.
    failed: Option<EngineError>,
}

/// The apply worker pool spawned once per sync: classes flow out through a
/// shared work channel, class results flow back. Workers exit when the
/// work channel closes.
struct WorkerPool {
    workers: usize,
    work: mpsc::Sender<WorkItem>,
    results: mpsc::Receiver<ClassResult>,
}

/// Run one class's groups in sequence order, stopping at the first
/// fail-stop outcome (later groups of the class must not apply past a hole
/// in their table's order). The one executor behind both the pool workers
/// and the calling thread.
fn run_class(pipe: &Pipeline, wh: &Warehouse, run: &RunShared, class: &[usize]) -> ClassResult {
    let started = Instant::now();
    let mut out = Vec::with_capacity(class.len());
    for &g in class {
        let outcome = execute_group(pipe, wh, run, &run.groups[g]);
        let stop = outcome.failed.is_some();
        out.push((g, outcome));
        if stop {
            break;
        }
    }
    (out, started.elapsed().as_nanos() as u64)
}

/// Apply-worker loop: take one class at a time and run it.
fn apply_worker(
    pipe: &Pipeline,
    wh: &Warehouse,
    work: &Mutex<mpsc::Receiver<WorkItem>>,
    results: mpsc::Sender<ClassResult>,
) {
    loop {
        // Holding the lock across the blocking recv is fine: at most one
        // worker parks inside while the rest park on the mutex, and every
        // queued item wakes exactly one of them in turn.
        let item = match work.lock().recv() {
            Ok(item) => item,
            Err(_) => return,
        };
        if results
            .send(run_class(pipe, wh, &item.run, &item.class))
            .is_err()
        {
            return;
        }
    }
}

/// The worker count `sync` runs with: [`Pipeline::with_sync_workers`],
/// with 0 (the default) meaning available parallelism.
fn resolved_workers(pipe: &Pipeline) -> usize {
    if pipe.sync_workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        pipe.sync_workers
    }
}

/// Fold the applied ranges, counting the dead-letter queue's parked
/// sequences as completed.
fn fold(pipe: &Pipeline, wh: &Warehouse) -> EngineResult<AppliedState> {
    wh.fold_applied_ranges(|seq| pipe.already_quarantined(seq))
}

/// Drain the pipeline's queue into the warehouse. See the module docs for
/// the loop; see [`Pipeline::sync`] for the contract.
pub(crate) fn run_sync(pipe: &Pipeline, wh: &Warehouse) -> EngineResult<SyncReport> {
    let mut report = SyncReport::default();
    wh.ensure_applied_watermark()?;
    // A crashed sync may have left committed ranges behind; fold whatever
    // prefix already closed before dedupe reads it.
    let mut applied = fold(pipe, wh)?;
    let classes = wh.apply_classes();
    let workers = resolved_workers(pipe);
    std::thread::scope(|scope| {
        let pool = (workers > 1).then(|| {
            let (work_tx, work_rx) = mpsc::channel::<WorkItem>();
            let (result_tx, result_rx) = mpsc::channel::<ClassResult>();
            let work_rx = Arc::new(Mutex::new(work_rx));
            for _ in 0..workers {
                let work_rx = Arc::clone(&work_rx);
                let result_tx = result_tx.clone();
                scope.spawn(move || apply_worker(pipe, wh, &work_rx, result_tx));
            }
            WorkerPool {
                workers,
                work: work_tx,
                results: result_rx,
            }
        });
        // One arena backs every run of the drain: a run's apply hands it
        // back, and the next spool read reuses its capacity.
        let mut arena = Vec::new();
        loop {
            let started = Instant::now();
            let dequeued = match &pipe.net_faults {
                Some(sim) => {
                    pipe.queue
                        .dequeue_run_with_faults(pipe.batch_size, &mut sim.lock(), &mut arena)
                }
                None => pipe.queue.dequeue_run(pipe.batch_size, &mut arena),
            };
            let frames: Vec<RunBatch> = dequeued
                .map_err(EngineError::Storage)?
                .into_iter()
                .map(|(idx, range)| {
                    let decoded = DeltaBatch::from_bytes(&arena[range.clone()]);
                    (idx, range, decoded)
                })
                .collect();
            if frames.is_empty() {
                break;
            }
            report.decode_nanos += started.elapsed().as_nanos() as u64;
            arena = sync_one_run(
                pipe,
                wh,
                arena,
                frames,
                &mut applied,
                &classes,
                pool.as_ref(),
                &mut report,
            )?;
        }
        Ok(report)
    })
}

/// Apply one decoded run, ack its completed prefix, fold, and return the
/// arena for reuse. On a fail-stop error the completed prefix is still
/// acked and folded, the cursor rewinds to the ack, and the error
/// surfaces.
#[allow(clippy::too_many_arguments)]
fn sync_one_run(
    pipe: &Pipeline,
    wh: &Warehouse,
    arena: Vec<u8>,
    mut frames: Vec<RunBatch>,
    applied: &mut AppliedState,
    classes: &HashMap<String, usize>,
    pool: Option<&WorkerPool>,
    report: &mut SyncReport,
) -> EngineResult<Vec<u8>> {
    // Restore sequence order (reordered delivery), then classify every
    // unique sequence id: already completed, or deliverable.
    frames.sort_by_key(|(idx, _, _)| *idx);
    let mut entries: Vec<(u64, Entry)> = Vec::with_capacity(frames.len());
    let mut batches: Vec<RunBatch> = Vec::with_capacity(frames.len());
    for (idx, range, decoded) in frames {
        if entries.last().is_some_and(|(last, _)| *last == idx) {
            // Duplicated delivery within the run.
            report.deduped += 1;
            continue;
        }
        // Applied in a previous life but possibly never acked (crash
        // between commit and ack, or a lost ack), or parked in the DLQ by
        // an earlier sync: completed, so the prefix ack below re-acks it
        // and it stops redelivering. Re-applying a parked batch would fail
        // again and duplicate its DLQ entry.
        if applied.contains(idx) || pipe.already_quarantined(idx) {
            report.deduped += 1;
            entries.push((idx, Entry::Done));
            continue;
        }
        entries.push((idx, Entry::Batch(batches.len())));
        batches.push((idx, range, decoded));
    }
    // Never apply across a sequence gap: acking past one would silently
    // skip the missing batch. (The fault adapter truncates runs at a loss,
    // so gaps should not occur; this is a guard.)
    if let Some(gap) = entries
        .windows(2)
        .position(|w| w[1].0 != w[0].0 + 1)
        .map(|p| p + 1)
    {
        pipe.queue.rewind_to(entries[gap].0);
        let keep_batches = entries[gap..]
            .iter()
            .find_map(|(_, e)| match e {
                Entry::Batch(i) => Some(*i),
                Entry::Done => None,
            })
            .unwrap_or(batches.len());
        entries.truncate(gap);
        batches.truncate(keep_batches);
    }

    let groups = build_groups(&batches);
    let shared = Arc::new(RunShared {
        arena,
        batches,
        groups,
    });
    let apply_started = Instant::now();
    let mut outcomes = run_waves(pipe, wh, &shared, classes, pool, report);
    report.apply_nanos += apply_started.elapsed().as_nanos() as u64;
    for outcome in outcomes.iter().flatten() {
        report.batches += outcome.batches_applied;
        report.runs += outcome.groups_committed;
        report.retries += outcome.retries;
        report.quarantined += outcome.quarantined;
        report.apply.merge(outcome.report);
    }

    // Advance the queue ack over the contiguous completed prefix, then
    // fold whatever ranges that closed.
    let ack_started = Instant::now();
    let mut ack_hi: Option<u64> = None;
    for (idx, entry) in &entries {
        let done = match entry {
            Entry::Done => true,
            Entry::Batch(b) => shared
                .groups
                .iter()
                .position(|g| g.batches.contains(b))
                .and_then(|g| outcomes.get(g))
                .and_then(|o| o.as_ref())
                .is_some_and(|o| o.failed.is_none()),
        };
        if !done {
            break;
        }
        ack_hi = Some(*idx);
    }
    let settled = ack_hi
        .map_or(Ok(()), |hi| {
            pipe.queue.ack(hi).map_err(EngineError::Storage)
        })
        .and_then(|()| fold(pipe, wh));
    report.ack_nanos += ack_started.elapsed().as_nanos() as u64;

    // Surface the earliest error — the first failed outcome (groups are in
    // sequence order), else a failed ack or fold — with the cursor rewound
    // to the ack.
    let failure = outcomes.iter_mut().flatten().find_map(|o| o.failed.take());
    match failure.map_or(settled, Err) {
        Ok(state) => *applied = state,
        Err(e) => {
            pipe.queue.rewind_to_acked();
            return Err(e);
        }
    }
    // Recover the arena for reuse when the workers have already dropped
    // their handles (they have: every class result was collected; the
    // fallback only races a worker's final drop).
    Ok(Arc::try_unwrap(shared).map(|s| s.arena).unwrap_or_default())
}

/// Split the run's deliverable batches into apply groups: maximal runs of
/// consecutive same-table value deltas, single Op-Deltas, single
/// undecodable frames.
fn build_groups(batches: &[RunBatch]) -> Vec<Group> {
    let mut groups = Vec::new();
    let mut i = 0;
    while i < batches.len() {
        let (end, table) = match &batches[i].2 {
            Ok(DeltaBatch::Value(vd)) => {
                let mut j = i + 1;
                while let Some((_, _, Ok(DeltaBatch::Value(next)))) = batches.get(j) {
                    if next.table != vd.table {
                        break;
                    }
                    j += 1;
                }
                (j, Some(vd.table.clone()))
            }
            Ok(DeltaBatch::Op(_)) | Err(_) => (i + 1, None),
        };
        groups.push(Group {
            batches: i..end,
            table,
        });
        i = end;
    }
    groups
}

/// Execute the run's groups in waves: consecutive value-delta groups form
/// one wave whose concurrency classes run in parallel on the worker pool;
/// a barrier group, a single-class wave, and every wave without a pool run
/// on the calling thread in sequence order. Returns per-group outcomes
/// (`None` = not attempted because an earlier wave failed).
fn run_waves(
    pipe: &Pipeline,
    wh: &Warehouse,
    shared: &Arc<RunShared>,
    classes: &HashMap<String, usize>,
    pool: Option<&WorkerPool>,
    report: &mut SyncReport,
) -> Vec<Option<GroupOutcome>> {
    let groups = &shared.groups;
    let mut outcomes: Vec<Option<GroupOutcome>> = Vec::with_capacity(groups.len());
    outcomes.resize_with(groups.len(), || None);
    let mut wave_start = 0;
    while wave_start < groups.len() {
        // A wave: one barrier group, or a maximal run of value groups.
        let wave_end = if groups[wave_start].table.is_none() {
            wave_start + 1
        } else {
            let mut j = wave_start + 1;
            while j < groups.len() && groups[j].table.is_some() {
                j += 1;
            }
            j
        };
        let wave = wave_start..wave_end;
        // Partition the wave's groups into concurrency classes, keeping
        // sequence order within each class. Tables without a known class
        // (no mirror: poison) share one bucket.
        let mut class_keys: Vec<Option<usize>> = Vec::new();
        let mut class_groups: Vec<Vec<usize>> = Vec::new();
        for g in wave.clone() {
            let key = groups[g]
                .table
                .as_ref()
                .and_then(|t| classes.get(t).copied());
            match class_keys.iter().position(|k| *k == key) {
                Some(c) => class_groups[c].push(g),
                None => {
                    class_keys.push(key);
                    class_groups.push(vec![g]);
                }
            }
        }
        let results: Vec<ClassResult> = match pool {
            Some(pool) if class_groups.len() > 1 => {
                let dispatched = class_groups.len();
                report.workers_used = report.workers_used.max(pool.workers.min(dispatched) as u64);
                for class in class_groups {
                    // A failed send means a worker panicked and the
                    // channel died; the missing outcomes below surface it
                    // as an incomplete (unacked, redelivered) suffix.
                    let _ = pool.work.send(WorkItem {
                        run: Arc::clone(shared),
                        class,
                    });
                }
                pool.results.iter().take(dispatched).collect()
            }
            _ => {
                report.workers_used = report.workers_used.max(1);
                let wave: Vec<usize> = wave.collect();
                vec![run_class(pipe, wh, shared, &wave)]
            }
        };
        let mut failed_wave = false;
        for (class_out, busy_nanos) in results {
            report.worker_busy_nanos += busy_nanos;
            for (g, out) in class_out {
                failed_wave |= out.failed.is_some();
                outcomes[g] = Some(out);
            }
        }
        if failed_wave {
            // Stop scheduling further waves; the prefix ack and the
            // redelivery contract cover whatever already committed.
            break;
        }
        wave_start = wave_end;
    }
    outcomes
}

/// Apply one group end to end on the calling thread: retry with backoff
/// under the policy, isolate per batch when a multi-batch group keeps
/// failing, quarantine poison, or report a fail-stop error.
fn execute_group(pipe: &Pipeline, wh: &Warehouse, run: &RunShared, group: &Group) -> GroupOutcome {
    let batches = &run.batches[group.batches.clone()];
    let mut out = GroupOutcome::default();
    // Deterministic injected stall: sleep once per planned group, before
    // the apply, so this class commits after its siblings.
    if let Some(pause) = pipe
        .stall_injector
        .as_ref()
        .zip(batches.first())
        .and_then(|(inj, first)| inj.take_stall(first.0))
    {
        std::thread::sleep(pause);
    }
    match apply_with_retry(pipe, wh, batches, &mut out.retries) {
        Ok(applied) => {
            out.report.merge(applied);
            out.batches_applied = batches.len() as u64;
            out.groups_committed = 1;
        }
        Err(_) if pipe.retry.is_some() && batches.len() > 1 => {
            // Isolate the poison: re-apply the group one batch at a time
            // so only the bad batch is quarantined.
            for batch in batches {
                let single = std::slice::from_ref(batch);
                match apply_with_retry(pipe, wh, single, &mut out.retries) {
                    Ok(applied) => {
                        out.report.merge(applied);
                        out.batches_applied += 1;
                        out.groups_committed += 1;
                    }
                    Err(e) => match pipe.quarantine_frame(batch.0, &run.arena[batch.1.clone()], &e)
                    {
                        Ok(()) => out.quarantined += 1,
                        Err(dlq_err) => {
                            out.failed = Some(dlq_err);
                            break;
                        }
                    },
                }
            }
        }
        Err(e) if pipe.retry.is_some() => {
            let batch = &batches[0];
            match pipe.quarantine_frame(batch.0, &run.arena[batch.1.clone()], &e) {
                Ok(()) => out.quarantined += 1,
                Err(dlq_err) => out.failed = Some(dlq_err),
            }
        }
        Err(e) => out.failed = Some(e),
    }
    out
}

/// One apply attempt loop for a group, recording its `[first, last]`
/// sequence range inside the apply transaction, with bounded backoff under
/// the pipeline's retry policy. An undecodable frame fails at once:
/// decoding is deterministic, so there is nothing to retry.
fn apply_with_retry(
    pipe: &Pipeline,
    wh: &Warehouse,
    group: &[RunBatch],
    retries: &mut u64,
) -> EngineResult<ApplyReport> {
    let (Some(first), Some(last)) = (group.first(), group.last()) else {
        return Err(EngineError::Invalid("empty apply group".into()));
    };
    let batch = match &first.2 {
        Ok(batch) => batch,
        Err(e) => {
            return Err(EngineError::Storage(StorageError::Corrupt(format!(
                "undecodable delta frame {}: {e}",
                first.0
            ))))
        }
    };
    let mark = AppliedMark::Range(first.0, last.0);
    let mut attempt = 1u32;
    loop {
        let result = match batch {
            DeltaBatch::Value(_) => {
                let vds: Vec<&ValueDelta> = group
                    .iter()
                    .filter_map(|(_, _, b)| match b {
                        Ok(DeltaBatch::Value(vd)) => Some(vd),
                        _ => None,
                    })
                    .collect();
                DirectValueApplier::apply_run_marked(wh, &vds, mark)
            }
            DeltaBatch::Op(od) => OpDeltaApplier::apply_marked(wh, od, mark).inspect(|_| {
                pipe.ops_replayed
                    .fetch_add(od.ops.len() as u64, Ordering::Relaxed);
            }),
        };
        match result {
            Ok(r) => return Ok(r),
            Err(e) => {
                let Some(policy) = pipe.retry else {
                    return Err(e);
                };
                if attempt >= policy.max_attempts {
                    return Err(e);
                }
                *retries += 1;
                let pause = policy.backoff(attempt, &mut pipe.jitter_state.lock());
                std::thread::sleep(pause);
                attempt += 1;
            }
        }
    }
}
