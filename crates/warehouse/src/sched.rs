//! The parallel apply scheduler behind [`Pipeline::sync`].
//!
//! `sync` is one loop on the calling thread: dequeue a run into one reused
//! arena, decode its frames, classify them by sequence id, apply, ack the
//! completed prefix, repeat until the queue is drained. Decode is inline —
//! there is no second thread touching the queue cursor, so a rewind has
//! nothing to race. Two things happen inside the apply step:
//!
//! 1. **Table-partitioned apply** — each run's delta groups are scheduled
//!    in *waves*. Consecutive value-delta groups form one wave whose groups
//!    are partitioned into concurrency classes
//!    ([`Warehouse::apply_classes`]: tables read by a common view share a
//!    class); classes apply concurrently on a pool of workers
//!    spawned once per sync, while groups within a class keep
//!    queue-sequence order. An Op-Delta group is a wave of its own — a
//!    full barrier — because replayed SQL may touch any table. With one
//!    worker there is no pool and `sync` spawns no thread.
//! 2. **Direct value apply, views once per run** — a value-delta group
//!    applies through the engine's row primitives and hands its row images
//!    to the views in one stream per run
//!    ([`crate::direct::DirectValueApplier`]); an Op-Delta's images are
//!    one stream per replayed statement. Both streams are read off the
//!    apply transaction's redo tail (`Warehouse::propagate_since`). Either
//!    way each view gets one pass of [`crate::view::View::apply_stream`]:
//!    an aggregate view folds per touched group, an SPJ view replays in
//!    order against one scan of the other mirrors.
//!
//! ## The prefix-ack invariant
//!
//! Parallel waves commit out of sequence order, but the queue ack and the
//! warehouse watermark only ever advance over the **contiguous completed
//! prefix** of the run (completed = committed, quarantined, or already
//! applied in a previous life). A group that commits ahead of a gap
//! records its `[first, last]` sequence range in the watermark table
//! ([`AppliedMark::Range`]) instead of advancing the watermark; once the
//! prefix closes, [`Warehouse::fold_applied_ranges`] folds the ranges into
//! the watermark. A crash at any point therefore redelivers only batches
//! that either never committed or are recognized (watermark or range) and
//! deduped — the at-least-once / exactly-once-observable contract of the
//! serial loop is unchanged. With one worker the scheduler degenerates to
//! the serial loop: same commit order, same watermark rows, same acks.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use delta_core::model::{DeltaBatch, ValueDelta};
use delta_engine::{EngineError, EngineResult};
use delta_storage::StorageError;
use parking_lot::Mutex;

use crate::apply::{AppliedMark, ApplyReport, OpDeltaApplier, Warehouse};
use crate::direct::DirectValueApplier;
use crate::pipeline::{Pipeline, SyncReport};

/// One dequeued frame after decode: sequence id, payload range into the
/// run arena, and the decode result.
type DecodedFrame = (u64, Range<usize>, Result<DeltaBatch, StorageError>);

/// One deliverable batch: sequence id, payload range, decoded batch.
type RunBatch = (u64, Range<usize>, DeltaBatch);

/// How far one unique sequence id of a run has progressed.
#[derive(Clone, Copy)]
enum Entry {
    /// Already applied (watermark or range) or quarantined at decode:
    /// nothing left to do, the prefix ack may pass over it.
    Done,
    /// Waiting on the apply group that owns deliverable batch `i`.
    Batch(usize),
}

/// One apply group: a maximal run of consecutive same-table value-delta
/// batches, or a single Op-Delta batch.
struct Group {
    /// Index range into the run's deliverable batches.
    batches: Range<usize>,
    first_seq: u64,
    last_seq: u64,
    /// Base table for value groups; `None` for Op-Delta groups.
    table: Option<String>,
}

/// Immutable per-run data shared between the main thread and the apply
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
/// within one wave, applied in sequence order by a single worker. The
/// epoch identifies the wave, so results of a wave the watchdog abandoned
/// are recognized as stale and discarded.
struct WorkItem {
    run: Arc<RunShared>,
    class: Vec<usize>,
    epoch: u64,
}

/// What one group's execution reported back.
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

impl GroupOutcome {
    fn empty() -> GroupOutcome {
        GroupOutcome {
            report: ApplyReport::default(),
            batches_applied: 0,
            groups_committed: 0,
            retries: 0,
            quarantined: 0,
            failed: None,
        }
    }
}

/// The apply worker pool spawned once per sync: classes flow out through a
/// shared work channel, per-class outcome vectors flow back tagged with
/// their wave epoch. Workers exit when the work channel closes.
struct WorkerPool {
    work: mpsc::Sender<WorkItem>,
    results: mpsc::Receiver<(u64, Vec<(usize, GroupOutcome)>)>,
    /// Total nanos workers spent executing groups, across the sync.
    busy_nanos: Arc<AtomicU64>,
    /// Watchdog stand-down flag: set when a wave misses its deadline;
    /// workers observe it at group boundaries and stop early. Reset before
    /// each wave is dispatched.
    cancel: Arc<AtomicBool>,
    /// Monotone wave counter for tagging work and results.
    epoch: AtomicU64,
}

/// Apply-worker loop: take one class at a time and run its groups in
/// sequence order, stopping at the first fail-stop failure (later groups
/// of the class must not apply past a hole in their table's order) or at
/// a watchdog stand-down (cancellation is cooperative and only observed
/// between groups — a group mid-apply runs to completion, which is safe
/// because redelivery dedupes whatever it commits).
fn apply_worker(
    pipe: &Pipeline,
    wh: &Warehouse,
    work: &Mutex<mpsc::Receiver<WorkItem>>,
    results: mpsc::Sender<(u64, Vec<(usize, GroupOutcome)>)>,
    busy_nanos: &AtomicU64,
    cancel: &AtomicBool,
) {
    loop {
        // Holding the lock across the blocking recv is fine: at most one
        // worker parks inside while the rest park on the mutex, and every
        // queued item wakes exactly one of them in turn.
        let item = match work.lock().recv() {
            Ok(item) => item,
            Err(_) => return,
        };
        let started = Instant::now();
        let mut out = Vec::with_capacity(item.class.len());
        for &g in &item.class {
            if cancel.load(Ordering::Acquire) {
                // The wave was abandoned; unexecuted groups stay `None`
                // in the outcome table and redeliver.
                break;
            }
            let group = &item.run.groups[g];
            let outcome = execute_group(
                pipe,
                wh,
                &item.run.batches[group.batches.clone()],
                &item.run.arena,
                AppliedMark::Range(group.first_seq, group.last_seq),
                true,
            );
            let stop = outcome.failed.is_some();
            out.push((g, outcome));
            if stop {
                break;
            }
        }
        busy_nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if results.send((item.epoch, out)).is_err() {
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

/// Drain the pipeline's queue into the warehouse. See the module docs for
/// the loop; see [`Pipeline::sync`] for the contract.
pub(crate) fn run_sync(pipe: &Pipeline, wh: &Warehouse) -> EngineResult<SyncReport> {
    let mut report = SyncReport::default();
    wh.ensure_applied_watermark()?;
    let workers = resolved_workers(pipe);
    let classes = if workers > 1 {
        // A crashed parallel sync may have left committed ranges behind;
        // fold whatever prefix already closed before dedupe reads it.
        wh.fold_applied_ranges()?;
        wh.apply_classes()
    } else {
        HashMap::new()
    };
    std::thread::scope(|scope| {
        let pool = if workers > 1 {
            let (work_tx, work_rx) = mpsc::channel::<WorkItem>();
            let (result_tx, result_rx) = mpsc::channel::<(u64, Vec<(usize, GroupOutcome)>)>();
            let work_rx = Arc::new(Mutex::new(work_rx));
            let busy = Arc::new(AtomicU64::new(0));
            let cancel = Arc::new(AtomicBool::new(false));
            for _ in 0..workers {
                let work_rx = Arc::clone(&work_rx);
                let result_tx = result_tx.clone();
                let busy = Arc::clone(&busy);
                let cancel = Arc::clone(&cancel);
                scope.spawn(move || apply_worker(pipe, wh, &work_rx, result_tx, &busy, &cancel));
            }
            Some(WorkerPool {
                work: work_tx,
                results: result_rx,
                busy_nanos: busy,
                cancel,
                epoch: AtomicU64::new(0),
            })
        } else {
            None
        };
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
            let frames: Vec<DecodedFrame> = dequeued
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
            match sync_one_run(
                pipe,
                wh,
                arena,
                frames,
                workers,
                &classes,
                pool.as_ref(),
                &mut report,
            )? {
                Some(recycled) => arena = recycled,
                // A stalled wave ended the drain: the cursor has been
                // rewound to the ack so the next sync redelivers, and the
                // scope join below waits out any late worker (its commits
                // dedupe on redelivery).
                None => break,
            }
        }
        if let Some(pool) = &pool {
            report.worker_busy_nanos += pool.busy_nanos.load(Ordering::Relaxed);
        }
        Ok(report)
    })
}

/// Apply one decoded run and return its arena for reuse (`None` ends the
/// sync early: the stall watchdog abandoned a wave). On a fail-stop error
/// the completed prefix is acked, the cursor rewinds to the ack, and the
/// error surfaces.
#[allow(clippy::too_many_arguments)]
fn sync_one_run(
    pipe: &Pipeline,
    wh: &Warehouse,
    arena: Vec<u8>,
    mut frames: Vec<DecodedFrame>,
    workers: usize,
    classes: &HashMap<String, usize>,
    pool: Option<&WorkerPool>,
    report: &mut SyncReport,
) -> EngineResult<Option<Vec<u8>>> {
    // Restore sequence order (reordered delivery), then classify every
    // unique sequence id: already applied (stale), poison at decode, or
    // deliverable.
    frames.sort_by_key(|(idx, _, _)| *idx);
    let applied = wh.applied_state()?;
    let mut entries: Vec<(u64, Entry)> = Vec::with_capacity(frames.len());
    let mut batches: Vec<RunBatch> = Vec::with_capacity(frames.len());
    let mut decode_failure: Option<EngineError> = None;
    for (idx, range, decoded) in frames {
        if entries.last().is_some_and(|(last, _)| *last == idx) {
            // Duplicated delivery within the run.
            report.deduped += 1;
            continue;
        }
        if applied.contains(idx) {
            // Applied in a previous life but possibly never acked (crash
            // between commit and ack, or a lost ack): completed, so the
            // prefix ack below re-acks it and it stops redelivering.
            report.deduped += 1;
            entries.push((idx, Entry::Done));
            continue;
        }
        if pipe.already_quarantined(idx) {
            // Parked in the DLQ by an earlier sync but redelivered (lost
            // ack, cursor rewind): equally completed — re-applying would
            // fail again and duplicate the DLQ entry.
            report.deduped += 1;
            entries.push((idx, Entry::Done));
            continue;
        }
        match decoded {
            Ok(batch) => {
                entries.push((idx, Entry::Batch(batches.len())));
                batches.push((idx, range, batch));
            }
            // A corrupt payload is poison by construction: quarantine it
            // when a retry policy is active, otherwise fail stop (below,
            // after the completed prefix is acked).
            Err(e) if pipe.retry.is_some() => {
                pipe.quarantine_frame(idx, &arena[range], &EngineError::Storage(e))?;
                report.quarantined += 1;
                entries.push((idx, Entry::Done));
            }
            Err(e) => {
                decode_failure = Some(EngineError::Storage(e));
                break;
            }
        }
    }
    // Never apply across a sequence gap: acking past one would silently
    // skip the missing batch. (The fault adapter truncates runs at a loss,
    // so gaps should not occur; this is a guard.)
    if decode_failure.is_none() {
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
    }

    let groups = build_groups(&batches);
    let shared = Arc::new(RunShared {
        arena,
        batches,
        groups,
    });
    let mut outcomes: Vec<Option<GroupOutcome>> = Vec::new();
    let stalls_before = report.stalls;
    if decode_failure.is_none() {
        let apply_started = Instant::now();
        outcomes = run_waves(pipe, wh, &shared, classes, workers, pool, report);
        report.apply_nanos += apply_started.elapsed().as_nanos() as u64;
        for outcome in outcomes.iter().flatten() {
            report.batches += outcome.batches_applied;
            report.runs += outcome.groups_committed;
            report.retries += outcome.retries;
            report.quarantined += outcome.quarantined;
            report.apply.merge(outcome.report);
        }
    }

    // Advance the queue ack over the contiguous completed prefix, then
    // fold whatever watermark ranges that closed.
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
    if let Some(hi) = ack_hi {
        pipe.queue.ack(hi).map_err(EngineError::Storage)?;
    }
    if workers > 1 && decode_failure.is_none() {
        wh.fold_applied_ranges()?;
    }
    report.ack_nanos += ack_started.elapsed().as_nanos() as u64;

    // Surface the earliest fail-stop error, if any.
    let mut failure = decode_failure;
    if failure.is_none() {
        let mut first: Option<(u64, usize)> = None;
        for (g, outcome) in outcomes.iter().enumerate() {
            if let Some(o) = outcome {
                if o.failed.is_some()
                    && first.is_none_or(|(seq, _)| shared.groups[g].first_seq < seq)
                {
                    first = Some((shared.groups[g].first_seq, g));
                }
            }
        }
        if let Some((_, g)) = first {
            failure = outcomes[g].as_mut().and_then(|o| o.failed.take());
        }
    }
    match failure {
        Some(e) => {
            pipe.queue.rewind_to_acked();
            Err(e)
        }
        // A stalled wave isn't an error — the incomplete suffix is a
        // normal redelivery case — but the drain must stop: rewind the
        // cursor so the next sync re-dequeues the abandoned sequences
        // (late commits from the stuck worker dedupe against the
        // watermark ranges it recorded).
        None if report.stalls > stalls_before => {
            pipe.queue.rewind_to_acked();
            Ok(None)
        }
        // Recover the arena for reuse when the workers have already
        // dropped their handles (they have: every class result was
        // collected; the unwrap only races a worker's final drop).
        None => Ok(Some(
            Arc::try_unwrap(shared).map(|s| s.arena).unwrap_or_default(),
        )),
    }
}

/// Split the run's deliverable batches into apply groups: maximal runs of
/// consecutive same-table value deltas, single Op-Deltas.
fn build_groups(batches: &[RunBatch]) -> Vec<Group> {
    let mut groups = Vec::new();
    let mut i = 0;
    while i < batches.len() {
        let end = match &batches[i].2 {
            DeltaBatch::Value(vd) => {
                let mut j = i + 1;
                while let Some((_, _, DeltaBatch::Value(next))) = batches.get(j) {
                    if next.table != vd.table {
                        break;
                    }
                    j += 1;
                }
                j
            }
            DeltaBatch::Op(_) => i + 1,
        };
        let table = match &batches[i].2 {
            DeltaBatch::Value(vd) => Some(vd.table.clone()),
            DeltaBatch::Op(_) => None,
        };
        groups.push(Group {
            batches: i..end,
            first_seq: batches[i].0,
            last_seq: batches[end - 1].0,
            table,
        });
        i = end;
    }
    groups
}

/// Execute the run's groups in waves: consecutive value-delta groups form
/// one wave whose concurrency classes apply in parallel on the worker
/// pool; each Op-Delta group — and any wave with a single class — runs
/// serially on the calling thread. Returns per-group outcomes (`None` =
/// not attempted because an earlier wave failed).
fn run_waves(
    pipe: &Pipeline,
    wh: &Warehouse,
    shared: &Arc<RunShared>,
    classes: &HashMap<String, usize>,
    workers: usize,
    pool: Option<&WorkerPool>,
    report: &mut SyncReport,
) -> Vec<Option<GroupOutcome>> {
    let groups = &shared.groups;
    let mut outcomes: Vec<Option<GroupOutcome>> = Vec::with_capacity(groups.len());
    outcomes.resize_with(groups.len(), || None);
    let mut wave_start = 0;
    while wave_start < groups.len() {
        // A wave: one Op-Delta group, or a maximal run of value groups.
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
        // (no mirror: poison) share one serial bucket.
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
        let mut failed_wave = false;
        match pool {
            // A single-class wave normally applies inline, but when a stage
            // deadline is armed it must still run on the pool: the watchdog
            // can only abandon work it is *waiting* on, not work it is doing.
            Some(pool) if class_groups.len() > 1 || pipe.stage_deadline.is_some() => {
                let concurrency = workers.min(class_groups.len()) as u64;
                report.workers_used = report.workers_used.max(concurrency);
                let dispatched = class_groups.len();
                let epoch = pool.epoch.fetch_add(1, Ordering::Relaxed);
                pool.cancel.store(false, Ordering::Release);
                for class in class_groups {
                    // A failed send means a worker panicked and the
                    // channel died; the missing outcomes below surface it
                    // as an incomplete (unacked, redelivered) suffix.
                    let _ = pool.work.send(WorkItem {
                        run: Arc::clone(shared),
                        class,
                        epoch,
                    });
                }
                let mut received = 0;
                while received < dispatched {
                    let msg = match pipe.stage_deadline {
                        Some(deadline) => match pool.results.recv_timeout(deadline) {
                            Ok(msg) => Some(msg),
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                // Watchdog: the wave missed its deadline.
                                // Flag the stand-down, count the stall,
                                // and abandon the wave — its incomplete
                                // groups stay unacked and redeliver. Any
                                // late result carries this epoch and is
                                // discarded by later waves.
                                pool.cancel.store(true, Ordering::Release);
                                report.stalls += 1;
                                failed_wave = true;
                                break;
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => None,
                        },
                        None => pool.results.recv().ok(),
                    };
                    let Some((ep, class_out)) = msg else {
                        failed_wave = true;
                        break;
                    };
                    if ep != epoch {
                        // Stale result from a wave the watchdog abandoned
                        // (possibly in an earlier run): its outcome table
                        // is gone; redelivery settles whatever it did.
                        continue;
                    }
                    received += 1;
                    for (g, out) in class_out {
                        failed_wave |= out.failed.is_some();
                        outcomes[g] = Some(out);
                    }
                }
            }
            _ => {
                report.workers_used = report.workers_used.max(1);
                for g in wave {
                    let started = Instant::now();
                    let group = &groups[g];
                    let mark = if pool.is_some() && group.table.is_some() {
                        // Parallel syncs record ranges even for serial
                        // waves: earlier parallel waves may not have
                        // folded yet, and a watermark jump must not imply
                        // batches this run never saw.
                        AppliedMark::Range(group.first_seq, group.last_seq)
                    } else {
                        AppliedMark::Watermark(group.last_seq)
                    };
                    let out = execute_group(
                        pipe,
                        wh,
                        &shared.batches[group.batches.clone()],
                        &shared.arena,
                        mark,
                        pool.is_some(),
                    );
                    report.worker_busy_nanos += started.elapsed().as_nanos() as u64;
                    let stop = out.failed.is_some();
                    outcomes[g] = Some(out);
                    if stop {
                        failed_wave = true;
                        break;
                    }
                }
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
fn execute_group(
    pipe: &Pipeline,
    wh: &Warehouse,
    group: &[RunBatch],
    arena: &[u8],
    mark: AppliedMark,
    ranged: bool,
) -> GroupOutcome {
    let mut out = GroupOutcome::empty();
    // Deterministic injected stall (watchdog torture): sleep once per
    // planned group, before the apply, so the wave's deadline fires while
    // no transaction is open.
    if let (Some(inj), Some(first)) = (&pipe.stall_injector, group.first()) {
        if let Some(pause) = inj.take_stall(first.0) {
            std::thread::sleep(pause);
        }
    }
    match apply_with_retry(pipe, wh, group, mark, &mut out.retries) {
        Ok(applied) => {
            out.report.merge(applied);
            out.batches_applied = group.len() as u64;
            out.groups_committed = 1;
        }
        Err(_) if pipe.retry.is_some() && group.len() > 1 => {
            // Isolate the poison: re-apply the group one batch at a time
            // so only the bad batch is quarantined.
            for batch in group {
                let single_mark = if ranged {
                    AppliedMark::Range(batch.0, batch.0)
                } else {
                    AppliedMark::Watermark(batch.0)
                };
                match apply_with_retry(
                    pipe,
                    wh,
                    std::slice::from_ref(batch),
                    single_mark,
                    &mut out.retries,
                ) {
                    Ok(applied) => {
                        out.report.merge(applied);
                        out.batches_applied += 1;
                        out.groups_committed += 1;
                    }
                    Err(e) => match pipe.quarantine_frame(batch.0, &arena[batch.1.clone()], &e) {
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
            let batch = &group[0];
            match pipe.quarantine_frame(batch.0, &arena[batch.1.clone()], &e) {
                Ok(()) => out.quarantined += 1,
                Err(dlq_err) => out.failed = Some(dlq_err),
            }
        }
        Err(e) => out.failed = Some(e),
    }
    out
}

/// One apply attempt loop for a group, with bounded backoff under the
/// pipeline's retry policy.
fn apply_with_retry(
    pipe: &Pipeline,
    wh: &Warehouse,
    group: &[RunBatch],
    mark: AppliedMark,
    retries: &mut u64,
) -> EngineResult<ApplyReport> {
    let first = group
        .first()
        .ok_or_else(|| EngineError::Invalid("empty apply group".into()))?;
    let mut attempt = 1u32;
    loop {
        let result = match &first.2 {
            DeltaBatch::Value(_) => {
                let vds: Vec<&ValueDelta> = group
                    .iter()
                    .filter_map(|(_, _, b)| match b {
                        DeltaBatch::Value(vd) => Some(vd),
                        DeltaBatch::Op(_) => None,
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
