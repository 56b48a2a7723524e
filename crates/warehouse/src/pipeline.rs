//! The end-to-end incremental maintenance pipeline of Figure 1:
//! extraction at the source → transport → integration at the warehouse.
//!
//! [`Pipeline`] connects a durable queue between producers (any extractor's
//! output, wrapped in a [`DeltaBatch`]) and the warehouse appliers. Delivery
//! is at-least-once; the warehouse acknowledges a batch only after the apply
//! transaction commits, so a crash between apply and ack at worst replays a
//! batch (value-delta inserts are keyed, Op-Delta transactions are replayed
//! idempotently only if the operator chooses to re-drain — the report makes
//! redeliveries visible).
//!
//! `sync` drains the queue in *runs* of up to [`Pipeline::with_batch_size`]
//! payloads. Consecutive value-delta batches for the same table share one
//! warehouse transaction (one maintenance outage instead of one per batch),
//! and the whole group is acknowledged only after that transaction commits.
//! A crash mid-run re-delivers the unacknowledged suffix — the same
//! at-least-once contract as before, amortized. Op-Delta batches keep their
//! one-transaction-per-source-transaction semantics; their statements cross
//! the queue as text and are parsed by the applier that executes them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use delta_core::colcodec::{encode_batch, encode_value_batch};
use delta_core::extractor::DeltaSource;
use delta_core::logextract::{ResilientLogExtractor, StagedExtract};
use delta_core::model::DeltaBatch;
use delta_core::opdelta::{clear_shipped, collect_from_table};
use delta_core::stmtcache::CacheStats;
use delta_core::transform::DeltaTransform;
use delta_engine::db::Database;
use delta_engine::{EngineError, EngineResult};
use delta_storage::colbatch::DEFAULT_BLOCK_ROWS;
use delta_storage::fault::splitmix64;
use delta_storage::DeltaCodec;
use delta_transport::{NetFaultPlan, NetFaultSim, PersistentQueue};
use parking_lot::Mutex;

use crate::apply::{ApplyReport, Warehouse};

/// What one `sync` call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Batches dequeued and applied.
    pub batches: u64,
    /// Apply groups executed (each is one ack; value-delta groups are also
    /// one warehouse transaction).
    pub runs: u64,
    /// Redelivered batches skipped because the warehouse watermark showed
    /// them already applied (or they arrived twice in one run).
    pub deduped: u64,
    /// Apply attempts repeated under the retry policy.
    pub retries: u64,
    /// Poison batches parked in the dead-letter queue.
    pub quarantined: u64,
    /// Aggregated apply statistics.
    pub apply: ApplyReport,
    /// Nanoseconds spent dequeuing and decoding runs.
    pub decode_nanos: u64,
    /// Nanoseconds of wall time spent in the apply stage (grouping,
    /// scheduling, and waiting for worker transactions).
    pub apply_nanos: u64,
    /// Nanoseconds spent acknowledging the queue and folding the
    /// applied-sequence watermark.
    pub ack_nanos: u64,
    /// Summed nanoseconds workers spent inside apply transactions; divide
    /// by `apply_nanos * workers_used` for pool occupancy.
    pub worker_busy_nanos: u64,
    /// Most concurrent apply workers used by any wave this sync.
    pub workers_used: u64,
    /// Always 0: `sync` has no stall deadline (see [`crate::sched`]). The
    /// field stays because the frozen dwbench harness reads it.
    pub stalls: u64,
    /// Producer-side disk-budget denials observed (folded in from
    /// [`ShipReport`]s by drivers that aggregate both sides).
    pub backpressure: u64,
    /// Extraction rounds that degraded to the coalesced (netted) form
    /// under transport backpressure (folded in from [`ShipReport`]s).
    pub degradations: u64,
}

/// What one [`Pipeline::ship`] round did on the producer side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// Delta batches durably enqueued this round.
    pub published: u64,
    /// Enqueues denied by the queue's disk budget.
    pub backpressure: u64,
    /// Spool compactions attempted while climbing the ladder.
    pub compactions: u64,
    /// Rounds that fell back to the coalesced (netted) form.
    pub degradations: u64,
    /// Rounds deferred entirely (even the coalesced form did not fit);
    /// nothing advanced, the next round retries from the same watermark.
    pub deferred: u64,
}

/// Bounded retry with exponential backoff and seeded jitter for failed
/// apply groups. Enabling a policy (see [`Pipeline::with_retry`]) also
/// enables poison-batch quarantine: a batch still failing after
/// `max_attempts` is parked in the dead-letter queue with its error, and
/// the pipeline keeps draining instead of wedging.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total apply attempts per group (≥ 1) before quarantine.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each further attempt.
    pub base_backoff: Duration,
    /// Cap on the exponential backoff (jitter may still exceed it slightly).
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A policy with short test-friendly backoffs (1 ms base, 16 ms cap).
    pub fn quick(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(16),
            jitter_seed: 0,
        }
    }

    /// Backoff before attempt `attempt + 1` (attempts are counted from 1):
    /// `min(base * 2^(attempt-1), max)` plus up to one `base` of jitter.
    pub(crate) fn backoff(&self, attempt: u32, jitter_state: &mut u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16));
        let capped = exp.min(self.max_backoff);
        let base_us = self.base_backoff.as_micros() as u64;
        let jitter_us = if base_us == 0 {
            0
        } else {
            splitmix64(jitter_state) % base_us
        };
        capped + Duration::from_micros(jitter_us)
    }
}

/// A poison batch parked in the dead-letter queue: its queue sequence id,
/// the error that exhausted the retries, and the original payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedDelta {
    pub index: u64,
    pub error: String,
    pub payload: Vec<u8>,
}

/// Default number of queued payloads pulled per dequeue run.
pub const DEFAULT_SYNC_BATCH: u64 = 64;

/// Whether an engine error is the transport budget's typed disk-full
/// signal (the only error the ship ladder degrades on — everything else
/// propagates).
fn is_disk_full(e: &EngineError) -> bool {
    matches!(e, EngineError::Storage(s) if s.is_disk_full())
}

/// A queue-backed delta pipeline into one warehouse.
pub struct Pipeline {
    pub(crate) queue: PersistentQueue,
    pub(crate) batch_size: u64,
    /// Operations replayed by committed Op-Delta applies (each parsed once
    /// and rewritten or expanded once, where it ran) — what the two
    /// `*_cache_stats` accessors report as misses.
    pub(crate) ops_replayed: AtomicU64,
    pub(crate) retry: Option<RetryPolicy>,
    /// Dead-letter queue for quarantined poison batches (`<queue>.dlq`);
    /// opened when a retry policy is configured.
    pub(crate) dlq: Option<PersistentQueue>,
    /// Sequence ids already parked in the DLQ. Redeliveries of these (lost
    /// acks, cursor rewinds) are complete as far as the stream is
    /// concerned and must not be re-applied or re-quarantined.
    dlq_indices: Mutex<std::collections::BTreeSet<u64>>,
    dlq_path: std::path::PathBuf,
    /// Sidecar listing resolved DLQ sequence ids (`<queue>.dlq.resolved`),
    /// appended by [`Pipeline::resolve_dlq`] / [`Pipeline::requeue_dlq`].
    resolved_path: std::path::PathBuf,
    /// Side channel for audit digest batches (`<queue>.audit`).
    audit_path: std::path::PathBuf,
    /// Seeded transport-fault simulator applied to every dequeue.
    pub(crate) net_faults: Option<Mutex<NetFaultSim>>,
    pub(crate) jitter_state: Mutex<u64>,
    /// Apply workers for `sync`; 0 means available parallelism.
    pub(crate) sync_workers: usize,
    /// Deterministic injected apply stalls (fault injection).
    pub(crate) stall_injector: Option<crate::watchdog::StallInjector>,
}

impl Pipeline {
    /// Open (or create) the pipeline's queue at `queue_path`.
    pub fn open(queue_path: impl AsRef<std::path::Path>) -> EngineResult<Pipeline> {
        let queue_path = queue_path.as_ref();
        Ok(Pipeline {
            queue: PersistentQueue::open(queue_path).map_err(EngineError::Storage)?,
            batch_size: DEFAULT_SYNC_BATCH,
            ops_replayed: AtomicU64::new(0),
            retry: None,
            dlq: None,
            dlq_indices: Mutex::new(std::collections::BTreeSet::new()),
            dlq_path: queue_path.with_extension("dlq"),
            resolved_path: queue_path.with_extension("dlq.resolved"),
            audit_path: queue_path.with_extension("audit"),
            net_faults: None,
            jitter_state: Mutex::new(0),
            sync_workers: 0,
            stall_injector: None,
        })
    }

    /// Arm a disk budget on the pipeline's queue spool: enqueues that
    /// exceed it fail with the typed
    /// [`DiskFull`](delta_storage::StorageError::DiskFull) error, which
    /// [`Pipeline::ship`] turns into graceful degradation instead of loss.
    pub fn with_queue_budget(
        mut self,
        budget: std::sync::Arc<delta_storage::DiskBudget>,
    ) -> Pipeline {
        self.queue = self.queue.with_spool_budget(budget);
        self
    }

    /// Inject deterministic apply-stage stalls (see
    /// [`StallPlan`](crate::watchdog::StallPlan)): a planned group sleeps
    /// once before its apply, so its class commits after its siblings —
    /// out of sequence order — and the prefix ack and range fold are
    /// exercised under the torture harness's `--pressure` mode.
    pub fn with_injected_stalls(mut self, plan: crate::watchdog::StallPlan) -> Pipeline {
        self.stall_injector = Some(crate::watchdog::StallInjector::new(plan));
        self
    }

    /// Set how many workers `sync` may use to apply delta groups for
    /// *different* tables concurrently (0, the default = available
    /// parallelism; 1 = apply every group on the calling thread, in
    /// sequence order, spawning nothing).
    pub fn with_sync_workers(mut self, workers: usize) -> Pipeline {
        self.sync_workers = workers;
        self
    }

    /// A no-op: batches ship in the one columnar frame. It stays only
    /// because the frozen dwbench harness calls it, and ROADMAP item 5's
    /// benchmark PR removes it with [`DeltaCodec`].
    pub fn with_codec(self, _codec: DeltaCodec) -> Pipeline {
        self
    }

    /// Set how many queued payloads `sync` pulls per run (min 1). A size of
    /// 1 reproduces the unbatched one-ack-per-batch behaviour.
    pub fn with_batch_size(mut self, n: u64) -> Pipeline {
        self.batch_size = n.max(1);
        self
    }

    /// Enable bounded retry with backoff for failed apply groups and
    /// quarantine of poison batches into the dead-letter queue at
    /// `<queue>.dlq`. Without a policy, a failed apply rewinds and surfaces
    /// the error (the pre-existing fail-stop behaviour).
    pub fn with_retry(mut self, policy: RetryPolicy) -> EngineResult<Pipeline> {
        self.dlq = Some(PersistentQueue::open(&self.dlq_path).map_err(EngineError::Storage)?);
        *self.jitter_state.get_mut() = policy.jitter_seed;
        self.retry = Some(policy);
        // Prime the parked-sequence set from the persisted DLQ, so batches
        // quarantined by an earlier pipeline incarnation are not re-applied
        // when a lost ack redelivers them.
        let parked: std::collections::BTreeSet<u64> =
            self.quarantined()?.into_iter().map(|q| q.index).collect();
        *self.dlq_indices.get_mut() = parked;
        Ok(self)
    }

    /// Route every dequeue through a seeded transport-fault simulator
    /// (loss, duplication, reordering, lost acks). `sync` stays convergent:
    /// it restores order and deduplicates by sequence id.
    pub fn with_net_faults(mut self, plan: NetFaultPlan) -> Pipeline {
        self.net_faults = Some(Mutex::new(NetFaultSim::new(plan)));
        self
    }

    /// Frozen-harness remnant (see [`CacheStats`]): operations parsed by
    /// committed Op-Delta replays as `misses`, `hits` always 0 — there is
    /// no parse cache.
    pub fn stmt_cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: 0,
            misses: self.ops_replayed.load(Ordering::Relaxed),
        }
    }

    /// Frozen-harness remnant: the same count — every replayed operation
    /// is also rewritten against its mirror (or, hybrid, expanded from its
    /// before image) once; there is no rewrite cache.
    pub fn rewrite_cache_stats(&self) -> CacheStats {
        self.stmt_cache_stats()
    }

    /// The underlying queue (for inspection in tests and examples).
    pub fn queue(&self) -> &PersistentQueue {
        &self.queue
    }

    /// Publish one delta batch from the source side.
    pub fn publish(&self, batch: &DeltaBatch) -> EngineResult<u64> {
        self.queue
            .enqueue(&encode_batch(batch, DEFAULT_BLOCK_ROWS))
            .map_err(EngineError::Storage)
    }

    /// Pull every registered value-delta source once, run each batch through
    /// its transform (identity when `None`), and publish what survives.
    /// Returns the number of batches published — the source half of
    /// Figure 1's extract → transform → transport chain.
    pub fn collect(
        &self,
        db: &Database,
        sources: &mut [(Box<dyn DeltaSource>, Option<DeltaTransform>)],
    ) -> EngineResult<u64> {
        let mut published = 0;
        for (source, transform) in sources {
            for vd in source.pull(db)? {
                let shipped = match transform {
                    Some(t) => t.apply(&vd, db.peek_clock())?,
                    None => vd,
                };
                if shipped.is_empty() {
                    continue;
                }
                self.publish(&DeltaBatch::Value(shipped))?;
                published += 1;
            }
        }
        Ok(published)
    }

    /// Publish the contents of an Op-Delta log table and clear what was
    /// published (the capture-side handoff for `OpDeltaCapture` with a
    /// table sink). Safe beside live capture: the log is read under a
    /// Shared table lock, so only committed operations ship (an open
    /// capture transaction is waited out, or the typed lock timeout
    /// surfaces and the next round retries), and only records up to the
    /// highest sequence number collected are deleted — an operation
    /// captured while this call runs stays for the next one. The statements
    /// are not parsed here: a log row that is not SQL ships like any other
    /// and fails its apply at the warehouse.
    ///
    /// The publish is all-or-nothing: every captured transaction is
    /// enqueued in one spool append, and the log table is cleared only
    /// after that append is durable. If the queue's disk budget denies the
    /// append, one spool compaction is attempted and the append retried;
    /// if it still does not fit, the typed [`DiskFull`] error surfaces
    /// *with the capture table intact* — nothing is lost, the next collect
    /// retries the same transactions.
    ///
    /// [`DiskFull`]: delta_storage::StorageError::DiskFull
    pub fn collect_op_log(&self, db: &Database, log_table: &str) -> EngineResult<u64> {
        let ods = collect_from_table(db, log_table)?;
        let Some(shipped_through) = ods.iter().flat_map(|od| &od.ops).map(|op| op.seq).max() else {
            return Ok(0);
        };
        let frames: Vec<Vec<u8>> = ods
            .into_iter()
            .map(|od| encode_batch(&DeltaBatch::Op(od), DEFAULT_BLOCK_ROWS))
            .collect();
        if let Err(e) = self.queue.enqueue_all(&frames) {
            if !e.is_disk_full() {
                return Err(EngineError::Storage(e));
            }
            self.queue.compact().map_err(EngineError::Storage)?;
            self.queue
                .enqueue_all(&frames)
                .map_err(EngineError::Storage)?;
        }
        clear_shipped(db, log_table, shipped_through)?;
        Ok(frames.len() as u64)
    }

    /// Run one staged extraction round and publish it, degrading
    /// gracefully under transport backpressure instead of erroring. The
    /// ladder, climbed one rung per denial of the queue's disk budget:
    ///
    /// 1. **Op form** — stage via [`ResilientLogExtractor::stage`] (full
    ///    transaction context) and enqueue all batches in one append.
    /// 2. **Compact** — reclaim the spool's fully-acked prefix
    ///    ([`PersistentQueue::compact`]) and retry the same staged round.
    /// 3. **Coalesce** — restage via
    ///    [`stage_coalesced`](ResilientLogExtractor::stage_coalesced): the
    ///    same log tail netted to one record per changed key (§3.1.2's
    ///    trade — fewer bytes, no transaction context).
    /// 4. **Defer** — if even the coalesced form does not fit, return with
    ///    `deferred = 1`. The watermark did not move, so the next round
    ///    re-extracts everything; once pressure lifts, the stream resumes
    ///    with zero loss.
    ///
    /// The extractor commits (its watermark advances) only after its
    /// round's batches are durably enqueued, so a round that fails half way
    /// — including a crash — is simply re-staged. Every rung reads the log
    /// tail and no table. A lost log segment is not a rung: `stage` fails
    /// with [`EngineError::AuditOwed`], which this returns as it is.
    pub fn ship(
        &self,
        db: &Database,
        extractor: &mut ResilientLogExtractor,
    ) -> EngineResult<ShipReport> {
        let mut report = ShipReport::default();
        let staged = extractor.stage(db)?;
        if let Some(n) = self.try_publish(&staged, &mut report)? {
            report.published = n;
            extractor.commit(staged)?;
            return Ok(report);
        }
        // Rung 2: make room from our own fully-acked history and retry.
        report.compactions += 1;
        self.queue.compact().map_err(EngineError::Storage)?;
        if let Some(n) = self.try_publish(&staged, &mut report)? {
            report.published = n;
            extractor.commit(staged)?;
            return Ok(report);
        }
        // Rung 3: trade transaction context for bytes.
        report.degradations += 1;
        let coalesced = extractor.stage_coalesced(db)?;
        match self.try_publish(&coalesced, &mut report)? {
            Some(n) => {
                report.published = n;
                extractor.commit(coalesced)?;
            }
            // Rung 4: defer the whole round; nothing advanced.
            None => report.deferred = 1,
        }
        Ok(report)
    }

    /// [`Pipeline::publish_staged`], with a denial of the queue's disk
    /// budget counted as backpressure and returned as `None`.
    fn try_publish(
        &self,
        staged: &StagedExtract,
        report: &mut ShipReport,
    ) -> EngineResult<Option<u64>> {
        match self.publish_staged(staged) {
            Ok(n) => Ok(Some(n)),
            Err(e) if is_disk_full(&e) => {
                report.backpressure += 1;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Enqueue every delta of a staged round in one all-or-nothing spool
    /// append. Returns the number of batches enqueued.
    fn publish_staged(&self, staged: &StagedExtract) -> EngineResult<u64> {
        let frames: Vec<Vec<u8>> = staged
            .outcome
            .deltas
            .iter()
            .map(|vd| encode_value_batch(vd, DEFAULT_BLOCK_ROWS))
            .collect();
        if frames.is_empty() {
            return Ok(0);
        }
        self.queue
            .enqueue_all(&frames)
            .map_err(EngineError::Storage)?;
        Ok(frames.len() as u64)
    }

    /// Drain the queue into the warehouse through the apply scheduler (see
    /// [`crate::sched`]): the calling thread dequeues and decodes one run
    /// at a time, value-delta groups for unrelated tables apply
    /// concurrently on up to [`Pipeline::with_sync_workers`] workers
    /// (Op-Delta batches are full barriers), and view maintenance runs once
    /// per value-delta run (once per replayed Op-Delta statement).
    /// Consecutive value-delta batches for one table share a single
    /// warehouse transaction, applied by key through the engine's row
    /// primitives ([`crate::direct::DirectValueApplier`]) rather than as
    /// SQL statements; Op-Deltas replay one warehouse transaction each.
    ///
    /// Every apply group records its sequence range in the warehouse inside
    /// its own transaction; the queue ack and the warehouse's
    /// applied-sequence watermark only ever advance over the contiguous
    /// completed prefix of the sequence, no matter the commit order, so
    /// redelivery stays exactly-once-observable: batches recorded as
    /// applied (lost acks, crash between commit and ack, duplicated
    /// delivery) are skipped, and out-of-order delivery is restored by
    /// sequence id before applying. With one worker groups apply and commit
    /// in sequence order.
    ///
    /// A frame that does not decode fails its apply like any other poison
    /// batch. Without a [`RetryPolicy`], a failed apply acks the completed
    /// prefix before it, rewinds the dequeue cursor so the unacknowledged
    /// suffix is redelivered by the next `sync`, and returns the error.
    /// With one, the group is retried with backoff (an undecodable frame is
    /// not: decoding is deterministic) and — if it keeps failing — isolated
    /// per batch; batches that still fail are parked in the dead-letter
    /// queue and the pipeline keeps draining.
    pub fn sync(&self, wh: &Warehouse) -> EngineResult<SyncReport> {
        crate::sched::run_sync(self, wh)
    }

    /// Park a poison batch in the dead-letter queue (sequence id + error +
    /// original payload). The caller owns acknowledgement: the scheduler
    /// advances the queue ack over quarantined sequences only once the
    /// contiguous prefix before them has completed. The quarantined payload
    /// stays inspectable via [`Pipeline::quarantined`].
    pub(crate) fn quarantine_frame(
        &self,
        idx: u64,
        payload: &[u8],
        error: &EngineError,
    ) -> EngineResult<()> {
        let dlq = self
            .dlq
            .as_ref()
            .ok_or_else(|| EngineError::Invalid("quarantine requires a retry policy".into()))?;
        let err_text = error.to_string();
        let mut frame = Vec::with_capacity(12 + err_text.len() + payload.len());
        frame.extend_from_slice(&idx.to_le_bytes());
        frame.extend_from_slice(&(err_text.len() as u32).to_le_bytes());
        frame.extend_from_slice(err_text.as_bytes());
        frame.extend_from_slice(payload);
        dlq.enqueue(&frame).map_err(EngineError::Storage)?;
        self.dlq_indices.lock().insert(idx);
        Ok(())
    }

    /// Whether sequence id `idx` is already parked in the DLQ (this
    /// incarnation or a persisted earlier one).
    pub(crate) fn already_quarantined(&self, idx: u64) -> bool {
        self.dlq_indices.lock().contains(&idx)
    }

    /// Every batch parked in the dead-letter queue, oldest first. Works
    /// without a retry policy too: a pipeline reopened for inspection reads
    /// the on-disk DLQ spool directly if one exists.
    pub fn quarantined(&self) -> EngineResult<Vec<QuarantinedDelta>> {
        let transient;
        let dlq = match &self.dlq {
            Some(dlq) => dlq,
            None if self.dlq_path.exists() => {
                transient = PersistentQueue::open(&self.dlq_path).map_err(EngineError::Storage)?;
                &transient
            }
            None => return Ok(Vec::new()),
        };
        dlq.rewind_to(0);
        let mut arena = Vec::new();
        let frames = dlq
            .dequeue_run(dlq.total(), &mut arena)
            .map_err(EngineError::Storage)?;
        let mut out = Vec::with_capacity(frames.len());
        for (_, range) in frames {
            let frame = &arena[range];
            let (Some(idx_bytes), Some(len_bytes)) = (frame.get(0..8), frame.get(8..12)) else {
                return Err(EngineError::Storage(delta_storage::StorageError::Corrupt(
                    "dead-letter frame shorter than its header".into(),
                )));
            };
            let mut idx = [0u8; 8];
            idx.copy_from_slice(idx_bytes);
            let mut len = [0u8; 4];
            len.copy_from_slice(len_bytes);
            let index = u64::from_le_bytes(idx);
            let err_len = u32::from_le_bytes(len) as usize;
            if frame.len() < 12 + err_len {
                return Err(EngineError::Storage(delta_storage::StorageError::Corrupt(
                    "dead-letter frame truncated inside its error text".into(),
                )));
            }
            let error = String::from_utf8_lossy(&frame[12..12 + err_len]).into_owned();
            out.push(QuarantinedDelta {
                index,
                error,
                payload: frame[12 + err_len..].to_vec(),
            });
        }
        Ok(out)
    }

    /// Sequence ids marked resolved (drained, requeued, or superseded by an
    /// audit repair), read from the crash-safe append-only sidecar.
    fn resolved_set(&self) -> EngineResult<std::collections::BTreeSet<u64>> {
        let mut out = std::collections::BTreeSet::new();
        let Ok(body) = std::fs::read_to_string(&self.resolved_path) else {
            return Ok(out); // no sidecar yet: nothing resolved
        };
        for line in body.lines() {
            if let Ok(seq) = line.trim().parse::<u64>() {
                out.insert(seq);
            }
        }
        Ok(out)
    }

    /// Append every id in `seqs` to the resolved sidecar with one file open
    /// and no per-id re-read of the DLQ spool — the one sidecar writer; the
    /// audit's reconciliation calls it with the superseded set it computed
    /// from a single [`Pipeline::dlq_entries`] pass. Duplicate and
    /// already-resolved ids are harmless (the set semantics of
    /// [`Pipeline::resolved_set`] absorb them on read).
    pub(crate) fn mark_resolved_batch(&self, seqs: &[u64]) -> EngineResult<()> {
        if seqs.is_empty() {
            return Ok(());
        }
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.resolved_path)?;
        let mut body = String::with_capacity(seqs.len() * 8);
        for seq in seqs {
            body.push_str(&seq.to_string());
            body.push('\n');
        }
        f.write_all(body.as_bytes())?;
        Ok(())
    }

    /// The dead-letter queue's *open* entries: everything quarantined and
    /// not yet resolved or requeued — the operator's (and the auditor's)
    /// reprocessing worklist, oldest first.
    pub fn dlq_entries(&self) -> EngineResult<Vec<QuarantinedDelta>> {
        let resolved = self.resolved_set()?;
        Ok(self
            .quarantined()?
            .into_iter()
            .filter(|q| !resolved.contains(&q.index))
            .collect())
    }

    /// Mark the dead-letter entry with sequence id `seq` resolved without
    /// re-applying it (an audit repair superseded it, or the operator
    /// discarded it). Returns `false` if no open entry with that id exists.
    pub fn resolve_dlq(&self, seq: u64) -> EngineResult<bool> {
        let open = self.dlq_entries()?;
        if !open.iter().any(|q| q.index == seq) {
            return Ok(false);
        }
        self.mark_resolved_batch(&[seq])?;
        Ok(true)
    }

    /// Re-enqueue the dead-letter entry with sequence id `seq` on the main
    /// queue (it gets a fresh sequence id, applied by the next `sync`) and
    /// mark the original resolved. Returns the new sequence id, or `None`
    /// if no open entry with that id exists.
    pub fn requeue_dlq(&self, seq: u64) -> EngineResult<Option<u64>> {
        let open = self.dlq_entries()?;
        let Some(entry) = open.iter().find(|q| q.index == seq) else {
            return Ok(None);
        };
        let new_seq = self
            .queue
            .enqueue(&entry.payload)
            .map_err(EngineError::Storage)?;
        self.mark_resolved_batch(&[seq])?;
        Ok(Some(new_seq))
    }

    /// Open the pipeline's audit side channel (`<queue>.audit`), the
    /// transport leg digest batches travel on (see [`crate::audit`]). A
    /// separate queue keeps digests out of the delta sequence — they carry
    /// no watermark and must not consume delta sequence ids.
    pub fn audit_queue(&self) -> EngineResult<PersistentQueue> {
        PersistentQueue::open(&self.audit_path).map_err(EngineError::Storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::AppliedMark;
    use crate::mirror::MirrorConfig;
    use delta_core::model::{DeltaOp, OpDelta, OpLogRecord, ValueDelta, ValueDeltaRecord};
    use delta_engine::db::open_temp;
    use delta_storage::{Column, DataType, Row, Schema, StorageError, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("v", DataType::Int),
        ])
        .unwrap()
    }

    fn warehouse(label: &str) -> Warehouse {
        let db = open_temp(label).unwrap();
        let mut wh = Warehouse::new(db);
        wh.add_mirror(MirrorConfig::full("t", schema())).unwrap();
        wh
    }

    fn qpath(label: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "delta-pipe-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{label}.q"));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(PersistentQueue::ack_file(&p));
        p
    }

    #[test]
    fn mixed_batches_flow_end_to_end() {
        let wh = warehouse("pipe1");
        let pipe = Pipeline::open(qpath("pipe1")).unwrap();

        let mut vd = ValueDelta::new("t", schema());
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 0,
            row: Row::new(vec![Value::Int(1), Value::Int(10)]),
        });
        pipe.publish(&DeltaBatch::Value(vd)).unwrap();
        pipe.publish(&DeltaBatch::Op(OpDelta {
            txn: 1,
            ops: vec![OpLogRecord {
                seq: 1,
                txn: 1,
                sql: "UPDATE t SET v = 99 WHERE id = 1".into(),
                before_image: None,
            }],
        }))
        .unwrap();

        let report = pipe.sync(&wh).unwrap();
        assert_eq!(report.batches, 2);
        assert_eq!(report.apply.transactions, 2);
        let rows = wh.db().scan_table("t").unwrap();
        assert_eq!(rows[0].1.values()[1], Value::Int(99));
        // Queue fully acknowledged.
        assert_eq!(pipe.queue().acked(), 2);
        assert_eq!(pipe.queue().pending(), 0);
    }

    #[test]
    fn failed_apply_leaves_batch_unacked() {
        let wh = warehouse("pipe2");
        let pipe = Pipeline::open(qpath("pipe2")).unwrap();
        // An op against a table with no mirror fails the apply.
        pipe.publish(&DeltaBatch::Op(OpDelta {
            txn: 1,
            ops: vec![OpLogRecord {
                seq: 1,
                txn: 1,
                sql: "INSERT INTO missing VALUES (1, 2)".into(),
                before_image: None,
            }],
        }))
        .unwrap();
        assert!(pipe.sync(&wh).is_err());
        assert_eq!(
            pipe.queue().acked(),
            0,
            "failed batch stays unacked for retry"
        );
    }

    #[test]
    fn sync_on_empty_queue_is_a_noop() {
        let wh = warehouse("pipe3");
        let pipe = Pipeline::open(qpath("pipe3")).unwrap();
        let report = pipe.sync(&wh).unwrap();
        assert_eq!(report, SyncReport::default());
    }

    fn insert_vd(id: i64, v: i64) -> ValueDelta {
        let mut vd = ValueDelta::new("t", schema());
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 0,
            row: Row::new(vec![Value::Int(id), Value::Int(v)]),
        });
        vd
    }

    #[test]
    fn consecutive_value_batches_share_one_transaction() {
        let wh = warehouse("pipe4");
        let pipe = Pipeline::open(qpath("pipe4")).unwrap();
        for i in 0..6 {
            pipe.publish(&DeltaBatch::Value(insert_vd(i, 10 * i)))
                .unwrap();
        }
        let report = pipe.sync(&wh).unwrap();
        assert_eq!(report.batches, 6);
        assert_eq!(report.runs, 1, "one same-table run");
        assert_eq!(
            report.apply.transactions, 1,
            "the run shares a single maintenance outage"
        );
        assert_eq!(wh.db().row_count("t").unwrap(), 6);
        assert_eq!(pipe.queue().acked(), 6);
        assert_eq!(pipe.queue().pending(), 0);
    }

    #[test]
    fn op_batches_split_value_runs() {
        let wh = warehouse("pipe5");
        let pipe = Pipeline::open(qpath("pipe5")).unwrap();
        let update = |id: i64| {
            DeltaBatch::Op(OpDelta {
                txn: id as u64,
                ops: vec![OpLogRecord {
                    seq: 1,
                    txn: id as u64,
                    sql: "UPDATE t SET v = v + 1 WHERE id = 1".into(),
                    before_image: None,
                }],
            })
        };
        pipe.publish(&DeltaBatch::Value(insert_vd(1, 0))).unwrap();
        pipe.publish(&DeltaBatch::Value(insert_vd(2, 0))).unwrap();
        pipe.publish(&update(1)).unwrap();
        pipe.publish(&update(2)).unwrap();
        pipe.publish(&DeltaBatch::Value(insert_vd(3, 0))).unwrap();

        let report = pipe.sync(&wh).unwrap();
        assert_eq!(report.batches, 5);
        assert_eq!(report.runs, 4, "value run + 2 ops + value run");
        assert_eq!(report.apply.transactions, 4);
        // Each replayed operation was parsed and rewritten once, where it
        // ran; identical text earns nothing.
        let parse = pipe.stmt_cache_stats();
        assert_eq!((parse.hits, parse.misses), (0, 2));
        assert_eq!(pipe.rewrite_cache_stats(), parse);
        let rows = wh.db().scan_table("t").unwrap();
        let v1 = rows
            .iter()
            .map(|(_, r)| r.clone())
            .find(|r| r.values()[0] == Value::Int(1))
            .unwrap();
        assert_eq!(v1.values()[1], Value::Int(2), "both updates applied");
    }

    #[test]
    fn batch_size_one_reproduces_per_batch_acks() {
        let wh = warehouse("pipe6");
        let pipe = Pipeline::open(qpath("pipe6")).unwrap().with_batch_size(1);
        for i in 0..3 {
            pipe.publish(&DeltaBatch::Value(insert_vd(i, i))).unwrap();
        }
        let report = pipe.sync(&wh).unwrap();
        assert_eq!(report.batches, 3);
        assert_eq!(report.runs, 3, "runs of one batch each");
        assert_eq!(report.apply.transactions, 3);
    }

    #[test]
    fn redelivery_after_ack_dedupes_to_exactly_once() {
        let wh = warehouse("pipe8");
        let pipe = Pipeline::open(qpath("pipe8")).unwrap();
        for i in 0..3 {
            pipe.publish(&DeltaBatch::Value(insert_vd(i, i))).unwrap();
        }
        let first = pipe.sync(&wh).unwrap();
        assert_eq!(first.batches, 3);
        assert_eq!(wh.applied_watermark().unwrap(), Some(2));
        // Lost acks: the sender retransmits everything from the start.
        pipe.queue().rewind_to(0);
        let second = pipe.sync(&wh).unwrap();
        assert_eq!(second.batches, 0, "nothing re-applies");
        assert_eq!(second.deduped, 3, "all three recognized as applied");
        assert_eq!(second.apply.transactions, 0);
        assert_eq!(wh.db().row_count("t").unwrap(), 3, "no duplicate rows");
        assert_eq!(pipe.queue().acked(), 3, "redelivered batches re-acked");
    }

    #[test]
    fn duplicated_delivery_within_a_run_applies_once() {
        use delta_transport::NetFaultPlan;
        let wh = warehouse("pipe9");
        let mut plan = NetFaultPlan::clean(5);
        plan.dup_pct = 100; // every message arrives twice
        let pipe = Pipeline::open(qpath("pipe9"))
            .unwrap()
            .with_net_faults(plan);
        for i in 0..4 {
            pipe.publish(&DeltaBatch::Value(insert_vd(i, i))).unwrap();
        }
        let report = pipe.sync(&wh).unwrap();
        assert_eq!(report.batches, 4);
        assert_eq!(report.deduped, 4, "one duplicate of each batch dropped");
        assert_eq!(wh.db().row_count("t").unwrap(), 4);
    }

    #[test]
    fn lossy_link_still_converges() {
        use delta_transport::NetFaultPlan;
        let wh = warehouse("pipe10");
        let pipe = Pipeline::open(qpath("pipe10"))
            .unwrap()
            .with_batch_size(3)
            .with_net_faults(NetFaultPlan::lossy(1234));
        for i in 0..20 {
            pipe.publish(&DeltaBatch::Value(insert_vd(i, 10 * i)))
                .unwrap();
        }
        // Drops rewind the cursor, so one sync may end before the queue is
        // empty; drain until converged.
        for _ in 0..100 {
            pipe.sync(&wh).unwrap();
            if pipe.queue().pending() == 0 && pipe.queue().acked() == 20 {
                break;
            }
        }
        assert_eq!(wh.db().row_count("t").unwrap(), 20, "exactly once each");
        assert_eq!(wh.applied_watermark().unwrap(), Some(19));
    }

    #[test]
    fn poison_batch_quarantines_after_retries_and_pipeline_drains() {
        let wh = warehouse("pipe11");
        let pipe = Pipeline::open(qpath("pipe11"))
            .unwrap()
            .with_retry(RetryPolicy::quick(3))
            .unwrap();
        pipe.publish(&DeltaBatch::Value(insert_vd(1, 1))).unwrap();
        // Poison: value delta against a table with no mirror.
        let mut bad = ValueDelta::new("missing", schema());
        bad.records.push(ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 0,
            row: Row::new(vec![Value::Int(9), Value::Int(9)]),
        });
        let bad_bytes = encode_batch(&DeltaBatch::Value(bad.clone()), DEFAULT_BLOCK_ROWS);
        pipe.publish(&DeltaBatch::Value(bad)).unwrap();
        pipe.publish(&DeltaBatch::Value(insert_vd(2, 2))).unwrap();

        let report = pipe.sync(&wh).unwrap();
        assert_eq!(report.quarantined, 1, "the poison batch is parked");
        assert!(
            report.retries >= 2,
            "the policy retried before quarantining (retries = {})",
            report.retries
        );
        assert_eq!(report.batches, 2, "both good batches applied");
        assert_eq!(wh.db().row_count("t").unwrap(), 2);
        assert_eq!(pipe.queue().acked(), 3, "queue fully drained");
        assert_eq!(pipe.queue().pending(), 0);

        let parked = pipe.quarantined().unwrap();
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].index, 1);
        assert!(
            parked[0].error.contains("missing"),
            "error names the cause: {}",
            parked[0].error
        );
        assert_eq!(parked[0].payload, bad_bytes, "payload kept for inspection");
    }

    fn source(label: &str) -> std::sync::Arc<Database> {
        use delta_engine::db::DbOptions;
        let dir = std::env::temp_dir().join(format!(
            "delta-pipe-src-{}-{:?}-{label}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Database::open(DbOptions::new(dir).archive(true)).unwrap()
    }

    fn table_rows(db: &Database, table: &str) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = db
            .scan_table(table)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.values().to_vec())
            .collect();
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    #[test]
    fn ship_publishes_and_commits_only_after_durable_enqueue() {
        use delta_core::logextract::ResilientLogExtractor;
        let wh = warehouse("ship0");
        let src = source("ship0");
        let mut s = src.session();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        let mut x = ResilientLogExtractor::new("unused", &["t"]).unwrap();
        for i in 0..8 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
        }
        let pipe = Pipeline::open(qpath("ship0")).unwrap();
        let report = pipe.ship(&src, &mut x).unwrap();
        assert_eq!(report.published, 1, "one value batch for table t");
        assert_eq!(
            report.backpressure + report.degradations + report.deferred,
            0
        );
        assert!(x.watermark() > 0, "publish succeeded, watermark advanced");
        pipe.sync(&wh).unwrap();
        assert_eq!(table_rows(&src, "t"), table_rows(wh.db(), "t"));
        // Nothing new: the next round publishes nothing.
        let r2 = pipe.ship(&src, &mut x).unwrap();
        assert_eq!(r2.published, 0);
    }

    #[test]
    fn ship_degrades_to_coalesced_form_under_budget_pressure() {
        use delta_core::logextract::ResilientLogExtractor;
        use delta_storage::DiskBudget;
        let wh = warehouse("ship1");
        let src = source("ship1");
        let mut s = src.session();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        let mut x = ResilientLogExtractor::new("unused", &["t"]).unwrap();
        // A churn-heavy workload: the op stream carries every intermediate
        // state, the coalesced form only the final ones.
        for i in 0..10 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, 0)"))
                .unwrap();
        }
        for round in 1..=20 {
            s.execute(&format!("UPDATE t SET v = {round} WHERE id < 10"))
                .unwrap();
        }

        // Measure both forms to size a budget that fits only the coalesced
        // one (4 bytes of spool framing per payload).
        let sized = |deltas: &[delta_core::model::ValueDelta]| -> u64 {
            deltas
                .iter()
                .map(|vd| encode_value_batch(vd, DEFAULT_BLOCK_ROWS).len() as u64 + 4)
                .sum()
        };
        let op_form = x.stage(&src).unwrap();
        let op_bytes = sized(&op_form.outcome.deltas);
        drop(op_form);
        let co_form = x.stage_coalesced(&src).unwrap();
        let co_bytes = sized(&co_form.outcome.deltas);
        drop(co_form);
        assert!(
            co_bytes * 2 < op_bytes,
            "coalesced form must be much smaller (co {co_bytes}, op {op_bytes})"
        );

        let budget = std::sync::Arc::new(DiskBudget::bytes(co_bytes + (op_bytes - co_bytes) / 2));
        let pipe = Pipeline::open(qpath("ship1"))
            .unwrap()
            .with_queue_budget(budget);
        let report = pipe.ship(&src, &mut x).unwrap();
        assert_eq!(report.degradations, 1, "fell back to the coalesced form");
        assert_eq!(
            report.backpressure, 2,
            "op form denied, then denied again after the compaction rung"
        );
        assert_eq!(report.compactions, 1);
        assert_eq!(report.deferred, 0);
        assert_eq!(report.published, 1);

        pipe.sync(&wh).unwrap();
        assert_eq!(
            table_rows(&src, "t"),
            table_rows(wh.db(), "t"),
            "coalesced round converges byte-equal"
        );
    }

    #[test]
    fn ship_defers_round_when_nothing_fits_then_recovers() {
        use delta_core::logextract::ResilientLogExtractor;
        use delta_storage::DiskBudget;
        let wh = warehouse("ship2");
        let src = source("ship2");
        let mut s = src.session();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        let mut x = ResilientLogExtractor::new("unused", &["t"]).unwrap();
        for i in 0..6 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
        }
        let budget = std::sync::Arc::new(DiskBudget::bytes(8)); // not even one frame fits
        let pipe = Pipeline::open(qpath("ship2"))
            .unwrap()
            .with_queue_budget(std::sync::Arc::clone(&budget));
        let report = pipe.ship(&src, &mut x).unwrap();
        assert_eq!(report.deferred, 1, "round deferred, not errored");
        assert_eq!(report.published, 0);
        assert_eq!(report.degradations, 1, "the coalesced rung was tried");
        assert_eq!(x.watermark(), 0, "nothing advanced");

        // Pressure lifts; the same changes ship in full op form.
        budget.set_global(None);
        let r2 = pipe.ship(&src, &mut x).unwrap();
        assert_eq!(r2.published, 1);
        assert_eq!(r2.degradations, 0, "op form fits once pressure lifts");
        assert!(x.watermark() > 0);
        pipe.sync(&wh).unwrap();
        assert_eq!(table_rows(&src, "t"), table_rows(wh.db(), "t"));
    }

    /// A pipeline over mirrors `t` and `u` holding a good batch for `t`, a
    /// frame that does not decode, and a good batch for `u`.
    fn undecodable_mid_run(label: &str, workers: usize, retry: bool) -> (Warehouse, Pipeline) {
        let mut wh = warehouse(label);
        wh.add_mirror(MirrorConfig::full("u", schema())).unwrap();
        let mut pipe = Pipeline::open(qpath(label))
            .unwrap()
            .with_sync_workers(workers);
        if retry {
            pipe = pipe.with_retry(RetryPolicy::quick(3)).unwrap();
        }
        let mut on_u = insert_vd(2, 2);
        on_u.table = "u".into();
        pipe.publish(&DeltaBatch::Value(insert_vd(1, 1))).unwrap();
        pipe.queue().enqueue(b"not a batch").unwrap();
        pipe.publish(&DeltaBatch::Value(on_u)).unwrap();
        (wh, pipe)
    }

    #[test]
    fn undecodable_frame_is_quarantined_at_once_and_the_run_drains() {
        for workers in [1, 2] {
            let label = format!("undecodable-dlq-{workers}");
            let (wh, pipe) = undecodable_mid_run(&label, workers, true);
            let report = pipe.sync(&wh).unwrap();
            assert_eq!(report.quarantined, 1, "workers {workers}");
            assert_eq!(report.retries, 0, "decoding is deterministic: no retry");
            assert_eq!(report.batches, 2, "both good batches applied");
            assert_eq!(wh.db().row_count("t").unwrap(), 1);
            assert_eq!(wh.db().row_count("u").unwrap(), 1);
            assert_eq!((pipe.queue().acked(), pipe.queue().pending()), (3, 0));
            let parked = pipe.quarantined().unwrap();
            assert_eq!(parked.len(), 1);
            assert_eq!(parked[0].index, 1);
            assert_eq!(parked[0].payload, b"not a batch");
            // The parked sequence closes the gap: every range folds.
            let state = wh.applied_state().unwrap();
            assert_eq!((state.watermark, state.ranges), (Some(2), vec![]));
        }
    }

    #[test]
    fn undecodable_frame_fail_stops_after_applying_the_prefix() {
        for workers in [1, 2] {
            let label = format!("undecodable-stop-{workers}");
            let (wh, pipe) = undecodable_mid_run(&label, workers, false);
            let err = pipe.sync(&wh).unwrap_err();
            assert!(
                matches!(err, EngineError::Storage(StorageError::Corrupt(_))),
                "workers {workers}: the decode error surfaces, got {err}"
            );
            assert_eq!(wh.db().row_count("t").unwrap(), 1, "prefix applied");
            assert_eq!(wh.db().row_count("u").unwrap(), 0, "nothing past it");
            assert_eq!(pipe.queue().acked(), 1, "prefix acked");
            assert_eq!(pipe.queue().pending(), 2, "cursor on the bad frame");
            assert_eq!(wh.applied_watermark().unwrap(), Some(0));
        }
    }

    #[test]
    fn leftover_ranges_fold_at_one_worker() {
        let wh = warehouse("leftover");
        wh.ensure_applied_watermark().unwrap();
        // What a crashed parallel sync leaves: sequence 5 committed with
        // its range recorded, nothing below it acked.
        let fifth = insert_vd(5, 5);
        crate::DirectValueApplier::apply_run_marked(&wh, &[&fifth], AppliedMark::Range(5, 5))
            .unwrap();
        let pipe = Pipeline::open(qpath("leftover"))
            .unwrap()
            .with_sync_workers(1);
        for i in 0..6 {
            pipe.publish(&DeltaBatch::Value(insert_vd(i, i))).unwrap();
        }
        let report = pipe.sync(&wh).unwrap();
        assert_eq!((report.batches, report.deduped), (5, 1));
        let state = wh.applied_state().unwrap();
        assert_eq!((state.watermark, state.ranges), (Some(5), vec![]));
        assert_eq!(wh.db().row_count("t").unwrap(), 6);
    }

    #[test]
    fn collect_op_log_keeps_capture_when_budget_denies_publish() {
        use delta_core::opdelta::{OpDeltaCapture, OpLogSink};
        use delta_storage::DiskBudget;
        let src = source("oplog");
        let mut s = src.session();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        let mut cap =
            OpDeltaCapture::new(src.session(), OpLogSink::Table("t_oplog".into())).unwrap();
        cap.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        cap.execute("INSERT INTO t VALUES (2, 20)").unwrap();
        drop(cap);

        let budget = std::sync::Arc::new(DiskBudget::bytes(4)); // nothing fits
        let pipe = Pipeline::open(qpath("oplog"))
            .unwrap()
            .with_queue_budget(std::sync::Arc::clone(&budget));
        let err = pipe.collect_op_log(&src, "t_oplog").unwrap_err();
        assert!(
            matches!(&err, EngineError::Storage(se) if se.is_disk_full()),
            "typed disk-full error, got {err}"
        );
        assert!(
            src.row_count("t_oplog").unwrap() > 0,
            "capture table intact — nothing lost"
        );

        budget.set_global(None);
        let n = pipe.collect_op_log(&src, "t_oplog").unwrap();
        assert!(n > 0, "retry publishes the same capture");
        assert_eq!(
            src.row_count("t_oplog").unwrap(),
            0,
            "cleared after publish"
        );
    }

    #[test]
    fn failed_apply_rewinds_for_redelivery() {
        let mut wh = warehouse("pipe7");
        // One batch per run: the failure lands in the second of three runs.
        let pipe = Pipeline::open(qpath("pipe7")).unwrap().with_batch_size(1);
        pipe.publish(&DeltaBatch::Value(insert_vd(1, 1))).unwrap();
        // Second batch targets a missing mirror: the first run commits and
        // acks, the second fails and rewinds, the third is never dequeued.
        let mut bad = ValueDelta::new("missing", schema());
        bad.records.push(ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 0,
            row: Row::new(vec![Value::Int(9), Value::Int(9)]),
        });
        pipe.publish(&DeltaBatch::Value(bad)).unwrap();
        pipe.publish(&DeltaBatch::Value(insert_vd(2, 2))).unwrap();
        assert!(pipe.sync(&wh).is_err());
        assert_eq!(pipe.queue().acked(), 1);
        assert_eq!(
            pipe.queue().pending(),
            2,
            "failed batch and its successor rewound and still deliverable"
        );
        assert_eq!(
            wh.db().row_count("t").unwrap(),
            1,
            "nothing applied past the failure"
        );

        // With the mirror in place the next sync redelivers both, in order.
        wh.add_mirror(MirrorConfig::full("missing", schema()))
            .unwrap();
        let second = pipe.sync(&wh).unwrap();
        assert_eq!(second.batches, 2);
        assert_eq!(second.deduped, 0);
        assert_eq!(pipe.queue().acked(), 3);
        assert_eq!(pipe.queue().pending(), 0);
        assert_eq!(wh.applied_watermark().unwrap(), Some(2));
        assert_eq!(wh.db().row_count("missing").unwrap(), 1);
        assert_eq!(wh.db().row_count("t").unwrap(), 2);
    }
}
