//! A durable, at-least-once delivery queue.
//!
//! Models the "persistent queues" transport of §1: extracted deltas are
//! enqueued at the source and drained by the warehouse integrator; consumer
//! acknowledgements persist, so a crashed consumer re-reads exactly the
//! unacknowledged suffix after restart (at-least-once semantics — the
//! appliers deduplicate by transaction where exactly-once matters).
//!
//! Layout: a spool file of length-prefixed, checksummed frames plus a tiny
//! ack file holding the count of acknowledged messages. A spool that has
//! been prefix-compacted (see [`crate::compact`]) starts with a small header
//! recording how many frames were dropped; message indices are *absolute*
//! over the queue's lifetime, so acks, consumer dedupe state, and sibling
//! `.audit`/`.dlq` files all survive compaction unchanged.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use delta_storage::colbatch::{fnv1a, FNV1A_OFFSET};
use delta_storage::pressure::{Admission, DiskBudget};
use delta_storage::{invariant, StorageError, StorageResult};

use crate::compact;
use crate::netsim::{NetFault, NetFaultSim};

/// Byte length of the frame at the start of `bytes` — length prefix,
/// payload, checksum — if one is there whole and its checksum holds.
fn valid_frame_len(bytes: &[u8]) -> Option<usize> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let body = bytes.get(4..4 + len)?;
    let sum = u64::from_le_bytes(bytes.get(4 + len..12 + len)?.try_into().ok()?);
    (fnv1a(FNV1A_OFFSET, body) == sum).then_some(12 + len)
}

pub(crate) struct QueueInner {
    pub(crate) writer: BufWriter<File>,
    /// Byte offsets of each resident message frame in the spool file.
    pub(crate) offsets: Vec<u64>,
    /// Total spool length.
    pub(crate) spool_len: u64,
    /// Messages acknowledged (a prefix of the queue; absolute count).
    pub(crate) acked: u64,
    /// Next message index to hand to the consumer (≥ acked; reset to acked
    /// on reopen — unacked deliveries are repeated). Absolute.
    pub(crate) cursor: u64,
    /// Absolute index of the first resident frame: the number of frames
    /// prefix compaction has physically dropped from the spool.
    pub(crate) base: u64,
    /// Bytes of a torn frame left at the spool tail by a short-write
    /// admission; truncated away (and credited back) before the next append.
    pub(crate) dirty_tail: Option<u64>,
}

/// How close the spool is to its disk budget — the producer-side
/// backpressure signal. Producers seeing [`SpoolPressure::Near`] should
/// compact and/or coalesce; [`SpoolPressure::Exhausted`] means the next
/// enqueue of any size will fail with a typed `DiskFull`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpoolPressure {
    /// Plenty of headroom (or no budget armed).
    Normal,
    /// Headroom below [`PRESSURE_NEAR_BYTES`]: degrade before it runs out.
    Near,
    /// No headroom at all.
    Exhausted,
}

/// Headroom threshold below which [`PersistentQueue::pressure`] reports
/// [`SpoolPressure::Near`].
pub const PRESSURE_NEAR_BYTES: u64 = 16 * 1024;

/// The queue: durable across process restarts.
pub struct PersistentQueue {
    pub(crate) spool_path: PathBuf,
    pub(crate) ack_path: PathBuf,
    pub(crate) inner: Mutex<QueueInner>,
    /// Armed disk budget for the spool; `None` = unbounded.
    pub(crate) budget: Option<Arc<DiskBudget>>,
}

impl PersistentQueue {
    /// The ack-file path of a queue spooled at `path`: the full spool name
    /// plus `.ack`. Appending (rather than *replacing* the extension) keeps
    /// sibling queues that share a stem — `pipe.q`, `pipe.dlq`, `pipe.audit`
    /// — from colliding on one ack file and clobbering each other's durable
    /// watermark.
    pub fn ack_file(path: impl AsRef<Path>) -> PathBuf {
        let spool = path.as_ref();
        let mut name = spool
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(".ack");
        spool.with_file_name(name)
    }

    /// Open (or create) a queue rooted at `path` (two files: `path` and
    /// `path.ack`, see [`PersistentQueue::ack_file`]).
    pub fn open(path: impl AsRef<Path>) -> StorageResult<PersistentQueue> {
        let spool_path = path.as_ref().to_path_buf();
        if let Some(parent) = spool_path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let ack_path = PersistentQueue::ack_file(&spool_path);
        // A crash mid-compaction can leave a staged rewrite behind; the
        // rename never happened, so the original spool is authoritative.
        let _ = std::fs::remove_file(compact::compact_tmp_path(&spool_path));

        // Scan the spool to rebuild frame offsets. A bad frame with no
        // valid frame anywhere after it is a torn tail, truncated below; a
        // bad frame followed by a valid one is mid-spool corruption, and
        // truncating there would destroy the intact frames behind it.
        let mut offsets = Vec::new();
        let mut spool_len = 0u64;
        let mut base = 0u64;
        if spool_path.exists() {
            let mut bytes = Vec::new();
            File::open(&spool_path)?.read_to_end(&mut bytes)?;
            let mut at = 0usize;
            if let Some(b) = compact::decode_header(&bytes) {
                base = b;
                at = compact::HEADER_LEN;
            }
            while let Some(rest) = bytes.get(at..).filter(|rest| !rest.is_empty()) {
                match valid_frame_len(rest) {
                    Some(len) => {
                        offsets.push(at as u64);
                        at += len;
                    }
                    None if (1..rest.len()).any(|s| valid_frame_len(&rest[s..]).is_some()) => {
                        return Err(StorageError::Corrupt(format!(
                            "queue spool {}: frame {} at byte {at} is damaged but \
                             intact frames follow it",
                            spool_path.display(),
                            base + offsets.len() as u64
                        )));
                    }
                    None => break,
                }
            }
            spool_len = at as u64;
        }
        let acked: u64 = if ack_path.exists() {
            std::fs::read_to_string(&ack_path)?
                .trim()
                .parse()
                .unwrap_or(0)
        } else {
            0
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&spool_path)?;
        // If a torn tail was detected, truncate it away before appending.
        file.set_len(spool_len)?;
        // The durable ack count is absolute; compaction only ever drops
        // fully-acked frames, so it can never legally sit below `base`.
        let total = base + offsets.len() as u64;
        let acked = acked.max(base).min(total);
        invariant!(
            acked <= total,
            "recovered ack count {acked} exceeds {total} spooled frames"
        );
        Ok(PersistentQueue {
            spool_path,
            ack_path,
            inner: Mutex::new(QueueInner {
                writer: BufWriter::new(file),
                acked,
                cursor: acked,
                offsets,
                spool_len,
                base,
                dirty_tail: None,
            }),
            budget: None,
        })
    }

    /// Arm a disk budget on the spool (builder style): every append asks it
    /// for space first. A short-write admission persists the admitted
    /// prefix as a torn tail (truncated away before the next append, or at
    /// reopen), a denial writes nothing; both surface as typed
    /// `StorageError::DiskFull`. Compaction credits reclaimed bytes back.
    pub fn with_spool_budget(mut self, budget: Arc<DiskBudget>) -> PersistentQueue {
        self.budget = Some(budget);
        self
    }

    /// Bytes the budget would still admit for the spool (`None` = no budget
    /// armed / unconstrained).
    pub fn spool_headroom(&self) -> Option<u64> {
        self.budget
            .as_ref()
            .and_then(|b| b.remaining(&self.spool_path))
    }

    /// The producer-side backpressure signal — see [`SpoolPressure`].
    pub fn pressure(&self) -> SpoolPressure {
        match self.spool_headroom() {
            None => SpoolPressure::Normal,
            Some(0) => SpoolPressure::Exhausted,
            Some(r) if r < PRESSURE_NEAR_BYTES => SpoolPressure::Near,
            Some(_) => SpoolPressure::Normal,
        }
    }

    /// Absolute index of the first frame still resident in the spool file
    /// (the number of frames prefix compaction has dropped).
    pub fn compacted_base(&self) -> u64 {
        self.inner.lock().base
    }

    /// Truncate away a torn frame left by an earlier short-write admission,
    /// crediting its bytes back to the budget. Appends call this first.
    pub(crate) fn repair_dirty_tail(&self, inner: &mut QueueInner) -> StorageResult<()> {
        if let Some(torn) = inner.dirty_tail.take() {
            inner.writer.get_ref().set_len(inner.spool_len)?;
            if let Some(b) = &self.budget {
                b.credit(&self.spool_path, torn);
            }
        }
        Ok(())
    }

    /// Append a message; returns its (absolute) index.
    pub fn enqueue(&self, payload: &[u8]) -> StorageResult<u64> {
        // lint: allow(lock_hygiene) -- the queue mutex guards the spool
        // writer itself; frames must hit the file in index order.
        let mut inner = self.inner.lock();
        self.repair_dirty_tail(&mut inner)?;
        let mut frame = Vec::with_capacity(payload.len() + 12);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&fnv1a(FNV1A_OFFSET, payload).to_le_bytes());
        if let Some(b) = &self.budget {
            match b.admit(&self.spool_path, frame.len() as u64) {
                Admission::Granted => {}
                Admission::Short { keep } => {
                    // ENOSPC mid-append: the admitted prefix reaches the
                    // file as a torn tail (recovered by truncation — at
                    // reopen, or before the next append while live).
                    let keep = (keep as usize).min(frame.len());
                    inner.writer.write_all(&frame[..keep])?;
                    inner.writer.flush()?;
                    inner.dirty_tail = Some(keep as u64);
                    return Err(b.error(&self.spool_path, frame.len() as u64));
                }
                Admission::Denied => {
                    return Err(b.error(&self.spool_path, frame.len() as u64));
                }
            }
        }
        inner.writer.write_all(&frame)?;
        inner.writer.flush()?;
        let offset = inner.spool_len;
        inner.offsets.push(offset);
        inner.spool_len += frame.len() as u64;
        Ok(inner.base + inner.offsets.len() as u64 - 1)
    }

    /// Append a batch of messages **all-or-nothing**: either every payload
    /// is durably framed (returning the absolute index of the first) or the
    /// spool is byte-identical to before the call and a typed error is
    /// returned. Publishers use this so a mid-batch failure can be retried
    /// wholesale without leaving duplicate frames under fresh indices.
    pub fn enqueue_all(&self, payloads: &[Vec<u8>]) -> StorageResult<u64> {
        // lint: allow(lock_hygiene) -- the queue mutex guards the spool
        // writer itself; frames must hit the file in index order.
        let mut inner = self.inner.lock();
        self.repair_dirty_tail(&mut inner)?;
        if payloads.is_empty() {
            return Ok(inner.base + inner.offsets.len() as u64);
        }
        let mut buf = Vec::with_capacity(payloads.iter().map(|p| p.len() + 12).sum());
        let mut frame_offsets = Vec::with_capacity(payloads.len());
        for payload in payloads {
            frame_offsets.push(inner.spool_len + buf.len() as u64);
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(payload);
            buf.extend_from_slice(&fnv1a(FNV1A_OFFSET, payload).to_le_bytes());
        }
        if let Some(b) = &self.budget {
            // All-or-nothing: a batch that does not fit entirely writes
            // nothing (no partial-publish under pressure).
            b.admit_full(&self.spool_path, buf.len() as u64)?;
        }
        let wrote = inner.writer.write_all(&buf);
        let wrote = wrote.and_then(|()| inner.writer.flush());
        if let Err(e) = wrote {
            // Roll the file back to the pre-batch length: a real short
            // write must not leave a frame prefix that a reopen would
            // mistake for a torn single append.
            let _ = inner.writer.get_ref().set_len(inner.spool_len);
            if let Some(b) = &self.budget {
                b.credit(&self.spool_path, buf.len() as u64);
            }
            return Err(e.into());
        }
        let first = inner.base + inner.offsets.len() as u64;
        inner.offsets.extend(frame_offsets);
        inner.spool_len += buf.len() as u64;
        Ok(first)
    }

    /// Next undelivered message as `(index, payload)`, or `None` when drained.
    /// Delivery alone does not acknowledge: call [`PersistentQueue::ack`].
    /// Owns its payload — consumers on the hot path use
    /// [`PersistentQueue::dequeue_run`], which this wraps.
    pub fn dequeue(&self) -> StorageResult<Option<(u64, Vec<u8>)>> {
        let mut arena = Vec::new();
        let mut run = self.dequeue_run(1, &mut arena)?;
        Ok(run.pop().map(|(idx, range)| (idx, arena[range].to_vec())))
    }

    /// Up to `max` undelivered messages in index order, zero-copy: reads
    /// the whole undelivered run with one spool open+seek+read into the
    /// caller's `arena` (cleared first, its capacity reused across calls)
    /// and returns `(index, payload range)` pairs borrowing from it.
    /// Checksums are verified per frame. Delivery alone does not
    /// acknowledge; an empty vec means the queue is drained.
    pub fn dequeue_run(
        &self,
        max: u64,
        arena: &mut Vec<u8>,
    ) -> StorageResult<Vec<(u64, std::ops::Range<usize>)>> {
        arena.clear();
        // lint: allow(lock_hygiene) -- reads the guarded spool at frame
        // offsets; the mutex keeps the cursor and the file view consistent.
        let mut inner = self.inner.lock();
        // The cursor may legitimately sit *below* the ack watermark after a
        // fault-injected `rewind_to` (redelivery of already-acked messages),
        // but never below the compaction base (those frames are gone) and
        // never past the end.
        let total = inner.base + inner.offsets.len() as u64;
        invariant!(
            inner.cursor >= inner.base && inner.cursor <= total,
            "queue cursor accounting broken: base {} acked {} cursor {} total {}",
            inner.base,
            inner.acked,
            inner.cursor,
            total
        );
        if inner.cursor >= total || max == 0 {
            return Ok(Vec::new());
        }
        inner.writer.flush()?;
        let first = inner.cursor;
        let count = max.min(total - first);
        let pos = (first - inner.base) as usize;
        let start = inner.offsets[pos];
        let end = inner
            .offsets
            .get(pos + count as usize)
            .copied()
            .unwrap_or(inner.spool_len);
        let mut f = File::open(&self.spool_path)?;
        use std::io::Seek;
        f.seek(std::io::SeekFrom::Start(start))?;
        arena.resize((end - start) as usize, 0);
        f.read_exact(arena)?;
        let mut out = Vec::with_capacity(count as usize);
        let mut at = 0usize;
        for idx in first..first + count {
            let header_end = at + 4;
            let lenb: [u8; 4] = arena
                .get(at..header_end)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| StorageError::Corrupt(format!("queue frame {idx} truncated")))?;
            let len = u32::from_le_bytes(lenb) as usize;
            let body = header_end..header_end + len;
            let trailer = body.end..body.end + 8;
            let sumb: [u8; 8] = arena
                .get(trailer.clone())
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| StorageError::Corrupt(format!("queue frame {idx} truncated")))?;
            let payload = arena
                .get(body.clone())
                .ok_or_else(|| StorageError::Corrupt(format!("queue frame {idx} truncated")))?;
            if fnv1a(FNV1A_OFFSET, payload) != u64::from_le_bytes(sumb) {
                return Err(StorageError::Corrupt(format!(
                    "queue frame {idx} checksum mismatch"
                )));
            }
            out.push((idx, body));
            at = trailer.end;
        }
        inner.cursor = first + count;
        Ok(out)
    }

    /// Reset the delivery cursor to the ack watermark, so every
    /// unacknowledged message is delivered again — the in-process equivalent
    /// of a consumer restart, used when an apply fails mid-run.
    pub fn rewind_to_acked(&self) {
        let mut inner = self.inner.lock();
        inner.cursor = inner.acked;
    }

    /// Force the delivery cursor to `index` (clamped to the resident frame
    /// range — frames below the compaction base are physically gone, and
    /// only fully-acked frames are ever compacted away). Unlike
    /// [`PersistentQueue::rewind_to_acked`], this may rewind *below* the ack
    /// watermark — the transport-fault hook modelling a lost consumer
    /// acknowledgement: the sender redelivers messages the consumer already
    /// applied, so consumers must deduplicate by sequence id.
    pub fn rewind_to(&self, index: u64) {
        let mut inner = self.inner.lock();
        inner.cursor = index.clamp(inner.base, inner.base + inner.offsets.len() as u64);
    }

    /// Acknowledge every message up to and including `index`. Persisted.
    pub fn ack(&self, index: u64) -> StorageResult<()> {
        // lint: allow(lock_hygiene) -- the ack file write must be atomic with
        // the in-memory ack watermark or a crash could re-deliver acked work.
        let mut inner = self.inner.lock();
        inner.acked = inner.acked.max(index + 1);
        // Deliberately do NOT drag the cursor forward to the watermark: after
        // a fault-injected rewind the cursor may trail `acked`, and snapping
        // it forward here would skip messages withheld by an injected loss.
        invariant!(
            inner.acked <= inner.base + inner.offsets.len() as u64,
            "acked {} messages but only {} were ever spooled",
            inner.acked,
            inner.base + inner.offsets.len() as u64
        );
        std::fs::write(&self.ack_path, inner.acked.to_string())?;
        Ok(())
    }

    /// Messages not yet delivered this session.
    pub fn pending(&self) -> u64 {
        let inner = self.inner.lock();
        inner.base + inner.offsets.len() as u64 - inner.cursor
    }

    /// Messages enqueued over the queue's lifetime (compacted frames
    /// included — indices are absolute).
    pub fn total(&self) -> u64 {
        let inner = self.inner.lock();
        inner.base + inner.offsets.len() as u64
    }

    /// Messages durably acknowledged.
    pub fn acked(&self) -> u64 {
        self.inner.lock().acked
    }

    /// Bytes in the spool file (frame headers and checksums included) — the
    /// honest wire cost of everything ever enqueued, used by the audit
    /// subsystem to account repair traffic against full-reload traffic.
    pub fn spool_bytes(&self) -> u64 {
        self.inner.lock().spool_len
    }

    /// [`PersistentQueue::dequeue_run`] over a faulty link: the run is
    /// read into the caller's `arena` the same way, then each message's
    /// fate is drawn from `sim`'s seeded fault plan:
    ///
    /// * **Drop** — the message is lost in flight; the run is truncated there
    ///   and the cursor rewound, so the next round retransmits from the gap.
    /// * **Duplicate** — the message appears twice in the run.
    /// * **Reorder** — the message lands one slot late.
    /// * **DelayAck** — the message is delivered, but the cursor is rewound
    ///   to it anyway (its acknowledgement was lost), so the next round
    ///   redelivers a message the consumer may already have applied and
    ///   acknowledged.
    ///
    /// The spool stays intact: every enqueued message is still delivered at
    /// least once, possibly more than once and out of index order, so
    /// consumers must restore order and deduplicate by sequence id.
    pub fn dequeue_run_with_faults(
        &self,
        max: u64,
        sim: &mut NetFaultSim,
        arena: &mut Vec<u8>,
    ) -> StorageResult<Vec<(u64, std::ops::Range<usize>)>> {
        let run = self.dequeue_run(max, arena)?;
        let mut out: Vec<(u64, std::ops::Range<usize>)> = Vec::with_capacity(run.len());
        // A message fated to reorder is held back one slot.
        let mut held: Option<(u64, std::ops::Range<usize>)> = None;
        // Lowest index the next round must retransmit from, if any.
        let mut redeliver: Option<u64> = None;
        for (idx, payload) in run {
            match sim.next_fault() {
                NetFault::Drop => {
                    if let Some(prev) = held.take() {
                        out.push(prev); // was already in flight; it arrives
                    }
                    redeliver = Some(redeliver.map_or(idx, |r| r.min(idx)));
                    break;
                }
                NetFault::Reorder => {
                    if let Some(prev) = held.replace((idx, payload)) {
                        out.push(prev);
                    }
                }
                NetFault::Deliver => {
                    out.push((idx, payload));
                    if let Some(prev) = held.take() {
                        out.push(prev);
                    }
                }
                NetFault::Duplicate => {
                    out.push((idx, payload.clone()));
                    out.push((idx, payload));
                    if let Some(prev) = held.take() {
                        out.push(prev);
                    }
                }
                NetFault::DelayAck => {
                    redeliver = Some(redeliver.map_or(idx, |r| r.min(idx)));
                    out.push((idx, payload));
                    if let Some(prev) = held.take() {
                        out.push(prev);
                    }
                }
            }
        }
        if let Some(prev) = held.take() {
            out.push(prev);
        }
        if let Some(lo) = redeliver {
            self.rewind_to(lo);
        }
        Ok(out)
    }
}

/// Test helper: copy a run's payloads out of its arena.
#[cfg(test)]
fn owned(run: Vec<(u64, std::ops::Range<usize>)>, arena: &[u8]) -> Vec<(u64, Vec<u8>)> {
    run.into_iter()
        .map(|(idx, range)| (idx, arena[range].to_vec()))
        .collect()
}

#[cfg(test)]
impl PersistentQueue {
    /// Test helper shared with `compact.rs`: one `dequeue_run` as owned
    /// `(index, payload)` pairs.
    pub(crate) fn take(&self, max: u64) -> Vec<(u64, Vec<u8>)> {
        let mut arena = Vec::new();
        let run = self.dequeue_run(max, &mut arena).unwrap();
        owned(run, &arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qpath(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "delta-queue-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(PersistentQueue::ack_file(&p));
        p
    }

    /// One `dequeue_run_with_faults` as owned `(index, payload)` pairs.
    fn take_faulty(q: &PersistentQueue, max: u64, sim: &mut NetFaultSim) -> Vec<(u64, Vec<u8>)> {
        let mut arena = Vec::new();
        let run = q.dequeue_run_with_faults(max, sim, &mut arena).unwrap();
        owned(run, &arena)
    }

    #[test]
    fn sibling_queues_get_distinct_ack_files() {
        // `pipe.q`, `pipe.dlq`, and `pipe.audit` share a stem; replacing the
        // extension would collapse all three onto `pipe.ack`, letting one
        // queue's ack clobber another's durable watermark.
        let main = qpath("pipe.q");
        let side = PersistentQueue::ack_file(main.with_extension("audit"));
        assert_ne!(PersistentQueue::ack_file(&main), side);
        let _ = std::fs::remove_file(&side);

        let q = PersistentQueue::open(&main).unwrap();
        q.enqueue(b"a").unwrap();
        q.enqueue(b"b").unwrap();
        let (idx, _) = q.dequeue().unwrap().unwrap();
        q.ack(idx).unwrap();

        // An independently acked sibling must not move the main watermark.
        let audit = PersistentQueue::open(main.with_extension("audit")).unwrap();
        audit.enqueue(b"digest").unwrap();
        let (aidx, _) = audit.dequeue().unwrap().unwrap();
        audit.ack(aidx).unwrap();

        let reopened = PersistentQueue::open(&main).unwrap();
        assert_eq!(reopened.acked(), 1, "main ack watermark survived");
        let (_, payload) = reopened.dequeue().unwrap().unwrap();
        assert_eq!(payload, b"b", "only the unacked suffix redelivers");
    }

    #[test]
    fn fifo_order_and_ack() {
        let q = PersistentQueue::open(qpath("fifo.q")).unwrap();
        for i in 0..5u8 {
            q.enqueue(&[i]).unwrap();
        }
        for i in 0..5u8 {
            let (idx, payload) = q.dequeue().unwrap().unwrap();
            assert_eq!(payload, vec![i]);
            q.ack(idx).unwrap();
        }
        assert!(q.dequeue().unwrap().is_none());
        assert_eq!(q.acked(), 5);
    }

    #[test]
    fn unacked_messages_redeliver_after_reopen() {
        let path = qpath("redeliver.q");
        {
            let q = PersistentQueue::open(&path).unwrap();
            q.enqueue(b"one").unwrap();
            q.enqueue(b"two").unwrap();
            let (idx, _) = q.dequeue().unwrap().unwrap();
            q.ack(idx).unwrap();
            // Deliver "two" but crash before acking.
            let _ = q.dequeue().unwrap().unwrap();
        }
        let q = PersistentQueue::open(&path).unwrap();
        let (_, payload) = q.dequeue().unwrap().unwrap();
        assert_eq!(payload, b"two", "unacked message redelivered");
    }

    #[test]
    fn acked_messages_do_not_redeliver() {
        let path = qpath("acked.q");
        {
            let q = PersistentQueue::open(&path).unwrap();
            q.enqueue(b"a").unwrap();
            q.enqueue(b"b").unwrap();
            q.ack(1).unwrap(); // ack both
        }
        let q = PersistentQueue::open(&path).unwrap();
        assert!(q.dequeue().unwrap().is_none());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = qpath("torn.q");
        {
            let q = PersistentQueue::open(&path).unwrap();
            q.enqueue(b"good").unwrap();
        }
        // Append garbage simulating a torn write.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9, 0, 0, 0, 1, 2]).unwrap();
        }
        let q = PersistentQueue::open(&path).unwrap();
        assert_eq!(q.total(), 1);
        let (_, payload) = q.dequeue().unwrap().unwrap();
        assert_eq!(payload, b"good");
        // And the queue keeps working after truncation.
        q.enqueue(b"after").unwrap();
        let (_, payload) = q.dequeue().unwrap().unwrap();
        assert_eq!(payload, b"after");
    }

    #[test]
    fn damaged_frame_before_intact_ones_is_corrupt_and_truncates_nothing() {
        let path = qpath("flipped.q");
        {
            let q = PersistentQueue::open(&path).unwrap();
            for i in 0..5u8 {
                q.enqueue(&[i; 16]).unwrap();
            }
        }
        // Flip one payload byte of frame 1 (each frame is 4 + 16 + 8 bytes).
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 140);
        bytes[28 + 4 + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match PersistentQueue::open(&path) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("frame 1"), "{msg}"),
            Err(e) => panic!("expected Corrupt, got {e}"),
            Ok(q) => panic!("opened a damaged spool with {} frames", q.total()),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "spool untouched");
    }

    #[test]
    fn large_payloads_round_trip() {
        let q = PersistentQueue::open(qpath("large.q")).unwrap();
        let big = vec![0xABu8; 1 << 20];
        q.enqueue(&big).unwrap();
        let (_, payload) = q.dequeue().unwrap().unwrap();
        assert_eq!(payload.len(), big.len());
        assert_eq!(payload, big);
    }

    #[test]
    fn dequeue_run_returns_a_run_in_order() {
        let q = PersistentQueue::open(qpath("batch.q")).unwrap();
        for i in 0..7u8 {
            q.enqueue(&[i]).unwrap();
        }
        let run = q.take(4);
        assert_eq!(run.len(), 4);
        for (want, (idx, payload)) in run.iter().enumerate() {
            assert_eq!(*idx, want as u64);
            assert_eq!(payload, &vec![want as u8]);
        }
        // Remaining messages still deliverable; over-asking clamps.
        let rest = q.take(100);
        assert_eq!(rest.len(), 3);
        assert_eq!(rest[0].0, 4);
        assert!(q.take(5).is_empty());
        assert_eq!(q.take(0).len(), 0);
    }

    #[test]
    fn rewind_to_acked_redelivers_unacked_run() {
        let q = PersistentQueue::open(qpath("rewind.q")).unwrap();
        for i in 0..4u8 {
            q.enqueue(&[i]).unwrap();
        }
        let run = q.take(3);
        q.ack(run[0].0).unwrap(); // ack only the first
        q.rewind_to_acked();
        let again = q.take(10);
        assert_eq!(again.len(), 3, "unacked messages redeliver");
        assert_eq!(again[0].0, 1);
        assert_eq!(again[0].1, vec![1u8]);
    }

    #[test]
    fn rewind_below_ack_redelivers_acked_messages() {
        let q = PersistentQueue::open(qpath("reack.q")).unwrap();
        for i in 0..3u8 {
            q.enqueue(&[i]).unwrap();
        }
        let run = q.take(10);
        q.ack(run.last().unwrap().0).unwrap();
        assert_eq!(q.acked(), 3);
        // Lost-ack simulation: the sender never saw the acks and retransmits.
        q.rewind_to(0);
        let again = q.take(10);
        assert_eq!(again.len(), 3, "acked messages redeliver after rewind_to");
        assert_eq!(again[0], (0, vec![0u8]));
        assert_eq!(q.acked(), 3, "the durable watermark is untouched");
    }

    #[test]
    fn faulted_dequeue_clean_plan_is_transparent() {
        use crate::netsim::NetFaultPlan;
        let q = PersistentQueue::open(qpath("fclean.q")).unwrap();
        for i in 0..6u8 {
            q.enqueue(&[i]).unwrap();
        }
        let mut sim = NetFaultSim::new(NetFaultPlan::clean(1));
        let run = take_faulty(&q, 10, &mut sim);
        assert_eq!(run.len(), 6);
        for (want, (idx, payload)) in run.iter().enumerate() {
            assert_eq!(*idx, want as u64);
            assert_eq!(payload, &vec![want as u8]);
        }
        assert_eq!(sim.stats().delivered, 6);
    }

    #[test]
    fn faulted_dequeue_loss_truncates_and_redelivers() {
        use crate::netsim::NetFaultPlan;
        let q = PersistentQueue::open(qpath("floss.q")).unwrap();
        for i in 0..4u8 {
            q.enqueue(&[i]).unwrap();
        }
        let mut plan = NetFaultPlan::clean(7);
        plan.loss_pct = 100;
        let mut sim = NetFaultSim::new(plan);
        assert!(take_faulty(&q, 10, &mut sim).is_empty());
        assert_eq!(q.pending(), 4, "lost messages stay pending for retransmit");
        // A clean consumer still gets everything.
        let run = q.take(10);
        assert_eq!(run.len(), 4);
    }

    #[test]
    fn faulted_dequeue_duplicates_every_message() {
        use crate::netsim::NetFaultPlan;
        let q = PersistentQueue::open(qpath("fdup.q")).unwrap();
        for i in 0..3u8 {
            q.enqueue(&[i]).unwrap();
        }
        let mut plan = NetFaultPlan::clean(9);
        plan.dup_pct = 100;
        let mut sim = NetFaultSim::new(plan);
        let run = take_faulty(&q, 10, &mut sim);
        assert_eq!(run.len(), 6);
        for i in 0..3u64 {
            assert_eq!(run[2 * i as usize].0, i);
            assert_eq!(run[2 * i as usize + 1].0, i, "each index arrives twice");
        }
    }

    #[test]
    fn faulted_dequeue_is_at_least_once_and_deterministic() {
        use crate::netsim::NetFaultPlan;
        use std::collections::BTreeSet;
        let deliver = |label: &str| -> Vec<u64> {
            let q = PersistentQueue::open(qpath(label)).unwrap();
            for i in 0..20u8 {
                q.enqueue(&[i]).unwrap();
            }
            let mut sim = NetFaultSim::new(NetFaultPlan::lossy(42));
            let mut order = Vec::new();
            let mut seen = BTreeSet::new();
            for _ in 0..200 {
                let run = take_faulty(&q, 5, &mut sim);
                for (idx, payload) in run {
                    assert_eq!(payload, vec![idx as u8], "payload matches its id");
                    order.push(idx);
                    seen.insert(idx);
                }
                if seen.len() == 20 && q.pending() == 0 {
                    break;
                }
            }
            assert_eq!(seen.len(), 20, "every message delivered at least once");
            order
        };
        let a = deliver("fdet-a.q");
        let b = deliver("fdet-b.q");
        assert_eq!(a, b, "same seed, same delivery sequence");
    }

    #[test]
    fn dequeue_run_reuses_the_arena_across_calls() {
        let q = PersistentQueue::open(qpath("arena.q")).unwrap();
        for i in 0..8u8 {
            q.enqueue(&[i; 64]).unwrap();
        }
        let mut arena = Vec::new();
        let run = q.dequeue_run(4, &mut arena).unwrap();
        assert_eq!(run.len(), 4);
        for (want, (idx, range)) in run.iter().enumerate() {
            assert_eq!(*idx, want as u64);
            assert_eq!(&arena[range.clone()], &vec![want as u8; 64][..]);
        }
        let cap_after_first = arena.capacity();
        let run = q.dequeue_run(4, &mut arena).unwrap();
        assert_eq!(run.len(), 4);
        assert_eq!(run[0].0, 4);
        assert_eq!(&arena[run[0].1.clone()], &vec![4u8; 64][..]);
        assert_eq!(
            arena.capacity(),
            cap_after_first,
            "equal-sized runs reuse the arena allocation"
        );
        assert!(q.dequeue_run(4, &mut arena).unwrap().is_empty());
    }

    #[test]
    fn dequeue_run_detects_in_place_corruption() {
        let path = qpath("arenacorrupt.q");
        let q = PersistentQueue::open(&path).unwrap();
        q.enqueue(b"payload-bytes").unwrap();
        drop(q);
        // Flip one payload byte on disk (offset 4 = first body byte).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // Reopen sees a corrupt (sole) frame and truncates it as a torn tail;
        // a frame corrupted *after* open must surface as a typed error.
        let q = PersistentQueue::open(&path).unwrap();
        assert_eq!(q.total(), 0, "corrupt tail frame dropped on open");
        q.enqueue(b"good").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut arena = Vec::new();
        let err = q.dequeue_run(10, &mut arena).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn short_write_admission_leaves_a_recoverable_spool() {
        use delta_storage::pressure::DiskBudget;
        let path = qpath("short.q");
        // 112-byte frames; the second append is admitted only partially.
        let budget = Arc::new(DiskBudget::bytes(112 + 50));
        let q = PersistentQueue::open(&path)
            .unwrap()
            .with_spool_budget(budget);
        q.enqueue(&[1u8; 100]).unwrap();
        let err = q.enqueue(&[2u8; 100]).unwrap_err();
        assert!(matches!(err, StorageError::DiskFull { .. }));
        // The torn tail reached the file (short write acted out)...
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 112 + 50);
        drop(q);
        // ...and a restart truncates it back to the last whole frame.
        let q = PersistentQueue::open(&path).unwrap();
        assert_eq!(q.total(), 1);
        let (_, payload) = q.dequeue().unwrap().unwrap();
        assert_eq!(payload, vec![1u8; 100]);
        q.enqueue(b"after recovery").unwrap();
    }

    #[test]
    fn live_queue_repairs_its_own_torn_tail() {
        use delta_storage::pressure::DiskBudget;
        let path = qpath("repair.q");
        let budget = Arc::new(DiskBudget::bytes(112 + 50));
        let q = PersistentQueue::open(&path)
            .unwrap()
            .with_spool_budget(budget.clone());
        q.enqueue(&[1u8; 100]).unwrap();
        assert!(q.enqueue(&[2u8; 100]).is_err());
        // Pressure lifts; the next append first truncates the torn tail
        // (crediting its bytes) and then writes a whole frame.
        budget.set_global(None);
        q.enqueue(&[3u8; 100]).unwrap();
        let run = q.take(10);
        assert_eq!(run.len(), 2);
        assert_eq!(run[1].1, vec![3u8; 100]);
        drop(q);
        let q = PersistentQueue::open(&path).unwrap();
        assert_eq!(q.total(), 2, "no torn bytes left behind");
    }

    #[test]
    fn enqueue_all_is_all_or_nothing_under_budget() {
        use delta_storage::pressure::DiskBudget;
        let path = qpath("batch-budget.q");
        // Three 13-byte frames would need 39; admit fewer.
        let budget = Arc::new(DiskBudget::bytes(30));
        let q = PersistentQueue::open(&path)
            .unwrap()
            .with_spool_budget(budget.clone());
        let batch: Vec<Vec<u8>> = vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()];
        let err = q.enqueue_all(&batch).unwrap_err();
        assert!(matches!(err, StorageError::DiskFull { .. }));
        assert_eq!(q.total(), 0, "denied batch wrote nothing");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // With room, the whole batch lands and indices are contiguous.
        budget.set_global(None);
        let first = q.enqueue_all(&batch).unwrap();
        assert_eq!(first, 0);
        assert_eq!(q.total(), 3);
        let run = q.take(10);
        assert_eq!(run[2], (2, b"c".to_vec()));
        // An empty batch is a no-op that reports the next index.
        assert_eq!(q.enqueue_all(&[]).unwrap(), 3);
    }

    #[test]
    fn pressure_signal_tracks_headroom() {
        use delta_storage::pressure::DiskBudget;
        let path = qpath("pressure.q");
        let budget = Arc::new(DiskBudget::bytes(PRESSURE_NEAR_BYTES * 4));
        let q = PersistentQueue::open(&path)
            .unwrap()
            .with_spool_budget(budget.clone());
        assert_eq!(q.pressure(), SpoolPressure::Normal);
        // Burn headroom down into the Near band.
        let frame = vec![0u8; PRESSURE_NEAR_BYTES as usize * 3];
        q.enqueue(&frame).unwrap();
        assert_eq!(q.pressure(), SpoolPressure::Near);
        budget.set_global(Some(0));
        assert_eq!(q.pressure(), SpoolPressure::Exhausted);
        budget.set_global(None);
        assert_eq!(q.pressure(), SpoolPressure::Normal);
        // No budget armed: always Normal.
        let free = PersistentQueue::open(qpath("free.q")).unwrap();
        assert_eq!(free.pressure(), SpoolPressure::Normal);
        assert_eq!(free.spool_headroom(), None);
    }

    #[test]
    fn pending_counts() {
        let q = PersistentQueue::open(qpath("pending.q")).unwrap();
        q.enqueue(b"x").unwrap();
        q.enqueue(b"y").unwrap();
        assert_eq!(q.pending(), 2);
        let (i, _) = q.dequeue().unwrap().unwrap();
        assert_eq!(q.pending(), 1);
        q.ack(i).unwrap();
        assert_eq!(q.pending(), 1);
    }
}
