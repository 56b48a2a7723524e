//! Redo write-ahead log with segment rotation and archive mode.
//!
//! The engine logs *logical* row-level redo records (the interpreted
//! equivalent of what a DBMS log API would yield; the paper notes real
//! products log physiologically, which is precisely why raw log access is
//! insufficient without interpretation — our records model the interpreted
//! stream). A transaction's records are buffered by the transaction and
//! appended to the log **atomically at commit**, so the log contains only
//! committed work in commit order; this is what makes log shipping and
//! log-based delta extraction (§3, method 4) work.
//!
//! The log is a sequence of fixed-capacity segment files. At a checkpoint,
//! closed segments are *recycled* (deleted) — unless **archive mode** is on,
//! in which case they move to the archive directory and accumulate, exactly
//! as the paper describes ("if archiving is turned on, the redo logs are not
//! recycled at checkpoint time").
//!
//! **Group commit.** Concurrent committers do not serialize through one
//! mutex for the whole encode+write+sync. Each committer encodes its batch
//! into a reusable buffer *outside* every lock, then a short sequencer
//! critical section assigns its LSN range and enqueues the sealed bytes.
//! Whoever finds no leader active becomes the leader: it drains the queue,
//! writes the whole group with one write round and one sync, and wakes the
//! followers parked on the commit condvar. One `sync_data` is thereby
//! amortized over every batch that accumulated while the previous sync was
//! in flight. File order always equals LSN order (sealing and enqueueing
//! happen in the same critical section), which torn-tail recovery depends
//! on: truncation may only ever lose the highest-LSN suffix.

use std::collections::HashMap;
use std::ffi::OsString;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Buf, BufMut};
use parking_lot::{Condvar, Mutex};

use delta_storage::colbatch::{fnv1a, FNV1A_OFFSET};
use delta_storage::fault::{FaultAction, FaultInjector};
use delta_storage::pressure::{Admission, DiskBudget};
use delta_storage::{invariant, IoOp, Row, StorageError, StorageResult};

use crate::db::SyncMode;
use crate::error::{EngineError, EngineResult};
use crate::txn::TxnId;

/// Log sequence number: a dense, monotonically increasing record counter.
pub type Lsn = u64;

/// A logical redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// Transaction start (written as part of the commit batch).
    Begin { txn: TxnId },
    /// Transaction end; everything between Begin and Commit is atomic.
    Commit { txn: TxnId },
    /// Row inserted.
    Insert { txn: TxnId, table: String, row: Row },
    /// Row deleted (before image).
    Delete {
        txn: TxnId,
        table: String,
        before: Row,
    },
    /// Row updated (before and after images).
    Update {
        txn: TxnId,
        table: String,
        before: Row,
        after: Row,
    },
    /// Table created (schema in catalog text form).
    CreateTable {
        name: String,
        schema: String,
        options: String,
    },
    /// Table dropped.
    DropTable { name: String },
    /// Checkpoint marker.
    Checkpoint,
}

impl LogRecord {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn }
            | LogRecord::Insert { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Update { txn, .. } => Some(*txn),
            _ => None,
        }
    }

    /// The table this record touches, if any.
    pub fn table(&self) -> Option<&str> {
        match self {
            LogRecord::Insert { table, .. }
            | LogRecord::Delete { table, .. }
            | LogRecord::Update { table, .. } => Some(table),
            LogRecord::CreateTable { name, .. } | LogRecord::DropTable { name } => Some(name),
            _ => None,
        }
    }

    /// Whether this is a row-level change (insert, delete or update).
    pub fn is_row_change(&self) -> bool {
        self.images().iter().any(Option::is_some)
    }

    /// The signed stored images this record carries, in order: `-1` the row
    /// that left the table (`before`), `+1` the row that entered it (`row`,
    /// `after`). The one translation from redo records to images — the view
    /// fold over an open transaction's tail and log extraction over the
    /// committed tail are both written over it.
    pub fn images(&self) -> [Option<(i64, &Row)>; 2] {
        let (left, entered) = match self {
            LogRecord::Insert { row, .. } => (None, Some(row)),
            LogRecord::Delete { before, .. } => (Some(before), None),
            LogRecord::Update { before, after, .. } => (Some(before), Some(after)),
            _ => (None, None),
        };
        [left.map(|row| (-1, row)), entered.map(|row| (1, row))]
    }

    /// [`images`](LogRecord::images), lent mutably, so a reader that owns
    /// the record can move an image out instead of copying it.
    pub fn images_mut(&mut self) -> [Option<(i64, &mut Row)>; 2] {
        let (left, entered) = match self {
            LogRecord::Insert { row, .. } => (None, Some(row)),
            LogRecord::Delete { before, .. } => (Some(before), None),
            LogRecord::Update { before, after, .. } => (Some(before), Some(after)),
            _ => (None, None),
        };
        [left.map(|row| (-1, row)), entered.map(|row| (1, row))]
    }
}

/// The one definition of "committed": split `records` (log order) into
/// committed units *by position*, never by transaction id — ids restart at
/// every open, positions do not. A `Begin … Commit` run with only row
/// records between is one unit; an administrative record (DDL, checkpoint)
/// is a unit alone; a `Begin …` fragment that meets the next `Begin`, an
/// administrative record or the end before any `Commit` is a torn batch and
/// is dropped, as is any row record or `Commit` outside a `Begin`.
///
/// Sound over a whole segment or any run of whole segments: a commit batch
/// reaches the log as one contiguous write and a segment only rotates
/// between groups, so a batch never interleaves with another and never
/// straddles a segment.
pub fn committed_units(records: &[(Lsn, LogRecord)]) -> impl Iterator<Item = &[(Lsn, LogRecord)]> {
    let mut rest = records;
    std::iter::from_fn(move || loop {
        let (len, committed) = next_unit(rest)?;
        let (unit, after) = rest.split_at(len);
        rest = after;
        if committed {
            return Some(unit);
        }
    })
}

/// How many records the unit at the front of `records` holds, and whether
/// it is committed; `None` when `records` is empty. An uncommitted unit is
/// one record: a fragment is dropped `Begin` first, and its rows then fall
/// as strays.
fn next_unit(records: &[(Lsn, LogRecord)]) -> Option<(usize, bool)> {
    let (first, tail) = records.split_first()?;
    let len = match first.1 {
        LogRecord::Begin { .. } => {
            let body = tail.iter().take_while(|(_, r)| r.is_row_change()).count();
            matches!(tail.get(body), Some((_, LogRecord::Commit { .. }))).then_some(body + 2)
        }
        LogRecord::CreateTable { .. } | LogRecord::DropTable { .. } | LogRecord::Checkpoint => {
            Some(1)
        }
        _ => None,
    };
    Some((len.unwrap_or(1), len.is_some()))
}

const T_BEGIN: u8 = 1;
const T_COMMIT: u8 = 2;
const T_INSERT: u8 = 3;
const T_DELETE: u8 = 4;
const T_UPDATE: u8 = 5;
const T_CREATE: u8 = 6;
const T_DROP: u8 = 7;
const T_CHECKPOINT: u8 = 8;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> StorageResult<String> {
    if buf.remaining() < 4 {
        return Err(StorageError::Corrupt("wal string truncated".into()));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(StorageError::Corrupt("wal string truncated".into()));
    }
    let s = std::str::from_utf8(&buf[..len])
        .map_err(|_| StorageError::Corrupt("wal string not UTF-8".into()))?
        .to_string();
    buf.advance(len);
    Ok(s)
}

/// File in the WAL directory holding the persisted LSN high-water hint (see
/// [`LogManager::write_lsn_hint`]).
const LSN_HINT_FILE: &str = "lsn.hint";

/// Serialize a record's payload (everything but the LSN) into `body`.
///
/// The entry body is `payload || lsn` — the LSN sits at the *tail* so that a
/// batch can be encoded and FNV-hashed before its LSN range is known, and
/// sealed later in O(1) per entry: splice 8 LSN bytes, fold them into the
/// saved hash state, write the checksum.
fn encode_payload(rec: &LogRecord, body: &mut Vec<u8>) {
    match rec {
        LogRecord::Begin { txn } => {
            body.put_u8(T_BEGIN);
            body.put_u64(txn.0);
        }
        LogRecord::Commit { txn } => {
            body.put_u8(T_COMMIT);
            body.put_u64(txn.0);
        }
        LogRecord::Insert { txn, table, row } => {
            body.put_u8(T_INSERT);
            body.put_u64(txn.0);
            put_str(body, table);
            row.encode(body);
        }
        LogRecord::Delete { txn, table, before } => {
            body.put_u8(T_DELETE);
            body.put_u64(txn.0);
            put_str(body, table);
            before.encode(body);
        }
        LogRecord::Update {
            txn,
            table,
            before,
            after,
        } => {
            body.put_u8(T_UPDATE);
            body.put_u64(txn.0);
            put_str(body, table);
            before.encode(body);
            after.encode(body);
        }
        LogRecord::CreateTable {
            name,
            schema,
            options,
        } => {
            body.put_u8(T_CREATE);
            body.put_u64(0);
            put_str(body, name);
            put_str(body, schema);
            put_str(body, options);
        }
        LogRecord::DropTable { name } => {
            body.put_u8(T_DROP);
            body.put_u64(0);
            put_str(body, name);
        }
        LogRecord::Checkpoint => {
            body.put_u8(T_CHECKPOINT);
            body.put_u64(0);
        }
    }
}

/// Where a pre-encoded frame's LSN and checksum go, plus the FNV state over
/// its payload — everything sealing needs, saved at encode time.
struct FrameFixup {
    /// Offset of the 8 LSN bytes (the checksum follows immediately).
    lsn_at: usize,
    /// FNV state folded over the payload prefix of the body.
    payload_sum: u64,
}

/// Append one framed entry with a placeholder LSN to `buf`.
fn encode_entry_open(rec: &LogRecord, buf: &mut Vec<u8>) -> FrameFixup {
    let len_at = buf.len();
    buf.put_u32(0); // body length, fixed below
    let payload_at = buf.len();
    encode_payload(rec, buf);
    let payload_sum = fnv1a(FNV1A_OFFSET, &buf[payload_at..]);
    let lsn_at = buf.len();
    buf.put_u64(0); // LSN placeholder, sealed later
    let body_len = (buf.len() - payload_at) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&body_len.to_be_bytes());
    buf.put_u64(0); // checksum placeholder, sealed later
    FrameFixup {
        lsn_at,
        payload_sum,
    }
}

/// Assign the dense LSN range starting at `first` to a pre-encoded batch:
/// splice each entry's LSN and finish its checksum. O(1) per entry.
fn seal_entries(buf: &mut [u8], fixups: &[FrameFixup], first: Lsn) {
    for (i, fix) in fixups.iter().enumerate() {
        let lsn_bytes = (first + i as u64).to_be_bytes();
        buf[fix.lsn_at..fix.lsn_at + 8].copy_from_slice(&lsn_bytes);
        let sum = fnv1a(fix.payload_sum, &lsn_bytes);
        buf[fix.lsn_at + 8..fix.lsn_at + 16].copy_from_slice(&sum.to_be_bytes());
    }
}

/// Encode one record (with LSN) into a framed, checksummed entry. Public for
/// codec corruption tests and external log tooling; the hot path encodes
/// whole batches via the open/seal split instead.
pub fn encode_record(lsn: Lsn, rec: &LogRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(80);
    let fix = encode_entry_open(rec, &mut buf);
    seal_entries(&mut buf, &[fix], lsn);
    buf
}

/// Decode one framed entry from the front of `buf`; returns `(lsn, record)`
/// and advances `buf` past it. Every corruption mode — truncation, bit flips,
/// bad checksum, trailing garbage — surfaces as a typed
/// [`StorageError::Corrupt`], never a panic.
pub fn decode_record(buf: &mut &[u8]) -> StorageResult<(Lsn, LogRecord)> {
    if buf.remaining() < 4 {
        return Err(StorageError::Corrupt("wal frame truncated".into()));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len + 8 {
        return Err(StorageError::Corrupt("wal entry truncated".into()));
    }
    if len < 8 {
        return Err(StorageError::Corrupt("wal entry body too short".into()));
    }
    let body = &buf[..len];
    let sum_expected = {
        let mut tail = &buf[len..len + 8];
        tail.get_u64()
    };
    if fnv1a(FNV1A_OFFSET, body) != sum_expected {
        return Err(StorageError::Corrupt("wal entry checksum mismatch".into()));
    }
    // The LSN lives at the body's tail (see `encode_payload`).
    let lsn = {
        let mut tail = &body[len - 8..];
        tail.get_u64()
    };
    let mut b = &body[..len - 8];
    if b.remaining() < 9 {
        return Err(StorageError::Corrupt("wal entry payload too short".into()));
    }
    let ty = b.get_u8();
    let txn = TxnId(b.get_u64());
    let rec = match ty {
        T_BEGIN => LogRecord::Begin { txn },
        T_COMMIT => LogRecord::Commit { txn },
        T_INSERT => {
            let table = get_str(&mut b)?;
            let row = Row::decode(&mut b)?;
            LogRecord::Insert { txn, table, row }
        }
        T_DELETE => {
            let table = get_str(&mut b)?;
            let before = Row::decode(&mut b)?;
            LogRecord::Delete { txn, table, before }
        }
        T_UPDATE => {
            let table = get_str(&mut b)?;
            let before = Row::decode(&mut b)?;
            let after = Row::decode(&mut b)?;
            LogRecord::Update {
                txn,
                table,
                before,
                after,
            }
        }
        T_CREATE => {
            let name = get_str(&mut b)?;
            let schema = get_str(&mut b)?;
            let options = get_str(&mut b)?;
            LogRecord::CreateTable {
                name,
                schema,
                options,
            }
        }
        T_DROP => LogRecord::DropTable {
            name: get_str(&mut b)?,
        },
        T_CHECKPOINT => LogRecord::Checkpoint,
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown wal record type {other}"
            )))
        }
    };
    if !b.is_empty() {
        return Err(StorageError::Corrupt("wal entry has trailing bytes".into()));
    }
    buf.advance(len + 8);
    Ok((lsn, rec))
}

struct Writer {
    out: BufWriter<File>,
    segment_index: u64,
    segment_bytes: u64,
}

/// Observable WAL throughput counters (see [`LogManager::stats`]).
///
/// `fsyncs / batches` is the amortization the group-commit protocol buys;
/// `batches / groups` is the mean group size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Commit batches appended (one per `append_batch` call).
    pub batches: u64,
    /// Individual log records appended.
    pub entries: u64,
    /// Write rounds: each covers one drained group with a single
    /// write+sync.
    pub groups: u64,
    /// `sync_data` calls issued (only in [`SyncMode::Fsync`]).
    pub fsyncs: u64,
    /// Largest number of batches covered by one write round.
    pub max_group_batches: u64,
}

impl WalStats {
    /// Mean batches per write round (1.0 when nothing grouped).
    pub fn mean_group_batches(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.batches as f64 / self.groups as f64
        }
    }
}

/// Lock-free counters behind [`WalStats`].
#[derive(Default)]
struct WalCounters {
    batches: AtomicU64,
    entries: AtomicU64,
    groups: AtomicU64,
    fsyncs: AtomicU64,
    max_group_batches: AtomicU64,
}

/// A sealed, ready-to-write commit batch parked on the group-commit queue.
struct PendingBatch {
    /// Framed entries, LSNs and checksums already sealed.
    bytes: Vec<u8>,
    /// Highest LSN in the batch; durable once published past it.
    last_lsn: Lsn,
}

/// Sequencer state: LSN assignment, the pending group, and leadership.
/// Guarded by the `seq` mutex; never held across I/O.
struct GroupState {
    next_lsn: Lsn,
    /// Every record with LSN <= this is on disk (per the sync mode).
    durable_lsn: Lsn,
    /// Sealed batches awaiting the next leader round, in LSN order.
    pending: Vec<PendingBatch>,
    /// Whether some committer is currently writing a group.
    leader_active: bool,
    /// Set when a group write failed: the log tail is untrustworthy, so all
    /// waiting and future appends must error instead of risking LSN gaps.
    poisoned: bool,
}

/// Cap on recycled encode buffers kept for reuse.
const SPARE_BUFFERS: usize = 16;
/// Buffers above this capacity are dropped rather than pooled.
const MAX_SPARE_CAPACITY: usize = 1 << 20;

/// The log manager: one per database.
pub struct LogManager {
    wal_dir: PathBuf,
    archive_dir: PathBuf,
    segment_capacity: u64,
    sync_mode: SyncMode,
    archive_mode: bool,
    seq: Mutex<GroupState>,
    /// Followers park here until the leader publishes their LSN as durable.
    commit_cv: Condvar,
    inner: Mutex<WalInner>,
    /// Cleared encode buffers recycled across commits.
    spares: Mutex<Vec<Vec<u8>>>,
    counters: WalCounters,
    /// Armed fault plan shared with the database's disk files; group writes
    /// and syncs consult it (deterministic torture testing).
    faults: Option<Arc<FaultInjector>>,
    /// Armed disk budget: group writes and the LSN hint ask it for space
    /// first; deleting a recycled segment credits its bytes back (archiving
    /// one is a rename and costs nothing). Exhaustion mid-group acts like a
    /// torn write (typed error, tail truncated at reopen).
    budget: Option<Arc<DiskBudget>>,
    /// First LSN of every segment read so far (see [`stream_committed`]).
    first_lsns: SegmentFirsts,
    /// First LSN held by the segments resident at open: where redo recovery
    /// starts (the next LSN when they held nothing).
    resident_start: Lsn,
}

struct WalInner {
    writer: Writer,
    /// Closed (rotated) segments not yet recycled/archived.
    closed: Vec<PathBuf>,
}

fn segment_name(index: u64) -> String {
    format!("seg-{index:08}.wal")
}

/// Error returned for any append after a group write failed: the log tail is
/// untrustworthy and continuing would leave LSN gaps.
fn wal_poisoned() -> EngineError {
    EngineError::Invalid("WAL poisoned by an earlier write failure".into())
}

/// Whether a batch is properly bracketed: a batch that starts with `Begin`
/// must end with `Commit` for the same transaction, and a batch that does not
/// start with `Begin` must carry no transaction bracket records at all
/// (administrative batches: CreateTable/DropTable/Checkpoint).
fn batch_is_bracketed(records: &[LogRecord]) -> bool {
    match records.first() {
        Some(LogRecord::Begin { txn }) => {
            matches!(records.last(), Some(LogRecord::Commit { txn: t }) if t == txn)
                && !records[1..records.len() - 1]
                    .iter()
                    .any(|r| matches!(r, LogRecord::Begin { .. } | LogRecord::Commit { .. }))
        }
        _ => !records
            .iter()
            .any(|r| matches!(r, LogRecord::Begin { .. } | LogRecord::Commit { .. })),
    }
}

impl LogManager {
    /// Open the log in `wal_dir` (created if needed). The resident segments
    /// are scanned to restore the LSN counter and closed-segment list.
    pub fn open(
        wal_dir: impl AsRef<Path>,
        archive_dir: impl AsRef<Path>,
        segment_capacity: u64,
        sync_mode: SyncMode,
        archive_mode: bool,
        faults: Option<Arc<FaultInjector>>,
        budget: Option<Arc<DiskBudget>>,
    ) -> EngineResult<LogManager> {
        let wal_dir = wal_dir.as_ref().to_path_buf();
        let archive_dir = archive_dir.as_ref().to_path_buf();
        fs::create_dir_all(&wal_dir)?;
        fs::create_dir_all(&archive_dir)?;

        let segments = list_segment_files(&wal_dir, false)?;
        // LSN high-water hint, persisted at checkpoint: segment scans alone
        // cannot recover the next LSN when archived history has been moved,
        // quarantined, or deleted — and re-issuing an already-used LSN would
        // silently desynchronize every log-shipping consumer downstream.
        let hint: Lsn = fs::read_to_string(wal_dir.join(LSN_HINT_FILE))
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        // The next LSN comes from the resident segments and the hint. Damage
        // in a resident segment fails the open (recovery refuses to guess);
        // the archive is consulted newest-first for one readable segment and
        // never fails it — an unreadable archived segment is the extractor's
        // to quarantine, not a reason to refuse to boot.
        let first_lsns = SegmentFirsts::default();
        let skip = |_: &mut [(Lsn, LogRecord)]| Ok(());
        let resident_high = stream_committed(&first_lsns, &segments, 0, 1, Lsn::MAX, skip)?.high;
        let archived_high = list_segment_files(&archive_dir, false)?
            .iter()
            .rev()
            .find_map(|p| {
                let one = std::slice::from_ref(p);
                stream_committed(&first_lsns, one, 1, 1, Lsn::MAX, skip)
                    .ok()
                    .map(|tail| tail.high)
            })
            .unwrap_or(0);
        let next_lsn = (resident_high.max(archived_high) + 1).max(hint);
        let resident_start = segments
            .iter()
            .find_map(|p| first_lsns.lock().get(p.file_name()?).copied())
            .unwrap_or(next_lsn);
        let active_index = match segments.last() {
            Some(last) => segment_index_of(last)?,
            None => 1,
        };
        let active_path = wal_dir.join(segment_name(active_index));
        // A crash mid-append can leave a torn entry at the active segment's
        // tail; truncate it away so new appends continue a valid stream.
        if active_path.exists() {
            let valid = valid_prefix_len(&active_path)?;
            let actual = fs::metadata(&active_path)?.len();
            if valid < actual {
                let f = OpenOptions::new().write(true).open(&active_path)?;
                f.set_len(valid)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active_path)?;
        let segment_bytes = file.metadata()?.len();
        let closed = segments.into_iter().filter(|p| *p != active_path).collect();
        Ok(LogManager {
            wal_dir,
            archive_dir,
            segment_capacity,
            sync_mode,
            archive_mode,
            seq: Mutex::new(GroupState {
                next_lsn,
                durable_lsn: next_lsn - 1,
                pending: Vec::new(),
                leader_active: false,
                poisoned: false,
            }),
            commit_cv: Condvar::new(),
            inner: Mutex::new(WalInner {
                writer: Writer {
                    out: BufWriter::new(file),
                    segment_index: active_index,
                    segment_bytes,
                },
                closed,
            }),
            spares: Mutex::new(Vec::new()),
            counters: WalCounters::default(),
            faults,
            budget,
            first_lsns,
            resident_start,
        })
    }

    /// Whether archive mode is on.
    pub fn archive_mode(&self) -> bool {
        self.archive_mode
    }

    /// Directory where archived segments accumulate.
    pub fn archive_dir(&self) -> &Path {
        &self.archive_dir
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> Lsn {
        self.seq.lock().next_lsn
    }

    /// Highest LSN known durable (written, and synced per the sync mode).
    pub fn durable_lsn(&self) -> Lsn {
        self.seq.lock().durable_lsn
    }

    /// Snapshot of the throughput counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            batches: self.counters.batches.load(Ordering::Relaxed),
            entries: self.counters.entries.load(Ordering::Relaxed),
            groups: self.counters.groups.load(Ordering::Relaxed),
            fsyncs: self.counters.fsyncs.load(Ordering::Relaxed),
            max_group_batches: self.counters.max_group_batches.load(Ordering::Relaxed),
        }
    }

    /// Append a batch of records atomically, returning the LSN range
    /// `[first, last]` assigned. This is how a committing transaction
    /// publishes its Begin..Commit run: the batch's bytes land contiguously
    /// in the log no matter how many committers race, because a batch is
    /// sealed and enqueued as one unit and written as one unit.
    ///
    /// Encoding happens *outside* every lock, into a buffer recycled across
    /// commits; only LSN assignment (cheap) and the group write (amortized)
    /// are serialized.
    pub fn append_batch(&self, records: &[LogRecord]) -> EngineResult<(Lsn, Lsn)> {
        if records.is_empty() {
            return Err(EngineError::Invalid("empty WAL batch".into()));
        }
        invariant!(
            batch_is_bracketed(records),
            "commit batch is not Begin..Commit bracketed: {:?}",
            records.first()
        );
        let mut buf = self.take_spare();
        let mut fixups = Vec::with_capacity(records.len());
        for rec in records {
            fixups.push(encode_entry_open(rec, &mut buf));
        }
        let range = self.append_grouped(buf, &fixups)?;
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .entries
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        Ok(range)
    }

    /// Group-commit append: a short sequencer critical section assigns the
    /// LSN range, seals the pre-encoded bytes, and enqueues them — so queue
    /// order, LSN order, and file order all coincide. The first committer to
    /// find no leader active becomes the leader and writes the accumulated
    /// group; everyone else parks on the commit condvar until their LSN is
    /// durable.
    fn append_grouped(&self, mut buf: Vec<u8>, fixups: &[FrameFixup]) -> EngineResult<(Lsn, Lsn)> {
        let (first, last, lead) = {
            let mut seq = self.seq.lock();
            if seq.poisoned {
                return Err(wal_poisoned());
            }
            let first = seq.next_lsn;
            seal_entries(&mut buf, fixups, first);
            let last = first + fixups.len() as u64 - 1;
            seq.next_lsn = last + 1;
            seq.pending.push(PendingBatch {
                bytes: buf,
                last_lsn: last,
            });
            let lead = !seq.leader_active;
            if lead {
                seq.leader_active = true;
            }
            (first, last, lead)
        };
        if lead {
            // The first round always covers our own batch: we enqueued it and
            // took leadership in one critical section, so no other committer
            // can have drained it.
            let wrote = self.lead_round()?;
            invariant!(wrote, "leader's first round found an empty group queue");
            // Our batch is durable; opportunistically keep leading while more
            // work accumulates. A failure in these extra rounds belongs to
            // the batches in them — poisoning reports it to their owners.
            while matches!(self.lead_round(), Ok(true)) {}
            Ok((first, last))
        } else {
            self.follow(last)?;
            Ok((first, last))
        }
    }

    /// One leader round: drain the pending group, write it, publish the new
    /// durable LSN (or poison on failure), wake the followers. Returns
    /// `Ok(false)` — leadership released — when the queue was empty.
    fn lead_round(&self) -> EngineResult<bool> {
        let mut group = {
            let mut seq = self.seq.lock();
            if seq.pending.is_empty() {
                seq.leader_active = false;
                return Ok(false);
            }
            std::mem::take(&mut seq.pending)
        };
        invariant!(
            group.windows(2).all(|w| w[0].last_lsn < w[1].last_lsn),
            "drained group is not in LSN order"
        );
        let high = group.last().map(|b| b.last_lsn).unwrap_or(0);
        let res = self.write_group(&mut group);
        {
            let mut seq = self.seq.lock();
            match &res {
                Ok(()) => seq.durable_lsn = seq.durable_lsn.max(high),
                Err(_) => {
                    seq.poisoned = true;
                    seq.leader_active = false;
                }
            }
        }
        self.commit_cv.notify_all();
        res.map(|()| true)
    }

    /// Follower side: park until the leader publishes `last` as durable.
    fn follow(&self, last: Lsn) -> EngineResult<()> {
        // lint: allow(lock_hygiene) -- sanctioned group-commit wait site: a
        // follower must hold the sequencer mutex while parking on the commit
        // condvar, or it would miss the leader's durable-LSN publication
        // (classic lost-wakeup). The leader never blocks on this condvar.
        let mut seq = self.seq.lock();
        while seq.durable_lsn < last && !seq.poisoned {
            self.commit_cv.wait(&mut seq);
        }
        if seq.durable_lsn < last {
            return Err(wal_poisoned());
        }
        Ok(())
    }

    /// Write one drained group under the writer lock: every batch's bytes in
    /// LSN order, then at most one flush/sync for the whole group, then a
    /// rotation check. Buffers are recycled into the spare pool.
    fn write_group(&self, group: &mut Vec<PendingBatch>) -> EngineResult<()> {
        {
            // lint: allow(lock_hygiene) -- the writer mutex is the
            // single-writer funnel of the group-commit protocol; it must
            // cover the group's write+sync so file order matches LSN order.
            let mut inner = self.inner.lock();
            let segment_path = self.wal_dir.join(segment_name(inner.writer.segment_index));
            // One fault decision per group write round. An injected failure
            // propagates to the committers and poisons the log — a half
            // written group is exactly the torn tail reopen truncates away.
            if let Some(inj) = &self.faults {
                match inj.decide(IoOp::Write) {
                    None | Some(FaultAction::DropSync) => {}
                    Some(a @ FaultAction::TornWrite { keep }) => {
                        let all: Vec<u8> =
                            group.iter().flat_map(|b| b.bytes.iter().copied()).collect();
                        let keep = (keep as usize).min(all.len());
                        inner.writer.out.write_all(&all[..keep])?;
                        inner.writer.out.flush()?;
                        inner.writer.segment_bytes += keep as u64;
                        return Err(EngineError::Storage(inj.error(
                            IoOp::Write,
                            &segment_path,
                            a,
                        )));
                    }
                    Some(a) => {
                        return Err(EngineError::Storage(inj.error(
                            IoOp::Write,
                            &segment_path,
                            a,
                        )))
                    }
                }
            }
            if let Some(budget) = &self.budget {
                let total: u64 = group.iter().map(|b| b.bytes.len() as u64).sum();
                match budget.admit(&segment_path, total) {
                    Admission::Granted => {}
                    Admission::Short { keep } => {
                        // ENOSPC mid-group: the admitted prefix reaches the
                        // file (and poisons the log); reopen truncates the
                        // torn tail back to the last whole entry.
                        let all: Vec<u8> =
                            group.iter().flat_map(|b| b.bytes.iter().copied()).collect();
                        let keep = (keep as usize).min(all.len());
                        inner.writer.out.write_all(&all[..keep])?;
                        inner.writer.out.flush()?;
                        inner.writer.segment_bytes += keep as u64;
                        return Err(EngineError::Storage(budget.error(&segment_path, total)));
                    }
                    Admission::Denied => {
                        return Err(EngineError::Storage(budget.error(&segment_path, total)));
                    }
                }
            }
            for b in group.iter() {
                inner.writer.out.write_all(&b.bytes)?;
                inner.writer.segment_bytes += b.bytes.len() as u64;
            }
            let dropped_sync = match (&self.faults, self.sync_mode) {
                (Some(inj), SyncMode::Flush | SyncMode::Fsync) => match inj.decide(IoOp::Sync) {
                    None => false,
                    Some(FaultAction::DropSync) => true,
                    Some(a) => {
                        return Err(EngineError::Storage(inj.error(
                            IoOp::Sync,
                            &segment_path,
                            a,
                        )))
                    }
                },
                _ => false,
            };
            match self.sync_mode {
                SyncMode::None => {}
                _ if dropped_sync => {
                    // Lying fsync: the group stays in OS/process buffers and
                    // a later simulated crash may lose it. Commit reports
                    // success — exactly the failure mode being modeled.
                }
                SyncMode::Flush => inner.writer.out.flush()?,
                SyncMode::Fsync => {
                    inner.writer.out.flush()?;
                    inner.writer.out.get_ref().sync_data()?;
                    self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
                }
            }
            if inner.writer.segment_bytes >= self.segment_capacity {
                self.rotate(&mut inner)?;
            }
        }
        self.counters.groups.fetch_add(1, Ordering::Relaxed);
        self.counters
            .max_group_batches
            .fetch_max(group.len() as u64, Ordering::Relaxed);
        self.recycle_buffers(group);
        Ok(())
    }

    /// A cleared encode buffer from the spare pool (or a fresh one).
    fn take_spare(&self) -> Vec<u8> {
        self.spares.lock().pop().unwrap_or_default()
    }

    /// Return written-out group buffers to the spare pool, bounded in count
    /// and per-buffer capacity so one huge commit can't pin memory forever.
    fn recycle_buffers(&self, group: &mut Vec<PendingBatch>) {
        let mut spares = self.spares.lock();
        for mut b in group.drain(..) {
            if spares.len() < SPARE_BUFFERS && b.bytes.capacity() <= MAX_SPARE_CAPACITY {
                b.bytes.clear();
                spares.push(b.bytes);
            }
        }
    }

    fn rotate(&self, inner: &mut WalInner) -> EngineResult<()> {
        inner.writer.out.flush()?;
        let old_index = inner.writer.segment_index;
        let new_index = old_index + 1;
        let new_path = self.wal_dir.join(segment_name(new_index));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&new_path)?;
        inner
            .closed
            .push(self.wal_dir.join(segment_name(old_index)));
        inner.writer = Writer {
            out: BufWriter::new(file),
            segment_index: new_index,
            segment_bytes: 0,
        };
        Ok(())
    }

    /// Checkpoint hook: recycle closed segments. With archive mode on they
    /// move to the archive directory; otherwise they are deleted. Returns the
    /// number of segments recycled. (Flushing dirty pages is the database's
    /// job and happens before this is called.)
    pub fn recycle_closed_segments(&self) -> EngineResult<usize> {
        // lint: allow(lock_hygiene) -- checkpoint-time recycle must exclude
        // concurrent appends while segment files are renamed away.
        let mut inner = self.inner.lock();
        inner.writer.out.flush()?;
        let closed = std::mem::take(&mut inner.closed);
        let n = closed.len();
        #[cfg(feature = "invariants")]
        let archived_before = list_segment_files(&self.archive_dir, false)?.len();
        for p in closed {
            if self.archive_mode {
                let dest = self.archive_dir.join(
                    p.file_name()
                        .ok_or_else(|| EngineError::Invalid("bad segment path".into()))?,
                );
                fs::rename(&p, &dest)?;
            } else {
                let freed = fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
                fs::remove_file(&p)?;
                if let Some(budget) = &self.budget {
                    budget.credit(&p, freed);
                }
            }
        }
        #[cfg(feature = "invariants")]
        if self.archive_mode {
            // Segment conservation: every recycled segment must now be in the
            // archive — archiving moves log history, it never loses it.
            let archived_after = list_segment_files(&self.archive_dir, false)?.len();
            invariant!(
                archived_after == archived_before + n,
                "segment conservation violated: {archived_before} archived + {n} recycled != {archived_after}"
            );
        }
        Ok(n)
    }

    /// Force the active segment to close and a new one to open, so that all
    /// records so far become eligible for archiving at the next checkpoint.
    /// (The real-world analogue is `ALTER SYSTEM SWITCH LOGFILE`.)
    pub fn switch_segment(&self) -> EngineResult<()> {
        // lint: allow(lock_hygiene) -- rotation must run under the writer
        // lock: the old segment's tail and the new segment's header have to
        // be ordered against concurrent appends.
        let mut inner = self.inner.lock();
        if inner.writer.segment_bytes == 0 {
            return Ok(()); // nothing in the active segment
        }
        self.rotate(&mut inner)
    }

    /// Persist the current next-LSN as a high-water hint file in the WAL
    /// directory (atomically, via write-then-rename). Called at checkpoint,
    /// right after closed segments are recycled: from then on, part of the
    /// log's LSN history lives only in the archive (or nowhere, without
    /// archive mode), and a reopen that cannot see it — archives shipped
    /// elsewhere, quarantined as corrupt, or deleted — must still never
    /// re-issue an LSN that log-shipping consumers have already seen.
    pub fn write_lsn_hint(&self) -> EngineResult<()> {
        let next = {
            // Guard dropped before any file I/O below.
            self.seq.lock().next_lsn
        };
        let tmp = self.wal_dir.join(format!("{LSN_HINT_FILE}.tmp"));
        let body = format!("{next}\n");
        if let Some(budget) = &self.budget {
            budget.admit_full(&tmp, body.len() as u64)?;
        }
        if let Err(e) = fs::write(&tmp, &body) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        fs::rename(&tmp, self.wal_dir.join(LSN_HINT_FILE))?;
        Ok(())
    }

    /// Paths of archived segments, in order.
    pub fn archived_segments(&self) -> EngineResult<Vec<PathBuf>> {
        list_segment_files(&self.archive_dir, false)
    }

    /// Paths of resident (non-archived) segments, oldest first, including the
    /// active one.
    pub fn resident_segments(&self) -> EngineResult<Vec<PathBuf>> {
        // Flush so readers see everything appended so far.
        // lint: allow(lock_hygiene) -- one-shot flush of the guarded writer.
        self.inner.lock().writer.out.flush()?;
        list_segment_files(&self.wal_dir, false)
    }

    /// The one reader of the committed log. Visits, in log order, every
    /// committed unit (see [`committed_units`]) whose records lie in
    /// `from_lsn ..=` the LSN durable when the call began — so what a visitor
    /// itself appends is never read back — and returns the highest LSN read,
    /// dropped fragments included (`0` when there was nothing to read): a
    /// consumer's watermark passes a torn batch, which can never commit
    /// later. Segments wholly below `from_lsn` are not opened (see
    /// [`stream_committed`]); a damaged segment that *is* needed surfaces as
    /// typed corruption, and one already quarantined is read past and named
    /// in [`Tail::lost`]. Each unit is lent mutably: the reader decoded its
    /// records for this call alone, so a visitor may move them out.
    pub fn read_committed(
        &self,
        from_lsn: Lsn,
        visit: impl FnMut(&mut [(Lsn, LogRecord)]) -> EngineResult<()>,
    ) -> EngineResult<Tail> {
        let end = self.durable_lsn();
        if from_lsn > end {
            return Ok(Tail::default());
        }
        let (segments, archived) = {
            // lint: allow(lock_hygiene) -- both directories are listed under
            // the writer lock so a checkpoint cannot move a segment from one
            // to the other between the two listings (it would be in neither).
            let mut inner = self.inner.lock();
            inner.writer.out.flush()?;
            let mut all = list_segment_files(&self.archive_dir, true)?;
            let archived = all.len();
            all.extend(list_segment_files(&self.wal_dir, false)?);
            (all, archived)
        };
        stream_committed(&self.first_lsns, &segments, archived, from_lsn, end, visit)
    }

    /// [`read_committed`](LogManager::read_committed) collected: the records
    /// of every committed unit from `from_lsn` on, in LSN order.
    pub fn read_from(&self, from_lsn: Lsn) -> EngineResult<Vec<(Lsn, LogRecord)>> {
        let mut out = Vec::new();
        self.read_committed(from_lsn, |unit| {
            out.extend_from_slice(unit);
            Ok(())
        })?;
        Ok(out)
    }

    /// Where redo recovery starts reading: the first LSN the segments
    /// resident at open held.
    pub fn resident_start(&self) -> Lsn {
        self.resident_start
    }

    /// Move every unreadable archived segment aside (renamed `*.wal.corrupt`,
    /// evidence kept) so no reader trips over the same bytes again. Returns
    /// how many archived segments were read and where the corrupt ones went.
    /// A corrupt *resident* segment belongs to recovery and is left alone.
    pub fn quarantine_corrupt_archived(&self) -> EngineResult<(usize, Vec<PathBuf>)> {
        let archived = self.archived_segments()?;
        let mut quarantined = Vec::new();
        for p in &archived {
            if read_segment_file(p, true).is_err() {
                let aside = p.with_extension("wal.corrupt");
                fs::rename(p, &aside)?;
                quarantined.push(aside);
            }
        }
        Ok((archived.len(), quarantined))
    }
}

/// How far one [`LogManager::read_committed`] pass read, and what it could
/// not read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tail {
    /// The highest LSN read (`0` when there was nothing to read).
    pub high: Lsn,
    /// Archived segments quarantined as `*.wal.corrupt` that may hold
    /// records of the range read: the pass went on past them, so whatever
    /// they held is missing from what it visited. A segment that is simply
    /// gone (pruned) is not listed, and is never reported.
    pub lost: Vec<PathBuf>,
}

/// First LSN per segment file name, filled as segments are read. A segment
/// keeps its name and its bytes for life (archiving only moves it to another
/// directory), so an entry never goes stale; entries for files since removed
/// are simply never looked up.
type SegmentFirsts = Mutex<HashMap<OsString, Lsn>>;

/// The body of the one reader: stream `segments` (oldest first, the first
/// `archived` of them from the archive) and hand `visit` every committed
/// unit with records in `from_lsn..=end_lsn`; returns the highest LSN read
/// in that range.
///
/// Reading starts at the newest segment known to begin at or below
/// `from_lsn` — every segment listed before it is older still and is never
/// opened, whether it is intact, corrupt, quarantined, or (pruned) no
/// longer listed at all. Segments are decoded one at a time; nothing is
/// collected and nothing is sorted.
///
/// A quarantined segment (`*.wal.corrupt`, listed in its place) is not
/// read. Its records lie below the first LSN of the next segment that has
/// any, so it is [`Tail::lost`] unless that segment begins at or below
/// `from_lsn` — the reader's watermark had already passed it.
fn stream_committed(
    first_lsns: &SegmentFirsts,
    segments: &[PathBuf],
    archived: usize,
    from_lsn: Lsn,
    end_lsn: Lsn,
    mut visit: impl FnMut(&mut [(Lsn, LogRecord)]) -> EngineResult<()>,
) -> EngineResult<Tail> {
    let start = {
        let known = first_lsns.lock();
        segments.iter().rposition(|p| {
            let first = p.file_name().and_then(|name| known.get(name));
            first.is_some_and(|first| *first <= from_lsn)
        })
    }
    .unwrap_or(0);
    let mut tail = Tail::default();
    // Quarantined segments since the last non-empty one.
    let mut skipped = Vec::new();
    // (segment index, last LSN) of the previous non-empty segment.
    let mut prev: Option<(u64, Lsn)> = None;
    for (i, path) in segments.iter().enumerate().skip(start) {
        if is_quarantined(path) {
            skipped.push(path.clone());
            continue;
        }
        let mut records = read_segment_file(path, i < archived)?;
        let (Some((first, _)), Some((last, _)), Some(name)) =
            (records.first(), records.last(), path.file_name())
        else {
            continue;
        };
        if *first > from_lsn {
            tail.lost.append(&mut skipped);
        }
        skipped.clear();
        first_lsns.lock().insert(name.to_os_string(), *first);
        let index = segment_index_of(path)?;
        invariant!(
            records.windows(2).all(|w| w[1].0 == w[0].0 + 1)
                && prev.is_none_or(|(i, l)| *first == l + 1 || index != i + 1),
            "WAL segment {index} is not LSN-dense ({first}..={last} after {prev:?}): \
             gaps are legal only where a segment is missing"
        );
        prev = Some((index, *last));
        let lo = records.partition_point(|(lsn, _)| *lsn < from_lsn);
        let hi = records.partition_point(|(lsn, _)| *lsn <= end_lsn);
        let mut wanted = records.get_mut(lo..hi).unwrap_or_default();
        tail.high = wanted.last().map_or(tail.high, |(lsn, _)| *lsn);
        // `committed_units`, walked over records this pass owns.
        while let Some((len, committed)) = next_unit(wanted) {
            let (unit, after) = std::mem::take(&mut wanted).split_at_mut(len);
            wanted = after;
            if committed {
                visit(unit)?;
            }
        }
    }
    tail.lost.append(&mut skipped);
    Ok(tail)
}

/// Whether `path` is a segment moved aside by
/// [`LogManager::quarantine_corrupt_archived`].
fn is_quarantined(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some("corrupt")
}

fn segment_index_of(path: &Path) -> EngineResult<u64> {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| EngineError::Invalid(format!("bad segment path {}", path.display())))?;
    stem.strip_prefix("seg-")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| EngineError::Invalid(format!("bad segment name {stem}")))
}

/// The segment files of `dir` in index (= LSN) order; with `quarantined`,
/// a segment moved aside as `*.wal.corrupt` is listed in its place.
fn list_segment_files(dir: &Path, quarantined: bool) -> EngineResult<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        let wanted = p.extension().and_then(|e| e.to_str()) == Some("wal")
            || (quarantined && is_quarantined(&p));
        if wanted {
            out.push(p);
        }
    }
    out.sort();
    Ok(out)
}

/// Read all `(lsn, record)` entries from one segment file.
///
/// A torn tail — a partial final entry left by a crash mid-append — is
/// tolerated: reading stops at the last complete, checksum-valid entry.
/// Corruption *before* the tail (an entry followed by valid ones) is a real
/// integrity failure and is reported as an error.
pub fn read_segment(path: &Path) -> EngineResult<Vec<(Lsn, LogRecord)>> {
    read_segment_file(path, false)
}

/// The one segment decoder. An `archived` segment is read strictly: a
/// segment is only rotated between whole commit groups, so a tail that does
/// not decode there is damage, not a torn write, and is typed corruption
/// (DESIGN.md §23). A resident segment keeps the torn-tail rule of
/// [`read_segment`].
fn read_segment_file(path: &Path, archived: bool) -> EngineResult<Vec<(Lsn, LogRecord)>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut buf = &bytes[..];
    let mut out = Vec::new();
    while !buf.is_empty() {
        let before = buf;
        match decode_record(&mut buf) {
            Ok((lsn, rec)) => out.push((lsn, rec)),
            Err(e) => {
                // An archived segment has no torn tail. In a resident one,
                // anything decodable after the bad bytes means mid-file
                // corruption, not a torn tail.
                if archived || rest_contains_valid_entry(before) {
                    return Err(EngineError::Storage(e));
                }
                break;
            }
        }
    }
    Ok(out)
}

/// Byte length of the valid entry prefix of a segment file.
fn valid_prefix_len(path: &Path) -> EngineResult<u64> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut buf = &bytes[..];
    loop {
        let remaining_before = buf.len();
        if decode_record(&mut buf).is_err() {
            return Ok((bytes.len() - remaining_before) as u64);
        }
        if buf.is_empty() {
            return Ok(bytes.len() as u64);
        }
    }
}

/// Whether any suffix of `bytes` (past the first byte) decodes to a valid
/// entry — evidence that a decode failure was corruption, not truncation.
fn rest_contains_valid_entry(bytes: &[u8]) -> bool {
    for start in 1..bytes.len().saturating_sub(12) {
        let mut probe = &bytes[start..];
        if decode_record(&mut probe).is_ok() {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_storage::Value;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "delta-wal-{}-{:?}-{name}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::Str(format!("r{i}"))])
    }

    fn txn_batch(txn: u64, n: i64) -> Vec<LogRecord> {
        let mut v = vec![LogRecord::Begin { txn: TxnId(txn) }];
        for i in 0..n {
            v.push(LogRecord::Insert {
                txn: TxnId(txn),
                table: "t".into(),
                row: row(i),
            });
        }
        v.push(LogRecord::Commit { txn: TxnId(txn) });
        v
    }

    fn open(dir: &Path, archive: bool) -> LogManager {
        LogManager::open(
            dir.join("wal"),
            dir.join("archive"),
            4096,
            SyncMode::Flush,
            archive,
            None,
            None,
        )
        .unwrap()
    }

    #[test]
    fn entry_codec_round_trips_every_variant() {
        let recs = [
            LogRecord::Begin { txn: TxnId(9) },
            LogRecord::Insert {
                txn: TxnId(9),
                table: "parts".into(),
                row: row(1),
            },
            LogRecord::Update {
                txn: TxnId(9),
                table: "parts".into(),
                before: row(1),
                after: row(2),
            },
            LogRecord::Delete {
                txn: TxnId(9),
                table: "parts".into(),
                before: row(2),
            },
            LogRecord::Commit { txn: TxnId(9) },
            LogRecord::CreateTable {
                name: "t".into(),
                schema: "a:INT".into(),
                options: "".into(),
            },
            LogRecord::DropTable { name: "t".into() },
            LogRecord::Checkpoint,
        ];
        let mut buf = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            buf.extend_from_slice(&encode_record(i as u64 + 1, r));
        }
        let mut cursor = &buf[..];
        for (i, r) in recs.iter().enumerate() {
            let (lsn, back) = decode_record(&mut cursor).unwrap();
            assert_eq!(lsn, i as u64 + 1);
            assert_eq!(&back, r);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn corrupt_entry_is_rejected() {
        let mut buf = encode_record(1, &LogRecord::Checkpoint);
        let n = buf.len();
        buf[n - 9] ^= 1; // flip a bit in the body
        assert!(decode_record(&mut &buf[..]).is_err());
    }

    #[test]
    fn append_and_read_back() {
        let dir = tmp("basic");
        let wal = open(&dir, false);
        let (first, last) = wal.append_batch(&txn_batch(1, 3)).unwrap();
        assert_eq!((first, last), (1, 5));
        let recs = wal.read_from(1).unwrap();
        assert_eq!(recs.len(), 5);
        assert!(matches!(recs[0].1, LogRecord::Begin { .. }));
        assert!(matches!(recs[4].1, LogRecord::Commit { .. }));
    }

    #[test]
    fn read_from_filters_by_lsn() {
        let dir = tmp("filter");
        let wal = open(&dir, false);
        wal.append_batch(&txn_batch(1, 2)).unwrap();
        let (first2, _) = wal.append_batch(&txn_batch(2, 2)).unwrap();
        let recs = wal.read_from(first2).unwrap();
        assert_eq!(recs.len(), 4);
        assert!(recs.iter().all(|(_, r)| r.txn() == Some(TxnId(2))));
    }

    #[test]
    fn rotation_and_recycle_without_archive() {
        let dir = tmp("rot");
        let wal = open(&dir, false);
        for t in 0..50 {
            wal.append_batch(&txn_batch(t, 5)).unwrap();
        }
        assert!(
            wal.resident_segments().unwrap().len() > 1,
            "should have rotated"
        );
        let recycled = wal.recycle_closed_segments().unwrap();
        assert!(recycled > 0);
        assert!(wal.archived_segments().unwrap().is_empty());
    }

    #[test]
    fn archive_mode_accumulates_segments() {
        let dir = tmp("arch");
        let wal = open(&dir, true);
        for t in 0..50 {
            wal.append_batch(&txn_batch(t, 5)).unwrap();
        }
        wal.recycle_closed_segments().unwrap();
        let archived = wal.archived_segments().unwrap();
        assert!(!archived.is_empty(), "archive mode must keep segments");
        // All records must still be readable, across archive + resident.
        let recs = wal.read_from(1).unwrap();
        assert_eq!(recs.len(), 50 * 7);
        // And they stay in strict LSN order.
        for w in recs.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1);
        }
    }

    #[test]
    fn switch_segment_makes_tail_archivable() {
        let dir = tmp("switch");
        let wal = open(&dir, true);
        wal.append_batch(&txn_batch(1, 2)).unwrap();
        wal.switch_segment().unwrap();
        wal.recycle_closed_segments().unwrap();
        assert_eq!(wal.archived_segments().unwrap().len(), 1);
        // Records are still all visible.
        assert_eq!(wal.read_from(1).unwrap().len(), 4);
    }

    #[test]
    fn reopen_restores_lsn_counter() {
        let dir = tmp("reopen");
        {
            let wal = open(&dir, false);
            wal.append_batch(&txn_batch(1, 3)).unwrap();
        }
        let wal = open(&dir, false);
        assert_eq!(wal.next_lsn(), 6);
        let (first, _) = wal.append_batch(&txn_batch(2, 1)).unwrap();
        assert_eq!(first, 6);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let dir = tmp("torn");
        let path;
        {
            let wal = open(&dir, false);
            wal.append_batch(&txn_batch(1, 2)).unwrap();
            path = wal.resident_segments().unwrap()[0].clone();
        }
        // Simulate a crash mid-append: half an entry at the end.
        let extra = encode_record(99, &LogRecord::Checkpoint);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&extra[..extra.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let recs = read_segment(&path).unwrap();
        assert_eq!(recs.len(), 4, "complete prefix survives");
        // The log manager reopens cleanly, truncating the torn tail, and new
        // appends continue a valid stream readers can fully consume.
        let wal = open(&dir, false);
        assert_eq!(wal.read_from(1).unwrap().len(), 4);
        wal.append_batch(&txn_batch(2, 1)).unwrap();
        assert_eq!(
            wal.read_from(1).unwrap().len(),
            7,
            "post-crash appends visible"
        );
    }

    #[test]
    fn lost_archive_never_rewinds_lsns() {
        let dir = tmp("lsnhint");
        let next_before;
        {
            let wal = open(&dir, true);
            wal.append_batch(&txn_batch(1, 20)).unwrap();
            // Checkpoint-style recycle: rotate, archive the closed segment,
            // and persist the LSN high-water hint.
            wal.switch_segment().unwrap();
            wal.recycle_closed_segments().unwrap();
            wal.write_lsn_hint().unwrap();
            next_before = wal.next_lsn();
        }
        // The archived history disappears: shipped elsewhere, quarantined as
        // corrupt, or deleted by an operator. Only the (empty) active
        // segment remains.
        for p in list_segment_files(&dir.join("archive"), false).unwrap() {
            std::fs::remove_file(p).unwrap();
        }
        // Reopen must not re-issue LSNs a log-shipping consumer has already
        // seen — a rewound sequence silently holes the downstream stream.
        let wal = open(&dir, true);
        assert!(
            wal.next_lsn() >= next_before,
            "LSNs rewound from {next_before} to {} after archive loss",
            wal.next_lsn()
        );
        let (first, _) = wal.append_batch(&txn_batch(2, 1)).unwrap();
        assert!(first >= next_before);
    }

    #[test]
    fn mid_file_corruption_is_an_error_not_truncation() {
        let dir = tmp("midcorrupt");
        let path;
        {
            let wal = open(&dir, false);
            wal.append_batch(&txn_batch(1, 5)).unwrap();
            path = wal.resident_segments().unwrap()[0].clone();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xFF; // corrupt the first entry, with valid entries after
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_segment(&path).is_err());
    }

    #[test]
    fn damaged_tail_of_an_archived_segment_is_corruption() {
        let dir = tmp("archived-tail");
        let wal = open(&dir, true);
        for t in 1..=3 {
            wal.append_batch(&txn_batch(t, 2)).unwrap();
        }
        wal.switch_segment().unwrap();
        wal.recycle_closed_segments().unwrap();
        let archived = wal.archived_segments().unwrap();
        assert_eq!(archived.len(), 1);
        // Flip a byte inside the segment's final entry, txn 3's `Commit`. A
        // resident segment would read this as a torn tail and drop txn 3; an
        // archived one closed after a whole group, so it is damage.
        let commit = encode_record(wal.next_lsn() - 1, &LogRecord::Commit { txn: TxnId(3) });
        let mut bytes = std::fs::read(&archived[0]).unwrap();
        assert!(bytes.ends_with(&commit));
        let at = bytes.len() - commit.len() / 2;
        bytes[at] ^= 0x40;
        std::fs::write(&archived[0], &bytes).unwrap();
        match wal.read_committed(1, |_| Ok(())) {
            Err(EngineError::Storage(StorageError::Corrupt(_))) => {}
            other => panic!("expected typed corruption, got {other:?}"),
        }
        // The quarantine walk reads by the same rule and moves it aside.
        let (scanned, quarantined) = wal.quarantine_corrupt_archived().unwrap();
        assert_eq!((scanned, quarantined.len()), (1, 1));
    }

    #[test]
    fn reopen_accounts_for_archived_segments() {
        let dir = tmp("reopen-arch");
        {
            let wal = open(&dir, true);
            wal.append_batch(&txn_batch(1, 3)).unwrap();
            wal.switch_segment().unwrap();
            wal.recycle_closed_segments().unwrap();
        }
        let wal = open(&dir, true);
        assert_eq!(wal.next_lsn(), 6);
    }

    #[test]
    fn reader_opens_no_segment_below_its_start() {
        let dir = tmp("skip");
        let wal = open(&dir, true);
        let mut firsts = Vec::new();
        for t in 1..=4 {
            firsts.push(wal.append_batch(&txn_batch(t, 3)).unwrap().0);
            wal.switch_segment().unwrap();
            wal.recycle_closed_segments().unwrap();
        }
        wal.append_batch(&txn_batch(5, 3)).unwrap();
        assert_eq!(wal.read_from(1).unwrap().len(), 25);
        // Lose the second archived segment: the hole it leaves is legal (the
        // dense-LSN invariant allows a jump where an index is missing).
        let archived = wal.archived_segments().unwrap();
        assert_eq!(archived.len(), 4);
        std::fs::remove_file(&archived[1]).unwrap();
        assert_eq!(wal.read_from(1).unwrap().len(), 20);
        // Vandalize the oldest. A read that starts in the third segment
        // touches neither...
        let mut bytes = std::fs::read(&archived[0]).unwrap();
        bytes[20] ^= 0xFF;
        std::fs::write(&archived[0], &bytes).unwrap();
        assert_eq!(wal.read_from(firsts[2]).unwrap().len(), 15);
        // ...one that needs the damaged segment says so...
        assert!(wal.read_from(1).is_err());
        // ...until the one quarantine walk moves it aside.
        let (scanned, quarantined) = wal.quarantine_corrupt_archived().unwrap();
        assert_eq!((scanned, quarantined.len()), (3, 1));
        assert_eq!(wal.read_from(1).unwrap().len(), 15);
    }

    #[test]
    fn reader_never_reads_back_what_its_visitor_appends() {
        let dir = tmp("visitor-appends");
        let wal = open(&dir, false);
        wal.append_batch(&txn_batch(1, 1)).unwrap();
        wal.append_batch(&[LogRecord::Checkpoint]).unwrap();
        let mut units = 0;
        let high = wal
            .read_committed(1, |_| {
                units += 1;
                wal.append_batch(&[LogRecord::Checkpoint]).map(drop)
            })
            .unwrap()
            .high;
        assert_eq!((units, high), (2, 4));
        assert_eq!(wal.read_from(high + 1).unwrap().len(), 2);
    }

    #[test]
    fn empty_batch_is_an_error() {
        let dir = tmp("empty");
        let wal = open(&dir, false);
        assert!(wal.append_batch(&[]).is_err());
        assert_eq!(wal.next_lsn(), 1, "failed append assigns no LSN");
    }

    #[test]
    fn stats_track_durability_and_groups() {
        let dir = tmp("stats");
        let wal = open(&dir, false);
        assert_eq!(wal.durable_lsn(), 0);
        let (_, last) = wal.append_batch(&txn_batch(1, 2)).unwrap();
        assert_eq!(wal.durable_lsn(), last);
        let stats = wal.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.entries, 4);
        assert!(stats.groups >= 1);
        assert!((stats.mean_group_batches() - 1.0).abs() < f64::EPSILON);
        assert_eq!(stats.fsyncs, 0, "Flush mode never calls sync_data");
    }

    #[test]
    fn concurrent_appends_stay_contiguous_and_dense() {
        use std::sync::Arc;
        let dir = tmp("concurrent");
        let wal = Arc::new(open(&dir, false));
        let threads = 8;
        let per_thread = 25;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let txn = (t * per_thread + i) as u64 + 1;
                        let (first, last) = wal.append_batch(&txn_batch(txn, 2)).unwrap();
                        assert_eq!(last - first, 3, "4 records per batch");
                        assert!(wal.durable_lsn() >= last, "commit returned before durable");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let recs = wal.read_from(1).unwrap();
        assert_eq!(recs.len(), threads * per_thread * 4);
        // Dense LSNs (read_from's invariant also checks this when enabled).
        for w in recs.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1);
        }
        // Each transaction's Begin..Commit run is contiguous.
        let mut open_txn: Option<TxnId> = None;
        for (_, rec) in &recs {
            match rec {
                LogRecord::Begin { txn } => {
                    assert!(open_txn.is_none(), "Begin inside another txn's run");
                    open_txn = Some(*txn);
                }
                LogRecord::Commit { txn } => {
                    assert_eq!(open_txn, Some(*txn), "Commit does not match open Begin");
                    open_txn = None;
                }
                other => {
                    assert_eq!(open_txn, other.txn(), "record outside its txn's run");
                }
            }
        }
        assert!(open_txn.is_none());
        let stats = wal.stats();
        assert_eq!(stats.batches, (threads * per_thread) as u64);
        assert!(
            stats.groups <= stats.batches,
            "groups can never exceed batches"
        );
    }
}
