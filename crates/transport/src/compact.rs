//! Prefix compaction for the persistent queue's spool.
//!
//! A [`crate::PersistentQueue`] only ever appends, so without intervention
//! the spool grows forever even though everything before the durable `.ack`
//! watermark is dead weight. [`PersistentQueue::compact`] rewrites the spool
//! without the fully-acked prefix, staged to a sibling temp file and
//! committed with a single atomic rename:
//!
//! * **Crash before the rename** — the original spool is untouched; the
//!   staged temp is deleted at the next open.
//! * **Crash after the rename** — the new spool is complete (it was synced
//!   before the rename) and carries a header recording how many frames were
//!   dropped, so absolute message indices — and with them the `.ack` file,
//!   consumer dedupe state, and sibling `.audit`/`.dlq` queues — are
//!   unaffected.
//!
//! The header's first four bytes are `0xFFFFFFFF`: read as a frame length by
//! a scanner that does not understand headers, it exceeds any real spool, so
//! the file parses as zero frames rather than as garbage.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use delta_storage::StorageResult;

use crate::queue::PersistentQueue;

/// Bytes of the compacted-spool header: 8 magic + u64 LE base.
pub const HEADER_LEN: usize = 16;

/// Magic prefix of a compacted spool. Starts with an impossible frame
/// length so legacy scanners fail safe (see module docs).
const MAGIC: [u8; 8] = [0xFF, 0xFF, 0xFF, 0xFF, b'D', b'Q', b'C', b'1'];

/// Encode a compacted-spool header with `base` frames dropped.
pub fn encode_header(base: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..].copy_from_slice(&base.to_le_bytes());
    h
}

/// Decode a compacted-spool header, if `bytes` starts with one.
pub fn decode_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return None;
    }
    bytes[8..HEADER_LEN].try_into().ok().map(u64::from_le_bytes)
}

/// The staged rewrite a compaction commits via rename. Deleted at open if a
/// crash left it behind.
pub fn compact_tmp_path(spool: &Path) -> PathBuf {
    let mut name = spool
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".compact.tmp");
    spool.with_file_name(name)
}

/// What a compaction pass accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Fully-acked frames physically dropped from the spool.
    pub frames_dropped: u64,
    /// Spool bytes reclaimed (zero when the header overhead exceeded the
    /// dropped frames).
    pub bytes_reclaimed: u64,
    /// Absolute index of the first resident frame after the pass.
    pub base: u64,
}

impl PersistentQueue {
    /// Rewrite the spool dropping every fully-acked frame, committing with
    /// one atomic rename (see the module docs for the crash story). Message
    /// indices are absolute and unaffected; unacked frames, sibling queues
    /// and the `.ack` file are untouched. Under an armed disk budget the
    /// staged rewrite must be admitted (it coexists with the old spool
    /// until the rename) and the old spool's bytes are credited back after
    /// the commit. Returns what was reclaimed.
    pub fn compact(&self) -> StorageResult<CompactStats> {
        // lint: allow(lock_hygiene) -- the rewrite must exclude concurrent
        // appends: the staged file's byte range and the offset table are
        // rebuilt together under the queue mutex.
        let mut inner = self.inner.lock();
        self.repair_dirty_tail(&mut inner)?;
        inner.writer.flush()?;
        let drop_n = (inner.acked - inner.base) as usize;
        if drop_n == 0 {
            return Ok(CompactStats {
                frames_dropped: 0,
                bytes_reclaimed: 0,
                base: inner.base,
            });
        }
        let old_len = inner.spool_len;
        // First byte of the first surviving frame.
        let cut = inner.offsets.get(drop_n).copied().unwrap_or(old_len);
        let mut staged = Vec::with_capacity(HEADER_LEN + (old_len - cut) as usize);
        staged.extend_from_slice(&encode_header(inner.acked));
        {
            let mut f = File::open(&self.spool_path)?;
            f.seek(SeekFrom::Start(cut))?;
            f.take(old_len - cut).read_to_end(&mut staged)?;
        }
        let tmp = compact_tmp_path(&self.spool_path);
        // The staged rewrite is deliberately *exempt* from budget
        // admission: compaction is the maintenance pass that lifts
        // pressure, and gating it on free space would deadlock an exhausted
        // spool (the classic "no room to make room"). The accounting is
        // settled after the commit instead, so the budget still reflects
        // every byte on disk.
        let write_tmp = || -> std::io::Result<()> {
            let mut t = File::create(&tmp)?;
            t.write_all(&staged)?;
            t.sync_all()
        };
        if let Err(e) = write_tmp() {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        // The commit point: before this the original spool is authoritative
        // (a leftover tmp is deleted at open); after it the rewrite is.
        fs::rename(&tmp, &self.spool_path)?;
        if let Some(b) = &self.budget {
            let new_len = staged.len() as u64;
            if old_len >= new_len {
                b.credit(&self.spool_path, old_len - new_len);
            } else {
                // Degenerate case: the header outweighed the dropped frames.
                b.charge(&self.spool_path, new_len - old_len);
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.spool_path)?;
        let new_base = inner.acked;
        let frames_dropped = drop_n as u64;
        let new_len = staged.len() as u64;
        inner.writer = BufWriter::new(file);
        inner.offsets.drain(..drop_n);
        for off in inner.offsets.iter_mut() {
            *off = *off - cut + HEADER_LEN as u64;
        }
        inner.spool_len = new_len;
        inner.base = new_base;
        // Frames below the new base are physically gone; a cursor rewound
        // below the watermark (lost-ack simulation) can no longer reach them.
        inner.cursor = inner.cursor.max(new_base);
        Ok(CompactStats {
            frames_dropped,
            bytes_reclaimed: old_len.saturating_sub(new_len),
            base: new_base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_storage::pressure::DiskBudget;
    use delta_storage::StorageError;
    use std::sync::Arc;

    fn qpath(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "delta-compact-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = fs::remove_file(&p);
        let _ = fs::remove_file(PersistentQueue::ack_file(&p));
        let _ = fs::remove_file(compact_tmp_path(&p));
        p
    }

    #[test]
    fn header_round_trips_and_rejects_non_headers() {
        let h = encode_header(42);
        assert_eq!(decode_header(&h), Some(42));
        assert_eq!(decode_header(b""), None);
        assert_eq!(decode_header(&[0u8; 32]), None);
        // A plain frame (small length prefix) is not a header.
        let mut frame = vec![3, 0, 0, 0];
        frame.extend_from_slice(b"abc");
        frame.extend_from_slice(&[0u8; 8]);
        assert_eq!(decode_header(&frame), None);
    }

    #[test]
    fn compact_drops_acked_prefix_and_preserves_indices() {
        let path = qpath("basic.q");
        let q = PersistentQueue::open(&path).unwrap();
        for i in 0..10u8 {
            q.enqueue(&[i; 100]).unwrap();
        }
        let run = q.take(6);
        q.ack(run.last().unwrap().0).unwrap();
        let before = q.spool_bytes();
        let stats = q.compact().unwrap();
        assert_eq!(stats.frames_dropped, 6);
        assert_eq!(stats.base, 6);
        assert!(stats.bytes_reclaimed > 0);
        assert!(q.spool_bytes() < before);
        assert_eq!(q.total(), 10, "indices stay absolute");
        // The unacked suffix still delivers under its original indices.
        let rest = q.take(100);
        assert_eq!(rest.len(), 4);
        for (want, (idx, payload)) in rest.iter().enumerate() {
            assert_eq!(*idx, 6 + want as u64);
            assert_eq!(payload, &vec![6 + want as u8; 100]);
        }
        // Idempotent: nothing newly acked, nothing to drop.
        assert_eq!(q.compact().unwrap().frames_dropped, 0);
    }

    #[test]
    fn compacted_spool_survives_reopen() {
        let path = qpath("reopen.q");
        {
            let q = PersistentQueue::open(&path).unwrap();
            for i in 0..8u8 {
                q.enqueue(&[i]).unwrap();
            }
            let run = q.take(5);
            q.ack(run.last().unwrap().0).unwrap();
            q.compact().unwrap();
            q.enqueue(&[8]).unwrap(); // appends after the header work
        }
        let q = PersistentQueue::open(&path).unwrap();
        assert_eq!(q.compacted_base(), 5);
        assert_eq!(q.total(), 9);
        assert_eq!(q.acked(), 5);
        let run = q.take(100);
        let ids: Vec<u64> = run.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![5, 6, 7, 8]);
        for (idx, payload) in run {
            assert_eq!(payload, vec![idx as u8]);
        }
    }

    #[test]
    fn crash_before_rename_leaves_old_spool_authoritative() {
        let path = qpath("crash.q");
        {
            let q = PersistentQueue::open(&path).unwrap();
            for i in 0..4u8 {
                q.enqueue(&[i]).unwrap();
            }
            q.ack(1).unwrap();
        }
        // Simulate a crash mid-compaction: a staged rewrite exists but the
        // rename never happened.
        fs::write(compact_tmp_path(&path), b"half-written garbage").unwrap();
        let q = PersistentQueue::open(&path).unwrap();
        assert!(!compact_tmp_path(&path).exists(), "stale tmp cleaned up");
        assert_eq!(q.total(), 4, "original spool intact");
        assert_eq!(q.acked(), 2);
        let run = q.take(100);
        assert_eq!(run.len(), 2);
        assert_eq!(run[0], (2, vec![2u8]));
    }

    #[test]
    fn compact_ignores_sibling_audit_and_dlq_files() {
        let main = qpath("pipe.q");
        let audit_path = main.with_extension("audit");
        let dlq_path = main.with_extension("dlq");
        let _ = fs::remove_file(&audit_path);
        let _ = fs::remove_file(&dlq_path);
        let _ = fs::remove_file(PersistentQueue::ack_file(&audit_path));
        let _ = fs::remove_file(PersistentQueue::ack_file(&dlq_path));

        let q = PersistentQueue::open(&main).unwrap();
        let audit = PersistentQueue::open(&audit_path).unwrap();
        let dlq = PersistentQueue::open(&dlq_path).unwrap();
        for i in 0..6u8 {
            q.enqueue(&[i]).unwrap();
        }
        audit.enqueue(b"digest-1").unwrap();
        let (aidx, _) = audit.dequeue().unwrap().unwrap();
        audit.ack(aidx).unwrap();
        dlq.enqueue(b"poison-frame").unwrap();
        let audit_bytes = fs::read(&audit_path).unwrap();
        let dlq_bytes = fs::read(&dlq_path).unwrap();

        let run = q.take(4);
        q.ack(run.last().unwrap().0).unwrap();
        q.compact().unwrap();

        assert_eq!(fs::read(&audit_path).unwrap(), audit_bytes);
        assert_eq!(fs::read(&dlq_path).unwrap(), dlq_bytes);
        let audit2 = PersistentQueue::open(&audit_path).unwrap();
        assert_eq!(audit2.acked(), 1, "sibling ack watermark untouched");
        let dlq2 = PersistentQueue::open(&dlq_path).unwrap();
        let (_, payload) = dlq2.dequeue().unwrap().unwrap();
        assert_eq!(payload, b"poison-frame");
    }

    #[test]
    fn compaction_credits_budget_and_unblocks_enqueue() {
        let path = qpath("budget.q");
        // Room for ~4 frames of 112 bytes each.
        let budget = Arc::new(DiskBudget::bytes(4 * 112 + 60));
        let q = PersistentQueue::open(&path)
            .unwrap()
            .with_spool_budget(budget);
        for i in 0..4u8 {
            q.enqueue(&[i; 100]).unwrap();
        }
        let err = q.enqueue(&[9u8; 100]).unwrap_err();
        assert!(matches!(err, StorageError::DiskFull { .. }));
        // Consumer catches up; compaction reclaims the acked prefix.
        let run = q.take(3);
        q.ack(run.last().unwrap().0).unwrap();
        let stats = q.compact().unwrap();
        assert_eq!(stats.frames_dropped, 3);
        // Pressure lifted: the append that failed now fits.
        q.enqueue(&[9u8; 100]).unwrap();
        let rest = q.take(100);
        let ids: Vec<u64> = rest.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn rewind_below_base_clamps_to_resident_frames() {
        let path = qpath("clamp.q");
        let q = PersistentQueue::open(&path).unwrap();
        for i in 0..5u8 {
            q.enqueue(&[i]).unwrap();
        }
        let run = q.take(3);
        q.ack(run.last().unwrap().0).unwrap();
        q.compact().unwrap();
        // A lost-ack rewind targeting compacted history clamps to the base.
        q.rewind_to(0);
        let run = q.take(100);
        assert_eq!(run[0].0, 3, "delivery restarts at the compaction base");
        assert_eq!(run.len(), 2);
    }
}
