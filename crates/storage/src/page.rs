//! 8 KiB slotted pages.
//!
//! Classic slotted layout: a fixed header, a slot directory growing down from
//! the header, and record payloads growing up from the end of the page.
//! Deleting a record leaves a tombstone slot (so `RecordId`s of other records
//! stay stable); the space is reclaimed by compaction when an insert would
//! otherwise fail despite sufficient total free space.
//!
//! ```text
//! +-----------+-----------------+...free...+-----------+-----------+
//! | header    | slot directory  |          | record 1  | record 0  |
//! +-----------+-----------------+...free...+-----------+-----------+
//! ```

use crate::error::{StorageError, StorageResult};
use crate::file::PAGE_SIZE;

/// Byte offset where the slot directory begins.
const HEADER_SIZE: usize = 16;
/// Bytes per slot directory entry: u16 offset + u16 length.
const SLOT_SIZE: usize = 4;
/// Sentinel offset marking a dead (deleted) slot.
const DEAD: u16 = u16::MAX;

/// Largest record payload a fresh page can hold.
pub const MAX_RECORD_SIZE: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// An owned 8 KiB slotted page.
///
/// Header layout (little-endian):
/// * bytes 0..8  — page LSN (last WAL record that touched this page),
/// * bytes 8..10 — slot count,
/// * bytes 10..12 — free-space pointer (offset of the lowest record byte),
/// * bytes 12..16 — reserved.
#[derive(Clone)]
pub struct SlottedPage {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

impl SlottedPage {
    /// A freshly formatted, empty page.
    pub fn new() -> SlottedPage {
        let mut p = SlottedPage {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_slot_count(0);
        p.set_free_ptr(PAGE_SIZE as u16);
        p
    }

    /// Wrap raw page bytes read from disk.
    pub fn from_bytes(bytes: &[u8]) -> StorageResult<SlottedPage> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page must be {PAGE_SIZE} bytes, got {}",
                bytes.len()
            )));
        }
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        Self::from_boxed(data)
    }

    /// Overwrite this page with `other`'s bytes, keeping this page's buffer.
    pub(crate) fn copy_from(&mut self, other: &SlottedPage) {
        self.data.copy_from_slice(&other.data[..]);
    }

    /// Take ownership of page bytes read from disk, with
    /// [`from_bytes`](SlottedPage::from_bytes)'s header check and no copy.
    pub(crate) fn from_boxed(data: Box<[u8; PAGE_SIZE]>) -> StorageResult<SlottedPage> {
        let p = SlottedPage { data };
        // Sanity-check the header so corrupt pages fail fast.
        let n = p.slot_count() as usize;
        if HEADER_SIZE + n * SLOT_SIZE > PAGE_SIZE || (p.free_ptr() as usize) > PAGE_SIZE {
            return Err(StorageError::Corrupt("page header out of range".into()));
        }
        Ok(p)
    }

    /// The raw page bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// The page's bytes, owned: a page packed off the pool goes to
    /// [`crate::DiskFile::write_page`] with no copy.
    pub fn into_bytes(self) -> Box<[u8; PAGE_SIZE]> {
        self.data
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.data[at], self.data[at + 1]])
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.data[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// The LSN of the last WAL record applied to this page.
    pub fn lsn(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[0..8]);
        u64::from_le_bytes(b)
    }

    /// Stamp the page LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.data[0..8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Number of slots (live + dead).
    pub fn slot_count(&self) -> u16 {
        self.read_u16(8)
    }

    fn set_slot_count(&mut self, n: u16) {
        self.write_u16(8, n);
    }

    fn free_ptr(&self) -> u16 {
        self.read_u16(10)
    }

    fn set_free_ptr(&mut self, p: u16) {
        self.write_u16(10, p);
    }

    fn slot(&self, idx: u16) -> (u16, u16) {
        let at = HEADER_SIZE + idx as usize * SLOT_SIZE;
        (self.read_u16(at), self.read_u16(at + 2))
    }

    fn set_slot(&mut self, idx: u16, offset: u16, len: u16) {
        let at = HEADER_SIZE + idx as usize * SLOT_SIZE;
        self.write_u16(at, offset);
        self.write_u16(at + 2, len);
    }

    /// Contiguous free bytes between the slot directory and the record area.
    pub fn contiguous_free(&self) -> usize {
        let dir_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        (self.free_ptr() as usize).saturating_sub(dir_end)
    }

    /// Total reclaimable free bytes: what [`SlottedPage::compact`] would
    /// leave contiguous. Counted from the live records, never from the
    /// lengths kept in dead slots — those go stale once a compaction has
    /// already handed their bytes back.
    pub fn total_free(&self) -> usize {
        let dir_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        let live: usize = (0..self.slot_count())
            .map(|i| self.slot(i))
            .filter(|(off, _)| *off != DEAD)
            .map(|(_, len)| len as usize)
            .sum();
        PAGE_SIZE.saturating_sub(dir_end + live)
    }

    /// Whether a record of `len` bytes fits (possibly after compaction),
    /// reusing a dead slot when one exists.
    pub fn fits(&self, len: usize) -> bool {
        let slot_cost = if self.first_dead_slot().is_some() {
            0
        } else {
            SLOT_SIZE
        };
        self.total_free() >= len + slot_cost
    }

    fn first_dead_slot(&self) -> Option<u16> {
        (0..self.slot_count()).find(|&i| self.slot(i).0 == DEAD)
    }

    /// Insert a record, returning its slot number.
    pub fn insert(&mut self, record: &[u8]) -> StorageResult<u16> {
        if record.len() > MAX_RECORD_SIZE {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: MAX_RECORD_SIZE,
            });
        }
        if !self.fits(record.len()) {
            return Err(StorageError::PageFull);
        }
        let reuse = self.first_dead_slot();
        let slot_cost = if reuse.is_some() { 0 } else { SLOT_SIZE };
        if self.contiguous_free() < record.len() + slot_cost {
            self.compact();
        }
        // Writing without room would run the record into the slot
        // directory; this must hold in release builds too.
        if self.contiguous_free() < record.len() + slot_cost {
            return Err(StorageError::PageFull);
        }
        let new_free = self.free_ptr() as usize - record.len();
        self.data[new_free..new_free + record.len()].copy_from_slice(record);
        self.set_free_ptr(new_free as u16);
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                s
            }
        };
        self.set_slot(slot, new_free as u16, record.len() as u16);
        Ok(slot)
    }

    /// Read the record in `slot`, if live.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if off == DEAD {
            return None;
        }
        Some(&self.data[off as usize..off as usize + len as usize])
    }

    /// Tombstone the record in `slot`. The slot number remains allocated so
    /// other records' ids stay stable.
    pub fn delete(&mut self, slot: u16) -> StorageResult<()> {
        if slot >= self.slot_count() || self.slot(slot).0 == DEAD {
            return Err(StorageError::NotFound(format!("slot {slot}")));
        }
        let (_, len) = self.slot(slot);
        self.set_slot(slot, DEAD, len);
        Ok(())
    }

    /// Replace the record in `slot`. Fails with [`StorageError::PageFull`] if
    /// the new payload cannot fit even after compaction (the caller then
    /// relocates the record to another page).
    pub fn update(&mut self, slot: u16, record: &[u8]) -> StorageResult<()> {
        if slot >= self.slot_count() || self.slot(slot).0 == DEAD {
            return Err(StorageError::NotFound(format!("slot {slot}")));
        }
        let (off, len) = self.slot(slot);
        if record.len() <= len as usize {
            // Shrinking or same size: overwrite in place, keep slot offset.
            let off = off as usize;
            self.data[off..off + record.len()].copy_from_slice(record);
            self.set_slot(slot, off as u16, record.len() as u16);
            return Ok(());
        }
        // Growing: the old payload's bytes are reclaimable too. Decide
        // before touching the slot, so `PageFull` leaves the record intact.
        if self.total_free() + (len as usize) < record.len() {
            return Err(StorageError::PageFull);
        }
        self.set_slot(slot, DEAD, 0);
        if self.contiguous_free() < record.len() {
            self.compact();
        }
        if self.contiguous_free() < record.len() {
            return Err(StorageError::Corrupt(format!(
                "slot directory of a page disagrees with its free pointer (slot {slot})"
            )));
        }
        let new_free = self.free_ptr() as usize - record.len();
        self.data[new_free..new_free + record.len()].copy_from_slice(record);
        self.set_free_ptr(new_free as u16);
        self.set_slot(slot, new_free as u16, record.len() as u16);
        Ok(())
    }

    /// Iterate the live records as `(slot, payload)`.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Number of live records.
    pub fn live_count(&self) -> usize {
        self.iter().count()
    }

    /// Squeeze out dead-record space. Slot numbers are preserved; dead
    /// slots keep their number but no longer claim any bytes.
    pub fn compact(&mut self) {
        let mut live: Vec<(u16, Vec<u8>)> = self.iter().map(|(s, r)| (s, r.to_vec())).collect();
        for slot in 0..self.slot_count() {
            if self.slot(slot).0 == DEAD {
                self.set_slot(slot, DEAD, 0);
            }
        }
        // Pack from the end of the page.
        let mut free = PAGE_SIZE;
        // Stable layout: place larger offsets first is unnecessary; any order works.
        for (slot, rec) in live.drain(..) {
            free -= rec.len();
            self.data[free..free + rec.len()].copy_from_slice(&rec);
            self.set_slot(slot, free as u16, rec.len() as u16);
        }
        self.set_free_ptr(free as u16);
    }
}

impl std::fmt::Debug for SlottedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlottedPage")
            .field("lsn", &self.lsn())
            .field("slots", &self.slot_count())
            .field("live", &self.live_count())
            .field("free", &self.contiguous_free())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_round_trip() {
        let mut p = SlottedPage::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0), Some(&b"hello"[..]));
        assert_eq!(p.get(s1), Some(&b"world!"[..]));
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn delete_leaves_stable_slots() {
        let mut p = SlottedPage::new();
        let s0 = p.insert(b"aaa").unwrap();
        let s1 = p.insert(b"bbb").unwrap();
        p.delete(s0).unwrap();
        assert_eq!(p.get(s0), None);
        assert_eq!(p.get(s1), Some(&b"bbb"[..]));
        assert!(p.delete(s0).is_err(), "double delete must fail");
    }

    #[test]
    fn dead_slot_is_reused() {
        let mut p = SlottedPage::new();
        let s0 = p.insert(b"aaa").unwrap();
        p.insert(b"bbb").unwrap();
        p.delete(s0).unwrap();
        let s2 = p.insert(b"ccc").unwrap();
        assert_eq!(s2, s0);
        assert_eq!(p.get(s2), Some(&b"ccc"[..]));
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut p = SlottedPage::new();
        let rec = [7u8; 100];
        let mut inserted = 0;
        loop {
            match p.insert(&rec) {
                Ok(_) => inserted += 1,
                Err(StorageError::PageFull) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        // 100-byte records + 4-byte slots in (8192-16) usable bytes.
        assert_eq!(inserted, (PAGE_SIZE - HEADER_SIZE) / (100 + SLOT_SIZE));
        assert!(!p.fits(100));
    }

    #[test]
    fn rejects_oversized_record() {
        let mut p = SlottedPage::new();
        let huge = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            p.insert(&huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut p = SlottedPage::new();
        let rec = [1u8; 512];
        let mut slots = vec![];
        while let Ok(s) = p.insert(&rec) {
            slots.push(s);
        }
        // Free every other record, then insert one of double size: only
        // possible via compaction.
        for s in slots.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        let big = [2u8; 1024];
        let s = p.insert(&big).unwrap();
        assert_eq!(p.get(s), Some(&big[..]));
    }

    #[test]
    fn emptied_page_refilled_with_longer_records_stays_intact() {
        // Regression: `compact` used to leave the old length in dead slots,
        // so `total_free` counted reclaimed bytes twice and a refill with
        // longer records wrote a payload over the slot directory.
        let mut p = SlottedPage::new();
        let mut slots = Vec::new();
        while let Ok(s) = p.insert(&[1u8; 40]) {
            slots.push(s);
        }
        for s in &slots {
            p.delete(*s).unwrap();
        }
        assert_eq!(p.live_count(), 0);
        // Longer records reuse the dead slots; the first one compacts.
        let mut refilled = Vec::new();
        loop {
            let rec = vec![(refilled.len() % 251) as u8; 41 + refilled.len() % 7];
            match p.insert(&rec) {
                Ok(s) => refilled.push((s, rec)),
                Err(StorageError::PageFull) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(!refilled.is_empty());
        assert!(refilled.len() < slots.len(), "longer records, fewer fit");
        for (s, rec) in &refilled {
            assert_eq!(p.get(*s), Some(&rec[..]), "slot {s}");
        }
        let bytes: usize = refilled.iter().map(|(_, r)| r.len()).sum();
        assert!(HEADER_SIZE + p.slot_count() as usize * SLOT_SIZE + bytes <= PAGE_SIZE);
        // And the page still round-trips through its on-disk form.
        let q = SlottedPage::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(q.live_count(), refilled.len());
    }

    #[test]
    fn growing_update_on_a_full_page_reports_full_and_keeps_the_record() {
        let mut p = SlottedPage::new();
        let s = p.insert(&[1u8; 64]).unwrap();
        let mut others = Vec::new();
        while let Ok(o) = p.insert(&[0u8; 64]) {
            others.push(o);
        }
        // Churn so that a compaction has happened with dead slots around.
        for o in others.iter().step_by(2) {
            p.delete(*o).unwrap();
        }
        while p.insert(&[2u8; 100]).is_ok() {}
        assert!(matches!(
            p.update(s, &[9u8; 4000]),
            Err(StorageError::PageFull)
        ));
        assert_eq!(p.get(s), Some(&[1u8; 64][..]));
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = SlottedPage::new();
        let s = p.insert(&[1u8; 64]).unwrap();
        let other = p.insert(&[9u8; 64]).unwrap();
        p.update(s, &[2u8; 32]).unwrap();
        assert_eq!(p.get(s), Some(&[2u8; 32][..]));
        p.update(s, &[3u8; 128]).unwrap();
        assert_eq!(p.get(s), Some(&[3u8; 128][..]));
        assert_eq!(p.get(other), Some(&[9u8; 64][..]));
    }

    #[test]
    fn update_too_big_restores_original() {
        let mut p = SlottedPage::new();
        let s = p.insert(&[1u8; 64]).unwrap();
        // Fill the page so a large growth cannot fit.
        while p.insert(&[0u8; 256]).is_ok() {}
        let huge = vec![5u8; 4000];
        assert!(matches!(p.update(s, &huge), Err(StorageError::PageFull)));
        assert_eq!(p.get(s), Some(&[1u8; 64][..]), "original must survive");
    }

    #[test]
    fn bytes_round_trip() {
        let mut p = SlottedPage::new();
        p.insert(b"persist me").unwrap();
        p.set_lsn(777);
        let q = SlottedPage::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(q.lsn(), 777);
        assert_eq!(q.get(0), Some(&b"persist me"[..]));
    }

    #[test]
    fn from_bytes_rejects_bad_sizes_and_headers() {
        assert!(SlottedPage::from_bytes(&[0u8; 16]).is_err());
        let mut raw = vec![0u8; PAGE_SIZE];
        raw[8] = 0xFF;
        raw[9] = 0xFF; // absurd slot count
        assert!(SlottedPage::from_bytes(&raw).is_err());
    }

    #[test]
    fn empty_page_iter_is_empty() {
        let p = SlottedPage::new();
        assert_eq!(p.iter().count(), 0);
        assert_eq!(p.contiguous_free(), PAGE_SIZE - HEADER_SIZE);
    }
}
