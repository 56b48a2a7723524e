//! Heap files: unordered record storage over the buffer pool.
//!
//! A heap file is a sequence of slotted pages belonging to one table. Records
//! are addressed by [`RecordId`] (page number + slot). Inserts append to the
//! most recently non-full page; space freed by deletes is reused within each
//! page via dead-slot reuse and compaction (a full free-space map is out of
//! scope — the paper's workloads are insert/scan heavy).

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::file::{FileId, PageId};
use crate::page::SlottedPage;

/// Address of a record within one heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    pub page_no: u32,
    pub slot: u16,
}

impl RecordId {
    pub const fn new(page_no: u32, slot: u16) -> RecordId {
        RecordId { page_no, slot }
    }
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.page_no, self.slot)
    }
}

/// Unordered record storage for one table or delta log.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    file_id: FileId,
    /// Page most likely to have room for the next insert.
    insert_hint: AtomicU32,
}

impl HeapFile {
    /// Attach to (already registered) `file_id` in `pool`.
    pub fn new(pool: Arc<BufferPool>, file_id: FileId) -> HeapFile {
        HeapFile {
            pool,
            file_id,
            insert_hint: AtomicU32::new(u32::MAX),
        }
    }

    /// The file id this heap stores into.
    pub fn file_id(&self) -> FileId {
        self.file_id
    }

    /// Number of pages currently allocated.
    pub fn page_count(&self) -> StorageResult<u32> {
        Ok(self.pool.file(self.file_id)?.page_count())
    }

    fn pid(&self, page_no: u32) -> PageId {
        PageId::new(self.file_id, page_no)
    }

    /// Insert a record, returning its id.
    pub fn insert(&self, record: &[u8]) -> StorageResult<RecordId> {
        let pages = self.page_count()?;
        // Try the hinted page first, then the last page, then allocate.
        let hint = self.insert_hint.load(Ordering::Relaxed);
        let mut candidates = Vec::with_capacity(2);
        if hint != u32::MAX && hint < pages {
            candidates.push(hint);
        }
        if pages > 0 && Some(pages - 1) != candidates.first().copied() {
            candidates.push(pages - 1);
        }
        for page_no in candidates {
            let result = self
                .pool
                .with_page_mut(self.pid(page_no), |p| p.insert(record))?;
            match result {
                Ok(slot) => {
                    self.insert_hint.store(page_no, Ordering::Relaxed);
                    return Ok(RecordId::new(page_no, slot));
                }
                Err(StorageError::PageFull) => continue,
                Err(e) => return Err(e),
            }
        }
        let pid = self.pool.allocate_page(self.file_id)?;
        let slot = self.pool.with_page_mut(pid, |p| p.insert(record))??;
        self.insert_hint.store(pid.page_no, Ordering::Relaxed);
        Ok(RecordId::new(pid.page_no, slot))
    }

    /// Fetch the record at `rid`, or `None` if it was deleted.
    pub fn get(&self, rid: RecordId) -> StorageResult<Option<Vec<u8>>> {
        self.read(rid, |record| record.map(<[u8]>::to_vec))
    }

    /// Hand the record at `rid` (`None` if it was deleted) to `f` in place,
    /// under the page latch, and return what `f` makes of it: a reader that
    /// decodes the record copies nothing out of the page first. `f` may not
    /// touch the heap or its buffer pool.
    pub fn read<R>(&self, rid: RecordId, f: impl FnOnce(Option<&[u8]>) -> R) -> StorageResult<R> {
        if rid.page_no >= self.page_count()? {
            return Ok(f(None));
        }
        self.pool
            .with_page(self.pid(rid.page_no), |p| f(p.get(rid.slot)))
    }

    /// Visit the records at `rids`, in the order given, as `(rid, bytes)`;
    /// `bytes` is `None` where no record lives (a dead slot or a page past
    /// the end). Each run of consecutive rids on one page latches that page
    /// once, so rids grouped by page cost one latch per page, not per
    /// record. `f` runs under the latch: it may not touch the heap or its
    /// buffer pool.
    pub fn for_each_at<E: From<StorageError>>(
        &self,
        rids: &[RecordId],
        mut f: impl FnMut(RecordId, Option<&[u8]>) -> Result<(), E>,
    ) -> Result<(), E> {
        let pages = self.page_count()?;
        let mut rest = rids;
        while let Some(first) = rest.first() {
            let page_no = first.page_no;
            let len = rest.iter().take_while(|r| r.page_no == page_no).count();
            let (run, tail) = rest.split_at(len);
            if page_no < pages {
                self.pool.with_page(self.pid(page_no), |p| {
                    run.iter().try_for_each(|&rid| f(rid, p.get(rid.slot)))
                })??;
            } else {
                run.iter().try_for_each(|&rid| f(rid, None))?;
            }
            rest = tail;
        }
        Ok(())
    }

    /// Delete the record at `rid`.
    pub fn delete(&self, rid: RecordId) -> StorageResult<()> {
        self.pool
            .with_page_mut(self.pid(rid.page_no), |p| p.delete(rid.slot))?
    }

    /// Replace the record at `rid`. If it no longer fits its page, the record
    /// moves; the (possibly new) id is returned.
    pub fn update(&self, rid: RecordId, record: &[u8]) -> StorageResult<RecordId> {
        let in_place = self
            .pool
            .with_page_mut(self.pid(rid.page_no), |p| p.update(rid.slot, record))?;
        match in_place {
            Ok(()) => Ok(rid),
            Err(StorageError::PageFull) => {
                self.delete(rid)?;
                self.insert(record)
            }
            Err(e) => Err(e),
        }
    }

    /// Visit every live record as `(rid, bytes)`, page at a time, in storage
    /// order, until the callback returns `Break` or an error.
    ///
    /// Each page is copied out whole into one page buffer the scan keeps
    /// (one allocation per scan, not per page or record) and the callback
    /// runs on the copy with no page latched, so it may re-enter the heap:
    /// every record live when the scan starts is visited once, and the
    /// callback may delete or update the rid it was handed. A record the
    /// callback inserts, or an update moves to another page, may or may not
    /// be visited later in the same scan.
    pub fn for_each<E: From<StorageError>>(
        &self,
        mut f: impl FnMut(RecordId, &[u8]) -> Result<ControlFlow<()>, E>,
    ) -> Result<(), E> {
        let pages = self.page_count()?;
        let mut page = SlottedPage::default();
        for page_no in 0..pages {
            self.pool
                .with_page(self.pid(page_no), |p| page.copy_from(p))?;
            for (slot, bytes) in page.iter() {
                if f(RecordId::new(page_no, slot), bytes)?.is_break() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Number of live records (full scan).
    pub fn live_count(&self) -> StorageResult<usize> {
        let mut n = 0;
        self.for_each(|_, _| {
            n += 1;
            Ok::<_, StorageError>(ControlFlow::Continue(()))
        })?;
        Ok(n)
    }

    /// Drop every record and page (used by the Loader's REPLACE mode).
    pub fn truncate(&self) -> StorageResult<()> {
        self.pool.flush(Some(self.file_id))?;
        // Discard cached pages, then truncate the file.
        let file = self.pool.file(self.file_id)?;
        self.pool.deregister_file(self.file_id);
        file.truncate()?;
        self.pool.register_file(self.file_id, file);
        self.insert_hint.store(u32::MAX, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::DiskFile;

    fn setup() -> HeapFile {
        let dir = std::env::temp_dir().join(format!(
            "delta-heap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.db");
        let _ = std::fs::remove_file(&path);
        let pool = Arc::new(BufferPool::new(8));
        let fid = FileId(1);
        pool.register_file(fid, Arc::new(DiskFile::open(&path).unwrap()));
        HeapFile::new(pool, fid)
    }

    #[test]
    fn insert_get_delete() {
        let h = setup();
        let rid = h.insert(b"alpha").unwrap();
        assert_eq!(h.get(rid).unwrap().as_deref(), Some(&b"alpha"[..]));
        h.delete(rid).unwrap();
        assert_eq!(h.get(rid).unwrap(), None);
    }

    #[test]
    fn get_on_missing_page_is_none() {
        let h = setup();
        assert_eq!(h.get(RecordId::new(42, 0)).unwrap(), None);
    }

    #[test]
    fn inserts_spill_to_new_pages() {
        let h = setup();
        let rec = [0u8; 1000];
        let mut rids = vec![];
        for _ in 0..40 {
            rids.push(h.insert(&rec).unwrap());
        }
        assert!(h.page_count().unwrap() > 1);
        assert_eq!(h.live_count().unwrap(), 40);
        for rid in rids {
            assert!(h.get(rid).unwrap().is_some());
        }
    }

    #[test]
    fn scan_visits_in_storage_order() {
        let h = setup();
        for i in 0..100u32 {
            h.insert(&i.to_le_bytes()).unwrap();
        }
        let mut decoded = Vec::new();
        h.for_each(|_, b| {
            decoded.push(u32::from_le_bytes(b[..4].try_into().unwrap()));
            Ok::<_, StorageError>(ControlFlow::Continue(()))
        })
        .unwrap();
        assert_eq!(
            decoded,
            (0..100).collect::<Vec<_>>(),
            "append-only inserts scan in order"
        );
    }

    #[test]
    fn for_each_at_visits_rids_in_the_order_given() {
        let h = setup();
        let rec = [5u8; 1000];
        let rids: Vec<RecordId> = (0..20).map(|_| h.insert(&rec).unwrap()).collect();
        h.delete(rids[3]).unwrap();
        // A run of three on the first page (one a dead slot), one rid on the
        // last page, one past the end, then the first page again.
        let last = *rids.last().unwrap();
        let wanted = vec![
            rids[1],
            rids[3],
            rids[0],
            last,
            RecordId::new(99, 0),
            rids[2],
        ];
        let mut seen = Vec::new();
        h.for_each_at(&wanted, |rid, bytes| {
            seen.push((rid, bytes.map(<[u8]>::to_vec)));
            Ok::<_, StorageError>(())
        })
        .unwrap();
        let got: Vec<RecordId> = seen.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(got, wanted);
        let live: Vec<bool> = seen.iter().map(|(_, b)| b.is_some()).collect();
        assert_eq!(live, [true, false, true, true, false, true]);
        assert!(seen.iter().flat_map(|(_, b)| b).all(|b| b == &rec));
    }

    #[test]
    fn scan_stops_at_break() {
        let h = setup();
        for i in 0..10u32 {
            h.insert(&i.to_le_bytes()).unwrap();
        }
        let mut seen = 0;
        h.for_each(|_, _| {
            seen += 1;
            Ok::<_, StorageError>(if seen == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        })
        .unwrap();
        assert_eq!(seen, 3);
    }

    #[test]
    fn callback_may_delete_the_rid_it_was_handed() {
        let h = setup();
        let rec = [7u8; 300];
        for _ in 0..100 {
            h.insert(&rec).unwrap();
        }
        assert!(h.page_count().unwrap() > 1);
        let mut visited = 0;
        h.for_each(|rid, _| {
            visited += 1;
            h.delete(rid)?;
            Ok::<_, StorageError>(ControlFlow::Continue(()))
        })
        .unwrap();
        assert_eq!(visited, 100, "every row live at the start is visited once");
        assert_eq!(h.live_count().unwrap(), 0);
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let h = setup();
        let rid = h.insert(&[1u8; 100]).unwrap();
        let new_rid = h.update(rid, &[2u8; 50]).unwrap();
        assert_eq!(rid, new_rid);
        assert_eq!(h.get(rid).unwrap().unwrap(), vec![2u8; 50]);
    }

    #[test]
    fn update_relocates_when_grown_past_page() {
        let h = setup();
        // Fill a page almost completely.
        let rid = h.insert(&[1u8; 100]).unwrap();
        while h.page_count().unwrap() == 1 {
            h.insert(&[0u8; 500]).unwrap();
        }
        // Now grow the first record beyond what page 0 can hold.
        let new_rid = h.update(rid, &[3u8; 4000]).unwrap();
        assert_ne!(rid, new_rid);
        assert_eq!(h.get(new_rid).unwrap().unwrap(), vec![3u8; 4000]);
        assert_eq!(h.get(rid).unwrap(), None);
    }

    #[test]
    fn truncate_empties_heap() {
        let h = setup();
        for _ in 0..10 {
            h.insert(b"x").unwrap();
        }
        h.truncate().unwrap();
        assert_eq!(h.page_count().unwrap(), 0);
        assert_eq!(h.live_count().unwrap(), 0);
        // And it keeps working afterwards.
        let rid = h.insert(b"fresh").unwrap();
        assert_eq!(h.get(rid).unwrap().as_deref(), Some(&b"fresh"[..]));
    }

    #[test]
    fn deleted_space_is_reused_within_page() {
        let h = setup();
        let rid = h.insert(&[0u8; 64]).unwrap();
        h.delete(rid).unwrap();
        let rid2 = h.insert(&[1u8; 64]).unwrap();
        assert_eq!(rid2.page_no, rid.page_no);
        assert_eq!(rid2.slot, rid.slot, "dead slot should be recycled");
    }
}
