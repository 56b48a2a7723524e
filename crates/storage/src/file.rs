//! Page-granular disk files.
//!
//! Each table heap and each index lives in its own file of 8 KiB pages. A
//! [`DiskFile`] hands out whole pages and counts physical reads/writes so the
//! benchmark harness can report I/O alongside wall time (the paper explains
//! the Import-vs-Loader gap by "extra I/O", which we make observable).
//!
//! A page read or write is one positional system call at the page's offset
//! (`pread`/`pwrite`), so page I/O shares the file handle without a lock;
//! only the operations that change the file's length (allocation and
//! truncation) serialize on a mutex.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{IoOp, StorageError, StorageResult};
use crate::fault::{FaultAction, FaultInjector};
use crate::pressure::DiskBudget;

/// Size of every page in the system.
pub const PAGE_SIZE: usize = 8192;

/// Identifies a paged file (assigned by the engine's catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Identifies a page within the whole database: (file, page number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    pub file: FileId,
    pub page_no: u32,
}

impl PageId {
    pub fn new(file: FileId, page_no: u32) -> PageId {
        PageId { file, page_no }
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file.0, self.page_no)
    }
}

/// A file of fixed-size pages with physical I/O counters.
pub struct DiskFile {
    path: PathBuf,
    file: File,
    /// Held while the file's length changes: allocation reads the page
    /// count, writes the page past it and publishes the new count, and
    /// truncation empties the file and zeroes the count, each as one step.
    resize: Mutex<()>,
    /// Number of pages currently allocated.
    page_count: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    /// Armed fault plan; every physical operation consults it first.
    faults: Option<Arc<FaultInjector>>,
    /// Armed disk budget; page allocations (the only operations that grow
    /// the file) ask it for space first.
    budget: Option<Arc<DiskBudget>>,
}

impl DiskFile {
    /// Open (creating if absent) the paged file at `path`.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<DiskFile> {
        DiskFile::open_with_faults(path, None)
    }

    /// Open with an armed fault injector consulted on every physical
    /// operation (deterministic torture testing; `None` is a clean file).
    pub fn open_with_faults(
        path: impl AsRef<Path>,
        faults: Option<Arc<FaultInjector>>,
    ) -> StorageResult<DiskFile> {
        DiskFile::open_with_io(path, faults, None)
    }

    /// Open with both a fault injector and a disk budget armed. Page
    /// allocations — the only operation that grows the file — ask the
    /// budget for space first; exhaustion surfaces as a typed
    /// [`StorageError::DiskFull`] with the file unchanged (a partially
    /// allocated page would fail the page-multiple check on reopen, so
    /// allocation is all-or-nothing).
    pub fn open_with_io(
        path: impl AsRef<Path>,
        faults: Option<Arc<FaultInjector>>,
        budget: Option<Arc<DiskBudget>>,
    ) -> StorageResult<DiskFile> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file {} length {len} is not a multiple of the page size",
                path.display()
            )));
        }
        Ok(DiskFile {
            path,
            file,
            resize: Mutex::new(()),
            page_count: AtomicU64::new(len / PAGE_SIZE as u64),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            faults,
            budget,
        })
    }

    /// A real I/O failure, enriched with operation, path and page context.
    fn page_io(&self, op: IoOp, page: Option<u32>, source: io::Error) -> StorageError {
        StorageError::PageIo {
            op,
            path: self.path.display().to_string(),
            page,
            source,
        }
    }

    /// Path this file lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::Acquire) as u32
    }

    /// Physical page reads performed.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Physical page writes performed.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Consult the fault injector for `op`. `Ok(None)` is a clean
    /// pass-through; `Ok(Some(action))` is a fault the caller must act out
    /// (torn write, dropped sync); `Err` is an injected hard failure.
    fn consult(&self, op: IoOp) -> StorageResult<Option<FaultAction>> {
        let Some(inj) = &self.faults else {
            return Ok(None);
        };
        match inj.decide(op) {
            None => Ok(None),
            Some(a @ (FaultAction::Error | FaultAction::Crash)) => {
                Err(inj.error(op, &self.path, a))
            }
            Some(a) => Ok(Some(a)),
        }
    }

    /// Append a fresh zeroed page, returning its page number.
    pub fn allocate_page(&self) -> StorageResult<u32> {
        self.consult(IoOp::Allocate)?;
        if let Some(b) = &self.budget {
            b.admit_full(&self.path, PAGE_SIZE as u64)?;
        }
        // lint: allow(lock_hygiene) -- the mutex orders growth; count+write+publish must be atomic
        let resizing = self.resize.lock();
        let page_no = self.page_count.load(Ordering::Acquire);
        self.file
            .write_all_at(&[0u8; PAGE_SIZE], page_no * PAGE_SIZE as u64)
            .map_err(|e| self.page_io(IoOp::Allocate, Some(page_no as u32), e))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.page_count.store(page_no + 1, Ordering::Release);
        drop(resizing);
        Ok(page_no as u32)
    }

    /// Read page `page_no` into `buf` (must be `PAGE_SIZE` bytes): one
    /// positional read at the page's offset, under no lock.
    pub fn read_page(&self, page_no: u32, buf: &mut [u8]) -> StorageResult<()> {
        assert_eq!(buf.len(), PAGE_SIZE);
        if page_no as u64 >= self.page_count.load(Ordering::Acquire) {
            return Err(StorageError::NotFound(format!(
                "page {page_no} of {}",
                self.path.display()
            )));
        }
        self.consult(IoOp::Read)?;
        self.file
            .read_exact_at(buf, page_offset(page_no))
            .map_err(|e| self.page_io(IoOp::Read, Some(page_no), e))?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Write `buf` (must be `PAGE_SIZE` bytes) to page `page_no`. The
    /// whole-page CRC is stamped into `buf`'s header reserved word in place
    /// (see [`crate::scrub`]; it is verified only by the scrubber, so the
    /// hot read path stays CRC-free), and `buf` is written as it then
    /// stands: one CRC pass, no copy, and one positional write at the
    /// page's offset under no lock. A torn write lands its prefix at that
    /// offset too, and nothing of any other page.
    pub fn write_page(&self, page_no: u32, buf: &mut [u8]) -> StorageResult<()> {
        assert_eq!(buf.len(), PAGE_SIZE);
        if page_no as u64 >= self.page_count.load(Ordering::Acquire) {
            return Err(StorageError::NotFound(format!(
                "page {page_no} of {}",
                self.path.display()
            )));
        }
        let action = self.consult(IoOp::Write)?;
        crate::scrub::stamp_page_crc(buf);
        if let (Some(a @ FaultAction::TornWrite { keep }), Some(inj)) = (action, &self.faults) {
            // Act out the tear: the prefix reaches the file, the caller
            // sees a typed error. The page now holds mixed old/new bytes,
            // exactly like a power cut mid-write.
            let keep = (keep as usize).min(buf.len());
            self.file
                .write_all_at(&buf[..keep], page_offset(page_no))
                .map_err(|e| self.page_io(IoOp::Write, Some(page_no), e))?;
            self.writes.fetch_add(1, Ordering::Relaxed);
            return Err(inj.error(IoOp::Write, &self.path, a));
        }
        self.file
            .write_all_at(buf, page_offset(page_no))
            .map_err(|e| self.page_io(IoOp::Write, Some(page_no), e))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flush OS buffers to stable storage.
    pub fn sync(&self) -> StorageResult<()> {
        if let Some(FaultAction::DropSync) = self.consult(IoOp::Sync)? {
            // Lying fsync: report success without syncing.
            return Ok(());
        }
        self.file
            .sync_data()
            .map_err(|e| self.page_io(IoOp::Sync, None, e))?;
        Ok(())
    }

    /// Truncate back to zero pages (used by the Loader's `REPLACE` mode).
    pub fn truncate(&self) -> StorageResult<()> {
        self.consult(IoOp::Truncate)?;
        // lint: allow(lock_hygiene) -- the mutex orders growth; truncate+reset must be atomic
        let resizing = self.resize.lock();
        self.file
            .set_len(0)
            .map_err(|e| self.page_io(IoOp::Truncate, None, e))?;
        let freed = self.page_count.swap(0, Ordering::AcqRel);
        drop(resizing);
        if let Some(b) = &self.budget {
            b.credit(&self.path, freed * PAGE_SIZE as u64);
        }
        Ok(())
    }
}

/// Byte offset of page `page_no` in its file.
fn page_offset(page_no: u32) -> u64 {
    page_no as u64 * PAGE_SIZE as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "delta-storage-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn allocate_write_read() {
        let p = tmpdir().join("t1.db");
        let _ = std::fs::remove_file(&p);
        let f = DiskFile::open(&p).unwrap();
        assert_eq!(f.page_count(), 0);
        let n0 = f.allocate_page().unwrap();
        let n1 = f.allocate_page().unwrap();
        assert_eq!((n0, n1), (0, 1));
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 0xAB;
        f.write_page(1, &mut page).unwrap();
        let mut back = vec![0u8; PAGE_SIZE];
        f.read_page(1, &mut back).unwrap();
        assert_eq!(back[0], 0xAB);
        assert!(f.reads() >= 1 && f.writes() >= 3);
    }

    #[test]
    fn rejects_out_of_range_pages() {
        let p = tmpdir().join("t2.db");
        let _ = std::fs::remove_file(&p);
        let f = DiskFile::open(&p).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(f.read_page(0, &mut buf).is_err());
        assert!(f.write_page(0, &mut buf).is_err());
    }

    #[test]
    fn reopen_preserves_pages() {
        let p = tmpdir().join("t3.db");
        let _ = std::fs::remove_file(&p);
        {
            let f = DiskFile::open(&p).unwrap();
            f.allocate_page().unwrap();
            let mut page = vec![0u8; PAGE_SIZE];
            page[100] = 7;
            f.write_page(0, &mut page).unwrap();
            f.sync().unwrap();
        }
        let f = DiskFile::open(&p).unwrap();
        assert_eq!(f.page_count(), 1);
        let mut back = vec![0u8; PAGE_SIZE];
        f.read_page(0, &mut back).unwrap();
        assert_eq!(back[100], 7);
    }

    #[test]
    fn open_rejects_torn_file() {
        let p = tmpdir().join("t4.db");
        std::fs::write(&p, vec![0u8; PAGE_SIZE + 17]).unwrap();
        assert!(DiskFile::open(&p).is_err());
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn injected_eio_on_nth_write_is_typed() {
        use crate::fault::{FaultInjector, FaultPlan};
        let p = tmpdir().join("t6.db");
        let _ = std::fs::remove_file(&p);
        // allocate_page counts as Allocate, so Write #0 is the first write_page.
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(5).fail(IoOp::Write, 1)));
        let f = DiskFile::open_with_faults(&p, Some(inj.clone())).unwrap();
        f.allocate_page().unwrap();
        f.allocate_page().unwrap();
        let mut page = vec![1u8; PAGE_SIZE];
        f.write_page(0, &mut page).unwrap();
        match f.write_page(1, &mut page) {
            Err(StorageError::InjectedFault { op, .. }) => assert_eq!(op, IoOp::Write),
            other => panic!("expected InjectedFault, got {other:?}"),
        }
        assert_eq!(inj.stats().injected, 1);
        // Next write is clean again.
        f.write_page(1, &mut page).unwrap();
    }

    #[test]
    fn torn_write_keeps_prefix_and_errors() {
        use crate::fault::{FaultInjector, FaultPlan};
        let p = tmpdir().join("t7.db");
        let _ = std::fs::remove_file(&p);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(6).torn_write(0, 100)));
        let f = DiskFile::open_with_faults(&p, Some(inj)).unwrap();
        f.allocate_page().unwrap();
        let mut page = vec![0xCCu8; PAGE_SIZE];
        assert!(matches!(
            f.write_page(0, &mut page),
            Err(StorageError::InjectedFault { .. })
        ));
        let mut back = vec![0u8; PAGE_SIZE];
        f.read_page(0, &mut back).unwrap();
        // Bytes 12..16 hold the stamped page CRC, so compare around them.
        assert_eq!(&back[..12], &page[..12], "prefix reached the file");
        assert_eq!(&back[16..100], &page[16..100], "prefix reached the file");
        assert_eq!(back[100], 0, "tail kept the old (zeroed) bytes");
    }

    #[test]
    fn a_torn_positional_write_lands_its_prefix_on_its_own_page() {
        use crate::fault::{FaultInjector, FaultPlan};
        // Tear page k of five at a prefix inside the header, one spanning
        // the CRC word, and one deep in the page.
        for (k, keep) in [(0u32, 13u32), (2, 100), (4, 5000), (1, 4096)] {
            let p = tmpdir().join(format!("t11-{k}.db"));
            let _ = std::fs::remove_file(&p);
            // Writes 0..5 lay down the old pages; write 5 is the torn one.
            let inj = Arc::new(FaultInjector::new(FaultPlan::new(11).torn_write(5, keep)));
            let f = DiskFile::open_with_faults(&p, Some(inj)).unwrap();
            let mut old = Vec::new();
            for n in 0..5u32 {
                assert_eq!(f.allocate_page().unwrap(), n);
                let mut page = vec![0x10 + n as u8; PAGE_SIZE];
                f.write_page(n, &mut page).unwrap();
                old.push(page);
            }
            let mut new = vec![0xA0u8; PAGE_SIZE];
            assert!(matches!(
                f.write_page(k, &mut new),
                Err(StorageError::InjectedFault { .. })
            ));
            let keep = keep as usize;
            for n in 0..5u32 {
                let mut back = vec![0u8; PAGE_SIZE];
                f.read_page(n, &mut back).unwrap();
                if n == k {
                    // `new` is the stamped image the write tried to land.
                    assert_eq!(&back[..keep], &new[..keep], "page {k}: new prefix");
                    assert_eq!(
                        &back[keep..],
                        &old[n as usize][keep..],
                        "page {k}: old rest"
                    );
                } else {
                    assert_eq!(
                        back, old[n as usize],
                        "page {n} untouched by the tear of {k}"
                    );
                }
            }
            assert_eq!(std::fs::metadata(&p).unwrap().len(), 5 * PAGE_SIZE as u64);
        }
    }

    #[test]
    fn dropped_sync_lies_successfully() {
        use crate::fault::{FaultInjector, FaultPlan};
        let p = tmpdir().join("t8.db");
        let _ = std::fs::remove_file(&p);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(7).drop_sync(0)));
        let f = DiskFile::open_with_faults(&p, Some(inj.clone())).unwrap();
        f.sync().unwrap(); // dropped, but reports success
        assert_eq!(inj.stats().injected, 1);
        f.sync().unwrap(); // real
    }

    #[test]
    fn crash_fails_everything_until_disarm() {
        use crate::fault::{FaultInjector, FaultPlan};
        let p = tmpdir().join("t9.db");
        let _ = std::fs::remove_file(&p);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(8).crash(IoOp::Read, 0)));
        let f = DiskFile::open_with_faults(&p, Some(inj.clone())).unwrap();
        f.allocate_page().unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(f.read_page(0, &mut buf).is_err());
        assert!(f.write_page(0, &mut buf).is_err());
        assert!(f.sync().is_err());
        inj.disarm();
        f.read_page(0, &mut buf).unwrap();
    }

    #[test]
    fn budget_exhaustion_on_allocate_is_typed_and_recoverable() {
        use crate::pressure::DiskBudget;
        let p = tmpdir().join("t10.db");
        let _ = std::fs::remove_file(&p);
        let budget = Arc::new(DiskBudget::bytes(PAGE_SIZE as u64 * 2));
        let f = DiskFile::open_with_io(&p, None, Some(budget.clone())).unwrap();
        f.allocate_page().unwrap();
        f.allocate_page().unwrap();
        match f.allocate_page() {
            Err(StorageError::DiskFull { needed, .. }) => {
                assert_eq!(needed, PAGE_SIZE as u64)
            }
            other => panic!("expected DiskFull, got {other:?}"),
        }
        drop(f);
        // The denied allocation wrote nothing: the file reopens clean.
        let f = DiskFile::open_with_io(&p, None, Some(budget)).unwrap();
        assert_eq!(f.page_count(), 2);
        // Truncation credits the space back; allocation succeeds again.
        f.truncate().unwrap();
        f.allocate_page().unwrap();
    }

    #[test]
    fn truncate_resets() {
        let p = tmpdir().join("t5.db");
        let _ = std::fs::remove_file(&p);
        let f = DiskFile::open(&p).unwrap();
        f.allocate_page().unwrap();
        f.truncate().unwrap();
        assert_eq!(f.page_count(), 0);
        let n = f.allocate_page().unwrap();
        assert_eq!(n, 0);
    }
}
