//! Sharded clock-eviction buffer pool with off-lock disk I/O.
//!
//! All regular engine page access goes through here, which is what makes the
//! paper's cost distinctions observable: the transactional Import path pays
//! buffer-pool traffic and write-backs, while the ASCII Loader bypasses the
//! pool entirely and writes packed pages straight to disk.
//!
//! Frames are partitioned by `PageId` hash into power-of-two shards, each
//! with its own mutex, frame array, page map, and clock hand, so concurrent
//! scans of different pages contend only when they land on the same shard.
//! Disk I/O never happens under a shard lock:
//!
//! * On a **miss** the page id is registered in the shard's in-flight table
//!   and the lock is dropped around the read. Only the thread that
//!   registered an entry installs or clears it; every other access to that
//!   page waits for the entry to go, then finds the page cached. A freshly
//!   allocated page enters the same way, formatted instead of read.
//! * On **eviction** only a clean, unpinned frame leaves the shard. A dirty
//!   victim is first written by the flush's routine (`write_back`): it is
//!   snapshotted and marked clean under the lock, pinned in the in-flight
//!   table and left mapped, so accesses keep hitting it while the snapshot
//!   is written. A failed or torn write marks it dirty again, so the page
//!   stays in memory and the access that wanted its frame gets the error.
//!   The snapshots go into space the shard keeps from one write-back to
//!   the next, and each is CRC-stamped and written where it lies: a page
//!   write costs one copy, one CRC pass and one system call.
//!
//! Pages are accessed under short closures (`with_page` / `with_page_mut`),
//! so frames are never held across calls. Higher-level isolation is provided
//! by the engine's table locks.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::error::{StorageError, StorageResult};
use crate::fault::splitmix64;
use crate::file::{DiskFile, FileId, PageId, PAGE_SIZE};
use crate::page::SlottedPage;

/// Bound on re-tries for a victim frame: when every frame of a shard is
/// pinned by in-flight I/O (e.g. a flush snapshot of a fully dirty shard),
/// or a written-back victim was re-dirtied or pinned again before it could
/// go. Each pinned retry yields, so the pinning write gets scheduled; only
/// a genuinely undersized shard exhausts the bound.
const VICTIM_RETRIES: usize = 10_000;

/// Cumulative buffer-pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Page requests satisfied from memory, including those that waited
    /// for another access's read of the page.
    pub hits: u64,
    /// Page requests that read the page from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back (by eviction or flush).
    pub writebacks: u64,
}

impl BufferPoolStats {
    /// Total page requests (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served from memory; `1.0` for an idle pool.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

struct Frame {
    id: PageId,
    page: SlottedPage,
    dirty: bool,
    referenced: bool,
}

/// Why a page id sits in a shard's in-flight table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IoKind {
    /// An access is paging the page in (reading or formatting it) off-lock.
    Read,
    /// A flush or an eviction is writing a snapshot of the page off-lock.
    /// Its frame stays mapped and is not evicted until the write ends.
    Writeback,
}

/// What an access does to the page it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// Look at the page; a miss reads it from disk.
    Read,
    /// Modify the page; it is marked dirty.
    Write,
    /// Format a freshly allocated page as empty: a miss reads nothing, and
    /// a cached image of the page (the zero page a reader found on disk) is
    /// overwritten in its frame. Counts no hit and no miss.
    Create,
}

/// A frame `take_victim` found for a page to install into.
enum Victim {
    /// An empty slot: never used, or just emptied by evicting a clean frame.
    Free(usize),
    /// An unreferenced dirty frame, to be written back before it goes.
    Dirty(usize),
    /// Every candidate is pinned by in-flight I/O, a transient state the
    /// caller waits out.
    Pinned,
}

struct ShardInner {
    frames: Vec<Option<Frame>>,
    map: HashMap<PageId, usize>,
    clock: usize,
    /// Pages with disk I/O in progress outside the shard lock. Only the
    /// thread that registered an entry clears it; a miss on a registered
    /// page waits for it to go. Frames whose id is registered here are
    /// never chosen as victims.
    in_flight: HashMap<PageId, IoKind>,
    /// `write_back`'s snapshot space, kept for the next write-back so a
    /// warm flush allocates nothing per page. It never holds more than the
    /// shard's frame count of pages: one write-back copies at most every
    /// frame, and of two that overlap (an eviction's beside a flush's,
    /// which copy disjoint frames) the shard keeps the larger space.
    snapshots: Snapshots,
}

/// Copies of dirty pages on their way to disk: ids in order, and their
/// images back to back, `PAGE_SIZE` bytes each.
#[derive(Default)]
struct Snapshots {
    ids: Vec<PageId>,
    pages: Vec<u8>,
}

struct Shard {
    inner: Mutex<ShardInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

impl Shard {
    fn with_frames(frames: usize) -> Shard {
        Shard {
            inner: Mutex::new(ShardInner {
                frames: (0..frames).map(|_| None).collect(),
                map: HashMap::new(),
                clock: 0,
                in_flight: HashMap::new(),
                snapshots: Snapshots::default(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }
}

/// Default shard count: the next power of two at or above the machine's
/// available parallelism.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
}

/// A fixed-capacity page cache shared by every table and index file,
/// partitioned into independently locked shards.
pub struct BufferPool {
    shards: Vec<Shard>,
    shard_mask: u64,
    files: RwLock<HashMap<FileId, Arc<DiskFile>>>,
}

impl BufferPool {
    /// Create a pool that caches at most `capacity` pages, sharded for the
    /// machine's available parallelism.
    pub fn new(capacity: usize) -> BufferPool {
        Self::with_shards(capacity, default_shards())
    }

    /// Create a pool with an explicit shard count. The count is rounded up
    /// to a power of two and capped so every shard holds at least one frame;
    /// `0` (and `1`) mean a single shard. Capacity is divided across shards,
    /// rounding up.
    pub fn with_shards(capacity: usize, shards: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let shards = shards
            .max(1)
            .next_power_of_two()
            .min(capacity.next_power_of_two());
        let per_shard = capacity.div_ceil(shards);
        BufferPool {
            shards: (0..shards).map(|_| Shard::with_frames(per_shard)).collect(),
            shard_mask: shards as u64 - 1,
            files: RwLock::new(HashMap::new()),
        }
    }

    /// Number of shards the pool was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a page id hashes to: splitmix64 finalizer over the packed
    /// id, cheap and well mixed so consecutive pages of one file spread out.
    fn shard_index(&self, pid: PageId) -> usize {
        let mut packed = ((pid.file.0 as u64) << 32) | pid.page_no as u64;
        (splitmix64(&mut packed) & self.shard_mask) as usize
    }

    /// Register the disk file backing `id`. Must be called before any page of
    /// that file is requested.
    pub fn register_file(&self, id: FileId, file: Arc<DiskFile>) {
        self.files.write().insert(id, file);
    }

    /// Forget a file (e.g. DROP TABLE). Cached pages are discarded unwritten,
    /// so callers must flush first if they care; a write-back of one of its
    /// pages that looks the file up after this call discards its snapshot
    /// the same way.
    pub fn deregister_file(&self, id: FileId) {
        self.files.write().remove(&id);
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            let stale: Vec<PageId> = inner.map.keys().filter(|p| p.file == id).copied().collect();
            for pid in stale {
                if let Some(slot) = inner.map.remove(&pid) {
                    inner.frames[slot] = None;
                }
            }
            drop(inner);
        }
    }

    /// The registered disk file for `id`.
    pub fn file(&self, id: FileId) -> StorageResult<Arc<DiskFile>> {
        self.files
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(format!("file {}", id.0)))
    }

    /// Aggregated counters across every shard.
    pub fn stats(&self) -> BufferPoolStats {
        let mut total = BufferPoolStats::default();
        for s in self.shards.iter().map(Shard::stats) {
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.writebacks += s.writebacks;
        }
        total
    }

    /// Per-shard counter snapshots, indexed by shard number (for lock-balance
    /// reporting). Counters only grow: a phase's figures are the difference
    /// of two snapshots.
    pub fn shard_stats(&self) -> Vec<BufferPoolStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Run `f` with shared access to the page.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&SlottedPage) -> R) -> StorageResult<R> {
        self.with_frame(pid, Access::Read, |frame| f(&frame.page))
    }

    /// Run `f` with exclusive access to the page; the page is marked dirty.
    pub fn with_page_mut<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut SlottedPage) -> R,
    ) -> StorageResult<R> {
        self.with_frame(pid, Access::Write, |frame| f(&mut frame.page))
    }

    /// Locate `pid` and run `f` on its frame under the shard lock. On a miss
    /// this access registers the page in flight and pages it in; an access
    /// that finds the page in flight waits for the entry to go.
    fn with_frame<R>(
        &self,
        pid: PageId,
        access: Access,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> StorageResult<R> {
        let shard = &self.shards[self.shard_index(pid)];
        loop {
            let mut inner = shard.inner.lock();
            if let Some(&slot) = inner.map.get(&pid) {
                let Some(frame) = inner.frames[slot].as_mut() else {
                    return Err(StorageError::NotFound(format!("frame for page {pid}")));
                };
                match access {
                    Access::Read => {}
                    Access::Write => frame.dirty = true,
                    Access::Create => {
                        frame.page = SlottedPage::new();
                        frame.dirty = true;
                    }
                }
                if access != Access::Create {
                    shard.hits.fetch_add(1, Ordering::Relaxed);
                }
                frame.referenced = true;
                return Ok(f(frame));
            }
            if inner.in_flight.contains_key(&pid) {
                // Another access is paging this page in: wait for its entry
                // to go.
                drop(inner);
                std::thread::yield_now();
                continue;
            }
            inner.in_flight.insert(pid, IoKind::Read);
            drop(inner);
            return self.page_in(shard, pid, access, f);
        }
    }

    /// Bring `pid` into a frame — read from disk, or formatted for
    /// `Access::Create` — and run `f` on it. The caller registered the
    /// page's `Read` entry; this clears it on every path, in the same
    /// critical section that installs the frame. A dirty victim is written
    /// back through `write_back` first and evicted once it is clean; if
    /// that write fails, the victim stays cached and dirty, and this access
    /// returns the error without running `f`.
    fn page_in<R>(
        &self,
        shard: &Shard,
        pid: PageId,
        access: Access,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> StorageResult<R> {
        let page = match access {
            Access::Create => SlottedPage::new(),
            Access::Read | Access::Write => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                match self.read_from_disk(pid) {
                    Ok(page) => page,
                    Err(e) => {
                        let mut inner = shard.inner.lock();
                        inner.in_flight.remove(&pid);
                        drop(inner);
                        return Err(e);
                    }
                }
            }
        };
        let mut inner = shard.inner.lock();
        let mut retries = 0usize;
        let victim = loop {
            match Self::take_victim(shard, &mut inner) {
                Ok(Victim::Free(slot)) => break Ok(slot),
                Ok(Victim::Dirty(slot)) => {
                    let (relocked, written) =
                        self.write_back(shard, inner, slot..slot + 1, |_| true);
                    inner = relocked;
                    if let Err(e) = written {
                        break Err(e);
                    }
                    // Evict it unless an access re-dirtied it meanwhile (or
                    // a DROP TABLE freed the slot for another page); else
                    // look again.
                    let clean = inner.frames[slot]
                        .as_ref()
                        .is_none_or(|fr| !fr.dirty && !inner.in_flight.contains_key(&fr.id));
                    if clean {
                        Self::evict(shard, &mut inner, slot);
                        break Ok(slot);
                    }
                }
                Ok(Victim::Pinned) => {
                    // Every frame is pinned by in-flight I/O (a flush
                    // snapshot of a fully dirty shard): let it drain.
                    drop(inner);
                    std::thread::yield_now();
                    inner = shard.inner.lock();
                }
                Err(e) => break Err(e),
            }
            retries += 1;
            if retries == VICTIM_RETRIES {
                break Err(StorageError::PoolExhausted);
            }
        };
        inner.in_flight.remove(&pid);
        let slot = victim?;
        let frame = inner.frames[slot].insert(Frame {
            id: pid,
            page,
            dirty: access != Access::Read,
            referenced: true,
        });
        let result = f(frame);
        inner.map.insert(pid, slot);
        drop(inner);
        Ok(result)
    }

    /// The one place a page comes off disk. It is read straight into the
    /// boxed page its frame will own: one allocation per page-in.
    fn read_from_disk(&self, pid: PageId) -> StorageResult<SlottedPage> {
        let file = self.file(pid.file)?;
        let mut data = Box::new([0u8; PAGE_SIZE]);
        file.read_page(pid.page_no, &mut data[..])?;
        SlottedPage::from_boxed(data)
    }

    /// Find a frame to install into: a free slot, a clean clock victim
    /// (evicted here), or an unreferenced dirty one for the caller to write
    /// back. Frames pinned by in-flight I/O are never chosen.
    fn take_victim(shard: &Shard, inner: &mut ShardInner) -> StorageResult<Victim> {
        if let Some(free) = inner.frames.iter().position(Option::is_none) {
            return Ok(Victim::Free(free));
        }
        let cap = inner.frames.len();
        let mut saw_pinned = false;
        // Clock sweep: clear reference bits until an unreferenced frame shows.
        for _ in 0..2 * cap + 1 {
            let slot = inner.clock;
            inner.clock = (inner.clock + 1) % cap;
            let Some(fr) = inner.frames[slot].as_mut() else {
                return Ok(Victim::Free(slot));
            };
            if inner.in_flight.contains_key(&fr.id) {
                saw_pinned = true;
            } else if fr.referenced {
                fr.referenced = false;
            } else if fr.dirty {
                return Ok(Victim::Dirty(slot));
            } else {
                Self::evict(shard, inner, slot);
                return Ok(Victim::Free(slot));
            }
        }
        if saw_pinned {
            Ok(Victim::Pinned)
        } else {
            Err(StorageError::PoolExhausted)
        }
    }

    /// Drop the frame in `slot`, which the caller found clean and unpinned.
    fn evict(shard: &Shard, inner: &mut ShardInner, slot: usize) {
        if let Some(frame) = inner.frames[slot].take() {
            inner.map.remove(&frame.id);
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The one place a page goes to disk. Every dirty frame in `slots`
    /// (which the caller found unpinned) whose page is `targeted` is
    /// snapshotted into the shard's snapshot space, marked clean and pinned
    /// `Writeback`, all in the caller's critical section; it stays mapped,
    /// so accesses keep hitting it and may re-dirty it. The snapshots are
    /// stamped and written in place with the lock released, then the pins
    /// cleared. A frame whose write failed or tore is marked dirty again, so
    /// its page stays in memory until a later write of it succeeds. Returns
    /// the shard still locked from the critical section that cleared the
    /// pins, and the first write error.
    fn write_back<'a>(
        &self,
        shard: &'a Shard,
        mut inner: MutexGuard<'a, ShardInner>,
        slots: Range<usize>,
        targeted: impl Fn(&PageId) -> bool,
    ) -> (MutexGuard<'a, ShardInner>, StorageResult<()>) {
        let ShardInner {
            frames,
            in_flight,
            snapshots,
            ..
        } = &mut *inner;
        let frames = &mut frames[slots];
        let due = |fr: &Frame| fr.dirty && targeted(&fr.id);
        // While an overlapping write-back holds the shard's space, this one
        // takes an empty one and grows its own.
        let mut snap = std::mem::take(snapshots);
        let count = frames.iter().flatten().filter(|fr| due(fr)).count();
        snap.ids.clear();
        snap.pages.clear();
        snap.ids.reserve_exact(count);
        snap.pages.reserve_exact(count * PAGE_SIZE);
        for frame in frames.iter_mut().flatten().filter(|fr| due(fr)) {
            frame.dirty = false;
            in_flight.insert(frame.id, IoKind::Writeback);
            snap.ids.push(frame.id);
            snap.pages.extend_from_slice(frame.page.as_bytes());
        }
        drop(inner);
        let mut first_err: Option<StorageError> = None;
        let mut failed: Vec<PageId> = Vec::new();
        for (pid, page) in snap.ids.iter().zip(snap.pages.chunks_exact_mut(PAGE_SIZE)) {
            let write = match self.file(pid.file) {
                Ok(file) => file.write_page(pid.page_no, page).map(|()| {
                    shard.writebacks.fetch_add(1, Ordering::Relaxed);
                }),
                // Dropped concurrently: discard unwritten.
                Err(StorageError::NotFound(_)) => Ok(()),
                Err(e) => Err(e),
            };
            if let Err(e) = write {
                failed.push(*pid);
                first_err.get_or_insert(e);
            }
        }
        let mut inner = shard.inner.lock(); // lock-order: 1
        for pid in &snap.ids {
            inner.in_flight.remove(pid);
        }
        for pid in &failed {
            if let Some(&slot) = inner.map.get(pid) {
                if let Some(frame) = inner.frames[slot].as_mut() {
                    frame.dirty = true;
                }
            }
        }
        if snap.pages.capacity() >= inner.snapshots.pages.capacity() {
            inner.snapshots = snap;
        }
        (inner, first_err.map_or(Ok(()), Err))
    }

    /// Allocate a fresh page at the end of `file`, bring it into the pool
    /// formatted as an empty slotted page, and return its id. A reader that
    /// guessed the id between the file growing and this access saw the zero
    /// page; the empty page replaces that image in its frame.
    pub fn allocate_page(&self, file_id: FileId) -> StorageResult<PageId> {
        let pid = PageId::new(file_id, self.file(file_id)?.allocate_page()?);
        self.with_frame(pid, Access::Create, |_| ())?;
        Ok(pid)
    }

    /// Write back every dirty page of `file_id` (or all files when `None`).
    ///
    /// Per shard: wait until no target page is pinned by another write
    /// (an eviction's or another flush's; its bytes are not on disk until
    /// that write ends, and a failed one re-dirties the page), then write
    /// every dirty target frame through `write_back`. A page re-dirtied
    /// mid-write keeps its snapshot consistent and stays dirty for the next
    /// flush; a failed write keeps its page dirty, so a later flush retries.
    pub fn flush(&self, file_id: Option<FileId>) -> StorageResult<()> {
        let targeted = |pid: &PageId| file_id.is_none_or(|f| pid.file == f);
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            while inner
                .in_flight
                .iter()
                .any(|(p, &kind)| kind == IoKind::Writeback && targeted(p))
            {
                drop(inner);
                std::thread::yield_now();
                inner = shard.inner.lock();
            }
            let slots = 0..inner.frames.len();
            self.write_back(shard, inner, slots, targeted).1?;
        }
        Ok(())
    }

    /// Flush everything and fsync every registered file, so all pool
    /// contents are durable on return.
    pub fn flush_and_sync_all(&self) -> StorageResult<()> {
        self.flush(None)?;
        // Clone the handles out so no fsync runs under the files-map lock
        // (file registration would otherwise stall behind slow disks).
        let files: Vec<Arc<DiskFile>> = self.files.read().values().cloned().collect();
        for file in files {
            file.sync()?;
        }
        self.check_invariants();
        Ok(())
    }

    /// Structural invariants, checked at `flush_and_sync_all` return: every
    /// cached page sits in exactly the shard its hash selects, no page id is
    /// cached in two shards, map entries point at matching frames, and no
    /// page being paged in is also cached.
    #[cfg(feature = "invariants")]
    fn check_invariants(&self) {
        let mut seen: std::collections::HashSet<PageId> = std::collections::HashSet::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            let inner = shard.inner.lock();
            for (pid, &slot) in &inner.map {
                crate::invariant!(
                    self.shard_index(*pid) == idx,
                    "page {} cached in shard {} but hashes to shard {}",
                    pid,
                    idx,
                    self.shard_index(*pid)
                );
                crate::invariant!(seen.insert(*pid), "page {} cached in two shards", pid);
                crate::invariant!(
                    inner
                        .frames
                        .get(slot)
                        .and_then(|f| f.as_ref())
                        .is_some_and(|f| f.id == *pid),
                    "map entry for page {} points at a foreign frame",
                    pid
                );
            }
            crate::invariant!(
                !inner
                    .in_flight
                    .iter()
                    .any(|(p, &kind)| kind == IoKind::Read && inner.map.contains_key(p)),
                "a page being paged in is already cached"
            );
            drop(inner);
        }
    }

    #[cfg(not(feature = "invariants"))]
    fn check_invariants(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(capacity: usize) -> (BufferPool, FileId, std::path::PathBuf) {
        setup_sharded(capacity, 0)
    }

    fn setup_sharded(capacity: usize, shards: usize) -> (BufferPool, FileId, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "delta-pool-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.db");
        let _ = std::fs::remove_file(&path);
        let pool = if shards == 0 {
            BufferPool::new(capacity)
        } else {
            BufferPool::with_shards(capacity, shards)
        };
        let fid = FileId(1);
        pool.register_file(fid, Arc::new(DiskFile::open(&path).unwrap()));
        (pool, fid, path)
    }

    #[test]
    fn allocate_and_modify_round_trip() {
        let (pool, fid, _) = setup(4);
        let pid = pool.allocate_page(fid).unwrap();
        pool.with_page_mut(pid, |p| p.insert(b"data").unwrap())
            .unwrap();
        let got = pool
            .with_page(pid, |p| p.get(0).map(|r| r.to_vec()))
            .unwrap();
        assert_eq!(got.as_deref(), Some(&b"data"[..]));
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (pool, fid, _) = setup(2);
        let mut pids = vec![];
        for i in 0..6 {
            let pid = pool.allocate_page(fid).unwrap();
            pool.with_page_mut(pid, |p| p.insert(format!("page-{i}").as_bytes()).unwrap())
                .unwrap();
            pids.push(pid);
        }
        // Earlier pages must have been evicted (pool holds 2) and written back.
        let s = pool.stats();
        assert!(s.evictions >= 4, "evictions: {}", s.evictions);
        assert!(s.writebacks >= 4, "writebacks: {}", s.writebacks);
        // And must read back correctly from disk.
        for (i, pid) in pids.iter().enumerate() {
            let got = pool
                .with_page(*pid, |p| p.get(0).map(|r| r.to_vec()))
                .unwrap();
            assert_eq!(got.unwrap(), format!("page-{i}").into_bytes());
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (pool, fid, _) = setup(4);
        let pid = pool.allocate_page(fid).unwrap();
        pool.with_page(pid, |_| ()).unwrap();
        pool.with_page(pid, |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn flush_persists_without_eviction() {
        let (pool, fid, path) = setup(8);
        let pid = pool.allocate_page(fid).unwrap();
        pool.with_page_mut(pid, |p| p.insert(b"flushed").unwrap())
            .unwrap();
        pool.flush(Some(fid)).unwrap();
        // Re-open the file cold and check the bytes are there.
        let file = DiskFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        file.read_page(pid.page_no, &mut buf).unwrap();
        let page = SlottedPage::from_bytes(&buf).unwrap();
        assert_eq!(page.get(0), Some(&b"flushed"[..]));
    }

    #[test]
    fn unknown_file_is_an_error() {
        let pool = BufferPool::new(2);
        let pid = PageId::new(FileId(99), 0);
        assert!(pool.with_page(pid, |_| ()).is_err());
    }

    #[test]
    fn deregister_discards_cached_pages() {
        let (pool, fid, _) = setup(4);
        let pid = pool.allocate_page(fid).unwrap();
        pool.deregister_file(fid);
        assert!(pool.with_page(pid, |_| ()).is_err());
    }

    #[test]
    fn concurrent_readers_and_writers_stay_consistent() {
        let (pool, fid, _) = setup_sharded(8, 4);
        let pool = std::sync::Arc::new(pool);
        // Pre-allocate pages, one per worker.
        let pids: Vec<PageId> = (0..4).map(|_| pool.allocate_page(fid).unwrap()).collect();
        let mut handles = Vec::new();
        for (w, pid) in pids.iter().enumerate() {
            let pool = pool.clone();
            let pid = *pid;
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    pool.with_page_mut(pid, |p| {
                        p.insert(format!("w{w}-i{i}").as_bytes()).ok();
                    })
                    .unwrap();
                    let n = pool.with_page(pid, |p| p.live_count()).unwrap();
                    assert!(n > 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every worker's page holds exactly its own records.
        for (w, pid) in pids.iter().enumerate() {
            let ok = pool
                .with_page(*pid, |p| {
                    p.iter()
                        .all(|(_, r)| r.starts_with(format!("w{w}-").as_bytes()))
                })
                .unwrap();
            assert!(ok, "worker {w} saw foreign data");
        }
    }

    #[test]
    fn shard_count_is_clamped_to_capacity_and_pow2() {
        assert_eq!(BufferPool::with_shards(64, 0).shard_count(), 1);
        assert_eq!(BufferPool::with_shards(64, 1).shard_count(), 1);
        assert_eq!(BufferPool::with_shards(64, 3).shard_count(), 4);
        assert_eq!(BufferPool::with_shards(64, 8).shard_count(), 8);
        assert_eq!(BufferPool::with_shards(2, 64).shard_count(), 2);
    }

    #[test]
    fn pages_spread_across_shards() {
        let (pool, fid, _) = setup_sharded(64, 4);
        for _ in 0..32 {
            let pid = pool.allocate_page(fid).unwrap();
            pool.with_page(pid, |_| ()).unwrap();
        }
        let per_shard = pool.shard_stats();
        assert_eq!(per_shard.len(), 4);
        let busy = per_shard.iter().filter(|s| s.accesses() > 0).count();
        assert!(busy >= 2, "32 pages all hashed into {busy} shard(s)");
        // Per-shard counters must aggregate exactly to the pool totals.
        let total: u64 = per_shard.iter().map(|s| s.accesses()).sum();
        assert_eq!(total, pool.stats().accesses());
    }

    /// How many frames, across every shard, hold `pid`.
    fn frames_holding(pool: &BufferPool, pid: PageId) -> usize {
        let mut n = 0;
        for shard in &pool.shards {
            let inner = shard.inner.lock();
            n += inner
                .frames
                .iter()
                .flatten()
                .filter(|f| f.id == pid)
                .count();
            drop(inner);
        }
        n
    }

    /// `allocate_page` with a reader slipped into its middle: the file
    /// grows, a reader pages in the zero image of the new id, and only then
    /// does the allocation's own access bring the fresh page in.
    fn allocate_behind_a_reader(pool: &BufferPool, fid: FileId) -> PageId {
        let pid = PageId::new(fid, pool.file(fid).unwrap().allocate_page().unwrap());
        assert_eq!(pool.with_page(pid, |p| p.live_count()).unwrap(), 0);
        pool.with_frame(pid, Access::Create, |_| ()).unwrap();
        pid
    }

    fn first_record(pool: &BufferPool, pid: PageId) -> Option<Vec<u8>> {
        pool.with_page(pid, |p| p.get(0).map(<[u8]>::to_vec))
            .unwrap()
    }

    #[test]
    fn allocation_behind_a_reader_leaves_one_frame_and_keeps_its_row() {
        let (pool, fid, path) = setup(4);
        let pid = allocate_behind_a_reader(&pool, fid);
        assert_eq!(frames_holding(&pool, pid), 1);
        pool.with_page_mut(pid, |p| p.insert(b"row").unwrap())
            .unwrap();
        pool.flush_and_sync_all().unwrap();
        let fresh = BufferPool::new(4);
        fresh.register_file(fid, Arc::new(DiskFile::open(&path).unwrap()));
        assert_eq!(first_record(&fresh, pid).as_deref(), Some(&b"row"[..]));
    }

    #[test]
    fn allocation_behind_a_reader_keeps_its_row_past_the_next_eviction() {
        let (pool, fid, _) = setup_sharded(2, 1);
        let pid = allocate_behind_a_reader(&pool, fid);
        pool.with_page_mut(pid, |p| p.insert(b"row").unwrap())
            .unwrap();
        pool.allocate_page(fid).unwrap();
        assert_eq!(first_record(&pool, pid).as_deref(), Some(&b"row"[..]));
    }

    #[test]
    fn a_burst_of_misses_on_one_page_reads_the_disk_once() {
        const THREADS: usize = 8;
        let (pool, fid, _) = setup(16);
        let file = pool.file(fid).unwrap();
        // On disk, not cached.
        let pid = PageId::new(fid, file.allocate_page().unwrap());
        let reads = file.reads();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    pool.with_page(pid, |_| ()).unwrap();
                });
            }
        });
        assert_eq!(file.reads() - reads, 1, "one disk read");
        let s = pool.stats();
        assert_eq!((s.misses, s.hits), (1, THREADS as u64 - 1));
    }
}
