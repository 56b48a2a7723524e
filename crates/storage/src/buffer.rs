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
//! * On a **miss** the lock is dropped around the read. The page id is
//!   claimed in the shard's in-flight table first; a concurrent reader of
//!   the same page joins the claim, fetches independently, and whoever
//!   re-locks first installs — the loser finds the page mapped and keeps
//!   the installed copy, discarding its own. A claim token detects the
//!   page having been installed *and evicted again* behind a slow read, in
//!   which case the stale bytes are thrown away and the read retried.
//! * On **eviction** the victim frame is taken out of the shard under the
//!   lock but written back after release. Its id stays in the in-flight
//!   table until the write completes, so a concurrent reader waits for the
//!   writeback (then re-reads from disk) rather than racing `write_page`.
//!
//! Pages are accessed under short closures (`with_page` / `with_page_mut`),
//! so frames are never held across calls. Higher-level isolation is provided
//! by the engine's table locks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::error::{StorageError, StorageResult};
use crate::file::{DiskFile, FileId, PageId, PAGE_SIZE};
use crate::invariant;
use crate::page::SlottedPage;

/// Bound on re-tries when every frame of a shard is pinned by in-flight I/O
/// (e.g. a flush snapshot of a fully dirty shard). Each retry yields, so the
/// pinning flush gets scheduled; only a genuinely undersized shard exhausts
/// the bound.
const VICTIM_RETRIES: usize = 10_000;

/// Cumulative buffer-pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Page requests satisfied from memory.
    pub hits: u64,
    /// Page requests that required a disk read.
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
    /// A miss is fetching the page from disk off-lock.
    Read,
    /// An eviction or flush is writing the page out off-lock.
    Writeback,
}

/// An in-flight I/O registration. The token is unique per shard, which lets
/// a reader returning from disk verify its claim was held *continuously* —
/// a removed-and-recreated entry (page installed, dirtied, evicted again
/// behind the read) carries a different token and invalidates the bytes.
#[derive(Debug, Clone, Copy)]
struct IoEntry {
    kind: IoKind,
    token: u64,
}

/// A dirty victim handed out of a shard, to be written after the lock drops.
struct WritebackJob {
    pid: PageId,
    page: SlottedPage,
}

struct ShardInner {
    frames: Vec<Option<Frame>>,
    map: HashMap<PageId, usize>,
    clock: usize,
    /// Pages with disk I/O in progress outside the shard lock. Misses on a
    /// `Writeback` entry wait for it; misses on a `Read` entry join it.
    /// Frames whose id is registered here are never chosen as victims.
    in_flight: HashMap<PageId, IoEntry>,
    next_token: u64,
}

impl ShardInner {
    fn claim(&mut self, pid: PageId, kind: IoKind) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.in_flight.insert(pid, IoEntry { kind, token });
        token
    }
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
                next_token: 0,
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

    /// Atomically drain this shard's counters into zero, returning what was
    /// drained. `swap` makes a racing increment land either in the drained
    /// epoch or the fresh one — never in neither.
    fn drain_stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            hits: self.hits.swap(0, Ordering::Relaxed),
            misses: self.misses.swap(0, Ordering::Relaxed),
            evictions: self.evictions.swap(0, Ordering::Relaxed),
            writebacks: self.writebacks.swap(0, Ordering::Relaxed),
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
        let mut x = ((pid.file.0 as u64) << 32) | pid.page_no as u64;
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x & self.shard_mask) as usize
    }

    /// Register the disk file backing `id`. Must be called before any page of
    /// that file is requested.
    pub fn register_file(&self, id: FileId, file: Arc<DiskFile>) {
        self.files.write().insert(id, file);
    }

    /// Forget a file (e.g. DROP TABLE). Cached pages are discarded unwritten,
    /// so callers must flush first if they care; an eviction writeback caught
    /// mid-air discards its page the same way.
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
    /// reporting).
    pub fn shard_stats(&self) -> Vec<BufferPoolStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Zero every per-shard counter and return the drained totals. Each
    /// counter is drained with an atomic swap, so an access racing the reset
    /// lands either in the returned totals or in the fresh epoch — counts are
    /// never lost between benchmark phases.
    pub fn reset_stats(&self) -> BufferPoolStats {
        let mut total = BufferPoolStats::default();
        for s in self.shards.iter().map(Shard::drain_stats) {
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.writebacks += s.writebacks;
        }
        total
    }

    /// Run `f` with shared access to the page.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&SlottedPage) -> R) -> StorageResult<R> {
        self.with_frame(pid, false, |frame| f(&frame.page))
    }

    /// Run `f` with exclusive access to the page; the page is marked dirty.
    pub fn with_page_mut<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut SlottedPage) -> R,
    ) -> StorageResult<R> {
        self.with_frame(pid, true, |frame| f(&mut frame.page))
    }

    /// Locate `pid` (reading it from disk outside the shard lock on a miss)
    /// and run `f` on its frame under the lock.
    fn with_frame<R>(
        &self,
        pid: PageId,
        mark_dirty: bool,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> StorageResult<R> {
        let idx = self.shard_index(pid);
        let shard = &self.shards[idx];
        // Our off-lock disk read, and the (token, we_created_it) claim
        // covering it.
        let mut ours: Option<SlottedPage> = None;
        let mut covering: Option<(u64, bool)> = None;
        let mut counted_miss = false;
        loop {
            let mut inner = shard.inner.lock();
            if let Some(&slot) = inner.map.get(&pid) {
                // Mapped: a plain hit, or a concurrent reader won the install
                // race while we were at the disk — keep theirs, ours is
                // dropped on return.
                if !counted_miss {
                    shard.hits.fetch_add(1, Ordering::Relaxed);
                }
                let Some(frame) = inner.frames[slot].as_mut() else {
                    return Err(StorageError::NotFound(format!("frame for page {pid}")));
                };
                frame.referenced = true;
                if mark_dirty {
                    frame.dirty = true;
                }
                return Ok(f(frame));
            }
            let entry = inner.in_flight.get(&pid).copied();
            if let Some(page) = ours.take() {
                let intact = matches!(
                    (entry, covering),
                    (Some(e), Some((token, _))) if e.kind == IoKind::Read && e.token == token
                );
                if intact {
                    // The claim held for the whole read: no install/evict
                    // cycle can have run behind it, the bytes are current.
                    return self.install_and_run(shard, idx, inner, pid, page, mark_dirty, f);
                }
                // The covering claim vanished (its creator erred out, or the
                // page was installed and evicted again behind our read): the
                // bytes may be stale. Start over.
                covering = None;
                drop(inner);
                std::thread::yield_now();
                continue;
            }
            match entry {
                Some(e) if e.kind == IoKind::Read => {
                    // Join the in-flight read: fetch independently; whoever
                    // re-locks first installs, the other keeps the winner's.
                    covering = Some((e.token, false));
                }
                Some(_) => {
                    // An eviction or flush is writing this page out. Wait for
                    // it so the re-read cannot race the write underneath.
                    drop(inner);
                    std::thread::yield_now();
                    continue;
                }
                None => {
                    let token = inner.claim(pid, IoKind::Read);
                    covering = Some((token, true));
                }
            }
            if !counted_miss {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                counted_miss = true;
            }
            drop(inner);
            match self.read_from_disk(pid) {
                Ok(page) => ours = Some(page),
                Err(e) => {
                    // Only the claim's creator tears it down; a joiner's
                    // failure must not strand the creator's install.
                    if let Some((token, true)) = covering {
                        self.release_claim(shard, pid, token);
                    }
                    return Err(e);
                }
            }
        }
    }

    fn read_from_disk(&self, pid: PageId) -> StorageResult<SlottedPage> {
        let file = self.file(pid.file)?;
        let mut buf = vec![0u8; PAGE_SIZE];
        file.read_page(pid.page_no, &mut buf)?;
        SlottedPage::from_bytes(&buf)
    }

    /// Remove our read claim after a failed disk read, unless a racer already
    /// consumed it (or replaced it) — tokens disambiguate.
    fn release_claim(&self, shard: &Shard, pid: PageId, token: u64) {
        let mut inner = shard.inner.lock();
        if inner.in_flight.get(&pid).is_some_and(|e| e.token == token) {
            inner.in_flight.remove(&pid);
        }
        drop(inner);
    }

    /// Install `page` as `pid` (consuming any read claim), run `f` on the
    /// fresh frame, then perform the displaced victim's writeback — after the
    /// guard is released.
    #[allow(clippy::too_many_arguments)] // the install primitive threads the held guard plus full page context
    fn install_and_run<'a, R>(
        &self,
        shard: &'a Shard,
        idx: usize,
        mut inner: MutexGuard<'a, ShardInner>,
        pid: PageId,
        page: SlottedPage,
        dirty: bool,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> StorageResult<R> {
        let mut retries = 0usize;
        let (slot, job) = loop {
            match Self::take_victim(shard, &mut inner)? {
                Some(found) => break found,
                None => {
                    // Every frame is pinned by in-flight I/O (a flush
                    // snapshot of a fully dirty shard): let it drain.
                    drop(inner);
                    if retries >= VICTIM_RETRIES {
                        return Err(StorageError::PoolExhausted);
                    }
                    retries += 1;
                    std::thread::yield_now();
                    inner = shard.inner.lock();
                }
            }
        };
        invariant!(
            self.shard_index(pid) == idx,
            "page {} installing into shard {} but hashes to shard {}",
            pid,
            idx,
            self.shard_index(pid)
        );
        inner.in_flight.remove(&pid);
        inner.frames[slot] = Some(Frame {
            id: pid,
            page,
            dirty,
            referenced: true,
        });
        inner.map.insert(pid, slot);
        let Some(frame) = inner.frames[slot].as_mut() else {
            return Err(StorageError::NotFound(format!("frame for page {pid}")));
        };
        let result = f(frame);
        drop(inner);
        // The displaced dirty page (if any) is written back only now, with no
        // shard lock held; its in-flight entry parks concurrent readers.
        if let Some(job) = job {
            self.complete_writeback(shard, job)?;
        }
        Ok(result)
    }

    /// Find a frame to install into: a free slot, or a clock victim. A dirty
    /// victim is detached into a [`WritebackJob`] and its id registered
    /// in-flight; the caller writes it out after releasing the lock.
    /// `Ok(None)` means every candidate is pinned by in-flight I/O — a
    /// transient state the caller should wait out.
    fn take_victim(
        shard: &Shard,
        inner: &mut ShardInner,
    ) -> StorageResult<Option<(usize, Option<WritebackJob>)>> {
        if let Some(free) = inner.frames.iter().position(|f| f.is_none()) {
            return Ok(Some((free, None)));
        }
        let cap = inner.frames.len();
        let mut saw_pinned = false;
        // Clock sweep: clear reference bits until an unreferenced frame shows.
        for _ in 0..2 * cap + 1 {
            let slot = inner.clock;
            inner.clock = (inner.clock + 1) % cap;
            let pinned = inner.frames[slot]
                .as_ref()
                .is_some_and(|fr| inner.in_flight.contains_key(&fr.id));
            if pinned {
                saw_pinned = true;
                continue;
            }
            let evict = match inner.frames[slot].as_mut() {
                Some(fr) if fr.referenced => {
                    fr.referenced = false;
                    false
                }
                Some(_) => true,
                None => return Ok(Some((slot, None))),
            };
            if evict {
                let Some(frame) = inner.frames[slot].take() else {
                    continue;
                };
                inner.map.remove(&frame.id);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
                let job = if frame.dirty {
                    inner.claim(frame.id, IoKind::Writeback);
                    Some(WritebackJob {
                        pid: frame.id,
                        page: frame.page,
                    })
                } else {
                    None
                };
                return Ok(Some((slot, job)));
            }
        }
        if saw_pinned {
            Ok(None)
        } else {
            Err(StorageError::PoolExhausted)
        }
    }

    /// Write an evicted dirty page out and clear its in-flight entry.
    fn complete_writeback(&self, shard: &Shard, job: WritebackJob) -> StorageResult<()> {
        let mut wrote = false;
        let result = match self.file(job.pid.file) {
            Ok(file) => file
                .write_page(job.pid.page_no, job.page.as_bytes())
                .map(|()| wrote = true),
            // The file vanished (DROP TABLE won the race): discard the page
            // unwritten, per the deregister_file contract.
            Err(StorageError::NotFound(_)) => Ok(()),
            Err(e) => Err(e),
        };
        if wrote {
            shard.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        let mut inner = shard.inner.lock();
        inner.in_flight.remove(&job.pid);
        drop(inner);
        result
    }

    /// Allocate a fresh page at the end of `file`, install it in the pool
    /// formatted as an empty slotted page, and return its id.
    pub fn allocate_page(&self, file_id: FileId) -> StorageResult<PageId> {
        let file = self.file(file_id)?;
        let page_no = file.allocate_page()?;
        let pid = PageId::new(file_id, page_no);
        let idx = self.shard_index(pid);
        let shard = &self.shards[idx];
        let inner = shard.inner.lock();
        invariant!(
            !inner.map.contains_key(&pid),
            "freshly allocated page {} already cached",
            pid
        );
        self.install_and_run(shard, idx, inner, pid, SlottedPage::new(), true, |_| ())?;
        Ok(pid)
    }

    /// Write back every dirty page of `file_id` (or all files when `None`).
    ///
    /// Per shard: wait out in-flight eviction writebacks of target pages
    /// (their frames are already gone, only entry completion proves their
    /// bytes reached disk), then snapshot all dirty target frames under the
    /// lock — marking them clean and pinning them in-flight — and write the
    /// snapshots with the lock released. A page re-dirtied mid-write keeps
    /// its snapshot consistent and stays dirty for the next flush; a write
    /// failure re-marks its page dirty so a later flush retries.
    pub fn flush(&self, file_id: Option<FileId>) -> StorageResult<()> {
        for shard in &self.shards {
            self.flush_shard(shard, file_id)?;
        }
        Ok(())
    }

    fn flush_shard(&self, shard: &Shard, file_id: Option<FileId>) -> StorageResult<()> {
        let targeted = |pid: &PageId| file_id.is_none_or(|f| pid.file == f);
        let mut pending: Vec<(PageId, Vec<u8>)> = Vec::new();
        loop {
            let mut inner = shard.inner.lock();
            let busy = inner
                .in_flight
                .iter()
                .any(|(p, e)| e.kind == IoKind::Writeback && targeted(p));
            if busy {
                drop(inner);
                std::thread::yield_now();
                continue;
            }
            let ShardInner {
                frames,
                in_flight,
                next_token,
                ..
            } = &mut *inner;
            for frame in frames.iter_mut().flatten() {
                if frame.dirty && targeted(&frame.id) {
                    frame.dirty = false;
                    let token = *next_token;
                    *next_token += 1;
                    in_flight.insert(
                        frame.id,
                        IoEntry {
                            kind: IoKind::Writeback,
                            token,
                        },
                    );
                    pending.push((frame.id, frame.page.as_bytes().to_vec()));
                }
            }
            break;
        }
        // Write the snapshots off-lock; reads (and even re-dirtying writes)
        // of these pages proceed meanwhile via their still-mapped frames.
        let mut first_err: Option<StorageError> = None;
        let mut failed: Vec<PageId> = Vec::new();
        for (pid, bytes) in &pending {
            let mut wrote = false;
            let write = match self.file(pid.file) {
                Ok(file) => file.write_page(pid.page_no, bytes).map(|()| wrote = true),
                // Dropped concurrently: discard unwritten.
                Err(StorageError::NotFound(_)) => Ok(()),
                Err(e) => Err(e),
            };
            if wrote {
                shard.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            if let Err(e) = write {
                failed.push(*pid);
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        let mut inner = shard.inner.lock();
        for (pid, _) in &pending {
            inner.in_flight.remove(pid);
        }
        for pid in &failed {
            if let Some(&slot) = inner.map.get(pid) {
                if let Some(frame) = inner.frames[slot].as_mut() {
                    frame.dirty = true;
                }
            }
        }
        // No "nothing dirty remains" check here: a writer may have re-dirtied
        // a target page while its snapshot was being written off-lock, and
        // that page rightly stays dirty for the next flush.
        drop(inner);
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Flush everything, wait out straggling eviction writebacks, and fsync
    /// every registered file, so all pool contents are durable on return.
    pub fn flush_and_sync_all(&self) -> StorageResult<()> {
        self.flush(None)?;
        // Evictions racing the flush may still hold writeback jobs; drain
        // them so their pages are covered by the syncs below.
        for shard in &self.shards {
            loop {
                let inner = shard.inner.lock();
                let busy = inner
                    .in_flight
                    .values()
                    .any(|e| e.kind == IoKind::Writeback);
                drop(inner);
                if !busy {
                    break;
                }
                std::thread::yield_now();
            }
        }
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
    /// eviction writeback is still in flight.
    #[cfg(feature = "invariants")]
    fn check_invariants(&self) {
        let mut seen: std::collections::HashSet<PageId> = std::collections::HashSet::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            let inner = shard.inner.lock();
            for (pid, &slot) in &inner.map {
                invariant!(
                    self.shard_index(*pid) == idx,
                    "page {} cached in shard {} but hashes to shard {}",
                    pid,
                    idx,
                    self.shard_index(*pid)
                );
                invariant!(seen.insert(*pid), "page {} cached in two shards", pid);
                invariant!(
                    inner
                        .frames
                        .get(slot)
                        .and_then(|f| f.as_ref())
                        .is_some_and(|f| f.id == *pid),
                    "map entry for page {} points at a foreign frame",
                    pid
                );
            }
            invariant!(
                !inner
                    .in_flight
                    .values()
                    .any(|e| e.kind == IoKind::Writeback),
                "eviction writeback still in flight at flush_and_sync_all return"
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
    fn reset_stats_drains_and_zeroes() {
        let (pool, fid, _) = setup(4);
        let pid = pool.allocate_page(fid).unwrap();
        pool.with_page(pid, |_| ()).unwrap();
        let drained = pool.reset_stats();
        assert_eq!(drained.hits, 1, "drained totals carry the old epoch");
        assert_eq!(pool.stats(), BufferPoolStats::default());
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

    #[test]
    fn stats_survive_heavy_concurrent_resets() {
        // Readers hammer one page while another thread drains the counters;
        // every access must land in exactly one epoch.
        let (pool, fid, _) = setup(4);
        let pool = std::sync::Arc::new(pool);
        let pid = pool.allocate_page(fid).unwrap();
        const READERS: usize = 4;
        const ACCESSES: usize = 500;
        let drained = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                let pool = pool.clone();
                scope.spawn(move || {
                    for _ in 0..ACCESSES {
                        pool.with_page(pid, |_| ()).unwrap();
                    }
                });
            }
            let pool = pool.clone();
            let drained = drained.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    let d = pool.reset_stats();
                    drained.fetch_add(d.accesses(), Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        });
        let total = drained.load(Ordering::Relaxed) + pool.stats().accesses();
        // The allocate_page counts nothing; every with_page is one access.
        assert_eq!(total, (READERS * ACCESSES) as u64);
    }
}
