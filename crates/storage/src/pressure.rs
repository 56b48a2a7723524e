//! Deterministic disk-exhaustion modelling: byte budgets and per-path
//! quotas.
//!
//! A [`DiskBudget`] is a countdown of writable bytes, optionally refined by
//! per-path quotas (substring-matched against the file path). Every durable
//! write path — page files, the WAL group writer and its LSN hint, snapshot
//! temp files, transport spool appends — asks the budget to *admit* its
//! bytes before touching the file:
//!
//! * **Granted** — the bytes fit; the budget is debited and the write
//!   proceeds normally.
//! * **Short** — only a prefix fits (the classic short write `ENOSPC`
//!   delivers mid-`write(2)`): the caller writes exactly `keep` bytes, then
//!   surfaces a typed [`StorageError::DiskFull`]. Recovery is the torn-tail
//!   story the storage formats already have.
//! * **Denied** — nothing fits; the caller writes nothing and surfaces the
//!   typed error. On-disk state is untouched.
//!
//! Like [`crate::fault`], everything here is deterministic: the same budget
//! and the same write sequence exhaust at the same byte, so a torture-run
//! failure reproduces exactly. Budgets are also *dynamic* — harnesses shrink
//! them mid-run ([`DiskBudget::set_global`]) and compaction credits
//! reclaimed bytes back ([`DiskBudget::credit`]) to model pressure lifting.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::error::StorageError;

/// The budget's verdict on a proposed write of `len` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The write fits; the budget has been debited.
    Granted,
    /// Only `keep` bytes fit (now debited): act out a short write — persist
    /// the prefix, then fail with [`StorageError::DiskFull`].
    Short { keep: u64 },
    /// Nothing fits. Write nothing; fail typed.
    Denied,
}

/// One per-path quota: applies to any path containing `needle`.
struct PathQuota {
    needle: String,
    remaining: i64,
}

struct BudgetState {
    /// Global pool; `None` = unlimited (quotas may still constrain).
    global: Option<i64>,
    quotas: Vec<PathQuota>,
}

/// Counters for harness reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetStats {
    /// Bytes admitted (fully or as short-write prefixes).
    pub charged: u64,
    /// Writes denied outright.
    pub denials: u64,
    /// Writes admitted only partially (short writes acted out).
    pub short_writes: u64,
}

/// A shared, deterministic disk-space budget. See the module docs.
pub struct DiskBudget {
    state: Mutex<BudgetState>,
    charged: AtomicU64,
    denials: AtomicU64,
    short_writes: AtomicU64,
}

impl DiskBudget {
    /// A budget with `bytes` in the global pool and no per-path quotas.
    pub fn bytes(bytes: u64) -> DiskBudget {
        DiskBudget {
            state: Mutex::new(BudgetState {
                global: Some(bytes.min(i64::MAX as u64) as i64),
                quotas: Vec::new(),
            }),
            charged: AtomicU64::new(0),
            denials: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
        }
    }

    /// An unlimited global pool (only quotas constrain, if any are added).
    pub fn unlimited() -> DiskBudget {
        DiskBudget {
            state: Mutex::new(BudgetState {
                global: None,
                quotas: Vec::new(),
            }),
            charged: AtomicU64::new(0),
            denials: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
        }
    }

    /// Add a quota of `bytes` for every path containing `needle` (builder
    /// style, before sharing the budget). The first matching quota applies.
    pub fn with_quota(self, needle: impl Into<String>, bytes: u64) -> DiskBudget {
        self.state.lock().quotas.push(PathQuota {
            needle: needle.into(),
            remaining: bytes.min(i64::MAX as u64) as i64,
        });
        self
    }

    /// Replace the global pool: `Some(bytes)` caps it, `None` lifts it.
    /// Harnesses use this to shrink the budget mid-run and to model
    /// pressure lifting.
    pub fn set_global(&self, bytes: Option<u64>) {
        self.state.lock().global = bytes.map(|b| b.min(i64::MAX as u64) as i64);
    }

    /// Credit `bytes` back (space reclaimed: a compacted spool, a replaced
    /// snapshot, a removed temp file). Credits the global pool and every
    /// quota matching `path`.
    pub fn credit(&self, path: &Path, bytes: u64) {
        let mut state = self.state.lock();
        let bytes = bytes.min(i64::MAX as u64) as i64;
        if let Some(g) = state.global.as_mut() {
            *g = g.saturating_add(bytes);
        }
        let key = path.to_string_lossy().into_owned();
        for q in state.quotas.iter_mut() {
            if key.contains(&q.needle) {
                q.remaining = q.remaining.saturating_add(bytes);
                break;
            }
        }
    }

    /// Bytes still admissible for `path` (`None` = unconstrained).
    pub fn remaining(&self, path: &Path) -> Option<u64> {
        let state = self.state.lock();
        let key = path.to_string_lossy();
        let quota = state
            .quotas
            .iter()
            .find(|q| key.contains(&q.needle))
            .map(|q| q.remaining.max(0) as u64);
        match (state.global, quota) {
            (Some(g), Some(q)) => Some((g.max(0) as u64).min(q)),
            (Some(g), None) => Some(g.max(0) as u64),
            (None, q) => q,
        }
    }

    /// Ask to write `len` bytes to `path`. Debits on `Granted` and `Short`.
    pub fn admit(&self, path: &Path, len: u64) -> Admission {
        let mut state = self.state.lock();
        let key = path.to_string_lossy().into_owned();
        let quota_at = state.quotas.iter().position(|q| key.contains(&q.needle));
        let available = {
            let quota = quota_at.map(|i| state.quotas[i].remaining);
            match (state.global, quota) {
                (None, None) => {
                    drop(state);
                    self.charged.fetch_add(len, Ordering::Relaxed);
                    return Admission::Granted;
                }
                (Some(g), Some(q)) => g.min(q),
                (Some(g), None) => g,
                (None, Some(q)) => q,
            }
        };
        let len_i = len.min(i64::MAX as u64) as i64;
        if available >= len_i {
            if let Some(g) = state.global.as_mut() {
                *g -= len_i;
            }
            if let Some(i) = quota_at {
                state.quotas[i].remaining -= len_i;
            }
            drop(state);
            self.charged.fetch_add(len, Ordering::Relaxed);
            Admission::Granted
        } else if available > 0 {
            let keep = available;
            if let Some(g) = state.global.as_mut() {
                *g -= keep;
            }
            if let Some(i) = quota_at {
                state.quotas[i].remaining -= keep;
            }
            drop(state);
            self.charged.fetch_add(keep as u64, Ordering::Relaxed);
            self.short_writes.fetch_add(1, Ordering::Relaxed);
            Admission::Short { keep: keep as u64 }
        } else {
            drop(state);
            self.denials.fetch_add(1, Ordering::Relaxed);
            Admission::Denied
        }
    }

    /// Unconditional debit, even past exhaustion (the pool floor is zero
    /// for admission purposes but the deficit is remembered). Used by
    /// maintenance paths that are exempt from admission — e.g. spool
    /// compaction's staged rewrite, which must be able to run *under*
    /// exhaustion because it is how pressure lifts — so the accounting
    /// still reflects every byte on disk.
    pub fn charge(&self, path: &Path, bytes: u64) {
        let mut state = self.state.lock();
        let bytes_i = bytes.min(i64::MAX as u64) as i64;
        if let Some(g) = state.global.as_mut() {
            *g = g.saturating_sub(bytes_i);
        }
        let key = path.to_string_lossy().into_owned();
        for q in state.quotas.iter_mut() {
            if key.contains(&q.needle) {
                q.remaining = q.remaining.saturating_sub(bytes_i);
                break;
            }
        }
        drop(state);
        self.charged.fetch_add(bytes, Ordering::Relaxed);
    }

    /// All-or-nothing admission: `Granted` debits and succeeds; `Short` and
    /// `Denied` debit nothing and return the typed error. For tmp+rename
    /// writers that must never leave a half-written temp behind.
    pub fn admit_full(&self, path: &Path, len: u64) -> Result<(), StorageError> {
        match self.admit(path, len) {
            Admission::Granted => Ok(()),
            Admission::Short { keep } => {
                // The prefix was debited but will not be written: credit it
                // back so the accounting matches the disk.
                self.credit(path, keep);
                Err(self.error(path, len))
            }
            Admission::Denied => Err(self.error(path, len)),
        }
    }

    /// The typed error an exhausted admission surfaces as.
    pub fn error(&self, path: &Path, needed: u64) -> StorageError {
        StorageError::DiskFull {
            path: path.display().to_string(),
            needed,
            remaining: self.remaining(path).unwrap_or(0),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> BudgetStats {
        BudgetStats {
            charged: self.charged.load(Ordering::Relaxed),
            denials: self.denials.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for DiskBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("DiskBudget")
            .field("global", &state.global)
            .field("quotas", &state.quotas.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A marker payload embedded in [`io::Error`] by budget-aware writers whose
/// errors travel through `io::Error` before reaching the storage layer.
/// [`StorageError::from`] recognizes it and produces a typed
/// [`StorageError::DiskFull`] instead of an opaque `Io`.
#[derive(Debug)]
pub struct DiskFullMark {
    pub path: String,
    pub needed: u64,
}

impl std::fmt::Display for DiskFullMark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "disk budget exhausted writing {} ({} bytes needed)",
            self.path, self.needed
        )
    }
}

impl std::error::Error for DiskFullMark {}

/// An `io::Error` carrying a [`DiskFullMark`], for budget checks made below
/// an `io::Write` boundary.
pub fn enospc(path: &Path, needed: u64) -> io::Error {
    io::Error::other(DiskFullMark {
        path: path.display().to_string(),
        needed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn global_budget_counts_down_to_short_then_denied() {
        let b = DiskBudget::bytes(100);
        assert_eq!(b.admit(&p("/x/a"), 60), Admission::Granted);
        assert_eq!(b.admit(&p("/x/b"), 60), Admission::Short { keep: 40 });
        assert_eq!(b.admit(&p("/x/c"), 1), Admission::Denied);
        let s = b.stats();
        assert_eq!((s.charged, s.short_writes, s.denials), (100, 1, 1));
    }

    #[test]
    fn quota_constrains_matching_paths_only() {
        let b = DiskBudget::unlimited().with_quota("spool", 10);
        assert_eq!(b.admit(&p("/data/heap.db"), 1000), Admission::Granted);
        assert_eq!(b.admit(&p("/data/spool.q"), 8), Admission::Granted);
        assert_eq!(
            b.admit(&p("/data/spool.q"), 8),
            Admission::Short { keep: 2 }
        );
        assert_eq!(b.admit(&p("/data/spool.q"), 1), Admission::Denied);
        assert_eq!(b.admit(&p("/data/heap.db"), 1000), Admission::Granted);
    }

    #[test]
    fn min_of_global_and_quota_applies() {
        let b = DiskBudget::bytes(5).with_quota("spool", 100);
        assert_eq!(b.admit(&p("/s/spool.q"), 10), Admission::Short { keep: 5 });
        assert_eq!(b.remaining(&p("/s/spool.q")), Some(0));
    }

    #[test]
    fn credit_and_set_global_lift_pressure() {
        let b = DiskBudget::bytes(10);
        assert_eq!(b.admit(&p("/x"), 10), Admission::Granted);
        assert_eq!(b.admit(&p("/x"), 1), Admission::Denied);
        b.credit(&p("/x"), 5);
        assert_eq!(b.admit(&p("/x"), 5), Admission::Granted);
        b.set_global(None);
        assert_eq!(b.admit(&p("/x"), 1 << 40), Admission::Granted);
    }

    #[test]
    fn admit_full_never_debits_on_failure() {
        let b = DiskBudget::bytes(10);
        let err = b.admit_full(&p("/x"), 11).unwrap_err();
        assert!(matches!(err, StorageError::DiskFull { .. }));
        assert_eq!(b.remaining(&p("/x")), Some(10), "nothing was debited");
        b.admit_full(&p("/x"), 10).unwrap();
        assert_eq!(b.remaining(&p("/x")), Some(0));
    }

    #[test]
    fn enospc_io_error_converts_to_typed_disk_full() {
        let e: StorageError = enospc(&p("/spool.q"), 64).into();
        match e {
            StorageError::DiskFull { path, needed, .. } => {
                assert!(path.contains("spool.q"));
                assert_eq!(needed, 64);
            }
            other => panic!("expected DiskFull, got {other:?}"),
        }
    }

    #[test]
    fn exhaustion_is_deterministic() {
        let run = || {
            let b = DiskBudget::bytes(1000).with_quota("wal", 300);
            let mut verdicts = Vec::new();
            for i in 0..20u64 {
                let path = if i % 2 == 0 { "/d/wal/seg" } else { "/d/heap" };
                verdicts.push(b.admit(&p(path), 67));
            }
            verdicts
        };
        assert_eq!(run(), run());
    }
}
