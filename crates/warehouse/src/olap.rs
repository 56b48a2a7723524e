//! A concurrent OLAP query driver (Experiment C).
//!
//! Runs reader threads issuing scan queries against warehouse tables while a
//! maintenance function executes, and reports what the readers experienced:
//! completed queries, per-query latency, and lock-timeout stalls. Under the
//! batch value-delta applier the readers starve for the whole batch (the
//! outage); under the Op-Delta applier they interleave between the short
//! per-transaction locks (§4.1, §5).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use delta_engine::db::Database;
use delta_engine::EngineError;

/// What the OLAP readers observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct OlapStats {
    /// Queries that completed.
    pub completed: u64,
    /// Queries that hit a lock timeout (blocked past the lock budget).
    pub timeouts: u64,
    /// Total time spent inside completed queries.
    pub total_latency: Duration,
    /// Worst single completed-query latency.
    pub max_latency: Duration,
}

impl OlapStats {
    /// Mean completed-query latency.
    pub fn mean_latency(&self) -> Duration {
        if self.completed == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.completed as u32
        }
    }
}

/// Drives `threads` readers over `tables` while a maintenance closure runs.
pub struct OlapDriver {
    pub db: Arc<Database>,
    pub tables: Vec<String>,
    pub threads: usize,
}

impl OlapDriver {
    pub fn new(db: Arc<Database>, tables: &[&str], threads: usize) -> OlapDriver {
        OlapDriver {
            db,
            tables: tables.iter().map(|t| t.to_string()).collect(),
            threads,
        }
    }

    /// Run `maintenance` with readers active; returns its result plus the
    /// readers' statistics.
    pub fn run_during<R>(&self, maintenance: impl FnOnce() -> R) -> (R, OlapStats) {
        let stop = Arc::new(AtomicBool::new(false));
        let completed = Arc::new(AtomicU64::new(0));
        let timeouts = Arc::new(AtomicU64::new(0));
        let total_ns = Arc::new(AtomicU64::new(0));
        let max_ns = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::with_capacity(self.threads);
        for t in 0..self.threads {
            let db = self.db.clone();
            let tables = self.tables.clone();
            let stop = stop.clone();
            let completed = completed.clone();
            let timeouts = timeouts.clone();
            let total_ns = total_ns.clone();
            let max_ns = max_ns.clone();
            handles.push(std::thread::spawn(move || {
                let mut s = db.session();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let table = &tables[i % tables.len()];
                    // Alternate a full scan with a grouped-style aggregate —
                    // the DSS query mix the paper's warehouses serve.
                    let query = if i % 2 == 0 {
                        format!("SELECT * FROM {table}")
                    } else {
                        format!("SELECT COUNT(*) FROM {table}")
                    };
                    i += 1;
                    let start = Instant::now();
                    match s.execute(&query) {
                        Ok(_) => {
                            let ns = start.elapsed().as_nanos() as u64;
                            completed.fetch_add(1, Ordering::Relaxed);
                            total_ns.fetch_add(ns, Ordering::Relaxed);
                            max_ns.fetch_max(ns, Ordering::Relaxed);
                        }
                        Err(EngineError::LockTimeout { .. }) => {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("olap reader failed: {e}"),
                    }
                }
            }));
        }
        // Give the readers a moment to start issuing queries.
        std::thread::sleep(Duration::from_millis(10));
        let result = maintenance();
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("olap reader panicked");
        }
        let stats = OlapStats {
            completed: completed.load(Ordering::Relaxed),
            timeouts: timeouts.load(Ordering::Relaxed),
            total_latency: Duration::from_nanos(total_ns.load(Ordering::Relaxed)),
            max_latency: Duration::from_nanos(max_ns.load(Ordering::Relaxed)),
        };
        (result, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_engine::db::{Database, DbOptions};
    use delta_engine::lock::LockMode;

    fn db(lock_ms: u64, label: &str) -> Arc<Database> {
        let dir = std::env::temp_dir().join(format!(
            "delta-olap-{}-{:?}-{label}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = DbOptions::new(dir);
        opts.lock_timeout = Duration::from_millis(lock_ms);
        let db = Database::open(opts).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 0..50 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
        }
        db
    }

    #[test]
    fn readers_complete_queries_while_idle() {
        let db = db(100, "idle");
        let driver = OlapDriver::new(db, &["t"], 2);
        let ((), stats) = driver.run_during(|| {
            std::thread::sleep(Duration::from_millis(50));
        });
        assert!(stats.completed > 0);
        assert_eq!(stats.timeouts, 0);
        assert!(stats.mean_latency() > Duration::ZERO);
    }

    #[test]
    fn exclusive_lock_starves_readers() {
        let db = db(20, "starve");
        let driver = OlapDriver::new(db.clone(), &["t"], 2);
        let ((), stats) = driver.run_during(|| {
            // Hold the outage lock for 150 ms (taking it may itself time
            // out behind the readers' shared locks: try until it is ours).
            let mut txn = db.begin();
            while db.lock_table(&mut txn, "t", LockMode::Exclusive).is_err() {}
            std::thread::sleep(Duration::from_millis(150));
            db.commit(txn).unwrap();
        });
        assert!(
            stats.timeouts > 0,
            "readers must have been starved: {stats:?}"
        );
    }
}
