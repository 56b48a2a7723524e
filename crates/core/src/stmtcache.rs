//! A bounded SQL parse cache for the apply hot path.
//!
//! Op-Delta shipping is textual: every statement crosses the transport as
//! canonical SQL (§4.1's ~70-byte operations) and must be re-parsed at the
//! warehouse. Generated OLTP workloads repeat a handful of statement shapes
//! with different literals — but the capture freezes literals into the text,
//! so *exact* repeats are still common (replays, re-drains, idempotent
//! retries) and even a text-keyed cache removes the parser from the steady
//! state. The cache is shared across batches by the pipeline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use delta_sql::ast::Statement;
use delta_sql::parser::parse_statement;
use delta_storage::{StorageError, StorageResult};

/// Hit/miss counters of a [`StatementCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered without parsing.
    pub hits: u64,
    /// Lookups that fell through to the parser.
    pub misses: u64,
}

/// Entries kept before the map is wholesale cleared. A full clear (rather
/// than LRU bookkeeping) keeps the fast path to one hash lookup; the cache
/// simply re-warms, which costs one parse per distinct statement.
pub const CACHE_CAPACITY: usize = 4096;

/// A thread-safe parse cache keyed by exact SQL text.
#[derive(Default)]
pub struct StatementCache {
    map: Mutex<HashMap<String, Statement>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StatementCache {
    /// An empty cache.
    pub fn new() -> StatementCache {
        StatementCache::default()
    }

    /// The parsed form of `sql`, from cache when possible. Parse failures
    /// are reported as corruption (shipped SQL was produced by our own
    /// serializer) and are never cached.
    pub fn get_or_parse(&self, sql: &str) -> StorageResult<Statement> {
        if let Some(stmt) = self.map.lock().get(sql) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(stmt.clone());
        }
        let parsed = parse_statement(sql)
            .map_err(|e| StorageError::Corrupt(format!("op-delta SQL: {e}")))?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock();
        if map.len() >= CACHE_CAPACITY {
            map.clear();
        }
        map.insert(sql.to_string(), parsed.clone());
        Ok(parsed)
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached statements.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the cache holds no statements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_sql_parses_once() {
        let cache = StatementCache::new();
        let a = cache.get_or_parse("INSERT INTO t VALUES (1, 2)").unwrap();
        let b = cache.get_or_parse("INSERT INTO t VALUES (1, 2)").unwrap();
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_sql_misses() {
        let cache = StatementCache::new();
        cache.get_or_parse("DELETE FROM t WHERE id = 1").unwrap();
        cache.get_or_parse("DELETE FROM t WHERE id = 2").unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn parse_failure_is_an_error_and_not_cached() {
        let cache = StatementCache::new();
        assert!(cache.get_or_parse("NOT SQL AT ALL").is_err());
        assert!(cache.is_empty());
    }
}
