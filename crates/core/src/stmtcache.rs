//! [`CacheStats`], a frozen-harness remnant.
//!
//! The warehouse used to hold a text-keyed parse cache and a text-keyed
//! rewrite cache; neither ever hit on shipped traffic (every operation
//! carries fresh literals) and both are gone — an operation is parsed once,
//! by the applier that executes it. The dwbench harness still names this
//! module, this struct and `Pipeline::{stmt_cache_stats,
//! rewrite_cache_stats}`, so they stay as plain counters until a benchmark
//! PR drops them (ROADMAP, Measurement gaps).

/// Parse / rewrite counters in the shape the dwbench harness reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0: nothing is cached.
    pub hits: u64,
    /// Operations replayed — each parsed and rewritten once, where it ran.
    pub misses: u64,
}
