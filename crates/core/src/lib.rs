//! # delta-core
//!
//! The paper's subject matter: **extracting deltas from operational source
//! systems** for incremental data-warehouse maintenance.
//!
//! Four classical *value-delta* methods (§3):
//!
//! * [`timestamp`] — query rows by a `last_modified` column (file, table, or
//!   table + Export outputs; Tables 2–3);
//! * [`snapshot`] — differential snapshots, with sort-merge and windowed
//!   diff algorithms after Labio & Garcia-Molina (§3.1.2);
//! * [`trigger_extract`] — row-level capture triggers draining a delta table
//!   (Figure 2);
//! * [`logextract`] — archive-log extraction and log shipping (§3.1.4).
//!
//! And the paper's contribution (§4):
//!
//! * [`opdelta`] — **Op-Delta** capture: record the *operation* (the SQL
//!   statement, its transaction boundary, and — only when the
//!   self-maintainability analysis demands it — a partial before-image)
//!   right before it is submitted to the DBMS (Figure 3, Table 4);
//! * [`selfmaint`] — the analysis deciding when an Op-Delta alone suffices
//!   and when it must be augmented with before images;
//! * [`reconcile`] — reconciliation of deltas from replicated / distributed
//!   sources into one authoritative stream (§2.2);
//! * [`transform`] — the restriction/sub-setting/reshaping stage between
//!   extraction and transport (§5's flexibility argument);
//! * [`model`] — the delta data model shared by every method and by the
//!   transports and warehouse appliers.

/// Columnar wire codec for delta batches (the compact-ship-path format).
pub mod colcodec;
/// Anti-entropy range digests for audit-and-repair (DESIGN.md §14).
pub mod digest;
/// Unified [`Method`](extractor::Method) abstraction over the five extractors.
pub mod extractor;
/// Method 4: delta extraction from the redo/archive log.
pub mod logextract;
/// The delta data model: op-deltas, value-deltas, and their records.
pub mod model;
/// Op-Delta application and net-effect compression.
pub mod opdelta;
/// Cross-source reconciliation of conflicting deltas.
pub mod reconcile;
/// Self-maintainability analysis of warehouse view definitions.
pub mod selfmaint;
/// Method 1: snapshot differencing.
pub mod snapshot;
/// `CacheStats`, the counter struct the frozen dwbench harness names.
pub mod stmtcache;
/// Method 2: timestamp-column scans.
pub mod timestamp;
/// Column-level delta transforms applied in flight.
pub mod transform;
/// Method 3: trigger-captured delta tables.
pub mod trigger_extract;

pub use digest::{
    compare_digests, digest_snapshot, digest_table, filter_snapshot, DigestDiff, DigestParams,
    KeyRange, TableDigest,
};
pub use extractor::{
    DeltaSource, LogSource, Method, SnapshotSource, TimestampSource, TriggerSource,
};
pub use logextract::{LogExtractor, ResilientExtract, ResilientLogExtractor, StagedExtract};
pub use model::{DeltaBatch, DeltaOp, OpDelta, OpLogRecord, ValueDelta, ValueDeltaRecord};
pub use opdelta::{OpDeltaCapture, OpLogSink};
pub use selfmaint::{MaintRequirement, SelfMaintAnalyzer, WarehouseProfile};
pub use stmtcache::CacheStats;
pub use transform::{ColumnTransform, DeltaTransform};
