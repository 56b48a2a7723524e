//! # delta-engine
//!
//! The operational source-system substrate: a small disk-based relational
//! DBMS with exactly the mechanisms the paper's experiments measure.
//!
//! * [`wal`] — redo write-ahead log with segment rotation, checkpoints, and
//!   **archive mode** (§3, method 4: archived redo logs are the input to
//!   log-based delta extraction).
//! * [`lock`] — table-level shared/exclusive locks with timeouts.
//! * [`txn`] — transactions with in-memory undo (rollback) and WAL buffering.
//! * [`catalog`] — persistent table metadata.
//! * [`index`] — ordered secondary indexes plus unique primary-key indexes
//!   (rebuilt at open; maintained by DML).
//! * [`trigger`] — the capture trigger: after each row change the executor
//!   writes its images into a delta table **inside the triggering
//!   transaction**, the property responsible for the overheads of Figure 2.
//! * [`exec`] / [`session`] — the SQL executor and session API. The session's
//!   `execute` is the seam where Op-Delta capture wraps the engine ("right
//!   before it is submitted to the DBMS", §4.2).
//! * [`util`] — the Export / Import / ASCII-Loader / ASCII-dump utilities of
//!   Table 1, with their characteristic cost asymmetries (Import re-inserts
//!   through the buffer pool and WAL; the Loader packs pages directly).
//!
//! The engine uses a deterministic logical clock (`Database::now_micros`), so
//! timestamp-based extraction and `NOW()` behave reproducibly in tests and
//! benchmarks.

/// Table catalog: schemas, options, and on-disk metadata.
pub mod catalog;
/// The database facade: transactions, DDL/DML entry points, checkpoints.
pub mod db;
/// Engine error type.
pub mod error;
/// SQL executor over heaps and indexes.
pub mod exec;
/// In-memory secondary indexes.
pub mod index;
/// Table-level two-phase locking with deadlock detection.
pub mod lock;
/// Online scrubbing of heap pages and archived WAL segments.
pub mod scrub;
/// Session state for the SQL front end.
pub mod session;
/// The capture trigger (the paper's method 3 capture mechanism).
pub mod trigger;
/// Transaction bookkeeping.
pub mod txn;
/// Small shared helpers.
pub mod util;
/// Redo write-ahead log with segment rotation and archive mode.
pub mod wal;

pub use catalog::{TableMeta, TableOptions};
pub use db::{Database, DbOptions, SyncMode};
pub use error::{EngineError, EngineResult};
pub use exec::QueryResult;
pub use scrub::{scrub_database, ScrubReport};
pub use session::Session;
pub use trigger::TriggerDef;
pub use txn::TxnId;
pub use wal::{LogRecord, Lsn};
