//! # delta-storage
//!
//! Storage substrate for the DeltaForge reproduction of *"Extracting Delta for
//! Incremental Data Warehouse Maintenance"* (Ram & Do, ICDE 2000).
//!
//! This crate provides the building blocks the mini-DBMS (`delta-engine`) is
//! assembled from:
//!
//! * [`value`] — dynamically typed column values and data types,
//! * [`schema`] — table schemas,
//! * [`record`] — the binary row codec (schema-directed),
//! * [`page`] — 8 KiB slotted pages,
//! * [`mod@file`] — page-granular disk files,
//! * [`buffer`] — a clock-eviction buffer pool with I/O statistics,
//! * [`heap`] — heap files (unordered row storage) on top of the buffer pool,
//! * [`codec`] — the ASCII dump format (consumed by the "DBMS Loader") and the
//!   proprietary, product/version-tagged binary Export format whose
//!   incompatibility across products the paper discusses in §3.
//!
//! Everything here is deliberately structured like the storage layer of a
//! classical disk-based RDBMS, because the experiments in the paper measure
//! costs (extra inserts, extra page I/O, WAL traffic) that only arise when the
//! real mechanisms are present.

pub mod buffer;
pub mod codec;
pub mod colbatch;
pub mod error;
pub mod fault;
pub mod file;
pub mod heap;
pub mod invariant;
pub mod page;
pub mod pressure;
pub mod record;
pub mod schema;
pub mod scrub;
pub mod value;

pub use buffer::{BufferPool, BufferPoolStats};
pub use colbatch::DeltaCodec;
pub use error::{IoOp, StorageError, StorageResult};
pub use fault::{FaultAction, FaultInjector, FaultPlan, FaultStats, ScheduledFault};
pub use file::{DiskFile, FileId, PageId, PAGE_SIZE};
pub use heap::{HeapFile, RecordId};
pub use page::SlottedPage;
pub use pressure::{Admission, BudgetStats, DiskBudget};
pub use record::{CheckedCell, EncodedRow, Row};
pub use schema::{Column, Schema};
pub use scrub::{scrub_page_file, PageCheck, PageScrubOutcome};
pub use value::{Cell, DataType, Value};
