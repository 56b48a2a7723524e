//! # DeltaForge
//!
//! A reproduction of *"Extracting Delta for Incremental Data Warehouse
//! Maintenance"* (Prabhu Ram and Lyman Do, ICDE 2000): delta-extraction
//! methods for operational source systems — timestamps, differential
//! snapshots, triggers, archive-log extraction — and the paper's
//! contribution, **Op-Delta**, which captures the *operations* that caused
//! the changes instead of the changed values.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`storage`] — slotted pages, buffer pool, heap files, dump codecs;
//! * [`sql`] — the SQL dialect and the Op-Delta wire format;
//! * [`engine`] — the source-system DBMS substrate (WAL + archive logs,
//!   triggers, indexes, Export/Import/Loader utilities);
//! * [`core`] — the delta model, the four classical extractors, Op-Delta
//!   capture, reconciliation, and the self-maintainability analyser;
//! * [`transport`] — file/queue transports and the virtual-time network
//!   simulator;
//! * [`warehouse`] — mirrors, materialized views (SPJ and aggregate
//!   definitions, one maintenance engine) and the two maintenance
//!   strategies (batch value-delta vs concurrent Op-Delta).
//!
//! See `examples/quickstart.rs` for an end-to-end tour and `DESIGN.md` for
//! the experiment map.

pub use delta_core as core;
pub use delta_engine as engine;
pub use delta_sql as sql;
pub use delta_storage as storage;
pub use delta_transport as transport;
pub use delta_warehouse as warehouse;
