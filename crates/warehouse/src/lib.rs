//! # delta-warehouse
//!
//! The receiving end of Figure 1: a warehouse database holding **mirrors** of
//! source tables (full or column-projected) and **materialized views** over
//! them — select-project-join or grouped aggregates — maintained
//! incrementally from shipped deltas.
//!
//! Two maintenance strategies, the comparison at the heart of §4.1:
//!
//! * [`apply::ValueDeltaApplier`] — value deltas lost their source
//!   transaction context, so the batch "needs to be applied as an
//!   indivisible batch": one warehouse transaction holds exclusive locks for
//!   the whole batch (the maintenance outage), and every delta record
//!   becomes its own SQL statement (x deletes + x inserts for an update of
//!   x rows). This is the paper's translation, kept as the reference the
//!   experiments measure; [`direct::DirectValueApplier`] applies the same
//!   run under the same outage by key, without SQL, and is what
//!   [`pipeline::Pipeline::sync`] runs.
//! * [`apply::OpDeltaApplier`] — each Op-Delta is replayed as a
//!   self-contained warehouse transaction matching the source transaction
//!   boundary; locks are held only per transaction, so OLAP queries
//!   interleave and no outage is required.
//!
//! Supporting pieces: [`mirror`] (mirror management and statement rewriting
//! for projected mirrors, including the §4.1 hybrid before-image path),
//! [`view`] (the one view engine: either definition compiles to a plan that
//! [`view::View::apply_stream`] folds signed row images through), [`olap`] (a concurrent query driver measuring blocking —
//! Experiment C), and [`pipeline`] (the end-to-end extract → ship → apply
//! loop).

pub mod apply;
pub mod audit;
pub mod direct;
pub mod mirror;
pub mod olap;
pub mod pipeline;
mod sched;
pub mod view;
pub mod watchdog;

pub use apply::{
    AppliedMark, AppliedState, ApplyReport, OpDeltaApplier, ValueDeltaApplier, Warehouse,
};
pub use audit::{audit_and_repair, AuditConfig, AuditReport, TableAudit};
pub use direct::DirectValueApplier;
pub use mirror::MirrorConfig;
pub use olap::{OlapDriver, OlapStats};
pub use pipeline::{
    Pipeline, QuarantinedDelta, RetryPolicy, ShipReport, SyncReport, DEFAULT_SYNC_BATCH,
};
pub use view::{AggSpec, AggViewDef, JoinCond, SpjView, View, ViewDef};
pub use watchdog::{StallInjector, StallPlan};
