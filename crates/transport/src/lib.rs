//! # delta-transport
//!
//! Moving extracted deltas from source systems to the warehouse (or a
//! staging area) — the middle of Figure 1's reference architecture. The
//! paper names ftp-style file movement, persistent queues, and fault-tolerant
//! logs as the options, with the choice driven by transaction guarantees:
//!
//! * [`mod@file`] — file shipping with checksummed manifests (the ftp analogue);
//! * [`queue`] — a durable at-least-once queue with consumer acknowledgements
//!   (the persistent-queue analogue), with optional disk budgets and a
//!   producer-side backpressure signal;
//! * [`compact`] — prefix compaction for the queue's spool (drop fully-acked
//!   frames, atomically, preserving absolute message indices);
//! * [`netsim`] — a deterministic **virtual-time network simulator** used to
//!   reproduce the §3.1.3 remote-write findings (the 10 Mb/s switched LAN,
//!   connection-establishment penalties, per-row round trips) without real
//!   hardware. See DESIGN.md §2 for the substitution rationale.

pub mod compact;
pub mod file;
pub mod netsim;
pub mod queue;

pub use compact::CompactStats;
pub use file::FileTransport;
pub use netsim::{
    LinkProfile, NetFault, NetFaultPlan, NetFaultSim, NetFaultStats, SimulatedConnection,
    TransferStats, VirtualClock,
};
pub use queue::{PersistentQueue, SpoolPressure, PRESSURE_NEAR_BYTES};
