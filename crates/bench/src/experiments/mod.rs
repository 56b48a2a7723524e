//! One module per reproduced artifact. See DESIGN.md §4 for the experiment
//! index and the expected shapes.

pub mod ablations;
pub mod expa;
pub mod expb;
pub mod expc;
pub mod expg;
pub mod expp;
pub mod expr;
pub mod expr_pressure;
pub mod expv;
pub mod expw;
pub mod fig2;
pub mod fig3;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use crate::report::TableReport;
use crate::workload::Scale;

/// Every experiment, by id.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "table1",
        "table2",
        "table3",
        "fig2",
        "fig3",
        "table4",
        "expw",
        "expv",
        "expr",
        "expc",
        "expg_group_commit",
        "expg_sync",
        "expa_audit_repair",
        "expb_scan_scaling",
        "expp_parallel_sync",
        "expr_pressure",
        "ablation_wal",
        "ablation_ts_index",
        "ablation_snapshot",
        "ablation_hybrid",
    ]
}

/// Run one experiment by id.
pub fn run(id: &str, scale: &Scale) -> Option<TableReport> {
    Some(match id {
        "table1" => table1::run(scale),
        "table2" => table2::run(scale),
        "table3" => table3::run(scale),
        "fig2" => fig2::run(scale),
        "fig3" => fig3::run(scale),
        "table4" => table4::run(scale),
        "expw" => expw::run(scale),
        "expv" => expv::run(scale),
        "expr" => expr::run(scale),
        "expc" => expc::run(scale),
        "expg_group_commit" => expg::group_commit(scale),
        "expg_sync" => expg::sync_batched(scale),
        "expa_audit_repair" => expa::run(scale),
        "expb_scan_scaling" => expb::run(scale),
        "expp_parallel_sync" => expp::run(scale),
        "expr_pressure" => expr_pressure::run(scale),
        "ablation_wal" => ablations::wal_sync(scale),
        "ablation_ts_index" => ablations::ts_index(scale),
        "ablation_snapshot" => ablations::snapshot_algorithms(scale),
        "ablation_hybrid" => ablations::hybrid_capture(scale),
        _ => return None,
    })
}
