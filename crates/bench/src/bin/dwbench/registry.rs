//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics, with units and directions. `BENCHMARK.json` at the repository
//! root declares the same names for the driver; [`validate`] checks at
//! start-up that the two agree exactly, so neither can drift.

use crate::json::Json;

/// The driver's declaration, compiled in so the check needs no working
/// directory.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const WORKLOADS: [&str; 4] = ["value_stream", "op_bulk", "olap_mixed", "snapshot_audit"];

/// What a user of the system sees, on every workload: the driver wants every
/// end-to-end metric from every workload and none ever zero, so this list
/// holds the ones all four produce in the course of their own work.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("e2e_rows_per_s", "rows/s"),
    lower("source_txn_p50_us", "us"),
    lower("freshness_p50_ms", "ms"),
    lower("freshness_p95_ms", "ms"),
    lower("shipped_bytes_per_row", "B/row"),
];

/// User-facing metrics that only some workloads produce, or that do not
/// repeat well enough to carry a bound (`peak_rss_mb`, `source_txn_p95_us`),
/// with the workloads that report them. For the driver they are per-layer
/// metrics (no bound; zero where a workload has no such operation). An `--all` document lists them with
/// the workload's end-to-end metrics, and `compare` judges them against
/// [`INFORMATIONAL_BOUND`] without letting them decide its exit code.
pub const OWNED: &[(&str, &[&str])] = &[
    ("peak_rss_mb", &WORKLOADS),
    ("source_txn_p95_us", &WORKLOADS),
    ("source_txn_p99_us", &["value_stream", "olap_mixed"]),
    ("olap_query_p50_ms", &["olap_mixed"]),
    ("olap_query_p95_ms", &["olap_mixed"]),
    ("audit_s", &["snapshot_audit"]),
];

/// The bound `compare` holds the [`OWNED`] metrics to.
pub const INFORMATIONAL_BOUND: f64 = 0.10;

/// The user-facing metrics `workload` reports: every end-to-end metric, then
/// the ones it owns.
pub fn user_metrics(workload: &str) -> impl Iterator<Item = &'static MetricDef> + '_ {
    END_TO_END.iter().chain(
        OWNED
            .iter()
            .filter(move |(_, ws)| ws.contains(&workload))
            .filter_map(|(name, _)| lookup(name)),
    )
}

/// Single layers (layer = crate), measured from outside; values are per
/// traced repetition (median across repetitions). Informational: no bounds.
pub const PER_LAYER: &[MetricDef] = &[
    lower("sql.parse_us_per_stmt", "us"),
    lower("sql.stmts_parsed", "count"),
    lower("engine.exec_s", "s"),
    lower("engine.stmts", "count"),
    lower("engine.wal_batches", "count"),
    lower("engine.wal_entries", "count"),
    lower("engine.wal_groups", "count"),
    lower("engine.wal_bytes_per_row", "B/row"),
    lower("engine.checkpoint_s", "s"),
    lower("engine.checkpoints", "count"),
    higher("storage.src_pool_hit_rate", "ratio"),
    lower("storage.src_pool_misses", "count"),
    lower("storage.src_pool_evictions", "count"),
    lower("storage.src_pool_writebacks", "count"),
    higher("storage.wh_pool_hit_rate", "ratio"),
    lower("storage.wh_pool_misses", "count"),
    lower("storage.wh_pool_evictions", "count"),
    lower("storage.wh_pool_writebacks", "count"),
    lower("storage.wh_pool_misses_per_row", "1/row"),
    lower("storage.snapshot_write_s", "s"),
    lower("storage.snapshot_bytes", "B"),
    lower("storage.wh_bytes_per_row", "B/row"),
    lower("core.capture_s", "s"),
    lower("core.hybrid_ops", "count"),
    lower("core.extract_s", "s"),
    lower("core.extract_records", "count"),
    lower("core.extract_rounds", "count"),
    lower("core.collect_op_s", "s"),
    lower("core.encode_s", "s"),
    lower("core.encode_bytes", "B"),
    lower("core.decode_s", "s"),
    lower("core.snapshot_diff_s", "s"),
    lower("core.diff_records", "count"),
    lower("core.digest_s", "s"),
    lower("core.digest_bytes", "B"),
    lower("transport.enqueue_s", "s"),
    lower("transport.enqueue_frames", "count"),
    lower("transport.spool_bytes", "B"),
    lower("transport.dequeue_decode_s", "s"),
    lower("transport.ack_s", "s"),
    lower("transport.compact_s", "s"),
    higher("transport.compact_reclaimed_bytes", "B"),
    lower("warehouse.sync_s", "s"),
    higher("warehouse.sync_rows_per_s", "rows/s"),
    lower("warehouse.apply_s", "s"),
    higher("warehouse.worker_busy_share", "ratio"),
    higher("warehouse.workers_used", "count"),
    lower("warehouse.runs", "count"),
    lower("warehouse.batches", "count"),
    lower("warehouse.txns", "count"),
    lower("warehouse.stmts", "count"),
    lower("warehouse.rows_affected", "count"),
    lower("warehouse.view_rows_touched", "count"),
    lower("warehouse.deduped", "count"),
    lower("warehouse.retries", "count"),
    lower("warehouse.quarantined", "count"),
    lower("warehouse.stalls", "count"),
    higher("warehouse.stmt_cache_hit_rate", "ratio"),
    higher("warehouse.rewrite_cache_hit_rate", "ratio"),
    lower("warehouse.audit_digest_bytes", "B"),
    lower("warehouse.audit_repair_bytes", "B"),
    lower("warehouse.audit_ranges", "count"),
    lower("warehouse.olap_timeouts", "count"),
    lower("gen.lateness_p95_ms", "ms"),
    lower("gen.backlog_end_batches", "count"),
    lower("gen.speed_factor", "ratio"),
    lower("trace.overhead_share", "ratio"),
    higher("trace.self_time_coverage", "ratio"),
    lower("trace.ship_share", "ratio"),
    lower("trace.sql_replay_share", "ratio"),
    // User-facing, but not end-to-end for the driver: see `OWNED`, and a
    // share that must be 0 cannot carry a bound.
    lower("peak_rss_mb", "MiB"),
    lower("source_txn_p95_us", "us"),
    lower("source_txn_p99_us", "us"),
    lower("olap_query_p50_ms", "ms"),
    lower("olap_query_p95_ms", "ms"),
    lower("audit_s", "s"),
    lower("failed_ops_share", "ratio"),
];

fn well_formed(name: &str, extra: &str, max: usize) -> bool {
    name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn check_names(defs: &[MetricDef], limit: usize, what: &str) -> Result<(), String> {
    if defs.is_empty() || defs.len() > limit {
        return Err(format!("{} {what} metrics, limit is {limit}", defs.len()));
    }
    for d in defs {
        if !well_formed(d.name, "_.-", 64) {
            return Err(format!("malformed {what} metric name '{}'", d.name));
        }
        if !well_formed(d.unit, "_/%.-", 16) {
            return Err(format!("malformed unit '{}' of '{}'", d.unit, d.name));
        }
    }
    Ok(())
}

/// `(name, unit, better)` triples of one metric list of the declaration.
fn declared(doc: &Json, key: &str) -> Result<Vec<(String, String, String)>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no '{key}' list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a '{key}' entry lacks '{f}'"))
            };
            Ok((field("name")?, field("unit")?, field("better")?))
        })
        .collect()
}

fn agree(defs: &[MetricDef], decl: &[(String, String, String)], what: &str) -> Result<(), String> {
    let ours: Vec<(String, String, String)> = defs
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
        .collect();
    if ours != decl {
        let missing: Vec<_> = ours.iter().filter(|o| !decl.contains(o)).collect();
        let extra: Vec<_> = decl.iter().filter(|d| !ours.contains(d)).collect();
        return Err(format!(
            "{what} metrics of BENCHMARK.json and the built-in registry differ \
             (only in registry: {missing:?}; only in BENCHMARK.json: {extra:?}; \
             order must match too)"
        ));
    }
    Ok(())
}

/// Start-up check: names are well formed and unique, the lists fit the
/// contract's limits, and `BENCHMARK.json` declares exactly this registry.
pub fn validate() -> Result<Json, String> {
    for w in WORKLOADS {
        if !well_formed(w, "_.-", 64) {
            return Err(format!("malformed workload name '{w}'"));
        }
    }
    check_names(END_TO_END, 16, "end-to-end")?;
    check_names(PER_LAYER, 128, "per-layer")?;
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| d.name)
        .chain(WORKLOADS)
        .collect();
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("name '{}' is used twice", w[0]));
    }

    for (name, workloads) in OWNED {
        if !PER_LAYER.iter().any(|d| d.name == *name) {
            return Err(format!("owned metric '{name}' is not a per-layer metric"));
        }
        if let Some(w) = workloads.iter().find(|w| !WORKLOADS.contains(w)) {
            return Err(format!(
                "owned metric '{name}' names unknown workload '{w}'"
            ));
        }
    }

    let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no 'workloads' list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if workloads != WORKLOADS {
        return Err(format!(
            "workloads of BENCHMARK.json {workloads:?} and the registry {WORKLOADS:?} differ"
        ));
    }
    agree(END_TO_END, &declared(&doc, "end_to_end")?, "end-to-end")?;
    agree(PER_LAYER, &declared(&doc, "per_layer")?, "per-layer")?;
    Ok(doc)
}

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
pub fn bound_of(doc: &Json, metric: &str) -> Option<f64> {
    doc.get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}

/// `run_seconds` of the declaration: the default measuring time.
pub fn run_seconds(doc: &Json) -> f64 {
    doc.get("run_seconds")
        .and_then(Json::as_f64)
        .unwrap_or(10.0)
}

/// The built-in definition of a metric from either list.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_and_benchmark_json_agree() {
        let doc = validate().expect("registry must match BENCHMARK.json");
        // A bound is three times the widest ten-seed spread seen (README,
        // "Repeatability"); the driver's ceiling is a quarter, `setup_s` has
        // it ("give it the largest bound"), and a metric that would need more
        // is per-layer.
        let setup = bound_of(&doc, "setup_s").expect("setup_s has a bound");
        for d in END_TO_END {
            let b = bound_of(&doc, d.name).expect("every end-to-end metric has a bound");
            assert!(
                b > 0.0 && b <= setup && setup <= 0.25,
                "{}: bound {b}",
                d.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    /// The lines of table `[header]` in a manifest, comments and blanks
    /// dropped, up to the next table.
    fn table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The driver builds dwbench from `standalone/Cargo.toml`, the tests run
    /// it as a binary of `delta-bench`: both must compile the same thing.
    #[test]
    fn the_standalone_manifest_matches_the_workspace() {
        let standalone = include_str!("standalone/Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        assert_eq!(
            table(standalone, "[profile.release]"),
            table(root, "[profile.release]"),
            "release profiles differ"
        );
        let names = |lines: Vec<&str>| -> Vec<String> {
            lines
                .iter()
                .filter_map(|l| l.split(['.', ' ', '=']).next())
                .map(str::to_string)
                .collect()
        };
        assert_eq!(
            names(table(standalone, "[dependencies]")),
            names(table(bench, "[dependencies]")),
            "dependency lists differ"
        );
    }

    #[test]
    fn name_rules() {
        assert!(well_formed("sql.parse_us_per_stmt", "_.-", 64));
        assert!(well_formed("rows/s", "_/%.-", 16));
        assert!(!well_formed("rows per s", "_/%.-", 16));
        assert!(!well_formed("", "_.-", 64));
        assert!(!well_formed(".hidden", "_.-", 64));
        assert!(!well_formed(&"x".repeat(65), "_.-", 64));
        assert!(check_names(&[lower("a b", "s")], 16, "test").is_err());
        assert!(check_names(&[lower("a", "µs")], 16, "test").is_err());
    }
}
