//! Runs one workload: set-ups (each with a warm-up repetition), measured
//! repetitions until the time budget is spent, the correctness gate after
//! every repetition, and the reduction of the samples to the named metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::calib::Reference;
use crate::harness::{self as h, Counters, Rep, Res};
use crate::json::Json;
use crate::registry::{self, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{self, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured repetitions, however short the time budget.
const MIN_REPETITIONS: usize = 5;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Measuring time; repetitions start until it is spent.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// About 1 % of the input sizes (for the in-binary test).
    pub quick: bool,
    /// Keep the scratch data.
    pub keep: bool,
    /// Where a traced run writes `trace-<workload>.json`.
    pub trace_dir: PathBuf,
}

/// What one run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else worth recording: provenance, sizes, sample counts.
    pub detail: Json,
    pub errors: Vec<String>,
}

impl Outcome {
    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric with its value and unit.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, value)| {
            let unit = registry::lookup(name).map_or("", |d| d.unit);
            (
                *name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .encode()
    }
}

/// Build output directory: the driver points `CARGO_TARGET_DIR` at its own,
/// otherwise cargo's default. Relative to the working directory, so all
/// scratch data stays inside the checkout.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The fixed options and the machine, recorded with every result.
fn provenance(cfg: &Config) -> Vec<(&'static str, Json)> {
    vec![
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("quick", Json::Bool(cfg.quick)),
        ("traced", Json::Bool(cfg.trace)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("page_size", Json::Num(delta_storage::PAGE_SIZE as f64)),
        ("wal_sync", Json::str("Flush")),
        ("wal_group_commit", Json::Bool(true)),
        ("codec", Json::str(format!("{:?}", h::CODEC))),
        ("sync_workers", Json::Num(h::SYNC_WORKERS as f64)),
        ("sync_batch", Json::Num(h::SYNC_BATCH as f64)),
        ("retry_attempts", Json::Num(h::RETRY_ATTEMPTS as f64)),
        ("lock_timeout_s", Json::Num(h::LOCK_TIMEOUT.as_secs_f64())),
        ("git_head", Json::str(git_head())),
    ]
}

struct Measured {
    rep: Rep,
    /// The speed factor of this repetition: the mean of the reference
    /// readings right before and right after it (1 without a reference).
    factor: f64,
    traced: bool,
    layers: Option<BTreeMap<&'static str, f64>>,
}

/// One repetition plus its gate, with counters read around the repetition
/// and, given `speed`, the speed reference read right before and after it.
fn measure(
    w: &mut dyn Workload,
    traced: bool,
    keep_spans: &mut Tracer,
    speed: Option<&mut Reference>,
) -> Res<Measured> {
    let mut tr = Tracer::new(traced);
    let mut rep = Rep::default();
    let before = Counters::read(w.site());
    let mut factor = 1.0;
    if let Some(speed) = speed {
        let ahead = speed.read();
        w.repetition(&mut tr, &mut rep)?;
        factor = (ahead + speed.read()) / 2.0;
    } else {
        w.repetition(&mut tr, &mut rep)?;
    }
    let after = Counters::read(w.site());
    let tables = w.tables().to_vec();
    h::gate(w.site(), &tables, &mut rep)?;
    let layers = traced.then(|| h::layer_metrics(&tr, &rep, &before, &after, w.site(), &tables));
    if traced {
        *keep_spans = tr;
    }
    Ok(Measured {
        rep,
        factor,
        traced,
        layers,
    })
}

/// A time of which a wall-clock schedule fixed `scheduled`, at reference
/// speed: only the part the machine's speed decides is scaled.
fn at_reference_speed(time: f64, scheduled: f64, factor: f64) -> f64 {
    scheduled + (time - scheduled) / factor
}

/// Whether `behind` of `total` measured repetitions falling behind the
/// open-loop writer is more than a disturbance explains.
fn too_many_fell_behind(behind: usize, total: usize) -> bool {
    behind * 4 > total
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// One value per untraced repetition, given the repetition and its speed
/// factor.
fn per_rep(reps: &[(&Rep, f64)], f: impl Fn(&Rep, f64) -> f64) -> Vec<f64> {
    reps.iter().map(|(r, factor)| f(r, *factor)).collect()
}

/// Run `cfg.workload` with all scratch data under `scratch`.
pub fn run_workload(cfg: &Config, scratch: &Path) -> Res<Outcome> {
    if !registry::WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (known: {})",
            cfg.workload,
            registry::WORKLOADS.join(", ")
        ));
    }
    let run_started = Instant::now();
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0, 0);

    // Set up several times; each set-up seeds the source, bootstraps the
    // warehouse and runs one warm-up repetition. The last one is measured.
    let setups = if cfg.quick { 1 } else { SETUPS };
    let mut speed = Reference::new(!cfg.quick);
    let mut setup_s = Vec::new();
    let mut unused_spans = Tracer::new(false);
    let mut workload: Option<Box<dyn Workload>> = None;
    for i in 0..setups {
        // Close the previous set-up's databases before removing its files.
        if workload.take().is_some() && !cfg.keep {
            let _ = std::fs::remove_dir_all(scratch.join(format!("setup-{}", i - 1)));
        }
        let ahead = speed.read();
        let started = Instant::now();
        let dir = scratch.join(format!("setup-{i}"));
        let mut w = workloads::setup(&cfg.workload, &dir, cfg.seed, cfg.quick)?;
        let warm = measure(w.as_mut(), false, &mut unused_spans, None)?;
        let wall = started.elapsed().as_secs_f64();
        let factor = (ahead + speed.read()) / 2.0;
        setup_s.push(at_reference_speed(wall, warm.rep.scheduled_s, factor));
        attempted += warm.rep.attempted;
        failed += warm.rep.failed;
        errors.extend(warm.rep.gate_errors);
        workload = Some(w);
    }
    let Some(mut w) = workload else {
        return Err("no set-up ran".into());
    };

    // Measured repetitions. A traced run alternates untraced and traced
    // repetitions, so tracing overhead is the difference between the two.
    let measure_started = Instant::now();
    let mut spans = Tracer::new(false);
    let mut measured: Vec<Measured> = Vec::new();
    let min_reps = if cfg.quick { 2 } else { MIN_REPETITIONS };
    while measured.len() < min_reps || measure_started.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && measured.len() % 2 == 1;
        let m = measure(w.as_mut(), traced, &mut spans, Some(&mut speed))?;
        attempted += m.rep.attempted;
        failed += m.rep.failed;
        errors.extend(m.rep.gate_errors.iter().cloned());
        measured.push(m);
    }
    let measured_s = measure_started.elapsed().as_secs_f64();

    // A repetition in which the open loop fell behind its writer measured a
    // disturbance half a second long, or a pipeline too slow for the rate;
    // its latencies are those of a backlog, not of the system at this rate.
    // One in four may be set aside; beyond that the pipeline does not keep
    // up, and every write of those repetitions is a failed operation.
    let behind: Vec<&Measured> = measured
        .iter()
        .filter(|m| m.rep.fell_behind.is_some())
        .collect();
    let set_aside = behind.len();
    if too_many_fell_behind(set_aside, measured.len()) {
        for m in &behind {
            failed += m.rep.fresh_ms.len() as u64;
            errors.extend(m.rep.fell_behind.clone());
        }
    }
    measured.retain(|m| m.rep.fell_behind.is_none());
    if measured.is_empty() {
        return Err(format!("every repetition fell behind: {errors:?}"));
    }

    let untraced: Vec<(&Rep, f64)> = measured
        .iter()
        .filter(|m| !m.traced)
        .map(|m| (&m.rep, m.factor))
        .collect();
    let count = |f: fn(&Rep) -> &Vec<f64>| untraced.iter().map(|(r, _)| f(r).len()).sum::<usize>();
    let (txns, freshs, olaps) = (
        count(|r| &r.txn_us),
        count(|r| &r.fresh_ms),
        count(|r| &r.olap_ms),
    );
    let mut samples: Vec<(&'static str, usize)> = vec![
        ("setup_s", setup_s.len()),
        ("repetitions", untraced.len()),
        ("repetitions_set_aside", set_aside),
        ("source_txn", txns),
        ("freshness", freshs),
        ("olap_query", olaps),
    ];

    // Every user-facing metric this workload produced, from the untraced
    // repetitions: one value per repetition (a latency percentile is the
    // percentile of that repetition's samples), then the median across them.
    // The end-to-end ones go to the result line, the ones only this workload
    // owns to the detail line. Times are taken at reference speed, each
    // repetition's by its own factor.
    samples.push(("speed_reference", speed.readings().len()));
    let all_readings = speed.readings().to_vec();
    let speed = speed.factor();
    let pct = |f: fn(&Rep) -> &Vec<f64>, p: f64| {
        per_rep(&untraced, |r, factor| stats::percentile(f(r), p) / factor)
    };
    // Of a freshness sample only the part no schedule fixed is scaled.
    let fresh = |p: f64| {
        per_rep(&untraced, |r, factor| {
            let at_reference: Vec<f64> = r
                .fresh_ms
                .iter()
                .enumerate()
                .map(|(i, ms)| {
                    let scheduled = r.fresh_scheduled_ms.get(i).copied().unwrap_or(0.0);
                    at_reference_speed(*ms, scheduled, factor)
                })
                .collect();
            stats::percentile(&at_reference, p)
        })
    };
    let series: BTreeMap<&'static str, Vec<f64>> = BTreeMap::from([
        (
            "e2e_rows_per_s",
            per_rep(&untraced, |r, factor| {
                r.rows as f64 / at_reference_speed(r.round_s, r.scheduled_s, factor)
            }),
        ),
        ("source_txn_p50_us", pct(|r| &r.txn_us, 50.0)),
        ("source_txn_p95_us", pct(|r| &r.txn_us, 95.0)),
        ("source_txn_p99_us", pct(|r| &r.txn_us, 99.0)),
        ("freshness_p50_ms", fresh(50.0)),
        ("freshness_p95_ms", fresh(95.0)),
        ("olap_query_p50_ms", pct(|r| &r.olap_ms, 50.0)),
        ("olap_query_p95_ms", pct(|r| &r.olap_ms, 95.0)),
        (
            "shipped_bytes_per_row",
            per_rep(&untraced, |r, _| {
                r.shipped_bytes as f64 / r.rows.max(1) as f64
            }),
        ),
        (
            "audit_s",
            per_rep(&untraced, |r, factor| r.audit_s / factor),
        ),
    ]);
    let mut user: BTreeMap<&'static str, f64> = series
        .iter()
        .map(|(name, values)| (*name, stats::median(values)))
        .collect();
    user.insert("setup_s", stats::median(&setup_s));
    user.insert("gen.speed_factor", speed);
    user.insert("peak_rss_mb", peak_rss_mb());
    let owned: Vec<(&'static str, Json)> = registry::user_metrics(&cfg.workload)
        .skip(END_TO_END.len())
        .map(|d| (d.name, Json::Num(user[d.name])))
        .collect();

    let metrics: BTreeMap<&'static str, f64> = if cfg.trace {
        let layered: Vec<&BTreeMap<&'static str, f64>> =
            measured.iter().filter_map(|m| m.layers.as_ref()).collect();
        samples.push(("traced_repetitions", layered.len()));
        let round = |traced: bool| {
            stats::median(
                &measured
                    .iter()
                    .filter(|m| m.traced == traced)
                    .map(|m| m.rep.round_s / m.rep.rounds.max(1) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        PER_LAYER
            .iter()
            .map(|d| {
                let value = if d.name == "trace.overhead_share" {
                    round(true) / round(false) - 1.0
                } else if let Some(v) = user.get(d.name) {
                    // User-facing: from the untraced repetitions, at
                    // reference speed, as in an untraced run.
                    *v
                } else {
                    stats::median(
                        &layered
                            .iter()
                            .map(|l| l.get(d.name).copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    )
                };
                (d.name, value)
            })
            .collect()
    } else {
        END_TO_END.iter().map(|d| (d.name, user[d.name])).collect()
    };

    // The metric set is fixed by the registry; anything else is a bug here.
    let mut expected: Vec<&str> = if cfg.trace { PER_LAYER } else { END_TO_END }
        .iter()
        .map(|d| d.name)
        .collect();
    expected.sort_unstable();
    let produced: Vec<&str> = metrics.keys().copied().collect();
    if produced != expected {
        return Err(format!(
            "metric set differs from the registry: produced {produced:?}, expected {expected:?}"
        ));
    }

    if cfg.trace {
        let path = cfg.trace_dir.join(format!("trace-{}.json", cfg.workload));
        std::fs::create_dir_all(&cfg.trace_dir)
            .and_then(|()| {
                std::fs::write(&path, trace::to_json(&cfg.workload, spans.spans()).encode())
            })
            .map_err(h::ctx("write span file"))?;
    }

    let tail_support =
        |n: usize| stats::highest_supported_percentile(n).map_or(Json::Null, Json::Num);
    let mut detail = provenance(cfg);
    detail.extend([
        ("workload", Json::str(&cfg.workload)),
        ("owned_metrics", Json::obj(owned)),
        (
            "sizes",
            Json::obj(w.sizes().into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        (
            "samples",
            Json::obj(samples.iter().map(|(k, n)| (*k, Json::Num(*n as f64)))),
        ),
        (
            "highest_supported_percentile",
            Json::obj([
                ("source_txn", tail_support(txns)),
                ("freshness", tail_support(freshs)),
                ("olap_query", tail_support(olaps)),
            ]),
        ),
        ("setup_s_each", nums(&setup_s)),
        ("speed_factor", Json::Num(speed)),
        (
            "speed_factor_each",
            nums(&per_rep(&untraced, |_, factor| factor)),
        ),
        ("speed_reference_s_each", nums(&all_readings)),
        (
            "per_repetition",
            Json::obj(
                series
                    .iter()
                    .filter(|(name, _)| user[*name] != 0.0)
                    .map(|(name, v)| (*name, nums(v))),
            ),
        ),
        ("measured_s", Json::Num(measured_s)),
        ("total_s", Json::Num(run_started.elapsed().as_secs_f64())),
        (
            "failed_ops_share",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "errors",
            Json::Arr(errors.iter().take(20).map(Json::str).collect()),
        ),
    ]);

    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail: Json::obj(detail),
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_repetition_in_four_may_fall_behind() {
        assert!(!too_many_fell_behind(0, 5));
        assert!(!too_many_fell_behind(1, 5));
        assert!(too_many_fell_behind(2, 5));
        assert!(!too_many_fell_behind(3, 12));
        assert!(too_many_fell_behind(4, 12));
    }

    /// `--quick` run of every workload, untraced and traced: every metric
    /// and workload name declared in `BENCHMARK.json` appears in the output
    /// and nothing else does, and the gate passes.
    #[test]
    fn quick_run_of_all_workloads_reports_exactly_the_declared_metrics() {
        let doc = registry::validate().expect("registry matches BENCHMARK.json");
        let declared = |key: &str| -> Vec<String> {
            let mut names: Vec<String> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect();
            names.sort();
            names
        };
        let scratch = std::env::temp_dir().join(format!("dwbench-quick-{}", std::process::id()));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, registry::WORKLOADS);
        for workload in &workloads {
            for trace in [false, true] {
                let cfg = Config {
                    workload: workload.clone(),
                    seed: 42,
                    seconds: 0.0,
                    trace,
                    quick: true,
                    keep: false,
                    trace_dir: scratch.clone(),
                };
                let dir = scratch.join(format!("{workload}-{trace}"));
                let out = run_workload(&cfg, &dir)
                    .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
                assert!(out.correct, "{workload}: gate failed: {:?}", out.errors);
                assert_eq!(out.failed, 0);
                assert!(out.attempted >= 1);
                let line = Json::parse(&out.result_line()).expect("result line is JSON");
                let mut keys: Vec<&String> = line.as_obj().expect("object").keys().collect();
                keys.sort();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                let reported: Vec<String> = line
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .expect("metrics")
                    .keys()
                    .cloned()
                    .collect();
                assert_eq!(
                    reported,
                    declared(if trace { "per_layer" } else { "end_to_end" }),
                    "{workload} (trace {trace})"
                );
                if !trace {
                    for (name, value) in &out.metrics {
                        assert!(*value > 0.0, "{workload}: {name} = {value} must never be 0");
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
