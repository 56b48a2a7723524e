//! `dwbench compare <a.json> <b.json>`: the referee between two `--all`
//! result documents (A = base, B = candidate).
//!
//! One row per (user-facing metric, workload): both medians with their
//! quartiles, the ratio B/A with its base, the bound `BENCHMARK.json` fixes,
//! and a verdict. A metric only some workloads own has no bound there; it is
//! judged against a fixed one, for information. `unresolved` means the
//! run-to-run spread of either side is wider than the bound, so a difference
//! of that size cannot be told from noise. Exits non-zero on any regression or on a higher `failed_ops_share`.

use crate::json::Json;
use crate::registry::{self, Better, WORKLOADS};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range over the median; 0 when a side has a single run.
fn spread(values: &[f64]) -> f64 {
    let median = stats::median(values);
    match stats::quartiles(values) {
        Some((q1, q3)) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    }
}

/// Judge candidate `b` against base `a` for a metric with direction `better`
/// and regression bound `bound` (a share of the base's median).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    Some(
        doc.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("values")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    )
}

fn failed_share(doc: &Json, workload: &str) -> f64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed_ops_share"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn quartile_text(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some((q1, q3)) => format!("[{q1:.4}, {q3:.4}]"),
        None => "[n/a]".to_string(),
    }
}

/// Compare two result documents; returns the table and whether B is
/// acceptable (no regression, no higher failed share).
pub fn compare(a: &Json, b: &Json, bounds: &Json) -> Result<(String, bool), String> {
    let mut out = format!(
        "{:<15} {:<22} {:>14} {:<24} {:>14} {:<24} {:>16} {:>6}  {}\n",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "B/A (base A)",
        "bound",
        "verdict"
    );
    let mut ok = true;
    for w in WORKLOADS {
        for d in registry::user_metrics(w) {
            let va = values(a, w, d.name).ok_or_else(|| format!("A lacks {w}/{}", d.name))?;
            let vb = values(b, w, d.name).ok_or_else(|| format!("B lacks {w}/{}", d.name))?;
            // A metric outside `BENCHMARK.json`'s end-to-end list is judged
            // for information only: it is shown, it decides nothing.
            let declared = registry::bound_of(bounds, d.name);
            let bound = declared.unwrap_or(registry::INFORMATIONAL_BOUND);
            let v = verdict(&va, &vb, d.better, bound);
            ok &= declared.is_none() || v != Verdict::Regressed;
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            out.push_str(&format!(
                "{:<15} {:<22} {:>14.4} {:<24} {:>14.4} {:<24} {:>16} {:>6}  {}\n",
                w,
                d.name,
                ma,
                quartile_text(&va),
                mb,
                quartile_text(&vb),
                format!("{:.4} ({:.4})", mb / ma, ma),
                format!("{bound:.3}"),
                if declared.is_some() {
                    v.as_str().to_string()
                } else {
                    format!("{} (informational)", v.as_str())
                }
            ));
        }
        let (fa, fb) = (failed_share(a, w), failed_share(b, w));
        let worse = fb > fa;
        ok &= !worse;
        out.push_str(&format!(
            "{:<15} {:<22} {:>14.6} {:<24} {:>14.6} {:<24} {:>16} {:>6}  {}\n",
            w,
            "failed_ops_share",
            fa,
            "",
            fb,
            "",
            "",
            "0",
            if worse { "regressed" } else { "unchanged" }
        ));
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let shift = |f: f64| base.map(|x| x * f);
        // Within the bound either way.
        assert_eq!(
            verdict(&base, &shift(1.04), Better::Lower, 0.05),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &shift(0.96), Better::Higher, 0.05),
            Verdict::Unchanged
        );
        // Beyond it: direction decides.
        assert_eq!(
            verdict(&base, &shift(1.10), Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &shift(1.10), Better::Higher, 0.05),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &shift(0.90), Better::Lower, 0.05),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &shift(0.90), Better::Higher, 0.05),
            Verdict::Regressed
        );
        // A side noisier than the bound cannot be judged.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // Single runs have no spread and are judged on their values.
        assert_eq!(
            verdict(&[100.0], &[120.0], Better::Lower, 0.1),
            Verdict::Regressed
        );
    }

    fn doc(rows_per_s: &[f64], failed_share: f64) -> Json {
        doc_with_audit(rows_per_s, failed_share, 10.0)
    }

    fn doc_with_audit(rows_per_s: &[f64], failed_share: f64, audit_s: f64) -> Json {
        let workloads = WORKLOADS.map(|w| {
            let metrics = registry::user_metrics(w).map(|d| {
                let values = match d.name {
                    "e2e_rows_per_s" => rows_per_s.to_vec(),
                    "audit_s" => vec![audit_s; 3],
                    _ => vec![10.0, 10.0, 10.0],
                };
                (
                    d.name,
                    Json::obj([(
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    )]),
                )
            });
            (
                w,
                Json::obj([
                    ("end_to_end", Json::obj(metrics)),
                    ("failed_ops_share", Json::Num(failed_share)),
                ]),
            )
        });
        Json::obj([("workloads", Json::obj(workloads))])
    }

    #[test]
    fn compare_fails_on_regression_or_more_failures() {
        let bounds = Json::parse(registry::BENCHMARK_JSON).unwrap();
        let base = doc(&[1000.0, 1001.0, 999.0], 0.0);
        let (table, ok) = compare(&base, &base, &bounds).unwrap();
        assert!(ok);
        assert!(!table.contains("regressed") && !table.contains("unresolved"));
        let rows: usize = WORKLOADS
            .iter()
            .map(|w| registry::user_metrics(w).count() + 1)
            .sum();
        assert_eq!(table.lines().count(), 1 + rows);
        assert!(table.contains("olap_query_p95_ms") && table.contains("(informational)"));

        let slower = doc(&[500.0, 501.0, 499.0], 0.0);
        let (table, ok) = compare(&base, &slower, &bounds).unwrap();
        assert!(!ok && table.contains("regressed"));
        let (_, ok) = compare(&slower, &base, &bounds).unwrap();
        assert!(ok, "an improvement is acceptable");

        let (_, ok) = compare(&base, &doc(&[1000.0, 1001.0, 999.0], 0.01), &bounds).unwrap();
        assert!(!ok, "a higher failed_ops_share is a regression");
    }

    #[test]
    fn an_owned_metric_is_judged_but_decides_nothing() {
        let bounds = Json::parse(registry::BENCHMARK_JSON).unwrap();
        let with_audit = |audit_s| doc_with_audit(&[1000.0, 1001.0, 999.0], 0.0, audit_s);
        let (table, ok) = compare(&with_audit(1.0), &with_audit(2.0), &bounds).unwrap();
        assert!(ok);
        assert!(table.contains("regressed (informational)"));
    }
}
