//! `dwbench` — the capture → ship → sync benchmark.
//!
//! Drives the six product crates through their public APIs only, on four
//! seeded workloads, checks the outputs, and prints every metric by name.
//! See the README next to this file for the metric tables, the layer →
//! end-to-end map and the reasons behind each workload.
//!
//! ```text
//! dwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! dwbench --all [--seed <n>] [--runs <k>] [--out <file>]              every workload, one document
//! dwbench compare <a.json> <b.json>                                   referee two documents
//! ```

mod calib;
mod compare;
mod gen;
mod harness;
mod json;
mod registry;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use runner::Config;

const USAGE: &str = "usage:
  dwbench --workload <name> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--quick] [--keep]
  dwbench --all [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>] [--quick] [--keep]
  dwbench compare <a.json> <b.json>
workloads: value_stream, op_bulk, olap_mixed, snapshot_audit";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    keep: bool,
    runs: usize,
    out: Option<PathBuf>,
}

impl Args {
    /// `--seconds`, else none for a quick run, else the declared `run_seconds`.
    fn measuring_seconds(&self, doc: &Json) -> f64 {
        self.seconds.unwrap_or_else(|| {
            if self.quick {
                0.0
            } else {
                registry::run_seconds(doc)
            }
        })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        keep: false,
        runs: 1,
        out: None,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value(&mut it, arg)?),
            "--all" => args.all = true,
            "--seed" => {
                args.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 600".into());
                }
                args.seconds = Some(s);
            }
            "--runs" => {
                args.runs = value(&mut it, arg)?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--runs takes a count between 1 and 100")?;
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut it, arg)?)),
            // `--trace` alone, or the driver's `--trace 0` / `--trace 1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--keep" => args.keep = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(args)
}

/// Scratch directory of this process; also `TMPDIR`, because the audit
/// stages its snapshots under `std::env::temp_dir()`.
fn scratch_dir() -> Result<PathBuf, String> {
    let dir = runner::target_dir()
        .join("dwbench")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(harness::ctx("create scratch directory"))?;
    let abs = dir
        .canonicalize()
        .map_err(harness::ctx("resolve scratch directory"))?;
    std::env::set_var("TMPDIR", &abs);
    Ok(abs)
}

fn run_one(args: &Args, doc: &Json) -> Result<bool, String> {
    let scratch = scratch_dir()?;
    let cfg = Config {
        workload: args.workload.clone().unwrap_or_default(),
        seed: args.seed,
        seconds: args.measuring_seconds(doc),
        trace: args.trace,
        quick: args.quick,
        keep: args.keep,
        trace_dir: runner::target_dir().join("dwbench"),
    };
    let outcome = runner::run_workload(&cfg, &scratch);
    if !args.keep {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let outcome = outcome?;
    for e in outcome.errors.iter().take(20) {
        eprintln!("dwbench: {e}");
    }
    println!(
        "{}",
        Json::obj([("detail", outcome.detail.clone())]).encode()
    );
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

/// Run one child process per (workload, run): peak memory and every cache
/// start fresh. Returns the child's detail and result lines.
fn run_child(
    args: &Args,
    workload: &str,
    seconds: f64,
    trace: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(harness::ctx("locate dwbench"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    if args.keep {
        cmd.arg("--keep");
    }
    let out = cmd
        .output()
        .map_err(harness::ctx("spawn workload process"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: no result (exit status {})", out.status))
        .and_then(|l| Json::parse(l).map_err(|e| format!("{workload}: bad result line: {e}")))?;
    let detail = lines
        .next()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|d| d.get("detail").cloned())
        .unwrap_or(Json::Null);
    Ok((detail, result))
}

/// The values of each named metric across runs, with their median. Takes the
/// metrics of the result lines in `results` and, from `details`, the ones
/// only this workload owns (named by the registry, valued by the detail line).
fn metric_values(results: &[Json], details: &[Json]) -> Json {
    let mut by_name: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut add = |name: &str, unit: &str, value: Option<f64>| {
        let entry = by_name
            .entry(name.to_string())
            .or_insert_with(|| (unit.to_string(), Vec::new()));
        entry.1.extend(value);
    };
    for r in results {
        for (name, m) in r
            .get("metrics")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            add(name, unit, m.get("value").and_then(Json::as_f64));
        }
    }
    for d in details {
        for (name, v) in d
            .get("owned_metrics")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            let unit = registry::lookup(name).map_or("", |d| d.unit);
            add(name, unit, v.as_f64());
        }
    }
    Json::obj(by_name.into_iter().map(|(name, (unit, values))| {
        (
            name,
            Json::obj([
                ("unit", Json::str(unit)),
                ("median", Json::Num(stats::median(&values))),
                ("samples", Json::Num(values.len() as f64)),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]),
        )
    }))
}

fn run_all(args: &Args, doc: &Json) -> Result<bool, String> {
    let seconds = args.measuring_seconds(doc);
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in registry::WORKLOADS {
        let (mut untraced, mut details) = (Vec::new(), Vec::new());
        for run in 0..args.runs {
            eprintln!("dwbench: {w} run {}/{}", run + 1, args.runs);
            let (d, r) = run_child(args, w, seconds, false)?;
            details.push(d);
            untraced.push(r);
        }
        eprintln!("dwbench: {w} traced run");
        let (_, traced) = run_child(args, w, seconds, true)?;
        let sum = |key: &str| -> f64 {
            untraced
                .iter()
                .chain([&traced])
                .filter_map(|r| r.get(key).and_then(Json::as_f64))
                .sum()
        };
        let (attempted, failed) = (sum("attempted"), sum("failed"));
        let correct = untraced
            .iter()
            .chain([&traced])
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        ok &= correct && failed == 0.0;
        workloads.push((
            w,
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_ops_share", Json::Num(failed / attempted.max(1.0))),
                ("end_to_end", metric_values(&untraced, &details)),
                ("per_layer", metric_values(&[traced], &[])),
                ("detail", details.pop().unwrap_or(Json::Null)),
            ]),
        ));
    }
    let document = Json::obj([
        ("benchmark", Json::str("dwbench")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Num(args.runs as f64)),
        ("workloads", Json::obj(workloads)),
    ])
    .encode();
    match &args.out {
        Some(path) => std::fs::write(path, &document).map_err(harness::ctx("write --out file"))?,
        None => println!("{document}"),
    }
    Ok(ok)
}

fn run_compare(a: &str, b: &str, doc: &Json) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, ok) = compare::compare(&load(a)?, &load(b)?, doc)?;
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let doc = match registry::validate() {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("dwbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match argv.first().map(String::as_str) {
        None | Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("compare") => match &argv[1..] {
            [a, b] => run_compare(a, b, &doc),
            _ => Err(USAGE.to_string()),
        },
        Some(_) => parse_args(&argv).and_then(|args| {
            if cfg!(debug_assertions) && !args.quick {
                return Err("refusing to measure a debug build: build with --release \
                            (or pass --quick for a smoke run)"
                    .into());
            }
            if args.all {
                run_all(&args, &doc)
            } else {
                run_one(&args, &doc)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dwbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_the_drivers_argument_form() {
        let a = args(&[
            "--workload",
            "op_bulk",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("op_bulk"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(12.0), false));
        assert!(
            args(&["--workload", "op_bulk", "--trace", "1"])
                .unwrap()
                .trace
        );
        assert!(args(&["--workload", "op_bulk", "--trace"]).unwrap().trace);
        assert!(
            args(&["--workload", "op_bulk", "--trace", "--quick"])
                .unwrap()
                .quick
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&[]).is_err());
        assert!(args(&["--all", "--workload", "op_bulk"]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--all", "--seed", "-1"]).is_err());
        assert!(args(&["--all", "--seconds", "1e9"]).is_err());
        assert!(args(&["--all", "--frobnicate"]).is_err());
    }
}
