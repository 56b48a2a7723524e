//! delta-lint: workspace correctness analysis for DeltaForge.
//!
//! A `std`-only static analyzer (no `syn`, no proc macros) that walks the
//! workspace's Rust sources, builds a **symbol index and call graph**
//! ([`callgraph`]), infers **transitive effects** to fixpoint ([`effects`])
//! and enforces project-specific rules the stock toolchain cannot express:
//!
//! * **panic-freedom** — crash-recovery modules (WAL replay, queue recovery,
//!   page/heap decode, buffer writeback) and the lint's own sources must not
//!   `unwrap`/`expect`/`panic!` outside test code; residual exceptions live
//!   in a checked-in allowlist.
//! * **panic-reachability** — from the recovery entry points (`replay`,
//!   `recover*`, `diff_snapshots*`, `apply*`) every reachable panic site
//!   workspace-wide is reported with the call chain that reaches it.
//! * **lock-hygiene** — no lock guard may be held across file I/O or a
//!   `Condvar` wait (the lock manager is the sole, deliberate exception) —
//!   including I/O performed by a callee any number of frames down — and
//!   nested lock acquisitions must carry consistent `// lock-order: <n>`
//!   annotations. Helpers that return live guards must annotate their
//!   acquisition sites.
//! * **lock-order-cycle** — a global lock-order graph built from annotations
//!   plus observed (intra- and interprocedural) nesting must stay acyclic;
//!   any cycle is a potential ABBA deadlock and fails the run ([`graph`]).
//! * **api-hygiene** — every `pub` item in `delta-core` and `delta-engine`
//!   carries a doc comment, and every public `*Error` type implements
//!   `std::error::Error`.
//! * **suppression-hygiene** — every `lint: allow(<rule>)` tag must carry a
//!   ` -- <reason>`, so each sanctioned exception (like the group-commit
//!   condvar wait in the WAL) records why it is safe.
//!
//! Run it with `cargo run -p delta-lint`; it exits nonzero when findings
//! remain, which is how CI gates on it. `--format json|sarif` emits
//! machine-readable reports; `--baseline` ratchets finding counts downward.

pub mod callgraph;
pub mod effects;
pub mod graph;
pub mod rules;
pub mod scan;

pub use rules::{parse_allowlist, AllowEntry, Finding};

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// An analysis failure: I/O on the workspace, or a structural parse error
/// carrying the file and line it was detected on.
#[derive(Debug)]
pub enum LintError {
    /// Reading the workspace failed.
    Io(io::Error),
    /// A source file failed to parse structurally.
    Scan {
        /// Repo-relative path of the offending file.
        path: String,
        /// The position-carrying scan failure.
        err: scan::ScanError,
    },
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(e) => write!(f, "{e}"),
            LintError::Scan { path, err } => write!(f, "{path}: {err}"),
        }
    }
}

impl std::error::Error for LintError {}

impl From<io::Error> for LintError {
    fn from(e: io::Error) -> Self {
        LintError::Io(e)
    }
}

/// Directories never linted: build output, vendored shims, VCS metadata, and
/// test-only trees (the lints target shipping code). `dwbench` is the
/// benchmark harness under `crates/bench/src/bin/`, a benchmark like
/// `benches`.
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", ".git", "tests", "benches", "examples", ".github", "dwbench",
];

/// Repo-relative path of the panic-freedom allowlist.
pub const ALLOWLIST_PATH: &str = "crates/lint/allowlist.txt";

/// Repo-relative path of the finding-count baseline used by the ratchet.
pub const BASELINE_PATH: &str = "crates/lint/baseline.txt";

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The crate a repo-relative path belongs to (for crate-wide checks).
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "<root>".to_string(),
    }
}

/// Read every lintable source under `root` as `(repo-relative path, text)`.
pub fn load_sources(root: &Path) -> Result<Vec<(String, String)>, LintError> {
    let mut paths = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut paths)?;
        }
    }
    // A clean report must mean "analyzed and passed", never "found nothing to
    // analyze" — running from the wrong directory is an error, not a pass.
    if paths.is_empty() {
        return Err(LintError::Io(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no .rs files under {}/src or {0}/crates — wrong workspace root?",
                root.display()
            ),
        )));
    }
    paths
        .iter()
        .map(|p| Ok((rel_path(root, p), fs::read_to_string(p)?)))
        .collect()
}

/// Preprocessed workspace: files, symbol index/call graph, effect facts and
/// per-file `lock-order:` annotation maps. All interprocedural rules run on
/// this.
pub struct Workspace<'a> {
    /// Every lintable file, preprocessed.
    pub files: Vec<rules::LintFile<'a>>,
    /// The symbol index and resolved call edges.
    pub graph: callgraph::CallGraph,
    /// Effect bits + witnesses per function.
    pub effects: effects::Effects,
    /// Per-file map of code line -> `lock-order:` annotation value.
    pub orders: Vec<HashMap<usize, u64>>,
}

impl<'a> Workspace<'a> {
    /// Build the full analysis state from `(path, source)` pairs.
    pub fn build(sources: &'a [(String, String)]) -> Result<Workspace<'a>, LintError> {
        let files: Vec<rules::LintFile<'a>> = sources
            .iter()
            .map(|(p, s)| {
                rules::LintFile::new(p, s).map_err(|err| LintError::Scan {
                    path: p.clone(),
                    err,
                })
            })
            .collect::<Result<_, _>>()?;
        let graph = callgraph::build(&files)?;
        let effects = effects::compute(&graph, &files);
        let orders = files.iter().map(rules::lock_order_annotations).collect();
        Ok(Workspace {
            files,
            graph,
            effects,
            orders,
        })
    }

    /// Build, reusing a cached symbol index when `cache` validates against
    /// the current sources (see [`callgraph::load_cache`]).
    pub fn build_with_cache(
        sources: &'a [(String, String)],
        cache: Option<&Path>,
    ) -> Result<(Workspace<'a>, bool), LintError> {
        let files: Vec<rules::LintFile<'a>> = sources
            .iter()
            .map(|(p, s)| {
                rules::LintFile::new(p, s).map_err(|err| LintError::Scan {
                    path: p.clone(),
                    err,
                })
            })
            .collect::<Result<_, _>>()?;
        let cached = cache.and_then(|c| callgraph::load_cache(c, sources));
        let hit = cached.is_some();
        let graph = match cached {
            Some(g) => g,
            None => {
                let g = callgraph::build(&files)?;
                if let Some(c) = cache {
                    // Cache write failures are non-fatal: the next run simply
                    // rebuilds the index.
                    let _ = callgraph::save_cache(c, sources, &g);
                }
                g
            }
        };
        let effects = effects::compute(&graph, &files);
        let orders = files.iter().map(rules::lock_order_annotations).collect();
        Ok((
            Workspace {
                files,
                graph,
                effects,
                orders,
            },
            hit,
        ))
    }
}

/// Analysis totals reported alongside findings (JSON output, `--stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Files analyzed.
    pub files: usize,
    /// Functions indexed.
    pub functions: usize,
    /// Call sites resolved to exactly one workspace function.
    pub resolved: usize,
    /// Call sites in the explicit ambiguous bucket.
    pub ambiguous: usize,
    /// Call sites targeting nothing in the workspace.
    pub external: usize,
    /// Edges in the global lock-order graph.
    pub lock_edges: usize,
    /// Whether the symbol-index cache was hit.
    pub cache_hit: bool,
}

/// Findings plus analysis totals.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by path and line.
    pub findings: Vec<Finding>,
    /// Analysis totals.
    pub stats: Stats,
}

fn analyze(ws: &Workspace<'_>, allow: &[AllowEntry], cache_hit: bool) -> Result<Report, LintError> {
    let mut findings = Vec::new();
    for (idx, file) in ws.files.iter().enumerate() {
        findings.extend(rules::check_panic_freedom(file, allow).map_err(|err| {
            LintError::Scan {
                path: file.path.to_string(),
                err,
            }
        })?);
        findings.extend(rules::check_lock_hygiene(ws, idx));
        findings.extend(rules::check_api_docs(file));
        findings.extend(rules::check_fsync_discard(file));
        findings.extend(rules::check_suppression_hygiene(file));
    }
    findings.extend(rules::check_guard_helpers(ws));
    findings.extend(rules::check_panic_reachability(ws, allow)?);

    let edges = graph::lock_order_edges(ws);
    findings.extend(graph::cycle_findings(&edges));

    // Error-impl checking needs whole-crate visibility (impls may live in a
    // sibling module).
    let mut crates: std::collections::BTreeMap<String, Vec<(&str, &str)>> = Default::default();
    for file in &ws.files {
        crates
            .entry(crate_of(file.path))
            .or_default()
            .push((file.path, file.source));
    }
    for files in crates.values() {
        findings.extend(rules::check_error_impls(files).map_err(|err| {
            LintError::Scan {
                path: files
                    .first()
                    .map(|(p, _)| *p)
                    .unwrap_or("<crate>")
                    .to_string(),
                err,
            }
        })?);
    }

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(Report {
        stats: Stats {
            files: ws.files.len(),
            functions: ws.graph.fns.len(),
            resolved: ws.graph.stats.resolved,
            ambiguous: ws.graph.stats.ambiguous,
            external: ws.graph.stats.external,
            lock_edges: edges.len(),
            cache_hit,
        },
        findings,
    })
}

/// Run every lint over the workspace rooted at `root`. The allowlist is read
/// from [`ALLOWLIST_PATH`] under `root` if present.
pub fn run(root: &Path) -> Result<Vec<Finding>, LintError> {
    run_report(root, None).map(|r| r.findings)
}

/// Like [`run`], returning analysis totals too, optionally reusing a symbol
/// index cache file.
pub fn run_report(root: &Path, cache: Option<&Path>) -> Result<Report, LintError> {
    let allow = match fs::read_to_string(root.join(ALLOWLIST_PATH)) {
        Ok(text) => parse_allowlist(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let sources = load_sources(root)?;
    let (ws, cache_hit) = Workspace::build_with_cache(&sources, cache)?;
    analyze(&ws, &allow, cache_hit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_grouping() {
        assert_eq!(crate_of("crates/engine/src/wal.rs"), "engine");
        assert_eq!(crate_of("src/lib.rs"), "<root>");
    }

    #[test]
    fn allowlist_parse_skips_comments() {
        let entries = parse_allowlist("# header\n\ncrates/a/src/x.rs: foo.unwrap()\n");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].path, "crates/a/src/x.rs");
        assert_eq!(entries[0].substring, "foo.unwrap()");
    }
}
