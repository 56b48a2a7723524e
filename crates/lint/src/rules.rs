//! The lint rules.
//!
//! Per-file rules (panic-freedom in designated modules, fsync-discard,
//! api-hygiene, suppression-hygiene) work on a single [`LintFile`].
//! The interprocedural rules (lock-hygiene with transitive effects,
//! guard-from-helper, panic-reachability) work on a [`crate::Workspace`] —
//! the full file set plus call graph and effect facts.

use crate::callgraph::FnId;
use crate::effects::{self, Witness, FILE_IO, RETURNS_GUARD, WAITS_CONDVAR};
use crate::scan::{self, ScanError, Scrubbed};
use crate::Workspace;
use std::collections::HashMap;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `panic-freedom`.
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed source file ready for linting.
pub struct LintFile<'a> {
    /// Repo-relative path with forward slashes.
    pub path: &'a str,
    /// Original source text.
    pub source: &'a str,
    /// Scrubbed view (comments/literals blanked).
    pub scrubbed: Scrubbed,
    /// 1-based inclusive line ranges of test-only code.
    pub test_regions: Vec<(usize, usize)>,
}

impl<'a> LintFile<'a> {
    /// Preprocess `source` for linting. Structural parse failures (an
    /// unbalanced brace) surface as [`ScanError`]s.
    pub fn new(path: &'a str, source: &'a str) -> Result<LintFile<'a>, ScanError> {
        let scrubbed = scan::scrub(source);
        let test_regions = scan::test_regions(&scrubbed.code)?;
        Ok(LintFile {
            path,
            source,
            scrubbed,
            test_regions,
        })
    }

    pub(crate) fn is_test_line(&self, line: usize) -> bool {
        scan::in_regions(&self.test_regions, line)
    }

    /// The original source text of 1-based `line`. Out-of-range lines are a
    /// span error — the lint must never silently compare against `""`.
    fn source_line(&self, line: usize) -> Result<&str, ScanError> {
        self.source.lines().nth(line - 1).ok_or_else(|| ScanError {
            line,
            what: format!("line {line} out of range for {}", self.path),
        })
    }
}

/// Crash-recovery modules that must stay panic-free outside of tests: WAL
/// replay, queue recovery, and page/heap decode all run on untrusted on-disk
/// bytes after a crash, where a panic turns a recoverable torn write into an
/// unbootable database.
pub const PANIC_FREE_FILES: &[&str] = &[
    "crates/engine/src/wal.rs",
    "crates/transport/src/queue.rs",
    "crates/storage/src/page.rs",
    "crates/storage/src/heap.rs",
    "crates/storage/src/buffer.rs",
    "crates/storage/src/colbatch.rs",
    "crates/core/src/colcodec.rs",
    "crates/warehouse/src/sched.rs",
    "crates/core/src/digest.rs",
    "crates/storage/src/scrub.rs",
    "crates/engine/src/scrub.rs",
    "crates/warehouse/src/audit.rs",
    "crates/storage/src/pressure.rs",
    "crates/transport/src/compact.rs",
    "crates/warehouse/src/watchdog.rs",
    "crates/warehouse/src/direct.rs",
    "crates/warehouse/src/apply.rs",
    "crates/warehouse/src/view.rs",
    "crates/core/src/logextract.rs",
    "crates/engine/src/index.rs",
    "crates/core/src/opdelta.rs",
    "crates/engine/src/db.rs",
    "crates/engine/src/txn.rs",
    "crates/engine/src/lock.rs",
    "crates/engine/src/trigger.rs",
];

/// Path prefixes whose every file is panic-free scoped. `crates/lint/src`
/// self-lints: the analyzer must hold itself to the rule it enforces.
pub const PANIC_FREE_PREFIXES: &[&str] = &["crates/lint/src"];

fn in_panic_scope(path: &str) -> bool {
    PANIC_FREE_FILES.contains(&path) || PANIC_FREE_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// An allowlist entry: `path: substring` — a violation on `path` whose source
/// line contains `substring` is tolerated.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Repo-relative path the entry applies to.
    pub path: String,
    /// Substring of the tolerated source line.
    pub substring: String,
}

/// Parse the allowlist format: one `path: substring` per line, `#` comments.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (path, substring) = l.split_once(": ")?;
            Some(AllowEntry {
                path: path.trim().to_string(),
                substring: substring.trim().to_string(),
            })
        })
        .collect()
}

fn allowlisted(allow: &[AllowEntry], path: &str, source_line: &str) -> bool {
    allow
        .iter()
        .any(|e| e.path == path && source_line.contains(&e.substring))
}

/// Panic-freedom: no `.unwrap()` / `.expect(...)` / `panic!` / `unreachable!`
/// in non-test code of the designated crash-recovery modules (and the lint's
/// own sources). `// lint: allow(panic_freedom) -- reason` waives one site.
pub fn check_panic_freedom(
    file: &LintFile<'_>,
    allow: &[AllowEntry],
) -> Result<Vec<Finding>, ScanError> {
    if !in_panic_scope(file.path) {
        return Ok(Vec::new());
    }
    let mut findings = Vec::new();
    for (idx, line) in file.scrubbed.code.lines().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) {
            continue;
        }
        for pat in effects::PANIC_PATTERNS {
            if !line.contains(pat) {
                continue;
            }
            let original = file.source_line(lineno)?;
            if allowlisted(allow, file.path, original)
                || has_suppression(file, lineno, "panic_freedom")
            {
                continue;
            }
            findings.push(Finding {
                rule: "panic-freedom",
                path: file.path.to_string(),
                line: lineno,
                message: format!(
                    "`{}` in panic-free module (use typed errors; see allowlist)",
                    pat.trim_start_matches('.')
                ),
            });
        }
    }
    Ok(findings)
}

/// Files allowed to block on a `Condvar` while holding a lock: the lock
/// manager's whole job is to park waiters under its per-table state mutex.
pub const LOCK_WAIT_EXEMPT: &[&str] = &["crates/engine/src/lock.rs"];

/// A lock acquisition site within a function body: a direct
/// `.lock()`/`.read()`/`.write()` or a call to a guard-returning helper.
#[derive(Debug)]
pub(crate) struct Acquisition {
    /// Byte offset of the acquisition token.
    pub pos: usize,
    /// 1-based line number.
    pub line: usize,
    /// Receiver expression (`self.tables`) or helper call (`shard_guard()`).
    pub receiver: String,
    /// Normalized lock class (`tables`).
    pub class: String,
    /// End of the guard's live range (byte offset, exclusive).
    pub span_end: usize,
    /// `// lock-order: N` annotation governing this acquisition, if any.
    pub order: Option<u64>,
    /// The guard-returning helper this acquisition went through, if any.
    pub via_helper: Option<FnId>,
}

fn line_start(code: &str, pos: usize) -> usize {
    code[..pos].rfind('\n').map(|p| p + 1).unwrap_or(0)
}

/// Innermost block enclosing `pos` within `[from, to)`; returns its end offset.
fn enclosing_block_end(code: &str, from: usize, to: usize, pos: usize) -> usize {
    let bytes = code.as_bytes();
    let mut stack = Vec::new();
    for (i, &b) in bytes[from..pos].iter().enumerate() {
        match b {
            b'{' => stack.push(from + i),
            b'}' => {
                stack.pop();
            }
            _ => {}
        }
    }
    match stack.last() {
        // The braces were matched when the fn body was located; an unmatched
        // inner `{` can only mean the span ends with the body.
        Some(&open) => scan::match_brace(code, open).unwrap_or(to),
        None => to,
    }
}

/// Live range of a guard obtained at `pos`: to the end of the enclosing block
/// for `let` bindings (clipped at `drop(name)`), to the end of the statement
/// for temporaries. `chained` means the lock call is immediately followed by
/// another method call (`.read().values()`) — the guard is then a temporary
/// consumed inside the statement even under a `let`, because the binding
/// holds the chain's result, not the guard. (Locks here are parking_lot
/// style; there is no fallible `.lock().unwrap()` chain that returns the
/// guard itself.)
fn guard_span(code: &str, body_start: usize, body_end: usize, pos: usize, chained: bool) -> usize {
    let ls = line_start(code, pos);
    let stmt_head = code[ls..pos].trim_start();
    if !chained && stmt_head.starts_with("let ") {
        let mut end = enclosing_block_end(code, body_start, body_end, pos);
        // `drop(name)` ends the guard's live range early.
        if let Some(name) = stmt_head
            .trim_start_matches("let ")
            .trim_start_matches("mut ")
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .next()
            .filter(|n| !n.is_empty())
        {
            let drop_pat = format!("drop({name})");
            if let Some(d) = code[pos..end].find(&drop_pat) {
                end = pos + d;
            }
        }
        end
    } else {
        // Temporary guard: lives to the end of the statement.
        code[pos..body_end]
            .find(';')
            .map(|p| pos + p)
            .unwrap_or(body_end)
    }
}

/// `// lock-order: N` annotations mapped to the code line they describe (the
/// same line for trailing comments, otherwise the next line).
pub(crate) fn lock_order_annotations(file: &LintFile<'_>) -> HashMap<usize, u64> {
    let code_lines: Vec<&str> = file.scrubbed.code.lines().collect();
    let mut map = HashMap::new();
    for (line, text) in &file.scrubbed.comments {
        let Some(rest) = text.split("lock-order:").nth(1) else {
            continue;
        };
        let Some(tok) = rest.split_whitespace().next() else {
            continue;
        };
        let Ok(n) = tok.parse() else { continue };
        let has_code = code_lines
            .get(line - 1)
            .is_some_and(|l| !l.trim().is_empty());
        map.insert(if has_code { *line } else { line + 1 }, n);
    }
    map
}

/// The lock-order annotation at a guard-returning helper's own acquisition
/// site, so call-site acquisitions inherit the helper's documented order.
fn helper_order(ws: &Workspace<'_>, helper: FnId) -> Option<u64> {
    let info = &ws.graph.fns[helper];
    let code = &ws.files[info.file].scrubbed.code;
    let body = &code[info.item.body_start..info.item.body_end];
    for pat in effects::LOCK_PATTERNS {
        if let Some(p) = body.find(pat) {
            let line = scan::line_of(code, info.item.body_start + p);
            return ws.orders[info.file].get(&line).copied();
        }
    }
    None
}

/// The lock class a guard-returning helper hands back: its first locally
/// acquired class, falling back to any class it transitively acquires.
fn helper_class(ws: &Workspace<'_>, helper: FnId) -> Option<String> {
    let fx = &ws.effects;
    fx.locks[helper]
        .iter()
        .find(|c| {
            matches!(
                fx.lock_witness.get(&(helper, (*c).clone())),
                Some(Witness::Local { .. })
            )
        })
        .or_else(|| fx.locks[helper].iter().next())
        .cloned()
}

/// Every acquisition in `fn_id`'s body: direct lock calls plus calls to
/// guard-returning helpers (which hand a live guard back to this frame).
pub(crate) fn collect_acquisitions(ws: &Workspace<'_>, fn_id: FnId) -> Vec<Acquisition> {
    let info = &ws.graph.fns[fn_id];
    let file = &ws.files[info.file];
    let code = &file.scrubbed.code;
    let orders = &ws.orders[info.file];
    let (start, end) = (info.item.body_start, info.item.body_end);
    let mut out = Vec::new();
    let span = &code[start..end];
    for pat in effects::LOCK_PATTERNS {
        let mut search = 0usize;
        while let Some(rel) = span[search..].find(pat) {
            let pos = start + search + rel;
            search += rel + pat.len();
            let line = scan::line_of(code, pos);
            let receiver = scan::receiver_of(code, pos);
            let chained = code[pos + pat.len()..].starts_with('.');
            out.push(Acquisition {
                pos,
                line,
                class: effects::lock_class(&receiver),
                receiver,
                span_end: guard_span(code, start, end, pos, chained),
                order: orders.get(&line).copied(),
                via_helper: None,
            });
        }
    }
    for (site, callee) in ws.graph.resolved_sites_in_span(fn_id, start, end) {
        if ws.effects.bits[callee] & RETURNS_GUARD == 0 {
            continue;
        }
        let Some(class) = helper_class(ws, callee) else {
            continue;
        };
        out.push(Acquisition {
            pos: site.pos,
            line: site.line,
            receiver: format!("{}()", site.name),
            class,
            span_end: guard_span(code, start, end, site.pos, false),
            order: ws.orders[info.file]
                .get(&site.line)
                .copied()
                .or_else(|| helper_order(ws, callee)),
            via_helper: Some(callee),
        });
    }
    out.sort_by_key(|a| a.pos);
    out
}

/// Whether a comment's captured text is a doc comment (`///` or `//!`).
/// Doc comments *describe* lint tags rather than apply them, so they
/// neither sanction code nor get audited for reasons.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with('/') || text.starts_with('!')
}

fn has_suppression(file: &LintFile<'_>, line: usize, rule: &str) -> bool {
    let tag = format!("lint: allow({rule})");
    // A suppression applies to its own line, or — when it sits in a comment
    // block directly above the flagged line — to the first code line below
    // the block. Walk upward through contiguous comment-bearing lines.
    let comment_on = |l: usize| file.scrubbed.comments.iter().any(|(cl, _)| *cl == l);
    let tag_on = |l: usize| {
        file.scrubbed
            .comments
            .iter()
            .any(|(cl, text)| *cl == l && !is_doc_comment(text) && text.contains(&tag))
    };
    if tag_on(line) {
        return true;
    }
    let mut l = line;
    while l > 1 && comment_on(l - 1) {
        l -= 1;
        if tag_on(l) {
            return true;
        }
    }
    false
}

/// Lock-hygiene over one file, call-graph aware: guards must not be held
/// across file I/O or a `Condvar` wait — whether the offending operation is
/// textually in the span or reached through any chain of workspace calls —
/// and nested acquisitions must follow the documented `// lock-order: N`
/// annotations.
pub fn check_lock_hygiene(ws: &Workspace<'_>, file_idx: usize) -> Vec<Finding> {
    let file = &ws.files[file_idx];
    let code = &file.scrubbed.code;
    let fx = &ws.effects;
    let mut findings = Vec::new();

    // Consistency: one receiver, one order, per file.
    let mut receiver_orders: HashMap<String, (u64, usize)> = HashMap::new();

    for fn_id in ws.graph.fns_in_file(file_idx) {
        let info = &ws.graph.fns[fn_id];
        if info.is_test || file.is_test_line(info.item.line) {
            continue;
        }
        let body_end = info.item.body_end;
        let acqs = collect_acquisitions(ws, fn_id);

        for acq in &acqs {
            if file.is_test_line(acq.line) || has_suppression(file, acq.line, "lock_hygiene") {
                continue;
            }
            let span_end = acq.span_end.min(body_end);
            let held = &code[acq.pos..span_end];
            let wait_exempt = LOCK_WAIT_EXEMPT.contains(&file.path);

            // Direct markers in the guard's span.
            let mut io_hit = false;
            for marker in effects::IO_MARKERS {
                if let Some(p) = held.find(marker) {
                    io_hit = true;
                    findings.push(Finding {
                        rule: "lock-hygiene",
                        path: file.path.to_string(),
                        line: acq.line,
                        message: format!(
                            "guard on `{}` held across file I/O (`{}` at line {})",
                            acq.receiver,
                            marker.trim_matches(['.', '(']),
                            scan::line_of(code, acq.pos + p)
                        ),
                    });
                    break;
                }
            }
            let mut wait_hit = false;
            if !wait_exempt {
                for marker in effects::WAIT_MARKERS {
                    // Skip the guard's own acquisition token.
                    if let Some(p) = held[1..].find(marker) {
                        wait_hit = true;
                        findings.push(Finding {
                            rule: "lock-hygiene",
                            path: file.path.to_string(),
                            line: acq.line,
                            message: format!(
                                "guard on `{}` held across Condvar `{}` (line {})",
                                acq.receiver,
                                marker.trim_matches(['.', '(']),
                                scan::line_of(code, acq.pos + 1 + p)
                            ),
                        });
                        break;
                    }
                }
            }

            // Transitive effects through calls in the guard's span: the I/O
            // (or wait) may live any number of frames down.
            for (site, callee) in ws
                .graph
                .resolved_sites_in_span(fn_id, acq.pos + 1, span_end)
            {
                if Some(callee) == acq.via_helper && site.pos == acq.pos {
                    continue; // the acquisition call itself
                }
                if !io_hit && fx.bits[callee] & FILE_IO != 0 {
                    io_hit = true;
                    findings.push(Finding {
                        rule: "lock-hygiene",
                        path: file.path.to_string(),
                        line: acq.line,
                        message: format!(
                            "guard on `{}` held across call to `{}` (line {}) which \
                             performs file I/O: {}",
                            acq.receiver,
                            site.name,
                            site.line,
                            fx.chain(&ws.graph, callee, |fx, id| fx.io_witness[id].clone())
                        ),
                    });
                }
                if !wait_exempt && !wait_hit && fx.bits[callee] & WAITS_CONDVAR != 0 {
                    wait_hit = true;
                    findings.push(Finding {
                        rule: "lock-hygiene",
                        path: file.path.to_string(),
                        line: acq.line,
                        message: format!(
                            "guard on `{}` held across call to `{}` (line {}) which \
                             blocks on a Condvar: {}",
                            acq.receiver,
                            site.name,
                            site.line,
                            fx.chain(&ws.graph, callee, |fx, id| fx.wait_witness[id].clone())
                        ),
                    });
                }
                if io_hit && (wait_hit || wait_exempt) {
                    break;
                }
            }
        }

        // Nested acquisitions: a second lock taken inside a live guard's span
        // must carry a lock-order annotation, and annotated orders must be
        // nondecreasing in acquisition order.
        for (i, outer) in acqs.iter().enumerate() {
            for inner in &acqs[i + 1..] {
                if inner.pos >= outer.span_end {
                    continue;
                }
                if file.is_test_line(inner.line) {
                    continue;
                }
                match (outer.order, inner.order) {
                    (Some(a), Some(b)) if a > b => findings.push(Finding {
                        rule: "lock-hygiene",
                        path: file.path.to_string(),
                        line: inner.line,
                        message: format!(
                            "lock-order inversion: `{}` (order {}) acquired while \
                             holding `{}` (order {})",
                            inner.receiver, b, outer.receiver, a
                        ),
                    }),
                    (None, _) | (_, None) => {
                        let missing = if outer.order.is_none() { outer } else { inner };
                        if !has_suppression(file, missing.line, "lock_hygiene") {
                            findings.push(Finding {
                                rule: "lock-hygiene",
                                path: file.path.to_string(),
                                line: missing.line,
                                message: format!(
                                    "nested lock acquisition on `{}` without a \
                                     `// lock-order: <n>` annotation",
                                    missing.receiver
                                ),
                            });
                        }
                    }
                    _ => {}
                }
            }
        }

        for acq in &acqs {
            if let Some(n) = acq.order {
                match receiver_orders.get(&acq.receiver) {
                    Some(&(prev, first_line)) if prev != n => findings.push(Finding {
                        rule: "lock-hygiene",
                        path: file.path.to_string(),
                        line: acq.line,
                        message: format!(
                            "`{}` annotated lock-order {} here but {} at line {}",
                            acq.receiver, n, prev, first_line
                        ),
                    }),
                    Some(_) => {}
                    None => {
                        receiver_orders.insert(acq.receiver.clone(), (n, acq.line));
                    }
                }
            }
        }
    }
    findings.sort_by_key(|f| f.line);
    findings.dedup();
    findings
}

/// Guard-from-helper: a function that hands a live lock guard back to its
/// caller must carry a `// lock-order: <n>` annotation at the acquisition
/// site — callers inherit the guard without seeing the lock, so the order
/// contract has to travel with the helper.
pub fn check_guard_helpers(ws: &Workspace<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (id, info) in ws.graph.fns.iter().enumerate() {
        if info.is_test || ws.effects.bits[id] & RETURNS_GUARD == 0 {
            continue;
        }
        let file = &ws.files[info.file];
        if file.is_test_line(info.item.line) {
            continue;
        }
        let code = &file.scrubbed.code;
        let body = &code[info.item.body_start..info.item.body_end];
        let mut acquires_locally = false;
        for pat in effects::LOCK_PATTERNS {
            let mut search = 0usize;
            while let Some(p) = body[search..].find(pat) {
                let pos = info.item.body_start + search + p;
                search += p + pat.len();
                acquires_locally = true;
                let line = scan::line_of(code, pos);
                if !ws.orders[info.file].contains_key(&line)
                    && !has_suppression(file, line, "lock_hygiene")
                {
                    findings.push(Finding {
                        rule: "lock-hygiene",
                        path: file.path.to_string(),
                        line,
                        message: format!(
                            "`{}` returns a live lock guard but its acquisition carries \
                             no `// lock-order: <n>` annotation (callers inherit the lock)",
                            info.qual()
                        ),
                    });
                }
            }
        }
        let _ = acquires_locally; // helpers that merely re-export another
                                  // helper's guard are annotated at the source
    }
    findings
}

/// Entry points of the recovery surface: WAL replay, crash recovery, snapshot
/// diffing and delta apply. Panic-reachability walks the call graph from
/// every function matching one of these shapes.
pub fn is_recovery_entry(name: &str) -> bool {
    matches!(name, "replay" | "recover" | "apply")
        || name.starts_with("recover_")
        || name.starts_with("replay_")
        || name.starts_with("diff_snapshots")
        || name.starts_with("apply_")
}

/// Panic-reachability: every `unwrap`/`expect`/`panic!`/`unreachable!` in
/// non-test code reachable from a recovery entry point, reported with the
/// call chain that reaches it. The allowlist and
/// `// lint: allow(panic_freedom)` suppressions waive individual sites.
pub fn check_panic_reachability(
    ws: &Workspace<'_>,
    allow: &[AllowEntry],
) -> Result<Vec<Finding>, crate::LintError> {
    let graph = &ws.graph;
    let n = graph.fns.len();
    // Deterministic entry order: by qualified name.
    let mut entries: Vec<FnId> = (0..n)
        .filter(|&id| !graph.fns[id].is_test && is_recovery_entry(&graph.fns[id].item.name))
        .collect();
    entries.sort_by_key(|&id| graph.fns[id].qual());

    // BFS from all entries at once; `via[f]` remembers one (parent, entry)
    // pair so chains can be reconstructed.
    let mut seen = vec![false; n];
    let mut parent: Vec<Option<FnId>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for &e in &entries {
        if !seen[e] {
            seen[e] = true;
            queue.push_back(e);
        }
    }
    while let Some(f) = queue.pop_front() {
        for &(callee, _) in &graph.callees[f] {
            if !seen[callee] {
                seen[callee] = true;
                parent[callee] = Some(f);
                queue.push_back(callee);
            }
        }
    }

    let mut findings = Vec::new();
    let mut reported = std::collections::BTreeSet::new();
    for (id, reached) in seen.iter().enumerate() {
        if !reached || graph.fns[id].is_test {
            continue;
        }
        let info = &graph.fns[id];
        let file = &ws.files[info.file];
        for (line, what) in &ws.effects.panic_sites[id] {
            if file.is_test_line(*line)
                || !reported.insert((info.path.clone(), *line, what.clone()))
            {
                continue;
            }
            let original = file
                .source_line(*line)
                .map_err(|e| crate::LintError::Scan {
                    path: info.path.clone(),
                    err: e,
                })?;
            if allowlisted(allow, &info.path, original)
                || has_suppression(file, *line, "panic_freedom")
            {
                continue;
            }
            // Reconstruct the entry chain.
            let mut chain = vec![graph.fns[id].qual()];
            let mut cur = id;
            while let Some(p) = parent[cur] {
                chain.push(graph.fns[p].qual());
                cur = p;
            }
            chain.reverse();
            findings.push(Finding {
                rule: "panic-reachability",
                path: info.path.clone(),
                line: *line,
                message: format!(
                    "`{what}` reachable from recovery entry `{}` via {}",
                    graph.fns[cur].qual(),
                    chain.join(" -> ")
                ),
            });
        }
    }
    Ok(findings)
}

/// Crates whose public API must be fully documented.
const DOC_SCOPED_PREFIXES: &[&str] = &["crates/core/src", "crates/engine/src"];

const PUB_ITEM_HEADS: &[&str] = &[
    "pub fn ",
    "pub const fn ",
    "pub async fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub const ",
    "pub static ",
    "pub mod ",
];

/// API-hygiene (docs): every `pub` item in the scoped crates carries a doc
/// comment. `pub use` re-exports and `pub(crate)`/`pub(super)` items are not
/// part of the public API surface and are skipped.
pub fn check_api_docs(file: &LintFile<'_>) -> Vec<Finding> {
    if !DOC_SCOPED_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
        return Vec::new();
    }
    let doc_lines: std::collections::HashSet<usize> = file
        .scrubbed
        .comments
        .iter()
        .filter(|(_, text)| text.starts_with('/'))
        .map(|(l, _)| *l)
        .collect();
    let lines: Vec<&str> = file.scrubbed.code.lines().collect();
    let mut findings = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) {
            continue;
        }
        let t = raw.trim_start();
        let Some(head) = PUB_ITEM_HEADS.iter().find(|h| t.starts_with(**h)) else {
            continue;
        };
        // Walk up over attributes to the expected doc-comment line.
        let mut above = idx;
        while above > 0 && lines[above - 1].trim_start().starts_with("#[") {
            above -= 1;
        }
        if above == 0 || !doc_lines.contains(&above) {
            let name = t[head.len()..]
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .next()
                .unwrap_or("?")
                .to_string();
            findings.push(Finding {
                rule: "api-hygiene",
                path: file.path.to_string(),
                line: lineno,
                message: format!("public item `{}` has no doc comment", name),
            });
        }
    }
    findings
}

/// Suppression-hygiene: every `lint: allow(<rule>)` tag must carry a
/// ` -- <reason>` on the same comment line. A suppression is a sanctioned
/// exception to a rule; one without a recorded justification cannot be
/// audited and is how sanctioned exceptions rot into blanket waivers.
pub fn check_suppression_hygiene(file: &LintFile<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (line, text) in &file.scrubbed.comments {
        if is_doc_comment(text) {
            continue;
        }
        let Some(pos) = text.find("lint: allow(") else {
            continue;
        };
        if file.is_test_line(*line) {
            continue;
        }
        let rest = &text[pos..];
        let tag_end = rest.find(')').map(|p| p + 1);
        let reasoned = tag_end.is_some_and(|end| {
            let after = rest[end..].trim_start();
            after
                .strip_prefix("--")
                .is_some_and(|reason| !reason.trim().is_empty())
        });
        if !reasoned {
            let tag = tag_end.map_or(rest, |end| &rest[..end]);
            findings.push(Finding {
                rule: "suppression-hygiene",
                path: file.path.to_string(),
                line: *line,
                message: format!("suppression `{tag}` carries no `-- <reason>`"),
            });
        }
    }
    findings
}

/// Durability-call patterns whose result must never be discarded.
const SYNC_CALLS: &[&str] = &[".sync_all(", ".sync_data(", ".sync("];

/// Fsync-discard: discarding the result of a durability call (`let _ =` or
/// a trailing `.ok()`) silently converts an I/O failure — or a lying fsync —
/// into data loss. The result must be propagated (`?`) or handled. This is a
/// **hard** rule: violations have no allowlist, only inline
/// `lint: allow(fsync_discard) -- reason` suppressions, and the repo is
/// expected to carry none.
pub fn check_fsync_discard(file: &LintFile<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in file.scrubbed.code.lines().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) || has_suppression(file, lineno, "fsync_discard") {
            continue;
        }
        let Some((call, pos)) = SYNC_CALLS
            .iter()
            .find_map(|p| line.find(p).map(|at| (*p, at)))
        else {
            continue;
        };
        let before = &line[..pos];
        let after = &line[pos..];
        let discarded =
            before.contains("let _ =") || before.contains("let _=") || after.contains(".ok()");
        if discarded {
            findings.push(Finding {
                rule: "fsync-discard",
                path: file.path.to_string(),
                line: lineno,
                message: format!(
                    "result of `{}` discarded — a failed (or lying) fsync must surface as an error",
                    call.trim_matches(['.', '('])
                ),
            });
        }
    }
    findings
}

/// API-hygiene (errors): every `pub` error type (enum or struct named
/// `*Error`) must implement `std::error::Error`. `files` holds repo-relative
/// path and source text for one whole crate.
pub fn check_error_impls(files: &[(&str, &str)]) -> Result<Vec<Finding>, ScanError> {
    let mut findings = Vec::new();
    let scrubbed: Vec<(&str, Scrubbed)> = files
        .iter()
        .map(|(p, src)| (*p, scan::scrub(src)))
        .collect();
    for (path, s) in &scrubbed {
        let regions = scan::test_regions(&s.code)?;
        for (idx, line) in s.code.lines().enumerate() {
            let lineno = idx + 1;
            if scan::in_regions(&regions, lineno) {
                continue;
            }
            let t = line.trim_start();
            let name = ["pub enum ", "pub struct "]
                .iter()
                .find_map(|h| t.strip_prefix(h))
                .and_then(|rest| {
                    rest.split(|c: char| !c.is_alphanumeric() && c != '_')
                        .next()
                })
                .filter(|n| n.ends_with("Error"));
            let Some(name) = name else { continue };
            let impl_pat = format!("Error for {name}");
            let implemented = scrubbed.iter().any(|(_, other)| {
                other
                    .code
                    .lines()
                    .any(|l| l.contains(&impl_pat) && l.contains("impl"))
            });
            if !implemented {
                findings.push(Finding {
                    rule: "api-hygiene",
                    path: path.to_string(),
                    line: lineno,
                    message: format!("error type `{name}` does not implement std::error::Error"),
                });
            }
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_of(sources: &[(String, String)]) -> crate::Workspace<'_> {
        crate::Workspace::build(sources).unwrap()
    }

    fn src(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn guard_span_let_binding_runs_to_block_end_clipped_at_drop() {
        let code = "fn f() {\n  let g = m.lock();\n  work();\n  drop(g);\n  after();\n}\n";
        let pos = code.find(".lock()").unwrap();
        let end = guard_span(code, 8, code.len() - 2, pos, false);
        assert!(code[pos..end].contains("work()"));
        assert!(!code[pos..end].contains("after()"));
    }

    #[test]
    fn guard_span_temporary_ends_at_statement() {
        let code = "fn f() {\n  m.lock().push(1);\n  after();\n}\n";
        let pos = code.find(".lock()").unwrap();
        let end = guard_span(code, 8, code.len() - 2, pos, true);
        assert!(!code[pos..end].contains("after()"));
    }

    #[test]
    fn guard_span_chained_let_is_a_temporary() {
        // The binding holds the collected Vec, not the guard.
        let code = "fn f() {\n  let v = m.read().iter().count();\n  io();\n}\n";
        let pos = code.find(".read()").unwrap();
        let end = guard_span(code, 8, code.len() - 2, pos, true);
        assert!(!code[pos..end].contains("io()"));
    }

    #[test]
    fn lock_order_annotations_map_to_code_lines() {
        let sources = src(&[(
            "crates/a/src/x.rs",
            "fn f(m: &M) {\n  let a = m.one.lock(); // lock-order: 1\n  \
             // lock-order: 2\n  let b = m.two.lock();\n}\n",
        )]);
        let file = LintFile::new(&sources[0].0, &sources[0].1).unwrap();
        let map = lock_order_annotations(&file);
        assert_eq!(map.get(&2), Some(&1), "trailing comment maps to its line");
        assert_eq!(map.get(&4), Some(&2), "leading comment maps to next line");
    }

    #[test]
    fn panic_freedom_flags_and_suppresses() {
        let sources = src(&[(
            "crates/engine/src/wal.rs",
            "fn a(x: Option<u32>) -> u32 { x.unwrap() }\n\
             // lint: allow(panic_freedom) -- test scaffolding only\n\
             fn b(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )]);
        let file = LintFile::new(&sources[0].0, &sources[0].1).unwrap();
        let findings = check_panic_freedom(&file, &[]).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn annotated_inversion_is_flagged() {
        let sources = src(&[(
            "crates/a/src/x.rs",
            "fn f(m: &M) {\n  // lock-order: 2\n  let a = m.two.lock();\n  \
             // lock-order: 1\n  let b = m.one.lock();\n  drop(b);\n  drop(a);\n}\n",
        )]);
        let ws = ws_of(&sources);
        let findings = check_lock_hygiene(&ws, 0);
        assert!(
            findings.iter().any(|f| f.message.contains("inversion")),
            "{findings:?}"
        );
    }

    #[test]
    fn nested_without_annotation_is_flagged() {
        let sources = src(&[(
            "crates/a/src/x.rs",
            "fn f(m: &M) {\n  let a = m.two.lock();\n  let b = m.one.lock();\n  \
             drop(b);\n  drop(a);\n}\n",
        )]);
        let ws = ws_of(&sources);
        let findings = check_lock_hygiene(&ws, 0);
        assert!(
            findings.iter().any(|f| f.message.contains("lock-order")),
            "{findings:?}"
        );
    }

    #[test]
    fn recovery_entry_shapes() {
        assert!(is_recovery_entry("replay"));
        assert!(is_recovery_entry("recover_from_wal"));
        assert!(is_recovery_entry("diff_snapshots_parallel"));
        assert!(is_recovery_entry("apply_group"));
        assert!(!is_recovery_entry("applied_seq"));
        assert!(!is_recovery_entry("reapply"));
    }

    #[test]
    fn fsync_discard_flags_let_underscore_and_ok() {
        let sources = src(&[(
            "crates/a/src/x.rs",
            "fn f(file: &File) {\n  let _ = file.sync_all();\n  \
             file.sync_data().ok();\n}\n",
        )]);
        let file = LintFile::new(&sources[0].0, &sources[0].1).unwrap();
        let findings = check_fsync_discard(&file);
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn api_docs_skip_pub_crate_items() {
        let sources = src(&[(
            "crates/core/src/x.rs",
            "/// Documented.\npub fn a() {}\npub fn b() {}\npub(crate) fn c() {}\n",
        )]);
        let file = LintFile::new(&sources[0].0, &sources[0].1).unwrap();
        let findings = check_api_docs(&file);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`b`"));
    }

    #[test]
    fn error_type_without_impl_is_flagged() {
        let findings =
            check_error_impls(&[("crates/a/src/err.rs", "pub enum PageError { Bad }\n")]).unwrap();
        assert_eq!(findings.len(), 1);
        let findings = check_error_impls(&[(
            "crates/a/src/err.rs",
            "pub enum PageError { Bad }\nimpl std::error::Error for PageError {}\n",
        )])
        .unwrap();
        assert!(findings.is_empty());
    }
}
