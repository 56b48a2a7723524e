//! Transitive effect inference over the call graph.
//!
//! Each workspace function gets a small effect bitset — [`FILE_IO`],
//! [`WAITS_CONDVAR`], [`MAY_PANIC`], [`RETURNS_GUARD`] — seeded from local
//! evidence (marker patterns in the body, guard types in the signature) and
//! propagated caller-ward to fixpoint over resolved call edges. The lattice is
//! the powerset of the bits ordered by inclusion; propagation only ever adds
//! bits, so the worklist terminates.
//!
//! Alongside the bits, every propagated fact keeps a **witness**: the local
//! marker line or the call edge it arrived through. Witness chains are what
//! let the rules print `f -> g -> h -> sync_all at line N` instead of a bare
//! "f does I/O".
//!
//! `RETURNS_GUARD` is deliberately *not* propagated: calling a guard-returning
//! helper does not make the caller hand a guard to its own caller — that is a
//! signature property, not a transitive one.

use crate::callgraph::{CallGraph, FnId};
use std::collections::{BTreeMap, BTreeSet};

/// The function performs file/page I/O (directly or transitively).
pub const FILE_IO: u8 = 1;
/// The function blocks on a `Condvar` (directly or transitively).
pub const WAITS_CONDVAR: u8 = 1 << 1;
/// The function can reach an `unwrap`/`expect`/`panic!`/`unreachable!`.
pub const MAY_PANIC: u8 = 1 << 2;
/// The function's signature returns a live lock guard to its caller.
pub const RETURNS_GUARD: u8 = 1 << 3;

/// File/page I/O call patterns. Page-granular `read_page`/`write_page` are
/// included because the sharded buffer pool's contract is that page I/O
/// happens strictly outside shard locks; so are the positional
/// `read_exact_at`/`write_all_at` those two are built on, which the plain
/// `.read_exact(`/`.write_all(` patterns do not match.
pub const IO_MARKERS: &[&str] = &[
    "File::create",
    "File::open",
    "OpenOptions",
    "fs::rename",
    "fs::remove",
    "fs::read",
    "fs::write",
    "fs::copy",
    ".sync_all(",
    ".sync_data(",
    ".write_all(",
    ".read_exact(",
    ".write_all_at(",
    ".read_exact_at(",
    ".flush(",
    ".set_len(",
    ".seek(",
    ".read_page(",
    ".write_page(",
];

/// `Condvar` blocking patterns.
pub const WAIT_MARKERS: &[&str] = &[".wait(", ".wait_for(", ".wait_until(", ".wait_while("];

/// Panic-capable patterns.
pub const PANIC_PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!", "unreachable!"];

/// Lock-acquisition patterns (parking_lot style: infallible, guard-returning).
pub const LOCK_PATTERNS: &[&str] = &[".lock()", ".read()", ".write()"];

/// How a function came to carry an effect bit or lock class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// A marker pattern in the function's own body.
    Local {
        /// 1-based line of the marker.
        line: usize,
        /// The marker text, e.g. `sync_all`.
        what: String,
    },
    /// Inherited through a call.
    Call {
        /// 1-based line of the call site.
        line: usize,
        /// The callee the effect arrived from.
        callee: FnId,
    },
}

/// Effect facts for every function in a [`CallGraph`].
#[derive(Debug)]
pub struct Effects {
    /// Effect bitset per function.
    pub bits: Vec<u8>,
    /// Witness for `FILE_IO`, per function.
    pub io_witness: Vec<Option<Witness>>,
    /// Witness for `WAITS_CONDVAR`, per function.
    pub wait_witness: Vec<Option<Witness>>,
    /// Witness for `MAY_PANIC`, per function.
    pub panic_witness: Vec<Option<Witness>>,
    /// Local panic sites per function: `(line, pattern)`.
    pub panic_sites: Vec<Vec<(usize, String)>>,
    /// Transitive set of lock classes acquired, per function.
    pub locks: Vec<BTreeSet<String>>,
    /// How `(fn, class)` acquires that class.
    pub lock_witness: BTreeMap<(FnId, String), Witness>,
}

/// Normalize a guard receiver expression to its lock class: the last dotted
/// component (`self.tables` -> `tables`, `lock.state` -> `state`).
pub fn lock_class(receiver: &str) -> String {
    receiver
        .rsplit('.')
        .next()
        .unwrap_or(receiver)
        .trim_matches(':')
        .to_string()
}

fn first_marker(body: &str, base: usize, code: &str, markers: &[&str]) -> Option<Witness> {
    markers
        .iter()
        .filter_map(|m| body.find(m).map(|p| (p, *m)))
        .min_by_key(|(p, _)| *p)
        .map(|(p, m)| Witness::Local {
            line: crate::scan::line_of(code, base + p),
            what: m.trim_matches(['.', '(']).to_string(),
        })
}

/// Compute local effects and propagate them to fixpoint.
///
/// `wait_exempt` marks functions whose *local* condvar waits do not count
/// (the lock manager parks waiters by design); their transitive waits still
/// propagate if a callee waits.
pub fn compute(graph: &CallGraph, files: &[crate::rules::LintFile<'_>]) -> Effects {
    let n = graph.fns.len();
    let mut fx = Effects {
        bits: vec![0; n],
        io_witness: vec![None; n],
        wait_witness: vec![None; n],
        panic_witness: vec![None; n],
        panic_sites: vec![Vec::new(); n],
        locks: vec![BTreeSet::new(); n],
        lock_witness: BTreeMap::new(),
    };

    // Seed local effects.
    for (id, f) in graph.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let code = &files[f.file].scrubbed.code;
        let body = &code[f.item.body_start..f.item.body_end];
        if let Some(w) = first_marker(body, f.item.body_start, code, IO_MARKERS) {
            fx.bits[id] |= FILE_IO;
            fx.io_witness[id] = Some(w);
        }
        if let Some(w) = first_marker(body, f.item.body_start, code, WAIT_MARKERS) {
            fx.bits[id] |= WAITS_CONDVAR;
            fx.wait_witness[id] = Some(w);
        }
        for pat in PANIC_PATTERNS {
            let mut search = 0usize;
            while let Some(p) = body[search..].find(pat) {
                let pos = search + p;
                search = pos + pat.len();
                let line = crate::scan::line_of(code, f.item.body_start + pos);
                fx.panic_sites[id].push((line, pat.trim_matches(['.', '(', '!']).to_string()));
            }
        }
        if !fx.panic_sites[id].is_empty() {
            fx.bits[id] |= MAY_PANIC;
            let (line, what) = fx.panic_sites[id][0].clone();
            fx.panic_witness[id] = Some(Witness::Local { line, what });
        }
        if f.item.ret().contains("Guard") {
            fx.bits[id] |= RETURNS_GUARD;
        }
        // Local lock classes.
        for pat in LOCK_PATTERNS {
            let mut search = 0usize;
            while let Some(p) = body[search..].find(pat) {
                let pos = f.item.body_start + search + p;
                search += p + pat.len();
                let class = lock_class(&crate::scan::receiver_of(code, pos));
                let line = crate::scan::line_of(code, pos);
                fx.locks[id].insert(class.clone());
                fx.lock_witness
                    .entry((id, class))
                    .or_insert(Witness::Local {
                        line,
                        what: pat.trim_matches(['.', '(']).to_string(),
                    });
            }
        }
    }

    // Propagate caller-ward to fixpoint. Only the transitive bits flow;
    // RETURNS_GUARD stays a signature property.
    let mut work: Vec<FnId> = (0..n).collect();
    while let Some(callee) = work.pop() {
        for &caller in &graph.callers[callee] {
            let line = graph.callees[caller]
                .iter()
                .find(|(c, _)| *c == callee)
                .map(|(_, l)| *l)
                .unwrap_or(graph.fns[caller].item.line);
            let mut changed = false;
            for (bit, witness) in [
                (FILE_IO, &mut fx.io_witness),
                (WAITS_CONDVAR, &mut fx.wait_witness),
                (MAY_PANIC, &mut fx.panic_witness),
            ] {
                if fx.bits[callee] & bit != 0 && fx.bits[caller] & bit == 0 {
                    fx.bits[caller] |= bit;
                    witness[caller] = Some(Witness::Call { line, callee });
                    changed = true;
                }
            }
            let new_classes: Vec<String> = fx.locks[callee]
                .difference(&fx.locks[caller])
                .cloned()
                .collect();
            for class in new_classes {
                fx.locks[caller].insert(class.clone());
                fx.lock_witness
                    .entry((caller, class))
                    .or_insert(Witness::Call { line, callee });
                changed = true;
            }
            if changed {
                work.push(caller);
            }
        }
    }
    fx
}

impl Effects {
    /// The call chain by which `id` reaches the effect tracked by `witness_of`,
    /// e.g. `a -> b -> c -> sync_all at crates/x.rs:12`. Starts *after* `id`.
    pub fn chain(
        &self,
        graph: &CallGraph,
        mut id: FnId,
        witness_of: impl Fn(&Effects, FnId) -> Option<Witness>,
    ) -> String {
        let mut parts = Vec::new();
        let mut hops = 0;
        loop {
            match witness_of(self, id) {
                Some(Witness::Call { callee, .. }) if hops < 24 => {
                    parts.push(graph.fns[callee].qual());
                    id = callee;
                    hops += 1;
                }
                Some(Witness::Local { line, what }) => {
                    parts.push(format!("`{what}` at {}:{line}", graph.fns[id].path));
                    break;
                }
                _ => break,
            }
        }
        parts.join(" -> ")
    }

    /// The call chain by which `id` comes to acquire lock `class`, ending at
    /// the actual acquisition site.
    pub fn lock_chain(&self, graph: &CallGraph, mut id: FnId, class: &str) -> String {
        let mut parts = vec![graph.fns[id].qual()];
        let mut hops = 0;
        while let Some(w) = self.lock_witness.get(&(id, class.to_string())) {
            match w {
                Witness::Call { callee, .. } if hops < 24 => {
                    parts.push(graph.fns[*callee].qual());
                    id = *callee;
                    hops += 1;
                }
                Witness::Local { line, .. } => {
                    parts.push(format!("`{class}` locked at {}:{line}", graph.fns[id].path));
                    break;
                }
                _ => break,
            }
        }
        parts.join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::LintFile;

    fn effects_of(srcs: &[(&str, &str)]) -> (CallGraph, Effects) {
        let owned: Vec<(String, String)> = srcs
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let files: Vec<LintFile<'_>> = owned
            .iter()
            .map(|(p, s)| LintFile::new(p, s).unwrap())
            .collect();
        let graph = crate::callgraph::build(&files).unwrap();
        let fx = compute(&graph, &files);
        (graph, fx)
    }

    fn id_of(g: &CallGraph, name: &str) -> FnId {
        g.fns.iter().position(|f| f.item.name == name).unwrap()
    }

    #[test]
    fn io_propagates_three_frames_up() {
        let (g, fx) = effects_of(&[(
            "crates/a/src/x.rs",
            "pub fn top() { mid(); }\n\
             pub fn mid() { low(); }\n\
             pub fn low() { file.sync_all(); }\n",
        )]);
        for name in ["top", "mid", "low"] {
            assert!(
                fx.bits[id_of(&g, name)] & FILE_IO != 0,
                "{name} must inherit FILE_IO"
            );
        }
        let chain = fx.chain(&g, id_of(&g, "top"), |fx, id| fx.io_witness[id].clone());
        assert!(chain.contains("mid") && chain.contains("low") && chain.contains("sync_all"));
    }

    #[test]
    fn panic_sites_and_bit() {
        let (g, fx) = effects_of(&[(
            "crates/a/src/x.rs",
            "pub fn decode() -> u32 { x.unwrap() }\npub fn entry() { decode(); }\n",
        )]);
        assert!(fx.bits[id_of(&g, "entry")] & MAY_PANIC != 0);
        assert_eq!(fx.panic_sites[id_of(&g, "decode")].len(), 1);
        assert!(fx.panic_sites[id_of(&g, "entry")].is_empty());
    }

    #[test]
    fn guard_return_is_signature_only_and_not_propagated() {
        let (g, fx) = effects_of(&[(
            "crates/a/src/x.rs",
            "impl P {\n  pub fn shard(&self) -> MutexGuard<'_, u32> { self.m.lock() }\n  \
             pub fn user(&self) { let g = self.shard(); }\n}\n",
        )]);
        assert!(fx.bits[id_of(&g, "shard")] & RETURNS_GUARD != 0);
        assert!(fx.bits[id_of(&g, "user")] & RETURNS_GUARD == 0);
    }

    #[test]
    fn lock_classes_accumulate_transitively() {
        let (g, fx) = effects_of(&[(
            "crates/a/src/x.rs",
            "impl P {\n  fn inner(&self) { let g = self.state.lock(); }\n  \
             pub fn outer(&self) { let a = self.tables.lock(); self.inner(); }\n}\n",
        )]);
        let outer = id_of(&g, "outer");
        assert!(fx.locks[outer].contains("state"));
        assert!(fx.locks[outer].contains("tables"));
    }

    #[test]
    fn test_code_seeds_no_effects() {
        let (g, fx) = effects_of(&[(
            "crates/a/src/x.rs",
            "pub fn live() {}\n#[cfg(test)]\nmod tests {\n  \
             fn t() { x.unwrap(); f.sync_all(); }\n}\n",
        )]);
        assert_eq!(fx.bits[id_of(&g, "live")], 0);
        let t = id_of(&g, "t");
        assert_eq!(fx.bits[t], 0, "test fns contribute no effect seeds");
    }

    #[test]
    fn recursion_terminates() {
        let (_, fx) = effects_of(&[(
            "crates/a/src/x.rs",
            "pub fn ping(n: u32) { pong(n); }\npub fn pong(n: u32) { ping(n); f.sync_all(); }\n",
        )]);
        assert!(fx.bits.iter().all(|b| b & FILE_IO != 0));
    }

    #[test]
    fn lock_class_normalizes_receivers() {
        assert_eq!(lock_class("self.tables"), "tables");
        assert_eq!(lock_class("lock.state"), "state");
        assert_eq!(lock_class("shard"), "shard");
    }
}
