//! End-to-end self-tests for delta-lint.
//!
//! Two directions: the real workspace must be clean (this is the same gate CI
//! runs), and a planted violation in a synthetic tree must be caught — proving
//! a green run means "analyzed and passed", not "analyzed nothing".

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels below the workspace root")
        .to_path_buf()
}

fn temp_tree(name: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("delta-lint-selftest-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/engine/src")).unwrap();
    root
}

#[test]
fn real_workspace_is_clean() {
    let findings = delta_lint::run(&workspace_root()).unwrap();
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn planted_unwrap_in_recovery_path_is_caught() {
    let root = temp_tree("unwrap");
    fs::write(
        root.join("crates/engine/src/wal.rs"),
        r#"
/// Recover the log.
pub fn recover(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[0..8].try_into().unwrap())
}
"#,
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    assert!(
        findings.iter().any(|f| f.rule == "panic-freedom"),
        "planted unwrap must be flagged, got: {findings:?}"
    );
}

#[test]
fn planted_guard_across_io_is_caught() {
    let root = temp_tree("lockio");
    fs::write(
        root.join("crates/engine/src/wal.rs"),
        r#"
use std::fs::File;
use parking_lot::Mutex;

/// Holds a guard across file creation: a lock-hygiene violation.
pub fn bad(m: &Mutex<u32>) {
    let guard = m.lock();
    let _f = File::create("/tmp/x").ok();
    drop(guard);
}
"#,
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    assert!(
        findings.iter().any(|f| f.rule == "lock-hygiene"),
        "guard across I/O must be flagged, got: {findings:?}"
    );
}

#[test]
fn planted_page_io_under_shard_lock_is_caught() {
    // The sharded buffer pool's contract: miss reads and eviction writebacks
    // happen strictly outside the shard lock. A regression that re-introduces
    // page I/O under a guard must be a hard violation, with no suppression
    // left in the real buffer.rs to hide behind.
    let root = temp_tree("pageio");
    fs::create_dir_all(root.join("crates/storage/src")).unwrap();
    fs::write(
        root.join("crates/storage/src/buffer.rs"),
        r#"
/// Locate a page, reading it from disk on a miss.
pub fn locate(&self, pid: PageId) -> StorageResult<usize> {
    let mut inner = self.shard.lock();
    let file = self.file(pid.file)?;
    file.read_page(pid.page_no, &mut buf)?;
    Ok(0)
}
"#,
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "lock-hygiene" && f.message.contains("read_page")),
        "page I/O under a shard lock must be flagged, got: {findings:?}"
    );
}

#[test]
fn planted_positional_page_io_under_a_shard_lock_is_caught() {
    // Page I/O is positional (`read_exact_at`/`write_all_at`): a write
    // under the guard, and a read a helper call away, must both be seen.
    let root = temp_tree("posio");
    fs::create_dir_all(root.join("crates/storage/src")).unwrap();
    fs::write(
        root.join("crates/storage/src/buffer.rs"),
        r#"
use std::os::unix::fs::FileExt;

/// Write a page while the shard is locked.
pub fn write_locked(&self, file: &std::fs::File, page: &[u8]) {
    let inner = self.shard.lock();
    let _ = file.write_all_at(page, 0);
    drop(inner);
}

/// Read a page through a helper while the shard is locked.
pub fn read_locked(&self, file: &std::fs::File, page: &mut [u8]) {
    let inner = self.shard.lock();
    read_at(file, page);
    drop(inner);
}

fn read_at(file: &std::fs::File, page: &mut [u8]) {
    let _ = file.read_exact_at(page, 0);
}
"#,
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    let io_under_guard = |what: &str| {
        findings
            .iter()
            .any(|f| f.rule == "lock-hygiene" && f.message.contains(what))
    };
    assert!(
        io_under_guard("write_all_at"),
        "a positional write under a shard lock must be flagged, got: {findings:?}"
    );
    assert!(
        io_under_guard("read_exact_at"),
        "a positional read a call below a shard lock must be flagged, got: {findings:?}"
    );
}

/// A guard held across a Condvar wait, WAL-style, with a configurable
/// comment line above the acquisition.
fn condvar_wait_src(comment: &str) -> String {
    format!(
        r#"
use parking_lot::{{Condvar, Mutex}};

/// Block until the group leader publishes our LSN.
pub fn follow(seq: &Mutex<u64>, cv: &Condvar, last: u64) {{
    {comment}
    let mut g = seq.lock();
    while *g < last {{
        cv.wait(&mut g);
    }}
}}
"#
    )
}

#[test]
fn condvar_wait_without_suppression_is_caught_even_in_wal() {
    // The real wal.rs sanctions its group-commit wait with a reasoned
    // suppression at the call site. That allowance must not be a file-wide
    // exemption: the same wait planted WITHOUT the suppression is flagged.
    let root = temp_tree("wait-wal");
    fs::write(
        root.join("crates/engine/src/wal.rs"),
        condvar_wait_src("// no suppression here"),
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "lock-hygiene" && f.message.contains("Condvar")),
        "unsanctioned condvar wait in wal.rs must be flagged, got: {findings:?}"
    );
}

#[test]
fn reasoned_suppression_sanctions_the_wait() {
    let root = temp_tree("wait-ok");
    fs::write(
        root.join("crates/engine/src/wal.rs"),
        condvar_wait_src(
            "// lint: allow(lock_hygiene) -- group-commit wait: the condvar \
             releases the sequencer lock while parked",
        ),
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    assert!(
        findings.is_empty(),
        "reasoned suppression must sanction the wait cleanly, got: {findings:?}"
    );
}

#[test]
fn wait_allowance_does_not_leak_to_other_modules() {
    // The identical unsanctioned wait in a different engine module is
    // flagged too — only crates/engine/src/lock.rs is structurally exempt.
    let root = temp_tree("wait-other");
    fs::write(
        root.join("crates/engine/src/txn.rs"),
        condvar_wait_src("// no suppression here"),
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    assert!(
        findings.iter().any(|f| f.rule == "lock-hygiene"
            && f.path == "crates/engine/src/txn.rs"
            && f.message.contains("Condvar")),
        "wait in a non-exempt module must be flagged, got: {findings:?}"
    );
}

#[test]
fn bare_suppression_is_flagged_end_to_end() {
    // A suppression without a reason silences lock-hygiene but trips
    // suppression-hygiene, so the run still fails.
    let root = temp_tree("wait-bare");
    fs::write(
        root.join("crates/engine/src/wal.rs"),
        condvar_wait_src("// lint: allow(lock_hygiene)"),
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    assert!(
        !findings.iter().any(|f| f.rule == "lock-hygiene"),
        "the bare tag still silences lock-hygiene, got: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == "suppression-hygiene"),
        "a reasonless suppression must be flagged, got: {findings:?}"
    );
}

#[test]
fn planted_transitive_io_three_frames_down_is_caught() {
    // The I/O is nowhere near the guard textually: it sits three calls down
    // the workspace call graph. Only interprocedural effect propagation can
    // see it.
    let root = temp_tree("transio");
    fs::write(
        root.join("crates/engine/src/pool.rs"),
        r#"
use parking_lot::Mutex;

/// Holds the pool guard across a helper that does I/O three frames down.
pub fn evict(m: &Mutex<u32>) {
    let g = m.lock();
    frame_one();
    drop(g);
}

fn frame_one() {
    frame_two();
}

fn frame_two() {
    frame_three();
}

fn frame_three() {
    let _ = std::fs::write("/tmp/spill", b"page");
}
"#,
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    let hit = findings
        .iter()
        .find(|f| f.rule == "lock-hygiene" && f.message.contains("performs file I/O"))
        .unwrap_or_else(|| panic!("transitive I/O under guard must be flagged, got: {findings:?}"));
    assert!(
        hit.message.contains("frame_two"),
        "the finding must print the call chain through intermediate frames, got: {}",
        hit.message
    );
    assert!(
        hit.message.contains("fs::write"),
        "the finding must name the I/O sink, got: {}",
        hit.message
    );
}

#[test]
fn planted_guard_returning_helper_without_annotation_is_caught() {
    // A helper that hands a live guard to its caller must annotate the
    // acquisition with `// lock-order: <n>` — callers inherit the lock
    // without seeing it.
    let root = temp_tree("guardhelper");
    fs::write(
        root.join("crates/engine/src/pool.rs"),
        r#"
use parking_lot::{Mutex, MutexGuard};

pub struct Pool {
    inner: Mutex<u32>,
}

impl Pool {
    fn shard_guard(&self) -> MutexGuard<'_, u32> {
        self.inner.lock()
    }

    /// Uses the helper's guard.
    pub fn bump(&self) {
        let g = self.shard_guard();
        drop(g);
    }
}
"#,
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "lock-hygiene" && f.message.contains("returns a live lock guard")),
        "unannotated guard-returning helper must be flagged, got: {findings:?}"
    );

    // The same helper with the annotation is clean.
    let root2 = temp_tree("guardhelper-ok");
    fs::write(
        root2.join("crates/engine/src/pool.rs"),
        r#"
use parking_lot::{Mutex, MutexGuard};

pub struct Pool {
    inner: Mutex<u32>,
}

impl Pool {
    fn shard_guard(&self) -> MutexGuard<'_, u32> {
        // lock-order: 1
        self.inner.lock()
    }

    /// Uses the helper's guard.
    pub fn bump(&self) {
        let g = self.shard_guard();
        drop(g);
    }
}
"#,
    )
    .unwrap();
    let findings = delta_lint::run(&root2).unwrap();
    assert!(
        !findings
            .iter()
            .any(|f| f.message.contains("returns a live lock guard")),
        "annotated guard-returning helper must pass, got: {findings:?}"
    );
}

#[test]
fn planted_panic_reachable_across_crates_is_caught_with_chain() {
    // The panic site lives in a file with no panic-freedom scope of its own;
    // only reachability from a recovery entry (`apply`) in ANOTHER crate
    // flags it — with the full call chain in the message.
    let root = temp_tree("reach");
    fs::create_dir_all(root.join("crates/core/src")).unwrap();
    fs::create_dir_all(root.join("crates/warehouse/src")).unwrap();
    fs::write(
        root.join("crates/warehouse/src/refresh.rs"),
        r#"
/// Apply one delta batch to the warehouse copy.
pub fn apply(batch: &[u8]) -> u64 {
    decode_header(batch)
}
"#,
    )
    .unwrap();
    fs::write(
        root.join("crates/core/src/wire.rs"),
        r#"
/// Decode the batch header.
pub fn decode_header(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[0..8].try_into().unwrap())
}
"#,
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    let hit = findings
        .iter()
        .find(|f| f.rule == "panic-reachability")
        .unwrap_or_else(|| {
            panic!("panic reachable from recovery entry must be flagged, got: {findings:?}")
        });
    assert_eq!(hit.path, "crates/core/src/wire.rs");
    assert!(
        hit.message.contains("apply") && hit.message.contains("decode_header"),
        "the finding must print the entry chain, got: {}",
        hit.message
    );
}

#[test]
fn planted_abba_cycle_across_two_functions_prints_both_chains() {
    // `forward` nests a under b, `backward` nests b under a: a classic ABBA
    // deadlock that no single function exhibits. The static pass must join
    // the two orders into a cycle and print BOTH offending chains.
    let root = temp_tree("abba");
    fs::write(
        root.join("crates/engine/src/shards.rs"),
        r#"
use parking_lot::Mutex;

pub struct Shards {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Shards {
    /// Takes alpha, then beta.
    pub fn forward(&self) {
        // lint: allow(lock_hygiene) -- planted: order declared ad hoc
        let ga = self.alpha.lock();
        // lint: allow(lock_hygiene) -- planted: order declared ad hoc
        let gb = self.beta.lock();
        drop(gb);
        drop(ga);
    }

    /// Takes beta, then alpha.
    pub fn backward(&self) {
        // lint: allow(lock_hygiene) -- planted: order declared ad hoc
        let gb = self.beta.lock();
        // lint: allow(lock_hygiene) -- planted: order declared ad hoc
        let ga = self.alpha.lock();
        drop(ga);
        drop(gb);
    }
}
"#,
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    let cycle = findings
        .iter()
        .find(|f| f.rule == "lock-order-cycle")
        .unwrap_or_else(|| panic!("ABBA nesting must produce a cycle finding, got: {findings:?}"));
    assert!(
        cycle.message.contains("alpha -> beta") && cycle.message.contains("beta -> alpha"),
        "both edges of the cycle must be printed, got: {}",
        cycle.message
    );
    assert!(
        cycle.message.contains("forward") && cycle.message.contains("backward"),
        "each edge must carry the function it was observed in, got: {}",
        cycle.message
    );
    // The suppressions silence lock-hygiene's per-site nagging but must NOT
    // silence the global deadlock pass.
    assert!(
        !findings.iter().any(|f| f.rule == "lock-hygiene"),
        "per-site suppressions should have silenced lock-hygiene, got: {findings:?}"
    );
}

#[test]
fn allowlist_suppresses_planted_violation() {
    let root = temp_tree("allow");
    fs::write(
        root.join("crates/engine/src/wal.rs"),
        r#"
/// Recover the log.
pub fn recover(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[0..8].try_into().unwrap())
}
"#,
    )
    .unwrap();
    fs::create_dir_all(root.join("crates/lint")).unwrap();
    fs::write(
        root.join("crates/lint/allowlist.txt"),
        "crates/engine/src/wal.rs: try_into().unwrap()\n",
    )
    .unwrap();
    let findings = delta_lint::run(&root).unwrap();
    assert!(
        !findings.iter().any(|f| f.rule == "panic-freedom"),
        "allowlisted line must not be flagged, got: {findings:?}"
    );
}
