//! Anti-entropy audit and self-healing repair (DESIGN.md §14).
//!
//! The pipeline survives crashes, lossy links, and poison batches — but
//! nothing upstream *detects* silent divergence: a quarantined batch never
//! applied, a bit-flipped page the scrubber flagged, an operator's stray
//! UPDATE on the warehouse. This module closes the loop:
//!
//! 1. **Digest** — the source snapshots the audited table (streaming,
//!    through the normal snapshot machinery) and builds a range digest
//!    ([`delta_core::digest`]); the digest ships to the warehouse over the
//!    pipeline's audit side channel as one compact batch.
//! 2. **Localize** — the warehouse digests its mirror under the *same*
//!    bucketing (the span travels inside the digest) and compares trees
//!    hierarchically; equal subtrees prune, so divergence is pinned to
//!    bounded key ranges.
//! 3. **Repair** — both snapshots are filtered to the diverged ranges and
//!    handed to the paper's own snapshot-differential diff
//!    ([`diff_snapshots`]), old = warehouse, new = source; the resulting
//!    delta ships through the **normal** queue and applies under the same
//!    watermark/ack machinery as live traffic — repair is just more deltas.
//!    Views over the table fold that delta like any other, so before it
//!    ships every view that no longer equals the (diverged) mirror is
//!    rebuilt from it ([`Warehouse::reconcile_views`]).
//! 4. **Reconcile** — DLQ entries quarantined *before* the audit watermark
//!    that target the audited table are superseded by the repair (the
//!    source snapshot already reflects whatever they carried) and are
//!    marked resolved.
//!
//! Interleaving contract (DBLog-style, see DESIGN.md §14): extraction for
//! the audited tables must be quiescent for the duration of the audit —
//! publish pending deltas first, pause publishing until
//! [`audit_and_repair`] returns. Every live delta is then either ≤ the
//! audit watermark (drained before the snapshot, so the digest sees it) or
//! published after the repair batches (applies later and wins). Traffic
//! for other tables flows freely throughout.
//!
//! This pass is also how a log extractor that lost part of the log is
//! settled: when `ResilientLogExtractor::stage` fails with
//! [`EngineError::AuditOwed`], audit the tables it names with their writers
//! paused, then call `ResilientLogExtractor::audited` before they resume
//! (DESIGN.md §25).

use std::path::{Path, PathBuf};

use delta_core::digest::{
    compare_digests, digest_snapshot, digest_table, filter_snapshot, DigestParams, KeyRange,
    TableDigest, DEFAULT_TARGET_LEAVES,
};
use delta_core::model::{DeltaBatch, ValueDelta};
use delta_core::snapshot::{take_snapshot, DiffAlgorithm};
use delta_engine::db::Database;
use delta_engine::{EngineError, EngineResult};
use delta_storage::colbatch::RowSource;
use delta_storage::Cell;

use crate::apply::Warehouse;
use crate::pipeline::Pipeline;

/// Snapshot-diff algorithm of the scoped repair.
const REPAIR_DIFF: DiffAlgorithm = DiffAlgorithm::SortMerge { run_size: 4096 };
/// Bound on drain rounds while waiting for the queue to settle (lossy links
/// legitimately need several).
const MAX_DRAIN_SYNCS: u64 = 1000;
/// Rows per published repair batch (bounds batch size and lets the
/// scheduler interleave repair with other tables' traffic).
const REPAIR_CHUNK_ROWS: usize = 512;

/// The audit has no settings; nothing reads this type. It stays only
/// because the frozen dwbench harness passes `&AuditConfig::default()`, and
/// ROADMAP item 3(a)'s benchmark PR removes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditConfig {}

/// Outcome of auditing one table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableAudit {
    /// Audited table.
    pub table: String,
    /// Key ranges the digests disagreed on (empty = already consistent).
    pub diverged_ranges: Vec<KeyRange>,
    /// Tree nodes compared before pruning bottomed out.
    pub nodes_compared: u64,
    /// Leaf pairs inspected after pruning.
    pub leaves_compared: u64,
    /// Repair delta records shipped for this table.
    pub repair_records: u64,
    /// Repair batches published.
    pub repair_batches: u64,
    /// DLQ entries this table's repair superseded.
    pub dlq_resolved: u64,
    /// Views over this table rebuilt before the repair shipped, because
    /// they summarised rows the diverged mirror no longer held
    /// ([`Warehouse::reconcile_views`]).
    pub views_rebuilt: u64,
    /// The warehouse's digest after the repair equals the source's (true
    /// when the table started consistent).
    pub converged: bool,
}

/// Aggregate outcome of one [`audit_and_repair`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Per-table outcomes, in audit order.
    pub tables: Vec<TableAudit>,
    /// Queue sequence watermark the audit ran at: every delta published
    /// before it was drained into the warehouse before digesting.
    pub audit_watermark: u64,
    /// Digest bytes shipped over the audit side channel.
    pub digest_bytes: u64,
    /// Spool bytes the repair batches added to the main queue (framing
    /// included — the honest wire cost of repair).
    pub repair_bytes: u64,
    /// Bytes a full reload of every audited table would have shipped
    /// (summed source snapshot sizes) — the denominator of the ≤ 5% gate.
    pub full_snapshot_bytes: u64,
    /// Sync rounds spent draining (pre-audit settle + post-repair apply).
    pub drain_syncs: u64,
}

impl AuditReport {
    /// Whether every audited table ended consistent.
    pub fn converged(&self) -> bool {
        self.tables.iter().all(|t| t.converged)
    }

    /// Whether any table needed repair at all.
    pub fn diverged(&self) -> bool {
        self.tables.iter().any(|t| !t.diverged_ranges.is_empty())
    }

    /// Total repair records shipped across all tables.
    pub fn repair_records(&self) -> u64 {
        self.tables.iter().map(|t| t.repair_records).sum()
    }

    /// Total DLQ entries resolved across all tables.
    pub fn dlq_resolved(&self) -> u64 {
        self.tables.iter().map(|t| t.dlq_resolved).sum()
    }
}

/// Drain the pipeline until everything published so far is acknowledged
/// (lossy links need several rounds). Returns the rounds used.
fn drain(pipe: &Pipeline, wh: &Warehouse, max_rounds: u64) -> EngineResult<u64> {
    let mut rounds = 0;
    while rounds < max_rounds {
        let target = pipe.queue().total();
        if pipe.queue().acked() >= target && pipe.queue().pending() == 0 {
            return Ok(rounds);
        }
        pipe.sync(wh)?;
        rounds += 1;
    }
    let target = pipe.queue().total();
    if pipe.queue().acked() >= target && pipe.queue().pending() == 0 {
        return Ok(rounds);
    }
    Err(EngineError::Invalid(format!(
        "audit drain did not settle after {max_rounds} sync rounds (acked {} of {target})",
        pipe.queue().acked()
    )))
}

/// Scan a snapshot once to find the key column's min/max (for digest
/// bucketing), reading each key where its decoded block holds it. `None`
/// when the snapshot is empty.
fn snapshot_key_bounds(path: &Path, key_pos: usize) -> EngineResult<Option<(i64, i64)>> {
    let mut src = RowSource::open(path).map_err(EngineError::Storage)?;
    let mut bounds: Option<(i64, i64)> = None;
    while let Some(block) = src.next_block().map_err(EngineError::Storage)? {
        for r in 0..block.len() {
            let key = (key_pos < block.arity(r)).then(|| block.cell(r, key_pos));
            let Some(Cell::Int(k)) = key else {
                return Err(EngineError::Invalid(format!(
                    "audit key column {key_pos} must be an integer"
                )));
            };
            bounds = Some(match bounds {
                None => (k, k),
                Some((lo, hi)) => (lo.min(k), hi.max(k)),
            });
        }
    }
    Ok(bounds)
}

/// Ship `digest` over the pipeline's audit side channel and hand back the
/// decoded copy the "warehouse side" received — the real transport leg of
/// the digest exchange, CRC-framed end to end.
fn exchange_digest(pipe: &Pipeline, digest: &TableDigest) -> EngineResult<(TableDigest, u64)> {
    let audit_q = pipe.audit_queue()?;
    // A prior audit that crashed between enqueue and ack leaves its stale
    // digest as the next unacked frame; discard the leftovers so the
    // dequeue below hands back the digest shipped *this* exchange.
    let stale = audit_q.total();
    if audit_q.acked() < stale {
        audit_q.rewind_to(stale);
        audit_q.ack(stale - 1).map_err(EngineError::Storage)?;
    }
    let encoded = digest.encode();
    let bytes = encoded.len() as u64;
    audit_q.enqueue(&encoded).map_err(EngineError::Storage)?;
    let Some((idx, payload)) = audit_q.dequeue().map_err(EngineError::Storage)? else {
        return Err(EngineError::Invalid(
            "audit channel dropped the digest batch".into(),
        ));
    };
    audit_q.ack(idx).map_err(EngineError::Storage)?;
    let received = TableDigest::decode(&payload).map_err(EngineError::Storage)?;
    if received.table != digest.table {
        return Err(EngineError::Invalid(format!(
            "audit channel delivered a digest for '{}' while exchanging '{}'",
            received.table, digest.table
        )));
    }
    Ok((received, bytes))
}

/// Publish the repair delta in bounded chunks through the normal queue.
/// Returns (batches, records, spool bytes added).
fn publish_repair(
    pipe: &Pipeline,
    delta: ValueDelta,
    chunk_rows: usize,
) -> EngineResult<(u64, u64, u64)> {
    let spool_before = pipe.queue().spool_bytes();
    let mut batches = 0u64;
    let mut records = 0u64;
    let chunk = chunk_rows.max(1);
    let mut remaining = delta.records;
    while !remaining.is_empty() {
        let tail = remaining.split_off(remaining.len().min(chunk));
        let mut vd = ValueDelta::new(&delta.table, delta.schema.clone());
        records += remaining.len() as u64;
        vd.records = remaining;
        pipe.publish(&DeltaBatch::Value(vd))?;
        batches += 1;
        remaining = tail;
    }
    Ok((batches, records, pipe.queue().spool_bytes() - spool_before))
}

/// Resolve DLQ entries the repair of `table` supersedes: quarantined
/// before the audit watermark and decoding to a value batch for `table`
/// (the source snapshot already reflects whatever they carried, so
/// re-applying them could only re-diverge the mirror). Returns the count.
fn reconcile_dlq(pipe: &Pipeline, table: &str, watermark: u64) -> EngineResult<u64> {
    // One pass: the open-entry set is read once and every superseded id is
    // appended to the resolved sidecar in a single batch, so reconciliation
    // stays O(DLQ size) instead of re-reading the spool per entry.
    let superseded: Vec<u64> = pipe
        .dlq_entries()?
        .into_iter()
        .filter(|entry| entry.index < watermark) // older than the audit snapshot
        .filter(|entry| match DeltaBatch::from_bytes(&entry.payload) {
            Ok(DeltaBatch::Value(vd)) => vd.table == table,
            _ => false, // op batches and undecodable payloads: keep for the operator
        })
        .map(|entry| entry.index)
        .collect();
    pipe.mark_resolved_batch(&superseded)?;
    Ok(superseded.len() as u64)
}

/// Scratch directory for one audit pass's snapshot files, removed with
/// everything in it when the pass ends, however it ends. Every table reuses
/// the same file names, so it holds one table's files at a time.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> EngineResult<Scratch> {
        let dir = std::env::temp_dir().join(format!(
            "delta-audit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Audit `tables` of `source` against their mirrors in `wh`, repairing any
/// divergence through `pipe` (see the module docs for the full protocol and
/// the quiescence contract). Works table by table: settle the queue, digest
/// both sides, localize, ship a scoped snapshot-differential repair,
/// reconcile superseded DLQ entries, drain, and verify.
pub fn audit_and_repair(
    source: &Database,
    pipe: &Pipeline,
    wh: &Warehouse,
    tables: &[&str],
    _cfg: &AuditConfig,
) -> EngineResult<AuditReport> {
    let mut report = AuditReport {
        audit_watermark: pipe.queue().total(),
        ..AuditReport::default()
    };
    report.drain_syncs += drain(pipe, wh, MAX_DRAIN_SYNCS)?;
    let scratch = Scratch::create()?;
    let dir = &scratch.0;
    for &table in tables {
        let mirror = wh.mirror(table)?;
        if !matches!(mirror.scope, delta_core::selfmaint::MirrorScope::Full) {
            return Err(EngineError::Invalid(format!(
                "audit requires a full mirror of '{table}' (projected mirrors cannot be compared byte-equal)"
            )));
        }
        let schema = mirror.source_schema.clone();
        let pk = schema.primary_key_indices();
        let (Some(&key_pos), true) = (pk.first(), pk.len() == 1) else {
            return Err(EngineError::Invalid(format!(
                "audit of '{table}' requires a single-column primary key"
            )));
        };
        let mut audit = TableAudit {
            table: table.to_string(),
            converged: true,
            ..TableAudit::default()
        };

        // Digest the source from a streaming snapshot scan.
        let src_snap = dir.join("src.snap");
        take_snapshot(source, table, &src_snap)?;
        report.full_snapshot_bytes += std::fs::metadata(&src_snap)?.len();
        let params = match snapshot_key_bounds(&src_snap, key_pos)? {
            Some((lo, hi)) => DigestParams::for_key_range(lo, hi, DEFAULT_TARGET_LEAVES),
            None => DigestParams::with_span(1),
        };
        let src_digest =
            digest_snapshot(table, key_pos, &src_snap, params).map_err(EngineError::Storage)?;

        // Ship it; the warehouse digests its mirror under the shipped span.
        let (received, digest_bytes) = exchange_digest(pipe, &src_digest)?;
        report.digest_bytes += digest_bytes;
        let wh_digest = digest_table(
            wh.db(),
            table,
            key_pos,
            DigestParams::with_span(received.span),
        )?;
        let diff = compare_digests(&received, &wh_digest).map_err(EngineError::Storage)?;
        audit.nodes_compared = diff.nodes_compared;
        audit.leaves_compared = diff.leaves_compared;
        audit.diverged_ranges = diff.ranges.clone();

        // DLQ entries older than the audit watermark are superseded whether
        // or not the table diverged: the digest exchange just proved the
        // source snapshot already reflects (or obsoletes) whatever they
        // carried.
        audit.dlq_resolved = reconcile_dlq(pipe, table, report.audit_watermark)?;

        if !diff.ranges.is_empty() {
            // Scoped snapshot-differential repair over the diverged ranges.
            let wh_snap = dir.join("wh.snap");
            take_snapshot(wh.db(), table, &wh_snap)?;
            let src_scoped = dir.join("src.scoped");
            let wh_scoped = dir.join("wh.scoped");
            filter_snapshot(&src_snap, key_pos, &diff.ranges, &src_scoped)
                .map_err(EngineError::Storage)?;
            filter_snapshot(&wh_snap, key_pos, &diff.ranges, &wh_scoped)
                .map_err(EngineError::Storage)?;
            let (repair, _stats) = delta_core::snapshot::diff_snapshots(
                table,
                &schema,
                &pk,
                &wh_scoped,
                &src_scoped,
                REPAIR_DIFF,
            )
            .map_err(EngineError::Storage)?;
            // The repair's before images will be the diverged rows as the
            // mirror stores them; the views must summarise those rows, not
            // the ones the mirror held before it diverged, or the repair
            // folds out what was never folded in.
            audit.views_rebuilt = wh.reconcile_views(table)?;
            let (batches, records, bytes) = publish_repair(pipe, repair, REPAIR_CHUNK_ROWS)?;
            audit.repair_batches = batches;
            audit.repair_records = records;
            report.repair_bytes += bytes;

            report.drain_syncs += drain(pipe, wh, MAX_DRAIN_SYNCS)?;

            let after = digest_table(
                wh.db(),
                table,
                key_pos,
                DigestParams::with_span(received.span),
            )?;
            audit.converged = compare_digests(&received, &after)
                .map_err(EngineError::Storage)?
                .converged();
        }
        report.tables.push(audit);
    }
    Ok(report)
}
