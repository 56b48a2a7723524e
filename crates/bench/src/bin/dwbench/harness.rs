//! What the four workloads share: opening the two databases with the fixed
//! engine options, the timed calls into each layer, the per-repetition
//! accounting, and the correctness gate.
//!
//! The product crates are driven only through their public APIs. Every call
//! goes through a [`Tracer`] span named `layer.call`, so the same code
//! serves the untraced runs (totals only) and the traced run (spans kept).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use delta_core::logextract::ResilientLogExtractor;
use delta_core::model::{DeltaBatch, ValueDelta};
use delta_core::opdelta::{clear_table, collect_from_file, collect_from_table, OpDeltaCapture};
use delta_core::selfmaint::{MaintRequirement, SelfMaintAnalyzer};
use delta_core::stmtcache::CacheStats;
use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_engine::wal::WalStats;
use delta_engine::{EngineError, Session};
use delta_sql::ast::{AggFunc, Statement};
use delta_sql::parser::parse_statement;
use delta_storage::colbatch::DEFAULT_BLOCK_ROWS;
use delta_storage::{BufferPoolStats, DeltaCodec};
use delta_warehouse::{
    audit_and_repair, AggSpec, AggViewDef, AuditConfig, MirrorConfig, Pipeline, RetryPolicy,
    SyncReport, Warehouse,
};

use crate::gen;
use crate::stats;
use crate::trace::Tracer;

pub type Res<T> = Result<T, String>;

/// `map_err` adapter that prefixes the failing step.
pub fn ctx<E: Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// Fixed engine options, recorded in every result document.
pub const SYNC_WORKERS: usize = 2;
pub const SYNC_BATCH: u64 = 64;
pub const RETRY_ATTEMPTS: u32 = 3;
pub const CODEC: DeltaCodec = DeltaCodec::Columnar;
/// Pool size of the workloads that fit in cache (32 MiB of 8 KiB pages).
pub const POOL_PAGES: usize = 4096;
/// Lock wait budget on both databases. Generous on purpose: an OLAP query
/// stuck behind an apply wave then shows up as latency, not as a failed
/// operation, and no workload fails an operation by design.
pub const LOCK_TIMEOUT: Duration = Duration::from_secs(5);

/// Source + warehouse + the queue between them, under one scratch directory.
pub struct Site {
    pub dir: PathBuf,
    pub src: Arc<Database>,
    pub wh: Warehouse,
    pub pipe: Pipeline,
    /// Bytes left in the source's active WAL segment after the last
    /// checkpoint (already counted, or segment header).
    wal_leftover: u64,
}

fn db_options(dir: PathBuf, pool_pages: usize, archive: bool) -> DbOptions {
    let mut opts = DbOptions::new(dir).sync(SyncMode::Flush).archive(archive);
    opts.buffer_pool_pages = pool_pages;
    opts.lock_timeout = LOCK_TIMEOUT;
    opts.delta_codec = CODEC;
    opts
}

impl Site {
    /// Open fresh databases and an empty queue under `dir`. `archive` turns
    /// on WAL archiving at the source (needed by log extraction).
    pub fn open(dir: &Path, src_pool: usize, wh_pool: usize, archive: bool) -> Res<Site> {
        std::fs::create_dir_all(dir).map_err(ctx("scratch dir"))?;
        let src = Database::open(db_options(dir.join("source"), src_pool, archive))
            .map_err(ctx("open source"))?;
        let wh_db = Database::open(db_options(dir.join("warehouse"), wh_pool, false))
            .map_err(ctx("open warehouse"))?;
        let pipe = Pipeline::open(dir.join("ship.q"))
            .and_then(|p| p.with_retry(RetryPolicy::quick(RETRY_ATTEMPTS)))
            .map_err(ctx("open pipeline"))?
            .with_sync_workers(SYNC_WORKERS)
            .with_batch_size(SYNC_BATCH)
            .with_codec(CODEC);
        Ok(Site {
            dir: dir.to_path_buf(),
            src,
            wh: Warehouse::new(wh_db),
            pipe,
            wal_leftover: 0,
        })
    }

    /// Create `table` at the source and mirror it (fully, or only `columns`)
    /// at the warehouse.
    pub fn add_table(&mut self, table: &str, columns: Option<&[&str]>) -> Res<()> {
        self.src
            .session()
            .execute(&format!("CREATE TABLE {table} {}", gen::COLUMNS_DDL))
            .map_err(ctx("create source table"))?;
        let schema = self
            .src
            .table(table)
            .map_err(ctx("source schema"))?
            .schema
            .clone();
        let mirror = match columns {
            None => MirrorConfig::full(table, schema),
            Some(cols) => MirrorConfig::projected(table, schema, cols),
        };
        self.wh.add_mirror(mirror).map_err(ctx("add mirror"))
    }

    /// A COUNT/SUM-by-`grp` aggregate view over `table`'s mirror, with MIN and
    /// MAX too when `extremes` is set. (A MIN/MAX view rescans its base table
    /// whenever a group's extreme row changes, so it belongs on small tables.)
    pub fn add_agg_view(&mut self, table: &str, extremes: bool) -> Res<()> {
        let mut aggregates = vec![AggSpec::count_star(), AggSpec::of(AggFunc::Sum, "val")];
        if extremes {
            aggregates.push(AggSpec::of(AggFunc::Min, "val"));
            aggregates.push(AggSpec::of(AggFunc::Max, "val"));
        }
        self.wh
            .add_agg_view(AggViewDef {
                name: agg_view_name(table),
                table: table.to_string(),
                group_by: vec!["grp".into()],
                aggregates,
                selection: None,
            })
            .map_err(ctx("add aggregate view"))
    }
}

pub fn agg_view_name(table: &str) -> String {
    format!("{table}_by_grp")
}

/// What one repetition measured. Timings are samples; counters are deltas
/// of the public stat structs read before and after.
#[derive(Default)]
pub struct Rep {
    /// Source rows changed (sum of `affected`).
    pub rows: u64,
    /// Wall-clock seconds of the closed loop (sum of round spans).
    pub round_s: f64,
    /// The part of `round_s` that a wall-clock schedule fixes (the open
    /// loop's writer); the machine's speed has no say in it.
    pub scheduled_s: f64,
    pub rounds: u64,
    pub txn_us: Vec<f64>,
    pub fresh_ms: Vec<f64>,
    /// The part of each freshness sample that a wall-clock schedule fixed:
    /// the wait for the next scheduled round of the open loop. Empty on the
    /// closed loops, where a round follows its transactions at once.
    pub fresh_scheduled_ms: Vec<f64>,
    pub olap_ms: Vec<f64>,
    /// Spool bytes enqueued by the rounds (repair traffic excluded).
    pub shipped_bytes: u64,
    pub audit_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Statements the self-maintainability analyzer ruled hybrid.
    pub hybrid_ops: u64,
    pub extract_records: u64,
    pub encode_bytes: u64,
    pub enqueue_frames: u64,
    /// Value-delta and Op-Delta frames enqueued by the rounds.
    pub value_frames: u64,
    pub op_frames: u64,
    drained_value_frames: u64,
    drained_op_frames: u64,
    /// Apply seconds attributed to Op-Delta replay (see `drain`).
    pub op_apply_s: f64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub diff_records: u64,
    pub digest_bytes: u64,
    pub compact_reclaimed: u64,
    pub olap_timeouts: u64,
    pub sync: SyncReport,
    pub audit_digest_bytes: u64,
    pub audit_repair_bytes: u64,
    pub audit_ranges: u64,
    pub lateness_ms: Vec<f64>,
    pub backlog_end_batches: u64,
    /// The open loop fell behind its writer in this repetition (the message
    /// says how): the runner sets the repetition aside, or fails the run
    /// when too many did.
    pub fell_behind: Option<String>,
    /// Failures found by the gate, as messages (also counted in `failed`).
    pub gate_errors: Vec<String>,
}

/// Counter snapshot taken around a repetition.
pub struct Counters {
    src_pool: BufferPoolStats,
    wh_pool: BufferPoolStats,
    wal: WalStats,
    src_stmts: u64,
    stmt_cache: CacheStats,
    rewrite_cache: CacheStats,
}

impl Counters {
    pub fn read(site: &Site) -> Counters {
        Counters {
            src_pool: site.src.pool_stats(),
            wh_pool: site.wh.db().pool_stats(),
            wal: site.src.wal().stats(),
            src_stmts: site.src.statements_executed(),
            stmt_cache: site.pipe.stmt_cache_stats(),
            rewrite_cache: site.pipe.rewrite_cache_stats(),
        }
    }
}

fn add_sync(total: &mut SyncReport, r: &SyncReport) {
    total.batches += r.batches;
    total.runs += r.runs;
    total.deduped += r.deduped;
    total.retries += r.retries;
    total.quarantined += r.quarantined;
    total.apply.merge(r.apply);
    total.decode_nanos += r.decode_nanos;
    total.apply_nanos += r.apply_nanos;
    total.ack_nanos += r.ack_nanos;
    total.worker_busy_nanos += r.worker_busy_nanos;
    total.workers_used = total.workers_used.max(r.workers_used);
    total.stalls += r.stalls;
}

// ---------------------------------------------------------------------
// Source side
// ---------------------------------------------------------------------

fn parse(tr: &mut Tracer, sql: &str) -> Res<Statement> {
    let s = tr.begin("sql.parse");
    let stmt = parse_statement(sql);
    tr.end(s);
    stmt.map_err(|e| format!("generated SQL failed to parse ({e}): {sql}"))
}

/// Run one source transaction through `exec` (BEGIN … COMMIT around several
/// statements, autocommit for one) and record its latency, parsing included:
/// the client sends SQL text. An engine error rolls back and counts as a
/// failed operation.
fn run_statements(
    tr: &mut Tracer,
    stmts: &[String],
    rep: &mut Rep,
    mut exec: impl FnMut(&mut Tracer, &Statement) -> Result<u64, EngineError>,
) -> Res<()> {
    let started = Instant::now();
    let explicit = stmts.len() > 1;
    let mut rows = 0;
    let mut outcome = Ok(());
    if explicit {
        outcome = exec(tr, &Statement::Begin).map(drop);
    }
    for sql in stmts {
        if outcome.is_err() {
            break;
        }
        let stmt = parse(tr, sql)?;
        outcome = exec(tr, &stmt).map(|n| rows += n);
    }
    if explicit {
        outcome = match outcome {
            Ok(()) => exec(tr, &Statement::Commit).map(drop),
            Err(e) => {
                let _ = exec(tr, &Statement::Rollback);
                Err(e)
            }
        };
    }
    rep.attempted += 1;
    match outcome {
        Ok(()) => {
            rep.rows += rows;
            rep.txn_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        Err(e) => {
            rep.failed += 1;
            rep.gate_errors
                .push(format!("source transaction failed: {e}"));
        }
    }
    Ok(())
}

/// One source transaction on a plain session (capture, if any, reads the
/// log afterwards).
pub fn run_txn(tr: &mut Tracer, sess: &mut Session, stmts: &[String], rep: &mut Rep) -> Res<()> {
    run_statements(tr, stmts, rep, |tr, stmt| {
        let s = tr.begin("engine.exec");
        let r = sess.execute_stmt(stmt);
        tr.end(s);
        r.map(|q| q.affected)
    })
}

/// One source transaction through the Op-Delta capture wrapper. The time
/// inside the wrapper (engine time included) is the `core.capture` span; the
/// analyzer's verdict is read from outside it, for `core.hybrid_ops`.
pub fn run_captured_txn(
    tr: &mut Tracer,
    cap: &mut OpDeltaCapture,
    analyzer: &SelfMaintAnalyzer,
    stmts: &[String],
    rep: &mut Rep,
) -> Res<()> {
    let mut hybrid = 0;
    let result = run_statements(tr, stmts, rep, |tr, stmt| {
        if let MaintRequirement::NeedsBeforeImage { .. } = analyzer.analyze(stmt) {
            hybrid += 1;
        }
        let s = tr.begin("core.capture");
        let r = cap.execute_stmt(stmt);
        tr.end(s);
        r.map(|q| q.affected)
    });
    rep.hybrid_ops += hybrid;
    result
}

/// Execute set-up statements (seeding) outside any measurement.
pub fn run_setup_sql(sess: &mut Session, stmts: &[String]) -> Res<()> {
    for s in stmts {
        sess.execute(s).map_err(ctx("set-up statement"))?;
    }
    Ok(())
}

fn dir_bytes(paths: &[PathBuf]) -> u64 {
    paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Checkpoint the source: flush dirty pages, close the active WAL segment
/// and recycle (archive) the closed ones. The resident WAL bytes just before
/// are what the engine logged since the previous checkpoint.
pub fn checkpoint(tr: &mut Tracer, site: &mut Site, rep: &mut Rep) -> Res<()> {
    let resident = site
        .src
        .wal()
        .resident_segments()
        .map_err(ctx("list WAL"))?;
    rep.wal_bytes += dir_bytes(&resident).saturating_sub(site.wal_leftover);
    let s = tr.begin("engine.checkpoint");
    let r = site.src.checkpoint();
    tr.end(s);
    r.map_err(ctx("checkpoint"))?;
    let resident = site
        .src
        .wal()
        .resident_segments()
        .map_err(ctx("list WAL"))?;
    site.wal_leftover = dir_bytes(&resident);
    Ok(())
}

// ---------------------------------------------------------------------
// Ship
// ---------------------------------------------------------------------

/// Queue position before a ship step; [`QueueMark::settle`] books what the
/// step enqueued (frames by kind, spool bytes) into the repetition.
struct QueueMark {
    total: u64,
    spool_bytes: u64,
}

impl QueueMark {
    fn take(site: &Site) -> QueueMark {
        QueueMark {
            total: site.pipe.queue().total(),
            spool_bytes: site.pipe.queue().spool_bytes(),
        }
    }

    fn settle(self, site: &Site, op_deltas: bool, rep: &mut Rep) {
        let frames = site.pipe.queue().total() - self.total;
        if op_deltas {
            rep.op_frames += frames;
        } else {
            rep.value_frames += frames;
        }
        rep.shipped_bytes += site
            .pipe
            .queue()
            .spool_bytes()
            .saturating_sub(self.spool_bytes);
    }
}

fn encode(tr: &mut Tracer, batch: &DeltaBatch, rep: &mut Rep) -> Vec<u8> {
    let s = tr.begin("core.encode");
    let bytes = batch.to_bytes_with(CODEC, DEFAULT_BLOCK_ROWS);
    tr.end(s);
    rep.encode_bytes += bytes.len() as u64;
    bytes
}

fn enqueue(tr: &mut Tracer, pipe: &Pipeline, frames: &[Vec<u8>], rep: &mut Rep) -> Res<()> {
    if frames.is_empty() {
        return Ok(());
    }
    let s = tr.begin("transport.enqueue");
    let r = pipe.queue().enqueue_all(frames);
    tr.end(s);
    rep.enqueue_frames += frames.len() as u64;
    r.map(drop).map_err(ctx("enqueue"))
}

/// The decode probe of the traced run: decoding happens inside `sync`'s
/// background stage, so its cost is sampled here on the frames just encoded.
/// Runs outside the round span.
pub fn decode_probe(tr: &mut Tracer, frames: &[Vec<u8>]) -> Res<()> {
    if !tr.enabled() {
        return Ok(());
    }
    for f in frames {
        let s = tr.begin("core.decode");
        let r = DeltaBatch::from_bytes(f);
        tr.end(s);
        r.map_err(ctx("decode probe"))?;
    }
    Ok(())
}

/// One log-extraction round into the queue. Untraced: the composite
/// [`Pipeline::ship`]. Traced: ship's happy path step by step through the
/// public functions it is built from (`stage` → `to_bytes_with` →
/// `enqueue_all` → `commit`), each in its own span; the encoded frames are
/// returned for the decode probe.
///
/// Afterwards the archived WAL segments that existed before the round are
/// deleted: the committed round has extracted every record in them, and the
/// extractor re-reads the whole archive each round, so an operator who never
/// prunes it makes every round slower than the one before. The engine lists
/// these files (`Wal::archived_segments`) but has no call that retires them,
/// so this is the one place dwbench acts on engine files directly — a stated
/// deviation from "public APIs only" (README, "Deviations").
pub fn ship(
    tr: &mut Tracer,
    site: &Site,
    extractor: &mut ResilientLogExtractor,
    rep: &mut Rep,
) -> Res<Vec<Vec<u8>>> {
    let archived = site
        .src
        .wal()
        .archived_segments()
        .map_err(ctx("list archive"))?;
    let mark = QueueMark::take(site);
    let mut frames = Vec::new();
    if tr.enabled() {
        let s = tr.begin("core.stage");
        let staged = extractor.stage(&site.src);
        tr.end(s);
        let staged = staged.map_err(ctx("stage"))?;
        // What the untraced path reads off `ShipReport`: the round must have
        // come from the log, whole.
        let out = &staged.outcome;
        if staged.coalesced || !out.degraded.is_empty() || !out.quarantined_segments.is_empty() {
            return Err(format!(
                "extraction degraded: coalesced={} degraded={:?} quarantined={:?}",
                staged.coalesced, out.degraded, out.quarantined_segments
            ));
        }
        rep.extract_records += staged
            .outcome
            .deltas
            .iter()
            .map(|d| d.len() as u64)
            .sum::<u64>();
        frames = staged
            .outcome
            .deltas
            .iter()
            .map(|vd| encode(tr, &DeltaBatch::Value(vd.clone()), rep))
            .collect();
        enqueue(tr, &site.pipe, &frames, rep)?;
        let s = tr.begin("core.commit");
        let r = extractor.commit(staged);
        tr.end(s);
        r.map_err(ctx("extractor commit"))?;
    } else {
        let s = tr.begin("warehouse.ship");
        let r = site.pipe.ship(&site.src, extractor);
        tr.end(s);
        let report = r.map_err(ctx("ship"))?;
        if report.deferred + report.degradations + report.backpressure > 0 {
            return Err(format!("ship degraded without a disk budget: {report:?}"));
        }
    }
    mark.settle(site, false, rep);
    let s = tr.begin("bench.prune_archive");
    for p in &archived {
        std::fs::remove_file(p).map_err(ctx("prune archived segment"))?;
    }
    tr.end(s);
    Ok(frames)
}

/// Hand the captured Op-Deltas of `log_table` to the queue. Untraced: the
/// composite [`Pipeline::collect_op_log`]. Traced: its steps
/// (`collect_from_table` → `to_bytes_with` → `enqueue_all` → `clear_table`).
pub fn collect_ops(
    tr: &mut Tracer,
    site: &Site,
    log_table: &str,
    rep: &mut Rep,
) -> Res<Vec<Vec<u8>>> {
    let mark = QueueMark::take(site);
    let mut frames = Vec::new();
    if tr.enabled() {
        let s = tr.begin("core.collect_from_table");
        let ods = collect_from_table(&site.src, log_table);
        tr.end(s);
        frames = ods
            .map_err(ctx("collect op log"))?
            .into_iter()
            .map(|od| encode(tr, &DeltaBatch::Op(od), rep))
            .collect();
        if !frames.is_empty() {
            enqueue(tr, &site.pipe, &frames, rep)?;
            let s = tr.begin("core.clear_table");
            let r = clear_table(&site.src, log_table);
            tr.end(s);
            r.map_err(ctx("clear op log"))?;
        }
    } else {
        let s = tr.begin("warehouse.collect_op_log");
        let r = site.pipe.collect_op_log(&site.src, log_table);
        tr.end(s);
        r.map_err(ctx("collect_op_log"))?;
    }
    mark.settle(site, true, rep);
    Ok(frames)
}

/// Hand the Op-Deltas captured in a *file* sink to the queue:
/// `collect_from_file` → `to_bytes_with` → `enqueue_all`, then empty the
/// file. There is no composite for this in `Pipeline`, so traced and
/// untraced runs take the same steps.
pub fn collect_ops_file(
    tr: &mut Tracer,
    site: &Site,
    log: &Path,
    rep: &mut Rep,
) -> Res<Vec<Vec<u8>>> {
    let mark = QueueMark::take(site);
    let s = tr.begin("core.collect_from_file");
    let ods = collect_from_file(log);
    tr.end(s);
    let frames: Vec<Vec<u8>> = ods
        .map_err(ctx("collect op log file"))?
        .into_iter()
        .map(|od| encode(tr, &DeltaBatch::Op(od), rep))
        .collect();
    enqueue(tr, &site.pipe, &frames, rep)?;
    // The capture wrapper appends, so emptying the file under it is safe.
    let s = tr.begin("core.clear_file");
    let r = std::fs::OpenOptions::new()
        .write(true)
        .open(log)
        .and_then(|f| f.set_len(0));
    tr.end(s);
    r.map_err(ctx("empty op log file"))?;
    mark.settle(site, true, rep);
    Ok(frames)
}

/// Publish a value delta in `chunk`-row batches (the bulk path). Untraced:
/// [`Pipeline::publish`] per batch; traced: encode and enqueue separately.
pub fn publish_chunked(
    tr: &mut Tracer,
    site: &Site,
    delta: ValueDelta,
    chunk: usize,
    rep: &mut Rep,
) -> Res<Vec<Vec<u8>>> {
    let mark = QueueMark::take(site);
    let mut frames = Vec::new();
    for records in delta.records.chunks(chunk.max(1)) {
        let mut vd = ValueDelta::new(&delta.table, delta.schema.clone());
        vd.records = records.to_vec();
        let batch = DeltaBatch::Value(vd);
        if tr.enabled() {
            frames.push(encode(tr, &batch, rep));
        } else {
            let s = tr.begin("warehouse.publish");
            let r = site.pipe.publish(&batch);
            tr.end(s);
            r.map_err(ctx("publish"))?;
        }
    }
    enqueue(tr, &site.pipe, &frames, rep)?;
    mark.settle(site, false, rep);
    Ok(frames)
}

// ---------------------------------------------------------------------
// Warehouse side
// ---------------------------------------------------------------------

/// `sync` until the queue is empty. Returns when everything enqueued so far
/// is applied and acknowledged. Quarantined batches count as failed.
///
/// Apply time is attributed to Op-Delta replay in proportion to the share
/// of Op-Delta frames among the frames enqueued since the previous drain
/// (exact on the workloads that ship only one kind).
pub fn drain(tr: &mut Tracer, site: &Site, rep: &mut Rep) -> Res<()> {
    let apply_before = rep.sync.apply_nanos;
    for _ in 0..1000 {
        let s = tr.begin("warehouse.sync");
        let r = site.pipe.sync(&site.wh);
        tr.end(s);
        let report = r.map_err(ctx("sync"))?;
        add_sync(&mut rep.sync, &report);
        rep.attempted += report.batches;
        rep.failed += report.quarantined;
        if site.pipe.queue().pending() == 0 {
            let ops = (rep.op_frames - rep.drained_op_frames) as f64;
            let values = (rep.value_frames - rep.drained_value_frames) as f64;
            rep.op_apply_s +=
                (rep.sync.apply_nanos - apply_before) as f64 * 1e-9 * ratio(ops, ops + values);
            rep.drained_op_frames = rep.op_frames;
            rep.drained_value_frames = rep.value_frames;
            return Ok(());
        }
    }
    Err(format!(
        "queue failed to drain after 1000 syncs ({} pending)",
        site.pipe.queue().pending()
    ))
}

/// One warehouse GROUP BY query; a lock timeout counts as a failed operation.
pub fn olap_query(tr: &mut Tracer, sess: &mut Session, table: &str, rep: &mut Rep) -> Res<()> {
    let sql = gen::olap_query(table);
    let started = Instant::now();
    let stmt = parse(tr, &sql)?;
    let s = tr.begin("warehouse.olap_query");
    let r = sess.execute_stmt(&stmt);
    tr.end(s);
    rep.attempted += 1;
    match r {
        Ok(q) if q.rows.len() as i64 <= gen::GROUPS => {
            rep.olap_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        Ok(q) => {
            rep.failed += 1;
            rep.gate_errors
                .push(format!("OLAP query returned {} groups", q.rows.len()));
        }
        Err(EngineError::LockTimeout { .. }) => {
            rep.failed += 1;
            rep.olap_timeouts += 1;
        }
        Err(e) => return Err(format!("OLAP query: {e}")),
    }
    Ok(())
}

/// Silently corrupt the mirror with `damage_sql` (direct warehouse writes
/// that bypass the pipeline), then time `audit_and_repair` from that seeded
/// divergence to verified convergence.
pub fn corrupt_and_audit(
    tr: &mut Tracer,
    site: &Site,
    table: &str,
    damage_sql: &[String],
    rep: &mut Rep,
) -> Res<()> {
    run_setup_sql(&mut site.wh.db().session(), damage_sql)?;
    let s = tr.begin("warehouse.audit");
    let r = audit_and_repair(
        &site.src,
        &site.pipe,
        &site.wh,
        &[table],
        &AuditConfig::default(),
    );
    rep.audit_s += tr.end(s);
    let report = r.map_err(ctx("audit_and_repair"))?;
    rep.attempted += 1;
    if !report.converged() || !report.diverged() {
        rep.failed += 1;
        rep.gate_errors.push(format!(
            "audit of '{table}' after {} corrupted rows: diverged={} converged={}",
            damage_sql.len(),
            report.diverged(),
            report.converged()
        ));
    }
    rep.audit_digest_bytes += report.digest_bytes;
    rep.audit_repair_bytes += report.repair_bytes;
    rep.audit_ranges += report
        .tables
        .iter()
        .map(|t| t.diverged_ranges.len() as u64)
        .sum::<u64>();
    Ok(())
}

/// Digest probe of the traced run: the audit computes digests inside
/// `audit_and_repair`; this times one mirror digest on its own.
pub fn digest_probe(
    tr: &mut Tracer,
    site: &Site,
    table: &str,
    rows: i64,
    rep: &mut Rep,
) -> Res<()> {
    use delta_core::digest::{digest_table, DigestParams, DEFAULT_TARGET_LEAVES};
    let params = DigestParams::for_key_range(0, rows.max(1), DEFAULT_TARGET_LEAVES);
    let s = tr.begin("core.digest");
    let r = digest_table(site.wh.db(), table, 0, params);
    tr.end(s);
    rep.digest_bytes += r.map_err(ctx("digest probe"))?.encode().len() as u64;
    Ok(())
}

/// Reclaim the acknowledged spool prefix (operator maintenance, once per
/// repetition, outside the rounds).
pub fn compact(tr: &mut Tracer, site: &Site, rep: &mut Rep) -> Res<()> {
    let s = tr.begin("transport.compact");
    let r = site.pipe.queue().compact();
    tr.end(s);
    rep.compact_reclaimed += r.map_err(ctx("compact"))?.bytes_reclaimed;
    Ok(())
}

// ---------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------

/// Canonical dump of a table: encoded rows (projected through `mirror` when
/// given) sorted by primary key.
fn dump(db: &Database, table: &str, mirror: Option<&MirrorConfig>) -> Res<BTreeMap<i64, Vec<u8>>> {
    let mut out = BTreeMap::new();
    for (_, row) in db.scan_table(table).map_err(ctx("gate scan"))? {
        let key = row.values()[0].as_int().map_err(ctx("gate key"))?;
        let bytes = match mirror {
            Some(m) => m.project_row(&row).to_bytes(),
            None => row.to_bytes(),
        };
        out.insert(key, bytes);
    }
    Ok(out)
}

/// The gate run after every repetition: each source table must equal its
/// warehouse mirror byte for byte (after projection for projected mirrors),
/// every aggregate view must equal its recomputation, and the dead-letter
/// queue must be empty. Every differing row, stale view and parked batch is a
/// failed operation.
pub fn gate(site: &Site, tables: &[String], rep: &mut Rep) -> Res<()> {
    for table in tables {
        let mirror = site.wh.mirror(table).map_err(ctx("gate mirror"))?;
        let src = dump(&site.src, table, Some(mirror))?;
        let dst = dump(site.wh.db(), table, None)?;
        rep.attempted += src.len().max(dst.len()) as u64;
        if src != dst {
            let keys: BTreeSet<&i64> = src.keys().chain(dst.keys()).collect();
            let differing = keys.iter().filter(|k| src.get(k) != dst.get(k)).count();
            rep.failed += differing as u64;
            rep.gate_errors.push(format!(
                "table '{table}': {differing} rows differ between source ({}) and warehouse ({})",
                src.len(),
                dst.len()
            ));
        }
        if let Some(view) = site.wh.agg_view(&agg_view_name(table)) {
            rep.attempted += 1;
            if !view
                .verify_against_recompute(site.wh.db())
                .map_err(ctx("verify view"))?
            {
                rep.failed += 1;
                rep.gate_errors.push(format!(
                    "aggregate view of '{table}' differs from its recomputation"
                ));
            }
        }
    }
    let dlq = site.pipe.dlq_entries().map_err(ctx("read DLQ"))?;
    if !dlq.is_empty() {
        rep.failed += dlq.len() as u64;
        rep.gate_errors.push(format!(
            "{} batches parked in the dead-letter queue",
            dlq.len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Per-layer metrics of one traced repetition
// ---------------------------------------------------------------------

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn hit_rate(before: &BufferPoolStats, after: &BufferPoolStats) -> f64 {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    if hits + misses == 0.0 {
        1.0
    } else {
        hits / (hits + misses)
    }
}

fn cache_hit_rate(before: &CacheStats, after: &CacheStats) -> f64 {
    let hits = (after.hits - before.hits) as f64;
    ratio(hits, hits + (after.misses - before.misses) as f64)
}

/// Bytes of heap files under the warehouse directory per mirrored row.
fn wh_bytes_per_row(site: &Site, tables: &[String]) -> f64 {
    let heap_bytes: u64 = std::fs::read_dir(site.dir.join("warehouse"))
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .filter(|e| e.path().is_file())
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let rows: usize = tables
        .iter()
        .filter_map(|t| site.wh.db().row_count(t).ok())
        .sum();
    ratio(heap_bytes as f64, rows as f64)
}

/// Derive every per-layer metric of one repetition from the span totals of
/// its tracer, the report sums in `rep`, and the counter deltas.
pub fn layer_metrics(
    tr: &Tracer,
    rep: &Rep,
    before: &Counters,
    after: &Counters,
    site: &Site,
    tables: &[String],
) -> BTreeMap<&'static str, f64> {
    let rows = rep.rows.max(1) as f64;
    let sync_s = tr.secs("warehouse.sync");
    let apply_s = rep.sync.apply_nanos as f64 * 1e-9;
    let decode_s = rep.sync.decode_nanos as f64 * 1e-9;
    let ack_s = rep.sync.ack_nanos as f64 * 1e-9;
    let parse_s = tr.secs("sql.parse");
    let extract_s = tr.secs("core.stage") + tr.secs("core.commit");
    let enqueue_s = tr.secs("transport.enqueue");
    let encode_s = tr.secs("core.encode");
    let wh_misses = (after.wh_pool.misses - before.wh_pool.misses) as f64;
    let wh_evictions = (after.wh_pool.evictions - before.wh_pool.evictions) as f64;
    let self_sum: f64 = crate::trace::self_times(tr.spans())
        .iter()
        .filter(|(layer, _)| **layer != "bench")
        .map(|(_, s)| s)
        .sum();
    let traced_round_s: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == crate::trace::ROUND)
        .map(|s| s.end - s.start)
        .sum();
    BTreeMap::from([
        (
            "sql.parse_us_per_stmt",
            ratio(parse_s * 1e6, tr.calls("sql.parse") as f64),
        ),
        ("sql.stmts_parsed", tr.calls("sql.parse") as f64),
        ("engine.exec_s", tr.secs("engine.exec")),
        ("engine.stmts", (after.src_stmts - before.src_stmts) as f64),
        (
            "engine.wal_batches",
            (after.wal.batches - before.wal.batches) as f64,
        ),
        (
            "engine.wal_entries",
            (after.wal.entries - before.wal.entries) as f64,
        ),
        (
            "engine.wal_groups",
            (after.wal.groups - before.wal.groups) as f64,
        ),
        ("engine.wal_bytes_per_row", rep.wal_bytes as f64 / rows),
        ("engine.checkpoint_s", tr.secs("engine.checkpoint")),
        ("engine.checkpoints", tr.calls("engine.checkpoint") as f64),
        (
            "storage.src_pool_hit_rate",
            hit_rate(&before.src_pool, &after.src_pool),
        ),
        (
            "storage.src_pool_misses",
            (after.src_pool.misses - before.src_pool.misses) as f64,
        ),
        (
            "storage.src_pool_evictions",
            (after.src_pool.evictions - before.src_pool.evictions) as f64,
        ),
        (
            "storage.src_pool_writebacks",
            (after.src_pool.writebacks - before.src_pool.writebacks) as f64,
        ),
        (
            "storage.wh_pool_hit_rate",
            hit_rate(&before.wh_pool, &after.wh_pool),
        ),
        ("storage.wh_pool_misses", wh_misses),
        ("storage.wh_pool_evictions", wh_evictions),
        (
            "storage.wh_pool_writebacks",
            (after.wh_pool.writebacks - before.wh_pool.writebacks) as f64,
        ),
        (
            "storage.wh_pool_misses_per_row",
            (wh_misses + wh_evictions) / rows,
        ),
        ("storage.snapshot_write_s", tr.secs("core.take_snapshot")),
        ("storage.snapshot_bytes", rep.snapshot_bytes as f64),
        ("storage.wh_bytes_per_row", wh_bytes_per_row(site, tables)),
        ("core.capture_s", tr.secs("core.capture")),
        ("core.hybrid_ops", rep.hybrid_ops as f64),
        ("core.extract_s", extract_s),
        ("core.extract_records", rep.extract_records as f64),
        ("core.extract_rounds", tr.calls("core.stage") as f64),
        (
            "core.collect_op_s",
            tr.secs("core.collect_from_table")
                + tr.secs("core.clear_table")
                + tr.secs("core.collect_from_file")
                + tr.secs("core.clear_file"),
        ),
        ("core.encode_s", encode_s),
        ("core.encode_bytes", rep.encode_bytes as f64),
        ("core.decode_s", tr.secs("core.decode")),
        ("core.snapshot_diff_s", tr.secs("core.snapshot_diff")),
        ("core.diff_records", rep.diff_records as f64),
        ("core.digest_s", tr.secs("core.digest")),
        ("core.digest_bytes", rep.digest_bytes as f64),
        ("transport.enqueue_s", enqueue_s),
        ("transport.enqueue_frames", rep.enqueue_frames as f64),
        ("transport.spool_bytes", rep.shipped_bytes as f64),
        ("transport.dequeue_decode_s", decode_s),
        ("transport.ack_s", ack_s),
        ("transport.compact_s", tr.secs("transport.compact")),
        (
            "transport.compact_reclaimed_bytes",
            rep.compact_reclaimed as f64,
        ),
        ("warehouse.sync_s", sync_s),
        (
            "warehouse.sync_rows_per_s",
            ratio(rep.sync.apply.rows_affected as f64, sync_s),
        ),
        ("warehouse.apply_s", apply_s),
        (
            "warehouse.worker_busy_share",
            ratio(
                rep.sync.worker_busy_nanos as f64,
                rep.sync.apply_nanos as f64 * rep.sync.workers_used.max(1) as f64,
            ),
        ),
        ("warehouse.workers_used", rep.sync.workers_used as f64),
        ("warehouse.runs", rep.sync.runs as f64),
        ("warehouse.batches", rep.sync.batches as f64),
        ("warehouse.txns", rep.sync.apply.transactions as f64),
        ("warehouse.stmts", rep.sync.apply.statements as f64),
        (
            "warehouse.rows_affected",
            rep.sync.apply.rows_affected as f64,
        ),
        (
            "warehouse.view_rows_touched",
            rep.sync.apply.view_rows_touched as f64,
        ),
        ("warehouse.deduped", rep.sync.deduped as f64),
        ("warehouse.retries", rep.sync.retries as f64),
        ("warehouse.quarantined", rep.sync.quarantined as f64),
        ("warehouse.stalls", rep.sync.stalls as f64),
        (
            "warehouse.stmt_cache_hit_rate",
            cache_hit_rate(&before.stmt_cache, &after.stmt_cache),
        ),
        (
            "warehouse.rewrite_cache_hit_rate",
            cache_hit_rate(&before.rewrite_cache, &after.rewrite_cache),
        ),
        (
            "warehouse.audit_digest_bytes",
            rep.audit_digest_bytes as f64,
        ),
        (
            "warehouse.audit_repair_bytes",
            rep.audit_repair_bytes as f64,
        ),
        ("warehouse.audit_ranges", rep.audit_ranges as f64),
        ("warehouse.olap_timeouts", rep.olap_timeouts as f64),
        (
            "gen.lateness_p95_ms",
            stats::percentile(&rep.lateness_ms, 95.0),
        ),
        ("gen.backlog_end_batches", rep.backlog_end_batches as f64),
        // Filled in by the runner, which sees traced and untraced repetitions.
        ("trace.overhead_share", 0.0),
        ("trace.self_time_coverage", ratio(self_sum, traced_round_s)),
        (
            "trace.ship_share",
            ratio(encode_s + enqueue_s + decode_s + ack_s, rep.round_s),
        ),
        (
            "trace.sql_replay_share",
            ratio(parse_s + rep.op_apply_s, rep.round_s),
        ),
        (
            "failed_ops_share",
            ratio(rep.failed as f64, rep.attempted as f64),
        ),
    ])
}
