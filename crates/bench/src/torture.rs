//! Crash–recover–resync torture driver for the extract–ship–apply pipeline.
//!
//! Each cycle, fully determined by one seed:
//!
//! 1. opens the source database under a randomized [`FaultPlan`] (I/O
//!    errors, torn writes, lying fsyncs, sticky crash points) and runs a
//!    randomized transaction mix against it;
//! 2. crashes the process image when the injector says so (the database is
//!    leaked, never shut down) and re-opens cleanly, exercising WAL redo
//!    recovery;
//! 3. occasionally checkpoints (archiving redo segments), corrupts an
//!    archived segment (the [`ResilientLogExtractor`] quarantines it and
//!    owes an audit), or crash-restarts the *warehouse* database;
//! 4. extracts committed deltas — settling an owed audit with
//!    [`audit_and_repair`] first — ships them through the persistent queue
//!    under a lossy [`NetFaultPlan`] (loss, duplication, reordering, lost
//!    acks) with bounded retry, and drains the pipeline;
//! 5. asserts **convergence**: the warehouse mirror is byte-identical to
//!    the recovered source table, nothing was quarantined, and the applied
//!    watermark matches the queue's acknowledgement frontier
//!    (exactly-once-observable apply).
//!
//! Any violated invariant aborts the run with a message carrying the master
//! seed, so every failure is reproducible with `torture --seed <n>`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use delta_core::logextract::ResilientLogExtractor;
use delta_core::model::{DeltaBatch, DeltaOp, ValueDelta, ValueDeltaRecord};
use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_engine::wal::{read_segment, Lsn};
use delta_engine::{EngineError, EngineResult};
use delta_storage::fault::{splitmix64, FaultInjector, FaultPlan};
use delta_storage::{DiskBudget, Row, Value};
use delta_transport::NetFaultPlan;
use delta_warehouse::{
    audit_and_repair, AuditConfig, MirrorConfig, Pipeline, RetryPolicy, StallPlan, Warehouse,
};

use crate::workload::{delete_txn_sql, insert_txn_sql, op_schema, update_txn_sql};

/// Knobs for one torture run.
#[derive(Debug, Clone, Copy)]
pub struct TortureConfig {
    /// Master seed; every fault schedule and workload choice derives from it.
    pub seed: u64,
    /// Crash–recover–resync cycles to run.
    pub cycles: u64,
    /// Transactions attempted against the source per cycle.
    pub txns: u64,
    /// Apply workers for the staged sync scheduler (0 = available
    /// parallelism, 1 = the historical serial loop).
    pub sync_workers: usize,
    /// Anti-entropy mode: each cycle additionally injects silent warehouse
    /// divergence (flipped rows, lost rows, phantoms, poison batches,
    /// ack-then-drop) and asserts one [`audit_and_repair`] pass converges
    /// the mirror byte-equal before the cycle's convergence check runs.
    pub audit: bool,
    /// Resource-exhaustion mode: the shipping queue runs under a seeded,
    /// cycle-by-cycle *shrinking* disk budget (shipping goes through the
    /// [`Pipeline::ship`] degradation ladder: compact → coalesce → defer),
    /// the source database runs under its own disk budget (transactions
    /// fail with typed `DiskFull` errors and recover at reopen), and the
    /// apply stage runs with injected stalls, so classes commit out of
    /// sequence order. Convergence is still byte-equality once each
    /// cycle's pressure lifts — zero loss, zero duplicates.
    pub pressure: bool,
}

impl Default for TortureConfig {
    fn default() -> TortureConfig {
        TortureConfig {
            seed: 0xDE17A,
            cycles: 20,
            txns: 8,
            sync_workers: 1,
            audit: false,
            pressure: false,
        }
    }
}

/// What a completed run survived. All counters are totals across cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct TortureStats {
    /// Cycles completed (equals the configured count on success).
    pub cycles: u64,
    /// Source transactions that committed.
    pub txns_ok: u64,
    /// Source transactions failed by an injected I/O error.
    pub txns_faulted: u64,
    /// Source crash–recover events (including crashes during open).
    pub source_crashes: u64,
    /// Warehouse crash–restart events.
    pub warehouse_crashes: u64,
    /// Checkpoints taken (each archives redo segments).
    pub checkpoints: u64,
    /// Archived segments deliberately corrupted.
    pub segment_corruptions: u64,
    /// Audits the extractor owed after quarantining a damaged archived
    /// segment, each run and settled before extraction resumed.
    pub audits_owed: u64,
    /// Delta batches published into the shipping queue.
    pub published: u64,
    /// `Pipeline::sync` calls needed to drain everything.
    pub syncs: u64,
    /// Batches applied at the warehouse.
    pub applied_batches: u64,
    /// Redelivered/duplicated batches skipped by the watermark.
    pub deduped: u64,
    /// Apply attempts repeated under the retry policy.
    pub retries: u64,
    /// Silent divergences injected into the warehouse (`--audit` mode).
    pub divergences_injected: u64,
    /// Anti-entropy audit passes run.
    pub audits: u64,
    /// Repair delta records the audits shipped.
    pub repair_records: u64,
    /// DLQ entries the audits reconciled as superseded.
    pub dlq_reconciled: u64,
    /// Batches acknowledged on the wire but never applied (injected
    /// ack-then-drop faults; each permanently skews the applied watermark
    /// below the ack frontier until repaired).
    pub acks_dropped: u64,
    /// Enqueues denied by the queue's disk budget (`--pressure` mode).
    pub backpressure: u64,
    /// Ship rounds that degraded to the coalesced (netted) form.
    pub ship_degradations: u64,
    /// Spool compactions attempted (ship ladder + post-drain reclaim).
    pub ship_compactions: u64,
    /// Ship rounds deferred entirely (nothing fit the budget).
    pub ship_deferrals: u64,
    /// Times a cycle's budget had to be lifted for the stream to resume.
    pub pressure_lifts: u64,
}

impl TortureStats {
    /// One-line-per-counter human summary.
    pub fn summary(&self) -> String {
        format!(
            "cycles {} | txns ok {} faulted {} | source crashes {} | warehouse crashes {} | \
             checkpoints {} | segments corrupted {} | audits owed {} | \
             published {} | syncs {} | applied {} | deduped {} | retries {}",
            self.cycles,
            self.txns_ok,
            self.txns_faulted,
            self.source_crashes,
            self.warehouse_crashes,
            self.checkpoints,
            self.segment_corruptions,
            self.audits_owed,
            self.published,
            self.syncs,
            self.applied_batches,
            self.deduped,
            self.retries,
        ) + &if self.audits > 0 {
            format!(
                " | divergences {} | audits {} | repair records {} | dlq reconciled {} | \
                 acks dropped {}",
                self.divergences_injected,
                self.audits,
                self.repair_records,
                self.dlq_reconciled,
                self.acks_dropped,
            )
        } else {
            String::new()
        } + &if self.backpressure + self.ship_deferrals + self.ship_compactions > 0 {
            format!(
                " | backpressure {} | ship degradations {} | compactions {} | deferrals {} | \
                 pressure lifts {}",
                self.backpressure,
                self.ship_degradations,
                self.ship_compactions,
                self.ship_deferrals,
                self.pressure_lifts,
            )
        } else {
            String::new()
        }
    }
}

const TABLE: &str = "parts";
/// Syncs allowed to drain one cycle's queue before declaring livelock.
const MAX_DRAIN_SYNCS: u64 = 1_000;

fn source_opts(dir: &Path, faults: Option<Arc<FaultInjector>>) -> DbOptions {
    let mut opts = DbOptions::new(dir);
    opts.wal_sync = SyncMode::Fsync;
    opts.archive_mode = true;
    opts.buffer_pool_pages = 64; // small: bounds what a leaked crash image costs
    if let Some(inj) = faults {
        opts = opts.faults(inj);
    }
    opts
}

fn warehouse_opts(dir: &Path) -> DbOptions {
    let mut opts = DbOptions::new(dir);
    opts.wal_sync = SyncMode::Flush;
    opts.buffer_pool_pages = 64;
    opts
}

fn open_warehouse(dir: &Path) -> EngineResult<Warehouse> {
    let db = Database::open(warehouse_opts(dir))?;
    let mut wh = Warehouse::new(db);
    wh.add_mirror(MirrorConfig::full(TABLE, op_schema()))?;
    Ok(wh)
}

/// The committed table contents as `primary key -> encoded row bytes` —
/// byte-level equality is the convergence criterion.
fn table_state(db: &Database, ctx: &str) -> Result<BTreeMap<i64, Vec<u8>>, String> {
    let rows = db
        .scan_table(TABLE)
        .map_err(|e| format!("{ctx}: scan failed: {e}"))?;
    let mut out = BTreeMap::new();
    for (_, row) in rows {
        let key = row.values()[0]
            .as_int()
            .map_err(|e| format!("{ctx}: non-int key: {e}"))?;
        out.insert(key, row.to_bytes());
    }
    Ok(out)
}

/// Flip one mid-file byte of a random archived redo segment the extractor
/// still has to read — one holding a record past `watermark`. (The log
/// reader never reopens a consumed segment, so damage there would go
/// unnoticed and leave the degradation path unexercised.) Returns whether a
/// segment was actually damaged.
fn corrupt_archived_segment(db: &Database, watermark: Lsn, rng: &mut u64) -> Result<bool, String> {
    let mut segments = db
        .wal()
        .archived_segments()
        .map_err(|e| format!("listing archived segments: {e}"))?;
    segments.retain(|p| {
        let last = read_segment(p)
            .ok()
            .and_then(|recs| recs.last().map(|r| r.0));
        last.is_some_and(|lsn| lsn > watermark)
    });
    if segments.is_empty() {
        return Ok(false);
    }
    let victim = &segments[(splitmix64(rng) % segments.len() as u64) as usize];
    let mut bytes = std::fs::read(victim).map_err(|e| format!("reading segment: {e}"))?;
    if bytes.len() < 64 {
        return Ok(false);
    }
    let at = bytes.len() / 2 + (splitmix64(rng) % (bytes.len() as u64 / 4)) as usize;
    bytes[at] ^= 0x40;
    std::fs::write(victim, bytes).map_err(|e| format!("rewriting segment: {e}"))?;
    Ok(true)
}

struct Driver {
    cfg: TortureConfig,
    root: PathBuf,
    src_dir: PathBuf,
    wh_dir: PathBuf,
    queue_path: PathBuf,
    stats: TortureStats,
    /// Next fresh primary key. Monotone even across failed inserts so a
    /// transaction that *secretly* committed before a crash never collides.
    next_id: i64,
    /// The shipping queue's disk budget (`--pressure` mode): shrunk at the
    /// start of every cycle, lifted when even the coalesced form defers.
    queue_budget: Option<Arc<DiskBudget>>,
}

impl Driver {
    fn fail(&self, cycle: u64, msg: impl std::fmt::Display) -> String {
        format!(
            "torture cycle {cycle}/{}: {msg} — reproduce with --seed {} --cycles {} --txns {}",
            self.cfg.cycles, self.cfg.seed, self.cfg.cycles, self.cfg.txns
        )
    }

    /// One randomized source transaction's SQL.
    fn txn_sql(&mut self, rng: &mut u64) -> String {
        let id_space = self.next_id.max(1);
        match splitmix64(rng) % 8 {
            0..=3 => {
                let n = 1 + (splitmix64(rng) % 32) as usize;
                let first = self.next_id;
                self.next_id += n as i64;
                insert_txn_sql(TABLE, first, n)
            }
            4..=6 => {
                let n = 1 + (splitmix64(rng) % 16) as usize;
                let a = (splitmix64(rng) % id_space as u64) as i64;
                update_txn_sql(TABLE, a, n)
            }
            _ => {
                let n = 1 + (splitmix64(rng) % 8) as usize;
                let a = (splitmix64(rng) % id_space as u64) as i64;
                delete_txn_sql(TABLE, a, n)
            }
        }
    }

    /// Run the workload under faults. Returns `true` if the source crashed
    /// (and its image was leaked, never shut down).
    fn faulted_workload(&mut self, fault_seed: u64, wl_seed: u64) -> bool {
        let budget = 1 + (fault_seed % 4) as usize;
        let plan = FaultPlan::random(fault_seed, budget, 300);
        let inj = Arc::new(FaultInjector::new(plan));
        let mut opts = source_opts(&self.src_dir, Some(inj.clone()));
        if self.cfg.pressure {
            // Sustained exhaustion on top of the point faults: the source's
            // durable writes this cycle share a finite byte pool. Hitting
            // it fails transactions with typed DiskFull errors; the clean
            // (unbudgeted) reopen below recovers whatever committed.
            let mut s = fault_seed ^ 0x5EED_D15C;
            let bytes = 96 * 1024 + splitmix64(&mut s) % (128 * 1024);
            opts = opts.disk_budget(Arc::new(DiskBudget::bytes(bytes)));
        }
        let db = match Database::open(opts) {
            Ok(db) => db,
            Err(_) => {
                // Open itself hit a fault (possibly a crash point while
                // replaying): count it and recover on the clean reopen.
                self.stats.source_crashes += 1;
                return true;
            }
        };
        let mut rng = wl_seed;
        for _ in 0..self.cfg.txns {
            let sql = self.txn_sql(&mut rng);
            match db.session().execute(&sql) {
                Ok(_) => self.stats.txns_ok += 1,
                Err(_) if inj.crashed() => {
                    // Sticky crash: leak the database mid-flight, exactly
                    // like a power cut. Recovery happens at the next open.
                    let _ = std::mem::ManuallyDrop::new(db);
                    self.stats.source_crashes += 1;
                    return true;
                }
                Err(_) => self.stats.txns_faulted += 1,
            }
        }
        inj.disarm();
        drop(db); // clean shutdown
        false
    }

    /// Inject one seeded silent divergence into a drained pipeline. The
    /// five modes cover every way a mirror can silently rot: a flipped row,
    /// a lost row, a phantom row, a poison batch rotting in the DLQ, and a
    /// batch acknowledged on the wire but never applied.
    fn inject_divergence(
        &mut self,
        db: &Arc<Database>,
        wh: &Warehouse,
        pipe: &Pipeline,
        extractor: &mut ResilientLogExtractor,
        rng: &mut u64,
        cycle: u64,
    ) -> Result<(), String> {
        let keys: Vec<i64> = table_state(wh.db(), "inject")?.keys().copied().collect();
        let pick = |rng: &mut u64| keys[(splitmix64(rng) % keys.len() as u64) as usize];
        let mode = if keys.is_empty() {
            2
        } else {
            splitmix64(rng) % 5
        };
        let mut ws = wh.db().session();
        match mode {
            0 => {
                let sql = format!(
                    "UPDATE {TABLE} SET val = val + 999983 WHERE id = {}",
                    pick(rng)
                );
                ws.execute(&sql)
                    .map_err(|e| self.fail(cycle, format!("inject flip: {e}")))?;
            }
            1 => {
                let sql = format!("DELETE FROM {TABLE} WHERE id = {}", pick(rng));
                ws.execute(&sql)
                    .map_err(|e| self.fail(cycle, format!("inject delete: {e}")))?;
            }
            2 => {
                let sql = format!(
                    "INSERT INTO {TABLE} VALUES ({}, 0, 0, 'phantom')",
                    5_000_000 + cycle
                );
                ws.execute(&sql)
                    .map_err(|e| self.fail(cycle, format!("inject phantom: {e}")))?;
            }
            3 => {
                // Poison: re-inserting an existing key violates the mirror's
                // primary key on every retry and rots in the DLQ until the
                // audit reconciles it as superseded.
                let mut vd = ValueDelta::new(TABLE, op_schema());
                vd.records.push(ValueDeltaRecord {
                    op: DeltaOp::Insert,
                    txn: 0,
                    row: Row::new(vec![
                        Value::Int(pick(rng)),
                        Value::Int(0),
                        Value::Int(0),
                        Value::Str("poison".into()),
                    ]),
                });
                pipe.publish(&DeltaBatch::Value(vd))
                    .map_err(|e| self.fail(cycle, format!("inject poison: {e}")))?;
            }
            _ => {
                // Ack-then-drop: commit a real source transaction, extract
                // and publish its delta, then acknowledge it straight off
                // the wire without applying — the warehouse misses rows the
                // queue swears were delivered, and the applied watermark
                // skews permanently below the ack frontier.
                let n = 1 + (splitmix64(rng) % 4) as usize;
                let first = self.next_id;
                self.next_id += n as i64;
                db.session()
                    .execute(&insert_txn_sql(TABLE, first, n))
                    .map_err(|e| self.fail(cycle, format!("inject ack-drop txn: {e}")))?;
                let extract = extractor
                    .extract(db)
                    .map_err(|e| self.fail(cycle, format!("inject ack-drop extract: {e}")))?;
                for vd in extract.deltas {
                    pipe.publish(&DeltaBatch::Value(vd))
                        .map_err(|e| self.fail(cycle, format!("inject ack-drop publish: {e}")))?;
                }
                loop {
                    match pipe.queue().dequeue() {
                        Ok(Some((idx, _))) => {
                            pipe.queue().ack(idx).map_err(|e| {
                                self.fail(cycle, format!("inject ack-drop ack: {e}"))
                            })?;
                            self.stats.acks_dropped += 1;
                        }
                        Ok(None) => break,
                        Err(e) => {
                            return Err(self.fail(cycle, format!("inject ack-drop dequeue: {e}")))
                        }
                    }
                }
            }
        }
        self.stats.divergences_injected += 1;
        Ok(())
    }

    /// Drain the pipeline until the queue is empty, folding sync reports
    /// into the stats.
    fn drain(&mut self, pipe: &Pipeline, wh: &Warehouse, cycle: u64) -> Result<(), String> {
        let mut syncs = 0;
        loop {
            let report = pipe
                .sync(wh)
                .map_err(|e| self.fail(cycle, format!("sync: {e}")))?;
            self.stats.syncs += 1;
            self.stats.applied_batches += report.batches;
            self.stats.deduped += report.deduped;
            self.stats.retries += report.retries;
            if report.quarantined > 0 {
                return Err(self.fail(
                    cycle,
                    format!(
                        "{} healthy batch(es) quarantined: {:?}",
                        report.quarantined,
                        pipe.quarantined()
                    ),
                ));
            }
            if pipe.queue().pending() == 0 {
                break;
            }
            syncs += 1;
            if syncs > MAX_DRAIN_SYNCS {
                return Err(self.fail(
                    cycle,
                    format!(
                        "queue failed to drain after {MAX_DRAIN_SYNCS} syncs ({} pending)",
                        pipe.queue().pending()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// One `--pressure` shipping round: shrink the cycle's queue budget,
    /// then ship through the degradation ladder until the round lands —
    /// compacting the drained spool between attempts, and lifting the
    /// budget entirely when even the coalesced form cannot fit in it
    /// (that is the "pressure lifts" moment the convergence check relies
    /// on; the stream must resume with zero loss).
    fn pressured_ship(
        &mut self,
        db: &Arc<Database>,
        wh: &Warehouse,
        pipe: &Pipeline,
        extractor: &mut ResilientLogExtractor,
        cycle: u64,
        chaos: u64,
    ) -> Result<(), String> {
        let budget = Arc::clone(
            self.queue_budget
                .as_ref()
                .expect("pressure mode arms a budget"),
        );
        let shrink = (cycle / 2).min(8) as u32;
        let mut brng = chaos ^ 0xB0D6_E7B0;
        let bytes = ((16 * 1024u64) >> shrink).max(64) + splitmix64(&mut brng) % 256;
        budget.set_global(Some(bytes));
        let mut lifted = false;
        loop {
            let round = match pipe.ship(db, extractor) {
                Err(EngineError::AuditOwed { .. }) => {
                    // The repair ships through the same queue: let it fit.
                    budget.set_global(None);
                    self.settle_owed_audit(db, wh, pipe, extractor, cycle)?;
                    budget.set_global(Some(bytes));
                    continue;
                }
                round => round.map_err(|e| self.fail(cycle, format!("ship: {e}")))?,
            };
            if std::env::var_os("TORTURE_DEBUG").is_some() {
                eprintln!(
                    "cycle {cycle}: budget {bytes} (rem {:?}) | ship pub {} bp {} deg {} cmp {} \
                     def {} | wm {} next_lsn {} | q pending {} acked {}",
                    budget.remaining(std::path::Path::new("")),
                    round.published,
                    round.backpressure,
                    round.degradations,
                    round.compactions,
                    round.deferred,
                    extractor.watermark(),
                    db.wal().next_lsn(),
                    pipe.queue().pending(),
                    pipe.queue().acked(),
                );
            }
            self.stats.published += round.published;
            self.stats.backpressure += round.backpressure;
            self.stats.ship_degradations += round.degradations;
            self.stats.ship_compactions += round.compactions;
            self.stats.ship_deferrals += round.deferred;
            self.drain(pipe, wh, cycle)?;
            if round.deferred == 0 {
                // Release the budget for the rest of the cycle (audit
                // repair, divergence injection); the next cycle re-arms it.
                budget.set_global(None);
                return Ok(());
            }
            if lifted {
                return Err(self.fail(cycle, "round still deferred after pressure lifted"));
            }
            // The drain acked everything shipped so far; compacting the
            // spool prefix credits those bytes back to the budget. If that
            // reclaims nothing, the budget is simply smaller than this
            // round: pressure lifts.
            let reclaimed = pipe
                .queue()
                .compact()
                .map_err(|e| self.fail(cycle, format!("compact: {e}")))?
                .bytes_reclaimed;
            if reclaimed > 0 {
                self.stats.ship_compactions += 1;
            } else {
                budget.set_global(None);
                self.stats.pressure_lifts += 1;
                lifted = true;
            }
        }
    }

    /// Settle the audit the extractor owes once it quarantined a damaged
    /// archived segment: converge the mirror with one audit pass over the
    /// tracked table (nothing writes to the source meanwhile), then move the
    /// extractor's watermark to the log head.
    fn settle_owed_audit(
        &mut self,
        db: &Database,
        wh: &Warehouse,
        pipe: &Pipeline,
        extractor: &mut ResilientLogExtractor,
        cycle: u64,
    ) -> Result<(), String> {
        let report = audit_and_repair(db, pipe, wh, &[TABLE], &AuditConfig::default())
            .map_err(|e| self.fail(cycle, format!("owed audit: {e}")))?;
        if !report.converged() {
            return Err(self.fail(cycle, format!("owed audit did not converge: {report:?}")));
        }
        extractor.audited(db);
        self.stats.audits_owed += 1;
        self.stats.repair_records += report.repair_records();
        self.stats.syncs += report.drain_syncs;
        Ok(())
    }

    fn run(&mut self) -> Result<TortureStats, String> {
        let mut rng = self.cfg.seed;

        // Create the source table; the extractor's watermark starts at 0,
        // so its first round ships the table from the log.
        let db = Database::open(source_opts(&self.src_dir, None))
            .map_err(|e| self.fail(0, format!("initial source open: {e}")))?;
        db.session()
            .execute(&format!(
                "CREATE TABLE {TABLE} (id INT PRIMARY KEY, grp INT, val INT, filler VARCHAR)"
            ))
            .map_err(|e| self.fail(0, format!("create table: {e}")))?;
        let mut extractor = ResilientLogExtractor::new(self.root.join("extractor"), &[TABLE])
            .map_err(|e| self.fail(0, format!("extractor: {e}")))?;
        drop(db);

        let mut wh = open_warehouse(&self.wh_dir)
            .map_err(|e| self.fail(0, format!("warehouse open: {e}")))?;

        for cycle in 0..self.cfg.cycles {
            let fault_seed = splitmix64(&mut rng);
            let wl_seed = splitmix64(&mut rng);
            let net_seed = splitmix64(&mut rng);
            let chaos = splitmix64(&mut rng);

            // 1–2: faulted workload, then clean reopen (recovery runs here).
            self.faulted_workload(fault_seed, wl_seed);
            let db = Database::open(source_opts(&self.src_dir, None))
                .map_err(|e| self.fail(cycle, format!("recovery reopen: {e}")))?;

            // 3: background chaos — archival, archive corruption, warehouse
            // crash-restart.
            if chaos.is_multiple_of(3) {
                db.checkpoint()
                    .map_err(|e| self.fail(cycle, format!("checkpoint: {e}")))?;
                self.stats.checkpoints += 1;
            }
            if chaos.is_multiple_of(5) {
                let mut crng = chaos;
                if corrupt_archived_segment(&db, extractor.watermark(), &mut crng)
                    .map_err(|e| self.fail(cycle, e))?
                {
                    self.stats.segment_corruptions += 1;
                }
            }
            if chaos % 4 == 1 {
                // Crash the warehouse: leak its database mid-flight and
                // restart. The applied-sequence watermark must keep
                // redelivered batches exactly-once-observable.
                let _ = std::mem::ManuallyDrop::new(wh);
                wh = open_warehouse(&self.wh_dir)
                    .map_err(|e| self.fail(cycle, format!("warehouse reopen: {e}")))?;
                self.stats.warehouse_crashes += 1;
            }

            // 4: extract (after an owed audit if the archive is damaged)
            // and ship through a lossy link with bounded retry.
            let mut pipe = Pipeline::open(&self.queue_path)
                .and_then(|p| p.with_retry(RetryPolicy::quick(4)))
                .map_err(|e| self.fail(cycle, format!("pipeline open: {e}")))?
                .with_batch_size(3)
                .with_net_faults(NetFaultPlan::lossy(net_seed))
                .with_sync_workers(if self.cfg.pressure {
                    self.cfg.sync_workers.max(2)
                } else {
                    self.cfg.sync_workers
                });
            if self.cfg.pressure {
                // Pressure mode: a shrinking spool budget forces the ship
                // ladder (compact → coalesce → defer), and seeded stalls
                // make classes commit out of order.
                let mut srng = chaos ^ 0x57A1_157A_57A1_157A;
                pipe = pipe
                    .with_queue_budget(Arc::clone(
                        self.queue_budget
                            .as_ref()
                            .expect("pressure mode arms a budget"),
                    ))
                    .with_injected_stalls(StallPlan::new(splitmix64(&mut srng), 20, 60));
                self.pressured_ship(&db, &wh, &pipe, &mut extractor, cycle, chaos)?;
            } else {
                let wm_before = extractor.watermark();
                let extract = match extractor.extract(&db) {
                    Err(EngineError::AuditOwed { .. }) => {
                        self.settle_owed_audit(&db, &wh, &pipe, &mut extractor, cycle)?;
                        extractor.extract(&db)
                    }
                    extract => extract,
                }
                .map_err(|e| self.fail(cycle, format!("extract: {e}")))?;
                if std::env::var_os("TORTURE_DEBUG").is_some() {
                    eprintln!(
                        "cycle {cycle}: chaos%3={} %5={} %4={} | wm {wm_before} -> {} (next_lsn {}) | \
                         {} delta(s) with {:?} records",
                        chaos % 3,
                        chaos % 5,
                        chaos % 4,
                        extractor.watermark(),
                        db.wal().next_lsn(),
                        extract.deltas.len(),
                        extract
                            .deltas
                            .iter()
                            .map(|d| d.records.len())
                            .collect::<Vec<_>>(),
                    );
                }
                for vd in extract.deltas {
                    pipe.publish(&DeltaBatch::Value(vd))
                        .map_err(|e| self.fail(cycle, format!("publish: {e}")))?;
                    self.stats.published += 1;
                }
                self.drain(&pipe, &wh, cycle)?;
            }

            // 4b (`--audit` mode): inject a seeded silent divergence, then
            // run one anti-entropy pass. The cycle's convergence check
            // below is the proof the audit actually healed it.
            if self.cfg.audit {
                let mut arng = splitmix64(&mut rng);
                self.inject_divergence(&db, &wh, &pipe, &mut extractor, &mut arng, cycle)?;
                let report = audit_and_repair(&db, &pipe, &wh, &[TABLE], &AuditConfig::default())
                    .map_err(|e| self.fail(cycle, format!("audit: {e}")))?;
                self.stats.audits += 1;
                self.stats.repair_records += report.repair_records();
                self.stats.dlq_reconciled += report.dlq_resolved();
                self.stats.syncs += report.drain_syncs;
                if !report.converged() {
                    return Err(
                        self.fail(cycle, format!("audit repair did not converge: {report:?}"))
                    );
                }
                let dlq = pipe
                    .dlq_entries()
                    .map_err(|e| self.fail(cycle, format!("dlq after audit: {e}")))?;
                if !dlq.is_empty() {
                    return Err(self.fail(
                        cycle,
                        format!("{} DLQ entr(ies) left unreconciled after audit", dlq.len()),
                    ));
                }
            }

            // 5: convergence + exactly-once-observable invariants.
            let src = table_state(&db, "source").map_err(|e| self.fail(cycle, e))?;
            let dst = table_state(wh.db(), "warehouse").map_err(|e| self.fail(cycle, e))?;
            if src != dst {
                let only_src: Vec<_> = src.keys().filter(|k| !dst.contains_key(k)).collect();
                let only_dst: Vec<_> = dst.keys().filter(|k| !src.contains_key(k)).collect();
                let differing = src
                    .iter()
                    .filter(|(k, v)| dst.get(*k).is_some_and(|w| w != *v))
                    .count();
                return Err(self.fail(
                    cycle,
                    format!(
                        "DIVERGENCE: source {} rows, warehouse {} rows; only-source keys {:?}, \
                         only-warehouse keys {:?}, {} rows differ byte-wise",
                        src.len(),
                        dst.len(),
                        only_src,
                        only_dst,
                        differing
                    ),
                ));
            }
            let acked = pipe.queue().acked();
            // Injected ack-then-drops and poison batches permanently park
            // the applied watermark below the ack frontier (their sequences
            // are acked but never marked applied); the audit repairs the
            // *data*, so in audit mode the skew check only applies while
            // neither has been injected yet.
            if acked > 0 && self.stats.acks_dropped == 0 && self.stats.dlq_reconciled == 0 {
                let watermark = wh
                    .applied_watermark()
                    .map_err(|e| self.fail(cycle, format!("watermark read: {e}")))?;
                if watermark != Some(acked - 1) {
                    return Err(self.fail(
                        cycle,
                        format!(
                            "watermark skew: queue acked through {}, warehouse applied \
                             watermark is {watermark:?}",
                            acked - 1
                        ),
                    ));
                }
            }

            drop(db); // clean close; the next cycle re-opens under faults
            self.stats.cycles += 1;
        }
        Ok(self.stats)
    }
}

/// Run `cfg.cycles` seeded crash–recover–resync cycles. `Ok` carries the
/// survival counters; `Err` carries a reproduction message with the seed.
pub fn run(cfg: &TortureConfig) -> Result<TortureStats, String> {
    // Two runs of one seed may share a process (parallel tests), so the
    // scratch root also carries a process-wide run number.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "deltaforge-torture-{}-{:x}-{}",
        std::process::id(),
        cfg.seed,
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("scratch dir: {e}"))?;
    let mut driver = Driver {
        cfg: *cfg,
        src_dir: root.join("source"),
        wh_dir: root.join("warehouse"),
        queue_path: root.join("ship.q"),
        root,
        stats: TortureStats::default(),
        next_id: 0,
        queue_budget: cfg.pressure.then(|| Arc::new(DiskBudget::unlimited())),
    };
    let result = driver.run();
    if result.is_ok() {
        let _ = std::fs::remove_dir_all(&driver.root);
    }
    result
}
