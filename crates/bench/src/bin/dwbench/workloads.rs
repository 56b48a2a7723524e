//! The four workloads. Each owns a [`Site`], sets it up (seeding the source
//! and bootstrapping the warehouse *through the path it later measures*),
//! and runs repetitions. A repetition is a number of maintenance rounds —
//! source transactions with capture armed → extract → ship → sync — and
//! nothing that the workload is not about: only `olap_mixed` has a reader,
//! only `snapshot_audit` an audit. Why each workload exists is in the README
//! next to this file.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use delta_core::logextract::ResilientLogExtractor;
use delta_core::opdelta::{OpDeltaCapture, OpLogSink};
use delta_core::selfmaint::{SelfMaintAnalyzer, WarehouseProfile};
use delta_core::snapshot::{diff_snapshots_parallel, take_snapshot, DiffAlgorithm};
use delta_engine::Session;
use delta_warehouse::{JoinCond, SpjView};

use crate::gen::{self, KeySet, Rng, Window};
use crate::harness::{self as h, ctx, Rep, Res, Site, POOL_PAGES};
use crate::stats::{self, Round};
use crate::trace::{Tracer, ROUND};

/// Sizes at full scale and at `--quick` (about 1 %, for the in-binary test).
fn pick<T>(quick: bool, full: T, small: T) -> T {
    if quick {
        small
    } else {
        full
    }
}

pub trait Workload {
    fn site(&self) -> &Site;
    /// Source tables the gate compares with their mirrors.
    fn tables(&self) -> &[String];
    /// One repetition. With `tr.enabled()` shipping runs step by step.
    fn repetition(&mut self, tr: &mut Tracer, rep: &mut Rep) -> Res<()>;
    /// Input sizes, for the result document.
    fn sizes(&self) -> Vec<(&'static str, f64)>;
}

/// Set up `name` under `dir`: seed the source, bootstrap the warehouse.
pub fn setup(name: &str, dir: &Path, seed: u64, quick: bool) -> Res<Box<dyn Workload>> {
    // Each workload draws from its own stream of the one seed.
    let rng = Rng::new(seed).fork(name);
    Ok(match name {
        "value_stream" => Box::new(ValueStream::setup(dir, rng, quick)?),
        "op_bulk" => Box::new(OpBulk::setup(dir, rng, quick)?),
        "olap_mixed" => Box::new(OlapMixed::setup(dir, rng, quick)?),
        "snapshot_audit" => Box::new(SnapshotAudit::setup(dir, rng, quick)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Freshness of a closed-loop round: every transaction became visible when
/// the round's last `sync` returned.
fn credit_round(commits: &[Instant], visible: Instant, rep: &mut Rep) {
    rep.fresh_ms.extend(
        commits
            .iter()
            .map(|c| visible.duration_since(*c).as_secs_f64() * 1e3),
    );
}

// ---------------------------------------------------------------------
// value_stream
// ---------------------------------------------------------------------

/// Closed loop, one load thread: small keyed transactions captured from the
/// archived WAL, shipped as columnar value deltas, applied to full mirrors.
/// Fits in the buffer pools.
///
/// The two wide tables carry a COUNT/SUM view each and take three quarters
/// of the transactions. The costly views sit on the two small tables: a
/// MIN/MAX view rescans its base table when a group's extreme row changes,
/// and the join view scans the other joined table once per changed row, so at
/// the size of the wide tables those two would be the whole workload and
/// the value-delta path (log, codec, spool, keyed apply) would not show.
pub struct ValueStream {
    site: Site,
    tables: Vec<String>,
    keys: Vec<KeySet>,
    extractor: ResilientLogExtractor,
    source: Session,
    rng: Rng,
    /// Rows per table: `t0` and `t1` (joined) small, `t2` and `t3` wide.
    rows: [i64; 4],
    rounds: usize,
    txns_per_round: usize,
    /// Position in the table-and-size schedule and in the statement cycle.
    txn_no: u64,
    stmt_no: u64,
}

/// Which table each transaction of a cycle of sixteen goes to: one to each
/// small table, seven to each wide one.
const TABLE_SCHEDULE: [usize; 16] = [2, 3, 2, 3, 0, 2, 3, 2, 3, 2, 3, 1, 2, 3, 2, 3];
/// Statements per transaction run 1..=8, one step per table cycle, so 128
/// transactions meet every slot of the cycle at every size.
const MAX_STMTS: u64 = 8;

impl ValueStream {
    fn setup(dir: &Path, rng: Rng, quick: bool) -> Res<ValueStream> {
        let rows = pick(quick, [250, 250, 20_000, 20_000], [50, 50, 300, 300]);
        let tables: Vec<String> = (0..4).map(|i| format!("t{i}")).collect();
        let mut site = Site::open(dir, POOL_PAGES, POOL_PAGES, true)?;
        for (i, t) in tables.iter().enumerate() {
            site.add_table(t, None)?;
            site.add_agg_view(t, i < 2)?;
        }
        site.wh
            .add_view(SpjView {
                name: "t0_t1".into(),
                tables: vec!["t0".into(), "t1".into()],
                joins: vec![JoinCond::new("t0", "id", "t1", "id")],
                selection: None,
                projection: vec![
                    ("t0".into(), "id".into()),
                    ("t1".into(), "id".into()),
                    ("t0".into(), "val".into()),
                    ("t1".into(), "val".into()),
                ],
            })
            .map_err(ctx("add join view"))?;
        // Baselines describe the empty tables the watermark (0) refers to;
        // the seeding below is then the first extracted round, so the
        // warehouse is bootstrapped through the log path itself.
        let names: Vec<&str> = tables.iter().map(String::as_str).collect();
        let mut extractor =
            ResilientLogExtractor::new(dir.join("baselines"), &names).map_err(ctx("extractor"))?;
        extractor.prime(&site.src).map_err(ctx("prime"))?;
        let mut source = site.src.session();
        for (t, n) in tables.iter().zip(rows) {
            h::run_setup_sql(&mut source, &gen::seed_statements(t, n))?;
        }
        let (mut tr, mut boot) = (Tracer::new(false), Rep::default());
        h::checkpoint(&mut tr, &mut site, &mut boot)?;
        h::ship(&mut tr, &site, &mut extractor, &mut boot)?;
        h::drain(&mut tr, &site, &mut boot)?;
        Ok(ValueStream {
            keys: rows.iter().map(|n| KeySet::seeded(*n)).collect(),
            site,
            tables,
            extractor,
            source,
            rng,
            rows,
            rounds: pick(quick, 2, 1),
            txns_per_round: pick(quick, 512, 128),
            txn_no: 0,
            stmt_no: 0,
        })
    }

    fn next_txn(&mut self) -> Vec<String> {
        let cycle = TABLE_SCHEDULE.len() as u64;
        let t = TABLE_SCHEDULE[(self.txn_no % cycle) as usize];
        let stmts = 1 + (self.txn_no / cycle) % MAX_STMTS;
        self.txn_no += 1;
        gen::small_txn(
            &mut self.rng,
            &self.tables[t],
            &mut self.keys[t],
            stmts,
            &mut self.stmt_no,
        )
    }
}

impl Workload for ValueStream {
    fn site(&self) -> &Site {
        &self.site
    }

    fn tables(&self) -> &[String] {
        &self.tables
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("tables", self.tables.len() as f64),
            ("rows_per_joined_table", self.rows[0] as f64),
            ("rows_per_wide_table", self.rows[2] as f64),
            ("rounds_per_repetition", self.rounds as f64),
            ("txns_per_round", self.txns_per_round as f64),
            ("src_pool_pages", POOL_PAGES as f64),
            ("wh_pool_pages", POOL_PAGES as f64),
        ]
    }

    fn repetition(&mut self, tr: &mut Tracer, rep: &mut Rep) -> Res<()> {
        for _ in 0..self.rounds {
            // Generated before the round starts: generator time is not
            // part of the measured loop.
            let txns: Vec<Vec<String>> =
                (0..self.txns_per_round).map(|_| self.next_txn()).collect();
            tr.next_round();
            let span = tr.begin(ROUND);
            let mut commits = Vec::with_capacity(txns.len());
            for txn in &txns {
                h::run_txn(tr, &mut self.source, txn, rep)?;
                commits.push(Instant::now());
            }
            h::checkpoint(tr, &mut self.site, rep)?;
            let frames = h::ship(tr, &self.site, &mut self.extractor, rep)?;
            h::drain(tr, &self.site, rep)?;
            credit_round(&commits, Instant::now(), rep);
            rep.round_s += tr.end(span);
            rep.rounds += 1;
            h::decode_probe(tr, &frames)?;
        }
        h::compact(tr, &self.site, rep)
    }
}

// ---------------------------------------------------------------------
// op_bulk
// ---------------------------------------------------------------------

const OP_LOG: &str = "op_log";
const PROJECTED_COLUMNS: [&str; 3] = ["id", "grp", "val"];

fn op_analyzer() -> SelfMaintAnalyzer {
    SelfMaintAnalyzer::new(
        WarehouseProfile::new()
            .mirror_full("parts")
            .mirror_columns("stock", &PROJECTED_COLUMNS),
    )
}

/// Closed loop, one load thread: set-oriented transactions captured as
/// Op-Deltas (self-maintainability analyzer armed) and replayed at the
/// warehouse; one mirror is projected, so some operations ship with before
/// images.
///
/// Two choices steer around a storage defect this workload first exposed
/// (see "Known product defects" in the README): the capture sink is the
/// flat file, not the op-log table, and the mirrors carry no views. Both the
/// op-log table and a view's capture table are heaps that are emptied and
/// refilled with records of other sizes, which can corrupt a page.
pub struct OpBulk {
    site: Site,
    tables: Vec<String>,
    capture: OpDeltaCapture,
    /// The capture wrapper's flat-file sink.
    log: std::path::PathBuf,
    analyzer: SelfMaintAnalyzer,
    parts: Window,
    stock: Window,
    rng: Rng,
    shape: u64,
    rows: i64,
    rounds: usize,
    txns_per_round: usize,
    txn_rows: (i64, i64),
}

impl OpBulk {
    fn setup(dir: &Path, rng: Rng, quick: bool) -> Res<OpBulk> {
        let rows = pick(quick, 20_000, 400);
        let tables = vec!["parts".to_string(), "stock".to_string()];
        let mut site = Site::open(dir, POOL_PAGES, POOL_PAGES, false)?;
        site.add_table("parts", None)?;
        site.add_table("stock", Some(&PROJECTED_COLUMNS))?;
        let analyzer = op_analyzer();
        let log = dir.join("op.log");
        let mut capture = OpDeltaCapture::new(site.src.session(), OpLogSink::File(log.clone()))
            .map_err(ctx("op-delta capture"))?
            .with_analyzer(analyzer.clone());
        // Seeding goes through the capture wrapper, so the warehouse is
        // bootstrapped by replaying the captured INSERTs.
        let (mut tr, mut boot) = (Tracer::new(false), Rep::default());
        for t in &tables {
            for sql in gen::seed_statements(t, rows) {
                capture.execute(&sql).map_err(ctx("captured seeding"))?;
            }
            h::collect_ops_file(&mut tr, &site, &log, &mut boot)?;
            h::drain(&mut tr, &site, &mut boot)?;
        }
        h::checkpoint(&mut tr, &mut site, &mut boot)?;
        Ok(OpBulk {
            site,
            tables,
            capture,
            log,
            analyzer,
            parts: Window::seeded(rows),
            stock: Window::seeded(rows),
            rng,
            shape: 0,
            rows,
            rounds: pick(quick, 4, 1),
            txns_per_round: pick(quick, 8, 8),
            txn_rows: pick(quick, (100, 1000), (5, 20)),
        })
    }
}

impl Workload for OpBulk {
    fn site(&self) -> &Site {
        &self.site
    }

    fn tables(&self) -> &[String] {
        &self.tables
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("tables", 2.0),
            ("rows_per_table", self.rows as f64),
            ("rounds_per_repetition", self.rounds as f64),
            ("txns_per_round", self.txns_per_round as f64),
            ("min_rows_per_txn", self.txn_rows.0 as f64),
            ("max_rows_per_txn", self.txn_rows.1 as f64),
            ("src_pool_pages", POOL_PAGES as f64),
            ("wh_pool_pages", POOL_PAGES as f64),
        ]
    }

    fn repetition(&mut self, tr: &mut Tracer, rep: &mut Rep) -> Res<()> {
        for round in 0..self.rounds {
            // Row counts follow a schedule: over the four rounds of a
            // repetition every shape runs once at each of four sizes.
            let (min, max) = self.txn_rows;
            let txns: Vec<Vec<String>> = (0..self.txns_per_round)
                .map(|_| {
                    self.shape += 1;
                    let level = (round as u64 + self.shape) % 4;
                    gen::bulk_txn(
                        &mut self.rng,
                        self.shape,
                        ("parts", &mut self.parts),
                        ("stock", &mut self.stock),
                        min + (max - min) * level as i64 / 3,
                    )
                })
                .collect();
            tr.next_round();
            let span = tr.begin(ROUND);
            let mut commits = Vec::with_capacity(txns.len());
            for txn in &txns {
                h::run_captured_txn(tr, &mut self.capture, &self.analyzer, txn, rep)?;
                commits.push(Instant::now());
            }
            h::checkpoint(tr, &mut self.site, rep)?;
            let frames = h::collect_ops_file(tr, &self.site, &self.log, rep)?;
            h::drain(tr, &self.site, rep)?;
            credit_round(&commits, Instant::now(), rep);
            rep.round_s += tr.end(span);
            rep.rounds += 1;
            h::decode_probe(tr, &frames)?;
        }
        h::compact(tr, &self.site, rep)
    }
}

// ---------------------------------------------------------------------
// olap_mixed
// ---------------------------------------------------------------------

/// One scheduled write of the open-loop writer.
struct Job {
    stmts: Vec<String>,
    /// Through the Op-Delta capture wrapper (`parts`) or plain (`orders`).
    captured: bool,
}

/// When one write was due and when its commit returned, in seconds since
/// the repetition began; `None` if the transaction failed.
struct Written {
    due: f64,
    done: Option<f64>,
}

/// Open-loop writer at a fixed rate beside one closed-loop OLAP reader (with
/// think time), while the main thread starts a maintenance round every
/// `round_period`. Flat out, the three would oversubscribe the two cores,
/// and every latency would measure whatever else needed a core. The period is
/// about twice what a typical round takes here and half again what a round
/// with an Op-Delta in it takes: this machine has stretches in which it runs
/// at little more than half speed, and with a period close to the round's own
/// length the pipeline then fell behind the writer, so that freshness
/// measured the backlog. The period is not a multiple of the writer's: if it
/// were, every round would block the same few writes of each cycle, and the
/// tail of the write latency would hang on how the two clocks happened to be
/// aligned. `orders` is captured from the log (value deltas), `parts` by the
/// Op-Delta wrapper (one range UPDATE every `range_every` writes), so each
/// `sync` mixes value waves and Op-Delta barriers.
pub struct OlapMixed {
    site: Site,
    tables: Vec<String>,
    orders: KeySet,
    parts: Window,
    extractor: ResilientLogExtractor,
    capture: OpDeltaCapture,
    analyzer: SelfMaintAnalyzer,
    source: Session,
    olap: Session,
    rng: Rng,
    rows: i64,
    writes: usize,
    rate_per_s: f64,
    range_every: usize,
    range_rows: i64,
    round_period: Duration,
    reader_think: Duration,
    /// Position in the size schedule and the statement cycle of the small
    /// writes.
    small_no: u64,
    stmt_no: u64,
}

impl OlapMixed {
    fn setup(dir: &Path, rng: Rng, quick: bool) -> Res<OlapMixed> {
        let rows = pick(quick, 20_000, 300);
        let tables = vec!["orders".to_string(), "parts".to_string()];
        let mut site = Site::open(dir, POOL_PAGES, POOL_PAGES, true)?;
        site.add_table("orders", None)?;
        site.add_table("parts", None)?;
        // No view on `parts`: see the note on `OpBulk`.
        site.add_agg_view("orders", true)?;
        let mut extractor = ResilientLogExtractor::new(dir.join("baselines"), &["orders"])
            .map_err(ctx("extractor"))?;
        extractor.prime(&site.src).map_err(ctx("prime"))?;
        let analyzer = SelfMaintAnalyzer::new(WarehouseProfile::new().mirror_full("parts"));
        let mut capture = OpDeltaCapture::new(site.src.session(), OpLogSink::Table(OP_LOG.into()))
            .map_err(ctx("op-delta capture"))?
            .with_analyzer(analyzer.clone());
        let mut source = site.src.session();
        h::run_setup_sql(&mut source, &gen::seed_statements("orders", rows))?;
        for sql in gen::seed_statements("parts", rows) {
            capture.execute(&sql).map_err(ctx("captured seeding"))?;
        }
        let (mut tr, mut boot) = (Tracer::new(false), Rep::default());
        h::checkpoint(&mut tr, &mut site, &mut boot)?;
        h::ship(&mut tr, &site, &mut extractor, &mut boot)?;
        h::collect_ops(&mut tr, &site, OP_LOG, &mut boot)?;
        h::drain(&mut tr, &site, &mut boot)?;
        Ok(OlapMixed {
            olap: site.wh.db().session(),
            site,
            tables,
            orders: KeySet::seeded(rows),
            parts: Window::seeded(rows),
            extractor,
            capture,
            analyzer,
            source,
            rng,
            rows,
            writes: pick(quick, 400, 30),
            rate_per_s: pick(quick, 200.0, 300.0),
            range_every: pick(quick, 100, 10),
            range_rows: pick(quick, 500, 20),
            round_period: Duration::from_millis(pick(quick, 97, 10)),
            reader_think: Duration::from_millis(pick(quick, 10, 1)),
            small_no: 0,
            stmt_no: 0,
        })
    }

    fn plan(&mut self) -> Vec<Job> {
        (0..self.writes)
            .map(|i| {
                if i % self.range_every == self.range_every - 1 {
                    Job {
                        // Shape 0: `UPDATE parts SET val = val + d WHERE aux in range`.
                        stmts: gen::bulk_txn(
                            &mut self.rng,
                            0,
                            ("parts", &mut self.parts),
                            ("unused", &mut Window::seeded(0)),
                            self.range_rows,
                        ),
                        captured: true,
                    }
                } else {
                    // 1..=4 statements in turn: a schedule, not a draw.
                    let stmts = 1 + self.small_no % 4;
                    self.small_no += 1;
                    Job {
                        stmts: gen::small_txn(
                            &mut self.rng,
                            "orders",
                            &mut self.orders,
                            stmts,
                            &mut self.stmt_no,
                        ),
                        captured: false,
                    }
                }
            })
            .collect()
    }
}

impl Workload for OlapMixed {
    fn site(&self) -> &Site {
        &self.site
    }

    fn tables(&self) -> &[String] {
        &self.tables
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("tables", 2.0),
            ("rows_per_table", self.rows as f64),
            ("writes_per_repetition", self.writes as f64),
            ("write_rate_per_s", self.rate_per_s),
            ("range_update_every", self.range_every as f64),
            ("range_update_rows", self.range_rows as f64),
            ("olap_readers", 1.0),
            ("round_period_ms", self.round_period.as_secs_f64() * 1e3),
            ("reader_think_ms", self.reader_think.as_secs_f64() * 1e3),
            ("src_pool_pages", POOL_PAGES as f64),
            ("wh_pool_pages", POOL_PAGES as f64),
        ]
    }

    fn repetition(&mut self, tr: &mut Tracer, rep: &mut Rep) -> Res<()> {
        let plan = self.plan();
        let period = Duration::from_secs_f64(1.0 / self.rate_per_s);
        let (round_period, reader_think) = (self.round_period, self.reader_think);
        let writer_done = AtomicBool::new(false);
        let stop_reader = AtomicBool::new(false);
        let origin = Instant::now();
        let since = |t: Instant| t.duration_since(origin).as_secs_f64();

        // Split the borrows: the writer owns the source sessions, the reader
        // the warehouse session, the main thread everything else.
        let OlapMixed {
            site,
            extractor,
            capture,
            analyzer,
            source,
            olap,
            tables,
            ..
        } = self;
        let (writer_done, stop_reader) = (&writer_done, &stop_reader);

        let mut rounds: Vec<Round> = Vec::new();
        // When each round was scheduled to begin (it begins later when the
        // one before overran).
        let mut scheduled: Vec<f64> = Vec::new();
        let mut last_round_frames = 0;
        let (written, wrep, wtr, rrep, rtr) = std::thread::scope(|scope| {
            let writer = scope.spawn(move || -> Res<(Vec<Written>, Rep, Tracer)> {
                let (mut tr, mut rep) = (Tracer::new(false), Rep::default());
                let mut written = Vec::with_capacity(plan.len());
                let result = (|| {
                    for (i, job) in plan.iter().enumerate() {
                        let due = origin + period * i as u32;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let late = Instant::now().saturating_duration_since(due);
                        rep.lateness_ms.push(late.as_secs_f64() * 1e3);
                        let failed_before = rep.failed;
                        if job.captured {
                            h::run_captured_txn(&mut tr, capture, analyzer, &job.stmts, &mut rep)?;
                        } else {
                            h::run_txn(&mut tr, source, &job.stmts, &mut rep)?;
                        }
                        written.push(Written {
                            due: since(due),
                            done: (rep.failed == failed_before).then(|| since(Instant::now())),
                        });
                    }
                    Ok(())
                })();
                // Always release the main loop, even on error.
                writer_done.store(true, Ordering::SeqCst);
                result.map(|()| (written, rep, tr))
            });
            let reader = scope.spawn(move || -> Res<(Rep, Tracer)> {
                let (mut tr, mut rep) = (Tracer::new(false), Rep::default());
                let mut i = 0;
                while !stop_reader.load(Ordering::SeqCst) {
                    h::olap_query(&mut tr, olap, &tables[i % tables.len()], &mut rep)?;
                    i += 1;
                    std::thread::sleep(reader_think);
                }
                Ok((rep, tr))
            });

            // A maintenance round every `round_period` (late ones start at
            // once) until one has begun after the writer finished: that
            // round makes the last write visible.
            let main = (|| -> Res<()> {
                let mut next_start = origin;
                loop {
                    let now = Instant::now();
                    if now < next_start {
                        std::thread::sleep(next_start - now);
                    }
                    scheduled.push(since(next_start));
                    next_start = (next_start + round_period).max(Instant::now());
                    let finished = writer_done.load(Ordering::SeqCst);
                    tr.next_round();
                    let span = tr.begin(ROUND);
                    let ship_begin = since(Instant::now());
                    let frames_before = rep.value_frames + rep.op_frames;
                    h::checkpoint(tr, site, rep)?;
                    let mut frames = h::ship(tr, site, extractor, rep)?;
                    frames.extend(h::collect_ops(tr, site, OP_LOG, rep)?);
                    h::drain(tr, site, rep)?;
                    rounds.push(Round {
                        ship_begin,
                        sync_end: since(Instant::now()),
                    });
                    tr.end(span);
                    rep.rounds += 1;
                    h::decode_probe(tr, &frames)?;
                    if finished {
                        last_round_frames = rep.value_frames + rep.op_frames - frames_before;
                        return Ok(());
                    }
                }
            })();
            stop_reader.store(true, Ordering::SeqCst);
            let writer = writer
                .join()
                .map_err(|_| "writer thread panicked".to_string());
            let reader = reader
                .join()
                .map_err(|_| "reader thread panicked".to_string());
            main?;
            let (written, wrep, wtr) = writer??;
            let (rrep, rtr) = reader??;
            Ok::<_, String>((written, wrep, wtr, rrep, rtr))
        })?;

        // The whole repetition is the measured loop here, and the writer's
        // schedule sets all of it but the last round.
        rep.round_s += rounds.last().map_or(0.0, |r| r.sync_end);
        rep.scheduled_s += period.as_secs_f64() * written.len() as f64;
        rep.backlog_end_batches = last_round_frames;
        let mut per_round = vec![0u64; rounds.len()];
        for w in &written {
            match w
                .done
                .and_then(|done| stats::freshness(w.due, done, &rounds))
            {
                Some((round, fresh)) => {
                    per_round[round] += 1;
                    rep.fresh_ms.push(fresh * 1e3);
                    // Waiting for the round's scheduled start is the
                    // schedule's doing, whatever the machine's speed.
                    let wait = (scheduled[round] - w.due).clamp(0.0, fresh);
                    rep.fresh_scheduled_ms.push(wait * 1e3);
                }
                // Failed writes are already counted; an unseen commit is new.
                None if w.done.is_some() => {
                    rep.failed += 1;
                    rep.gate_errors
                        .push("a committed write was never shipped".into());
                }
                None => {}
            }
        }
        if !stats::kept_up(&per_round) {
            // A growing backlog: freshness measures the length of the
            // repetition, not the system.
            rep.fell_behind = Some(format!(
                "the pipeline fell behind the writer; writes made visible per round: {per_round:?}"
            ));
        }
        for other in [wrep, rrep] {
            rep.rows += other.rows;
            rep.attempted += other.attempted;
            rep.failed += other.failed;
            rep.hybrid_ops += other.hybrid_ops;
            rep.olap_timeouts += other.olap_timeouts;
            rep.txn_us.extend(other.txn_us);
            rep.olap_ms.extend(other.olap_ms);
            rep.lateness_ms.extend(other.lateness_ms);
            rep.gate_errors.extend(other.gate_errors);
        }
        tr.absorb(&wtr);
        tr.absorb(&rtr);
        h::compact(tr, &self.site, rep)
    }
}

// ---------------------------------------------------------------------
// snapshot_audit
// ---------------------------------------------------------------------

/// Closed loop, one load thread, working set ≫ cache: a table ten times the
/// buffer pools is rewritten in scattered places with capture off, extracted
/// by snapshot differencing, shipped in bulk, then corrupted and audited.
pub struct SnapshotAudit {
    site: Site,
    tables: Vec<String>,
    source: Session,
    rng: Rng,
    rows: i64,
    pool_pages: usize,
    rewrites: i64,
    corrupt_rows: usize,
    phantoms: i64,
}

const BIG: &str = "big";
const PUBLISH_CHUNK_ROWS: usize = 512;
const DIFF_WORKERS: usize = 2;

impl SnapshotAudit {
    fn setup(dir: &Path, rng: Rng, quick: bool) -> Res<SnapshotAudit> {
        let rows: i64 = pick(quick, 40_000, 2_000);
        // ~100 B rows, 8 KiB pages: the pool holds about a tenth of the table.
        let pool_pages = pick(quick, 56, 8);
        let mut site = Site::open(dir, pool_pages, pool_pages, false)?;
        site.add_table(BIG, None)?;
        let mut w = SnapshotAudit {
            source: site.src.session(),
            site,
            tables: vec![BIG.to_string()],
            rng,
            rows,
            pool_pages,
            rewrites: rows / 100,
            corrupt_rows: (rows / 1000).max(4) as usize,
            phantoms: 0,
        };
        // The previous snapshot of the first round is the empty table, so
        // the warehouse is bootstrapped by the first snapshot differential.
        take_snapshot(&w.site.src, BIG, w.prev_path()).map_err(ctx("empty snapshot"))?;
        h::run_setup_sql(&mut w.source, &gen::seed_statements(BIG, rows))?;
        let (mut tr, mut boot) = (Tracer::new(false), Rep::default());
        w.extract_round(&mut tr, &mut boot)?;
        Ok(w)
    }

    fn prev_path(&self) -> std::path::PathBuf {
        self.site.dir.join("big.prev.snap")
    }

    /// Checkpoint, snapshot, diff against the previous snapshot, publish in
    /// 512-row batches, sync; the new snapshot becomes the previous one.
    fn extract_round(&mut self, tr: &mut Tracer, rep: &mut Rep) -> Res<Vec<Vec<u8>>> {
        h::checkpoint(tr, &mut self.site, rep)?;
        let new_path = self.site.dir.join("big.new.snap");
        let s = tr.begin("core.take_snapshot");
        let r = take_snapshot(&self.site.src, BIG, &new_path);
        tr.end(s);
        r.map_err(ctx("take_snapshot"))?;
        rep.snapshot_bytes += std::fs::metadata(&new_path)
            .map_err(ctx("snapshot size"))?
            .len();
        let schema = self
            .site
            .src
            .table(BIG)
            .map_err(ctx("schema"))?
            .schema
            .clone();
        let s = tr.begin("core.snapshot_diff");
        let r = diff_snapshots_parallel(
            BIG,
            &schema,
            &schema.primary_key_indices(),
            self.prev_path(),
            &new_path,
            DiffAlgorithm::SortMerge { run_size: 4096 },
            DIFF_WORKERS,
        );
        tr.end(s);
        let (delta, _stats) = r.map_err(ctx("diff_snapshots_parallel"))?;
        rep.diff_records += delta.len() as u64;
        let frames = h::publish_chunked(tr, &self.site, delta, PUBLISH_CHUNK_ROWS, rep)?;
        h::drain(tr, &self.site, rep)?;
        std::fs::rename(&new_path, self.prev_path()).map_err(ctx("rotate snapshot"))?;
        Ok(frames)
    }
}

impl Workload for SnapshotAudit {
    fn site(&self) -> &Site {
        &self.site
    }

    fn tables(&self) -> &[String] {
        &self.tables
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("tables", 1.0),
            ("rows_per_table", self.rows as f64),
            ("rows_rewritten_per_repetition", self.rewrites as f64),
            ("rows_corrupted_per_repetition", self.corrupt_rows as f64),
            ("src_pool_pages", self.pool_pages as f64),
            ("wh_pool_pages", self.pool_pages as f64),
            ("diff_workers", DIFF_WORKERS as f64),
            ("publish_chunk_rows", PUBLISH_CHUNK_ROWS as f64),
        ]
    }

    fn repetition(&mut self, tr: &mut Tracer, rep: &mut Rep) -> Res<()> {
        let txns = gen::rewrite_txns(&mut self.rng, BIG, self.rows, self.rewrites, 5);
        tr.next_round();
        let span = tr.begin(ROUND);
        let mut commits = Vec::with_capacity(txns.len());
        for txn in &txns {
            h::run_txn(tr, &mut self.source, txn, rep)?;
            commits.push(Instant::now());
        }
        let frames = self.extract_round(tr, rep)?;
        credit_round(&commits, Instant::now(), rep);
        rep.round_s += tr.end(span);
        rep.rounds += 1;
        h::decode_probe(tr, &frames)?;
        let keys: Vec<i64> = (0..self.rows).collect();
        self.phantoms += self.corrupt_rows as i64;
        let damage = gen::corruption(
            &mut self.rng,
            BIG,
            &keys,
            self.corrupt_rows,
            self.rows + self.phantoms,
        );
        h::corrupt_and_audit(tr, &self.site, BIG, &damage, rep)?;
        if tr.enabled() {
            h::digest_probe(tr, &self.site, BIG, self.rows, rep)?;
        }
        h::compact(tr, &self.site, rep)
    }
}
