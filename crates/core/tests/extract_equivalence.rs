//! Resilient log extraction ships the same stream on every rung.
//!
//! A seeded loop runs random INSERT / UPDATE / DELETE transactions (some
//! rolled back) against two small tracked tables and ends each round on one
//! of the extractor's rungs: stage → commit, stage → drop, stage_coalesced
//! → commit, a flipped byte in an archived segment the next round must read
//! (quarantine → audit owed), or a drop and re-create of a tracked table.
//! After every committed round the concatenated extracted stream, replayed
//! onto a model of the warehouse, must equal the source tables. A coalesced
//! round must equal, record for record, the paper's snapshot differential
//! (§3.1.2, `diff_snapshots`) of quiescent snapshots taken at its two
//! watermarks. A quarantine must fail every round with the typed audit-owed
//! error until the model is audited (set to the source) and the extractor
//! told so. The extractor must never create a file.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use delta_core::logextract::ResilientLogExtractor;
use delta_core::model::{DeltaOp, ValueDelta};
use delta_core::snapshot::{diff_snapshots, take_snapshot, DiffAlgorithm};
use delta_engine::db::{Database, DbOptions};
use delta_engine::wal::read_segment;
use delta_engine::EngineError;
use delta_storage::Row;

const TABLES: [&str; 2] = ["a", "b"];
const KEYS: u64 = 24;
const ROUNDS: usize = 48;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-extract-equiv-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn create(db: &Arc<Database>, table: &str) {
    db.session()
        .execute(&format!(
            "CREATE TABLE {table} (id INT PRIMARY KEY, v INT, s VARCHAR)"
        ))
        .unwrap();
}

/// Keyed model of what the extracted stream has shipped, per table.
type Model = BTreeMap<String, BTreeMap<i64, Row>>;

fn key(row: &Row) -> i64 {
    row.values()[0].as_int().unwrap()
}

fn replay(model: &mut Model, deltas: &[ValueDelta]) {
    for vd in deltas {
        let rows = model.entry(vd.table.clone()).or_default();
        for r in &vd.records {
            match r.op {
                DeltaOp::Insert | DeltaOp::UpdateAfter => {
                    assert!(rows.insert(key(&r.row), r.row.clone()).is_none());
                }
                DeltaOp::Delete | DeltaOp::UpdateBefore => {
                    assert_eq!(rows.remove(&key(&r.row)).as_ref(), Some(&r.row));
                }
            }
        }
    }
}

/// The rows of `table`, in key order.
fn table_rows(db: &Database, table: &str) -> Vec<Row> {
    let mut rows: Vec<Row> = db
        .scan_table(table)
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    rows.sort_by_key(key);
    rows
}

/// Snapshot every tracked table, quiescent, into `dir/<table>.<tag>`.
fn snapshot_all(db: &Database, dir: &Path, tag: &str) {
    for t in TABLES {
        take_snapshot(db, t, dir.join(format!("{t}.{tag}"))).unwrap();
    }
}

/// The snapshot differential of each tracked table from `dir/<t>.old` to
/// `dir/<t>.new`, per table; tables that did not change are left out.
fn snapshot_deltas(db: &Database, dir: &Path) -> Vec<ValueDelta> {
    let mut out = Vec::new();
    for t in TABLES {
        let schema = db.table(t).unwrap().schema.clone();
        let (vd, _) = diff_snapshots(
            t,
            &schema,
            &schema.primary_key_indices(),
            dir.join(format!("{t}.old")),
            dir.join(format!("{t}.new")),
            DiffAlgorithm::SortMerge { run_size: 1024 },
        )
        .unwrap();
        if !vd.is_empty() {
            out.push(vd);
        }
    }
    out
}

/// One random transaction on `table`: 1–4 keyed statements over a small key
/// space, rolled back one time in six. `present` tracks committed keys.
fn random_txn(db: &Arc<Database>, table: &str, present: &mut BTreeSet<i64>, rng: &mut u64) {
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    let mut staged = present.clone();
    for _ in 0..1 + splitmix64(rng) % 4 {
        let id = (splitmix64(rng) % KEYS) as i64;
        let v = (splitmix64(rng) % 1000) as i64;
        let text = match splitmix64(rng) % 4 {
            0 => "NULL".to_string(),
            n => format!("'s{n}-{v}'"),
        };
        let sql = if !staged.contains(&id) {
            staged.insert(id);
            format!("INSERT INTO {table} VALUES ({id}, {v}, {text})")
        } else if splitmix64(rng).is_multiple_of(3) {
            staged.remove(&id);
            format!("DELETE FROM {table} WHERE id = {id}")
        } else {
            format!("UPDATE {table} SET v = {v}, s = {text} WHERE id = {id}")
        };
        s.execute(&sql).unwrap();
    }
    if splitmix64(rng).is_multiple_of(6) {
        s.execute("ROLLBACK").unwrap();
    } else {
        s.execute("COMMIT").unwrap();
        *present = staged;
    }
}

/// Flip one byte in the middle of an archived segment that still holds
/// records past `watermark`, so the next round has to read it.
fn corrupt_unread_segment(db: &Database, watermark: u64) -> bool {
    let segments = db.wal().archived_segments().unwrap();
    let Some(victim) = segments.iter().find(|p| {
        read_segment(p)
            .ok()
            .and_then(|recs| recs.last().map(|r| r.0))
            .is_some_and(|lsn| lsn > watermark)
    }) else {
        return false;
    };
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(victim, bytes).unwrap();
    true
}

struct Run {
    quarantines: usize,
    /// Coalesced rounds compared against a non-empty snapshot differential.
    compared: usize,
    rungs: [usize; 5],
}

fn run(seed: u64) -> Run {
    let mut rng = seed;
    let dir = scratch(&format!("{seed}"));
    let db: Arc<Database> = Database::open(DbOptions::new(dir.join("src")).archive(true)).unwrap();
    for t in TABLES {
        create(&db, t);
    }
    let snaps = dir.join("snaps");
    std::fs::create_dir_all(&snaps).unwrap();
    let unused = dir.join("extractor");
    let mut x = ResilientLogExtractor::new(&unused, &TABLES).unwrap();
    x.prime(&db).unwrap();
    // The tables at the watermark.
    snapshot_all(&db, &snaps, "old");
    let mut present: BTreeMap<&str, BTreeSet<i64>> =
        TABLES.iter().map(|t| (*t, BTreeSet::new())).collect();
    let mut model = Model::new();
    let mut out = Run {
        quarantines: 0,
        compared: 0,
        rungs: [0; 5],
    };

    for round in 0..ROUNDS {
        for _ in 0..1 + splitmix64(&mut rng) % 6 {
            let t = TABLES[(splitmix64(&mut rng) % 2) as usize];
            random_txn(&db, t, present.get_mut(t).unwrap(), &mut rng);
        }
        if splitmix64(&mut rng).is_multiple_of(3) {
            db.checkpoint().unwrap();
        }
        let rung = (splitmix64(&mut rng) % 5) as usize;
        out.rungs[rung] += 1;
        match rung {
            0 => {
                let staged = x.stage(&db).unwrap();
                assert!(!staged.coalesced);
                replay(&mut model, &x.commit(staged).unwrap().deltas);
            }
            1 => {
                // The publish "failed": nothing moves, the next committed
                // round carries these changes.
                drop(x.stage(&db).unwrap());
                assert!(!unused.exists(), "seed {seed} round {round}");
                continue;
            }
            2 => {
                let staged = x.stage_coalesced(&db).unwrap();
                assert!(staged.coalesced);
                snapshot_all(&db, &snaps, "new");
                let expected = snapshot_deltas(&db, &snaps);
                out.compared += usize::from(!expected.is_empty());
                let tables = |deltas: &[ValueDelta]| -> Vec<String> {
                    deltas.iter().map(|vd| vd.table.clone()).collect()
                };
                assert_eq!(
                    tables(&staged.outcome.deltas),
                    tables(&expected),
                    "seed {seed} round {round}"
                );
                for (got, want) in staged.outcome.deltas.iter().zip(&expected) {
                    assert_eq!(
                        got.records, want.records,
                        "seed {seed} round {round}: coalesced {} is its snapshot differential",
                        got.table
                    );
                }
                replay(&mut model, &x.commit(staged).unwrap().deltas);
            }
            3 => {
                db.checkpoint().unwrap();
                let damaged = corrupt_unread_segment(&db, x.watermark());
                if !damaged {
                    let staged = x.stage(&db).unwrap();
                    replay(&mut model, &x.commit(staged).unwrap().deltas);
                } else {
                    out.quarantines += 1;
                    match x.stage(&db) {
                        Err(EngineError::AuditOwed { tables, segments }) => {
                            assert_eq!(tables, TABLES);
                            assert_eq!(segments.len(), 1, "seed {seed} round {round}");
                        }
                        other => panic!("seed {seed} round {round}: {other:?}"),
                    }
                    let owed = |r| matches!(r, Err(EngineError::AuditOwed { .. }));
                    assert!(owed(x.stage(&db)), "seed {seed} round {round}");
                    assert!(owed(x.stage_coalesced(&db)), "seed {seed} round {round}");
                    // The audit converges the warehouse to the source.
                    for t in TABLES {
                        let rows = table_rows(&db, t).into_iter().map(|r| (key(&r), r));
                        model.insert(t.to_string(), rows.collect());
                    }
                    x.audited(&db);
                }
            }
            _ => {
                // Nothing ships a drop: the consumer restarts its mirror of
                // the table, and the stream carries what followed.
                let t = TABLES[(splitmix64(&mut rng) % 2) as usize];
                db.drop_table(t).unwrap();
                create(&db, t);
                let p = present.get_mut(t).unwrap();
                p.clear();
                random_txn(&db, t, p, &mut rng);
                model.remove(t);
                let staged = x.stage(&db).unwrap();
                assert!(!staged.coalesced);
                replay(&mut model, &x.commit(staged).unwrap().deltas);
            }
        }
        for t in TABLES {
            let shipped: Vec<Row> = model
                .get(t)
                .map(|m| m.values().cloned().collect())
                .unwrap_or_default();
            assert_eq!(
                shipped,
                table_rows(&db, t),
                "seed {seed} round {round} rung {rung}: {t}"
            );
        }
        snapshot_all(&db, &snaps, "old");
        assert!(
            !unused.exists(),
            "seed {seed} round {round}: a file appeared"
        );
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn every_rung_ships_the_table_and_coalescing_equals_the_snapshot_differential() {
    let mut rungs = [0; 5];
    let (mut compared, mut quarantines) = (0, 0);
    for seed in [1, 2, 3, 0x5EED, 411_0001, 909_690] {
        let r = run(seed);
        compared += r.compared;
        quarantines += r.quarantines;
        for (total, n) in rungs.iter_mut().zip(r.rungs) {
            *total += n;
        }
    }
    assert!(rungs.iter().all(|n| *n >= 10), "every rung ran: {rungs:?}");
    assert!(compared >= 30, "coalesced rounds were compared: {compared}");
    assert!(quarantines >= 6, "segments were quarantined: {quarantines}");
}
