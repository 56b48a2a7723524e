//! Resilient log extraction ships the same stream on every rung.
//!
//! A seeded loop runs random INSERT / UPDATE / DELETE transactions (some
//! rolled back) against two small tracked tables and ends each round on one
//! of the extractor's rungs: stage → commit, stage → abort, stage_coalesced
//! → commit, a flipped byte in an archived segment the next round must read
//! (quarantine → diff), or a drop and re-create of a tracked table. After
//! every committed round the concatenated extracted stream, replayed onto a
//! model, must equal the source tables, and the extractor's baseline at the
//! watermark (baseline file ⊕ journal) must equal a snapshot of the
//! quiescent table. The tables stay small, so the journal outgrows its
//! baseline file and gets folded many times per seed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use delta_core::logextract::ResilientLogExtractor;
use delta_core::model::{DeltaOp, ValueDelta};
use delta_core::snapshot::take_snapshot;
use delta_engine::db::{Database, DbOptions};
use delta_engine::wal::read_segment;
use delta_storage::colbatch::RowSource;
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

fn sorted_rows(path: &Path) -> Vec<Vec<u8>> {
    let mut src = RowSource::open(path).unwrap();
    let mut rows = Vec::new();
    while let Some(row) = src.next_row().unwrap() {
        rows.push(row.to_bytes());
    }
    rows.sort();
    rows
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
    folds: usize,
    quarantines: usize,
    rungs: [usize; 5],
}

fn run(seed: u64) -> Run {
    let mut rng = seed;
    let dir = scratch(&format!("{seed}"));
    let db: Arc<Database> = Database::open(DbOptions::new(dir.join("src")).archive(true)).unwrap();
    for t in TABLES {
        create(&db, t);
    }
    let baselines = dir.join("baselines");
    let mut x = ResilientLogExtractor::new(&baselines, &TABLES).unwrap();
    x.prime(&db).unwrap();
    let mut present: BTreeMap<&str, BTreeSet<i64>> =
        TABLES.iter().map(|t| (*t, BTreeSet::new())).collect();
    let mut model = Model::new();
    let mut out = Run {
        folds: 0,
        quarantines: 0,
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
        let files_before: Vec<_> = TABLES
            .iter()
            .map(|t| std::fs::read(baselines.join(format!("{t}.baseline"))).unwrap())
            .collect();
        let log_round = match rung {
            0 => {
                let staged = x.stage(&db).unwrap();
                let log_round = !staged.coalesced;
                replay(&mut model, &x.commit(staged).unwrap().deltas);
                log_round
            }
            1 => {
                // The publish "failed": nothing moves, the next committed
                // round carries these changes.
                let staged = x.stage(&db).unwrap();
                x.abort(staged);
                continue;
            }
            2 => {
                let staged = x.stage_coalesced(&db).unwrap();
                assert!(staged.coalesced);
                replay(&mut model, &x.commit(staged).unwrap().deltas);
                false
            }
            3 => {
                db.checkpoint().unwrap();
                let damaged = corrupt_unread_segment(&db, x.watermark());
                out.quarantines += usize::from(damaged);
                let staged = x.stage(&db).unwrap();
                assert_eq!(staged.coalesced, damaged, "seed {seed} round {round}");
                assert_eq!(staged.outcome.quarantined_segments.is_empty(), !damaged);
                replay(&mut model, &x.commit(staged).unwrap().deltas);
                false
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
                false
            }
        };
        for (t, before) in TABLES.iter().zip(&files_before) {
            let mut table: Vec<Row> = db
                .scan_table(t)
                .unwrap()
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            table.sort_by_key(key);
            let shipped: Vec<Row> = model
                .get(*t)
                .map(|m| m.values().cloned().collect())
                .unwrap_or_default();
            assert_eq!(shipped, table, "seed {seed} round {round} rung {rung}: {t}");

            let ours = dir.join("ours");
            let theirs = dir.join("theirs");
            x.write_baseline(t, &ours).unwrap();
            take_snapshot(&db, t, &theirs).unwrap();
            assert_eq!(
                sorted_rows(&ours),
                sorted_rows(&theirs),
                "seed {seed} round {round} rung {rung}: baseline ⊕ journal of {t}"
            );
            let after = std::fs::read(baselines.join(format!("{t}.baseline"))).unwrap();
            if log_round && &after != before {
                out.folds += 1;
            }
        }
    }
    let leftovers: Vec<_> = std::fs::read_dir(&baselines)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| !n.ends_with(".baseline"))
        .collect();
    assert!(leftovers.is_empty(), "seed {seed}: debris {leftovers:?}");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn every_rung_ships_the_table_and_the_journal_tracks_the_watermark() {
    let mut rungs = [0; 5];
    let (mut folds, mut quarantines) = (0, 0);
    for seed in [1, 2, 3, 0x5EED, 411_0001, 909_690] {
        let r = run(seed);
        folds += r.folds;
        quarantines += r.quarantines;
        for (total, n) in rungs.iter_mut().zip(r.rungs) {
            *total += n;
        }
    }
    assert!(rungs.iter().all(|n| *n >= 10), "every rung ran: {rungs:?}");
    assert!(
        folds >= 6,
        "the journal bound fired on the log path: {folds}"
    );
    assert!(quarantines >= 6, "segments were quarantined: {quarantines}");
}
