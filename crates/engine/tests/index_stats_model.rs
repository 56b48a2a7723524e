//! Index statistics against a model: after every step `Index::len` equals
//! a recount of the map, and `count_range` equals a filtered recount (exact
//! up to its limit, past it otherwise).

use std::collections::BTreeSet;
use std::ops::Bound;

use delta_engine::db::{Database, DbOptions};
use delta_engine::index::{Index, IndexDef};
use delta_engine::EngineError;
use delta_storage::{RecordId, Value};

/// xorshift64*: seeded, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn bound(kind: u64, v: &Value) -> Bound<&Value> {
    match kind {
        0 => Bound::Unbounded,
        1 => Bound::Included(v),
        _ => Bound::Excluded(v),
    }
}

fn within(lo: Bound<&Value>, hi: Bound<&Value>, key: i64) -> bool {
    let above = match lo {
        Bound::Unbounded => true,
        Bound::Included(v) => key >= v.as_int().unwrap(),
        Bound::Excluded(v) => key > v.as_int().unwrap(),
    };
    let below = match hi {
        Bound::Unbounded => true,
        Bound::Included(v) => key <= v.as_int().unwrap(),
        Bound::Excluded(v) => key < v.as_int().unwrap(),
    };
    above && below
}

/// `idx` agrees with `model` on its entry count and on a random range.
fn assert_statistics(idx: &Index, model: &BTreeSet<(i64, RecordId)>, rng: &mut Rng, step: &str) {
    assert_eq!(idx.len(), model.len(), "len after {step}");
    assert!(idx.len_matches_recount(), "recount after {step}");
    assert_eq!(idx.is_empty(), model.is_empty(), "is_empty after {step}");
    let all = idx.range(Bound::Unbounded, Bound::Unbounded);
    assert_eq!(all.len(), model.len(), "full range after {step}");

    // Inverted and empty ranges included: they count nothing.
    let (a, b) = (
        Value::Int(rng.below(24) as i64 - 2),
        Value::Int(rng.below(24) as i64 - 2),
    );
    let (lo, hi) = (bound(rng.below(3), &a), bound(rng.below(3), &b));
    let expected = model.iter().filter(|(k, _)| within(lo, hi, *k)).count();
    assert_eq!(
        idx.count_range(lo, hi, usize::MAX),
        expected,
        "count_range({lo:?}, {hi:?}) after {step}"
    );
    assert_eq!(idx.range(lo, hi).len(), expected, "range after {step}");
    let limit = rng.below(6) as usize;
    let bounded = idx.count_range(lo, hi, limit);
    if expected <= limit {
        assert_eq!(bounded, expected, "bounded count below its limit");
    } else {
        assert!(
            bounded > limit && bounded <= expected,
            "bounded count {bounded} for {expected} matches, limit {limit}"
        );
    }
}

fn churn_one_index(unique: bool, seed: u64) {
    let idx = Index::new(
        IndexDef {
            name: "i".into(),
            table: "t".into(),
            column: "c".into(),
            unique,
        },
        0,
    );
    let mut model: BTreeSet<(i64, RecordId)> = BTreeSet::new();
    let mut rng = Rng(seed);
    for step in 0..3_000 {
        let key = rng.below(20) as i64;
        let rid = RecordId::new(rng.below(4) as u32, rng.below(8) as u16);
        let what = match rng.below(100) {
            0 => {
                idx.clear();
                model.clear();
                "clear".to_string()
            }
            1..=9 => {
                idx.insert(&Value::Null, rid).unwrap();
                idx.remove(&Value::Null, rid);
                "NULL insert + remove".to_string()
            }
            10..=54 => {
                let taken = model.iter().any(|(k, r)| *k == key && *r != rid);
                let result = idx.insert(&Value::Int(key), rid);
                if unique && taken {
                    assert!(
                        matches!(result, Err(EngineError::DuplicateKey { .. })),
                        "step {step}: unique index took a second rid for {key}"
                    );
                } else {
                    result.unwrap();
                    model.insert((key, rid));
                }
                format!("insert ({key}, {rid:?})")
            }
            55..=64 => {
                // Re-insert a pair that is there: idempotent, counted once.
                if let Some(&(k, r)) = model.iter().nth(rng.below(20) as usize) {
                    idx.insert(&Value::Int(k), r).unwrap();
                }
                "duplicate re-insert".to_string()
            }
            _ => {
                // Present or absent, as the draw falls.
                idx.remove(&Value::Int(key), rid);
                model.remove(&(key, rid));
                format!("remove ({key}, {rid:?})")
            }
        };
        assert_statistics(&idx, &model, &mut rng, &format!("step {step}: {what}"));
    }
}

#[test]
fn index_statistics_track_a_model_through_churn() {
    for seed in [1, 0x9E37_79B9_7F4A_7C15, 42] {
        churn_one_index(false, seed);
        churn_one_index(true, seed);
    }
}

/// Every index of `t` against the heap: `(name, column position)`.
const INDEXES: [(&str, usize); 3] = [("pk_t", 0), ("u_code", 1), ("v_idx", 2)];

fn assert_indexes_match_heap(db: &Database, rng: &mut Rng, step: &str) {
    let rows = db.scan_table("t").unwrap();
    for (name, pos) in INDEXES {
        let idx = db.indexes().get(name).unwrap();
        // NULL keys are not indexed.
        let model: BTreeSet<(i64, RecordId)> = rows
            .iter()
            .filter_map(|(rid, r)| r.values()[pos].as_int().ok().map(|k| (k, *rid)))
            .collect();
        assert_statistics(&idx, &model, rng, &format!("{step} ({name})"));
    }
}

#[test]
fn database_indexes_keep_their_statistics_through_dml_abort_and_rebuild() {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-idxstats-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(DbOptions::new(&dir)).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, code INT, v INT)")
        .unwrap();
    s.execute("CREATE UNIQUE INDEX u_code ON t (code)").unwrap();
    s.execute("CREATE INDEX v_idx ON t (v)").unwrap();

    let mut rng = Rng(7);
    for step in 0..600 {
        let in_txn = rng.below(4) == 0;
        if in_txn {
            s.execute("BEGIN").unwrap();
        }
        for _ in 0..=rng.below(4) {
            let (id, code, v) = (rng.below(40), rng.below(60), rng.below(8));
            let code = if code % 7 == 0 {
                "NULL".to_string()
            } else {
                code.to_string()
            };
            let sql = match rng.below(4) {
                0 | 1 => format!("INSERT INTO t VALUES ({id}, {code}, {v})"),
                2 => format!("UPDATE t SET code = {code}, v = {v} WHERE id = {id}"),
                _ => format!("DELETE FROM t WHERE v = {v} AND id < {id}"),
            };
            // Unique rejections are part of the churn.
            match s.execute(&sql) {
                Ok(_) | Err(EngineError::DuplicateKey { .. }) => {}
                Err(e) => panic!("step {step}: {sql}: {e}"),
            }
        }
        let how = if !in_txn {
            "autocommit"
        } else if rng.below(2) == 0 {
            s.execute("ROLLBACK").unwrap();
            "abort after churn"
        } else {
            s.execute("COMMIT").unwrap();
            "commit"
        };
        assert_indexes_match_heap(&db, &mut rng, &format!("step {step}: {how}"));
        if step % 97 == 0 {
            db.rebuild_indexes_for("t").unwrap();
            assert_indexes_match_heap(&db, &mut rng, &format!("step {step}: rebuild"));
            db.checkpoint().unwrap();
        }
    }
    assert!(db.row_count("t").unwrap() > 0, "the churn left rows behind");
}
