//! Indexes against a model: a map from each key to the set of its record
//! ids, ordered as `Value::total_cmp` orders keys. After every step
//! `Index::len` equals the model's entry count; `lookup` and
//! `lookup_unique` return the key's rids; `range` and `count_range` equal a
//! filtered walk of the model (`count_range` exact up to its limit, one past
//! it otherwise); and a chunked `entries_after` walk returns every entry,
//! whole keys per chunk, whatever the chunk limit.
//!
//! Keys are drawn as `Int`s, or as `Double`s or `Timestamp`s that tie with
//! the `Int` of the same number (`total_cmp` calls them one key): a
//! non-unique index holds them side by side, and a unique one rejects a
//! second rid under a tying key of another type.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use delta_engine::db::{Database, DbOptions};
use delta_engine::index::{Index, IndexDef};
use delta_engine::EngineError;
use delta_storage::{RecordId, Value};

/// Each key's record ids; the key is the number every tying value stands for.
type Model = BTreeMap<i64, BTreeSet<RecordId>>;

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

/// Which types stand for a key besides `Int`. `Double` and `Timestamp` are
/// never mixed in one index: `total_cmp` ranks them apart, though each ties
/// with `Int`.
#[derive(Clone, Copy, Debug)]
enum Mix {
    IntOnly,
    WithDouble,
    WithTimestamp,
}

/// `k` as one of the values `mix` allows, drawn at random.
fn value(k: i64, mix: Mix, rng: &mut Rng) -> Value {
    match (mix, rng.below(2)) {
        (Mix::WithDouble, 0) => Value::Double(k as f64),
        (Mix::WithTimestamp, 0) => Value::Timestamp(k),
        _ => Value::Int(k),
    }
}

/// The number an indexed value stands for.
fn number(v: &Value) -> i64 {
    match v {
        Value::Int(k) | Value::Timestamp(k) => *k,
        Value::Double(d) => *d as i64,
        other => panic!("unexpected key {other:?}"),
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
        Bound::Included(v) => key >= number(v),
        Bound::Excluded(v) => key > number(v),
    };
    let below = match hi {
        Bound::Unbounded => true,
        Bound::Included(v) => key <= number(v),
        Bound::Excluded(v) => key < number(v),
    };
    above && below
}

/// The model's entries in index order: by key, then by rid.
fn entries(model: &Model) -> impl Iterator<Item = (i64, RecordId)> + '_ {
    model
        .iter()
        .flat_map(|(&k, rids)| rids.iter().map(move |&rid| (k, rid)))
}

/// Walk `idx` in `entries_after` chunks of `limit` and check each chunk
/// against the model. Returns whether some chunk ran past its limit to
/// finish a key (a key straddling the chunk boundary).
fn assert_chunked_walk(idx: &Index, model: &Model, limit: usize, step: &str) -> bool {
    let mut walked = Vec::new();
    let mut last: Option<Value> = None;
    let mut straddled = false;
    loop {
        let chunk = idx.entries_after(last.as_ref(), limit);
        let Some((key, _)) = chunk.last() else { break };
        let last_key = number(key);
        let before_last_key = chunk.iter().filter(|(k, _)| number(k) != last_key).count();
        // At least `limit` pairs, unless the walk ran out; the last key
        // whole, so only it may carry the chunk past `limit`.
        assert!(
            chunk.len() >= limit
                || walked.len() + chunk.len() == model.values().map(BTreeSet::len).sum(),
            "chunk of {} under limit {limit} mid-walk, {step}",
            chunk.len()
        );
        assert!(
            before_last_key < limit,
            "chunk ran on past limit {limit} into key {last_key}, {step}"
        );
        assert_eq!(
            chunk.iter().filter(|(k, _)| number(k) == last_key).count(),
            model[&last_key].len(),
            "key {last_key} split across chunks (limit {limit}), {step}"
        );
        straddled |= chunk.len() > limit;
        walked.extend(chunk.iter().map(|(k, rid)| (number(k), *rid)));
        last = Some(key.clone());
    }
    assert_eq!(
        walked,
        entries(model).collect::<Vec<_>>(),
        "entries_after walk with limit {limit}, {step}"
    );
    straddled
}

/// `idx` agrees with `model` on its entry count, on point probes, on a
/// random range and on chunked walks. Returns whether a walk straddled.
fn assert_against_model(idx: &Index, model: &Model, mix: Mix, rng: &mut Rng, step: &str) -> bool {
    let len: usize = model.values().map(BTreeSet::len).sum();
    assert_eq!(idx.len(), len, "len after {step}");
    assert_eq!(idx.is_empty(), len == 0, "is_empty after {step}");
    let all = idx.range(Bound::Unbounded, Bound::Unbounded);
    assert_eq!(
        all,
        entries(model).map(|(_, rid)| rid).collect::<Vec<_>>(),
        "full range after {step}"
    );

    for k in [rng.below(24) as i64 - 2, rng.below(24) as i64 - 2] {
        let probe = value(k, mix, rng);
        let held: Vec<RecordId> = model.get(&k).into_iter().flatten().copied().collect();
        assert_eq!(idx.lookup(&probe), held, "lookup({probe:?}) after {step}");
        assert_eq!(
            idx.lookup_unique(&probe),
            held.first().copied(),
            "lookup_unique({probe:?}) after {step}"
        );
    }

    // Inverted and empty ranges included: they count nothing.
    let (a, b) = (
        value(rng.below(24) as i64 - 2, mix, rng),
        value(rng.below(24) as i64 - 2, mix, rng),
    );
    let (lo, hi) = (bound(rng.below(3), &a), bound(rng.below(3), &b));
    let expected: Vec<RecordId> = entries(model)
        .filter(|&(k, _)| within(lo, hi, k))
        .map(|(_, rid)| rid)
        .collect();
    assert_eq!(
        idx.count_range(lo, hi, usize::MAX),
        expected.len(),
        "count_range({lo:?}, {hi:?}) after {step}"
    );
    assert_eq!(
        idx.range(lo, hi),
        expected,
        "range({lo:?}, {hi:?}) after {step}"
    );
    let limit = rng.below(6) as usize;
    let bounded = idx.count_range(lo, hi, limit);
    if expected.len() <= limit {
        assert_eq!(bounded, expected.len(), "bounded count below its limit");
    } else {
        assert_eq!(
            bounded,
            limit + 1,
            "bounded count for {} matches, limit {limit}",
            expected.len()
        );
    }

    let limit = 1 + rng.below(4) as usize;
    assert_chunked_walk(idx, model, limit, step)
}

fn churn_one_index(unique: bool, mix: Mix, seed: u64) {
    let idx = Index::new(
        IndexDef {
            name: "i".into(),
            table: "t".into(),
            column: "c".into(),
            unique,
        },
        0,
    );
    let mut model = Model::new();
    let mut rng = Rng(seed);
    let mut straddles = 0;
    for step in 0..3_000 {
        let key = rng.below(20) as i64;
        let v = value(key, mix, &mut rng);
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
                let taken = model.get(&key).is_some_and(|r| r.iter().any(|&r| r != rid));
                let result = idx.insert(&v, rid);
                if unique && taken {
                    match result {
                        Err(EngineError::DuplicateKey { table, key: text }) => {
                            assert_eq!((table.as_str(), text), ("t", v.to_string()));
                        }
                        other => panic!(
                            "step {step}: unique index took a second rid for {v:?}: {other:?}"
                        ),
                    }
                } else {
                    result.unwrap();
                    model.entry(key).or_default().insert(rid);
                }
                format!("insert ({v:?}, {rid:?})")
            }
            55..=64 => {
                // Re-insert a pair that is there, under any tying value:
                // idempotent, counted once, never a duplicate.
                let present: Vec<(i64, RecordId)> = entries(&model).collect();
                if let Some(&(k, r)) = present.get(rng.below(20) as usize) {
                    let again = value(k, mix, &mut rng);
                    idx.insert(&again, r).unwrap();
                }
                "duplicate re-insert".to_string()
            }
            _ => {
                // Present or absent, as the draw falls.
                idx.remove(&v, rid);
                if let Some(rids) = model.get_mut(&key) {
                    rids.remove(&rid);
                    if rids.is_empty() {
                        model.remove(&key);
                    }
                }
                format!("remove ({v:?}, {rid:?})")
            }
        };
        let step = format!("step {step}: {what} ({mix:?})");
        straddles += usize::from(assert_against_model(&idx, &model, mix, &mut rng, &step));
    }
    if !unique {
        assert!(
            straddles > 0,
            "no chunk ever straddled a key ({mix:?}, seed {seed})"
        );
    }
}

#[test]
fn index_statistics_track_a_model_through_churn() {
    for seed in [1, 0x9E37_79B9_7F4A_7C15, 42] {
        for mix in [Mix::IntOnly, Mix::WithDouble, Mix::WithTimestamp] {
            churn_one_index(false, mix, seed);
            churn_one_index(true, mix, seed);
        }
    }
}

#[test]
fn a_chunked_walk_keeps_each_key_whole_at_every_limit() {
    let idx = Index::new(
        IndexDef {
            name: "i".into(),
            table: "t".into(),
            column: "c".into(),
            unique: false,
        },
        0,
    );
    // Keys 0..6 holding two and three rids in turn, under tying types:
    // every limit from 1 to 4 cuts some chunk inside a key.
    let mut model = Model::new();
    for k in 0..6i64 {
        let values = [Value::Int(k), Value::Double(k as f64), Value::Int(k)];
        for (n, v) in values.into_iter().take(2 + k as usize % 2).enumerate() {
            let rid = RecordId::new(7 - k as u32, n as u16);
            idx.insert(&v, rid).unwrap();
            model.entry(k).or_default().insert(rid);
        }
    }
    for limit in 1..=4 {
        assert!(
            assert_chunked_walk(&idx, &model, limit, "fixed keys"),
            "limit {limit} cut no key"
        );
    }
}

/// Every index of `t` against the heap: `(name, column position)`.
const INDEXES: [(&str, usize); 3] = [("pk_t", 0), ("u_code", 1), ("v_idx", 2)];

fn assert_indexes_match_heap(db: &Database, rng: &mut Rng, step: &str) {
    let rows = db.scan_table("t").unwrap();
    for (name, pos) in INDEXES {
        let idx = db.indexes().get(name).unwrap();
        // NULL keys are not indexed.
        let mut model = Model::new();
        for (rid, r) in &rows {
            if let Ok(k) = r.values()[pos].as_int() {
                model.entry(k).or_default().insert(*rid);
            }
        }
        assert_against_model(&idx, &model, Mix::IntOnly, rng, &format!("{step} ({name})"));
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
