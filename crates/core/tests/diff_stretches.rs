//! Stretch oracle for the key-ordered snapshot diff (DESIGN.md §36). When
//! both sides are single key-ordered runs, the merge skips a stretch of
//! equal rows at once: two uniform blocks are compared a column at a time
//! over their typed slices, and only where a stretch ends does the merge
//! compare one pair of rows. Here both sides are cut into
//! `DEFAULT_BLOCK_ROWS`-row blocks whose long equal stretches are broken at
//! random offsets and next to block boundaries — on one side only, once an
//! insert or a delete has shifted the other side's rows. The columns take
//! every encoding of every column type (Int plain, delta-of-delta and RLE,
//! Timestamp, Str raw, dictionary and front, Double with NaN, −0.0 and 0.0,
//! Bool, and a raw column holding NULLs); keys are an Int, a Timestamp, a
//! Double (−0.0, 0.0 and NaN among them), and two columns over a dictionary
//! string or a NULL-bearing column. Breaks include a column that is raw on
//! one side and typed on the other, Int cells where the other side holds
//! Timestamps, ragged blocks, keys on one side only, empty blocks and empty
//! files. Every diff must equal, record for record (as bytes) and with equal
//! `DiffStats`, a reference that builds every row and merges the two row
//! lists. A key out of its header's order inside a uniform integer-keyed
//! block, or at its first row against the block before, is corruption.

use std::cmp::Ordering;
use std::path::{Path, PathBuf};

use delta_core::model::DeltaOp;
use delta_core::snapshot::{diff_snapshots, DiffAlgorithm, DiffStats};
use delta_storage::colbatch::{
    encode_rows_block, put_block, RowSink, RowSource, DEFAULT_BLOCK_ROWS,
};
use delta_storage::{Column, DataType, Row, Schema, StorageError, StorageResult, Value};

/// xorshift64*: deterministic cases.
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

fn cmp_on(a: &Row, b: &Row, key: &[usize]) -> Ordering {
    key.iter()
        .map(|&c| a.values()[c].total_cmp(&b.values()[c]))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// A record as bytes, so that rows holding NaN compare as the same record.
type Record = (DeltaOp, Vec<u8>);

/// Every row of `path`, built; a file whose header names `key` is held to
/// that order.
fn read_all(path: &Path, key: &[usize]) -> StorageResult<Vec<Row>> {
    let mut src = RowSource::open(path)?;
    let claims = src.key() == key;
    let mut rows: Vec<Row> = Vec::new();
    while let Some(row) = src.next_row()? {
        if claims
            && rows
                .last()
                .is_some_and(|prev| cmp_on(&row, prev, key).is_lt())
        {
            return Err(StorageError::Corrupt("out of order".into()));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// The merge-join over built rows, one pair at a time, counting what the
/// diff counts.
fn reference(old: &Path, new: &Path, key: &[usize]) -> StorageResult<(Vec<Record>, DiffStats)> {
    let (o, n) = (read_all(old, key)?, read_all(new, key)?);
    let mut stats = DiffStats {
        rows_read: (o.len() + n.len()) as u64,
        ..DiffStats::default()
    };
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    loop {
        let order = match (o.get(i), n.get(j)) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(a), Some(b)) => {
                stats.comparisons += 1;
                cmp_on(a, b, key)
            }
        };
        match order {
            Ordering::Less => {
                out.push((DeltaOp::Delete, o[i].to_bytes()));
                i += 1;
            }
            Ordering::Greater => {
                out.push((DeltaOp::Insert, n[j].to_bytes()));
                j += 1;
            }
            Ordering::Equal => {
                if o[i] != n[j] {
                    out.push((DeltaOp::UpdateBefore, o[i].to_bytes()));
                    out.push((DeltaOp::UpdateAfter, n[j].to_bytes()));
                }
                i += 1;
                j += 1;
            }
        }
    }
    Ok((out, stats))
}

fn diff(old: &Path, new: &Path, key: &[usize]) -> StorageResult<(Vec<Record>, DiffStats)> {
    let schema = Schema::new(vec![Column::new("c0", DataType::Int)]).unwrap();
    let algo = DiffAlgorithm::SortMerge { run_size: 64 };
    let (delta, stats) = diff_snapshots("t", &schema, key, old, new, algo)?;
    let records = delta
        .records
        .iter()
        .map(|r| (r.op, r.row.to_bytes()))
        .collect();
    Ok((records, stats))
}

/// Write `rows` under the sort key `key` in `DEFAULT_BLOCK_ROWS`-row
/// blocks. With `tail`, the rows from `tail.0` on follow as hand-framed
/// blocks of `tail.1` rows behind an empty block.
fn write(path: &Path, rows: &[Row], key: &[usize], tail: Option<(usize, usize)>) {
    let split = tail.map_or(rows.len(), |(at, _)| at.min(rows.len()));
    let mut sink = RowSink::create_sorted(path, DEFAULT_BLOCK_ROWS, key).unwrap();
    for row in &rows[..split] {
        sink.write_row(row.clone()).unwrap();
    }
    sink.finish().unwrap();
    if let Some((_, block_rows)) = tail {
        let mut bytes = std::fs::read(path).unwrap();
        put_block(&mut bytes, &encode_rows_block(&[]));
        for chunk in rows[split..].chunks(block_rows) {
            put_block(&mut bytes, &encode_rows_block(chunk));
        }
        std::fs::write(path, bytes).unwrap();
    }
}

/// Columns of [`row`], each shaped for one encoding.
const KEY: usize = 0;
const INT_PLAIN: usize = 1;
const INT_RLE: usize = 2;
const INT_DELTA2: usize = 3;
const TIMESTAMP: usize = 4;
const STR_RAW: usize = 5;
const STR_DICT: usize = 6;
const STR_FRONT: usize = 7;
const DOUBLE: usize = 8;
const BOOL: usize = 9;
const NULLS: usize = 10;
const WIDTH: usize = 11;

/// The key column's type.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyKind {
    Int,
    Timestamp,
    /// Monotone in the ordinal, with −0.0 (on the old side; 0.0 on the new)
    /// at ordinal `ZERO` and NaN after every other key.
    Double,
}

const ZERO: i64 = 1_000;

/// The row of ordinal `k`: a cell per encoding, all functions of `k`.
fn row(k: i64, kind: KeyKind, new_side: bool) -> Row {
    let key = match kind {
        KeyKind::Int => Value::Int(k),
        KeyKind::Timestamp => Value::Timestamp(k),
        KeyKind::Double if k == ZERO => Value::Double(if new_side { 0.0 } else { -0.0 }),
        KeyKind::Double if k == i64::MAX => Value::Double(f64::NAN),
        KeyKind::Double => Value::Double((k - ZERO) as f64 / 4.0),
    };
    let k = k.min(1 << 40);
    let double = match k {
        _ if k % 97 == 0 => f64::NAN,
        _ if k % 89 == 0 => -0.0,
        _ if k % 83 == 0 => 0.0,
        _ => k as f64 / 3.0,
    };
    let mut vals = vec![Value::Null; WIDTH];
    vals[KEY] = key;
    vals[INT_PLAIN] = Value::Int(k.wrapping_mul(0x5DEE_CE66_D1CE_4E5B));
    vals[INT_RLE] = Value::Int(k / 300);
    vals[INT_DELTA2] = Value::Int(7 * k);
    vals[TIMESTAMP] = Value::Timestamp(1_700_000_000_000 + 1_000 * k);
    let hash = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    vals[STR_RAW] = Value::Str(format!("{hash:x}"));
    vals[STR_DICT] =
        Value::Str(["alpha-alpha", "beta-beta-beta", "gamma"][(k / 50 % 3) as usize].into());
    vals[STR_FRONT] = Value::Str(format!("key-{k:08}-é-suffix"));
    vals[DOUBLE] = Value::Double(double);
    vals[BOOL] = Value::Bool(k % 3 == 0);
    if k % 5 != 0 {
        vals[NULLS] = Value::Int(k);
    }
    Row::new(vals)
}

/// `v` changed to another value of its type, except that a −0.0 becomes
/// 0.0, which is `==` to it, and NaN stays NaN, which is not.
fn changed(v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::Int(i.wrapping_add(1)),
        Value::Timestamp(t) => Value::Timestamp(t + 1),
        Value::Str(s) => Value::Str(format!("{s}!")),
        Value::Double(d) if d.is_nan() => Value::Double(f64::NAN),
        Value::Double(d) if *d == 0.0 => Value::Double(-d),
        Value::Double(d) => Value::Double(d + 1.0),
        Value::Bool(b) => Value::Bool(!b),
        Value::Null => Value::Int(0),
    }
}

fn set(row: &mut Row, col: usize, v: Value) {
    let mut vals = row.values().to_vec();
    vals[col] = v;
    *row = Row::new(vals);
}

struct Case {
    key: Vec<usize>,
    kind: KeyKind,
    old: Vec<Row>,
    new: Vec<Row>,
}

/// Sort `rows` on `key` and keep the first row of each key.
fn keyed(mut rows: Vec<Row>, key: &[usize]) -> Vec<Row> {
    rows.sort_by(|a, b| cmp_on(a, b, key));
    rows.dedup_by(|a, b| cmp_on(a, b, key).is_eq());
    rows
}

/// One case: the old side holds every even ordinal; the new side is a copy
/// with breaks at random offsets and beside block boundaries.
fn case(rng: &mut Rng) -> Case {
    let kind = [KeyKind::Int, KeyKind::Timestamp, KeyKind::Double][rng.below(3) as usize];
    let key: Vec<usize> = match (kind, rng.below(4)) {
        (KeyKind::Int, 0) => vec![STR_DICT, KEY],
        (KeyKind::Int, 1) => vec![NULLS, KEY],
        _ => vec![KEY],
    };
    let n = 2_000 + rng.below(2_500) as i64;
    let mut ordinals: Vec<i64> = (0..n).map(|i| 2 * i).collect();
    if kind == KeyKind::Double {
        ordinals.push(i64::MAX);
    }
    let old: Vec<Row> = ordinals.iter().map(|&k| row(k, kind, false)).collect();
    let mut new: Vec<Row> = ordinals.iter().map(|&k| row(k, kind, true)).collect();

    // Break positions: random offsets, and rows beside a block boundary of
    // the new side as first written (an earlier insert or delete moves the
    // old side's boundary away from it).
    let mut breaks: Vec<usize> = (0..1 + rng.below(12))
        .map(|_| rng.below(new.len() as u64) as usize)
        .collect();
    for b in (DEFAULT_BLOCK_ROWS..new.len()).step_by(DEFAULT_BLOCK_ROWS) {
        if rng.below(2) == 0 {
            breaks.push(b - 1 + rng.below(3) as usize);
        }
    }
    breaks.sort_unstable();
    breaks.dedup();
    let mut inserts = Vec::new();
    // From the back, so an insert or delete leaves earlier offsets in place.
    for &at in breaks.iter().rev() {
        let Some(r) = new.get(at).cloned() else {
            continue;
        };
        let k = 2 * at as i64;
        match rng.below(8) {
            // One cell changed (a −0.0 to 0.0 is no change at all).
            0 | 1 => {
                let c = 1 + rng.below(WIDTH as u64 - 1) as usize;
                set(&mut new[at], c, changed(&r.values()[c]));
            }
            2 => {
                new.remove(at);
            }
            3 => inserts.push(row(k + 1, kind, true)),
            // A NULL turns the block's integer column raw on this side only.
            4 => set(&mut new[at], INT_PLAIN, Value::Null),
            // Int cells where the old side holds Timestamps: equal keys, unequal
            // rows, and a key column of a different kind when it is the key.
            5 => {
                let col = if kind == KeyKind::Timestamp && rng.below(2) == 0 {
                    KEY
                } else {
                    TIMESTAMP
                };
                let end = (at + 1 + rng.below(1_500) as usize).min(new.len());
                for r in &mut new[at..end] {
                    let Value::Timestamp(t) = r.values()[col] else {
                        continue;
                    };
                    set(r, col, Value::Int(t));
                }
            }
            // A longer row makes its block ragged.
            6 => {
                let mut vals = r.values().to_vec();
                vals.push(Value::Bool(true));
                new[at] = Row::new(vals);
            }
            _ => {
                let c = 1 + rng.below(WIDTH as u64 - 1) as usize;
                set(&mut new[at], c, changed(&r.values()[c]));
                set(&mut new[at], DOUBLE, Value::Double(f64::NAN));
            }
        }
    }
    new.extend(inserts);
    let (mut old, mut new) = (keyed(old, &key), keyed(new, &key));
    match rng.below(20) {
        0 => old.clear(),
        1 => new.clear(),
        _ => {}
    }
    Case {
        key,
        kind,
        old,
        new,
    }
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "delta-diff-stretches-{}-{label}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_stretch_skipping_diff_equals_the_row_building_reference() {
    let dir = scratch("oracle");
    let (old, new) = (dir.join("old.snap"), dir.join("new.snap"));
    let mut rng = Rng(0x5EED_0040);
    let (mut records, mut compared, mut doubles, mut two_column, mut tails) = (0, 0, 0, 0, 0);
    for n in 0..24 {
        let c = case(&mut rng);
        let tail = |rng: &mut Rng, len: usize| {
            (rng.below(4) == 0).then(|| {
                (
                    rng.below(len as u64 + 1) as usize,
                    300 + rng.below(900) as usize,
                )
            })
        };
        let (old_tail, new_tail) = (tail(&mut rng, c.old.len()), tail(&mut rng, c.new.len()));
        write(&old, &c.old, &c.key, old_tail);
        write(&new, &c.new, &c.key, new_tail);
        let want = reference(&old, &new, &c.key).unwrap();
        let got = diff(&old, &new, &c.key).unwrap();
        assert_eq!(got.0, want.0, "case {n}: {:?} key {:?}", c.kind, c.key);
        assert_eq!(got.1, want.1, "case {n}: {:?} key {:?}", c.kind, c.key);
        records += got.0.len();
        compared += got.1.comparisons;
        doubles += usize::from(c.kind == KeyKind::Double);
        two_column += usize::from(c.key.len() == 2);
        tails += usize::from(old_tail.is_some() || new_tail.is_some());
    }
    assert!(
        records > 500 && compared > 30_000 && doubles >= 4 && two_column >= 2 && tails >= 4,
        "{records} records, {compared} pairs compared, {doubles} double keys, \
         {two_column} two-column keys, {tails} empty blocks"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_signed_zero_or_nan_key_is_never_inside_a_stretch() {
    // The old side keys ordinal `ZERO` as −0.0 and the new side as 0.0:
    // equal under `==`, two keys under `total_cmp`, so a delete and an
    // insert. The NaN key is the same key on both sides, and its row is
    // unequal to itself, so an update.
    let dir = scratch("zero");
    let (old, new) = (dir.join("old.snap"), dir.join("new.snap"));
    let ordinals = (0..1_500).map(|i| 2 * i).chain([i64::MAX]);
    let old_rows: Vec<Row> = ordinals
        .clone()
        .map(|k| row(k, KeyKind::Double, false))
        .collect();
    let new_rows: Vec<Row> = ordinals.map(|k| row(k, KeyKind::Double, true)).collect();
    write(&old, &old_rows, &[KEY], None);
    write(&new, &new_rows, &[KEY], None);
    let (records, stats) = diff(&old, &new, &[KEY]).unwrap();
    assert_eq!(
        (records.clone(), stats),
        reference(&old, &new, &[KEY]).unwrap()
    );
    let ops: Vec<DeltaOp> = records.iter().map(|r| r.0).collect();
    let nan_rows = (0..1_500).filter(|i| 2 * i % 97 == 0).count();
    assert_eq!(ops.iter().filter(|op| **op == DeltaOp::Delete).count(), 1);
    assert_eq!(ops.iter().filter(|op| **op == DeltaOp::Insert).count(), 1);
    assert_eq!(
        ops.iter()
            .filter(|op| **op == DeltaOp::UpdateBefore)
            .count(),
        nan_rows + 1,
        "every row holding a NaN, and the NaN key's row"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_key_out_of_order_in_a_uniform_block_or_at_its_first_row_is_corrupt() {
    let dir = scratch("order");
    let (liar, good) = (dir.join("liar.snap"), dir.join("good.snap"));
    for kind in [KeyKind::Int, KeyKind::Timestamp] {
        let rows: Vec<Row> = (0..3 * DEFAULT_BLOCK_ROWS as i64)
            .map(|i| row(2 * i, kind, false))
            .collect();
        write(&good, &rows, &[KEY], None);
        // Inside the second block, and at its first row, which sorts below
        // the last row of the first block.
        for at in [DEFAULT_BLOCK_ROWS + 500, DEFAULT_BLOCK_ROWS] {
            let mut bad = rows.clone();
            bad[at] = row(2 * at as i64 - 3, kind, false);
            write(&liar, &bad, &[KEY], None);
            assert!(reference(&liar, &good, &[KEY]).is_err());
            for (o, n) in [(&liar, &good), (&good, &liar)] {
                let r = diff(o, n, &[KEY]);
                assert!(
                    matches!(r, Err(StorageError::Corrupt(_))),
                    "{kind:?} key, row {at} out of order: {r:?}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
