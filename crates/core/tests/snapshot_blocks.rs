//! Block-boundary oracle for the key-ordered snapshot diff (DESIGN.md §34).
//! The merge walks each side one decoded block at a time, compares keys and
//! rows cell by cell where the blocks hold them, and builds a row only for
//! a record. Here snapshots are cut into blocks of one to five rows — with
//! NULL and mixed-type cells, ragged (mixed-arity) blocks, two-column keys,
//! keys on one side only, empty files and empty blocks — and every diff
//! must equal, record for record and with equal `DiffStats`, a reference
//! that builds every row and merges the two row lists. A row out of its
//! header's order is corruption wherever it sits relative to a block
//! boundary.

use std::cmp::Ordering;
use std::path::{Path, PathBuf};

use delta_core::model::DeltaOp;
use delta_core::snapshot::{diff_snapshots, DiffAlgorithm, DiffStats};
use delta_storage::colbatch::{encode_rows_block, put_block, RowSink, RowSource};
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

/// The merge-join over built rows, counting what the diff counts.
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
    let algo = DiffAlgorithm::SortMerge { run_size: 3 };
    let (delta, stats) = diff_snapshots("t", &schema, key, old, new, algo)?;
    let records = delta
        .records
        .iter()
        .map(|r| (r.op, r.row.to_bytes()))
        .collect();
    Ok((records, stats))
}

/// Write `rows` sorted on `key` in blocks of `block_rows`. With
/// `empty_block`, the first `split` rows go through a [`RowSink`] and the
/// rest follow as hand-framed blocks behind an empty one.
fn write(path: &Path, rows: &[Row], block_rows: usize, key: &[usize], empty_block: bool) {
    let split = if empty_block {
        rows.len() / 2
    } else {
        rows.len()
    };
    let mut sink = RowSink::create_sorted(path, block_rows, key).unwrap();
    for row in &rows[..split] {
        sink.write_row(row.clone()).unwrap();
    }
    sink.finish().unwrap();
    if empty_block {
        let mut bytes = std::fs::read(path).unwrap();
        put_block(&mut bytes, &encode_rows_block(&[]));
        for chunk in rows[split..].chunks(block_rows) {
            put_block(&mut bytes, &encode_rows_block(chunk));
        }
        std::fs::write(path, bytes).unwrap();
    }
}

/// A key cell: NULL, a bool, an integer, a timestamp or a string. (Doubles
/// stay out of keys: `total_cmp` is not transitive across doubles and
/// timestamps.)
fn key_cell(rng: &mut Rng) -> Value {
    match rng.below(10) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 | 3 => Value::Timestamp(rng.below(30) as i64),
        4 | 5 => Value::Str(["", "a", "ab", "b", "é"][rng.below(5) as usize].into()),
        _ => Value::Int(rng.below(30) as i64 - 5),
    }
}

/// Any cell, NaN and negative zero included.
fn any_cell(rng: &mut Rng) -> Value {
    match rng.below(9) {
        0 => Value::Double(f64::NAN),
        1 => Value::Double([0.0, -0.0, 1.5][rng.below(3) as usize]),
        _ => key_cell(rng),
    }
}

struct Case {
    key: Vec<usize>,
    width: usize,
    old: Vec<Row>,
    new: Vec<Row>,
}

fn case(rng: &mut Rng) -> Case {
    let key: Vec<usize> = [&[0][..], &[1], &[0, 1], &[2, 0]][rng.below(4) as usize].to_vec();
    let width = 3 + rng.below(2) as usize;
    // Distinct keys in order: cells at the key positions, the rest any.
    let mut keys: Vec<Row> = (0..rng.below(40))
        .map(|_| Row::new((0..width).map(|_| key_cell(rng)).collect()))
        .collect();
    keys.sort_by(|a, b| cmp_on(a, b, &key));
    keys.dedup_by(|a, b| cmp_on(a, b, &key).is_eq());
    let fill = |row: &Row, rng: &mut Rng| -> Row {
        let mut vals: Vec<Value> = (0..width)
            .map(|c| {
                if key.contains(&c) {
                    row.values()[c].clone()
                } else {
                    any_cell(rng)
                }
            })
            .collect();
        // A longer row makes its block ragged.
        if rng.below(8) == 0 {
            vals.push(any_cell(rng));
        }
        Row::new(vals)
    };
    let empty = rng.below(10);
    let (mut old, mut new) = (Vec::new(), Vec::new());
    for k in &keys {
        let o = fill(k, rng);
        let in_old = empty != 0 && rng.below(5) != 0;
        let in_new = empty != 1 && rng.below(5) != 0;
        if in_new {
            new.push(if in_old && rng.below(2) == 0 {
                o.clone()
            } else {
                fill(k, rng)
            });
        }
        if in_old {
            old.push(o);
        }
    }
    Case {
        key,
        width,
        old,
        new,
    }
}

fn scratch(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("delta-snap-blocks-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_block_at_a_time_diff_equals_the_row_building_reference() {
    let dir = scratch("oracle");
    let (old, new) = (dir.join("old.snap"), dir.join("new.snap"));
    let mut rng = Rng(0x5EED_0038);
    let (mut records, mut ragged, mut two_column) = (0, 0, 0);
    for n in 0..600 {
        let c = case(&mut rng);
        write(
            &old,
            &c.old,
            1 + rng.below(5) as usize,
            &c.key,
            rng.below(4) == 0,
        );
        write(
            &new,
            &c.new,
            1 + rng.below(5) as usize,
            &c.key,
            rng.below(4) == 0,
        );
        let want = reference(&old, &new, &c.key).unwrap();
        let got = diff(&old, &new, &c.key).unwrap();
        assert_eq!(got.0, want.0, "case {n}: key {:?}", c.key);
        assert_eq!(got.1, want.1, "case {n}: key {:?}", c.key);
        records += got.0.len();
        ragged += usize::from(c.old.iter().chain(&c.new).any(|r| r.len() != c.width));
        two_column += usize::from(c.key.len() == 2);
    }
    assert!(
        records > 3000 && ragged > 50 && two_column > 100,
        "{records} records, {ragged} ragged, {two_column} two-column"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_row_out_of_its_claimed_order_is_corrupt_at_and_inside_block_boundaries() {
    let dir = scratch("order");
    let (liar, good) = (dir.join("liar.snap"), dir.join("good.snap"));
    let row = |k: i64| Row::new(vec![Value::Int(k), Value::Str(format!("v{k}"))]);
    write(
        &good,
        &(0..12).map(|k| row(10 * k)).collect::<Vec<_>>(),
        3,
        &[0],
        false,
    );
    for block_rows in 1..=5usize {
        // The row at `at` sorts below the one before it: `at == block_rows`
        // is the first row of the second block, any other `at` sits inside
        // a block.
        for at in 1..2 * block_rows + 1 {
            let mut rows: Vec<Row> = (0..2 * block_rows as i64 + 2)
                .map(|k| row(10 * k))
                .collect();
            rows[at] = row(10 * at as i64 - 15);
            for empty_block in [false, true] {
                write(&liar, &rows, block_rows, &[0], empty_block);
                assert!(reference(&liar, &good, &[0]).is_err());
                for (o, n) in [(&liar, &good), (&good, &liar)] {
                    let r = diff(o, n, &[0]);
                    assert!(
                        matches!(r, Err(StorageError::Corrupt(_))),
                        "{block_rows}-row blocks, row {at} out of order: {r:?}"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
