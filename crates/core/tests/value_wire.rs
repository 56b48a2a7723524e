//! The value-delta wire is byte-identical to the augmented-row encoding.
//!
//! `encode_value_batch` reads each record's cells in place, behind the op
//! and txn columns it writes in front of them. The reference below is the
//! encoding it replaced, kept verbatim: every record copied into an
//! augmented `Row` of `[op, txn, cells...]` and the rows handed to
//! `encode_rows_block`. The two must agree byte for byte on any delta —
//! uniform and ragged arities, NULLs, every cell type, empty deltas, any
//! block size — and the frame must decode back to the delta it came from.

use proptest::prelude::*;

use delta_core::colcodec::{decode_batch, encode_value_batch};
use delta_core::model::{DeltaBatch, DeltaOp, ValueDelta, ValueDeltaRecord};
use delta_storage::colbatch::{self as cb, DEFAULT_BLOCK_ROWS};
use delta_storage::{Column, DataType, Row, Schema, Value};

fn op_code(op: DeltaOp) -> i64 {
    match op {
        DeltaOp::Insert => 0,
        DeltaOp::Delete => 1,
        DeltaOp::UpdateBefore => 2,
        DeltaOp::UpdateAfter => 3,
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    cb::put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The value frame built from augmented rows.
fn reference(v: &ValueDelta, block_rows: usize) -> Vec<u8> {
    let mut out = cb::BATCH_MAGIC.to_vec();
    out.push(1);
    let mut header = Vec::new();
    put_str(&mut header, &v.table);
    put_str(&mut header, &v.schema.to_catalog_string());
    cb::put_uvarint(&mut header, v.records.len() as u64);
    cb::put_block(&mut out, &header);
    for chunk in v.records.chunks(block_rows.max(1)) {
        let rows: Vec<Row> = chunk
            .iter()
            .map(|r| {
                let mut vals = Vec::with_capacity(r.row.len() + 2);
                vals.push(Value::Int(op_code(r.op)));
                vals.push(Value::Int(r.txn as i64));
                vals.extend(r.row.values().iter().cloned());
                Row::new(vals)
            })
            .collect();
        cb::put_block(&mut out, &cb::encode_rows_block(&rows));
    }
    out
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (0i64..4).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Timestamp),
        prop::num::f64::NORMAL.prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        "\\PC{0,12}".prop_map(Value::Str),
        "row-00[0-9]{2}-aaaa".prop_map(Value::Str),
    ]
}

fn arb_op() -> impl Strategy<Value = DeltaOp> {
    prop_oneof![
        Just(DeltaOp::Insert),
        Just(DeltaOp::Delete),
        Just(DeltaOp::UpdateBefore),
        Just(DeltaOp::UpdateAfter),
    ]
}

fn delta(records: Vec<(DeltaOp, u64, Vec<Value>)>) -> ValueDelta {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("note", DataType::Varchar),
    ])
    .unwrap();
    let mut vd = ValueDelta::new("parts", schema);
    vd.records = records
        .into_iter()
        .map(|(op, txn, cells)| ValueDeltaRecord {
            op,
            txn,
            row: Row::new(cells),
        })
        .collect();
    vd
}

/// Records of any arity from 0 to 5, so blocks come out ragged.
fn arb_ragged() -> impl Strategy<Value = ValueDelta> {
    let record = (
        arb_op(),
        any::<u64>(),
        prop::collection::vec(arb_value(), 0..6),
    );
    prop::collection::vec(record, 0..24).prop_map(delta)
}

/// Records of one arity, so blocks are columnar: each column holds
/// whatever the generator draws, uniform types and mixed ones alike.
fn arb_uniform() -> impl Strategy<Value = ValueDelta> {
    let record = (
        arb_op(),
        prop_oneof![any::<u64>(), 0u64..3],
        prop::collection::vec(arb_value(), 5),
    );
    (0usize..6, prop::collection::vec(record, 0..40)).prop_map(|(arity, mut records)| {
        for (_, _, cells) in &mut records {
            cells.truncate(arity);
        }
        delta(records)
    })
}

fn check(vd: &ValueDelta, block_rows: usize) -> Result<(), TestCaseError> {
    let bytes = encode_value_batch(vd, block_rows);
    prop_assert_eq!(&bytes, &reference(vd, block_rows));
    prop_assert_eq!(decode_batch(&bytes).unwrap(), DeltaBatch::Value(vd.clone()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ragged_deltas_encode_as_augmented_rows(vd in arb_ragged(), block_rows in 1usize..7) {
        check(&vd, block_rows)?;
        check(&vd, DEFAULT_BLOCK_ROWS)?;
    }

    #[test]
    fn uniform_deltas_encode_as_augmented_rows(vd in arb_uniform(), block_rows in 1usize..50) {
        check(&vd, block_rows)?;
        check(&vd, DEFAULT_BLOCK_ROWS)?;
    }
}

#[test]
fn an_empty_delta_encodes_as_augmented_rows() {
    let vd = delta(Vec::new());
    for block_rows in [0, 1, DEFAULT_BLOCK_ROWS] {
        check(&vd, block_rows).unwrap();
    }
}
