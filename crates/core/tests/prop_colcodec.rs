//! Property tests for the columnar delta-batch wire codec: arbitrary value
//! and Op-Delta batches must encode/decode input-equal through
//! [`encode_batch`]/[`DeltaBatch::from_bytes`], every
//! truncation must fail with a typed error (no panic), and single-bit flips
//! must never silently decode as a different batch — the same contract the
//! WAL record codec proves for its frames.

use proptest::prelude::*;

use delta_core::colcodec::encode_batch;
use delta_core::model::{DeltaBatch, DeltaOp, OpDelta, OpLogRecord, ValueDelta, ValueDeltaRecord};
use delta_sql::ast::{BinOp, Expr, Statement};
use delta_storage::colbatch::DEFAULT_BLOCK_ROWS;
use delta_storage::{Column, DataType, Row, Schema, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Timestamp),
        prop::num::f64::NORMAL.prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        "\\PC{0,24}"
            .prop_filter("ascii-dump NULL wart", |s| s != "NULL")
            .prop_map(Value::Str),
    ]
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("name", DataType::Varchar),
        Column::new("price", DataType::Double),
        Column::new("ts", DataType::Timestamp),
    ])
    .unwrap()
}

fn arb_row() -> impl Strategy<Value = Row> {
    (
        any::<i64>(),
        prop_oneof![
            Just(Value::Null),
            "\\PC{0,24}"
                .prop_filter("wart", |s| s != "NULL")
                .prop_map(Value::Str)
        ],
        prop_oneof![
            Just(Value::Null),
            prop::num::f64::NORMAL.prop_map(Value::Double)
        ],
        prop_oneof![Just(Value::Null), any::<i64>().prop_map(Value::Timestamp)],
    )
        .prop_map(|(id, name, price, ts)| Row::new(vec![Value::Int(id), name, price, ts]))
}

fn arb_op() -> impl Strategy<Value = DeltaOp> {
    prop_oneof![
        Just(DeltaOp::Insert),
        Just(DeltaOp::Delete),
        Just(DeltaOp::UpdateBefore),
        Just(DeltaOp::UpdateAfter),
    ]
}

fn arb_value_delta() -> impl Strategy<Value = ValueDelta> {
    prop::collection::vec((arb_op(), any::<u64>(), arb_row()), 0..12).prop_map(|records| {
        let mut vd = ValueDelta::new("parts", schema());
        vd.records = records
            .into_iter()
            .map(|(op, txn, row)| ValueDeltaRecord { op, txn, row })
            .collect();
        vd
    })
}

fn lit() -> impl Strategy<Value = Expr> {
    arb_value().prop_map(Expr::Literal)
}

fn arb_statement() -> impl Strategy<Value = Statement> {
    prop_oneof![
        prop::collection::vec(prop::collection::vec(lit(), 4..5), 1..4).prop_map(|rows| {
            Statement::Insert {
                table: "parts".into(),
                columns: None,
                rows,
            }
        }),
        (lit(), any::<i64>()).prop_map(|(v, k)| Statement::Update {
            table: "parts".into(),
            sets: vec![("name".into(), v)],
            predicate: Some(Expr::Binary {
                left: Box::new(Expr::Column("id".into())),
                op: BinOp::Eq,
                right: Box::new(Expr::Literal(Value::Int(k))),
            }),
        }),
        any::<i64>().prop_map(|k| Statement::Delete {
            table: "parts".into(),
            predicate: Some(Expr::Binary {
                left: Box::new(Expr::Column("id".into())),
                op: BinOp::Gt,
                right: Box::new(Expr::Literal(Value::Int(k))),
            }),
        }),
    ]
}

/// What an op-log record carries: usually a statement as the capture prints
/// it, sometimes text that is not SQL at all — the envelopes carry either
/// untouched (tabs, newlines, backslashes and multi-byte characters included).
fn arb_sql() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_statement().prop_map(|s| s.to_string()),
        arb_statement().prop_map(|s| s.to_string()),
        "[ -~\\n\\t\\r\\\\é中🚀]{0,48}",
    ]
}

fn arb_op_delta() -> impl Strategy<Value = OpDelta> {
    (
        1u64..1000,
        prop::collection::vec((arb_sql(), prop::option::of(arb_value_delta())), 1..5),
    )
        .prop_map(|(txn, ops)| OpDelta {
            txn,
            ops: ops
                .into_iter()
                .enumerate()
                .map(|(i, (sql, before_image))| OpLogRecord {
                    seq: i as u64 + 1,
                    txn,
                    sql,
                    before_image,
                })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn columnar_batches_round_trip(vd in arb_value_delta(), od in arb_op_delta()) {
        for batch in [DeltaBatch::Value(vd), DeltaBatch::Op(od)] {
            let bytes = encode_batch(&batch, DEFAULT_BLOCK_ROWS);
            prop_assert_eq!(DeltaBatch::from_bytes(&bytes).unwrap(), batch);
        }
    }

    #[test]
    fn tiny_blocks_round_trip(vd in arb_value_delta()) {
        // A 1-row block size forces the multi-block path and partial blocks.
        let batch = DeltaBatch::Value(vd);
        let bytes = encode_batch(&batch, 1);
        prop_assert_eq!(DeltaBatch::from_bytes(&bytes).unwrap(), batch);
    }

    #[test]
    fn every_truncation_is_a_typed_error(vd in arb_value_delta()) {
        let batch = DeltaBatch::Value(vd);
        let bytes = encode_batch(&batch, DEFAULT_BLOCK_ROWS);
        for cut in 0..bytes.len() {
            prop_assert!(
                DeltaBatch::from_bytes(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte batch must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn op_batch_truncations_are_typed_errors(od in arb_op_delta()) {
        let batch = DeltaBatch::Op(od);
        let bytes = encode_batch(&batch, DEFAULT_BLOCK_ROWS);
        // Op batches can be large (nested before images): sample the cuts.
        let step = (bytes.len() / 256).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            prop_assert!(
                DeltaBatch::from_bytes(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte batch must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected(vd in arb_value_delta()) {
        let batch = DeltaBatch::Value(vd);
        let bytes = encode_batch(&batch, DEFAULT_BLOCK_ROWS);
        let step = (bytes.len() * 8 / 512).max(1);
        let mut bit = 0;
        while bit < bytes.len() * 8 {
            let mut dirty = bytes.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            match DeltaBatch::from_bytes(&dirty) {
                Err(_) => {}
                // The only tolerated Ok is content identical to the input.
                Ok(back) => prop_assert!(
                    back == batch,
                    "bit flip at {bit} silently decoded a different batch"
                ),
            }
            bit += step;
        }
    }
}
