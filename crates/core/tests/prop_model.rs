//! Property tests for the delta text representation: a value delta's text
//! (the op log's before-image field) must parse back identically for
//! arbitrary rows, and an Op-Delta's text keeps one line per statement
//! whatever the statement holds. The shipped frame has its own properties
//! in `prop_colcodec.rs`.

use proptest::prelude::*;

use delta_core::model::{DeltaOp, OpDelta, OpLogRecord, ValueDelta, ValueDeltaRecord};
use delta_sql::ast::{BinOp, Expr, Statement};
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

/// A schema and conforming rows (4 columns: int key, str, double, ts).
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
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn value_delta_envelope_round_trips(vd in arb_value_delta()) {
        let text = vd.to_text();
        let back = ValueDelta::from_text(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        prop_assert_eq!(back, vd);
    }

    #[test]
    fn op_delta_text_keeps_one_line_per_statement(od in arb_op_delta()) {
        let text = od.to_text();
        let want = 1 + od
            .ops
            .iter()
            .map(|op| 1 + op.before_image.as_ref().map_or(0, |bi| 1 + bi.records.len()))
            .sum::<usize>();
        prop_assert_eq!(text.lines().count(), want, "{}", text);
        prop_assert_eq!(od.wire_size(), text.len());
    }

    #[test]
    fn truncated_envelopes_never_parse_as_complete(vd in arb_value_delta()) {
        prop_assume!(!vd.records.is_empty());
        let text = vd.to_text();
        // Cut whole lines off the end: every strict prefix must be rejected
        // (the header's record count catches the truncation).
        let lines: Vec<&str> = text.lines().collect();
        for keep in 1..lines.len() {
            let cut = lines[..keep].join("\n");
            prop_assert!(ValueDelta::from_text(&cut).is_err(), "kept {keep} lines");
        }
    }

    #[test]
    fn wire_size_is_consistent(vd in arb_value_delta()) {
        prop_assert_eq!(vd.wire_size(), vd.to_text().len());
    }
}
