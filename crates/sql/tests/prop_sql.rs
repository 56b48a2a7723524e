//! Property-based tests for the SQL layer: the canonical printer must be a
//! right inverse of the parser (this is what makes the Op-Delta wire format
//! lossless), evaluation must respect SQL three-valued logic, and the
//! compiled evaluator must agree with name-resolving evaluation on decoded
//! values and on encoded bytes alike.

use proptest::prelude::*;

use delta_sql::ast::{AggFunc, BinOp, Expr, SelectItem, Statement, UnOp};
use delta_sql::eval::{CompiledExpr, EvalError};
use delta_sql::parser::{parse_expression, parse_statement};
use delta_storage::{Column, DataType, EncodedRow, Row, Schema, Value};

fn arb_literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        prop::num::f64::NORMAL.prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        "\\PC{0,20}".prop_map(Value::Str),
    ]
}

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("avoid bare keywords", |s| {
        !matches!(
            s.as_str(),
            "select"
                | "from"
                | "where"
                | "and"
                | "or"
                | "not"
                | "is"
                | "null"
                | "true"
                | "false"
                | "as"
                | "set"
                | "values"
                | "into"
                | "begin"
                | "commit"
                | "now"
                | "insert"
                | "update"
                | "delete"
                | "create"
                | "drop"
                | "table"
                | "rollback"
                | "abort"
                | "key"
                | "primary"
        )
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_literal().prop_map(Expr::Literal),
        arb_ident().prop_map(Expr::Column),
        Just(Expr::Now),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arb_binop()).prop_map(|(l, r, op)| Expr::Binary {
                left: Box::new(l),
                op,
                right: Box::new(r),
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            }),
            (inner.clone(), any::<bool>()).prop_map(|(e, n)| Expr::IsNull {
                expr: Box::new(e),
                negated: n,
            }),
        ]
    })
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
    ]
}

fn arb_statement() -> impl Strategy<Value = Statement> {
    let insert = (
        arb_ident(),
        prop::collection::vec(arb_ident(), 1..4),
        prop::collection::vec(prop::collection::vec(arb_expr(), 1..4), 1..4),
    )
        .prop_map(|(table, cols, mut rows)| {
            let n = cols.len();
            for r in &mut rows {
                r.truncate(n);
                while r.len() < n {
                    r.push(Expr::Literal(Value::Int(0)));
                }
            }
            Statement::Insert {
                table,
                columns: Some(cols),
                rows,
            }
        });
    let update = (
        arb_ident(),
        prop::collection::vec((arb_ident(), arb_expr()), 1..4),
        prop::option::of(arb_expr()),
    )
        .prop_map(|(table, sets, predicate)| Statement::Update {
            table,
            sets,
            predicate,
        });
    let delete = (arb_ident(), prop::option::of(arb_expr()))
        .prop_map(|(table, predicate)| Statement::Delete { table, predicate });
    let arb_agg = (
        prop_oneof![
            Just(AggFunc::Count),
            Just(AggFunc::Sum),
            Just(AggFunc::Avg),
            Just(AggFunc::Min),
            Just(AggFunc::Max),
        ],
        prop::option::of(arb_expr()),
    )
        .prop_map(|(func, arg)| match (func, arg) {
            (AggFunc::Count, None) => Expr::Aggregate { func, arg: None },
            (_, None) => Expr::Aggregate {
                func,
                arg: Some(Box::new(Expr::Column("x".into()))),
            },
            (_, Some(a)) => Expr::Aggregate {
                func,
                arg: Some(Box::new(a)),
            },
        });
    let select = (
        arb_ident(),
        prop::collection::vec(
            prop_oneof![
                Just(SelectItem::Wildcard),
                (arb_expr(), prop::option::of(arb_ident()))
                    .prop_map(|(expr, alias)| SelectItem::Expr { expr, alias }),
                (arb_agg, prop::option::of(arb_ident()))
                    .prop_map(|(expr, alias)| SelectItem::Expr { expr, alias }),
            ],
            1..4,
        ),
        prop::option::of(arb_expr()),
    )
        .prop_map(|(table, projection, predicate)| Statement::Select {
            projection,
            table,
            predicate,
            group_by: vec![],
            order_by: vec![],
            limit: None,
        });
    prop_oneof![insert, update, delete, select]
}

// Insert-statement column names must be unique for semantic round trips;
// the printer/parser pair does not care, so no constraint needed here.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn printed_expressions_reparse_identically(e in arb_expr()) {
        let text = e.to_string();
        let back = parse_expression(&text)
            .map_err(|err| TestCaseError::fail(format!("{err} for {text}")))?;
        prop_assert_eq!(back, e, "text was: {}", text);
    }

    #[test]
    fn printed_statements_reparse_identically(s in arb_statement()) {
        let text = s.to_string();
        let back = parse_statement(&text)
            .map_err(|err| TestCaseError::fail(format!("{err} for {text}")))?;
        prop_assert_eq!(back, s, "text was: {}", text);
    }

    #[test]
    fn freeze_now_is_idempotent_and_complete(e in arb_expr(), now in any::<i64>()) {
        let frozen = e.freeze_now(now);
        prop_assert!(!frozen.contains_now());
        prop_assert_eq!(frozen.freeze_now(now.wrapping_add(1)), frozen.clone());
    }

    #[test]
    fn constant_predicates_evaluate_with_3vl(a in arb_literal(), b in arb_literal()) {
        // NULL op X is NULL for comparisons; evaluation never panics.
        let e = Expr::Binary {
            left: Box::new(Expr::Literal(a.clone())),
            op: BinOp::Eq,
            right: Box::new(Expr::Literal(b.clone())),
        };
        let constant = CompiledExpr::compile(&e, |_| None);
        match constant.eval(&[] as &[Value], 0) {
            Ok(v) => {
                if a.is_null() || b.is_null() {
                    prop_assert_eq!(v, Value::Null);
                } else {
                    prop_assert!(matches!(v, Value::Bool(_)));
                }
            }
            Err(_) => {
                // Incomparable types: allowed, but only when both non-null.
                prop_assert!(!a.is_null() && !b.is_null());
            }
        }
    }
}

/// The columns an evaluated expression may name: five of them in the schema,
/// one (`zz`) not.
const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "zz"];

fn eval_schema() -> Schema {
    Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Double),
        Column::new("c", DataType::Timestamp),
        Column::new("d", DataType::Varchar),
        Column::new("e", DataType::Bool),
    ])
    .unwrap()
}

/// A cell of any type, small values weighted up so that comparisons meet
/// equal operands and mixed `Int`/`Double`/`Timestamp` pairs are common.
fn arb_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        2 => Just(Value::Null),
        3 => (-3i64..4).prop_map(Value::Int),
        1 => any::<i64>().prop_map(Value::Int),
        2 => (-3i64..4).prop_map(|i| Value::Double(i as f64 / 2.0)),
        1 => prop::num::f64::NORMAL.prop_map(Value::Double),
        2 => (-3i64..4).prop_map(Value::Timestamp),
        1 => any::<i64>().prop_map(Value::Timestamp),
        2 => "[ab']{0,2}".prop_map(Value::Str),
        2 => any::<bool>().prop_map(Value::Bool),
    ]
}

/// Any expression the evaluator takes, or (weighted up) the shape a scan's
/// predicate takes.
fn arb_eval_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        3 => arb_any_expr(),
        2 => arb_scan_predicate(),
    ]
}

fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
    Expr::Binary {
        left: Box::new(left),
        op,
        right: Box::new(right),
    }
}

fn arb_comparison() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ]
}

/// A column (`zz`, unknown, among them) compared with a literal or with
/// `NOW()`, either way round.
fn arb_column_test() -> impl Strategy<Value = Expr> {
    let other = prop_oneof![
        6 => arb_cell().prop_map(Expr::Literal),
        1 => Just(Expr::Now),
    ];
    (0usize..NAMES.len(), other, arb_comparison(), any::<bool>()).prop_map(
        |(i, other, op, column_first)| {
            let column = Expr::Column(NAMES[i].into());
            match column_first {
                true => binary(column, op, other),
                false => binary(other, op, column),
            }
        },
    )
}

/// `AND`/`OR`/`NOT` trees of column tests and `IS [NOT] NULL`: what a scan
/// evaluates on every row, with NULL cells, mixed numeric operands and `zz`
/// on either side of a short-circuiting connective.
fn arb_scan_predicate() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        6 => arb_column_test(),
        1 => ((0usize..NAMES.len()), any::<bool>()).prop_map(|(i, negated)| Expr::IsNull {
            expr: Box::new(Expr::Column(NAMES[i].into())),
            negated,
        }),
    ];
    leaf.prop_recursive(4, 16, 2, |inner| {
        prop_oneof![
            4 => (inner.clone(), inner.clone(), any::<bool>())
                .prop_map(|(l, r, and)| binary(l, if and { BinOp::And } else { BinOp::Or }, r)),
            1 => inner.prop_map(|e| Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            }),
        ]
    })
}

fn arb_any_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        3 => arb_cell().prop_map(Expr::Literal),
        4 => (0usize..NAMES.len()).prop_map(|i| Expr::Column(NAMES[i].into())),
        1 => Just(Expr::Now),
        1 => Just(Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::Column("a".into()))),
        }),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            4 => (inner.clone(), inner.clone(), arb_binop()).prop_map(|(l, r, op)| Expr::Binary {
                left: Box::new(l),
                op,
                right: Box::new(r),
            }),
            1 => inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            }),
            1 => inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(e),
            }),
            1 => (inner.clone(), any::<bool>()).prop_map(|(e, n)| Expr::IsNull {
                expr: Box::new(e),
                negated: n,
            }),
        ]
    })
}

/// The reference the compiled form is held to: evaluation that looks every
/// column up by name, per row, and clones what it finds — the shape of the
/// interpreter the compiled form replaced.
struct Reference<'a> {
    schema: &'a Schema,
    row: &'a Row,
    now: i64,
}

impl Reference<'_> {
    fn eval(&self, e: &Expr) -> Result<Value, EvalError> {
        let fail = |m: String| Err(EvalError { message: m });
        match e {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Now => Ok(Value::Timestamp(self.now)),
            Expr::Column(name) => match self.schema.index_of(name) {
                Some(i) => Ok(self.row.values()[i].clone()),
                None => fail(format!("unknown column '{name}'")),
            },
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => match self.eval(expr)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                Value::Double(d) => Ok(Value::Double(-d)),
                other => fail(format!("cannot negate {other}")),
            },
            Expr::Unary {
                op: UnOp::Not,
                expr,
            } => Ok(self.truth(expr)?.map_or(Value::Null, |b| Value::Bool(!b))),
            Expr::IsNull { expr, negated } => {
                Ok(Value::Bool(self.eval(expr)?.is_null() != *negated))
            }
            Expr::Aggregate { func, .. } => fail(format!(
                "{func}(..) is only valid in a grouped SELECT projection"
            )),
            Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                let l = self.truth(left)?;
                if l == Some(false) {
                    return Ok(Value::Bool(false));
                }
                Ok(match (l, self.truth(right)?) {
                    (Some(true), Some(true)) => Value::Bool(true),
                    (_, Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                })
            }
            Expr::Binary {
                left,
                op: BinOp::Or,
                right,
            } => {
                let l = self.truth(left)?;
                if l == Some(true) {
                    return Ok(Value::Bool(true));
                }
                Ok(match (l, self.truth(right)?) {
                    (Some(false), Some(false)) => Value::Bool(false),
                    (_, Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                })
            }
            Expr::Binary { left, op, right } => {
                let (l, r) = (self.eval(left)?, self.eval(right)?);
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                use std::cmp::Ordering::*;
                let ord = l.sql_cmp(&r);
                let b = match op {
                    BinOp::Eq => ord.map(|o| o == Equal),
                    BinOp::Ne => ord.map(|o| o != Equal),
                    BinOp::Lt => ord.map(|o| o == Less),
                    BinOp::Le => ord.map(|o| o != Greater),
                    BinOp::Gt => ord.map(|o| o == Greater),
                    BinOp::Ge => ord.map(|o| o != Less),
                    _ => return reference_arith(&l, *op, &r),
                };
                match b {
                    Some(b) => Ok(Value::Bool(b)),
                    None => fail(format!("cannot compare {l} with {r}")),
                }
            }
        }
    }

    fn truth(&self, e: &Expr) -> Result<Option<bool>, EvalError> {
        match self.eval(e)? {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(b)),
            other => Err(EvalError {
                message: format!("expected a boolean predicate, got {other}"),
            }),
        }
    }
}

fn reference_arith(l: &Value, op: BinOp, r: &Value) -> Result<Value, EvalError> {
    use Value::*;
    let fail = |m: String| Err(EvalError { message: m });
    match (l, op, r) {
        (Str(a), BinOp::Add, Str(b)) => Ok(Str(format!("{a}{b}"))),
        (Int(_), BinOp::Div, Int(0)) => fail("division by zero".into()),
        (Int(a), _, Int(b)) => Ok(Int(match op {
            BinOp::Add => a.wrapping_add(*b),
            BinOp::Sub => a.wrapping_sub(*b),
            BinOp::Mul => a.wrapping_mul(*b),
            _ => a.wrapping_div(*b),
        })),
        (Timestamp(a), BinOp::Add, Int(b)) => Ok(Timestamp(a.wrapping_add(*b))),
        (Timestamp(a), BinOp::Sub, Int(b)) => Ok(Timestamp(a.wrapping_sub(*b))),
        (Timestamp(_), _, Int(_)) => fail("only +/- allowed on timestamps".into()),
        (Timestamp(a), BinOp::Sub, Timestamp(b)) => Ok(Int(a.wrapping_sub(*b))),
        _ => match (l.as_double(), r.as_double()) {
            (Ok(_), Ok(b)) if op == BinOp::Div && b == 0.0 => fail("division by zero".into()),
            (Ok(a), Ok(b)) => Ok(Double(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                _ => a / b,
            })),
            _ => fail(format!("cannot apply {op} to {l} and {r}")),
        },
    }
}

/// `Debug` text, so NaN equals NaN and an error is compared by its message.
fn shown<T: std::fmt::Debug>(v: T) -> String {
    format!("{v:?}")
}

proptest! {
    // 7 000 cases: about 4 200 from `arb_any_expr`, as many as this
    // property ran before the scan arm shared its generator.
    #![proptest_config(ProptestConfig::with_cases(7000))]

    #[test]
    fn compiled_evaluation_agrees_with_name_resolution(
        e in arb_eval_expr(),
        cells in prop::collection::vec(arb_cell(), 5..6),
        now in prop_oneof![-3i64..4, any::<i64>()],
    ) {
        let schema = eval_schema();
        let row = Row::new(cells);
        let reference = Reference { schema: &schema, row: &row, now };
        let compiled = CompiledExpr::for_schema(&e, &schema);
        let bytes = row.to_bytes();
        let mut at = Vec::new();
        let encoded = EncodedRow::index(&bytes, &mut at)
            .map_err(|err| TestCaseError::fail(format!("{err}")))?;

        let want = shown(reference.eval(&e));
        prop_assert_eq!(shown(compiled.eval(row.values(), now)), want.clone(), "decoded: {}", e);
        prop_assert_eq!(shown(compiled.eval(&encoded, now)), want, "encoded: {}", e);
        let want = shown(reference.truth(&e));
        prop_assert_eq!(shown(compiled.truth(row.values(), now)), want.clone(), "decoded: {}", e);
        prop_assert_eq!(shown(compiled.truth(&encoded, now)), want, "encoded: {}", e);
        let want = shown(reference.truth(&e).map(|t| t == Some(true)));
        prop_assert_eq!(shown(compiled.matches(row.values(), now)), want.clone(), "decoded: {}", e);
        prop_assert_eq!(shown(compiled.matches(&encoded, now)), want, "encoded: {}", e);
    }
}

/// Evaluate `src` every way the oracle does — value, truth and WHERE
/// semantics, over decoded values and encoded bytes — against the reference,
/// on the row `a = 7, b = NULL, c = 3, d = 'x', e = true`, and return the
/// value's `Debug` text.
fn decided(src: &str) -> String {
    let schema = eval_schema();
    let row = Row::new(vec![
        Value::Int(7),
        Value::Null,
        Value::Timestamp(3),
        Value::Str("x".into()),
        Value::Bool(true),
    ]);
    let e = parse_expression(src).unwrap();
    let reference = Reference {
        schema: &schema,
        row: &row,
        now: 0,
    };
    let compiled = CompiledExpr::for_schema(&e, &schema);
    let bytes = row.to_bytes();
    let mut at = Vec::new();
    let encoded = EncodedRow::index(&bytes, &mut at).unwrap();
    let want = shown(reference.eval(&e));
    assert_eq!(shown(compiled.eval(row.values(), 0)), want, "{src}");
    assert_eq!(shown(compiled.eval(&encoded, 0)), want, "{src}");
    let truth = shown(reference.truth(&e));
    assert_eq!(shown(compiled.truth(row.values(), 0)), truth, "{src}");
    assert_eq!(shown(compiled.truth(&encoded, 0)), truth, "{src}");
    let matched = shown(reference.truth(&e).map(|t| t == Some(true)));
    assert_eq!(shown(compiled.matches(row.values(), 0)), matched, "{src}");
    assert_eq!(shown(compiled.matches(&encoded, 0)), matched, "{src}");
    want
}

fn failure(message: &str) -> String {
    shown(Err::<Value, _>(EvalError {
        message: message.into(),
    }))
}

#[test]
fn when_both_operands_fail_the_left_error_wins() {
    let zz = failure("unknown column 'zz'");
    let sum = failure("SUM(..) is only valid in a grouped SELECT projection");
    let yy = failure("unknown column 'yy'");
    assert_eq!(decided("zz = SUM(a)"), zz);
    assert_eq!(decided("SUM(a) = zz"), sum);
    assert_eq!(decided("zz < yy"), zz);
    assert_eq!(decided("yy IS NULL AND zz IS NULL"), yy);
    assert_eq!(decided("zz = 1 OR yy = 1"), zz);
    assert_eq!(decided("NOT (zz > 1) AND yy > 1"), zz);
    assert_eq!(decided("(zz + 1) >= (1 / 0)"), zz);
    assert_eq!(decided("(1 / 0) >= (zz + 1)"), failure("division by zero"));
    // Both operands evaluate before they are compared.
    assert_eq!(decided("d < zz"), zz);
    assert_eq!(decided("d < a"), failure("cannot compare 'x' with 7"));
    assert_eq!(decided("a < d"), failure("cannot compare 7 with 'x'"));
    assert_eq!(decided("'x' < a"), failure("cannot compare 'x' with 7"));
    // An unknown column with a NULL beside it is still unknown.
    assert_eq!(decided("b = zz"), zz);
    assert_eq!(decided("NULL = zz"), zz);
    assert_eq!(decided("zz = NULL"), zz);
}

#[test]
fn a_column_read_twice_keeps_the_order_of_its_tests() {
    // `a` is 7 and `b` NULL; `'x'` cannot be ordered against an INT. Each
    // term reads its column in turn, so an incomparable literal raises
    // only where its term is reached, and never against NULL.
    let incomparable = failure("cannot compare 7 with 'x'");
    assert_eq!(decided("a >= 'x' AND a < 5"), incomparable);
    assert_eq!(decided("a < 5 AND a >= 'x'"), "Ok(Bool(false))");
    assert_eq!(decided("a < 9 AND a >= 'x'"), incomparable);
    assert_eq!(decided("a >= 'x' OR a < 9"), incomparable);
    assert_eq!(decided("a < 9 OR a >= 'x'"), "Ok(Bool(true))");
    assert_eq!(decided("a < 5 OR a >= 'x'"), incomparable);
    assert_eq!(
        decided("'x' <= a AND a < 5"),
        failure("cannot compare 'x' with 7")
    );
    assert_eq!(decided("b >= 'x' AND b < 5"), "Ok(Null)");
    assert_eq!(decided("b < 5 AND b >= 'x'"), "Ok(Null)");
    assert_eq!(decided("b >= 'x' OR b < 5"), "Ok(Null)");
    // UNKNOWN on the left reads the right side, which decides or fails.
    assert_eq!(decided("b < 5 AND a >= 'x'"), incomparable);
    assert_eq!(decided("b < 5 AND a < 5"), "Ok(Bool(false))");
}

#[test]
fn a_skipped_right_side_raises_nothing() {
    let f = "Ok(Bool(false))";
    let t = "Ok(Bool(true))";
    assert_eq!(decided("a = 0 AND zz = 1"), f);
    assert_eq!(decided("a <> 7 AND SUM(a) > 0"), f);
    assert_eq!(decided("e = false AND d < a"), f);
    assert_eq!(decided("a = 7 OR zz = 1"), t);
    assert_eq!(decided("c <= 3 OR (1 / 0) = 1"), t);
    assert_eq!(decided("NOT (a >= 7) AND zz IS NULL"), f);
    assert_eq!(decided("(a < 0 AND zz = 1) OR d = 'x'"), t);
    // UNKNOWN does not short-circuit: the right side is read and fails.
    let zz = failure("unknown column 'zz'");
    assert_eq!(decided("b = 1 AND zz = 1"), zz);
    assert_eq!(decided("b = 1 OR zz = 1"), zz);
    assert_eq!(decided("a = 7 AND zz = 1"), zz);
    assert_eq!(decided("a = 0 OR zz = 1"), zz);
    // A right side that decides an UNKNOWN left.
    assert_eq!(decided("b = 1 AND a = 0"), f);
    assert_eq!(decided("b = 1 OR a = 7"), t);
    assert_eq!(decided("b = 1 AND a = 7"), "Ok(Null)");
}

#[test]
fn a_column_past_the_end_of_the_row_is_unknown_when_read() {
    // Compiled for a layout wider than the row it reads: `far` is
    // position 9 of a five-cell row.
    let position = |name: &str| match name {
        "far" => Some(9),
        other => eval_schema().index_of(other),
    };
    let row = Row::new(vec![
        Value::Int(7),
        Value::Null,
        Value::Timestamp(3),
        Value::Str("x".into()),
        Value::Bool(true),
    ]);
    let bytes = row.to_bytes();
    let mut at = Vec::new();
    let encoded = EncodedRow::index(&bytes, &mut at).unwrap();
    for (src, want) in [
        ("far = 1", failure("unknown column 'far'")),
        ("1 = far", failure("unknown column 'far'")),
        ("far = zz", failure("unknown column 'far'")),
        ("zz = far", failure("unknown column 'zz'")),
        ("a = 0 AND far = 1", "Ok(Bool(false))".to_string()),
        ("far IS NULL OR a = 7", failure("unknown column 'far'")),
    ] {
        let compiled = CompiledExpr::compile(&parse_expression(src).unwrap(), position);
        assert_eq!(shown(compiled.eval(row.values(), 0)), want, "{src}");
        assert_eq!(shown(compiled.eval(&encoded, 0)), want, "{src}");
    }
}
