//! Expression evaluation with SQL three-valued logic.
//!
//! An [`Expr`] is compiled once per statement into a [`CompiledExpr`]: each
//! column reference is bound to its position in the rows it will read, so
//! evaluating it per row looks nothing up by name. It reads any [`Cells`] —
//! a decoded row's values, or an [`EncodedRow`] straight from the stored
//! bytes, which lets a scan decode only the rows that match.
//!
//! A scan's predicate is mostly `AND`/`OR` lists of column tests, a column
//! against a literal or `NOW()`. Those are decided in place, in one loop
//! per list, from the cell the record's walk already read, through the one
//! comparison rule, [`Cell::sql_cmp`]. Every other node takes a call out of
//! line (DESIGN.md §40).

use std::cmp::Ordering;
use std::fmt;

use delta_storage::{Cell, EncodedRow, Schema, Value};

use crate::ast::{BinOp, Expr, UnOp};

/// Evaluation error.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    pub message: String,
}

impl EvalError {
    fn new(m: impl Into<String>) -> EvalError {
        EvalError { message: m.into() }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// A row the compiled form reads: its cells by position.
pub trait Cells {
    /// The cell at `pos`, or `None` past the end of the row.
    fn cell(&self, pos: usize) -> Option<Cell<'_>>;
}

impl Cells for [Value] {
    fn cell(&self, pos: usize) -> Option<Cell<'_>> {
        self.get(pos).map(Value::as_cell)
    }
}

impl Cells for EncodedRow<'_> {
    fn cell(&self, pos: usize) -> Option<Cell<'_>> {
        EncodedRow::cell(self, pos)
    }
}

/// An expression compiled once per statement: every column reference bound
/// to its position in the rows it will read. Evaluation reads borrowed
/// cells; a comparison with a literal allocates nothing, and an owned value
/// appears only where `+` concatenates strings or [`CompiledExpr::eval`]
/// hands its result out. A boolean node is decided by [`CompiledExpr::truth`]
/// straight from the cells it reads; `eval` of one is that truth as a value.
#[derive(Debug, Clone)]
pub struct CompiledExpr(Node);

#[derive(Debug, Clone)]
enum Node {
    Literal(Value),
    Now,
    Column {
        pos: usize,
        name: String,
    },
    /// Raises its message when evaluated: a column the row does not have,
    /// or an aggregate outside a grouped projection. Deferring the error
    /// keeps an empty table and a short-circuited `AND`/`OR` branch
    /// behaving as if the name were looked up per row.
    Fail(String),
    Neg(Box<Node>),
    Arith {
        left: Box<Node>,
        op: BinOp,
        right: Box<Node>,
    },
    Not(Box<Node>),
    IsNull {
        expr: Box<Node>,
        negated: bool,
    },
    /// `AND` (`or` false) or `OR` (`or` true) of two or more terms, nested
    /// connectives of the same kind flattened into one list: decided left
    /// to right up to the first term that is `or`, as the nested form is.
    Junction {
        or: bool,
        terms: Vec<Node>,
    },
    Compare {
        left: Box<Node>,
        test: Test,
        right: Box<Node>,
    },
    /// A column compared with a literal or `NOW()`, either way round: the
    /// shape of a scan's predicate, decided in place with one cell read.
    CompareColumn(ColumnTest),
}

/// A column compared with a value fixed for the statement.
#[derive(Debug, Clone)]
struct ColumnTest {
    pos: usize,
    name: String,
    test: Test,
    other: Fixed,
    column_first: bool,
}

/// The side of a [`ColumnTest`] that no row changes.
#[derive(Debug, Clone)]
enum Fixed {
    Literal(Value),
    Now,
}

impl ColumnTest {
    /// The test in SQL 3VL, both operands read in place.
    #[inline(always)]
    fn decide<R: Cells + ?Sized>(&self, row: &R, now: i64) -> Result<Option<bool>, EvalError> {
        let cell = column(row, self.pos, &self.name)?;
        let other = match &self.other {
            Fixed::Literal(v) => v.as_cell(),
            Fixed::Now => Cell::Timestamp(now),
        };
        match self.column_first {
            true => self.test.apply(cell, other),
            false => self.test.apply(other, cell),
        }
    }
}

/// A comparison operator as the orderings it accepts, indexed by
/// `Ordering as i8 + 1` (`Less`, `Equal`, `Greater`).
#[derive(Debug, Clone, Copy)]
struct Test([bool; 3]);

impl Test {
    fn of(op: BinOp) -> Option<Test> {
        Some(Test(match op {
            BinOp::Eq => [false, true, false],
            BinOp::Ne => [true, false, true],
            BinOp::Lt => [true, false, false],
            BinOp::Le => [true, true, false],
            BinOp::Gt => [false, false, true],
            BinOp::Ge => [false, true, true],
            _ => return None,
        }))
    }

    /// Whether `l op r` holds where `l` and `r` compare as `ord`.
    #[inline(always)]
    fn accepts(self, ord: Ordering) -> bool {
        self.0[(ord as i8 + 1) as usize]
    }

    /// `l op r` in SQL 3VL: UNKNOWN if either side is NULL, an error if
    /// [`Cell::sql_cmp`] cannot order them.
    #[inline(always)]
    fn apply(self, l: Cell<'_>, r: Cell<'_>) -> Result<Option<bool>, EvalError> {
        match l.sql_cmp(&r) {
            Some(ord) => Ok(Some(self.accepts(ord))),
            None if l.is_null() || r.is_null() => Ok(None),
            None => Err(incomparable(l, r)),
        }
    }
}

#[cold]
fn incomparable(l: Cell<'_>, r: Cell<'_>) -> EvalError {
    EvalError::new(format!("cannot compare {l} with {r}"))
}

#[cold]
fn unknown_column(name: &str) -> EvalError {
    EvalError::new(format!("unknown column '{name}'"))
}

/// Cell `pos` of `row`; a row shorter than the layout it was compiled for
/// has no such column.
#[inline]
fn column<'r, R: Cells + ?Sized>(
    row: &'r R,
    pos: usize,
    name: &str,
) -> Result<Cell<'r>, EvalError> {
    row.cell(pos).ok_or_else(|| unknown_column(name))
}

/// An intermediate result: a cell borrowed from the row or the expression,
/// or a string `+` built.
enum Datum<'r> {
    Cell(Cell<'r>),
    Text(String),
}

impl Datum<'_> {
    fn cell(&self) -> Cell<'_> {
        match self {
            Datum::Cell(c) => *c,
            Datum::Text(s) => Cell::Str(s),
        }
    }

    fn into_value(self) -> Value {
        match self {
            Datum::Cell(c) => c.to_value(),
            Datum::Text(s) => Value::Str(s),
        }
    }
}

impl CompiledExpr {
    /// Compile `expr`, binding each column name through `position`. A name
    /// `position` does not know compiles to a node that raises `unknown
    /// column` when it is evaluated; an aggregate call, to one that raises
    /// "only valid in a grouped SELECT projection".
    pub fn compile(expr: &Expr, position: impl Fn(&str) -> Option<usize>) -> CompiledExpr {
        CompiledExpr(Node::compile(expr, &position, &[], 0))
    }

    /// Compile `expr` against the columns of `schema`.
    pub fn for_schema(expr: &Expr, schema: &Schema) -> CompiledExpr {
        CompiledExpr::compile(expr, |name| schema.index_of(name))
    }

    /// Compile an item of a grouped projection: an aggregate call equal to
    /// `aggs[i]` reads position `first + i`, where the caller places the
    /// group's finished aggregates after its representative row.
    pub fn grouped(
        expr: &Expr,
        position: impl Fn(&str) -> Option<usize>,
        aggs: &[Expr],
        first: usize,
    ) -> CompiledExpr {
        CompiledExpr(Node::compile(expr, &position, aggs, first))
    }

    /// Evaluate over `row` (NULL propagates per SQL rules). `now` is what
    /// `NOW()` reads: microseconds since the Unix epoch at the executing site.
    pub fn eval<R: Cells + ?Sized>(&self, row: &R, now: i64) -> Result<Value, EvalError> {
        self.0.eval(row, now).map(Datum::into_value)
    }

    /// Evaluate to a SQL truth value: `Some(bool)` or `None` for NULL/UNKNOWN.
    pub fn truth<R: Cells + ?Sized>(&self, row: &R, now: i64) -> Result<Option<bool>, EvalError> {
        self.0.truth(row, now)
    }

    /// WHERE-clause semantics: NULL/UNKNOWN filters the row out.
    #[inline]
    pub fn matches<R: Cells + ?Sized>(&self, row: &R, now: i64) -> Result<bool, EvalError> {
        Ok(self.0.decide(row, now)? == Some(true))
    }
}

impl Node {
    fn compile(
        expr: &Expr,
        position: &dyn Fn(&str) -> Option<usize>,
        aggs: &[Expr],
        first: usize,
    ) -> Node {
        let node = |e: &Expr| Node::compile(e, position, aggs, first);
        let sub = |e: &Expr| Box::new(node(e));
        match expr {
            Expr::Literal(v) => Node::Literal(v.clone()),
            Expr::Now => Node::Now,
            Expr::Column(name) => match position(name) {
                Some(pos) => Node::Column {
                    pos,
                    name: name.clone(),
                },
                None => Node::Fail(unknown_column(name).message),
            },
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => Node::Neg(sub(expr)),
            Expr::Unary {
                op: UnOp::Not,
                expr,
            } => Node::Not(sub(expr)),
            Expr::IsNull { expr, negated } => Node::IsNull {
                expr: sub(expr),
                negated: *negated,
            },
            Expr::Binary { left, op, right } => match (op, Test::of(*op)) {
                (BinOp::And | BinOp::Or, _) => {
                    let or = *op == BinOp::Or;
                    let mut terms = Vec::new();
                    for side in [node(left), node(right)] {
                        match side {
                            Node::Junction {
                                or: same,
                                terms: more,
                            } if same == or => terms.extend(more),
                            other => terms.push(other),
                        }
                    }
                    Node::Junction { or, terms }
                }
                (_, Some(test)) => match (node(left), node(right)) {
                    (Node::Column { pos, name }, other @ (Node::Literal(_) | Node::Now)) => {
                        Node::column_test(pos, name, test, other, true)
                    }
                    (other @ (Node::Literal(_) | Node::Now), Node::Column { pos, name }) => {
                        Node::column_test(pos, name, test, other, false)
                    }
                    (left, right) => Node::Compare {
                        left: Box::new(left),
                        test,
                        right: Box::new(right),
                    },
                },
                _ => Node::Arith {
                    left: sub(left),
                    op: *op,
                    right: sub(right),
                },
            },
            Expr::Aggregate { func, .. } => match aggs.iter().position(|a| a == expr) {
                Some(i) => Node::Column {
                    pos: first + i,
                    name: expr.to_string(),
                },
                None => Node::Fail(format!(
                    "{func}(..) is only valid in a grouped SELECT projection"
                )),
            },
        }
    }

    /// A [`ColumnTest`] of `column` against `other`, a literal or `NOW()`.
    fn column_test(pos: usize, name: String, test: Test, other: Node, column_first: bool) -> Node {
        let other = match other {
            Node::Literal(v) => Fixed::Literal(v),
            _ => Fixed::Now,
        };
        Node::CompareColumn(ColumnTest {
            pos,
            name,
            test,
            other,
            column_first,
        })
    }

    /// The cell an operator reads of this node: a literal, `NOW()` or a
    /// column in place, any other node evaluated into `slot`.
    #[inline]
    fn operand<'r, R: Cells + ?Sized>(
        &'r self,
        row: &'r R,
        now: i64,
        slot: &'r mut Option<Datum<'r>>,
    ) -> Result<Cell<'r>, EvalError> {
        match self {
            Node::Literal(v) => Ok(v.as_cell()),
            Node::Now => Ok(Cell::Timestamp(now)),
            Node::Column { pos, name } => column(row, *pos, name),
            _ => Ok(slot.insert(self.eval(row, now)?).cell()),
        }
    }

    fn eval<'r, R: Cells + ?Sized>(&'r self, row: &'r R, now: i64) -> Result<Datum<'r>, EvalError> {
        Ok(Datum::Cell(match self {
            Node::Literal(v) => v.as_cell(),
            Node::Now => Cell::Timestamp(now),
            Node::Column { pos, name } => column(row, *pos, name)?,
            Node::Fail(message) => return Err(EvalError::new(message.clone())),
            Node::Neg(expr) => match expr.operand(row, now, &mut None)? {
                Cell::Null => Cell::Null,
                Cell::Int(i) => Cell::Int(i.wrapping_neg()),
                Cell::Double(d) => Cell::Double(-d),
                other => return Err(EvalError::new(format!("cannot negate {other}"))),
            },
            Node::Arith { left, op, right } => {
                let (mut ls, mut rs) = (None, None);
                let l = left.operand(row, now, &mut ls)?;
                let r = right.operand(row, now, &mut rs)?;
                if l.is_null() || r.is_null() {
                    Cell::Null
                } else {
                    return arith(l, *op, r);
                }
            }
            Node::Not(_)
            | Node::IsNull { .. }
            | Node::Junction { .. }
            | Node::Compare { .. }
            | Node::CompareColumn(_) => self.truth(row, now)?.map_or(Cell::Null, Cell::Bool),
        }))
    }

    /// This node's truth value. The connectives and column tests are
    /// decided here; what is left is in [`Node::truth_of_rest`], out of
    /// line, so the hot path keeps a small frame.
    fn truth<R: Cells + ?Sized>(&self, row: &R, now: i64) -> Result<Option<bool>, EvalError> {
        match self {
            Node::Junction { or, terms } => Node::junction(*or, terms, row, now),
            Node::Not(expr) => Ok(expr.decide(row, now)?.map(|b| !b)),
            Node::CompareColumn(test) => test.decide(row, now),
            Node::IsNull { .. }
            | Node::Compare { .. }
            | Node::Literal(_)
            | Node::Now
            | Node::Column { .. }
            | Node::Fail(_)
            | Node::Neg(_)
            | Node::Arith { .. } => self.truth_of_rest(row, now),
        }
    }

    /// `AND` (`or` false) or `OR` (`or` true) of `terms` in SQL 3VL: `or`
    /// at the first term that is `or`, even where an earlier one was NULL,
    /// and the terms after it not evaluated; otherwise NULL if a term was,
    /// and `!or` if none was.
    #[inline(always)]
    fn junction<R: Cells + ?Sized>(
        or: bool,
        terms: &[Node],
        row: &R,
        now: i64,
    ) -> Result<Option<bool>, EvalError> {
        let mut known = true;
        for term in terms {
            match term.decide(row, now)? {
                Some(t) if t == or => return Ok(Some(or)),
                Some(_) => {}
                None => known = false,
            }
        }
        Ok(known.then_some(!or))
    }

    /// [`Node::truth`], with a column test decided in place rather than
    /// through a call.
    #[inline(always)]
    fn decide<R: Cells + ?Sized>(&self, row: &R, now: i64) -> Result<Option<bool>, EvalError> {
        match self {
            Node::CompareColumn(test) => test.decide(row, now),
            _ => self.truth(row, now),
        }
    }

    /// The truth of the nodes [`Node::truth`] does not decide itself, out
    /// of line: their operand slots and error formatting stay out of its
    /// frame.
    #[inline(never)]
    fn truth_of_rest<R: Cells + ?Sized>(
        &self,
        row: &R,
        now: i64,
    ) -> Result<Option<bool>, EvalError> {
        match self {
            Node::IsNull { expr, negated } => Ok(Some(
                expr.operand(row, now, &mut None)?.is_null() != *negated,
            )),
            Node::Compare { left, test, right } => {
                let (mut ls, mut rs) = (None, None);
                let l = left.operand(row, now, &mut ls)?;
                test.apply(l, right.operand(row, now, &mut rs)?)
            }
            // A value where a truth value is wanted.
            _ => match self.operand(row, now, &mut None)? {
                Cell::Null => Ok(None),
                Cell::Bool(b) => Ok(Some(b)),
                other => Err(EvalError::new(format!(
                    "expected a boolean predicate, got {other}"
                ))),
            },
        }
    }
}

/// `l op r` for an arithmetic `op` on two non-NULL cells. Integer
/// arithmetic wraps — `/` and unary `-` included — so debug and release
/// builds agree and no operand can panic the evaluator.
fn arith(l: Cell<'_>, op: BinOp, r: Cell<'_>) -> Result<Datum<'static>, EvalError> {
    use Cell::*;
    // String concatenation with '+', as several COTS dialects allow.
    if let (Str(a), BinOp::Add, Str(b)) = (l, op, r) {
        return Ok(Datum::Text(format!("{a}{b}")));
    }
    let cell = match (l, r) {
        (Int(a), Int(b)) => match op {
            BinOp::Add => Int(a.wrapping_add(b)),
            BinOp::Sub => Int(a.wrapping_sub(b)),
            BinOp::Mul => Int(a.wrapping_mul(b)),
            _ if b == 0 => return Err(EvalError::new("division by zero")),
            _ => Int(a.wrapping_div(b)),
        },
        (Timestamp(a), Int(b)) => match op {
            BinOp::Add => Timestamp(a.wrapping_add(b)),
            BinOp::Sub => Timestamp(a.wrapping_sub(b)),
            _ => return Err(EvalError::new("only +/- allowed on timestamps")),
        },
        (Timestamp(a), Timestamp(b)) if op == BinOp::Sub => Int(a.wrapping_sub(b)),
        _ => {
            let double = |c: Cell<'_>| match c {
                Double(d) => Ok(d),
                Int(i) => Ok(i as f64),
                _ => Err(EvalError::new(format!("cannot apply {op} to {l} and {r}"))),
            };
            let (a, b) = (double(l)?, double(r)?);
            Double(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                _ if b == 0.0 => return Err(EvalError::new("division by zero")),
                _ => a / b,
            })
        }
    };
    Ok(Datum::Cell(cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;
    use delta_storage::{Column, DataType, Row};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Varchar),
            Column::new("qty", DataType::Int),
            Column::new("last_modified", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn row() -> Row {
        Row::new(vec![
            Value::Int(7),
            Value::Str("bolt".into()),
            Value::Null,
            Value::Timestamp(5000),
        ])
    }

    fn eval(src: &str) -> Result<Value, EvalError> {
        eval_at(&parse_expression(src).unwrap(), 9999)
    }

    /// Evaluate over the decoded row and over its encoded bytes; the two
    /// must agree.
    fn eval_at(e: &Expr, now: i64) -> Result<Value, EvalError> {
        let compiled = CompiledExpr::for_schema(e, &schema());
        let row = row();
        let decoded = compiled.eval(row.values(), now);
        let bytes = row.to_bytes();
        let mut at = Vec::new();
        let encoded = compiled.eval(&EncodedRow::index(&bytes, &mut at).unwrap(), now);
        assert_eq!(decoded, encoded, "{e}");
        decoded
    }

    #[test]
    fn literals_and_columns() {
        assert_eq!(eval("42").unwrap(), Value::Int(42));
        assert_eq!(eval("id").unwrap(), Value::Int(7));
        assert_eq!(eval("name").unwrap(), Value::Str("bolt".into()));
        assert!(eval("missing_col").is_err());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval("id + 1").unwrap(), Value::Int(8));
        assert_eq!(eval("id * 2 - 4").unwrap(), Value::Int(10));
        assert_eq!(eval("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval("7.0 / 2").unwrap(), Value::Double(3.5));
        assert!(eval("1 / 0").is_err());
        assert!(eval("1.0 / 0.0").is_err());
    }

    #[test]
    fn string_concat() {
        assert_eq!(eval("name + '!'").unwrap(), Value::Str("bolt!".into()));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval("id = 7").unwrap(), Value::Bool(true));
        assert_eq!(eval("id <> 7").unwrap(), Value::Bool(false));
        assert_eq!(eval("name < 'z'").unwrap(), Value::Bool(true));
        assert_eq!(eval("last_modified > 1000").unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval("qty + 1").unwrap(), Value::Null);
        assert_eq!(eval("qty = 0").unwrap(), Value::Null);
        assert_eq!(eval("qty IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval("qty IS NOT NULL").unwrap(), Value::Bool(false));
        assert_eq!(eval("NOT (qty = 0)").unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic_short_circuits() {
        // FALSE AND NULL = FALSE; TRUE OR NULL = TRUE.
        assert_eq!(eval("id = 0 AND qty = 1").unwrap(), Value::Bool(false));
        assert_eq!(eval("id = 7 OR qty = 1").unwrap(), Value::Bool(true));
        // TRUE AND NULL = NULL; FALSE OR NULL = NULL.
        assert_eq!(eval("id = 7 AND qty = 1").unwrap(), Value::Null);
        assert_eq!(eval("id = 0 OR qty = 1").unwrap(), Value::Null);
    }

    #[test]
    fn where_semantics_filters_unknown() {
        let e = parse_expression("qty = 0").unwrap();
        let compiled = CompiledExpr::for_schema(&e, &schema());
        assert!(!compiled.matches(row().values(), 0).unwrap());
    }

    #[test]
    fn now_uses_context_clock() {
        assert_eq!(eval("NOW()").unwrap(), Value::Timestamp(9999));
        assert_eq!(eval("last_modified < NOW()").unwrap(), Value::Bool(true));
    }

    #[test]
    fn truth_of_non_boolean_is_error() {
        assert!(eval("NOT 5").is_err());
        let e = parse_expression("id + 1").unwrap();
        let compiled = CompiledExpr::for_schema(&e, &schema());
        assert!(compiled.truth(row().values(), 0).is_err());
    }

    #[test]
    fn timestamp_arithmetic() {
        assert_eq!(
            eval("last_modified + 1000").unwrap(),
            Value::Timestamp(6000)
        );
        assert_eq!(
            eval("last_modified - last_modified").unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn integer_division_and_negation_wrap_instead_of_panicking() {
        let min = Value::Int(i64::MIN);
        assert_eq!(eval("(-9223372036854775807 - 1) / -1").unwrap(), min);
        assert_eq!(eval("-(-9223372036854775807 - 1)").unwrap(), min);
        assert_eq!(eval("(-9223372036854775807 - 1) / 1").unwrap(), min);
        assert_eq!(eval("-7 / 2").unwrap(), Value::Int(-3));
    }

    #[test]
    fn timestamp_difference_wraps_instead_of_panicking() {
        // last_modified is Timestamp(5000); NOW() reads the context clock.
        let e = parse_expression("NOW() - last_modified").unwrap();
        let got = eval_at(&e, i64::MIN).unwrap();
        assert_eq!(got, Value::Int(i64::MIN.wrapping_sub(5000)));
        assert_eq!(got, Value::Int(i64::MAX - 4999));
    }

    #[test]
    fn an_unknown_column_fails_only_when_it_is_evaluated() {
        let err = eval("missing_col = 1").unwrap_err();
        assert_eq!(err.message, "unknown column 'missing_col'");
        // A short-circuited branch never reads it ...
        assert_eq!(
            eval("id = 0 AND missing_col = 1").unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval("id = 7 OR missing_col = 1").unwrap(),
            Value::Bool(true)
        );
        // ... and neither does a statement over no rows: compiling succeeds.
        let e = parse_expression("missing_col = 1").unwrap();
        let _ = CompiledExpr::for_schema(&e, &schema());
    }

    #[test]
    fn aggregates_evaluate_only_in_a_grouped_projection() {
        let e = parse_expression("SUM(qty) + 1").unwrap();
        let err = eval_at(&e, 0).unwrap_err();
        assert_eq!(
            err.message,
            "SUM(..) is only valid in a grouped SELECT projection"
        );
        let aggs = [parse_expression("SUM(qty)").unwrap()];
        let schema = schema();
        let grouped = CompiledExpr::grouped(&e, |c| schema.index_of(c), &aggs, schema.len());
        let mut values = row().into_values();
        values.push(Value::Int(41));
        assert_eq!(grouped.eval(&values[..], 0).unwrap(), Value::Int(42));
    }

    #[test]
    fn incomparable_types_error() {
        assert!(eval("name > 5").is_err());
    }
}
