//! Recursive-descent parser with precedence climbing for expressions.

use std::fmt;

use delta_storage::{DataType, Value};

use crate::ast::{AggFunc, BinOp, ColumnDef, Expr, OrderKey, SelectItem, Statement, UnOp};
use crate::lexer::{tokenize, LexError, Token};

/// Parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::new(e.to_string())
    }
}

/// Parse a single SQL statement (an optional trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat(&Token::Semicolon);
    p.expect_end()?;
    Ok(stmt)
}

/// Parse a standalone expression (used by view definitions and tests).
pub fn parse_expression(sql: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr(0)?;
    p.expect_end()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume `t` if it is next; report whether it was.
    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume a keyword (case-insensitive identifier) if next.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected {kw}, found {}",
                self.describe_next()
            )))
        }
    }

    fn expect_token(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected {t}, found {}",
                self.describe_next()
            )))
        }
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "unexpected trailing input: {}",
                self.describe_next()
            )))
        }
    }

    fn describe_next(&self) -> String {
        match self.peek() {
            Some(t) => format!("'{t}'"),
            None => "end of input".into(),
        }
    }

    fn identifier(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError::new(format!(
                "expected identifier, found {}",
                other
                    .map(|t| format!("'{t}'"))
                    .unwrap_or("end of input".into())
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.create_table();
            }
            let unique = self.eat_kw("UNIQUE");
            self.expect_kw("INDEX")?;
            let name = self.identifier()?;
            self.expect_kw("ON")?;
            let table = self.identifier()?;
            self.expect_token(&Token::LParen)?;
            let column = self.identifier()?;
            self.expect_token(&Token::RParen)?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            });
        }
        if self.eat_kw("DROP") {
            if self.eat_kw("TABLE") {
                let name = self.identifier()?;
                return Ok(Statement::DropTable { name });
            }
            self.expect_kw("INDEX")?;
            let name = self.identifier()?;
            return Ok(Statement::DropIndex { name });
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            return self.insert();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            return self.delete();
        }
        if self.eat_kw("SELECT") {
            return self.select();
        }
        if self.eat_kw("BEGIN") {
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") || self.eat_kw("ABORT") {
            return Ok(Statement::Rollback);
        }
        Err(ParseError::new(format!(
            "expected a statement, found {}",
            self.describe_next()
        )))
    }

    fn create_table(&mut self) -> Result<Statement, ParseError> {
        let name = self.identifier()?;
        self.expect_token(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.identifier()?;
            let ty_name = self.identifier()?;
            let data_type = DataType::parse(&ty_name)
                .ok_or_else(|| ParseError::new(format!("unknown type '{ty_name}'")))?;
            // Optional length like VARCHAR(40) — accepted and ignored.
            if self.eat(&Token::LParen) {
                match self.next() {
                    Some(Token::Int(_)) => {}
                    _ => return Err(ParseError::new("expected length after '('")),
                }
                self.expect_token(&Token::RParen)?;
            }
            let mut def = ColumnDef {
                name: col_name,
                data_type,
                not_null: false,
                primary_key: false,
            };
            loop {
                if self.eat_kw("PRIMARY") {
                    self.expect_kw("KEY")?;
                    def.primary_key = true;
                    def.not_null = true;
                } else if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    def.not_null = true;
                } else {
                    break;
                }
            }
            columns.push(def);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_token(&Token::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement, ParseError> {
        let table = self.identifier()?;
        let columns = if self.eat(&Token::LParen) {
            let mut cols = vec![self.identifier()?];
            while self.eat(&Token::Comma) {
                cols.push(self.identifier()?);
            }
            self.expect_token(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_token(&Token::LParen)?;
            let mut row = vec![self.expr(0)?];
            while self.eat(&Token::Comma) {
                row.push(self.expr(0)?);
            }
            self.expect_token(&Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Statement, ParseError> {
        let table = self.identifier()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect_token(&Token::Eq)?;
            let e = self.expr(0)?;
            sets.push((col, e));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let predicate = self.opt_where()?;
        Ok(Statement::Update {
            table,
            sets,
            predicate,
        })
    }

    fn delete(&mut self) -> Result<Statement, ParseError> {
        let table = self.identifier()?;
        let predicate = self.opt_where()?;
        Ok(Statement::Delete { table, predicate })
    }

    fn select(&mut self) -> Result<Statement, ParseError> {
        let mut projection = Vec::new();
        loop {
            if self.eat(&Token::Star) {
                projection.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr(0)?;
                let alias = if self.eat_kw("AS") {
                    Some(self.identifier()?)
                } else {
                    None
                };
                projection.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let table = self.identifier()?;
        let predicate = self.opt_where()?;
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.expr(0)?);
            while self.eat(&Token::Comma) {
                group_by.push(self.expr(0)?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr(0)?;
                let descending = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey { expr, descending });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                other => {
                    return Err(ParseError::new(format!(
                        "LIMIT needs a non-negative integer, found {}",
                        other
                            .map(|t| format!("'{t}'"))
                            .unwrap_or("end of input".into())
                    )))
                }
            }
        } else {
            None
        };
        Ok(Statement::Select {
            projection,
            table,
            predicate,
            group_by,
            order_by,
            limit,
        })
    }

    fn opt_where(&mut self) -> Result<Option<Expr>, ParseError> {
        if self.eat_kw("WHERE") {
            Ok(Some(self.expr(0)?))
        } else {
            Ok(None)
        }
    }

    /// Precedence-climbing expression parser.
    fn expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut left = self.unary()?;
        loop {
            // `IS [NOT] NULL` postfix binds tighter than AND/OR.
            if min_prec <= 3 {
                let save = self.pos;
                if self.eat_kw("IS") {
                    let negated = self.eat_kw("NOT");
                    if self.eat_kw("NULL") {
                        left = Expr::IsNull {
                            expr: Box::new(left),
                            negated,
                        };
                        continue;
                    }
                    self.pos = save;
                }
            }
            let op = match self.peek() {
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("AND") => BinOp::And,
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("OR") => BinOp::Or,
                Some(Token::Eq) => BinOp::Eq,
                Some(Token::Ne) => BinOp::Ne,
                Some(Token::Lt) => BinOp::Lt,
                Some(Token::Le) => BinOp::Le,
                Some(Token::Gt) => BinOp::Gt,
                Some(Token::Ge) => BinOp::Ge,
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.pos += 1;
            let right = self.expr(prec + 1)?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("NOT") {
            let e = self.expr(3)?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            });
        }
        if self.eat(&Token::Minus) {
            // `-9223372036854775808` lexes as Minus + BigInt because the
            // magnitude alone does not fit in i64; fold it here.
            if let Some(&Token::BigInt(u)) = self.peek() {
                self.next();
                return if u == i64::MIN.unsigned_abs() {
                    Ok(Expr::Literal(Value::Int(i64::MIN)))
                } else {
                    Err(ParseError::new(format!(
                        "integer literal '-{u}' out of range"
                    )))
                };
            }
            let e = self.unary()?;
            // Fold negation of numeric literals.
            return Ok(match e {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(i.wrapping_neg())),
                Expr::Literal(Value::Double(d)) => Expr::Literal(Value::Double(-d)),
                other => Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Token::BigInt(u)) => Err(ParseError::new(format!(
                "integer literal '{u}' out of range"
            ))),
            Some(Token::Float(x)) => Ok(Expr::Literal(Value::Double(x))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Str(s))),
            Some(Token::LParen) => {
                let e = self.expr(0)?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(s)) => {
                if s.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if s.eq_ignore_ascii_case("TRUE") {
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if s.eq_ignore_ascii_case("FALSE") {
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if s.eq_ignore_ascii_case("NOW") && self.eat(&Token::LParen) {
                    self.expect_token(&Token::RParen)?;
                    return Ok(Expr::Now);
                }
                if s.eq_ignore_ascii_case("TIMESTAMP") {
                    // Typed literal: TIMESTAMP <integer> (optionally negative).
                    let neg = self.eat(&Token::Minus);
                    if let Some(&Token::Int(i)) = self.peek() {
                        self.next();
                        return Ok(Expr::Literal(Value::Timestamp(if neg {
                            i.wrapping_neg()
                        } else {
                            i
                        })));
                    }
                    if let Some(&Token::BigInt(u)) = self.peek() {
                        if neg && u == i64::MIN.unsigned_abs() {
                            self.next();
                            return Ok(Expr::Literal(Value::Timestamp(i64::MIN)));
                        }
                        return Err(ParseError::new(format!(
                            "timestamp literal '{}{u}' out of range",
                            if neg { "-" } else { "" }
                        )));
                    }
                    if neg {
                        // Roll back the consumed '-' if no integer followed.
                        self.pos -= 1;
                    }
                }
                if let Some(func) = AggFunc::parse(&s) {
                    if self.eat(&Token::LParen) {
                        let arg = if self.eat(&Token::Star) {
                            if func != AggFunc::Count {
                                return Err(ParseError::new(format!("{func}(*) is not valid")));
                            }
                            None
                        } else {
                            Some(Box::new(self.expr(0)?))
                        };
                        self.expect_token(&Token::RParen)?;
                        return Ok(Expr::Aggregate { func, arg });
                    }
                }
                Ok(Expr::Column(s))
            }
            other => Err(ParseError::new(format!(
                "expected expression, found {}",
                other
                    .map(|t| format!("'{t}'"))
                    .unwrap_or("end of input".into())
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(sql: &str) -> Statement {
        let s1 = parse_statement(sql).unwrap();
        let printed = s1.to_string();
        let s2 = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("printed form failed to re-parse: {printed}: {e}"));
        assert_eq!(s1, s2, "canonical text must be stable: {printed}");
        s1
    }

    #[test]
    fn create_table() {
        let s = round_trip(
            "CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, qty INT, last_modified TIMESTAMP)",
        );
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "parts");
                assert_eq!(columns.len(), 4);
                assert!(columns[0].primary_key && columns[0].not_null);
                assert!(columns[1].not_null && !columns[1].primary_key);
                assert_eq!(columns[3].data_type, DataType::Timestamp);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = round_trip("INSERT INTO parts (id, name) VALUES (1, 'bolt'), (2, 'nut')");
        match s {
            Statement::Insert { rows, columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns.unwrap(), vec!["id", "name"]);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn insert_without_columns() {
        let s = round_trip("INSERT INTO t VALUES (1, 2.5, NULL, 'x', TRUE)");
        match s {
            Statement::Insert { columns, rows, .. } => {
                assert!(columns.is_none());
                assert_eq!(rows[0].len(), 5);
                assert_eq!(rows[0][2], Expr::Literal(Value::Null));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn update_with_predicate() {
        let s =
            round_trip("UPDATE PARTS SET status = 'revised' WHERE last_modified_date > 19991115");
        match s {
            Statement::Update {
                sets, predicate, ..
            } => {
                assert_eq!(sets.len(), 1);
                assert!(predicate.is_some());
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn delete_without_predicate() {
        let s = round_trip("DELETE FROM parts");
        assert_eq!(
            s,
            Statement::Delete {
                table: "parts".into(),
                predicate: None
            }
        );
    }

    #[test]
    fn select_star_and_exprs() {
        let s = round_trip(
            "SELECT *, qty * 2 AS double_qty FROM parts WHERE qty >= 10 AND name <> 'x'",
        );
        match s {
            Statement::Select { projection, .. } => {
                assert_eq!(projection.len(), 2);
                assert!(matches!(projection[0], SelectItem::Wildcard));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn precedence_and_over_or() {
        let e = parse_expression("a OR b AND c").unwrap();
        assert_eq!(
            e,
            Expr::Binary {
                left: Box::new(Expr::Column("a".into())),
                op: BinOp::Or,
                right: Box::new(Expr::Binary {
                    left: Box::new(Expr::Column("b".into())),
                    op: BinOp::And,
                    right: Box::new(Expr::Column("c".into())),
                }),
            }
        );
    }

    #[test]
    fn precedence_arithmetic_over_comparison() {
        let e = parse_expression("a + 1 > b * 2").unwrap();
        match e {
            Expr::Binary { op: BinOp::Gt, .. } => {}
            other => panic!("expected > at root, got {other:?}"),
        }
    }

    #[test]
    fn is_null_and_is_not_null() {
        let e = parse_expression("a IS NULL OR b IS NOT NULL").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Or,
                left,
                right,
            } => {
                assert!(matches!(*left, Expr::IsNull { negated: false, .. }));
                assert!(matches!(*right, Expr::IsNull { negated: true, .. }));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn not_and_negation() {
        round_trip("SELECT * FROM t WHERE NOT (a = 1) AND b = -2");
        let e = parse_expression("-2").unwrap();
        assert_eq!(e, Expr::Literal(Value::Int(-2)));
    }

    #[test]
    fn now_function() {
        let e = parse_expression("last_modified > NOW()").unwrap();
        assert!(e.contains_now());
        // A bare `now` identifier (no parens) is a column, not the function.
        let c = parse_expression("now").unwrap();
        assert_eq!(c, Expr::Column("now".into()));
    }

    #[test]
    fn txn_control_statements() {
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("commit;").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("ROLLBACK").unwrap(), Statement::Rollback);
        assert_eq!(parse_statement("abort").unwrap(), Statement::Rollback);
    }

    #[test]
    fn errors_are_descriptive() {
        let e = parse_statement("SELECT FROM").unwrap_err();
        assert!(e.to_string().contains("expected"));
        assert!(parse_statement("INSERT INTO t VALUES (1,)").is_err());
        assert!(parse_statement("UPDATE t SET").is_err());
        assert!(parse_statement("CREATE TABLE t (a BLOB)").is_err());
        assert!(parse_statement("SELECT * FROM t extra garbage !!!").is_err());
    }

    #[test]
    fn aggregates_and_group_by() {
        let s = round_trip("SELECT grp, COUNT(*), SUM(qty) AS total, AVG(qty), MIN(qty), MAX(qty) FROM parts WHERE qty > 0 GROUP BY grp");
        match s {
            Statement::Select {
                projection,
                group_by,
                ..
            } => {
                assert_eq!(projection.len(), 6);
                assert_eq!(group_by, vec![Expr::Column("grp".into())]);
                match &projection[1] {
                    SelectItem::Expr {
                        expr: Expr::Aggregate { func, arg },
                        ..
                    } => {
                        assert_eq!(*func, delta_sql_agg_alias::Count);
                        assert!(arg.is_none());
                    }
                    other => panic!("wrong: {other:?}"),
                }
            }
            other => panic!("wrong statement: {other:?}"),
        }
        // COUNT is case-insensitive, star only valid for COUNT.
        round_trip("SELECT count(*) FROM t");
        assert!(parse_statement("SELECT SUM(*) FROM t").is_err());
        // A column named like an aggregate (no parens) is still a column.
        let e = parse_expression("sum").unwrap();
        assert_eq!(e, Expr::Column("sum".into()));
        // Aggregates over expressions round trip.
        round_trip("SELECT SUM(qty * 2 + 1) FROM t GROUP BY a, b");
    }

    use crate::ast::AggFunc as delta_sql_agg_alias;

    #[test]
    fn keywords_case_insensitive() {
        round_trip("select * from T where A = 1");
    }

    #[test]
    fn quoted_identifier_round_trips() {
        let s = round_trip("SELECT * FROM \"my table\" WHERE \"weird col\" = 1");
        assert_eq!(s.table(), Some("my table"));
    }

    #[test]
    fn string_quote_escaping_round_trips() {
        let s = round_trip("INSERT INTO t VALUES ('o''brien')");
        match s {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows[0][0], Expr::Literal(Value::Str("o'brien".into())));
            }
            other => panic!("wrong: {other:?}"),
        }
    }
}
