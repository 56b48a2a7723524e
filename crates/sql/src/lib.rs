//! # delta-sql
//!
//! A small SQL dialect for the DeltaForge engine — and, crucially for the
//! paper, the **Op-Delta wire format**: an Op-Delta *is* an operation
//! description, and we represent it as the canonical text of a parsed
//! statement (§4.1: *"the SQL statement itself is already an Op-Delta in the
//! size of about 70 bytes"*). Statements printed by [`ast::Statement`]'s
//! `Display` re-parse to the same AST, which is what makes shipping
//! operations between source and warehouse lossless.
//!
//! Supported statements: `CREATE TABLE`, `DROP TABLE`, `INSERT`, `UPDATE`,
//! `DELETE`, single-table `SELECT`, and `BEGIN`/`COMMIT`/`ROLLBACK`.
//! Expressions cover literals, column references, arithmetic, comparisons,
//! `AND`/`OR`/`NOT`, `IS [NOT] NULL`, and `NOW()`.

pub mod ast;
pub mod eval;
pub mod lexer;
pub mod parser;

pub use ast::{BinOp, ColumnDef, Expr, SelectItem, Statement, UnOp};
pub use eval::{Cells, CompiledExpr, EvalError};
pub use lexer::{LexError, Token};
pub use parser::{parse_expression, parse_statement, ParseError};
