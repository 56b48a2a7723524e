//! Typed column values.
//!
//! The engine stores dynamically typed rows; every cell is a [`Value`] and the
//! schema pins each column to a [`DataType`]. The benchmark workloads in the
//! paper use fixed 100-byte records of integers, strings and a timestamp, all
//! of which are representable here.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{StorageError, StorageResult};

/// Data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Double,
    /// Variable-length UTF-8 string (optionally length-capped by the schema).
    Varchar,
    /// Microseconds since the Unix epoch. The paper's timestamp-based
    /// extraction method (§3.1.1) queries on a column of this type.
    Timestamp,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Varchar => "VARCHAR",
            DataType::Timestamp => "TIMESTAMP",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Parse a type name as it appears in SQL `CREATE TABLE`.
    pub fn parse(s: &str) -> Option<DataType> {
        match s.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" => Some(DataType::Int),
            "DOUBLE" | "FLOAT" | "REAL" => Some(DataType::Double),
            "VARCHAR" | "TEXT" | "CHAR" | "STRING" => Some(DataType::Varchar),
            "TIMESTAMP" | "DATETIME" => Some(DataType::Timestamp),
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            _ => None,
        }
    }
}

/// A dynamically typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Double(f64),
    Str(String),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
    Bool(bool),
}

impl Value {
    /// The type of this value, or `None` for `Null` (which conforms to any type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Varchar),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Whether this value may be stored in a column of type `ty`.
    ///
    /// `Int` is accepted into `Timestamp` and `Double` columns (widening), as
    /// every SQL dialect the paper's source systems use allows.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), DataType::Int)
                | (Value::Int(_), DataType::Double)
                | (Value::Int(_), DataType::Timestamp)
                | (Value::Double(_), DataType::Double)
                | (Value::Str(_), DataType::Varchar)
                | (Value::Timestamp(_), DataType::Timestamp)
                | (Value::Bool(_), DataType::Bool)
        )
    }

    /// Coerce to the exact storage representation of `ty`, if conformant.
    pub fn coerce_to(&self, ty: DataType) -> StorageResult<Value> {
        if !self.conforms_to(ty) {
            return Err(StorageError::TypeError(format!(
                "cannot store {self} in a {ty} column"
            )));
        }
        Ok(match (self, ty) {
            (Value::Int(i), DataType::Double) => Value::Double(*i as f64),
            (Value::Int(i), DataType::Timestamp) => Value::Timestamp(*i),
            _ => self.clone(),
        })
    }

    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an `i64` from `Int` or `Timestamp`.
    pub fn as_int(&self) -> StorageResult<i64> {
        match self {
            Value::Int(i) | Value::Timestamp(i) => Ok(*i),
            other => Err(StorageError::TypeError(format!(
                "{other} is not an integer"
            ))),
        }
    }

    /// Extract an `f64` from `Double` or `Int`.
    pub fn as_double(&self) -> StorageResult<f64> {
        match self {
            Value::Double(d) => Ok(*d),
            Value::Int(i) => Ok(*i as f64),
            other => Err(StorageError::TypeError(format!("{other} is not a double"))),
        }
    }

    /// Extract a `&str` from `Str`.
    pub fn as_str(&self) -> StorageResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(StorageError::TypeError(format!("{other} is not a string"))),
        }
    }

    /// Extract a `bool` from `Bool`.
    pub fn as_bool(&self) -> StorageResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(StorageError::TypeError(format!("{other} is not a boolean"))),
        }
    }

    /// This value as a [`Cell`], its string borrowed.
    #[inline]
    pub fn as_cell(&self) -> Cell<'_> {
        match self {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::Int(*i),
            Value::Double(d) => Cell::Double(*d),
            Value::Str(s) => Cell::Str(s),
            Value::Timestamp(t) => Cell::Timestamp(*t),
            Value::Bool(b) => Cell::Bool(*b),
        }
    }

    /// SQL three-valued comparison: `None` if either side is NULL or the types
    /// are incomparable; numeric types compare across Int/Double.
    /// [`Cell::sql_cmp`] applies the same rules to borrowed cells; this copy
    /// stays because index lookups compare owned keys on every step, and going
    /// through cells made that 1.7x slower.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            (Int(a), Timestamp(b)) | (Timestamp(a), Int(b)) => Some(a.cmp(b)),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (Int(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Double(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// SQL equality (NULL-aware): `None` when either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Total order used by indexes and sort-based algorithms. NULL sorts first;
    /// values of different types sort by a fixed type rank. NaN sorts last
    /// among doubles. [`Cell::total_cmp`] is the same order on borrowed
    /// cells, kept as a copy for the reason [`Value::sql_cmp`] is.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Double(_) => 3,
                Value::Timestamp(_) => 4,
                Value::Str(_) => 5,
            }
        }
        match (self, other) {
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            _ => self
                .sql_cmp(other)
                .unwrap_or_else(|| rank(self).cmp(&rank(other))),
        }
    }

    /// Approximate in-memory/encoded size in bytes (used by cost accounting
    /// and the netsim transport to size messages).
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Timestamp(_) | Value::Double(_) => 9,
            Value::Bool(_) => 2,
            Value::Str(s) => 5 + s.len(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_cell().fmt(f)
    }
}

/// A cell as it is read: a [`Value`] whose string is borrowed — from a
/// decoded row, from an expression's literal or straight from the stored
/// bytes of a record ([`crate::record::EncodedRow`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell<'a> {
    Null,
    Int(i64),
    Double(f64),
    Str(&'a str),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
    Bool(bool),
}

impl Cell<'_> {
    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// The owned value (copies a string).
    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(i),
            Cell::Double(d) => Value::Double(d),
            Cell::Str(s) => Value::Str(s.to_string()),
            Cell::Timestamp(t) => Value::Timestamp(t),
            Cell::Bool(b) => Value::Bool(b),
        }
    }

    /// SQL three-valued comparison: `None` if either side is NULL or the types
    /// are incomparable; numeric types compare across Int/Double, and Int
    /// with Timestamp.
    #[inline]
    pub fn sql_cmp(&self, other: &Cell<'_>) -> Option<Ordering> {
        use Cell::*;
        match (*self, *other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(&b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(&b)),
            (Int(a), Timestamp(b)) | (Timestamp(a), Int(b)) => Some(a.cmp(&b)),
            (Double(a), Double(b)) => a.partial_cmp(&b),
            (Int(a), Double(b)) => (a as f64).partial_cmp(&b),
            (Double(a), Int(b)) => a.partial_cmp(&(b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(&b)),
            _ => None,
        }
    }

    /// [`Value::total_cmp`]'s total order, on borrowed cells.
    #[inline]
    pub fn total_cmp(&self, other: &Cell<'_>) -> Ordering {
        fn rank(c: &Cell<'_>) -> u8 {
            match c {
                Cell::Null => 0,
                Cell::Bool(_) => 1,
                Cell::Int(_) => 2,
                Cell::Double(_) => 3,
                Cell::Timestamp(_) => 4,
                Cell::Str(_) => 5,
            }
        }
        match (self, other) {
            (Cell::Double(a), Cell::Double(b)) => a.total_cmp(b),
            _ => self
                .sql_cmp(other)
                .unwrap_or_else(|| rank(self).cmp(&rank(other))),
        }
    }
}

impl fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Null => f.write_str("NULL"),
            Cell::Int(i) => write!(f, "{i}"),
            // `{:?}` keeps a decimal point (`2.0`, not `2`) so printed SQL
            // literals re-parse to the same type, and round-trips exactly.
            Cell::Double(d) => write!(f, "{d:?}"),
            Cell::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Cell::Timestamp(t) => write!(f, "{t}"),
            Cell::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_parse_round_trips_common_names() {
        assert_eq!(DataType::parse("int"), Some(DataType::Int));
        assert_eq!(DataType::parse("VARCHAR"), Some(DataType::Varchar));
        assert_eq!(DataType::parse("Timestamp"), Some(DataType::Timestamp));
        assert_eq!(DataType::parse("blob"), None);
    }

    #[test]
    fn null_conforms_to_everything() {
        for ty in [
            DataType::Int,
            DataType::Double,
            DataType::Varchar,
            DataType::Timestamp,
            DataType::Bool,
        ] {
            assert!(Value::Null.conforms_to(ty));
        }
    }

    #[test]
    fn int_widens_to_double_and_timestamp() {
        assert_eq!(
            Value::Int(7).coerce_to(DataType::Double).unwrap(),
            Value::Double(7.0)
        );
        assert_eq!(
            Value::Int(7).coerce_to(DataType::Timestamp).unwrap(),
            Value::Timestamp(7)
        );
        assert!(Value::Str("x".into()).coerce_to(DataType::Int).is_err());
    }

    #[test]
    fn sql_cmp_is_null_aware() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn value_and_cell_comparisons_agree() {
        let vals = [
            Value::Null,
            Value::Int(-3),
            Value::Int(2),
            Value::Double(2.0),
            Value::Double(2.5),
            Value::Double(f64::NAN),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Str("a".into()),
            Value::Str("b".into()),
            Value::Timestamp(2),
            Value::Timestamp(9),
            Value::Bool(false),
            Value::Bool(true),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(
                    a.sql_cmp(b),
                    a.as_cell().sql_cmp(&b.as_cell()),
                    "{a:?} vs {b:?}"
                );
                assert_eq!(
                    a.total_cmp(b),
                    a.as_cell().total_cmp(&b.as_cell()),
                    "{a:?} vs {b:?}"
                );
                assert_eq!(a == b, a.as_cell() == b.as_cell(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn sql_eq_cross_numeric() {
        assert_eq!(Value::Int(2).sql_eq(&Value::Double(2.0)), Some(true));
        assert_eq!(Value::Int(2).sql_eq(&Value::Str("2".into())), None);
    }

    #[test]
    fn total_cmp_orders_mixed_types_deterministically() {
        let mut vals = [
            Value::Str("a".into()),
            Value::Null,
            Value::Int(1),
            Value::Bool(true),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[3], Value::Str("a".into()));
    }

    #[test]
    fn display_escapes_quotes() {
        assert_eq!(Value::Str("o'brien".into()).to_string(), "'o''brien'");
    }

    #[test]
    fn byte_size_reflects_string_length() {
        assert_eq!(Value::Str("abcd".into()).byte_size(), 9);
        assert_eq!(Value::Int(0).byte_size(), 9);
    }
}
