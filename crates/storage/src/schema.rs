//! Table schemas.

use std::fmt;

use crate::error::{StorageError, StorageResult};
use crate::record::Row;
use crate::value::{DataType, Value};

/// One column of a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub data_type: DataType,
    /// Whether NULL is allowed.
    pub nullable: bool,
    /// Whether this column participates in the primary key.
    pub primary_key: bool,
}

impl Column {
    /// A nullable, non-key column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Column {
        Column {
            name: name.into(),
            data_type,
            nullable: true,
            primary_key: false,
        }
    }

    /// Mark this column NOT NULL.
    pub fn not_null(mut self) -> Column {
        self.nullable = false;
        self
    }

    /// Mark this column PRIMARY KEY (implies NOT NULL).
    pub fn primary_key(mut self) -> Column {
        self.primary_key = true;
        self.nullable = false;
        self
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<Column>) -> StorageResult<Schema> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(StorageError::SchemaMismatch(format!(
                    "duplicate column name '{}'",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The column named `name`.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Indices of the primary-key columns, in declaration order.
    pub fn primary_key_indices(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.primary_key)
            .map(|(i, _)| i)
            .collect()
    }

    /// Extract the primary-key values of `row` (empty if keyless).
    pub fn primary_key_of(&self, row: &Row) -> Vec<Value> {
        self.primary_key_indices()
            .into_iter()
            .map(|i| row.values()[i].clone())
            .collect()
    }

    /// Validate `row` against the schema, coercing widening conversions in
    /// place. Rejects arity mismatches, NULLs in NOT NULL columns, and
    /// non-conformant types.
    ///
    /// The row is taken by value: a value that already has its column's
    /// storage type is moved into the result, so validating a conformant
    /// row allocates nothing, and only a value that needs coercing (`Int`
    /// into a `DOUBLE` or `TIMESTAMP` column) is rebuilt.
    pub fn validate(&self, row: Row) -> StorageResult<Row> {
        if row.len() != self.columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        let mut values = row.into_values();
        for (v, c) in values.iter_mut().zip(&self.columns) {
            if v.is_null() && !c.nullable {
                return Err(StorageError::SchemaMismatch(format!(
                    "NULL in NOT NULL column '{}'",
                    c.name
                )));
            }
            if v.data_type().is_some_and(|ty| ty != c.data_type) {
                *v = v.coerce_to(c.data_type).map_err(|_| {
                    StorageError::SchemaMismatch(format!(
                        "value {v} does not fit column '{}' of type {}",
                        c.name, c.data_type
                    ))
                })?;
            }
        }
        Ok(Row::new(values))
    }

    /// Serialize to the one-line catalog text format:
    /// `name:TYPE[:N][:P], ...` (`N` = NOT NULL, `P` = PRIMARY KEY).
    pub fn to_catalog_string(&self) -> String {
        self.columns
            .iter()
            .map(|c| {
                let mut s = format!("{}:{}", c.name, c.data_type);
                if c.primary_key {
                    s.push_str(":P");
                } else if !c.nullable {
                    s.push_str(":N");
                }
                s
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parse the format produced by [`Schema::to_catalog_string`].
    pub fn from_catalog_string(s: &str) -> StorageResult<Schema> {
        let mut cols = Vec::new();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let mut it = part.split(':');
            let name = it
                .next()
                .filter(|n| !n.is_empty())
                .ok_or_else(|| StorageError::Corrupt(format!("bad catalog column '{part}'")))?;
            let ty = it
                .next()
                .and_then(DataType::parse)
                .ok_or_else(|| StorageError::Corrupt(format!("bad catalog type in '{part}'")))?;
            let mut col = Column::new(name, ty);
            match it.next() {
                Some("P") => col = col.primary_key(),
                Some("N") => col = col.not_null(),
                Some(other) => {
                    return Err(StorageError::Corrupt(format!(
                        "bad catalog flag '{other}' in '{part}'"
                    )))
                }
                None => {}
            }
            cols.push(col);
        }
        Schema::new(cols)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_catalog_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("name", DataType::Varchar).not_null(),
            Column::new("qty", DataType::Int),
            Column::new("last_modified", DataType::Timestamp),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_duplicate_columns() {
        let r = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("a", DataType::Varchar),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn index_and_lookup() {
        let s = parts_schema();
        assert_eq!(s.index_of("qty"), Some(2));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.column("name").unwrap().data_type, DataType::Varchar);
    }

    #[test]
    fn primary_key_extraction() {
        let s = parts_schema();
        assert_eq!(s.primary_key_indices(), vec![0]);
        let row = Row::new(vec![
            Value::Int(7),
            Value::Str("bolt".into()),
            Value::Int(3),
            Value::Timestamp(100),
        ]);
        assert_eq!(s.primary_key_of(&row), vec![Value::Int(7)]);
    }

    #[test]
    fn validate_accepts_and_coerces() {
        let s = parts_schema();
        let row = Row::new(vec![
            Value::Int(1),
            Value::Str("nut".into()),
            Value::Null,
            Value::Int(42), // Int widens to Timestamp
        ]);
        let v = s.validate(row).unwrap();
        assert_eq!(v.values()[3], Value::Timestamp(42));
    }

    #[test]
    fn validate_rejects_null_in_not_null() {
        let s = parts_schema();
        let row = Row::new(vec![Value::Int(1), Value::Null, Value::Null, Value::Null]);
        assert!(s.validate(row).is_err());
    }

    #[test]
    fn validate_rejects_arity_mismatch() {
        let s = parts_schema();
        assert!(s.validate(Row::new(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn catalog_string_round_trip() {
        let s = parts_schema();
        let text = s.to_catalog_string();
        let back = Schema::from_catalog_string(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn catalog_string_rejects_garbage() {
        assert!(Schema::from_catalog_string("a:BLOB").is_err());
        assert!(Schema::from_catalog_string("a:INT:X").is_err());
    }
}
