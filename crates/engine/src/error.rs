//! Engine error type.

use std::fmt;
use std::path::PathBuf;

use delta_sql::{EvalError, ParseError};
use delta_storage::StorageError;

/// Result alias used throughout the engine.
pub type EngineResult<T> = Result<T, EngineError>;

/// Errors raised by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// Storage-layer failure.
    Storage(StorageError),
    /// SQL text failed to parse.
    Parse(ParseError),
    /// Expression evaluation failed.
    Eval(EvalError),
    /// Named object (table, index, trigger) does not exist.
    NoSuchObject(String),
    /// Attempt to create an object that already exists.
    AlreadyExists(String),
    /// A lock could not be acquired within the timeout (deadlock resolution).
    LockTimeout { table: String },
    /// The waits-for graph showed a cycle: this transaction was chosen as the
    /// deadlock victim and should abort (much cheaper than burning the
    /// timeout).
    Deadlock { table: String },
    /// Primary-key uniqueness violated.
    DuplicateKey { table: String, key: String },
    /// Transaction misuse (e.g. COMMIT without BEGIN).
    TxnState(String),
    /// Statement is invalid for the target schema.
    Invalid(String),
    /// Trigger recursion exceeded the engine limit.
    TriggerDepth(usize),
    /// Archived log segments past a log extractor's watermark were
    /// unreadable and moved aside: the log no longer holds every change to
    /// `tables`, so the extractor ships nothing more until the warehouse
    /// has been audited against the source.
    AuditOwed {
        tables: Vec<String>,
        segments: Vec<PathBuf>,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage: {e}"),
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Eval(e) => write!(f, "{e}"),
            EngineError::NoSuchObject(n) => write!(f, "no such object: {n}"),
            EngineError::AlreadyExists(n) => write!(f, "already exists: {n}"),
            EngineError::LockTimeout { table } => {
                write!(f, "timed out waiting for lock on table '{table}'")
            }
            EngineError::Deadlock { table } => {
                write!(
                    f,
                    "deadlock detected while waiting for lock on table '{table}'"
                )
            }
            EngineError::DuplicateKey { table, key } => {
                write!(f, "duplicate primary key {key} in table '{table}'")
            }
            EngineError::TxnState(m) => write!(f, "transaction error: {m}"),
            EngineError::Invalid(m) => write!(f, "invalid statement: {m}"),
            EngineError::TriggerDepth(d) => write!(f, "trigger recursion exceeded depth {d}"),
            EngineError::AuditOwed { tables, segments } => write!(
                f,
                "audit owed for {tables:?}: the log lost quarantined segments {segments:?}"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            EngineError::Parse(e) => Some(e),
            EngineError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Storage(StorageError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = EngineError::DuplicateKey {
            table: "parts".into(),
            key: "7".into(),
        };
        assert!(e.to_string().contains("parts") && e.to_string().contains('7'));
        let e = EngineError::LockTimeout {
            table: "orders".into(),
        };
        assert!(e.to_string().contains("orders"));
        let e = EngineError::Deadlock {
            table: "orders".into(),
        };
        assert!(e.to_string().contains("deadlock") && e.to_string().contains("orders"));
    }

    #[test]
    fn conversions_preserve_sources() {
        use std::error::Error;
        let e: EngineError = StorageError::PageFull.into();
        assert!(e.source().is_some());
        let e: EngineError = delta_sql::parser::parse_statement("NOT SQL ###")
            .unwrap_err()
            .into();
        assert!(e.source().is_some());
    }
}
