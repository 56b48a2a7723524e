//! Op-Delta capture (§4, Figure 3, Table 4).
//!
//! [`OpDeltaCapture`] wraps an engine [`Session`] and intercepts every write
//! statement *"right before it is submitted to the DBMS"* (§4.2) — the
//! placement a COTS vendor or a wrapper/middleware would use. For each write
//! it records:
//!
//! * the operation itself, with `NOW()` frozen to the source clock so replay
//!   is deterministic;
//! * the capture-level transaction boundary (autocommit statements get their
//!   own transaction; `BEGIN`…`COMMIT` runs are grouped);
//! * a **partial before-image** — only when the
//!   [`SelfMaintAnalyzer`] says the
//!   warehouse cannot replay the operation alone (§4.1's hybrid).
//!
//! Two sinks, matching Table 4's comparison:
//!
//! * [`OpLogSink::Table`] — the log record is INSERTed into a database table
//!   **in the same transaction** as the user's operation (transactional
//!   capture; one extra SQL insert per statement);
//! * [`OpLogSink::File`] — the log record is appended to a flat file
//!   (cheaper, but not transactional: a rollback leaves the record behind,
//!   so the wrapper appends an explicit rollback marker the collector honors).
//!
//! The capture prints each operation to SQL text once, and that text is what
//! travels: the collectors regroup log records into [`OpDelta`]s without
//! parsing it (the warehouse applier that executes an operation is the one
//! that parses it), so a log row that is not SQL is shipped and fails its
//! apply there — into the dead-letter queue — instead of failing every
//! collect from then on.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::ops::ControlFlow;
use std::path::PathBuf;

use delta_engine::db::Database;
use delta_engine::lock::LockMode;
use delta_engine::{EngineError, EngineResult, QueryResult, Session};
use delta_sql::ast::{BinOp, Expr, SelectItem, Statement};
use delta_sql::parser::parse_statement;
use delta_storage::{Column, DataType, Schema, StorageError, StorageResult, Value};

use crate::model::{
    escape_line, unescape_line, DeltaOp, OpDelta, OpLogRecord, ValueDelta, ValueDeltaRecord,
};
use crate::selfmaint::{MaintRequirement, SelfMaintAnalyzer};

/// Where captured Op-Delta records go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpLogSink {
    /// A database table, written transactionally with the operation.
    Table(String),
    /// A flat file, appended (and flushed) per record, non-transactionally.
    File(PathBuf),
}

/// Schema of an op-log table: capture sequence, chunk number, capture
/// transaction id, and the payload chunk.
///
/// A log record's payload is `"<escaped stmt>\t<escaped before-image or ->"`.
/// Payloads longer than [`CHUNK_BYTES`] are split across consecutive chunk
/// rows (classic LOB chunking) so a 10,000-row INSERT statement — whose text
/// exceeds a heap page — still logs transactionally.
pub fn op_log_schema() -> StorageResult<Schema> {
    Schema::new(vec![
        Column::new("seq", DataType::Int).not_null(),
        Column::new("chunk", DataType::Int).not_null(),
        Column::new("txn", DataType::Int).not_null(),
        Column::new("payload", DataType::Varchar).not_null(),
    ])
}

/// Maximum payload bytes per op-log chunk row (comfortably within a page).
pub const CHUNK_BYTES: usize = 4000;

/// Split `payload` at UTF-8 boundaries into chunks of at most [`CHUNK_BYTES`].
fn chunk_payload(payload: &str) -> Vec<&str> {
    let mut out = Vec::with_capacity(payload.len() / CHUNK_BYTES + 1);
    let mut rest = payload;
    while rest.len() > CHUNK_BYTES {
        let mut cut = CHUNK_BYTES;
        while !rest.is_char_boundary(cut) {
            cut -= 1;
        }
        let (head, tail) = rest.split_at(cut);
        out.push(head);
        rest = tail;
    }
    out.push(rest);
    out
}

/// An opened [`OpLogSink`]: the table's name, or the file's writer.
enum OpenSink {
    Table(String),
    File(BufWriter<File>),
}

/// The Op-Delta capture wrapper around a session.
pub struct OpDeltaCapture {
    session: Session,
    sink: OpenSink,
    analyzer: Option<SelfMaintAnalyzer>,
    next_seq: u64,
    next_txn: u64,
    /// Capture transaction id for the currently open BEGIN…COMMIT run.
    current_txn: Option<u64>,
    /// Statements captured (not merely executed) so far.
    captured: u64,
}

impl OpDeltaCapture {
    /// Wrap `session`, logging to `sink`. For a table sink the op-log table
    /// is created if missing; for a file sink the file is opened for append.
    pub fn new(session: Session, sink: OpLogSink) -> EngineResult<OpDeltaCapture> {
        let sink = match sink {
            OpLogSink::Table(name) => {
                let db = session.database();
                if db.table(&name).is_err() {
                    db.create_table(&name, op_log_schema()?, Default::default())?;
                }
                OpenSink::Table(name)
            }
            OpLogSink::File(path) => OpenSink::File(BufWriter::new(
                OpenOptions::new().create(true).append(true).open(path)?,
            )),
        };
        Ok(OpDeltaCapture {
            session,
            sink,
            analyzer: None,
            next_seq: 1,
            next_txn: 1,
            current_txn: None,
            captured: 0,
        })
    }

    /// Attach a self-maintainability analyzer: statements it rules
    /// `NotRelevant` are executed but not captured; statements needing the
    /// hybrid get before-images attached.
    pub fn with_analyzer(mut self, analyzer: SelfMaintAnalyzer) -> OpDeltaCapture {
        self.analyzer = Some(analyzer);
        self
    }

    /// The wrapped session's database.
    pub fn database(&self) -> &std::sync::Arc<Database> {
        self.session.database()
    }

    /// Statements captured so far.
    pub fn captured_count(&self) -> u64 {
        self.captured
    }

    /// Execute one SQL statement through the capture layer.
    pub fn execute(&mut self, sql: &str) -> EngineResult<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute_stmt(&stmt)
    }

    /// Execute a pre-parsed statement through the capture layer.
    pub fn execute_stmt(&mut self, stmt: &Statement) -> EngineResult<QueryResult> {
        match stmt {
            Statement::Begin => {
                let r = self.session.execute_stmt(stmt)?;
                self.current_txn = Some(self.alloc_txn());
                Ok(r)
            }
            Statement::Commit => {
                let r = self.session.execute_stmt(stmt)?;
                self.current_txn = None;
                Ok(r)
            }
            Statement::Rollback => {
                let r = self.session.execute_stmt(stmt)?;
                if let Some(txn) = self.current_txn.take() {
                    self.append_rollback_marker(txn)?;
                }
                Ok(r)
            }
            s if s.is_write() => self.capture_and_execute(s),
            // Reads and DDL pass straight through (DDL is shipped to the
            // warehouse out of band, as in any real deployment).
            other => self.session.execute_stmt(other),
        }
    }

    fn alloc_txn(&mut self) -> u64 {
        let t = self.next_txn;
        self.next_txn += 1;
        t
    }

    fn capture_and_execute(&mut self, stmt: &Statement) -> EngineResult<QueryResult> {
        // Freeze NOW() so the shipped operation replays deterministically.
        let frozen = stmt.freeze_now(self.database().now_micros());

        let requirement = match &self.analyzer {
            Some(a) => a.analyze(&frozen),
            None => MaintRequirement::OpOnly,
        };
        if requirement == MaintRequirement::NotRelevant {
            // Nothing mirrored is affected: execute without capturing.
            return self.session.execute_stmt(&frozen);
        }

        let autocommit = !self.session.in_txn();
        if autocommit {
            self.session.execute_stmt(&Statement::Begin)?;
        }
        let capture_txn = match self.current_txn {
            Some(txn) if !autocommit => txn,
            // An autocommit statement gets a transaction of its own; a
            // session that arrived with one already open (begun before the
            // wrapper existed) has it adopted.
            _ => {
                let txn = self.alloc_txn();
                self.current_txn = Some(txn);
                txn
            }
        };

        let result = (|| {
            // 1. Read the partial before-image if the hybrid is required —
            //    necessarily before the operation executes.
            let before_image = match &requirement {
                MaintRequirement::NeedsBeforeImage { .. } => {
                    Some(self.read_before_image(&frozen, capture_txn)?)
                }
                _ => None,
            };
            // 2. Log the operation.
            let seq = self.next_seq;
            self.next_seq += 1;
            self.write_log_record(seq, capture_txn, &frozen, before_image.as_ref())?;
            self.captured += 1;
            // 3. Submit the operation itself.
            self.session.execute_stmt(&frozen)
        })();

        if autocommit {
            match &result {
                Ok(_) => {
                    self.session.execute_stmt(&Statement::Commit)?;
                    self.current_txn = None;
                }
                Err(_) => {
                    let _ = self.session.execute_stmt(&Statement::Rollback);
                    if let Some(txn) = self.current_txn.take() {
                        let _ = self.append_rollback_marker(txn);
                    }
                }
            }
        }
        result
    }

    /// SELECT the rows the statement is about to affect (before images).
    fn read_before_image(&mut self, stmt: &Statement, txn: u64) -> EngineResult<ValueDelta> {
        let (table, predicate, op) = match stmt {
            Statement::Delete { table, predicate } => (table, predicate, DeltaOp::Delete),
            Statement::Update {
                table, predicate, ..
            } => (table, predicate, DeltaOp::UpdateBefore),
            _ => {
                return Err(EngineError::Invalid(
                    "before images only apply to UPDATE/DELETE".into(),
                ))
            }
        };
        let select = Statement::Select {
            projection: vec![SelectItem::Wildcard],
            table: table.clone(),
            predicate: predicate.clone(),
            group_by: vec![],
            order_by: vec![],
            limit: None,
        };
        let rows = self.session.execute_stmt(&select)?.rows;
        let schema = self.database().table(table)?.schema.clone();
        let mut vd = ValueDelta::new(table.clone(), schema);
        vd.records.extend(
            rows.into_iter()
                .map(|row| ValueDeltaRecord { op, txn, row }),
        );
        Ok(vd)
    }

    /// Print the operation — the one time it becomes text — and append it
    /// to the sink with its before image beside it.
    fn write_log_record(
        &mut self,
        seq: u64,
        txn: u64,
        stmt: &Statement,
        before_image: Option<&ValueDelta>,
    ) -> EngineResult<()> {
        let stmt_field = escape_line(&stmt.to_string());
        let bi_field = match before_image {
            Some(bi) => escape_line(&bi.to_text()),
            None => "-".to_string(),
        };
        match &mut self.sink {
            OpenSink::Table(name) => {
                let payload = format!("{stmt_field}\t{bi_field}");
                for (chunk, part) in chunk_payload(&payload).into_iter().enumerate() {
                    let insert = Statement::Insert {
                        table: name.clone(),
                        columns: None,
                        rows: vec![vec![
                            Expr::Literal(Value::Int(seq as i64)),
                            Expr::Literal(Value::Int(chunk as i64)),
                            Expr::Literal(Value::Int(txn as i64)),
                            Expr::Literal(Value::Str(part.to_string())),
                        ]],
                    };
                    self.session.execute_stmt(&insert)?;
                }
            }
            OpenSink::File(out) => {
                writeln!(out, "S\t{seq}\t{txn}\t{stmt_field}\t{bi_field}")?;
                out.flush()?;
            }
        }
        Ok(())
    }

    fn append_rollback_marker(&mut self, txn: u64) -> EngineResult<()> {
        // A table sink needs no marker: the log inserts rolled back with
        // the user transaction.
        if let OpenSink::File(out) = &mut self.sink {
            writeln!(out, "R\t0\t{txn}\t-\t-")?;
            out.flush()?;
        }
        Ok(())
    }
}

/// Decode one log record from its two escaped payload fields — the one
/// decoder both sinks' collectors share. The statement stays text.
fn decode_record(
    seq: u64,
    txn: u64,
    stmt_field: &str,
    bi_field: &str,
) -> StorageResult<OpLogRecord> {
    Ok(OpLogRecord {
        seq,
        txn,
        sql: unescape_line(stmt_field)?,
        before_image: match bi_field {
            "-" => None,
            bi => Some(ValueDelta::from_text(&unescape_line(bi)?)?),
        },
    })
}

/// Collect captured Op-Deltas from a table sink, grouped by capture
/// transaction, ordered by first sequence number.
///
/// The log is read under a Shared table lock: a capture transaction that
/// has logged an operation but not yet committed is waited out (or the
/// collect fails with the typed lock timeout and the caller's next round
/// retries), so only committed operations are ever returned.
pub fn collect_from_table(db: &Database, log_table: &str) -> EngineResult<Vec<OpDelta>> {
    // Reassemble chunked payloads: (seq -> (txn, [(chunk, part)])).
    let mut by_seq: std::collections::BTreeMap<u64, (u64, Vec<(i64, String)>)> = Default::default();
    db.in_txn(|txn| {
        db.lock_table(txn, log_table, LockMode::Shared)?;
        db.for_each_row(log_table, |_, row| {
            let seq = row.values()[0].as_int()? as u64;
            let chunk = row.values()[1].as_int()?;
            let txn = row.values()[2].as_int()? as u64;
            let part = row.values()[3].as_str()?.to_string();
            by_seq
                .entry(seq)
                .or_insert((txn, Vec::new()))
                .1
                .push((chunk, part));
            Ok(ControlFlow::Continue(()))
        })
    })?;
    let mut records = Vec::new();
    for (seq, (txn, mut parts)) in by_seq {
        parts.sort_by_key(|(c, _)| *c);
        // Chunks must be dense 0..n.
        for (i, (c, _)) in parts.iter().enumerate() {
            if *c != i as i64 {
                return Err(EngineError::Invalid(format!(
                    "op-log record {seq} is missing chunk {i}"
                )));
            }
        }
        let payload: String = parts.into_iter().map(|(_, p)| p).collect();
        let (stmt_field, bi_field) = payload.split_once('\t').ok_or_else(|| {
            EngineError::Invalid(format!("op-log record {seq} has a malformed payload"))
        })?;
        records.push(decode_record(seq, txn, stmt_field, bi_field)?);
    }
    Ok(group_records(records, &Default::default()))
}

/// Delete the log records a hand-off shipped — those with `seq <=
/// through_seq`, the highest sequence number it collected — leaving any
/// operation captured since for the next round.
pub fn clear_shipped(db: &Database, log_table: &str, through_seq: u64) -> EngineResult<u64> {
    delete_records(
        db,
        log_table,
        Some(Expr::Binary {
            left: Box::new(Expr::Column("seq".into())),
            op: BinOp::Le,
            right: Box::new(Expr::Literal(Value::Int(through_seq as i64))),
        }),
    )
}

/// Delete *every* record from a table sink.
///
/// Quiesce contract: this is only safe after a [`collect_from_table`] when
/// no capture can have committed in between (the capturing session is the
/// caller's own, or is stopped) — an operation logged after the collect is
/// deleted here unshipped. A hand-off that runs beside live capture clears
/// with [`clear_shipped`], as delta-warehouse's `Pipeline::collect_op_log`
/// does.
pub fn clear_table(db: &Database, log_table: &str) -> EngineResult<u64> {
    delete_records(db, log_table, None)
}

fn delete_records(db: &Database, log_table: &str, predicate: Option<Expr>) -> EngineResult<u64> {
    let stmt = Statement::Delete {
        table: log_table.into(),
        predicate,
    };
    db.in_txn(|txn| Ok(delta_engine::exec::execute(db, txn, &stmt)?.affected))
}

/// Collect captured Op-Deltas from a file sink. Transactions with a rollback
/// marker are dropped (the file log is not transactional — §4.2).
pub fn collect_from_file(path: impl Into<PathBuf>) -> Result<Vec<OpDelta>, StorageError> {
    let text = std::fs::read_to_string(path.into())?;
    let mut records = Vec::new();
    let mut rolled_back: std::collections::HashSet<u64> = Default::default();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(5, '\t');
        let (kind, seq, txn, stmt, bi) = match (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) {
            (Some(a), Some(b), Some(c), Some(d), Some(e)) => (a, b, c, d, e),
            _ => return Err(StorageError::Corrupt(format!("bad op-log line '{line}'"))),
        };
        let txn: u64 = txn
            .parse()
            .map_err(|_| StorageError::Corrupt("bad op-log txn".into()))?;
        match kind {
            "R" => {
                rolled_back.insert(txn);
            }
            "S" => {
                let seq: u64 = seq
                    .parse()
                    .map_err(|_| StorageError::Corrupt("bad op-log seq".into()))?;
                records.push(decode_record(seq, txn, stmt, bi)?);
            }
            other => {
                return Err(StorageError::Corrupt(format!(
                    "unknown op-log record kind '{other}'"
                )))
            }
        }
    }
    Ok(group_records(records, &rolled_back))
}

fn group_records(
    mut records: Vec<OpLogRecord>,
    rolled_back: &std::collections::HashSet<u64>,
) -> Vec<OpDelta> {
    records.sort_by_key(|r| r.seq);
    let mut out: Vec<OpDelta> = Vec::new();
    for rec in records {
        if rolled_back.contains(&rec.txn) {
            continue;
        }
        match out.last_mut() {
            Some(od) if od.txn == rec.txn => od.ops.push(rec),
            _ => out.push(OpDelta {
                txn: rec.txn,
                ops: vec![rec],
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selfmaint::WarehouseProfile;
    use delta_engine::db::open_temp;

    fn setup(sink: OpLogSink) -> OpDeltaCapture {
        let db = open_temp("opd").unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR, qty INT)")
            .unwrap();
        for i in 0..20 {
            s.execute(&format!(
                "INSERT INTO parts VALUES ({i}, 'p{i}', {})",
                i % 5
            ))
            .unwrap();
        }
        OpDeltaCapture::new(db.session(), sink).unwrap()
    }

    #[test]
    fn table_sink_captures_statements_with_txn_grouping() {
        let mut cap = setup(OpLogSink::Table("op_log".into()));
        cap.execute("INSERT INTO parts VALUES (100, 'new', 0)")
            .unwrap();
        cap.execute("BEGIN").unwrap();
        cap.execute("UPDATE parts SET qty = 9 WHERE qty = 1")
            .unwrap();
        cap.execute("DELETE FROM parts WHERE qty = 9").unwrap();
        cap.execute("COMMIT").unwrap();

        let db = cap.database().clone();
        let ods = collect_from_table(&db, "op_log").unwrap();
        assert_eq!(ods.len(), 2, "one autocommit txn + one explicit txn");
        assert_eq!(ods[0].ops.len(), 1);
        assert_eq!(ods[1].ops.len(), 2, "BEGIN..COMMIT grouped");
        assert!(ods[1].ops[0].sql.starts_with("UPDATE parts SET qty = 9"));
        assert!(ods[1].ops[1].sql.starts_with("DELETE FROM parts"));
        // The operations really executed too.
        assert_eq!(db.row_count("parts").unwrap(), 21 - 4);
    }

    #[test]
    fn op_size_is_independent_of_rows_affected() {
        let mut cap = setup(OpLogSink::Table("op_log".into()));
        // This delete touches 4 rows; its op-delta is one ~40-byte statement.
        cap.execute("DELETE FROM parts WHERE qty = 2").unwrap();
        let db = cap.database().clone();
        let ods = collect_from_table(&db, "op_log").unwrap();
        assert_eq!(ods.len(), 1);
        assert_eq!(ods[0].ops.len(), 1);
        assert!(ods[0].wire_size() < 100);
    }

    #[test]
    fn table_sink_is_transactional_with_rollback() {
        let mut cap = setup(OpLogSink::Table("op_log".into()));
        cap.execute("BEGIN").unwrap();
        cap.execute("INSERT INTO parts VALUES (200, 'doomed', 0)")
            .unwrap();
        cap.execute("ROLLBACK").unwrap();
        let db = cap.database().clone();
        assert_eq!(
            db.row_count("op_log").unwrap(),
            0,
            "log rows rolled back with the txn"
        );
        assert!(collect_from_table(&db, "op_log").unwrap().is_empty());
    }

    #[test]
    fn file_sink_rollback_marker_drops_txn() {
        let db = open_temp("opdfile").unwrap();
        db.session()
            .execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR, qty INT)")
            .unwrap();
        let path = db.options().dir.join("op.log");
        let mut cap = OpDeltaCapture::new(db.session(), OpLogSink::File(path.clone())).unwrap();
        cap.execute("INSERT INTO parts VALUES (1, 'kept', 0)")
            .unwrap();
        cap.execute("BEGIN").unwrap();
        cap.execute("INSERT INTO parts VALUES (2, 'doomed', 0)")
            .unwrap();
        cap.execute("ROLLBACK").unwrap();

        let ods = collect_from_file(&path).unwrap();
        assert_eq!(ods.len(), 1, "rolled-back txn dropped by the marker");
        assert_eq!(ods[0].ops[0].sql, "INSERT INTO parts VALUES (1, 'kept', 0)");
    }

    #[test]
    fn failed_autocommit_statement_is_not_captured_as_committed() {
        let mut cap = setup(OpLogSink::Table("op_log".into()));
        // Duplicate key → the statement fails → the log insert rolls back.
        let err = cap.execute("INSERT INTO parts VALUES (0, 'dup', 0)");
        assert!(err.is_err());
        let db = cap.database().clone();
        assert!(collect_from_table(&db, "op_log").unwrap().is_empty());
    }

    #[test]
    fn now_is_frozen_at_capture() {
        let mut cap = setup(OpLogSink::Table("op_log".into()));
        cap.execute("UPDATE parts SET qty = 1 WHERE id < NOW()")
            .unwrap();
        let db = cap.database().clone();
        let ods = collect_from_table(&db, "op_log").unwrap();
        match parse_statement(&ods[0].ops[0].sql).unwrap() {
            Statement::Update { predicate, .. } => {
                assert!(
                    !predicate.as_ref().unwrap().contains_now(),
                    "NOW() must be frozen"
                );
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn analyzer_attaches_before_images_when_needed() {
        let db = open_temp("opd-hybrid").unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE orders (id INT PRIMARY KEY, status VARCHAR, customer VARCHAR)")
            .unwrap();
        s.execute("INSERT INTO orders VALUES (1, 'open', 'acme'), (2, 'open', 'bob'), (3, 'open', 'acme')")
            .unwrap();
        drop(s);
        let analyzer = SelfMaintAnalyzer::new(
            WarehouseProfile::new().mirror_columns("orders", &["id", "status"]),
        );
        let mut cap = OpDeltaCapture::new(db.session(), OpLogSink::Table("op_log".into()))
            .unwrap()
            .with_analyzer(analyzer);
        // Predicate on an unmirrored column: the hybrid must carry before images.
        cap.execute("DELETE FROM orders WHERE customer = 'acme'")
            .unwrap();
        // Predicate on a mirrored column: op only.
        cap.execute("UPDATE orders SET status = 'closed' WHERE id = 2")
            .unwrap();

        let ods = collect_from_table(&db, "op_log").unwrap();
        assert_eq!(ods.len(), 2);
        let bi = ods[0].ops[0]
            .before_image
            .as_ref()
            .expect("hybrid has before image");
        assert_eq!(bi.len(), 2, "both affected rows' before images");
        assert!(bi.records.iter().all(|r| r.op == DeltaOp::Delete));
        assert!(ods[1].ops[0].before_image.is_none());
    }

    #[test]
    fn analyzer_skips_irrelevant_statements() {
        let db = open_temp("opd-skip").unwrap();
        db.session()
            .execute("CREATE TABLE audit (id INT PRIMARY KEY)")
            .unwrap();
        let analyzer = SelfMaintAnalyzer::new(WarehouseProfile::new().mirror_full("parts"));
        let mut cap = OpDeltaCapture::new(db.session(), OpLogSink::Table("op_log".into()))
            .unwrap()
            .with_analyzer(analyzer);
        cap.execute("INSERT INTO audit VALUES (1)").unwrap();
        assert_eq!(cap.captured_count(), 0);
        let db = cap.database().clone();
        assert_eq!(
            db.row_count("audit").unwrap(),
            1,
            "executed but not captured"
        );
    }

    #[test]
    fn reads_pass_through_uncaptured() {
        let mut cap = setup(OpLogSink::Table("op_log".into()));
        let r = cap.execute("SELECT * FROM parts WHERE id = 1").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(cap.captured_count(), 0);
    }

    #[test]
    fn collected_statements_replay_to_identical_state() {
        // The end-to-end property §4 relies on: replaying the op log on a
        // copy of the original database yields the same final state.
        let mut cap = setup(OpLogSink::Table("op_log".into()));
        cap.execute("INSERT INTO parts VALUES (50, 'fresh', 1)")
            .unwrap();
        cap.execute("BEGIN").unwrap();
        cap.execute("UPDATE parts SET qty = qty + 10 WHERE qty >= 3")
            .unwrap();
        cap.execute("DELETE FROM parts WHERE qty = 2").unwrap();
        cap.execute("COMMIT").unwrap();
        let db = cap.database().clone();

        // Replica starts from the same seed (ids 0..20, same values).
        let replica = open_temp("opd-replica").unwrap();
        let mut rs = replica.session();
        rs.execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR, qty INT)")
            .unwrap();
        for i in 0..20 {
            rs.execute(&format!(
                "INSERT INTO parts VALUES ({i}, 'p{i}', {})",
                i % 5
            ))
            .unwrap();
        }
        for od in collect_from_table(&db, "op_log").unwrap() {
            rs.execute("BEGIN").unwrap();
            for op in &od.ops {
                rs.execute(&op.sql).unwrap();
            }
            rs.execute("COMMIT").unwrap();
        }
        let key = |r: &delta_storage::Row| r.values()[0].as_int().unwrap();
        let mut a: Vec<_> = db
            .scan_table("parts")
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let mut b: Vec<_> = replica
            .scan_table("parts")
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn huge_statements_chunk_and_reassemble() {
        // A multi-row INSERT whose text far exceeds a heap page must still
        // log transactionally (LOB-style chunking) and collect intact.
        let db = open_temp("opd-chunk").unwrap();
        db.session()
            .execute("CREATE TABLE big (id INT PRIMARY KEY, filler VARCHAR)")
            .unwrap();
        let mut cap = OpDeltaCapture::new(db.session(), OpLogSink::Table("op_log".into())).unwrap();
        let values: Vec<String> = (0..2000)
            .map(|i| format!("({i}, 'filler-text-for-row-{i}-padding-padding')"))
            .collect();
        let sql = format!("INSERT INTO big VALUES {}", values.join(", "));
        assert!(
            sql.len() > 5 * CHUNK_BYTES,
            "statement must span many chunks"
        );
        cap.execute(&sql).unwrap();
        let db = cap.database().clone();
        assert!(
            db.row_count("op_log").unwrap() > 5,
            "payload should occupy multiple chunk rows"
        );
        let ods = collect_from_table(&db, "op_log").unwrap();
        assert_eq!(ods.len(), 1);
        match parse_statement(&ods[0].ops[0].sql).unwrap() {
            Statement::Insert { rows, .. } => assert_eq!(rows.len(), 2000),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn adopts_a_transaction_opened_before_wrapping() {
        let db = open_temp("opd-adopt").unwrap();
        let mut pre = db.session();
        pre.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        pre.execute("BEGIN").unwrap();
        // Hand the already-in-txn session to the wrapper.
        let mut cap = OpDeltaCapture::new(pre, OpLogSink::Table("op_log".into())).unwrap();
        cap.execute("INSERT INTO t VALUES (1)").unwrap();
        cap.execute("INSERT INTO t VALUES (2)").unwrap();
        cap.execute("COMMIT").unwrap();
        let db2 = cap.database().clone();
        let ods = collect_from_table(&db2, "op_log").unwrap();
        assert_eq!(ods.len(), 1, "adopted txn groups both writes");
        assert_eq!(ods[0].ops.len(), 2);
    }

    #[test]
    fn clear_shipped_leaves_later_captures() {
        let mut cap = setup(OpLogSink::Table("op_log".into()));
        cap.execute("INSERT INTO parts VALUES (100, 'x', 0)")
            .unwrap();
        cap.execute("INSERT INTO parts VALUES (101, 'y', 0)")
            .unwrap();
        let db = cap.database().clone();
        assert_eq!(clear_shipped(&db, "op_log", 1).unwrap(), 1);
        let left = collect_from_table(&db, "op_log").unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].ops[0].seq, 2);
    }

    #[test]
    fn clear_table_empties_the_log() {
        let mut cap = setup(OpLogSink::Table("op_log".into()));
        cap.execute("INSERT INTO parts VALUES (100, 'x', 0)")
            .unwrap();
        let db = cap.database().clone();
        assert_eq!(clear_table(&db, "op_log").unwrap(), 1);
        assert!(collect_from_table(&db, "op_log").unwrap().is_empty());
    }
}
