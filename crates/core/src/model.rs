//! The delta data model.
//!
//! Two delta representations, mirroring the paper's distinction:
//!
//! * **Value delta** — the changed *values*: before/after images of affected
//!   rows, one record per image. Its size is proportional to the number of
//!   affected rows.
//! * **Op-Delta** — the *operations* that caused the changes: SQL statements
//!   with their source transaction boundary, optionally augmented with a
//!   partial before-image when the warehouse is not self-maintainable from
//!   the operation alone. Its size is (for deletes/updates) independent of
//!   the number of affected rows — §4.1's central observation.
//!
//! Both serialize to a line-oriented text envelope so every transport treats
//! them uniformly as byte streams, and so the benchmark harness can report
//! the *message volume* each method ships.

use std::fmt;

use delta_storage::codec::ascii;
use delta_storage::colbatch::{self, DeltaCodec};
use delta_storage::{Row, Schema, StorageError, StorageResult};

/// The kind of change a value-delta record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// A new row (after image).
    Insert,
    /// A removed row (before image).
    Delete,
    /// The before image of an updated row.
    UpdateBefore,
    /// The after image of an updated row.
    UpdateAfter,
}

impl DeltaOp {
    /// Short code used in delta tables and the text envelope.
    pub fn code(self) -> &'static str {
        match self {
            DeltaOp::Insert => "I",
            DeltaOp::Delete => "D",
            DeltaOp::UpdateBefore => "UB",
            DeltaOp::UpdateAfter => "UA",
        }
    }

    /// Parse a short code.
    pub fn from_code(s: &str) -> Option<DeltaOp> {
        match s {
            "I" => Some(DeltaOp::Insert),
            "D" => Some(DeltaOp::Delete),
            "UB" => Some(DeltaOp::UpdateBefore),
            "UA" => Some(DeltaOp::UpdateAfter),
            _ => None,
        }
    }
}

impl fmt::Display for DeltaOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Escape SQL text for embedding in one line of the envelope.
pub(crate) fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn unescape_line(s: &str) -> StorageResult<String> {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            other => {
                return Err(StorageError::Corrupt(format!(
                    "bad escape in envelope line: \\{}",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(out)
}

/// One value-delta record: an image plus its op kind and (when the capture
/// method knows it) the source transaction id.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueDeltaRecord {
    pub op: DeltaOp,
    /// Source transaction id, or 0 when the method cannot capture it (e.g.
    /// timestamp and snapshot extraction lose transaction context — §4.1).
    pub txn: u64,
    pub row: Row,
}

/// A batch of value-delta records for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueDelta {
    pub table: String,
    pub schema: Schema,
    pub records: Vec<ValueDeltaRecord>,
}

impl ValueDelta {
    /// Create an empty value-delta for `table` with the given schema.
    pub fn new(table: impl Into<String>, schema: Schema) -> ValueDelta {
        ValueDelta {
            table: table.into(),
            schema,
            records: Vec::new(),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the delta carries no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Approximate shipped size in bytes (used for volume accounting).
    pub fn wire_size(&self) -> usize {
        self.to_text().len()
    }

    /// Whether transaction context survived extraction (true only when every
    /// record carries a non-zero txn id).
    pub fn has_txn_context(&self) -> bool {
        !self.records.is_empty() && self.records.iter().all(|r| r.txn != 0)
    }

    /// Serialize to the text envelope.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "VALUE-DELTA\t{}\t{}\t{}\n",
            self.table,
            self.schema.to_catalog_string(),
            self.records.len()
        ));
        for r in &self.records {
            out.push_str(&format!(
                "{}\t{}\t{}\n",
                r.op.code(),
                r.txn,
                ascii::format_row(&r.row)
            ));
        }
        out
    }

    /// Parse the text envelope.
    pub fn from_text(text: &str) -> StorageResult<ValueDelta> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| StorageError::Corrupt("empty value-delta".into()))?;
        let mut parts = header.split('\t');
        match parts.next() {
            Some("VALUE-DELTA") => {}
            _ => return Err(StorageError::Corrupt("not a value-delta envelope".into())),
        }
        let table = parts
            .next()
            .ok_or_else(|| StorageError::Corrupt("value-delta missing table".into()))?
            .to_string();
        let schema = Schema::from_catalog_string(
            parts
                .next()
                .ok_or_else(|| StorageError::Corrupt("value-delta missing schema".into()))?,
        )?;
        let count: usize = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| StorageError::Corrupt("value-delta missing count".into()))?;
        let mut records = Vec::with_capacity(count);
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut p = line.splitn(3, '\t');
            let (op, txn, row) = match (p.next(), p.next(), p.next()) {
                (Some(a), Some(b), Some(c)) => (a, b, c),
                _ => return Err(StorageError::Corrupt(format!("bad delta line '{line}'"))),
            };
            records.push(ValueDeltaRecord {
                op: DeltaOp::from_code(op)
                    .ok_or_else(|| StorageError::Corrupt(format!("bad op code '{op}'")))?,
                txn: txn
                    .parse()
                    .map_err(|_| StorageError::Corrupt(format!("bad txn id '{txn}'")))?,
                row: ascii::parse_row(row, &schema)?,
            });
        }
        if records.len() != count {
            return Err(StorageError::Corrupt(format!(
                "value-delta truncated: header said {count}, found {}",
                records.len()
            )));
        }
        Ok(ValueDelta {
            table,
            schema,
            records,
        })
    }
}

/// One captured operation in an Op-Delta log.
#[derive(Debug, Clone, PartialEq)]
pub struct OpLogRecord {
    /// Capture sequence number (total order at the source).
    pub seq: u64,
    /// Source transaction id — Op-Delta's preserved transaction boundary.
    pub txn: u64,
    /// The operation as SQL text (the ~70-byte operation of §4.1), exactly
    /// as the capture printed it with `NOW()` frozen. This is the one form
    /// an operation has between the source session and the warehouse: the
    /// op log, the envelopes and the spool carry it untouched, and the
    /// applier that executes it is the one that parses it.
    pub sql: String,
    /// Partial before-image (the hybrid of §4.1), present only when the
    /// self-maintainability analysis required it.
    pub before_image: Option<ValueDelta>,
}

/// An Op-Delta: one source transaction's ordered operations.
#[derive(Debug, Clone, PartialEq)]
pub struct OpDelta {
    pub txn: u64,
    pub ops: Vec<OpLogRecord>,
}

impl OpDelta {
    /// Approximate shipped size in bytes.
    pub fn wire_size(&self) -> usize {
        self.to_text().len()
    }

    /// Serialize to the text envelope. Statements are the captured SQL,
    /// escaped onto one line; before-images are nested value-delta
    /// envelopes, indented with `>`.
    pub fn to_text(&self) -> String {
        let mut out = format!("OP-DELTA\t{}\t{}\n", self.txn, self.ops.len());
        for op in &self.ops {
            out.push_str(&format!("STMT\t{}\t{}\n", op.seq, escape_line(&op.sql)));
            if let Some(bi) = &op.before_image {
                for line in bi.to_text().lines() {
                    out.push_str("> ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Parse the text envelope. Framing only: the statements stay text.
    pub fn from_text(text: &str) -> StorageResult<OpDelta> {
        let mut lines = text.lines().peekable();
        let header = lines
            .next()
            .ok_or_else(|| StorageError::Corrupt("empty op-delta".into()))?;
        let mut parts = header.split('\t');
        match parts.next() {
            Some("OP-DELTA") => {}
            _ => return Err(StorageError::Corrupt("not an op-delta envelope".into())),
        }
        let txn: u64 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| StorageError::Corrupt("op-delta missing txn".into()))?;
        let count: usize = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| StorageError::Corrupt("op-delta missing count".into()))?;
        let mut ops = Vec::with_capacity(count);
        while let Some(line) = lines.next() {
            if line.is_empty() {
                continue;
            }
            let rest = line.strip_prefix("STMT\t").ok_or_else(|| {
                StorageError::Corrupt(format!("expected STMT line, got '{line}'"))
            })?;
            let (seq_s, sql) = rest
                .split_once('\t')
                .ok_or_else(|| StorageError::Corrupt("bad STMT line".into()))?;
            let seq: u64 = seq_s
                .parse()
                .map_err(|_| StorageError::Corrupt("bad STMT seq".into()))?;
            let sql = unescape_line(sql)?;
            // Gather an optional nested before-image block.
            let mut bi_text = String::new();
            while let Some(next) = lines.peek() {
                if let Some(stripped) = next.strip_prefix("> ") {
                    bi_text.push_str(stripped);
                    bi_text.push('\n');
                    lines.next();
                } else {
                    break;
                }
            }
            let before_image = if bi_text.is_empty() {
                None
            } else {
                Some(ValueDelta::from_text(&bi_text)?)
            };
            ops.push(OpLogRecord {
                seq,
                txn,
                sql,
                before_image,
            });
        }
        if ops.len() != count {
            return Err(StorageError::Corrupt(format!(
                "op-delta truncated: header said {count}, found {}",
                ops.len()
            )));
        }
        Ok(OpDelta { txn, ops })
    }
}

/// A transport-ready batch of deltas of either representation.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaBatch {
    Value(ValueDelta),
    Op(OpDelta),
}

impl DeltaBatch {
    /// Serialize for shipping in the legacy text envelope (equivalent to
    /// [`DeltaBatch::to_bytes_with`] at [`DeltaCodec::Raw`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            DeltaBatch::Value(v) => v.to_text().into_bytes(),
            DeltaBatch::Op(o) => o.to_text().into_bytes(),
        }
    }

    /// Serialize for shipping under `codec`. `block_rows` bounds the rows per
    /// CRC-framed block in the columnar format (ignored for `Raw`). Either
    /// output decodes through [`DeltaBatch::from_bytes`], which sniffs the
    /// leading magic.
    pub fn to_bytes_with(&self, codec: DeltaCodec, block_rows: usize) -> Vec<u8> {
        match codec {
            DeltaCodec::Raw => self.to_bytes(),
            DeltaCodec::Columnar => crate::colcodec::encode_batch(self, block_rows),
        }
    }

    /// Parse shipped bytes: columnar envelopes (lead byte `0xFF`, never valid
    /// UTF-8) are dispatched by magic; anything else is the legacy text
    /// envelope, so pre-codec queue spools decode unchanged. Decoding checks
    /// framing and CRCs; Op-Delta statements are not parsed here.
    pub fn from_bytes(bytes: &[u8]) -> StorageResult<DeltaBatch> {
        if colbatch::is_columnar_batch(bytes) {
            return crate::colcodec::decode_batch(bytes);
        }
        let text = std::str::from_utf8(bytes)
            .map_err(|_| StorageError::Corrupt("delta batch not UTF-8".into()))?;
        if text.starts_with("VALUE-DELTA") {
            Ok(DeltaBatch::Value(ValueDelta::from_text(text)?))
        } else if text.starts_with("OP-DELTA") {
            Ok(DeltaBatch::Op(OpDelta::from_text(text)?))
        } else {
            Err(StorageError::Corrupt("unknown delta envelope".into()))
        }
    }

    /// Shipped size in bytes (legacy text envelope).
    pub fn wire_size(&self) -> usize {
        self.to_bytes().len()
    }

    /// Shipped size in bytes under `codec`.
    pub fn wire_size_with(&self, codec: DeltaCodec, block_rows: usize) -> usize {
        self.to_bytes_with(codec, block_rows).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_storage::{Column, DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("name", DataType::Varchar),
        ])
        .unwrap()
    }

    fn row(i: i64, s: &str) -> Row {
        Row::new(vec![Value::Int(i), Value::Str(s.into())])
    }

    fn sample_value_delta() -> ValueDelta {
        let mut vd = ValueDelta::new("parts", schema());
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::Insert,
            txn: 3,
            row: row(1, "has|pipe and\nnewline"),
        });
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::UpdateBefore,
            txn: 4,
            row: row(2, "old"),
        });
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::UpdateAfter,
            txn: 4,
            row: row(2, "new"),
        });
        vd.records.push(ValueDeltaRecord {
            op: DeltaOp::Delete,
            txn: 5,
            row: row(3, "gone"),
        });
        vd
    }

    #[test]
    fn op_codes_round_trip() {
        for op in [
            DeltaOp::Insert,
            DeltaOp::Delete,
            DeltaOp::UpdateBefore,
            DeltaOp::UpdateAfter,
        ] {
            assert_eq!(DeltaOp::from_code(op.code()), Some(op));
        }
        assert_eq!(DeltaOp::from_code("X"), None);
    }

    #[test]
    fn value_delta_text_round_trip() {
        let vd = sample_value_delta();
        let text = vd.to_text();
        assert_eq!(ValueDelta::from_text(&text).unwrap(), vd);
    }

    #[test]
    fn value_delta_truncation_detected() {
        let vd = sample_value_delta();
        let mut text = vd.to_text();
        // Drop the last line.
        text = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(ValueDelta::from_text(&text).is_err());
    }

    #[test]
    fn txn_context_detection() {
        let mut vd = sample_value_delta();
        assert!(vd.has_txn_context());
        vd.records[0].txn = 0;
        assert!(!vd.has_txn_context());
        assert!(!ValueDelta::new("t", schema()).has_txn_context());
    }

    #[test]
    fn op_delta_text_round_trip() {
        let op1 = OpLogRecord {
            seq: 10,
            txn: 7,
            sql: "UPDATE parts SET name = 'revised' WHERE id > 100 AND name <> 'x'".into(),
            before_image: None,
        };
        let op2 = OpLogRecord {
            seq: 11,
            txn: 7,
            sql: "DELETE FROM parts WHERE id = 1".into(),
            before_image: Some(sample_value_delta()),
        };
        let od = OpDelta {
            txn: 7,
            ops: vec![op1, op2],
        };
        let text = od.to_text();
        assert_eq!(OpDelta::from_text(&text).unwrap(), od);
    }

    #[test]
    fn op_delta_is_compact_for_set_oriented_ops() {
        // The §4.1 motivating example: a predicate update touching thousands
        // of rows is ~70 bytes as an Op-Delta but thousands of records as a
        // value delta.
        let od = OpDelta {
            txn: 1,
            ops: vec![OpLogRecord {
                seq: 1,
                txn: 1,
                sql: "UPDATE PARTS SET status = 'revised' WHERE last_modified_date > 19991115"
                    .into(),
                before_image: None,
            }],
        };
        let mut vd = ValueDelta::new("PARTS", schema());
        for i in 0..1000 {
            vd.records.push(ValueDeltaRecord {
                op: DeltaOp::UpdateBefore,
                txn: 1,
                row: row(
                    i,
                    "old-status-value-padding-to-100-bytes-xxxxxxxxxxxxxxxxxxx",
                ),
            });
            vd.records.push(ValueDeltaRecord {
                op: DeltaOp::UpdateAfter,
                txn: 1,
                row: row(
                    i,
                    "revised-status-padding-to-100-bytes-xxxxxxxxxxxxxxxxxxxxxx",
                ),
            });
        }
        assert!(od.wire_size() < 150);
        assert!(vd.wire_size() > 100_000);
        assert!(
            vd.wire_size() / od.wire_size() > 500,
            "op-delta must be orders of magnitude smaller"
        );
    }

    #[test]
    fn delta_batch_dispatches_both_envelopes() {
        let vd = DeltaBatch::Value(sample_value_delta());
        let od = DeltaBatch::Op(OpDelta {
            txn: 2,
            ops: vec![OpLogRecord {
                seq: 1,
                txn: 2,
                sql: "DELETE FROM t WHERE a = 1".into(),
                before_image: None,
            }],
        });
        for batch in [vd, od] {
            let bytes = batch.to_bytes();
            assert_eq!(DeltaBatch::from_bytes(&bytes).unwrap(), batch);
            assert_eq!(batch.wire_size(), bytes.len());
        }
        assert!(DeltaBatch::from_bytes(b"garbage").is_err());
    }

    #[test]
    fn statement_with_embedded_newline_stays_single_line() {
        // A string literal containing a newline (the lexer accepts one
        // inside quotes, and the canonical printer emits it raw) must not
        // break the line-oriented envelope, and neither must a tab or a
        // backslash in the text.
        let od = OpDelta {
            txn: 1,
            ops: vec![OpLogRecord {
                seq: 1,
                txn: 1,
                sql: "INSERT INTO t (a) VALUES ('two\nlines\tand a \\ backslash')".into(),
                before_image: None,
            }],
        };
        let text = od.to_text();
        assert_eq!(text.lines().count(), 2, "header + one STMT line");
        assert_eq!(OpDelta::from_text(&text).unwrap(), od);
    }

    #[test]
    fn text_that_is_not_sql_crosses_both_envelopes() {
        // Decode validates framing, not SQL: the executor that runs an
        // operation is the one that parses it, so a poison row reaches the
        // warehouse (and its dead-letter queue) instead of wedging the
        // source-side hand-off.
        let od = DeltaBatch::Op(OpDelta {
            txn: 1,
            ops: vec![OpLogRecord {
                seq: 1,
                txn: 1,
                sql: "NOT SQL AT ALL".into(),
                before_image: None,
            }],
        });
        for codec in [DeltaCodec::Raw, DeltaCodec::Columnar] {
            let bytes = od.to_bytes_with(codec, 1024);
            assert_eq!(DeltaBatch::from_bytes(&bytes).unwrap(), od);
        }
    }
}
