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
//! Both ship as one [`DeltaBatch`] frame (the columnar CRC-framed envelope
//! of [`crate::colcodec`]). Each also prints as the line-oriented text of
//! §4.1 ([`ValueDelta::to_text`], [`OpDelta::to_text`]): that text is what
//! `wire_size` measures when experiments compare the two methods' message
//! volume, and a value delta's text is the op log's before-image field.

use std::fmt;

use delta_storage::codec::ascii;
use delta_storage::colbatch::DeltaCodec;
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
    /// Short code used in delta tables and the text representation.
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

    /// Size of the text representation in bytes — §4.1's message-volume
    /// measure, not the size of the frame that ships.
    pub fn wire_size(&self) -> usize {
        self.to_text().len()
    }

    /// Whether transaction context survived extraction (true only when every
    /// record carries a non-zero txn id).
    pub fn has_txn_context(&self) -> bool {
        !self.records.is_empty() && self.records.iter().all(|r| r.txn != 0)
    }

    /// Serialize to the text representation (also the op log's
    /// before-image field).
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

    /// Parse the text representation.
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
    /// Size of the text representation in bytes — §4.1's message-volume
    /// measure, not the size of the frame that ships.
    pub fn wire_size(&self) -> usize {
        self.to_text().len()
    }

    /// Print the text representation. Statements are the captured SQL,
    /// escaped onto one line; before-images are nested value-delta texts,
    /// indented with `>`.
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
}

/// A transport-ready batch of deltas of either representation.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaBatch {
    Value(ValueDelta),
    Op(OpDelta),
}

impl DeltaBatch {
    /// Encode as the columnar frame ([`crate::colcodec::encode_batch`]).
    /// The codec argument has one value and is ignored: this signature is
    /// the frozen dwbench harness's, and ROADMAP item 5's benchmark PR
    /// removes it with [`DeltaCodec`].
    pub fn to_bytes_with(&self, _codec: DeltaCodec, block_rows: usize) -> Vec<u8> {
        crate::colcodec::encode_batch(self, block_rows)
    }

    /// Decode a shipped frame. Framing, CRCs and UTF-8 are checked; anything
    /// that is not a columnar batch is typed corruption. Op-Delta statements
    /// are not parsed here.
    pub fn from_bytes(bytes: &[u8]) -> StorageResult<DeltaBatch> {
        crate::colcodec::decode_batch(bytes)
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
    fn op_delta_text_nests_the_before_image() {
        let mut bi = ValueDelta::new("parts", schema());
        bi.records.push(ValueDeltaRecord {
            op: DeltaOp::Delete,
            txn: 7,
            row: row(1, "gone"),
        });
        let od = OpDelta {
            txn: 7,
            ops: vec![
                OpLogRecord {
                    seq: 10,
                    txn: 7,
                    sql: "UPDATE parts SET name = 'x' WHERE id > 100".into(),
                    before_image: None,
                },
                OpLogRecord {
                    seq: 11,
                    txn: 7,
                    sql: "DELETE FROM parts WHERE id = 1".into(),
                    before_image: Some(bi),
                },
            ],
        };
        assert_eq!(
            od.to_text(),
            "OP-DELTA\t7\t2\n\
             STMT\t10\tUPDATE parts SET name = 'x' WHERE id > 100\n\
             STMT\t11\tDELETE FROM parts WHERE id = 1\n\
             > VALUE-DELTA\tparts\tid:INT:P,name:VARCHAR\t1\n\
             > D\t7\t1|gone\n"
        );
        assert_eq!(od.wire_size(), od.to_text().len());
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
    fn delta_batch_round_trips_both_kinds_and_rejects_text() {
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
            let bytes = crate::colcodec::encode_batch(&batch, 1024);
            assert_eq!(DeltaBatch::from_bytes(&bytes).unwrap(), batch);
            let text = match &batch {
                DeltaBatch::Value(v) => v.to_text(),
                DeltaBatch::Op(o) => o.to_text(),
            };
            assert!(matches!(
                DeltaBatch::from_bytes(text.as_bytes()),
                Err(StorageError::Corrupt(_))
            ));
        }
        assert!(matches!(
            DeltaBatch::from_bytes(b"garbage"),
            Err(StorageError::Corrupt(_))
        ));
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
        assert!(text.ends_with("('two\\nlines\\tand a \\\\ backslash')\n"));
    }

    #[test]
    fn text_that_is_not_sql_crosses_the_frame() {
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
        let bytes = crate::colcodec::encode_batch(&od, 1024);
        assert_eq!(DeltaBatch::from_bytes(&bytes).unwrap(), od);
    }
}
