//! The wire format of a [`DeltaBatch`]: the one frame every batch ships as.
//!
//! A batch is encoded as CRC-framed columnar blocks (see
//! [`delta_storage::colbatch`]): op codes and txn ids become RLE/delta runs,
//! generated keys front-code against their neighbours, and repeated statement
//! prefixes in an Op-Delta are shared. The frame starts with
//! [`cb::BATCH_MAGIC`]; bytes without it are typed corruption.
//!
//! Layout (all integers varint unless noted):
//!
//! ```text
//! batch      := BATCH_MAGIC kind:u8 body
//! kind       := 1 (value delta) | 2 (op delta)
//! value body := block(header) block(rows)*            ; blocks CRC-framed
//! header     := table schema-catalog-string nrecords
//! rows       := colbatch row block of [op txn cols...] augmented rows
//! op body    := block(txn nops op*)
//! op         := seq sql-front-coded has_bi:u8 [len value-body]
//! ```
//!
//! Decoders are panic-free: every length is bounds-checked and every failure
//! is a typed [`StorageError::Corrupt`].

use delta_storage::colbatch as cb;
use delta_storage::{Cell, Row, Schema, StorageError, StorageResult, Value};

use crate::model::{DeltaBatch, DeltaOp, OpDelta, OpLogRecord, ValueDelta, ValueDeltaRecord};

const KIND_VALUE: u8 = 1;
const KIND_OP: u8 = 2;

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("colcodec: {what}"))
}

fn op_to_code(op: DeltaOp) -> i64 {
    match op {
        DeltaOp::Insert => 0,
        DeltaOp::Delete => 1,
        DeltaOp::UpdateBefore => 2,
        DeltaOp::UpdateAfter => 3,
    }
}

fn op_from_code(c: i64) -> StorageResult<DeltaOp> {
    match c {
        0 => Ok(DeltaOp::Insert),
        1 => Ok(DeltaOp::Delete),
        2 => Ok(DeltaOp::UpdateBefore),
        3 => Ok(DeltaOp::UpdateAfter),
        _ => Err(corrupt("unknown op code")),
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    cb::put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> StorageResult<String> {
    let n = cb::get_uvarint(buf)? as usize;
    let bytes = cb::take(buf, n)?;
    match std::str::from_utf8(bytes) {
        Ok(s) => Ok(s.to_string()),
        Err(_) => Err(corrupt("string is not UTF-8")),
    }
}

/// Front-code `cur` against `prev` at byte level: shared-prefix length plus
/// the distinct tail. Reconstruction yields the exact original bytes, so
/// UTF-8 validity is preserved even when the split lands inside a character.
fn put_front_str(out: &mut Vec<u8>, prev: &str, cur: &str) {
    let a = prev.as_bytes();
    let b = cur.as_bytes();
    let max = a.len().min(b.len());
    let mut p = 0;
    while p < max && a[p] == b[p] {
        p += 1;
    }
    cb::put_uvarint(out, p as u64);
    cb::put_uvarint(out, (b.len() - p) as u64);
    out.extend_from_slice(&b[p..]);
}

fn get_front_str(buf: &mut &[u8], prev: &str) -> StorageResult<String> {
    let p = cb::get_uvarint(buf)? as usize;
    let tail_len = cb::get_uvarint(buf)? as usize;
    let tail = cb::take(buf, tail_len)?;
    let a = prev.as_bytes();
    if p > a.len() {
        return Err(corrupt("front-coded prefix exceeds previous statement"));
    }
    let mut bytes = Vec::with_capacity(p + tail.len());
    bytes.extend_from_slice(&a[..p]);
    bytes.extend_from_slice(tail);
    match String::from_utf8(bytes) {
        Ok(s) => Ok(s),
        Err(_) => Err(corrupt("front-coded statement is not UTF-8")),
    }
}

/// A record as the row block sees it: the op and txn columns in front of
/// the row's own cells, which are read in place.
struct Augmented<'a> {
    prefix: [Cell<'static>; 2],
    row: &'a Row,
}

impl cb::BlockRow for Augmented<'_> {
    fn arity(&self) -> usize {
        self.prefix.len() + self.row.len()
    }

    fn cell(&self, c: usize) -> Cell<'_> {
        match c.checked_sub(self.prefix.len()) {
            None => self.prefix[c],
            Some(c) => self.row.values()[c].as_cell(),
        }
    }
}

fn encode_value_body(v: &ValueDelta, block_rows: usize, out: &mut Vec<u8>) {
    let mut header = Vec::new();
    put_str(&mut header, &v.table);
    put_str(&mut header, &v.schema.to_catalog_string());
    cb::put_uvarint(&mut header, v.records.len() as u64);
    cb::put_block(out, &header);
    let mut rows: Vec<Augmented> = Vec::with_capacity(block_rows.min(v.records.len()));
    for chunk in v.records.chunks(block_rows.max(1)) {
        rows.clear();
        rows.extend(chunk.iter().map(|r| Augmented {
            prefix: [Cell::Int(op_to_code(r.op)), Cell::Int(r.txn as i64)],
            row: &r.row,
        }));
        cb::put_block(out, &cb::encode_block(&rows));
    }
}

fn decode_value_body(mut buf: &[u8]) -> StorageResult<ValueDelta> {
    let mut header = cb::get_block(&mut buf)?;
    let table = get_str(&mut header)?;
    let schema = Schema::from_catalog_string(&get_str(&mut header)?)?;
    let count = cb::get_uvarint(&mut header)? as usize;
    let mut records: Vec<ValueDeltaRecord> = Vec::with_capacity(count.min(1 << 20));
    while records.len() < count {
        let payload = cb::get_block(&mut buf)?;
        for row in cb::decode_rows_block(payload)? {
            let mut vals = row.into_values().into_iter();
            let op = match vals.next() {
                Some(Value::Int(c)) => op_from_code(c)?,
                _ => return Err(corrupt("record missing op column")),
            };
            let txn = match vals.next() {
                Some(Value::Int(t)) => t as u64,
                _ => return Err(corrupt("record missing txn column")),
            };
            records.push(ValueDeltaRecord {
                op,
                txn,
                row: Row::new(vals.collect()),
            });
        }
        if records.len() > count {
            return Err(corrupt("more records than the header declared"));
        }
    }
    if !buf.is_empty() {
        return Err(corrupt("trailing bytes after value delta"));
    }
    Ok(ValueDelta {
        table,
        schema,
        records,
    })
}

fn encode_op_body(o: &OpDelta, block_rows: usize, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    cb::put_uvarint(&mut payload, o.txn);
    cb::put_uvarint(&mut payload, o.ops.len() as u64);
    let mut prev_sql = "";
    for op in &o.ops {
        cb::put_uvarint(&mut payload, op.seq);
        put_front_str(&mut payload, prev_sql, &op.sql);
        prev_sql = &op.sql;
        match &op.before_image {
            None => payload.push(0),
            Some(bi) => {
                payload.push(1);
                let mut nested = Vec::new();
                encode_value_body(bi, block_rows, &mut nested);
                cb::put_uvarint(&mut payload, nested.len() as u64);
                payload.extend_from_slice(&nested);
            }
        }
    }
    cb::put_block(out, &payload);
}

fn decode_op_body(mut buf: &[u8]) -> StorageResult<OpDelta> {
    let mut payload = cb::get_block(&mut buf)?;
    if !buf.is_empty() {
        return Err(corrupt("trailing bytes after op delta"));
    }
    let buf = &mut payload;
    let txn = cb::get_uvarint(buf)?;
    let nops = cb::get_uvarint(buf)? as usize;
    if nops > buf.len() + 1 {
        return Err(corrupt("op count exceeds remaining input"));
    }
    let mut ops: Vec<OpLogRecord> = Vec::with_capacity(nops);
    for _ in 0..nops {
        let seq = cb::get_uvarint(buf)?;
        let prev_sql = ops.last().map_or("", |op| op.sql.as_str());
        let sql = get_front_str(buf, prev_sql)?;
        let before_image = match cb::take(buf, 1)? {
            [0] => None,
            [1] => {
                let n = cb::get_uvarint(buf)? as usize;
                Some(decode_value_body(cb::take(buf, n)?)?)
            }
            _ => return Err(corrupt("bad before-image flag")),
        };
        ops.push(OpLogRecord {
            seq,
            txn,
            sql,
            before_image,
        });
    }
    if !buf.is_empty() {
        return Err(corrupt("trailing bytes after op list"));
    }
    Ok(OpDelta { txn, ops })
}

/// Encode a batch as the columnar envelope. `block_rows` bounds the rows per
/// CRC-framed block.
pub fn encode_batch(batch: &DeltaBatch, block_rows: usize) -> Vec<u8> {
    match batch {
        DeltaBatch::Value(v) => encode_value_batch(v, block_rows),
        DeltaBatch::Op(o) => {
            let mut out = cb::BATCH_MAGIC.to_vec();
            out.push(KIND_OP);
            encode_op_body(o, block_rows, &mut out);
            out
        }
    }
}

/// [`encode_batch`] of `DeltaBatch::Value(v)`, byte for byte, from a
/// borrowed delta: the ship path encodes staged deltas without cloning them.
pub fn encode_value_batch(v: &ValueDelta, block_rows: usize) -> Vec<u8> {
    let mut out = cb::BATCH_MAGIC.to_vec();
    out.push(KIND_VALUE);
    encode_value_body(v, block_rows, &mut out);
    out
}

/// Decode a columnar envelope produced by [`encode_batch`]. Framing, CRCs
/// and UTF-8 are checked; Op-Delta statements stay text.
pub fn decode_batch(bytes: &[u8]) -> StorageResult<DeltaBatch> {
    let mut buf = bytes;
    let magic = cb::take(&mut buf, 4)?;
    if magic != cb::BATCH_MAGIC {
        return Err(corrupt("not a columnar delta batch"));
    }
    match cb::take(&mut buf, 1)? {
        [KIND_VALUE] => Ok(DeltaBatch::Value(decode_value_body(buf)?)),
        [KIND_OP] => Ok(DeltaBatch::Op(decode_op_body(buf)?)),
        _ => Err(corrupt("unknown batch kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_storage::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("grp", DataType::Int),
            Column::new("filler", DataType::Varchar),
        ])
        .unwrap()
    }

    fn uniform_delta(n: i64) -> ValueDelta {
        let mut vd = ValueDelta::new("parts", schema());
        for i in 0..n {
            vd.records.push(ValueDeltaRecord {
                op: DeltaOp::Insert,
                txn: 42,
                row: Row::new(vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::Str(format!("row-{i:010}-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")),
                ]),
            });
        }
        vd
    }

    #[test]
    fn value_delta_round_trips_columnar() {
        let vd = uniform_delta(1000);
        let batch = DeltaBatch::Value(vd.clone());
        let bytes = encode_batch(&batch, 256);
        assert!(bytes.starts_with(&cb::BATCH_MAGIC));
        assert_eq!(encode_value_batch(&vd, 256), bytes, "borrowed encoder");
        assert_eq!(decode_batch(&bytes).unwrap(), batch);
    }

    #[test]
    fn columnar_beats_text_3x_on_uniform_records() {
        let vd = uniform_delta(1000);
        let text = vd.wire_size();
        let col = encode_batch(&DeltaBatch::Value(vd), 1024).len();
        assert!(
            text >= col * 3,
            "text {text} vs columnar {col} ({:.1}x)",
            text as f64 / col as f64
        );
    }

    #[test]
    fn op_delta_round_trips_columnar() {
        let od = OpDelta {
            txn: 9,
            ops: vec![
                OpLogRecord {
                    seq: 100,
                    txn: 9,
                    sql: "UPDATE parts SET grp = 1 WHERE id < 50".into(),
                    before_image: Some(uniform_delta(40)),
                },
                OpLogRecord {
                    seq: 101,
                    txn: 9,
                    sql: "UPDATE parts SET grp = 2 WHERE id < 90".into(),
                    before_image: None,
                },
                OpLogRecord {
                    seq: 102,
                    txn: 9,
                    sql: "DELETE FROM parts WHERE id = 7".into(),
                    before_image: None,
                },
            ],
        };
        let batch = DeltaBatch::Op(od);
        let bytes = encode_batch(&batch, 64);
        assert_eq!(decode_batch(&bytes).unwrap(), batch);
    }

    #[test]
    fn corruption_is_typed_never_panics() {
        let batch = DeltaBatch::Value(uniform_delta(200));
        let bytes = encode_batch(&batch, 64);
        for cut in 0..bytes.len() {
            assert!(decode_batch(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for bit in (0..bytes.len() * 8).step_by((bytes.len() * 8 / 997).max(1)) {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            if let Ok(back) = decode_batch(&bad) {
                assert_eq!(back, batch, "flip at bit {bit} silently changed the batch");
            }
        }
    }
}
