//! Rows and the schema-directed binary row codec.
//!
//! The on-page representation is a compact tagged encoding: a one-byte type
//! tag per cell followed by the cell payload. Strings are length-prefixed.
//! This is the format the engine's heap files, WAL records, and the binary
//! Export utility all share *within one product* — the paper's point that
//! export formats are proprietary is modelled one level up, in
//! [`crate::codec::export`].
//!
//! Every reader checks each cell with the one reader, [`Row::from_bytes`]'s.
//! A scan reads a record through [`EncodedRow`]: one walk checks the whole
//! record and keeps what it read of each cell as a [`CheckedCell`], so a
//! predicate reads a fixed-width cell without parsing its bytes again.

use bytes::BufMut;

use crate::error::{StorageError, StorageResult};
use crate::value::{Cell, Value};

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_TIMESTAMP: u8 = 4;
const TAG_BOOL: u8 = 5;

/// A row of values. Rows are schema-agnostic at this layer; the engine
/// validates them against a [`crate::schema::Schema`] before storing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Get a cell by position.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Replace a cell by position.
    pub fn set(&mut self, idx: usize, v: Value) {
        self.values[idx] = v;
    }

    /// Encoded size in bytes (exact, matches [`Row::encode`]).
    pub fn encoded_size(&self) -> usize {
        2 + self
            .values
            .iter()
            .map(|v| match v {
                Value::Null => 1,
                Value::Int(_) | Value::Timestamp(_) | Value::Double(_) => 9,
                Value::Bool(_) => 2,
                Value::Str(s) => 5 + s.len(),
            })
            .sum::<usize>()
    }

    /// Append the binary encoding of this row to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_u16(self.values.len() as u16);
        for v in &self.values {
            match v {
                Value::Null => out.put_u8(TAG_NULL),
                Value::Int(i) => {
                    out.put_u8(TAG_INT);
                    out.put_i64(*i);
                }
                Value::Double(d) => {
                    out.put_u8(TAG_DOUBLE);
                    out.put_f64(*d);
                }
                Value::Str(s) => {
                    out.put_u8(TAG_STR);
                    out.put_u32(s.len() as u32);
                    out.put_slice(s.as_bytes());
                }
                Value::Timestamp(t) => {
                    out.put_u8(TAG_TIMESTAMP);
                    out.put_i64(*t);
                }
                Value::Bool(b) => {
                    out.put_u8(TAG_BOOL);
                    out.put_u8(*b as u8);
                }
            }
        }
    }

    /// Encode to a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_size());
        self.encode(&mut out);
        out
    }

    /// Decode a row from the front of `buf`, advancing it past the row (and
    /// not at all on an error).
    pub fn decode(buf: &mut &[u8]) -> StorageResult<Row> {
        let mut rest = *buf;
        let n = read_cell_count(&mut rest)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(read_cell(&mut rest)?.to_value());
        }
        *buf = rest;
        Ok(Row { values })
    }

    /// Decode from a complete buffer, requiring full consumption.
    pub fn from_bytes(mut buf: &[u8]) -> StorageResult<Row> {
        let row = Row::decode(&mut buf)?;
        no_trailing_bytes(buf)?;
        Ok(row)
    }
}

/// Walk the encoded row `bytes`, checking every cell (with the reader
/// [`Row::from_bytes`] uses) and the absence of trailing bytes, and append
/// its cells to `out`, strings borrowed from `bytes`. A caller that reads
/// many records passes one `out` for all of them, so the walk itself
/// allocates nothing.
pub(crate) fn read_cells<'a>(bytes: &'a [u8], out: &mut Vec<Cell<'a>>) -> StorageResult<()> {
    let mut buf = bytes;
    let n = read_cell_count(&mut buf)?;
    // Every cell takes at least its tag byte.
    out.reserve(n.min(bytes.len()));
    for _ in 0..n {
        out.push(read_cell(&mut buf)?);
    }
    no_trailing_bytes(buf)
}

fn no_trailing_bytes(rest: &[u8]) -> StorageResult<()> {
    match rest.len() {
        0 => Ok(()),
        n => Err(StorageError::Corrupt(format!(
            "{n} trailing bytes after row"
        ))),
    }
}

/// Read an encoded row's header, its cell count, from the front of `buf`.
fn read_cell_count(buf: &mut &[u8]) -> StorageResult<usize> {
    Ok(u16::from_be_bytes(*take_n(buf, "row header")?) as usize)
}

#[cold]
fn truncated(what: &str) -> StorageError {
    StorageError::Corrupt(format!("{what} truncated"))
}

/// Split `N` bytes off the front of `buf`, or fail naming `what` was cut
/// short.
#[inline]
fn take_n<'a, const N: usize>(buf: &mut &'a [u8], what: &str) -> StorageResult<&'a [u8; N]> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| truncated(what))?;
    *buf = rest;
    Ok(head)
}

/// Read one cell from the front of `buf`, advancing it: the one cell reader
/// behind [`Row::decode`], [`read_cells`] and [`EncodedRow`]. The tag,
/// every length (against the bytes left, before it is used) and a string's
/// UTF-8 are checked; a string is borrowed from the bytes, not copied.
fn read_cell<'a>(buf: &mut &'a [u8]) -> StorageResult<Cell<'a>> {
    read_cell_inline(buf)
}

/// [`read_cell`], inlined into [`EncodedRow::index`]'s walk, which checks
/// every cell of every record a scan reads; the other readers call it out
/// of line.
#[inline(always)]
fn read_cell_inline<'a>(buf: &mut &'a [u8]) -> StorageResult<Cell<'a>> {
    let [tag] = *take_n(buf, "row cell tag")?;
    Ok(match tag {
        TAG_NULL => Cell::Null,
        TAG_INT => Cell::Int(i64::from_be_bytes(*take_n(buf, "int cell")?)),
        TAG_DOUBLE => Cell::Double(f64::from_be_bytes(*take_n(buf, "double cell")?)),
        TAG_STR => {
            let len = u32::from_be_bytes(*take_n(buf, "string length")?) as usize;
            if buf.len() < len {
                return Err(truncated("string cell"));
            }
            let (bytes, rest) = buf.split_at(len);
            *buf = rest;
            Cell::Str(
                std::str::from_utf8(bytes)
                    .map_err(|_| StorageError::Corrupt("string cell not UTF-8".into()))?,
            )
        }
        TAG_TIMESTAMP => Cell::Timestamp(i64::from_be_bytes(*take_n(buf, "timestamp cell")?)),
        TAG_BOOL => Cell::Bool(take_n::<1>(buf, "bool cell")?[0] != 0),
        other => return Err(StorageError::Corrupt(format!("unknown cell tag {other}"))),
    })
}

/// An encoded row checked in full — every cell and the absence of trailing
/// bytes, exactly as [`Row::from_bytes`] checks them — and read by position
/// without being decoded. A scan evaluates its predicate on one of these and
/// decodes only the rows that match; checking every cell first keeps a
/// damaged record an error whether it matches or not. The walk keeps each
/// cell's value (a string's place), so reading an `INT`, `DOUBLE`,
/// `TIMESTAMP` or `BOOL` cell touches no byte of the record again.
pub struct EncodedRow<'a> {
    bytes: &'a [u8],
    /// What the walk read of each cell.
    cells: &'a [CheckedCell],
}

/// One cell of a record as [`EncodedRow::index`]'s walk checked it: its tag
/// and, for a fixed-width cell, its payload; for text, where its bytes lie.
#[derive(Debug, Clone, Copy)]
pub struct CheckedCell {
    tag: u8,
    /// A string's length in bytes.
    len: u32,
    /// The payload's bits, or where a string's bytes start.
    word: u64,
}

impl CheckedCell {
    #[inline(always)]
    fn new(tag: u8, word: u64) -> CheckedCell {
        CheckedCell { tag, len: 0, word }
    }

    #[inline(always)]
    fn text(start: usize, len: usize) -> CheckedCell {
        CheckedCell {
            tag: TAG_STR,
            len: len as u32,
            word: start as u64,
        }
    }
}

impl<'a> EncodedRow<'a> {
    /// Walk `bytes` once, checking every cell, and note in `cells` (cleared
    /// first, so one buffer serves a whole scan) what each one holds.
    pub fn index(
        bytes: &'a [u8],
        cells: &'a mut Vec<CheckedCell>,
    ) -> StorageResult<EncodedRow<'a>> {
        cells.clear();
        let mut buf = bytes;
        for _ in 0..read_cell_count(&mut buf)? {
            cells.push(check_cell(&mut buf, bytes.len())?);
        }
        no_trailing_bytes(buf)?;
        Ok(EncodedRow { bytes, cells })
    }

    /// The cell at `pos`, or `None` past the last.
    #[inline]
    pub fn cell(&self, pos: usize) -> Option<Cell<'a>> {
        let c = *self.cells.get(pos)?;
        Some(match c.tag {
            TAG_INT => Cell::Int(c.word as i64),
            TAG_DOUBLE => Cell::Double(f64::from_bits(c.word)),
            TAG_TIMESTAMP => Cell::Timestamp(c.word as i64),
            TAG_BOOL => Cell::Bool(c.word != 0),
            TAG_STR => {
                let start = c.word as usize;
                let text = self.bytes.get(start..start + c.len as usize)?;
                // The walk checked this text; reading it again cannot fail.
                Cell::Str(std::str::from_utf8(text).ok()?)
            }
            _ => Cell::Null,
        })
    }
}

/// Check the cell at the front of `buf` (the rest of a `total`-byte
/// record), advancing past it, and note what it holds. A whole `INT`,
/// `DOUBLE` or `TIMESTAMP` cell and ASCII text are read here; anything
/// else takes [`read_cell_inline`], which accepts and refuses exactly as
/// [`Row::from_bytes`] does. ASCII text is UTF-8, and `is_ascii` costs
/// about half of `from_utf8`.
#[inline(always)]
fn check_cell(buf: &mut &[u8], total: usize) -> StorageResult<CheckedCell> {
    match **buf {
        [tag @ (TAG_INT | TAG_DOUBLE | TAG_TIMESTAMP), a, b, c, d, e, f, g, h, ref rest @ ..] => {
            *buf = rest;
            return Ok(CheckedCell::new(
                tag,
                u64::from_be_bytes([a, b, c, d, e, f, g, h]),
            ));
        }
        [TAG_STR, a, b, c, d, ref rest @ ..] => {
            let len = u32::from_be_bytes([a, b, c, d]);
            if let Some((_, tail)) = rest
                .split_at_checked(len as usize)
                .filter(|(s, _)| s.is_ascii())
            {
                let start = total - rest.len();
                *buf = tail;
                return Ok(CheckedCell::text(start, len as usize));
            }
        }
        _ => {}
    }
    let start = total - buf.len();
    Ok(match read_cell_inline(buf)? {
        Cell::Null => CheckedCell::new(TAG_NULL, 0),
        Cell::Int(i) => CheckedCell::new(TAG_INT, i as u64),
        Cell::Double(d) => CheckedCell::new(TAG_DOUBLE, d.to_bits()),
        Cell::Timestamp(t) => CheckedCell::new(TAG_TIMESTAMP, t as u64),
        Cell::Bool(b) => CheckedCell::new(TAG_BOOL, b as u64),
        Cell::Str(s) => CheckedCell::text(start + 5, s.len()),
    })
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Row {
        Row::new(vec![
            Value::Int(42),
            Value::Str("widget".into()),
            Value::Null,
            Value::Double(2.5),
            Value::Timestamp(1_000_000),
            Value::Bool(true),
        ])
    }

    #[test]
    fn round_trip() {
        let r = sample();
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), r.encoded_size());
        let back = Row::from_bytes(&bytes).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn empty_row_round_trips() {
        let r = Row::new(vec![]);
        assert_eq!(Row::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Row::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = sample().to_bytes();
        bytes.push(0xFF);
        assert!(Row::from_bytes(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut bytes = vec![];
        bytes.put_u16(1);
        bytes.put_u8(99);
        assert!(Row::from_bytes(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let mut bytes = vec![];
        bytes.put_u16(1);
        bytes.put_u8(3); // TAG_STR
        bytes.put_u32(2);
        bytes.put_slice(&[0xFF, 0xFE]);
        assert!(Row::from_bytes(&bytes).is_err());
    }

    #[test]
    fn encoded_row_reads_each_cell_and_refuses_what_decode_refuses() {
        let row = sample();
        let bytes = row.to_bytes();
        let mut at = Vec::new();
        let encoded = EncodedRow::index(&bytes, &mut at).unwrap();
        for (pos, v) in row.values().iter().enumerate() {
            assert_eq!(encoded.cell(pos), Some(v.as_cell()));
        }
        assert_eq!(encoded.cell(row.len()), None);
        for cut in 0..bytes.len() {
            assert!(
                EncodedRow::index(&bytes[..cut], &mut at).is_err(),
                "cut {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(EncodedRow::index(&trailing, &mut at).is_err());
        let mut bad_utf8 = vec![];
        bad_utf8.put_u16(1);
        bad_utf8.put_u8(3); // TAG_STR
        bad_utf8.put_u32(1);
        bad_utf8.put_u8(0xFF);
        assert!(EncodedRow::index(&bad_utf8, &mut at).is_err());
    }

    #[test]
    fn the_walk_accepts_and_refuses_text_exactly_as_the_reader_does() {
        let one_str = |bytes: &[u8]| {
            let mut row = vec![];
            row.put_u16(1);
            row.put_u8(TAG_STR);
            row.put_u32(bytes.len() as u32);
            row.put_slice(bytes);
            row
        };
        let mut at = Vec::new();
        // Multi-byte UTF-8 passes the walk's fallback and reads back.
        let text = "naïve café — 東京";
        let row = one_str(text.as_bytes());
        let encoded = EncodedRow::index(&row, &mut at).unwrap();
        assert_eq!(encoded.cell(0), Some(Cell::Str(text)));
        assert_eq!(
            Row::from_bytes(&row).unwrap().values(),
            [Value::Str(text.into())]
        );
        // A lead byte followed by a non-continuation, and a lone
        // continuation byte: both refused, with the same error either way.
        for bad in [&[b'a', 0xC3, 0x28, b'z'][..], &[0x80], &[b'o', b'k', 0x80]] {
            let row = one_str(bad);
            let walk = EncodedRow::index(&row, &mut at)
                .err()
                .map(|e| e.to_string());
            let read = Row::from_bytes(&row).err().map(|e| e.to_string());
            let mut cells = Vec::new();
            let cell = read_cells(&row, &mut cells).err().map(|e| e.to_string());
            assert!(
                walk.as_deref()
                    .is_some_and(|e| e.contains("string cell not UTF-8")),
                "{bad:?}: {walk:?}"
            );
            assert_eq!(walk, read, "{bad:?}");
            assert_eq!(walk, cell, "{bad:?}");
        }
    }

    #[test]
    fn multiple_rows_decode_sequentially() {
        let a = sample();
        let b = Row::new(vec![Value::Int(1)]);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        let mut cursor = &buf[..];
        assert_eq!(Row::decode(&mut cursor).unwrap(), a);
        assert_eq!(Row::decode(&mut cursor).unwrap(), b);
        assert!(cursor.is_empty());
    }
}
