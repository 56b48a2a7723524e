//! Dump-file codecs.
//!
//! Two interchange formats, mirroring §3 of the paper:
//!
//! * [`ascii`] — a plain-text, pipe-delimited dump. This is what the
//!   timestamp extractor's "output to file" produces and what the "DBMS
//!   Loader" consumes. Portable across products.
//! * [`export`] — the *proprietary* binary Export format. It is tagged with a
//!   product name and format version; `Import` refuses files produced by a
//!   different product or version, reproducing the restrictive constraint the
//!   paper calls out ("the same database product must exist in the source and
//!   in the data warehouse").

pub mod ascii {
    //! Pipe-delimited ASCII rows: `123|'text'|NULL|4.5`.
    //!
    //! Escapes: backslash-escape of `|`, `\n`, `\r` and `\` inside strings;
    //! NULL is the bare token `NULL`; strings are *not* quoted on disk (the
    //! schema drives parsing), matching classic loader control-file behaviour.

    use std::io::{BufRead, Write};

    use crate::error::{StorageError, StorageResult};
    use crate::record::Row;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    const NULL_TOKEN: &str = "NULL";

    fn escape_into(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '|' => out.push_str("\\p"),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
    }

    fn unescape(s: &str) -> StorageResult<String> {
        let mut out = String::with_capacity(s.len());
        let mut it = s.chars();
        while let Some(c) = it.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match it.next() {
                Some('p') => out.push('|'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "bad escape \\{} in ascii dump",
                        other.map(String::from).unwrap_or_default()
                    )))
                }
            }
        }
        Ok(out)
    }

    /// Format one row as a dump line (no trailing newline).
    pub fn format_row(row: &Row) -> String {
        let mut line = String::with_capacity(row.len() * 12);
        for (i, v) in row.values().iter().enumerate() {
            if i > 0 {
                line.push('|');
            }
            match v {
                Value::Null => line.push_str(NULL_TOKEN),
                Value::Int(x) => line.push_str(&x.to_string()),
                Value::Timestamp(x) => line.push_str(&x.to_string()),
                Value::Double(x) => line.push_str(&format!("{x:?}")),
                Value::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
                Value::Str(s) => escape_into(s, &mut line),
            }
        }
        line
    }

    /// Parse one dump line against `schema`.
    pub fn parse_row(line: &str, schema: &Schema) -> StorageResult<Row> {
        // Split on unescaped '|'. Escapes never produce a bare '|', so a
        // plain split is correct.
        let fields: Vec<&str> = line.split('|').collect();
        if fields.len() != schema.len() {
            return Err(StorageError::Corrupt(format!(
                "ascii row has {} fields, schema has {} columns",
                fields.len(),
                schema.len()
            )));
        }
        let mut values = Vec::with_capacity(fields.len());
        for (field, col) in fields.iter().zip(schema.columns()) {
            if *field == NULL_TOKEN && col.data_type != DataType::Varchar {
                values.push(Value::Null);
                continue;
            }
            let v = match col.data_type {
                DataType::Int => Value::Int(
                    field
                        .parse()
                        .map_err(|_| StorageError::Corrupt(format!("bad INT field '{field}'")))?,
                ),
                DataType::Timestamp => Value::Timestamp(field.parse().map_err(|_| {
                    StorageError::Corrupt(format!("bad TIMESTAMP field '{field}'"))
                })?),
                DataType::Double => {
                    Value::Double(field.parse().map_err(|_| {
                        StorageError::Corrupt(format!("bad DOUBLE field '{field}'"))
                    })?)
                }
                DataType::Bool => match *field {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    _ => return Err(StorageError::Corrupt(format!("bad BOOL field '{field}'"))),
                },
                DataType::Varchar => {
                    if *field == NULL_TOKEN {
                        // A string column storing the literal text "NULL" is
                        // indistinguishable; classic loaders have the same
                        // wart. Treat as SQL NULL only when nullable.
                        if col.nullable {
                            Value::Null
                        } else {
                            Value::Str(unescape(field)?)
                        }
                    } else {
                        Value::Str(unescape(field)?)
                    }
                }
            };
            values.push(v);
        }
        Ok(Row::new(values))
    }

    /// Stream rows to `w`, one line each. Returns the number of rows written.
    pub fn write_rows<'a>(
        w: &mut impl Write,
        rows: impl IntoIterator<Item = &'a Row>,
    ) -> StorageResult<u64> {
        let mut n = 0;
        for row in rows {
            writeln!(w, "{}", format_row(row))?;
            n += 1;
        }
        Ok(n)
    }

    /// Read every row from `r` against `schema`.
    pub fn read_rows(r: &mut impl BufRead, schema: &Schema) -> StorageResult<Vec<Row>> {
        let mut rows = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if r.read_line(&mut line)? == 0 {
                break;
            }
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if trimmed.is_empty() {
                continue;
            }
            rows.push(parse_row(trimmed, schema)?);
        }
        Ok(rows)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::schema::Column;

        fn schema() -> Schema {
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Varchar),
                Column::new("price", DataType::Double),
                Column::new("ts", DataType::Timestamp),
                Column::new("live", DataType::Bool),
            ])
            .unwrap()
        }

        #[test]
        fn round_trip_plain() {
            let s = schema();
            let row = Row::new(vec![
                Value::Int(1),
                Value::Str("washer".into()),
                Value::Double(0.25),
                Value::Timestamp(123456),
                Value::Bool(true),
            ]);
            let line = format_row(&row);
            assert_eq!(parse_row(&line, &s).unwrap(), row);
        }

        #[test]
        fn round_trip_awkward_strings() {
            let s = schema();
            for text in ["a|b", "a\\b", "line1\nline2", "tab\there", "", "NULL-ish"] {
                let row = Row::new(vec![
                    Value::Int(1),
                    Value::Str(text.into()),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ]);
                let line = format_row(&row);
                assert!(!line.contains('\n'), "escaped line must be single-line");
                assert_eq!(parse_row(&line, &s).unwrap(), row, "text={text:?}");
            }
        }

        #[test]
        fn null_round_trips_for_non_string_columns() {
            let s = schema();
            let row = Row::new(vec![
                Value::Null,
                Value::Str("x".into()),
                Value::Null,
                Value::Null,
                Value::Null,
            ]);
            let line = format_row(&row);
            assert_eq!(parse_row(&line, &s).unwrap(), row);
        }

        #[test]
        fn rejects_wrong_arity_and_bad_fields() {
            let s = schema();
            assert!(parse_row("1|too|few", &s).is_err());
            assert!(parse_row("notanint|x|1.0|5|true", &s).is_err());
            assert!(parse_row("1|x|1.0|5|maybe", &s).is_err());
        }

        #[test]
        fn stream_round_trip() {
            let s = schema();
            let rows: Vec<Row> = (0..50)
                .map(|i| {
                    Row::new(vec![
                        Value::Int(i),
                        Value::Str(format!("part-{i}|x")),
                        Value::Double(i as f64 / 3.0),
                        Value::Timestamp(i * 1000),
                        Value::Bool(i % 2 == 0),
                    ])
                })
                .collect();
            let mut buf = Vec::new();
            assert_eq!(write_rows(&mut buf, &rows).unwrap(), 50);
            let back = read_rows(&mut &buf[..], &s).unwrap();
            assert_eq!(back, rows);
        }

        #[test]
        fn doubles_round_trip_exactly() {
            let s = schema();
            let row = Row::new(vec![
                Value::Int(0),
                Value::Str(String::new()),
                Value::Double(0.1 + 0.2),
                Value::Null,
                Value::Null,
            ]);
            let line = format_row(&row);
            assert_eq!(parse_row(&line, &s).unwrap(), row);
        }
    }
}

pub mod export {
    //! The proprietary binary Export format.
    //!
    //! Layout: magic, product tag, format version, schema string, row count,
    //! then length-prefixed binary rows, then an FNV-1a checksum. The
    //! product tag and version are verified by `Import`; see
    //! [`crate::error::StorageError::IncompatibleFormat`].

    use std::io::{Read, Write};

    use bytes::{Buf, BufMut};

    use crate::colbatch::{fnv1a, FNV1A_OFFSET};
    use crate::error::{StorageError, StorageResult};
    use crate::record::Row;
    use crate::schema::Schema;

    const MAGIC: &[u8; 4] = b"DFEX";

    /// Identifies the producing DBMS product and its export format version.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ProductTag {
        pub product: String,
        pub version: u32,
    }

    impl ProductTag {
        pub fn new(product: impl Into<String>, version: u32) -> ProductTag {
            ProductTag {
                product: product.into(),
                version,
            }
        }
    }

    impl std::fmt::Display for ProductTag {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}/{}", self.product, self.version)
        }
    }

    /// Streaming writer for an export dump.
    pub struct ExportWriter<W: Write> {
        out: W,
        rows: u64,
        sum: u64,
    }

    impl<W: Write> ExportWriter<W> {
        /// Write the header and return a writer ready for rows.
        pub fn new(mut out: W, tag: &ProductTag, schema: &Schema) -> StorageResult<Self> {
            let mut header = Vec::new();
            header.put_slice(MAGIC);
            let product = tag.product.as_bytes();
            header.put_u16(product.len() as u16);
            header.put_slice(product);
            header.put_u32(tag.version);
            let schema_s = schema.to_catalog_string();
            header.put_u32(schema_s.len() as u32);
            header.put_slice(schema_s.as_bytes());
            out.write_all(&header)?;
            Ok(ExportWriter {
                out,
                rows: 0,
                sum: fnv1a(FNV1A_OFFSET, &header),
            })
        }

        /// Append one row.
        pub fn write_row(&mut self, row: &Row) -> StorageResult<()> {
            let bytes = row.to_bytes();
            let mut frame = Vec::with_capacity(4 + bytes.len());
            frame.put_u32(bytes.len() as u32);
            frame.put_slice(&bytes);
            self.out.write_all(&frame)?;
            self.sum = fnv1a(self.sum, &frame);
            self.rows += 1;
            Ok(())
        }

        /// Write the trailer (row count + checksum) and flush.
        pub fn finish(mut self) -> StorageResult<u64> {
            let mut trailer = Vec::with_capacity(20);
            trailer.put_u32(u32::MAX); // row sentinel
            trailer.put_u64(self.rows);
            trailer.put_u64(self.sum);
            self.out.write_all(&trailer)?;
            self.out.flush()?;
            Ok(self.rows)
        }
    }

    /// Streaming reader for an export dump.
    pub struct ExportReader<R: Read> {
        input: R,
        pub tag: ProductTag,
        pub schema: Schema,
        sum: u64,
        done: bool,
    }

    impl<R: Read> ExportReader<R> {
        /// Read and validate the header. `expected` (when given) enforces the
        /// paper's same-product constraint.
        pub fn new(mut input: R, expected: Option<&ProductTag>) -> StorageResult<Self> {
            let mut magic = [0u8; 4];
            input.read_exact(&mut magic)?;
            if &magic != MAGIC {
                return Err(StorageError::Corrupt("not an export file".into()));
            }
            let mut sum = fnv1a(FNV1A_OFFSET, &magic);

            let read_bytes = |input: &mut R, n: usize, sum: &mut u64| -> StorageResult<Vec<u8>> {
                let mut buf = vec![0u8; n];
                input.read_exact(&mut buf)?;
                *sum = fnv1a(*sum, &buf);
                Ok(buf)
            };

            let len = {
                let b = read_bytes(&mut input, 2, &mut sum)?;
                u16::from_be_bytes([b[0], b[1]]) as usize
            };
            let product = String::from_utf8(read_bytes(&mut input, len, &mut sum)?)
                .map_err(|_| StorageError::Corrupt("product tag not UTF-8".into()))?;
            let version = {
                let b = read_bytes(&mut input, 4, &mut sum)?;
                u32::from_be_bytes(b.try_into().unwrap())
            };
            let tag = ProductTag { product, version };
            if let Some(exp) = expected {
                if *exp != tag {
                    return Err(StorageError::IncompatibleFormat {
                        expected: exp.to_string(),
                        found: tag.to_string(),
                    });
                }
            }
            let slen = {
                let b = read_bytes(&mut input, 4, &mut sum)?;
                u32::from_be_bytes(b.try_into().unwrap()) as usize
            };
            let schema_s = String::from_utf8(read_bytes(&mut input, slen, &mut sum)?)
                .map_err(|_| StorageError::Corrupt("schema not UTF-8".into()))?;
            let schema = Schema::from_catalog_string(&schema_s)?;
            Ok(ExportReader {
                input,
                tag,
                schema,
                sum,
                done: false,
            })
        }

        /// Read the next row, or `None` at the (validated) trailer.
        pub fn next_row(&mut self) -> StorageResult<Option<Row>> {
            if self.done {
                return Ok(None);
            }
            let mut lenb = [0u8; 4];
            self.input.read_exact(&mut lenb)?;
            let len = u32::from_be_bytes(lenb);
            if len == u32::MAX {
                // Trailer.
                let mut t = [0u8; 16];
                self.input.read_exact(&mut t)?;
                let mut buf = &t[..];
                let _rows = buf.get_u64();
                let sum = buf.get_u64();
                if sum != self.sum {
                    return Err(StorageError::Corrupt("export checksum mismatch".into()));
                }
                self.done = true;
                return Ok(None);
            }
            self.sum = fnv1a(self.sum, &lenb);
            let mut body = vec![0u8; len as usize];
            self.input.read_exact(&mut body)?;
            self.sum = fnv1a(self.sum, &body);
            Ok(Some(Row::from_bytes(&body)?))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::schema::Column;
        use crate::value::{DataType, Value};

        fn schema() -> Schema {
            Schema::new(vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("payload", DataType::Varchar),
            ])
            .unwrap()
        }

        fn tag() -> ProductTag {
            ProductTag::new("cotsdb", 3)
        }

        fn dump(rows: &[Row]) -> Vec<u8> {
            let mut buf = Vec::new();
            let mut w = ExportWriter::new(&mut buf, &tag(), &schema()).unwrap();
            for r in rows {
                w.write_row(r).unwrap();
            }
            w.finish().unwrap();
            buf
        }

        fn rows(n: i64) -> Vec<Row> {
            (0..n)
                .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("row {i}"))]))
                .collect()
        }

        #[test]
        fn round_trip() {
            let rs = rows(25);
            let buf = dump(&rs);
            let mut r = ExportReader::new(&buf[..], Some(&tag())).unwrap();
            assert_eq!(r.schema, schema());
            let mut back = Vec::new();
            while let Some(row) = r.next_row().unwrap() {
                back.push(row);
            }
            assert_eq!(back, rs);
        }

        #[test]
        fn empty_dump_round_trips() {
            let buf = dump(&[]);
            let mut r = ExportReader::new(&buf[..], None).unwrap();
            assert!(r.next_row().unwrap().is_none());
        }

        #[test]
        fn wrong_product_is_rejected() {
            let buf = dump(&rows(1));
            let other = ProductTag::new("otherdb", 3);
            match ExportReader::new(&buf[..], Some(&other)) {
                Err(StorageError::IncompatibleFormat { .. }) => {}
                Err(e) => panic!("wrong error: {e}"),
                Ok(_) => panic!("expected rejection"),
            }
        }

        #[test]
        fn wrong_version_is_rejected() {
            let buf = dump(&rows(1));
            let older = ProductTag::new("cotsdb", 2);
            match ExportReader::new(&buf[..], Some(&older)) {
                Err(StorageError::IncompatibleFormat { .. }) => {}
                Err(e) => panic!("wrong error: {e}"),
                Ok(_) => panic!("expected rejection"),
            }
        }

        #[test]
        fn corruption_is_detected_by_checksum() {
            let mut buf = dump(&rows(10));
            // Flip a byte in a row body (past the header).
            let idx = buf.len() - 30;
            buf[idx] ^= 0x5A;
            let mut r = ExportReader::new(&buf[..], Some(&tag())).unwrap();
            let mut result = Ok(());
            loop {
                match r.next_row() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            assert!(result.is_err(), "corruption must surface as an error");
        }

        #[test]
        fn truncated_file_errors() {
            let buf = dump(&rows(10));
            let cut = &buf[..buf.len() - 5];
            let mut r = ExportReader::new(cut, Some(&tag())).unwrap();
            let mut errored = false;
            loop {
                match r.next_row() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => {
                        errored = true;
                        break;
                    }
                }
            }
            assert!(errored);
        }

        #[test]
        fn not_an_export_file() {
            assert!(ExportReader::new(&b"GARBAGE!"[..], None).is_err());
        }
    }
}
