//! The WAL entry format, pinned byte for byte: one record of each
//! `LogRecord` variant at a fixed LSN, as `<variant> <lsn> <hex>` lines in
//! `fixtures/wal_entries.hex`. Encoding must reproduce the committed bytes —
//! length prefix, payload, LSN and the FNV-1a checksum sealed over them —
//! and decoding them must give back the record.

use delta_engine::txn::TxnId;
use delta_engine::wal::{decode_record, encode_record, LogRecord};
use delta_storage::{Row, Value};

const WAL_ENTRIES_FIXTURE: &str = include_str!("fixtures/wal_entries.hex");

fn row(id: i64, name: &str) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Str(name.into()),
        Value::Double(2.5),
        Value::Null,
        Value::Bool(true),
        Value::Timestamp(1_700_000_000),
    ])
}

/// The record each fixture line pins.
fn record(variant: &str) -> LogRecord {
    let txn = TxnId(7);
    let table = "parts".to_string();
    match variant {
        "begin" => LogRecord::Begin { txn },
        "commit" => LogRecord::Commit { txn },
        "insert" => LogRecord::Insert {
            txn,
            table,
            row: row(1, "alpha"),
        },
        "delete" => LogRecord::Delete {
            txn,
            table,
            before: row(2, "beta"),
        },
        "update" => LogRecord::Update {
            txn,
            table,
            before: row(3, "gamma"),
            after: row(3, "gamma-v2"),
        },
        "create" => LogRecord::CreateTable {
            name: table,
            schema: "id:INT:P,name:VARCHAR".into(),
            options: "capture=none".into(),
        },
        "drop" => LogRecord::DropTable { name: table },
        "checkpoint" => LogRecord::Checkpoint,
        other => panic!("unknown fixture variant '{other}'"),
    }
}

#[test]
fn every_wal_record_variant_encodes_to_the_pinned_bytes() {
    let mut seen = Vec::new();
    for line in WAL_ENTRIES_FIXTURE.lines() {
        let mut fields = line.split(' ');
        let (Some(variant), Some(lsn), Some(hex), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            panic!("bad fixture line '{line}'");
        };
        let lsn: u64 = lsn.parse().unwrap();
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        let rec = record(variant);
        assert_eq!(
            encode_record(lsn, &rec),
            bytes,
            "{variant} encoded differently"
        );
        let mut rest = &bytes[..];
        assert_eq!(decode_record(&mut rest).unwrap(), (lsn, rec), "{variant}");
        assert!(rest.is_empty(), "{variant}: one entry per line");
        seen.push(variant);
    }
    assert_eq!(
        seen,
        [
            "begin",
            "commit",
            "insert",
            "delete",
            "update",
            "create",
            "drop",
            "checkpoint"
        ]
    );
}
