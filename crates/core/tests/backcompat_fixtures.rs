//! Back-compat fixtures: byte-for-byte copies of the pre-columnar wire and
//! file formats, frozen here as literals. They must keep decoding unchanged
//! after any codec work — the columnar formats are additive (version-tagged
//! magic dispatch), never a rewrite of the old readers.

use delta_core::model::{DeltaBatch, DeltaOp};
use delta_core::snapshot::{diff_snapshots, diff_snapshots_parallel, DiffAlgorithm};
use delta_storage::{Column, DataType, DeltaCodec, Schema, Value};

/// A value-delta text envelope exactly as PR-1's `to_text` produced it.
const VALUE_DELTA_FIXTURE: &str = "VALUE-DELTA\tparts\tid:INT:P,name:VARCHAR,qty:INT\t3\n\
     I\t7\t1|alpha|10\n\
     UB\t8\t2|beta|20\n\
     UA\t8\t2|beta|25\n";

/// An Op-Delta text envelope with a nested before image.
const OP_DELTA_FIXTURE: &str = "OP-DELTA\t9\t2\n\
     STMT\t1\tUPDATE parts SET qty = 25 WHERE id = 2\n\
     > VALUE-DELTA\tparts\tid:INT:P,name:VARCHAR,qty:INT\t1\n\
     > UB\t9\t2|beta|20\n\
     STMT\t2\tDELETE FROM parts WHERE id = 1\n";

/// ASCII snapshot dumps exactly as `ascii_dump` wrote them before the
/// columnar snapshot format existed.
const OLD_SNAPSHOT_FIXTURE: &str = "1|alpha|10\n2|beta|20\n3|gamma|30\n";
const NEW_SNAPSHOT_FIXTURE: &str = "1|alpha|10\n2|beta|25\n4|delta|40\n";

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("name", DataType::Varchar),
        Column::new("qty", DataType::Int),
    ])
    .unwrap()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "delta-backcompat-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn legacy_value_delta_envelope_decodes_unchanged() {
    let batch = DeltaBatch::from_bytes(VALUE_DELTA_FIXTURE.as_bytes()).unwrap();
    let DeltaBatch::Value(vd) = batch else {
        panic!("fixture is a value delta");
    };
    assert_eq!(vd.table, "parts");
    assert_eq!(vd.records.len(), 3);
    assert_eq!(vd.records[0].op, DeltaOp::Insert);
    assert_eq!(vd.records[0].txn, 7);
    assert_eq!(
        vd.records[0].row.values(),
        &[Value::Int(1), Value::Str("alpha".into()), Value::Int(10)]
    );
    assert_eq!(vd.records[1].op, DeltaOp::UpdateBefore);
    assert_eq!(vd.records[2].op, DeltaOp::UpdateAfter);
    assert_eq!(vd.records[2].row.values()[2], Value::Int(25));
    // Re-encoding at Raw reproduces the fixture bytes exactly.
    let reencoded = DeltaBatch::Value(vd).to_bytes_with(DeltaCodec::Raw, 1024);
    assert_eq!(reencoded, VALUE_DELTA_FIXTURE.as_bytes());
}

#[test]
fn legacy_op_delta_envelope_decodes_unchanged() {
    let batch = DeltaBatch::from_bytes(OP_DELTA_FIXTURE.as_bytes()).unwrap();
    let DeltaBatch::Op(od) = batch else {
        panic!("fixture is an op delta");
    };
    assert_eq!(od.txn, 9);
    assert_eq!(od.ops.len(), 2);
    assert_eq!(od.ops[0].seq, 1);
    let bi = od.ops[0].before_image.as_ref().expect("before image");
    assert_eq!(bi.records.len(), 1);
    assert_eq!(bi.records[0].op, DeltaOp::UpdateBefore);
    assert!(od.ops[1].before_image.is_none());
    // The statement is carried as the text that was shipped, unparsed.
    assert_eq!(od.ops[1].sql, "DELETE FROM parts WHERE id = 1");
    // Re-encoding at Raw reproduces the fixture bytes exactly.
    let reencoded = DeltaBatch::Op(od).to_bytes_with(DeltaCodec::Raw, 1024);
    assert_eq!(reencoded, OP_DELTA_FIXTURE.as_bytes());
}

/// Encoded Op-Delta frames as the parent of PR 20 produced them, when a
/// record held a parsed statement that every encode printed and every decode
/// re-parsed: `<name> <columnar|raw> <hex>` per line — a single plain
/// operation, four statements with shared prefixes (one with an embedded
/// newline and a backslash, one multi-byte), and a hybrid with a before
/// image. A record now carries the text itself; the bytes may not change.
const OP_FRAMES_FIXTURE: &str = include_str!("fixtures/opdelta_frames.hex");

#[test]
fn op_delta_frames_round_trip_byte_identically() {
    let mut seen = 0;
    for line in OP_FRAMES_FIXTURE.lines() {
        let mut fields = line.split(' ');
        let (Some(name), Some(codec), Some(hex)) = (fields.next(), fields.next(), fields.next())
        else {
            panic!("bad fixture line '{line}'");
        };
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        let codec = match codec {
            "columnar" => DeltaCodec::Columnar,
            "raw" => DeltaCodec::Raw,
            other => panic!("unknown codec '{other}'"),
        };
        let batch = DeltaBatch::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        let DeltaBatch::Op(od) = &batch else {
            panic!("{name} is an op delta");
        };
        assert_eq!(od.ops[0].before_image.is_some(), name == "hybrid");
        assert_eq!(
            batch.to_bytes_with(codec, delta_storage::colbatch::DEFAULT_BLOCK_ROWS),
            bytes,
            "{name} re-encoded differently"
        );
        seen += 1;
    }
    assert_eq!(seen, 6, "three frames under two envelopes");
}

#[test]
fn legacy_ascii_snapshots_diff_unchanged() {
    let old_p = tmp("old.snap");
    let new_p = tmp("new.snap");
    std::fs::write(&old_p, OLD_SNAPSHOT_FIXTURE).unwrap();
    std::fs::write(&new_p, NEW_SNAPSHOT_FIXTURE).unwrap();
    for workers in [1, 3] {
        let (delta, stats) = diff_snapshots_parallel(
            "parts",
            &schema(),
            &[0],
            &old_p,
            &new_p,
            DiffAlgorithm::SortMerge { run_size: 2 },
            workers,
        )
        .unwrap();
        assert_eq!(stats.rows_read, 6, "workers={workers}");
        // 2 updated (UB+UA), 3 deleted, 4 inserted.
        assert_eq!(delta.records.len(), 4, "workers={workers}");
        let ops: Vec<DeltaOp> = delta.records.iter().map(|r| r.op).collect();
        assert!(ops.contains(&DeltaOp::Insert));
        assert!(ops.contains(&DeltaOp::Delete));
        assert!(ops.contains(&DeltaOp::UpdateBefore));
        assert!(ops.contains(&DeltaOp::UpdateAfter));
    }
    // The windowed differ streams the same legacy files too.
    let (delta, _) = diff_snapshots(
        "parts",
        &schema(),
        &[0],
        &old_p,
        &new_p,
        DiffAlgorithm::Window { size: 8 },
    )
    .unwrap();
    assert_eq!(delta.records.len(), 4);
}

#[test]
fn mixed_format_snapshots_diff_against_each_other() {
    use delta_storage::colbatch::{RowSink, SnapshotFormat};
    use delta_storage::Row;
    // Old side: legacy ASCII fixture. New side: columnar, same logical rows
    // as NEW_SNAPSHOT_FIXTURE — the upgrade-in-flight scenario where one
    // snapshot predates the codec switch.
    let old_p = tmp("mixed-old.snap");
    let new_p = tmp("mixed-new.snap");
    std::fs::write(&old_p, OLD_SNAPSHOT_FIXTURE).unwrap();
    let mut sink = RowSink::create(&new_p, SnapshotFormat::Columnar, 2).unwrap();
    for (id, name, qty) in [(1, "alpha", 10), (2, "beta", 25), (4, "delta", 40)] {
        sink.write_row(&Row::new(vec![
            Value::Int(id),
            Value::Str(name.into()),
            Value::Int(qty),
        ]))
        .unwrap();
    }
    sink.finish().unwrap();
    let (delta, stats) = diff_snapshots(
        "parts",
        &schema(),
        &[0],
        &old_p,
        &new_p,
        DiffAlgorithm::SortMerge { run_size: 2 },
    )
    .unwrap();
    assert_eq!(stats.rows_read, 6);
    assert_eq!(delta.records.len(), 4);
}
