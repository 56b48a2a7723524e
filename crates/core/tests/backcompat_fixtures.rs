//! Format fixtures. Each artifact has one format (DESIGN.md §12): the
//! shipped Op-Delta frame is pinned byte for byte, and input in a retired
//! format — the `VALUE-DELTA`/`OP-DELTA` text envelopes, ASCII snapshot
//! dumps, snapshots without the sort-key header (DESIGN.md §30) — or with a
//! damaged magic is typed corruption, never reinterpreted. A snapshot whose
//! header claims a key order its rows break is corruption too.

use std::path::PathBuf;

use delta_core::colcodec::encode_batch;
use delta_core::model::DeltaBatch;
use delta_core::snapshot::{diff_snapshots, diff_snapshots_parallel, DiffAlgorithm};
use delta_storage::colbatch::{
    encode_rows_block, put_block, RowSink, RowSource, DEFAULT_BLOCK_ROWS,
};
use delta_storage::{Column, DataType, Row, Schema, StorageError, Value};

/// A value-delta text envelope as the retired text codec shipped it.
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

/// An ASCII snapshot dump as the retired `Raw` codec wrote it.
const ASCII_SNAPSHOT_FIXTURE: &str = "1|alpha|10\n2|beta|20\n3|gamma|30\n";

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("name", DataType::Varchar),
        Column::new("qty", DataType::Int),
    ])
    .unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "delta-fixtures-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn is_corrupt<T>(r: Result<T, StorageError>) -> bool {
    matches!(r, Err(StorageError::Corrupt(_)))
}

fn parts_row(id: i64, name: &str, qty: i64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Str(name.into()),
        Value::Int(qty),
    ])
}

const ALGOS: [DiffAlgorithm; 2] = [
    DiffAlgorithm::SortMerge { run_size: 2 },
    DiffAlgorithm::Window { size: 8 },
];

/// Every diff of `bad` against `good`, either way round, at one and three
/// workers, is typed corruption.
fn assert_every_diff_corrupt(name: &str, bad: &std::path::Path, good: &std::path::Path) {
    for algo in ALGOS {
        for workers in [1, 3] {
            for (o, n) in [(bad, good), (good, bad)] {
                assert!(
                    is_corrupt(diff_snapshots_parallel(
                        "parts",
                        &schema(),
                        &[0],
                        o,
                        n,
                        algo,
                        workers
                    )),
                    "diff of {name} at {workers} workers, {algo:?}"
                );
            }
        }
    }
}

/// Encoded Op-Delta frames as the parent of PR 20 produced them, when a
/// record held a parsed statement that every encode printed and every decode
/// re-parsed: `<name> columnar <hex>` per line — a single plain operation,
/// four statements with shared prefixes (one with an embedded newline and a
/// backslash, one multi-byte), and a hybrid with a before image. A record
/// now carries the text itself; the bytes may not change.
const OP_FRAMES_FIXTURE: &str = include_str!("fixtures/opdelta_frames.hex");

#[test]
fn op_delta_frames_round_trip_byte_identically() {
    let mut seen = 0;
    for line in OP_FRAMES_FIXTURE.lines() {
        let mut fields = line.split(' ');
        let (Some(name), Some("columnar"), Some(hex)) =
            (fields.next(), fields.next(), fields.next())
        else {
            panic!("bad fixture line '{line}'");
        };
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        let batch = DeltaBatch::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        let DeltaBatch::Op(od) = &batch else {
            panic!("{name} is an op delta");
        };
        assert_eq!(od.ops[0].before_image.is_some(), name == "hybrid");
        assert_eq!(
            encode_batch(&batch, DEFAULT_BLOCK_ROWS),
            bytes,
            "{name} re-encoded differently"
        );
        seen += 1;
    }
    assert_eq!(seen, 3, "three frames");
}

#[test]
fn former_text_envelopes_are_corrupt() {
    for (name, text) in [("value", VALUE_DELTA_FIXTURE), ("op", OP_DELTA_FIXTURE)] {
        assert!(
            is_corrupt(DeltaBatch::from_bytes(text.as_bytes())),
            "{name} envelope"
        );
    }
}

#[test]
fn damaged_empty_and_ascii_snapshots_are_corrupt() {
    let good = tmp("good.snap");
    let mut sink = RowSink::create(&good, 2).unwrap();
    for (id, name, qty) in [(1, "alpha", 10), (2, "beta", 25), (4, "delta", 40)] {
        sink.write_row(Row::new(vec![
            Value::Int(id),
            Value::Str(name.into()),
            Value::Int(qty),
        ]))
        .unwrap();
    }
    sink.finish().unwrap();
    let bytes = std::fs::read(&good).unwrap();
    let mut flipped = bytes.clone();
    flipped[0] ^= 0x01;

    let bad: [(&str, &[u8]); 3] = [
        ("flipped-magic.snap", &flipped),
        ("zero-byte.snap", b""),
        ("ascii.snap", ASCII_SNAPSHOT_FIXTURE.as_bytes()),
    ];
    for (name, contents) in bad {
        let p = tmp(name);
        std::fs::write(&p, contents).unwrap();
        assert!(is_corrupt(RowSource::open(&p)), "RowSource::open({name})");
        assert_every_diff_corrupt(name, &p, &good);
    }
}

/// A snapshot as every writer produced it before the sort-key header: the
/// version-1 magic, then row blocks. Neither that file nor the same blocks
/// behind the current magic is read as a snapshot.
#[test]
fn snapshots_in_the_pre_header_layout_are_corrupt() {
    let good = tmp("hdr-good.snap");
    let mut sink = RowSink::create(&good, 2).unwrap();
    sink.write_row(parts_row(1, "alpha", 10)).unwrap();
    sink.finish().unwrap();
    let mut blocks = Vec::new();
    put_block(
        &mut blocks,
        &encode_rows_block(&[parts_row(1, "alpha", 10), parts_row(2, "beta", 20)]),
    );
    for (name, version) in [("v1.snap", 1u8), ("headerless.snap", 2)] {
        let p = tmp(name);
        let mut bytes = vec![0xFF, b'C', b'S', version];
        bytes.extend_from_slice(&blocks);
        std::fs::write(&p, bytes).unwrap();
        assert!(is_corrupt(RowSource::open(&p)), "RowSource::open({name})");
        assert_every_diff_corrupt(name, &p, &good);
    }
}

#[test]
fn a_header_that_claims_an_order_the_rows_break_is_corrupt() {
    let liar = tmp("liar.snap");
    let mut sink = RowSink::create_sorted(&liar, 2, &[0]).unwrap();
    for (id, name) in [(1, "alpha"), (4, "delta"), (2, "beta")] {
        sink.write_row(parts_row(id, name, 0)).unwrap();
    }
    sink.finish().unwrap();
    assert_eq!(RowSource::open(&liar).unwrap().key(), &[0]);
    let good = tmp("liar-good.snap");
    let mut sink = RowSink::create_sorted(&good, 2, &[0]).unwrap();
    sink.write_row(parts_row(2, "beta", 0)).unwrap();
    sink.finish().unwrap();
    assert_every_diff_corrupt("liar.snap", &liar, &good);
    // Keyed on another column the header makes no claim, and the same rows
    // are sorted like any heap-order dump: alpha and delta are gone.
    let (vd, _) = diff_snapshots("parts", &schema(), &[1], &liar, &good, ALGOS[0]).unwrap();
    assert_eq!(vd.len(), 2);
}
