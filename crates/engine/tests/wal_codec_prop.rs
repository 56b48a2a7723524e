//! Property-based tests for the WAL record codec: encode/decode must round
//! trip every record exactly, and *any* damage — truncation at every length,
//! single-bit flips — must surface as a typed [`StorageError`], never a
//! panic and never a silently wrong record.
//!
//! And for the one committed-log reader: over generated logs — commit
//! batches, administrative records, torn fragments, stray records,
//! transaction ids that restart and collide, segments split between archive
//! and resident — what it yields equals a positional model.

use proptest::prelude::*;

use delta_engine::db::SyncMode;
use delta_engine::txn::TxnId;
use delta_engine::wal::{
    committed_units, decode_record, encode_record, LogManager, LogRecord, Lsn,
};
use delta_storage::{Row, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        prop::num::f64::NORMAL.prop_map(Value::Double),
        "\\PC{0,24}".prop_map(Value::Str),
        any::<i64>().prop_map(Value::Timestamp),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 0..6).prop_map(Row::new)
}

fn arb_table() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,12}"
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        any::<u64>().prop_map(|t| LogRecord::Begin { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| LogRecord::Commit { txn: TxnId(t) }),
        (any::<u64>(), arb_table(), arb_row()).prop_map(|(t, table, row)| LogRecord::Insert {
            txn: TxnId(t),
            table,
            row,
        }),
        (any::<u64>(), arb_table(), arb_row()).prop_map(|(t, table, before)| {
            LogRecord::Delete {
                txn: TxnId(t),
                table,
                before,
            }
        }),
        (any::<u64>(), arb_table(), arb_row(), arb_row()).prop_map(|(t, table, before, after)| {
            LogRecord::Update {
                txn: TxnId(t),
                table,
                before,
                after,
            }
        }),
        (arb_table(), "\\PC{0,40}", "\\PC{0,16}").prop_map(|(name, schema, options)| {
            LogRecord::CreateTable {
                name,
                schema,
                options,
            }
        }),
        arb_table().prop_map(|name| LogRecord::DropTable { name }),
        Just(LogRecord::Checkpoint),
    ]
}

type Records = Vec<(Lsn, LogRecord)>;

/// One generated stretch of log.
#[derive(Debug, Clone)]
enum Piece {
    /// `Begin, n row records, Commit`: committed, whole.
    Batch { txn: u64, rows: usize },
    /// `Begin, n row records` and no `Commit`: a torn batch.
    Fragment { txn: u64, rows: usize },
    /// One administrative record.
    Admin(u8),
    /// A row record or a `Commit` outside any `Begin`.
    Stray { txn: u64, commit: bool },
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    // Ids from a tiny range: they restart at every open, so they collide.
    prop_oneof![
        (1u64..4, 0usize..4).prop_map(|(txn, rows)| Piece::Batch { txn, rows }),
        (1u64..4, 0usize..4).prop_map(|(txn, rows)| Piece::Batch { txn, rows }),
        (1u64..4, 0usize..4).prop_map(|(txn, rows)| Piece::Fragment { txn, rows }),
        (0u8..3).prop_map(Piece::Admin),
        (1u64..4, any::<bool>()).prop_map(|(txn, commit)| Piece::Stray { txn, commit }),
    ]
}

fn row_record(txn: u64, n: u64) -> LogRecord {
    let txn = TxnId(txn);
    let row = |v: u64| Row::new(vec![Value::Int(v as i64)]);
    match n % 3 {
        0 => LogRecord::Insert {
            txn,
            table: "t".into(),
            row: row(n),
        },
        1 => LogRecord::Update {
            txn,
            table: "t".into(),
            before: row(n),
            after: row(n + 1),
        },
        _ => LogRecord::Delete {
            txn,
            table: "t".into(),
            before: row(n),
        },
    }
}

impl Piece {
    /// The piece's records, and whether the positional rule keeps them.
    fn records(&self, salt: u64) -> (Vec<LogRecord>, bool) {
        let run = |txn: u64, rows: usize| {
            let mut v = vec![LogRecord::Begin { txn: TxnId(txn) }];
            v.extend((0..rows as u64).map(|i| row_record(txn, salt + i)));
            v
        };
        match *self {
            Piece::Batch { txn, rows } => {
                let mut v = run(txn, rows);
                v.push(LogRecord::Commit { txn: TxnId(txn) });
                (v, true)
            }
            Piece::Fragment { txn, rows } => (run(txn, rows), false),
            Piece::Admin(0) => (vec![LogRecord::Checkpoint], true),
            Piece::Admin(1) => (vec![LogRecord::DropTable { name: "t".into() }], true),
            Piece::Admin(_) => {
                let create = LogRecord::CreateTable {
                    name: "t".into(),
                    schema: "a:INT".into(),
                    options: String::new(),
                };
                (vec![create], true)
            }
            Piece::Stray { txn, commit: true } => {
                (vec![LogRecord::Commit { txn: TxnId(txn) }], false)
            }
            Piece::Stray { txn, .. } => (vec![row_record(txn, salt)], false),
        }
    }
}

proptest! {
    /// Lay generated pieces out as real segment files (a piece never
    /// straddles a segment, as a commit batch never does), move a prefix of
    /// them to the archive, and read from every piece boundary: the reader's
    /// units are exactly the kept pieces from there on, its high-water mark
    /// the last LSN on disk — fragments included.
    #[test]
    fn reader_equals_the_positional_model(
        pieces in prop::collection::vec((arb_piece(), any::<bool>()), 1..24),
        archived in 0usize..6,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "delta-wal-reader-prop-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (wal_dir, archive_dir) = (dir.join("wal"), dir.join("archive"));
        std::fs::create_dir_all(&wal_dir).unwrap();
        std::fs::create_dir_all(&archive_dir).unwrap();

        let mut segments: Vec<Vec<u8>> = vec![Vec::new()];
        let mut flat: Records = Vec::new();
        // (first LSN of the piece, its records if the model keeps them)
        let mut model: Vec<(Lsn, Option<Records>)> = Vec::new();
        for (piece, rotate) in &pieces {
            let first = flat.len() as Lsn + 1;
            let (records, kept) = piece.records(first * 10);
            let numbered: Records =
                records.into_iter().zip(first..).map(|(r, lsn)| (lsn, r)).collect();
            for (lsn, rec) in &numbered {
                segments.last_mut().unwrap().extend(encode_record(*lsn, rec));
            }
            flat.extend(numbered.iter().cloned());
            model.push((first, kept.then_some(numbered)));
            if *rotate {
                segments.push(Vec::new());
            }
        }
        // A stray row record right after a fragment extends the fragment and
        // a stray `Commit` completes it: position is all there is. The model
        // is per piece, so keep strays away from fragments.
        let fragment_then_stray = pieces.windows(2).any(|w| {
            matches!(w[0].0, Piece::Fragment { .. }) && matches!(w[1].0, Piece::Stray { .. })
        });
        prop_assume!(!fragment_then_stray);
        let last_lsn = flat.len() as Lsn;
        let archived = archived.min(segments.len() - 1);
        for (i, bytes) in segments.iter().enumerate() {
            let home = if i < archived { &archive_dir } else { &wal_dir };
            std::fs::write(home.join(format!("seg-{:08}.wal", i + 1)), bytes).unwrap();
        }

        // The pure function over the whole log.
        let want_all: Vec<&[(Lsn, LogRecord)]> =
            model.iter().filter_map(|(_, kept)| kept.as_deref()).collect();
        prop_assert_eq!(committed_units(&flat).collect::<Vec<_>>(), want_all);

        let wal = LogManager::open(&wal_dir, &archive_dir, 1 << 20, SyncMode::None, true, None, None)
            .unwrap();
        prop_assert_eq!(wal.next_lsn(), last_lsn + 1);
        // Newest start first, so later reads run against a warm first-LSN
        // memo and earlier ones against a cold one.
        for (from, _) in model.iter().rev() {
            let mut got: Vec<Records> = Vec::new();
            let high = wal
                .read_committed(*from, |unit| {
                    got.push(unit.to_vec());
                    Ok(())
                })
                .unwrap()
                .high;
            let want: Vec<Records> = model
                .iter()
                .filter(|(first, _)| first >= from)
                .filter_map(|(_, kept)| kept.clone())
                .collect();
            prop_assert_eq!(got, want, "from {}", from);
            prop_assert_eq!(high, last_lsn, "from {}", from);
        }
        prop_assert_eq!(wal.read_committed(last_lsn + 1, |_| Ok(())).unwrap().high, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encode_decode_round_trips(lsn in any::<Lsn>(), rec in arb_record()) {
        let bytes = encode_record(lsn, &rec);
        let mut buf = &bytes[..];
        let (got_lsn, got_rec) = decode_record(&mut buf).expect("own encoding decodes");
        prop_assert_eq!(got_lsn, lsn);
        prop_assert_eq!(got_rec, rec);
        prop_assert!(buf.is_empty(), "decode consumed the whole frame");
    }

    #[test]
    fn every_truncation_is_a_typed_error(lsn in any::<Lsn>(), rec in arb_record()) {
        let bytes = encode_record(lsn, &rec);
        for cut in 0..bytes.len() {
            let mut buf = &bytes[..cut];
            // Must neither panic nor return a record from partial bytes.
            prop_assert!(
                decode_record(&mut buf).is_err(),
                "decoding a {cut}-byte prefix of a {}-byte frame must fail",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected(lsn in any::<Lsn>(), rec in arb_record()) {
        let bytes = encode_record(lsn, &rec);
        // Cap the sweep so huge frames don't blow up the test budget.
        let step = (bytes.len() * 8 / 512).max(1);
        let mut bit = 0;
        while bit < bytes.len() * 8 {
            let mut dirty = bytes.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            let mut buf = &dirty[..];
            match decode_record(&mut buf) {
                // The checksum (or a length check) caught it: good.
                Err(_) => {}
                // A flip that decodes must not silently change the record:
                // the only tolerated outcome is decoding the original bytes'
                // exact content — which a flip makes impossible, so any Ok
                // here with different content is a corruption escape.
                Ok((got_lsn, got_rec)) => {
                    prop_assert!(
                        got_lsn == lsn && got_rec == rec,
                        "bit flip at {bit} silently decoded a different record"
                    );
                }
            }
            bit += step;
        }
    }
}
