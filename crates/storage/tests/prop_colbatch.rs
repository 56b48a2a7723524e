//! Property tests for the columnar delta codec: CRC-framed row blocks must
//! round trip arbitrary rows exactly, every truncation must surface as a
//! typed [`delta_storage::StorageError`] (never a panic), and a single-bit
//! flip must never silently decode as different content — mirroring the WAL
//! record codec's corruption-detection properties.

use proptest::prelude::*;

use delta_storage::colbatch::{crc32, decode_rows_block, encode_rows_block, get_block, put_block};
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

/// A framed block exactly as [`delta_storage::colbatch::RowSink`] writes it.
fn framed(rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::new();
    put_block(&mut out, &encode_rows_block(rows));
    out
}

fn decode_framed(bytes: &[u8]) -> delta_storage::StorageResult<Vec<Row>> {
    let mut buf = bytes;
    let payload = get_block(&mut buf)?;
    if !buf.is_empty() {
        return Err(delta_storage::StorageError::Corrupt(
            "trailing bytes after the frame".into(),
        ));
    }
    decode_rows_block(payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn framed_row_blocks_round_trip(rows in prop::collection::vec(arb_row(), 0..24)) {
        let bytes = framed(&rows);
        let back = decode_framed(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, rows);
    }

    #[test]
    fn uniform_rows_round_trip_through_the_columnar_path(
        cells in prop::collection::vec((any::<i64>(), "\\PC{0,16}", any::<i64>()), 1..32)
    ) {
        // Same-arity, same-type rows exercise the transposed column
        // encodings (delta-of-delta, dictionary, front coding) rather than
        // the ragged fallback.
        let rows: Vec<Row> = cells
            .into_iter()
            .map(|(id, s, ts)| Row::new(vec![Value::Int(id), Value::Str(s), Value::Timestamp(ts)]))
            .collect();
        let bytes = framed(&rows);
        prop_assert_eq!(decode_framed(&bytes).expect("decodes"), rows);
    }

    #[test]
    fn every_truncation_is_a_typed_error(rows in prop::collection::vec(arb_row(), 1..12)) {
        let bytes = framed(&rows);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_framed(&bytes[..cut]).is_err(),
                "decoding a {cut}-byte prefix of a {}-byte frame must fail",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected(rows in prop::collection::vec(arb_row(), 1..12)) {
        let bytes = framed(&rows);
        let step = (bytes.len() * 8 / 512).max(1);
        let mut bit = 0;
        while bit < bytes.len() * 8 {
            let mut dirty = bytes.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            match decode_framed(&dirty) {
                Err(_) => {}
                // A flip that decodes must not silently change the rows.
                Ok(back) => prop_assert!(
                    back == rows,
                    "bit flip at {bit} silently decoded different rows"
                ),
            }
            bit += step;
        }
    }

    #[test]
    fn crc32_differs_under_any_single_bit_flip(data in prop::collection::vec(any::<u8>(), 1..256)) {
        let sum = crc32(&data);
        let step = (data.len() * 8 / 256).max(1);
        let mut bit = 0;
        while bit < data.len() * 8 {
            let mut dirty = data.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(crc32(&dirty) != sum, "single-bit flip at {bit} collided");
            bit += step;
        }
    }
}
