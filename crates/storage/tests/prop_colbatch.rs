//! Property tests for the columnar delta codec: CRC-framed row blocks must
//! round trip arbitrary rows exactly, every truncation must surface as a
//! typed [`delta_storage::StorageError`] (never a panic), and a single-bit
//! flip must never silently decode as different content — mirroring the WAL
//! record codec's corruption-detection properties.
//!
//! The sliced CRC-32 kernel under the frames and the page stamps is checked
//! against a bytewise reference, and `fixtures/page_crc.hex` pins the page
//! images `DiskFile::write_page` wrote before the kernel was sliced: the
//! stamp is an on-disk format, so it must not move.

use proptest::prelude::*;

use delta_storage::colbatch::{
    crc32, crc32_update, decode_rows_block, encode_rows_block, get_block, put_block,
};
use delta_storage::scrub::{
    check_page, page_content_crc, stamp_page_crc, PageCheck, PAGE_CRC_OFFSET,
};
use delta_storage::{DiskFile, Row, Value, PAGE_SIZE};

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

/// CRC-32 (IEEE) one byte at a time through one 256-entry table: the
/// reference the sliced kernel must equal.
fn bytewise_crc32(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *entry = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The page CRC by its definition: copy the page, zero the CRC word, hash
/// the copy, and nudge a zero result to 1.
fn reference_page_crc(page: &[u8]) -> u32 {
    let mut copy = page.to_vec();
    copy[PAGE_CRC_OFFSET..PAGE_CRC_OFFSET + 4].fill(0);
    match bytewise_crc32(&copy) {
        0 => 1,
        crc => crc,
    }
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

    #[test]
    fn crc32_equals_the_bytewise_reference(data in prop::collection::vec(any::<u8>(), 0..=1024)) {
        prop_assert_eq!(crc32(&data), bytewise_crc32(&data));
    }

    #[test]
    fn crc32_update_is_the_same_at_any_split(data in prop::collection::vec(any::<u8>(), 0..=1024)) {
        let whole = crc32(&data);
        for cut in 0..=data.len() {
            prop_assert_eq!(
                crc32_update(crc32(&data[..cut]), &data[cut..]),
                whole,
                "split at {} of {}",
                cut,
                data.len()
            );
        }
    }

    #[test]
    fn page_content_crc_equals_copy_zero_and_hash(page in prop::collection::vec(any::<u8>(), PAGE_SIZE)) {
        prop_assert_eq!(page_content_crc(&page), reference_page_crc(&page));
    }
}

/// `<name> <hex>` per line: an empty page, a page with one record and a
/// full page, each as the parent of the sliced kernel's `write_page` put it
/// on disk (CRC word stamped).
const PAGE_CRC_FIXTURE: &str = include_str!("fixtures/page_crc.hex");

#[test]
fn pinned_page_stamps_check_clean_and_restamp_byte_identically() {
    let dir = std::env::temp_dir().join(format!("delta-page-crc-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pages.db");
    let _ = std::fs::remove_file(&path);
    let file = DiskFile::open(&path).unwrap();
    let mut names = Vec::new();
    for (page_no, line) in PAGE_CRC_FIXTURE.lines().enumerate() {
        let (name, hex) = line.split_once(' ').expect("`<name> <hex>` line");
        let pinned: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(pinned.len(), PAGE_SIZE, "{name}");
        assert_eq!(check_page(&pinned), PageCheck::Clean, "{name}");
        assert_eq!(
            page_content_crc(&pinned),
            reference_page_crc(&pinned),
            "{name}"
        );

        let mut unstamped = pinned.clone();
        unstamped[PAGE_CRC_OFFSET..PAGE_CRC_OFFSET + 4].fill(0);
        let mut restamped = unstamped.clone();
        stamp_page_crc(&mut restamped);
        assert_eq!(restamped, pinned, "{name}: stamp_page_crc moved the stamp");

        let page_no = page_no as u32;
        assert_eq!(file.allocate_page().unwrap(), page_no);
        file.write_page(page_no, &unstamped).unwrap();
        let mut written = vec![0u8; PAGE_SIZE];
        file.read_page(page_no, &mut written).unwrap();
        assert_eq!(written, pinned, "{name}: write_page moved the stamp");
        names.push(name);
    }
    assert_eq!(names, ["empty", "one_record", "full"]);
    drop(file);
    std::fs::remove_dir_all(&dir).unwrap();
}
