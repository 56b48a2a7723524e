//! Property tests for the columnar delta codec: CRC-framed row blocks must
//! round trip arbitrary rows exactly, every truncation must surface as a
//! typed [`delta_storage::StorageError`] (never a panic), and a single-bit
//! flip must never silently decode as different content — mirroring the WAL
//! record codec's corruption-detection properties.
//!
//! The lane-interleaved CRC-32 kernel under the frames and the page stamps
//! is checked against a bytewise reference, from any start state and at any
//! split, over inputs of several pages and at every length through a page
//! (so around every lane and stripe boundary), and `fixtures/page_crc.hex`
//! pins the page images `DiskFile::write_page` wrote before the kernel was
//! sliced: the stamp is an on-disk format, so it must not move.
//!
//! A [`RowSink`] fed stored records writes the file it writes fed the same
//! rows as `Row`s, frame for frame what [`encode_rows_block`] makes of them,
//! and the word-at-a-time front-coding split equals a bytewise one.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use delta_storage::colbatch::{
    crc32, crc32_update, decode_rows_block, encode_rows_block, front_split, get_block, put_block,
    put_uvarint, RowSink, SNAP_MAGIC,
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

/// CRC-32 (IEEE) continued from `state` one byte at a time through one
/// 256-entry table: the reference the lane-interleaved kernel must equal.
fn bytewise_crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = !state;
    for &b in bytes {
        c = bytewise_step(c, b);
    }
    !c
}

/// One byte into the CRC register `c` (the complement of a CRC).
fn bytewise_step(c: u32, b: u8) -> u32 {
    let mut c = c ^ b as u32;
    for _ in 0..8 {
        c = if c & 1 != 0 {
            0xEDB8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
    }
    c
}

fn bytewise_crc32(bytes: &[u8]) -> u32 {
    bytewise_crc32_update(0, bytes)
}

/// `len` bytes from a splitmix-style generator: a fixed input no proptest
/// case depends on.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 31)) as u8
        })
        .collect()
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

/// Cells of every kind, with the doubles a bit pattern must survive (NaN
/// payloads, both zeros) and strings of several byte widths.
fn arb_edge_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_value(),
        any::<u64>().prop_map(|bits| Value::Double(f64::from_bits(bits | 0x7FF0_0000_0000_0001))),
        Just(Value::Double(0.0)),
        Just(Value::Double(-0.0)),
        Just(Value::Double(f64::NAN)),
        Just(Value::Str(String::new())),
        Just(Value::Str("é日本🦀".into())),
    ]
}

/// A scratch file name no other case of this process uses.
fn scratch_file(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "delta-prop-colbatch-{}-{label}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The snapshot a [`RowSink`] writes for `rows` in blocks of `block_rows`,
/// each row handed over as its record bytes or as a `Row`.
fn sink_file(rows: &[Row], block_rows: usize, as_records: bool) -> Vec<u8> {
    let path = scratch_file(if as_records { "records" } else { "rows" });
    let mut sink = RowSink::create(&path, block_rows).unwrap();
    for row in rows {
        if as_records {
            sink.write_record(&row.to_bytes()).unwrap();
        } else {
            sink.write_row(row.clone()).unwrap();
        }
    }
    sink.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// The same snapshot assembled by hand: the magic, a header naming no key,
/// then one [`framed`] block per `block_rows` rows.
fn reference_file(rows: &[Row], block_rows: usize) -> Vec<u8> {
    let mut out = SNAP_MAGIC.to_vec();
    let mut header = Vec::new();
    put_uvarint(&mut header, 0);
    put_block(&mut out, &header);
    for chunk in rows.chunks(block_rows) {
        out.extend_from_slice(&framed(chunk));
    }
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
    fn crc32_update_equals_the_bytewise_reference_over_several_pages(
        state in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..=3 * PAGE_SIZE),
    ) {
        prop_assert_eq!(crc32_update(state, &data), bytewise_crc32_update(state, &data));
    }

    #[test]
    fn crc32_update_is_the_same_at_any_split_over_several_pages(
        state in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..=3 * PAGE_SIZE),
        cuts in prop::collection::vec(any::<usize>(), 1..6),
    ) {
        let whole = crc32_update(state, &data);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        // Each cut alone, then the input folded piece by piece at all of them.
        let (mut chained, mut from) = (state, 0);
        for &cut in &cuts {
            prop_assert_eq!(
                crc32_update(crc32_update(state, &data[..cut]), &data[cut..]),
                whole,
                "split at {} of {}",
                cut,
                data.len()
            );
            chained = crc32_update(chained, &data[from..cut]);
            from = cut;
        }
        prop_assert_eq!(crc32_update(chained, &data[from..]), whole, "cuts {:?}", cuts);
    }

    #[test]
    fn a_sink_fed_records_writes_the_file_a_sink_fed_rows_writes(
        rows in prop::collection::vec(prop::collection::vec(arb_edge_value(), 0..5), 0..40),
        block_rows in 1usize..9,
    ) {
        // Mixed types, NULLs and ragged arity: raw-cell columns and ragged
        // blocks, with an empty table (no block at all) among the cases.
        let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        let from_records = sink_file(&rows, block_rows, true);
        prop_assert_eq!(&from_records, &sink_file(&rows, block_rows, false));
        prop_assert_eq!(&from_records, &reference_file(&rows, block_rows));
    }

    #[test]
    fn page_content_crc_equals_copy_zero_and_hash(page in prop::collection::vec(any::<u8>(), PAGE_SIZE)) {
        prop_assert_eq!(page_content_crc(&page), reference_page_crc(&page));
    }
}

/// Every length from 0 to a page and 64 bytes, from a zero and an
/// arbitrary start state, against the reference's CRC of the same prefix:
/// so every lane and stripe boundary of the kernel up to a page, and every
/// length within 16 bytes of one, is checked, whatever the lane size.
#[test]
fn crc32_update_equals_the_bytewise_reference_at_every_length_through_a_page() {
    let data = noise(PAGE_SIZE + 64, 43);
    for state in [0, 0x5EED_C0DE] {
        let mut register = !state;
        for len in 0..=data.len() {
            assert_eq!(
                crc32_update(state, &data[..len]),
                !register,
                "length {len} from state {state:#x}"
            );
            if let Some(&b) = data.get(len) {
                register = bytewise_step(register, b);
            }
        }
    }
}

/// A whole page folded in two at every cut equals the page folded at once:
/// a cut at or beside a lane or stripe boundary carries the state across
/// it.
#[test]
fn crc32_update_is_the_same_at_every_cut_of_a_page() {
    let page = noise(PAGE_SIZE, 44);
    let whole = crc32(&page);
    assert_eq!(whole, bytewise_crc32(&page));
    for cut in 0..=PAGE_SIZE {
        assert_eq!(
            crc32_update(crc32(&page[..cut]), &page[cut..]),
            whole,
            "cut at {cut}"
        );
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
        file.write_page(page_no, &mut unstamped).unwrap();
        let mut written = vec![0u8; PAGE_SIZE];
        file.read_page(page_no, &mut written).unwrap();
        assert_eq!(written, pinned, "{name}: write_page moved the stamp");
        names.push(name);
    }
    assert_eq!(names, ["empty", "one_record", "full"]);
    drop(file);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The column chooser before sizing, copied as it stood: every candidate
/// encoding written out in full and the smallest kept, ties to the one
/// listed first. The sized chooser must write the same bytes.
mod emit_all {
    use std::collections::HashMap;

    use delta_storage::colbatch::{put_ivarint, put_uvarint};
    use delta_storage::{Row, Value};

    /// What the reference chose and how close the race was.
    #[derive(Default)]
    pub struct Tally {
        /// Columns won, by column tag.
        pub wins: [usize; 9],
        /// Columns where the winner tied another candidate.
        pub ties: usize,
        /// String columns whose dictionary lost and already lost on a
        /// prefix, where the sized chooser stops early.
        pub dict_stopped: usize,
    }

    fn put_cell(out: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                put_ivarint(out, *i);
            }
            Value::Double(d) => {
                out.push(2);
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                put_uvarint(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Timestamp(t) => {
                out.push(4);
                put_ivarint(out, *t);
            }
            Value::Bool(b) => {
                out.push(5);
                out.push(*b as u8);
            }
        }
    }

    fn encode_int_plain(vals: &[i64], out: &mut Vec<u8>) {
        for &v in vals {
            put_ivarint(out, v);
        }
    }

    fn encode_int_delta2(vals: &[i64], out: &mut Vec<u8>) {
        let mut prev = 0i64;
        let mut prev_delta = 0i64;
        for (i, &v) in vals.iter().enumerate() {
            if i == 0 {
                put_ivarint(out, v);
            } else {
                let delta = v.wrapping_sub(prev);
                put_ivarint(out, delta.wrapping_sub(prev_delta));
                prev_delta = delta;
            }
            prev = v;
        }
    }

    fn encode_int_rle(vals: &[i64], out: &mut Vec<u8>) {
        let mut i = 0;
        while i < vals.len() {
            let v = vals[i];
            let mut run = 1usize;
            while i + run < vals.len() && vals[i + run] == v {
                run += 1;
            }
            put_ivarint(out, v);
            put_uvarint(out, run as u64);
            i += run;
        }
    }

    fn encode_str_front(vals: &[&str], out: &mut Vec<u8>) {
        let mut prev: &[u8] = b"";
        for s in vals {
            let cur = s.as_bytes();
            let max_p = prev.len().min(cur.len());
            let mut p = 0;
            while p < max_p && prev[p] == cur[p] {
                p += 1;
            }
            let max_s = max_p - p;
            let mut sfx = 0;
            while sfx < max_s && prev[prev.len() - 1 - sfx] == cur[cur.len() - 1 - sfx] {
                sfx += 1;
            }
            put_uvarint(out, p as u64);
            put_uvarint(out, sfx as u64);
            let mid = &cur[p..cur.len() - sfx];
            put_uvarint(out, mid.len() as u64);
            out.extend_from_slice(mid);
            prev = cur;
        }
    }

    fn encode_str_dict(vals: &[&str], out: &mut Vec<u8>) {
        let mut dict: Vec<&str> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut ids: Vec<usize> = Vec::with_capacity(vals.len());
        for s in vals {
            let id = *index.entry(s).or_insert_with(|| {
                dict.push(s);
                dict.len() - 1
            });
            ids.push(id);
        }
        put_uvarint(out, dict.len() as u64);
        for entry in &dict {
            put_uvarint(out, entry.len() as u64);
            out.extend_from_slice(entry.as_bytes());
        }
        let mut i = 0;
        while i < ids.len() {
            let id = ids[i];
            let mut run = 1usize;
            while i + run < ids.len() && ids[i + run] == id {
                run += 1;
            }
            put_uvarint(out, id as u64);
            put_uvarint(out, run as u64);
            i += run;
        }
    }

    fn encode_str_raw(vals: &[&str], out: &mut Vec<u8>) {
        for s in vals {
            put_uvarint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }

    fn uvarint_len(v: usize) -> usize {
        let mut out = Vec::new();
        put_uvarint(&mut out, v as u64);
        out.len()
    }

    /// Whether, before its last string, the dictionary's entries and closed
    /// runs alone are no smaller than `raw` or larger than `front`.
    fn dict_loses_on_a_prefix(vals: &[&str], raw: usize, front: usize) -> bool {
        let mut ids: HashMap<&str, usize> = HashMap::new();
        let (mut entries, mut runs, mut open) = (0, 0, None);
        for (i, s) in vals.iter().enumerate() {
            let next = ids.len();
            let id = *ids.entry(s).or_insert_with(|| {
                entries += uvarint_len(s.len()) + s.len();
                next
            });
            if let Some((run_id, len)) = open.filter(|&(run_id, _)| run_id != id) {
                runs += uvarint_len(run_id) + uvarint_len(len);
                open = None;
            }
            open = Some(open.map_or((id, 1), |(run_id, len)| (run_id, len + 1)));
            let bound = uvarint_len(ids.len()) + entries + runs;
            if i + 1 < vals.len() && (bound >= raw || bound > front) {
                return true;
            }
        }
        false
    }

    fn encode_column(cells: &[&Value], out: &mut Vec<u8>, tally: &mut Tally) {
        let all_int = cells.iter().all(|v| matches!(v, Value::Int(_)));
        let all_ts = cells.iter().all(|v| matches!(v, Value::Timestamp(_)));
        if !cells.is_empty() && (all_int || all_ts) {
            let vals: Vec<i64> = cells
                .iter()
                .filter_map(|v| match v {
                    Value::Int(i) | Value::Timestamp(i) => Some(*i),
                    _ => None,
                })
                .collect();
            let mut plain = Vec::new();
            encode_int_plain(&vals, &mut plain);
            let mut d2 = Vec::new();
            encode_int_delta2(&vals, &mut d2);
            let mut rle = Vec::new();
            encode_int_rle(&vals, &mut rle);
            let ty = if all_int { 1 } else { 4 };
            let sizes = [plain.len(), d2.len(), rle.len()];
            let (tag, body) = if plain.len() <= d2.len() && plain.len() <= rle.len() {
                (1, plain)
            } else if d2.len() <= rle.len() {
                (2, d2)
            } else {
                (3, rle)
            };
            tally.wins[tag as usize] += 1;
            tally.ties += usize::from(sizes.iter().filter(|&&s| s == body.len()).count() > 1);
            out.push(tag);
            out.push(ty);
            out.extend_from_slice(&body);
            return;
        }
        if !cells.is_empty() && cells.iter().all(|v| matches!(v, Value::Str(_))) {
            let vals: Vec<&str> = cells
                .iter()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            let mut raw = Vec::new();
            encode_str_raw(&vals, &mut raw);
            let mut dict = Vec::new();
            encode_str_dict(&vals, &mut dict);
            let mut front = Vec::new();
            encode_str_front(&vals, &mut front);
            let sizes = [raw.len(), dict.len(), front.len()];
            let dict_lost = dict.len() >= raw.len() || dict.len() > front.len();
            if dict_lost && dict_loses_on_a_prefix(&vals, raw.len(), front.len()) {
                tally.dict_stopped += 1;
            }
            let (tag, body) = if raw.len() <= dict.len() && raw.len() <= front.len() {
                (4, raw)
            } else if dict.len() <= front.len() {
                (5, dict)
            } else {
                (6, front)
            };
            tally.wins[tag as usize] += 1;
            tally.ties += usize::from(sizes.iter().filter(|&&s| s == body.len()).count() > 1);
            out.push(tag);
            out.extend_from_slice(&body);
            return;
        }
        if !cells.is_empty() && cells.iter().all(|v| matches!(v, Value::Double(_))) {
            out.push(7);
            for v in cells {
                if let Value::Double(d) = v {
                    out.extend_from_slice(&d.to_bits().to_le_bytes());
                }
            }
            return;
        }
        if !cells.is_empty() && cells.iter().all(|v| matches!(v, Value::Bool(_))) {
            out.push(8);
            for v in cells {
                if let Value::Bool(b) = v {
                    out.push(*b as u8);
                }
            }
            return;
        }
        out.push(0);
        for v in cells {
            put_cell(out, v);
        }
    }

    /// `encode_rows_block` as it stood, over the chooser above.
    pub fn encode_rows_block(rows: &[Row], tally: &mut Tally) -> Vec<u8> {
        let mut out = Vec::new();
        let uniform = rows.windows(2).all(|w| w[0].len() == w[1].len());
        if uniform && !rows.is_empty() {
            out.push(0);
            put_uvarint(&mut out, rows.len() as u64);
            let ncols = rows[0].len();
            put_uvarint(&mut out, ncols as u64);
            for c in 0..ncols {
                let cells: Vec<&Value> = rows.iter().map(|r| &r.values()[c]).collect();
                encode_column(&cells, &mut out, tally);
            }
        } else {
            out.push(1);
            put_uvarint(&mut out, rows.len() as u64);
            for row in rows {
                put_uvarint(&mut out, row.len() as u64);
                for v in row.values() {
                    put_cell(&mut out, v);
                }
            }
        }
        out
    }
}

/// xorshift64*: deterministic cases without a strategy per column shape.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One column of `n` cells in one of the shapes that make each candidate
/// win: wide random integers (plain), strided sequences (delta-of-delta),
/// constant runs (RLE), short unique strings (raw), a few long strings
/// repeated (dictionary), generated keys (front coding) — and two-cell
/// columns and empty strings, where candidates tie.
fn column(shape: u64, n: usize, rng: &mut Rng) -> Vec<Value> {
    let int = |i: i64, rng: &mut Rng| {
        if rng.below(4) == 0 {
            Value::Timestamp(i)
        } else {
            Value::Int(i)
        }
    };
    let ts = rng.below(2) == 0;
    let as_int = |i: i64| {
        if ts {
            Value::Timestamp(i)
        } else {
            Value::Int(i)
        }
    };
    match shape {
        0 => (0..n).map(|_| as_int(rng.next() as i64)).collect(),
        1 => {
            let (start, stride) = (rng.next() as i64 >> 8, rng.below(1000) as i64 - 500);
            (0..n)
                .map(|i| as_int(start.wrapping_add(stride * i as i64 + rng.below(2) as i64)))
                .collect()
        }
        2 => {
            let mut v = rng.next() as i64;
            (0..n)
                .map(|_| {
                    if rng.below(40) == 0 {
                        v = rng.below(300) as i64;
                    }
                    as_int(v)
                })
                .collect()
        }
        3 => (0..n)
            .map(|_| Value::Str(format!("{:x}", rng.below(4096))))
            .collect(),
        4 => {
            let words: Vec<String> = (0..1 + rng.below(4))
                .map(|w| format!("category-{w}-{}", "x".repeat(rng.below(24) as usize)))
                .collect();
            (0..n)
                .map(|_| Value::Str(words[rng.below(words.len() as u64) as usize].clone()))
                .collect()
        }
        5 => {
            let base = rng.below(1 << 30);
            (0..n)
                .map(|i| Value::Str(format!("row-{:010}-é-{}", base + i as u64, "abc".repeat(4))))
                .collect()
        }
        6 => (0..n)
            .map(|_| {
                Value::Str(if rng.below(3) == 0 {
                    "é".into()
                } else {
                    String::new()
                })
            })
            .collect(),
        7 => (0..n).map(|_| int(rng.below(3) as i64, rng)).collect(),
        _ => (0..n)
            .map(|_| match rng.below(3) {
                0 => Value::Null,
                1 => Value::Double(rng.below(10) as f64),
                _ => Value::Bool(rng.below(2) == 0),
            })
            .collect(),
    }
}

#[test]
fn the_sized_chooser_writes_what_encoding_every_candidate_wrote() {
    let mut tally = emit_all::Tally::default();
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for case in 0..1500 {
        let n = match case % 5 {
            0 => 1 + rng.below(3) as usize,
            _ => 1 + rng.below(300) as usize,
        };
        let cols: Vec<Vec<Value>> = (0..1 + rng.below(4))
            .map(|_| column(rng.below(9), n, &mut rng))
            .collect();
        let rows: Vec<Row> = (0..n)
            .map(|r| Row::new(cols.iter().map(|c| c[r].clone()).collect()))
            .collect();
        let want = emit_all::encode_rows_block(&rows, &mut tally);
        assert_eq!(encode_rows_block(&rows), want, "case {case}: {rows:?}");
        assert_eq!(decode_rows_block(&want).unwrap(), rows, "case {case}");
    }
    // Every integer and string candidate won somewhere, candidates tied,
    // and dictionaries lost early enough for the sized chooser to stop.
    for tag in 1..=6 {
        assert!(
            tally.wins[tag] > 0,
            "column tag {tag} never won: {:?}",
            tally.wins
        );
    }
    assert!(tally.ties > 20, "{} ties", tally.ties);
    assert!(
        tally.dict_stopped > 20,
        "{} early dictionary stops",
        tally.dict_stopped
    );
}

/// A column of `n` cells that one of the shapes [`column`] has not: every
/// cell equal (of any kind, NULL and NaN included), every string distinct
/// (multi-byte ones among them), or doubles that are NaN payloads and both
/// zeros.
fn edge_column(shape: u64, n: usize, rng: &mut Rng) -> Vec<Value> {
    match shape {
        0 => {
            let v = match rng.below(5) {
                0 => Value::Null,
                1 => Value::Int(rng.next() as i64),
                2 => Value::Str(format!("same-é-{}", rng.below(100))),
                3 => Value::Double(f64::from_bits(0xFFF8_0000_0000_0000 | rng.below(1 << 20))),
                _ => Value::Bool(rng.below(2) == 0),
            };
            vec![v; n]
        }
        1 => (0..n)
            .map(|i| Value::Str(format!("{i}-{}-日本", "x".repeat(rng.below(20) as usize))))
            .collect(),
        _ => (0..n)
            .map(|_| {
                Value::Double(match rng.below(3) {
                    0 => f64::from_bits(rng.next() | 0x7FF0_0000_0000_0001),
                    1 => 0.0,
                    _ => -0.0,
                })
            })
            .collect(),
    }
}

#[test]
fn uniform_tables_write_the_same_file_from_records_and_from_rows() {
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    for case in 0..160 {
        let n = rng.below(700) as usize;
        let block_rows = [1, 5, 64, 1024][rng.below(4) as usize];
        let cols: Vec<Vec<Value>> = (0..1 + rng.below(4))
            .map(|_| match rng.below(12) {
                shape @ 0..9 => column(shape, n, &mut rng),
                shape => edge_column(shape - 9, n, &mut rng),
            })
            .collect();
        let rows: Vec<Row> = (0..n)
            .map(|r| Row::new(cols.iter().map(|c| c[r].clone()).collect()))
            .collect();
        let from_records = sink_file(&rows, block_rows, true);
        assert_eq!(
            from_records,
            sink_file(&rows, block_rows, false),
            "case {case}"
        );
        assert_eq!(
            from_records,
            reference_file(&rows, block_rows),
            "case {case}"
        );
    }
}

/// The front coding's split one byte at a time, as the encoder found it
/// before it compared words: the reference [`front_split`] must equal.
fn bytewise_front_split(prev: &[u8], cur: &[u8]) -> (usize, usize) {
    let max_p = prev.len().min(cur.len());
    let mut p = 0;
    while p < max_p && prev[p] == cur[p] {
        p += 1;
    }
    let max_s = max_p - p;
    let mut sfx = 0;
    while sfx < max_s && prev[prev.len() - 1 - sfx] == cur[cur.len() - 1 - sfx] {
        sfx += 1;
    }
    (p, sfx)
}

#[test]
fn front_split_equals_the_bytewise_reference_across_word_edges() {
    // One byte changed at every position of every pair of lengths 0–40
    // (or none changed): each prefix and suffix length, so each word edge.
    for prev_len in 0..=40 {
        let prev = vec![b'a'; prev_len];
        for cur_len in 0..=40 {
            for changed in 0..=cur_len {
                let mut cur = vec![b'a'; cur_len];
                if changed < cur_len {
                    cur[changed] = 0xC3;
                }
                assert_eq!(
                    front_split(&prev, &cur),
                    bytewise_front_split(&prev, &cur),
                    "{prev_len} vs {cur_len}, byte {changed} changed"
                );
            }
        }
    }
    // A shared prefix and suffix of random lengths around a random middle,
    // over a small alphabet so the middle often extends them by accident.
    let alphabet = [b'a', b'b', 0xC3, 0xA9];
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    for _ in 0..20_000 {
        let prev: Vec<u8> = (0..rng.below(41))
            .map(|_| alphabet[rng.below(4) as usize])
            .collect();
        let keep_front = rng.below(prev.len() as u64 + 1) as usize;
        let keep_back = rng.below((prev.len() - keep_front) as u64 + 1) as usize;
        let mut cur = prev[..keep_front].to_vec();
        cur.extend((0..rng.below(12)).map(|_| alphabet[rng.below(4) as usize]));
        cur.extend_from_slice(&prev[prev.len() - keep_back..]);
        cur.truncate(40);
        assert_eq!(
            front_split(&prev, &cur),
            bytewise_front_split(&prev, &cur),
            "{prev:?} vs {cur:?}"
        );
    }
    // The prefix and the suffix never share a byte of the shorter string.
    assert_eq!(front_split(b"aaaa", b"aaaaaa"), (4, 0));
    assert_eq!(front_split(b"aaaaaa", b"aaaa"), (4, 0));
    assert_eq!(front_split(b"", b"aaaa"), (0, 0));
}
