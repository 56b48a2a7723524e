//! The compact delta codec: columnar row blocks and the snapshot and
//! delta-batch files built from them.
//!
//! The paper's quantitative claims are about *bytes on the wire* (§3.1.3's
//! bandwidth-bound remote staging, §4.1's message-volume argument), so the
//! ship path treats its encodings as a first-class perf surface. This module
//! provides the shared primitives:
//!
//! * varint/zigzag integer coding and a CRC-32 (IEEE) folded in four
//!   interleaved lanes,
//! * CRC-framed blocks (`[u32 le len][payload][u32 le crc]`) with a
//!   format-version byte baked into every magic,
//! * a self-describing **columnar row-block** codec: per-column encodings
//!   chosen by size — plain zigzag varints, delta-of-delta for monotone
//!   sequences, RLE for constant runs, dictionary + RLE and front/back
//!   coding for strings, raw tagged cells as the fallback. The encoder
//!   reads borrowed [`Cell`]s through [`BlockRow`], so rows, delta records
//!   and stored records feed the same code. It works out each candidate's
//!   exact size and writes only the winner; the dictionary candidate stops
//!   as soon as it cannot win, and the front coding finds each string's
//!   shared prefix and suffix once, eight bytes at a time, for sizing and
//!   writing both,
//! * one block decoder, [`decode_block`], whose [`Block`] keeps each column
//!   in its own form (numbers in typed vectors, strings as spans of one
//!   text) and is read cell by cell in place; [`decode_rows_block`] and
//!   [`RowSource::next_row`] are that decoder plus row assembly
//!   (DESIGN.md §34),
//! * streaming snapshot readers/writers ([`RowSource`]/[`RowSink`]) over
//!   the one snapshot format: [`SNAP_MAGIC`], a CRC-framed header naming
//!   the columns the rows are sorted on (none for a heap-order dump), then
//!   row blocks. [`RowSink`] buffers a block as record bytes — a heap's
//!   records as they are stored, or rows encoded to that form — and
//!   transcodes them into columns without building a row (DESIGN.md §35).
//!
//! WAL segments are not encoded here: a segment is archived by rename and
//! read as the log wrote it (DESIGN.md §23).
//!
//! Each artifact has one format (DESIGN.md §12). Every magic starts with a
//! `0xFF` lead byte, which can never appear in UTF-8 text, and a reader
//! handed anything else — a damaged magic, an empty file, text — fails with
//! a typed [`StorageError::Corrupt`] instead of guessing at another format.
//!
//! Decoders never panic: all lengths are bounds-checked against the remaining
//! input before use and every failure is a typed [`StorageError::Corrupt`].
//! A count read from the input reserves at most 8 MiB before the cells
//! behind it decode.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::hash::BuildHasherDefault;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::{StorageError, StorageResult};
use crate::record::{read_cells, Row};
use crate::value::{Cell, Value};

/// The one wire and snapshot codec. Nothing branches on it: it survives only
/// because the frozen dwbench harness names it (`DbOptions::delta_codec`,
/// `Pipeline::with_codec`, `DeltaBatch::to_bytes_with`), and ROADMAP item 5's
/// benchmark PR removes it with those names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaCodec {
    /// Columnar CRC-framed blocks (snapshots and delta batches).
    #[default]
    Columnar,
}

/// Version byte carried in every magic; bump on incompatible layout changes.
pub const FORMAT_VERSION: u8 = 1;
/// Version byte of the snapshot magic: 2 since the header block that names
/// the sort key (DESIGN.md §30). A version-1 snapshot, which has no header,
/// is typed corruption like any other bad magic.
pub const SNAP_VERSION: u8 = 2;
/// Magic prefix of a columnar snapshot file.
pub const SNAP_MAGIC: [u8; 4] = [0xFF, b'C', b'S', SNAP_VERSION];
/// Magic prefix of a columnar delta-batch envelope.
pub const BATCH_MAGIC: [u8; 4] = [0xFF, b'C', b'B', FORMAT_VERSION];
/// Default rows per columnar block (snapshots and batches).
pub const DEFAULT_BLOCK_ROWS: usize = 1024;
/// Sanity bound on the columns a snapshot header may name as its sort key.
const MAX_KEY_COLUMNS: usize = 64;
/// Sanity bound on any single decoded allocation (snapshot and batch blocks
/// are a few hundred KiB); a corrupt length claiming more than
/// this is rejected before allocating.
const MAX_DECODED_LEN: usize = 64 * 1024 * 1024;

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("colbatch: {what}"))
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3): four interleaved lanes, sliced by 8 and 16.
// ---------------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the classic bytewise table of the reflected
/// polynomial; `CRC32_TABLES[k][b]` is that entry carried through `k` more
/// zero bytes, so sixteen lookups fold a 16-byte block at once.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Bytes per lane of the interleaved kernel (a multiple of 8). Four lanes
/// make a 2 016-byte stripe, so a page's 8 176 bytes past its CRC word are
/// four stripes and a 112-byte tail.
const CRC32_LANE: usize = 504;

/// Bytes one stripe of the interleaved kernel folds.
const CRC32_STRIPE: usize = 4 * CRC32_LANE;

/// The CRC register carried through [`CRC32_LANE`] zero bytes, as four
/// tables of one byte of the register each: the CRC register is linear in
/// its bits, so `LANE_SHIFT[0][c & 0xFF] ^ … ^ LANE_SHIFT[3][c >> 24]` is
/// the register `c` moved past one lane.
const fn crc32_lane_shift() -> [[u32; 256]; 4] {
    let byte = crc32_tables()[0];
    // The register of each single set bit, moved past one lane.
    let mut basis = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut c = 1u32 << bit;
        let mut n = 0;
        while n < CRC32_LANE {
            c = (c >> 8) ^ byte[(c & 0xFF) as usize];
            n += 1;
        }
        basis[bit] = c;
        bit += 1;
    }
    let mut shift = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut j = 0;
            while j < 8 {
                if b & (1 << j) != 0 {
                    shift[k][b] ^= basis[8 * k + j];
                }
                j += 1;
            }
            b += 1;
        }
        k += 1;
    }
    shift
}

static CRC32_LANE_SHIFT: [[u32; 256]; 4] = crc32_lane_shift();

/// Continue a CRC-32 (IEEE) over `bytes`: `state` is the CRC of everything
/// before them (0 for nothing), so `crc32_update(crc32(a), b)` equals the
/// CRC of `a` followed by `b`.
///
/// A long input is folded a [`CRC32_STRIPE`] at a time in four lanes whose
/// dependency chains interleave, each sliced by 8; a lane's register is
/// moved past the lanes after it through [`CRC32_LANE_SHIFT`] and the four
/// are combined by xor. The tail (and any input shorter than a stripe) is
/// sliced by 16 in one chain.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = !state;
    let (stripes, tail) = bytes.as_chunks::<CRC32_STRIPE>();
    for stripe in stripes {
        c = crc32_stripe(c, stripe);
    }
    !crc32_sliced16(c, tail)
}

/// Fold one stripe into the register `c`: the first lane starts from `c`,
/// the other three from zero.
fn crc32_stripe(c: u32, stripe: &[u8; CRC32_STRIPE]) -> u32 {
    let words = |lane: usize| {
        stripe[lane * CRC32_LANE..(lane + 1) * CRC32_LANE]
            .as_chunks::<8>()
            .0
            .iter()
    };
    let (mut c0, mut c1, mut c2, mut c3) = (c, 0u32, 0u32, 0u32);
    for (((w0, w1), w2), w3) in words(0).zip(words(1)).zip(words(2)).zip(words(3)) {
        c0 = crc32_sliced8(c0, w0);
        c1 = crc32_sliced8(c1, w1);
        c2 = crc32_sliced8(c2, w2);
        c3 = crc32_sliced8(c3, w3);
    }
    let shift = |c: u32| {
        let s = &CRC32_LANE_SHIFT;
        s[0][(c & 0xFF) as usize]
            ^ s[1][((c >> 8) & 0xFF) as usize]
            ^ s[2][((c >> 16) & 0xFF) as usize]
            ^ s[3][(c >> 24) as usize]
    };
    shift(shift(shift(c0) ^ c1) ^ c2) ^ c3
}

/// Fold eight bytes into the register `c` with eight lookups.
#[inline(always)]
fn crc32_sliced8(c: u32, w: &[u8; 8]) -> u32 {
    let t = &CRC32_TABLES;
    let v = u64::from_le_bytes(*w) ^ c as u64;
    t[7][(v & 0xFF) as usize]
        ^ t[6][((v >> 8) & 0xFF) as usize]
        ^ t[5][((v >> 16) & 0xFF) as usize]
        ^ t[4][((v >> 24) & 0xFF) as usize]
        ^ t[3][((v >> 32) & 0xFF) as usize]
        ^ t[2][((v >> 40) & 0xFF) as usize]
        ^ t[1][((v >> 48) & 0xFF) as usize]
        ^ t[0][(v >> 56) as usize]
}

/// Fold `bytes` into the register `c` sixteen bytes a lookup round, then
/// the rest a byte at a time.
fn crc32_sliced16(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        let w = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(w & 0xFF) as usize]
            ^ t[14][((w >> 8) & 0xFF) as usize]
            ^ t[13][((w >> 16) & 0xFF) as usize]
            ^ t[12][(w >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// The state a 64-bit FNV-1a fold starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running 64-bit FNV-1a `state` (start from
/// [`FNV1A_OFFSET`]). The checksum of a WAL entry, a queue frame, a shipped
/// file's manifest line and an export dump.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0100_0000_01b3);
    }
    state
}

// ---------------------------------------------------------------------------
// Varints and zigzag.
// ---------------------------------------------------------------------------

/// Append `v` as a LEB128 unsigned varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a LEB128 unsigned varint, advancing `buf`.
pub fn get_uvarint(buf: &mut &[u8]) -> StorageResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = get_u8(buf)?;
        if shift >= 63 && b > 1 {
            return Err(corrupt("varint overflows u64"));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(corrupt("varint longer than 10 bytes"));
        }
    }
}

/// Map a signed integer onto the unsigned varint domain (small magnitudes in
/// either sign stay small).
pub fn zigzag(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

/// Inverse of [`zigzag`].
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Append `v` zigzag-varint encoded.
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, zigzag(v));
}

/// Read a zigzag-varint signed integer.
pub fn get_ivarint(buf: &mut &[u8]) -> StorageResult<i64> {
    Ok(unzigzag(get_uvarint(buf)?))
}

// ---------------------------------------------------------------------------
// Bounds-checked slice readers.
// ---------------------------------------------------------------------------

/// Split `n` bytes off the front of `buf`, or a typed error.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> StorageResult<&'a [u8]> {
    if n > buf.len() {
        return Err(corrupt("truncated input"));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn get_u8(buf: &mut &[u8]) -> StorageResult<u8> {
    match buf.split_first() {
        Some((&b, rest)) => {
            *buf = rest;
            Ok(b)
        }
        None => Err(corrupt("truncated input")),
    }
}

fn get_u32le(buf: &mut &[u8]) -> StorageResult<u32> {
    let b = take(buf, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Read a varint length followed by that many bytes.
fn get_len_bytes<'a>(buf: &mut &'a [u8]) -> StorageResult<&'a [u8]> {
    let n = get_uvarint(buf)? as usize;
    take(buf, n)
}

// ---------------------------------------------------------------------------
// CRC-framed blocks.
// ---------------------------------------------------------------------------

/// Append one framed block: `[u32 le payload_len][payload][u32 le crc32]`.
pub fn put_block(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Read one framed block, verifying its CRC.
pub fn get_block<'a>(buf: &mut &'a [u8]) -> StorageResult<&'a [u8]> {
    let len = get_u32le(buf)? as usize;
    if len > MAX_DECODED_LEN {
        return Err(corrupt("block length exceeds sanity bound"));
    }
    let payload = take(buf, len)?;
    let want = get_u32le(buf)?;
    if crc32(payload) != want {
        return Err(corrupt("block CRC mismatch"));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Raw tagged cells (shared by the COL_RAW column and ragged rows).
// ---------------------------------------------------------------------------

const CELL_NULL: u8 = 0;
const CELL_INT: u8 = 1;
const CELL_DOUBLE: u8 = 2;
const CELL_STR: u8 = 3;
const CELL_TIMESTAMP: u8 = 4;
const CELL_BOOL: u8 = 5;

/// Append `cell` as a raw tagged cell: its tag byte, then a zigzag varint,
/// the eight little-endian bytes of a double, a length-prefixed string or a
/// bool byte. The form of a mixed column's cells and of a ragged block's;
/// each cell's bytes end where its tag says, so cells written back to back
/// spell out their sequence unambiguously.
pub fn put_cell(out: &mut Vec<u8>, cell: Cell<'_>) {
    match cell {
        Cell::Null => out.push(CELL_NULL),
        Cell::Int(i) => {
            out.push(CELL_INT);
            put_ivarint(out, i);
        }
        Cell::Double(d) => {
            out.push(CELL_DOUBLE);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Cell::Str(s) => {
            out.push(CELL_STR);
            put_uvarint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Cell::Timestamp(t) => {
            out.push(CELL_TIMESTAMP);
            put_ivarint(out, t);
        }
        Cell::Bool(b) => {
            out.push(CELL_BOOL);
            out.push(b as u8);
        }
    }
}

fn get_cell(buf: &mut &[u8]) -> StorageResult<Value> {
    match get_u8(buf)? {
        CELL_NULL => Ok(Value::Null),
        CELL_INT => Ok(Value::Int(get_ivarint(buf)?)),
        CELL_DOUBLE => {
            let b = take(buf, 8)?;
            Ok(Value::Double(f64::from_bits(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))))
        }
        CELL_STR => Ok(Value::Str(
            get_str(buf, "string cell is not UTF-8")?.to_string(),
        )),
        CELL_TIMESTAMP => Ok(Value::Timestamp(get_ivarint(buf)?)),
        CELL_BOOL => match get_u8(buf)? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            _ => Err(corrupt("bool cell is neither 0 nor 1")),
        },
        _ => Err(corrupt("unknown cell tag")),
    }
}

// ---------------------------------------------------------------------------
// Column encodings.
// ---------------------------------------------------------------------------

const COL_RAW: u8 = 0;
const COL_INT_PLAIN: u8 = 1;
const COL_INT_DELTA2: u8 = 2;
const COL_INT_RLE: u8 = 3;
const COL_STR_RAW: u8 = 4;
const COL_STR_DICT: u8 = 5;
const COL_STR_FRONT: u8 = 6;
const COL_DOUBLE_RAW: u8 = 7;
const COL_BOOL_RAW: u8 = 8;

/// Integer-family columns carry the concrete constructor after the tag so
/// `Int` and `Timestamp` columns share the three integer encodings.
fn int_of(c: &Cell<'_>) -> Option<i64> {
    match *c {
        Cell::Int(i) | Cell::Timestamp(i) => Some(i),
        _ => None,
    }
}

/// Bytes `v` takes as a LEB128 varint.
fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Bytes `v` takes zigzag-varint encoded.
fn ivarint_len(v: i64) -> usize {
    uvarint_len(zigzag(v))
}

fn encode_int_plain(vals: &[i64], out: &mut Vec<u8>) {
    for &v in vals {
        put_ivarint(out, v);
    }
}

/// Delta-of-delta: monotone sequences with a near-constant stride (LSNs,
/// sequence numbers, timestamps, dense primary keys) collapse to runs of
/// zero second differences. Wrapping arithmetic keeps the mapping bijective
/// for every `i64`, so round trips are exact at the extremes too.
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

fn decode_int_delta2(buf: &mut &[u8], n: usize, out: &mut Vec<i64>) -> StorageResult<()> {
    let mut prev = 0i64;
    let mut prev_delta = 0i64;
    for i in 0..n {
        let v = if i == 0 {
            get_ivarint(buf)?
        } else {
            prev_delta = prev_delta.wrapping_add(get_ivarint(buf)?);
            prev.wrapping_add(prev_delta)
        };
        out.push(v);
        prev = v;
    }
    Ok(())
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

fn decode_int_rle(buf: &mut &[u8], n: usize, out: &mut Vec<i64>) -> StorageResult<()> {
    while out.len() < n {
        let v = get_ivarint(buf)?;
        let run = get_uvarint(buf)? as usize;
        if run == 0 || run > n - out.len() {
            return Err(corrupt("RLE run leaves the column"));
        }
        out.resize(out.len() + run, v);
    }
    Ok(())
}

/// Exact body sizes of the plain, delta-of-delta and RLE encodings of
/// `vals`, worked out in one pass without writing a byte.
fn int_sizes(vals: &[i64]) -> [usize; 3] {
    let (mut plain, mut d2, mut rle) = (0, 0, 0);
    let (mut prev, mut prev_delta, mut run) = (0i64, 0i64, 0usize);
    for (i, &v) in vals.iter().enumerate() {
        plain += ivarint_len(v);
        if i == 0 {
            d2 += ivarint_len(v);
        } else {
            let delta = v.wrapping_sub(prev);
            d2 += ivarint_len(delta.wrapping_sub(prev_delta));
            prev_delta = delta;
            if v != prev {
                rle += ivarint_len(prev) + uvarint_len(run as u64);
                run = 0;
            }
        }
        run += 1;
        prev = v;
    }
    if run > 0 {
        rle += ivarint_len(prev) + uvarint_len(run as u64);
    }
    [plain, d2, rle]
}

/// The eight bytes of `b` at `at`, as a little-endian word.
#[inline]
fn word_at(b: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(w)
}

/// How many leading bytes two equal-length strings share, eight at a time:
/// the first differing byte of a word is its lowest set byte of the XOR.
fn shared_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let x = word_at(a, i) ^ word_at(b, i);
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// How many trailing bytes two equal-length strings share, eight at a time
/// from the end: in a little-endian word the last byte is the highest.
fn shared_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let mut k = 0;
    while k + 8 <= n {
        let x = word_at(a, n - k - 8) ^ word_at(b, n - k - 8);
        if x != 0 {
            return k + (x.leading_zeros() / 8) as usize;
        }
        k += 8;
    }
    while k < n && a[n - 1 - k] == b[n - 1 - k] {
        k += 1;
    }
    k
}

/// The byte prefix and suffix `cur` shares with `prev`, the two never
/// overlapping in either string: the suffix is sought only in what is
/// left of the shorter string once the prefix is taken. The split the
/// front coding writes for `cur` after `prev`.
pub fn front_split(prev: &[u8], cur: &[u8]) -> (usize, usize) {
    let p = shared_prefix(prev, cur);
    let max_s = prev.len().min(cur.len()) - p;
    let sfx = shared_suffix(&prev[prev.len() - max_s..], &cur[cur.len() - max_s..]);
    (p, sfx)
}

/// Each string's [`front_split`] against the one before it (the first
/// against the empty string), worked out once for sizing and writing.
fn front_splits(vals: &[&str]) -> Vec<(usize, usize)> {
    let mut splits = Vec::with_capacity(vals.len());
    let mut prev: &[u8] = b"";
    for s in vals {
        let cur = s.as_bytes();
        splits.push(front_split(prev, cur));
        prev = cur;
    }
    splits
}

/// Front/back coding against the previous string: shared byte prefix and
/// suffix lengths plus the distinct middle. Generated-key columns with a
/// shared shape ("row-0000000001-aaaa…") collapse to a few bytes per cell.
/// `splits` is [`front_splits`] of `vals`.
fn encode_str_front(vals: &[&str], splits: &[(usize, usize)], out: &mut Vec<u8>) {
    for (s, &(p, sfx)) in vals.iter().zip(splits) {
        let cur = s.as_bytes();
        put_uvarint(out, p as u64);
        put_uvarint(out, sfx as u64);
        let mid = &cur[p..cur.len() - sfx];
        put_uvarint(out, mid.len() as u64);
        out.extend_from_slice(mid);
    }
}

/// Exact body size of [`encode_str_front`] over `vals`.
fn str_front_size(vals: &[&str], splits: &[(usize, usize)]) -> usize {
    vals.iter()
        .zip(splits)
        .map(|(s, &(p, sfx))| {
            let mid = s.len() - p - sfx;
            uvarint_len(p as u64) + uvarint_len(sfx as u64) + uvarint_len(mid as u64) + mid
        })
        .sum()
}

/// A [`Hasher`](std::hash::Hasher) over [`fnv1a`] for the dictionary
/// encoder's map. The map lives for one column of one block, so keys
/// crafted to collide cost that block quadratic time in its row count and
/// nothing more.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(FNV1A_OFFSET)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A column's distinct strings, each mapped to its dictionary id.
type DictIds<'a> = HashMap<&'a str, usize, BuildHasherDefault<Fnv1a>>;

/// Whether [`encode_str_dict`] over `vals` wins, `loses(size)` being true
/// of a body size that cannot. The size is counted string by string, and
/// since the dictionary and the closed runs only grow, the count stops as
/// soon as they alone lose.
fn str_dict_wins(vals: &[&str], loses: impl Fn(usize) -> bool) -> bool {
    let mut ids = DictIds::default();
    let (mut entries, mut runs) = (0usize, 0usize);
    // (id, length) of the run still open.
    let mut open: Option<(usize, usize)> = None;
    for &s in vals {
        let next = ids.len();
        let id = *ids.entry(s).or_insert_with(|| {
            entries += uvarint_len(s.len() as u64) + s.len();
            next
        });
        open = match open {
            Some((run_id, len)) if run_id == id => Some((id, len + 1)),
            Some((run_id, len)) => {
                runs += uvarint_len(run_id as u64) + uvarint_len(len as u64);
                Some((id, 1))
            }
            None => Some((id, 1)),
        };
        if loses(uvarint_len(ids.len() as u64) + entries + runs) {
            return false;
        }
    }
    if let Some((run_id, len)) = open {
        runs += uvarint_len(run_id as u64) + uvarint_len(len as u64);
    }
    !loses(uvarint_len(ids.len() as u64) + entries + runs)
}

fn encode_str_dict(vals: &[&str], out: &mut Vec<u8>) {
    let mut dict: Vec<&str> = Vec::new();
    let mut index = DictIds::default();
    let mut ids: Vec<usize> = Vec::with_capacity(vals.len());
    for &s in vals {
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

/// Encode one column in the smallest candidate encoding. `cells` holds one
/// value per row. Each candidate's exact size is worked out first and only
/// the winner is written; ties go to the candidate listed first.
fn encode_column(cells: &[Cell<'_>], out: &mut Vec<u8>) {
    // Uniform integer family (Int or Timestamp)?
    let all_int = cells.iter().all(|c| matches!(c, Cell::Int(_)));
    let all_ts = cells.iter().all(|c| matches!(c, Cell::Timestamp(_)));
    if !cells.is_empty() && (all_int || all_ts) {
        // Sized up front: `filter_map` would grow the vector a doubling at
        // a time.
        let mut vals: Vec<i64> = Vec::with_capacity(cells.len());
        vals.extend(cells.iter().filter_map(int_of));
        let [plain, d2, rle] = int_sizes(&vals);
        let tag = if plain <= d2 && plain <= rle {
            COL_INT_PLAIN
        } else if d2 <= rle {
            COL_INT_DELTA2
        } else {
            COL_INT_RLE
        };
        out.push(tag);
        out.push(if all_int { CELL_INT } else { CELL_TIMESTAMP });
        match tag {
            COL_INT_PLAIN => encode_int_plain(&vals, out),
            COL_INT_DELTA2 => encode_int_delta2(&vals, out),
            _ => encode_int_rle(&vals, out),
        }
        return;
    }
    // Uniform strings?
    if !cells.is_empty() && cells.iter().all(|c| matches!(c, Cell::Str(_))) {
        let mut vals: Vec<&str> = Vec::with_capacity(cells.len());
        vals.extend(cells.iter().filter_map(|c| match *c {
            Cell::Str(s) => Some(s),
            _ => None,
        }));
        let raw: usize = vals
            .iter()
            .map(|s| uvarint_len(s.len() as u64) + s.len())
            .sum();
        let splits = front_splits(&vals);
        let front = str_front_size(&vals, &splits);
        // The dictionary wins only smaller than raw and no larger than front.
        if str_dict_wins(&vals, |size| size >= raw || size > front) {
            out.push(COL_STR_DICT);
            encode_str_dict(&vals, out);
        } else if raw <= front {
            out.push(COL_STR_RAW);
            encode_str_raw(&vals, out);
        } else {
            out.push(COL_STR_FRONT);
            encode_str_front(&vals, &splits, out);
        }
        return;
    }
    // Uniform doubles / bools get tag-free fixed cells.
    if !cells.is_empty() && cells.iter().all(|c| matches!(c, Cell::Double(_))) {
        out.push(COL_DOUBLE_RAW);
        for c in cells {
            if let Cell::Double(d) = c {
                out.extend_from_slice(&d.to_bits().to_le_bytes());
            }
        }
        return;
    }
    if !cells.is_empty() && cells.iter().all(|c| matches!(c, Cell::Bool(_))) {
        out.push(COL_BOOL_RAW);
        for c in cells {
            if let Cell::Bool(b) = c {
                out.push(*b as u8);
            }
        }
        return;
    }
    // Mixed types or NULLs: raw tagged cells.
    out.push(COL_RAW);
    for &c in cells {
        put_cell(out, c);
    }
}

// ---------------------------------------------------------------------------
// Decoded columns.
// ---------------------------------------------------------------------------

/// The most a decoder reserves for one vector before it has read the cells
/// that fill it. A count read from a block is only a claim until the cells
/// behind it decode, so a damaged count costs at most this much up front.
const MAX_RESERVE_BYTES: usize = 8 << 20;

/// An empty vector with room for `n` elements, or for as many as fit in
/// [`MAX_RESERVE_BYTES`].
fn reserve<T>(n: usize) -> Vec<T> {
    Vec::with_capacity(n.min(MAX_RESERVE_BYTES / std::mem::size_of::<T>().max(1)))
}

/// One column of a decoded uniform block, its cells in the column's own
/// form: numbers in a typed vector, strings as spans of one text.
enum Column {
    /// `Int` cells, or `Timestamp` cells when `timestamps`.
    Ints {
        vals: Vec<i64>,
        timestamps: bool,
    },
    /// Row `r`'s string is `text[spans[r].0..spans[r].1]`; a dictionary
    /// entry is stored once and spanned by every row that uses it.
    Strs {
        text: String,
        spans: Vec<(usize, usize)>,
    },
    Doubles(Vec<f64>),
    Bools(Vec<bool>),
    /// Raw tagged cells: a column of mixed types or with NULLs.
    Values(Vec<Value>),
}

impl Column {
    fn cell(&self, r: usize) -> Cell<'_> {
        match self {
            Column::Ints {
                vals,
                timestamps: false,
            } => Cell::Int(vals[r]),
            Column::Ints {
                vals,
                timestamps: true,
            } => Cell::Timestamp(vals[r]),
            // Every span was cut at the ends of a validated `&str`, so it
            // lies on char boundaries.
            Column::Strs { text, spans } => Cell::Str(&text[spans[r].0..spans[r].1]),
            Column::Doubles(vals) => Cell::Double(vals[r]),
            Column::Bools(vals) => Cell::Bool(vals[r]),
            Column::Values(vals) => vals[r].as_cell(),
        }
    }

    /// Row `r`'s cell, owned: a raw cell moves out (leaving NULL), any
    /// other is copied out of the column. For [`Block::into_rows`], which
    /// takes each row once.
    fn take(&mut self, r: usize) -> Value {
        match self {
            Column::Values(vals) => std::mem::replace(&mut vals[r], Value::Null),
            _ => self.cell(r).to_value(),
        }
    }

    /// How many of the `n` rows from row `i` on here and from row `j` on in
    /// `other` hold [`same_cell`]s. Two typed columns of one kind compare
    /// their slices; any other pairing, and a `Double` key column, compares
    /// cell by cell.
    fn equal_prefix(&self, i: usize, other: &Column, j: usize, n: usize, key: bool) -> usize {
        fn prefix<T>(a: &[T], b: &[T], eq: impl Fn(&T, &T) -> bool) -> usize {
            a.iter()
                .zip(b)
                .position(|(x, y)| !eq(x, y))
                .unwrap_or(a.len())
        }
        match (self, other) {
            (
                Column::Ints {
                    vals: a,
                    timestamps: ta,
                },
                Column::Ints {
                    vals: b,
                    timestamps: tb,
                },
            ) if ta == tb => prefix(&a[i..i + n], &b[j..j + n], |x, y| x == y),
            (Column::Strs { text: ta, spans: a }, Column::Strs { text: tb, spans: b }) => {
                let (ta, tb) = (ta.as_bytes(), tb.as_bytes());
                prefix(&a[i..i + n], &b[j..j + n], |x, y| {
                    ta[x.0..x.1] == tb[y.0..y.1]
                })
            }
            // `f64 ==`, as `Cell ==`: NaN is unequal to itself and ±0.0 are
            // equal. A key also needs `total_cmp`, which tells ±0.0 apart.
            (Column::Doubles(a), Column::Doubles(b)) if !key => {
                prefix(&a[i..i + n], &b[j..j + n], |x, y| x == y)
            }
            (Column::Bools(a), Column::Bools(b)) => {
                prefix(&a[i..i + n], &b[j..j + n], |x, y| x == y)
            }
            _ => (0..n)
                .position(|r| !same_cell(self.cell(i + r), other.cell(j + r), key))
                .unwrap_or(n),
        }
    }
}

/// Whether `a` and `b` are the same cell to a key-ordered merge: `==`, and
/// for a `key` cell also `Equal` under [`Cell::total_cmp`].
fn same_cell(a: Cell<'_>, b: Cell<'_>, key: bool) -> bool {
    a == b && (!key || a.total_cmp(&b).is_eq())
}

fn get_str<'a>(buf: &mut &'a [u8], what: &str) -> StorageResult<&'a str> {
    std::str::from_utf8(get_len_bytes(buf)?).map_err(|_| corrupt(what))
}

/// A string column's text, sized for the rest of the block at most.
fn column_text(buf: &[u8]) -> String {
    String::with_capacity(buf.len().min(MAX_RESERVE_BYTES))
}

fn decode_str_raw(buf: &mut &[u8], n: usize) -> StorageResult<Column> {
    let mut text = column_text(buf);
    let mut spans = reserve(n);
    for _ in 0..n {
        let start = text.len();
        text.push_str(get_str(buf, "string cell is not UTF-8")?);
        spans.push((start, text.len()));
    }
    Ok(Column::Strs { text, spans })
}

fn decode_str_dict(buf: &mut &[u8], n: usize) -> StorageResult<Column> {
    let dict_n = get_uvarint(buf)? as usize;
    if dict_n > buf.len() {
        return Err(corrupt("dictionary larger than remaining input"));
    }
    let mut text = column_text(buf);
    let mut entries: Vec<(usize, usize)> = reserve(dict_n);
    for _ in 0..dict_n {
        let start = text.len();
        text.push_str(get_str(buf, "dictionary entry is not UTF-8")?);
        entries.push((start, text.len()));
    }
    let mut spans = reserve(n);
    while spans.len() < n {
        let id = get_uvarint(buf)? as usize;
        let run = get_uvarint(buf)? as usize;
        if run == 0 || run > n - spans.len() {
            return Err(corrupt("dictionary RLE run leaves the column"));
        }
        let Some(&span) = entries.get(id) else {
            return Err(corrupt("dictionary index out of range"));
        };
        spans.resize(spans.len() + run, span);
    }
    Ok(Column::Strs { text, spans })
}

fn decode_str_front(buf: &mut &[u8], n: usize) -> StorageResult<Column> {
    let mut text = column_text(buf);
    let mut spans = reserve(n);
    // The string being rebuilt, checked whole before it joins the text: a
    // shared prefix or suffix may end inside a character.
    let mut cur = Vec::new();
    let mut prev = (0, 0);
    for _ in 0..n {
        let p = get_uvarint(buf)? as usize;
        let sfx = get_uvarint(buf)? as usize;
        let mid = get_len_bytes(buf)?;
        let prev_bytes = &text.as_bytes()[prev.0..prev.1];
        if p.checked_add(sfx)
            .is_none_or(|shared| shared > prev_bytes.len())
        {
            return Err(corrupt("front-coded prefix/suffix exceed previous string"));
        }
        cur.clear();
        cur.extend_from_slice(&prev_bytes[..p]);
        cur.extend_from_slice(mid);
        cur.extend_from_slice(&prev_bytes[prev_bytes.len() - sfx..]);
        let s =
            std::str::from_utf8(&cur).map_err(|_| corrupt("front-coded string is not UTF-8"))?;
        let start = text.len();
        text.push_str(s);
        prev = (start, text.len());
        spans.push(prev);
    }
    Ok(Column::Strs { text, spans })
}

fn decode_column(buf: &mut &[u8], n: usize) -> StorageResult<Column> {
    let tag = get_u8(buf)?;
    Ok(match tag {
        COL_RAW => {
            let mut vals = reserve(n);
            for _ in 0..n {
                vals.push(get_cell(buf)?);
            }
            Column::Values(vals)
        }
        COL_INT_PLAIN | COL_INT_DELTA2 | COL_INT_RLE => {
            let timestamps = match get_u8(buf)? {
                CELL_INT => false,
                CELL_TIMESTAMP => true,
                _ => return Err(corrupt("unknown integer column type")),
            };
            let mut vals = reserve(n);
            match tag {
                COL_INT_PLAIN => {
                    for _ in 0..n {
                        vals.push(get_ivarint(buf)?);
                    }
                }
                COL_INT_DELTA2 => decode_int_delta2(buf, n, &mut vals)?,
                _ => decode_int_rle(buf, n, &mut vals)?,
            }
            Column::Ints { vals, timestamps }
        }
        COL_STR_RAW => decode_str_raw(buf, n)?,
        COL_STR_DICT => decode_str_dict(buf, n)?,
        COL_STR_FRONT => decode_str_front(buf, n)?,
        COL_DOUBLE_RAW => {
            let mut vals = reserve(n);
            for _ in 0..n {
                let b = take(buf, 8)?;
                vals.push(f64::from_bits(u64::from_le_bytes([
                    b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                ])));
            }
            Column::Doubles(vals)
        }
        COL_BOOL_RAW => {
            let mut vals = reserve(n);
            for _ in 0..n {
                vals.push(match get_u8(buf)? {
                    0 => false,
                    1 => true,
                    _ => return Err(corrupt("bool cell is neither 0 nor 1")),
                });
            }
            Column::Bools(vals)
        }
        _ => return Err(corrupt("unknown column tag")),
    })
}

// ---------------------------------------------------------------------------
// Row blocks.
// ---------------------------------------------------------------------------

const BLOCK_UNIFORM: u8 = 0;
const BLOCK_RAGGED: u8 = 1;

/// A row as the block encoder reads it: its arity and each of its cells,
/// borrowed. The encoder copies nothing out of a row, so one encoder serves
/// an owned [`Row`], a row with cells in front that it never stores
/// ([`encode_block`]) and the cells of a stored record read in place
/// ([`RowSink::write_record`]).
pub trait BlockRow {
    /// Number of cells.
    fn arity(&self) -> usize;
    /// Cell `c`, for `c < self.arity()`.
    fn cell(&self, c: usize) -> Cell<'_>;
}

impl BlockRow for Row {
    fn arity(&self) -> usize {
        self.len()
    }

    fn cell(&self, c: usize) -> Cell<'_> {
        self.values()[c].as_cell()
    }
}

impl BlockRow for &[Cell<'_>] {
    fn arity(&self) -> usize {
        self.len()
    }

    fn cell(&self, c: usize) -> Cell<'_> {
        self[c]
    }
}

/// Encode a slice of rows into one (unframed) block payload. Rows of uniform
/// arity are transposed into per-column encodings; mixed-arity inputs fall
/// back to a row-major layout of raw tagged cells.
pub fn encode_rows_block(rows: &[Row]) -> Vec<u8> {
    encode_block(rows)
}

/// [`encode_rows_block`] over any [`BlockRow`]: the same bytes for the same
/// cells, read in place.
pub fn encode_block<R: BlockRow>(rows: &[R]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_block_into(rows, &mut out);
    out
}

/// [`encode_block`], appended to `out`.
fn encode_block_into<R: BlockRow>(rows: &[R], out: &mut Vec<u8>) {
    let uniform = rows.windows(2).all(|w| w[0].arity() == w[1].arity());
    if uniform && !rows.is_empty() {
        out.push(BLOCK_UNIFORM);
        put_uvarint(out, rows.len() as u64);
        let ncols = rows[0].arity();
        put_uvarint(out, ncols as u64);
        let mut cells: Vec<Cell<'_>> = Vec::with_capacity(rows.len());
        for c in 0..ncols {
            cells.clear();
            cells.extend(rows.iter().map(|row| row.cell(c)));
            encode_column(&cells, out);
        }
    } else {
        out.push(BLOCK_RAGGED);
        put_uvarint(out, rows.len() as u64);
        for row in rows {
            put_uvarint(out, row.arity() as u64);
            for c in 0..row.arity() {
                put_cell(out, row.cell(c));
            }
        }
    }
}

/// One decoded row block, read in place. [`cell`](Block::cell) borrows a
/// cell where the decoder left it (a uniform block's string in its column's
/// one text), and [`row`](Block::row) builds an owned [`Row`] for the one
/// row asked for, so a reader that keeps few of the rows it reads builds
/// only those.
#[derive(Default)]
pub struct Block {
    rows: usize,
    layout: Layout,
}

enum Layout {
    /// A uniform block: one decoded column per cell position.
    Columns(Vec<Column>),
    /// A ragged block, or rows already built: each row as it was written.
    Rows(Vec<Row>),
}

impl Default for Layout {
    fn default() -> Layout {
        Layout::Rows(Vec::new())
    }
}

impl Block {
    /// A block of rows already built.
    fn from_rows(rows: Vec<Row>) -> Block {
        Block {
            rows: rows.len(),
            layout: Layout::Rows(rows),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True for a block of no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of cells in row `row`, for `row < self.len()`.
    pub fn arity(&self, row: usize) -> usize {
        match &self.layout {
            Layout::Columns(cols) => cols.len(),
            Layout::Rows(rows) => rows[row].len(),
        }
    }

    /// Cell `col` of row `row`, borrowed, for `col < self.arity(row)`.
    pub fn cell(&self, row: usize, col: usize) -> Cell<'_> {
        match &self.layout {
            Layout::Columns(cols) => cols[col].cell(row),
            Layout::Rows(rows) => rows[row].values()[col].as_cell(),
        }
    }

    /// The arity every row shares in a uniform block (one decoded column per
    /// cell position); `None` for a ragged block or rows already built.
    pub fn uniform_arity(&self) -> Option<usize> {
        match &self.layout {
            Layout::Columns(cols) => Some(cols.len()),
            Layout::Rows(_) => None,
        }
    }

    /// Column `col` of a uniform block as its integers, one per row, when it
    /// holds `Int` or `Timestamp` cells only; `None` for any other column.
    pub fn ints(&self, col: usize) -> Option<&[i64]> {
        match &self.layout {
            Layout::Columns(cols) => match cols.get(col) {
                Some(Column::Ints { vals, .. }) => Some(vals),
                _ => None,
            },
            Layout::Rows(_) => None,
        }
    }

    /// The length of the stretch of equal rows that starts at row `i` of
    /// `self` and row `j` of `other`, ending at the first differing pair or
    /// at the end of either block. A pair is equal when the rows are equal
    /// (`Row`'s `==`: the same arity, every cell `==`) and every `key` cell
    /// is also `Equal` under [`Cell::total_cmp`] (so a `-0.0` key differs
    /// from `0.0`) — exactly the pairs a key-ordered merge finds unchanged.
    /// Two uniform blocks are compared a column at a time, key columns
    /// first, each over its typed slice where both columns have one kind.
    pub fn equal_stretch(&self, i: usize, other: &Block, j: usize, key: &[usize]) -> usize {
        let mut n = self
            .rows
            .saturating_sub(i)
            .min(other.rows.saturating_sub(j));
        let (Layout::Columns(a), Layout::Columns(b)) = (&self.layout, &other.layout) else {
            return (0..n)
                .position(|r| !self.same_row(i + r, other, j + r, key))
                .unwrap_or(n);
        };
        if a.len() != b.len() {
            return 0;
        }
        let rest = (0..a.len()).filter(|c| !key.contains(c));
        for c in key.iter().copied().filter(|&c| c < a.len()).chain(rest) {
            if n == 0 {
                break;
            }
            n = a[c].equal_prefix(i, &b[c], j, n, key.contains(&c));
        }
        n
    }

    /// Whether row `r` here and row `s` of `other` form an equal pair, as
    /// [`equal_stretch`](Block::equal_stretch) defines one, cell by cell.
    /// With no `key` columns: whether the rows are equal rows (`Row`'s `==`).
    pub fn same_row(&self, r: usize, other: &Block, s: usize, key: &[usize]) -> bool {
        let n = self.arity(r);
        n == other.arity(s)
            && (0..n).all(|c| same_cell(self.cell(r, c), other.cell(s, c), key.contains(&c)))
    }

    /// Row `row` built as an owned [`Row`], for `row < self.len()`.
    pub fn row(&self, row: usize) -> Row {
        match &self.layout {
            Layout::Columns(cols) => {
                Row::new(cols.iter().map(|c| c.cell(row).to_value()).collect())
            }
            Layout::Rows(rows) => rows[row].clone(),
        }
    }

    /// Every row, in order.
    pub fn into_rows(self) -> Vec<Row> {
        match self.layout {
            Layout::Rows(rows) => rows,
            Layout::Columns(mut cols) => (0..self.rows)
                .map(|r| Row::new(cols.iter_mut().map(|c| c.take(r)).collect()))
                .collect(),
        }
    }
}

/// Decode one block payload produced by [`encode_block`] into its columns.
/// The payload must be consumed exactly; trailing bytes are corruption.
pub fn decode_block(mut payload: &[u8]) -> StorageResult<Block> {
    let buf = &mut payload;
    let flag = get_u8(buf)?;
    let rows = get_uvarint(buf)? as usize;
    if rows > MAX_DECODED_LEN {
        return Err(corrupt("row count exceeds sanity bound"));
    }
    let layout = match flag {
        BLOCK_UNIFORM => {
            let ncols = get_uvarint(buf)? as usize;
            if ncols > buf.len() + 1 {
                return Err(corrupt("column count exceeds remaining input"));
            }
            let mut cols = reserve(ncols);
            for _ in 0..ncols {
                cols.push(decode_column(buf, rows)?);
            }
            Layout::Columns(cols)
        }
        BLOCK_RAGGED => {
            let mut out = reserve(rows);
            for _ in 0..rows {
                let ncols = get_uvarint(buf)? as usize;
                if ncols > buf.len() + 1 {
                    return Err(corrupt("row arity exceeds remaining input"));
                }
                let mut vals = reserve(ncols);
                for _ in 0..ncols {
                    vals.push(get_cell(buf)?);
                }
                out.push(Row::new(vals));
            }
            Layout::Rows(out)
        }
        _ => return Err(corrupt("unknown block layout flag")),
    };
    if !buf.is_empty() {
        return Err(corrupt("trailing bytes after row block"));
    }
    Ok(Block { rows, layout })
}

/// Decode one block payload produced by [`encode_rows_block`] into rows:
/// [`decode_block`], then [`Block::into_rows`].
pub fn decode_rows_block(payload: &[u8]) -> StorageResult<Vec<Row>> {
    decode_block(payload).map(Block::into_rows)
}

// ---------------------------------------------------------------------------
// Snapshot files: streaming readers and writers.
// ---------------------------------------------------------------------------

/// Streaming reader over a snapshot file ([`SNAP_MAGIC`], the header block,
/// then CRC-framed row blocks), decoding one block at a time: as rows
/// ([`next_row`](RowSource::next_row)) or as a [`Block`] read in place
/// ([`next_block`](RowSource::next_block)).
pub struct RowSource {
    reader: BufReader<File>,
    key: Vec<usize>,
    /// The last frame read, its buffer reused for the next.
    payload: Vec<u8>,
    pending: VecDeque<Row>,
}

/// `read_exact`, but distinguishing clean EOF at the first byte (`Ok(false)`)
/// from a mid-item truncation (corruption).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> StorageResult<bool> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]).map_err(StorageError::Io)? {
            0 => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(corrupt("truncated block frame"));
            }
            n => got += n,
        }
    }
    Ok(true)
}

/// Read one CRC-framed block from a stream into `payload`: `false` at a
/// clean end of file.
fn read_block(r: &mut impl Read, payload: &mut Vec<u8>) -> StorageResult<bool> {
    let mut lenb = [0u8; 4];
    if !read_exact_or_eof(r, &mut lenb)? {
        return Ok(false);
    }
    let len = u32::from_le_bytes(lenb) as usize;
    if len > MAX_DECODED_LEN {
        return Err(corrupt("block length exceeds sanity bound"));
    }
    payload.clear();
    payload.resize(len, 0);
    if !read_exact_or_eof(r, payload)? {
        return Err(corrupt("truncated block payload"));
    }
    let mut crcb = [0u8; 4];
    if !read_exact_or_eof(r, &mut crcb)? {
        return Err(corrupt("truncated block CRC"));
    }
    if crc32(payload) != u32::from_le_bytes(crcb) {
        return Err(corrupt("block CRC mismatch"));
    }
    Ok(true)
}

/// The header block's payload: the key column count, then each position.
fn encode_header(key: &[usize]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_uvarint(&mut payload, key.len() as u64);
    for &col in key {
        put_uvarint(&mut payload, col as u64);
    }
    payload
}

fn decode_header(mut payload: &[u8]) -> StorageResult<Vec<usize>> {
    let n = get_uvarint(&mut payload)? as usize;
    if n > MAX_KEY_COLUMNS {
        return Err(corrupt("snapshot header names too many key columns"));
    }
    let key = (0..n)
        .map(|_| get_uvarint(&mut payload).map(|col| col as usize))
        .collect::<StorageResult<Vec<usize>>>()?;
    if !payload.is_empty() {
        return Err(corrupt("trailing bytes in snapshot header"));
    }
    Ok(key)
}

impl RowSource {
    /// Open `path` and read its magic and header. A file that does not start
    /// with [`SNAP_MAGIC`] and a whole header — empty, damaged, in an older
    /// layout or not a snapshot at all — is typed corruption.
    pub fn open(path: &Path) -> StorageResult<RowSource> {
        let mut reader = BufReader::new(File::open(path).map_err(StorageError::Io)?);
        let mut magic = [0u8; 4];
        if !read_exact_or_eof(&mut reader, &mut magic)? || magic != SNAP_MAGIC {
            return Err(corrupt("not a snapshot file (bad magic)"));
        }
        let mut payload = Vec::new();
        if !read_block(&mut reader, &mut payload)? {
            return Err(corrupt("missing snapshot header"));
        }
        Ok(RowSource {
            key: decode_header(&payload)?,
            reader,
            payload,
            pending: VecDeque::new(),
        })
    }

    /// The column positions the writer claims the rows are sorted on, in
    /// significance order; empty for rows in no particular order. A reader
    /// that relies on the claim checks it row by row.
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// The next block, or `None` at end of file. A block may hold no rows.
    /// After [`next_row`](RowSource::next_row), the first block is what is
    /// left of the one it was reading.
    pub fn next_block(&mut self) -> StorageResult<Option<Block>> {
        if !self.pending.is_empty() {
            return Ok(Some(Block::from_rows(self.pending.drain(..).collect())));
        }
        if !read_block(&mut self.reader, &mut self.payload)? {
            return Ok(None);
        }
        decode_block(&self.payload).map(Some)
    }

    /// The next row, or `None` at end of file.
    pub fn next_row(&mut self) -> StorageResult<Option<Row>> {
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Ok(Some(row));
            }
            let Some(block) = self.next_block()? else {
                return Ok(None);
            };
            self.pending.extend(block.into_rows());
            // Empty blocks are legal; loop for the next frame.
        }
    }
}

/// Streaming row writer of a snapshot file. A row arrives as the bytes of
/// a stored record ([`write_record`](RowSink::write_record)) or as a
/// [`Row`] ([`write_row`](RowSink::write_row)), which is encoded to those
/// bytes; either way the sink keeps only the bytes, back to back in one
/// buffer reused block after block, and encodes each block from the cells
/// of its records read in place (DESIGN.md §35). No row is built.
pub struct RowSink {
    w: BufWriter<File>,
    /// The records of the block being filled, in the row codec
    /// ([`Row::encode`]), back to back.
    records: Vec<u8>,
    /// Where each record in `records` ends.
    ends: Vec<usize>,
    /// The last block's payload and its frame, their buffers reused for
    /// the next.
    payload: Vec<u8>,
    frame: Vec<u8>,
    block_rows: usize,
}

impl RowSink {
    /// Create `path` for rows in no particular order. `block_rows` bounds
    /// the rows per block.
    pub fn create(path: &Path, block_rows: usize) -> StorageResult<RowSink> {
        RowSink::create_sorted(path, block_rows, &[])
    }

    /// Create `path` for rows the caller writes sorted on the columns at
    /// `key` (ascending by `Value::total_cmp`, most significant first); the
    /// header records `key`. Readers that rely on the order check it.
    pub fn create_sorted(path: &Path, block_rows: usize, key: &[usize]) -> StorageResult<RowSink> {
        let mut w = BufWriter::new(File::create(path).map_err(StorageError::Io)?);
        let mut head = SNAP_MAGIC.to_vec();
        put_block(&mut head, &encode_header(key));
        w.write_all(&head).map_err(StorageError::Io)?;
        Ok(RowSink {
            w,
            records: Vec::new(),
            ends: Vec::new(),
            payload: Vec::new(),
            frame: Vec::new(),
            block_rows: block_rows.max(1),
        })
    }

    /// Append one row.
    pub fn write_row(&mut self, row: Row) -> StorageResult<()> {
        row.encode(&mut self.records);
        self.end_record()
    }

    /// Append one row given as a record in the row codec, as a heap stores
    /// it: the bytes [`Row::encode`] writes. The record is checked when its
    /// block is written, as [`Row::from_bytes`] checks one, so a damaged
    /// record fails this call or a later one with `Corrupt`, and the file
    /// must then be abandoned.
    pub fn write_record(&mut self, record: &[u8]) -> StorageResult<()> {
        self.records.extend_from_slice(record);
        self.end_record()
    }

    fn end_record(&mut self) -> StorageResult<()> {
        self.ends.push(self.records.len());
        if self.ends.len() >= self.block_rows {
            self.write_block()?;
        }
        Ok(())
    }

    /// Encode the buffered records as one framed block: each record's cells
    /// are read into one vector, borrowed from the records, and each row
    /// is its span of that vector.
    fn write_block(&mut self) -> StorageResult<()> {
        let mut cells = Vec::new();
        let mut spans = Vec::with_capacity(self.ends.len());
        let mut start = 0;
        for &end in &self.ends {
            let first = cells.len();
            read_cells(&self.records[start..end], &mut cells)?;
            if spans.is_empty() {
                // Room for every row at the first one's arity, and never for
                // more cells than the records have bytes.
                let rest = cells.len() * (self.ends.len() - 1);
                cells.reserve(rest.min(self.records.len()));
            }
            spans.push(first..cells.len());
            start = end;
        }
        let rows: Vec<&[Cell<'_>]> = spans.into_iter().map(|span| &cells[span]).collect();
        self.payload.clear();
        encode_block_into(&rows, &mut self.payload);
        self.records.clear();
        self.ends.clear();
        self.frame.clear();
        put_block(&mut self.frame, &self.payload);
        self.w.write_all(&self.frame).map_err(StorageError::Io)
    }

    /// Flush any buffered block and the underlying writer.
    pub fn finish(mut self) -> StorageResult<()> {
        if !self.ends.is_empty() {
            self.write_block()?;
        }
        self.w.flush().map_err(StorageError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: Vec<Value>) -> Row {
        Row::new(vals)
    }

    #[test]
    fn varint_round_trips_at_the_edges() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX / 2, u64::MAX] {
            let mut out = Vec::new();
            put_uvarint(&mut out, v);
            let mut buf = out.as_slice();
            assert_eq!(get_uvarint(&mut buf).unwrap(), v);
            assert!(buf.is_empty());
        }
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn uniform_block_round_trips_and_beats_raw_cells() {
        let rows: Vec<Row> = (0..1000)
            .map(|i| {
                row(vec![
                    Value::Int(i),
                    Value::Timestamp(1_700_000_000 + i),
                    Value::Str(format!("row-{i:010}-aaaaaaaaaaaaaaaa")),
                ])
            })
            .collect();
        let block = encode_rows_block(&rows);
        let back = decode_rows_block(&block).unwrap();
        assert_eq!(back, rows);
        let mut raw = Vec::new();
        for r in &rows {
            for v in r.values() {
                put_cell(&mut raw, v.as_cell());
            }
        }
        assert!(
            block.len() * 3 < raw.len(),
            "columnar {} vs raw {}",
            block.len(),
            raw.len()
        );
    }

    #[test]
    fn a_decoded_block_reads_every_encoding_in_place() {
        // Columns shaped for the plain, delta2, RLE, raw, dictionary,
        // front, double, bool and raw-cell encodings, in a uniform block
        // and in a ragged one.
        let uniform: Vec<Row> = (0..40i64)
            .map(|i| {
                row(vec![
                    Value::Int(i.wrapping_mul(0x5DEE_CE66_D1CE_4E5B)),
                    Value::Timestamp(1_700_000_000 + 3 * i),
                    Value::Int(7),
                    Value::Str(format!("{i:x}")),
                    Value::Str(["alpha-alpha", "beta-beta-beta"][(i % 2) as usize].into()),
                    Value::Str(format!("key-{i:08}-é-suffix")),
                    Value::Double(i as f64 / 3.0),
                    Value::Bool(i % 3 == 0),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                ])
            })
            .collect();
        let mut ragged = uniform[..6].to_vec();
        ragged.push(row(vec![Value::Str("short".into())]));
        for rows in [uniform, ragged] {
            let block = decode_block(&encode_rows_block(&rows)).unwrap();
            assert_eq!(block.len(), rows.len());
            for (r, want) in rows.iter().enumerate() {
                assert_eq!(block.arity(r), want.len());
                for (c, v) in want.values().iter().enumerate() {
                    assert_eq!(block.cell(r, c), v.as_cell(), "row {r} col {c}");
                }
                assert_eq!(&block.row(r), want);
            }
            assert_eq!(block.into_rows(), rows);
        }
    }

    #[test]
    fn ragged_block_round_trips() {
        let rows = vec![
            row(vec![Value::Int(1)]),
            row(vec![Value::Null, Value::Bool(true), Value::Double(1.5)]),
            row(vec![]),
        ];
        assert_eq!(decode_rows_block(&encode_rows_block(&rows)).unwrap(), rows);
    }

    #[test]
    fn block_truncation_and_flips_are_typed_errors() {
        let rows: Vec<Row> = (0..64)
            .map(|i| row(vec![Value::Int(i), Value::Str(format!("s{i}"))]))
            .collect();
        let mut framed = Vec::new();
        put_block(&mut framed, &encode_rows_block(&rows));
        for cut in 0..framed.len() {
            let mut buf = &framed[..cut];
            assert!(get_block(&mut buf).is_err(), "cut at {cut}");
        }
        for bit in (0..framed.len() * 8).step_by(7) {
            let mut bad = framed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut buf = bad.as_slice();
            let r = get_block(&mut buf).and_then(decode_rows_block);
            if let Ok(back) = r {
                assert_eq!(back, rows, "flip at bit {bit} silently changed rows");
            }
        }
    }

    #[test]
    fn row_sink_and_source_round_trip() {
        let dir = std::env::temp_dir().join(format!("colbatch-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rows: Vec<Row> = (0..2500)
            .map(|i| row(vec![Value::Int(i), Value::Str(format!("name-{i:08}"))]))
            .collect();
        let path = dir.join("snap");
        let mut sink = RowSink::create(&path, 100).unwrap();
        for r in &rows {
            sink.write_row(r.clone()).unwrap();
        }
        sink.finish().unwrap();
        let mut src = RowSource::open(&path).unwrap();
        let mut back = Vec::new();
        while let Some(r) = src.next_row().unwrap() {
            back.push(r);
        }
        assert_eq!(back, rows);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_snapshot_reads_as_empty_and_a_cut_magic_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("colbatch-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty");
        RowSink::create(&path, 8).unwrap().finish().unwrap();
        let mut src = RowSource::open(&path).unwrap();
        assert!(src.next_row().unwrap().is_none());
        std::fs::write(&path, &SNAP_MAGIC[..2]).unwrap();
        assert!(matches!(
            RowSource::open(&path),
            Err(StorageError::Corrupt(_))
        ));
        // The magic alone, with no header block behind it.
        std::fs::write(&path, SNAP_MAGIC).unwrap();
        assert!(matches!(
            RowSource::open(&path),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_header_carries_the_sort_key_under_its_crc() {
        let dir = std::env::temp_dir().join(format!("colbatch-header-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sorted");
        let mut sink = RowSink::create_sorted(&path, 4, &[2, 0]).unwrap();
        sink.write_row(row(vec![Value::Int(1), Value::Null, Value::Int(3)]))
            .unwrap();
        sink.finish().unwrap();
        let mut src = RowSource::open(&path).unwrap();
        assert_eq!(src.key(), &[2, 0]);
        assert!(src.next_row().unwrap().is_some());
        let heap = dir.join("heap");
        RowSink::create(&heap, 4).unwrap().finish().unwrap();
        assert_eq!(RowSource::open(&heap).unwrap().key(), &[] as &[usize]);

        // Every bit of the header block (after the magic) is covered: a flip
        // is a CRC mismatch or a bad length, never a different key.
        let bytes = std::fs::read(&path).unwrap();
        let header_end = SNAP_MAGIC.len() + 4 + encode_header(&[2, 0]).len() + 4;
        for bit in SNAP_MAGIC.len() * 8..header_end * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(RowSource::open(&path), Err(StorageError::Corrupt(_))),
                "flip at bit {bit}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
