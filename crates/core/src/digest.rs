//! Anti-entropy range digests (DESIGN.md §14).
//!
//! A [`TableDigest`] is a Merkle-style summary of one table's contents,
//! bucketed by primary key: every row lands in the leaf whose key range
//! covers its key (`bucket = key.div_euclid(span)`), and each leaf holds an
//! order-independent hash of the rows inside it. Because leaf boundaries are
//! a pure function of the key — never of row counts or physical layout —
//! the source and the warehouse produce identically-shaped trees no matter
//! how their heaps are organized, and a single divergent row disturbs
//! exactly one leaf.
//!
//! Digests are built from streaming scans ([`digest_snapshot`] reuses
//! [`RowSource`], so it reads a snapshot without materializing the table)
//! or straight from a live table
//! ([`digest_table`]). Two digests are compared hierarchically
//! ([`compare_digests`]): equal subtree hashes prune whole key intervals,
//! so divergence is localized to bounded [`KeyRange`]s after inspecting
//! `O(diverged · log(leaves))` nodes rather than every leaf.
//!
//! The wire encoding is a CRC-framed block in the columnar codec's house
//! style (magic `[0xFF, 'C', 'D', version]`, varint-packed leaves with
//! delta-coded bucket ids), so a digest travels the transport as one more
//! compact batch and every decoder failure is a typed
//! [`StorageError::Corrupt`] — never a panic.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::Path;

use delta_engine::db::Database;
use delta_engine::EngineResult;
use delta_storage::colbatch::{
    self, get_block, get_ivarint, get_uvarint, put_block, put_cell, put_ivarint, put_uvarint, take,
    RowSink, RowSource,
};
use delta_storage::fault::splitmix64;
use delta_storage::{Cell, Row, StorageError, StorageResult};

/// Magic prefix of an encoded digest: `0xFF 'C' 'D' version` (the columnar
/// family's `D` letter, alongside `S`napshot / `B`atch / `W`al-segment).
pub const DIGEST_MAGIC: [u8; 4] = [0xFF, b'C', b'D', colbatch::FORMAT_VERSION];

/// Default number of leaves a digest aims for when deriving its bucket span
/// from an observed key range (see [`DigestParams::for_key_range`]).
pub const DEFAULT_TARGET_LEAVES: u64 = 256;

/// Bucketing parameters of a digest tree. The one parameter that matters is
/// `span`: every row with key `k` belongs to bucket `k.div_euclid(span)`.
/// Both sides of an audit must digest under the *same* span for their trees
/// to be comparable; the auditor derives it once (from the source's key
/// range) and embeds it in the digest it ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestParams {
    /// Width of each leaf's key range (≥ 1).
    pub span: i64,
}

impl DigestParams {
    /// Params with an explicit span (clamped to ≥ 1).
    pub fn with_span(span: i64) -> DigestParams {
        DigestParams { span: span.max(1) }
    }

    /// Derive a span so that the inclusive key range `[min_key, max_key]`
    /// splits into about `target_leaves` buckets. An empty or inverted range
    /// yields a span of 1.
    pub fn for_key_range(min_key: i64, max_key: i64, target_leaves: u64) -> DigestParams {
        let width = max_key.saturating_sub(min_key).saturating_add(1).max(1) as u64;
        let span = width / target_leaves.max(1);
        DigestParams::with_span(span.min(i64::MAX as u64) as i64)
    }
}

/// One leaf of a digest tree: the rows whose keys fall in the bucket's key
/// range, summarized as a count and an order-independent hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafDigest {
    /// Bucket id: `key.div_euclid(span)` of every row inside.
    pub bucket: i64,
    /// Rows summarized by this leaf (> 0; empty buckets are omitted).
    pub rows: u64,
    /// Commutative combination (wrapping sum) of per-row hashes, so scan
    /// order never matters.
    pub hash: u64,
}

/// An inclusive key range `[lo, hi]`, the unit divergence is localized to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Smallest key in the range.
    pub lo: i64,
    /// Largest key in the range.
    pub hi: i64,
}

impl KeyRange {
    /// Whether `key` falls inside the range.
    pub fn contains(&self, key: i64) -> bool {
        self.lo <= key && key <= self.hi
    }
}

/// Whether `key` falls inside any of the (disjoint) `ranges`.
pub fn key_in_ranges(ranges: &[KeyRange], key: i64) -> bool {
    ranges.iter().any(|r| r.contains(key))
}

/// A table's Merkle-style range digest: its name, the bucket span it was
/// built under, and the non-empty leaves sorted by bucket id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDigest {
    /// Table the digest summarizes.
    pub table: String,
    /// Bucket span (key width per leaf, ≥ 1).
    pub span: i64,
    /// Non-empty leaves, strictly ascending by bucket id.
    pub leaves: Vec<LeafDigest>,
}

/// One-shot splitmix-style finalizer used for every hash in the digest.
fn mix(seed: u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    splitmix64(&mut state)
}

/// Hash one row under its key: the key fixes the bucket, `cells` — the
/// row's cells in order, each as a raw tagged cell ([`put_cell`]) — fix
/// the content, and the combination is finalized so that wrapping sums of
/// distinct rows collide only by accident.
fn row_hash(key: i64, cells: &[u8]) -> u64 {
    let crc = colbatch::crc32(cells) as u64;
    mix((colbatch::zigzag(key) << 1) ^ (crc.wrapping_mul(0x0100_0000_01B3)))
}

/// A leaf's contribution to subtree hashes: order-independent across leaves
/// via wrapping addition, but sensitive to bucket id, row count, and hash.
fn leaf_contribution(leaf: &LeafDigest) -> u64 {
    mix(mix(colbatch::zigzag(leaf.bucket))
        .wrapping_add(leaf.hash)
        .wrapping_add(mix(leaf.rows)))
}

impl TableDigest {
    /// Root hash of the whole tree (the quick "are we equal at all" check):
    /// the wrapping sum of every leaf's contribution, plus the span, so
    /// trees built under different bucketings never compare equal by luck.
    pub fn root(&self) -> u64 {
        self.leaves
            .iter()
            .fold(mix(colbatch::zigzag(self.span)), |acc, leaf| {
                acc.wrapping_add(leaf_contribution(leaf))
            })
    }

    /// Inclusive key range covered by leaf `bucket` under this digest's span.
    pub fn bucket_range(&self, bucket: i64) -> KeyRange {
        bucket_range(bucket, self.span)
    }

    /// Encode to the compact wire form: `DIGEST_MAGIC` followed by one
    /// CRC-framed block of varints (table name, span, leaf count, then
    /// delta-coded bucket ids with each leaf's row count and hash).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(16 + self.table.len() + self.leaves.len() * 8);
        put_uvarint(&mut payload, self.table.len() as u64);
        payload.extend_from_slice(self.table.as_bytes());
        put_ivarint(&mut payload, self.span);
        put_uvarint(&mut payload, self.leaves.len() as u64);
        let mut prev_bucket: Option<i64> = None;
        for leaf in &self.leaves {
            match prev_bucket {
                None => put_ivarint(&mut payload, leaf.bucket),
                // Strictly ascending buckets: the gap is ≥ 1, so it packs
                // as an unsigned varint.
                Some(prev) => put_uvarint(&mut payload, leaf.bucket.wrapping_sub(prev) as u64),
            }
            prev_bucket = Some(leaf.bucket);
            put_uvarint(&mut payload, leaf.rows);
            put_uvarint(&mut payload, leaf.hash);
        }
        let mut out = Vec::with_capacity(payload.len() + 16);
        out.extend_from_slice(&DIGEST_MAGIC);
        put_block(&mut out, &payload);
        out
    }

    /// Decode a digest produced by [`TableDigest::encode`]. Every failure —
    /// wrong magic, truncation, CRC mismatch, malformed varints, unsorted
    /// leaves, trailing bytes — is a typed [`StorageError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> StorageResult<TableDigest> {
        let mut buf = bytes;
        let magic = take(&mut buf, 4)?;
        if magic[..3] != DIGEST_MAGIC[..3] {
            return Err(StorageError::Corrupt(
                "not a range digest: bad magic".into(),
            ));
        }
        if magic[3] != colbatch::FORMAT_VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported digest format version {}",
                magic[3]
            )));
        }
        let mut payload = get_block(&mut buf)?;
        if !buf.is_empty() {
            return Err(StorageError::Corrupt(format!(
                "{} trailing bytes after digest block",
                buf.len()
            )));
        }
        let name_len = get_uvarint(&mut payload)? as usize;
        let name_bytes = take(&mut payload, name_len)?;
        let table = std::str::from_utf8(name_bytes)
            .map_err(|_| StorageError::Corrupt("digest table name is not UTF-8".into()))?
            .to_string();
        let span = get_ivarint(&mut payload)?;
        if span < 1 {
            return Err(StorageError::Corrupt(format!(
                "digest span {span} out of range"
            )));
        }
        let count = get_uvarint(&mut payload)? as usize;
        let mut leaves = Vec::with_capacity(count.min(1 << 20));
        let mut prev_bucket: Option<i64> = None;
        for _ in 0..count {
            let bucket = match prev_bucket {
                None => get_ivarint(&mut payload)?,
                Some(prev) => {
                    let gap = get_uvarint(&mut payload)?;
                    if gap == 0 {
                        return Err(StorageError::Corrupt(
                            "digest leaves not strictly ascending".into(),
                        ));
                    }
                    match prev.checked_add_unsigned(gap) {
                        Some(b) => b,
                        None => {
                            return Err(StorageError::Corrupt("digest bucket id overflows".into()))
                        }
                    }
                }
            };
            prev_bucket = Some(bucket);
            let rows = get_uvarint(&mut payload)?;
            if rows == 0 {
                return Err(StorageError::Corrupt(
                    "digest leaf summarizes zero rows".into(),
                ));
            }
            let hash = get_uvarint(&mut payload)?;
            leaves.push(LeafDigest { bucket, rows, hash });
        }
        if !payload.is_empty() {
            return Err(StorageError::Corrupt(format!(
                "{} trailing bytes inside digest block",
                payload.len()
            )));
        }
        Ok(TableDigest {
            table,
            span,
            leaves,
        })
    }
}

/// Inclusive key range of `bucket` under `span` (saturating at the i64
/// extremes, which only widens the range — never excludes a member key).
fn bucket_range(bucket: i64, span: i64) -> KeyRange {
    let lo = bucket.saturating_mul(span);
    KeyRange {
        lo,
        hi: lo.saturating_add(span - 1),
    }
}

/// Streaming digest accumulator: feed rows in any order, then
/// [`DigestBuilder::finish`].
#[derive(Debug)]
pub struct DigestBuilder {
    table: String,
    params: DigestParams,
    key_pos: usize,
    buckets: BTreeMap<i64, (u64, u64)>,
    /// The cells of the row being hashed, its buffer reused for the next.
    cells: Vec<u8>,
}

impl DigestBuilder {
    /// A builder for `table`, keyed by the column at `key_pos`, bucketed
    /// under `params`.
    pub fn new(table: &str, key_pos: usize, params: DigestParams) -> DigestBuilder {
        DigestBuilder {
            table: table.to_string(),
            params,
            key_pos,
            buckets: BTreeMap::new(),
            cells: Vec::new(),
        }
    }

    /// Fold one row in. Non-integer (or missing) key values are a typed
    /// schema error — digests audit integer-keyed tables, same as mirrors.
    pub fn add_row(&mut self, row: &Row) -> StorageResult<()> {
        self.add(row.len(), |c| row.values()[c].as_cell())
    }

    /// [`add_row`](DigestBuilder::add_row) for the row of `arity` cells
    /// whose cell `c` is `cell(c)`, read where it lies.
    fn add<'a>(&mut self, arity: usize, cell: impl Fn(usize) -> Cell<'a>) -> StorageResult<()> {
        let key = match (self.key_pos < arity).then(|| cell(self.key_pos)) {
            Some(Cell::Int(k)) => k,
            other => {
                return Err(StorageError::SchemaMismatch(format!(
                    "digest key column {} of table {} must be an integer, got {:?}",
                    self.key_pos, self.table, other
                )))
            }
        };
        self.cells.clear();
        for c in 0..arity {
            put_cell(&mut self.cells, cell(c));
        }
        let bucket = key.div_euclid(self.params.span);
        let entry = self.buckets.entry(bucket).or_insert((0, 0));
        entry.0 += 1;
        entry.1 = entry.1.wrapping_add(row_hash(key, &self.cells));
        Ok(())
    }

    /// Seal the accumulated buckets into a [`TableDigest`].
    pub fn finish(self) -> TableDigest {
        TableDigest {
            table: self.table,
            span: self.params.span,
            leaves: self
                .buckets
                .into_iter()
                .map(|(bucket, (rows, hash))| LeafDigest { bucket, rows, hash })
                .collect(),
        }
    }
}

/// Digest a snapshot file via a streaming [`RowSource`] scan, block by
/// block, each row's cells read where the decoded block holds them (no
/// row is built and the table is never materialized).
pub fn digest_snapshot(
    table: &str,
    key_pos: usize,
    path: &Path,
    params: DigestParams,
) -> StorageResult<TableDigest> {
    let mut src = RowSource::open(path)?;
    let mut builder = DigestBuilder::new(table, key_pos, params);
    while let Some(block) = src.next_block()? {
        for r in 0..block.len() {
            builder.add(block.arity(r), |c| block.cell(r, c))?;
        }
    }
    Ok(builder.finish())
}

/// Digest a live table by scanning it through the engine. `key_pos` is the
/// key column's position in the table's schema.
pub fn digest_table(
    db: &Database,
    table: &str,
    key_pos: usize,
    params: DigestParams,
) -> EngineResult<TableDigest> {
    let mut builder = DigestBuilder::new(table, key_pos, params);
    db.for_each_row(table, |_, row| {
        builder.add_row(&row)?;
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(builder.finish())
}

/// The outcome of comparing two digests: where they diverge and how much of
/// the tree the comparison had to inspect.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestDiff {
    /// Diverged key ranges, disjoint and ascending; adjacent diverged
    /// buckets are coalesced into one range. Empty means the tables agreed.
    pub ranges: Vec<KeyRange>,
    /// Internal tree nodes whose subtree hashes were compared.
    pub nodes_compared: u64,
    /// Leaf pairs compared after pruning equal subtrees.
    pub leaves_compared: u64,
}

impl DigestDiff {
    /// Whether the two digests agreed everywhere.
    pub fn converged(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Sparse view of one side's leaves keyed by bucket id, with each leaf's
/// subtree contribution precomputed so interval sums are cheap.
struct Side<'a> {
    leaves: &'a [LeafDigest],
    contributions: Vec<u64>,
}

impl<'a> Side<'a> {
    fn new(leaves: &'a [LeafDigest]) -> Side<'a> {
        Side {
            leaves,
            contributions: leaves.iter().map(leaf_contribution).collect(),
        }
    }

    /// Index range of leaves with bucket ids inside `[lo, hi]`.
    fn slice(&self, lo: i64, hi: i64) -> (usize, usize) {
        let from = self.leaves.partition_point(|l| l.bucket < lo);
        let to = self.leaves.partition_point(|l| l.bucket <= hi);
        (from, to)
    }

    /// Wrapping sum of contributions over the leaf index range.
    fn subtree_hash(&self, from: usize, to: usize) -> u64 {
        self.contributions[from..to]
            .iter()
            .fold(0u64, |acc, c| acc.wrapping_add(*c))
    }
}

/// Compare two digests of the same table built under the same span,
/// localizing divergence to bounded key ranges by hierarchical subtree
/// pruning: equal subtree hashes cut whole bucket intervals without ever
/// touching their leaves. Mismatched tables or spans are a typed error —
/// the digests are simply not comparable.
pub fn compare_digests(a: &TableDigest, b: &TableDigest) -> StorageResult<DigestDiff> {
    if a.table != b.table {
        return Err(StorageError::SchemaMismatch(format!(
            "cannot compare digests of different tables ({} vs {})",
            a.table, b.table
        )));
    }
    if a.span != b.span {
        return Err(StorageError::SchemaMismatch(format!(
            "cannot compare digests with different spans ({} vs {})",
            a.span, b.span
        )));
    }
    let mut diff = DigestDiff::default();
    let (lo, hi) = match bucket_bounds(a, b) {
        Some(bounds) => bounds,
        None => return Ok(diff), // both empty: trivially converged
    };
    let left = Side::new(&a.leaves);
    let right = Side::new(&b.leaves);
    let mut diverged: Vec<i64> = Vec::new();
    descend(&left, &right, lo, hi, &mut diff, &mut diverged);
    diff.ranges = coalesce(&diverged, a.span);
    Ok(diff)
}

/// Smallest and largest bucket id present on either side.
fn bucket_bounds(a: &TableDigest, b: &TableDigest) -> Option<(i64, i64)> {
    let firsts = [a.leaves.first(), b.leaves.first()];
    let lasts = [a.leaves.last(), b.leaves.last()];
    let lo = firsts.iter().flatten().map(|l| l.bucket).min()?;
    let hi = lasts.iter().flatten().map(|l| l.bucket).max()?;
    Some((lo, hi))
}

/// Recursive subtree comparison over the bucket interval `[lo, hi]`.
fn descend(
    left: &Side<'_>,
    right: &Side<'_>,
    lo: i64,
    hi: i64,
    diff: &mut DigestDiff,
    diverged: &mut Vec<i64>,
) {
    let (lf, lt) = left.slice(lo, hi);
    let (rf, rt) = right.slice(lo, hi);
    if lt == lf && rt == rf {
        return; // both sides empty over the interval
    }
    diff.nodes_compared += 1;
    if left.subtree_hash(lf, lt) == right.subtree_hash(rf, rt) {
        return; // equal subtrees: prune
    }
    if lo == hi {
        // A single diverged bucket.
        diff.leaves_compared += 1;
        diverged.push(lo);
        return;
    }
    // Widen to i128: bucket ids from corrupt or phantom rows can sit near
    // both i64 extremes at once, where `hi - lo` overflows. Floor division
    // (not truncation) keeps `lo <= mid < hi` for negative sums, so the
    // recursion always shrinks.
    let mid = ((lo as i128 + hi as i128).div_euclid(2)) as i64;
    descend(left, right, lo, mid, diff, diverged);
    descend(left, right, mid + 1, hi, diff, diverged);
}

/// Coalesce ascending diverged bucket ids into inclusive key ranges.
fn coalesce(buckets: &[i64], span: i64) -> Vec<KeyRange> {
    let mut out: Vec<KeyRange> = Vec::new();
    for &bucket in buckets {
        let range = bucket_range(bucket, span);
        match out.last_mut() {
            Some(last) if last.hi.saturating_add(1) >= range.lo => last.hi = range.hi,
            _ => out.push(range),
        }
    }
    out
}

/// Copy the rows of snapshot `src` whose key (column `key_pos`) falls in
/// any of `ranges` into a new snapshot at `dst`, in `src`'s order and under
/// its header's sort key. Returns the number of rows kept — the scoped input
/// a range-restricted [`crate::snapshot::diff_snapshots`] repair runs on,
/// which reads a key-ordered copy as one run, with no run generation. The
/// source is read a block at a time: each row's key is read where its block
/// holds it and its range found by binary search, and a row is built only
/// when it is kept.
pub fn filter_snapshot(
    src: &Path,
    key_pos: usize,
    ranges: &[KeyRange],
    dst: &Path,
) -> StorageResult<u64> {
    let mut source = RowSource::open(src)?;
    let mut sink = RowSink::create_sorted(dst, colbatch::DEFAULT_BLOCK_ROWS, source.key())?;
    let ranges = sorted_disjoint(ranges);
    let mut kept = 0u64;
    while let Some(block) = source.next_block()? {
        for r in 0..block.len() {
            let key = match (key_pos < block.arity(r)).then(|| block.cell(r, key_pos)) {
                Some(Cell::Int(k)) => k,
                other => {
                    return Err(StorageError::SchemaMismatch(format!(
                        "snapshot key column {key_pos} must be an integer, got {other:?}"
                    )))
                }
            };
            let at = ranges.partition_point(|range| range.hi < key);
            if ranges.get(at).is_some_and(|range| range.contains(key)) {
                sink.write_row(block.row(r))?;
                kept += 1;
            }
        }
    }
    sink.finish()?;
    Ok(kept)
}

/// `ranges` sorted, with overlapping ones merged and empty ones dropped: the
/// same keys, in ranges whose `hi`s ascend, so that a key's range is found
/// by binary search. [`compare_digests`] gives ranges in this form already.
fn sorted_disjoint(ranges: &[KeyRange]) -> Vec<KeyRange> {
    let mut sorted: Vec<KeyRange> = ranges.iter().filter(|r| r.lo <= r.hi).copied().collect();
    sorted.sort_by_key(|r| r.lo);
    let mut out: Vec<KeyRange> = Vec::with_capacity(sorted.len());
    for range in sorted {
        match out.last_mut() {
            Some(last) if range.lo <= last.hi => last.hi = last.hi.max(range.hi),
            _ => out.push(range),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_storage::Value;

    fn row(id: i64, v: &str) -> Row {
        Row::new(vec![Value::Int(id), Value::Str(v.to_string())])
    }

    fn digest_of(rows: &[Row], span: i64) -> TableDigest {
        let mut b = DigestBuilder::new("t", 0, DigestParams::with_span(span));
        for r in rows {
            b.add_row(r).unwrap();
        }
        b.finish()
    }

    #[test]
    fn equal_tables_equal_roots_any_order() {
        let rows: Vec<Row> = (0..100).map(|i| row(i, "x")).collect();
        let mut shuffled = rows.clone();
        shuffled.reverse();
        shuffled.swap(3, 47);
        let a = digest_of(&rows, 10);
        let b = digest_of(&shuffled, 10);
        assert_eq!(a, b);
        assert_eq!(a.root(), b.root());
        assert!(compare_digests(&a, &b).unwrap().converged());
    }

    #[test]
    fn single_edit_localizes_to_one_leaf() {
        let rows: Vec<Row> = (0..1000).map(|i| row(i, "x")).collect();
        let mut edited = rows.clone();
        edited[537] = row(537, "y");
        let a = digest_of(&rows, 10);
        let b = digest_of(&edited, 10);
        assert_ne!(a.root(), b.root());
        let diff = compare_digests(&a, &b).unwrap();
        assert_eq!(diff.ranges.len(), 1);
        assert!(diff.ranges[0].contains(537));
        assert_eq!(diff.leaves_compared, 1, "exactly one leaf inspected");
        assert!(
            diff.nodes_compared < 2 * 100,
            "pruning keeps the walk logarithmic-ish, saw {}",
            diff.nodes_compared
        );
    }

    #[test]
    fn missing_rows_and_negative_keys_diverge() {
        let rows: Vec<Row> = (-50..50).map(|i| row(i, "x")).collect();
        let mut shrunk: Vec<Row> = rows.clone();
        shrunk.retain(|r| r.values()[0] != Value::Int(-17));
        let a = digest_of(&rows, 7);
        let b = digest_of(&shrunk, 7);
        let diff = compare_digests(&a, &b).unwrap();
        assert_eq!(diff.ranges.len(), 1);
        assert!(diff.ranges[0].contains(-17));
    }

    #[test]
    fn encode_decode_round_trip() {
        let rows: Vec<Row> = (0..200).map(|i| row(i * 3, "abc")).collect();
        let d = digest_of(&rows, 16);
        let bytes = d.encode();
        let back = TableDigest::decode(&bytes).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn mismatched_spans_are_a_typed_error() {
        let rows: Vec<Row> = (0..10).map(|i| row(i, "x")).collect();
        let a = digest_of(&rows, 4);
        let b = digest_of(&rows, 5);
        assert!(matches!(
            compare_digests(&a, &b),
            Err(StorageError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn filter_snapshot_keeps_only_ranged_rows() {
        let dir = std::env::temp_dir().join(format!(
            "delta-digest-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("all.snap");
        let dst = dir.join("some.snap");
        let mut sink = RowSink::create(&src, colbatch::DEFAULT_BLOCK_ROWS).unwrap();
        for i in 0..100 {
            sink.write_row(row(i, "z")).unwrap();
        }
        sink.finish().unwrap();
        let ranges = [KeyRange { lo: 10, hi: 19 }, KeyRange { lo: 90, hi: 99 }];
        let kept = filter_snapshot(&src, 0, &ranges, &dst).unwrap();
        assert_eq!(kept, 20);
        let mut source = RowSource::open(&dst).unwrap();
        let mut keys = Vec::new();
        while let Some(r) = source.next_row().unwrap() {
            match r.values()[0] {
                Value::Int(k) => keys.push(k),
                _ => unreachable!(),
            }
        }
        assert_eq!(keys.len(), 20);
        assert!(keys.iter().all(|k| key_in_ranges(&ranges, *k)));
    }

    /// The filter as it was before it read blocks: every row built, every
    /// range scanned.
    fn filter_by_rows(
        src: &Path,
        key_pos: usize,
        ranges: &[KeyRange],
        dst: &Path,
    ) -> StorageResult<u64> {
        let mut source = RowSource::open(src)?;
        let mut sink = RowSink::create_sorted(dst, colbatch::DEFAULT_BLOCK_ROWS, source.key())?;
        let mut kept = 0u64;
        while let Some(row) = source.next_row()? {
            let key = match row.values().get(key_pos) {
                Some(Value::Int(k)) => *k,
                other => {
                    return Err(StorageError::SchemaMismatch(format!(
                        "snapshot key column {key_pos} must be an integer, got {other:?}"
                    )))
                }
            };
            if key_in_ranges(ranges, key) {
                sink.write_row(row)?;
                kept += 1;
            }
        }
        sink.finish()?;
        Ok(kept)
    }

    #[test]
    fn a_block_wise_filter_writes_the_bytes_of_the_row_building_one() {
        let dir = std::env::temp_dir().join(format!(
            "delta-digest-filter-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (src, got, want) = (
            dir.join("src.snap"),
            dir.join("got.snap"),
            dir.join("want.snap"),
        );
        // Keys at both i64 extremes and in between, in 7-row blocks, some of
        // them ragged (a row with an extra cell), the key second.
        let mut keys: Vec<i64> = (0..5)
            .flat_map(|i| [i64::MIN + i, i64::MAX - i, 10 * i - 20])
            .chain(100..160)
            .collect();
        keys.sort_unstable();
        let mut sink = RowSink::create_sorted(&src, 7, &[1]).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let mut vals = vec![Value::Str(format!("v{i}")), Value::Int(k)];
            if i % 11 == 3 {
                vals.push(Value::Null);
            }
            sink.write_row(Row::new(vals)).unwrap();
        }
        sink.finish().unwrap();
        let range = |lo, hi| KeyRange { lo, hi };
        let cases: Vec<Vec<KeyRange>> = vec![
            vec![],
            vec![range(i64::MIN, i64::MAX)],
            vec![range(i64::MIN, i64::MIN + 1), range(i64::MAX - 2, i64::MAX)],
            vec![
                range(-20, -10),
                range(0, 0),
                range(103, 110),
                range(150, 200),
            ],
            // Unsorted, overlapping and empty ranges keep their meaning.
            vec![
                range(150, 155),
                range(100, 120),
                range(110, 130),
                range(5, 4),
            ],
        ];
        for ranges in &cases {
            let kept = filter_snapshot(&src, 1, ranges, &got).unwrap();
            assert_eq!(kept, filter_by_rows(&src, 1, ranges, &want).unwrap());
            assert_eq!(
                std::fs::read(&got).unwrap(),
                std::fs::read(&want).unwrap(),
                "{ranges:?}"
            );
        }
        // A key column that is not an integer, or missing, is the same
        // schema error.
        for key_pos in [0, 2] {
            let ranges = [range(i64::MIN, i64::MAX)];
            let got = filter_snapshot(&src, key_pos, &ranges, &got).map_err(|e| e.to_string());
            let want = filter_by_rows(&src, key_pos, &ranges, &want).map_err(|e| e.to_string());
            assert!(got.is_err(), "key column {key_pos}");
            assert_eq!(got, want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extreme_bucket_ids_compare_without_overflow() {
        // A phantom/corrupt row can land a bucket near i64::MIN while the
        // real data sits near i64::MAX; the interval midpoint must not
        // compute `hi - lo` in i64 (overflow) and must floor-divide so the
        // recursion shrinks on negative intervals too.
        let a = digest_of(&[row(i64::MIN, "phantom"), row(i64::MAX, "x")], 1);
        let b = digest_of(&[row(i64::MAX, "x")], 1);
        let diff = compare_digests(&a, &b).unwrap();
        assert_eq!(diff.ranges.len(), 1);
        assert!(diff.ranges[0].contains(i64::MIN));

        // [-1, 0] is the smallest interval where a truncated (toward-zero)
        // midpoint equals `hi` and the recursion would never terminate.
        let c = digest_of(&[row(-1, "x"), row(0, "x")], 1);
        let d = digest_of(&[row(0, "x")], 1);
        let diff = compare_digests(&c, &d).unwrap();
        assert_eq!(diff.ranges.len(), 1);
        assert!(diff.ranges[0].contains(-1));
    }

    #[test]
    fn params_for_key_range_targets_leaf_count() {
        let p = DigestParams::for_key_range(0, 9999, 100);
        assert_eq!(p.span, 100);
        let tiny = DigestParams::for_key_range(5, 5, 64);
        assert_eq!(tiny.span, 1);
    }
}
