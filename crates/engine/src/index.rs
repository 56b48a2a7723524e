//! Ordered secondary indexes and unique primary-key indexes.
//!
//! An index is one ordered set of `(key, record id)` entries over a single
//! column, ordered by [`IndexKey`] and then by record id. Entries sit
//! inline in the set's B-tree leaves: a key costs no allocation of its own,
//! and a key held by many records is a run of adjacent entries. Unique and
//! non-unique indexes share the set; uniqueness is a probe before the
//! insert. A search is one descent to a sentinel entry: `(k, MIN_RID)`
//! sorts before every entry of `k` and `(k, MAX_RID)` after, so a point
//! probe walks forward from `(k, MIN_RID)` while the key stays `k`.
//!
//! Indexes are maintained synchronously by DML and rebuilt by a heap scan
//! at database open (a main-memory index over disk-resident data — the
//! persistence story the paper's timestamp-extraction discussion needs is
//! the *ordering*, which this provides deterministically).
//!
//! The executor consults [`crate::exec::choose_access_path`]-style
//! heuristics before using an index: per §3.1.1, *"indices may not be used by
//! the query optimizer if the deltas form a significant portion of the
//! table"* — we reproduce that with a selectivity threshold.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::RwLock;

use delta_storage::{RecordId, Value};

use crate::error::{EngineError, EngineResult};

/// A totally ordered wrapper over [`Value`] (NULLs first, then by type rank).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexKey(pub Value);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Index definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    pub name: String,
    pub table: String,
    pub column: String,
    /// Unique indexes reject duplicate keys (primary keys).
    pub unique: bool,
}

/// Sentinels: `(key, MIN_RID)` sorts before every entry of `key`, and
/// `(key, MAX_RID)` after.
const MIN_RID: RecordId = RecordId::new(0, 0);
const MAX_RID: RecordId = RecordId::new(u32::MAX, u16::MAX);

/// One index entry; the set orders entries by key, then by record id.
type IndexEntry = (IndexKey, RecordId);

/// One in-memory ordered index.
pub struct Index {
    pub def: IndexDef,
    /// Position of `def.column` in the table's schema.
    column_pos: usize,
    entries: RwLock<BTreeSet<IndexEntry>>,
}

impl Index {
    /// Create an empty index from its definition; `column_pos` is where
    /// `def.column` sits in the table's schema.
    pub fn new(def: IndexDef, column_pos: usize) -> Index {
        Index {
            def,
            column_pos,
            entries: RwLock::new(BTreeSet::new()),
        }
    }

    /// Position of the indexed column in the table's schema.
    pub fn column_pos(&self) -> usize {
        self.column_pos
    }

    /// Insert `(key, rid)`. NULL keys are not indexed (SQL semantics).
    /// Unique indexes reject an existing non-NULL key held by another rid;
    /// re-inserting a present pair changes nothing.
    pub fn insert(&self, key: &Value, rid: RecordId) -> EngineResult<()> {
        if key.is_null() {
            return Ok(());
        }
        let mut entry = (IndexKey(key.clone()), MIN_RID);
        let mut set = self.entries.write();
        if self.def.unique && first_rid(&set, &entry).is_some_and(|held| held != rid) {
            return Err(EngineError::DuplicateKey {
                table: self.def.table.clone(),
                key: key.to_string(),
            });
        }
        entry.1 = rid;
        set.insert(entry);
        Ok(())
    }

    /// Insert `(key, rid)` whose uniqueness the caller has checked: one
    /// descent, no probe. `Database::insert_row` finds every unique key of
    /// a row absent before it touches the heap, under the table's exclusive
    /// lock, so [`Index::insert`]'s own probe would descend for nothing.
    /// NULL keys are not indexed.
    pub(crate) fn insert_checked(&self, key: &Value, rid: RecordId) {
        if !key.is_null() {
            self.entries.write().insert((IndexKey(key.clone()), rid));
        }
    }

    /// Remove `(key, rid)` if present.
    pub fn remove(&self, key: &Value, rid: RecordId) {
        if key.is_null() {
            return;
        }
        self.entries.write().remove(&(IndexKey(key.clone()), rid));
    }

    /// Record ids whose key equals `key`, in record-id order.
    pub fn lookup(&self, key: &Value) -> Vec<RecordId> {
        if key.is_null() {
            return Vec::new();
        }
        let probe = (IndexKey(key.clone()), MIN_RID);
        let set = self.entries.read();
        set.range((Bound::Included(&probe), Bound::Unbounded))
            .take_while(|(k, _)| k.cmp(&probe.0).is_eq())
            .map(|&(_, rid)| rid)
            .collect()
    }

    /// The record id under `key` in a unique index (the lowest of them in
    /// any other): one descent, nothing collected.
    pub fn lookup_unique(&self, key: &Value) -> Option<RecordId> {
        if key.is_null() {
            return None;
        }
        first_rid(&self.entries.read(), &(IndexKey(key.clone()), MIN_RID))
    }

    /// Record ids within the bounds, in key order. An equality (both bounds
    /// including one key) is a point probe, not a range walk.
    pub fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RecordId> {
        if let (Bound::Included(a), Bound::Included(b)) = (lo, hi) {
            if a.total_cmp(b) == Ordering::Equal {
                return self.lookup(a);
            }
        }
        let Some((lo, hi)) = entry_range(lo, hi) else {
            return Vec::new();
        };
        self.entries
            .read()
            .range((lo.as_ref(), hi.as_ref()))
            .map(|&(_, rid)| rid)
            .collect()
    }

    /// One chunk of a key-ordered walk: the `(key, rid)` pairs of the keys
    /// after `after` (from the first key when `None`), in key order, whole
    /// keys only, stopping once at least `limit` pairs are taken. Passing
    /// the last key of a chunk resumes the walk right after it.
    pub fn entries_after(&self, after: Option<&Value>, limit: usize) -> Vec<(Value, RecordId)> {
        let lo = after.map(|k| (IndexKey(k.clone()), MAX_RID));
        let lo = lo.as_ref().map_or(Bound::Unbounded, Bound::Excluded);
        let mut out: Vec<(Value, RecordId)> = Vec::with_capacity(limit.min(1 << 16));
        for (key, rid) in self.entries.read().range((lo, Bound::Unbounded)) {
            // Past the limit, only the rest of the last key's entries.
            let same_key = out.last().is_some_and(|(k, _)| k.total_cmp(&key.0).is_eq());
            if out.len() >= limit && !same_key {
                break;
            }
            out.push((key.0.clone(), *rid));
        }
        out
    }

    /// Number of record ids within the bounds, counted until it exceeds
    /// `limit` (selectivity estimation: a caller that will refuse the index
    /// past `limit` matches pays for `limit + 1` entries, not for the
    /// range). The result is exact whenever it is `<= limit` and `limit + 1`
    /// otherwise; `usize::MAX` counts the whole range.
    pub fn count_range(&self, lo: Bound<&Value>, hi: Bound<&Value>, limit: usize) -> usize {
        let Some((lo, hi)) = entry_range(lo, hi) else {
            return 0;
        };
        self.entries
            .read()
            .range((lo.as_ref(), hi.as_ref()))
            .take(limit.saturating_add(1))
            .count()
    }

    /// Total indexed entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries (table truncation / rebuild).
    pub fn clear(&self) {
        self.entries.write().clear();
    }
}

/// The record id of the first entry at or after `probe` when its key equals
/// `probe`'s: with `probe = (key, MIN_RID)`, the lowest rid under `key`.
fn first_rid(set: &BTreeSet<IndexEntry>, probe: &IndexEntry) -> Option<RecordId> {
    let (key, rid) = set
        .range((Bound::Included(probe), Bound::Unbounded))
        .next()?;
    key.cmp(&probe.0).is_eq().then_some(*rid)
}

/// The bounds as sentinel entries, or `None` when no key can lie between
/// them (`x > 5 AND x < 3`) — `BTreeSet::range` panics on such a pair.
fn entry_range(
    lo: Bound<&Value>,
    hi: Bound<&Value>,
) -> Option<(Bound<IndexEntry>, Bound<IndexEntry>)> {
    if let (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) =
        (lo, hi)
    {
        let both_included = matches!((lo, hi), (Bound::Included(_), Bound::Included(_)));
        match a.total_cmp(b) {
            Ordering::Greater => return None,
            Ordering::Equal if !both_included => return None,
            _ => {}
        }
    }
    Some((
        sentinel(lo, MIN_RID, MAX_RID),
        sentinel(hi, MAX_RID, MIN_RID),
    ))
}

/// A bound on keys as a bound on entries: an included key `k` as
/// `(k, included)`, an excluded one as `(k, excluded)`.
fn sentinel(b: Bound<&Value>, included: RecordId, excluded: RecordId) -> Bound<IndexEntry> {
    match b {
        Bound::Included(v) => Bound::Included((IndexKey(v.clone()), included)),
        Bound::Excluded(v) => Bound::Excluded((IndexKey(v.clone()), excluded)),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// The registry's two views of one set of indexes: by name, and per table as
/// a shared slice sorted by index name, which is what every row primitive
/// and the access-path choice iterate. The slices are rebuilt when an index
/// is created or dropped, never per statement.
#[derive(Default)]
struct Registry {
    by_name: HashMap<String, Arc<Index>>,
    by_table: HashMap<String, Arc<[Arc<Index>]>>,
}

impl Registry {
    fn rebuild_table(&mut self, table: &str) {
        let mut v: Vec<_> = self
            .by_name
            .values()
            .filter(|i| i.def.table == table)
            .cloned()
            .collect();
        if v.is_empty() {
            self.by_table.remove(table);
        } else {
            v.sort_by(|a, b| a.def.name.cmp(&b.def.name));
            self.by_table.insert(table.to_string(), v.into());
        }
    }
}

/// Registry of all indexes in a database.
#[derive(Default)]
pub struct IndexManager {
    registry: RwLock<Registry>,
}

impl IndexManager {
    /// Create an empty index registry.
    pub fn new() -> IndexManager {
        IndexManager::default()
    }

    /// Register a new (empty) index; `column_pos` is the position of
    /// `def.column` in the table's schema.
    pub fn create(&self, def: IndexDef, column_pos: usize) -> EngineResult<Arc<Index>> {
        let mut reg = self.registry.write();
        if reg.by_name.contains_key(&def.name) {
            return Err(EngineError::AlreadyExists(def.name));
        }
        let idx = Arc::new(Index::new(def, column_pos));
        reg.by_name.insert(idx.def.name.clone(), idx.clone());
        reg.rebuild_table(&idx.def.table);
        Ok(idx)
    }

    /// Remove an index by name.
    pub fn drop(&self, name: &str) -> EngineResult<()> {
        let mut reg = self.registry.write();
        let idx = reg
            .by_name
            .remove(name)
            .ok_or_else(|| EngineError::NoSuchObject(name.to_string()))?;
        reg.rebuild_table(&idx.def.table);
        Ok(())
    }

    /// Remove every index on `table` (DROP TABLE).
    pub fn drop_for_table(&self, table: &str) {
        let mut reg = self.registry.write();
        reg.by_name.retain(|_, idx| idx.def.table != table);
        reg.by_table.remove(table);
    }

    /// Look up an index by name.
    pub fn get(&self, name: &str) -> Option<Arc<Index>> {
        self.registry.read().by_name.get(name).cloned()
    }

    /// Every index on `table`, sorted by index name.
    pub fn for_table(&self, table: &str) -> Arc<[Arc<Index>]> {
        match self.registry.read().by_table.get(table) {
            Some(slice) => slice.clone(),
            None => Arc::new([]),
        }
    }

    /// The index on `(table, column)` if one exists (prefers unique).
    pub fn on_column(&self, table: &str, column: &str) -> Option<Arc<Index>> {
        let idxs = self.for_table(table);
        let on = || idxs.iter().filter(|i| i.def.column == column);
        on().find(|i| i.def.unique).or_else(|| on().next()).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u32) -> RecordId {
        RecordId::new(n, 0)
    }

    fn idx(unique: bool) -> Index {
        Index::new(
            IndexDef {
                name: "i".into(),
                table: "t".into(),
                column: "c".into(),
                unique,
            },
            0,
        )
    }

    #[test]
    fn insert_lookup_remove() {
        let i = idx(false);
        i.insert(&Value::Int(5), rid(1)).unwrap();
        i.insert(&Value::Int(5), rid(2)).unwrap();
        i.insert(&Value::Int(9), rid(3)).unwrap();
        assert_eq!(i.lookup(&Value::Int(5)).len(), 2);
        i.remove(&Value::Int(5), rid(1));
        assert_eq!(i.lookup(&Value::Int(5)), vec![rid(2)]);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn a_chunked_walk_resumes_after_the_last_key() {
        let i = idx(false);
        for k in [4, 1, 3, 2] {
            i.insert(&Value::Int(k), rid(k as u32)).unwrap();
        }
        i.insert(&Value::Int(2), rid(20)).unwrap();
        let mut walked = Vec::new();
        let mut last: Option<Value> = None;
        loop {
            let chunk = i.entries_after(last.as_ref(), 2);
            let Some((k, _)) = chunk.last() else { break };
            last = Some(k.clone());
            walked.push(chunk);
        }
        // Key 2's two rids stay in one chunk, which therefore holds three.
        let pairs = |v: &[(i64, u32)]| -> Vec<(Value, RecordId)> {
            v.iter().map(|&(k, p)| (Value::Int(k), rid(p))).collect()
        };
        assert_eq!(
            walked,
            vec![pairs(&[(1, 1), (2, 2), (2, 20)]), pairs(&[(3, 3), (4, 4)])]
        );
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let i = idx(true);
        i.insert(&Value::Int(1), rid(1)).unwrap();
        assert!(matches!(
            i.insert(&Value::Int(1), rid(2)),
            Err(EngineError::DuplicateKey { .. })
        ));
        // Same rid re-insert is idempotent, not a duplicate.
        i.insert(&Value::Int(1), rid(1)).unwrap();
    }

    #[test]
    fn nulls_are_not_indexed() {
        let i = idx(true);
        i.insert(&Value::Null, rid(1)).unwrap();
        i.insert(&Value::Null, rid(2)).unwrap(); // no unique violation
        assert!(i.is_empty());
        assert!(i.lookup(&Value::Null).is_empty());
    }

    #[test]
    fn range_queries() {
        let i = idx(false);
        for n in 0..10 {
            i.insert(&Value::Int(n), rid(n as u32)).unwrap();
        }
        let got = i.range(
            Bound::Included(&Value::Int(3)),
            Bound::Excluded(&Value::Int(7)),
        );
        assert_eq!(got, vec![rid(3), rid(4), rid(5), rid(6)]);
        assert_eq!(
            i.count_range(
                Bound::Excluded(&Value::Int(8)),
                Bound::Unbounded,
                usize::MAX
            ),
            1
        );
        assert_eq!(
            i.count_range(Bound::Unbounded, Bound::Unbounded, usize::MAX),
            10
        );
    }

    #[test]
    fn bounded_count_stops_one_past_the_limit() {
        let i = idx(true);
        for n in 0..1000 {
            i.insert(&Value::Int(n), rid(n as u32)).unwrap();
        }
        // Exact at or below the limit, limit + 1 (distinct keys) beyond it.
        let lo = Bound::Included(&Value::Int(10));
        assert_eq!(i.count_range(lo, Bound::Excluded(&Value::Int(15)), 5), 5);
        assert_eq!(i.count_range(lo, Bound::Unbounded, 5), 6);
        assert_eq!(i.count_range(Bound::Unbounded, Bound::Unbounded, 0), 1);
    }

    #[test]
    fn inverted_and_empty_bounds_match_nothing() {
        let i = idx(false);
        for n in 0..10 {
            i.insert(&Value::Int(n), rid(n as u32)).unwrap();
        }
        let (three, five) = (Value::Int(3), Value::Int(5));
        for (lo, hi) in [
            (Bound::Excluded(&five), Bound::Excluded(&three)),
            (Bound::Included(&five), Bound::Included(&three)),
            (Bound::Excluded(&five), Bound::Excluded(&five)),
            (Bound::Included(&five), Bound::Excluded(&five)),
        ] {
            assert!(i.range(lo, hi).is_empty());
            assert_eq!(i.count_range(lo, hi, usize::MAX), 0);
        }
        assert_eq!(
            i.range(Bound::Included(&five), Bound::Included(&five)),
            vec![rid(5)]
        );
    }

    #[test]
    fn range_over_timestamps_matches_int_ordering() {
        let i = idx(false);
        for n in [100i64, 200, 300] {
            i.insert(&Value::Timestamp(n), rid(n as u32)).unwrap();
        }
        let got = i.range(Bound::Excluded(&Value::Timestamp(100)), Bound::Unbounded);
        assert_eq!(got, vec![rid(200), rid(300)]);
    }

    #[test]
    fn manager_registration_and_lookup() {
        let m = IndexManager::new();
        // Registered out of name order; the per-table slice is sorted.
        m.create(
            IndexDef {
                name: "ts_t".into(),
                table: "t".into(),
                column: "ts".into(),
                unique: false,
            },
            1,
        )
        .unwrap();
        m.create(
            IndexDef {
                name: "pk_t".into(),
                table: "t".into(),
                column: "id".into(),
                unique: true,
            },
            0,
        )
        .unwrap();
        assert!(m.get("pk_t").is_some());
        let names: Vec<_> = m
            .for_table("t")
            .iter()
            .map(|i| (i.def.name.clone(), i.column_pos()))
            .collect();
        assert_eq!(names, [("pk_t".to_string(), 0), ("ts_t".to_string(), 1)]);
        m.drop("pk_t").unwrap();
        assert_eq!(m.for_table("t").len(), 1);
        assert_eq!(m.on_column("t", "ts").unwrap().def.name, "ts_t");
        assert!(m.on_column("t", "nope").is_none());
        m.drop_for_table("t");
        assert!(m.for_table("t").is_empty());
    }

    #[test]
    fn manager_rejects_duplicate_names() {
        let m = IndexManager::new();
        let def = IndexDef {
            name: "i".into(),
            table: "t".into(),
            column: "c".into(),
            unique: false,
        };
        m.create(def.clone(), 0).unwrap();
        assert!(m.create(def, 0).is_err());
    }

    #[test]
    fn clear_empties_index() {
        let i = idx(false);
        i.insert(&Value::Int(1), rid(1)).unwrap();
        i.clear();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
