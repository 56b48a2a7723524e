//! Database dump and load utilities (Table 1 of the paper).
//!
//! * [`export_table`] — the proprietary **Export** utility: a sequential scan
//!   written to the product/version-tagged binary format. Fast (one pass, no
//!   engine write path).
//! * [`import_table`] — the matching **Import** utility: re-inserts every row
//!   through the buffer pool and WAL in batches, flushing its pages per
//!   batch. This is the "fills its own internal pages and ... extra I/O" cost
//!   structure the paper uses to explain why Import is the slowest path.
//!   Import refuses dumps from a different product or format version.
//! * [`ascii_dump`] — plain ASCII dump of a table (also what timestamp-based
//!   extraction with file output produces).
//! * [`loader_load`] — the **DBMS Loader**: a direct-path load that packs
//!   ASCII rows straight into slotted pages and writes them to the heap file,
//!   bypassing the buffer pool and the WAL (like a classic direct-path
//!   SQL*Loader run, it is unlogged; indexes are rebuilt afterwards).

use std::cmp::Ordering;
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use delta_storage::codec::{ascii, export};
use delta_storage::{colbatch, EncodedRow, RecordId, SlottedPage, StorageError, Value};

use crate::db::Database;
use crate::error::{EngineError, EngineResult};
use crate::index::Index;
use crate::lock::LockMode;

/// How the Loader treats existing table contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Keep existing rows, append the new ones.
    Append,
    /// Truncate the table first.
    Replace,
}

/// Rows inserted per Import transaction batch.
const IMPORT_BATCH: usize = 1024;

/// Export `table` to `path` in the proprietary binary format. Returns the
/// number of rows written.
pub fn export_table(db: &Database, table: &str, path: impl AsRef<Path>) -> EngineResult<u64> {
    let meta = db.table(table)?;
    db.in_txn(|txn| {
        db.lock_table(txn, table, LockMode::Shared)?;
        let out = BufWriter::new(File::create(path.as_ref())?);
        let mut w = export::ExportWriter::new(out, &db.options().product, &meta.schema)?;
        db.for_each_row(table, |_, row| {
            w.write_row(&row)?;
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(w.finish()?)
    })
}

/// Import `path` (produced by [`export_table`] of the **same product and
/// version**) into `table`. The dump's schema must match the table's columns
/// exactly (names and types, in order). Returns rows inserted.
pub fn import_table(db: &Database, table: &str, path: impl AsRef<Path>) -> EngineResult<u64> {
    let meta = db.table(table)?;
    let input = BufReader::new(File::open(path.as_ref())?);
    let mut reader = export::ExportReader::new(input, Some(&db.options().product))?;
    check_schema_match(&reader.schema, &meta.schema, table)?;

    let mut imported = 0u64;
    loop {
        // One transaction per batch; each batch flushes its pages — the
        // Import utility's characteristic extra I/O.
        let in_batch = db.in_txn(|txn| {
            db.lock_table(txn, table, LockMode::Exclusive)?;
            let mut in_batch = 0usize;
            while in_batch < IMPORT_BATCH {
                match reader.next_row()? {
                    Some(row) => {
                        db.insert_row(txn, &meta, row)?;
                        in_batch += 1;
                    }
                    None => break,
                }
            }
            Ok(in_batch)
        })?;
        db.pool().flush(Some(meta.file_id))?;
        imported += in_batch as u64;
        if in_batch < IMPORT_BATCH {
            break;
        }
    }
    Ok(imported)
}

fn check_schema_match(
    dump: &delta_storage::Schema,
    table: &delta_storage::Schema,
    name: &str,
) -> EngineResult<()> {
    let ok = dump.len() == table.len()
        && dump
            .columns()
            .iter()
            .zip(table.columns())
            .all(|(a, b)| a.name == b.name && a.data_type == b.data_type);
    if !ok {
        return Err(EngineError::Invalid(format!(
            "dump schema [{}] does not match table '{name}' [{}]",
            dump.to_catalog_string(),
            table.to_catalog_string()
        )));
    }
    Ok(())
}

/// Dump `table` to `path` as pipe-delimited ASCII. Returns rows written.
pub fn ascii_dump(db: &Database, table: &str, path: impl AsRef<Path>) -> EngineResult<u64> {
    db.in_txn(|txn| {
        db.lock_table(txn, table, LockMode::Shared)?;
        let mut out = BufWriter::new(File::create(path.as_ref())?);
        let mut n = 0u64;
        db.for_each_row(table, |_, row| {
            writeln!(out, "{}", ascii::format_row(&row))?;
            n += 1;
            Ok(ControlFlow::Continue(()))
        })?;
        out.flush()?;
        Ok(n)
    })
}

/// The sibling temp file a snapshot dump stages through before its rename.
fn snapshot_tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Keys per chunk of a key-ordered snapshot dump: the dump holds one
/// chunk's record ids and records at a time, whatever the table's size.
const DUMP_CHUNK_KEYS: usize = colbatch::DEFAULT_BLOCK_ROWS;

/// Dump `table` to `path` as a snapshot: columnar CRC-framed row blocks
/// (see `delta_storage::colbatch`), read back by `RowSource`. Returns rows
/// written.
///
/// A table with a single-column primary key and its unique index is dumped
/// in key order, and the snapshot's header names the key column, so a
/// sort-merge diff reads the file as one sorted run (DESIGN.md §30). The
/// dump walks the index in chunks of [`DUMP_CHUNK_KEYS`] keys, each resumed
/// after the last key of the one before, and fetches a chunk's rows with
/// one page latch per run of record ids on a page. Every index entry must
/// lead to a live row holding its key; one that does not fails the dump
/// with `Corrupt` rather than leave the row out. Any other table is dumped
/// in heap order with no key in its header. Either way the dump holds the
/// shared table lock throughout.
///
/// No row is built (DESIGN.md §35): each record's bytes are copied from the
/// heap into `RowSink::write_record`, which encodes every block from the
/// cells of its records read in place and checks each record as
/// `Row::from_bytes` would, so a damaged record still fails the dump with
/// `Corrupt`. The key-ordered dump reads the key it compares through
/// `EncodedRow`, which checks the whole record first.
///
/// The dump is staged to a sibling `.tmp` file and renamed into place, so a
/// crash or failure mid-dump never clobbers the previous snapshot, and every
/// failure path removes its temp. Under an armed disk budget the staged
/// bytes (net of any previous snapshot the rename replaces) must be
/// admitted before the rename; denial surfaces as a typed `DiskFull` with
/// the old snapshot intact.
pub fn snapshot_dump(db: &Database, table: &str, path: impl AsRef<Path>) -> EngineResult<u64> {
    let path = path.as_ref();
    let tmp = snapshot_tmp_path(path);
    let result = db.in_txn(|txn| {
        db.lock_table(txn, table, LockMode::Shared)?;
        let meta = db.table(table)?;
        match db.pk_index(&meta) {
            Some(idx) => dump_in_key_order(db, table, &idx, &tmp),
            None => dump_in_heap_order(db, table, &tmp),
        }
    });
    let rows = match result {
        Ok(rows) => rows,
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
    };
    if let Some(budget) = &db.options().disk_budget {
        let staged = fs::metadata(&tmp).map(|m| m.len()).unwrap_or(0);
        let replaced = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        if let Err(e) = budget.admit_full(&tmp, staged.saturating_sub(replaced)) {
            let _ = fs::remove_file(&tmp);
            return Err(EngineError::Storage(e));
        }
    }
    fs::rename(&tmp, path)?;
    Ok(rows)
}

fn dump_in_heap_order(db: &Database, table: &str, tmp: &Path) -> EngineResult<u64> {
    let mut sink = colbatch::RowSink::create(tmp, colbatch::DEFAULT_BLOCK_ROWS)?;
    let mut n = 0u64;
    db.heap(table)?.for_each(|_, record| -> EngineResult<_> {
        sink.write_record(record)?;
        n += 1;
        Ok(ControlFlow::Continue(()))
    })?;
    sink.finish()?;
    Ok(n)
}

fn dump_in_key_order(db: &Database, table: &str, idx: &Index, tmp: &Path) -> EngineResult<u64> {
    let heap = db.heap(table)?;
    let key_pos = idx.column_pos();
    let mut sink = colbatch::RowSink::create_sorted(tmp, colbatch::DEFAULT_BLOCK_ROWS, &[key_pos])?;
    // A chunk's records, copied out under their pages' latches and handed
    // to the sink after: `records` back to back, each ending at its `ends`.
    let mut records: Vec<u8> = Vec::new();
    let mut ends: Vec<usize> = Vec::with_capacity(DUMP_CHUNK_KEYS);
    let mut cells = Vec::new();
    let mut last: Option<Value> = None;
    let mut n = 0u64;
    loop {
        let chunk = idx.entries_after(last.as_ref(), DUMP_CHUNK_KEYS);
        let rids: Vec<RecordId> = chunk.iter().map(|&(_, rid)| rid).collect();
        let mut keys = chunk.iter().map(|(key, _)| key);
        heap.for_each_at(&rids, |rid, bytes| -> EngineResult<()> {
            let (Some(key), Some(bytes)) = (keys.next(), bytes) else {
                return Err(dangling(table, rid));
            };
            let held = EncodedRow::index(bytes, &mut cells)?.cell(key_pos);
            if held.map(|c| c.total_cmp(&key.as_cell())) != Some(Ordering::Equal) {
                return Err(dangling(table, rid));
            }
            records.extend_from_slice(bytes);
            ends.push(records.len());
            Ok(())
        })?;
        let mut start = 0;
        for &end in &ends {
            sink.write_record(&records[start..end])?;
            start = end;
            n += 1;
        }
        records.clear();
        ends.clear();
        match chunk.into_iter().last() {
            Some((key, _)) => last = Some(key),
            None => break,
        }
    }
    sink.finish()?;
    Ok(n)
}

/// The primary-key index of `table` names `rid`, but the heap holds no row
/// with that entry's key there.
fn dangling(table: &str, rid: RecordId) -> EngineError {
    EngineError::Storage(StorageError::Corrupt(format!(
        "snapshot of '{table}': the primary-key index names {rid}, \
         where the heap holds no row with that key"
    )))
}

/// Direct-path load of an ASCII dump into `table`: rows are validated, packed
/// into fresh slotted pages, and written straight to the heap file (no buffer
/// pool, no WAL). Primary-key uniqueness is checked up front; indexes are
/// rebuilt afterwards. Returns rows loaded.
pub fn loader_load(
    db: &Database,
    table: &str,
    path: impl AsRef<Path>,
    mode: LoadMode,
) -> EngineResult<u64> {
    let meta = db.table(table)?;
    db.in_txn(|txn| {
        db.lock_table(txn, table, LockMode::Exclusive)?;
        let heap = db.heap(table)?;
        if mode == LoadMode::Replace {
            heap.truncate()?;
            for idx in db.indexes().for_table(table).iter() {
                idx.clear();
            }
        }
        // Pre-validate primary-key uniqueness (against existing rows and
        // within the load file) so a failed load cannot half-apply.
        let indexes = db.indexes().for_table(table);
        let unique_idx = indexes.iter().find(|i| i.def.unique);
        let mut fresh_keys: HashSet<String> = HashSet::new();

        let mut input = BufReader::new(File::open(path.as_ref())?);
        let rows = ascii::read_rows(&mut input, &meta.schema)?;
        let mut validated = Vec::with_capacity(rows.len());
        for row in rows {
            let row = meta.schema.validate(row)?;
            if let Some(idx) = unique_idx {
                let key = &row.values()[idx.column_pos()];
                if !key.is_null() {
                    let k = key.to_string();
                    if !fresh_keys.insert(k) || idx.lookup_unique(key).is_some() {
                        return Err(EngineError::DuplicateKey {
                            table: table.to_string(),
                            key: key.to_string(),
                        });
                    }
                }
            }
            validated.push(row);
        }

        // Pack pages locally and write them directly to the end of the file,
        // building index entries from the stream as each page lands (as
        // direct-path loaders do — no post-pass over the loaded data).
        let file = db.pool().file(meta.file_id)?;
        let mut page = SlottedPage::new();
        let mut loaded = 0u64;
        // (slot, row index) pairs for the page currently being packed.
        let mut pending: Vec<(u16, usize)> = Vec::new();
        let flush_page =
            |page: &mut SlottedPage, pending: &mut Vec<(u16, usize)>| -> EngineResult<()> {
                let page_no = file.allocate_page()?;
                file.write_page(page_no, &mut std::mem::take(page).into_bytes()[..])?;
                for (slot, row_idx) in pending.drain(..) {
                    let rid = delta_storage::RecordId::new(page_no, slot);
                    for idx in indexes.iter() {
                        idx.insert(&validated[row_idx].values()[idx.column_pos()], rid)?;
                    }
                }
                Ok(())
            };
        for (row_idx, row) in validated.iter().enumerate() {
            let bytes = row.to_bytes();
            let slot = match page.insert(&bytes) {
                Ok(slot) => slot,
                Err(_) => {
                    flush_page(&mut page, &mut pending)?;
                    page.insert(&bytes).map_err(EngineError::Storage)?
                }
            };
            pending.push((slot, row_idx));
            loaded += 1;
        }
        if page.live_count() > 0 {
            flush_page(&mut page, &mut pending)?;
        }
        Ok(loaded)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{open_temp, Database, DbOptions};
    use delta_storage::codec::export::ProductTag;
    use delta_storage::{Row, Value};
    use std::sync::Arc;

    fn setup(rows: i64) -> (Arc<Database>, std::path::PathBuf) {
        let db = open_temp("util").unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR, last_modified TIMESTAMP)")
            .unwrap();
        for i in 0..rows {
            s.execute(&format!("INSERT INTO parts VALUES ({i}, 'part-{i}', NULL)"))
                .unwrap();
        }
        let dir = db.options().dir.clone();
        (db, dir)
    }

    #[test]
    fn export_import_round_trip() {
        let (db, dir) = setup(100);
        let dump = dir.join("parts.exp");
        assert_eq!(export_table(&db, "parts", &dump).unwrap(), 100);

        let mut s = db.session();
        s.execute(
            "CREATE TABLE parts2 (id INT PRIMARY KEY, name VARCHAR, last_modified TIMESTAMP)",
        )
        .unwrap();
        assert_eq!(import_table(&db, "parts2", &dump).unwrap(), 100);
        assert_eq!(db.row_count("parts2").unwrap(), 100);
        // Contents equal (same values, timestamps preserved).
        let a: Vec<Row> = db
            .scan_table("parts")
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let b: Vec<Row> = db
            .scan_table("parts2")
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn import_rejects_other_product() {
        let (db, dir) = setup(5);
        let dump = dir.join("parts.exp");
        export_table(&db, "parts", &dump).unwrap();

        // A second database configured as a different product.
        let other_dir = dir.join("otherdb");
        let mut opts = DbOptions::new(other_dir);
        opts.product = ProductTag::new("otherdb", 9);
        let other = Database::open(opts).unwrap();
        let mut s = other.session();
        s.execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR, last_modified TIMESTAMP)")
            .unwrap();
        let err = import_table(&other, "parts", &dump).unwrap_err();
        assert!(err.to_string().contains("incompatible"), "{err}");
    }

    #[test]
    fn import_rejects_schema_mismatch() {
        let (db, dir) = setup(5);
        let dump = dir.join("parts.exp");
        export_table(&db, "parts", &dump).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE narrow (id INT PRIMARY KEY, name VARCHAR)")
            .unwrap();
        assert!(import_table(&db, "narrow", &dump).is_err());
    }

    #[test]
    fn ascii_dump_and_loader_round_trip() {
        let (db, dir) = setup(250);
        let dump = dir.join("parts.txt");
        assert_eq!(ascii_dump(&db, "parts", &dump).unwrap(), 250);

        let mut s = db.session();
        s.execute(
            "CREATE TABLE loaded (id INT PRIMARY KEY, name VARCHAR, last_modified TIMESTAMP)",
        )
        .unwrap();
        assert_eq!(
            loader_load(&db, "loaded", &dump, LoadMode::Append).unwrap(),
            250
        );
        assert_eq!(db.row_count("loaded").unwrap(), 250);
        // Loaded rows are visible through the normal engine read path.
        let r = s.execute("SELECT name FROM loaded WHERE id = 42").unwrap();
        assert_eq!(r.rows[0].values()[0], Value::Str("part-42".into()));
    }

    #[test]
    fn loader_replace_truncates_first() {
        let (db, dir) = setup(10);
        let dump = dir.join("parts.txt");
        ascii_dump(&db, "parts", &dump).unwrap();
        loader_load(&db, "parts", &dump, LoadMode::Replace).unwrap();
        assert_eq!(db.row_count("parts").unwrap(), 10, "replace, not double");
        loader_load(&db, "parts", &dump, LoadMode::Append).unwrap_err();
        // Append of the same keys fails the uniqueness pre-check...
        assert_eq!(
            db.row_count("parts").unwrap(),
            10,
            "...without loading anything"
        );
    }

    #[test]
    fn loader_detects_duplicate_keys_within_file() {
        let (db, dir) = setup(0);
        let dump = dir.join("dup.txt");
        std::fs::write(&dump, "1|a|NULL\n1|b|NULL\n").unwrap();
        let err = loader_load(&db, "parts", &dump, LoadMode::Append).unwrap_err();
        assert!(matches!(err, EngineError::DuplicateKey { .. }));
        assert_eq!(db.row_count("parts").unwrap(), 0);
    }

    #[test]
    fn loader_is_unlogged_import_is_logged() {
        let (db, dir) = setup(50);
        let ascii_path = dir.join("a.txt");
        let exp_path = dir.join("a.exp");
        ascii_dump(&db, "parts", &ascii_path).unwrap();
        export_table(&db, "parts", &exp_path).unwrap();
        let mut s = db.session();
        s.execute("CREATE TABLE t1 (id INT PRIMARY KEY, name VARCHAR, last_modified TIMESTAMP)")
            .unwrap();
        s.execute("CREATE TABLE t2 (id INT PRIMARY KEY, name VARCHAR, last_modified TIMESTAMP)")
            .unwrap();
        let lsn_before = db.wal().next_lsn();
        loader_load(&db, "t1", &ascii_path, LoadMode::Append).unwrap();
        let lsn_after_load = db.wal().next_lsn();
        assert_eq!(lsn_before, lsn_after_load, "direct path load writes no WAL");
        import_table(&db, "t2", &exp_path).unwrap();
        assert!(
            db.wal().next_lsn() > lsn_after_load,
            "import is fully logged"
        );
    }
}
