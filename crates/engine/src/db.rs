//! The database object: catalog + buffer pool + WAL + locks + triggers +
//! indexes, with the row primitives every higher layer builds on. A row
//! primitive changes one row (heap, indexes, undo, redo) and does nothing
//! else; stamping and capture belong to the SQL executor.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use delta_storage::codec::export::ProductTag;
use delta_storage::fault::FaultInjector;
use delta_storage::pressure::DiskBudget;
use delta_storage::{
    BufferPool, BufferPoolStats, DeltaCodec, DiskFile, HeapFile, RecordId, Row, Schema, Value,
};

use crate::catalog::{Catalog, TableMeta, TableOptions};
use crate::error::{EngineError, EngineResult};
use crate::index::{Index, IndexDef, IndexManager};
use crate::lock::{LockManager, LockMode};
use crate::session::Session;
use crate::trigger::{TriggerDef, TriggerManager};
use crate::txn::{Transaction, TxnManager, UndoEntry};
use crate::wal::{committed_units, LogManager, LogRecord, Lsn};

/// WAL durability level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Buffered writes only (fastest; test default).
    None,
    /// Flush to the OS on every commit.
    Flush,
    /// fsync on every commit.
    Fsync,
}

/// Database configuration.
#[derive(Debug, Clone)]
pub struct DbOptions {
    /// Directory holding heap files, the catalog, WAL and archive.
    pub dir: PathBuf,
    /// Buffer pool capacity in pages.
    pub buffer_pool_pages: usize,
    /// Buffer pool shard count (rounded up to a power of two). `0` picks the
    /// next power of two at or above the machine's available parallelism.
    pub buffer_pool_shards: usize,
    /// WAL durability.
    pub wal_sync: SyncMode,
    /// WAL segment capacity in bytes.
    pub wal_segment_bytes: u64,
    /// Keep closed WAL segments (input to log-based extraction, §3 method 4).
    pub archive_mode: bool,
    /// Lock wait budget before a timeout error (deadlock resolution).
    pub lock_timeout: Duration,
    /// Product/version tag stamped into Export dumps and enforced by Import.
    pub product: ProductTag,
    /// Armed fault-injection plan threaded into every disk file and the WAL
    /// writer (deterministic torture testing). `None` in production.
    pub faults: Option<Arc<FaultInjector>>,
    /// Armed disk-space budget (byte countdown + per-path quotas) threaded
    /// into every disk file, the WAL writer and snapshot dumps; a checkpoint
    /// archives segments by rename, which needs no space. Exhaustion
    /// surfaces as a typed `StorageError::DiskFull` that leaves on-disk state
    /// recoverable.
    /// `None` means unlimited.
    pub disk_budget: Option<Arc<DiskBudget>>,
    /// The one codec there is; nothing reads this field. It stays only
    /// because the frozen dwbench harness sets it, and ROADMAP item 5's
    /// benchmark PR removes it with [`DeltaCodec`].
    pub delta_codec: DeltaCodec,
}

impl DbOptions {
    /// Sensible defaults rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> DbOptions {
        DbOptions {
            dir: dir.into(),
            buffer_pool_pages: 1024,
            buffer_pool_shards: 0,
            wal_sync: SyncMode::None,
            wal_segment_bytes: 1 << 20,
            archive_mode: false,
            lock_timeout: Duration::from_secs(5),
            product: ProductTag::new("cotsdb", 1),
            faults: None,
            disk_budget: None,
            delta_codec: DeltaCodec::default(),
        }
    }

    /// Builder-style toggle for archive mode.
    pub fn archive(mut self, on: bool) -> DbOptions {
        self.archive_mode = on;
        self
    }

    /// Builder-style WAL sync mode.
    pub fn sync(mut self, mode: SyncMode) -> DbOptions {
        self.wal_sync = mode;
        self
    }

    /// Builder-style buffer-pool shard count (`0` = auto).
    pub fn pool_shards(mut self, shards: usize) -> DbOptions {
        self.buffer_pool_shards = shards;
        self
    }

    /// Builder-style fault injector (deterministic torture testing).
    pub fn faults(mut self, inj: Arc<FaultInjector>) -> DbOptions {
        self.faults = Some(inj);
        self
    }

    /// Builder-style disk budget (deterministic resource-exhaustion
    /// testing; also usable as a hard cap in production).
    pub fn disk_budget(mut self, budget: Arc<DiskBudget>) -> DbOptions {
        self.disk_budget = Some(budget);
        self
    }
}

/// A single-node relational database.
pub struct Database {
    opts: DbOptions,
    pool: Arc<BufferPool>,
    catalog: Catalog,
    wal: LogManager,
    locks: LockManager,
    txns: TxnManager,
    triggers: TriggerManager,
    indexes: IndexManager,
    heaps: RwLock<HashMap<String, Arc<HeapFile>>>,
    /// Deterministic logical clock (microseconds); strictly increasing per
    /// statement. Restored past the max stored timestamp at open.
    clock: AtomicI64,
    statements_executed: AtomicU64,
}

impl Database {
    /// Open (or create) a database at `opts.dir`.
    pub fn open(opts: DbOptions) -> EngineResult<Arc<Database>> {
        fs::create_dir_all(&opts.dir)?;
        let catalog = Catalog::open(&opts.dir)?;
        let pool = Arc::new(match opts.buffer_pool_shards {
            0 => BufferPool::new(opts.buffer_pool_pages),
            n => BufferPool::with_shards(opts.buffer_pool_pages, n),
        });
        let wal = LogManager::open(
            opts.dir.join("wal"),
            opts.dir.join("archive"),
            opts.wal_segment_bytes,
            opts.wal_sync,
            opts.archive_mode,
            opts.faults.clone(),
            opts.disk_budget.clone(),
        )?;
        let locks = LockManager::new(opts.lock_timeout);
        let db = Arc::new(Database {
            pool,
            catalog,
            wal,
            locks,
            txns: TxnManager::new(),
            triggers: TriggerManager::new(),
            indexes: IndexManager::new(),
            heaps: RwLock::new(HashMap::new()),
            clock: AtomicI64::new(1),
            statements_executed: AtomicU64::new(0),
            opts,
        });
        // Attach heap files for all cataloged tables.
        for meta in db.catalog.all() {
            db.attach_heap(&meta)?;
        }
        // Recreate index definitions (PK indexes from schemas, secondary
        // indexes from indexes.meta), then rebuild their contents by scanning.
        for meta in db.catalog.all() {
            db.define_pk_index(&meta)?;
        }
        db.load_secondary_index_defs()?;
        let mut max_ts = 0i64;
        for meta in db.catalog.all() {
            let ts = db.rebuild_indexes_for(&meta.name)?;
            max_ts = max_ts.max(ts);
        }
        // Crash recovery: replay the resident durable WAL so the heaps hold
        // exactly the committed state, no matter what a crash interrupted.
        max_ts = max_ts.max(db.recover_from_wal()?);
        db.clock.store(max_ts + 1, Ordering::SeqCst);
        Ok(db)
    }

    /// Configuration this database was opened with.
    pub fn options(&self) -> &DbOptions {
        &self.opts
    }

    /// The buffer pool (exposed for utilities and statistics).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Buffer pool counters.
    pub fn pool_stats(&self) -> BufferPoolStats {
        self.pool.stats()
    }

    /// The write-ahead log.
    pub fn wal(&self) -> &LogManager {
        &self.wal
    }

    /// The trigger registry.
    pub fn triggers(&self) -> &TriggerManager {
        &self.triggers
    }

    /// The lock manager (used by the warehouse appliers and tests).
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Number of statements executed since open.
    pub fn statements_executed(&self) -> u64 {
        self.statements_executed.load(Ordering::Relaxed)
    }

    pub(crate) fn count_statement(&self) {
        self.statements_executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Advance and return the logical clock (one tick per statement).
    pub fn now_micros(&self) -> i64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Read the clock without advancing it.
    pub fn peek_clock(&self) -> i64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Open an interactive session.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(self.clone())
    }

    // ------------------------------------------------------------------
    // Catalog / DDL
    // ------------------------------------------------------------------

    fn attach_heap(&self, meta: &TableMeta) -> EngineResult<Arc<HeapFile>> {
        let path = self.opts.dir.join(meta.heap_file_name());
        let file = Arc::new(DiskFile::open_with_io(
            path,
            self.opts.faults.clone(),
            self.opts.disk_budget.clone(),
        )?);
        self.pool.register_file(meta.file_id, file);
        let heap = Arc::new(HeapFile::new(self.pool.clone(), meta.file_id));
        self.heaps.write().insert(meta.name.clone(), heap.clone());
        Ok(heap)
    }

    fn define_pk_index(&self, meta: &TableMeta) -> EngineResult<()> {
        let pk = meta.schema.primary_key_indices();
        if pk.len() == 1 {
            let col = &meta.schema.columns()[pk[0]].name;
            self.indexes.create(
                IndexDef {
                    name: format!("pk_{}", meta.name),
                    table: meta.name.clone(),
                    column: col.clone(),
                    unique: true,
                },
                pk[0],
            )?;
        }
        // Composite primary keys are cataloged but not index-enforced; the
        // engine's workloads (and the paper's) use single-column keys.
        Ok(())
    }

    fn secondary_index_meta_path(&self) -> PathBuf {
        self.opts.dir.join("indexes.meta")
    }

    fn load_secondary_index_defs(&self) -> EngineResult<()> {
        let path = self.secondary_index_meta_path();
        if !path.exists() {
            return Ok(());
        }
        for line in fs::read_to_string(&path)?.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split('\t');
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(name), Some(table), Some(column), Some(unique)) => {
                    // `drop_table` persists the catalog before this file, so
                    // a crash between the two leaves a line for a table that
                    // is gone: skip it (the next save drops it).
                    let Some(pos) = self
                        .catalog
                        .get(table)
                        .ok()
                        .and_then(|meta| meta.schema.index_of(column))
                    else {
                        continue;
                    };
                    self.indexes.create(
                        IndexDef {
                            name: name.into(),
                            table: table.into(),
                            column: column.into(),
                            unique: unique == "1",
                        },
                        pos,
                    )?;
                }
                _ => {
                    return Err(EngineError::Invalid(format!(
                        "bad indexes.meta line '{line}'"
                    )))
                }
            }
        }
        Ok(())
    }

    fn save_secondary_index_defs(&self) -> EngineResult<()> {
        let mut out = String::new();
        for name in self.catalog.names() {
            for idx in self.indexes.for_table(&name).iter() {
                if !idx.def.name.starts_with("pk_") {
                    out.push_str(&format!(
                        "{}\t{}\t{}\t{}\n",
                        idx.def.name,
                        idx.def.table,
                        idx.def.column,
                        if idx.def.unique { 1 } else { 0 }
                    ));
                }
            }
        }
        fs::write(self.secondary_index_meta_path(), out)?;
        Ok(())
    }

    /// Create a table (DDL is autonomous: logged and durable immediately).
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        options: TableOptions,
    ) -> EngineResult<Arc<TableMeta>> {
        let meta = self.catalog.create(name, schema, options)?;
        self.attach_heap(&meta)?;
        self.define_pk_index(&meta)?;
        self.wal.append_batch(&[LogRecord::CreateTable {
            name: meta.name.clone(),
            schema: meta.schema.to_catalog_string(),
            options: match &meta.options.auto_timestamp {
                Some(c) => format!("auto_ts={c}"),
                None => String::new(),
            },
        }])?;
        Ok(meta)
    }

    /// Drop a table, its heap file, triggers and indexes.
    pub fn drop_table(&self, name: &str) -> EngineResult<()> {
        let meta = self.catalog.drop(name)?;
        self.triggers.drop_for_table(name);
        self.indexes.drop_for_table(name);
        self.save_secondary_index_defs()?;
        self.heaps.write().remove(name);
        self.pool.deregister_file(meta.file_id);
        let path = self.opts.dir.join(meta.heap_file_name());
        if path.exists() {
            fs::remove_file(path)?;
        }
        self.wal.append_batch(&[LogRecord::DropTable {
            name: name.to_string(),
        }])?;
        Ok(())
    }

    /// Table metadata by name.
    pub fn table(&self, name: &str) -> EngineResult<Arc<TableMeta>> {
        self.catalog.get(name)
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.names()
    }

    /// The heap file backing `table`.
    pub fn heap(&self, table: &str) -> EngineResult<Arc<HeapFile>> {
        self.heaps
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| EngineError::NoSuchObject(table.to_string()))
    }

    /// Create a secondary index on `(table, column)` and build it.
    pub fn create_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
        unique: bool,
    ) -> EngineResult<Arc<Index>> {
        let meta = self.catalog.get(table)?;
        let col_idx = meta
            .schema
            .index_of(column)
            .ok_or_else(|| EngineError::NoSuchObject(format!("{table}.{column}")))?;
        let idx = self.indexes.create(
            IndexDef {
                name: name.into(),
                table: table.into(),
                column: column.into(),
                unique,
            },
            col_idx,
        )?;
        let built = self.for_each_row(table, |rid, row| {
            idx.insert(&row.values()[col_idx], rid)?;
            Ok(ControlFlow::Continue(()))
        });
        if let Err(e) = built {
            self.indexes.drop(name)?;
            return Err(e);
        }
        self.save_secondary_index_defs()?;
        Ok(idx)
    }

    /// Drop a secondary index.
    pub fn drop_index(&self, name: &str) -> EngineResult<()> {
        self.indexes.drop(name)?;
        self.save_secondary_index_defs()
    }

    /// The index registry.
    pub fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    /// Rebuild every index of `table` by scanning its heap. Returns the
    /// largest Timestamp value seen in the table (clock restoration).
    pub fn rebuild_indexes_for(&self, table: &str) -> EngineResult<i64> {
        let idxs = self.indexes.for_table(table);
        for i in idxs.iter() {
            i.clear();
        }
        let mut max_ts = 0i64;
        self.for_each_row(table, |rid, row| {
            for v in row.values() {
                if let Value::Timestamp(t) = v {
                    max_ts = max_ts.max(*t);
                }
            }
            for i in idxs.iter() {
                i.insert(&row.values()[i.column_pos()], rid)?;
            }
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(max_ts)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction.
    pub fn begin(&self) -> Transaction {
        self.txns.begin()
    }

    /// Acquire a lock for `txn` and remember it for release.
    pub fn lock_table(
        &self,
        txn: &mut Transaction,
        table: &str,
        mode: LockMode,
    ) -> EngineResult<()> {
        self.locks.acquire(txn.id, table, mode)?;
        txn.note_lock(table);
        Ok(())
    }

    /// Run `body` as one transaction: committed when it returns `Ok`,
    /// aborted (every row change undone, every lock released) when it
    /// returns `Err`. [`Transaction`] has no `Drop`, so a `?` between a
    /// bare `begin` and `commit` leaks the locks and the half-applied rows;
    /// this is the way to hold a transaction across fallible work.
    pub fn in_txn<T>(
        &self,
        body: impl FnOnce(&mut Transaction) -> EngineResult<T>,
    ) -> EngineResult<T> {
        let mut txn = self.begin();
        match body(&mut txn) {
            Ok(out) => {
                self.commit(txn)?;
                Ok(out)
            }
            Err(e) => {
                self.abort(txn)?;
                Err(e)
            }
        }
    }

    /// Commit: publish the transaction's redo atomically, then release locks.
    /// Returns the LSN range written (or `None` for a read-only transaction).
    pub fn commit(&self, mut txn: Transaction) -> EngineResult<Option<(Lsn, Lsn)>> {
        let result = if txn.wal_buffer.is_empty() {
            None
        } else {
            let mut records = Vec::with_capacity(txn.wal_buffer.len() + 2);
            records.push(LogRecord::Begin { txn: txn.id });
            records.append(&mut txn.wal_buffer);
            records.push(LogRecord::Commit { txn: txn.id });
            match self.wal.append_batch(&records) {
                Ok(range) => Some(range),
                Err(e) => {
                    // None of the transaction reached the log, so none of it
                    // may stay: undo its heap and index changes and release
                    // its locks before reporting the append's error.
                    self.abort(txn)?;
                    return Err(e);
                }
            }
        };
        self.locks.release_all(txn.id, &txn.locked_tables);
        Ok(result)
    }

    /// Roll back: undo heap changes with *incremental* index maintenance —
    /// each undo entry removes/reinserts exactly the keys it touched, using
    /// the row images at hand, so aborting a small transaction never scans
    /// the table. A full `rebuild_indexes_for` remains only as the fallback
    /// for entries whose index fixup cannot be applied cleanly.
    ///
    /// Undo entries name rows by the record id they had when the entry was
    /// written. A re-inserted row may land elsewhere (the heap hands out
    /// the first free slot, which a later undo may just have freed), so
    /// `moved` maps each such id to where its row lives now; without it, a
    /// transaction that deleted and inserted in one table would, on abort,
    /// delete whichever row had taken the old slot.
    pub fn abort(&self, txn: Transaction) -> EngineResult<()> {
        let mut rebuild: Vec<String> = Vec::new();
        let mut moved: HashMap<(&str, RecordId), RecordId> = HashMap::new();
        for entry in txn.undo.iter().rev() {
            match entry {
                UndoEntry::Insert { table, rid } => {
                    let rid = moved.remove(&(table.as_str(), *rid)).unwrap_or(*rid);
                    let heap = self.heap(table)?;
                    let image = heap.get(rid)?;
                    heap.delete(rid)?;
                    match image.as_deref().map(Row::from_bytes) {
                        Some(Ok(row)) => self.unhook_index_keys(table, &row, rid),
                        _ => note(&mut rebuild, table),
                    }
                }
                UndoEntry::Delete { table, rid, before } => {
                    let now = self.heap(table)?.insert(&before.to_bytes())?;
                    if now != *rid {
                        moved.insert((table.as_str(), *rid), now);
                    }
                    if self.hook_index_keys(table, before, now).is_err() {
                        note(&mut rebuild, table);
                    }
                }
                UndoEntry::Update {
                    table,
                    rid,
                    old_rid,
                    before,
                } => {
                    let rid = moved.remove(&(table.as_str(), *rid)).unwrap_or(*rid);
                    let heap = self.heap(table)?;
                    let after = heap.get(rid)?;
                    let now = heap.update(rid, &before.to_bytes())?;
                    if now != *old_rid {
                        moved.insert((table.as_str(), *old_rid), now);
                    }
                    let fixed = after
                        .as_deref()
                        .ok_or_else(|| {
                            EngineError::Invalid(format!("undo: no row at {rid:?} in {table}"))
                        })
                        .and_then(|bytes| Row::from_bytes(bytes).map_err(EngineError::Storage))
                        .and_then(|row| {
                            self.unhook_index_keys(table, &row, rid);
                            self.hook_index_keys(table, before, now)
                        });
                    if fixed.is_err() {
                        note(&mut rebuild, table);
                    }
                }
            }
        }
        for t in &rebuild {
            if self.catalog.contains(t) {
                self.rebuild_indexes_for(t)?;
            }
        }
        self.locks.release_all(txn.id, &txn.locked_tables);
        Ok(())
    }

    /// Remove every index entry of `table` keyed by `row`'s columns at `rid`.
    fn unhook_index_keys(&self, table: &str, row: &Row, rid: RecordId) {
        for idx in self.indexes.for_table(table).iter() {
            idx.remove(&row.values()[idx.column_pos()], rid);
        }
    }

    /// Insert every index entry of `table` keyed by `row`'s columns at `rid`.
    fn hook_index_keys(&self, table: &str, row: &Row, rid: RecordId) -> EngineResult<()> {
        for idx in self.indexes.for_table(table).iter() {
            idx.insert(&row.values()[idx.column_pos()], rid)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Row primitives
    // ------------------------------------------------------------------
    //
    // A row primitive changes one row and nothing else: it validates the
    // row, checks every unique key, changes the heap and the indexes, and
    // pushes one undo entry and one redo record. It stamps no timestamp and
    // fires no trigger; the SQL executor does both around it
    // (`exec::execute`), so recovery, log application, Import and every
    // warehouse write are plain row changes by construction. The caller
    // holds an exclusive lock on the table.

    /// Insert `row` into `table`; returns where it went.
    pub fn insert_row(
        &self,
        txn: &mut Transaction,
        meta: &TableMeta,
        row: Row,
    ) -> EngineResult<RecordId> {
        let row = meta.schema.validate(row)?;
        // Every unique index is checked before the heap is touched (X lock
        // held, so no race): a rejection after the heap insert would leave
        // the row behind with no undo entry and no WAL record.
        let idxs = self.indexes.for_table(&meta.name);
        for idx in idxs.iter().filter(|i| i.def.unique) {
            let key = &row.values()[idx.column_pos()];
            if idx.lookup_unique(key).is_some() {
                return Err(EngineError::DuplicateKey {
                    table: meta.name.clone(),
                    key: key.to_string(),
                });
            }
        }
        let heap = self.heap(&meta.name)?;
        let rid = with_record_bytes(&row, |bytes| heap.insert(bytes))?;
        for idx in idxs.iter() {
            idx.insert_checked(&row.values()[idx.column_pos()], rid);
        }
        txn.undo.push(UndoEntry::Insert {
            table: meta.name.clone(),
            rid,
        });
        txn.wal_buffer.push(LogRecord::Insert {
            txn: txn.id,
            table: meta.name.clone(),
            row,
        });
        Ok(rid)
    }

    /// Update the row at `rid` (old image `old`) to `new`; returns where
    /// the new version lives.
    pub fn update_row(
        &self,
        txn: &mut Transaction,
        meta: &TableMeta,
        rid: RecordId,
        old: Row,
        new: Row,
    ) -> EngineResult<RecordId> {
        let new = meta.schema.validate(new)?;
        // Unique-key check when the key changed.
        let idxs = self.indexes.for_table(&meta.name);
        for idx in idxs.iter().filter(|i| i.def.unique) {
            let pos = idx.column_pos();
            let (ov, nv) = (&old.values()[pos], &new.values()[pos]);
            if ov.sql_eq(nv) != Some(true) && idx.lookup_unique(nv).is_some() {
                return Err(EngineError::DuplicateKey {
                    table: meta.name.clone(),
                    key: nv.to_string(),
                });
            }
        }
        let heap = self.heap(&meta.name)?;
        let new_rid = with_record_bytes(&new, |bytes| heap.update(rid, bytes))?;
        for idx in idxs.iter() {
            let pos = idx.column_pos();
            let (ov, nv) = (&old.values()[pos], &new.values()[pos]);
            // An entry whose key and rid both stay is already right: the
            // common update, a new value under the same key in place.
            if new_rid == rid && ov.total_cmp(nv).is_eq() {
                continue;
            }
            idx.remove(ov, rid);
            idx.insert(nv, new_rid)?;
        }
        txn.undo.push(UndoEntry::Update {
            table: meta.name.clone(),
            rid: new_rid,
            old_rid: rid,
            before: old.clone(),
        });
        txn.wal_buffer.push(LogRecord::Update {
            txn: txn.id,
            table: meta.name.clone(),
            before: old,
            after: new,
        });
        Ok(new_rid)
    }

    /// Delete the row at `rid` (old image `old`).
    pub fn delete_row(
        &self,
        txn: &mut Transaction,
        meta: &TableMeta,
        rid: RecordId,
        old: Row,
    ) -> EngineResult<()> {
        let heap = self.heap(&meta.name)?;
        heap.delete(rid)?;
        for idx in self.indexes.for_table(&meta.name).iter() {
            idx.remove(&old.values()[idx.column_pos()], rid);
        }
        txn.undo.push(UndoEntry::Delete {
            table: meta.name.clone(),
            rid,
            before: old.clone(),
        });
        txn.wal_buffer.push(LogRecord::Delete {
            txn: txn.id,
            table: meta.name.clone(),
            before: old,
        });
        Ok(())
    }

    /// Register a trigger.
    pub fn create_trigger(&self, def: TriggerDef) -> EngineResult<()> {
        self.table(&def.table)?; // must exist
        self.triggers.create(def)
    }

    /// Remove a trigger by name.
    pub fn drop_trigger(&self, name: &str) -> EngineResult<()> {
        self.triggers.drop(name)
    }

    // ------------------------------------------------------------------
    // Scans
    // ------------------------------------------------------------------

    /// Visit every live row of `table`, decoded and owned, in storage order
    /// until `f` returns `Break` or an error. The caller holds at least a
    /// shared lock; `f` may delete or update the rid it was handed.
    pub fn for_each_row(
        &self,
        table: &str,
        mut f: impl FnMut(RecordId, Row) -> EngineResult<ControlFlow<()>>,
    ) -> EngineResult<()> {
        self.heap(table)?
            .for_each(|rid, bytes| f(rid, Row::from_bytes(bytes)?))
    }

    /// Every live row of `table`, collected: kept for tests, examples and
    /// the dwbench harness. Product code streams with `for_each_row`.
    pub fn scan_table(&self, table: &str) -> EngineResult<Vec<(RecordId, Row)>> {
        let mut out = Vec::new();
        self.for_each_row(table, |rid, row| {
            out.push((rid, row));
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(out)
    }

    /// Live row count of `table`.
    pub fn row_count(&self, table: &str) -> EngineResult<usize> {
        self.heap(table)?.live_count().map_err(EngineError::Storage)
    }

    // ------------------------------------------------------------------
    // Checkpoint & log application (standby / recovery tooling)
    // ------------------------------------------------------------------

    /// Checkpoint: flush all dirty pages, mark the log, rotate the active
    /// segment and recycle closed ones (archiving them if archive mode is
    /// on). Returns the number of segments recycled.
    pub fn checkpoint(&self) -> EngineResult<usize> {
        self.pool.flush_and_sync_all()?;
        self.wal.append_batch(&[LogRecord::Checkpoint])?;
        self.wal.switch_segment()?;
        let recycled = self.wal.recycle_closed_segments()?;
        // Recycling may leave part of the LSN history visible only in the
        // archive; persist the high-water mark so a reopen that cannot read
        // the archive (shipped, quarantined, deleted) never re-issues LSNs.
        self.wal.write_lsn_hint()?;
        Ok(recycled)
    }

    /// Redo recovery, run at open: replay the resident (post-checkpoint)
    /// durable WAL onto the heaps so every table holds exactly its committed
    /// state. Checkpoints bound the work — they flush all dirty pages and
    /// recycle the segments they cover, so only the post-checkpoint suffix
    /// is ever replayed.
    ///
    /// Without page LSNs a blind replay would be unsound: an evicted page may
    /// already hold the effect of a *later* record. The log is therefore
    /// resolved per primary key first — the last committed record for each
    /// key fixes that key's final image — and the heap is upserted/deleted to
    /// match, which is idempotent regardless of which pages reached disk.
    /// Tables without a single-column primary key fall back to image-matched
    /// sequential replay with idempotence guards.
    ///
    /// Mid-file WAL corruption surfaces as a typed `Corrupt` error from the
    /// log reader — recovery fails loudly rather than guessing. What counts
    /// as committed is the reader's call ([`committed_units`], by position),
    /// so a torn batch is never replayed whatever transaction id it carries.
    /// Returns the largest row timestamp seen in committed images (clock
    /// restore).
    fn recover_from_wal(&self) -> EngineResult<i64> {
        // Resolve the final committed image per (table, key). DDL applies
        // inline (it is autonomous and usually already in the catalog) and
        // resets any pending state for the table it touches.
        let mut max_ts = 0i64;
        let mut keyed: HashMap<String, HashMap<String, (Value, Option<Row>)>> = HashMap::new();
        let mut unkeyed: HashMap<String, Vec<LogRecord>> = HashMap::new();
        self.wal.read_committed(self.wal.resident_start(), |unit| {
            for (_, rec) in unit.iter() {
                match rec {
                    LogRecord::CreateTable {
                        name,
                        schema,
                        options,
                    } => {
                        keyed.remove(name);
                        unkeyed.remove(name);
                        if !self.catalog.contains(name) {
                            let schema = Schema::from_catalog_string(schema)?;
                            let auto_timestamp =
                                options.strip_prefix("auto_ts=").map(|s| s.to_string());
                            self.create_table(name, schema, TableOptions { auto_timestamp })?;
                        }
                    }
                    LogRecord::DropTable { name } => {
                        keyed.remove(name);
                        unkeyed.remove(name);
                        if self.catalog.contains(name) {
                            self.drop_table(name)?;
                        }
                    }
                    _ => {
                        // A row record of a table still cataloged: `-1`
                        // images vacate their key, `+1` images claim theirs,
                        // in order — so a key-changing update leaves the old
                        // key absent.
                        let Some(table) = rec.table().filter(|t| self.catalog.contains(t)) else {
                            continue;
                        };
                        let pk = single_pk_pos(self.table(table)?.as_ref());
                        for (sign, row) in rec.images().into_iter().flatten() {
                            if sign > 0 {
                                for v in row.values() {
                                    if let Value::Timestamp(t) = v {
                                        max_ts = max_ts.max(*t);
                                    }
                                }
                            }
                            if let Some(pk) = pk {
                                let key = row.values()[pk].clone();
                                let image = (sign > 0).then(|| row.clone());
                                keyed
                                    .entry(table.to_string())
                                    .or_default()
                                    .insert(key.to_string(), (key, image));
                            }
                        }
                        if pk.is_none() {
                            unkeyed
                                .entry(table.to_string())
                                .or_default()
                                .push(rec.clone());
                        }
                    }
                }
            }
            Ok(())
        })?;
        if keyed.is_empty() && unkeyed.is_empty() {
            return Ok(max_ts);
        }

        self.in_txn(|txn| {
            self.apply_recovery(txn, &keyed, &unkeyed)?;
            // Recovery re-establishes effects the durable log already
            // records; logging them again would duplicate history on every
            // open.
            txn.wal_buffer.clear();
            Ok(())
        })?;
        Ok(max_ts)
    }

    /// The heap-mutation half of [`recover_from_wal`], in one transaction.
    fn apply_recovery(
        &self,
        txn: &mut Transaction,
        keyed: &HashMap<String, HashMap<String, (Value, Option<Row>)>>,
        unkeyed: &HashMap<String, Vec<LogRecord>>,
    ) -> EngineResult<()> {
        for (table, finals) in keyed {
            if !self.catalog.contains(table) {
                continue;
            }
            let meta = self.table(table)?;
            self.lock_table(txn, table, LockMode::Exclusive)?;
            for (key, image) in finals.values() {
                let current = self.locate_by_key(&meta, key)?;
                match (current, image) {
                    (Some((rid, old)), Some(new)) => {
                        if &old != new {
                            self.update_row(txn, &meta, rid, old, new.clone())?;
                        }
                    }
                    (None, Some(new)) => {
                        self.insert_row(txn, &meta, new.clone())?;
                    }
                    (Some((rid, old)), None) => {
                        self.delete_row(txn, &meta, rid, old)?;
                    }
                    (None, None) => {}
                }
            }
        }
        for (table, recs) in unkeyed {
            if !self.catalog.contains(table) {
                continue;
            }
            let meta = self.table(table)?;
            self.lock_table(txn, table, LockMode::Exclusive)?;
            for rec in recs {
                match rec {
                    LogRecord::Insert { row, .. }
                        if self.locate_by_image(&meta, row)?.is_none() =>
                    {
                        self.insert_row(txn, &meta, row.clone())?;
                    }
                    LogRecord::Delete { before, .. } => {
                        if let Some((rid, old)) = self.locate_by_image(&meta, before)? {
                            self.delete_row(txn, &meta, rid, old)?;
                        }
                    }
                    LogRecord::Update { before, after, .. } => {
                        if let Some((rid, old)) = self.locate_by_image(&meta, before)? {
                            self.update_row(txn, &meta, rid, old, after.clone())?;
                        } else if self.locate_by_image(&meta, after)?.is_none() {
                            self.insert_row(txn, &meta, after.clone())?;
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Find the live row whose single-column primary key equals `key`
    /// (`None` too when the table has no single-column primary key).
    pub fn locate_by_key(
        &self,
        meta: &TableMeta,
        key: &Value,
    ) -> EngineResult<Option<(RecordId, Row)>> {
        match self.pk_index(meta) {
            Some(idx) => self.fetch_by_key(meta, &idx, key),
            None => Ok(None),
        }
    }

    /// The unique index over `meta`'s single-column primary key, if any.
    pub(crate) fn pk_index(&self, meta: &TableMeta) -> Option<Arc<Index>> {
        let pk = single_pk_pos(meta)?;
        let idxs = self.indexes.for_table(&meta.name);
        let idx = idxs.iter().find(|i| i.def.unique && i.column_pos() == pk)?;
        Some(idx.clone())
    }

    /// The live row the unique index `idx` holds under `key`, decoded
    /// straight from its page.
    fn fetch_by_key(
        &self,
        meta: &TableMeta,
        idx: &Index,
        key: &Value,
    ) -> EngineResult<Option<(RecordId, Row)>> {
        let Some(rid) = idx.lookup_unique(key) else {
            return Ok(None);
        };
        let row = self
            .heap(&meta.name)?
            .read(rid, |record| record.map(Row::from_bytes).transpose())??;
        Ok(row.map(|row| (rid, row)))
    }

    /// Apply committed log records (from this or another database's log) to
    /// this database — the "ship the archive logs to another similar
    /// database and apply them using the recovery manager" tool of §3.
    ///
    /// Only committed units of `records` are applied ([`committed_units`]:
    /// by position, so a torn `Begin …` fragment is ignored even when its
    /// transaction id also belongs to a committed batch); pass whole
    /// segments. Rows are located by primary key when available, else by
    /// full-image match. The row primitives capture and stamp nothing, so
    /// no trigger fires and every timestamp is the log's.
    ///
    /// The row changes are one transaction: when a record fails — applying
    /// a segment a second time hits `DuplicateKey`; file transport is
    /// at-least-once — every row already applied is undone and every lock
    /// released before the error returns. (Replayed DDL is not
    /// transactional and stays.)
    pub fn apply_log_records(&self, records: &[(Lsn, LogRecord)]) -> EngineResult<u64> {
        self.in_txn(|txn| {
            let mut applied = 0u64;
            for (_, rec) in committed_units(records).flatten() {
                match rec {
                    LogRecord::CreateTable {
                        name,
                        schema,
                        options,
                    } if !self.catalog.contains(name) => {
                        let schema = Schema::from_catalog_string(schema)?;
                        let auto_timestamp =
                            options.strip_prefix("auto_ts=").map(|s| s.to_string());
                        self.create_table(name, schema, TableOptions { auto_timestamp })?;
                    }
                    LogRecord::DropTable { name } if self.catalog.contains(name) => {
                        self.drop_table(name)?;
                    }
                    LogRecord::Insert { table, row, .. } => {
                        let meta = self.table(table)?;
                        self.lock_table(txn, table, LockMode::Exclusive)?;
                        self.insert_row(txn, &meta, row.clone())?;
                        applied += 1;
                    }
                    LogRecord::Delete { table, before, .. } => {
                        let meta = self.table(table)?;
                        self.lock_table(txn, table, LockMode::Exclusive)?;
                        if let Some((rid, old)) = self.locate_by_image(&meta, before)? {
                            self.delete_row(txn, &meta, rid, old)?;
                            applied += 1;
                        }
                    }
                    LogRecord::Update {
                        table,
                        before,
                        after,
                        ..
                    } => {
                        let meta = self.table(table)?;
                        self.lock_table(txn, table, LockMode::Exclusive)?;
                        if let Some((rid, old)) = self.locate_by_image(&meta, before)? {
                            self.update_row(txn, &meta, rid, old, after.clone())?;
                            applied += 1;
                        }
                    }
                    _ => {}
                }
            }
            Ok(applied)
        })
    }

    /// Find a row by image: primary-key lookup when possible, else a scan
    /// comparing every column that stops at the first match.
    pub fn locate_by_image(
        &self,
        meta: &TableMeta,
        image: &Row,
    ) -> EngineResult<Option<(RecordId, Row)>> {
        if let Some(idx) = self.pk_index(meta) {
            return self.fetch_by_key(meta, &idx, &image.values()[idx.column_pos()]);
        }
        let mut found = None;
        self.for_each_row(&meta.name, |rid, row| {
            if row == *image {
                found = Some((rid, row));
                return Ok(ControlFlow::Break(()));
            }
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(found)
    }
}

thread_local! {
    /// The stored form of the row a primitive is writing, in a buffer each
    /// thread reuses from one row to the next.
    static RECORD_BYTES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on `row` encoded as the heap stores it. `f` may not encode
/// another row this way.
fn with_record_bytes<R>(row: &Row, f: impl FnOnce(&[u8]) -> R) -> R {
    RECORD_BYTES.with_borrow_mut(|bytes| {
        bytes.clear();
        row.encode(bytes);
        f(bytes)
    })
}

/// Position of a single-column primary key in `meta`'s schema, if any.
fn single_pk_pos(meta: &TableMeta) -> Option<usize> {
    let pk = meta.schema.primary_key_indices();
    if pk.len() == 1 {
        Some(pk[0])
    } else {
        None
    }
}

fn note(v: &mut Vec<String>, t: &str) {
    if !v.iter().any(|x| x == t) {
        v.push(t.to_string());
    }
}

/// Create a temp-dir database for tests and examples.
pub fn open_temp(label: &str) -> EngineResult<Arc<Database>> {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    Database::open(DbOptions::new(dir))
}

/// Remove a database directory (test cleanup helper).
pub fn destroy(dir: impl AsRef<Path>) {
    let _ = fs::remove_dir_all(dir.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_storage::{Column, DataType};

    fn keyed(label: &str) -> (Arc<Database>, Arc<TableMeta>) {
        let db = open_temp(label).unwrap();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).primary_key(),
            Column::new("val", DataType::Int),
            Column::new("note", DataType::Varchar),
        ])
        .unwrap();
        db.create_table("t", schema, TableOptions::default())
            .unwrap();
        db.in_txn(|txn| {
            let meta = db.table("t")?;
            db.lock_table(txn, "t", LockMode::Exclusive)?;
            for id in 1..=3 {
                db.insert_row(txn, &meta, row(id, 10 * id, "old"))?;
            }
            Ok(())
        })
        .unwrap();
        let meta = db.table("t").unwrap();
        (db, meta)
    }

    fn row(id: i64, val: i64, note: &str) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Int(val),
            Value::Str(note.into()),
        ])
    }

    fn pk(db: &Database, meta: &TableMeta) -> Arc<Index> {
        db.pk_index(meta).unwrap()
    }

    #[test]
    fn an_update_that_keeps_its_key_and_rid_keeps_its_index_entry() {
        let (db, meta) = keyed("update-in-place");
        let (rid, old) = db.locate_by_key(&meta, &Value::Int(2)).unwrap().unwrap();
        let mut txn = db.begin();
        db.lock_table(&mut txn, "t", LockMode::Exclusive).unwrap();
        let new_rid = db
            .update_row(&mut txn, &meta, rid, old.clone(), row(2, 21, "new"))
            .unwrap();
        assert_eq!(new_rid, rid, "a row that still fits its slot stays put");
        let idx = pk(&db, &meta);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.lookup_unique(&Value::Int(2)), Some(rid));
        let found = db.locate_by_key(&meta, &Value::Int(2)).unwrap();
        assert_eq!(found, Some((rid, row(2, 21, "new"))));

        db.abort(txn).unwrap();
        let idx = pk(&db, &meta);
        assert_eq!(idx.len(), 3);
        let found = db.locate_by_key(&meta, &Value::Int(2)).unwrap();
        assert_eq!(found, Some((rid, old)), "the old image under its old rid");
    }

    #[test]
    fn an_update_that_changes_its_key_moves_its_index_entry() {
        let (db, meta) = keyed("update-new-key");
        let (rid, old) = db.locate_by_key(&meta, &Value::Int(3)).unwrap().unwrap();
        let mut txn = db.begin();
        db.lock_table(&mut txn, "t", LockMode::Exclusive).unwrap();
        let new_rid = db
            .update_row(&mut txn, &meta, rid, old.clone(), row(7, 30, "old"))
            .unwrap();
        let idx = pk(&db, &meta);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.lookup_unique(&Value::Int(3)), None);
        assert_eq!(idx.lookup_unique(&Value::Int(7)), Some(new_rid));

        db.abort(txn).unwrap();
        let idx = pk(&db, &meta);
        assert_eq!(idx.lookup_unique(&Value::Int(7)), None);
        let found = db.locate_by_key(&meta, &Value::Int(3)).unwrap();
        assert_eq!(found.map(|(_, row)| row), Some(old));
    }
}
