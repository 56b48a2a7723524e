//! Database-level online scrubbing (DESIGN.md §14).
//!
//! Drives the storage scrubber (`delta_storage::scrub`) across everything a
//! [`Database`] keeps on disk: every table heap (page CRC + structural
//! check, after flushing dirty pages so the disk images are current) and
//! every archived WAL segment (re-read end to end by the segment decoder,
//! which checks every entry's checksum and, because an archived segment
//! closed after a whole commit group, takes an undecodable tail as damage).
//!
//! Corrupt units are quarantined without destroying evidence: heap pages go
//! into the heap's `.quarantine` sidecar; unreadable archived segments are
//! renamed `*.wal.corrupt` — the same `LogManager` walk the resilient log
//! extractor runs — so no reader trips over them again; a log reader that
//! still needed one reports it lost ([`crate::wal::Tail::lost`]), and the
//! log extractor then owes an audit. The
//! [`ScrubReport`] names the affected tables, which is exactly the input
//! the anti-entropy auditor needs to run a *targeted* audit instead of a
//! full sweep (a corrupt archived segment could have carried any table's
//! history, so it conservatively implicates all of them).

use std::path::PathBuf;

use delta_storage::scrub::{quarantine_pages, scrub_page_file};

use crate::db::Database;
use crate::EngineResult;

/// What one [`scrub_database`] pass found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Heap pages read and inspected.
    pub pages_scanned: u64,
    /// All-zero pages (allocated, never written), which carry no CRC.
    pub pages_unstamped: u64,
    /// Pages failing the CRC or structural check.
    pub pages_corrupt: u64,
    /// Archived WAL segments re-read end to end.
    pub wal_segments_scanned: u64,
    /// Archived segments that failed to decode and were renamed aside.
    pub wal_segments_corrupt: u64,
    /// Quarantine artifacts created: page sidecars and renamed segments.
    pub quarantined: Vec<PathBuf>,
    /// Tables implicated by corruption — the targeted-audit worklist.
    pub tables_affected: Vec<String>,
}

impl ScrubReport {
    /// Whether the pass found no corruption at all.
    pub fn clean(&self) -> bool {
        self.pages_corrupt == 0 && self.wal_segments_corrupt == 0
    }
}

/// Scrub every table heap and archived WAL segment of `db`, quarantining
/// corrupt units and reporting the tables they implicate. Online in the
/// sense that it only reads data files (after a flush) and renames
/// already-archived segments — concurrent transactions keep running.
pub fn scrub_database(db: &Database) -> EngineResult<ScrubReport> {
    let mut report = ScrubReport::default();
    // Flush dirty pages so the on-disk images carry current stamps; stale
    // but flushed pages from before this call are still valid (older LSN,
    // stamped at their own write time).
    db.pool().flush(None)?;
    for table in db.table_names() {
        let heap = db.heap(&table)?;
        let file = db.pool().file(heap.file_id())?;
        let out = scrub_page_file(&file)?;
        report.pages_scanned += out.scanned;
        report.pages_unstamped += out.unstamped;
        report.pages_corrupt += out.corrupt.len() as u64;
        if !out.corrupt.is_empty() {
            report
                .quarantined
                .push(quarantine_pages(file.path(), &out.corrupt)?);
            report.tables_affected.push(table);
        }
    }
    let (scanned, quarantined) = db.wal().quarantine_corrupt_archived()?;
    report.wal_segments_scanned += scanned as u64;
    report.wal_segments_corrupt += quarantined.len() as u64;
    report.quarantined.extend(quarantined);
    if report.wal_segments_corrupt > 0 {
        // A segment's records could have touched any table; implicate all.
        report.tables_affected = db.table_names();
    }
    report.tables_affected.sort();
    report.tables_affected.dedup();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::open_temp;

    #[test]
    fn clean_database_scrubs_clean() {
        let db = open_temp("scrub-clean").unwrap();
        let mut s = crate::session::Session::new(db.clone());
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 0..50 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
        }
        db.checkpoint().unwrap();
        let report = scrub_database(&db).unwrap();
        assert!(report.clean(), "unexpected corruption: {report:?}");
        assert!(report.pages_scanned > 0);
        assert!(report.tables_affected.is_empty());
    }

    #[test]
    fn flipped_heap_page_is_detected_and_quarantined() {
        use std::io::{Seek, SeekFrom, Write};
        let db = open_temp("scrub-flip").unwrap();
        let mut s = crate::session::Session::new(db.clone());
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 0..200 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
        }
        db.checkpoint().unwrap();
        // Flip a payload byte in the heap file behind the engine's back.
        let heap = db.heap("t").unwrap();
        let path = db.pool().file(heap.file_id()).unwrap().path().to_path_buf();
        {
            let mut raw = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            raw.seek(SeekFrom::Start(5000)).unwrap();
            raw.write_all(&[0xAA]).unwrap();
        }
        let report = scrub_database(&db).unwrap();
        assert_eq!(report.pages_corrupt, 1);
        assert_eq!(report.tables_affected, vec!["t".to_string()]);
        assert!(!report.clean());
        assert!(report.quarantined[0]
            .to_string_lossy()
            .ends_with(".quarantine"));
    }

    #[test]
    fn corrupt_archived_segment_is_renamed_aside() {
        let dir = std::env::temp_dir().join(format!(
            "deltaforge-scrub-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(crate::db::DbOptions::new(dir).archive(true)).unwrap();
        let mut s = crate::session::Session::new(db.clone());
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 0..50 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
        }
        db.checkpoint().unwrap();
        for i in 50..100 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
        }
        db.checkpoint().unwrap();
        let archived = db.wal().archived_segments().unwrap();
        assert!(!archived.is_empty(), "checkpoints archived segments");
        // Truncate one archived segment mid-record.
        let victim = &archived[0];
        let bytes = std::fs::read(victim).unwrap();
        std::fs::write(victim, &bytes[..bytes.len() / 2]).unwrap();
        let report = scrub_database(&db).unwrap();
        assert_eq!(report.wal_segments_corrupt, 1);
        assert!(!victim.exists(), "corrupt segment moved aside");
        assert_eq!(
            report.tables_affected,
            vec!["t".to_string()],
            "WAL corruption implicates every table"
        );
    }
}
