//! Redo recovery at open: after a simulated crash, `Database::open` replays
//! the resident durable WAL so every table holds *exactly* its committed
//! state — not a subset, not stale images, no resurrected deletes.

use std::collections::BTreeMap;

use delta_engine::db::{Database, DbOptions, SyncMode};
use delta_storage::fault::{FaultInjector, FaultPlan};
use delta_storage::IoOp;
use std::sync::Arc;

fn dir(label: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-recov-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The committed state as `pk -> pad` (order-independent).
fn state(db: &Database) -> BTreeMap<i64, String> {
    db.scan_table("t")
        .unwrap()
        .into_iter()
        .map(|(_, r)| (r.values()[0].as_int().unwrap(), r.values()[1].to_string()))
        .collect()
}

#[test]
fn reopen_recovers_exact_committed_state_under_eviction() {
    let d = dir("evict");
    let mut opts = DbOptions::new(&d);
    opts.buffer_pool_pages = 2; // constant eviction: heap pages race the WAL
    opts = opts.pool_shards(2);
    opts.wal_sync = SyncMode::Fsync;
    let db = Database::open(opts).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, pad VARCHAR)")
        .unwrap();
    let pad = "x".repeat(256);
    let mut expected = BTreeMap::new();
    for id in 0..200i64 {
        s.execute(&format!("INSERT INTO t VALUES ({id}, '{pad}')"))
            .unwrap();
        expected.insert(id, format!("'{pad}'"));
    }
    // Mutate: delete every 3rd row, rewrite every 5th.
    for id in (0..200i64).step_by(3) {
        s.execute(&format!("DELETE FROM t WHERE id = {id}"))
            .unwrap();
        expected.remove(&id);
    }
    for id in (0..200i64).step_by(5) {
        if expected.contains_key(&id) {
            s.execute(&format!("UPDATE t SET pad = 'u{id}' WHERE id = {id}"))
                .unwrap();
            expected.insert(id, format!("'u{id}'"));
        }
    }

    // Crash: leak the database. No flush, no checkpoint, no orderly drop.
    drop(s);
    let _leaked = std::mem::ManuallyDrop::new(db);

    let recovered = Database::open(DbOptions::new(&d)).unwrap();
    assert_eq!(
        state(&recovered),
        expected,
        "recovery must restore exactly the committed state"
    );

    // Recovery must not have re-logged its redo: a second reopen sees the
    // same WAL length (modulo nothing — no new records at all).
    let len_after_first = recovered.wal().read_from(1).unwrap().len();
    drop(recovered);
    let again = Database::open(DbOptions::new(&d)).unwrap();
    assert_eq!(again.wal().read_from(1).unwrap().len(), len_after_first);
    assert_eq!(state(&again), expected);
}

#[test]
fn recovery_survives_repeated_injected_crashes() {
    let d = dir("faulted");
    let mut expected = BTreeMap::new();
    let mut next_id = 0i64;
    // Three crash-recover cycles, each dying on an injected WAL-write fault.
    for cycle in 0..3u64 {
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(cycle).crash(IoOp::Write, 6 + cycle),
        ));
        let mut opts = DbOptions::new(&d).faults(inj.clone());
        opts.wal_sync = SyncMode::Fsync;
        let db = Database::open(opts).unwrap();
        let mut s = db.session();
        if cycle == 0 {
            s.execute("CREATE TABLE t (id INT PRIMARY KEY, pad VARCHAR)")
                .unwrap();
        }
        // Insert until the injected crash kills a commit.
        loop {
            let id = next_id;
            match s.execute(&format!("INSERT INTO t VALUES ({id}, 'v{id}')")) {
                Ok(_) => {
                    expected.insert(id, format!("'v{id}'"));
                    next_id += 1;
                }
                Err(_) => break, // injected failure: commit not durable
            }
            if next_id > 100 {
                break;
            }
        }
        assert!(inj.crashed(), "the scheduled crash must have fired");
        drop(s);
        let _leaked = std::mem::ManuallyDrop::new(db);
        // Recover with a clean injector and check convergence.
        let recovered = Database::open(DbOptions::new(&d)).unwrap();
        assert_eq!(
            state(&recovered),
            expected,
            "cycle {cycle}: committed state must survive the crash exactly"
        );
        drop(recovered);
    }
    assert!(next_id >= 6, "some commits must have succeeded");
}

/// Append one torn `Begin, Insert` fragment per id to `segment` (a crash tore
/// each commit batch after its second record); fragment `i` tries to insert
/// row `(100 + i, 'torn')`.
fn append_torn_fragments(segment: &std::path::Path, mut lsn: u64, ids: &[u64]) {
    use delta_engine::txn::TxnId;
    use delta_engine::wal::{encode_record, LogRecord};
    use delta_storage::{Row, Value};
    use std::io::Write;

    let mut tail = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let txn = TxnId(*id);
        tail.extend(encode_record(lsn, &LogRecord::Begin { txn }));
        tail.extend(encode_record(
            lsn + 1,
            &LogRecord::Insert {
                txn,
                table: "t".into(),
                row: Row::new(vec![Value::Int(100 + i as i64), Value::Str("torn".into())]),
            },
        ));
        lsn += 2;
    }
    std::fs::OpenOptions::new()
        .append(true)
        .open(segment)
        .unwrap()
        .write_all(&tail)
        .unwrap();
}

/// A source whose resident log holds one committed insert `(1, 'a')`, then
/// torn fragments under that transaction's own id and under ids 1..=4 (so
/// whichever id the first transaction after a reopen draws, a fragment
/// already carries it), then — after a reopen — a committed insert
/// `(3, 'c')`. Transaction ids restart at every open; "committed" must not
/// be decided by id.
fn source_with_colliding_fragments(label: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    use delta_engine::wal::LogRecord;

    let d = dir(label);
    let db = Database::open(DbOptions::new(&d)).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, pad VARCHAR)")
        .unwrap();
    s.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
    let committed = db
        .wal()
        .read_from(1)
        .unwrap()
        .iter()
        .find_map(|(_, r)| match r {
            LogRecord::Commit { txn } => Some(txn.0),
            _ => None,
        })
        .unwrap();
    let torn_lsn = db.wal().next_lsn();
    let segment = db.wal().resident_segments().unwrap().pop().unwrap();
    drop(s);
    drop(db);
    append_torn_fragments(&segment, torn_lsn, &[committed, 1, 2, 3, 4]);
    (d, segment)
}

#[test]
fn recovery_never_replays_a_torn_fragment_whatever_its_id() {
    let (d, _) = source_with_colliding_fragments("collide-recover");
    // (a) the fragment's id equals a transaction committed earlier in the
    // same resident log.
    let db = Database::open(DbOptions::new(&d).sync(SyncMode::Flush)).unwrap();
    assert_eq!(state(&db), BTreeMap::from([(1, "'a'".to_string())]));
    // (b) the fragment's id equals a transaction that commits after the
    // reopen; the next recovery sees both in one window.
    db.session()
        .execute("INSERT INTO t VALUES (3, 'c')")
        .unwrap();
    let _leaked = std::mem::ManuallyDrop::new(db);
    let db = Database::open(DbOptions::new(&d)).unwrap();
    assert_eq!(
        state(&db),
        BTreeMap::from([(1, "'a'".to_string()), (3, "'c'".to_string())])
    );
}

#[test]
fn a_standby_never_applies_a_torn_fragment_whatever_its_id() {
    use delta_engine::wal::{read_segment, LogRecord};

    let (d, segment) = source_with_colliding_fragments("collide-ship");
    let db = Database::open(DbOptions::new(&d).sync(SyncMode::Flush)).unwrap();
    db.session()
        .execute("INSERT INTO t VALUES (3, 'c')")
        .unwrap();
    // Ship the raw segment, fragments and all, as log shipping does.
    let shipped = read_segment(&segment).unwrap();
    let begins = |recs: &[(u64, LogRecord)]| {
        let begin = |r: &&(u64, LogRecord)| matches!(r.1, LogRecord::Begin { .. });
        recs.iter().filter(begin).count()
    };
    assert_eq!(begins(&shipped), 7, "two commits and five torn fragments");
    let standby = Database::open(DbOptions::new(dir("collide-standby"))).unwrap();
    assert_eq!(standby.apply_log_records(&shipped).unwrap(), 2);
    assert_eq!(state(&standby), state(&db));
    assert_eq!(state(&standby).len(), 2);
}
