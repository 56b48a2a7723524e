//! The Op-Delta hand-off: op-log table → `collect_op_log` → queue → `sync`.
//!
//! An operation is text from the capture to the applier that executes it,
//! so nothing on this path parses SQL, and the path runs beside live
//! capture: it ships only committed operations and deletes only what it
//! shipped. The interleavings below are forced with locks and observed
//! queue state, not sleeps.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use delta_core::model::DeltaBatch;
use delta_core::opdelta::{collect_from_table, OpDeltaCapture, OpLogSink};
use delta_engine::db::{Database, DbOptions};
use delta_engine::EngineError;
use delta_storage::{Column, DataType, Row, Schema};
use delta_warehouse::{MirrorConfig, Pipeline, RetryPolicy, Warehouse};

const LOG: &str = "op_log";

fn scratch(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("op-handoff-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int).primary_key(),
        Column::new("qty", DataType::Int),
    ])
    .unwrap()
}

/// A source with `parts (id, qty)` holding row (1, 1), a capture over it
/// that has logged nothing yet, a warehouse mirroring `parts` with the same
/// row, and a pipeline between them.
fn site(
    label: &str,
    lock_timeout: Duration,
) -> (Arc<Database>, OpDeltaCapture, Warehouse, Pipeline) {
    let dir = scratch(label);
    let mut opts = DbOptions::new(dir.join("src"));
    opts.lock_timeout = lock_timeout;
    let src = Database::open(opts).unwrap();
    let mut wh = Warehouse::new(Database::open(DbOptions::new(dir.join("wh"))).unwrap());
    wh.add_mirror(MirrorConfig::full("parts", schema()))
        .unwrap();
    for db in [&src, wh.db()] {
        let mut s = db.session();
        if db.table("parts").is_err() {
            s.execute("CREATE TABLE parts (id INT PRIMARY KEY, qty INT)")
                .unwrap();
        }
        s.execute("INSERT INTO parts VALUES (1, 1)").unwrap();
    }
    let cap = OpDeltaCapture::new(src.session(), OpLogSink::Table(LOG.into())).unwrap();
    let pipe = Pipeline::open(dir.join("q")).unwrap();
    (src, cap, wh, pipe)
}

fn rows(db: &Database) -> Vec<Row> {
    let mut rows: Vec<Row> = db
        .scan_table("parts")
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    rows.sort_by(|a, b| a.values()[0].total_cmp(&b.values()[0]));
    rows
}

#[test]
fn handoff_never_sees_an_uncommitted_operation() {
    let (src, mut cap, _wh, _pipe) = site("uncommitted", Duration::from_millis(100));
    cap.execute("INSERT INTO parts VALUES (2, 2)").unwrap();

    // A capture transaction has logged an operation and not ended. With the
    // capture on this thread the collect cannot wait it out, so it reports
    // the typed timeout — and returns nothing of the open transaction.
    cap.execute("BEGIN").unwrap();
    cap.execute("UPDATE parts SET qty = 9 WHERE id = 1")
        .unwrap();
    let err = collect_from_table(&src, LOG).unwrap_err();
    assert!(matches!(err, EngineError::LockTimeout { .. }), "{err}");

    // From another thread the collect waits the transaction out: nothing
    // arrives while it is open, and after the ROLLBACK the committed insert
    // arrives alone.
    let (tx, rx) = mpsc::channel();
    let collector = {
        let src = src.clone();
        std::thread::spawn(move || loop {
            match collect_from_table(&src, LOG) {
                Err(EngineError::LockTimeout { .. }) => continue,
                other => return tx.send(other).unwrap(),
            }
        })
    };
    assert!(
        rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "collect returned while a capture transaction was open"
    );
    cap.execute("ROLLBACK").unwrap();
    let ods = rx.recv().unwrap().unwrap();
    collector.join().unwrap();
    assert_eq!(ods.len(), 1, "only the committed insert");
    assert_eq!(ods[0].ops.len(), 1);
    assert!(
        ods[0].ops[0].sql.starts_with("INSERT"),
        "{}",
        ods[0].ops[0].sql
    );
}

#[test]
fn handoff_clears_only_what_it_shipped() {
    let (src, mut cap, wh, pipe) = site("clears", Duration::from_secs(20));
    cap.execute("INSERT INTO parts VALUES (2, 2)").unwrap();

    // The capture session opens a transaction and reads the log table: it
    // now holds a Shared lock there, which lets the hand-off's read through
    // and makes its clear wait.
    cap.execute("BEGIN").unwrap();
    cap.execute(&format!("SELECT * FROM {LOG}")).unwrap();
    let shipped = std::thread::scope(|scope| {
        let handoff = scope.spawn(|| pipe.collect_op_log(&src, LOG));
        // Once the frame is in the queue the hand-off has read the log and
        // is at (or on its way to) the clear, which cannot start before our
        // COMMIT. Capture a second operation into exactly that window.
        while pipe.queue().total() == 0 {
            assert!(
                !handoff.is_finished(),
                "the hand-off ended without shipping"
            );
            std::thread::yield_now();
        }
        cap.execute("UPDATE parts SET qty = 7 WHERE id = 2")
            .unwrap();
        cap.execute("COMMIT").unwrap();
        handoff.join().unwrap()
    });
    assert_eq!(shipped.unwrap(), 1, "the first round shipped the insert");

    // The update was captured after the read: it must still be in the log,
    // and the next round ships it.
    assert_eq!(
        pipe.collect_op_log(&src, LOG).unwrap(),
        1,
        "the update survived the clear"
    );
    assert_eq!(src.row_count(LOG).unwrap(), 0);
    pipe.sync(&wh).unwrap();
    assert_eq!(rows(wh.db()), rows(&src));
}

#[test]
fn op_log_row_that_is_not_sql_ships_and_lands_in_the_dlq() {
    let (src, mut cap, wh, pipe) = site("poison", Duration::from_secs(5));
    let pipe = pipe.with_retry(RetryPolicy::quick(3)).unwrap();
    // A log row nobody could have captured, ahead of two real operations.
    src.session()
        .execute(&format!(
            "INSERT INTO {LOG} VALUES (0, 0, 999, 'NOT SQL AT ALL\t-')"
        ))
        .unwrap();
    cap.execute("INSERT INTO parts VALUES (2, 2)").unwrap();
    cap.execute("UPDATE parts SET qty = qty + 10 WHERE id <= 2")
        .unwrap();

    // Collect, encode and enqueue do not look inside the text...
    assert_eq!(pipe.collect_op_log(&src, LOG).unwrap(), 3);
    assert_eq!(src.row_count(LOG).unwrap(), 0, "shipped and cleared");
    // ...dequeue and decode do not either: the batch reaches the applier,
    // fails there on every attempt, and is parked; the operations behind it
    // drain.
    let report = pipe.sync(&wh).unwrap();
    assert_eq!(report.quarantined, 1);
    assert_eq!(
        report.retries, 2,
        "it was an apply failure, retried under the policy"
    );
    assert_eq!(report.batches, 2);
    assert_eq!(pipe.queue().pending(), 0);
    assert_eq!(rows(wh.db()), rows(&src));

    let parked = pipe.dlq_entries().unwrap();
    assert_eq!(parked.len(), 1);
    assert!(parked[0].error.contains("parse"), "{}", parked[0].error);
    let DeltaBatch::Op(od) = DeltaBatch::from_bytes(&parked[0].payload).unwrap() else {
        panic!("the parked payload is the op batch");
    };
    assert_eq!(od.ops[0].sql, "NOT SQL AT ALL");

    // The next round is not wedged by the one before.
    cap.execute("DELETE FROM parts WHERE id = 1").unwrap();
    assert_eq!(pipe.collect_op_log(&src, LOG).unwrap(), 1);
    pipe.sync(&wh).unwrap();
    assert_eq!(rows(wh.db()), rows(&src));
}

#[test]
fn sync_parses_each_operation_once_and_caches_nothing() {
    let (src, mut cap, wh, pipe) = site("counts", Duration::from_secs(5));
    cap.execute("BEGIN").unwrap();
    for _ in 0..3 {
        // Identical text: what a text-keyed cache would have hit on.
        cap.execute("UPDATE parts SET qty = qty + 1 WHERE id = 1")
            .unwrap();
    }
    cap.execute("COMMIT").unwrap();
    cap.execute("INSERT INTO parts VALUES (2, 2)").unwrap();
    assert_eq!(pipe.collect_op_log(&src, LOG).unwrap(), 2);
    let report = pipe.sync(&wh).unwrap();
    assert_eq!(report.apply.statements, 4);
    let parsed = pipe.stmt_cache_stats();
    assert_eq!((parsed.hits, parsed.misses), (0, 4));
    assert_eq!(pipe.rewrite_cache_stats(), parsed);
    assert_eq!(rows(wh.db()), rows(&src));
}
