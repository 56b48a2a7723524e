//! Log-based extraction and log shipping end-to-end (§3.1.4), including the
//! constraints the paper emphasizes: archive mode, same-product formats,
//! matching schemas, and transport-level integrity.

use deltaforge::core::logextract::LogExtractor;
use deltaforge::engine::db::{Database, DbOptions};
use deltaforge::engine::util::{export_table, import_table};
use deltaforge::engine::wal::read_segment;
use deltaforge::storage::codec::export::ProductTag;
use deltaforge::storage::Value;
use deltaforge::transport::FileTransport;

fn scratch(label: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "deltaforge-ship-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn archived_segments_ship_and_replay_on_a_standby() {
    let dir = scratch("standby");
    let mut opts = DbOptions::new(dir.join("primary")).archive(true);
    opts.wal_segment_bytes = 4096; // force rotation
    let primary = Database::open(opts).unwrap();
    let mut s = primary.session();
    s.execute("CREATE TABLE parts (id INT PRIMARY KEY, name VARCHAR)")
        .unwrap();
    for i in 0..300 {
        s.execute(&format!("INSERT INTO parts VALUES ({i}, 'p{i}')"))
            .unwrap();
    }
    s.execute("UPDATE parts SET name = 'touched' WHERE id < 10")
        .unwrap();
    s.execute("DELETE FROM parts WHERE id >= 290").unwrap();
    primary.checkpoint().unwrap();

    // Ship the archived segments over the file transport (checksummed), then
    // apply them with the standby's "recovery manager".
    let segments = LogExtractor::shippable_segments(&primary).unwrap();
    assert!(
        segments.len() > 1,
        "rotation must have produced several segments"
    );
    let transport = FileTransport::new(dir.join("standby-inbox")).unwrap();
    let standby = Database::open(DbOptions::new(dir.join("standby"))).unwrap();
    let mut applied = 0;
    for seg in &segments {
        let shipped = transport.ship(seg, None).unwrap();
        let local = transport.receive(&shipped.name).unwrap();
        let records = read_segment(&local).unwrap();
        applied += standby.apply_log_records(&records).unwrap();
    }
    // The resident (unarchived) tail too.
    for seg in primary.wal().resident_segments().unwrap() {
        let records = read_segment(&seg).unwrap();
        applied += standby.apply_log_records(&records).unwrap();
    }
    assert!(applied >= 300);
    assert_eq!(standby.row_count("parts").unwrap(), 290);
    let r = standby
        .session()
        .execute("SELECT name FROM parts WHERE id = 5")
        .unwrap();
    assert_eq!(r.rows[0].values()[0], Value::Str("touched".into()));
}

#[test]
fn segment_applied_twice_fails_whole_and_leaves_the_standby_usable() {
    // File transport is at-least-once, so a standby can be handed a segment
    // it already applied. The second application must fail as a unit: no
    // row of it stays behind and no lock stays held.
    let dir = scratch("reapply");
    let primary = Database::open(DbOptions::new(dir.join("primary")).archive(true)).unwrap();
    let mut s = primary.session();
    s.execute("CREATE TABLE events (what VARCHAR)").unwrap(); // no key: a re-insert succeeds
    s.execute("CREATE TABLE parts (id INT PRIMARY KEY)")
        .unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO events VALUES ('made part 1')")
        .unwrap();
    s.execute("INSERT INTO parts VALUES (1)").unwrap();
    s.execute("COMMIT").unwrap();
    primary.checkpoint().unwrap();
    let records: Vec<_> = LogExtractor::shippable_segments(&primary)
        .unwrap()
        .iter()
        .flat_map(|seg| read_segment(seg).unwrap())
        .collect();

    let mut opts = DbOptions::new(dir.join("standby"));
    opts.lock_timeout = std::time::Duration::from_millis(200);
    let standby = Database::open(opts).unwrap();
    assert_eq!(standby.apply_log_records(&records).unwrap(), 2);
    let err = standby.apply_log_records(&records).unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
    assert_eq!(
        standby.row_count("events").unwrap(),
        1,
        "the re-insert was undone"
    );
    assert_eq!(standby.row_count("parts").unwrap(), 1);
    // Nothing stayed locked: the next reader and the next writer get in.
    let mut s = standby.session();
    for table in ["events", "parts"] {
        s.execute(&format!("SELECT * FROM {table}")).unwrap();
    }
    s.execute("INSERT INTO events VALUES ('after')").unwrap();
    s.execute("INSERT INTO parts VALUES (2)").unwrap();
}

#[test]
fn tampered_shipment_is_rejected_before_apply() {
    let dir = scratch("tamper");
    let primary = Database::open(DbOptions::new(dir.join("primary")).archive(true)).unwrap();
    let mut s = primary.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    primary.checkpoint().unwrap();
    let segments = LogExtractor::shippable_segments(&primary).unwrap();
    let transport = FileTransport::new(dir.join("inbox")).unwrap();
    let shipped = transport.ship(&segments[0], None).unwrap();
    // Corrupt in transit.
    let target = dir.join("inbox").join(&shipped.name);
    let mut bytes = std::fs::read(&target).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&target, bytes).unwrap();
    assert!(
        transport.receive(&shipped.name).is_err(),
        "manifest check must fail"
    );
}

#[test]
fn log_extraction_watermark_survives_segment_archival() {
    let dir = scratch("watermark");
    let mut opts = DbOptions::new(dir.join("src")).archive(true);
    opts.wal_segment_bytes = 4096;
    let db = Database::open(opts).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    let mut x = LogExtractor::new();
    for i in 0..100 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let first = x.extract(&db).unwrap();
    assert_eq!(first[0].len(), 100);
    db.checkpoint().unwrap(); // archives the closed segments
    for i in 100..150 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let second = x.extract(&db).unwrap();
    assert_eq!(
        second[0].len(),
        50,
        "only the new changes, despite archival"
    );
}

#[test]
fn cross_product_export_rejected_at_the_warehouse() {
    // The §3 constraint: Export dumps only load into the same product+version.
    let dir = scratch("xproduct");
    let source = Database::open(DbOptions::new(dir.join("src"))).unwrap();
    let mut s = source.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    let dump = dir.join("t.exp");
    export_table(&source, "t", &dump).unwrap();

    let mut other_opts = DbOptions::new(dir.join("other"));
    other_opts.product = ProductTag::new("rivaldb", 7);
    let rival = Database::open(other_opts).unwrap();
    rival
        .session()
        .execute("CREATE TABLE t (id INT PRIMARY KEY)")
        .unwrap();
    let err = import_table(&rival, "t", &dump).unwrap_err();
    assert!(err.to_string().contains("incompatible"), "{err}");

    // Same product accepts it.
    let same = Database::open(DbOptions::new(dir.join("same"))).unwrap();
    same.session()
        .execute("CREATE TABLE t (id INT PRIMARY KEY)")
        .unwrap();
    assert_eq!(import_table(&same, "t", &dump).unwrap(), 1);
}
