//! A scan decodes only the records its predicate matches, but it still
//! refuses a damaged record it does not match.
//!
//! The predicate is evaluated on the stored bytes (DESIGN.md §24), after a
//! walk that checks every cell as `Row::from_bytes` does: a damaged record
//! must fail the statement with a typed `Corrupt` error, not be skipped as
//! a non-match.

use std::sync::Arc;

use delta_engine::db::{Database, DbOptions};
use delta_engine::EngineError;
use delta_storage::{StorageError, Value};

fn seeded(label: &str) -> Arc<Database> {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-scan-corruption-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(DbOptions::new(dir)).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE parts (id INT PRIMARY KEY, grp INT, val INT, aux INT, filler VARCHAR)")
        .unwrap();
    let values: Vec<String> = (0..50)
        .map(|i| format!("({i}, {}, 0, {i}, 'filler of row {i}')", i % 5))
        .collect();
    s.execute(&format!("INSERT INTO parts VALUES {}", values.join(", ")))
        .unwrap();
    db
}

/// Offset of the `filler` cell's tag in an encoded row of `parts`: the cell
/// count (2 bytes), then four INT cells of a tag and 8 bytes each.
const FILLER_TAG: usize = 2 + 4 * 9;

/// Replace row 7's stored bytes with `damage` applied to them, bypassing
/// the log. The predicates below never match row 7.
fn damage_row_7(db: &Database, damage: impl FnOnce(&mut Vec<u8>)) {
    let heap = db.heap("parts").unwrap();
    let (rid, row) = db
        .scan_table("parts")
        .unwrap()
        .into_iter()
        .find(|(_, row)| row.values()[0] == Value::Int(7))
        .unwrap();
    let mut bytes = row.to_bytes();
    damage(&mut bytes);
    heap.update(rid, &bytes).unwrap();
}

/// One way to damage a stored record.
type Damage = fn(&mut Vec<u8>);

#[test]
fn a_damaged_record_fails_a_scan_that_matches_nothing() {
    let damages: [(&str, Damage); 4] = [
        ("bad tag", |b| b[FILLER_TAG] = 99),
        ("invalid UTF-8 in filler", |b| b[FILLER_TAG + 5] = 0xFF),
        ("truncated string length", |b| b.truncate(FILLER_TAG + 3)),
        ("one trailing byte", |b| b.push(0)),
    ];
    for (label, damage) in damages {
        let db = seeded(&label.replace(' ', "-"));
        damage_row_7(&db, damage);
        let mut s = db.session();
        for sql in [
            "UPDATE parts SET val = 1 WHERE aux >= 1000 AND aux < 1020",
            "SELECT * FROM parts WHERE aux < 0",
            "DELETE FROM parts WHERE grp = 99",
        ] {
            match s.execute(sql) {
                Err(EngineError::Storage(StorageError::Corrupt(_))) => {}
                other => panic!("{label}: {sql} returned {other:?}, not Corrupt"),
            }
        }
    }
}
