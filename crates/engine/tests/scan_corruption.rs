//! A scan decodes only the records its predicate matches, but it still
//! refuses a damaged record it does not match.
//!
//! The predicate is evaluated on the stored bytes (DESIGN.md §24), after a
//! walk that checks every cell as `Row::from_bytes` does: a damaged record
//! must fail the statement with a typed `Corrupt` error, not be skipped as
//! a non-match. That holds for damage in a column the predicate reads and
//! in one it does not, in the first and the last record of a page, and on
//! every run of a statement over the same damaged page (DESIGN.md §40).

use std::sync::Arc;

use delta_engine::db::{Database, DbOptions};
use delta_engine::EngineError;
use delta_storage::{StorageError, Value};

fn seeded(label: &str) -> Arc<Database> {
    seeded_with(label, 50)
}

/// `parts` with `rows` rows, ids from 0; `aux` equals `id`.
fn seeded_with(label: &str, rows: i64) -> Arc<Database> {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-scan-corruption-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(DbOptions::new(dir)).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE parts (id INT PRIMARY KEY, grp INT, val INT, aux INT, filler VARCHAR)")
        .unwrap();
    let values: Vec<String> = (0..rows)
        .map(|i| format!("({i}, {}, 0, {i}, 'filler of row {i}')", i % 5))
        .collect();
    s.execute(&format!("INSERT INTO parts VALUES {}", values.join(", ")))
        .unwrap();
    db
}

/// Offset of the `aux` cell's tag in an encoded row of `parts`: the cell
/// count (2 bytes), then three INT cells of a tag and 8 bytes each.
const AUX_TAG: usize = 2 + 3 * 9;

/// Offset of the `filler` cell's tag: after `aux`, the fourth INT cell.
const FILLER_TAG: usize = AUX_TAG + 9;

/// Replace the stored bytes of the row with id `id` with `damage` applied
/// to them, bypassing the log. The predicates below match no row at all.
fn damage_row(db: &Database, id: i64, damage: impl FnOnce(&mut Vec<u8>)) {
    let heap = db.heap("parts").unwrap();
    let (rid, row) = db
        .scan_table("parts")
        .unwrap()
        .into_iter()
        .find(|(_, row)| row.values()[0] == Value::Int(id))
        .unwrap();
    let mut bytes = row.to_bytes();
    damage(&mut bytes);
    heap.update(rid, &bytes).unwrap();
}

/// One way to damage a stored record.
type Damage = fn(&mut Vec<u8>);

/// Statements whose predicates match no row of `parts`: two read `aux`,
/// one reads only `grp`.
const SCANS: [&str; 3] = [
    "UPDATE parts SET val = 1 WHERE aux >= 1000 AND aux < 1020",
    "SELECT * FROM parts WHERE aux < 0",
    "DELETE FROM parts WHERE grp = 99",
];

/// Run every statement of [`SCANS`] twice against the same damaged table:
/// each run must fail with a typed `Corrupt`, so no run skips a cell its
/// predicate does not read and none remembers an earlier check.
fn every_scan_is_corrupt(db: &Arc<Database>, label: &str) {
    let mut s = db.session();
    for sql in SCANS {
        for run in 1..=2 {
            match s.execute(sql) {
                Err(EngineError::Storage(StorageError::Corrupt(_))) => {}
                other => panic!("{label}: run {run} of {sql} returned {other:?}, not Corrupt"),
            }
        }
    }
}

#[test]
fn a_damaged_record_fails_a_scan_that_matches_nothing() {
    let damages: [(&str, Damage); 6] = [
        ("bad tag", |b| b[FILLER_TAG] = 99),
        ("invalid UTF-8 in filler", |b| b[FILLER_TAG + 5] = 0xFF),
        ("truncated string length", |b| b.truncate(FILLER_TAG + 3)),
        ("one trailing byte", |b| b.push(0)),
        // The column two of the predicates read.
        ("bad tag in aux", |b| b[AUX_TAG] = 99),
        ("truncated INT in aux", |b| b.truncate(AUX_TAG + 5)),
    ];
    for (label, damage) in damages {
        let db = seeded(&label.replace(' ', "-"));
        damage_row(&db, 7, damage);
        every_scan_is_corrupt(&db, label);
    }
}

#[test]
fn damage_in_the_first_or_last_slot_of_a_page_fails_the_scan() {
    let damages: [(&str, Damage); 2] = [
        ("bad tag in filler", |b| b[FILLER_TAG] = 99),
        ("bad tag in aux", |b| b[AUX_TAG] = 99),
    ];
    for (label, damage) in damages {
        for end in ["first", "last"] {
            let db = seeded_with(&format!("{end}-{label}").replace(' ', "-"), 300);
            // Page 1 has pages on both sides of it.
            let mut page: Vec<(u16, Value)> = db
                .scan_table("parts")
                .unwrap()
                .into_iter()
                .filter(|(rid, _)| rid.page_no == 1)
                .map(|(rid, row)| (rid.slot, row.values()[0].clone()))
                .collect();
            page.sort_by_key(|(slot, _)| *slot);
            assert!(page.len() > 1 && page[0].0 == 0, "page 1: {page:?}");
            assert!(db.heap("parts").unwrap().page_count().unwrap() > 2);
            let (slot, id) = match end {
                "first" => page[0].clone(),
                _ => page[page.len() - 1].clone(),
            };
            let Value::Int(id) = id else {
                panic!("id {id:?}")
            };
            damage_row(&db, id, damage);
            every_scan_is_corrupt(&db, &format!("{label} in slot {slot} of page 1"));
        }
    }
}
