//! A keyed statement costs what it touches, not what the table holds.
//!
//! The selectivity estimate in front of every indexed predicate used to walk
//! the whole index to learn its size, so `UPDATE … WHERE id = k` was O(table)
//! — two orders of magnitude slower on the large table below than on the small
//! one. The
//! clocked test pins the ratio; its count-based twin pins the mechanism and
//! does not depend on the clock.

use std::ops::Bound;
use std::sync::Arc;
use std::time::{Duration, Instant};

use delta_engine::db::{Database, DbOptions};
use delta_engine::exec::{choose_access_path, AccessPath, INDEX_SCAN_THRESHOLD};
use delta_sql::parser::parse_expression;
use delta_storage::Value;

const SMALL: i64 = 1_000;
const LARGE: i64 = 100_000;
const STATEMENTS: i64 = 2_000;

fn seeded(label: &str, rows: i64) -> Arc<Database> {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-scaling-{}-{:?}-{label}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = DbOptions::new(dir);
    // Both tables stay resident: the ratio is about statements, not misses.
    opts.buffer_pool_pages = 4096;
    let db = Database::open(opts).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, grp INT)")
        .unwrap();
    for chunk in 0..rows / 500 {
        let values: Vec<String> = (chunk * 500..(chunk + 1) * 500)
            .map(|i| format!("({i}, 0, {})", i % 10))
            .collect();
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }
    db
}

/// `STATEMENTS` keyed statements spread over the whole key range: an update,
/// then a delete and re-insert of the same key, each touching one row.
fn pass(db: &Arc<Database>, rows: i64) -> Duration {
    let mut s = db.session();
    let stride = rows / (STATEMENTS / 4) + 1;
    let start = Instant::now();
    for i in 0..STATEMENTS / 4 {
        let k = (i * stride) % rows;
        for sql in [
            format!("UPDATE t SET v = v + 1 WHERE id = {k}"),
            format!("UPDATE t SET grp = 3 WHERE id = {k} AND v > 0"),
            format!("DELETE FROM t WHERE id = {k}"),
            format!("INSERT INTO t VALUES ({k}, 0, 0)"),
        ] {
            assert_eq!(s.execute(&sql).unwrap().affected, 1, "{sql}");
        }
    }
    start.elapsed()
}

fn best_of_three(db: &Arc<Database>, rows: i64) -> Duration {
    (0..3).map(|_| pass(db, rows)).min().unwrap()
}

#[test]
fn keyed_statement_time_does_not_grow_with_the_table() {
    let small = seeded("small", SMALL);
    let large = seeded("large", LARGE);
    let (t_small, t_large) = (best_of_three(&small, SMALL), best_of_three(&large, LARGE));
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
    eprintln!(
        "keyed statements: {t_small:?} on {SMALL} rows, {t_large:?} on {LARGE}, ratio {ratio:.2}"
    );
    assert!(
        ratio <= 5.0,
        "{STATEMENTS} keyed statements: {t_large:?} on {LARGE} rows vs {t_small:?} on {SMALL} \
         rows, ratio {ratio:.1} (a table walk per statement reads 50–150)"
    );
    assert_eq!(large.row_count("t").unwrap() as i64, LARGE);
}

#[test]
fn refused_range_visits_no_more_than_its_limit() {
    let db = seeded("count", LARGE);
    let meta = db.table("t").unwrap();
    let pk = db.indexes().get("pk_t").unwrap();
    assert_eq!(pk.len() as i64, LARGE);

    // Keys are distinct, so the bounded count *is* the number of entries the
    // estimate visited: one past the limit, however long the range.
    let limit = (INDEX_SCAN_THRESHOLD * LARGE as f64) as usize + 1;
    let visited = pk.count_range(Bound::Included(&Value::Int(0)), Bound::Unbounded, limit);
    assert_eq!(visited, limit + 1);
    let refused = parse_expression("id >= 0").unwrap();
    assert_eq!(
        choose_access_path(&db, &meta, Some(&refused)),
        AccessPath::SeqScan
    );

    // An accepted range is counted exactly and reports the fraction the
    // full count gave.
    let accepted = parse_expression("id < 50").unwrap();
    assert_eq!(
        choose_access_path(&db, &meta, Some(&accepted)),
        AccessPath::IndexRange {
            index: "pk_t".into(),
            estimated_fraction: 50.0 / LARGE as f64,
        }
    );
    // The threshold itself is still accepted, one row past it refused.
    let edge = LARGE / 5;
    for (pred, indexed) in [
        (format!("id < {edge}"), true),
        (format!("id <= {edge}"), false),
    ] {
        let path = choose_access_path(&db, &meta, Some(&parse_expression(&pred).unwrap()));
        assert_eq!(
            matches!(path, AccessPath::IndexRange { .. }),
            indexed,
            "{pred}"
        );
    }
}
