//! A steady-state extraction round costs the log tail it reads, not the
//! tables it tracks.
//!
//! The resilient log extractor used to snapshot every table a round touched
//! into a fresh baseline, so a round that shipped 50 updates read and wrote
//! every row of the table. It now keeps no baseline at all (DESIGN.md §21,
//! §25) and reads only the log tail, so the same round costs the same on a
//! table ten times larger. The median round is compared.

use std::sync::Arc;
use std::time::{Duration, Instant};

use delta_core::logextract::ResilientLogExtractor;
use delta_engine::db::{Database, DbOptions};

const SMALL: i64 = 2_000;
const LARGE: i64 = 20_000;
const ROUNDS: i64 = 40;
const UPDATES: i64 = 50;

fn scratch(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "deltaforge-extract-scaling-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tracked table of `rows` rows, bootstrapped through one extracted round,
/// as a pipeline's first round does.
fn seeded(label: &str, rows: i64) -> (Arc<Database>, ResilientLogExtractor) {
    let dir = scratch(label);
    let mut opts = DbOptions::new(dir.join("src")).archive(true);
    opts.buffer_pool_pages = 4096;
    let db = Database::open(opts).unwrap();
    let mut s = db.session();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR)")
        .unwrap();
    let mut x = ResilientLogExtractor::new(dir.join("extractor"), &["t"]).unwrap();
    for chunk in 0..rows / 500 {
        let values: Vec<String> = (chunk * 500..(chunk + 1) * 500)
            .map(|i| format!("({i}, 0, 'row {i}')"))
            .collect();
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }
    db.checkpoint().unwrap();
    let boot = x.extract(&db).unwrap();
    assert_eq!(boot.deltas[0].len() as i64, rows);
    (db, x)
}

/// One extraction round (stage + commit) carrying `UPDATES` keyed updates
/// spread over the whole table. The checkpoint that archives the round's log
/// is not timed.
fn round(db: &Arc<Database>, x: &mut ResilientLogExtractor, rows: i64, n: i64) -> Duration {
    let mut s = db.session();
    let stride = rows / UPDATES;
    for i in 0..UPDATES {
        let k = (i * stride + n) % rows;
        s.execute(&format!("UPDATE t SET v = v + 1 WHERE id = {k}"))
            .unwrap();
    }
    db.checkpoint().unwrap();
    let start = Instant::now();
    let staged = x.stage(db).unwrap();
    let out = x.commit(staged).unwrap();
    let took = start.elapsed();
    assert_eq!(out.deltas[0].len() as i64, 2 * UPDATES);
    took
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

#[test]
fn extraction_round_time_does_not_grow_with_the_table() {
    let (small_db, mut small_x) = seeded("small", SMALL);
    let (large_db, mut large_x) = seeded("large", LARGE);
    // Rounds alternate between the two tables, so a slow stretch of the
    // machine lands on both sides alike.
    let (mut small, mut large) = (Vec::new(), Vec::new());
    for n in 0..ROUNDS {
        small.push(round(&small_db, &mut small_x, SMALL, n));
        large.push(round(&large_db, &mut large_x, LARGE, n));
    }
    let (t_small, t_large) = (median(small), median(large));
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
    eprintln!(
        "median extraction round: {t_small:?} on {SMALL} rows, {t_large:?} on {LARGE}, \
         ratio {ratio:.2}"
    );
    assert!(
        ratio <= 2.0,
        "{UPDATES} updates per round: {t_large:?} on {LARGE} rows vs {t_small:?} on {SMALL} \
         rows, ratio {ratio:.1} (a table snapshot per round reads ~8)"
    );
}
