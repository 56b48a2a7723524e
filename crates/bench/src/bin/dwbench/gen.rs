//! Workload generators. Everything the product crates see — SQL text and
//! row values — is derived here from `--seed` by a splitmix64 generator
//! owned by dwbench, so the same seed always yields the same byte stream.
//!
//! The generators mirror the database state they drive (which keys are
//! live), so every generated statement is valid when it runs: no workload
//! ever asks the engine for an operation that fails.

/// splitmix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo).max(1) as u64) as i64
    }

    /// An independent stream for one named purpose.
    pub fn fork(&mut self, purpose: &str) -> Rng {
        let mut h = self.next();
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(h)
    }
}

/// Column list shared by every benchmark table. `grp` feeds the GROUP BY
/// views and queries, `aux` (initially equal to `id`, never indexed) is the
/// range-predicate column of the set-oriented workload, and `filler` pads the
/// encoded row to the paper's ~100 bytes.
pub const COLUMNS_DDL: &str = "(id INT PRIMARY KEY, grp INT, val INT, aux INT, filler VARCHAR)";

/// Distinct `grp` values.
pub const GROUPS: i64 = 64;

/// Filler length that makes an encoded row ~100 bytes (2-byte header, four
/// 9-byte numerics, 5 + len for the string).
pub const FILLER_LEN: usize = 57;

/// Deterministic filler text for row `id`; `salt` distinguishes rewrites.
pub fn filler(id: i64, salt: u64) -> String {
    let mut s = format!("r{id:010}s{salt:06}-");
    while s.len() < FILLER_LEN {
        s.push((b'a' + (s.len() % 26) as u8) as char);
    }
    s.truncate(FILLER_LEN);
    s
}

/// The VALUES tuple of a freshly inserted row.
pub fn row_tuple(id: i64, val: i64) -> String {
    format!("({id}, {}, {val}, {id}, '{}')", id % GROUPS, filler(id, 0))
}

/// Multi-row INSERT statements seeding ids `[0, rows)`, 500 rows each.
pub fn seed_statements(table: &str, rows: i64) -> Vec<String> {
    (0..rows)
        .step_by(500)
        .map(|first| insert_rows(table, first, (first + 500).min(rows)))
        .collect()
}

fn insert_rows(table: &str, first: i64, end: i64) -> String {
    let tuples: Vec<String> = (first..end).map(|id| row_tuple(id, id % 1000)).collect();
    format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
}

/// The warehouse query of the OLAP reader.
pub fn olap_query(table: &str) -> String {
    format!("SELECT grp, COUNT(*), SUM(val) FROM {table} GROUP BY grp")
}

/// Live primary keys of one table driven by small keyed transactions.
#[derive(Debug, Clone)]
pub struct KeySet {
    live: Vec<i64>,
    next_id: i64,
}

impl KeySet {
    pub fn seeded(rows: i64) -> KeySet {
        KeySet {
            live: (0..rows).collect(),
            next_id: rows,
        }
    }

    #[cfg(test)]
    pub fn live(&self) -> &[i64] {
        &self.live
    }

    /// 80/20 skew: four picks in five land in the first fifth of the live
    /// positions.
    fn pick_pos(&self, rng: &mut Rng) -> usize {
        let n = self.live.len() as u64;
        let hot = (n / 5).max(1);
        if rng.below(5) < 4 {
            rng.below(hot) as usize
        } else {
            rng.below(n) as usize
        }
    }
}

/// Statement kinds of the small transactions, cycled in this order: 60 %
/// UPDATE / 20 % INSERT / 20 % DELETE. Inserts and deletes balance, so table
/// sizes stay level over a run.
const SMALL_KINDS: [u8; 10] = *b"UUIUDUUIUD";

/// One small transaction of `stmts` keyed statements against `table`.
/// Which statement kinds it holds follows a fixed cycle continued in
/// `*stmt_no`, and the caller fixes the table and the size by a schedule of
/// its own: the seed draws only the keys and the values. Two seeds therefore
/// give the engine the same amount of work on different rows, and a
/// difference between two runs is not a difference between their inputs.
pub fn small_txn(
    rng: &mut Rng,
    table: &str,
    keys: &mut KeySet,
    stmts: u64,
    stmt_no: &mut u64,
) -> Vec<String> {
    (0..stmts)
        .map(|_| {
            let kind = SMALL_KINDS[(*stmt_no % SMALL_KINDS.len() as u64) as usize];
            *stmt_no += 1;
            small_stmt(rng, kind, table, keys)
        })
        .collect()
}

fn small_stmt(rng: &mut Rng, kind: u8, table: &str, keys: &mut KeySet) -> String {
    match kind {
        b'I' => {
            let id = keys.next_id;
            keys.next_id += 1;
            keys.live.push(id);
            format!(
                "INSERT INTO {table} VALUES {}",
                row_tuple(id, rng.range(0, 1000))
            )
        }
        b'D' => {
            let pos = keys.pick_pos(rng);
            let id = keys.live.swap_remove(pos);
            format!("DELETE FROM {table} WHERE id = {id}")
        }
        _ => {
            let id = keys.live[keys.pick_pos(rng)];
            // A fresh value rather than an increment: hot keys that only ever
            // grow would each become their group's MAX, and every further
            // update of a MAX row makes a MIN/MAX view rescan its base table.
            format!(
                "UPDATE {table} SET val = {} WHERE id = {id}",
                rng.range(0, 1000)
            )
        }
    }
}

/// Live rows of a table driven by set-oriented transactions: always the
/// contiguous id (= aux) window `[lo, hi)`. Deletes remove the oldest rows,
/// inserts append fresh ones, so the window slides at a constant size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    pub lo: i64,
    pub hi: i64,
}

impl Window {
    pub fn seeded(rows: i64) -> Window {
        Window { lo: 0, hi: rows }
    }

    /// A random sub-range of `n` consecutive live rows.
    fn sub(&self, rng: &mut Rng, n: i64) -> (i64, i64) {
        let n = n.min(self.hi - self.lo);
        let a = rng.range(self.lo, self.hi - n + 1);
        (a, a + n)
    }

    /// `DELETE` of the `n` oldest rows plus an `INSERT` of `n` fresh ones.
    fn slide(&mut self, table: &str, n: i64) -> Vec<String> {
        let n = n.min(self.hi - self.lo);
        let stmts = vec![
            format!(
                "DELETE FROM {table} WHERE aux >= {} AND aux < {}",
                self.lo,
                self.lo + n
            ),
            insert_rows(table, self.hi, self.hi + n),
        ];
        self.lo += n;
        self.hi += n;
        stmts
    }
}

/// Number of statement shapes [`bulk_txn`] cycles through.
pub const BULK_SHAPES: u64 = 8;

/// One set-oriented transaction of shape `shape % 8`, with fresh literals
/// every time. The shapes that replay from the operation alone (0, 1, 3, 5,
/// 7) touch about `n` rows; the ones that must ship row images — multi-row
/// INSERTs (2, 6) and operations needing before images (4, 6) — touch a
/// twentieth of that, so the shipped volume stays the small thing the
/// operation form is chosen for. The caller fixes `n` (a schedule, not a
/// draw), so rows and bytes per repetition do not depend on the seed. `full` is the fully
/// mirrored table; `projected` is mirrored without `aux` and `filler`, so a
/// predicate on `aux` makes the capture layer attach before images.
pub fn bulk_txn(
    rng: &mut Rng,
    shape: u64,
    (full, full_rows): (&str, &mut Window),
    (projected, projected_rows): (&str, &mut Window),
    n: i64,
) -> Vec<String> {
    let few = (n / 20).max(2);
    match shape % BULK_SHAPES {
        0 => {
            let (a, b) = full_rows.sub(rng, n);
            vec![format!(
                "UPDATE {full} SET val = val + {} WHERE aux >= {a} AND aux < {b}",
                rng.range(1, 100)
            )]
        }
        1 => {
            // One group out of a range 16 times wider: about n/4 rows.
            let (a, b) = full_rows.sub(rng, n * 16);
            vec![format!(
                "UPDATE {full} SET val = {} WHERE grp = {} AND aux >= {a} AND aux < {b}",
                rng.range(0, 1000),
                rng.range(0, GROUPS)
            )]
        }
        2 => full_rows.slide(full, few),
        3 => {
            let (a, b) = full_rows.sub(rng, n);
            vec![format!(
                "UPDATE {full} SET filler = '{}' WHERE aux >= {a} AND aux < {b}",
                filler(a, rng.below(1_000_000))
            )]
        }
        4 => {
            let (a, b) = projected_rows.sub(rng, few);
            vec![format!(
                "UPDATE {projected} SET val = val + {} WHERE aux >= {a} AND aux < {b}",
                rng.range(1, 100)
            )]
        }
        5 => vec![format!(
            "UPDATE {projected} SET val = {} WHERE grp = {} AND id >= {} AND id < {}",
            rng.range(0, 1000),
            rng.range(0, GROUPS),
            projected_rows.lo,
            projected_rows.hi
        )],
        6 => projected_rows.slide(projected, few),
        _ => {
            let (a, b) = projected_rows.sub(rng, n);
            vec![format!(
                "UPDATE {projected} SET val = val - {} WHERE id >= {a} AND id < {b}",
                rng.range(1, 100)
            )]
        }
    }
}

/// Transactions rewriting `count` scattered rows of `[0, rows)`, `per_txn`
/// keyed UPDATEs each (value and filler both change).
pub fn rewrite_txns(
    rng: &mut Rng,
    table: &str,
    rows: i64,
    count: i64,
    per_txn: i64,
) -> Vec<Vec<String>> {
    let stmts: Vec<String> = (0..count)
        .map(|_| {
            let id = rng.range(0, rows);
            format!(
                "UPDATE {table} SET val = val + {}, filler = '{}' WHERE id = {id}",
                rng.range(1, 100),
                filler(id, rng.below(1_000_000))
            )
        })
        .collect();
    stmts
        .chunks(per_txn.max(1) as usize)
        .map(<[String]>::to_vec)
        .collect()
}

/// Statements that silently corrupt `count` rows of a warehouse mirror whose
/// live keys are `keys`, cycling through four kinds of damage: a rewritten
/// filler, a flipped value, a lost row and a phantom row (phantoms get ids
/// from `phantom_base` upward). The seed picks the victims, not the kinds, so
/// every seed gives the audit the same amount to repair. Only for mirrors
/// without views: a direct write bypasses view maintenance.
pub fn corruption(
    rng: &mut Rng,
    table: &str,
    keys: &[i64],
    count: usize,
    phantom_base: i64,
) -> Vec<String> {
    // Distinct victims: a row both flipped and deleted would count twice.
    let mut victims: Vec<i64> = Vec::with_capacity(count);
    while victims.len() < count.min(keys.len()) {
        let k = keys[rng.below(keys.len() as u64) as usize];
        if !victims.contains(&k) {
            victims.push(k);
        }
    }
    victims
        .into_iter()
        .enumerate()
        .map(|(i, id)| match i % 4 {
            0 => format!(
                "UPDATE {table} SET filler = '{}' WHERE id = {id}",
                filler(id, 900_000 + rng.below(99_999))
            ),
            1 => format!("UPDATE {table} SET val = val + 999983 WHERE id = {id}"),
            2 => format!("DELETE FROM {table} WHERE id = {id}"),
            _ => format!(
                "INSERT INTO {table} VALUES {}",
                row_tuple(phantom_base + i as i64, 7)
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A long stream touching every generator, as one string.
    fn stream(seed: u64) -> String {
        let mut rng = Rng::new(seed);
        let mut keys = KeySet::seeded(100);
        let mut out = Vec::new();
        let mut small = rng.fork("small");
        let mut stmt_no = 0;
        for i in 0..200 {
            out.extend(small_txn(
                &mut small,
                "t0",
                &mut keys,
                1 + i % 8,
                &mut stmt_no,
            ));
        }
        let mut bulk = rng.fork("bulk");
        let (mut a, mut b) = (Window::seeded(1000), Window::seeded(1000));
        for i in 0..32 {
            out.extend(bulk_txn(
                &mut bulk,
                i,
                ("parts", &mut a),
                ("stock", &mut b),
                10 + 10 * (i as i64 % 4),
            ));
        }
        for txn in rewrite_txns(&mut rng.fork("rewrite"), "big", 1000, 40, 5) {
            out.extend(txn);
        }
        out.extend(corruption(
            &mut rng.fork("corrupt"),
            "big",
            keys.live(),
            9,
            1 << 40,
        ));
        out.join("\n")
    }

    #[test]
    fn same_seed_gives_a_byte_identical_sql_stream() {
        assert_eq!(stream(7), stream(7));
        assert_eq!(seed_statements("t", 1200), seed_statements("t", 1200));
    }

    #[test]
    fn different_seeds_give_different_streams_of_the_same_shape() {
        assert_ne!(stream(7), stream(8));
        // The seed draws keys and values only: statement for statement, two
        // seeds issue the same verbs against the same tables.
        let shape = |seed| -> Vec<String> {
            stream(seed)
                .lines()
                .map(|l| l.split(' ').take(3).collect::<Vec<_>>().join(" "))
                .collect()
        };
        assert_eq!(shape(7), shape(8));
    }

    #[test]
    fn rows_encode_to_about_100_bytes() {
        use delta_storage::{Row, Value};
        let id = 123_456;
        let row = Row::new(vec![
            Value::Int(id),
            Value::Int(id % GROUPS),
            Value::Int(5),
            Value::Int(id),
            Value::Str(filler(id, 0)),
        ]);
        assert_eq!(filler(id, 3).len(), FILLER_LEN);
        assert!((95..=105).contains(&row.to_bytes().len()));
    }

    #[test]
    fn small_transactions_only_touch_live_keys() {
        let mut rng = Rng::new(3);
        let mut keys = KeySet::seeded(50);
        let mut live: std::collections::BTreeSet<i64> = (0..50).collect();
        let mut stmt_no = 0;
        for i in 0..2000 {
            for stmt in small_txn(&mut rng, "t", &mut keys, 1 + i % 8, &mut stmt_no) {
                let id: i64 = stmt
                    .rsplit(|c: char| !c.is_ascii_digit())
                    .find(|s| !s.is_empty())
                    .map(|s| s.parse().unwrap())
                    .unwrap();
                if stmt.starts_with("DELETE") {
                    assert!(live.remove(&id), "deleted a dead key: {stmt}");
                } else if stmt.starts_with("UPDATE") {
                    assert!(live.contains(&id), "updated a dead key: {stmt}");
                } else {
                    let id: i64 = stmt
                        .split(['(', ','])
                        .nth(1)
                        .map(|s| s.trim().parse().unwrap())
                        .unwrap();
                    assert!(live.insert(id), "inserted a live key: {stmt}");
                }
            }
        }
        assert_eq!(
            live.iter().copied().collect::<Vec<_>>(),
            {
                let mut v = keys.live().to_vec();
                v.sort_unstable();
                v
            },
            "the generator's key set mirrors the statements it emitted"
        );
    }

    #[test]
    fn bulk_windows_slide_at_constant_size() {
        let mut rng = Rng::new(11);
        let (mut a, mut b) = (Window::seeded(500), Window::seeded(500));
        for i in 0..64 {
            bulk_txn(&mut rng, i, ("parts", &mut a), ("stock", &mut b), 40);
        }
        assert_eq!(a.hi - a.lo, 500);
        assert_eq!(b.hi - b.lo, 500);
        assert!(a.lo > 0 && b.lo > 0);
    }
}
