//! Order statistics for the result documents, and the due-time → round
//! freshness assignment of the open-loop workload.

/// Sorted copy of `xs` (NaNs are not produced by any caller).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in (0, 100]; 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it in a sample of `n` — the tail a sample of that size supports.
/// `None` when even the 50th does not qualify.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per mille, in integers: 100 samples have exactly ten beyond the 90th.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the exclusive method), which is what the benchmark driver
/// uses for its spread check. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // j in [1, n-1] and delta as in CPython's exclusive method.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// One maintenance round of the open-loop workload, in seconds since the
/// repetition began.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// When the round's extraction began.
    pub ship_begin: f64,
    /// When the `sync` that closed the round returned.
    pub sync_end: f64,
}

/// Freshness of one write: it was *due* at `due`, its commit returned at
/// `done`, and it is credited to the first round whose extraction began
/// after that commit returned (an earlier round may have caught it in the
/// log, but only this one is guaranteed to). Freshness runs from the due
/// time — so a stalled generator or a slow round is charged to every write
/// queued behind it — to that round's `sync_end`. Returns the round's index
/// and the freshness; `None` when no round began after the commit: the write
/// never became visible and is a failed operation. `rounds` must be in time
/// order.
pub fn freshness(due: f64, done: f64, rounds: &[Round]) -> Option<(usize, f64)> {
    let i = rounds.partition_point(|r| r.ship_begin < done);
    rounds.get(i).map(|r| (i, r.sync_end - due))
}

/// Whether an open-loop run kept up with its writer. `per_round[i]` is the
/// number of writes round `i` made visible. A pipeline that falls behind
/// ships more in every round than in the one before and ends with a backlog
/// of several rounds; freshness then measures the length of the run, not the
/// system. So the rounds of the last quarter, the one begun after the writer
/// stopped included, must typically (median) carry at most twice what the
/// earlier rounds typically carried. Medians, because one round that ran
/// beside a noisy neighbour doubles the next round's load without any backlog
/// building up; for the same reason fewer than eight rounds are too few to
/// tell, and pass.
pub fn kept_up(per_round: &[u64]) -> bool {
    if per_round.len() < 8 {
        return true;
    }
    let counts: Vec<f64> = per_round.iter().map(|n| *n as f64).collect();
    let (earlier, last) = counts.split_at(counts.len() - counts.len() / 4);
    median(last) <= 2.0 * median(earlier).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn a_write_is_credited_to_the_first_round_that_began_after_its_commit() {
        let rounds = [
            Round {
                ship_begin: 0.0,
                sync_end: 1.0,
            },
            Round {
                ship_begin: 1.0,
                sync_end: 2.5,
            },
            Round {
                ship_begin: 2.5,
                sync_end: 3.0,
            },
        ];
        // Committed at 0.4, while round 0 was already extracting: round 1.
        assert_eq!(freshness(0.3, 0.4, &rounds), Some((1, 2.2)));
        // Due at 0.2 but the generator ran late and committed at 1.2: the
        // lateness is charged, and round 2 is the first to begin after it.
        assert_eq!(freshness(0.2, 1.2, &rounds), Some((2, 2.8)));
        // Committed before any round began: round 0.
        assert_eq!(freshness(-0.5, -0.1, &rounds), Some((0, 1.5)));
        // Committed after the last round began: never visible.
        assert_eq!(freshness(2.6, 2.7, &rounds), None);
    }

    #[test]
    fn a_run_kept_up_unless_its_last_rounds_carry_a_backlog() {
        assert!(kept_up(&[18, 17, 19, 18, 18, 17, 19, 20]));
        // One slow round doubles the next one's load: no backlog.
        assert!(kept_up(&[18, 17, 19, 18, 18, 17, 5, 60]));
        assert!(kept_up(&[18, 17, 19, 18, 18, 17, 19, 18, 18, 17, 60, 20]));
        // Falling behind: every round ships more than the one before.
        assert!(!kept_up(&[20, 30, 45, 70, 100, 160, 250, 400]));
        assert!(!kept_up(&[18, 18, 18, 18, 18, 18, 40, 40]));
        // Idle rounds (no writes) do not make a single write a backlog.
        assert!(kept_up(&[0, 0, 0, 0, 0, 0, 0, 2]));
        // Too few rounds to tell.
        assert!(kept_up(&[]));
        assert!(kept_up(&[500]));
        assert!(kept_up(&[0, 6, 10, 14]));
    }
}
