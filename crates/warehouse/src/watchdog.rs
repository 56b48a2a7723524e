//! Stall watchdog for the parallel apply scheduler.
//!
//! A warehouse apply worker can wedge — a lock convoy, a pathological
//! plan, a filesystem hiccup. Without a deadline the whole sync waits on
//! it forever, and the queue's unacked suffix (and the source's disk
//! budget) grows without bound. The watchdog bounds the damage: when a
//! parallel wave misses its per-stage deadline, the scheduler stops
//! waiting, flags the remaining workers to stand down at their next group
//! boundary, and moves on. The stalled groups simply never complete, so
//! the prefix ack stops before them and the next `sync` redelivers them —
//! the ordinary at-least-once retry path, now also covering "stuck", not
//! just "crashed".
//!
//! A worker thread cannot be killed, so a group already inside an apply
//! transaction runs to completion in the background. That is safe by the
//! same argument as a crash between commit and ack: if the late group
//! commits after the wave was abandoned, its sequence range is recorded
//! in the watermark table, and redelivery dedupes it. Cancellation is
//! strictly cooperative and observed at group boundaries.
//!
//! For deterministic testing, [`StallPlan`] injects stalls the same way
//! the storage layer injects torn writes: a seeded hash of each group's
//! first sequence id decides whether that group's worker sleeps before
//! applying. Each planned stall fires once per pipeline incarnation, so a
//! redelivered group applies promptly on retry — modelling a transient
//! wedge, the kind a watchdog exists for.

use std::collections::HashSet;
use std::time::Duration;

use delta_storage::fault::splitmix64;
use parking_lot::Mutex;

/// Deterministic injected stalls for the apply stage, keyed off each
/// group's first sequence id so the plan is independent of scheduling
/// order (the same property the transport fault plans rely on).
#[derive(Debug, Clone, Copy)]
pub struct StallPlan {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Percent of groups that stall (0–100).
    pub pct: u8,
    /// How long a stalled group sleeps before applying.
    pub duration: Duration,
}

impl StallPlan {
    /// A plan stalling `pct`% of groups for `millis` ms under `seed`.
    pub fn new(seed: u64, pct: u8, millis: u64) -> StallPlan {
        StallPlan {
            seed,
            pct: pct.min(100),
            duration: Duration::from_millis(millis),
        }
    }

    /// Whether the group starting at `first_seq` is planned to stall.
    pub fn wants_stall(&self, first_seq: u64) -> bool {
        let mut state = self.seed ^ first_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut state) % 100 < self.pct as u64
    }
}

/// Runtime stall-injection state: the plan plus the set of sequence ids
/// whose stall has already fired (stalls are one-shot per incarnation —
/// a retried group must make progress or the watchdog would livelock).
#[derive(Debug)]
pub struct StallInjector {
    plan: StallPlan,
    fired: Mutex<HashSet<u64>>,
}

impl StallInjector {
    /// Wrap a plan with fresh one-shot state.
    pub fn new(plan: StallPlan) -> StallInjector {
        StallInjector {
            plan,
            fired: Mutex::new(HashSet::new()),
        }
    }

    /// If the group at `first_seq` is planned to stall and has not yet,
    /// mark it fired and return the sleep to perform.
    pub fn take_stall(&self, first_seq: u64) -> Option<Duration> {
        if !self.plan.wants_stall(first_seq) {
            return None;
        }
        if !self.fired.lock().insert(first_seq) {
            return None;
        }
        Some(self.plan.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_order_independent() {
        let plan = StallPlan::new(7, 30, 5);
        let picks: Vec<bool> = (0..64).map(|s| plan.wants_stall(s)).collect();
        let again: Vec<bool> = (0..64).rev().map(|s| plan.wants_stall(s)).collect();
        let mut again = again;
        again.reverse();
        assert_eq!(picks, again, "decision depends only on (seed, first_seq)");
        let hits = picks.iter().filter(|b| **b).count();
        assert!(hits > 0 && hits < 64, "pct=30 stalls some but not all");
    }

    #[test]
    fn different_seeds_pick_different_groups() {
        let a: Vec<bool> = (0..256)
            .map(|s| StallPlan::new(1, 30, 5).wants_stall(s))
            .collect();
        let b: Vec<bool> = (0..256)
            .map(|s| StallPlan::new(2, 30, 5).wants_stall(s))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn injected_stalls_fire_once() {
        let plan = StallPlan::new(0, 100, 1);
        let inj = StallInjector::new(plan);
        assert!(inj.take_stall(42).is_some(), "first delivery stalls");
        assert!(inj.take_stall(42).is_none(), "redelivery proceeds promptly");
        assert!(inj.take_stall(43).is_some(), "other groups unaffected");
    }

    #[test]
    fn zero_pct_never_stalls() {
        let plan = StallPlan::new(9, 0, 50);
        assert!((0..1000).all(|s| !plan.wants_stall(s)));
    }
}
