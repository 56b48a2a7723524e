//! CI-grade torture smoke: a fixed-seed matrix of crash–recover–resync
//! cycles must all converge. Failures print the seed, which reproduces the
//! exact schedule via `cargo run -p delta-bench --bin torture -- --seed N`.

use delta_bench::torture::{run, TortureConfig};

#[test]
fn twenty_seeded_cycles_converge() {
    let cfg = TortureConfig {
        seed: 0xDE17A,
        cycles: 20,
        txns: 8,
        sync_workers: 1,
        audit: false,
        pressure: false,
    };
    let stats = run(&cfg).expect("every cycle must converge");
    assert_eq!(stats.cycles, 20);
    // The schedule must actually exercise the machinery, not tiptoe past it.
    assert!(stats.txns_ok > 0, "no transaction ever committed");
    assert!(stats.published > 0, "no delta was ever shipped");
    assert!(
        stats.source_crashes + stats.txns_faulted > 0,
        "the fault plan never fired: {}",
        stats.summary()
    );
    // This seed damages an archived segment the extractor still has to
    // read: the round must have gone quarantine → audit owed → audit.
    assert!(
        stats.segment_corruptions > 0 && stats.audits_owed > 0,
        "no extraction ever owed an audit: {}",
        stats.summary()
    );
}

#[test]
fn alternate_seed_also_converges_and_is_deterministic() {
    let cfg = TortureConfig {
        seed: 99,
        cycles: 6,
        txns: 6,
        sync_workers: 1,
        audit: false,
        pressure: false,
    };
    let a = run(&cfg).expect("seed 99 must converge");
    let b = run(&cfg).expect("seed 99 must converge again");
    // Identical seeds replay identical schedules: the counters must match
    // exactly, which is what makes a printed seed a faithful reproduction.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn parallel_scheduler_converges_on_the_ci_seed_matrix() {
    // The staged parallel apply path must survive the same seeded
    // crash-convergence schedules CI runs serially (see torture-smoke in
    // ci.yml), at a reduced cycle count to stay smoke-sized.
    for seed in [909690, 7, 1234] {
        let cfg = TortureConfig {
            seed,
            cycles: 6,
            txns: 8,
            sync_workers: 4,
            audit: false,
            pressure: false,
        };
        let stats =
            run(&cfg).unwrap_or_else(|e| panic!("seed {seed} with 4 workers must converge: {e}"));
        assert_eq!(stats.cycles, 6, "seed {seed}");
        assert!(stats.published > 0, "seed {seed}: no delta ever shipped");
    }
}

#[test]
fn pressure_mode_converges_under_shrinking_budgets_and_stalls() {
    // Resource-exhaustion smoke: shrinking spool budgets force the ship
    // degradation ladder (compact → coalesce → defer) and seeded stalls
    // make classes commit out of order; every cycle must still end
    // byte-equal.
    let cfg = TortureConfig {
        seed: 424242,
        cycles: 20,
        txns: 8,
        sync_workers: 2,
        audit: false,
        pressure: true,
    };
    let stats = run(&cfg).expect("every pressured cycle must converge");
    assert_eq!(stats.cycles, 20);
    assert!(
        stats.backpressure > 0,
        "the budget never bit: {}",
        stats.summary()
    );
    assert!(
        stats.ship_compactions > 0,
        "backpressure never triggered spool compaction: {}",
        stats.summary()
    );
    assert!(
        stats.ship_deferrals > 0 && stats.pressure_lifts > 0,
        "no round was ever deferred past a pressure lift: {}",
        stats.summary()
    );
}

#[test]
fn audit_mode_detects_and_repairs_seeded_divergence() {
    // Anti-entropy smoke: every cycle injects one seeded silent divergence
    // (flipped/lost/phantom rows, poison batches, ack-then-drop) and the
    // audit pass must repair the mirror back to byte-equality before the
    // cycle's convergence check — which `run` enforces internally.
    let cfg = TortureConfig {
        seed: 909690,
        cycles: 8,
        txns: 8,
        sync_workers: 1,
        audit: true,
        pressure: false,
    };
    let stats = run(&cfg).expect("every audited cycle must converge");
    assert_eq!(stats.cycles, 8);
    assert_eq!(stats.audits, 8, "one audit per cycle");
    assert_eq!(stats.divergences_injected, 8, "one divergence per cycle");
    assert!(
        stats.repair_records > 0,
        "audits never shipped a repair: {}",
        stats.summary()
    );
}
