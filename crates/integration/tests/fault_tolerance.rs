//! Fault-tolerance integration tests: the recovery protocol, topology
//! repair, and the seeded chaos harness exercised across every scheme.
//!
//! The soundness contract under faults:
//! * **SIES** — exact and verifying: over any chaos mix, zero false
//!   accepts, zero false rejects, and every accepted sum equals the
//!   ground-truth sum over the reported contributors.
//! * **SECOA** — verifying but approximate: zero false accepts/rejects;
//!   accepted sums are estimates, so exactness is not asserted.
//! * **CMT / plain TAG** — no integrity verification by design: covert
//!   attacks are *expected* to slip through (the paper's motivating
//!   weakness); honest faults must still never produce a panic or a
//!   spurious rejection.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_baselines::cmt::CmtDeployment;
use sies_baselines::plain::PlainAggregation;
use sies_baselines::secoa::SecoaSum;
use sies_core::SystemParams;
use sies_net::chaos::{run_chaos, ChaosConfig};
use sies_net::engine::Engine;
use sies_net::radio::LossyRadio;
use sies_net::recovery::RecoveryConfig;
use sies_net::{SiesDeployment, Topology};
use std::collections::HashSet;

const N: u64 = 16;
const F: usize = 4;

fn sies(seed: u64) -> SiesDeployment {
    let mut rng = StdRng::seed_from_u64(seed);
    SiesDeployment::new(&mut rng, SystemParams::new(N).unwrap())
}

/// The acceptance-criteria test: an epoch in which an aggregator fails
/// still returns a **verified, exact** SUM because the aggregator's
/// children re-attach to the backup parent mid-epoch. The contributor
/// set stays exact, so SIES verification passes over all N sources.
#[test]
fn failed_aggregator_epoch_recovers_via_backup_parent() {
    let dep = sies(1);
    let topo = Topology::complete_tree(N, F);
    // Pick a real aggregator (a child of the sink), not a source.
    let crashed_agg = topo.children(topo.root())[2] as usize;
    assert!(!topo.is_source(crashed_agg));

    let values: Vec<u64> = (0..N).map(|i| 1800 + 13 * i).collect();
    let expected: u64 = values.iter().sum();
    let mut engine = Engine::new(&dep, &topo);
    let mut rng = StdRng::seed_from_u64(2);
    let run = engine.run_epoch_recovering(
        0,
        &values,
        &HashSet::from([crashed_agg]),
        &[],
        &LossyRadio::new(0.0, 3),
        &RecoveryConfig::default(),
        &mut rng,
    );

    let res = run.outcome.result.expect("repaired epoch must verify");
    assert!(res.integrity_checked);
    assert_eq!(
        res.sum, expected as f64,
        "no contribution may be lost to the crash"
    );
    assert_eq!(run.outcome.stats.contributors.len() as u64, N);
    assert_eq!(run.report.adoptions as usize, F, "every orphan re-homed");
    assert!(
        run.repairs.adoptions.values().all(|&p| p == topo.root()),
        "the nearest live ancestor of the orphans is the sink"
    );
    assert!(run.repairs.stranded.is_empty());
    assert!(!run.aggregate_corrupted);
}

/// Same repair path, but under a lossy radio: the epoch either verifies
/// exactly over the survivors or is an availability loss — never a
/// spurious verification failure.
#[test]
fn repair_composes_with_lossy_radio() {
    let dep = sies(3);
    let topo = Topology::complete_tree(N, F);
    let crashed_agg = topo.children(topo.root())[0] as usize;
    let values = vec![100u64; N as usize];
    let mut engine = Engine::new(&dep, &topo);
    let mut rng = StdRng::seed_from_u64(4);
    for epoch in 0..30 {
        let run = engine.run_epoch_recovering(
            epoch,
            &values,
            &HashSet::from([crashed_agg]),
            &[],
            &LossyRadio::new(0.25, 2),
            &RecoveryConfig::default(),
            &mut rng,
        );
        assert!(!run.aggregate_corrupted);
        match run.outcome.result {
            Ok(res) => {
                let expected = 100 * run.outcome.stats.contributors.len() as u64;
                assert_eq!(res.sum, expected as f64);
            }
            Err(e) => assert!(
                e.to_string().contains("querier") || e.to_string().contains("lost"),
                "honest faults must read as availability, got: {e}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random honest failures (loss + crashes, no adversary): every
    /// scheme returns a sum over the survivors or an availability loss.
    /// Exact schemes additionally match the ground-truth sum; nothing
    /// ever false-rejects or panics.
    #[test]
    fn honest_chaos_verifies_over_survivors_for_every_scheme(
        seed in 0u64..10_000,
        loss in 0.0f64..0.35,
        crash in 0.0f64..0.4,
    ) {
        let topo = Topology::complete_tree(N, F);
        let cfg = ChaosConfig {
            seed,
            epochs: 25,
            loss_rate: loss,
            crash_prob: crash,
            attack_prob: 0.0,
            max_value: 200,
            ..ChaosConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);

        // SIES: fully sound and exact.
        let m = run_chaos(&sies(seed), &topo, &cfg);
        prop_assert!(m.sound(), "SIES unsound under honest faults: {m:?}");
        prop_assert_eq!(m.corrupted_epochs, 0);

        // CMT and plain: no verification, but honest faults never reject.
        let cmt = CmtDeployment::new(&mut rng, N);
        let m = run_chaos(&cmt, &topo, &cfg);
        prop_assert!(m.false_rejects == 0, "CMT rejected an honest epoch");
        let m = run_chaos(&PlainAggregation, &topo, &cfg);
        prop_assert!(m.false_rejects == 0, "plain TAG rejected an honest epoch");

        // SECOA: verifying (approximate), so no false rejects either.
        let secoa = SecoaSum::new(&mut rng, N, 16, 256);
        let m = run_chaos(&secoa, &topo, &cfg);
        prop_assert!(m.false_rejects == 0, "SECOA rejected an honest epoch");
        prop_assert_eq!(m.false_accepts, 0);
    }

    /// Random covert attacks: the verifying schemes (SIES, SECOA) detect
    /// every corruption — zero false accepts — even while the recovery
    /// protocol is busy repairing honest faults.
    #[test]
    fn adversarial_chaos_is_detected_by_verifying_schemes(seed in 0u64..10_000) {
        let topo = Topology::complete_tree(N, F);
        let cfg = ChaosConfig {
            seed,
            epochs: 25,
            loss_rate: 0.1,
            crash_prob: 0.1,
            attack_prob: 0.6,
            max_value: 200,
            ..ChaosConfig::default()
        };

        let m = run_chaos(&sies(seed), &topo, &cfg);
        prop_assert!(m.sound(), "SIES unsound under attack: {m:?}");
        prop_assert_eq!(m.detected_corruptions, m.corrupted_epochs);

        let mut rng = StdRng::seed_from_u64(seed);
        let secoa = SecoaSum::new(&mut rng, N, 16, 256);
        let m = run_chaos(&secoa, &topo, &cfg);
        prop_assert!(m.false_accepts == 0, "SECOA accepted a corrupted aggregate");
        prop_assert_eq!(m.false_rejects, 0);
    }
}

/// The documented expected-miss: CMT and plain TAG have no integrity
/// mechanism, so under the same adversarial mix they accept corrupted
/// aggregates — the weakness that motivates SIES (paper §II-D). The
/// assertion is deliberate: if a refactor ever makes these "detect"
/// attacks, the baseline no longer models what the paper compares
/// against.
#[test]
fn nonverifying_baselines_accept_corrupted_aggregates() {
    let topo = Topology::complete_tree(N, F);
    let cfg = ChaosConfig {
        seed: 5,
        epochs: 60,
        loss_rate: 0.0,
        crash_prob: 0.0,
        attack_prob: 1.0,
        max_value: 200,
        ..ChaosConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(5);

    let cmt = CmtDeployment::new(&mut rng, N);
    let m = run_chaos(&cmt, &topo, &cfg);
    assert!(
        m.corrupted_epochs > 0,
        "attack mix never corrupted an aggregate"
    );
    assert!(
        m.false_accepts > 0,
        "CMT unexpectedly detected covert attacks"
    );

    let m = run_chaos(&PlainAggregation, &topo, &cfg);
    assert!(
        m.false_accepts > 0,
        "plain TAG unexpectedly detected covert attacks"
    );
}
