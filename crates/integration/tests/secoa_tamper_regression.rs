//! Regression lock for the SECOA inflation-tamper fix: a covert
//! MAX_RANK inflation injected at any point of the tree must survive the
//! max-fold all the way to the root (where a smaller bump could be
//! absorbed by a sibling's larger honest rank) and be **detected** by
//! the inflation-certificate check — on every topology shape we run,
//! including one repaired around a crashed aggregator mid-epoch.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_baselines::secoa::SecoaSum;
use sies_net::engine::{Attack, Engine};
use sies_net::radio::LossyRadio;
use sies_net::recovery::RecoveryConfig;
use sies_net::topology::Topology;
use std::collections::HashSet;

const N: u64 = 16;

fn secoa(seed: u64) -> SecoaSum {
    let mut rng = StdRng::seed_from_u64(seed);
    // Reduced sketch/modulus parameters keep the RSA chains fast; the
    // detection path is identical to the paper-grade configuration.
    SecoaSum::new(&mut rng, N, 16, 256)
}

/// The topology fixture set: complete trees across fanouts plus seeded
/// random trees (ragged shapes, varying depth).
fn fixtures() -> Vec<(String, Topology)> {
    let mut set = Vec::new();
    for fanout in [2usize, 4, 8] {
        set.push((
            format!("complete-f{fanout}"),
            Topology::complete_tree(N, fanout),
        ));
    }
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        set.push((
            format!("random-{seed}"),
            Topology::random_tree(&mut rng, N, 5),
        ));
    }
    set
}

/// Inflation at a source's uplink is rejected at the root on every
/// fixture topology — the regression that previously slipped through
/// when the forged rank was not the network-wide maximum.
#[test]
fn max_rank_inflation_is_detected_on_every_topology() {
    let dep = secoa(42);
    for (name, topo) in fixtures() {
        let values: Vec<u64> = (0..N).map(|i| 1800 + 200 * i).collect();
        // Attack every source position in turn: absorption bugs are
        // position-dependent (a victim under the subtree with the honest
        // maximum is the case a too-small bump would mask).
        for victim_source in 0..N as u32 {
            let victim = topo.source_node(victim_source).unwrap();
            let mut engine = Engine::new(&dep, &topo);
            let out =
                engine.run_epoch_with(0, &values, &HashSet::new(), &[Attack::TamperAtNode(victim)]);
            assert!(
                out.result.is_err(),
                "undetected inflation: topology {name}, victim source {victim_source}"
            );
        }
        // Sanity: the same epoch with no attack verifies.
        let mut engine = Engine::new(&dep, &topo);
        assert!(
            engine.run_epoch(0, &values).result.is_ok(),
            "clean epoch rejected on {name}"
        );
    }
}

/// Inflation injected at an *aggregator's* uplink (where the PSR already
/// folds several children) must also reach the root and be detected.
#[test]
fn max_rank_inflation_at_aggregators_is_detected() {
    let dep = secoa(43);
    for (name, topo) in fixtures() {
        let values: Vec<u64> = (0..N).map(|i| 2000 + 37 * i).collect();
        let aggregators: Vec<_> = (0..topo.num_nodes())
            .filter(|&id| !topo.is_source(id) && id != topo.root())
            .collect();
        for agg in aggregators {
            let mut engine = Engine::new(&dep, &topo);
            let out =
                engine.run_epoch_with(0, &values, &HashSet::new(), &[Attack::TamperAtNode(agg)]);
            assert!(
                out.result.is_err(),
                "undetected inflation: topology {name}, aggregator node {agg}"
            );
        }
    }
}

/// The backup-parent case: an aggregator crashes, its children re-attach
/// via the repair plan, and the tampered PSR travels the *repaired*
/// route — detection must not depend on the original tree shape.
#[test]
fn max_rank_inflation_is_detected_on_repaired_topology() {
    let dep = secoa(44);
    let topo = Topology::complete_tree(N, 4);
    let crashed_agg = topo.children(topo.root()).nth(1).unwrap();
    assert!(!topo.is_source(crashed_agg));
    let values: Vec<u64> = (0..N).map(|i| 1900 + 53 * i).collect();

    for victim_source in 0..N as u32 {
        let victim = topo.source_node(victim_source).unwrap();
        let mut engine = Engine::new(&dep, &topo);
        let mut rng = StdRng::seed_from_u64(1000 + victim_source as u64);
        let rec = engine.run_epoch_recovering(
            0,
            &values,
            &HashSet::from([crashed_agg]),
            &[Attack::TamperAtNode(victim)],
            &LossyRadio::new(0.0, 3),
            &RecoveryConfig::default(),
            &mut rng,
        );
        // The victim's subtree may itself have been pruned with the crash
        // (then the tamper never reaches the root and acceptance is
        // honest); otherwise the inflated PSR must be rejected.
        if rec.aggregate_corrupted {
            assert!(
                rec.outcome.result.is_err(),
                "undetected inflation through backup parent: victim source {victim_source}"
            );
        }
    }

    // The repaired route with no attack still verifies end to end.
    let mut engine = Engine::new(&dep, &topo);
    let mut rng = StdRng::seed_from_u64(7);
    let rec = engine.run_epoch_recovering(
        0,
        &values,
        &HashSet::from([crashed_agg]),
        &[],
        &LossyRadio::new(0.0, 3),
        &RecoveryConfig::default(),
        &mut rng,
    );
    assert!(rec.outcome.result.is_ok(), "clean repaired epoch rejected");
    assert!(!rec.aggregate_corrupted);
}
