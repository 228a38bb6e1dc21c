//! The security claims of the paper, asserted as a machine-checked matrix:
//! SIES detects every covert attack (Theorems 2–4); CMT detects none
//! (its §II-D weakness); SECOA detects integrity attacks but leaks
//! plaintext values (no confidentiality).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_baselines::cmt::CmtDeployment;
use sies_baselines::secoa::SecoaSum;
use sies_core::SystemParams;
use sies_net::engine::{Attack, Engine};
use sies_net::scheme::AggregationScheme;
use sies_net::{SiesDeployment, Topology};
use std::collections::HashSet;

const N: u64 = 16;

fn attack_result<S: AggregationScheme>(scheme: &S, topo: &Topology, attacks: &[Attack]) -> bool {
    let mut engine = Engine::new(scheme, topo);
    let values = vec![500u64; topo.num_sources() as usize];
    let warm = engine.run_epoch(0, &values);
    assert!(
        warm.result.is_ok(),
        "warm-up epoch must verify for {}",
        scheme.name()
    );
    engine
        .run_epoch_with(1, &values, &HashSet::new(), attacks)
        .result
        .is_err()
}

fn attack_suite(topo: &Topology) -> Vec<(&'static str, Vec<Attack>)> {
    let victim_source = topo.source_node(5).unwrap();
    let victim_agg = topo.children(topo.root()).start;
    vec![
        (
            "tamper at source",
            vec![Attack::TamperAtNode(victim_source)],
        ),
        (
            "tamper at aggregator",
            vec![Attack::TamperAtNode(victim_agg)],
        ),
        ("drop source PSR", vec![Attack::DropAtNode(victim_source)]),
        ("drop aggregator PSR", vec![Attack::DropAtNode(victim_agg)]),
        (
            "duplicate source PSR",
            vec![Attack::DuplicateAtNode(victim_source)],
        ),
        ("replay final PSR", vec![Attack::ReplayFinal]),
        (
            "combined tamper + duplicate",
            vec![
                Attack::TamperAtNode(victim_source),
                Attack::DuplicateAtNode(victim_agg),
            ],
        ),
    ]
}

#[test]
fn sies_detects_every_attack() {
    let topo = Topology::complete_tree(N, 4);
    let mut rng = StdRng::seed_from_u64(10);
    let sies = SiesDeployment::new(&mut rng, SystemParams::new(N).unwrap());
    for (name, attacks) in attack_suite(&topo) {
        assert!(attack_result(&sies, &topo, &attacks), "SIES missed: {name}");
    }
}

#[test]
fn cmt_detects_no_attack() {
    // The motivating weakness: CMT accepts all corrupted results.
    let topo = Topology::complete_tree(N, 4);
    let mut rng = StdRng::seed_from_u64(11);
    let cmt = CmtDeployment::new(&mut rng, N);
    for (name, attacks) in attack_suite(&topo) {
        assert!(
            !attack_result(&cmt, &topo, &attacks),
            "CMT unexpectedly detected: {name}"
        );
    }
}

#[test]
fn secoa_detects_every_attack() {
    let topo = Topology::complete_tree(N, 4);
    let mut rng = StdRng::seed_from_u64(12);
    let secoa = SecoaSum::new(&mut rng, N, 32, 256);
    for (name, attacks) in attack_suite(&topo) {
        assert!(
            attack_result(&secoa, &topo, &attacks),
            "SECOA missed: {name}"
        );
    }
}

#[test]
fn sies_ciphertexts_look_uniform() {
    // A weak statistical confidentiality check: with per-epoch one-time
    // keys, encrypting the SAME value across epochs must give ciphertexts
    // with no shared structure — every byte position should take many
    // distinct values.
    let mut rng = StdRng::seed_from_u64(13);
    let sies = SiesDeployment::new(&mut rng, SystemParams::new(4).unwrap());
    let mut by_position: Vec<HashSet<u8>> = vec![HashSet::new(); 32];
    for epoch in 0..64u64 {
        let psr = sies.source(0).initialize(epoch, 1234).unwrap();
        for (i, b) in psr.to_bytes().iter().enumerate() {
            by_position[i].insert(*b);
        }
    }
    for (i, set) in by_position.iter().enumerate() {
        assert!(
            set.len() > 32,
            "byte {i} of the ciphertext shows structure ({} values)",
            set.len()
        );
    }
}

#[test]
fn cmt_high_bytes_also_randomized() {
    // CMT is also confidential (mod 2^160 pad): same check.
    let mut rng = StdRng::seed_from_u64(14);
    let cmt = CmtDeployment::new(&mut rng, 4);
    let mut distinct = HashSet::new();
    for epoch in 0..64u64 {
        let psr = cmt.source_init(0, epoch, 1234);
        distinct.insert(psr.ciphertext().to_be_bytes());
    }
    assert_eq!(
        distinct.len(),
        64,
        "CMT ciphertexts must differ across epochs"
    );
}

#[test]
fn secoa_leaks_plaintext_structure() {
    // SECOA has no confidentiality: its PSR carries the sketch values in
    // clear, and those values are a deterministic function of the
    // reading. Encrypting the same value twice in the same epoch gives
    // identical sketch fields — an eavesdropper distinguishes values.
    let mut rng = StdRng::seed_from_u64(15);
    let secoa = SecoaSum::new(&mut rng, 4, 16, 256);
    let a = secoa.source_init(0, 0, 1000);
    let b = secoa.source_init(0, 0, 1000);
    let c = secoa.source_init(0, 0, 2000);
    let xs =
        |p: &sies_baselines::secoa::SecoaPsr| -> Vec<u8> { p.slots.iter().map(|s| s.x).collect() };
    assert_eq!(xs(&a), xs(&b), "same value, same epoch: identical sketches");
    assert_ne!(
        xs(&a),
        xs(&c),
        "different values produce distinguishable sketches"
    );
}

#[test]
fn compromised_source_caveat_holds_for_all() {
    // Paper §III-C: a compromised source can always lie about its own
    // reading undetected — for every scheme. We model it as the source
    // honestly running the protocol on a false value.
    let topo = Topology::complete_tree(N, 4);
    let mut rng = StdRng::seed_from_u64(16);
    let sies = SiesDeployment::new(&mut rng, SystemParams::new(N).unwrap());
    let mut engine = Engine::new(&sies, &topo);
    let mut values = vec![100u64; N as usize];
    values[7] = 99_999; // the lie
    let out = engine.run_epoch(0, &values);
    let res = out.result.expect("protocol-compliant lie is accepted");
    assert_eq!(res.sum as u64, 100 * (N - 1) + 99_999);
}
