//! Outsourced aggregation under attack: an untrusted provider runs the
//! aggregation tree, and SIES catches everything it tries.
//!
//! Models the paper's second motivating setting (§I): the aggregation
//! infrastructure is delegated to a third-party provider that may be
//! malicious. We run a full tree through the network engine, let the
//! "provider" tamper/drop/duplicate/replay, and show the querier rejecting
//! each corrupted epoch while accepting the honest ones. Query
//! dissemination itself is authenticated with the μTesla-style broadcast.
//!
//! ```text
//! cargo run -p sies-integration --example outsourced_aggregation
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_core::mutesla::{Broadcaster, Receiver};
use sies_core::SystemParams;
use sies_net::engine::{Attack, Engine};
use sies_net::{SiesDeployment, Topology};
use sies_workload::intel_lab::{DomainScale, IntelLabGenerator};
use std::collections::HashSet;

fn main() {
    let n = 256u64;
    let fanout = 4;
    let mut rng = StdRng::seed_from_u64(404);

    // --- Authenticated query dissemination (Theorem 3) -----------------
    let broadcaster = Broadcaster::new(&mut rng, 16, 2);
    let mut sensor_rx = Receiver::new(broadcaster.commitment(), 2);
    let query_packet = broadcaster.broadcast(1, b"SELECT SUM(temp) FROM Sensors EPOCH 1s");
    sensor_rx
        .receive(1, query_packet)
        .expect("security condition holds");
    let verified_msgs = sensor_rx
        .on_disclosure(broadcaster.disclose(1))
        .expect("chain verifies");
    println!(
        "query authenticated via muTesla: {:?}",
        String::from_utf8_lossy(&verified_msgs[0])
    );

    // --- The outsourced network -----------------------------------------
    let deployment = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let topology = Topology::complete_tree(n, fanout);
    let mut engine = Engine::new(&deployment, &topology);
    let mut workload = IntelLabGenerator::new(9, n as usize);
    let victim_source = topology.source_node(17).unwrap();
    let victim_agg = topology.children(topology.root()).start;

    let scenarios: Vec<(&str, Vec<Attack>)> = vec![
        ("honest epoch", vec![]),
        (
            "provider tampers with a PSR",
            vec![Attack::TamperAtNode(victim_agg)],
        ),
        (
            "provider drops a source",
            vec![Attack::DropAtNode(victim_source)],
        ),
        (
            "provider duplicates a source",
            vec![Attack::DuplicateAtNode(victim_source)],
        ),
        (
            "provider replays yesterday's result",
            vec![Attack::ReplayFinal],
        ),
        ("honest epoch again", vec![]),
    ];

    for (epoch, (label, attacks)) in scenarios.iter().enumerate() {
        let epoch = epoch as u64;
        let values = workload.epoch_values(epoch, DomainScale::DEFAULT);
        let expected: u64 = values.iter().sum();
        let outcome = engine.run_epoch_with(epoch, &values, &HashSet::new(), attacks);
        match outcome.result {
            Ok(res) => {
                assert_eq!(res.sum as u64, expected);
                println!(
                    "epoch {epoch} ({label}): ACCEPTED, exact SUM = {} ({} bytes to querier)",
                    res.sum, outcome.stats.bytes.agg_to_querier
                );
            }
            Err(e) => {
                assert!(!attacks.is_empty(), "honest epoch must verify");
                println!("epoch {epoch} ({label}): REJECTED - {e}");
            }
        }
    }

    println!("\nevery attack detected; every honest epoch verified exactly");
}
