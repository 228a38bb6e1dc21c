//! Side-by-side comparison of SIES against the paper's baselines on the
//! same network: exactness, security verdicts, per-edge bytes, and radio
//! energy — the qualitative content of the paper's Tables III and V at
//! example scale.
//!
//! ```text
//! cargo run -p sies-integration --example scheme_comparison --release
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_baselines::cmt::CmtDeployment;
use sies_baselines::secoa::SecoaSum;
use sies_core::SystemParams;
use sies_net::engine::Engine;
use sies_net::scheme::AggregationScheme;
use sies_net::{RadioModel, SiesDeployment, Topology};
use sies_workload::intel_lab::{DomainScale, IntelLabGenerator};

fn run_scheme<S: AggregationScheme>(scheme: &S, topo: &Topology, values: &[u64], true_sum: u64) {
    let mut engine = Engine::new(scheme, topo);
    let out = engine.run_epoch(0, values);
    let radio = RadioModel::default();
    match out.result {
        Ok(res) => {
            let err = (res.sum - true_sum as f64).abs() / true_sum as f64 * 100.0;
            println!(
                "{:<7} | sum {:>12.1} | err {:>6.2}% | integrity {:<5} | S-A {:>8.0} B | A-Q {:>8} B | tx {:>10.6} J | lifetime {:>9.0} epochs",
                scheme.name(),
                res.sum,
                err,
                res.integrity_checked,
                out.stats.bytes.per_sa_edge(),
                out.stats.bytes.agg_to_querier,
                out.stats.energy_tx,
                radio.lifetime_epochs(2.0, out.stats.bytes.per_sa_edge() as usize),
            );
        }
        Err(e) => println!("{:<7} | FAILED: {e}", scheme.name()),
    }
}

fn main() {
    let n = 64u64;
    let fanout = 4;
    // Reduced SECOA parameters keep the example quick; the repro binary
    // runs the full J = 300 / 1024-bit configuration.
    let secoa_j = 60;
    let rsa_bits = 512;

    let mut rng = StdRng::seed_from_u64(7);
    let topo = Topology::complete_tree(n, fanout);
    let mut workload = IntelLabGenerator::new(21, n as usize);
    let values = workload.epoch_values(0, DomainScale::DEFAULT);
    let true_sum: u64 = values.iter().sum();
    println!("N = {n}, F = {fanout}, true SUM = {true_sum}\n");

    let sies = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    run_scheme(&sies, &topo, &values, true_sum);

    let cmt = CmtDeployment::new(&mut rng, n);
    run_scheme(&cmt, &topo, &values, true_sum);

    let secoa = SecoaSum::new(&mut rng, n, secoa_j, rsa_bits);
    run_scheme(&secoa, &topo, &values, true_sum);

    println!(
        "\nSIES: exact + confidential + verified, 32 B edges.\n\
         CMT:  exact + confidential, but integrity column is 'false' - tampering would pass.\n\
         SECOA: verified but approximate (nonzero err), and orders of magnitude more bytes."
    );
}
