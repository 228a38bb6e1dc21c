//! Serial-equivalence oracle for the struct-of-arrays epoch pipeline at
//! CI scale (the throughput smoke leg of the determinism matrix).
//!
//! One SIES deployment, one complete tree: the legacy pointer-tree
//! engine run serially produces the reference SHA-256 digest; the SoA
//! [`EpochPipeline`] must reproduce it bit-for-bit at threads
//! {1, 2, 8} ∪ {`SIES_TEST_THREADS`} × streaming {off, on}. The
//! population defaults to 2 000 and CI's determinism matrix raises it to
//! 10 000 via `SIES_SOA_N`, so the exact configuration the acceptance
//! criterion names ("digest asserted at threads 1/2/8, streaming
//! on/off, N = 10k") runs on every push.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sies_core::SystemParams;
use sies_crypto::hash::HashFunction;
use sies_crypto::sha256::Sha256;
use sies_net::engine::Engine;
use sies_net::pipeline::EpochPipeline;
use sies_net::scheme::SchemeError;
use sies_net::{EvaluatedSum, SiesDeployment, Threads, Topology};

const SEED: u64 = 42;
const EPOCHS: u64 = 4;

fn population() -> u64 {
    std::env::var("SIES_SOA_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2_000)
}

fn thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1, 2, 8];
    if let Some(t) = std::env::var("SIES_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if t > 0 && !sweep.contains(&t) {
            sweep.push(t);
        }
    }
    sweep
}

/// The bench suite's canonical digest byte layout: final PSR bytes,
/// verdict, contributor set — folded per epoch.
fn fold_epoch(
    digest: &mut Sha256,
    final_psr: Option<&sies_core::scheme::Psr>,
    result: &Result<EvaluatedSum, SchemeError>,
    contributors: &[u32],
) {
    if let Some(psr) = final_psr {
        digest.update(&psr.to_bytes());
    }
    match result {
        Ok(sum) => {
            digest.update(&[1, u8::from(sum.integrity_checked)]);
            digest.update(&sum.sum.to_bits().to_le_bytes());
        }
        Err(SchemeError::VerificationFailed(m)) => {
            digest.update(&[2]);
            digest.update(m.as_bytes());
        }
        Err(SchemeError::Malformed(m)) => {
            digest.update(&[3]);
            digest.update(m.as_bytes());
        }
    }
    for sid in contributors {
        digest.update(&sid.to_le_bytes());
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn soa_pipeline_digest_matches_legacy_engine() {
    let n = population();
    let mut rng = StdRng::seed_from_u64(SEED ^ n);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let topo = Topology::complete_tree(n, 4);

    // Legacy serial reference.
    let reference = {
        let mut engine = Engine::new(&dep, &topo);
        let mut values_rng = StdRng::seed_from_u64(SEED ^ n ^ 0xEB0C);
        let mut digest = Sha256::new();
        for epoch in 0..EPOCHS {
            let values: Vec<u64> = (0..n).map(|_| values_rng.random_range(0..5000)).collect();
            let out = engine.run_epoch(epoch, &values);
            fold_epoch(
                &mut digest,
                engine.last_final_psr(),
                &out.result,
                &out.stats.contributors,
            );
        }
        hex(&digest.finalize())
    };

    for threads in thread_sweep() {
        for streaming in [false, true] {
            let mut pipeline = EpochPipeline::new(&dep, &topo, Threads::fixed(threads), streaming);
            let mut values_rng = StdRng::seed_from_u64(SEED ^ n ^ 0xEB0C);
            let mut digest = Sha256::new();
            pipeline.run(
                0,
                EPOCHS,
                |_, values| {
                    for v in values.iter_mut() {
                        *v = values_rng.random_range(0..5000);
                    }
                },
                |_, final_psr, result, contributors| {
                    fold_epoch(&mut digest, final_psr, result, contributors);
                },
            );
            assert_eq!(
                hex(&digest.finalize()),
                reference,
                "SoA pipeline diverged from the legacy engine at N={n} \
                 threads={threads} streaming={streaming}"
            );
        }
    }
}

/// The pipeline's memory accounting must stay inside the stated budget:
/// arena plus the epoch buffers a pipeline holds — one with streaming
/// off, two with it on — within 112 and 256 bytes/node at the test
/// population (the CI gate checks the same bounds on the 1M artifact).
#[test]
fn soa_state_stays_inside_byte_budget() {
    let n = population();
    let mut rng = StdRng::seed_from_u64(SEED ^ n);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let topo = Topology::complete_tree(n, 4);
    for (streaming, budget) in [(false, 112), (true, 256)] {
        let mut pipeline = EpochPipeline::new(&dep, &topo, Threads::fixed(8), streaming);
        // Warm every buffer so capacities reflect steady state.
        pipeline.run(0, 2, |_, v| v.fill(1), |_, _, _, _| {});
        let total = topo.bytes() + pipeline.state_bytes();
        let per_node = total.div_ceil(topo.num_nodes());
        assert!(
            per_node <= budget,
            "arena + epoch state is {per_node} B/node at N={n}, streaming={streaming} \
             (budget: {budget})"
        );
    }
}
