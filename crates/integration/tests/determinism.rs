//! The serial-vs-parallel determinism oracle (PR acceptance gate).
//!
//! The parallel epoch walk shards every epoch kind across worker
//! threads but merges partial aggregates in deterministic tree order, so
//! for any fixed seed it must produce **byte-identical** aggregates,
//! verification verdicts, and results JSON to the serial engine — at
//! every thread count. These tests are the differential proof:
//!
//! * clean, failed-node, and attacked epochs through `run_epoch_with`;
//! * the recovery runner (`run_epoch_recovering`) with crashed
//!   aggregators, lossy radio, and covert attacks;
//! * the chaos harness metrics and the serialized reliability JSON;
//! * the throughput suite's SHA-256 digest oracle;
//! * the streamed pipeline over a warm prewarm pool, whose every epoch
//!   the querier evaluates from its pooled totals.
//!
//! CI runs this suite with `SIES_TEST_THREADS` ∈ {1, 2, 3, 8} to pin the
//! guarantee on hosts with different core counts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_bench::experiments;
use sies_bench::throughput::throughput_suite;
use sies_core::SystemParams;
use sies_net::engine::{Attack, Engine, EpochOutcome};
use sies_net::pipeline::EpochPipeline;
use sies_net::radio::LossyRadio;
use sies_net::recovery::RecoveryConfig;
use sies_net::{PrewarmPolicy, SiesDeployment, Threads, Topology};
use std::collections::HashSet;

const N: u64 = 64;
const F: usize = 4;

/// Thread counts every differential test sweeps. `SIES_TEST_THREADS`
/// (set by the CI matrix) is added on top when present.
fn thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1, 2, 4, 8];
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

fn deployment(seed: u64) -> SiesDeployment {
    let mut rng = StdRng::seed_from_u64(seed);
    SiesDeployment::new(&mut rng, SystemParams::new(N).unwrap())
}

fn values(epoch: u64) -> Vec<u64> {
    (0..N).map(|i| 1800 + (i * 31 + epoch * 7) % 3200).collect()
}

/// Everything an epoch outcome exposes, flattened to comparable bytes.
fn outcome_fingerprint(out: &EpochOutcome, psr_bytes: Option<[u8; 32]>) -> String {
    format!(
        "result={:?} contributors={:?} sources_run={} bytes={:?} psr={:?}",
        out.result, out.stats.contributors, out.stats.sources_run, out.stats.bytes, psr_bytes
    )
}

/// Clean epochs, a failed source node, and covert attacks: the threaded
/// engine must reproduce the serial engine's verdicts, contributor sets,
/// edge-byte accounting, and final PSR bytes, bit for bit.
#[test]
fn epoch_pipeline_is_byte_identical_across_thread_counts() {
    let dep = deployment(11);
    let topo = Topology::complete_tree(N, F);
    let failed_source = topo.source_node(9).unwrap();
    let victim = topo.source_node(20).unwrap();

    // epoch -> (failed nodes, attacks); mixes accept and reject paths.
    let scenarios: Vec<(HashSet<_>, Vec<Attack>)> = vec![
        (HashSet::new(), vec![]),
        (HashSet::from([failed_source]), vec![]),
        (HashSet::new(), vec![Attack::TamperAtNode(victim)]),
        (HashSet::new(), vec![Attack::ReplayFinal]),
        (HashSet::from([failed_source]), vec![]),
    ];

    let mut baseline: Vec<String> = Vec::new();
    {
        let mut engine = Engine::new(&dep, &topo); // serial: no threading at all
        for (epoch, (failed, attacks)) in scenarios.iter().enumerate() {
            let out = engine.run_epoch_with(epoch as u64, &values(epoch as u64), failed, attacks);
            let psr = engine.last_final_psr().map(|p| p.to_bytes());
            baseline.push(outcome_fingerprint(&out, psr));
        }
    }

    for threads in thread_sweep() {
        let mut engine = Engine::new(&dep, &topo).with_threads(Threads::fixed(threads));
        for (epoch, (failed, attacks)) in scenarios.iter().enumerate() {
            let out = engine.run_epoch_with(epoch as u64, &values(epoch as u64), failed, attacks);
            let psr = engine.last_final_psr().map(|p| p.to_bytes());
            assert_eq!(
                outcome_fingerprint(&out, psr),
                baseline[epoch],
                "epoch {epoch} diverged at {threads} threads"
            );
        }
    }
}

/// The recovery runner reroutes around a crashed aggregator and
/// retransmits over a lossy radio; its RNG draw order must not depend on
/// the worker count, so verdict, contributor set, and recovery
/// accounting stay identical at every thread count.
#[test]
fn recovery_runner_is_thread_count_invariant() {
    let dep = deployment(23);
    let topo = Topology::complete_tree(N, F);
    let crashed_agg = topo.children(topo.root())[1] as usize;
    assert!(!topo.is_source(crashed_agg));
    let victim = topo.source_node(40).unwrap();

    let run = |threads: Option<usize>| {
        let mut engine = match threads {
            None => Engine::new(&dep, &topo),
            Some(t) => Engine::new(&dep, &topo).with_threads(Threads::fixed(t)),
        };
        let mut out = Vec::new();
        for (epoch, attacks) in [
            (0u64, vec![]),
            (1, vec![Attack::TamperAtNode(victim)]),
            (2, vec![]),
        ] {
            let mut rng = StdRng::seed_from_u64(500 + epoch);
            let rec = engine.run_epoch_recovering(
                epoch,
                &values(epoch),
                &HashSet::from([crashed_agg]),
                &attacks,
                &LossyRadio::new(0.12, 3),
                &RecoveryConfig::default(),
                &mut rng,
            );
            let psr = engine.last_final_psr().map(|p| p.to_bytes());
            out.push((
                outcome_fingerprint(&rec.outcome, psr),
                rec.report.clone(),
                rec.aggregate_corrupted,
            ));
        }
        out
    };

    let baseline = run(None);
    for threads in thread_sweep() {
        assert_eq!(
            run(Some(threads)),
            baseline,
            "recovery runner diverged at {threads} threads"
        );
    }
}

/// The full chaos harness plus the reliability experiment: the metrics
/// struct and the serialized `BENCH_reliability` JSON must be identical
/// whether the epoch walk ran on 1 worker or many.
#[test]
fn reliability_json_is_thread_count_invariant() {
    let serial = experiments::reliability_threaded(7, 50, Threads::serial());
    let baseline = serde_json::to_string(&serial).unwrap();
    for threads in thread_sweep() {
        let threaded = experiments::reliability_threaded(7, 50, Threads::fixed(threads));
        assert_eq!(
            serde_json::to_string(&threaded).unwrap(),
            baseline,
            "reliability JSON diverged at {threads} threads"
        );
    }
}

/// The throughput suite's own digest oracle, exercised from outside the
/// bench crate: every configuration of every population must hash to the
/// serial baseline's digest (the suite panics internally otherwise).
#[test]
fn throughput_suite_digest_oracle_holds() {
    let points = throughput_suite(3, 1, &thread_sweep());
    for pair in points.chunks(thread_sweep().len()) {
        for p in pair {
            assert_eq!(p.result_digest, pair[0].result_digest);
        }
    }
}

/// The streamed pipeline over a warm pool: every epoch of the run is
/// derived ahead synchronously (no more than the default pool holds),
/// so at every thread count, streaming off and on, each epoch's
/// querier lookup hits and evaluation runs from the pooled totals —
/// and the outcomes equal a cold deployment's. Hit counts are asserted
/// only here, where no racing warmer decides them.
#[test]
fn warm_pool_evaluations_match_cold_across_thread_counts() {
    const EPOCHS: u64 = 4;
    assert!(EPOCHS as usize <= PrewarmPolicy::default().capacity);
    let topo = Topology::complete_tree(N, F);
    let run = |dep: &SiesDeployment, threads: usize, streaming: bool| {
        let mut pipeline = EpochPipeline::new(dep, &topo, Threads::fixed(threads), streaming);
        let mut outs = Vec::new();
        pipeline.run(
            0,
            EPOCHS,
            |epoch, vals| vals.copy_from_slice(&values(epoch)),
            |_, psr, result, contributors| {
                let psr = psr.map(|p| p.to_bytes());
                outs.push(format!("{result:?} {psr:?} {}", contributors.len()));
            },
        );
        outs
    };
    let cold = run(&deployment(31), 1, false);
    assert!(cold.iter().all(|o| o.starts_with("Ok(")), "{cold:?}");
    for threads in thread_sweep() {
        for streaming in [false, true] {
            let warm = deployment(31).with_prewarm(PrewarmPolicy::default());
            for epoch in 0..EPOCHS {
                assert!(warm.prewarm_derive(epoch), "epoch {epoch} pooled");
            }
            assert_eq!(
                run(&warm, threads, streaming),
                cold,
                "warm pool diverged at threads={threads} streaming={streaming}"
            );
            let stats = warm.prewarm_stats();
            assert_eq!(
                (stats.querier_hits, stats.querier_misses),
                (EPOCHS, 0),
                "querier lookups at threads={threads} streaming={streaming}"
            );
        }
    }
}
