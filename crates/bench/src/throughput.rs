//! Parallel epoch throughput: epochs/sec vs thread count, with
//! a built-in determinism oracle.
//!
//! For each population size `N` the suite runs the same seeded epoch
//! sequence through the engine at every requested thread count and
//! reports wall-clock throughput plus the per-phase CPU breakdown. A
//! SHA-256 digest over every epoch's final PSR bytes, verdict, and
//! contributor set is computed per configuration; the suite *asserts*
//! the digests are identical across thread counts, so a throughput run
//! that completes is itself a proof that parallelism changed no byte of
//! the results.
//!
//! The same digest doubles as the lane-width oracle: before the thread
//! sweep the suite replays the smallest population serially at every
//! multi-lane hash width (W ∈ {1, 4, 8, 16}) and asserts the digests
//! agree, so neither worker count nor hash lane width can change a
//! result byte.
//!
//! The prewarm sweep ([`prewarm_suite`]) runs the same seeded epoch
//! sequence as one clean run ([`Engine::run_epochs`]) with the
//! precompute-ahead key pool off and on at 1, 2 and 8 worker threads
//! and asserts every configuration produces the identical digest — the
//! whole-system proof that prewarmed epochs change no result byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use sies_core::SystemParams;
use sies_crypto::hash::HashFunction;
use sies_crypto::lanes;
use sies_crypto::sha256::Sha256;
use sies_net::engine::Engine;
use sies_net::scheme::SchemeError;
use sies_net::{PrewarmPolicy, SiesDeployment, Threads, Topology};
use std::time::Instant;

/// The population sizes the throughput sweep covers.
pub const THROUGHPUT_N: [u64; 3] = [100, 500, 1000];

/// Default thread counts to sweep (1 is always measured first as the
/// serial baseline).
pub const DEFAULT_THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The populations of the struct-of-arrays scale sweep (`repro
/// throughput` caps this with `--max-n`).
pub const SCALE_N: [u64; 3] = [10_000, 100_000, 1_000_000];

/// Thread counts the scale sweep digest-asserts at every population.
pub const SCALE_THREADS: [usize; 3] = [1, 2, 8];

/// One measured configuration, ready for `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputPoint {
    /// Source population size.
    pub n: u64,
    /// Worker threads in the sharded source phase.
    pub threads: usize,
    /// Epochs executed.
    pub epochs: u64,
    /// Wall-clock time for the whole run, ms.
    pub wall_ms: f64,
    /// Epochs completed per wall-clock second.
    pub epochs_per_sec: f64,
    /// Summed in-worker CPU time of the source phase, ms.
    pub source_cpu_ms: f64,
    /// Summed aggregator merge CPU, ms.
    pub aggregator_cpu_ms: f64,
    /// Summed querier evaluation CPU, ms.
    pub querier_cpu_ms: f64,
    /// Wall-clock speedup vs the serial (threads = 1) run of the same
    /// `n`; 1.0 for the baseline itself.
    pub speedup_vs_serial: f64,
    /// SHA-256 over every epoch's final PSR, verdict, and contributor
    /// set — equal across thread counts by the determinism oracle.
    pub result_digest: String,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Wall + per-phase CPU + result digest of one measured run; the common
/// output of the single-epoch and clean-run runners.
struct RunMeasurement {
    wall_ms: f64,
    source_cpu_ms: f64,
    merge_cpu_ms: f64,
    querier_cpu_ms: f64,
    digest: String,
}

/// Folds one epoch's outcome into the running SHA-256 — the serial
/// equivalence oracle's byte layout, shared by every runner: final PSR
/// bytes (when one exists), verdict, then the contributor set.
fn digest_epoch(
    digest: &mut Sha256,
    final_psr: Option<&sies_core::scheme::Psr>,
    result: &Result<sies_net::EvaluatedSum, SchemeError>,
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

/// Runs `epochs` clean epochs through [`Engine::run_epoch`] on an
/// existing deployment, timing and digesting every result. Values come
/// from the canonical per-N RNG (`seed ^ n ^ 0xEB0C`) so every runner
/// replays the same readings.
fn run_engine_measured(
    dep: &SiesDeployment,
    topo: &Topology,
    seed: u64,
    n: u64,
    threads: usize,
    epochs: u64,
) -> RunMeasurement {
    let mut engine = Engine::new(dep, topo).with_threads(Threads::fixed(threads));
    let mut values_rng = StdRng::seed_from_u64(seed ^ n ^ 0xEB0C);
    let mut digest = Sha256::new();
    let mut source_cpu = 0.0f64;
    let mut merge_cpu = 0.0f64;
    let mut querier_cpu = 0.0f64;

    let wall_start = Instant::now();
    for epoch in 0..epochs {
        let values: Vec<u64> = (0..n).map(|_| values_rng.random_range(0..5000)).collect();
        let out = engine.run_epoch(epoch, &values);
        source_cpu += out.stats.source_cpu.as_secs_f64() * 1e3;
        merge_cpu += out.stats.aggregator_cpu.as_secs_f64() * 1e3;
        querier_cpu += out.stats.querier_cpu.as_secs_f64() * 1e3;
        digest_epoch(
            &mut digest,
            engine.last_final_psr(),
            &out.result,
            &out.stats.contributors,
        );
    }
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    RunMeasurement {
        wall_ms,
        source_cpu_ms: source_cpu,
        merge_cpu_ms: merge_cpu,
        querier_cpu_ms: querier_cpu,
        digest: hex(&digest.finalize()),
    }
}

/// Runs `epochs` clean epochs as one [`Engine::run_epochs`] run from
/// epoch 0, timing and digesting identically to
/// [`run_engine_measured`] — the digests must agree bit-for-bit.
fn run_clean_measured(
    engine: &mut Engine<'_, SiesDeployment>,
    seed: u64,
    n: u64,
    epochs: u64,
) -> RunMeasurement {
    let mut values_rng = StdRng::seed_from_u64(seed ^ n ^ 0xEB0C);
    let mut digest = Sha256::new();
    let mut source_cpu = 0u64;
    let mut merge_cpu = 0u64;
    let mut querier_cpu = 0u64;

    let wall_start = Instant::now();
    engine.run_epochs(
        0,
        epochs,
        |_, values| {
            for v in values.iter_mut() {
                *v = values_rng.random_range(0..5000);
            }
        },
        |report, final_psr, result, contributors| {
            source_cpu += report.source_cpu_ns;
            merge_cpu += report.merge_cpu_ns;
            querier_cpu += report.querier_cpu_ns;
            digest_epoch(&mut digest, final_psr, result, contributors);
        },
    );
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
    RunMeasurement {
        wall_ms,
        source_cpu_ms: source_cpu as f64 / 1e6,
        merge_cpu_ms: merge_cpu as f64 / 1e6,
        querier_cpu_ms: querier_cpu as f64 / 1e6,
        digest: hex(&digest.finalize()),
    }
}

/// Runs `epochs` clean epochs of a seeded `N`-source SIES deployment at
/// one thread count, digesting every result.
fn run_config(seed: u64, n: u64, threads: usize, epochs: u64) -> ThroughputPoint {
    let mut rng = StdRng::seed_from_u64(seed ^ n);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let topo = Topology::complete_tree(n, 4);
    let m = run_engine_measured(&dep, &topo, seed, n, threads, epochs);
    ThroughputPoint {
        n,
        threads,
        epochs,
        wall_ms: m.wall_ms,
        epochs_per_sec: epochs as f64 / (m.wall_ms / 1e3),
        source_cpu_ms: m.source_cpu_ms,
        aggregator_cpu_ms: m.merge_cpu_ms,
        querier_cpu_ms: m.querier_cpu_ms,
        speedup_vs_serial: 1.0, // patched by the suite
        result_digest: m.digest,
    }
}

/// Replays the smallest sweep population serially at each forced hash
/// lane width and asserts the result digests are byte-identical; returns
/// the `(width, digest)` pairs. The in-process counterpart of CI's
/// `SIES_LANES` matrix leg. Clears the width override before returning.
///
/// # Panics
/// Panics when any width's digest diverges from W = 1.
pub fn lane_width_sweep(seed: u64, epochs: u64) -> Vec<(usize, String)> {
    let digests: Vec<(usize, String)> = [1usize, 4, 8, 16]
        .iter()
        .map(|&w| {
            lanes::set_lane_width(w);
            (
                w,
                run_config(seed, THROUGHPUT_N[0], 1, epochs).result_digest,
            )
        })
        .collect();
    lanes::clear_lane_width();
    for (w, digest) in &digests[1..] {
        assert_eq!(
            digest, &digests[0].1,
            "lane-width oracle violated: W={w} diverged from the scalar engine"
        );
    }
    digests
}

/// Runs the throughput sweep: every `n` in [`THROUGHPUT_N`] at every
/// thread count in `thread_sweep` (deduplicated, serial first), each for
/// `epochs` epochs. Runs [`lane_width_sweep`] first.
///
/// Panics if any configuration's result digest differs from the serial
/// baseline's — the determinism oracle.
pub fn throughput_suite(seed: u64, epochs: u64, thread_sweep: &[usize]) -> Vec<ThroughputPoint> {
    lane_width_sweep(seed, epochs);
    let mut sweep: Vec<usize> = thread_sweep.iter().map(|&t| t.max(1)).collect();
    if !sweep.contains(&1) {
        sweep.insert(0, 1);
    }
    sweep.sort_unstable();
    sweep.dedup();

    let mut points = Vec::new();
    for &n in &THROUGHPUT_N {
        let mut serial: Option<ThroughputPoint> = None;
        for &threads in &sweep {
            let mut point = run_config(seed, n, threads, epochs);
            match &serial {
                None => {
                    assert_eq!(point.threads, 1, "serial baseline must run first");
                    serial = Some(point.clone());
                }
                Some(base) => {
                    assert_eq!(
                        point.result_digest, base.result_digest,
                        "determinism oracle violated: N={n}, {threads} threads diverged \
                         from the serial engine"
                    );
                    point.speedup_vs_serial = base.wall_ms / point.wall_ms;
                }
            }
            points.push(point);
        }
    }
    points
}

/// One configuration of the struct-of-arrays scale sweep, ready for the
/// `scale` section of `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    /// Source population size.
    pub n: u64,
    /// `"legacy"` ([`Engine::run_epoch`] one epoch at a time at one
    /// thread, the serial reference) or `"soa"` (one clean run,
    /// [`Engine::run_epochs`]). Both run the same walk over the same
    /// arena.
    pub layout: String,
    /// Worker threads.
    pub threads: usize,
    /// Epochs executed.
    pub epochs: u64,
    /// Wall-clock time for the whole run, ms.
    pub wall_ms: f64,
    /// Epochs completed per wall-clock second.
    pub epochs_per_sec: f64,
    /// Summed in-worker source-init CPU, ms.
    pub source_cpu_ms: f64,
    /// Summed merge (+ sink) CPU, ms.
    pub merge_cpu_ms: f64,
    /// Summed querier evaluation CPU, ms.
    pub querier_cpu_ms: f64,
    /// Heap bytes of the topology arena (SoA points; 0 for legacy).
    pub arena_bytes: u64,
    /// Heap bytes of the engine's reusable epoch state
    /// ([`Engine::state_bytes`]; SoA points; 0 for legacy).
    pub state_bytes: u64,
    /// `(arena_bytes + state_bytes) / nodes` — the machine-checked
    /// memory budget (SoA points; 0 for legacy).
    pub bytes_per_node: f64,
    /// Total tree nodes (sources + aggregators).
    pub nodes: u64,
    /// Same serial-equivalence digest as the thread sweep; equal across
    /// every row of the same `n` by assertion.
    pub result_digest: String,
}

/// Runs the struct-of-arrays scale sweep: for each population in `ns`,
/// one serial single-epoch reference plus one clean run at every thread
/// count in [`SCALE_THREADS`] — and asserts every configuration's
/// digest equals the reference's.
///
/// `epochs_for(n)` lets callers shrink the epoch count as `n` grows.
///
/// # Panics
/// Panics when any configuration's digest diverges from the serial
/// reference's.
pub fn scale_suite(seed: u64, ns: &[u64], epochs_for: impl Fn(u64) -> u64) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for &n in ns {
        let epochs = epochs_for(n).max(1);
        let mut rng = StdRng::seed_from_u64(seed ^ n);
        let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
        let topo = Topology::complete_tree(n, 4);
        let nodes = topo.num_nodes() as u64;

        let legacy = run_engine_measured(&dep, &topo, seed, n, 1, epochs);
        let reference = legacy.digest.clone();
        points.push(ScalePoint {
            n,
            layout: "legacy".into(),
            threads: 1,
            epochs,
            wall_ms: legacy.wall_ms,
            epochs_per_sec: epochs as f64 / (legacy.wall_ms / 1e3),
            source_cpu_ms: legacy.source_cpu_ms,
            merge_cpu_ms: legacy.merge_cpu_ms,
            querier_cpu_ms: legacy.querier_cpu_ms,
            arena_bytes: 0,
            state_bytes: 0,
            bytes_per_node: 0.0,
            nodes,
            result_digest: reference.clone(),
        });

        for &threads in &SCALE_THREADS {
            let mut engine = Engine::new(&dep, &topo).with_threads(Threads::fixed(threads));
            let m = run_clean_measured(&mut engine, seed, n, epochs);
            assert_eq!(
                m.digest, reference,
                "serial-equivalence oracle violated: N={n} threads={threads} \
                 diverged from the serial reference"
            );
            let arena_bytes = topo.bytes() as u64;
            let state_bytes = engine.state_bytes() as u64;
            points.push(ScalePoint {
                n,
                layout: "soa".into(),
                threads,
                epochs,
                wall_ms: m.wall_ms,
                epochs_per_sec: epochs as f64 / (m.wall_ms / 1e3),
                source_cpu_ms: m.source_cpu_ms,
                merge_cpu_ms: m.merge_cpu_ms,
                querier_cpu_ms: m.querier_cpu_ms,
                arena_bytes,
                state_bytes,
                bytes_per_node: (arena_bytes + state_bytes) as f64 / nodes as f64,
                nodes,
                result_digest: m.digest,
            });
        }
    }
    points
}

/// Thread counts the prewarm sweep digest-asserts with the pool off
/// and on (the acceptance matrix of the precompute-ahead layer).
pub const PREWARM_THREADS: [usize; 3] = [1, 2, 8];

/// One configuration of the prewarm on/off digest sweep, ready for the
/// `prewarm` section of `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PrewarmPoint {
    /// Worker threads.
    pub threads: usize,
    /// Whether the precompute-ahead key pool was enabled.
    pub prewarmed: bool,
    /// Epochs executed.
    pub epochs: u64,
    /// Wall-clock time for the whole run, ms.
    pub wall_ms: f64,
    /// Epochs completed per wall-clock second.
    pub epochs_per_sec: f64,
    /// Epoch key-material derivations the warmer ran ahead of time.
    pub derived: u64,
    /// Source-init batches that found their epoch already pooled.
    pub pool_hits: u64,
    /// Same serial-equivalence digest as the thread sweep; equal across
    /// every row by assertion.
    pub result_digest: String,
}

/// Runs the prewarm on/off digest sweep: the same seeded epoch sequence
/// as one clean run at every thread count in [`PREWARM_THREADS`], with
/// the precompute-ahead pool disabled and then enabled — and asserts
/// every configuration's digest equals the cold serial reference's. A
/// completed sweep is itself the proof that prewarmed epoch crypto
/// changes no result byte.
///
/// # Panics
/// Panics when any warm configuration's digest diverges from the cold
/// serial run, or when a warm run derived nothing ahead of time.
pub fn prewarm_suite(seed: u64, n: u64, epochs: u64) -> Vec<PrewarmPoint> {
    let topo = Topology::complete_tree(n, 4);
    let mut points = Vec::new();
    let mut reference: Option<String> = None;
    for &threads in &PREWARM_THREADS {
        for prewarmed in [false, true] {
            // Fresh deployment per configuration: identical seeding
            // keeps the digests comparable while guaranteeing each run
            // starts from an empty pool.
            let mut rng = StdRng::seed_from_u64(seed ^ n);
            let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
            if prewarmed {
                dep.set_prewarm_policy(PrewarmPolicy::default());
            }
            let mut engine = Engine::new(&dep, &topo).with_threads(Threads::fixed(threads));
            let m = run_clean_measured(&mut engine, seed, n, epochs);
            match &reference {
                None => reference = Some(m.digest.clone()),
                Some(r) => assert_eq!(
                    &m.digest, r,
                    "prewarm oracle violated: threads={threads} prewarmed={prewarmed} \
                     changed the results"
                ),
            }
            let stats = dep.prewarm_stats();
            if prewarmed {
                assert!(
                    stats.derived > 0,
                    "warm run derived nothing ahead of time (threads={threads})"
                );
            } else {
                assert_eq!(stats.derived, 0, "cold run must not touch the pool");
            }
            points.push(PrewarmPoint {
                threads,
                prewarmed,
                epochs,
                wall_ms: m.wall_ms,
                epochs_per_sec: epochs as f64 / (m.wall_ms / 1e3),
                derived: stats.derived,
                pool_hits: stats.hits,
                result_digest: m.digest,
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    // Engine runs record into the process-global event journal; every
    // such test holds the shared switch lock so the capture tests
    // (observability, forensics) see only their own events.
    use sies_telemetry::switch_lock;

    #[test]
    fn suite_digests_agree_across_thread_counts() {
        let _guard = switch_lock();
        // The suite panics internally if any digest diverges; this run is
        // the small-scale differential oracle. Keep it tiny — larger
        // sweeps run from `repro throughput`.
        let points = throughput_suite(42, 2, &[1, 2, 4]);
        assert_eq!(points.len(), THROUGHPUT_N.len() * 3);
        for chunk in points.chunks(3) {
            assert!(chunk
                .iter()
                .all(|p| p.result_digest == chunk[0].result_digest));
            assert!(chunk.iter().all(|p| p.epochs_per_sec > 0.0));
            assert_eq!(chunk[0].threads, 1);
            assert_eq!(chunk[0].speedup_vs_serial, 1.0);
        }
        // Distinct populations must produce distinct aggregates.
        assert_ne!(points[0].result_digest, points[3].result_digest);
    }

    #[test]
    fn lane_widths_do_not_change_results() {
        let _guard = switch_lock();
        let digests = lane_width_sweep(3, 2);
        assert_eq!(digests.len(), 4);
        assert_eq!(digests[3].0, 16, "the AVX-512 request is swept too");
        assert!(digests.iter().all(|(_, d)| d == &digests[0].1));
    }

    #[test]
    fn scale_suite_matches_legacy_at_small_n() {
        let _guard = switch_lock();
        // One small population exercises the full legacy-vs-SoA digest
        // assertion across thread counts; the internal assert_eq! is the
        // oracle, the shape checks are bookkeeping.
        let points = scale_suite(11, &[200], |_| 3);
        assert_eq!(points.len(), 1 + SCALE_THREADS.len());
        assert_eq!(points[0].layout, "legacy");
        for p in &points[1..] {
            assert_eq!(p.layout, "soa");
            assert_eq!(p.result_digest, points[0].result_digest);
            assert!(p.arena_bytes > 0 && p.state_bytes > 0);
            assert!(
                p.bytes_per_node > 0.0 && p.bytes_per_node < 4096.0,
                "implausible bytes/node {}",
                p.bytes_per_node
            );
        }
    }

    #[test]
    fn prewarm_suite_digests_agree_on_and_off() {
        let _guard = switch_lock();
        // The internal assert_eq! is the oracle; shape checks are
        // bookkeeping. Small n/epochs — the full matrix runs 6 configs.
        let points = prewarm_suite(17, 48, 3);
        assert_eq!(points.len(), PREWARM_THREADS.len() * 2);
        for p in &points {
            assert_eq!(p.result_digest, points[0].result_digest);
            if p.prewarmed {
                assert!(p.derived > 0, "warm runs must precompute");
            } else {
                assert_eq!(p.derived, 0);
                assert_eq!(p.pool_hits, 0);
            }
        }
    }

    #[test]
    fn run_config_is_seed_stable() {
        let _guard = switch_lock();
        let a = run_config(7, 100, 1, 2);
        let b = run_config(7, 100, 2, 2);
        assert_eq!(a.result_digest, b.result_digest);
        let c = run_config(8, 100, 1, 2);
        assert_ne!(a.result_digest, c.result_digest, "seed must matter");
    }
}
