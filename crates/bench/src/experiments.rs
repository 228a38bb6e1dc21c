//! Experiment runners regenerating every figure and table of paper §VI.
//!
//! Each function measures the per-party cost of the three schemes exactly
//! the way the paper does: SUM queries evaluated over `epochs` epochs with
//! values drawn from the Intel-Lab-like workload, reporting the average
//! cost per epoch. SECOA's data-dependent best/worst-case model bounds
//! accompany the measurements (the paper's error bars in Figure 4).

use crate::calibrate::PrimitiveCosts;
use crate::cost_model::{CostModel, ModelParams, Range};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use sies_baselines::cmt::CmtDeployment;
use sies_baselines::secoa::SecoaSum;
use sies_core::{SourceId, SystemParams};
use sies_crypto::rsa::RsaPublicKey;
use sies_net::engine::Engine;
use sies_net::scheme::AggregationScheme;
use sies_net::SiesDeployment;
use sies_net::Topology;
use sies_workload::intel_lab::{DomainScale, IntelLabGenerator};
use sies_workload::sweep;
use std::time::Instant;

/// One point of a figure: CPU cost (ms) per scheme, plus SECOA's
/// analytic min/max bounds at that parameterization.
#[derive(Debug, Clone, Serialize)]
pub struct SeriesPoint {
    /// The swept parameter's label (e.g. "x10^2" or "1024").
    pub x: String,
    /// SIES measured cost, ms.
    pub sies_ms: f64,
    /// CMT measured cost, ms.
    pub cmt_ms: f64,
    /// SECOA_S measured cost, ms.
    pub secoa_ms: f64,
    /// SECOA_S model best case, ms.
    pub secoa_model_min_ms: f64,
    /// SECOA_S model worst case, ms.
    pub secoa_model_max_ms: f64,
}

/// Shared experiment options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Epochs to average over (paper: 20).
    pub epochs: u64,
    /// Epoch cap for the expensive SECOA measurements.
    pub secoa_epochs: u64,
    /// SECOA sketch count `J`.
    pub j: usize,
    /// RSA modulus bits for SECOA (paper: 1024).
    pub rsa_bits: usize,
    /// Master seed: every deployment and workload RNG in the experiment
    /// suite derives from it, and it is recorded in every results JSON
    /// so a run can be replayed exactly.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            epochs: sweep::DEFAULT_EPOCHS,
            secoa_epochs: 3,
            j: sweep::DEFAULT_J,
            rsa_bits: 1024,
            seed: 42,
        }
    }
}

impl Options {
    /// A fast configuration for smoke tests: few epochs, few sketches,
    /// small RSA modulus.
    pub fn fast() -> Self {
        Options {
            epochs: 3,
            secoa_epochs: 1,
            j: 20,
            rsa_bits: 256,
            seed: 42,
        }
    }
}

fn model_for(costs: &PrimitiveCosts, n: u64, f: u64, scale: DomainScale, j: usize) -> CostModel {
    let (d_l, d_u) = scale.domain();
    CostModel {
        costs: *costs,
        sizes: crate::calibrate::WireSizes::PAPER,
        params: ModelParams {
            n,
            j: j as u64,
            f,
            d_l,
            d_u,
        },
    }
}

/// Generates one shared RSA key for all SECOA deployments in a run (key
/// generation is setup-time and not part of any measured phase).
pub fn shared_rsa(opts: &Options) -> RsaPublicKey {
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5EC0A);
    RsaPublicKey::generate(&mut rng, opts.rsa_bits)
}

/// Measures the mean per-epoch cost in ms of `op(epoch) `over `epochs`.
fn mean_ms_over_epochs<F: FnMut(u64)>(epochs: u64, mut op: F) -> f64 {
    let start = Instant::now();
    for t in 0..epochs {
        op(t);
    }
    start.elapsed().as_secs_f64() * 1e3 / epochs as f64
}

// ---------------------------------------------------------------------
// Figure 4: computational cost at the source vs. the domain
// ---------------------------------------------------------------------

/// Figure 4: source CPU vs domain scale, `N = 1024`, `F = 4`.
pub fn fig4_source_vs_domain(costs: &PrimitiveCosts, opts: &Options) -> Vec<SeriesPoint> {
    let n = sweep::DEFAULT_N;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 4);
    let sies = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let cmt = CmtDeployment::new(&mut rng, n);
    let rsa = shared_rsa(opts);
    let secoa = SecoaSum::with_rsa(&mut rng, n, opts.j, rsa);

    DomainScale::paper_range()
        .into_iter()
        .map(|scale| {
            let mut generator = IntelLabGenerator::new(opts.seed ^ 7, 1);
            let mut values: Vec<u64> = (0..opts.epochs.max(opts.secoa_epochs))
                .map(|t| generator.epoch_values(t, scale)[0])
                .collect();
            // Guard: all schemes handle the same values.
            values.iter_mut().for_each(|v| *v = (*v).max(1));

            // Warm-up pass: page in code and data before timing.
            std::hint::black_box(sies.source_init(0, 0, values[0]));
            std::hint::black_box(cmt.source_init(0, 0, values[0]));
            let sies_ms = mean_ms_over_epochs(opts.epochs, |t| {
                std::hint::black_box(sies.source_init(0, t, values[t as usize]));
            });
            let cmt_ms = mean_ms_over_epochs(opts.epochs, |t| {
                std::hint::black_box(cmt.source_init(0, t, values[t as usize]));
            });
            let secoa_ms = mean_ms_over_epochs(opts.secoa_epochs, |t| {
                std::hint::black_box(secoa.source_init(0, t, values[t as usize]));
            });
            let model = model_for(costs, n, sweep::DEFAULT_F as u64, scale, opts.j).secoa_source();
            SeriesPoint {
                x: format!("x10^{}", scale.power),
                sies_ms,
                cmt_ms,
                secoa_ms,
                secoa_model_min_ms: model.min / 1000.0,
                secoa_model_max_ms: model.max / 1000.0,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 5: computational cost at the aggregator vs. the fanout
// ---------------------------------------------------------------------

/// Figure 5: aggregator CPU vs fanout, `N = 1024`, `D = [1800, 5000]`.
pub fn fig5_aggregator_vs_fanout(costs: &PrimitiveCosts, opts: &Options) -> Vec<SeriesPoint> {
    let n = sweep::DEFAULT_N;
    let scale = DomainScale::DEFAULT;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 5);
    let sies = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let cmt = CmtDeployment::new(&mut rng, n);
    let rsa = shared_rsa(opts);
    let secoa = SecoaSum::with_rsa(&mut rng, n, opts.j, rsa);
    let mut generator =
        IntelLabGenerator::new(opts.seed ^ 8, sweep::F_RANGE[sweep::F_RANGE.len() - 1]);

    sweep::F_RANGE
        .into_iter()
        .map(|f| {
            // Pre-build the children PSRs per epoch (their construction is
            // source-side cost, excluded from the aggregator measurement).
            let epochs = opts.epochs.max(opts.secoa_epochs);
            let mut sies_children = Vec::new();
            let mut cmt_children = Vec::new();
            let mut secoa_children = Vec::new();
            let mut sample_rng = StdRng::seed_from_u64(opts.seed ^ 55);
            for t in 0..epochs {
                let values = generator.epoch_values(t, scale);
                let ids: Vec<SourceId> = (0..f as SourceId).collect();
                sies_children.push(
                    ids.iter()
                        .map(|&i| sies.source_init(i, t, values[i as usize]))
                        .collect::<Vec<_>>(),
                );
                cmt_children.push(
                    ids.iter()
                        .map(|&i| cmt.source_init(i, t, values[i as usize]))
                        .collect::<Vec<_>>(),
                );
                secoa_children.push(
                    ids.iter()
                        .map(|&i| {
                            secoa.source_init_sampled(&mut sample_rng, i, t, values[i as usize])
                        })
                        .collect::<Vec<_>>(),
                );
            }

            // Warm-up pass before timing.
            std::hint::black_box(sies.merge(&sies_children[0]));
            std::hint::black_box(cmt.merge(&cmt_children[0]));
            let sies_ms = mean_ms_over_epochs(opts.epochs, |t| {
                std::hint::black_box(sies.merge(&sies_children[t as usize]));
            });
            let cmt_ms = mean_ms_over_epochs(opts.epochs, |t| {
                std::hint::black_box(cmt.merge(&cmt_children[t as usize]));
            });
            let secoa_ms = mean_ms_over_epochs(opts.secoa_epochs, |t| {
                std::hint::black_box(secoa.merge(&secoa_children[t as usize]));
            });
            let model = model_for(costs, n, f as u64, scale, opts.j).secoa_aggregator();
            SeriesPoint {
                x: f.to_string(),
                sies_ms,
                cmt_ms,
                secoa_ms,
                secoa_model_min_ms: model.min / 1000.0,
                secoa_model_max_ms: model.max / 1000.0,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 6: computational cost at the querier
// ---------------------------------------------------------------------

fn querier_point(
    costs: &PrimitiveCosts,
    opts: &Options,
    rsa: &RsaPublicKey,
    n: u64,
    scale: DomainScale,
    label: String,
) -> SeriesPoint {
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 6 ^ n ^ (scale.power as u64) << 32);
    let sies = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let cmt = CmtDeployment::new(&mut rng, n);
    let secoa = SecoaSum::with_rsa(&mut rng, n, opts.j, rsa.clone());
    let contributors: Vec<SourceId> = (0..n as SourceId).collect();
    let mut generator = IntelLabGenerator::new(opts.seed ^ 17, n as usize);

    // Pre-build the final PSRs per epoch (network-side work, not querier).
    let epochs = opts.epochs.max(opts.secoa_epochs);
    let mut sies_finals = Vec::new();
    let mut cmt_finals = Vec::new();
    let mut secoa_finals = Vec::new();
    for t in 0..epochs {
        let values = generator.epoch_values(t, scale);
        let psrs: Vec<_> = contributors
            .iter()
            .map(|&i| sies.source_init(i, t, values[i as usize]))
            .collect();
        sies_finals.push(sies.merge(&psrs));
        let psrs: Vec<_> = contributors
            .iter()
            .map(|&i| cmt.source_init(i, t, values[i as usize]))
            .collect();
        cmt_finals.push(cmt.merge(&psrs));
        if t < opts.secoa_epochs {
            let total: u64 = values.iter().sum();
            let psr = secoa.synthesize_final_psr(&mut rng, t, total, &contributors);
            secoa_finals.push(secoa.sink_finalize(psr));
        }
    }

    // Warm-up pass before timing.
    sies.evaluate(&sies_finals[0], 0, &contributors).unwrap();
    cmt.evaluate(&cmt_finals[0], 0, &contributors).unwrap();
    let sies_ms = mean_ms_over_epochs(opts.epochs, |t| {
        sies.evaluate(&sies_finals[t as usize], t, &contributors)
            .unwrap();
    });
    let cmt_ms = mean_ms_over_epochs(opts.epochs, |t| {
        cmt.evaluate(&cmt_finals[t as usize], t, &contributors)
            .unwrap();
    });
    let secoa_ms = mean_ms_over_epochs(opts.secoa_epochs, |t| {
        secoa
            .evaluate(&secoa_finals[t as usize], t, &contributors)
            .unwrap();
    });
    let model = model_for(costs, n, sweep::DEFAULT_F as u64, scale, opts.j).secoa_querier();
    SeriesPoint {
        x: label,
        sies_ms,
        cmt_ms,
        secoa_ms,
        secoa_model_min_ms: model.min / 1000.0,
        secoa_model_max_ms: model.max / 1000.0,
    }
}

/// Figure 6(a): querier CPU vs `N`, `F = 4`, `D = [1800, 5000]`.
pub fn fig6a_querier_vs_n(costs: &PrimitiveCosts, opts: &Options) -> Vec<SeriesPoint> {
    let rsa = shared_rsa(opts);
    sweep::N_RANGE
        .into_iter()
        .map(|n| querier_point(costs, opts, &rsa, n, DomainScale::DEFAULT, n.to_string()))
        .collect()
}

/// Figure 6(b): querier CPU vs domain, `N = 1024`, `F = 4`.
pub fn fig6b_querier_vs_domain(costs: &PrimitiveCosts, opts: &Options) -> Vec<SeriesPoint> {
    let rsa = shared_rsa(opts);
    DomainScale::paper_range()
        .into_iter()
        .map(|scale| {
            querier_point(
                costs,
                opts,
                &rsa,
                sweep::DEFAULT_N,
                scale,
                format!("x10^{}", scale.power),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table V: communication cost per network edge
// ---------------------------------------------------------------------

/// One Table V row.
#[derive(Debug, Clone, Serialize)]
pub struct CommRow {
    /// Edge class ("S-A", "A-A", "A-Q").
    pub edge: String,
    /// CMT bytes per edge (measured).
    pub cmt: f64,
    /// SECOA bytes per edge (measured "actual").
    pub secoa_actual: f64,
    /// SECOA model minimum.
    pub secoa_min: f64,
    /// SECOA model maximum.
    pub secoa_max: f64,
    /// SIES bytes per edge (measured).
    pub sies: f64,
}

/// Table V: per-edge communication at the defaults
/// (`N = 1024, F = 4, D = [1800, 5000]`).
pub fn table5_communication(costs: &PrimitiveCosts, opts: &Options) -> Vec<CommRow> {
    let n = sweep::DEFAULT_N;
    let f = sweep::DEFAULT_F;
    let scale = DomainScale::DEFAULT;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x550);
    let topo = Topology::complete_tree(n, f);

    // SIES and CMT: one engine epoch suffices (sizes are constant).
    let sies = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let cmt = CmtDeployment::new(&mut rng, n);
    let mut generator = IntelLabGenerator::new(opts.seed ^ 23, n as usize);
    let values = generator.epoch_values(0, scale);
    let sies_bytes = {
        let mut engine = Engine::new(&sies, &topo);
        engine.run_epoch(0, &values).stats.bytes
    };
    let cmt_bytes = {
        let mut engine = Engine::new(&cmt, &topo);
        engine.run_epoch(0, &values).stats.bytes
    };

    // SECOA: source/interior sizes are deterministic; the A-Q size
    // depends on how many distinct chain positions survive the sink fold.
    let rsa = shared_rsa(opts);
    let secoa = SecoaSum::with_rsa(&mut rng, n, opts.j, rsa);
    let contributors: Vec<SourceId> = (0..n as SourceId).collect();
    let source_psr = secoa.source_init_sampled(&mut rng, 0, 0, values[0]);
    let sa_bytes = secoa.psr_wire_size(&source_psr) as f64;
    let total: u64 = values.iter().sum();
    let final_psr = secoa.synthesize_final_psr(&mut rng, 0, total, &contributors);
    let folded = secoa.sink_finalize(final_psr);
    let aq_bytes = secoa.psr_wire_size(&folded) as f64;

    let model = model_for(costs, n, f as u64, scale, opts.j);
    let aq_model = model.secoa_comm_aq();
    vec![
        CommRow {
            edge: "S-A".into(),
            cmt: cmt_bytes.per_sa_edge(),
            secoa_actual: sa_bytes,
            secoa_min: model.secoa_comm_sa(),
            secoa_max: model.secoa_comm_sa(),
            sies: sies_bytes.per_sa_edge(),
        },
        CommRow {
            edge: "A-A".into(),
            cmt: cmt_bytes.per_aa_edge(),
            secoa_actual: sa_bytes,
            secoa_min: model.secoa_comm_sa(),
            secoa_max: model.secoa_comm_sa(),
            sies: sies_bytes.per_aa_edge(),
        },
        CommRow {
            edge: "A-Q".into(),
            cmt: cmt_bytes.agg_to_querier as f64,
            secoa_actual: aq_bytes,
            secoa_min: aq_model.min,
            secoa_max: aq_model.max,
            sies: sies_bytes.agg_to_querier as f64,
        },
    ]
}

// ---------------------------------------------------------------------
// Network lifetime (the paper's §I motivation, quantified)
// ---------------------------------------------------------------------

/// One row of the lifetime comparison.
#[derive(Debug, Clone, Serialize)]
pub struct LifetimeRow {
    /// Scheme name.
    pub scheme: String,
    /// Bytes a leaf transmits per epoch.
    pub leaf_bytes: usize,
    /// Radio energy drained per epoch by the hottest node (a first-level
    /// aggregator: receives `F` children, transmits one merged PSR), in
    /// joules.
    pub hottest_drain_j: f64,
    /// Epochs until the hottest node empties a 2 J battery.
    pub lifetime_epochs: f64,
}

/// Quantifies the paper's introduction argument: per-edge bytes decide
/// how fast the nodes nearest the sink die. Uses the default radio model
/// and a 2 J battery budget.
pub fn lifetime_table(opts: &Options) -> Vec<LifetimeRow> {
    use sies_baselines::plain::PLAIN_PSR_BYTES;
    use sies_net::RadioModel;

    let f = sweep::DEFAULT_F;
    let radio = RadioModel::default();
    let battery = 2.0;

    // SECOA's per-edge bytes from a real sampled source PSR.
    let secoa_bytes = {
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 9);
        let rsa = shared_rsa(opts);
        let secoa = SecoaSum::with_rsa(&mut rng, 4, opts.j, rsa);
        let psr = secoa.source_init_sampled(&mut rng, 0, 0, 3400);
        secoa.psr_wire_size(&psr)
    };

    [
        ("TAG", PLAIN_PSR_BYTES),
        ("CMT", 20),
        ("SIES", 32),
        ("SECOAS", secoa_bytes),
    ]
    .into_iter()
    .map(|(scheme, bytes)| {
        let drain = radio.rx_energy(bytes * f) + radio.tx_energy(bytes);
        LifetimeRow {
            scheme: scheme.into(),
            leaf_bytes: bytes,
            hottest_drain_j: drain,
            lifetime_epochs: battery / drain,
        }
    })
    .collect()
}

/// SECOA's analytic bounds exposed for reports.
pub fn secoa_bounds(
    costs: &PrimitiveCosts,
    n: u64,
    f: u64,
    scale: DomainScale,
    j: usize,
) -> (Range, Range, Range) {
    let m = model_for(costs, n, f, scale, j);
    (m.secoa_source(), m.secoa_aggregator(), m.secoa_querier())
}

// ---------------------------------------------------------------------
// Reliability: the chaos harness, measured
// ---------------------------------------------------------------------

/// One chaos scenario's outcome, ready for `BENCH_reliability.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ReliabilityPoint {
    /// Scenario label.
    pub scenario: String,
    /// Seed this scenario ran with (replay: same seed ⇒ same numbers).
    pub seed: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Per-frame loss probability.
    pub loss_rate: f64,
    /// Per-epoch crash probability.
    pub crash_prob: f64,
    /// Per-epoch covert-attack probability.
    pub attack_prob: f64,
    /// Fraction of epochs returning a verified sum.
    pub availability: f64,
    /// Fraction of actually-corrupted epochs the scheme rejected.
    pub detection_rate: f64,
    /// (data + retransmit + control) / data bytes.
    pub overhead_factor: f64,
    /// Corrupted aggregates accepted — must be 0.
    pub false_accepts: u64,
    /// Clean epochs rejected — must be 0.
    pub false_rejects: u64,
    /// Accepted sums differing from ground truth — must be 0.
    pub sum_mismatches: u64,
    /// Epochs a covert attack actually corrupted.
    pub corrupted_epochs: u64,
    /// Corrupted epochs rejected by SIES verification.
    pub detected_corruptions: u64,
    /// Epochs lost to availability.
    pub unavailable_epochs: u64,
    /// Orphans re-homed by topology repair.
    pub adoptions: u64,
    /// Uplinks delivered under the recovery protocol.
    pub delivered_links: u64,
    /// Uplinks lost after every re-solicitation round.
    pub lost_links: u64,
    /// Uplinks saved by a re-solicited phase.
    pub recovered_by_resolicit: u64,
    /// First-copy data bytes.
    pub data_bytes: u64,
    /// Retransmitted data bytes.
    pub retransmit_bytes: u64,
    /// ACK/NACK/re-solicit/re-attach/failure-report bytes.
    pub control_bytes: u64,
}

/// The fault mixes the reliability experiment sweeps.
pub const RELIABILITY_SCENARIOS: [(&str, f64, f64, f64); 5] = [
    ("calm", 0.0, 0.0, 0.0),
    ("lossy", 0.15, 0.0, 0.0),
    ("churn", 0.10, 0.30, 0.0),
    ("adversarial", 0.10, 0.20, 0.30),
    ("extreme", 0.30, 0.30, 0.30),
];

/// Runs the seeded chaos harness on a SIES deployment (`N = 64, F = 4`)
/// across the scenario sweep, splitting `total_epochs` evenly. Panics if
/// any scenario produces a false accept, false reject, or wrong accepted
/// sum — the experiment doubles as the paper-level soundness check.
pub fn reliability(seed: u64, total_epochs: u64) -> Vec<ReliabilityPoint> {
    reliability_threaded(seed, total_epochs, sies_net::Threads::serial())
}

/// [`reliability`] with an explicit worker-pool size for the sharded
/// epoch walk. The chaos metrics are thread-count invariant (asserted
/// by `sies-net`'s own tests), so the soundness check is unchanged.
pub fn reliability_threaded(
    seed: u64,
    total_epochs: u64,
    threads: sies_net::Threads,
) -> Vec<ReliabilityPoint> {
    use sies_net::chaos::{run_chaos, ChaosConfig};

    let n = 64u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let topo = Topology::complete_tree(n, 4);
    let per_scenario = (total_epochs / RELIABILITY_SCENARIOS.len() as u64).max(1);

    RELIABILITY_SCENARIOS
        .iter()
        .enumerate()
        .map(|(i, &(name, loss_rate, crash_prob, attack_prob))| {
            let cfg = ChaosConfig {
                seed: seed.wrapping_add(i as u64),
                epochs: per_scenario,
                loss_rate,
                crash_prob,
                attack_prob,
                threads,
                ..ChaosConfig::default()
            };
            let m = run_chaos(&dep, &topo, &cfg);
            assert!(
                m.sound(),
                "scenario '{name}' unsound: {} false accepts, {} false rejects, {} mismatches",
                m.false_accepts,
                m.false_rejects,
                m.sum_mismatches
            );
            ReliabilityPoint {
                scenario: name.into(),
                seed: cfg.seed,
                epochs: m.epochs,
                loss_rate,
                crash_prob,
                attack_prob,
                availability: m.availability(),
                detection_rate: m.detection_rate(),
                overhead_factor: m.overhead_factor(),
                false_accepts: m.false_accepts,
                false_rejects: m.false_rejects,
                sum_mismatches: m.sum_mismatches,
                corrupted_epochs: m.corrupted_epochs,
                detected_corruptions: m.detected_corruptions,
                unavailable_epochs: m.unavailable_epochs,
                adoptions: m.adoptions,
                delivered_links: m.delivered_links,
                lost_links: m.lost_links,
                recovered_by_resolicit: m.recovered_by_resolicit,
                data_bytes: m.data_bytes,
                retransmit_bytes: m.retransmit_bytes,
                control_bytes: m.control_bytes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    // Engine runs record into the process-global event journal; every
    // such test holds the shared switch lock so the capture tests
    // (observability, profile, forensics) see only their own events.
    use sies_telemetry::switch_lock;

    /// End-to-end smoke test of every experiment at tiny scale. The full
    /// parameterization runs from the `repro` binary.
    #[test]
    fn experiments_run_at_fast_settings() {
        let _guard = switch_lock();
        let opts = Options::fast();
        let costs = PrimitiveCosts::PAPER;

        let fig4 = fig4_source_vs_domain(&costs, &opts);
        assert_eq!(fig4.len(), 5);
        for p in &fig4 {
            assert!(p.sies_ms >= 0.0 && p.cmt_ms >= 0.0 && p.secoa_ms > 0.0);
            // The headline shape: SECOA well above SIES everywhere.
            assert!(
                p.secoa_ms > p.sies_ms,
                "at {}: secoa {} vs sies {}",
                p.x,
                p.secoa_ms,
                p.sies_ms
            );
        }
        // SECOA source cost grows with the domain.
        assert!(fig4[4].secoa_ms > fig4[0].secoa_ms * 10.0);

        let fig5 = fig5_aggregator_vs_fanout(&costs, &opts);
        assert_eq!(fig5.len(), 5);
        for p in &fig5 {
            assert!(p.secoa_ms > p.sies_ms);
        }

        let t5 = table5_communication(&costs, &opts);
        assert_eq!(t5.len(), 3);
        for row in &t5 {
            assert_eq!(row.sies, 32.0);
            assert_eq!(row.cmt, 20.0);
            assert!(
                row.secoa_actual > row.sies,
                "SECOA must be heavier on {}",
                row.edge
            );
        }
        // A-Q folded message is smaller than the S-A message.
        assert!(t5[2].secoa_actual < t5[0].secoa_actual);
    }

    #[test]
    fn lifetime_table_orders_schemes_by_bytes() {
        let _guard = switch_lock();
        let rows = lifetime_table(&Options::fast());
        assert_eq!(rows.len(), 4);
        // TAG < CMT < SIES << SECOA in drain; reversed in lifetime.
        assert!(rows[0].hottest_drain_j < rows[1].hottest_drain_j);
        assert!(rows[1].hottest_drain_j < rows[2].hottest_drain_j);
        assert!(rows[2].hottest_drain_j * 10.0 < rows[3].hottest_drain_j);
        assert!(
            rows[2].lifetime_epochs > 1000.0,
            "SIES lifetime should be long"
        );
        assert!(rows[3].lifetime_epochs < rows[2].lifetime_epochs / 10.0);
    }

    #[test]
    fn reliability_scenarios_are_sound_at_small_scale() {
        let _guard = switch_lock();
        // `reliability` asserts soundness internally; 100 epochs across
        // the five scenarios keeps the test quick. The full ≥2000-epoch
        // run happens in `repro reliability`.
        let points = reliability(7, 100);
        assert_eq!(points.len(), RELIABILITY_SCENARIOS.len());
        for p in &points {
            assert_eq!(p.false_accepts, 0);
            assert_eq!(p.false_rejects, 0);
            assert_eq!(p.sum_mismatches, 0);
            assert!(p.availability > 0.0);
        }
        let calm = &points[0];
        assert_eq!(calm.availability, 1.0);
        assert_eq!(calm.overhead_factor, calm.overhead_factor); // not NaN
        let adversarial = &points[3];
        assert!(adversarial.corrupted_epochs > 0, "attack mix never landed");
        assert_eq!(
            adversarial.detected_corruptions,
            adversarial.corrupted_epochs
        );
        // Recovery traffic exists whenever the radio is lossy.
        assert!(points[1].retransmit_bytes > 0);
        assert!(points[1].overhead_factor > 1.0);
    }

    #[test]
    fn querier_experiment_shapes() {
        let _guard = switch_lock();
        // The batched PRFs cost ~0.3 µs per contributor beside a fixed
        // ~50 µs per epoch, so the two sizes are far apart (64 and the
        // paper's 1024) and each point averages eight epochs: one
        // descheduling on a shared host must not reorder them.
        let mut opts = Options::fast();
        opts.epochs = 8;
        let costs = PrimitiveCosts::PAPER;
        let rsa = shared_rsa(&opts);
        let small = querier_point(&costs, &opts, &rsa, 64, DomainScale::DEFAULT, "64".into());
        let large = querier_point(
            &costs,
            &opts,
            &rsa,
            1024,
            DomainScale::DEFAULT,
            "1024".into(),
        );
        // Querier cost grows with N for every scheme.
        assert!(large.sies_ms > small.sies_ms);
        assert!(large.cmt_ms > small.cmt_ms);
        assert!(large.secoa_ms > small.secoa_ms);
        // SECOA stays the most expensive.
        assert!(large.secoa_ms > large.sies_ms);
    }
}
