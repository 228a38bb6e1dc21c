//! Seeded chaos harness: thousands of epochs mixing honest loss, node
//! churn, and covert attacks, with exact classification of every
//! outcome.
//!
//! The harness drives [`crate::engine::Engine::run_epoch_recovering`]
//! and classifies each epoch against the engine's ground truth
//! (`aggregate_corrupted`):
//!
//! | result                    | corrupted | classification        |
//! |---------------------------|-----------|-----------------------|
//! | `Ok`                      | yes       | **false accept**      |
//! | `Ok`, wrong verified sum  | no        | **sum mismatch**      |
//! | `Ok`, correct sum         | no        | clean epoch           |
//! | `Err(VerificationFailed)` | yes       | detection (correct)   |
//! | `Err(VerificationFailed)` | no        | **false reject**      |
//! | `Err(Malformed)`          | any       | availability loss     |
//!
//! For a verifying scheme (SIES, SECOA) the bold rows must be zero over
//! any seed — that is what the reliability experiment and the
//! integration property tests assert. For the plain baseline, false
//! accepts are the *expected* outcome of attacks; the harness reports,
//! the caller decides what to assert.
//!
//! Every run is a pure function of [`ChaosConfig`] (including the seed):
//! crash sets, attack choices and readings come from one `StdRng`, and
//! each epoch's per-frame loss from per-uplink streams keyed by one draw
//! from it ([`crate::recovery::uplink_stream`]), so a failing seed replays
//! exactly at every thread count.
//!
//! Each epoch's outcome is captured as a signed-journal
//! [`EpochReceipt`]; metrics ([`absorb`]) and the result digest
//! ([`fold_receipt`]) are both derived from the receipt alone. That is
//! what makes [`run_chaos_with_restarts`] honest: when a seeded kill
//! point tears down the querier mid-run, the restarted querier rebuilds
//! its counters and digest by replaying the journal — and lands, by
//! construction, on exactly the state the uninterrupted run had.

use crate::engine::{Attack, Engine};
use crate::journal::{fold_receipt, JournalConfig, ReceiptJournal};
use crate::radio::LossyRadio;
use crate::recovery::RecoveryConfig;
use crate::scheme::AggregationScheme;
use crate::topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sies_core::Threads;
use sies_crypto::sha256::Sha256;
use sies_crypto::HashFunction;
use sies_receipts::{EpochReceipt, ReceiptError, Verdict};
use sies_telemetry as tel;
use sies_telemetry::EventKind;
use std::collections::HashSet;
use std::path::PathBuf;

/// Fault-injection mix for one chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the RNG that drives readings, crashes, attacks, and
    /// (through one draw per epoch) frame loss. Same seed + same config
    /// ⇒ identical run.
    pub seed: u64,
    /// Epochs to execute.
    pub epochs: u64,
    /// Per-frame loss probability for the lossy radio.
    pub loss_rate: f64,
    /// Link-layer retransmission budget per phase.
    pub max_retries: u32,
    /// Per-epoch probability that some non-root node crashes for the
    /// epoch (a crashed aggregator's live children re-attach to a
    /// backup parent; a crashed source just sits the epoch out).
    pub crash_prob: f64,
    /// Per-epoch probability that a covert attack is injected.
    pub attack_prob: f64,
    /// Largest sensor reading generated (inclusive).
    pub max_value: u64,
    /// Recovery-protocol policy.
    pub recovery: RecoveryConfig,
    /// Worker pool for the sharded epoch walk. Metrics are identical
    /// for every setting (the engine's determinism guarantee); only
    /// wall-clock time changes.
    pub threads: Threads,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            epochs: 1000,
            loss_rate: 0.1,
            max_retries: 3,
            crash_prob: 0.2,
            attack_prob: 0.2,
            max_value: 1000,
            recovery: RecoveryConfig::default(),
            threads: Threads::serial(),
        }
    }
}

/// Aggregate outcome of a chaos run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosMetrics {
    /// Seed the run used (recorded so results are replayable).
    pub seed: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Epochs that returned a verified (or unverified-by-design) sum.
    pub ok_epochs: u64,
    /// Epochs lost to availability (no PSR reached the querier).
    pub unavailable_epochs: u64,
    /// Epochs whose aggregate a covert attack actually corrupted.
    pub corrupted_epochs: u64,
    /// Corrupted epochs the scheme rejected — the detection count.
    pub detected_corruptions: u64,
    /// Corrupted epochs the scheme *accepted*: must be zero for SIES.
    pub false_accepts: u64,
    /// Clean epochs the scheme rejected: must be zero for every scheme.
    pub false_rejects: u64,
    /// Accepted epochs whose sum differed from the ground-truth sum over
    /// the reported contributors: must be zero for exact schemes.
    pub sum_mismatches: u64,
    /// Epochs in which at least one node crashed.
    pub crash_epochs: u64,
    /// Epochs in which a covert attack was injected (it may still have
    /// missed, e.g. its target subtree was honestly lost first).
    pub attack_epochs: u64,
    /// Orphans re-homed to backup parents across the run.
    pub adoptions: u64,
    /// Uplink transfers delivered under the recovery protocol.
    pub delivered_links: u64,
    /// Uplink transfers lost after all re-solicitation rounds.
    pub lost_links: u64,
    /// Transfers that only succeeded in a re-solicited phase.
    pub recovered_by_resolicit: u64,
    /// Re-solicitation rounds run.
    pub resolicitations: u64,
    /// Sources excluded by a fallible `source_init`.
    pub init_failures: u64,
    /// Subtrees excluded by a fallible `merge`.
    pub merge_failures: u64,
    /// First-copy data bytes (Table V classes).
    pub data_bytes: u64,
    /// Bytes spent on retransmitted data frames.
    pub retransmit_bytes: u64,
    /// Bytes spent on ACK/NACK/re-solicit/re-attach/failure reports.
    pub control_bytes: u64,
    /// Modeled backoff delay the recovery protocol accumulated across
    /// all uplinks (milliseconds, jitter included).
    pub backoff_ms: u64,
    /// Hex SHA-256 over every epoch's verdict, sum bits, corruption
    /// flag, and contributor set — the run's result fingerprint. Byte
    /// identical across thread counts and telemetry on/off (it hashes
    /// only engine outputs), so harnesses can assert determinism with
    /// one string compare.
    pub result_digest: String,
}

impl ChaosMetrics {
    /// Fraction of epochs that produced an accepted sum.
    pub fn availability(&self) -> f64 {
        if self.epochs == 0 {
            1.0
        } else {
            self.ok_epochs as f64 / self.epochs as f64
        }
    }

    /// Fraction of actually-corrupted epochs the scheme rejected.
    pub fn detection_rate(&self) -> f64 {
        if self.corrupted_epochs == 0 {
            1.0
        } else {
            self.detected_corruptions as f64 / self.corrupted_epochs as f64
        }
    }

    /// (data + retransmit + control) / data — the bandwidth price of
    /// reliability.
    pub fn overhead_factor(&self) -> f64 {
        if self.data_bytes == 0 {
            1.0
        } else {
            (self.data_bytes + self.retransmit_bytes + self.control_bytes) as f64
                / self.data_bytes as f64
        }
    }

    /// True when no corrupted aggregate was accepted and no clean epoch
    /// was rejected — the property the reliability experiment asserts.
    pub fn sound(&self) -> bool {
        self.false_accepts == 0 && self.false_rejects == 0 && self.sum_mismatches == 0
    }
}

/// Folds one epoch receipt into the run metrics: the classification
/// table from the module docs, applied to the receipt's verdict and
/// ground-truth flags, plus every recovery-protocol counter. Replaying a
/// journal through this function rebuilds exactly the counters the live
/// run accumulated — [`crate::engine::RecoveredEpoch::receipt`] puts
/// everything the table needs into the receipt for precisely this
/// reason.
pub fn absorb(m: &mut ChaosMetrics, r: &EpochReceipt) {
    m.crash_epochs += r.crash_injected as u64;
    m.attack_epochs += r.attack_injected as u64;
    m.corrupted_epochs += r.corrupted as u64;
    match r.verdict {
        Verdict::Accepted => {
            m.ok_epochs += 1;
            if r.corrupted {
                m.false_accepts += 1;
            } else if r.sum_mismatch {
                m.sum_mismatches += 1;
            }
        }
        Verdict::Rejected => {
            if r.corrupted {
                m.detected_corruptions += 1;
            } else {
                m.false_rejects += 1;
            }
        }
        Verdict::Lost => m.unavailable_epochs += 1,
    }
    m.adoptions += r.adoptions;
    m.delivered_links += r.delivered_links;
    m.lost_links += r.lost_links;
    m.recovered_by_resolicit += r.recovered_by_resolicit;
    m.resolicitations += r.resolicitations;
    m.init_failures += r.init_failures;
    m.merge_failures += r.merge_failures;
    m.data_bytes += r.data_bytes;
    m.retransmit_bytes += r.retransmit_bytes;
    m.control_bytes += r.control_bytes;
    m.backoff_ms += r.backoff_ms;
}

/// The network half of a chaos run — everything that *survives* a
/// querier crash: the engine (network + scheme state), the seeded fault
/// stream, and the lossy radio. One [`ChaosDriver::step`] runs one epoch
/// and returns its receipt; metrics, digests, and the journal are all
/// derived from that receipt, never from the driver directly.
struct ChaosDriver<'a, S: AggregationScheme> {
    engine: Engine<'a, S>,
    rng: StdRng,
    radio: LossyRadio,
    candidates: Vec<NodeId>,
    num_sources: usize,
    cfg: ChaosConfig,
}

impl<'a, S: AggregationScheme> ChaosDriver<'a, S> {
    fn new(scheme: &'a S, topology: &'a Topology, cfg: &ChaosConfig) -> Self {
        // Non-root nodes are fair game for crashes and attacks; the sink
        // staying up keeps availability attributable to the protocol
        // under test (sink crash is covered by unit tests). Drawn from
        // the engine's struct-of-arrays arena (dense ids, same numbering
        // as the legacy node list).
        let engine = Engine::new(scheme, topology).with_threads(cfg.threads);
        let root = engine.flat().root();
        let candidates: Vec<NodeId> = (0..engine.flat().num_nodes())
            .filter(|&id| id != root)
            .collect();
        ChaosDriver {
            engine,
            rng: StdRng::seed_from_u64(cfg.seed),
            radio: LossyRadio::new(cfg.loss_rate, cfg.max_retries),
            candidates,
            num_sources: topology.num_sources() as usize,
            cfg: *cfg,
        }
    }

    fn step(&mut self, epoch: u64) -> EpochReceipt {
        let _step_span = tel::span!("chaos.step");
        let values: Vec<u64> = (0..self.num_sources)
            .map(|_| self.rng.random_range(0..=self.cfg.max_value))
            .collect();

        let mut crashed: HashSet<NodeId> = HashSet::new();
        if self.rng.random_range(0.0..1.0) < self.cfg.crash_prob {
            // 1–3 simultaneous crashes stress multi-orphan repair.
            let n = self.rng.random_range(1..=3usize);
            for _ in 0..n {
                crashed.insert(self.candidates[self.rng.random_range(0..self.candidates.len())]);
            }
            tel::count!("chaos.crashes_injected", crashed.len() as u64);
            tel::event(epoch, EventKind::CrashInjected, crashed.len() as u64, 0);
        }

        let mut attacks: Vec<Attack> = Vec::new();
        if self.rng.random_range(0.0..1.0) < self.cfg.attack_prob {
            let live: Vec<NodeId> = self
                .candidates
                .iter()
                .copied()
                .filter(|id| !crashed.contains(id))
                .collect();
            let attack = match self.rng.random_range(0..4u32) {
                0 => Attack::TamperAtNode(live[self.rng.random_range(0..live.len())]),
                1 => Attack::DropAtNode(live[self.rng.random_range(0..live.len())]),
                2 => Attack::DuplicateAtNode(live[self.rng.random_range(0..live.len())]),
                _ => Attack::ReplayFinal,
            };
            let (kind, target) = match attack {
                Attack::TamperAtNode(n) => (0u64, n as u64),
                Attack::DropAtNode(n) => (1, n as u64),
                Attack::DuplicateAtNode(n) => (2, n as u64),
                Attack::ReplayFinal => (3, 0),
            };
            tel::count!("chaos.attacks_injected");
            tel::event(epoch, EventKind::AttackInjected, kind, target);
            attacks.push(attack);
        }

        let run = self.engine.run_epoch_recovering(
            epoch,
            &values,
            &crashed,
            &attacks,
            &self.radio,
            &self.cfg.recovery,
            &mut self.rng,
        );
        run.receipt(epoch, &values, !crashed.is_empty(), !attacks.is_empty())
    }
}

fn hex_digest(digest: Sha256) -> String {
    digest
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Runs `cfg.epochs` fault-injected epochs of `scheme` over `topology`
/// and classifies every outcome. Panics only if the engine itself
/// panics — which the run is designed to prove it never does.
pub fn run_chaos<S: AggregationScheme>(
    scheme: &S,
    topology: &Topology,
    cfg: &ChaosConfig,
) -> ChaosMetrics {
    let mut driver = ChaosDriver::new(scheme, topology, cfg);
    let mut m = ChaosMetrics {
        seed: cfg.seed,
        ..ChaosMetrics::default()
    };
    let mut digest = Sha256::new();
    for epoch in 0..cfg.epochs {
        let receipt = driver.step(epoch);
        fold_receipt(&mut digest, &receipt);
        absorb(&mut m, &receipt);
    }
    m.epochs = cfg.epochs;
    m.result_digest = hex_digest(digest);
    m
}

/// Kill-restart schedule for [`run_chaos_with_restarts`].
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// Journal file backing the querier's durable state.
    pub journal_path: PathBuf,
    /// Journal session config (HMAC key, μTesla seed, fsync policy).
    pub journal: JournalConfig,
    /// Epochs at whose *start* the querier is killed — its journal
    /// handle, metric counters, running digest, and μTesla receiver all
    /// dropped — and restarted from the journal alone.
    pub kill_epochs: Vec<u64>,
}

impl RestartConfig {
    /// Draws `kills` distinct kill epochs in `1..epochs` from a
    /// dedicated RNG. The seed is deliberately separate from
    /// [`ChaosConfig::seed`]: the fault stream of a restarted run must
    /// stay byte-identical to the uninterrupted run it is compared
    /// against.
    pub fn seeded_kills(seed: u64, epochs: u64, kills: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < kills.min(epochs.saturating_sub(1) as usize) {
            set.insert(rng.random_range(1..epochs));
        }
        set.into_iter().collect()
    }
}

/// Outcome of a kill-restart chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartOutcome {
    /// The run metrics — byte-identical (including `result_digest`) to
    /// the same config's uninterrupted [`run_chaos`], or the recovery
    /// path is broken.
    pub metrics: ChaosMetrics,
    /// Querier kill-restart cycles executed.
    pub restarts: u64,
    /// Receipts replayed from the journal across all restarts.
    pub replayed_receipts: u64,
    /// Restarts that found (and tolerated) a torn final record.
    pub torn_tails: u64,
}

/// [`run_chaos`] with seeded querier kill-restart events: every receipt
/// is journaled as the run goes, and at each kill epoch the querier's
/// volatile state is torn down and rebuilt *only* from the journal
/// ([`ReceiptJournal::resume`] → [`absorb`] + the replayed digest). The
/// network keeps running across kills — exactly the SIES deployment
/// story, where the querier is the restartable component and the sensor
/// network is not.
pub fn run_chaos_with_restarts<S: AggregationScheme>(
    scheme: &S,
    topology: &Topology,
    cfg: &ChaosConfig,
    rcfg: &RestartConfig,
) -> Result<RestartOutcome, ReceiptError> {
    let mut driver = ChaosDriver::new(scheme, topology, cfg);
    let kill_set: HashSet<u64> = rcfg.kill_epochs.iter().copied().collect();
    let mut journal = Some(ReceiptJournal::create(&rcfg.journal_path, &rcfg.journal)?);
    let mut m = ChaosMetrics {
        seed: cfg.seed,
        ..ChaosMetrics::default()
    };
    let mut digest = Sha256::new();
    let mut restarts = 0u64;
    let mut replayed_receipts = 0u64;
    let mut torn_tails = 0u64;

    for epoch in 0..cfg.epochs {
        if kill_set.contains(&epoch) {
            // The querier dies at the epoch boundary: journal handle
            // (without a final sync), counters, and digest are all lost.
            // Only the file and the session secrets survive.
            drop(journal.take());
            let (j, state) = ReceiptJournal::resume(&rcfg.journal_path, &rcfg.journal)?;
            m = ChaosMetrics {
                seed: cfg.seed,
                ..ChaosMetrics::default()
            };
            for r in &state.summary.receipts {
                absorb(&mut m, r);
            }
            digest = state.digest.clone();
            replayed_receipts += state.summary.receipts.len() as u64;
            torn_tails += state.summary.torn_tail.is_some() as u64;
            restarts += 1;
            journal = Some(j);
            tel::count!("chaos.restarts");
        }

        let mut receipt = driver.step(epoch);
        if let Some(j) = journal.as_mut() {
            j.record(&mut receipt);
        }
        fold_receipt(&mut digest, &receipt);
        absorb(&mut m, &receipt);
    }
    m.epochs = cfg.epochs;
    m.result_digest = hex_digest(digest);
    if let Some(mut j) = journal.take() {
        j.finish().map_err(ReceiptError::from)?;
    }
    Ok(RestartOutcome {
        metrics: m,
        restarts,
        replayed_receipts,
        torn_tails,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::SiesDeployment;
    use sies_core::SystemParams;

    fn sies(n: u64) -> SiesDeployment {
        let mut rng = StdRng::seed_from_u64(7);
        SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap())
    }

    #[test]
    fn sies_chaos_run_is_sound() {
        let dep = sies(16);
        let topo = Topology::complete_tree(16, 4);
        let cfg = ChaosConfig {
            seed: 42,
            epochs: 300,
            ..ChaosConfig::default()
        };
        let m = run_chaos(&dep, &topo, &cfg);
        assert_eq!(m.epochs, 300);
        assert!(
            m.sound(),
            "false_accepts={} false_rejects={} mismatches={}",
            m.false_accepts,
            m.false_rejects,
            m.sum_mismatches
        );
        assert!(
            m.corrupted_epochs > 0,
            "chaos mix never corrupted an aggregate"
        );
        assert_eq!(m.detected_corruptions, m.corrupted_epochs);
        assert!(m.ok_epochs > 0);
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let dep = sies(8);
        let topo = Topology::complete_tree(8, 2);
        let cfg = ChaosConfig {
            seed: 9,
            epochs: 60,
            ..ChaosConfig::default()
        };
        let a = run_chaos(&dep, &topo, &cfg);
        let b = run_chaos(&dep, &topo, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_metrics_are_thread_count_invariant() {
        let dep = sies(16);
        let topo = Topology::complete_tree(16, 4);
        let base_cfg = ChaosConfig {
            seed: 77,
            epochs: 50,
            ..ChaosConfig::default()
        };
        let base = run_chaos(&dep, &topo, &base_cfg);
        for threads in [2usize, 4, 8] {
            let cfg = ChaosConfig {
                threads: Threads::fixed(threads),
                ..base_cfg
            };
            assert_eq!(run_chaos(&dep, &topo, &cfg), base, "threads = {threads}");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let dep = sies(8);
        let topo = Topology::complete_tree(8, 2);
        let a = run_chaos(
            &dep,
            &topo,
            &ChaosConfig {
                seed: 1,
                epochs: 50,
                ..Default::default()
            },
        );
        let b = run_chaos(
            &dep,
            &topo,
            &ChaosConfig {
                seed: 2,
                epochs: 50,
                ..Default::default()
            },
        );
        assert_ne!(a, b, "seeds 1 and 2 produced identical runs");
    }

    #[test]
    fn calm_run_has_full_availability() {
        let dep = sies(8);
        let topo = Topology::complete_tree(8, 2);
        let cfg = ChaosConfig {
            seed: 3,
            epochs: 40,
            loss_rate: 0.0,
            crash_prob: 0.0,
            attack_prob: 0.0,
            ..ChaosConfig::default()
        };
        let m = run_chaos(&dep, &topo, &cfg);
        assert_eq!(m.ok_epochs, 40);
        assert_eq!(m.availability(), 1.0);
        assert_eq!(
            m.overhead_factor(),
            (m.data_bytes + m.control_bytes) as f64 / m.data_bytes as f64
        );
        assert_eq!(m.retransmit_bytes, 0);
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sies-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn restarted_run_matches_uninterrupted_run_exactly() {
        let dep = sies(16);
        let topo = Topology::complete_tree(16, 4);
        let cfg = ChaosConfig {
            seed: 42,
            epochs: 200,
            ..ChaosConfig::default()
        };
        let baseline = run_chaos(&dep, &topo, &cfg);

        let kills = RestartConfig::seeded_kills(7, cfg.epochs, 3);
        assert_eq!(kills.len(), 3);
        let rcfg = RestartConfig {
            journal_path: tmp("restart-identity.journal"),
            journal: JournalConfig::default(),
            kill_epochs: kills,
        };
        let out = run_chaos_with_restarts(&dep, &topo, &cfg, &rcfg).unwrap();
        assert_eq!(out.restarts, 3);
        assert!(out.replayed_receipts > 0);
        assert_eq!(
            out.metrics, baseline,
            "journal-only recovery must land on the uninterrupted run's state"
        );
        assert!(out.metrics.sound());
        std::fs::remove_file(&rcfg.journal_path).unwrap();
    }

    #[test]
    fn restarted_run_is_thread_count_invariant() {
        let dep = sies(16);
        let topo = Topology::complete_tree(16, 4);
        let base_cfg = ChaosConfig {
            seed: 13,
            epochs: 60,
            ..ChaosConfig::default()
        };
        let rcfg = RestartConfig {
            journal_path: tmp("restart-threads.journal"),
            journal: JournalConfig::default(),
            kill_epochs: RestartConfig::seeded_kills(5, base_cfg.epochs, 2),
        };
        let base = run_chaos_with_restarts(&dep, &topo, &base_cfg, &rcfg).unwrap();
        for threads in [2usize, 8] {
            let cfg = ChaosConfig {
                threads: Threads::fixed(threads),
                ..base_cfg
            };
            let out = run_chaos_with_restarts(&dep, &topo, &cfg, &rcfg).unwrap();
            assert_eq!(out, base, "threads = {threads}");
        }
        std::fs::remove_file(&rcfg.journal_path).unwrap();
    }

    #[test]
    fn seeded_kills_are_deterministic_distinct_and_in_range() {
        let a = RestartConfig::seeded_kills(3, 100, 5);
        let b = RestartConfig::seeded_kills(3, 100, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&e| (1..100).contains(&e)));
        // Asking for more kills than restartable epochs saturates.
        assert_eq!(RestartConfig::seeded_kills(3, 4, 10).len(), 3);
    }

    #[test]
    fn recovery_beats_no_recovery_at_heavy_loss() {
        // With zero re-solicitation rounds and no retries the same seed
        // loses strictly more links than the full protocol.
        let dep = sies(16);
        let topo = Topology::complete_tree(16, 4);
        let weak = ChaosConfig {
            seed: 11,
            epochs: 80,
            loss_rate: 0.4,
            max_retries: 0,
            crash_prob: 0.0,
            attack_prob: 0.0,
            recovery: RecoveryConfig::new(0, 0.5),
            ..ChaosConfig::default()
        };
        let strong = ChaosConfig {
            max_retries: 3,
            recovery: RecoveryConfig::new(2, 0.5),
            ..weak
        };
        let mw = run_chaos(&dep, &topo, &weak);
        let ms = run_chaos(&dep, &topo, &strong);
        assert!(
            ms.lost_links < mw.lost_links,
            "recovery {} lost vs bare {} lost",
            ms.lost_links,
            mw.lost_links
        );
        assert!(ms.sound() && mw.sound());
    }
}
