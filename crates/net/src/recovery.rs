//! Epoch recovery protocol: per-uplink ACK/NACK with bounded
//! retransmission, an epoch deadline, and querier-driven re-solicitation
//! of missing subtrees.
//!
//! The paper (§IV-B Discussion) assumes *some* mechanism tells the
//! querier which sources contributed; this module supplies a concrete
//! one and makes its cost measurable. Every uplink transfer runs a small
//! stop-and-wait protocol:
//!
//! 1. **Normal phase** — the child transmits its PSR; the parent ACKs
//!    each copy it receives. A frame that arrives corrupted (caught by
//!    the wire CRC) triggers an immediate NACK and retransmission; a
//!    frame that vanishes entirely is retransmitted on timeout. The
//!    retransmission budget is `1 + max_retries` data frames
//!    ([`crate::radio::LossyRadio::max_retries`]).
//! 2. **Re-solicitation phase** — when the epoch deadline passes with
//!    the transfer still missing, the querier (told by a
//!    [`crate::wire::PacketType::FailureReport`]) re-solicits the
//!    missing subtree: each round costs a
//!    [`crate::wire::PacketType::Resolicit`] frame per hop down to the
//!    waiting parent and buys one more full retransmission budget.
//! 3. **Exclusion** — a transfer that is still missing after
//!    [`RecoveryConfig::resolicit_rounds`] re-solicitations is declared
//!    lost; the subtree's sources are excluded from the contributor set
//!    and the epoch still verifies exactly over the survivors.
//!
//! Crash recovery (topology repair) is planned by
//! [`crate::topology::Topology::repair_plan`]: live children of a
//! crashed aggregator re-attach to their nearest live ancestor within
//! the same epoch, at the cost of a Reattach/ACK handshake each.
//!
//! Every uplink draws its loss, retry and jitter outcomes from its own
//! stream, [`uplink_stream`], keyed by one per-epoch draw and the
//! sending node's id. No outcome depends on the order in which uplinks
//! run, so a recovering epoch shards across worker threads like a clean
//! one and still replays exactly from its seed.
//!
//! A key property the chaos harness leans on: the protocol recovers
//! *honest* faults only. A covert adversary ACKs like everyone else, so
//! recovery never masks an attack — detection stays the scheme's job.

use crate::radio::{LinkStats, LossyRadio};
use crate::topology::NodeId;
use crate::wire::FRAME_OVERHEAD;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sies_telemetry as tel;

/// Wire size of a link-layer acknowledgement (a bare frame: epoch and
/// sender live in the header, no payload).
pub const ACK_BYTES: usize = FRAME_OVERHEAD;
/// Wire size of a negative acknowledgement.
pub const NACK_BYTES: usize = FRAME_OVERHEAD;
/// Wire size of one re-solicitation frame (payload: the missing node id).
pub const RESOLICIT_BYTES: usize = FRAME_OVERHEAD + 4;
/// Wire size of a re-attach request (payload: the crashed parent's id).
pub const REATTACH_BYTES: usize = FRAME_OVERHEAD + 4;
/// Wire size of a failure report (payload: the failed node id).
pub const FAILURE_REPORT_BYTES: usize = FRAME_OVERHEAD + 4;

/// Bounded exponential backoff with seeded jitter, governing how long a
/// child waits before each retransmission and how long the querier
/// waits before each re-solicitation round.
///
/// The schedule for exponent `k` is `min(base_ms · 2^k, cap_ms)` plus a
/// uniformly drawn jitter of up to `jitter_pct` percent of that value.
/// Jitter comes from the caller's seeded RNG, so a fixed seed pins the
/// entire retry schedule — chaos runs stay replayable while synchronized
/// retry bursts (every child timing out in lockstep) are broken up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Delay before the first retransmission (exponent 0), in modeled
    /// milliseconds. `0` disables the backoff model entirely (and draws
    /// nothing from the RNG).
    pub base_ms: u32,
    /// Upper bound on the exponential, in modeled milliseconds.
    pub cap_ms: u32,
    /// Jitter span as a percentage of the backed-off delay (0–100).
    pub jitter_pct: u32,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base_ms: 8,
            cap_ms: 512,
            jitter_pct: 50,
        }
    }
}

impl BackoffConfig {
    /// Creates a config with validation.
    pub fn new(base_ms: u32, cap_ms: u32, jitter_pct: u32) -> Self {
        assert!(jitter_pct <= 100, "jitter percentage must be in [0,100]");
        assert!(cap_ms >= base_ms, "cap must be at least the base delay");
        BackoffConfig {
            base_ms,
            cap_ms,
            jitter_pct,
        }
    }

    /// The modeled delay for retry exponent `k`: the capped exponential
    /// plus seeded jitter. Draws exactly one value from `rng` when a
    /// non-zero jitter span applies, zero otherwise.
    pub fn delay_ms(&self, exponent: u32, rng: &mut dyn RngCore) -> u64 {
        let capped = (self.base_ms as u64)
            .saturating_mul(1u64.checked_shl(exponent).unwrap_or(u64::MAX))
            .min(self.cap_ms as u64);
        let span = capped * self.jitter_pct as u64 / 100;
        if span == 0 {
            capped
        } else {
            capped + rng.random_range(0..=span)
        }
    }
}

/// Recovery-protocol policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Re-solicitation rounds the querier runs after the epoch deadline
    /// before declaring a subtree lost. Each round buys the failed
    /// uplink one more full retransmission budget.
    pub resolicit_rounds: u32,
    /// Fraction of lost frames that arrive *corrupted* (CRC caught, so
    /// the parent NACKs immediately) rather than vanishing (timeout).
    pub nack_fraction: f64,
    /// Retry pacing: bounded exponential backoff with seeded jitter.
    pub backoff: BackoffConfig,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            resolicit_rounds: 2,
            nack_fraction: 0.5,
            backoff: BackoffConfig::default(),
        }
    }
}

impl RecoveryConfig {
    /// Creates a config with validation (default backoff pacing).
    pub fn new(resolicit_rounds: u32, nack_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&nack_fraction),
            "nack fraction must be in [0,1]"
        );
        RecoveryConfig {
            resolicit_rounds,
            nack_fraction,
            backoff: BackoffConfig::default(),
        }
    }

    /// Overrides the backoff schedule.
    pub fn with_backoff(mut self, backoff: BackoffConfig) -> Self {
        self.backoff = backoff;
        self
    }
}

/// What happened on one uplink transfer under the recovery protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UplinkOutcome {
    /// Whether the parent ultimately holds the PSR (parent-side truth:
    /// a delivered frame counts even if every ACK back was lost).
    pub delivered: bool,
    /// Data frames the child transmitted (first attempt + retransmits).
    pub data_attempts: u32,
    /// ACK frames the parent sent (one per data frame received).
    pub acks: u32,
    /// NACK frames the parent sent for corrupted arrivals.
    pub nacks: u32,
    /// Re-solicitation rounds consumed.
    pub resolicit_rounds_used: u32,
    /// Modeled backoff delay spent waiting between retries and before
    /// re-solicitation rounds (milliseconds, jitter included).
    pub backoff_ms: u64,
}

impl RecoveryConfig {
    /// Simulates one uplink transfer: normal phase, then up to
    /// `resolicit_rounds` re-solicited phases. Each phase spends at most
    /// `1 + radio.max_retries` data frames. Duplicate deliveries (data
    /// got through but the ACK back was lost) are ACKed again and
    /// deduplicated by the parent — they cost bytes, never correctness.
    ///
    /// Retry pacing follows [`RecoveryConfig::backoff`]: retransmission
    /// `k` within a phase waits out exponent `k - 1`, and re-solicited
    /// phase `p` waits out exponent `budget + p - 1` (the querier's
    /// deadline keeps climbing past the retransmission ladder). The
    /// waits are modeled time, accumulated in
    /// [`UplinkOutcome::backoff_ms`]; they gate nothing — delivery is
    /// still decided by the loss draws (jitter shares the same seeded
    /// stream, so a fixed seed pins the whole interleaving).
    pub fn simulate_uplink(&self, radio: &LossyRadio, rng: &mut dyn RngCore) -> UplinkOutcome {
        let budget = radio.max_retries + 1;
        let mut out = UplinkOutcome::default();
        for phase in 0..=self.resolicit_rounds {
            if out.delivered {
                break;
            }
            if phase > 0 {
                out.resolicit_rounds_used += 1;
                if self.backoff.base_ms > 0 {
                    out.backoff_ms += self.backoff.delay_ms(budget + phase - 1, rng);
                }
            }
            let mut heard_ack = false;
            for attempt in 0..budget {
                if heard_ack {
                    break;
                }
                if attempt > 0 && self.backoff.base_ms > 0 {
                    out.backoff_ms += self.backoff.delay_ms(attempt - 1, rng);
                }
                out.data_attempts += 1;
                let r = rng.random_range(0.0..1.0);
                if r >= radio.loss_rate {
                    // Data frame arrived intact; the parent ACKs it.
                    out.delivered = true;
                    out.acks += 1;
                    if rng.random_range(0.0..1.0) >= radio.loss_rate {
                        heard_ack = true;
                    }
                    // ACK lost: the child retransmits; the parent
                    // dedupes and ACKs again.
                } else if r < radio.loss_rate * self.nack_fraction {
                    // Arrived corrupted: CRC failure, immediate NACK.
                    out.nacks += 1;
                }
                // Otherwise the frame vanished; the child times out.
            }
        }
        out
    }
}

/// The random stream of `node`'s uplink ([`RecoveryConfig::simulate_uplink`])
/// in the epoch whose draw is `epoch_draw`: keyed by node id, not by the
/// order uplinks run in, so outcomes match at every thread count.
pub fn uplink_stream(epoch_draw: u64, node: NodeId) -> StdRng {
    StdRng::seed_from_u64(epoch_draw ^ node as u64)
}

/// Recovery-protocol accounting for one epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Attempt-level link statistics (includes recovery retransmissions).
    pub link: LinkStats,
    /// Uplink transfers whose PSR reached the parent.
    pub delivered_links: u64,
    /// Uplink transfers still missing after all re-solicitation rounds;
    /// their subtrees were excluded from the contributor set.
    pub lost_links: u64,
    /// Transfers that only succeeded in a re-solicited phase.
    pub recovered_by_resolicit: u64,
    /// ACK frames sent.
    pub acks: u64,
    /// NACK frames sent.
    pub nacks: u64,
    /// Re-solicitation rounds run across all uplinks.
    pub resolicitations: u64,
    /// Orphans re-homed to a backup parent this epoch.
    pub adoptions: u64,
    /// Live nodes stranded with no live ancestor (sink crash only).
    pub stranded: u64,
    /// Failure reports sent up to the querier.
    pub failure_reports: u64,
    /// Sources a fallible `source_init` rejected (excluded like honest
    /// failures instead of panicking the epoch).
    pub init_failures: u64,
    /// Subtrees excluded because `merge` itself reported an error.
    pub merge_failures: u64,
    /// Total control-plane bytes (ACK + NACK + re-solicit + re-attach +
    /// failure reports).
    pub control_bytes: u64,
    /// Modeled backoff delay accumulated across all uplinks this epoch
    /// (milliseconds, jitter included).
    pub backoff_ms: u64,
}

impl RecoveryReport {
    /// Adds `other`'s counts to this report.
    pub(crate) fn add(&mut self, other: &RecoveryReport) {
        self.link.failed_links += other.link.failed_links;
        self.link.attempts += other.link.attempts;
        self.link.retransmitted_links += other.link.retransmitted_links;
        self.delivered_links += other.delivered_links;
        self.lost_links += other.lost_links;
        self.recovered_by_resolicit += other.recovered_by_resolicit;
        self.acks += other.acks;
        self.nacks += other.nacks;
        self.resolicitations += other.resolicitations;
        self.adoptions += other.adoptions;
        self.stranded += other.stranded;
        self.failure_reports += other.failure_reports;
        self.init_failures += other.init_failures;
        self.merge_failures += other.merge_failures;
        self.control_bytes += other.control_bytes;
        self.backoff_ms += other.backoff_ms;
    }

    /// Counts one uplink transfer's outcome (its bytes are the caller's).
    pub(crate) fn add_uplink(&mut self, out: &UplinkOutcome) {
        self.link.attempts += out.data_attempts as u64;
        if out.data_attempts > 1 {
            self.link.retransmitted_links += 1;
        }
        self.acks += out.acks as u64;
        self.nacks += out.nacks as u64;
        self.resolicitations += out.resolicit_rounds_used as u64;
        self.backoff_ms += out.backoff_ms;
        if out.delivered {
            self.delivered_links += 1;
            if out.resolicit_rounds_used > 0 {
                self.recovered_by_resolicit += 1;
            }
        } else {
            self.link.failed_links += 1;
            self.lost_links += 1;
        }
    }

    /// Adds the epoch's counters to the global registry once, when
    /// telemetry is on (a per-uplink flush was once the stack's largest
    /// telemetry cost). Retransmits are attempts beyond each first.
    pub(crate) fn publish(&self) {
        let uplinks = self.delivered_links + self.lost_links;
        tel::count!("recovery.uplinks", uplinks);
        tel::count!("recovery.acks", self.acks);
        tel::count!("recovery.nacks", self.nacks);
        tel::count!("recovery.resolicitations", self.resolicitations);
        tel::count!("recovery.data_attempts", self.link.attempts);
        tel::count!(
            "recovery.retransmits",
            self.link.attempts.saturating_sub(uplinks)
        );
        tel::count!("recovery.delivered", self.delivered_links);
        tel::count!("recovery.lost", self.lost_links);
        tel::count!("recovery.backoff_ms", self.backoff_ms);
        tel::count!("engine.failure_reports", self.failure_reports);
    }

    /// Fraction of uplink transfers that ultimately delivered.
    pub fn delivery_rate(&self) -> f64 {
        let total = self.delivered_links + self.lost_links;
        if total == 0 {
            1.0
        } else {
            self.delivered_links as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lossless_uplink_one_frame_one_ack() {
        let cfg = RecoveryConfig::default();
        let radio = LossyRadio::new(0.0, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let out = cfg.simulate_uplink(&radio, &mut rng);
        assert_eq!(
            out,
            UplinkOutcome {
                delivered: true,
                data_attempts: 1,
                acks: 1,
                nacks: 0,
                resolicit_rounds_used: 0,
                backoff_ms: 0
            }
        );
    }

    #[test]
    fn backoff_schedule_is_pinned_for_a_known_seed() {
        // The capped exponential without jitter: 8, 16, 32, ..., 512, 512.
        let quiet = BackoffConfig::new(8, 512, 0);
        let mut rng = StdRng::seed_from_u64(42);
        let bare: Vec<u64> = (0..8).map(|k| quiet.delay_ms(k, &mut rng)).collect();
        assert_eq!(bare, vec![8, 16, 32, 64, 128, 256, 512, 512]);

        // With 50% jitter from a fixed seed the whole schedule is pinned:
        // each delay is the capped exponential plus one seeded draw from
        // [0, delay/2].
        let cfg = BackoffConfig::default();
        let mut rng = StdRng::seed_from_u64(42);
        let jittered: Vec<u64> = (0..8).map(|k| cfg.delay_ms(k, &mut rng)).collect();
        for (k, (&j, &b)) in jittered.iter().zip(bare.iter()).enumerate() {
            assert!(
                j >= b && j <= b + b / 2,
                "exponent {k}: {j} outside [{b}, {}]",
                b + b / 2
            );
        }
        let mut again = StdRng::seed_from_u64(42);
        let replay: Vec<u64> = (0..8).map(|k| cfg.delay_ms(k, &mut again)).collect();
        assert_eq!(jittered, replay, "same seed must pin the schedule");
        // Pin the exact values so any change to the draw order or the
        // jitter arithmetic is caught, not silently absorbed.
        assert_eq!(jittered, vec![12, 18, 48, 87, 179, 331, 544, 667]);
    }

    #[test]
    fn zero_base_disables_backoff_and_draws_nothing() {
        let cfg = RecoveryConfig::new(2, 0.5).with_backoff(BackoffConfig::new(0, 0, 0));
        let radio = LossyRadio::new(0.7, 3);
        // Same seed with and without backoff: identical delivery outcomes
        // when backoff is off proves delay_ms draws nothing at base 0.
        let mut a = StdRng::seed_from_u64(77);
        let mut b = StdRng::seed_from_u64(77);
        for _ in 0..200 {
            let off = cfg.simulate_uplink(&radio, &mut a);
            let off2 = cfg.simulate_uplink(&radio, &mut b);
            assert_eq!(off, off2);
            assert_eq!(off.backoff_ms, 0);
        }
    }

    #[test]
    fn total_loss_exhausts_every_phase() {
        let cfg = RecoveryConfig::new(2, 0.5);
        let radio = LossyRadio::new(1.0, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let out = cfg.simulate_uplink(&radio, &mut rng);
        assert!(!out.delivered);
        // 3 phases (normal + 2 re-solicits) × 4 attempts each.
        assert_eq!(out.data_attempts, 12);
        assert_eq!(out.resolicit_rounds_used, 2);
        assert_eq!(out.acks, 0);
        // Half of total losses are detected corruptions → NACKs.
        assert!(out.nacks > 0 && out.nacks < 12);
    }

    #[test]
    fn resolicitation_recovers_some_transfers() {
        // At 60% loss with a tiny budget, some transfers only make it in
        // a re-solicited phase.
        let cfg = RecoveryConfig::new(3, 0.5);
        let radio = LossyRadio::new(0.6, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut recovered = 0;
        let mut lost = 0;
        for _ in 0..500 {
            let out = cfg.simulate_uplink(&radio, &mut rng);
            if out.delivered && out.resolicit_rounds_used > 0 {
                recovered += 1;
            }
            if !out.delivered {
                lost += 1;
            }
        }
        assert!(recovered > 0, "expected some re-solicited recoveries");
        // With 4 total phases at 60% loss, most transfers still succeed.
        assert!(lost < 100, "lost {lost} of 500");
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = RecoveryConfig::default();
        let radio = LossyRadio::new(0.3, 2);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(
                cfg.simulate_uplink(&radio, &mut a),
                cfg.simulate_uplink(&radio, &mut b)
            );
        }
    }

    #[test]
    fn lost_acks_cost_retransmissions_not_delivery() {
        // nack_fraction 0 and heavy loss: deliveries happen, and some
        // spend more than one data frame purely because ACKs vanished.
        let cfg = RecoveryConfig::new(0, 0.0);
        let radio = LossyRadio::new(0.5, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let mut dup_frames = 0;
        for _ in 0..300 {
            let out = cfg.simulate_uplink(&radio, &mut rng);
            if out.delivered && out.acks > 1 {
                dup_frames += 1;
            }
        }
        assert!(
            dup_frames > 0,
            "expected duplicate deliveries from lost ACKs"
        );
    }

    #[test]
    #[should_panic(expected = "nack fraction")]
    fn invalid_nack_fraction_rejected() {
        RecoveryConfig::new(1, 1.5);
    }
}
