//! Lossy-link radio model: the per-frame loss rate and retransmission
//! budget the recovery protocol ([`crate::recovery`]) runs every uplink
//! under, plus the link accounting its reports carry.
//!
//! The paper treats topology maintenance and link reliability as
//! orthogonal (§III-A), but its failure-handling discussion (§IV-B)
//! assumes *some* mechanism decides which sources contributed. The
//! recovery protocol is that mechanism: an uplink still lost after its
//! retries and re-solicitations silences its subtree for the epoch, the
//! querier is told, and the epoch verifies against the surviving
//! contributor set.

/// A lossy link layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossyRadio {
    /// Probability that one transmission attempt is lost, in `[0, 1]`.
    pub loss_rate: f64,
    /// Retransmissions allowed after the first attempt.
    pub max_retries: u32,
}

impl Default for LossyRadio {
    fn default() -> Self {
        LossyRadio {
            loss_rate: 0.05,
            max_retries: 3,
        }
    }
}

/// Transmission accounting for one epoch under loss.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkStats {
    /// Uplinks that failed permanently this epoch.
    pub failed_links: u64,
    /// Total transmission attempts across all uplinks.
    pub attempts: u64,
    /// Uplinks that needed at least one retransmission.
    pub retransmitted_links: u64,
}

impl LinkStats {
    /// Mean attempts per link (the bandwidth/energy inflation factor
    /// retransmissions cause).
    pub fn attempts_per_link(&self, links: u64) -> f64 {
        if links == 0 {
            0.0
        } else {
            self.attempts as f64 / links as f64
        }
    }
}

impl LossyRadio {
    /// Creates a radio with validation.
    pub fn new(loss_rate: f64, max_retries: u32) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_rate),
            "loss rate must be in [0,1]"
        );
        LossyRadio {
            loss_rate,
            max_retries,
        }
    }

    /// Probability an uplink fails permanently (every attempt lost).
    pub fn link_failure_probability(&self) -> f64 {
        self.loss_rate.powi(self.max_retries as i32 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_probability_formula() {
        let radio = LossyRadio::new(0.1, 2);
        assert!((radio.link_failure_probability() - 0.001).abs() < 1e-12);
        assert_eq!(LossyRadio::new(0.0, 5).link_failure_probability(), 0.0);
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn invalid_loss_rate_rejected() {
        LossyRadio::new(1.5, 0);
    }

    #[test]
    fn attempts_per_link_math() {
        let stats = LinkStats {
            failed_links: 0,
            attempts: 150,
            retransmitted_links: 30,
        };
        assert!((stats.attempts_per_link(100) - 1.5).abs() < 1e-12);
        assert_eq!(LinkStats::default().attempts_per_link(0), 0.0);
    }
}
