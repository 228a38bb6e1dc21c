//! A μTesla-style authenticated broadcast (Perrig et al., SPINS) used by
//! the querier to disseminate queries (paper §IV-A setup phase and
//! Theorem 3: querier-impersonation resistance).
//!
//! The broadcaster commits to a one-way hash chain `K_0 ← H(K_1) ← … ←
//! H(K_n)`. During interval `i` it MACs packets with a key derived from
//! `K_i`, and discloses `K_i` only `d` intervals later. Receivers buffer
//! packets and verify them once the key arrives, checking that the
//! disclosed key hashes back to the last authenticated chain element.
//!
//! This module is an in-memory simulation: loose time synchronization is
//! modelled by the receiver tracking the current interval and enforcing
//! the *security condition* — a packet is accepted into the buffer only if
//! its key cannot have been disclosed yet.

use crate::error::SiesError;
use rand::RngCore;
use sies_crypto::hash::HashFunction;
use sies_crypto::hmac::{ct_eq, hmac, hmac_many};
use sies_crypto::sha256::Sha256;
use sies_telemetry as tel;

/// A chain key (SHA-256 output).
pub type ChainKey = [u8; 32];

/// A broadcast packet: payload, MAC, and the interval whose key MACed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The broadcast payload (e.g. a serialized query).
    pub payload: Vec<u8>,
    /// `HMAC-SHA256(K'_i, payload)`.
    pub mac: [u8; 32],
    /// The sending interval `i`.
    pub interval: u64,
}

/// A key-disclosure message for interval `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disclosure {
    /// The interval whose key is being disclosed.
    pub interval: u64,
    /// The chain key `K_i`.
    pub key: ChainKey,
}

/// Derives the per-interval MAC key `K'_i` from the chain key `K_i`,
/// keeping MAC use domain-separated from chain hashing.
fn mac_key(chain_key: &ChainKey) -> [u8; 32] {
    hmac::<Sha256>(chain_key, b"mutesla-mac")
        .try_into()
        .expect("SHA-256 output is 32 bytes")
}

/// One application of the chain function `H`.
fn chain_step(key: &ChainKey) -> ChainKey {
    Sha256::digest(key)
        .try_into()
        .expect("SHA-256 output is 32 bytes")
}

/// The broadcaster (the querier in SIES).
pub struct Broadcaster {
    /// `chain[i]` is `K_i`; `chain[0]` is the public commitment `K_0`.
    chain: Vec<ChainKey>,
    /// Disclosure lag `d` in intervals.
    delay: u64,
    /// Precomputed `(interval, K'_i)` MAC keys, ascending by interval.
    /// Populated ahead of use by [`Broadcaster::prewarm_mac_window`]
    /// during idle gaps; [`Broadcaster::broadcast`] consults it before
    /// falling back to on-demand derivation. Purely a cache: the MAC key
    /// for an interval is the same bytes either way.
    prewarmed: Vec<(u64, [u8; 32])>,
}

impl Broadcaster {
    /// Generates a chain supporting intervals `1..=intervals`, with
    /// disclosure delay `d ≥ 1`.
    pub fn new(rng: &mut dyn RngCore, intervals: u64, delay: u64) -> Self {
        assert!(delay >= 1, "disclosure delay must be at least 1 interval");
        let n = intervals as usize + 1;
        let mut chain = vec![[0u8; 32]; n];
        rng.fill_bytes(&mut chain[n - 1]);
        for i in (0..n - 1).rev() {
            chain[i] = chain_step(&chain[i + 1]);
        }
        Broadcaster {
            chain,
            delay,
            prewarmed: Vec::new(),
        }
    }

    /// The public commitment `K_0`, distributed authentically at bootstrap.
    pub fn commitment(&self) -> ChainKey {
        self.chain[0]
    }

    /// The disclosure delay.
    pub fn delay(&self) -> u64 {
        self.delay
    }

    /// Derives and caches the MAC keys `K'_i` for intervals
    /// `from..=to` (clamped to the chain, interval 0 excluded) in one
    /// pass through the multi-lane batched HMAC. Intended to run during
    /// the inter-interval idle gap so the per-packet HMAC in
    /// [`Broadcaster::broadcast`] becomes a table lookup. Returns how
    /// many keys were freshly derived; already-cached intervals are
    /// skipped, so calling with an overlapping window is cheap.
    pub fn prewarm_mac_window(&mut self, from: u64, to: u64) -> usize {
        let hi = to.min(self.chain.len() as u64 - 1);
        let fresh: Vec<u64> = (from.max(1)..=hi)
            .filter(|i| !self.prewarmed.iter().any(|(j, _)| j == i))
            .collect();
        if fresh.is_empty() {
            return 0;
        }
        let chain_keys: Vec<&[u8]> = fresh
            .iter()
            .map(|&i| self.chain[i as usize].as_slice())
            .collect();
        for (&i, mk) in fresh
            .iter()
            .zip(hmac_many::<Sha256>(&chain_keys, b"mutesla-mac"))
        {
            self.prewarmed.push((i, mk));
        }
        self.prewarmed.sort_by_key(|(i, _)| *i);
        tel::count!("core.mutesla.prewarmed_keys", fresh.len() as u64);
        fresh.len()
    }

    /// Drops cached MAC keys for intervals at or below `interval`
    /// (their disclosure makes the cache entries dead weight).
    pub fn retire_prewarmed(&mut self, interval: u64) {
        self.prewarmed.retain(|(i, _)| *i > interval);
    }

    /// MACs a payload with interval `i`'s key. Panics when the chain is
    /// exhausted or `interval` is 0 (interval 0 is the commitment).
    ///
    /// Uses the prewarmed MAC key when
    /// [`Broadcaster::prewarm_mac_window`] covered this interval;
    /// otherwise derives it on the spot. The packet bytes are identical
    /// either way.
    pub fn broadcast(&self, interval: u64, payload: &[u8]) -> Packet {
        let mk = match self.prewarmed.binary_search_by_key(&interval, |(i, _)| *i) {
            Ok(idx) => {
                tel::count!("core.mutesla.prewarm_hits");
                self.prewarmed[idx].1
            }
            Err(_) => {
                tel::count!("core.mutesla.prewarm_misses");
                mac_key(&self.chain[interval as usize])
            }
        };
        let mac = hmac::<Sha256>(&mk, payload).try_into().expect("32 bytes");
        Packet {
            payload: payload.to_vec(),
            mac,
            interval,
        }
    }

    /// Discloses interval `i`'s key (sent during interval `i + d`).
    pub fn disclose(&self, interval: u64) -> Disclosure {
        tel::count!("core.mutesla.disclosures");
        tel::event(interval, tel::EventKind::KeyDisclosed, interval, 0);
        Disclosure {
            interval,
            key: self.chain[interval as usize],
        }
    }
}

/// Default size of the receiver's precomputed MAC-key window.
pub const DEFAULT_KEY_WINDOW: usize = 32;

/// A receiver (a source sensor in SIES).
pub struct Receiver {
    /// Last authenticated chain element and its interval.
    auth_key: ChainKey,
    auth_interval: u64,
    /// Disclosure delay `d` (known system parameter).
    delay: u64,
    /// Buffered, not-yet-verifiable packets.
    pending: Vec<Packet>,
    /// Precomputed `(interval, K'_i)` pairs for the most recently
    /// authenticated intervals, ascending by interval. Each entry costs
    /// one HMAC at disclosure time; afterwards any packet from a
    /// windowed interval verifies with a single MAC and zero chain
    /// hashing ([`Receiver::verify_archived`]).
    window: Vec<(u64, [u8; 32])>,
    window_cap: usize,
}

impl Receiver {
    /// Bootstraps from the authentic commitment `K_0`.
    pub fn new(commitment: ChainKey, delay: u64) -> Self {
        Receiver {
            auth_key: commitment,
            auth_interval: 0,
            delay,
            pending: Vec::new(),
            window: Vec::new(),
            window_cap: DEFAULT_KEY_WINDOW,
        }
    }

    /// Overrides how many authenticated intervals keep their MAC key
    /// precomputed (0 disables the window).
    pub fn with_key_window(mut self, cap: usize) -> Self {
        self.window_cap = cap;
        self.window.truncate(cap);
        self
    }

    /// Accepts a packet into the buffer if the security condition holds:
    /// at local time `now`, the key for `packet.interval` must not have
    /// been disclosed yet (`now < interval + d`). Late packets are
    /// rejected because a forger could already know the key.
    pub fn receive(&mut self, now: u64, packet: Packet) -> Result<(), SiesError> {
        if now >= packet.interval + self.delay {
            return Err(SiesError::BroadcastAuthFailure(format!(
                "security condition violated: packet for interval {} arrived at {now}",
                packet.interval
            )));
        }
        if packet.interval <= self.auth_interval {
            return Err(SiesError::BroadcastAuthFailure(
                "packet interval already disclosed".into(),
            ));
        }
        self.pending.push(packet);
        Ok(())
    }

    /// Processes a key disclosure: authenticates the key against the
    /// chain, then verifies and returns all buffered payloads it can now
    /// authenticate, in interval order.
    ///
    /// **Catch-up:** a receiver that missed `k` disclosures recovers from
    /// the next one it hears. While hashing `K_i` forward to the last
    /// authenticated element, the intermediate values *are* the keys of
    /// the skipped intervals (`K_j = H^(i-j)(K_i)`), so packets buffered
    /// for those intervals verify too instead of being dropped. This is
    /// safe because the security condition was already enforced when each
    /// packet was buffered — its key had not been disclosed at receive
    /// time.
    pub fn on_disclosure(&mut self, disclosure: Disclosure) -> Result<Vec<Vec<u8>>, SiesError> {
        if disclosure.interval <= self.auth_interval {
            return Err(SiesError::BroadcastAuthFailure(
                "stale key disclosure".into(),
            ));
        }
        // Authenticate: hashing forward (interval - auth_interval) times
        // must reach the last authenticated element. The intermediate
        // values are kept — `keys[d]` is the chain key for interval
        // `disclosure.interval - d`.
        let steps = disclosure.interval - self.auth_interval;
        let mut keys: Vec<ChainKey> = Vec::with_capacity(steps as usize);
        keys.push(disclosure.key);
        for _ in 1..steps {
            let next = chain_step(keys.last().expect("non-empty"));
            keys.push(next);
        }
        let anchor = chain_step(keys.last().expect("non-empty"));
        if !ct_eq(&anchor, &self.auth_key) {
            return Err(SiesError::BroadcastAuthFailure(
                "disclosed key does not extend the authenticated chain".into(),
            ));
        }
        let prev_auth = self.auth_interval;
        self.auth_key = disclosure.key;
        self.auth_interval = disclosure.interval;
        tel::count!("core.mutesla.disclosures_verified");
        // `steps > 1` means we recovered keys for skipped intervals.
        tel::count!("core.mutesla.catchup_steps", steps - 1);

        // Extend the precomputed MAC-key window with the newly
        // authenticated intervals (newest `window_cap` retained). One
        // HMAC per interval here replaces one per *packet* below and
        // keeps the key available for later archive re-verification.
        // The window keys share a fixed message and differ only in the
        // chain key, so the whole extension runs through the multi-lane
        // batched HMAC.
        let fresh = steps.min(self.window_cap as u64);
        let chain_keys: Vec<&[u8]> = (0..fresh)
            .rev()
            .map(|d| keys[d as usize].as_slice())
            .collect();
        for (d, mk) in (0..fresh)
            .rev()
            .zip(hmac_many::<Sha256>(&chain_keys, b"mutesla-mac"))
        {
            self.window.push((disclosure.interval - d, mk));
        }
        if self.window.len() > self.window_cap {
            self.window.drain(..self.window.len() - self.window_cap);
        }

        // Verify everything now authenticable: packets for any interval
        // in (prev_auth, disclosure.interval].
        let mut verified: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut remaining = Vec::new();
        for packet in self.pending.drain(..) {
            if packet.interval > disclosure.interval {
                remaining.push(packet);
                continue;
            }
            if packet.interval <= prev_auth {
                // Cannot happen via `receive`, which rejects disclosed
                // intervals; drop defensively.
                continue;
            }
            // Windowed intervals reuse the precomputed K'_i; anything
            // older (a skip deeper than the window) derives it from the
            // chain walk directly.
            let mk = self
                .window
                .iter()
                .rev()
                .find(|(i, _)| *i == packet.interval)
                .map(|(_, mk)| *mk)
                .unwrap_or_else(|| {
                    mac_key(&keys[(disclosure.interval - packet.interval) as usize])
                });
            let expected = hmac::<Sha256>(&mk, &packet.payload);
            if ct_eq(&expected, &packet.mac) {
                verified.push((packet.interval, packet.payload));
            }
        }
        self.pending = remaining;
        verified.sort_by_key(|(interval, _)| *interval);
        Ok(verified.into_iter().map(|(_, payload)| payload).collect())
    }

    /// Re-verifies an already-delivered packet against the precomputed
    /// key window: a single MAC, no chain hashing. Returns `false` when
    /// the MAC is wrong *or* the packet's interval has aged out of the
    /// window (callers needing older intervals must retain payloads they
    /// verified at disclosure time).
    pub fn verify_archived(&self, packet: &Packet) -> bool {
        tel::count!("core.mutesla.archived_verifies");
        self.window
            .iter()
            .rev()
            .find(|(i, _)| *i == packet.interval)
            .is_some_and(|(_, mk)| ct_eq(&hmac::<Sha256>(mk, &packet.payload), &packet.mac))
    }

    /// Intervals currently covered by the precomputed key window, as an
    /// inclusive `(oldest, newest)` pair; `None` before any disclosure.
    pub fn window_span(&self) -> Option<(u64, u64)> {
        match (self.window.first(), self.window.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => Some((lo, hi)),
            _ => None,
        }
    }

    /// The last authenticated interval (0 before any disclosure).
    pub fn auth_interval(&self) -> u64 {
        self.auth_interval
    }

    /// The durable core of the receiver's state: the last authenticated
    /// chain element and its interval. Everything else (buffered
    /// packets, the precomputed key window) is a cache that a restarted
    /// receiver rebuilds as disclosures arrive.
    pub fn checkpoint(&self) -> (u64, ChainKey) {
        (self.auth_interval, self.auth_key)
    }

    /// Rebuilds a receiver from a journaled [`Self::checkpoint`],
    /// re-authenticating the checkpointed key against the original
    /// commitment: hashing `key` forward `interval` times must reproduce
    /// `K_0`. A checkpoint that does not chain back is rejected — a
    /// corrupted or forged journal cannot move the receiver onto a
    /// different chain.
    pub fn resume(
        commitment: ChainKey,
        delay: u64,
        interval: u64,
        key: ChainKey,
    ) -> Result<Self, SiesError> {
        let mut walked = key;
        for _ in 0..interval {
            walked = chain_step(&walked);
        }
        if !ct_eq(&walked, &commitment) {
            return Err(SiesError::BroadcastAuthFailure(format!(
                "checkpointed key for interval {interval} does not chain back to the commitment"
            )));
        }
        tel::count!("core.mutesla.resumes");
        Ok(Receiver {
            auth_key: key,
            auth_interval: interval,
            delay,
            pending: Vec::new(),
            window: Vec::new(),
            window_cap: DEFAULT_KEY_WINDOW,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(intervals: u64, delay: u64) -> (Broadcaster, Receiver) {
        let mut rng = StdRng::seed_from_u64(77);
        let b = Broadcaster::new(&mut rng, intervals, delay);
        let r = Receiver::new(b.commitment(), delay);
        (b, r)
    }

    #[test]
    fn broadcast_verifies_after_disclosure() {
        let (b, mut r) = setup(10, 2);
        let pkt = b.broadcast(1, b"SELECT SUM(temp)");
        r.receive(1, pkt).unwrap();
        let msgs = r.on_disclosure(b.disclose(1)).unwrap();
        assert_eq!(msgs, vec![b"SELECT SUM(temp)".to_vec()]);
    }

    #[test]
    fn forged_mac_rejected() {
        let (b, mut r) = setup(10, 2);
        let mut pkt = b.broadcast(1, b"legit query");
        pkt.payload = b"evil query".to_vec(); // adversary alters payload
        r.receive(1, pkt).unwrap();
        let msgs = r.on_disclosure(b.disclose(1)).unwrap();
        assert!(msgs.is_empty(), "forged packet must not verify");
    }

    #[test]
    fn forged_key_rejected() {
        let (b, mut r) = setup(10, 2);
        let pkt = b.broadcast(1, b"q");
        r.receive(1, pkt).unwrap();
        let bogus = Disclosure {
            interval: 1,
            key: [0xEE; 32],
        };
        assert!(r.on_disclosure(bogus).is_err());
        // The real key still works afterwards.
        assert_eq!(r.on_disclosure(b.disclose(1)).unwrap().len(), 1);
    }

    #[test]
    fn security_condition_rejects_late_packets() {
        let (b, mut r) = setup(10, 2);
        let pkt = b.broadcast(1, b"q");
        // Arrives at time 3 = 1 + delay: key may already be public.
        assert!(r.receive(3, pkt).is_err());
    }

    #[test]
    fn stale_disclosure_rejected() {
        let (b, mut r) = setup(10, 1);
        r.receive(1, b.broadcast(1, b"a")).unwrap();
        r.on_disclosure(b.disclose(1)).unwrap();
        assert!(r.on_disclosure(b.disclose(1)).is_err());
    }

    #[test]
    fn skipped_intervals_still_authenticate() {
        // Receiver misses disclosures 1..4; key 5 must still chain back to
        // the commitment.
        let (b, mut r) = setup(10, 2);
        r.receive(5, b.broadcast(5, b"late query")).unwrap();
        let msgs = r.on_disclosure(b.disclose(5)).unwrap();
        assert_eq!(msgs.len(), 1);
    }

    #[test]
    fn packets_for_future_intervals_stay_buffered() {
        let (b, mut r) = setup(10, 3);
        r.receive(1, b.broadcast(1, b"one")).unwrap();
        r.receive(2, b.broadcast(2, b"two")).unwrap();
        let first = r.on_disclosure(b.disclose(1)).unwrap();
        assert_eq!(first, vec![b"one".to_vec()]);
        let second = r.on_disclosure(b.disclose(2)).unwrap();
        assert_eq!(second, vec![b"two".to_vec()]);
    }

    #[test]
    fn catch_up_verifies_packets_from_skipped_intervals() {
        // The receiver buffers packets for intervals 1, 2 and 3 but only
        // ever hears the disclosure for 3 (1 and 2 were lost). Hashing
        // K_3 forward recovers K_2 and K_1, so all three packets verify,
        // in interval order.
        let (b, mut r) = setup(10, 4);
        r.receive(1, b.broadcast(1, b"one")).unwrap();
        r.receive(2, b.broadcast(2, b"two")).unwrap();
        r.receive(3, b.broadcast(3, b"three")).unwrap();
        let msgs = r.on_disclosure(b.disclose(3)).unwrap();
        assert_eq!(
            msgs,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        // The chain state advanced to interval 3.
        assert!(r.on_disclosure(b.disclose(3)).is_err());
        r.receive(4, b.broadcast(4, b"four")).unwrap();
        assert_eq!(r.on_disclosure(b.disclose(4)).unwrap().len(), 1);
    }

    #[test]
    fn catch_up_still_rejects_forgeries_in_skipped_intervals() {
        let (b, mut r) = setup(10, 4);
        let mut forged = b.broadcast(2, b"real");
        forged.payload = b"fake".to_vec();
        r.receive(1, b.broadcast(1, b"one")).unwrap();
        r.receive(2, forged).unwrap();
        let msgs = r.on_disclosure(b.disclose(3)).unwrap();
        assert_eq!(msgs, vec![b"one".to_vec()], "forged packet must not verify");
    }

    #[test]
    fn archived_packets_verify_from_window() {
        let (b, mut r) = setup(10, 4);
        let real = b.broadcast(2, b"two");
        r.receive(1, b.broadcast(1, b"one")).unwrap();
        r.receive(2, real.clone()).unwrap();
        assert!(!r.verify_archived(&real), "window empty before disclosure");
        r.on_disclosure(b.disclose(3)).unwrap();
        // Catch-up authenticated intervals 1..=3; all are windowed.
        assert_eq!(r.window_span(), Some((1, 3)));
        assert!(r.verify_archived(&real));
        assert!(r.verify_archived(&b.broadcast(1, b"one")));
        let mut forged = real.clone();
        forged.payload = b"evil".to_vec();
        assert!(!r.verify_archived(&forged));
        // An interval never authenticated is not in the window.
        assert!(!r.verify_archived(&b.broadcast(5, b"future")));
    }

    #[test]
    fn key_window_is_bounded() {
        let (b, r) = setup(10, 2);
        let mut r = r.with_key_window(2);
        for i in 1..=5 {
            r.receive(i, b.broadcast(i, b"q")).unwrap();
            r.on_disclosure(b.disclose(i)).unwrap();
        }
        assert_eq!(r.window_span(), Some((4, 5)));
        assert!(r.verify_archived(&b.broadcast(5, b"q")));
        assert!(r.verify_archived(&b.broadcast(4, b"q")));
        // Interval 3 aged out: re-verification is refused, not wrong.
        assert!(!r.verify_archived(&b.broadcast(3, b"q")));
    }

    #[test]
    fn deep_catch_up_beyond_window_still_verifies_pending() {
        // Skip 6 intervals with a window of 2: the packets for the old
        // intervals must still verify at disclosure time (from the chain
        // walk), even though only the newest 2 keys are retained.
        let (b, r) = setup(10, 8);
        let mut r = r.with_key_window(2);
        for i in 1..=6 {
            r.receive(i, b.broadcast(i, format!("q{i}").as_bytes()))
                .unwrap();
        }
        let msgs = r.on_disclosure(b.disclose(6)).unwrap();
        assert_eq!(msgs.len(), 6);
        assert_eq!(r.window_span(), Some((5, 6)));
    }

    #[test]
    fn checkpoint_resume_round_trips_mid_chain() {
        let (b, mut r) = setup(10, 2);
        for i in 1..=4 {
            r.receive(i, b.broadcast(i, b"q")).unwrap();
            r.on_disclosure(b.disclose(i)).unwrap();
        }
        let (interval, key) = r.checkpoint();
        assert_eq!(interval, 4);
        assert_eq!(r.auth_interval(), 4);

        // A restarted receiver resumes at the checkpoint and keeps
        // authenticating from there.
        let mut r2 = Receiver::resume(b.commitment(), 2, interval, key).unwrap();
        assert_eq!(r2.auth_interval(), 4);
        assert!(
            r2.on_disclosure(b.disclose(4)).is_err(),
            "resumed receiver must reject already-disclosed intervals"
        );
        r2.receive(5, b.broadcast(5, b"after restart")).unwrap();
        let msgs = r2.on_disclosure(b.disclose(5)).unwrap();
        assert_eq!(msgs, vec![b"after restart".to_vec()]);
    }

    #[test]
    fn resume_rejects_forged_checkpoints() {
        let (b, _r) = setup(10, 2);
        assert!(Receiver::resume(b.commitment(), 2, 3, [0xAB; 32]).is_err());
        // Right key, wrong interval: the walk lands elsewhere.
        let key = b.disclose(3).key;
        assert!(Receiver::resume(b.commitment(), 2, 4, key).is_err());
        assert!(Receiver::resume(b.commitment(), 2, 3, key).is_ok());
    }

    #[test]
    fn resume_at_interval_zero_is_a_fresh_receiver() {
        let (b, _r) = setup(5, 1);
        let r = Receiver::resume(b.commitment(), 1, 0, b.commitment()).unwrap();
        assert_eq!(r.auth_interval(), 0);
    }

    #[test]
    fn prewarmed_broadcast_is_bit_identical_to_cold() {
        let mut rng = StdRng::seed_from_u64(77);
        let cold = Broadcaster::new(&mut rng, 10, 2);
        let mut rng = StdRng::seed_from_u64(77);
        let mut warm = Broadcaster::new(&mut rng, 10, 2);
        assert_eq!(warm.prewarm_mac_window(1, 6), 6);
        // Overlapping re-warm derives nothing new.
        assert_eq!(warm.prewarm_mac_window(3, 8), 2);
        for i in 1..=10 {
            let payload = format!("query {i}");
            assert_eq!(
                warm.broadcast(i, payload.as_bytes()),
                cold.broadcast(i, payload.as_bytes()),
                "prewarmed packet differs at interval {i}"
            );
        }
        // Retiring the cache changes nothing observable.
        warm.retire_prewarmed(8);
        assert_eq!(warm.broadcast(5, b"x"), cold.broadcast(5, b"x"));
        // Clamped past the chain end: nothing to derive.
        assert_eq!(warm.prewarm_mac_window(11, 20), 0);
    }

    #[test]
    fn prewarmed_packets_verify_end_to_end() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = Broadcaster::new(&mut rng, 10, 2);
        let mut r = Receiver::new(b.commitment(), 2);
        b.prewarm_mac_window(1, 10);
        r.receive(1, b.broadcast(1, b"warm query")).unwrap();
        let msgs = r.on_disclosure(b.disclose(1)).unwrap();
        assert_eq!(msgs, vec![b"warm query".to_vec()]);
    }

    #[test]
    fn chain_commitment_is_deterministic_chain_head() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = Broadcaster::new(&mut rng, 5, 1);
        // Hashing K_5 five times yields K_0.
        let mut k = b.disclose(5).key;
        for _ in 0..5 {
            k = chain_step(&k);
        }
        assert_eq!(k, b.commitment());
    }
}
