//! Contention correction for a shared host.
//!
//! On a host shared with other tenants the same code runs up to ~1.8×
//! slower in phases lasting from a fraction of a second to whole runs,
//! and a run's median moves with the share of slow phases it happened
//! to see. So every time the end-to-end metrics report is corrected by
//! a reference kernel timed next to it: a fixed SHA-256 compression
//! loop written here, independent of the system under test. A measured
//! interval `t` whose neighbouring probes took `p` on average is
//! reported as `t × NOMINAL_NS / p`: the time it would have taken on a
//! core where the probe takes `NOMINAL_NS`. On a shared 2-vCPU KVM
//! guest the probe's slowdown tracked the epoch's with a correlation of
//! 0.9–0.98 over 1 s windows, where a dependent multiply chain or
//! ChaCha20 rounds tracked it at 0.2–0.6; corrected, the interquartile
//! range of a run's median latency over ten seeds fell from 6–36 % of
//! the median to 2–5 %.
//!
//! The correction follows the host, not the code: a change to the
//! system cannot move `p`, since the kernel shares no code with it.

use std::time::Instant;

/// SHA-256 compressions per probe: ~65 µs on an uncontended core.
const BLOCKS: usize = 256;

/// Probe time on an uncontended core of the reference host (an Intel
/// Xeon, family 6 model 207, at its fast phase), ns. It only sets the
/// unit: corrected times read as wall times on such a core.
pub const NOMINAL_NS: f64 = 64_000.0;

/// Round constants of SHA-256 (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// One SHA-256 compression of `block` into `state` (FIPS 180-4 §6.2.2).
fn compress(state: &mut [u32; 8], block: &[u32; 16]) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(block);
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (k, w) in K.iter().zip(w) {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(*k)
            .wrapping_add(w);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        (h, g, f, e) = (g, f, e, d.wrapping_add(t1));
        (d, c, b, a) = (c, b, a, t1.wrapping_add(s0).wrapping_add(maj));
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Time of one probe on the calling thread, ns.
fn probe_ns() -> f64 {
    let t = Instant::now();
    let mut state = std::hint::black_box([1u32, 2, 3, 4, 5, 6, 7, 8]);
    let mut block = std::hint::black_box([0x5c5c_5c5c_u32; 16]);
    for i in 0..BLOCKS {
        compress(&mut state, &block);
        block[i % 16] ^= state[0];
    }
    std::hint::black_box(state);
    t.elapsed().as_nanos() as f64
}

/// Probes on `threads` threads at once (the calling one among them), so
/// a parallel workload sees every core it runs on; the slowest counts.
fn probe_on(threads: usize) -> f64 {
    if threads <= 1 {
        return probe_ns();
    }
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(probe_ns)).collect();
        others
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .fold(probe_ns(), f64::max)
    })
}

/// Probes between measured intervals and corrects each interval by the
/// mean of the probes on either side of it.
pub struct RefClock {
    threads: usize,
    last_ns: f64,
    probes: Vec<f64>,
}

impl RefClock {
    /// A clock probing on `threads` threads; probes once now.
    pub fn new(threads: usize) -> Self {
        let last_ns = probe_on(threads);
        RefClock {
            threads,
            last_ns,
            probes: vec![last_ns],
        }
    }

    /// Probes now and returns the factor for the interval since the
    /// previous probe: `NOMINAL_NS` over the mean of the two.
    pub fn factor(&mut self) -> f64 {
        let now = probe_on(self.threads);
        let mean = (self.last_ns + now) / 2.0;
        self.last_ns = now;
        self.probes.push(now);
        NOMINAL_NS / mean
    }

    /// Every probe so far, ns.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Big-endian words of the one-block message "abc" (FIPS 180-4
    /// example B.1).
    fn abc_block() -> [u32; 16] {
        let mut block = [0u32; 16];
        block[0] = 0x6162_6380;
        block[15] = 24;
        block
    }

    #[test]
    fn compress_matches_the_fips_example() {
        let mut state = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        compress(&mut state, &abc_block());
        assert_eq!(
            state,
            [
                0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223, 0xb00361a3, 0x96177a9c, 0xb410ff61,
                0xf20015ad
            ]
        );
    }

    #[test]
    fn factor_is_nominal_over_the_mean_of_neighbouring_probes() {
        let mut clock = RefClock::new(2);
        let f = clock.factor();
        let p = clock.probes();
        assert_eq!(p.len(), 2);
        assert!((f - NOMINAL_NS * 2.0 / (p[0] + p[1])).abs() < 1e-12);
        assert!(p.iter().all(|&ns| ns > 0.0));
    }
}
