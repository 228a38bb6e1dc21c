//! Primitive-cost calibration: the reproduction's Table II.
//!
//! The paper's cost models (§V) are parameterized by the costs of nine
//! primitive operations measured on the authors' 2.66 GHz Core i7. We
//! measure the same nine primitives on the current host with our own
//! implementations, then feed either set into the same equations.

use crate::timing::time_mean_us;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use sies_baselines::sketch::FmSketch;
use sies_crypto::biguint::BigUint;
use sies_crypto::prf;
use sies_crypto::rsa::RsaPublicKey;
use sies_crypto::u256::U256;
use sies_crypto::DEFAULT_PRIME_256;

/// The nine primitive costs of Table II, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PrimitiveCosts {
    /// `C_sk`: one sketch insertion.
    pub c_sk: f64,
    /// `C_RSA`: one 1024-bit raw RSA encryption (e = 3).
    pub c_rsa: f64,
    /// `C_HM1`: one HMAC-SHA-1.
    pub c_hm1: f64,
    /// `C_HM256`: one HMAC-SHA-256.
    pub c_hm256: f64,
    /// `C_A20`: 20-byte modular addition.
    pub c_a20: f64,
    /// `C_A32`: 32-byte modular addition.
    pub c_a32: f64,
    /// `C_M32`: 32-byte modular multiplication.
    pub c_m32: f64,
    /// `C_M128`: 128-byte modular multiplication.
    pub c_m128: f64,
    /// `C_MI32`: 32-byte modular multiplicative inverse.
    pub c_mi32: f64,
}

/// Wire sizes of Table II, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WireSizes {
    /// `S_sk`: one sketch value.
    pub s_sk: usize,
    /// `S_inf`: one inflation certificate.
    pub s_inf: usize,
    /// `S_SEAL`: one SEAL (RSA modulus width).
    pub s_seal: usize,
}

impl WireSizes {
    /// The paper's sizes: 1 B sketches, 20 B certificates, 128 B SEALs.
    pub const PAPER: WireSizes = WireSizes {
        s_sk: 1,
        s_inf: 20,
        s_seal: 128,
    };
}

impl PrimitiveCosts {
    /// The paper's Table II typical values (µs, 2.66 GHz Core i7,
    /// GNU MP + OpenSSL).
    pub const PAPER: PrimitiveCosts = PrimitiveCosts {
        c_sk: 0.037,
        c_rsa: 5.36,
        c_hm1: 0.46,
        c_hm256: 1.02,
        c_a20: 0.15,
        c_a32: 0.37,
        c_m32: 0.45,
        c_m128: 1.39,
        c_mi32: 3.2,
    };

    /// Measures all nine primitives on this host using this repository's
    /// implementations. `quick` trades some precision for speed (used by
    /// tests).
    pub fn calibrate(quick: bool) -> PrimitiveCosts {
        let iters = if quick { 2_000 } else { 50_000 };
        let mut rng = StdRng::seed_from_u64(0xCA11_B8A7E);

        // Operands representative of protocol state.
        let p256 = DEFAULT_PRIME_256;
        let a32 = U256::from_be_bytes(&[0xA7; 32]).rem(&p256);
        let b32 = U256::from_be_bytes(&[0x5C; 32]).rem(&p256);
        let n160 = U256::ONE.shl(160);
        let a20 = a32.rem(&n160);
        let b20 = b32.rem(&n160);
        let key20 = [0x42u8; 20];

        // RSA with the paper's 1024-bit modulus.
        let rsa = RsaPublicKey::generate(&mut rng, 1024);
        let msg = BigUint::from_be_bytes(&[0x31; 100]);
        let n128 = rsa.modulus().clone();
        let x128 = msg.rem(&n128);
        let y128 = BigUint::from_be_bytes(&[0x77; 120]).rem(&n128);

        // C_sk measured as amortized per-item insertion cost (SECOA's
        // J·v term inserts items in bulk, so the loop is what matters).
        let c_sk = {
            let batch = 10_000u64;
            time_mean_us(iters / 100 + 1, || {
                let mut s = FmSketch::new();
                s.insert_value(1, 2, std::hint::black_box(batch));
                s
            }) / batch as f64
        };
        let c_rsa = time_mean_us(iters / 4 + 1, || rsa.encrypt(std::hint::black_box(&x128)));
        let mut t = 0u64;
        let c_hm1 = time_mean_us(iters, || {
            t = t.wrapping_add(1);
            prf::hm1_epoch(&key20, t)
        });
        let c_hm256 = time_mean_us(iters, || {
            t = t.wrapping_add(1);
            prf::hm256_epoch(&key20, t)
        });
        // black_box the operands (not just the result) so LLVM cannot
        // hoist the loop-invariant computation out of the timing loop.
        use std::hint::black_box;
        let c_a20 = time_mean_us(iters * 4, || {
            black_box(&a20).add_mod(black_box(&b20), &n160)
        });
        let c_a32 = time_mean_us(iters * 4, || {
            black_box(&a32).add_mod(black_box(&b32), &p256)
        });
        let c_m32 = time_mean_us(iters * 2, || {
            black_box(&a32).mul_mod(black_box(&b32), &p256)
        });
        let c_m128 = time_mean_us(iters, || black_box(&x128).mul_mod(black_box(&y128), &n128));
        // Euclid-based inverse, matching how the paper's C_MI32 was
        // measured (GMP mpz_invert); the querier's own K_t inverse is a
        // Fermat exponentiation on a prebuilt context (DESIGN.md §8).
        let c_mi32 = time_mean_us(iters / 10 + 1, || black_box(&a32).inv_mod_euclid(&p256));

        PrimitiveCosts {
            c_sk,
            c_rsa,
            c_hm1,
            c_hm256,
            c_a20,
            c_a32,
            c_m32,
            c_m128,
            c_mi32,
        }
    }

    /// All costs as (symbol, value) pairs for reporting.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("C_sk", self.c_sk),
            ("C_RSA", self.c_rsa),
            ("C_HM1", self.c_hm1),
            ("C_HM256", self.c_hm256),
            ("C_A20", self.c_a20),
            ("C_A32", self.c_a32),
            ("C_M32", self.c_m32),
            ("C_M128", self.c_m128),
            ("C_MI32", self.c_mi32),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each constant's minimum over `runs`.
    fn minima(runs: &[PrimitiveCosts]) -> PrimitiveCosts {
        let min = |f: fn(&PrimitiveCosts) -> f64| runs.iter().map(f).fold(f64::INFINITY, f64::min);
        PrimitiveCosts {
            c_sk: min(|c| c.c_sk),
            c_rsa: min(|c| c.c_rsa),
            c_hm1: min(|c| c.c_hm1),
            c_hm256: min(|c| c.c_hm256),
            c_a20: min(|c| c.c_a20),
            c_a32: min(|c| c.c_a32),
            c_m32: min(|c| c.c_m32),
            c_m128: min(|c| c.c_m128),
            c_mi32: min(|c| c.c_mi32),
        }
    }

    #[test]
    fn calibration_produces_positive_ordered_costs() {
        let runs: Vec<PrimitiveCosts> = (0..3).map(|_| PrimitiveCosts::calibrate(true)).collect();
        for c in &runs {
            for (name, v) in c.rows() {
                assert!(v > 0.0, "{name} non-positive: {v}");
                assert!(v < 10_000.0, "{name} implausibly slow: {v} µs");
            }
        }
        // The orderings compare per-constant minima over the runs: a
        // loaded test runner's preemption only lengthens a measurement,
        // so the minimum is the estimate contention disturbs least.
        let c = minima(&runs);
        // Structural orderings that must hold on any host:
        assert!(
            c.c_rsa > c.c_m128,
            "RSA(e=3) is at least two 128-byte modmuls"
        );
        assert!(c.c_m128 > c.c_m32, "1024-bit modmul slower than 256-bit");
        assert!(c.c_mi32 > c.c_m32, "inverse slower than one multiplication");
        assert!(c.c_sk < c.c_hm1, "sketch insertion cheaper than an HMAC");
        assert!(
            c.c_a32 < c.c_m32,
            "modular addition cheaper than multiplication"
        );
    }

    #[test]
    fn paper_constants_match_table_ii() {
        let p = PrimitiveCosts::PAPER;
        assert_eq!(p.c_rsa, 5.36);
        assert_eq!(p.c_hm1, 0.46);
        assert_eq!(WireSizes::PAPER.s_seal, 128);
    }
}
