//! Montgomery multiplication for 256-bit odd moduli.
//!
//! The generic [`crate::u256::U256::mul_mod`] performs a full widening
//! multiply followed by Knuth-D division. For repeated multiplication
//! under one fixed modulus — modular exponentiation, i.e. the querier's
//! Fermat inverse and the RSA-free SIES hot path — Montgomery (CIOS)
//! reduction avoids the division entirely. `repro micro`'s `mont256_pow`
//! row times windowed Montgomery exponentiation against the generic
//! `BigUint` path.

use crate::limbs;
use crate::u256::U256;

/// Precomputed context for a fixed odd 256-bit modulus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MontgomeryCtx {
    /// The modulus `p` (odd, > 1).
    p: [u64; 4],
    /// `-p^{-1} mod 2^64`.
    n_prime: u64,
    /// `R² mod p` where `R = 2^256`, used to enter the Montgomery domain.
    r2: U256,
    /// `R mod p` — the Montgomery form of 1, hoisted here so `pow_mod`
    /// does not pay a `to_mont` conversion per call.
    r1: U256,
}

/// Inverse of an odd `x` modulo `2^64` by Newton iteration.
fn inv_mod_2_64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    // 5 iterations double the correct bits from 5 to > 64.
    let mut inv = x; // correct mod 2^5 for odd x? use the classic trick:
    inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

impl MontgomeryCtx {
    /// Builds a context. Panics when `p` is even or < 3.
    pub fn new(p: &U256) -> Self {
        assert!(p.bit(0), "Montgomery requires an odd modulus");
        assert!(p > &U256::ONE, "modulus too small");
        let n_prime = inv_mod_2_64(p.limbs()[0]).wrapping_neg();
        // R mod p, then square it mod p with the generic path (setup-time
        // only).
        let r_mod_p = U256::MAX.rem(p).add_mod(&U256::ONE, p);
        let r2 = r_mod_p.mul_mod(&r_mod_p, p);
        MontgomeryCtx {
            p: p.limbs(),
            n_prime,
            r2,
            r1: r_mod_p,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> U256 {
        U256::from_limbs(self.p)
    }

    /// CIOS Montgomery multiplication: returns `a·b·R⁻¹ mod p` for
    /// Montgomery-domain operands.
    pub fn mont_mul(&self, a: &U256, b: &U256) -> U256 {
        let a = a.limbs();
        let b = b.limbs();
        let p = self.p;
        // t has 6 limbs: 4 + carry space.
        let mut t = [0u64; 6];
        for &bi in &b {
            // t += a * b_i
            let mut carry = 0u64;
            for j in 0..4 {
                let (lo, hi) = limbs::mac(t[j], a[j], bi, carry);
                t[j] = lo;
                carry = hi;
            }
            let (s, c) = limbs::adc(t[4], carry, 0);
            t[4] = s;
            t[5] = c;

            // m = t[0] * n' mod 2^64; t += m * p; t >>= 64.
            let m = t[0].wrapping_mul(self.n_prime);
            let (_, mut carry) = limbs::mac(t[0], m, p[0], 0);
            for j in 1..4 {
                let (lo, hi) = limbs::mac(t[j], m, p[j], carry);
                t[j - 1] = lo;
                carry = hi;
            }
            let (s, c) = limbs::adc(t[4], carry, 0);
            t[3] = s;
            t[4] = t[5].wrapping_add(c);
            t[5] = 0;
        }
        // Final conditional subtraction: t may be in [0, 2p).
        let mut out = [t[0], t[1], t[2], t[3]];
        if t[4] != 0 || limbs::cmp(&out, &p) != core::cmp::Ordering::Less {
            let borrow = limbs::sub_assign(&mut out, &p);
            debug_assert!(t[4] != 0 || borrow == 0);
        }
        U256::from_limbs(out)
    }

    /// Converts into the Montgomery domain: `a·R mod p`.
    pub fn to_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &self.r2)
    }

    /// Converts out of the Montgomery domain: `ā·R⁻¹ mod p`.
    pub fn from_mont(&self, a: &U256) -> U256 {
        self.mont_mul(a, &U256::ONE)
    }

    /// Modular multiplication through the Montgomery domain (one-shot;
    /// only faster than [`U256::mul_mod`] when amortized over many
    /// operations — use [`Self::pow_mod`] for that).
    pub fn mul_mod(&self, a: &U256, b: &U256) -> U256 {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// Modular exponentiation in the Montgomery domain: fixed 4-bit
    /// windows over a precomputed 16-entry power table for long
    /// exponents, plain square-and-multiply for short ones (where the
    /// table build would dominate). The base is only reduced when it is
    /// not already `< p`, and the Montgomery form of 1 comes from the
    /// hoisted `r1` instead of a per-call conversion.
    pub fn pow_mod(&self, base: &U256, exp: &U256) -> U256 {
        let p = self.modulus();
        let base = if base < &p { *base } else { base.rem(&p) };
        if exp.is_zero() {
            return U256::ONE.rem(&p); // p > 1, so this is just 1
        }
        let base_m = self.to_mont(&base);
        let bits = exp.bit_len();
        if bits <= 8 {
            // Short exponents: square-and-multiply seeded from the top
            // bit, no table.
            let mut acc = base_m;
            for i in (0..bits - 1).rev() {
                acc = self.mont_mul(&acc, &acc);
                if exp.bit(i) {
                    acc = self.mont_mul(&acc, &base_m);
                }
            }
            return self.from_mont(&acc);
        }
        // table[i] = base^i in the Montgomery domain.
        let mut table = [self.r1; 16];
        table[1] = base_m;
        for i in 2..16 {
            table[i] = self.mont_mul(&table[i - 1], &base_m);
        }
        let nwindows = bits.div_ceil(4);
        let window = |w: usize| {
            let mut nibble = 0usize;
            for b in 0..4 {
                if exp.bit(w * 4 + b) {
                    nibble |= 1 << b;
                }
            }
            nibble
        };
        let mut acc = table[window(nwindows - 1)];
        for w in (0..nwindows - 1).rev() {
            for _ in 0..4 {
                acc = self.mont_mul(&acc, &acc);
            }
            let nibble = window(w);
            if nibble != 0 {
                acc = self.mont_mul(&acc, &table[nibble]);
            }
        }
        self.from_mont(&acc)
    }

    /// Fermat inverse using Montgomery exponentiation (prime modulus).
    pub fn inv_mod_prime(&self, a: &U256) -> Option<U256> {
        let p = self.modulus();
        let a = a.rem(&p);
        if a.is_zero() {
            return None;
        }
        let exp = p.checked_sub(&U256::from_u64(2)).expect("p >= 3");
        Some(self.pow_mod(&a, &exp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_PRIME_256;

    fn ctx() -> MontgomeryCtx {
        MontgomeryCtx::new(&DEFAULT_PRIME_256)
    }

    #[test]
    fn inv_mod_2_64_small_cases() {
        for x in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FF43, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv_mod_2_64(x)), 1, "x = {x}");
        }
    }

    #[test]
    fn round_trip_through_domain() {
        let c = ctx();
        for v in [0u64, 1, 2, 12345, u64::MAX] {
            let a = U256::from_u64(v);
            assert_eq!(c.from_mont(&c.to_mont(&a)), a, "v = {v}");
        }
    }

    #[test]
    fn mul_matches_generic_path() {
        let c = ctx();
        let p = DEFAULT_PRIME_256;
        let mut x = U256::from_u64(0x1234_5678_9ABC_DEF0);
        let mut y = U256::from_u64(0x0FED_CBA9_8765_4321);
        for i in 0..200 {
            assert_eq!(c.mul_mod(&x, &y), x.mul_mod(&y, &p), "iteration {i}");
            // Evolve operands pseudo-randomly across the full range.
            x = x.mul_mod(&y, &p).add_mod(&U256::ONE, &p);
            y = y.mul_mod(&x, &p);
        }
    }

    #[test]
    fn pow_matches_generic_path() {
        let c = ctx();
        let p = DEFAULT_PRIME_256;
        let base = U256::from_u64(31337);
        for e in [0u64, 1, 2, 3, 65537, u64::MAX] {
            let exp = U256::from_u64(e);
            assert_eq!(c.pow_mod(&base, &exp), base.pow_mod(&exp, &p), "e = {e}");
        }
        // Full-width exponent (Fermat).
        let exp = p.checked_sub(&U256::from_u64(1)).unwrap();
        assert_eq!(c.pow_mod(&base, &exp), U256::ONE);
    }

    #[test]
    fn inverse_matches_fermat() {
        let c = ctx();
        let p = DEFAULT_PRIME_256;
        let a = U256::from_be_bytes(&[0x5A; 32]).rem(&p);
        assert_eq!(c.inv_mod_prime(&a), a.inv_mod_prime(&p));
        assert_eq!(c.inv_mod_prime(&U256::ZERO), None);
    }

    #[test]
    fn works_with_other_odd_moduli() {
        // A 255-bit odd (non-prime is fine for mul) modulus.
        let m = U256::low_mask(255)
            .checked_sub(&U256::from_u64(18))
            .unwrap();
        assert!(m.bit(0));
        let c = MontgomeryCtx::new(&m);
        let a = U256::from_u64(987_654_321).shl(100).rem(&m);
        let b = U256::from_u64(123_456_789).shl(150).rem(&m);
        assert_eq!(c.mul_mod(&a, &b), a.mul_mod(&b, &m));
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        MontgomeryCtx::new(&U256::from_u64(100));
    }
}
