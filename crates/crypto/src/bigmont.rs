//! Variable-width Montgomery multiplication for [`crate::biguint::BigUint`].
//!
//! The fixed-width [`crate::mont::MontgomeryCtx`] serves the 256-bit SIES
//! hot path; this module brings the same CIOS reduction to the SECOA
//! baseline's big moduli — its 1024/2048-bit RSA SEAL chains — where the
//! generic `BigUint::mul_mod` pays a full Knuth-D division per product. A context is built once per modulus and
//! shared by every exponentiation, fold, and chain under it.
//!
//! Three kernels on top of the CIOS core:
//!
//! * [`BigMontCtx::pow_mod`] — fixed-window (w = 4) exponentiation over a
//!   16-entry power table, one domain round-trip per call;
//! * [`BigMontCtx::chain_pow_mod`] — `base^(e^k) mod m` for SEAL rolling:
//!   the whole chain stays in the Montgomery domain, so `k` rolling steps
//!   cost `2k` CIOS multiplications instead of `k` cold `pow_mod` calls
//!   with their conversions and divisions;
//! * [`MontAccumulator`] — division-free running products (SEAL folding,
//!   the verifier's seed product). Products are accumulated with plain
//!   CIOS multiplies, each of which leaves a stray `R⁻¹` factor; the
//!   accumulator counts them and cancels them all with a single
//!   `O(log k)` fix-up at the end.
//!
//! None of this is constant-time; see DESIGN.md §"Crypto kernels" for why
//! that is out of scope for this simulation.

use crate::biguint::BigUint;
use crate::limbs;
use core::cmp::Ordering;
use sies_telemetry as tel;

/// Window width for fixed-window exponentiation.
pub(crate) const WINDOW_BITS: usize = 4;
/// Exponents at or below this bit length skip the window table: for tiny
/// exponents (RSA's `e = 3`) the table build costs more than it saves.
pub(crate) const SMALL_EXP_BITS: usize = 2 * WINDOW_BITS;

/// Precomputed Montgomery context for a fixed odd modulus of any width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigMontCtx {
    /// The modulus `m` (odd, > 1), exactly `width` limbs, top limb
    /// non-zero.
    m: Vec<u64>,
    /// `-m^{-1} mod 2^64`.
    n_prime: u64,
    /// `R² mod m` where `R = 2^(64·width)`.
    r2: Vec<u64>,
    /// `R mod m` — the Montgomery form of 1 (hoisted here so `pow_mod`
    /// does not re-derive it per call).
    r1: Vec<u64>,
}

/// Inverse of an odd `x` modulo `2^64` by Newton iteration.
fn inv_mod_2_64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

impl BigMontCtx {
    /// Builds a context for `m`. Panics when `m` is even or < 3.
    pub fn new(m: &BigUint) -> Self {
        assert!(m.is_odd(), "Montgomery requires an odd modulus");
        assert!(m.bit_len() > 1, "modulus too small");
        let width = m.limbs().len();
        let n_prime = inv_mod_2_64(m.limbs()[0]).wrapping_neg();
        // R mod m and R² mod m via the generic path (setup-time only).
        let r = BigUint::one().shl(64 * width).rem(m);
        let r2 = r.mul_mod(&r, m);
        BigMontCtx {
            m: m.limbs().to_vec(),
            n_prime,
            r2: to_width(&r2, width),
            r1: to_width(&r, width),
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> BigUint {
        BigUint::from_limbs(self.m.clone())
    }

    /// Limb width of the fixed-size Montgomery representation.
    pub fn width(&self) -> usize {
        self.m.len()
    }

    /// CIOS Montgomery multiplication on `width`-limb operands:
    /// `out = a·b·R⁻¹ mod m`. `t` is scratch of `width + 2` limbs.
    ///
    /// The multiply and reduce passes of each row are fused: `t` is read
    /// and written once per row instead of twice, with the two carry
    /// chains (`a·b_i` and `u·m`) carried in registers. For `a, b < m`
    /// the running value stays below `2m`, so the overflow beyond the
    /// `n` stored limbs is a single bit (`t_hi`).
    pub(crate) fn cios(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        let n = self.m.len();
        debug_assert!(a.len() == n && b.len() == n && t.len() >= n && out.len() == n);
        let m = &self.m[..n];
        let a = &a[..n];
        let t = &mut t[..n];
        for limb in t.iter_mut() {
            *limb = 0;
        }
        let mut t_hi = 0u64;
        for &bi in b {
            let (t0, mut carry_a) = limbs::mac(t[0], a[0], bi, 0);
            let u = t0.wrapping_mul(self.n_prime);
            let (_, mut carry_m) = limbs::mac(t0, u, m[0], 0);
            for j in 1..n {
                let (tj, ca) = limbs::mac(t[j], a[j], bi, carry_a);
                carry_a = ca;
                let (lo, cm) = limbs::mac(tj, u, m[j], carry_m);
                carry_m = cm;
                t[j - 1] = lo;
            }
            let (s, c) = limbs::adc(t_hi, carry_a, carry_m);
            t[n - 1] = s;
            t_hi = c;
        }
        out.copy_from_slice(t);
        // Final conditional subtraction: the result is in [0, 2m).
        if t_hi != 0 || limbs::cmp(out, m) != Ordering::Less {
            let borrow = limbs::sub_assign(out, m);
            debug_assert!(t_hi != 0 || borrow == 0);
        }
    }

    /// Reduces `a` mod `m` and pads to the fixed width.
    pub(crate) fn reduce(&self, a: &BigUint) -> Vec<u64> {
        let n = self.m.len();
        if limbs::cmp(a.limbs(), &self.m) == Ordering::Less {
            to_width(a, n)
        } else {
            to_width(&a.div_rem(&self.modulus()).1, n)
        }
    }

    /// Converts into the Montgomery domain: `a·R mod m` (reducing first
    /// when `a ≥ m`).
    pub(crate) fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        let a = self.reduce(a);
        let n = self.m.len();
        let mut t = vec![0u64; n + 2];
        let mut out = vec![0u64; n];
        self.cios(&a, &self.r2, &mut t, &mut out);
        out
    }

    /// Converts out of the Montgomery domain into a canonical `BigUint`.
    // Named for symmetry with `to_mont` (and `MontgomeryCtx::from_mont`):
    // it converts *out of* a representation, not *from* a source type.
    #[allow(clippy::wrong_self_convention)]
    pub(crate) fn from_mont(&self, a: &[u64]) -> BigUint {
        let n = self.m.len();
        let one = one_limbs(n);
        let mut t = vec![0u64; n + 2];
        let mut out = vec![0u64; n];
        self.cios(a, &one, &mut t, &mut out);
        BigUint::from_limbs(out)
    }

    /// Modular multiplication through the Montgomery domain. One-shot —
    /// only pays off when amortized; use [`Self::pow_mod`] or
    /// [`MontAccumulator`] for repeated work.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        let n = self.m.len();
        let mut t = vec![0u64; n + 2];
        let mut out = vec![0u64; n];
        self.cios(&am, &bm, &mut t, &mut out);
        self.from_mont(&out)
    }

    /// In-domain exponentiation: given `base` in Montgomery form, returns
    /// `base^exp` still in Montgomery form. Fixed 4-bit windows above
    /// [`SMALL_EXP_BITS`], plain square-and-multiply below.
    ///
    /// `mults` accrues the exact CIOS multiply count, flushed to
    /// telemetry once per public call — a local `u64` add per multiply,
    /// never an atomic in the inner loop.
    fn pow_in_domain(&self, base_m: &[u64], exp: &BigUint, mults: &mut u64) -> Vec<u64> {
        let n = self.m.len();
        let mut t = vec![0u64; n + 2];
        if exp.is_zero() {
            return self.r1.clone();
        }
        let bits = exp.bit_len();
        let mut acc = vec![0u64; n];
        let mut tmp = vec![0u64; n];
        if bits <= SMALL_EXP_BITS {
            // Left-to-right square-and-multiply seeded with the top bit.
            acc.copy_from_slice(base_m);
            for i in (0..bits - 1).rev() {
                self.cios(&acc, &acc, &mut t, &mut tmp);
                core::mem::swap(&mut acc, &mut tmp);
                *mults += 1;
                if exp.bit(i) {
                    self.cios(&acc, base_m, &mut t, &mut tmp);
                    core::mem::swap(&mut acc, &mut tmp);
                    *mults += 1;
                }
            }
            return acc;
        }
        // Precompute base^0 .. base^15 in the Montgomery domain.
        let mut table = Vec::with_capacity(1 << WINDOW_BITS);
        table.push(self.r1.clone());
        table.push(base_m.to_vec());
        for i in 2..(1 << WINDOW_BITS) {
            let mut next = vec![0u64; n];
            self.cios(&table[i - 1], base_m, &mut t, &mut next);
            table.push(next);
        }
        *mults += (1 << WINDOW_BITS) - 2;
        let nwindows = bits.div_ceil(WINDOW_BITS);
        // Seed with the top window to skip its four leading squarings.
        acc.copy_from_slice(&table[window_of(exp, nwindows - 1)]);
        for w in (0..nwindows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                self.cios(&acc, &acc, &mut t, &mut tmp);
                core::mem::swap(&mut acc, &mut tmp);
            }
            *mults += WINDOW_BITS as u64;
            let nibble = window_of(exp, w);
            if nibble != 0 {
                self.cios(&acc, &table[nibble], &mut t, &mut tmp);
                core::mem::swap(&mut acc, &mut tmp);
                *mults += 1;
            }
        }
        acc
    }

    /// Modular exponentiation `base^exp mod m` with fixed 4-bit windows.
    /// Bit-identical to [`BigUint::pow_mod`] over this modulus.
    pub fn pow_mod(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one(); // m > 1, so 1 is canonical
        }
        let base_m = self.to_mont(base);
        let mut mults = 0u64;
        let acc = self.pow_in_domain(&base_m, exp, &mut mults);
        tel::count!("crypto.mont.pow_calls");
        tel::count!("crypto.mont.cios_mults", mults);
        self.from_mont(&acc)
    }

    /// Chain exponentiation `base^(e^k) mod m`: applies `x ← x^e` `k`
    /// times without ever leaving the Montgomery domain — the SEAL
    /// rolling kernel (`k` raw-RSA encryptions with `e = 3` cost `2k`
    /// CIOS multiplies total).
    pub fn chain_pow_mod(&self, base: &BigUint, e: &BigUint, k: u64) -> BigUint {
        if k == 0 {
            return self.reduce_value(base);
        }
        let mut x = self.to_mont(base);
        let mut mults = 0u64;
        for _ in 0..k {
            x = self.pow_in_domain(&x, e, &mut mults);
        }
        tel::count!("crypto.mont.chain_calls");
        tel::count!("crypto.mont.cios_mults", mults);
        self.from_mont(&x)
    }

    /// `a mod m` (public convenience; uses the fast compare-first path).
    pub fn reduce_value(&self, a: &BigUint) -> BigUint {
        BigUint::from_limbs(self.reduce(a))
    }

    /// Starts a division-free running product under this modulus.
    pub fn accumulator(&self) -> MontAccumulator<'_> {
        MontAccumulator {
            ctx: self,
            acc: None,
            t: vec![0u64; self.m.len() + 2],
            tmp: vec![0u64; self.m.len()],
            pending_r: 0,
        }
    }

    /// Product of a sequence of values mod `m`, via [`MontAccumulator`].
    pub fn product_mod<'a>(&self, values: impl IntoIterator<Item = &'a BigUint>) -> BigUint {
        let mut acc = self.accumulator();
        for v in values {
            acc.mul(v);
        }
        acc.finish()
    }

    /// View of the fixed-width modulus limbs (for the IFMA batch kernels
    /// in [`crate::bigmont52`]).
    pub(crate) fn m_limbs(&self) -> &[u64] {
        &self.m
    }

    /// `-m^{-1} mod 2^64` (see [`crate::bigmont52`]).
    pub(crate) fn n_prime(&self) -> u64 {
        self.n_prime
    }

    /// `R^(j+1) mod m` in the sense of the accumulator fix-up: returns
    /// the limb vector `X` with `X = R^(j+1) mod m`, computed with
    /// `O(log j)` CIOS multiplies. `j = 0` gives `R mod m` (= `r1`).
    pub(crate) fn r_power(&self, j: u64) -> Vec<u64> {
        // Under CIOS multiplication, R^a ∘ R^b = R^(a+b-1): exponents
        // shifted by one form a monoid with identity r1 = R^1. Classic
        // square-and-multiply over that monoid computes R^(j+1).
        let n = self.m.len();
        let mut t = vec![0u64; n + 2];
        let mut result = self.r1.clone(); // R^1
        let mut sq = self.r2.clone(); // R^2
        let mut tmp = vec![0u64; n];
        let mut rem = j;
        while rem > 0 {
            if rem & 1 == 1 {
                self.cios(&result, &sq, &mut t, &mut tmp);
                core::mem::swap(&mut result, &mut tmp);
            }
            rem >>= 1;
            if rem > 0 {
                self.cios(&sq, &sq, &mut t, &mut tmp);
                core::mem::swap(&mut sq, &mut tmp);
            }
        }
        result
    }
}

/// Division-free running product mod `m`.
///
/// Each [`MontAccumulator::mul`] is a single CIOS multiply on the *plain*
/// (non-Montgomery) operands, which multiplies a stray `R⁻¹` into the
/// accumulator; [`MontAccumulator::finish`] cancels the accumulated
/// `R^-(k-1)` with one `O(log k)` fix-up. Compared with the generic
/// `mul_mod` fold (full widening multiply + Knuth-D division per element)
/// this is one tight CIOS pass per element.
pub struct MontAccumulator<'a> {
    ctx: &'a BigMontCtx,
    /// Current product, fixed width; `None` until the first `mul`.
    acc: Option<Vec<u64>>,
    t: Vec<u64>,
    tmp: Vec<u64>,
    /// Number of `R⁻¹` factors to cancel at the end.
    pending_r: u64,
}

impl MontAccumulator<'_> {
    /// Multiplies `v` into the running product.
    pub fn mul(&mut self, v: &BigUint) {
        let v = self.ctx.reduce(v);
        match &mut self.acc {
            None => self.acc = Some(v),
            Some(acc) => {
                self.ctx.cios(acc, &v, &mut self.t, &mut self.tmp);
                core::mem::swap(acc, &mut self.tmp);
                self.pending_r += 1;
            }
        }
    }

    /// The product of everything multiplied in so far (1 when empty).
    pub fn finish(self) -> BigUint {
        let Some(acc) = self.acc else {
            return BigUint::one();
        };
        if self.pending_r == 0 {
            return BigUint::from_limbs(acc);
        }
        // acc = Πv · R^-(pending); multiply by R^(pending+1) under CIOS
        // (which eats one more R) to cancel exactly.
        let fix = self.ctx.r_power(self.pending_r);
        let n = self.ctx.m.len();
        let mut t = vec![0u64; n + 2];
        let mut out = vec![0u64; n];
        self.ctx.cios(&acc, &fix, &mut t, &mut out);
        BigUint::from_limbs(out)
    }
}

/// Pads `a`'s limbs to exactly `width` (a must fit).
pub(crate) fn to_width(a: &BigUint, width: usize) -> Vec<u64> {
    let mut out = vec![0u64; width];
    out[..a.limbs().len()].copy_from_slice(a.limbs());
    out
}

/// The value 1 as a `width`-limb vector.
fn one_limbs(width: usize) -> Vec<u64> {
    let mut v = vec![0u64; width];
    v[0] = 1;
    v
}

/// The `w`-th 4-bit window of `exp` (window 0 is least significant).
pub(crate) fn window_of(exp: &BigUint, w: usize) -> usize {
    let mut nibble = 0usize;
    for b in 0..WINDOW_BITS {
        if exp.bit(w * WINDOW_BITS + b) {
            nibble |= 1 << b;
        }
    }
    nibble
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn modulus_1024(rng: &mut StdRng) -> BigUint {
        // Any odd 1024-bit value works for multiplication tests.
        let mut m = BigUint::random_bits(rng, 1024);
        if m.is_even() {
            m = m.add(&BigUint::one());
        }
        m
    }

    #[test]
    fn round_trip_through_domain() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = modulus_1024(&mut rng);
        let ctx = BigMontCtx::new(&m);
        for bits in [1usize, 17, 64, 500, 1023] {
            let a = BigUint::random_bits(&mut rng, bits);
            let am = ctx.to_mont(&a);
            assert_eq!(ctx.from_mont(&am), a.rem(&m), "bits = {bits}");
        }
    }

    #[test]
    fn mul_matches_generic() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = modulus_1024(&mut rng);
        let ctx = BigMontCtx::new(&m);
        for _ in 0..20 {
            let a = BigUint::random_bits(&mut rng, 1400); // unreduced on purpose
            let b = BigUint::random_bits(&mut rng, 900);
            assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &m));
        }
    }

    #[test]
    fn pow_matches_generic() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = modulus_1024(&mut rng);
        let ctx = BigMontCtx::new(&m);
        let base = BigUint::random_bits(&mut rng, 800);
        for e in [0u64, 1, 2, 3, 15, 16, 17, 65537, u64::MAX] {
            let e = BigUint::from_u64(e);
            assert_eq!(ctx.pow_mod(&base, &e), base.pow_mod(&e, &m), "e = {e:?}");
        }
        // Full-width exponent.
        let e = BigUint::random_bits(&mut rng, 1024);
        assert_eq!(ctx.pow_mod(&base, &e), base.pow_mod(&e, &m));
        // Edge exponents 2^k - 1 (all-ones windows).
        for k in [63usize, 64, 127, 129] {
            let e = BigUint::one().shl(k).sub(&BigUint::one());
            assert_eq!(ctx.pow_mod(&base, &e), base.pow_mod(&e, &m), "k = {k}");
        }
    }

    #[test]
    fn chain_matches_repeated_pow() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = modulus_1024(&mut rng);
        let ctx = BigMontCtx::new(&m);
        let base = BigUint::random_bits(&mut rng, 1000);
        let e = BigUint::from_u64(3);
        for k in [0u64, 1, 2, 7, 20] {
            let mut expect = base.rem(&m);
            for _ in 0..k {
                expect = expect.pow_mod(&e, &m);
            }
            assert_eq!(ctx.chain_pow_mod(&base, &e, k), expect, "k = {k}");
        }
    }

    #[test]
    fn accumulator_matches_generic_fold() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = modulus_1024(&mut rng);
        let ctx = BigMontCtx::new(&m);
        for count in [0usize, 1, 2, 3, 17, 64] {
            let values: Vec<BigUint> = (0..count)
                .map(|_| BigUint::random_bits(&mut rng, 1024))
                .collect();
            let mut expect = BigUint::one();
            for v in &values {
                expect = expect.mul_mod(v, &m);
            }
            assert_eq!(ctx.product_mod(values.iter()), expect, "count = {count}");
        }
    }

    #[test]
    fn works_at_small_widths() {
        // Single-limb and two-limb moduli exercise the width edges.
        for m in [3u64, 97, 1_000_000_007, u64::MAX - 58 /* odd */] {
            let m = BigUint::from_u64(m);
            let ctx = BigMontCtx::new(&m);
            let a = BigUint::from_u64(0xdead_beef_1234_5678);
            let e = BigUint::from_u64(31337);
            assert_eq!(ctx.pow_mod(&a, &e), a.pow_mod(&e, &m));
        }
        let m = BigUint::from_u128(u128::MAX - 56); // odd, two limbs
        let ctx = BigMontCtx::new(&m);
        let a = BigUint::from_u128(u128::MAX - 4);
        assert_eq!(ctx.mul_mod(&a, &a), a.mul_mod(&a, &m), "two-limb modulus");
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        BigMontCtx::new(&BigUint::from_u64(100));
    }
}
