//! Fixed-width 256-bit unsigned integers and the 512-bit intermediate type.
//!
//! SIES works in `Z_p` for a 256-bit prime `p` (ciphertexts, keys and
//! plaintexts are all 32 bytes, matching the paper's implementation). The
//! hot path — one modular multiplication and one modular addition per source
//! per epoch — runs on this allocation-free type rather than the
//! heap-backed [`crate::biguint::BigUint`].

use crate::limbs;
use core::cmp::Ordering;
use core::fmt;

/// A 256-bit unsigned integer stored as four little-endian `u64` limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    limbs: [u64; 4],
}

/// A 512-bit unsigned integer; the result type of a full 256×256-bit
/// multiplication before modular reduction.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U512 {
    limbs: [u64; 8],
}

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value 1.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256 {
        limbs: [u64::MAX; 4],
    };

    /// Constructs from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// The little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Constructs from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Constructs from a `u128`.
    pub const fn from_u128(v: u128) -> Self {
        U256 {
            limbs: [v as u64, (v >> 64) as u64, 0, 0],
        }
    }

    /// Interprets 32 big-endian bytes (the wire format used throughout the
    /// paper: keys, ciphertexts and plaintexts are all 32-byte strings).
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[3 - i] = u64::from_be_bytes(chunk.try_into().unwrap());
        }
        U256 { limbs }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.limbs[3 - i].to_be_bytes());
        }
        out
    }

    /// Truncates to the low 64 bits.
    pub const fn as_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Truncates to the low 128 bits.
    pub const fn as_u128(&self) -> u128 {
        (self.limbs[1] as u128) << 64 | self.limbs[0] as u128
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Number of significant bits.
    pub fn bit_len(&self) -> usize {
        limbs::bit_len(&self.limbs)
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Wrapping addition with a carry-out flag.
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0;
        for (i, o) in out.iter_mut().enumerate() {
            let (s, c) = limbs::adc(self.limbs[i], rhs.limbs[i], carry);
            *o = s;
            carry = c;
        }
        (U256 { limbs: out }, carry != 0)
    }

    /// Wrapping subtraction with a borrow-out flag.
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0;
        for (i, o) in out.iter_mut().enumerate() {
            let (d, b) = limbs::sbb(self.limbs[i], rhs.limbs[i], borrow);
            *o = d;
            borrow = b;
        }
        (U256 { limbs: out }, borrow != 0)
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(&self, rhs: &U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(&self, rhs: &U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Full 256×256 → 512-bit multiplication.
    pub fn widening_mul(&self, rhs: &U256) -> U512 {
        let mut out = [0u64; 8];
        limbs::mul(&mut out, &self.limbs, &rhs.limbs);
        U512 { limbs: out }
    }

    /// Left shift by `sh` bits, discarding bits shifted past 2^256.
    pub fn shl(&self, sh: usize) -> U256 {
        if sh >= 256 {
            return U256::ZERO;
        }
        let limb_sh = sh / 64;
        let bit_sh = (sh % 64) as u32;
        let mut out = [0u64; 4];
        for i in (0..4).rev() {
            if i < limb_sh {
                break;
            }
            let src = i - limb_sh;
            let mut v = self.limbs[src] << bit_sh;
            if bit_sh > 0 && src > 0 {
                v |= self.limbs[src - 1] >> (64 - bit_sh);
            }
            out[i] = v;
        }
        U256 { limbs: out }
    }

    /// Logical right shift by `sh` bits.
    pub fn shr(&self, sh: usize) -> U256 {
        if sh >= 256 {
            return U256::ZERO;
        }
        let limb_sh = sh / 64;
        let bit_sh = (sh % 64) as u32;
        let mut out = [0u64; 4];
        for (i, o) in out.iter_mut().enumerate() {
            let src = i + limb_sh;
            if src >= 4 {
                break;
            }
            let mut v = self.limbs[src] >> bit_sh;
            if bit_sh > 0 && src + 1 < 4 {
                v |= self.limbs[src + 1] << (64 - bit_sh);
            }
            *o = v;
        }
        U256 { limbs: out }
    }

    /// Bitwise AND.
    pub fn and(&self, rhs: &U256) -> U256 {
        let mut out = [0u64; 4];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.limbs[i] & rhs.limbs[i];
        }
        U256 { limbs: out }
    }

    /// A mask with the low `bits` bits set.
    pub fn low_mask(bits: usize) -> U256 {
        if bits >= 256 {
            return U256::MAX;
        }
        let mut out = [0u64; 4];
        for (i, limb) in out.iter_mut().enumerate() {
            let lo = i * 64;
            if bits >= lo + 64 {
                *limb = u64::MAX;
            } else if bits > lo {
                *limb = (1u64 << (bits - lo)) - 1;
            }
        }
        U256 { limbs: out }
    }

    /// `self mod m`. Panics if `m` is zero.
    pub fn rem(&self, m: &U256) -> U256 {
        if self < m {
            return *self;
        }
        let (_, r) = limbs::div_rem(&self.limbs, &m.limbs);
        U256::from_limb_slice(&r)
    }

    /// Modular addition `(self + rhs) mod m`. Both operands must already be
    /// reduced (`< m`); this is the aggregator's merge operation.
    pub fn add_mod(&self, rhs: &U256, m: &U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (sum, carry) = self.overflowing_add(rhs);
        if carry || &sum >= m {
            // At most one subtraction suffices because both inputs are < m.
            let (d, _) = sum.overflowing_sub(m);
            d
        } else {
            sum
        }
    }

    /// Modular subtraction `(self - rhs) mod m` with reduced operands.
    pub fn sub_mod(&self, rhs: &U256, m: &U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (d, borrow) = self.overflowing_sub(rhs);
        if borrow {
            let (fixed, _) = d.overflowing_add(m);
            fixed
        } else {
            d
        }
    }

    /// Modular multiplication `(self * rhs) mod m` via a full widening
    /// multiply and Knuth-D reduction.
    pub fn mul_mod(&self, rhs: &U256, m: &U256) -> U256 {
        let wide = self.widening_mul(rhs);
        wide.rem(m)
    }

    /// Modular exponentiation `self^exp mod m` (square-and-multiply,
    /// most-significant-bit first). For odd moduli and long exponents the
    /// squaring chain runs in the Montgomery domain, avoiding one Knuth-D
    /// division per multiplication (see the `ablation` bench).
    pub fn pow_mod(&self, exp: &U256, m: &U256) -> U256 {
        assert!(!m.is_zero(), "zero modulus");
        if m == &U256::ONE {
            return U256::ZERO;
        }
        // Montgomery pays off once the context setup (one division) is
        // amortized over several multiplications.
        if m.bit(0) && exp.bit_len() > 8 {
            return crate::mont::MontgomeryCtx::new(m).pow_mod(self, exp);
        }
        let base = self.rem(m);
        let mut acc = U256::ONE;
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            acc = acc.mul_mod(&acc, m);
            if exp.bit(i) {
                acc = acc.mul_mod(&base, m);
            }
        }
        acc
    }

    /// Multiplicative inverse modulo a **prime** `p`, via Fermat's little
    /// theorem (`a^{p-2} mod p`). This is the querier's `K_t^{-1}`
    /// computation (cost `C_MI32` in the paper's Table II).
    ///
    /// Returns `None` when `self ≡ 0 (mod p)`.
    pub fn inv_mod_prime(&self, p: &U256) -> Option<U256> {
        let a = self.rem(p);
        if a.is_zero() {
            return None;
        }
        let two = U256::from_u64(2);
        let exp = p.checked_sub(&two).expect("prime modulus >= 2");
        Some(a.pow_mod(&exp, p))
    }

    /// Multiplicative inverse via the extended Euclidean algorithm over
    /// [`crate::biguint::BigUint`] — works for any modulus with
    /// `gcd(self, m) = 1` (not just primes), but allocates, and its
    /// running time depends on `self`. For a prime modulus the Fermat
    /// inverse of a prebuilt [`crate::mont::MontgomeryCtx`] is about
    /// twice as fast (12–16 µs against 28–42 µs over 400 epoch keys on a
    /// shared 2-vCPU AVX-512 host) and is what the SIES epoch path uses.
    /// The paper's `C_MI32` constant was measured with GMP's Euclid-based
    /// inverse, so the cost-model calibration times this one.
    pub fn inv_mod_euclid(&self, m: &U256) -> Option<U256> {
        let a = crate::biguint::BigUint::from(self);
        let m_big = crate::biguint::BigUint::from(m);
        a.mod_inverse(&m_big).map(|inv| inv.to_u256())
    }

    fn from_limb_slice(s: &[u64]) -> U256 {
        let mut limbs = [0u64; 4];
        limbs[..s.len()].copy_from_slice(s);
        U256 { limbs }
    }
}

impl U512 {
    /// The little-endian limbs.
    pub const fn limbs(&self) -> [u64; 8] {
        self.limbs
    }

    /// Constructs from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 8]) -> Self {
        U512 { limbs }
    }

    /// Reduces modulo a 256-bit modulus.
    pub fn rem(&self, m: &U256) -> U256 {
        let (_, r) = limbs::div_rem(&self.limbs, &m.limbs());
        U256::from_limb_slice(&r)
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        limbs::cmp(&self.limbs, &other.limbs)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x")?;
        for b in self.to_be_bytes() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for U256 {
    /// Lower-case hex without leading zeros.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.to_be_bytes();
        let mut started = false;
        for b in bytes {
            if !started {
                if b == 0 {
                    continue;
                }
                started = true;
                write!(f, "{b:x}")?;
            } else {
                write!(f, "{b:02x}")?;
            }
        }
        if !started {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u128) -> U256 {
        U256::from_u128(v)
    }

    #[test]
    fn byte_round_trip() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = i as u8;
        }
        let x = U256::from_be_bytes(&bytes);
        assert_eq!(x.to_be_bytes(), bytes);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(u(1) < u(2));
        assert!(
            U256::from_limbs([0, 0, 0, 1]) > U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0])
        );
    }

    #[test]
    fn add_overflow_detected() {
        let (_, carry) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(carry);
        assert_eq!(U256::MAX.checked_add(&U256::ONE), None);
        assert_eq!(u(3).checked_add(&u(4)), Some(u(7)));
    }

    #[test]
    fn sub_underflow_detected() {
        assert_eq!(U256::ZERO.checked_sub(&U256::ONE), None);
        assert_eq!(u(10).checked_sub(&u(4)), Some(u(6)));
    }

    #[test]
    fn shifts() {
        assert_eq!(u(1).shl(130).shr(130), u(1));
        assert_eq!(u(0xff).shl(8), u(0xff00));
        assert!(U256::ONE.shl(255).bit(255));
        assert_eq!(U256::ONE.shl(256), U256::ZERO);
        assert_eq!(u(0xff00).shr(8), u(0xff));
    }

    #[test]
    fn low_mask_widths() {
        assert_eq!(U256::low_mask(0), U256::ZERO);
        assert_eq!(U256::low_mask(8), u(0xff));
        assert_eq!(U256::low_mask(64), u(u64::MAX as u128));
        assert_eq!(U256::low_mask(65), u((u64::MAX as u128) << 1 | 1));
        assert_eq!(U256::low_mask(256), U256::MAX);
    }

    #[test]
    fn mod_arithmetic_matches_u128() {
        let m = u(1_000_000_007);
        let a = u(123_456_789_123);
        let b = u(987_654_321_987);
        let ar = a.rem(&m);
        let br = b.rem(&m);
        assert_eq!(
            ar.add_mod(&br, &m).as_u128(),
            (123_456_789_123u128 % 1_000_000_007 + 987_654_321_987 % 1_000_000_007) % 1_000_000_007
        );
        assert_eq!(
            ar.mul_mod(&br, &m).as_u128(),
            (123_456_789_123u128 % 1_000_000_007) * (987_654_321_987 % 1_000_000_007)
                % 1_000_000_007
        );
    }

    #[test]
    fn sub_mod_wraps() {
        let m = u(97);
        assert_eq!(u(5).sub_mod(&u(10), &m), u(92));
        assert_eq!(u(10).sub_mod(&u(5), &m), u(5));
    }

    #[test]
    fn pow_mod_small() {
        let m = u(1_000_000_007);
        assert_eq!(u(2).pow_mod(&u(10), &m), u(1024));
        assert_eq!(u(5).pow_mod(&U256::ZERO, &m), U256::ONE);
        // Fermat: a^(p-1) = 1 mod p.
        assert_eq!(u(123_456).pow_mod(&u(1_000_000_006), &m), U256::ONE);
    }

    #[test]
    fn inverse_mod_prime() {
        let p = u(1_000_000_007);
        let a = u(918_273_645);
        let inv = a.inv_mod_prime(&p).unwrap();
        assert_eq!(a.mul_mod(&inv, &p), U256::ONE);
        assert_eq!(U256::ZERO.inv_mod_prime(&p), None);
    }

    #[test]
    fn euclid_inverse_agrees_with_fermat() {
        let p = crate::DEFAULT_PRIME_256;
        for seed in 1u64..50 {
            let a = U256::from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .mul_mod(&U256::from_u64(seed | 1).shl(120), &p);
            assert_eq!(a.inv_mod_euclid(&p), a.inv_mod_prime(&p), "seed {seed}");
        }
    }

    #[test]
    fn euclid_inverse_handles_composite_moduli() {
        let m = u(100); // composite
        assert_eq!(u(3).inv_mod_euclid(&m), Some(u(67))); // 3·67 = 201 ≡ 1
        assert_eq!(u(10).inv_mod_euclid(&m), None); // gcd 10
    }

    #[test]
    fn widening_mul_max() {
        let w = U256::MAX.widening_mul(&U256::MAX);
        // (2^256-1)^2 = 2^512 - 2^257 + 1: bit 0 set, bits 257..511 set.
        let limbs = w.limbs();
        assert_eq!(limbs[0], 1);
        assert_eq!(limbs[1], 0);
        assert_eq!(limbs[3], 0);
        assert_eq!(limbs[4], u64::MAX - 1);
        assert_eq!(limbs[7], u64::MAX);
    }

    #[test]
    fn display_hex() {
        assert_eq!(U256::ZERO.to_string(), "0");
        assert_eq!(u(0xdeadbeef).to_string(), "deadbeef");
    }
}
