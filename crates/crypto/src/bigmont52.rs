//! Radix-2^52 AVX-512 IFMA batch Montgomery kernels: 8 lanes per
//! `vpmadd52` instruction.
//!
//! A 64×64→128 `mul` plus its carry bookkeeping costs ~8 issue slots
//! per multiply and does not vectorize, so interleaving 64-bit carry
//! chains saturates the front end long before the multiplier. AVX-512
//! IFMA breaks that wall with `vpmadd52luq`/`vpmadd52huq`: one
//! instruction multiplies the low 52 bits of eight 64-bit lanes and
//! accumulates the low (resp. high) 52 bits of each 104-bit product —
//! eight multiply-accumulates per issue slot instead of a fraction of
//! one.
//!
//! The kernel is the classic multi-buffer *almost Montgomery
//! multiplication* (AMM) at radix 2^52, the layout used by RSAZ-AVX512
//! and Intel's multi-buffer RSA: each operand is split into `n52`
//! 52-bit digits held lazily in 64-bit accumulator lanes, and carries
//! are propagated once at the end of a multiplication instead of per
//! digit. Working in radix 2^52 changes the Montgomery factor from
//! `R = 2^(64·w)` to `R' = 2^(52·n52)` — internal residues differ from
//! the scalar kernel's, but every entry point converts in and out of
//! the `R'` domain itself and canonicalizes the result, and canonical
//! residues are unique, so outputs remain bit-identical to
//! [`crate::bigmont::BigMontCtx`]'s. The correctness envelope is the
//! standard AMM one: with `4m < R'` every in-domain value stays below
//! `2m`, lazy digits stay below 2^60 for `n52 ≤ 40`, and the final
//! conversion needs at most one conditional subtraction.
//!
//! Digit counts are instantiated at 5/10/20/40 (covering moduli up to
//! 256/512/1024/2048 bits; operands pad with zero digits). There is no
//! other lane kernel: for wider moduli and on hosts without
//! `avx512ifma`, [`IfmaCtx::new`] returns `None` and
//! [`crate::bigmontxn`] runs the scalar `BigMontCtx` loop.

use crate::bigmont::{self, BigMontCtx, SMALL_EXP_BITS, WINDOW_BITS};
use crate::biguint::BigUint;
use crate::limbs;
use core::cmp::Ordering;
use sies_telemetry as tel;

/// Lanes per IFMA block: one zmm register of 64-bit lanes.
pub(crate) const LANES: usize = 8;
/// Digits carry 52 bits; the top 12 accumulate lazy carries.
const MASK52: u64 = (1 << 52) - 1;
/// Instantiated digit counts (monomorphized kernels).
const SIZES: [usize; 4] = [5, 10, 20, 40];

/// Smallest instantiated digit count whose `R' = 2^(52·n52)` exceeds
/// `4m` for a `n64`-limb modulus; `None` when the modulus is too wide.
fn digits_for(n64: usize) -> Option<usize> {
    let need = (64 * n64 + 2).div_ceil(52);
    SIZES.into_iter().find(|&d| d >= need)
}

/// True when this host can run the IFMA kernels.
pub(crate) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512ifma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Splits little-endian 64-bit limbs into `n52` little-endian 52-bit
/// digits (zero-padded past the source).
fn pack52(src: &[u64], n52: usize) -> Vec<u64> {
    (0..n52)
        .map(|i| {
            let bit = 52 * i;
            let (w, off) = (bit / 64, bit % 64);
            let mut d = src.get(w).copied().unwrap_or(0) >> off;
            if off > 12 {
                d |= src.get(w + 1).copied().unwrap_or(0) << (64 - off);
            }
            d & MASK52
        })
        .collect()
}

/// Reassembles canonical 52-bit digits into `n64` 64-bit limbs (digits
/// beyond the target width must be zero).
fn unpack52(digits: &[u64], n64: usize) -> Vec<u64> {
    let mut out = vec![0u64; n64];
    for (i, &d) in digits.iter().enumerate() {
        let bit = 52 * i;
        let (w, off) = (bit / 64, bit % 64);
        if w < n64 {
            out[w] |= d << off;
        }
        if off > 12 && w + 1 < n64 {
            out[w + 1] |= d >> (64 - off);
        }
    }
    out
}

/// Replicates scalar digits across all 8 lanes of an interleaved block
/// (`block[j·8 + l]` = digit `j` of lane `l`).
fn broadcast_block(digits: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; digits.len() * LANES];
    for (j, &d) in digits.iter().enumerate() {
        for slot in &mut out[j * LANES..(j + 1) * LANES] {
            *slot = d;
        }
    }
    out
}

/// Writes scalar digits into lane `l` of an interleaved block.
fn scatter_lane(block: &mut [u64], digits: &[u64], l: usize) {
    for (j, &d) in digits.iter().enumerate() {
        block[j * LANES + l] = d;
    }
}

/// Reads lane `l` of an interleaved block back as scalar digits.
fn gather_lane(block: &[u64], n52: usize, l: usize) -> Vec<u64> {
    (0..n52).map(|j| block[j * LANES + l]).collect()
}

/// Per-call precomputation for one modulus: packed modulus block, the
/// radix-2^52 Montgomery constant, and the `R'`-domain conversion
/// digits. Construction returns `None` off-x86, without `avx512ifma`,
/// or when the modulus needs more than 40 digits.
pub(crate) struct IfmaCtx<'c> {
    ctx: &'c BigMontCtx,
    n52: usize,
    /// Interleaved broadcast modulus digits (`n52 × 8`).
    m_block: Vec<u64>,
    /// `-m⁻¹ mod 2^52` (the low 52 bits of the 64-bit constant).
    k: u64,
    /// `R' mod m` as digits — the AMM identity and ragged-lane pad.
    r1p: Vec<u64>,
    /// Interleaved broadcast of `R'² mod m` — the to-domain multiplier.
    r2p_block: Vec<u64>,
    /// Interleaved broadcast of 1 — the from-domain multiplier.
    one_block: Vec<u64>,
}

impl<'c> IfmaCtx<'c> {
    pub(crate) fn new(ctx: &'c BigMontCtx) -> Option<Self> {
        if !available() {
            return None;
        }
        let n52 = digits_for(ctx.width())?;
        let m = ctx.modulus();
        let two = BigUint::from_u64(2);
        let r1p_big = two.pow_mod(&BigUint::from_u64(52 * n52 as u64), &m);
        let r2p_big = two.pow_mod(&BigUint::from_u64(104 * n52 as u64), &m);
        let mut one = vec![0u64; n52];
        one[0] = 1;
        Some(IfmaCtx {
            ctx,
            n52,
            m_block: broadcast_block(&pack52(ctx.m_limbs(), n52)),
            k: ctx.n_prime() & MASK52,
            r1p: pack52(r1p_big.limbs(), n52),
            r2p_block: broadcast_block(&pack52(r2p_big.limbs(), n52)),
            one_block: broadcast_block(&one),
        })
    }

    /// Packs one reduced operand into lane `l` of `block`.
    fn load_value(&self, block: &mut [u64], v: &BigUint, l: usize) {
        scatter_lane(block, &pack52(&self.ctx.reduce(v), self.n52), l);
    }

    /// Converts lane `l` of a *plain* (out-of-domain, canonical-digit)
    /// block back into a canonical `BigUint` below the modulus.
    fn unload_value(&self, block: &[u64], l: usize) -> BigUint {
        let mut limbs64 = unpack52(&gather_lane(block, self.n52, l), self.ctx.width());
        if limbs::cmp(&limbs64, self.ctx.m_limbs()) != Ordering::Less {
            limbs::sub_assign(&mut limbs64, self.ctx.m_limbs());
        }
        BigUint::from_limbs(limbs64)
    }
}

#[cfg(target_arch = "x86_64")]
mod kernel {
    use super::*;
    use core::arch::x86_64::*;

    /// 8-lane almost Montgomery multiplication at `N` digits:
    /// `out[l] = a[l]·b[l]·R'⁻¹ (mod m)`, digits canonical, value in
    /// `[0, 2m)`. One `vpmadd52` pair per digit per row; carries stay
    /// lazy in the 64-bit lanes until the final normalization sweep.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn amm<const N: usize>(m: &[u64], k: __m512i, a: &[u64], b: &[u64], out: &mut [u64]) {
        debug_assert!(m.len() == N * 8 && a.len() == N * 8);
        debug_assert!(b.len() == N * 8 && out.len() == N * 8);
        // SAFETY: all loads/stores are within the checked N×8 blocks;
        // the ISA requirement is carried by `target_feature` and
        // checked by the caller's dispatch.
        unsafe {
            let mask = _mm512_set1_epi64(MASK52 as i64);
            let zero = _mm512_setzero_si512();
            let ld = |p: &[u64], j: usize| _mm512_loadu_si512(p.as_ptr().add(j * 8) as *const _);
            let mut acc = [zero; N];
            for i in 0..N {
                let bi = ld(b, i);
                // Digit 0: accumulate the low products, derive the row
                // quotient y, zero the low 52 bits, keep the carry.
                let a0 = ld(a, 0);
                let m0 = ld(m, 0);
                let t0 = _mm512_madd52lo_epu64(acc[0], a0, bi);
                let y = _mm512_madd52lo_epu64(zero, t0, k);
                let t0 = _mm512_madd52lo_epu64(t0, m0, y);
                let carry = _mm512_srli_epi64(t0, 52);
                // Fused shift-down: the new digit j-1 is the old digit
                // j plus its low products plus digit j-1's high halves.
                let mut prev_a = a0;
                let mut prev_m = m0;
                for j in 1..N {
                    let aj = ld(a, j);
                    let mj = ld(m, j);
                    let mut t = _mm512_madd52lo_epu64(acc[j], aj, bi);
                    t = _mm512_madd52lo_epu64(t, mj, y);
                    t = _mm512_madd52hi_epu64(t, prev_a, bi);
                    t = _mm512_madd52hi_epu64(t, prev_m, y);
                    acc[j - 1] = t;
                    prev_a = aj;
                    prev_m = mj;
                }
                acc[0] = _mm512_add_epi64(acc[0], carry);
                let top = _mm512_madd52hi_epu64(zero, prev_a, bi);
                acc[N - 1] = _mm512_madd52hi_epu64(top, prev_m, y);
            }
            // Normalize the lazy digits to canonical 52-bit form. The
            // value is below 2m < R', so the top digit sheds no carry.
            let mut carry = zero;
            for (j, accj) in acc.iter().enumerate() {
                let t = _mm512_add_epi64(*accj, carry);
                carry = _mm512_srli_epi64(t, 52);
                _mm512_storeu_si512(
                    out.as_mut_ptr().add(j * 8) as *mut _,
                    _mm512_and_si512(t, mask),
                );
            }
        }
    }

    /// In-domain 8-lane exponentiation by a shared exponent — the exact
    /// window schedule of [`bigmont`]'s scalar `pow_mod`, each step one
    /// [`amm`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn pow_inner<const N: usize>(
        ictx: &IfmaCtx<'_>,
        base_m: &[u64],
        exp: &BigUint,
        mults: &mut u64,
    ) -> Vec<u64> {
        let m = &ictx.m_block;
        let k = _mm512_set1_epi64(ictx.k as i64);
        if exp.is_zero() {
            return broadcast_block(&ictx.r1p);
        }
        let bits = exp.bit_len();
        let mut acc = vec![0u64; N * 8];
        let mut tmp = vec![0u64; N * 8];
        if bits <= SMALL_EXP_BITS {
            acc.copy_from_slice(base_m);
            for i in (0..bits - 1).rev() {
                amm::<N>(m, k, &acc, &acc, &mut tmp);
                core::mem::swap(&mut acc, &mut tmp);
                *mults += LANES as u64;
                if exp.bit(i) {
                    amm::<N>(m, k, &acc, base_m, &mut tmp);
                    core::mem::swap(&mut acc, &mut tmp);
                    *mults += LANES as u64;
                }
            }
            return acc;
        }
        let mut table = Vec::with_capacity(1 << WINDOW_BITS);
        table.push(broadcast_block(&ictx.r1p));
        table.push(base_m.to_vec());
        for i in 2..(1 << WINDOW_BITS) {
            let mut next = vec![0u64; N * 8];
            amm::<N>(m, k, &table[i - 1], base_m, &mut next);
            table.push(next);
        }
        *mults += (((1 << WINDOW_BITS) - 2) * LANES) as u64;
        let nwindows = bits.div_ceil(WINDOW_BITS);
        acc.copy_from_slice(&table[bigmont::window_of(exp, nwindows - 1)]);
        for w in (0..nwindows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                amm::<N>(m, k, &acc, &acc, &mut tmp);
                core::mem::swap(&mut acc, &mut tmp);
            }
            *mults += (WINDOW_BITS * LANES) as u64;
            let nibble = bigmont::window_of(exp, w);
            if nibble != 0 {
                amm::<N>(m, k, &acc, &table[nibble], &mut tmp);
                core::mem::swap(&mut acc, &mut tmp);
                *mults += LANES as u64;
            }
        }
        acc
    }

    /// One 8-wide `chain_pow_mod` chunk: `base^(e^k)` with the whole
    /// chain in the `R'` domain (`k > 0`).
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn chain_chunk_t<const N: usize>(
        ictx: &IfmaCtx<'_>,
        bases: &[BigUint],
        e: &BigUint,
        kpow: u64,
        mults: &mut u64,
    ) -> Vec<BigUint> {
        debug_assert!(kpow > 0);
        let k = _mm512_set1_epi64(ictx.k as i64);
        let mut plain = vec![0u64; N * 8];
        for (l, v) in bases.iter().enumerate() {
            ictx.load_value(&mut plain, v, l);
        }
        let mut x = vec![0u64; N * 8];
        amm::<N>(&ictx.m_block, k, &plain, &ictx.r2p_block, &mut x);
        *mults += LANES as u64;
        for _ in 0..kpow {
            x = pow_inner::<N>(ictx, &x, e, mults);
        }
        amm::<N>(&ictx.m_block, k, &x, &ictx.one_block, &mut plain);
        *mults += LANES as u64;
        (0..bases.len().min(LANES))
            .map(|l| ictx.unload_value(&plain, l))
            .collect()
    }

    /// One 8-wide fold chunk: up to 8 ragged products, shorter lanes
    /// padded with `R' mod m` (the AMM identity), residual `R'` factors
    /// cancelled per distinct lane length with one scalar fix-up.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn fold_chunk_t<const N: usize>(
        ictx: &IfmaCtx<'_>,
        lists: &[&[BigUint]],
        mults: &mut u64,
    ) -> Vec<BigUint> {
        debug_assert!(lists.len() <= LANES);
        let k = _mm512_set1_epi64(ictx.k as i64);
        let rounds = lists.iter().map(|l| l.len()).max().unwrap_or(0);
        let mut acc = broadcast_block(&ictx.r1p);
        let mut op = vec![0u64; N * 8];
        let mut tmp = vec![0u64; N * 8];
        let mut counts = [0u64; LANES];
        for r in 0..rounds {
            for (l, count) in counts.iter_mut().enumerate() {
                match lists.get(l).and_then(|list| list.get(r)) {
                    Some(v) => {
                        ictx.load_value(&mut op, v, l);
                        *count += 1;
                    }
                    None => scatter_lane(&mut op, &ictx.r1p, l),
                }
            }
            amm::<N>(&ictx.m_block, k, &acc, &op, &mut tmp);
            core::mem::swap(&mut acc, &mut tmp);
            *mults += LANES as u64;
        }
        // acc_l = Πv · R'^-(count-1); cancel with R'^(count-1) mod m,
        // memoized per distinct lane length within the chunk.
        let modulus = ictx.ctx.modulus();
        let mut fixes: Vec<(u64, BigUint)> = Vec::new();
        lists
            .iter()
            .enumerate()
            .map(|(l, _)| {
                if counts[l] == 0 {
                    return BigUint::one();
                }
                let lane = ictx.unload_value_in_domain(&acc, l);
                let pending = counts[l] - 1;
                if pending == 0 {
                    return lane;
                }
                let fix = match fixes.iter().find(|(p, _)| *p == pending) {
                    Some((_, f)) => f.clone(),
                    None => {
                        let f = BigUint::from_u64(2)
                            .pow_mod(&BigUint::from_u64(52 * ictx.n52 as u64 * pending), &modulus);
                        fixes.push((pending, f.clone()));
                        f
                    }
                };
                lane.mul_mod(&fix, &modulus)
            })
            .collect()
    }
}

impl<'c> IfmaCtx<'c> {
    /// Converts lane `l` of an *in-domain* block (value in `[0, 2m)`)
    /// to a canonical plain `BigUint`: reduces the extra bit, then the
    /// value itself is the lane's residue times `R'⁻¹`... — used only
    /// by the fold fix-up, which multiplies the factor back in.
    fn unload_value_in_domain(&self, block: &[u64], l: usize) -> BigUint {
        let mut limbs64 = unpack52(&gather_lane(block, self.n52, l), self.width_for_domain());
        while limbs::cmp(&limbs64, self.ctx.m_limbs()) != Ordering::Less {
            limbs::sub_assign(&mut limbs64, self.ctx.m_limbs());
        }
        BigUint::from_limbs(limbs64)
    }

    /// 64-bit limbs needed to hold an in-domain value (< 2m).
    fn width_for_domain(&self) -> usize {
        self.ctx.width() + 1
    }
}

/// Chunk entry points: monomorphized dispatch on the digit count. Both
/// panic off-x86 — [`IfmaCtx::new`] cannot return `Some` there.
#[cfg(target_arch = "x86_64")]
pub(crate) fn chain_chunk(
    ictx: &IfmaCtx<'_>,
    bases: &[BigUint],
    e: &BigUint,
    k: u64,
    mults: &mut u64,
) -> Vec<BigUint> {
    tel::count!("crypto.mont.ifma_chunks");
    // SAFETY: IfmaCtx::new verified avx512ifma support at runtime.
    unsafe {
        match ictx.n52 {
            5 => kernel::chain_chunk_t::<5>(ictx, bases, e, k, mults),
            10 => kernel::chain_chunk_t::<10>(ictx, bases, e, k, mults),
            20 => kernel::chain_chunk_t::<20>(ictx, bases, e, k, mults),
            _ => kernel::chain_chunk_t::<40>(ictx, bases, e, k, mults),
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) fn fold_chunk(
    ictx: &IfmaCtx<'_>,
    lists: &[&[BigUint]],
    mults: &mut u64,
) -> Vec<BigUint> {
    tel::count!("crypto.mont.ifma_chunks");
    // SAFETY: as in `chain_chunk`.
    unsafe {
        match ictx.n52 {
            5 => kernel::fold_chunk_t::<5>(ictx, lists, mults),
            10 => kernel::fold_chunk_t::<10>(ictx, lists, mults),
            20 => kernel::fold_chunk_t::<20>(ictx, lists, mults),
            _ => kernel::fold_chunk_t::<40>(ictx, lists, mults),
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn chain_chunk(
    _ictx: &IfmaCtx<'_>,
    _bases: &[BigUint],
    _e: &BigUint,
    _k: u64,
    _mults: &mut u64,
) -> Vec<BigUint> {
    unreachable!("IfmaCtx cannot be constructed without x86_64 IFMA")
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn fold_chunk(
    _ictx: &IfmaCtx<'_>,
    _lists: &[&[BigUint]],
    _mults: &mut u64,
) -> Vec<BigUint> {
    unreachable!("IfmaCtx cannot be constructed without x86_64 IFMA")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let limbs64 = vec![u64::MAX, 0x1234_5678_9ABC_DEF0, 7, 0];
        for n52 in [5usize, 10] {
            let digits = pack52(&limbs64, n52);
            assert!(digits.iter().all(|&d| d <= MASK52));
            assert_eq!(unpack52(&digits, 4), limbs64);
        }
    }

    #[test]
    fn digit_counts_leave_amm_headroom() {
        // 4m < R' must hold for every mapped width.
        for n64 in 1..=32 {
            let n52 = digits_for(n64).unwrap();
            assert!(52 * n52 >= 64 * n64 + 2, "n64 {n64} mapped to n52 {n52}");
        }
        assert_eq!(digits_for(32), Some(40), "2048-bit moduli use 40 digits");
        assert_eq!(digits_for(33), None, "wider moduli run the scalar loop");
    }

    #[test]
    fn ifma_pow_matches_scalar_when_available() {
        if !available() {
            return;
        }
        let m = BigUint::from_be_bytes(&[0xC3; 96]); // odd 768-bit
        let ctx = BigMontCtx::new(&m);
        let ictx = IfmaCtx::new(&ctx).expect("768-bit fits 20 digits");
        assert_eq!(ictx.n52, 20);
        let bases: Vec<BigUint> = (0..8u64)
            .map(|i| BigUint::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1))
            .collect();
        for e in [0u64, 1, 2, 255, 256, 65_537, u64::MAX] {
            let e = BigUint::from_u64(e);
            let mut mults = 0;
            let got = chain_chunk(&ictx, &bases, &e, 1, &mut mults);
            for (b, g) in bases.iter().zip(&got) {
                assert_eq!(*g, ctx.pow_mod(b, &e), "e {e:?}");
            }
        }
    }
}
