//! Montgomery batch entry points: many operations over one shared
//! modulus, bit-identical to mapping the scalar [`BigMontCtx`] ops.
//!
//! * [`chain_pow_mod_many`] ≡ mapped [`BigMontCtx::chain_pow_mod`]
//!   (SEAL rolling: whole chains stay in-domain);
//! * [`fold_many`] ≡ mapped [`BigMontCtx::product_mod`] over ragged value
//!   lists (SECOA per-sketch seed products);
//! * [`product_mod_wide`] ≡ [`BigMontCtx::product_mod`] over one long
//!   list, split into eight partial products (the verifier's N·J seed
//!   fold).
//!
//! Each call has exactly two paths. Every full chunk of eight items runs
//! through the radix-2^52 AVX-512 IFMA kernels (the private `bigmont52`
//! module) when the host has `avx512ifma` and the modulus fits their
//! widest instantiation (2048 bits); everything else — the ragged tail,
//! wider moduli, hosts without IFMA — runs the scalar [`BigMontCtx`]
//! loop. Canonical residues are unique, so the path taken never changes
//! a byte.
//!
//! There is no 64-bit GPR lane path: a 64×64→128 multiply does not
//! vectorize, and W interleaved CIOS carry chains measured 0.79–1.07×
//! the scalar loop on a 2-vCPU AVX-512/IFMA Xeon at a 1024-bit modulus
//! (x4 and x8, exponentiations, chains and folds). The batch width is
//! the IFMA register's eight lanes, not the hash-lane knob
//! ([`crate::lanes`]).

use crate::bigmont::BigMontCtx;
use crate::bigmont52::{self, IfmaCtx, LANES};
use crate::biguint::BigUint;
use sies_telemetry as tel;

/// Runs `items` in order: each full chunk of [`LANES`] through `chunk`
/// when the IFMA kernels take this modulus, every other item through
/// `scalar`.
fn schedule<T>(
    ctx: &BigMontCtx,
    items: &[T],
    chunk: impl Fn(&IfmaCtx<'_>, &[T], &mut u64) -> Vec<BigUint>,
    scalar: impl Fn(&T) -> BigUint,
) -> Vec<BigUint> {
    let mut out = Vec::with_capacity(items.len());
    let mut rest = items;
    // The radix-2^52 context is precomputed once per call, and only when
    // a full chunk will run.
    if rest.len() >= LANES {
        if let Some(ictx) = IfmaCtx::new(ctx) {
            let mut mults = 0u64;
            while rest.len() >= LANES {
                let (head, tail) = rest.split_at(LANES);
                out.extend(chunk(&ictx, head, &mut mults));
                rest = tail;
            }
            tel::count!("crypto.mont.cios_mults", mults);
        }
    }
    out.extend(rest.iter().map(scalar));
    out
}

/// `bases[i]^(e^k) mod m` for every base (SEAL rolling). Exactly
/// [`BigMontCtx::chain_pow_mod`] mapped over `bases`.
pub fn chain_pow_mod_many(
    ctx: &BigMontCtx,
    bases: &[BigUint],
    e: &BigUint,
    k: u64,
) -> Vec<BigUint> {
    if k == 0 {
        return bases.iter().map(|b| ctx.reduce_value(b)).collect();
    }
    tel::count!("crypto.mont.batch_chain_calls");
    schedule(
        ctx,
        bases,
        |ictx, chunk, mults| bigmont52::chain_chunk(ictx, chunk, e, k, mults),
        |base| ctx.chain_pow_mod(base, e, k),
    )
}

/// Independent ragged products: `out[i] = Π lists[i] mod m` (1 for an
/// empty list). Exactly [`BigMontCtx::product_mod`] mapped over `lists`.
pub fn fold_many(ctx: &BigMontCtx, lists: &[&[BigUint]]) -> Vec<BigUint> {
    tel::count!("crypto.mont.batch_fold_calls");
    schedule(ctx, lists, bigmont52::fold_chunk, |list| {
        ctx.product_mod(list.iter())
    })
}

/// One big product `Π values mod m`, split into eight balanced partial
/// products folded as one IFMA chunk and combined with a scalar fold.
/// The result is the canonical residue — identical bytes to
/// [`BigMontCtx::product_mod`] over the same values (modular
/// multiplication is commutative and the representative is unique).
/// Without IFMA, or below two values per part, it is that scalar fold.
pub fn product_mod_wide(ctx: &BigMontCtx, values: &[BigUint]) -> BigUint {
    let n = values.len();
    if n < 2 * LANES {
        return ctx.product_mod(values.iter());
    }
    let Some(ictx) = IfmaCtx::new(ctx) else {
        return ctx.product_mod(values.iter());
    };
    let parts: Vec<&[BigUint]> = (0..LANES)
        .map(|l| &values[l * n / LANES..(l + 1) * n / LANES])
        .collect();
    let mut mults = 0u64;
    let partials = bigmont52::fold_chunk(&ictx, &parts, &mut mults);
    tel::count!("crypto.mont.cios_mults", mults);
    ctx.product_mod(partials.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// A random odd modulus of exactly `bits` bits.
    fn odd_modulus(rng: &mut StdRng, bits: usize) -> BigUint {
        let top = BigUint::one().shl(bits - 1);
        let m = BigUint::random_bits(rng, bits - 1).add(&top);
        if m.is_even() {
            m.add(&BigUint::one())
        } else {
            m
        }
    }

    fn values(rng: &mut StdRng, count: usize, bits: usize) -> Vec<BigUint> {
        (0..count)
            .map(|_| BigUint::random_bits(rng, bits))
            .collect()
    }

    /// Odd moduli at every IFMA digit count (5/10/20/40 digits for
    /// 256/512/1024/2048 bits) and one too wide for IFMA (2112 bits),
    /// so both paths run on an IFMA host and the scalar path elsewhere.
    const MODULUS_BITS: [usize; 5] = [256, 512, 1024, 2048, 2112];

    #[test]
    fn pow_many_matches_scalar_at_every_width() {
        // One exponentiation per base is a k = 1 chain: against
        // BigMontCtx::pow_mod at every modulus width and every batch
        // size, with the degenerate exponents 0 and 1 and a full 64-bit
        // one.
        let mut rng = StdRng::seed_from_u64(21);
        for bits in MODULUS_BITS {
            let m = odd_modulus(&mut rng, bits);
            let ctx = BigMontCtx::new(&m);
            let bases = values(&mut rng, 17, bits + 44);
            for e in [0u64, 1, 2, 3, 65537, u64::MAX] {
                let e = BigUint::from_u64(e);
                let expect: Vec<BigUint> = bases.iter().map(|b| ctx.pow_mod(b, &e)).collect();
                for n in 0..=bases.len() {
                    assert_eq!(
                        chain_pow_mod_many(&ctx, &bases[..n], &e, 1),
                        expect[..n],
                        "{bits}-bit modulus, n {n}, e {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn chain_many_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(22);
        // e = 3 is SECOA's SEAL exponent; the all-ones exponents 2^j − 1
        // walk the small-exponent schedule (≤ 8 bits) and the 4-bit
        // window schedule with every window non-zero, up to 320 bits.
        let mut exps = vec![BigUint::from_u64(3), BigUint::from_u64(65_537)];
        exps.extend(
            [1usize, 2, 8, 9, 64, 127, 320]
                .iter()
                .map(|&j| BigUint::one().shl(j).sub(&BigUint::one())),
        );
        for bits in MODULUS_BITS {
            let m = odd_modulus(&mut rng, bits);
            let ctx = BigMontCtx::new(&m);
            assert_eq!(
                IfmaCtx::new(&ctx).is_some(),
                bigmont52::available() && bits <= 2048,
                "{bits}-bit modulus takes the IFMA path exactly on IFMA hosts"
            );
            // Bases up to 64 bits wider than the modulus exercise the
            // input reduction.
            let bases = values(&mut rng, 17, bits + 64);
            for (i, e) in exps.iter().enumerate() {
                // Every batch size for the SEAL exponent; one full chunk
                // and two chunks plus a tail for the rest.
                let sizes: Vec<usize> = if i == 0 {
                    (0..=bases.len()).collect()
                } else {
                    vec![8, 17]
                };
                // Five-step chains of the long exponents add only time.
                let ks: &[u64] = if e.bit_len() <= 17 {
                    &[0, 1, 5]
                } else {
                    &[0, 1]
                };
                for &k in ks {
                    let expect: Vec<BigUint> =
                        bases.iter().map(|b| ctx.chain_pow_mod(b, e, k)).collect();
                    for &n in &sizes {
                        assert_eq!(
                            chain_pow_mod_many(&ctx, &bases[..n], e, k),
                            expect[..n],
                            "{bits}-bit modulus, n {n}, k {k}, e {e:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fold_many_matches_scalar_over_ragged_lists() {
        let mut rng = StdRng::seed_from_u64(23);
        for bits in MODULUS_BITS {
            let m = odd_modulus(&mut rng, bits);
            let ctx = BigMontCtx::new(&m);
            // 17 lists with lengths cycling through 0..=9: empty lanes,
            // the ragged pad, and the scalar tail at every batch size.
            let lists: Vec<Vec<BigUint>> = (0..17)
                .map(|i| values(&mut rng, (i * 7) % 10, bits + 64))
                .collect();
            let refs: Vec<&[BigUint]> = lists.iter().map(|l| l.as_slice()).collect();
            let expect: Vec<BigUint> = lists.iter().map(|l| ctx.product_mod(l.iter())).collect();
            for n in 0..=refs.len() {
                assert_eq!(
                    fold_many(&ctx, &refs[..n]),
                    expect[..n],
                    "{bits}-bit modulus, n {n}"
                );
            }
        }
    }

    #[test]
    fn wide_product_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(24);
        for bits in MODULUS_BITS {
            let m = odd_modulus(&mut rng, bits);
            let ctx = BigMontCtx::new(&m);
            for count in [0usize, 1, 15, 16, 17, 23, 100] {
                let values = values(&mut rng, count, bits);
                assert_eq!(
                    product_mod_wide(&ctx, &values),
                    ctx.product_mod(values.iter()),
                    "{bits}-bit modulus, count {count}"
                );
            }
        }
    }

    #[test]
    fn small_modulus_widths() {
        // Single-limb modulus through the full batch machinery.
        let mut rng = StdRng::seed_from_u64(25);
        let m = BigUint::from_u64(1_000_000_007);
        let ctx = BigMontCtx::new(&m);
        let bases: Vec<BigUint> = (0..13).map(|_| BigUint::from_u64(rng.next_u64())).collect();
        let e = BigUint::from_u64(0xFFFF_FFFF);
        let expect: Vec<BigUint> = bases.iter().map(|b| ctx.pow_mod(b, &e)).collect();
        assert_eq!(chain_pow_mod_many(&ctx, &bases, &e, 1), expect);
    }
}
