//! Property-based tests for the arithmetic core of `sies-crypto`.
//!
//! These pin down the ring axioms and division invariants that the SIES
//! homomorphic scheme and the SECOA RSA chains rely on.

use proptest::prelude::*;
use sies_crypto::bigmont::BigMontCtx;
use sies_crypto::biguint::BigUint;
use sies_crypto::mont::MontgomeryCtx;
use sies_crypto::u256::U256;
use sies_crypto::DEFAULT_PRIME_256;
use std::sync::OnceLock;

/// A seeded 256-bit prime other than `DEFAULT_PRIME_256` (a deployment
/// may generate its own `p`).
fn generated_prime() -> &'static U256 {
    static P: OnceLock<U256> = OnceLock::new();
    P.get_or_init(|| {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_0003);
        sies_crypto::generate_prime_u256(&mut rng, 256)
    })
}

/// Strategy: an arbitrary 256-bit value.
fn any_u256() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(U256::from_limbs)
}

/// Strategy: an arbitrary *odd* modulus ≥ 3 — Montgomery contexts must
/// work over any such modulus, not just the SIES prime.
fn odd_modulus() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(|mut limbs| {
        limbs[0] |= 1;
        let m = U256::from_limbs(limbs);
        if m == U256::ONE {
            U256::from_u64(3)
        } else {
            m
        }
    })
}

/// Strategy: a value within a small distance of 2^256, to hit the
/// carry/borrow edges of the limb arithmetic.
fn near_max_u256() -> impl Strategy<Value = U256> {
    (0u64..4096).prop_map(|d| {
        let (v, _) = U256::MAX.overflowing_sub(&U256::from_u64(d));
        v
    })
}

/// Strategy: an arbitrary BigUint up to ~320 bits.
fn any_biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..=5).prop_map(BigUint::from_limbs)
}

/// Strategy: a non-zero BigUint.
fn nonzero_biguint() -> impl Strategy<Value = BigUint> {
    any_biguint().prop_filter("non-zero", |v| !v.is_zero())
}

/// Strategy: an arbitrary *odd* BigUint modulus ≥ 3, 1–5 limbs wide —
/// exercises every width class of the variable-width Montgomery kernel.
fn odd_big_modulus() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 1..=5).prop_map(|mut limbs| {
        limbs[0] |= 1;
        let m = BigUint::from_limbs(limbs);
        if m == BigUint::one() {
            BigUint::from_u64(3)
        } else {
            m
        }
    })
}

proptest! {
    // ---- BigUint ring axioms -------------------------------------------

    #[test]
    fn add_commutes(a in any_biguint(), b in any_biguint()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates(a in any_biguint(), b in any_biguint(), c in any_biguint()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn mul_commutes(a in any_biguint(), b in any_biguint()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_associates(a in any_biguint(), b in any_biguint(), c in any_biguint()) {
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn mul_distributes(a in any_biguint(), b in any_biguint(), c in any_biguint()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn sub_inverts_add(a in any_biguint(), b in any_biguint()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    // ---- Division invariant --------------------------------------------

    #[test]
    fn div_rem_invariant(a in any_biguint(), b in nonzero_biguint()) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn shl_shr_round_trip(a in any_biguint(), sh in 0usize..300) {
        prop_assert_eq!(a.shl(sh).shr(sh), a);
    }

    #[test]
    fn byte_round_trip(a in any_biguint()) {
        prop_assert_eq!(BigUint::from_be_bytes(&a.to_be_bytes()), a);
    }

    // ---- Modular arithmetic --------------------------------------------

    #[test]
    fn pow_mod_matches_repeated_mul(base in any_biguint(), e in 0u64..64, m in nonzero_biguint()) {
        let mut naive = if m.bit_len() == 1 { BigUint::zero() } else { BigUint::one() };
        for _ in 0..e {
            naive = naive.mul_mod(&base, &m);
        }
        prop_assert_eq!(base.pow_mod(&BigUint::from_u64(e), &m), naive);
    }

    #[test]
    fn mod_inverse_is_inverse(a in nonzero_biguint(), m in nonzero_biguint()) {
        if let Some(inv) = a.mod_inverse(&m) {
            if m.bit_len() > 1 {
                prop_assert_eq!(a.mul_mod(&inv, &m), BigUint::one());
            }
        } else {
            // No inverse means gcd(a, m) != 1.
            prop_assert!(a.gcd(&m).bit_len() != 1);
        }
    }

    #[test]
    fn gcd_divides_both(a in any_biguint(), b in nonzero_biguint()) {
        let g = a.gcd(&b);
        prop_assert!(!g.is_zero());
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    // ---- U256 <-> BigUint agreement ------------------------------------

    #[test]
    fn u256_add_mod_matches_biguint(a in any_u256(), b in any_u256()) {
        let p = DEFAULT_PRIME_256;
        let ar = a.rem(&p);
        let br = b.rem(&p);
        let fixed = ar.add_mod(&br, &p);
        let big = BigUint::from(&ar).add_mod(&BigUint::from(&br), &BigUint::from(&p));
        prop_assert_eq!(BigUint::from(&fixed), big);
    }

    #[test]
    fn u256_mul_mod_matches_biguint(a in any_u256(), b in any_u256()) {
        let p = DEFAULT_PRIME_256;
        let fixed = a.mul_mod(&b, &p);
        let big = BigUint::from(&a).mul_mod(&BigUint::from(&b), &BigUint::from(&p));
        prop_assert_eq!(BigUint::from(&fixed), big);
    }

    #[test]
    fn u256_sub_mod_matches_biguint(a in any_u256(), b in any_u256()) {
        let p = DEFAULT_PRIME_256;
        let pb = BigUint::from(&p);
        let ar = a.rem(&p);
        let br = b.rem(&p);
        let fixed = ar.sub_mod(&br, &p);
        // (a - b) mod p computed as a + (p - b) mod p in BigUint.
        let big = BigUint::from(&ar).add_mod(&pb.sub(&BigUint::from(&br)).rem(&pb), &pb);
        prop_assert_eq!(BigUint::from(&fixed), big);
    }

    #[test]
    fn u256_inverse_round_trip(a in any_u256()) {
        let p = DEFAULT_PRIME_256;
        let ar = a.rem(&p);
        if let Some(inv) = ar.inv_mod_prime(&p) {
            prop_assert_eq!(ar.mul_mod(&inv, &p), U256::ONE);
        } else {
            prop_assert!(ar.is_zero());
        }
    }

    #[test]
    fn u256_byte_round_trip(a in any_u256()) {
        prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn u256_shifts_consistent_with_biguint(a in any_u256(), sh in 0usize..256) {
        let shifted = a.shr(sh);
        let big = BigUint::from(&a).shr(sh);
        prop_assert_eq!(BigUint::from(&shifted), big);
    }

    // ---- Montgomery vs BigUint over *random odd moduli* -----------------
    //
    // The batched hot paths (EpochCipher, KeyedPrf reduction) assume the
    // Montgomery context agrees with the generic U256 path and the slow
    // BigUint reference for any odd modulus, not just DEFAULT_PRIME_256.

    #[test]
    fn mont_mul_matches_biguint_over_random_odd_moduli(
        a in any_u256(), b in any_u256(), m in odd_modulus()
    ) {
        let ctx = MontgomeryCtx::new(&m);
        let (ar, br) = (a.rem(&m), b.rem(&m));
        let mont = ctx.mul_mod(&ar, &br);
        let generic = ar.mul_mod(&br, &m);
        let reference = BigUint::from(&ar).mul_mod(&BigUint::from(&br), &BigUint::from(&m));
        prop_assert_eq!(mont, generic);
        prop_assert_eq!(BigUint::from(&mont), reference);
    }

    #[test]
    fn mont_pow_matches_biguint_over_random_odd_moduli(
        base in any_u256(), e in 0u64..512, m in odd_modulus()
    ) {
        let ctx = MontgomeryCtx::new(&m);
        let br = base.rem(&m);
        let exp = U256::from_u64(e);
        let mont = ctx.pow_mod(&br, &exp);
        let generic = br.pow_mod(&exp, &m);
        let reference = BigUint::from(&br)
            .pow_mod(&BigUint::from_u64(e), &BigUint::from(&m));
        prop_assert_eq!(mont, generic);
        prop_assert_eq!(BigUint::from(&mont), reference);
    }

    // The querier's K_t⁻¹: the Montgomery context's Fermat inverse must
    // equal the BigUint extended-Euclid inverse for every non-zero
    // residue, under the default prime and under a generated one.
    #[test]
    fn mont_fermat_inverse_matches_euclid(a in any_u256(), generated in any::<bool>()) {
        let p = if generated { *generated_prime() } else { DEFAULT_PRIME_256 };
        let ar = a.rem(&p);
        prop_assume!(!ar.is_zero());
        let ctx = MontgomeryCtx::new(&p);
        let fermat = ctx.inv_mod_prime(&ar);
        prop_assert!(fermat.is_some());
        prop_assert_eq!(fermat, ar.inv_mod_euclid(&p));
    }

    #[test]
    fn inv_mod_euclid_matches_biguint_over_random_odd_moduli(
        a in any_u256(), m in odd_modulus()
    ) {
        let ar = a.rem(&m);
        let fixed = ar.inv_mod_euclid(&m);
        let reference = BigUint::from(&ar).mod_inverse(&BigUint::from(&m));
        match (fixed, reference) {
            (Some(fi), Some(ri)) => {
                prop_assert_eq!(BigUint::from(&fi), ri);
                prop_assert_eq!(ar.mul_mod(&fi, &m), U256::ONE);
            }
            (None, None) => {
                // gcd(a, m) ≠ 1: both sides must agree it is non-invertible.
                prop_assert!(BigUint::from(&ar).gcd(&BigUint::from(&m)).bit_len() != 1);
            }
            (fixed, reference) => {
                prop_assert!(
                    false,
                    "invertibility disagreement: U256 {:?} vs BigUint {:?}",
                    fixed.is_some(),
                    reference.is_some()
                );
            }
        }
    }

    // ---- Carry/borrow edges around 2^256 --------------------------------

    #[test]
    fn add_mod_carry_edges_match_biguint(
        a in near_max_u256(), b in near_max_u256(), m in odd_modulus()
    ) {
        let (ar, br) = (a.rem(&m), b.rem(&m));
        let fixed = ar.add_mod(&br, &m);
        let reference = BigUint::from(&ar).add_mod(&BigUint::from(&br), &BigUint::from(&m));
        prop_assert_eq!(BigUint::from(&fixed), reference);
    }

    #[test]
    fn mul_mod_carry_edges_match_biguint(
        a in near_max_u256(), b in near_max_u256(), m in odd_modulus()
    ) {
        let ctx = MontgomeryCtx::new(&m);
        let (ar, br) = (a.rem(&m), b.rem(&m));
        let mont = ctx.mul_mod(&ar, &br);
        let reference = BigUint::from(&ar).mul_mod(&BigUint::from(&br), &BigUint::from(&m));
        prop_assert_eq!(BigUint::from(&mont), reference);
    }

    #[test]
    fn overflowing_ops_match_biguint_at_the_boundary(
        a in near_max_u256(), b in any_u256()
    ) {
        // Addition: the carry flag is exactly bit 256 of the BigUint sum.
        let (sum, carry) = a.overflowing_add(&b);
        let wide = BigUint::from(&a).add(&BigUint::from(&b));
        prop_assert_eq!(carry, wide.bit_len() > 256);
        let low = BigUint::from_be_bytes(&wide.to_be_bytes())
            .rem(&BigUint::one().shl(256));
        prop_assert_eq!(BigUint::from(&sum), low);

        // Subtraction: borrow iff b > a, and (a - b) wraps mod 2^256.
        let (diff, borrow) = a.overflowing_sub(&b);
        prop_assert_eq!(borrow, BigUint::from(&b) > BigUint::from(&a));
        let rewrapped = if borrow {
            BigUint::from(&diff).add(&BigUint::from(&b)).rem(&BigUint::one().shl(256))
        } else {
            BigUint::from(&diff).add(&BigUint::from(&b))
        };
        prop_assert_eq!(rewrapped, BigUint::from(&a).rem(&BigUint::one().shl(256)));
    }

    #[test]
    fn mont_round_trip_over_random_odd_moduli(a in any_u256(), m in odd_modulus()) {
        let ctx = MontgomeryCtx::new(&m);
        let ar = a.rem(&m);
        prop_assert_eq!(ctx.from_mont(&ctx.to_mont(&ar)), ar);
    }

    // ---- Windowed pow_mod vs the generic oracle -------------------------
    //
    // The fixed-window (w = 4) exponentiation in MontgomeryCtx and
    // BigMontCtx is pinned against the generic square-and-multiply
    // BigUint path: random odd moduli, full-width random exponents, and
    // the classic edge exponents 0, 1, 2^k − 1.

    #[test]
    fn windowed_u256_pow_matches_biguint_full_width(
        base in any_u256(), exp in any_u256(), m in odd_modulus()
    ) {
        let ctx = MontgomeryCtx::new(&m);
        let br = base.rem(&m);
        let mont = ctx.pow_mod(&br, &exp);
        let reference = BigUint::from(&br)
            .pow_mod(&BigUint::from(&exp), &BigUint::from(&m));
        prop_assert_eq!(BigUint::from(&mont), reference);
    }

    #[test]
    fn windowed_u256_pow_edge_exponents(base in any_u256(), k in 1usize..=256, m in odd_modulus()) {
        let ctx = MontgomeryCtx::new(&m);
        let br = base.rem(&m);
        // e ∈ {0, 1, 2^k − 1}: empty, trivial, and all-ones windows.
        for exp in [U256::ZERO, U256::ONE, U256::low_mask(k)] {
            let reference = BigUint::from(&br)
                .pow_mod(&BigUint::from(&exp), &BigUint::from(&m));
            prop_assert_eq!(BigUint::from(&ctx.pow_mod(&br, &exp)), reference);
        }
    }

    #[test]
    fn bigmont_mul_matches_biguint(a in any_biguint(), b in any_biguint(), m in odd_big_modulus()) {
        let ctx = BigMontCtx::new(&m);
        prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &m));
    }

    #[test]
    fn bigmont_pow_matches_biguint(base in any_biguint(), exp in any_biguint(), m in odd_big_modulus()) {
        let ctx = BigMontCtx::new(&m);
        prop_assert_eq!(ctx.pow_mod(&base, &exp), base.pow_mod(&exp, &m));
    }

    #[test]
    fn bigmont_pow_edge_exponents(base in any_biguint(), k in 1usize..=320, m in odd_big_modulus()) {
        let ctx = BigMontCtx::new(&m);
        let ones = BigUint::one().shl(k).sub(&BigUint::one());
        for exp in [BigUint::zero(), BigUint::one(), ones] {
            prop_assert_eq!(ctx.pow_mod(&base, &exp), base.pow_mod(&exp, &m));
        }
    }

    #[test]
    fn bigmont_chain_matches_repeated_generic_pow(
        base in any_biguint(), e in 2u64..64, k in 0u64..12, m in odd_big_modulus()
    ) {
        let ctx = BigMontCtx::new(&m);
        let e = BigUint::from_u64(e);
        let mut generic = base.rem(&m);
        for _ in 0..k {
            generic = generic.pow_mod(&e, &m);
        }
        prop_assert_eq!(ctx.chain_pow_mod(&base, &e, k), generic);
    }

    #[test]
    fn bigmont_product_matches_generic_fold(
        values in proptest::collection::vec(any_biguint(), 0..=24), m in odd_big_modulus()
    ) {
        let ctx = BigMontCtx::new(&m);
        let mut expect = if m.bit_len() == 1 { BigUint::zero() } else { BigUint::one() };
        for v in &values {
            expect = expect.mul_mod(v, &m);
        }
        prop_assert_eq!(ctx.product_mod(values.iter()), expect);
    }

    // ---- Batch bignum vs the mapped scalar oracle ------------------------
    //
    // The batch entry points (`bigmontxn`: IFMA x8 chunks plus a scalar
    // tail) must be element-wise identical to mapping the scalar
    // `BigMontCtx` ops — for any odd modulus width, any batch size
    // (including ragged tails where n % 8 ≠ 0), and edge exponents
    // 0 / 1 / 2^k − 1. A one-step chain (k = 1) is one exponentiation,
    // so the `batch_pow_*` cases walk the long-exponent window schedule.

    #[test]
    fn batch_pow_matches_mapped_scalar(
        bases in proptest::collection::vec(any_biguint(), 0..=19),
        exp in any_biguint(),
        m in odd_big_modulus(),
    ) {
        use sies_crypto::bigmontxn;
        let ctx = BigMontCtx::new(&m);
        let got = bigmontxn::chain_pow_mod_many(&ctx, &bases, &exp, 1);
        prop_assert_eq!(got.len(), bases.len());
        for (b, g) in bases.iter().zip(&got) {
            prop_assert_eq!(g, &ctx.pow_mod(b, &exp));
        }
    }

    #[test]
    fn batch_pow_edge_exponents(
        bases in proptest::collection::vec(any_biguint(), 1..=9),
        k in 1usize..=320,
        m in odd_big_modulus(),
    ) {
        use sies_crypto::bigmontxn;
        let ctx = BigMontCtx::new(&m);
        let ones = BigUint::one().shl(k).sub(&BigUint::one());
        for exp in [BigUint::zero(), BigUint::one(), ones] {
            let got = bigmontxn::chain_pow_mod_many(&ctx, &bases, &exp, 1);
            for (b, g) in bases.iter().zip(&got) {
                prop_assert_eq!(g, &ctx.pow_mod(b, &exp));
            }
        }
    }

    #[test]
    fn batch_chain_matches_mapped_scalar(
        bases in proptest::collection::vec(any_biguint(), 0..=13),
        e in 2u64..64,
        k in 0u64..8,
        m in odd_big_modulus(),
    ) {
        use sies_crypto::bigmontxn;
        let ctx = BigMontCtx::new(&m);
        let e = BigUint::from_u64(e);
        let got = bigmontxn::chain_pow_mod_many(&ctx, &bases, &e, k);
        prop_assert_eq!(got.len(), bases.len());
        for (b, g) in bases.iter().zip(&got) {
            prop_assert_eq!(g, &ctx.chain_pow_mod(b, &e, k));
        }
    }

    #[test]
    fn batch_fold_matches_mapped_scalar(
        lists in proptest::collection::vec(
            proptest::collection::vec(any_biguint(), 0..=9), 0..=11
        ),
        m in odd_big_modulus(),
    ) {
        use sies_crypto::bigmontxn;
        let ctx = BigMontCtx::new(&m);
        let refs: Vec<&[BigUint]> = lists.iter().map(|l| l.as_slice()).collect();
        let got = bigmontxn::fold_many(&ctx, &refs);
        prop_assert_eq!(got.len(), lists.len());
        for (list, g) in lists.iter().zip(&got) {
            prop_assert_eq!(g, &ctx.product_mod(list.iter()));
        }
    }

    #[test]
    fn wide_product_matches_serial_product(
        values in proptest::collection::vec(any_biguint(), 0..=40),
        m in odd_big_modulus(),
    ) {
        use sies_crypto::bigmontxn;
        let ctx = BigMontCtx::new(&m);
        prop_assert_eq!(
            bigmontxn::product_mod_wide(&ctx, &values),
            ctx.product_mod(values.iter())
        );
    }

    // ---- Batched PRFs vs the mapped scalar oracle -----------------------
    //
    // The multi-lane fan-out (hm1_epoch / hm256_epoch / derive_mod_p /
    // for_each_epoch_key / hm1_many, plus the generic HMAC batch) must be
    // element-wise identical to the scalar PRFs for any key material, any
    // epoch, and any batch size — including ragged tails where n % 4,
    // n % 8 and n % 16 ≠ 0, several x16 passes, and batches that cross
    // the 64-key tile — at every kernel width. Each case names its width
    // through the `_into_with` entry points, so concurrently running
    // tests cannot change it.

    #[test]
    fn batched_epoch_prfs_match_scalar(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=80), 0..=70),
        epoch in any::<u64>(),
        width_sel in 0usize..4,
    ) {
        use sies_crypto::prf::{self, KeyedPrf};
        let width = [1usize, 4, 8, 16][width_sel];
        let prfs = KeyedPrf::new_many(&keys);
        let mut hm1s = vec![[0u8; 20]; keys.len()];
        let mut hm256s = vec![[0u8; 32]; keys.len()];
        let mut derived = vec![U256::ZERO; keys.len()];
        prf::hm1_epoch_into_with(width, &prfs, epoch, &mut hm1s);
        prf::hm256_epoch_into_with(width, &prfs, epoch, &mut hm256s);
        prf::derive_mod_p_into_with(width, &prfs, epoch, &DEFAULT_PRIME_256, &mut derived);
        for (i, key) in keys.iter().enumerate() {
            prop_assert_eq!(hm1s[i], prf::hm1_epoch(key, epoch));
            prop_assert_eq!(hm256s[i], prf::hm256_epoch(key, epoch));
            prop_assert_eq!(derived[i], prf::derive_mod(key, epoch, &DEFAULT_PRIME_256));
        }
        // Both per-source sweeps at once: each key's pair, in key order.
        let mut visited = Vec::with_capacity(keys.len());
        prf::for_each_epoch_key_with(width, &prfs, epoch, &DEFAULT_PRIME_256, |i, k_it, ss| {
            visited.push((i, k_it, ss));
        });
        prop_assert_eq!(visited.len(), keys.len());
        for (l, (i, k_it, ss)) in visited.into_iter().enumerate() {
            prop_assert_eq!(i, l);
            prop_assert_eq!(k_it, derived[l]);
            prop_assert_eq!(ss, hm1s[l]);
        }
    }

    #[test]
    fn batched_hmac_matches_scalar(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=80), 0..=13),
        msg in proptest::collection::vec(any::<u8>(), 0..=120),
        width_sel in 0usize..4,
    ) {
        use sies_crypto::hmac::{hmac, hmac_many_into_with};
        use sies_crypto::sha1::Sha1;
        use sies_crypto::sha256::Sha256;
        let width = [1usize, 4, 8, 16][width_sel];
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let mut got1 = vec![[0u8; 20]; keys.len()];
        let mut got256 = vec![[0u8; 32]; keys.len()];
        hmac_many_into_with::<Sha1>(width, &refs, &msg, &mut got1);
        hmac_many_into_with::<Sha256>(width, &refs, &msg, &mut got256);
        for (i, key) in keys.iter().enumerate() {
            prop_assert_eq!(&got1[i][..], &hmac::<Sha1>(key, &msg)[..]);
            prop_assert_eq!(&got256[i][..], &hmac::<Sha256>(key, &msg)[..]);
        }
    }

    // ---- The one-time-pad homomorphism (paper §III-D) ------------------

    #[test]
    fn homomorphic_sum_of_two(m1 in any::<u64>(), m2 in any::<u64>(), kt_seed in any::<u64>(), k1 in any_u256(), k2 in any_u256()) {
        let p = DEFAULT_PRIME_256;
        let kt = U256::from_u64(kt_seed | 1); // non-zero
        let k1 = k1.rem(&p);
        let k2 = k2.rem(&p);
        let m1 = U256::from_u64(m1);
        let m2 = U256::from_u64(m2);
        // E(m) = K_t * m + k mod p
        let c1 = kt.mul_mod(&m1, &p).add_mod(&k1, &p);
        let c2 = kt.mul_mod(&m2, &p).add_mod(&k2, &p);
        let c = c1.add_mod(&c2, &p);
        // D(c, K_t, k1+k2)
        let ksum = k1.add_mod(&k2, &p);
        let dec = c.sub_mod(&ksum, &p).mul_mod(&kt.inv_mod_prime(&p).unwrap(), &p);
        let expected = m1.add_mod(&m2, &p);
        prop_assert_eq!(dec, expected);
    }
}
