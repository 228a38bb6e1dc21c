//! Textbook RSA over [`crate::biguint::BigUint`].
//!
//! Used exclusively by the SECOA baseline (paper §II-D): a SEAL is the seed
//! encrypted `v` times with the *raw* RSA permutation, i.e. a one-way
//! chain. No padding is involved — SEALs rely on RSA being a trapdoor
//! permutation on `Z_n`, and on its multiplicative homomorphism
//! (`E(x)·E(y) mod n = E(x·y)`) for the folding step.
//!
//! SIES itself never touches RSA; that is exactly the paper's point about
//! sensor-side cost.
//!
//! ## Kernels
//!
//! Every public key owns a [`BigMontCtx`] for its modulus: encryption,
//! SEAL rolling ([`RsaPublicKey::encrypt_repeated`], which stays in the
//! Montgomery domain for the whole chain) and product folds
//! ([`RsaPublicKey::fold_product`]) all share it. Private-key decryption
//! goes through the Chinese Remainder Theorem — two half-size windowed
//! exponentiations mod `p` and `q` plus Garner recombination — with the
//! straight `c^d mod n` kept as [`RsaKeyPair::decrypt_generic`], the
//! differential-test oracle.

use crate::bigmont::BigMontCtx;
use crate::bigmontxn;
use crate::biguint::BigUint;
use rand::RngCore;

/// Default SECOA modulus size: 1024 bits = 128-byte SEALs (Table II).
pub const DEFAULT_MODULUS_BITS: usize = 1024;

/// Public exponent used for SEAL chains. SECOA picks a small exponent so
/// that one rolling step is cheap; `e = 3` needs `p, q ≢ 1 (mod 3)`.
pub const SEAL_EXPONENT: u64 = 3;

/// An RSA public key `(e, n)` with its shared Montgomery context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    /// Montgomery context for `n`; `None` only for a degenerate even
    /// modulus (never produced by key generation, tolerated so that
    /// hand-built test keys cannot panic here).
    ctx: Option<BigMontCtx>,
}

/// CRT private-key material: half-size exponents and Garner coefficient.
#[derive(Clone, Debug)]
struct RsaCrt {
    q: BigUint,
    /// `d mod (p−1)`.
    d_p: BigUint,
    /// `d mod (q−1)`.
    d_q: BigUint,
    /// `q⁻¹ mod p` (Garner recombination).
    q_inv: BigUint,
    /// Montgomery contexts for the half-size moduli.
    ctx_p: BigMontCtx,
    ctx_q: BigMontCtx,
}

/// An RSA key pair. The private exponent is unused by SEAL chains but kept
/// for completeness and testing.
#[derive(Clone, Debug)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
    crt: RsaCrt,
}

impl RsaPublicKey {
    /// Constructs from raw components.
    pub fn new(n: BigUint, e: BigUint) -> Self {
        let ctx = (n.is_odd() && n.bit_len() > 1).then(|| BigMontCtx::new(&n));
        RsaPublicKey { n, e, ctx }
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// The shared Montgomery context for `n` (absent only for degenerate
    /// even test moduli).
    pub fn mont_ctx(&self) -> Option<&BigMontCtx> {
        self.ctx.as_ref()
    }

    /// Modulus size in bytes (= SEAL wire size).
    pub fn modulus_bytes(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Raw RSA encryption: `m^e mod n`.
    pub fn encrypt(&self, m: &BigUint) -> BigUint {
        match &self.ctx {
            Some(ctx) => ctx.pow_mod(m, &self.e),
            None => m.pow_mod(&self.e, &self.n),
        }
    }

    /// Applies the RSA permutation `times` times — the SECOA *rolling*
    /// operation: `E^times(m)`. The whole chain runs inside the
    /// Montgomery domain: one conversion in, `2·times` CIOS multiplies
    /// (for `e = 3`), one conversion out.
    pub fn encrypt_repeated(&self, m: &BigUint, times: u64) -> BigUint {
        match &self.ctx {
            Some(ctx) => ctx.chain_pow_mod(m, &self.e, times),
            None => {
                let mut acc = m.rem(&self.n);
                for _ in 0..times {
                    acc = acc.pow_mod(&self.e, &self.n);
                }
                acc
            }
        }
    }

    /// Multiplies two ciphertexts mod `n` — the SECOA *folding* operation.
    /// By multiplicative homomorphism, folding commutes with rolling.
    pub fn fold(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.mul_mod(b, &self.n)
    }

    /// Folds a whole sequence of values into one product mod `n` through
    /// the shared Montgomery context — the verifier-side kernel for the
    /// `N·J` seed product (one division-free CIOS multiply per element,
    /// one `O(log k)` fix-up at the end). Identical output to a
    /// [`Self::fold`] loop.
    pub fn fold_product<'a>(&self, values: impl IntoIterator<Item = &'a BigUint>) -> BigUint {
        match &self.ctx {
            Some(ctx) => ctx.product_mod(values),
            None => {
                let mut acc = BigUint::one();
                for v in values {
                    acc = acc.mul_mod(v, &self.n);
                }
                acc
            }
        }
    }

    /// Batch *ragged* rolling — `(value, times)` pairs with differing
    /// chain lengths, as SECOA's per-sketch positions are. Pairs are
    /// bucketed by chain length and each bucket runs through the batch
    /// chain kernel ([`bigmontxn::chain_pow_mod_many`]); output order
    /// matches input order, bytes identical to the scalar loop.
    pub fn encrypt_repeated_ragged(&self, items: &[(BigUint, u64)]) -> Vec<BigUint> {
        let Some(ctx) = &self.ctx else {
            return items
                .iter()
                .map(|(m, k)| self.encrypt_repeated(m, *k))
                .collect();
        };
        let mut buckets: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        for (idx, (_, k)) in items.iter().enumerate() {
            buckets.entry(*k).or_default().push(idx);
        }
        let mut out: Vec<Option<BigUint>> = vec![None; items.len()];
        for (k, idxs) in buckets {
            let bases: Vec<BigUint> = idxs.iter().map(|&i| items[i].0.clone()).collect();
            let rolled = bigmontxn::chain_pow_mod_many(ctx, &bases, &self.e, k);
            for (i, v) in idxs.into_iter().zip(rolled) {
                out[i] = Some(v);
            }
        }
        out.into_iter()
            .map(|v| v.expect("every index bucketed exactly once"))
            .collect()
    }

    /// Independent fold products ([`bigmontxn::fold_many`]) — SECOA's
    /// per-sketch seed products. `out[i] = Π lists[i] mod n` (1 for an
    /// empty list), identical bytes to a [`Self::fold_product`] loop.
    pub fn fold_product_many(&self, lists: &[&[BigUint]]) -> Vec<BigUint> {
        match &self.ctx {
            Some(ctx) => bigmontxn::fold_many(ctx, lists),
            None => lists.iter().map(|l| self.fold_product(l.iter())).collect(),
        }
    }

    /// One big product split into eight partial products
    /// ([`bigmontxn::product_mod_wide`]) — the verifier's `N·J` seed
    /// product. Identical bytes to [`Self::fold_product`]
    /// over the same values.
    pub fn fold_product_wide(&self, values: &[BigUint]) -> BigUint {
        match &self.ctx {
            Some(ctx) => bigmontxn::product_mod_wide(ctx, values),
            None => self.fold_product(values.iter()),
        }
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with an `bits`-bit modulus and public
    /// exponent [`SEAL_EXPONENT`]. Primes are drawn with `p, q ≡ 2 (mod 3)`
    /// so that `gcd(e, φ(n)) = 1` holds by construction.
    pub fn generate(rng: &mut dyn RngCore, bits: usize) -> Self {
        assert!(bits >= 32, "modulus too small");
        let half = bits / 2;
        loop {
            let p = prime_2_mod_3(rng, half);
            let q = prime_2_mod_3(rng, bits - half);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            if let Some(kp) = Self::try_from_primes(&p, &q) {
                return kp;
            }
        }
    }

    /// Builds a key pair from caller-supplied primes, for known-answer
    /// tests and reproducible fixtures. The primes must be distinct and
    /// `≡ 2 (mod 3)` so that `gcd(e, φ(n)) = 1` with `e = 3`; panics
    /// otherwise — fixed fixtures should fail loudly, not degrade.
    pub fn from_primes(p: &BigUint, q: &BigUint) -> Self {
        assert_ne!(p, q, "primes must be distinct");
        let three = BigUint::from_u64(3);
        assert_eq!(p.rem(&three).as_u64(), 2, "p must be ≡ 2 (mod 3)");
        assert_eq!(q.rem(&three).as_u64(), 2, "q must be ≡ 2 (mod 3)");
        Self::try_from_primes(p, q).expect("gcd(3, phi) = 1 for p, q = 2 (mod 3)")
    }

    /// Shared keygen core: derives `d` and the CRT parameters, or `None`
    /// when `e` is not invertible mod `φ(n)`.
    fn try_from_primes(p: &BigUint, q: &BigUint) -> Option<Self> {
        let one = BigUint::one();
        let p1 = p.sub(&one);
        let q1 = q.sub(&one);
        let phi = p1.mul(&q1);
        let e = BigUint::from_u64(SEAL_EXPONENT);
        let d = e.mod_inverse(&phi)?;
        let n = p.mul(q);
        let crt = RsaCrt {
            q: q.clone(),
            d_p: d.rem(&p1),
            d_q: d.rem(&q1),
            q_inv: q.mod_inverse(p).expect("p, q distinct primes"),
            ctx_p: BigMontCtx::new(p),
            ctx_q: BigMontCtx::new(q),
        };
        Some(RsaKeyPair {
            public: RsaPublicKey::new(n, e),
            d,
            crt,
        })
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// RSA decryption via the CRT: `m_p = c^{d_p} mod p`,
    /// `m_q = c^{d_q} mod q` (half-size moduli and exponents, windowed
    /// Montgomery), then Garner recombination
    /// `m = m_q + q·(q⁻¹·(m_p − m_q) mod p)`.
    pub fn decrypt(&self, c: &BigUint) -> BigUint {
        let crt = &self.crt;
        let m_p = crt.ctx_p.pow_mod(c, &crt.d_p);
        let m_q = crt.ctx_q.pow_mod(c, &crt.d_q);
        let p = crt.ctx_p.modulus();
        // h = q_inv · (m_p − m_q) mod p (lift m_q into [0, p) first).
        let diff = match m_p.checked_sub(&m_q.rem(&p)) {
            Some(d) => d,
            None => m_p.add(&p).sub(&m_q.rem(&p)),
        };
        let h = crt.q_inv.mul_mod(&diff, &p);
        m_q.add(&h.mul(&crt.q))
    }

    /// The pre-CRT decryption path, `c^d mod n` over the generic
    /// `BigUint` kernels — kept as the differential-test oracle for
    /// [`Self::decrypt`].
    pub fn decrypt_generic(&self, c: &BigUint) -> BigUint {
        c.pow_mod(&self.d, &self.public.n)
    }
}

/// Draws a random prime of the requested size with `p ≡ 2 (mod 3)`.
fn prime_2_mod_3(rng: &mut dyn RngCore, bits: usize) -> BigUint {
    let three = BigUint::from_u64(3);
    loop {
        let p = BigUint::random_prime(rng, bits, 24);
        if p.rem(&three).as_u64() == 2 {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_keypair() -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(11);
        RsaKeyPair::generate(&mut rng, 128)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let kp = small_keypair();
        for m in [0u64, 1, 2, 12345, 0xdead_beef] {
            let m = BigUint::from_u64(m);
            let c = kp.public().encrypt(&m);
            assert_eq!(kp.decrypt(&c), m);
        }
    }

    #[test]
    fn crt_decrypt_matches_generic_oracle() {
        let kp = small_keypair();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..32 {
            let c = BigUint::random_below(&mut rng, kp.public().modulus());
            assert_eq!(kp.decrypt(&c), kp.decrypt_generic(&c));
        }
    }

    #[test]
    fn multiplicative_homomorphism() {
        let kp = small_keypair();
        let pk = kp.public();
        let a = BigUint::from_u64(1234);
        let b = BigUint::from_u64(5678);
        let folded = pk.fold(&pk.encrypt(&a), &pk.encrypt(&b));
        let direct = pk.encrypt(&a.mul_mod(&b, pk.modulus()));
        assert_eq!(folded, direct);
    }

    #[test]
    fn fold_product_matches_fold_loop() {
        let kp = small_keypair();
        let pk = kp.public();
        let mut rng = StdRng::seed_from_u64(5);
        let values: Vec<BigUint> = (0..17)
            .map(|_| BigUint::random_below(&mut rng, pk.modulus()))
            .collect();
        let mut expect = BigUint::one();
        for v in &values {
            expect = pk.fold(&expect, v);
        }
        assert_eq!(pk.fold_product(values.iter()), expect);
        assert_eq!(pk.fold_product([].iter()), BigUint::one());
    }

    #[test]
    fn rolling_then_folding_commutes() {
        // E^k(x) · E^k(y) = E^k(x·y): the identity SECOA verification
        // depends on.
        let kp = small_keypair();
        let pk = kp.public();
        let x = BigUint::from_u64(31337);
        let y = BigUint::from_u64(4242);
        let k = 5;
        let lhs = pk.fold(&pk.encrypt_repeated(&x, k), &pk.encrypt_repeated(&y, k));
        let rhs = pk.encrypt_repeated(&x.mul_mod(&y, pk.modulus()), k);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn chain_is_consistent() {
        // E^{a+b}(x) = E^b(E^a(x)): rolling composes additively.
        let kp = small_keypair();
        let pk = kp.public();
        let x = BigUint::from_u64(999);
        let ea = pk.encrypt_repeated(&x, 3);
        assert_eq!(pk.encrypt_repeated(&ea, 4), pk.encrypt_repeated(&x, 7));
        assert_eq!(pk.encrypt_repeated(&x, 0), x);
    }

    #[test]
    fn chain_matches_generic_pow_loop() {
        // The Montgomery chain must agree with the pre-PR kernel: `times`
        // cold `pow_mod` calls over the generic BigUint path.
        let kp = small_keypair();
        let pk = kp.public();
        let mut rng = StdRng::seed_from_u64(21);
        let x = BigUint::random_below(&mut rng, pk.modulus());
        let mut generic = x.rem(pk.modulus());
        for k in 0..=9u64 {
            assert_eq!(pk.encrypt_repeated(&x, k), generic, "length {k}");
            generic = generic.pow_mod(pk.exponent(), pk.modulus());
        }
    }

    #[test]
    fn generated_modulus_has_requested_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        let kp = RsaKeyPair::generate(&mut rng, 192);
        assert_eq!(kp.public().modulus().bit_len(), 192);
        assert_eq!(kp.public().modulus_bytes(), 24);
    }

    #[test]
    fn exponent_is_three() {
        let kp = small_keypair();
        assert_eq!(kp.public().exponent().as_u64(), 3);
    }
}
