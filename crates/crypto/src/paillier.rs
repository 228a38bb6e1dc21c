//! The Paillier cryptosystem (EUROCRYPT 1999): public-key additively
//! homomorphic encryption.
//!
//! The paper's related work (§II-C) discusses Ge–Zdonik's outsourced
//! aggregation, which encrypts a database under Paillier so the provider
//! can answer SUM queries on ciphertexts. We implement it as an extra
//! comparison point for the in-network setting: exact and confidential
//! like SIES, but with no integrity, 2·|n|-bit ciphertexts, and
//! public-key-grade CPU cost per reading — which is precisely why the
//! paper's lightweight symmetric construction matters for sensors.
//!
//! Standard simplifications: `g = n + 1`, so `g^m = 1 + m·n (mod n²)`,
//! and `μ = λ⁻¹ mod n`.
//!
//! ## Kernels
//!
//! The public key owns a [`BigMontCtx`] for `n²`, shared by the `r^n`
//! nonce exponentiation and homomorphic scaling. Decryption runs through
//! the CRT: with `m_p = L_p(c^{p−1} mod p²) · h_p mod p` (and likewise
//! mod `q²`), the two half-size windowed exponentiations plus Garner
//! recombination replace one full-size `c^λ mod n²`. The pre-CRT path is
//! kept as [`PaillierKeyPair::decrypt_generic`], the differential-test
//! oracle; [`PaillierKeyPair::decrypt`] falls back to it for non-unit
//! ciphertexts (where `L_p` is undefined), so the two agree on every
//! input.

use crate::bigmont::BigMontCtx;
use crate::biguint::BigUint;
use rand::RngCore;

/// A Paillier public key `(n, n²)` with its shared Montgomery context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaillierPublicKey {
    n: BigUint,
    n_squared: BigUint,
    /// Montgomery context for `n²` (odd for any product of odd primes).
    ctx: BigMontCtx,
}

/// CRT decryption material: per-prime contexts, half-size exponents, and
/// the precomputed `L`-function inverses.
#[derive(Clone, Debug)]
struct PaillierCrt {
    p: BigUint,
    q: BigUint,
    /// `p − 1` and `q − 1`, the half-size decryption exponents.
    p1: BigUint,
    q1: BigUint,
    /// `h_p = L_p(g^{p−1} mod p²)⁻¹ mod p = ((p−1)·q)⁻¹ mod p`.
    h_p: BigUint,
    /// `h_q = ((q−1)·p)⁻¹ mod q`.
    h_q: BigUint,
    /// `q⁻¹ mod p` (Garner recombination).
    q_inv: BigUint,
    /// Montgomery contexts for `p²` and `q²`.
    ctx_pp: BigMontCtx,
    ctx_qq: BigMontCtx,
}

/// A Paillier key pair.
#[derive(Clone, Debug)]
pub struct PaillierKeyPair {
    public: PaillierPublicKey,
    /// `λ = lcm(p−1, q−1)`.
    lambda: BigUint,
    /// `μ = λ⁻¹ mod n`.
    mu: BigUint,
    crt: PaillierCrt,
}

/// A Paillier ciphertext (an element of `Z*_{n²}`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaillierCiphertext(BigUint);

impl PaillierPublicKey {
    fn from_modulus(n: BigUint) -> Self {
        let n_squared = n.mul(&n);
        let ctx = BigMontCtx::new(&n_squared);
        PaillierPublicKey { n, n_squared, ctx }
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The shared Montgomery context for `n²`.
    pub fn mont_ctx(&self) -> &BigMontCtx {
        &self.ctx
    }

    /// Ciphertext wire size in bytes (`2·|n|`).
    pub fn ciphertext_bytes(&self) -> usize {
        self.n_squared.bit_len().div_ceil(8)
    }

    /// Encrypts `m < n` with fresh randomness from `rng`:
    /// `c = (1 + m·n) · r^n mod n²`.
    pub fn encrypt(&self, rng: &mut dyn RngCore, m: &BigUint) -> PaillierCiphertext {
        // r uniform in [1, n) — gcd(r, n) = 1 w.o.p. for an RSA modulus.
        let r = loop {
            let candidate = BigUint::random_below(rng, &self.n);
            if !candidate.is_zero() {
                break candidate;
            }
        };
        self.encrypt_with_nonce(m, &r)
    }

    /// Deterministic encryption with a caller-supplied nonce
    /// `r ∈ [1, n)`: the known-answer-test hook. Production callers must
    /// use [`Self::encrypt`] — reusing or revealing `r` breaks semantic
    /// security.
    pub fn encrypt_with_nonce(&self, m: &BigUint, r: &BigUint) -> PaillierCiphertext {
        assert!(m < &self.n, "plaintext must be below the modulus");
        assert!(!r.is_zero() && r < &self.n, "nonce must be in [1, n)");
        let g_m = BigUint::one().add(&m.mul(&self.n)).rem(&self.n_squared);
        let r_n = self.ctx.pow_mod(r, &self.n);
        PaillierCiphertext(g_m.mul_mod(&r_n, &self.n_squared))
    }

    /// Homomorphic addition: `E(m₁) ⊕ E(m₂) = E(m₁ + m₂ mod n)`.
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(a.0.mul_mod(&b.0, &self.n_squared))
    }

    /// Homomorphic scalar multiplication: `E(m)^k = E(k·m mod n)`.
    pub fn scale(&self, c: &PaillierCiphertext, k: &BigUint) -> PaillierCiphertext {
        PaillierCiphertext(self.ctx.pow_mod(&c.0, k))
    }
}

impl PaillierCiphertext {
    /// The raw group element.
    pub fn raw(&self) -> &BigUint {
        &self.0
    }

    /// Builds from a raw group element (attack simulation / wire decode).
    pub fn from_raw(v: BigUint) -> Self {
        PaillierCiphertext(v)
    }
}

impl PaillierKeyPair {
    /// Generates a key pair with a `bits`-bit modulus.
    pub fn generate(rng: &mut dyn RngCore, bits: usize) -> Self {
        assert!(bits >= 32, "modulus too small");
        let half = bits / 2;
        loop {
            let p = BigUint::random_prime(rng, half, 24);
            let q = BigUint::random_prime(rng, bits - half, 24);
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

    /// Builds a key pair from caller-supplied distinct odd primes, for
    /// known-answer tests and reproducible fixtures. Panics if `λ` is not
    /// invertible mod `n` (never the case for a well-formed RSA modulus).
    pub fn from_primes(p: &BigUint, q: &BigUint) -> Self {
        assert_ne!(p, q, "primes must be distinct");
        assert!(p.is_odd() && q.is_odd(), "primes must be odd");
        Self::try_from_primes(p, q).expect("lambda invertible mod n for an RSA modulus")
    }

    /// Shared keygen core: λ/μ plus the CRT parameters, or `None` when
    /// `λ` is not invertible mod `n`.
    fn try_from_primes(p: &BigUint, q: &BigUint) -> Option<Self> {
        let one = BigUint::one();
        let p1 = p.sub(&one);
        let q1 = q.sub(&one);
        // λ = lcm(p−1, q−1) = (p−1)(q−1) / gcd(p−1, q−1)
        let gcd = p1.gcd(&q1);
        let lambda = p1.mul(&q1).div_rem(&gcd).0;
        let n = p.mul(q);
        let mu = lambda.mod_inverse(&n)?;
        // With g = n + 1: g^{p−1} = 1 + (p−1)·n (mod p²), so
        // L_p(g^{p−1}) = (p−1)·q mod p. Both factors are invertible mod p
        // for distinct primes, hence the expects below cannot fire.
        let h_p = p1
            .mul_mod(&q.rem(p), p)
            .mod_inverse(p)
            .expect("(p-1)q invertible mod p");
        let h_q = q1
            .mul_mod(&p.rem(q), q)
            .mod_inverse(q)
            .expect("(q-1)p invertible mod q");
        let crt = PaillierCrt {
            p: p.clone(),
            q: q.clone(),
            p1,
            q1,
            h_p,
            h_q,
            q_inv: q.mod_inverse(p).expect("p, q distinct primes"),
            ctx_pp: BigMontCtx::new(&p.mul(p)),
            ctx_qq: BigMontCtx::new(&q.mul(q)),
        };
        Some(PaillierKeyPair {
            public: PaillierPublicKey::from_modulus(n),
            lambda,
            mu,
            crt,
        })
    }

    /// The public half.
    pub fn public(&self) -> &PaillierPublicKey {
        &self.public
    }

    /// Decrypts via the CRT: `m_p = L_p(c^{p−1} mod p²) · h_p mod p`
    /// (half-size modulus and exponent), likewise for `q`, then Garner
    /// recombination. Equals [`Self::decrypt_generic`] for every unit
    /// `c ∈ Z*_{n²}` and falls back to it otherwise (a non-unit reveals a
    /// factor of `n`; the generic path at least fails identically).
    pub fn decrypt(&self, c: &PaillierCiphertext) -> BigUint {
        self.decrypt_crt(c)
            .unwrap_or_else(|| self.decrypt_generic(c))
    }

    fn decrypt_crt(&self, c: &PaillierCiphertext) -> Option<BigUint> {
        let crt = &self.crt;
        let m_p = l_residue(&crt.ctx_pp, &crt.p1, &crt.p, &c.0)?.mul_mod(&crt.h_p, &crt.p);
        let m_q = l_residue(&crt.ctx_qq, &crt.q1, &crt.q, &c.0)?.mul_mod(&crt.h_q, &crt.q);
        // Garner: m = m_q + q·(q⁻¹·(m_p − m_q) mod p).
        let m_q_mod_p = m_q.rem(&crt.p);
        let diff = match m_p.checked_sub(&m_q_mod_p) {
            Some(d) => d,
            None => m_p.add(&crt.p).sub(&m_q_mod_p),
        };
        let h = crt.q_inv.mul_mod(&diff, &crt.p);
        Some(m_q.add(&h.mul(&crt.q)))
    }

    /// The pre-CRT decryption path, `m = L(c^λ mod n²) · μ mod n` with
    /// `L(x) = (x − 1)/n` over the generic `BigUint` kernels — kept as
    /// the differential-test oracle for [`Self::decrypt`].
    pub fn decrypt_generic(&self, c: &PaillierCiphertext) -> BigUint {
        let n = &self.public.n;
        let x = c.0.pow_mod(&self.lambda, &self.public.n_squared);
        let l = x.sub(&BigUint::one()).div_rem(n).0;
        l.mul_mod(&self.mu, n)
    }
}

/// `L_s(c^e mod s²)` for a prime `s` (with `ctx` over `s²`): `None` when
/// `c` is not a unit mod `s` (then `c^e ≢ 1 mod s` and the `L` function
/// is undefined).
fn l_residue(ctx: &BigMontCtx, e: &BigUint, s: &BigUint, c: &BigUint) -> Option<BigUint> {
    let x = ctx.pow_mod(c, e);
    let (l, rem) = x.checked_sub(&BigUint::one())?.div_rem(s);
    if !rem.is_zero() {
        return None;
    }
    Some(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> (PaillierKeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(2024);
        let kp = PaillierKeyPair::generate(&mut rng, 256);
        (kp, rng)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let (kp, mut rng) = keypair();
        for m in [0u64, 1, 42, 1_000_000, u32::MAX as u64] {
            let m = BigUint::from_u64(m);
            let c = kp.public().encrypt(&mut rng, &m);
            assert_eq!(kp.decrypt(&c), m);
        }
    }

    #[test]
    fn crt_decrypt_matches_generic_oracle() {
        let (kp, mut rng) = keypair();
        // Valid ciphertexts.
        for m in [0u64, 1, 7, u64::MAX] {
            let c = kp.public().encrypt(&mut rng, &BigUint::from_u64(m));
            assert_eq!(kp.decrypt(&c), kp.decrypt_generic(&c));
        }
        // Arbitrary group elements, including (w.o.p.) only units.
        for _ in 0..16 {
            let raw = BigUint::random_below(&mut rng, &kp.public().n_squared);
            let c = PaillierCiphertext::from_raw(raw);
            assert_eq!(kp.decrypt(&c), kp.decrypt_generic(&c));
        }
    }

    #[test]
    fn non_unit_ciphertext_falls_back_to_generic() {
        let (kp, _) = keypair();
        // c = p is a non-unit mod p: L_p is undefined, so decrypt must
        // take the generic fallback — and agree with it.
        let c = PaillierCiphertext::from_raw(kp.crt.p.clone());
        assert!(kp.decrypt_crt(&c).is_none());
        assert_eq!(kp.decrypt(&c), kp.decrypt_generic(&c));
        // c = 0 underflows the L function instead of leaving a remainder
        // (the generic oracle panics on it, so only the CRT path is
        // checked here).
        let z = PaillierCiphertext::from_raw(BigUint::zero());
        assert!(kp.decrypt_crt(&z).is_none());
    }

    #[test]
    fn encryption_is_randomized() {
        let (kp, mut rng) = keypair();
        let m = BigUint::from_u64(7);
        let c1 = kp.public().encrypt(&mut rng, &m);
        let c2 = kp.public().encrypt(&mut rng, &m);
        assert_ne!(c1, c2, "same plaintext must yield distinct ciphertexts");
        assert_eq!(kp.decrypt(&c1), kp.decrypt(&c2));
    }

    #[test]
    fn additive_homomorphism() {
        let (kp, mut rng) = keypair();
        let pk = kp.public();
        let a = pk.encrypt(&mut rng, &BigUint::from_u64(1234));
        let b = pk.encrypt(&mut rng, &BigUint::from_u64(8766));
        assert_eq!(kp.decrypt(&pk.add(&a, &b)), BigUint::from_u64(10_000));
    }

    #[test]
    fn many_way_sum() {
        let (kp, mut rng) = keypair();
        let pk = kp.public();
        let mut acc = pk.encrypt(&mut rng, &BigUint::zero());
        let mut expected = 0u64;
        for i in 1..=50u64 {
            acc = pk.add(&acc, &pk.encrypt(&mut rng, &BigUint::from_u64(i * 11)));
            expected += i * 11;
        }
        assert_eq!(kp.decrypt(&acc), BigUint::from_u64(expected));
    }

    #[test]
    fn scalar_multiplication() {
        let (kp, mut rng) = keypair();
        let pk = kp.public();
        let c = pk.encrypt(&mut rng, &BigUint::from_u64(30));
        let scaled = pk.scale(&c, &BigUint::from_u64(9));
        assert_eq!(kp.decrypt(&scaled), BigUint::from_u64(270));
    }

    #[test]
    fn ciphertext_size_is_double_modulus() {
        let (kp, _) = keypair();
        assert_eq!(kp.public().ciphertext_bytes(), 64); // 256-bit n → 512-bit n²
    }

    #[test]
    fn malleability_means_no_integrity() {
        // The §II-C caveat: the provider can shift the SUM undetected.
        let (kp, mut rng) = keypair();
        let pk = kp.public();
        let honest = pk.encrypt(&mut rng, &BigUint::from_u64(100));
        let spurious = pk.encrypt(&mut rng, &BigUint::from_u64(999));
        let tampered = pk.add(&honest, &spurious);
        assert_eq!(kp.decrypt(&tampered), BigUint::from_u64(1099));
    }
}
