//! The additively homomorphic one-time cipher of paper §III-D.
//!
//! Encryption: `c = ℰ(m, K, k, p) = K·m + k mod p`.
//! Decryption: `m = 𝒟(c, K, k, p) = (c − k)·K⁻¹ mod p`.
//!
//! With per-message keys drawn pseudo-randomly and used once, the scheme is
//! information-theoretically confidential: lacking `k`, the ciphertext
//! carries no information about `m` for *any* value of `K` and `p`.
//! Its additive homomorphism — `ℰ(m₁,K,k₁) + ℰ(m₂,K,k₂) =
//! ℰ(m₁+m₂, K, k₁+k₂)` — is what lets aggregators fuse PSRs without keys.

use sies_crypto::mont::MontgomeryCtx;
use sies_crypto::u256::U256;

/// Encrypts `m` under global multiplier `k_global` (`K_t`) and blinding key
/// `k_blind` (`k_{i,t}`) modulo the prime `p`.
///
/// All inputs must be reduced mod `p`; `k_global` must be non-zero so that
/// decryption can invert it.
pub fn encrypt(m: &U256, k_global: &U256, k_blind: &U256, p: &U256) -> U256 {
    debug_assert!(!k_global.is_zero(), "K_t must be invertible");
    k_global.mul_mod(m, p).add_mod(k_blind, p)
}

/// Decrypts `c` given the same keys. `k_blind` is the *sum* of all blinding
/// keys when `c` aggregates several ciphertexts.
pub fn decrypt(c: &U256, k_global: &U256, k_blind: &U256, p: &U256) -> U256 {
    let ctx = MontgomeryCtx::new(p);
    let inv = ctx
        .inv_mod_prime(k_global)
        .expect("K_t is non-zero and p is prime");
    decrypt_with_inv(c, &inv, k_blind, &ctx)
}

/// [`decrypt`] with a caller-supplied inverse `K⁻¹ mod p` and the
/// Montgomery context for `p` — the querier builds the context once,
/// inverts `K_t` once per epoch, and decrypts without allocating.
pub fn decrypt_with_inv(
    c: &U256,
    k_global_inv: &U256,
    k_blind: &U256,
    ctx: &MontgomeryCtx,
) -> U256 {
    let p = ctx.modulus();
    ctx.mul_mod(&c.sub_mod(&k_blind.rem(&p), &p), k_global_inv)
}

/// The aggregator's merge: plain modular addition of ciphertexts
/// (paper §IV-A, merging phase). Aggregators possess only `p`.
pub fn merge(c1: &U256, c2: &U256, p: &U256) -> U256 {
    c1.add_mod(c2, p)
}

/// Batched encryptor for one epoch key `K_t`: the multiply-heavy half of
/// [`encrypt`] amortized over many messages.
///
/// [`encrypt`] pays a full widening multiply plus Knuth-D division per
/// message. Since every source in an epoch multiplies by the *same*
/// `K_t`, converting `K_t` into the Montgomery domain once turns each
/// encryption into a single CIOS `mont_mul` (no division) plus a modular
/// add: `mont_mul(K_t·R, m) = K_t·R·m·R⁻¹ = K_t·m (mod p)` — the exact
/// value the generic path computes, so ciphertexts are bit-identical.
///
/// The context is `Clone + Send + Sync` plain data, so sharded epoch
/// workers can each hold one (or share a reference) with no locking and
/// no steady-state allocation.
#[derive(Debug, Clone)]
pub struct EpochCipher {
    ctx: MontgomeryCtx,
    /// `K_t · R mod p` (Montgomery form of the epoch key).
    k_mont: U256,
    p: U256,
}

impl EpochCipher {
    /// Enters `k_global` (`K_t`, non-zero) into the Montgomery domain of
    /// `ctx`, the context for `p` that a deployment builds once and
    /// shares across its epochs.
    pub fn with_ctx(k_global: &U256, ctx: &MontgomeryCtx) -> Self {
        debug_assert!(!k_global.is_zero(), "K_t must be invertible");
        EpochCipher {
            k_mont: ctx.to_mont(k_global),
            ctx: *ctx,
            p: ctx.modulus(),
        }
    }

    /// Encrypts `m` under this epoch's `K_t` and the per-source blinding
    /// key `k_blind`. Bit-identical to `encrypt(m, K_t, k_blind, p)`.
    pub fn encrypt(&self, m: &U256, k_blind: &U256) -> U256 {
        self.ctx.mont_mul(&self.k_mont, m).add_mod(k_blind, &self.p)
    }

    /// The modulus this cipher reduces under.
    pub fn prime(&self) -> &U256 {
        &self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sies_crypto::DEFAULT_PRIME_256;

    fn u(v: u128) -> U256 {
        U256::from_u128(v)
    }

    #[test]
    fn round_trip() {
        let p = DEFAULT_PRIME_256;
        let k_global = u(0xdead_beef_1234);
        let k_blind = u(0x9999_8888_7777);
        let m = u(424_242);
        let c = encrypt(&m, &k_global, &k_blind, &p);
        assert_ne!(c, m, "ciphertext must differ from plaintext");
        assert_eq!(decrypt(&c, &k_global, &k_blind, &p), m);
    }

    #[test]
    fn homomorphic_addition() {
        let p = DEFAULT_PRIME_256;
        let k_global = u(77_777);
        let (k1, k2) = (u(1010), u(2020));
        let (m1, m2) = (u(300), u(500));
        let c = merge(
            &encrypt(&m1, &k_global, &k1, &p),
            &encrypt(&m2, &k_global, &k2, &p),
            &p,
        );
        let ksum = k1.add_mod(&k2, &p);
        assert_eq!(decrypt(&c, &k_global, &ksum, &p), u(800));
    }

    #[test]
    fn many_way_homomorphism() {
        let p = DEFAULT_PRIME_256;
        let k_global = u(31337);
        let mut c_acc = U256::ZERO;
        let mut k_acc = U256::ZERO;
        let mut m_sum: u128 = 0;
        for i in 1..=100u128 {
            let k = u(i * 7919);
            let m = u(i * i);
            c_acc = merge(&c_acc, &encrypt(&m, &k_global, &k, &p), &p);
            k_acc = k_acc.add_mod(&k, &p);
            m_sum += i * i;
        }
        assert_eq!(decrypt(&c_acc, &k_global, &k_acc, &p), u(m_sum));
    }

    #[test]
    fn wrong_blinding_key_decrypts_garbage() {
        let p = DEFAULT_PRIME_256;
        let c = encrypt(&u(5), &u(3), &u(100), &p);
        assert_ne!(decrypt(&c, &u(3), &u(101), &p), u(5));
    }

    #[test]
    fn wrong_global_key_decrypts_garbage() {
        let p = DEFAULT_PRIME_256;
        let c = encrypt(&u(5), &u(3), &u(100), &p);
        assert_ne!(decrypt(&c, &u(4), &u(100), &p), u(5));
    }

    #[test]
    fn encryption_of_zero_is_blinding_key() {
        let p = DEFAULT_PRIME_256;
        let k_blind = u(0xabcdef);
        assert_eq!(encrypt(&U256::ZERO, &u(5), &k_blind, &p), k_blind);
    }

    #[test]
    fn epoch_cipher_is_bit_identical_to_generic_encrypt() {
        let p = DEFAULT_PRIME_256;
        let mut k_global = u(0xdead_beef_1234);
        let cipher_keys: Vec<(U256, U256)> = (0..64u128)
            .map(|i| (u(i * 7919 + 1), u(i.wrapping_mul(i) + 3)))
            .collect();
        for round in 0..4 {
            let cipher = EpochCipher::with_ctx(&k_global, &MontgomeryCtx::new(&p));
            assert_eq!(cipher.prime(), &p);
            for (k_blind, m) in &cipher_keys {
                assert_eq!(
                    cipher.encrypt(m, k_blind),
                    encrypt(m, &k_global, k_blind, &p),
                    "round {round}"
                );
            }
            // Evolve K_t across the full range, including values > p/2.
            k_global = k_global.mul_mod(&u(0x1_0000_0001), &p).add_mod(&u(1), &p);
        }
    }

    #[test]
    fn epoch_cipher_shares_context_across_epochs() {
        let p = DEFAULT_PRIME_256;
        let ctx = MontgomeryCtx::new(&p);
        let (m, k) = (u(123_456_789), u(42));
        for k_global in [u(31337), u(7), p.checked_sub(&u(1)).unwrap()] {
            let cipher = EpochCipher::with_ctx(&k_global, &ctx);
            assert_eq!(cipher.encrypt(&m, &k), encrypt(&m, &k_global, &k, &p));
        }
    }
}
