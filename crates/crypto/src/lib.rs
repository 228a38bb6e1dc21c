#![warn(missing_docs)]

//! # sies-crypto
//!
//! From-scratch cryptographic substrate for the SIES reproduction
//! (Papadopoulos, Kiayias, Papadias: *Secure and Efficient In-Network
//! Processing of Exact SUM Queries*, ICDE 2011).
//!
//! The paper's protocols only require a small toolbox, all of which is
//! implemented in this crate without external cryptography dependencies:
//!
//! * [`u256::U256`] — fixed-width 256-bit modular arithmetic for the SIES
//!   homomorphic cipher over a 32-byte prime `p`;
//! * [`biguint::BigUint`] — arbitrary precision arithmetic (Knuth-D
//!   division, windowed modular exponentiation, Miller–Rabin, prime
//!   generation) backing RSA and prime setup;
//! * [`sha1::Sha1`] / [`sha256::Sha256`] — FIPS 180-4 hashes;
//! * [`sha1xn`] / [`sha256xn`] — multi-lane kernels (W ∈ {1, 4, 8, 16}
//!   interleaved lanes, runtime width via [`lanes`]): per-lane
//!   single-block compressions, and a shared-block HMAC pass for one
//!   message under many keys, behind the batched HMAC/PRF fan-out;
//! * [`bigmontxn`] — Montgomery batch entry points (`chain_pow_mod_many`
//!   / `fold_many` / `product_mod_wide`: AVX-512 IFMA x8 chunks where
//!   the host has IFMA, the scalar [`bigmont::BigMontCtx`] loop
//!   elsewhere) behind the RSA batch paths of SECOA's SEAL chains and
//!   seed products;
//! * [`mod@hmac`] — RFC 2104 HMAC generic over the hash, the paper's
//!   `HM1(·)`/`HM256(·)`: the scalar reference, and per-key chaining
//!   states that every batched HMAC ([`hmac::hmac_many`], the [`prf`]
//!   batch functions) finishes from — one message under many keys in
//!   the shared-block pass, one message per key in the tiled finalize;
//! * [`prf`] — epoch-keyed PRF helpers with derive-to-range rejection
//!   sampling: scalar free functions, the 104-byte cached
//!   [`prf::KeyedPrf`], and the cross-key batch API
//!   ([`prf::hm1_epoch_many`], [`prf::hm256_epoch_many`],
//!   [`prf::derive_mod_p_many`]; [`prf::for_each_epoch_key`] runs both
//!   per-source epoch sweeps without allocating);
//! * [`rsa`] — textbook RSA for the SECOA baseline's SEAL one-way chains.
//!
//! ## Example
//!
//! ```
//! use sies_crypto::prf::{derive_mod_nonzero, derive_mod};
//! use sies_crypto::u256::U256;
//! use sies_crypto::generate_prime_u256;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let p = generate_prime_u256(&mut rng, 256);
//! // Per-epoch keys as in the paper's initialization phase.
//! let k_t = derive_mod_nonzero(b"global key K", 42, &p);
//! let k_it = derive_mod(b"source key k_i", 42, &p);
//! // Encrypt and decrypt one message homomorphically.
//! let m = U256::from_u64(1234);
//! let c = k_t.mul_mod(&m, &p).add_mod(&k_it, &p);
//! let recovered = c.sub_mod(&k_it, &p).mul_mod(&k_t.inv_mod_prime(&p).unwrap(), &p);
//! assert_eq!(recovered, m);
//! ```

pub mod bigmont;
mod bigmont52;
pub mod bigmontxn;
pub mod biguint;
pub mod hash;
pub mod hmac;
pub mod lanes;
pub mod limbs;
pub mod mont;
pub mod paillier;
pub mod prf;
pub mod rsa;
pub mod sha1;
pub mod sha1xn;
pub mod sha256;
pub mod sha256xn;
pub mod u256;

pub use hash::{HashFunction, LaneHash};
pub use hmac::{ct_eq, hmac, hmac_many};

use biguint::BigUint;
use rand::RngCore;
use u256::U256;

/// A fixed, well-known 256-bit prime: `2^256 - 189` (the largest 256-bit
/// prime of the form `2^256 - k`). Used as the default SIES modulus so that
/// runs are reproducible without a setup-time prime search.
pub const DEFAULT_PRIME_256: U256 = U256::from_limbs([
    0xFFFF_FFFF_FFFF_FF43,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
]);

/// Generates a random prime of up to 256 bits as a [`U256`] (the paper's
/// setup phase: "𝒬 also produces an arbitrary prime p").
pub fn generate_prime_u256(rng: &mut dyn RngCore, bits: usize) -> U256 {
    assert!((2..=256).contains(&bits), "bits must be in 2..=256");
    BigUint::random_prime(rng, bits, 40).to_u256()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_prime_is_prime() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = BigUint::from(&DEFAULT_PRIME_256);
        assert_eq!(p.bit_len(), 256);
        assert!(p.is_probable_prime(&mut rng, 40));
        // Spot-check the constant: 2^256 - p = 189.
        let two256 = BigUint::from_u64(1).shl(256);
        assert_eq!(two256.sub(&p), BigUint::from_u64(189));
    }

    #[test]
    fn generated_prime_has_size_and_is_prime() {
        let mut rng = StdRng::seed_from_u64(123);
        let p = generate_prime_u256(&mut rng, 256);
        assert_eq!(p.bit_len(), 256);
        let big = BigUint::from(&p);
        assert!(big.is_probable_prime(&mut rng, 40));
    }
}
