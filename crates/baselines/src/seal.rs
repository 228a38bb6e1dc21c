//! SEALs: SECOA's deflation certificates (paper §II-D).
//!
//! A SEAL is a seed encrypted `x` times with the raw RSA permutation — a
//! one-way chain. From `E^a(sd)` anyone can *roll* forward to `E^b(sd)`
//! for `b > a`, but never backward; so a reported value can be inflated
//! but not deflated without detection (inflation is covered separately by
//! HMAC certificates). RSA's multiplicative homomorphism lets SEALs at the
//! same chain position be *folded* (multiplied mod `n`) into one.

use sies_crypto::biguint::BigUint;
use sies_crypto::prf;
use sies_crypto::rsa::RsaPublicKey;

/// A SEAL: a chain element at a known position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seal {
    /// Chain position (= the committed sketch/value).
    pub position: u64,
    /// `E^position(seed-product) mod n`.
    pub value: BigUint,
}

impl Seal {
    /// Creates the SEAL for a seed at chain position `x` (the source-side
    /// operation: `x` RSA encryptions).
    pub fn new(pk: &RsaPublicKey, seed: &BigUint, x: u64) -> Self {
        Seal {
            position: x,
            value: pk.encrypt_repeated(seed, x),
        }
    }

    /// Creates SEALs for many `(seed, position)` pairs at once: the
    /// ragged chains are bucketed by position and each bucket runs
    /// through the batch rolling kernel
    /// ([`RsaPublicKey::encrypt_repeated_ragged`]). Identical bytes to
    /// mapping [`Seal::new`].
    pub fn new_many(pk: &RsaPublicKey, items: &[(BigUint, u64)]) -> Vec<Seal> {
        let values = pk.encrypt_repeated_ragged(items);
        items
            .iter()
            .zip(values)
            .map(|((_, x), value)| Seal {
                position: *x,
                value,
            })
            .collect()
    }

    /// Rolls the SEAL forward to `target` (≥ current position).
    ///
    /// # Panics
    /// Panics if `target` is behind the current position — that is the
    /// deflation the one-way chain forbids.
    pub fn roll_to(&mut self, pk: &RsaPublicKey, target: u64) {
        assert!(
            target >= self.position,
            "cannot roll a SEAL backward ({} -> {target})",
            self.position
        );
        self.value = pk.encrypt_repeated(&self.value, target - self.position);
        self.position = target;
    }

    /// Folds another SEAL at the same position into this one.
    ///
    /// # Panics
    /// Panics on position mismatch.
    pub fn fold_with(&mut self, pk: &RsaPublicKey, other: &Seal) {
        assert_eq!(
            self.position, other.position,
            "folding requires equal positions"
        );
        self.value = pk.fold(&self.value, &other.value);
    }

    /// Wire size of a SEAL in bytes (`S_SEAL`, = RSA modulus size).
    pub fn wire_size(pk: &RsaPublicKey) -> usize {
        pk.modulus_bytes()
    }
}

/// The `HM1` message binding a seed to its `(sketch, epoch)` slot.
pub fn seed_message(sketch_idx: u32, epoch: u64) -> [u8; 12] {
    let mut msg = [0u8; 12];
    msg[..4].copy_from_slice(&sketch_idx.to_be_bytes());
    msg[4..].copy_from_slice(&epoch.to_be_bytes());
    msg
}

/// Derives the per-(source, sketch, epoch) seed `sd_{i,j,t} ∈ Z_n`.
///
/// Cost-model faithful: exactly **one** `HM1` call per seed (the querier's
/// `J·N·C_HM1` term in Equation 8); the 20-byte digest is then expanded to
/// the modulus width with a non-cryptographic mixer. A production system
/// would use a full PRF expansion; the distinction does not affect any
/// measured cost shape.
pub fn derive_seed(seed_key: &[u8], sketch_idx: u32, epoch: u64, pk: &RsaPublicKey) -> BigUint {
    seed_from_digest(&prf::hm1(seed_key, &seed_message(sketch_idx, epoch)), pk)
}

/// Expands a 20-byte `HM1` digest into `Z_n`. Exposed so batched digest
/// derivations ([`sies_crypto::prf::hm1_many`]) can share the expansion.
pub fn seed_from_digest(digest: &[u8; 20], pk: &RsaPublicKey) -> BigUint {
    // Expand 20 bytes to modulus width with splitmix64 over the digest.
    let nbytes = pk.modulus_bytes();
    let mut material = Vec::with_capacity(nbytes);
    let mut state = u64::from_be_bytes(digest[..8].try_into().unwrap());
    let tweak = u64::from_be_bytes(digest[8..16].try_into().unwrap());
    while material.len() < nbytes {
        state = state
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ tweak;
        material.extend_from_slice(&state.to_be_bytes());
    }
    material.truncate(nbytes);
    // Clear the top byte so the value is < n for any plausible modulus.
    material[0] = 0;
    let candidate = BigUint::from_be_bytes(&material);
    // Guard against zero (not invertible / degenerate chain).
    if candidate.is_zero() {
        BigUint::from_u64(2)
    } else {
        candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sies_crypto::rsa::RsaKeyPair;

    fn pk() -> RsaPublicKey {
        let mut rng = StdRng::seed_from_u64(42);
        RsaKeyPair::generate(&mut rng, 256).public().clone()
    }

    #[test]
    fn seal_roll_matches_direct_construction() {
        let pk = pk();
        let sd = BigUint::from_u64(31337);
        let mut s = Seal::new(&pk, &sd, 3);
        s.roll_to(&pk, 8);
        assert_eq!(s, Seal::new(&pk, &sd, 8));
    }

    #[test]
    #[should_panic(expected = "backward")]
    fn deflation_panics() {
        let pk = pk();
        let mut s = Seal::new(&pk, &BigUint::from_u64(5), 4);
        s.roll_to(&pk, 2);
    }

    #[test]
    fn fold_is_seed_product() {
        let pk = pk();
        let (a, b) = (BigUint::from_u64(111), BigUint::from_u64(222));
        let mut sa = Seal::new(&pk, &a, 5);
        let sb = Seal::new(&pk, &b, 5);
        sa.fold_with(&pk, &sb);
        let product = a.mul_mod(&b, pk.modulus());
        assert_eq!(sa, Seal::new(&pk, &product, 5));
    }

    #[test]
    #[should_panic(expected = "equal positions")]
    fn fold_position_mismatch_panics() {
        let pk = pk();
        let mut sa = Seal::new(&pk, &BigUint::from_u64(1), 2);
        let sb = Seal::new(&pk, &BigUint::from_u64(1), 3);
        sa.fold_with(&pk, &sb);
    }

    #[test]
    fn roll_then_fold_equals_fold_then_roll() {
        let pk = pk();
        let (a, b) = (BigUint::from_u64(987), BigUint::from_u64(654));
        // Roll both to 6, then fold.
        let mut r1 = Seal::new(&pk, &a, 2);
        r1.roll_to(&pk, 6);
        let mut r2 = Seal::new(&pk, &b, 4);
        r2.roll_to(&pk, 6);
        r1.fold_with(&pk, &r2);
        // Fold seeds first, then construct at 6.
        let direct = Seal::new(&pk, &a.mul_mod(&b, pk.modulus()), 6);
        assert_eq!(r1, direct);
    }

    #[test]
    fn cached_and_digest_paths_match_derive_seed() {
        let pk = pk();
        let prf = sies_crypto::prf::KeyedPrf::new(b"key-a");
        for j in 0..4u32 {
            for t in 0..4u64 {
                let direct = derive_seed(b"key-a", j, t, &pk);
                let digest = prf.hm1(&seed_message(j, t));
                assert_eq!(seed_from_digest(&digest, &pk), direct);
            }
        }
    }

    #[test]
    fn seeds_are_distinct_per_dimension() {
        let pk = pk();
        let base = derive_seed(b"key-a", 0, 0, &pk);
        assert_ne!(base, derive_seed(b"key-b", 0, 0, &pk), "key separation");
        assert_ne!(base, derive_seed(b"key-a", 1, 0, &pk), "sketch separation");
        assert_ne!(base, derive_seed(b"key-a", 0, 1, &pk), "epoch separation");
        assert_eq!(base, derive_seed(b"key-a", 0, 0, &pk), "determinism");
    }

    #[test]
    fn seeds_fit_modulus() {
        let pk = pk();
        for j in 0..20u32 {
            let sd = derive_seed(b"k", j, 9, &pk);
            assert!(sd < *pk.modulus());
            assert!(!sd.is_zero());
        }
    }
}
