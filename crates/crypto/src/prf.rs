//! The paper's two PRF instances and derive-to-range helpers.
//!
//! §II-A: "we assume that the PRFs are implemented as HMACs". `HM1` is
//! HMAC-SHA-1 (20-byte output) and `HM256` is HMAC-SHA-256 (32-byte
//! output). Epoch counters are encoded as 8-byte big-endian integers.
//!
//! Three tiers of entry points, all bit-identical:
//!
//! * **Scalar free functions** — [`hm1_epoch`], [`hm256_epoch`],
//!   [`derive_mod`], … re-derive the HMAC key schedule on every call;
//!   fine for setup and cold paths.
//! * **[`KeyedPrf`]** — one key reduced to its four HMAC chaining states
//!   (SHA-256 and SHA-1, ipad and opad): 104 bytes of `Copy` data, built
//!   in lane batches by [`KeyedPrf::new_many`]. Each PRF call then costs
//!   exactly two compressions and touches no heap.
//! * **Cross-key batch functions** — one key per hash lane at the CPU's
//!   full lane width ([`crate::lanes`]); the `_into_with` forms write
//!   into caller-owned buffers at a pinned lane width.
//!   [`hm1_epoch_many`], [`hm256_epoch_many`] and [`derive_mod_p_many`]
//!   evaluate the epoch counter under many keys, and
//!   [`for_each_epoch_key`] runs both per-source sweeps of a SIES epoch
//!   (`k_{i,t}` and `ss_{i,t}`) tile by tile in stack buffers and hands
//!   each key's pair to a closure, allocating nothing: the shape of
//!   source batch init, prewarm derivation and the querier's Σk/Σss
//!   recomputation. Every key hashes the same message there, so these
//!   run the kernels' shared-block HMAC pass ([`mod@crate::hmac`]),
//!   which expands the epoch block's schedule once per tile. Only
//!   rejected derive-to-range draws (probability 189 · 2⁻²⁵⁶ per key
//!   under the default prime) take a scalar tail. [`hm1_many`] takes one
//!   message per key (SECOA's certificates) through the tiled finalize.

use crate::hmac::{
    finalize_into_with, finalize_one, hmac, one_message_into_with, pads_into_with, Pads, TILE,
};
use crate::lanes::effective_lane_width;
use crate::sha1::Sha1;
use crate::sha256::Sha256;
use crate::u256::U256;
use sies_telemetry as tel;

/// `HM1(key, t)`: the 20-byte PRF used for secret shares `ss_{i,t}` and the
/// CMT per-epoch keys.
pub fn hm1_epoch(key: &[u8], epoch: u64) -> [u8; 20] {
    let digest = hmac::<Sha1>(key, &epoch.to_be_bytes());
    digest.try_into().expect("SHA-1 digest is 20 bytes")
}

/// `HM256(key, t)`: the 32-byte PRF used for `K_t` and `k_{i,t}`.
pub fn hm256_epoch(key: &[u8], epoch: u64) -> [u8; 32] {
    let digest = hmac::<Sha256>(key, &epoch.to_be_bytes());
    digest.try_into().expect("SHA-256 digest is 32 bytes")
}

/// `HM1` over an arbitrary message (used for SECOA inflation certificates).
pub fn hm1(key: &[u8], message: &[u8]) -> [u8; 20] {
    hmac::<Sha1>(key, message)
        .try_into()
        .expect("SHA-1 digest is 20 bytes")
}

/// `HM256` over an arbitrary message.
pub fn hm256(key: &[u8], message: &[u8]) -> [u8; 32] {
    hmac::<Sha256>(key, message)
        .try_into()
        .expect("SHA-256 digest is 32 bytes")
}

/// Derives a value in `[0, p)` from `HM256(key, t)`: the 32-byte output is
/// masked down to `p`'s bit length and rejected (re-hashing with a counter
/// suffix) until it lands below `p`. Masking keeps the expected number of
/// draws below 2 for any modulus while preserving uniformity.
pub fn derive_mod(key: &[u8], epoch: u64, p: &U256) -> U256 {
    let mask = U256::low_mask(p.bit_len());
    let mut counter: u32 = 0;
    loop {
        let mut msg = Vec::with_capacity(12);
        msg.extend_from_slice(&epoch.to_be_bytes());
        if counter > 0 {
            msg.extend_from_slice(&counter.to_be_bytes());
        }
        let digest = hmac::<Sha256>(key, &msg);
        let candidate = U256::from_be_bytes(&digest.try_into().expect("32 bytes")).and(&mask);
        if &candidate < p {
            return candidate;
        }
        counter += 1;
    }
}

/// Like [`derive_mod`] but additionally rejects zero — used for the global
/// epoch key `K_t`, which must be invertible mod `p` (paper §III-D requires
/// `K ≠ 0`).
pub fn derive_mod_nonzero(key: &[u8], epoch: u64, p: &U256) -> U256 {
    let mask = U256::low_mask(p.bit_len());
    let mut counter: u32 = 0;
    loop {
        let mut msg = Vec::with_capacity(16);
        msg.extend_from_slice(&epoch.to_be_bytes());
        msg.extend_from_slice(b"nz");
        if counter > 0 {
            msg.extend_from_slice(&counter.to_be_bytes());
        }
        let digest = hmac::<Sha256>(key, &msg);
        let candidate = U256::from_be_bytes(&digest.try_into().expect("32 bytes")).and(&mask);
        if !candidate.is_zero() && &candidate < p {
            return candidate;
        }
        counter += 1;
    }
}

/// A long-term key with its HMAC pads pre-absorbed: the batched hot path
/// for deriving many per-epoch values under one key.
///
/// Holds nothing but the four chaining states an HMAC under the key
/// starts from — SHA-256 and SHA-1, after `key ⊕ ipad` and after
/// `key ⊕ opad` — so it is 104 bytes of `Copy` data. Every PRF call
/// finishes from these states in two compressions (the inner hash's
/// padded message block and the outer hash's digest block); the batch
/// functions below read them straight into kernel lanes.
///
/// Every method is bit-identical to the corresponding free function —
/// asserted by `batched_prf_matches_oneshot` below — so callers can adopt
/// the batched path without changing any derived key, share, or
/// ciphertext.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct KeyedPrf {
    /// HMAC-SHA-256 inner and outer chaining states.
    hm256: [[u32; 8]; 2],
    /// HMAC-SHA-1 inner and outer chaining states (five words each).
    hm1: [[u32; 5]; 2],
}

impl KeyedPrf {
    /// Absorbs `key` into both HMAC instances (four scalar compressions).
    pub fn new(key: &[u8]) -> Self {
        Self::from_pads(&Pads::new::<Sha1>(key), &Pads::new::<Sha256>(key))
    }

    /// [`KeyedPrf::new`] for every key, with the four pad compressions
    /// of each key batched across hash lanes.
    pub fn new_many<K: AsRef<[u8]>>(keys: &[K]) -> Vec<KeyedPrf> {
        let width = effective_lane_width();
        let mut hm1 = [Pads::default(); TILE];
        let mut hm256 = [Pads::default(); TILE];
        let mut out = Vec::with_capacity(keys.len());
        for tile in keys.chunks(TILE) {
            let n = tile.len();
            pads_into_with::<Sha1, _>(width, tile, &mut hm1[..n]);
            pads_into_with::<Sha256, _>(width, tile, &mut hm256[..n]);
            out.extend(
                hm1[..n]
                    .iter()
                    .zip(&hm256[..n])
                    .map(|(a, b)| Self::from_pads(a, b)),
            );
        }
        out
    }

    fn from_pads(hm1: &Pads, hm256: &Pads) -> Self {
        let five = |s: &[u32; 8]| -> [u32; 5] { [s[0], s[1], s[2], s[3], s[4]] };
        KeyedPrf {
            hm256: [hm256.inner, hm256.outer],
            hm1: [five(&hm1.inner), five(&hm1.outer)],
        }
    }

    /// The HMAC-SHA-1 chaining states as lane registers.
    fn hm1_pads(&self) -> Pads {
        let eight = |s: &[u32; 5]| -> [u32; 8] { [s[0], s[1], s[2], s[3], s[4], 0, 0, 0] };
        Pads {
            inner: eight(&self.hm1[0]),
            outer: eight(&self.hm1[1]),
        }
    }

    /// The HMAC-SHA-256 chaining states as lane registers.
    fn hm256_pads(&self) -> Pads {
        Pads {
            inner: self.hm256[0],
            outer: self.hm256[1],
        }
    }

    /// `HM1(key, msg)` — identical to [`hm1`].
    pub fn hm1(&self, message: &[u8]) -> [u8; 20] {
        finalize_one::<Sha1>(self.hm1_pads(), message)
    }

    /// `HM1(key, t)` — identical to [`hm1_epoch`].
    pub fn hm1_epoch(&self, epoch: u64) -> [u8; 20] {
        self.hm1(&epoch.to_be_bytes())
    }

    /// `HM256(key, msg)` — identical to [`hm256`].
    fn hm256_raw(&self, message: &[u8]) -> [u8; 32] {
        finalize_one::<Sha256>(self.hm256_pads(), message)
    }

    /// `HM256(key, t)` — identical to [`hm256_epoch`].
    pub fn hm256_epoch(&self, epoch: u64) -> [u8; 32] {
        self.hm256_raw(&epoch.to_be_bytes())
    }

    /// Derives a value in `[0, p)` — identical to [`derive_mod`].
    pub fn derive_mod(&self, epoch: u64, p: &U256) -> U256 {
        let mask = U256::low_mask(p.bit_len());
        self.derive_from_draw(&self.hm256_epoch(epoch), epoch, p, &mask)
    }

    /// Finishes [`derive_mod`] from the counter-0 draw `HM256(key, t)`:
    /// the masked draw if it lands below `p`, else the rare rejection
    /// tail, which continues the counter-suffixed draws from
    /// `counter = 1`.
    fn derive_from_draw(&self, draw: &[u8; 32], epoch: u64, p: &U256, mask: &U256) -> U256 {
        let candidate = U256::from_be_bytes(draw).and(mask);
        if &candidate < p {
            return candidate;
        }
        let mut counter: u32 = 1;
        loop {
            let mut msg = [0u8; 12];
            msg[..8].copy_from_slice(&epoch.to_be_bytes());
            msg[8..].copy_from_slice(&counter.to_be_bytes());
            let candidate = U256::from_be_bytes(&self.hm256_raw(&msg)).and(mask);
            if &candidate < p {
                return candidate;
            }
            counter += 1;
        }
    }

    /// Derives a non-zero value in `[1, p)` — identical to
    /// [`derive_mod_nonzero`].
    pub fn derive_mod_nonzero(&self, epoch: u64, p: &U256) -> U256 {
        let mask = U256::low_mask(p.bit_len());
        let mut counter: u32 = 0;
        loop {
            // `epoch || "nz"`, then `|| counter` from the first retry on.
            let mut msg = [0u8; 14];
            msg[..8].copy_from_slice(&epoch.to_be_bytes());
            msg[8..10].copy_from_slice(b"nz");
            msg[10..].copy_from_slice(&counter.to_be_bytes());
            let len = if counter > 0 { 14 } else { 10 };
            let candidate = U256::from_be_bytes(&self.hm256_raw(&msg[..len])).and(&mask);
            if !candidate.is_zero() && &candidate < p {
                return candidate;
            }
            counter += 1;
        }
    }
}

/// Batched `HM1(key_i, t)` across many cached keys — one sensor per
/// lane. Element-wise identical to [`KeyedPrf::hm1_epoch`] (and so to
/// [`hm1_epoch`]).
pub fn hm1_epoch_many<'a, I>(prfs: I, epoch: u64) -> Vec<[u8; 20]>
where
    I: IntoIterator<Item = &'a KeyedPrf>,
{
    let prfs: Vec<&KeyedPrf> = prfs.into_iter().collect();
    let mut out = vec![[0u8; 20]; prfs.len()];
    hm1_epoch_into_with(effective_lane_width(), prfs, epoch, &mut out);
    out
}

/// [`hm1_epoch_many`] into `out` (exactly `out.len()` keys) at an
/// explicit lane width.
pub fn hm1_epoch_into_with<'a, I>(width: usize, prfs: I, epoch: u64, out: &mut [[u8; 20]])
where
    I: IntoIterator<Item = &'a KeyedPrf>,
{
    tel::observe!("crypto.prf.hm1_batch", out.len() as u64);
    let pads = prfs.into_iter().map(KeyedPrf::hm1_pads);
    one_message_into_with::<Sha1, _>(width, pads, &epoch.to_be_bytes(), out);
}

/// Batched `HM1(key_i, msg_i)` over arbitrary per-lane `(key, message)`
/// pairs — the shape of SECOA's certificate and seed derivations, where
/// both the key (per sensor) and the message (per sketch) vary.
/// Element-wise identical to [`KeyedPrf::hm1`] (and so to [`hm1`]).
pub fn hm1_many<'a, I, M>(pairs: I) -> Vec<[u8; 20]>
where
    I: IntoIterator<Item = (&'a KeyedPrf, M)>,
    M: AsRef<[u8]>,
{
    let pairs: Vec<(&KeyedPrf, M)> = pairs.into_iter().collect();
    let mut out = vec![[0u8; 20]; pairs.len()];
    hm1_many_into_with(effective_lane_width(), pairs, &mut out);
    out
}

/// [`hm1_many`] into `out` at an explicit lane width.
pub fn hm1_many_into_with<'a, I, M>(width: usize, pairs: I, out: &mut [[u8; 20]])
where
    I: IntoIterator<Item = (&'a KeyedPrf, M)>,
    M: AsRef<[u8]>,
{
    tel::observe!("crypto.prf.hm1_batch", out.len() as u64);
    let lanes = pairs.into_iter().map(|(p, m)| (p.hm1_pads(), m));
    finalize_into_with::<Sha1, _, _>(width, lanes, out);
}

/// Batched `HM256(key_i, t)` across many cached keys. Element-wise
/// identical to [`KeyedPrf::hm256_epoch`] (and so to [`hm256_epoch`]).
pub fn hm256_epoch_many<'a, I>(prfs: I, epoch: u64) -> Vec<[u8; 32]>
where
    I: IntoIterator<Item = &'a KeyedPrf>,
{
    let prfs: Vec<&KeyedPrf> = prfs.into_iter().collect();
    let mut out = vec![[0u8; 32]; prfs.len()];
    hm256_epoch_into_with(effective_lane_width(), prfs, epoch, &mut out);
    out
}

/// [`hm256_epoch_many`] into `out` at an explicit lane width.
pub fn hm256_epoch_into_with<'a, I>(width: usize, prfs: I, epoch: u64, out: &mut [[u8; 32]])
where
    I: IntoIterator<Item = &'a KeyedPrf>,
{
    tel::observe!("crypto.prf.hm256_batch", out.len() as u64);
    let pads = prfs.into_iter().map(KeyedPrf::hm256_pads);
    one_message_into_with::<Sha256, _>(width, pads, &epoch.to_be_bytes(), out);
}

/// Batched derive-to-range across many cached keys at one epoch: the
/// counter-0 draw of every key runs through the multi-lane kernels; the
/// (cryptographically rare) rejections retry per-key. Element-wise
/// identical to [`KeyedPrf::derive_mod`] (and so to [`derive_mod`]).
pub fn derive_mod_p_many<'a, I>(prfs: I, epoch: u64, p: &U256) -> Vec<U256>
where
    I: IntoIterator<Item = &'a KeyedPrf>,
{
    let prfs: Vec<&KeyedPrf> = prfs.into_iter().collect();
    let mut out = vec![U256::ZERO; prfs.len()];
    derive_mod_p_into_with(effective_lane_width(), prfs, epoch, p, &mut out);
    out
}

/// [`derive_mod_p_many`] into `out` (exactly `out.len()` keys) at an
/// explicit lane width.
pub fn derive_mod_p_into_with<'a, I>(width: usize, prfs: I, epoch: u64, p: &U256, out: &mut [U256])
where
    I: IntoIterator<Item = &'a KeyedPrf>,
{
    tel::observe!("crypto.prf.derive_batch", out.len() as u64);
    let mask = U256::low_mask(p.bit_len());
    let msg = epoch.to_be_bytes();
    let mut draws = [[0u8; 32]; TILE];
    let mut slots = out.iter_mut();
    for_each_tile(prfs, |keys| {
        let draws = &mut draws[..keys.len()];
        let pads = keys.iter().map(|prf| prf.hm256_pads());
        one_message_into_with::<Sha256, _>(width, pads, &msg, draws);
        for (prf, draw) in keys.iter().zip(&*draws) {
            *slots.next().expect("one output slot per key") =
                prf.derive_from_draw(draw, epoch, p, &mask);
        }
    });
    assert!(slots.next().is_none(), "one key per output slot");
}

/// One SIES epoch's two per-source PRF sweeps — the key share
/// `k_{i,t} = derive_mod(k_i, t, p)` and the secret share
/// `ss_{i,t} = HM1(k_i, t)` — over every key of `prfs`, calling
/// `f(i, k_{i,t}, ss_{i,t})` for the `i`-th key, in order. Both sweeps
/// run through the multi-lane kernels a tile of keys at a time, in
/// stack buffers: nothing is allocated. Element-wise identical to
/// [`KeyedPrf::derive_mod`] and [`KeyedPrf::hm1_epoch`].
pub fn for_each_epoch_key<'a, I>(
    prfs: I,
    epoch: u64,
    p: &U256,
    f: impl FnMut(usize, U256, [u8; 20]),
) where
    I: IntoIterator<Item = &'a KeyedPrf>,
{
    for_each_epoch_key_with(effective_lane_width(), prfs, epoch, p, f);
}

/// [`for_each_epoch_key`] at an explicit lane width.
pub fn for_each_epoch_key_with<'a, I>(
    width: usize,
    prfs: I,
    epoch: u64,
    p: &U256,
    mut f: impl FnMut(usize, U256, [u8; 20]),
) where
    I: IntoIterator<Item = &'a KeyedPrf>,
{
    let mask = U256::low_mask(p.bit_len());
    let msg = epoch.to_be_bytes();
    let mut draws = [[0u8; 32]; TILE];
    let mut sss = [[0u8; 20]; TILE];
    let mut i = 0;
    for_each_tile(prfs, |keys| {
        let n = keys.len();
        let pads = keys.iter().map(|prf| prf.hm256_pads());
        one_message_into_with::<Sha256, _>(width, pads, &msg, &mut draws[..n]);
        let pads = keys.iter().map(|prf| prf.hm1_pads());
        one_message_into_with::<Sha1, _>(width, pads, &msg, &mut sss[..n]);
        for ((prf, draw), ss) in keys.iter().zip(&draws).zip(&sss) {
            f(i, prf.derive_from_draw(draw, epoch, p, &mask), *ss);
            i += 1;
        }
    });
    tel::observe!("crypto.prf.derive_batch", i as u64);
    tel::observe!("crypto.prf.hm1_batch", i as u64);
}

/// Hands `prfs` to `f` a tile of up to [`TILE`] keys at a time, the
/// tile gathered in a stack array, so a batch sweep can run each tile
/// through the lane kernels without collecting the keys.
fn for_each_tile<'a, I>(prfs: I, mut f: impl FnMut(&[&'a KeyedPrf]))
where
    I: IntoIterator<Item = &'a KeyedPrf>,
{
    // Fills the slots a short last tile leaves empty; never hashed.
    const UNUSED: KeyedPrf = KeyedPrf {
        hm256: [[0; 8]; 2],
        hm1: [[0; 5]; 2],
    };
    let mut prfs = prfs.into_iter();
    let mut tile = [&UNUSED; TILE];
    loop {
        let mut n = 0;
        while n < TILE {
            let Some(prf) = prfs.next() else { break };
            tile[n] = prf;
            n += 1;
        }
        if n > 0 {
            f(&tile[..n]);
        }
        if n < TILE {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_prfs_are_deterministic_and_epoch_sensitive() {
        let k = b"a 20-byte secret key";
        assert_eq!(hm1_epoch(k, 7), hm1_epoch(k, 7));
        assert_ne!(hm1_epoch(k, 7), hm1_epoch(k, 8));
        assert_eq!(hm256_epoch(k, 7), hm256_epoch(k, 7));
        assert_ne!(hm256_epoch(k, 7), hm256_epoch(k, 8));
    }

    #[test]
    fn key_separation() {
        assert_ne!(hm1_epoch(b"key-a", 1), hm1_epoch(b"key-b", 1));
        assert_ne!(hm256_epoch(b"key-a", 1), hm256_epoch(b"key-b", 1));
    }

    #[test]
    fn derive_mod_is_below_modulus() {
        // A deliberately small 128-bit prime forces many rejections,
        // exercising the counter path.
        let p = U256::from_u128(340_282_366_920_938_463_463_374_607_431_768_211_297);
        for t in 0..50u64 {
            let v = derive_mod(b"key", t, &p);
            assert!(v < p, "epoch {t}");
        }
    }

    #[test]
    fn derive_mod_nonzero_never_zero() {
        let p = U256::from_u64(2); // only {0, 1}; forces rejection of 0s
        for t in 0..20u64 {
            let v = derive_mod_nonzero(b"key", t, &p);
            assert_eq!(v, U256::ONE, "epoch {t}");
        }
    }

    #[test]
    fn derive_mod_differs_from_nonzero_variant() {
        let p = U256::MAX;
        assert_ne!(derive_mod(b"key", 3, &p), derive_mod_nonzero(b"key", 3, &p));
    }

    #[test]
    fn batched_prf_matches_oneshot() {
        // The cached-pad path must be bit-identical to the free functions
        // for every derive variant — this equality is what lets the
        // parallel pipeline adopt it without changing a single ciphertext.
        let p_full = crate::DEFAULT_PRIME_256;
        // A small prime exercises the rejection-sampling counter path.
        let p_small = U256::from_u128(340_282_366_920_938_463_463_374_607_431_768_211_297);
        for key in [
            &b"a 20-byte secret key"[..],
            &[0xAB; 64][..],
            &[0x5C; 131][..],
        ] {
            let prf = KeyedPrf::new(key);
            for t in 0..25u64 {
                assert_eq!(prf.hm1_epoch(t), hm1_epoch(key, t));
                assert_eq!(prf.hm256_epoch(t), hm256_epoch(key, t));
                for p in [&p_full, &p_small] {
                    assert_eq!(prf.derive_mod(t, p), derive_mod(key, t, p));
                    assert_eq!(prf.derive_mod_nonzero(t, p), derive_mod_nonzero(key, t, p));
                }
            }
        }
    }

    #[test]
    fn cross_key_batches_match_scalar() {
        // The lane-batched fan-out must equal the per-key scalar PRFs for
        // ragged batch sizes (n % 4, n % 8 ≠ 0) and for moduli small
        // enough to force the rejection-sampling retry path.
        let p_full = crate::DEFAULT_PRIME_256;
        let p_small = U256::from_u128(340_282_366_920_938_463_463_374_607_431_768_211_297);
        for n in [0usize, 1, 3, 4, 5, 8, 13] {
            let keys: Vec<Vec<u8>> = (0..n).map(|i| vec![0x40 + i as u8; 20]).collect();
            let prfs: Vec<KeyedPrf> = keys.iter().map(|k| KeyedPrf::new(k)).collect();
            for t in [0u64, 7, 1_000_003] {
                let hm1s = hm1_epoch_many(&prfs, t);
                let hm256s = hm256_epoch_many(&prfs, t);
                assert_eq!(hm1s.len(), n);
                for i in 0..n {
                    assert_eq!(hm1s[i], hm1_epoch(&keys[i], t), "hm1 lane {i} of {n}");
                    assert_eq!(hm256s[i], hm256_epoch(&keys[i], t), "hm256 lane {i} of {n}");
                }
                for p in [&p_full, &p_small] {
                    let derived = derive_mod_p_many(&prfs, t, p);
                    for i in 0..n {
                        assert_eq!(derived[i], derive_mod(&keys[i], t, p), "lane {i} of {n}");
                    }
                }
            }
            // Per-lane messages of varying lengths (the SECOA shape).
            let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 1 + (i * 7) % 67]).collect();
            let outs = hm1_many(prfs.iter().zip(&msgs));
            for i in 0..n {
                assert_eq!(outs[i], hm1(&keys[i], &msgs[i]), "hm1 lane {i} of {n}");
                assert_eq!(prfs[i].hm1(&msgs[i]), hm1(&keys[i], &msgs[i]));
            }
        }
    }
}
