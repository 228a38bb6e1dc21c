//! Bit-identity of every batched HMAC against the scalar free functions.
//!
//! The batched entry points finish in one of two kernel shapes. One
//! message under many keys — `hm1_epoch`, `hm256_epoch`, `derive_mod_p`,
//! the combined per-source sweep `for_each_epoch_key`, and `hmac_many` —
//! runs the shared-block pass, which expands the common inner block's
//! schedule once per tile; one message per key — `hm1_many` — runs the
//! tiled finalize. The shapes that can break either are the tile and
//! kernel-pass boundaries (batch sizes around 16 and around `TILE`), the
//! RFC 2104 key cases (empty, short, exactly one block, one byte over,
//! far over — long keys are hashed first, differently per hash), key
//! tables read out of order (the querier's contributor lists), epochs at
//! both ends of the counter range, messages past the single-block limit
//! (0–130 bytes per lane; 0, 11, 60 and 100 bytes shared), and the
//! derive-to-range rejection tail. Every case runs at every kernel width.

use sies_crypto::hmac::{hmac, hmac_many_into_with};
use sies_crypto::prf::{self, KeyedPrf};
use sies_crypto::sha1::Sha1;
use sies_crypto::sha256::Sha256;
use sies_crypto::u256::U256;
use sies_crypto::DEFAULT_PRIME_256;

/// Keys per tile of the batched finalize (`hmac::TILE`, crate-private;
/// a unit test there pins it to this value).
const TILE: usize = 64;
const WIDTHS: [usize; 4] = [1, 4, 8, 16];
const KEY_LENS: [usize; 5] = [0, 20, 64, 65, 131];

fn batch_sizes() -> [usize; 9] {
    [0, 1, 15, 16, 17, TILE - 1, TILE, TILE + 1, 2 * TILE + 3]
}

/// `n` keys cycling through the RFC 2104 length classes, each distinct.
fn keys(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let len = KEY_LENS[i % KEY_LENS.len()];
            (0..len).map(|j| (i * 31 + j * 7) as u8).collect()
        })
        .collect()
}

/// A fixed permutation-with-repeats of `0..n`: reversed, strided, and
/// with one key read twice — never the table's own order.
fn shuffled(n: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n.max(1)).collect();
    ids.reverse();
    if n > 2 {
        ids[n / 2] = ids[0];
    }
    ids
}

#[test]
fn epoch_prfs_match_scalar_at_every_width_and_boundary() {
    // 257 = 2^8 + 1: the masked draw lands in [257, 512) about half the
    // time, so most keys take the counter-suffixed rejection tail.
    let small = U256::from_u64(257);
    for n in batch_sizes() {
        let keys = keys(n);
        let table = KeyedPrf::new_many(&keys);
        for (i, key) in keys.iter().enumerate() {
            assert!(table[i] == KeyedPrf::new(key), "new_many key {i} of {n}");
        }
        let ids = shuffled(n);
        let picked = || ids.iter().map(|&i| &table[i]);
        for width in WIDTHS {
            for epoch in [0u64, 7, u64::MAX] {
                let mut hm1s = vec![[0u8; 20]; n];
                let mut hm256s = vec![[0u8; 32]; n];
                prf::hm1_epoch_into_with(width, picked(), epoch, &mut hm1s);
                prf::hm256_epoch_into_with(width, picked(), epoch, &mut hm256s);
                for (l, &i) in ids.iter().enumerate() {
                    let at = format!("lane {l} (key {i}) of {n}, width {width}");
                    assert_eq!(hm1s[l], prf::hm1_epoch(&keys[i], epoch), "{at}");
                    assert_eq!(hm256s[l], prf::hm256_epoch(&keys[i], epoch), "{at}");
                }
                for p in [&DEFAULT_PRIME_256, &small] {
                    let mut derived = vec![U256::ZERO; n];
                    prf::derive_mod_p_into_with(width, picked(), epoch, p, &mut derived);
                    for (l, &i) in ids.iter().enumerate() {
                        assert_eq!(
                            derived[l],
                            prf::derive_mod(&keys[i], epoch, p),
                            "lane {l} (key {i}) of {n}, width {width}"
                        );
                    }
                    // Both per-source sweeps at once, in key order.
                    let mut next = 0;
                    prf::for_each_epoch_key_with(width, picked(), epoch, p, |l, k_it, ss| {
                        assert_eq!(l, next, "keys visited in order");
                        next += 1;
                        let i = ids[l];
                        let at = format!("lane {l} (key {i}) of {n}, width {width}");
                        assert_eq!(k_it, prf::derive_mod(&keys[i], epoch, p), "{at}");
                        assert_eq!(ss, prf::hm1_epoch(&keys[i], epoch), "{at}");
                    });
                    assert_eq!(next, n);
                }
            }
        }
        // The default-width allocating forms agree with the pinned ones.
        assert_eq!(
            prf::hm1_epoch_many(picked(), 9),
            ids.iter()
                .map(|&i| prf::hm1_epoch(&keys[i], 9))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            prf::derive_mod_p_many(picked(), 9, &small),
            ids.iter()
                .map(|&i| prf::derive_mod(&keys[i], 9, &small))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn rejection_tail_is_exercised() {
    let small = U256::from_u64(257);
    let mask = U256::low_mask(small.bit_len());
    let keys = keys(TILE);
    let rejected = keys
        .iter()
        .filter(|k| U256::from_be_bytes(&prf::hm256_epoch(k, 7)).and(&mask) >= small)
        .count();
    assert!(rejected > 0, "no key exercised the rejection tail");
}

#[test]
fn per_lane_messages_match_scalar_at_every_width_and_boundary() {
    for n in batch_sizes() {
        let keys = keys(n);
        let table = KeyedPrf::new_many(&keys);
        let ids = shuffled(n);
        // 0..=130 bytes: empty, the 55/56-byte single-block limit, whole
        // blocks, and multi-block messages.
        let msgs: Vec<Vec<u8>> = (0..n)
            .map(|l| vec![l as u8 ^ 0xA5; [0, 8, 12, 55, 56, 63, 64, 130][l % 8]])
            .collect();
        for width in WIDTHS {
            let mut got = vec![[0u8; 20]; n];
            prf::hm1_many_into_with(width, ids.iter().map(|&i| &table[i]).zip(&msgs), &mut got);
            for (l, &i) in ids.iter().enumerate() {
                assert_eq!(
                    got[l],
                    prf::hm1(&keys[i], &msgs[l]),
                    "lane {l} of {n}, width {width}"
                );
                assert_eq!(got[l], table[i].hm1(&msgs[l]));
            }
        }
        assert_eq!(
            prf::hm1_many(ids.iter().map(|&i| &table[i]).zip(&msgs)),
            ids.iter()
                .zip(&msgs)
                .map(|(&i, m)| prf::hm1(&keys[i], m))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn hmac_many_matches_scalar_at_every_width_and_boundary() {
    for n in batch_sizes() {
        let keys = keys(n);
        let ids = shuffled(n);
        let refs: Vec<&[u8]> = ids.iter().map(|&i| keys[i].as_slice()).collect();
        for msg in [&b""[..], b"mutesla-mac", &[0x3C; 60], &[0x3C; 100]] {
            for width in WIDTHS {
                let mut got1 = vec![[0u8; 20]; n];
                let mut got256 = vec![[0u8; 32]; n];
                hmac_many_into_with::<Sha1>(width, &refs, msg, &mut got1);
                hmac_many_into_with::<Sha256>(width, &refs, msg, &mut got256);
                for (l, key) in refs.iter().enumerate() {
                    let at = format!("lane {l} of {n}, width {width}, key {} B", key.len());
                    assert_eq!(&got1[l][..], &hmac::<Sha1>(key, msg)[..], "{at}");
                    assert_eq!(&got256[l][..], &hmac::<Sha256>(key, msg)[..], "{at}");
                }
            }
        }
    }
}
