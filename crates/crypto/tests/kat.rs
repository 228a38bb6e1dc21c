//! Known-answer tests pinning the primitives to published vectors:
//!
//! * SHA-1 — FIPS 180-4 / RFC 3174 examples;
//! * SHA-256 — FIPS 180-4 examples;
//! * the multi-lane x4/x8 kernels — every lane pinned to the same FIPS
//!   vectors at every scheduling width;
//! * HMAC-SHA1 — RFC 2202;
//! * HMAC-SHA256 — RFC 4231;
//! * RSA SEAL chains — a fixed key generated once (see the inline
//!   constants) with every expected value computed by an independent
//!   big-integer implementation and pinned here, plus the modulus that
//!   seeded key generation draws, which every SECOA key depends on.
//!
//! A KAT failure means the primitive itself regressed — not a protocol
//! bug — so these run before anything else in CI's test job.

use sies_crypto::biguint::BigUint;
use sies_crypto::hash::HashFunction;
use sies_crypto::hmac::hmac;
use sies_crypto::rsa::RsaPublicKey;
use sies_crypto::sha1::Sha1;
use sies_crypto::sha256::Sha256;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd-length hex literal");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn big(s: &str) -> BigUint {
    BigUint::from_be_bytes(&unhex(s))
}

// ---------------------------------------------------------------- SHA-1

/// FIPS 180-4 §A / RFC 3174 test cases, plus the empty string.
#[test]
fn sha1_fips_vectors() {
    let cases: &[(&[u8], &str)] = &[
        (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
        (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "a49b2446a02c645bf419f995b67091253a04a259",
        ),
    ];
    for (msg, want) in cases {
        assert_eq!(hex(&Sha1::digest(msg)), *want);
    }
}

/// FIPS 180-4 one-million-'a' vector, fed through streaming updates to
/// exercise block-boundary handling.
#[test]
fn sha1_million_a() {
    let mut h = Sha1::new();
    let chunk = [b'a'; 997]; // deliberately not a multiple of 64
    let mut fed = 0usize;
    while fed < 1_000_000 {
        let take = chunk.len().min(1_000_000 - fed);
        h.update(&chunk[..take]);
        fed += take;
    }
    assert_eq!(
        hex(&h.finalize()),
        "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    );
}

// -------------------------------------------------------------- SHA-256

/// FIPS 180-4 §B test cases, plus the empty string.
#[test]
fn sha256_fips_vectors() {
    let cases: &[(&[u8], &str)] = &[
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    for (msg, want) in cases {
        assert_eq!(hex(&Sha256::digest(msg)), *want);
    }
}

/// FIPS 180-4 one-million-'a' vector, streamed in odd-sized chunks.
#[test]
fn sha256_million_a() {
    let mut h = Sha256::new();
    let chunk = [b'a'; 1013];
    let mut fed = 0usize;
    while fed < 1_000_000 {
        let take = chunk.len().min(1_000_000 - fed);
        h.update(&chunk[..take]);
        fed += take;
    }
    assert_eq!(
        hex(&h.finalize()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

// ------------------------------------------------- multi-lane kernels

/// FIPS 180-4 Merkle–Damgård padding: `msg` split into 64-byte blocks
/// with the 0x80 marker and the big-endian bit length appended.
fn pad_blocks(msg: &[u8]) -> Vec<[u8; 64]> {
    let mut padded = msg.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
    padded
        .chunks_exact(64)
        .map(|b| b.try_into().unwrap())
        .collect()
}

/// The FIPS messages used to pin the lane kernels: the empty string,
/// "abc" (single block after padding) and the 56-byte two-block vector.
const LANE_MSGS: [&[u8]; 3] = [
    b"",
    b"abc",
    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
];

/// Every lane of the x4 and x8 SHA-256 kernels reproduces the scalar
/// FIPS digests — uniform lanes (all running one vector, including the
/// multi-block one) and mixed lanes (a different vector per lane).
#[test]
fn sha256_lane_kernels_match_fips_vectors() {
    use sies_crypto::sha256xn::{compress_many_with, initial_state};
    for msg in LANE_MSGS {
        let want = Sha256::digest(msg);
        let blocks = pad_blocks(msg);
        for width in [4usize, 8] {
            let mut states = vec![initial_state(); width];
            for block in &blocks {
                let lane_blocks = vec![*block; width];
                compress_many_with(width, &mut states, &lane_blocks);
            }
            for (l, st) in states.iter().enumerate() {
                let got: Vec<u8> = st.iter().flat_map(|w| w.to_be_bytes()).collect();
                assert_eq!(hex(&got), hex(&want), "lane {l} at width {width}");
            }
        }
    }
    // Mixed single-block lanes: lane l runs LANE_MSGS[l % 2] (both fit
    // one padded block), checked at both widths.
    for width in [4usize, 8] {
        let mut states = vec![initial_state(); width];
        let lane_blocks: Vec<[u8; 64]> = (0..width)
            .map(|l| pad_blocks(LANE_MSGS[l % 2])[0])
            .collect();
        compress_many_with(width, &mut states, &lane_blocks);
        for (l, st) in states.iter().enumerate() {
            let got: Vec<u8> = st.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(
                hex(&got),
                hex(&Sha256::digest(LANE_MSGS[l % 2])),
                "lane {l}"
            );
        }
    }
}

/// Same pinning for the SHA-1 lane kernels.
#[test]
fn sha1_lane_kernels_match_fips_vectors() {
    use sies_crypto::sha1xn::{compress_many_with, initial_state};
    for msg in LANE_MSGS {
        let want = Sha1::digest(msg);
        let blocks = pad_blocks(msg);
        for width in [4usize, 8] {
            let mut states = vec![initial_state(); width];
            for block in &blocks {
                let lane_blocks = vec![*block; width];
                compress_many_with(width, &mut states, &lane_blocks);
            }
            for (l, st) in states.iter().enumerate() {
                let got: Vec<u8> = st[..5].iter().flat_map(|w| w.to_be_bytes()).collect();
                assert_eq!(hex(&got), hex(&want), "lane {l} at width {width}");
            }
        }
    }
    for width in [4usize, 8] {
        let mut states = vec![initial_state(); width];
        let lane_blocks: Vec<[u8; 64]> = (0..width)
            .map(|l| pad_blocks(LANE_MSGS[l % 2])[0])
            .collect();
        compress_many_with(width, &mut states, &lane_blocks);
        for (l, st) in states.iter().enumerate() {
            let got: Vec<u8> = st[..5].iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(hex(&got), hex(&Sha1::digest(LANE_MSGS[l % 2])), "lane {l}");
        }
    }
}

// ----------------------------------------------------------- HMAC-SHA1

/// RFC 2202 §3 test cases 1–7 (the full set, including the truncated
/// key-longer-than-block cases).
#[test]
fn hmac_sha1_rfc2202() {
    let cases: &[(Vec<u8>, Vec<u8>, &str)] = &[
        (
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b617318655057264e28bc0b6fb378c8ef146be00",
        ),
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
        ),
        (
            vec![0xaa; 20],
            vec![0xdd; 50],
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
        ),
        (
            unhex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
            vec![0xcd; 50],
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
        ),
        (
            vec![0x0c; 20],
            b"Test With Truncation".to_vec(),
            "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
        ),
        (
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112",
        ),
        (
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data".to_vec(),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
        ),
    ];
    for (key, msg, want) in cases {
        assert_eq!(hex(&hmac::<Sha1>(key, msg)), *want);
    }
}

// --------------------------------------------------------- HMAC-SHA256

/// RFC 4231 §4 test cases 1–4, 6, 7 (case 5 is output truncation, which
/// this implementation does not expose).
#[test]
fn hmac_sha256_rfc4231() {
    let cases: &[(Vec<u8>, Vec<u8>, &str)] = &[
        (
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            vec![0xaa; 20],
            vec![0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            unhex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
            vec![0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            vec![0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            vec![0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm."
                .to_vec(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for (key, msg, want) in cases {
        assert_eq!(hex(&hmac::<Sha256>(key, msg)), *want);
    }
}

// ------------------------------------------------------ RSA SEAL chain

// A fixed 256-bit SEAL key: p, q are 128-bit primes ≡ 2 (mod 3), so the
// public exponent e = 3 is valid. Every expected value below was
// computed with an independent arbitrary-precision implementation.
const RSA_P: &str = "c7725524a5900e9017809beb342af359";
const RSA_Q: &str = "9830b76461ac9fe92f6ead8f46cdb3d9";
const RSA_N: &str = "7691d6dea8cbd7fcb5e7c13ebf5b07d273b6fbbab9fc2ff81655387f74d48171";
const RSA_D: &str = "4f0be4947087e55323efd629d4e75a8b62b7f4cbcc7faba9df994a03513d3c2b";
const SEAL_SEED: &str = "5eca0123456789abcdef1337c0debeef";

/// `E^k(seed)` for `k = 1..=5` under the pinned key — the SECOA rolling
/// operation as a known-answer chain.
const SEAL_CHAIN: [&str; 5] = [
    "082a77cc7093ac8cd56a8a8dcd66cfdf3929d0eb3f182083c802aa68a439b990",
    "74f0ba2564efb2eccc0eaa88dc0f29a75486164f5e13c47bac4bafbccc638c5d",
    "4847b4125141432f17c39a8da7b1f15be5dbdf276bd808c6ff41947bc1d554b2",
    "70ccd5b811559d19d72a5d6258b04ce415313cc1d90b03959b750db34a06fea6",
    "51f83fd0381bf9b85003522afc42d745d8d78bc65099930845a8b26f872d871e",
];

#[test]
fn rsa_seal_chain_kat() {
    let pk = RsaPublicKey::from_primes(&big(RSA_P), &big(RSA_Q));
    assert_eq!(pk.modulus(), &big(RSA_N), "pinned modulus");
    assert_eq!(pk.exponent().as_u64(), 3);

    let seed = big(SEAL_SEED);
    for (k, want) in SEAL_CHAIN.iter().enumerate() {
        assert_eq!(
            pk.encrypt_repeated(&seed, k as u64 + 1),
            big(want),
            "SEAL chain diverged at step {}",
            k + 1
        );
    }
    // One rolling step from the pinned midpoint reproduces the next link.
    assert_eq!(pk.encrypt(&big(SEAL_CHAIN[2])), big(SEAL_CHAIN[3]));
    // The pinned private exponent walks the chain backwards.
    let back = |c: &str| big(c).pow_mod(&big(RSA_D), &big(RSA_N));
    assert_eq!(back(SEAL_CHAIN[0]), seed);
    assert_eq!(back(SEAL_CHAIN[4]), big(SEAL_CHAIN[3]));
}

/// Fold/roll commutation pinned as data:
/// `E³(31337) · E³(424242) = E³(31337·424242 mod n)`.
#[test]
fn rsa_fold_roll_kat() {
    let pk = RsaPublicKey::from_primes(&big(RSA_P), &big(RSA_Q));
    let want = big("14122aeeb0c1c0c9596e62bb9360c540f82ed891f66f94240b508f886b496689");
    let x = BigUint::from_u64(31337);
    let y = BigUint::from_u64(424242);
    let lhs = pk.fold(&pk.encrypt_repeated(&x, 3), &pk.encrypt_repeated(&y, 3));
    let rhs = pk.encrypt_repeated(&x.mul_mod(&y, pk.modulus()), 3);
    assert_eq!(lhs, want);
    assert_eq!(rhs, want);
}

#[test]
fn rsa_private_exponent_matches_pinned_value() {
    // d = e⁻¹ mod φ(n) inverts the key built from the primes: a
    // ciphertext under it decrypts with the pinned d directly.
    let pk = RsaPublicKey::from_primes(&big(RSA_P), &big(RSA_Q));
    let m = BigUint::from_u64(0xfeed_f00d);
    let c = pk.encrypt(&m);
    assert_eq!(c.pow_mod(&big(RSA_D), &big(RSA_N)), m);
}

/// Two 512-bit moduli drawn in turn by `RsaPublicKey::generate` from
/// `StdRng::seed_from_u64(0x5EC0A)`. Every SECOA key comes from this
/// function, so the reproduced figures depend on its draw sequence: the
/// second modulus also pins how many draws the first one consumed.
const GENERATED_N: [&str; 2] = [
    "814aa7dd0cd3ff91e3ad64eaa8c343494915fe952105d3bd9574132eb7862879\
     d02a87c085ac910affaf32f411f1e069a55655da00dc1e880c9e9cbf94060c8f",
    "ac40d599fdf183fcbec8f67df5385fde8da80265b4fbc358a5c0c80c6a7bd640\
     19177aa3916897ff448deb99883b8fbda3603f10ec5f0ef00bedef66b6d786bf",
];

#[test]
fn rsa_generate_kat() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EC0A);
    for want in GENERATED_N {
        let pk = RsaPublicKey::generate(&mut rng, 512);
        assert_eq!(pk.modulus(), &big(want), "seeded key generation drifted");
        assert_eq!(pk.exponent().as_u64(), 3);
    }
}
