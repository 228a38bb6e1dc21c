//! SHA-1 (FIPS 180-4).
//!
//! SIES uses SHA-1 only inside `HM1(·)`, the HMAC PRF that derives the
//! 20-byte secret shares `ss_{i,t}` (paper §IV-A). Collision attacks on
//! SHA-1 do not affect its use as an HMAC PRF here; we keep it to match the
//! paper's sizes and cost model (`C_HM1`, 20-byte digests) exactly.

use crate::hash::{HashFunction, LaneHash};

pub(crate) const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Incremental SHA-1 state.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Sha1 {
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

impl HashFunction for Sha1 {
    const BLOCK_SIZE: usize = 64;
    const OUTPUT_SIZE: usize = 20;
    const NAME: &'static str = "SHA-1";

    fn new() -> Self {
        Sha1 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        // Fill any partial buffer first.
        if self.buffered > 0 {
            let take = data.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
            if data.is_empty() {
                return; // everything fit in the partial buffer
            }
        }
        // Whole blocks straight from the input.
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            self.compress(chunk.try_into().unwrap());
        }
        let rest = chunks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn finalize(mut self) -> Vec<u8> {
        let bit_len = self.length.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buffered != 56 {
            self.update(&[0]);
        }
        // Appending the length runs exactly one more compression.
        self.length = 0; // irrelevant from here on
        let mut block = self.buffer;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);

        let mut out = Vec::with_capacity(20);
        for word in self.state {
            out.extend_from_slice(&word.to_be_bytes());
        }
        out
    }
}

impl LaneHash for Sha1 {
    const STATE_WORDS: usize = 5;
    const INITIAL_STATE: [u32; 8] = [H0[0], H0[1], H0[2], H0[3], H0[4], 0, 0, 0];
    type Digest = [u8; 20];

    fn compress_lanes_with(width: usize, states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
        crate::sha1xn::compress_many_with(width, states, blocks);
    }

    fn hmac_lanes_with(width: usize, block: &[u8; 64], inner: &[[u32; 8]], outer: &mut [[u32; 8]]) {
        crate::sha1xn::hmac_shared_block_with(width, block, inner, outer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180 / RFC 3174 test vectors.
    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..997u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha1::digest(&data);
        // Feed in awkward chunk sizes that straddle block boundaries.
        for chunk_size in [1, 7, 63, 64, 65, 130] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk_size) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn output_size_is_20_bytes() {
        assert_eq!(Sha1::digest(b"x").len(), Sha1::OUTPUT_SIZE);
    }
}
