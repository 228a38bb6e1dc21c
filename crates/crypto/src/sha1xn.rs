//! Multi-lane SHA-1 compression: W independent single-block compressions
//! per round-loop pass (W ∈ {1, 4, 8, 16}).
//!
//! Same design as [`crate::sha256xn`] — plain `[u32; W]` lane arrays the
//! compiler can autovectorize, one independent message per lane, output
//! bit-identical to the scalar [`crate::sha1::Sha1`] compression. Lane
//! registers are `[u32; 8]` with only the first five words live, so the
//! batched HMAC layer can treat both hashes uniformly. The entry point
//! and its ISA dispatch are those of [`crate::sha256xn`].

use crate::sha1::H0;
use sies_telemetry as tel;

/// The SHA-1 initial chaining state as a lane register (words 5..8 are
/// unused padding).
pub fn initial_state() -> [u32; 8] {
    let mut state = [0u32; 8];
    state[..5].copy_from_slice(&H0);
    state
}

/// One 80-round pass over W interleaved lanes; `states[l]` (words 0..5)
/// advances by `blocks[l]`.
// Indexed lane loops: `w[i][l]` keeps the i-across-l layout explicit for
// the autovectorizer, and the schedule reads four `w[i - k][l]` taps.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn compress_w<const W: usize>(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    // Fixed-size views: every `[l]` access below is bounds-check-free,
    // which is what lets the lane loops vectorize.
    let states: &mut [[u32; 8]; W] = states.try_into().expect("exactly W lane states");
    let blocks: &[[u8; 64]; W] = blocks.try_into().expect("exactly W lane blocks");

    let mut w = [[0u32; W]; 80];
    for i in 0..16 {
        for l in 0..W {
            w[i][l] = u32::from_be_bytes(blocks[l][4 * i..4 * i + 4].try_into().unwrap());
        }
    }
    for i in 16..80 {
        for l in 0..W {
            w[i][l] = (w[i - 3][l] ^ w[i - 8][l] ^ w[i - 14][l] ^ w[i - 16][l]).rotate_left(1);
        }
    }

    let mut a = [0u32; W];
    let mut b = [0u32; W];
    let mut c = [0u32; W];
    let mut d = [0u32; W];
    let mut e = [0u32; W];
    for l in 0..W {
        a[l] = states[l][0];
        b[l] = states[l][1];
        c[l] = states[l][2];
        d[l] = states[l][3];
        e[l] = states[l][4];
    }

    // One round with the state rotation expressed by *renaming*: only
    // the register playing role `e` (which receives the new `a`) and the
    // one playing role `b` (rotated in place into the new `c`) are
    // written, so the lane vectors stay in registers instead of being
    // copied down the a..e chain every round. Callers rotate the
    // argument order right by one per round; five rounds return to the
    // starting names. One argument per state register is the mechanism,
    // not clutter.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn round<const W: usize>(
        a: &[u32; W],
        b: &mut [u32; W],
        c: &[u32; W],
        d: &[u32; W],
        e: &mut [u32; W],
        k: u32,
        wi: &[u32; W],
        f: impl Fn(u32, u32, u32) -> u32,
    ) {
        for l in 0..W {
            let t = a[l]
                .rotate_left(5)
                .wrapping_add(f(b[l], c[l], d[l]))
                .wrapping_add(e[l])
                .wrapping_add(k)
                .wrapping_add(wi[l]);
            b[l] = b[l].rotate_left(30);
            e[l] = t;
        }
    }
    fn ch(b: u32, c: u32, d: u32) -> u32 {
        (b & c) | (!b & d)
    }
    fn parity(b: u32, c: u32, d: u32) -> u32 {
        b ^ c ^ d
    }
    fn maj(b: u32, c: u32, d: u32) -> u32 {
        (b & c) | (b & d) | (c & d)
    }
    macro_rules! five_rounds {
        ($i:expr, $k:expr, $f:expr) => {
            round(&a, &mut b, &c, &d, &mut e, $k, &w[$i], $f);
            round(&e, &mut a, &b, &c, &mut d, $k, &w[$i + 1], $f);
            round(&d, &mut e, &a, &b, &mut c, $k, &w[$i + 2], $f);
            round(&c, &mut d, &e, &a, &mut b, $k, &w[$i + 3], $f);
            round(&b, &mut c, &d, &e, &mut a, $k, &w[$i + 4], $f);
        };
    }
    for i in (0..20).step_by(5) {
        five_rounds!(i, 0x5A827999, ch);
    }
    for i in (20..40).step_by(5) {
        five_rounds!(i, 0x6ED9EBA1, parity);
    }
    for i in (40..60).step_by(5) {
        five_rounds!(i, 0x8F1BBCDC, maj);
    }
    for i in (60..80).step_by(5) {
        five_rounds!(i, 0xCA62C1D6, parity);
    }

    for l in 0..W {
        states[l][0] = states[l][0].wrapping_add(a[l]);
        states[l][1] = states[l][1].wrapping_add(b[l]);
        states[l][2] = states[l][2].wrapping_add(c[l]);
        states[l][3] = states[l][3].wrapping_add(d[l]);
        states[l][4] = states[l][4].wrapping_add(e[l]);
    }
}

/// The lane kernels compiled a second time with AVX2 codegen enabled
/// and dispatched at runtime — see [`crate::sha256xn`] for why (LLVM's
/// baseline cost model scalarizes the rotates). Identical safe bodies,
/// identical digests.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::compress_w;

    #[target_feature(enable = "avx2")]
    pub fn compress_w4(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
        compress_w::<4>(states, blocks);
    }

    #[target_feature(enable = "avx2")]
    pub fn compress_w8(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
        compress_w::<8>(states, blocks);
    }
}

/// AVX-512F instantiation of the x16 kernel — see [`crate::sha256xn`]
/// for the register-budget rationale.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::compress_w;

    #[target_feature(enable = "avx512f")]
    pub fn compress_w16(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
        compress_w::<16>(states, blocks);
    }
}

fn dispatch_w4(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement is checked at runtime above; the
        // function body is the same safe Rust as `compress_w::<4>`.
        return unsafe { avx2::compress_w4(states, blocks) };
    }
    compress_w::<4>(states, blocks);
}

fn dispatch_w8(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: as in `dispatch_w4`.
        return unsafe { avx2::compress_w8(states, blocks) };
    }
    compress_w::<8>(states, blocks);
}

fn dispatch_w16(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: as in `dispatch_w4`.
        return unsafe { avx512::compress_w16(states, blocks) };
    }
    compress_w::<16>(states, blocks);
}

/// Compresses any number of independent (state, block) lanes, scheduling
/// x16 / x8 / x4 / scalar kernel passes capped at `width` and handling
/// the ragged tail. Output is independent of `width`.
pub fn compress_many_with(width: usize, states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    assert_eq!(states.len(), blocks.len(), "one block per lane state");
    let total = states.len() as u64;
    // Pass counts accrue locally and flush once per call (no atomics in
    // the lane loop; telemetry off costs one load + branch per call).
    let (mut p16, mut p8, mut p4, mut p1) = (0u64, 0u64, 0u64, 0u64);
    let (mut states, mut blocks) = (states, blocks);
    while !states.is_empty() {
        let n = states.len();
        let take = if width >= 16 && n >= 16 {
            16
        } else if width >= 8 && n >= 8 {
            8
        } else if width >= 4 && n >= 4 {
            4
        } else {
            1
        };
        let (s, rest_s) = states.split_at_mut(take);
        let (b, rest_b) = blocks.split_at(take);
        match take {
            16 => {
                dispatch_w16(s, b);
                p16 += 1;
            }
            8 => {
                dispatch_w8(s, b);
                p8 += 1;
            }
            4 => {
                dispatch_w4(s, b);
                p4 += 1;
            }
            _ => {
                compress_w::<1>(s, b);
                p1 += 1;
            }
        }
        states = rest_s;
        blocks = rest_b;
    }
    tel::count!("crypto.sha1.compressions", total);
    tel::count!("crypto.sha1.passes_x16", p16);
    tel::count!("crypto.sha1.passes_x8", p8);
    tel::count!("crypto.sha1.passes_x4", p4);
    tel::count!("crypto.sha1.passes_x1", p1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashFunction;
    use crate::sha1::Sha1;

    fn single_block(msg: &[u8]) -> [u8; 64] {
        assert!(msg.len() <= 55);
        let mut block = [0u8; 64];
        block[..msg.len()].copy_from_slice(msg);
        block[msg.len()] = 0x80;
        block[56..].copy_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
        block
    }

    fn digest_of_state(state: &[u32; 8]) -> Vec<u8> {
        state[..5].iter().flat_map(|w| w.to_be_bytes()).collect()
    }

    #[test]
    fn every_lane_matches_scalar_at_every_width() {
        let msgs: Vec<Vec<u8>> = (0..16u8)
            .map(|i| vec![0xA0 | i; (i as usize) * 3])
            .collect();
        let blocks: Vec<[u8; 64]> = msgs.iter().map(|m| single_block(m)).collect();
        for width in [1usize, 4, 8, 16] {
            for n in 0..=16usize {
                let mut states = vec![initial_state(); n];
                compress_many_with(width, &mut states, &blocks[..n]);
                for (l, st) in states.iter().enumerate() {
                    assert_eq!(
                        digest_of_state(st),
                        Sha1::digest(&msgs[l]),
                        "lane {l} of {n} diverged at width {width}"
                    );
                }
            }
        }
    }
}
