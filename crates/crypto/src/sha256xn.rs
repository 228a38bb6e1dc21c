//! Multi-lane SHA-256 compression: W independent single-block
//! compressions per round-loop pass (W ∈ {1, 4, 8, 16}).
//!
//! The kernels operate on plain `[u32; W]` arrays so the compiler can
//! autovectorize the lane dimension (or, failing that, extract
//! instruction-level parallelism from the W independent dependency
//! chains — the scalar round function is a serial chain of ~4 adds, so
//! interleaving lanes keeps the ALUs busy either way). Each lane carries
//! its own chaining state and its own block: the batched HMAC layer uses
//! this to run one sensor per lane.
//!
//! Lane registers are `[u32; 8]` (the full SHA-256 state). Every lane is
//! bit-identical to [`crate::sha256::Sha256`]'s compression — pinned by
//! the KAT suite against the FIPS 180-4 vectors lane by lane.
//!
//! [`compress_many_with`] is the only entry point. On x86-64 it runs the
//! x4/x8 bodies compiled for AVX2 and the x16 body compiled for
//! AVX-512F when the CPU has them; everywhere else (aarch64 included,
//! where NEON is part of the baseline target) it runs the portable
//! bodies.

use crate::sha256::{H0, K};
use sies_telemetry as tel;

/// The SHA-256 initial chaining state as a lane register.
pub fn initial_state() -> [u32; 8] {
    H0
}

/// One round-loop pass over W interleaved lanes.
///
/// `states[l]` advances by `blocks[l]`; both slices must hold exactly W
/// entries. Everything is lane-wise integer arithmetic on `[u32; W]`.
// Indexed lane loops throughout: `w[i][l]` mirrors the i-across-l data
// layout the autovectorizer must see, and several loops read multiple
// `w[i - k][l]` taps that iterators cannot express.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn compress_w<const W: usize>(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    // Fixed-size views: every `[l]` access below is bounds-check-free,
    // which is what lets the lane loops vectorize.
    let states: &mut [[u32; 8]; W] = states.try_into().expect("exactly W lane states");
    let blocks: &[[u8; 64]; W] = blocks.try_into().expect("exactly W lane blocks");

    // Message schedule, lane-interleaved: w[i][l] is word i of lane l.
    let mut w = [[0u32; W]; 64];
    for i in 0..16 {
        for l in 0..W {
            w[i][l] = u32::from_be_bytes(blocks[l][4 * i..4 * i + 4].try_into().unwrap());
        }
    }
    for i in 16..64 {
        for l in 0..W {
            let x = w[i - 15][l];
            let s0 = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
            let y = w[i - 2][l];
            let s1 = y.rotate_right(17) ^ y.rotate_right(19) ^ (y >> 10);
            w[i][l] = w[i - 16][l]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7][l])
                .wrapping_add(s1);
        }
    }

    let mut a = [0u32; W];
    let mut b = [0u32; W];
    let mut c = [0u32; W];
    let mut d = [0u32; W];
    let mut e = [0u32; W];
    let mut f = [0u32; W];
    let mut g = [0u32; W];
    let mut h = [0u32; W];
    for l in 0..W {
        [a[l], b[l], c[l], d[l], e[l], f[l], g[l], h[l]] = states[l];
    }

    // One round with the state rotation expressed by *renaming*: only the
    // registers playing roles `d` (which becomes the next `e`) and `h`
    // (which becomes the next `a`) are written, so the eight lane vectors
    // stay in registers instead of being copied down the a..h chain every
    // round. Callers rotate the argument order right by one per round.
    // One argument per state register is the mechanism, not clutter.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn round<const W: usize>(
        a: &[u32; W],
        b: &[u32; W],
        c: &[u32; W],
        d: &mut [u32; W],
        e: &[u32; W],
        f: &[u32; W],
        g: &[u32; W],
        h: &mut [u32; W],
        k: u32,
        wi: &[u32; W],
    ) {
        for l in 0..W {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            let t1 = h[l]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k)
                .wrapping_add(wi[l]);
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            let t2 = s0.wrapping_add(maj);
            d[l] = d[l].wrapping_add(t1);
            h[l] = t1.wrapping_add(t2);
        }
    }

    // Eight rounds bring the role rotation back to the starting names.
    for i in (0..64).step_by(8) {
        round(&a, &b, &c, &mut d, &e, &f, &g, &mut h, K[i], &w[i]);
        round(&h, &a, &b, &mut c, &d, &e, &f, &mut g, K[i + 1], &w[i + 1]);
        round(&g, &h, &a, &mut b, &c, &d, &e, &mut f, K[i + 2], &w[i + 2]);
        round(&f, &g, &h, &mut a, &b, &c, &d, &mut e, K[i + 3], &w[i + 3]);
        round(&e, &f, &g, &mut h, &a, &b, &c, &mut d, K[i + 4], &w[i + 4]);
        round(&d, &e, &f, &mut g, &h, &a, &b, &mut c, K[i + 5], &w[i + 5]);
        round(&c, &d, &e, &mut f, &g, &h, &a, &mut b, K[i + 6], &w[i + 6]);
        round(&b, &c, &d, &mut e, &f, &g, &h, &mut a, K[i + 7], &w[i + 7]);
    }

    for l in 0..W {
        for (s, v) in states[l]
            .iter_mut()
            .zip([a[l], b[l], c[l], d[l], e[l], f[l], g[l], h[l]])
        {
            *s = s.wrapping_add(v);
        }
    }
}

/// The same lane kernels compiled a second time with AVX2 codegen
/// enabled. The bodies are the identical safe Rust — only the compiler
/// backend differs: under the baseline x86-64 target LLVM's cost model
/// refuses to vectorize the rotate-heavy round functions, while with
/// AVX2 it emits 4/8-wide shift/or/add lanes. Dispatched per pass behind
/// `is_x86_feature_detected!`, so digests are bit-identical either way.
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

/// A third instantiation with AVX-512F codegen for the x16 kernel: with
/// 512-bit registers a 16-lane `[u32; 16]` array is exactly one zmm
/// vector, so the whole round state stays resident. Without AVX-512 an
/// x16 pass spills and loses to two x8 passes, which is why the
/// scheduler only picks width 16 when this module is dispatchable
/// ([`crate::lanes::effective_lane_width`]).
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
    // Pass counts accrue locally and flush once per call, so the hot
    // loop sees no atomics (telemetry off: one load + branch per call).
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
    tel::count!("crypto.sha256.compressions", total);
    tel::count!("crypto.sha256.passes_x16", p16);
    tel::count!("crypto.sha256.passes_x8", p8);
    tel::count!("crypto.sha256.passes_x4", p4);
    tel::count!("crypto.sha256.passes_x1", p1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashFunction;
    use crate::sha256::Sha256;

    /// Pads `msg` (≤ 55 bytes) into a single SHA-256 block.
    fn single_block(msg: &[u8]) -> [u8; 64] {
        assert!(msg.len() <= 55);
        let mut block = [0u8; 64];
        block[..msg.len()].copy_from_slice(msg);
        block[msg.len()] = 0x80;
        block[56..].copy_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
        block
    }

    fn digest_of_state(state: &[u32; 8]) -> Vec<u8> {
        state.iter().flat_map(|w| w.to_be_bytes()).collect()
    }

    #[test]
    fn every_lane_matches_scalar_at_every_width() {
        let msgs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; (i as usize) * 3]).collect();
        let blocks: Vec<[u8; 64]> = msgs.iter().map(|m| single_block(m)).collect();
        for width in [1usize, 4, 8, 16] {
            for n in 0..=16usize {
                let mut states = vec![initial_state(); n];
                compress_many_with(width, &mut states, &blocks[..n]);
                for (l, st) in states.iter().enumerate() {
                    assert_eq!(
                        digest_of_state(st),
                        Sha256::digest(&msgs[l]),
                        "lane {l} of {n} diverged at width {width}"
                    );
                }
            }
        }
    }
}
