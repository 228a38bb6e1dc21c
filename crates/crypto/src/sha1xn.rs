//! Multi-lane SHA-1: W independent lanes per round-loop pass
//! (W ∈ {1, 4, 8, 16}).
//!
//! Same design as [`crate::sha256xn`] — plain `[u32; W]` lane arrays the
//! compiler can autovectorize, one key or message per lane, output
//! bit-identical to the scalar [`crate::sha1::Sha1`] compression — and
//! the same two entry points over one round function:
//! [`compress_many_with`] (one block per lane) and
//! [`hmac_shared_block_with`] (HMAC's last two compressions when every
//! inner hash ends in the same block: the 80 `K + W[i]` words are
//! expanded once per call, and the five-word inner digest's lane
//! vectors become the head of the outer block). Lane registers are
//! `[u32; 8]` with only the first five words live, so the batched HMAC
//! layer can treat both hashes uniformly. Pass scheduling and ISA
//! dispatch are those of [`crate::sha256xn`].

use crate::lanes::for_each_pass;
use crate::sha1::H0;
use sies_telemetry as tel;

/// The SHA-1 initial chaining state as a lane register (words 5..8 are
/// unused padding).
pub fn initial_state() -> [u32; 8] {
    let mut state = [0u32; 8];
    state[..5].copy_from_slice(&H0);
    state
}

/// The round constant of each group of 20 rounds.
const K: [u32; 4] = [0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6];

/// Expands words 16..80 of a lane-interleaved message schedule from words
/// 0..16: `w[i][l]` is word i of lane l.
// Indexed lane loops: `w[i][l]` keeps the i-across-l layout explicit for
// the autovectorizer, and the schedule reads four `w[i - k][l]` taps.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn expand<const W: usize>(w: &mut [[u32; W]; 80]) {
    for i in 16..80 {
        for l in 0..W {
            w[i][l] = (w[i - 3][l] ^ w[i - 8][l] ^ w[i - 14][l] ^ w[i - 16][l]).rotate_left(1);
        }
    }
}

/// One round with the state rotation expressed by *renaming*: only the
/// register playing role `e` (which receives the new `a`) and the one
/// playing role `b` (rotated in place into the new `c`) are written, so
/// the lane vectors stay in registers instead of being copied down the
/// a..e chain every round. Callers rotate the argument order right by
/// one per round; five rounds return to the starting names. `kw(l)` is
/// the round constant plus schedule word of lane `l`. One argument per
/// state register is the mechanism, not clutter.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn round<const W: usize>(
    a: &[u32; W],
    b: &mut [u32; W],
    c: &[u32; W],
    d: &[u32; W],
    e: &mut [u32; W],
    kw: impl Fn(usize) -> u32,
    f: impl Fn(u32, u32, u32) -> u32,
) {
    for l in 0..W {
        let t = a[l]
            .rotate_left(5)
            .wrapping_add(f(b[l], c[l], d[l]))
            .wrapping_add(e[l])
            .wrapping_add(kw(l));
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

/// The 80 rounds plus feed-forward over W lanes: `state[j][l]` is
/// chaining word j of lane l, and `kw(i, k, l)` is round i's constant
/// plus schedule word of lane l, given that constant `k` (so a per-lane
/// schedule adds it as an immediate, and a shared one already has).
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn compress_lanes<const W: usize>(
    state: &mut [[u32; W]; 5],
    kw: impl Fn(usize, u32, usize) -> u32,
) {
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    macro_rules! five_rounds {
        ($i:expr, $k:expr, $f:expr) => {
            round(&a, &mut b, &c, &d, &mut e, |l| kw($i, $k, l), $f);
            round(&e, &mut a, &b, &c, &mut d, |l| kw($i + 1, $k, l), $f);
            round(&d, &mut e, &a, &b, &mut c, |l| kw($i + 2, $k, l), $f);
            round(&c, &mut d, &e, &a, &mut b, |l| kw($i + 3, $k, l), $f);
            round(&b, &mut c, &d, &e, &mut a, |l| kw($i + 4, $k, l), $f);
        };
    }
    for i in (0..20).step_by(5) {
        five_rounds!(i, K[0], ch);
    }
    for i in (20..40).step_by(5) {
        five_rounds!(i, K[1], parity);
    }
    for i in (40..60).step_by(5) {
        five_rounds!(i, K[2], maj);
    }
    for i in (60..80).step_by(5) {
        five_rounds!(i, K[3], parity);
    }
    // One lane loop of five adds (see `crate::sha256xn`'s feed-forward).
    let [s0, s1, s2, s3, s4] = state;
    for l in 0..W {
        s0[l] = s0[l].wrapping_add(a[l]);
        s1[l] = s1[l].wrapping_add(b[l]);
        s2[l] = s2[l].wrapping_add(c[l]);
        s3[l] = s3[l].wrapping_add(d[l]);
        s4[l] = s4[l].wrapping_add(e[l]);
    }
}

/// The live words of W lane registers, transposed to word-major lane
/// vectors.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn to_lanes<const W: usize>(states: &[[u32; 8]; W]) -> [[u32; W]; 5] {
    let mut s = [[0u32; W]; 5];
    for j in 0..5 {
        for l in 0..W {
            s[j][l] = states[l][j];
        }
    }
    s
}

/// The inverse of [`to_lanes`] (words 5..8 are left as they were).
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn from_lanes<const W: usize>(s: &[[u32; W]; 5], states: &mut [[u32; 8]; W]) {
    for l in 0..W {
        for j in 0..5 {
            states[l][j] = s[j][l];
        }
    }
}

/// One 80-round pass over W interleaved lanes; `states[l]` (words 0..5)
/// advances by `blocks[l]`.
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
            w[i][l] =
                u32::from_be_bytes(blocks[l][4 * i..4 * i + 4].try_into().expect("4-byte word"));
        }
    }
    expand(&mut w);
    let mut s = to_lanes(states);
    compress_lanes(&mut s, |i, k, l| k.wrapping_add(w[i][l]));
    from_lanes(&s, states);
}

/// `K + W[i]` for the schedule of `block`: everything a round reads
/// besides the state, when every lane compresses the same block.
fn shared_schedule(block: &[u8; 64]) -> [u32; 80] {
    let mut w = [[0u32; 1]; 80];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        word[0] = u32::from_be_bytes(bytes.try_into().expect("4-byte word"));
    }
    expand(&mut w);
    std::array::from_fn(|i| K[i / 20].wrapping_add(w[i][0]))
}

/// One HMAC-finishing pass over W lanes: each `inner[l]` advances by the
/// shared block whose schedule is `kw` (see [`shared_schedule`]), and
/// `outer[l]` by the outer block holding the resulting inner digest.
/// Both slices must hold exactly W entries; `inner` is left as it was.
#[inline(always)]
fn hmac_w<const W: usize>(kw: &[u32; 80], inner: &[[u32; 8]], outer: &mut [[u32; 8]]) {
    let inner: &[[u32; 8]; W] = inner.try_into().expect("exactly W inner states");
    let outer: &mut [[u32; 8]; W] = outer.try_into().expect("exactly W outer states");

    let mut digest = to_lanes(inner);
    compress_lanes(&mut digest, |i, _, _| kw[i]);

    // The outer block: the 20-byte inner digest, word for word from the
    // lane vectors, then its padding — the same constants in every lane.
    let mut w = [[0u32; W]; 80];
    w[..5].copy_from_slice(&digest);
    w[5] = [0x8000_0000; W];
    w[15] = [(64 + 20) * 8; W];
    expand(&mut w);
    let mut s = to_lanes(outer);
    compress_lanes(&mut s, |i, k, l| k.wrapping_add(w[i][l]));
    from_lanes(&s, outer);
}

/// The lanes of one kernel pass and what to do with them.
enum Pass<'a> {
    /// [`compress_w`]: states, one block per state.
    Compress(&'a mut [[u32; 8]], &'a [[u8; 64]]),
    /// [`hmac_w`]: the shared schedule, inner states, outer states.
    Hmac(&'a [u32; 80], &'a [[u32; 8]], &'a mut [[u32; 8]]),
}

/// Runs `pass` on the W-lane kernels.
#[inline(always)]
fn run<const W: usize>(pass: Pass) {
    match pass {
        Pass::Compress(states, blocks) => compress_w::<W>(states, blocks),
        Pass::Hmac(kw, inner, outer) => hmac_w::<W>(kw, inner, outer),
    }
}

/// The lane kernels compiled a second time with AVX2 codegen enabled
/// and dispatched at runtime — see [`crate::sha256xn`] for why (LLVM's
/// baseline cost model scalarizes the rotates). Identical safe bodies,
/// identical digests.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{run, Pass};

    #[target_feature(enable = "avx2")]
    pub fn run_w4(pass: Pass) {
        run::<4>(pass);
    }

    #[target_feature(enable = "avx2")]
    pub fn run_w8(pass: Pass) {
        run::<8>(pass);
    }
}

/// AVX-512F instantiation of the x16 kernels — see [`crate::sha256xn`]
/// for the register-budget rationale.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{run, Pass};

    #[target_feature(enable = "avx512f")]
    pub fn run_w16(pass: Pass) {
        run::<16>(pass);
    }
}

/// Runs one pass of `lanes` lanes (1, 4, 8 or 16) on the widest
/// instantiation the CPU supports for it.
fn dispatch(lanes: usize, pass: Pass) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY (all three calls): the target feature is checked at
        // runtime right before the call, and the function body is the
        // same safe Rust as `run`.
        if lanes == 16 && std::arch::is_x86_feature_detected!("avx512f") {
            return unsafe { avx512::run_w16(pass) };
        }
        if lanes == 8 && std::arch::is_x86_feature_detected!("avx2") {
            return unsafe { avx2::run_w8(pass) };
        }
        if lanes == 4 && std::arch::is_x86_feature_detected!("avx2") {
            return unsafe { avx2::run_w4(pass) };
        }
    }
    match lanes {
        16 => run::<16>(pass),
        8 => run::<8>(pass),
        4 => run::<4>(pass),
        _ => run::<1>(pass),
    }
}

/// Adds one call's compressions and passes to the telemetry counters,
/// once per call (no atomics in the lane loop; telemetry off costs one
/// load + branch per counter).
fn count(compressions: usize, [p16, p8, p4, p1]: [u64; 4]) {
    tel::count!("crypto.sha1.compressions", compressions as u64);
    tel::count!("crypto.sha1.passes_x16", p16);
    tel::count!("crypto.sha1.passes_x8", p8);
    tel::count!("crypto.sha1.passes_x4", p4);
    tel::count!("crypto.sha1.passes_x1", p1);
}

/// Compresses any number of independent (state, block) lanes, scheduling
/// x16 / x8 / x4 / scalar kernel passes capped at `width` and handling
/// the ragged tail. Output is independent of `width`.
pub fn compress_many_with(width: usize, states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    assert_eq!(states.len(), blocks.len(), "one block per lane state");
    let passes = for_each_pass(width, states.len(), |lanes, r| {
        dispatch(lanes, Pass::Compress(&mut states[r.clone()], &blocks[r]));
    });
    count(states.len(), passes);
}

/// The last two compressions of one HMAC-SHA-1 per lane, for HMACs whose
/// inner hashes all end in the same `block` — see
/// [`crate::sha256xn::hmac_shared_block_with`], whose contract and
/// counting this mirrors.
pub fn hmac_shared_block_with(
    width: usize,
    block: &[u8; 64],
    inner: &[[u32; 8]],
    outer: &mut [[u32; 8]],
) {
    assert_eq!(inner.len(), outer.len(), "one outer state per inner state");
    let kw = shared_schedule(block);
    let passes = for_each_pass(width, inner.len(), |lanes, r| {
        dispatch(lanes, Pass::Hmac(&kw, &inner[r.clone()], &mut outer[r]));
    });
    count(2 * inner.len(), passes.map(|p| 2 * p));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashFunction;
    use crate::hmac::hmac;
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

    #[test]
    fn shared_block_pass_matches_scalar_hmac_at_every_width() {
        let msg = 0xFEDC_BA98_7654_3210u64.to_be_bytes();
        let mut block = single_block(&msg);
        block[56..].copy_from_slice(&((64 + msg.len() as u64) * 8).to_be_bytes());
        let keys: Vec<Vec<u8>> = (0..37u8).map(|i| vec![i ^ 0xA5; 1 + i as usize]).collect();
        let pad_state = |key: &[u8], pad: u8| {
            let mut key_block = [0u8; 64];
            key_block[..key.len()].copy_from_slice(key);
            let mut state = initial_state();
            compress_many_with(
                1,
                std::slice::from_mut(&mut state),
                &[key_block.map(|b| b ^ pad)],
            );
            state
        };
        let inner: Vec<[u32; 8]> = keys.iter().map(|k| pad_state(k, 0x36)).collect();
        for width in [1usize, 4, 8, 16] {
            for n in [0, 1, 3, 4, 9, 16, 17, 37] {
                let mut outer: Vec<[u32; 8]> =
                    keys[..n].iter().map(|k| pad_state(k, 0x5c)).collect();
                hmac_shared_block_with(width, &block, &inner[..n], &mut outer);
                for (l, st) in outer.iter().enumerate() {
                    assert_eq!(
                        digest_of_state(st),
                        hmac::<Sha1>(&keys[l], &msg),
                        "lane {l} of {n} diverged at width {width}"
                    );
                }
            }
        }
    }
}
