//! Multi-lane SHA-256: W independent lanes per round-loop pass
//! (W ∈ {1, 4, 8, 16}).
//!
//! The kernels operate on plain `[u32; W]` arrays so the compiler can
//! autovectorize the lane dimension (or, failing that, extract
//! instruction-level parallelism from the W independent dependency
//! chains — the scalar round function is a serial chain of ~4 adds, so
//! interleaving lanes keeps the ALUs busy either way). Each lane carries
//! its own chaining state: the batched HMAC layer uses this to run one
//! key per lane.
//!
//! Two entry points, one round function:
//!
//! * [`compress_many_with`] advances every lane's state by that lane's
//!   own block — the per-lane-message shape (pad absorption, SECOA
//!   certificates, one-shot calls).
//! * [`hmac_shared_block_with`] runs the last two compressions of one
//!   HMAC per lane when every inner hash ends in the *same* block — one
//!   message under many keys, the shape of every epoch PRF sweep. The
//!   shared block's schedule plus round constants (`K[i] + W[i]`) is
//!   expanded once per call, so each inner round reads one scalar word;
//!   the inner digest's lane vectors then become the first eight words
//!   of the outer block, whose other words are constants, without a
//!   round trip through digest bytes.
//!
//! Lane registers are `[u32; 8]` (the full SHA-256 state). Every lane is
//! bit-identical to [`crate::sha256::Sha256`]'s compression — pinned by
//! the KAT suite against the FIPS 180-4 vectors lane by lane, and the
//! shared-block pass against the scalar HMAC.
//!
//! Both entry points schedule x16 / x8 / x4 / x1 passes capped at the
//! requested width ([`crate::lanes`]). On x86-64 a pass runs the x4/x8
//! bodies compiled for AVX2 and the x16 body compiled for AVX-512F when
//! the CPU has them; everywhere else (aarch64 included, where NEON is
//! part of the baseline target) it runs the portable bodies.

use crate::lanes::for_each_pass;
use crate::sha256::{H0, K};
use sies_telemetry as tel;

/// The SHA-256 initial chaining state as a lane register.
pub fn initial_state() -> [u32; 8] {
    H0
}

/// Expands words 16..64 of a lane-interleaved message schedule from words
/// 0..16: `w[i][l]` is word i of lane l.
// Indexed lane loops throughout: `w[i][l]` mirrors the i-across-l data
// layout the autovectorizer must see, and several loops read multiple
// `w[i - k][l]` taps that iterators cannot express.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn expand<const W: usize>(w: &mut [[u32; W]; 64]) {
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
}

/// One round with the state rotation expressed by *renaming*: only the
/// registers playing roles `d` (which becomes the next `e`) and `h`
/// (which becomes the next `a`) are written, so the eight lane vectors
/// stay in registers instead of being copied down the a..h chain every
/// round. Callers rotate the argument order right by one per round.
/// `kw(l)` is the round constant plus schedule word of lane `l`. One
/// argument per state register is the mechanism, not clutter.
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
    kw: impl Fn(usize) -> u32,
) {
    for l in 0..W {
        let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
        let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
        let t1 = h[l].wrapping_add(s1).wrapping_add(ch).wrapping_add(kw(l));
        let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
        let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
        let t2 = s0.wrapping_add(maj);
        d[l] = d[l].wrapping_add(t1);
        h[l] = t1.wrapping_add(t2);
    }
}

/// The 64 rounds plus feed-forward over W lanes: `state[j][l]` is
/// chaining word j of lane l, and `kw(i, l)` is `K[i] + W[i]` of lane l.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn compress_lanes<const W: usize>(state: &mut [[u32; W]; 8], kw: impl Fn(usize, usize) -> u32) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // Eight rounds bring the role rotation back to the starting names.
    for i in (0..64).step_by(8) {
        round(&a, &b, &c, &mut d, &e, &f, &g, &mut h, |l| kw(i, l));
        round(&h, &a, &b, &mut c, &d, &e, &f, &mut g, |l| kw(i + 1, l));
        round(&g, &h, &a, &mut b, &c, &d, &e, &mut f, |l| kw(i + 2, l));
        round(&f, &g, &h, &mut a, &b, &c, &d, &mut e, |l| kw(i + 3, l));
        round(&e, &f, &g, &mut h, &a, &b, &c, &mut d, |l| kw(i + 4, l));
        round(&d, &e, &f, &mut g, &h, &a, &b, &mut c, |l| kw(i + 5, l));
        round(&c, &d, &e, &mut f, &g, &h, &a, &mut b, |l| kw(i + 6, l));
        round(&b, &c, &d, &mut e, &f, &g, &h, &mut a, |l| kw(i + 7, l));
    }
    // One lane loop of eight adds: the vectorizer sees eight independent
    // W-wide vectors, not an 8 × W matrix to reshuffle.
    let [s0, s1, s2, s3, s4, s5, s6, s7] = state;
    for l in 0..W {
        s0[l] = s0[l].wrapping_add(a[l]);
        s1[l] = s1[l].wrapping_add(b[l]);
        s2[l] = s2[l].wrapping_add(c[l]);
        s3[l] = s3[l].wrapping_add(d[l]);
        s4[l] = s4[l].wrapping_add(e[l]);
        s5[l] = s5[l].wrapping_add(f[l]);
        s6[l] = s6[l].wrapping_add(g[l]);
        s7[l] = s7[l].wrapping_add(h[l]);
    }
}

/// W lane registers, transposed to word-major lane vectors.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn to_lanes<const W: usize>(states: &[[u32; 8]; W]) -> [[u32; W]; 8] {
    let mut s = [[0u32; W]; 8];
    for j in 0..8 {
        for l in 0..W {
            s[j][l] = states[l][j];
        }
    }
    s
}

/// The inverse of [`to_lanes`].
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn from_lanes<const W: usize>(s: &[[u32; W]; 8], states: &mut [[u32; 8]; W]) {
    for l in 0..W {
        for j in 0..8 {
            states[l][j] = s[j][l];
        }
    }
}

/// One compression pass over W lanes: `states[l]` advances by
/// `blocks[l]`; both slices must hold exactly W entries.
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
            w[i][l] =
                u32::from_be_bytes(blocks[l][4 * i..4 * i + 4].try_into().expect("4-byte word"));
        }
    }
    expand(&mut w);
    let mut s = to_lanes(states);
    compress_lanes(&mut s, |i, l| K[i].wrapping_add(w[i][l]));
    from_lanes(&s, states);
}

/// `K[i] + W[i]` for the schedule of `block`: everything a round reads
/// besides the state, when every lane compresses the same block.
fn shared_schedule(block: &[u8; 64]) -> [u32; 64] {
    let mut w = [[0u32; 1]; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        word[0] = u32::from_be_bytes(bytes.try_into().expect("4-byte word"));
    }
    expand(&mut w);
    std::array::from_fn(|i| K[i].wrapping_add(w[i][0]))
}

/// One HMAC-finishing pass over W lanes: each `inner[l]` advances by the
/// shared block whose schedule is `kw` (see [`shared_schedule`]), and
/// `outer[l]` by the outer block holding the resulting inner digest.
/// Both slices must hold exactly W entries; `inner` is left as it was.
#[inline(always)]
fn hmac_w<const W: usize>(kw: &[u32; 64], inner: &[[u32; 8]], outer: &mut [[u32; 8]]) {
    let inner: &[[u32; 8]; W] = inner.try_into().expect("exactly W inner states");
    let outer: &mut [[u32; 8]; W] = outer.try_into().expect("exactly W outer states");

    let mut digest = to_lanes(inner);
    compress_lanes(&mut digest, |i, _| kw[i]);

    // The outer block: the 32-byte inner digest, word for word from the
    // lane vectors, then its padding — the same constants in every lane.
    let mut w = [[0u32; W]; 64];
    w[..8].copy_from_slice(&digest);
    w[8] = [0x8000_0000; W];
    w[15] = [(64 + 32) * 8; W];
    expand(&mut w);
    let mut s = to_lanes(outer);
    compress_lanes(&mut s, |i, l| K[i].wrapping_add(w[i][l]));
    from_lanes(&s, outer);
}

/// The lanes of one kernel pass and what to do with them.
enum Pass<'a> {
    /// [`compress_w`]: states, one block per state.
    Compress(&'a mut [[u32; 8]], &'a [[u8; 64]]),
    /// [`hmac_w`]: the shared schedule, inner states, outer states.
    Hmac(&'a [u32; 64], &'a [[u32; 8]], &'a mut [[u32; 8]]),
}

/// Runs `pass` on the W-lane kernels.
#[inline(always)]
fn run<const W: usize>(pass: Pass) {
    match pass {
        Pass::Compress(states, blocks) => compress_w::<W>(states, blocks),
        Pass::Hmac(kw, inner, outer) => hmac_w::<W>(kw, inner, outer),
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

/// A third instantiation with AVX-512F codegen for the x16 kernels: with
/// 512-bit registers a 16-lane `[u32; 16]` array is exactly one zmm
/// vector, so the whole round state stays resident. Without AVX-512 an
/// x16 pass spills and loses to two x8 passes, which is why the
/// scheduler only picks width 16 when this module is dispatchable
/// ([`crate::lanes::effective_lane_width`]).
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

/// Adds one call's compressions and passes to the telemetry counters.
/// Counts accrue locally and flush once per call, so the hot loop sees
/// no atomics (telemetry off: one load + branch per counter).
fn count(compressions: usize, [p16, p8, p4, p1]: [u64; 4]) {
    tel::count!("crypto.sha256.compressions", compressions as u64);
    tel::count!("crypto.sha256.passes_x16", p16);
    tel::count!("crypto.sha256.passes_x8", p8);
    tel::count!("crypto.sha256.passes_x4", p4);
    tel::count!("crypto.sha256.passes_x1", p1);
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

/// The last two compressions of one HMAC-SHA-256 per lane, for HMACs
/// whose inner hashes all end in the same `block` (one message under
/// many keys): `inner[l]` is lane l's inner chaining state before
/// `block`, and `outer[l]` its outer chaining state after `key ⊕ opad`,
/// which advances to the HMAC's final state. Scheduled like
/// [`compress_many_with`] and counted as its two sweeps would be: two
/// compressions per lane, and every pass twice. Output is independent of
/// `width`.
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

    #[test]
    fn shared_block_pass_matches_scalar_hmac_at_every_width() {
        // One 8-byte message (an epoch counter) under 37 keys: the inner
        // hash's last block is the padded message after the ipad block.
        let msg = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        let mut block = single_block(&msg);
        block[56..].copy_from_slice(&((64 + msg.len() as u64) * 8).to_be_bytes());
        let keys: Vec<Vec<u8>> = (0..37u8).map(|i| vec![i ^ 0x5A; 1 + i as usize]).collect();
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
                        hmac::<Sha256>(&keys[l], &msg),
                        "lane {l} of {n} diverged at width {width}"
                    );
                }
            }
        }
    }
}
