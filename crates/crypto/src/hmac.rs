//! HMAC (RFC 2104) generic over the hash function.
//!
//! The paper uses two instances: `HM1(K, m)` (HMAC-SHA-1, 20-byte output,
//! cost `C_HM1`) and `HM256(K, m)` (HMAC-SHA-256, 32-byte output, cost
//! `C_HM256`). Both are used as PRFs keyed by long-term secrets and applied
//! to the epoch counter.
//!
//! Two paths, bit-identical:
//!
//! * **Scalar** — [`hmac`] and the incremental [`HmacState`] re-derive
//!   the key schedule per call; the reference every batch path is tested
//!   against.
//! * **Batched** — a key is reduced once to its two chaining states
//!   (`Pads`, built in lane batches), after which every HMAC under it is
//!   one inner block plus one outer block, run through the multi-lane
//!   kernels with states, blocks and digests in fixed-size stack arrays:
//!   no lane clones a hasher or allocates. Two shapes:
//!   * *one message under many keys* — [`hmac_many`] and every epoch
//!     sweep of [`crate::prf`]. The inner hashes all end in the same
//!     block, so the kernels' shared-block pass
//!     ([`LaneHash::hmac_lanes_with`]) expands its schedule once and
//!     feeds each inner digest's lane vectors straight into the outer
//!     block.
//!   * *one message per key* — [`crate::prf::hm1_many`] (SECOA
//!     certificates) and one-shot calls: the tiled finalize compresses
//!     each lane's own last inner block, serializes the inner digests
//!     into outer blocks, and compresses those.
//!
//!   Both compute the same two compressions per HMAC over the same
//!   words, so their digests are identical; the shared pass only skips
//!   the work every lane would repeat.

use crate::hash::{HashFunction, LaneHash};
use crate::lanes::effective_lane_width;
use sies_telemetry as tel;

/// Computes `HMAC_H(key, message)`.
///
/// Keys longer than the hash block size are first hashed, per RFC 2104.
pub fn hmac<H: HashFunction>(key: &[u8], message: &[u8]) -> Vec<u8> {
    let mut mac = HmacState::<H>::new(key);
    mac.update(message);
    mac.finalize()
}

/// Batch one-shot HMAC: the same `message` under many `keys` — the shape
/// of μTesla's MAC-key window. Both pad absorptions and both finishing
/// blocks of every HMAC run through the multi-lane kernels.
/// Bit-identical to mapping [`hmac`] over `keys`.
pub fn hmac_many<H: LaneHash>(keys: &[&[u8]], message: &[u8]) -> Vec<H::Digest> {
    let mut out = vec![H::Digest::default(); keys.len()];
    hmac_many_into_with::<H>(effective_lane_width(), keys, message, &mut out);
    out
}

/// [`hmac_many`] at an explicit lane width, into `out` (one digest per
/// key).
pub fn hmac_many_into_with<H: LaneHash>(
    width: usize,
    keys: &[&[u8]],
    message: &[u8],
    out: &mut [H::Digest],
) {
    assert_eq!(keys.len(), out.len(), "one output digest per key");
    tel::observe!("crypto.hmac.batch", keys.len() as u64);
    let mut pads = [Pads::default(); TILE];
    for (keys, out) in keys.chunks(TILE).zip(out.chunks_mut(TILE)) {
        let pads = &mut pads[..keys.len()];
        pads_into_with::<H, _>(width, keys, pads);
        one_message_into_with::<H, _>(width, pads.iter().copied(), message, out);
    }
}

/// Incremental HMAC state, for callers that assemble the message from
/// several parts (e.g. `value || epoch` in the SECOA inflation certificate).
pub struct HmacState<H: HashFunction> {
    /// Inner hash with `key ⊕ ipad` already absorbed.
    inner: H,
    /// Outer hash with `key ⊕ opad` already absorbed.
    outer: H,
}

impl<H: HashFunction> HmacState<H> {
    /// Prepares the inner hash with `key ⊕ ipad` and the outer hash with
    /// `key ⊕ opad`.
    pub fn new(key: &[u8]) -> Self {
        let block_size = H::BLOCK_SIZE;
        let mut key_block = vec![0u8; block_size];
        if key.len() > block_size {
            let digest = H::digest(key);
            key_block[..digest.len()].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad_block = key_block.clone();
        let mut opad_block = key_block;
        for b in ipad_block.iter_mut() {
            *b ^= 0x36;
        }
        for b in opad_block.iter_mut() {
            *b ^= 0x5c;
        }

        let mut inner = H::new();
        inner.update(&ipad_block);
        let mut outer = H::new();
        outer.update(&opad_block);
        HmacState { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC: `H(key ⊕ opad || H(key ⊕ ipad || message))`.
    pub fn finalize(self) -> Vec<u8> {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// HMACs per tile of the batched paths. Each tile's chaining states,
/// blocks and digests live in fixed-size stack arrays (8 KiB for a
/// finalize tile), and a tile is a whole number of x16 kernel passes.
pub(crate) const TILE: usize = 64;

/// One HMAC key reduced to its two chaining states: `inner` has absorbed
/// the block `key ⊕ ipad` and `outer` the block `key ⊕ opad`. Lane
/// registers are `[u32; 8]`; for SHA-1 only the first five words are
/// live. Every HMAC under the key then costs one inner block plus one
/// outer block (messages ≤ 55 bytes).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Pads {
    /// Inner chaining state after `key ⊕ ipad`.
    pub(crate) inner: [u32; 8],
    /// Outer chaining state after `key ⊕ opad`.
    pub(crate) outer: [u32; 8],
}

impl Pads {
    /// Absorbs one key's two pad blocks (two scalar compressions).
    pub(crate) fn new<H: LaneHash>(key: &[u8]) -> Pads {
        let mut out = [Pads::default()];
        pads_into_with::<H, _>(1, [key], &mut out);
        out[0]
    }
}

/// The RFC 2104 key block: `key` zero-padded to the block size, or its
/// digest when the key is longer than a block.
fn key_block<H: HashFunction>(key: &[u8]) -> [u8; 64] {
    debug_assert_eq!(H::BLOCK_SIZE, 64, "lane kernels assume 64-byte blocks");
    let mut block = [0u8; 64];
    if key.len() > 64 {
        let digest = H::digest(key);
        block[..digest.len()].copy_from_slice(&digest);
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    block
}

/// Builds the [`Pads`] of every key in `keys` (exactly `out.len()` of
/// them) at lane width `width`: per tile, one kernel sweep over the
/// `key ⊕ ipad` blocks and one over the `key ⊕ opad` blocks.
/// Bit-identical to [`Pads::new`] per key.
pub(crate) fn pads_into_with<H, I>(width: usize, keys: I, out: &mut [Pads])
where
    H: LaneHash,
    I: IntoIterator,
    I::Item: AsRef<[u8]>,
{
    let mut keys = keys.into_iter();
    let mut inner = [[0u32; 8]; TILE];
    let mut outer = [[0u32; 8]; TILE];
    let mut ipad = [[0u8; 64]; TILE];
    let mut opad = [[0u8; 64]; TILE];
    for out in out.chunks_mut(TILE) {
        let n = out.len();
        for l in 0..n {
            let block = key_block::<H>(keys.next().expect("one key per output slot").as_ref());
            ipad[l] = block.map(|b| b ^ 0x36);
            opad[l] = block.map(|b| b ^ 0x5c);
        }
        inner[..n].fill(H::INITIAL_STATE);
        outer[..n].fill(H::INITIAL_STATE);
        H::compress_lanes_with(width, &mut inner[..n], &ipad[..n]);
        H::compress_lanes_with(width, &mut outer[..n], &opad[..n]);
        for (l, pads) in out.iter_mut().enumerate() {
            *pads = Pads {
                inner: inner[l],
                outer: outer[l],
            };
        }
    }
    assert!(keys.next().is_none(), "one output slot per key");
}

/// The inner hash's last block for `message`: the message tail, the
/// `0x80` terminator and the bit length of `ipad block || message` (a
/// 56–63 byte tail leaves only the length here; its terminator went
/// into [`absorb_leading_blocks`]).
#[inline]
fn last_block(message: &[u8]) -> [u8; 64] {
    let tail = message.chunks_exact(64).remainder();
    let mut block = [0u8; 64];
    if tail.len() <= 55 {
        block[..tail.len()].copy_from_slice(tail);
        block[tail.len()] = 0x80;
    }
    let bits = (64 + message.len() as u64).wrapping_mul(8);
    block[56..].copy_from_slice(&bits.to_be_bytes());
    block
}

/// Compresses into `state` whatever of `message` does not fit its
/// [`last_block`] — whole 64-byte message blocks, and the terminator
/// block of a 56–63 byte tail — one scalar lane at a time; epoch and
/// certificate messages (8–13 bytes) never take that path.
#[inline]
fn absorb_leading_blocks<H: LaneHash>(state: &mut [u32; 8], message: &[u8]) {
    let mut chunks = message.chunks_exact(64);
    for chunk in &mut chunks {
        let block: [u8; 64] = chunk.try_into().expect("64-byte chunk");
        H::compress_lanes_with(1, std::slice::from_mut(state), &[block]);
    }
    let tail = chunks.remainder();
    if tail.len() > 55 {
        let mut block = [0u8; 64];
        block[..tail.len()].copy_from_slice(tail);
        block[tail.len()] = 0x80;
        H::compress_lanes_with(1, std::slice::from_mut(state), &[block]);
    }
}

/// Finishes `HMAC(key, message)` for the [`Pads`] of every key in `pads`
/// into `out` (exactly `out.len()` keys) at lane width `width` — one
/// message under many keys. Per [`TILE`] of keys, one shared-block kernel
/// sweep ([`LaneHash::hmac_lanes_with`]) runs both the inner hashes'
/// common last block and the outer hashes' digest blocks. Bit-identical
/// to [`hmac`] under each key. Records no telemetry: callers run it per
/// tile, so batch sizes are observed by the public entry points.
pub(crate) fn one_message_into_with<H, I>(
    width: usize,
    pads: I,
    message: &[u8],
    out: &mut [H::Digest],
) where
    H: LaneHash,
    I: IntoIterator<Item = Pads>,
{
    let last = last_block(message);
    let mut pads = pads.into_iter();
    let mut inner = [[0u32; 8]; TILE];
    let mut outer = [[0u32; 8]; TILE];
    for out in out.chunks_mut(TILE) {
        let n = out.len();
        for l in 0..n {
            let key = pads.next().expect("one key per output digest");
            inner[l] = key.inner;
            outer[l] = key.outer;
            absorb_leading_blocks::<H>(&mut inner[l], message);
        }
        H::hmac_lanes_with(width, &last, &inner[..n], &mut outer[..n]);
        for (digest, state) in out.iter_mut().zip(&outer) {
            *digest = H::digest_from_state(state);
        }
    }
    assert!(pads.next().is_none(), "one output digest per key");
}

/// The outer hash's only block: the inner digest, padded. The opad block
/// was absorbed into the pads, and digest + padding (≤ 32 + 9 bytes)
/// always fits one block.
fn digest_block<H: LaneHash>(inner: &[u32; 8]) -> [u8; 64] {
    let len = 4 * H::STATE_WORDS;
    let mut block = [0u8; 64];
    for (out, word) in block[..len].chunks_exact_mut(4).zip(inner) {
        out.copy_from_slice(&word.to_be_bytes());
    }
    block[len] = 0x80;
    block[56..].copy_from_slice(&((64 + len as u64) * 8).to_be_bytes());
    block
}

/// The tiled finalize over `T`-lane stack tiles (see
/// [`finalize_into_with`]).
fn finalize_tiled<H, I, M, const T: usize>(width: usize, lanes: I, out: &mut [H::Digest])
where
    H: LaneHash,
    I: IntoIterator<Item = (Pads, M)>,
    M: AsRef<[u8]>,
{
    let mut lanes = lanes.into_iter();
    let mut inner = [[0u32; 8]; T];
    let mut outer = [[0u32; 8]; T];
    let mut blocks = [[0u8; 64]; T];
    for out in out.chunks_mut(T) {
        let n = out.len();
        for l in 0..n {
            let (pads, message) = lanes.next().expect("one lane per output digest");
            inner[l] = pads.inner;
            outer[l] = pads.outer;
            absorb_leading_blocks::<H>(&mut inner[l], message.as_ref());
            blocks[l] = last_block(message.as_ref());
        }
        H::compress_lanes_with(width, &mut inner[..n], &blocks[..n]);
        for l in 0..n {
            blocks[l] = digest_block::<H>(&inner[l]);
        }
        H::compress_lanes_with(width, &mut outer[..n], &blocks[..n]);
        for (digest, state) in out.iter_mut().zip(&outer) {
            *digest = H::digest_from_state(state);
        }
    }
    assert!(lanes.next().is_none(), "one output digest per lane");
}

/// Finishes one HMAC per `(pads, message)` lane into `out` (exactly
/// `out.len()` lanes), [`TILE`] lanes at a time at lane width `width`:
/// the inner hashes' final blocks in one kernel sweep, then the outer
/// hashes' digest blocks in another — the per-lane-message shape; one
/// message under many keys takes [`one_message_into_with`]. Bit-identical
/// to [`hmac`] under the key each `pads` was built from. Records no
/// telemetry, like [`one_message_into_with`].
pub(crate) fn finalize_into_with<H, I, M>(width: usize, lanes: I, out: &mut [H::Digest])
where
    H: LaneHash,
    I: IntoIterator<Item = (Pads, M)>,
    M: AsRef<[u8]>,
{
    finalize_tiled::<H, I, M, TILE>(width, lanes, out);
}

/// One HMAC under `pads`, on a one-lane tile (no tile-sized buffers).
pub(crate) fn finalize_one<H: LaneHash>(pads: Pads, message: &[u8]) -> H::Digest {
    let mut out = [H::Digest::default()];
    finalize_tiled::<H, _, _, 1>(1, [(pads, message)], &mut out);
    out[0]
}

/// Constant-time byte-slice equality, for MAC verification.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;
    use crate::sha256::Sha256;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 2202 HMAC-SHA-1 test vectors.
    #[test]
    fn rfc2202_sha1() {
        assert_eq!(
            hex(&hmac::<Sha1>(&[0x0b; 20], b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
        assert_eq!(
            hex(&hmac::<Sha1>(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
        assert_eq!(
            hex(&hmac::<Sha1>(&[0xaa; 20], &[0xdd; 50])),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
        // Key longer than the block size.
        assert_eq!(
            hex(&hmac::<Sha1>(
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    /// RFC 4231 HMAC-SHA-256 test vectors.
    #[test]
    fn rfc4231_sha256() {
        assert_eq!(
            hex(&hmac::<Sha256>(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex(&hmac::<Sha256>(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        assert_eq!(
            hex(&hmac::<Sha256>(&[0xaa; 20], &[0xdd; 50])),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
        // 131-byte key (> block size).
        assert_eq!(
            hex(&hmac::<Sha256>(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"secret key";
        let msg = b"part one | part two | part three";
        let oneshot = hmac::<Sha256>(key, msg);
        let mut mac = HmacState::<Sha256>::new(key);
        mac.update(b"part one | ");
        mac.update(b"part two | ");
        mac.update(b"part three");
        assert_eq!(mac.finalize(), oneshot);
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn distinct_keys_distinct_macs() {
        let m1 = hmac::<Sha1>(b"key-1", b"message");
        let m2 = hmac::<Sha1>(b"key-2", b"message");
        assert_ne!(m1, m2);
    }

    #[test]
    fn tile_is_what_the_boundary_tests_assume() {
        // tests/batched_hmac.rs probes the tile boundaries at 63/64/65
        // and 131 keys without seeing this private constant.
        assert_eq!(TILE, 64);
    }

    /// Both pads + finalize paths — the tiled one with a message per
    /// lane, and the shared-block one with every lane's message in turn
    /// as the common message — must be bit-identical to the scalar HMAC
    /// for long keys and for messages that straddle the single-block
    /// limit (the scalar-prefix lanes), at every width.
    #[test]
    fn batch_paths_match_scalar() {
        fn check<H: LaneHash>() {
            for n in [0usize, 1, 3, 17, TILE + 1] {
                let keys: Vec<Vec<u8>> = (0..n).map(|i| vec![0x10 + i as u8; 1 + 9 * i]).collect();
                let msgs: Vec<Vec<u8>> = (0..n)
                    .map(|i| vec![0x60 + i as u8; (11 * i) % 140])
                    .collect();
                let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                for width in [1, 4, 8, 16] {
                    let mut pads = vec![Pads::default(); n];
                    pads_into_with::<H, _>(width, &key_refs, &mut pads);
                    let mut got = vec![H::Digest::default(); n];
                    finalize_into_with::<H, _, _>(width, pads.iter().copied().zip(&msgs), &mut got);
                    for (i, got) in got.iter().enumerate() {
                        assert_eq!(
                            got.as_ref(),
                            hmac::<H>(&keys[i], &msgs[i]),
                            "lane {i} of {n}"
                        );
                        assert_eq!(
                            finalize_one::<H>(Pads::new::<H>(&keys[i]), &msgs[i]).as_ref(),
                            got.as_ref()
                        );
                    }
                    for msg in &msgs {
                        one_message_into_with::<H, _>(width, pads.iter().copied(), msg, &mut got);
                        for (i, got) in got.iter().enumerate() {
                            assert_eq!(got.as_ref(), hmac::<H>(&keys[i], msg), "lane {i} of {n}");
                        }
                    }
                }
            }
        }
        check::<Sha1>();
        check::<Sha256>();
    }
}
