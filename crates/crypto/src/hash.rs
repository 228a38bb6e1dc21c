//! The hash-function abstraction shared by SHA-1, SHA-256 and the generic
//! HMAC construction.

/// A Merkle–Damgård hash function with a fixed block and output size.
///
/// Both SIES and the baselines only need incremental hashing over short
/// inputs (keys, epoch counters, sensor values), so the interface is the
/// minimal update/finalize pair.
pub trait HashFunction: Clone {
    /// Internal block size in bytes (64 for both SHA-1 and SHA-256).
    const BLOCK_SIZE: usize;
    /// Digest size in bytes (20 for SHA-1, 32 for SHA-256).
    const OUTPUT_SIZE: usize;
    /// Human-readable algorithm name (for diagnostics).
    const NAME: &'static str;

    /// Fresh hasher state.
    fn new() -> Self;

    /// Absorbs `data`.
    fn update(&mut self, data: &[u8]);

    /// Pads, finishes, and returns the digest (`OUTPUT_SIZE` bytes).
    fn finalize(self) -> Vec<u8>;

    /// One-shot convenience digest.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// Merkle–Damgård internals exposed for the multi-lane batch pipeline.
///
/// The batched HMAC paths behind [`crate::hmac::hmac_many`] and the
/// [`crate::prf`] batch functions work on bare chaining states and
/// 64-byte blocks, never on hasher objects: they need the initial state,
/// the two lane-kernel entry points, and a fixed-size digest to write
/// each lane's result into. Lane registers are uniformly `[u32; 8]`;
/// SHA-1 only uses the first five words.
pub trait LaneHash: HashFunction {
    /// Live chaining words per lane register (5 for SHA-1, 8 for SHA-256).
    const STATE_WORDS: usize;

    /// The initial chaining state as a lane register.
    const INITIAL_STATE: [u32; 8];

    /// The digest as a fixed-size array (`[u8; OUTPUT_SIZE]`).
    type Digest: Copy + Default + AsRef<[u8]> + AsMut<[u8]>;

    /// Advances `states[l]` by the single 64-byte block `blocks[l]` for
    /// every lane, scheduling x16/x8/x4/scalar kernel passes capped at
    /// `width`. Output is independent of `width`.
    fn compress_lanes_with(width: usize, states: &mut [[u32; 8]], blocks: &[[u8; 64]]);

    /// The last two compressions of one HMAC per lane when every inner
    /// hash ends in the same `block`: `inner[l]` is lane l's inner
    /// chaining state before `block`, and `outer[l]` advances from the
    /// `key ⊕ opad` state to the HMAC's final state. Scheduled like
    /// [`Self::compress_lanes_with`] and counted as two compressions per
    /// lane; output is independent of `width`.
    fn hmac_lanes_with(width: usize, block: &[u8; 64], inner: &[[u32; 8]], outer: &mut [[u32; 8]]);

    /// Serializes a chaining state to the big-endian digest bytes.
    fn digest_from_state(state: &[u32; 8]) -> Self::Digest {
        let mut digest = Self::Digest::default();
        for (out, word) in digest.as_mut().chunks_exact_mut(4).zip(state) {
            out.copy_from_slice(&word.to_be_bytes());
        }
        digest
    }
}
