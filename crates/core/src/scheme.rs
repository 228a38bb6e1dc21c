//! The four SIES phases (paper §IV-A): setup, initialization (source),
//! merging (aggregator), and evaluation (querier).
//!
//! Role separation follows the paper's Figure 1: *sources* generate
//! readings at the leaves, *aggregators* fuse partial state records (PSRs)
//! at internal nodes, and the *querier* decrypts and verifies the single
//! final PSR received from the sink.
//!
//! Setup leaves `k_i` with source `𝒮_i` and every `k_i` with the
//! querier. In one process those holders share one [`KeyTable`]: each
//! key's HMAC pads are absorbed once and held once, the querier reads
//! every row and each source reads its own ([`KeyTable::source`]).
//! [`setup`] still hands out per-source credentials, from which
//! [`Source::new`] builds a source with a one-row table of its own.
//!
//! Everything the querier computes per epoch except the final multiply
//! depends only on `t` and the long-term keys (paper Eq. 9): `K_t⁻¹`,
//! `Σ k_{i,t} mod p` and `Σ ss_{i,t}`. [`Querier::epoch_totals`] derives
//! them over every source from the querier's own rows, so a querier
//! that knows the next epoch can pay for them before the final PSR
//! arrives; [`Querier::evaluate_with_totals`] then only decrypts,
//! decodes and compares, and only when the contributor list is every
//! source in id order. The totals never come from the sources' key
//! material: the querier and the sensors are different devices, and the
//! querier's PRFs move into the idle gap, they do not vanish.

use crate::codec::{self, SecretShare};
use crate::error::{Epoch, SiesError, SourceId};
use crate::hom::{self, EpochCipher};
use crate::parallel;
use crate::params::SystemParams;
use rand::RngCore;
use sies_crypto::mont::MontgomeryCtx;
use sies_crypto::prf::{self, KeyedPrf};
use sies_crypto::u256::U256;
use std::sync::Arc;

/// Length of the long-term keys `K` and `k_i` in bytes (paper §IV-A: "in
/// our implementation we set this size to 20 bytes").
pub const KEY_BYTES: usize = 20;

/// A long-term 20-byte secret key.
pub type LongTermKey = [u8; KEY_BYTES];

/// A partial state record: the 32-byte ciphertext flowing along network
/// edges. This is the *only* thing transmitted by SIES, which is why its
/// per-edge communication cost is a constant 32 bytes (paper Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Psr {
    ciphertext: U256,
}

impl Psr {
    /// The raw ciphertext residue.
    pub fn ciphertext(&self) -> &U256 {
        &self.ciphertext
    }

    /// Constructs from a raw ciphertext (used by adversary simulations to
    /// inject tampered PSRs).
    pub fn from_ciphertext(ciphertext: U256) -> Self {
        Psr { ciphertext }
    }

    /// Serializes to the 32-byte wire format.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.ciphertext.to_be_bytes()
    }

    /// Deserializes from the 32-byte wire format.
    pub fn from_bytes(bytes: &[u8; 32]) -> Self {
        Psr {
            ciphertext: U256::from_be_bytes(bytes),
        }
    }

    /// Wire size in bytes.
    pub const fn wire_size() -> usize {
        32
    }
}

/// The credentials the querier manually registers at source `𝒮_i` during
/// setup: `(K, k_i, p)`.
#[derive(Clone)]
pub struct SourceCredentials {
    id: SourceId,
    global_key: LongTermKey,
    source_key: LongTermKey,
    params: SystemParams,
}

/// The key material of one deployment, held once: `K` and every `k_i`
/// with their HMAC pads pre-absorbed ([`KeyedPrf`], 104 bytes per key),
/// the public parameters, and the Montgomery context for `p` that every
/// epoch's cipher, `K_t⁻¹` and decryption run on.
///
/// The querier and the deployment's sources read one table behind an
/// [`Arc`] ([`Querier::new`], [`KeyTable::source`]), each source only
/// its own row, so an in-process deployment holds each key once and
/// absorbs its pads once. Its batch entry points —
/// [`KeyTable::initialize_batch_into`], [`KeyTable::derive_epoch_keys`]
/// and the querier's Σk/Σss recomputation — sweep rows by source id
/// through the multi-lane PRF kernels.
pub struct KeyTable {
    global_prf: KeyedPrf,
    /// One row per source; row `i` is `k_i` in a deployment's table.
    source_prfs: Box<[KeyedPrf]>,
    params: SystemParams,
    ctx: MontgomeryCtx,
}

/// A source sensor: runs the initialization phase each epoch.
///
/// A view of one row of a [`KeyTable`]: `k_i`'s pre-absorbed pads, so
/// every epoch's PRF evaluations skip the per-call key-block setup,
/// beside what every source shares (`K`'s pads and the parameters).
/// [`Source::new`] builds a one-row table from the credentials setup
/// registers at the source; a deployment's sources are views of its
/// table ([`KeyTable::source`]). A `&Source` is `Sync` and can be
/// shared freely across epoch-pipeline workers.
#[derive(Clone)]
pub struct Source {
    id: SourceId,
    /// The table row holding `k_i`: the id itself in a deployment's
    /// table, 0 in a lone source's.
    row: u32,
    keys: Arc<KeyTable>,
}

/// An aggregator sensor: holds only the public prime `p` (it has no keys —
/// compromising it is no worse than eavesdropping, paper §IV-B).
#[derive(Clone)]
pub struct Aggregator {
    prime: U256,
}

/// The querier: holds `K` and every `k_i`, runs the evaluation phase.
///
/// Reads its deployment's [`KeyTable`], where every key's HMAC pads are
/// pre-absorbed, so the per-epoch Σss recomputation costs exactly two
/// lane-batchable compressions per contributor instead of re-deriving
/// every key schedule from the raw bytes. The table's Montgomery
/// context for `p`, built once at setup, serves every epoch's `K_t⁻¹`
/// and decryption.
pub struct Querier {
    keys: Arc<KeyTable>,
}

/// The querier's precomputable half of one epoch's evaluation: the
/// epoch, `K_t⁻¹`, `Σ k_{i,t} mod p` and `Σ ss_{i,t}`. Only
/// [`Querier::epoch_totals`] hands them out, derived over every source
/// from the querier's own key-table rows; [`Querier::evaluate_with_totals`]
/// consumes them. Three 32-byte numbers and the epoch, so a copy is
/// cheap.
#[derive(Clone, Copy)]
pub struct EpochTotals {
    epoch: Epoch,
    k_t_inv: U256,
    k_sum: U256,
    secret: U256,
}

/// A successfully verified SUM result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifiedSum {
    /// The exact SUM `res_t`.
    pub sum: u64,
    /// The epoch the result was verified for.
    pub epoch: Epoch,
    /// How many sources contributed.
    pub contributors: u64,
}

/// Draws setup's long-term keys from `rng`: `K`, then `k_1..k_N`.
fn draw_keys(rng: &mut dyn RngCore, n: u64) -> (LongTermKey, Vec<LongTermKey>) {
    let mut draw = || {
        let mut key = [0u8; KEY_BYTES];
        rng.fill_bytes(&mut key);
        key
    };
    let global_key = draw();
    (global_key, (0..n).map(|_| draw()).collect())
}

/// Runs the setup phase: generates `K`, `k_1..k_N` and distributes the
/// credentials. Returns the querier together with the per-source
/// credentials and the aggregator configuration.
///
/// An in-process deployment that needs no credentials builds one
/// [`KeyTable::generate`] from the same draws instead.
pub fn setup(
    rng: &mut dyn RngCore,
    params: SystemParams,
) -> (Querier, Vec<SourceCredentials>, Aggregator) {
    let (global_key, source_keys) = draw_keys(rng, params.num_sources());
    let creds = (0..)
        .zip(&source_keys)
        .map(|(id, &source_key)| SourceCredentials {
            id,
            global_key,
            source_key,
            params: params.clone(),
        })
        .collect();
    let aggregator = Aggregator::new(*params.prime());
    let keys = KeyTable::from_keys(&global_key, &source_keys, params);
    (Querier::new(Arc::new(keys)), creds, aggregator)
}

impl SourceCredentials {
    /// The source's identifier.
    pub fn id(&self) -> SourceId {
        self.id
    }

    /// The shared system parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }
}

impl KeyTable {
    /// The setup phase's key generation for `params.num_sources()`
    /// sources: draws `K` and `k_1..k_N` exactly as [`setup`] does from
    /// the same RNG state, and absorbs every `k_i`'s pads once, in
    /// hash-lane batches.
    pub fn generate(rng: &mut dyn RngCore, params: SystemParams) -> Self {
        let (global_key, source_keys) = draw_keys(rng, params.num_sources());
        KeyTable::from_keys(&global_key, &source_keys, params)
    }

    fn from_keys(
        global_key: &LongTermKey,
        source_keys: &[LongTermKey],
        params: SystemParams,
    ) -> Self {
        KeyTable {
            global_prf: KeyedPrf::new(global_key),
            source_prfs: KeyedPrf::new_many(source_keys).into_boxed_slice(),
            ctx: MontgomeryCtx::new(params.prime()),
            params,
        }
    }

    /// Number of rows (sources) in the table.
    pub fn num_sources(&self) -> usize {
        self.source_prfs.len()
    }

    /// The shared system parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Source `id` of this deployment, a view of its row; `None` when
    /// the table has no such row.
    pub fn source(self: &Arc<Self>, id: SourceId) -> Option<Source> {
        ((id as usize) < self.source_prfs.len()).then(|| Source {
            id,
            row: id,
            keys: Arc::clone(self),
        })
    }

    /// Builds this epoch's shared cipher: `K_t` derived once and entered
    /// into the Montgomery domain of the table's context. Every source
    /// of a deployment derives the *same* `K_t`, so one [`EpochCipher`]
    /// serves a whole batch of sources (one per chunk of the engine's
    /// walk).
    pub fn epoch_cipher(&self, epoch: Epoch) -> EpochCipher {
        let k_t = self
            .global_prf
            .derive_mod_nonzero(epoch, self.params.prime());
        EpochCipher::with_ctx(&k_t, &self.ctx)
    }

    /// Initialization for a batch of sources at once: both
    /// per-source PRF sweeps (`k_{i,t}` and `ss_{i,t}`) over the jobs'
    /// rows run through the multi-lane batch pipeline
    /// ([`prf::for_each_epoch_key`], one sensor per hash lane), then each
    /// reading is encoded and encrypted under the shared `cipher` and
    /// handed to `emit`, in job order. Allocates nothing. Element-wise
    /// identical to calling [`Source::initialize_with`] per job (asserted
    /// by `batched_initialize_matches_serial` below).
    ///
    /// # Panics
    /// If a job names a source outside the table.
    pub fn initialize_batch_into(
        &self,
        cipher: &EpochCipher,
        epoch: Epoch,
        jobs: &[(SourceId, u64)],
        mut emit: impl FnMut(Result<Psr, SiesError>),
    ) {
        let p = cipher.prime();
        debug_assert_eq!(
            p,
            self.params.prime(),
            "cipher built for a different modulus"
        );
        let prfs = jobs.iter().map(|&(id, _)| &self.source_prfs[id as usize]);
        prf::for_each_epoch_key(prfs, epoch, p, |i, k_it, ss| {
            emit(
                codec::encode_message(&self.params, jobs[i].1, &ss).map(|m| Psr {
                    ciphertext: cipher.encrypt(&m, &k_it),
                }),
            );
        });
    }

    /// Derives one epoch's complete key material — the shared cipher plus
    /// every source's `k_{i,t}` and `ss_{i,t}` — ahead of the epoch, so a
    /// precompute pool can do the PRF sweeps during the inter-epoch idle
    /// gap. Both sweeps write straight into the material's tables through
    /// the same multi-lane batch pipeline as
    /// [`KeyTable::initialize_batch_into`], so consuming the material via
    /// [`KeyTable::initialize_prewarmed`] is bit-identical to deriving on
    /// demand.
    pub fn derive_epoch_keys(&self, epoch: Epoch) -> EpochKeyMaterial {
        let n = self.source_prfs.len();
        let mut k_its = vec![U256::ZERO; n];
        let mut sss = vec![[0u8; 20]; n];
        prf::for_each_epoch_key(
            self.source_prfs.iter(),
            epoch,
            self.params.prime(),
            |i, k_it, ss| {
                k_its[i] = k_it;
                sss[i] = ss;
            },
        );
        EpochKeyMaterial {
            epoch,
            cipher: self.epoch_cipher(epoch),
            k_its,
            sss,
        }
    }

    /// Source `id`'s initialization phase against prewarmed key
    /// material: no PRF calls at all — one table lookup, one encode, one
    /// Montgomery multiply. Bit-identical to [`Source::initialize_with`]
    /// for the same epoch (asserted by
    /// `prewarmed_initialize_matches_serial` below).
    ///
    /// # Panics
    /// If `keys` covers no source `id` (it was derived for a different
    /// deployment).
    pub fn initialize_prewarmed(
        &self,
        keys: &EpochKeyMaterial,
        id: SourceId,
        value: u64,
    ) -> Result<Psr, SiesError> {
        debug_assert_eq!(
            keys.cipher.prime(),
            self.params.prime(),
            "key material built for a different modulus"
        );
        let idx = id as usize;
        let m = codec::encode_message(&self.params, value, &keys.sss[idx])?;
        Ok(Psr {
            ciphertext: keys.cipher.encrypt(&m, &keys.k_its[idx]),
        })
    }
}

impl Source {
    /// Instantiates a source from its registered credentials.
    pub fn new(creds: SourceCredentials) -> Self {
        Source {
            id: creds.id,
            row: 0,
            keys: Arc::new(KeyTable::from_keys(
                &creds.global_key,
                &[creds.source_key],
                creds.params,
            )),
        }
    }

    /// The source's identifier.
    pub fn id(&self) -> SourceId {
        self.id
    }

    fn params(&self) -> &SystemParams {
        &self.keys.params
    }

    fn source_prf(&self) -> &KeyedPrf {
        &self.keys.source_prfs[self.row as usize]
    }

    /// The initialization phase `I`: derives the epoch keys and share,
    /// encodes the reading, and encrypts it into a PSR.
    ///
    /// Per paper §IV-A this costs two `HM256` calls, one `HM1` call, one
    /// 32-byte modular multiplication and one modular addition (`C^𝒮_SIES`,
    /// Equation 3).
    pub fn initialize(&self, epoch: Epoch, value: u64) -> Result<Psr, SiesError> {
        let p = self.params().prime();
        // K_t = HM256(K, t), shared by all sources.
        let k_t = self.keys.global_prf.derive_mod_nonzero(epoch, p);
        // k_{i,t} = HM256(k_i, t), known only to S_i (and the querier).
        let k_it = self.source_prf().derive_mod(epoch, p);
        // ss_{i,t} = HM1(k_i, t).
        let ss: SecretShare = self.source_prf().hm1_epoch(epoch);
        let m = codec::encode_message(self.params(), value, &ss)?;
        Ok(Psr {
            ciphertext: hom::encrypt(&m, &k_t, &k_it, p),
        })
    }

    /// The initialization phase with the epoch-shared work hoisted out:
    /// bit-identical to [`Source::initialize`] (asserted by
    /// `batched_initialize_matches_serial` below) but skips the per-call
    /// `K_t` derivation and replaces the generic multiply-and-divide with
    /// one Montgomery multiply via `cipher`
    /// ([`KeyTable::epoch_cipher`]).
    pub fn initialize_with(
        &self,
        cipher: &EpochCipher,
        epoch: Epoch,
        value: u64,
    ) -> Result<Psr, SiesError> {
        let p = self.params().prime();
        debug_assert_eq!(cipher.prime(), p, "cipher built for a different modulus");
        let k_it = self.source_prf().derive_mod(epoch, p);
        let ss: SecretShare = self.source_prf().hm1_epoch(epoch);
        let m = codec::encode_message(self.params(), value, &ss)?;
        Ok(Psr {
            ciphertext: cipher.encrypt(&m, &k_it),
        })
    }
}

/// One epoch's complete precomputed key material for a deployment:
/// the epoch-shared cipher (`K_t` in the Montgomery domain) and the
/// per-source blinding keys and secret shares, indexed by [`SourceId`].
/// Produced ahead of time by [`KeyTable::derive_epoch_keys`]; consumed
/// by [`KeyTable::initialize_prewarmed`].
#[derive(Clone)]
pub struct EpochKeyMaterial {
    epoch: Epoch,
    cipher: EpochCipher,
    k_its: Vec<U256>,
    sss: Vec<SecretShare>,
}

impl EpochKeyMaterial {
    /// The epoch this material was derived for.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The epoch-shared cipher.
    pub fn cipher(&self) -> &EpochCipher {
        &self.cipher
    }

    /// Number of sources covered.
    pub fn num_sources(&self) -> usize {
        self.k_its.len()
    }
}

impl Aggregator {
    /// Instantiates an aggregator holding the public prime.
    pub fn new(prime: U256) -> Self {
        Aggregator { prime }
    }

    /// The merging phase `M`: fuses the children's PSRs into one by
    /// modular addition (`F − 1` additions for fanout `F`, Equation 6).
    ///
    /// Returns `None` for an empty child list (a failed subtree).
    pub fn merge(&self, psrs: &[Psr]) -> Option<Psr> {
        let mut iter = psrs.iter();
        let first = *iter.next()?;
        Some(iter.fold(first, |acc, psr| Psr {
            ciphertext: hom::merge(&acc.ciphertext, &psr.ciphertext, &self.prime),
        }))
    }
}

impl Querier {
    /// The querier over a deployment's key table.
    pub fn new(keys: Arc<KeyTable>) -> Self {
        Querier { keys }
    }

    /// The shared system parameters.
    pub fn params(&self) -> &SystemParams {
        &self.keys.params
    }

    /// The evaluation phase `E`, assuming **all** `N` sources contributed:
    /// derives the epoch's totals ([`Querier::epoch_totals`]) and
    /// finishes with them.
    pub fn evaluate(&self, final_psr: &Psr, epoch: Epoch) -> Result<VerifiedSum, SiesError> {
        self.finish(
            final_psr,
            &self.epoch_totals(epoch),
            self.keys.num_sources(),
        )
    }

    /// The evaluation phase with an explicit contributor set (paper §IV-B,
    /// Discussion: on node failures the querier sums only the shares of
    /// the sources that contributed).
    ///
    /// Decrypts `m_{f,t} = 𝒟(PSR_{f,t}, K_t, Σ k_{i,t}, p)`, splits it into
    /// `(res_t, s_t)`, recomputes `Σ ss_{i,t}`, and accepts iff they match
    /// (Theorems 2 and 4: integrity and freshness).
    pub fn evaluate_with_contributors(
        &self,
        final_psr: &Psr,
        epoch: Epoch,
        contributors: &[SourceId],
    ) -> Result<VerifiedSum, SiesError> {
        self.evaluate_with_totals(final_psr, epoch, contributors, 1, |_| None)
    }

    /// The querier's half of `epoch`'s evaluation over every source,
    /// derived from its own key-table rows: one sweep of both PRFs
    /// through the multi-lane batch pipeline ([`prf::for_each_epoch_key`])
    /// and one Fermat inverse, allocating nothing. Everything Eq. 9
    /// charges the querier but the final multiply, computable as soon
    /// as the querier knows the epoch.
    pub fn epoch_totals(&self, epoch: Epoch) -> EpochTotals {
        let k_t_inv = self.k_t_inv(epoch);
        let (k_sum, secret) = self.key_sums(epoch, self.keys.source_prfs.iter());
        EpochTotals {
            epoch,
            k_t_inv,
            k_sum,
            secret,
        }
    }

    /// `K_t⁻¹ mod p` for `epoch`.
    fn k_t_inv(&self, epoch: Epoch) -> U256 {
        let keys = &self.keys;
        let k_t = keys
            .global_prf
            .derive_mod_nonzero(epoch, keys.params.prime());
        // Fermat inversion: its multiplies follow the public exponent
        // p − 2, not the secret K_t, and it allocates nothing.
        keys.ctx
            .inv_mod_prime(&k_t)
            .expect("K_t is non-zero and p is prime")
    }

    /// `(Σ k_{i,t} mod p, Σ ss_{i,t})` over `prfs`, both PRF sweeps
    /// through the multi-lane batch pipeline ([`prf::for_each_epoch_key`]).
    fn key_sums<'a>(
        &self,
        epoch: Epoch,
        prfs: impl IntoIterator<Item = &'a KeyedPrf>,
    ) -> (U256, U256) {
        let p = self.keys.params.prime();
        let mut k_sum = U256::ZERO;
        let mut secret = U256::ZERO;
        prf::for_each_epoch_key(prfs, epoch, p, |_, k_it, ss| {
            k_sum = k_sum.add_mod(&k_it, p);
            secret = secret
                .checked_add(&codec::share_to_u256(&ss))
                .expect("share sum fits 256 bits");
        });
        (k_sum, secret)
    }

    /// Per-chunk half of the sweep: [`Querier::key_sums`] over one
    /// contiguous slice of the contributor list, or the first unknown id
    /// in slice order.
    fn contributor_partial(
        &self,
        epoch: Epoch,
        ids: &[SourceId],
    ) -> Result<(U256, U256), SiesError> {
        let keys = &self.keys;
        // Resolve every id first: the first unknown id in slice order is
        // the error.
        if let Some(&id) = ids.iter().find(|&&id| id as usize >= keys.num_sources()) {
            return Err(SiesError::UnknownSource(id));
        }
        Ok(self.key_sums(epoch, ids.iter().map(|&id| &keys.source_prfs[id as usize])))
    }

    /// Whether `contributors` is every source in id order: the one list
    /// whose sums are an epoch's totals.
    fn is_every_source(&self, contributors: &[SourceId]) -> bool {
        contributors.len() == self.keys.num_sources()
            && contributors.iter().zip(0..).all(|(&id, i)| id == i)
    }

    /// [`Querier::evaluate_with_contributors`] with the per-contributor
    /// PRF recomputation sharded over `threads` scoped workers, and able
    /// to finish from totals derived ahead ([`Querier::epoch_totals`]).
    ///
    /// `pooled` is asked for `epoch`'s totals only when `contributors` is
    /// every source in id order, the one list they answer; when it
    /// returns totals for `epoch`, evaluation is one decrypt, decode and
    /// compare. Any other list, or no totals, runs the sweep.
    ///
    /// Deterministic by construction: the sweep's chunks are contiguous
    /// slices of `contributors` and the partial sums combine under
    /// exactly associative operations (modular and integer addition), so
    /// the result — including which `UnknownSource` error surfaces — is
    /// identical to the serial loop for every thread count, and the
    /// totals, the same sums over every source, give it too.
    pub fn evaluate_with_totals(
        &self,
        final_psr: &Psr,
        epoch: Epoch,
        contributors: &[SourceId],
        threads: usize,
        pooled: impl FnOnce(Epoch) -> Option<EpochTotals>,
    ) -> Result<VerifiedSum, SiesError> {
        if self.is_every_source(contributors) {
            if let Some(totals) = pooled(epoch).filter(|t| t.epoch == epoch) {
                return self.finish(final_psr, &totals, contributors.len());
            }
        }
        let p = self.keys.params.prime();
        let k_t_inv = self.k_t_inv(epoch);
        // Σ k_{i,t} mod p and Σ ss_{i,t} (plain integer) over contributors.
        // Chunks are in input order, so the first failing chunk holds the
        // globally first failing contributor. A serial evaluation sums
        // in place, without the chunk-result vector.
        let (k_sum, expected_secret) = if threads <= 1 {
            self.contributor_partial(epoch, contributors)?
        } else {
            let mut k_sum = U256::ZERO;
            let mut expected_secret = U256::ZERO;
            for partial in parallel::map_chunks(threads, contributors, |ids| {
                self.contributor_partial(epoch, ids)
            }) {
                let (ks, es) = partial?;
                k_sum = k_sum.add_mod(&ks, p);
                expected_secret = expected_secret
                    .checked_add(&es)
                    .expect("share sum fits 256 bits");
            }
            (k_sum, expected_secret)
        };
        let sums = EpochTotals {
            epoch,
            k_t_inv,
            k_sum,
            secret: expected_secret,
        };
        self.finish(final_psr, &sums, contributors.len())
    }

    /// The evaluation's tail, shared by the totals path and the sweep:
    /// decrypts with `K_t⁻¹` and `Σ k_{i,t}`, decodes, and accepts iff
    /// the decoded secret equals `Σ ss_{i,t}`.
    fn finish(
        &self,
        final_psr: &Psr,
        sums: &EpochTotals,
        contributors: usize,
    ) -> Result<VerifiedSum, SiesError> {
        let keys = &self.keys;
        let m_f = hom::decrypt_with_inv(
            final_psr.ciphertext(),
            &sums.k_t_inv,
            &sums.k_sum,
            &keys.ctx,
        );
        let decoded = codec::decode_final(&keys.params, &m_f);
        if decoded.secret != sums.secret {
            return Err(SiesError::IntegrityViolation { epoch: sums.epoch });
        }
        Ok(VerifiedSum {
            sum: decoded.result,
            epoch: sums.epoch,
            contributors: contributors as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn full_setup(n: u64, seed: u64) -> (Querier, Vec<Source>, Aggregator) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = SystemParams::new(n).unwrap();
        let (querier, creds, agg) = setup(&mut rng, params);
        let sources = creds.into_iter().map(Source::new).collect();
        (querier, sources, agg)
    }

    /// The key table of `full_setup(n, seed)`'s deployment: the same
    /// draws from the same RNG state.
    fn key_table(n: u64, seed: u64) -> Arc<KeyTable> {
        let mut rng = StdRng::seed_from_u64(seed);
        Arc::new(KeyTable::generate(&mut rng, SystemParams::new(n).unwrap()))
    }

    fn run_epoch(sources: &[Source], agg: &Aggregator, values: &[u64], epoch: Epoch) -> Psr {
        let psrs: Vec<Psr> = sources
            .iter()
            .zip(values)
            .map(|(s, &v)| s.initialize(epoch, v).unwrap())
            .collect();
        agg.merge(&psrs).unwrap()
    }

    #[test]
    fn exact_sum_end_to_end() {
        let (querier, sources, agg) = full_setup(16, 1);
        let values: Vec<u64> = (0..16).map(|i| 100 + i * 7).collect();
        let expected: u64 = values.iter().sum();
        let final_psr = run_epoch(&sources, &agg, &values, 5);
        let res = querier.evaluate(&final_psr, 5).unwrap();
        assert_eq!(res.sum, expected);
        assert_eq!(res.epoch, 5);
        assert_eq!(res.contributors, 16);
    }

    #[test]
    fn sum_of_zeros_verifies() {
        // Sources failing the WHERE predicate transmit 0 (paper §III-B).
        let (querier, sources, agg) = full_setup(8, 2);
        let final_psr = run_epoch(&sources, &agg, &[0; 8], 1);
        assert_eq!(querier.evaluate(&final_psr, 1).unwrap().sum, 0);
    }

    #[test]
    fn hierarchical_merge_matches_flat_merge() {
        // Figure 1 topology: two level-1 aggregators under one sink.
        let (querier, sources, agg) = full_setup(4, 3);
        let values = [10u64, 20, 30, 40];
        let psrs: Vec<Psr> = sources
            .iter()
            .zip(&values)
            .map(|(s, &v)| s.initialize(9, v).unwrap())
            .collect();
        let left = agg.merge(&psrs[..2]).unwrap();
        let right = agg.merge(&psrs[2..]).unwrap();
        let sink = agg.merge(&[left, right]).unwrap();
        let flat = agg.merge(&psrs).unwrap();
        assert_eq!(sink, flat);
        assert_eq!(querier.evaluate(&sink, 9).unwrap().sum, 100);
    }

    #[test]
    fn tampered_psr_detected() {
        let (querier, sources, agg) = full_setup(8, 4);
        let final_psr = run_epoch(&sources, &agg, &[5; 8], 0);
        // Adversary adds an arbitrary integer to the ciphertext — this is
        // exactly the attack that breaks CMT (paper §II-D).
        let tampered = Psr::from_ciphertext(
            final_psr
                .ciphertext()
                .add_mod(&U256::from_u64(1), querier.params().prime()),
        );
        assert!(matches!(
            querier.evaluate(&tampered, 0),
            Err(SiesError::IntegrityViolation { epoch: 0 })
        ));
    }

    #[test]
    fn dropped_contribution_detected() {
        let (querier, sources, agg) = full_setup(8, 5);
        let psrs: Vec<Psr> = sources
            .iter()
            .map(|s| s.initialize(3, 7).unwrap())
            .collect();
        // A compromised aggregator silently drops one child's PSR.
        let partial = agg.merge(&psrs[..7]).unwrap();
        assert!(querier.evaluate(&partial, 3).is_err());
    }

    #[test]
    fn spurious_injection_detected() {
        let (querier, sources, agg) = full_setup(4, 6);
        let mut psrs: Vec<Psr> = sources
            .iter()
            .map(|s| s.initialize(2, 10).unwrap())
            .collect();
        // Inject a duplicate of source 0's PSR.
        psrs.push(psrs[0]);
        let merged = agg.merge(&psrs).unwrap();
        assert!(querier.evaluate(&merged, 2).is_err());
    }

    #[test]
    fn replayed_epoch_detected() {
        let (querier, sources, agg) = full_setup(8, 7);
        let old = run_epoch(&sources, &agg, &[9; 8], 1);
        // Fresh epoch result exists, but adversary replays epoch 1's PSR.
        let _fresh = run_epoch(&sources, &agg, &[9; 8], 2);
        assert!(querier.evaluate(&old, 2).is_err());
        // The same PSR still verifies for its own epoch.
        assert!(querier.evaluate(&old, 1).is_ok());
    }

    #[test]
    fn node_failure_subset_verification() {
        let (querier, sources, agg) = full_setup(8, 8);
        // Sources 3 and 6 fail; their PSRs never reach the network.
        let contributing: Vec<SourceId> = [0u32, 1, 2, 4, 5, 7].to_vec();
        let psrs: Vec<Psr> = contributing
            .iter()
            .map(|&id| sources[id as usize].initialize(4, 50).unwrap())
            .collect();
        let merged = agg.merge(&psrs).unwrap();
        // Verifying against the full set fails...
        assert!(querier.evaluate(&merged, 4).is_err());
        // ...but succeeds against the reported contributor set.
        let res = querier
            .evaluate_with_contributors(&merged, 4, &contributing)
            .unwrap();
        assert_eq!(res.sum, 300);
        assert_eq!(res.contributors, 6);
    }

    #[test]
    fn unknown_contributor_rejected() {
        let (querier, sources, agg) = full_setup(2, 9);
        let merged = run_epoch(&sources, &agg, &[1, 2], 0);
        assert!(matches!(
            querier.evaluate_with_contributors(&merged, 0, &[0, 5]),
            Err(SiesError::UnknownSource(5))
        ));
    }

    #[test]
    fn psr_wire_round_trip() {
        let (_, sources, _) = full_setup(2, 10);
        let psr = sources[0].initialize(1, 999).unwrap();
        assert_eq!(Psr::from_bytes(&psr.to_bytes()), psr);
        assert_eq!(Psr::wire_size(), 32);
    }

    #[test]
    fn ciphertexts_differ_across_epochs_and_sources() {
        // Freshness and key separation at the ciphertext level.
        let (_, sources, _) = full_setup(2, 11);
        let a = sources[0].initialize(1, 42).unwrap();
        let b = sources[0].initialize(2, 42).unwrap();
        let c = sources[1].initialize(1, 42).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn merge_empty_is_none() {
        let (_, _, agg) = full_setup(2, 12);
        assert!(agg.merge(&[]).is_none());
    }

    #[test]
    fn batched_initialize_matches_serial() {
        // The Montgomery-amortized epoch path must emit bit-identical
        // ciphertexts — this is the scheme-level half of the determinism
        // oracle for the parallel pipeline.
        let (_, sources, _) = full_setup(12, 21);
        let keys = key_table(12, 21);
        for epoch in [0u64, 1, 7, 1_000_003] {
            let cipher = keys.epoch_cipher(epoch);
            for (i, s) in sources.iter().enumerate() {
                let v = (i as u64) * 31 + epoch % 97;
                assert_eq!(
                    s.initialize_with(&cipher, epoch, v).unwrap(),
                    s.initialize(epoch, v).unwrap(),
                    "source {i} epoch {epoch}"
                );
            }
            // The lane-batched shard initialization over the deployment's
            // key table is job-wise identical too, including ragged batch
            // sizes (n % 4, n % 8 ≠ 0).
            let jobs: Vec<(SourceId, u64)> = (0..12)
                .map(|i| (i, u64::from(i) * 31 + epoch % 97))
                .collect();
            for n in [0usize, 1, 5, 12] {
                let mut batch = Vec::new();
                keys.initialize_batch_into(&cipher, epoch, &jobs[..n], |r| batch.push(r));
                assert_eq!(batch.len(), n);
                for (i, got) in batch.iter().enumerate() {
                    assert_eq!(
                        got.as_ref().unwrap(),
                        &sources[i].initialize(epoch, jobs[i].1).unwrap(),
                        "job {i} of {n} epoch {epoch}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_paths_match_serial_across_tile_boundaries() {
        // More than two tiles of sources: the batch init and the
        // querier's Σss sweep must walk every tile boundary, and the
        // rows of a deployment's key table must encrypt exactly like
        // sources built alone from setup's credentials (same seed, same
        // draws). Two full 64-key PRF tiles and a ragged third.
        let n = 131;
        let (querier, alone, agg) = full_setup(n, 31);
        let keys = key_table(n, 31);
        assert_eq!(keys.num_sources(), n as usize);
        assert!(keys.source(n as SourceId).is_none());
        let epoch = 77;
        let cipher = keys.epoch_cipher(epoch);
        let jobs: Vec<(SourceId, u64)> =
            (0..n as SourceId).map(|i| (i, u64::from(i) * 3)).collect();
        let mut psrs = Vec::new();
        keys.initialize_batch_into(&cipher, epoch, &jobs, |r| psrs.push(r.unwrap()));
        assert_eq!(psrs.len(), n as usize);
        for (i, psr) in psrs.iter().enumerate() {
            let expected = alone[i].initialize(epoch, i as u64 * 3).unwrap();
            assert_eq!(*psr, expected, "source {i}");
            let view = keys.source(i as SourceId).unwrap();
            assert_eq!(view.id(), i as SourceId);
            assert_eq!(view.initialize(epoch, i as u64 * 3).unwrap(), expected);
        }
        // Contributors out of table order, spanning every tile, verified
        // by setup's querier and by a querier over the generated table.
        let contributors: Vec<SourceId> = (0..n as SourceId).rev().filter(|i| i % 7 != 3).collect();
        let picked: Vec<Psr> = contributors.iter().map(|&i| psrs[i as usize]).collect();
        let merged = agg.merge(&picked).unwrap();
        let expected: u64 = contributors.iter().map(|&i| i as u64 * 3).sum();
        for querier in [querier, Querier::new(keys)] {
            let res = querier
                .evaluate_with_contributors(&merged, epoch, &contributors)
                .unwrap();
            assert_eq!(res.sum, expected);
        }
    }

    #[test]
    fn prewarmed_initialize_matches_serial() {
        // Key material derived ahead of the epoch must produce the same
        // ciphertexts (and the same errors) as on-demand derivation —
        // the core half of the prewarm digest-identity guarantee.
        let (_, sources, _) = full_setup(12, 23);
        let table = key_table(12, 23);
        for epoch in [0u64, 3, 1_000_003] {
            let keys = table.derive_epoch_keys(epoch);
            assert_eq!(keys.epoch(), epoch);
            assert_eq!(keys.num_sources(), 12);
            for (i, s) in sources.iter().enumerate() {
                let v = (i as u64) * 17 + epoch % 89;
                assert_eq!(
                    table.initialize_prewarmed(&keys, i as SourceId, v).unwrap(),
                    s.initialize(epoch, v).unwrap(),
                    "source {i} epoch {epoch}"
                );
            }
            // Out-of-range readings fail identically on both paths.
            let too_big = u64::MAX;
            assert_eq!(
                table
                    .initialize_prewarmed(&keys, 4, too_big)
                    .unwrap_err()
                    .to_string(),
                sources[4]
                    .initialize(epoch, too_big)
                    .unwrap_err()
                    .to_string()
            );
        }
    }

    #[test]
    fn threaded_evaluation_matches_serial() {
        let (querier, sources, agg) = full_setup(33, 22);
        let contributing: Vec<SourceId> = (0..33).filter(|i| i % 5 != 2).collect();
        let psrs: Vec<Psr> = contributing
            .iter()
            .map(|&id| sources[id as usize].initialize(6, id as u64 + 1).unwrap())
            .collect();
        let merged = agg.merge(&psrs).unwrap();
        let serial = querier
            .evaluate_with_contributors(&merged, 6, &contributing)
            .unwrap();
        for threads in [1, 2, 3, 8, 64] {
            let par = querier
                .evaluate_with_totals(&merged, 6, &contributing, threads, |_| None)
                .unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
        // Error results must be identical too — including *which* unknown
        // contributor is reported.
        let bad: Vec<SourceId> = vec![0, 1, 99, 2, 77];
        for threads in [1, 2, 8] {
            assert!(matches!(
                querier.evaluate_with_totals(&merged, 6, &bad, threads, |_| None),
                Err(SiesError::UnknownSource(99))
            ));
        }
    }

    #[test]
    fn result_overflow_is_detected_not_silent() {
        // 2 sources × u32::MAX overflows the 4-byte result field; the share
        // check must catch the corruption rather than return a wrong sum.
        let (querier, sources, agg) = full_setup(2, 13);
        let psrs: Vec<Psr> = sources
            .iter()
            .map(|s| s.initialize(0, u32::MAX as u64).unwrap())
            .collect();
        let merged = agg.merge(&psrs).unwrap();
        match querier.evaluate(&merged, 0) {
            // Either the padding absorbed it into an integrity failure…
            Err(SiesError::IntegrityViolation { .. }) => {}
            // …or (if it still verified) the sum must be exact anyway.
            Ok(v) => assert_eq!(v.sum, 2 * (u32::MAX as u64)),
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
