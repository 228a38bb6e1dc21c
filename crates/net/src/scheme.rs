//! The [`AggregationScheme`] abstraction: the three in-network phases
//! (initialization `I`, merging `M`, evaluation `E` — paper §III-A) as a
//! trait, so the same epoch engine, adversary harness, and accounting run
//! SIES and both baselines.

use sies_core::{Epoch, SourceId};

/// Why an evaluation was rejected (or, for non-verifying schemes like CMT,
/// why it *would* have been).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeError {
    /// Integrity/freshness verification failed.
    VerificationFailed(String),
    /// The scheme received malformed inputs.
    Malformed(String),
}

impl core::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SchemeError::VerificationFailed(m) => write!(f, "verification failed: {m}"),
            SchemeError::Malformed(m) => write!(f, "malformed input: {m}"),
        }
    }
}

impl std::error::Error for SchemeError {}

/// An evaluated (and, where the scheme supports it, verified) SUM result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluatedSum {
    /// The SUM value reported to the querier. Exact for SIES and CMT;
    /// approximate (`2^x̄`) for SECOA.
    pub sum: f64,
    /// Whether the scheme cryptographically verified integrity and
    /// freshness (true for SIES and SECOA; false for CMT, which cannot).
    pub integrity_checked: bool,
}

/// A deployed secure in-network aggregation scheme covering all `N`
/// sources. Implementors carry the key material for every party, because
/// the epoch engine plays all roles in-process.
///
/// Schemes are `Sync` (all implementors are plain owned key material) so
/// the engine can shard an epoch's source population across scoped
/// workers that share `&self`; PSRs are `Send` so the per-shard results
/// can flow back to the merging thread.
pub trait AggregationScheme: Sync {
    /// The partial state record flowing along edges.
    type Psr: Clone + Send;

    /// Scheme name for reports ("SIES", "CMT", "SECOAS").
    fn name(&self) -> &'static str;

    /// Initialization phase `I` at source `source`: encode + encrypt the
    /// epoch's value into a PSR.
    fn source_init(&self, source: SourceId, epoch: Epoch, value: u64) -> Self::Psr;

    /// Fallible variant of [`source_init`](Self::source_init). The engine
    /// calls this one, so schemes whose initialization can reject inputs
    /// (e.g. an out-of-range reading under a narrow result width) surface
    /// a [`SchemeError`] instead of panicking mid-epoch. The default
    /// delegates to the infallible method.
    fn try_source_init(
        &self,
        source: SourceId,
        epoch: Epoch,
        value: u64,
    ) -> Result<Self::Psr, SchemeError> {
        Ok(self.source_init(source, epoch, value))
    }

    /// Batched initialization over one shard of an epoch's job list:
    /// returns one result per `(source, value)` pair, in input order,
    /// element-wise equal to calling
    /// [`try_source_init`](Self::try_source_init) in a loop. Fills a
    /// fresh vector through
    /// [`batch_source_init_into`](Self::batch_source_init_into), the one
    /// batching hook schemes override.
    fn batch_source_init(
        &self,
        epoch: Epoch,
        jobs: &[(SourceId, u64)],
    ) -> Vec<Result<Self::Psr, SchemeError>> {
        let mut out = Vec::with_capacity(jobs.len());
        self.batch_source_init_into(epoch, jobs, &mut out);
        out
    }

    /// Batched initialization into `out` (cleared first, capacity
    /// retained): one result per `(source, value)` pair, in input order,
    /// element-wise equal to calling
    /// [`try_source_init`](Self::try_source_init) in a loop (which is
    /// exactly what the default does). The epoch walk calls this once
    /// per shard and epoch with a reused buffer, so once `out` has grown
    /// to the shard size the default allocates nothing in steady state.
    ///
    /// Schemes override this to hoist epoch-shared work out of the
    /// per-source loop and batch across sources: SIES derives `K_t` and
    /// builds its Montgomery context once per shard, and runs its PRF
    /// sweeps stack-tiled, allocating nothing here either; CMT derives
    /// every pad in one multi-lane pass.
    fn batch_source_init_into(
        &self,
        epoch: Epoch,
        jobs: &[(SourceId, u64)],
        out: &mut Vec<Result<Self::Psr, SchemeError>>,
    ) {
        out.clear();
        out.reserve(jobs.len());
        for &(source, value) in jobs {
            out.push(self.try_source_init(source, epoch, value));
        }
    }

    /// Whether this scheme can precompute upcoming epochs' key material
    /// during idle gaps. When `true`, a clean run
    /// ([`Engine::run_epochs`](crate::engine::Engine::run_epochs)) paces a
    /// background warmer that calls
    /// [`prewarm_epoch`](Self::prewarm_epoch) ahead of the engine's
    /// watermark. Default: `false` (no prewarm support).
    fn prewarm_enabled(&self) -> bool {
        false
    }

    /// Precompute-ahead hook: derive and pool `epoch`'s key material so
    /// a later [`batch_source_init`](Self::batch_source_init) for the
    /// same epoch skips the derivation. MUST NOT change any observable
    /// result — pooled material has to reproduce the on-demand path
    /// bit-for-bit, making this purely a latency optimization. Default:
    /// no-op.
    fn prewarm_epoch(&self, _epoch: Epoch) {}

    /// The epochs a warmer thread should derive next (ascending), given
    /// the last epoch the driver finished. Default: none.
    fn prewarm_plan(&self, _watermark: Epoch) -> Vec<Epoch> {
        Vec::new()
    }

    /// Drops precomputed state at or below the engine's progress
    /// `watermark` (those epochs already ran). Default: no-op.
    fn prewarm_retire(&self, _watermark: Epoch) {}

    /// Cancels all pending precomputed state — called when the world
    /// changes under the pool (topology repair re-planning upcoming
    /// epochs). Safe to call at any time because correctness never
    /// depends on pool contents. Default: no-op.
    fn prewarm_cancel(&self) {}

    /// Merging phase `M` at an aggregator: fuse children's PSRs.
    /// `psrs` is non-empty.
    fn merge(&self, psrs: &[Self::Psr]) -> Self::Psr;

    /// Fallible variant of [`merge`](Self::merge); the engine calls this
    /// one so malformed or empty input sets become a [`SchemeError`]
    /// rather than a panic. The default delegates to the infallible
    /// method after rejecting the empty case every scheme shares.
    fn try_merge(&self, psrs: &[Self::Psr]) -> Result<Self::Psr, SchemeError> {
        if psrs.is_empty() {
            return Err(SchemeError::Malformed("merge called with no inputs".into()));
        }
        Ok(self.merge(psrs))
    }

    /// Evaluation phase `E` at the querier. `contributors` lists the
    /// sources whose PSRs reached the sink (paper §IV-B Discussion).
    fn evaluate(
        &self,
        final_psr: &Self::Psr,
        epoch: Epoch,
        contributors: &[SourceId],
    ) -> Result<EvaluatedSum, SchemeError>;

    /// Evaluation phase sharded over `threads` workers. Must return
    /// exactly what [`evaluate`](Self::evaluate) returns for every thread
    /// count — the default simply delegates; SIES overrides it to split
    /// the per-contributor key/share recomputation across workers.
    fn evaluate_par(
        &self,
        final_psr: &Self::Psr,
        epoch: Epoch,
        contributors: &[SourceId],
        threads: usize,
    ) -> Result<EvaluatedSum, SchemeError> {
        let _ = threads;
        self.evaluate(final_psr, epoch, contributors)
    }

    /// Extra processing at the sink (root aggregator) before the PSR is
    /// sent to the querier. Identity for SIES and CMT; SECOA folds SEALs
    /// that sit at the same chain position to shrink the
    /// aggregator→querier message (paper §II-D).
    fn sink_finalize(&self, psr: Self::Psr) -> Self::Psr {
        psr
    }

    /// Wire size of a PSR in bytes — drives the per-edge communication
    /// accounting (paper Table V).
    fn psr_wire_size(&self, psr: &Self::Psr) -> usize;

    /// An in-flight adversarial modification of a PSR (used by the attack
    /// harness). Each scheme defines its own notion of "tamper": SIES/CMT
    /// add a constant to the ciphertext; SECOA inflates a sketch.
    fn tamper(&self, psr: &mut Self::Psr);
}
