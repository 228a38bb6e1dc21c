//! [`SiesDeployment`]: the SIES scheme plugged into the
//! [`crate::scheme::AggregationScheme`] abstraction so the epoch engine
//! can drive it alongside the baselines.
//!
//! A deployment holds its keys once: one [`KeyTable`] (each `k_i`'s HMAC
//! pads absorbed once at setup, 104 bytes per source) that the querier's
//! Σk/Σss recomputation, the sources' batch init and prewarm derivation
//! all read by source id. A source is a view of its row
//! ([`SiesDeployment::source`]), not a stored copy.
//!
//! Each prewarm pool entry ([`crate::prewarm`]) holds two halves, each
//! derived by its own role's sweep: the sources' [`EpochKeyMaterial`],
//! which only [`AggregationScheme::batch_source_init_into`] reads, and
//! the querier's [`EpochTotals`], which only evaluation reads. The
//! querier never reads the sources' half: in a deployment those are
//! different devices, and the querier's PRFs (paper Eq. 9) move into the
//! idle gap, they do not vanish.

use crate::prewarm::{PrewarmPolicy, PrewarmPool, PrewarmStats};
use crate::scheme::{AggregationScheme, EvaluatedSum, SchemeError};
use rand::RngCore;
use sies_core::scheme::{
    Aggregator, EpochKeyMaterial, EpochTotals, KeyTable, Psr, Querier, Source,
};
use sies_core::{Epoch, SiesError, SourceId, SystemParams};
use sies_crypto::u256::U256;
use std::sync::{Arc, Mutex};

/// A full SIES deployment: the key table every source and the querier
/// read, and the aggregator configuration.
pub struct SiesDeployment {
    keys: Arc<KeyTable>,
    aggregator: Aggregator,
    querier: Querier,
    /// Precomputed next-epoch key material ([`crate::prewarm`]). Starts
    /// disabled so existing callers see identical behavior; a pipeline
    /// (or test) opts in via [`SiesDeployment::set_prewarm_policy`].
    /// Entries are `Arc`-shared so a lookup clones a pointer, not the
    /// per-source key vectors, and concurrent shard workers of one
    /// epoch all hit the same derivation.
    prewarm: Mutex<PrewarmPool<Arc<Prewarmed>>>,
}

/// One pooled epoch: the sources' key material and the querier's
/// totals, derived by separate sweeps and read by separate roles.
struct Prewarmed {
    sources: EpochKeyMaterial,
    querier: EpochTotals,
}

impl SiesDeployment {
    /// Runs the setup phase for `params.num_sources()` sources: the keys
    /// [`sies_core::setup`] would draw from `rng`, absorbed once into
    /// the deployment's key table.
    pub fn new(rng: &mut dyn RngCore, params: SystemParams) -> Self {
        let keys = Arc::new(KeyTable::generate(rng, params));
        SiesDeployment {
            aggregator: Aggregator::new(*keys.params().prime()),
            querier: Querier::new(Arc::clone(&keys)),
            keys,
            prewarm: Mutex::new(PrewarmPool::new(PrewarmPolicy::disabled())),
        }
    }

    /// Direct access to the querier (for API-level tests).
    pub fn querier(&self) -> &Querier {
        &self.querier
    }

    /// Source `id`, a view of its row of the key table (for API-level
    /// tests).
    ///
    /// # Panics
    /// If the deployment has no source `id`.
    pub fn source(&self, id: SourceId) -> Source {
        self.keys.source(id).expect("source id in range")
    }

    /// Number of deployed sources.
    pub fn num_sources(&self) -> u64 {
        self.keys.num_sources() as u64
    }

    /// Whether `id` names a deployed source.
    fn known(&self, id: SourceId) -> bool {
        (id as usize) < self.keys.num_sources()
    }

    /// Installs a precompute policy (disabling clears the pool). The
    /// pool only ever caches key material that on-demand derivation
    /// would produce bit-for-bit, so this never changes any result —
    /// only where the PRF sweeps run.
    pub fn set_prewarm_policy(&self, policy: PrewarmPolicy) {
        self.prewarm
            .lock()
            .expect("prewarm lock")
            .set_policy(policy);
    }

    /// Builder form of [`SiesDeployment::set_prewarm_policy`].
    pub fn with_prewarm(self, policy: PrewarmPolicy) -> Self {
        self.set_prewarm_policy(policy);
        self
    }

    /// Lifetime pool counters (hits/misses/derived/evicted/cancelled).
    pub fn prewarm_stats(&self) -> PrewarmStats {
        self.prewarm.lock().expect("prewarm lock").stats()
    }

    /// The epochs a warmer thread should derive next, given the last
    /// epoch the engine finished.
    pub fn prewarm_plan(&self, watermark: Epoch) -> Vec<Epoch> {
        self.prewarm.lock().expect("prewarm lock").plan(watermark)
    }

    /// Drops pooled material the watermark has passed.
    pub fn prewarm_retire(&self, watermark: Epoch) {
        self.prewarm.lock().expect("prewarm lock").retire(watermark);
    }

    /// Derives and pools `epoch`'s two halves through the same
    /// lane-batched PRF sweeps the hot path uses: the sources' key set
    /// (shared cipher plus all per-source keys and shares) and, by the
    /// querier's own sweep over its rows, the querier's totals
    /// ([`Querier::epoch_totals`]). The expensive derivation runs outside
    /// the pool lock; returns whether the pool kept the result (`false`
    /// when disabled, already pooled, or lost a race to another
    /// warmer).
    pub fn prewarm_derive(&self, epoch: Epoch) -> bool {
        {
            let pool = self.prewarm.lock().expect("prewarm lock");
            if !pool.policy().enabled || pool.contains(epoch) {
                return false;
            }
        }
        let entry = Prewarmed {
            sources: self.keys.derive_epoch_keys(epoch),
            querier: self.querier.epoch_totals(epoch),
        };
        self.prewarm
            .lock()
            .expect("prewarm lock")
            .insert(epoch, Arc::new(entry))
    }

    /// The sources' pool probe, non-destructive: the `Arc` clone is a
    /// pointer copy, and the entry stays for the epoch's other shard
    /// workers.
    fn prewarm_lookup(&self, epoch: Epoch) -> Option<Arc<Prewarmed>> {
        self.prewarm
            .lock()
            .expect("prewarm lock")
            .lookup(epoch)
            .cloned()
    }

    /// The querier's pool probe: a copy of the epoch's totals, counted
    /// apart from the sources' lookups.
    fn prewarm_totals(&self, epoch: Epoch) -> Option<EpochTotals> {
        self.prewarm
            .lock()
            .expect("prewarm lock")
            .lookup_querier(epoch)
            .map(|entry| entry.querier)
    }
}

/// The per-job error for an id outside the deployment.
fn unknown_source(source: SourceId) -> SchemeError {
    SchemeError::Malformed(format!("unknown source {source}"))
}

impl AggregationScheme for SiesDeployment {
    type Psr = Psr;

    fn name(&self) -> &'static str {
        "SIES"
    }

    fn source_init(&self, source: SourceId, epoch: Epoch, value: u64) -> Psr {
        self.source(source)
            .initialize(epoch, value)
            .expect("value fits the configured result width")
    }

    fn try_source_init(
        &self,
        source: SourceId,
        epoch: Epoch,
        value: u64,
    ) -> Result<Psr, SchemeError> {
        let src = self
            .keys
            .source(source)
            .ok_or_else(|| unknown_source(source))?;
        src.initialize(epoch, value)
            .map_err(|e| SchemeError::Malformed(e.to_string()))
    }

    fn batch_source_init_into(
        &self,
        epoch: Epoch,
        jobs: &[(SourceId, u64)],
        out: &mut Vec<Result<Psr, SchemeError>>,
    ) {
        out.clear();
        if jobs.is_empty() {
            return;
        }
        // Prewarm fast path: when a warmer already derived this epoch's
        // key material during the idle gap, every job collapses to a
        // table lookup + encode + one CIOS multiply — zero PRF calls on
        // the critical path. Results (and error shapes) are identical to
        // the derive-on-demand path below, so digests never depend on
        // pool state.
        if let Some(entry) = self.prewarm_lookup(epoch) {
            out.extend(jobs.iter().map(|&(source, value)| {
                if !self.known(source) {
                    return Err(unknown_source(source));
                }
                self.keys
                    .initialize_prewarmed(&entry.sources, source, value)
                    .map_err(|e| SchemeError::Malformed(e.to_string()))
            }));
            return;
        }
        // An unknown id sends the whole shard down the per-job path,
        // which reports it in the same shape as the serial loop.
        if !jobs.iter().all(|&(s, _)| self.known(s)) {
            out.extend(jobs.iter().map(|&(s, v)| self.try_source_init(s, epoch, v)));
            return;
        }
        // Hoist the epoch-shared work: K_t derived once and entered into
        // the Montgomery domain once per shard; then every job's k_{i,t}
        // and ss_{i,t} come from the lane-batched, allocation-free PRF
        // sweeps of `KeyTable::initialize_batch_into` over the jobs'
        // rows. Ciphertexts are bit-identical to `try_source_init` (the
        // EpochCipher contract).
        let cipher = self.keys.epoch_cipher(epoch);
        self.keys.initialize_batch_into(&cipher, epoch, jobs, |r| {
            out.push(r.map_err(|e| SchemeError::Malformed(e.to_string())))
        });
    }

    fn prewarm_enabled(&self) -> bool {
        self.prewarm.lock().expect("prewarm lock").policy().enabled
    }

    fn prewarm_epoch(&self, epoch: Epoch) {
        self.prewarm_derive(epoch);
    }

    fn prewarm_plan(&self, watermark: Epoch) -> Vec<Epoch> {
        SiesDeployment::prewarm_plan(self, watermark)
    }

    fn prewarm_retire(&self, watermark: Epoch) {
        SiesDeployment::prewarm_retire(self, watermark);
    }

    fn prewarm_cancel(&self) {
        self.prewarm.lock().expect("prewarm lock").cancel_all();
    }

    fn merge(&self, psrs: &[Psr]) -> Psr {
        self.aggregator
            .merge(psrs)
            .expect("merge called with children")
    }

    fn try_merge(&self, psrs: &[Psr]) -> Result<Psr, SchemeError> {
        self.aggregator
            .merge(psrs)
            .ok_or_else(|| SchemeError::Malformed("merge called with no inputs".into()))
    }

    fn evaluate(
        &self,
        final_psr: &Psr,
        epoch: Epoch,
        contributors: &[SourceId],
    ) -> Result<EvaluatedSum, SchemeError> {
        self.evaluate_par(final_psr, epoch, contributors, 1)
    }

    fn evaluate_par(
        &self,
        final_psr: &Psr,
        epoch: Epoch,
        contributors: &[SourceId],
        threads: usize,
    ) -> Result<EvaluatedSum, SchemeError> {
        // A pooled epoch over every source is one decrypt; the querier
        // consults the pool only for that list, and reads only its own
        // half of the entry.
        match self
            .querier
            .evaluate_with_totals(final_psr, epoch, contributors, threads, |epoch| {
                self.prewarm_totals(epoch)
            }) {
            Ok(v) => Ok(EvaluatedSum {
                sum: v.sum as f64,
                integrity_checked: true,
            }),
            Err(SiesError::IntegrityViolation { epoch }) => Err(SchemeError::VerificationFailed(
                format!("secret mismatch at epoch {epoch}"),
            )),
            Err(e) => Err(SchemeError::Malformed(e.to_string())),
        }
    }

    fn psr_wire_size(&self, _psr: &Psr) -> usize {
        Psr::wire_size()
    }

    fn tamper(&self, psr: &mut Psr) {
        // Add 1 to the ciphertext — the attack that silently corrupts CMT.
        let p = self.querier.params().prime();
        let c = psr.ciphertext().add_mod(&U256::ONE, p);
        *psr = Psr::from_ciphertext(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Attack, Engine};
    use crate::topology::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn deployment(n: u64) -> SiesDeployment {
        let mut rng = StdRng::seed_from_u64(1234);
        SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap())
    }

    #[test]
    fn engine_runs_sies_end_to_end() {
        let dep = deployment(64);
        let topo = Topology::complete_tree(64, 4);
        let mut engine = Engine::new(&dep, &topo);
        let values: Vec<u64> = (0..64).map(|i| 1800 + i * 13).collect();
        let expected: u64 = values.iter().sum();
        let out = engine.run_epoch(7, &values);
        let res = out.result.unwrap();
        assert_eq!(res.sum, expected as f64);
        assert!(res.integrity_checked);
        // SIES PSRs are 32 bytes on every edge class.
        assert!((out.stats.bytes.per_sa_edge() - 32.0).abs() < 1e-9);
        assert!((out.stats.bytes.per_aa_edge() - 32.0).abs() < 1e-9);
        assert_eq!(out.stats.bytes.agg_to_querier, 32);
    }

    #[test]
    fn all_covert_attacks_detected() {
        let dep = deployment(16);
        let topo = Topology::complete_tree(16, 4);
        let node = topo.source_node(5).unwrap();
        let agg = topo.children(topo.root())[0] as usize;
        for attacks in [
            vec![Attack::TamperAtNode(node)],
            vec![Attack::DropAtNode(node)],
            vec![Attack::DuplicateAtNode(node)],
            vec![Attack::TamperAtNode(agg)],
            vec![Attack::DropAtNode(agg)],
        ] {
            let mut engine = Engine::new(&dep, &topo);
            let out = engine.run_epoch_with(3, &[100; 16], &HashSet::new(), &attacks);
            assert!(
                matches!(out.result, Err(SchemeError::VerificationFailed(_))),
                "attack {attacks:?} went undetected"
            );
        }
    }

    #[test]
    fn replay_detected() {
        let dep = deployment(8);
        let topo = Topology::complete_tree(8, 2);
        let mut engine = Engine::new(&dep, &topo);
        assert!(engine.run_epoch(0, &[5; 8]).result.is_ok());
        let out = engine.run_epoch_with(1, &[5; 8], &HashSet::new(), &[Attack::ReplayFinal]);
        assert!(matches!(
            out.result,
            Err(SchemeError::VerificationFailed(_))
        ));
    }

    #[test]
    fn honest_failures_still_verify() {
        let dep = deployment(16);
        let topo = Topology::complete_tree(16, 4);
        let mut engine = Engine::new(&dep, &topo);
        let failed: HashSet<_> =
            [topo.source_node(2).unwrap(), topo.source_node(9).unwrap()].into();
        let out = engine.run_epoch_with(2, &[10; 16], &failed, &[]);
        let res = out.result.unwrap();
        assert_eq!(res.sum, 140.0);
    }

    #[test]
    fn prewarmed_epoch_is_bit_identical_to_cold() {
        // Two deployments from the same seed; one precomputes, one
        // derives on demand. Every PSR and every verdict (and every
        // error) must match — the deployment half of the prewarm
        // digest-identity oracle.
        let cold = deployment(24);
        let warm = deployment(24).with_prewarm(PrewarmPolicy::default());
        let jobs: Vec<(SourceId, u64)> = (0..24).map(|i| (i, 500 + i as u64 * 7)).collect();
        let all: Vec<SourceId> = (0..24).collect();
        let some: Vec<SourceId> = (0..24).filter(|i| i % 5 != 1).collect();
        // Five evaluations over every source (each one querier lookup)
        // and two over a partial set (which never consult the pool): an
        // honest and a tampered final PSR at threads 1 and 2, and the
        // single-threaded `evaluate`.
        let verdicts = |dep: &SiesDeployment, epoch: Epoch| {
            let psrs: Vec<Psr> = cold
                .batch_source_init(epoch, &jobs)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            let full = cold.merge(&psrs);
            let mut tampered = full;
            cold.tamper(&mut tampered);
            let picked: Vec<Psr> = some.iter().map(|&i| psrs[i as usize]).collect();
            let partial = cold.merge(&picked);
            let mut out = vec![dep.evaluate(&full, epoch, &all)];
            for threads in [1, 2] {
                out.push(dep.evaluate_par(&full, epoch, &all, threads));
                out.push(dep.evaluate_par(&tampered, epoch, &all, threads));
                out.push(dep.evaluate_par(&partial, epoch, &some, threads));
            }
            assert!(out[0].is_ok() && out[2].is_err() && out[3].is_ok());
            out
        };
        for epoch in 0..4u64 {
            if epoch % 2 == 0 {
                assert!(warm.prewarm_derive(epoch), "derivation pooled");
                assert!(!warm.prewarm_derive(epoch), "duplicate derivation dropped");
            } // odd epochs miss the pool and derive on demand
            let a = cold.batch_source_init(epoch, &jobs);
            let b = warm.batch_source_init(epoch, &jobs);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    x.as_ref().unwrap(),
                    y.as_ref().unwrap(),
                    "job {i} epoch {epoch}"
                );
            }
            assert_eq!(
                verdicts(&cold, epoch),
                verdicts(&warm, epoch),
                "epoch {epoch}"
            );
            warm.prewarm_retire(epoch);
        }
        let stats = warm.prewarm_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.derived, 2);
        assert_eq!(stats.evicted, 2);
        // The querier's lookups count apart: five hits on each pooled
        // epoch, five misses on each skipped one.
        assert_eq!((stats.querier_hits, stats.querier_misses), (10, 10));
        // Error shapes are identical on both paths too.
        warm.prewarm_derive(9);
        let bad = [(99u32, 1u64), (0, u64::MAX)];
        assert_eq!(
            cold.batch_source_init(9, &bad),
            warm.batch_source_init(9, &bad)
        );
        let psr = cold.source_init(3, 9, 1);
        let unknown = [0, 1, 99];
        assert_eq!(
            cold.evaluate_par(&psr, 9, &unknown, 2),
            warm.evaluate_par(&psr, 9, &unknown, 2)
        );
        // Cancellation (e.g. topology repair) leaves results unchanged.
        warm.prewarm_derive(10);
        AggregationScheme::prewarm_cancel(&warm);
        assert_eq!(
            cold.batch_source_init(10, &jobs[..5]),
            warm.batch_source_init(10, &jobs[..5])
        );
        assert_eq!(verdicts(&cold, 10), verdicts(&warm, 10));
        let stats = warm.prewarm_stats();
        assert_eq!((stats.querier_hits, stats.querier_misses), (10, 15));
    }

    #[test]
    fn prewarm_plan_tracks_watermark() {
        let dep = deployment(8).with_prewarm(PrewarmPolicy {
            enabled: true,
            depth: 2,
            capacity: 4,
        });
        assert_eq!(dep.prewarm_plan(0), vec![1, 2]);
        dep.prewarm_derive(1);
        assert_eq!(dep.prewarm_plan(0), vec![2]);
        assert!(AggregationScheme::prewarm_enabled(&dep));
        assert!(!AggregationScheme::prewarm_enabled(&deployment(8)));
    }

    #[test]
    fn random_topology_works() {
        let dep = deployment(33);
        let mut rng = StdRng::seed_from_u64(9);
        let topo = Topology::random_tree(&mut rng, 33, 5);
        let mut engine = Engine::new(&dep, &topo);
        let out = engine.run_epoch(11, &[7; 33]);
        assert_eq!(out.result.unwrap().sum, 231.0);
    }
}
