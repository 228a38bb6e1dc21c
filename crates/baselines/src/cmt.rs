//! CMT (Castelluccia–Mykletun–Tsudik, MobiQuitous 2005): additively
//! homomorphic encryption of sensor readings (paper §II-D).
//!
//! Each source shares a key `k_i` with the querier and sends
//! `c_i = v_i + k_{i,t} mod n` for a public modulus `n`; aggregators add
//! ciphertexts mod `n`; the querier subtracts `Σ k_{i,t}`.
//!
//! CMT provides confidentiality but **no integrity**: an adversary can add
//! any integer to a ciphertext and shift the SUM undetected — the paper's
//! motivating weakness, demonstrated by [`CmtDeployment::tamper`] plus the
//! attack tests.
//!
//! Freshness handling follows the paper's cost model (§V): per-epoch keys
//! `k_{i,t} = HM1(k_i, t)`, so a source costs `C_HM1 + C_A20`.

use rand::RngCore;
use sies_core::{Epoch, SourceId};
use sies_crypto::prf::{self, KeyedPrf};
use sies_crypto::u256::U256;
use sies_net::scheme::{AggregationScheme, EvaluatedSum, SchemeError};

/// CMT's modulus width: 20 bytes (160 bits), giving 20-byte ciphertexts
/// (paper Table V).
pub const CMT_MODULUS_BITS: usize = 160;

/// Wire size of a CMT ciphertext.
pub const CMT_PSR_BYTES: usize = 20;

/// A CMT partial state record: one residue mod `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmtPsr {
    ciphertext: U256,
}

impl CmtPsr {
    /// The raw residue.
    pub fn ciphertext(&self) -> &U256 {
        &self.ciphertext
    }

    /// Builds from a raw residue (for attack simulations).
    pub fn from_ciphertext(ciphertext: U256) -> Self {
        CmtPsr { ciphertext }
    }
}

/// A deployed CMT network: the shared modulus and every source's key.
pub struct CmtDeployment {
    /// Public modulus `n` (2^160: any 160-bit value works since keys are
    /// uniform; we use the power of two like the original scheme's
    /// `mod 2^b` arithmetic).
    modulus: U256,
    /// Long-term source keys with their HMAC pads pre-absorbed, indexed
    /// by source id (querier's copy): every per-epoch pad `k_{i,t}`
    /// costs two compressions, both lane-batchable.
    prfs: Vec<KeyedPrf>,
}

impl CmtDeployment {
    /// Sets up `n` sources with random 20-byte keys.
    pub fn new(rng: &mut dyn RngCore, num_sources: u64) -> Self {
        let modulus = U256::ONE.shl(CMT_MODULUS_BITS);
        let mut prfs = Vec::with_capacity(num_sources as usize);
        for _ in 0..num_sources {
            let mut k = [0u8; 20];
            rng.fill_bytes(&mut k);
            prfs.push(KeyedPrf::new(&k));
        }
        CmtDeployment { modulus, prfs }
    }

    /// Number of sources.
    pub fn num_sources(&self) -> u64 {
        self.prfs.len() as u64
    }

    /// Widens a 160-bit `HM1` digest into the residue `k_{i,t} mod n`.
    fn key_from_digest(digest: &[u8; 20]) -> U256 {
        let mut bytes = [0u8; 32];
        bytes[12..].copy_from_slice(digest);
        // A 160-bit digest is already < 2^160 = n.
        U256::from_be_bytes(&bytes)
    }

    /// Derives the per-epoch key `k_{i,t} = HM1(k_i, t) mod n`.
    fn epoch_key(&self, source: SourceId, epoch: Epoch) -> U256 {
        Self::key_from_digest(&self.prfs[source as usize].hm1_epoch(epoch))
    }
}

impl AggregationScheme for CmtDeployment {
    type Psr = CmtPsr;

    fn name(&self) -> &'static str {
        "CMT"
    }

    fn source_init(&self, source: SourceId, epoch: Epoch, value: u64) -> CmtPsr {
        let k = self.epoch_key(source, epoch);
        let v = U256::from_u64(value);
        CmtPsr {
            ciphertext: v.add_mod(&k, &self.modulus),
        }
    }

    fn try_source_init(
        &self,
        source: SourceId,
        epoch: Epoch,
        value: u64,
    ) -> Result<CmtPsr, SchemeError> {
        if source as usize >= self.prfs.len() {
            return Err(SchemeError::Malformed(format!("unknown source {source}")));
        }
        Ok(self.source_init(source, epoch, value))
    }

    fn batch_source_init_into(
        &self,
        epoch: Epoch,
        jobs: &[(SourceId, u64)],
        out: &mut Vec<Result<CmtPsr, SchemeError>>,
    ) {
        // One multi-lane pass derives every job's pad; unknown ids keep
        // the per-job error of the scalar path.
        let known: Vec<&KeyedPrf> = jobs
            .iter()
            .filter_map(|&(source, _)| self.prfs.get(source as usize))
            .collect();
        let mut pads = prf::hm1_epoch_many(known, epoch).into_iter();
        out.clear();
        out.extend(jobs.iter().map(|&(source, value)| {
            if source as usize >= self.prfs.len() {
                return Err(SchemeError::Malformed(format!("unknown source {source}")));
            }
            let k = Self::key_from_digest(&pads.next().expect("one pad per known job"));
            Ok(CmtPsr {
                ciphertext: U256::from_u64(value).add_mod(&k, &self.modulus),
            })
        }));
    }

    fn merge(&self, psrs: &[CmtPsr]) -> CmtPsr {
        let mut acc = psrs[0].ciphertext;
        for p in &psrs[1..] {
            acc = acc.add_mod(&p.ciphertext, &self.modulus);
        }
        CmtPsr { ciphertext: acc }
    }

    fn evaluate(
        &self,
        final_psr: &CmtPsr,
        epoch: Epoch,
        contributors: &[SourceId],
    ) -> Result<EvaluatedSum, SchemeError> {
        // Resolve every contributor before deriving, so the first unknown
        // id errors exactly as the scalar loop did; then strip all pads in
        // one lane-batched pass.
        let mut prfs = Vec::with_capacity(contributors.len());
        for &id in contributors {
            match self.prfs.get(id as usize) {
                Some(p) => prfs.push(p),
                None => return Err(SchemeError::Malformed(format!("unknown source {id}"))),
            }
        }
        let mut acc = final_psr.ciphertext;
        for digest in prf::hm1_epoch_many(prfs, epoch) {
            acc = acc.sub_mod(&Self::key_from_digest(&digest), &self.modulus);
        }
        // CMT has no verification step: whatever comes out is accepted.
        Ok(EvaluatedSum {
            sum: acc.as_u128() as f64,
            integrity_checked: false,
        })
    }

    fn psr_wire_size(&self, _psr: &CmtPsr) -> usize {
        CMT_PSR_BYTES
    }

    fn tamper(&self, psr: &mut CmtPsr) {
        // The §II-D attack: inject an arbitrary integer v' into the SUM.
        psr.ciphertext = psr
            .ciphertext
            .add_mod(&U256::from_u64(1_000_000), &self.modulus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sies_net::engine::{Attack, Engine};
    use sies_net::topology::Topology;
    use std::collections::HashSet;

    fn deployment(n: u64) -> CmtDeployment {
        let mut rng = StdRng::seed_from_u64(5);
        CmtDeployment::new(&mut rng, n)
    }

    #[test]
    fn exact_sum_recovered() {
        let dep = deployment(16);
        let psrs: Vec<CmtPsr> = (0..16)
            .map(|i| dep.source_init(i, 3, 100 + i as u64))
            .collect();
        let merged = dep.merge(&psrs);
        let contributors: Vec<SourceId> = (0..16).collect();
        let res = dep.evaluate(&merged, 3, &contributors).unwrap();
        let expected: u64 = (0..16).map(|i| 100 + i).sum();
        assert_eq!(res.sum, expected as f64);
        assert!(!res.integrity_checked);
    }

    #[test]
    fn ciphertext_hides_value() {
        let dep = deployment(2);
        let c = dep.source_init(0, 0, 42);
        // The ciphertext is the value plus a 160-bit pseudo-random pad; it
        // must not equal the raw value.
        assert_ne!(c.ciphertext().as_u64(), 42);
        // And must differ across epochs (fresh pads).
        assert_ne!(dep.source_init(0, 1, 42), c);
    }

    #[test]
    fn tamper_goes_undetected() {
        // The paper's §II-D attack: CMT accepts a shifted sum as correct.
        let dep = deployment(4);
        let topo = Topology::complete_tree(4, 2);
        let mut engine = Engine::new(&dep, &topo);
        let node = topo.source_node(1).unwrap();
        let out =
            engine.run_epoch_with(0, &[10; 4], &HashSet::new(), &[Attack::TamperAtNode(node)]);
        let res = out.result.unwrap();
        assert_eq!(
            res.sum,
            40.0 + 1_000_000.0,
            "tamper shifts the result silently"
        );
    }

    #[test]
    fn replay_goes_undetected_with_wrong_result() {
        let dep = deployment(4);
        let topo = Topology::complete_tree(4, 2);
        let mut engine = Engine::new(&dep, &topo);
        engine.run_epoch(0, &[5; 4]);
        let out = engine.run_epoch_with(1, &[50; 4], &HashSet::new(), &[Attack::ReplayFinal]);
        // Epoch-1 keys subtracted from epoch-0 ciphertext: garbage, and no
        // way to notice — just not the right answer.
        let res = out.result.unwrap();
        assert_ne!(res.sum, 200.0);
    }

    #[test]
    fn psr_is_20_bytes_on_every_edge() {
        let dep = deployment(8);
        let topo = Topology::complete_tree(8, 2);
        let mut engine = Engine::new(&dep, &topo);
        let out = engine.run_epoch(0, &[1; 8]);
        assert!((out.stats.bytes.per_sa_edge() - 20.0).abs() < 1e-9);
        assert!((out.stats.bytes.per_aa_edge() - 20.0).abs() < 1e-9);
        assert_eq!(out.stats.bytes.agg_to_querier, 20);
    }

    #[test]
    fn honest_failures_handled() {
        let dep = deployment(8);
        let topo = Topology::complete_tree(8, 2);
        let mut engine = Engine::new(&dep, &topo);
        let failed: HashSet<_> = [topo.source_node(0).unwrap()].into();
        let out = engine.run_epoch_with(0, &[9; 8], &failed, &[]);
        assert_eq!(out.result.unwrap().sum, 63.0);
    }

    #[test]
    fn batch_init_matches_scalar_and_flags_unknown_ids() {
        let dep = deployment(6);
        let jobs: Vec<(SourceId, u64)> = (0..6)
            .map(|i| (i, 10 + i as u64))
            .chain([(99, 1)])
            .collect();
        let batched = dep.batch_source_init(4, &jobs);
        assert_eq!(batched.len(), jobs.len());
        for (res, &(id, value)) in batched.iter().zip(&jobs) {
            if id < 6 {
                assert_eq!(*res.as_ref().unwrap(), dep.source_init(id, 4, value));
            } else {
                assert!(res.is_err(), "unknown source must error, not panic");
            }
        }
    }

    #[test]
    fn large_values_wrap_only_at_modulus() {
        let dep = deployment(2);
        let psrs = [
            dep.source_init(0, 0, u64::MAX),
            dep.source_init(1, 0, u64::MAX),
        ];
        let merged = dep.merge(&psrs);
        let res = dep.evaluate(&merged, 0, &[0, 1]).unwrap();
        // 2·(2^64−1) fits comfortably below 2^160.
        assert_eq!(res.sum, 2.0 * (u64::MAX as f64));
    }
}
