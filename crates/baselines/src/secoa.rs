//! SECOA (Nath, Yu, Chan — SIGMOD 2009), as described in paper §II-D:
//! integrity-protected in-network aggregation via one-way SEAL chains,
//! providing **approximate** SUM answers and no confidentiality.
//!
//! [`SecoaSum`] is SECOA_S: each source expands its value `v` into `v`
//! distinct items inserted into `J` FM sketches and runs the SECOA_M
//! MAX protocol per sketch — the sketch value, an HMAC *inflation
//! certificate* and a SEAL *deflation certificate*; aggregators keep the
//! max, roll the other SEALs up to it, and fold. The querier estimates
//! `SUM ≈ 2^x̄` over the `J` verified sketch maxima.
//!
//! ## Wire-format note (recorded in DESIGN.md)
//!
//! In-memory PSRs carry each sketch's winning certificate individually;
//! the *accounted* wire size follows the paper's cost model — `J` sketch
//! bytes + SEALs + a single 20-byte aggregate certificate (`S_inf`),
//! assuming the XOR aggregate-MAC optimization of Katz–Lindell the paper
//! cites. All measured quantities (bytes, CPU shapes) match Equations
//! 5, 8, 10 and 11.

use crate::seal::{seed_from_digest, seed_message, Seal};
use crate::sketch::FmSketch;
use rand::RngCore;
use sies_core::{Epoch, SourceId};
use sies_crypto::biguint::BigUint;
use sies_crypto::hmac::ct_eq;
use sies_crypto::prf::{self, KeyedPrf};
use sies_crypto::rsa::RsaPublicKey;
use sies_net::scheme::{AggregationScheme, EvaluatedSum, SchemeError};

/// Wire size of a sketch value (`S_sk`, Table II).
pub const SKETCH_BYTES: usize = 1;
/// Wire size of an inflation certificate (`S_inf`, Table II).
pub const INFLATION_CERT_BYTES: usize = 20;

/// The inflation-certificate message for sketch `j`, value `x`, epoch `t`.
fn cert_message(x: u8, sketch_idx: u32, epoch: Epoch) -> [u8; 13] {
    let mut msg = [0u8; 13];
    msg[0] = x;
    msg[1..5].copy_from_slice(&sketch_idx.to_be_bytes());
    msg[5..13].copy_from_slice(&epoch.to_be_bytes());
    msg
}

/// Per-sketch aggregation state: the current maximum, who owns it, and the
/// owner's inflation certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchSlot {
    /// The sketch value `x` (maximum rank so far).
    pub x: u8,
    /// The source owning the maximum.
    pub owner: SourceId,
    /// `HM1(K_owner, x ‖ j ‖ t)`.
    pub cert: [u8; 20],
}

/// SEAL payload: per-sketch chains, or same-position-folded chains after
/// the sink's pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealBundle {
    /// One SEAL per sketch, `seals[j].position == slots[j].x`.
    PerSketch(Vec<Seal>),
    /// Folded: one SEAL per distinct chain position.
    Folded(Vec<Seal>),
}

/// A SECOA_S partial state record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecoaPsr {
    /// The `J` sketch slots.
    pub slots: Vec<SketchSlot>,
    /// The deflation certificates.
    pub seals: SealBundle,
}

/// A deployed SECOA_S network.
pub struct SecoaSum {
    j: usize,
    rsa: RsaPublicKey,
    /// `K_i`: inflation-certificate keys shared source ↔ querier, HMAC
    /// pads pre-absorbed so every certificate costs two lane-batchable
    /// compressions.
    mac_prfs: Vec<KeyedPrf>,
    /// Seed keys for the SEAL chains, shared source ↔ querier (cached
    /// like the certificate keys).
    seed_prfs: Vec<KeyedPrf>,
}

impl SecoaSum {
    /// Sets up `num_sources` sources with `j` sketches and a fresh RSA
    /// modulus of `modulus_bits` (1024 in the paper; tests use smaller).
    pub fn new(rng: &mut dyn RngCore, num_sources: u64, j: usize, modulus_bits: usize) -> Self {
        let rsa = RsaPublicKey::generate(rng, modulus_bits);
        Self::with_rsa(rng, num_sources, j, rsa)
    }

    /// Sets up with an existing RSA public key (lets experiments reuse one
    /// expensive 1024-bit key generation).
    pub fn with_rsa(rng: &mut dyn RngCore, num_sources: u64, j: usize, rsa: RsaPublicKey) -> Self {
        assert!(j >= 1);
        let mut mac_prfs = Vec::with_capacity(num_sources as usize);
        let mut seed_prfs = Vec::with_capacity(num_sources as usize);
        for _ in 0..num_sources {
            let mut a = [0u8; 20];
            let mut b = [0u8; 20];
            rng.fill_bytes(&mut a);
            rng.fill_bytes(&mut b);
            mac_prfs.push(KeyedPrf::new(&a));
            seed_prfs.push(KeyedPrf::new(&b));
        }
        SecoaSum {
            j,
            rsa,
            mac_prfs,
            seed_prfs,
        }
    }

    /// Number of sketches `J`.
    pub fn num_sketches(&self) -> usize {
        self.j
    }

    /// The RSA public key.
    pub fn rsa(&self) -> &RsaPublicKey {
        &self.rsa
    }

    /// Builds a source's PSR from already-chosen sketch values (shared by
    /// the faithful and the sampled paths).
    fn psr_from_sketch_values(&self, source: SourceId, epoch: Epoch, xs: &[u8]) -> SecoaPsr {
        // All 2J certificate + seed HMACs for this source run through one
        // lane-batched pass under the cached key pads.
        let mac_prf = &self.mac_prfs[source as usize];
        let seed_prf = &self.seed_prfs[source as usize];
        let certs = prf::hm1_many(
            xs.iter()
                .enumerate()
                .map(|(jj, &x)| (mac_prf, cert_message(x, jj as u32, epoch))),
        );
        let seed_digests =
            prf::hm1_many((0..xs.len()).map(|jj| (seed_prf, seed_message(jj as u32, epoch))));
        let slots = xs
            .iter()
            .zip(certs)
            .map(|(&x, cert)| SketchSlot {
                x,
                owner: source,
                cert,
            })
            .collect();
        // All J ragged SEAL chains in one batch: bucketed by position,
        // rolled eight chains per IFMA chunk where the CPU has IFMA.
        let seed_items: Vec<(BigUint, u64)> = xs
            .iter()
            .zip(&seed_digests)
            .map(|(&x, digest)| (seed_from_digest(digest, &self.rsa), x as u64))
            .collect();
        let seals = Seal::new_many(&self.rsa, &seed_items);
        SecoaPsr {
            slots,
            seals: SealBundle::PerSketch(seals),
        }
    }

    /// Synthesizes the *final* PSR the querier would receive for a network
    /// whose contributing sources' values total `total_value`, without
    /// running every source and aggregator.
    ///
    /// Distribution-faithful: each sketch maximum is drawn from the exact
    /// distribution of the max rank over `total_value` distinct items
    /// (max over sources of per-source maxima ≡ max over the union of
    /// items), the owning source is sampled uniformly from the
    /// contributors, and the aggregate SEAL is `E^{x_j}` of the product of
    /// all contributors' seeds — exactly what honest merging produces.
    /// Used by the querier-cost experiments (Figure 6) where running
    /// `N·J·v` sketch insertions per epoch would dominate the harness
    /// without affecting what is measured.
    pub fn synthesize_final_psr(
        &self,
        rng: &mut dyn RngCore,
        epoch: Epoch,
        total_value: u64,
        contributors: &[SourceId],
    ) -> SecoaPsr {
        use rand::Rng as _;
        assert!(!contributors.is_empty());
        // Pass 1: sample the J sketch maxima and owners (rng order
        // unchanged), certificates per owner key.
        let mut slots = Vec::with_capacity(self.j);
        for jj in 0..self.j {
            let x = FmSketch::sample(rng, total_value).value();
            let owner = contributors[rng.random_range(0..contributors.len())];
            let cert = self.mac_prfs[owner as usize].hm1(&cert_message(x, jj as u32, epoch));
            slots.push(SketchSlot { x, owner, cert });
        }
        // Pass 2: each sketch's contributor seeds (one lane-batched HMAC
        // pass per sketch), then all J seed products through the batch
        // fold kernel and all J ragged SEAL chains in one batch.
        let seed_lists: Vec<Vec<BigUint>> = (0..self.j)
            .map(|jj| {
                let msg = seed_message(jj as u32, epoch);
                prf::hm1_many(
                    contributors
                        .iter()
                        .map(|&i| (&self.seed_prfs[i as usize], msg)),
                )
                .iter()
                .map(|digest| seed_from_digest(digest, &self.rsa))
                .collect()
            })
            .collect();
        let refs: Vec<&[BigUint]> = seed_lists.iter().map(|v| v.as_slice()).collect();
        let products = self.rsa.fold_product_many(&refs);
        let items: Vec<(BigUint, u64)> = products
            .into_iter()
            .zip(&slots)
            .map(|(product, slot)| (product, slot.x as u64))
            .collect();
        let seals = Seal::new_many(&self.rsa, &items);
        SecoaPsr {
            slots,
            seals: SealBundle::PerSketch(seals),
        }
    }

    /// Distribution-faithful fast path for huge `N`/`v` experiment setups:
    /// sketch values are sampled from the exact max-rank distribution
    /// instead of hashing `J·v` items (see [`FmSketch::sample`]).
    pub fn source_init_sampled(
        &self,
        rng: &mut dyn RngCore,
        source: SourceId,
        epoch: Epoch,
        value: u64,
    ) -> SecoaPsr {
        let xs: Vec<u8> = (0..self.j)
            .map(|_| FmSketch::sample(rng, value).value())
            .collect();
        self.psr_from_sketch_values(source, epoch, &xs)
    }
}

impl AggregationScheme for SecoaSum {
    type Psr = SecoaPsr;

    fn name(&self) -> &'static str {
        "SECOAS"
    }

    /// The faithful source path: `J·v` sketch insertions, `2J` HMACs
    /// (certificate + seed), `Σ x_j` RSA encryptions (Equation 2).
    fn source_init(&self, source: SourceId, epoch: Epoch, value: u64) -> SecoaPsr {
        let xs: Vec<u8> = (0..self.j)
            .map(|jj| {
                let mut sk = FmSketch::new();
                sk.insert_value(jj as u32, source, value);
                sk.value()
            })
            .collect();
        self.psr_from_sketch_values(source, epoch, &xs)
    }

    /// Per sketch: keep the max child, roll the others' SEALs to it, fold
    /// (`J·(F−1)` modular multiplications plus `Σ rl_i` RSA encryptions,
    /// Equation 5).
    fn merge(&self, psrs: &[SecoaPsr]) -> SecoaPsr {
        assert!(!psrs.is_empty());
        // Pass 1: pick each sketch's winner and collect every child
        // SEAL's (value, roll distance) into one ragged batch, so all
        // J·F rolls run as one batch instead of one by one.
        let mut winners = Vec::with_capacity(self.j);
        let mut items: Vec<(BigUint, u64)> = Vec::with_capacity(self.j * psrs.len());
        for jj in 0..self.j {
            let mut winner = 0usize;
            for (c, psr) in psrs.iter().enumerate() {
                if psr.slots[jj].x > psrs[winner].slots[jj].x {
                    winner = c;
                }
            }
            let target = psrs[winner].slots[jj].x as u64;
            for psr in psrs {
                let SealBundle::PerSketch(child_seals) = &psr.seals else {
                    panic!("merge expects unfolded PSRs");
                };
                let s = &child_seals[jj];
                assert!(
                    target >= s.position,
                    "cannot roll a SEAL backward ({} -> {target})",
                    s.position
                );
                items.push((s.value.clone(), target - s.position));
            }
            winners.push((winner, target));
        }
        let rolled = self.rsa.encrypt_repeated_ragged(&items);
        // Pass 2: fold the rolled SEALs per sketch, in child order.
        let mut slots = Vec::with_capacity(self.j);
        let mut seals = Vec::with_capacity(self.j);
        for (jj, &(winner, target)) in winners.iter().enumerate() {
            let row = &rolled[jj * psrs.len()..(jj + 1) * psrs.len()];
            let mut value = row[0].clone();
            for v in &row[1..] {
                value = self.rsa.fold(&value, v);
            }
            slots.push(psrs[winner].slots[jj].clone());
            seals.push(Seal {
                position: target,
                value,
            });
        }
        SecoaPsr {
            slots,
            seals: SealBundle::PerSketch(seals),
        }
    }

    /// The sink folds SEALs at the same chain position (paper §II-D),
    /// shrinking the aggregator→querier message from `J` SEALs to
    /// `seals ≤ J` distinct-position SEALs.
    fn sink_finalize(&self, psr: SecoaPsr) -> SecoaPsr {
        let SealBundle::PerSketch(seals) = psr.seals else {
            return psr; // already folded
        };
        let mut by_position: Vec<Seal> = Vec::new();
        for s in seals {
            match by_position.iter_mut().find(|f| f.position == s.position) {
                Some(f) => f.fold_with(&self.rsa, &s),
                None => by_position.push(s),
            }
        }
        by_position.sort_by_key(|s| s.position);
        SecoaPsr {
            slots: psr.slots,
            seals: SealBundle::Folded(by_position),
        }
    }

    /// Querier verification (Equation 8): checks every sketch's inflation
    /// certificate, then recreates the reference SEAL — `J·N` seed
    /// derivations, folding them all, rolling to `x_max` — and compares it
    /// against the collected SEALs rolled to `x_max` and folded.
    fn evaluate(
        &self,
        final_psr: &SecoaPsr,
        epoch: Epoch,
        contributors: &[SourceId],
    ) -> Result<EvaluatedSum, SchemeError> {
        if final_psr.slots.len() != self.j {
            return Err(SchemeError::Malformed(format!(
                "expected {} sketch slots, got {}",
                self.j,
                final_psr.slots.len()
            )));
        }
        let contributor_set: std::collections::HashSet<SourceId> =
            contributors.iter().copied().collect();

        // 1. Inflation certificates: validate ownership slot-by-slot,
        // then recompute all J expected certificates in one lane-batched
        // pass under the cached owner keys.
        for (jj, slot) in final_psr.slots.iter().enumerate() {
            if !contributor_set.contains(&slot.owner) {
                return Err(SchemeError::VerificationFailed(format!(
                    "sketch {jj} claims non-contributing owner {}",
                    slot.owner
                )));
            }
        }
        let expected_certs = prf::hm1_many(final_psr.slots.iter().enumerate().map(|(jj, slot)| {
            (
                &self.mac_prfs[slot.owner as usize],
                cert_message(slot.x, jj as u32, epoch),
            )
        }));
        for (jj, (slot, expected)) in final_psr.slots.iter().zip(&expected_certs).enumerate() {
            if !ct_eq(expected, &slot.cert) {
                return Err(SchemeError::VerificationFailed(format!(
                    "inflation certificate mismatch on sketch {jj}"
                )));
            }
        }

        let x_max = final_psr.slots.iter().map(|s| s.x).max().unwrap_or(0) as u64;

        // 2. Collected SEALs → one value at x_max.
        let collected = {
            let seals: Vec<Seal> = match &final_psr.seals {
                SealBundle::PerSketch(v) => {
                    // Consistency: SEAL positions must match the claimed
                    // sketch values.
                    for (jj, s) in v.iter().enumerate() {
                        if s.position != final_psr.slots[jj].x as u64 {
                            return Err(SchemeError::VerificationFailed(format!(
                                "SEAL position {} disagrees with sketch value {} (sketch {jj})",
                                s.position, final_psr.slots[jj].x
                            )));
                        }
                    }
                    v.clone()
                }
                SealBundle::Folded(v) => {
                    // Folded positions must cover exactly the multiset of
                    // claimed sketch values' distinct positions.
                    let mut claimed: Vec<u64> =
                        final_psr.slots.iter().map(|s| s.x as u64).collect();
                    claimed.sort_unstable();
                    claimed.dedup();
                    let mut got: Vec<u64> = v.iter().map(|s| s.position).collect();
                    got.sort_unstable();
                    if claimed != got {
                        return Err(SchemeError::VerificationFailed(
                            "folded SEAL positions disagree with sketch values".into(),
                        ));
                    }
                    v.clone()
                }
            };
            let mut acc: Option<Seal> = None;
            for mut s in seals {
                if s.position > x_max {
                    return Err(SchemeError::VerificationFailed(
                        "SEAL beyond the maximal sketch value".into(),
                    ));
                }
                s.roll_to(&self.rsa, x_max);
                match &mut acc {
                    None => acc = Some(s),
                    Some(a) => a.fold_with(&self.rsa, &s),
                }
            }
            acc.ok_or_else(|| SchemeError::Malformed("no SEALs collected".into()))?
        };

        // 3. Reference SEAL from all contributors' seeds. For folded
        // bundles, each distinct position contributed one SEAL per sketch
        // at that position, so the reference is the product over all
        // (contributor, sketch) seeds — identical in both representations.
        // The N·J-element product is split into eight partial products
        // (one IFMA chunk where the CPU has IFMA) through the key's shared
        // Montgomery context (one division-free multiply per seed) instead
        // of N·J generic mul-then-divide steps.
        if self.rsa.mont_ctx().is_none() {
            return Err(SchemeError::Malformed("degenerate RSA modulus".into()));
        }
        let mut prfs = Vec::with_capacity(contributors.len());
        for &i in contributors {
            match self.seed_prfs.get(i as usize) {
                Some(p) => prfs.push(p),
                None => return Err(SchemeError::Malformed(format!("unknown source {i}"))),
            }
        }
        // The dominant N·J seed-digest derivation runs as one lane-batched
        // HMAC pass; each digest is then expanded and folded in.
        let digests = prf::hm1_many(
            prfs.iter()
                .flat_map(|&p| (0..self.j).map(move |jj| (p, seed_message(jj as u32, epoch)))),
        );
        let seeds: Vec<BigUint> = digests
            .iter()
            .map(|digest| seed_from_digest(digest, &self.rsa))
            .collect();
        let reference = Seal::new(&self.rsa, &self.rsa.fold_product_wide(&seeds), x_max);
        if reference.value != collected.value {
            return Err(SchemeError::VerificationFailed(
                "aggregate SEAL mismatch (deflation or tampering)".into(),
            ));
        }

        // 4. Estimate SUM ≈ 2^x̄ (with the FM correction).
        let est = FmSketch::estimate(final_psr.slots.iter().map(|s| s.x));
        Ok(EvaluatedSum {
            sum: est,
            integrity_checked: true,
        })
    }

    /// Paper-accounted wire size: `J·S_sk + seals·S_SEAL + S_inf`
    /// (Equations 10 and 11).
    fn psr_wire_size(&self, psr: &SecoaPsr) -> usize {
        let seal_count = match &psr.seals {
            SealBundle::PerSketch(v) => v.len(),
            SealBundle::Folded(v) => v.len(),
        };
        self.j * SKETCH_BYTES + seal_count * Seal::wire_size(&self.rsa) + INFLATION_CERT_BYTES
    }

    /// Inflation attempt: bump one sketch value without the owner's key.
    /// The bump is large enough to beat the network-wide maximum — a
    /// smaller inflation would be absorbed by some other child's larger
    /// value and leave the result untouched. (The certificate check
    /// catches it; deflation is impossible because the chain cannot be
    /// rolled backward.)
    fn tamper(&self, psr: &mut SecoaPsr) {
        if let Some(slot) = psr.slots.first_mut() {
            // Inflate to the maximum rank so the forged slot wins the
            // max-fold at every merge up to the root; a small additive
            // bump can be absorbed by a sibling subtree with a larger
            // honest rank, leaving the final aggregate untouched.
            if slot.x == crate::sketch::MAX_RANK {
                // Already saturated (vanishingly unlikely): forge the
                // inflation certificate instead so the PSR still mutates.
                slot.cert[0] ^= 0xA5;
            } else {
                slot.x = crate::sketch::MAX_RANK;
            }
        }
        // Keep the SEAL consistent with the inflated claim — rolling
        // forward is something any adversary can do.
        if let SealBundle::PerSketch(seals) = &mut psr.seals {
            if let Some(s) = seals.first_mut() {
                let target = psr.slots[0].x as u64;
                if s.position < target {
                    s.roll_to(&self.rsa, target);
                }
            }
        }
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

    /// Small-modulus deployment for fast tests.
    fn deployment(n: u64, j: usize) -> SecoaSum {
        let mut rng = StdRng::seed_from_u64(31);
        SecoaSum::new(&mut rng, n, j, 128)
    }

    #[test]
    fn clean_run_verifies_and_estimates() {
        let dep = deployment(8, 64);
        let topo = Topology::complete_tree(8, 2);
        let mut engine = Engine::new(&dep, &topo);
        let values = [500u64; 8]; // true SUM = 4000
        let out = engine.run_epoch(0, &values);
        let res = out.result.expect("clean run must verify");
        assert!(res.integrity_checked);
        let rel = (res.sum - 4000.0).abs() / 4000.0;
        assert!(rel < 0.6, "estimate {} too far from 4000", res.sum);
    }

    #[test]
    fn estimate_is_approximate_not_exact() {
        // The defining weakness vs SIES: answers are estimates.
        let dep = deployment(4, 32);
        let psrs: Vec<_> = (0..4).map(|i| dep.source_init(i, 0, 1000)).collect();
        let merged = dep.merge(&psrs);
        let finalized = dep.sink_finalize(merged);
        let res = dep.evaluate(&finalized, 0, &[0, 1, 2, 3]).unwrap();
        assert_ne!(res.sum, 4000.0);
    }

    #[test]
    fn inflation_attack_detected() {
        let dep = deployment(4, 8);
        let topo = Topology::complete_tree(4, 2);
        let node = topo.source_node(2).unwrap();
        let mut engine = Engine::new(&dep, &topo);
        let out =
            engine.run_epoch_with(0, &[300; 4], &HashSet::new(), &[Attack::TamperAtNode(node)]);
        assert!(matches!(
            out.result,
            Err(SchemeError::VerificationFailed(_))
        ));
    }

    #[test]
    fn dropped_contribution_detected_via_seal() {
        let dep = deployment(4, 8);
        let topo = Topology::complete_tree(4, 2);
        let node = topo.source_node(1).unwrap();
        let mut engine = Engine::new(&dep, &topo);
        let out = engine.run_epoch_with(0, &[300; 4], &HashSet::new(), &[Attack::DropAtNode(node)]);
        assert!(matches!(
            out.result,
            Err(SchemeError::VerificationFailed(_))
        ));
    }

    #[test]
    fn deflation_with_forged_certificate_detected() {
        // Lower sketch 0's maximum to the other source's honest value and
        // present that source's valid certificate for it (as if its key
        // leaked): a SEAL rolls forward but never back, so the collected
        // SEAL no longer matches the querier's reference.
        let dep = deployment(2, 4);
        let psrs = [
            dep.psr_from_sketch_values(0, 0, &[3; 4]),
            dep.psr_from_sketch_values(1, 0, &[7; 4]),
        ];
        let mut forged = dep.merge(&psrs);
        assert_eq!((forged.slots[0].x, forged.slots[0].owner), (7, 1));
        forged.slots[0] = psrs[0].slots[0].clone();
        if let SealBundle::PerSketch(seals) = &mut forged.seals {
            seals[0].position = 3;
        }
        let forged = dep.sink_finalize(forged);
        assert!(matches!(
            dep.evaluate(&forged, 0, &[0, 1]),
            Err(SchemeError::VerificationFailed(_))
        ));
    }

    #[test]
    fn replay_detected_via_epoch_keys() {
        let dep = deployment(4, 8);
        let topo = Topology::complete_tree(4, 2);
        let mut engine = Engine::new(&dep, &topo);
        assert!(engine.run_epoch(0, &[100; 4]).result.is_ok());
        let out = engine.run_epoch_with(1, &[100; 4], &HashSet::new(), &[Attack::ReplayFinal]);
        assert!(matches!(
            out.result,
            Err(SchemeError::VerificationFailed(_))
        ));
    }

    #[test]
    fn honest_failure_handled() {
        let dep = deployment(8, 8);
        let topo = Topology::complete_tree(8, 2);
        let mut engine = Engine::new(&dep, &topo);
        let failed: HashSet<_> = [topo.source_node(3).unwrap()].into();
        let out = engine.run_epoch_with(0, &[200; 8], &failed, &[]);
        assert!(out.result.is_ok(), "honest failure must still verify");
    }

    #[test]
    fn sink_folding_reduces_seal_count_and_still_verifies() {
        let dep = deployment(8, 64);
        let psrs: Vec<_> = (0..8).map(|i| dep.source_init(i, 2, 2000)).collect();
        let merged = dep.merge(&psrs);
        let pre = dep.psr_wire_size(&merged);
        let finalized = dep.sink_finalize(merged);
        let post = dep.psr_wire_size(&finalized);
        assert!(
            post < pre,
            "folding must shrink the A→Q message ({pre} -> {post})"
        );
        assert!(dep
            .evaluate(&finalized, 2, &(0..8).collect::<Vec<_>>())
            .is_ok());
    }

    #[test]
    fn wire_size_matches_cost_model() {
        // S-A edge: J·S_sk + J·S_SEAL + S_inf with a 16-byte test modulus.
        let dep = deployment(2, 10);
        let psr = dep.source_init(0, 0, 100);
        let expected = 10 * SKETCH_BYTES + 10 * 16 + INFLATION_CERT_BYTES;
        assert_eq!(dep.psr_wire_size(&psr), expected);
    }

    #[test]
    fn sampled_sources_verify_like_hashed_sources() {
        let dep = deployment(4, 16);
        let mut rng = StdRng::seed_from_u64(8);
        let psrs: Vec<_> = (0..4)
            .map(|i| dep.source_init_sampled(&mut rng, i, 5, 3000))
            .collect();
        let merged = dep.merge(&psrs);
        let finalized = dep.sink_finalize(merged);
        assert!(dep.evaluate(&finalized, 5, &[0, 1, 2, 3]).is_ok());
    }

    #[test]
    fn synthesized_final_psr_verifies() {
        let dep = deployment(8, 16);
        let mut rng = StdRng::seed_from_u64(99);
        let contributors: Vec<SourceId> = (0..8).collect();
        let psr = dep.synthesize_final_psr(&mut rng, 3, 8 * 2500, &contributors);
        let finalized = dep.sink_finalize(psr);
        let res = dep.evaluate(&finalized, 3, &contributors).unwrap();
        assert!(res.integrity_checked);
        let rel = (res.sum - 20_000.0).abs() / 20_000.0;
        assert!(rel < 1.0, "estimate {} wildly off", res.sum);
    }
}
