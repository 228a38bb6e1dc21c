//! High-level declarative query execution: compiles a [`Query`] into its
//! SUM sub-queries and runs each as a SIES round over the network,
//! returning the verified, finalized answer.
//!
//! Derived aggregates need up to three SUM instances per epoch (paper
//! §III-B: AVG = SUM/COUNT etc.). Each sub-query runs in its own
//! *sub-epoch* (`epoch · STRIDE + term`), which domain-separates the
//! per-epoch keys and shares between concurrent SUM instances — the same
//! freshness machinery, reused as instance separation.

use crate::deploy::SiesDeployment;
use crate::engine::{Attack, Engine, EpochStats};
use crate::journal::ReceiptJournal;
use crate::scheme::SchemeError;
use crate::topology::{NodeId, Topology};
use sies_core::query::{Query, QueryPlan, QueryResult, SensorReading};
use sies_core::Epoch;
use std::collections::HashSet;

/// Sub-epochs reserved per logical epoch (the widest plan uses 3).
pub const EPOCH_STRIDE: u64 = 8;

/// The outcome of one logical epoch of a query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The verified, finalized aggregate.
    pub result: QueryResult,
    /// Per-sub-query engine measurements.
    pub rounds: Vec<EpochStats>,
}

/// Executes declarative queries over a deployed SIES network.
pub struct QueryEngine<'a> {
    engine: Engine<'a, SiesDeployment>,
    plan: QueryPlan,
}

impl<'a> QueryEngine<'a> {
    /// Registers `query` over the deployment and topology (the paper's
    /// setup-phase query dissemination, minus the radio).
    pub fn new(deployment: &'a SiesDeployment, topology: &'a Topology, query: &Query) -> Self {
        QueryEngine {
            engine: Engine::new(deployment, topology),
            plan: query.plan(),
        }
    }

    /// The compiled plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Attaches a durable receipt journal to the underlying engine:
    /// every sub-query round commits one signed receipt, keyed by its
    /// sub-epoch (`epoch · STRIDE + term`), so a restarted querier can
    /// tell exactly which terms of which logical epoch were verified.
    pub fn attach_journal(&mut self, journal: ReceiptJournal) {
        self.engine.attach_journal(journal);
    }

    /// Detaches the journal, flushing and fsyncing it first. I/O errors
    /// from the final sync are returned; the journal is detached either
    /// way.
    pub fn finish_journal(&mut self) -> std::io::Result<Option<ReceiptJournal>> {
        match self.engine.take_journal() {
            Some(mut journal) => {
                journal.finish()?;
                Ok(Some(journal))
            }
            None => Ok(None),
        }
    }

    /// Runs one logical epoch: every source contributes its reading, the
    /// plan's sub-queries execute as separate SIES rounds, and the
    /// verified sub-sums are combined into the final answer.
    pub fn run_epoch(
        &mut self,
        epoch: Epoch,
        readings: &[SensorReading],
    ) -> Result<QueryOutcome, SchemeError> {
        self.run_epoch_with(epoch, readings, &HashSet::new(), &[])
    }

    /// [`Self::run_epoch`] with failure and attack injection, applied to
    /// every sub-query round.
    ///
    /// A wrong number of readings, or an epoch above
    /// `u64::MAX / EPOCH_STRIDE` (whose sub-epochs would wrap onto
    /// another epoch's keys), is `SchemeError::Malformed`, returned
    /// before any round runs.
    pub fn run_epoch_with(
        &mut self,
        epoch: Epoch,
        readings: &[SensorReading],
        failed: &HashSet<NodeId>,
        attacks: &[Attack],
    ) -> Result<QueryOutcome, SchemeError> {
        let sources = self.engine.topology().num_sources();
        if readings.len() as u64 != sources {
            return Err(SchemeError::Malformed(format!(
                "{} readings for {sources} sources",
                readings.len()
            )));
        }
        let first_sub_epoch = epoch.checked_mul(EPOCH_STRIDE).ok_or_else(|| {
            SchemeError::Malformed(format!("epoch {epoch}'s sub-epochs would wrap"))
        })?;
        let per_source: Vec<Vec<u64>> = readings
            .iter()
            .map(|r| self.plan.source_values(r))
            .collect();

        let mut sums = Vec::with_capacity(self.plan.terms().len());
        let mut rounds = Vec::with_capacity(self.plan.terms().len());
        for term_idx in 0..self.plan.terms().len() {
            let sub_epoch = first_sub_epoch + term_idx as u64;
            let values: Vec<u64> = per_source.iter().map(|v| v[term_idx]).collect();
            let out = self
                .engine
                .run_epoch_with(sub_epoch, &values, failed, attacks);
            let evaluated = out.result?;
            debug_assert!(evaluated.integrity_checked);
            sums.push(evaluated.sum as u64);
            rounds.push(out.stats);
        }
        let result = self
            .plan
            .finalize(&sums)
            .map_err(|e| SchemeError::Malformed(e.to_string()))?;
        Ok(QueryOutcome { result, rounds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sies_core::query::{Aggregate, Attribute, CmpOp, Predicate};
    use sies_core::{ResultWidth, SystemParams};
    use sies_crypto::DEFAULT_PRIME_256;

    fn fixture(n: u64) -> (SiesDeployment, Topology) {
        let mut rng = StdRng::seed_from_u64(42);
        let params = SystemParams::with_prime(n, DEFAULT_PRIME_256, ResultWidth::U64).unwrap();
        (
            SiesDeployment::new(&mut rng, params),
            Topology::complete_tree(n, 4),
        )
    }

    fn readings(n: u64) -> Vec<SensorReading> {
        (0..n)
            .map(|i| SensorReading::new(2000 + i * 10, 400 + i, 100, 2500))
            .collect()
    }

    #[test]
    fn sum_query_end_to_end() {
        let (dep, topo) = fixture(16);
        let q = Query::sum(Attribute::Temperature);
        let mut engine = QueryEngine::new(&dep, &topo, &q);
        let rs = readings(16);
        let expected: u64 = rs.iter().map(|r| r.get(Attribute::Temperature)).sum();
        let out = engine.run_epoch(0, &rs).unwrap();
        assert_eq!(out.result, QueryResult::Exact(expected));
        assert_eq!(out.rounds.len(), 1);
    }

    #[test]
    fn avg_query_uses_two_rounds() {
        let (dep, topo) = fixture(16);
        let q = Query {
            aggregate: Aggregate::Avg(Attribute::Temperature),
            predicate: Predicate::True,
            epoch_duration_ms: 1000,
        };
        let mut engine = QueryEngine::new(&dep, &topo, &q);
        let rs = readings(16);
        let out = engine.run_epoch(0, &rs).unwrap();
        let expected = rs
            .iter()
            .map(|r| r.get(Attribute::Temperature) as f64)
            .sum::<f64>()
            / 16.0;
        match out.result {
            QueryResult::Real(v) => assert!((v - expected).abs() < 1e-9),
            other => panic!("expected Real, got {other:?}"),
        }
        assert_eq!(out.rounds.len(), 2);
    }

    #[test]
    fn filtered_count_matches_predicate() {
        let (dep, topo) = fixture(16);
        let q = Query {
            aggregate: Aggregate::Count,
            predicate: Predicate::Cmp(Attribute::Temperature, CmpOp::Ge, 2100),
            epoch_duration_ms: 1000,
        };
        let mut engine = QueryEngine::new(&dep, &topo, &q);
        let rs = readings(16);
        let expected = rs
            .iter()
            .filter(|r| r.get(Attribute::Temperature) >= 2100)
            .count();
        let out = engine.run_epoch(3, &rs).unwrap();
        assert_eq!(out.result, QueryResult::Exact(expected as u64));
    }

    #[test]
    fn attacked_round_fails_the_whole_query() {
        let (dep, topo) = fixture(16);
        let q = Query {
            aggregate: Aggregate::Variance(Attribute::Temperature),
            predicate: Predicate::True,
            epoch_duration_ms: 1000,
        };
        let mut engine = QueryEngine::new(&dep, &topo, &q);
        let victim = topo.source_node(3).unwrap();
        let err = engine
            .run_epoch_with(
                0,
                &readings(16),
                &HashSet::new(),
                &[Attack::TamperAtNode(victim)],
            )
            .unwrap_err();
        assert!(matches!(err, SchemeError::VerificationFailed(_)));
    }

    #[test]
    fn consecutive_epochs_use_distinct_sub_epochs() {
        // Same readings, different epochs: ciphertext freshness must hold
        // across the stride mapping (no sub-epoch collision).
        let (dep, topo) = fixture(8);
        let q = Query {
            aggregate: Aggregate::StdDev(Attribute::Temperature),
            predicate: Predicate::True,
            epoch_duration_ms: 1000,
        };
        let mut engine = QueryEngine::new(&dep, &topo, &q);
        let rs = readings(8);
        let a = engine.run_epoch(0, &rs).unwrap();
        let b = engine.run_epoch(1, &rs).unwrap();
        assert_eq!(a.result, b.result, "same data, same answer");
        assert_eq!(a.rounds.len(), 3, "stddev needs 3 sub-queries");
    }

    #[test]
    fn journaled_query_run_replays_per_sub_epoch_receipts() {
        use crate::journal::{replay, JournalConfig, ReceiptJournal};
        use sies_receipts::Verdict;

        let path = std::env::temp_dir().join(format!(
            "sies-query-journal-{}-replays.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cfg = JournalConfig {
            session: 9,
            ..JournalConfig::default()
        };

        let (dep, topo) = fixture(8);
        let q = Query {
            aggregate: Aggregate::Avg(Attribute::Temperature),
            predicate: Predicate::True,
            epoch_duration_ms: 1000,
        };
        let mut engine = QueryEngine::new(&dep, &topo, &q);
        engine.attach_journal(ReceiptJournal::create(&path, &cfg).unwrap());
        let rs = readings(8);
        engine.run_epoch(0, &rs).unwrap();
        engine.run_epoch(1, &rs).unwrap();
        engine.finish_journal().unwrap();

        // AVG is 2 sub-queries per logical epoch: 4 receipts at the
        // stride-mapped sub-epochs, all verified.
        let state = replay(&path, &cfg).unwrap();
        let epochs: Vec<u64> = state.summary.receipts.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![0, 1, EPOCH_STRIDE, EPOCH_STRIDE + 1]);
        assert!(state
            .summary
            .receipts
            .iter()
            .all(|r| r.verdict == Verdict::Accepted && r.integrity_checked && r.session == 9));
        assert_eq!(state.next_epoch, EPOCH_STRIDE + 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn caller_input_errors_come_before_any_round() {
        let (dep, topo) = fixture(4);
        let ones = [SensorReading::new(1, 1, 1, 1); 4];
        let last = u64::MAX / EPOCH_STRIDE;
        for (aggregate, want) in [
            (
                Aggregate::Sum(Attribute::Temperature),
                QueryResult::Exact(4),
            ),
            (
                Aggregate::Avg(Attribute::Temperature),
                QueryResult::Real(1.0),
            ),
        ] {
            let q = Query {
                aggregate,
                predicate: Predicate::True,
                epoch_duration_ms: 1000,
            };
            let mut engine = QueryEngine::new(&dep, &topo, &q);
            let short = engine.run_epoch(0, &ones[..3]);
            assert!(matches!(short, Err(SchemeError::Malformed(_))), "{short:?}");
            let wraps = engine.run_epoch(last + 1, &ones);
            assert!(matches!(wraps, Err(SchemeError::Malformed(_))), "{wraps:?}");
            assert!(engine.engine.last_final_psr().is_none(), "a round ran");
            // The largest epoch whose sub-epochs all fit still verifies.
            assert_eq!(engine.run_epoch(last, &ones).unwrap().result, want);
        }
    }

    #[test]
    fn failures_propagate_to_derived_result() {
        let (dep, topo) = fixture(8);
        let q = Query {
            aggregate: Aggregate::Avg(Attribute::Temperature),
            predicate: Predicate::True,
            epoch_duration_ms: 1000,
        };
        let mut engine = QueryEngine::new(&dep, &topo, &q);
        let rs = readings(8);
        let failed: HashSet<NodeId> = [topo.source_node(0).unwrap()].into();
        let out = engine.run_epoch_with(0, &rs, &failed, &[]).unwrap();
        let expected = rs[1..]
            .iter()
            .map(|r| r.get(Attribute::Temperature) as f64)
            .sum::<f64>()
            / 7.0;
        match out.result {
            QueryResult::Real(v) => assert!((v - expected).abs() < 1e-9),
            other => panic!("expected Real, got {other:?}"),
        }
    }
}
