//! The adapter between the benchmark and the system under test.
//!
//! Every call into the `sies-*` crates goes through this file, so a change
//! to the executor API needs a follow-up here and nowhere else. The rest
//! of the benchmark sees plain values: readings in, sums, PSR bytes and
//! receipts out.

use crate::procfs;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sies_core::{SystemParams, Threads};
use sies_crypto::hash::HashFunction;
use sies_crypto::prf::{self, KeyedPrf};
use sies_crypto::sha256::Sha256;
use sies_crypto::u256::U256;
use sies_net::engine::Attack;
use sies_net::journal::{self, JournalConfig, ReceiptJournal};
use sies_net::pipeline::EpochPipeline;
use sies_net::radio::LossyRadio;
use sies_net::recovery::RecoveryConfig;
use sies_net::{
    AggregationScheme, ChaosMetrics, Engine, EvaluatedSum, FlatTopology, PrewarmPolicy,
    RecoveredEpoch, SiesDeployment, Topology,
};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// A signed epoch receipt as the querier journals it.
pub type Receipt = journal::Receipt;
pub use sies_receipts::Verdict;

/// Fanout of the complete aggregation tree every workload runs on.
pub const FANOUT: usize = 4;

/// A partial state record, as its 32 wire bytes.
pub type PsrBytes = [u8; 32];

/// Why an epoch produced no accepted sum.
pub type EpochError = String;

/// A querier result: the exact sum and whether it was verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sum {
    /// The sum the querier decrypted.
    pub value: u64,
    /// Whether integrity and freshness were checked.
    pub verified: bool,
}

impl From<EvaluatedSum> for Sum {
    fn from(s: EvaluatedSum) -> Sum {
        Sum {
            value: s.sum as u64,
            verified: s.integrity_checked,
        }
    }
}

/// Wall time and resident-memory growth of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// Key generation for all sources and the querier, s.
    pub keygen_s: f64,
    /// Complete tree plus its struct-of-arrays arena, s.
    pub tree_s: f64,
    /// Resident-set growth across key generation, bytes.
    pub keys_rss: i64,
    /// Resident-set growth across the tree and arena build, bytes.
    pub tree_rss: i64,
}

impl SetupCost {
    /// The whole set-up, s.
    pub fn total_s(&self) -> f64 {
        self.keygen_s + self.tree_s
    }
}

fn rss() -> i64 {
    procfs::rss_bytes().map_or(0, |b| b as i64)
}

/// One deployed SIES system: keys, tree and arena.
pub struct System {
    dep: SiesDeployment,
    topo: Topology,
    flat: FlatTopology,
    contributors: Vec<u32>,
}

impl System {
    /// Generates keys for `n` sources from `seed` and builds the
    /// fanout-4 tree over them.
    pub fn setup(seed: u64, n: u64) -> Result<(System, SetupCost), String> {
        let params = SystemParams::new(n).map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x005E_ED0F_4E15);
        let rss0 = rss();
        let t0 = Instant::now();
        let dep = SiesDeployment::new(&mut rng, params);
        let keygen_s = t0.elapsed().as_secs_f64();
        let rss1 = rss();
        let t1 = Instant::now();
        let topo = Topology::complete_tree(n, FANOUT);
        let flat = FlatTopology::from_topology(&topo);
        let cost = SetupCost {
            keygen_s,
            tree_s: t1.elapsed().as_secs_f64(),
            keys_rss: rss1 - rss0,
            tree_rss: rss() - rss1,
        };
        let contributors = (0..n as u32).collect();
        let sys = System {
            dep,
            topo,
            flat,
            contributors,
        };
        Ok((sys, cost))
    }

    /// Number of sources.
    pub fn num_sources(&self) -> u64 {
        self.flat.num_sources()
    }

    /// Number of tree nodes (sources and aggregators).
    pub fn num_nodes(&self) -> usize {
        self.flat.num_nodes()
    }

    /// Heap bytes of the struct-of-arrays arena.
    pub fn arena_bytes(&self) -> usize {
        self.flat.bytes()
    }

    /// Turns the precompute-ahead key pool on (default policy) or off.
    pub fn set_prewarm(&self, on: bool) {
        self.dep.set_prewarm_policy(if on {
            PrewarmPolicy::default()
        } else {
            PrewarmPolicy::disabled()
        });
    }

    /// Pool lookups served from precomputed material, and all lookups.
    pub fn prewarm_hits(&self) -> (u64, u64) {
        let s = self.dep.prewarm_stats();
        (s.hits, s.hits + s.misses)
    }

    /// Derives and pools `epoch`'s key material; false when the pool
    /// is off or already holds it.
    pub fn prewarm_derive(&self, epoch: u64) -> bool {
        self.dep.prewarm_derive(epoch)
    }

    /// The `(source, reading)` jobs of one epoch in the arena's
    /// post-order, the order the executors initialise sources in.
    pub fn source_jobs(&self, values: &[u64], jobs: &mut Vec<(u32, u64)>) {
        jobs.clear();
        for &id in self.flat.post_order() {
            if let Some(sid) = self.flat.source_id(id as usize) {
                jobs.push((sid, values[sid as usize]));
            }
        }
    }

    /// Source initialisation of one chunk of jobs.
    pub fn batch_source_init(
        &self,
        epoch: u64,
        jobs: &[(u32, u64)],
    ) -> Result<Vec<sies_core::Psr>, EpochError> {
        self.dep
            .batch_source_init(epoch, jobs)
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect()
    }

    /// Merges source PSRs (aligned with [`System::source_jobs`]) up the
    /// tree in post-order, as every aggregator would. Returns the sink's
    /// PSR and the number of merges.
    pub fn merge_tree(
        &self,
        inits: &[sies_core::Psr],
    ) -> Result<(sies_core::Psr, u64), EpochError> {
        let mut stack: Vec<sies_core::Psr> = Vec::new();
        let mut next = inits.iter();
        let mut merges = 0u64;
        for &id in self.flat.post_order() {
            let id = id as usize;
            if self.flat.is_source(id) {
                stack.push(*next.next().ok_or("fewer PSRs than sources")?);
                continue;
            }
            let base = stack
                .len()
                .checked_sub(self.flat.children(id).len())
                .ok_or("merge stack underflow")?;
            // Post-order leaves children on the stack last-child-first;
            // the aggregator merges them in child order.
            stack[base..].reverse();
            let merged = self
                .dep
                .try_merge(&stack[base..])
                .map_err(|e| e.to_string())?;
            merges += 1;
            stack.truncate(base);
            stack.push(merged);
        }
        match stack.as_slice() {
            [root] => Ok((*root, merges)),
            _ => Err(format!("{} PSRs left after the walk", stack.len())),
        }
    }

    /// The querier's evaluation over every source.
    pub fn evaluate(
        &self,
        psr: &sies_core::Psr,
        epoch: u64,
        threads: usize,
    ) -> Result<Sum, EpochError> {
        self.dep
            .evaluate_par(psr, epoch, &self.contributors, threads)
            .map(Sum::from)
            .map_err(|e| e.to_string())
    }
}

/// Wire bytes of a PSR.
pub fn psr_bytes(psr: &sies_core::Psr) -> PsrBytes {
    psr.to_bytes()
}

/// The clean-path executor: [`EpochPipeline`] with streaming off.
pub struct Pipeline<'a> {
    inner: EpochPipeline<'a, SiesDeployment>,
}

impl<'a> Pipeline<'a> {
    /// A pipeline over `sys` with `threads` workers.
    pub fn new(sys: &'a System, threads: usize) -> Self {
        Pipeline {
            inner: EpochPipeline::new(&sys.dep, &sys.flat, Threads::fixed(threads), false),
        }
    }

    /// Runs `epochs` epochs from `first`. `fill(epoch, readings)` writes
    /// the readings; `done(epoch, result, final_psr)` sees each outcome.
    pub fn run<F, G>(&mut self, first: u64, epochs: u64, fill: F, mut done: G)
    where
        F: FnMut(u64, &mut [u64]),
        G: FnMut(u64, Result<Sum, EpochError>, Option<PsrBytes>),
    {
        self.inner
            .run(first, epochs, fill, |report, final_psr, result, _| {
                let sum = match result {
                    Ok(s) => Ok(Sum::from(*s)),
                    Err(e) => Err(e.to_string()),
                };
                done(report.epoch, sum, final_psr.map(psr_bytes))
            });
    }

    /// The final PSR of the last epoch
    /// ([`EpochPipeline::last_final_psr`]).
    pub fn last_final_psr(&self) -> Option<PsrBytes> {
        self.inner.last_final_psr().map(psr_bytes)
    }

    /// Heap bytes of the pipeline's reusable epoch state.
    pub fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }
}

/// A covert attack the chaos workload injects at one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Add one to a node's ciphertext.
    Tamper,
    /// Drop a node's PSR while reporting it.
    Drop,
    /// Merge a node's PSR twice.
    Duplicate,
    /// Replay the previous epoch's final PSR.
    Replay,
}

/// The faults of one chaos epoch, as node indices of the tree.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    /// Nodes down for the epoch.
    pub crashed: Vec<usize>,
    /// The attack and its target node (ignored for replay).
    pub attack: Option<(AttackKind, usize)>,
}

/// The fault-path executor: [`Engine::run_epoch_recovering`] over a
/// lossy radio with the default recovery protocol.
pub struct ChaosNet<'a> {
    engine: Engine<'a, SiesDeployment>,
    radio: LossyRadio,
    recovery: RecoveryConfig,
    candidates: Vec<usize>,
}

impl<'a> ChaosNet<'a> {
    /// An engine over `sys` with per-frame `loss` and `retries`
    /// link-layer retransmissions.
    pub fn new(sys: &'a System, loss: f64, retries: u32) -> Self {
        let engine = Engine::new(&sys.dep, &sys.topo).with_threads(Threads::serial());
        let root = sys.flat.root();
        ChaosNet {
            engine,
            radio: LossyRadio::new(loss, retries),
            recovery: RecoveryConfig::default(),
            candidates: (0..sys.flat.num_nodes()).filter(|&id| id != root).collect(),
        }
    }

    /// Nodes that may crash or be attacked: all but the sink.
    pub fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// Runs one epoch under the recovery protocol. `rng` drives frame
    /// loss.
    pub fn run(
        &mut self,
        epoch: u64,
        values: &[u64],
        faults: &Faults,
        rng: &mut StdRng,
    ) -> Recovered {
        let crashed: HashSet<usize> = faults.crashed.iter().copied().collect();
        let attacks: Vec<Attack> = faults
            .attack
            .iter()
            .map(|&(kind, node)| match kind {
                AttackKind::Tamper => Attack::TamperAtNode(node),
                AttackKind::Drop => Attack::DropAtNode(node),
                AttackKind::Duplicate => Attack::DuplicateAtNode(node),
                AttackKind::Replay => Attack::ReplayFinal,
            })
            .collect();
        let run = self.engine.run_epoch_recovering(
            epoch,
            values,
            &crashed,
            &attacks,
            &self.radio,
            &self.recovery,
            rng,
        );
        Recovered {
            inner: run,
            crashed: !crashed.is_empty(),
            attacked: !attacks.is_empty(),
        }
    }

    /// The final PSR the querier saw last.
    pub fn last_final_psr(&self) -> Option<PsrBytes> {
        self.engine.last_final_psr().map(psr_bytes)
    }
}

/// One epoch's outcome under the recovery protocol.
pub struct Recovered {
    inner: RecoveredEpoch,
    crashed: bool,
    attacked: bool,
}

impl Recovered {
    /// The epoch's journal receipt ([`RecoveredEpoch::receipt`]).
    pub fn receipt(&self, epoch: u64, values: &[u64]) -> Receipt {
        self.inner
            .receipt(epoch, values, self.crashed, self.attacked)
    }
}

/// Chaos outcome counters, folded from receipts by the system's own
/// classification ([`sies_net::absorb`]).
pub type Tally = ChaosMetrics;

/// Folds one receipt into `tally`.
pub fn classify(tally: &mut Tally, r: &Receipt) {
    sies_net::absorb(tally, r);
}

/// The running result digest over receipts ([`journal::fold_receipt`]).
#[derive(Clone)]
pub struct Digest(Sha256);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(Sha256::new())
    }

    /// Folds one receipt in.
    pub fn fold(&mut self, r: &Receipt) {
        journal::fold_receipt(&mut self.0, r);
    }

    /// Hex of the digest so far.
    pub fn hex(&self) -> String {
        self.0
            .clone()
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

/// What a replay of the journal rebuilt.
pub struct Replayed {
    /// Every intact receipt, in order.
    pub receipts: Vec<Receipt>,
    /// The digest over them.
    pub digest: Digest,
}

/// The querier's signed receipt journal, default configuration (fsync
/// every epoch).
pub struct Journal {
    inner: ReceiptJournal,
}

impl Journal {
    /// Creates (truncating) the journal at `path`.
    pub fn create(path: &Path) -> Result<Journal, String> {
        ReceiptJournal::create(path, &JournalConfig::default())
            .map(|inner| Journal { inner })
            .map_err(|e| format!("journal create: {e}"))
    }

    /// Re-opens the journal after a querier kill.
    pub fn resume(path: &Path) -> Result<(Journal, Replayed), String> {
        let (inner, state) = ReceiptJournal::resume(path, &JournalConfig::default())
            .map_err(|e| format!("journal resume: {e}"))?;
        let replayed = Replayed {
            receipts: state.summary.receipts,
            digest: Digest(state.digest),
        };
        Ok((Journal { inner }, replayed))
    }

    /// Stamps, signs and durably appends one receipt.
    pub fn record(&mut self, r: &mut Receipt) {
        self.inner.record(r);
    }

    /// Final sync.
    pub fn finish(mut self) -> Result<(), String> {
        self.inner
            .finish()
            .map_err(|e| format!("journal finish: {e}"))
    }
}

/// Cold replay of a closed journal.
pub fn replay(path: &Path) -> Result<Replayed, String> {
    let state = journal::replay(path, &JournalConfig::default())
        .map_err(|e| format!("journal replay: {e}"))?;
    Ok(Replayed {
        receipts: state.summary.receipts,
        digest: Digest(state.digest),
    })
}

/// `n` keyed PRFs under keys drawn from `seed`: the per-source PRF work
/// of one epoch, without the scheme around it.
pub struct PrfFloor {
    prfs: Vec<KeyedPrf>,
    prime: U256,
}

impl PrfFloor {
    /// Builds the keys.
    pub fn new(seed: u64, n: u64, sys: &System) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0F1_00E);
        let prfs = (0..n)
            .map(|_| {
                let mut key = [0u8; 20];
                rng.fill_bytes(&mut key);
                KeyedPrf::new(&key)
            })
            .collect();
        PrfFloor {
            prfs,
            prime: *sys.dep.querier().params().prime(),
        }
    }

    /// Both PRF sweeps one source does per epoch (`k_{i,t}` and
    /// `ss_{i,t}`) over every key; returns a checksum so the work is
    /// not optimised away.
    pub fn sweep(&self, epoch: u64) -> u64 {
        let keys = prf::derive_mod_p_many(&self.prfs, epoch, &self.prime);
        let shares = prf::hm1_epoch_many(&self.prfs, epoch);
        keys.len() as u64 ^ u64::from(shares.last().map_or(0, |s| s[0]))
    }
}

/// Turns the system's telemetry record sites on or off.
pub fn set_telemetry(on: bool) {
    sies_telemetry::set_enabled(on);
}

/// The hash-lane width the crypto kernels run at on this host.
pub fn effective_lane_width() -> usize {
    sies_crypto::lanes::effective_lane_width()
}
