//! The epoch-driven aggregation engine: plays every role in-process,
//! with timing, byte and energy accounting plus failure and attack
//! injection.
//!
//! An [`Engine`] borrows the caller's [`Topology`] arena and holds no
//! tree of its own. It is the one epoch executor: every kind of epoch
//! runs through the same sharded post-order walk (`crate::pipeline`).
//!
//! * [`Engine::run_epochs`] runs consecutive clean epochs, with the
//!   precompute-ahead warmer beside them when the scheme opts in. It
//!   keeps no stats, journal or events, so a warm serial run allocates
//!   nothing.
//! * [`Engine::run_epoch_with`] runs one epoch with honest failures,
//!   covert attacks and a receipt journal. Failures and attacks are
//!   translated to post-order positions once per epoch, so they change
//!   only which PSRs reach a merge, never how a merge works.
//! * [`Engine::run_epoch_recovering`] runs the walk under the recovery
//!   protocol: one draw from the caller's RNG keys a random stream per
//!   uplink, so its outcomes, like a clean epoch's, are the same at
//!   every thread count.
//!
//! The single-epoch runners' stats come from plain per-epoch counters;
//! when telemetry is on they are added to the global registry once per
//! epoch under the [`metric`] names.

use crate::energy::RadioModel;
use crate::journal::ReceiptJournal;
use crate::pipeline::{
    cut, is_cut, plan_shards, with_warmer, Exec, Mark, Marked, Shard, Uplinks, WalkBuf,
};
use crate::radio::LossyRadio;
use crate::recovery::{
    RecoveryConfig, RecoveryReport, ACK_BYTES, FAILURE_REPORT_BYTES, REATTACH_BYTES,
};
use crate::scheme::{AggregationScheme, EvaluatedSum, SchemeError};
use crate::topology::{NodeId, RepairPlan, Topology};
use rand::RngCore;
use serde::{Content, Serialize};
use sies_core::{Epoch, SourceId, Threads};
use sies_receipts::{EpochReceipt, Verdict as ReceiptVerdict};
use sies_telemetry as tel;
use sies_telemetry::EventKind;
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::time::Duration;

/// An adversarial action injected into one epoch. All attacks are *covert*:
/// contributor reporting is unchanged, so an honest querier cannot tell a
/// priori that anything happened — detection must come from the scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Modify the PSR leaving `node` (scheme-specific tamper).
    TamperAtNode(NodeId),
    /// Silently discard the PSR leaving `node`.
    DropAtNode(NodeId),
    /// Deliver the PSR leaving `node` twice to its parent.
    DuplicateAtNode(NodeId),
    /// Replace the final PSR with the previous epoch's final PSR (replay).
    ReplayFinal,
}

/// Per-edge-class byte totals for one epoch (paper Table V's three rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeBytes {
    /// Total bytes on source→aggregator edges.
    pub source_to_agg: u64,
    /// Number of source→aggregator transmissions.
    pub source_to_agg_edges: u64,
    /// Total bytes on aggregator→aggregator edges.
    pub agg_to_agg: u64,
    /// Number of aggregator→aggregator transmissions.
    pub agg_to_agg_edges: u64,
    /// Bytes on the single aggregator→querier edge.
    pub agg_to_querier: u64,
    /// Extra data bytes spent on retransmissions (recovery protocol).
    /// The three per-class totals above count first copies only, so they
    /// stay comparable to the paper's Table V.
    pub retransmit: u64,
    /// Control-plane bytes: ACK/NACK, re-solicitation, re-attach
    /// handshakes, and failure reports (recovery protocol).
    pub control: u64,
}

impl Serialize for EdgeBytes {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("source_to_agg".into(), Content::U64(self.source_to_agg)),
            (
                "source_to_agg_edges".into(),
                Content::U64(self.source_to_agg_edges),
            ),
            ("agg_to_agg".into(), Content::U64(self.agg_to_agg)),
            (
                "agg_to_agg_edges".into(),
                Content::U64(self.agg_to_agg_edges),
            ),
            ("agg_to_querier".into(), Content::U64(self.agg_to_querier)),
            ("retransmit".into(), Content::U64(self.retransmit)),
            ("control".into(), Content::U64(self.control)),
            (
                "overhead_factor".into(),
                Content::F64(self.overhead_factor()),
            ),
        ])
    }
}

impl EdgeBytes {
    /// Mean bytes per source→aggregator edge.
    pub fn per_sa_edge(&self) -> f64 {
        if self.source_to_agg_edges == 0 {
            0.0
        } else {
            self.source_to_agg as f64 / self.source_to_agg_edges as f64
        }
    }

    /// Mean bytes per aggregator→aggregator edge.
    pub fn per_aa_edge(&self) -> f64 {
        if self.agg_to_agg_edges == 0 {
            0.0
        } else {
            self.agg_to_agg as f64 / self.agg_to_agg_edges as f64
        }
    }

    /// First-copy data bytes across all edge classes.
    pub fn data_total(&self) -> u64 {
        self.source_to_agg + self.agg_to_agg + self.agg_to_querier
    }

    /// Overhead factor: (data + retransmissions + control) / data.
    /// `1.0` means the recovery protocol cost nothing this epoch.
    pub fn overhead_factor(&self) -> f64 {
        let data = self.data_total();
        if data == 0 {
            1.0
        } else {
            (data + self.retransmit + self.control) as f64 / data as f64
        }
    }
}

/// Per-epoch CPU breakdown handed to [`Engine::run_epochs`]' sink,
/// mirroring [`EpochStats`]' source/aggregator/querier split.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochReport {
    /// The epoch this report covers.
    pub epoch: Epoch,
    /// Summed in-worker source-init CPU time.
    pub source_cpu_ns: u64,
    /// Summed merge (+ sink finalize) CPU time.
    pub merge_cpu_ns: u64,
    /// Evaluation CPU time at the querier.
    pub querier_cpu_ns: u64,
}

/// Measurements collected over one epoch.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// The epoch.
    pub epoch: Epoch,
    /// Total CPU time spent in source initialization.
    pub source_cpu: Duration,
    /// Number of sources that ran initialization.
    pub sources_run: u64,
    /// Total CPU time of the merge phase (the merge walk below the
    /// sink, then the sink's merge and finalize).
    pub aggregator_cpu: Duration,
    /// Number of aggregators that merged at least one PSR.
    pub aggregators_run: u64,
    /// CPU time of the querier's evaluation phase.
    pub querier_cpu: Duration,
    /// Byte totals per edge class.
    pub bytes: EdgeBytes,
    /// Total radio transmit energy across the network (joules).
    pub energy_tx: f64,
    /// Total radio receive energy across the network (joules).
    pub energy_rx: f64,
    /// Sources reported as contributing (honest failures excluded).
    pub contributors: Vec<SourceId>,
}

impl EpochStats {
    /// Mean initialization time per source.
    pub fn per_source_cpu(&self) -> Duration {
        if self.sources_run == 0 {
            Duration::ZERO
        } else {
            self.source_cpu / self.sources_run as u32
        }
    }

    /// Mean merge time per aggregator.
    pub fn per_aggregator_cpu(&self) -> Duration {
        if self.aggregators_run == 0 {
            Duration::ZERO
        } else {
            self.aggregator_cpu / self.aggregators_run as u32
        }
    }
}

// Serializes only the seed-deterministic fields: `sim --json` promises
// byte-identical output for the same seed at every thread count, so the
// wall-clock CPU durations stay out of the JSON (they're still available
// through the accessors, telemetry spans, and the BENCH_* artifacts,
// none of which claim byte identity).
impl Serialize for EpochStats {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("epoch".into(), Content::U64(self.epoch)),
            ("sources_run".into(), Content::U64(self.sources_run)),
            ("aggregators_run".into(), Content::U64(self.aggregators_run)),
            ("bytes".into(), self.bytes.to_content()),
            ("energy_tx_j".into(), Content::F64(self.energy_tx)),
            ("energy_rx_j".into(), Content::F64(self.energy_rx)),
            (
                "contributors".into(),
                Content::Seq(
                    self.contributors
                        .iter()
                        .map(|&s| Content::U64(s as u64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Canonical metric names the engine records under in the global
/// registry — each epoch's counters are added under these names when
/// telemetry is on, and harnesses read them from global snapshots.
pub mod metric {
    /// Summed in-worker source-init CPU (ns).
    pub const SOURCE_CPU_NS: &str = "engine.source_cpu_ns";
    /// Sources that ran initialization.
    pub const SOURCES_RUN: &str = "engine.sources_run";
    /// Aggregator merge + sink-finalize CPU (ns).
    pub const AGGREGATOR_CPU_NS: &str = "engine.aggregator_cpu_ns";
    /// Aggregators that merged at least one PSR.
    pub const AGGREGATORS_RUN: &str = "engine.aggregators_run";
    /// Querier evaluation CPU (ns).
    pub const QUERIER_CPU_NS: &str = "engine.querier_cpu_ns";
    /// First-copy bytes on source→aggregator edges.
    pub const SA_BYTES: &str = "net.bytes.source_to_agg";
    /// Source→aggregator transmissions.
    pub const SA_EDGES: &str = "net.edges.source_to_agg";
    /// First-copy bytes on aggregator→aggregator edges.
    pub const AA_BYTES: &str = "net.bytes.agg_to_agg";
    /// Aggregator→aggregator transmissions.
    pub const AA_EDGES: &str = "net.edges.agg_to_agg";
    /// Bytes on the sink→querier edge.
    pub const AQ_BYTES: &str = "net.bytes.agg_to_querier";
    /// Extra data bytes spent on retransmissions.
    pub const RETRANSMIT_BYTES: &str = "net.bytes.retransmit";
    /// Control-plane bytes (ACK/NACK, re-solicitation, re-attach,
    /// failure reports).
    pub const CONTROL_BYTES: &str = "net.bytes.control";
    /// Radio transmit energy (joules).
    pub const ENERGY_TX_J: &str = "energy.tx_joules";
    /// Radio receive energy (joules).
    pub const ENERGY_RX_J: &str = "energy.rx_joules";
    /// Epochs the querier accepted.
    pub const EPOCHS_ACCEPTED: &str = "engine.epochs_accepted";
    /// Epochs the querier rejected (integrity failure).
    pub const EPOCHS_REJECTED: &str = "engine.epochs_rejected";
    /// Epochs with no result (availability loss / malformed input).
    pub const EPOCHS_LOST: &str = "engine.epochs_lost";
    /// Wall-clock histogram (ns) of whole epochs — fed by the
    /// `engine.epoch` root span, so it is also the outermost interval of
    /// each epoch on the trace timeline.
    pub const EPOCH_SPAN: &str = "engine.epoch";
    /// Orphans adopted by backup parents during in-epoch repair (the
    /// detection-side evidence of a crash).
    pub const ADOPTIONS: &str = "engine.adoptions";
    /// Child-failure reports escalated to the querier.
    pub const FAILURE_REPORTS: &str = "engine.failure_reports";
}

/// One epoch's activity in plain integers. The walk accumulates it
/// shard-locally and folds the shards in order.
/// [`finish`](Self::finish) turns it into [`EpochStats`] once per
/// epoch.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochCounts {
    /// In-worker source-init CPU.
    pub(crate) source_ns: u64,
    /// Sources that ran initialization.
    pub(crate) sources_run: u64,
    /// Merge and sink-finalize CPU.
    pub(crate) aggregator_ns: u64,
    /// Aggregators that merged at least one PSR.
    pub(crate) aggregators_run: u64,
    /// Querier evaluation CPU.
    pub(crate) querier_ns: u64,
    /// Byte totals per edge class.
    pub(crate) bytes: EdgeBytes,
    /// Bytes received by parents: what receive energy is charged on.
    pub(crate) rx_bytes: u64,
    /// Recovery-protocol counters (recovering epochs only).
    pub(crate) recovery: RecoveryReport,
}

impl EpochCounts {
    /// Adds `other`'s activity to this one.
    pub(crate) fn add(&mut self, other: &EpochCounts) {
        self.source_ns += other.source_ns;
        self.sources_run += other.sources_run;
        self.aggregator_ns += other.aggregator_ns;
        self.aggregators_run += other.aggregators_run;
        self.querier_ns += other.querier_ns;
        let (b, o) = (&mut self.bytes, &other.bytes);
        b.source_to_agg += o.source_to_agg;
        b.source_to_agg_edges += o.source_to_agg_edges;
        b.agg_to_agg += o.agg_to_agg;
        b.agg_to_agg_edges += o.agg_to_agg_edges;
        b.agg_to_querier += o.agg_to_querier;
        b.retransmit += o.retransmit;
        b.control += o.control;
        self.rx_bytes += other.rx_bytes;
        self.recovery.add(&other.recovery);
    }

    /// Charges one failure report sent `hops` hops up to the querier.
    pub(crate) fn failure_report(&mut self, hops: usize) {
        self.recovery.failure_reports += 1;
        self.bytes.control += FAILURE_REPORT_BYTES as u64 * hops as u64;
    }

    /// Charges the first copy of one uplink transmission of `size`
    /// bytes to its Table V class.
    pub(crate) fn uplink(&mut self, from_source: bool, size: u64) {
        if from_source {
            self.bytes.source_to_agg += size;
            self.bytes.source_to_agg_edges += 1;
        } else {
            self.bytes.agg_to_agg += size;
            self.bytes.agg_to_agg_edges += 1;
        }
    }

    /// The epoch's stats, added to the global registry when telemetry
    /// is on. Radio energy is linear in bytes, so it is computed once
    /// from the epoch's byte totals: the same at every thread count and
    /// after any number of earlier epochs.
    fn finish(&self, epoch: Epoch, contributors: Vec<SourceId>, radio: &RadioModel) -> EpochStats {
        let sent = self.bytes.data_total() + self.bytes.retransmit;
        let energy_tx = radio.tx_energy(sent as usize);
        let energy_rx = radio.rx_energy(self.rx_bytes as usize);
        self.publish(energy_tx, energy_rx);
        EpochStats {
            epoch,
            source_cpu: Duration::from_nanos(self.source_ns),
            sources_run: self.sources_run,
            aggregator_cpu: Duration::from_nanos(self.aggregator_ns),
            aggregators_run: self.aggregators_run,
            querier_cpu: Duration::from_nanos(self.querier_ns),
            bytes: self.bytes,
            energy_tx,
            energy_rx,
            contributors,
        }
    }

    /// Adds the epoch to the global registry under the [`metric`] names
    /// (cached handles, one atomic add each) when telemetry is on.
    fn publish(&self, energy_tx: f64, energy_rx: f64) {
        let b = &self.bytes;
        tel::count!("engine.source_cpu_ns", self.source_ns);
        tel::count!("engine.sources_run", self.sources_run);
        tel::count!("engine.aggregator_cpu_ns", self.aggregator_ns);
        tel::count!("engine.aggregators_run", self.aggregators_run);
        tel::count!("engine.querier_cpu_ns", self.querier_ns);
        tel::count!("net.bytes.source_to_agg", b.source_to_agg);
        tel::count!("net.edges.source_to_agg", b.source_to_agg_edges);
        tel::count!("net.bytes.agg_to_agg", b.agg_to_agg);
        tel::count!("net.edges.agg_to_agg", b.agg_to_agg_edges);
        tel::count!("net.bytes.agg_to_querier", b.agg_to_querier);
        tel::count!("net.bytes.retransmit", b.retransmit);
        tel::count!("net.bytes.control", b.control);
        tel::count_float!("energy.tx_joules", energy_tx);
        tel::count_float!("energy.rx_joules", energy_rx);
    }
}

/// Journals the epoch's verdict event and bumps the matching global
/// verdict counter: accepted, rejected (an integrity failure), or lost
/// (no verifiable result).
fn verdict_event(epoch: Epoch, result: &Result<EvaluatedSum, SchemeError>, contributors: usize) {
    match result {
        Ok(_) => {
            tel::event(epoch, EventKind::EpochAccepted, contributors as u64, 0);
            tel::count!("engine.epochs_accepted");
        }
        Err(SchemeError::VerificationFailed(_)) => {
            tel::event(epoch, EventKind::EpochRejected, 0, 0);
            tel::count!("engine.epochs_rejected");
        }
        Err(SchemeError::Malformed(_)) => {
            tel::event(epoch, EventKind::EpochLost, 0, 0);
            tel::count!("engine.epochs_lost");
        }
    }
}

/// The outcome of one epoch: the querier's verdict plus measurements.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The evaluation result (an integrity error is an *outcome*, not an
    /// engine failure).
    pub result: Result<EvaluatedSum, SchemeError>,
    /// Measurements.
    pub stats: EpochStats,
}

/// Builds the durable-journal receipt skeleton for one epoch outcome:
/// verdict, exact sum bits, contributor set, byte totals, and the
/// ground-truth sum check (an accepted, verified sum is compared against
/// the plain sum of `values` over the reported contributors). The
/// session id and μTesla stamp are filled in by
/// [`crate::journal::ReceiptJournal::record`]; recovery counters by the
/// caller that has a [`RecoveryReport`].
fn receipt_base(
    epoch: Epoch,
    result: &Result<EvaluatedSum, SchemeError>,
    stats: &EpochStats,
    values: &[u64],
    corrupted: bool,
) -> EpochReceipt {
    let (verdict, integrity_checked, sum_bits, sum_mismatch) = match result {
        Ok(sum) => {
            let mismatch = !corrupted && sum.integrity_checked && {
                let expected: u64 = stats
                    .contributors
                    .iter()
                    .map(|&sid| values[sid as usize])
                    .sum();
                sum.sum != expected as f64
            };
            (
                ReceiptVerdict::Accepted,
                sum.integrity_checked,
                sum.sum.to_bits(),
                mismatch,
            )
        }
        Err(SchemeError::VerificationFailed(_)) => (ReceiptVerdict::Rejected, false, 0, false),
        Err(SchemeError::Malformed(_)) => (ReceiptVerdict::Lost, false, 0, false),
    };
    EpochReceipt {
        epoch,
        verdict,
        integrity_checked,
        corrupted,
        sum_mismatch,
        sum_bits,
        data_bytes: stats.bytes.data_total(),
        retransmit_bytes: stats.bytes.retransmit,
        control_bytes: stats.bytes.control,
        contributors: stats.contributors.clone(),
        ..EpochReceipt::default()
    }
}

/// The outcome of one epoch run under the recovery protocol
/// ([`Engine::run_epoch_recovering`]).
#[derive(Debug, Clone)]
pub struct RecoveredEpoch {
    /// The querier's verdict plus the usual measurements.
    pub outcome: EpochOutcome,
    /// Recovery-protocol accounting (retransmissions, control traffic,
    /// lost subtrees).
    pub report: RecoveryReport,
    /// The topology repairs performed for crashed nodes.
    pub repairs: RepairPlan,
    /// Ground truth for harnesses: whether a covert attack actually
    /// corrupted the aggregate that reached the querier (an attack whose
    /// subtree was honestly lost anyway has no effect). A verifying
    /// scheme must reject exactly when this is true.
    pub aggregate_corrupted: bool,
}

impl RecoveredEpoch {
    /// Builds this epoch's durable-journal receipt: the verdict, exact
    /// sum bits, ground-truth corruption and sum-mismatch checks, the
    /// contributor set, and every recovery-protocol counter. The harness
    /// supplies its injection flags; the journal stamps session id and
    /// μTesla position when the receipt is recorded.
    pub fn receipt(
        &self,
        epoch: Epoch,
        values: &[u64],
        crash_injected: bool,
        attack_injected: bool,
    ) -> EpochReceipt {
        let mut r = receipt_base(
            epoch,
            &self.outcome.result,
            &self.outcome.stats,
            values,
            self.aggregate_corrupted,
        );
        r.crash_injected = crash_injected;
        r.attack_injected = attack_injected;
        r.delivered_links = self.report.delivered_links;
        r.lost_links = self.report.lost_links;
        r.recovered_by_resolicit = self.report.recovered_by_resolicit;
        r.resolicitations = self.report.resolicitations;
        r.adoptions = self.report.adoptions;
        r.init_failures = self.report.init_failures;
        r.merge_failures = self.report.merge_failures;
        r.backoff_ms = self.report.backoff_ms;
        r
    }
}

/// The engine's buffers for the shared walk, allocated by its first
/// epoch.
struct Walk<P> {
    shards: Vec<Shard>,
    buf: WalkBuf<P>,
    /// The epoch's failures, attacks and adoptions by post-order
    /// position.
    marks: Vec<Marked>,
    /// The failed subtrees, whose sources do not contribute, as
    /// ascending, disjoint post-order ranges.
    cuts: Vec<Range<usize>>,
    /// A clean run's readings, `values[i]` for source `i`, filled by the
    /// caller; empty until [`Engine::run_epochs`] first runs.
    values: Vec<u64>,
    /// Every source id in order: a clean run's contributor set. Empty
    /// until [`Engine::run_epochs`] first runs.
    everyone: Vec<SourceId>,
}

impl<P> Walk<P> {
    fn new(topo: &Topology, threads: usize) -> Self {
        let shards = plan_shards(topo, threads);
        Walk {
            buf: WalkBuf::new(&shards),
            shards,
            marks: Vec::new(),
            cuts: Vec::new(),
            values: Vec::new(),
            everyone: Vec::new(),
        }
    }

    /// Heap bytes held by the buffers.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let deferred: usize = self.shards.iter().map(Shard::deferred_bytes).sum();
        self.buf.bytes()
            + self.shards.capacity() * size_of::<Shard>()
            + deferred
            + self.marks.capacity() * size_of::<Marked>()
            + self.cuts.capacity() * size_of::<Range<usize>>()
            + self.values.capacity() * size_of::<u64>()
            + self.everyone.capacity() * size_of::<SourceId>()
    }

    /// Translates the epoch's `failed` nodes, `attacks` and the
    /// `adopted` orphans' adopters to marks by post-order position (ids
    /// outside the tree are ignored); returns whether the final PSR is
    /// replayed.
    fn mark(
        &mut self,
        topo: &Topology,
        failed: &HashSet<NodeId>,
        attacks: &[Attack],
        adopted: &BTreeMap<NodeId, NodeId>,
    ) -> bool {
        let mark = |failed, dropped, tampers, duplicates, adopter| Mark {
            failed,
            dropped,
            tampers,
            duplicates,
            adopter,
        };
        let on_nodes = attacks.iter().filter_map(|attack| match *attack {
            Attack::TamperAtNode(id) => Some((id, mark(false, false, 1, 0, None))),
            Attack::DropAtNode(id) => Some((id, mark(false, true, 0, 0, None))),
            Attack::DuplicateAtNode(id) => Some((id, mark(false, false, 0, 1, None))),
            Attack::ReplayFinal => None,
        });
        let down = failed.iter().map(|&id| (id, mark(true, false, 0, 0, None)));
        let orphans = adopted
            .iter()
            .map(|(&id, &adopter)| (id, mark(false, false, 0, 0, Some(adopter as u32))));
        self.marks.clear();
        self.marks.extend(
            down.chain(on_nodes)
                .chain(orphans)
                .filter(|&(id, _)| id < topo.num_nodes())
                .map(|(id, m)| (topo.post_position(id) as u32, m)),
        );
        self.marks.sort_unstable_by_key(|&(pos, _)| pos);
        self.marks.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1.absorb(later.1);
            }
            same
        });
        attacks.contains(&Attack::ReplayFinal)
    }
}

/// The sources outside every one of the ascending, disjoint post-order
/// `cuts`, ascending: the contributor set an honest querier is told.
fn contributors(topo: &Topology, cuts: &[Range<usize>]) -> Vec<SourceId> {
    let mut out = Vec::with_capacity(topo.num_sources() as usize);
    out.extend((0..topo.num_sources() as SourceId).filter(|&sid| {
        let node = topo.source_node(sid).expect("every source id has a node");
        !is_cut(cuts, topo.post_position(node))
    }));
    out
}

/// The simulation engine for one deployed scheme on one topology.
pub struct Engine<'a, S: AggregationScheme> {
    scheme: &'a S,
    /// The caller's arena: the per-epoch walks read its cached
    /// post-order and dense child ranges.
    topology: &'a Topology,
    radio: RadioModel,
    /// Worker count for the sharded walk (1 = fully serial).
    threads: usize,
    /// Cached final PSR of the previous epoch, for replay attacks.
    prev_final: Option<S::Psr>,
    /// The shared walk's shards and buffers: `None` until the first
    /// epoch needs them, then reused across epochs.
    walk: Option<Walk<S::Psr>>,
    /// Durable receipt journal: when attached, every epoch run through
    /// [`run_epoch_with`](Self::run_epoch_with) commits a signed receipt.
    journal: Option<ReceiptJournal>,
}

impl<'a, S: AggregationScheme> Engine<'a, S> {
    /// Creates an engine over the caller's `topology`, with the default
    /// radio model, running serially. It allocates nothing until its
    /// first epoch.
    pub fn new(scheme: &'a S, topology: &'a Topology) -> Self {
        Engine {
            scheme,
            topology,
            radio: RadioModel::default(),
            threads: 1,
            prev_final: None,
            walk: None,
            journal: None,
        }
    }

    /// Attaches a durable receipt journal: every subsequent
    /// [`run_epoch`](Self::run_epoch) / [`run_epoch_with`](Self::run_epoch_with)
    /// commits one signed receipt per epoch. Harness-driven flows
    /// ([`run_epoch_recovering`](Self::run_epoch_recovering)) journal
    /// explicitly via [`RecoveredEpoch::receipt`] instead, because only
    /// the harness knows its injection flags.
    pub fn attach_journal(&mut self, journal: ReceiptJournal) {
        self.journal = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&ReceiptJournal> {
        self.journal.as_ref()
    }

    /// Detaches and returns the journal (callers should
    /// [`ReceiptJournal::finish`] it).
    pub fn take_journal(&mut self) -> Option<ReceiptJournal> {
        self.journal.take()
    }

    /// Shards each epoch across this many scoped workers: the
    /// post-order below the sink splits into `min(threads, sources)`
    /// contiguous shards of equal source counts, cut anywhere in the
    /// tree, each initialised and merged by one worker; a serial join
    /// then merges the few ancestors whose subtrees straddle a cut, and
    /// SIES evaluation splits the same way. Results are byte-identical
    /// for every thread count: every merge sees the serial walk's inputs
    /// in the serial order, the join runs the straddling ancestors where
    /// the serial walk would, and partial evaluation sums combine under
    /// exactly associative modular arithmetic.
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads.resolve();
        self.walk = None;
        self
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The topology in use.
    pub fn topology(&self) -> &'a Topology {
        self.topology
    }

    /// The final PSR of the most recent epoch (what the querier saw) —
    /// used by harnesses that digest aggregates byte-for-byte.
    pub fn last_final_psr(&self) -> Option<&S::Psr> {
        self.prev_final.as_ref()
    }

    /// Heap bytes held by the engine's reusable epoch state: the walk's
    /// shard plan and buffers, and a clean run's readings and
    /// contributor list. Excludes the arena (add [`Topology::bytes`])
    /// and the scheme's key material. Zero before the first epoch.
    pub fn state_bytes(&self) -> usize {
        self.walk.as_ref().map_or(0, Walk::bytes)
    }

    /// Runs `epochs` consecutive clean epochs starting at `first_epoch`,
    /// through `first_epoch + epochs - 1` or `u64::MAX`, whichever comes
    /// first: epochs past `u64::MAX` are not run.
    ///
    /// Per epoch, `fill(epoch, values)` writes the readings, one slot
    /// per source, then `sink(report, final_psr, result, contributors)`
    /// observes the outcome. Every source contributes. `final_psr`
    /// follows [`last_final_psr`](Self::last_final_psr): set before
    /// evaluation, stale on early aborts. Both callbacks run on the
    /// calling thread, in epoch order.
    ///
    /// When the scheme opts into prewarm
    /// ([`AggregationScheme::prewarm_enabled`]), a scoped warmer thread
    /// precomputes upcoming epochs' key material during the run.
    /// Unlike the single-epoch runners, `run_epochs` records no journal
    /// receipt, builds no [`EpochStats`] and emits no events: after its
    /// first epoch, a serial run without prewarm allocates nothing.
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use sies_core::SystemParams;
    /// use sies_net::deploy::SiesDeployment;
    /// use sies_net::engine::Engine;
    /// use sies_net::topology::Topology;
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let deployment = SiesDeployment::new(&mut rng, SystemParams::new(16).unwrap());
    /// let topology = Topology::complete_tree(16, 4);
    /// let mut engine = Engine::new(&deployment, &topology);
    /// let mut sums = Vec::new();
    /// engine.run_epochs(0, 2, |_, values| values.fill(3), |_, _, result, _| {
    ///     sums.push(result.as_ref().unwrap().sum);
    /// });
    /// assert_eq!(sums, [48.0, 48.0]);
    /// ```
    pub fn run_epochs<F, G>(&mut self, first_epoch: Epoch, epochs: u64, mut fill: F, mut sink: G)
    where
        F: FnMut(Epoch, &mut [u64]),
        G: FnMut(&EpochReport, Option<&S::Psr>, &Result<EvaluatedSum, SchemeError>, &[SourceId]),
    {
        if epochs == 0 {
            return;
        }
        let last = first_epoch.saturating_add(epochs - 1);
        let (topo, threads) = (self.topology, self.threads);
        let walk = self.walk.get_or_insert_with(|| Walk::new(topo, threads));
        if walk.everyone.is_empty() {
            let n = topo.num_sources() as usize;
            walk.values = vec![0; n];
            walk.everyone = (0..n as SourceId).collect();
        }
        let exec = Exec {
            scheme: self.scheme,
            topo,
            shards: &walk.shards,
            contributors: &walk.everyone,
            marks: &[],
            replay: false,
            threads,
            uplinks: None,
        };
        let prev_final = &mut self.prev_final;
        let mut run = |epoch| {
            fill(epoch, &mut walk.values);
            exec.produce(epoch, &walk.values, &mut walk.buf);
            let (counts, result) = exec.consume(epoch, &mut walk.buf, prev_final);
            let report = EpochReport {
                epoch,
                source_cpu_ns: counts.source_ns,
                merge_cpu_ns: counts.aggregator_ns,
                querier_cpu_ns: counts.querier_ns,
            };
            sink(&report, prev_final.as_ref(), &result, exec.contributors);
        };
        if self.scheme.prewarm_enabled() {
            // The warmer (and its thread scope) exist only when the
            // scheme opted in, so a run without prewarm stays
            // allocation-free per epoch.
            with_warmer(self.scheme, first_epoch, last, |gate| {
                for epoch in first_epoch..=last {
                    run(epoch);
                    gate.advance(epoch);
                }
            });
        } else {
            (first_epoch..=last).for_each(run);
        }
    }

    /// Runs a clean epoch: no failures, no attacks.
    pub fn run_epoch(&mut self, epoch: Epoch, values: &[u64]) -> EpochOutcome {
        self.run_epoch_with(epoch, values, &HashSet::new(), &[])
    }

    /// Runs one epoch with `failed` nodes (honest failures, reported to
    /// the querier and excluded from the contributor set) and adversarial
    /// `attacks` (covert).
    ///
    /// `values[i]` is source `i`'s reading this epoch; a wrong number of
    /// values is a lost epoch (`SchemeError::Malformed`).
    ///
    /// A failed node sends nothing and discards what its children sent;
    /// its descendants still initialise, merge and transmit. Attacks act
    /// on a node's outgoing PSR after its merge (after the sink pass at
    /// the sink) and before its bytes are charged.
    ///
    /// When a journal is attached ([`Self::attach_journal`]), one signed
    /// receipt is committed per call — covering every exit path,
    /// including early aborts (rejected reading, failed merge, empty
    /// root).
    pub fn run_epoch_with(
        &mut self,
        epoch: Epoch,
        values: &[u64],
        failed: &HashSet<NodeId>,
        attacks: &[Attack],
    ) -> EpochOutcome {
        let out = self.walk_epoch(epoch, values, failed, attacks);
        if let Some(journal) = self.journal.as_mut() {
            let mut receipt = receipt_base(epoch, &out.result, &out.stats, values, false);
            receipt.crash_injected = !failed.is_empty();
            receipt.attack_injected = !attacks.is_empty();
            journal.record(&mut receipt);
        }
        out
    }

    /// Journals the epoch's dissemination and lane-dispatch events and
    /// checks that `values` holds one reading per source.
    fn begin(&self, epoch: Epoch, values: &[u64]) -> Result<(), SchemeError> {
        let n = self.topology.num_sources();
        tel::event(epoch, EventKind::QueryDisseminated, n, 0);
        // a = requested lane width (what SIES_LANES asked for), b = the
        // hardware-clamped width actually dispatched; they differ when a
        // 16-lane request lands on a machine without AVX-512.
        tel::event(
            epoch,
            EventKind::LaneDispatch,
            sies_crypto::lanes::lane_width() as u64,
            sies_crypto::lanes::effective_lane_width() as u64,
        );
        if values.len() as u64 == n {
            Ok(())
        } else {
            Err(SchemeError::Malformed(format!(
                "{} values for {n} sources",
                values.len()
            )))
        }
    }

    /// The epoch's outcome: its verdict event, then its stats.
    fn outcome(
        &self,
        epoch: Epoch,
        result: Result<EvaluatedSum, SchemeError>,
        counts: &EpochCounts,
        contributors: Vec<SourceId>,
    ) -> EpochOutcome {
        verdict_event(epoch, &result, contributors.len());
        EpochOutcome {
            result,
            stats: counts.finish(epoch, contributors, &self.radio),
        }
    }

    fn walk_epoch(
        &mut self,
        epoch: Epoch,
        values: &[u64],
        failed: &HashSet<NodeId>,
        attacks: &[Attack],
    ) -> EpochOutcome {
        // The RAII span covers every exit path, so `engine.epoch` is a
        // complete wall-clock latency histogram and the epoch's
        // outermost timeline interval.
        let _epoch_span = tel::span!("engine.epoch");
        if let Err(e) = self.begin(epoch, values) {
            return self.outcome(epoch, Err(e), &EpochCounts::default(), Vec::new());
        }
        let (topo, threads) = (self.topology, self.threads);
        let walk = self.walk.get_or_insert_with(|| Walk::new(topo, threads));
        let replay = walk.mark(topo, failed, attacks, &BTreeMap::new());
        // A failed node's sources do not contribute, whatever their
        // subtree still sends.
        walk.cuts.clear();
        for &(pos, _) in walk.marks.iter().filter(|(_, m)| m.failed) {
            let node = topo.post_order()[pos as usize] as usize;
            cut(&mut walk.cuts, topo.subtree_range(node));
        }
        let contributors = contributors(topo, &walk.cuts);
        let exec = Exec {
            scheme: self.scheme,
            topo,
            shards: &walk.shards,
            contributors: &contributors,
            marks: &walk.marks,
            replay,
            threads,
            uplinks: None,
        };
        exec.produce(epoch, values, &mut walk.buf);
        tel::event(epoch, EventKind::SourceInit, walk.buf.live_sources(), 0);
        let (counts, result) = exec.consume(epoch, &mut walk.buf, &mut self.prev_final);
        self.outcome(epoch, result, &counts, contributors)
    }

    /// Runs one epoch under the full fault-tolerance stack: lossy links
    /// with the ACK/NACK + re-solicitation recovery protocol
    /// ([`RecoveryConfig`]), within-epoch topology repair for `crashed`
    /// nodes, and covert `attacks`.
    ///
    /// Semantics that differ from [`run_epoch_with`](Self::run_epoch_with):
    ///
    /// * `crashed` nodes are *churn*: they neither transmit nor ACK.
    ///   Live children of a crashed aggregator re-attach to their backup
    ///   parent (nearest live ancestor) and still contribute. A crashed
    ///   sink loses the whole epoch.
    /// * Honest link loss triggers recovery; a subtree that stays
    ///   missing after re-solicitation is excluded from the contributor
    ///   set, so the epoch still verifies exactly over the survivors.
    /// * Covert attacks are modelled at a *compromised parent*: it ACKs
    ///   the child's PSR like an honest node (so recovery never fires)
    ///   and then tampers/drops/duplicates it in the merge while
    ///   reporting contributions unchanged. Detection is therefore
    ///   entirely up to the scheme, exactly as in the paper's model.
    ///
    /// Contributor-set exactness invariant: the reported contributor set
    /// equals the set of sources whose PSR was actually fused into the
    /// final aggregate **unless** a covert attack interfered — in which
    /// case [`RecoveredEpoch::aggregate_corrupted`] is true and a
    /// verifying scheme must reject.
    ///
    /// Each call draws one `u64` from `rng`; every uplink's loss, retry
    /// and jitter draws come from
    /// [`uplink_stream`](crate::recovery::uplink_stream)`(draw, node)`, so
    /// the outcome is the same at every thread count. An adopter merges
    /// a crashed child's forwarded copies in that child's place.
    #[allow(clippy::too_many_arguments)]
    pub fn run_epoch_recovering(
        &mut self,
        epoch: Epoch,
        values: &[u64],
        crashed: &HashSet<NodeId>,
        attacks: &[Attack],
        radio: &LossyRadio,
        recovery: &RecoveryConfig,
        rng: &mut dyn RngCore,
    ) -> RecoveredEpoch {
        let _epoch_span = tel::span!("engine.epoch");
        // The epoch's one draw on the caller's RNG: it keys every
        // uplink's stream, so no outcome depends on the walk order.
        let draw = rng.next_u64();
        let lost = |outcome, report, repairs| RecoveredEpoch {
            outcome,
            report,
            repairs,
            aggregate_corrupted: false,
        };
        let none = EpochCounts::default();
        if let Err(e) = self.begin(epoch, values) {
            let outcome = self.outcome(epoch, Err(e), &none, Vec::new());
            return lost(outcome, RecoveryReport::default(), RepairPlan::default());
        }
        let repairs = self.topology.repair_plan(crashed);
        let mut upfront = EpochCounts::default();
        upfront.recovery.adoptions = repairs.adoptions.len() as u64;
        upfront.recovery.stranded = repairs.stranded.len() as u64;
        // Detection-side churn signal: any nonzero delta of this counter
        // in a window is evidence of a crash.
        tel::count!("engine.adoptions", upfront.recovery.adoptions);
        if !repairs.is_empty() {
            // The tree changed under us: drop any precomputed epoch
            // material so the warmer re-plans against the repaired
            // world. Safe unconditionally — correctness never depends
            // on pool contents.
            self.scheme.prewarm_cancel();
        }

        // A crashed sink means nothing can reach the querier: the epoch
        // is an availability loss, never a false accept or reject.
        let root = self.topology.root();
        if crashed.contains(&root) {
            let sink_lost = Err(SchemeError::Malformed("sink crashed; epoch lost".into()));
            let outcome = self.outcome(epoch, sink_lost, &none, Vec::new());
            return lost(outcome, upfront.recovery, repairs);
        }

        // Re-attach handshake: request up, ACK back, per orphan.
        upfront.bytes.control += (REATTACH_BYTES + ACK_BYTES) as u64 * upfront.recovery.adoptions;
        for (&orphan, &adopter) in &repairs.adoptions {
            tel::event(epoch, EventKind::Reattach, orphan as u64, adopter as u64);
        }
        let (topo, threads) = (self.topology, self.threads);
        let walk = self.walk.get_or_insert_with(|| Walk::new(topo, threads));
        let replay = walk.mark(topo, crashed, attacks, &repairs.adoptions);
        // A live parent notices its crashed child never transmitted and
        // reports the failure up to the querier, one frame per hop.
        for &(pos, _) in walk.marks.iter().filter(|(_, m)| m.failed) {
            let node = topo.post_order()[pos as usize] as usize;
            let parent = topo.parent(node).expect("the sink is live");
            if !crashed.contains(&parent) {
                upfront.failure_report(topo.depth(parent) + 1);
                tel::event(epoch, EventKind::FailureReport, node as u64, parent as u64);
            }
        }

        let exec = Exec {
            scheme: self.scheme,
            topo,
            shards: &walk.shards,
            contributors: &[],
            marks: &walk.marks,
            replay,
            threads,
            uplinks: Some(Uplinks {
                radio,
                recovery,
                draw,
            }),
        };
        exec.produce(epoch, values, &mut walk.buf);
        tel::event(epoch, EventKind::SourceInit, walk.buf.live_sources(), 0);
        // What the walk's parents never heard, in serial walk order.
        let lost = &mut walk.buf.joined().lost;
        lost.events.flush();
        let contributors = contributors(topo, &lost.cuts);
        // A covert attack corrupts the aggregate when it acts on a live
        // node's PSR and every PSR above it reached the sink: no cut
        // holds the node. The sink's own tamper and a replay of an
        // earlier final PSR corrupt it too.
        let root_pos = topo.post_position(root);
        let mut corrupted = (replay && self.prev_final.is_some())
            || walk.marks.iter().any(|&(pos, m)| match pos as usize {
                pos if pos == root_pos => m.tampers > 0,
                pos => {
                    let attacked = m.dropped || m.tampers + m.duplicates > 0;
                    attacked && !m.failed && !is_cut(&lost.cuts, pos)
                }
            });
        let exec = Exec {
            contributors: &contributors,
            ..exec
        };
        let (mut counts, result) = exec.consume(epoch, &mut walk.buf, &mut self.prev_final);
        counts.add(&upfront);
        counts.recovery.control_bytes = counts.bytes.control;
        counts.recovery.publish();
        // The querier evaluates a final PSR only when the sink sent one;
        // a lost epoch reports no contributors and no corruption.
        let reached = counts.bytes.agg_to_querier > 0;
        corrupted &= reached;
        let contributors = if reached { contributors } else { Vec::new() };
        let outcome = self.outcome(epoch, result, &counts, contributors);
        RecoveredEpoch {
            outcome,
            report: counts.recovery,
            repairs,
            aggregate_corrupted: corrupted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::LossyRadio;
    use crate::recovery::RecoveryConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A transparent scheme for engine-level tests: the PSR is the plain
    /// sum plus a contribution count, so every engine behaviour is
    /// observable without cryptography.
    struct PlainSum;

    #[derive(Clone, Debug, PartialEq)]
    struct PlainPsr {
        sum: u64,
        count: u64,
    }

    impl AggregationScheme for PlainSum {
        type Psr = PlainPsr;

        fn name(&self) -> &'static str {
            "plain"
        }

        fn source_init(&self, _s: SourceId, _e: Epoch, value: u64) -> PlainPsr {
            PlainPsr {
                sum: value,
                count: 1,
            }
        }

        fn merge(&self, psrs: &[PlainPsr]) -> PlainPsr {
            PlainPsr {
                sum: psrs.iter().map(|p| p.sum).sum(),
                count: psrs.iter().map(|p| p.count).sum(),
            }
        }

        fn evaluate(
            &self,
            f: &PlainPsr,
            _epoch: Epoch,
            contributors: &[SourceId],
        ) -> Result<EvaluatedSum, SchemeError> {
            // "Verification": the number of fused PSRs must equal the
            // reported contributor count.
            if f.count != contributors.len() as u64 {
                return Err(SchemeError::VerificationFailed(format!(
                    "{} contributions, {} contributors",
                    f.count,
                    contributors.len()
                )));
            }
            Ok(EvaluatedSum {
                sum: f.sum as f64,
                integrity_checked: true,
            })
        }

        fn psr_wire_size(&self, _p: &PlainPsr) -> usize {
            16
        }

        fn tamper(&self, psr: &mut PlainPsr) {
            psr.sum += 1_000_000;
        }
    }

    fn engine_fixture(n: u64, f: usize) -> (Topology, PlainSum) {
        (Topology::complete_tree(n, f), PlainSum)
    }

    #[test]
    fn clean_epoch_sums_exactly() {
        let (topo, scheme) = engine_fixture(16, 4);
        let mut engine = Engine::new(&scheme, &topo);
        let values: Vec<u64> = (1..=16).collect();
        let out = engine.run_epoch(0, &values);
        let res = out.result.unwrap();
        assert_eq!(res.sum, 136.0);
        assert_eq!(out.stats.sources_run, 16);
        assert_eq!(out.stats.contributors.len(), 16);
    }

    #[test]
    fn byte_accounting_matches_topology() {
        let (topo, scheme) = engine_fixture(16, 4);
        let mut engine = Engine::new(&scheme, &topo);
        let out = engine.run_epoch(0, &[1; 16]);
        let b = out.stats.bytes;
        // 16 source edges, (4 aggregators → sink) agg edges, 1 querier edge.
        assert_eq!(b.source_to_agg_edges, 16);
        assert_eq!(b.source_to_agg, 16 * 16);
        assert_eq!(b.agg_to_agg_edges, 4);
        assert_eq!(b.agg_to_agg, 4 * 16);
        assert_eq!(b.agg_to_querier, 16);
        assert!((b.per_sa_edge() - 16.0).abs() < 1e-9);
        assert!((b.per_aa_edge() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn energy_accounting_positive_and_consistent() {
        let (topo, scheme) = engine_fixture(8, 2);
        let mut engine = Engine::new(&scheme, &topo);
        let out = engine.run_epoch(0, &[1; 8]);
        assert!(out.stats.energy_tx > 0.0);
        assert!(out.stats.energy_rx > 0.0);
        // Every transmission except sink→querier is also received.
        assert!(out.stats.energy_tx > out.stats.energy_rx);
    }

    #[test]
    fn honest_source_failure_excluded_and_verifies() {
        let (topo, scheme) = engine_fixture(8, 2);
        let mut engine = Engine::new(&scheme, &topo);
        let node = topo.source_node(3).unwrap();
        let failed: HashSet<NodeId> = [node].into();
        let out = engine.run_epoch_with(0, &[10; 8], &failed, &[]);
        let res = out.result.unwrap();
        assert_eq!(res.sum, 70.0);
        assert_eq!(out.stats.contributors.len(), 7);
        assert!(!out.stats.contributors.contains(&3));
    }

    #[test]
    fn honest_aggregator_failure_excludes_subtree() {
        let (topo, scheme) = engine_fixture(16, 4);
        let mut engine = Engine::new(&scheme, &topo);
        // Fail the first level-1 aggregator: 4 sources vanish.
        let agg = topo.children(topo.root()).start;
        let failed: HashSet<NodeId> = [agg].into();
        let out = engine.run_epoch_with(0, &[5; 16], &failed, &[]);
        let res = out.result.unwrap();
        assert_eq!(res.sum, 60.0);
        assert_eq!(out.stats.contributors.len(), 12);
    }

    #[test]
    fn covert_drop_detected_by_verifying_scheme() {
        let (topo, scheme) = engine_fixture(8, 2);
        let mut engine = Engine::new(&scheme, &topo);
        let node = topo.source_node(2).unwrap();
        let out = engine.run_epoch_with(0, &[1; 8], &HashSet::new(), &[Attack::DropAtNode(node)]);
        assert!(matches!(
            out.result,
            Err(SchemeError::VerificationFailed(_))
        ));
    }

    #[test]
    fn covert_duplicate_detected() {
        let (topo, scheme) = engine_fixture(8, 2);
        let mut engine = Engine::new(&scheme, &topo);
        let node = topo.source_node(0).unwrap();
        let out = engine.run_epoch_with(
            0,
            &[1; 8],
            &HashSet::new(),
            &[Attack::DuplicateAtNode(node)],
        );
        assert!(out.result.is_err());
    }

    #[test]
    fn tamper_changes_result() {
        let (topo, scheme) = engine_fixture(4, 2);
        let mut engine = Engine::new(&scheme, &topo);
        let node = topo.source_node(1).unwrap();
        let out = engine.run_epoch_with(0, &[1; 4], &HashSet::new(), &[Attack::TamperAtNode(node)]);
        // PlainSum's "verification" doesn't cover tampering with the sum,
        // so the attack slips through — exactly why SIES embeds shares.
        let res = out.result.unwrap();
        assert_eq!(res.sum, 1_000_004.0);
    }

    #[test]
    fn replay_uses_previous_epoch_final() {
        let (topo, scheme) = engine_fixture(4, 2);
        let mut engine = Engine::new(&scheme, &topo);
        let first = engine.run_epoch(0, &[1; 4]).result.unwrap();
        assert_eq!(first.sum, 4.0);
        let replayed = engine
            .run_epoch_with(1, &[100; 4], &HashSet::new(), &[Attack::ReplayFinal])
            .result
            .unwrap();
        // PlainSum cannot detect it; the replayed sum is epoch 0's.
        assert_eq!(replayed.sum, 4.0);
    }

    #[test]
    fn total_network_failure_reported() {
        let (topo, scheme) = engine_fixture(4, 2);
        let mut engine = Engine::new(&scheme, &topo);
        let failed: HashSet<NodeId> = [topo.root()].into();
        let out = engine.run_epoch_with(0, &[1; 4], &failed, &[]);
        assert!(matches!(out.result, Err(SchemeError::Malformed(_))));
    }

    #[test]
    fn wrong_value_count_is_a_lost_epoch() {
        use crate::journal::{replay, JournalConfig};
        use sies_receipts::Verdict;

        let (topo, scheme) = engine_fixture(4, 2);
        let lost = |out: &EpochOutcome| {
            assert!(
                matches!(&out.result, Err(SchemeError::Malformed(m)) if m == "3 values for 4 sources"),
                "{:?}",
                out.result
            );
            assert_eq!(out.stats.bytes, EdgeBytes::default());
            assert_eq!(out.stats.sources_run, 0);
            assert!(out.stats.contributors.is_empty());
        };
        let path = std::env::temp_dir().join(format!(
            "sies-engine-{}-wrong-count.journal",
            std::process::id()
        ));
        let cfg = JournalConfig::default();
        let mut engine = Engine::new(&scheme, &topo);
        engine.attach_journal(ReceiptJournal::create(&path, &cfg).unwrap());
        lost(&engine.run_epoch(0, &[1; 3]));
        lost(&engine.run_epoch_with(1, &[1; 3], &HashSet::from([topo.root()]), &[]));
        let mut rng = StdRng::seed_from_u64(0);
        let none = HashSet::new();
        let radio = LossyRadio::new(0.0, 3);
        let cfg_r = RecoveryConfig::default();
        let run = engine.run_epoch_recovering(2, &[1; 3], &none, &[], &radio, &cfg_r, &mut rng);
        lost(&run.outcome);
        assert!(run.repairs.is_empty() && !run.aggregate_corrupted);
        assert!(engine.last_final_psr().is_none());
        // The engine still runs a well-formed epoch afterwards.
        assert_eq!(engine.run_epoch(3, &[1; 4]).result.unwrap().sum, 4.0);

        engine.take_journal().unwrap().finish().unwrap();
        let receipts = replay(&path, &cfg).unwrap().summary.receipts;
        let _ = std::fs::remove_file(&path);
        let verdicts: Vec<_> = receipts.iter().map(|r| (r.epoch, r.verdict)).collect();
        assert_eq!(
            verdicts,
            [
                (0, Verdict::Lost),
                (1, Verdict::Lost),
                (3, Verdict::Accepted)
            ]
        );
    }

    #[test]
    fn threaded_epoch_matches_serial_engine() {
        let (topo, scheme) = engine_fixture(16, 4);
        let values: Vec<u64> = (1..=16).map(|v| v * 3).collect();
        let failed: HashSet<NodeId> = [topo.source_node(6).unwrap()].into();
        let attacks = [Attack::TamperAtNode(topo.source_node(2).unwrap())];
        let mut serial = Engine::new(&scheme, &topo);
        let base = serial.run_epoch_with(0, &values, &failed, &attacks);
        for threads in [1, 2, 4, 8] {
            let mut engine = Engine::new(&scheme, &topo).with_threads(Threads::fixed(threads));
            assert_eq!(engine.threads(), threads);
            let out = engine.run_epoch_with(0, &values, &failed, &attacks);
            assert_eq!(out.result, base.result, "threads = {threads}");
            assert_eq!(out.stats.bytes, base.stats.bytes, "threads = {threads}");
            assert_eq!(out.stats.contributors, base.stats.contributors);
            assert_eq!(out.stats.sources_run, base.stats.sources_run);
            assert_eq!(out.stats.aggregators_run, base.stats.aggregators_run);
            assert_eq!(out.stats.energy_tx, base.stats.energy_tx);
            assert_eq!(out.stats.energy_rx, base.stats.energy_rx);
        }
    }

    #[test]
    fn epoch_stats_do_not_depend_on_engine_history() {
        let (topo, scheme) = engine_fixture(16, 4);
        let values: Vec<u64> = (1..=16).collect();
        let same = |a: &EpochStats, b: &EpochStats| {
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.sources_run, b.sources_run);
            assert_eq!(a.aggregators_run, b.aggregators_run);
            assert_eq!(a.energy_tx, b.energy_tx);
            assert_eq!(a.energy_rx, b.energy_rx);
        };

        let mut warm = Engine::new(&scheme, &topo);
        for epoch in 0..1000 {
            warm.run_epoch(epoch, &values);
        }
        let fresh = Engine::new(&scheme, &topo).run_epoch(1000, &values);
        same(&fresh.stats, &warm.run_epoch(1000, &values).stats);

        let radio = LossyRadio::new(0.0, 3);
        let cfg = RecoveryConfig::default();
        let recover = |engine: &mut Engine<'_, PlainSum>, epoch: Epoch| {
            let mut rng = StdRng::seed_from_u64(epoch);
            let none = HashSet::new();
            engine.run_epoch_recovering(epoch, &values, &none, &[], &radio, &cfg, &mut rng)
        };
        let mut warm = Engine::new(&scheme, &topo);
        for epoch in 0..1000 {
            recover(&mut warm, epoch);
        }
        let fresh = recover(&mut Engine::new(&scheme, &topo), 1000);
        same(
            &fresh.outcome.stats,
            &recover(&mut warm, 1000).outcome.stats,
        );
    }

    mod recovering {
        use super::*;

        fn lossless() -> LossyRadio {
            LossyRadio::new(0.0, 3)
        }

        #[test]
        fn clean_epoch_matches_plain_run() {
            let (topo, scheme) = engine_fixture(16, 4);
            let mut engine = Engine::new(&scheme, &topo);
            let values: Vec<u64> = (1..=16).collect();
            let mut rng = StdRng::seed_from_u64(0);
            let run = engine.run_epoch_recovering(
                0,
                &values,
                &HashSet::new(),
                &[],
                &lossless(),
                &RecoveryConfig::default(),
                &mut rng,
            );
            let res = run.outcome.result.unwrap();
            assert_eq!(res.sum, 136.0);
            assert!(!run.aggregate_corrupted);
            assert!(run.repairs.is_empty());
            assert_eq!(run.outcome.stats.bytes.retransmit, 0);
            // One ACK per uplink transfer, nothing else.
            assert_eq!(run.report.acks, run.report.delivered_links);
            assert_eq!(run.report.lost_links, 0);
            assert_eq!(run.report.delivery_rate(), 1.0);
        }

        #[test]
        fn crashed_aggregator_repairs_to_backup_parent_exactly() {
            // complete_tree(16, 4): root + 4 aggregators + 16 sources.
            // Crash one aggregator: its 4 source children re-attach to
            // the root, and the epoch still sums ALL 16 sources.
            let (topo, scheme) = engine_fixture(16, 4);
            let crashed_agg = topo.children(topo.root()).nth(1).unwrap();
            assert!(!topo.is_source(crashed_agg));
            let mut engine = Engine::new(&scheme, &topo);
            let values: Vec<u64> = (1..=16).collect();
            let mut rng = StdRng::seed_from_u64(1);
            let run = engine.run_epoch_recovering(
                0,
                &values,
                &HashSet::from([crashed_agg]),
                &[],
                &lossless(),
                &RecoveryConfig::default(),
                &mut rng,
            );
            let res = run.outcome.result.unwrap();
            assert_eq!(res.sum, 136.0, "repair must not lose any contribution");
            assert_eq!(run.report.adoptions, 4);
            assert_eq!(run.repairs.adoptions.len(), 4);
            assert!(run.repairs.adoptions.values().all(|&p| p == topo.root()));
            assert_eq!(run.outcome.stats.contributors.len(), 16);
            // The re-attach handshakes were paid for.
            assert!(run.outcome.stats.bytes.control > 0);
        }

        #[test]
        fn crashed_source_is_excluded_not_fatal() {
            let (topo, scheme) = engine_fixture(16, 4);
            let dead = topo.source_node(5).unwrap();
            let mut engine = Engine::new(&scheme, &topo);
            let mut rng = StdRng::seed_from_u64(2);
            let run = engine.run_epoch_recovering(
                0,
                &[10; 16],
                &HashSet::from([dead]),
                &[],
                &lossless(),
                &RecoveryConfig::default(),
                &mut rng,
            );
            let res = run.outcome.result.unwrap();
            assert_eq!(res.sum, 150.0);
            assert_eq!(run.outcome.stats.contributors.len(), 15);
            assert!(run.report.failure_reports >= 1);
        }

        #[test]
        fn sink_crash_is_availability_loss() {
            let (topo, scheme) = engine_fixture(4, 2);
            let mut engine = Engine::new(&scheme, &topo);
            let mut rng = StdRng::seed_from_u64(3);
            let run = engine.run_epoch_recovering(
                0,
                &[1; 4],
                &HashSet::from([topo.root()]),
                &[],
                &lossless(),
                &RecoveryConfig::default(),
                &mut rng,
            );
            assert!(matches!(run.outcome.result, Err(SchemeError::Malformed(_))));
            assert!(!run.aggregate_corrupted);
        }

        #[test]
        fn covert_attacks_poison_ground_truth() {
            // Drop and Duplicate change the fused count, which PlainSum's
            // count check catches; Tamper slips through PlainSum but the
            // ground-truth flag still marks the aggregate corrupted.
            let (topo, scheme) = engine_fixture(8, 2);
            let victim = topo.source_node(3).unwrap();
            for (attack, expect_reject) in [
                (Attack::DropAtNode(victim), true),
                (Attack::DuplicateAtNode(victim), true),
                (Attack::TamperAtNode(victim), false),
            ] {
                let mut engine = Engine::new(&scheme, &topo);
                let mut rng = StdRng::seed_from_u64(4);
                let run = engine.run_epoch_recovering(
                    0,
                    &[1; 8],
                    &HashSet::new(),
                    &[attack],
                    &lossless(),
                    &RecoveryConfig::default(),
                    &mut rng,
                );
                assert!(
                    run.aggregate_corrupted,
                    "{attack:?} must poison the aggregate"
                );
                assert_eq!(
                    matches!(run.outcome.result, Err(SchemeError::VerificationFailed(_))),
                    expect_reject,
                    "unexpected verdict for {attack:?}"
                );
            }
        }

        #[test]
        fn drop_wins_over_duplicate_in_either_order() {
            let (topo, scheme) = engine_fixture(8, 2);
            let victim = topo.source_node(3).unwrap();
            let run = |attacks: &[Attack]| {
                let mut engine = Engine::new(&scheme, &topo);
                let mut rng = StdRng::seed_from_u64(8);
                let none = HashSet::new();
                let cfg = RecoveryConfig::default();
                let run = engine.run_epoch_recovering(
                    0,
                    &[1; 8],
                    &none,
                    attacks,
                    &lossless(),
                    &cfg,
                    &mut rng,
                );
                (run.outcome.result, run.aggregate_corrupted)
            };
            let (drop, dup) = (Attack::DropAtNode(victim), Attack::DuplicateAtNode(victim));
            let (result, corrupted) = run(&[drop, dup]);
            assert_eq!((result.clone(), corrupted), run(&[dup, drop]));
            assert!(corrupted);
            assert!(
                matches!(&result, Err(SchemeError::VerificationFailed(m)) if m.starts_with("7 contributions")),
                "{result:?}"
            );
        }

        #[test]
        fn attack_on_honestly_lost_subtree_is_not_corruption() {
            // The attacker sits at the parent of a source that crashed:
            // there is no PSR to tamper with, so the aggregate stays
            // clean and the epoch verifies over the survivors.
            let (topo, scheme) = engine_fixture(8, 2);
            let victim = topo.source_node(3).unwrap();
            let mut engine = Engine::new(&scheme, &topo);
            let mut rng = StdRng::seed_from_u64(5);
            let run = engine.run_epoch_recovering(
                0,
                &[1; 8],
                &HashSet::from([victim]),
                &[Attack::TamperAtNode(victim)],
                &lossless(),
                &RecoveryConfig::default(),
                &mut rng,
            );
            assert!(!run.aggregate_corrupted);
            assert_eq!(run.outcome.result.unwrap().sum, 7.0);
        }

        #[test]
        fn lossy_epochs_never_false_reject() {
            let (topo, scheme) = engine_fixture(16, 4);
            let mut engine = Engine::new(&scheme, &topo);
            let radio = LossyRadio::new(0.3, 1);
            let cfg = RecoveryConfig::new(1, 0.5);
            let mut rng = StdRng::seed_from_u64(6);
            let values: Vec<u64> = (1..=16).collect();
            let mut losses_seen = false;
            for epoch in 0..50 {
                let run = engine.run_epoch_recovering(
                    epoch,
                    &values,
                    &HashSet::new(),
                    &[],
                    &radio,
                    &cfg,
                    &mut rng,
                );
                assert!(!run.aggregate_corrupted);
                match run.outcome.result {
                    Ok(res) => {
                        let expected: u64 = run
                            .outcome
                            .stats
                            .contributors
                            .iter()
                            .map(|&s| values[s as usize])
                            .sum();
                        assert_eq!(res.sum, expected as f64);
                    }
                    Err(SchemeError::Malformed(_)) => {} // availability loss
                    Err(e) => panic!("honest loss misread as attack: {e:?}"),
                }
                losses_seen |= run.report.lost_links > 0;
            }
            assert!(losses_seen, "30% loss never cost a link in 50 epochs");
        }

        #[test]
        fn recovery_traffic_is_accounted() {
            let (topo, scheme) = engine_fixture(16, 4);
            let mut engine = Engine::new(&scheme, &topo);
            let radio = LossyRadio::new(0.4, 3);
            let mut rng = StdRng::seed_from_u64(7);
            let run = engine.run_epoch_recovering(
                0,
                &[1; 16],
                &HashSet::new(),
                &[],
                &radio,
                &RecoveryConfig::default(),
                &mut rng,
            );
            let bytes = &run.outcome.stats.bytes;
            assert!(bytes.retransmit > 0, "40% loss must cause retransmissions");
            assert!(
                bytes.control > 0,
                "ACKs alone make control traffic non-zero"
            );
            assert!(bytes.overhead_factor() > 1.0);
            // First-copy data classes stay comparable to the lossless
            // run: at most one PSR per surviving edge (20 uplinks plus
            // the sink→querier hop).
            assert!(bytes.data_total() <= 21 * 16);
        }
    }
}
