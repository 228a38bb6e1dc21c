//! Property-based equivalence oracles for the topology and the epoch
//! walk.
//!
//! * [`RefTree`] is the pointer tree the arena replaced, kept here as
//!   test support: a `Vec` of nodes with owned child lists, built by its
//!   own complete and random builders. Both of the arena's builders must
//!   match it from the same inputs: same nodes, edges, depths, source
//!   placement, post-order, subtree ranges and repair plans under random
//!   crash sets, and `random_tree` must leave the caller's RNG where the
//!   reference's builder leaves it. No test converts one into the other.
//! * [`Engine::run_epoch_with`] and [`Engine::run_epochs`] must agree
//!   with [`Reference`], a recursive fold over the [`RefTree`] that
//!   shares no code with `sies-net`'s topology or walk: same verdicts,
//!   final PSRs, replay cache, contributors, run counts and per-class
//!   bytes, under random failures, covert attacks, rejected readings and
//!   refused merges, at every thread count.
//! * [`Engine::run_epoch_recovering`] must agree with the reference's
//!   recovering fold, which keeps per-node contributor lists and poison
//!   flags where the walk keeps cut ranges, under random crash sets,
//!   attacks, rejected readings, refused merges and lossy links, at every
//!   thread count.
//!   Both draw each uplink's outcomes from [`uplink_stream`]: that
//!   stream is the contract, not walk code.
//! * One deterministic test refuses, crashes and silences every
//!   aggregator of two trees in turn at threads 1–8, so every node the
//!   shard walk defers to the join meets every fault.
//! * Another places faults at the edges of the chunks a shard walk
//!   initialises in one batch ([`CHUNK`] live sources), at a population
//!   of several chunks per shard.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sies_net::engine::{Attack, EdgeBytes, Engine, EpochOutcome, RecoveredEpoch};
use sies_net::pipeline::CHUNK;
use sies_net::radio::LossyRadio;
use sies_net::recovery::{
    uplink_stream, RecoveryConfig, RecoveryReport, ACK_BYTES, FAILURE_REPORT_BYTES, NACK_BYTES,
    REATTACH_BYTES, RESOLICIT_BYTES,
};
use sies_net::scheme::{AggregationScheme, EvaluatedSum, SchemeError};
use sies_net::{NodeId, RepairPlan, Threads, Topology};
use std::collections::HashSet;

/// The role a [`RefNode`] plays in the aggregation tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Source(u32),
    Aggregator,
}

/// One node of the reference tree.
struct RefNode {
    /// Parent node (`None` for the sink).
    parent: Option<NodeId>,
    /// Children, in child order; empty for sources.
    children: Vec<NodeId>,
    role: Role,
    /// Hop distance from the sink (sink = 0).
    depth: usize,
}

/// The pointer-based aggregation tree, built bottom-up like the paper's
/// complete tree: every group of one level is adopted by a fresh
/// aggregator at the next, until a single aggregator (the sink)
/// remains, even over a single source.
struct RefTree {
    nodes: Vec<RefNode>,
    root: NodeId,
}

impl RefTree {
    fn complete_tree(num_sources: u64, fanout: usize) -> Self {
        Self::build(num_sources, |level| {
            level.chunks(fanout).map(<[NodeId]>::to_vec).collect()
        })
    }

    /// Groups of 1 to `max_fanout` nodes, one draw per group.
    fn random_tree(rng: &mut dyn RngCore, num_sources: u64, max_fanout: usize) -> Self {
        Self::build(num_sources, |level| {
            let mut groups = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let take = rng.random_range(1..=max_fanout).min(level.len() - i);
                groups.push(level[i..i + take].to_vec());
                i += take;
            }
            groups
        })
    }

    /// `groups` cuts one level into the child lists of the next.
    fn build(num_sources: u64, mut groups: impl FnMut(&[NodeId]) -> Vec<Vec<NodeId>>) -> Self {
        let mut nodes: Vec<RefNode> = (0..num_sources as u32)
            .map(|sid| RefNode {
                parent: None,
                children: Vec::new(),
                role: Role::Source(sid),
                depth: 0,
            })
            .collect();
        let mut level: Vec<NodeId> = (0..nodes.len()).collect();
        while level.len() > 1 || matches!(nodes[level[0]].role, Role::Source(_)) {
            let mut next = Vec::new();
            for children in groups(&level) {
                let id = nodes.len();
                for &child in &children {
                    nodes[child].parent = Some(id);
                }
                nodes.push(RefNode {
                    parent: None,
                    children,
                    role: Role::Aggregator,
                    depth: 0,
                });
                next.push(id);
            }
            level = next;
        }
        let root = level[0];
        let mut stack = vec![(root, 0usize)];
        while let Some((id, depth)) = stack.pop() {
            nodes[id].depth = depth;
            stack.extend(nodes[id].children.iter().map(|&c| (c, depth + 1)));
        }
        RefTree { nodes, root }
    }

    fn root(&self) -> NodeId {
        self.root
    }

    fn node(&self, id: NodeId) -> &RefNode {
        &self.nodes[id]
    }

    /// Children before parents, each node's last child first.
    fn post_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
            } else {
                stack.push((id, true));
                for &c in &self.nodes[id].children {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// The node hosting `source`, by a scan.
    fn source_node(&self, source: u32) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.role == Role::Source(source))
    }

    /// All source ids in the subtree rooted at `id`, sorted.
    fn sources_under(&self, id: NodeId) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            match self.nodes[n].role {
                Role::Source(s) => out.push(s),
                Role::Aggregator => stack.extend(&self.nodes[n].children),
            }
        }
        out.sort_unstable();
        out
    }

    /// The nearest live ancestor of `orphan`'s parent.
    fn backup_parent(&self, orphan: NodeId, crashed: &HashSet<NodeId>) -> Option<NodeId> {
        let mut candidate = self.nodes[orphan].parent;
        while let Some(id) = candidate {
            if !crashed.contains(&id) {
                return Some(id);
            }
            candidate = self.nodes[id].parent;
        }
        None
    }

    /// Every live child of a crashed node re-attaches to its backup
    /// parent, or is stranded when it has none.
    fn repair_plan(&self, crashed: &HashSet<NodeId>) -> RepairPlan {
        let mut plan = RepairPlan::default();
        for (id, node) in self.nodes.iter().enumerate() {
            let Some(parent) = node.parent else { continue };
            if crashed.contains(&id) || !crashed.contains(&parent) {
                continue;
            }
            match self.backup_parent(id, crashed) {
                Some(backup) => {
                    plan.adoptions.insert(id, backup);
                }
                None => plan.stranded.push(id),
            }
        }
        plan
    }
}

/// A cheap transparent scheme whose PSR preserves merge structure
/// (weighted sum + count), so any reordering or regrouping of merge
/// inputs that slipped through would still be caught by the sum even
/// though SUM itself is commutative: positions weight the values.
/// `reject` names one source whose readings `try_source_init` refuses,
/// `refuse_merge` a contribution count whose merges `try_merge` refuses,
/// and `refuse_node` the one merge it refuses by its output's
/// `(first, height)`.
struct WeightedSum {
    reject: Option<u32>,
    refuse_merge: Option<u64>,
    refuse_node: Option<(u32, u32)>,
}

/// The scheme with every reading and merge accepted.
const WSUM: WeightedSum = WeightedSum {
    reject: None,
    refuse_merge: None,
    refuse_node: None,
};

#[derive(Clone, Copy, Debug, PartialEq)]
struct WPsr {
    sum: u64,
    count: u64,
    /// Order-sensitive fingerprint: each merge hashes its inputs in
    /// sequence, so child-order mistakes change this even when `sum`
    /// stays the same.
    fingerprint: u64,
    /// The smallest source folded in.
    first: u32,
    /// Merges on the longest path down to a source. In a clean epoch
    /// `(first, height)` names one aggregator's merge: two aggregators
    /// with the same smallest source lie on one path from the sink, and
    /// the upper one is higher, even in a chain of one-child aggregators.
    height: u32,
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

impl AggregationScheme for WeightedSum {
    type Psr = WPsr;

    fn name(&self) -> &'static str {
        "WSUM"
    }

    fn source_init(&self, source: u32, epoch: u64, value: u64) -> WPsr {
        WPsr {
            sum: value,
            count: 1,
            fingerprint: mix(mix(epoch, source as u64), value),
            first: source,
            height: 0,
        }
    }

    fn try_source_init(&self, source: u32, epoch: u64, value: u64) -> Result<WPsr, SchemeError> {
        if self.reject == Some(source) {
            return Err(SchemeError::Malformed(format!("source {source} rejected")));
        }
        Ok(self.source_init(source, epoch, value))
    }

    fn try_merge(&self, psrs: &[WPsr]) -> Result<WPsr, SchemeError> {
        let merged = self.merge(psrs);
        let refused = self.refuse_merge == Some(merged.count)
            || self.refuse_node == Some((merged.first, merged.height));
        if refused {
            return Err(SchemeError::Malformed(format!(
                "merge of {} refused",
                merged.count
            )));
        }
        Ok(merged)
    }

    fn merge(&self, psrs: &[WPsr]) -> WPsr {
        let mut fingerprint = 0xA5A5_A5A5u64;
        for p in psrs {
            fingerprint = mix(fingerprint, p.fingerprint);
        }
        WPsr {
            sum: psrs.iter().map(|p| p.sum).sum(),
            count: psrs.iter().map(|p| p.count).sum(),
            fingerprint,
            first: psrs.iter().map(|p| p.first).min().unwrap_or(u32::MAX),
            height: 1 + psrs.iter().map(|p| p.height).max().unwrap_or(0),
        }
    }

    fn evaluate(
        &self,
        final_psr: &WPsr,
        _epoch: u64,
        contributors: &[u32],
    ) -> Result<EvaluatedSum, SchemeError> {
        if final_psr.count != contributors.len() as u64 {
            return Err(SchemeError::VerificationFailed("count mismatch".into()));
        }
        Ok(EvaluatedSum {
            sum: final_psr.sum as f64,
            integrity_checked: true,
        })
    }

    /// Marks the PSR so a sink pass skipped, or run twice, shows.
    fn sink_finalize(&self, psr: WPsr) -> WPsr {
        WPsr {
            fingerprint: mix(psr.fingerprint, 0x51),
            ..psr
        }
    }

    /// Varies with the count, so bytes charged for the wrong PSR show.
    fn psr_wire_size(&self, psr: &WPsr) -> usize {
        16 + (psr.count % 7) as usize
    }

    /// Also marks the fingerprint, so a tamper moved across the sink
    /// pass shows.
    fn tamper(&self, psr: &mut WPsr) {
        psr.sum += 1;
        psr.fingerprint = mix(psr.fingerprint, 0x7A);
    }
}

/// One epoch as [`Reference`] computes it.
#[derive(Debug, Clone, PartialEq)]
struct RefEpoch<P> {
    result: Result<EvaluatedSum, SchemeError>,
    /// The replay cache after the epoch: the last final PSR the querier
    /// saw (stale when the epoch aborted before evaluation).
    last_final: Option<P>,
    contributors: Vec<u32>,
    sources_run: u64,
    aggregators_run: u64,
    bytes: EdgeBytes,
}

/// The engine's epoch semantics, written as a recursive fold over the
/// pointer [`RefTree`] so it shares no code with the arena or the shard
/// walk:
///
/// * a failed node sends nothing and discards what its children sent,
///   but its descendants still initialise, merge and transmit;
/// * an aggregator merges the copies its children sent, in child order,
///   and sends nothing when none arrived;
/// * tamper, drop and duplicate act on a node's outgoing PSR after its
///   merge (after the sink pass at the sink) and before its bytes are
///   charged; `ReplayFinal` swaps in the previous final PSR;
/// * the walk visits nodes in post-order (last child first) and the
///   first scheme error ends the epoch with the counts reached so far.
struct Reference<'a, S: AggregationScheme> {
    scheme: &'a S,
    topo: &'a RefTree,
    last_final: Option<S::Psr>,
}

/// The per-epoch state of one [`Reference`] fold.
struct Fold<'r, S: AggregationScheme> {
    scheme: &'r S,
    topo: &'r RefTree,
    epoch: u64,
    values: &'r [u64],
    failed: &'r HashSet<NodeId>,
    attacks: &'r [Attack],
    sources_run: u64,
    aggregators_run: u64,
    bytes: EdgeBytes,
}

impl<S: AggregationScheme> Fold<'_, S> {
    /// Folds the subtree of `id`; returns the PSR copies `id` sends up.
    fn visit(&mut self, id: NodeId) -> Result<Vec<S::Psr>, SchemeError> {
        let node = self.topo.node(id);
        let mut sent: Vec<Vec<S::Psr>> = vec![Vec::new(); node.children.len()];
        for (i, &c) in node.children.iter().enumerate().rev() {
            sent[i] = self.visit(c)?;
        }
        if self.failed.contains(&id) {
            return Ok(Vec::new());
        }
        let mut psr = match node.role {
            Role::Source(sid) => {
                self.sources_run += 1;
                self.scheme
                    .try_source_init(sid, self.epoch, self.values[sid as usize])?
            }
            Role::Aggregator => {
                let inputs = sent.concat();
                if inputs.is_empty() {
                    return Ok(Vec::new());
                }
                self.aggregators_run += 1;
                let merged = self.scheme.try_merge(&inputs)?;
                if node.parent.is_none() {
                    self.scheme.sink_finalize(merged)
                } else {
                    merged
                }
            }
        };
        let (mut dropped, mut copies) = (false, 1usize);
        for attack in self.attacks {
            match *attack {
                Attack::TamperAtNode(n) if n == id => self.scheme.tamper(&mut psr),
                Attack::DropAtNode(n) if n == id => dropped = true,
                Attack::DuplicateAtNode(n) if n == id => copies += 1,
                _ => {}
            }
        }
        if dropped {
            return Ok(Vec::new());
        }
        let size = (self.scheme.psr_wire_size(&psr) * copies) as u64;
        match (node.parent, node.role) {
            (None, _) => self.bytes.agg_to_querier += size,
            (Some(_), Role::Source(_)) => {
                self.bytes.source_to_agg += size;
                self.bytes.source_to_agg_edges += 1;
            }
            (Some(_), Role::Aggregator) => {
                self.bytes.agg_to_agg += size;
                self.bytes.agg_to_agg_edges += 1;
            }
        }
        Ok(vec![psr; copies])
    }
}

/// One recovering epoch as [`Reference::recovering`] computes it.
#[derive(Debug, Clone, PartialEq)]
struct RefRecovered<P> {
    epoch: RefEpoch<P>,
    report: RecoveryReport,
    repairs: RepairPlan,
    corrupted: bool,
}

/// What a node's PSR brings the live node that receives it: the copies,
/// the sources they report, and whether a covert attack touched them.
struct Up<P> {
    copies: Vec<P>,
    contributors: Vec<u32>,
    poisoned: bool,
}

impl<P> Default for Up<P> {
    fn default() -> Self {
        Up {
            copies: Vec::new(),
            contributors: Vec::new(),
            poisoned: false,
        }
    }
}

/// The per-epoch state of one recovering [`Reference`] fold, with the
/// recovery rules:
///
/// * a crashed node sends nothing, and its children's copies take its
///   place, in child order, at its nearest live ancestor;
/// * a live node with nothing to send (a rejected reading, an empty
///   window, a failed merge) is silent: its receiver sends one failure
///   report of (receiver depth + 1) hops and it reports no sources;
/// * every sent PSR runs one uplink on `uplink_stream(draw, node)`: the
///   first copy in its Table V class, retransmitted bytes, ACK, NACK and
///   re-solicitation frames (one per hop); an undelivered PSR is a lost
///   link, and silent;
/// * covert attacks act at the receiver after it ACKed (a drop wins
///   over a duplicate): the sources stay reported, and the aggregate is
///   poisoned while every PSR above reaches the sink.
struct Recover<'r, S: AggregationScheme> {
    scheme: &'r S,
    topo: &'r RefTree,
    epoch: u64,
    values: &'r [u64],
    crashed: &'r HashSet<NodeId>,
    attacks: &'r [Attack],
    radio: &'r LossyRadio,
    recovery: &'r RecoveryConfig,
    draw: u64,
    sources_run: u64,
    aggregators_run: u64,
    bytes: EdgeBytes,
    report: RecoveryReport,
}

impl<S: AggregationScheme> Recover<'_, S> {
    /// Adds to `window` what `id` brings the live node `hops - 1` deep
    /// that receives it.
    fn gather(&mut self, id: NodeId, hops: u64, window: &mut Up<S::Psr>) {
        if self.crashed.contains(&id) {
            for &c in &self.topo.node(id).children {
                self.gather(c, hops, window);
            }
            return;
        }
        let up = self.send(id, hops);
        window.copies.extend(up.copies);
        window.contributors.extend(up.contributors);
        window.poisoned |= up.poisoned;
    }

    /// Folds live `id`'s subtree and runs its uplink to its receiver.
    fn send(&mut self, id: NodeId, hops: u64) -> Up<S::Psr> {
        let node = self.topo.node(id);
        let (psr, mut up) = match node.role {
            Role::Source(sid) => {
                self.sources_run += 1;
                let value = self.values[sid as usize];
                match self.scheme.try_source_init(sid, self.epoch, value) {
                    Ok(psr) => {
                        let up = Up {
                            contributors: vec![sid],
                            ..Up::default()
                        };
                        (psr, up)
                    }
                    Err(_) => {
                        self.report.init_failures += 1;
                        return self.silent(hops);
                    }
                }
            }
            Role::Aggregator => {
                let mut window = Up::default();
                for &c in &node.children {
                    self.gather(c, node.depth as u64 + 1, &mut window);
                }
                if window.copies.is_empty() {
                    return self.silent(hops);
                }
                self.aggregators_run += 1;
                match self.scheme.try_merge(&window.copies) {
                    Ok(psr) => (
                        psr,
                        Up {
                            copies: Vec::new(),
                            ..window
                        },
                    ),
                    Err(_) => {
                        self.report.merge_failures += 1;
                        return self.silent(hops);
                    }
                }
            }
        };
        let size = self.scheme.psr_wire_size(&psr) as u64;
        let mut stream = uplink_stream(self.draw, id);
        let out = self.recovery.simulate_uplink(self.radio, &mut stream);
        if matches!(node.role, Role::Source(_)) {
            self.bytes.source_to_agg += size;
            self.bytes.source_to_agg_edges += 1;
        } else {
            self.bytes.agg_to_agg += size;
            self.bytes.agg_to_agg_edges += 1;
        }
        self.bytes.retransmit += size * (out.data_attempts as u64 - 1);
        self.bytes.control += out.acks as u64 * ACK_BYTES as u64
            + out.nacks as u64 * NACK_BYTES as u64
            + out.resolicit_rounds_used as u64 * RESOLICIT_BYTES as u64 * hops;
        let r = &mut self.report;
        r.link.attempts += out.data_attempts as u64;
        r.link.retransmitted_links += (out.data_attempts > 1) as u64;
        r.acks += out.acks as u64;
        r.nacks += out.nacks as u64;
        r.resolicitations += out.resolicit_rounds_used as u64;
        r.backoff_ms += out.backoff_ms;
        if !out.delivered {
            r.link.failed_links += 1;
            r.lost_links += 1;
            return self.silent(hops);
        }
        r.delivered_links += 1;
        r.recovered_by_resolicit += (out.resolicit_rounds_used > 0) as u64;
        let (mut psr, mut dropped, mut copies) = (psr, false, 1usize);
        for attack in self.attacks {
            match *attack {
                Attack::TamperAtNode(n) if n == id => self.scheme.tamper(&mut psr),
                Attack::DropAtNode(n) if n == id => dropped = true,
                Attack::DuplicateAtNode(n) if n == id => copies += 1,
                _ => continue,
            }
            up.poisoned = true;
        }
        if !dropped {
            up.copies = vec![psr; copies];
        }
        up
    }

    /// A node its receiver hears nothing from.
    fn silent(&mut self, hops: u64) -> Up<S::Psr> {
        self.report.failure_reports += 1;
        self.bytes.control += FAILURE_REPORT_BYTES as u64 * hops;
        Up::default()
    }
}

/// Sources with no failed node between them and the sink, unsorted.
fn live_sources(topo: &RefTree, id: NodeId, failed: &HashSet<NodeId>, out: &mut Vec<u32>) {
    if failed.contains(&id) {
        return;
    }
    match topo.node(id).role {
        Role::Source(sid) => out.push(sid),
        Role::Aggregator => {
            for &c in &topo.node(id).children {
                live_sources(topo, c, failed, out);
            }
        }
    }
}

impl<'a, S: AggregationScheme> Reference<'a, S> {
    fn new(scheme: &'a S, topo: &'a RefTree) -> Self {
        Reference {
            scheme,
            topo,
            last_final: None,
        }
    }

    fn epoch(
        &mut self,
        epoch: u64,
        values: &[u64],
        failed: &HashSet<NodeId>,
        attacks: &[Attack],
    ) -> RefEpoch<S::Psr> {
        let mut contributors = Vec::new();
        live_sources(self.topo, self.topo.root(), failed, &mut contributors);
        contributors.sort_unstable();
        let mut fold = Fold {
            scheme: self.scheme,
            topo: self.topo,
            epoch,
            values,
            failed,
            attacks,
            sources_run: 0,
            aggregators_run: 0,
            bytes: EdgeBytes::default(),
        };
        let result = match fold.visit(self.topo.root()).map(|mut sent| sent.pop()) {
            Err(e) => Err(e),
            Ok(None) => Err(SchemeError::Malformed(
                "no PSR reached the querier (all subtrees failed)".into(),
            )),
            Ok(Some(mut final_psr)) => {
                if attacks.contains(&Attack::ReplayFinal) {
                    if let Some(prev) = &self.last_final {
                        final_psr = prev.clone();
                    }
                }
                self.last_final = Some(final_psr.clone());
                self.scheme.evaluate(&final_psr, epoch, &contributors)
            }
        };
        RefEpoch {
            result,
            last_final: self.last_final.clone(),
            contributors,
            sources_run: fold.sources_run,
            aggregators_run: fold.aggregators_run,
            bytes: fold.bytes,
        }
    }
}

impl<'a, S: AggregationScheme> Reference<'a, S> {
    /// One epoch under the recovery protocol: the epoch's draw from
    /// `rng` keys every uplink's stream.
    #[allow(clippy::too_many_arguments)]
    fn recovering(
        &mut self,
        epoch: u64,
        values: &[u64],
        crashed: &HashSet<NodeId>,
        attacks: &[Attack],
        radio: &LossyRadio,
        recovery: &RecoveryConfig,
        rng: &mut StdRng,
    ) -> RefRecovered<S::Psr> {
        let draw = rng.next_u64();
        let topo = self.topo;
        let repairs = topo.repair_plan(crashed);
        let report = RecoveryReport {
            adoptions: repairs.adoptions.len() as u64,
            stranded: repairs.stranded.len() as u64,
            ..RecoveryReport::default()
        };
        let root = topo.root();
        let lost = || {
            Err(SchemeError::Malformed(
                "no PSR reached the querier (all subtrees failed)".into(),
            ))
        };
        if crashed.contains(&root) {
            let epoch = RefEpoch {
                result: Err(SchemeError::Malformed("sink crashed; epoch lost".into())),
                last_final: self.last_final.clone(),
                contributors: Vec::new(),
                sources_run: 0,
                aggregators_run: 0,
                bytes: EdgeBytes::default(),
            };
            return RefRecovered {
                epoch,
                report,
                repairs,
                corrupted: false,
            };
        }
        let mut fold = Recover {
            scheme: self.scheme,
            topo,
            epoch,
            values,
            crashed,
            attacks,
            radio,
            recovery,
            draw,
            sources_run: 0,
            aggregators_run: 0,
            bytes: EdgeBytes {
                control: (REATTACH_BYTES + ACK_BYTES) as u64 * report.adoptions,
                ..EdgeBytes::default()
            },
            report,
        };
        // A live parent reports each crashed child.
        for id in crashed {
            if let Some(parent) = topo.node(*id).parent.filter(|p| !crashed.contains(p)) {
                fold.report.failure_reports += 1;
                fold.bytes.control +=
                    FAILURE_REPORT_BYTES as u64 * (topo.node(parent).depth as u64 + 1);
            }
        }
        let mut window = Up::default();
        for &c in &topo.node(root).children {
            fold.gather(c, 1, &mut window);
        }
        let (result, contributors, corrupted) = if window.copies.is_empty() {
            (lost(), Vec::new(), false)
        } else {
            fold.aggregators_run += 1;
            match self.scheme.try_merge(&window.copies) {
                Err(_) => {
                    fold.report.merge_failures += 1;
                    (lost(), Vec::new(), false)
                }
                Ok(merged) => {
                    let mut final_psr = self.scheme.sink_finalize(merged);
                    let mut corrupted = window.poisoned;
                    let (mut dropped, mut copies) = (false, 1u64);
                    for attack in attacks {
                        match *attack {
                            Attack::TamperAtNode(n) if n == root => {
                                self.scheme.tamper(&mut final_psr);
                                corrupted = true;
                            }
                            Attack::DropAtNode(n) if n == root => dropped = true,
                            Attack::DuplicateAtNode(n) if n == root => copies += 1,
                            _ => {}
                        }
                    }
                    if dropped {
                        (lost(), Vec::new(), false)
                    } else {
                        fold.bytes.agg_to_querier +=
                            self.scheme.psr_wire_size(&final_psr) as u64 * copies;
                        if attacks.contains(&Attack::ReplayFinal) {
                            if let Some(prev) = &self.last_final {
                                final_psr = prev.clone();
                                corrupted = true;
                            }
                        }
                        self.last_final = Some(final_psr.clone());
                        let mut contributors = window.contributors;
                        contributors.sort_unstable();
                        let result = self.scheme.evaluate(&final_psr, epoch, &contributors);
                        (result, contributors, corrupted)
                    }
                }
            }
        };
        fold.report.control_bytes = fold.bytes.control;
        RefRecovered {
            epoch: RefEpoch {
                result,
                last_final: self.last_final.clone(),
                contributors,
                sources_run: fold.sources_run,
                aggregators_run: fold.aggregators_run,
                bytes: fold.bytes,
            },
            report: fold.report,
            repairs,
            corrupted,
        }
    }
}

/// A random recovering-epoch perturbation: each node crashes with
/// probability `crash_pct`% (the sink included, so crashes nest), plus
/// up to two covert attacks or final-PSR replays, a fifth of them on
/// the sink, a fifth on a crashed node when one exists and a fifth on
/// the previous attack's node.
fn random_chaos(
    rng: &mut StdRng,
    topo: &Topology,
    crash_pct: u32,
) -> (HashSet<NodeId>, Vec<Attack>) {
    let nodes = topo.num_nodes();
    let crashed: HashSet<NodeId> = (0..nodes)
        .filter(|_| rng.random_range(0..100u32) < crash_pct)
        .collect();
    let mut down: Vec<NodeId> = crashed.iter().copied().collect();
    down.sort_unstable();
    let mut target = None;
    let attacks = (0..rng.random_range(0..=2usize))
        .map(|_| {
            let node = match rng.random_range(0..5u32) {
                0 => topo.root(),
                1 if !down.is_empty() => down[rng.random_range(0..down.len())],
                2 if target.is_some() => target.unwrap(),
                _ => rng.random_range(0..nodes),
            };
            target = Some(node);
            match rng.random_range(0..4u32) {
                0 => Attack::TamperAtNode(node),
                1 => Attack::DropAtNode(node),
                2 => Attack::DuplicateAtNode(node),
                _ => Attack::ReplayFinal,
            }
        })
        .collect();
    (crashed, attacks)
}

/// A random epoch perturbation: each node fails with probability
/// `fail_pct`% (the sink included), plus up to `max_attacks` covert
/// attacks on any node (the sink included) or final-PSR replays.
fn random_faults(
    rng: &mut StdRng,
    topo: &Topology,
    fail_pct: u32,
    max_attacks: usize,
) -> (HashSet<NodeId>, Vec<Attack>) {
    let nodes = topo.num_nodes();
    let failed = (0..nodes)
        .filter(|_| rng.random_range(0..100u32) < fail_pct)
        .collect();
    let attacks = (0..rng.random_range(0..=max_attacks))
        .map(|_| {
            // A quarter of the attacks hit the sink, whose outgoing PSR
            // takes the sink pass first.
            let node = match rng.random_range(0..4u32) {
                0 => topo.root(),
                _ => rng.random_range(0..nodes),
            };
            match rng.random_range(0..4u32) {
                0 => Attack::TamperAtNode(node),
                1 => Attack::DropAtNode(node),
                2 => Attack::DuplicateAtNode(node),
                _ => Attack::ReplayFinal,
            }
        })
        .collect();
    (failed, attacks)
}

/// The arena and the reference tree, each built by its own random-tree
/// builder from the same seed.
fn random_trees(seed: u64, n: u64, fanout: usize) -> (Topology, RefTree) {
    let topo = Topology::random_tree(&mut StdRng::seed_from_u64(seed), n, fanout);
    let tree = RefTree::random_tree(&mut StdRng::seed_from_u64(seed), n, fanout);
    (topo, tree)
}

/// Both of the arena's builders against the reference's, from the same
/// `seed`, `n` and `fanout`.
fn builders_agree(seed: u64, n: u64, fanout: usize) -> Result<(), TestCaseError> {
    let (mut topo_rng, mut tree_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let pairs = [
        (
            Topology::complete_tree(n, fanout),
            RefTree::complete_tree(n, fanout),
        ),
        (
            Topology::random_tree(&mut topo_rng, n, fanout),
            RefTree::random_tree(&mut tree_rng, n, fanout),
        ),
    ];
    prop_assert!(
        topo_rng.next_u64() == tree_rng.next_u64(),
        "random_tree left the RNG elsewhere"
    );
    for (topo, tree) in &pairs {
        prop_assert_eq!(topo.validate(), Ok(()));
        prop_assert_eq!(topo.num_nodes(), tree.nodes.len());
        prop_assert_eq!(topo.root(), tree.root());
        prop_assert_eq!(topo.num_sources(), n);
        let post: Vec<NodeId> = topo.post_order().iter().map(|&id| id as NodeId).collect();
        prop_assert_eq!(&post, &tree.post_order());
        for (id, node) in tree.nodes.iter().enumerate() {
            prop_assert_eq!(topo.parent(id), node.parent);
            prop_assert_eq!(topo.depth(id), node.depth);
            let kids: Vec<NodeId> = topo.children(id).collect();
            prop_assert_eq!(&kids, &node.children);
            let sid = match node.role {
                Role::Source(sid) => Some(sid),
                Role::Aggregator => None,
            };
            prop_assert_eq!(topo.source_id(id), sid);
            // Subtree contiguity: the range holds exactly the reference
            // subtree's sources and ends at the node itself.
            let range = topo.subtree_range(id);
            prop_assert_eq!(post[range.end - 1], id);
            let mut under: Vec<u32> = post[range]
                .iter()
                .filter_map(|&v| topo.source_id(v))
                .collect();
            under.sort_unstable();
            prop_assert_eq!(under, tree.sources_under(id));
        }
        // One id past the last source too.
        for sid in 0..=n as u32 {
            prop_assert_eq!(topo.source_node(sid), tree.source_node(sid));
        }
    }
    Ok(())
}

/// An engine epoch's outcome in the reference's terms.
fn observed<S: AggregationScheme>(engine: &Engine<'_, S>, out: EpochOutcome) -> RefEpoch<S::Psr> {
    RefEpoch {
        result: out.result,
        last_final: engine.last_final_psr().cloned(),
        contributors: out.stats.contributors,
        sources_run: out.stats.sources_run,
        aggregators_run: out.stats.aggregators_run,
        bytes: out.stats.bytes,
    }
}

/// A recovering engine epoch in the reference's terms.
fn observed_recovering<S: AggregationScheme>(
    engine: &Engine<'_, S>,
    run: RecoveredEpoch,
) -> RefRecovered<S::Psr> {
    RefRecovered {
        epoch: observed(engine, run.outcome),
        report: run.report,
        repairs: run.repairs,
        corrupted: run.aggregate_corrupted,
    }
}

/// `(first, height)` of node `id`'s PSR in a clean epoch.
fn merge_id(topo: &RefTree, id: NodeId) -> (u32, u32) {
    let node = topo.node(id);
    match node.role {
        Role::Source(sid) => (sid, 0),
        Role::Aggregator => node
            .children
            .iter()
            .fold((u32::MAX, 0), |(first, height), &c| {
                let (f, h) = merge_id(topo, c);
                (first.min(f), height.max(h + 1))
            }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both builders against the reference's over random seeds, sizes
    /// and fanouts; [`builders_agree_on_the_smallest_trees`] pins N = 1
    /// and fanout ≥ N.
    #[test]
    fn arena_mirrors_legacy_on_random_trees(
        seed in any::<u64>(),
        n in 1u64..=300,
        fanout in 2usize..=6,
    ) {
        builders_agree(seed, n, fanout)?;
    }

    /// Both builders' repair plans and backup parents against the
    /// reference's under random crash sets, from none to most nodes
    /// down; the sink may crash too (the stranded branch).
    #[test]
    fn repair_plans_match_on_random_crash_sets(
        seed in any::<u64>(),
        n in 1u64..=300,
        fanout in 2usize..=6,
        crash_seed in any::<u64>(),
        crash_pct in 0u32..60,
    ) {
        let mut rng = StdRng::seed_from_u64(crash_seed);
        let (random, random_ref) = random_trees(seed, n, fanout);
        let complete = Topology::complete_tree(n, fanout);
        let complete_ref = RefTree::complete_tree(n, fanout);
        for (topo, tree) in [(&random, &random_ref), (&complete, &complete_ref)] {
            let crashed: HashSet<NodeId> = (0..topo.num_nodes())
                .filter(|_| rng.random_range(0..100u32) < crash_pct)
                .collect();
            prop_assert_eq!(topo.repair_plan(&crashed), tree.repair_plan(&crashed));
            for orphan in 0..topo.num_nodes() {
                prop_assert_eq!(
                    topo.backup_parent(orphan, &crashed),
                    tree.backup_parent(orphan, &crashed)
                );
            }
        }
    }

    #[test]
    fn engine_epochs_match_reference_fold(
        seed in any::<u64>(),
        n in 1u64..90,
        fanout in 2usize..6,
        threads in 1usize..9,
        fail_pct in 0u32..20,
        reject_pick in 0u32..3,
        reject_src in any::<u64>(),
    ) {
        let (topo, tree) = random_trees(seed, n, fanout);
        // A third of the cases refuse one source's readings and a third
        // the merges of one size, so the first-error abort is exercised
        // wherever the error sits.
        let scheme = WeightedSum {
            reject: (reject_pick == 0).then_some((reject_src % n) as u32),
            refuse_merge: (reject_pick == 1).then_some(reject_src % n + 1),
            ..WSUM
        };
        let mut engine = Engine::new(&scheme, &topo).with_threads(Threads::fixed(threads));
        let mut reference = Reference::new(&scheme, &tree);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
        for epoch in 0..4u64 {
            let values: Vec<u64> = (0..n).map(|i| mix(seed ^ epoch, i) & 0xFFFF).collect();
            let (failed, attacks) = random_faults(&mut rng, &topo, fail_pct, 2);
            let want = reference.epoch(epoch, &values, &failed, &attacks);
            let out = engine.run_epoch_with(epoch, &values, &failed, &attacks);
            let got = observed(&engine, out);
            prop_assert!(
                got == want,
                "epoch {epoch}, failed {failed:?}, attacks {attacks:?}\n got: {got:?}\nwant: {want:?}"
            );
        }
    }

    #[test]
    fn recovering_epochs_match_reference_fold(
        seed in any::<u64>(),
        n in 1u64..90,
        fanout in 2usize..6,
        threads in 1usize..9,
        crash_pct in 0u32..25,
        reject_pick in 0u32..3,
        reject_src in any::<u64>(),
        loss in 0.0f64..0.5,
        retries in 0u32..4,
        rounds in 0u32..3,
    ) {
        let (topo, tree) = random_trees(seed, n, fanout);
        let scheme = WeightedSum {
            reject: (reject_pick == 0).then_some((reject_src % n) as u32),
            refuse_merge: (reject_pick == 1).then_some(reject_src % n + 1),
            ..WSUM
        };
        let radio = LossyRadio::new(loss, retries);
        let recovery = RecoveryConfig::new(rounds, 0.5);
        let mut engine = Engine::new(&scheme, &topo).with_threads(Threads::fixed(threads));
        let mut reference = Reference::new(&scheme, &tree);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC0);
        for epoch in 0..4u64 {
            let values: Vec<u64> = (0..n).map(|i| mix(seed ^ epoch, i) & 0xFFFF).collect();
            let (crashed, attacks) = random_chaos(&mut rng, &topo, crash_pct);
            let link_seed = rng.next_u64();
            let want = reference.recovering(
                epoch, &values, &crashed, &attacks, &radio, &recovery,
                &mut StdRng::seed_from_u64(link_seed),
            );
            let run = engine.run_epoch_recovering(
                epoch, &values, &crashed, &attacks, &radio, &recovery,
                &mut StdRng::seed_from_u64(link_seed),
            );
            let got = observed_recovering(&engine, run);
            prop_assert!(
                got == want,
                "epoch {epoch}, crashed {crashed:?}, attacks {attacks:?}\n got: {got:?}\nwant: {want:?}"
            );
        }
    }

    #[test]
    fn pipeline_epochs_match_engine_on_random_trees(
        seed in any::<u64>(),
        n in 1u64..90,
        fanout in 2usize..6,
        threads in 1usize..9,
    ) {
        let (topo, tree) = random_trees(seed, n, fanout);
        let epochs = 3u64;

        // Single epochs and clean runs share one walk, so each is held
        // to the independent reference fold, not just to the other.
        let mut reference = Reference::new(&WSUM, &tree);
        let mut engine = Engine::new(&WSUM, &topo);
        let mut expected = Vec::new();
        for epoch in 0..epochs {
            let values: Vec<u64> =
                (0..n).map(|i| mix(seed ^ epoch, i) & 0xFFFF).collect();
            let want = reference.epoch(epoch, &values, &HashSet::new(), &[]);
            let out = engine.run_epoch(epoch, &values);
            prop_assert_eq!(&out.result, &want.result);
            prop_assert_eq!(engine.last_final_psr(), want.last_final.as_ref());
            prop_assert_eq!(&out.stats.contributors, &want.contributors);
            expected.push((want.last_final, want.result, want.contributors));
        }

        let mut engine = Engine::new(&WSUM, &topo).with_threads(Threads::fixed(threads));
        let mut got = Vec::new();
        engine.run_epochs(
            0,
            epochs,
            |epoch, values| {
                for (i, v) in values.iter_mut().enumerate() {
                    *v = mix(seed ^ epoch, i as u64) & 0xFFFF;
                }
            },
            |_, final_psr, result, contributors| {
                got.push((final_psr.copied(), result.clone(), contributors.to_vec()));
            },
        );
        prop_assert_eq!(&got, &expected);
    }
}

/// The smallest trees, which random sizes rarely reach: N = 1 and every
/// fanout at or above N, for both builders over a few seeds.
#[test]
fn builders_agree_on_the_smallest_trees() {
    for n in 1..=7u64 {
        for fanout in 2..=6 {
            for seed in 0..4 {
                builders_agree(seed, n, fanout).unwrap();
            }
        }
    }
}

/// Every fault on every aggregator at every thread count, held field for
/// field to the reference fold. Shards are cut at source quantiles
/// anywhere in the tree, so at some thread counts the faulty aggregator
/// is a node the shard walk defers to the join:
///
/// * refusing its merge is the first-error abort, whose counts stop
///   where the serial walk's do;
/// * crashing it forwards its children's copies, some from an earlier
///   shard, to its adopter;
/// * refusing its merge in a recovering epoch silences it, and its cut
///   swallows the cuts that lost uplinks left in earlier shards.
///
/// `complete_tree(64, 4)` has 21 aggregators, and at threads 3 and 5–8
/// a shard boundary falls inside a sink child's subtree; the random
/// tree's one-child aggregators make chains of deferred nodes.
#[test]
fn every_aggregator_fault_matches_reference_at_every_thread_count() {
    let radio = LossyRadio::new(0.3, 1);
    let recovery = RecoveryConfig::new(1, 0.5);
    let none = HashSet::new();
    for (topo, tree) in [
        (
            Topology::complete_tree(64, 4),
            RefTree::complete_tree(64, 4),
        ),
        random_trees(0x5EED, 90, 5),
    ] {
        let n = topo.num_sources();
        let values: Vec<u64> = (0..n).map(|i| mix(n, i) & 0xFFFF).collect();
        let aggregators = (0..topo.num_nodes()).filter(|&id| !topo.is_source(id));
        for a in aggregators {
            let refusing = WeightedSum {
                refuse_node: Some(merge_id(&tree, a)),
                ..WSUM
            };
            let crashed = HashSet::from([a]);
            let links = || StdRng::seed_from_u64(mix(n, a as u64));
            let abort = Reference::new(&refusing, &tree).epoch(0, &values, &none, &[]);
            assert!(
                matches!(&abort.result, Err(SchemeError::Malformed(e)) if e.contains("refused")),
                "aggregator {a}: its merge must be the one refused"
            );
            let crash = Reference::new(&WSUM, &tree).recovering(
                0,
                &values,
                &crashed,
                &[],
                &radio,
                &recovery,
                &mut links(),
            );
            let silenced = Reference::new(&refusing, &tree).recovering(
                0,
                &values,
                &none,
                &[],
                &radio,
                &recovery,
                &mut links(),
            );
            for threads in 1..=8 {
                let case = format!("{n} sources, aggregator {a}, threads {threads}");
                let threads = Threads::fixed(threads);
                let mut engine = Engine::new(&refusing, &topo).with_threads(threads);
                let out = engine.run_epoch_with(0, &values, &none, &[]);
                assert_eq!(observed(&engine, out), abort, "{case}: refused merge");
                let mut engine = Engine::new(&WSUM, &topo).with_threads(threads);
                let run = engine.run_epoch_recovering(
                    0,
                    &values,
                    &crashed,
                    &[],
                    &radio,
                    &recovery,
                    &mut links(),
                );
                assert_eq!(observed_recovering(&engine, run), crash, "{case}: crashed");
                let mut engine = Engine::new(&refusing, &topo).with_threads(threads);
                let run = engine.run_epoch_recovering(
                    0,
                    &values,
                    &none,
                    &[],
                    &radio,
                    &recovery,
                    &mut links(),
                );
                assert_eq!(
                    observed_recovering(&engine, run),
                    silenced,
                    "{case}: silenced"
                );
            }
        }
    }
}

/// Faults at the walk's chunk edges, held field for field to the
/// reference fold at threads 1, 2, 3 and 8. At N = 40 000 every shard
/// holds at least two full chunks at threads 8. Shard 0 begins at the
/// first source in post-order at every thread count, so with nothing
/// failed before them its chunks begin at the same sources, every
/// [`CHUNK`]-th, and the faults sit there:
///
/// * failed sources at an inner chunk's first and last job, and just
///   past an edge, alone and together;
/// * a failed aggregator whose subtree spans an edge;
/// * a rejected reading in the second chunk: the first-error abort;
/// * that aggregator's merge refused;
/// * crashes at the edges over lossy links, in recovering epochs;
/// * clean runs, one of them aborted by the rejected reading.
#[test]
fn faults_at_chunk_edges_match_reference() {
    let n = 40_000u64;
    let (topo, tree) = random_trees(0xC4, n, 5);
    let ranked: Vec<u32> = topo
        .post_order()
        .iter()
        .filter_map(|&id| topo.source_id(id as usize))
        .collect();
    let source = |rank: usize| topo.source_node(ranked[rank]).unwrap();
    let sources =
        |ranks: &[usize]| -> HashSet<NodeId> { ranks.iter().map(|&r| source(r)).collect() };
    let (edge, next_edge) = (CHUNK, 2 * CHUNK);
    // The lowest aggregator holding the sources either side of `edge`.
    let mut spanning = topo.parent(source(edge)).unwrap();
    while topo.subtree_range(spanning).start > topo.post_position(source(edge - 1)) {
        spanning = topo.parent(spanning).unwrap();
    }
    assert_ne!(
        spanning,
        topo.root(),
        "the edge splits a subtree below the sink"
    );
    let rejecting = WeightedSum {
        reject: Some(ranked[edge + 100]),
        ..WSUM
    };
    let refusing = WeightedSum {
        refuse_node: Some(merge_id(&tree, spanning)),
        ..WSUM
    };
    let values = |epoch: u64| -> Vec<u64> { (0..n).map(|i| mix(n ^ epoch, i) & 0xFFFF).collect() };
    let none = HashSet::new();
    let threads = [1, 2, 3, 8].map(Threads::fixed);

    let faulted = [
        ("no fault", &WSUM, none.clone()),
        (
            "failed first job, just past an edge",
            &WSUM,
            sources(&[edge]),
        ),
        ("failed last job", &WSUM, sources(&[next_edge - 1])),
        ("failed second job", &WSUM, sources(&[next_edge + 1])),
        (
            "failed sources either side of both edges",
            &WSUM,
            sources(&[edge - 1, edge, next_edge - 1, next_edge, next_edge + 1]),
        ),
        (
            "failed aggregator spanning an edge",
            &WSUM,
            HashSet::from([spanning]),
        ),
        (
            "rejected reading in the second chunk",
            &rejecting,
            none.clone(),
        ),
        ("refused merge spanning an edge", &refusing, none.clone()),
    ];
    for (case, scheme, failed) in &faulted {
        let want = Reference::new(*scheme, &tree).epoch(0, &values(0), failed, &[]);
        let aborts = scheme.reject.is_some() || scheme.refuse_node.is_some();
        assert_eq!(want.result.is_err(), aborts, "{case}: {:?}", want.result);
        for threads in threads {
            let mut engine = Engine::new(*scheme, &topo).with_threads(threads);
            let out = engine.run_epoch_with(0, &values(0), failed, &[]);
            let got = observed(&engine, out);
            assert!(got == want, "{case}, {threads:?}");
        }
    }

    let radio = LossyRadio::new(0.3, 1);
    let recovery = RecoveryConfig::new(1, 0.5);
    let crashes = [
        (&WSUM, HashSet::from([spanning, source(next_edge)])),
        (&rejecting, sources(&[edge, next_edge - 1])),
    ];
    for (k, (scheme, crashed)) in crashes.iter().enumerate() {
        let links = || StdRng::seed_from_u64(k as u64);
        let mut reference = Reference::new(*scheme, &tree);
        let want =
            reference.recovering(0, &values(0), crashed, &[], &radio, &recovery, &mut links());
        for threads in threads {
            let mut engine = Engine::new(*scheme, &topo).with_threads(threads);
            let run = engine.run_epoch_recovering(
                0,
                &values(0),
                crashed,
                &[],
                &radio,
                &recovery,
                &mut links(),
            );
            let got = observed_recovering(&engine, run);
            assert!(got == want, "crashes {crashed:?}, {threads:?}");
        }
    }

    for scheme in [&WSUM, &rejecting] {
        let mut reference = Reference::new(scheme, &tree);
        let want: Vec<_> = (0..2)
            .map(|epoch| {
                let want = reference.epoch(epoch, &values(epoch), &none, &[]);
                (want.last_final, want.result, want.contributors)
            })
            .collect();
        for threads in threads {
            let mut engine = Engine::new(scheme, &topo).with_threads(threads);
            let mut got = Vec::new();
            engine.run_epochs(
                0,
                2,
                |epoch, slots| slots.copy_from_slice(&values(epoch)),
                |_, final_psr, result, contributors| {
                    got.push((final_psr.copied(), result.clone(), contributors.to_vec()));
                },
            );
            assert!(
                got == want,
                "clean run, reject {:?}, {threads:?}",
                scheme.reject
            );
        }
    }
}

/// One deterministic SIES case so the cryptographic scheme (not just
/// the transparent one) is pinned through single epochs and clean runs
/// against the reference fold.
#[test]
fn sies_pipeline_matches_engine_deterministically() {
    use sies_core::SystemParams;
    use sies_net::deploy::SiesDeployment;

    let n = 96u64;
    let mut rng = StdRng::seed_from_u64(7);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let (topo, tree) = random_trees(11, n, 5);
    let values = |epoch: u64| -> Vec<u64> { (0..n).map(|i| (epoch * 37 + i * 3) % 4999).collect() };

    let mut reference = Reference::new(&dep, &tree);
    let mut expected = Vec::new();
    for epoch in 0..3u64 {
        let want = reference.epoch(epoch, &values(epoch), &HashSet::new(), &[]);
        expected.push((want.last_final.map(|p| p.to_bytes()), want.result));
    }

    for threads in [1usize, 4] {
        let mut engine = Engine::new(&dep, &topo).with_threads(Threads::fixed(threads));
        let got: Vec<_> = (0..3u64)
            .map(|epoch| {
                let result = engine.run_epoch(epoch, &values(epoch)).result;
                (engine.last_final_psr().map(|p| p.to_bytes()), result)
            })
            .collect();
        assert_eq!(got, expected, "single epochs, threads={threads}");
        let mut engine = Engine::new(&dep, &topo).with_threads(Threads::fixed(threads));
        let mut got = Vec::new();
        engine.run_epochs(
            0,
            3,
            |epoch, slots| slots.copy_from_slice(&values(epoch)),
            |_, final_psr, result, _| {
                got.push((final_psr.map(|p| p.to_bytes()), result.clone()));
            },
        );
        assert_eq!(got, expected, "clean run, threads={threads}");
    }
}
