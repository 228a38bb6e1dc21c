//! The epoch walk, and the streamed struct-of-arrays epoch pipeline for
//! million-sensor populations built on it.
//!
//! The walk (`Exec`: `produce` then `consume`) is the one execution
//! path of an epoch: [`EpochPipeline::run`] drives it on the clean path,
//! [`crate::engine::Engine::run_epoch_with`] drives it with the epoch's
//! honest failures and covert attacks, translated once per epoch to
//! marks on post-order positions, and
//! [`crate::engine::Engine::run_epoch_recovering`] drives it under the
//! recovery protocol. Over the [`Topology`] arena it gives:
//!
//! * **Sharding at source quantiles.** Every subtree is a contiguous
//!   segment of the arena's post-order, so the walk cuts the post-order
//!   below the sink into `min(threads, sources)` contiguous shards of
//!   ⌊n/T⌋ or ⌈n/T⌉ sources each, anywhere in the tree. Each worker
//!   walks its segment exactly as a serial post-order walk would —
//!   batched source init, then a stack merge — except for its
//!   *deferred* nodes, whose subtrees begin in an earlier shard: proper
//!   ancestors of its first position, at most the tree's depth of them
//!   per boundary, listed at plan time. Where the walk meets one it
//!   records a checkpoint of its state's heights and walks on; `produce`
//!   ends with a serial join that replays the later shards in order onto
//!   the first shard's state and runs each deferred node through the
//!   same per-node step, where the serial walk would. The final PSR is
//!   bit-identical for every thread count, and one thread means one
//!   shard with nothing deferred and nothing to join.
//! * **Exact accounting.** Run counts and per-class bytes accumulate in
//!   shard-local integers, one block per segment between checkpoints,
//!   and the join folds them in walk order; it stops at the first scheme
//!   error, in a shard or at a deferred node, so an aborted epoch
//!   reports what the serial walk had done when it stopped. No global
//!   counter or journal event runs per node.
//! * **Recovering epochs.** Each sent PSR crosses its uplink on its own
//!   random stream ([`crate::recovery::uplink_stream`]), so outcomes do
//!   not depend on the walk order. A crashed aggregator's children's
//!   copies pass up to its adopter through the window corrections, from
//!   an earlier shard if need be; a node its parent never hears leaves a
//!   cut post-order range, from which the engine reads the contributor
//!   set. A deferred node's cut swallows earlier shards' cuts inside its
//!   subtree, and its recovery events land in walk order.
//! * **Epoch streaming.** With `streaming` enabled, the pipeline holds
//!   two epoch buffers (otherwise one), which alternate through a
//!   one-producer hand-off: while the main thread
//!   merges/evaluates epoch `t`, a producer thread runs source init for
//!   epoch `t+1` in the other buffer. Results are identical with
//!   streaming on or off because the phases of one epoch never reorder —
//!   only phases of *different* epochs overlap.
//! * **Precompute-ahead.** When the scheme opts in
//!   ([`AggregationScheme::prewarm_enabled`]), a scoped warmer thread
//!   derives upcoming epochs' key material during the inter-epoch idle
//!   gap, paced by the consumer's progress watermark (no polling). For
//!   SIES that is both halves of Eq. 9's per-epoch PRFs: the sources'
//!   keys and shares, and the querier's `K_t⁻¹`, `Σ k_{i,t}` and
//!   `Σ ss_{i,t}`, which the pipeline's contributor list (every source
//!   in id order) lets a pooled epoch's evaluation use as they are, so
//!   the epoch is the encrypts, the merges and one decrypt.
//!   Digests cannot change: the scheme's pool contract requires pooled
//!   material to reproduce on-demand derivation bit-for-bit, so the
//!   warmer may lag, race, or be absent without observable effect.
//! * **No per-source allocation in steady state.** All per-epoch state
//!   (values, jobs, init results, merge stacks) lives in the reused
//!   `EpochBuf`s (one per epoch in flight); schemes write init results
//!   through [`AggregationScheme::batch_source_init_into`]. After a
//!   warm-up epoch per buffer, the pipeline itself performs no heap
//!   allocation per epoch at `threads = 1` (the `alloc_free`
//!   integration test pins this with a counting allocator and a trivial
//!   scheme). SIES adds none of its own: its PRF sweeps run in stack
//!   tiles, its epoch cipher and `K_t⁻¹` use the Montgomery context
//!   built at setup, and a serial evaluation sums in place, so a warm
//!   SIES epoch makes zero allocations (the `sies_alloc` test). With
//!   `threads > 1` the first shard runs on the calling thread and each
//!   of the other `threads − 1` is a scoped-worker spawn; the spawns
//!   and the parallel evaluation's chunk vectors allocate a constant
//!   number of times per epoch, whatever the population (an evaluation
//!   from pooled totals runs no chunks, so it allocates nothing).
//!
//! ## Merge order
//!
//! Every aggregator merges the PSR copies its children sent, in child
//! order: a post-order walk pushes child results on a stack in *reverse
//! child order* (post-order visits subtrees last-child-first), so each
//! merge window — the copies its children left, one per child unless
//! the child failed, was dropped or was duplicated — is reversed before
//! the scheme sees it, and the sink's window, which the join leaves on
//! the first shard's stack in post order, is reversed into child order.
//! The `flat_equivalence` tests hold the engine and the pipeline to an
//! independent recursive fold over a pointer tree of their own, built
//! from the same inputs by its own builders; `soa_determinism` pins the
//! digests across thread counts and streaming modes.

use crate::engine::EpochCounts;
use crate::radio::LossyRadio;
use crate::recovery::{uplink_stream, RecoveryConfig, ACK_BYTES, NACK_BYTES, RESOLICIT_BYTES};
use crate::scheme::{AggregationScheme, EvaluatedSum, SchemeError};
use crate::topology::Topology;
use sies_core::{parallel, Epoch, SourceId, Threads};
use sies_telemetry as tel;
use sies_telemetry::EventKind;
use std::ops::Range;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One contiguous run of the post-order array below the sink, walked
/// serially by one worker.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// Post-order positions this shard covers.
    range: Range<usize>,
    /// Sources inside the range (pre-sizes the job buffers).
    sources: usize,
    /// The nodes inside the range whose subtrees begin before it, by
    /// ascending position, all proper ancestors of its first position.
    /// The shard walk defers them to the join.
    deferred: Vec<u32>,
}

/// What one epoch does to a node besides the clean path: an honest
/// failure, covert attacks on the PSR it sends, or an adoption.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Mark {
    /// The node is down: it is not initialised or merged and sends
    /// nothing. What its children sent is discarded, or, in a
    /// recovering epoch, passes up to their adopter.
    pub(crate) failed: bool,
    /// Its outgoing PSR is silently discarded.
    pub(crate) dropped: bool,
    /// How many times its outgoing PSR is tampered with.
    pub(crate) tampers: u32,
    /// Extra copies of its outgoing PSR delivered to its parent.
    pub(crate) duplicates: u32,
    /// In a recovering epoch, the live node that receives this node's
    /// PSR because its parent is down.
    pub(crate) adopter: Option<u32>,
}

impl Mark {
    /// Folds another mark on the same node into this one.
    pub(crate) fn absorb(&mut self, other: Mark) {
        self.failed |= other.failed;
        self.dropped |= other.dropped;
        self.tampers += other.tampers;
        self.duplicates += other.duplicates;
        self.adopter = self.adopter.or(other.adopter);
    }
}

/// A node's post-order position and its mark. An epoch's marks are
/// sorted by position, one entry per marked node.
pub(crate) type Marked = (u32, Mark);

/// Reads the marks of ascending post-order positions.
struct Marks<'m>(&'m [Marked]);

impl Marks<'_> {
    /// The mark at `pos` (the default mark when none); skips entries
    /// before `pos`, so callers may visit any ascending subset.
    fn at(&mut self, pos: usize) -> Mark {
        while let Some((&(p, mark), rest)) = self.0.split_first() {
            if p as usize > pos {
                break;
            }
            self.0 = rest;
            if p as usize == pos {
                return mark;
            }
        }
        Mark::default()
    }
}

/// Adds a subtree's post-order `range` to ascending, disjoint `cuts`: a
/// node follows its descendants, so its range swallows theirs.
pub(crate) fn cut(cuts: &mut Vec<Range<usize>>, range: Range<usize>) {
    while cuts.last().is_some_and(|r| r.start >= range.start) {
        cuts.pop();
    }
    cuts.push(range);
}

/// Whether post-order position `pos` lies in one of ascending, disjoint
/// `cuts`.
pub(crate) fn is_cut(cuts: &[Range<usize>], pos: usize) -> bool {
    let i = cuts.partition_point(|r| r.end <= pos);
    cuts.get(i).is_some_and(|r| r.contains(&pos))
}

/// What a recovering walk's parents never heard.
#[derive(Default)]
pub(crate) struct Lost {
    /// Silenced subtrees and crashed sources, as `cut` ranges.
    pub(crate) cuts: Vec<Range<usize>>,
    /// The walk's recovery events, in walk order.
    pub(crate) events: tel::EventBuf,
}

/// A shard's merge walk state. The first shard's is where the join
/// gathers the others: after the join it is the serial walk's after the
/// last node below the sink.
pub(crate) struct WalkState<P> {
    /// The post-order merge stack: the PSR copies sent up by every
    /// finished subtree whose parent has not merged yet. The joined
    /// stack ends as the sink's window.
    stack: Vec<P>,
    /// Nodes whose parent receives other than one copy (a failed,
    /// dropped or duplicated node, or an aggregator whose window was
    /// empty), as `(parent's post-order position, copies)`: an
    /// aggregator's merge window is one copy per child, corrected by the
    /// entries its children left on top.
    uneven: Vec<(u32, u32)>,
    /// What the walk's parents never heard (recovering epochs only).
    pub(crate) lost: Lost,
    /// First scheme error hit in the walk (aborts the epoch exactly
    /// where the serial walk would).
    err: Option<SchemeError>,
    /// The walk's activity up to its end or its error; a shard's counts
    /// only what follows its last checkpoint.
    counts: EpochCounts,
}

impl<P> Default for WalkState<P> {
    fn default() -> Self {
        WalkState {
            stack: Vec::new(),
            uneven: Vec::new(),
            lost: Lost::default(),
            err: None,
            counts: EpochCounts::default(),
        }
    }
}

impl<P> WalkState<P> {
    fn clear(&mut self) {
        self.stack.clear();
        self.uneven.clear();
        self.lost.cuts.clear();
        self.lost.events.clear();
        self.err = None;
        self.counts = EpochCounts::default();
    }

    fn heights(&self) -> Heights {
        Heights {
            stack: self.stack.len(),
            uneven: self.uneven.len(),
            cuts: self.lost.cuts.len(),
            events: self.lost.events.len(),
        }
    }

    /// Moves `src`'s state between heights `from` and `to` on top of
    /// this one. `src`'s stack gives up its segments from the front, so
    /// the join takes them in order.
    fn take_segment(&mut self, src: &mut WalkState<P>, from: Heights, to: Heights) {
        self.stack.extend(src.stack.drain(..to.stack - from.stack));
        self.uneven
            .extend_from_slice(&src.uneven[from.uneven..to.uneven]);
        self.lost
            .cuts
            .extend_from_slice(&src.lost.cuts[from.cuts..to.cuts]);
        self.lost
            .events
            .extend_from(&src.lost.events, from.events..to.events);
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.stack.capacity() * size_of::<P>()
            + self.uneven.capacity() * size_of::<(u32, u32)>()
            + self.lost.cuts.capacity() * size_of::<Range<usize>>()
    }
}

/// How far a walk's state had grown: where the join resumes a shard.
#[derive(Clone, Copy, Default)]
struct Heights {
    stack: usize,
    uneven: usize,
    cuts: usize,
    events: usize,
}

/// Where a shard walk met one of its deferred nodes.
struct Checkpoint {
    /// The shard's state heights there.
    at: Heights,
    /// The shard's activity since its previous checkpoint.
    counts: EpochCounts,
}

/// Reusable per-shard working state.
pub(crate) struct ShardState<P> {
    /// `(source, value)` jobs of the shard's live sources, in post-order.
    jobs: Vec<(SourceId, u64)>,
    /// Per-job init results, aligned with `jobs`.
    inits: Vec<Result<P, SchemeError>>,
    /// The shard's merge walk over every node but its deferred ones.
    walk: WalkState<P>,
    /// One per deferred node the walk reached, in order.
    checkpoints: Vec<Checkpoint>,
}

impl<P> ShardState<P> {
    fn with_capacity(shard: &Shard) -> Self {
        ShardState {
            jobs: Vec::with_capacity(shard.sources),
            inits: Vec::with_capacity(shard.sources),
            walk: WalkState::default(),
            checkpoints: Vec::with_capacity(shard.deferred.len()),
        }
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.jobs.capacity() * size_of::<(SourceId, u64)>()
            + self.inits.capacity() * size_of::<Result<P, SchemeError>>()
            + self.walk.bytes()
            + self.checkpoints.capacity() * size_of::<Checkpoint>()
    }
}

/// The walk's reusable buffers: what `produce` fills and `consume`
/// reads. The engine owns one.
pub(crate) struct WalkBuf<P> {
    /// One state block per shard, never none.
    shards: Vec<ShardState<P>>,
}

impl<P> WalkBuf<P> {
    pub(crate) fn new(shards: &[Shard]) -> Self {
        WalkBuf {
            shards: shards.iter().map(ShardState::with_capacity).collect(),
        }
    }

    /// The joined walk state, once `produce` has run: the first shard's.
    pub(crate) fn joined(&mut self) -> &mut WalkState<P> {
        &mut self.shards[0].walk
    }

    /// Sources the last source phase initialised.
    pub(crate) fn live_sources(&self) -> u64 {
        self.shards.iter().map(|st| st.jobs.len() as u64).sum()
    }

    fn bytes(&self) -> usize {
        self.shards.iter().map(ShardState::bytes).sum()
    }
}

/// One epoch's worth of pipeline buffers: the readings and the walk's.
/// The pipeline owns one, or two that alternate when streaming.
struct EpochBuf<P> {
    /// `values[i]` is source `i`'s reading, filled by the caller.
    values: Vec<u64>,
    walk: WalkBuf<P>,
}

impl<P> EpochBuf<P> {
    fn new(shards: &[Shard], values: usize) -> Self {
        EpochBuf {
            values: vec![0u64; values],
            walk: WalkBuf::new(shards),
        }
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.values.capacity() * size_of::<u64>() + self.walk.bytes()
    }
}

/// Per-epoch CPU breakdown handed to the sink callback, mirroring the
/// engine's source/aggregator/querier split.
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

/// A single-slot rendezvous channel: `Mutex<Option<T>>` + condvars, so
/// buffer hand-off moves values without allocating or spinning.
struct Mailbox<T> {
    slot: Mutex<MailSlot<T>>,
    cv: Condvar,
}

struct MailSlot<T> {
    item: Option<T>,
    closed: bool,
}

impl<T> Mailbox<T> {
    fn new() -> Self {
        Mailbox {
            slot: Mutex::new(MailSlot {
                item: None,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Deposits `item`, blocking while the slot is full. Dropped
    /// silently if the mailbox closed (only happens during unwinding).
    fn send(&self, item: T) {
        let mut slot = self.slot.lock().expect("mailbox poisoned");
        while slot.item.is_some() && !slot.closed {
            slot = self.cv.wait(slot).expect("mailbox poisoned");
        }
        if slot.closed {
            return;
        }
        slot.item = Some(item);
        self.cv.notify_all();
    }

    /// Takes the next item, blocking while the slot is empty; `None`
    /// once the mailbox is closed and drained.
    fn recv(&self) -> Option<T> {
        let mut slot = self.slot.lock().expect("mailbox poisoned");
        loop {
            if let Some(item) = slot.item.take() {
                self.cv.notify_all();
                return Some(item);
            }
            if slot.closed {
                return None;
            }
            slot = self.cv.wait(slot).expect("mailbox poisoned");
        }
    }

    /// Closes the mailbox: blocked and future `recv`s drain then return
    /// `None`; future `send`s become no-ops.
    fn close(&self) {
        let mut slot = self.slot.lock().expect("mailbox poisoned");
        slot.closed = true;
        self.cv.notify_all();
    }
}

/// Closes a mailbox when dropped, so a panicking thread can never leave
/// its peer blocked forever.
struct CloseOnDrop<'m, T>(&'m Mailbox<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Pacing gate for the background prewarm warmer: the main loop
/// publishes its progress watermark (last fully consumed epoch) and the
/// warmer blocks here between re-planning passes, so precomputation
/// runs exactly during the inter-epoch gaps instead of polling.
struct WarmGate {
    state: Mutex<(Option<Epoch>, bool)>,
    cv: Condvar,
}

impl WarmGate {
    fn new() -> Self {
        WarmGate {
            state: Mutex::new((None, false)),
            cv: Condvar::new(),
        }
    }

    /// Publishes that `epoch` is fully consumed.
    fn advance(&self, epoch: Epoch) {
        let mut st = self.state.lock().expect("warm gate poisoned");
        st.0 = Some(epoch);
        self.cv.notify_all();
    }

    /// Shuts the warmer down (idempotent).
    fn close(&self) {
        let mut st = self.state.lock().expect("warm gate poisoned");
        st.1 = true;
        self.cv.notify_all();
    }

    /// Blocks until the watermark moves past `seen` (returning the new
    /// watermark) or the gate closes (returning `None`).
    fn wait_past(&self, seen: Option<Epoch>) -> Option<Epoch> {
        let mut st = self.state.lock().expect("warm gate poisoned");
        loop {
            if st.1 {
                return None;
            }
            if st.0 != seen {
                return st.0;
            }
            st = self.cv.wait(st).expect("warm gate poisoned");
        }
    }
}

/// Closes a [`WarmGate`] when dropped — a panicking main loop never
/// leaves the warmer blocked.
struct WarmGateGuard<'g>(&'g WarmGate);

impl Drop for WarmGateGuard<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The warmer thread body: precompute key material ahead of the main
/// loop's watermark, re-planning each time it advances. Runs on a spare
/// thread during the inter-epoch idle gap; the scheme guarantees pooled
/// material is bit-identical to on-demand derivation, so this thread
/// can lag, race, or die without affecting any digest.
fn warm_loop<S: AggregationScheme>(scheme: &S, gate: &WarmGate, first_epoch: Epoch, last: Epoch) {
    let fill_ahead = |watermark: Epoch| {
        // The span makes the warmer visible to the sampling profiler as
        // its own thread lane (`pipeline.prewarm` frames).
        let _warm = tel::span!("pipeline.prewarm");
        for e in scheme.prewarm_plan(watermark) {
            if e > last {
                break;
            }
            scheme.prewarm_epoch(e);
        }
    };
    // Epoch `first_epoch` is already in flight when the warmer starts,
    // so it paces as if that epoch were the watermark.
    fill_ahead(first_epoch);
    let mut seen = None;
    while let Some(watermark) = gate.wait_past(seen) {
        seen = Some(watermark);
        scheme.prewarm_retire(watermark);
        fill_ahead(watermark);
    }
}

/// The recovery protocol a recovering epoch runs every uplink under.
#[derive(Clone, Copy)]
pub(crate) struct Uplinks<'a> {
    pub(crate) radio: &'a LossyRadio,
    pub(crate) recovery: &'a RecoveryConfig,
    /// The epoch's draw, which keys every uplink's stream.
    pub(crate) draw: u64,
}

/// The epoch walk's immutable view: the one execution path behind
/// [`EpochPipeline::run`] and every [`crate::engine::Engine`] epoch,
/// shared between the main thread and the streaming producer.
pub(crate) struct Exec<'a, S: AggregationScheme> {
    pub(crate) scheme: &'a S,
    pub(crate) topo: &'a Topology,
    pub(crate) shards: &'a [Shard],
    /// The sources the querier is told contributed.
    pub(crate) contributors: &'a [SourceId],
    /// The epoch's failures, attacks and adoptions (empty on the clean
    /// path).
    pub(crate) marks: &'a [Marked],
    /// Whether the querier is handed the previous final PSR.
    pub(crate) replay: bool,
    pub(crate) threads: usize,
    /// The recovery protocol, in a recovering epoch.
    pub(crate) uplinks: Option<Uplinks<'a>>,
}

/// Nanoseconds since `t0`.
pub(crate) fn now_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The epoch's outcome when no PSR reaches the querier.
pub(crate) fn nothing_reached_querier() -> SchemeError {
    SchemeError::Malformed("no PSR reached the querier (all subtrees failed)".into())
}

impl<S: AggregationScheme> Exec<'_, S> {
    /// Source init + merges below the sink for one epoch: the shard
    /// walks across the scoped pool, then their serial join.
    /// Allocation-free once the buffers are warm.
    pub(crate) fn produce(&self, epoch: Epoch, values: &[u64], buf: &mut WalkBuf<S::Psr>) {
        match (!self.marks.is_empty(), self.uplinks.is_some()) {
            (false, false) => self.produce_as::<false, false>(epoch, values, buf),
            (true, false) => self.produce_as::<true, false>(epoch, values, buf),
            (false, true) => self.produce_as::<false, true>(epoch, values, buf),
            (true, true) => self.produce_as::<true, true>(epoch, values, buf),
        }
    }

    /// [`produce`](Self::produce) with the walk's variant fixed (see
    /// [`step`](Self::step)).
    fn produce_as<const MARKED: bool, const RECOVERING: bool>(
        &self,
        epoch: Epoch,
        values: &[u64],
        buf: &mut WalkBuf<S::Psr>,
    ) {
        parallel::for_each_pair_mut(
            self.threads,
            self.shards,
            &mut buf.shards,
            |_, shard, st| {
                let _shard_span = tel::span!("pipeline.shard");
                self.init_shard(epoch, shard, values, st);
                self.merge_shard::<MARKED, RECOVERING>(epoch, shard, st);
            },
        );
        self.join::<MARKED, RECOVERING>(epoch, buf);
    }

    /// The marks from post-order position `start` on.
    fn marks_from(&self, start: usize) -> Marks<'_> {
        let skip = self.marks.partition_point(|m| (m.0 as usize) < start);
        Marks(&self.marks[skip..])
    }

    /// The positions in `range` paired with their node ids.
    fn walk(&self, range: Range<usize>) -> impl Iterator<Item = (usize, usize)> + '_ {
        let post = &self.topo.post_order()[range.clone()];
        range.zip(post.iter().map(|&id| id as usize))
    }

    /// Batched init of the shard's live (not failed) sources.
    fn init_shard(&self, epoch: Epoch, shard: &Shard, values: &[u64], st: &mut ShardState<S::Psr>) {
        st.walk.clear();
        st.checkpoints.clear();
        st.jobs.clear();
        let mut marks = self.marks_from(shard.range.start);
        for (pos, id) in self.walk(shard.range.clone()) {
            if let Some(sid) = self.topo.source_id(id) {
                if !marks.at(pos).failed {
                    st.jobs.push((sid, values[sid as usize]));
                }
            }
        }
        let t0 = Instant::now();
        self.scheme
            .batch_source_init_into(epoch, &st.jobs, &mut st.inits);
        st.walk.counts.source_ns = now_ns(t0);
        debug_assert_eq!(st.inits.len(), st.jobs.len(), "one result per job");
    }

    /// The shard's post-order merge walk over its init results: every
    /// node but the deferred ones, where it records a checkpoint for the
    /// join instead. It stops at the first scheme error.
    fn merge_shard<const MARKED: bool, const RECOVERING: bool>(
        &self,
        epoch: Epoch,
        shard: &Shard,
        st: &mut ShardState<S::Psr>,
    ) {
        let ShardState {
            inits,
            walk,
            checkpoints,
            ..
        } = st;
        let t0 = Instant::now();
        // Counted in a local, so the per-node updates stay in registers.
        let mut walked = EpochCounts {
            source_ns: walk.counts.source_ns,
            ..EpochCounts::default()
        };
        let mut marks = self.marks_from(shard.range.start);
        let mut inits = inits.iter();
        let mut start = shard.range.start;
        let ends = shard.deferred.iter().map(|&pos| pos as usize);
        'walk: for end in ends.chain([shard.range.end]) {
            for node in self.walk(start..end) {
                let mark = if MARKED {
                    marks.at(node.0)
                } else {
                    Mark::default()
                };
                let step = self.step::<MARKED, RECOVERING>(
                    epoch,
                    node,
                    mark,
                    &mut inits,
                    walk,
                    &mut walked,
                );
                if let Err(e) = step {
                    walk.err = Some(e);
                    break 'walk;
                }
            }
            if end < shard.range.end {
                checkpoints.push(Checkpoint {
                    at: walk.heights(),
                    counts: std::mem::take(&mut walked),
                });
            }
            start = end + 1;
        }
        walked.aggregator_ns = now_ns(t0);
        walk.counts = walked;
    }

    /// The serial join: replays the later shard walks in order onto the
    /// first shard's state, which begins at position 0 and defers
    /// nothing, running each deferred node through [`step`](Self::step)
    /// where the serial walk reaches it. A deferred node's window, cut
    /// and events span earlier shards, so the sink's window, the cut
    /// list, the recovery events and the counts at the first scheme
    /// error, in a shard or at a deferred node, come out exactly as one
    /// serial walk leaves them. With one shard there is nothing to do.
    fn join<const MARKED: bool, const RECOVERING: bool>(
        &self,
        epoch: Epoch,
        buf: &mut WalkBuf<S::Psr>,
    ) {
        let (first, rest) = buf.shards.split_first_mut().expect("one shard at least");
        let joined = &mut first.walk;
        if rest.is_empty() || joined.err.is_some() {
            return;
        }
        let t0 = Instant::now();
        let mut counts = std::mem::take(&mut joined.counts);
        'join: for (shard, st) in self.shards[1..].iter().zip(rest) {
            let end = st.walk.heights();
            let walk = &mut st.walk;
            let mut from = Heights::default();
            for (checkpoint, &pos) in st.checkpoints.iter().zip(&shard.deferred) {
                joined.take_segment(walk, from, checkpoint.at);
                counts.add(&checkpoint.counts);
                from = checkpoint.at;
                let pos = pos as usize;
                let node = (pos, self.topo.post_order()[pos] as usize);
                let mark = self.marks_from(pos).at(pos);
                let step = self.step::<MARKED, RECOVERING>(
                    epoch,
                    node,
                    mark,
                    &mut [].iter(),
                    joined,
                    &mut counts,
                );
                if let Err(e) = step {
                    joined.err = Some(e);
                    break 'join;
                }
            }
            joined.take_segment(walk, from, end);
            counts.add(&walk.counts);
            if let Some(e) = walk.err.take() {
                joined.err = Some(e);
                break;
            }
        }
        counts.aggregator_ns += now_ns(t0);
        joined.counts = counts;
    }

    /// One node of the post-order merge walk, `node` being its position
    /// and id: a source takes its init result from `inits`, an
    /// aggregator merges the window its children left on `w`'s stack,
    /// and the PSR copies the node sends are pushed for its parent. The
    /// shard walks run it on their nodes and the join on the deferred
    /// ones. `MARKED` is false when the epoch has no marks: the step
    /// then compiles without attack branches. `RECOVERING` runs each
    /// sent PSR's uplink before any attack on it, and a scheme error or
    /// a lost uplink silences the node; otherwise a scheme error is the
    /// epoch's first-error abort, returned.
    #[inline(always)]
    fn step<const MARKED: bool, const RECOVERING: bool>(
        &self,
        epoch: Epoch,
        (pos, id): (usize, usize),
        mark: Mark,
        inits: &mut std::slice::Iter<'_, Result<S::Psr, SchemeError>>,
        w: &mut WalkState<S::Psr>,
        walked: &mut EpochCounts,
    ) -> Result<(), SchemeError> {
        let WalkState {
            stack,
            uneven,
            lost,
            ..
        } = w;
        let from_source = self.topo.is_source(id);
        let mut psr = if from_source {
            if mark.failed {
                if RECOVERING {
                    cut(&mut lost.cuts, pos..pos + 1);
                }
                uneven.push(self.to_parent(id, 0));
                return Ok(());
            }
            walked.sources_run += 1;
            match inits.next().expect("one init per live source") {
                Ok(psr) => psr.clone(),
                Err(e) if !RECOVERING => return Err(e.clone()),
                Err(_) => {
                    walked.recovery.init_failures += 1;
                    self.silence(epoch, id, mark, lost, uneven, walked);
                    return Ok(());
                }
            }
        } else {
            let mut window = self.topo.children(id).len();
            while let Some(&(parent, copies)) = uneven.last() {
                if parent as usize != pos {
                    break;
                }
                window = window + copies as usize - 1;
                uneven.pop();
            }
            let base = stack.len() - window;
            if RECOVERING && mark.failed {
                // The copies join the parent's window, and so on up to
                // the adopter, which merges them in this place.
                uneven.push(self.to_parent(id, window as u32));
                return Ok(());
            }
            if mark.failed || window == 0 {
                stack.truncate(base);
                if RECOVERING {
                    self.silence(epoch, id, mark, lost, uneven, walked);
                } else {
                    uneven.push(self.to_parent(id, 0));
                }
                return Ok(());
            }
            // The children's copies sit on the stack last child first
            // (post-order visits subtrees in reverse); restore child
            // order so the scheme merges exactly the sequence a parent
            // gathering its children in order would.
            stack[base..].reverse();
            walked.aggregators_run += 1;
            let merged = self.scheme.try_merge(&stack[base..]);
            stack.truncate(base);
            match merged {
                Ok(merged) => merged,
                Err(e) if !RECOVERING => return Err(e),
                Err(_) => {
                    walked.recovery.merge_failures += 1;
                    self.silence(epoch, id, mark, lost, uneven, walked);
                    return Ok(());
                }
            }
        };
        if RECOVERING {
            let size = self.scheme.psr_wire_size(&psr) as u64;
            if !self.uplink(epoch, id, mark, size, lost, walked) {
                self.silence(epoch, id, mark, lost, uneven, walked);
                return Ok(());
            }
        }
        let copies = if mark == Mark::default() {
            1
        } else {
            self.attack(&mut psr, mark)
        };
        if copies != 1 {
            uneven.push(self.to_parent(id, copies));
        }
        if copies > 0 {
            if !RECOVERING {
                let size = self.scheme.psr_wire_size(&psr) as u64 * u64::from(copies);
                walked.uplink(from_source, size);
            }
            for _ in 1..copies {
                stack.push(psr.clone());
            }
            stack.push(psr);
        }
        Ok(())
    }

    /// The `uneven` entry telling `id`'s parent that `copies` PSR copies
    /// arrived from `id`.
    fn to_parent(&self, id: usize, copies: u32) -> (u32, u32) {
        let parent = self.topo.parent(id).expect("shards hold no sink");
        (self.topo.post_position(parent) as u32, copies)
    }

    /// The live node that receives `id`'s PSR in a recovering epoch: its
    /// adopter when its parent is down, else its parent.
    fn receiver(&self, id: usize, mark: Mark) -> usize {
        match mark.adopter {
            Some(adopter) => adopter as usize,
            None => self.topo.parent(id).expect("shards hold no sink"),
        }
    }

    /// Runs `id`'s uplink of a `size`-byte PSR to its receiver on the
    /// uplink's own stream, charges its frames (a re-solicitation frame
    /// per hop) and journals its retries; returns whether it delivered.
    fn uplink(
        &self,
        epoch: Epoch,
        id: usize,
        mark: Mark,
        size: u64,
        lost: &mut Lost,
        walked: &mut EpochCounts,
    ) -> bool {
        let links = self.uplinks.expect("a recovering walk has a protocol");
        let out = links
            .recovery
            .simulate_uplink(links.radio, &mut uplink_stream(links.draw, id));
        let hops = self.topo.depth(self.receiver(id, mark)) as u64 + 1;
        walked.uplink(self.topo.is_source(id), size);
        walked.bytes.retransmit += size * (u64::from(out.data_attempts) - 1);
        walked.rx_bytes += size * u64::from(out.acks);
        walked.bytes.control += u64::from(out.acks) * ACK_BYTES as u64
            + u64::from(out.nacks) * NACK_BYTES as u64
            + u64::from(out.resolicit_rounds_used) * RESOLICIT_BYTES as u64 * hops;
        walked.recovery.add_uplink(&out);
        for (kind, n) in [
            (EventKind::Retransmit, out.data_attempts - 1),
            (EventKind::NackSent, out.nacks),
            (EventKind::Resolicit, out.resolicit_rounds_used),
        ] {
            if n > 0 {
                lost.events.push(epoch, kind, id as u64, n.into());
            }
        }
        out.delivered
    }

    /// In a recovering epoch, `id` sends its receiver nothing (a
    /// rejected reading, an empty window, a failed merge or an
    /// undelivered uplink): its subtree leaves the contributor set, and
    /// the receiver reports the failure to the querier.
    #[cold]
    fn silence(
        &self,
        epoch: Epoch,
        id: usize,
        mark: Mark,
        lost: &mut Lost,
        uneven: &mut Vec<(u32, u32)>,
        walked: &mut EpochCounts,
    ) {
        cut(&mut lost.cuts, self.topo.subtree_range(id));
        let receiver = self.receiver(id, mark);
        walked.failure_report(self.topo.depth(receiver) + 1);
        let event = EventKind::FailureReport;
        lost.events.push(epoch, event, id as u64, receiver as u64);
        uneven.push(self.to_parent(id, 0));
    }

    /// Applies `mark`'s covert attacks to an outgoing PSR; returns how
    /// many copies reach the parent.
    #[cold]
    fn attack(&self, psr: &mut S::Psr, mark: Mark) -> u32 {
        for _ in 0..mark.tampers {
            self.scheme.tamper(psr);
        }
        if mark.dropped {
            0
        } else {
            1 + mark.duplicates
        }
    }

    /// Sink merge + finalize + evaluation for one produced epoch.
    /// `last_final` is the replay cache: set before evaluation, left
    /// stale on early aborts. The counts are the join's, which stop at
    /// the first scheme error, so an aborted epoch reports what the
    /// serial walk had done when it stopped.
    pub(crate) fn consume(
        &self,
        epoch: Epoch,
        buf: &mut WalkBuf<S::Psr>,
        last_final: &mut Option<S::Psr>,
    ) -> (EpochCounts, Result<EvaluatedSum, SchemeError>) {
        let _consume_span = tel::span!("pipeline.consume");
        let joined = buf.joined();
        let mut counts = std::mem::take(&mut joined.counts);
        if self.uplinks.is_none() {
            // Every uplink copy is received by its parent.
            counts.rx_bytes = counts.bytes.source_to_agg + counts.bytes.agg_to_agg;
        }
        if let Some(e) = joined.err.take() {
            return (counts, Err(e));
        }
        // The sink's window arrives in post order = reverse child order.
        let window = &mut joined.stack;
        window.reverse();

        let root = self.topo.post_order().len() - 1;
        let mark = self.marks_from(root).at(root);
        if mark.failed || window.is_empty() {
            return (counts, Err(nothing_reached_querier()));
        }
        counts.aggregators_run += 1;
        let t0 = Instant::now();
        let merged = self.scheme.try_merge(window);
        let merged = merged.map(|psr| self.scheme.sink_finalize(psr));
        counts.aggregator_ns += now_ns(t0);
        let mut final_psr = match merged {
            Ok(psr) => psr,
            // The sink of a recovering epoch has nothing to send.
            Err(_) if self.uplinks.is_some() => {
                counts.recovery.merge_failures += 1;
                return (counts, Err(nothing_reached_querier()));
            }
            Err(e) => return (counts, Err(e)),
        };
        for _ in 0..mark.tampers {
            self.scheme.tamper(&mut final_psr);
        }
        if mark.dropped {
            return (counts, Err(nothing_reached_querier()));
        }
        counts.bytes.agg_to_querier +=
            self.scheme.psr_wire_size(&final_psr) as u64 * u64::from(1 + mark.duplicates);
        if self.replay {
            if let Some(prev) = last_final {
                final_psr = prev.clone();
            }
        }

        let t1 = Instant::now();
        let final_psr = last_final.insert(final_psr);
        let result = self
            .scheme
            .evaluate_par(final_psr, epoch, self.contributors, self.threads);
        counts.querier_ns = now_ns(t1);
        (counts, result)
    }

    /// Consumes one produced epoch and hands its outcome to `sink`.
    fn deliver<G>(
        &self,
        epoch: Epoch,
        buf: &mut WalkBuf<S::Psr>,
        last_final: &mut Option<S::Psr>,
        sink: &mut G,
    ) where
        G: FnMut(&EpochReport, Option<&S::Psr>, &Result<EvaluatedSum, SchemeError>, &[SourceId]),
    {
        let (counts, result) = self.consume(epoch, buf, last_final);
        let report = EpochReport {
            epoch,
            source_cpu_ns: counts.source_ns,
            merge_cpu_ns: counts.aggregator_ns,
            querier_cpu_ns: counts.querier_ns,
        };
        sink(&report, last_final.as_ref(), &result, self.contributors);
    }
}

/// Cuts the post-order below the sink into `min(threads, sources)`
/// contiguous shards at source-count quantiles: with `n` sources and
/// `T` shards, shard `k` begins at the ⌊k·n/T⌋-th source in post-order
/// (shard 0 at position 0), so every shard begins at a leaf and holds
/// ⌊n/T⌋ or ⌈n/T⌉ sources. A node inside a shard whose subtree begins
/// before the shard's first position is a proper ancestor of that
/// position: at most the tree's depth of them per boundary, found here
/// by walking up from it. (An ancestor whose subtree begins at that
/// position lies wholly inside the shard.)
pub(crate) fn plan_shards(topo: &Topology, threads: usize) -> Vec<Shard> {
    let post = topo.post_order();
    let root = post.len() - 1;
    let n = topo.num_sources() as usize;
    let count = threads.clamp(1, n.max(1));
    let mut starts = vec![0];
    let mut rank = 0;
    for (pos, &id) in post[..root].iter().enumerate() {
        if topo.is_source(id as usize) {
            if starts.len() < count && rank == starts.len() * n / count {
                starts.push(pos);
            }
            rank += 1;
        }
    }
    let ends = starts[1..].iter().copied().chain([root]);
    starts
        .iter()
        .zip(ends)
        .enumerate()
        .map(|(k, (&start, end))| {
            let mut deferred = Vec::new();
            let mut up = topo.parent(post[start] as usize);
            while let Some(subtree) = up.map(|a| topo.subtree_range(a)) {
                if subtree.end > end {
                    break;
                }
                if subtree.start < start {
                    deferred.push(subtree.end as u32 - 1);
                }
                up = topo.parent(post[subtree.end - 1] as usize);
            }
            Shard {
                range: start..end,
                sources: (k + 1) * n / count - k * n / count,
                deferred,
            }
        })
        .collect()
}

/// The streamed clean-path epoch runner over a borrowed [`Topology`].
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use sies_core::{SystemParams, Threads};
/// use sies_net::deploy::SiesDeployment;
/// use sies_net::pipeline::EpochPipeline;
/// use sies_net::topology::Topology;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let deployment = SiesDeployment::new(&mut rng, SystemParams::new(16).unwrap());
/// let topology = Topology::complete_tree(16, 4);
/// let mut pipeline = EpochPipeline::new(&deployment, &topology, Threads::serial(), false);
/// let mut sums = Vec::new();
/// pipeline.run(0, 2, |_, values| values.fill(3), |_, _, result, _| {
///     sums.push(result.as_ref().unwrap().sum);
/// });
/// assert_eq!(sums, [48.0, 48.0]);
/// ```
pub struct EpochPipeline<'a, S: AggregationScheme> {
    scheme: &'a S,
    topo: &'a Topology,
    threads: usize,
    streaming: bool,
    shards: Vec<Shard>,
    contributors: Vec<SourceId>,
    /// One `EpochBuf` per epoch in flight: one, or two alternating when
    /// streaming. Empty only transiently inside [`run`](Self::run).
    bufs: Vec<EpochBuf<S::Psr>>,
    last_final: Option<S::Psr>,
}

impl<'a, S: AggregationScheme> EpochPipeline<'a, S> {
    /// Builds a pipeline over `topo` with the given worker count.
    /// `streaming` overlaps epoch `t+1`'s source phase with epoch `t`'s
    /// merge/evaluate on a dedicated producer thread.
    pub fn new(scheme: &'a S, topo: &'a Topology, threads: Threads, streaming: bool) -> Self {
        let threads = threads.resolve();
        let shards = plan_shards(topo, threads);
        let n_sources = topo.num_sources() as usize;
        let in_flight = if streaming { 2 } else { 1 };
        let bufs = (0..in_flight)
            .map(|_| EpochBuf::new(&shards, n_sources))
            .collect();
        EpochPipeline {
            scheme,
            topo,
            threads,
            streaming,
            shards,
            contributors: (0..n_sources as SourceId).collect(),
            bufs,
            last_final: None,
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether epoch streaming is enabled.
    pub fn streaming(&self) -> bool {
        self.streaming
    }

    /// The final PSR of the most recent completed epoch (what the
    /// querier saw) — the engine's `last_final_psr` counterpart.
    pub fn last_final_psr(&self) -> Option<&S::Psr> {
        self.last_final.as_ref()
    }

    /// Heap bytes held by the pipeline's reusable epoch state (its epoch
    /// buffers — two when streaming, else one — plus shard bookkeeping),
    /// the pipeline's share of the bytes-per-node budget. Excludes the
    /// arena — add [`Topology::bytes`] — and the scheme's key
    /// material.
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        let bufs: usize = self.bufs.iter().map(EpochBuf::bytes).sum();
        let deferred: usize = self.shards.iter().map(|s| s.deferred.capacity()).sum();
        bufs + self.shards.capacity() * size_of::<Shard>()
            + deferred * size_of::<u32>()
            + self.contributors.capacity() * size_of::<SourceId>()
    }

    /// Runs `epochs` consecutive epochs starting at `first_epoch`.
    ///
    /// Per epoch, `fill(epoch, values)` populates the readings (one slot
    /// per source), then `sink(report, final_psr, result, contributors)`
    /// observes the outcome — `final_psr` follows the engine's replay
    /// cache semantics (set before evaluation, stale on early aborts).
    /// Both callbacks run on the calling thread, in epoch order, even
    /// when streaming.
    pub fn run<F, G>(&mut self, first_epoch: Epoch, epochs: u64, mut fill: F, mut sink: G)
    where
        F: FnMut(Epoch, &mut [u64]),
        G: FnMut(&EpochReport, Option<&S::Psr>, &Result<EvaluatedSum, SchemeError>, &[SourceId]),
    {
        if epochs == 0 {
            return;
        }
        let mut bufs = std::mem::take(&mut self.bufs);
        let mut last_final = self.last_final.take();
        let exec = Exec {
            scheme: self.scheme,
            topo: self.topo,
            shards: &self.shards,
            contributors: &self.contributors,
            marks: &[],
            replay: false,
            threads: self.threads,
            uplinks: None,
        };
        let last = first_epoch + epochs - 1;

        let prewarm = self.scheme.prewarm_enabled();
        let gate = WarmGate::new();

        if !self.streaming {
            let front = bufs.first_mut().expect("buffers present between runs");
            if prewarm {
                // The scoped warmer (and the scope itself) only exist
                // when the scheme opted in — the prewarm-off serial path
                // must stay allocation-free per epoch.
                std::thread::scope(|scope| {
                    let (scheme, g) = (self.scheme, &gate);
                    scope.spawn(move || warm_loop(scheme, g, first_epoch, last));
                    let _close = WarmGateGuard(&gate);
                    for epoch in first_epoch..=last {
                        fill(epoch, &mut front.values);
                        exec.produce(epoch, &front.values, &mut front.walk);
                        exec.deliver(epoch, &mut front.walk, &mut last_final, &mut sink);
                        gate.advance(epoch);
                    }
                });
            } else {
                for epoch in first_epoch..=last {
                    fill(epoch, &mut front.values);
                    exec.produce(epoch, &front.values, &mut front.walk);
                    exec.deliver(epoch, &mut front.walk, &mut last_final, &mut sink);
                }
            }
            self.bufs = bufs;
            self.last_final = last_final;
            return;
        }

        // Streaming: a scoped producer runs `produce` for epoch t+1
        // while this thread consumes epoch t. `bufs` holds the idle
        // buffers; the mailboxes move them by value (three Vec pointers).
        let to_producer: Mailbox<(Epoch, EpochBuf<S::Psr>)> = Mailbox::new();
        let to_consumer: Mailbox<(Epoch, EpochBuf<S::Psr>)> = Mailbox::new();
        std::thread::scope(|scope| {
            let exec = &exec;
            let tp = &to_producer;
            let tc = &to_consumer;
            scope.spawn(move || {
                // Closing on exit (or panic) unblocks the consumer.
                let _close = CloseOnDrop(tc);
                while let Some((epoch, mut buf)) = tp.recv() {
                    exec.produce(epoch, &buf.values, &mut buf.walk);
                    tc.send((epoch, buf));
                }
            });
            if prewarm {
                let (scheme, g) = (self.scheme, &gate);
                scope.spawn(move || warm_loop(scheme, g, first_epoch, last));
            }
            // Symmetric guards: a panicking consumer unblocks the
            // producer and the warmer.
            let _close = CloseOnDrop(tp);
            let _close_gate = WarmGateGuard(&gate);

            let mut front = bufs.pop().expect("buffers present between runs");
            fill(first_epoch, &mut front.values);
            tp.send((first_epoch, front));
            for epoch in first_epoch..=last {
                if epoch < last {
                    let mut next = bufs.pop().expect("a spare buffer is always free");
                    fill(epoch + 1, &mut next.values);
                    tp.send((epoch + 1, next));
                }
                let (produced_epoch, mut buf) = tc
                    .recv()
                    .expect("producer terminated before the last epoch");
                debug_assert_eq!(produced_epoch, epoch, "epochs hand off in order");
                exec.deliver(epoch, &mut buf.walk, &mut last_final, &mut sink);
                gate.advance(epoch);
                bufs.push(buf);
            }
            tp.close();
        });
        debug_assert_eq!(bufs.len(), 2, "both buffers return to the pool");
        self.bufs = bufs;
        self.last_final = last_final;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    /// A transparent scheme (plain sum + contribution count) mirroring
    /// the engine's test scheme, so pipeline behaviour is observable
    /// without cryptography.
    struct PlainSum;

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct PlainPsr {
        sum: u64,
        count: u64,
    }

    impl AggregationScheme for PlainSum {
        type Psr = PlainPsr;

        fn name(&self) -> &'static str {
            "PLAIN"
        }

        fn source_init(&self, _source: SourceId, _epoch: Epoch, value: u64) -> PlainPsr {
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
            final_psr: &PlainPsr,
            _epoch: Epoch,
            contributors: &[SourceId],
        ) -> Result<EvaluatedSum, SchemeError> {
            if final_psr.count != contributors.len() as u64 {
                return Err(SchemeError::VerificationFailed(format!(
                    "count {} != contributors {}",
                    final_psr.count,
                    contributors.len()
                )));
            }
            Ok(EvaluatedSum {
                sum: final_psr.sum as f64,
                integrity_checked: true,
            })
        }

        fn psr_wire_size(&self, _psr: &PlainPsr) -> usize {
            16
        }

        fn tamper(&self, psr: &mut PlainPsr) {
            psr.sum += 1;
        }
    }

    fn run_collect(
        topo: &Topology,
        threads: usize,
        streaming: bool,
        epochs: u64,
    ) -> Vec<(Option<PlainPsr>, Result<EvaluatedSum, SchemeError>)> {
        let mut pipeline = EpochPipeline::new(&PlainSum, topo, Threads::fixed(threads), streaming);
        let mut seen = Vec::new();
        pipeline.run(
            0,
            epochs,
            |epoch, values| {
                for (i, v) in values.iter_mut().enumerate() {
                    *v = epoch * 1000 + i as u64;
                }
            },
            |_, final_psr, result, _| {
                seen.push((final_psr.copied(), result.clone()));
            },
        );
        seen
    }

    #[test]
    fn matches_engine_for_every_config() {
        let topo = Topology::complete_tree(64, 4);
        let mut engine = Engine::new(&PlainSum, &topo);
        let mut expected = Vec::new();
        for epoch in 0..4u64 {
            let values: Vec<u64> = (0..64).map(|i| epoch * 1000 + i).collect();
            let out = engine.run_epoch(epoch, &values);
            expected.push((engine.last_final_psr().copied(), out.result));
        }
        for threads in [1, 2, 3, 8] {
            for streaming in [false, true] {
                let got = run_collect(&topo, threads, streaming, 4);
                assert_eq!(got, expected, "threads={threads} streaming={streaming}");
            }
        }
    }

    /// The planner cuts the post-order at source quantiles anywhere in
    /// the tree, not only between the sink's child subtrees, whose sizes
    /// on a complete fanout-4 tree are lopsided (16 384 × 3 + 848 at
    /// N = 50 000) or too few (two at N = 100 000).
    #[test]
    fn shards_split_sources_evenly_anywhere_in_the_tree() {
        for n in [1_000u64, 10_000, 16_384, 50_000, 100_000] {
            let topo = Topology::complete_tree(n, 4);
            let post = topo.post_order();
            let root = post.len() - 1;
            for threads in [1usize, 2, 3, 8] {
                let case = format!("n={n} threads={threads}");
                let shards = plan_shards(&topo, threads);
                let count = threads.min(n as usize);
                assert_eq!(shards.len(), count, "{case}");
                let (fewest, most) = (n as usize / count, (n as usize).div_ceil(count));
                let mut next = 0;
                for (k, shard) in shards.iter().enumerate() {
                    let Range { start, end } = shard.range;
                    assert_eq!(start, next, "{case}: shards tile the post-order");
                    assert!(start < end, "{case}");
                    next = end;
                    let sources = post[start..end]
                        .iter()
                        .filter(|&&id| topo.is_source(id as usize))
                        .count();
                    assert_eq!(sources, shard.sources, "{case}");
                    assert!((fewest..=most).contains(&sources), "{case}: {sources}");
                    // The proper ancestors of the first position inside
                    // the shard, less those whose subtree begins at that
                    // position (the shard holds all of theirs); none in
                    // the first shard, which begins at position 0.
                    let mut ancestors = Vec::new();
                    let mut up = topo.parent(post[start] as usize);
                    while let Some(a) = up {
                        let pos = topo.post_position(a);
                        if pos < end && topo.subtree_range(a).start < start {
                            ancestors.push(pos as u32);
                        }
                        up = topo.parent(a);
                    }
                    assert!(k > 0 || ancestors.is_empty(), "{case}");
                    assert_eq!(shard.deferred, ancestors, "{case}: shard {k}");
                    let reaching_back: Vec<u32> = (start..end)
                        .filter(|&pos| topo.subtree_range(post[pos] as usize).start < start)
                        .map(|pos| pos as u32)
                        .collect();
                    assert_eq!(shard.deferred, reaching_back, "{case}: shard {k}");
                }
                assert_eq!(next, root, "{case}: shards end at the sink");
            }
        }
    }

    #[test]
    fn uneven_trees_shard_correctly() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = Topology::random_tree(&mut rng, 37 + seed * 11, 5);
            let serial = run_collect(&topo, 1, false, 3);
            for threads in [2, 4, 16] {
                for streaming in [false, true] {
                    let got = run_collect(&topo, threads, streaming, 3);
                    assert_eq!(got, serial, "seed={seed} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn single_source_tree() {
        let topo = Topology::complete_tree(1, 2);
        let seen = run_collect(&topo, 4, true, 2);
        assert_eq!(seen[0].1.as_ref().unwrap().sum, 0.0);
        assert_eq!(seen[1].1.as_ref().unwrap().sum, 1000.0);
    }

    #[test]
    fn buffers_survive_across_runs() {
        let topo = Topology::complete_tree(16, 4);
        let mut pipeline = EpochPipeline::new(&PlainSum, &topo, Threads::serial(), true);
        let mut count = 0usize;
        pipeline.run(0, 3, |_, v| v.fill(1), |_, _, _, _| count += 1);
        let bytes = pipeline.state_bytes();
        assert!(bytes > 0);
        pipeline.run(3, 3, |_, v| v.fill(2), |_, _, _, _| count += 1);
        assert_eq!(count, 6);
        // Warm buffers: a second run must not have grown the state.
        assert_eq!(pipeline.state_bytes(), bytes);
        assert_eq!(
            pipeline.last_final_psr(),
            Some(&PlainPsr { sum: 32, count: 16 })
        );
    }

    #[test]
    fn prewarm_pipeline_digests_match_cold() {
        use crate::deploy::SiesDeployment;
        use crate::prewarm::PrewarmPolicy;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sies_core::SystemParams;

        let topo = Topology::complete_tree(32, 4);
        let run = |policy: Option<PrewarmPolicy>, threads: usize, streaming: bool| {
            let mut rng = StdRng::seed_from_u64(5);
            let dep = SiesDeployment::new(&mut rng, SystemParams::new(32).unwrap());
            if let Some(p) = policy {
                dep.set_prewarm_policy(p);
            }
            let mut pipeline = EpochPipeline::new(&dep, &topo, Threads::fixed(threads), streaming);
            let mut outs = Vec::new();
            pipeline.run(
                0,
                6,
                |epoch, values| {
                    for (i, v) in values.iter_mut().enumerate() {
                        *v = epoch * 3 + i as u64;
                    }
                },
                |_, final_psr, result, _| {
                    outs.push((final_psr.map(|p| p.to_bytes()), result.clone()));
                },
            );
            (outs, dep.prewarm_stats())
        };
        let (cold, cold_stats) = run(None, 1, false);
        assert_eq!(cold_stats.derived, 0, "disabled pool stays inert");
        for threads in [1, 2, 8] {
            for streaming in [false, true] {
                let (warm, stats) = run(Some(PrewarmPolicy::default()), threads, streaming);
                assert_eq!(
                    warm, cold,
                    "prewarm changed results at threads={threads} streaming={streaming}"
                );
                // The warmer's initial fill-ahead (epochs 1 and 2) runs
                // unconditionally before the gate can close; later
                // derivations race the main loop and may or may not land.
                assert!(
                    stats.derived >= 2,
                    "warmer never derived (threads={threads} streaming={streaming}): {stats:?}"
                );
            }
        }
    }

    #[test]
    fn stale_last_final_on_abort_matches_engine() {
        // count mismatch via a scheme error: use merge of zero inputs —
        // instead drive a verification failure by lying about epochs.
        struct Rejecting;
        impl AggregationScheme for Rejecting {
            type Psr = u64;
            fn name(&self) -> &'static str {
                "REJ"
            }
            fn source_init(&self, _s: SourceId, _e: Epoch, v: u64) -> u64 {
                v
            }
            fn try_source_init(
                &self,
                _s: SourceId,
                epoch: Epoch,
                v: u64,
            ) -> Result<u64, SchemeError> {
                if epoch == 1 {
                    Err(SchemeError::Malformed("reading rejected".into()))
                } else {
                    Ok(v)
                }
            }
            fn merge(&self, psrs: &[u64]) -> u64 {
                psrs.iter().sum()
            }
            fn evaluate(
                &self,
                f: &u64,
                _e: Epoch,
                _c: &[SourceId],
            ) -> Result<EvaluatedSum, SchemeError> {
                Ok(EvaluatedSum {
                    sum: *f as f64,
                    integrity_checked: false,
                })
            }
            fn psr_wire_size(&self, _p: &u64) -> usize {
                8
            }
            fn tamper(&self, p: &mut u64) {
                *p += 1;
            }
        }
        let topo = Topology::complete_tree(8, 2);
        let mut pipeline = EpochPipeline::new(&Rejecting, &topo, Threads::serial(), false);
        let mut finals = Vec::new();
        pipeline.run(
            0,
            3,
            |_, v| v.fill(5),
            |report, final_psr, result, _| {
                finals.push((report.epoch, final_psr.copied(), result.is_ok()));
            },
        );
        // Epoch 1 aborts early: the final PSR stays epoch 0's (stale),
        // exactly like the engine's prev_final cache.
        assert_eq!(finals[0], (0, Some(40), true));
        assert_eq!(finals[1], (1, Some(40), false));
        assert_eq!(finals[2], (2, Some(40), true));
    }
}
