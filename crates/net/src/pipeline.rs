//! The epoch walk, and the streamed struct-of-arrays epoch pipeline for
//! million-sensor populations built on it.
//!
//! The walk (`Exec`: `produce` then `consume`) is the one execution
//! path of an epoch: [`EpochPipeline::run`] drives it on the clean path,
//! [`crate::engine::Engine::run_epoch_with`] drives it with the epoch's
//! honest failures and covert attacks, translated once per epoch to
//! marks on post-order positions, and
//! [`crate::engine::Engine::run_epoch_recovering`] drives it under the
//! recovery protocol. Over the [`FlatTopology`] arena it gives:
//!
//! * **Subtree sharding.** The sink's child subtrees are contiguous
//!   segments of the arena's post-order, so the tree splits into at most
//!   `threads` contiguous shards. Each worker walks its segment exactly
//!   as a serial post-order walk would — batched source init, then a
//!   stack merge — and the main thread fuses the shard results in
//!   deterministic tree order. The final PSR is bit-identical for every
//!   thread count.
//! * **Exact accounting.** Run counts and per-class bytes accumulate in
//!   shard-local integers and fold in shard order; the fold stops at the
//!   first shard that hit a scheme error, so an aborted epoch reports
//!   what the serial walk had done when it stopped. No global counter or
//!   journal event runs per node.
//! * **Recovering epochs.** Each sent PSR crosses its uplink on its own
//!   random stream ([`crate::recovery::uplink_stream`]), so outcomes do
//!   not depend on the walk order. A crashed aggregator's children's
//!   copies pass up to its adopter through the window corrections; a
//!   node its parent never hears leaves a cut post-order range, from
//!   which the engine reads the contributor set.
//! * **Epoch streaming.** With `streaming` enabled, two epoch buffers
//!   alternate through a one-producer hand-off: while the main thread
//!   merges/evaluates epoch `t`, a producer thread runs source init for
//!   epoch `t+1` in the other buffer. Results are identical with
//!   streaming on or off because the phases of one epoch never reorder —
//!   only phases of *different* epochs overlap.
//! * **Precompute-ahead.** When the scheme opts in
//!   ([`AggregationScheme::prewarm_enabled`]), a scoped warmer thread
//!   derives upcoming epochs' key material during the inter-epoch idle
//!   gap, paced by the consumer's progress watermark (no polling).
//!   Digests cannot change: the scheme's pool contract requires pooled
//!   material to reproduce on-demand derivation bit-for-bit, so the
//!   warmer may lag, race, or be absent without observable effect.
//! * **No per-source allocation in steady state.** All per-epoch state
//!   (values, jobs, init results, merge stacks) lives in the two reused
//!   `EpochBuf`s; schemes write init results through
//!   [`AggregationScheme::batch_source_init_into`]. After a warm-up
//!   epoch per buffer, the pipeline itself performs no heap allocation
//!   per epoch at `threads = 1` (the `alloc_free` integration test pins
//!   this with a counting allocator and a trivial scheme). SIES adds
//!   none of its own: its PRF sweeps run in stack tiles, its epoch
//!   cipher and `K_t⁻¹` use the Montgomery context built at setup, and
//!   a serial evaluation sums in place, so a warm SIES epoch makes zero
//!   allocations (the `sies_alloc` test). With `threads > 1` the
//!   scoped-worker spawn adds O(threads) allocations per epoch.
//!
//! ## Merge order
//!
//! Every aggregator merges the PSR copies its children sent, in child
//! order: a post-order walk pushes child results on a stack in *reverse
//! child order* (post-order visits subtrees last-child-first), so each
//! merge window — the copies its children left, one per child unless
//! the child failed, was dropped or was duplicated — is reversed before
//! the scheme sees it, and the sink's shard remnants are concatenated
//! in shard order then reversed into child order. The `flat_equivalence`
//! tests hold the engine and the pipeline to an independent recursive
//! fold over the pointer `Topology`; `soa_determinism` pins the digests
//! across thread counts and streaming modes.

use crate::engine::EpochCounts;
use crate::flat::FlatTopology;
use crate::radio::LossyRadio;
use crate::recovery::{uplink_stream, RecoveryConfig, ACK_BYTES, NACK_BYTES, RESOLICIT_BYTES};
use crate::scheme::{AggregationScheme, EvaluatedSum, SchemeError};
use sies_core::{parallel, Epoch, SourceId, Threads};
use sies_telemetry as tel;
use sies_telemetry::EventKind;
use std::ops::Range;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One contiguous run of sink-child subtrees in the post-order array,
/// walked serially by one worker.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// Post-order positions this shard covers.
    range: Range<usize>,
    /// Sources inside the range (pre-sizes the job buffers).
    sources: usize,
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

/// What a recovering shard's parents never heard.
#[derive(Default)]
pub(crate) struct Lost {
    /// Silenced subtrees and crashed sources, as `cut` ranges.
    pub(crate) cuts: Vec<Range<usize>>,
    /// The shard's recovery events, flushed in shard order.
    pub(crate) events: tel::EventBuf,
}

/// Reusable per-shard working state.
pub(crate) struct ShardState<P> {
    /// `(source, value)` jobs of the shard's live sources, in post-order.
    jobs: Vec<(SourceId, u64)>,
    /// Per-job init results, aligned with `jobs`.
    inits: Vec<Result<P, SchemeError>>,
    /// The post-order merge stack: the PSR copies every finished
    /// subtree sent up; the sink children's copies remain at the end.
    stack: Vec<P>,
    /// Nodes whose parent receives other than one copy (a failed,
    /// dropped or duplicated node, or an aggregator whose window was
    /// empty), as `(parent's post-order position, copies)`: an
    /// aggregator's merge window is one copy per child, corrected by the
    /// entries its children left on top.
    uneven: Vec<(u32, u32)>,
    /// What the shard's parents never heard (recovering epochs only).
    pub(crate) lost: Lost,
    /// First scheme error hit in the walk (aborts the epoch exactly
    /// where the serial walk would).
    err: Option<SchemeError>,
    /// The shard's activity up to the end of its walk or its error.
    counts: EpochCounts,
}

impl<P> ShardState<P> {
    fn with_capacity(shard: &Shard) -> Self {
        ShardState {
            jobs: Vec::with_capacity(shard.sources),
            inits: Vec::with_capacity(shard.sources),
            stack: Vec::new(),
            uneven: Vec::new(),
            lost: Lost::default(),
            err: None,
            counts: EpochCounts::default(),
        }
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.jobs.capacity() * size_of::<(SourceId, u64)>()
            + self.inits.capacity() * size_of::<Result<P, SchemeError>>()
            + self.stack.capacity() * size_of::<P>()
            + self.uneven.capacity() * size_of::<(u32, u32)>()
    }
}

/// One epoch's worth of reusable buffers. The pipeline owns two and
/// alternates them when streaming; the engine owns one and leaves
/// `values` empty, reading its caller's slice instead.
pub(crate) struct EpochBuf<P> {
    /// `values[i]` is source `i`'s reading, filled by the caller.
    values: Vec<u64>,
    /// One state block per shard, written by the producer.
    pub(crate) shards: Vec<ShardState<P>>,
    /// Shard remnants gathered for the sink merge.
    root_inputs: Vec<P>,
}

impl<P> EpochBuf<P> {
    /// Buffers for `shards` over `flat`, with `values` slots.
    pub(crate) fn new(flat: &FlatTopology, shards: &[Shard], values: usize) -> Self {
        EpochBuf {
            values: vec![0u64; values],
            shards: shards.iter().map(ShardState::with_capacity).collect(),
            root_inputs: Vec::with_capacity(flat.children(flat.root()).len()),
        }
    }

    /// Sources the last source phase initialised.
    pub(crate) fn live_sources(&self) -> u64 {
        self.shards.iter().map(|st| st.jobs.len() as u64).sum()
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.values.capacity() * size_of::<u64>()
            + self.root_inputs.capacity() * size_of::<P>()
            + self.shards.iter().map(ShardState::bytes).sum::<usize>()
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
    pub(crate) flat: &'a FlatTopology,
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
    /// Source init + in-shard merges for one epoch, sharded across the
    /// scoped pool. Allocation-free once the buffers are warm.
    pub(crate) fn produce(&self, epoch: Epoch, values: &[u64], shards: &mut [ShardState<S::Psr>]) {
        parallel::for_each_pair_mut(self.threads, self.shards, shards, |_, shard, st| {
            let _shard_span = tel::span!("pipeline.shard");
            self.init_shard(epoch, shard, values, st);
            match (!self.marks.is_empty(), self.uplinks.is_some()) {
                (false, false) => self.merge_shard::<false, false>(epoch, shard, st),
                (true, false) => self.merge_shard::<true, false>(epoch, shard, st),
                (false, true) => self.merge_shard::<false, true>(epoch, shard, st),
                (true, true) => self.merge_shard::<true, true>(epoch, shard, st),
            }
        });
    }

    /// The marks from post-order position `start` on.
    fn marks_from(&self, start: usize) -> Marks<'_> {
        let skip = self.marks.partition_point(|m| (m.0 as usize) < start);
        Marks(&self.marks[skip..])
    }

    /// The shard's positions paired with their node ids.
    fn walk<'f>(&'f self, shard: &Shard) -> impl Iterator<Item = (usize, usize)> + 'f {
        let post = &self.flat.post_order()[shard.range.clone()];
        shard.range.clone().zip(post.iter().map(|&id| id as usize))
    }

    /// Batched init of the shard's live (not failed) sources.
    fn init_shard(&self, epoch: Epoch, shard: &Shard, values: &[u64], st: &mut ShardState<S::Psr>) {
        st.err = None;
        st.counts = EpochCounts::default();
        st.jobs.clear();
        let mut marks = self.marks_from(shard.range.start);
        for (pos, id) in self.walk(shard) {
            if let Some(sid) = self.flat.source_id(id) {
                if !marks.at(pos).failed {
                    st.jobs.push((sid, values[sid as usize]));
                }
            }
        }
        let t0 = Instant::now();
        self.scheme
            .batch_source_init_into(epoch, &st.jobs, &mut st.inits);
        st.counts.source_ns = now_ns(t0);
        debug_assert_eq!(st.inits.len(), st.jobs.len(), "one result per job");
    }

    /// The shard's post-order merge walk over its init results.
    /// `MARKED` is false when the epoch has no marks: the walk then
    /// compiles without mark lookups or attack branches. `RECOVERING`
    /// runs each sent PSR's uplink before any attack on it, and a scheme
    /// error or a lost uplink silences one node instead of the epoch.
    fn merge_shard<const MARKED: bool, const RECOVERING: bool>(
        &self,
        epoch: Epoch,
        shard: &Shard,
        st: &mut ShardState<S::Psr>,
    ) {
        let ShardState {
            inits,
            stack,
            uneven,
            lost,
            err,
            counts,
            ..
        } = st;
        stack.clear();
        uneven.clear();
        lost.cuts.clear();
        let t0 = Instant::now();
        // Counted in a local, so the per-node updates stay in registers.
        let mut walked = EpochCounts {
            source_ns: counts.source_ns,
            ..EpochCounts::default()
        };
        let mut marks = self.marks_from(shard.range.start);
        let mut inits = inits.iter();
        for (pos, id) in self.walk(shard) {
            let mark = if MARKED {
                marks.at(pos)
            } else {
                Mark::default()
            };
            let from_source = self.flat.is_source(id);
            let mut psr = if from_source {
                if mark.failed {
                    if RECOVERING {
                        cut(&mut lost.cuts, pos..pos + 1);
                    }
                    uneven.push(self.to_parent(id, 0));
                    continue;
                }
                walked.sources_run += 1;
                match inits.next().expect("one init per live source") {
                    Ok(psr) => psr.clone(),
                    Err(e) if !RECOVERING => {
                        *err = Some(e.clone());
                        break;
                    }
                    Err(_) => {
                        walked.recovery.init_failures += 1;
                        self.silence(epoch, id, mark, lost, uneven, &mut walked);
                        continue;
                    }
                }
            } else {
                let mut window = self.flat.children(id).len();
                while let Some(&(parent, copies)) = uneven.last() {
                    if parent as usize != pos {
                        break;
                    }
                    window = window + copies as usize - 1;
                    uneven.pop();
                }
                let base = stack.len() - window;
                if RECOVERING && mark.failed {
                    // The copies join the parent's window, and so on up
                    // to the adopter, which merges them in this place.
                    uneven.push(self.to_parent(id, window as u32));
                    continue;
                }
                if mark.failed || window == 0 {
                    stack.truncate(base);
                    if RECOVERING {
                        self.silence(epoch, id, mark, lost, uneven, &mut walked);
                    } else {
                        uneven.push(self.to_parent(id, 0));
                    }
                    continue;
                }
                // The children's copies sit on the stack last child
                // first (post-order visits subtrees in reverse); restore
                // child order so the scheme merges exactly the sequence
                // a parent gathering its children in order would.
                stack[base..].reverse();
                walked.aggregators_run += 1;
                let merged = self.scheme.try_merge(&stack[base..]);
                stack.truncate(base);
                match merged {
                    Ok(merged) => merged,
                    Err(e) if !RECOVERING => {
                        *err = Some(e);
                        break;
                    }
                    Err(_) => {
                        walked.recovery.merge_failures += 1;
                        self.silence(epoch, id, mark, lost, uneven, &mut walked);
                        continue;
                    }
                }
            };
            if RECOVERING {
                let size = self.scheme.psr_wire_size(&psr) as u64;
                if !self.uplink(epoch, id, mark, size, lost, &mut walked) {
                    self.silence(epoch, id, mark, lost, uneven, &mut walked);
                    continue;
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
        }
        if !RECOVERING {
            // Every uplink copy is received by its parent.
            walked.rx_bytes = walked.bytes.source_to_agg + walked.bytes.agg_to_agg;
        }
        walked.aggregator_ns = now_ns(t0);
        *counts = walked;
    }

    /// The `uneven` entry telling `id`'s parent that `copies` PSR copies
    /// arrived from `id`.
    fn to_parent(&self, id: usize, copies: u32) -> (u32, u32) {
        let parent = self.flat.parent(id).expect("shards hold no sink");
        (self.flat.post_position(parent) as u32, copies)
    }

    /// The live node that receives `id`'s PSR in a recovering epoch: its
    /// adopter when its parent is down, else its parent.
    fn receiver(&self, id: usize, mark: Mark) -> usize {
        match mark.adopter {
            Some(adopter) => adopter as usize,
            None => self.flat.parent(id).expect("shards hold no sink"),
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
        let hops = self.flat.depth(self.receiver(id, mark)) as u64 + 1;
        walked.uplink(self.flat.is_source(id), size);
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
        cut(&mut lost.cuts, self.flat.subtree_range(id));
        let receiver = self.receiver(id, mark);
        walked.failure_report(self.flat.depth(receiver) + 1);
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
    /// stale on early aborts. Shard counts fold in shard order and stop
    /// at the first shard that hit a scheme error, so an aborted epoch
    /// reports what the serial walk had done when it stopped.
    pub(crate) fn consume(
        &self,
        epoch: Epoch,
        buf: &mut EpochBuf<S::Psr>,
        last_final: &mut Option<S::Psr>,
    ) -> (EpochCounts, Result<EvaluatedSum, SchemeError>) {
        let _consume_span = tel::span!("pipeline.consume");
        let EpochBuf {
            shards,
            root_inputs,
            ..
        } = buf;
        let mut counts = EpochCounts::default();
        root_inputs.clear();
        for st in shards.iter_mut() {
            counts.add(&st.counts);
            if let Some(e) = st.err.take() {
                return (counts, Err(e));
            }
            root_inputs.append(&mut st.stack);
        }
        // Shard remnants arrive in post order = reverse child order.
        root_inputs.reverse();

        let root = self.flat.post_order().len() - 1;
        let mark = self.marks_from(root).at(root);
        if mark.failed || root_inputs.is_empty() {
            return (counts, Err(nothing_reached_querier()));
        }
        counts.aggregators_run += 1;
        let t0 = Instant::now();
        let merged = self.scheme.try_merge(root_inputs);
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
        buf: &mut EpochBuf<S::Psr>,
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

/// Splits the sink's child subtrees (contiguous post-order segments)
/// into at most `threads` contiguous, size-balanced shards.
pub(crate) fn plan_shards(flat: &FlatTopology, threads: usize) -> Vec<Shard> {
    let root = flat.root();
    let mut segments: Vec<Range<usize>> = flat
        .children(root)
        .iter()
        .map(|&c| flat.subtree_range(c as usize))
        .collect();
    segments.sort_by_key(|r| r.start);
    if segments.is_empty() {
        return Vec::new();
    }
    let total: usize = segments.iter().map(Range::len).sum();
    let workers = threads.max(1).min(segments.len());
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(workers);
    let mut iter = segments.into_iter();
    let mut consumed = 0usize;
    for w in 0..workers {
        let goal = total * (w + 1) / workers;
        let Some(first) = iter.next() else { break };
        let mut range = first;
        consumed += range.len();
        while consumed < goal {
            let Some(next) = iter.next() else { break };
            debug_assert_eq!(next.start, range.end, "segments must be contiguous");
            consumed += next.len();
            range.end = next.end;
        }
        ranges.push(range);
    }
    // Rounding leftovers join the last shard.
    if let (Some(last), rest) = (ranges.last_mut(), iter) {
        for next in rest {
            last.end = next.end;
        }
    }
    ranges
        .into_iter()
        .map(|range| {
            let sources = flat.post_order()[range.clone()]
                .iter()
                .filter(|&&id| flat.is_source(id as usize))
                .count();
            Shard { range, sources }
        })
        .collect()
}

/// The streamed clean-path epoch runner over a [`FlatTopology`] arena.
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use sies_core::{SystemParams, Threads};
/// use sies_net::deploy::SiesDeployment;
/// use sies_net::flat::FlatTopology;
/// use sies_net::pipeline::EpochPipeline;
/// use sies_net::topology::Topology;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let deployment = SiesDeployment::new(&mut rng, SystemParams::new(16).unwrap());
/// let topology = Topology::complete_tree(16, 4);
/// let flat = FlatTopology::from_topology(&topology);
/// let mut pipeline = EpochPipeline::new(&deployment, &flat, Threads::serial(), false);
/// let mut sums = Vec::new();
/// pipeline.run(0, 2, |_, values| values.fill(3), |_, _, result, _| {
///     sums.push(result.as_ref().unwrap().sum);
/// });
/// assert_eq!(sums, [48.0, 48.0]);
/// ```
pub struct EpochPipeline<'a, S: AggregationScheme> {
    scheme: &'a S,
    flat: &'a FlatTopology,
    threads: usize,
    streaming: bool,
    shards: Vec<Shard>,
    contributors: Vec<SourceId>,
    /// The two alternating epoch buffers ("front" and "back"); `None`
    /// only transiently inside [`run`](Self::run).
    bufs: Option<BufPair<S::Psr>>,
    last_final: Option<S::Psr>,
}

/// The pipeline's double buffer: one `EpochBuf` per in-flight epoch.
type BufPair<P> = (EpochBuf<P>, EpochBuf<P>);

impl<'a, S: AggregationScheme> EpochPipeline<'a, S> {
    /// Builds a pipeline over `flat` with the given worker count.
    /// `streaming` overlaps epoch `t+1`'s source phase with epoch `t`'s
    /// merge/evaluate on a dedicated producer thread.
    pub fn new(scheme: &'a S, flat: &'a FlatTopology, threads: Threads, streaming: bool) -> Self {
        let threads = threads.resolve();
        let shards = plan_shards(flat, threads);
        let n_sources = flat.num_sources() as usize;
        let bufs = Some((
            EpochBuf::new(flat, &shards, n_sources),
            EpochBuf::new(flat, &shards, n_sources),
        ));
        EpochPipeline {
            scheme,
            flat,
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

    /// Heap bytes held by the pipeline's reusable epoch state (both
    /// buffers plus shard bookkeeping), the pipeline's share of the
    /// bytes-per-node budget. Excludes the arena — add
    /// [`FlatTopology::bytes`] — and the scheme's key material.
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        let bufs = match &self.bufs {
            Some((a, b)) => a.bytes() + b.bytes(),
            None => 0,
        };
        bufs + self.shards.capacity() * size_of::<Shard>()
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
        let (front, back) = self.bufs.take().expect("buffers present between runs");
        let mut last_final = self.last_final.take();
        let exec = Exec {
            scheme: self.scheme,
            flat: self.flat,
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
            let mut front = front;
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
                        exec.produce(epoch, &front.values, &mut front.shards);
                        exec.deliver(epoch, &mut front, &mut last_final, &mut sink);
                        gate.advance(epoch);
                    }
                });
            } else {
                for epoch in first_epoch..=last {
                    fill(epoch, &mut front.values);
                    exec.produce(epoch, &front.values, &mut front.shards);
                    exec.deliver(epoch, &mut front, &mut last_final, &mut sink);
                }
            }
            self.bufs = Some((front, back));
            self.last_final = last_final;
            return;
        }

        // Streaming: a scoped producer runs `produce` for epoch t+1
        // while this thread consumes epoch t. `pool` holds idle buffers;
        // the mailboxes move them by value (three Vec pointers).
        let mut pool: Vec<EpochBuf<S::Psr>> = Vec::with_capacity(2);
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
                    exec.produce(epoch, &buf.values, &mut buf.shards);
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

            let mut front = front;
            fill(first_epoch, &mut front.values);
            tp.send((first_epoch, front));
            pool.push(back);
            for epoch in first_epoch..=last {
                if epoch < last {
                    let mut next = pool.pop().expect("a spare buffer is always free");
                    fill(epoch + 1, &mut next.values);
                    tp.send((epoch + 1, next));
                }
                let (produced_epoch, mut buf) = tc
                    .recv()
                    .expect("producer terminated before the last epoch");
                debug_assert_eq!(produced_epoch, epoch, "epochs hand off in order");
                exec.deliver(epoch, &mut buf, &mut last_final, &mut sink);
                gate.advance(epoch);
                pool.push(buf);
            }
            tp.close();
        });
        let b = pool.pop().expect("both buffers return to the pool");
        let a = pool.pop().expect("both buffers return to the pool");
        self.bufs = Some((a, b));
        self.last_final = last_final;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::topology::Topology;

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
        let flat = FlatTopology::from_topology(topo);
        let mut pipeline = EpochPipeline::new(&PlainSum, &flat, Threads::fixed(threads), streaming);
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
        let flat = FlatTopology::from_topology(&topo);
        let mut pipeline = EpochPipeline::new(&PlainSum, &flat, Threads::serial(), true);
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
        let flat = FlatTopology::from_topology(&topo);
        let run = |policy: Option<PrewarmPolicy>, threads: usize, streaming: bool| {
            let mut rng = StdRng::seed_from_u64(5);
            let dep = SiesDeployment::new(&mut rng, SystemParams::new(32).unwrap());
            if let Some(p) = policy {
                dep.set_prewarm_policy(p);
            }
            let mut pipeline = EpochPipeline::new(&dep, &flat, Threads::fixed(threads), streaming);
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
        let flat = FlatTopology::from_topology(&topo);
        let mut pipeline = EpochPipeline::new(&Rejecting, &flat, Threads::serial(), false);
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
