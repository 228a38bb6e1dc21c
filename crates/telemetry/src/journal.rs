//! Bounded per-epoch event journal: a ring buffer of typed events.
//!
//! Counters answer "how many"; the journal answers "what happened, in
//! order". Each event carries the epoch it belongs to, a kind tag, and
//! two kind-specific payload words. The buffer is bounded: when full,
//! the oldest events are evicted and a drop counter advances, so the
//! journal can stay on for a 2000-epoch chaos run without growing
//! without bound.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

/// Global counter advanced whenever a bounded telemetry buffer (the
/// event ring here, or the trace-event timeline) discards an entry, so
/// a window whose record is incomplete says so in its own snapshot
/// diff.
pub const EVENTS_DROPPED: &str = "telemetry.events_dropped";

/// Bumps [`EVENTS_DROPPED`] in the global registry. The counter handle
/// is cached after the first call, so steady-state cost is one atomic
/// add — safe to call with a ring mutex held (the registry lock is
/// only taken once, and never takes the ring lock).
pub(crate) fn note_events_dropped(n: u64) {
    static HANDLE: OnceLock<std::sync::Arc<crate::metric::Counter>> = OnceLock::new();
    HANDLE
        .get_or_init(|| crate::registry::global().counter(EVENTS_DROPPED))
        .add(n);
}

/// What happened. Payload word meanings are listed per variant as
/// `(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Querier broadcast the epoch query. `(n_sources, 0)`
    QueryDisseminated,
    /// The epoch's sources not failed this epoch, which the walk
    /// initialises unless a first error stops it; one per epoch.
    /// `(live sources, 0)`
    SourceInit,
    /// Epoch verdict: accepted. `(contributors, 0)`
    EpochAccepted,
    /// Epoch verdict: integrity failure detected. `(contributors, 0)`
    EpochRejected,
    /// Epoch verdict: no result reached the querier. `(0, 0)`
    EpochLost,
    /// Recovery: an uplink's frames were NACKed. `(node_id, nacks)`
    NackSent,
    /// Recovery: an uplink retransmitted. `(node_id, retransmissions)`
    Retransmit,
    /// Recovery: the querier re-solicited an uplink. `(node_id, rounds)`
    Resolicit,
    /// Recovery: orphan adopted by a backup parent. `(child_id, parent_id)`
    Reattach,
    /// Recovery: failure report escalated. `(silent_node_id, reporter_id)`
    FailureReport,
    /// Chaos: a node crash was injected. `(node_id, 0)`
    CrashInjected,
    /// Chaos: a value/integrity attack was injected. `(node_id, 0)`
    AttackInjected,
    /// muTesla: an interval key was disclosed. `(interval, 0)`
    KeyDisclosed,
    /// A multi-lane kernel pass chose a dispatch width.
    /// `(requested_width, effective_width)` — the two differ when the
    /// requested lane count exceeds what the hardware supports and the
    /// dispatcher falls back (e.g. 16 lanes without AVX-512).
    LaneDispatch,
    /// Receipts: one epoch's receipt was committed to the durable
    /// journal. `(records, bytes_written)`
    ReceiptCommitted,
    /// Receipts: a journal was replayed at startup. `(records, torn_tail)`
    JournalReplayed,
}

impl EventKind {
    /// Stable machine-readable name (used by the JSON trace).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::QueryDisseminated => "query_disseminated",
            EventKind::SourceInit => "source_init",
            EventKind::EpochAccepted => "epoch_accepted",
            EventKind::EpochRejected => "epoch_rejected",
            EventKind::EpochLost => "epoch_lost",
            EventKind::NackSent => "nack_sent",
            EventKind::Retransmit => "retransmit",
            EventKind::Resolicit => "resolicit",
            EventKind::Reattach => "reattach",
            EventKind::FailureReport => "failure_report",
            EventKind::CrashInjected => "crash_injected",
            EventKind::AttackInjected => "attack_injected",
            EventKind::KeyDisclosed => "key_disclosed",
            EventKind::LaneDispatch => "lane_dispatch",
            EventKind::ReceiptCommitted => "receipt_committed",
            EventKind::JournalReplayed => "journal_replayed",
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (monotone across evictions — gaps in a
    /// drained batch reveal how much was dropped and where).
    pub seq: u64,
    /// Epoch the event belongs to.
    pub epoch: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (meaning per [`EventKind`] variant).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl Event {
    /// Serializes the event as one JSON object (hand-rolled, no deps).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"epoch\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
            self.seq,
            self.epoch,
            self.kind.name(),
            self.a,
            self.b
        )
    }
}

/// Default ring capacity: enough for several epochs of a dense chaos
/// run without unbounded growth.
pub const DEFAULT_CAPACITY: usize = 4096;

struct Ring {
    buf: VecDeque<Event>,
    cap: usize,
    next_seq: u64,
    dropped: u64,
}

/// The bounded event ring. The process-wide instance is
/// [`crate::journal()`]; recording goes through
/// [`crate::event`] so it obeys the kill-switch.
pub struct Journal {
    ring: Mutex<Ring>,
}

impl Default for Journal {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Journal {
    /// Creates a journal bounded at `cap` events (min 1).
    pub fn with_capacity(cap: usize) -> Self {
        Journal {
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                cap: cap.max(1),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    /// Returns the event's sequence number.
    pub fn record(&self, epoch: u64, kind: EventKind, a: u64, b: u64) -> u64 {
        let mut r = self.ring.lock().unwrap();
        let seq = r.next_seq;
        r.next_seq += 1;
        if r.buf.len() == r.cap {
            r.buf.pop_front();
            r.dropped += 1;
            note_events_dropped(1);
        }
        r.buf.push_back(Event {
            seq,
            epoch,
            kind,
            a,
            b,
        });
        seq
    }

    /// Appends a batch of `(epoch, kind, a, b)` events under a single
    /// lock acquisition. Hot loops that would otherwise take the ring
    /// mutex once per event buffer locally and flush through here.
    pub fn record_batch(&self, events: &[(u64, EventKind, u64, u64)]) {
        if events.is_empty() {
            return;
        }
        let mut r = self.ring.lock().unwrap();
        for &(epoch, kind, a, b) in events {
            let seq = r.next_seq;
            r.next_seq += 1;
            if r.buf.len() == r.cap {
                r.buf.pop_front();
                r.dropped += 1;
                note_events_dropped(1);
            }
            r.buf.push_back(Event {
                seq,
                epoch,
                kind,
                a,
                b,
            });
        }
    }

    /// Resizes the ring (evicting oldest entries if shrinking below the
    /// current length).
    pub fn set_capacity(&self, cap: usize) {
        let mut r = self.ring.lock().unwrap();
        r.cap = cap.max(1);
        while r.buf.len() > r.cap {
            r.buf.pop_front();
            r.dropped += 1;
            note_events_dropped(1);
        }
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.ring.lock().unwrap().buf.drain(..).collect()
    }

    /// Events evicted (not drained) since creation.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_batch_matches_singles_and_evicts() {
        let j = Journal::with_capacity(4);
        j.record(1, EventKind::QueryDisseminated, 9, 0);
        j.record_batch(&[
            (1, EventKind::Retransmit, 2, 1),
            (1, EventKind::NackSent, 3, 2),
            (1, EventKind::Resolicit, 4, 1),
            (1, EventKind::EpochAccepted, 9, 0),
        ]);
        // 5 events into a 4-slot ring: the oldest is evicted, sequence
        // numbers keep counting across the batch.
        assert_eq!(j.dropped(), 1);
        let events = j.drain();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, EventKind::Retransmit);
        assert_eq!(events[3].seq, 4);
        j.record_batch(&[]);
        assert!(j.is_empty());
    }

    #[test]
    fn records_in_order_and_drains() {
        let j = Journal::with_capacity(8);
        j.record(1, EventKind::QueryDisseminated, 10, 0);
        j.record(1, EventKind::SourceInit, 3, 0);
        j.record(1, EventKind::EpochAccepted, 10, 0);
        let events = j.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::QueryDisseminated);
        assert_eq!(events[2].seq, 2);
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn bounded_ring_evicts_oldest() {
        let j = Journal::with_capacity(3);
        for i in 0..5 {
            j.record(i, EventKind::NackSent, i, 0);
        }
        let events = j.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2, "oldest two evicted");
        assert_eq!(j.dropped(), 2);
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let j = Journal::with_capacity(10);
        for i in 0..10 {
            j.record(0, EventKind::Retransmit, i, 0);
        }
        j.set_capacity(4);
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 6);
    }

    #[test]
    fn eviction_bumps_global_events_dropped_counter() {
        let counter = crate::registry::global().counter(EVENTS_DROPPED);
        let before = counter.get();
        let j = Journal::with_capacity(2);
        for i in 0..5 {
            j.record(0, EventKind::NackSent, i, 0);
        }
        j.set_capacity(1);
        // 3 record-time evictions + 1 shrink eviction. Other tests may
        // evict concurrently, so assert a lower bound.
        assert!(counter.get() - before >= 4);
        assert_eq!(j.dropped(), 4);
    }

    #[test]
    fn event_json_shape() {
        let j = Journal::with_capacity(2);
        j.record(7, EventKind::LaneDispatch, 8, 64);
        let e = &j.drain()[0];
        assert_eq!(
            e.to_json(),
            "{\"seq\":0,\"epoch\":7,\"kind\":\"lane_dispatch\",\"a\":8,\"b\":64}"
        );
    }
}
